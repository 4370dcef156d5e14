//! # dd-attack — the Bit-Flip Attack family
//!
//! Implements the attacker side of the DNN-Defender reproduction:
//!
//! * [`bfa`] — the progressive bit search of Rakin et al. (ICCV 2019):
//!   gradient-ranked intra-layer candidates, exact inter-layer selection;
//! * [`random_attack`] — the uniform random-flip baseline of Fig. 1(b);
//! * [`profile`] — the defender's multi-round skip-set profiling that
//!   produces the priority secured-bit list (§4);
//! * [`adaptive`] — attacks against a protected model: defense-blind
//!   (semi-white-box) and defense-aware (white-box, Fig. 9);
//! * [`threat`] — threat-model and search configuration (§3, Table 1).
//!
//! All attacks operate on a [`dd_qnn::QModel`] and leave RowHammer
//! physics to the `dd-dram` / `dnn-defender` crates: this crate answers
//! *which* bits the attacker wants, the memory stack answers *whether*
//! the flips land.

#![deny(missing_docs)]

pub mod adaptive;
pub mod bfa;
pub mod profile;
pub mod random_attack;
#[cfg(test)]
mod reference;
pub mod tbfa;
#[cfg(test)]
pub(crate) mod testutil;
pub mod threat;

pub use adaptive::{attack_protected, ProtectedAttackReport};
pub use bfa::{run_bfa, AttackData, AttackReport, AttackStep};
pub use profile::{multi_round_profile, ProfileReport};
pub use random_attack::{run_random_attack, RandomAttackReport};
pub use tbfa::{run_tbfa, TbfaGoal, TbfaReport};
pub use threat::{AttackConfig, ThreatModel};
