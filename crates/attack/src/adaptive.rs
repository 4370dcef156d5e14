//! Attacks against a protected model (§5.2): the semi-white-box attacker
//! that is blind to the defense, and the adaptive white-box attacker that
//! knows the secured-bit set and searches around it.

use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use dd_qnn::{BitAddr, BitFlip, QModel};

use crate::bfa::{run_bfa, AttackData, AttackReport, Search};
use crate::threat::{AttackConfig, ThreatModel};

/// Report of an attack against a DNN-Defender-protected model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtectedAttackReport {
    /// Threat model used.
    pub threat: ThreatModel,
    /// Flips the attacker *attempted* (landed or not).
    pub attempted_flips: usize,
    /// Flips that actually landed (hit unprotected bits).
    pub landed_flips: usize,
    /// Accuracy of the *real* (defended) model before the attack.
    pub clean_accuracy: f32,
    /// Accuracy of the real model after the attack.
    pub final_accuracy: f32,
    /// `(attempted flips, real accuracy)` trajectory.
    pub trajectory: Vec<(usize, f32)>,
}

/// Attack a model whose `protected` bits are refreshed by DNN-Defender
/// before any RowHammer campaign against them can reach `T_RH`.
///
/// * [`ThreatModel::SemiWhiteBox`]: the attacker runs the stock BFA on its
///   *belief* of the model. Flips that target protected bits never land on
///   the real system (the swap refreshes the victim row first), but the
///   attacker — lacking memory read permission — keeps searching as if
///   they had. The real model only accumulates the unprotected flips.
/// * [`ThreatModel::WhiteBox`]: the attacker knows the secured-bit set and
///   skips it, so every attempted flip lands; the question is how much
///   damage the leftover (unprotected) bits can still do.
pub fn attack_protected(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    protected: &HashSet<BitAddr>,
    threat: ThreatModel,
) -> ProtectedAttackReport {
    match threat {
        ThreatModel::WhiteBox => {
            let report = run_bfa(model, data, config, protected);
            into_protected_report(report, threat)
        }
        ThreatModel::SemiWhiteBox => semi_white_box(model, data, config, protected),
    }
}

fn into_protected_report(report: AttackReport, threat: ThreatModel) -> ProtectedAttackReport {
    ProtectedAttackReport {
        threat,
        attempted_flips: report.bit_flips,
        landed_flips: report.bit_flips,
        clean_accuracy: report.clean_accuracy,
        final_accuracy: report.final_accuracy,
        trajectory: report.trajectory(),
    }
}

/// The defense-blind attacker. The model instance plays the attacker's
/// belief state (all flips applied); the *real* system state is obtained
/// by reverting the flips that the defense blocked, which is exact because
/// bit flips commute. Steps cost what [`run_bfa`]'s do; the real accuracy
/// is read off the search's logits while no flip has been blocked.
fn semi_white_box(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    protected: &HashSet<BitAddr>,
) -> ProtectedAttackReport {
    let mut search = Search::start(model, data, &data.search_labels, false, config.max_flips);
    let clean_accuracy = search.eval_accuracy(model);
    let mut blocked: Vec<BitFlip> = Vec::new();
    let mut attempted = 0usize;
    let mut landed = 0usize;
    let mut trajectory = vec![(0usize, clean_accuracy)];
    let empty = HashSet::new();

    for iter in 0..config.max_flips {
        let Some(step) = search.step(model, &empty, config.evaluate_top_k) else {
            break;
        };
        attempted += 1;
        if protected.contains(&step.flip.addr) {
            // The defense refreshed the row before T_RH: the flip never
            // landed on the real system, but the attacker believes it did.
            blocked.push(step.flip);
        } else {
            landed += 1;
        }

        if (iter + 1) % config.record_every.max(1) == 0 {
            let acc = real_accuracy(model, data, &search, &blocked);
            trajectory.push((attempted, acc));
            if acc <= config.target_accuracy {
                break;
            }
        }
    }

    let final_accuracy = real_accuracy(model, data, &search, &blocked);

    ProtectedAttackReport {
        threat: ThreatModel::SemiWhiteBox,
        attempted_flips: attempted,
        landed_flips: landed,
        clean_accuracy,
        final_accuracy,
        trajectory,
    }
}

/// Evaluate the real (defended) system: the belief model minus the flips
/// the defense blocked. With nothing blocked the two models are one, so
/// the belief search's eval accuracy is the answer
/// (see [`Search::eval_logits`]).
fn real_accuracy(
    model: &mut QModel,
    data: &AttackData,
    search: &Search,
    blocked: &[BitFlip],
) -> f32 {
    if blocked.is_empty() {
        return search.eval_accuracy(model);
    }
    // Toggle the blocked bits rather than `unflip` their records: a later
    // landed flip of another bit of the same weight makes a record's
    // `new` value stale, but bit toggles commute.
    for flip in blocked {
        model.flip_bit(flip.addr);
    }
    let acc = model.accuracy(&data.eval_images, &data.eval_labels);
    for flip in blocked {
        model.flip_bit(flip.addr);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::multi_round_profile;
    use crate::testutil::trained_victim;

    fn profile_bits(model: &mut QModel, data: &AttackData, rounds: usize) -> HashSet<BitAddr> {
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        multi_round_profile(model, data, &config, rounds).all()
    }

    #[test]
    fn semi_white_box_attack_fails_against_protection() {
        let (mut model, data, clean) = trained_victim();
        // Profile enough rounds to cover what a naive attacker would flip.
        let protected = profile_bits(&mut model, &data, 2);
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 15,
            ..Default::default()
        };
        let report = attack_protected(
            &mut model,
            &data,
            &config,
            &protected,
            ThreatModel::SemiWhiteBox,
        );
        // The naive attack's chosen bits are exactly the profiled ones, so
        // nearly nothing lands and accuracy barely moves.
        assert!(
            report.final_accuracy >= clean - 0.15,
            "semi-white-box attack should fail: {} vs clean {clean}",
            report.final_accuracy
        );
        assert!(report.landed_flips <= report.attempted_flips);
    }

    #[test]
    fn white_box_with_small_protection_still_damages() {
        let (mut model, data, clean) = trained_victim();
        let protected = profile_bits(&mut model, &data, 1);
        let snapshot = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 25,
            ..Default::default()
        };
        let report = attack_protected(
            &mut model,
            &data,
            &config,
            &protected,
            ThreatModel::WhiteBox,
        );
        model.restore_q(&snapshot);
        // Adaptive attacker skips protected bits but finds others.
        assert!(
            report.final_accuracy < clean,
            "white-box attacker found nothing"
        );
        assert_eq!(report.landed_flips, report.attempted_flips);
    }

    #[test]
    fn more_secured_bits_means_more_attacker_effort() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.45,
            max_flips: 40,
            ..Default::default()
        };
        let profile = multi_round_profile(
            &mut model,
            &data,
            &AttackConfig {
                target_accuracy: 0.3,
                max_flips: 15,
                ..Default::default()
            },
            4,
        );
        let snapshot = model.snapshot_q();

        let mut flips_needed = Vec::new();
        for rounds_protected in [0usize, 2, 4] {
            let n: usize = profile.round_sizes.iter().take(rounds_protected).sum();
            let protected = profile.prefix(n);
            let report = attack_protected(
                &mut model,
                &data,
                &config,
                &protected,
                ThreatModel::WhiteBox,
            );
            model.restore_q(&snapshot);
            let flips = if report.final_accuracy <= config.target_accuracy {
                report.attempted_flips
            } else {
                config.max_flips + 1 // did not reach target at all
            };
            flips_needed.push(flips);
        }
        assert!(
            flips_needed[0] <= flips_needed[1] && flips_needed[1] <= flips_needed[2],
            "protection did not monotonically raise attack cost: {flips_needed:?}"
        );
    }
}
