//! T-BFA: the *targeted* bit-flip attack [Rakin et al., TPAMI 2021] —
//! cited as ref \[17\] in the paper's threat model.
//!
//! Instead of destroying accuracy outright, T-BFA flips bits so that
//! inputs (optionally only those of a source class) are classified as an
//! attacker-chosen target class. It reuses the progressive search but
//! *descends* the cross-entropy toward the target labels. DNN-Defender's
//! protection argument is attack-agnostic — it secures whichever bits
//! the profiling search surfaces — so this module also doubles as an
//! extension workload for the defense.

use std::collections::HashSet;

use dd_nn::loss::accuracy;
use dd_nn::Tensor;
use dd_qnn::{BitAddr, BitFlip, QModel};

use crate::bfa::{AttackData, Search};
use crate::threat::AttackConfig;

/// What the targeted attack tries to achieve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbfaGoal {
    /// Only samples of this class are redirected (`None` = all samples,
    /// the "all-to-one" variant).
    pub source_class: Option<usize>,
    /// Class the samples should be classified as.
    pub target_class: usize,
}

/// Report of a targeted campaign.
#[derive(Debug, Clone)]
pub struct TbfaReport {
    /// The goal attacked.
    pub goal: TbfaGoal,
    /// Committed flips in order.
    pub flips: Vec<BitFlip>,
    /// Attack success rate before any flip.
    pub clean_asr: f32,
    /// Attack success rate after the final flip (fraction of in-scope
    /// samples classified as the target class).
    pub final_asr: f32,
    /// Overall accuracy after the attack (stealth metric: all-to-one
    /// attacks destroy it, one-to-one attacks should barely move it).
    pub final_accuracy: f32,
}

/// Fraction of the in-scope samples of a batch that `logits` classify as
/// the target class.
fn success_rate(logits: &Tensor, labels: &[usize], goal: TbfaGoal) -> f32 {
    let preds = logits.argmax_rows();
    let mut hits = 0usize;
    let mut total = 0usize;
    for (pred, &label) in preds.iter().zip(labels) {
        if goal.source_class.is_none_or(|s| label == s) {
            total += 1;
            hits += usize::from(*pred == goal.target_class);
        }
    }
    if total == 0 {
        0.0
    } else {
        hits as f32 / total as f32
    }
}

/// Run the targeted progressive bit search.
///
/// Each iteration flips the bit with the most *negative* first-order
/// effect on the targeted loss (cross-entropy toward the target labels
/// for in-scope samples, true labels elsewhere, so the attack stays
/// stealthy on the rest), evaluating the top-k candidates exactly. Steps
/// cost what [`crate::run_bfa`]'s do, and with equal search and eval
/// batches the success rates are read off the search's logits.
pub fn run_tbfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    goal: TbfaGoal,
    skip: &HashSet<BitAddr>,
) -> TbfaReport {
    let malicious_labels: Vec<usize> = data
        .search_labels
        .iter()
        .map(|&l| {
            if goal.source_class.is_none_or(|s| l == s) {
                goal.target_class
            } else {
                l
            }
        })
        .collect();
    let mut search = Search::start(model, data, &malicious_labels, true, config.max_flips);
    let clean_asr = success_rate(&search.eval_logits(model), &data.eval_labels, goal);
    let mut flips = Vec::new();
    let mut committed_eval: Option<Tensor> = None;

    for _ in 0..config.max_flips {
        let Some(step) = search.step(model, skip, config.evaluate_top_k) else {
            break;
        };
        flips.push(step.flip);

        let eval = search.eval_logits(model).into_owned();
        let asr = success_rate(&eval, &data.eval_labels, goal);
        committed_eval = Some(eval);
        if asr >= 0.95 {
            break;
        }
    }

    let eval = committed_eval.unwrap_or_else(|| search.eval_logits(model).into_owned());
    TbfaReport {
        goal,
        flips,
        clean_asr,
        final_asr: success_rate(&eval, &data.eval_labels, goal),
        final_accuracy: accuracy(&eval, &data.eval_labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;

    #[test]
    fn all_to_one_attack_redirects_predictions() {
        let (mut model, data, _) = trained_victim();
        let goal = TbfaGoal {
            source_class: None,
            target_class: 2,
        };
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 30,
            ..Default::default()
        };
        let report = run_tbfa(&mut model, &data, &config, goal, &HashSet::new());
        assert!(
            report.final_asr > report.clean_asr + 0.3,
            "targeted attack made no progress: {} -> {}",
            report.clean_asr,
            report.final_asr
        );
    }

    #[test]
    fn one_to_one_attack_is_stealthier() {
        let (mut model, data, _) = trained_victim();
        let snapshot = model.snapshot_q();
        let all = run_tbfa(
            &mut model,
            &data,
            &AttackConfig {
                target_accuracy: 0.0,
                max_flips: 20,
                ..Default::default()
            },
            TbfaGoal {
                source_class: None,
                target_class: 1,
            },
            &HashSet::new(),
        );
        model.restore_q(&snapshot);
        let one = run_tbfa(
            &mut model,
            &data,
            &AttackConfig {
                target_accuracy: 0.0,
                max_flips: 20,
                ..Default::default()
            },
            TbfaGoal {
                source_class: Some(0),
                target_class: 1,
            },
            &HashSet::new(),
        );
        // The class-restricted attack should preserve more overall
        // accuracy than the all-to-one attack.
        assert!(
            one.final_accuracy >= all.final_accuracy,
            "one-to-one ({}) should be stealthier than all-to-one ({})",
            one.final_accuracy,
            all.final_accuracy
        );
    }

    #[test]
    fn skip_set_blocks_targeted_flips_too() {
        let (mut model, data, _) = trained_victim();
        let snapshot = model.snapshot_q();
        let goal = TbfaGoal {
            source_class: None,
            target_class: 3,
        };
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 10,
            ..Default::default()
        };
        let first = run_tbfa(&mut model, &data, &config, goal, &HashSet::new());
        model.restore_q(&snapshot);
        let found: HashSet<BitAddr> = first.flips.iter().map(|f| f.addr).collect();
        let second = run_tbfa(&mut model, &data, &config, goal, &found);
        for f in &second.flips {
            assert!(!found.contains(&f.addr));
        }
    }
}
