//! The full-forward searches, kept as differential oracles for the
//! shipped ones: every candidate, loss and accuracy here is a full
//! forward of the model as it stands, and TBFA keeps its own
//! most-negative-gain candidate scan. The shipped searches resume
//! candidates from the flipped layer and reuse logits they already have;
//! the tests below hold them to these bit for bit.

use std::collections::HashSet;

use dd_nn::Tensor;
use dd_qnn::{BitAddr, BitFlip, QModel};

use crate::adaptive::ProtectedAttackReport;
use crate::bfa::{ranked_candidates, AttackData, AttackReport, AttackStep};
use crate::tbfa::{TbfaGoal, TbfaReport};
use crate::threat::{AttackConfig, ThreatModel};

/// Exact inter-layer search by full forwards: the first candidate with
/// the highest (`maximize`) or lowest search-batch loss on `labels`.
fn best_by_full_forward(
    model: &mut QModel,
    images: &Tensor,
    labels: &[usize],
    candidates: &[(BitAddr, f32)],
    maximize: bool,
) -> (BitAddr, f32) {
    let mut best: Option<(BitAddr, f32)> = None;
    for &(addr, _) in candidates {
        let flip = model.flip_bit(addr);
        let loss = model.loss(images, labels);
        model.unflip(flip);
        let better = |bl: f32| if maximize { loss > bl } else { loss < bl };
        if best.is_none_or(|(_, bl)| better(bl)) {
            best = Some((addr, loss));
        }
    }
    best.expect("candidates were non-empty")
}

fn run_bfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    skip: &HashSet<BitAddr>,
) -> AttackReport {
    let clean_accuracy = model.accuracy(&data.eval_images, &data.eval_labels);
    let mut steps = Vec::new();
    let mut final_accuracy = clean_accuracy;
    let mut reached_target = false;

    for iter in 0..config.max_flips {
        let loss_before = model.loss(&data.search_images, &data.search_labels);
        let grads = model.weight_grads(&data.search_images, &data.search_labels);
        let candidates = ranked_candidates(model, &grads, skip, config.evaluate_top_k);
        if candidates.is_empty() {
            break;
        }
        let (addr, loss_after) = best_by_full_forward(
            model,
            &data.search_images,
            &data.search_labels,
            &candidates,
            true,
        );
        let flip = model.flip_bit(addr);
        let accuracy = if (iter + 1) % config.record_every.max(1) == 0 {
            let acc = model.accuracy(&data.eval_images, &data.eval_labels);
            final_accuracy = acc;
            Some(acc)
        } else {
            None
        };
        steps.push(AttackStep {
            flip,
            loss_before,
            loss_after,
            accuracy,
        });
        if final_accuracy <= config.target_accuracy {
            reached_target = true;
            break;
        }
    }

    if steps.last().is_some_and(|s| s.accuracy.is_none()) {
        final_accuracy = model.accuracy(&data.eval_images, &data.eval_labels);
    }
    AttackReport {
        bit_flips: steps.len(),
        steps,
        clean_accuracy,
        final_accuracy,
        reached_target,
    }
}

fn semi_white_box(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    protected: &HashSet<BitAddr>,
) -> ProtectedAttackReport {
    let real_accuracy = |model: &mut QModel, blocked: &[BitFlip]| {
        for flip in blocked {
            model.flip_bit(flip.addr);
        }
        let acc = model.accuracy(&data.eval_images, &data.eval_labels);
        for flip in blocked {
            model.flip_bit(flip.addr);
        }
        acc
    };
    let clean_accuracy = model.accuracy(&data.eval_images, &data.eval_labels);
    let mut blocked: Vec<BitFlip> = Vec::new();
    let mut attempted = 0usize;
    let mut landed = 0usize;
    let mut trajectory = vec![(0usize, clean_accuracy)];

    for iter in 0..config.max_flips {
        let grads = model.weight_grads(&data.search_images, &data.search_labels);
        let candidates = ranked_candidates(model, &grads, &HashSet::new(), config.evaluate_top_k);
        if candidates.is_empty() {
            break;
        }
        let (addr, _) = best_by_full_forward(
            model,
            &data.search_images,
            &data.search_labels,
            &candidates,
            true,
        );
        let flip = model.flip_bit(addr);
        attempted += 1;
        if protected.contains(&addr) {
            blocked.push(flip);
        } else {
            landed += 1;
        }
        if (iter + 1) % config.record_every.max(1) == 0 {
            let acc = real_accuracy(model, &blocked);
            trajectory.push((attempted, acc));
            if acc <= config.target_accuracy {
                break;
            }
        }
    }

    ProtectedAttackReport {
        threat: ThreatModel::SemiWhiteBox,
        attempted_flips: attempted,
        landed_flips: landed,
        clean_accuracy,
        final_accuracy: real_accuracy(model, &blocked),
        trajectory,
    }
}

fn attack_success_rate(model: &mut QModel, data: &AttackData, goal: TbfaGoal) -> f32 {
    let logits = model.forward(&data.eval_images);
    let preds = logits.argmax_rows();
    let mut hits = 0usize;
    let mut total = 0usize;
    for (pred, &label) in preds.iter().zip(&data.eval_labels) {
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

// The loop indexes are semantic (bit/param addresses), not mere
// positions; iterator rewrites would obscure that.
#[allow(clippy::needless_range_loop)]
fn run_tbfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    goal: TbfaGoal,
    skip: &HashSet<BitAddr>,
) -> TbfaReport {
    let clean_asr = attack_success_rate(model, data, goal);
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
    let mut flips = Vec::new();

    for _ in 0..config.max_flips {
        let grads = model.weight_grads(&data.search_images, &malicious_labels);
        let mut candidates: Vec<(BitAddr, f32)> = Vec::new();
        for param in 0..model.num_qparams() {
            let qt = model.qtensor(param);
            let scale = qt.quant_params().scale;
            let g = grads[param].as_slice();
            let mut best: Option<(BitAddr, f32)> = None;
            for index in 0..qt.len() {
                if g[index] == 0.0 {
                    continue;
                }
                let q = qt.get(index);
                for bit in 0..dd_qnn::WEIGHT_BITS {
                    let gain = g[index] * scale * dd_qnn::flip_delta(q, bit) as f32;
                    if !gain.is_finite() || gain >= 0.0 {
                        continue;
                    }
                    let addr = BitAddr { param, index, bit };
                    if skip.contains(&addr) {
                        continue;
                    }
                    if best.is_none_or(|(_, bg)| gain < bg) {
                        best = Some((addr, gain));
                    }
                }
            }
            if let Some(b) = best {
                candidates.push(b);
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| a.1.total_cmp(&b.1));
        candidates.truncate(config.evaluate_top_k.max(1));
        let (addr, _) = best_by_full_forward(
            model,
            &data.search_images,
            &malicious_labels,
            &candidates,
            false,
        );
        flips.push(model.flip_bit(addr));
        if attack_success_rate(model, data, goal) >= 0.95 {
            break;
        }
    }

    TbfaReport {
        goal,
        flips,
        clean_asr,
        final_asr: attack_success_rate(model, data, goal),
        final_accuracy: model.accuracy(&data.eval_images, &data.eval_labels),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;
    use dd_nn::init::seeded_rng;
    use dd_qnn::{build_model, Architecture, ModelConfig};

    /// An untrained base-width-1 ResNet-20 on random 3×16×16 images.
    fn untrained_resnet20() -> (QModel, AttackData) {
        let mut rng = seeded_rng(77);
        let config = ModelConfig::new(Architecture::ResNet20, 10).with_base_width(1);
        let model = QModel::from_network(build_model(&config, &mut rng));
        let images = dd_nn::init::normal(&[8, 3, 16, 16], 1.0, &mut rng);
        let labels = (0..8).collect();
        (model, AttackData::single_batch(images, labels))
    }

    fn rows(t: &Tensor, from: usize, to: usize) -> Tensor {
        let row = t.len() / t.shape()[0];
        let mut shape = t.shape().to_vec();
        shape[0] = to - from;
        Tensor::from_vec(&shape, t.as_slice()[from * row..to * row].to_vec())
    }

    /// The same batch split into a search half and a different eval half.
    fn distinct(data: &AttackData) -> AttackData {
        let n = data.search_labels.len();
        AttackData {
            search_images: rows(&data.search_images, 0, n / 2),
            search_labels: data.search_labels[..n / 2].to_vec(),
            eval_images: rows(&data.search_images, n / 2, n),
            eval_labels: data.search_labels[n / 2..].to_vec(),
        }
    }

    /// Each victim with a shared and with a distinct eval batch, and the
    /// flip budget and accuracy target for it.
    fn cases() -> Vec<(&'static str, QModel, AttackData, usize, f32)> {
        let mut out = Vec::new();
        for split in [false, true] {
            let (mlp, mlp_data, _) = trained_victim();
            let (resnet, resnet_data) = untrained_resnet20();
            for (name, model, data, flips, target) in [
                ("mlp", mlp, mlp_data, 6, 0.35),
                ("resnet20", resnet, resnet_data, 4, 0.0),
            ] {
                let data = if split { distinct(&data) } else { data };
                out.push((name, model, data, flips, target));
            }
        }
        out
    }

    fn bits(v: f32) -> u32 {
        v.to_bits()
    }

    fn bfa_bits(r: &AttackReport) -> impl PartialEq + std::fmt::Debug {
        let steps: Vec<_> = r
            .steps
            .iter()
            .map(|s| {
                (
                    s.flip,
                    bits(s.loss_before),
                    bits(s.loss_after),
                    s.accuracy.map(bits),
                )
            })
            .collect();
        (
            steps,
            bits(r.clean_accuracy),
            bits(r.final_accuracy),
            r.bit_flips,
            r.reached_target,
        )
    }

    fn protected_bits(r: &ProtectedAttackReport) -> impl PartialEq + std::fmt::Debug {
        let trajectory: Vec<_> = r.trajectory.iter().map(|&(n, a)| (n, bits(a))).collect();
        (
            r.attempted_flips,
            r.landed_flips,
            bits(r.clean_accuracy),
            bits(r.final_accuracy),
            trajectory,
        )
    }

    fn tbfa_bits(r: &TbfaReport) -> impl PartialEq + std::fmt::Debug {
        (
            r.flips.clone(),
            bits(r.clean_asr),
            bits(r.final_asr),
            bits(r.final_accuracy),
        )
    }

    /// The bits an unconstrained reference search flips first: a skip or
    /// protected set that the search actually runs into.
    fn found_bits(model: &mut QModel, data: &AttackData) -> HashSet<BitAddr> {
        let snapshot = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 3,
            ..Default::default()
        };
        let report = run_bfa(model, data, &config, &HashSet::new());
        model.restore_q(&snapshot);
        report.steps.iter().map(|s| s.flip.addr).collect()
    }

    #[test]
    fn bfa_matches_the_full_forward_search() {
        for (name, mut model, data, flips, target) in cases() {
            let snapshot = model.snapshot_q();
            let found = found_bits(&mut model, &data);
            for skip in [HashSet::new(), found] {
                for record_every in [1, 3] {
                    let config = AttackConfig {
                        target_accuracy: target,
                        max_flips: flips,
                        record_every,
                        ..Default::default()
                    };
                    let fast = crate::bfa::run_bfa(&mut model, &data, &config, &skip);
                    model.restore_q(&snapshot);
                    let slow = run_bfa(&mut model, &data, &config, &skip);
                    model.restore_q(&snapshot);
                    assert!(!fast.steps.is_empty(), "{name}: no step");
                    assert_eq!(
                        bfa_bits(&fast),
                        bfa_bits(&slow),
                        "{name} skip={} record_every={record_every} shared={}",
                        skip.len(),
                        data.eval_is_search()
                    );
                }
            }
        }
    }

    #[test]
    fn semi_white_box_matches_the_full_forward_search() {
        for (name, mut model, data, flips, target) in cases() {
            let snapshot = model.snapshot_q();
            let found = found_bits(&mut model, &data);
            for protected in [HashSet::new(), found] {
                for record_every in [1, 3] {
                    let config = AttackConfig {
                        target_accuracy: target,
                        max_flips: flips,
                        record_every,
                        ..Default::default()
                    };
                    let fast = crate::adaptive::attack_protected(
                        &mut model,
                        &data,
                        &config,
                        &protected,
                        ThreatModel::SemiWhiteBox,
                    );
                    model.restore_q(&snapshot);
                    let slow = semi_white_box(&mut model, &data, &config, &protected);
                    model.restore_q(&snapshot);
                    assert_eq!(
                        protected_bits(&fast),
                        protected_bits(&slow),
                        "{name} protected={} record_every={record_every} shared={}",
                        protected.len(),
                        data.eval_is_search()
                    );
                }
            }
        }
    }

    #[test]
    fn tbfa_matches_the_full_forward_search() {
        for (name, mut model, data, flips, _) in cases() {
            let snapshot = model.snapshot_q();
            let found = found_bits(&mut model, &data);
            for skip in [HashSet::new(), found] {
                for goal in [
                    TbfaGoal {
                        source_class: None,
                        target_class: 1,
                    },
                    TbfaGoal {
                        source_class: Some(0),
                        target_class: 2,
                    },
                ] {
                    let config = AttackConfig {
                        target_accuracy: 0.0,
                        max_flips: flips,
                        ..Default::default()
                    };
                    let fast = crate::tbfa::run_tbfa(&mut model, &data, &config, goal, &skip);
                    model.restore_q(&snapshot);
                    let slow = run_tbfa(&mut model, &data, &config, goal, &skip);
                    model.restore_q(&snapshot);
                    assert!(!fast.flips.is_empty(), "{name}: no flip");
                    assert_eq!(
                        tbfa_bits(&fast),
                        tbfa_bits(&slow),
                        "{name} skip={} goal={goal:?} shared={}",
                        skip.len(),
                        data.eval_is_search()
                    );
                }
            }
        }
    }
}
