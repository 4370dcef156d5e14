//! The progressive bit search of the Bit-Flip Attack (BFA)
//! [Rakin et al., ICCV 2019] — the attack DNN-Defender is built to tame.
//!
//! Each iteration performs the paper's two search steps (§2.2):
//!
//! 1. **intra-layer search** — within every layer, rank bits by the
//!    first-order loss increase `|∇_B L| · scale · Δq` and pick the best;
//! 2. **inter-layer search** — evaluate the per-layer winners by actually
//!    flipping them (most-promising first) and commit the flip that
//!    maximizes the true loss.
//!
//! The search maximizes Eqn. 1 while keeping the Hamming distance to the
//! clean weights minimal (one committed flip per iteration).

use std::borrow::Cow;
use std::collections::HashSet;

use serde::{Deserialize, Serialize};

use dd_nn::loss::{accuracy, cross_entropy};
use dd_nn::Tensor;
use dd_qnn::{BitAddr, BitFlip, ForwardRecord, QModel};

use crate::threat::AttackConfig;

/// One committed attack iteration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AttackStep {
    /// The committed flip.
    pub flip: BitFlip,
    /// Search-batch loss before the flip.
    pub loss_before: f32,
    /// Search-batch loss after the flip.
    pub loss_after: f32,
    /// Eval-batch accuracy after the flip (`None` when not recorded this
    /// iteration).
    pub accuracy: Option<f32>,
}

/// Outcome of an attack run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AttackReport {
    /// Every committed iteration in order.
    pub steps: Vec<AttackStep>,
    /// Eval accuracy before any flip.
    pub clean_accuracy: f32,
    /// Eval accuracy after the final flip.
    pub final_accuracy: f32,
    /// Number of committed bit flips.
    pub bit_flips: usize,
    /// Whether the accuracy target was reached within the flip budget.
    pub reached_target: bool,
}

impl AttackReport {
    /// Accuracy trajectory `(flips, accuracy)` at the recorded points,
    /// starting from `(0, clean)`.
    pub fn trajectory(&self) -> Vec<(usize, f32)> {
        let mut out = vec![(0, self.clean_accuracy)];
        for (i, s) in self.steps.iter().enumerate() {
            if let Some(acc) = s.accuracy {
                out.push((i + 1, acc));
            }
        }
        out
    }
}

/// The data the attacker is granted (Table 1): a small batch used for the
/// gradient search and a batch used to measure degradation.
#[derive(Debug, Clone)]
pub struct AttackData {
    /// Images for gradient computation / candidate evaluation.
    pub search_images: Tensor,
    /// Labels for the search batch.
    pub search_labels: Vec<usize>,
    /// Images for accuracy measurement.
    pub eval_images: Tensor,
    /// Labels for the eval batch.
    pub eval_labels: Vec<usize>,
}

impl AttackData {
    /// Use the same batch for search and evaluation.
    pub fn single_batch(images: Tensor, labels: Vec<usize>) -> Self {
        AttackData {
            search_images: images.clone(),
            search_labels: labels.clone(),
            eval_images: images,
            eval_labels: labels,
        }
    }

    /// Whether the eval images are the search images, bit for bit: then
    /// every search-batch forward is also the eval-batch forward.
    pub(crate) fn eval_is_search(&self) -> bool {
        let (search, eval) = (self.search_images.as_slice(), self.eval_images.as_slice());
        self.search_images.shape() == self.eval_images.shape()
            && search
                .iter()
                .map(|v| v.to_bits())
                .eq(eval.iter().map(|v| v.to_bits()))
    }
}

/// Find the best (highest first-order gain) non-skipped bit of every
/// parameter: the intra-layer search. Returns `(addr, gain)` per parameter
/// that has at least one allowed bit. Only finite, strictly positive
/// gains compete, so a NaN or infinite gradient entry never becomes a
/// candidate.
// The loop indexes are semantic (bit/param addresses), not mere
// positions; iterator rewrites would obscure that.
#[allow(clippy::needless_range_loop)]
pub fn intra_layer_candidates(
    model: &QModel,
    grads: &[Tensor],
    skip: &HashSet<BitAddr>,
) -> Vec<(BitAddr, f32)> {
    let mut out = Vec::with_capacity(model.num_qparams());
    for param in 0..model.num_qparams() {
        let qt = model.qtensor(param);
        let scale = qt.quant_params().scale;
        let g = grads[param].as_slice();
        let mut best: Option<(BitAddr, f32)> = None;
        for index in 0..qt.len() {
            let grad = g[index];
            if grad == 0.0 {
                continue;
            }
            let q = qt.get(index);
            for bit in 0..dd_qnn::WEIGHT_BITS {
                let gain = grad * scale * dd_qnn::flip_delta(q, bit) as f32;
                if !gain.is_finite() || gain <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, bg)| gain > bg) {
                    let addr = BitAddr { param, index, bit };
                    if !skip.contains(&addr) {
                        best = Some((addr, gain));
                    }
                }
            }
        }
        if let Some(b) = best {
            out.push(b);
        }
    }
    out
}

/// The intra-layer candidates ranked highest gain first (ties keep
/// parameter order) and cut to the `top_k` the inter-layer search
/// evaluates.
pub(crate) fn ranked_candidates(
    model: &QModel,
    grads: &[Tensor],
    skip: &HashSet<BitAddr>,
    top_k: usize,
) -> Vec<(BitAddr, f32)> {
    let mut candidates = intra_layer_candidates(model, grads, skip);
    candidates.sort_by(|a, b| b.1.total_cmp(&a.1));
    candidates.truncate(top_k.max(1));
    candidates
}

/// The inter-layer search: flip each candidate, re-run the network from
/// the flipped parameter's top-level layer on `record`'s inputs (the
/// layers before it did not change), score the logits, and unflip.
/// Returns the first candidate with the highest score, that score, and
/// its logits, which are the search-batch logits of the model once that
/// flip is committed.
///
/// # Panics
///
/// Panics if `candidates` is empty.
fn best_candidate(
    model: &mut QModel,
    record: &ForwardRecord,
    candidates: &[(BitAddr, f32)],
    score: impl Fn(&Tensor) -> f32,
) -> (BitAddr, f32, Tensor) {
    let depth = record.layer_inputs.len();
    let mut layers_run = 0;
    let mut best: Option<(BitAddr, f32, Tensor)> = None;
    for &(addr, _) in candidates {
        let flip = model.flip_bit(addr);
        let logits = model.resume_forward(record, addr.param);
        model.unflip(flip);
        layers_run += depth - model.qparam_layer(addr.param);
        let value = score(&logits);
        if best.as_ref().is_none_or(|&(_, bv, _)| value > bv) {
            best = Some((addr, value, logits));
        }
    }
    dd_obs::add("attack.candidate_evals", candidates.len() as u64);
    dd_obs::add("attack.candidate_layers_run", layers_run as u64);
    best.expect("candidates were non-empty")
}

/// One committed step of a [`Search`].
pub(crate) struct Step {
    /// The committed flip.
    pub flip: BitFlip,
    /// Search-batch loss before the flip.
    pub loss_before: f32,
    /// Search-batch loss after the flip.
    pub loss_after: f32,
}

/// The progressive search that [`run_bfa`], the semi-white-box attacker
/// and [`crate::run_tbfa`] share. A step costs one forward+backward on the
/// search batch plus one partial forward per evaluated candidate, and the
/// search keeps the search-batch logits of the model as it stands (from
/// the gradient pass, then from each committed candidate), so when the
/// eval batch equals the search batch (as with
/// [`AttackData::single_batch`], checked once) eval accuracies cost no
/// forward. A live search is one `attack.search` span.
pub(crate) struct Search<'a> {
    data: &'a AttackData,
    /// Labels the loss is taken against on the search batch.
    labels: &'a [usize],
    /// Minimize the loss (targeted attack) instead of maximizing it.
    descend: bool,
    /// See [`AttackData::eval_is_search`].
    shared: bool,
    /// The first step's gradient pass, run when the search starts so the
    /// clean accuracy can be read off its logits.
    pending: Option<(Vec<Tensor>, ForwardRecord)>,
    /// Search-batch logits of the model as it stands, when known.
    logits: Option<Tensor>,
    _span: dd_obs::SpanGuard,
}

impl<'a> Search<'a> {
    /// Open a search over `data`'s search batch against `labels`; a
    /// search that will take no step (`max_flips == 0`) runs no pass.
    pub fn start(
        model: &mut QModel,
        data: &'a AttackData,
        labels: &'a [usize],
        descend: bool,
        max_flips: usize,
    ) -> Self {
        let mut search = Search {
            data,
            labels,
            descend,
            shared: data.eval_is_search(),
            pending: None,
            logits: None,
            _span: dd_obs::span("attack.search"),
        };
        if max_flips > 0 {
            let pass = model.weight_grads_recorded(&data.search_images, labels);
            search.logits = Some(pass.1.logits.clone());
            search.pending = Some(pass);
        }
        search
    }

    /// Rank the non-`skip` bits by first-order gain, evaluate the
    /// `top_k` best exactly, and commit the winner to `model`. `None`
    /// (and `model` untouched) when no bit has a positive gain.
    pub fn step(
        &mut self,
        model: &mut QModel,
        skip: &HashSet<BitAddr>,
        top_k: usize,
    ) -> Option<Step> {
        let (mut grads, record) = match self.pending.take() {
            Some(pass) => pass,
            None => model.weight_grads_recorded(&self.data.search_images, self.labels),
        };
        if self.descend {
            // The most negative gains are the highest of the negated
            // gradient.
            for g in &mut grads {
                g.map_inplace(|v| -v);
            }
        }
        let candidates = ranked_candidates(model, &grads, skip, top_k);
        if candidates.is_empty() {
            return None;
        }
        let sign = if self.descend { -1.0 } else { 1.0 };
        let loss_before = cross_entropy(&record.logits, self.labels);
        let (addr, value, logits) = best_candidate(model, &record, &candidates, |l| {
            sign * cross_entropy(l, self.labels)
        });
        let flip = model.flip_bit(addr);
        self.logits = Some(logits);
        Some(Step {
            flip,
            loss_before,
            loss_after: sign * value,
        })
    }

    /// Eval-batch logits of `model` as it stands: the search's own logits
    /// when the batches are equal, one forward otherwise. `model` must
    /// not have changed since the search last touched it.
    pub fn eval_logits(&self, model: &mut QModel) -> Cow<'_, Tensor> {
        match &self.logits {
            Some(logits) if self.shared => Cow::Borrowed(logits),
            _ => Cow::Owned(model.forward(&self.data.eval_images)),
        }
    }

    /// Eval-batch accuracy of `model` as it stands; see
    /// [`Search::eval_logits`].
    pub fn eval_accuracy(&self, model: &mut QModel) -> f32 {
        accuracy(&self.eval_logits(model), &self.data.eval_labels)
    }
}

/// Run the progressive bit search, skipping any bit in `skip`.
///
/// A step costs one forward+backward on the search batch plus one partial
/// forward per evaluated candidate: the step's loss
/// before the flip comes from its gradient pass, and when the eval batch
/// equals the search batch (as with [`AttackData::single_batch`]) the
/// clean accuracy and every recorded accuracy are read off logits the
/// search already has. Each call is one `attack.search` span when
/// `dd-obs` is recording.
///
/// The model is left in its attacked state; callers that need the clean
/// model back should snapshot with [`QModel::snapshot_q`] first.
pub fn run_bfa(
    model: &mut QModel,
    data: &AttackData,
    config: &AttackConfig,
    skip: &HashSet<BitAddr>,
) -> AttackReport {
    let mut search = Search::start(model, data, &data.search_labels, false, config.max_flips);
    let clean_accuracy = search.eval_accuracy(model);
    let mut steps = Vec::new();
    let mut final_accuracy = clean_accuracy;
    let mut reached_target = false;

    for iter in 0..config.max_flips {
        let Some(step) = search.step(model, skip, config.evaluate_top_k) else {
            break;
        };
        let record_accuracy = (iter + 1) % config.record_every.max(1) == 0;
        let accuracy = if record_accuracy {
            let acc = search.eval_accuracy(model);
            final_accuracy = acc;
            Some(acc)
        } else {
            None
        };
        steps.push(AttackStep {
            flip: step.flip,
            loss_before: step.loss_before,
            loss_after: step.loss_after,
            accuracy,
        });

        if final_accuracy <= config.target_accuracy {
            reached_target = true;
            break;
        }
    }

    if steps.last().is_some_and(|s| s.accuracy.is_none()) {
        final_accuracy = search.eval_accuracy(model);
    }

    AttackReport {
        bit_flips: steps.len(),
        steps,
        clean_accuracy,
        final_accuracy,
        reached_target,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::trained_victim;

    #[test]
    fn bfa_collapses_accuracy_with_few_flips() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.35,
            max_flips: 60,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        assert!(
            report.reached_target,
            "BFA failed: final {}",
            report.final_accuracy
        );
        assert!(report.bit_flips <= 60);
        assert!(report.clean_accuracy > 0.8);
    }

    #[test]
    fn every_step_increases_search_loss() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.0,
            max_flips: 5,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        for step in &report.steps {
            assert!(
                step.loss_after >= step.loss_before,
                "committed flip decreased loss: {} -> {}",
                step.loss_before,
                step.loss_after
            );
        }
    }

    #[test]
    fn skip_set_is_respected() {
        let (mut model, data, _) = trained_victim();
        // First run to discover what BFA flips.
        let snapshot = model.snapshot_q();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 20,
            ..Default::default()
        };
        let first = run_bfa(&mut model, &data, &config, &HashSet::new());
        let found: HashSet<BitAddr> = first.steps.iter().map(|s| s.flip.addr).collect();
        model.restore_q(&snapshot);
        // Second run skipping them must never touch those bits.
        let second = run_bfa(&mut model, &data, &config, &found);
        for step in &second.steps {
            assert!(!found.contains(&step.flip.addr), "skipped bit was flipped");
        }
    }

    #[test]
    fn trajectory_starts_at_clean() {
        let (mut model, data, _) = trained_victim();
        let config = AttackConfig {
            target_accuracy: 0.3,
            max_flips: 10,
            ..Default::default()
        };
        let report = run_bfa(&mut model, &data, &config, &HashSet::new());
        let traj = report.trajectory();
        assert_eq!(traj[0].0, 0);
        assert_eq!(traj[0].1, report.clean_accuracy);
        assert!(traj.len() >= 2);
    }

    #[test]
    fn intra_layer_candidates_have_positive_gain() {
        let (mut model, data, _) = trained_victim();
        let grads = model.weight_grads(&data.search_images, &data.search_labels);
        let cands = intra_layer_candidates(&model, &grads, &HashSet::new());
        assert!(!cands.is_empty());
        assert!(cands.iter().all(|&(_, g)| g > 0.0));
        // One candidate per parameter at most.
        assert!(cands.len() <= model.num_qparams());
    }

    /// NaN and infinite gradient entries act like zero ones: they never
    /// become a candidate (a NaN gain used to win its parameter, since no
    /// finite gain compares above it), and the ranking stays ordered.
    #[test]
    fn non_finite_gains_never_become_candidates() {
        let (mut model, data, _) = trained_victim();
        let mut grads = model.weight_grads(&data.search_images, &data.search_labels);
        grads[0].map_inplace(|_| f32::NAN);
        grads[1].as_mut_slice()[..3].copy_from_slice(&[f32::INFINITY, f32::NEG_INFINITY, f32::NAN]);
        let mut zeroed = grads.clone();
        zeroed[0].fill_zero();
        zeroed[1].as_mut_slice()[..3].fill(0.0);
        let skip = HashSet::new();
        let cands = intra_layer_candidates(&model, &grads, &skip);
        assert!(!cands.is_empty());
        assert!(cands
            .iter()
            .all(|&(a, g)| a.param != 0 && g.is_finite() && g > 0.0));
        assert_eq!(cands, intra_layer_candidates(&model, &zeroed, &skip));
        let ranked = ranked_candidates(&model, &grads, &skip, usize::MAX);
        assert_eq!(ranked.len(), cands.len());
        assert!(ranked.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
