//! The traced pass: the benchmark's own spans around public calls, the
//! program's existing `dd_obs` span totals, and the per-layer probe.

use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

use dd_attack::{run_bfa, AttackConfig, AttackData};
use dd_baselines::{DefenseKind, VictimSpec};
use dd_dram::{DramConfig, DramError, GlobalRowId, MemoryController};
use dd_nn::{Dataset, Network};
use dd_obs::Snapshot;
use dd_qnn::{BitAddr, QModel};
use dnn_defender::defense::{CampaignView, DefenseStats, FlipAttempt};
use dnn_defender::OverheadEntry;
use dnn_defender::{DefenseMechanism, DynDefense, WeightMap};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::median;

/// Every per-layer metric, with its unit and which way is better, in
/// the order `BENCHMARK.json` lists them.
pub const PER_LAYER: [(&str, &str, &str); 34] = [
    ("nn.train_s", "s", "lower"),
    ("nn.train_calls", "count", "lower"),
    ("qnn.quantize_ms", "ms", "lower"),
    ("qnn.forward_ms", "ms", "lower"),
    ("qnn.grad_ms", "ms", "lower"),
    ("attack.bfa_s", "s", "lower"),
    ("attack.bfa_steps", "count", "lower"),
    ("attack.profile_s", "s", "lower"),
    ("defense.prepare_s", "s", "lower"),
    ("matrix.cell_setup_s", "s", "lower"),
    ("matrix.cell_attack_s", "s", "lower"),
    ("matrix.warmup_solo_s", "s", "lower"),
    ("matrix.warmup_group_s", "s", "lower"),
    ("matrix.sweep_groups", "count", "higher"),
    ("matrix.grouped_cell_share", "ratio", "higher"),
    ("matrix.idle_s", "s", "lower"),
    ("workload.run_s", "s", "lower"),
    ("workload.benign_ops", "count", "higher"),
    ("dram.commands", "count", "higher"),
    ("dram.kernel_ops", "count", "higher"),
    ("dram.chunk_issue_s", "s", "lower"),
    ("dram.chunk_decode_s", "s", "lower"),
    ("dram.sweep_s", "s", "lower"),
    ("dram.sim_cmds_per_s", "1/s", "higher"),
    ("server.cell_wall_ms", "ms", "lower"),
    ("server.cell_queue_ms", "ms", "lower"),
    ("server.cache_hit_ratio", "ratio", "higher"),
    ("server.price_ratio", "ratio", "higher"),
    ("server.execute_s", "s", "lower"),
    ("executor.busy_fraction", "ratio", "higher"),
    ("executor.stolen", "count", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.dropped_spans", "count", "lower"),
];

/// Per-layer values of one workload; every [`PER_LAYER`] name is present
/// (0 where a layer does not run).
pub type Layers = BTreeMap<&'static str, f64>;

/// All [`PER_LAYER`] metrics at 0.
pub fn zeroed() -> Layers {
    PER_LAYER.iter().map(|(name, _, _)| (*name, 0.0)).collect()
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn hist_sum(snap: &Snapshot, name: &str) -> u64 {
    snap.hists.get(name).map_or(0, |h| h.sum)
}

fn counter(snap: &Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Fill the layers read from a traced pass's snapshot: the program's
/// own spans and counters plus the benchmark's spans around
/// `DefenseMechanism::prepare_victim`/`on_deploy` and `run_workload`.
pub fn from_snapshot(snap: &Snapshot, layers: &mut Layers) {
    let span = |name: &str| secs(snap.span_total_ns(name));
    let grouped_cells: u64 = snap
        .spans
        .iter()
        .filter(|s| s.name == "matrix.warmup_group")
        .filter_map(|s| {
            s.label
                .as_deref()?
                .strip_prefix("cells=")?
                .parse::<u64>()
                .ok()
        })
        .sum();
    let setups = snap
        .spans
        .iter()
        .filter(|s| s.name == "matrix.cell_setup")
        .count() as f64;
    let values = [
        ("defense.prepare_s", span("bench.prepare_victim")),
        ("attack.profile_s", span("bench.on_deploy")),
        ("matrix.cell_setup_s", span("matrix.cell_setup")),
        ("matrix.cell_attack_s", span("matrix.cell_attack")),
        ("matrix.warmup_solo_s", span("matrix.warmup_solo")),
        ("matrix.warmup_group_s", span("matrix.warmup_group")),
        (
            "matrix.sweep_groups",
            counter(snap, "matrix.sweep_groups") as f64,
        ),
        (
            "matrix.grouped_cell_share",
            if setups > 0.0 {
                grouped_cells as f64 / setups
            } else {
                0.0
            },
        ),
        ("workload.run_s", span("bench.run_workload")),
        (
            "workload.benign_ops",
            (counter(snap, "driver.ops") + counter(snap, "driver.sweep_ops")) as f64,
        ),
        (
            "dram.kernel_ops",
            (hist_sum(snap, "chunk.ops") + hist_sum(snap, "sweep.chunk_ops")) as f64,
        ),
        ("dram.chunk_issue_s", span("chunk.issue")),
        ("dram.chunk_decode_s", span("chunk.decode")),
        (
            "dram.sweep_s",
            span("sweep.classify") + span("sweep.resolve"),
        ),
        ("server.execute_s", span("server.execute")),
        ("nn.train_calls", setups),
        ("trace.dropped_spans", snap.dropped_spans as f64),
    ];
    for (name, value) in values {
        layers.insert(name, value);
    }
}

/// Busy thread-time of the matrix scheduler's workers.
pub fn matrix_busy_s(layers: &Layers) -> f64 {
    layers["matrix.cell_setup_s"]
        + layers["matrix.cell_attack_s"]
        + layers["matrix.warmup_solo_s"]
        + layers["matrix.warmup_group_s"]
}

/// A defense wrapped so the traced pass can time its two deploy-time
/// hooks with the benchmark's own spans. Every method delegates, so
/// cells compute the same bytes (the output checks hold it to that).
pub struct TimedDefense(pub DynDefense);

impl DefenseMechanism for TimedDefense {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn prepare_victim(&mut self, net: &mut Network, dataset: &Dataset, rng: &mut StdRng) {
        let _span = dd_obs::span("bench.prepare_victim");
        self.0.prepare_victim(net, dataset, rng);
    }
    fn capacity_multiplier(&self) -> usize {
        self.0.capacity_multiplier()
    }
    fn on_deploy(&mut self, model: &mut QModel, data: &AttackData, config: &AttackConfig) {
        let _span = dd_obs::span("bench.on_deploy");
        self.0.on_deploy(model, data, config);
    }
    fn secure_bits(&mut self, bits: &[BitAddr], map: Option<&WeightMap>) {
        self.0.secure_bits(bits, map);
    }
    fn secured_bits(&self) -> Option<&HashSet<BitAddr>> {
        self.0.secured_bits()
    }
    fn is_secured(&self, addr: BitAddr, map: Option<&WeightMap>) -> bool {
        self.0.is_secured(addr, map)
    }
    fn filter_flip(&mut self, view: CampaignView<'_>) -> Result<FlipAttempt, DramError> {
        self.0.filter_flip(view)
    }
    fn observe_activation(
        &mut self,
        mem: &mut MemoryController,
        map: Option<&mut WeightMap>,
        row: GlobalRowId,
        n: u64,
    ) -> Result<(), DramError> {
        self.0.observe_activation(mem, map, row, n)
    }
    fn has_online_tap(&self) -> bool {
        self.0.has_online_tap()
    }
    fn on_hammer_window(&mut self, epoch: u64) {
        self.0.on_hammer_window(epoch);
    }
    fn stats(&self) -> DefenseStats {
        self.0.stats()
    }
    fn overhead(&self, config: &DramConfig) -> Option<OverheadEntry> {
        self.0.overhead(config)
    }
}

/// Per-call costs of the model-stack layers, timed by calling
/// `VictimSpec::build`, `QModel` and `run_bfa` directly on a workload's
/// width-1 victim — the calls every matrix cell makes during its set-up.
/// Only width 1 is probed: a width-2 build of the ResNet-20 victim would
/// add ~10 s to a trace run that already holds two 30–55 s passes.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    /// `VictimSpec::build` seconds per call.
    pub build_s: f64,
    /// `QModel::from_network`, ms per call.
    pub quantize_ms: f64,
    /// `QModel::forward` on one attack batch, ms (median of 5).
    pub forward_ms: f64,
    /// `QModel::weight_grads` on one attack batch, ms (median of 5).
    pub grad_ms: f64,
    /// One `run_bfa` search at the workload's budget, seconds.
    pub bfa_s: f64,
    /// Steps that search took.
    pub bfa_steps: u64,
    /// `prepare_victim` + `on_deploy` seconds per call, by defense (only
    /// probed where the traced pass cannot wrap the defenses).
    pub defense_s: BTreeMap<&'static str, (f64, f64)>,
}

/// The attack batch a cell draws for `victim` (same seed derivation as
/// the matrix's cell set-up).
fn attack_data(victim: &VictimSpec, dataset: &Dataset) -> AttackData {
    let mut rng = StdRng::seed_from_u64(victim.seed ^ 0x5eed_da7a);
    let batch = dataset.attack_batch(victim.batch.min(dataset.test.len()), &mut rng);
    AttackData::single_batch(batch.images, batch.labels)
}

/// Probe `victim` with a `budget`-step search.
pub fn probe(victim: &VictimSpec, attack: AttackConfig, budget: usize) -> Probe {
    let search = AttackConfig {
        target_accuracy: 0.0,
        max_flips: budget,
        ..attack
    };
    let started = Instant::now();
    let (net, dataset) = victim.build(1);
    let build_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let mut model = QModel::from_network(net);
    let quantize_ms = started.elapsed().as_secs_f64() * 1e3;
    let data = attack_data(victim, &dataset);
    let time_ms = |f: &mut dyn FnMut()| {
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let started = Instant::now();
                f();
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        median(&samples)
    };
    let forward_ms = time_ms(&mut || {
        std::hint::black_box(model.forward(&data.eval_images));
    });
    let grad_ms = time_ms(&mut || {
        std::hint::black_box(model.weight_grads(&data.search_images, &data.search_labels));
    });
    let started = Instant::now();
    let report = run_bfa(&mut model, &data, &search, &HashSet::new());
    Probe {
        build_s,
        quantize_ms,
        forward_ms,
        grad_ms,
        bfa_s: started.elapsed().as_secs_f64(),
        bfa_steps: report.steps.len() as u64,
        defense_s: BTreeMap::new(),
    }
}

/// Probe each defense's deploy-time hooks on a fresh width-1 victim.
pub fn probe_defenses(
    probe: &mut Probe,
    victim: &VictimSpec,
    kinds: &[DefenseKind],
    attack: AttackConfig,
    budget: usize,
    device: &DramConfig,
) {
    let deploy = AttackConfig {
        target_accuracy: 0.0,
        max_flips: budget,
        ..attack
    };
    for &kind in kinds {
        let mut defense = kind.build(victim.seed, device);
        let (mut net, dataset) = victim.build(1);
        let mut rng = StdRng::seed_from_u64(victim.seed);
        let started = Instant::now();
        defense.prepare_victim(&mut net, &dataset, &mut rng);
        let prepare = started.elapsed().as_secs_f64();
        let mut model = QModel::from_network(net);
        let data = attack_data(victim, &dataset);
        let started = Instant::now();
        defense.on_deploy(&mut model, &data, &deploy);
        probe
            .defense_s
            .insert(kind.label(), (prepare, started.elapsed().as_secs_f64()));
    }
}

impl Probe {
    /// Fill the model-stack layers for a pass that set up `cells` cells:
    /// training and search scale with the cells, at the width-1 cost (a
    /// Capacity×2 cell's extra cost stays in the remainder); the
    /// per-batch costs are per call.
    pub fn fill(&self, cells: usize, layers: &mut Layers) {
        let cells = cells as f64;
        layers.insert("nn.train_s", self.build_s * cells);
        layers.insert("nn.train_calls", cells);
        layers.insert("qnn.quantize_ms", self.quantize_ms);
        layers.insert("qnn.forward_ms", self.forward_ms);
        layers.insert("qnn.grad_ms", self.grad_ms);
        layers.insert("attack.bfa_s", self.bfa_s * cells);
        layers.insert("attack.bfa_steps", self.bfa_steps as f64 * cells);
    }

    /// Model-stack time of the set-ups, as [`Probe::fill`] attributes it.
    pub fn setup_attributed_s(layers: &Layers) -> f64 {
        layers["nn.train_s"]
            + layers["defense.prepare_s"]
            + layers["attack.profile_s"]
            + layers["attack.bfa_s"]
            + layers["qnn.quantize_ms"] * layers["nn.train_calls"] / 1e3
    }
}
