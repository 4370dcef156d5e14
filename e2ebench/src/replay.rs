//! `replay_sweep`: every background load × every Table 3 defense
//! through `dd_workload::run_workload` on a deployed, untrained serving
//! model — the recipe and sizing of the committed `workload` artifact.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dd_baselines::{BackgroundLoad, DefenseKind};
use dd_dram::{DramConfig, DramError, MemoryController, TraceMode};
use dd_nn::init::seeded_rng;
use dd_nn::{Flatten, Linear, Network};
use dd_qnn::{BitAddr, QModel};
use dd_workload::{all_data_rows, run_workload, BenignTraffic, DriverConfig, DriverReport};
use dnn_defender::{DynDefense, WeightMap};

use crate::layers::{self, Layers};
use crate::refs::{committed_workload_runs, diff_outputs, render_run};
use crate::stats::Outcome;
use crate::workload::{Pass, Scratch, Workload};

/// Seed of the committed `workload` artifact.
pub const WORKLOAD_SEED: u64 = 20240605;

/// Smoke sizing of the committed artifact.
const BENIGN_WINDOWS: u64 = 4;
const ATTACK_WINDOWS: u64 = 4;
const SECURED_BITS: usize = 64;

/// Untrained two-layer MLP whose quantized weights fill ~148 rows of
/// the small device.
fn serving_model(seed: u64) -> QModel {
    let mut rng = seeded_rng(seed);
    let net = Network::new("serving")
        .push(Flatten::new())
        .push(Linear::kaiming("fc1", 64, 128, &mut rng))
        .push(Linear::kaiming("fc2", 128, 10, &mut rng));
    QModel::from_network(net)
}

/// The secured/attacked bits, spread over the first parameter.
fn secured_bits(model: &QModel) -> Vec<BitAddr> {
    let len = model.qtensor(0).len();
    (0..SECURED_BITS)
        .map(|i| BitAddr {
            param: 0,
            index: (i * 577) % len,
            bit: 7,
        })
        .collect()
}

fn mix(seed: u64, labels: &[&str]) -> u64 {
    labels.iter().flat_map(|l| l.bytes()).fold(seed, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One (mix, defense) run, built up front: its device, deployed model
/// image, defense with the secured bits installed, and traffic.
struct Run {
    id: String,
    mem: MemoryController,
    map: WeightMap,
    defense: DynDefense,
    traffic: BenignTraffic,
    bits: Vec<BitAddr>,
}

impl Run {
    fn new(seed: u64, load: BackgroundLoad, kind: DefenseKind) -> Result<Run, DramError> {
        let config = DramConfig::lpddr4_small();
        let mut mem = MemoryController::try_new(config.clone())?;
        mem.set_trace_mode(TraceMode::CountersOnly);
        let model = serving_model(seed);
        let map = WeightMap::layout(&model, &config);
        let hot: Vec<_> = map.slots().iter().map(|s| s.row).collect();
        let hot_set: std::collections::HashSet<_> = hot.iter().copied().collect();
        let cold: Vec<_> = all_data_rows(&config)
            .into_iter()
            .filter(|row| !hot_set.contains(row))
            .collect();
        // Traffic is seeded per mix only, so every defense of a mix faces
        // the same op stream.
        let traffic_seed = mix(seed ^ 0x6f2d, &[load.label()]);
        let defense_seed = mix(seed ^ 0x00d3_f227, &[load.label(), kind.label()]);
        let mut defense = kind.build(defense_seed, &config);
        let bits = secured_bits(&model);
        defense.secure_bits(&bits, Some(&map));
        let traffic = BenignTraffic::for_load(load, traffic_seed, &config, &hot, &cold)
            .unwrap_or_else(|| {
                BenignTraffic::new(Vec::new(), load.label(), 0, 1, Vec::new(), &config)
            });
        Ok(Run {
            id: format!("{}/{}", load.label(), kind.label()),
            mem,
            map,
            defense,
            traffic,
            bits,
        })
    }

    fn replay(&mut self) -> Result<DriverReport, DramError> {
        run_workload(
            &mut self.mem,
            &mut *self.defense,
            Some(&mut self.map),
            &mut self.traffic,
            &self.bits,
            &DriverConfig {
                benign_windows: BENIGN_WINDOWS,
                attack_windows: ATTACK_WINDOWS,
                record: false,
            },
        )
    }
}

/// The replay workload.
pub struct ReplayWorkload {
    seed: u64,
    /// The committed runs, checked at [`WORKLOAD_SEED`].
    committed: Option<BTreeMap<String, String>>,
    /// The next pass's runs.
    runs: Vec<Run>,
}

impl ReplayWorkload {
    /// `replay_sweep` at `seed`.
    pub fn new(root: &Path, seed: u64) -> Result<Self, String> {
        let committed = if seed == WORKLOAD_SEED {
            Some(committed_workload_runs(root)?)
        } else {
            None
        };
        Ok(ReplayWorkload {
            seed,
            committed,
            runs: Vec::new(),
        })
    }
}

impl Workload for ReplayWorkload {
    fn cold_start(&mut self, _scratch: &mut Scratch) -> Result<(), String> {
        self.runs.clear();
        for load in BackgroundLoad::ALL {
            for kind in DefenseKind::TABLE3 {
                let run = Run::new(self.seed, load, kind).map_err(|e| {
                    format!(
                        "replay_sweep set-up {}/{}: {e:?}",
                        load.label(),
                        kind.label()
                    )
                })?;
                self.runs.push(run);
            }
        }
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Pass {
        let mut pass = Pass::default();
        let mut results = Vec::with_capacity(self.runs.len());
        let started = Instant::now();
        for run in &mut self.runs {
            let run_started = Instant::now();
            let _span = traced.then(|| dd_obs::span("bench.run_workload"));
            let result = run.replay();
            results.push((run_started.elapsed(), result));
        }
        pass.wall = started.elapsed();
        let mut commands = 0u64;
        for (run, (took, result)) in self.runs.iter().zip(results) {
            match result {
                Ok(report) => {
                    pass.latencies_ms.push(took.as_secs_f64() * 1e3);
                    pass.tally.record(Outcome::Done);
                    pass.cells += 1;
                    commands += report.commands;
                    pass.outputs.insert(run.id.clone(), render_run(&report));
                }
                Err(e) => {
                    pass.tally.record(Outcome::Error);
                    pass.errors.push(format!("{}: {e:?}", run.id));
                }
            }
        }
        if let Some(committed) = &self.committed {
            let errors = diff_outputs(committed, &pass.outputs);
            pass.committed_matches = pass.outputs.len().saturating_sub(errors.len());
            pass.errors.extend(errors);
        }
        if traced {
            let mut layers = layers::zeroed();
            layers.insert("dram.commands", commands as f64);
            pass.layers = Some(layers);
        }
        pass
    }

    fn teardown(&mut self) {
        self.runs.clear();
    }

    fn layers(&mut self, pass: &Pass, snapshot: &dd_obs::Snapshot) -> Layers {
        let mut layers = layers::zeroed();
        layers::from_snapshot(snapshot, &mut layers);
        // Only run_workload reports simulated DRAM commands; a matrix cell
        // keeps its device to itself.
        if let Some(from_pass) = &pass.layers {
            layers.insert("dram.commands", from_pass["dram.commands"]);
        }
        // The pass loop around the runs.
        layers.insert(
            "trace.unattributed_s",
            pass.wall.as_secs_f64() - layers["workload.run_s"],
        );
        layers
    }

    fn finish(&mut self, passes: &[&Pass]) -> Vec<String> {
        let mut errors = Vec::new();
        if let [first, rest @ ..] = passes {
            for other in rest {
                errors.extend(diff_outputs(&first.outputs, &other.outputs));
            }
        }
        if passes.len() < 2 && self.committed.is_none() {
            errors.push("replay_sweep needs two passes to check them against each other".into());
        }
        errors
    }

    fn describe(&self, passes: &[&Pass]) -> Vec<String> {
        vec![
            format!(
                "replay_sweep: {} loads x {} defenses per pass on lpddr4_small, {BENIGN_WINDOWS}+{ATTACK_WINDOWS} windows, {} runs matched the committed artifact per pass",
                BackgroundLoad::ALL.len(),
                DefenseKind::TABLE3.len(),
                passes.first().map_or(0, |p| p.committed_matches)
            ),
            format!(
                "seed {}: serving-model weights, traffic streams and defense seeds (seed {WORKLOAD_SEED} = the committed workload artifact)",
                self.seed
            ),
        ]
    }
}
