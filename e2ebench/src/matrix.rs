//! `paper_matrix` and `load_matrix`: one `ScenarioMatrix::run` per pass.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use dd_attack::AttackConfig;
use dd_baselines::{BackgroundLoad, CellProgress, DefenseKind, ScenarioMatrix, VictimSpec};
use dd_bench::DatasetKind;
use dd_dram::DramConfig;
use dd_qnn::Architecture;
use dd_server::SweepBase;
use dnn_defender::DynDefense;

use crate::layers::{self, Layers, Probe, TimedDefense};
use crate::refs::{diff_outputs, CommittedCells};
use crate::stats::Outcome;
use crate::workload::{Pass, Scratch, Workload, WORKERS};

/// Seed at which `paper_matrix` is `dd_bench::experiments::table3_matrix(true)`.
pub const PAPER_SEED: u64 = 333;

/// Second-device RowHammer thresholds `load_matrix` and `serve_mix`
/// pick from by seed (never 4800, the base device's own).
const THRESHOLDS: [u64; 4] = [3000, 2400, 3600, 6000];

/// The `T_RH` of the second device at `seed`.
pub fn threshold_for(seed: u64) -> u64 {
    THRESHOLDS[(seed % THRESHOLDS.len() as u64) as usize]
}

/// Everything that determines a matrix, kept so the traced pass can
/// rebuild it with wrapped defenses.
#[derive(Clone)]
pub struct MatrixSpec {
    victim: VictimSpec,
    attack: AttackConfig,
    budget: usize,
    seed: u64,
    roster: Vec<(DefenseKind, Option<usize>)>,
    devices: Vec<DramConfig>,
    loads: Vec<BackgroundLoad>,
}

impl MatrixSpec {
    /// The Table 3 smoke matrix with its matrix and victim seed set to
    /// `seed` (the constants of `table3_matrix(true)`).
    pub fn paper(seed: u64) -> Self {
        let hw_budget = 12;
        MatrixSpec {
            victim: VictimSpec::paper(Architecture::ResNet20, 2, 5, seed),
            attack: AttackConfig {
                target_accuracy: DatasetKind::Cifar10.chance() * 1.1,
                max_flips: 400,
                ..Default::default()
            },
            budget: 12,
            seed,
            roster: DefenseKind::TABLE3
                .into_iter()
                .map(|kind| (kind, kind.paper_budget().map(|_| hw_budget)))
                .collect(),
            devices: vec![DramConfig::lpddr4_small()],
            loads: vec![BackgroundLoad::None],
        }
    }

    /// The served-cell universe as one batch matrix: the smoke
    /// `SweepBase` constants over every Table 3 defense, every background
    /// load, and the small device at its own and at the seed's `T_RH`.
    pub fn load(seed: u64) -> Self {
        let base = DramConfig::lpddr4_small();
        MatrixSpec {
            victim: VictimSpec::tiny_mlp(2024),
            attack: AttackConfig {
                target_accuracy: 0.3,
                max_flips: 40,
                ..Default::default()
            },
            budget: SweepBase::standard(true).budget(),
            seed: 2024,
            roster: DefenseKind::TABLE3.into_iter().map(|k| (k, None)).collect(),
            devices: vec![
                base.clone(),
                base.with_rowhammer_threshold(threshold_for(seed)),
            ],
            loads: BackgroundLoad::ALL.to_vec(),
        }
    }

    /// The matrix; `timed` wraps every defense in [`TimedDefense`].
    pub fn build(&self, timed: bool) -> ScenarioMatrix {
        let mut matrix = ScenarioMatrix::new(self.victim.clone())
            .attack_config(self.attack)
            .budget(self.budget)
            .seed(self.seed)
            .threads(WORKERS);
        for &(kind, budget) in &self.roster {
            matrix = match (timed, budget) {
                (false, None) => matrix.defense_kind(kind),
                (false, Some(b)) => matrix.defense_kind_budgeted(kind, b),
                (true, budget) => {
                    let factory = move |seed: u64, config: &DramConfig| -> DynDefense {
                        Box::new(TimedDefense(kind.build(seed, config)))
                    };
                    match budget {
                        None => matrix.defense(kind.label(), factory),
                        Some(b) => matrix.defense_budgeted(kind.label(), b, factory),
                    }
                }
            };
        }
        for device in &self.devices {
            matrix = matrix.dram_config(device.clone());
        }
        for &load in &self.loads {
            matrix = matrix.background(load);
        }
        matrix
    }

    /// The same matrix restricted to its first defense.
    fn first_defense_only(&self) -> MatrixSpec {
        MatrixSpec {
            roster: self.roster[..1].to_vec(),
            ..self.clone()
        }
    }

    /// The victim recipe.
    pub fn victim(&self) -> &VictimSpec {
        &self.victim
    }

    /// The common attack configuration.
    pub fn attack(&self) -> AttackConfig {
        self.attack
    }
}

/// Run `matrix` once, timing each cell from the start of the run to its
/// result, and check every cell against the committed cache.
pub fn run_matrix(matrix: &ScenarioMatrix, committed: &CommittedCells) -> Pass {
    let keys: Vec<u64> = matrix.cell_keys().into_iter().map(|(_, k)| k).collect();
    let done_ms: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(keys.len()));
    let started = Instant::now();
    let progress = |_: &CellProgress| {
        let at = started.elapsed().as_secs_f64() * 1e3;
        done_ms.lock().expect("progress log").push(at);
    };
    let result = matrix.run_with_cache(&HashMap::new(), Some(&progress));
    let mut pass = Pass {
        wall: started.elapsed(),
        latencies_ms: done_ms.into_inner().expect("progress log"),
        ..Pass::default()
    };
    match result {
        Ok((report, _)) => {
            for (key, cell) in keys.iter().zip(&report.cells) {
                pass.tally.record(Outcome::Done);
                pass.cells += 1;
                let rendered = cell.to_json().render_compact();
                match committed.check(*key, &rendered) {
                    Some(Ok(())) => pass.committed_matches += 1,
                    Some(Err(e)) => pass.errors.push(e),
                    None => {}
                }
                pass.outputs.insert(format!("{key:#018x}"), rendered);
            }
        }
        Err(e) => {
            for _ in &keys {
                pass.tally.record(Outcome::Error);
            }
            pass.errors.push(format!("matrix run failed: {e:?}"));
        }
    }
    pass
}

/// A matrix workload.
pub struct MatrixWorkload {
    name: &'static str,
    seed: u64,
    spec: MatrixSpec,
    matrix: ScenarioMatrix,
    committed: CommittedCells,
    /// Committed cells a pass must match at this seed.
    min_committed: usize,
    probe: Option<Probe>,
}

impl MatrixWorkload {
    /// `paper_matrix` at `seed`.
    pub fn paper(root: &Path, seed: u64) -> Result<Self, String> {
        let min_committed = if seed == PAPER_SEED { 9 } else { 0 };
        Self::new(
            "paper_matrix",
            root,
            seed,
            MatrixSpec::paper(seed),
            min_committed,
        )
    }

    /// `load_matrix` at `seed`: its eight base-device cells of the two
    /// `workload_matrix` defenses are committed at every seed.
    pub fn load(root: &Path, seed: u64) -> Result<Self, String> {
        Self::new("load_matrix", root, seed, MatrixSpec::load(seed), 8)
    }

    fn new(
        name: &'static str,
        root: &Path,
        seed: u64,
        spec: MatrixSpec,
        min_committed: usize,
    ) -> Result<Self, String> {
        Ok(MatrixWorkload {
            name,
            seed,
            matrix: spec.build(false),
            spec,
            committed: CommittedCells::load(root)?,
            min_committed,
            probe: None,
        })
    }
}

impl Workload for MatrixWorkload {
    fn cold_start(&mut self, _scratch: &mut Scratch) -> Result<(), String> {
        // A matrix run keeps no state between runs and writes no files.
        Ok(())
    }

    fn pass(&mut self, traced: bool) -> Pass {
        if traced {
            run_matrix(&self.spec.build(true), &self.committed)
        } else {
            run_matrix(&self.matrix, &self.committed)
        }
    }

    fn teardown(&mut self) {}

    fn layers(&mut self, pass: &Pass, snapshot: &dd_obs::Snapshot) -> Layers {
        let mut layers = layers::zeroed();
        layers::from_snapshot(snapshot, &mut layers);
        let spec = &self.spec;
        let probe = self
            .probe
            .get_or_insert_with(|| layers::probe(spec.victim(), spec.attack, spec.budget));
        probe.fill(pass.cells as usize, &mut layers);
        let idle = WORKERS as f64 * pass.wall.as_secs_f64() - layers::matrix_busy_s(&layers);
        layers.insert("matrix.idle_s", idle);
        let unattributed = layers["matrix.cell_setup_s"] - Probe::setup_attributed_s(&layers);
        layers.insert("trace.unattributed_s", unattributed);
        layers
    }

    fn finish(&mut self, passes: &[&Pass]) -> Vec<String> {
        let mut errors = Vec::new();
        if self.name == "paper_matrix" && self.seed == PAPER_SEED {
            let reference = dd_bench::experiments::table3_matrix(true).config_hash();
            if self.matrix.config_hash() != reference {
                errors.push("paper_matrix no longer equals table3_matrix(true) at seed 333".into());
            }
        }
        for pass in passes {
            if pass.committed_matches < self.min_committed {
                errors.push(format!(
                    "{}: {} of the {} committed cells expected at seed {} matched",
                    self.name, pass.committed_matches, self.min_committed, self.seed
                ));
            }
        }
        match passes {
            [] => {}
            [only] => {
                // One pass fits the time limit: re-run the first defense's
                // cells on their own and require the same bytes.
                let rerun = run_matrix(
                    &self.spec.first_defense_only().build(false),
                    &self.committed,
                );
                errors.extend(rerun.errors);
                for (id, rendered) in &rerun.outputs {
                    if only.outputs.get(id) != Some(rendered) {
                        errors.push(format!("{id}: re-run differs from the timed pass"));
                    }
                }
            }
            [first, rest @ ..] => {
                for other in rest {
                    errors.extend(diff_outputs(&first.outputs, &other.outputs));
                }
            }
        }
        errors
    }

    fn describe(&self, passes: &[&Pass]) -> Vec<String> {
        let cells = passes.first().map_or(0, |p| p.outputs.len());
        let matched: Vec<String> = passes
            .iter()
            .map(|p| p.committed_matches.to_string())
            .collect();
        let mut lines = vec![format!(
            "{}: {} cells per pass, {} workers, committed cells matched per pass: [{}]",
            self.name,
            cells,
            WORKERS,
            matched.join(", ")
        )];
        lines.push(if self.name == "paper_matrix" {
            format!(
                "seed {}: matrix and ResNet-20 victim seed (seed {PAPER_SEED} = the committed Table 3 cells)",
                self.seed
            )
        } else {
            format!(
                "seed {}: second device lpddr4_small@{} (T_RH)",
                self.seed,
                threshold_for(self.seed)
            )
        });
        lines
    }
}

/// Outputs of the batch twins of `load_matrix` at `seed` (key → bytes).
pub fn load_matrix_twins(
    seed: u64,
    committed: &CommittedCells,
) -> Result<BTreeMap<String, String>, String> {
    let pass = run_matrix(&MatrixSpec::load(seed).build(false), committed);
    if pass.errors.is_empty() {
        Ok(pass.outputs)
    } else {
        Err(pass.errors.join("\n"))
    }
}
