//! What every workload provides to the runner.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

use crate::layers::Layers;
use crate::stats::Tally;

/// Worker threads for matrices and the server executor, and the number
/// of client connections: the 2-core box the benchmark is sized for.
pub const WORKERS: usize = 2;

/// What one pass produced, apart from the process-level measurements
/// the runner takes around it.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the timed operation.
    pub wall: Duration,
    /// Cells (or replay runs) completed.
    pub cells: u64,
    /// Latency of each completed request, in ms.
    pub latencies_ms: Vec<f64>,
    /// Operations attempted and failed.
    pub tally: Tally,
    /// Comparable outputs: id → canonical rendering.
    pub outputs: BTreeMap<String, String>,
    /// Outputs that matched a committed artifact.
    pub committed_matches: usize,
    /// Failed output checks.
    pub errors: Vec<String>,
    /// Per-layer values (traced passes only).
    pub layers: Option<Layers>,
}

/// One workload of the benchmark.
pub trait Workload {
    /// Cold-start one pass. The served workload starts a fresh server
    /// with an empty cell cache, its socket in a fresh scratch directory;
    /// the others write nothing and keep no state between passes.
    fn cold_start(&mut self, scratch: &mut Scratch) -> Result<(), String>;

    /// Run the timed operation once. A traced pass also records the
    /// benchmark's spans and fills [`Pass::layers`] (the runner holds the
    /// `dd_obs` session and passes its snapshot to [`Workload::layers`]).
    fn pass(&mut self, traced: bool) -> Pass;

    /// Undo [`Workload::cold_start`].
    fn teardown(&mut self);

    /// Per-layer values of a traced pass from its snapshot.
    fn layers(&mut self, pass: &Pass, snapshot: &dd_obs::Snapshot) -> Layers;

    /// Checks that need every pass (or extra work outside the timing),
    /// run once after the last pass.
    fn finish(&mut self, passes: &[&Pass]) -> Vec<String>;

    /// Lines describing the workload's inputs and measured shares.
    fn describe(&self, passes: &[&Pass]) -> Vec<String>;
}

/// A per-process scratch directory inside the checkout, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: usize,
}

impl Scratch {
    /// Create `.bench_scratch/<pid>` under `checkout`.
    pub fn new(checkout: &Path) -> Result<Self, String> {
        let root = checkout
            .join(".bench_scratch")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&root).map_err(|e| format!("mkdir {}: {e}", root.display()))?;
        Ok(Scratch { root, next: 0 })
    }

    /// A fresh, empty directory for the next pass (relative paths stay
    /// short enough for Unix socket names).
    pub fn fresh(&mut self) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.root.join(self.next.to_string());
        std::fs::create_dir_all(&dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            // Only succeeds when no other run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}
