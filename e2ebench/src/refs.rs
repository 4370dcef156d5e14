//! Output checks against the committed artifacts.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use dd_workload::DriverReport;
use dnn_defender::Json;

/// The committed cell cache (`artifacts/cache/cells.json`): cache key →
/// the cell's canonical compact rendering.
pub struct CommittedCells {
    cells: HashMap<u64, String>,
}

impl CommittedCells {
    /// Read and parse the committed cache under `root`.
    pub fn load(root: &Path) -> Result<Self, String> {
        let path = root.join("artifacts/cache/cells.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Parse a cell-cache document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let doc = Json::parse(text).map_err(|e| format!("cells.json: {}", e.message))?;
        let Some(Json::Obj(entries)) = doc.get("cells") else {
            return Err("cells.json: no `cells` object".to_string());
        };
        let mut cells = HashMap::new();
        for (key, cell) in entries {
            let key = u64::from_str_radix(key.trim_start_matches("0x"), 16)
                .map_err(|_| format!("cells.json: bad key `{key}`"))?;
            cells.insert(key, cell.render_compact());
        }
        Ok(CommittedCells { cells })
    }

    /// Compare a computed cell with its committed twin: `None` when the
    /// key is not committed, else whether the bytes match.
    pub fn check(&self, key: u64, rendered: &str) -> Option<Result<(), String>> {
        self.cells.get(&key).map(|committed| {
            if committed == rendered {
                Ok(())
            } else {
                Err(format!(
                    "cell {key:#018x} differs from the committed cache:\n  committed {committed}\n  computed  {rendered}"
                ))
            }
        })
    }
}

/// The per-run fields `artifacts/workload.json` records, in its order.
const RUN_FIELDS: [&str; 12] = [
    "benign_ops",
    "benign_activations",
    "benign_bytes",
    "commands",
    "sim_nanos",
    "busy_nanos",
    "false_defense_ops",
    "online_defense_ops",
    "attempts",
    "landed",
    "disturbed_rows",
    "peak_disturbance",
];

fn run_fields(r: &DriverReport) -> [(&'static str, u64); 12] {
    let values = [
        r.benign_ops,
        r.benign_activations,
        r.benign_bytes,
        r.commands,
        r.sim_nanos as u64,
        r.busy_nanos as u64,
        r.false_defense_ops,
        r.online_defense_ops,
        r.attempts,
        r.landed,
        r.disturbed_rows,
        r.peak_benign_disturbance,
    ];
    std::array::from_fn(|i| (RUN_FIELDS[i], values[i]))
}

/// Render a replay run as `field=value` pairs (its comparable output).
pub fn render_run(r: &DriverReport) -> String {
    run_fields(r)
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The committed `raw.runs` of `artifacts/workload.json`, keyed by
/// `mix/defense`, rendered like [`render_run`].
pub fn committed_workload_runs(root: &Path) -> Result<BTreeMap<String, String>, String> {
    let path = root.join("artifacts/workload.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("workload.json: {}", e.message))?;
    let runs = doc
        .field("raw")
        .and_then(|raw| raw.field_arr("runs"))
        .map_err(|e| format!("workload.json: {}", e.message))?;
    let mut out = BTreeMap::new();
    for run in runs {
        let id = format!(
            "{}/{}",
            run.field_str("workload").unwrap_or("?"),
            run.field_str("defense").unwrap_or("?")
        );
        let fields = RUN_FIELDS
            .iter()
            .map(|k| {
                run.field_u64(k)
                    .map(|v| format!("{k}={v}"))
                    .map_err(|e| format!("workload.json {id}: {}", e.message))
            })
            .collect::<Result<Vec<_>, _>>()?;
        out.insert(id, fields.join(" "));
    }
    Ok(out)
}

/// Differences between two sets of outputs (id → rendering), e.g. two
/// passes, or a committed artifact and a pass.
pub fn diff_outputs(
    first: &BTreeMap<String, String>,
    other: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut errors = Vec::new();
    for (id, a) in first {
        match other.get(id) {
            Some(b) if a == b => {}
            Some(b) => errors.push(format!("{id}: outputs differ:\n  {a}\n  {b}")),
            None => errors.push(format!("{id}: missing from the second set")),
        }
    }
    for id in other.keys().filter(|id| !first.contains_key(*id)) {
        errors.push(format!("{id}: missing from the first set"));
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    const CACHE: &str = r#"{
  "version": 2,
  "cells": {
    "0x00000000000000aa": {
      "scenario": {"defense": "RRS", "attacker": "BFA", "dram": "d", "workload": "none", "seed": "0x01"},
      "clean_accuracy": 1,
      "post_attack_accuracy": 0.7083333134651184,
      "attempts": 4,
      "landed": 0
    }
  }
}"#;

    #[test]
    fn checker_accepts_the_committed_bytes_and_rejects_a_tampered_cell() {
        let committed = CommittedCells::parse(CACHE).expect("parse");
        let doc = Json::parse(CACHE).expect("json");
        let cell = doc
            .field("cells")
            .and_then(|c| c.field("0x00000000000000aa"))
            .expect("cell");
        let rendered = cell.render_compact();
        assert_eq!(committed.check(0xaa, &rendered), Some(Ok(())));
        assert_eq!(committed.check(0xbb, &rendered), None);

        for (from, to) in [
            ("\"landed\":0", "\"landed\":1"),
            ("0.7083333134651184", "0.7083333134651185"),
            ("\"RRS\"", "\"SRS\""),
        ] {
            assert!(rendered.contains(from), "{from} not in {rendered}");
            let tampered = rendered.replace(from, to);
            assert!(matches!(committed.check(0xaa, &tampered), Some(Err(_))));
        }
    }

    #[test]
    fn pass_outputs_must_agree_exactly() {
        let a: BTreeMap<String, String> = [("x".to_string(), "1".to_string())].into();
        let b: BTreeMap<String, String> = [("x".to_string(), "2".to_string())].into();
        let c: BTreeMap<String, String> = [("y".to_string(), "1".to_string())].into();
        assert!(diff_outputs(&a, &a).is_empty());
        assert_eq!(diff_outputs(&a, &b).len(), 1);
        assert_eq!(diff_outputs(&a, &c).len(), 2);
    }
}
