//! Summary statistics and failure accounting.

use std::collections::BTreeMap;

use dnn_defender::Json;

/// Fewest samples that must lie above a tail percentile before it is
/// reported.
pub const TAIL_MIN_ABOVE: usize = 10;

/// Median (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100], or `None` when fewer than
/// [`TAIL_MIN_ABOVE`] samples lie above it (p95 needs ≥ 200 samples).
pub fn tail_percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let rank = rank.min(v.len());
    (v.len() - rank >= TAIL_MIN_ABOVE).then(|| v[rank - 1])
}

/// Fate of one attempted operation (a matrix cell, a served cell, or a
/// replay run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Completed with a result.
    Done,
    /// Refused by admission for budget.
    Rejected,
    /// Shed under storm.
    Shed,
    /// Execution panicked on every attempt.
    JobFailed,
    /// Any other error status, malformed reply, or program error.
    Error,
    /// The request never got a parsable reply.
    Transport,
    /// Completed, but its output failed a correctness check.
    CheckFailed,
}

impl Outcome {
    /// Label used in the printed failure breakdown.
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Done => "done",
            Outcome::Rejected => "rejected",
            Outcome::Shed => "shed",
            Outcome::JobFailed => "job_failed",
            Outcome::Error => "error",
            Outcome::Transport => "transport",
            Outcome::CheckFailed => "check_failed",
        }
    }
}

/// Attempted/failed counts with a per-kind breakdown of the failures.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that did not complete correctly.
    pub failed: u64,
    /// Failures by [`Outcome::label`].
    pub by_kind: BTreeMap<&'static str, u64>,
}

impl Tally {
    /// Count one operation.
    pub fn record(&mut self, outcome: Outcome) {
        self.attempted += 1;
        if outcome != Outcome::Done {
            self.failed += 1;
            *self.by_kind.entry(outcome.label()).or_insert(0) += 1;
        }
    }

    /// Turn `n` already-counted successes into check failures (a pass
    /// whose output check failed counts every operation it made).
    pub fn fail_done(&mut self, n: u64) {
        let n = n.min(self.attempted - self.failed);
        self.failed += n;
        *self
            .by_kind
            .entry(Outcome::CheckFailed.label())
            .or_insert(0) += n;
    }

    /// Fold another tally in.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for (kind, n) in &other.by_kind {
            *self.by_kind.entry(kind).or_insert(0) += n;
        }
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Classify one entry of a submit reply's `results` array.
pub fn classify_result(result: &Json) -> Outcome {
    match result.field_str("status") {
        Ok("done") if result.get("cell").is_some() => Outcome::Done,
        Ok("rejected") => Outcome::Rejected,
        Ok("shed") => Outcome::Shed,
        Ok("error") if result.field_str("kind") == Ok("job_failed") => Outcome::JobFailed,
        _ => Outcome::Error,
    }
}

/// Outcomes of the `cells` cells of one submit: a transport failure
/// fails them all, an error reply fails them all, and a reply with too
/// few results fails the missing ones.
pub fn classify_reply(reply: &Result<Json, String>, cells: usize) -> Vec<Outcome> {
    let response = match reply {
        Err(_) => return vec![Outcome::Transport; cells],
        Ok(response) => response,
    };
    if response.field_bool("ok") != Ok(true) {
        return vec![Outcome::Error; cells];
    }
    let results = response.field_arr("results").unwrap_or(&[]);
    (0..cells)
        .map(|i| results.get(i).map_or(Outcome::Error, classify_result))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_above() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        // Rank 190 of 200 leaves exactly 10 above it.
        assert_eq!(tail_percentile(&v, 95.0), Some(190.0));
        let short: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(tail_percentile(&short, 95.0), None);
        assert_eq!(tail_percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(tail_percentile(&v[..19], 50.0), None);
        assert_eq!(tail_percentile(&[], 50.0), None);
    }

    fn reply(results: &[Json]) -> Result<Json, String> {
        Ok(Json::obj()
            .with("ok", Json::Bool(true))
            .with("results", Json::Arr(results.to_vec())))
    }

    fn status(s: &str) -> Json {
        Json::obj().with("status", Json::str(s))
    }

    #[test]
    fn every_failure_kind_counts_against_attempted() {
        let done = status("done").with("cell", Json::obj());
        let job_failed = status("error").with("kind", Json::str("job_failed"));
        let cases: Vec<(Result<Json, String>, usize, Vec<Outcome>)> = vec![
            (reply(std::slice::from_ref(&done)), 1, vec![Outcome::Done]),
            (reply(&[status("rejected")]), 1, vec![Outcome::Rejected]),
            (reply(&[status("shed")]), 1, vec![Outcome::Shed]),
            (reply(&[job_failed]), 1, vec![Outcome::JobFailed]),
            (reply(&[status("error")]), 1, vec![Outcome::Error]),
            // `done` without a cell payload is malformed.
            (reply(&[status("done")]), 1, vec![Outcome::Error]),
            (
                Err("connect: refused".to_string()),
                2,
                vec![Outcome::Transport; 2],
            ),
            (
                Ok(Json::obj().with("ok", Json::Bool(false))),
                3,
                vec![Outcome::Error; 3],
            ),
            // Fewer results than cells sent: the missing ones failed.
            (reply(&[done]), 2, vec![Outcome::Done, Outcome::Error]),
        ];
        for (reply, cells, expected) in cases {
            let outcomes = classify_reply(&reply, cells);
            assert_eq!(outcomes, expected);
            let mut tally = Tally::default();
            for o in &outcomes {
                tally.record(*o);
            }
            let failed = expected.iter().filter(|o| **o != Outcome::Done).count() as u64;
            assert_eq!(tally.attempted, cells as u64);
            assert_eq!(tally.failed, failed);
        }

        let mut tally = Tally::default();
        for o in [Outcome::Done, Outcome::Done, Outcome::Shed, Outcome::Done] {
            tally.record(o);
        }
        assert_eq!(tally.fail_ratio(), 0.25);
        tally.fail_done(10);
        assert_eq!((tally.attempted, tally.failed), (4, 4));
        assert_eq!(tally.by_kind.get("check_failed"), Some(&3));
        assert_eq!(tally.by_kind.get("shed"), Some(&1));
    }
}
