//! RowHammer disturbance model.
//!
//! The model is *victim-centric*, matching the paper's hardware threat model
//! (§3) and the defense's victim-focused design: every row accumulates a
//! **disturbance count** equal to the number of activations of its physical
//! neighbours since the row itself was last refreshed (by auto-refresh, by
//! its own activation, or by a defense RowClone touching it). Once the
//! disturbance reaches `T_RH` inside one refresh window, attacker-chosen
//! bits in the row can flip.
//!
//! Activating a row restores its charge, so an `ACT` of row `r`:
//! * resets `r`'s own disturbance to zero, and
//! * adds one unit of disturbance to both of `r`'s neighbours.
//!
//! Auto-refresh is modelled lazily: each counter is tagged with the refresh
//! window (epoch) it was accumulated in, and reads as zero once the window
//! has rolled over.

use std::collections::HashMap;

use crate::geometry::{DramConfig, GlobalRowId, RowInSubarray};
use crate::timing::Nanos;

/// Per-row disturbance bookkeeping.
#[derive(Debug, Clone, Default)]
pub struct HammerTracker {
    /// `(epoch, accumulated neighbour activations)` per row. Rows missing
    /// from the map have zero disturbance.
    counts: HashMap<GlobalRowId, (u64, u64)>,
    /// Total disturbance events recorded (diagnostic).
    total_events: u64,
}

impl HammerTracker {
    /// New, empty tracker.
    pub fn new() -> Self {
        HammerTracker::default()
    }

    /// Current refresh-window index for a timestamp.
    pub fn epoch(now: Nanos, t_ref: Nanos) -> u64 {
        (now.0 / t_ref.0) as u64
    }

    /// Add `n` units of disturbance to `row` at time `now`.
    pub fn disturb(&mut self, row: GlobalRowId, n: u64, epoch: u64) {
        self.total_events += n;
        let entry = self.counts.entry(row).or_insert((epoch, 0));
        if entry.0 != epoch {
            *entry = (epoch, 0);
        }
        entry.1 += n;
    }

    /// Reset `row`'s disturbance (the row was refreshed/activated/cloned).
    pub fn refresh(&mut self, row: GlobalRowId) {
        self.counts.remove(&row);
    }

    /// Reset every row (an explicit all-bank refresh).
    pub fn refresh_all(&mut self) {
        self.counts.clear();
    }

    /// Current disturbance of `row` within epoch `epoch`.
    pub fn disturbance(&self, row: GlobalRowId, epoch: u64) -> u64 {
        match self.counts.get(&row) {
            Some(&(e, n)) if e == epoch => n,
            _ => 0,
        }
    }

    /// Total disturbance events ever recorded.
    pub fn total_events(&self) -> u64 {
        self.total_events
    }

    /// Raw `(epoch, count)` entry of a row, if one exists — the batched
    /// fast path's lazy slot load (see [`crate::batch::DecodedBatch`]).
    pub(crate) fn raw_get(&self, row: GlobalRowId) -> Option<(u64, u64)> {
        self.counts.get(&row).copied()
    }

    /// Install a raw `(epoch, count)` entry (batched flush).
    pub(crate) fn raw_set(&mut self, row: GlobalRowId, epoch: u64, count: u64) {
        self.counts.insert(row, (epoch, count));
    }

    /// Remove a row's entry without touching `total_events` (batched
    /// flush of a refreshed row).
    pub(crate) fn raw_remove(&mut self, row: GlobalRowId) {
        self.counts.remove(&row);
    }

    /// Add `n` to the diagnostic event total (batched disturbance is
    /// accumulated densely and credited once per chunk).
    pub(crate) fn raw_add_events(&mut self, n: u64) {
        self.total_events += n;
    }

    /// Number of rows currently carrying non-zero disturbance from `epoch`.
    pub fn dirty_rows(&self, epoch: u64) -> usize {
        self.counts
            .values()
            .filter(|&&(e, n)| e == epoch && n > 0)
            .count()
    }
}

/// Outcome of an attempted RowHammer bit-flip on a victim row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlipOutcome {
    /// The victim's disturbance reached `T_RH`; the listed bit offsets were
    /// flipped in the row payload.
    Flipped {
        /// The flipped bit offsets within the row payload.
        bits: Vec<usize>,
    },
    /// The victim was refreshed recently enough that the disturbance is
    /// still below threshold — the defense (or plain auto-refresh) won.
    Resisted {
        /// Disturbance accumulated so far in the current window.
        disturbance: u64,
        /// The configured threshold `T_RH`.
        threshold: u64,
    },
}

impl FlipOutcome {
    /// `true` when bits actually flipped.
    pub fn flipped(&self) -> bool {
        matches!(self, FlipOutcome::Flipped { .. })
    }
}

/// Static RowHammer parameters derived from a [`DramConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowHammerModel {
    /// Activation threshold `T_RH`.
    pub threshold: u64,
    /// Rows per subarray (for neighbour computation).
    pub rows_per_subarray: usize,
}

impl RowHammerModel {
    /// Build the model from a device configuration.
    pub fn from_config(config: &DramConfig) -> Self {
        RowHammerModel {
            threshold: config.rowhammer_threshold,
            rows_per_subarray: config.rows_per_subarray,
        }
    }

    /// Victim rows of an aggressor (same bank + subarray, ±1 row).
    pub fn victims_of(&self, aggressor: GlobalRowId) -> Vec<GlobalRowId> {
        aggressor
            .row
            .neighbours(self.rows_per_subarray)
            .map(|row| GlobalRowId {
                bank: aggressor.bank,
                subarray: aggressor.subarray,
                row,
            })
            .collect()
    }

    /// Aggressor rows able to disturb a victim (the same ±1 set).
    pub fn aggressors_of(&self, victim: GlobalRowId) -> Vec<GlobalRowId> {
        // Adjacency is symmetric.
        self.victims_of(victim)
    }

    /// The hammer count an attacker must still apply to `victim` given its
    /// current disturbance.
    pub fn remaining(&self, disturbance: u64) -> u64 {
        self.threshold.saturating_sub(disturbance)
    }
}

/// Convenience: the aggressor row a single-sided attacker would pick for a
/// victim (prefers the row below, falls back to the row above at the edge).
pub fn preferred_aggressor(victim: GlobalRowId, rows_per_subarray: usize) -> GlobalRowId {
    let row = if victim.row.0 + 1 < rows_per_subarray {
        RowInSubarray(victim.row.0 + 1)
    } else {
        RowInSubarray(victim.row.0 - 1)
    };
    GlobalRowId {
        bank: victim.bank,
        subarray: victim.subarray,
        row,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gid(row: usize) -> GlobalRowId {
        GlobalRowId::new(0, 0, row)
    }

    #[test]
    fn disturb_accumulates_within_epoch() {
        let mut t = HammerTracker::new();
        t.disturb(gid(5), 100, 0);
        t.disturb(gid(5), 50, 0);
        assert_eq!(t.disturbance(gid(5), 0), 150);
        assert_eq!(t.total_events(), 150);
    }

    #[test]
    fn epoch_rollover_clears_counts() {
        let mut t = HammerTracker::new();
        t.disturb(gid(5), 100, 0);
        assert_eq!(t.disturbance(gid(5), 1), 0);
        // Writing in the new epoch restarts the count.
        t.disturb(gid(5), 7, 1);
        assert_eq!(t.disturbance(gid(5), 1), 7);
    }

    #[test]
    fn refresh_resets_single_row() {
        let mut t = HammerTracker::new();
        t.disturb(gid(1), 10, 0);
        t.disturb(gid(2), 10, 0);
        t.refresh(gid(1));
        assert_eq!(t.disturbance(gid(1), 0), 0);
        assert_eq!(t.disturbance(gid(2), 0), 10);
        t.refresh_all();
        assert_eq!(t.disturbance(gid(2), 0), 0);
    }

    #[test]
    fn epoch_computation() {
        let t_ref = Nanos::from_millis(64);
        assert_eq!(HammerTracker::epoch(Nanos(0), t_ref), 0);
        assert_eq!(HammerTracker::epoch(Nanos::from_millis(63), t_ref), 0);
        assert_eq!(HammerTracker::epoch(Nanos::from_millis(64), t_ref), 1);
        assert_eq!(HammerTracker::epoch(Nanos::from_millis(129), t_ref), 2);
    }

    #[test]
    fn victims_are_symmetric_neighbours() {
        let m = RowHammerModel {
            threshold: 1000,
            rows_per_subarray: 128,
        };
        assert_eq!(m.victims_of(gid(10)), vec![gid(9), gid(11)]);
        assert_eq!(m.aggressors_of(gid(10)), vec![gid(9), gid(11)]);
        assert_eq!(m.victims_of(gid(0)), vec![gid(1)]);
        assert_eq!(m.victims_of(gid(127)), vec![gid(126)]);
    }

    #[test]
    fn preferred_aggressor_is_adjacent() {
        assert_eq!(preferred_aggressor(gid(10), 128), gid(11));
        assert_eq!(preferred_aggressor(gid(127), 128), gid(126));
    }

    #[test]
    fn remaining_saturates() {
        let m = RowHammerModel {
            threshold: 1000,
            rows_per_subarray: 128,
        };
        assert_eq!(m.remaining(0), 1000);
        assert_eq!(m.remaining(999), 1);
        assert_eq!(m.remaining(5000), 0);
    }

    #[test]
    fn dirty_rows_counts_current_epoch_only() {
        let mut t = HammerTracker::new();
        t.disturb(gid(1), 3, 0);
        t.disturb(gid(2), 3, 0);
        assert_eq!(t.dirty_rows(0), 2);
        assert_eq!(t.dirty_rows(1), 0);
    }
}
