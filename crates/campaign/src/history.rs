//! What a running campaign has seen so far — the feedback channel between
//! the engine and an adaptive [`Strategy`](crate::strategy::Strategy).
//!
//! The engine builds one [`CampaignHistory`] per run of a
//! [`CampaignDriver`](crate::builder::CampaignDriver), seeds it with any
//! records resumed from a checkpoint, and updates it after every drained
//! batch. Strategies read it
//! in `next_batch` to decide what to schedule next: which points are still
//! undispatched, and how the units of already-explored points fared.
//!
//! Unit ids are **canonical**: unit `id` is the position of its
//! `(fault point, workload)` pair in the full expansion of the space in
//! enumeration order. The history owns that layout (`unit_base`), so it can
//! map any record — including one resumed from a previous session — back to
//! its fault-point index.

use crate::engine::RunRecord;
use crate::triage::CrashSignature;

/// The observable state of a campaign run: completed records, the canonical
/// unit layout, and which fault points have been dispatched so far.
#[derive(Debug, Clone)]
pub struct CampaignHistory {
    /// Canonical id of the first unit of each fault point, ascending.
    unit_base: Vec<usize>,
    /// Total canonical units (sum of workload-suite sizes over all points).
    total_units: usize,
    /// Every completed record, resumed ones included, in completion order.
    records: Vec<RunRecord>,
    /// Crash signatures first observed *outside* this run (a supervisor's
    /// broadcasts from sibling workers): scheduling hints with no local
    /// record behind them.
    signature_hints: Vec<CrashSignature>,
    /// Whether each fault point has been dispatched this run.
    dispatched: Vec<bool>,
    dispatched_points: usize,
    planned_units: usize,
    batches: usize,
}

impl CampaignHistory {
    pub(crate) fn new(unit_base: Vec<usize>, total_units: usize) -> CampaignHistory {
        let points = unit_base.len();
        CampaignHistory {
            unit_base,
            total_units,
            records: Vec::new(),
            signature_hints: Vec::new(),
            dispatched: vec![false; points],
            dispatched_points: 0,
            planned_units: 0,
            batches: 0,
        }
    }

    /// An empty history over a space of `points` fault points, each with a
    /// single workload (unit id == point index). Intended for exercising
    /// strategies directly in tests, without an engine.
    pub fn for_space_size(points: usize) -> CampaignHistory {
        CampaignHistory::new((0..points).collect(), points)
    }

    /// Every completed record so far, resumed ones included.
    pub fn records(&self) -> &[RunRecord] {
        &self.records
    }

    /// Crash signatures first seen elsewhere in a supervised campaign
    /// (broadcast by the supervisor) — scheduling signals adaptive
    /// strategies fold into their escalation sets alongside locally
    /// observed crashes. Empty for unsupervised runs.
    pub fn signature_hints(&self) -> &[CrashSignature] {
        &self.signature_hints
    }

    /// Record one broadcast signature hint. Hints never contribute
    /// records; they only steer scheduling.
    pub(crate) fn add_signature_hint(&mut self, signature: CrashSignature) {
        self.signature_hints.push(signature);
    }

    /// Number of non-empty batches dispatched so far this run.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// Whether the fault point at `point` has already been dispatched this
    /// run (out-of-range indices count as dispatched, so strategies cannot
    /// schedule them).
    pub fn dispatched(&self, point: usize) -> bool {
        self.dispatched.get(point).copied().unwrap_or(true)
    }

    /// Number of distinct fault points dispatched this run.
    pub fn dispatched_points(&self) -> usize {
        self.dispatched_points
    }

    /// Number of work units covered by the dispatched points.
    pub fn planned_units(&self) -> usize {
        self.planned_units
    }

    /// Total canonical units of the space (every point × its workloads).
    pub fn total_units(&self) -> usize {
        self.total_units
    }

    /// Map a canonical unit id back to its fault-point index.
    pub fn point_of_unit(&self, unit: usize) -> Option<usize> {
        if unit >= self.total_units {
            return None;
        }
        // unit_base is ascending; the owning point is the last base <= unit.
        Some(self.unit_base.partition_point(|&base| base <= unit) - 1)
    }

    /// The completed records attributed to one fault point.
    pub fn records_for_point(&self, point: usize) -> impl Iterator<Item = &RunRecord> {
        self.records
            .iter()
            .filter(move |r| self.point_of_unit(r.unit) == Some(point))
    }

    /// Mark a fault point as off-limits for this run *without* counting it
    /// as planned work — how the engine confines a run to its lease:
    /// points outside the lease's range are excluded up front, so
    /// strategies treat them as already explored while the
    /// dispatch/planned counters keep reflecting only the lease's slice.
    pub(crate) fn exclude_point(&mut self, point: usize) {
        if let Some(slot) = self.dispatched.get_mut(point) {
            *slot = true;
        }
    }

    pub(crate) fn begin_batch(&mut self, points: &[usize], units: usize) {
        for &point in points {
            if !self.dispatched[point] {
                self.dispatched[point] = true;
                self.dispatched_points += 1;
            }
        }
        self.planned_units += units;
        self.batches += 1;
    }

    pub(crate) fn observe(&mut self, record: RunRecord) {
        self.records.push(record);
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::OutcomeKind;

    use super::*;

    fn record(unit: usize) -> RunRecord {
        RunRecord {
            unit,
            target: "demo".into(),
            function: "read".into(),
            offset: 4,
            args: vec![],
            outcome: OutcomeKind::Passed,
            injections: 1,
            injected_sites: vec![],
            crashes: vec![],
            virtual_time: 1,
        }
    }

    #[test]
    fn units_map_back_to_their_points() {
        // Three points with 2, 3, and 1 workloads: bases 0, 2, 5.
        let history = CampaignHistory::new(vec![0, 2, 5], 6);
        assert_eq!(history.point_of_unit(0), Some(0));
        assert_eq!(history.point_of_unit(1), Some(0));
        assert_eq!(history.point_of_unit(2), Some(1));
        assert_eq!(history.point_of_unit(4), Some(1));
        assert_eq!(history.point_of_unit(5), Some(2));
        assert_eq!(history.point_of_unit(6), None, "beyond the expansion");
    }

    #[test]
    fn batches_track_dispatch_and_unit_counts() {
        let mut history = CampaignHistory::new(vec![0, 2, 5], 6);
        assert!(!history.dispatched(1));
        assert!(history.dispatched(99), "out of range counts as dispatched");
        history.begin_batch(&[1], 3);
        history.begin_batch(&[0, 2], 3);
        assert_eq!(history.batches(), 2);
        assert_eq!(history.dispatched_points(), 3);
        assert_eq!(history.planned_units(), 6);
        assert!(history.dispatched(0) && history.dispatched(1) && history.dispatched(2));
    }

    #[test]
    fn records_filter_by_point() {
        let mut history = CampaignHistory::new(vec![0, 2, 5], 6);
        for unit in [0, 1, 3, 5] {
            history.observe(record(unit));
        }
        assert_eq!(history.records_for_point(0).count(), 2);
        assert_eq!(history.records_for_point(1).count(), 1);
        assert_eq!(history.records_for_point(2).count(), 1);
    }
}
