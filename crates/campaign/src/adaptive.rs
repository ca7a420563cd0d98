//! Coverage-feedback scheduling: the guided ordering, made adaptive.
//!
//! [`CoverageAdaptive`] starts from the same ordering as
//! [`InjectionGuided`](crate::strategy::InjectionGuided) — unreached points
//! pruned, unchecked call sites first — but emits it in batches and
//! re-scores the remainder between batches from the campaign's
//! [`CampaignHistory`]:
//!
//! * **escalate** — a fault point is moved to the front of the queue when
//!   its neighborhood is near an observed crash signature: a crash happened
//!   in its caller function, its caller appears on a crash backtrace of the
//!   same target, or another error case of the same `(target, function)`
//!   already crashed;
//! * **deprioritize** — a point is moved to the back when its neighborhood
//!   (the fault points sharing its caller function) has accumulated
//!   `pass_threshold` passing runs without a single crash or hang;
//! * **prune** — optionally, a deprioritized point whose call site the
//!   analyzer classified as fully *checked* is dropped outright: the
//!   surrounding recovery code has demonstrably absorbed injections, so the
//!   budget is better spent elsewhere. Points demoted by the static-prune
//!   pass ([`FaultSpace::static_prune`]) carry a stronger guarantee — the
//!   interprocedural analysis proved the error handled — so they are
//!   dropped as soon as a *single* passing run corroborates the verdict in
//!   their neighborhood, instead of waiting for the full pass threshold.
//!
//! Scheduling is deterministic: scores are pure functions of the completed
//! record set, and every batch fully drains before the next is requested,
//! so the schedule does not depend on worker count or interleaving.

use std::collections::{BTreeMap, BTreeSet};

use lfi_analyzer::CallSiteClass;

use crate::engine::{OutcomeKind, WorkUnit};
use crate::history::CampaignHistory;
use crate::space::FaultSpace;
use crate::strategy::{guided_order, DepthOracle, Strategy};

/// An adaptive, feedback-driven scheduler over the guided ordering.
#[derive(Debug, Clone, Copy)]
pub struct CoverageAdaptive {
    /// Fault points emitted per batch (clamped to at least 1).
    pub batch: usize,
    /// Passing runs a caller neighborhood must accumulate (with no crash or
    /// hang) before its remaining points are deprioritized.
    pub pass_threshold: usize,
    /// Whether deprioritized points at *checked* call sites are dropped
    /// entirely instead of explored last.
    pub prune_saturated: bool,
}

impl Default for CoverageAdaptive {
    fn default() -> Self {
        CoverageAdaptive {
            batch: 32,
            pass_threshold: 3,
            prune_saturated: false,
        }
    }
}

/// How urgently a point should be explored (lower schedules earlier).
#[derive(PartialEq, Eq)]
enum Urgency {
    Escalated,
    Normal,
    Deprioritized,
}

/// A caller neighborhood: the fault points of one target sharing a caller
/// function (points with no resolved caller each form their own singleton
/// neighborhood, keyed by `None`).
type Neighborhood = (String, Option<String>);

#[derive(Default)]
struct NeighborhoodStats {
    passes: usize,
    failures: usize, // crashes and hangs
}

/// Everything the scheduler extracts from the record set in one pass.
#[derive(Default)]
struct HistoryDigest {
    stats: BTreeMap<Neighborhood, NeighborhoodStats>,
    /// `(target, function)` pairs whose injection already crashed.
    hot_functions: BTreeSet<(String, String)>,
    /// `(target, caller)` pairs implicated by a crash signature.
    hot_callers: BTreeSet<(String, String)>,
}

impl CoverageAdaptive {
    fn neighborhood(space: &FaultSpace, point: usize) -> Neighborhood {
        let p = &space.points[point];
        (p.target.clone(), p.caller.clone())
    }

    /// Fold the completed records into per-neighborhood outcome counts and
    /// the set of crash signals: callers implicated by a crash (faulting
    /// function or backtrace frame) and `(target, function)` pairs whose
    /// injection already produced a crash.
    fn digest_history(space: &FaultSpace, history: &CampaignHistory) -> HistoryDigest {
        let mut digest = HistoryDigest::default();
        for record in history.records() {
            if let Some(point) = history.point_of_unit(record.unit) {
                if point < space.len() {
                    let entry = digest
                        .stats
                        .entry(Self::neighborhood(space, point))
                        .or_default();
                    match record.outcome {
                        OutcomeKind::Passed | OutcomeKind::CleanFailure(_) => entry.passes += 1,
                        OutcomeKind::Crashed | OutcomeKind::Hung => entry.failures += 1,
                    }
                }
            }
            if record.outcome == OutcomeKind::Crashed {
                digest
                    .hot_functions
                    .insert((record.target.clone(), record.function.clone()));
                for crash in &record.crashes {
                    for frame in crash.in_function.iter().chain(crash.backtrace.iter()) {
                        digest
                            .hot_callers
                            .insert((record.target.clone(), frame.clone()));
                    }
                }
            }
        }
        // Broadcast signatures from sibling workers carry the same two
        // escalation signals as a local crash record — the injected
        // function and the implicated frame — so a supervised campaign's
        // adaptive workers learn globally, not per-slice.
        for hint in history.signature_hints() {
            digest
                .hot_functions
                .insert((hint.target.clone(), hint.function.clone()));
            if let Some(frame) = &hint.frame {
                digest
                    .hot_callers
                    .insert((hint.target.clone(), frame.clone()));
            }
        }
        digest
    }

    fn urgency(&self, space: &FaultSpace, point: usize, digest: &HistoryDigest) -> Urgency {
        let p = &space.points[point];
        let neighborhood = Self::neighborhood(space, point);
        let local = digest.stats.get(&neighborhood);
        let near_crash = local.is_some_and(|s| s.failures > 0)
            || digest
                .hot_functions
                .contains(&(p.target.clone(), p.function.clone()))
            || p.caller
                .as_ref()
                .is_some_and(|c| digest.hot_callers.contains(&(p.target.clone(), c.clone())));
        if near_crash {
            return Urgency::Escalated;
        }
        let quiet =
            local.is_some_and(|s| s.failures == 0 && s.passes >= self.pass_threshold.max(1));
        if quiet {
            Urgency::Deprioritized
        } else {
            Urgency::Normal
        }
    }
}

impl Strategy for CoverageAdaptive {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn fingerprint(&self) -> String {
        format!(
            "adaptive(batch={},threshold={},prune={})",
            self.batch, self.pass_threshold, self.prune_saturated
        )
    }

    fn next_batch(&self, space: &FaultSpace, history: &CampaignHistory) -> Vec<usize> {
        let remaining: Vec<usize> = guided_order(space)
            .into_iter()
            .filter(|&i| !history.dispatched(i))
            .collect();
        if remaining.is_empty() {
            return Vec::new();
        }
        let digest = Self::digest_history(space, history);
        // Score every remaining point, preserving the guided order within
        // each urgency class (the sort key's second component is the
        // position in `remaining`, which is already guided-ordered).
        let mut scored: Vec<(u8, usize, usize)> = Vec::with_capacity(remaining.len());
        for (pos, &point) in remaining.iter().enumerate() {
            let urgency = self.urgency(space, point, &digest);
            if self.prune_saturated {
                let p = &space.points[point];
                if urgency == Urgency::Deprioritized && p.class == Some(CallSiteClass::Checked) {
                    continue;
                }
                // Statically demoted points need only one corroborating
                // pass in their neighborhood (and no failures) to be
                // skipped: the propagation proof carries most of the weight.
                let corroborated = digest
                    .stats
                    .get(&Self::neighborhood(space, point))
                    .is_some_and(|s| s.failures == 0 && s.passes >= 1);
                if p.demoted && corroborated {
                    continue;
                }
            }
            let class = match urgency {
                Urgency::Escalated => 0,
                Urgency::Normal => 1,
                Urgency::Deprioritized => 2,
            };
            scored.push((class, pos, point));
        }
        scored.sort_unstable();
        scored
            .into_iter()
            .take(self.batch.max(1))
            .map(|(_, _, point)| point)
            .collect()
    }

    /// Reuse-aware batch ordering: group units by `(target, workload)` so
    /// each session's forks run adjacently, ascend by first-call depth
    /// within the session so the LRU sees shallow ancestors before the
    /// walk moves deeper (shared ancestors stay hot instead of thrashing
    /// between sessions), and keep units of one function together at their
    /// shared fork point. Canonical unit id breaks the remaining ties, so
    /// the permutation is deterministic; records are sorted by unit id
    /// after the drain, so the reorder is invisible in results.
    fn order_units(&self, units: &mut [&WorkUnit], depths: &dyn DepthOracle) {
        units.sort_by_cached_key(|u| {
            (
                u.point.target.clone(),
                u.args.clone(),
                depths
                    .first_call_depth(&u.point.target, &u.args, &u.point.function)
                    .unwrap_or(usize::MAX),
                u.point.function.clone(),
                u.id,
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::{CrashInfo, RunRecord};
    use crate::space::FaultPoint;

    use super::*;

    fn point(caller: &str, offset: u64) -> FaultPoint {
        point_in("read", caller, offset)
    }

    fn point_in(function: &str, caller: &str, offset: u64) -> FaultPoint {
        FaultPoint {
            target: "demo".into(),
            function: function.into(),
            offset,
            caller: Some(caller.into()),
            retval: -1,
            reached: Some(true),
            ..FaultPoint::default()
        }
    }

    fn space_of(points: Vec<FaultPoint>) -> FaultSpace {
        FaultSpace { points }
    }

    fn record(unit: usize, outcome: OutcomeKind, crash_in: Option<&str>) -> RunRecord {
        record_of("read", unit, outcome, crash_in)
    }

    fn record_of(
        function: &str,
        unit: usize,
        outcome: OutcomeKind,
        crash_in: Option<&str>,
    ) -> RunRecord {
        RunRecord {
            unit,
            target: "demo".into(),
            function: function.into(),
            offset: unit as u64 * 4,
            args: vec![],
            outcome,
            injections: 1,
            injected_sites: vec![],
            crashes: crash_in
                .map(|f| {
                    vec![CrashInfo {
                        module: "demo".into(),
                        offset: 0x999,
                        description: "segfault".into(),
                        in_function: Some(f.into()),
                        backtrace: vec![f.into()],
                    }]
                })
                .unwrap_or_default(),
            virtual_time: 1,
        }
    }

    #[test]
    fn first_batch_is_the_guided_prefix() {
        let space = space_of((0..10).map(|i| point("load", i * 4)).collect());
        let history = CampaignHistory::for_space_size(space.len());
        let strategy = CoverageAdaptive {
            batch: 4,
            ..CoverageAdaptive::default()
        };
        assert_eq!(strategy.next_batch(&space, &history), vec![0, 1, 2, 3]);
    }

    #[test]
    fn batches_cover_everything_and_never_repeat() {
        let space = space_of((0..10).map(|i| point("load", i * 4)).collect());
        let mut history = CampaignHistory::for_space_size(space.len());
        let strategy = CoverageAdaptive {
            batch: 3,
            ..CoverageAdaptive::default()
        };
        let mut seen = Vec::new();
        loop {
            let batch = strategy.next_batch(&space, &history);
            if batch.is_empty() {
                break;
            }
            history.begin_batch(&batch, batch.len());
            seen.extend(batch);
        }
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), seen.len(), "no point dispatched twice");
        assert_eq!(sorted, (0..10).collect::<Vec<_>>(), "all points covered");
    }

    #[test]
    fn crash_neighborhoods_escalate() {
        // Points 0-2 inject `read` from caller `quiet`, 3-5 inject `write`
        // from caller `hot`, 6-8 inject `read` from caller `cold`.
        let mut points = Vec::new();
        for i in 0..3 {
            points.push(point_in("read", "quiet", i * 4));
        }
        for i in 3..6 {
            points.push(point_in("write", "hot", i * 4));
        }
        for i in 6..9 {
            points.push(point_in("read", "cold", i * 4));
        }
        let space = space_of(points);
        let mut history = CampaignHistory::for_space_size(space.len());
        // First batch explored point 6 (passed) and 3 (a `write` injection
        // that crashed inside `hot`).
        history.begin_batch(&[3, 6], 2);
        history.observe(record_of("read", 6, OutcomeKind::Passed, None));
        history.observe(record_of("write", 3, OutcomeKind::Crashed, Some("hot")));

        let strategy = CoverageAdaptive {
            batch: 10,
            pass_threshold: 3,
            prune_saturated: false,
        };
        let batch = strategy.next_batch(&space, &history);
        // The rest of the crashing neighborhood (4, 5) jumps the queue —
        // both via the caller signal and the hot `(demo, write)` function;
        // everyone else keeps the guided order (one pass in `cold` is below
        // the deprioritization threshold).
        assert_eq!(batch, vec![4, 5, 0, 1, 2, 7, 8]);
    }

    #[test]
    fn deprioritized_points_sink_but_are_still_explored() {
        // One caller with enough passes to be quiet, one untouched.
        let mut points = Vec::new();
        for i in 0..3 {
            points.push(point("quiet", i * 4));
        }
        for i in 3..5 {
            points.push(point("fresh", i * 4));
        }
        let space = space_of(points);
        let mut history = CampaignHistory::for_space_size(space.len());
        history.begin_batch(&[0, 1], 2);
        // Three passing runs in `quiet` (threshold) — point 2 still pending.
        history.observe(record(0, OutcomeKind::Passed, None));
        history.observe(record(0, OutcomeKind::Passed, None));
        history.observe(record(1, OutcomeKind::Passed, None));

        let strategy = CoverageAdaptive {
            batch: 10,
            pass_threshold: 3,
            prune_saturated: false,
        };
        let batch = strategy.next_batch(&space, &history);
        assert_eq!(
            batch,
            vec![3, 4, 2],
            "quiet neighborhood sinks to the back but is not dropped"
        );
    }

    #[test]
    fn prune_saturated_drops_checked_points_in_quiet_neighborhoods() {
        let mut points = Vec::new();
        for i in 0..2 {
            points.push(point("quiet", i * 4));
        }
        let mut checked = point("quiet", 8);
        checked.class = Some(CallSiteClass::Checked);
        points.push(checked);
        let mut unchecked = point("quiet", 12);
        unchecked.class = Some(CallSiteClass::Unchecked);
        points.push(unchecked);
        let space = space_of(points);
        let mut history = CampaignHistory::for_space_size(space.len());
        history.begin_batch(&[0, 1], 2);
        for unit in 0..2 {
            history.observe(record(unit, OutcomeKind::Passed, None));
            history.observe(record(unit, OutcomeKind::Passed, None));
        }

        let strategy = CoverageAdaptive {
            batch: 10,
            pass_threshold: 3,
            prune_saturated: true,
        };
        let batch = strategy.next_batch(&space, &history);
        // The checked point (index 2) is dropped; the unchecked one is
        // still explored (deprioritization never silences unchecked sites).
        assert_eq!(batch, vec![3]);
    }

    #[test]
    fn demoted_points_prune_after_a_single_corroborating_pass() {
        use lfi_analyzer::PropagationVerdict;

        // A demoted point and a merely checked point in the same caller.
        let mut demoted = point("quiet", 0);
        demoted.class = Some(CallSiteClass::Checked);
        demoted.verdict = Some(PropagationVerdict::HandledLocally);
        demoted.demoted = true;
        let mut checked = point("quiet", 4);
        checked.class = Some(CallSiteClass::Checked);
        let fresh = point("fresh", 8);
        let space = space_of(vec![demoted, checked, fresh]);

        let strategy = CoverageAdaptive {
            batch: 10,
            pass_threshold: 3,
            prune_saturated: true,
        };

        // One passing run in `quiet` — far below the deprioritization
        // threshold, but enough to corroborate the static proof.
        let mut history = CampaignHistory::for_space_size(space.len());
        history.begin_batch(&[1], 1);
        history.observe(record(1, OutcomeKind::Passed, None));
        let batch = strategy.next_batch(&space, &history);
        // Point 1 was already dispatched; the demoted point 0 is skipped on
        // the strength of one corroborating pass, leaving only `fresh`.
        assert_eq!(batch, vec![2]);

        // A failure in the neighborhood blocks the fast prune.
        let mut crashed = CampaignHistory::for_space_size(space.len());
        crashed.begin_batch(&[1], 1);
        crashed.observe(record(1, OutcomeKind::Crashed, Some("quiet")));
        let batch = strategy.next_batch(&space, &crashed);
        assert!(
            batch.contains(&0),
            "a crash in the neighborhood keeps the demoted point scheduled"
        );

        // With no corroborating runs at all, the demoted point stays queued
        // (last, per its rank) — static pruning alone never drops a unit.
        let empty = CampaignHistory::for_space_size(space.len());
        let batch = strategy.next_batch(&space, &empty);
        assert_eq!(batch.last(), Some(&0));
        assert_eq!(batch.len(), 3);
    }

    #[test]
    fn order_units_groups_by_session_and_ascends_by_depth() {
        use lfi_core::Scenario;

        /// A fixed function → depth table; one function is unknown.
        struct TableOracle;

        impl DepthOracle for TableOracle {
            fn first_call_depth(
                &self,
                _target: &str,
                _args: &[String],
                function: &str,
            ) -> Option<usize> {
                match function {
                    "read" => Some(1),
                    "write" => Some(5),
                    "close" => Some(3),
                    _ => None, // "ioctl": depth unknown
                }
            }
        }

        let unit = |id: usize, function: &str, args: &[&str]| WorkUnit {
            id,
            point: FaultPoint {
                target: "demo".into(),
                function: function.into(),
                offset: id as u64 * 4,
                retval: -1,
                ..FaultPoint::default()
            },
            scenario: Scenario::new(),
            args: args.iter().map(|a| a.to_string()).collect(),
            seed: 0,
        };
        let units = [
            unit(0, "write", &["b"]),
            unit(1, "ioctl", &["a"]),
            unit(2, "close", &["a"]),
            unit(3, "write", &["a"]),
            unit(4, "read", &["a"]),
            unit(5, "write", &["a"]),
            unit(6, "read", &["b"]),
        ];
        let mut batch: Vec<&WorkUnit> = units.iter().collect();
        let before: BTreeSet<usize> = batch.iter().map(|u| u.id).collect();
        CoverageAdaptive::default().order_units(&mut batch, &TableOracle);
        let order: Vec<usize> = batch.iter().map(|u| u.id).collect();
        // Workload "a" first (lexicographic args), ascending by depth
        // (read=1, close=3, write×2=5, ioctl=unknown → last), then
        // workload "b" (read=1, write=5). Same-function units (3, 5) stay
        // adjacent, tie-broken by id.
        assert_eq!(order, vec![4, 2, 3, 5, 1, 6, 0]);
        let after: BTreeSet<usize> = batch.iter().map(|u| u.id).collect();
        assert_eq!(before, after, "ordering is a pure permutation");
    }

    #[test]
    fn fingerprint_folds_scheduling_parameters() {
        let a = CoverageAdaptive::default().fingerprint();
        let b = CoverageAdaptive {
            batch: 8,
            ..CoverageAdaptive::default()
        }
        .fingerprint();
        let c = CoverageAdaptive {
            pass_threshold: 9,
            ..CoverageAdaptive::default()
        }
        .fingerprint();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
