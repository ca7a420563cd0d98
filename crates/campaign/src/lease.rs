//! Fault-space partitioning: one campaign split into contiguous
//! fault-point ranges, run separately, and merged back together.
//!
//! A [`Lease`] is the one partition type. It names a half-open range
//! `start..end` of canonical fault-point indices; every run is confined to
//! one, and the default lease is the whole space `0..P`. Because canonical
//! unit ids are positions in the point × workload expansion (and
//! `unit_base` is ascending), a contiguous point range is also a
//! contiguous unit range, so a lease names the same work on every process.
//!
//! * The supervisor carves the space into small leases and hands them to
//!   workers (the `lfi_supervisor` crate).
//! * `--shard i/n` is sugar for the lease `[i·P/n, (i+1)·P/n)`
//!   ([`Lease::shard`], with [`parse_shard`] for the flag). Contiguous
//!   shards follow target order, so their costs can be uneven; the
//!   supervisor's work stealing balances load.
//!
//! Lease identity is the **range**, not the grant id: the checkpoint tag
//! is `fingerprint@plan-hash%start..end`, so a checkpoint is never resumed
//! by a different range, and a range reassigned under a fresh grant id
//! adopts the previous holder's checkpoint and skips its completed units.
//!
//! A finished lease persists a sealed [`CampaignState`];
//! [`LeaseOutcome::from_state`] recovers the mergeable outcome and
//! [`CampaignReport::merge_leases`] recombines a set of outcomes that tile
//! the whole space into a report record- and triage-identical to the
//! single-lease run (for schedules whose covered unit set does not depend
//! on observed history).

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use crate::engine::RunRecord;
use crate::state::CampaignState;
use crate::triage::{triage, CampaignReport, Triage};

/// One contiguous slice of the fault space.
///
/// `start..end` are canonical fault-point indices (half-open; `start ==
/// end` is an empty slice). The `id` distinguishes grants — a range
/// reassigned after a worker death gets a new id — but checkpoint identity
/// is keyed by the range alone, so the new grant resumes the old grant's
/// persisted progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Lease {
    /// Grant id, unique per supervisor run.
    pub id: u64,
    /// First fault-point index of the range.
    pub start: usize,
    /// One past the last fault-point index of the range.
    pub end: usize,
}

impl Lease {
    /// The whole space of `points` fault points, `0..points`.
    pub fn full(points: usize) -> Lease {
        Lease {
            id: 0,
            start: 0,
            end: points,
        }
    }

    /// Shard `index` of `count` over a space of `points` fault points: the
    /// contiguous range `[index·points/count, (index+1)·points/count)`.
    /// The `count` shards tile `0..points`; a shard is empty when
    /// `points < count` leaves it no point. The grant id is `index`.
    pub fn shard(index: usize, count: usize, points: usize) -> Result<Lease, LeaseError> {
        check_shard(index, count)?;
        Ok(Lease {
            id: index as u64,
            start: index * points / count,
            end: (index + 1) * points / count,
        })
    }

    /// Whether this lease owns the fault point at canonical index
    /// `point`.
    pub fn owns_point(&self, point: usize) -> bool {
        (self.start..self.end).contains(&point)
    }

    /// Number of fault points in the range.
    pub fn points(&self) -> usize {
        self.end.saturating_sub(self.start)
    }

    /// Check the `start <= end` invariant.
    pub fn validate(&self) -> Result<(), LeaseError> {
        if self.start > self.end {
            return Err(LeaseError(format!(
                "inverted lease range {}..{} (start must not exceed end)",
                self.start, self.end
            )));
        }
        Ok(())
    }
}

impl fmt::Display for Lease {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lease {} [{}..{})", self.id, self.start, self.end)
    }
}

/// Why a lease or shard spec failed to parse or validate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaseError(String);

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Error for LeaseError {}

/// Check the `count >= 1`, `index < count` invariants of a shard spec.
fn check_shard(index: usize, count: usize) -> Result<(), LeaseError> {
    if count == 0 {
        return Err(LeaseError("shard count must be at least 1".to_string()));
    }
    if index >= count {
        return Err(LeaseError(format!(
            "shard index {index} out of range for count {count} (expected 0..{count})"
        )));
    }
    Ok(())
}

/// Parse the `index/count` form of a `--shard` flag, e.g. `0/2`, into a
/// validated `(index, count)` pair for [`Lease::shard`].
pub fn parse_shard(spec: &str) -> Result<(usize, usize), LeaseError> {
    let invalid = || {
        LeaseError(format!(
            "invalid shard `{spec}` (expected `index/count`, e.g. `0/2`)"
        ))
    };
    let (index, count) = spec.split_once('/').ok_or_else(invalid)?;
    let index = index.trim().parse().map_err(|_| invalid())?;
    let count = count.trim().parse().map_err(|_| invalid())?;
    check_shard(index, count)?;
    Ok((index, count))
}

/// The `start..end` range form used by checkpoint tags and events.
pub(crate) fn format_range(start: usize, end: usize) -> String {
    format!("{start}..{end}")
}

/// Parse the [`format_range`] form; `None` unless both bounds parse and
/// `start <= end`.
pub(crate) fn parse_range(text: &str) -> Option<(usize, usize)> {
    let (start, end) = text.split_once("..")?;
    let (start, end) = (start.parse().ok()?, end.parse().ok()?);
    (start <= end).then_some((start, end))
}

/// The finished result of one lease: everything a merge step needs to
/// recombine the campaign.
#[derive(Debug, Clone)]
pub struct LeaseOutcome {
    /// First fault-point index of the range.
    pub start: usize,
    /// One past the last fault-point index of the range.
    pub end: usize,
    /// The full checkpoint tag the lease ran under
    /// (`fingerprint@plan-hash%start..end`).
    pub tag: String,
    /// The campaign seed the lease's unit seeds were derived from.
    pub seed: u64,
    /// The lease's own report: its records and its triage slice.
    pub report: CampaignReport,
}

impl LeaseOutcome {
    /// The plan identity shared by every lease of one campaign: the tag
    /// with the `%start..end` suffix stripped.
    pub fn plan_tag(&self) -> &str {
        self.tag
            .rsplit_once('%')
            .map_or(&*self.tag, |(base, _)| base)
    }

    /// Reconstruct a lease outcome from a persisted [`CampaignState`] —
    /// the cross-process handoff: each process checkpoints its lease to a
    /// file, and the merge step parses the files back into outcomes.
    ///
    /// Only what the state persists can be recovered: the records, the
    /// triage derived from them, and the tag/seed identity (including the
    /// strategy fingerprint, recovered from the tag). Scheduling counters
    /// that are not checkpointed (`batches`, `peak_workers`,
    /// `executed_now`, `space_size`, `planned_points`) are zero, and
    /// `units_total` is the record count.
    ///
    /// A state whose run did not finish its schedule — a mid-run
    /// checkpoint of an interrupted lease — is rejected: merging it would
    /// present an incomplete hunt as the full result. Re-run the lease to
    /// completion first.
    pub fn from_state(state: &CampaignState) -> Result<LeaseOutcome, LeaseMergeError> {
        let tag = state.tag().to_string();
        let Some((plan, suffix)) = tag.rsplit_once('%') else {
            return Err(LeaseMergeError::UntaggedState(tag));
        };
        let strategy = plan.split_once('@').map_or(plan, |(fp, _)| fp).to_string();
        let Some((start, end)) = parse_range(suffix) else {
            return Err(LeaseMergeError::BadLeaseTag(tag));
        };
        if !state.is_complete() {
            return Err(LeaseMergeError::IncompleteLeaseState { start, end });
        }
        let records = state.records().to_vec();
        Ok(LeaseOutcome {
            start,
            end,
            tag,
            seed: state.seed(),
            report: CampaignReport {
                strategy,
                space_size: 0,
                planned_points: 0,
                units_total: records.len(),
                batches: 0,
                peak_workers: 0,
                executed_now: 0,
                triage: triage(&records),
                records,
                metrics: None,
            },
        })
    }
}

/// Why a set of lease outcomes could not be merged into one report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseMergeError {
    /// No outcomes were supplied.
    Empty,
    /// A persisted state carries no `%start..end` lease suffix.
    UntaggedState(String),
    /// A persisted state's lease suffix failed to parse (or names an
    /// inverted range).
    BadLeaseTag(String),
    /// A persisted state is a mid-run checkpoint of an interrupted
    /// lease, not a finished one.
    IncompleteLeaseState {
        /// First fault-point index of the interrupted range.
        start: usize,
        /// One past the last fault-point index of the interrupted range.
        end: usize,
    },
    /// An outcome carries an inverted range (possible only for hand-built
    /// outcomes — parsed and engine-produced ones cannot).
    InvertedRange {
        /// The range's start.
        start: usize,
        /// The range's end, below its start.
        end: usize,
    },
    /// Two outcomes ran different plans (strategy fingerprint, space, or
    /// workload suites differ).
    MixedPlans(String, String),
    /// Two outcomes ran under different campaign seeds.
    MixedSeeds(u64, u64),
    /// Two ranges overlap: the second starts before the first ends.
    Overlap {
        /// End of the earlier range.
        end: usize,
        /// Start of the later, overlapping range.
        start: usize,
    },
    /// The sorted ranges leave fault points uncovered.
    Gap {
        /// First uncovered point.
        from: usize,
        /// One past the last uncovered point.
        to: usize,
    },
    /// Two outcomes both recorded the same canonical unit — the
    /// partition was violated.
    DuplicateUnit(usize),
}

impl fmt::Display for LeaseMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseMergeError::Empty => write!(f, "no lease outcomes to merge"),
            LeaseMergeError::UntaggedState(tag) => write!(
                f,
                "campaign state tag `{tag}` carries no lease suffix (`%start..end`)"
            ),
            LeaseMergeError::BadLeaseTag(tag) => {
                write!(f, "campaign state tag `{tag}` has a malformed lease suffix")
            }
            LeaseMergeError::IncompleteLeaseState { start, end } => write!(
                f,
                "lease {start}..{end}'s state is a mid-run checkpoint (its run was \
                 interrupted); re-run the lease to completion before merging"
            ),
            LeaseMergeError::InvertedRange { start, end } => {
                write!(f, "outcome carries inverted lease range {start}..{end}")
            }
            LeaseMergeError::MixedPlans(a, b) => write!(
                f,
                "leases ran different plans: `{a}` vs `{b}` (strategy, space, or suites differ)"
            ),
            LeaseMergeError::MixedSeeds(a, b) => {
                write!(f, "leases ran under different campaign seeds: {a} vs {b}")
            }
            LeaseMergeError::Overlap { end, start } => write!(
                f,
                "lease ranges overlap: one ends at {end} but another starts at {start}"
            ),
            LeaseMergeError::Gap { from, to } => {
                write!(f, "lease ranges leave fault points {from}..{to} uncovered")
            }
            LeaseMergeError::DuplicateUnit(unit) => write!(
                f,
                "unit {unit} was recorded by more than one lease (partition violated)"
            ),
        }
    }
}

impl Error for LeaseMergeError {}

impl CampaignReport {
    /// Recombine lease outcomes that tile a space of `total_points` fault
    /// points into one report.
    ///
    /// The outcomes must share one plan tag and campaign seed, and their
    /// sorted ranges must cover `0..total_points` exactly: no gaps, no
    /// overlaps (empty ranges are fine). The merged records are the
    /// leases' records united in canonical unit order, and the triage is
    /// recomputed over that union — for schedules whose covered unit set
    /// does not depend on observed history (exhaustive, guided, random,
    /// and adaptive without saturation pruning), both are
    /// **byte-identical** to the equivalent single-lease run's.
    ///
    /// `space_size` is `total_points`. The other scheduling counters are
    /// aggregated: planned points, planned units, executed units, and
    /// batches are summed; `peak_workers` is the maximum (leases run
    /// concurrently).
    pub fn merge_leases(
        outcomes: Vec<LeaseOutcome>,
        total_points: usize,
    ) -> Result<CampaignReport, LeaseMergeError> {
        let Some(first) = outcomes.first() else {
            return Err(LeaseMergeError::Empty);
        };
        let plan = first.plan_tag().to_string();
        let seed = first.seed;
        for outcome in &outcomes {
            if outcome.start > outcome.end {
                return Err(LeaseMergeError::InvertedRange {
                    start: outcome.start,
                    end: outcome.end,
                });
            }
            if outcome.plan_tag() != plan {
                return Err(LeaseMergeError::MixedPlans(
                    plan,
                    outcome.plan_tag().to_string(),
                ));
            }
            if outcome.seed != seed {
                return Err(LeaseMergeError::MixedSeeds(seed, outcome.seed));
            }
        }
        let mut ranges: Vec<(usize, usize)> = outcomes.iter().map(|o| (o.start, o.end)).collect();
        ranges.sort_unstable();
        let mut covered = 0usize;
        for (start, end) in ranges {
            match start.cmp(&covered) {
                std::cmp::Ordering::Less => {
                    return Err(LeaseMergeError::Overlap {
                        end: covered,
                        start,
                    })
                }
                std::cmp::Ordering::Greater => {
                    return Err(LeaseMergeError::Gap {
                        from: covered,
                        to: start,
                    })
                }
                std::cmp::Ordering::Equal => covered = end,
            }
        }
        if covered < total_points {
            return Err(LeaseMergeError::Gap {
                from: covered,
                to: total_points,
            });
        }

        let mut merged: BTreeMap<usize, RunRecord> = BTreeMap::new();
        let mut report = CampaignReport {
            strategy: first.report.strategy.clone(),
            space_size: total_points,
            planned_points: 0,
            units_total: 0,
            batches: 0,
            peak_workers: 0,
            executed_now: 0,
            triage: Triage::default(),
            records: Vec::new(),
            metrics: None,
        };
        for outcome in outcomes {
            report.planned_points += outcome.report.planned_points;
            report.units_total += outcome.report.units_total;
            report.batches += outcome.report.batches;
            report.peak_workers = report.peak_workers.max(outcome.report.peak_workers);
            report.executed_now += outcome.report.executed_now;
            if let Some(lease_metrics) = &outcome.report.metrics {
                report
                    .metrics
                    .get_or_insert_with(Default::default)
                    .merge(lease_metrics);
            }
            for record in outcome.report.records {
                let unit = record.unit;
                if merged.insert(unit, record).is_some() {
                    return Err(LeaseMergeError::DuplicateUnit(unit));
                }
            }
        }
        report.records = merged.into_values().collect();
        report.triage = triage(&report.records);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_ranges_are_half_open() {
        let lease = Lease {
            id: 3,
            start: 4,
            end: 7,
        };
        assert!(lease.validate().is_ok());
        assert_eq!(lease.points(), 3);
        assert!(!lease.owns_point(3));
        assert!(lease.owns_point(4) && lease.owns_point(6));
        assert!(!lease.owns_point(7));
        assert_eq!(lease.to_string(), "lease 3 [4..7)");
        // An empty range is a legal slice that owns nothing; an inverted
        // one is not.
        let empty = Lease {
            id: 0,
            start: 5,
            end: 5,
        };
        assert!(empty.validate().is_ok());
        assert_eq!(empty.points(), 0);
        assert!(!empty.owns_point(5));
        assert!(Lease {
            id: 0,
            start: 6,
            end: 5
        }
        .validate()
        .is_err());
    }

    #[test]
    fn shard_leases_tile_the_space() {
        for points in 0..40usize {
            for count in 1..=8usize {
                let shards: Vec<Lease> = (0..count)
                    .map(|index| Lease::shard(index, count, points).unwrap())
                    .collect();
                assert_eq!(shards[0].start, 0);
                assert_eq!(shards[count - 1].end, points);
                for pair in shards.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{points} points / {count}");
                }
                for point in 0..points {
                    let owners = shards.iter().filter(|s| s.owns_point(point)).count();
                    assert_eq!(owners, 1, "point {point} under count {count}");
                }
            }
        }
        assert_eq!(Lease::shard(0, 1, 9).unwrap(), Lease::full(9));
        // A 2-point space split three ways leaves one shard empty.
        let empty = Lease::shard(0, 3, 2).unwrap();
        assert_eq!((empty.start, empty.end), (0, 0));
    }

    #[test]
    fn shard_specs_parse_and_reject_the_old_error_cases() {
        assert_eq!(parse_shard("1/4"), Ok((1, 4)));
        assert_eq!(parse_shard(" 0 / 1 "), Ok((0, 1)));
        for bad in ["", "1", "a/b", "1/", "/2", "2/2", "0/0", "1/0"] {
            assert!(parse_shard(bad).is_err(), "`{bad}` must not parse");
        }
        // The error for an out-of-range index names the valid range, from
        // the parser and from `Lease::shard` alike.
        let err = parse_shard("3/2").unwrap_err().to_string();
        assert!(
            err.contains("out of range") && err.contains("0..2"),
            "{err}"
        );
        let err = Lease::shard(3, 2, 10).unwrap_err().to_string();
        assert!(err.contains("0..2"), "{err}");
        assert!(Lease::shard(0, 0, 10).is_err());
    }

    fn outcome(start: usize, end: usize) -> LeaseOutcome {
        LeaseOutcome {
            start,
            end,
            tag: format!("exhaustive@00000000deadbeef%{start}..{end}"),
            seed: 7,
            report: CampaignReport {
                strategy: "exhaustive".to_string(),
                space_size: 0,
                planned_points: end - start,
                units_total: 0,
                batches: 1,
                peak_workers: 1,
                executed_now: 0,
                triage: Triage::default(),
                records: Vec::new(),
                metrics: None,
            },
        }
    }

    #[test]
    fn plan_tag_strips_the_lease_suffix() {
        assert_eq!(outcome(1, 2).plan_tag(), "exhaustive@00000000deadbeef");
    }

    #[test]
    fn merge_requires_a_gapless_tiling() {
        assert_eq!(
            CampaignReport::merge_leases(Vec::new(), 4).unwrap_err(),
            LeaseMergeError::Empty
        );
        // 0..2, 2..5, 5..9 tiles 0..9 exactly.
        let report =
            CampaignReport::merge_leases(vec![outcome(2, 5), outcome(0, 2), outcome(5, 9)], 9)
                .unwrap();
        assert_eq!(report.planned_points, 9);
        assert_eq!(report.batches, 3);
        assert_eq!(report.space_size, 9);
        // Empty slices at the boundaries do not break the tiling.
        let report = CampaignReport::merge_leases(
            vec![outcome(0, 0), outcome(0, 1), outcome(1, 1), outcome(1, 2)],
            2,
        )
        .unwrap();
        assert_eq!(report.planned_points, 2);

        assert_eq!(
            CampaignReport::merge_leases(vec![outcome(0, 2), outcome(3, 9)], 9).unwrap_err(),
            LeaseMergeError::Gap { from: 2, to: 3 }
        );
        assert_eq!(
            CampaignReport::merge_leases(vec![outcome(0, 4), outcome(3, 9)], 9).unwrap_err(),
            LeaseMergeError::Overlap { end: 4, start: 3 }
        );
        assert_eq!(
            CampaignReport::merge_leases(vec![outcome(0, 9)], 12).unwrap_err(),
            LeaseMergeError::Gap { from: 9, to: 12 }
        );
        let mut inverted = outcome(0, 0);
        (inverted.start, inverted.end) = (9, 4);
        assert_eq!(
            CampaignReport::merge_leases(vec![outcome(0, 9), inverted], 9).unwrap_err(),
            LeaseMergeError::InvertedRange { start: 9, end: 4 }
        );
    }

    #[test]
    fn merge_rejects_mixed_plans_and_seeds() {
        let mut foreign = outcome(2, 4);
        foreign.tag = "guided@00000000deadbeef%2..4".to_string();
        assert!(matches!(
            CampaignReport::merge_leases(vec![outcome(0, 2), foreign], 4).unwrap_err(),
            LeaseMergeError::MixedPlans(..)
        ));
        let mut reseeded = outcome(2, 4);
        reseeded.seed = 8;
        assert_eq!(
            CampaignReport::merge_leases(vec![outcome(0, 2), reseeded], 4).unwrap_err(),
            LeaseMergeError::MixedSeeds(7, 8)
        );
    }

    #[test]
    fn mid_run_checkpoints_are_rejected_by_from_state() {
        let mut state = CampaignState::default();
        state.adopt("exhaustive@0000000000000000%0..2", 7);
        // No completion seal: this is what a per-batch checkpoint of an
        // interrupted run looks like after its JSON round-trip.
        let checkpoint = CampaignState::from_json(&state.to_json()).unwrap();
        assert!(!checkpoint.is_complete());
        assert_eq!(
            LeaseOutcome::from_state(&checkpoint).unwrap_err(),
            LeaseMergeError::IncompleteLeaseState { start: 0, end: 2 }
        );

        // The same lease is accepted once its run seals it.
        state.mark_complete();
        let sealed = CampaignState::from_json(&state.to_json()).unwrap();
        let outcome = LeaseOutcome::from_state(&sealed).unwrap();
        assert_eq!((outcome.start, outcome.end), (0, 2));
    }

    #[test]
    fn lease_states_round_trip_and_reject_interruptions() {
        let mut state = CampaignState::default();
        state.adopt("exhaustive@0000000000000000%3..6", 7);
        let interrupted = CampaignState::from_json(&state.to_json()).unwrap();
        assert_eq!(
            LeaseOutcome::from_state(&interrupted).unwrap_err(),
            LeaseMergeError::IncompleteLeaseState { start: 3, end: 6 }
        );

        // Checkpoints from before leases subsumed shards carry a `#i/n`
        // suffix: they are not lease states.
        let mut sharded = CampaignState::default();
        sharded.adopt("exhaustive@0000000000000000#0/2", 7);
        assert!(matches!(
            LeaseOutcome::from_state(&sharded).unwrap_err(),
            LeaseMergeError::UntaggedState(_)
        ));

        let mut bad = CampaignState::default();
        bad.adopt("exhaustive@0000000000000000%6..3", 7);
        assert!(matches!(
            LeaseOutcome::from_state(&bad).unwrap_err(),
            LeaseMergeError::BadLeaseTag(_)
        ));

        // An empty slice is a legal, mergeable lease.
        let mut empty = CampaignState::default();
        empty.adopt("exhaustive@0000000000000000%4..4", 7);
        empty.mark_complete();
        let outcome = LeaseOutcome::from_state(&empty).unwrap();
        assert_eq!((outcome.start, outcome.end), (4, 4));
        assert!(outcome.report.records.is_empty());
    }

    #[test]
    fn a_full_run_checkpoint_merges_on_its_own() {
        let mut state = CampaignState::default();
        state.adopt("guided@00000000deadbeef%0..3", 7);
        for unit in 0..3 {
            state.push(RunRecord {
                unit,
                target: "demo".into(),
                function: "read".into(),
                offset: unit as u64 * 4,
                args: vec![],
                outcome: crate::engine::OutcomeKind::Passed,
                injections: 1,
                injected_sites: vec![],
                crashes: vec![],
                virtual_time: 1,
            });
        }
        state.mark_complete();
        let state = CampaignState::from_json(&state.to_json()).unwrap();
        let outcome = LeaseOutcome::from_state(&state).unwrap();
        assert_eq!(outcome.report.strategy, "guided");
        let merged = CampaignReport::merge_leases(vec![outcome], 3).unwrap();
        assert_eq!(merged.records, state.records());
        assert_eq!(merged.space_size, 3);
    }
}
