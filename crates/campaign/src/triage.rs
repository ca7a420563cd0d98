//! Failure triage: deduplicate campaign failures into crash signatures.
//!
//! Hundreds of scenarios routinely collapse onto a handful of underlying
//! defects. Triage groups crashed runs by a stable signature — where the
//! crash happened and which library function's failure provoked it — so the
//! campaign report lists *bugs*, not runs.

use std::collections::BTreeMap;
use std::fmt;

use lfi_telemetry::MetricsSnapshot;

use crate::engine::{CrashInfo, OutcomeKind, RunRecord};

/// A deduplicated crash signature.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CrashSignature {
    /// Target program.
    pub target: String,
    /// Library function whose injected failure provoked the crash.
    pub function: String,
    /// Module containing the faulting instruction.
    pub module: String,
    /// Code offset of the faulting instruction.
    pub offset: u64,
    /// Innermost symbolized frame (or the containing function).
    pub frame: Option<String>,
}

/// All runs that collapsed onto one signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureBucket {
    /// The signature.
    pub signature: CrashSignature,
    /// Number of crashed runs with this signature.
    pub count: usize,
    /// Unit ids of those runs, in ascending order.
    pub units: Vec<usize>,
    /// A representative crash description.
    pub example: String,
}

/// Aggregate triage results of a campaign.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Triage {
    /// Deduplicated signatures, in signature order.
    pub buckets: Vec<SignatureBucket>,
    /// Runs that passed.
    pub passes: usize,
    /// Runs that failed cleanly.
    pub clean_failures: usize,
    /// Runs that crashed.
    pub crashes: usize,
    /// Runs that hung.
    pub hangs: usize,
}

impl Triage {
    /// Number of distinct crash signatures.
    pub fn distinct_crashes(&self) -> usize {
        self.buckets.len()
    }
}

/// The signature one crash of one record collapses onto — the single
/// definition shared by [`triage`] and the engine's `CrashFound` events.
fn signature_of(record: &RunRecord, crash: &CrashInfo) -> CrashSignature {
    CrashSignature {
        target: record.target.clone(),
        function: record.function.clone(),
        module: crash.module.clone(),
        offset: crash.offset,
        frame: crash
            .in_function
            .clone()
            .or_else(|| crash.backtrace.first().cloned()),
    }
}

/// The distinct crash signatures of one record (a cluster run may crash
/// several nodes onto the same signature; each appears once).
pub(crate) fn crash_signatures(record: &RunRecord) -> Vec<CrashSignature> {
    let mut signatures: Vec<CrashSignature> = record
        .crashes
        .iter()
        .map(|crash| signature_of(record, crash))
        .collect();
    signatures.sort();
    signatures.dedup();
    signatures
}

/// Triage a batch of run records.
pub fn triage(records: &[RunRecord]) -> Triage {
    let mut result = Triage::default();
    let mut buckets: BTreeMap<CrashSignature, SignatureBucket> = BTreeMap::new();
    for record in records {
        match &record.outcome {
            OutcomeKind::Passed => result.passes += 1,
            OutcomeKind::CleanFailure(_) => result.clean_failures += 1,
            OutcomeKind::Hung => result.hangs += 1,
            OutcomeKind::Crashed => result.crashes += 1,
        }
        for crash in &record.crashes {
            let signature = signature_of(record, crash);
            let bucket = buckets
                .entry(signature.clone())
                .or_insert_with(|| SignatureBucket {
                    signature,
                    count: 0,
                    units: Vec::new(),
                    example: crash.description.clone(),
                });
            bucket.count += 1;
            bucket.units.push(record.unit);
        }
    }
    result.buckets = buckets.into_values().collect();
    for bucket in &mut result.buckets {
        bucket.units.sort_unstable();
        bucket.units.dedup();
    }
    result
}

/// The final artifact of a campaign run.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Strategy that produced the schedule.
    pub strategy: String,
    /// Total fault points in the space.
    pub space_size: usize,
    /// Fault points the strategy dispatched across all batches.
    pub planned_points: usize,
    /// Work units covered by the dispatched points (points x workloads).
    pub units_total: usize,
    /// Non-empty batches the strategy emitted this session.
    pub batches: usize,
    /// Peak worker threads spawned by any batch (0 when every unit was
    /// already completed by a resumed state).
    pub peak_workers: usize,
    /// Units executed in this session (excludes resumed ones).
    pub executed_now: usize,
    /// Every run record, this session and resumed ones, by unit id.
    pub records: Vec<RunRecord>,
    /// Deduplicated failure triage over all records.
    pub triage: Triage,
    /// Final capture of the run's telemetry registry (`None` when the
    /// executor ran with collection disabled, and for outcomes
    /// reconstructed from persisted state, which does not checkpoint
    /// metrics). Merged reports fold lease snapshots together.
    pub metrics: Option<MetricsSnapshot>,
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign[{}]: {} of {} fault points planned in {}, {} units ({} run now)",
            self.strategy,
            self.planned_points,
            self.space_size,
            plural2(self.batches, "batch", "batches"),
            self.units_total,
            self.executed_now
        )?;
        writeln!(
            f,
            "outcomes: {} passed, {} clean failures, {} crashes, {} hangs",
            self.triage.passes, self.triage.clean_failures, self.triage.crashes, self.triage.hangs
        )?;
        writeln!(
            f,
            "{} distinct crash signatures:",
            self.triage.distinct_crashes()
        )?;
        for bucket in &self.triage.buckets {
            writeln!(
                f,
                "  {}: {} into {} -> {}+{:#x} [{}] x{} ({})",
                bucket.signature.target,
                bucket.signature.function,
                bucket.signature.frame.as_deref().unwrap_or("?"),
                bucket.signature.module,
                bucket.signature.offset,
                bucket.example,
                bucket.count,
                plural(bucket.units.len(), "unit"),
            )?;
        }
        Ok(())
    }
}

fn plural(n: usize, noun: &str) -> String {
    plural2(n, noun, &format!("{noun}s"))
}

fn plural2(n: usize, one: &str, many: &str) -> String {
    if n == 1 {
        format!("{n} {one}")
    } else {
        format!("{n} {many}")
    }
}

#[cfg(test)]
mod tests {
    use crate::engine::CrashInfo;
    use crate::lease::{LeaseMergeError, LeaseOutcome};

    use super::*;

    fn record(unit: usize, offset: u64, crash: Option<u64>) -> RunRecord {
        RunRecord {
            unit,
            target: "demo".into(),
            function: "read".into(),
            offset,
            args: vec![],
            outcome: if crash.is_some() {
                OutcomeKind::Crashed
            } else {
                OutcomeKind::Passed
            },
            injections: 1,
            injected_sites: vec![],
            crashes: crash
                .map(|off| {
                    vec![CrashInfo {
                        module: "demo".into(),
                        offset: off,
                        description: "segfault".into(),
                        in_function: Some("victim".into()),
                        backtrace: vec!["victim".into()],
                    }]
                })
                .unwrap_or_default(),
            virtual_time: 1,
        }
    }

    fn outcome(start: usize, end: usize, records: Vec<RunRecord>) -> LeaseOutcome {
        LeaseOutcome {
            start,
            end,
            tag: format!("exhaustive@0000000000000000%{start}..{end}"),
            seed: 7,
            report: CampaignReport {
                strategy: "exhaustive".to_string(),
                space_size: 2,
                planned_points: records.len(),
                units_total: records.len(),
                batches: 1,
                peak_workers: 1,
                executed_now: records.len(),
                triage: triage(&records),
                records,
                metrics: None,
            },
        }
    }

    #[test]
    fn merge_rejects_incomplete_duplicate_and_invalid_shard_sets() {
        let shard0 = || outcome(0, 1, vec![record(0, 4, None)]);
        let shard1 = || outcome(1, 2, vec![record(1, 8, None)]);

        let merged = CampaignReport::merge_leases(vec![shard1(), shard0()], 2).unwrap();
        assert_eq!(merged.records.len(), 2);
        assert_eq!(merged.records[0].unit, 0, "records in canonical order");
        assert_eq!(merged.strategy, "exhaustive");

        assert_eq!(
            CampaignReport::merge_leases(Vec::new(), 2).unwrap_err(),
            LeaseMergeError::Empty
        );
        // A missing shard leaves its range uncovered.
        assert_eq!(
            CampaignReport::merge_leases(vec![shard0()], 2).unwrap_err(),
            LeaseMergeError::Gap { from: 1, to: 2 }
        );
        assert_eq!(
            CampaignReport::merge_leases(vec![shard0(), shard0(), shard1()], 2).unwrap_err(),
            LeaseMergeError::Overlap { end: 1, start: 0 }
        );
        // An inverted range must not pass for coverage.
        assert!(matches!(
            CampaignReport::merge_leases(vec![shard0(), outcome(2, 1, vec![])], 2),
            Err(LeaseMergeError::InvertedRange { .. })
        ));
        // Two slices claiming the same unit violate the partition.
        assert_eq!(
            CampaignReport::merge_leases(
                vec![shard0(), outcome(1, 2, vec![record(0, 4, None)])],
                2
            )
            .unwrap_err(),
            LeaseMergeError::DuplicateUnit(0)
        );
    }

    #[test]
    fn identical_crashes_collapse_into_one_signature() {
        let records = vec![
            record(0, 4, Some(0x100)),
            record(1, 8, Some(0x100)),
            record(2, 12, None),
            record(3, 16, Some(0x200)),
        ];
        let triage = triage(&records);
        assert_eq!(triage.passes, 1);
        assert_eq!(triage.crashes, 3);
        // Units 0 and 1 share (function, module, offset, frame); unit 3
        // crashed elsewhere.
        assert_eq!(triage.distinct_crashes(), 2);
        let first = &triage.buckets[0];
        assert_eq!(first.count, 2);
        assert_eq!(first.units, vec![0, 1]);
    }
}
