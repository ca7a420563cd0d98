//! Property tests for shard determinism: for **any** shard count, the
//! `Lease::shard` ranges tile the fault space, and the per-shard unit-id
//! sets partition the unsharded unit set exactly — their union is the full
//! set and no unit appears in two shards, empty shards included. This is
//! the invariant `CampaignReport::merge_leases` builds on, so it must hold
//! for every space shape (uneven workload suites, multiple targets) and
//! survive the strategy's scheduling.

use std::collections::BTreeSet;

use lfi_campaign::{
    Campaign, CampaignReport, Execution, Executor, FaultPoint, FaultSpace, Lease, LeaseOutcome,
    OutcomeKind, RandomSample, WorkUnit,
};
use proptest::prelude::*;

/// A synthetic executor whose workload-suite size differs per target, so
/// canonical unit ids are not a multiple of the point index and the
/// contiguous point partition maps onto *uneven* unit slices.
struct UnevenExecutor;

impl Executor for UnevenExecutor {
    fn workloads(&self, target: &str) -> Vec<Vec<String>> {
        let suite = match target {
            "alpha" => 1,
            "beta" => 3,
            _ => 2,
        };
        (0..suite).map(|w| vec![format!("w{w}")]).collect()
    }

    fn execute(&self, unit: &WorkUnit) -> Execution {
        Execution {
            outcome: if unit.point.offset.is_multiple_of(12) {
                OutcomeKind::Crashed
            } else {
                OutcomeKind::Passed
            },
            injections: 1,
            injected_sites: vec![],
            crashes: if unit.point.offset.is_multiple_of(12) {
                vec![lfi_campaign::CrashInfo {
                    module: unit.point.target.clone(),
                    offset: unit.point.offset + 1,
                    description: "segfault".into(),
                    in_function: None,
                    backtrace: vec!["main".into()],
                }]
            } else {
                vec![]
            },
            virtual_time: 1,
        }
    }
}

/// A space of `points` fault points cycling over three targets with
/// different suite sizes.
fn uneven_space(points: usize) -> FaultSpace {
    let targets = ["alpha", "beta", "gamma"];
    FaultSpace {
        points: (0..points)
            .map(|i| FaultPoint {
                target: targets[i % targets.len()].to_string(),
                function: "read".into(),
                offset: (i as u64) * 4,
                caller: Some("main".into()),
                retval: -1,
                ..FaultPoint::default()
            })
            .collect(),
    }
}

fn executed_units(report: &CampaignReport) -> BTreeSet<usize> {
    report.records.iter().map(|r| r.unit).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any shard count 1..=8 and any space size (fewer points than
    /// shards leaves some shards empty), the shard ranges tile the space,
    /// the shards' executed unit-id sets are pairwise disjoint and their
    /// union equals the unsharded set — and the merged outcomes reproduce
    /// the unsharded records byte for byte.
    #[test]
    fn shards_partition_the_unsharded_unit_set(points in 1usize..40, count in 1usize..9) {
        let executor = UnevenExecutor;
        let unsharded = Campaign::builder(uneven_space(points), &executor)
            .build()
            .run_to_completion();
        let full_set = executed_units(&unsharded.report);

        let mut union: BTreeSet<usize> = BTreeSet::new();
        let mut outcomes: Vec<LeaseOutcome> = Vec::new();
        let mut covered = 0;
        for index in 0..count {
            let shard = Lease::shard(index, count, points).unwrap();
            prop_assert_eq!(shard.start, covered, "shard {}/{} leaves a gap", index, count);
            covered = shard.end;
            let outcome = Campaign::builder(uneven_space(points), &executor)
                .lease(shard)
                .build()
                .run_to_completion();
            let slice = executed_units(&outcome.report);
            prop_assert!(
                union.is_disjoint(&slice),
                "shard {index}/{count} overlaps earlier shards"
            );
            union.extend(&slice);
            outcomes.push(outcome);
        }
        prop_assert_eq!(covered, points, "the shards tile 0..points");
        prop_assert_eq!(&union, &full_set, "union of shard slices == unsharded set");

        let merged = CampaignReport::merge_leases(outcomes, points).unwrap();
        prop_assert_eq!(&merged.records, &unsharded.report.records);
        prop_assert_eq!(&merged.triage, &unsharded.report.triage);
    }

    /// The partition also holds when the strategy only covers part of the
    /// space: a seed-deterministic random sample explores the same point
    /// set sharded or not, so shard slices of the sample still partition
    /// the sampled units.
    #[test]
    fn sampled_schedules_shard_to_the_same_covered_set(points in 4usize..32, count in 2usize..5) {
        let executor = UnevenExecutor;
        let sample = RandomSample { count: points / 2, seed: 11 };
        let unsharded = Campaign::builder(uneven_space(points), &executor)
            .strategy(sample)
            .build()
            .run_to_completion();

        let mut union: BTreeSet<usize> = BTreeSet::new();
        let mut total = 0usize;
        for index in 0..count {
            let outcome = Campaign::builder(uneven_space(points), &executor)
                .strategy(sample)
                .lease(Lease::shard(index, count, points).unwrap())
                .build()
                .run_to_completion();
            total += outcome.report.records.len();
            union.extend(executed_units(&outcome.report));
        }
        prop_assert_eq!(total, union.len(), "no unit ran on two shards");
        prop_assert_eq!(&union, &executed_units(&unsharded.report));
    }
}
