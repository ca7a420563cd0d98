//! Fluent campaign construction and orchestration: [`CampaignBuilder`] →
//! [`CampaignDriver`].
//!
//! One chain names every orchestration choice:
//!
//! ```no_run
//! use lfi_campaign::{Campaign, CoverageAdaptive, ExecBackend, Lease, StandardExecutor};
//!
//! let executor = StandardExecutor::new(&["git-lite"]);
//! let profile = lfi_targets::standard_controller().profile_libraries();
//! let space = executor.fault_space(&["git-lite"], &profile);
//! // Shard 0 of 2: the first half of the fault points.
//! let half = Lease::shard(0, 2, space.len()).unwrap();
//!
//! let driver = Campaign::builder(space, &executor)
//!     .strategy(CoverageAdaptive::default())
//!     .backend(ExecBackend::Snapshot)
//!     .jobs(4)
//!     .seed(7)
//!     .lease(half)
//!     .build();
//! let outcome = driver.run_to_completion();
//! println!("{}", outcome.report);
//! ```
//!
//! The driver is the unit a multi-process (or multi-machine) supervisor
//! orchestrates: each process builds the same plan with its own
//! [`Lease`] range, streams progress through an
//! [`EventSink`](crate::events::EventSink), checkpoints after every batch,
//! and hands back a mergeable [`LeaseOutcome`] —
//! [`CampaignReport::merge_leases`](crate::CampaignReport::merge_leases)
//! recombines outcomes that tile the space into a report record- and
//! triage-identical to the single-lease run.

use std::path::PathBuf;

use crate::engine::{Campaign, CampaignConfig, ExecBackend, Executor};
use crate::events::EventSink;
use crate::lease::{Lease, LeaseOutcome};
use crate::space::FaultSpace;
use crate::state::CampaignState;
use crate::strategy::{Exhaustive, Strategy};
use crate::triage::CrashSignature;

/// Fluent configuration of a campaign run; built by
/// [`Campaign::builder`] and finished by [`CampaignBuilder::build`].
///
/// Defaults: [`Exhaustive`] strategy, [`ExecBackend::Fresh`], 1 job, seed
/// 7, the whole space as one lease, no event sink, no checkpoint path.
pub struct CampaignBuilder<'a> {
    space: FaultSpace,
    executor: &'a dyn Executor,
    config: CampaignConfig,
    strategy: Box<dyn Strategy + 'a>,
    lease: Lease,
    known_signatures: Vec<CrashSignature>,
    sink: Option<&'a dyn EventSink>,
    checkpoint: Option<PathBuf>,
}

impl<'a> CampaignBuilder<'a> {
    pub(crate) fn new(space: FaultSpace, executor: &'a dyn Executor) -> CampaignBuilder<'a> {
        CampaignBuilder {
            lease: Lease::full(space.len()),
            space,
            executor,
            config: CampaignConfig::default(),
            strategy: Box::new(Exhaustive),
            known_signatures: Vec::new(),
            sink: None,
            checkpoint: None,
        }
    }

    /// The search strategy driving the schedule (default: [`Exhaustive`]).
    pub fn strategy(self, strategy: impl Strategy + 'a) -> Self {
        self.boxed_strategy(Box::new(strategy))
    }

    /// Like [`CampaignBuilder::strategy`], for strategies already boxed
    /// (e.g. chosen from a command-line flag).
    pub fn boxed_strategy(mut self, strategy: Box<dyn Strategy + 'a>) -> Self {
        self.strategy = strategy;
        self
    }

    /// The execution backend (default: [`ExecBackend::Fresh`]). Under
    /// [`ExecBackend::Snapshot`] the engine also hands the executor each
    /// batch's `(target, workload, function)` keys before draining it
    /// ([`Executor::prefetch_batch`]) and lets the strategy reorder the
    /// batch for snapshot reuse ([`crate::strategy::Strategy::order_units`])
    /// — both pure performance hints; records are byte-identical across
    /// backends either way.
    pub fn backend(mut self, backend: ExecBackend) -> Self {
        self.config.backend = backend;
        self
    }

    /// Worker threads draining each batch (default: 1). Workers share
    /// per-session snapshot state: under the snapshot backend, concurrent
    /// deepening is claimed by one worker per session and siblings wait on
    /// (or fork past) the in-flight walk instead of duplicating it.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.config.jobs = jobs;
        self
    }

    /// The campaign base seed unit seeds are derived from (default: 7).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Byte cap on resident snapshot state under the snapshot backend
    /// (default: [`crate::engine::DEFAULT_SNAPSHOT_BUDGET`]). A pure
    /// performance knob: past the cap, sessions evict least-recently-used
    /// snapshots and re-derive them on demand; results never change.
    pub fn snapshot_budget(mut self, bytes: u64) -> Self {
        self.config.snapshot_budget = bytes;
        self
    }

    /// Minimum interval between [`CampaignEvent::Heartbeat`](crate::events::
    /// CampaignEvent::Heartbeat) events while units drain (default:
    /// [`crate::engine::DEFAULT_HEARTBEAT_INTERVAL`]); `None` disables
    /// heartbeats entirely. Heartbeats only flow when an event sink is
    /// registered.
    pub fn heartbeat(mut self, interval: Option<std::time::Duration>) -> Self {
        self.config.heartbeat_interval = interval;
        self
    }

    /// Run only one contiguous fault-point range (default:
    /// [`Lease::full`], the whole space). Sibling processes run the other
    /// ranges — a supervisor's small leases, or the `--shard i/n` slices
    /// of [`Lease::shard`] — and their outcomes merge with
    /// [`crate::CampaignReport::merge_leases`]. The checkpoint tag is
    /// `fingerprint@plan-hash%start..end`, keyed by the *range*, so a
    /// lease reassigned to another worker resumes the previous worker's
    /// checkpoint.
    pub fn lease(mut self, lease: Lease) -> Self {
        self.lease = lease;
        self
    }

    /// Seed the run with crash signatures first observed elsewhere in a
    /// supervised campaign (default: none). Adaptive strategies escalate
    /// the signatures' caller neighborhoods exactly as if the crash had
    /// been observed locally, and the signatures are not re-announced as
    /// [`CampaignEvent::CrashFound`](crate::events::CampaignEvent::
    /// CrashFound) events. Results never change for schedules whose
    /// covered unit set does not depend on observed history.
    pub fn known_signatures(
        mut self,
        signatures: impl IntoIterator<Item = CrashSignature>,
    ) -> Self {
        self.known_signatures.extend(signatures);
        self
    }

    /// Stream [`CampaignEvent`](crate::events::CampaignEvent)s into `sink`
    /// while the campaign runs (default: no events).
    pub fn events(mut self, sink: &'a dyn EventSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Persist the campaign state to `path` after every batch, and let
    /// [`CampaignDriver::run_to_completion`] resume from the file when it
    /// already exists (default: no checkpointing). An interrupted run thus
    /// loses at most one batch.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Finish the chain: fix the canonical unit layout and return the
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics when the lease range is inverted (`start > end`) — ranges
    /// from user input should be built with [`Lease::shard`] or checked
    /// with [`Lease::validate`] first.
    pub fn build(self) -> CampaignDriver<'a> {
        if let Err(err) = self.lease.validate() {
            panic!("invalid campaign lease: {err}");
        }
        CampaignDriver {
            campaign: Campaign::new(self.space, self.executor, self.config),
            strategy: self.strategy,
            lease: self.lease,
            known_signatures: self.known_signatures,
            sink: self.sink,
            checkpoint: self.checkpoint,
        }
    }
}

/// A fully configured campaign, ready to run (repeatedly, for resumes).
///
/// Built by [`CampaignBuilder::build`]; see the module docs for the
/// orchestration model.
pub struct CampaignDriver<'a> {
    campaign: Campaign<'a>,
    strategy: Box<dyn Strategy + 'a>,
    lease: Lease,
    known_signatures: Vec<CrashSignature>,
    sink: Option<&'a dyn EventSink>,
    checkpoint: Option<PathBuf>,
}

impl<'a> CampaignDriver<'a> {
    /// The underlying campaign (space, canonical unit layout, prepared
    /// sessions).
    pub fn campaign(&self) -> &Campaign<'a> {
        &self.campaign
    }

    /// The fault-point range this driver is confined to.
    pub fn lease(&self) -> Lease {
        self.lease
    }

    /// The state this run would start from: the parsed checkpoint file
    /// when a checkpoint path is configured and the file exists, an empty
    /// state otherwise.
    ///
    /// # Panics
    ///
    /// Panics when an existing checkpoint file cannot be read or parsed —
    /// a corrupt checkpoint should be surfaced, not silently discarded.
    pub fn load_state(&self) -> CampaignState {
        let Some(path) = self.checkpoint.as_deref().filter(|p| p.exists()) else {
            return CampaignState::default();
        };
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|err| panic!("read campaign checkpoint {}: {err}", path.display()));
        CampaignState::from_json(&text).unwrap_or_else(|err| {
            panic!(
                "parse campaign checkpoint {}: {} (at byte {})",
                path.display(),
                err.message,
                err.position
            )
        })
    }

    /// Run this lease to completion and return its mergeable outcome.
    ///
    /// With a checkpoint path configured this is a *resumable* entry
    /// point: the state is loaded from the file when it exists (completed
    /// units are skipped; a mismatched tag starts fresh), and persisted
    /// back after every batch. Without one it always starts fresh.
    pub fn run_to_completion(&self) -> LeaseOutcome {
        let mut state = self.load_state();
        self.run_with_state(&mut state)
    }

    /// Run this lease against caller-owned state (updated in place) —
    /// the resumable entry point for callers that manage persistence
    /// themselves. Events stream into the registered sink; the checkpoint
    /// path, when configured, is still written after every batch.
    pub fn run_with_state(&self, state: &mut CampaignState) -> LeaseOutcome {
        self.campaign.run_driven(
            self.strategy.as_ref(),
            state,
            self.lease,
            &self.known_signatures,
            self.sink,
            self.checkpoint.as_deref(),
        )
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};

    use crate::engine::{Execution, OutcomeKind, WorkUnit};
    use crate::events::{CampaignEvent, EventLog};
    use crate::space::FaultPoint;
    use crate::triage::CampaignReport;

    use super::*;

    /// Crashes on every offset that is a multiple of 8; two workloads per
    /// target.
    struct FakeExecutor {
        executions: AtomicUsize,
    }

    impl FakeExecutor {
        fn new() -> FakeExecutor {
            FakeExecutor {
                executions: AtomicUsize::new(0),
            }
        }
    }

    impl Executor for FakeExecutor {
        fn workloads(&self, _target: &str) -> Vec<Vec<String>> {
            vec![vec!["a".into()], vec!["b".into()]]
        }

        fn execute(&self, unit: &WorkUnit) -> Execution {
            self.executions.fetch_add(1, Ordering::Relaxed);
            let crashes = if unit.point.offset.is_multiple_of(8) {
                vec![crate::engine::CrashInfo {
                    module: unit.point.target.clone(),
                    offset: unit.point.offset + 100,
                    description: "segfault".into(),
                    in_function: Some("victim".into()),
                    backtrace: vec!["victim".into(), "main".into()],
                }]
            } else {
                Vec::new()
            };
            Execution {
                outcome: if crashes.is_empty() {
                    OutcomeKind::Passed
                } else {
                    OutcomeKind::Crashed
                },
                injections: 1,
                injected_sites: vec![],
                crashes,
                virtual_time: 10,
            }
        }
    }

    fn demo_space(points: usize) -> FaultSpace {
        FaultSpace {
            points: (0..points)
                .map(|i| FaultPoint {
                    target: "demo".into(),
                    function: "read".into(),
                    offset: (i as u64) * 4,
                    caller: Some("main".into()),
                    retval: -1,
                    ..FaultPoint::default()
                })
                .collect(),
        }
    }

    #[test]
    fn builder_defaults_match_the_legacy_config() {
        let executor = FakeExecutor::new();
        let driver = Campaign::builder(demo_space(3), &executor).build();
        assert_eq!(driver.lease(), Lease::full(3));
        assert_eq!(
            driver.campaign().lease_units(driver.lease()),
            driver.campaign().total_units()
        );
        let outcome = driver.run_to_completion();
        assert_eq!(outcome.report.strategy, "exhaustive");
        assert_eq!(outcome.report.executed_now, 6, "3 points x 2 workloads");
        assert_eq!(outcome.seed, CampaignConfig::default().seed);
        assert!(outcome.tag.ends_with("%0..3"), "tag: {}", outcome.tag);
    }

    #[test]
    fn shards_partition_the_run_and_merge_back_to_the_unsharded_report() {
        let executor = FakeExecutor::new();
        let unsharded = Campaign::builder(demo_space(7), &executor)
            .jobs(2)
            .build()
            .run_to_completion();

        let count = 3;
        let mut outcomes = Vec::new();
        let mut units_across_shards = 0;
        for index in 0..count {
            let executor = FakeExecutor::new();
            let shard = Lease::shard(index, count, 7).unwrap();
            let driver = Campaign::builder(demo_space(7), &executor)
                .jobs(2)
                .lease(shard)
                .build();
            let units = driver.campaign().lease_units(shard);
            units_across_shards += units;
            let outcome = driver.run_to_completion();
            assert_eq!(
                outcome.report.executed_now, units,
                "shard {index} runs exactly its own units"
            );
            assert!(outcome
                .tag
                .ends_with(&format!("%{}..{}", shard.start, shard.end)));
            outcomes.push(outcome);
        }
        assert_eq!(units_across_shards, unsharded.report.units_total);

        let merged = CampaignReport::merge_leases(outcomes, 7).unwrap();
        assert_eq!(merged.records, unsharded.report.records);
        assert_eq!(merged.triage, unsharded.report.triage);
        assert_eq!(merged.units_total, unsharded.report.units_total);
        assert_eq!(merged.planned_points, unsharded.report.planned_points);
    }

    #[test]
    fn a_shard_checkpoint_cannot_be_resumed_by_another_shard() {
        let executor = FakeExecutor::new();
        let shard0 = Campaign::builder(demo_space(6), &executor)
            .lease(Lease::shard(0, 2, 6).unwrap())
            .build();
        let mut state = CampaignState::default();
        let first = shard0.run_with_state(&mut state);
        assert_eq!(first.report.executed_now, 6, "3 owned points x 2 workloads");

        // The sibling shard must not adopt shard 0's records...
        let executor1 = FakeExecutor::new();
        let shard1 = Campaign::builder(demo_space(6), &executor1)
            .lease(Lease::shard(1, 2, 6).unwrap())
            .build();
        let hijack = shard1.run_with_state(&mut state);
        assert_eq!(
            hijack.report.executed_now, 6,
            "wrong-shard resume starts fresh"
        );
        assert_eq!(hijack.report.records.len(), 6, "only shard 1's records");

        // ...and neither must the unsharded run.
        let executor_full = FakeExecutor::new();
        let full = Campaign::builder(demo_space(6), &executor_full).build();
        let report = full.run_with_state(&mut state).report;
        assert_eq!(report.executed_now, 12, "unsharded resume starts fresh");
    }

    #[test]
    fn events_stream_in_order_with_deduplicated_crashes() {
        let executor = FakeExecutor::new();
        let log = EventLog::new();
        // Offsets 0,4,..,20: points at 0, 8, 16 crash, each onto its own
        // signature; both workloads of a point share the signature.
        let outcome = Campaign::builder(demo_space(6), &executor)
            .jobs(2)
            .events(&log)
            .build()
            .run_to_completion();
        assert_eq!(outcome.report.triage.distinct_crashes(), 3);

        let events = log.events();
        assert!(
            matches!(
                events.first(),
                Some(CampaignEvent::BatchPlanned {
                    units: 12,
                    pending: 12,
                    ..
                })
            ),
            "first event plans the batch: {:?}",
            events.first()
        );
        assert!(
            matches!(
                events.last(),
                Some(CampaignEvent::ShardFinished {
                    executed: 12,
                    records: 12,
                    ..
                })
            ),
            "last event closes the shard: {:?}",
            events.last()
        );
        let count = |pred: fn(&CampaignEvent) -> bool| events.iter().filter(|e| pred(e)).count();
        assert_eq!(
            count(|e| matches!(e, CampaignEvent::UnitStarted { .. })),
            12
        );
        assert_eq!(
            count(|e| matches!(e, CampaignEvent::UnitFinished { .. })),
            12
        );
        assert_eq!(
            count(|e| matches!(e, CampaignEvent::CrashFound(_))),
            3,
            "one event per distinct signature, not one per crashing unit (6 units crashed)"
        );
        // Every unit's start precedes its finish.
        for record in &outcome.report.records {
            let started = events.iter().position(
                |e| matches!(e, CampaignEvent::UnitStarted { unit, .. } if *unit == record.unit),
            );
            let finished = events.iter().position(
                |e| matches!(e, CampaignEvent::UnitFinished { record: r, .. } if r.unit == record.unit),
            );
            assert!(started.unwrap() < finished.unwrap());
        }
    }

    #[test]
    fn checkpointing_persists_per_batch_and_resumes_without_re_execution() {
        let dir =
            std::env::temp_dir().join(format!("lfi_builder_checkpoint_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let _ = std::fs::remove_file(&path);

        let executor = FakeExecutor::new();
        let log = EventLog::new();
        let driver = Campaign::builder(demo_space(4), &executor)
            .checkpoint(&path)
            .events(&log)
            .build();
        let first = driver.run_to_completion();
        assert_eq!(first.report.executed_now, 8);
        assert!(path.exists(), "checkpoint written");
        assert_eq!(
            log.count(|e| matches!(e, CampaignEvent::CheckpointWritten { .. })),
            2,
            "exhaustive is one batch: one per-batch write plus the final completion seal"
        );
        assert!(
            driver.load_state().is_complete(),
            "the persisted state is sealed complete"
        );

        // A second run loads the file and re-executes nothing; resumed
        // crash signatures are not re-announced.
        let resumed = driver.run_to_completion();
        assert_eq!(resumed.report.executed_now, 0);
        assert_eq!(resumed.report.records, first.report.records);
        assert_eq!(executor.executions.load(Ordering::Relaxed), 8);
        assert_eq!(
            log.count(|e| matches!(e, CampaignEvent::CrashFound(_))),
            first.report.triage.distinct_crashes(),
            "resume announces no already-known signatures"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leases_partition_the_run_and_merge_back_to_the_unsharded_report() {
        let executor = FakeExecutor::new();
        let unsharded = Campaign::builder(demo_space(7), &executor)
            .jobs(2)
            .build()
            .run_to_completion();

        // Three uneven leases tiling the 7 points: separate executors,
        // like separate worker processes sharing nothing.
        let ranges = [(0usize, 3usize), (3, 5), (5, 7)];
        let mut outcomes = Vec::new();
        for (id, (start, end)) in ranges.into_iter().enumerate() {
            let executor = FakeExecutor::new();
            let driver = Campaign::builder(demo_space(7), &executor)
                .jobs(2)
                .lease(Lease {
                    id: id as u64,
                    start,
                    end,
                })
                .build();
            let mut state = CampaignState::default();
            let live = driver.run_with_state(&mut state);
            assert!(
                live.tag.ends_with(&format!("%{start}..{end}")),
                "lease tag keyed by range: {}",
                live.tag
            );
            assert_eq!(
                live.report.executed_now,
                (end - start) * 2,
                "lease {start}..{end} runs exactly its own units"
            );
            // The cross-process handoff: state → JSON → LeaseOutcome.
            let parsed = CampaignState::from_json(&state.to_json()).unwrap();
            outcomes.push(LeaseOutcome::from_state(&parsed).unwrap());
        }
        let merged = CampaignReport::merge_leases(outcomes, 7).unwrap();
        assert_eq!(merged.records, unsharded.report.records);
        assert_eq!(merged.triage, unsharded.report.triage);
        // Parsed outcomes carry no space size; the merge restores it.
        assert_eq!(merged.space_size, unsharded.report.space_size);
    }

    #[test]
    fn a_reassigned_lease_resumes_the_dead_workers_checkpoint() {
        let lease_range = Lease {
            id: 1,
            start: 2,
            end: 5,
        };
        let executor = FakeExecutor::new();
        let mut state = CampaignState::default();
        let first = Campaign::builder(demo_space(7), &executor)
            .lease(lease_range)
            .build()
            .run_with_state(&mut state);
        assert_eq!(
            first.report.executed_now, 6,
            "3 leased points x 2 workloads"
        );

        // The supervisor reassigns the range under a fresh grant id (a
        // different worker process: fresh executor). Checkpoint identity
        // is the range, so nothing re-executes.
        let replacement = FakeExecutor::new();
        let reassigned = Campaign::builder(demo_space(7), &replacement)
            .lease(Lease {
                id: 42,
                ..lease_range
            })
            .build()
            .run_with_state(&mut state);
        assert_eq!(
            reassigned.report.executed_now, 0,
            "reassigned lease adopts the previous worker's records"
        );
        assert_eq!(reassigned.report.records, first.report.records);
        assert_eq!(replacement.executions.load(Ordering::Relaxed), 0);

        // A *different* range must not adopt them.
        let other = FakeExecutor::new();
        let disjoint = Campaign::builder(demo_space(7), &other)
            .lease(Lease {
                id: 43,
                start: 5,
                end: 7,
            })
            .build()
            .run_with_state(&mut state);
        assert_eq!(disjoint.report.executed_now, 4, "new range starts fresh");
    }

    #[test]
    fn broadcast_signatures_steer_without_changing_records_or_re_announcing() {
        // Baseline: no hints.
        let executor = FakeExecutor::new();
        let baseline = Campaign::builder(demo_space(6), &executor)
            .build()
            .run_to_completion();

        // Seed one of the signatures the run itself will find (offset 0
        // crashes at 100) plus a foreign one it never will.
        let known = vec![
            crate::triage::CrashSignature {
                target: "demo".into(),
                function: "read".into(),
                module: "demo".into(),
                offset: 100,
                frame: Some("victim".into()),
            },
            crate::triage::CrashSignature {
                target: "other".into(),
                function: "write".into(),
                module: "other".into(),
                offset: 999,
                frame: None,
            },
        ];
        let seeded_executor = FakeExecutor::new();
        let log = EventLog::new();
        let seeded = Campaign::builder(demo_space(6), &seeded_executor)
            .known_signatures(known)
            .events(&log)
            .build()
            .run_to_completion();
        assert_eq!(
            seeded.report.records, baseline.report.records,
            "hints must never change results"
        );
        assert_eq!(
            log.count(|e| matches!(e, CampaignEvent::CrashFound(_))),
            baseline.report.triage.distinct_crashes() - 1,
            "the pre-seeded signature is not re-announced"
        );
    }

    #[test]
    #[should_panic(expected = "invalid campaign lease")]
    fn building_with_an_inverted_lease_panics() {
        let executor = FakeExecutor::new();
        let _ = Campaign::builder(demo_space(3), &executor)
            .lease(Lease {
                id: 0,
                start: 2,
                end: 1,
            })
            .build();
    }

    #[test]
    fn outcomes_round_trip_through_persisted_state() {
        let executor = FakeExecutor::new();
        let count = 2;
        let mut outcomes = Vec::new();
        for index in 0..count {
            let driver = Campaign::builder(demo_space(5), &executor)
                .lease(Lease::shard(index, count, 5).unwrap())
                .build();
            let mut state = CampaignState::default();
            let live = driver.run_with_state(&mut state);
            // The cross-process handoff: state → JSON → LeaseOutcome.
            let parsed = CampaignState::from_json(&state.to_json()).unwrap();
            let outcome = LeaseOutcome::from_state(&parsed).unwrap();
            assert_eq!((outcome.start, outcome.end), (live.start, live.end));
            assert_eq!(outcome.tag, live.tag);
            assert_eq!(outcome.seed, live.seed);
            assert_eq!(
                outcome.report.strategy, "exhaustive",
                "strategy fingerprint recovered from the tag"
            );
            assert_eq!(outcome.report.records, live.report.records);
            assert_eq!(outcome.report.triage, live.report.triage);
            outcomes.push(outcome);
        }
        let executor_full = FakeExecutor::new();
        let unsharded = Campaign::builder(demo_space(5), &executor_full)
            .build()
            .run_to_completion();
        let merged = CampaignReport::merge_leases(outcomes, 5).unwrap();
        assert_eq!(merged.records, unsharded.report.records);
        assert_eq!(merged.triage, unsharded.report.triage);
    }
}
