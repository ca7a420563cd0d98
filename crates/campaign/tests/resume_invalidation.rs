//! Regression tests for checkpoint identity: a persisted campaign state
//! must only ever be resumed against the *exact* plan that produced it.
//!
//! Historically the state tag hashed only `(target, function, offset)`, so
//! a checkpoint could silently survive re-annotation, a changed fault
//! profile, or an edited workload suite — and attribute old records to the
//! wrong units. Each test here checkpoints a campaign, perturbs one
//! identity ingredient, resumes, and asserts the engine starts fresh.

use std::sync::atomic::{AtomicUsize, Ordering};

use lfi_analyzer::CallSiteClass;
use lfi_campaign::{
    Campaign, CampaignState, Execution, Executor, FaultPoint, FaultSpace, OutcomeKind,
    RandomSample, WorkUnit,
};

/// A synthetic executor with a configurable workload suite and an
/// execution counter.
struct CountingExecutor {
    suite: Vec<Vec<String>>,
    executions: AtomicUsize,
}

impl CountingExecutor {
    fn with_suite(suite: Vec<Vec<String>>) -> CountingExecutor {
        CountingExecutor {
            suite,
            executions: AtomicUsize::new(0),
        }
    }

    fn new() -> CountingExecutor {
        CountingExecutor::with_suite(vec![vec!["a".into()], vec!["b".into()]])
    }

    fn count(&self) -> usize {
        self.executions.load(Ordering::Relaxed)
    }
}

impl Executor for CountingExecutor {
    fn workloads(&self, _target: &str) -> Vec<Vec<String>> {
        self.suite.clone()
    }

    fn execute(&self, _unit: &WorkUnit) -> Execution {
        self.executions.fetch_add(1, Ordering::Relaxed);
        Execution {
            outcome: OutcomeKind::Passed,
            injections: 1,
            injected_sites: vec![],
            crashes: vec![],
            virtual_time: 1,
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

/// Run a campaign over `space`, checkpoint it through JSON, and hand back
/// the parsed state (as a resumed session would hold it).
fn checkpoint(space: FaultSpace, executor: &CountingExecutor) -> CampaignState {
    let campaign = Campaign::builder(space, executor).build();
    let mut state = CampaignState::default();
    let report = campaign.run_with_state(&mut state).report;
    assert_eq!(report.executed_now, report.units_total, "first run is full");
    CampaignState::from_json(&state.to_json()).unwrap()
}

#[test]
fn reannotating_the_space_invalidates_the_checkpoint() {
    let executor = CountingExecutor::new();
    let mut state = checkpoint(demo_space(3), &executor);
    assert_eq!(executor.count(), 6);

    // The analyzer re-ran and now classifies a call site: guided schedules
    // depend on that annotation, so the old records must not be reused.
    let mut reannotated = demo_space(3);
    reannotated.points[1].class = Some(CallSiteClass::Unchecked);
    let report = Campaign::builder(reannotated, &executor)
        .build()
        .run_with_state(&mut state)
        .report;
    assert_eq!(report.executed_now, 6, "annotation change starts fresh");
    assert_eq!(executor.count(), 12);

    // Same for baseline reachability.
    let mut rebaselined = demo_space(3);
    rebaselined.points[0].reached = Some(true);
    let report = Campaign::builder(rebaselined, &executor)
        .build()
        .run_with_state(&mut state)
        .report;
    assert_eq!(report.executed_now, 6, "reachability change starts fresh");
}

#[test]
fn changed_error_cases_invalidate_the_checkpoint() {
    let executor = CountingExecutor::new();
    let mut state = checkpoint(demo_space(3), &executor);

    // The fault profile now reports a different representative error case
    // for the same call site: same unit ids, different injected scenario.
    let mut reprofiled = demo_space(3);
    reprofiled.points[2].retval = 0;
    reprofiled.points[2].errno = Some(12);
    let report = Campaign::builder(reprofiled, &executor)
        .build()
        .run_with_state(&mut state)
        .report;
    assert_eq!(report.executed_now, 6, "error-case change starts fresh");
}

#[test]
fn growing_the_workload_suite_invalidates_the_checkpoint() {
    let executor = CountingExecutor::new();
    let mut state = checkpoint(demo_space(3), &executor);
    assert_eq!(executor.count(), 6, "3 points x 2 workloads");

    // The target's default test suite grew: unit ids shift under every
    // point after the first, so the checkpoint must be discarded and the
    // resumed run must cover the full new plan.
    let grown =
        CountingExecutor::with_suite(vec![vec!["a".into()], vec!["b".into()], vec!["c".into()]]);
    let report = Campaign::builder(demo_space(3), &grown)
        .build()
        .run_with_state(&mut state)
        .report;
    assert_eq!(report.units_total, 9, "3 points x 3 workloads");
    assert_eq!(
        report.executed_now, report.units_total,
        "resume after a suite change covers the full new plan"
    );
    assert_eq!(grown.count(), 9);
}

#[test]
fn seed_and_fingerprint_changes_invalidate_the_checkpoint() {
    let executor = CountingExecutor::new();
    let mut state = checkpoint(demo_space(3), &executor);

    // A different campaign seed derives different unit seeds: records from
    // the old seed are not comparable, so the state resets.
    let report = Campaign::builder(demo_space(3), &executor)
        .seed(8)
        .build()
        .run_with_state(&mut state)
        .report;
    assert_eq!(report.executed_now, 6, "seed change starts fresh");

    // A different strategy fingerprint (same space, same seed) does too.
    let report = Campaign::builder(demo_space(3), &executor)
        .seed(8)
        .strategy(RandomSample { count: 3, seed: 8 })
        .build()
        .run_with_state(&mut state)
        .report;
    assert_eq!(report.executed_now, 6, "fingerprint change starts fresh");
}

/// An executor that must never run: `execute` panics.
struct UnreachableExecutor;

impl Executor for UnreachableExecutor {
    fn workloads(&self, _target: &str) -> Vec<Vec<String>> {
        vec![vec!["a".into()], vec!["b".into()]]
    }

    fn execute(&self, unit: &WorkUnit) -> Execution {
        panic!("fully-resumed campaign executed unit {}", unit.id);
    }
}

#[test]
fn a_fully_resumed_campaign_spawns_no_workers_and_executes_nothing() {
    let executor = CountingExecutor::new();
    let state = checkpoint(demo_space(3), &executor);

    // Same plan, but an executor that panics on any execution: the resumed
    // run must make zero executor calls and spawn zero worker threads.
    let mut resumed = state;
    let report = Campaign::builder(demo_space(3), &UnreachableExecutor)
        .jobs(4)
        .seed(7)
        .build()
        .run_with_state(&mut resumed)
        .report;
    assert_eq!(report.executed_now, 0);
    assert_eq!(
        report.peak_workers, 0,
        "no thread spawned for empty pending"
    );
    assert_eq!(report.records.len(), 6, "resumed records are intact");
}
