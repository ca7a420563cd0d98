//! Differential tests: the snapshot-fork backend must be a pure
//! performance optimization. For the same fault space, seed and strategy,
//! it has to produce exactly the same [`lfi_campaign::RunRecord`]s —
//! outcome, injected sites, crashes, virtual time — as fresh-VM execution,
//! unit for unit.

use lfi_campaign::{
    Campaign, CampaignReport, ExecBackend, Executor, FaultSpace, Lease, StandardExecutor,
};
use lfi_targets::standard_controller;

/// A Table 1 style space: the given targets restricted to the functions
/// behind their known bugs, annotated like the real hunt.
fn hunt_space(executor: &StandardExecutor, targets: &[&str], functions: &[&str]) -> FaultSpace {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(targets, &profile);
    space.retain(|p| functions.contains(&p.function.as_str()));
    executor.annotate_baseline_reachability(&mut space, 7);
    space
}

fn run_with(
    executor: &StandardExecutor,
    space: &FaultSpace,
    jobs: usize,
    backend: ExecBackend,
) -> CampaignReport {
    Campaign::builder(space.clone(), executor)
        .jobs(jobs)
        .seed(7)
        .backend(backend)
        .build()
        .run_to_completion()
        .report
}

fn assert_backends_agree(executor: &StandardExecutor, space: &FaultSpace, min_sessions: usize) {
    assert!(!space.is_empty());
    let warm_sessions = executor.sessions_prepared();
    let fresh = run_with(executor, space, 2, ExecBackend::Fresh);
    assert_eq!(
        executor.sessions_prepared(),
        warm_sessions,
        "fresh backend must not prepare sessions"
    );
    let snapshot = run_with(executor, space, 2, ExecBackend::Snapshot);
    let snapshot_sessions = executor.sessions_prepared();
    assert!(
        snapshot_sessions >= min_sessions,
        "snapshot backend prepared only {snapshot_sessions} sessions, expected >= {min_sessions}"
    );
    assert_eq!(fresh.executed_now, fresh.units_total, "all units ran");
    // Byte-for-byte identical records: same outcomes, same injection
    // counts, same injected call sites, same crash signatures and
    // backtraces, same virtual time.
    assert_eq!(fresh.records, snapshot.records);
    assert_eq!(fresh.triage.buckets, snapshot.triage.buckets);
}

#[test]
fn snapshot_forks_match_fresh_vms_on_git_lite() {
    let executor = StandardExecutor::new(&["git-lite"]);
    // The functions behind the Table 1 git bugs (opendir: readdir-null
    // crash; setenv: the silent commit data loss; readlink: checked site).
    let space = hunt_space(&executor, &["git-lite"], &["opendir", "setenv", "readlink"]);
    // 7 workloads in the git-lite suite, each with at least one unit.
    assert_backends_agree(&executor, &space, 7);
}

#[test]
fn snapshot_forks_match_fresh_vms_on_db_lite() {
    let executor = StandardExecutor::new(&["db-lite"]);
    // The MySQL-analogue bugs: double unlock, unchecked close, read errors.
    let space = hunt_space(
        &executor,
        &["db-lite"],
        &["pthread_mutex_unlock", "close", "read"],
    );
    assert_backends_agree(&executor, &space, 4);
}

#[test]
fn snapshot_forks_match_fresh_vms_on_the_networked_target() {
    let executor = StandardExecutor::new(&["bind-lite"]);
    // bind-lite runs behind its queued client workload: the snapshot must
    // capture the simulated network (pending queries) faithfully.
    let space = hunt_space(&executor, &["bind-lite"], &["malloc", "recvfrom", "open"]);
    assert_backends_agree(&executor, &space, 1);
}

/// Functions first called at different depths of the git-lite workloads,
/// so many units resume far past the session root.
const DEEP_FUNCTIONS: [&str; 5] = ["opendir", "setenv", "readlink", "close", "read"];

/// The git-lite space of [`DEEP_FUNCTIONS`], without baseline annotation.
fn git_space(executor: &StandardExecutor) -> FaultSpace {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["git-lite"], &profile);
    space.retain(|p| DEEP_FUNCTIONS.contains(&p.function.as_str()));
    space
}

/// Units injecting calls deep in the workloads replay the whole prefix
/// from the root snapshot, and the records still match fresh VMs, byte
/// for byte.
#[test]
fn deep_injections_match_fresh_vms() {
    let snapshot_executor = StandardExecutor::new(&["git-lite"]);
    let space = hunt_space(&snapshot_executor, &["git-lite"], &DEEP_FUNCTIONS);
    let snapshot = run_with(&snapshot_executor, &space, 2, ExecBackend::Snapshot);
    assert!(
        snapshot_executor.sessions_prepared() >= 7,
        "one session per git-lite workload"
    );

    let fresh_executor = StandardExecutor::new(&["git-lite"]);
    let fresh_space = hunt_space(&fresh_executor, &["git-lite"], &DEEP_FUNCTIONS);
    let fresh = run_with(&fresh_executor, &fresh_space, 2, ExecBackend::Fresh);

    assert_eq!(fresh.records, snapshot.records);
    assert_eq!(fresh.triage.buckets, snapshot.triage.buckets);
}

/// The snapshot backend at jobs=4 records the same as fresh VMs, and a
/// second run on the now warm executor, which forks the sessions the
/// first run prepared, records the same again.
#[test]
fn snapshot_campaign_matches_fresh_vms_at_four_jobs() {
    let run = |executor: &StandardExecutor, backend: ExecBackend| {
        let mut space = git_space(executor);
        executor.annotate_baseline_reachability(&mut space, 7);
        let campaign = Campaign::builder(space, executor)
            .jobs(4)
            .seed(7)
            .backend(backend)
            .build();
        campaign.run_to_completion().report
    };

    let snapshot_executor = StandardExecutor::new(&["git-lite"]);
    let snapshot = run(&snapshot_executor, ExecBackend::Snapshot);
    let warm = run(&snapshot_executor, ExecBackend::Snapshot);
    assert_eq!(snapshot.records, warm.records);

    let fresh = run(&StandardExecutor::new(&["git-lite"]), ExecBackend::Fresh);
    assert_eq!(snapshot.records, fresh.records);
    assert_eq!(snapshot.triage.buckets, fresh.triage.buckets);
}

/// A campaign built with no `.backend(..)` runs on the snapshot backend:
/// it prepares sessions, and records what an explicit fresh run records.
#[test]
fn the_default_backend_forks_sessions() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    assert_eq!(executor.sessions_prepared(), 0);
    let default = Campaign::builder(space.clone(), &executor)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion()
        .report;
    assert!(
        executor.sessions_prepared() > 0,
        "the default backend prepared no session"
    );

    let fresh = run_with(
        &StandardExecutor::new(&["git-lite"]),
        &space,
        2,
        ExecBackend::Fresh,
    );
    assert_eq!(default.records, fresh.records);
}

/// A session holds one root snapshot, and running units only forks it:
/// once every session is prepared, a whole snapshot-backend campaign adds
/// no resident snapshot state.
#[test]
fn running_units_adds_no_resident_snapshot_state() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    for args in executor.workloads("git-lite") {
        executor
            .prepare("git-lite", &args)
            .expect("every git-lite workload snapshots");
    }
    let prepared = executor.snapshot_bytes();
    assert!(prepared > 0, "session roots are resident");

    let report = run_with(&executor, &space, 2, ExecBackend::Snapshot);
    assert_eq!(report.executed_now, report.units_total, "all units ran");
    assert_eq!(executor.snapshot_bytes(), prepared);
}

#[test]
fn cluster_targets_fall_back_to_fresh_execution() {
    let executor = StandardExecutor::new(&["bft-lite"]);
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["bft-lite"], &profile);
    space.retain(|p| matches!(p.function.as_str(), "fopen" | "fwrite"));
    assert!(!space.is_empty());

    let fresh = run_with(&executor, &space, 2, ExecBackend::Fresh);
    let snapshot = run_with(&executor, &space, 2, ExecBackend::Snapshot);
    assert_eq!(executor.sessions_prepared(), 0, "bft-lite cannot snapshot");
    assert_eq!(fresh.records, snapshot.records);
}

/// Sessions prepared so far, as counted by `session_prepare_micros`: one
/// sample per build, refusals included.
fn session_builds(executor: &StandardExecutor) -> u64 {
    executor
        .telemetry()
        .snapshot()
        .histogram("session_prepare_micros")
        .map_or(0, |histogram| histogram.count)
}

/// The executor's memo is the one cache of sessions. Baseline
/// reachability prepares every pair; a snapshot campaign, and then a
/// lease-confined one on the same executor (the way a supervised worker
/// runs its next lease), fork those sessions and build none.
#[test]
fn campaigns_and_later_leases_reuse_the_executors_sessions() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = hunt_space(&executor, &["git-lite"], &DEEP_FUNCTIONS);
    let sessions = executor.sessions_prepared();
    let builds = session_builds(&executor);
    assert!(sessions >= 7, "one session per git-lite workload");
    assert!(builds >= sessions as u64);

    let whole = run_with(&executor, &space, 2, ExecBackend::Snapshot);
    assert_eq!(whole.executed_now, whole.units_total, "all units ran");
    assert_eq!(executor.sessions_prepared(), sessions);
    assert_eq!(session_builds(&executor), builds);

    let lease = Lease::shard(1, 2, space.len()).unwrap();
    let leased = Campaign::builder(space.clone(), &executor)
        .jobs(2)
        .seed(7)
        .backend(ExecBackend::Snapshot)
        .lease(lease)
        .build()
        .run_to_completion()
        .report;
    assert!(leased.executed_now > 0, "the lease ran units");
    assert_eq!(executor.sessions_prepared(), sessions);
    assert_eq!(session_builds(&executor), builds);
    assert!(leased.records.iter().all(|r| whole.records.contains(r)));
}
