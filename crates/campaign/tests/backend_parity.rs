//! Differential tests: the snapshot-fork backend must be a pure
//! performance optimization. For the same fault space, seed and strategy,
//! it has to produce exactly the same [`lfi_campaign::RunRecord`]s —
//! outcome, injected sites, crashes, virtual time — as fresh-VM execution,
//! unit for unit.

use lfi_campaign::{Campaign, CampaignReport, ExecBackend, FaultSpace, StandardExecutor};
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
) -> (CampaignReport, usize) {
    let driver = Campaign::builder(space.clone(), executor)
        .jobs(jobs)
        .seed(7)
        .backend(backend)
        .build();
    let report = driver.run_to_completion().report;
    let sessions = driver.campaign().prepared_sessions();
    (report, sessions)
}

fn assert_backends_agree(executor: &StandardExecutor, space: &FaultSpace, min_sessions: usize) {
    assert!(!space.is_empty());
    let (fresh, fresh_sessions) = run_with(executor, space, 2, ExecBackend::Fresh);
    let (snapshot, snapshot_sessions) = run_with(executor, space, 2, ExecBackend::Snapshot);
    assert_eq!(fresh_sessions, 0, "fresh backend must not prepare sessions");
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

/// The snapshot-tree extension: the executor keeps snapshots *beyond* the
/// per-session roots — and the records still match fresh VMs, byte for
/// byte.
#[test]
fn deep_snapshot_trees_match_fresh_vms() {
    use lfi_campaign::Executor;

    // Functions chosen to sit at different first-call depths in the
    // git-lite workloads, so the tree genuinely deepens.
    let functions = &["opendir", "setenv", "readlink", "close", "read"];

    let tree_executor = StandardExecutor::new(&["git-lite"]);
    let space = hunt_space(&tree_executor, &["git-lite"], functions);
    let (tree, tree_sessions) = run_with(&tree_executor, &space, 2, ExecBackend::Snapshot);
    assert!(tree_sessions >= 7, "one session per git-lite workload");
    assert!(
        tree_executor.snapshot_nodes() > tree_sessions,
        "deepening must store nodes beyond the {tree_sessions} session roots, got {}",
        tree_executor.snapshot_nodes()
    );
    assert!(
        tree_executor.max_session_node_depth() > 1,
        "some resident snapshot must sit past the first injectable call"
    );
    assert!(
        tree_executor.snapshot_bytes() > 0,
        "resident nodes are charged against the snapshot budget"
    );

    let fresh_executor = StandardExecutor::new(&["git-lite"]);
    let fresh_space = hunt_space(&fresh_executor, &["git-lite"], functions);
    let (fresh, _) = run_with(&fresh_executor, &fresh_space, 2, ExecBackend::Fresh);

    assert_eq!(fresh.records, tree.records);
    assert_eq!(fresh.triage.buckets, tree.triage.buckets);
}

/// A starved snapshot budget forces constant eviction; results must not
/// change (eviction re-derives snapshots, never alters unit execution).
#[test]
fn a_tiny_snapshot_budget_only_costs_time_never_correctness() {
    use lfi_campaign::Executor;

    let starved = StandardExecutor::new(&["git-lite"]);
    // Below even one root: evict everything evictable.
    Executor::set_snapshot_budget(&starved, 1);
    let space = hunt_space(&starved, &["git-lite"], &["opendir", "setenv"]);
    let driver = Campaign::builder(space.clone(), &starved)
        .jobs(2)
        .seed(7)
        .backend(ExecBackend::Snapshot)
        .build();
    let starved_report = driver.run_to_completion().report;
    assert_eq!(
        starved.snapshot_nodes(),
        starved.sessions_prepared(),
        "a 1-byte budget keeps only the unevictable roots"
    );

    let roomy = StandardExecutor::new(&["git-lite"]);
    let roomy_space = hunt_space(&roomy, &["git-lite"], &["opendir", "setenv"]);
    let (roomy_report, _) = run_with(&roomy, &roomy_space, 2, ExecBackend::Snapshot);
    assert!(
        roomy.snapshot_bytes() > starved.snapshot_bytes(),
        "the default budget retains more resident bytes than the starved one"
    );
    assert_eq!(starved_report.records, roomy_report.records);
}

#[test]
fn cluster_targets_fall_back_to_fresh_execution() {
    let executor = StandardExecutor::new(&["bft-lite"]);
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["bft-lite"], &profile);
    space.retain(|p| matches!(p.function.as_str(), "fopen" | "fwrite"));
    assert!(!space.is_empty());

    let (fresh, _) = run_with(&executor, &space, 2, ExecBackend::Fresh);
    let (snapshot, sessions) = run_with(&executor, &space, 2, ExecBackend::Snapshot);
    assert_eq!(sessions, 0, "bft-lite cannot snapshot");
    assert_eq!(fresh.records, snapshot.records);
}
