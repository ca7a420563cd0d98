//! Batch prefetch is the only code that deepens a snapshot tree: forks
//! alone never add a node, many workers hammering
//! [`Executor::execute_from`] and [`Executor::prefetch_batch`] over **one**
//! shared session must never duplicate a tree depth or throw a deepening
//! run away, and a full jobs=4 campaign with prefetch on must stay
//! record-identical to fresh VMs with every fork landing at its target
//! depth.

use lfi_campaign::{
    derive_seed, Campaign, ExecBackend, Executor, FaultSpace, PrefetchKey, StandardExecutor,
    WorkUnit,
};
use lfi_targets::standard_controller;

/// Functions sitting at different first-call depths in the git-lite
/// workloads, so deepening has real work to do.
const FUNCTIONS: [&str; 5] = ["opendir", "setenv", "readlink", "close", "read"];

fn git_space(executor: &StandardExecutor) -> FaultSpace {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["git-lite"], &profile);
    space.retain(|p| FUNCTIONS.contains(&p.function.as_str()));
    space
}

/// One unit per fault point, all under the workload `args`.
fn units_of(space: &FaultSpace, args: &[String]) -> Vec<WorkUnit> {
    space
        .points
        .iter()
        .enumerate()
        .map(|(id, point)| WorkUnit {
            id,
            point: point.clone(),
            scenario: point.scenario(),
            args: args.to_vec(),
            seed: derive_seed(7, id as u64),
        })
        .collect()
}

/// Every resident tree depth across every prepared session, asserting no
/// session holds two nodes at the same depth (two walks racing over one
/// tree would materialize duplicates).
fn assert_no_duplicate_depths(executor: &StandardExecutor) {
    for depths in executor.session_node_depths() {
        let mut dedup = depths.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(
            dedup.len(),
            depths.len(),
            "a session tree holds duplicate depths: {depths:?}"
        );
    }
}

/// Four workers interleaving direct `execute_from` calls with whole-batch
/// `prefetch_batch` hints against a single prepared session. The tree
/// lock must serialize the prefetch walks (discarded reads 0) while the
/// node set stays duplicate-free.
#[test]
fn concurrent_forks_and_prefetch_share_one_deepening_walk() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    assert!(!space.is_empty());

    // One workload → one shared session for every unit below.
    let args = executor.workloads("git-lite").remove(0);
    let units = units_of(&space, &args);
    let keys: Vec<PrefetchKey> = units
        .iter()
        .map(|unit| PrefetchKey {
            target: unit.point.target.clone(),
            args: unit.args.clone(),
            function: unit.point.function.clone(),
        })
        .collect();
    let session = executor
        .prepare("git-lite", &args)
        .expect("git-lite snapshots");

    std::thread::scope(|scope| {
        for worker in 0..4usize {
            let (executor, session, units, keys) = (&executor, &session, &units, &keys);
            scope.spawn(move || {
                for round in 0..2usize {
                    // Half the workers lead each round with the batch
                    // hint, so prefetch walks race demand-driven forks.
                    if (worker + round) % 2 == 0 {
                        executor.prefetch_batch(keys, 4);
                    }
                    for unit in units {
                        executor.execute_from(session, unit);
                    }
                }
            });
        }
    });

    assert_no_duplicate_depths(&executor);
    let metrics = Executor::telemetry(&executor).snapshot();
    assert_eq!(
        metrics.counter("tree_deepen_discarded"),
        0,
        "serialized prefetch walks must make lost deepening races impossible"
    );
    assert!(
        metrics.counter("tree_prefetch_runs") >= 1,
        "at least one prefetch walked the tree"
    );
    assert!(
        metrics.counter("tree_prefetch_nodes") + metrics.counter("tree_nodes_materialized") > 0,
        "deepening materialized nodes beyond the session root"
    );
}

/// The whole pipeline at jobs=4 — batch prefetch and reuse-aware
/// ordering — must remain a pure optimization: records identical to
/// fresh VMs, zero discarded walks, no duplicate depths. The engine prefetches every batch before draining it, so every
/// fork lands at its target depth (no misses). A second run on the now
/// warm executor reuses its trees and must record the same.
#[test]
fn prefetching_campaign_matches_fresh_vms_at_four_jobs() {
    let run = |executor: &StandardExecutor, backend: ExecBackend| {
        let mut space = git_space(executor);
        executor.annotate_baseline_reachability(&mut space, 7);
        let driver = Campaign::builder(space, executor)
            .jobs(4)
            .seed(7)
            .backend(backend)
            .build();
        driver.run_to_completion().report
    };

    let tree_executor = StandardExecutor::new(&["git-lite"]);
    let tree = run(&tree_executor, ExecBackend::Snapshot);
    assert_no_duplicate_depths(&tree_executor);
    let metrics = tree.metrics.as_ref().expect("telemetry on by default");
    assert_eq!(metrics.counter("tree_deepen_discarded"), 0);
    assert!(
        metrics.counter("tree_prefetch_runs") >= 1,
        "batch prefetch must walk the trees under the tree model"
    );
    assert!(metrics.counter("tree_fork_hits") > 0);
    assert_eq!(
        metrics.counter("tree_fork_misses"),
        0,
        "after the engine's prefetch every fork finds its target depth resident"
    );

    let warm = run(&tree_executor, ExecBackend::Snapshot);
    assert_eq!(tree.records, warm.records);

    let fresh = run(&StandardExecutor::new(&["git-lite"]), ExecBackend::Fresh);
    assert_eq!(tree.records, fresh.records);
    assert_eq!(tree.triage.buckets, fresh.triage.buckets);
}

/// Forks never deepen: without a prefetch, `execute_from` forks the
/// deepest resident node (here the root) and the tree keeps exactly the
/// nodes it had.
#[test]
fn forks_without_a_prefetch_leave_the_tree_unchanged() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    let args = executor.workloads("git-lite").remove(0);
    let session = executor
        .prepare("git-lite", &args)
        .expect("git-lite snapshots");
    let before = executor.session_node_depths();
    assert_eq!(before, vec![vec![1]], "a fresh session holds only its root");
    for unit in units_of(&space, &args) {
        executor.execute_from(&session, &unit);
    }
    assert_eq!(executor.session_node_depths(), before);
    let metrics = Executor::telemetry(&executor).snapshot();
    assert_eq!(metrics.counter("tree_prefetch_runs"), 0);
    assert!(
        metrics.counter("tree_fork_misses") > 0,
        "units whose depth was never materialized count as misses"
    );
}
