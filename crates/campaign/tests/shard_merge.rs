//! Differential tests for sharded campaigns against a real target:
//! running the git-lite space as `Lease::shard` slices and merging the
//! outcomes with `CampaignReport::merge_leases` must
//! reproduce the unsharded run's records and triage **byte for byte** —
//! under every static strategy and under both execution backends, and
//! equally when the merge consumes persisted state files instead of live
//! outcomes (the cross-process workflow).

use lfi_campaign::{
    Campaign, CampaignReport, CampaignState, ExecBackend, Exhaustive, FaultSpace, InjectionGuided,
    Lease, LeaseOutcome, RandomSample, StandardExecutor, Strategy,
};
use lfi_targets::standard_controller;

/// The Table 1 git-lite slice: the functions behind its known bugs
/// (opendir: readdir-null crash; setenv: silent data loss; readlink:
/// checked site), annotated like the real hunt so guided pruning has
/// reachability to work with.
fn git_space(executor: &StandardExecutor) -> FaultSpace {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["git-lite"], &profile);
    space.retain(|p| matches!(p.function.as_str(), "opendir" | "setenv" | "readlink"));
    executor.annotate_baseline_reachability(&mut space, 7);
    space
}

fn strategy_of(name: &str) -> Box<dyn Strategy> {
    match name {
        "exhaustive" => Box::new(Exhaustive),
        "guided" => Box::new(InjectionGuided),
        "random" => Box::new(RandomSample { count: 9, seed: 7 }),
        other => panic!("unknown strategy {other}"),
    }
}

/// Run the space unsharded, then as `count` shards, and assert the merged
/// outcomes reproduce the unsharded report exactly.
fn assert_merge_matches_unsharded(strategy: &str, backend: ExecBackend, count: usize) {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    assert!(!space.is_empty());

    let unsharded = Campaign::builder(space.clone(), &executor)
        .boxed_strategy(strategy_of(strategy))
        .jobs(2)
        .seed(7)
        .backend(backend)
        .build()
        .run_to_completion();

    let mut outcomes = Vec::new();
    for index in 0..count {
        // Each shard gets its own executor: separate processes share
        // nothing, so the test must not either.
        let executor = StandardExecutor::new(&["git-lite"]);
        let outcome = Campaign::builder(space.clone(), &executor)
            .boxed_strategy(strategy_of(strategy))
            .jobs(2)
            .seed(7)
            .backend(backend)
            .lease(Lease::shard(index, count, space.len()).unwrap())
            .build()
            .run_to_completion();
        outcomes.push(outcome);
    }

    let merged = CampaignReport::merge_leases(outcomes, space.len()).unwrap();
    assert_eq!(
        merged.records, unsharded.report.records,
        "{strategy}/{backend}: merged records differ from the unsharded run"
    );
    assert_eq!(
        merged.triage, unsharded.report.triage,
        "{strategy}/{backend}: merged triage differs from the unsharded run"
    );
    assert_eq!(merged.units_total, unsharded.report.units_total);
}

#[test]
fn merged_shards_match_unsharded_exhaustive() {
    assert_merge_matches_unsharded("exhaustive", ExecBackend::Fresh, 2);
}

#[test]
fn merged_shards_match_unsharded_guided() {
    assert_merge_matches_unsharded("guided", ExecBackend::Fresh, 2);
}

#[test]
fn merged_shards_match_unsharded_random() {
    assert_merge_matches_unsharded("random", ExecBackend::Fresh, 2);
}

#[test]
fn merged_shards_match_unsharded_on_the_snapshot_backend() {
    assert_merge_matches_unsharded("exhaustive", ExecBackend::Snapshot, 2);
}

#[test]
fn merged_shards_match_unsharded_with_three_shards() {
    assert_merge_matches_unsharded("guided", ExecBackend::Snapshot, 3);
}

/// The cross-process workflow: each shard persists its state as JSON, the
/// merge step parses the files back into outcomes — identical result.
#[test]
fn merge_from_persisted_states_matches_live_outcomes() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);

    let unsharded = Campaign::builder(space.clone(), &executor)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion();

    let mut parsed = Vec::new();
    for index in 0..2 {
        let executor = StandardExecutor::new(&["git-lite"]);
        let driver = Campaign::builder(space.clone(), &executor)
            .jobs(2)
            .seed(7)
            .lease(Lease::shard(index, 2, space.len()).unwrap())
            .build();
        let mut state = CampaignState::default();
        driver.run_with_state(&mut state);
        let json = state.to_json();
        let state = CampaignState::from_json(&json).unwrap();
        parsed.push(LeaseOutcome::from_state(&state).unwrap());
    }

    let merged = CampaignReport::merge_leases(parsed, space.len()).unwrap();
    assert_eq!(merged.records, unsharded.report.records);
    assert_eq!(merged.triage, unsharded.report.triage);
}
