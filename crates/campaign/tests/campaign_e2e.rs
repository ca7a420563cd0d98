//! End-to-end campaign tests against a real target program.

use lfi_campaign::{Campaign, CampaignState, InjectionGuided, StandardExecutor};
use lfi_targets::standard_controller;

/// Build a small but real fault space: git-lite restricted to the functions
/// behind its Table 1 bugs (plus one that never fails a run).
fn git_space(executor: &StandardExecutor) -> lfi_campaign::FaultSpace {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["git-lite"], &profile);
    space.retain(|p| matches!(p.function.as_str(), "opendir" | "setenv" | "readlink"));
    space
}

#[test]
fn campaign_finds_the_git_readdir_bug_and_triages_it() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    assert!(!space.is_empty());
    let campaign = Campaign::builder(space, &executor).jobs(2).seed(7).build();
    let mut state = CampaignState::default();
    let report = campaign.run_with_state(&mut state).report;

    assert_eq!(report.executed_now, report.units_total);
    assert!(report.triage.crashes > 0, "opendir injection must crash");
    // The readdir-after-failed-opendir crash collapses into a signature
    // attributed to the opendir injection.
    assert!(
        report
            .triage
            .buckets
            .iter()
            .any(|b| b.signature.function == "opendir"),
        "expected an opendir crash signature, got: {report}"
    );

    // Resuming from persisted state re-executes nothing and reproduces the
    // same triage.
    let mut resumed = CampaignState::from_json(&state.to_json()).unwrap();
    let again = campaign.run_with_state(&mut resumed).report;
    assert_eq!(again.executed_now, 0);
    assert_eq!(again.records, report.records);
}

#[test]
fn guided_explores_fewer_units_without_losing_the_crash() {
    let executor = StandardExecutor::new(&["db-lite"]);

    // db-lite: the close/pthread_mutex_unlock fault points include call
    // sites the default suite never reaches — exactly what InjectionGuided
    // prunes (a pruned, unreached site can never inject, so no crash is
    // lost).
    let profile = standard_controller().profile_libraries();
    let mut exhaustive_space = executor.fault_space(&["db-lite"], &profile);
    exhaustive_space.retain(|p| {
        matches!(
            p.function.as_str(),
            "close" | "pthread_mutex_unlock" | "read"
        )
    });
    executor.annotate_baseline_reachability(&mut exhaustive_space, 7);
    let guided_space = exhaustive_space.clone();

    let exhaustive = Campaign::builder(exhaustive_space, &executor)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion()
        .report;

    let guided = Campaign::builder(guided_space, &executor)
        .strategy(InjectionGuided)
        .jobs(2)
        .seed(7)
        .build()
        .run_to_completion()
        .report;

    assert!(
        guided.units_total < exhaustive.units_total,
        "guided ({}) must prune units vs exhaustive ({})",
        guided.units_total,
        exhaustive.units_total
    );
    let signatures = |r: &lfi_campaign::CampaignReport| {
        r.triage
            .buckets
            .iter()
            .map(|b| b.signature.clone())
            .collect::<Vec<_>>()
    };
    assert_eq!(
        signatures(&guided),
        signatures(&exhaustive),
        "pruning unreached fault points must not lose crashes"
    );
}
