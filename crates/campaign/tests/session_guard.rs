//! Guard rails on session preparation: a `(target, workload)` pair whose
//! shared prefix terminates abnormally — crash, block, or instruction
//! budget — must refuse to snapshot and fall back to fresh execution,
//! exactly like the consumed-randomness case. Before these guards,
//! `build_session` inspected only the RNG: a prefix that crashed during
//! setup (or spent the whole budget) was happily snapshotted, and every
//! fork replayed the crash (or ran with zero budget) instead of the fresh
//! run's behavior.

use lfi_campaign::{Campaign, CampaignReport, ExecBackend, FaultSpace, StandardExecutor};
use lfi_cc::Compiler;
use lfi_core::{Controller, RunToCompletion, TestConfig};
use lfi_obj::{Module, ModuleKind};
use lfi_targets::{git_lite, standard_controller, FsSetupWorkload};
use lfi_vm::RunExit;

/// A stub library exposing one injectable function.
fn stub_lib() -> Module {
    Compiler::new("stublib", ModuleKind::SharedLib)
        .add_source(
            "stub.c",
            r#"
            int my_open(int path) {
                return 3;
            }
            "#,
        )
        .compile()
        .expect("stub library compiles")
}

fn controller() -> Controller {
    let mut controller = Controller::new();
    controller.add_library(stub_lib());
    controller
}

fn prep_app(source: &str, config: &TestConfig) -> lfi_core::SessionPrep {
    let exe = Compiler::new("app", ModuleKind::Executable)
        .needs("stublib")
        .add_source("app.c", source)
        .compile()
        .expect("app compiles");
    let controller = controller();
    let functions = vec!["my_open".to_string()];
    let image = controller.build_image(&exe, &functions).expect("load");
    controller.prepare_session(image, &functions, &mut RunToCompletion, config)
}

/// The regression case: setup crashes before the first injectable call.
/// The prep must report the fault and refuse to hand out a fork budget.
#[test]
fn a_prefix_that_crashes_before_the_first_injectable_call_refuses_to_snapshot() {
    let config = TestConfig::default();
    let prep = prep_app(
        r#"
        int main() {
            int p = 0;
            int x = *p;
            return my_open(x);
        }
        "#,
        &config,
    );
    assert!(
        matches!(prep.prefix_exit, RunExit::Fault(_)),
        "the prefix crashed: {:?}",
        prep.prefix_exit
    );
    assert_eq!(
        prep.fork_budget(config.max_instructions),
        None,
        "a crashed prefix must not be forked"
    );
}

/// The healthy counterpart: a prefix that pauses at the injectable call
/// does get a positive fork budget.
#[test]
fn a_prefix_paused_at_an_injectable_call_gets_a_positive_fork_budget() {
    let config = TestConfig::default();
    let prep = prep_app(
        r#"
        int main() {
            return my_open(0);
        }
        "#,
        &config,
    );
    assert_eq!(prep.prefix_exit, RunExit::Paused);
    assert_eq!(prep.paused_at.as_deref(), Some("my_open"));
    let budget = prep.fork_budget(config.max_instructions);
    assert!(budget.is_some_and(|left| left > 0), "budget: {budget:?}");
    // The same prep under an exhausted total budget refuses: zero left is
    // a refusal, not a zero-instruction session.
    assert_eq!(prep.fork_budget(prep.instructions_used), None);
    assert_eq!(
        prep.fork_budget(prep.instructions_used.saturating_sub(1)),
        None
    );
    assert_eq!(prep.fork_budget(prep.instructions_used + 1), Some(1));
}

/// A budget too small to reach the first injectable call ends the prefix
/// in `RunExit::Budget` — also a refusal.
#[test]
fn a_prefix_that_exhausts_its_budget_refuses_to_snapshot() {
    let config = TestConfig {
        max_instructions: 5,
        ..TestConfig::default()
    };
    let prep = prep_app(
        r#"
        int main() {
            return my_open(0);
        }
        "#,
        &config,
    );
    assert_eq!(prep.prefix_exit, RunExit::Budget);
    assert_eq!(prep.fork_budget(config.max_instructions), None);
}

/// One run of a restricted git-lite space under an explicit per-run
/// instruction budget.
fn run_budgeted(max_instructions: u64, backend: ExecBackend) -> (CampaignReport, usize) {
    let mut executor = StandardExecutor::new(&["git-lite"]);
    executor.set_max_instructions(max_instructions);
    let profile = standard_controller().profile_libraries();
    let mut space: FaultSpace = executor.fault_space(&["git-lite"], &profile);
    space.retain(|p| p.function == "opendir");
    assert!(!space.is_empty());
    let campaign = Campaign::builder(space, &executor)
        .jobs(2)
        .seed(7)
        .backend(backend)
        .build();
    let report = campaign.run_to_completion().report;
    (report, executor.sessions_prepared())
}

/// Differential test at the budget boundary: for budgets straddling the
/// prefix cost — smaller, exactly equal, one past, comfortably past, and
/// the default — fresh and snapshot triage must agree record for record.
/// The exact-boundary case is the old `budget_left: saturating_sub(..)`
/// bug: a session whose prefix consumed the entire budget was memoized
/// with zero instructions left, and its forks hung where fresh runs
/// reported the prefix's own termination.
#[test]
fn fresh_and_snapshot_backends_agree_at_the_budget_boundary() {
    // Measure the prefix cost of one git-lite workload the same way the
    // executor's session preparation does.
    let controller = standard_controller();
    let functions = controller.profile_libraries().failing_functions();
    let image = controller
        .build_image(&git_lite(), &functions)
        .expect("git-lite loads");
    let config = TestConfig {
        args: vec!["init".into()],
        record_coverage: true,
        ..TestConfig::default()
    };
    let prep = controller.prepare_session(image, &functions, &mut FsSetupWorkload, &config);
    assert_eq!(prep.prefix_exit, RunExit::Paused);
    let prefix_cost = prep.instructions_used;
    assert!(prefix_cost > 0);

    for budget in [
        prefix_cost / 2,
        prefix_cost,
        prefix_cost + 1,
        prefix_cost + 5_000,
        TestConfig::default().max_instructions,
    ] {
        let (fresh, fresh_sessions) = run_budgeted(budget, ExecBackend::Fresh);
        let (snapshot, snapshot_sessions) = run_budgeted(budget, ExecBackend::Snapshot);
        assert_eq!(fresh_sessions, 0);
        assert_eq!(
            fresh.records, snapshot.records,
            "records diverged at budget {budget} (prefix cost {prefix_cost})"
        );
        assert_eq!(fresh.triage.buckets, snapshot.triage.buckets);
        if budget <= prefix_cost {
            // The "init" workload's prefix cannot both fit the budget and
            // leave instructions over, so its session must be refused (the
            // other six workloads may have cheaper prefixes and are free to
            // snapshot or refuse on their own merits — parity above is the
            // real check).
            assert!(
                snapshot_sessions < 7,
                "the init session must refuse at budget {budget}"
            );
        }
    }
}
