//! Pins of one observe-only Table 5 run: httpd-lite serving 20 static
//! requests under the full five-trigger stack. The triggers are evaluated
//! on every intercepted `read` and never inject, so the counters and the
//! virtual time measure the trigger mechanism alone. The constants were
//! captured before each trigger was built once, when the scenario compiles;
//! they change only when Table 5 is made to measure what the paper measured
//! (ROADMAP item 8), which re-captures them deliberately. Never re-capture
//! them to make a change pass.

use lfi_bench::experiments::httpd_trigger_scenario;
use lfi_core::{TestConfig, TestOutcome};
use lfi_targets::{httpd_lite, standard_controller, FsSetupWorkload};

#[test]
fn observe_only_table5_run_keeps_its_counts_and_clock() {
    let config = TestConfig {
        args: vec!["20".to_string(), "1".to_string()],
        observe_only: true,
        ..TestConfig::default()
    };
    let report = standard_controller()
        .run_test(
            &httpd_lite(),
            &httpd_trigger_scenario(5),
            &mut FsSetupWorkload,
            &config,
        )
        .expect("httpd-lite loads");
    assert!(
        matches!(report.outcome, TestOutcome::Passed),
        "{}",
        report.output
    );
    let log = &report.injections;
    assert_eq!(log.injection_count(), 0);
    assert_eq!(log.interceptions, 40);
    assert_eq!(log.trigger_evaluations, 200);
    assert_eq!(report.virtual_time, 38_802);
}
