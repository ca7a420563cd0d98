//! Cross-crate integration tests: the full LFI workflow (profile, analyze,
//! generate, inject, diagnose) running against the bundled targets.

use lfi::prelude::*;
use lfi::targets::{self, FsSetupWorkload};

#[test]
fn generated_scenario_finds_the_unchecked_malloc_in_git_diff() {
    let controller = targets::standard_controller();
    let exe = targets::git_lite();
    let scenario = controller.generate_scenario(&exe, false);
    assert!(
        scenario.functions.iter().any(|f| f.function == "malloc"),
        "the analyzer must target git-lite's unchecked mallocs"
    );
    let config = TestConfig {
        args: vec!["diff".into(), "3".into(), "4".into()],
        ..TestConfig::default()
    };
    let report = controller
        .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
        .expect("run");
    assert!(report.outcome.is_crash(), "outcome: {:?}", report.outcome);
    assert!(report.injections.injection_count() >= 1);
    // The injection log names the function and the call site that was failed.
    assert!(report
        .injections
        .records()
        .any(|r| r.function == "malloc" && r.call_site.0 == "git-lite"));
}

#[test]
fn checked_recovery_code_survives_injection_cleanly() {
    // bind-lite checks its zone-file open; injecting a failure there must
    // exercise the recovery path (clean failure), not crash.
    let net = NetHandle::default();
    let controller = targets::networked_controller(net.clone());
    let exe = targets::bind_lite();
    let profile = controller.profile_libraries();
    let open_sites = exe.call_sites_of("open");
    assert!(!open_sites.is_empty());
    // Find the open call inside load_zone.
    let load_zone_site = open_sites
        .iter()
        .copied()
        .find(|&off| {
            exe.containing_function(off)
                .map(|e| e.name == "load_zone")
                .unwrap_or(false)
        })
        .expect("load_zone opens the zone file");
    let case = profile
        .function("open")
        .unwrap()
        .representative_case()
        .unwrap();
    let scenario = Scenario::new()
        .with_trigger(TriggerDecl {
            id: "zone".into(),
            class: "CallStackTrigger".into(),
            params: Default::default(),
            frames: vec![FrameSpec {
                module: Some("bind-lite".into()),
                offset: Some(load_zone_site),
                ..FrameSpec::default()
            }],
        })
        .with_function(FunctionAssoc {
            function: "open".into(),
            argc: 3,
            retval: Some(case.retval),
            errno: case.errno,
            triggers: vec!["zone".into()],
        });
    let mut workload = targets::BindWorkload::typical(net);
    let config = TestConfig {
        args: vec!["4".into()],
        ..TestConfig::default()
    };
    let report = controller
        .run_test(&exe, &scenario, &mut workload, &config)
        .expect("run");
    assert_eq!(report.outcome, TestOutcome::CleanFailure(1));
    assert!(report.output.contains("cannot open zone file"));
}

#[test]
fn scenario_xml_roundtrip_runs_identically() {
    let controller = targets::standard_controller();
    let exe = targets::git_lite();
    let scenario = controller.generate_scenario(&exe, false);
    let xml = scenario.to_xml();
    let reparsed = Scenario::parse_xml(&xml).expect("generated XML parses");
    assert_eq!(reparsed, scenario);
}

#[test]
fn call_count_and_singleton_triggers_compose() {
    // Fail only the 3rd write of httpd-lite, exactly once.
    let controller = targets::standard_controller();
    let exe = targets::httpd_lite();
    let scenario = Scenario::new()
        .with_trigger(TriggerDecl {
            id: "third".into(),
            class: "CallCountTrigger".into(),
            params: [("count".to_string(), "3".to_string())]
                .into_iter()
                .collect(),
            frames: vec![],
        })
        .with_trigger(TriggerDecl {
            id: "once".into(),
            class: "SingletonTrigger".into(),
            params: Default::default(),
            frames: vec![],
        })
        .with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: Some(lfi::arch::errno::EIO),
            triggers: vec!["third".into(), "once".into()],
        });
    let config = TestConfig {
        args: vec!["10".into(), "1".into()],
        ..TestConfig::default()
    };
    let report = controller
        .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
        .expect("run");
    assert_eq!(report.injections.injection_count(), 1);
    let record = report.injections.records().next().expect("one record");
    assert_eq!(record.call_count, 3);
    // httpd-lite logs the read error and keeps serving.
    assert!(matches!(report.outcome, TestOutcome::Passed));
    assert!(report.output.contains("read error"));
}

#[test]
fn random_trigger_injection_rate_is_roughly_the_configured_probability() {
    let controller = targets::standard_controller();
    let exe = targets::httpd_lite();
    let scenario = Scenario::new()
        .with_trigger(TriggerDecl {
            id: "rnd".into(),
            class: "RandomTrigger".into(),
            params: [
                ("probability".to_string(), "0.3".to_string()),
                ("seed".to_string(), "5".to_string()),
            ]
            .into_iter()
            .collect(),
            frames: vec![],
        })
        .with_function(FunctionAssoc {
            function: "close".into(),
            argc: 1,
            retval: Some(-1),
            errno: Some(lfi::arch::errno::EIO),
            triggers: vec!["rnd".into()],
        });
    let config = TestConfig {
        args: vec!["100".into(), "1".into()],
        ..TestConfig::default()
    };
    let report = controller
        .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
        .expect("run");
    let interceptions = report.injections.interceptions as f64;
    let injections = report.injections.injection_count() as f64;
    let rate = injections / interceptions;
    assert!(
        (0.15..=0.45).contains(&rate),
        "injection rate {rate} should be near 0.3"
    );
}

#[test]
fn profiler_knows_how_libc_functions_fail() {
    let profile = lfi::profiler::profile_library(&lfi::libc::build());
    let read = profile.function("read").expect("read profiled");
    assert!(read.error_return_values().contains(&-1));
    assert!(read.errno_values().contains(&lfi::arch::errno::EINTR));
    let fopen = profile.function("fopen").expect("fopen profiled");
    assert!(
        fopen.error_return_values().contains(&0),
        "fopen returns NULL"
    );
    let profile_json = profile.to_json();
    let reparsed = lfi::profiler::FaultProfile::from_json(&profile_json).unwrap();
    assert_eq!(reparsed, profile);
}

#[test]
fn trigger_evaluation_overhead_is_small() {
    // The Table 5/6 claim, as an invariant: evaluating a five-trigger
    // conjunction on every read call changes virtual run time by < 10%.
    let controller = targets::standard_controller();
    let exe = targets::httpd_lite();
    let run = |scenario: &Scenario| {
        let config = TestConfig {
            args: vec!["100".into(), "1".into()],
            observe_only: true,
            ..TestConfig::default()
        };
        controller
            .run_test(&exe, scenario, &mut FsSetupWorkload, &config)
            .expect("run")
            .virtual_time as f64
    };
    let baseline = run(&Scenario::new());
    let with_triggers = run(&lfi_bench_scenario());
    let overhead = (with_triggers - baseline) / baseline;
    assert!(
        overhead < 0.10,
        "trigger overhead {overhead:.3} should stay below 10%"
    );
}

fn lfi_bench_scenario() -> Scenario {
    // Rebuild the Table 5 five-trigger stack without depending on lfi-bench.
    let mut scenario = Scenario::new();
    let mut ids = Vec::new();
    for (id, class, params) in [
        (
            "t1",
            "FdKindTrigger",
            vec![
                ("index", "0".to_string()),
                ("kind", lfi::arch::abi::filekind::REGULAR.to_string()),
            ],
        ),
        (
            "t2",
            "CallerFunctionTrigger",
            vec![
                ("function", "apr_file_read".to_string()),
                ("anywhere", "1".to_string()),
            ],
        ),
        (
            "t3",
            "CallerFunctionTrigger",
            vec![
                ("function", "ap_process_request_internal".to_string()),
                ("anywhere", "1".to_string()),
            ],
        ),
        (
            "t4",
            "ProgramStateTrigger",
            vec![
                ("variable", "requests_done".to_string()),
                ("op", ">=".to_string()),
                ("value", "0".to_string()),
            ],
        ),
        ("t5", "WithMutexTrigger", vec![]),
    ] {
        ids.push(id.to_string());
        scenario.triggers.push(TriggerDecl {
            id: id.to_string(),
            class: class.to_string(),
            params: params
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
            frames: vec![],
        });
    }
    scenario.functions.push(FunctionAssoc {
        function: "read".into(),
        argc: 3,
        retval: Some(-1),
        errno: Some(lfi::arch::errno::EIO),
        triggers: ids,
    });
    scenario
}
