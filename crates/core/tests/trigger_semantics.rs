//! Trigger-firing semantics validated against a scripted run: a small
//! program with known `read` call sites runs under the `InjectionEngine`,
//! and the structured injection log is checked record by record.

use std::collections::BTreeMap;

use lfi_cc::Compiler;
use lfi_core::{FrameSpec, FunctionAssoc, InjectionEngine, Scenario, TriggerDecl};
use lfi_obj::{Module, ModuleKind};
use lfi_vm::{Loader, Machine, ProcessConfig, RunExit};

/// A stub library whose `read` always returns 10, so injected `-1` results
/// are visible in the program's arithmetic.
fn stub_lib() -> Module {
    Compiler::new("stublib", ModuleKind::SharedLib)
        .add_source(
            "stub.c",
            r#"
            int read(int fd, int buf, int count) {
                return 10;
            }
            "#,
        )
        .compile()
        .expect("stub library compiles")
}

/// Run `exe` under `scenario`, returning the exit and the engine's log.
fn run_scripted(exe: &Module, scenario: &Scenario) -> (RunExit, InjectionEngine) {
    let mut engine = InjectionEngine::new(scenario.clone()).expect("scenario compiles");
    let mut loader = Loader::new();
    loader.add_library(stub_lib());
    loader.interpose_all(engine.interposed_functions());
    let image = loader.load(exe.clone()).expect("load");
    let mut machine = Machine::new(image, ProcessConfig::default());
    let exit = machine.run_to_completion(&mut engine);
    (exit, engine)
}

fn call_count_scenario(count: u64) -> Scenario {
    Scenario::new()
        .with_trigger(TriggerDecl {
            id: "nth".into(),
            class: "CallCountTrigger".into(),
            params: BTreeMap::from([("count".to_string(), count.to_string())]),
            frames: vec![],
        })
        .with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: Some(lfi_arch::errno::EIO),
            triggers: vec!["nth".into()],
        })
}

#[test]
fn call_count_trigger_fires_exactly_on_the_nth_interception() {
    let exe = Compiler::new("app", ModuleKind::Executable)
        .needs("stublib")
        .add_source(
            "app.c",
            r#"
            int main() {
                int total = 0;
                int i = 0;
                while (i < 5) {
                    total = total + read(0, 0, 0);
                    i = i + 1;
                }
                return total;
            }
            "#,
        )
        .compile()
        .expect("app compiles");

    let (exit, engine) = run_scripted(&exe, &call_count_scenario(3));
    // Four honest reads (10 each) and one injected -1 on the third call.
    assert_eq!(exit, RunExit::Exited(4 * 10 - 1));
    assert_eq!(engine.log.interceptions, 5);
    assert_eq!(engine.log.injection_count(), 1);
    let record = &engine.log.records[0];
    assert_eq!(record.function, "read");
    assert_eq!(record.call_count, 3);
    assert_eq!(record.retval, -1);
    assert_eq!(record.errno, Some(lfi_arch::errno::EIO));
    assert_eq!(record.triggers, vec!["nth".to_string()]);
    assert_eq!(record.call_site.0, "app");
}

#[test]
fn call_count_trigger_past_the_last_call_never_fires() {
    let exe = Compiler::new("app", ModuleKind::Executable)
        .needs("stublib")
        .add_source(
            "app.c",
            "int main() { return read(0, 0, 0) + read(0, 0, 0); }",
        )
        .compile()
        .expect("app compiles");

    let (exit, engine) = run_scripted(&exe, &call_count_scenario(7));
    assert_eq!(exit, RunExit::Exited(20));
    assert_eq!(engine.log.interceptions, 2);
    assert_eq!(engine.log.injection_count(), 0);
    // Triggers were still evaluated on every interception.
    assert_eq!(engine.log.trigger_evaluations, 2);
}

/// Two distinct `read` call sites in two functions, so stack-frame triggers
/// can be pinned to one of them.
fn two_site_app() -> Module {
    Compiler::new("app", ModuleKind::Executable)
        .needs("stublib")
        .add_source(
            "app.c",
            r#"
            int from_a() { return read(0, 0, 0); }
            int from_b() { return read(0, 0, 0); }
            int main() {
                int x = 0;
                x = x + from_a();
                x = x + from_b();
                x = x + from_a();
                return x;
            }
            "#,
        )
        .compile()
        .expect("app compiles")
}

fn frame_scenario(frame: FrameSpec) -> Scenario {
    Scenario::new()
        .with_trigger(TriggerDecl {
            id: "site".into(),
            class: "CallStackTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![frame],
        })
        .with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: None,
            triggers: vec!["site".into()],
        })
}

fn site_in(exe: &Module, function: &str) -> u64 {
    exe.call_sites_of("read")
        .into_iter()
        .find(|&off| {
            exe.containing_function(off)
                .map(|e| e.name == function)
                .unwrap_or(false)
        })
        .expect("call site exists")
}

#[test]
fn stack_frame_trigger_pinned_to_an_offset_fires_only_there() {
    let exe = two_site_app();
    let offset = site_in(&exe, "from_a");
    let scenario = frame_scenario(FrameSpec {
        module: Some("app".into()),
        offset: Some(offset),
        ..FrameSpec::default()
    });
    let (exit, engine) = run_scripted(&exe, &scenario);
    // Both from_a calls are failed; the from_b call is untouched.
    assert_eq!(exit, RunExit::Exited(-1 + 10 - 1));
    assert_eq!(engine.log.interceptions, 3);
    assert_eq!(engine.log.injection_count(), 2);
    for record in &engine.log.records {
        assert_eq!(record.call_site, ("app".to_string(), offset));
    }
    assert_eq!(engine.log.records[0].call_count, 1);
    assert_eq!(engine.log.records[1].call_count, 3);
}

#[test]
fn stack_frame_trigger_matching_a_function_name_scopes_injection() {
    let exe = two_site_app();
    let scenario = frame_scenario(FrameSpec {
        function: Some("from_b".into()),
        ..FrameSpec::default()
    });
    let (exit, engine) = run_scripted(&exe, &scenario);
    // Only the single from_b call fails.
    assert_eq!(exit, RunExit::Exited(10 - 1 + 10));
    assert_eq!(engine.log.injection_count(), 1);
    assert_eq!(engine.log.records[0].call_count, 2);
    let offset_b = site_in(&exe, "from_b");
    assert_eq!(engine.log.records[0].call_site.1, offset_b);
}

#[test]
fn non_matching_frames_disarm_the_scenario_entirely() {
    let exe = two_site_app();
    let scenario = frame_scenario(FrameSpec {
        module: Some("some-other-module".into()),
        ..FrameSpec::default()
    });
    let (exit, engine) = run_scripted(&exe, &scenario);
    assert_eq!(exit, RunExit::Exited(30));
    assert_eq!(engine.log.interceptions, 3);
    assert_eq!(engine.log.injection_count(), 0);
}

#[test]
fn conjunction_of_call_count_and_stack_frame_requires_both() {
    let exe = two_site_app();
    let offset = site_in(&exe, "from_a");
    // Fail read only when it is BOTH the 3rd interception AND at from_a's
    // call site — i.e. the second from_a call, not the from_b call.
    let scenario = Scenario::new()
        .with_trigger(TriggerDecl {
            id: "site".into(),
            class: "CallStackTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![FrameSpec {
                module: Some("app".into()),
                offset: Some(offset),
                ..FrameSpec::default()
            }],
        })
        .with_trigger(TriggerDecl {
            id: "third".into(),
            class: "CallCountTrigger".into(),
            params: BTreeMap::from([("count".to_string(), "3".to_string())]),
            frames: vec![],
        })
        .with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: None,
            triggers: vec!["site".into(), "third".into()],
        });
    let (exit, engine) = run_scripted(&exe, &scenario);
    assert_eq!(exit, RunExit::Exited(10 + 10 - 1));
    assert_eq!(engine.log.injection_count(), 1);
    let record = &engine.log.records[0];
    assert_eq!(record.call_count, 3);
    assert_eq!(
        record.triggers,
        vec!["site".to_string(), "third".to_string()]
    );
}

/// An app whose first function, at code offset 0, is `first_in_file`.
/// Every thread's call stack bottoms out in a sentinel frame at offset 0 of
/// the executable; it must not read as a call made from that function.
fn offset_zero_app(main_body: &str) -> Module {
    let source = format!(
        r#"
        int first_in_file() {{
            return read(0, 0, 0);
        }}
        int victim() {{
            return __load8(0);
        }}
        int main() {{
            {main_body}
        }}
        "#
    );
    let exe = Compiler::new("app", ModuleKind::Executable)
        .needs("stublib")
        .add_source("app.c", &source)
        .compile()
        .expect("app compiles");
    assert_eq!(exe.containing_function(0).unwrap().name, "first_in_file");
    exe
}

#[test]
fn crash_backtraces_end_at_the_outermost_real_call() {
    let exe = offset_zero_app("return victim();");
    let (exit, _) = run_scripted(&exe, &Scenario::new());
    let RunExit::Fault(fault) = exit else {
        panic!("expected a fault, got {exit:?}");
    };
    let functions: Vec<Option<String>> = fault.backtrace.into_iter().map(|f| f.function).collect();
    assert_eq!(functions, vec![Some("main".to_string())]);
}

#[test]
fn caller_anywhere_does_not_see_the_function_at_offset_zero_on_every_call() {
    let exe = offset_zero_app(
        "int direct = read(0, 0, 0);
            int nested = first_in_file();
            return direct * 100 + nested;",
    );
    let scenario = Scenario::new()
        .with_trigger(TriggerDecl {
            id: "in-first".into(),
            class: "CallerFunctionTrigger".into(),
            params: BTreeMap::from([
                ("function".to_string(), "first_in_file".to_string()),
                ("anywhere".to_string(), "1".to_string()),
            ]),
            frames: vec![],
        })
        .with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: None,
            triggers: vec!["in-first".into()],
        });
    let (exit, engine) = run_scripted(&exe, &scenario);
    // Only the read made from first_in_file is failed.
    assert_eq!(exit, RunExit::Exited(10 * 100 - 1));
    assert_eq!(engine.log.injection_count(), 1);
}
