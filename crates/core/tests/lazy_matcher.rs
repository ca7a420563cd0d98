//! Differential tests of the lazy call-stack matchers.
//!
//! `CallStackTrigger` and `CallerFunctionTrigger` match against the
//! unsymbolized frame sites of a hooked call. Here their decisions are
//! compared, at every hooked call of a bind-lite run and of an injected
//! bft-lite cluster run, with decisions computed from the fully symbolized
//! `backtrace()`. The frame specs are drawn with proptest from frames seen
//! in a first run of the same workload, plus near misses on each field.
//! `LoadedModule::containing_function` is checked against the linear
//! `Module::containing_function` at every code offset of every stock module.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use lfi_arch::INSN_SIZE;
use lfi_core::{
    FrameSpec, FunctionAssoc, Scenario, TestConfig, Trigger, TriggerCtx, TriggerDecl,
    TriggerRegistry,
};
use lfi_obj::{Export, Module, ModuleKind, SymKind};
use lfi_targets::{
    all_targets, bft_lite, bind_lite, networked_controller, run_bft_cluster, standard_controller,
    BftClusterConfig, BindWorkload,
};
use lfi_vm::{Frame, LoadedModule, Loader, NetHandle};
use proptest::prelude::*;

/// Spec sets drawn per workload.
const STACK_CASES: usize = 48;

/// The reference rule: a spec matches a symbolized frame when every field
/// it populates agrees (a file matches by suffix).
fn symbolized_match(spec: &FrameSpec, frame: &Frame) -> bool {
    let module = spec.module.as_ref().is_none_or(|m| *m == frame.module);
    let offset = spec.offset.is_none_or(|o| o == frame.offset);
    let function = spec
        .function
        .as_ref()
        .is_none_or(|f| frame.function.as_ref() == Some(f));
    let source = if spec.file.is_none() && spec.line.is_none() {
        true
    } else {
        frame.source.as_ref().is_some_and(|(file, line)| {
            spec.file
                .as_ref()
                .is_none_or(|f| file.ends_with(f.as_str()))
                && spec.line.is_none_or(|l| l == *line)
        })
    };
    module && offset && function && source
}

/// What the probes saw: every distinct symbolized frame, and how many
/// decisions were compared and came out true.
#[derive(Default)]
struct Observed {
    frames: BTreeMap<(String, u64), Frame>,
    calls: u64,
    stack_decisions: u64,
    stack_fired: u64,
    caller_decisions: u64,
    caller_fired: u64,
}

/// The checks a probe runs at every hooked call it sees.
#[derive(Default)]
struct Cases {
    stacks: Vec<Vec<FrameSpec>>,
    callers: Vec<String>,
}

/// An observe-only trigger that evaluates the stock call-stack triggers
/// and compares each decision with the symbolized reference. It never
/// fires.
struct Probe {
    stacks: Vec<(Vec<FrameSpec>, Box<dyn Trigger>)>,
    callers: Vec<(String, bool, Box<dyn Trigger>)>,
    observed: Arc<Mutex<Observed>>,
}

impl Probe {
    fn new(cases: &Cases, observed: Arc<Mutex<Observed>>) -> Probe {
        let stock = TriggerRegistry::default();
        let build = |class: &str, params: BTreeMap<String, String>, frames: Vec<FrameSpec>| {
            stock
                .build(&TriggerDecl {
                    id: "under-test".into(),
                    class: class.into(),
                    params,
                    frames,
                })
                .expect("stock trigger builds")
        };
        let stacks = cases
            .stacks
            .iter()
            .map(|specs| {
                let trigger = build("CallStackTrigger", BTreeMap::new(), specs.clone());
                (specs.clone(), trigger)
            })
            .collect();
        let mut callers = Vec::new();
        for function in &cases.callers {
            for anywhere in [false, true] {
                let params = BTreeMap::from([
                    ("function".to_string(), function.clone()),
                    ("anywhere".to_string(), i64::from(anywhere).to_string()),
                ]);
                let trigger = build("CallerFunctionTrigger", params, Vec::new());
                callers.push((function.clone(), anywhere, trigger));
            }
        }
        Probe {
            stacks,
            callers,
            observed,
        }
    }
}

impl Trigger for Probe {
    fn eval(&mut self, ctx: &mut TriggerCtx<'_, '_>) -> bool {
        let backtrace = ctx.call.backtrace();
        let mut observed = self.observed.lock().unwrap();
        observed.calls += 1;
        for frame in &backtrace {
            observed
                .frames
                .entry((frame.module.clone(), frame.offset))
                .or_insert_with(|| frame.clone());
        }
        for (specs, trigger) in &mut self.stacks {
            let expected = specs
                .iter()
                .all(|spec| backtrace.iter().any(|frame| symbolized_match(spec, frame)));
            let lazy = trigger.eval(ctx);
            assert_eq!(
                lazy, expected,
                "CallStackTrigger {specs:?} on {backtrace:?}"
            );
            observed.stack_decisions += 1;
            observed.stack_fired += u64::from(lazy);
        }
        for (function, anywhere, trigger) in &mut self.callers {
            let depth = if *anywhere { backtrace.len() } else { 1 };
            let expected = backtrace
                .iter()
                .take(depth)
                .any(|frame| frame.function.as_ref() == Some(function));
            let lazy = trigger.eval(ctx);
            assert_eq!(
                lazy, expected,
                "CallerFunctionTrigger {function} (anywhere: {anywhere}) on {backtrace:?}"
            );
            observed.caller_decisions += 1;
            observed.caller_fired += u64::from(lazy);
        }
        false
    }
}

/// Register the probe class, built over `cases`, reporting into `observed`.
fn register_probe(registry: &mut TriggerRegistry, cases: Cases, observed: &Arc<Mutex<Observed>>) {
    let cases = Arc::new(cases);
    let observed = Arc::clone(observed);
    registry.register("Probe", move |_| {
        Ok(Box::new(Probe::new(&cases, Arc::clone(&observed))) as Box<dyn Trigger>)
    });
}

/// `base`, preceded by an observational probe association for each of
/// `functions`. The probe comes first, so it sees a call even when the
/// base scenario then injects into it.
fn probed(functions: &[String], base: Scenario) -> Scenario {
    let mut scenario = Scenario::new().with_trigger(TriggerDecl {
        id: "probe".into(),
        class: "Probe".into(),
        params: BTreeMap::new(),
        frames: Vec::new(),
    });
    for function in functions {
        scenario = scenario.with_function(FunctionAssoc {
            function: function.clone(),
            argc: 3,
            retval: None,
            errno: None,
            triggers: vec!["probe".into()],
        });
    }
    scenario.triggers.extend(base.triggers);
    scenario.functions.extend(base.functions);
    scenario
}

/// Specs built from one real frame. Each of the five fields is left out or
/// set to the frame's value; in half the specs one field is instead a near
/// miss: another module, the adjacent instruction, another function, a
/// file name the frame's is not a suffix of, or the next line. A file set
/// to the frame's value may be any suffix of its name.
fn frame_spec(frames: Vec<Frame>, modules: Vec<String>) -> impl Strategy<Value = FrameSpec> {
    let functions: Vec<String> = frames.iter().filter_map(|f| f.function.clone()).collect();
    let bit = || proptest::bool::ANY;
    (
        0..frames.len(),
        (bit(), bit(), bit(), bit(), bit()),
        0usize..10,
        any::<u64>(),
    )
        .prop_map(move |(index, set, near, salt)| {
            let frame = &frames[index];
            let set = [set.0, set.1, set.2, set.3, set.4];
            let other = |names: &[String], real: Option<&String>| {
                let others: Vec<&String> = names.iter().filter(|n| Some(*n) != real).collect();
                others
                    .get((salt % others.len().max(1) as u64) as usize)
                    .map_or_else(|| "none".to_string(), |n| n.to_string())
            };
            let (file, line) = frame
                .source
                .clone()
                .unwrap_or_else(|| ("no-source.c".to_string(), 1));
            let mut spec = FrameSpec {
                module: set[0].then(|| frame.module.clone()),
                offset: set[1].then_some(frame.offset),
                function: set[2].then(|| frame.function.clone()).flatten(),
                file: set[3].then(|| file[(salt as usize) % file.len()..].to_string()),
                line: set[4].then_some(line),
            };
            match near {
                0 => spec.module = Some(other(&modules, Some(&frame.module))),
                1 => spec.offset = Some(frame.offset + INSN_SIZE),
                2 => spec.function = Some(other(&functions, frame.function.as_ref())),
                3 => spec.file = Some(format!("x{file}")),
                4 => spec.line = Some(line + 1),
                _ => {}
            }
            spec
        })
}

/// Draw the checks for one workload from the frames its first run saw.
fn draw_cases(name: &str, observed: &Observed) -> Cases {
    let frames: Vec<Frame> = observed.frames.values().cloned().collect();
    assert!(
        !frames.is_empty(),
        "{name}: the recording run saw no frames"
    );
    let mut modules: Vec<String> = frames.iter().map(|f| f.module.clone()).collect();
    modules.sort();
    modules.dedup();
    let stacks = proptest::collection::vec(frame_spec(frames.clone(), modules), 1..4);
    let mut rng = TestRng::from_name(name);
    let mut callers: Vec<String> = frames.iter().filter_map(|f| f.function.clone()).collect();
    callers.sort();
    callers.dedup();
    callers.push("no_such_function".to_string());
    Cases {
        stacks: (0..STACK_CASES)
            .map(|_| stacks.generate(&mut rng))
            .collect(),
        callers,
    }
}

/// Record `name`'s frames with a first run, draw checks from them, and
/// run again comparing every decision. Both kinds of trigger must be
/// compared at every hooked call and come out both ways.
fn assert_lazy_matchers_agree(name: &str, run: fn(Cases) -> Observed) {
    let cases = draw_cases(name, &run(Cases::default()));
    let stacks = cases.stacks.len() as u64;
    let callers = cases.callers.len() as u64;
    let observed = run(cases);
    assert!(observed.calls > 0, "{name}: no hooked calls");
    assert_eq!(observed.stack_decisions, observed.calls * stacks);
    assert_eq!(observed.caller_decisions, observed.calls * 2 * callers);
    assert!(
        observed.stack_fired > 0 && observed.stack_fired < observed.stack_decisions,
        "{name}: call-stack decisions never differed ({} of {} fired)",
        observed.stack_fired,
        observed.stack_decisions
    );
    assert!(
        observed.caller_fired > 0 && observed.caller_fired < observed.caller_decisions,
        "{name}: caller decisions never differed"
    );
}

/// Run bind-lite's typical workload with a probe on every imported
/// function.
fn run_bind(cases: Cases) -> Observed {
    let exe = bind_lite();
    let observed = Arc::new(Mutex::new(Observed::default()));
    let net = NetHandle::default();
    let mut controller = networked_controller(net.clone());
    register_probe(controller.registry_mut(), cases, &observed);
    let mut workload = BindWorkload::typical(net);
    let config = TestConfig {
        args: vec![workload.request_count().to_string()],
        ..TestConfig::default()
    };
    let scenario = probed(&exe.imported_functions(), Scenario::new());
    controller
        .run_test(&exe, &scenario, &mut workload, &config)
        .expect("bind-lite runs");
    let taken = observed.lock().map(|mut seen| std::mem::take(&mut *seen));
    taken.unwrap()
}

/// Run the bft-lite cluster with one `fwrite` call site failing and a
/// probe on every imported function of every node.
fn run_bft(cases: Cases) -> Observed {
    let exe = bft_lite();
    let site = exe.call_sites_of("fwrite")[0];
    let fault = Scenario::single_fault_point("bft-lite", "fwrite", site, 0, None);
    let observed = Arc::new(Mutex::new(Observed::default()));
    let mut registry = TriggerRegistry::default();
    register_probe(&mut registry, cases, &observed);
    let result = run_bft_cluster(&BftClusterConfig {
        requests: 4,
        scenario: probed(&exe.imported_functions(), fault),
        registry,
        ..BftClusterConfig::default()
    });
    assert!(result.injections > 0, "the fault point must inject");
    let taken = observed.lock().map(|mut seen| std::mem::take(&mut *seen));
    taken.unwrap()
}

#[test]
fn lazy_matchers_agree_with_the_symbolized_backtrace_on_bind_lite() {
    assert_lazy_matchers_agree("bind-lite", run_bind);
}

#[test]
fn lazy_matchers_agree_with_the_symbolized_backtrace_on_an_injected_cluster() {
    assert_lazy_matchers_agree("bft-lite", run_bft);
}

/// The indexed lookup returns the very export the scan returns (or both
/// none) at every instruction offset of `module`, and one past its end.
fn assert_lookup_agrees(module: &LoadedModule) {
    let end = module.module.code.len() as u64;
    for offset in (0..=end).step_by(INSN_SIZE as usize) {
        let indexed = module.containing_function(offset);
        let scanned = module.module.containing_function(offset);
        let same = match (indexed, scanned) {
            (Some(a), Some(b)) => std::ptr::eq(a, b),
            (None, None) => true,
            _ => false,
        };
        assert!(
            same,
            "{}+{offset:#x}: indexed {indexed:?}, scanned {scanned:?}",
            module.module.name
        );
    }
}

#[test]
fn indexed_function_lookup_matches_the_export_scan_on_every_stock_module() {
    let controller = standard_controller();
    for (name, exe) in all_targets() {
        let mut loader = Loader::new();
        for library in controller.libraries() {
            loader.add_library(library.clone());
        }
        let image = loader.load(exe).unwrap_or_else(|e| panic!("{name}: {e}"));
        for module in &image.modules {
            assert_lookup_agrees(module);
        }
    }
}

#[test]
fn indexed_function_lookup_keeps_the_scans_tie_break() {
    let mut exe: Module = lfi_cc::Compiler::new("aliases", ModuleKind::Executable)
        .add_source(
            "aliases.c",
            r#"
            int first() {
                return 1;
            }
            int main() {
                return first();
            }
            "#,
        )
        .compile()
        .expect("module compiles");
    let offset_of = |exe: &Module, name: &str| exe.func_export(name).expect("export").offset;
    let first = offset_of(&exe, "first");
    let main = offset_of(&exe, "main");
    let alias = |name: &str, offset: u64| Export {
        name: name.into(),
        kind: SymKind::Func,
        offset,
        size: 0,
    };
    // Two function exports at one offset, in both orders: the scan returns
    // the last of them in export order.
    exe.exports.insert(0, alias("early_alias_of_main", main));
    exe.exports.push(alias("late_alias_of_first", first));
    let image = Loader::new().load(exe).expect("module loads");
    let module = image.executable();
    assert_eq!(
        module.containing_function(first).unwrap().name,
        "late_alias_of_first"
    );
    assert_eq!(module.containing_function(main).unwrap().name, "main");
    assert_lookup_agrees(module);
}
