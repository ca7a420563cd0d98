//! The injection runtime: the shim-library logic that sits between the
//! application and its shared libraries.
//!
//! The [`InjectionEngine`] compiles a [`Scenario`] into per-function trigger
//! lists (looked up in O(1) per interception, §4.3), evaluates trigger
//! conjunctions with short-circuiting and lazy instantiation, applies the
//! injected return value and errno side effect, and records every injection
//! in a structured log (the paper's test log used to match injections to
//! observed failures and to replay them).

use std::collections::HashMap;

use lfi_arch::Word;
use lfi_vm::{CallContext, HookAction, HookHandler};
use serde::{Deserialize, Serialize};

use crate::scenario::Scenario;
use crate::triggers::{Trigger, TriggerCtx, TriggerRegistry};

/// One recorded injection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionRecord {
    /// Function whose call was failed.
    pub function: String,
    /// Injected return value.
    pub retval: Word,
    /// Injected errno, if any.
    pub errno: Option<Word>,
    /// Which interception of this function this was (1-based).
    pub call_count: u64,
    /// Module and offset of the call site.
    pub call_site: (String, u64),
    /// Source location of the call site, if debug info is present.
    pub source: Option<(String, u32)>,
    /// Trigger ids of the conjunction that fired.
    pub triggers: Vec<String>,
    /// Virtual time of the injection.
    pub clock: u64,
}

/// The injection log of one test run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectionLog {
    /// Recorded injections, in order.
    pub records: Vec<InjectionRecord>,
    /// Total interceptions observed (including ones that did not inject).
    pub interceptions: u64,
    /// Total trigger evaluations performed (measures short-circuiting).
    pub trigger_evaluations: u64,
}

impl InjectionLog {
    /// Number of injections performed.
    pub fn injection_count(&self) -> usize {
        self.records.len()
    }

    /// Injections performed on a given function.
    pub fn injections_into(&self, function: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.function == function)
            .count()
    }

    /// Serialize the log as pretty JSON.
    pub fn to_json(&self) -> String {
        use lfi_json::Value;
        let records = self
            .records
            .iter()
            .map(|r| {
                Value::Obj(vec![
                    ("function".to_string(), Value::Str(r.function.clone())),
                    ("retval".to_string(), Value::Int(r.retval)),
                    ("errno".to_string(), r.errno.map_or(Value::Null, Value::Int)),
                    ("call_count".to_string(), Value::Int(r.call_count as i64)),
                    (
                        "call_site".to_string(),
                        Value::Arr(vec![
                            Value::Str(r.call_site.0.clone()),
                            Value::Int(r.call_site.1 as i64),
                        ]),
                    ),
                    (
                        "source".to_string(),
                        r.source.as_ref().map_or(Value::Null, |(file, line)| {
                            Value::Arr(vec![Value::Str(file.clone()), Value::Int(i64::from(*line))])
                        }),
                    ),
                    (
                        "triggers".to_string(),
                        Value::Arr(r.triggers.iter().cloned().map(Value::Str).collect()),
                    ),
                    ("clock".to_string(), Value::Int(r.clock as i64)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("records".to_string(), Value::Arr(records)),
            (
                "interceptions".to_string(),
                Value::Int(self.interceptions as i64),
            ),
            (
                "trigger_evaluations".to_string(),
                Value::Int(self.trigger_evaluations as i64),
            ),
        ])
        .to_pretty()
    }
}

struct CompiledAssoc {
    retval: Option<Word>,
    errno: Option<Word>,
    trigger_indices: Vec<usize>,
}

/// Per-function state: the compiled associations and the interception
/// count, kept in one map entry so an interception costs one lookup.
#[derive(Default)]
struct HookedFunction {
    /// Compiled associations, in disjunction order (empty for a function
    /// that is intercepted but named by no association).
    assocs: Vec<CompiledAssoc>,
    /// Interceptions so far.
    calls: u64,
}

struct TriggerSlot {
    id: String,
    decl_index: usize,
    /// Lazily instantiated on first evaluation (§4.3 lazy initialization).
    instance: Option<Box<dyn Trigger>>,
}

/// The LFI injection engine; plugs into the VM as a [`HookHandler`].
pub struct InjectionEngine {
    registry: TriggerRegistry,
    scenario: Scenario,
    /// function name -> compiled associations and interception count.
    functions: HashMap<String, HookedFunction>,
    slots: Vec<TriggerSlot>,
    /// Structured injection log.
    pub log: InjectionLog,
    /// Virtual-time cost charged per trigger evaluation.
    pub trigger_eval_cost: u64,
    /// Stop injecting after this many injections (None = unlimited).
    pub max_injections: Option<u64>,
    /// If true, evaluate triggers but never actually inject (used by the
    /// overhead experiments in §7.4, which measure the trigger mechanism
    /// while letting all calls through).
    pub observe_only: bool,
}

impl std::fmt::Debug for InjectionEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InjectionEngine")
            .field("functions", &self.functions.keys().collect::<Vec<_>>())
            .field("injections", &self.log.injection_count())
            .finish()
    }
}

impl InjectionEngine {
    /// Compile a scenario with the default (stock) trigger registry.
    pub fn new(scenario: Scenario) -> Result<InjectionEngine, crate::triggers::TriggerBuildError> {
        InjectionEngine::with_registry(scenario, TriggerRegistry::default())
    }

    /// Compile a scenario with a custom registry (for custom trigger classes).
    pub fn with_registry(
        scenario: Scenario,
        registry: TriggerRegistry,
    ) -> Result<InjectionEngine, crate::triggers::TriggerBuildError> {
        // Validate the scenario first: duplicate trigger ids and undeclared
        // references used to slip through to this point and silently drop
        // associations; now they surface as build errors.
        scenario
            .validate()
            .map_err(|e| crate::triggers::TriggerBuildError {
                class: "<scenario>".to_string(),
                message: e.to_string(),
            })?;
        // Build one slot per declared trigger (instantiated lazily), and
        // verify up front that every class is known so configuration errors
        // surface before the test runs.
        let mut slots = Vec::new();
        for (index, decl) in scenario.triggers.iter().enumerate() {
            registry.build(decl)?;
            slots.push(TriggerSlot {
                id: decl.id.clone(),
                decl_index: index,
                instance: None,
            });
        }
        let slot_index: HashMap<String, usize> = slots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id.clone(), i))
            .collect();
        let mut functions: HashMap<String, HookedFunction> = HashMap::new();
        for assoc in &scenario.functions {
            let trigger_indices = assoc
                .triggers
                .iter()
                .filter_map(|id| slot_index.get(id).copied())
                .collect();
            functions
                .entry(assoc.function.clone())
                .or_default()
                .assocs
                .push(CompiledAssoc {
                    retval: assoc.retval,
                    errno: assoc.errno,
                    trigger_indices,
                });
        }
        Ok(InjectionEngine {
            registry,
            scenario,
            functions,
            slots,
            log: InjectionLog::default(),
            trigger_eval_cost: 10,
            max_injections: None,
            observe_only: false,
        })
    }

    /// The functions this engine needs the loader to interpose on.
    pub fn interposed_functions(&self) -> Vec<String> {
        self.scenario.intercepted_functions()
    }

    /// The compiled scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Number of times a function has been intercepted so far.
    pub fn call_count(&self, function: &str) -> u64 {
        self.functions.get(function).map_or(0, |f| f.calls)
    }

    fn eval_slot(
        slots: &mut [TriggerSlot],
        registry: &TriggerRegistry,
        scenario: &Scenario,
        index: usize,
        ctx: &mut TriggerCtx<'_, '_>,
    ) -> bool {
        let slot = &mut slots[index];
        if slot.instance.is_none() {
            let decl = &scenario.triggers[slot.decl_index];
            slot.instance = registry.build(decl).ok();
        }
        match slot.instance.as_mut() {
            Some(trigger) => trigger.eval(ctx),
            None => false,
        }
    }
}

impl HookHandler for InjectionEngine {
    fn on_call(&mut self, func: &str, ctx: &mut CallContext<'_>) -> HookAction {
        // One lookup per interception; the name is copied only on a
        // function's first interception.
        let hooked = match self.functions.get_mut(func) {
            Some(hooked) => hooked,
            None => self.functions.entry(func.to_string()).or_default(),
        };
        hooked.calls += 1;
        let count = hooked.calls;
        self.log.interceptions += 1;

        if hooked.assocs.is_empty() {
            return HookAction::Forward;
        }
        if let Some(limit) = self.max_injections {
            if self.log.records.len() as u64 >= limit {
                return HookAction::Forward;
            }
        }
        // Evaluate each association (disjunction). Within one association the
        // triggers form a conjunction evaluated with short-circuiting.
        for assoc in &hooked.assocs {
            let mut all_true = !assoc.trigger_indices.is_empty() || assoc.retval.is_some();
            for &slot_idx in &assoc.trigger_indices {
                self.log.trigger_evaluations += 1;
                ctx.add_cost(self.trigger_eval_cost);
                let mut trigger_ctx = TriggerCtx {
                    function: func,
                    call_count: count,
                    call: ctx,
                };
                let fired = Self::eval_slot(
                    &mut self.slots,
                    &self.registry,
                    &self.scenario,
                    slot_idx,
                    &mut trigger_ctx,
                );
                if !fired {
                    all_true = false;
                    break; // Short-circuit: remaining triggers are not invoked.
                }
            }
            if !all_true {
                continue;
            }
            // Observational associations (return="unused") never inject.
            let Some(retval) = assoc.retval else {
                continue;
            };
            if self.observe_only {
                continue;
            }
            let (module, offset) = ctx.call_site();
            self.log.records.push(InjectionRecord {
                function: func.to_string(),
                retval,
                errno: assoc.errno,
                call_count: count,
                call_site: (module.to_string(), offset),
                source: ctx.call_site_source(),
                triggers: assoc
                    .trigger_indices
                    .iter()
                    .map(|&i| self.slots[i].id.clone())
                    .collect(),
                clock: ctx.clock(),
            });
            return HookAction::Return {
                value: retval,
                errno: assoc.errno,
            };
        }
        HookAction::Forward
    }
}

/// Where a [`PauseAtCall`] handler stops the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PauseMode {
    /// Pause before the k-th tracked call (1-based). `u64::MAX` in
    /// practice never fires: the handler just records the trace.
    AtIndex(u64),
    /// Pause before the first call to one specific tracked function,
    /// forwarding (and recording) every other tracked call on the way.
    AtFunction(String),
}

/// A handler that forwards every intercepted call while counting calls to
/// a *tracked* set of functions (the injectable library functions), and
/// pauses the machine just before a chosen one of them executes.
///
/// The pause happens *before* the call executes ([`HookAction::Pause`]
/// leaves the program counter on the call instruction and rolls the
/// counters back), so a [`lfi_vm::MachineSnapshot`] taken at the pause
/// point can be resumed under a different handler — typically an
/// [`InjectionEngine`] — which then observes that same call as its next
/// interception. This is the runtime half of session-based execution: the
/// workload prefix up to the k-th injectable library call runs once, and
/// every injection scenario forks from there.
///
/// Three pause policies:
///
/// * [`PauseAtCall::at_first`] — before the first tracked call (the flat
///   session prefix of one snapshot per `(target, workload)` pair);
/// * [`PauseAtCall::at_index`] — before the k-th tracked call (1-based),
///   used to materialize deeper snapshot-tree nodes along a known trace;
/// * [`PauseAtCall::at_function`] — before the first call to one specific
///   function, used to *discover* that function's depth while recording
///   every tracked call forwarded on the way in [`PauseAtCall::forwarded`].
///
/// The paused call is **not** counted or recorded: on resume (under any
/// handler) it is re-observed, so a handler that pauses must not be reused
/// to resume the same machine — it would pause on the same call forever.
#[derive(Debug, Clone)]
pub struct PauseAtCall {
    tracked: std::collections::BTreeSet<String>,
    mode: PauseMode,
    /// Tracked calls already forwarded (1-based position = injectable-call
    /// index). The paused call itself is in `paused_at`, not here.
    pub forwarded: Vec<String>,
    /// The function whose call triggered the pause, once paused.
    pub paused_at: Option<String>,
}

impl PauseAtCall {
    fn with_mode<I, S>(functions: I, mode: PauseMode) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall {
            tracked: functions.into_iter().map(Into::into).collect(),
            mode,
            forwarded: Vec::new(),
            paused_at: None,
        }
    }

    /// Pause before the first call to any of `functions`.
    pub fn at_first<I, S>(functions: I) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall::at_index(functions, 1)
    }

    /// Pause before the k-th (1-based) call to any of `functions`; the
    /// k-1 earlier tracked calls are forwarded and recorded in order.
    pub fn at_index<I, S>(functions: I, k: u64) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall::with_mode(functions, PauseMode::AtIndex(k.max(1)))
    }

    /// Pause before the *next* tracked call after a previous pause point —
    /// the single step of pause-at-each-call deepening. A machine paused by
    /// another `PauseAtCall` re-observes its paused call on resume, so this
    /// is `at_index(functions, 2)`: the re-observed call is forwarded (and
    /// recorded) and the machine stops before the one after it. Stepping a
    /// prefix with a fresh `at_next` handler per step therefore visits
    /// every injectable call exactly once, which is how one deepening pass
    /// can snapshot all intermediate depths instead of only its endpoint.
    pub fn at_next<I, S>(functions: I) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall::at_index(functions, 2)
    }

    /// Pause before the first call to `function` specifically, forwarding
    /// (and recording) calls to the other tracked `functions` on the way.
    pub fn at_function<I, S>(functions: I, function: impl Into<String>) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall::with_mode(functions, PauseMode::AtFunction(function.into()))
    }

    /// Never pause: run to the terminal state recording the complete
    /// tracked-call trace in [`PauseAtCall::forwarded`].
    pub fn trace_only<I, S>(functions: I) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall::with_mode(functions, PauseMode::AtIndex(u64::MAX))
    }
}

impl HookHandler for PauseAtCall {
    fn on_call(&mut self, func: &str, _ctx: &mut CallContext<'_>) -> HookAction {
        if !self.tracked.contains(func) {
            return HookAction::Forward;
        }
        let pause_here = match &self.mode {
            PauseMode::AtIndex(k) => self.forwarded.len() as u64 + 1 == *k,
            PauseMode::AtFunction(f) => f == func,
        };
        if pause_here {
            self.paused_at = Some(func.to_string());
            HookAction::Pause
        } else {
            self.forwarded.push(func.to_string());
            HookAction::Forward
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{FunctionAssoc, TriggerDecl};

    use super::*;

    fn singleton_scenario(func: &str) -> Scenario {
        Scenario::new()
            .with_trigger(TriggerDecl {
                id: "once".into(),
                class: "SingletonTrigger".into(),
                params: Default::default(),
                frames: vec![],
            })
            .with_function(FunctionAssoc {
                function: func.into(),
                argc: 3,
                retval: Some(-1),
                errno: Some(lfi_arch::errno::EIO),
                triggers: vec!["once".into()],
            })
    }

    #[test]
    fn engine_reports_interposed_functions() {
        let engine = InjectionEngine::new(singleton_scenario("read")).unwrap();
        assert_eq!(engine.interposed_functions(), vec!["read".to_string()]);
        assert_eq!(engine.log.injection_count(), 0);
    }

    #[test]
    fn unknown_trigger_classes_fail_at_compile_time() {
        let scenario = Scenario::new().with_trigger(TriggerDecl {
            id: "x".into(),
            class: "Bogus".into(),
            params: Default::default(),
            frames: vec![],
        });
        assert!(InjectionEngine::new(scenario).is_err());
    }

    #[test]
    fn invalid_scenarios_fail_at_engine_build_time() {
        // Undeclared trigger reference.
        let undeclared = Scenario::new().with_function(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: None,
            triggers: vec!["ghost".into()],
        });
        assert!(InjectionEngine::new(undeclared).is_err());
        // Duplicate trigger id.
        let dup = TriggerDecl {
            id: "once".into(),
            class: "SingletonTrigger".into(),
            params: Default::default(),
            frames: vec![],
        };
        let duplicated = Scenario::new().with_trigger(dup.clone()).with_trigger(dup);
        assert!(InjectionEngine::new(duplicated).is_err());
    }

    #[test]
    fn log_serializes_to_json() {
        let mut log = InjectionLog::default();
        log.records.push(InjectionRecord {
            function: "read".into(),
            retval: -1,
            errno: Some(5),
            call_count: 3,
            call_site: ("app".into(), 0x120),
            source: Some(("app.c".into(), 17)),
            triggers: vec!["t1".into()],
            clock: 999,
        });
        let json = log.to_json();
        assert!(json.contains("\"read\""));
        assert!(json.contains("app.c"));
        assert_eq!(log.injections_into("read"), 1);
        assert_eq!(log.injections_into("write"), 0);
    }
}
