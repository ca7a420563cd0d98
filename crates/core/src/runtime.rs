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

use crate::scenario::Scenario;
use crate::triggers::{Trigger, TriggerCtx, TriggerRegistry};

/// One recorded injection: a borrowed view into an [`InjectionLog`].
///
/// The log stores what is the same across repeats of one injection — the
/// function, return value, errno, call site, source location and trigger
/// ids — once per distinct site, so every field borrowed here is shared by
/// all the injections at that site. Only `call_count` and `clock` are the
/// injection's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectionRecord<'a> {
    /// Function whose call was failed.
    pub function: &'a str,
    /// Injected return value.
    pub retval: Word,
    /// Injected errno, if any.
    pub errno: Option<Word>,
    /// Which interception of this function this was (1-based).
    pub call_count: u64,
    /// Module and offset of the call site.
    pub call_site: (&'a str, u64),
    /// Source location of the call site, if debug info is present.
    pub source: Option<(&'a str, u32)>,
    /// Trigger ids of the conjunction that fired.
    pub triggers: &'a [String],
    /// Virtual time of the injection.
    pub clock: u64,
}

/// One distinct site of an [`InjectionLog`] and how often it injected: a
/// borrowed view yielded by [`InjectionLog::sites`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoggedSite<'a> {
    /// Function whose calls were failed.
    pub function: &'a str,
    /// Module and offset of the call site.
    pub call_site: (&'a str, u64),
    /// Injections made at this site.
    pub injections: u64,
}

/// Everything one association records identically at one call site.
#[derive(Debug, Clone)]
struct LogSite {
    /// Index of the association in the engine's scenario; with the call
    /// site it is the key the engine interns sites under.
    assoc: u32,
    function: String,
    retval: Word,
    errno: Option<Word>,
    call_site: (String, u64),
    source: Option<(String, u32)>,
    triggers: Vec<String>,
}

impl LogSite {
    fn matches(&self, assoc: u32, module: &str, offset: u64) -> bool {
        self.assoc == assoc && self.call_site.1 == offset && self.call_site.0 == module
    }
}

/// One injection: its site and what differs between repeats.
#[derive(Debug, Clone, Copy)]
struct LogEntry {
    /// Index into the log's sites.
    site: u32,
    call_count: u64,
    clock: u64,
}

/// The injection log of one test run.
///
/// Memory model: the log keeps one site per distinct (association, call
/// site), appended in first-injection order, and one fixed-size entry (24
/// bytes: site index, call count, clock) per injection. A repeat injection
/// at a known site copies no string and allocates nothing beyond the
/// entries vector's amortized growth, so a hung unit that fails the same
/// `recvfrom` 60,000 times holds one site and about 1.5 MB of entries.
/// [`InjectionLog::records`] reassembles each injection as a borrowed
/// [`InjectionRecord`], and two logs are equal when they hold the same
/// record sequence and counters.
#[derive(Debug, Clone, Default)]
pub struct InjectionLog {
    sites: Vec<LogSite>,
    entries: Vec<LogEntry>,
    /// Total interceptions observed (including ones that did not inject).
    pub interceptions: u64,
    /// Total trigger evaluations performed (measures short-circuiting).
    pub trigger_evaluations: u64,
}

impl PartialEq for InjectionLog {
    fn eq(&self, other: &InjectionLog) -> bool {
        self.interceptions == other.interceptions
            && self.trigger_evaluations == other.trigger_evaluations
            && self.records().eq(other.records())
    }
}

impl Eq for InjectionLog {}

impl InjectionLog {
    /// Number of injections performed.
    pub fn injection_count(&self) -> usize {
        self.entries.len()
    }

    /// The recorded injections, in injection order.
    pub fn records(
        &self,
    ) -> impl ExactSizeIterator<Item = InjectionRecord<'_>> + DoubleEndedIterator + '_ {
        self.entries.iter().map(|entry| {
            let site = &self.sites[entry.site as usize];
            InjectionRecord {
                function: &site.function,
                retval: site.retval,
                errno: site.errno,
                call_count: entry.call_count,
                call_site: (&site.call_site.0, site.call_site.1),
                source: site
                    .source
                    .as_ref()
                    .map(|(file, line)| (file.as_str(), *line)),
                triggers: &site.triggers,
                clock: entry.clock,
            }
        })
    }

    /// The log's distinct sites in first-injection order, each with its
    /// injection count. A call site failed under two associations yields
    /// one site per association.
    pub fn sites(&self) -> Vec<LoggedSite<'_>> {
        let mut counts = vec![0u64; self.sites.len()];
        for entry in &self.entries {
            counts[entry.site as usize] += 1;
        }
        self.sites
            .iter()
            .zip(counts)
            .map(|(site, injections)| LoggedSite {
                function: &site.function,
                call_site: (&site.call_site.0, site.call_site.1),
                injections,
            })
            .collect()
    }

    /// The interned site of association `assoc` at `(module, offset)`,
    /// checking the site of the latest injection first.
    fn find_site(&self, assoc: u32, module: &str, offset: u64) -> Option<u32> {
        let is_key = |site: &u32| self.sites[*site as usize].matches(assoc, module, offset);
        let last = self.entries.last().map(|entry| entry.site);
        last.filter(is_key)
            .or_else(|| (0..self.sites.len() as u32).find(is_key))
    }

    fn add_site(&mut self, site: LogSite) -> u32 {
        let index = u32::try_from(self.sites.len()).expect("fewer than 2^32 log sites");
        self.sites.push(site);
        index
    }

    fn push(&mut self, site: u32, call_count: u64, clock: u64) {
        self.entries.push(LogEntry {
            site,
            call_count,
            clock,
        });
    }

    /// Serialize the log as pretty JSON.
    pub fn to_json(&self) -> String {
        use lfi_json::Value;
        let records = self
            .records()
            .map(|r| {
                Value::Obj(vec![
                    ("function".to_string(), Value::Str(r.function.to_string())),
                    ("retval".to_string(), Value::Int(r.retval)),
                    ("errno".to_string(), r.errno.map_or(Value::Null, Value::Int)),
                    ("call_count".to_string(), Value::Int(r.call_count as i64)),
                    (
                        "call_site".to_string(),
                        Value::Arr(vec![
                            Value::Str(r.call_site.0.to_string()),
                            Value::Int(r.call_site.1 as i64),
                        ]),
                    ),
                    (
                        "source".to_string(),
                        r.source.map_or(Value::Null, |(file, line)| {
                            Value::Arr(vec![
                                Value::Str(file.to_string()),
                                Value::Int(i64::from(line)),
                            ])
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
    /// Position in the scenario's associations: with the call site, the
    /// key of this association's sites in the log.
    index: u32,
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
        let mut functions: Vec<&String> = self.functions.keys().collect();
        functions.sort();
        f.debug_struct("InjectionEngine")
            .field("functions", &functions)
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
        for (index, assoc) in scenario.functions.iter().enumerate() {
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
                    index: u32::try_from(index).expect("fewer than 2^32 associations"),
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
            if self.log.entries.len() as u64 >= limit {
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
            // A repeat injection at a known site only appends an entry: no
            // name copy and no line-table lookup.
            let (module, offset) = ctx.call_site();
            let site = match self.log.find_site(assoc.index, module, offset) {
                Some(site) => site,
                None => self.log.add_site(LogSite {
                    assoc: assoc.index,
                    function: func.to_string(),
                    retval,
                    errno: assoc.errno,
                    call_site: (module.to_string(), offset),
                    source: ctx.call_site_source(),
                    triggers: assoc
                        .trigger_indices
                        .iter()
                        .map(|&i| self.slots[i].id.clone())
                        .collect(),
                }),
            };
            self.log.push(site, count, ctx.clock());
            return HookAction::Return {
                value: retval,
                errno: assoc.errno,
            };
        }
        HookAction::Forward
    }
}

/// A handler that forwards every intercepted call until the first call to
/// a *tracked* function (an injectable library function), and pauses the
/// machine just before that call executes.
///
/// The pause happens *before* the call executes ([`HookAction::Pause`]
/// leaves the program counter on the call instruction and rolls the
/// counters back), so a [`lfi_vm::MachineSnapshot`] taken at the pause
/// point can be resumed under a different handler — typically an
/// [`InjectionEngine`] — which then observes that same call as its first
/// interception. This is the runtime half of session-based execution: the
/// workload prefix up to the first injectable library call runs once per
/// `(target, workload)` pair, and every injection scenario forks from
/// there.
///
/// The paused call does **not** execute: on resume (under any handler) it
/// is re-observed, so a handler that pauses must not be reused to resume
/// the same machine — it would pause on the same call forever.
#[derive(Debug, Clone)]
pub struct PauseAtCall {
    tracked: std::collections::BTreeSet<String>,
    /// The function whose call triggered the pause, once paused.
    pub paused_at: Option<String>,
}

impl PauseAtCall {
    /// Pause before the first call to any of `functions`.
    pub fn at_first<I, S>(functions: I) -> PauseAtCall
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        PauseAtCall {
            tracked: functions.into_iter().map(Into::into).collect(),
            paused_at: None,
        }
    }
}

impl HookHandler for PauseAtCall {
    fn on_call(&mut self, func: &str, _ctx: &mut CallContext<'_>) -> HookAction {
        if !self.tracked.contains(func) {
            return HookAction::Forward;
        }
        self.paused_at = Some(func.to_string());
        HookAction::Pause
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
        let site = log.add_site(LogSite {
            assoc: 0,
            function: "read".into(),
            retval: -1,
            errno: Some(5),
            call_site: ("app".into(), 0x120),
            source: Some(("app.c".into(), 17)),
            triggers: vec!["t1".into()],
        });
        log.push(site, 3, 999);
        let json = log.to_json();
        assert!(json.contains("\"read\""));
        assert!(json.contains("app.c"));
        assert_eq!(
            log.sites(),
            [LoggedSite {
                function: "read",
                call_site: ("app", 0x120),
                injections: 1,
            }]
        );
        let record = log.records().next().expect("one record");
        assert_eq!(record.call_site, ("app", 0x120));
        assert_eq!((record.call_count, record.clock), (3, 999));
    }

    #[test]
    fn a_log_entry_is_at_most_24_bytes() {
        assert!(std::mem::size_of::<LogEntry>() <= 24);
    }

    #[test]
    fn repeats_share_one_site_and_logs_compare_by_records() {
        let mut log = InjectionLog::default();
        let site = log.add_site(LogSite {
            assoc: 0,
            function: "read".into(),
            retval: -1,
            errno: None,
            call_site: ("app".into(), 8),
            source: None,
            triggers: Vec::new(),
        });
        log.push(site, 1, 10);
        assert_eq!(log.find_site(0, "app", 8), Some(site));
        assert_eq!(log.find_site(1, "app", 8), None, "another association");
        assert_eq!(log.find_site(0, "app", 16), None, "another call site");
        assert_eq!(log.find_site(0, "lib", 8), None, "another module");
        log.push(site, 2, 20);
        assert_eq!(log.sites.len(), 1);
        // A log holding a second site with the same content still holds
        // the same records: equality compares what `records()` yields.
        let mut twin = log.clone();
        twin.entries.pop();
        let copy = twin.add_site(LogSite {
            assoc: 1,
            ..twin.sites[0].clone()
        });
        twin.push(copy, 2, 20);
        assert_eq!(twin, log);
        assert_eq!(
            log.sites(),
            [LoggedSite {
                function: "read",
                call_site: ("app", 8),
                injections: 2,
            }]
        );
        let twin_counts: Vec<u64> = twin.sites().iter().map(|s| s.injections).collect();
        assert_eq!(twin_counts, [1, 1], "one site per association");
        twin.interceptions += 1;
        assert_ne!(twin, log);
    }

    #[test]
    fn engine_debug_lists_functions_in_name_order() {
        let mut scenario = Scenario::new();
        for function in ["write", "close", "read"] {
            scenario = scenario.with_function(FunctionAssoc {
                function: function.into(),
                argc: 3,
                retval: Some(-1),
                errno: None,
                triggers: vec![],
            });
        }
        let engine = InjectionEngine::new(scenario).unwrap();
        assert_eq!(
            format!("{engine:?}"),
            r#"InjectionEngine { functions: ["close", "read", "write"], injections: 0 }"#
        );
    }
}
