//! A ready-made [`Executor`] for the evaluation targets.
//!
//! [`StandardExecutor`] knows how to run every `*-lite` target the way the
//! paper's experiments do: the single-process programs under their default
//! test suites (bind-lite behind its networked client workload), and
//! bft-lite as a full 4-replica cluster.
//!
//! The executor profiles the stock libraries once, on first use
//! ([`StandardExecutor::profile`]): that profile enumerates and classifies
//! its fault spaces and names what its session images interpose.
//!
//! The executor implements both halves of the campaign engine's session
//! model:
//!
//! * **Fresh** ([`Executor::execute`]): each call builds a fresh controller
//!   and VM, so the executor is safe to share across workers.
//! * **Snapshot** ([`Executor::prepare`] / [`Executor::execute_from`]): one
//!   session per `(target, workload)` pair. The session image interposes
//!   *every* profiled failing library function (so one image serves every
//!   unit, whatever it injects), is cached per target (loader work shared
//!   across the target's workloads), and the workload runs once up to its
//!   first injectable call, where one root snapshot captures it. Every unit
//!   of the pair forks that root, reseeds the fork with its unit seed, and
//!   resumes under its own injection engine. bft-lite is a multi-process
//!   cluster and cannot snapshot; its `prepare` returns `None` and units
//!   fall back to fresh cluster runs, as do workloads whose prefix consumes
//!   randomness, crashes, blocks, or exhausts the instruction budget before
//!   the first injectable call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use lfi_analyzer::{analyze_program, AnalysisConfig};
use lfi_core::{
    Controller, InjectionEngine, InjectionLog, TestConfig, TestReport, TriggerRegistry, Workload,
};
use lfi_obj::Module;
use lfi_profiler::FaultProfile;
use lfi_targets::{
    bft_lite, bind_lite, db_lite, git_lite, httpd_lite, networked_controller, run_bft_cluster,
    standard_controller, BftClusterConfig, BindWorkload, FsSetupWorkload,
};
use lfi_telemetry::{Counter, Histogram, Telemetry};
use lfi_vm::{Coverage, Fault, Image, Machine, MachineSnapshot, NetHandle, NoHooks, RunExit};

use crate::engine::{
    derive_seed, CrashInfo, Execution, Executor, InjectedSite, OutcomeKind, Session, WorkUnit,
};
use crate::space::{FaultSpace, PruneStats};

/// Every stock evaluation target.
pub const STOCK_TARGETS: [&str; 5] = ["bind-lite", "git-lite", "db-lite", "bft-lite", "httpd-lite"];

fn stock_target(name: &str) -> Module {
    match name {
        "bind-lite" => bind_lite(),
        "git-lite" => git_lite(),
        "db-lite" => db_lite(),
        "bft-lite" => bft_lite(),
        "httpd-lite" => httpd_lite(),
        other => panic!("unknown target {other}"),
    }
}

/// The default per-target workloads (program arguments per run) — the
/// "default test suite" each system ships with in the reproduction.
pub fn default_test_suite(target: &str) -> Vec<Vec<String>> {
    match target {
        "git-lite" => vec![
            vec!["init".into()],
            vec!["add".into(), "/repo/README.md".into()],
            vec!["add".into(), "/repo/main.c".into()],
            vec!["commit".into(), "initial".into()],
            vec!["log".into()],
            vec!["diff".into(), "3".into(), "4".into()],
            vec!["check-head".into()],
        ],
        "db-lite" => vec![
            vec!["bootstrap".into()],
            vec!["oltp".into(), "30".into(), "1".into()],
            vec!["oltp".into(), "30".into(), "0".into()],
            vec!["merge-big".into(), "2".into()],
        ],
        "bind-lite" => vec![vec!["4".into()]],
        "httpd-lite" => vec![vec!["50".into(), "1".into()], vec!["50".into(), "2".into()]],
        // The cluster target runs once per fault point; arguments are
        // supplied by the cluster harness.
        "bft-lite" => vec![vec![]],
        other => panic!("no default test suite for {other}"),
    }
}

/// The controller, workload and configuration a run of `target` uses:
/// bind-lite runs behind its networked client workload, which also
/// dictates the arguments; every other single-process target runs
/// `config.args` on the standard file-system setup.
fn harness(target: &str, config: TestConfig) -> (Controller, Box<dyn Workload>, TestConfig) {
    if target == "bind-lite" {
        let net = NetHandle::default();
        let workload = BindWorkload::typical(net.clone());
        let config = TestConfig {
            args: vec![workload.request_count().to_string()],
            ..config
        };
        (networked_controller(net), Box::new(workload), config)
    } else {
        (standard_controller(), Box::new(FsSetupWorkload), config)
    }
}

/// Run one workload of a single-process target under a scenario on a fresh
/// VM with a per-run budget of `max_instructions`, wiring up the right
/// controller and workload (bind-lite runs behind its networked client
/// workload, which also dictates the arguments). Shared by the campaign
/// executor and the bench experiment harnesses; campaigns pass their
/// [`StandardExecutor::set_max_instructions`] budget, so fresh and
/// snapshot execution keep identical budget accounting.
pub fn run_target(
    target: &str,
    exe: &Module,
    scenario: &lfi_core::Scenario,
    args: Vec<String>,
    record_coverage: bool,
    seed: u64,
    max_instructions: u64,
) -> TestReport {
    let (controller, mut workload, config) = harness(
        target,
        TestConfig {
            args,
            record_coverage,
            seed,
            max_instructions,
            ..TestConfig::default()
        },
    );
    controller
        .run_test(exe, scenario, workload.as_mut(), &config)
        .unwrap_or_else(|e| panic!("{target} run: {e}"))
}

/// A `(target, workload arguments)` session key.
type SessionKey = (String, Vec<String>);

/// One prepared session: the workload paused at its first injectable call
/// (or finished, when it makes none), which every unit of the pair forks.
struct PreparedSession {
    root: MachineSnapshot,
    /// Coverage recorded by the prefix, stripped out of `root` so injection
    /// forks do not clone it.
    prefix_coverage: Coverage,
    /// The instruction budget a fork has left: the per-run budget minus the
    /// prefix's consumption, so budget exhaustion behaves exactly like a
    /// fresh run.
    budget_left: u64,
}

impl PreparedSession {
    /// Fork the root; returns the machine and its remaining budget.
    fn fork(&self) -> (Machine, u64) {
        (self.root.fork(), self.budget_left)
    }
}

/// Pre-resolved telemetry handles for the executor's hot paths, so forks
/// never take the registry's name-lookup mutex.
struct ExecMetrics {
    /// Wall time of the whole static-analysis phase of `fault_space`
    /// (classification, propagation, and pruning, per call).
    analysis_micros: Histogram,
    /// Fault points examined by the static-prune pass.
    analysis_sites_total: Counter,
    /// Fault points demoted because propagation proved the error handled.
    analysis_sites_pruned: Counter,
    /// Fault points whose analysis came from a truncated CFG walk.
    analysis_sites_low_confidence: Counter,
    session_prepare_micros: Histogram,
    /// Forks of a session root, one per snapshot-backend unit. Registered
    /// as `tree_fork_hits`, the name perfbench's `tree.fork_hit_rate`
    /// divides by.
    fork_hits: Counter,
}

impl ExecMetrics {
    fn resolve(telemetry: &Telemetry) -> ExecMetrics {
        ExecMetrics {
            analysis_micros: telemetry.histogram("analysis_micros"),
            analysis_sites_total: telemetry.counter("analysis_sites_total"),
            analysis_sites_pruned: telemetry.counter("analysis_sites_pruned"),
            analysis_sites_low_confidence: telemetry.counter("analysis_sites_low_confidence"),
            session_prepare_micros: telemetry.histogram("session_prepare_micros"),
            fork_hits: telemetry.counter("tree_fork_hits"),
        }
    }
}

/// Executes campaign work units against the stock `*-lite` targets.
pub struct StandardExecutor {
    targets: BTreeMap<String, Module>,
    /// The merged fault profile of the stock libraries, computed on first
    /// use. Session images interpose every function it can fail, the
    /// superset of what any unit injects, so one snapshot serves every unit
    /// of its `(target, workload)` pair; an engine with no association for
    /// an intercepted function counts the call and forwards it.
    profile: OnceLock<FaultProfile>,
    /// Loaded session images per target: the loader's layout and
    /// instruction-predecoding work is shared by all of the target's
    /// workload sessions (and their forks).
    images: Mutex<BTreeMap<String, Arc<Image>>>,
    /// Prepared sessions per `(target, workload arguments)`, built at most
    /// once each, under the map's lock. This is the one cache of sessions:
    /// it outlives every campaign run on this executor, so baseline
    /// reachability warms it and every later run, such as a worker's next
    /// lease, reuses it. `None` records that the pair refused to snapshot
    /// (e.g. its prefix consumed randomness, crashed, blocked, or exhausted
    /// the instruction budget before the first injectable call).
    prepared: Mutex<BTreeMap<SessionKey, Option<Arc<PreparedSession>>>>,
    /// The stock trigger registry every forked unit's engine is compiled
    /// with, built once per executor.
    registry: TriggerRegistry,
    /// Per-run instruction budget, applied identically to fresh runs and
    /// session prefixes/forks so the backends exhaust budgets at the same
    /// boundary.
    max_instructions: u64,
    /// Resident bytes of every prepared session's root snapshot.
    snapshot_bytes: AtomicU64,
    /// Client requests issued per bft-lite cluster run.
    pub bft_requests: usize,
    /// Registry campaign telemetry is recorded into. A fresh enabled
    /// registry by default; install [`Telemetry::disabled`] via
    /// [`StandardExecutor::set_telemetry`] to reduce instrumentation to a
    /// few branch checks per fork.
    telemetry: Telemetry,
    /// Pre-resolved handles into `telemetry` for the hot paths.
    metrics: ExecMetrics,
}

impl Default for StandardExecutor {
    fn default() -> Self {
        StandardExecutor::all()
    }
}

impl StandardExecutor {
    /// An executor over the given subset of stock targets. Only the named
    /// targets are compiled and loadable — a hunt over four targets does not
    /// pay for the fifth. Panics on unknown target names.
    pub fn new(targets: &[&str]) -> StandardExecutor {
        let telemetry = Telemetry::new();
        StandardExecutor {
            targets: targets
                .iter()
                .map(|name| (name.to_string(), stock_target(name)))
                .collect(),
            profile: OnceLock::new(),
            images: Mutex::new(BTreeMap::new()),
            prepared: Mutex::new(BTreeMap::new()),
            registry: TriggerRegistry::default(),
            max_instructions: TestConfig::default().max_instructions,
            snapshot_bytes: AtomicU64::new(0),
            bft_requests: 4,
            metrics: ExecMetrics::resolve(&telemetry),
            telemetry,
        }
    }

    /// Install the telemetry registry campaign metrics are recorded into.
    /// Pass [`Telemetry::disabled`] to turn collection off (the
    /// constructor installs an enabled registry). Call before units
    /// execute so the whole campaign is accounted in one registry.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.metrics = ExecMetrics::resolve(&telemetry);
        self.telemetry = telemetry;
    }

    /// Override the per-run instruction budget. Applies to fresh runs and
    /// sessions alike; call before any unit executes so every run of the
    /// campaign is accounted under the same budget.
    pub fn set_max_instructions(&mut self, max_instructions: u64) {
        self.max_instructions = max_instructions;
    }

    /// The merged fault profile of the stock libraries, computed once.
    pub fn profile(&self) -> &FaultProfile {
        self.profile
            .get_or_init(|| standard_controller().profile_libraries())
    }

    /// An executor over every stock target.
    pub fn all() -> StandardExecutor {
        StandardExecutor::new(&STOCK_TARGETS)
    }

    /// The module of one target.
    pub fn target(&self, name: &str) -> Option<&Module> {
        self.targets.get(name)
    }

    /// Enumerate the fault space of the given targets (every call site of
    /// every profiled failing function), annotated with the call-site
    /// analyzer's classification and the interprocedural propagation
    /// verdicts, then run the static-prune pass: points whose error return
    /// is provably handled are demoted (explored last, fast-pruned by the
    /// adaptive scheduler once runtime evidence corroborates the proof).
    /// Enumeration and classification both use `profile`. The phase's
    /// duration and prune counts land in the executor's telemetry
    /// (`analysis_micros`, `analysis_sites_*`).
    pub fn fault_space(&self, targets: &[&str], profile: &FaultProfile) -> FaultSpace {
        let _span = self.metrics.analysis_micros.start();
        let controller = standard_controller();
        let mut space = FaultSpace::new();
        for name in targets {
            let exe = self
                .target(name)
                .unwrap_or_else(|| panic!("unknown target {name}"));
            space.add_target(name, exe, profile);
            let reports = analyze_program(exe, profile, AnalysisConfig::default());
            space.annotate_analysis(name, &reports);
            space.annotate_propagation(name, &controller.analyze_propagation(exe, &reports));
        }
        self.record_analysis(space.static_prune());
        space
    }

    /// Add one analysis pass's prune counts to the executor's telemetry
    /// (`analysis_sites_*`). [`fault_space`](Self::fault_space) records
    /// its own pass; a process that takes an annotated space from another
    /// records that space's counts here, so its metrics read the same.
    pub fn record_analysis(&self, stats: PruneStats) {
        self.metrics.analysis_sites_total.add(stats.total as u64);
        self.metrics.analysis_sites_pruned.add(stats.demoted as u64);
        self.metrics
            .analysis_sites_low_confidence
            .add(stats.low_confidence as u64);
    }

    /// The loaded session image of a target (built on first use).
    fn session_image(&self, target: &str) -> Arc<Image> {
        let mut images = self.images.lock().unwrap();
        images
            .entry(target.to_string())
            .or_insert_with(|| {
                let exe = self
                    .target(target)
                    .unwrap_or_else(|| panic!("unknown target {target}"));
                standard_controller()
                    .build_image(exe, &self.profile().failing_functions())
                    .expect("stock target must load")
            })
            .clone()
    }

    /// Build the session of one `(target, workload)` pair: set up the
    /// workload, run to the first injectable call, snapshot. Coverage
    /// recording stays on during the prefix and in the root, so
    /// baseline-reachability forks keep accumulating; injection forks
    /// switch it off.
    ///
    /// Returns `None` — refusing to snapshot, so the pair's units run
    /// fresh — when resuming the prefix could not reproduce fresh-VM
    /// behavior:
    ///
    /// * the prefix ended abnormally ([`RunExit::Fault`], [`RunExit::Blocked`]
    ///   or [`RunExit::Budget`]) instead of pausing at an injectable call or
    ///   exiting cleanly — a fork of such a state would resume mid-crash;
    /// * the prefix already consumed the whole instruction budget, so a
    ///   fork would have zero budget where a fresh run still reports the
    ///   prefix's own termination;
    /// * the prefix consumed randomness: forks reseed the RNG with their
    ///   unit seed, which replays fresh-VM behavior only from an untouched
    ///   stream.
    fn build_session(&self, target: &str, args: &[String]) -> Option<PreparedSession> {
        let _span = self.metrics.session_prepare_micros.start();
        let (controller, mut workload, config) = harness(
            target,
            TestConfig {
                args: args.to_vec(),
                record_coverage: true,
                max_instructions: self.max_instructions,
                ..TestConfig::default()
            },
        );
        let image = self.session_image(target);
        let pause_at = self.profile().failing_functions();
        let mut prep = controller.prepare_session(image, &pause_at, workload.as_mut(), &config);
        let budget_left = prep.fork_budget(self.max_instructions)?;
        if !prep.machine.rng_is_pristine() {
            return None;
        }
        let prefix_coverage = prep.machine.take_coverage();
        let root = prep.machine.snapshot();
        self.snapshot_bytes
            .fetch_add(root.resident_bytes(), Ordering::Relaxed);
        Some(PreparedSession {
            root,
            prefix_coverage,
            budget_left,
        })
    }

    /// The memoized session of a `(target, workload)` pair, or `None` when
    /// the pair cannot snapshot (the multi-process bft-lite cluster, or a
    /// prefix that consumed randomness). The refusal is memoized too. A
    /// miss builds the session while holding the memo's lock, so callers
    /// on other threads wait for it; the engine prepares only on its
    /// driver thread, so no unit waits.
    fn prepared_session(&self, target: &str, args: &[String]) -> Option<Arc<PreparedSession>> {
        if target == "bft-lite" || !self.targets.contains_key(target) {
            return None;
        }
        self.prepared
            .lock()
            .unwrap()
            .entry((target.to_string(), args.to_vec()))
            .or_insert_with(|| self.build_session(target, args).map(Arc::new))
            .clone()
    }

    /// Number of `(target, workload)` sessions prepared so far.
    pub fn sessions_prepared(&self) -> usize {
        self.prepared.lock().unwrap().values().flatten().count()
    }

    /// Run each single-process target's default suite once with no
    /// injections, recording coverage, and annotate the space with which
    /// call sites the baseline reaches — the signal `InjectionGuided`
    /// prunes on. (Cluster targets are left unannotated.)
    ///
    /// The baseline reuses the prepared session snapshots: each workload's
    /// shared prefix (which already recorded coverage) is forked and run to
    /// completion with no hooks, instead of re-running the whole workload
    /// from scratch — and the sessions prepared here are the same ones a
    /// subsequent snapshot-backend campaign forks its units from.
    ///
    /// `seed` should be the campaign's base seed: each workload's fork is
    /// reseeded with a [`derive_seed`]-mixed per-workload seed and the
    /// coverage is merged, so the baseline samples the same mixed-seed
    /// family campaign units run under instead of a fixed out-of-band seed.
    /// This is a heuristic, not a guarantee: units of a point run under
    /// per-unit derived seeds, and profiling each of those would cost one
    /// baseline run per unit, so a workload whose control flow is extremely
    /// seed-sensitive can still be annotated unreached on a site some unit
    /// seed would reach.
    pub fn annotate_baseline_reachability(&self, space: &mut FaultSpace, seed: u64) {
        for target in space.targets() {
            if target == "bft-lite" {
                continue; // cluster target: left unannotated
            }
            let Some(exe) = self.target(&target) else {
                continue;
            };
            let mut baseline = Coverage::new();
            for (workload, args) in default_test_suite(&target).into_iter().enumerate() {
                let workload_seed = derive_seed(seed, workload as u64);
                match self.prepared_session(&target, &args) {
                    Some(prepared) => {
                        let (mut machine, budget_left) = prepared.fork();
                        machine.reseed(workload_seed);
                        machine.run(&mut NoHooks, budget_left);
                        baseline.merge(&prepared.prefix_coverage);
                        baseline.merge(&machine.coverage);
                    }
                    // A pair that refuses to snapshot still contributes its
                    // baseline coverage the pre-session way: one full
                    // no-fault run.
                    None => {
                        let report = run_target(
                            &target,
                            exe,
                            &lfi_core::Scenario::new(),
                            args,
                            true,
                            workload_seed,
                            self.max_instructions,
                        );
                        baseline.merge(&report.coverage);
                    }
                }
            }
            space.annotate_reached(&target, &baseline);
        }
    }

    fn resolve_caller(&self, module: &str, offset: u64) -> Option<String> {
        self.targets
            .get(module)
            .and_then(|m| m.containing_function(offset))
            .map(|e| e.name.clone())
    }

    fn crash_info(&self, fault: &Fault) -> CrashInfo {
        CrashInfo {
            module: fault.module.clone(),
            offset: fault.offset,
            description: fault.to_string(),
            in_function: self.resolve_caller(&fault.module, fault.offset),
            backtrace: fault
                .backtrace
                .iter()
                .filter_map(|frame| frame.function.clone())
                .collect(),
        }
    }

    /// The call sites where `function` was actually failed, per the
    /// injection logs (a single-process run has one; a cluster run one per
    /// node, replicas first) — the same accounting for fresh and forked
    /// runs. One entry per distinct call site with its injection count, in
    /// first-injection order, log by log; the caller is resolved once per
    /// call site.
    fn injected_sites<'a>(
        &self,
        logs: impl IntoIterator<Item = &'a InjectionLog>,
        function: &str,
    ) -> Vec<InjectedSite> {
        let mut sites: Vec<InjectedSite> = Vec::new();
        for log in logs {
            for site in log.sites().into_iter().filter(|s| s.function == function) {
                let (module, offset) = site.call_site;
                match sites
                    .iter_mut()
                    .find(|known| known.offset == offset && known.module == module)
                {
                    Some(known) => known.count += site.injections,
                    None => sites.push(InjectedSite {
                        module: module.to_string(),
                        offset,
                        caller: self.resolve_caller(module, offset),
                        count: site.injections,
                    }),
                }
            }
        }
        sites
    }

    fn execute_single(&self, exe: &Module, unit: &WorkUnit) -> Execution {
        let report = run_target(
            &unit.point.target,
            exe,
            &unit.scenario,
            unit.args.clone(),
            false,
            unit.seed,
            self.max_instructions,
        );
        let (outcome, crashes) = self.classify(&report.exit);
        Execution {
            outcome,
            injections: report.injections.injection_count() as u64,
            injected_sites: self.injected_sites([&report.injections], &unit.point.function),
            crashes,
            virtual_time: report.virtual_time,
        }
    }

    /// A single-process run's outcome and crash from how it exited, the
    /// same for fresh and forked runs. A pause can only come from a pause
    /// handler, which no unit run installs; it counts as a hang.
    fn classify(&self, exit: &RunExit) -> (OutcomeKind, Vec<CrashInfo>) {
        match exit {
            RunExit::Exited(0) => (OutcomeKind::Passed, Vec::new()),
            RunExit::Exited(code) => (OutcomeKind::CleanFailure(*code), Vec::new()),
            RunExit::Fault(fault) => (OutcomeKind::Crashed, vec![self.crash_info(fault)]),
            RunExit::Blocked | RunExit::Budget | RunExit::Paused => (OutcomeKind::Hung, Vec::new()),
        }
    }

    /// The configuration a bft-lite unit's cluster runs under: the unit's
    /// seed and scenario, [`StandardExecutor::bft_requests`] requests, and
    /// the instruction budget as the global cluster budget.
    pub fn cluster_config(&self, unit: &WorkUnit) -> BftClusterConfig {
        BftClusterConfig {
            requests: self.bft_requests,
            seed: unit.seed,
            scenario: unit.scenario.clone(),
            budget: self.max_instructions,
            ..BftClusterConfig::default()
        }
    }

    fn execute_cluster(&self, unit: &WorkUnit) -> Execution {
        let result = run_bft_cluster(&self.cluster_config(unit));
        let crashes: Vec<CrashInfo> = result
            .crashes
            .iter()
            .map(|(_node, fault)| self.crash_info(fault))
            .collect();
        // No crash but lost requests means the cluster stalled — a
        // liveness/availability failure, not a pass.
        let outcome = if !crashes.is_empty() {
            OutcomeKind::Crashed
        } else if result.completed < self.bft_requests as i64 {
            OutcomeKind::Hung
        } else {
            OutcomeKind::Passed
        };
        Execution {
            outcome,
            injections: result.injections,
            injected_sites: self.injected_sites(
                result.logs.iter().map(|(_node, log)| log),
                &unit.point.function,
            ),
            crashes,
            virtual_time: result.virtual_time,
        }
    }
}

impl Executor for StandardExecutor {
    fn workloads(&self, target: &str) -> Vec<Vec<String>> {
        default_test_suite(target)
    }

    fn prepare(&self, target: &str, args: &[String]) -> Option<Session> {
        self.prepared_session(target, args).map(Session::new)
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }

    fn execute_from(&self, session: &Session, unit: &WorkUnit) -> Execution {
        let prepared = session
            .downcast_ref::<Arc<PreparedSession>>()
            .expect("session prepared by StandardExecutor");
        // The prefix left the RNG untouched, so reseeding the fork here
        // leaves the unit's stream in exactly the state a fresh run's would
        // be at the same point.
        let (mut machine, budget_left) = prepared.fork();
        self.metrics.fork_hits.inc();
        machine.reseed(unit.seed);
        machine.set_record_coverage(false);
        // The stock registry, as on the fresh path.
        let mut engine = InjectionEngine::with_registry(&unit.scenario, &self.registry)
            .expect("unit scenario must compile");
        let (outcome, crashes) = self.classify(&machine.run(&mut engine, budget_left));
        Execution {
            outcome,
            injections: engine.log.injection_count() as u64,
            injected_sites: self.injected_sites([&engine.log], &unit.point.function),
            crashes,
            virtual_time: machine.clock(),
        }
    }

    fn execute(&self, unit: &WorkUnit) -> Execution {
        if unit.point.target == "bft-lite" {
            return self.execute_cluster(unit);
        }
        let exe = self
            .target(&unit.point.target)
            .unwrap_or_else(|| panic!("unknown target {}", unit.point.target));
        self.execute_single(exe, unit)
    }
}

#[cfg(test)]
mod tests {
    use lfi_analyzer::{iter_sites, CallSiteClass};
    use lfi_profiler::ErrorCase;
    use lfi_targets::all_targets;

    use super::*;

    #[test]
    fn suites_cover_every_runnable_target() {
        for (name, _) in all_targets() {
            assert!(
                !default_test_suite(name).is_empty(),
                "{name} needs a default suite"
            );
        }
    }

    #[test]
    fn subset_executors_only_load_requested_targets() {
        let executor = StandardExecutor::new(&["git-lite"]);
        assert!(executor.target("git-lite").is_some());
        assert!(executor.target("httpd-lite").is_none());
        assert!(
            executor.profile.get().is_none(),
            "the library profile is not computed until first use"
        );
        assert!(
            !executor.profile().failing_functions().is_empty(),
            "session images need the profiled failing-function union"
        );
    }

    #[test]
    fn fault_space_classifies_with_the_profile_it_is_given() {
        let executor = StandardExecutor::new(&["git-lite"]);
        let exe = executor.target("git-lite").unwrap();
        // An extra error return no call site compares against: a site that
        // checked every stock error code by equality now checks only some.
        let mut profile = executor.profile().clone();
        for function in profile.functions.values_mut() {
            if !function.error_cases.is_empty() {
                function.error_cases.push(ErrorCase {
                    retval: 0x5eed,
                    errno: None,
                });
            }
        }
        let classes = |profile: &FaultProfile| -> BTreeMap<(String, u64), CallSiteClass> {
            iter_sites(&analyze_program(exe, profile, AnalysisConfig::default()))
                .map(|(report, site)| ((report.function.clone(), site.offset), site.class))
                .collect()
        };
        let expected = classes(&profile);
        assert_ne!(expected, classes(executor.profile()), "no class changed");
        let space = executor.fault_space(&["git-lite"], &profile);
        assert!(!space.is_empty());
        for point in &space.points {
            let key = (point.function.clone(), point.offset);
            assert_eq!(point.class, expected.get(&key).copied(), "{key:?}");
        }
    }

    #[test]
    fn sessions_are_memoized_per_target_and_workload() {
        let executor = StandardExecutor::new(&["git-lite", "bft-lite"]);
        assert!(
            executor.prepare("bft-lite", &[]).is_none(),
            "cluster targets cannot snapshot"
        );
        let args = vec!["init".to_string()];
        let first = executor.prepared_session("git-lite", &args).unwrap();
        let second = executor.prepared_session("git-lite", &args).unwrap();
        assert!(Arc::ptr_eq(&first, &second), "same pair, same session");
        assert_eq!(executor.sessions_prepared(), 1);
        // A different workload of the same target is its own session, but
        // shares the loaded image.
        executor
            .prepared_session("git-lite", &["log".to_string()])
            .unwrap();
        assert_eq!(executor.sessions_prepared(), 2);
        assert_eq!(executor.images.lock().unwrap().len(), 1);
    }
}
