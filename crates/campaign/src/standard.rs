//! A ready-made [`Executor`] for the evaluation targets.
//!
//! [`StandardExecutor`] knows how to run every `*-lite` target the way the
//! paper's experiments do: the single-process programs under their default
//! test suites (bind-lite behind its networked client workload), and
//! bft-lite as a full 4-replica cluster.
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
//!   first injectable call, where a [`MachineSnapshot`] captures the tree's
//!   root. The session then grows a *snapshot tree* keyed by
//!   injectable-call index: a unit injecting a function first called at
//!   call `k` forks the deepest resident snapshot certified to precede
//!   call `k` — paying the prefix from the root once per function instead
//!   of once per unit — reseeds the fork with its unit seed, and resumes
//!   under its own injection engine. Deepening only extends the tree while
//!   the run stays deterministic (pristine RNG, normal exits); anything
//!   else caps the tree and units fall back to shallower nodes. Resident
//!   snapshots are bounded by a byte budget with least-recently-used
//!   eviction. bft-lite is a multi-process cluster and cannot snapshot;
//!   its `prepare` returns `None` and units fall back to fresh cluster
//!   runs, as do workloads whose prefix consumes randomness, crashes,
//!   blocks, or exhausts the instruction budget before the first
//!   injectable call.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

use lfi_core::{InjectionEngine, InjectionLog, TestConfig, TestOutcome, TestReport};
use lfi_obj::Module;
use lfi_profiler::FaultProfile;
use lfi_targets::{
    bft_lite, bind_lite, db_lite, git_lite, httpd_lite, networked_controller, run_bft_cluster,
    standard_controller, BftClusterConfig, BindWorkload, FsSetupWorkload,
};
use lfi_telemetry::{Counter, Gauge, Histogram, Telemetry};
use lfi_vm::{Coverage, Fault, Image, Machine, MachineSnapshot, NetHandle, NoHooks, RunExit};

use crate::engine::{
    derive_seed, CrashInfo, Execution, Executor, InjectedSite, OutcomeKind, PrefetchKey, Session,
    WorkUnit, DEFAULT_SNAPSHOT_BUDGET,
};
use crate::space::FaultSpace;

/// Bound on how long a fork waits for a concurrent claimed deepening pass
/// to materialize its want before giving up and forking the deepest
/// resident ancestor instead (correct either way — waiting only buys a
/// deeper fork point).
const DEEPEN_WAIT_BOUND: Duration = Duration::from_millis(250);

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

/// Run one workload of a single-process target under a scenario on a fresh
/// VM, wiring up the right controller and workload (bind-lite runs behind
/// its networked client workload, which also dictates the arguments).
/// Shared by the campaign executor and the bench experiment harnesses.
pub fn run_target(
    target: &str,
    exe: &Module,
    scenario: &lfi_core::Scenario,
    args: Vec<String>,
    record_coverage: bool,
    seed: u64,
) -> TestReport {
    run_target_with_budget(
        target,
        exe,
        scenario,
        args,
        record_coverage,
        seed,
        TestConfig::default().max_instructions,
    )
}

/// [`run_target`] with an explicit per-run instruction budget, so campaigns
/// with a configured [`StandardExecutor::set_max_instructions`] budget keep
/// fresh and snapshot execution on identical budget accounting.
pub fn run_target_with_budget(
    target: &str,
    exe: &Module,
    scenario: &lfi_core::Scenario,
    args: Vec<String>,
    record_coverage: bool,
    seed: u64,
    max_instructions: u64,
) -> TestReport {
    if target == "bind-lite" {
        let net = NetHandle::default();
        let controller = networked_controller(net.clone());
        let mut workload = BindWorkload::typical(net);
        let config = TestConfig {
            args: vec![workload.request_count().to_string()],
            record_coverage,
            seed,
            max_instructions,
            ..TestConfig::default()
        };
        controller
            .run_test(exe, scenario, &mut workload, &config)
            .expect("bind-lite run")
    } else {
        let controller = standard_controller();
        let config = TestConfig {
            args,
            record_coverage,
            seed,
            max_instructions,
            ..TestConfig::default()
        };
        controller
            .run_test(exe, scenario, &mut FsSetupWorkload, &config)
            .expect("target run")
    }
}

/// A `(target, workload arguments)` session key.
type SessionKey = (String, Vec<String>);
/// One memo slot, built at most once; `None` records that the pair refused
/// to snapshot (e.g. its prefix consumed randomness, crashed, blocked, or
/// exhausted the instruction budget before the first injectable call).
type SessionSlot = Arc<OnceLock<Option<Arc<PreparedSession>>>>;

/// Shared accounting for the resident-snapshot byte budget: one cap and
/// usage counter per executor, updated by every session tree as nodes are
/// inserted and evicted. A tree that pushes `used` over `cap` evicts its
/// own least-recently-used nodes; other trees trim themselves on their next
/// insertion, so the cap is enforced cooperatively across sessions.
struct SnapshotBudget {
    cap: AtomicU64,
    used: AtomicU64,
}

impl SnapshotBudget {
    fn new(cap: u64) -> SnapshotBudget {
        SnapshotBudget {
            cap: AtomicU64::new(cap),
            used: AtomicU64::new(0),
        }
    }
}

/// One resident node of a session's snapshot tree.
struct SnapshotNode {
    /// 1-based injectable-call depth: the snapshot is paused just before
    /// the `depth`-th injectable call of the workload (the root is depth 1,
    /// today's flat-session pause point).
    depth: usize,
    /// Depth of the node this one was deepened from, for walking the
    /// incremental-coverage chain (the root is its own parent).
    parent_depth: usize,
    snapshot: MachineSnapshot,
    /// Coverage recorded between the parent node and this one — each node
    /// stores only its increment; merging the increments down the path
    /// reconstructs the full prefix coverage (the root's share lives in
    /// [`PreparedSession::prefix_coverage`]).
    post_coverage: Coverage,
    /// [`MachineSnapshot::resident_bytes`] at creation, charged against the
    /// executor's snapshot budget.
    bytes: u64,
    /// LRU stamp: the tree's tick at the last fork taken from this node.
    last_use: u64,
}

/// The per-`(target, workload)` snapshot tree: resident prefix snapshots
/// keyed by injectable-call index, plus the certified call trace they are
/// indexed by.
struct SnapshotTree {
    /// `trace[i]` is the function of injectable call `i + 1`. Only extended
    /// while the RNG stayed pristine, so every entry is certified
    /// deterministic (seed-independent) and `at_index` replays along it are
    /// guaranteed to reproduce it.
    trace: Vec<String>,
    /// Memoized first-call depths over `trace`: function → 1-based index of
    /// its first certified call. Maintained by [`SnapshotTree::record_calls`]
    /// so [`SnapshotTree::depth_of`] never rescans the trace on a fork.
    first_depth: BTreeMap<String, usize>,
    /// Resident nodes in ascending depth order; `nodes[0]` is the root and
    /// is never evicted.
    nodes: Vec<SnapshotNode>,
    /// The trace covers the whole workload: no injectable calls exist
    /// beyond it (the prefix, or a deepening run, ran to a clean exit).
    complete: bool,
    /// Deepening is disabled: a deepening run consumed randomness or ended
    /// abnormally, so the trace cannot be extended. Resident nodes (all
    /// certified before the cap) stay valid, and exact depths within the
    /// certified trace can still be materialized.
    capped: bool,
    /// A claimed deepening pass ([`StandardExecutor::deepen_shared`]) is
    /// walking this tree. Exactly one pass runs at a time; workers that
    /// need deepening while a claim is held register their want below and
    /// wait on [`PreparedSession::deepened`] instead of duplicating the
    /// walk.
    deepening: bool,
    /// Exact depths workers/prefetchers want materialized. Consumed by the
    /// claimed pass; reconciled against tree state by
    /// [`SnapshotTree::normalize_wants`].
    wanted_depths: BTreeSet<usize>,
    /// Functions whose first-call depth is still unknown (discovery wants);
    /// once the trace places one, it becomes an exact-depth want.
    wanted_functions: BTreeSet<String>,
    /// Monotonic fork counter driving the LRU stamps.
    ticks: u64,
}

impl SnapshotTree {
    /// The 1-based depth of the workload's first call to `function`, when
    /// it lies within the certified trace (memoized — O(log n) map lookup).
    fn depth_of(&self, function: &str) -> Option<usize> {
        self.first_depth.get(function).copied()
    }

    /// Whether a node at exactly `depth` is resident.
    fn resident(&self, depth: usize) -> bool {
        self.nodes.iter().any(|n| n.depth == depth)
    }

    /// Reconcile the registered wants with the tree's current state:
    /// discovery wants the certified trace now places become exact-depth
    /// wants (clamped to `max_depth`), discovery wants on a tree whose
    /// trace can no longer extend are dropped, and depth wants already
    /// resident — or outside the certified/capped reach — are dropped.
    fn normalize_wants(&mut self, max_depth: usize) {
        let placed: Vec<(String, usize)> = self
            .wanted_functions
            .iter()
            .filter_map(|f| self.first_depth.get(f).map(|&d| (f.clone(), d)))
            .collect();
        for (function, depth) in placed {
            self.wanted_functions.remove(&function);
            self.wanted_depths.insert(depth.min(max_depth));
        }
        if self.complete || self.capped {
            self.wanted_functions.clear();
        }
        let resident: Vec<usize> = self.nodes.iter().map(|n| n.depth).collect();
        let trace_len = self.trace.len();
        self.wanted_depths
            .retain(|&d| d <= max_depth && d <= trace_len && !resident.contains(&d));
    }

    /// Index of the deepest resident node at depth <= `depth` (the root,
    /// at depth 1, always qualifies).
    fn deepest_at_most(&self, depth: usize) -> usize {
        self.nodes
            .iter()
            .rposition(|n| n.depth <= depth)
            .unwrap_or(0)
    }

    /// Record `calls` as injectable calls `base..base + calls.len()`
    /// (1-based), verifying overlap with the already-certified trace — a
    /// mismatch would mean a deepening run diverged from the certified
    /// path, which the pristine-RNG discipline is supposed to preclude.
    fn record_calls(&mut self, base: usize, calls: &[String]) {
        for (i, call) in calls.iter().enumerate() {
            let index = base + i; // 1-based call index
            match self.trace.get(index - 1) {
                Some(known) => debug_assert_eq!(
                    known, call,
                    "deepening run diverged from the certified call trace"
                ),
                None => {
                    debug_assert_eq!(self.trace.len(), index - 1);
                    self.first_depth.entry(call.clone()).or_insert(index);
                    self.trace.push(call.clone());
                }
            }
        }
    }
}

/// One prepared session: the workload's snapshot tree, its prefix
/// coverage, and the budget accounting forks are charged under.
struct PreparedSession {
    /// Coverage recorded by the shared prefix up to the root pause point,
    /// stripped out of the snapshots so injection forks do not clone it;
    /// baseline-reachability forks merge it back with their continuation's
    /// coverage.
    prefix_coverage: Coverage,
    /// The per-run instruction budget this session was prepared under
    /// (forks run with this minus their fork point's consumption, so
    /// budget exhaustion behaves exactly like a fresh run).
    max_instructions: u64,
    /// Shared resident-byte accounting with the owning executor.
    budget: Arc<SnapshotBudget>,
    tree: Mutex<SnapshotTree>,
    /// Signaled by the claimed deepening pass after every node it
    /// materializes (and when the claim is released), waking workers
    /// blocked in [`StandardExecutor::fork_for`] on a registered want.
    deepened: Condvar,
}

impl PreparedSession {
    /// Fork the root node (the flat-session pause point) — the entry point
    /// baseline-reachability profiling resumes from.
    fn root_fork(&self) -> (Machine, u64) {
        let mut tree = self.tree.lock().unwrap();
        fork_node(&mut tree, 0, self.max_instructions)
    }
}

/// Fork the node at `index`, bumping its LRU stamp; returns the machine and
/// the instruction budget it has left.
fn fork_node(tree: &mut SnapshotTree, index: usize, max_instructions: u64) -> (Machine, u64) {
    tree.ticks += 1;
    let ticks = tree.ticks;
    let node = &mut tree.nodes[index];
    node.last_use = ticks;
    let budget_left = max_instructions.saturating_sub(node.snapshot.stats().instructions);
    (node.snapshot.fork(), budget_left)
}

/// Pre-resolved telemetry handles for the executor's hot paths, so forks
/// and deepening runs never take the registry's name-lookup mutex.
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
    tree_fork_micros: Histogram,
    tree_deepen_micros: Histogram,
    /// Wall time of batch prefetch passes ([`Executor::prefetch_batch`]).
    tree_prefetch_micros: Histogram,
    /// Forks served by a node the forking unit did not have to deepen for:
    /// already resident, or materialized by a concurrent pass / batch
    /// prefetch while the unit waited.
    tree_fork_hits: Counter,
    /// Forks served by a node the forking unit's own deepening pass had to
    /// materialize.
    tree_fork_misses: Counter,
    tree_nodes_materialized: Counter,
    tree_nodes_evicted: Counter,
    /// Safety net: a claimed deepening pass found its wanted depth already
    /// resident. The claims protocol makes passes mutually exclusive, so
    /// this should always read 0 — a nonzero value means duplicated
    /// deepening work (the pre-claims race) has regressed, and CI asserts
    /// on it.
    tree_deepen_discarded: Counter,
    /// Forks that blocked on a concurrent claimed deepening pass instead
    /// of duplicating its walk.
    tree_deepen_waited: Counter,
    /// Claimed deepening passes run (each may materialize many nodes).
    tree_deepen_claimed: Counter,
    /// Claimed passes initiated by a batch prefetch hint.
    tree_prefetch_runs: Counter,
    /// Nodes materialized by prefetch-initiated passes.
    tree_prefetch_nodes: Counter,
    /// High-water mark of resident snapshot bytes across all sessions.
    snapshot_resident_bytes_hw: Gauge,
    /// Per-depth fork counters (`tree_fork_depth_<d>`), resolved lazily —
    /// depths observed depend on the workloads.
    fork_depths: Mutex<BTreeMap<usize, Counter>>,
}

impl ExecMetrics {
    fn resolve(telemetry: &Telemetry) -> ExecMetrics {
        ExecMetrics {
            analysis_micros: telemetry.histogram("analysis_micros"),
            analysis_sites_total: telemetry.counter("analysis_sites_total"),
            analysis_sites_pruned: telemetry.counter("analysis_sites_pruned"),
            analysis_sites_low_confidence: telemetry.counter("analysis_sites_low_confidence"),
            session_prepare_micros: telemetry.histogram("session_prepare_micros"),
            tree_fork_micros: telemetry.histogram("tree_fork_micros"),
            tree_deepen_micros: telemetry.histogram("tree_deepen_micros"),
            tree_prefetch_micros: telemetry.histogram("tree_prefetch_micros"),
            tree_fork_hits: telemetry.counter("tree_fork_hits"),
            tree_fork_misses: telemetry.counter("tree_fork_misses"),
            tree_nodes_materialized: telemetry.counter("tree_nodes_materialized"),
            tree_nodes_evicted: telemetry.counter("tree_nodes_evicted"),
            tree_deepen_discarded: telemetry.counter("tree_deepen_discarded"),
            tree_deepen_waited: telemetry.counter("tree_deepen_waited"),
            tree_deepen_claimed: telemetry.counter("tree_deepen_claimed"),
            tree_prefetch_runs: telemetry.counter("tree_prefetch_runs"),
            tree_prefetch_nodes: telemetry.counter("tree_prefetch_nodes"),
            snapshot_resident_bytes_hw: telemetry.gauge("snapshot_resident_bytes_hw"),
            fork_depths: Mutex::new(BTreeMap::new()),
        }
    }

    /// Count one fork taken from a node at `depth`.
    fn fork_at_depth(&self, telemetry: &Telemetry, depth: usize) {
        if !telemetry.enabled() {
            return;
        }
        self.fork_depths
            .lock()
            .unwrap()
            .entry(depth)
            .or_insert_with(|| telemetry.counter(&format!("tree_fork_depth_{depth}")))
            .inc();
    }
}

/// Executes campaign work units against the stock `*-lite` targets.
pub struct StandardExecutor {
    targets: BTreeMap<String, Module>,
    /// Names of every profiled library function with at least one error
    /// case — the superset of functions any unit may inject. Session images
    /// interpose all of them so a single snapshot serves every unit of its
    /// `(target, workload)` pair; an engine with no association for an
    /// intercepted function simply forwards the call, which is free.
    /// Computed on first session use — fresh-backend executors never pay
    /// for the library profiling pass.
    injectable: OnceLock<Vec<String>>,
    /// Loaded session images per target: the loader's layout and
    /// instruction-predecoding work is shared by all of the target's
    /// workload sessions (and their forks).
    images: Mutex<BTreeMap<String, Arc<Image>>>,
    /// Prepared sessions per `(target, workload)`, built at most once each.
    prepared: Mutex<BTreeMap<SessionKey, SessionSlot>>,
    /// Per-run instruction budget, applied identically to fresh runs and
    /// session prefixes/forks so the backends exhaust budgets at the same
    /// boundary.
    max_instructions: u64,
    /// Deepest injectable-call index sessions may keep snapshots at; 1
    /// degenerates to the flat single-snapshot-per-session model.
    max_session_depth: usize,
    /// Resident-snapshot byte accounting shared by every session tree.
    snapshot_budget: Arc<SnapshotBudget>,
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
            injectable: OnceLock::new(),
            images: Mutex::new(BTreeMap::new()),
            prepared: Mutex::new(BTreeMap::new()),
            max_instructions: TestConfig::default().max_instructions,
            max_session_depth: usize::MAX,
            snapshot_budget: Arc::new(SnapshotBudget::new(DEFAULT_SNAPSHOT_BUDGET)),
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

    /// Cap the injectable-call depth sessions keep snapshots at. `1`
    /// restores the flat model: one snapshot per session at the first
    /// injectable call, no deepening.
    pub fn set_max_session_depth(&mut self, depth: usize) {
        self.max_session_depth = depth.max(1);
    }

    /// The union of profiled failing library functions session images
    /// interpose (computed once, on first use).
    fn injectable(&self) -> &[String] {
        self.injectable.get_or_init(|| {
            standard_controller()
                .profile_libraries()
                .failing_functions()
        })
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
    /// The phase's duration and prune counts land in the executor's
    /// telemetry (`analysis_micros`, `analysis_sites_*`).
    pub fn fault_space(&self, targets: &[&str], profile: &FaultProfile) -> FaultSpace {
        let _span = self.metrics.analysis_micros.start();
        let controller = standard_controller();
        let mut space = FaultSpace::new();
        for name in targets {
            let exe = self
                .target(name)
                .unwrap_or_else(|| panic!("unknown target {name}"));
            space.add_target(name, exe, profile);
            let reports = controller.analyze(exe);
            space.annotate_analysis(name, &reports);
            space.annotate_propagation(name, &controller.analyze_propagation(exe, &reports));
        }
        let stats = space.static_prune();
        self.metrics.analysis_sites_total.add(stats.total as u64);
        self.metrics.analysis_sites_pruned.add(stats.demoted as u64);
        self.metrics
            .analysis_sites_low_confidence
            .add(stats.low_confidence as u64);
        space
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
                    .build_image(exe, self.injectable())
                    .expect("stock target must load")
            })
            .clone()
    }

    /// Build the session tree root for one `(target, workload)` pair: set
    /// up the workload, run to the first injectable call, snapshot.
    /// Coverage recording stays on during the prefix so
    /// baseline-reachability forks and deepening runs keep accumulating;
    /// injection forks switch it off.
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
        let image = self.session_image(target);
        let max_instructions = self.max_instructions;
        let prep = if target == "bind-lite" {
            let net = NetHandle::default();
            let controller = networked_controller(net.clone());
            let mut workload = BindWorkload::typical(net);
            let config = TestConfig {
                args: vec![workload.request_count().to_string()],
                record_coverage: true,
                max_instructions,
                ..TestConfig::default()
            };
            controller.prepare_session(image, self.injectable(), &mut workload, &config)
        } else {
            let controller = standard_controller();
            let config = TestConfig {
                args: args.to_vec(),
                record_coverage: true,
                max_instructions,
                ..TestConfig::default()
            };
            controller.prepare_session(image, self.injectable(), &mut FsSetupWorkload, &config)
        };
        prep.fork_budget(max_instructions)?;
        let mut machine = prep.machine;
        if !machine.rng_is_pristine() {
            return None;
        }
        let prefix_coverage = machine.take_coverage();
        // `fork_budget` left only two prefix exits standing: paused at the
        // first injectable call (the normal case), or a clean exit meaning
        // the workload has no injectable calls at all — its trace is empty
        // and complete, and forks of the finished machine replay the exit.
        let mut trace = Vec::new();
        let mut first_depth = BTreeMap::new();
        let complete = match prep.prefix_exit {
            RunExit::Paused => {
                let paused = prep.paused_at.clone().expect("paused prefix names a call");
                first_depth.insert(paused.clone(), 1);
                trace.push(paused);
                false
            }
            _ => true,
        };
        let snapshot = machine.snapshot();
        let bytes = snapshot.resident_bytes();
        self.snapshot_budget
            .used
            .fetch_add(bytes, Ordering::Relaxed);
        self.metrics.tree_nodes_materialized.inc();
        self.metrics
            .snapshot_resident_bytes_hw
            .set_max(self.snapshot_budget.used.load(Ordering::Relaxed));
        let root = SnapshotNode {
            depth: 1,
            parent_depth: 1,
            snapshot,
            post_coverage: Coverage::new(),
            bytes,
            last_use: 0,
        };
        Some(PreparedSession {
            prefix_coverage,
            max_instructions,
            budget: self.snapshot_budget.clone(),
            tree: Mutex::new(SnapshotTree {
                trace,
                first_depth,
                nodes: vec![root],
                complete,
                capped: false,
                deepening: false,
                wanted_depths: BTreeSet::new(),
                wanted_functions: BTreeSet::new(),
                ticks: 0,
            }),
            deepened: Condvar::new(),
        })
    }

    /// Fork the right tree node for a unit injecting `function`: the
    /// deepest resident snapshot certified to precede the workload's first
    /// interception of `function` (before that call every unit of the
    /// session behaves identically, whatever it injects — the engine
    /// charges trigger evaluations only against its own scenario's
    /// function).
    ///
    /// When no resident node sits at the target depth yet, the unit
    /// registers a *want* on the tree — an exact depth when the certified
    /// trace places the function, a discovery want when it does not — and
    /// then either:
    ///
    /// * **claims** the tree's single deepening pass
    ///   ([`StandardExecutor::deepen_shared`]) when none is running, or
    /// * **waits** (bounded by [`DEEPEN_WAIT_BOUND`]) for the in-flight
    ///   pass to materialize the want, instead of duplicating the same
    ///   certified walk — the pre-claims protocol re-ran the path and
    ///   discarded the loser's snapshot.
    ///
    /// A wait that times out falls back to the deepest resident ancestor:
    /// correct (the ancestor precedes the target call), just a shallower
    /// fork. Hit/miss accounting is by provenance: a fork is a miss only
    /// when this unit's own pass materialized the node it forks; nodes
    /// already resident — including ones another worker's pass or a batch
    /// prefetch produced while this unit waited — are hits.
    fn fork_for(&self, prepared: &PreparedSession, function: &str) -> (Machine, u64) {
        let _span = self.metrics.tree_fork_micros.start();
        let mut tree = prepared.tree.lock().unwrap();
        if self.max_session_depth <= 1 {
            self.metrics.tree_fork_hits.inc();
            self.metrics.fork_at_depth(&self.telemetry, 1);
            return fork_node(&mut tree, 0, prepared.max_instructions);
        }
        let mut waited = false;
        let mut give_up = false;
        let mut own_runs = 0usize;
        let mut own_inserted: Vec<usize> = Vec::new();
        loop {
            let discovery = tree.depth_of(function).is_none() && !tree.complete && !tree.capped;
            let target = tree
                .depth_of(function)
                .unwrap_or(usize::MAX)
                .min(self.max_session_depth);
            let index = tree.deepest_at_most(target);
            let needs_node =
                !discovery && tree.nodes[index].depth < target && target <= tree.trace.len();
            // `own_runs` bounds pathological trees whose wants keep failing
            // (a cap inside the certified region): after two of our own
            // passes we serve whatever is resident.
            if (!discovery && !needs_node) || give_up || own_runs >= 2 {
                let depth = tree.nodes[index].depth;
                if own_inserted.contains(&depth) {
                    self.metrics.tree_fork_misses.inc();
                } else {
                    self.metrics.tree_fork_hits.inc();
                }
                self.metrics.fork_at_depth(&self.telemetry, depth);
                return fork_node(&mut tree, index, prepared.max_instructions);
            }
            // Register the want so whichever pass runs — ours or the
            // in-flight claimant's — materializes it.
            if discovery {
                tree.wanted_functions.insert(function.to_string());
            } else {
                tree.wanted_depths.insert(target);
            }
            if tree.deepening {
                if !waited {
                    self.metrics.tree_deepen_waited.inc();
                    waited = true;
                }
                let (guard, timeout) = prepared
                    .deepened
                    .wait_timeout(tree, DEEPEN_WAIT_BOUND)
                    .unwrap();
                tree = guard;
                give_up = timeout.timed_out() && tree.deepening;
            } else {
                own_runs += 1;
                let (guard, inserted) = self.deepen_shared(prepared, tree, false);
                tree = guard;
                own_inserted.extend(inserted);
            }
        }
    }

    /// The tree's single claimed deepening pass: while wants are registered
    /// — exact depths to materialize, functions to discover — step the
    /// workload one injectable call at a time along the certified path
    /// (unseeded: deepening stays on the root seed's path, which is what
    /// the certified trace describes), snapshotting **every** wanted depth
    /// it passes. One walk therefore materializes all intermediate nodes a
    /// batch needs, instead of one endpoint per run; wants registered by
    /// other workers *while the pass runs* are absorbed into the same walk.
    ///
    /// Each step's endpoint decides the tree's fate exactly as before:
    /// paused + pristine RNG certifies the next call into the trace;
    /// exited + pristine marks the trace complete; anything else
    /// (randomness consumed, crash, block, budget) caps the tree — resident
    /// nodes stay valid, and remaining wants within the already-certified
    /// trace are still served by re-forking the deepest resident ancestor.
    ///
    /// The tree mutex is released around every step (the forked machine is
    /// self-contained), so waiters and new want registrations interleave
    /// with the walk; the claim flag keeps passes mutually exclusive, which
    /// is what guarantees `tree_deepen_discarded` stays 0. Returns the
    /// re-acquired guard and the depths this pass materialized.
    fn deepen_shared<'a>(
        &self,
        prepared: &'a PreparedSession,
        mut tree: MutexGuard<'a, SnapshotTree>,
        prefetch: bool,
    ) -> (MutexGuard<'a, SnapshotTree>, Vec<usize>) {
        let _span = self.metrics.tree_deepen_micros.start();
        debug_assert!(!tree.deepening, "claims are mutually exclusive");
        tree.deepening = true;
        self.metrics.tree_deepen_claimed.inc();
        if prefetch {
            self.metrics.tree_prefetch_runs.inc();
        }
        let mut inserted = Vec::new();
        // The walk: a machine paused before injectable call `at`, plus the
        // depth of the resident node its accumulated coverage extends
        // (`cov_parent` — coverage is drained at every materialized node,
        // so each node stores only its increment).
        let mut stepper: Option<(Machine, usize, usize)> = None;
        loop {
            tree.normalize_wants(self.max_session_depth);
            let depth_goal = tree.wanted_depths.iter().next().copied();
            let discovering = !tree.wanted_functions.is_empty();
            if depth_goal.is_none() && !discovering {
                break;
            }
            let bound = depth_goal.unwrap_or(usize::MAX);
            // (Re-)position the walk: fork the deepest resident ancestor
            // when no machine is in flight, when a new shallower want
            // arrived behind the machine, or when a resident node now sits
            // deeper than the machine (forking it skips re-stepping).
            let index = tree.deepest_at_most(bound);
            let node_depth = tree.nodes[index].depth;
            let refork = match &stepper {
                Some((_, at, _)) => *at > bound || node_depth > *at,
                None => true,
            };
            if refork {
                let (machine, _) = fork_node(&mut tree, index, prepared.max_instructions);
                stepper = Some((machine, node_depth, node_depth));
            }
            let (mut machine, at, cov_parent) = stepper.take().expect("walk was positioned");
            if depth_goal == Some(at) {
                // Paused exactly at a wanted depth: record it.
                tree.wanted_depths.remove(&at);
                if tree.resident(at) {
                    // Unreachable under the claim (normalize_wants drops
                    // resident wants and only this pass inserts); kept as
                    // a counted safety net so a regression is visible.
                    self.metrics.tree_deepen_discarded.inc();
                    self.telemetry.note(
                        "snapshot-tree",
                        format!("claimed deepening pass found depth {at} already resident"),
                    );
                    stepper = Some((machine, at, cov_parent));
                } else {
                    let post_coverage = machine.take_coverage();
                    let snapshot = machine.snapshot();
                    let bytes = snapshot.resident_bytes();
                    let last_use = tree.ticks;
                    self.insert_node(
                        prepared,
                        &mut tree,
                        SnapshotNode {
                            depth: at,
                            parent_depth: cov_parent,
                            snapshot,
                            post_coverage,
                            bytes,
                            last_use,
                        },
                    );
                    self.metrics.tree_nodes_materialized.inc();
                    if prefetch {
                        self.metrics.tree_prefetch_nodes.inc();
                    }
                    inserted.push(at);
                    // Keep walking only while the coverage lineage stays
                    // resident: a starved budget can evict the node on
                    // insertion, and chaining the next increment to the
                    // hole would lose the evicted interval's coverage.
                    stepper = tree.resident(at).then_some((machine, at, at));
                }
                prepared.deepened.notify_all();
                continue;
            }
            // Advance one injectable call. The fork is self-contained —
            // evictions or extensions of the tree while the step runs
            // cannot invalidate it — so the lock is dropped meanwhile.
            drop(tree);
            let prep = standard_controller().step_session(
                machine,
                self.injectable().iter().cloned(),
                prepared.max_instructions,
            );
            let machine = prep.machine;
            tree = prepared.tree.lock().unwrap();
            if !machine.rng_is_pristine() {
                tree.capped = true;
                if let Some(goal) = depth_goal {
                    // Consume the want we were chasing so the pass (and
                    // its waiters) cannot spin on an unmaterializable
                    // depth; the unit forks the deepest resident ancestor.
                    tree.wanted_depths.remove(&goal);
                }
                continue;
            }
            match prep.prefix_exit {
                RunExit::Paused => {
                    tree.record_calls(at, &prep.forwarded);
                    let paused = at + prep.forwarded.len();
                    tree.record_calls(
                        paused,
                        std::slice::from_ref(
                            prep.paused_at.as_ref().expect("paused step names a call"),
                        ),
                    );
                    stepper = Some((machine, paused, cov_parent));
                }
                RunExit::Exited(_) => {
                    tree.record_calls(at, &prep.forwarded);
                    tree.complete = true;
                }
                RunExit::Fault(_) | RunExit::Blocked | RunExit::Budget => {
                    tree.capped = true;
                    if let Some(goal) = depth_goal {
                        tree.wanted_depths.remove(&goal);
                    }
                }
            }
        }
        tree.deepening = false;
        prepared.deepened.notify_all();
        (tree, inserted)
    }

    /// Warm one session's snapshot tree for a planned batch: register every
    /// batch function's needed depth (or a discovery want when the trace
    /// does not place it yet) and run one claimed deepening pass that
    /// materializes all of them in a single walk. When another worker
    /// already holds the claim, its in-flight pass absorbs the registered
    /// wants and nothing more is needed here.
    fn prefetch_session(&self, target: &str, args: &[String], functions: &BTreeSet<String>) {
        let Some(prepared) = self.prepared_session(target, args) else {
            return;
        };
        let mut tree = prepared.tree.lock().unwrap();
        for function in functions {
            match tree.depth_of(function) {
                Some(depth) => {
                    let depth = depth.min(self.max_session_depth);
                    if !tree.resident(depth) {
                        tree.wanted_depths.insert(depth);
                    }
                }
                None => {
                    if !tree.complete && !tree.capped {
                        tree.wanted_functions.insert(function.clone());
                    }
                }
            }
        }
        if tree.deepening || (tree.wanted_depths.is_empty() && tree.wanted_functions.is_empty()) {
            return;
        }
        let (tree, _) = self.deepen_shared(&prepared, tree, true);
        drop(tree);
    }

    /// Insert a freshly certified node (kept in ascending depth order) and
    /// charge its bytes, then evict this tree's least-recently-used
    /// non-root nodes while the executor-wide budget is exceeded. Eviction
    /// is local to the inserting tree — other trees trim themselves on
    /// their next insertion — which approximates a global LRU without
    /// cross-session locking.
    fn insert_node(&self, prepared: &PreparedSession, tree: &mut SnapshotTree, node: SnapshotNode) {
        let budget = &prepared.budget;
        budget.used.fetch_add(node.bytes, Ordering::Relaxed);
        self.metrics
            .snapshot_resident_bytes_hw
            .set_max(budget.used.load(Ordering::Relaxed));
        let pos = tree
            .nodes
            .iter()
            .position(|n| n.depth > node.depth)
            .unwrap_or(tree.nodes.len());
        tree.nodes.insert(pos, node);
        while budget.used.load(Ordering::Relaxed) > budget.cap.load(Ordering::Relaxed)
            && tree.nodes.len() > 1
        {
            let victim = tree.nodes[1..]
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| (n.last_use, n.depth))
                .map(|(i, _)| i + 1)
                .expect("non-root nodes exist");
            let evicted = tree.nodes.remove(victim);
            budget.used.fetch_sub(evicted.bytes, Ordering::Relaxed);
            self.metrics.tree_nodes_evicted.inc();
            // Re-parent the victim's children, folding its coverage
            // increment into theirs so every surviving node's ancestor
            // chain still reconstructs the full prefix coverage.
            for node in &mut tree.nodes[1..] {
                if node.parent_depth == evicted.depth {
                    node.parent_depth = evicted.parent_depth;
                    node.post_coverage.merge(&evicted.post_coverage);
                }
            }
        }
    }

    /// The memoized session of a `(target, workload)` pair, or `None` when
    /// the pair cannot snapshot (the multi-process bft-lite cluster, or a
    /// prefix that consumed randomness). The refusal is memoized too.
    fn prepared_session(&self, target: &str, args: &[String]) -> Option<Arc<PreparedSession>> {
        if target == "bft-lite" || !self.targets.contains_key(target) {
            return None;
        }
        let slot = {
            let mut prepared = self.prepared.lock().unwrap();
            prepared
                .entry((target.to_string(), args.to_vec()))
                .or_default()
                .clone()
        };
        slot.get_or_init(|| self.build_session(target, args).map(Arc::new))
            .clone()
    }

    /// Number of `(target, workload)` sessions prepared so far.
    pub fn sessions_prepared(&self) -> usize {
        self.prepared
            .lock()
            .unwrap()
            .values()
            .filter(|slot| matches!(slot.get(), Some(Some(_))))
            .count()
    }

    /// Iterate over every prepared session.
    fn for_each_session(&self, mut f: impl FnMut(&PreparedSession)) {
        let slots: Vec<SessionSlot> = self.prepared.lock().unwrap().values().cloned().collect();
        for slot in slots {
            if let Some(Some(prepared)) = slot.get() {
                f(prepared);
            }
        }
    }

    /// Total resident snapshot nodes across every prepared session (each
    /// session contributes at least its root).
    pub fn snapshot_nodes(&self) -> usize {
        let mut total = 0;
        self.for_each_session(|p| total += p.tree.lock().unwrap().nodes.len());
        total
    }

    /// The resident node depths of every prepared session, in ascending
    /// depth order per session — for tests asserting tree shape (e.g. that
    /// concurrent deepening never materializes duplicate depths).
    pub fn session_node_depths(&self) -> Vec<Vec<usize>> {
        let mut all = Vec::new();
        self.for_each_session(|p| {
            let tree = p.tree.lock().unwrap();
            all.push(tree.nodes.iter().map(|n| n.depth).collect());
        });
        all
    }

    /// Deepest injectable-call index any resident snapshot sits at.
    pub fn max_session_node_depth(&self) -> usize {
        let mut max = 0;
        self.for_each_session(|p| {
            let tree = p.tree.lock().unwrap();
            max = max.max(tree.nodes.last().map(|n| n.depth).unwrap_or(0));
        });
        max
    }

    /// The full prefix coverage at the node a unit injecting `function`
    /// would fork in this session: the root prefix's coverage merged with
    /// each tree node's increment down the fork point's ancestor chain.
    /// `None` when the pair has no prepared session.
    pub fn session_path_coverage(
        &self,
        target: &str,
        args: &[String],
        function: &str,
    ) -> Option<Coverage> {
        let prepared = self.prepared_session(target, args)?;
        let tree = prepared.tree.lock().unwrap();
        let target_depth = tree
            .depth_of(function)
            .unwrap_or(usize::MAX)
            .min(self.max_session_depth);
        let mut coverage = prepared.prefix_coverage.clone();
        let mut index = tree.deepest_at_most(target_depth);
        loop {
            let node = &tree.nodes[index];
            coverage.merge(&node.post_coverage);
            if index == 0 {
                break;
            }
            index = tree
                .nodes
                .iter()
                .position(|n| n.depth == node.parent_depth)
                .expect("ancestor chain is resident");
        }
        Some(coverage)
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
                        let (mut machine, budget_left) = prepared.root_fork();
                        machine.reseed(workload_seed);
                        machine.run(&mut NoHooks, budget_left);
                        baseline.merge(&prepared.prefix_coverage);
                        baseline.merge(&machine.coverage);
                    }
                    // A pair that refuses to snapshot still contributes its
                    // baseline coverage the pre-session way: one full
                    // no-fault run.
                    None => {
                        let report = run_target_with_budget(
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
    /// injection log — the same accounting for fresh and forked runs.
    fn injected_sites(&self, log: &InjectionLog, function: &str) -> Vec<InjectedSite> {
        log.records
            .iter()
            .filter(|r| r.function == function)
            .map(|r| InjectedSite {
                module: r.call_site.0.clone(),
                offset: r.call_site.1,
                caller: self.resolve_caller(&r.call_site.0, r.call_site.1),
            })
            .collect()
    }

    fn execute_single(&self, exe: &Module, unit: &WorkUnit) -> Execution {
        let report = run_target_with_budget(
            &unit.point.target,
            exe,
            &unit.scenario,
            unit.args.clone(),
            false,
            unit.seed,
            self.max_instructions,
        );
        let outcome = match report.outcome {
            TestOutcome::Passed => OutcomeKind::Passed,
            TestOutcome::CleanFailure(code) => OutcomeKind::CleanFailure(code),
            TestOutcome::Crashed(_) => OutcomeKind::Crashed,
            TestOutcome::Hung => OutcomeKind::Hung,
        };
        Execution {
            outcome,
            injections: report.injections.injection_count() as u64,
            injected_sites: self.injected_sites(&report.injections, &unit.point.function),
            crashes: report
                .fault
                .as_ref()
                .map(|f| vec![self.crash_info(f)])
                .unwrap_or_default(),
            virtual_time: report.virtual_time,
        }
    }

    fn execute_cluster(&self, unit: &WorkUnit) -> Execution {
        let result = run_bft_cluster(&BftClusterConfig {
            requests: self.bft_requests,
            seed: unit.seed,
            scenario: unit.scenario.clone(),
            budget: self.max_instructions,
            ..BftClusterConfig::default()
        });
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
            // The cluster harness does not expose per-node injection logs;
            // the fault point itself is the injected site.
            injected_sites: vec![InjectedSite {
                module: unit.point.target.clone(),
                offset: unit.point.offset,
                caller: unit.point.caller.clone(),
            }],
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

    fn prefetch_batch(&self, units: &[PrefetchKey], jobs: usize) {
        if self.max_session_depth <= 1 {
            return; // flat sessions have nothing beyond the root to warm
        }
        let _span = self.metrics.tree_prefetch_micros.start();
        let mut groups: BTreeMap<SessionKey, BTreeSet<String>> = BTreeMap::new();
        for key in units {
            // Pairs that cannot snapshot (the cluster target, unknown
            // targets) have no session to warm; unsnapshottable prefixes
            // are filtered by `prefetch_session`'s memoized refusal.
            if key.target == "bft-lite" || !self.targets.contains_key(&key.target) {
                continue;
            }
            groups
                .entry((key.target.clone(), key.args.clone()))
                .or_default()
                .insert(key.function.clone());
        }
        if groups.is_empty() {
            return;
        }
        let groups: Vec<(SessionKey, BTreeSet<String>)> = groups.into_iter().collect();
        let workers = jobs.max(1).min(groups.len());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(((target, args), functions)) = groups.get(next) else {
                        break;
                    };
                    self.prefetch_session(target, args, functions);
                });
            }
        });
    }

    fn first_call_depth(&self, target: &str, args: &[String], function: &str) -> Option<usize> {
        // Peek the memoized session without building one: ordering is a
        // hint, and a session worth preparing is prepared by the prefetch
        // (or the first unit) anyway.
        let slot = self
            .prepared
            .lock()
            .unwrap()
            .get(&(target.to_string(), args.to_vec()))
            .cloned()?;
        let prepared = slot.get()?.as_ref()?;
        let depth = prepared.tree.lock().unwrap().depth_of(function)?;
        Some(depth.min(self.max_session_depth))
    }

    fn set_snapshot_budget(&self, bytes: u64) {
        self.snapshot_budget.cap.store(bytes, Ordering::Relaxed);
    }

    fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    fn snapshot_bytes(&self) -> u64 {
        self.snapshot_budget.used.load(Ordering::Relaxed)
    }

    fn execute_from(&self, session: &Session, unit: &WorkUnit) -> Execution {
        let prepared = session
            .downcast_ref::<Arc<PreparedSession>>()
            .expect("session prepared by StandardExecutor");
        // Fork the deepest snapshot certified to precede the workload's
        // first interception of the unit's function. The certified path is
        // RNG-free, so reseeding the fork here leaves the unit's stream in
        // exactly the state a fresh run's would be at the same point.
        let (mut machine, budget_left) = self.fork_for(prepared, &unit.point.function);
        machine.reseed(unit.seed);
        machine.set_record_coverage(false);
        // Mirror the fresh path's engine setup exactly: the stock registry
        // and the trigger-evaluation cost both come from the same defaults
        // `run_target`'s controller uses, so the two backends cannot drift
        // apart if either default changes.
        let mut engine =
            InjectionEngine::new(unit.scenario.clone()).expect("unit scenario must compile");
        engine.trigger_eval_cost = TestConfig::default().trigger_eval_cost;
        let exit = machine.run(&mut engine, budget_left);
        let (outcome, crashes) = match &exit {
            RunExit::Exited(0) => (OutcomeKind::Passed, Vec::new()),
            RunExit::Exited(code) => (OutcomeKind::CleanFailure(*code), Vec::new()),
            RunExit::Fault(fault) => (OutcomeKind::Crashed, vec![self.crash_info(fault)]),
            RunExit::Blocked | RunExit::Budget | RunExit::Paused => (OutcomeKind::Hung, Vec::new()),
        };
        Execution {
            outcome,
            injections: engine.log.injection_count() as u64,
            injected_sites: self.injected_sites(&engine.log, &unit.point.function),
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
            executor.injectable.get().is_none(),
            "the failing-function union is not computed until a session is prepared"
        );
        assert!(
            !executor.injectable().is_empty(),
            "session images need the profiled failing-function union"
        );
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
