//! Snapshot trees: the per-`(target, workload)` cache of paused machines
//! that snapshot-backend units fork from.
//!
//! A session's tree is keyed by injectable-call index. Its root is the
//! workload paused just before its first injectable call; a node at depth
//! `k` is the same run paused just before call `k`. A unit injecting a
//! function first called at call `k` forks the deepest resident node at or
//! before `k` — before that call every unit of the session behaves
//! identically, whatever it injects — so the prefix is paid once per
//! depth instead of once per unit.
//!
//! * **Certified trace.** The tree records the function of every
//!   injectable call it has walked past, and only while the session RNG is
//!   untouched, so every node and every trace entry is seed-independent
//!   and reseeding a fork replays a fresh run exactly. A walk that draws
//!   randomness, faults, blocks or exhausts its budget caps the tree;
//!   resident nodes stay valid.
//! * **One deepening path.** Only [`PreparedSession::prefetch`] deepens a
//!   tree: one walk per session and batch, holding the tree's lock for its
//!   whole length, materializes every depth the batch will fork.
//!   [`PreparedSession::fork_for`] never walks or waits; without a
//!   prefetch it forks a shallower node, which only replays more of the
//!   certified prefix.
//! * **Byte budget.** Resident nodes are charged against one
//!   [`SnapshotBudget`] per executor; a tree that pushes it over the cap
//!   evicts its own least-recently-forked non-root nodes. Roots are never
//!   evicted.
//! * **Incremental coverage.** Each node stores only the coverage recorded
//!   since its parent, so the coverage at a fork point is the root
//!   prefix's coverage merged down the node's ancestor chain.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use lfi_targets::standard_controller;
use lfi_telemetry::{Counter, Gauge, Histogram, Telemetry};
use lfi_vm::{Coverage, Machine, MachineSnapshot, RunExit};

/// Shared accounting for the resident-snapshot byte budget: one cap and
/// usage counter per executor, updated by every session tree as nodes are
/// inserted and evicted. A tree that pushes `used` over `cap` evicts its
/// own least-recently-used nodes; other trees trim themselves on their next
/// insertion, so the cap is enforced cooperatively across sessions.
pub(crate) struct SnapshotBudget {
    cap: AtomicU64,
    used: AtomicU64,
}

impl SnapshotBudget {
    pub(crate) fn new(cap: u64) -> SnapshotBudget {
        SnapshotBudget {
            cap: AtomicU64::new(cap),
            used: AtomicU64::new(0),
        }
    }

    pub(crate) fn set_cap(&self, bytes: u64) {
        self.cap.store(bytes, Ordering::Relaxed);
    }

    /// Bytes currently resident across every tree charged to this budget.
    pub(crate) fn used(&self) -> u64 {
        self.used.load(Ordering::Relaxed)
    }
}

/// Pre-resolved telemetry handles for tree forks and walks, so neither
/// takes the registry's name-lookup mutex.
pub(crate) struct TreeMetrics {
    telemetry: Telemetry,
    fork_micros: Histogram,
    deepen_micros: Histogram,
    /// Forks served by the deepest node the tree could hold for the unit.
    fork_hits: Counter,
    /// Forks served by a shallower node: the unit's depth was placed but
    /// not resident, or the trace could still place its function.
    fork_misses: Counter,
    nodes_materialized: Counter,
    nodes_evicted: Counter,
    /// Safety net: a walk found a wanted depth already resident. A walk
    /// drops resident wants and holds the tree's lock throughout, so this
    /// should always read 0; CI and perfbench assert it.
    deepen_discarded: Counter,
    /// Prefetch walks run (each may materialize many nodes).
    prefetch_runs: Counter,
    /// Nodes materialized by prefetch walks.
    prefetch_nodes: Counter,
    /// High-water mark of resident snapshot bytes across all sessions.
    resident_bytes_hw: Gauge,
    /// Per-depth fork counters (`tree_fork_depth_<d>`), resolved lazily —
    /// depths observed depend on the workloads.
    fork_depths: Mutex<BTreeMap<usize, Counter>>,
}

impl TreeMetrics {
    pub(crate) fn resolve(telemetry: &Telemetry) -> TreeMetrics {
        TreeMetrics {
            telemetry: telemetry.clone(),
            fork_micros: telemetry.histogram("tree_fork_micros"),
            deepen_micros: telemetry.histogram("tree_deepen_micros"),
            fork_hits: telemetry.counter("tree_fork_hits"),
            fork_misses: telemetry.counter("tree_fork_misses"),
            nodes_materialized: telemetry.counter("tree_nodes_materialized"),
            nodes_evicted: telemetry.counter("tree_nodes_evicted"),
            deepen_discarded: telemetry.counter("tree_deepen_discarded"),
            prefetch_runs: telemetry.counter("tree_prefetch_runs"),
            prefetch_nodes: telemetry.counter("tree_prefetch_nodes"),
            resident_bytes_hw: telemetry.gauge("snapshot_resident_bytes_hw"),
            fork_depths: Mutex::new(BTreeMap::new()),
        }
    }

    /// Count one fork taken from a node at `depth`.
    fn fork_at_depth(&self, depth: usize) {
        if !self.telemetry.enabled() {
            return;
        }
        self.fork_depths
            .lock()
            .unwrap()
            .entry(depth)
            .or_insert_with(|| self.telemetry.counter(&format!("tree_fork_depth_{depth}")))
            .inc();
    }
}

/// One resident node of a session's snapshot tree.
struct SnapshotNode {
    /// 1-based injectable-call depth: the snapshot is paused just before
    /// the `depth`-th injectable call of the workload (the root is depth 1).
    depth: usize,
    /// Depth of the node this one was deepened from, for walking the
    /// incremental-coverage chain (the root is its own parent).
    parent_depth: usize,
    snapshot: MachineSnapshot,
    /// Coverage recorded between the parent node and this one (the root's
    /// share lives in [`PreparedSession::prefix_coverage`]).
    post_coverage: Coverage,
    /// [`MachineSnapshot::resident_bytes`] at creation, charged against the
    /// executor's snapshot budget.
    bytes: u64,
    /// LRU stamp: the tree's tick at the last fork taken from this node.
    last_use: u64,
}

impl SnapshotNode {
    /// Snapshot `machine` as the node at `depth`, taking the coverage it
    /// recorded since `parent_depth` as the node's increment.
    fn capture(machine: &mut Machine, depth: usize, parent_depth: usize, last_use: u64) -> Self {
        let post_coverage = machine.take_coverage();
        let snapshot = machine.snapshot();
        SnapshotNode {
            depth,
            parent_depth,
            bytes: snapshot.resident_bytes(),
            snapshot,
            post_coverage,
            last_use,
        }
    }
}

/// Resident prefix snapshots keyed by injectable-call index, plus the
/// certified call trace they are indexed by.
struct SnapshotTree {
    /// `trace[i]` is the function of injectable call `i + 1`. Only extended
    /// while the RNG stayed pristine, so every entry is certified
    /// deterministic (seed-independent).
    trace: Vec<String>,
    /// Function → 1-based index of its first certified call, maintained by
    /// [`SnapshotTree::record_calls`].
    first_depth: BTreeMap<String, usize>,
    /// Resident nodes in ascending depth order; `nodes[0]` is the root and
    /// is never evicted.
    nodes: Vec<SnapshotNode>,
    /// The trace covers the whole workload: no injectable calls exist
    /// beyond it (the prefix, or a walk, ran to a clean exit).
    complete: bool,
    /// The trace cannot be extended: a walk consumed randomness or ended
    /// abnormally. Resident nodes (all certified before the cap) stay
    /// valid, and depths within the certified trace can still be
    /// materialized.
    capped: bool,
    /// Monotonic fork counter driving the LRU stamps.
    ticks: u64,
}

impl SnapshotTree {
    /// The 1-based depth of the workload's first call to `function`, when
    /// it lies within the certified trace.
    fn depth_of(&self, function: &str) -> Option<usize> {
        self.first_depth.get(function).copied()
    }

    /// The depth a unit injecting `function` wants to fork at — the
    /// function's first-call depth, or any depth when the trace does not
    /// place it — and the index of the deepest resident node at or before
    /// it.
    fn fork_point(&self, function: &str) -> (usize, usize) {
        let target = self.depth_of(function).unwrap_or(usize::MAX);
        (target, self.deepest_at_most(target))
    }

    /// Whether a node at exactly `depth` is resident.
    fn resident(&self, depth: usize) -> bool {
        self.nodes.iter().any(|n| n.depth == depth)
    }

    /// Index of the deepest resident node at depth <= `depth` (the root,
    /// at depth 1, always qualifies).
    fn deepest_at_most(&self, depth: usize) -> usize {
        self.nodes
            .iter()
            .rposition(|n| n.depth <= depth)
            .unwrap_or(0)
    }

    /// Fork the node at `index`, bumping its LRU stamp; returns the machine
    /// and the instruction budget it has left.
    fn fork(&mut self, index: usize, max_instructions: u64) -> (Machine, u64) {
        self.ticks += 1;
        let node = &mut self.nodes[index];
        node.last_use = self.ticks;
        let budget_left = max_instructions.saturating_sub(node.snapshot.stats().instructions);
        (node.snapshot.fork(), budget_left)
    }

    /// Reconcile a walk's wants with the tree: functions the certified
    /// trace now places become exact-depth wants, discovery wants on a
    /// trace that can no longer extend are dropped, and so are depth
    /// wants already resident or beyond the certified trace. Returns
    /// whether any want is left.
    fn settle(&self, depths: &mut BTreeSet<usize>, discover: &mut BTreeSet<&str>) -> bool {
        discover.retain(|function| match self.depth_of(function) {
            Some(depth) => {
                depths.insert(depth);
                false
            }
            None => !self.complete && !self.capped,
        });
        depths.retain(|&depth| depth <= self.trace.len() && !self.resident(depth));
        !depths.is_empty() || !discover.is_empty()
    }

    /// Insert a node (kept in ascending depth order) and charge its bytes,
    /// then evict this tree's least-recently-used non-root nodes while the
    /// executor-wide budget is exceeded. Eviction is local to the
    /// inserting tree — other trees trim themselves on their next
    /// insertion — which approximates a global LRU without cross-session
    /// locking.
    fn insert(&mut self, node: SnapshotNode, budget: &SnapshotBudget, metrics: &TreeMetrics) {
        budget.used.fetch_add(node.bytes, Ordering::Relaxed);
        metrics.nodes_materialized.inc();
        metrics.resident_bytes_hw.set_max(budget.used());
        let pos = self
            .nodes
            .iter()
            .position(|n| n.depth > node.depth)
            .unwrap_or(self.nodes.len());
        self.nodes.insert(pos, node);
        while budget.used() > budget.cap.load(Ordering::Relaxed) && self.nodes.len() > 1 {
            let victim = self.nodes[1..]
                .iter()
                .enumerate()
                .min_by_key(|(_, n)| (n.last_use, n.depth))
                .map(|(i, _)| i + 1)
                .expect("non-root nodes exist");
            let evicted = self.nodes.remove(victim);
            budget.used.fetch_sub(evicted.bytes, Ordering::Relaxed);
            metrics.nodes_evicted.inc();
            // Re-parent the victim's children, folding its coverage
            // increment into theirs so every surviving node's ancestor
            // chain still reconstructs the full prefix coverage.
            for node in &mut self.nodes[1..] {
                if node.parent_depth == evicted.depth {
                    node.parent_depth = evicted.parent_depth;
                    node.post_coverage.merge(&evicted.post_coverage);
                }
            }
        }
    }

    /// Record `calls` as injectable calls `base..base + calls.len()`
    /// (1-based), verifying overlap with the already-certified trace — a
    /// mismatch would mean a walk diverged from the certified path, which
    /// the pristine-RNG discipline is supposed to preclude.
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
pub(crate) struct PreparedSession {
    /// Coverage recorded by the shared prefix up to the root pause point,
    /// stripped out of the snapshots so injection forks do not clone it.
    prefix_coverage: Coverage,
    /// The per-run instruction budget this session was prepared under
    /// (forks run with this minus their fork point's consumption, so
    /// budget exhaustion behaves exactly like a fresh run).
    max_instructions: u64,
    /// Shared resident-byte accounting with the owning executor.
    budget: Arc<SnapshotBudget>,
    tree: Mutex<SnapshotTree>,
}

impl PreparedSession {
    /// Root a session at a prefix `machine` that is either paused before
    /// its first injectable call, a call to `paused_at`, or finished with a
    /// clean exit (`paused_at` is `None`: the workload makes no injectable
    /// call, and forks replay the exit). The caller has checked that the
    /// prefix left the RNG pristine.
    pub(crate) fn new(
        mut machine: Machine,
        paused_at: Option<String>,
        max_instructions: u64,
        budget: Arc<SnapshotBudget>,
        metrics: &TreeMetrics,
    ) -> PreparedSession {
        let prefix_coverage = machine.take_coverage();
        let complete = paused_at.is_none();
        let mut tree = SnapshotTree {
            trace: Vec::new(),
            first_depth: BTreeMap::new(),
            nodes: Vec::new(),
            complete,
            capped: false,
            ticks: 0,
        };
        tree.record_calls(1, paused_at.as_slice());
        let root = SnapshotNode::capture(&mut machine, 1, 1, 0);
        tree.insert(root, &budget, metrics);
        PreparedSession {
            prefix_coverage,
            max_instructions,
            budget,
            tree: Mutex::new(tree),
        }
    }

    fn tree(&self) -> MutexGuard<'_, SnapshotTree> {
        self.tree
            .lock()
            .expect("a fork or walk panicked while holding the tree lock")
    }

    /// Coverage of the shared prefix up to the root.
    pub(crate) fn prefix_coverage(&self) -> &Coverage {
        &self.prefix_coverage
    }

    /// Fork the root node — the entry point baseline-reachability
    /// profiling resumes from.
    pub(crate) fn fork_root(&self) -> (Machine, u64) {
        self.tree().fork(0, self.max_instructions)
    }

    /// The workload's first-call depth of `function`, when the certified
    /// trace places it.
    pub(crate) fn depth_of(&self, function: &str) -> Option<usize> {
        self.tree().depth_of(function)
    }

    /// The resident node depths, ascending.
    pub(crate) fn node_depths(&self) -> Vec<usize> {
        self.tree().nodes.iter().map(|n| n.depth).collect()
    }

    /// Fork the node a unit injecting `function` resumes from: the deepest
    /// resident node at or before the workload's first call to `function`.
    /// Never deepens the tree; a node the batch prefetch did not
    /// materialize (or the budget evicted) means a shallower fork, which
    /// only replays more of the certified prefix. Returns the machine and
    /// its remaining instruction budget.
    pub(crate) fn fork_for(&self, function: &str, metrics: &TreeMetrics) -> (Machine, u64) {
        let _span = metrics.fork_micros.start();
        let mut tree = self.tree();
        let (target, index) = tree.fork_point(function);
        let depth = tree.nodes[index].depth;
        let could_deepen = target <= tree.trace.len() || !(tree.complete || tree.capped);
        if depth < target && could_deepen {
            metrics.fork_misses.inc();
        } else {
            metrics.fork_hits.inc();
        }
        metrics.fork_at_depth(depth);
        tree.fork(index, self.max_instructions)
    }

    /// The full prefix coverage at the node a unit injecting `function`
    /// forks: the root prefix's coverage merged with each node's increment
    /// down the fork point's ancestor chain.
    pub(crate) fn path_coverage(&self, function: &str) -> Coverage {
        let tree = self.tree();
        let mut coverage = self.prefix_coverage.clone();
        let (_, mut index) = tree.fork_point(function);
        loop {
            let node = &tree.nodes[index];
            coverage.merge(&node.post_coverage);
            if index == 0 {
                return coverage;
            }
            index = tree
                .nodes
                .iter()
                .position(|n| n.depth == node.parent_depth)
                .expect("ancestor chain is resident");
        }
    }

    /// Warm the tree for a batch injecting `functions`: one walk along the
    /// certified path (unseeded, so it stays on the root seed's path)
    /// that pauses at each injectable call and snapshots every depth a
    /// batch unit will fork, discovering the first-call depth of functions
    /// the trace does not place yet. `injectable` names the calls the walk
    /// pauses at.
    ///
    /// Each step's endpoint decides the tree's fate: paused with a pristine
    /// RNG certifies the next call into the trace; a clean exit marks the
    /// trace complete; anything else (randomness consumed, crash, block,
    /// budget) caps the tree and drops the depth being chased.
    ///
    /// The walk holds the tree's lock throughout, so concurrent prefetches
    /// of one session run one after the other and forks wait for the walk
    /// rather than duplicate it.
    pub(crate) fn prefetch(
        &self,
        functions: &BTreeSet<String>,
        injectable: &[String],
        metrics: &TreeMetrics,
    ) {
        let mut tree = self.tree();
        let mut depths = BTreeSet::new();
        let mut discover = BTreeSet::new();
        for function in functions {
            match tree.depth_of(function) {
                Some(depth) => depths.insert(depth),
                None => discover.insert(function.as_str()),
            };
        }
        if !tree.settle(&mut depths, &mut discover) {
            return;
        }
        let _span = metrics.deepen_micros.start();
        metrics.prefetch_runs.inc();
        // A machine paused before injectable call `at`, plus the depth of
        // the resident node its accumulated coverage extends (coverage is
        // drained at every materialized node).
        let mut stepper: Option<(Machine, usize, usize)> = None;
        while tree.settle(&mut depths, &mut discover) {
            let goal = depths.first().copied();
            let bound = goal.unwrap_or(usize::MAX);
            // (Re-)position the walk on the deepest resident ancestor when
            // no machine is in flight, when the next want lies behind the
            // machine, or when a resident node sits deeper than it.
            let index = tree.deepest_at_most(bound);
            let node_depth = tree.nodes[index].depth;
            if stepper
                .as_ref()
                .is_none_or(|&(_, at, _)| at > bound || node_depth > at)
            {
                let (machine, _) = tree.fork(index, self.max_instructions);
                stepper = Some((machine, node_depth, node_depth));
            }
            let (mut machine, at, cov_parent) = stepper.take().expect("walk was positioned");
            if goal == Some(at) {
                depths.remove(&at);
                if tree.resident(at) {
                    // Unreachable while `settle` drops resident wants and
                    // the walk holds the lock; counted so a regression
                    // shows.
                    metrics.deepen_discarded.inc();
                    metrics.telemetry.note(
                        "snapshot-tree",
                        format!("prefetch walk found depth {at} already resident"),
                    );
                    stepper = Some((machine, at, cov_parent));
                } else {
                    let node = SnapshotNode::capture(&mut machine, at, cov_parent, tree.ticks);
                    tree.insert(node, &self.budget, metrics);
                    metrics.prefetch_nodes.inc();
                    // Keep walking only while the coverage lineage stays
                    // resident: a starved budget can evict the node on
                    // insertion, and chaining the next increment to the
                    // hole would lose the evicted interval's coverage.
                    stepper = tree.resident(at).then_some((machine, at, at));
                }
                continue;
            }
            let prep = standard_controller().step_session(
                machine,
                injectable.iter().cloned(),
                self.max_instructions,
            );
            let pristine = prep.machine.rng_is_pristine();
            match prep.prefix_exit {
                RunExit::Paused if pristine => {
                    tree.record_calls(at, &prep.forwarded);
                    let paused = at + prep.forwarded.len();
                    let call = prep.paused_at.expect("paused step names a call");
                    tree.record_calls(paused, std::slice::from_ref(&call));
                    stepper = Some((prep.machine, paused, cov_parent));
                }
                RunExit::Exited(_) if pristine => {
                    tree.record_calls(at, &prep.forwarded);
                    tree.complete = true;
                }
                _ => {
                    tree.capped = true;
                    // Drop the depth being chased so the walk cannot spin
                    // on it; its units fork the deepest resident ancestor.
                    if let Some(goal) = goal {
                        depths.remove(&goal);
                    }
                }
            }
        }
    }
}
