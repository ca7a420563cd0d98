//! The campaign engine: an adaptive work queue of concrete scenarios
//! executed on a parallel worker pool.
//!
//! The engine repeatedly asks the [`Strategy`] for a batch of fault points,
//! expands the batch into [`WorkUnit`]s (one per fault point and workload),
//! skips units a resumed [`CampaignState`] has already completed, drains the
//! rest on `jobs` worker threads, and feeds the completed records back into
//! the [`CampaignHistory`] before requesting the next batch — so strategies
//! can react to results mid-campaign. Each worker pulls units off a shared
//! cursor and hands them to the [`Executor`].
//!
//! ## Execution backends
//!
//! Two backends run units ([`ExecBackend`], chosen with
//! [`Campaign::backend`]):
//!
//! * **Fresh** — every unit builds a fresh VM via [`Executor::execute`];
//!   runs share nothing but the immutable target modules.
//! * **Snapshot** (the default) — the executor prepares one [`Session`] per
//!   `(target, workload)` pair ([`Executor::prepare`]): the workload runs
//!   once up to its first injectable library call and is captured as a VM
//!   snapshot. Every unit of that pair then forks from a snapshot
//!   ([`Executor::execute_from`]), so the prefix — target load, init, and
//!   workload setup — is executed once instead of once per fault point.
//!   The engine asks for each pair's session on its driver thread, the
//!   first time a batch needs it, and holds it for the rest of the run;
//!   caching sessions across runs is the executor's business. Targets
//!   that cannot snapshot (multi-process cluster targets return `None`
//!   from `prepare`) fall back to fresh VMs, and each batch dispatches
//!   those units before the ones that fork.
//!
//! Both backends must produce identical [`Execution`]s for the same unit —
//! results stay independent of the backend, the worker count, and the
//! interleaving, and resumable state is backend-agnostic.
//!
//! ## Unit identity, resumability, and partitioning
//!
//! Unit ids are **canonical**: unit `id` is the position of its
//! `(fault point, workload)` pair in the full expansion of the space in
//! enumeration order, independent of the strategy's schedule. Persisted
//! state is tagged `fingerprint@plan-hash%start..end`, where the plan hash
//! covers every point's full identity (target, function, offset, caller,
//! injected retval/errno, analyzer class, baseline reachability) and a
//! digest of each target's workload suite, and the suffix is the run's
//! [`Lease`] range (`0..P` for the whole space). Any change that could
//! shift unit ids or swap the scenario behind an id — re-annotation, a
//! different fault profile, an edited test suite, a different range —
//! therefore invalidates the checkpoint instead of silently misapplying
//! it.
//!
//! ## Driving a campaign
//!
//! A [`Campaign`] is one run. [`Campaign::builder`] fixes the unit layout
//! and every default, the setters in [`crate::builder`] change them, and
//! [`Campaign::run_with_state`] is the engine loop, which adds lease
//! selection, streamed [`CampaignEvent`]s and per-batch checkpointing to
//! the batches above.

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use lfi_core::Scenario;
use lfi_telemetry::Telemetry;

use crate::events::{CampaignEvent, EventSink};
use crate::history::CampaignHistory;
use crate::lease::{format_range, Lease, LeaseOutcome};
use crate::space::{FaultPoint, FaultSpace};
use crate::state::CampaignState;
use crate::strategy::{Exhaustive, Strategy};
use crate::triage::{crash_signatures, triage, CampaignReport, CrashSignature};

/// How one campaign run ended, from the triage point of view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutcomeKind {
    /// Exit code 0.
    Passed,
    /// Clean non-zero exit.
    CleanFailure(i64),
    /// Crash (the interesting case).
    Crashed,
    /// Budget exhausted or all threads blocked.
    Hung,
}

impl OutcomeKind {
    /// Whether this outcome is a crash.
    pub fn is_crash(&self) -> bool {
        matches!(self, OutcomeKind::Crashed)
    }
}

/// One observed crash, with enough context to form a signature and to match
/// known bugs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashInfo {
    /// Module containing the faulting instruction.
    pub module: String,
    /// Code offset of the faulting instruction.
    pub offset: u64,
    /// Human-readable description (fault kind and location).
    pub description: String,
    /// Function containing the faulting instruction, if resolvable.
    pub in_function: Option<String>,
    /// Symbolized backtrace function names, innermost first.
    pub backtrace: Vec<String>,
}

/// One call site where the unit's fault was actually injected. A record
/// holds one entry per distinct `(module, offset)`, in first-injection
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedSite {
    /// Module of the call site.
    pub module: String,
    /// Code offset of the call site.
    pub offset: u64,
    /// Function containing the call site, if resolvable.
    pub caller: Option<String>,
    /// Injections made at this call site.
    pub count: u64,
}

/// The executor-produced result of one work unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// Interpreted outcome.
    pub outcome: OutcomeKind,
    /// Number of injections performed.
    pub injections: u64,
    /// Call sites where the unit's function was failed.
    pub injected_sites: Vec<InjectedSite>,
    /// Observed crashes (a cluster target may produce several).
    pub crashes: Vec<CrashInfo>,
    /// Virtual time consumed.
    pub virtual_time: u64,
}

/// One unit of campaign work: a single-fault-point scenario applied to one
/// workload of the target's test suite.
#[derive(Debug, Clone)]
pub struct WorkUnit {
    /// Canonical unit id: the position of this `(fault point, workload)`
    /// pair in the full expansion of the space in enumeration order. Stable
    /// across strategies and batch schedules, so resumed records always
    /// refer to the same scenario.
    pub id: usize,
    /// The fault point under test.
    pub point: FaultPoint,
    /// The compiled scenario.
    pub scenario: Scenario,
    /// Workload arguments.
    pub args: Vec<String>,
    /// Seed for the run (a splitmix64-style mix of the campaign seed and
    /// the canonical unit id, so results do not depend on scheduling and
    /// adjacent campaign seeds do not share unit seeds).
    pub seed: u64,
}

/// The durable record of one executed unit: everything triage and
/// known-bug matching need, and what [`CampaignState`] persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// Canonical unit id.
    pub unit: usize,
    /// Target program.
    pub target: String,
    /// Injected library function.
    pub function: String,
    /// Fault-point call-site offset.
    pub offset: u64,
    /// Workload arguments.
    pub args: Vec<String>,
    /// Interpreted outcome.
    pub outcome: OutcomeKind,
    /// Number of injections performed.
    pub injections: u64,
    /// Call sites where the function was failed.
    pub injected_sites: Vec<InjectedSite>,
    /// Observed crashes.
    pub crashes: Vec<CrashInfo>,
    /// Virtual time consumed.
    pub virtual_time: u64,
}

impl RunRecord {
    /// The record of `unit`, which ran to `execution`.
    fn from_execution(unit: &WorkUnit, execution: Execution) -> RunRecord {
        RunRecord {
            unit: unit.id,
            target: unit.point.target.clone(),
            function: unit.point.function.clone(),
            offset: unit.point.offset,
            args: unit.args.clone(),
            outcome: execution.outcome,
            injections: execution.injections,
            injected_sites: execution.injected_sites,
            crashes: execution.crashes,
            virtual_time: execution.virtual_time,
        }
    }
}

/// An opaque prepared execution session for one `(target, workload)` pair,
/// produced by [`Executor::prepare`] and held by the engine for one run.
///
/// The engine never looks inside a session — it only keeps it per
/// `(target, workload)` key and hands it back to
/// [`Executor::execute_from`], which downcasts to whatever payload its
/// `prepare` stored (for the standard executor: a VM snapshot paused at the
/// workload's first injectable library call).
pub struct Session(Box<dyn Any + Send + Sync>);

impl Session {
    /// Wrap an executor-specific payload.
    pub fn new<T: Any + Send + Sync>(payload: T) -> Session {
        Session(Box::new(payload))
    }

    /// Recover the payload stored by [`Session::new`].
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.0.downcast_ref::<T>()
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").finish_non_exhaustive()
    }
}

/// One unit's session coordinates, the argument of the unused
/// [`Executor::prefetch_batch`], and deleted with it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct PrefetchKey {
    /// Target program.
    pub target: String,
    /// Workload arguments.
    pub args: Vec<String>,
    /// Function the unit injects.
    pub function: String,
}

/// Runs work units against real targets. Implementations must be shareable
/// across worker threads.
///
/// # The prepare / execute_from contract
///
/// The trait is a **session model** with two execution paths; which path a
/// unit takes is the engine's choice ([`ExecBackend`]), never the
/// implementor's:
///
/// * Under [`ExecBackend::Fresh`] the engine only ever calls
///   [`Executor::execute`]. Every call must build an isolated instance
///   (fresh VM, fresh simulated filesystem/network, RNG seeded from
///   [`WorkUnit::seed`]) so units never share mutable state.
/// * Under [`ExecBackend::Snapshot`] the engine calls
///   [`Executor::prepare`] **at most once** per `(target, workload)` pair
///   per run, on its driver thread, before the batch that first needs the
///   pair drains — so `prepare` never runs concurrently with itself or
///   with a unit. It then calls [`Executor::execute_from`] once per unit,
///   always with a [`Session`] this same executor returned for exactly
///   that unit's pair. `execute_from` must treat the session as immutable
///   shared state: every sibling unit forks from the same session,
///   concurrently. The engine keeps sessions for one run only; an
///   executor that wants them to outlive it (across the runs of
///   successive leases, say) memoizes them itself.
///
/// ## The `None` fallback
///
/// `prepare` returning `None` declares "this pair cannot snapshot". The
/// engine keeps the refusal for the run (so the decision is made once, not
/// once per unit) and routes every unit of the pair through
/// [`Executor::execute`] instead — even under the snapshot backend. The stock
/// [`StandardExecutor`](crate::standard::StandardExecutor) refuses for
/// **bft-lite**: the PBFT cluster target is multi-process (four replica
/// VMs plus a client harness), so no single-machine snapshot can capture
/// it, and its units always run as fresh cluster runs whatever the
/// backend. It also refuses when a workload's prefix consumed randomness,
/// because forks reseed the RNG per unit and would otherwise diverge from
/// fresh runs. The engine dispatches a batch's sessionless units before
/// its forked ones.
///
/// Whichever path runs a unit, the resulting [`Execution`] must be
/// **identical** — the backend is a performance choice, not a semantics
/// choice, and the differential tests in
/// `crates/campaign/tests/backend_parity.rs` enforce it.
pub trait Executor: Sync {
    /// The workload argument lists forming `target`'s default test suite.
    /// Every selected fault point is run once per workload.
    fn workloads(&self, target: &str) -> Vec<Vec<String>>;

    /// Prepare a reusable session for one `(target, workload)` pair: run the
    /// workload's shared prefix once and capture it. Return `None` when the
    /// target cannot snapshot (e.g. multi-process cluster targets); its
    /// units then run through [`Executor::execute`]. The default never
    /// snapshots, so fresh-only executors need not implement the session
    /// half.
    fn prepare(&self, _target: &str, _args: &[String]) -> Option<Session> {
        None
    }

    /// Execute one unit by forking the prepared session. Only called with
    /// sessions this executor returned from [`Executor::prepare`]; the
    /// default delegates to a fresh run.
    fn execute_from(&self, _session: &Session, unit: &WorkUnit) -> Execution {
        self.execute(unit)
    }

    /// Unused: the engine never calls it. It stays as a no-op only
    /// because the benchmark harness (`perfbench/`) implements every
    /// method of this trait; the next change to that harness deletes it.
    fn prefetch_batch(&self, _units: &[PrefetchKey], _jobs: usize) {}

    /// Unused, and kept as a no-op for the same reason as
    /// [`Executor::prefetch_batch`]; deleted with it.
    fn first_call_depth(&self, _target: &str, _args: &[String], _function: &str) -> Option<usize> {
        None
    }

    /// Unused, and kept as a no-op for the same reason as
    /// [`Executor::prefetch_batch`]; deleted with it.
    fn set_snapshot_budget(&self, _bytes: u64) {}

    /// Bytes of resident snapshot state currently held across sessions
    /// (`0` for executors that never snapshot).
    fn snapshot_bytes(&self) -> u64 {
        0
    }

    /// The telemetry registry this executor records into. The engine uses
    /// the same registry for its own spans (unit execution, triage,
    /// checkpoint writes), heartbeat metric captures, the final
    /// [`CampaignReport::metrics`] snapshot. The default is
    /// a disabled (no-op) registry: executors opt in by owning a live
    /// [`Telemetry`] and returning clones of it here.
    fn telemetry(&self) -> Telemetry {
        Telemetry::disabled()
    }

    /// Execute one unit on a fresh VM instance.
    fn execute(&self, unit: &WorkUnit) -> Execution;
}

/// How the engine runs work units — see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecBackend {
    /// A fresh VM per unit.
    Fresh,
    /// Fork each unit from a prepared per-`(target, workload)` snapshot,
    /// falling back to fresh VMs for targets that cannot snapshot.
    #[default]
    Snapshot,
}

impl std::fmt::Display for ExecBackend {
    /// The command-line name of the backend (`fresh` / `snapshot`) —
    /// the inverse of the [`FromStr`](std::str::FromStr) impl.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ExecBackend::Fresh => "fresh",
            ExecBackend::Snapshot => "snapshot",
        })
    }
}

/// An unknown backend name; the message lists the accepted values, so
/// command-line tools can surface it verbatim instead of silently
/// defaulting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBackendError {
    found: String,
}

impl std::fmt::Display for ParseBackendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown execution backend `{}` (expected `fresh` or `snapshot`)",
            self.found
        )
    }
}

impl std::error::Error for ParseBackendError {}

impl std::str::FromStr for ExecBackend {
    type Err = ParseBackendError;

    fn from_str(name: &str) -> Result<ExecBackend, ParseBackendError> {
        match name {
            "fresh" => Ok(ExecBackend::Fresh),
            "snapshot" => Ok(ExecBackend::Snapshot),
            _ => Err(ParseBackendError {
                found: name.to_string(),
            }),
        }
    }
}

/// Default minimum interval between heartbeat events (see
/// [`Campaign::heartbeat`]).
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Persist a campaign checkpoint with write-then-rename, so an
/// interruption mid-write leaves the previous checkpoint intact instead of
/// a truncated file the next run would refuse to parse.
fn write_checkpoint(
    path: &Path,
    state: &CampaignState,
    sink: Option<&dyn EventSink>,
    batch_duration: Duration,
) {
    // Append (never substitute) the marker: `state.0` and `state.1` in one
    // directory must not share a temp file, and a checkpoint path that
    // itself ends in `.tmp` must still get a distinct temp sibling.
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    std::fs::write(&tmp, state.to_json())
        .and_then(|()| std::fs::rename(&tmp, path))
        .unwrap_or_else(|err| panic!("write campaign checkpoint {}: {err}", path.display()));
    if let Some(sink) = sink {
        sink.event(&CampaignEvent::CheckpointWritten {
            path: path.to_path_buf(),
            completed: state.records().len(),
            batch_duration_micros: batch_duration.as_micros() as u64,
        });
    }
}

/// What the drain workers update while a run goes on: unit timings, the
/// executed count, and the heartbeat throttle.
struct RunProgress {
    unit_execute_micros: lfi_telemetry::Histogram,
    units_executed: lfi_telemetry::Counter,
    run_start: Instant,
    /// Run time (micros since `run_start`) of the last emitted heartbeat.
    /// Held across the snapshot and the sink call, so heartbeats reach
    /// the sink in the order their progress was read.
    last_heartbeat_micros: Mutex<u64>,
    /// Units executed this session so far.
    executed: AtomicUsize,
}

/// Mix a base seed and a stream index into an independent per-stream seed
/// (splitmix64 finalizer). Unlike `seed + index`, two adjacent base seeds
/// never produce near-identical seed sequences shifted by one.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One fault-space exploration campaign: the space with its canonical unit
/// layout, and every choice of how to run it. [`Campaign::builder`] sets
/// the defaults and the setters in [`crate::builder`] change them.
pub struct Campaign<'a> {
    space: FaultSpace,
    executor: &'a dyn Executor,
    /// Workload suites per target, in the space's first-seen target order.
    suites: Vec<(String, Vec<Vec<String>>)>,
    /// Canonical id of the first unit of each fault point.
    unit_base: Vec<usize>,
    /// Total canonical units (points × their workload suites).
    total_units: usize,
    pub(crate) strategy: Box<dyn Strategy + 'a>,
    /// Not part of the persisted plan identity: both backends produce
    /// identical records, so a checkpoint written under one backend
    /// resumes cleanly under the other.
    pub(crate) backend: ExecBackend,
    /// Worker threads (clamped to at least 1, and never more than the
    /// pending units of a batch).
    pub(crate) jobs: usize,
    /// Base seed; unit seeds derive from it and the canonical unit id via
    /// [`derive_seed`].
    pub(crate) seed: u64,
    pub(crate) heartbeat: Option<Duration>,
    pub(crate) lease: Lease,
    pub(crate) known_signatures: Vec<CrashSignature>,
    pub(crate) sink: Option<&'a dyn EventSink>,
    pub(crate) checkpoint: Option<PathBuf>,
}

impl<'a> Campaign<'a> {
    /// A campaign over `space`, executing with `executor`, with every
    /// default: the [`Exhaustive`] strategy, the default [`ExecBackend`],
    /// 1 job, seed 7, a heartbeat every [`DEFAULT_HEARTBEAT_INTERVAL`],
    /// the whole space as one lease, no known signatures, no event sink
    /// and no checkpoint path. The canonical unit layout (every point ×
    /// its target's workload suite) is fixed here; workload suites are
    /// queried once per target.
    pub fn builder(space: FaultSpace, executor: &'a dyn Executor) -> Campaign<'a> {
        let mut suites: Vec<(String, Vec<Vec<String>>)> = Vec::new();
        let mut unit_base = Vec::with_capacity(space.len());
        let mut total_units = 0usize;
        for point in &space.points {
            let suite_len = match suites.iter().find(|(name, _)| *name == point.target) {
                Some((_, suite)) => suite.len(),
                None => {
                    let suite = executor.workloads(&point.target);
                    let len = suite.len();
                    suites.push((point.target.clone(), suite));
                    len
                }
            };
            unit_base.push(total_units);
            total_units += suite_len;
        }
        Campaign {
            lease: Lease::full(space.len()),
            space,
            executor,
            suites,
            unit_base,
            total_units,
            strategy: Box::new(Exhaustive),
            backend: ExecBackend::default(),
            jobs: 1,
            seed: 7,
            heartbeat: Some(DEFAULT_HEARTBEAT_INTERVAL),
            known_signatures: Vec::new(),
            sink: None,
            checkpoint: None,
        }
    }

    /// The fault space under exploration.
    pub fn space(&self) -> &FaultSpace {
        &self.space
    }

    /// Total canonical work units: every fault point × its target's
    /// workload suite.
    pub fn total_units(&self) -> usize {
        self.total_units
    }

    /// Number of canonical work units covered by `lease`'s point range
    /// (clamped to the space). Leases that tile the space partition
    /// [`Campaign::total_units`] exactly.
    pub fn lease_units(&self, lease: Lease) -> usize {
        (lease.start..lease.end.min(self.space.len()))
            .map(|point| self.point_units(point))
            .sum()
    }

    /// Workload-suite size of one fault point (units between its base and
    /// the next point's).
    fn point_units(&self, point: usize) -> usize {
        let next = self
            .unit_base
            .get(point + 1)
            .copied()
            .unwrap_or(self.total_units);
        next - self.unit_base[point]
    }

    fn suite(&self, target: &str) -> &[Vec<String>] {
        self.suites
            .iter()
            .find(|(name, _)| name == target)
            .map(|(_, suite)| suite.as_slice())
            .unwrap_or(&[])
    }

    /// Expand a batch of fault-point indices into work units with canonical
    /// ids and derived seeds.
    fn units_for(&self, points: &[usize]) -> Vec<WorkUnit> {
        let mut units = Vec::new();
        for &point_index in points {
            let point = &self.space.points[point_index];
            let scenario = point.scenario();
            for (w, args) in self.suite(&point.target).iter().enumerate() {
                let id = self.unit_base[point_index] + w;
                units.push(WorkUnit {
                    id,
                    point: point.clone(),
                    scenario: scenario.clone(),
                    args: args.clone(),
                    seed: derive_seed(self.seed, id as u64),
                });
            }
        }
        units
    }

    /// The identity of this campaign's plan: an FNV-1a fold of the space
    /// digest (full point identity, annotations included) and every
    /// target's workload suite. Combined with the strategy fingerprint to
    /// tag persisted state — see the module docs for what this invalidates.
    pub fn plan_hash(&self) -> u64 {
        let mut hash = self.space.digest();
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for (target, suite) in &self.suites {
            mix(target.as_bytes());
            mix(&[0xfe]);
            for args in suite {
                for arg in args {
                    mix(arg.as_bytes());
                    mix(&[0x1f]);
                }
                mix(&[0xfd]);
            }
        }
        hash
    }

    /// Emit a heartbeat if a full interval has elapsed since the last one,
    /// or whenever `run_over` is set, so a run shorter than one interval
    /// still reports its progress and metrics once. A worker that finds
    /// another one mid-heartbeat skips its own: the claim is a `try_lock`
    /// held until the event is delivered, so successive heartbeats never
    /// report progress out of order. `planned` is the history's planned
    /// unit count, which only changes between batches.
    fn emit_heartbeat(
        &self,
        sink: &dyn EventSink,
        progress: &RunProgress,
        planned: usize,
        run_over: bool,
    ) {
        let Some(interval) = self.heartbeat else {
            return;
        };
        let Ok(mut last) = progress.last_heartbeat_micros.try_lock() else {
            return;
        };
        let elapsed = progress.run_start.elapsed().as_micros() as u64;
        if !run_over && elapsed.saturating_sub(*last) < interval.as_micros() as u64 {
            return;
        }
        *last = elapsed;
        let units_done = progress.executed.load(Ordering::Relaxed);
        // units/sec scaled by 1000 (the wire format is integer-only):
        // done / (elapsed/1e6) * 1000 = done * 1e9 / elapsed_micros.
        let milli_units_per_sec = (units_done as u64)
            .saturating_mul(1_000_000_000)
            .checked_div(elapsed)
            .unwrap_or(0);
        sink.event(&CampaignEvent::Heartbeat {
            shard: self.lease.start..self.lease.end,
            units_done,
            units_planned: planned,
            milli_units_per_sec,
            metrics: self.executor.telemetry().snapshot(),
        });
    }

    /// Drain one batch of pending units on the worker pool and return the
    /// completed records, ordered by unit id. Spawns `min(jobs, pending)`
    /// threads — zero when there is nothing to run. Each worker takes the
    /// next unit and forks its session, or runs it fresh when it has none.
    /// With a sink it announces the unit's start, then its
    /// `UnitFinished`, a `CrashFound` for each crash signature first seen
    /// in this run, and a throttled heartbeat. The seen-set lock is
    /// released before the sink is invoked: a slow sink may delay its own
    /// worker, but must not serialize the others through the signature
    /// mutex.
    fn drain(
        &self,
        pending: &[(&WorkUnit, Option<&Session>)],
        seen_signatures: &Mutex<BTreeSet<CrashSignature>>,
        progress: &RunProgress,
        planned: usize,
    ) -> (Vec<RunRecord>, usize) {
        if pending.is_empty() {
            return (Vec::new(), 0);
        }
        let workers = self.jobs.max(1).min(pending.len());
        let cursor = AtomicUsize::new(0);
        let results: Mutex<Vec<RunRecord>> = Mutex::new(Vec::new());
        thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let next = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&(unit, session)) = pending.get(next) else {
                        break;
                    };
                    if let Some(sink) = self.sink {
                        sink.event(&CampaignEvent::UnitStarted {
                            unit: unit.id,
                            target: unit.point.target.clone(),
                            function: unit.point.function.clone(),
                            offset: unit.point.offset,
                        });
                    }
                    let started = Instant::now();
                    let execution = match session {
                        Some(session) => self.executor.execute_from(session, unit),
                        None => self.executor.execute(unit),
                    };
                    let duration_micros = started.elapsed().as_micros() as u64;
                    progress.unit_execute_micros.record(duration_micros);
                    progress.units_executed.inc();
                    progress.executed.fetch_add(1, Ordering::Relaxed);
                    let record = RunRecord::from_execution(unit, execution);
                    if let Some(sink) = self.sink {
                        sink.event(&CampaignEvent::UnitFinished {
                            record: record.clone(),
                            duration_micros,
                        });
                        for signature in crash_signatures(&record) {
                            let fresh_signature =
                                seen_signatures.lock().unwrap().insert(signature.clone());
                            if fresh_signature {
                                sink.event(&CampaignEvent::CrashFound(signature));
                            }
                        }
                        self.emit_heartbeat(sink, progress, planned, false);
                    }
                    results.lock().unwrap().push(record);
                });
            }
        });
        let mut fresh = results.into_inner().unwrap();
        fresh.sort_by_key(|r| r.unit);
        (fresh, workers)
    }

    /// Run this campaign's lease against caller-owned state, updated in
    /// place: the engine loop, and the resumable entry point for callers
    /// that manage persistence themselves.
    ///
    /// It repeatedly requests a batch from the strategy, executes its
    /// units that `state` has not already completed, feeds the results
    /// back through the history, and stops when the strategy has nothing
    /// new to schedule. Fault points outside the lease are pre-marked
    /// dispatched, confining any strategy's schedule to the run's slice.
    /// Progress streams into the event sink, and the checkpoint path, when
    /// set, persists the state after every batch that added records; the
    /// last batch's write is sealed, so a one-batch run writes once. The
    /// known signatures (a supervisor's broadcasts) steer adaptive
    /// strategies and are not re-announced as `CrashFound` events.
    pub fn run_with_state(&self, state: &mut CampaignState) -> LeaseOutcome {
        let lease = self.lease;
        // The state tag covers the strategy's scheduling identity, the plan
        // (point identity incl. annotations + workload suites), AND the
        // run's range: unit ids are indices into this exact expansion and
        // the record set is one slice of it, so a resume against anything
        // else — including the same plan under a different range — must
        // start fresh. Lease identity is the *range* (not the grant id): a
        // reassigned lease adopts the previous worker's checkpoint and
        // re-executes only unfinished work.
        let tag = format!(
            "{}@{:016x}%{}",
            self.strategy.fingerprint(),
            self.plan_hash(),
            format_range(lease.start, lease.end)
        );
        state.adopt(&tag, self.seed);

        let mut history = CampaignHistory::new(self.unit_base.clone(), self.total_units);
        // Points outside the lease range are excluded up front: strategies
        // see them as already dispatched and schedule around them, so the
        // engine never has to second-guess a batch (a strategy that emits
        // one point at a time still terminates correctly).
        for point in (0..self.space.len()).filter(|&point| !lease.owns_point(point)) {
            history.exclude_point(point);
        }
        let seen_signatures: Mutex<BTreeSet<CrashSignature>> = Mutex::new(BTreeSet::new());
        // Broadcast signatures steer scheduling (via the history's hint
        // set) and suppress duplicate announcements, but never contribute
        // records — merged results stay byte-identical to a run without
        // them for history-independent schedules.
        for signature in &self.known_signatures {
            history.add_signature_hint(signature.clone());
            seen_signatures.lock().unwrap().insert(signature.clone());
        }
        for record in state.records() {
            seen_signatures
                .lock()
                .unwrap()
                .extend(crash_signatures(record));
            history.observe(record.clone());
        }

        let telemetry = self.executor.telemetry();
        let triage_micros = telemetry.histogram("triage_micros");
        let checkpoint_write_micros = telemetry.histogram("checkpoint_write_micros");
        let progress = RunProgress {
            unit_execute_micros: telemetry.histogram("unit_execute_micros"),
            units_executed: telemetry.counter("units_executed"),
            run_start: Instant::now(),
            last_heartbeat_micros: Mutex::new(0),
            executed: AtomicUsize::new(0),
        };

        // The sessions of this run, prepared on this thread the first time
        // a pending unit of their `(target, workload)` pair needs one;
        // `None` records a pair that cannot snapshot. Empty under the
        // fresh backend.
        let mut sessions: BTreeMap<(String, Vec<String>), Option<Session>> = BTreeMap::new();
        let mut peak_workers = 0usize;
        let mut batch_started = Instant::now();
        // Each point runs at most once per campaign: drop repeats within
        // the batch and points dispatched earlier. An empty batch after
        // filtering ends the run (and bounds it: at most `space.len()`
        // non-empty batches).
        let next_batch = |history: &CampaignHistory| -> Vec<usize> {
            let mut seen = BTreeSet::new();
            self.strategy
                .next_batch(&self.space, history)
                .into_iter()
                .filter(|&i| !history.dispatched(i) && seen.insert(i))
                .collect()
        };
        let persist = |state: &CampaignState, batch_started: Instant| {
            if let Some(path) = &self.checkpoint {
                let span = checkpoint_write_micros.start();
                write_checkpoint(path, state, self.sink, batch_started.elapsed());
                span.finish();
            }
        };
        let mut batch = next_batch(&history);
        if batch.is_empty() {
            // Nothing to schedule at all: seal and persist the (possibly
            // resumed) state as it stands.
            state.mark_complete();
            persist(state, batch_started);
        }
        while !batch.is_empty() {
            let units = self.units_for(&batch);
            history.begin_batch(&batch, units.len());
            let pending: Vec<&WorkUnit> = units.iter().filter(|u| !state.completed(u.id)).collect();
            if let Some(sink) = self.sink {
                sink.event(&CampaignEvent::BatchPlanned {
                    batch: history.batches(),
                    points: batch.len(),
                    units: units.len(),
                    pending: pending.len(),
                });
            }
            if self.backend == ExecBackend::Snapshot {
                for unit in &pending {
                    sessions
                        .entry((unit.point.target.clone(), unit.args.clone()))
                        .or_insert_with(|| self.executor.prepare(&unit.point.target, &unit.args));
                }
            }
            let mut dispatch: Vec<(&WorkUnit, Option<&Session>)> = pending
                .iter()
                .map(|&unit| {
                    let key = (unit.point.target.clone(), unit.args.clone());
                    (unit, sessions.get(&key).and_then(Option::as_ref))
                })
                .collect();
            // Move the units of pairs without a session to the front,
            // keeping the strategy's order within each group: they run
            // whole from program start, and the bft-lite cluster units
            // among them are the batch's longest, so dispatched last one of
            // them would run alone at the end while the other workers sit
            // idle. A pure permutation: `drain` sorts records by canonical
            // unit id.
            dispatch.sort_by_key(|(_, session)| session.is_some());
            let planned = history.planned_units();
            let (fresh, workers) = self.drain(&dispatch, &seen_signatures, &progress, planned);
            peak_workers = peak_workers.max(workers);
            let batch_executed = fresh.len();
            for record in fresh {
                history.observe(record.clone());
                state.push(record);
            }
            // Ask for the next batch before persisting this one: when the
            // strategy has nothing left, the state is sealed first, so the
            // last batch's write is the one sealed write (a merge step
            // tells a finished lease from a mid-run checkpoint of an
            // interrupted one by the seal). Otherwise persist only batches
            // that added records: a fully-resumed batch has nothing new.
            batch = next_batch(&history);
            let last = batch.is_empty();
            if last {
                state.mark_complete();
            }
            if last || batch_executed > 0 {
                persist(state, batch_started);
                batch_started = Instant::now();
            }
        }

        let triage_span = triage_micros.start();
        let final_triage = triage(state.records());
        triage_span.finish();
        let executed_now = progress.executed.load(Ordering::Relaxed);
        let report = CampaignReport {
            strategy: self.strategy.name().to_string(),
            space_size: self.space.len(),
            planned_points: history.dispatched_points(),
            units_total: history.planned_units(),
            batches: history.batches(),
            peak_workers,
            executed_now,
            triage: final_triage,
            records: state.records().to_vec(),
            metrics: telemetry.enabled().then(|| telemetry.snapshot()),
        };
        if let Some(sink) = self.sink {
            // The run's last heartbeat, then close the stream. The drain
            // threads are joined, so the heartbeat's claim cannot be taken.
            self.emit_heartbeat(sink, &progress, history.planned_units(), true);
            sink.event(&CampaignEvent::ShardFinished {
                shard: lease.start..lease.end,
                executed: executed_now,
                records: report.records.len(),
            });
        }
        LeaseOutcome {
            start: lease.start,
            end: lease.end,
            tag,
            seed: self.seed,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicUsize;

    use super::*;

    /// A synthetic executor: "crashes" whenever the fault-point offset is a
    /// multiple of 8, and counts how many executions happened.
    struct FakeExecutor {
        executions: AtomicUsize,
    }

    impl FakeExecutor {
        fn new() -> FakeExecutor {
            FakeExecutor {
                executions: AtomicUsize::new(0),
            }
        }
    }

    impl Executor for FakeExecutor {
        fn workloads(&self, _target: &str) -> Vec<Vec<String>> {
            vec![vec!["a".into()], vec!["b".into()]]
        }

        fn execute(&self, unit: &WorkUnit) -> Execution {
            self.executions.fetch_add(1, Ordering::Relaxed);
            let crashes = if unit.point.offset.is_multiple_of(8) {
                vec![CrashInfo {
                    module: unit.point.target.clone(),
                    offset: unit.point.offset + 100,
                    description: "segfault".into(),
                    in_function: Some("victim".into()),
                    backtrace: vec!["victim".into(), "main".into()],
                }]
            } else {
                Vec::new()
            };
            Execution {
                outcome: if crashes.is_empty() {
                    OutcomeKind::Passed
                } else {
                    OutcomeKind::Crashed
                },
                injections: 1,
                injected_sites: vec![InjectedSite {
                    module: unit.point.target.clone(),
                    offset: unit.point.offset,
                    caller: unit.point.caller.clone(),
                    count: 1,
                }],
                crashes,
                virtual_time: 10,
            }
        }
    }

    fn demo_space(points: usize) -> FaultSpace {
        FaultSpace {
            points: (0..points)
                .map(|i| crate::space::FaultPoint {
                    target: "demo".into(),
                    function: "read".into(),
                    offset: (i as u64) * 4,
                    caller: Some("main".into()),
                    retval: -1,
                    ..crate::space::FaultPoint::default()
                })
                .collect(),
        }
    }

    /// The canonical work-unit list of the whole space (every point in
    /// enumeration order × its workloads). Unit ids equal positions.
    fn units(campaign: &Campaign) -> Vec<WorkUnit> {
        campaign.units_for(&(0..campaign.space().len()).collect::<Vec<_>>())
    }

    fn scenario_map(units: &[WorkUnit]) -> BTreeMap<usize, (u64, Vec<String>)> {
        units
            .iter()
            .map(|u| (u.id, (u.point.offset, u.args.clone())))
            .collect()
    }

    #[test]
    fn units_expand_points_by_workload_deterministically() {
        let executor = FakeExecutor::new();
        let campaign = Campaign::builder(demo_space(3), &executor);
        let expanded = units(&campaign);
        assert_eq!(expanded.len(), 6, "3 points x 2 workloads");
        assert_eq!(campaign.total_units(), 6);
        assert_eq!(scenario_map(&expanded), scenario_map(&units(&campaign)));
        // Canonical ids equal positions in the full expansion.
        assert_eq!(
            expanded.iter().map(|u| u.id).collect::<Vec<_>>(),
            (0..6).collect::<Vec<_>>()
        );
        for unit in &expanded {
            unit.scenario.validate().unwrap();
        }
    }

    #[test]
    fn unit_seeds_do_not_collide_across_adjacent_campaign_seeds() {
        let executor = FakeExecutor::new();
        let seeds_of = |seed| {
            units(&Campaign::builder(demo_space(64), &executor).seed(seed))
                .iter()
                .map(|u| u.seed)
                .collect::<Vec<u64>>()
        };
        let a = seeds_of(7);
        let b = seeds_of(8);
        // With the old `seed.wrapping_add(id)` derivation, b was a shifted
        // by one: 127 of 128 unit seeds shared. The splitmix64-style mix
        // must keep the two campaigns' seed sets disjoint.
        let set_a: BTreeSet<u64> = a.iter().copied().collect();
        assert_eq!(
            set_a.len(),
            a.len(),
            "unit seeds within a campaign are distinct"
        );
        assert!(
            b.iter().all(|seed| !set_a.contains(seed)),
            "adjacent campaign seeds must not share unit seeds"
        );
        assert_eq!(a, seeds_of(7), "derivation is deterministic");
    }

    #[test]
    fn parallel_runs_match_serial_runs() {
        let serial_exec = FakeExecutor::new();
        let serial = Campaign::builder(demo_space(9), &serial_exec)
            .jobs(1)
            .seed(7)
            .build()
            .run_to_completion()
            .report;

        let parallel_exec = FakeExecutor::new();
        let parallel = Campaign::builder(demo_space(9), &parallel_exec)
            .jobs(4)
            .seed(7)
            .build()
            .run_to_completion()
            .report;

        assert_eq!(serial.records, parallel.records);
        assert_eq!(serial.triage.buckets.len(), parallel.triage.buckets.len());
        assert_eq!(parallel_exec.executions.load(Ordering::Relaxed), 18);
        assert_eq!(parallel.peak_workers, 4);
        assert_eq!(serial.peak_workers, 1);
    }

    /// An executor that blocks until `expected` workers are inside
    /// `execute` at the same time — proof the pool genuinely overlaps work
    /// (wall-clock scaling then only depends on available cores).
    struct RendezvousExecutor {
        expected: usize,
        inside: AtomicUsize,
    }

    impl Executor for RendezvousExecutor {
        fn workloads(&self, _target: &str) -> Vec<Vec<String>> {
            vec![vec![]]
        }

        fn execute(&self, _unit: &WorkUnit) -> Execution {
            self.inside.fetch_add(1, Ordering::SeqCst);
            // Wait (bounded) until every other worker has arrived; a
            // serial pool would never get past here and hit the deadline.
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
            while self.inside.load(Ordering::SeqCst) < self.expected {
                assert!(
                    std::time::Instant::now() < deadline,
                    "workers never overlapped: the pool is not parallel"
                );
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            Execution {
                outcome: OutcomeKind::Passed,
                injections: 0,
                injected_sites: vec![],
                crashes: vec![],
                virtual_time: 1,
            }
        }
    }

    #[test]
    fn workers_execute_units_concurrently() {
        let executor = RendezvousExecutor {
            expected: 4,
            inside: AtomicUsize::new(0),
        };
        let report = Campaign::builder(demo_space(4), &executor)
            .jobs(4)
            .seed(7)
            .build()
            .run_to_completion()
            .report;
        assert_eq!(report.executed_now, 4);
    }

    #[test]
    fn resumed_campaigns_skip_completed_units() {
        let executor = FakeExecutor::new();
        let campaign = Campaign::builder(demo_space(4), &executor).build();
        let mut state = CampaignState::default();
        let first = campaign.run_with_state(&mut state).report;
        assert_eq!(first.executed_now, 8);
        assert_eq!(first.batches, 1, "exhaustive is a single-batch schedule");

        // Round-trip the state through JSON, then run again: nothing left.
        let mut resumed = CampaignState::from_json(&state.to_json()).unwrap();
        let second = campaign.run_with_state(&mut resumed).report;
        assert_eq!(second.executed_now, 0, "all units already completed");
        assert_eq!(second.records, first.records);
        assert_eq!(executor.executions.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn resuming_against_a_different_fault_space_starts_fresh() {
        let executor = FakeExecutor::new();
        let mut state = CampaignState::default();
        Campaign::builder(demo_space(3), &executor)
            .build()
            .run_with_state(&mut state);

        // Same strategy and seed, but the space grew: the stale unit ids
        // must be discarded, not misapplied.
        let report = Campaign::builder(demo_space(4), &executor)
            .build()
            .run_with_state(&mut state)
            .report;
        assert_eq!(report.executed_now, 8, "all units of the new plan re-ran");
        assert_eq!(report.records.len(), 8);
    }

    /// A strategy that schedules one point per batch, in reverse order —
    /// exercises the batch loop and the canonical-id invariant (ids must
    /// not depend on schedule order).
    struct ReverseOneByOne;

    impl Strategy for ReverseOneByOne {
        fn name(&self) -> &str {
            "reverse"
        }

        fn next_batch(&self, space: &FaultSpace, history: &CampaignHistory) -> Vec<usize> {
            (0..space.len())
                .rev()
                .find(|&i| !history.dispatched(i))
                .into_iter()
                .collect()
        }
    }

    #[test]
    fn batched_schedules_produce_the_same_records_as_single_batch_ones() {
        let exhaustive_exec = FakeExecutor::new();
        let forward = Campaign::builder(demo_space(5), &exhaustive_exec)
            .build()
            .run_to_completion()
            .report;

        let reverse_exec = FakeExecutor::new();
        let reverse = Campaign::builder(demo_space(5), &reverse_exec)
            .strategy(ReverseOneByOne)
            .build()
            .run_to_completion()
            .report;

        // Same units, same ids, same outcomes — only the schedule differed.
        assert_eq!(forward.records, reverse.records);
        assert_eq!(reverse.batches, 5, "one point per batch");
        assert_eq!(forward.units_total, reverse.units_total);
    }

    /// A strategy that keeps re-emitting the same points forever; the
    /// engine's dispatched-filter must terminate the campaign anyway.
    struct Stubborn;

    impl Strategy for Stubborn {
        fn name(&self) -> &str {
            "stubborn"
        }

        fn next_batch(&self, space: &FaultSpace, _history: &CampaignHistory) -> Vec<usize> {
            // Duplicates within the batch and across batches, plus an
            // out-of-range index for good measure.
            (0..space.len())
                .chain(0..space.len())
                .chain([999])
                .collect()
        }
    }

    #[test]
    fn re_emitted_points_are_dispatched_at_most_once() {
        let executor = FakeExecutor::new();
        let report = Campaign::builder(demo_space(3), &executor)
            .strategy(Stubborn)
            .build()
            .run_to_completion()
            .report;
        assert_eq!(report.executed_now, 6, "3 points x 2 workloads, once each");
        assert_eq!(report.planned_points, 3);
        assert_eq!(executor.executions.load(Ordering::Relaxed), 6);
    }

    /// A session-capable fake: sessions carry the `(target, args)` key they
    /// were prepared for, `execute_from` produces the same execution as
    /// `execute`, and both preparation and per-path executions are counted.
    struct SessionExecutor {
        inner: FakeExecutor,
        snapshottable: bool,
        prepares: AtomicUsize,
        /// The thread each `prepare` call ran on.
        prepared_on: Mutex<Vec<std::thread::ThreadId>>,
        forked: AtomicUsize,
    }

    impl SessionExecutor {
        fn new(snapshottable: bool) -> SessionExecutor {
            SessionExecutor {
                inner: FakeExecutor::new(),
                snapshottable,
                prepares: AtomicUsize::new(0),
                prepared_on: Mutex::new(Vec::new()),
                forked: AtomicUsize::new(0),
            }
        }
    }

    impl Executor for SessionExecutor {
        fn workloads(&self, target: &str) -> Vec<Vec<String>> {
            self.inner.workloads(target)
        }

        fn prepare(&self, target: &str, args: &[String]) -> Option<Session> {
            // Count every consultation, including refusals — the engine
            // must keep the `None` outcome for the run too.
            self.prepares.fetch_add(1, Ordering::Relaxed);
            self.prepared_on
                .lock()
                .unwrap()
                .push(std::thread::current().id());
            if !self.snapshottable {
                return None;
            }
            Some(Session::new((target.to_string(), args.to_vec())))
        }

        fn execute_from(&self, session: &Session, unit: &WorkUnit) -> Execution {
            let (target, args) = session
                .downcast_ref::<(String, Vec<String>)>()
                .expect("session payload");
            assert_eq!(target, &unit.point.target, "session matches unit");
            assert_eq!(args, &unit.args, "session matches workload");
            self.forked.fetch_add(1, Ordering::Relaxed);
            self.inner.execute(unit)
        }

        fn execute(&self, unit: &WorkUnit) -> Execution {
            self.inner.execute(unit)
        }
    }

    #[test]
    fn snapshot_backend_prepares_once_per_target_and_workload() {
        let executor = SessionExecutor::new(true);
        let report = Campaign::builder(demo_space(9), &executor)
            .backend(ExecBackend::Snapshot)
            .jobs(4)
            .seed(7)
            .build()
            .run_to_completion()
            .report;
        assert_eq!(report.executed_now, 18, "9 points x 2 workloads");
        // One target, two workloads: exactly two sessions, however many
        // workers run their units.
        assert_eq!(executor.prepares.load(Ordering::Relaxed), 2);
        // Every unit ran through its session fork, none through execute's
        // session-path counter... (execute is also the fork's delegate here,
        // so count forks explicitly).
        assert_eq!(executor.forked.load(Ordering::Relaxed), 18);
    }

    /// Sessions are prepared on the thread that drives the run, once per
    /// pair for the whole run, however many batches and workers it has.
    #[test]
    fn sessions_are_prepared_on_the_driver_thread_once_per_run() {
        let executor = SessionExecutor::new(true);
        let report = Campaign::builder(demo_space(5), &executor)
            .strategy(ReverseOneByOne)
            .backend(ExecBackend::Snapshot)
            .jobs(4)
            .build()
            .run_to_completion()
            .report;
        assert_eq!(report.batches, 5, "one point per batch");
        assert_eq!(executor.forked.load(Ordering::Relaxed), 10);
        let prepared_on = executor.prepared_on.lock().unwrap();
        assert_eq!(prepared_on.len(), 2, "one target, two workloads");
        assert!(prepared_on
            .iter()
            .all(|&id| id == std::thread::current().id()));
    }

    #[test]
    fn snapshot_backend_matches_fresh_backend_records() {
        let fresh_exec = FakeExecutor::new();
        let fresh = Campaign::builder(demo_space(7), &fresh_exec)
            .backend(ExecBackend::Fresh)
            .build()
            .run_to_completion()
            .report;

        let session_exec = SessionExecutor::new(true);
        let snapshot = Campaign::builder(demo_space(7), &session_exec)
            .backend(ExecBackend::Snapshot)
            .jobs(3)
            .seed(7)
            .build()
            .run_to_completion()
            .report;

        assert_eq!(fresh.records, snapshot.records);
        assert_eq!(fresh.triage.buckets, snapshot.triage.buckets);
    }

    #[test]
    fn unsnapshottable_targets_fall_back_to_fresh_execution() {
        let executor = SessionExecutor::new(false);
        let report = Campaign::builder(demo_space(4), &executor)
            .backend(ExecBackend::Snapshot)
            .jobs(2)
            .seed(7)
            .build()
            .run_to_completion()
            .report;
        assert_eq!(report.executed_now, 8);
        assert_eq!(executor.forked.load(Ordering::Relaxed), 0, "no sessions");
        // `prepare` was consulted once per (target, workload) — one target
        // with two workloads — not once per unit: the None outcome is
        // kept too.
        assert_eq!(executor.prepares.load(Ordering::Relaxed), 2);
    }

    /// The target whose pairs refuse to snapshot, as bft-lite's do.
    const SESSIONLESS: &str = "cluster";

    /// A session-capable fake that refuses to prepare [`SESSIONLESS`].
    struct MixedExecutor(FakeExecutor);

    impl Executor for MixedExecutor {
        fn workloads(&self, target: &str) -> Vec<Vec<String>> {
            self.0.workloads(target)
        }

        fn prepare(&self, target: &str, _args: &[String]) -> Option<Session> {
            (target != SESSIONLESS).then(|| Session::new(()))
        }

        fn execute_from(&self, _session: &Session, unit: &WorkUnit) -> Execution {
            self.0.execute(unit)
        }

        fn execute(&self, unit: &WorkUnit) -> Execution {
            self.0.execute(unit)
        }
    }

    /// Exhaustive, but schedules the points in descending order, so the
    /// strategy's order differs from id order.
    struct Descending;

    impl Strategy for Descending {
        fn name(&self) -> &str {
            "descending"
        }

        fn next_batch(&self, space: &FaultSpace, _history: &CampaignHistory) -> Vec<usize> {
            (0..space.len()).rev().collect()
        }
    }

    #[test]
    fn sessionless_units_dispatch_first_in_strategy_order() {
        let mut space = demo_space(9);
        for point in space.points.iter_mut().skip(1).step_by(3) {
            point.target = SESSIONLESS.into();
        }
        let fresh = Campaign::builder(space.clone(), &FakeExecutor::new())
            .backend(ExecBackend::Fresh)
            .build()
            .run_to_completion()
            .report;

        let executor = MixedExecutor(FakeExecutor::new());
        let log = crate::events::EventLog::new();
        let snapshot = Campaign::builder(space, &executor)
            .strategy(Descending)
            .backend(ExecBackend::Snapshot)
            .jobs(1)
            .events(&log)
            .build()
            .run_to_completion()
            .report;

        let started: Vec<(usize, String)> = log
            .events()
            .into_iter()
            .filter_map(|event| match event {
                CampaignEvent::UnitStarted { unit, target, .. } => Some((unit, target)),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), 18);
        let sessionless = started.iter().filter(|(_, t)| t == SESSIONLESS).count();
        assert_eq!(sessionless, 6, "3 points x 2 workloads");
        assert!(
            started[..sessionless].iter().all(|(_, t)| t == SESSIONLESS),
            "sessionless units start first: {started:?}"
        );
        // Two workloads per point: unit `id` is workload `id % 2` of point
        // `id / 2`, and the strategy expands points in descending order.
        for group in [&started[..sessionless], &started[sessionless..]] {
            assert!(
                group.is_sorted_by_key(|(id, _)| (std::cmp::Reverse(id / 2), id % 2)),
                "the strategy's order holds within each group: {started:?}"
            );
        }
        assert_eq!(snapshot.records, fresh.records);
    }

    #[test]
    fn backend_names_round_trip_through_display_and_from_str() {
        for backend in [ExecBackend::Fresh, ExecBackend::Snapshot] {
            let name = backend.to_string();
            assert_eq!(name.parse::<ExecBackend>().unwrap(), backend);
        }
        let err = "qemu".parse::<ExecBackend>().unwrap_err();
        let message = err.to_string();
        assert!(
            message.contains("qemu") && message.contains("fresh") && message.contains("snapshot"),
            "error names the rejected value and the accepted ones: {message}"
        );
    }

    /// The payload is recovered by reference, and a type mismatch yields
    /// `None` instead of panicking.
    #[test]
    fn sessions_downcast_by_reference() {
        let session = Session::new(vec![1u64, 2, 3]);
        assert_eq!(session.downcast_ref::<Vec<u64>>(), Some(&vec![1u64, 2, 3]));
        let session = Session::new("payload".to_string());
        assert_eq!(session.downcast_ref::<u32>(), None);
    }
}
