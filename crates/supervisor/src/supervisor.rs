//! The campaign supervisor: elastic workers under one scheduler.
//!
//! [`run_supervised`] spawns `workers` worker processes first and builds
//! the annotated fault space while they start: each worker compiles its
//! targets and enumerates the bare fault points in the meantime. The
//! supervisor then partitions the space into small [`Lease`]s (much finer
//! than a `--shard i/n` range), sends every worker the space's
//! annotations (analysis, static prune and baseline reachability, one
//! [`ControlMessage::Annotations`] line, sent again right after the spawn
//! of a restarted worker), and drives the workers over the JSONL pipe
//! protocol. No worker analyzes the space or re-runs the no-fault suite
//! before its `Hello`, so the `hello` phase overlaps the space build.
//!
//! * **Leasing** — each worker holds at most one lease. The supervisor
//!   grants one on the worker's `Hello` and the next on each
//!   `LeaseFinished`, so fast workers naturally drain more of the pool
//!   and no lease ever waits queued behind a busy worker. An exhaustive
//!   lease writes its checkpoint once.
//! * **Failure recovery** — a worker that dies (or stops talking past
//!   the heartbeat timeout) has its lease reclaimed and its process
//!   respawned. Lease checkpoints are keyed by *range*, so the next
//!   holder resumes the dead worker's file: re-execution is bounded by
//!   the units of the lease the dead worker held.
//! * **Signature broadcast** — the first time any worker reports a crash
//!   signature, the supervisor broadcasts it to every other worker; each
//!   worker's adaptive strategy then learns from the global campaign, not
//!   just its own slice.
//!
//! When every lease is done the supervisor tells the workers to exit and,
//! while they do, merges the per-lease checkpoint files with
//! [`CampaignReport::merge_leases`](lfi_campaign::CampaignReport) — for
//! history-independent strategies the result is byte-identical to the
//! unsharded run, kills included. It then reaps each worker as its stdout
//! closes. Every exit path, errors included (an empty space, a plan
//! mismatch, a failed merge), reaps the workers before returning. Each
//! phase (space build, spawn to `Hello`, grant to `LeaseFinished`,
//! shutdown, merge) is a span in the outcome's metrics; [`PHASES`] names
//! them.

use std::collections::{BTreeSet, VecDeque};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use lfi_campaign::{
    Campaign, CampaignEvent, CampaignReport, CampaignState, ControlMessage, CrashSignature,
    ExecBackend, Lease, LeaseOutcome, StandardExecutor,
};
use lfi_telemetry::{Counter, Histogram, LineFramer, MetricsSnapshot, Span, Telemetry};

use crate::plan::{parse_strategy, SpaceSpec};
use crate::protocol::WorkerMessage;

/// How long the shutdown phase waits for a worker to exit cleanly
/// before killing it.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Configuration of one supervised campaign.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// The fault space, shipped to every worker as flags (and its
    /// annotations, which the supervisor computes, on stdin).
    pub spec: SpaceSpec,
    /// Strategy name (see [`parse_strategy`]).
    pub strategy: String,
    /// Worker processes to keep running.
    pub workers: usize,
    /// Worker threads per worker process.
    pub jobs: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Execution backend inside each worker.
    pub backend: ExecBackend,
    /// Fault points per lease.
    pub lease_points: usize,
    /// Directory of per-lease checkpoint files (created if missing).
    pub state_dir: PathBuf,
    /// The `campaign_worker` binary to spawn.
    pub worker_bin: PathBuf,
    /// A worker holding a lease that stays silent this long is declared
    /// hung, killed, and restarted.
    pub heartbeat_timeout: Duration,
    /// Total worker restarts the run tolerates before leaving a dead
    /// slot empty (its lease migrates to the survivors).
    pub max_restarts: usize,
    /// Chaos hook for recovery tests and CI smoke: once this many units
    /// have finished campaign-wide, SIGKILL one worker that holds a
    /// lease.
    pub chaos_kill_after_units: Option<usize>,
    /// Stream the merged (all-workers) event view to this JSONL file.
    pub events_jsonl: Option<PathBuf>,
}

impl SupervisorOptions {
    /// Stock options: 2 workers, 1 job each, exhaustive, fresh backend,
    /// 8-point leases, 30 s heartbeat timeout, at most 2 worker restarts.
    /// `worker_bin` defaults to the `campaign_worker`
    /// sibling of the current executable when one exists.
    pub fn new(spec: SpaceSpec, state_dir: impl Into<PathBuf>) -> SupervisorOptions {
        SupervisorOptions {
            spec,
            strategy: "exhaustive".to_string(),
            workers: 2,
            jobs: 1,
            seed: 7,
            backend: ExecBackend::Fresh,
            lease_points: 8,
            state_dir: state_dir.into(),
            worker_bin: sibling_worker_bin().unwrap_or_else(|| PathBuf::from("campaign_worker")),
            heartbeat_timeout: Duration::from_secs(30),
            max_restarts: 2,
            chaos_kill_after_units: None,
            events_jsonl: None,
        }
    }
}

/// The `campaign_worker` binary next to the currently running
/// executable, if present — how the supervisor bin and the bench harness
/// find their worker without configuration.
pub fn sibling_worker_bin() -> Option<PathBuf> {
    let exe = std::env::current_exe().ok()?;
    let candidate = exe
        .parent()?
        .join(format!("campaign_worker{}", std::env::consts::EXE_SUFFIX));
    candidate.is_file().then_some(candidate)
}

/// What a supervised campaign produced, with the scheduler's own
/// accounting alongside the merged report.
#[derive(Debug, Clone)]
pub struct SupervisedOutcome {
    /// The merged report: records and triage over the whole space.
    pub report: CampaignReport,
    /// The plan tag every lease ran under (`fingerprint@plan-hash`).
    pub plan_tag: String,
    /// Fault points of the space.
    pub total_points: usize,
    /// Canonical units of the space.
    pub total_units: usize,
    /// Distinct crash signatures observed live (first-seen broadcasts).
    pub distinct_signatures: usize,
    /// Leases granted, initial assignment and reassignment included.
    pub leases_issued: u64,
    /// Always 0: a worker holds one lease at a time, so no queued lease
    /// is ever stolen. Kept so existing readers of the field still build.
    pub leases_stolen: u64,
    /// Leases reclaimed from dead or hung workers.
    pub leases_expired: u64,
    /// Worker processes respawned after a death or hang.
    pub worker_restarts: u64,
    /// Distinct crash signatures broadcast to sibling workers.
    pub signatures_broadcast: u64,
    /// Units that finished more than once (the re-execution cost of
    /// recovery; bounded by `killed_in_flight_units`).
    pub re_executed_units: usize,
    /// Units of the leases granted to workers at the moment those
    /// workers died — the recovery re-execution bound. A granted lease
    /// may not have started yet, so the bound can be loose.
    pub killed_in_flight_units: usize,
    /// The supervisor's own metrics registry snapshot: the counters above
    /// and one microsecond histogram per phase (see [`PHASES`]).
    pub metrics: MetricsSnapshot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Pending,
    Granted { worker: usize, grant: u64 },
    Done,
}

impl SlotState {
    fn holder(self) -> Option<usize> {
        match self {
            SlotState::Granted { worker, .. } => Some(worker),
            SlotState::Pending | SlotState::Done => None,
        }
    }
}

struct LeaseSlot {
    start: usize,
    end: usize,
    units: usize,
    state: SlotState,
}

struct WorkerSlot {
    child: Option<Child>,
    stdin: Option<ChildStdin>,
    /// Reader-thread generation: lines from a previous incarnation of
    /// this slot are discarded by generation mismatch.
    generation: u64,
    last_seen: Instant,
    spawned_at: Instant,
    /// When the worker's current lease was granted.
    granted_at: Instant,
    greeted: bool,
    alive: bool,
}

enum Inbox {
    Line {
        worker: usize,
        generation: u64,
        line: String,
    },
    Eof {
        worker: usize,
        generation: u64,
    },
}

const SPACE_BUILD_MICROS: &str = "supervisor.space_build_micros";
const HELLO_MICROS: &str = "supervisor.hello_micros";
const LEASE_MICROS: &str = "supervisor.lease_micros";
const SHUTDOWN_MICROS: &str = "supervisor.shutdown_micros";
const MERGE_MICROS: &str = "supervisor.merge_micros";

/// The supervisor's phase spans, each a microsecond histogram of its
/// metrics: the space build, spawn to `Hello` per worker start (which
/// overlaps the build), grant to `LeaseFinished` per completed lease, the
/// shutdown (`Shutdown` sent to the last worker reaped), and the merge,
/// which runs inside the shutdown while the workers exit.
pub const PHASES: [&str; 5] = [
    SPACE_BUILD_MICROS,
    HELLO_MICROS,
    LEASE_MICROS,
    SHUTDOWN_MICROS,
    MERGE_MICROS,
];

struct SupervisorCounters {
    leases_issued: Counter,
    leases_expired: Counter,
    worker_restarts: Counter,
    signatures_broadcast: Counter,
    hello_micros: Histogram,
    lease_micros: Histogram,
    shutdown_micros: Histogram,
    merge_micros: Histogram,
}

fn micros_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}

struct Supervisor {
    options: SupervisorOptions,
    /// The space's annotations as a control line, once built; sent to
    /// every worker spawned (restarts included) as its first stdin line.
    annotations: Option<String>,
    expected_plan: String,
    total_points: usize,
    total_units: usize,
    slots: Vec<LeaseSlot>,
    pending: VecDeque<usize>,
    next_grant: u64,
    workers: Vec<WorkerSlot>,
    tx: Sender<Inbox>,
    rx: Receiver<Inbox>,
    seen_units: BTreeSet<usize>,
    signatures: BTreeSet<CrashSignature>,
    units_done: usize,
    re_executed: usize,
    killed_in_flight: usize,
    restarts_used: usize,
    chaos_armed: Option<usize>,
    shutting_down: bool,
    merged_events: Option<File>,
    telemetry: Telemetry,
    counters: SupervisorCounters,
    /// Open from the `Shutdown` request until the last worker is reaped.
    shutdown_span: Option<Span>,
}

/// Run one supervised campaign to completion and merge the result.
pub fn run_supervised(options: &SupervisorOptions) -> Result<SupervisedOutcome, String> {
    if options.workers == 0 {
        return Err("supervisor needs at least one worker".to_string());
    }
    if options.lease_points == 0 {
        return Err("lease size must be at least one fault point".to_string());
    }
    parse_strategy(&options.strategy, options.seed)?;
    fs::create_dir_all(&options.state_dir)
        .map_err(|err| format!("create state dir {}: {err}", options.state_dir.display()))?;

    let telemetry = Telemetry::new();
    let counters = SupervisorCounters {
        leases_issued: telemetry.counter("supervisor.leases_issued"),
        leases_expired: telemetry.counter("supervisor.leases_expired"),
        worker_restarts: telemetry.counter("supervisor.worker_restarts"),
        signatures_broadcast: telemetry.counter("supervisor.signatures_broadcast"),
        hello_micros: telemetry.histogram(HELLO_MICROS),
        lease_micros: telemetry.histogram(LEASE_MICROS),
        shutdown_micros: telemetry.histogram(SHUTDOWN_MICROS),
        merge_micros: telemetry.histogram(MERGE_MICROS),
    };

    let merged_events = match &options.events_jsonl {
        Some(path) => Some(
            File::create(path)
                .map_err(|err| format!("create event stream {}: {err}", path.display()))?,
        ),
        None => None,
    };

    let (tx, rx) = mpsc::channel();
    let mut supervisor = Supervisor {
        options: options.clone(),
        annotations: None,
        expected_plan: String::new(),
        total_points: 0,
        total_units: 0,
        slots: Vec::new(),
        pending: VecDeque::new(),
        next_grant: 1,
        workers: Vec::new(),
        tx,
        rx,
        seen_units: BTreeSet::new(),
        signatures: BTreeSet::new(),
        units_done: 0,
        re_executed: 0,
        killed_in_flight: 0,
        restarts_used: 0,
        chaos_armed: options.chaos_kill_after_units,
        shutting_down: false,
        merged_events,
        telemetry,
        counters,
        shutdown_span: None,
    };
    // Whatever `run` returns, no worker outlives this call.
    let merged = supervisor.run();
    supervisor.reap();
    let (report, plan_tag) = merged?;
    // After the reap, so the shutdown span is in the snapshot.
    Ok(supervisor.outcome(report, plan_tag))
}

impl Supervisor {
    /// Spawn, build, lease until every slot is done, ask the workers to
    /// exit, and merge while they do. The caller reaps the workers.
    fn run(&mut self) -> Result<(CampaignReport, String), String> {
        // Workers start first: each compiles its targets and enumerates
        // its bare points while the space is built here.
        for index in 0..self.options.workers {
            self.workers.push(WorkerSlot {
                child: None,
                stdin: None,
                generation: 0,
                last_seen: Instant::now(),
                spawned_at: Instant::now(),
                granted_at: Instant::now(),
                greeted: false,
                alive: false,
            });
            self.spawn_worker(index)?;
        }
        self.build_space()?;

        while !self.all_done() {
            match self.rx.recv_timeout(Duration::from_millis(25)) {
                Ok(Inbox::Line {
                    worker,
                    generation,
                    line,
                }) => self.handle_line(worker, generation, &line)?,
                Ok(Inbox::Eof { worker, generation }) => {
                    if self.workers[worker].generation == generation {
                        self.handle_death(worker, "stdout closed")?;
                    }
                }
                // The supervisor holds its own sender, so the channel
                // never disconnects; a timeout is just a tick.
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {}
            }
            self.tick()?;
        }

        // The merge needs only the checkpoint files, so it runs while the
        // workers exit.
        self.request_shutdown();
        self.merge()
    }

    /// Build the annotated space: it sizes the leases, pins the plan hash
    /// every worker must echo back, and gives the workers their
    /// annotations, sent here to every worker already spawned.
    fn build_space(&mut self) -> Result<(), String> {
        let span = self.telemetry.histogram(SPACE_BUILD_MICROS).start();
        let executor = StandardExecutor::new(&self.options.spec.target_names());
        let (space, annotations) = self.options.spec.build_with_annotations(&executor);
        let probe = Campaign::builder(space, &executor)
            .seed(self.options.seed)
            .build();
        let campaign = probe.campaign();
        let total_points = campaign.space().len();
        if total_points == 0 {
            return Err("the fault space is empty; nothing to lease".to_string());
        }
        let mut start = 0;
        while start < total_points {
            let end = (start + self.options.lease_points).min(total_points);
            self.slots.push(LeaseSlot {
                start,
                end,
                units: campaign.lease_units(Lease { id: 0, start, end }),
                state: SlotState::Pending,
            });
            start = end;
        }
        self.pending = (0..self.slots.len()).collect();
        self.expected_plan = format!("{:016x}", campaign.plan_hash());
        self.total_points = total_points;
        self.total_units = campaign.total_units();
        span.finish();

        let line = annotations.to_json_line();
        for worker in 0..self.workers.len() {
            self.send_line(worker, &line);
        }
        self.annotations = Some(line);
        Ok(())
    }

    fn all_done(&self) -> bool {
        self.slots.iter().all(|s| s.state == SlotState::Done)
    }

    fn spawn_worker(&mut self, index: usize) -> Result<(), String> {
        let options = &self.options;
        let mut child = Command::new(&options.worker_bin)
            .args(options.spec.to_args())
            .arg("--annotations-on-stdin")
            .arg("--strategy")
            .arg(&options.strategy)
            .arg("--jobs")
            .arg(options.jobs.to_string())
            .arg("--seed")
            .arg(options.seed.to_string())
            .arg("--backend")
            .arg(options.backend.to_string())
            .arg("--state-dir")
            .arg(&options.state_dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|err| format!("spawn worker {}: {err}", options.worker_bin.display()))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");

        let slot = &mut self.workers[index];
        slot.generation += 1;
        slot.child = Some(child);
        slot.stdin = Some(stdin);
        slot.last_seen = Instant::now();
        slot.spawned_at = slot.last_seen;
        slot.greeted = false;
        slot.alive = true;
        let generation = slot.generation;
        let tx = self.tx.clone();
        thread::spawn(move || read_worker_lines(index, generation, stdout, tx));
        // A restart after the build gets the annotations at once; the
        // first workers get them when the build ends.
        if let Some(line) = self.annotations.clone() {
            self.send_line(index, &line);
        }
        Ok(())
    }

    fn handle_line(&mut self, worker: usize, generation: u64, line: &str) -> Result<(), String> {
        if self.workers[worker].generation != generation || !self.workers[worker].alive {
            return Ok(());
        }
        self.workers[worker].last_seen = Instant::now();
        let message = match WorkerMessage::from_json_line(line) {
            Ok(message) => message,
            Err(err) => {
                eprintln!("supervisor: worker {worker}: undecodable line ({err}): {line}");
                return Ok(());
            }
        };
        match message {
            WorkerMessage::Hello { plan, .. } => {
                if plan != self.expected_plan {
                    return Err(format!(
                        "worker {worker} enumerates plan {plan}, supervisor has {}: \
                         fault space or workload suites differ between the processes",
                        self.expected_plan
                    ));
                }
                self.workers[worker].greeted = true;
                self.counters
                    .hello_micros
                    .record(micros_since(self.workers[worker].spawned_at));
                self.top_up(worker);
            }
            WorkerMessage::LeaseFinished { lease, .. } => {
                let granted = SlotState::Granted {
                    worker,
                    grant: lease,
                };
                if let Some(slot) = self.slots.iter_mut().find(|s| s.state == granted) {
                    slot.state = SlotState::Done;
                    self.counters
                        .lease_micros
                        .record(micros_since(self.workers[worker].granted_at));
                    self.top_up(worker);
                }
            }
            WorkerMessage::Event(event) => self.handle_event(&event, line),
        }
        Ok(())
    }

    fn handle_event(&mut self, event: &CampaignEvent, line: &str) {
        if let Some(file) = &mut self.merged_events {
            let _ = writeln!(file, "{line}");
            let _ = file.flush();
        }
        match event {
            CampaignEvent::UnitFinished { record, .. } => {
                self.units_done += 1;
                if !self.seen_units.insert(record.unit) {
                    self.re_executed += 1;
                }
                self.maybe_fire_chaos();
            }
            CampaignEvent::CrashFound(signature) if self.signatures.insert(signature.clone()) => {
                self.broadcast(signature);
            }
            _ => {}
        }
    }

    /// Send a first-seen signature to every worker (the originator
    /// already knows it and suppresses re-announcement of seeded
    /// signatures, so the blanket send is idempotent).
    fn broadcast(&mut self, signature: &CrashSignature) {
        self.counters.signatures_broadcast.inc();
        let message = ControlMessage::SignatureBroadcast(signature.clone());
        for worker in 0..self.workers.len() {
            if self.workers[worker].alive && self.workers[worker].greeted {
                self.send_control(worker, &message);
            }
        }
    }

    fn maybe_fire_chaos(&mut self) {
        let Some(threshold) = self.chaos_armed else {
            return;
        };
        if self.units_done < threshold {
            return;
        }
        let victim =
            (0..self.workers.len()).find(|&w| self.workers[w].alive && self.lease_of(w).is_some());
        let Some(victim) = victim else {
            // Nobody holds a lease right now; stay armed.
            return;
        };
        self.chaos_armed = None;
        eprintln!("supervisor: chaos hook: killing worker {victim} mid-lease");
        if let Some(child) = &mut self.workers[victim].child {
            let _ = child.kill();
        }
        // The death is observed through the usual EOF path, so the
        // accounting (reclaim, expire, restart) stays on one code path.
    }

    fn handle_death(&mut self, worker: usize, why: &str) -> Result<(), String> {
        if self.shutting_down || !self.workers[worker].alive {
            return Ok(());
        }
        self.workers[worker].alive = false;
        self.workers[worker].stdin = None;
        if let Some(mut child) = self.workers[worker].child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        eprintln!("supervisor: worker {worker} died ({why}); reclaiming its lease");

        if let Some(index) = self.lease_of(worker) {
            // The held lease bounds recovery re-execution: its
            // checkpointed units are resumed, so at most its units run
            // twice.
            self.killed_in_flight += self.slots[index].units;
            self.slots[index].state = SlotState::Pending;
            self.pending.push_front(index);
            self.counters.leases_expired.inc();
        }

        if self.all_done() {
            return Ok(());
        }
        if self.restarts_used < self.options.max_restarts {
            self.restarts_used += 1;
            self.counters.worker_restarts.inc();
            self.spawn_worker(worker)?;
        } else if self.workers.iter().all(|w| !w.alive) {
            return Err(format!(
                "every worker is dead (restart budget {} exhausted) with {} leases unfinished",
                self.options.max_restarts,
                self.slots
                    .iter()
                    .filter(|s| s.state != SlotState::Done)
                    .count()
            ));
        }
        Ok(())
    }

    fn tick(&mut self) -> Result<(), String> {
        // Reap deaths the reader thread has not surfaced yet.
        for worker in 0..self.workers.len() {
            if !self.workers[worker].alive {
                continue;
            }
            let exited = match &mut self.workers[worker].child {
                Some(child) => child.try_wait().map(|s| s.is_some()).unwrap_or(true),
                None => false,
            };
            if exited {
                self.handle_death(worker, "process exited")?;
                continue;
            }
            // Hang detection: a granted lease but no traffic.
            let silent_for = self.workers[worker].last_seen.elapsed();
            if self.lease_of(worker).is_some() && silent_for > self.options.heartbeat_timeout {
                self.handle_death(worker, &format!("no heartbeat for {:.1?}", silent_for))?;
            }
        }
        for worker in 0..self.workers.len() {
            self.top_up(worker);
        }
        Ok(())
    }

    /// The slot of the lease `worker` holds, if any.
    fn lease_of(&self, worker: usize) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.state.holder() == Some(worker))
    }

    /// Grant an idle, greeted `worker` the next pending lease.
    fn top_up(&mut self, worker: usize) {
        if !self.workers[worker].alive
            || !self.workers[worker].greeted
            || self.lease_of(worker).is_some()
        {
            return;
        }
        let Some(slot) = self.pending.pop_front() else {
            return;
        };
        let grant = self.next_grant;
        self.next_grant += 1;
        self.slots[slot].state = SlotState::Granted { worker, grant };
        self.workers[worker].granted_at = Instant::now();
        let lease = Lease {
            id: grant,
            start: self.slots[slot].start,
            end: self.slots[slot].end,
        };
        self.counters.leases_issued.inc();
        self.send_control(worker, &ControlMessage::Lease(lease));
    }

    /// Write one control line to a worker. A broken pipe is ignored: the
    /// EOF path handles the death and reclaims the worker's lease.
    fn send_control(&mut self, worker: usize, message: &ControlMessage) {
        self.send_line(worker, &message.to_json_line());
    }

    /// [`send_control`](Self::send_control) for an encoded line.
    fn send_line(&mut self, worker: usize, line: &str) {
        if let Some(stdin) = &mut self.workers[worker].stdin {
            let _ = writeln!(stdin, "{line}").and_then(|()| stdin.flush());
        }
    }

    /// Ask every live worker to exit: a `Shutdown` line, then its stdin
    /// closed, which EOFs the worker even if the line was lost. Opens the
    /// shutdown span, which [`reap`](Self::reap) closes.
    fn request_shutdown(&mut self) {
        self.shutdown_span = Some(self.counters.shutdown_micros.start());
        self.shutting_down = true;
        for worker in 0..self.workers.len() {
            if self.workers[worker].alive {
                self.send_control(worker, &ControlMessage::Shutdown);
            }
            self.workers[worker].stdin = None;
        }
    }

    /// Close every worker's stdin and reap each one as its reader thread
    /// reports stdout's `Eof`. A worker holds stdout open until it exits,
    /// so the `wait` after an `Eof` returns at once. Whatever is still
    /// running at the grace deadline is killed. Runs on every exit path of
    /// [`run_supervised`]; a worker still waiting for its annotations
    /// exits on the EOF.
    fn reap(&mut self) {
        self.shutting_down = true;
        for worker in &mut self.workers {
            worker.stdin = None;
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while self.workers.iter().any(|w| w.child.is_some()) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match self.rx.recv_timeout(left) {
                Ok(Inbox::Eof { worker, generation })
                    if self.workers[worker].generation == generation =>
                {
                    if let Some(mut child) = self.workers[worker].child.take() {
                        let _ = child.wait();
                    }
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for worker in &mut self.workers {
            if let Some(mut child) = worker.child.take() {
                let _ = child.kill();
                let _ = child.wait();
            }
            worker.alive = false;
        }
        if let Some(span) = self.shutdown_span.take() {
            span.finish();
        }
    }

    /// Merge the lease checkpoints: the report and the plan tag.
    fn merge(&self) -> Result<(CampaignReport, String), String> {
        let span = self.counters.merge_micros.start();
        let mut outcomes = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let path = self
                .options
                .state_dir
                .join(format!("lease_{}_{}.json", slot.start, slot.end));
            let text = fs::read_to_string(&path)
                .map_err(|err| format!("read lease checkpoint {}: {err}", path.display()))?;
            let state = CampaignState::from_json(&text)
                .map_err(|err| format!("parse lease checkpoint {}: {err}", path.display()))?;
            let outcome = LeaseOutcome::from_state(&state)
                .map_err(|err| format!("lease checkpoint {}: {err}", path.display()))?;
            outcomes.push(outcome);
        }
        let plan_tag = outcomes
            .first()
            .map(|o| o.plan_tag().to_string())
            .unwrap_or_default();
        let report = CampaignReport::merge_leases(outcomes, self.total_points)
            .map_err(|err| format!("merge leases: {err}"))?;
        span.finish();
        Ok((report, plan_tag))
    }

    fn outcome(&self, report: CampaignReport, plan_tag: String) -> SupervisedOutcome {
        SupervisedOutcome {
            report,
            plan_tag,
            total_points: self.total_points,
            total_units: self.total_units,
            distinct_signatures: self.signatures.len(),
            leases_issued: self.counters.leases_issued.value(),
            leases_stolen: 0,
            leases_expired: self.counters.leases_expired.value(),
            worker_restarts: self.counters.worker_restarts.value(),
            signatures_broadcast: self.counters.signatures_broadcast.value(),
            re_executed_units: self.re_executed,
            killed_in_flight_units: self.killed_in_flight,
            metrics: self.telemetry.snapshot(),
        }
    }
}

/// Reader-thread body: frame a worker's stdout into lines and forward
/// them (with the worker's generation, so a restarted slot never sees
/// its predecessor's tail).
fn read_worker_lines(worker: usize, generation: u64, mut stdout: ChildStdout, tx: Sender<Inbox>) {
    let mut framer = LineFramer::new();
    let mut buf = [0u8; 8192];
    loop {
        match stdout.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                for line in framer.push_bytes(&buf[..n]) {
                    if tx
                        .send(Inbox::Line {
                            worker,
                            generation,
                            line,
                        })
                        .is_err()
                    {
                        return;
                    }
                }
            }
        }
    }
    let _ = tx.send(Inbox::Eof { worker, generation });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot(start: usize, end: usize, state: SlotState) -> LeaseSlot {
        LeaseSlot {
            start,
            end,
            units: (end - start) * 2,
            state,
        }
    }

    #[test]
    fn slot_states_report_their_holder() {
        assert_eq!(SlotState::Pending.holder(), None);
        assert_eq!(SlotState::Done.holder(), None);
        assert_eq!(
            SlotState::Granted {
                worker: 2,
                grant: 9
            }
            .holder(),
            Some(2)
        );
    }

    #[test]
    fn lease_slots_tile_like_the_carving_loop() {
        // The same loop run_supervised uses, over 11 points in chunks
        // of 4: 0..4, 4..8, 8..11.
        let total_points = 11;
        let lease_points = 4;
        let mut slots = Vec::new();
        let mut start = 0;
        while start < total_points {
            let end = (start + lease_points).min(total_points);
            slots.push(slot(start, end, SlotState::Pending));
            start = end;
        }
        assert_eq!(
            slots.iter().map(|s| (s.start, s.end)).collect::<Vec<_>>(),
            vec![(0, 4), (4, 8), (8, 11)]
        );
        assert_eq!(slots.first().unwrap().state, SlotState::Pending);
    }
}
