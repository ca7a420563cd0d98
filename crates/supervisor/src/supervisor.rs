//! The campaign supervisor: elastic workers under one scheduler.
//!
//! [`run_supervised`] partitions a fault space into small
//! [`Lease`](lfi_campaign::Lease)s (much finer than a `--shard i/n`
//! range), spawns `workers` worker processes, and drives them over the
//! JSONL pipe protocol:
//!
//! * **Leasing** — every worker keeps a two-deep pipeline (one running
//!   lease, one queued); finished leases pull the next pending range, so
//!   fast workers naturally drain more of the pool.
//! * **Work stealing** — when the pool runs dry, an idle worker steals a
//!   *queued* (never started) lease from a busy sibling via
//!   [`ControlMessage::Revoke`]; a revoke that loses the race to
//!   `LeaseStarted` is simply cancelled.
//! * **Failure recovery** — a worker that dies (or stops talking past
//!   the heartbeat timeout) has its unexpired leases reclaimed and its
//!   process respawned. Lease checkpoints are keyed by *range*, so the
//!   next holder resumes the dead worker's file: re-execution is bounded
//!   by the units of the lease that was actually in flight at the kill.
//! * **Signature broadcast** — the first time any worker reports a crash
//!   signature, the supervisor broadcasts it to every other worker; each
//!   worker's adaptive strategy then learns from the global campaign, not
//!   just its own slice.
//!
//! When every lease is done the supervisor merges the per-lease
//! checkpoint files with
//! [`CampaignReport::merge_leases`](lfi_campaign::CampaignReport) — for
//! history-independent strategies the result is byte-identical to the
//! unsharded run, kills and steals included.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread;
use std::time::{Duration, Instant};

use lfi_campaign::{
    Campaign, CampaignEvent, CampaignReport, CampaignState, ControlMessage, CrashSignature,
    ExecBackend, Lease, LeaseOutcome, StandardExecutor, DEFAULT_SNAPSHOT_BUDGET,
};
use lfi_telemetry::{Counter, LineFramer, MetricsSnapshot, Telemetry};

use crate::plan::{parse_strategy, SpaceSpec};
use crate::protocol::WorkerMessage;

/// Outstanding leases per worker: one running plus one queued, so a
/// worker never idles waiting for the next grant.
const PIPELINE_DEPTH: usize = 2;

/// How long the shutdown phase waits for a worker to exit cleanly
/// before killing it.
const SHUTDOWN_GRACE: Duration = Duration::from_secs(10);

/// Configuration of one supervised campaign.
#[derive(Debug, Clone)]
pub struct SupervisorOptions {
    /// The fault space, shipped to every worker as flags.
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
    /// Snapshot-tree byte budget per worker (snapshot backend only).
    pub snapshot_budget: u64,
    /// Fault points per lease.
    pub lease_points: usize,
    /// Directory of per-lease checkpoint files (created if missing).
    pub state_dir: PathBuf,
    /// The `campaign_worker` binary to spawn.
    pub worker_bin: PathBuf,
    /// A worker with granted leases that stays silent this long is
    /// declared hung, killed, and restarted.
    pub heartbeat_timeout: Duration,
    /// Total worker restarts the run tolerates before leaving a dead
    /// slot empty (its leases migrate to the survivors).
    pub max_restarts: usize,
    /// Chaos hook for recovery tests and CI smoke: once this many units
    /// have finished campaign-wide, SIGKILL one worker that has a lease
    /// in flight.
    pub chaos_kill_after_units: Option<usize>,
    /// Stream the merged (all-workers) event view to this JSONL file.
    pub events_jsonl: Option<PathBuf>,
}

impl SupervisorOptions {
    /// Stock options: 2 workers, 1 job each, exhaustive, fresh backend,
    /// 8-point leases, 30 s heartbeat timeout, restarts bounded by the
    /// worker count. `worker_bin` defaults to the `campaign_worker`
    /// sibling of the current executable when one exists.
    pub fn new(spec: SpaceSpec, state_dir: impl Into<PathBuf>) -> SupervisorOptions {
        SupervisorOptions {
            spec,
            strategy: "exhaustive".to_string(),
            workers: 2,
            jobs: 1,
            seed: 7,
            backend: ExecBackend::Fresh,
            snapshot_budget: DEFAULT_SNAPSHOT_BUDGET,
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
    /// Queued leases revoked from a busy worker and re-granted to an
    /// idle one.
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
    /// Units of leases that were actually in flight on workers at the
    /// moment those workers died — the recovery re-execution bound.
    pub killed_in_flight_units: usize,
    /// The supervisor's own metrics registry snapshot.
    pub metrics: MetricsSnapshot,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotState {
    Pending,
    Offered { worker: usize, grant: u64 },
    Running { worker: usize, grant: u64 },
    Revoking { worker: usize, grant: u64 },
    Done,
}

impl SlotState {
    fn holder(self) -> Option<usize> {
        match self {
            SlotState::Offered { worker, .. }
            | SlotState::Running { worker, .. }
            | SlotState::Revoking { worker, .. } => Some(worker),
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

struct SupervisorCounters {
    leases_issued: Counter,
    leases_stolen: Counter,
    leases_expired: Counter,
    worker_restarts: Counter,
    signatures_broadcast: Counter,
}

struct Supervisor {
    options: SupervisorOptions,
    expected_plan: String,
    total_points: usize,
    total_units: usize,
    slots: Vec<LeaseSlot>,
    pending: VecDeque<usize>,
    grants: HashMap<u64, usize>,
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

    // Build the space in-process: it sizes the leases and pins the plan
    // hash every worker must echo back.
    let (expected_plan, total_points, total_units, slots) = {
        let executor = StandardExecutor::new(&options.spec.target_names());
        let space = options.spec.build(&executor);
        let probe = Campaign::builder(space, &executor)
            .seed(options.seed)
            .build();
        let campaign = probe.campaign();
        let total_points = campaign.space().len();
        if total_points == 0 {
            return Err("the fault space is empty; nothing to lease".to_string());
        }
        let mut slots = Vec::new();
        let mut start = 0;
        while start < total_points {
            let end = (start + options.lease_points).min(total_points);
            slots.push(LeaseSlot {
                start,
                end,
                units: campaign.lease_units(Lease { id: 0, start, end }),
                state: SlotState::Pending,
            });
            start = end;
        }
        (
            format!("{:016x}", campaign.plan_hash()),
            total_points,
            campaign.total_units(),
            slots,
        )
    };

    let merged_events = match &options.events_jsonl {
        Some(path) => Some(
            File::create(path)
                .map_err(|err| format!("create event stream {}: {err}", path.display()))?,
        ),
        None => None,
    };

    let telemetry = Telemetry::new();
    let counters = SupervisorCounters {
        leases_issued: telemetry.counter("supervisor.leases_issued"),
        leases_stolen: telemetry.counter("supervisor.leases_stolen"),
        leases_expired: telemetry.counter("supervisor.leases_expired"),
        worker_restarts: telemetry.counter("supervisor.worker_restarts"),
        signatures_broadcast: telemetry.counter("supervisor.signatures_broadcast"),
    };
    let (tx, rx) = mpsc::channel();
    let pending = (0..slots.len()).collect();
    let mut supervisor = Supervisor {
        options: options.clone(),
        expected_plan,
        total_points,
        total_units,
        slots,
        pending,
        grants: HashMap::new(),
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
    };
    supervisor.run()
}

impl Supervisor {
    fn run(&mut self) -> Result<SupervisedOutcome, String> {
        for index in 0..self.options.workers {
            self.workers.push(WorkerSlot {
                child: None,
                stdin: None,
                generation: 0,
                last_seen: Instant::now(),
                greeted: false,
                alive: false,
            });
            self.spawn_worker(index)?;
        }

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

        self.shutdown();
        self.merge()
    }

    fn all_done(&self) -> bool {
        self.slots.iter().all(|s| s.state == SlotState::Done)
    }

    fn spawn_worker(&mut self, index: usize) -> Result<(), String> {
        let options = &self.options;
        let mut child = Command::new(&options.worker_bin)
            .args(options.spec.to_args())
            .arg("--strategy")
            .arg(&options.strategy)
            .arg("--jobs")
            .arg(options.jobs.to_string())
            .arg("--seed")
            .arg(options.seed.to_string())
            .arg("--backend")
            .arg(options.backend.to_string())
            .arg("--snapshot-budget")
            .arg(options.snapshot_budget.to_string())
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
        slot.greeted = false;
        slot.alive = true;
        let generation = slot.generation;
        let tx = self.tx.clone();
        thread::spawn(move || read_worker_lines(index, generation, stdout, tx));
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
                self.top_up(worker);
            }
            WorkerMessage::LeaseStarted { lease } => {
                if let Some(&slot) = self.grants.get(&lease) {
                    match self.slots[slot].state {
                        SlotState::Offered { worker: w, grant } if w == worker => {
                            self.slots[slot].state = SlotState::Running { worker: w, grant };
                        }
                        // The revoke lost the race: the lease runs where
                        // it started.
                        SlotState::Revoking { worker: w, grant } if w == worker => {
                            self.slots[slot].state = SlotState::Running { worker: w, grant };
                        }
                        _ => {}
                    }
                }
            }
            WorkerMessage::LeaseFinished { lease, .. } => {
                if let Some(&slot) = self.grants.get(&lease) {
                    if self.slots[slot].state.holder() == Some(worker) {
                        self.slots[slot].state = SlotState::Done;
                        self.top_up(worker);
                    }
                }
            }
            WorkerMessage::LeaseRevoked { lease } => {
                if let Some(&slot) = self.grants.get(&lease) {
                    if let SlotState::Revoking { worker: w, .. } = self.slots[slot].state {
                        if w == worker {
                            self.slots[slot].state = SlotState::Pending;
                            self.pending.push_front(slot);
                            self.counters.leases_stolen.inc();
                            // An idle sibling picks it up on the next
                            // tick's top-up round.
                        }
                    }
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
        let victim = (0..self.workers.len()).find(|&w| {
            self.workers[w].alive
                && self
                    .slots
                    .iter()
                    .any(|s| matches!(s.state, SlotState::Running { worker, .. } if worker == w))
        });
        let Some(victim) = victim else {
            // Nobody has a lease in flight right now; stay armed.
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
        eprintln!("supervisor: worker {worker} died ({why}); reclaiming its leases");

        for index in 0..self.slots.len() {
            if self.slots[index].state.holder() != Some(worker) {
                continue;
            }
            if matches!(self.slots[index].state, SlotState::Running { .. }) {
                // The in-flight lease bounds recovery re-execution:
                // completed-and-checkpointed units are resumed, so at
                // most this lease's units run twice.
                self.killed_in_flight += self.slots[index].units;
            }
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
            // Hang detection: granted leases but no traffic.
            let silent_for = self.workers[worker].last_seen.elapsed();
            let has_leases = self.slots.iter().any(|s| s.state.holder() == Some(worker));
            if has_leases && silent_for > self.options.heartbeat_timeout {
                self.handle_death(worker, &format!("no heartbeat for {:.1?}", silent_for))?;
            }
        }
        for worker in 0..self.workers.len() {
            self.top_up(worker);
        }
        self.steal();
        Ok(())
    }

    fn assigned_count(&self, worker: usize) -> usize {
        self.slots
            .iter()
            .filter(|s| s.state.holder() == Some(worker))
            .count()
    }

    /// Keep `worker`'s pipeline full from the pending pool.
    fn top_up(&mut self, worker: usize) {
        while self.workers[worker].alive
            && self.workers[worker].greeted
            && self.assigned_count(worker) < PIPELINE_DEPTH
        {
            let Some(slot) = self.pending.pop_front() else {
                return;
            };
            let grant = self.next_grant;
            self.next_grant += 1;
            self.grants.insert(grant, slot);
            self.slots[slot].state = SlotState::Offered { worker, grant };
            let lease = Lease {
                id: grant,
                start: self.slots[slot].start,
                end: self.slots[slot].end,
            };
            self.counters.leases_issued.inc();
            if !self.send_control(worker, &ControlMessage::Lease(lease)) {
                // Broken pipe: the EOF path reclaims the lease.
                return;
            }
        }
    }

    /// When the pool is dry, revoke queued (never started) leases from
    /// busy workers on behalf of idle ones.
    fn steal(&mut self) {
        if !self.pending.is_empty() {
            return;
        }
        let idle: Vec<usize> = (0..self.workers.len())
            .filter(|&w| {
                self.workers[w].alive && self.workers[w].greeted && self.assigned_count(w) == 0
            })
            .collect();
        for _ in idle {
            let victim_slot = (0..self.slots.len()).find(|&i| {
                match self.slots[i].state {
                    // Only steal from a worker that is also running
                    // something: its queued lease would otherwise wait a
                    // full lease duration.
                    SlotState::Offered { worker, .. } => self.slots.iter().any(
                        |s| matches!(s.state, SlotState::Running { worker: r, .. } if r == worker),
                    ),
                    _ => false,
                }
            });
            let Some(slot) = victim_slot else { return };
            let SlotState::Offered { worker, grant } = self.slots[slot].state else {
                return;
            };
            self.slots[slot].state = SlotState::Revoking { worker, grant };
            self.send_control(worker, &ControlMessage::Revoke { lease: grant });
        }
    }

    /// Write one control line to a worker; false on a broken pipe (the
    /// death is handled by the EOF path, not here).
    fn send_control(&mut self, worker: usize, message: &ControlMessage) -> bool {
        let Some(stdin) = &mut self.workers[worker].stdin else {
            return false;
        };
        writeln!(stdin, "{}", message.to_json_line())
            .and_then(|()| stdin.flush())
            .is_ok()
    }

    fn shutdown(&mut self) {
        self.shutting_down = true;
        for worker in 0..self.workers.len() {
            if self.workers[worker].alive {
                self.send_control(worker, &ControlMessage::Shutdown);
            }
            // Dropping stdin EOFs the worker even if the shutdown line
            // was lost.
            self.workers[worker].stdin = None;
        }
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        for worker in &mut self.workers {
            let Some(child) = &mut worker.child else {
                continue;
            };
            loop {
                match child.try_wait() {
                    Ok(Some(_)) | Err(_) => break,
                    Ok(None) if Instant::now() >= deadline => {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    Ok(None) => thread::sleep(Duration::from_millis(10)),
                }
            }
            worker.alive = false;
        }
    }

    fn merge(&mut self) -> Result<SupervisedOutcome, String> {
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
        Ok(SupervisedOutcome {
            report,
            plan_tag,
            total_points: self.total_points,
            total_units: self.total_units,
            distinct_signatures: self.signatures.len(),
            leases_issued: self.counters.leases_issued.value(),
            leases_stolen: self.counters.leases_stolen.value(),
            leases_expired: self.counters.leases_expired.value(),
            worker_restarts: self.counters.worker_restarts.value(),
            signatures_broadcast: self.counters.signatures_broadcast.value(),
            re_executed_units: self.re_executed,
            killed_in_flight_units: self.killed_in_flight,
            metrics: self.telemetry.snapshot(),
        })
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
            SlotState::Offered {
                worker: 2,
                grant: 9
            }
            .holder(),
            Some(2)
        );
        assert_eq!(
            SlotState::Running {
                worker: 1,
                grant: 9
            }
            .holder(),
            Some(1)
        );
        assert_eq!(
            SlotState::Revoking {
                worker: 0,
                grant: 9
            }
            .holder(),
            Some(0)
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
