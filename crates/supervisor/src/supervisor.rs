//! The campaign supervisor's shell: elastic workers under one scheduler.
//!
//! [`run_supervised`] spawns `workers` worker processes first and builds
//! the annotated fault space while they start: each worker compiles its
//! targets and enumerates the bare fault points in the meantime. The
//! supervisor then partitions the space into small
//! [`Lease`](lfi_campaign::Lease)s (much finer than a `--shard i/n`
//! range), sends every worker the space's annotations (one
//! [`ControlMessage::Annotations`] line, sent again right after the spawn
//! of a restarted worker), and drives the workers over the JSONL pipe
//! protocol. No worker analyzes the space or re-runs the no-fault suite
//! before its `Hello`, so the `hello` phase overlaps the space build.
//!
//! Every lease and worker fact and every recovery rule lives in the
//! IO-free core of the `leasing` module. This shell keeps none of it: it
//! feeds the core each worker line, stdout EOF and passed deadline, and
//! carries out the actions it returns. It spawns, runs one reader thread
//! per worker, writes lines, kills, reaps and appends to the merged event
//! stream, and it sleeps on its inbox until the core's earliest deadline,
//! with no polling tick.
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

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread;
use std::time::{Duration, Instant};

use lfi_campaign::{
    Campaign, CampaignReport, CampaignState, ControlMessage, ExecBackend, LeaseOutcome,
    StandardExecutor,
};
use lfi_telemetry::{LineFramer, MetricsSnapshot, Span, Telemetry};

use crate::leasing::{Action, Core, Input};
use crate::plan::{parse_strategy, SpaceSpec};
use crate::protocol::WorkerMessage;
use crate::worker::lease_checkpoint;

/// How long the shutdown waits for a worker to exit before killing it.
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
    /// A worker that owes a line (its `Hello`, or progress on its lease)
    /// and stays silent this long is declared hung, killed, and restarted.
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
    /// Stock options: 2 workers, 1 job each, exhaustive, the default
    /// [`ExecBackend`], 8-point leases, 30 s heartbeat timeout, at most 2
    /// worker restarts. `worker_bin` defaults to the `campaign_worker`
    /// sibling of the current executable when one exists.
    pub fn new(spec: SpaceSpec, state_dir: impl Into<PathBuf>) -> SupervisorOptions {
        SupervisorOptions {
            spec,
            strategy: "exhaustive".to_string(),
            workers: 2,
            jobs: 1,
            seed: 7,
            backend: ExecBackend::default(),
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
    /// Distinct crash signatures observed live; each was broadcast to the
    /// sibling workers when first seen.
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

const SPACE_BUILD_MICROS: &str = "supervisor.space_build_micros";
pub(crate) const HELLO_MICROS: &str = "supervisor.hello_micros";
pub(crate) const LEASE_MICROS: &str = "supervisor.lease_micros";
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

/// A line of a worker's stdout, or `None` when its stdout closed.
type Inbox = (usize, Option<String>);

/// The shell around the core: processes and IO only.
struct Supervisor {
    options: SupervisorOptions,
    /// Each worker's process by id, `None` once reaped. Its `stdin` is the
    /// control pipe; taking it closes the pipe.
    children: Vec<Option<Child>>,
    tx: Sender<Inbox>,
    rx: Receiver<Inbox>,
    merged_events: Option<File>,
    telemetry: Telemetry,
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
    let merged_events = options.events_jsonl.as_ref().map(|path| {
        File::create(path).map_err(|err| format!("create event stream {}: {err}", path.display()))
    });

    let (tx, rx) = mpsc::channel();
    let mut supervisor = Supervisor {
        options: options.clone(),
        children: Vec::new(),
        tx,
        rx,
        merged_events: merged_events.transpose()?,
        telemetry: Telemetry::new(),
        shutdown_span: None,
    };
    // Whatever `run` returns, no worker outlives this call.
    let merged = supervisor.run();
    supervisor.reap();
    let (core, report, plan_tag, total_units) = merged?;
    // After the reap, so the shutdown span is in the snapshot.
    let metrics = supervisor.telemetry.snapshot();
    Ok(core.outcome(report, plan_tag, total_units, metrics))
}

impl Supervisor {
    /// Spawn, build, then carry out the core's actions on each worker line,
    /// stdout EOF and passed deadline until every lease is done; then ask
    /// the workers to exit and merge while they do. The caller reaps them.
    fn run(&mut self) -> Result<(Core, CampaignReport, String, usize), String> {
        // Workers start first: each compiles its targets and enumerates
        // its bare points while the space is built here.
        let spawned_at = (0..self.options.workers)
            .map(|worker| self.spawn(worker).map(|()| Instant::now()))
            .collect::<Result<Vec<_>, _>>()?;
        let (mut core, annotations, total_units) = self.build_space(spawned_at)?;
        for worker in 0..self.children.len() {
            self.send_line(worker, &annotations);
        }

        loop {
            // The supervisor holds its own sender, so the channel never
            // disconnects: an error is the deadline passing.
            let wait = core
                .next_deadline()
                .map(|at| at.saturating_duration_since(Instant::now()));
            let inbox = match wait {
                Some(left) => self.rx.recv_timeout(left).ok(),
                None => self.rx.recv().ok(),
            };
            let input = match inbox {
                Some((worker, Some(line))) => {
                    let message = WorkerMessage::from_json_line(&line);
                    if let Err(err) = &message {
                        eprintln!("supervisor: worker {worker}: undecodable line ({err}): {line}");
                    }
                    // The merged stream holds the events of live workers.
                    let live_event =
                        core.is_live(worker) && matches!(message, Ok(WorkerMessage::Event(_)));
                    if let Some(file) = self.merged_events.as_mut().filter(|_| live_event) {
                        let _ = writeln!(file, "{line}").and_then(|()| file.flush());
                    }
                    Input::Line(worker, message.ok())
                }
                Some((worker, None)) => {
                    self.reap_one(worker);
                    Input::Eof(worker)
                }
                None => Input::Tick,
            };
            for action in core.step(Instant::now(), input) {
                match action {
                    Action::Send(worker, message) => {
                        self.send_line(worker, &message.to_json_line())
                    }
                    Action::Spawn(worker) => {
                        self.spawn(worker)?;
                        self.send_line(worker, &annotations);
                    }
                    Action::Kill(worker, why) => {
                        eprintln!("supervisor: worker {worker}: {why}");
                        let _ = self.children[worker].as_mut().map(Child::kill);
                    }
                    Action::Done => {
                        // The merge needs only the checkpoint files, so it
                        // runs while the workers exit.
                        self.request_shutdown();
                        let (report, plan_tag) = self.merge(&core)?;
                        return Ok((core, report, plan_tag, total_units));
                    }
                    Action::Fail(err) => return Err(err),
                }
            }
        }
    }

    /// Build the annotated space: the core over its leases and the plan
    /// hash, the workers' annotations line, and the unit count. The executor
    /// is dropped before the leases run, so the merge's peak memory omits it.
    fn build_space(&self, spawned_at: Vec<Instant>) -> Result<(Core, String, usize), String> {
        let span = self.telemetry.histogram(SPACE_BUILD_MICROS).start();
        let executor = StandardExecutor::new(&self.options.spec.target_names());
        let (space, annotations) = self.options.spec.build_with_annotations(&executor);
        let campaign = Campaign::builder(space, &executor)
            .seed(self.options.seed)
            .build();
        if campaign.space().is_empty() {
            return Err("the fault space is empty; nothing to lease".to_string());
        }
        let core = Core::new(
            campaign.space().len(),
            |lease| campaign.lease_units(lease),
            format!("{:016x}", campaign.plan_hash()),
            &self.options,
            &self.telemetry,
            spawned_at,
            Instant::now(),
        );
        span.finish();
        Ok((core, annotations.to_json_line(), campaign.total_units()))
    }

    /// Start worker `worker`, the next fresh id, with a reader thread that
    /// forwards its stdout.
    fn spawn(&mut self, worker: usize) -> Result<(), String> {
        debug_assert_eq!(worker, self.children.len(), "worker ids are never reused");
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
        let stdout = child.stdout.take().expect("piped stdout");
        let tx = self.tx.clone();
        thread::spawn(move || read_worker_lines(worker, stdout, tx));
        self.children.push(Some(child));
        Ok(())
    }

    /// Write one line to a worker. A broken pipe is ignored: the worker's
    /// EOF tells the core of its death.
    fn send_line(&mut self, worker: usize, line: &str) {
        if let Some(stdin) = self.children[worker]
            .as_mut()
            .and_then(|c| c.stdin.as_mut())
        {
            let _ = writeln!(stdin, "{line}").and_then(|()| stdin.flush());
        }
    }

    /// Ask every running worker to exit: a `Shutdown` line, then its stdin
    /// closed, which EOFs the worker even if the line was lost. Opens the
    /// shutdown span, which [`reap`](Self::reap) closes.
    fn request_shutdown(&mut self) {
        self.shutdown_span = Some(self.telemetry.histogram(SHUTDOWN_MICROS).start());
        let line = ControlMessage::Shutdown.to_json_line();
        for stdin in self
            .children
            .iter_mut()
            .flatten()
            .filter_map(|c| c.stdin.take())
        {
            let _ = writeln!(&stdin, "{line}");
        }
    }

    /// Kill and wait for a worker not reaped yet. On its stdout's EOF this
    /// returns at once: a worker holds stdout open until it exits.
    fn reap_one(&mut self, worker: usize) {
        if let Some(mut child) = self.children[worker].take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Close every worker's stdin and reap each one as its stdout closes.
    /// Whatever is still running at the grace deadline is killed. Runs on
    /// every exit path of [`run_supervised`]; a worker still waiting for
    /// its annotations exits on the EOF.
    fn reap(&mut self) {
        self.children
            .iter_mut()
            .flatten()
            .for_each(|c| drop(c.stdin.take()));
        let deadline = Instant::now() + SHUTDOWN_GRACE;
        while self.children.iter().any(Option::is_some) {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            match self.rx.recv_timeout(left) {
                Ok((worker, None)) => self.reap_one(worker),
                Ok(_) => {}
                Err(_) => break,
            }
        }
        for worker in 0..self.children.len() {
            self.reap_one(worker);
        }
        if let Some(span) = self.shutdown_span.take() {
            span.finish();
        }
    }

    /// Merge the lease checkpoints: the report and the plan tag.
    fn merge(&self, core: &Core) -> Result<(CampaignReport, String), String> {
        let span = self.telemetry.histogram(MERGE_MICROS).start();
        let total_points = core.ranges().last().map_or(0, |(_, end)| end);
        let mut outcomes = Vec::new();
        for (start, end) in core.ranges() {
            let path = lease_checkpoint(&self.options.state_dir, start, end);
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
        let report = CampaignReport::merge_leases(outcomes, total_points)
            .map_err(|err| format!("merge leases: {err}"))?;
        span.finish();
        Ok((report, plan_tag))
    }
}

/// Reader-thread body: frame a worker's stdout into lines and forward
/// them, then its EOF.
fn read_worker_lines(worker: usize, mut stdout: ChildStdout, tx: Sender<Inbox>) {
    let mut framer = LineFramer::new();
    let mut buf = [0u8; 8192];
    loop {
        match stdout.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                for line in framer.push_bytes(&buf[..n]) {
                    if tx.send((worker, Some(line))).is_err() {
                        return;
                    }
                }
            }
        }
    }
    let _ = tx.send((worker, None));
}
