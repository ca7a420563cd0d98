//! The supervisor's core: every lease and worker fact and every recovery
//! rule, with no IO.
//!
//! [`Core`] is a state machine. The shell, `run_supervised`, feeds it one
//! [`Input`] at a time with the time it was seen, and carries out the
//! [`Action`]s it returns. The core never reads the clock and never touches
//! a process, pipe or file, so its tests replay interleavings of worker
//! lines, deaths and clock readings without starting a process.
//!
//! * **Leases** — each slot's [`SlotState`] is the one record of its lease.
//!   A worker holds at most one. An idle, greeted worker is granted the
//!   lowest pending slot on its `Hello`, on its `LeaseFinished`, and when a
//!   dead worker's lease comes back, so a reclaimed lease always comes
//!   before every lease not yet granted.
//! * **Worker ids** are never reused: a restart gets a fresh id, and a line
//!   from a dead worker changes no lease, worker or unit fact because its
//!   id is dead. One thing in such a line still counts: a crash signature.
//!   The unit behind it ran, and its record may already sit in a sealed
//!   checkpoint that the lease's next holder resumes without announcing
//!   the crash again, so the signature is learned and broadcast as if a
//!   live worker had sent it.
//! * **Silence** — a worker that owes a line must send one within the
//!   heartbeat timeout. It owes its `Hello` from the moment its annotations
//!   are sent (not from its spawn, so a long space build does not make it
//!   look hung), and progress from the moment of each grant.
//! * **Death** — a worker whose stdout closed, or that stayed silent past
//!   its deadline, is dead. Its lease goes back to pending and is offered
//!   to the idle survivors, and a replacement is spawned while the restart
//!   budget lasts; after that, the last death fails the run.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use lfi_campaign::{CampaignEvent, CampaignReport, ControlMessage, CrashSignature, Lease};
use lfi_telemetry::{Counter, Histogram, MetricsSnapshot, Telemetry};

use crate::protocol::WorkerMessage;
use crate::supervisor::{SupervisedOutcome, SupervisorOptions, HELLO_MICROS, LEASE_MICROS};

/// Where one lease is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SlotState {
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

struct WorkerState {
    /// False from the worker's death on.
    alive: bool,
    greeted: bool,
    spawned_at: Instant,
    /// When the worker's current lease was granted.
    granted_at: Instant,
    /// The worker's last line, or the moment it came to owe one if that
    /// was later: its silence is measured from here.
    last_seen: Instant,
}

impl WorkerState {
    fn new(spawned_at: Instant, now: Instant) -> WorkerState {
        WorkerState {
            alive: true,
            greeted: false,
            spawned_at,
            granted_at: now,
            last_seen: now,
        }
    }
}

/// One thing the shell saw, for the worker with the given id.
#[derive(Debug)]
pub(crate) enum Input {
    /// A line of the worker's stdout, `None` if it did not decode.
    Line(usize, Option<WorkerMessage>),
    /// The worker's stdout closed.
    Eof(usize),
    /// A clock reading, taken when the earliest deadline passed.
    Tick,
}

/// One thing the shell must do, to the worker with the given id.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Write a control line (a grant is a [`ControlMessage::Lease`]).
    Send(usize, ControlMessage),
    /// Start the worker, a fresh id, and send it the annotations.
    Spawn(usize),
    /// Kill the worker if it still runs; the text is for the log.
    Kill(usize, String),
    /// Every lease is done: shut the workers down and merge.
    Done,
    /// Stop the run with this error.
    Fail(String),
}

/// The lease and worker state of one supervised run.
pub(crate) struct Core {
    slots: Vec<LeaseSlot>,
    /// Every worker ever started, indexed by id.
    workers: Vec<WorkerState>,
    next_grant: u64,
    /// The plan hash each `Hello` must echo.
    plan: String,
    heartbeat_timeout: Duration,
    max_restarts: u64,
    chaos_armed: Option<usize>,
    seen_units: BTreeSet<usize>,
    re_executed: usize,
    killed_in_flight: usize,
    signatures: BTreeSet<CrashSignature>,
    leases_issued: Counter,
    leases_expired: Counter,
    restarts: Counter,
    hello_micros: Histogram,
    lease_micros: Histogram,
    /// The actions of the input being taken.
    out: Vec<Action>,
}

impl Core {
    /// Carve `total_points` into leases of `options.lease_points` points,
    /// `lease_units` giving each lease's units. The workers started at
    /// `spawned_at` (ids `0..`) are sent their annotations at `now`.
    pub(crate) fn new(
        total_points: usize,
        lease_units: impl Fn(Lease) -> usize,
        plan: String,
        options: &SupervisorOptions,
        telemetry: &Telemetry,
        spawned_at: Vec<Instant>,
        now: Instant,
    ) -> Core {
        let slots = (0..total_points)
            .step_by(options.lease_points)
            .map(|start| {
                let end = (start + options.lease_points).min(total_points);
                LeaseSlot {
                    start,
                    end,
                    units: lease_units(Lease { id: 0, start, end }),
                    state: SlotState::Pending,
                }
            })
            .collect();
        let workers = spawned_at.into_iter();
        Core {
            slots,
            workers: workers.map(|at| WorkerState::new(at, now)).collect(),
            next_grant: 1,
            plan,
            heartbeat_timeout: options.heartbeat_timeout,
            max_restarts: options.max_restarts as u64,
            chaos_armed: options.chaos_kill_after_units,
            seen_units: BTreeSet::new(),
            re_executed: 0,
            killed_in_flight: 0,
            signatures: BTreeSet::new(),
            leases_issued: telemetry.counter("supervisor.leases_issued"),
            leases_expired: telemetry.counter("supervisor.leases_expired"),
            restarts: telemetry.counter("supervisor.worker_restarts"),
            hello_micros: telemetry.histogram(HELLO_MICROS),
            lease_micros: telemetry.histogram(LEASE_MICROS),
            out: Vec::new(),
        }
    }

    /// Take one input seen at `now` and return what the shell must do, in
    /// order. After [`Action::Done`] or [`Action::Fail`] the run is over.
    pub(crate) fn step(&mut self, now: Instant, input: Input) -> Vec<Action> {
        match input {
            Input::Line(worker, message) if self.is_live(worker) => {
                self.workers[worker].last_seen = now;
                if let Some(message) = message {
                    self.handle(worker, message, now);
                }
            }
            Input::Line(_, Some(WorkerMessage::Event(CampaignEvent::CrashFound(signature)))) => {
                self.learn(signature)
            }
            Input::Eof(worker) => self.bury(worker, "stdout closed".to_string(), now),
            Input::Line(..) | Input::Tick => {}
        }
        if self.slots.iter().all(|s| s.state == SlotState::Done) {
            self.out.push(Action::Done);
        } else {
            // After every input, not just a tick: a sibling that keeps
            // streaming lines must not hide a silent worker.
            self.expire_silent(now);
        }
        std::mem::take(&mut self.out)
    }

    /// Whether `worker` is alive: its lines count and it may hold a lease.
    fn is_live(&self, worker: usize) -> bool {
        self.workers[worker].alive
    }

    /// The earliest moment a worker that owes a line is declared hung, or
    /// `None` when no worker owes one (or the timeout is unbounded).
    pub(crate) fn next_deadline(&self) -> Option<Instant> {
        (0..self.workers.len())
            .filter_map(|w| self.deadline(w))
            .min()
    }

    /// The `start..end` point range of every lease, in order.
    pub(crate) fn ranges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.slots.iter().map(|s| (s.start, s.end))
    }

    /// The run's accounting around its merged report.
    pub(crate) fn outcome(
        &self,
        report: CampaignReport,
        plan_tag: String,
        total_units: usize,
        metrics: MetricsSnapshot,
    ) -> SupervisedOutcome {
        SupervisedOutcome {
            report,
            plan_tag,
            total_points: self.slots.last().map_or(0, |s| s.end),
            total_units,
            distinct_signatures: self.signatures.len(),
            leases_issued: self.leases_issued.value(),
            leases_stolen: 0,
            leases_expired: self.leases_expired.value(),
            worker_restarts: self.restarts.value(),
            re_executed_units: self.re_executed,
            killed_in_flight_units: self.killed_in_flight,
            metrics,
        }
    }

    fn handle(&mut self, worker: usize, message: WorkerMessage, now: Instant) {
        match message {
            WorkerMessage::Hello { plan, .. } if plan != self.plan => {
                self.out.push(Action::Fail(format!(
                    "worker {worker} enumerates plan {plan}, supervisor has {}: \
                     fault space or workload suites differ between the processes",
                    self.plan
                )));
            }
            WorkerMessage::Hello { .. } => {
                self.workers[worker].greeted = true;
                let spawned_at = self.workers[worker].spawned_at;
                self.hello_micros
                    .record((now - spawned_at).as_micros() as u64);
                self.top_up(worker, now);
            }
            WorkerMessage::LeaseFinished { lease: grant, .. } => {
                let granted = SlotState::Granted { worker, grant };
                if let Some(slot) = self.slots.iter_mut().find(|s| s.state == granted) {
                    slot.state = SlotState::Done;
                    let granted_at = self.workers[worker].granted_at;
                    self.lease_micros
                        .record((now - granted_at).as_micros() as u64);
                    self.top_up(worker, now);
                }
            }
            WorkerMessage::Event(CampaignEvent::UnitFinished { record, .. }) => {
                if !self.seen_units.insert(record.unit) {
                    self.re_executed += 1;
                }
                self.maybe_fire_chaos(now);
            }
            WorkerMessage::Event(CampaignEvent::CrashFound(signature)) => self.learn(signature),
            WorkerMessage::Event(_) => {}
        }
    }

    /// Send a first-seen signature to every live, greeted worker. The
    /// originator suppresses re-announcing it, so this is idempotent.
    fn learn(&mut self, signature: CrashSignature) {
        if self.signatures.insert(signature.clone()) {
            let greeted = self.workers.iter().enumerate();
            self.out
                .extend(greeted.filter(|(_, w)| w.alive && w.greeted).map(|(w, _)| {
                    Action::Send(w, ControlMessage::SignatureBroadcast(signature.clone()))
                }));
        }
    }

    /// Once the armed number of units has finished, kill the lowest lease
    /// holder. While nobody holds a lease, stay armed.
    fn maybe_fire_chaos(&mut self, now: Instant) {
        let finished = self.seen_units.len() + self.re_executed;
        let victim = self.slots.iter().filter_map(|s| s.state.holder()).min();
        if let Some(worker) = victim.filter(|_| self.chaos_armed.is_some_and(|n| finished >= n)) {
            self.chaos_armed = None;
            // The kill is the core's decision, so the victim is buried now,
            // on the path EOF and silence take: its lease is reclaimed at
            // once (it held one by construction) and its later lines, a
            // `LeaseFinished` already in its pipe included, are a dead
            // worker's.
            self.bury(worker, "chaos hook killed it mid-lease".to_string(), now);
        }
    }

    /// Declare `worker` dead (if it is not already): reclaim its lease for
    /// the idle survivors, then spawn a replacement under a fresh id while
    /// the restart budget lasts.
    fn bury(&mut self, worker: usize, why: String, now: Instant) {
        if !self.is_live(worker) {
            return;
        }
        self.workers[worker].alive = false;
        self.out.push(Action::Kill(worker, why));
        if let Some(index) = self.lease_of(worker) {
            // The held lease bounds recovery re-execution: its
            // checkpointed units are resumed, so at most its units run
            // twice.
            self.killed_in_flight += self.slots[index].units;
            self.slots[index].state = SlotState::Pending;
            self.leases_expired.inc();
            for survivor in 0..self.workers.len() {
                self.top_up(survivor, now);
            }
        }
        if self.restarts.value() < self.max_restarts {
            self.restarts.inc();
            self.workers.push(WorkerState::new(now, now));
            self.out.push(Action::Spawn(self.workers.len() - 1));
        } else if !self.workers.iter().any(|w| w.alive) {
            let unfinished = self.slots.iter().filter(|s| s.state != SlotState::Done);
            self.out.push(Action::Fail(format!(
                "every worker is dead (restart budget {} exhausted) with {} leases unfinished",
                self.max_restarts,
                unfinished.count()
            )));
        }
    }

    /// When `worker` is declared hung, if it owes a line: its `Hello`, or
    /// progress on the lease it holds.
    fn deadline(&self, worker: usize) -> Option<Instant> {
        let state = &self.workers[worker];
        let owes = state.alive && (!state.greeted || self.lease_of(worker).is_some());
        owes.then(|| state.last_seen.checked_add(self.heartbeat_timeout))
            .flatten()
    }

    /// Declare every worker silent past its deadline hung.
    fn expire_silent(&mut self, now: Instant) {
        for worker in 0..self.workers.len() {
            if self.deadline(worker).is_some_and(|at| now >= at) {
                let silent = now.saturating_duration_since(self.workers[worker].last_seen);
                self.bury(worker, format!("no heartbeat for {silent:.1?}"), now);
            }
        }
    }

    /// The slot of the lease `worker` holds, if any.
    fn lease_of(&self, worker: usize) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.state.holder() == Some(worker))
    }

    /// Grant a live, greeted, idle `worker` the lowest pending lease.
    fn top_up(&mut self, worker: usize, now: Instant) {
        let state = &self.workers[worker];
        if !state.alive || !state.greeted || self.lease_of(worker).is_some() {
            return;
        }
        let pending = self
            .slots
            .iter()
            .position(|s| s.state == SlotState::Pending);
        let Some(slot) = pending else {
            return;
        };
        let grant = self.next_grant;
        self.next_grant += 1;
        self.slots[slot].state = SlotState::Granted { worker, grant };
        // The worker owes progress from the grant on, however long it sat
        // idle before it.
        self.workers[worker].granted_at = now;
        self.workers[worker].last_seen = now;
        self.leases_issued.inc();
        let (start, end) = (self.slots[slot].start, self.slots[slot].end);
        let lease = Lease {
            id: grant,
            start,
            end,
        };
        self.out
            .push(Action::Send(worker, ControlMessage::Lease(lease)));
    }
}

#[cfg(test)]
mod tests;
