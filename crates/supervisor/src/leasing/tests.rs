//! The core's recovery rules, tested without processes: unit tests of
//! single rules, and a property test that replays random interleavings of
//! worker lines, deaths, hangs, late and stale lines and clock readings
//! through a simulated set of workers, checking the core's invariants
//! after every step.

use std::collections::{BTreeSet, VecDeque};

use lfi_campaign::{OutcomeKind, RunRecord};
use proptest::prelude::*;

use super::*;
use crate::plan::SpaceSpec;

const PLAN: &str = "00000000000000aa";

fn options(
    lease_points: usize,
    timeout: Duration,
    max_restarts: usize,
    chaos: Option<usize>,
) -> SupervisorOptions {
    let mut options = SupervisorOptions::new(SpaceSpec::new(), "unused");
    options.lease_points = lease_points;
    options.heartbeat_timeout = timeout;
    options.max_restarts = max_restarts;
    options.chaos_kill_after_units = chaos;
    options
}

/// A core over `points` fault points of two units each, with `workers`
/// workers spawned and sent their annotations at `t0`.
fn core(points: usize, workers: usize, options: &SupervisorOptions, t0: Instant) -> Core {
    Core::new(
        points,
        |lease| 2 * (lease.end - lease.start),
        PLAN.to_string(),
        options,
        &Telemetry::new(),
        vec![t0; workers],
        t0,
    )
}

fn line(worker: usize, message: WorkerMessage) -> Input {
    Input::Line(worker, Some(message))
}

fn hello() -> WorkerMessage {
    WorkerMessage::Hello {
        plan: PLAN.to_string(),
    }
}

fn lease_finished(lease: Lease) -> WorkerMessage {
    WorkerMessage::LeaseFinished { lease: lease.id }
}

fn unit_finished(unit: usize) -> WorkerMessage {
    WorkerMessage::Event(CampaignEvent::UnitFinished {
        record: RunRecord {
            unit,
            target: "git-lite".to_string(),
            function: "close".to_string(),
            offset: 0,
            args: Vec::new(),
            outcome: OutcomeKind::Passed,
            injections: 1,
            injected_sites: Vec::new(),
            crashes: Vec::new(),
            virtual_time: 1,
        },
        duration_micros: 1,
    })
}

fn crash_found(function: &str) -> WorkerMessage {
    WorkerMessage::Event(CampaignEvent::CrashFound(CrashSignature {
        target: "git-lite".to_string(),
        function: function.to_string(),
        module: "git-lite".to_string(),
        offset: 0,
        frame: None,
    }))
}

/// The leases granted by `actions`, with their workers.
fn grants(actions: &[Action]) -> Vec<(usize, Lease)> {
    actions
        .iter()
        .filter_map(|action| match action {
            Action::Send(worker, ControlMessage::Lease(lease)) => Some((*worker, *lease)),
            _ => None,
        })
        .collect()
}

fn is_kill(action: &Action, victim: usize) -> bool {
    matches!(action, Action::Kill(worker, _) if *worker == victim)
}

fn ms(n: u64) -> Duration {
    Duration::from_millis(n)
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
fn the_constructor_tiles_the_space_into_pending_leases() {
    let core = core(11, 1, &options(4, ms(100), 0, None), Instant::now());
    assert_eq!(
        core.ranges().collect::<Vec<_>>(),
        vec![(0, 4), (4, 8), (8, 11)]
    );
    assert_eq!(
        core.slots.iter().map(|s| s.units).collect::<Vec<_>>(),
        vec![8, 8, 6]
    );
    assert!(core.slots.iter().all(|s| s.state == SlotState::Pending));
    assert_eq!(core.next_grant, 1);
}

#[test]
fn a_worker_that_never_says_hello_is_declared_hung() {
    // The deadline runs from the annotations (the core's creation), not
    // from the spawn: a build longer than the timeout hangs nobody.
    let t0 = Instant::now();
    let spawned = t0 - ms(500);
    let mut core = Core::new(
        3,
        |_| 1,
        PLAN.to_string(),
        &options(3, ms(100), 0, None),
        &Telemetry::new(),
        vec![spawned],
        t0,
    );
    assert_eq!(core.next_deadline(), Some(t0 + ms(100)));
    assert!(core.step(t0 + ms(99), Input::Tick).is_empty());
    let actions = core.step(t0 + ms(100), Input::Tick);
    assert!(is_kill(&actions[0], 0), "{actions:?}");
    assert!(
        matches!(&actions[1], Action::Fail(err) if err.contains("every worker is dead")),
        "{actions:?}"
    );
}

#[test]
fn a_grant_restarts_the_silence_clock_of_an_idle_worker() {
    // Worker 1 sits idle far longer than the timeout, then takes the lease
    // of its dead sibling: it owes progress from the grant on.
    let t0 = Instant::now();
    let mut core = core(2, 2, &options(2, ms(100), 0, None), t0);
    assert_eq!(grants(&core.step(t0, line(0, hello()))).len(), 1);
    assert!(grants(&core.step(t0, line(1, hello()))).is_empty());
    assert_eq!(core.next_deadline(), Some(t0 + ms(100)));
    let t1 = t0 + ms(50);
    let actions = core.step(t1, line(0, unit_finished(0)));
    assert!(actions.is_empty());
    let t2 = t0 + ms(140);
    let actions = core.step(t2, Input::Eof(0));
    assert!(is_kill(&actions[0], 0));
    assert_eq!(grants(&actions).len(), 1, "the idle survivor takes it");
    assert_eq!(grants(&actions)[0].0, 1);
    assert_eq!(core.next_deadline(), Some(t2 + ms(100)));
    assert_eq!(core.killed_in_flight, 4);
}

#[test]
fn a_restart_gets_a_fresh_id_and_lines_of_the_dead_id_are_dropped() {
    let t0 = Instant::now();
    let mut core = core(4, 1, &options(2, ms(100), 1, None), t0);
    let lease = grants(&core.step(t0, line(0, hello())))[0].1;
    let actions = core.step(t0 + ms(200), Input::Tick);
    assert!(is_kill(&actions[0], 0));
    assert_eq!(actions[1], Action::Spawn(1));
    assert_eq!(core.workers.len(), 2);
    // The dead worker's late lines change nothing.
    let late = t0 + ms(201);
    assert!(core.step(late, line(0, unit_finished(0))).is_empty());
    assert!(core.step(late, line(0, lease_finished(lease))).is_empty());
    assert_eq!(core.seen_units.len(), 0);
    // The new worker greets and takes the reclaimed lease again.
    let regrant = grants(&core.step(late, line(1, hello())));
    assert_eq!(regrant.len(), 1);
    assert_eq!(
        (regrant[0].1.start, regrant[0].1.end),
        (lease.start, lease.end)
    );
    assert!(regrant[0].1.id > lease.id);
}

#[test]
fn the_chaos_kill_expires_the_victims_lease_even_if_it_already_finished() {
    // The race the hook used to lose: the victim's `LeaseFinished` is
    // already in its pipe when the kill is decided. The victim is buried
    // at the decision, so that line is a dead worker's and its lease
    // expires and goes to the survivor.
    let t0 = Instant::now();
    let mut core = core(4, 2, &options(2, ms(100), 1, Some(1)), t0);
    let lease = grants(&core.step(t0, line(0, hello())))[0].1;
    assert_eq!(grants(&core.step(t0, line(1, hello()))).len(), 1);
    let actions = core.step(t0, line(0, unit_finished(0)));
    assert!(is_kill(&actions[0], 0), "{actions:?}");
    assert_eq!(core.leases_expired.value(), 1);
    assert_eq!(actions[1], Action::Spawn(2));
    // The rest of the victim's pipe: a crash is still learned and
    // broadcast to the live, greeted survivor; the lease line is dropped.
    let actions = core.step(t0, line(0, crash_found("open")));
    assert!(
        matches!(
            &actions[..],
            [Action::Send(1, ControlMessage::SignatureBroadcast(_))]
        ),
        "{actions:?}"
    );
    assert!(core.step(t0, line(0, lease_finished(lease))).is_empty());
    // The survivor finishes its own lease and takes the victim's.
    let second = grants(&core.step(t0, line(1, lease_finished(lease_of(&core, 1)))));
    assert_eq!((second[0].0, second[0].1.start), (1, lease.start));
}

/// The lease `worker` holds.
fn lease_of(core: &Core, worker: usize) -> Lease {
    let slot = &core.slots[core.lease_of(worker).unwrap()];
    let SlotState::Granted { grant, .. } = slot.state else {
        unreachable!()
    };
    Lease {
        id: grant,
        start: slot.start,
        end: slot.end,
    }
}

/// A simulated worker process.
#[derive(Default)]
struct Proc {
    /// Lines it will write, in order.
    queue: VecDeque<WorkerMessage>,
    /// When it writes the next one.
    next_at: Option<Instant>,
    /// It hung or crashed: it writes nothing more on its own.
    stopped: bool,
    /// It was killed: at most one late line, then its EOF.
    killed: bool,
    /// When its stdout closes.
    eof_at: Option<Instant>,
    /// Its EOF was delivered.
    closed: bool,
}

/// A supervised run against simulated workers: each step delivers the
/// earliest due line, EOF or core deadline, or injects a fault (a crash, a
/// hang, a stale `LeaseFinished`, a late line from a dead worker, an
/// early clock reading, or a line read only after a deadline passed).
/// A healthy worker writes each line it owes within the timeout.
struct Sim {
    core: Core,
    procs: Vec<Proc>,
    rng: u64,
    now: Instant,
    timeout: Duration,
    workers: usize,
    max_restarts: usize,
    /// Crashes and hangs still to inject.
    faults_left: usize,
    /// How many times each slot turned `Done`.
    completions: Vec<usize>,
    last_grant: u64,
    ended: Option<Result<(), String>>,
    trace: Vec<String>,
}

impl Sim {
    fn next(&mut self, n: usize) -> usize {
        // SplitMix64.
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n.max(1) as u64) as usize
    }

    /// A reply delay shorter than the timeout.
    fn delay(&mut self) -> Duration {
        let micros = self.timeout.as_micros() as usize;
        Duration::from_micros(1 + self.next(micros - 1) as u64)
    }

    fn fail(&self, what: &str) -> ! {
        let tail = &self.trace[self.trace.len().saturating_sub(30)..];
        panic!("{what}\nlast steps:\n{}", tail.join("\n"));
    }

    /// The earliest due event: a line, an EOF, or (with `tick`) the core's
    /// deadline, which comes as `None`.
    fn due(&self, tick: bool) -> Option<(Instant, Option<Input>)> {
        let lines = self.procs.iter().enumerate().filter_map(|(w, p)| {
            let writes = !p.closed && (!p.stopped || p.killed);
            p.next_at.filter(|_| writes).map(|at| (at, Some(w), false))
        });
        let eofs = self
            .procs
            .iter()
            .enumerate()
            .filter_map(|(w, p)| p.eof_at.filter(|_| !p.closed).map(|at| (at, Some(w), true)));
        let deadline = self.core.next_deadline().filter(|_| tick);
        lines
            .chain(eofs)
            .chain(deadline.map(|at| (at, None, false)))
            .min_by_key(|&(at, _, _)| at)
            .map(|(at, worker, eof)| (at, worker.map(|w| self.input_of(w, eof))))
    }

    fn input_of(&self, worker: usize, eof: bool) -> Input {
        if eof {
            Input::Eof(worker)
        } else {
            line(worker, self.procs[worker].queue[0].clone())
        }
    }

    fn step(&mut self, input: Input) -> Vec<Action> {
        self.trace.push(format!("{:?}: {input:?}", self.now));
        let before: Vec<SlotState> = self.core.slots.iter().map(|s| s.state).collect();
        let alive: Vec<bool> = self.core.workers.iter().map(|w| w.alive).collect();
        let eof_of = match input {
            Input::Eof(worker) => Some(worker),
            _ => None,
        };
        let armed = self.core.chaos_armed.is_some();
        let expired = self.core.leases_expired.value();
        let actions = self.core.step(self.now, input);
        self.trace.push(format!("  -> {actions:?}"));
        self.check(&before, &alive, eof_of, &actions);
        self.check_chaos(&before, &alive, armed, expired, &actions);
        self.apply(&actions);
        actions
    }

    /// Deliver an input that must change nothing.
    fn step_inert(&mut self, input: Input) {
        let before: Vec<SlotState> = self.core.slots.iter().map(|s| s.state).collect();
        let units = self.core.seen_units.len() + self.core.re_executed;
        let actions = self.step(input);
        let after: Vec<SlotState> = self.core.slots.iter().map(|s| s.state).collect();
        if !actions.is_empty()
            || before != after
            || units != self.core.seen_units.len() + self.core.re_executed
        {
            self.fail("a stale line, a dead worker's line or an early tick changed the state");
        }
    }

    fn check(
        &mut self,
        before: &[SlotState],
        alive: &[bool],
        eof_of: Option<usize>,
        actions: &[Action],
    ) {
        let core = &self.core;
        let ended = actions
            .iter()
            .any(|a| matches!(a, Action::Done | Action::Fail(_)));
        for (i, slot) in core.slots.iter().enumerate() {
            match (before[i], slot.state) {
                (SlotState::Done, SlotState::Done) => {}
                (SlotState::Done, _) => self.fail(&format!("slot {i} left Done")),
                (_, SlotState::Done) => self.completions[i] += 1,
                _ => {}
            }
            if let Some(holder) = slot.state.holder() {
                let state = &core.workers[holder];
                if !state.alive || !state.greeted {
                    self.fail(&format!(
                        "slot {i} is held by dead or un-greeted worker {holder}"
                    ));
                }
            }
        }
        for worker in 0..core.workers.len() {
            let held = core
                .slots
                .iter()
                .filter(|s| s.state.holder() == Some(worker))
                .count();
            if held > 1 {
                self.fail(&format!("worker {worker} holds {held} leases"));
            }
            let state = &core.workers[worker];
            let pending = core.slots.iter().any(|s| s.state == SlotState::Pending);
            if pending && state.alive && state.greeted && held == 0 {
                self.fail(&format!(
                    "worker {worker} sits idle while a lease is pending"
                ));
            }
        }
        for (worker, &was) in alive.iter().enumerate() {
            let is = core.workers[worker].alive;
            if !was && is {
                self.fail(&format!("dead worker {worker} came back"));
            }
            let chaos_victim = actions.iter().any(
                |a| matches!(a, Action::Kill(w, why) if *w == worker && why.contains("chaos")),
            );
            if was && !is && eof_of != Some(worker) && !self.procs[worker].stopped && !chaos_victim
            {
                self.fail(&format!(
                    "worker {worker} kept answering but was declared hung"
                ));
            }
        }
        // Replay the step on the slots as they were: a burial (the last
        // kill of a worker that died in this step) returns its lease to
        // pending, and each grant must take the lowest pending slot at
        // that moment. The replay must end where the core did.
        let mut pending: BTreeSet<usize> = (0..before.len())
            .filter(|&i| before[i] == SlotState::Pending)
            .collect();
        let mut held: Vec<(usize, usize)> = (0..before.len())
            .filter_map(|i| before[i].holder().map(|w| (w, i)))
            .collect();
        for (at, action) in actions.iter().enumerate() {
            match action {
                Action::Kill(worker, _)
                    if alive.get(*worker) == Some(&true)
                        && !core.workers[*worker].alive
                        && !actions[at + 1..].iter().any(|a| is_kill(a, *worker)) =>
                {
                    let lost = held.iter().filter(|&&(w, _)| w == *worker);
                    pending.extend(
                        lost.map(|&(_, i)| i)
                            .filter(|&i| core.slots[i].state != SlotState::Done),
                    );
                }
                Action::Send(worker, ControlMessage::Lease(lease)) => {
                    let slot = core
                        .slots
                        .iter()
                        .position(|s| s.start == lease.start)
                        .unwrap();
                    let granted = SlotState::Granted {
                        worker: *worker,
                        grant: lease.id,
                    };
                    if pending.pop_first() != Some(slot)
                        || core.slots[slot].state != granted
                        || lease.id != self.last_grant + 1
                    {
                        self.fail(&format!(
                            "grant {lease} to worker {worker} is not the lowest pending slot"
                        ));
                    }
                    held.push((*worker, slot));
                    self.last_grant = lease.id;
                }
                _ => {}
            }
        }
        let left: BTreeSet<usize> = (0..core.slots.len())
            .filter(|&i| core.slots[i].state == SlotState::Pending)
            .collect();
        if pending != left {
            self.fail(&format!(
                "pending slots {left:?}, but the step's kills and grants leave {pending:?}"
            ));
        }
        if core.re_executed > core.killed_in_flight {
            self.fail("more units re-executed than dead workers held");
        }
        if core.restarts.value() > self.max_restarts as u64
            || core.workers.len() > self.workers + self.max_restarts
        {
            self.fail("restarted beyond the budget");
        }
        if !ended
            && core
                .next_deadline()
                .is_some_and(|deadline| deadline <= self.now)
        {
            self.fail("a worker is left silent past its deadline");
        }
        let mut buried = Vec::new();
        let mut fresh = self.procs.len();
        for action in actions {
            match action {
                Action::Kill(worker, _) if !core.workers[*worker].alive => buried.push(*worker),
                Action::Send(worker, _) if !alive[*worker] || buried.contains(worker) => {
                    self.fail(&format!("sent a line to dead worker {worker}"))
                }
                Action::Spawn(worker) if *worker != fresh => {
                    self.fail(&format!("spawned worker {worker}, not a fresh id"))
                }
                Action::Spawn(_) => fresh += 1,
                _ => {}
            }
        }
    }

    /// Each death in the step reclaims exactly the one lease its worker
    /// held, and a chaos hook that fires kills exactly one worker, which
    /// held a lease: so the hook expires exactly one lease in its step.
    fn check_chaos(
        &self,
        before: &[SlotState],
        alive: &[bool],
        armed: bool,
        expired: u64,
        actions: &[Action],
    ) {
        let core = &self.core;
        let buried_holders: Vec<usize> = (0..alive.len())
            .filter(|&w| alive[w] && !core.workers[w].alive)
            .filter(|&w| before.iter().any(|s| s.holder() == Some(w)))
            .collect();
        let expired_now = core.leases_expired.value() - expired;
        if expired_now != buried_holders.len() as u64 {
            self.fail(&format!(
                "{expired_now} leases expired, but {} lease holders died",
                buried_holders.len()
            ));
        }
        let fired = armed && core.chaos_armed.is_none();
        let chaos_kills: Vec<usize> = actions
            .iter()
            .filter_map(|action| match action {
                Action::Kill(worker, why) if why.contains("chaos") => Some(*worker),
                _ => None,
            })
            .collect();
        match (fired, chaos_kills.as_slice()) {
            (false, []) => {}
            (true, [victim]) if buried_holders.contains(victim) => {}
            _ => self.fail(&format!(
                "the chaos hook fired: {fired}, killing {chaos_kills:?}, \
                 while lease holders {buried_holders:?} died"
            )),
        }
    }

    /// Carry out the core's actions the way the workers would see them.
    fn apply(&mut self, actions: &[Action]) {
        for action in actions {
            match action {
                Action::Send(worker, ControlMessage::Lease(lease)) => {
                    let mut lines: VecDeque<WorkerMessage> = (2 * lease.start..2 * lease.end)
                        .map(unit_finished)
                        .collect();
                    if self.next(3) == 0 {
                        let at = self.next(lines.len());
                        lines.insert(at, crash_found(["open", "close"][self.next(2)]));
                    }
                    lines.push_back(lease_finished(*lease));
                    self.procs[*worker].queue.extend(lines);
                }
                Action::Send(..) => {}
                Action::Spawn(_) => self.procs.push(Proc {
                    queue: VecDeque::from([hello()]),
                    ..Proc::default()
                }),
                Action::Kill(worker, _) => {
                    let late = self.next(2) == 0;
                    let now = self.now;
                    let proc = &mut self.procs[*worker];
                    if !proc.closed {
                        proc.killed = true;
                        proc.eof_at = Some(proc.eof_at.map_or(now, |at| at.min(now)));
                        proc.next_at = (late && !proc.queue.is_empty()).then_some(now);
                    }
                }
                Action::Done => self.ended = Some(Ok(())),
                Action::Fail(err) => self.ended = Some(Err(err.clone())),
            }
        }
        for worker in 0..self.procs.len() {
            let proc = &self.procs[worker];
            if proc.next_at.is_none() && !proc.queue.is_empty() && !proc.stopped && !proc.killed {
                let at = self.now + self.delay();
                self.procs[worker].next_at = Some(at);
            }
        }
    }

    /// Inject one fault at the current time, if the dice say so.
    fn inject(&mut self, due_at: Option<Instant>) -> bool {
        if self.next(5) != 0 {
            return false;
        }
        let running: Vec<usize> = (0..self.procs.len())
            .filter(|&w| {
                let p = &self.procs[w];
                !p.closed && !p.stopped && !p.killed
            })
            .collect();
        let dead: Vec<usize> = (0..self.procs.len())
            .filter(|&w| !self.core.workers[w].alive)
            .collect();
        match self.next(5) {
            0 | 1 if self.faults_left > 0 && !running.is_empty() => {
                let worker = running[self.next(running.len())];
                self.faults_left -= 1;
                self.procs[worker].stopped = true;
                if self.next(2) == 0 {
                    // A crash: stdout closes, possibly after the deadline.
                    let after = self.next(2 * self.timeout.as_micros() as usize) as u64;
                    self.procs[worker].eof_at = Some(self.now + Duration::from_micros(after));
                }
                self.trace
                    .push(format!("{:?}: worker {worker} stops", self.now));
                true
            }
            2 if !running.is_empty() => {
                let worker = running[self.next(running.len())];
                let held = self.core.lease_of(worker).map(|s| self.core.slots[s].state);
                let slot = self.next(self.core.slots.len());
                let (start, end) = (self.core.slots[slot].start, self.core.slots[slot].end);
                let id = self.next(self.last_grant as usize + 2) as u64;
                if held == Some(SlotState::Granted { worker, grant: id }) {
                    return false;
                }
                self.step_inert(line(worker, lease_finished(Lease { id, start, end })));
                true
            }
            3 if !dead.is_empty() => {
                let worker = dead[self.next(dead.len())];
                let message = match self.next(3) {
                    0 => hello(),
                    1 => unit_finished(self.next(2 * self.core.slots.last().unwrap().end)),
                    _ => lease_finished(Lease {
                        id: self.next(self.last_grant as usize + 2) as u64,
                        start: self.core.slots[0].start,
                        end: self.core.slots[0].end,
                    }),
                };
                self.step_inert(line(worker, message));
                true
            }
            4 => {
                let gap = due_at.map_or(0, |at| at.saturating_duration_since(self.now).as_micros());
                if gap > 1 {
                    let early = Duration::from_micros(self.next(gap as usize) as u64);
                    self.now += early;
                }
                self.step_inert(Input::Tick);
                true
            }
            _ => false,
        }
    }

    /// Run to the end, checking the invariants after every step.
    fn run(&mut self) {
        for _ in 0..20_000 {
            if let Some(end) = &self.ended {
                match end {
                    Ok(()) if self.completions.iter().all(|&n| n == 1) => {}
                    Ok(()) => self.fail(&format!("slot completions {:?}", self.completions)),
                    Err(err)
                        if err.contains("every worker is dead")
                            && self.core.workers.iter().all(|w| !w.alive)
                            && self.core.restarts.value() == self.max_restarts as u64 => {}
                    Err(err) => self.fail(&format!("the run failed: {err}")),
                }
                return;
            }
            let due = self.due(true);
            if self.inject(due.as_ref().map(|(at, _)| *at)) {
                continue;
            }
            let (at, input) = match due {
                // A line or EOF read only after a deadline passed, as when
                // the shell's inbox is busy: the core must still expire
                // the silent worker on that input.
                Some((_, None)) if self.next(3) == 0 => self.due(false).or(due).unwrap(),
                Some(due) => due,
                None => self.fail("the run stalled: nothing is due and no worker owes a line"),
            };
            self.now = self.now.max(at);
            let input = input.unwrap_or(Input::Tick);
            if let Input::Line(worker, _) = input {
                let proc = &mut self.procs[worker];
                proc.queue.pop_front();
                proc.next_at = None;
            }
            if let Input::Eof(worker) = input {
                self.procs[worker].closed = true;
            }
            self.step(input);
        }
        self.fail("the run did not end");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn random_interleavings_keep_every_invariant(
        points in 1usize..13,
        lease_points in 1usize..5,
        workers in 1usize..4,
        max_restarts in 0usize..4,
        timeout_ms in 2u64..40,
        chaos in proptest::option::of(1usize..30),
        faults in 0usize..6,
        seed in any::<u64>(),
    ) {
        let t0 = Instant::now();
        let options = options(lease_points, ms(timeout_ms), max_restarts, chaos);
        let mut sim = Sim {
            core: core(points, workers, &options, t0),
            procs: Vec::new(),
            rng: seed,
            now: t0,
            timeout: ms(timeout_ms),
            workers,
            max_restarts,
            faults_left: faults,
            completions: vec![0; points.div_ceil(lease_points)],
            last_grant: 0,
            ended: None,
            trace: vec![format!(
                "{points} points, {lease_points} per lease, {workers} workers, \
                 {max_restarts} restarts, {timeout_ms} ms, chaos {chaos:?}, \
                 {faults} faults, seed {seed}"
            )],
        };
        for _ in 0..workers {
            let at = t0 + sim.delay();
            sim.procs.push(Proc {
                queue: VecDeque::from([hello()]),
                next_at: Some(at),
                ..Proc::default()
            });
        }
        sim.run();
    }
}
