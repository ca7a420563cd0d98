//! Tracing from outside the program: a timing decorator around any
//! [`Executor`] and an [`EventSink`] that timestamps unit events.
//!
//! Both sit at the boundary between the benchmark and the campaign crate,
//! so the traced program is the untraced one plus these calls: the
//! decorator forwards every trait method unchanged, and the recorder only
//! reads events.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use lfi_campaign::{
    CampaignEvent, EventSink, Execution, Executor, OutcomeKind, PrefetchKey, RunRecord, Session,
    Telemetry, WorkUnit,
};

/// How the engine ran one unit through the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// [`Executor::execute`]: a fresh instance.
    Fresh,
    /// [`Executor::execute_from`]: a fork of a prepared session.
    Fork,
}

/// One timed executor call that ran a unit.
#[derive(Debug, Clone)]
pub struct ExecCall {
    pub target: String,
    pub path: ExecPath,
    pub hung: bool,
    pub micros: f64,
}

/// An [`Executor`] that forwards every method to `inner` and times the
/// calls that do work: `prepare`, `prefetch_batch`, `execute` and
/// `execute_from`.
pub struct TimedExecutor<'a> {
    inner: &'a dyn Executor,
    calls: Mutex<Vec<ExecCall>>,
    prepare_micros: AtomicU64,
    prepare_calls: AtomicU64,
    prefetch_micros: AtomicU64,
}

impl<'a> TimedExecutor<'a> {
    pub fn new(inner: &'a dyn Executor) -> TimedExecutor<'a> {
        TimedExecutor {
            inner,
            calls: Mutex::new(Vec::new()),
            prepare_micros: AtomicU64::new(0),
            prepare_calls: AtomicU64::new(0),
            prefetch_micros: AtomicU64::new(0),
        }
    }

    /// Every unit-running call so far, in completion order.
    pub fn calls(&self) -> Vec<ExecCall> {
        self.calls.lock().expect("call log poisoned").clone()
    }

    /// Total milliseconds spent in `prepare`, and the number of calls.
    pub fn prepare_totals(&self) -> (f64, u64) {
        (
            self.prepare_micros.load(Ordering::Relaxed) as f64 / 1e3,
            self.prepare_calls.load(Ordering::Relaxed),
        )
    }

    /// Total milliseconds spent in `prefetch_batch`.
    pub fn prefetch_ms(&self) -> f64 {
        self.prefetch_micros.load(Ordering::Relaxed) as f64 / 1e3
    }

    fn log(&self, unit: &WorkUnit, path: ExecPath, started: Instant, execution: &Execution) {
        let micros = started.elapsed().as_secs_f64() * 1e6;
        self.calls
            .lock()
            .expect("call log poisoned")
            .push(ExecCall {
                target: unit.point.target.clone(),
                path,
                hung: execution.outcome == OutcomeKind::Hung,
                micros,
            });
    }
}

fn micros_since(started: Instant) -> u64 {
    started.elapsed().as_micros() as u64
}

impl Executor for TimedExecutor<'_> {
    fn workloads(&self, target: &str) -> Vec<Vec<String>> {
        self.inner.workloads(target)
    }

    fn prepare(&self, target: &str, args: &[String]) -> Option<Session> {
        let started = Instant::now();
        let session = self.inner.prepare(target, args);
        self.prepare_micros
            .fetch_add(micros_since(started), Ordering::Relaxed);
        self.prepare_calls.fetch_add(1, Ordering::Relaxed);
        session
    }

    fn execute_from(&self, session: &Session, unit: &WorkUnit) -> Execution {
        let started = Instant::now();
        let execution = self.inner.execute_from(session, unit);
        self.log(unit, ExecPath::Fork, started, &execution);
        execution
    }

    fn prefetch_batch(&self, units: &[PrefetchKey], jobs: usize) {
        let started = Instant::now();
        self.inner.prefetch_batch(units, jobs);
        self.prefetch_micros
            .fetch_add(micros_since(started), Ordering::Relaxed);
    }

    fn first_call_depth(&self, target: &str, args: &[String], function: &str) -> Option<usize> {
        self.inner.first_call_depth(target, args, function)
    }

    fn set_snapshot_budget(&self, bytes: u64) {
        self.inner.set_snapshot_budget(bytes)
    }

    fn snapshot_bytes(&self) -> u64 {
        self.inner.snapshot_bytes()
    }

    fn telemetry(&self) -> Telemetry {
        self.inner.telemetry()
    }

    fn execute(&self, unit: &WorkUnit) -> Execution {
        let started = Instant::now();
        let execution = self.inner.execute(unit);
        self.log(unit, ExecPath::Fresh, started, &execution);
        execution
    }
}

/// One unit as the event stream saw it.
#[derive(Debug, Clone)]
pub struct UnitSpan {
    pub started: Instant,
    pub finished: Instant,
    pub record: RunRecord,
}

/// An [`EventSink`] that timestamps `UnitStarted` / `UnitFinished` pairs.
#[derive(Default)]
pub struct Recorder {
    open: Mutex<HashMap<usize, Instant>>,
    spans: Mutex<Vec<UnitSpan>>,
}

impl Recorder {
    /// Completed units, ordered by finish time.
    pub fn spans(&self) -> Vec<UnitSpan> {
        let mut spans = self.spans.lock().expect("span log poisoned").clone();
        spans.sort_by_key(|span| span.finished);
        spans
    }
}

impl EventSink for Recorder {
    fn event(&self, event: &CampaignEvent) {
        let now = Instant::now();
        match event {
            CampaignEvent::UnitStarted { unit, .. } => {
                self.open
                    .lock()
                    .expect("open-unit map poisoned")
                    .insert(*unit, now);
            }
            CampaignEvent::UnitFinished { record, .. } => {
                let started = self
                    .open
                    .lock()
                    .expect("open-unit map poisoned")
                    .remove(&record.unit)
                    .unwrap_or(now);
                self.spans
                    .lock()
                    .expect("span log poisoned")
                    .push(UnitSpan {
                        started,
                        finished: now,
                        record: record.clone(),
                    });
            }
            _ => {}
        }
    }
}
