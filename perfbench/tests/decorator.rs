//! The timing decorator must be transparent: it forwards every `Executor`
//! method, and a sweep run through it produces byte-identical records, so
//! the traced run measures the same program as the untraced one.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use lfi_campaign::space::FaultPoint;
use lfi_campaign::{
    CampaignState, Execution, Executor, OutcomeKind, PrefetchKey, Session, Telemetry, WorkUnit,
};
use lfi_perfbench::trace::{ExecPath, TimedExecutor};
use lfi_perfbench::workloads::{CampaignOptions, Sweep};

/// An executor whose every method leaves a trace and returns a value no
/// default implementation would.
struct Probe {
    calls: Mutex<Vec<&'static str>>,
    budget: AtomicU64,
    telemetry: Telemetry,
}

impl Probe {
    fn new() -> Probe {
        Probe {
            calls: Mutex::new(Vec::new()),
            budget: AtomicU64::new(0),
            telemetry: Telemetry::new(),
        }
    }

    fn saw(&self, method: &'static str) {
        self.calls.lock().unwrap().push(method);
    }
}

fn execution(virtual_time: u64) -> Execution {
    Execution {
        outcome: OutcomeKind::Hung,
        injections: 3,
        injected_sites: Vec::new(),
        crashes: Vec::new(),
        virtual_time,
    }
}

impl Executor for Probe {
    fn workloads(&self, _target: &str) -> Vec<Vec<String>> {
        self.saw("workloads");
        vec![vec!["probe".to_string()]]
    }

    fn prepare(&self, _target: &str, _args: &[String]) -> Option<Session> {
        self.saw("prepare");
        Some(Session::new(41u32))
    }

    fn execute_from(&self, session: &Session, _unit: &WorkUnit) -> Execution {
        self.saw("execute_from");
        execution(u64::from(*session.downcast_ref::<u32>().unwrap()))
    }

    fn prefetch_batch(&self, units: &[PrefetchKey], jobs: usize) {
        assert_eq!((units.len(), jobs), (1, 2));
        self.saw("prefetch_batch");
    }

    fn first_call_depth(&self, _target: &str, _args: &[String], _function: &str) -> Option<usize> {
        self.saw("first_call_depth");
        Some(5)
    }

    fn set_snapshot_budget(&self, bytes: u64) {
        self.saw("set_snapshot_budget");
        self.budget.store(bytes, Ordering::Relaxed);
    }

    fn snapshot_bytes(&self) -> u64 {
        self.saw("snapshot_bytes");
        777
    }

    fn telemetry(&self) -> Telemetry {
        self.saw("telemetry");
        self.telemetry.clone()
    }

    fn execute(&self, _unit: &WorkUnit) -> Execution {
        self.saw("execute");
        execution(9)
    }
}

#[test]
fn every_executor_method_is_forwarded() {
    let probe = Probe::new();
    let timed = TimedExecutor::new(&probe);
    let point = FaultPoint {
        target: "probe".into(),
        function: "read".into(),
        retval: -1,
        ..FaultPoint::default()
    };
    let unit = WorkUnit {
        id: 0,
        scenario: point.scenario(),
        point,
        args: Vec::new(),
        seed: 1,
    };
    let args = vec!["probe".to_string()];
    let key = PrefetchKey {
        target: "probe".into(),
        args: args.clone(),
        function: "read".into(),
    };

    assert_eq!(timed.workloads("probe"), vec![args.clone()]);
    let session = timed.prepare("probe", &args).expect("forwarded session");
    assert_eq!(timed.execute_from(&session, &unit), execution(41));
    timed.prefetch_batch(std::slice::from_ref(&key), 2);
    assert_eq!(timed.first_call_depth("probe", &args, "read"), Some(5));
    timed.set_snapshot_budget(1234);
    assert_eq!(probe.budget.load(Ordering::Relaxed), 1234);
    assert_eq!(timed.snapshot_bytes(), 777);
    timed.telemetry().counter("probe_counter").inc();
    assert_eq!(probe.telemetry.snapshot().counter("probe_counter"), 1);
    assert_eq!(timed.execute(&unit), execution(9));

    assert_eq!(
        *probe.calls.lock().unwrap(),
        vec![
            "workloads",
            "prepare",
            "execute_from",
            "prefetch_batch",
            "first_call_depth",
            "set_snapshot_budget",
            "snapshot_bytes",
            "telemetry",
            "execute",
        ]
    );
    let paths: Vec<ExecPath> = timed.calls().iter().map(|call| call.path).collect();
    assert_eq!(paths, vec![ExecPath::Fork, ExecPath::Fresh]);
    assert!(timed.calls().iter().all(|call| call.hung));
    assert_eq!(timed.prepare_totals().1, 1);
}

fn records_bytes(records: &[lfi_campaign::RunRecord]) -> String {
    let mut state = CampaignState::default();
    for record in records {
        state.push(record.clone());
    }
    state.to_json()
}

#[test]
fn sweep_records_are_byte_identical_through_the_decorator() {
    let sweep = Sweep::new(7);
    for index in 0..2 {
        let plain = sweep.run(index, CampaignOptions::UNTRACED);
        let traced = sweep.run(index, CampaignOptions::TRACED);
        assert_eq!(plain.report.records.len(), sweep.units);
        assert_eq!(
            records_bytes(&plain.report.records),
            records_bytes(&traced.report.records)
        );
        let trace = traced.trace.expect("traced campaign records a trace");
        assert_eq!(trace.spans.len(), sweep.units);
        assert_eq!(trace.calls.len(), sweep.units);
    }
}
