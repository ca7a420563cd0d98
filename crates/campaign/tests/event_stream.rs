//! Event-stream guarantees on a real parallel campaign: a git-lite run at
//! `jobs > 1` streamed through a [`JsonlSink`], with the documented
//! ordering invariants checked against the decoded line sequence —
//! interleaving across workers is allowed, but the per-unit and per-batch
//! ordering (and `ShardFinished` last) must survive the worker pool.

use std::collections::BTreeMap;
use std::time::Duration;

use lfi_campaign::{
    Campaign, CampaignEvent, EventLog, ExecBackend, JsonlSink, StandardExecutor, Telemetry,
};
use lfi_targets::standard_controller;

fn git_space(executor: &StandardExecutor) -> lfi_campaign::FaultSpace {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["git-lite"], &profile);
    space.retain(|p| matches!(p.function.as_str(), "opendir" | "setenv" | "readlink"));
    space
}

#[test]
fn parallel_run_streams_ordered_decodable_events() {
    let dir = std::env::temp_dir().join(format!("lfi-events-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");

    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    let sink = JsonlSink::create(&path).unwrap();
    let report = Campaign::builder(space, &executor)
        .jobs(4)
        .seed(7)
        .backend(ExecBackend::Snapshot)
        // A zero interval forces heartbeats between units, so the stream
        // exercises the asynchronous telemetry events too.
        .heartbeat(Some(Duration::ZERO))
        .events(&sink)
        .build()
        .run_to_completion()
        .report;
    assert!(sink.take_error().is_none());
    drop(sink);

    // Every line decodes; the stream is the wire format, not a log.
    let text = std::fs::read_to_string(&path).unwrap();
    let events: Vec<CampaignEvent> = text
        .lines()
        .map(|line| {
            CampaignEvent::from_json_line(line)
                .unwrap_or_else(|err| panic!("undecodable line {line}: {}", err.message))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();

    // ShardFinished is the last event, exactly once.
    assert!(
        matches!(events.last(), Some(CampaignEvent::ShardFinished { .. })),
        "stream must end with shard_finished"
    );
    let finishes = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::ShardFinished { .. }))
        .count();
    assert_eq!(finishes, 1);

    // Per-unit ordering: every unit's Started precedes its Finished, and
    // both appear after the first BatchPlanned.
    let mut started_at: BTreeMap<usize, usize> = BTreeMap::new();
    let mut finished_at: BTreeMap<usize, usize> = BTreeMap::new();
    let mut first_batch = None;
    for (position, event) in events.iter().enumerate() {
        match event {
            CampaignEvent::BatchPlanned { .. } => {
                first_batch.get_or_insert(position);
            }
            CampaignEvent::UnitStarted { unit, .. } => {
                assert!(started_at.insert(*unit, position).is_none());
            }
            CampaignEvent::UnitFinished {
                record,
                duration_micros,
            } => {
                assert!(finished_at.insert(record.unit, position).is_none());
                // Wall-clock unit durations come from a monotonic clock;
                // a real git-lite run cannot take zero microseconds.
                assert!(*duration_micros > 0, "unit {} took 0us", record.unit);
            }
            _ => {}
        }
    }
    assert_eq!(started_at.len(), report.executed_now);
    assert_eq!(finished_at.len(), report.executed_now);
    let planned = first_batch.expect("a batch was planned");
    for (unit, start) in &started_at {
        let finish = finished_at[unit];
        assert!(planned < *start, "unit {unit} started before any batch");
        assert!(*start < finish, "unit {unit} finished before it started");
    }

    // With a zero heartbeat interval and jobs > 1, heartbeats flowed, and
    // each carried a metrics capture from the instrumented executor.
    let heartbeats: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            CampaignEvent::Heartbeat {
                units_done,
                metrics,
                ..
            } => Some((*units_done, metrics)),
            _ => None,
        })
        .collect();
    assert!(!heartbeats.is_empty(), "zero interval must emit heartbeats");
    assert!(
        heartbeats
            .iter()
            .any(|(_, metrics)| metrics.counter("units_executed") > 0),
        "heartbeat metrics must carry driver counters"
    );
    // units_done is monotonic across the stream.
    let mut last_done = 0;
    for (done, _) in &heartbeats {
        assert!(*done >= last_done, "heartbeat progress went backwards");
        last_done = *done;
    }

    // The executor's registry fed the report too: forks were counted and
    // the crash signatures the report triaged were announced as events.
    let metrics = report.metrics.expect("default executor telemetry is on");
    assert!(metrics.counter("tree_fork_hits") + metrics.counter("tree_fork_misses") > 0);
    let announced = events
        .iter()
        .filter(|e| matches!(e, CampaignEvent::CrashFound(_)))
        .count();
    assert_eq!(announced, report.triage.distinct_crashes());
}

/// A run that ends within one heartbeat interval still reports its
/// progress once: the last event before `ShardFinished` is a heartbeat
/// counting every unit the run executed, with the executor's metrics (the
/// analysis counters `campaign_status` derives its prune rate from).
#[test]
fn a_run_shorter_than_one_interval_ends_with_a_heartbeat() {
    let executor = StandardExecutor::new(&["git-lite"]);
    let space = git_space(&executor);
    let log = EventLog::new();
    let report = Campaign::builder(space, &executor)
        .jobs(2)
        .seed(7)
        .heartbeat(Some(Duration::from_secs(3600)))
        .events(&log)
        .build()
        .run_to_completion()
        .report;
    let events = log.events();
    assert_eq!(
        log.count(|e| matches!(e, CampaignEvent::Heartbeat { .. })),
        1,
        "an hour-long interval leaves only the run's last heartbeat"
    );
    let [.., last_heartbeat, CampaignEvent::ShardFinished { .. }] = events.as_slice() else {
        panic!("the stream must end with shard_finished");
    };
    let CampaignEvent::Heartbeat {
        units_done,
        units_planned,
        milli_units_per_sec,
        metrics,
        ..
    } = last_heartbeat
    else {
        panic!("the last heartbeat must directly precede shard_finished");
    };
    assert!(report.executed_now > 0);
    assert_eq!(*units_done, report.executed_now);
    assert_eq!(*units_planned, report.units_total);
    assert!(*milli_units_per_sec > 0);
    assert_eq!(
        metrics.counter("units_executed"),
        report.executed_now as u64
    );
    assert!(metrics.counter("analysis_sites_total") > 0);

    // Without heartbeats the run ends with no heartbeat at all.
    let log = EventLog::new();
    Campaign::builder(git_space(&executor), &executor)
        .seed(7)
        .heartbeat(None)
        .events(&log)
        .build()
        .run_to_completion();
    assert_eq!(
        log.count(|e| matches!(e, CampaignEvent::Heartbeat { .. })),
        0
    );
}

/// Telemetry only observes: switching it off drops the report's metrics
/// and leaves every record unchanged, on both backends.
#[test]
fn disabled_telemetry_omits_report_metrics() {
    for backend in [ExecBackend::Fresh, ExecBackend::Snapshot] {
        let run = |telemetry: Telemetry| {
            let mut executor = StandardExecutor::new(&["git-lite"]);
            executor.set_telemetry(telemetry);
            let space = git_space(&executor);
            let campaign = Campaign::builder(space, &executor)
                .jobs(2)
                .seed(7)
                .backend(backend)
                .build();
            campaign.run_to_completion().report
        };
        let report = run(Telemetry::disabled());
        assert!(report.metrics.is_none());
        assert!(report.triage.crashes > 0, "run still finds the crash");

        let with_telemetry = run(Telemetry::new());
        assert!(with_telemetry.metrics.is_some());
        assert_eq!(report.records, with_telemetry.records, "{backend}");
    }
}
