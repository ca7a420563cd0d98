//! Campaign throughput benchmark and backend-parity check, emitted as a
//! JSON artifact (`BENCH_campaign.json` in CI).
//!
//! Two sections:
//!
//! * **throughput** — the `campaign_throughput` workload (the git-lite
//!   fault-space sweep) drained at `--jobs` workers under the fresh-VM and
//!   snapshot-fork backends, reporting units/sec per lane and the snapshot
//!   speedup. This is the lane comparison the snapshot backend is sized
//!   by: the sweep is all single-process targets, so every unit forks.
//! * **depth** — units/sec as a function of *injection depth*: git-lite's
//!   functions are bucketed by the injectable-call index of their first
//!   call (measured from the workloads' call traces), and each bucket is
//!   swept under the flat single-snapshot session model
//!   (`max_session_depth = 1`, the pre-tree behavior) and the snapshot
//!   *tree* (deepening enabled). The deeper the bucket, the more prefix
//!   the tree amortizes; the lanes quantify it, reporting the best of
//!   three steady-state sweeps on warm sessions (preparation costs the
//!   two models identically and would only dilute the ratio).
//! * **table1** — the full Table 1 hunt under both backends: identical run
//!   records and crash signatures, and all 11 known bugs found by each.
//!   (The hunt's wall clock is dominated by bft-lite cluster runs, which
//!   cannot snapshot and always run fresh.)
//! * **telemetry** — the snapshot sweep with metrics collection on (the
//!   default registry) vs off (a no-op registry installed with
//!   [`StandardExecutor::set_telemetry`]), best of two runs each,
//!   reporting the collection overhead in percent.
//! * **supervisor** — the throughput sweep run through the distributed
//!   control plane: two supervised `campaign_worker` processes at
//!   `--jobs` each vs one in-process campaign at `2 × --jobs` (same
//!   total parallelism), identical records required. The ratio is the
//!   cost of supervision itself — process spawn, JSONL transport, lease
//!   checkpoints, merge. Skipped with a warning when the
//!   `campaign_worker` binary is not built next to `campaign_bench`.
//!
//! Instrumented lanes also report the snapshot-tree cache hit rate and
//! the per-phase time split (session prepare, tree fork/deepen/prefetch,
//! unit execute, triage, checkpoint writes) from the campaign's
//! [`lfi_campaign::MetricsSnapshot`]; the sweep lane's full snapshot is
//! written to `--metrics-out` as a second artifact.
//!
//! Exits non-zero if the backends disagree anywhere or a lane misses a
//! known bug.
//!
//! Usage: campaign_bench [--jobs N] [--out FILE] [--metrics-out FILE]

use std::collections::BTreeMap;
use std::process::exit;
use std::time::Instant;

use lfi_bench::{match_known_bugs, table1_fault_space};
use lfi_campaign::{
    default_test_suite, Campaign, CampaignReport, ExecBackend, FaultSpace, MetricsSnapshot,
    StandardExecutor, Telemetry,
};
use lfi_core::TestConfig;
use lfi_json::Value;
use lfi_supervisor::{
    run_supervised, sibling_worker_bin, SpaceSpec, SupervisorOptions, TABLE1_TARGETS,
};
use lfi_targets::{git_lite, standard_controller, FsSetupWorkload, KNOWN_BUGS};

fn usage() -> ! {
    eprintln!("usage: campaign_bench [--jobs N] [--out FILE] [--metrics-out FILE]");
    exit(2);
}

struct Lane {
    backend: ExecBackend,
    seconds: f64,
    report: CampaignReport,
}

/// Run one space exhaustively under `backend` on a fresh executor (own
/// session cache, so lanes cannot profit from each other).
fn run_lane(
    make_executor: &dyn Fn() -> StandardExecutor,
    space: &FaultSpace,
    jobs: usize,
    backend: ExecBackend,
) -> Lane {
    let executor = make_executor();
    let driver = Campaign::builder(space.clone(), &executor)
        .jobs(jobs)
        .seed(7)
        .backend(backend)
        .build();
    let start = Instant::now();
    let report = driver.run_to_completion().report;
    Lane {
        backend,
        seconds: start.elapsed().as_secs_f64(),
        report,
    }
}

/// The snapshot-tree cache hit rate of an instrumented lane, as a
/// fraction string, or `Null` when the lane recorded no forks (fresh
/// backend, or telemetry off).
fn cache_hit_rate_json(metrics: Option<&MetricsSnapshot>) -> Value {
    let Some(metrics) = metrics else {
        return Value::Null;
    };
    let hits = metrics.counter("tree_fork_hits");
    let total = hits + metrics.counter("tree_fork_misses");
    if total == 0 {
        return Value::Null;
    }
    Value::Str(format!("{:.3}", hits as f64 / total as f64))
}

/// Total microseconds spent per instrumented phase (histogram sums).
fn phase_micros_json(metrics: &MetricsSnapshot) -> Value {
    let sum = |name: &str| Value::Int(metrics.histogram(name).map(|h| h.sum).unwrap_or(0) as i64);
    Value::Obj(vec![
        ("session_prepare".to_string(), sum("session_prepare_micros")),
        ("tree_fork".to_string(), sum("tree_fork_micros")),
        ("tree_deepen".to_string(), sum("tree_deepen_micros")),
        ("tree_prefetch".to_string(), sum("tree_prefetch_micros")),
        ("unit_execute".to_string(), sum("unit_execute_micros")),
        ("triage".to_string(), sum("triage_micros")),
        (
            "checkpoint_write".to_string(),
            sum("checkpoint_write_micros"),
        ),
    ])
}

fn lane_json(section: &str, jobs: usize, lane: &Lane) -> Value {
    let mut fields = vec![
        ("section".to_string(), Value::Str(section.to_string())),
        ("backend".to_string(), Value::Str(lane.backend.to_string())),
        ("jobs".to_string(), Value::Int(jobs as i64)),
        (
            "units".to_string(),
            Value::Int(lane.report.executed_now as i64),
        ),
        (
            "seconds".to_string(),
            Value::Str(format!("{:.3}", lane.seconds)),
        ),
        (
            "units_per_sec".to_string(),
            Value::Str(format!(
                "{:.1}",
                lane.report.executed_now as f64 / lane.seconds
            )),
        ),
        (
            "distinct_crash_signatures".to_string(),
            Value::Int(lane.report.triage.distinct_crashes() as i64),
        ),
        (
            "cache_hit_rate".to_string(),
            cache_hit_rate_json(lane.report.metrics.as_ref()),
        ),
    ];
    if let Some(metrics) = &lane.report.metrics {
        fields.push(("phase_micros".to_string(), phase_micros_json(metrics)));
    }
    Value::Obj(fields)
}

fn print_lane(section: &str, jobs: usize, lane: &Lane) {
    println!(
        "{section:<11} {:<9} jobs={jobs} units={} time={:.3}s throughput={:.1} units/sec",
        lane.backend,
        lane.report.executed_now,
        lane.seconds,
        lane.report.executed_now as f64 / lane.seconds,
    );
}

/// The minimum injectable-call depth of each library function's first call
/// across the git-lite suite, measured from full per-workload call traces.
/// Functions never called by the suite are absent.
fn git_min_depths() -> BTreeMap<String, usize> {
    let controller = standard_controller();
    let functions = controller.profile_libraries().failing_functions();
    let image = controller
        .build_image(&git_lite(), &functions)
        .expect("git-lite loads");
    let mut min_depth = BTreeMap::new();
    for args in default_test_suite("git-lite") {
        let config = TestConfig {
            args,
            ..TestConfig::default()
        };
        let prep = controller.trace_session_calls(
            image.clone(),
            &functions,
            &mut FsSetupWorkload,
            &config,
        );
        for (index, function) in prep.forwarded.iter().enumerate() {
            let depth = min_depth.entry(function.clone()).or_insert(usize::MAX);
            *depth = (*depth).min(index + 1);
        }
    }
    min_depth
}

fn main() {
    let mut jobs = 4usize;
    let mut out = "BENCH_campaign.json".to_string();
    let mut metrics_out = "BENCH_campaign_metrics.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--metrics-out" => metrics_out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let mut failures: Vec<String> = Vec::new();

    // Throughput section: the campaign_throughput sweep (git-lite).
    let make_git = || StandardExecutor::new(&["git-lite"]);
    let git_space = {
        let executor = make_git();
        let profile = standard_controller().profile_libraries();
        let mut space = executor.fault_space(&["git-lite"], &profile);
        executor.annotate_baseline_reachability(&mut space, 7);
        space
    };
    let sweep_fresh = run_lane(&make_git, &git_space, jobs, ExecBackend::Fresh);
    let sweep_snapshot = run_lane(&make_git, &git_space, jobs, ExecBackend::Snapshot);
    let speedup = sweep_fresh.seconds / sweep_snapshot.seconds.max(f64::EPSILON);
    if sweep_fresh.report.records != sweep_snapshot.report.records {
        failures.push("throughput lanes produced different records".to_string());
    }
    // Snapshot-tree invariant: prefetch walks hold their tree's lock, so no
    // deepening run is ever thrown away, at any worker count. A nonzero
    // discard counter is a regression in the walk, not noise.
    let tree_counter = |name: &str| {
        sweep_snapshot
            .report
            .metrics
            .as_ref()
            .map(|metrics| metrics.counter(name))
            .unwrap_or(0)
    };
    let deepen_discarded = tree_counter("tree_deepen_discarded");
    let prefetch_nodes = tree_counter("tree_prefetch_nodes");
    if deepen_discarded != 0 {
        failures.push(format!(
            "sweep discarded {deepen_discarded} deepening runs (serialized walks must make this 0)"
        ));
    }

    // Telemetry section: the same snapshot sweep with collection on (the
    // executor's default registry) vs off (a no-op registry). Best of two
    // runs per lane to dampen scheduler noise; the delta is the cost of
    // the instrumentation itself.
    let make_git_quiet = || {
        let mut executor = StandardExecutor::new(&["git-lite"]);
        executor.set_telemetry(Telemetry::disabled());
        executor
    };
    let best_of_two = |make: &dyn Fn() -> StandardExecutor| {
        let first = run_lane(make, &git_space, jobs, ExecBackend::Snapshot);
        let second = run_lane(make, &git_space, jobs, ExecBackend::Snapshot);
        if first.seconds <= second.seconds {
            first
        } else {
            second
        }
    };
    let telemetry_on = best_of_two(&make_git);
    let telemetry_off = best_of_two(&make_git_quiet);
    if telemetry_on.report.records != telemetry_off.report.records {
        failures.push("telemetry lanes produced different records".to_string());
    }
    let telemetry_overhead_pct = (telemetry_on.seconds - telemetry_off.seconds)
        / telemetry_off.seconds.max(f64::EPSILON)
        * 100.0;

    // Depth section: flat-session vs snapshot-tree throughput per
    // injection-depth bucket of the git-lite space.
    let make_flat = || {
        let mut executor = StandardExecutor::new(&["git-lite"]);
        executor.set_max_session_depth(1);
        executor
    };
    let depths = git_min_depths();
    let bucket_functions = |lo: usize, hi: usize| -> Vec<String> {
        depths
            .iter()
            .filter(|(_, depth)| (lo..=hi).contains(depth))
            .map(|(function, _)| function.clone())
            .collect()
    };
    let buckets = [
        ("depth 1", bucket_functions(1, 1)),
        ("depth 2-3", bucket_functions(2, 3)),
        ("depth 4+", bucket_functions(4, usize::MAX)),
    ];
    let mut depth_lanes = Vec::new();
    let mut depth_speedups: Vec<(String, f64)> = Vec::new();
    for (label, functions) in &buckets {
        if functions.is_empty() {
            eprintln!("warning: no git-lite functions in bucket {label}; lane skipped");
            continue;
        }
        let mut space = git_space.clone();
        space.retain(|p| functions.contains(&p.function));
        // The lanes quantify fork-vs-replay, not one-time session
        // preparation (identical under both models), and each bucket
        // drains in tens of milliseconds where scheduler noise dominates a
        // single run. So each lane keeps one executor, runs the sweep once
        // untimed to prepare sessions (and, under the tree model, deepen),
        // then reports the best of three steady-state sweeps — every run
        // still re-executes all units and re-verifies record parity.
        let steady_lane = |make: &dyn Fn() -> StandardExecutor| {
            let executor = make();
            let sweep = || {
                let driver = Campaign::builder(space.clone(), &executor)
                    .jobs(jobs)
                    .seed(7)
                    .backend(ExecBackend::Snapshot)
                    .build();
                let start = Instant::now();
                let report = driver.run_to_completion().report;
                Lane {
                    backend: ExecBackend::Snapshot,
                    seconds: start.elapsed().as_secs_f64(),
                    report,
                }
            };
            let warmup = sweep();
            let best = (0..3)
                .map(|_| sweep())
                .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
                .expect("three runs");
            assert_eq!(
                warmup.report.records, best.report.records,
                "warm sessions must not change records"
            );
            best
        };
        let flat = steady_lane(&make_flat);
        let tree = steady_lane(&make_git);
        if flat.report.records != tree.report.records {
            failures.push(format!(
                "{label} lanes produced different records (flat vs tree sessions)"
            ));
        }
        depth_speedups.push((
            label.to_string(),
            flat.seconds / tree.seconds.max(f64::EPSILON),
        ));
        depth_lanes.push((format!("{label} flat"), flat));
        depth_lanes.push((format!("{label} tree"), tree));
    }

    // Table 1 section: the full hunt, both backends.
    let make_hunt = || StandardExecutor::new(&TABLE1_TARGETS);
    let hunt_space = table1_fault_space(&make_hunt(), 7);
    let hunt_fresh = run_lane(&make_hunt, &hunt_space, jobs, ExecBackend::Fresh);
    let hunt_snapshot = run_lane(&make_hunt, &hunt_space, jobs, ExecBackend::Snapshot);
    if hunt_fresh.report.records != hunt_snapshot.report.records {
        failures.push("table1 lanes produced different run records".to_string());
    }
    if hunt_fresh.report.triage.buckets != hunt_snapshot.report.triage.buckets {
        failures.push("table1 lanes produced different crash signatures".to_string());
    }
    let mut bugs_found = Vec::new();
    for lane in [&hunt_fresh, &hunt_snapshot] {
        let table = match_known_bugs(&lane.report);
        if table.found.len() != KNOWN_BUGS.len() {
            failures.push(format!(
                "table1 {} lane found {}/{} known bugs (missed: {:?})",
                lane.backend,
                table.found.len(),
                KNOWN_BUGS.len(),
                table.missed
            ));
        }
        bugs_found.push((lane.backend.to_string(), table.found.len()));
    }

    // Supervisor section: the distributed control plane vs one big
    // in-process campaign over the same git-lite sweep. Two workers at
    // `jobs` each against one process at `2 * jobs` — equal total
    // parallelism, so the lane ratio isolates the supervision overhead.
    let mut supervisor_lanes: Vec<(String, Lane)> = Vec::new();
    let mut supervisor_speedup: Option<f64> = None;
    if let Some(worker_bin) = sibling_worker_bin() {
        let single = run_lane(&make_git, &git_space, 2 * jobs, ExecBackend::Fresh);
        let state_dir =
            std::env::temp_dir().join(format!("lfi_bench_supervisor_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&state_dir);
        // No retain: this must be the exact plan `git_space` enumerates,
        // or the record-parity check below is vacuous.
        let spec = SpaceSpec {
            targets: vec!["git-lite".to_string()],
            retain: Vec::new(),
            baseline_seed: 7,
        };
        let mut options = SupervisorOptions::new(spec, &state_dir);
        options.workers = 2;
        options.jobs = jobs;
        options.seed = 7;
        options.worker_bin = worker_bin;
        let start = Instant::now();
        match run_supervised(&options) {
            Err(err) => failures.push(format!("supervised sweep failed: {err}")),
            Ok(outcome) => {
                let seconds = start.elapsed().as_secs_f64();
                if outcome.report.records != single.report.records {
                    failures.push(
                        "supervised sweep produced different records than the single process"
                            .to_string(),
                    );
                }
                // The merge reconstructs the report from checkpoints, so
                // `executed_now` is not meaningful there; for lane
                // throughput every record was executed this run.
                let mut report = outcome.report;
                report.executed_now = report.records.len();
                let supervised = Lane {
                    backend: ExecBackend::Fresh,
                    seconds,
                    report,
                };
                supervisor_speedup = Some(single.seconds / supervised.seconds.max(f64::EPSILON));
                supervisor_lanes.push(("supervised".to_string(), supervised));
                supervisor_lanes.push(("single-proc".to_string(), single));
            }
        }
        let _ = std::fs::remove_dir_all(&state_dir);
    } else {
        eprintln!(
            "warning: campaign_worker binary not found next to campaign_bench; \
             supervisor lane skipped"
        );
    }

    let mut lanes = vec![
        lane_json("throughput", jobs, &sweep_fresh),
        lane_json("throughput", jobs, &sweep_snapshot),
    ];
    for (label, lane) in &depth_lanes {
        lanes.push(lane_json(label, jobs, lane));
    }
    lanes.push(lane_json("telemetry on", jobs, &telemetry_on));
    lanes.push(lane_json("telemetry off", jobs, &telemetry_off));
    lanes.push(lane_json("table1", jobs, &hunt_fresh));
    lanes.push(lane_json("table1", jobs, &hunt_snapshot));
    for (label, lane) in &supervisor_lanes {
        lanes.push(lane_json(label, 2 * jobs, lane));
    }
    let doc = Value::Obj(vec![
        (
            "benchmark".to_string(),
            Value::Str("campaign_throughput".to_string()),
        ),
        ("lanes".to_string(), Value::Arr(lanes)),
        (
            "snapshot_speedup".to_string(),
            Value::Str(format!("{speedup:.2}")),
        ),
        (
            "supervisor_speedup".to_string(),
            supervisor_speedup
                .map(|ratio| Value::Str(format!("{ratio:.2}")))
                .unwrap_or(Value::Null),
        ),
        (
            "telemetry_overhead_pct".to_string(),
            Value::Str(format!("{telemetry_overhead_pct:.1}")),
        ),
        (
            "tree_speedup_by_depth".to_string(),
            Value::Obj(
                depth_speedups
                    .iter()
                    .map(|(label, speedup)| (label.clone(), Value::Str(format!("{speedup:.2}"))))
                    .collect(),
            ),
        ),
        (
            "known_bugs".to_string(),
            Value::Obj(
                bugs_found
                    .iter()
                    .map(|(name, found)| (name.to_string(), Value::Int(*found as i64)))
                    .collect(),
            ),
        ),
        (
            "tree_deepen".to_string(),
            Value::Obj(vec![
                ("discarded".to_string(), Value::Int(deepen_discarded as i64)),
                (
                    "prefetched_nodes".to_string(),
                    Value::Int(prefetch_nodes as i64),
                ),
            ]),
        ),
        ("parity".to_string(), Value::Bool(failures.is_empty())),
    ]);
    std::fs::write(&out, doc.to_pretty()).expect("write benchmark artifact");
    // Full metrics capture of the instrumented sweep lane, as its own
    // artifact (CI uploads it next to the lane summary).
    let metrics_doc = telemetry_on
        .report
        .metrics
        .as_ref()
        .map(|metrics| metrics.to_value().to_pretty())
        .unwrap_or_else(|| "{}".to_string());
    std::fs::write(&metrics_out, metrics_doc).expect("write metrics artifact");

    print_lane("throughput", jobs, &sweep_fresh);
    print_lane("throughput", jobs, &sweep_snapshot);
    for (label, lane) in &depth_lanes {
        print_lane(label, jobs, lane);
    }
    for (label, tree_speedup) in &depth_speedups {
        println!("tree speedup over flat sessions at {label}: {tree_speedup:.2}x");
    }
    print_lane("table1", jobs, &hunt_fresh);
    print_lane("table1", jobs, &hunt_snapshot);
    for (name, found) in &bugs_found {
        println!(
            "table1 {name} backend: {found}/{} known bugs",
            KNOWN_BUGS.len()
        );
    }
    print_lane("telemetry on", jobs, &telemetry_on);
    print_lane("telemetry off", jobs, &telemetry_off);
    for (label, lane) in &supervisor_lanes {
        print_lane(label, 2 * jobs, lane);
    }
    if let Some(ratio) = supervisor_speedup {
        println!(
            "supervised (2 workers x {jobs} jobs) vs single process ({} jobs): {ratio:.2}x",
            2 * jobs
        );
    }
    println!("telemetry collection overhead: {telemetry_overhead_pct:.1}% (budget: 5%)");
    println!("snapshot speedup (throughput sweep): {speedup:.2}x (artifact: {out})");
    println!("tree deepen: discarded={deepen_discarded} prefetched_nodes={prefetch_nodes}");
    println!("metrics snapshot artifact: {metrics_out}");

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        exit(1);
    }
    println!("parity: identical records and crash signatures across backends");
}
