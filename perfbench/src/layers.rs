//! The traced run: per-layer numbers, measured by timing calls into each
//! crate's public functions from outside the program.
//!
//! Every traced run emits the same metric set, whatever the workload: each
//! layer metric is measured on the workload the README names for it (the
//! hunt for the cluster tail, the sweep for fork and dispatch costs, and
//! so on). The named workload only decides which workload's tracing
//! overhead (`trace.*`) is measured.

use std::fs;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

use lfi_bench::experiments::httpd_trigger_scenario;
use lfi_bench::match_known_bugs;
use lfi_campaign::{CampaignReport, CampaignState, ExecBackend, LeaseOutcome, StandardExecutor};
use lfi_core::{TestConfig, Workload};
use lfi_supervisor::{SupervisedOutcome, TABLE1_BFT_FUNCTIONS, TABLE1_TARGETS};
use lfi_targets::{
    bind_lite, git_lite, run_bft_cluster, standard_controller, BftClusterConfig, BindWorkload,
    FsSetupWorkload, KNOWN_BUGS,
};
use lfi_vm::{Machine, NetHandle, NoHooks, ProcessConfig, RunExit};

use crate::stats::{median, median_timed, quantile, secs, timed, Metric};
use crate::trace::{ExecCall, ExecPath};
use crate::workloads::{
    build, campaign_seed, hunt_ok, mismatches, run_supervised_campaign, sweep_spec, worker_bin,
    CampaignOptions, CampaignRun, CampaignTrace, Hunt, Kind, Sweep, Tally, Triggers, JOBS,
    SWEEP_TARGETS,
};

/// Repetitions of each standalone layer call (their median is reported).
const REPS: usize = 3;
/// Traced hunts pooled for the unit-time tail: 4 × 285 units leave more
/// than ten beyond the 99th percentile.
const HUNT_CAMPAIGNS: usize = 4;
/// Traced sweep campaigns.
const SWEEP_CAMPAIGNS: usize = 6;
/// Telemetry on/off sweep pairs.
const TELEMETRY_PAIRS: usize = 5;
/// Supervised campaigns compared with in-process ones.
const SUPERVISED_CAMPAIGNS: usize = 2;
/// Rounds of the 0/1/5-trigger httpd-lite runs.
const TRIGGER_ROUNDS: usize = 60;
/// bind-lite runs behind `vm.guest_mips` (each is under a millisecond).
const VM_RUNS: usize = 500;
/// Forks timed behind `vm.fork_us`.
const FORKS: usize = 20_000;
/// Uninjected cluster runs behind `cluster.run_ms`.
const CLUSTER_RUNS: usize = 15;

/// Everything a traced run measured and checked.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
}

impl Traced {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Count `units` checked units, all failed unless `ok`.
    fn check(&mut self, units: usize, ok: bool) {
        self.tally.add(units, if ok { 0 } else { units });
    }
}

/// Run the traced suite; `kind` picks the workload whose tracing
/// overhead is measured.
pub fn traced_run(kind: Kind, workload_seed: u64, seconds: f64, work_dir: &Path) -> Traced {
    let mut out = Traced {
        metrics: Vec::new(),
        tally: Tally::default(),
    };
    trace_overhead(&mut out, kind, workload_seed, seconds, work_dir);
    setup_layers(&mut out, workload_seed);
    hunt_layers(&mut out, workload_seed);
    let sweep_runs = sweep_layers(&mut out, workload_seed);
    supervisor_layers(&mut out, workload_seed, &sweep_runs, work_dir);
    trigger_layers(&mut out, workload_seed);
    vm_layers(&mut out);
    cluster_layer(&mut out);
    out
}

/// `trace.*`: the named workload's iterations alternately untraced and
/// traced, for a quarter of `seconds` (the fixed suite after it takes
/// about as long as an untraced run's remainder). A workload without a
/// tracing hook runs untraced only: its traced iteration is the untraced
/// one, so its overhead is 0 by construction rather than measured noise.
fn trace_overhead(out: &mut Traced, kind: Kind, workload_seed: u64, seconds: f64, work_dir: &Path) {
    let seconds = seconds / 4.0;
    let mut bench = build(kind, workload_seed, work_dir);
    let modes: &[bool] = if kind.traceable() {
        &[false, true]
    } else {
        &[false]
    };
    let start = Instant::now();
    let mut times = [Vec::new(), Vec::new()];
    let mut index = 0;
    while times[0].len() < 2 || secs(start) < seconds {
        for &is_traced in modes {
            let iteration = bench.iterate(index, is_traced);
            out.tally.merge(iteration.tally);
            times[usize::from(is_traced)].push(iteration.run_s);
        }
        index += 1;
    }
    out.tally.merge(bench.verify());
    let plain_s = median(&times[0]);
    let traced_s = if kind.traceable() {
        median(&times[1])
    } else {
        plain_s
    };
    out.push("trace.run_s", traced_s, "s");
    out.push(
        "trace.overhead_pct",
        (traced_s / plain_s - 1.0) * 100.0,
        "%",
    );
}

/// `profiler.*` and `campaign.*`: the set-up phases of the Table 1 space.
fn setup_layers(out: &mut Traced, workload_seed: u64) {
    let controller = standard_controller();
    let (profile, profile_s) = median_timed(REPS, || controller.profile_libraries());
    let (executor, executor_new_s) = median_timed(REPS, || StandardExecutor::new(&TABLE1_TARGETS));
    let (mut space, fault_space_s) =
        median_timed(REPS, || executor.fault_space(&TABLE1_TARGETS, &profile));
    space.retain(|p| p.target != "bft-lite" || TABLE1_BFT_FUNCTIONS.contains(&p.function.as_str()));
    // A fresh executor per repetition: annotation prepares sessions, which
    // a second pass on the same executor would find warm.
    let reachability: Vec<f64> = (0..REPS)
        .map(|_| {
            let executor = StandardExecutor::new(&TABLE1_TARGETS);
            let mut annotated = space.clone();
            timed(|| executor.annotate_baseline_reachability(&mut annotated, workload_seed)).1
        })
        .collect();
    out.push("profiler.profile_s", profile_s, "s");
    out.push("campaign.executor_new_s", executor_new_s, "s");
    out.push("campaign.fault_space_s", fault_space_s, "s");
    out.push("campaign.reachability_s", median(&reachability), "s");
}

fn trace_of(run: &CampaignRun) -> &CampaignTrace {
    run.trace.as_ref().expect("traced campaign")
}

fn span_micros(trace: &CampaignTrace) -> Vec<f64> {
    trace
        .spans
        .iter()
        .map(|span| (span.finished - span.started).as_secs_f64() * 1e6)
        .collect()
}

/// Σ unit time ÷ (jobs × campaign wall).
fn busy_frac(run: &CampaignRun) -> f64 {
    span_micros(trace_of(run)).iter().sum::<f64>() / 1e6 / (JOBS as f64 * run.campaign_s)
}

fn call_micros<'a>(
    runs: &'a [CampaignRun],
    keep: impl Fn(&ExecCall) -> bool + 'a,
) -> impl Iterator<Item = f64> + 'a {
    runs.iter()
        .flat_map(|run| trace_of(run).calls.iter())
        .filter(move |call| keep(call))
        .map(|call| call.micros)
}

/// Seconds from campaign start until the finished units first match every
/// known bug (monotone in the prefix, so a binary search finds it).
fn time_to_all_bugs_s(run: &CampaignRun) -> f64 {
    let trace = trace_of(run);
    let found_with = |prefix: usize| {
        let mut partial = run.report.clone();
        partial.records = trace.spans[..prefix]
            .iter()
            .map(|span| span.record.clone())
            .collect();
        partial.records.sort_by_key(|record| record.unit);
        match_known_bugs(&partial).found.len() == KNOWN_BUGS.len()
    };
    let (mut lo, mut hi) = (1, trace.spans.len());
    if !found_with(hi) {
        return f64::NAN;
    }
    while lo < hi {
        let mid = (lo + hi) / 2;
        if found_with(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (trace.spans[hi - 1].finished - trace.campaign_start).as_secs_f64()
}

/// Engine and executor numbers of the Table 1 hunt.
fn hunt_layers(out: &mut Traced, workload_seed: u64) {
    let hunt = Hunt::new(workload_seed);
    let runs: Vec<CampaignRun> = (0..HUNT_CAMPAIGNS)
        .map(|index| hunt.run(index, CampaignOptions::TRACED))
        .collect();
    for run in &runs {
        out.check(run.report.records.len(), hunt_ok(&run.report));
    }
    let pooled: Vec<f64> = runs
        .iter()
        .flat_map(|run| span_micros(trace_of(run)))
        .collect();
    let busy: Vec<f64> = runs.iter().map(busy_frac).collect();
    let to_bugs: Vec<f64> = runs.iter().map(time_to_all_bugs_s).collect();
    let bugs = runs
        .iter()
        .map(|run| match_known_bugs(&run.report).found.len())
        .min()
        .unwrap_or(0);
    let bind: Vec<f64> = call_micros(&runs, |c| c.target == "bind-lite").collect();
    let bft: Vec<f64> = call_micros(&runs, |c| c.target == "bft-lite").collect();
    let bft_max: Vec<f64> = runs
        .iter()
        .map(|run| {
            call_micros(std::slice::from_ref(run), |c| c.target == "bft-lite").fold(0.0, f64::max)
        })
        .collect();
    let all: f64 = call_micros(&runs, |_| true).sum();
    let hung: f64 = call_micros(&runs, |c| c.hung).sum();
    out.push("engine.unit_p99_us", quantile(&pooled, 0.99), "us");
    out.push("engine.busy_frac", median(&busy), "ratio");
    out.push("hunt.time_to_all_bugs_s", median(&to_bugs), "s");
    out.push("hunt.bugs_found", bugs as f64, "count");
    out.push("executor.execute_from_us.bind-lite", median(&bind), "us");
    out.push("executor.execute_ms.bft-lite", median(&bft) / 1e3, "ms");
    out.push(
        "executor.execute_max_ms.bft-lite",
        median(&bft_max) / 1e3,
        "ms",
    );
    out.push(
        "executor.cluster_share",
        bft.iter().sum::<f64>() / all,
        "ratio",
    );
    out.push("executor.hung_share", hung / all, "ratio");
}

/// Engine, executor, snapshot-tree and telemetry numbers of the sweep.
/// Returns the untraced campaign of each iteration index, the
/// supervisor's reference.
fn sweep_layers(out: &mut Traced, workload_seed: u64) -> Vec<CampaignRun> {
    let sweep = Sweep::new(workload_seed);
    let traced: Vec<CampaignRun> = (0..SWEEP_CAMPAIGNS)
        .map(|index| sweep.run(index, CampaignOptions::TRACED))
        .collect();
    // The decorator must be transparent, and snapshot forks must agree
    // with the fresh-backend oracle.
    let mut untraced = Vec::new();
    for (index, run) in traced.iter().enumerate() {
        let plain = sweep.run(index, CampaignOptions::UNTRACED);
        let records = &run.report.records;
        out.check(sweep.units, mismatches(&plain.report.records, records) == 0);
        out.check(sweep.units, records.len() == sweep.units);
        untraced.push(plain);
    }
    let fresh_options = CampaignOptions {
        backend: ExecBackend::Fresh,
        ..CampaignOptions::UNTRACED
    };
    for (index, run) in traced.iter().enumerate().take(2) {
        let oracle = sweep.run(index, fresh_options);
        out.check(
            sweep.units,
            mismatches(&oracle.report.records, &run.report.records) == 0,
        );
    }

    let per_campaign = |f: &dyn Fn(&CampaignRun) -> f64| -> f64 {
        median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let pooled: Vec<f64> = traced
        .iter()
        .flat_map(|run| span_micros(trace_of(run)))
        .collect();
    let counter = |run: &CampaignRun, name: &str| {
        run.report
            .metrics
            .as_ref()
            .map_or(0, |metrics| metrics.counter(name)) as f64
    };
    let forks = |target: &'static str| -> f64 {
        median(
            &call_micros(&traced, move |c| {
                c.target == target && c.path == ExecPath::Fork
            })
            .collect::<Vec<_>>(),
        )
    };
    let discarded = traced
        .iter()
        .map(|run| counter(run, "tree_deepen_discarded"))
        .fold(0.0, f64::max);
    out.check(1, discarded == 0.0);
    out.push("engine.unit_p50_us", median(&pooled), "us");
    out.push("engine.busy_frac.sweep", per_campaign(&busy_frac), "ratio");
    out.push(
        "engine.first_dispatch_ms",
        per_campaign(&|run| {
            let trace = trace_of(run);
            let first = trace.spans.iter().map(|s| s.started).min();
            first.map_or(f64::NAN, |t| (t - trace.campaign_start).as_secs_f64() * 1e3)
        }),
        "ms",
    );
    out.push(
        "engine.drain_tail_ms",
        per_campaign(&|run| {
            let trace = trace_of(run);
            let last = trace.spans.iter().map(|s| s.finished).max();
            last.map_or(f64::NAN, |t| (trace.campaign_end - t).as_secs_f64() * 1e3)
        }),
        "ms",
    );
    out.push(
        "executor.prepare_ms",
        per_campaign(&|run| trace_of(run).prepare_ms),
        "ms",
    );
    out.push(
        "executor.prepare_calls",
        per_campaign(&|run| trace_of(run).prepare_calls as f64),
        "count",
    );
    out.push(
        "executor.prefetch_ms",
        per_campaign(&|run| trace_of(run).prefetch_ms),
        "ms",
    );
    out.push("executor.execute_from_us.git-lite", forks("git-lite"), "us");
    out.push("executor.execute_from_us.db-lite", forks("db-lite"), "us");
    out.push(
        "executor.snapshot_bytes",
        per_campaign(&|run| trace_of(run).snapshot_bytes as f64),
        "bytes",
    );
    out.push(
        "tree.fork_hit_rate",
        per_campaign(&|run| {
            let hits = counter(run, "tree_fork_hits");
            hits / (hits + counter(run, "tree_fork_misses"))
        }),
        "ratio",
    );
    out.push(
        "tree.nodes_materialized",
        per_campaign(&|run| counter(run, "tree_nodes_materialized")),
        "count",
    );
    out.push(
        "tree.nodes_evicted",
        per_campaign(&|run| counter(run, "tree_nodes_evicted")),
        "count",
    );
    out.push("tree.deepen_discarded", discarded, "count");

    // Telemetry on vs off on the same seeds, alternating.
    let quiet = CampaignOptions {
        telemetry: false,
        ..CampaignOptions::UNTRACED
    };
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for index in 0..TELEMETRY_PAIRS {
        let with = sweep.run(index, CampaignOptions::UNTRACED);
        let without = sweep.run(index, quiet);
        out.check(
            sweep.units,
            mismatches(&with.report.records, &without.report.records) == 0,
        );
        on.push(with.run_s);
        off.push(without.run_s);
    }
    out.push(
        "telemetry.overhead_pct",
        (median(&on) / median(&off) - 1.0) * 100.0,
        "%",
    );
    untraced
}

/// Read every lease checkpoint a supervised run left in `state_dir`.
fn lease_outcomes(state_dir: &Path) -> Vec<LeaseOutcome> {
    let mut paths: Vec<_> = fs::read_dir(state_dir)
        .expect("supervised state dir")
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| {
            path.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("lease_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text = fs::read_to_string(path).expect("lease checkpoint readable");
            let state = CampaignState::from_json(&text).expect("lease checkpoint parses");
            LeaseOutcome::from_state(&state).expect("lease checkpoint is sealed")
        })
        .collect()
}

/// Spawn a worker and time until its `Hello` line, then let it exit.
fn handshake_ms(spec_args: &[String], seed: u64, state_dir: &Path) -> f64 {
    let start = Instant::now();
    let mut child = Command::new(worker_bin())
        .args(spec_args)
        .args([
            "--strategy",
            "exhaustive",
            "--jobs",
            "1",
            "--backend",
            "snapshot",
        ])
        .arg("--seed")
        .arg(seed.to_string())
        .arg("--state-dir")
        .arg(state_dir)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn campaign_worker");
    let mut hello = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut hello)
        .expect("read worker hello");
    let elapsed = secs(start) * 1e3;
    // Closing stdin is the worker's shutdown signal.
    drop(child.stdin.take());
    child.wait().expect("campaign_worker exits");
    assert!(
        hello.contains("hello"),
        "unexpected first worker line: {hello}"
    );
    elapsed
}

/// `supervisor.*`: supervised sweeps against in-process ones on the same
/// seeds, plus the supervisor's standalone phases.
fn supervisor_layers(
    out: &mut Traced,
    workload_seed: u64,
    sweep_refs: &[CampaignRun],
    work_dir: &Path,
) {
    let spec = sweep_spec(workload_seed);
    let bin = worker_bin();
    let (mut supervised, mut in_process) = (Vec::new(), Vec::new());
    let mut outcomes = Vec::new();
    let mut merge_ms = f64::NAN;
    for (index, reference) in sweep_refs.iter().enumerate().take(SUPERVISED_CAMPAIGNS) {
        let seed = campaign_seed(workload_seed, index);
        let state_dir = work_dir.join(format!("traced-supervised-{index}"));
        let (outcome, seconds) = run_supervised_campaign(&spec, seed, &bin, &state_dir);
        out.check(
            outcome.report.records.len(),
            outcome.worker_restarts == 0
                && mismatches(&reference.report.records, &outcome.report.records) == 0,
        );
        if merge_ms.is_nan() {
            let leases = lease_outcomes(&state_dir);
            let times: Vec<f64> = (0..REPS)
                .map(|_| {
                    let leases = leases.clone();
                    let (merged, seconds) =
                        timed(|| CampaignReport::merge_leases(leases, outcome.total_points));
                    let merged = merged.expect("lease checkpoints merge");
                    black_box(merged.records.len());
                    seconds * 1e3
                })
                .collect();
            merge_ms = median(&times);
        }
        let _ = fs::remove_dir_all(&state_dir);
        supervised.push(seconds);
        in_process.push(reference.run_s);
        outcomes.push(outcome);
    }
    let counter = |f: &dyn Fn(&SupervisedOutcome) -> u64| {
        median(&outcomes.iter().map(|o| f(o) as f64).collect::<Vec<_>>())
    };

    let handshake_dir = work_dir.join("traced-handshake");
    let handshakes: Vec<f64> = (0..REPS)
        .map(|_| handshake_ms(&spec.to_args(), workload_seed, &handshake_dir))
        .collect();
    let _ = fs::remove_dir_all(&handshake_dir);
    let builds: Vec<f64> = (0..REPS)
        .map(|_| {
            let executor = StandardExecutor::new(&SWEEP_TARGETS);
            timed(|| spec.build(&executor)).1
        })
        .collect();

    out.push(
        "supervisor.overhead_s",
        median(&supervised) - median(&in_process),
        "s",
    );
    out.push("supervisor.handshake_ms", median(&handshakes), "ms");
    out.push("supervisor.space_build_s", median(&builds), "s");
    out.push("supervisor.merge_ms", merge_ms, "ms");
    out.push(
        "supervisor.leases_issued",
        counter(&|o| o.leases_issued),
        "count",
    );
    out.push(
        "supervisor.leases_stolen",
        counter(&|o| o.leases_stolen),
        "count",
    );
    out.push(
        "supervisor.worker_restarts",
        outcomes
            .iter()
            .map(|o| o.worker_restarts)
            .max()
            .unwrap_or(0) as f64,
        "count",
    );
}

/// `core.*` and `vm.hooked_guest_mips`: the Tables 5/6 runs, and httpd-lite
/// under 0, 1 and 5 triggers.
fn trigger_layers(out: &mut Traced, workload_seed: u64) {
    let mut triggers = Triggers::new(workload_seed);
    let mut mips = Vec::new();
    let mut hooked = Vec::new();
    for _ in 0..REPS {
        let runs = triggers.pass();
        let failed = triggers.failures(&runs);
        out.tally.add(runs.len(), failed);
        let instructions: u64 = runs.iter().map(|r| r.report.stats.instructions).sum();
        let seconds: f64 = runs.iter().map(|r| r.seconds).sum();
        mips.push(instructions as f64 / seconds / 1e6);
        hooked.push(
            runs.iter()
                .map(|r| r.report.stats.hooked_calls)
                .sum::<u64>() as f64,
        );
    }
    out.check(1, hooked.iter().all(|&h| h == hooked[0]));

    // Adjacent runs share the host's speed phase, so per-round
    // differences are steadier than differences of medians.
    let httpd = &triggers.configs[0];
    let stacks = [0, 1, 5].map(httpd_trigger_scenario);
    let (mut interpose, mut extra) = (Vec::new(), Vec::new());
    let mut calls = 0;
    for _ in 0..TRIGGER_ROUNDS {
        let [none, one, five] = stacks
            .each_ref()
            .map(|scenario| triggers.run_one(httpd, scenario));
        for run in [&none, &one, &five] {
            out.check(1, run.report.injections.injection_count() == 0);
        }
        calls = one.report.stats.hooked_calls;
        interpose.push(one.seconds - none.seconds);
        extra.push(five.seconds - one.seconds);
    }
    out.push("vm.hooked_guest_mips", median(&mips), "Minstr/s");
    out.push("core.hooked_calls", hooked[0], "count");
    out.push(
        "core.interpose_ns",
        median(&interpose) / calls as f64 * 1e9,
        "ns",
    );
    out.push(
        "core.trigger_eval_ns",
        median(&extra) / (4 * calls) as f64 * 1e9,
        "ns",
    );
}

/// `vm.*`: raw interpretation speed and snapshot forks.
fn vm_layers(out: &mut Traced) {
    let controller = standard_controller();
    let budget = TestConfig::default().max_instructions;
    let image = controller
        .build_image(&bind_lite(), &[])
        .expect("bind-lite loads");
    let mips: Vec<f64> = (0..VM_RUNS)
        .map(|_| {
            let net = NetHandle::default();
            let mut workload = BindWorkload::typical(net.clone());
            let mut machine = Machine::from_image(
                image.clone(),
                ProcessConfig {
                    args: vec![workload.request_count().to_string()],
                    ..ProcessConfig::default()
                },
            );
            machine.attach_net(net);
            workload.setup(&mut machine);
            let (exit, seconds) = timed(|| machine.run(&mut NoHooks, budget));
            out.check(1, exit == RunExit::Exited(0));
            machine.stats.instructions as f64 / seconds / 1e6
        })
        .collect();
    out.push("vm.guest_mips", median(&mips), "Minstr/s");

    let functions = controller.profile_libraries().failing_functions();
    let image = controller
        .build_image(&git_lite(), &functions)
        .expect("git-lite loads");
    let config = TestConfig {
        args: vec!["commit".to_string(), "initial".to_string()],
        ..TestConfig::default()
    };
    let prep = controller.prepare_session(image, &functions, &mut FsSetupWorkload, &config);
    let snapshot = prep.machine.snapshot();
    let (_, seconds) = timed(|| {
        for _ in 0..FORKS {
            black_box(snapshot.fork());
        }
    });
    out.push("vm.fork_us", seconds / FORKS as f64 * 1e6, "us");
    out.push(
        "vm.fork_resident_kb",
        snapshot.resident_bytes() as f64 / 1024.0,
        "KiB",
    );
}

/// `cluster.run_ms`: one uninjected bft-lite cluster run, as the executor
/// configures it.
fn cluster_layer(out: &mut Traced) {
    let config = BftClusterConfig {
        requests: StandardExecutor::new(&[]).bft_requests,
        ..BftClusterConfig::default()
    };
    let (result, seconds) = median_timed(CLUSTER_RUNS, || run_bft_cluster(&config));
    out.check(
        1,
        result.crashes.is_empty() && result.completed == config.requests as i64,
    );
    out.push("cluster.run_ms", seconds * 1e3, "ms");
}
