//! The four benchmark workloads, their set-up, one timed iteration each,
//! and the output checks behind `failed`.
//!
//! Every workload is a closed loop: the campaign engine's `JOBS` workers
//! (or the supervisor's two single-job workers) take the next unit only
//! when their previous one finished, and the next iteration starts only
//! when the previous one returned. Seeds come from the benchmark's
//! workload seed; the program only sees the generated space and
//! arguments.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use lfi_arch::{errno, fcntlcmd};
use lfi_bench::experiments::httpd_trigger_scenario;
use lfi_bench::{match_known_bugs, table1_fault_space};
use lfi_campaign::{
    derive_seed, Campaign, CampaignReport, ExecBackend, Executor, FaultSpace, RunRecord,
    StandardExecutor, Telemetry,
};
use lfi_core::TriggerDecl;
use lfi_core::{Controller, FunctionAssoc, Scenario, TestConfig, TestOutcome, TestReport};
use lfi_obj::Module;
use lfi_supervisor::TABLE1_TARGETS;
use lfi_supervisor::{run_supervised, SpaceSpec, SupervisedOutcome, SupervisorOptions};
use lfi_targets::{db_lite, httpd_lite, standard_controller, FsSetupWorkload, KNOWN_BUGS};

use crate::stats::{secs, timed, CpuRotation};
use crate::trace::{ExecCall, Recorder, TimedExecutor, UnitSpan};

/// Worker threads per in-process campaign (the container has two cores).
pub const JOBS: usize = 2;
/// The sweep's targets: bind-lite is left out because its single 73 ms
/// `recvfrom` unit would make the workload VM-bound.
pub const SWEEP_TARGETS: [&str; 2] = ["git-lite", "db-lite"];
/// Units of the exhaustive Table 1 hunt.
pub const HUNT_UNITS: usize = 285;
/// Campaign seeds cycle through this many values derived from the
/// workload seed, so repeats of one seed occur inside a run and their
/// records can be compared.
const SEED_CYCLE: u64 = 4;

/// The campaign seed of iteration `iteration`.
pub fn campaign_seed(workload_seed: u64, iteration: usize) -> u64 {
    derive_seed(workload_seed, iteration as u64 % SEED_CYCLE)
}

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Hunt,
    Sweep,
    SupervisedSweep,
    Triggers,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Hunt,
        Kind::Sweep,
        Kind::SupervisedSweep,
        Kind::Triggers,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Hunt => "hunt",
            Kind::Sweep => "sweep",
            Kind::SupervisedSweep => "supervised_sweep",
            Kind::Triggers => "triggers",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Whether a traced iteration differs from an untraced one. Only the
    /// in-process campaigns take the timing decorator and the recorder;
    /// the supervisor's workers and the trigger runs have no such hook.
    pub fn traceable(self) -> bool {
        matches!(self, Kind::Hunt | Kind::Sweep)
    }
}

/// Units (or runs) whose output was checked, and how many failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// One timed iteration.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Wall clock of the whole iteration.
    pub run_s: f64,
    /// Units (or trigger runs) completed per second of campaign wall
    /// clock.
    pub units_per_s: f64,
    pub tally: Tally,
}

/// How one in-process campaign runs.
#[derive(Debug, Clone, Copy)]
pub struct CampaignOptions {
    pub backend: ExecBackend,
    /// Wrap the executor in [`TimedExecutor`] and attach a [`Recorder`].
    pub traced: bool,
    /// Keep the executor's default telemetry registry (off installs
    /// `Telemetry::disabled()`).
    pub telemetry: bool,
}

impl CampaignOptions {
    pub const UNTRACED: CampaignOptions = CampaignOptions {
        backend: ExecBackend::Snapshot,
        traced: false,
        telemetry: true,
    };
    pub const TRACED: CampaignOptions = CampaignOptions {
        traced: true,
        ..CampaignOptions::UNTRACED
    };

    pub fn with_trace(traced: bool) -> CampaignOptions {
        CampaignOptions {
            traced,
            ..CampaignOptions::UNTRACED
        }
    }
}

/// What the decorator and recorder saw during one traced campaign.
#[derive(Debug, Clone)]
pub struct CampaignTrace {
    pub spans: Vec<UnitSpan>,
    pub calls: Vec<ExecCall>,
    /// Just before `run_to_completion`.
    pub campaign_start: Instant,
    /// Just after `run_to_completion` returned.
    pub campaign_end: Instant,
    pub prepare_ms: f64,
    pub prepare_calls: u64,
    pub prefetch_ms: f64,
    pub snapshot_bytes: u64,
}

/// One finished in-process campaign.
pub struct CampaignRun {
    pub report: CampaignReport,
    /// Executor construction plus the campaign.
    pub run_s: f64,
    /// `run_to_completion` alone.
    pub campaign_s: f64,
    pub trace: Option<CampaignTrace>,
}

impl CampaignRun {
    pub fn units_per_s(&self) -> f64 {
        self.report.records.len() as f64 / self.campaign_s
    }
}

/// Run `space` exhaustively on a fresh executor over `targets`.
pub fn run_campaign(
    targets: &[&str],
    space: &FaultSpace,
    seed: u64,
    options: CampaignOptions,
) -> CampaignRun {
    let start = Instant::now();
    let mut executor = StandardExecutor::new(targets);
    if !options.telemetry {
        executor.set_telemetry(Telemetry::disabled());
    }
    let timed_executor = TimedExecutor::new(&executor);
    let recorder = Recorder::default();
    let mut builder = if options.traced {
        Campaign::builder(space.clone(), &timed_executor).events(&recorder)
    } else {
        Campaign::builder(space.clone(), &executor)
    };
    builder = builder.jobs(JOBS).seed(seed).backend(options.backend);
    let configured = builder.build();
    let campaign_start = Instant::now();
    let report = configured.run_to_completion().report;
    let campaign_end = Instant::now();
    let run_s = secs(start);
    let trace = options.traced.then(|| {
        let (prepare_ms, prepare_calls) = timed_executor.prepare_totals();
        CampaignTrace {
            spans: recorder.spans(),
            calls: timed_executor.calls(),
            campaign_start,
            campaign_end,
            prepare_ms,
            prepare_calls,
            prefetch_ms: timed_executor.prefetch_ms(),
            snapshot_bytes: timed_executor.snapshot_bytes(),
        }
    });
    CampaignRun {
        report,
        run_s,
        campaign_s: (campaign_end - campaign_start).as_secs_f64(),
        trace,
    }
}

/// Records that differ between two runs of one plan, counted per unit
/// position (a length difference counts every missing record).
pub fn mismatches(a: &[RunRecord], b: &[RunRecord]) -> usize {
    let differing = a.iter().zip(b).filter(|(x, y)| x != y).count();
    differing + a.len().abs_diff(b.len())
}

/// Whether a hunt report holds every unit and every known bug.
pub fn hunt_ok(report: &CampaignReport) -> bool {
    report.records.len() == HUNT_UNITS && match_known_bugs(report).found.len() == KNOWN_BUGS.len()
}

/// The fault-space description shared by `sweep` and `supervised_sweep`.
pub fn sweep_spec(workload_seed: u64) -> SpaceSpec {
    SpaceSpec {
        targets: SWEEP_TARGETS.iter().map(|t| t.to_string()).collect(),
        retain: Vec::new(),
        baseline_seed: workload_seed,
    }
}

/// Checks that repeats of one campaign seed reproduce the first run's
/// records exactly.
#[derive(Default)]
pub struct RepeatCheck {
    first: BTreeMap<u64, Vec<RunRecord>>,
}

impl RepeatCheck {
    /// Compare `records` with the first run of `seed` (recording them if
    /// this is the first); returns the mismatching record count.
    pub fn check(&mut self, seed: u64, records: &[RunRecord]) -> usize {
        match self.first.get(&seed) {
            Some(first) => mismatches(first, records),
            None => {
                self.first.insert(seed, records.to_vec());
                0
            }
        }
    }

    pub fn seeds(&self) -> impl Iterator<Item = (&u64, &Vec<RunRecord>)> {
        self.first.iter()
    }
}

/// A workload ready to iterate.
pub trait Bench {
    /// One closed-loop iteration.
    fn iterate(&mut self, index: usize, traced: bool) -> Iteration;

    /// Output checks that run outside the timed loop.
    fn verify(&mut self) -> Tally {
        Tally::default()
    }
}

/// Set a workload up: everything before its first iteration.
pub fn build(kind: Kind, workload_seed: u64, work_dir: &Path) -> Box<dyn Bench> {
    match kind {
        Kind::Hunt => Box::new(Hunt::new(workload_seed)),
        Kind::Sweep => Box::new(Sweep::new(workload_seed)),
        Kind::SupervisedSweep => Box::new(SupervisedSweep::new(workload_seed, work_dir)),
        Kind::Triggers => Box::new(Triggers::new(workload_seed)),
    }
}

/// `hunt`: the exhaustive Table 1 hunt, one campaign per iteration.
pub struct Hunt {
    space: FaultSpace,
    workload_seed: u64,
}

impl Hunt {
    pub fn new(workload_seed: u64) -> Hunt {
        let executor = StandardExecutor::new(&TABLE1_TARGETS);
        Hunt {
            space: table1_fault_space(&executor, workload_seed),
            workload_seed,
        }
    }

    pub fn run(&self, index: usize, options: CampaignOptions) -> CampaignRun {
        let seed = campaign_seed(self.workload_seed, index);
        run_campaign(&TABLE1_TARGETS, &self.space, seed, options)
    }
}

impl Bench for Hunt {
    fn iterate(&mut self, index: usize, traced: bool) -> Iteration {
        let run = self.run(index, CampaignOptions::with_trace(traced));
        let units = run.report.records.len().max(HUNT_UNITS);
        let mut tally = Tally::default();
        tally.add(units, if hunt_ok(&run.report) { 0 } else { units });
        Iteration {
            run_s: run.run_s,
            units_per_s: run.units_per_s(),
            tally,
        }
    }
}

/// `sweep`: the exhaustive git-lite + db-lite space, a fresh executor and
/// a derived seed per campaign.
pub struct Sweep {
    pub space: FaultSpace,
    pub units: usize,
    workload_seed: u64,
    repeats: RepeatCheck,
}

impl Sweep {
    pub fn new(workload_seed: u64) -> Sweep {
        let executor = StandardExecutor::new(&SWEEP_TARGETS);
        let space = sweep_spec(workload_seed).build(&executor);
        let units = Campaign::builder(space.clone(), &executor)
            .build()
            .campaign()
            .total_units();
        Sweep {
            space,
            units,
            workload_seed,
            repeats: RepeatCheck::default(),
        }
    }

    pub fn run(&self, index: usize, options: CampaignOptions) -> CampaignRun {
        let seed = campaign_seed(self.workload_seed, index);
        run_campaign(&SWEEP_TARGETS, &self.space, seed, options)
    }
}

impl Bench for Sweep {
    fn iterate(&mut self, index: usize, traced: bool) -> Iteration {
        let run = self.run(index, CampaignOptions::with_trace(traced));
        let records = &run.report.records;
        let seed = campaign_seed(self.workload_seed, index);
        let failed = if records.len() == self.units {
            self.repeats.check(seed, records).min(self.units)
        } else {
            self.units
        };
        let mut tally = Tally::default();
        tally.add(self.units, failed);
        Iteration {
            run_s: run.run_s,
            units_per_s: run.units_per_s(),
            tally,
        }
    }
}

/// `supervised_sweep`: the sweep's space and seeds through the
/// supervisor, two `campaign_worker` processes with one job each.
pub struct SupervisedSweep {
    spec: SpaceSpec,
    /// The in-process space, for the reference records `verify` compares
    /// against.
    space: FaultSpace,
    workload_seed: u64,
    worker_bin: PathBuf,
    state_root: PathBuf,
    repeats: RepeatCheck,
}

/// One supervised campaign as `supervised_sweep` runs it, in a fresh
/// `state_dir` it leaves behind for the caller; returns the outcome and
/// its wall seconds.
pub fn run_supervised_campaign(
    spec: &SpaceSpec,
    seed: u64,
    worker_bin: &Path,
    state_dir: &Path,
) -> (SupervisedOutcome, f64) {
    let _ = std::fs::remove_dir_all(state_dir);
    let mut options = SupervisorOptions::new(spec.clone(), state_dir);
    options.workers = 2;
    options.jobs = 1;
    options.seed = seed;
    options.backend = ExecBackend::Snapshot;
    options.worker_bin = worker_bin.to_path_buf();
    let (outcome, seconds) = timed(|| run_supervised(&options));
    let outcome = outcome.unwrap_or_else(|err| panic!("supervised sweep failed: {err}"));
    (outcome, seconds)
}

/// The `campaign_worker` binary built next to this one.
pub fn worker_bin() -> PathBuf {
    lfi_supervisor::sibling_worker_bin()
        .expect("campaign_worker must be built next to the benchmark binary")
}

impl SupervisedSweep {
    pub fn new(workload_seed: u64, work_dir: &Path) -> SupervisedSweep {
        let spec = sweep_spec(workload_seed);
        let executor = StandardExecutor::new(&SWEEP_TARGETS);
        SupervisedSweep {
            space: spec.build(&executor),
            spec,
            workload_seed,
            worker_bin: worker_bin(),
            state_root: work_dir.to_path_buf(),
            repeats: RepeatCheck::default(),
        }
    }
}

impl Bench for SupervisedSweep {
    fn iterate(&mut self, index: usize, _traced: bool) -> Iteration {
        let seed = campaign_seed(self.workload_seed, index);
        let state_dir = self.state_root.join(format!("supervised-{index}"));
        let (outcome, seconds) =
            run_supervised_campaign(&self.spec, seed, &self.worker_bin, &state_dir);
        let _ = std::fs::remove_dir_all(&state_dir);
        let records = &outcome.report.records;
        let failed = if outcome.worker_restarts == 0 {
            self.repeats.check(seed, records).min(records.len())
        } else {
            records.len()
        };
        let mut tally = Tally::default();
        tally.add(records.len(), failed);
        Iteration {
            run_s: seconds,
            units_per_s: records.len() as f64 / seconds,
            tally,
        }
    }

    /// The merged records of each seed must equal the in-process sweep's.
    fn verify(&mut self) -> Tally {
        let mut tally = Tally::default();
        for (&seed, records) in self.repeats.seeds() {
            let reference =
                run_campaign(&SWEEP_TARGETS, &self.space, seed, CampaignOptions::UNTRACED);
            let failed = mismatches(&reference.report.records, records);
            tally.add(0, failed.min(records.len()));
        }
        tally
    }
}

/// One Table 5/6 configuration.
pub struct TriggerConfig {
    pub exe: Module,
    pub scenario: Scenario,
    pub args: Vec<String>,
    /// Guest RNG seed, derived from the workload seed.
    pub seed: u64,
}

/// One observed trigger run.
pub struct TriggerRun {
    pub report: TestReport,
    pub seconds: f64,
}

/// `triggers`: the Tables 5/6 configurations, run one after the other on
/// one thread with triggers evaluated but never injecting.
pub struct Triggers {
    controller: Controller,
    rotation: CpuRotation,
    pub configs: Vec<TriggerConfig>,
    /// Guest instructions of each configuration in the first checked pass.
    reference: Vec<u64>,
}

/// The Table 6 trigger stack on `fcntl`: the first `count` of four
/// triggers, failing with `EAGAIN` if they ever all held.
pub fn db_trigger_scenario(count: usize) -> Scenario {
    let param = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    };
    let getlk = fcntlcmd::GETLK.to_string();
    let decls = [
        ("ArgTrigger", param(&[("index", "1"), ("value", &getlk)])),
        (
            "ProgramStateTrigger",
            param(&[("variable", "thread_count"), ("op", ">"), ("value", "64")]),
        ),
        (
            "ProgramStateTrigger",
            param(&[
                ("variable", "shutdown_in_progress"),
                ("op", "=="),
                ("value", "1"),
            ]),
        ),
        (
            "CallerFunctionTrigger",
            param(&[("function", "do_txn"), ("anywhere", "1")]),
        ),
    ];
    let mut scenario = Scenario::new();
    for (i, (class, params)) in decls.into_iter().take(count).enumerate() {
        scenario.triggers.push(TriggerDecl {
            id: format!("t{}", i + 1),
            class: class.to_string(),
            params,
            frames: vec![],
        });
    }
    if count > 0 {
        scenario.functions.push(FunctionAssoc {
            function: "fcntl".into(),
            argc: 3,
            retval: Some(-1),
            errno: Some(errno::EAGAIN),
            triggers: scenario.triggers.iter().map(|t| t.id.clone()).collect(),
        });
    }
    scenario
}

impl Triggers {
    pub fn new(workload_seed: u64) -> Triggers {
        let httpd_stack = httpd_trigger_scenario(5);
        let db_stack = db_trigger_scenario(4);
        let table: [(Module, &Scenario, &[&str]); 4] = [
            (httpd_lite(), &httpd_stack, &["200", "1"]),
            (httpd_lite(), &httpd_stack, &["200", "2"]),
            (db_lite(), &db_stack, &["oltp", "300", "1"]),
            (db_lite(), &db_stack, &["oltp", "300", "0"]),
        ];
        let configs = table
            .into_iter()
            .enumerate()
            .map(|(index, (exe, scenario, args))| TriggerConfig {
                exe,
                scenario: scenario.clone(),
                args: args.iter().map(|a| a.to_string()).collect(),
                seed: derive_seed(workload_seed, index as u64),
            })
            .collect();
        Triggers {
            controller: standard_controller(),
            rotation: CpuRotation::new(),
            configs,
            reference: Vec::new(),
        }
    }

    /// Run one configuration under `scenario` (its own stack unless
    /// overridden), observe-only.
    pub fn run_one(&self, config: &TriggerConfig, scenario: &Scenario) -> TriggerRun {
        let test = TestConfig {
            args: config.args.clone(),
            seed: config.seed,
            observe_only: true,
            ..TestConfig::default()
        };
        let (report, seconds) = timed(|| {
            self.controller
                .run_test(&config.exe, scenario, &mut FsSetupWorkload, &test)
                .expect("trigger configuration must load")
        });
        TriggerRun { report, seconds }
    }

    /// One pass over every configuration, each run on the next CPU in
    /// turn (still one run at a time).
    pub fn pass(&self) -> Vec<TriggerRun> {
        let runs = self
            .configs
            .iter()
            .enumerate()
            .map(|(turn, config)| {
                self.rotation.pin(turn);
                self.run_one(config, &config.scenario)
            })
            .collect();
        self.rotation.restore();
        runs
    }

    /// Runs that did not pass, injected, or changed their instruction count
    /// from the first pass checked (the untimed warm-up of a run).
    pub fn failures(&mut self, runs: &[TriggerRun]) -> usize {
        if self.reference.is_empty() {
            self.reference = runs
                .iter()
                .map(|run| run.report.stats.instructions)
                .collect();
        }
        runs.iter()
            .zip(&self.reference)
            .filter(|(run, &instructions)| {
                run.report.outcome != TestOutcome::Passed
                    || run.report.injections.injection_count() != 0
                    || run.report.stats.instructions != instructions
            })
            .count()
    }
}

impl Bench for Triggers {
    fn iterate(&mut self, _index: usize, _traced: bool) -> Iteration {
        let (runs, run_s) = timed(|| self.pass());
        let mut tally = Tally::default();
        tally.add(runs.len(), self.failures(&runs));
        Iteration {
            run_s,
            units_per_s: runs.len() as f64 / run_s,
            tally,
        }
    }
}
