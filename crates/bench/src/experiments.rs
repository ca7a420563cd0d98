//! The experiments of §7, one function per table/figure.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::Instant;

use lfi_analyzer::{
    analyze_call_sites, recovery_offsets, AnalysisConfig, CallSiteClass, ClassMetrics,
    ConfusionMatrix,
};
use lfi_core::{
    DistributedController, DistributedPolicy, FunctionAssoc, Scenario, TestConfig, TestOutcome,
    TriggerDecl, TriggerRegistry,
};
use lfi_targets::{
    bft_lite, bind_lite, db_lite, git_lite, ground_truth, httpd_lite, run_bft_cluster,
    standard_controller, BftClusterConfig, FsSetupWorkload, KNOWN_BUGS,
};
use lfi_vm::Coverage;

use crate::support::{all_sites, default_test_suite, pct, run_target, single_site_scenario};

// ---------------------------------------------------------------------------
// Table 1 — bugs found automatically
// ---------------------------------------------------------------------------

/// One found bug.
#[derive(Debug, Clone)]
pub struct FoundBug {
    /// Which known (paper) bug it corresponds to.
    pub id: String,
    /// System name.
    pub system: String,
    /// Injected library function.
    pub injected_function: String,
    /// Caller in which the injection fired.
    pub caller: String,
    /// How the failure manifested.
    pub manifestation: String,
}

/// Result of the Table 1 reproduction.
#[derive(Debug, Clone, Default)]
pub struct Table1 {
    /// Bugs found, keyed by known-bug id.
    pub found: Vec<FoundBug>,
    /// Known bugs that were not found.
    pub missed: Vec<String>,
    /// Total automated test runs executed.
    pub runs: usize,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 1: bugs found automatically (paper: 11 bugs)")?;
        writeln!(
            f,
            "{:<22} {:<8} {:<12} {:<18} manifestation",
            "bug", "system", "injected", "caller"
        )?;
        for bug in &self.found {
            writeln!(
                f,
                "{:<22} {:<8} {:<12} {:<18} {}",
                bug.id, bug.system, bug.injected_function, bug.caller, bug.manifestation
            )?;
        }
        for missed in &self.missed {
            writeln!(f, "{missed:<22} NOT FOUND")?;
        }
        writeln!(
            f,
            "found {}/{} known bugs in {} automated runs",
            self.found.len(),
            KNOWN_BUGS.len(),
            self.runs
        )
    }
}

/// Run the Table 1 experiment: analyzer-generated scenarios, applied with no
/// modifications, one call site at a time, against each system's default
/// workloads. Since the campaign rewire this is a thin wrapper over
/// [`crate::campaign::table1_campaign`] with the default (exhaustive,
/// single-worker) options; use that entry point directly for parallel or
/// strategy-driven hunts.
pub fn table1_bugs() -> Table1 {
    crate::campaign::table1_campaign(&crate::campaign::HuntOptions::default()).table
}

// ---------------------------------------------------------------------------
// Table 2 — precision of three trigger scenarios for the MySQL close bug
// ---------------------------------------------------------------------------

/// Result of the Table 2 reproduction.
#[derive(Debug, Clone)]
pub struct Table2 {
    /// (scenario label, paper precision, measured precision) rows.
    pub rows: Vec<(String, &'static str, f64)>,
    /// Number of repetitions per scenario.
    pub repetitions: u64,
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 2: precision of triggers targeting the db-lite double-unlock bug ({} runs each)",
            self.repetitions
        )?;
        writeln!(
            f,
            "{:<38} {:>10} {:>10}",
            "trigger scenario", "paper", "measured"
        )?;
        for (label, paper, measured) in &self.rows {
            writeln!(f, "{label:<38} {paper:>10} {:>9.0}%", measured * 100.0)?;
        }
        Ok(())
    }
}

fn precision_of(make_scenario: &dyn Fn(u64) -> Scenario, repetitions: u64) -> f64 {
    let controller = standard_controller();
    let exe = db_lite();
    let mut activated = 0u64;
    for i in 0..repetitions {
        let scenario = make_scenario(2000 + i);
        let config = TestConfig {
            args: vec!["merge-big".into(), "1".into()],
            seed: 1000 + i,
            ..TestConfig::default()
        };
        let report = controller
            .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
            .expect("run");
        if let TestOutcome::Crashed(description) = &report.outcome {
            if description.contains("mutex") {
                activated += 1;
            }
        }
    }
    activated as f64 / repetitions as f64
}

/// Run the Table 2 experiment.
pub fn table2_precision() -> Table2 {
    let repetitions = 100;
    // Scenario 1: random 10% injection into every close call.
    let random = |seed: u64| {
        Scenario::new()
            .with_trigger(TriggerDecl {
                id: "rnd".into(),
                class: "RandomTrigger".into(),
                params: BTreeMap::from([
                    ("probability".to_string(), "0.1".to_string()),
                    ("seed".to_string(), seed.to_string()),
                ]),
                frames: vec![],
            })
            .with_function(FunctionAssoc {
                function: "close".into(),
                argc: 1,
                retval: Some(-1),
                errno: Some(lfi_arch::errno::EIO),
                triggers: vec!["rnd".into()],
            })
    };
    random(0).validate().unwrap();

    // Scenario 2: random 10%, but only for close calls made from mi_create
    // (the paper scoped the injection to the bug's source file).
    let scoped = |seed: u64| {
        Scenario::new()
            .with_trigger(TriggerDecl {
                id: "rnd".into(),
                class: "RandomTrigger".into(),
                params: BTreeMap::from([
                    ("probability".to_string(), "0.1".to_string()),
                    ("seed".to_string(), seed.to_string()),
                ]),
                frames: vec![],
            })
            .with_trigger(TriggerDecl {
                id: "infile".into(),
                class: "CallerFunctionTrigger".into(),
                params: BTreeMap::from([
                    ("function".to_string(), "mi_create".to_string()),
                    ("anywhere".to_string(), "0".to_string()),
                ]),
                frames: vec![],
            })
            .with_function(FunctionAssoc {
                function: "close".into(),
                argc: 1,
                retval: Some(-1),
                errno: Some(lfi_arch::errno::EIO),
                triggers: vec!["infile".into(), "rnd".into()],
            })
    };
    scoped(0).validate().unwrap();

    // Scenario 3: the custom "close shortly after a mutex unlock" trigger.
    let proximity = |_seed: u64| {
        Scenario::new()
            .with_trigger(TriggerDecl {
                id: "near_unlock".into(),
                class: "ProximityTrigger".into(),
                params: BTreeMap::from([
                    ("watch".to_string(), "pthread_mutex_unlock".to_string()),
                    ("distance".to_string(), "2".to_string()),
                ]),
                frames: vec![],
            })
            .with_function(FunctionAssoc {
                function: "close".into(),
                argc: 1,
                retval: Some(-1),
                errno: Some(lfi_arch::errno::EIO),
                triggers: vec!["near_unlock".into()],
            })
            .with_function(FunctionAssoc {
                function: "pthread_mutex_unlock".into(),
                argc: 1,
                retval: None,
                errno: None,
                triggers: vec!["near_unlock".into()],
            })
    };
    proximity(0).validate().unwrap();

    Table2 {
        rows: vec![
            (
                "Random (10%)".to_string(),
                "16%",
                precision_of(&random, repetitions),
            ),
            (
                "Random (10%) within bug's function".to_string(),
                "45%",
                precision_of(&scoped, repetitions),
            ),
            (
                "Close after mutex unlock".to_string(),
                "100%",
                precision_of(&proximity, repetitions),
            ),
        ],
        repetitions,
    }
}

// ---------------------------------------------------------------------------
// Table 3 — automated improvement in recovery-code coverage
// ---------------------------------------------------------------------------

/// One row (per target) of the Table 3 reproduction.
#[derive(Debug, Clone)]
pub struct CoverageRow {
    /// Target program.
    pub program: String,
    /// Total recovery lines identified in the binary.
    pub recovery_lines_total: usize,
    /// Recovery lines covered by the default suite alone.
    pub recovery_covered_baseline: usize,
    /// Recovery lines covered with LFI injections added.
    pub recovery_covered_with_lfi: usize,
    /// Additional source lines covered thanks to LFI.
    pub additional_lines: usize,
    /// Total source lines with any code.
    pub total_lines: usize,
    /// Lines covered without LFI.
    pub covered_baseline: usize,
    /// Lines covered with LFI.
    pub covered_with_lfi: usize,
}

/// Result of the Table 3 reproduction.
#[derive(Debug, Clone, Default)]
pub struct Table3 {
    /// Per-target rows (git-lite and bind-lite, as in the paper).
    pub rows: Vec<CoverageRow>,
}

impl fmt::Display for Table3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Table 3: automated improvement in recovery-code coverage (paper: Git ~+35%, BIND ~+60%)")?;
        for row in &self.rows {
            let newly = row
                .recovery_covered_with_lfi
                .saturating_sub(row.recovery_covered_baseline);
            let uncovered_before = row
                .recovery_lines_total
                .saturating_sub(row.recovery_covered_baseline);
            writeln!(f, "{}:", row.program)?;
            writeln!(
                f,
                "  additional recovery code covered: {} of {} previously uncovered recovery lines ({})",
                newly,
                uncovered_before,
                pct(newly as f64, uncovered_before as f64)
            )?;
            writeln!(
                f,
                "  additional LOC covered by LFI:    {}",
                row.additional_lines
            )?;
            writeln!(
                f,
                "  total coverage without LFI:        {}",
                pct(row.covered_baseline as f64, row.total_lines as f64)
            )?;
            writeln!(
                f,
                "  total coverage with LFI:           {}",
                pct(row.covered_with_lfi as f64, row.total_lines as f64)
            )?;
        }
        Ok(())
    }
}

fn coverage_lines(cov: &Coverage, module: &lfi_obj::Module) -> BTreeSet<(String, u32)> {
    cov.covered_lines(module)
}

/// Run the Table 3 experiment for git-lite and bind-lite.
pub fn table3_coverage() -> Table3 {
    let controller = standard_controller();
    let profile = controller.profile_libraries();
    let mut result = Table3::default();
    for (target, exe) in [("git-lite", git_lite()), ("bind-lite", bind_lite())] {
        // The injectable set: the ~25 commonly failing calls of the paper.
        let functions: Vec<String> = lfi_libc::COMMONLY_FAILING
            .iter()
            .map(|s| s.to_string())
            .collect();
        let recovery = recovery_offsets(&exe, &profile, &functions);
        let total_lines: BTreeSet<(String, u32)> = exe
            .line_table
            .iter()
            .map(|e| (exe.files[e.file as usize].clone(), e.line))
            .collect();

        // Baseline: default test suite, no injection.
        let mut baseline_cov = Coverage::new();
        for args in default_test_suite(target) {
            let report = run_target(target, &exe, &Scenario::new(), args, true, 1);
            baseline_cov.merge(&report.coverage);
        }
        // With LFI: re-run the same suite once per injectable call site.
        let mut lfi_cov = baseline_cov.clone();
        for (function, offset) in all_sites(&exe, &functions) {
            let scenario = single_site_scenario(target, &function, offset, &profile);
            for args in default_test_suite(target) {
                let report = run_target(target, &exe, &scenario, args, true, 2);
                lfi_cov.merge(&report.coverage);
            }
        }

        let baseline_lines = coverage_lines(&baseline_cov, &exe);
        let lfi_lines = coverage_lines(&lfi_cov, &exe);
        let recovery_lines: BTreeSet<(String, u32)> = recovery.lines.clone();
        result.rows.push(CoverageRow {
            program: target.to_string(),
            recovery_lines_total: recovery_lines.len(),
            recovery_covered_baseline: baseline_lines.intersection(&recovery_lines).count(),
            recovery_covered_with_lfi: lfi_lines.intersection(&recovery_lines).count(),
            additional_lines: lfi_lines.difference(&baseline_lines).count(),
            total_lines: total_lines.len(),
            covered_baseline: baseline_lines.len(),
            covered_with_lfi: lfi_lines.len(),
        });
    }
    result
}

// ---------------------------------------------------------------------------
// Table 4 — call-site analysis accuracy
// ---------------------------------------------------------------------------

/// One row of the Table 4 reproduction.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Target program.
    pub program: String,
    /// Library function analyzed.
    pub function: String,
    /// Full confusion matrix against ground truth (positive = "unchecked",
    /// the paper's orientation).
    pub matrix: ConfusionMatrix,
    /// Correct classifications (TP+TN).
    pub correct: usize,
    /// False negatives.
    pub false_negatives: usize,
    /// False positives.
    pub false_positives: usize,
    /// Accuracy.
    pub accuracy: f64,
}

/// Result of the Table 4 reproduction.
#[derive(Debug, Clone, Default)]
pub struct Table4 {
    /// Rows, in the paper's order.
    pub rows: Vec<AccuracyRow>,
}

impl Table4 {
    /// The confusion matrix pooled over all rows.
    pub fn overall_matrix(&self) -> ConfusionMatrix {
        let mut pooled = ConfusionMatrix::default();
        for row in &self.rows {
            pooled.merge(&row.matrix);
        }
        pooled
    }

    /// Overall accuracy across all rows.
    pub fn overall_accuracy(&self) -> f64 {
        self.overall_matrix().accuracy()
    }

    /// Serialize the table — rows, per-class precision/recall/F1, and the
    /// pooled rollup — as the `BENCH_table4.json` document CI archives.
    pub fn to_json(&self) -> lfi_json::Value {
        use lfi_json::Value;
        // lfi_json carries no float variant; ratios are stored in permille.
        let metrics_json = |m: &ClassMetrics| {
            Value::Obj(vec![
                (
                    "precision_permille".into(),
                    Value::Int((m.precision * 1000.0).round() as i64),
                ),
                (
                    "recall_permille".into(),
                    Value::Int((m.recall * 1000.0).round() as i64),
                ),
                (
                    "f1_permille".into(),
                    Value::Int((m.f1 * 1000.0).round() as i64),
                ),
            ])
        };
        let matrix_json = |m: &ConfusionMatrix| {
            Value::Obj(vec![
                ("tp".into(), Value::Int(m.true_positives as i64)),
                ("tn".into(), Value::Int(m.true_negatives as i64)),
                ("fp".into(), Value::Int(m.false_positives as i64)),
                ("fn".into(), Value::Int(m.false_negatives as i64)),
                (
                    "accuracy_permille".into(),
                    Value::Int((m.accuracy() * 1000.0).round() as i64),
                ),
                ("unchecked".into(), metrics_json(&m.unchecked_metrics())),
                ("checked".into(), metrics_json(&m.checked_metrics())),
            ])
        };
        let rows = self
            .rows
            .iter()
            .map(|row| {
                Value::Obj(vec![
                    ("program".into(), Value::Str(row.program.clone())),
                    ("function".into(), Value::Str(row.function.clone())),
                    ("matrix".into(), matrix_json(&row.matrix)),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("table".into(), Value::Str("table4_accuracy".into())),
            ("rows".into(), Value::Arr(rows)),
            ("overall".into(), matrix_json(&self.overall_matrix())),
        ])
    }
}

impl fmt::Display for Table4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table 4: call-site analysis accuracy (paper: 83%-100% per row, 1 FP total)"
        )?;
        writeln!(
            f,
            "{:<12} {:<10} {:>7} {:>4} {:>4} {:>9} {:>7} {:>7} {:>7}",
            "system", "function", "TP+TN", "FN", "FP", "accuracy", "prec", "recall", "f1"
        )?;
        for row in &self.rows {
            let unchecked = row.matrix.unchecked_metrics();
            writeln!(
                f,
                "{:<12} {:<10} {:>7} {:>4} {:>4} {:>8.0}% {:>6.0}% {:>6.0}% {:>6.0}%",
                row.program,
                row.function,
                row.correct,
                row.false_negatives,
                row.false_positives,
                row.accuracy * 100.0,
                unchecked.precision * 100.0,
                unchecked.recall * 100.0,
                unchecked.f1 * 100.0,
            )?;
        }
        let overall = self.overall_matrix();
        let unchecked = overall.unchecked_metrics();
        let checked = overall.checked_metrics();
        writeln!(
            f,
            "overall accuracy: {:.1}%  unchecked P/R/F1: {:.1}%/{:.1}%/{:.1}%  \
             checked P/R/F1: {:.1}%/{:.1}%/{:.1}%",
            self.overall_accuracy() * 100.0,
            unchecked.precision * 100.0,
            unchecked.recall * 100.0,
            unchecked.f1 * 100.0,
            checked.precision * 100.0,
            checked.recall * 100.0,
            checked.f1 * 100.0,
        )
    }
}

/// Run the Table 4 experiment.
pub fn table4_accuracy() -> Table4 {
    let controller = standard_controller();
    let profile = controller.profile_libraries();
    let mut result = Table4::default();
    for row in ground_truth() {
        let exe = match row.program {
            "bind-lite" => bind_lite(),
            "git-lite" => git_lite(),
            "bft-lite" => bft_lite(),
            other => panic!("unknown program {other}"),
        };
        let error_codes = profile
            .function(row.function)
            .map(|p| p.error_return_values())
            .unwrap_or_else(|| vec![-1]);
        let report =
            analyze_call_sites(&exe, row.function, &error_codes, AnalysisConfig::default());
        let mut matrix = ConfusionMatrix::default();
        for site in &report.sites {
            let caller = site.caller.clone().unwrap_or_default();
            let really_checked = row.checking_callers.contains(&caller.as_str());
            let says_checked = site.class == CallSiteClass::Checked;
            // Paper orientation: positive = "not checked".
            match (says_checked, really_checked) {
                (true, true) => matrix.true_negatives += 1,
                (false, false) => matrix.true_positives += 1,
                (false, true) => matrix.false_positives += 1,
                (true, false) => matrix.false_negatives += 1,
            }
        }
        result.rows.push(AccuracyRow {
            program: row.program.to_string(),
            function: row.function.to_string(),
            correct: matrix.true_positives + matrix.true_negatives,
            false_negatives: matrix.false_negatives,
            false_positives: matrix.false_positives,
            accuracy: matrix.accuracy(),
            matrix,
        });
    }
    result
}

// ---------------------------------------------------------------------------
// Tables 5 and 6 — the precision/performance trade-off
// ---------------------------------------------------------------------------

/// Result of an overhead sweep: virtual run time (or throughput) per number
/// of triggers.
#[derive(Debug, Clone, Default)]
pub struct OverheadSweep {
    /// Table label.
    pub label: String,
    /// Workload column labels.
    pub workloads: Vec<String>,
    /// Rows: (number of triggers, measurements per workload).
    pub rows: Vec<(usize, Vec<f64>)>,
    /// Whether larger numbers are better (throughput) or worse (run time).
    pub higher_is_better: bool,
}

impl fmt::Display for OverheadSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.label)?;
        write!(f, "{:<14}", "triggers")?;
        for w in &self.workloads {
            write!(f, "{w:>16}")?;
        }
        writeln!(f)?;
        for (count, values) in &self.rows {
            if *count == 0 {
                write!(f, "{:<14}", "baseline")?;
            } else {
                write!(f, "{count:<14}")?;
            }
            for v in values {
                write!(f, "{v:>16.1}")?;
            }
            writeln!(f)?;
        }
        if let (Some(first), Some(last)) = (self.rows.first(), self.rows.last()) {
            for (i, w) in self.workloads.iter().enumerate() {
                let overhead = if self.higher_is_better {
                    (first.1[i] - last.1[i]) / first.1[i] * 100.0
                } else {
                    (last.1[i] - first.1[i]) / first.1[i] * 100.0
                };
                writeln!(
                    f,
                    "  {w}: overhead with all triggers = {overhead:.2}% (paper: negligible, <5%)"
                )?;
            }
        }
        Ok(())
    }
}

/// The Table 5 trigger stack, shared by the Tables 5/6 experiments and
/// perfbench's `triggers` workload.
pub fn httpd_trigger_scenario(trigger_count: usize) -> Scenario {
    let mut scenario = Scenario::new();
    let defs: Vec<TriggerDecl> = vec![
        TriggerDecl {
            id: "t1".into(),
            class: "FdKindTrigger".into(),
            params: BTreeMap::from([
                ("index".to_string(), "0".to_string()),
                (
                    "kind".to_string(),
                    lfi_arch::abi::filekind::REGULAR.to_string(),
                ),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t2".into(),
            class: "CallerFunctionTrigger".into(),
            params: BTreeMap::from([
                ("function".to_string(), "apr_file_read".to_string()),
                ("anywhere".to_string(), "1".to_string()),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t3".into(),
            class: "CallerFunctionTrigger".into(),
            params: BTreeMap::from([
                (
                    "function".to_string(),
                    "ap_process_request_internal".to_string(),
                ),
                ("anywhere".to_string(), "1".to_string()),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t4".into(),
            class: "ProgramStateTrigger".into(),
            params: BTreeMap::from([
                ("variable".to_string(), "requests_done".to_string()),
                ("op".to_string(), ">=".to_string()),
                ("value".to_string(), "0".to_string()),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t5".into(),
            class: "WithMutexTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![],
        },
    ];
    let mut ids = Vec::new();
    for decl in defs.into_iter().take(trigger_count) {
        ids.push(decl.id.clone());
        scenario.triggers.push(decl);
    }
    if trigger_count > 0 {
        scenario.functions.push(FunctionAssoc {
            function: "read".into(),
            argc: 3,
            retval: Some(-1),
            errno: Some(lfi_arch::errno::EIO),
            triggers: ids,
        });
    }
    scenario
}

/// Run the Table 5 experiment: httpd-lite run time with 0-5 triggers, static
/// HTML and PHP workloads. Triggers are evaluated but never inject
/// (`observe_only`), exactly like the paper's measurement methodology.
pub fn table5_apache_overhead() -> OverheadSweep {
    let controller = standard_controller();
    let exe = httpd_lite();
    let mut sweep = OverheadSweep {
        label: "Table 5: httpd-lite virtual run time (kticks) with 0-5 triggers".to_string(),
        workloads: vec!["static HTML".to_string(), "PHP".to_string()],
        higher_is_better: false,
        ..OverheadSweep::default()
    };
    for count in 0..=5 {
        let scenario = httpd_trigger_scenario(count);
        let mut values = Vec::new();
        for kind in ["1", "2"] {
            let config = TestConfig {
                args: vec!["200".to_string(), kind.to_string()],
                observe_only: true,
                ..TestConfig::default()
            };
            let report = controller
                .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
                .expect("httpd run");
            assert!(
                matches!(report.outcome, TestOutcome::Passed),
                "{}",
                report.output
            );
            values.push(report.virtual_time as f64 / 1000.0);
        }
        sweep.rows.push((count, values));
    }
    sweep
}

fn db_scenario(trigger_count: usize) -> Scenario {
    let mut scenario = Scenario::new();
    let defs = vec![
        TriggerDecl {
            id: "t1".into(),
            class: "ArgTrigger".into(),
            params: BTreeMap::from([
                ("index".to_string(), "1".to_string()),
                (
                    "value".to_string(),
                    lfi_arch::abi::fcntlcmd::GETLK.to_string(),
                ),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t2".into(),
            class: "ProgramStateTrigger".into(),
            params: BTreeMap::from([
                ("variable".to_string(), "thread_count".to_string()),
                ("op".to_string(), ">".to_string()),
                ("value".to_string(), "64".to_string()),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t3".into(),
            class: "ProgramStateTrigger".into(),
            params: BTreeMap::from([
                ("variable".to_string(), "shutdown_in_progress".to_string()),
                ("op".to_string(), "==".to_string()),
                ("value".to_string(), "1".to_string()),
            ]),
            frames: vec![],
        },
        TriggerDecl {
            id: "t4".into(),
            class: "CallerFunctionTrigger".into(),
            params: BTreeMap::from([
                ("function".to_string(), "do_txn".to_string()),
                ("anywhere".to_string(), "1".to_string()),
            ]),
            frames: vec![],
        },
    ];
    let mut ids = Vec::new();
    for decl in defs.into_iter().take(trigger_count) {
        ids.push(decl.id.clone());
        scenario.triggers.push(decl);
    }
    if trigger_count > 0 {
        scenario.functions.push(FunctionAssoc {
            function: "fcntl".into(),
            argc: 3,
            retval: Some(-1),
            errno: Some(lfi_arch::errno::EAGAIN),
            triggers: ids,
        });
    }
    scenario
}

/// Run the Table 6 experiment: db-lite OLTP throughput (transactions per
/// million virtual ticks) with 0-4 triggers on `fcntl`.
pub fn table6_mysql_overhead() -> OverheadSweep {
    let controller = standard_controller();
    let exe = db_lite();
    let mut sweep = OverheadSweep {
        label: "Table 6: db-lite OLTP throughput (txns per Mtick) with 0-4 triggers".to_string(),
        workloads: vec!["read-only".to_string(), "read-write".to_string()],
        higher_is_better: true,
        ..OverheadSweep::default()
    };
    for count in 0..=4 {
        let scenario = db_scenario(count);
        let mut values = Vec::new();
        for readonly in ["1", "0"] {
            let txns = 300u64;
            let config = TestConfig {
                args: vec!["oltp".to_string(), txns.to_string(), readonly.to_string()],
                observe_only: true,
                ..TestConfig::default()
            };
            let report = controller
                .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
                .expect("db run");
            assert!(
                matches!(report.outcome, TestOutcome::Passed),
                "{}",
                report.output
            );
            values.push(txns as f64 * 1_000_000.0 / report.virtual_time as f64);
        }
        sweep.rows.push((count, values));
    }
    sweep
}

// ---------------------------------------------------------------------------
// Figure 3 — PBFT slowdown under worsening network conditions
// ---------------------------------------------------------------------------

/// One loss probability of Figure 3, summed over its trials.
#[derive(Debug, Clone, Default)]
pub struct Figure3Point {
    /// Probability that a `sendto` or a steady-state `recvfrom` fails.
    pub probability: f64,
    /// Requests completed.
    pub completed: i64,
    /// Requests issued.
    pub requested: i64,
    /// Replica crashes.
    pub crashes: usize,
    /// Client time per completed request relative to p = 0, or `None`
    /// when no request completed.
    pub slowdown: Option<f64>,
}

/// Result of the Figure 3 reproduction.
#[derive(Debug, Clone, Default)]
pub struct Figure3 {
    /// One point per loss probability, in increasing order.
    pub points: Vec<Figure3Point>,
    /// Trials per point.
    pub trials: u64,
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Figure 3: bft-lite throughput slowdown vs probability of packet loss ({} trials per point; paper peaks at ~4.17x at p=0.99)", self.trials)?;
        writeln!(f, "{:>8} {:>12} {:>10}", "p(loss)", "slowdown", "completed")?;
        for point in &self.points {
            let slowdown = match point.slowdown {
                Some(slowdown) => format!("{slowdown:.2}x"),
                None => "—".to_string(),
            };
            let completed = format!("{}/{}", point.completed, point.requested);
            writeln!(
                f,
                "{:>8.2} {slowdown:>12} {completed:>10}",
                point.probability
            )?;
        }
        Ok(())
    }
}

/// Let `fault` fail each `sendto` and each steady-state `recvfrom` of the
/// bft-lite cluster. The replicas' startup receive in `await_startup`
/// stays out of the scenario: its error return is the seeded
/// pbft-recvfrom bug, so failing it would crash replicas instead of
/// modelling a bad network.
fn network_fault_scenario(fault: TriggerDecl) -> Scenario {
    let caller = |function: &str| TriggerDecl {
        id: function.into(),
        class: "CallerFunctionTrigger".into(),
        params: BTreeMap::from([
            ("function".to_string(), function.to_string()),
            ("anywhere".to_string(), "0".to_string()),
        ]),
        frames: vec![],
    };
    let fault_id = fault.id.clone();
    let mut scenario = Scenario::new()
        .with_trigger(fault)
        .with_trigger(caller("replica_main"))
        .with_trigger(caller("run_request"));
    let failing = |function: &str, triggers: &[&str]| FunctionAssoc {
        function: function.to_string(),
        argc: 5,
        retval: Some(-1),
        errno: Some(lfi_arch::errno::EIO),
        triggers: triggers.iter().map(|t| t.to_string()).collect(),
    };
    scenario.functions.push(failing("sendto", &[&fault_id]));
    scenario
        .functions
        .push(failing("recvfrom", &["replica_main", &fault_id]));
    scenario
        .functions
        .push(failing("recvfrom", &["run_request", &fault_id]));
    scenario
}

/// Lose each `sendto` and each steady-state `recvfrom` with `probability`.
fn loss_scenario(probability: f64, seed: u64) -> Scenario {
    network_fault_scenario(TriggerDecl {
        id: "loss".into(),
        class: "RandomTrigger".into(),
        params: BTreeMap::from([
            ("probability".to_string(), probability.to_string()),
            ("seed".to_string(), seed.to_string()),
        ]),
        frames: vec![],
    })
}

/// Run the Figure 3 experiment.
pub fn figure3_pbft_slowdown() -> Figure3 {
    let probabilities = [0.0, 0.1, 0.8, 0.9, 0.95, 0.99];
    let trials = 3u64;
    let requests = 6usize;
    let mut points = Vec::new();
    let mut baseline_time_per_request = None;
    for &p in &probabilities {
        let mut point = Figure3Point {
            probability: p,
            ..Figure3Point::default()
        };
        let mut client_time = 0u64;
        for trial in 0..trials {
            let result = run_bft_cluster(&BftClusterConfig {
                requests,
                seed: 13 + trial,
                scenario: loss_scenario(p, 77 + trial),
                ..BftClusterConfig::default()
            });
            point.completed += result.completed;
            point.requested += requests as i64;
            point.crashes += result.crashes.len();
            client_time += result.client_time;
        }
        let time_per_request =
            (point.completed > 0).then(|| client_time as f64 / point.completed as f64);
        if p == 0.0 {
            baseline_time_per_request = time_per_request;
        }
        point.slowdown = time_per_request
            .zip(baseline_time_per_request)
            .map(|(time, baseline)| time / baseline);
        points.push(point);
    }
    Figure3 { points, trials }
}

// ---------------------------------------------------------------------------
// §7.3 — denial-of-service study
// ---------------------------------------------------------------------------

/// One attack schedule of the §7.3 DoS study.
#[derive(Debug, Clone)]
pub struct DosRow {
    /// The schedule.
    pub label: String,
    /// Requests per million ticks of the client's clock.
    pub throughput: f64,
    /// Throughput relative to the baseline row, minus one.
    pub change: f64,
    /// Faults the schedule injected, across all nodes.
    pub injections: u64,
    /// Replicas that crashed.
    pub crashes: usize,
}

/// Result of the §7.3 DoS study.
#[derive(Debug, Clone, Default)]
pub struct DosStudy {
    /// One row per schedule, the uninjected baseline first.
    pub rows: Vec<DosRow>,
}

impl fmt::Display for DosStudy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "DoS study (§7.3): bft-lite throughput under distributed-trigger attack schedules"
        )?;
        writeln!(
            f,
            "{:<40} {:>14} {:>12} {:>11} {:>8}",
            "scenario", "throughput", "vs baseline", "injections", "crashes"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<40} {:>14.2} {:>+11.1}% {:>11} {:>8}",
                row.label,
                row.throughput,
                row.change * 100.0,
                row.injections,
                row.crashes
            )?;
        }
        writeln!(
            f,
            "(paper: single-replica blackout +12%, rotating 500-fault bursts -2.2x)"
        )
    }
}

/// Let the distributed trigger's policy fail each `sendto` and each
/// steady-state `recvfrom`.
fn distributed_scenario() -> Scenario {
    network_fault_scenario(TriggerDecl {
        id: "dist".into(),
        class: "DistributedTrigger".into(),
        params: BTreeMap::new(),
        frames: vec![],
    })
}

/// Run the §7.3 DoS study.
pub fn dos_study() -> DosStudy {
    let schedules = [
        (
            "baseline (interception, no injection)",
            DistributedPolicy::Never,
        ),
        (
            "blackout of one backup replica",
            DistributedPolicy::TargetNode { node: 3 },
        ),
        (
            "rotating 50-fault bursts across replicas",
            DistributedPolicy::RotatingBursts {
                nodes: vec![1, 2, 3, 4],
                burst: 50,
            },
        ),
    ];
    let mut rows: Vec<DosRow> = Vec::new();
    for (label, policy) in schedules {
        let controller = DistributedController::new(policy, 9);
        let mut registry = TriggerRegistry::default();
        controller.register(&mut registry);
        let result = run_bft_cluster(&BftClusterConfig {
            requests: 6,
            scenario: distributed_scenario(),
            registry,
            ..BftClusterConfig::default()
        });
        let baseline = rows.first().map_or(result.throughput, |row| row.throughput);
        rows.push(DosRow {
            label: label.to_string(),
            throughput: result.throughput,
            change: if baseline > 0.0 {
                result.throughput / baseline - 1.0
            } else {
                0.0
            },
            injections: result.injections,
            crashes: result.crashes.len(),
        });
    }
    DosStudy { rows }
}

// ---------------------------------------------------------------------------
// §7.2 — analyzer efficiency, and §7.1 random-injection sweep
// ---------------------------------------------------------------------------

/// Analyzer wall-clock timing per target (§7.2: 1-10 seconds on BIND).
#[derive(Debug, Clone, Default)]
pub struct AnalyzerEfficiency {
    /// (target, call sites analyzed, milliseconds) rows.
    pub rows: Vec<(String, usize, f64)>,
}

impl fmt::Display for AnalyzerEfficiency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Analyzer efficiency (§7.2; paper: 1-10 s per target)")?;
        writeln!(
            f,
            "{:<12} {:>12} {:>12}",
            "target", "call sites", "time (ms)"
        )?;
        for (target, sites, ms) in &self.rows {
            writeln!(f, "{target:<12} {sites:>12} {ms:>12.2}")?;
        }
        Ok(())
    }
}

/// Measure the analyzer's running time on every target binary.
pub fn analyzer_efficiency() -> AnalyzerEfficiency {
    let controller = standard_controller();
    let mut result = AnalyzerEfficiency::default();
    for (name, exe) in lfi_targets::all_targets() {
        let start = Instant::now();
        let reports = controller.analyze(&exe);
        let elapsed = start.elapsed().as_secs_f64() * 1000.0;
        let sites: usize = reports.iter().map(|r| r.sites.len()).sum();
        result.rows.push((name.to_string(), sites, elapsed));
    }
    result
}

/// Result of the §7.1 random-injection sweep on db-lite.
#[derive(Debug, Clone, Default)]
pub struct RandomSweep {
    /// Number of test runs.
    pub runs: u64,
    /// Runs that crashed.
    pub crashes: u64,
    /// Distinct crash locations (module + offset of the faulting site).
    pub distinct_crash_sites: usize,
}

impl fmt::Display for RandomSweep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Random injection sweep (§7.1; paper: 1,000 random tests -> 35 distinct MySQL crashes)"
        )?;
        writeln!(
            f,
            "{} runs -> {} crashes at {} distinct sites",
            self.runs, self.crashes, self.distinct_crash_sites
        )
    }
}

/// Run random injections against db-lite and count distinct crash sites.
pub fn random_injection_sweep(runs: u64) -> RandomSweep {
    let controller = standard_controller();
    let exe = db_lite();
    let functions = ["close", "read", "open", "malloc", "write", "fcntl"];
    let mut crashes = 0u64;
    let mut sites = BTreeSet::new();
    for i in 0..runs {
        let function = functions[(i % functions.len() as u64) as usize];
        let mut scenario = Scenario::new().with_trigger(TriggerDecl {
            id: "rnd".into(),
            class: "RandomTrigger".into(),
            params: BTreeMap::from([
                ("probability".to_string(), "0.2".to_string()),
                ("seed".to_string(), (100 + i).to_string()),
            ]),
            frames: vec![],
        });
        scenario.functions.push(FunctionAssoc {
            function: function.to_string(),
            argc: 3,
            retval: Some(if function == "malloc" { 0 } else { -1 }),
            errno: Some(lfi_arch::errno::EIO),
            triggers: vec!["rnd".into()],
        });
        let suite = default_test_suite("db-lite");
        let args = suite[(i % suite.len() as u64) as usize].clone();
        let config = TestConfig {
            args,
            seed: i,
            ..TestConfig::default()
        };
        let report = controller
            .run_test(&exe, &scenario, &mut FsSetupWorkload, &config)
            .expect("run");
        if let Some(fault) = &report.fault {
            crashes += 1;
            sites.insert((fault.module.clone(), fault.offset));
        }
    }
    RandomSweep {
        runs,
        crashes,
        distinct_crash_sites: sites.len(),
    }
}
