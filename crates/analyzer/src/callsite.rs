//! Call-site classification (Algorithm 1) and accuracy accounting (Table 4).

use std::collections::BTreeSet;

use lfi_arch::{Word, INSN_SIZE};
use lfi_obj::Module;
use lfi_profiler::FaultProfile;

use crate::cfg::{build_function_cfg, build_partial_cfg};
use crate::dataflow::{analyze_checks, CheckSummary};

/// Analyzer configuration.
#[derive(Debug, Clone, Copy)]
pub struct AnalysisConfig {
    /// Number of post-call instructions included in the partial CFG, or
    /// `None` to walk the full function (the default). The paper's windowed
    /// mode (`Some(100)`) is kept for fidelity experiments; a windowed walk
    /// that actually hits its budget marks its findings low-confidence.
    pub window: Option<usize>,
    /// Maximum caller-chain depth followed by the interprocedural
    /// propagation pass (see [`crate::propagation`]).
    pub max_depth: usize,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            window: None,
            max_depth: 4,
        }
    }
}

/// Classification of one call site, following Algorithm 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallSiteClass {
    /// All error codes are checked (`C_yes`).
    Checked,
    /// Only some error codes are checked (`C_part`).
    PartiallyChecked,
    /// No error code is checked (`C_not`).
    Unchecked,
}

/// One analyzed call site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteFinding {
    /// Code offset of the `callsym` instruction in the target binary.
    pub offset: u64,
    /// Name of the function containing the call site, if known.
    pub caller: Option<String>,
    /// Source file and line of the call site, if debug info is present.
    pub source: Option<(String, u32)>,
    /// Classification.
    pub class: CallSiteClass,
    /// Error codes found checked by equality.
    pub checked_eq: Vec<Word>,
    /// Literals found checked by inequality.
    pub checked_ineq: Vec<Word>,
    /// Instructions in the CFG the classification was computed over.
    pub cfg_insns: usize,
    /// The CFG walk was cut short by its instruction budget: the class is a
    /// verdict about a *prefix* of the post-call code and must not be treated
    /// as definitive (a check may sit just past the truncation point).
    pub low_confidence: bool,
    /// The call's return value can reach a `ret` of the containing function
    /// untouched — the containing function may hand it to its own callers
    /// (the wrapper shape the propagation pass resolves).
    pub escapes_to_caller: bool,
}

/// The analysis result for one (program, library function) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSiteReport {
    /// Target program (module) name.
    pub program: String,
    /// Library function analyzed.
    pub function: String,
    /// The error-code set `E` used for classification.
    pub error_codes: Vec<Word>,
    /// Per-site findings, ordered by code offset.
    pub sites: Vec<SiteFinding>,
}

impl CallSiteReport {
    /// Sites classified as fully checked.
    pub fn checked(&self) -> Vec<&SiteFinding> {
        self.sites
            .iter()
            .filter(|s| s.class == CallSiteClass::Checked)
            .collect()
    }

    /// Sites classified as partially checked.
    pub fn partially_checked(&self) -> Vec<&SiteFinding> {
        self.sites
            .iter()
            .filter(|s| s.class == CallSiteClass::PartiallyChecked)
            .collect()
    }

    /// Sites classified as completely unchecked.
    pub fn unchecked(&self) -> Vec<&SiteFinding> {
        self.sites
            .iter()
            .filter(|s| s.class == CallSiteClass::Unchecked)
            .collect()
    }

    /// Iterate over the sites with a given classification.
    pub fn sites_with_class(&self, class: CallSiteClass) -> impl Iterator<Item = &SiteFinding> {
        self.sites.iter().filter(move |s| s.class == class)
    }
}

/// Iterate over every `(function, site)` pair of a batch of reports — the
/// flattened view campaign engines annotate their fault space from.
pub fn iter_sites(
    reports: &[CallSiteReport],
) -> impl Iterator<Item = (&CallSiteReport, &SiteFinding)> {
    reports
        .iter()
        .flat_map(|r| r.sites.iter().map(move |s| (r, s)))
}

/// Iterate over every unchecked `(function, site)` pair of a batch of
/// reports — the paper's prime injection targets.
pub fn unchecked_sites(
    reports: &[CallSiteReport],
) -> impl Iterator<Item = (&CallSiteReport, &SiteFinding)> {
    iter_sites(reports).filter(|(_, s)| s.class == CallSiteClass::Unchecked)
}

/// Classify a check summary against the error-code set `E`, per Algorithm 1.
pub fn classify(summary: &CheckSummary, error_codes: &[Word]) -> CallSiteClass {
    let eq_in_e: BTreeSet<Word> = summary
        .chk_eq
        .iter()
        .copied()
        .filter(|v| error_codes.contains(v))
        .collect();
    let covers_all = !error_codes.is_empty() && error_codes.iter().all(|e| eq_in_e.contains(e));
    if covers_all || !summary.chk_ineq.is_empty() {
        CallSiteClass::Checked
    } else if !eq_in_e.is_empty() {
        CallSiteClass::PartiallyChecked
    } else {
        CallSiteClass::Unchecked
    }
}

/// Analyze every call site of `function` in `program`, classifying each
/// against the error codes `error_codes` (usually taken from the library's
/// fault profile).
pub fn analyze_call_sites(
    program: &Module,
    function: &str,
    error_codes: &[Word],
    config: AnalysisConfig,
) -> CallSiteReport {
    let mut sites = Vec::new();
    for offset in program.call_sites_of(function) {
        let entry = offset + INSN_SIZE;
        let cfg = match config.window {
            Some(window) => build_partial_cfg(program, entry, window),
            None => build_function_cfg(program, entry),
        };
        let summary = analyze_checks(&cfg);
        let class = classify(&summary, error_codes);
        sites.push(SiteFinding {
            offset,
            caller: program.containing_function(offset).map(|e| e.name.clone()),
            source: program
                .line_for_offset(offset)
                .map(|(f, l)| (f.to_string(), l)),
            class,
            checked_eq: summary.chk_eq.iter().copied().collect(),
            checked_ineq: summary.chk_ineq.iter().copied().collect(),
            cfg_insns: cfg.insn_count(),
            low_confidence: cfg.truncated,
            escapes_to_caller: summary.returns_tracked,
        });
    }
    CallSiteReport {
        program: program.name.clone(),
        function: function.to_string(),
        error_codes: error_codes.to_vec(),
        sites,
    }
}

/// Analyze all imported functions of a program that appear in a library fault
/// profile, producing one report per function that has at least one call site.
pub fn analyze_program(
    program: &Module,
    profile: &FaultProfile,
    config: AnalysisConfig,
) -> Vec<CallSiteReport> {
    let mut reports = Vec::new();
    for function in program.imported_functions() {
        let Some(func_profile) = profile.function(&function) else {
            continue;
        };
        let error_codes = func_profile.error_return_values();
        if error_codes.is_empty() {
            continue;
        }
        let report = analyze_call_sites(program, &function, &error_codes, config);
        if !report.sites.is_empty() {
            reports.push(report);
        }
    }
    reports
}

/// Precision / recall / F1 of one class of a binary classification.
///
/// The empty-denominator convention matches [`ConfusionMatrix::accuracy`]: a
/// metric whose denominator is zero (no predictions, or no actual members of
/// the class) is reported as a vacuous `1.0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassMetrics {
    /// Of the sites assigned to this class, the fraction that belong to it.
    pub precision: f64,
    /// Of the sites belonging to this class, the fraction assigned to it.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl ClassMetrics {
    fn from_counts(tp: usize, fp: usize, fn_: usize) -> ClassMetrics {
        let ratio = |num: usize, den: usize| {
            if den == 0 {
                1.0
            } else {
                num as f64 / den as f64
            }
        };
        let precision = ratio(tp, tp + fp);
        let recall = ratio(tp, tp + fn_);
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        ClassMetrics {
            precision,
            recall,
            f1,
        }
    }
}

/// Confusion matrix for injection-target identification, with the paper's
/// orientation: a *positive* is "the analyzer says the error return is not
/// checked".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Analyzer says unchecked, and the site really does not check.
    pub true_positives: usize,
    /// Analyzer says checked, and the site really checks.
    pub true_negatives: usize,
    /// Analyzer says unchecked, but the site actually checks.
    pub false_positives: usize,
    /// Analyzer says checked, but the site actually does not check.
    pub false_negatives: usize,
}

impl ConfusionMatrix {
    /// Accuracy as defined in §7.2 of the paper.
    pub fn accuracy(&self) -> f64 {
        let total =
            self.true_positives + self.true_negatives + self.false_positives + self.false_negatives;
        if total == 0 {
            return 1.0;
        }
        (self.true_positives + self.true_negatives) as f64 / total as f64
    }

    /// Metrics of the positive ("unchecked") class.
    pub fn unchecked_metrics(&self) -> ClassMetrics {
        ClassMetrics::from_counts(
            self.true_positives,
            self.false_positives,
            self.false_negatives,
        )
    }

    /// Metrics of the negative ("checked") class.
    pub fn checked_metrics(&self) -> ClassMetrics {
        ClassMetrics::from_counts(
            self.true_negatives,
            self.false_negatives,
            self.false_positives,
        )
    }

    /// Merge another matrix's counts into this one (for program-level and
    /// overall Table 4 rollups).
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.true_positives += other.true_positives;
        self.true_negatives += other.true_negatives;
        self.false_positives += other.false_positives;
        self.false_negatives += other.false_negatives;
    }
}

/// Compare a report against ground truth: the set of call-site offsets that
/// truly check their error return (everything else truly does not).
pub fn confusion_matrix(report: &CallSiteReport, truly_checked: &BTreeSet<u64>) -> ConfusionMatrix {
    let mut m = ConfusionMatrix::default();
    for site in &report.sites {
        let says_checked = site.class == CallSiteClass::Checked;
        let really_checked = truly_checked.contains(&site.offset);
        match (says_checked, really_checked) {
            (true, true) => m.true_negatives += 1,
            (false, false) => m.true_positives += 1,
            (false, true) => m.false_positives += 1,
            (true, false) => m.false_negatives += 1,
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use lfi_cc::Compiler;
    use lfi_obj::ModuleKind;

    use super::*;

    fn compile(src: &str) -> Module {
        Compiler::new("target", ModuleKind::SharedLib)
            .add_source("target.c", src)
            .compile()
            .unwrap()
    }

    #[test]
    fn classifies_checked_partial_and_unchecked_sites() {
        let module = compile(
            r#"
            int fully_checked() {
                int fd = open("/a", O_RDONLY, 0);
                if (fd == -1) { return -1; }
                return fd;
            }
            int inequality_checked() {
                int fd = open("/b", O_RDONLY, 0);
                if (fd < 0) { return -1; }
                return fd;
            }
            int unchecked() {
                int fd = open("/c", O_RDONLY, 0);
                close(fd);
                return 0;
            }
            "#,
        );
        let report = analyze_call_sites(&module, "open", &[-1], AnalysisConfig::default());
        assert_eq!(report.sites.len(), 3);
        assert_eq!(report.sites[0].class, CallSiteClass::Checked);
        assert_eq!(report.sites[1].class, CallSiteClass::Checked);
        assert_eq!(report.sites[2].class, CallSiteClass::Unchecked);
        assert_eq!(report.checked().len(), 2);
        assert_eq!(report.unchecked().len(), 1);
        assert_eq!(
            report.sites[0].caller.as_deref(),
            Some("fully_checked"),
            "caller attribution"
        );
        for site in &report.sites {
            assert!(!site.low_confidence, "full-function walks are definitive");
            assert!(site.cfg_insns > 0);
        }
    }

    #[test]
    fn truncated_walks_are_flagged_low_confidence() {
        // A two-instruction window cannot reach the check, so the site is
        // (wrongly) classified unchecked — but the finding says so itself.
        let module = compile(
            r#"
            int f() {
                int fd = open("/a", O_RDONLY, 0);
                if (fd == -1) { return -1; }
                return fd;
            }
            "#,
        );
        let windowed = AnalysisConfig {
            window: Some(2),
            ..AnalysisConfig::default()
        };
        let report = analyze_call_sites(&module, "open", &[-1], windowed);
        assert!(report.sites[0].low_confidence);
        assert_eq!(report.sites[0].cfg_insns, 2);
        let full = analyze_call_sites(&module, "open", &[-1], AnalysisConfig::default());
        assert!(!full.sites[0].low_confidence);
        assert_eq!(full.sites[0].class, CallSiteClass::Checked);
    }

    #[test]
    fn partial_checks_are_detected_with_multiple_error_codes() {
        // read's profile is {-1}; simulate a function whose error set is
        // {-1, 0} (e.g. an API returning 0 or -1 on different failures): the
        // caller checks only one of them.
        let module = compile(
            r#"
            int partially() {
                int n = recv_message(5);
                if (n == -1) { return 1; }
                return n;
            }
            "#,
        );
        let report =
            analyze_call_sites(&module, "recv_message", &[-1, 0], AnalysisConfig::default());
        assert_eq!(report.sites[0].class, CallSiteClass::PartiallyChecked);
    }

    #[test]
    fn null_pointer_checks_on_malloc_are_recognized() {
        let module = compile(
            r#"
            int good() {
                int p = malloc(64);
                if (p == 0) { return -1; }
                *p = 1;
                return 0;
            }
            int bad() {
                int p = malloc(64);
                *p = 1;
                return 0;
            }
            "#,
        );
        let report = analyze_call_sites(&module, "malloc", &[0], AnalysisConfig::default());
        assert_eq!(report.sites[0].class, CallSiteClass::Checked);
        assert_eq!(report.sites[1].class, CallSiteClass::Unchecked);
    }

    #[test]
    fn checks_of_unrelated_constants_do_not_count() {
        // The caller compares the return value against 7, which is not an
        // error code: Algorithm 1 line 10 sends this to C_not.
        let module = compile(
            r#"
            int weird() {
                int n = read(0, 0, 16);
                if (n == 7) { return 1; }
                return 0;
            }
            "#,
        );
        let report = analyze_call_sites(&module, "read", &[-1], AnalysisConfig::default());
        assert_eq!(report.sites[0].class, CallSiteClass::Unchecked);
    }

    #[test]
    fn wrapper_return_sites_are_marked_escaping() {
        let module = compile(
            r#"
            int xmalloc(int n) {
                return malloc(n);
            }
            int local_user() {
                int p = malloc(8);
                *p = 1;
                return 0;
            }
            "#,
        );
        let report = analyze_call_sites(&module, "malloc", &[0], AnalysisConfig::default());
        let by_caller = |name: &str| {
            report
                .sites
                .iter()
                .find(|s| s.caller.as_deref() == Some(name))
                .unwrap()
        };
        let wrapper = by_caller("xmalloc");
        assert_eq!(wrapper.class, CallSiteClass::Unchecked);
        assert!(wrapper.escapes_to_caller, "return malloc(n) escapes");
        let user = by_caller("local_user");
        assert!(!user.escapes_to_caller, "value consumed locally");
    }

    #[test]
    fn analyze_program_uses_the_fault_profile() {
        let module = compile(
            r#"
            int f() {
                int p = malloc(8);
                if (p == 0) { return -1; }
                int fd = open("/x", O_RDONLY, 0);
                return fd;
            }
            "#,
        );
        let libc = lfi_libc::build();
        let profile = lfi_profiler::profile_library(&libc);
        let reports = analyze_program(&module, &profile, AnalysisConfig::default());
        let funcs: Vec<&str> = reports.iter().map(|r| r.function.as_str()).collect();
        assert!(funcs.contains(&"malloc"));
        assert!(funcs.contains(&"open"));
        let open_report = reports.iter().find(|r| r.function == "open").unwrap();
        assert_eq!(open_report.sites[0].class, CallSiteClass::Unchecked);
        let malloc_report = reports.iter().find(|r| r.function == "malloc").unwrap();
        assert_eq!(malloc_report.sites[0].class, CallSiteClass::Checked);
    }

    #[test]
    fn site_iteration_flattens_reports() {
        let module = compile(
            r#"
            int a() { int fd = open("/a", O_RDONLY, 0); if (fd == -1) { return 1; } return 0; }
            int b() { int fd = open("/b", O_RDONLY, 0); return fd; }
            "#,
        );
        let reports = vec![analyze_call_sites(
            &module,
            "open",
            &[-1],
            AnalysisConfig::default(),
        )];
        assert_eq!(iter_sites(&reports).count(), 2);
        let unchecked: Vec<_> = unchecked_sites(&reports).collect();
        assert_eq!(unchecked.len(), 1);
        assert_eq!(unchecked[0].0.function, "open");
        assert_eq!(unchecked[0].1.caller.as_deref(), Some("b"));
        assert_eq!(
            reports[0].sites_with_class(CallSiteClass::Checked).count(),
            1
        );
    }

    #[test]
    fn confusion_matrix_and_accuracy() {
        let module = compile(
            r#"
            int a() { int fd = open("/a", O_RDONLY, 0); if (fd == -1) { return 1; } return 0; }
            int b() { int fd = open("/b", O_RDONLY, 0); return fd; }
            "#,
        );
        let report = analyze_call_sites(&module, "open", &[-1], AnalysisConfig::default());
        let truly_checked: BTreeSet<u64> = report
            .sites
            .iter()
            .filter(|s| s.caller.as_deref() == Some("a"))
            .map(|s| s.offset)
            .collect();
        let m = confusion_matrix(&report, &truly_checked);
        assert_eq!(m.true_negatives, 1);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.false_positives, 0);
        assert_eq!(m.false_negatives, 0);
        assert!((m.accuracy() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn per_class_precision_recall_f1() {
        let m = ConfusionMatrix {
            true_positives: 3,
            true_negatives: 4,
            false_positives: 1,
            false_negatives: 2,
        };
        let unchecked = m.unchecked_metrics();
        assert!((unchecked.precision - 0.75).abs() < 1e-9);
        assert!((unchecked.recall - 0.6).abs() < 1e-9);
        assert!((unchecked.f1 - 2.0 * 0.75 * 0.6 / 1.35).abs() < 1e-9);
        let checked = m.checked_metrics();
        assert!((checked.precision - 4.0 / 6.0).abs() < 1e-9);
        assert!((checked.recall - 0.8).abs() < 1e-9);
        // A perfect matrix reports vacuous 1.0 everywhere.
        let perfect = ConfusionMatrix {
            true_positives: 2,
            true_negatives: 2,
            ..ConfusionMatrix::default()
        };
        assert_eq!(perfect.unchecked_metrics().f1, 1.0);
        assert_eq!(perfect.checked_metrics().f1, 1.0);
        // Merging accumulates counts.
        let mut acc = ConfusionMatrix::default();
        acc.merge(&m);
        acc.merge(&perfect);
        assert_eq!(acc.true_positives, 5);
        assert_eq!(acc.true_negatives, 6);
    }
}
