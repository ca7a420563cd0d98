//! Interprocedural error-propagation analysis.
//!
//! The intraprocedural pass (Algorithm 1) classifies each call site by the
//! checks visible *inside the calling function*. That misclassifies the
//! classic wrapper pattern: `xmalloc` returns `malloc`'s value untouched and
//! every one of *its* callers checks it, yet the site inside `xmalloc` looks
//! unchecked. This pass resolves such sites by walking the call graph
//! upward: when a call's return value escapes to the containing function's
//! return ([`SiteFinding::escapes_to_caller`](crate::callsite::SiteFinding::escapes_to_caller)), the analysis asks whether
//! every caller of that function checks the forwarded value — recursively,
//! up to [`AnalysisConfig::max_depth`] levels.
//!
//! Every site gets one of four verdicts:
//!
//! | verdict | meaning |
//! |---|---|
//! | [`HandledLocally`] | checked inside the calling function (Algorithm 1 `C_yes`) |
//! | [`PropagatedChecked`] | unchecked locally, but forwarded and checked by every caller chain |
//! | [`PropagatedUnchecked`] | forwarded, and at least one caller chain never checks it |
//! | [`Dropped`] | neither checked nor forwarded — the error is silently discarded |
//!
//! `PropagatedUnchecked` and `Dropped` are the true injection targets;
//! `PropagatedChecked` sites are the wrapper false-positives this pass
//! exists to demote (see `FaultSpace::static_prune` in `lfi_campaign`).
//!
//! [`HandledLocally`]: PropagationVerdict::HandledLocally
//! [`PropagatedChecked`]: PropagationVerdict::PropagatedChecked
//! [`PropagatedUnchecked`]: PropagationVerdict::PropagatedUnchecked
//! [`Dropped`]: PropagationVerdict::Dropped

use std::collections::{BTreeMap, BTreeSet};

use lfi_arch::{Word, INSN_SIZE};
use lfi_obj::Module;

use crate::callgraph::CallGraph;
use crate::callsite::{classify, AnalysisConfig, CallSiteClass, CallSiteReport};
use crate::cfg::{build_function_cfg, build_partial_cfg};
use crate::dataflow::analyze_checks;

/// Where a call site's error return is ultimately handled, if anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum PropagationVerdict {
    /// The calling function checks the error codes itself.
    HandledLocally,
    /// The value escapes to the calling function's return and every caller
    /// chain checks it within the depth bound.
    PropagatedChecked,
    /// The value escapes, but some caller chain never checks it (or the
    /// chain exceeds the depth bound / recurses).
    PropagatedUnchecked,
    /// The value is neither checked nor forwarded: the error vanishes.
    Dropped,
}

impl PropagationVerdict {
    /// Whether the verdict proves the error return is checked somewhere.
    pub fn is_handled(&self) -> bool {
        matches!(
            self,
            PropagationVerdict::HandledLocally | PropagationVerdict::PropagatedChecked
        )
    }
}

/// One call site with its interprocedural verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationFinding {
    /// Code offset of the call instruction in the program module.
    pub offset: u64,
    /// Function containing the call site.
    pub caller: Option<String>,
    /// The intraprocedural classification the verdict refines.
    pub class: CallSiteClass,
    /// The interprocedural verdict.
    pub verdict: PropagationVerdict,
    /// Inherited from the site finding: the classification was computed on a
    /// truncated CFG and must not be trusted for pruning.
    pub low_confidence: bool,
    /// For propagated verdicts: the caller functions the value was traced
    /// through (each level's handlers, deduplicated, in discovery order).
    pub chain: Vec<String>,
}

/// Interprocedural verdicts for every site of one (program, function) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropagationReport {
    /// Target program (module) name.
    pub program: String,
    /// Library function whose call sites were analyzed.
    pub function: String,
    /// The error-code set `E` the verdicts are relative to.
    pub error_codes: Vec<Word>,
    /// Per-site verdicts, in the same order as the underlying
    /// [`CallSiteReport::sites`].
    pub findings: Vec<PropagationFinding>,
}

/// How one *caller* treats a value forwarded to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// Every call site of the wrapper checks (directly or transitively).
    Handled,
    /// Some call site neither checks nor safely forwards.
    Unhandled,
}

/// Memoized upward walk over the call graph.
struct Propagator<'a> {
    modules: BTreeMap<&'a str, &'a Module>,
    graph: &'a CallGraph,
    config: AnalysisConfig,
    /// Disposition cache per (function, error-code set). The error codes are
    /// part of the key because one wrapper may forward values from several
    /// library functions with different `E` sets.
    memo: BTreeMap<(String, Vec<Word>), Disposition>,
}

impl<'a> Propagator<'a> {
    fn new(modules: &'a [&'a Module], graph: &'a CallGraph, config: AnalysisConfig) -> Self {
        Propagator {
            modules: modules.iter().map(|m| (m.name.as_str(), *m)).collect(),
            graph,
            config,
            memo: BTreeMap::new(),
        }
    }

    /// Do all callers of `function` handle a value it forwards to them?
    /// `visiting` carries the recursion stack for cycle detection; a cycle
    /// is conservatively unhandled.
    fn caller_disposition(
        &mut self,
        function: &str,
        error_codes: &[Word],
        depth: usize,
        visiting: &mut BTreeSet<String>,
        chain: &mut Vec<String>,
    ) -> Disposition {
        let key = (function.to_string(), error_codes.to_vec());
        if let Some(&cached) = self.memo.get(&key) {
            return cached;
        }
        if depth >= self.config.max_depth || !visiting.insert(function.to_string()) {
            return Disposition::Unhandled;
        }
        let callers = self.graph.callers_of(function);
        let mut disposition = if callers.is_empty() {
            // Nobody consumes the wrapper's return value: the escaping error
            // has no handler anywhere.
            Disposition::Unhandled
        } else {
            Disposition::Handled
        };
        for site in callers {
            let Some(module) = self.modules.get(site.module.as_str()).copied() else {
                disposition = Disposition::Unhandled;
                break;
            };
            let entry = site.offset + INSN_SIZE;
            let cfg = match self.config.window {
                Some(window) => build_partial_cfg(module, entry, window),
                None => build_function_cfg(module, entry),
            };
            let summary = analyze_checks(&cfg);
            if classify(&summary, error_codes) == CallSiteClass::Checked {
                if let Some(caller) = &site.caller {
                    if !chain.contains(caller) {
                        chain.push(caller.clone());
                    }
                }
                continue;
            }
            if summary.returns_tracked {
                if let Some(caller) = site.caller.clone() {
                    if self.caller_disposition(&caller, error_codes, depth + 1, visiting, chain)
                        == Disposition::Handled
                    {
                        continue;
                    }
                }
            }
            disposition = Disposition::Unhandled;
            break;
        }
        visiting.remove(function);
        // Cache only clean (non-stack-dependent) results: when the walk was
        // cut by a cycle the answer depends on where the walk started.
        if visiting.is_empty() || disposition == Disposition::Handled {
            self.memo.insert(key, disposition);
        }
        disposition
    }
}

/// Refine a batch of intraprocedural reports into propagation verdicts.
///
/// `modules` is the set the call graph is built over — normally the target
/// program alone; include library modules too when cross-module wrappers
/// matter. Reports whose `program` is not among `modules` are skipped.
pub fn propagation_reports(
    modules: &[&Module],
    reports: &[CallSiteReport],
    config: AnalysisConfig,
) -> Vec<PropagationReport> {
    let mut sorted: Vec<&Module> = modules.to_vec();
    sorted.sort_by(|a, b| a.name.cmp(&b.name));
    let graph = CallGraph::build(&sorted);
    let mut propagator = Propagator::new(&sorted, &graph, config);
    let mut out = Vec::new();
    for report in reports {
        if !sorted.iter().any(|m| m.name == report.program) {
            continue;
        }
        let mut findings = Vec::new();
        for site in &report.sites {
            let mut chain = Vec::new();
            let verdict = if site.class == CallSiteClass::Checked {
                PropagationVerdict::HandledLocally
            } else if !site.escapes_to_caller {
                PropagationVerdict::Dropped
            } else if let Some(caller) = &site.caller {
                let mut visiting = BTreeSet::new();
                match propagator.caller_disposition(
                    caller,
                    &report.error_codes,
                    0,
                    &mut visiting,
                    &mut chain,
                ) {
                    Disposition::Handled => PropagationVerdict::PropagatedChecked,
                    Disposition::Unhandled => PropagationVerdict::PropagatedUnchecked,
                }
            } else {
                PropagationVerdict::PropagatedUnchecked
            };
            findings.push(PropagationFinding {
                offset: site.offset,
                caller: site.caller.clone(),
                class: site.class,
                verdict,
                low_confidence: site.low_confidence,
                chain,
            });
        }
        out.push(PropagationReport {
            program: report.program.clone(),
            function: report.function.clone(),
            error_codes: report.error_codes.clone(),
            findings,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use lfi_cc::Compiler;
    use lfi_obj::ModuleKind;

    use crate::callsite::analyze_call_sites;

    use super::*;

    fn compile(name: &str, src: &str) -> Module {
        Compiler::new(name, ModuleKind::SharedLib)
            .add_source("t.c", src)
            .compile()
            .unwrap()
    }

    fn verdicts_for(module: &Module, function: &str, error_codes: &[Word]) -> PropagationReport {
        let config = AnalysisConfig::default();
        let report = analyze_call_sites(module, function, error_codes, config);
        propagation_reports(&[module], &[report], config)
            .pop()
            .unwrap()
    }

    fn finding_in<'a>(report: &'a PropagationReport, caller: &str) -> &'a PropagationFinding {
        report
            .findings
            .iter()
            .find(|f| f.caller.as_deref() == Some(caller))
            .unwrap()
    }

    #[test]
    fn wrapper_checked_by_all_callers_is_propagated_checked() {
        // The xmalloc pattern: the wrapper forwards malloc's value, and both
        // of its callers check it. Intraprocedurally the wrapper site is
        // Unchecked; interprocedurally it is PropagatedChecked.
        let m = compile(
            "prog",
            r#"
            int xmalloc(int n) {
                return malloc(n);
            }
            int a() {
                int p = xmalloc(8);
                if (p == 0) { return -1; }
                return 0;
            }
            int b() {
                int p = xmalloc(16);
                if (p == 0) { return -2; }
                return 0;
            }
            "#,
        );
        let report = verdicts_for(&m, "malloc", &[0]);
        let wrapper = finding_in(&report, "xmalloc");
        assert_eq!(wrapper.class, CallSiteClass::Unchecked);
        assert_eq!(wrapper.verdict, PropagationVerdict::PropagatedChecked);
        assert_eq!(wrapper.chain, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn one_careless_caller_makes_it_propagated_unchecked() {
        let m = compile(
            "prog",
            r#"
            int xmalloc(int n) {
                return malloc(n);
            }
            int good() {
                int p = xmalloc(8);
                if (p == 0) { return -1; }
                return 0;
            }
            int careless() {
                int p = xmalloc(16);
                *p = 1;
                return 0;
            }
            "#,
        );
        let report = verdicts_for(&m, "malloc", &[0]);
        assert_eq!(
            finding_in(&report, "xmalloc").verdict,
            PropagationVerdict::PropagatedUnchecked
        );
    }

    #[test]
    fn locally_checked_sites_are_handled_locally() {
        let m = compile(
            "prog",
            r#"
            int f() {
                int p = malloc(8);
                if (p == 0) { return -1; }
                return 0;
            }
            "#,
        );
        let report = verdicts_for(&m, "malloc", &[0]);
        let finding = finding_in(&report, "f");
        assert_eq!(finding.verdict, PropagationVerdict::HandledLocally);
        assert!(finding.verdict.is_handled());
    }

    #[test]
    fn discarded_values_are_dropped() {
        let m = compile(
            "prog",
            r#"
            int f() {
                int fd = open("/x", O_RDONLY, 0);
                close(fd);
                return 0;
            }
            "#,
        );
        let report = verdicts_for(&m, "open", &[-1]);
        let finding = finding_in(&report, "f");
        assert_eq!(finding.verdict, PropagationVerdict::Dropped);
        assert!(!finding.verdict.is_handled());
    }

    #[test]
    fn wrapper_with_no_callers_is_propagated_unchecked() {
        let m = compile(
            "prog",
            r#"
            int orphan_wrapper(int n) {
                return malloc(n);
            }
            "#,
        );
        let report = verdicts_for(&m, "malloc", &[0]);
        assert_eq!(
            finding_in(&report, "orphan_wrapper").verdict,
            PropagationVerdict::PropagatedUnchecked
        );
    }

    #[test]
    fn two_level_wrapper_chains_resolve() {
        // inner forwards to outer, outer forwards to the real callers.
        let m = compile(
            "prog",
            r#"
            int inner(int n) {
                return malloc(n);
            }
            int outer(int n) {
                return inner(n);
            }
            int user() {
                int p = outer(8);
                if (p == 0) { return -1; }
                return 0;
            }
            "#,
        );
        let report = verdicts_for(&m, "malloc", &[0]);
        let finding = finding_in(&report, "inner");
        assert_eq!(finding.verdict, PropagationVerdict::PropagatedChecked);
        assert!(finding.chain.contains(&"user".to_string()));
    }

    #[test]
    fn recursion_is_conservatively_unhandled() {
        // spin's only caller is itself, forwarding the value in a cycle that
        // never checks it.
        let m = compile(
            "prog",
            r#"
            int spin(int n) {
                if (n > 0) { return spin(n - 1); }
                return malloc(n);
            }
            "#,
        );
        let report = verdicts_for(&m, "malloc", &[0]);
        assert_eq!(
            finding_in(&report, "spin").verdict,
            PropagationVerdict::PropagatedUnchecked
        );
    }

    #[test]
    fn depth_bound_limits_the_walk() {
        let m = compile(
            "prog",
            r#"
            int w1(int n) { return malloc(n); }
            int w2(int n) { return w1(n); }
            int w3(int n) { return w2(n); }
            int user() {
                int p = w3(8);
                if (p == 0) { return -1; }
                return 0;
            }
            "#,
        );
        let shallow = AnalysisConfig {
            max_depth: 1,
            ..AnalysisConfig::default()
        };
        let sites = analyze_call_sites(&m, "malloc", &[0], shallow);
        let report = propagation_reports(&[&m], &[sites], shallow).pop().unwrap();
        assert_eq!(
            finding_in(&report, "w1").verdict,
            PropagationVerdict::PropagatedUnchecked,
            "depth 1 cannot see past w2"
        );
        let deep = verdicts_for(&m, "malloc", &[0]);
        assert_eq!(
            finding_in(&deep, "w1").verdict,
            PropagationVerdict::PropagatedChecked,
            "default depth resolves the full chain"
        );
    }
}
