//! Machine-readable analysis findings and baseline diffing.
//!
//! `lfi_analyze` (in `lfi_bench`) serializes one [`TargetFindings`] document
//! per target program. CI commits these under `analysis/baselines/` and
//! diffs freshly computed findings against them on every build: a site whose
//! verdict *worsens* (handled → unhandled) or a brand-new unhandled site
//! fails the gate, while improvements and benign shifts pass.
//!
//! Sites are keyed by `(function, caller, ordinal)` — the ordinal is the
//! site's index among the sites sharing its `(function, caller)` pair — so
//! the diff is stable across unrelated code motion that only shifts offsets.

use lfi_arch::Word;
use lfi_json::{JsonError, Value};

use crate::callsite::{CallSiteClass, CallSiteReport};
use crate::propagation::{PropagationReport, PropagationVerdict};

/// One call site in findings form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteRecord {
    /// Library function called.
    pub function: String,
    /// Function containing the call site.
    pub caller: Option<String>,
    /// Index among the sites sharing this `(function, caller)` pair, in
    /// code-offset order — the offset-independent part of the site key.
    pub ordinal: usize,
    /// Code offset (informational; not part of the diff key).
    pub offset: u64,
    /// Intraprocedural classification.
    pub class: CallSiteClass,
    /// Interprocedural verdict.
    pub verdict: PropagationVerdict,
    /// The classification came from a truncated CFG.
    pub low_confidence: bool,
    /// Instructions in the site's CFG.
    pub cfg_insns: usize,
    /// Caller chain that handles the value, for propagated-checked sites.
    pub chain: Vec<String>,
    /// Error codes found checked by equality.
    pub checked_eq: Vec<Word>,
    /// Literals found checked by inequality.
    pub checked_ineq: Vec<Word>,
}

impl SiteRecord {
    fn key(&self) -> (String, Option<String>, usize) {
        (self.function.clone(), self.caller.clone(), self.ordinal)
    }
}

/// The complete findings for one target program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TargetFindings {
    /// Target program name.
    pub target: String,
    /// Per-site records, ordered by (function, offset).
    pub sites: Vec<SiteRecord>,
}

impl TargetFindings {
    /// Join intraprocedural reports with their propagation refinements into
    /// one findings document. The two slices must be parallel (as produced
    /// by `analyze_program` + `propagation_reports`).
    pub fn collect(
        target: &str,
        reports: &[CallSiteReport],
        propagation: &[PropagationReport],
    ) -> TargetFindings {
        let mut sites = Vec::new();
        for report in reports {
            let verdicts = propagation
                .iter()
                .find(|p| p.function == report.function && p.program == report.program);
            for (index, site) in report.sites.iter().enumerate() {
                let finding = verdicts.and_then(|p| p.findings.get(index));
                let ordinal = report.sites[..index]
                    .iter()
                    .filter(|s| s.caller == site.caller)
                    .count();
                sites.push(SiteRecord {
                    function: report.function.clone(),
                    caller: site.caller.clone(),
                    ordinal,
                    offset: site.offset,
                    class: site.class,
                    verdict: finding.map(|f| f.verdict).unwrap_or_else(|| {
                        if site.class == CallSiteClass::Checked {
                            PropagationVerdict::HandledLocally
                        } else {
                            PropagationVerdict::Dropped
                        }
                    }),
                    low_confidence: site.low_confidence,
                    cfg_insns: site.cfg_insns,
                    chain: finding.map(|f| f.chain.clone()).unwrap_or_default(),
                    checked_eq: site.checked_eq.clone(),
                    checked_ineq: site.checked_ineq.clone(),
                });
            }
        }
        TargetFindings {
            target: target.to_string(),
            sites,
        }
    }

    /// Sites whose verdict leaves the error return unhandled.
    pub fn unhandled(&self) -> impl Iterator<Item = &SiteRecord> {
        self.sites.iter().filter(|s| !s.verdict.is_handled())
    }

    /// Serialize to pretty JSON (the baseline file format).
    pub fn to_json(&self) -> String {
        let sites = self
            .sites
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("function".to_string(), Value::Str(s.function.clone())),
                    (
                        "caller".to_string(),
                        s.caller.clone().map_or(Value::Null, Value::Str),
                    ),
                    ("ordinal".to_string(), Value::Int(s.ordinal as i64)),
                    ("offset".to_string(), Value::Int(s.offset as i64)),
                    ("class".to_string(), Value::Str(class_str(s.class).into())),
                    (
                        "verdict".to_string(),
                        Value::Str(verdict_str(s.verdict).into()),
                    ),
                    ("low_confidence".to_string(), Value::Bool(s.low_confidence)),
                    ("cfg_insns".to_string(), Value::Int(s.cfg_insns as i64)),
                    (
                        "chain".to_string(),
                        Value::Arr(s.chain.iter().cloned().map(Value::Str).collect()),
                    ),
                    (
                        "checked_eq".to_string(),
                        Value::Arr(s.checked_eq.iter().map(|&v| Value::Int(v)).collect()),
                    ),
                    (
                        "checked_ineq".to_string(),
                        Value::Arr(s.checked_ineq.iter().map(|&v| Value::Int(v)).collect()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            ("target".to_string(), Value::Str(self.target.clone())),
            ("sites".to_string(), Value::Arr(sites)),
        ])
        .to_pretty()
    }

    /// Parse a findings document back from its JSON form.
    pub fn from_json(text: &str) -> Result<TargetFindings, JsonError> {
        fn invalid(message: impl Into<String>) -> JsonError {
            JsonError {
                position: 0,
                message: message.into(),
            }
        }
        let doc = lfi_json::parse(text)?;
        let target = doc
            .get("target")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("missing string field `target`"))?
            .to_string();
        let raw_sites = doc
            .get("sites")
            .and_then(Value::as_arr)
            .ok_or_else(|| invalid("missing array field `sites`"))?;
        let mut sites = Vec::new();
        for entry in raw_sites {
            let function = entry
                .get("function")
                .and_then(Value::as_str)
                .ok_or_else(|| invalid("site missing `function`"))?
                .to_string();
            let caller = match entry.get("caller") {
                Some(Value::Null) | None => None,
                Some(value) => Some(
                    value
                        .as_str()
                        .ok_or_else(|| invalid("non-string `caller`"))?
                        .to_string(),
                ),
            };
            let int_field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Value::as_int)
                    .ok_or_else(|| invalid(format!("site missing `{name}`")))
            };
            let class = entry
                .get("class")
                .and_then(Value::as_str)
                .and_then(class_from_str)
                .ok_or_else(|| invalid("site missing or invalid `class`"))?;
            let verdict = entry
                .get("verdict")
                .and_then(Value::as_str)
                .and_then(verdict_from_str)
                .ok_or_else(|| invalid("site missing or invalid `verdict`"))?;
            let words = |name: &str| -> Result<Vec<Word>, JsonError> {
                entry
                    .get(name)
                    .and_then(Value::as_arr)
                    .ok_or_else(|| invalid(format!("site missing `{name}`")))?
                    .iter()
                    .map(|v| v.as_int().ok_or_else(|| invalid("non-integer word")))
                    .collect()
            };
            let chain = entry
                .get("chain")
                .and_then(Value::as_arr)
                .ok_or_else(|| invalid("site missing `chain`"))?
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| invalid("non-string chain entry"))
                })
                .collect::<Result<Vec<String>, JsonError>>()?;
            sites.push(SiteRecord {
                function,
                caller,
                ordinal: int_field("ordinal")? as usize,
                offset: int_field("offset")? as u64,
                class,
                verdict,
                low_confidence: entry
                    .get("low_confidence")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
                cfg_insns: int_field("cfg_insns")? as usize,
                chain,
                checked_eq: words("checked_eq")?,
                checked_ineq: words("checked_ineq")?,
            });
        }
        Ok(TargetFindings { target, sites })
    }
}

/// Why a findings diff fails the gate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegressionKind {
    /// A site not in the baseline whose error return is unhandled.
    NewUnhandledSite {
        /// The new site's verdict.
        verdict: PropagationVerdict,
    },
    /// A baseline-handled site is no longer handled.
    VerdictWorsened {
        /// Verdict recorded in the baseline.
        from: PropagationVerdict,
        /// Verdict now.
        to: PropagationVerdict,
    },
}

/// One gate-failing difference between baseline and current findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Regression {
    /// Library function of the affected site.
    pub function: String,
    /// Containing function of the affected site.
    pub caller: Option<String>,
    /// Site ordinal within its `(function, caller)` pair.
    pub ordinal: usize,
    /// What went wrong.
    pub kind: RegressionKind,
}

impl std::fmt::Display for Regression {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let caller = self.caller.as_deref().unwrap_or("?");
        match &self.kind {
            RegressionKind::NewUnhandledSite { verdict } => write!(
                f,
                "new unhandled site: {} call #{} in {caller} ({})",
                self.function,
                self.ordinal,
                verdict_str(*verdict)
            ),
            RegressionKind::VerdictWorsened { from, to } => write!(
                f,
                "{} call #{} in {caller}: {} -> {}",
                self.function,
                self.ordinal,
                verdict_str(*from),
                verdict_str(*to)
            ),
        }
    }
}

/// Diff current findings against a committed baseline. Only *regressions*
/// are returned: new unhandled sites and handled→unhandled transitions.
/// Improvements (new handled sites, unhandled sites fixed or removed) pass
/// silently — regenerate the baseline to absorb them.
pub fn diff_findings(baseline: &TargetFindings, current: &TargetFindings) -> Vec<Regression> {
    use std::collections::BTreeMap;
    let base: BTreeMap<_, &SiteRecord> = baseline.sites.iter().map(|s| (s.key(), s)).collect();
    let mut regressions = Vec::new();
    for site in &current.sites {
        match base.get(&site.key()) {
            None => {
                if !site.verdict.is_handled() {
                    regressions.push(Regression {
                        function: site.function.clone(),
                        caller: site.caller.clone(),
                        ordinal: site.ordinal,
                        kind: RegressionKind::NewUnhandledSite {
                            verdict: site.verdict,
                        },
                    });
                }
            }
            Some(old) => {
                if old.verdict.is_handled() && !site.verdict.is_handled() {
                    regressions.push(Regression {
                        function: site.function.clone(),
                        caller: site.caller.clone(),
                        ordinal: site.ordinal,
                        kind: RegressionKind::VerdictWorsened {
                            from: old.verdict,
                            to: site.verdict,
                        },
                    });
                }
            }
        }
    }
    regressions
}

fn class_str(class: CallSiteClass) -> &'static str {
    match class {
        CallSiteClass::Checked => "checked",
        CallSiteClass::PartiallyChecked => "partially_checked",
        CallSiteClass::Unchecked => "unchecked",
    }
}

fn class_from_str(text: &str) -> Option<CallSiteClass> {
    match text {
        "checked" => Some(CallSiteClass::Checked),
        "partially_checked" => Some(CallSiteClass::PartiallyChecked),
        "unchecked" => Some(CallSiteClass::Unchecked),
        _ => None,
    }
}

/// Stable string form of a verdict (used in JSON documents and CI output).
pub fn verdict_str(verdict: PropagationVerdict) -> &'static str {
    match verdict {
        PropagationVerdict::HandledLocally => "handled_locally",
        PropagationVerdict::PropagatedChecked => "propagated_checked",
        PropagationVerdict::PropagatedUnchecked => "propagated_unchecked",
        PropagationVerdict::Dropped => "dropped",
    }
}

fn verdict_from_str(text: &str) -> Option<PropagationVerdict> {
    match text {
        "handled_locally" => Some(PropagationVerdict::HandledLocally),
        "propagated_checked" => Some(PropagationVerdict::PropagatedChecked),
        "propagated_unchecked" => Some(PropagationVerdict::PropagatedUnchecked),
        "dropped" => Some(PropagationVerdict::Dropped),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(
        function: &str,
        caller: &str,
        ordinal: usize,
        verdict: PropagationVerdict,
    ) -> SiteRecord {
        SiteRecord {
            function: function.to_string(),
            caller: Some(caller.to_string()),
            ordinal,
            offset: 0,
            class: CallSiteClass::Unchecked,
            verdict,
            low_confidence: false,
            cfg_insns: 10,
            chain: Vec::new(),
            checked_eq: Vec::new(),
            checked_ineq: Vec::new(),
        }
    }

    fn findings(sites: Vec<SiteRecord>) -> TargetFindings {
        TargetFindings {
            target: "demo".to_string(),
            sites,
        }
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let mut site = record(
            "malloc",
            "xmalloc",
            0,
            PropagationVerdict::PropagatedChecked,
        );
        site.offset = 144;
        site.class = CallSiteClass::Unchecked;
        site.chain = vec!["a".to_string(), "b".to_string()];
        site.checked_eq = vec![-1];
        site.checked_ineq = vec![0];
        site.low_confidence = true;
        let doc = findings(vec![site]);
        let back = TargetFindings::from_json(&doc.to_json()).unwrap();
        assert_eq!(back, doc);
    }

    #[test]
    fn unchanged_findings_have_no_regressions() {
        let doc = findings(vec![
            record("open", "f", 0, PropagationVerdict::HandledLocally),
            record("read", "g", 0, PropagationVerdict::Dropped),
        ]);
        assert!(diff_findings(&doc, &doc).is_empty());
    }

    #[test]
    fn handled_to_unhandled_is_a_regression() {
        let base = findings(vec![record(
            "malloc",
            "xmalloc",
            0,
            PropagationVerdict::PropagatedChecked,
        )]);
        let cur = findings(vec![record(
            "malloc",
            "xmalloc",
            0,
            PropagationVerdict::PropagatedUnchecked,
        )]);
        let regressions = diff_findings(&base, &cur);
        assert_eq!(regressions.len(), 1);
        assert!(matches!(
            &regressions[0].kind,
            RegressionKind::VerdictWorsened { .. }
        ));
        assert!(regressions[0].to_string().contains("xmalloc"));
    }

    #[test]
    fn new_unhandled_sites_fail_but_new_handled_sites_pass() {
        let base = findings(vec![]);
        let cur = findings(vec![
            record("open", "f", 0, PropagationVerdict::HandledLocally),
            record("read", "g", 0, PropagationVerdict::Dropped),
        ]);
        let regressions = diff_findings(&base, &cur);
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].function, "read");
        assert!(matches!(
            &regressions[0].kind,
            RegressionKind::NewUnhandledSite { .. }
        ));
    }

    #[test]
    fn improvements_and_removals_pass() {
        let base = findings(vec![
            record("read", "g", 0, PropagationVerdict::Dropped),
            record("write", "h", 0, PropagationVerdict::PropagatedUnchecked),
        ]);
        // read's site got fixed (now handled), write's site disappeared.
        let cur = findings(vec![record(
            "read",
            "g",
            0,
            PropagationVerdict::HandledLocally,
        )]);
        assert!(diff_findings(&base, &cur).is_empty());
    }

    #[test]
    fn offset_shifts_do_not_disturb_the_diff() {
        let base = findings(vec![record("open", "f", 0, PropagationVerdict::Dropped)]);
        let mut moved = record("open", "f", 0, PropagationVerdict::Dropped);
        moved.offset = 9000;
        let cur = findings(vec![moved]);
        assert!(diff_findings(&base, &cur).is_empty());
    }
}
