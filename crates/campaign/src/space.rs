//! Fault-space enumeration.
//!
//! A campaign explores a **fault space**: the set of concrete fault points a
//! target program exposes. Following the paper, one fault point is a
//! `(call site, library function, error case)` triple — injecting the error
//! case at exactly that call site is the unit of exploration. The space is
//! enumerated from the library fault profile (which functions can fail, and
//! how) and the target binary (where those functions are called), then
//! annotated with the two signals the paper's workflow produces:
//!
//! * the call-site analyzer's classification (checked / partially checked /
//!   unchecked) — unchecked sites are the prime injection targets;
//! * baseline reachability — call sites the default test suite never
//!   executes cannot inject, so guided strategies prune them.

use lfi_analyzer::{CallSiteClass, CallSiteReport, PropagationReport, PropagationVerdict};
use lfi_arch::Word;
use lfi_core::Scenario;
use lfi_obj::Module;
use lfi_profiler::FaultProfile;
use lfi_vm::Coverage;

/// One concrete fault point: inject `retval`/`errno` into `function` at the
/// call site `offset` of `target`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPoint {
    /// Target program (module) name.
    pub target: String,
    /// Library function whose failure is injected.
    pub function: String,
    /// Code offset of the call site in the target binary.
    pub offset: u64,
    /// Function containing the call site, if known.
    pub caller: Option<String>,
    /// Injected return value (from the fault profile's representative case).
    pub retval: Word,
    /// Injected errno side effect.
    pub errno: Option<Word>,
    /// Analyzer classification of the call site, when annotated.
    pub class: Option<CallSiteClass>,
    /// Whether the baseline suite reaches the call site, when annotated.
    pub reached: Option<bool>,
    /// Interprocedural propagation verdict, when annotated.
    pub verdict: Option<PropagationVerdict>,
    /// The analyzer's classification came from a truncated CFG, so `class`
    /// and `verdict` are not definitive (set by [`annotate_analysis`]).
    ///
    /// [`annotate_analysis`]: FaultSpace::annotate_analysis
    pub low_confidence: bool,
    /// The static-prune pass demoted this point: its error return is
    /// provably handled, so strategies explore it last (or, under
    /// saturation pruning, skip it once runtime evidence corroborates).
    pub demoted: bool,
}

/// The annotations of one fault point: everything the analyzer, the
/// static-prune pass and the baseline runs add to its enumerated identity.
/// A process that enumerated the same points can take them from the
/// process that computed them ([`FaultSpace::apply_annotations`]) instead
/// of repeating the analysis and the baseline runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PointAnnotations {
    /// See [`FaultPoint::class`].
    pub class: Option<CallSiteClass>,
    /// See [`FaultPoint::low_confidence`].
    pub low_confidence: bool,
    /// See [`FaultPoint::verdict`].
    pub verdict: Option<PropagationVerdict>,
    /// See [`FaultPoint::demoted`].
    pub demoted: bool,
    /// See [`FaultPoint::reached`].
    pub reached: Option<bool>,
}

impl FaultPoint {
    /// This point's annotations.
    pub fn annotations(&self) -> PointAnnotations {
        PointAnnotations {
            class: self.class,
            low_confidence: self.low_confidence,
            verdict: self.verdict,
            demoted: self.demoted,
            reached: self.reached,
        }
    }

    /// Compile this fault point into its single-fault-point scenario.
    pub fn scenario(&self) -> Scenario {
        Scenario::single_fault_point(
            &self.target,
            &self.function,
            self.offset,
            self.retval,
            self.errno,
        )
    }
}

/// Outcome of a [`FaultSpace::static_prune`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Fault points examined.
    pub total: usize,
    /// Points demoted because their verdict proves the error is handled.
    pub demoted: usize,
    /// Points exempt from demotion because their analysis is low-confidence.
    pub low_confidence: usize,
}

/// The enumerated fault space of one or more target programs.
#[derive(Debug, Clone, Default)]
pub struct FaultSpace {
    /// All enumerated fault points, in enumeration order.
    pub points: Vec<FaultPoint>,
}

impl FaultSpace {
    /// An empty fault space.
    pub fn new() -> FaultSpace {
        FaultSpace::default()
    }

    /// Enumerate every fault point of `target`: for each imported function
    /// with at least one error case in `profile`, every call site, paired
    /// with the profile's representative error case.
    pub fn add_target(&mut self, target: &str, exe: &Module, profile: &FaultProfile) -> &mut Self {
        for function in exe.imported_functions() {
            let Some(func_profile) = profile.function(&function) else {
                continue;
            };
            let Some(case) = func_profile.representative_case() else {
                continue;
            };
            for offset in exe.call_sites_of(&function) {
                self.points.push(FaultPoint {
                    target: target.to_string(),
                    function: function.clone(),
                    offset,
                    caller: exe.containing_function(offset).map(|e| e.name.clone()),
                    retval: case.retval,
                    errno: case.errno,
                    ..FaultPoint::default()
                });
            }
        }
        self
    }

    /// Keep only the fault points satisfying a predicate (e.g. restrict a
    /// target to the functions its harness exercises).
    pub fn retain(&mut self, keep: impl FnMut(&FaultPoint) -> bool) -> &mut Self {
        self.points.retain(keep);
        self
    }

    /// Annotate the points of `target` with the analyzer's classification of
    /// their call sites.
    pub fn annotate_analysis(&mut self, target: &str, reports: &[CallSiteReport]) -> &mut Self {
        for (report, site) in lfi_analyzer::iter_sites(reports) {
            for point in &mut self.points {
                if point.target == target
                    && point.function == report.function
                    && point.offset == site.offset
                {
                    point.class = Some(site.class);
                    point.low_confidence = site.low_confidence;
                }
            }
        }
        self
    }

    /// Annotate the points of `target` with interprocedural propagation
    /// verdicts (see [`lfi_analyzer::propagation_reports`]).
    pub fn annotate_propagation(
        &mut self,
        target: &str,
        reports: &[PropagationReport],
    ) -> &mut Self {
        for report in reports {
            for finding in &report.findings {
                for point in &mut self.points {
                    if point.target == target
                        && point.function == report.function
                        && point.offset == finding.offset
                    {
                        point.verdict = Some(finding.verdict);
                    }
                }
            }
        }
        self
    }

    /// The `StaticPrune` pass: demote every point whose error return is
    /// provably handled (a confident [`PropagationVerdict`] of
    /// `HandledLocally` or `PropagatedChecked`). Demoted points are never
    /// removed — strategies explore them last, which keeps the differential
    /// guarantee that pruning cannot drop a bug-finding unit — but the
    /// adaptive strategy may skip them once runtime evidence corroborates
    /// the static verdict. Low-confidence annotations (truncated CFGs)
    /// block demotion.
    pub fn static_prune(&mut self) -> PruneStats {
        let mut stats = PruneStats {
            total: self.points.len(),
            ..PruneStats::default()
        };
        for point in &mut self.points {
            if point.low_confidence {
                stats.low_confidence += 1;
                continue;
            }
            if point.verdict.is_some_and(|v| v.is_handled()) {
                point.demoted = true;
                stats.demoted += 1;
            }
        }
        stats
    }

    /// The counts a [`static_prune`](Self::static_prune) pass over this
    /// space reported, read back from its points' annotations.
    pub fn prune_stats(&self) -> PruneStats {
        PruneStats {
            total: self.points.len(),
            demoted: self.points.iter().filter(|p| p.demoted).count(),
            low_confidence: self.points.iter().filter(|p| p.low_confidence).count(),
        }
    }

    /// Every point's annotations, in enumeration order.
    pub fn annotations(&self) -> Vec<PointAnnotations> {
        self.points.iter().map(FaultPoint::annotations).collect()
    }

    /// Overwrite every point's annotations with `annotations`, given in
    /// enumeration order ([`annotations`](Self::annotations) of a space
    /// with the same points). Fails, changing nothing, when the counts
    /// differ.
    pub fn apply_annotations(&mut self, annotations: &[PointAnnotations]) -> Result<(), String> {
        if annotations.len() != self.points.len() {
            return Err(format!(
                "{} point annotations for a space of {} fault points",
                annotations.len(),
                self.points.len()
            ));
        }
        for (point, annotations) in self.points.iter_mut().zip(annotations) {
            point.class = annotations.class;
            point.low_confidence = annotations.low_confidence;
            point.verdict = annotations.verdict;
            point.demoted = annotations.demoted;
            point.reached = annotations.reached;
        }
        Ok(())
    }

    /// Annotate the points of `target` with baseline reachability: a point
    /// is reached when the baseline coverage executed its call-site offset.
    pub fn annotate_reached(&mut self, target: &str, baseline: &Coverage) -> &mut Self {
        for point in &mut self.points {
            if point.target == target {
                point.reached = Some(baseline.offset_executed(target, point.offset));
            }
        }
        self
    }

    /// Number of fault points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// A stable digest of the space's **full** identity: every point's
    /// target, function, offset, and caller, plus the injected error case
    /// (`retval`/`errno`) and both annotations (`class`/`reached`), in
    /// order. Folded into the resumable-state tag so a persisted campaign
    /// cannot be resumed against a different, reordered, re-profiled, or
    /// re-annotated fault space — anywhere unit ids would keep lining up
    /// while the scenarios (or a guided schedule) behind them changed.
    pub fn digest(&self) -> u64 {
        // FNV-1a over the identifying fields.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |bytes: &[u8]| {
            for byte in bytes {
                hash ^= u64::from(*byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        };
        for point in &self.points {
            mix(point.target.as_bytes());
            mix(point.function.as_bytes());
            mix(&point.offset.to_le_bytes());
            match &point.caller {
                Some(caller) => mix(caller.as_bytes()),
                None => mix(&[0xfe]),
            }
            mix(&point.retval.to_le_bytes());
            match point.errno {
                Some(errno) => mix(&errno.to_le_bytes()),
                None => mix(&[0xfe]),
            }
            mix(&[match point.class {
                None => 0xf0,
                Some(CallSiteClass::Unchecked) => 0,
                Some(CallSiteClass::PartiallyChecked) => 1,
                Some(CallSiteClass::Checked) => 2,
            }]);
            mix(&[match point.reached {
                None => 0xf0,
                Some(false) => 0,
                Some(true) => 1,
            }]);
            mix(&[match point.verdict {
                None => 0xf0,
                Some(PropagationVerdict::HandledLocally) => 0,
                Some(PropagationVerdict::PropagatedChecked) => 1,
                Some(PropagationVerdict::PropagatedUnchecked) => 2,
                Some(PropagationVerdict::Dropped) => 3,
            }]);
            mix(&[u8::from(point.low_confidence), u8::from(point.demoted)]);
            mix(&[0xff]);
        }
        hash
    }

    /// The distinct target names present in the space, **sorted and
    /// deduplicated**.
    ///
    /// The ordering is a guarantee, not an accident: consumers that derive
    /// identity or partitions from the target list (baseline-reachability
    /// annotation order, shard bookkeeping, plan digests) must see the
    /// same list however the points were inserted, so this never reflects
    /// insertion order.
    pub fn targets(&self) -> Vec<String> {
        let names: std::collections::BTreeSet<&str> =
            self.points.iter().map(|p| p.target.as_str()).collect();
        names.into_iter().map(str::to_string).collect()
    }
}

#[cfg(test)]
mod tests {
    use lfi_cc::Compiler;
    use lfi_obj::ModuleKind;

    use super::*;

    fn demo_exe() -> Module {
        Compiler::new("demo", ModuleKind::Executable)
            .needs("libc")
            .add_source(
                "demo.c",
                r#"
                int main() {
                    int fd = open("/tmp/x", O_RDONLY, 0);
                    if (fd == -1) { return 1; }
                    int p = malloc(16);
                    *p = 1;
                    close(fd);
                    return 0;
                }
                "#,
            )
            .compile()
            .unwrap()
    }

    #[test]
    fn enumerates_call_sites_of_failing_functions() {
        let exe = demo_exe();
        let profile = lfi_profiler::profile_library(&lfi_libc::build());
        let mut space = FaultSpace::new();
        space.add_target("demo", &exe, &profile);
        assert!(!space.is_empty());
        assert!(space.points.iter().any(|p| p.function == "open"));
        assert!(space.points.iter().any(|p| p.function == "malloc"));
        assert_eq!(space.targets(), vec!["demo"]);
        // Every point compiles into a valid scenario.
        for point in &space.points {
            point.scenario().validate().unwrap();
        }
    }

    #[test]
    fn annotations_mark_class_and_reachability() {
        let exe = demo_exe();
        let profile = lfi_profiler::profile_library(&lfi_libc::build());
        let mut space = FaultSpace::new();
        space.add_target("demo", &exe, &profile);
        let reports =
            lfi_analyzer::analyze_program(&exe, &profile, lfi_analyzer::AnalysisConfig::default());
        space.annotate_analysis("demo", &reports);
        let open = space.points.iter().find(|p| p.function == "open").unwrap();
        assert_eq!(open.class, Some(CallSiteClass::Checked));
        let malloc = space
            .points
            .iter()
            .find(|p| p.function == "malloc")
            .unwrap();
        assert_eq!(malloc.class, Some(CallSiteClass::Unchecked));

        // An empty baseline marks every point unreached.
        space.annotate_reached("demo", &Coverage::new());
        assert!(space.points.iter().all(|p| p.reached == Some(false)));
    }

    #[test]
    fn targets_are_sorted_and_deduplicated_regardless_of_insertion_order() {
        let point = |target: &str| FaultPoint {
            target: target.to_string(),
            function: "read".into(),
            retval: -1,
            ..FaultPoint::default()
        };
        let space = FaultSpace {
            points: vec![
                point("zeta"),
                point("alpha"),
                point("zeta"),
                point("mid"),
                point("alpha"),
            ],
        };
        assert_eq!(space.targets(), vec!["alpha", "mid", "zeta"]);

        // Insertion order must not leak into the list.
        let mut reversed = space.clone();
        reversed.points.reverse();
        assert_eq!(space.targets(), reversed.targets());
    }

    #[test]
    fn digest_covers_error_cases_and_annotations() {
        let exe = demo_exe();
        let profile = lfi_profiler::profile_library(&lfi_libc::build());
        let mut space = FaultSpace::new();
        space.add_target("demo", &exe, &profile);
        let bare = space.digest();
        assert_eq!(bare, space.clone().digest(), "digest is stable");

        // Changing the injected error case changes the identity.
        let mut other_case = space.clone();
        other_case.points[0].retval = -2;
        assert_ne!(bare, other_case.digest());
        let mut other_errno = space.clone();
        other_errno.points[0].errno = Some(999);
        assert_ne!(bare, other_errno.digest());

        // So does (re-)annotating: classifications and reachability drive
        // guided schedules, so a checkpoint must not survive them.
        let mut annotated = space.clone();
        annotated.annotate_analysis(
            "demo",
            &lfi_analyzer::analyze_program(&exe, &profile, lfi_analyzer::AnalysisConfig::default()),
        );
        assert_ne!(bare, annotated.digest());
        let mut reached = space.clone();
        reached.annotate_reached("demo", &Coverage::new());
        assert_ne!(bare, reached.digest());

        // The propagation verdict and prune outcome are identity too: a
        // checkpoint taken before pruning must not resume after it.
        let mut verdict = space.clone();
        verdict.points[0].verdict = Some(PropagationVerdict::HandledLocally);
        assert_ne!(bare, verdict.digest());
        let mut low = space.clone();
        low.points[0].low_confidence = true;
        assert_ne!(bare, low.digest());
        let mut demoted = space.clone();
        demoted.points[0].demoted = true;
        assert_ne!(bare, demoted.digest());
    }

    #[test]
    fn annotations_carry_over_to_a_bare_enumeration_of_the_same_points() {
        let exe = demo_exe();
        let profile = lfi_profiler::profile_library(&lfi_libc::build());
        let mut bare = FaultSpace::new();
        bare.add_target("demo", &exe, &profile);
        let mut annotated = bare.clone();
        annotated.annotate_analysis(
            "demo",
            &lfi_analyzer::analyze_program(&exe, &profile, lfi_analyzer::AnalysisConfig::default()),
        );
        annotated.annotate_reached("demo", &Coverage::new());
        annotated.points[0].verdict = Some(PropagationVerdict::Dropped);
        annotated.points[0].demoted = true;

        bare.apply_annotations(&annotated.annotations()).unwrap();
        assert_eq!(bare.points, annotated.points);
        assert_eq!(bare.digest(), annotated.digest());

        let short = &annotated.annotations()[1..];
        let err = bare.apply_annotations(short).unwrap_err();
        assert!(err.contains("fault points"), "{err}");
    }

    #[test]
    fn propagation_annotation_and_prune_demote_handled_points() {
        let exe = demo_exe();
        let libc = lfi_libc::build();
        let profile = lfi_profiler::profile_library(&libc);
        let mut space = FaultSpace::new();
        space.add_target("demo", &exe, &profile);
        let config = lfi_analyzer::AnalysisConfig::default();
        let reports = lfi_analyzer::analyze_program(&exe, &profile, config);
        space.annotate_analysis("demo", &reports);
        let propagation = lfi_analyzer::propagation_reports(&[&exe, &libc], &reports, config);
        space.annotate_propagation("demo", &propagation);

        // Every annotated point carries a verdict; the checked `open` site
        // is handled locally, the unchecked `malloc` deref is not.
        let open = space.points.iter().find(|p| p.function == "open").unwrap();
        assert_eq!(open.verdict, Some(PropagationVerdict::HandledLocally));
        let malloc = space
            .points
            .iter()
            .find(|p| p.function == "malloc")
            .unwrap();
        assert!(malloc.verdict.is_some_and(|v| !v.is_handled()));

        let stats = space.static_prune();
        assert_eq!(stats.total, space.len());
        assert!(stats.demoted >= 1);
        assert_eq!(space.prune_stats(), stats, "the points carry the counts");
        for point in &space.points {
            assert_eq!(
                point.demoted,
                !point.low_confidence && point.verdict.is_some_and(|v| v.is_handled()),
                "prune must demote exactly the confidently handled points"
            );
        }
    }
}
