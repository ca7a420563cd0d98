//! Callee-side static fault analysis of library modules.
//!
//! The runtime profiler (`lfi_profiler`) infers each exported function's
//! error cases with a *linear* scan of its instruction stream — fast, but
//! blind to control flow: constants and pending `errno` stores leak across
//! paths that can never execute together. This module re-derives the same
//! information *path-sensitively*: a bounded DFS over the function's CFG
//! tracks per-register constants and the pending errno store along each
//! path, recording an error case only at a `ret` the path actually reaches.
//!
//! The two views are cross-checked by [`cross_check`]: every disagreement —
//! a function present in one profile only, differing error-case sets, or a
//! differing returns-dynamic flag — becomes a typed [`ProfileDivergence`]
//! finding. Agreements corroborate both analyses; divergences localize
//! whichever heuristic went wrong (usually the linear scan merging paths).

use std::collections::{BTreeMap, HashMap};

use lfi_arch::{CallConv, Insn, Reg, Word};
use lfi_obj::{Module, SymKind};
use lfi_profiler::{is_error_value, ErrorCase, FaultProfile};
use serde::{Deserialize, Serialize};

use crate::cfg::{build_function_cfg, PartialCfg};

/// Per-path step budget of one function walk; exceeding it marks the static
/// profile truncated rather than silently under-reporting.
const STEP_CAP: usize = 50_000;

/// How many times one instruction may be re-entered across all paths (loops
/// and heavy diamonds) before the walk gives up on further paths through it.
const VISIT_CAP: usize = 16;

/// Path-sensitive fault profile of one exported function.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticFunctionProfile {
    /// Function name.
    pub name: String,
    /// Distinct error cases reachable along some path, sorted.
    pub error_cases: Vec<ErrorCase>,
    /// Whether some path returns a computed (non-constant) value.
    pub returns_dynamic: bool,
    /// The path walk hit `STEP_CAP` or `VISIT_CAP`: the case list is a
    /// lower bound, not an enumeration.
    pub truncated: bool,
}

impl StaticFunctionProfile {
    /// The distinct error return values (the set `E` of Algorithm 1).
    pub fn error_return_values(&self) -> Vec<Word> {
        let mut values: Vec<Word> = self.error_cases.iter().map(|c| c.retval).collect();
        values.sort_unstable();
        values.dedup();
        values
    }
}

/// Path-sensitive fault profile of a whole library module.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticFaultProfile {
    /// Library (module) name.
    pub library: String,
    /// Per-function profiles, keyed by function name.
    pub functions: BTreeMap<String, StaticFunctionProfile>,
}

impl StaticFaultProfile {
    /// Profile of a single function, if the library exports it.
    pub fn function(&self, name: &str) -> Option<&StaticFunctionProfile> {
        self.functions.get(name)
    }
}

/// One disagreement between the static (path-based) and runtime (linear)
/// fault profiles of a library.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProfileDivergence {
    /// The function appears in the static profile only.
    OnlyInStatic {
        /// Function name.
        function: String,
    },
    /// The function appears in the runtime profiler's output only.
    OnlyInProfiler {
        /// Function name.
        function: String,
    },
    /// The error-case sets differ.
    ErrorCasesDiffer {
        /// Function name.
        function: String,
        /// Cases the path walk found that the linear scan missed.
        missing_in_profiler: Vec<ErrorCase>,
        /// Cases the linear scan reports that no path actually produces.
        missing_in_static: Vec<ErrorCase>,
    },
    /// The returns-dynamic flags differ.
    DynamicFlagDiffers {
        /// Function name.
        function: String,
        /// The path walk's verdict.
        static_value: bool,
        /// The linear scan's verdict.
        profiler_value: bool,
    },
}

impl ProfileDivergence {
    /// The function the divergence is about.
    pub fn function(&self) -> &str {
        match self {
            ProfileDivergence::OnlyInStatic { function }
            | ProfileDivergence::OnlyInProfiler { function }
            | ProfileDivergence::ErrorCasesDiffer { function, .. }
            | ProfileDivergence::DynamicFlagDiffers { function, .. } => function,
        }
    }
}

/// Abstract state carried along one path.
#[derive(Clone)]
struct PathState {
    /// Last constant loaded into each register, if still valid.
    consts: Vec<Option<Word>>,
    /// The last write to the return register was non-constant.
    ret_dynamic: bool,
    /// errno constant stored on this path, not yet consumed by a `ret`.
    pending_errno: Option<Word>,
}

impl PathState {
    fn initial() -> PathState {
        PathState {
            consts: vec![None; Reg::COUNT],
            ret_dynamic: false,
            pending_errno: None,
        }
    }
}

/// Walk every path of one function CFG, collecting reachable error cases.
fn profile_paths(module: &Module, cfg: &PartialCfg, profile: &mut StaticFunctionProfile) {
    let mut steps = 0usize;
    let mut visits: HashMap<u64, usize> = HashMap::new();
    let mut stack: Vec<(u64, PathState)> = vec![(cfg.entry, PathState::initial())];
    profile.truncated |= cfg.truncated;
    while let Some((offset, mut state)) = stack.pop() {
        let Some(insn) = cfg.nodes.get(&offset) else {
            continue;
        };
        steps += 1;
        if steps > STEP_CAP {
            profile.truncated = true;
            break;
        }
        let seen = visits.entry(offset).or_insert(0);
        *seen += 1;
        if *seen > VISIT_CAP {
            profile.truncated = true;
            continue;
        }
        match insn {
            Insn::MovI { dst, imm } => {
                state.consts[dst.index()] = Some(*imm);
                if *dst == Reg::RET {
                    state.ret_dynamic = false;
                }
            }
            Insn::TlsStore { sym, src } => {
                let is_errno = module
                    .symrefs
                    .get(*sym as usize)
                    .map(|s| s.name == CallConv::ERRNO_SYMBOL)
                    .unwrap_or(false);
                if is_errno {
                    state.pending_errno = state.consts[src.index()];
                }
            }
            Insn::Ret => {
                match state.consts[Reg::RET.index()] {
                    Some(retval) => {
                        if is_error_value(retval, state.pending_errno) {
                            let case = ErrorCase {
                                retval,
                                errno: state.pending_errno,
                            };
                            if !profile.error_cases.contains(&case) {
                                profile.error_cases.push(case);
                            }
                        }
                    }
                    None => {
                        if state.ret_dynamic {
                            profile.returns_dynamic = true;
                        }
                    }
                }
                continue; // path ends here
            }
            other => {
                if let Some(written) = other.written_reg() {
                    state.consts[written.index()] = None;
                    if written == Reg::RET {
                        state.ret_dynamic = true;
                    }
                }
                if matches!(other, Insn::Sys { .. }) || other.is_call() {
                    state.consts[Reg::RET.index()] = None;
                    state.ret_dynamic = true;
                }
            }
        }
        match cfg.successors(offset) {
            [] => {}
            [only] => stack.push((*only, state)),
            many => {
                for succ in many {
                    stack.push((*succ, state.clone()));
                }
            }
        }
    }
    profile.error_cases.sort();
}

/// Profile every exported function of a library module path-sensitively.
pub fn static_profile_library(module: &Module) -> StaticFaultProfile {
    let mut functions = BTreeMap::new();
    for export in &module.exports {
        if export.kind != SymKind::Func {
            continue;
        }
        let mut profile = StaticFunctionProfile {
            name: export.name.clone(),
            ..StaticFunctionProfile::default()
        };
        let cfg = build_function_cfg(module, export.offset);
        profile_paths(module, &cfg, &mut profile);
        functions.insert(export.name.clone(), profile);
    }
    StaticFaultProfile {
        library: module.name.clone(),
        functions,
    }
}

/// Cross-check the path-based profile against the runtime profiler's view of
/// the same library. Returns one typed finding per disagreement, ordered by
/// function name; an empty vector means the analyses corroborate each other.
pub fn cross_check(
    static_profile: &StaticFaultProfile,
    profiler: &FaultProfile,
) -> Vec<ProfileDivergence> {
    let mut findings = Vec::new();
    for (name, stat) in &static_profile.functions {
        let Some(dyn_profile) = profiler.function(name) else {
            findings.push(ProfileDivergence::OnlyInStatic {
                function: name.clone(),
            });
            continue;
        };
        let missing_in_profiler: Vec<ErrorCase> = stat
            .error_cases
            .iter()
            .filter(|c| !dyn_profile.error_cases.contains(c))
            .copied()
            .collect();
        let missing_in_static: Vec<ErrorCase> = dyn_profile
            .error_cases
            .iter()
            .filter(|c| !stat.error_cases.contains(c))
            .copied()
            .collect();
        if !missing_in_profiler.is_empty() || !missing_in_static.is_empty() {
            findings.push(ProfileDivergence::ErrorCasesDiffer {
                function: name.clone(),
                missing_in_profiler,
                missing_in_static,
            });
        }
        if stat.returns_dynamic != dyn_profile.returns_dynamic {
            findings.push(ProfileDivergence::DynamicFlagDiffers {
                function: name.clone(),
                static_value: stat.returns_dynamic,
                profiler_value: dyn_profile.returns_dynamic,
            });
        }
    }
    for name in profiler.functions.keys() {
        if !static_profile.functions.contains_key(name) {
            findings.push(ProfileDivergence::OnlyInProfiler {
                function: name.clone(),
            });
        }
    }
    findings.sort_by(|a, b| a.function().cmp(b.function()));
    findings
}

#[cfg(test)]
mod tests {
    use lfi_arch::errno;
    use lfi_asm::assemble_text;
    use lfi_profiler::profile_library;

    use super::*;

    #[test]
    fn path_walk_matches_linear_scan_on_single_path_code() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func fails
                movi r7, EIO
                tlsst errno, r7
                movi r0, -1
                ret
            .func computes
                sys read
                ret
            "#,
        )
        .unwrap();
        let stat = static_profile_library(&lib);
        let fails = stat.function("fails").unwrap();
        assert_eq!(
            fails.error_cases,
            vec![ErrorCase {
                retval: -1,
                errno: Some(errno::EIO)
            }]
        );
        assert!(!fails.truncated);
        assert!(stat.function("computes").unwrap().returns_dynamic);
        assert!(cross_check(&stat, &profile_library(&lib)).is_empty());
    }

    #[test]
    fn path_sensitivity_rejects_cross_path_artifacts() {
        // After the branch join the linear scan still believes `r0 == -1`
        // and records a phantom `(-1, no errno)` case at the success `ret`
        // (and misses that the success path returns a computed value). The
        // path walk follows each path separately and the cross-check turns
        // both disagreements into typed findings.
        let lib = assemble_text(
            r#"
            .module demo lib
            .func my_read
                sys read
                cmpi r0, 0
                jge ok
                movi r7, EIO
                tlsst errno, r7
                movi r0, -1
                ret
            ok:
                ret
            "#,
        )
        .unwrap();
        let stat = static_profile_library(&lib);
        let my_read = stat.function("my_read").unwrap();
        assert_eq!(
            my_read.error_cases,
            vec![ErrorCase {
                retval: -1,
                errno: Some(errno::EIO)
            }],
            "only the real error path's case survives"
        );
        assert!(
            my_read.returns_dynamic,
            "the success path returns sys' value"
        );
        let linear = profile_library(&lib);
        let divergences = cross_check(&stat, &linear);
        assert!(
            divergences.iter().any(|d| matches!(
                d,
                ProfileDivergence::ErrorCasesDiffer { function, missing_in_static, .. }
                    if function == "my_read"
                        && missing_in_static.contains(&ErrorCase { retval: -1, errno: None })
            )),
            "the linear scan's phantom case must be surfaced: {divergences:?}"
        );
        assert!(divergences
            .iter()
            .any(|d| matches!(d, ProfileDivergence::DynamicFlagDiffers { .. })));
    }

    #[test]
    fn loops_terminate_and_flag_truncation_only_when_cut() {
        let lib = assemble_text(
            r#"
            .module demo lib
            .func spin
                movi r1, 10
            again:
                cmpi r1, 0
                je done
                jmp again
            done:
                movi r0, -1
                ret
            "#,
        )
        .unwrap();
        let stat = static_profile_library(&lib);
        let spin = stat.function("spin").unwrap();
        assert_eq!(spin.error_return_values(), vec![-1]);
        assert!(
            spin.truncated,
            "the unbounded loop was cut by the visit cap"
        );
    }

    #[test]
    fn cross_check_on_the_simulated_libc_is_deterministic() {
        let libc = lfi_libc::build();
        let stat = static_profile_library(&libc);
        let linear = profile_library(&libc);
        let first = cross_check(&stat, &linear);
        let second = cross_check(&static_profile_library(&libc), &profile_library(&libc));
        assert_eq!(first, second);
        // Every export the profiler sees, the static walk sees too.
        assert!(!first
            .iter()
            .any(|d| matches!(d, ProfileDivergence::OnlyInProfiler { .. })));
        assert!(!first
            .iter()
            .any(|d| matches!(d, ProfileDivergence::OnlyInStatic { .. })));
    }
}
