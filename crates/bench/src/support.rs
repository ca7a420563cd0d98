//! Shared plumbing for the experiment harnesses.

use lfi_core::Scenario;
use lfi_obj::Module;
use lfi_profiler::FaultProfile;

/// The per-target workloads that constitute each system's "default test
/// suite" in the reproduction (program arguments per run). Canonically
/// defined alongside the campaign executor; re-exported here for the
/// experiment harnesses.
pub fn default_test_suite(target: &str) -> Vec<Vec<String>> {
    lfi_campaign::default_test_suite(target)
}

/// Build a one-site injection scenario: a call-stack trigger pinned to the
/// given call-site offset of the target binary, injecting the profile's
/// representative error for `function`.
pub fn single_site_scenario(
    program: &str,
    function: &str,
    offset: u64,
    profile: &FaultProfile,
) -> Scenario {
    let case = profile
        .function(function)
        .and_then(|f| f.representative_case())
        .unwrap_or(lfi_profiler::ErrorCase {
            retval: -1,
            errno: Some(lfi_arch::errno::EIO),
        });
    Scenario::single_fault_point(program, function, offset, case.retval, case.errno)
}

/// Every (function, call-site offset) pair of the listed functions in a
/// binary, regardless of whether the site checks its error return. Used to
/// exercise recovery code behind *checked* call sites (Table 3, and the
/// recovery-code bugs of Table 1 such as BIND's dst_lib_init).
pub fn all_sites(exe: &Module, functions: &[String]) -> Vec<(String, u64)> {
    let mut sites = Vec::new();
    for function in functions {
        for offset in exe.call_sites_of(function) {
            sites.push((function.clone(), offset));
        }
    }
    sites
}

/// Format a ratio as a percentage string with one decimal.
pub fn pct(num: f64, den: f64) -> String {
    if den == 0.0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", 100.0 * num / den)
    }
}
