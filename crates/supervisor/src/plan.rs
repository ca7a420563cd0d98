//! What a supervised campaign runs over: the fault-space specification
//! the supervisor and every worker must agree on.
//!
//! A [`SpaceSpec`] is the portable description of one fault space —
//! which targets to enumerate, which functions to keep per target, and
//! the baseline-reachability seed. The supervisor builds the annotated
//! space in-process (to size leases and pin the plan hash) and ships the
//! same spec to each worker as command-line flags, together with the
//! space's baseline reachability ([`encode_reached`]). The worker
//! enumerates and analyzes the space itself but takes reachability from
//! the supervisor instead of re-running the whole no-fault suite
//! ([`SpaceSpec::build_with_reached`]), then echoes its plan hash back in
//! the `Hello` handshake, so a supervisor and a worker that would
//! enumerate different spaces fail loudly instead of merging nonsense.

use lfi_campaign::{
    CoverageAdaptive, Exhaustive, FaultSpace, InjectionGuided, RandomSample, StandardExecutor,
    Strategy,
};
use lfi_targets::standard_controller;

/// The targets of the Table 1 hunt.
pub const TABLE1_TARGETS: [&str; 4] = ["bind-lite", "git-lite", "db-lite", "bft-lite"];

/// The bft-lite functions the Table 1 hunt injects into (a full cluster
/// run per fault point is expensive; the paper's PBFT bugs live behind
/// these).
pub const TABLE1_BFT_FUNCTIONS: [&str; 6] =
    ["recvfrom", "sendto", "fopen", "fwrite", "open", "close"];

/// A portable fault-space description: targets, per-target function
/// allowlists, and the baseline seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceSpec {
    /// Targets to enumerate, in order (order is part of plan identity).
    pub targets: Vec<String>,
    /// Per-target function allowlists; a target not listed here keeps
    /// every profiled function.
    pub retain: Vec<(String, Vec<String>)>,
    /// Seed of the baseline (no-injection) reachability runs.
    pub baseline_seed: u64,
}

impl SpaceSpec {
    /// An empty spec with the stock baseline seed; callers add targets.
    pub fn new() -> SpaceSpec {
        SpaceSpec {
            targets: Vec::new(),
            retain: Vec::new(),
            baseline_seed: 7,
        }
    }

    /// The Table 1 hunt space: all four evaluation targets, with
    /// bft-lite restricted to its harness functions. The one definition of
    /// the hunt's plan: `lfi_bench::table1_fault_space` builds from it.
    pub fn table1() -> SpaceSpec {
        SpaceSpec {
            targets: TABLE1_TARGETS.iter().map(|t| t.to_string()).collect(),
            retain: vec![(
                "bft-lite".to_string(),
                TABLE1_BFT_FUNCTIONS.iter().map(|f| f.to_string()).collect(),
            )],
            baseline_seed: 7,
        }
    }

    /// The target list as borrowed names, for executor APIs.
    pub fn target_names(&self) -> Vec<&str> {
        self.targets.iter().map(String::as_str).collect()
    }

    /// Enumerate, filter, and annotate the space this spec describes.
    /// Deterministic: the same spec against the same executor build
    /// yields the same space (and therefore the same plan hash) in every
    /// process.
    pub fn build(&self, executor: &StandardExecutor) -> FaultSpace {
        let mut space = self.enumerate(executor);
        executor.annotate_baseline_reachability(&mut space, self.baseline_seed);
        space
    }

    /// The spec's fault points before baseline annotation, which never
    /// adds or removes a point — so this also sizes the space without the
    /// baseline runs.
    pub fn enumerate(&self, executor: &StandardExecutor) -> FaultSpace {
        let profile = standard_controller().profile_libraries();
        let mut space = executor.fault_space(&self.target_names(), &profile);
        for (target, functions) in &self.retain {
            space.retain(|p| p.target != *target || functions.contains(&p.function));
        }
        space
    }

    /// [`SpaceSpec::enumerate`], annotated with the baseline reachability
    /// another process computed for the same spec and shipped as
    /// [`encode_reached`] text. Skips the baseline runs; the result equals
    /// [`SpaceSpec::build`]'s when the text came from that space. Fails on
    /// text of the wrong length or with an unknown char.
    pub fn build_with_reached(
        &self,
        executor: &StandardExecutor,
        reached: &str,
    ) -> Result<FaultSpace, String> {
        let mut space = self.enumerate(executor);
        let bits = decode_reached(reached, space.len())?;
        for (point, bit) in space.points.iter_mut().zip(bits) {
            point.reached = bit;
        }
        Ok(space)
    }

    /// The spec as worker command-line flags — the inverse of what the
    /// worker bin parses, so supervisor and worker cannot drift.
    pub fn to_args(&self) -> Vec<String> {
        let mut args = Vec::new();
        for target in &self.targets {
            args.push("--target".to_string());
            args.push(target.clone());
        }
        for (target, functions) in &self.retain {
            args.push("--retain".to_string());
            args.push(format!("{target}:{}", functions.join(",")));
        }
        args.push("--baseline-seed".to_string());
        args.push(self.baseline_seed.to_string());
        args
    }

    /// Parse one `--retain` value of the form `target:fn1,fn2,...`.
    pub fn parse_retain(value: &str) -> Result<(String, Vec<String>), String> {
        let (target, functions) = value
            .split_once(':')
            .ok_or_else(|| format!("--retain `{value}`: expected `target:fn1,fn2,...`"))?;
        let functions: Vec<String> = functions
            .split(',')
            .filter(|f| !f.is_empty())
            .map(|f| f.to_string())
            .collect();
        if target.is_empty() || functions.is_empty() {
            return Err(format!("--retain `{value}`: expected `target:fn1,fn2,...`"));
        }
        Ok((target.to_string(), functions))
    }
}

/// A space's baseline reachability as one char per point, in enumeration
/// order: `1` reached, `0` unreached, `-` unannotated (bft-lite's cluster
/// points). The supervisor passes it to every worker as `--reached`. At
/// one byte per point, a space of more than 131,071 points would exceed
/// Linux's 128 KiB limit on a single command-line argument.
pub fn encode_reached(space: &FaultSpace) -> String {
    space
        .points
        .iter()
        .map(|point| match point.reached {
            Some(true) => '1',
            Some(false) => '0',
            None => '-',
        })
        .collect()
}

/// The inverse of [`encode_reached`] for a space of `points` points.
fn decode_reached(text: &str, points: usize) -> Result<Vec<Option<bool>>, String> {
    let bits = text
        .chars()
        .map(|c| match c {
            '1' => Ok(Some(true)),
            '0' => Ok(Some(false)),
            '-' => Ok(None),
            other => Err(format!(
                "--reached: unknown char {other:?} (expected 1, 0 or -)"
            )),
        })
        .collect::<Result<Vec<_>, String>>()?;
    if bits.len() != points {
        return Err(format!(
            "--reached: {} chars for a space of {points} fault points",
            bits.len()
        ));
    }
    Ok(bits)
}

impl Default for SpaceSpec {
    fn default() -> Self {
        SpaceSpec::new()
    }
}

/// Parse a strategy name into the boxed strategy every worker runs.
///
/// `exhaustive` and `guided` cover a history-independent unit set, so a
/// supervised run merges back byte-identical to the unsharded one;
/// `adaptive` prunes against lease-local history and `random:N` samples
/// the whole space, so their merged coverage is valid but need not match
/// a single-process run unit-for-unit.
pub fn parse_strategy(name: &str, seed: u64) -> Result<Box<dyn Strategy>, String> {
    match name {
        "exhaustive" => Ok(Box::new(Exhaustive)),
        "guided" => Ok(Box::new(InjectionGuided)),
        // Saturation pruning: once a caller neighborhood keeps passing,
        // its remaining *checked* call sites are dropped, and statically
        // demoted points are skipped after a single corroborating pass —
        // the Table 1 hunt runs 240 units instead of guided's 272, still
        // finding 11/11 known bugs.
        "adaptive" => Ok(Box::new(CoverageAdaptive {
            prune_saturated: true,
            ..CoverageAdaptive::default()
        })),
        other => match other.strip_prefix("random:").and_then(|n| n.parse().ok()) {
            Some(count) => Ok(Box::new(RandomSample { count, seed })),
            None => Err(format!(
                "unknown strategy `{other}` (expected exhaustive, guided, adaptive, or random:N)"
            )),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_values_parse_and_reject_malformed_forms() {
        assert_eq!(
            SpaceSpec::parse_retain("bft-lite:open,close").unwrap(),
            ("bft-lite".to_string(), vec!["open".into(), "close".into()])
        );
        assert!(SpaceSpec::parse_retain("no-colon").is_err());
        assert!(SpaceSpec::parse_retain(":open").is_err());
        assert!(SpaceSpec::parse_retain("bft-lite:").is_err());
    }

    #[test]
    fn specs_round_trip_through_worker_flags() {
        let spec = SpaceSpec::table1();
        let args = spec.to_args();
        // Re-parse the flag stream the way the worker bin does.
        let mut parsed = SpaceSpec::new();
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let value = iter.next().expect("every spec flag takes a value");
            match flag.as_str() {
                "--target" => parsed.targets.push(value.clone()),
                "--retain" => parsed.retain.push(SpaceSpec::parse_retain(value).unwrap()),
                "--baseline-seed" => parsed.baseline_seed = value.parse().unwrap(),
                other => panic!("unexpected spec flag {other}"),
            }
        }
        assert_eq!(parsed, spec);
    }

    #[test]
    fn reached_text_round_trips_and_rejects_malformed_forms() {
        let mut space = FaultSpace::new();
        for reached in [Some(true), None, Some(false), Some(true)] {
            space.points.push(lfi_campaign::FaultPoint {
                reached,
                ..Default::default()
            });
        }
        let text = encode_reached(&space);
        assert_eq!(text, "1-01");
        let bits: Vec<_> = space.points.iter().map(|p| p.reached).collect();
        assert_eq!(decode_reached(&text, 4).unwrap(), bits);
        assert_eq!(decode_reached("", 0).unwrap(), vec![]);

        let short = decode_reached("1-0", 4).unwrap_err();
        assert!(
            short.contains("3 chars") && short.contains("4 fault points"),
            "{short}"
        );
        assert!(decode_reached("1-011", 4).is_err());
        let bad = decode_reached("1x01", 4).unwrap_err();
        assert!(bad.contains("'x'"), "{bad}");
        assert!(decode_reached("1é01", 4).is_err());
    }

    #[test]
    fn strategy_names_parse_to_the_hunt_strategies() {
        assert_eq!(
            parse_strategy("exhaustive", 7).unwrap().fingerprint(),
            Exhaustive.fingerprint()
        );
        assert!(parse_strategy("guided", 7).is_ok());
        assert!(parse_strategy("adaptive", 7).is_ok());
        assert!(parse_strategy("random:40", 7).is_ok());
        assert!(parse_strategy("random:x", 7).is_err());
        assert!(parse_strategy("warp", 7).is_err());
    }
}
