//! What a supervised campaign runs over: the fault-space specification
//! the supervisor and every worker must agree on.
//!
//! A [`SpaceSpec`] is the portable description of one fault space — which
//! targets to enumerate, which functions to keep per target, and the
//! baseline-reachability seed. Every build and enumeration uses the
//! executor's one library profile ([`StandardExecutor::profile`]). The
//! supervisor ships the spec to each worker as command-line flags and
//! builds the annotated space itself
//! ([`SpaceSpec::build_with_annotations`]): the analysis, the static prune
//! and the baseline runs happen once, in the supervisor, while its workers
//! start. Each worker only enumerates the bare points
//! ([`SpaceSpec::enumerate_bare`]: call sites and `retain`) and takes every
//! point's annotations from the supervisor's
//! [`ControlMessage::Annotations`] line. The identity fields still come
//! from the worker's own enumeration, and it echoes its plan hash back in
//! the `Hello` handshake, so a supervisor and a worker that would enumerate
//! different spaces fail loudly instead of merging nonsense.
//!
//! The spec flags have one writer, [`SpaceSpec::to_args`], and one reader,
//! [`SpaceSpec::parse_args`], which both bins call: no other code knows
//! `--preset`, `--target`, `--retain` or `--baseline-seed`.

use lfi_campaign::{
    ControlMessage, CoverageAdaptive, Exhaustive, FaultSpace, InjectionGuided, RandomSample,
    StandardExecutor, Strategy,
};

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

    /// The space [`SpaceSpec::build_with_annotations`] builds, without
    /// its message.
    pub fn build(&self, executor: &StandardExecutor) -> FaultSpace {
        self.build_with_annotations(executor).0
    }

    /// Enumerate, analyze, filter, and baseline-annotate the space this
    /// spec describes, plus the [`ControlMessage::Annotations`] that turns
    /// a worker's [`SpaceSpec::enumerate_bare`] of the same spec into this
    /// space. Deterministic: the same spec against the same executor build
    /// yields the same space (and therefore the same plan hash) in every
    /// process. The message also carries the analysis pass's prune counts,
    /// taken before `retain` as [`StandardExecutor::fault_space`] records
    /// them, so a worker's metrics read the same either way.
    pub fn build_with_annotations(
        &self,
        executor: &StandardExecutor,
    ) -> (FaultSpace, ControlMessage) {
        let mut space = executor.fault_space(&self.target_names(), executor.profile());
        let analysis = space.prune_stats();
        self.retain(&mut space);
        executor.annotate_baseline_reachability(&mut space, self.baseline_seed);
        let message = ControlMessage::Annotations {
            points: space.annotations(),
            analysis,
        };
        (space, message)
    }

    /// The spec's fault points with no annotation at all: the profiled
    /// call sites of each target, filtered by `retain`. Skips the analyzer
    /// and the baseline runs; the points' identity fields equal
    /// [`SpaceSpec::build`]'s, so applying that space's annotations
    /// ([`FaultSpace::apply_annotations`]) yields it.
    pub fn enumerate_bare(&self, executor: &StandardExecutor) -> FaultSpace {
        let mut space = FaultSpace::new();
        for name in &self.targets {
            let exe = executor
                .target(name)
                .unwrap_or_else(|| panic!("unknown target {name}"));
            space.add_target(name, exe, executor.profile());
        }
        self.retain(&mut space);
        space
    }

    fn retain(&self, space: &mut FaultSpace) {
        for (target, functions) in &self.retain {
            space.retain(|p| p.target != *target || functions.contains(&p.function));
        }
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

    /// Parse a command line that carries a spec: the inverse of
    /// [`to_args`](Self::to_args), and the one reader of the spec flags
    /// (`--preset table1`, `--target`, `--retain`, `--baseline-seed`).
    /// Every other flag goes to `other` with its [`FlagValue`], which it
    /// reads if the flag takes a value; `other` fails on a flag it does
    /// not know. Fails when no target is given.
    pub fn parse_args(
        args: impl IntoIterator<Item = String>,
        mut other: impl FnMut(&str, FlagValue) -> Result<(), String>,
    ) -> Result<SpaceSpec, String> {
        let mut spec = SpaceSpec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = FlagValue {
                flag: &flag,
                args: &mut args,
            };
            match flag.as_str() {
                "--preset" => match value.text()?.as_str() {
                    "table1" => spec = SpaceSpec::table1(),
                    other => return Err(format!("unknown preset `{other}` (expected table1)")),
                },
                "--target" => spec.targets.push(value.text()?),
                "--retain" => spec.retain.push(SpaceSpec::parse_retain(&value.text()?)?),
                "--baseline-seed" => spec.baseline_seed = value.int()?,
                _ => other(&flag, value)?,
            }
        }
        if spec.targets.is_empty() {
            return Err("no targets: pass --target or --preset table1".to_string());
        }
        Ok(spec)
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

/// The value of one command-line flag, taken from the arguments only when
/// read: a flag without a value leaves the next argument alone.
pub struct FlagValue<'a> {
    flag: &'a str,
    args: &'a mut dyn Iterator<Item = String>,
}

impl FlagValue<'_> {
    /// The value as given.
    pub fn text(self) -> Result<String, String> {
        let flag = self.flag;
        self.args
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value as an unsigned integer.
    pub fn int(self) -> Result<u64, String> {
        let flag = self.flag;
        self.text()?
            .parse()
            .map_err(|_| format!("{flag} needs an integer"))
    }
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
        let no_other = |flag: &str, _: FlagValue| Err(format!("unexpected spec flag {flag}"));
        assert_eq!(
            SpaceSpec::parse_args(spec.to_args(), no_other).unwrap(),
            spec
        );
        // The preset is the same spec; other flags reach the caller, with
        // a value only when it reads one.
        let args = ["--jobs", "3", "--preset", "table1", "--verbose"].map(String::from);
        let mut seen = Vec::new();
        let parsed = SpaceSpec::parse_args(args, |flag, value| {
            match flag {
                "--jobs" => seen.push(format!("{flag}={}", value.int()?)),
                _ => seen.push(flag.to_string()),
            }
            Ok(())
        });
        assert_eq!(parsed.unwrap(), spec);
        assert_eq!(seen, ["--jobs=3", "--verbose"]);
        // No target, a missing value and a bad integer are errors.
        let parse = |args: &[&str]| {
            SpaceSpec::parse_args(args.iter().map(|a| a.to_string()), |_, _| Ok(()))
        };
        assert!(parse(&["--baseline-seed", "7"])
            .unwrap_err()
            .contains("no targets"));
        assert!(parse(&["--target"]).unwrap_err().contains("needs a value"));
        let bad_seed = parse(&["--target", "git-lite", "--baseline-seed", "x"]);
        assert!(bad_seed.unwrap_err().contains("needs an integer"));
        assert!(parse(&["--preset", "table9"])
            .unwrap_err()
            .contains("unknown preset"));
    }

    #[test]
    fn a_bare_enumeration_with_the_shipped_annotations_is_the_built_space() {
        let spec = SpaceSpec::table1();
        let executor = StandardExecutor::new(&spec.target_names());
        let (built, message) = spec.build_with_annotations(&executor);
        assert_eq!(built.digest(), spec.build(&executor).digest());
        let ControlMessage::Annotations { points, analysis } = message else {
            panic!("expected annotations, got {message:?}");
        };
        // The hunt's prune rate, counted before `retain` drops bft-lite's
        // unharnessed points, as `fault_space` records it.
        assert_eq!((analysis.demoted, analysis.total), (42, 84));
        assert_eq!(points.len(), built.len());

        let worker = StandardExecutor::new(&spec.target_names());
        let mut bare = spec.enumerate_bare(&worker);
        assert_eq!(bare.len(), built.len());
        bare.apply_annotations(&points).unwrap();
        assert_eq!(bare.points, built.points);
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
