//! Pins of the Table 1 hunt's bft-lite cluster units, run end to end
//! through [`StandardExecutor`].
//!
//! Every hooked call of a cluster run evaluates the unit's call-stack
//! trigger and charges its trigger-evaluation cost to the node's virtual
//! clock, so `virtual_time` changes if trigger evaluation changes which
//! calls it matches or how often it is charged. The virtual times and
//! offsets of [`PINS`] were captured before the call-stack matcher stopped
//! symbolizing frames, and re-captured once, when the cluster moved from
//! timeouts counted in polls to receive deadlines in virtual time (the
//! time-independent [`OUTCOMES`] held across that change). Never
//! re-capture them to make a change pass.

use std::collections::BTreeMap;

use lfi_campaign::{Execution, Executor, FaultPoint, OutcomeKind, StandardExecutor, WorkUnit};
use lfi_targets::{run_bft_cluster, standard_controller, BftClusterConfig};

/// The library functions the hunt injects into the cluster target.
const BFT_FUNCTIONS: [&str; 6] = ["recvfrom", "sendto", "fopen", "fwrite", "open", "close"];

/// `(function, call-site offset, outcome, injections, virtual time)`.
const PINS: &[(&str, u64, &str, u64, u64)] = &[
    ("fopen", 1872, "crashed", 4, 3_214_078),
    ("fwrite", 2040, "passed", 4, 13_022),
    ("fwrite", 2424, "passed", 4, 13_022),
    ("recvfrom", 1044, "crashed", 4, 12_818_703),
    ("recvfrom", 3840, "hung", 16_000, 12_818_703),
    ("recvfrom", 6600, "hung", 60_000, 4_151_103),
    ("sendto", 4992, "hung", 800, 12_826_703),
    ("sendto", 6096, "hung", 800, 12_681_103),
];

fn outcome_name(outcome: &OutcomeKind) -> String {
    match outcome {
        OutcomeKind::Passed => "passed".to_string(),
        OutcomeKind::CleanFailure(code) => format!("exit {code}"),
        OutcomeKind::Crashed => "crashed".to_string(),
        OutcomeKind::Hung => "hung".to_string(),
    }
}

/// Run every hunt unit of bft-lite through `executor`, two workers at a
/// time (the units are independent cluster runs), in fault-space order.
fn execute_bft_units(executor: &StandardExecutor) -> Vec<(FaultPoint, Execution)> {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["bft-lite"], &profile);
    space.retain(|p| BFT_FUNCTIONS.contains(&p.function.as_str()));
    let units: Vec<WorkUnit> = space
        .points
        .iter()
        .enumerate()
        .map(|(id, point)| WorkUnit {
            id,
            point: point.clone(),
            scenario: point.scenario(),
            args: Vec::new(),
            seed: id as u64,
        })
        .collect();
    std::thread::scope(|scope| {
        let halves: Vec<_> = units
            .chunks(units.len().div_ceil(2).max(1))
            .map(|chunk| {
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|unit| (unit.point.clone(), executor.execute(unit)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("cluster unit panicked"))
            .collect()
    })
}

#[test]
fn cluster_units_keep_outcome_injections_and_virtual_time() {
    let executor = StandardExecutor::new(&["bft-lite"]);
    let mut observed: Vec<(String, u64, String, u64, u64)> = execute_bft_units(&executor)
        .into_iter()
        .map(|(point, run)| {
            (
                point.function,
                point.offset,
                outcome_name(&run.outcome),
                run.injections,
                run.virtual_time,
            )
        })
        .collect();
    observed.sort();
    let expected: Vec<(String, u64, String, u64, u64)> = PINS
        .iter()
        .map(|&(f, off, outcome, inj, vt)| (f.to_string(), off, outcome.to_string(), inj, vt))
        .collect();
    assert_eq!(observed, expected);
}

/// `(function, caller, ordinal)` -> `(outcome, crash sites, injections)`.
/// A point is keyed by its call site in source terms, the ordinal counting
/// the points of one function and caller in offset order, so the pins hold
/// across edits of `bft-lite.c` that move code. A crash site is
/// `module:function<-called from: fault kind`, without offsets: the
/// function of the faulting instruction (`?` where the executor does not
/// resolve it, as in the library), the function of the innermost call site
/// on the stack, and the fault kind. Each distinct site is listed once.
#[allow(clippy::type_complexity)]
const OUTCOMES: &[((&str, &str, usize), (&str, &[&str], u64))] = &[
    (
        ("fopen", "write_checkpoint", 0),
        (
            "crashed",
            &["libc:?<-write_checkpoint: segmentation fault (null dereference at 0x0)"],
            4,
        ),
    ),
    (("fwrite", "write_checkpoint", 0), ("passed", &[], 4)),
    (("fwrite", "write_checkpoint", 1), ("passed", &[], 4)),
    (
        ("recvfrom", "await_startup", 0),
        (
            "crashed",
            &["bft-lite:await_startup<-replica_main: segmentation fault (null dereference at 0x0)"],
            4,
        ),
    ),
    (("recvfrom", "replica_main", 0), ("hung", &[], 16_000)),
    (("recvfrom", "run_request", 0), ("hung", &[], 60_000)),
    (("sendto", "replica_main", 0), ("hung", &[], 800)),
    (("sendto", "run_request", 0), ("hung", &[], 800)),
];

/// The time-independent half of every cluster unit: what happened, where
/// it crashed and how often the fault was injected. Unlike [`PINS`], this
/// holds across a change of how the cluster keeps virtual time.
#[test]
fn cluster_units_keep_outcome_crash_and_injections() {
    let executor = StandardExecutor::new(&["bft-lite"]);
    let mut runs = execute_bft_units(&executor);
    runs.sort_by_key(|(point, _)| point.offset);
    let mut ordinals: BTreeMap<(String, String), usize> = BTreeMap::new();
    let observed: BTreeMap<_, _> = runs
        .into_iter()
        .map(|(point, run)| {
            let caller = point.caller.unwrap_or_default();
            let ordinal = ordinals
                .entry((point.function.clone(), caller.clone()))
                .or_default();
            let key = (point.function, caller, *ordinal);
            *ordinal += 1;
            let mut crashes: Vec<String> = run
                .crashes
                .iter()
                .map(|crash| {
                    let kind = crash.description.split(" in ").next().unwrap_or_default();
                    format!(
                        "{}:{}<-{}: {kind}",
                        crash.module,
                        crash.in_function.as_deref().unwrap_or("?"),
                        crash.backtrace.first().map_or("?", String::as_str),
                    )
                })
                .collect();
            crashes.sort();
            crashes.dedup();
            (key, (outcome_name(&run.outcome), crashes, run.injections))
        })
        .collect();
    let expected: BTreeMap<_, _> = OUTCOMES
        .iter()
        .map(
            |&((function, caller, ordinal), (outcome, crashes, injections))| {
                (
                    (function.to_string(), caller.to_string(), ordinal),
                    (
                        outcome.to_string(),
                        crashes.iter().map(|c| c.to_string()).collect(),
                        injections,
                    ),
                )
            },
        )
        .collect();
    assert_eq!(observed, expected);
}

/// The hunt unit that fails `function` called from `caller`.
fn unit_at(executor: &StandardExecutor, function: &str, caller: &str) -> WorkUnit {
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["bft-lite"], &profile);
    space.retain(|p| p.function == function && p.caller.as_deref() == Some(caller));
    let point = space
        .points
        .first()
        .unwrap_or_else(|| panic!("{function} in {caller} is a fault point"));
    WorkUnit {
        id: 0,
        point: point.clone(),
        scenario: point.scenario(),
        args: Vec::new(),
        seed: 0,
    }
}

/// A cluster unit runs under the executor's instruction budget, a hard cap
/// on the nodes' summed instructions: with a budget far below what the
/// replicas' failing `sendto` needs, the cluster is stopped early and the
/// unit ends `Hung` sooner, in virtual time, than its pin.
#[test]
fn set_max_instructions_bounds_a_cluster_unit() {
    const BUDGET: u64 = 150_000;
    let mut executor = StandardExecutor::new(&["bft-lite"]);
    executor.set_max_instructions(BUDGET);
    let unit = unit_at(&executor, "sendto", "replica_main");
    let run = executor.execute(&unit);
    let &(.., pinned_time) = PINS
        .iter()
        .find(|&&(f, off, ..)| (f, off) == ("sendto", unit.point.offset))
        .expect("the replicas' sendto is pinned");
    assert_eq!(run.outcome, OutcomeKind::Hung);
    assert!(
        run.virtual_time < pinned_time,
        "{} >= {pinned_time}",
        run.virtual_time
    );
    let result = run_bft_cluster(&executor.cluster_config(&unit));
    assert_eq!(result.virtual_time, run.virtual_time);
    assert!(
        result.instructions() <= BUDGET,
        "{} instructions over a budget of {BUDGET}",
        result.instructions()
    );
}

/// Idle nodes wait for the next event instead of polling: instruction
/// counts are deterministic, so this catches a return to polled timeouts
/// without timing noise. With polled timeouts the replicas' failing
/// `sendto` ran 18.29 M instructions and the uninjected cluster 0.48 M.
#[test]
fn idle_nodes_wait_instead_of_polling() {
    let executor = StandardExecutor::new(&["bft-lite"]);
    let unit = unit_at(&executor, "sendto", "replica_main");
    let hung = run_bft_cluster(&executor.cluster_config(&unit));
    assert_eq!(hung.node_stats.len(), 5);
    assert!(
        hung.instructions() <= 1_000_000,
        "{} instructions: {:?}",
        hung.instructions(),
        hung.node_stats
    );

    let clean = run_bft_cluster(&BftClusterConfig {
        requests: executor.bft_requests,
        ..BftClusterConfig::default()
    });
    assert_eq!(clean.completed, executor.bft_requests as i64);
    assert!(
        clean.instructions() <= 100_000,
        "{} instructions: {:?}",
        clean.instructions(),
        clean.node_stats
    );
}
