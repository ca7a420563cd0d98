//! Pins of the Table 1 hunt's bft-lite cluster units, run end to end
//! through [`StandardExecutor`].
//!
//! Every hooked call of a cluster run evaluates the unit's call-stack
//! trigger and charges its trigger-evaluation cost to the node's virtual
//! clock, so `virtual_time` changes if trigger evaluation changes which
//! calls it matches or how often it is charged. The constants were
//! captured before the call-stack matcher stopped symbolizing frames; never
//! re-capture them to make a change pass.

use lfi_campaign::{Executor, OutcomeKind, StandardExecutor, WorkUnit};
use lfi_targets::standard_controller;

/// The library functions the hunt injects into the cluster target.
const BFT_FUNCTIONS: [&str; 6] = ["recvfrom", "sendto", "fopen", "fwrite", "open", "close"];

/// `(function, call-site offset, outcome, injections, virtual time)`.
const PINS: &[(&str, u64, &str, u64, u64)] = &[
    ("fopen", 1872, "crashed", 4, 6_523_348),
    ("fwrite", 2040, "passed", 4, 340_050),
    ("fwrite", 2424, "passed", 4, 340_050),
    ("recvfrom", 1044, "crashed", 4, 13_375_229),
    ("recvfrom", 3636, "hung", 16_000, 13_375_229),
    ("recvfrom", 5868, "hung", 60_000, 5_933_320),
    ("sendto", 4464, "hung", 800, 12_783_229),
    ("sendto", 5568, "hung", 800, 12_637_629),
];

fn outcome_name(outcome: &OutcomeKind) -> String {
    match outcome {
        OutcomeKind::Passed => "passed".to_string(),
        OutcomeKind::CleanFailure(code) => format!("exit {code}"),
        OutcomeKind::Crashed => "crashed".to_string(),
        OutcomeKind::Hung => "hung".to_string(),
    }
}

#[test]
fn cluster_units_keep_outcome_injections_and_virtual_time() {
    let executor = StandardExecutor::new(&["bft-lite"]);
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
    // Two workers: the units are independent cluster runs.
    let mut observed: Vec<(String, u64, String, u64, u64)> = std::thread::scope(|scope| {
        let halves: Vec<_> = units
            .chunks(units.len().div_ceil(2).max(1))
            .map(|chunk| {
                let executor = &executor;
                scope.spawn(move || {
                    chunk
                        .iter()
                        .map(|unit| {
                            let run = executor.execute(unit);
                            (
                                unit.point.function.clone(),
                                unit.point.offset,
                                outcome_name(&run.outcome),
                                run.injections,
                                run.virtual_time,
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("cluster unit panicked"))
            .collect()
    });
    observed.sort();
    let expected: Vec<(String, u64, String, u64, u64)> = PINS
        .iter()
        .map(|&(f, off, outcome, inj, vt)| (f.to_string(), off, outcome.to_string(), inj, vt))
        .collect();
    assert_eq!(observed, expected);
}

/// A cluster unit runs under the executor's instruction budget: with a
/// budget far below what `sendto@4464` needs, the cluster is stopped early
/// and the unit ends `Hung` sooner, in virtual time, than its pin.
#[test]
fn set_max_instructions_bounds_a_cluster_unit() {
    let mut executor = StandardExecutor::new(&["bft-lite"]);
    executor.set_max_instructions(2_000_000);
    let profile = standard_controller().profile_libraries();
    let mut space = executor.fault_space(&["bft-lite"], &profile);
    space.retain(|p| p.function == "sendto" && p.offset == 4464);
    let point = space.points.first().expect("sendto@4464 is a fault point");
    let run = executor.execute(&WorkUnit {
        id: 0,
        point: point.clone(),
        scenario: point.scenario(),
        args: Vec::new(),
        seed: 0,
    });
    let &(.., pinned_time) = PINS
        .iter()
        .find(|&&(f, off, ..)| (f, off) == ("sendto", 4464))
        .expect("sendto@4464 is pinned");
    assert_eq!(run.outcome, OutcomeKind::Hung);
    assert!(
        run.virtual_time < pinned_time,
        "{} >= {pinned_time}",
        run.virtual_time
    );
}
