//! Studying the behaviour of a distributed system under failures (§7.3):
//! run the bft-lite replication cluster while a distributed trigger injects
//! faults into the inter-replica communication according to a global policy.
//!
//! Run with: `cargo run --release --example distributed_pbft_study`

use std::collections::BTreeMap;

use lfi::core::{DistributedController, DistributedPolicy, FunctionAssoc, Scenario, TriggerDecl};
use lfi::prelude::*;
use lfi::targets::{run_bft_cluster, BftClusterConfig};

/// Let the distributed trigger fail each `sendto` and each steady-state
/// `recvfrom`. The replicas' startup receive in `await_startup` stays out:
/// its error return is the seeded pbft-recvfrom bug, and failing it would
/// crash the victim instead of attacking the network.
fn loss_scenario() -> Scenario {
    let caller = |function: &str| TriggerDecl {
        id: function.into(),
        class: "CallerFunctionTrigger".into(),
        params: BTreeMap::from([
            ("function".to_string(), function.to_string()),
            ("anywhere".to_string(), "0".to_string()),
        ]),
        frames: vec![],
    };
    let mut scenario = Scenario::new()
        .with_trigger(TriggerDecl {
            id: "net".into(),
            class: "DistributedTrigger".into(),
            params: BTreeMap::new(),
            frames: vec![],
        })
        .with_trigger(caller("replica_main"))
        .with_trigger(caller("run_request"));
    for (function, triggers) in [
        ("sendto", &["net"][..]),
        ("recvfrom", &["replica_main", "net"][..]),
        ("recvfrom", &["run_request", "net"][..]),
    ] {
        scenario.functions.push(FunctionAssoc {
            function: function.into(),
            argc: 5,
            retval: Some(-1),
            errno: Some(lfi::arch::errno::EIO),
            triggers: triggers.iter().map(|t| t.to_string()).collect(),
        });
    }
    scenario
}

fn run_policy(label: &str, policy: DistributedPolicy) -> f64 {
    let coordinator = DistributedController::new(policy, 42);
    let mut registry = TriggerRegistry::default();
    coordinator.register(&mut registry);
    let result = run_bft_cluster(&BftClusterConfig {
        requests: 6,
        scenario: loss_scenario(),
        registry,
        ..BftClusterConfig::default()
    });
    println!(
        "{label:<45} completed {:>2} requests, throughput {:>8.2} req/Mtick, {} injections, {} crashes",
        result.completed,
        result.throughput,
        result.injections,
        result.crashes.len()
    );
    result.throughput
}

fn main() {
    println!("bft-lite (4 replicas, f = 1) under distributed fault-injection policies:\n");
    let baseline = run_policy("baseline (no injection)", DistributedPolicy::Never);
    let light = run_policy(
        "10% random loss on all replicas",
        DistributedPolicy::GlobalRandom { probability: 0.1 },
    );
    let blackout = run_policy(
        "blackout of one backup replica",
        DistributedPolicy::TargetNode { node: 3 },
    );
    let rotating = run_policy(
        "rotating 50-fault bursts (DoS schedule)",
        DistributedPolicy::RotatingBursts {
            nodes: vec![1, 2, 3, 4],
            burst: 50,
        },
    );
    println!("\nrelative to baseline:");
    for (label, value) in [
        ("10% random loss", light),
        ("single-replica blackout", blackout),
        ("rotating bursts", rotating),
    ] {
        println!("  {label:<25} {:+.1}%", (value / baseline - 1.0) * 100.0);
    }
}
