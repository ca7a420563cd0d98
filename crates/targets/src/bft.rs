//! Multi-process harness for `bft-lite`: four replicas plus one client on a
//! shared simulated network, each with its own injection engine (all engines
//! share the distributed trigger controller when one is registered).
//!
//! This harness backs the distributed experiments: the Table 1 PBFT bugs,
//! Figure 3 (slowdown under progressively worse "network conditions",
//! implemented as random injections into `sendto`/`recvfrom`), and the §7.3
//! denial-of-service study.
//!
//! Time is event-driven. The nodes keep their timers as receive deadlines
//! in virtual time (see [`lfi_vm::net`]), so a node with nothing to do
//! blocks in `recvfrom` instead of polling. A `Cluster` runs its runnable
//! nodes round-robin in slices; a blocked node runs again once a datagram
//! is queued for it. When every live node is blocked, the node with the
//! earliest deadline has its clock moved up to that deadline and its
//! receive times out. The run ends when the client exits, at the global
//! instruction budget, or at exact quiescence: every live node blocked with
//! nothing queued for it and no deadline pending.

use std::sync::Arc;

use lfi_core::{InjectionEngine, InjectionLog, Scenario, TriggerRegistry};
use lfi_libc::build as build_libc;
use lfi_vm::{
    Datagram, ExecStats, Fault, Loader, Machine, NetHandle, ProcessConfig, RunExit, SimNet,
};

use crate::{bft_lite, standard_fs_setup};

/// Configuration of one cluster run.
#[derive(Debug, Clone)]
pub struct BftClusterConfig {
    /// Number of replicas (the paper uses 4, i.e. f = 1).
    pub replicas: usize,
    /// Number of client requests to issue.
    pub requests: usize,
    /// Client retransmission timeout, in virtual-time ticks.
    pub client_timeout: i64,
    /// Replica idle timeout before it shuts down, in virtual-time ticks.
    pub replica_idle: i64,
    /// RNG seed (propagated to every node).
    pub seed: u64,
    /// The injection scenario applied to every node.
    pub scenario: Scenario,
    /// Trigger registry used to build each node's engine (register the
    /// `DistributedTrigger` controller here).
    pub registry: TriggerRegistry,
    /// Global instruction budget across all nodes: the nodes' summed
    /// instruction counts never exceed it.
    pub budget: u64,
    /// Round-robin slice per node, in instructions.
    pub slice: u64,
}

impl Default for BftClusterConfig {
    fn default() -> Self {
        BftClusterConfig {
            replicas: 4,
            requests: 8,
            // About what 300 and 4000 polls of an empty socket took when
            // the nodes counted their timeouts in polls (~210 ticks each).
            client_timeout: 63_000,
            replica_idle: 840_000,
            seed: 1,
            scenario: Scenario::new(),
            registry: TriggerRegistry::default(),
            budget: 120_000_000,
            slice: 20_000,
        }
    }
}

/// Outcome of one cluster run.
#[derive(Debug)]
pub struct BftRunResult {
    /// Requests the client completed (got f+1 matching replies for).
    pub completed: i64,
    /// Maximum virtual time across all nodes — the cluster's makespan.
    pub virtual_time: u64,
    /// The client's virtual time when the run ended: the time it took to
    /// issue its requests and collect their replies. A replica that keeps
    /// spinning after the client is done does not extend it.
    pub client_time: u64,
    /// Requests per million ticks of the client's clock (the throughput
    /// measure used by the DoS study).
    pub throughput: f64,
    /// Crashes observed, as `(node id, fault)`.
    pub crashes: Vec<(i64, Fault)>,
    /// Total injections across all nodes.
    pub injections: u64,
    /// Each node's injection log, as `(node id, log)`, in the order of
    /// `node_stats`.
    pub logs: Vec<(i64, InjectionLog)>,
    /// Each node's execution statistics, as `(node id, stats)`, replicas
    /// first and the client last.
    pub node_stats: Vec<(i64, ExecStats)>,
    /// Client output.
    pub client_output: String,
}

impl BftRunResult {
    /// Guest instructions executed across all nodes.
    pub fn instructions(&self) -> u64 {
        self.node_stats.iter().map(|(_, s)| s.instructions).sum()
    }
}

const CLIENT_NODE: i64 = 99;
const BASE_PORT: i64 = 5000;
const CLIENT_PORT: i64 = 6000;

/// One process of the cluster.
struct Node {
    id: i64,
    machine: Machine,
    engine: InjectionEngine,
}

/// A bft-lite cluster: the replicas and the client, attached to one
/// network, scheduled in event-driven virtual time (see the module docs).
struct Cluster {
    nodes: Vec<Node>,
    budget: u64,
    slice: u64,
    spent: u64,
    crashes: Vec<(i64, Fault)>,
    completed: Option<i64>,
}

impl Cluster {
    /// Build the cluster of `config`: bind every endpoint, queue the
    /// replicas' startup hellos, load bft-lite once and start one machine
    /// per node on that image.
    fn new(config: &BftClusterConfig) -> Cluster {
        let net = NetHandle::new(SimNet::new(config.seed));

        // Pre-bind every endpoint so early datagrams are queued, not dropped.
        for replica in 1..=config.replicas as i64 {
            net.bind(replica, BASE_PORT + replica);
        }
        net.bind(CLIENT_NODE, CLIENT_PORT);

        // Startup synchronization expected by the replicas (see bft-lite.c).
        for replica in 1..=config.replicas as i64 {
            net.send(Datagram {
                from_node: 0,
                from_port: 0,
                to_node: replica,
                to_port: BASE_PORT + replica,
                payload: b"hello".to_vec(),
                sent_at: 0,
            });
        }

        // Every node runs the same executable with the same functions
        // interposed, so the nodes share one loaded image.
        let mut loader = Loader::new();
        loader.add_library(build_libc());
        loader.interpose_all(config.scenario.intercepted_functions());
        let image = Arc::new(loader.load(bft_lite()).expect("bft-lite must load"));

        let make_node = |id: i64, args: Vec<String>| {
            let engine = InjectionEngine::with_registry(&config.scenario, &config.registry)
                .expect("scenario must compile");
            let mut machine = Machine::from_image(
                image.clone(),
                ProcessConfig {
                    node_id: id,
                    seed: config.seed.wrapping_add(id as u64),
                    args,
                    ..ProcessConfig::default()
                },
            );
            machine.attach_net(net.clone());
            standard_fs_setup(&mut machine);
            Node {
                id,
                machine,
                engine,
            }
        };

        let mut nodes = Vec::new();
        for replica in 1..=config.replicas as i64 {
            nodes.push(make_node(
                replica,
                vec![
                    "replica".to_string(),
                    replica.to_string(),
                    config.replica_idle.to_string(),
                ],
            ));
        }
        nodes.push(make_node(
            CLIENT_NODE,
            vec![
                "client".to_string(),
                config.requests.to_string(),
                config.client_timeout.to_string(),
            ],
        ));
        Cluster {
            nodes,
            budget: config.budget,
            slice: config.slice,
            spent: 0,
            crashes: Vec::new(),
            completed: None,
        }
    }

    /// Run until the client exits, the budget is spent, or the cluster is
    /// quiescent.
    fn run(&mut self) {
        while self.completed.is_none() && self.spent < self.budget {
            if !self.run_round() && !self.expire_earliest_deadline() {
                break; // quiescent
            }
        }
    }

    /// Give every live node one slice, clamped to the budget left. Returns
    /// whether any node executed an instruction; a blocked node with
    /// nothing queued for it returns at once without executing any.
    fn run_round(&mut self) -> bool {
        let mut progress = false;
        for node in &mut self.nodes {
            let left = self.budget - self.spent;
            if left == 0 || self.completed.is_some() {
                break;
            }
            if node.machine.finished().is_some() {
                continue;
            }
            let before = node.machine.stats.instructions;
            let exit = node.machine.run(&mut node.engine, self.slice.min(left));
            let ran = node.machine.stats.instructions - before;
            self.spent += ran;
            progress |= ran > 0;
            match exit {
                // `Paused` cannot occur here (injection engines never
                // pause), but treat it like an idle slice if it ever does.
                RunExit::Budget | RunExit::Blocked | RunExit::Paused => {}
                RunExit::Fault(fault) => self.crashes.push((node.id, fault)),
                RunExit::Exited(code) => {
                    if node.id == CLIENT_NODE {
                        self.completed = Some(code);
                    }
                }
            }
        }
        progress
    }

    /// Every live node is blocked with nothing queued for it: let the
    /// earliest receive deadline among them pass. Returns `false` when no
    /// live node waits for a deadline.
    fn expire_earliest_deadline(&mut self) -> bool {
        let earliest = self
            .nodes
            .iter_mut()
            .filter(|node| node.machine.finished().is_none())
            .filter_map(|node| Some((node.machine.recv_deadline()?, node)))
            .min_by_key(|(deadline, _)| *deadline);
        match earliest {
            Some((_, node)) => node.machine.expire_recv_deadline().is_some(),
            None => false,
        }
    }

    /// The result of the run, which takes over every node's injection log.
    fn into_result(self) -> BftRunResult {
        let client = self
            .nodes
            .iter()
            .find(|node| node.id == CLIENT_NODE)
            .expect("client node exists");
        let completed = self.completed.unwrap_or(0);
        let virtual_time = self
            .nodes
            .iter()
            .map(|node| node.machine.clock())
            .max()
            .unwrap_or(0);
        let client_time = client.machine.clock();
        let throughput = if client_time > 0 {
            completed as f64 * 1_000_000.0 / client_time as f64
        } else {
            0.0
        };
        BftRunResult {
            completed,
            virtual_time,
            client_time,
            throughput,
            injections: self
                .nodes
                .iter()
                .map(|node| node.engine.log.injection_count() as u64)
                .sum(),
            node_stats: self
                .nodes
                .iter()
                .map(|node| (node.id, node.machine.stats))
                .collect(),
            client_output: client.machine.output_string(),
            logs: self
                .nodes
                .into_iter()
                .map(|node| (node.id, node.engine.log))
                .collect(),
            crashes: self.crashes,
        }
    }
}

/// Run a bft-lite cluster under the given configuration.
pub fn run_bft_cluster(config: &BftClusterConfig) -> BftRunResult {
    let mut cluster = Cluster::new(config);
    cluster.run();
    cluster.into_result()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_completes_requests_without_injection() {
        let result = run_bft_cluster(&BftClusterConfig {
            requests: 6,
            ..BftClusterConfig::default()
        });
        assert!(
            result.completed >= 5,
            "expected most requests to complete, got {} (output: {})",
            result.completed,
            result.client_output
        );
        assert!(result.crashes.is_empty(), "crashes: {:?}", result.crashes);
        assert!(result.client_time > 0);
        assert!(result.client_time <= result.virtual_time);
        assert!(result.throughput > 0.0);
        assert_eq!(result.injections, 0);
    }
}
