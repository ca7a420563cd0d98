//! The campaign worker: one supervised process that runs leases.
//!
//! The `campaign_worker` bin wraps [`run_worker`]. A worker builds its
//! executor and fault space once, announces itself with a
//! [`WorkerMessage::Hello`] (plan-hash handshake), then serves leases
//! from stdin until it is told to shut down (or its stdin closes — a
//! dead supervisor means exit, not orphaned work):
//!
//! * [`ControlMessage::Lease`] queues a range; leases run one at a time
//!   in arrival order, each as its own campaign run confined to the
//!   range, checkpointed to `state_dir/lease_{start}_{end}.json`. The
//!   checkpoint tag is keyed by the range, so a lease reassigned from a
//!   dead sibling resumes that sibling's file instead of restarting.
//! * [`ControlMessage::Revoke`] returns a still-queued lease to the
//!   supervisor (work stealing); the running lease always completes.
//! * [`ControlMessage::SignatureBroadcast`] accumulates crash
//!   signatures first seen by sibling workers; every subsequent lease
//!   run is seeded with them, so an adaptive strategy escalates globally
//!   hot neighborhoods, not just locally observed ones.
//!
//! Everything the worker says flows through one mutex-serialized stdout:
//! protocol messages and the forwarded per-lease event stream share the
//! pipe, discriminated by their `"worker"` / `"event"` keys.

use std::collections::VecDeque;
use std::fs;
use std::io::{self, BufRead, Write};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use lfi_campaign::{
    Campaign, CampaignEvent, ControlMessage, CrashSignature, ExecBackend, Lease, StandardExecutor,
    DEFAULT_SNAPSHOT_BUDGET,
};

use crate::plan::{parse_strategy, SpaceSpec};
use crate::protocol::WorkerMessage;

/// Everything a worker needs to serve leases; mirrors the worker bin's
/// command line.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The fault space to enumerate (must match the supervisor's).
    pub spec: SpaceSpec,
    /// Strategy name (see [`parse_strategy`]).
    pub strategy: String,
    /// Worker threads per lease run.
    pub jobs: usize,
    /// Campaign seed (unit seeds derive from it by canonical id).
    pub seed: u64,
    /// Execution backend.
    pub backend: ExecBackend,
    /// Snapshot-tree byte budget (snapshot backend only).
    pub snapshot_budget: u64,
    /// Directory of per-lease checkpoint files, shared with the
    /// supervisor and sibling workers (the merge step reads it).
    pub state_dir: PathBuf,
}

impl WorkerConfig {
    /// A config with the stock defaults for everything but the spec and
    /// state directory.
    pub fn new(spec: SpaceSpec, state_dir: impl Into<PathBuf>) -> WorkerConfig {
        WorkerConfig {
            spec,
            strategy: "exhaustive".to_string(),
            jobs: 1,
            seed: 7,
            backend: ExecBackend::Fresh,
            snapshot_budget: DEFAULT_SNAPSHOT_BUDGET,
            state_dir: state_dir.into(),
        }
    }
}

fn send(stdout: &Mutex<io::Stdout>, message: &WorkerMessage) -> Result<(), String> {
    let mut out = stdout.lock().unwrap();
    writeln!(out, "{}", message.to_json_line())
        .and_then(|()| out.flush())
        .map_err(|err| format!("worker stdout closed: {err}"))
}

/// Serve leases until shutdown. Returns `Err` on a broken environment
/// (unbuildable space, unwritable state dir, closed stdout) — never on
/// ordinary campaign outcomes.
pub fn run_worker(config: &WorkerConfig) -> Result<(), String> {
    parse_strategy(&config.strategy, config.seed)?;
    fs::create_dir_all(&config.state_dir)
        .map_err(|err| format!("create state dir {}: {err}", config.state_dir.display()))?;

    let executor = StandardExecutor::new(&config.spec.target_names());
    let space = config.spec.build(&executor);
    let stdout = Arc::new(Mutex::new(io::stdout()));

    {
        // A probe campaign pins the plan identity for the handshake.
        let probe = Campaign::builder(space.clone(), &executor)
            .seed(config.seed)
            .build();
        send(
            &stdout,
            &WorkerMessage::Hello {
                pid: std::process::id() as u64,
                points: probe.campaign().space().len(),
                units: probe.campaign().total_units(),
                plan: format!("{:016x}", probe.campaign().plan_hash()),
            },
        )?;
    }

    // Control lines arrive on a reader thread so a revoke or broadcast
    // sent mid-lease is queued, not blocked on; stdin EOF injects a
    // shutdown so a vanished supervisor cannot orphan the worker.
    let (control_tx, control_rx) = mpsc::channel::<ControlMessage>();
    thread::spawn(move || {
        let stdin = io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if line.trim().is_empty() {
                continue;
            }
            match ControlMessage::from_json_line(&line) {
                Ok(message) => {
                    if control_tx.send(message).is_err() {
                        return;
                    }
                }
                Err(err) => eprintln!("campaign_worker: undecodable control line: {err}"),
            }
        }
        let _ = control_tx.send(ControlMessage::Shutdown);
    });

    let mut queue: VecDeque<Lease> = VecDeque::new();
    let mut signatures: Vec<CrashSignature> = Vec::new();
    loop {
        // Drain every already-arrived control message before starting
        // the next lease; block only when there is nothing to run.
        let message = if queue.is_empty() {
            match control_rx.recv() {
                Ok(message) => Some(message),
                Err(_) => return Ok(()),
            }
        } else {
            control_rx.try_recv().ok()
        };
        if let Some(message) = message {
            match message {
                ControlMessage::Lease(lease) => {
                    if let Err(err) = lease.validate() {
                        eprintln!("campaign_worker: rejecting {lease}: {err}");
                    } else {
                        queue.push_back(lease);
                    }
                }
                ControlMessage::Revoke { lease } => {
                    if let Some(at) = queue.iter().position(|l| l.id == lease) {
                        queue.remove(at);
                        send(&stdout, &WorkerMessage::LeaseRevoked { lease })?;
                    }
                    // A running or finished lease is not returnable; the
                    // LeaseStarted/LeaseFinished already on the wire is
                    // the answer.
                }
                ControlMessage::SignatureBroadcast(signature) => signatures.push(signature),
                ControlMessage::Shutdown => return Ok(()),
            }
            continue;
        }

        let Some(lease) = queue.pop_front() else {
            continue;
        };
        send(&stdout, &WorkerMessage::LeaseStarted { lease: lease.id })?;
        let checkpoint = config
            .state_dir
            .join(format!("lease_{}_{}.json", lease.start, lease.end));
        let sink_out = Arc::clone(&stdout);
        let sink = move |event: &CampaignEvent| {
            let mut out = sink_out.lock().unwrap();
            // A broken pipe surfaces on the next protocol send; events
            // must not panic worker threads.
            let _ = writeln!(out, "{}", event.to_json_line());
            let _ = out.flush();
        };
        let outcome = Campaign::builder(space.clone(), &executor)
            .boxed_strategy(parse_strategy(&config.strategy, config.seed)?)
            .jobs(config.jobs)
            .seed(config.seed)
            .backend(config.backend)
            .snapshot_budget(config.snapshot_budget)
            .lease(lease)
            .known_signatures(signatures.iter().cloned())
            .events(&sink)
            .checkpoint(&checkpoint)
            .build()
            .run_to_completion();
        send(
            &stdout,
            &WorkerMessage::LeaseFinished {
                lease: lease.id,
                start: lease.start,
                end: lease.end,
                executed: outcome.report.executed_now,
                records: outcome.report.records.len(),
            },
        )?;
    }
}
