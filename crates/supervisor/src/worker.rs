//! The campaign worker: one supervised process that runs leases.
//!
//! The `campaign_worker` bin wraps [`run_worker`]. A worker builds its
//! executor and fault space once. Started by a supervisor (with
//! [`WorkerConfig::annotations_on_stdin`]), it enumerates the bare points
//! ([`SpaceSpec::enumerate_bare`]) and takes every point's analysis and
//! baseline reachability from its first stdin line, the supervisor's
//! [`ControlMessage::Annotations`]. It then announces itself with a
//! [`WorkerMessage::Hello`] (plan-hash handshake) and serves leases from
//! stdin until it is told to shut down or its stdin closes (a dead
//! supervisor means exit, not orphaned work):
//!
//! * [`ControlMessage::Lease`] runs a range as soon as it arrives, as
//!   its own campaign run confined to the range, checkpointed to
//!   `state_dir/lease_{start}_{end}.json`: an exhaustive lease is one
//!   batch, so it writes its checkpoint once, sealed. The supervisor
//!   grants the next lease only after this one's `LeaseFinished`, so a
//!   worker never holds more than one. The checkpoint tag is keyed by the
//!   range, so a lease reassigned from a dead sibling resumes that
//!   sibling's file instead of restarting.
//! * [`ControlMessage::SignatureBroadcast`] accumulates crash
//!   signatures first seen by sibling workers; every subsequent lease
//!   run is seeded with them, so an adaptive strategy escalates globally
//!   hot neighborhoods, not just locally observed ones.
//!
//! Everything the worker says flows through one mutex-serialized stdout:
//! protocol messages and the forwarded per-lease event stream share the
//! pipe, discriminated by their `"worker"` / `"event"` keys.

use std::fs;
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;

use lfi_campaign::{
    Campaign, CampaignEvent, ControlMessage, CrashSignature, ExecBackend, FaultSpace,
    StandardExecutor,
};

use crate::plan::{parse_strategy, SpaceSpec};
use crate::protocol::WorkerMessage;

/// Everything a worker needs to serve leases; mirrors the worker bin's
/// command line.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// The fault space to enumerate (must match the supervisor's).
    pub spec: SpaceSpec,
    /// Take the space's annotations from the first stdin line (the
    /// supervisor's [`ControlMessage::Annotations`]) instead of analyzing
    /// the space and running the baseline suite here
    /// ([`SpaceSpec::build`]).
    pub annotations_on_stdin: bool,
    /// Strategy name (see [`parse_strategy`]).
    pub strategy: String,
    /// Worker threads per lease run.
    pub jobs: usize,
    /// Campaign seed (unit seeds derive from it by canonical id).
    pub seed: u64,
    /// Execution backend.
    pub backend: ExecBackend,
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
            annotations_on_stdin: false,
            strategy: "exhaustive".to_string(),
            jobs: 1,
            seed: 7,
            backend: ExecBackend::default(),
            state_dir: state_dir.into(),
        }
    }
}

/// The checkpoint file of the lease over points `start..end`. It is keyed
/// by the range, not the grant, so whoever holds the range next resumes it.
pub(crate) fn lease_checkpoint(state_dir: &Path, start: usize, end: usize) -> PathBuf {
    state_dir.join(format!("lease_{start}_{end}.json"))
}

fn write_line(stdout: &Mutex<io::Stdout>, line: &str) -> io::Result<()> {
    let mut out = stdout.lock().expect("a stdout writer panicked");
    writeln!(out, "{line}").and_then(|()| out.flush())
}

fn send(stdout: &Mutex<io::Stdout>, message: &WorkerMessage) -> Result<(), String> {
    write_line(stdout, &message.to_json_line())
        .map_err(|err| format!("worker stdout closed: {err}"))
}

/// The bare space annotated from the first stdin line, which must be the
/// supervisor's [`ControlMessage::Annotations`] for exactly these points;
/// the analysis counts it carries become the executor's own.
fn annotate_from_stdin(
    mut space: FaultSpace,
    executor: &StandardExecutor,
) -> Result<FaultSpace, String> {
    let mut line = String::new();
    while line.trim().is_empty() {
        line.clear();
        let read = io::stdin()
            .lock()
            .read_line(&mut line)
            .map_err(|err| format!("read annotations from stdin: {err}"))?;
        if read == 0 {
            return Err("stdin closed before the supervisor's annotations arrived".to_string());
        }
    }
    match ControlMessage::from_json_line(line.trim()) {
        Ok(ControlMessage::Annotations { points, analysis }) => {
            space.apply_annotations(&points)?;
            executor.record_analysis(analysis);
            Ok(space)
        }
        Ok(other) => Err(format!(
            "expected the space's annotations first, got {}",
            other.to_json_line()
        )),
        Err(err) => Err(format!("undecodable annotations line: {err}")),
    }
}

/// Serve leases until shutdown. Returns `Err` on a broken environment
/// (unbuildable space, annotations that are missing or do not fit it,
/// unwritable state dir, closed stdout) — never on ordinary campaign
/// outcomes.
pub fn run_worker(config: &WorkerConfig) -> Result<(), String> {
    parse_strategy(&config.strategy, config.seed)?;
    fs::create_dir_all(&config.state_dir)
        .map_err(|err| format!("create state dir {}: {err}", config.state_dir.display()))?;

    let executor = StandardExecutor::new(&config.spec.target_names());
    let space = if config.annotations_on_stdin {
        // Enumerate before blocking on stdin: the supervisor is building
        // the annotations meanwhile.
        annotate_from_stdin(config.spec.enumerate_bare(&executor), &executor)?
    } else {
        config.spec.build(&executor)
    };
    let stdout = Mutex::new(io::stdout());

    // A probe campaign pins the plan identity for the handshake.
    let probe = Campaign::builder(space.clone(), &executor).seed(config.seed);
    let plan = format!("{:016x}", probe.build().plan_hash());
    send(&stdout, &WorkerMessage::Hello { plan })?;

    // Control lines arrive on a reader thread so a broadcast sent
    // mid-lease is buffered here instead of blocking the supervisor's
    // write; stdin EOF injects a shutdown so a vanished supervisor cannot
    // orphan the worker.
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

    let mut signatures: Vec<CrashSignature> = Vec::new();
    for message in control_rx {
        let lease = match message {
            ControlMessage::Lease(lease) => lease,
            ControlMessage::SignatureBroadcast(signature) => {
                signatures.push(signature);
                continue;
            }
            ControlMessage::Annotations { .. } => {
                eprintln!("campaign_worker: ignoring annotations after the handshake");
                continue;
            }
            ControlMessage::Shutdown => break,
        };
        if let Err(err) = lease.validate() {
            eprintln!("campaign_worker: rejecting {lease}: {err}");
            continue;
        }
        let checkpoint = lease_checkpoint(&config.state_dir, lease.start, lease.end);
        // A broken pipe surfaces on the next protocol send; events must
        // not panic worker threads.
        let sink = |event: &CampaignEvent| drop(write_line(&stdout, &event.to_json_line()));
        Campaign::builder(space.clone(), &executor)
            .boxed_strategy(parse_strategy(&config.strategy, config.seed)?)
            .jobs(config.jobs)
            .seed(config.seed)
            .backend(config.backend)
            .lease(lease)
            .known_signatures(signatures.iter().cloned())
            .events(&sink)
            .checkpoint(&checkpoint)
            .build()
            .run_to_completion();
        send(&stdout, &WorkerMessage::LeaseFinished { lease: lease.id })?;
    }
    Ok(())
}
