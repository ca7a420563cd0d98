//! One worker process of a supervised campaign.
//!
//! Spawned by `campaign_supervisor` (or any harness speaking the same
//! protocol) with the fault-space spec as flags; speaks JSONL on
//! stdin/stdout: control messages in, protocol messages and campaign
//! events out. Not usually run by hand — without a supervisor feeding
//! leases on stdin it just waits.
//!
//! The supervisor also passes `--annotations-on-stdin`: the worker then
//! enumerates the bare fault points (profile, call sites, `--retain`)
//! and waits for its first stdin line, the supervisor's annotations of
//! every point (analysis and baseline reachability, one five-char token
//! per point), so it neither analyzes the space nor runs the baseline
//! suite. If stdin closes first, or the annotations do not fit its
//! points, it exits 1 without a `Hello`. Without the flag the worker
//! builds the whole space itself; the plan hash is the same either way.
//!
//! ```text
//! campaign_worker --target git-lite [--target ...]
//!                 [--retain target:fn1,fn2]... [--baseline-seed N]
//!                 [--preset table1] [--annotations-on-stdin]
//!                 --state-dir DIR
//!                 [--strategy exhaustive|guided|adaptive|random:N]
//!                 [--jobs N] [--seed N]
//!                 [--backend fresh|snapshot]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use lfi_supervisor::worker::{run_worker, WorkerConfig};
use lfi_supervisor::SpaceSpec;

fn parse_args() -> Result<WorkerConfig, String> {
    let mut config = WorkerConfig::new(SpaceSpec::new(), PathBuf::new());
    let mut state_dir: Option<PathBuf> = None;
    config.spec = SpaceSpec::parse_args(std::env::args().skip(1), |flag, value| {
        match flag {
            "--annotations-on-stdin" => config.annotations_on_stdin = true,
            "--strategy" => config.strategy = value.text()?,
            "--jobs" => config.jobs = value.int()? as usize,
            "--seed" => config.seed = value.int()?,
            "--backend" => {
                config.backend = value.text()?.parse().map_err(|err| format!("{err}"))?
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value.text()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
        Ok(())
    })?;
    config.state_dir = state_dir.ok_or_else(|| "--state-dir is required".to_string())?;
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(config) => config,
        Err(err) => {
            eprintln!("campaign_worker: {err}");
            return ExitCode::from(2);
        }
    };
    match run_worker(&config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("campaign_worker: {err}");
            ExitCode::FAILURE
        }
    }
}
