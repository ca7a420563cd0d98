//! One worker process of a supervised campaign.
//!
//! Spawned by `campaign_supervisor` (or any harness speaking the same
//! protocol) with the fault-space spec as flags; speaks JSONL on
//! stdin/stdout: control messages in, protocol messages and campaign
//! events out. Not usually run by hand — without a supervisor feeding
//! leases on stdin it just waits.
//!
//! ```text
//! campaign_worker --target git-lite [--target ...]
//!                 [--retain target:fn1,fn2]... [--baseline-seed N]
//!                 [--preset table1]
//!                 --state-dir DIR
//!                 [--strategy exhaustive|guided|adaptive|random:N]
//!                 [--jobs N] [--seed N]
//!                 [--backend fresh|snapshot] [--snapshot-budget BYTES]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use lfi_supervisor::worker::{run_worker, WorkerConfig};
use lfi_supervisor::SpaceSpec;

fn parse_args() -> Result<WorkerConfig, String> {
    let mut spec = SpaceSpec::new();
    let mut config = WorkerConfig::new(SpaceSpec::new(), PathBuf::new());
    let mut state_dir: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--preset" => match value()?.as_str() {
                "table1" => spec = SpaceSpec::table1(),
                other => return Err(format!("unknown preset `{other}` (expected table1)")),
            },
            "--target" => spec.targets.push(value()?),
            "--retain" => spec.retain.push(SpaceSpec::parse_retain(&value()?)?),
            "--baseline-seed" => {
                spec.baseline_seed = value()?
                    .parse()
                    .map_err(|_| "--baseline-seed needs an integer".to_string())?;
            }
            "--strategy" => config.strategy = value()?,
            "--jobs" => {
                config.jobs = value()?
                    .parse()
                    .map_err(|_| "--jobs needs an integer".to_string())?;
            }
            "--seed" => {
                config.seed = value()?
                    .parse()
                    .map_err(|_| "--seed needs an integer".to_string())?;
            }
            "--backend" => config.backend = value()?.parse().map_err(|err| format!("{err}"))?,
            "--snapshot-budget" => {
                config.snapshot_budget = value()?
                    .parse()
                    .map_err(|_| "--snapshot-budget needs a byte count".to_string())?;
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if spec.targets.is_empty() {
        return Err("no targets: pass --target or --preset table1".to_string());
    }
    config.spec = spec;
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
