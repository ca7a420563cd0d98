//! Supervise a distributed fault-injection campaign.
//!
//! Spawns N `campaign_worker` processes, leases them unit ranges of the
//! fault space one at a time (a worker gets its next lease when it
//! finishes the last), monitors their heartbeats (dead or hung workers
//! are restarted and their lease migrates), broadcasts first-seen crash
//! signatures, and merges the per-lease checkpoints into one report.
//! The summary ends with a `phases:` line, the time of each supervisor
//! phase; `--out` writes the same spans as histograms under `metrics`.
//!
//! ```text
//! campaign_supervisor --preset table1 --state-dir DIR
//!                     [--target T]... [--retain T:fn1,fn2]...
//!                     [--baseline-seed N]
//!                     [--workers N] [--jobs N] [--lease-points N]
//!                     [--strategy exhaustive|guided|adaptive|random:N]
//!                     [--seed N] [--backend fresh|snapshot]
//!                     [--heartbeat-timeout-ms N] [--max-restarts N]
//!                     [--chaos-kill-after N] [--events-jsonl PATH]
//!                     [--worker-bin PATH] [--out PATH]
//! ```
//!
//! `--chaos-kill-after N` SIGKILLs one busy worker once N units have
//! finished campaign-wide — the recovery smoke used by CI: the merged
//! result must come out identical anyway. `lost units` in the summary
//! counts unrecorded units against the full space for the `exhaustive`
//! strategy (other strategies schedule a strategy-defined subset, so
//! the line reports 0 by construction).

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use lfi_json::Value;
use lfi_supervisor::supervisor::{run_supervised, SupervisedOutcome, SupervisorOptions, PHASES};
use lfi_supervisor::SpaceSpec;

fn parse_args() -> Result<(SupervisorOptions, Option<PathBuf>), String> {
    let mut options = SupervisorOptions::new(SpaceSpec::new(), PathBuf::new());
    let mut state_dir: Option<PathBuf> = None;
    let mut out: Option<PathBuf> = None;
    options.spec = SpaceSpec::parse_args(std::env::args().skip(1), |flag, value| {
        match flag {
            "--workers" => options.workers = value.int()? as usize,
            "--jobs" => options.jobs = value.int()? as usize,
            "--lease-points" => options.lease_points = value.int()? as usize,
            "--strategy" => options.strategy = value.text()?,
            "--seed" => options.seed = value.int()?,
            "--backend" => {
                options.backend = value.text()?.parse().map_err(|err| format!("{err}"))?
            }
            "--heartbeat-timeout-ms" => {
                options.heartbeat_timeout = Duration::from_millis(value.int()?);
            }
            "--max-restarts" => options.max_restarts = value.int()? as usize,
            "--chaos-kill-after" => options.chaos_kill_after_units = Some(value.int()? as usize),
            "--events-jsonl" => options.events_jsonl = Some(PathBuf::from(value.text()?)),
            "--worker-bin" => options.worker_bin = PathBuf::from(value.text()?),
            "--state-dir" => state_dir = Some(PathBuf::from(value.text()?)),
            "--out" => out = Some(PathBuf::from(value.text()?)),
            other => return Err(format!("unknown flag `{other}`")),
        }
        Ok(())
    })?;
    options.state_dir = state_dir.ok_or_else(|| "--state-dir is required".to_string())?;
    Ok((options, out))
}

fn summary_json(options: &SupervisorOptions, outcome: &SupervisedOutcome, lost: usize) -> Value {
    let int = |key: &str, value: u64| (key.to_string(), Value::Int(value as i64));
    Value::Obj(vec![
        ("strategy".to_string(), Value::Str(options.strategy.clone())),
        ("plan".to_string(), Value::Str(outcome.plan_tag.clone())),
        int("workers", options.workers as u64),
        int("points", outcome.total_points as u64),
        int("units_total", outcome.total_units as u64),
        int("records", outcome.report.records.len() as u64),
        int("lost_units", lost as u64),
        int("distinct_signatures", outcome.distinct_signatures as u64),
        int("leases_issued", outcome.leases_issued),
        int("leases_expired", outcome.leases_expired),
        int("worker_restarts", outcome.worker_restarts),
        int("re_executed_units", outcome.re_executed_units as u64),
        int(
            "killed_in_flight_units",
            outcome.killed_in_flight_units as u64,
        ),
        ("metrics".to_string(), outcome.metrics.to_value()),
    ])
}

/// The supervisor's phase spans on one line: each phase's time in
/// milliseconds, as a mean with its count where the phase repeats (one
/// `hello` per worker start, one `lease` per completed lease).
fn phases_line(outcome: &SupervisedOutcome) -> String {
    let phases: Vec<String> = PHASES
        .iter()
        .map(|name| {
            let label = name
                .trim_start_matches("supervisor.")
                .trim_end_matches("_micros");
            let span = outcome.metrics.histogram(name).cloned().unwrap_or_default();
            let ms = span.sum as f64 / 1e3;
            if span.count > 1 {
                format!(
                    "{label} {:.2} ms mean of {}",
                    ms / span.count as f64,
                    span.count
                )
            } else {
                format!("{label} {ms:.2} ms")
            }
        })
        .collect();
    format!("phases: {}", phases.join(", "))
}

fn main() -> ExitCode {
    let (options, out) = match parse_args() {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("campaign_supervisor: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run_supervised(&options) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("campaign_supervisor: {err}");
            return ExitCode::FAILURE;
        }
    };

    // Unrecorded units against the full space — only the exhaustive
    // strategy promises to cover everything.
    let lost = if options.strategy == "exhaustive" {
        outcome.total_units - outcome.report.records.len()
    } else {
        0
    };

    println!(
        "supervised campaign: {} over {} points / {} units ({} workers, {} leases)",
        options.strategy,
        outcome.total_points,
        outcome.total_units,
        options.workers,
        outcome.leases_issued,
    );
    println!("plan: {}", outcome.plan_tag);
    println!(
        "units: {} recorded, {} re-executed (bound {}); lost units: {}",
        outcome.report.records.len(),
        outcome.re_executed_units,
        outcome.killed_in_flight_units,
        lost,
    );
    println!("signatures: {} distinct", outcome.distinct_signatures);
    println!(
        "workers: {} restarts; leases: {} issued, {} expired",
        outcome.worker_restarts, outcome.leases_issued, outcome.leases_expired,
    );
    println!("{}", phases_line(&outcome));

    if let Some(path) = out {
        let json = summary_json(&options, &outcome, lost).to_pretty();
        if let Err(err) = std::fs::write(&path, json + "\n") {
            eprintln!("campaign_supervisor: write {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }

    if lost > 0 {
        eprintln!("campaign_supervisor: {lost} units lost — the merge should have caught this");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
