//! Run one benchmark workload and print its metrics.
//!
//! ```text
//! lfi_perfbench --workload hunt|sweep|supervised_sweep|triggers
//!               [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR]
//!               [--setup-probe]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the
//! traced suite and prints the per-layer metrics. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! `--setup-probe` sets the workload up once and prints only the seconds
//! it took; untraced runs start this binary that way to sample `setup_s`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use lfi_campaign::derive_seed;
use lfi_perfbench::layers::traced_run;
use lfi_perfbench::stats::{
    largest_child_peak_rss_mb, median, reset_peak_rss, secs, self_peak_rss_mb, timed, Metric,
};
use lfi_perfbench::workloads::{build, Kind, Tally};

/// Timed iterations every untraced run makes, however short `--seconds`
/// is.
const MIN_ITERATIONS: usize = 3;
/// Untimed iterations run at least this long before timing starts.
const WARMUP_SECONDS: f64 = 1.0;
/// Set-up probes before the first iteration.
const SETUP_PROBES: usize = 5;
/// Interval between the set-up probes sampled during the timed loop.
const SETUP_SAMPLE_SECONDS: f64 = 0.5;

const USAGE: &str = "usage: lfi_perfbench --workload hunt|sweep|supervised_sweep|triggers \
                     [--seed N] [--seconds S] [--trace 0|1] [--work-dir DIR] [--setup-probe]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut args = Args {
        kind: Kind::Hunt,
        seed: 7,
        seconds: 20.0,
        trace: false,
        setup_probe: false,
        work_dir: PathBuf::from("perfbench/target/work"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--setup-probe" {
            args.setup_probe = true;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--work-dir" => args.work_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    args.kind = kind.ok_or("--workload is required")?;
    Ok(args)
}

/// Seconds one set-up takes in a fresh process of this binary. A fresh
/// process compiles the targets again (the compiled modules are cached
/// per process) and lands on whichever core the kernel picks, as a real
/// run of the program does. Probe `probe` sets up under its own seed
/// derived from the workload seed: the hunt's reachability annotation
/// takes up to a third longer on some seeds, and a median over many seeds
/// does not hinge on which one a run was given.
fn probe_setup(args: &Args, probe: usize, work_dir: &Path) -> f64 {
    let exe = std::env::current_exe().expect("benchmark binary path");
    let seed = derive_seed(args.seed, probe as u64).to_string();
    let output = Command::new(exe)
        .args(["--workload", args.kind.name(), "--seed", &seed])
        .arg("--work-dir")
        .arg(work_dir)
        .arg("--setup-probe")
        .output()
        .expect("spawn set-up probe");
    let text = String::from_utf8_lossy(&output.stdout);
    match text.trim().parse() {
        Ok(seconds) if output.status.success() => seconds,
        _ => panic!(
            "set-up probe failed ({}): {text}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ),
    }
}

/// The end-to-end metrics of untraced iterations.
fn untraced(args: &Args, work_dir: &Path) -> (Vec<Metric>, Tally) {
    let mut bench = build(args.kind, args.seed, work_dir);
    let mut tally = Tally::default();
    // Untimed warm-up: the first seconds of a process run measurably
    // slower on a shared host.
    let warmup = Instant::now();
    let mut index = 0;
    while index == 0 || secs(warmup) < WARMUP_SECONDS {
        tally.merge(bench.iterate(index, false).tally);
        index += 1;
    }
    // Workers are separate processes: add the largest one's peak, read
    // before the first set-up probe (also a child) has run.
    let children_mb = if args.kind == Kind::SupervisedSweep {
        largest_child_peak_rss_mb()
    } else {
        0.0
    };
    let mut setup_s: Vec<f64> = (0..SETUP_PROBES)
        .map(|probe| probe_setup(args, probe, work_dir))
        .collect();
    let start = Instant::now();
    let mut last_sample = start;
    let (mut run_s, mut units_per_s, mut peak_rss_mb) = (Vec::new(), Vec::new(), Vec::new());
    while run_s.len() < MIN_ITERATIONS || secs(start) < args.seconds {
        // Slow phases of a shared host can outlast the probes before the
        // loop, so more are sampled between timed iterations.
        if secs(last_sample) >= SETUP_SAMPLE_SECONDS {
            setup_s.push(probe_setup(args, setup_s.len(), work_dir));
            last_sample = Instant::now();
        }
        reset_peak_rss();
        let iteration = bench.iterate(index, false);
        peak_rss_mb.push(self_peak_rss_mb());
        tally.merge(iteration.tally);
        run_s.push(iteration.run_s);
        units_per_s.push(iteration.units_per_s);
        index += 1;
    }
    tally.merge(bench.verify());
    eprintln!(
        "{}: {} iterations in {:.1} s",
        args.kind.name(),
        run_s.len(),
        secs(start)
    );
    let metrics = vec![
        Metric::new("setup_s", median(&setup_s), "s"),
        Metric::new("run_s", median(&run_s), "s"),
        Metric::new("units_per_s", median(&units_per_s), "1/s"),
        Metric::new("peak_rss_mb", median(&peak_rss_mb) + children_mb, "MB"),
    ];
    (metrics, tally)
}

fn error_rate(tally: Tally) -> f64 {
    tally.failed as f64 / tally.attempted.max(1) as f64
}

/// The one-glance row: one column per end-to-end metric.
fn print_row(kind: Kind, metrics: &[Metric], tally: Tally) {
    let value = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    println!(
        "{:<18} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "workload", "setup(s)", "run(s)", "units/s", "peak(MB)", "error rate"
    );
    println!(
        "{:<18} {:>10.4} {:>10.3} {:>12.1} {:>12.1} {:>12.4}",
        kind.name(),
        value("setup_s"),
        value("run_s"),
        value("units_per_s"),
        value("peak_rss_mb"),
        error_rate(tally)
    );
}

fn print_layers(metrics: &[Metric], tally: Tally) {
    println!("{:<40} {:>16} unit", "layer metric", "value");
    for metric in metrics {
        println!("{:<40} {:>16.4} {}", metric.name, metric.value, metric.unit);
    }
    println!("{:<40} {:>16.4}", "error rate", error_rate(tally));
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_string()
    }
}

fn print_json(metrics: &[Metric], tally: Tally) {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        finite && tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("lfi_perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work_dir = args.work_dir.join(std::process::id().to_string());
    if let Err(err) = fs::create_dir_all(&work_dir) {
        eprintln!("lfi_perfbench: create {}: {err}", work_dir.display());
        return ExitCode::FAILURE;
    }
    if args.setup_probe {
        let seconds = timed(|| build(args.kind, args.seed, &work_dir)).1;
        let _ = fs::remove_dir_all(&work_dir);
        println!("{seconds}");
        return ExitCode::SUCCESS;
    }
    let (metrics, tally) = if args.trace {
        let traced = traced_run(args.kind, args.seed, args.seconds, &work_dir);
        print_layers(&traced.metrics, traced.tally);
        (traced.metrics, traced.tally)
    } else {
        let (metrics, tally) = untraced(&args, &work_dir);
        print_row(args.kind, &metrics, tally);
        (metrics, tally)
    };
    let _ = fs::remove_dir_all(&work_dir);
    print_json(&metrics, tally);
    ExitCode::SUCCESS
}
