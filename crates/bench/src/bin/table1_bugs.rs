//! Regenerate the Table 1 bug hunt, run as a fault-space campaign —
//! whole, or as one mergeable shard of a multi-process hunt.
//!
//! Usage: table1_bugs [--jobs N] [--strategy exhaustive|guided|adaptive|random]
//!                    [--sample N] [--backend fresh|snapshot]
//!                    [--snapshot-budget BYTES] [--shard I/N] [--state FILE]
//!                    [--events-jsonl FILE]
//!        table1_bugs merge STATE.json STATE.json [...]
//!
//! `--shard I/N` runs only shard I of N: the contiguous fault-point range
//! `[I·P/N, (I+1)·P/N)` of the P-point space. `--state FILE` checkpoints
//! the campaign state there after every batch and resumes from it when the
//! file exists. A complete shard set is recombined with the `merge`
//! subcommand, whose output is identical to the unsharded hunt's; a
//! missing shard fails the merge, naming the range it leaves uncovered.
//! `--events-jsonl FILE` streams every campaign event to FILE as one JSON
//! line each, flushed per event — point `campaign_status` at the files of
//! concurrent shards for a merged live view of the hunt.

use std::process::exit;

use lfi_bench::{table1_campaign, table1_merge, HuntOptions, HuntStrategy};
use lfi_campaign::{parse_shard, CampaignState};

fn usage() -> ! {
    eprintln!(
        "usage: table1_bugs [--jobs N] [--strategy exhaustive|guided|adaptive|random] \
         [--sample N] [--backend fresh|snapshot] [--snapshot-budget BYTES] \
         [--shard I/N] [--state FILE] [--events-jsonl FILE]\n\
         \x20      table1_bugs merge STATE.json STATE.json [...]"
    );
    exit(2);
}

/// Parse a flag value, printing the parse error before the usage text so
/// a typo like `--backend qemu` names the accepted values.
fn parse_or_usage<T>(value: Option<String>) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = value.unwrap_or_else(|| usage());
    value.parse().unwrap_or_else(|err| {
        eprintln!("table1_bugs: {err}");
        usage()
    })
}

/// `table1_bugs merge STATE.json...`: parse the persisted shard states and
/// recombine them into the unsharded hunt result.
fn merge_main(paths: &[String]) -> ! {
    if paths.is_empty() {
        usage();
    }
    let states: Vec<CampaignState> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
                eprintln!("table1_bugs: read {path}: {err}");
                exit(1);
            });
            CampaignState::from_json(&text).unwrap_or_else(|err| {
                eprintln!("table1_bugs: parse {path}: {}", err.message);
                exit(1);
            })
        })
        .collect();
    match table1_merge(&states) {
        Ok(merged) => {
            println!("merged {} shard states:", states.len());
            println!("{}", merged.report);
            println!("{}", merged.table);
            exit(0);
        }
        Err(err) => {
            eprintln!("table1_bugs: merge failed: {err}");
            exit(1);
        }
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("merge") {
        merge_main(&argv[1..]);
    }

    let mut options = HuntOptions::default();
    let mut sample = 50usize;
    let mut strategy_name = "exhaustive".to_string();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                options.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--strategy" => strategy_name = args.next().unwrap_or_else(|| usage()),
            "--sample" => {
                sample = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--backend" => options.backend = parse_or_usage(args.next()),
            "--snapshot-budget" => {
                options.snapshot_budget = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--shard" => {
                let spec = args.next().unwrap_or_else(|| usage());
                options.shard = parse_shard(&spec).unwrap_or_else(|err| {
                    eprintln!("table1_bugs: {err}");
                    usage()
                });
            }
            "--state" => options.state = Some(args.next().unwrap_or_else(|| usage()).into()),
            "--events-jsonl" => {
                options.events_jsonl = Some(args.next().unwrap_or_else(|| usage()).into())
            }
            _ => usage(),
        }
    }
    options.strategy = match strategy_name.as_str() {
        "exhaustive" => HuntStrategy::Exhaustive,
        "guided" => HuntStrategy::Guided,
        "adaptive" => HuntStrategy::Adaptive,
        "random" => HuntStrategy::Random { count: sample },
        _ => usage(),
    };

    // Snapshot any pre-existing checkpoint so the resume message can be
    // honest: an existing file whose tag does not match this plan is
    // *discarded* by the engine, not resumed.
    let prior = options
        .state
        .as_deref()
        .filter(|path| path.exists())
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|err| {
                eprintln!("table1_bugs: read {}: {err}", path.display());
                exit(1);
            });
            let state = CampaignState::from_json(&text).unwrap_or_else(|err| {
                eprintln!("table1_bugs: parse {}: {}", path.display(), err.message);
                exit(1);
            });
            (path.to_path_buf(), state)
        });
    let result = table1_campaign(&options);
    println!("{}", result.report);
    // Shared-deepening health line for CI: the claims table means no
    // deepening run is ever discarded, so `discarded=` must read 0.
    if let Some(metrics) = &result.report.metrics {
        println!(
            "tree deepen: discarded={} waited={} prefetched_nodes={}",
            metrics.counter("tree_deepen_discarded"),
            metrics.counter("tree_deepen_waited"),
            metrics.counter("tree_prefetch_nodes"),
        );
    }
    if let Some((path, prior_state)) = prior {
        if prior_state.tag() == result.tag && prior_state.seed() == options.seed {
            println!(
                "resumed from {}: {} units re-executed",
                path.display(),
                result.report.executed_now
            );
        } else {
            println!(
                "checkpoint {} was for a different plan (strategy, space, seed, or shard); \
                 discarded and started fresh",
                path.display()
            );
        }
    }
    if result.lease.points() == result.report.space_size {
        println!("{}", result.table);
    } else {
        // A lone shard sees only its slice of the space; known-bug
        // accounting is meaningful after `merge`.
        let (index, count) = options.shard;
        println!(
            "shard {index}/{count} (points {}..{}): {} records held{} — run the remaining \
             shards and `table1_bugs merge` the state files for the full Table 1",
            result.lease.start,
            result.lease.end,
            result.report.records.len(),
            options
                .state
                .as_deref()
                .map(|p| format!(" in {}", p.display()))
                .unwrap_or_default(),
        );
    }
}
