//! A fault-injection campaign across every evaluation target.
//!
//! Demonstrates the campaign subsystem end to end: enumerate the fault
//! space of all `*-lite` targets, annotate it with analyzer classifications
//! and baseline reachability, build a `Campaign` with the adaptive
//! coverage-feedback scheduler, stream typed progress events while the
//! worker pool drains it, triage the crashes into deduplicated signatures,
//! and resume from the campaign's own per-batch checkpoint without
//! re-running anything. `--shard i/n` runs just one mergeable slice, the
//! contiguous fault-point range `[i·P/n, (i+1)·P/n)` — the same flag a
//! multi-process sweep would pass to each worker process.
//!
//! Usage: campaign_sweep [--jobs N] [--strategy exhaustive|guided|adaptive|random]
//!                       [--backend fresh|snapshot] [--shard I/N]

use lfi::campaign::{
    default_test_suite, Campaign, CampaignEvent, CoverageAdaptive, ExecBackend, Exhaustive,
    InjectionGuided, Lease, RandomSample, StandardExecutor, Strategy, STOCK_TARGETS,
};
use lfi::targets::standard_controller;

fn usage() -> ! {
    eprintln!(
        "usage: campaign_sweep [--jobs N] [--strategy exhaustive|guided|adaptive|random] \
         [--backend fresh|snapshot] [--shard I/N]"
    );
    std::process::exit(2);
}

/// Parse a flag value, printing the parse error (which names the accepted
/// values) before the usage text.
fn parse_flag<T>(value: Option<String>) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let value = value.unwrap_or_else(|| usage());
    value.parse().unwrap_or_else(|err| {
        eprintln!("campaign_sweep: {err}");
        usage()
    })
}

fn main() {
    let mut jobs = 2usize;
    let mut backend = ExecBackend::default();
    let mut shard = (0, 1);
    let mut strategy: Box<dyn Strategy> = Box::new(CoverageAdaptive::default());
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--strategy" => {
                strategy = match args.next().as_deref() {
                    Some("exhaustive") => Box::new(Exhaustive),
                    Some("random") => Box::new(RandomSample { count: 40, seed: 7 }),
                    Some("guided") => Box::new(InjectionGuided),
                    Some("adaptive") => Box::new(CoverageAdaptive::default()),
                    _ => usage(),
                }
            }
            "--backend" => backend = parse_flag(args.next()),
            "--shard" => {
                let spec = args.next().unwrap_or_else(|| usage());
                shard = lfi::campaign::parse_shard(&spec).unwrap_or_else(|err| {
                    eprintln!("campaign_sweep: {err}");
                    usage()
                });
            }
            _ => usage(),
        }
    }

    // 1. Enumerate and annotate the fault space of every runnable target.
    let executor = StandardExecutor::new(&STOCK_TARGETS);
    let profile = standard_controller().profile_libraries();
    let targets = ["bind-lite", "git-lite", "db-lite", "httpd-lite", "bft-lite"];
    let mut space = executor.fault_space(&targets, &profile);
    // A full cluster run per fault point is expensive; restrict bft-lite to
    // the functions its harness exercises.
    space.retain(|p| {
        p.target != "bft-lite"
            || matches!(
                p.function.as_str(),
                "recvfrom" | "sendto" | "fopen" | "fwrite"
            )
    });
    executor.annotate_baseline_reachability(&mut space, 7);
    println!(
        "fault space: {} points across {} targets ({} workload runs if exhaustive)",
        space.len(),
        space.targets().len(),
        space
            .points
            .iter()
            .map(|p| default_test_suite(&p.target).len())
            .sum::<usize>()
    );

    // 2. Build the campaign: strategy, backend, worker pool, shard slice, a
    // progress sink, and a checkpoint file the campaign maintains per batch.
    // With the adaptive scheduler, completed batches feed back into the
    // schedule: fault points near fresh crash signatures are escalated,
    // repeatedly-passing caller neighborhoods sink to the back.
    let (index, count) = shard;
    let lease = Lease::shard(index, count, space.len()).expect("parse_shard validated the spec");
    let checkpoint =
        std::env::temp_dir().join(format!("lfi_campaign_sweep_{index}_of_{count}.json"));
    let _ = std::fs::remove_file(&checkpoint); // this run starts fresh
    let progress = |event: &CampaignEvent| match event {
        CampaignEvent::BatchPlanned {
            batch,
            points,
            pending,
            ..
        } => println!("batch {batch}: {points} fault points, {pending} units to run"),
        CampaignEvent::CrashFound(signature) => println!(
            "  crash: {} into {} -> {}+{:#x}",
            signature.function,
            signature.frame.as_deref().unwrap_or("?"),
            signature.module,
            signature.offset
        ),
        _ => {}
    };
    let campaign = Campaign::builder(space, &executor)
        .boxed_strategy(strategy)
        .jobs(jobs)
        .seed(7)
        .backend(backend)
        .lease(lease)
        .events(&progress)
        .checkpoint(&checkpoint)
        .build();
    println!(
        "shard {index}/{count} (points {}..{}): {} of {} canonical units\n",
        lease.start,
        lease.end,
        campaign.lease_units(lease),
        campaign.total_units()
    );
    let outcome = campaign.run_to_completion();
    println!("\n{}", outcome.report);

    // 3. Resume from the campaign's checkpoint: nothing is re-executed. The
    // state tag (strategy fingerprint @ plan hash % point range) guarantees
    // the checkpoint is only ever applied to the exact plan and range that
    // produced it — re-annotating the space, editing a test suite, or
    // handing the file to another shard would start fresh instead.
    let again = campaign.run_to_completion();
    println!(
        "resumed from {}: {} units re-executed (state held {} records)",
        checkpoint.display(),
        again.report.executed_now,
        again.report.records.len()
    );
}
