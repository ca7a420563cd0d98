//! Merged live status of one or more campaign shards, tailing their JSONL
//! event streams (written by `table1_bugs --events-jsonl` or any
//! [`lfi_campaign::JsonlSink`]).
//!
//! Usage: campaign_status [--once] [--interval MS] EVENTS.jsonl [...]
//!
//! Each positional argument is one shard's event stream. The tool keeps a
//! byte offset per file, parses every newly completed line as a
//! [`lfi_campaign::CampaignEvent`], and renders one status line per shard
//! plus a merged total: batch progress, units/sec, distinct crash
//! signatures (deduplicated *across* shards), and the snapshot-tree cache
//! hit rate from the latest heartbeat metrics. A line that fails to parse
//! is a protocol error and exits non-zero — the streams are a versioned
//! wire format, not best-effort logs.
//!
//! Tailing rides [`lfi_telemetry::JsonlTail`], so a producer that
//! truncates or rotates its stream file does not stall the view: the
//! tail resets to the new beginning, the shard's rolling counters are
//! rebuilt from the fresh stream, and the rotation is counted as a
//! `stream_reset` note in the merged total.
//!
//! `--once` renders the current state of the streams and exits (CI mode);
//! without it the tool polls every `--interval` milliseconds (default 500)
//! until every stream has reported
//! [`ShardFinished`](lfi_campaign::CampaignEvent::ShardFinished).

use std::collections::BTreeSet;
use std::process::exit;
use std::time::Duration;

use lfi_campaign::{CampaignEvent, MetricsSnapshot};
use lfi_telemetry::JsonlTail;

fn usage() -> ! {
    eprintln!("usage: campaign_status [--once] [--interval MS] EVENTS.jsonl [...]");
    exit(2);
}

/// Rolling view of one shard's stream.
struct ShardStream {
    path: String,
    /// Truncation-tolerant byte-offset tail over the stream file.
    tail: JsonlTail,
    /// The run's `start..end` point range from the stream itself
    /// (heartbeat / shard_finished); the file name until one arrives.
    label: Option<String>,
    batches: usize,
    units_planned: usize,
    units_done: usize,
    finished_units: usize,
    milli_units_per_sec: u64,
    /// Distinct crash signature keys announced by this shard.
    signatures: BTreeSet<String>,
    /// Latest heartbeat metrics capture.
    metrics: Option<MetricsSnapshot>,
    notes: usize,
    /// Stream truncations/rotations observed; each counts as one
    /// `stream_reset` note in the merged total.
    stream_resets: usize,
    finished: bool,
}

impl ShardStream {
    fn new(path: String) -> ShardStream {
        ShardStream {
            tail: JsonlTail::new(&path),
            path,
            label: None,
            batches: 0,
            units_planned: 0,
            units_done: 0,
            finished_units: 0,
            milli_units_per_sec: 0,
            signatures: BTreeSet::new(),
            metrics: None,
            notes: 0,
            stream_resets: 0,
            finished: false,
        }
    }

    /// Read and apply every line completed since the last poll. A missing
    /// file is "no events yet" (the shard may not have started); a line
    /// that does not parse is fatal. A file that *shrank* was rotated by
    /// its producer: the tail restarts from the top and the rolling
    /// counters are rebuilt from the fresh stream.
    fn poll(&mut self) {
        let poll = match self.tail.poll() {
            Ok(poll) => poll,
            Err(err) => {
                eprintln!("campaign_status: read {}: {err}", self.path);
                exit(1);
            }
        };
        if poll.reset {
            self.reset_view();
        }
        for line in &poll.lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let event = CampaignEvent::from_json_line(line).unwrap_or_else(|err| {
                eprintln!(
                    "campaign_status: {}: malformed event line: {} ({line})",
                    self.path, err.message
                );
                exit(1);
            });
            self.apply(&event);
        }
    }

    /// Discards every counter derived from the previous file incarnation;
    /// the new stream replays its own BatchPlanned/Heartbeat history.
    fn reset_view(&mut self) {
        self.batches = 0;
        self.units_planned = 0;
        self.units_done = 0;
        self.finished_units = 0;
        self.milli_units_per_sec = 0;
        self.signatures.clear();
        self.metrics = None;
        self.notes = 0;
        self.finished = false;
        self.stream_resets += 1;
    }

    fn apply(&mut self, event: &CampaignEvent) {
        match event {
            CampaignEvent::BatchPlanned { pending, .. } => {
                self.batches += 1;
                self.units_planned += pending;
            }
            CampaignEvent::UnitStarted { .. } => {}
            CampaignEvent::UnitFinished { .. } => {
                self.finished_units += 1;
                self.units_done = self.units_done.max(self.finished_units);
            }
            CampaignEvent::CrashFound(signature) => {
                self.signatures.insert(format!(
                    "{}:{}:{}+{:#x}:{}",
                    signature.target,
                    signature.function,
                    signature.module,
                    signature.offset,
                    signature.frame.as_deref().unwrap_or("?"),
                ));
            }
            CampaignEvent::CheckpointWritten { .. } => {}
            CampaignEvent::Heartbeat {
                shard,
                units_done,
                units_planned,
                milli_units_per_sec,
                metrics,
            } => {
                self.label = Some(format!("{}..{}", shard.start, shard.end));
                self.units_done = self.units_done.max(*units_done);
                self.units_planned = self.units_planned.max(*units_planned);
                self.milli_units_per_sec = *milli_units_per_sec;
                self.metrics = Some(metrics.clone());
            }
            CampaignEvent::Note { .. } => self.notes += 1,
            CampaignEvent::ShardFinished {
                shard, executed, ..
            } => {
                self.label = Some(format!("{}..{}", shard.start, shard.end));
                self.units_done = self.units_done.max(*executed);
                self.finished = true;
            }
        }
    }

    fn label(&self) -> &str {
        self.label.as_deref().unwrap_or(&self.path)
    }
}

/// Cache hit rate in percent from a merged metrics snapshot, if the
/// executor reported fork counters.
fn cache_hit_rate(metrics: &MetricsSnapshot) -> Option<f64> {
    let hits = metrics.counter("tree_fork_hits");
    let total = hits + metrics.counter("tree_fork_misses");
    (total > 0).then(|| hits as f64 * 100.0 / total as f64)
}

/// Static-prune effectiveness from a merged metrics snapshot: demoted
/// sites over sites analyzed, if the executor ran the analysis phase.
fn prune_rate(metrics: &MetricsSnapshot) -> Option<(u64, u64)> {
    let total = metrics.counter("analysis_sites_total");
    (total > 0).then(|| (metrics.counter("analysis_sites_pruned"), total))
}

fn render(streams: &[ShardStream]) {
    let mut merged_signatures: BTreeSet<&String> = BTreeSet::new();
    let mut merged_metrics = MetricsSnapshot::default();
    let mut total_done = 0;
    let mut total_planned = 0;
    let mut total_milli_rate = 0u64;
    let mut total_notes = 0;
    for stream in streams {
        let state = if stream.finished {
            "finished"
        } else {
            "running"
        };
        let percent = (stream.units_done * 100)
            .checked_div(stream.units_planned)
            .unwrap_or(0);
        println!(
            "shard {:<12} batch {:<3} units {:>4}/{:<4} ({percent:>3}%)  \
             {:>8.3} units/sec  {} signatures  [{state}]",
            stream.label(),
            stream.batches,
            stream.units_done,
            stream.units_planned,
            stream.milli_units_per_sec as f64 / 1000.0,
            stream.signatures.len(),
        );
        merged_signatures.extend(&stream.signatures);
        if let Some(metrics) = &stream.metrics {
            merged_metrics.merge(metrics);
        }
        total_done += stream.units_done;
        total_planned += stream.units_planned;
        if !stream.finished {
            total_milli_rate += stream.milli_units_per_sec;
        }
        // A rotation is surfaced as a synthetic `stream_reset` note so
        // truncated streams are visible in the merged total, not silent.
        total_notes += stream.notes + stream.stream_resets;
    }
    let cache = cache_hit_rate(&merged_metrics)
        .map(|rate| {
            // Shared-deepening health next to the hit rate: how often a
            // worker parked on another's in-flight deepening run, and how
            // many tree nodes batch prefetch materialized ahead of demand.
            let waited = merged_metrics.counter("tree_deepen_waited");
            let prefetched = merged_metrics.counter("tree_prefetch_nodes");
            format!("{rate:.1}% cache hit rate ({waited} waited, {prefetched} prefetched)")
        })
        .unwrap_or_else(|| "cache hit rate n/a".to_string());
    let prune = prune_rate(&merged_metrics)
        .map(|(pruned, total)| format!("{pruned}/{total} sites statically pruned"))
        .unwrap_or_else(|| "static prune n/a".to_string());
    println!(
        "total {:>2} shards  units {total_done}/{total_planned}  \
         {:>8.3} units/sec  {} distinct signatures  {cache}  {prune}  {total_notes} notes",
        streams.len(),
        total_milli_rate as f64 / 1000.0,
        merged_signatures.len(),
    );
}

fn main() {
    let mut once = false;
    let mut interval = Duration::from_millis(500);
    let mut paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--interval" => {
                let millis: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                interval = Duration::from_millis(millis);
            }
            flag if flag.starts_with("--") => usage(),
            path => paths.push(path.to_string()),
        }
    }
    if paths.is_empty() {
        usage();
    }
    let mut streams: Vec<ShardStream> = paths.into_iter().map(ShardStream::new).collect();
    loop {
        for stream in &mut streams {
            stream.poll();
        }
        render(&streams);
        if once || streams.iter().all(|s| s.finished) {
            break;
        }
        std::thread::sleep(interval);
        println!();
    }
}
