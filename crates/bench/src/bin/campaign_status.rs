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
//! signatures (deduplicated *across* shards), and the static-prune rate
//! from the latest heartbeat metrics. The prune rate belongs to the fault
//! space, not to a shard (every shard analyzes the whole space), so the
//! total shows one stream's reading instead of a sum.
//!
//! A stream may also hold many runs over different point ranges: the
//! supervisor's merged `--events-jsonl` stream holds one run per lease,
//! and a lease whose worker died runs again. Finished units are counted
//! by distinct unit id, and such a stream's planned units are summed per
//! range as its runs report them (heartbeats and `ShardFinished`), so a
//! re-run lease counts once; its label spans every reported range. A
//! stream of one run reads exactly as before. A line that fails to parse
//! is a protocol error and exits non-zero — the streams are a versioned
//! wire format, not best-effort logs.
//!
//! Tailing rides [`lfi_telemetry::JsonlTail`], so a producer that
//! truncates or rotates its stream file does not stall the view: the
//! tail resets to the new beginning, the shard's rolling counters are
//! rebuilt from the fresh stream, and the rotation is counted in the
//! merged total's `stream resets`.
//!
//! `--once` renders the current state of the streams and exits (CI mode);
//! without it the tool polls every `--interval` milliseconds (default 500)
//! until every stream has reported
//! [`ShardFinished`](lfi_campaign::CampaignEvent::ShardFinished).

use std::collections::{BTreeMap, BTreeSet};
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
    /// Units planned per `start..end` point range the stream's runs
    /// reported (heartbeat / shard_finished): the largest count any run
    /// of the range reported.
    planned_by_range: BTreeMap<(usize, usize), usize>,
    batches: usize,
    units_planned: usize,
    units_done: usize,
    /// Distinct ids of the finished units.
    finished_units: BTreeSet<usize>,
    milli_units_per_sec: u64,
    /// Distinct crash signature keys announced by this shard.
    signatures: BTreeSet<String>,
    /// Latest heartbeat metrics capture.
    metrics: Option<MetricsSnapshot>,
    /// Stream truncations/rotations observed.
    stream_resets: usize,
    finished: bool,
}

impl ShardStream {
    fn new(path: String) -> ShardStream {
        ShardStream {
            tail: JsonlTail::new(&path),
            path,
            planned_by_range: BTreeMap::new(),
            batches: 0,
            units_planned: 0,
            units_done: 0,
            finished_units: BTreeSet::new(),
            milli_units_per_sec: 0,
            signatures: BTreeSet::new(),
            metrics: None,
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
        self.planned_by_range.clear();
        self.batches = 0;
        self.units_planned = 0;
        self.units_done = 0;
        self.finished_units.clear();
        self.milli_units_per_sec = 0;
        self.signatures.clear();
        self.metrics = None;
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
            CampaignEvent::UnitFinished { record, .. } => {
                self.finished_units.insert(record.unit);
                self.units_done = self.units_done.max(self.finished_units.len());
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
                self.report_range(shard, *units_planned);
                self.units_done = self.units_done.max(*units_done);
                self.units_planned = self.units_planned.max(*units_planned);
                self.milli_units_per_sec = *milli_units_per_sec;
                self.metrics = Some(metrics.clone());
            }
            CampaignEvent::ShardFinished {
                shard,
                executed,
                records,
            } => {
                self.report_range(shard, *records);
                self.units_done = self.units_done.max(*executed);
                self.finished = true;
            }
        }
    }

    fn report_range(&mut self, range: &std::ops::Range<usize>, planned: usize) {
        let entry = self
            .planned_by_range
            .entry((range.start, range.end))
            .or_default();
        *entry = (*entry).max(planned);
    }

    /// Units done and planned. A stream of one run plans what its
    /// `BatchPlanned` events announced; a stream of runs over several
    /// ranges plans what each range reported, counting a range that ran
    /// twice once, and never less than it finished.
    fn units(&self) -> (usize, usize) {
        if self.planned_by_range.len() <= 1 {
            return (self.units_done, self.units_planned);
        }
        let planned: usize = self.planned_by_range.values().sum();
        (self.units_done, planned.max(self.units_done))
    }

    /// The reported point range (spanning every range of a stream of
    /// several runs); the file name until one arrives.
    fn label(&self) -> String {
        let ranges = self.planned_by_range.keys();
        match (ranges.clone().map(|r| r.0).min(), ranges.map(|r| r.1).max()) {
            (Some(start), Some(end)) => format!("{start}..{end}"),
            _ => self.path.clone(),
        }
    }
}

/// Static-prune effectiveness of the space: demoted sites over sites
/// analyzed, from the first stream whose latest metrics show the analysis
/// phase ran. Every shard analyzes the whole space, so adding the streams'
/// counters up would count each site once per shard.
fn prune_rate(streams: &[ShardStream]) -> Option<(u64, u64)> {
    streams.iter().find_map(|stream| {
        let metrics = stream.metrics.as_ref()?;
        let total = metrics.counter("analysis_sites_total");
        (total > 0).then(|| (metrics.counter("analysis_sites_pruned"), total))
    })
}

fn render(streams: &[ShardStream]) {
    let mut merged_signatures: BTreeSet<&String> = BTreeSet::new();
    let mut total_done = 0;
    let mut total_planned = 0;
    let mut total_milli_rate = 0u64;
    let mut total_resets = 0;
    for stream in streams {
        let state = if stream.finished {
            "finished"
        } else {
            "running"
        };
        let (done, planned) = stream.units();
        let percent = (done * 100).checked_div(planned).unwrap_or(0);
        println!(
            "shard {:<12} batch {:<3} units {done:>4}/{planned:<4} ({percent:>3}%)  \
             {:>8.3} units/sec  {} signatures  [{state}]",
            stream.label(),
            stream.batches,
            stream.milli_units_per_sec as f64 / 1000.0,
            stream.signatures.len(),
        );
        merged_signatures.extend(&stream.signatures);
        total_done += done;
        total_planned += planned;
        if !stream.finished {
            total_milli_rate += stream.milli_units_per_sec;
        }
        // Rotations are surfaced in the merged total so truncated streams
        // are visible, not silent.
        total_resets += stream.stream_resets;
    }
    let prune = prune_rate(streams)
        .map(|(pruned, total)| format!("{pruned}/{total} sites statically pruned"))
        .unwrap_or_else(|| "static prune n/a".to_string());
    println!(
        "total {:>2} shards  units {total_done}/{total_planned}  \
         {:>8.3} units/sec  {} distinct signatures  {prune}  {total_resets} stream resets",
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A shard stream whose latest heartbeat carried `metrics`.
    fn stream_with(metrics: MetricsSnapshot) -> ShardStream {
        let mut stream = ShardStream::new("shard.jsonl".to_string());
        stream.metrics = Some(metrics);
        stream
    }

    fn finished(unit: usize) -> CampaignEvent {
        CampaignEvent::UnitFinished {
            record: lfi_campaign::RunRecord {
                unit,
                target: "demo".into(),
                function: "read".into(),
                offset: 0,
                args: Vec::new(),
                outcome: lfi_campaign::OutcomeKind::Passed,
                injections: 1,
                injected_sites: Vec::new(),
                crashes: Vec::new(),
                virtual_time: 1,
            },
            duration_micros: 10,
        }
    }

    /// The events of one lease run over `points` with unit ids `units`;
    /// a run that `dies` stops after its first unit.
    fn lease_run(
        points: std::ops::Range<usize>,
        units: std::ops::Range<usize>,
        dies: bool,
    ) -> Vec<CampaignEvent> {
        let mut events = vec![CampaignEvent::BatchPlanned {
            batch: 1,
            points: points.len(),
            units: units.len(),
            pending: units.len(),
        }];
        let ran = if dies {
            units.start..units.start + 1
        } else {
            units.clone()
        };
        events.extend(ran.map(finished));
        if !dies {
            events.push(CampaignEvent::Heartbeat {
                shard: points.clone(),
                units_done: units.len(),
                units_planned: units.len(),
                milli_units_per_sec: 1000,
                metrics: MetricsSnapshot::default(),
            });
            events.push(CampaignEvent::ShardFinished {
                shard: points,
                executed: units.len(),
                records: units.len(),
            });
        }
        events
    }

    #[test]
    fn a_merged_stream_counts_a_lease_that_ran_twice_once() {
        // Leases 0..2 (units 0..4) and 2..4 (units 4..8); the worker
        // holding 0..2 dies after one unit and the lease runs again.
        let mut stream = ShardStream::new("supervised.jsonl".to_string());
        for event in lease_run(0..2, 0..4, true)
            .into_iter()
            .chain(lease_run(2..4, 4..8, false))
            .chain(lease_run(0..2, 0..4, false))
        {
            stream.apply(&event);
        }
        assert_eq!(stream.units(), (8, 8), "not 9/12");
        assert_eq!(stream.label(), "0..4");
        assert_eq!(stream.batches, 3);
    }

    #[test]
    fn a_stream_of_one_run_counts_its_planned_batches() {
        let mut stream = ShardStream::new("shard_0.jsonl".to_string());
        let events = lease_run(0..2, 0..4, false);
        // Mid-run: planned from `BatchPlanned`, no range reported yet.
        for event in &events[..3] {
            stream.apply(event);
        }
        assert_eq!(stream.units(), (2, 4));
        assert_eq!(stream.label(), "shard_0.jsonl");
        for event in &events[3..] {
            stream.apply(event);
        }
        assert_eq!(stream.units(), (4, 4));
        assert_eq!(stream.label(), "0..2");
    }

    #[test]
    fn shards_of_one_space_report_its_prune_rate_once() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("analysis_sites_total".into(), 84);
        metrics.counters.insert("analysis_sites_pruned".into(), 42);
        let shards = [stream_with(metrics.clone()), stream_with(metrics)];
        assert_eq!(prune_rate(&shards), Some((42, 84)));
    }

    #[test]
    fn the_prune_rate_is_unknown_until_a_stream_reports_analysis() {
        let shards = [
            ShardStream::new("a.jsonl".to_string()),
            stream_with(MetricsSnapshot::default()),
        ];
        assert_eq!(prune_rate(&shards), None);
    }
}
