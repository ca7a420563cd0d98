//! Typed campaign progress events, streamed through an [`EventSink`].
//!
//! A [`Campaign`](crate::Campaign) with a registered
//! sink emits [`CampaignEvent`]s *while the campaign runs* — this is what
//! progress bars, the bench harness, and cross-machine supervisors consume
//! instead of scraping the final [`CampaignReport`](crate::CampaignReport)
//! after the fact. Every event also has a line-oriented JSON wire format
//! ([`CampaignEvent::to_json_line`] / [`CampaignEvent::from_json_line`],
//! total in both directions) and [`JsonlSink`] streams it to a file for
//! out-of-process consumers such as the `campaign_status` bin.
//!
//! ## Ordering guarantees
//!
//! * [`BatchPlanned`](CampaignEvent::BatchPlanned) precedes every event of
//!   its batch's units.
//! * Each unit's [`UnitStarted`](CampaignEvent::UnitStarted) precedes its
//!   [`UnitFinished`](CampaignEvent::UnitFinished); a
//!   [`CrashFound`](CampaignEvent::CrashFound) follows the `UnitFinished`
//!   that first exhibited the signature, and each distinct signature is
//!   announced at most once per run (signatures already present in a
//!   resumed checkpoint are not re-announced).
//! * [`CheckpointWritten`](CampaignEvent::CheckpointWritten) follows the
//!   batch whose records it persisted; the last batch's write seals the
//!   finished (complete) state, so a run writes once per batch that added
//!   records, and at least once.
//! * [`ShardFinished`](CampaignEvent::ShardFinished) is the last event of
//!   a run.
//! * [`Heartbeat`](CampaignEvent::Heartbeat) events are asynchronous
//!   progress telemetry: they may appear anywhere before `ShardFinished`
//!   and carry no per-unit ordering guarantees. When heartbeats are on,
//!   the last one directly precedes `ShardFinished` and reports every
//!   unit the run executed.
//!
//! Units of one batch drain on a parallel worker pool, so the per-unit
//! events of *different* units interleave arbitrarily. Sinks are invoked
//! from worker threads and must therefore be `Sync`; any
//! `Fn(&CampaignEvent) + Sync` closure is a sink, and [`EventLog`] is a
//! ready-made collecting sink.

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use lfi_json::{int_field, invalid, str_field, JsonError, Value};
use lfi_telemetry::MetricsSnapshot;

use crate::engine::RunRecord;
use crate::lease::{format_range, parse_range};
use crate::state::{record_from_value, record_to_value};
use crate::triage::CrashSignature;

/// One progress event of a running campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignEvent {
    /// The strategy scheduled a new batch (after dispatch/lease filtering).
    BatchPlanned {
        /// 1-based batch number within this run.
        batch: usize,
        /// Fault points in the batch.
        points: usize,
        /// Work units the batch expands into.
        units: usize,
        /// Units that will actually execute (not already completed by a
        /// resumed checkpoint).
        pending: usize,
    },
    /// A worker began executing a unit.
    UnitStarted {
        /// Canonical unit id.
        unit: usize,
        /// Target program.
        target: String,
        /// Injected library function.
        function: String,
        /// Fault-point call-site offset.
        offset: u64,
    },
    /// A unit finished; the record is exactly what the report will carry.
    UnitFinished {
        /// The completed run record.
        record: RunRecord,
        /// Wall-clock time the unit took to execute, measured by the
        /// worker on a monotonic clock (host time, unlike the record's
        /// `virtual_time`).
        duration_micros: u64,
    },
    /// A crash signature was observed for the first time this run.
    CrashFound(CrashSignature),
    /// The run persisted the campaign state to its checkpoint path.
    CheckpointWritten {
        /// Where the state was written.
        path: PathBuf,
        /// Completed units the checkpoint now covers.
        completed: usize,
        /// Wall-clock time since the previous checkpoint (run start for
        /// the first one): the duration of the batch this write sealed,
        /// measured on a monotonic clock.
        batch_duration_micros: u64,
    },
    /// Periodic progress telemetry, emitted at most once per configured
    /// heartbeat interval while units are draining, and once more when
    /// the run ends.
    Heartbeat {
        /// The fault-point range of the reporting run (`0..P` for a run
        /// over the whole space); `"start..end"` on the wire.
        shard: Range<usize>,
        /// Units executed so far this session.
        units_done: usize,
        /// Units planned so far this session (grows batch by batch).
        units_planned: usize,
        /// Session throughput in units per 1000 seconds — i.e. units/sec
        /// scaled by 1000 so the integer wire format keeps three decimal
        /// places.
        milli_units_per_sec: u64,
        /// Live capture of the executor/engine metrics registry.
        metrics: MetricsSnapshot,
    },
    /// The run is over; no further events follow.
    ShardFinished {
        /// The fault-point range of the finished run (`0..P` for a run over
        /// the whole space); `"start..end"` on the wire.
        shard: Range<usize>,
        /// Units executed in this session (excludes resumed ones).
        executed: usize,
        /// Total records the run now holds, resumed ones included.
        records: usize,
    },
}

impl CampaignEvent {
    /// Encode as an `lfi_json` value (`{"event": "<kind>", ...}`).
    pub fn to_value(&self) -> Value {
        let tagged = |kind: &str, mut fields: Vec<(String, Value)>| {
            fields.insert(0, ("event".to_string(), Value::Str(kind.to_string())));
            Value::Obj(fields)
        };
        match self {
            CampaignEvent::BatchPlanned {
                batch,
                points,
                units,
                pending,
            } => tagged(
                "batch_planned",
                vec![
                    ("batch".to_string(), Value::Int(*batch as i64)),
                    ("points".to_string(), Value::Int(*points as i64)),
                    ("units".to_string(), Value::Int(*units as i64)),
                    ("pending".to_string(), Value::Int(*pending as i64)),
                ],
            ),
            CampaignEvent::UnitStarted {
                unit,
                target,
                function,
                offset,
            } => tagged(
                "unit_started",
                vec![
                    ("unit".to_string(), Value::Int(*unit as i64)),
                    ("target".to_string(), Value::Str(target.clone())),
                    ("function".to_string(), Value::Str(function.clone())),
                    ("offset".to_string(), Value::Int(*offset as i64)),
                ],
            ),
            CampaignEvent::UnitFinished {
                record,
                duration_micros,
            } => tagged(
                "unit_finished",
                vec![
                    ("record".to_string(), record_to_value(record)),
                    (
                        "duration_micros".to_string(),
                        Value::Int(*duration_micros as i64),
                    ),
                ],
            ),
            CampaignEvent::CrashFound(signature) => tagged("crash_found", signature.to_fields()),
            CampaignEvent::CheckpointWritten {
                path,
                completed,
                batch_duration_micros,
            } => tagged(
                "checkpoint_written",
                vec![
                    (
                        "path".to_string(),
                        Value::Str(path.to_string_lossy().into_owned()),
                    ),
                    ("completed".to_string(), Value::Int(*completed as i64)),
                    (
                        "batch_duration_micros".to_string(),
                        Value::Int(*batch_duration_micros as i64),
                    ),
                ],
            ),
            CampaignEvent::Heartbeat {
                shard,
                units_done,
                units_planned,
                milli_units_per_sec,
                metrics,
            } => tagged(
                "heartbeat",
                vec![
                    ("shard".to_string(), range_to_value(shard)),
                    ("units_done".to_string(), Value::Int(*units_done as i64)),
                    (
                        "units_planned".to_string(),
                        Value::Int(*units_planned as i64),
                    ),
                    (
                        "milli_units_per_sec".to_string(),
                        Value::Int(*milli_units_per_sec as i64),
                    ),
                    ("metrics".to_string(), metrics.to_value()),
                ],
            ),
            CampaignEvent::ShardFinished {
                shard,
                executed,
                records,
            } => tagged(
                "shard_finished",
                vec![
                    ("shard".to_string(), range_to_value(shard)),
                    ("executed".to_string(), Value::Int(*executed as i64)),
                    ("records".to_string(), Value::Int(*records as i64)),
                ],
            ),
        }
    }

    /// Decode a value produced by [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> Result<CampaignEvent, JsonError> {
        match str_field(value, "event")?.as_str() {
            "batch_planned" => Ok(CampaignEvent::BatchPlanned {
                batch: int_field(value, "batch")? as usize,
                points: int_field(value, "points")? as usize,
                units: int_field(value, "units")? as usize,
                pending: int_field(value, "pending")? as usize,
            }),
            "unit_started" => Ok(CampaignEvent::UnitStarted {
                unit: int_field(value, "unit")? as usize,
                target: str_field(value, "target")?,
                function: str_field(value, "function")?,
                offset: int_field(value, "offset")? as u64,
            }),
            "unit_finished" => Ok(CampaignEvent::UnitFinished {
                record: record_from_value(
                    value
                        .get("record")
                        .ok_or_else(|| invalid("missing field `record`"))?,
                )?,
                duration_micros: int_field(value, "duration_micros")? as u64,
            }),
            "crash_found" => Ok(CampaignEvent::CrashFound(CrashSignature::from_fields(
                value,
            )?)),
            "checkpoint_written" => Ok(CampaignEvent::CheckpointWritten {
                path: PathBuf::from(str_field(value, "path")?),
                completed: int_field(value, "completed")? as usize,
                batch_duration_micros: int_field(value, "batch_duration_micros")? as u64,
            }),
            "heartbeat" => Ok(CampaignEvent::Heartbeat {
                shard: range_field(value)?,
                units_done: int_field(value, "units_done")? as usize,
                units_planned: int_field(value, "units_planned")? as usize,
                milli_units_per_sec: int_field(value, "milli_units_per_sec")? as u64,
                metrics: MetricsSnapshot::from_value(
                    value
                        .get("metrics")
                        .ok_or_else(|| invalid("missing field `metrics`"))?,
                )
                .map_err(invalid)?,
            }),
            "shard_finished" => Ok(CampaignEvent::ShardFinished {
                shard: range_field(value)?,
                executed: int_field(value, "executed")? as usize,
                records: int_field(value, "records")? as usize,
            }),
            other => Err(invalid(format!("unknown event kind `{other}`"))),
        }
    }

    /// Encode as one line of compact JSON (no interior newlines) — the
    /// JSONL wire format written by [`JsonlSink`].
    pub fn to_json_line(&self) -> String {
        self.to_value().to_compact()
    }

    /// Decode one JSONL line produced by [`to_json_line`](Self::to_json_line).
    pub fn from_json_line(line: &str) -> Result<CampaignEvent, JsonError> {
        CampaignEvent::from_value(&lfi_json::parse(line)?)
    }
}

fn range_to_value(range: &Range<usize>) -> Value {
    Value::Str(format_range(range.start, range.end))
}

fn range_field(value: &Value) -> Result<Range<usize>, JsonError> {
    let text = str_field(value, "shard")?;
    let (start, end) =
        parse_range(&text).ok_or_else(|| invalid(format!("invalid point range `{text}`")))?;
    Ok(start..end)
}

/// A consumer of campaign progress events.
///
/// Sinks are called from the driver thread *and* from worker threads, so
/// implementations must be thread-safe. Sinks should return quickly — a
/// slow sink backpressures the worker pool.
pub trait EventSink: Sync {
    /// Receive one event.
    fn event(&self, event: &CampaignEvent);
}

/// Any `Sync` closure is a sink.
impl<F: Fn(&CampaignEvent) + Sync> EventSink for F {
    fn event(&self, event: &CampaignEvent) {
        self(event)
    }
}

/// A sink that records every event, in arrival order — for tests, tools
/// that post-process a run, and debugging.
#[derive(Debug, Default)]
pub struct EventLog {
    events: Mutex<Vec<CampaignEvent>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> EventLog {
        EventLog::default()
    }

    /// A snapshot of every event received so far.
    pub fn events(&self) -> Vec<CampaignEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Number of events matching a predicate.
    pub fn count(&self, matches: impl Fn(&CampaignEvent) -> bool) -> usize {
        self.events
            .lock()
            .unwrap()
            .iter()
            .filter(|e| matches(e))
            .count()
    }
}

impl EventSink for EventLog {
    fn event(&self, event: &CampaignEvent) {
        self.events.lock().unwrap().push(event.clone());
    }
}

struct JsonlState {
    writer: BufWriter<File>,
    error: Option<io::Error>,
}

/// A sink that streams events as line-delimited compact JSON, flushed
/// after every event so out-of-process tails (the `campaign_status` bin,
/// a future supervisor) see progress live.
///
/// Events from concurrent workers serialize on an internal lock, so
/// lines are never interleaved. The first I/O failure stops further
/// writes; inspect it with [`JsonlSink::take_error`] after the run —
/// a sink callback has no way to propagate it mid-run.
pub struct JsonlSink {
    state: Mutex<JsonlState>,
}

impl JsonlSink {
    /// Create (truncating) `path` and stream events into it.
    pub fn create(path: impl AsRef<Path>) -> io::Result<JsonlSink> {
        let file = File::create(path)?;
        Ok(JsonlSink {
            state: Mutex::new(JsonlState {
                writer: BufWriter::new(file),
                error: None,
            }),
        })
    }

    /// The first write/flush error encountered, if any (clears it).
    pub fn take_error(&self) -> Option<io::Error> {
        self.state.lock().unwrap().error.take()
    }
}

impl EventSink for JsonlSink {
    fn event(&self, event: &CampaignEvent) {
        let mut state = self.state.lock().unwrap();
        if state.error.is_some() {
            return;
        }
        let mut line = event.to_json_line();
        line.push('\n');
        let result = state
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| state.writer.flush());
        if let Err(err) = result {
            state.error = Some(err);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{CrashInfo, InjectedSite, OutcomeKind};

    /// The `crash_found` wire bytes, pinned: a codec change that moves,
    /// renames or re-encodes a signature key fails here.
    #[test]
    fn a_crash_found_line_keeps_its_wire_bytes() {
        let event = CampaignEvent::CrashFound(CrashSignature {
            target: "git-lite".into(),
            function: "opendir".into(),
            module: "git-lite".into(),
            offset: 0x99,
            frame: Some("scan_tree".into()),
        });
        let line = r#"{"event":"crash_found","target":"git-lite","function":"opendir","module":"git-lite","offset":153,"frame":"scan_tree"}"#;
        assert_eq!(event.to_json_line(), line);
        assert_eq!(CampaignEvent::from_json_line(line).unwrap(), event);
    }

    #[test]
    fn closures_and_logs_are_sinks() {
        let log = EventLog::new();
        let event = CampaignEvent::BatchPlanned {
            batch: 1,
            points: 2,
            units: 4,
            pending: 4,
        };
        log.event(&event);
        log.event(&CampaignEvent::ShardFinished {
            shard: 0..2,
            executed: 4,
            records: 4,
        });
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.events()[0], event);
        assert_eq!(
            log.count(|e| matches!(e, CampaignEvent::BatchPlanned { .. })),
            1
        );

        let seen = Mutex::new(0usize);
        let closure_sink = |_: &CampaignEvent| {
            *seen.lock().unwrap() += 1;
        };
        let sink: &dyn EventSink = &closure_sink;
        sink.event(&event);
        assert_eq!(*seen.lock().unwrap(), 1);
    }

    fn sample_record() -> RunRecord {
        RunRecord {
            unit: 3,
            target: "git-lite".into(),
            function: "malloc".into(),
            offset: 0x40,
            args: vec!["commit".into()],
            outcome: OutcomeKind::Crashed,
            injections: 1,
            injected_sites: vec![InjectedSite {
                module: "git-lite".into(),
                offset: 0x40,
                caller: Some("main".into()),
                count: 1,
            }],
            crashes: vec![CrashInfo {
                module: "git-lite".into(),
                offset: 0x99,
                description: "segfault".into(),
                in_function: None,
                backtrace: vec!["victim".into()],
            }],
            virtual_time: 1234,
        }
    }

    #[test]
    fn every_event_variant_round_trips_through_json_lines() {
        let mut metrics = MetricsSnapshot::default();
        metrics.counters.insert("tree_fork_hits".into(), 17);
        let events = vec![
            CampaignEvent::BatchPlanned {
                batch: 1,
                points: 2,
                units: 4,
                pending: 3,
            },
            CampaignEvent::UnitStarted {
                unit: 9,
                target: "git-lite".into(),
                function: "write".into(),
                offset: 0x1234,
            },
            CampaignEvent::UnitFinished {
                record: sample_record(),
                duration_micros: 42_000,
            },
            CampaignEvent::CrashFound(CrashSignature {
                target: "git-lite".into(),
                function: "malloc".into(),
                module: "git-lite".into(),
                offset: 0x99,
                frame: Some("victim".into()),
            }),
            CampaignEvent::CheckpointWritten {
                path: PathBuf::from("/tmp/campaign.json"),
                completed: 12,
                batch_duration_micros: 1_000_000,
            },
            CampaignEvent::Heartbeat {
                shard: 3..7,
                units_done: 40,
                units_planned: 100,
                milli_units_per_sec: 2_500,
                metrics,
            },
            CampaignEvent::ShardFinished {
                shard: 5..5,
                executed: 100,
                records: 100,
            },
        ];
        for event in events {
            let line = event.to_json_line();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let back = CampaignEvent::from_json_line(&line)
                .unwrap_or_else(|err| panic!("decoding {line}: {err:?}"));
            assert_eq!(back, event);
        }
    }

    #[test]
    fn decoding_rejects_unknown_and_malformed_events() {
        assert!(CampaignEvent::from_json_line("{}").is_err());
        assert!(CampaignEvent::from_json_line(r#"{"event":"warp_drive"}"#).is_err());
        assert!(CampaignEvent::from_json_line(r#"{"event":"batch_planned"}"#).is_err());
        assert!(CampaignEvent::from_json_line("not json").is_err());
        // A malformed or inverted range fails cleanly rather than
        // panicking; so does a pre-lease `index/count` shard label.
        for shard in ["x", "3..1", "0/1"] {
            let line = format!(
                r#"{{"event":"shard_finished","shard":"{shard}","executed":1,"records":1}}"#
            );
            assert!(CampaignEvent::from_json_line(&line).is_err(), "{shard}");
        }
    }

    #[test]
    fn jsonl_sink_writes_one_flushed_line_per_event() {
        let dir = std::env::temp_dir().join(format!("lfi-jsonl-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        let first = CampaignEvent::BatchPlanned {
            batch: 1,
            points: 1,
            units: 2,
            pending: 2,
        };
        sink.event(&first);
        // Flushed per event: visible before the sink is dropped.
        let tail = std::fs::read_to_string(&path).unwrap();
        assert_eq!(tail.lines().count(), 1);
        sink.event(&CampaignEvent::ShardFinished {
            shard: 0..1,
            executed: 2,
            records: 2,
        });
        assert!(sink.take_error().is_none());
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(CampaignEvent::from_json_line(lines[0]).unwrap(), first);
        std::fs::remove_dir_all(&dir).ok();
    }
}
