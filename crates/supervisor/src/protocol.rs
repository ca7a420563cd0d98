//! The upstream half of the supervisor wire protocol: what a worker
//! writes to its stdout.
//!
//! A worker's stdout carries two kinds of lines, multiplexed on the one
//! pipe: its own protocol messages (`{"worker": "<kind>", ...}`) and the
//! campaign event stream of whatever lease it is running (`{"event":
//! "<kind>", ...}`). [`WorkerMessage`] is the union — the discriminating
//! key makes the two codecs disjoint, exactly like
//! [`ControlMessage`](lfi_campaign::ControlMessage) lines (`"control"`)
//! on the downstream pipe. Every message has a total JSONL codec in both
//! directions; an undecodable line is a protocol error the supervisor
//! surfaces, never silently drops framing over.

use lfi_campaign::CampaignEvent;
use lfi_json::{JsonError, Value};

/// One line of worker stdout.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMessage {
    /// The handshake, sent once at startup: the worker's view of the
    /// plan. The supervisor rejects a worker whose `plan` hash differs
    /// from its own — same binary, different space means a config or
    /// build drift that would corrupt the merge.
    Hello {
        /// Worker process id (diagnostics only).
        pid: u64,
        /// Fault points the worker's space enumerates.
        points: usize,
        /// Canonical work units of the full space.
        units: usize,
        /// The space/suite plan hash, `{:016x}`-formatted.
        plan: String,
    },
    /// The worker finished a lease and sealed its checkpoint file.
    LeaseFinished {
        /// Grant id from the supervisor's `ControlMessage::Lease`.
        lease: u64,
        /// First fault-point index of the range.
        start: usize,
        /// One past the last fault-point index of the range.
        end: usize,
        /// Units executed this session (resumed ones excluded).
        executed: usize,
        /// Total records the lease checkpoint now holds.
        records: usize,
    },
    /// One campaign event from the lease the worker is running,
    /// forwarded verbatim.
    Event(CampaignEvent),
}

fn invalid(message: impl Into<String>) -> JsonError {
    JsonError {
        position: 0,
        message: message.into(),
    }
}

fn int_field(value: &Value, name: &str) -> Result<i64, JsonError> {
    value
        .get(name)
        .and_then(Value::as_int)
        .ok_or_else(|| invalid(format!("missing integer field `{name}`")))
}

fn str_field(value: &Value, name: &str) -> Result<String, JsonError> {
    value
        .get(name)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| invalid(format!("missing string field `{name}`")))
}

impl WorkerMessage {
    /// Encode as an `lfi_json` value: `{"worker": "<kind>", ...}` for
    /// protocol messages, the event's own `{"event": ...}` object for
    /// [`WorkerMessage::Event`].
    pub fn to_value(&self) -> Value {
        let tagged = |kind: &str, mut fields: Vec<(String, Value)>| {
            fields.insert(0, ("worker".to_string(), Value::Str(kind.to_string())));
            Value::Obj(fields)
        };
        match self {
            WorkerMessage::Hello {
                pid,
                points,
                units,
                plan,
            } => tagged(
                "hello",
                vec![
                    ("pid".to_string(), Value::Int(*pid as i64)),
                    ("points".to_string(), Value::Int(*points as i64)),
                    ("units".to_string(), Value::Int(*units as i64)),
                    ("plan".to_string(), Value::Str(plan.clone())),
                ],
            ),
            WorkerMessage::LeaseFinished {
                lease,
                start,
                end,
                executed,
                records,
            } => tagged(
                "lease_finished",
                vec![
                    ("lease".to_string(), Value::Int(*lease as i64)),
                    ("start".to_string(), Value::Int(*start as i64)),
                    ("end".to_string(), Value::Int(*end as i64)),
                    ("executed".to_string(), Value::Int(*executed as i64)),
                    ("records".to_string(), Value::Int(*records as i64)),
                ],
            ),
            WorkerMessage::Event(event) => event.to_value(),
        }
    }

    /// Decode a value produced by [`to_value`](Self::to_value). A value
    /// without a `"worker"` key is decoded as a campaign event.
    pub fn from_value(value: &Value) -> Result<WorkerMessage, JsonError> {
        let Some(kind) = value.get("worker").and_then(Value::as_str) else {
            return CampaignEvent::from_value(value).map(WorkerMessage::Event);
        };
        match kind {
            "hello" => Ok(WorkerMessage::Hello {
                pid: int_field(value, "pid")? as u64,
                points: int_field(value, "points")? as usize,
                units: int_field(value, "units")? as usize,
                plan: str_field(value, "plan")?,
            }),
            "lease_finished" => Ok(WorkerMessage::LeaseFinished {
                lease: int_field(value, "lease")? as u64,
                start: int_field(value, "start")? as usize,
                end: int_field(value, "end")? as usize,
                executed: int_field(value, "executed")? as usize,
                records: int_field(value, "records")? as usize,
            }),
            other => Err(invalid(format!("unknown worker message kind `{other}`"))),
        }
    }

    /// Encode as one line of compact JSON (no interior newlines) — the
    /// JSONL wire format the worker writes to stdout.
    pub fn to_json_line(&self) -> String {
        self.to_value().to_compact()
    }

    /// Decode one JSONL line produced by
    /// [`to_json_line`](Self::to_json_line).
    pub fn from_json_line(line: &str) -> Result<WorkerMessage, JsonError> {
        WorkerMessage::from_value(&lfi_json::parse(line)?)
    }
}

#[cfg(test)]
mod tests {
    use lfi_campaign::{CampaignEvent, CrashSignature};

    use super::*;

    #[test]
    fn worker_messages_round_trip_through_json_lines() {
        let messages = vec![
            WorkerMessage::Hello {
                pid: 4242,
                points: 120,
                units: 285,
                plan: "00000000deadbeef".to_string(),
            },
            WorkerMessage::LeaseFinished {
                lease: 7,
                start: 16,
                end: 24,
                executed: 19,
                records: 20,
            },
            WorkerMessage::Event(CampaignEvent::CrashFound(CrashSignature {
                target: "git-lite".to_string(),
                function: "opendir".to_string(),
                module: "git-lite".to_string(),
                offset: 0x99,
                frame: Some("scan_tree".to_string()),
            })),
        ];
        for message in messages {
            let line = message.to_json_line();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let back = WorkerMessage::from_json_line(&line)
                .unwrap_or_else(|err| panic!("decoding {line}: {err:?}"));
            assert_eq!(back, message);
        }
    }

    #[test]
    fn event_lines_decode_as_forwarded_events() {
        // A raw event line (what the engine's sink emits) and the
        // worker's re-encoded form are the same wire bytes.
        let event = CampaignEvent::UnitStarted {
            unit: 3,
            target: "db-lite".to_string(),
            function: "close".to_string(),
            offset: 0x40,
        };
        let line = event.to_json_line();
        assert_eq!(
            WorkerMessage::from_json_line(&line).unwrap(),
            WorkerMessage::Event(event.clone())
        );
        assert_eq!(WorkerMessage::Event(event).to_json_line(), line);
    }

    #[test]
    fn decoding_rejects_malformed_and_foreign_lines() {
        assert!(WorkerMessage::from_json_line("{}").is_err());
        assert!(WorkerMessage::from_json_line("not json").is_err());
        assert!(WorkerMessage::from_json_line(r#"{"worker":"warp"}"#).is_err());
        assert!(WorkerMessage::from_json_line(r#"{"worker":"hello"}"#).is_err());
        // A control line belongs to the downstream pipe, not this one.
        assert!(WorkerMessage::from_json_line(r#"{"control":"shutdown"}"#).is_err());
    }
}
