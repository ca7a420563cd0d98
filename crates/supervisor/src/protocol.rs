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
//!
//! A protocol message carries only what the supervisor reads: `Hello`
//! the plan hash it checks, `LeaseFinished` the grant id it marks done.
//! Everything else about a lease is in its checkpoint file, which the
//! merge reads.

use lfi_campaign::CampaignEvent;
use lfi_json::{int_field, invalid, str_field, JsonError, Value};

/// One line of worker stdout.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkerMessage {
    /// The handshake, sent once at startup: the worker's view of the
    /// plan. The supervisor rejects a worker whose `plan` hash differs
    /// from its own — same binary, different space means a config or
    /// build drift that would corrupt the merge.
    Hello {
        /// The space/suite plan hash, `{:016x}`-formatted.
        plan: String,
    },
    /// The worker finished a lease and sealed its checkpoint file. The
    /// supervisor reads the lease's range and records from that file, so
    /// the message names only the grant.
    LeaseFinished {
        /// Grant id from the supervisor's `ControlMessage::Lease`.
        lease: u64,
    },
    /// One campaign event from the lease the worker is running,
    /// forwarded verbatim.
    Event(CampaignEvent),
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
            WorkerMessage::Hello { plan } => tagged(
                "hello",
                vec![("plan".to_string(), Value::Str(plan.clone()))],
            ),
            WorkerMessage::LeaseFinished { lease } => tagged(
                "lease_finished",
                vec![("lease".to_string(), Value::Int(*lease as i64))],
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
                plan: str_field(value, "plan")?,
            }),
            "lease_finished" => Ok(WorkerMessage::LeaseFinished {
                lease: int_field(value, "lease")? as u64,
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
                plan: "00000000deadbeef".to_string(),
            },
            WorkerMessage::LeaseFinished { lease: 7 },
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
