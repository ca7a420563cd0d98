//! The supervisor control plane: the typed [`ControlMessage`]s a
//! campaign supervisor sends its workers.
//!
//! [`ControlMessage`] is the downstream half of the supervisor wire
//! protocol (the upstream half is the
//! [`CampaignEvent`](crate::events::CampaignEvent) stream plus the worker
//! protocol): it has the same
//! total line-oriented JSON codec as events, discriminated by a
//! `"control"` key so the two kinds can share a pipe without ambiguity.
//! Its [`Lease`] grants are the [`crate::lease`] partition type.

use lfi_json::{JsonError, Value};

use crate::lease::Lease;
use crate::state::{int_field, invalid, opt_str_field, str_field};
use crate::triage::CrashSignature;

/// A message from the supervisor to one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// Run this slice of the space. The supervisor grants a worker its
    /// next lease only after the previous one finished.
    Lease(Lease),
    /// A crash signature first seen elsewhere in the campaign: fold it
    /// into local scheduling (adaptive strategies escalate its caller
    /// neighborhood) without re-announcing it.
    SignatureBroadcast(CrashSignature),
    /// Finish the current lease (if any) and exit cleanly.
    Shutdown,
}

impl ControlMessage {
    /// Encode as an `lfi_json` value (`{"control": "<kind>", ...}`).
    pub fn to_value(&self) -> Value {
        let tagged = |kind: &str, mut fields: Vec<(String, Value)>| {
            fields.insert(0, ("control".to_string(), Value::Str(kind.to_string())));
            Value::Obj(fields)
        };
        match self {
            ControlMessage::Lease(lease) => tagged(
                "lease",
                vec![
                    ("id".to_string(), Value::Int(lease.id as i64)),
                    ("start".to_string(), Value::Int(lease.start as i64)),
                    ("end".to_string(), Value::Int(lease.end as i64)),
                ],
            ),
            ControlMessage::SignatureBroadcast(signature) => tagged(
                "signature_broadcast",
                vec![
                    ("target".to_string(), Value::Str(signature.target.clone())),
                    (
                        "function".to_string(),
                        Value::Str(signature.function.clone()),
                    ),
                    ("module".to_string(), Value::Str(signature.module.clone())),
                    ("offset".to_string(), Value::Int(signature.offset as i64)),
                    (
                        "frame".to_string(),
                        signature.frame.clone().map_or(Value::Null, Value::Str),
                    ),
                ],
            ),
            ControlMessage::Shutdown => tagged("shutdown", Vec::new()),
        }
    }

    /// Decode a value produced by [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> Result<ControlMessage, JsonError> {
        let kind = value
            .get("control")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid("missing string field `control`"))?;
        match kind {
            "lease" => Ok(ControlMessage::Lease(Lease {
                id: int_field(value, "id")? as u64,
                start: int_field(value, "start")? as usize,
                end: int_field(value, "end")? as usize,
            })),
            "signature_broadcast" => Ok(ControlMessage::SignatureBroadcast(CrashSignature {
                target: str_field(value, "target")?,
                function: str_field(value, "function")?,
                module: str_field(value, "module")?,
                offset: int_field(value, "offset")? as u64,
                frame: opt_str_field(value, "frame"),
            })),
            "shutdown" => Ok(ControlMessage::Shutdown),
            other => Err(invalid(format!("unknown control kind `{other}`"))),
        }
    }

    /// Encode as one line of compact JSON (no interior newlines) — the
    /// JSONL wire format the supervisor writes to worker stdin.
    pub fn to_json_line(&self) -> String {
        self.to_value().to_compact()
    }

    /// Decode one JSONL line produced by
    /// [`to_json_line`](Self::to_json_line).
    pub fn from_json_line(line: &str) -> Result<ControlMessage, JsonError> {
        ControlMessage::from_value(&lfi_json::parse(line)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_messages_round_trip_through_json_lines() {
        let messages = vec![
            ControlMessage::Lease(Lease {
                id: 9,
                start: 40,
                end: 48,
            }),
            ControlMessage::SignatureBroadcast(CrashSignature {
                target: "git-lite".into(),
                function: "opendir".into(),
                module: "git-lite".into(),
                offset: 0x99,
                frame: Some("scan_tree".into()),
            }),
            ControlMessage::SignatureBroadcast(CrashSignature {
                target: "db-lite".into(),
                function: "close".into(),
                module: "db-lite".into(),
                offset: 0x40,
                frame: None,
            }),
            ControlMessage::Shutdown,
        ];
        for message in messages {
            let line = message.to_json_line();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let back = ControlMessage::from_json_line(&line)
                .unwrap_or_else(|err| panic!("decoding {line}: {err:?}"));
            assert_eq!(back, message);
        }
    }

    #[test]
    fn decoding_rejects_unknown_and_malformed_control_messages() {
        assert!(ControlMessage::from_json_line("{}").is_err());
        assert!(ControlMessage::from_json_line(r#"{"control":"warp"}"#).is_err());
        assert!(ControlMessage::from_json_line(r#"{"control":"lease"}"#).is_err());
        assert!(ControlMessage::from_json_line(r#"{"control":"revoke","lease":9}"#).is_err());
        assert!(ControlMessage::from_json_line("not json").is_err());
        // An event line is not a control line: the discriminating key
        // keeps the two wire formats disjoint on a shared pipe.
        assert!(ControlMessage::from_json_line(r#"{"event":"shutdown"}"#).is_err());
    }
}
