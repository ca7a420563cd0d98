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

use lfi_analyzer::{CallSiteClass, PropagationVerdict};
use lfi_json::{int_field, invalid, str_field, JsonError, Value};

use crate::lease::Lease;
use crate::space::{PointAnnotations, PruneStats};
use crate::triage::CrashSignature;

/// A message from the supervisor to one worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControlMessage {
    /// The annotations of the space the worker enumerated, computed once
    /// by the supervisor: the worker's first line, sent before any lease.
    /// On the wire each point is one fixed-width token of five chars, one
    /// per field.
    Annotations {
        /// Every point's annotations, in enumeration order.
        points: Vec<PointAnnotations>,
        /// The prune counts of the analysis pass that produced them,
        /// which the worker reports as its own analysis metrics.
        analysis: PruneStats,
    },
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
        let int = |n: usize| Value::Int(n as i64);
        match self {
            ControlMessage::Annotations { points, analysis } => tagged(
                "annotations",
                vec![
                    ("sites".to_string(), int(analysis.total)),
                    ("demoted".to_string(), int(analysis.demoted)),
                    ("low_confidence".to_string(), int(analysis.low_confidence)),
                    ("points".to_string(), Value::Str(encode_annotations(points))),
                ],
            ),
            ControlMessage::Lease(lease) => tagged(
                "lease",
                vec![
                    ("id".to_string(), Value::Int(lease.id as i64)),
                    ("start".to_string(), Value::Int(lease.start as i64)),
                    ("end".to_string(), Value::Int(lease.end as i64)),
                ],
            ),
            ControlMessage::SignatureBroadcast(signature) => {
                tagged("signature_broadcast", signature.to_fields())
            }
            ControlMessage::Shutdown => tagged("shutdown", Vec::new()),
        }
    }

    /// Decode a value produced by [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> Result<ControlMessage, JsonError> {
        match str_field(value, "control")?.as_str() {
            "annotations" => Ok(ControlMessage::Annotations {
                points: decode_annotations(&str_field(value, "points")?).map_err(invalid)?,
                analysis: PruneStats {
                    total: int_field(value, "sites")? as usize,
                    demoted: int_field(value, "demoted")? as usize,
                    low_confidence: int_field(value, "low_confidence")? as usize,
                },
            }),
            "lease" => Ok(ControlMessage::Lease(Lease {
                id: int_field(value, "id")? as u64,
                start: int_field(value, "start")? as usize,
                end: int_field(value, "end")? as usize,
            })),
            "signature_broadcast" => Ok(ControlMessage::SignatureBroadcast(
                CrashSignature::from_fields(value)?,
            )),
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

/// Chars per point in [`ControlMessage::Annotations`]'s wire form.
const ANNOTATION_TOKEN_WIDTH: usize = 5;

/// One token per point, [`ANNOTATION_TOKEN_WIDTH`] chars each, one char
/// per field: class (`c`hecked, `p`artially checked, `u`nchecked),
/// low confidence (`1`/`0`), verdict (handled `l`ocally, propagated
/// `c`hecked, propagated `u`nchecked, `d`ropped), demoted (`1`/`0`) and
/// reached (`1`/`0`). `-` marks a field that is not annotated.
fn encode_annotations(points: &[PointAnnotations]) -> String {
    let flag = |set: bool| if set { '1' } else { '0' };
    let mut text = String::with_capacity(points.len() * ANNOTATION_TOKEN_WIDTH);
    for point in points {
        text.push(match point.class {
            Some(CallSiteClass::Checked) => 'c',
            Some(CallSiteClass::PartiallyChecked) => 'p',
            Some(CallSiteClass::Unchecked) => 'u',
            None => '-',
        });
        text.push(flag(point.low_confidence));
        text.push(match point.verdict {
            Some(PropagationVerdict::HandledLocally) => 'l',
            Some(PropagationVerdict::PropagatedChecked) => 'c',
            Some(PropagationVerdict::PropagatedUnchecked) => 'u',
            Some(PropagationVerdict::Dropped) => 'd',
            None => '-',
        });
        text.push(flag(point.demoted));
        text.push(match point.reached {
            Some(true) => '1',
            Some(false) => '0',
            None => '-',
        });
    }
    text
}

/// The inverse of [`encode_annotations`]. Fails on text that is not a
/// whole number of tokens or on a token with an unknown char.
fn decode_annotations(text: &str) -> Result<Vec<PointAnnotations>, String> {
    let bytes = text.as_bytes();
    if !bytes.len().is_multiple_of(ANNOTATION_TOKEN_WIDTH) {
        return Err(format!(
            "annotations: {} bytes is not a whole number of {ANNOTATION_TOKEN_WIDTH}-char tokens",
            bytes.len()
        ));
    }
    bytes
        .chunks(ANNOTATION_TOKEN_WIDTH)
        .enumerate()
        .map(|(index, token)| {
            decode_token(token).ok_or_else(|| {
                format!(
                    "annotations: unknown token `{}` for point {index}",
                    String::from_utf8_lossy(token)
                )
            })
        })
        .collect()
}

fn decode_token(token: &[u8]) -> Option<PointAnnotations> {
    let flag = |byte: u8| match byte {
        b'1' => Some(true),
        b'0' => Some(false),
        _ => None,
    };
    let &[class, low_confidence, verdict, demoted, reached] = token else {
        return None;
    };
    Some(PointAnnotations {
        class: match class {
            b'c' => Some(CallSiteClass::Checked),
            b'p' => Some(CallSiteClass::PartiallyChecked),
            b'u' => Some(CallSiteClass::Unchecked),
            b'-' => None,
            _ => return None,
        },
        low_confidence: flag(low_confidence)?,
        verdict: match verdict {
            b'l' => Some(PropagationVerdict::HandledLocally),
            b'c' => Some(PropagationVerdict::PropagatedChecked),
            b'u' => Some(PropagationVerdict::PropagatedUnchecked),
            b'd' => Some(PropagationVerdict::Dropped),
            b'-' => None,
            _ => return None,
        },
        demoted: flag(demoted)?,
        reached: match reached {
            b'-' => None,
            other => Some(flag(other)?),
        },
    })
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
            ControlMessage::Annotations {
                points: vec![
                    PointAnnotations::default(),
                    PointAnnotations {
                        class: Some(CallSiteClass::PartiallyChecked),
                        low_confidence: true,
                        verdict: Some(PropagationVerdict::Dropped),
                        demoted: false,
                        reached: Some(false),
                    },
                    PointAnnotations {
                        class: Some(CallSiteClass::Checked),
                        low_confidence: false,
                        verdict: Some(PropagationVerdict::HandledLocally),
                        demoted: true,
                        reached: Some(true),
                    },
                ],
                analysis: PruneStats {
                    total: 84,
                    demoted: 42,
                    low_confidence: 3,
                },
            },
            ControlMessage::Annotations {
                points: Vec::new(),
                analysis: PruneStats::default(),
            },
        ];
        for message in messages {
            let line = message.to_json_line();
            assert!(!line.contains('\n'), "JSONL lines must be single-line");
            let back = ControlMessage::from_json_line(&line)
                .unwrap_or_else(|err| panic!("decoding {line}: {err:?}"));
            assert_eq!(back, message);
        }
    }

    /// The `signature_broadcast` wire bytes, pinned: the same five keys
    /// as a `crash_found` event, after the `control` key.
    #[test]
    fn a_signature_broadcast_line_keeps_its_wire_bytes() {
        let message = ControlMessage::SignatureBroadcast(CrashSignature {
            target: "db-lite".into(),
            function: "close".into(),
            module: "db-lite".into(),
            offset: 0x40,
            frame: None,
        });
        let line = r#"{"control":"signature_broadcast","target":"db-lite","function":"close","module":"db-lite","offset":64,"frame":null}"#;
        assert_eq!(message.to_json_line(), line);
        assert_eq!(ControlMessage::from_json_line(line).unwrap(), message);
    }

    #[test]
    fn decoding_rejects_unknown_and_malformed_control_messages() {
        assert!(ControlMessage::from_json_line("{}").is_err());
        assert!(ControlMessage::from_json_line(r#"{"control":"warp"}"#).is_err());
        assert!(ControlMessage::from_json_line(r#"{"control":"lease"}"#).is_err());
        assert!(ControlMessage::from_json_line(r#"{"control":"revoke","lease":9}"#).is_err());
        assert!(ControlMessage::from_json_line("not json").is_err());
        // Annotations: tokens are fixed-width and every char is known.
        let annotations = |points: &str| {
            format!(
                r#"{{"control":"annotations","sites":2,"demoted":0,"low_confidence":0,"points":"{points}"}}"#
            )
        };
        assert!(ControlMessage::from_json_line(&annotations("u0u01-0-0-")).is_ok());
        for bad in [
            "u0u01-0-0",
            "u0u01-0-0--",
            "u0u01x0-0-",
            "u0u01-2-0-",
            "u0u0é-0-",
        ] {
            assert!(
                ControlMessage::from_json_line(&annotations(bad)).is_err(),
                "{bad} must not decode"
            );
        }
        assert!(
            ControlMessage::from_json_line(r#"{"control":"annotations","points":""}"#).is_err()
        );
        // An event line is not a control line: the discriminating key
        // keeps the two wire formats disjoint on a shared pipe.
        assert!(ControlMessage::from_json_line(r#"{"event":"shutdown"}"#).is_err());
    }
}
