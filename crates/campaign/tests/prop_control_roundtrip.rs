//! Property test for the supervisor control wire format:
//! `decode(encode(m)) == m` for every variant of [`ControlMessage`] over
//! generated payloads — arbitrary lease ids and ranges, identifier-ish
//! signature strings (exercising JSON string escaping), and arbitrary
//! point annotations. Control lines flow from the supervisor to worker
//! stdin as a cross-process protocol, so the codec must be total in both
//! directions, exactly like the event stream it travels beside; and an
//! annotations line that lost part of a token or carries an unknown char
//! must be rejected, not misread.

use lfi_analyzer::{CallSiteClass, PropagationVerdict};
use lfi_campaign::{ControlMessage, CrashSignature, Lease, PointAnnotations, PruneStats};
use proptest::option;
use proptest::prelude::*;

/// Identifier-ish strings (function names, targets, modules).
fn name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_.-]{0,11}"
}

fn lease() -> impl Strategy<Value = Lease> {
    (any::<u64>(), 0usize..10_000, 1usize..64).prop_map(|(id, start, len)| Lease {
        id,
        start,
        end: start + len,
    })
}

fn signature() -> impl Strategy<Value = CrashSignature> {
    (name(), name(), name(), any::<u64>(), option::of(name())).prop_map(
        |(target, function, module, offset, frame)| CrashSignature {
            target,
            function,
            module,
            offset,
            frame,
        },
    )
}

fn point_annotations() -> impl Strategy<Value = PointAnnotations> {
    (
        0usize..4,
        any::<bool>(),
        0usize..5,
        any::<bool>(),
        0usize..3,
    )
        .prop_map(
            |(class, low_confidence, verdict, demoted, reached)| PointAnnotations {
                class: [
                    None,
                    Some(CallSiteClass::Checked),
                    Some(CallSiteClass::PartiallyChecked),
                    Some(CallSiteClass::Unchecked),
                ][class],
                low_confidence,
                verdict: [
                    None,
                    Some(PropagationVerdict::HandledLocally),
                    Some(PropagationVerdict::PropagatedChecked),
                    Some(PropagationVerdict::PropagatedUnchecked),
                    Some(PropagationVerdict::Dropped),
                ][verdict],
                demoted,
                reached: [None, Some(false), Some(true)][reached],
            },
        )
}

fn annotations() -> impl Strategy<Value = ControlMessage> {
    (
        proptest::collection::vec(point_annotations(), 0..40),
        0usize..1000,
        0usize..1000,
        0usize..1000,
    )
        .prop_map(
            |(points, total, demoted, low_confidence)| ControlMessage::Annotations {
                points,
                analysis: PruneStats {
                    total,
                    demoted,
                    low_confidence,
                },
            },
        )
}

fn message() -> BoxedStrategy<ControlMessage> {
    prop_oneof![
        lease().prop_map(ControlMessage::Lease),
        signature().prop_map(ControlMessage::SignatureBroadcast),
        Just(ControlMessage::Shutdown),
        annotations(),
    ]
    .boxed()
}

/// The `"points"` string of an encoded annotations line.
fn points_of(line: &str) -> &str {
    let start = line
        .find(r#""points":""#)
        .expect("annotations carry points")
        + 10;
    let len = line[start..].find('"').expect("closing quote");
    &line[start..start + len]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated control message survives the JSONL wire format
    /// exactly, and the encoded line never contains an interior newline
    /// (the framing invariant the worker's stdin reader relies on).
    #[test]
    fn every_control_message_round_trips_through_the_wire_format(message in message()) {
        let line = message.to_json_line();
        prop_assert!(!line.contains('\n'), "JSONL framing: no interior newlines");
        let decoded = ControlMessage::from_json_line(&line)
            .unwrap_or_else(|err| panic!("decoding {line}: {}", err.message));
        prop_assert_eq!(decoded, message);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Dropping 1-4 chars of the token string, or replacing one char with
    /// one no field uses, makes an annotations line undecodable.
    #[test]
    fn corrupted_annotation_tokens_are_rejected(
        message in annotations(),
        cut in 1usize..5,
        at in any::<usize>(),
    ) {
        let line = message.to_json_line();
        let points = points_of(&line);
        if points.len() >= cut {
            let short = line.replacen(points, &points[cut..], 1);
            prop_assert!(ControlMessage::from_json_line(&short).is_err(), "{short}");
        }
        if !points.is_empty() {
            let index = at % points.len();
            let mut bad = points.to_string();
            bad.replace_range(index..index + 1, "x");
            let bad = line.replacen(points, &bad, 1);
            prop_assert!(ControlMessage::from_json_line(&bad).is_err(), "{bad}");
        }
    }
}
