//! Property test for the supervisor control wire format:
//! `decode(encode(m)) == m` for every variant of [`ControlMessage`] over
//! generated payloads — arbitrary lease ids and ranges, and
//! identifier-ish signature strings (exercising JSON string escaping).
//! Control lines flow from the supervisor to worker stdin as a
//! cross-process protocol, so the codec must be total in both
//! directions, exactly like the event stream it travels beside.

use lfi_campaign::{ControlMessage, CrashSignature, Lease};
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

fn message() -> BoxedStrategy<ControlMessage> {
    prop_oneof![
        lease().prop_map(ControlMessage::Lease),
        signature().prop_map(ControlMessage::SignatureBroadcast),
        Just(ControlMessage::Shutdown),
    ]
    .boxed()
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
