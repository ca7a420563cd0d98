//! Property test for the campaign event wire format: `decode(encode(e))
//! == e` for *every* variant of [`CampaignEvent`] over generated payloads
//! — arbitrary offsets, durations, point ranges (empty ones included),
//! metric snapshots, and printable-ASCII strings (exercising JSON string
//! escaping). The JSONL
//! streams are a cross-process protocol (`table1_bugs --events-jsonl` →
//! `campaign_status`), so the format must be total in both directions,
//! not merely round-trip on the handful of shapes unit tests pin.

use std::ops::Range;

use lfi_campaign::{
    CampaignEvent, CrashInfo, CrashSignature, InjectedSite, MetricsSnapshot, OutcomeKind, RunRecord,
};
use lfi_telemetry::HistogramSnapshot;
use proptest::prelude::*;
use proptest::{collection, option};

/// Identifier-ish strings (function names, targets, modules).
fn name() -> impl Strategy<Value = String> {
    "[a-z_][a-z0-9_.-]{0,11}"
}

/// Free-form printable text (messages, descriptions, paths) — includes
/// quotes and backslashes, so JSON escaping is exercised.
fn text() -> impl Strategy<Value = String> {
    "\\PC{0,16}"
}

/// Metric values stay within `i64` so the snapshot encoding (which
/// saturates above `i64::MAX`) is lossless.
fn metric_value() -> Range<u64> {
    0u64..(1u64 << 62)
}

/// A run's point range, `start <= end`; a third of them are empty.
fn shard() -> impl Strategy<Value = Range<usize>> {
    (0usize..10_000, 0usize..64, 0usize..3)
        .prop_map(|(start, len, empty)| start..start + if empty == 0 { 0 } else { len })
}

fn outcome() -> BoxedStrategy<OutcomeKind> {
    prop_oneof![
        Just(OutcomeKind::Passed),
        any::<i64>().prop_map(OutcomeKind::CleanFailure),
        Just(OutcomeKind::Crashed),
        Just(OutcomeKind::Hung),
    ]
    .boxed()
}

fn injected_site() -> impl Strategy<Value = InjectedSite> {
    (name(), any::<u64>(), option::of(name())).prop_map(|(module, offset, caller)| InjectedSite {
        module,
        offset,
        caller,
    })
}

fn crash_info() -> impl Strategy<Value = CrashInfo> {
    (
        name(),
        any::<u64>(),
        text(),
        option::of(name()),
        collection::vec(name(), 0..4),
    )
        .prop_map(
            |(module, offset, description, in_function, backtrace)| CrashInfo {
                module,
                offset,
                description,
                in_function,
                backtrace,
            },
        )
}

fn run_record() -> impl Strategy<Value = RunRecord> {
    (
        (any::<usize>(), name(), name(), any::<u64>()),
        collection::vec(text(), 0..4),
        outcome(),
        (any::<u64>(), any::<u64>()),
        collection::vec(injected_site(), 0..3),
        collection::vec(crash_info(), 0..3),
    )
        .prop_map(
            |(
                (unit, target, function, offset),
                args,
                outcome,
                (injections, virtual_time),
                injected_sites,
                crashes,
            )| RunRecord {
                unit,
                target,
                function,
                offset,
                args,
                outcome,
                injections,
                injected_sites,
                crashes,
                virtual_time,
            },
        )
}

fn histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        metric_value(),
        metric_value(),
        collection::vec((0u32..65, metric_value()), 0..6),
    )
        .prop_map(|(count, sum, mut buckets)| {
            // The capture type keeps buckets sorted and unique by index.
            buckets.sort_by_key(|&(index, _)| index);
            buckets.dedup_by_key(|&mut (index, _)| index);
            HistogramSnapshot {
                count,
                sum,
                buckets,
            }
        })
}

fn metrics() -> impl Strategy<Value = MetricsSnapshot> {
    (
        collection::btree_map(name(), metric_value(), 0..4),
        collection::btree_map(name(), metric_value(), 0..4),
        collection::btree_map(name(), histogram(), 0..3),
    )
        .prop_map(|(counters, gauges, histograms)| MetricsSnapshot {
            counters,
            gauges,
            histograms,
        })
}

fn event() -> BoxedStrategy<CampaignEvent> {
    prop_oneof![
        (
            any::<usize>(),
            any::<usize>(),
            any::<usize>(),
            any::<usize>()
        )
            .prop_map(
                |(batch, points, units, pending)| CampaignEvent::BatchPlanned {
                    batch,
                    points,
                    units,
                    pending,
                }
            ),
        (any::<usize>(), name(), name(), any::<u64>()).prop_map(
            |(unit, target, function, offset)| CampaignEvent::UnitStarted {
                unit,
                target,
                function,
                offset,
            }
        ),
        (run_record(), any::<u64>()).prop_map(|(record, duration_micros)| {
            CampaignEvent::UnitFinished {
                record,
                duration_micros,
            }
        }),
        (name(), name(), name(), any::<u64>(), option::of(name())).prop_map(
            |(target, function, module, offset, frame)| CampaignEvent::CrashFound(CrashSignature {
                target,
                function,
                module,
                offset,
                frame,
            })
        ),
        (text(), any::<usize>(), any::<u64>()).prop_map(
            |(path, completed, batch_duration_micros)| CampaignEvent::CheckpointWritten {
                path: path.into(),
                completed,
                batch_duration_micros,
            }
        ),
        (
            shard(),
            any::<usize>(),
            any::<usize>(),
            any::<u64>(),
            metrics()
        )
            .prop_map(
                |(shard, units_done, units_planned, milli_units_per_sec, metrics)| {
                    CampaignEvent::Heartbeat {
                        shard,
                        units_done,
                        units_planned,
                        milli_units_per_sec,
                        metrics,
                    }
                }
            ),
        (name(), text()).prop_map(|(source, message)| CampaignEvent::Note { source, message }),
        (shard(), any::<usize>(), any::<usize>()).prop_map(|(shard, executed, records)| {
            CampaignEvent::ShardFinished {
                shard,
                executed,
                records,
            }
        }),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every generated event survives the JSONL wire format exactly, and
    /// the encoded line never contains an interior newline (the framing
    /// invariant `JsonlSink` and `campaign_status` rely on).
    #[test]
    fn every_event_round_trips_through_the_wire_format(event in event()) {
        let line = event.to_json_line();
        prop_assert!(!line.contains('\n'), "JSONL framing: no interior newlines");
        let decoded = CampaignEvent::from_json_line(&line)
            .unwrap_or_else(|err| panic!("decoding {line}: {}", err.message));
        prop_assert_eq!(decoded, event);
    }
}
