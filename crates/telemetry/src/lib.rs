//! Campaign telemetry: a lock-light metrics registry with serializable
//! snapshots.
//!
//! Fault-injection campaigns are throughput machines — sessions prepared,
//! thousands of units forked and triaged — and
//! until now the only numbers that came out were the final report. This
//! crate is the observability floor under the campaign stack:
//!
//! * [`Telemetry`] — a registry handle shared across threads. Metrics are
//!   registered by name (cold path, one mutex) and recorded through cheap
//!   cloneable handles (hot path, a single atomic op — no locks, no
//!   allocation). A [`Telemetry::disabled`] registry hands out no-op
//!   handles so instrumented code pays (almost) nothing when collection
//!   is off.
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — monotonic counts, set/max
//!   values, and log₂-bucketed value distributions. [`Histogram::start`]
//!   returns a [`Span`] that records its elapsed wall-clock microseconds
//!   when dropped — the span-timing primitive used on campaign hot paths
//!   (session prepare, unit execution, triage, checkpoint writes).
//! * [`MetricsSnapshot`] — a typed, point-in-time capture of every
//!   registered metric, serializable to and from JSON via `lfi_json`.
//!   This is what campaign reports embed, heartbeat events carry over
//!   the wire, and bench artifacts persist.
//! * [`stream`] — line-framed JSONL readers ([`LineFramer`],
//!   [`JsonlTail`]) shared by every consumer that tails an event or
//!   protocol stream: partial-line buffering for pipe readers, and
//!   truncation/rotation-tolerant file tailing for the live-status and
//!   supervisor bins.
//!
//! # Overhead budget
//!
//! A recorded metric costs one `Relaxed` atomic RMW; a span costs two
//! monotonic clock reads plus one histogram record. Campaign-level
//! instrumentation keeps total overhead under ~5% of snapshot-backend
//! sweep throughput (perfbench's `telemetry.overhead_pct` measures it).
//! Disable collection entirely by installing
//! [`Telemetry::disabled`] — handles become no-ops and spans skip the
//! clock reads.

mod metrics;
mod snapshot;
pub mod stream;

pub use metrics::{Counter, Gauge, Histogram, Span, Telemetry};
pub use snapshot::{bucket_floor, HistogramSnapshot, MetricsSnapshot};
pub use stream::{JsonlTail, LineFramer, TailPoll};
