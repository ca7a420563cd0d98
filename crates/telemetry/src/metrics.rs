//! Registry and hot-path handles: counters, gauges, histograms, spans.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot, BUCKETS};

/// Notes queued after this many are pending are dropped (the drop itself
/// is counted), so a driver that never drains cannot leak memory.
const MAX_PENDING_NOTES: usize = 1024;

/// A discrete out-of-band observation from an instrumented layer.
///
/// Notes exist for rare events that deserve a line in the campaign event
/// stream but originate below the layer that owns the sink, such as an
/// executor. The campaign driver drains them with
/// [`Telemetry::take_notes`] and republishes each as an event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Note {
    /// Which subsystem raised the note, e.g. `"executor"`.
    pub source: String,
    /// Human-readable description of what happened.
    pub message: String,
}

#[derive(Default)]
struct CounterCell(AtomicU64);

#[derive(Default)]
struct GaugeCell(AtomicU64);

struct HistogramCell {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Arc<CounterCell>>>,
    gauges: Mutex<BTreeMap<String, Arc<GaugeCell>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    notes: Mutex<Vec<Note>>,
    notes_dropped: AtomicU64,
}

/// Shared handle to a metrics registry, or a no-op stand-in.
///
/// Cloning is cheap (an `Arc` bump, or nothing when disabled). Metric
/// lookup by name takes a registry mutex and is meant for setup paths;
/// the returned [`Counter`]/[`Gauge`]/[`Histogram`] handles are lock-free
/// and should be resolved once and kept on hot paths.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Option<Arc<Registry>>,
}

impl Telemetry {
    /// A live registry that collects everything recorded through it.
    pub fn new() -> Self {
        Telemetry {
            registry: Some(Arc::new(Registry::default())),
        }
    }

    /// A disabled registry: every handle it hands out is a no-op and
    /// [`Span`]s skip their clock reads. This is the "collection off"
    /// mode instrumented code should be given by default.
    pub fn disabled() -> Self {
        Telemetry { registry: None }
    }

    /// Whether this handle collects anything at all.
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Resolve (registering on first use) the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: self.registry.as_ref().map(|r| {
                let mut map = r.counters.lock().unwrap();
                Arc::clone(map.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Resolve (registering on first use) the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: self.registry.as_ref().map(|r| {
                let mut map = r.gauges.lock().unwrap();
                Arc::clone(map.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Resolve (registering on first use) the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: self.registry.as_ref().map(|r| {
                let mut map = r.histograms.lock().unwrap();
                Arc::clone(map.entry(name.to_string()).or_default())
            }),
        }
    }

    /// Queue an out-of-band [`Note`] for the next [`take_notes`] drain.
    ///
    /// Bounded: past `MAX_PENDING_NOTES` pending entries new notes are
    /// dropped and the drop is counted in the `telemetry_notes_dropped`
    /// counter of the next snapshot.
    ///
    /// [`take_notes`]: Telemetry::take_notes
    pub fn note(&self, source: &str, message: impl Into<String>) {
        let Some(registry) = self.registry.as_ref() else {
            return;
        };
        let mut notes = registry.notes.lock().unwrap();
        if notes.len() >= MAX_PENDING_NOTES {
            registry.notes_dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        notes.push(Note {
            source: source.to_string(),
            message: message.into(),
        });
    }

    /// Drain all queued notes, oldest first.
    pub fn take_notes(&self) -> Vec<Note> {
        match self.registry.as_ref() {
            Some(registry) => std::mem::take(&mut *registry.notes.lock().unwrap()),
            None => Vec::new(),
        }
    }

    /// Capture the current value of every registered metric.
    ///
    /// Counters and histogram cells are read `Relaxed`, so a snapshot
    /// taken while workers are recording is a consistent-enough point
    /// sample, not a linearizable cut — fine for reporting.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let Some(registry) = self.registry.as_ref() else {
            return snap;
        };
        for (name, cell) in registry.counters.lock().unwrap().iter() {
            snap.counters
                .insert(name.clone(), cell.0.load(Ordering::Relaxed));
        }
        let dropped = registry.notes_dropped.load(Ordering::Relaxed);
        if dropped > 0 {
            snap.counters
                .insert("telemetry_notes_dropped".to_string(), dropped);
        }
        for (name, cell) in registry.gauges.lock().unwrap().iter() {
            snap.gauges
                .insert(name.clone(), cell.0.load(Ordering::Relaxed));
        }
        for (name, cell) in registry.histograms.lock().unwrap().iter() {
            let mut hist = HistogramSnapshot {
                count: cell.count.load(Ordering::Relaxed),
                sum: cell.sum.load(Ordering::Relaxed),
                buckets: Vec::new(),
            };
            for (index, bucket) in cell.buckets.iter().enumerate() {
                let hits = bucket.load(Ordering::Relaxed);
                if hits > 0 {
                    hist.buckets.push((index as u32, hits));
                }
            }
            snap.histograms.insert(name.clone(), hist);
        }
        snap
    }
}

/// Monotonically increasing count. No-op when resolved from a disabled
/// [`Telemetry`].
#[derive(Clone, Default)]
pub struct Counter {
    cell: Option<Arc<CounterCell>>,
}

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `delta`.
    pub fn add(&self, delta: u64) {
        if let Some(cell) = &self.cell {
            cell.0.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.0.load(Ordering::Relaxed))
    }
}

/// Last-write or high-water value. No-op when resolved from a disabled
/// [`Telemetry`].
#[derive(Clone, Default)]
pub struct Gauge {
    cell: Option<Arc<GaugeCell>>,
}

impl Gauge {
    /// Overwrite the gauge with `value`.
    pub fn set(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.0.store(value, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `value` if it is below it (high-water mark).
    pub fn set_max(&self, value: u64) {
        if let Some(cell) = &self.cell {
            cell.0.fetch_max(value, Ordering::Relaxed);
        }
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.cell
            .as_ref()
            .map_or(0, |c| c.0.load(Ordering::Relaxed))
    }
}

/// Log₂-bucketed distribution of `u64` samples.
///
/// Sample `v` lands in bucket `⌈log₂(v+1)⌉` (bucket 0 holds only zeros;
/// bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`); see
/// [`bucket_floor`](crate::bucket_floor). No-op when resolved from a
/// disabled [`Telemetry`].
#[derive(Clone, Default)]
pub struct Histogram {
    cell: Option<Arc<HistogramCell>>,
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, value: u64) {
        let Some(cell) = &self.cell else { return };
        cell.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        cell.count.fetch_add(1, Ordering::Relaxed);
        cell.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Start a wall-clock span that records its elapsed microseconds
    /// into this histogram when dropped (or [`Span::finish`]ed). When
    /// the histogram is disabled the span never reads the clock.
    pub fn start(&self) -> Span {
        Span {
            histogram: self.clone(),
            started: if self.cell.is_some() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }
}

pub(crate) fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// In-flight timing of one operation; see [`Histogram::start`].
#[must_use = "a span records its duration when dropped; binding it to _ drops it immediately"]
pub struct Span {
    histogram: Histogram,
    started: Option<Instant>,
}

impl Span {
    /// End the span now. Equivalent to dropping it, but explicit at the
    /// call site.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(started) = self.started.take() {
            self.histogram.record(started.elapsed().as_micros() as u64);
        }
    }
}
