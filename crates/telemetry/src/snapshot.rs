//! Point-in-time metric captures and their JSON wire format.

use std::collections::BTreeMap;

use lfi_json::Value;

/// Number of log₂ buckets a histogram carries: bucket 0 for zero,
/// buckets 1..=64 for each power-of-two range of `u64`.
pub(crate) const BUCKETS: usize = 65;

/// Lower bound of histogram bucket `index`: 0 for bucket 0, `2^(i-1)`
/// for bucket `i ≥ 1`. Bucket `i` covers `[bucket_floor(i),
/// 2 * bucket_floor(i) - 1]` (bucket 0 holds only zeros).
pub fn bucket_floor(index: u32) -> u64 {
    if index == 0 {
        0
    } else {
        1u64 << (index - 1).min(63)
    }
}

/// Captured state of one histogram: total sample count, sum of samples,
/// and the non-empty log₂ buckets as `(bucket index, hits)` pairs sorted
/// by index.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all recorded sample values.
    pub sum: u64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Fold another capture of the same histogram into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        for &(index, hits) in &other.buckets {
            match self.buckets.binary_search_by_key(&index, |&(i, _)| i) {
                Ok(slot) => self.buckets[slot].1 += hits,
                Err(slot) => self.buckets.insert(slot, (index, hits)),
            }
        }
    }
}

/// A typed capture of every metric registered in a [`Telemetry`]
/// registry at one instant, serializable via `lfi_json`.
///
/// Values are stored as `u64` but the JSON wire format carries them as
/// 64-bit signed ints (`lfi_json` has no unsigned type); values above
/// `i64::MAX` — never produced by realistic counters or microsecond
/// clocks — saturate on encode.
///
/// [`Telemetry`]: crate::Telemetry
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotonic counts by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by metric name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram captures by metric name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Gauge value by name, 0 when absent.
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Histogram capture by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }

    /// Fold another snapshot into this one: counters and histograms are
    /// summed, gauges take the maximum (every campaign gauge is a
    /// high-water or capacity figure, where max is the meaningful
    /// cross-shard combination).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_default();
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Encode as an `lfi_json` value.
    pub fn to_value(&self) -> Value {
        let int = |v: u64| Value::Int(i64::try_from(v).unwrap_or(i64::MAX));
        let map_obj = |map: &BTreeMap<String, u64>| {
            Value::Obj(
                map.iter()
                    .map(|(name, v)| (name.clone(), int(*v)))
                    .collect(),
            )
        };
        let histograms = self
            .histograms
            .iter()
            .map(|(name, hist)| {
                let buckets = hist
                    .buckets
                    .iter()
                    .map(|&(index, hits)| Value::Arr(vec![int(u64::from(index)), int(hits)]))
                    .collect();
                let body = Value::Obj(vec![
                    ("count".to_string(), int(hist.count)),
                    ("sum".to_string(), int(hist.sum)),
                    ("buckets".to_string(), Value::Arr(buckets)),
                ]);
                (name.clone(), body)
            })
            .collect();
        Value::Obj(vec![
            ("counters".to_string(), map_obj(&self.counters)),
            ("gauges".to_string(), map_obj(&self.gauges)),
            ("histograms".to_string(), Value::Obj(histograms)),
        ])
    }

    /// Decode a value produced by [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let obj = as_obj(value, "metrics snapshot")?;
        let mut snap = MetricsSnapshot::default();
        for (name, v) in as_obj(field(obj, "counters")?, "counters")? {
            snap.counters.insert(name.clone(), as_u64(v, name)?);
        }
        for (name, v) in as_obj(field(obj, "gauges")?, "gauges")? {
            snap.gauges.insert(name.clone(), as_u64(v, name)?);
        }
        for (name, v) in as_obj(field(obj, "histograms")?, "histograms")? {
            let body = as_obj(v, name)?;
            let mut hist = HistogramSnapshot {
                count: as_u64(field(body, "count")?, "count")?,
                sum: as_u64(field(body, "sum")?, "sum")?,
                buckets: Vec::new(),
            };
            let Value::Arr(buckets) = field(body, "buckets")? else {
                return Err(format!("histogram {name}: buckets is not an array"));
            };
            for bucket in buckets {
                let Value::Arr(pair) = bucket else {
                    return Err(format!("histogram {name}: bucket is not a pair"));
                };
                let [index, hits] = pair.as_slice() else {
                    return Err(format!("histogram {name}: bucket is not a pair"));
                };
                hist.buckets.push((
                    as_u64(index, "bucket index")? as u32,
                    as_u64(hits, "bucket hits")?,
                ));
            }
            snap.histograms.insert(name.clone(), hist);
        }
        Ok(snap)
    }
}

fn as_obj<'v>(value: &'v Value, what: &str) -> Result<&'v Vec<(String, Value)>, String> {
    match value {
        Value::Obj(members) => Ok(members),
        _ => Err(format!("{what} is not an object")),
    }
}

fn field<'v>(obj: &'v [(String, Value)], name: &str) -> Result<&'v Value, String> {
    obj.iter()
        .find(|(key, _)| key == name)
        .map(|(_, value)| value)
        .ok_or_else(|| format!("missing field {name}"))
}

fn as_u64(value: &Value, what: &str) -> Result<u64, String> {
    match value {
        Value::Int(v) if *v >= 0 => Ok(*v as u64),
        _ => Err(format!("{what} is not a non-negative int")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::bucket_index;
    use crate::Telemetry;

    #[test]
    fn counters_and_gauges_round_trip_through_snapshot() {
        let telemetry = Telemetry::new();
        telemetry.counter("units").add(7);
        telemetry.counter("units").inc();
        telemetry.gauge("resident").set_max(100);
        telemetry.gauge("resident").set_max(40);
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter("units"), 8);
        assert_eq!(snap.gauge("resident"), 100);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn disabled_registry_is_inert() {
        let telemetry = Telemetry::disabled();
        assert!(!telemetry.enabled());
        telemetry.counter("units").inc();
        telemetry.gauge("g").set(5);
        telemetry.histogram("h").record(5);
        telemetry.histogram("h").start().finish();
        assert_eq!(telemetry.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn histogram_buckets_follow_log2_ranges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        for index in 1..=64u32 {
            let floor = bucket_floor(index);
            assert_eq!(bucket_index(floor), index as usize);
            let ceiling = floor.saturating_mul(2).saturating_sub(1).max(floor);
            assert_eq!(bucket_index(ceiling), index as usize);
        }
    }

    #[test]
    fn histogram_snapshot_carries_count_sum_and_buckets() {
        let telemetry = Telemetry::new();
        let hist = telemetry.histogram("latency");
        hist.record(0);
        hist.record(3);
        hist.record(3);
        hist.record(1000);
        let snap = telemetry.snapshot();
        let captured = snap.histogram("latency").unwrap();
        assert_eq!(captured.count, 4);
        assert_eq!(captured.sum, 1006);
        assert_eq!(captured.buckets, vec![(0, 1), (2, 2), (10, 1)]);
        assert_eq!(captured.mean(), 251);
    }

    #[test]
    fn span_records_elapsed_micros() {
        let telemetry = Telemetry::new();
        let hist = telemetry.histogram("span");
        hist.start().finish();
        {
            let _span = hist.start();
        }
        let snap = telemetry.snapshot();
        assert_eq!(snap.histogram("span").unwrap().count, 2);
    }

    #[test]
    fn snapshot_merge_sums_counters_and_maxes_gauges() {
        let a = Telemetry::new();
        a.counter("units").add(10);
        a.gauge("resident").set(50);
        a.histogram("latency").record(4);
        let b = Telemetry::new();
        b.counter("units").add(5);
        b.counter("crashes").inc();
        b.gauge("resident").set(80);
        b.histogram("latency").record(100);

        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("units"), 15);
        assert_eq!(merged.counter("crashes"), 1);
        assert_eq!(merged.gauge("resident"), 80);
        let hist = merged.histogram("latency").unwrap();
        assert_eq!(hist.count, 2);
        assert_eq!(hist.sum, 104);
        assert_eq!(hist.buckets, vec![(3, 1), (7, 1)]);
    }

    #[test]
    fn snapshot_json_round_trips() {
        let telemetry = Telemetry::new();
        telemetry.counter("tree_fork_hits").add(42);
        telemetry.gauge("resident_bytes_hw").set(1 << 30);
        let hist = telemetry.histogram("unit_execute_micros");
        hist.record(0);
        hist.record(500);
        hist.record(70_000);
        let snap = telemetry.snapshot();

        let encoded = snap.to_value().to_compact();
        let decoded = MetricsSnapshot::from_value(&lfi_json::parse(&encoded).unwrap()).unwrap();
        assert_eq!(decoded, snap);

        assert!(MetricsSnapshot::from_value(&Value::Null).is_err());
        assert!(MetricsSnapshot::from_value(&Value::Obj(vec![])).is_err());
    }
}
