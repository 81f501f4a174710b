//! Lock-light metrics: counters, gauges, fixed-bucket histograms, and a
//! [`Registry`] exporting both Prometheus-style text and deterministic
//! snapshots for CI gating.
//!
//! Design points:
//!
//! * **Handles are cheap and cacheable.** Registering a metric takes a
//!   mutex on the registry's name map, but the returned handle is an
//!   `Arc`-wrapped atomic: hot paths hold the handle and never touch the
//!   registry again. The registry is append-only — metrics are never
//!   removed or replaced — so a cached handle can never go stale.
//! * **Naming convention carries semantics.** Metric names use
//!   `snake_case`; any metric whose name ends in `_ns` holds wall-clock
//!   nanoseconds and is therefore excluded from the deterministic export
//!   (its observation *count* stays in — how many times an op ran is a
//!   pure function of the workload, how long it took is not).
//! * **Counters wrap.** `u64` overflow wraps rather than saturating, so
//!   deltas between snapshots stay exact under wraparound
//!   (`after.wrapping_sub(before)` is correct even across the boundary).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default latency buckets (nanoseconds): powers of four from 1 µs to ~4 s.
pub const LATENCY_BOUNDS_NS: [u64; 12] = [
    1_000,
    4_000,
    16_000,
    64_000,
    256_000,
    1_000_000,
    4_000_000,
    16_000_000,
    64_000_000,
    256_000_000,
    1_000_000_000,
    4_000_000_000,
];

/// Default size buckets (bytes): powers of four from 64 B to 64 MiB (the
/// wire-frame ceiling).
pub const SIZE_BOUNDS_BYTES: [u64; 11] =
    [64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 4_194_304, 16_777_216, 67_108_864];

/// Coarse latency buckets (milliseconds) for slow, rare operations like
/// recovery replay: powers of four from 1 ms to ~17 min. Same wall-clock
/// convention as `_ns`: name the histogram with an `_ms` suffix.
pub const LATENCY_BOUNDS_MS: [u64; 10] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536, 262_144];

/// A monotonically increasing counter (wrapping at `u64::MAX`).
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    fn new() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`. `fetch_add` on `AtomicU64` wraps on overflow, which is
    /// exactly the delta-friendly behavior we want.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can go up and down.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    fn new() -> Self {
        Gauge(Arc::new(AtomicU64::new(0)))
    }

    /// Sets the value.
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Subtracts `n`, saturating at zero (a double-decrement bug should
    /// read as 0, not 2^64 - 1).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.0.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramCore {
    /// Upper bounds (inclusive) of each finite bucket; an implicit `+Inf`
    /// bucket follows.
    bounds: Vec<u64>,
    /// One slot per finite bound plus the `+Inf` slot.
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket histogram (cumulative buckets on export, like
/// Prometheus').
#[derive(Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(bounds.windows(2).all(|w| w[0] < w[1]), "histogram bounds must strictly increase");
        Histogram(Arc::new(HistogramCore {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }

    /// Records one observation. A value equal to a bound lands in that
    /// bound's bucket (`le` semantics); values above every bound land in
    /// `+Inf`.
    pub fn observe(&self, v: u64) {
        let idx = self.0.bounds.iter().position(|b| v <= *b).unwrap_or(self.0.bounds.len());
        self.0.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Times `f` and records the elapsed nanoseconds.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = std::time::Instant::now();
        let out = f();
        self.observe(start.elapsed().as_nanos() as u64);
        out
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`), linearly interpolated
    /// within the bucket containing the target rank. Returns `None` when
    /// the histogram is empty. Values in the `+Inf` bucket report the
    /// highest finite bound (the estimate saturates — a fixed-bucket
    /// histogram cannot see past its last edge). Deterministic: a pure
    /// function of the bucket counts.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let mut cum = Vec::with_capacity(self.0.buckets.len());
        let mut running = 0u64;
        for b in &self.0.buckets {
            running += b.load(Ordering::Relaxed);
            cum.push(running);
        }
        quantile_from_cumulative(&self.0.bounds, &cum, q)
    }
}

/// Shared quantile walk over cumulative bucket counts. `bounds` holds the
/// finite upper edges; `cum` has one extra trailing entry for `+Inf`.
fn quantile_from_cumulative(bounds: &[u64], cum: &[u64], q: f64) -> Option<u64> {
    let count = *cum.last()?;
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // Target rank in 1..=count (the rank-th smallest observation).
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let idx = cum.iter().position(|c| *c >= rank)?;
    if idx >= bounds.len() {
        // +Inf bucket: saturate at the last finite edge.
        return Some(bounds.last().copied().unwrap_or(u64::MAX));
    }
    let lower = if idx == 0 { 0 } else { bounds[idx - 1] };
    let upper = bounds[idx];
    let below = if idx == 0 { 0 } else { cum[idx - 1] };
    let in_bucket = cum[idx] - below;
    if in_bucket == 0 {
        return Some(upper);
    }
    // Interpolate the rank's position across the bucket's value range.
    let frac = (rank - below) as f64 / in_bucket as f64;
    Some(lower + ((upper - lower) as f64 * frac).round() as u64)
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A named collection of metrics.
///
/// Append-only: a metric, once registered, lives for the registry's
/// lifetime, so handles handed out by the `counter`/`gauge`/`histogram`
/// accessors stay valid forever.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter named `name`, registering it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind (a
    /// programming error worth failing loudly on).
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Returns the histogram named `name`, registering it with `bounds` on
    /// first use (later calls ignore `bounds` — first registration wins).
    pub fn histogram(&self, name: &str, bounds: &[u64]) -> Histogram {
        let mut m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        match m.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Renders every metric in Prometheus text exposition format, in
    /// deterministic (name-sorted) order.
    pub fn render(&self) -> String {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut out = String::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {}", c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {}", g.get());
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cum = 0u64;
                    for (bound, bucket) in h.0.bounds.iter().zip(&h.0.buckets) {
                        cum += bucket.load(Ordering::Relaxed);
                        let _ = writeln!(out, "{name}_bucket{{le=\"{bound}\"}} {cum}");
                    }
                    cum += h.0.buckets[h.0.bounds.len()].load(Ordering::Relaxed);
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cum}");
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }

    /// Flattens every metric into `key -> value` pairs. Histograms expand
    /// to `name_bucket{le="B"}` (cumulative), `name_sum`, and `name_count`.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut values = BTreeMap::new();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    values.insert(name.clone(), c.get());
                }
                Metric::Gauge(g) => {
                    values.insert(name.clone(), g.get());
                }
                Metric::Histogram(h) => {
                    let mut cum = 0u64;
                    for (bound, bucket) in h.0.bounds.iter().zip(&h.0.buckets) {
                        cum += bucket.load(Ordering::Relaxed);
                        values.insert(format!("{name}_bucket{{le=\"{bound}\"}}"), cum);
                    }
                    cum += h.0.buckets[h.0.bounds.len()].load(Ordering::Relaxed);
                    values.insert(format!("{name}_bucket{{le=\"+Inf\"}}"), cum);
                    values.insert(format!("{name}_sum"), h.sum());
                    values.insert(format!("{name}_count"), h.count());
                }
            }
        }
        Snapshot { values }
    }
}

/// A point-in-time flattening of a [`Registry`] (or a delta between two).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Flattened `metric key -> value` pairs, name-sorted.
    pub values: BTreeMap<String, u64>,
}

/// True when `key` names a value that is a pure function of the workload
/// (as opposed to wall-clock time). The `_ns`/`_ms` naming convention
/// decides: plain `_ns`/`_ms` counters and the `_sum`/`_bucket` series of
/// `_ns`/`_ms` histograms are wall-clock; an `_ns_count`/`_ms_count` (how
/// many timings were taken) is deterministic.
fn is_deterministic(key: &str) -> bool {
    !(key.ends_with("_ns")
        || key.contains("_ns_sum")
        || key.contains("_ns_bucket{")
        || key.ends_with("_ms")
        || key.contains("_ms_sum")
        || key.contains("_ms_bucket{"))
}

impl Snapshot {
    /// The value recorded for `key` (0 if absent).
    pub fn get(&self, key: &str) -> u64 {
        self.values.get(key).copied().unwrap_or(0)
    }

    /// Per-key difference `self - earlier` (wrapping, so counter wraparound
    /// between the snapshots still yields the true delta). Keys absent from
    /// `earlier` count from zero.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let values =
            self.values.iter().map(|(k, v)| (k.clone(), v.wrapping_sub(earlier.get(k)))).collect();
        Snapshot { values }
    }

    /// Estimated `q`-quantile of the histogram named `metric`,
    /// reconstructed from this snapshot's `metric_bucket{le="..."}` keys
    /// (which works on deltas too — differences of cumulative buckets are
    /// cumulative). `None` when the histogram is absent or empty. Same
    /// interpolation and `+Inf` saturation as [`Histogram::quantile`].
    pub fn quantile(&self, metric: &str, q: f64) -> Option<u64> {
        let prefix = format!("{metric}_bucket{{le=\"");
        let mut finite: Vec<(u64, u64)> = Vec::new();
        let mut inf: Option<u64> = None;
        for (k, v) in &self.values {
            let Some(rest) = k.strip_prefix(&prefix) else { continue };
            let Some(bound) = rest.strip_suffix("\"}") else { continue };
            if bound == "+Inf" {
                inf = Some(*v);
            } else if let Ok(b) = bound.parse::<u64>() {
                finite.push((b, *v));
            }
        }
        let inf = inf?;
        finite.sort_by_key(|(b, _)| *b);
        let bounds: Vec<u64> = finite.iter().map(|(b, _)| *b).collect();
        let mut cum: Vec<u64> = finite.iter().map(|(_, c)| *c).collect();
        cum.push(inf);
        quantile_from_cumulative(&bounds, &cum, q)
    }

    /// The standard p50/p95/p99 triple for `metric`, or `None` when the
    /// histogram is absent or empty.
    pub fn quantile_summary(&self, metric: &str) -> Option<(u64, u64, u64)> {
        Some((
            self.quantile(metric, 0.50)?,
            self.quantile(metric, 0.95)?,
            self.quantile(metric, 0.99)?,
        ))
    }

    /// Renders only the deterministic subset (see `is_deterministic`) as
    /// `key value` lines. Two runs of the same seeded workload must produce
    /// byte-identical output — the CI metrics-determinism gate diffs this.
    /// Zero values are skipped, so the text does not depend on which
    /// untouched metrics happen to be registered ([`Self::get`] reads an
    /// absent key as 0 anyway).
    pub fn deterministic_text(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.values {
            if *v != 0 && is_deterministic(k) {
                let _ = writeln!(out, "{k} {v}");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_wraps_on_overflow() {
        let r = Registry::new();
        let c = r.counter("wrap_total");
        c.add(u64::MAX - 1);
        let before = r.snapshot();
        c.add(3); // wraps past MAX
        assert_eq!(c.get(), 1);
        // The wrapping delta is still the 3 we added.
        assert_eq!(r.snapshot().delta(&before).get("wrap_total"), 3);
    }

    #[test]
    fn gauge_moves_both_ways_and_saturates() {
        let r = Registry::new();
        let g = r.gauge("conns");
        g.add(2);
        g.sub(1);
        assert_eq!(g.get(), 1);
        g.sub(5);
        assert_eq!(g.get(), 0, "gauge must saturate at zero");
        g.set(7);
        assert_eq!(g.get(), 7);
    }

    #[test]
    fn histogram_bucket_edges_are_le_inclusive() {
        let r = Registry::new();
        let h = r.histogram("sizes_bytes", &[10, 100]);
        h.observe(0); // -> le=10
        h.observe(10); // exactly on the edge -> le=10
        h.observe(11); // -> le=100
        h.observe(100); // edge -> le=100
        h.observe(101); // -> +Inf
        let s = r.snapshot();
        // Buckets are cumulative, Prometheus-style.
        assert_eq!(s.get("sizes_bytes_bucket{le=\"10\"}"), 2);
        assert_eq!(s.get("sizes_bytes_bucket{le=\"100\"}"), 4);
        assert_eq!(s.get("sizes_bytes_bucket{le=\"+Inf\"}"), 5);
        assert_eq!(s.get("sizes_bytes_count"), 5);
        assert_eq!(s.get("sizes_bytes_sum"), 222);
    }

    #[test]
    fn handles_stay_valid_and_shared() {
        let r = Registry::new();
        let a = r.counter("shared_total");
        let b = r.counter("shared_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles must hit the same atomic");
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn render_is_sorted_and_parseable() {
        let r = Registry::new();
        r.counter("b_total").add(2);
        r.counter("a_total").add(1);
        r.histogram("h_ns", &[5]).observe(3);
        let text = r.render();
        let a = text.find("a_total 1").unwrap();
        let b = text.find("b_total 2").unwrap();
        assert!(a < b, "export must be name-sorted");
        assert!(text.contains("# TYPE h_ns histogram"));
        assert!(text.contains("h_ns_bucket{le=\"5\"} 1"));
        assert!(text.contains("h_ns_bucket{le=\"+Inf\"} 1"));
    }

    #[test]
    fn deterministic_text_excludes_wall_clock_series() {
        let r = Registry::new();
        r.counter("ops_total").add(4);
        r.counter("crypto_ns").add(12345);
        let h = r.histogram("op_get_ns", &[10]);
        h.observe(7);
        let ms = r.histogram("recovery_ms", &LATENCY_BOUNDS_MS);
        ms.observe(31);
        let det = r.snapshot().deterministic_text();
        assert!(det.contains("ops_total 4"));
        assert!(det.contains("op_get_ns_count 1"), "timing counts are deterministic");
        assert!(!det.contains("crypto_ns"), "raw ns counters are wall-clock");
        assert!(!det.contains("op_get_ns_sum"));
        assert!(!det.contains("op_get_ns_bucket"));
        assert!(det.contains("recovery_ms_count 1"), "ms timing counts are deterministic");
        assert!(!det.contains("recovery_ms_sum"), "ms sums are wall-clock");
        assert!(!det.contains("recovery_ms_bucket"), "ms buckets are wall-clock");
    }

    #[test]
    fn deterministic_text_ignores_untouched_registrations() {
        let moved = |r: &Registry| {
            r.counter("ops_total").add(2);
            r.histogram("op_ns", &[10]).observe(3);
        };
        let bare = Registry::new();
        moved(&bare);
        let extra = Registry::new();
        extra.counter("untouched_total");
        extra.gauge("idle");
        extra.histogram("never_ns", &[10]);
        moved(&extra);
        let (a, b) = (bare.snapshot(), extra.snapshot());
        assert_ne!(a, b, "the second registry really holds more keys");
        assert_eq!(a.deterministic_text(), b.deterministic_text());
        assert_eq!(a.deterministic_text(), "op_ns_count 1\nops_total 2\n");
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat_ns", &[100, 200, 400]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        // 10 observations spread 8 / 2 across the first two buckets.
        for _ in 0..8 {
            h.observe(50);
        }
        for _ in 0..2 {
            h.observe(150);
        }
        // p50 -> rank 5 of 8 in bucket [0, 100]: 100 * 5/8 = 63.
        assert_eq!(h.quantile(0.50), Some(63));
        // p95 -> rank 10, second bucket [100, 200], position 2/2 -> 200.
        assert_eq!(h.quantile(0.95), Some(200));
        // Everything beyond the last edge saturates at it.
        h.observe(10_000);
        assert_eq!(h.quantile(1.0), Some(400), "+Inf saturates at last finite bound");

        // The snapshot reconstruction agrees with the live histogram.
        let s = r.snapshot();
        assert_eq!(s.quantile("lat_ns", 0.50), h.quantile(0.50));
        assert_eq!(s.quantile("lat_ns", 0.95), h.quantile(0.95));
        assert_eq!(s.quantile("lat_ns", 0.99), h.quantile(0.99));
        assert_eq!(s.quantile("absent_ns", 0.5), None);
        let (p50, p95, p99) = s.quantile_summary("lat_ns").unwrap();
        assert!(p50 <= p95 && p95 <= p99, "quantiles are monotone: {p50} {p95} {p99}");
    }

    #[test]
    fn quantiles_work_on_deltas() {
        let r = Registry::new();
        let h = r.histogram("d_ns", &[10, 100]);
        h.observe(5);
        let before = r.snapshot();
        for _ in 0..4 {
            h.observe(50);
        }
        let d = r.snapshot().delta(&before);
        // Only the 4 post-snapshot observations count: all in (10, 100].
        assert_eq!(d.quantile("d_ns", 0.5), Some(10 + (90f64 * 0.5).round() as u64));
    }

    #[test]
    fn delta_between_snapshots() {
        let r = Registry::new();
        let c = r.counter("t_total");
        c.add(5);
        let before = r.snapshot();
        c.add(2);
        r.counter("new_total").inc();
        let d = r.snapshot().delta(&before);
        assert_eq!(d.get("t_total"), 2);
        assert_eq!(d.get("new_total"), 1, "keys absent earlier count from zero");
    }
}
