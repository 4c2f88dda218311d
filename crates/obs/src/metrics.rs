//! Metrics registries: named counters, gauges and fixed-bucket
//! histograms.
//!
//! A [`Registry`] belongs to whoever builds it: a runner builds one, and
//! its clones and the job service over it register into that one, so two
//! runs in one process never read each other's counts. Metrics are
//! registered on first use ([`Registry::counter`], [`Registry::gauge`],
//! [`Registry::histogram`]) and live as long as the registry; handles
//! are `Arc`s, so hot paths update plain atomics. Every metric carries a
//! [`Class`]:
//!
//! * [`Class::Deterministic`] — counts and cycle-derived values that are
//!   byte-identical across reruns of the same work (the `runner.*` /
//!   `cache.*` / `checkpoint.*` unit accounting and the `store.*`
//!   tile-store family: `store.lookups` / `hits` / `misses` / `inserts`
//!   / `errors`).
//! * [`Class::Timing`] — wall-clock derived (exec-time histograms,
//!   utilization); excluded from the deterministic snapshot **by
//!   design** so `snapshot_json(false)` can be diffed across runs.
//!
//! [`Registry::snapshot_json`] serializes a registry as deterministic
//! JSON (names sorted, no timestamps); [`Registry::human_summary`]
//! renders the same data for terminal output under `-v`.

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Determinism class of a metric (fixed at registration).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Counts / cycle-derived values: byte-identical across reruns.
    Deterministic,
    /// Wall-clock derived: excluded from the deterministic snapshot.
    Timing,
}

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Default bucket bounds (microseconds) for time histograms; values
/// above the last bound land in the implicit `+inf` bucket.
pub const TIME_BUCKETS_US: &[u64] = &[
    10, 50, 100, 500, 1_000, 5_000, 10_000, 50_000, 100_000, 1_000_000,
];

/// A fixed-bucket histogram over `u64` samples, tracking per-bucket
/// counts plus count/sum/min/max.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    /// An empty histogram over `bounds`, outside any registry: a
    /// worker's own tally, for example, which it [`merge`](Self::merge)s
    /// into a registered one when it is done.
    ///
    /// # Panics
    ///
    /// Panics unless `bounds` is strictly increasing.
    #[must_use]
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Smallest recorded sample (0 when empty).
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count() == 0 {
            0
        } else {
            self.min.load(Ordering::Relaxed)
        }
    }

    /// Largest recorded sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// Estimated value at quantile `q` (clamped to `0.0..=1.0`), derived
    /// from the cumulative bucket counts: the upper bound of the first
    /// bucket whose cumulative count reaches `ceil(q * count)` (at least
    /// the first sample), capped at [`Histogram::max`] so a sparse top
    /// bucket never reports a value larger than anything observed.
    /// Samples in the `+inf` overflow bucket report [`Histogram::max`]
    /// (the histogram has no finite bound there). `0` when empty.
    #[must_use]
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return match self.bounds.get(i) {
                    Some(&bound) => bound.min(self.max()),
                    None => self.max(),
                };
            }
        }
        self.max()
    }

    /// Median estimate ([`Histogram::quantile`] at 0.5).
    #[must_use]
    pub fn p50(&self) -> u64 {
        self.quantile(0.5)
    }

    /// 90th-percentile estimate.
    #[must_use]
    pub fn p90(&self) -> u64 {
        self.quantile(0.9)
    }

    /// 99th-percentile estimate.
    #[must_use]
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Folds `other`'s samples into `self`: bucket counts, count and sum
    /// add; min/max take the extremes. Because bucketing loses nothing a
    /// merge can recover, the result is indistinguishable from having
    /// recorded both sample streams into one histogram — quantiles of
    /// the merge equal quantiles of the concatenation exactly. Merging
    /// an empty histogram is a no-op (its min is the `u64::MAX` sentinel,
    /// so `fetch_min` leaves `self` untouched).
    ///
    /// # Panics
    ///
    /// Panics if the two histograms have different bucket bounds —
    /// bucket-wise addition would silently misbin otherwise.
    pub fn merge(&self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different bucket bounds"
        );
        for (dst, src) in self.buckets.iter().zip(other.buckets.iter()) {
            dst.fetch_add(src.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.count
            .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.min
            .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max
            .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    fn to_json(&self) -> String {
        let mut buckets = Vec::with_capacity(self.buckets.len());
        for (i, b) in self.buckets.iter().enumerate() {
            let le = self
                .bounds
                .get(i)
                .map_or_else(|| "\"+inf\"".to_string(), u64::to_string);
            buckets.push(format!(
                "{{\"le\":{le},\"count\":{}}}",
                b.load(Ordering::Relaxed)
            ));
        }
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[{}]}}",
            self.count(),
            self.sum(),
            self.min(),
            self.max(),
            self.p50(),
            self.p90(),
            self.p99(),
            buckets.join(",")
        )
    }
}

#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

#[derive(Debug)]
struct Entry {
    class: Class,
    metric: Metric,
}

/// A set of named metrics. Cloning shares it: every clone registers
/// into, and reads, the same metrics.
#[derive(Clone, Debug, Default)]
pub struct Registry(Arc<Mutex<BTreeMap<String, Entry>>>);

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    fn entries(&self) -> MutexGuard<'_, BTreeMap<String, Entry>> {
        // Every update under the lock is one map insert, so a poisoned
        // lock still guards a valid map.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The metric named `name`, registered by `make` with `class` if it
    /// is not there yet. The class is fixed by the first registration.
    fn register(&self, name: &str, class: Class, make: impl FnOnce() -> Metric) -> Metric {
        let mut entries = self.entries();
        if let Some(entry) = entries.get(name) {
            return entry.metric.clone();
        }
        let metric = make();
        entries.insert(
            name.to_string(),
            Entry {
                class,
                metric: metric.clone(),
            },
        );
        metric
    }

    /// Gets or registers the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn counter(&self, name: &str, class: Class) -> Arc<Counter> {
        match self.register(name, class, || Metric::Counter(Arc::default())) {
            Metric::Counter(c) => c,
            _ => panic!("metric '{name}' is not a counter"),
        }
    }

    /// Gets or registers the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric type.
    #[must_use]
    pub fn gauge(&self, name: &str, class: Class) -> Arc<Gauge> {
        match self.register(name, class, || Metric::Gauge(Arc::default())) {
            Metric::Gauge(g) => g,
            _ => panic!("metric '{name}' is not a gauge"),
        }
    }

    /// Gets or registers the histogram `name` with the given bucket
    /// bounds (used only on first registration).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type, or if `bounds` is not strictly increasing.
    #[must_use]
    pub fn histogram(&self, name: &str, class: Class, bounds: &'static [u64]) -> Arc<Histogram> {
        match self.register(name, class, || {
            Metric::Histogram(Arc::new(Histogram::new(bounds)))
        }) {
            Metric::Histogram(h) => h,
            _ => panic!("metric '{name}' is not a histogram"),
        }
    }

    /// Reads the current value of a counter *without registering it*:
    /// `None` if `name` has never been registered (or is not a counter).
    /// Passive consumers like the progress reporter use this so that
    /// observing a metric can never change the set of registered names —
    /// and therefore can never change a metrics snapshot.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match &self.entries().get(name)?.metric {
            Metric::Counter(c) => Some(c.get()),
            _ => None,
        }
    }

    /// Serializes the registry as deterministic JSON: metric names
    /// sorted, grouped by type. With `include_timing == false`,
    /// [`Class::Timing`] metrics are omitted entirely, so the result is
    /// byte-identical across reruns of the same (deterministic) work.
    #[must_use]
    pub fn snapshot_json(&self, include_timing: bool) -> String {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, entry) in self.entries().iter() {
            if !include_timing && entry.class == Class::Timing {
                continue;
            }
            let key = format!("\"{}\"", json::escape(name));
            match &entry.metric {
                Metric::Counter(c) => counters.push(format!("{key}:{}", c.get())),
                Metric::Gauge(g) => gauges.push(format!("{key}:{}", json::fmt_f64(g.get()))),
                Metric::Histogram(h) => histograms.push(format!("{key}:{}", h.to_json())),
            }
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            counters.join(","),
            gauges.join(","),
            histograms.join(",")
        )
    }

    /// Renders the registry as an indented, human-readable summary (for
    /// the CLI's `-v` output).
    #[must_use]
    pub fn human_summary(&self) -> String {
        let mut out = String::from("telemetry summary:\n");
        for (name, entry) in self.entries().iter() {
            match &entry.metric {
                Metric::Counter(c) => out.push_str(&format!("  {name:<28} {}\n", c.get())),
                Metric::Gauge(g) => out.push_str(&format!("  {name:<28} {:.4}\n", g.get())),
                Metric::Histogram(h) => out.push_str(&format!(
                    "  {name:<28} n={} sum={} min={} max={} p50={} p90={} p99={}\n",
                    h.count(),
                    h.sum(),
                    h.min(),
                    h.max(),
                    h.p50(),
                    h.p90(),
                    h.p99()
                )),
            }
        }
        out
    }

    /// Renders the whole registry (both classes) in the Prometheus text
    /// exposition format, version 0.0.4: one `# TYPE` line per family,
    /// then its samples. Counters and gauges are one sample each;
    /// histograms expose cumulative `_bucket{le="..."}` samples (ending
    /// at `le="+Inf"`), `_sum`, and `_count`. Families appear in sorted
    /// name order, so the output is stable given stable metric values.
    #[must_use]
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, entry) in self.entries().iter() {
            let fam = prometheus_name(name);
            match &entry.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("# TYPE {fam} counter\n{fam} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!(
                        "# TYPE {fam} gauge\n{fam} {}\n",
                        prometheus_f64(g.get())
                    ));
                }
                Metric::Histogram(h) => {
                    out.push_str(&format!("# TYPE {fam} histogram\n"));
                    let mut cumulative = 0u64;
                    for (i, b) in h.buckets.iter().enumerate() {
                        cumulative += b.load(Ordering::Relaxed);
                        let le = h
                            .bounds
                            .get(i)
                            .map_or_else(|| "+Inf".to_string(), u64::to_string);
                        out.push_str(&format!("{fam}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{fam}_sum {}\n", h.sum()));
                    out.push_str(&format!("{fam}_count {}\n", h.count()));
                }
            }
        }
        out
    }
}

/// The Prometheus text of an empty registry. Metrics live in the
/// registry of the runner or service that counts them: render that one
/// with [`Registry::prometheus_text`]. Kept so existing callers of the
/// free function still build.
#[must_use]
pub fn prometheus_text() -> String {
    Registry::new().prometheus_text()
}

/// A metric name as a Prometheus metric family name: every character
/// outside `[a-zA-Z0-9_]` becomes `_`, with an `eureka_` namespace
/// prefix (`service.queue_wait_us.completed` →
/// `eureka_service_queue_wait_us_completed`).
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 7);
    out.push_str("eureka_");
    for ch in name.chars() {
        out.push(if ch.is_ascii_alphanumeric() || ch == '_' {
            ch
        } else {
            '_'
        });
    }
    out
}

/// An `f64` in Prometheus sample syntax (`NaN` / `+Inf` / `-Inf` spelled
/// out, unlike JSON).
fn prometheus_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        (if v > 0.0 { "+Inf" } else { "-Inf" }).to_string()
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reregistration_returns_the_same_cell() {
        let reg = Registry::new();
        let c = reg.counter("test.counter", Class::Deterministic);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(reg.counter("test.counter", Class::Deterministic).get(), 5);
        // A registry's clone shares its metrics; another registry does not.
        assert_eq!(reg.clone().counter_value("test.counter"), Some(5));
        assert_eq!(Registry::new().counter_value("test.counter"), None);
    }

    #[test]
    fn gauges_hold_last_value() {
        let g = Registry::new().gauge("test.gauge", Class::Timing);
        g.set(0.75);
        assert!((g.get() - 0.75).abs() < 1e-12);
        g.set(0.25);
        assert!((g.get() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn histograms_bucket_and_summarize() {
        let h = Registry::new().histogram("test.hist", Class::Timing, &[10, 100]);
        assert_eq!((h.min(), h.max()), (0, 0), "empty extremes read 0");
        h.record(5);
        h.record(50);
        h.record(500);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 555);
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 500);
        let json = h.to_json();
        assert!(json.contains("\"buckets\":[{\"le\":10,\"count\":1},{\"le\":100,\"count\":1},{\"le\":\"+inf\",\"count\":1}]"), "{json}");
        assert!(
            json.contains(&format!(
                "\"p50\":{},\"p90\":{},\"p99\":{}",
                h.p50(),
                h.p90(),
                h.p99()
            )),
            "snapshot exports quantiles: {json}"
        );
    }

    #[test]
    fn histogram_quantiles_empty_histogram_is_zero() {
        let h = Histogram::new(&[10, 100]);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p90(), 0);
        assert_eq!(h.p99(), 0);
    }

    #[test]
    fn histogram_quantiles_honor_exact_bucket_boundaries() {
        let h = Histogram::new(&[10, 100, 1000]);
        // A sample exactly on a bound lands in that bucket (le semantics).
        h.record(10);
        h.record(10);
        h.record(10);
        assert_eq!(h.p50(), 10);
        assert_eq!(h.p99(), 10);
        // One sample per bucket: quantiles walk the cumulative counts.
        let h = Histogram::new(&[10, 100, 1000]);
        h.record(5);
        h.record(50);
        h.record(500);
        assert_eq!(h.quantile(0.0), 10, "rank is at least the first sample");
        assert_eq!(h.p50(), 100, "rank 2 of 3 falls in the le=100 bucket");
        // The top bucket's bound (1000) is capped at the observed max.
        assert_eq!(h.p99(), 500);
        assert_eq!(h.quantile(1.0), 500);
    }

    #[test]
    fn histogram_quantiles_report_max_for_overflow_bucket() {
        let h = Histogram::new(&[10, 100]);
        h.record(5);
        h.record(5_000); // beyond the last bound: +inf bucket
        assert_eq!(h.quantile(0.25), 10);
        assert_eq!(h.p99(), 5_000, "overflow hits report the observed max");
        // All samples in overflow: every quantile is the max.
        let h = Histogram::new(&[10]);
        h.record(700);
        h.record(900);
        assert_eq!(h.p50(), 900);
        assert_eq!(h.p99(), 900);
    }

    #[test]
    fn snapshot_sorts_names_and_filters_timing() {
        let reg = Registry::new();
        reg.counter("test.z_det", Class::Deterministic).inc();
        reg.counter("test.a_det", Class::Deterministic).inc();
        reg.gauge("test.timing_gauge", Class::Timing).set(1.0);
        let full = reg.snapshot_json(true);
        let det = reg.snapshot_json(false);
        assert!(full.contains("test.timing_gauge"));
        assert!(!det.contains("test.timing_gauge"));
        let a = det.find("test.a_det").expect("a present");
        let z = det.find("test.z_det").expect("z present");
        assert!(a < z, "names sorted");
        assert_eq!(
            det,
            "{\"counters\":{\"test.a_det\":1,\"test.z_det\":1},\"gauges\":{},\"histograms\":{}}"
        );
    }

    #[test]
    fn counter_value_reads_without_registering() {
        let reg = Registry::new();
        assert_eq!(reg.counter_value("test.never_registered"), None);
        reg.counter("test.cv", Class::Deterministic).add(3);
        assert_eq!(reg.counter_value("test.cv"), Some(3));
        reg.gauge("test.cv_gauge", Class::Timing).set(1.0);
        assert_eq!(reg.counter_value("test.cv_gauge"), None);
        // The failed lookup above must not have registered the name.
        assert!(!reg.snapshot_json(true).contains("test.never_registered"));
    }

    #[test]
    fn human_summary_lists_metrics() {
        let reg = Registry::new();
        reg.counter("test.summary", Class::Deterministic).add(2);
        let s = reg.human_summary();
        assert!(s.starts_with("telemetry summary:"));
        assert!(s.contains("test.summary"));
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn type_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("test.mismatch", Class::Deterministic);
        let _ = reg.gauge("test.mismatch", Class::Deterministic);
    }

    #[test]
    fn merge_folds_buckets_and_extremes() {
        let a = Histogram::new(&[10, 100]);
        let b = Histogram::new(&[10, 100]);
        a.record(5);
        a.record(50);
        b.record(7);
        b.record(5_000); // overflow bucket
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 5_062);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 5_000);
        assert_eq!(a.buckets[0].load(Ordering::Relaxed), 2, "le=10");
        assert_eq!(a.buckets[1].load(Ordering::Relaxed), 1, "le=100");
        assert_eq!(a.buckets[2].load(Ordering::Relaxed), 1, "+inf overflow");
        // `b` is untouched by the merge.
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn merge_with_empty_is_a_no_op_in_both_directions() {
        let full = Histogram::new(&[10, 100]);
        full.record(42);
        let empty = Histogram::new(&[10, 100]);
        full.merge(&empty);
        assert_eq!(full.count(), 1);
        assert_eq!(full.min(), 42, "empty min sentinel must not clobber");
        assert_eq!(full.max(), 42);
        empty.merge(&full);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.min(), 42);
        assert_eq!(empty.p50(), full.p50());
    }

    #[test]
    #[should_panic(expected = "different bucket bounds")]
    fn merge_rejects_mismatched_bounds() {
        let a = Histogram::new(&[10, 100]);
        let b = Histogram::new(&[10, 1000]);
        a.merge(&b);
    }

    mod merge_properties {
        use super::*;
        use proptest::prelude::*;

        /// Sample values spanning every bucket of [`TIME_BUCKETS_US`],
        /// including the overflow region past the last bound.
        fn sample() -> impl Strategy<Value = u64> {
            0u64..2_000_000
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Quantiles of `merge(a, b)` equal quantiles of one
            /// histogram fed the concatenated samples — exactly, since
            /// bucketing discards nothing a merge could recover.
            #[test]
            fn merged_quantiles_equal_concatenated_quantiles(
                xs in prop::collection::vec(sample(), 0..40),
                ys in prop::collection::vec(sample(), 0..40),
                q_millis in 0u64..=1000,
            ) {
                #[allow(clippy::cast_precision_loss)]
                let q = q_millis as f64 / 1000.0;
                let a = Histogram::new(TIME_BUCKETS_US);
                let b = Histogram::new(TIME_BUCKETS_US);
                let concat = Histogram::new(TIME_BUCKETS_US);
                for &x in &xs {
                    a.record(x);
                    concat.record(x);
                }
                for &y in &ys {
                    b.record(y);
                    concat.record(y);
                }
                a.merge(&b);
                prop_assert_eq!(a.count(), concat.count());
                prop_assert_eq!(a.sum(), concat.sum());
                prop_assert_eq!(a.min(), concat.min());
                prop_assert_eq!(a.max(), concat.max());
                prop_assert_eq!(a.quantile(q), concat.quantile(q));
                prop_assert_eq!(a.p50(), concat.p50());
                prop_assert_eq!(a.p90(), concat.p90());
                prop_assert_eq!(a.p99(), concat.p99());
            }

            /// Merging any histogram with an empty one changes nothing,
            /// even when every sample sits in the overflow bucket.
            #[test]
            fn merge_with_empty_preserves_everything(
                xs in prop::collection::vec(1_000_001u64..10_000_000, 1..20),
            ) {
                let h = Histogram::new(TIME_BUCKETS_US);
                for &x in &xs {
                    h.record(x); // all overflow: past the last bound
                }
                let (p50, p99, min, max) = (h.p50(), h.p99(), h.min(), h.max());
                h.merge(&Histogram::new(TIME_BUCKETS_US));
                prop_assert_eq!(h.count(), xs.len() as u64);
                prop_assert_eq!(h.p50(), p50);
                prop_assert_eq!(h.p99(), p99);
                prop_assert_eq!(h.min(), min);
                prop_assert_eq!(h.max(), max);
                prop_assert_eq!(h.p99(), max, "overflow quantiles report the max");
            }
        }
    }

    #[test]
    fn prometheus_names_are_sanitized_and_namespaced() {
        assert_eq!(
            prometheus_name("service.queue_wait_us.completed"),
            "eureka_service_queue_wait_us_completed"
        );
        assert_eq!(prometheus_name("store.hits"), "eureka_store_hits");
    }

    #[test]
    fn prometheus_text_exposes_counters_gauges_and_histograms() {
        let reg = Registry::new();
        reg.counter("test.prom_counter", Class::Deterministic)
            .add(7);
        reg.gauge("test.prom_gauge", Class::Timing).set(0.5);
        let h = reg.histogram("test.prom_hist", Class::Timing, &[10, 100]);
        h.record(5);
        h.record(50);
        h.record(5_000);
        let text = reg.prometheus_text();
        assert!(
            text.contains("# TYPE eureka_test_prom_counter counter\neureka_test_prom_counter 7\n")
        );
        assert!(text.contains("# TYPE eureka_test_prom_gauge gauge\neureka_test_prom_gauge 0.5\n"));
        assert!(text.contains("# TYPE eureka_test_prom_hist histogram\n"));
        assert!(text.contains("eureka_test_prom_hist_bucket{le=\"10\"} 1\n"));
        assert!(
            text.contains("eureka_test_prom_hist_bucket{le=\"100\"} 2\n"),
            "bucket samples are cumulative: {text}"
        );
        assert!(text.contains("eureka_test_prom_hist_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("eureka_test_prom_hist_sum 5055\n"));
        assert!(text.contains("eureka_test_prom_hist_count 3\n"));
        assert!(text.ends_with('\n'));
        assert_eq!(
            prometheus_text(),
            "",
            "the free function renders no registry"
        );
    }

    #[test]
    fn prometheus_f64_spells_out_non_finite_values() {
        assert_eq!(prometheus_f64(1.5), "1.5");
        assert_eq!(prometheus_f64(3.0), "3");
        assert_eq!(prometheus_f64(f64::NAN), "NaN");
        assert_eq!(prometheus_f64(f64::INFINITY), "+Inf");
        assert_eq!(prometheus_f64(f64::NEG_INFINITY), "-Inf");
    }
}
