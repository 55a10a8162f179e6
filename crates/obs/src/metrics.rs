//! Counters, streaming histograms, span timers and the global registry.
//!
//! Everything here is designed for hot paths inside the parallel runner
//! and the measurement memo: recording is atomics-only (no locks,
//! no allocation), and the registry lock is taken only on the *first*
//! use of each metric name (entries are leaked to `&'static`, so repeat
//! lookups can be cached by the caller or resolved through one short
//! map probe).
//!
//! Instrumentation is observational by contract: it must never perturb
//! experiment results. The [`enabled`] gate (default on, `VARDELAY_OBS=0`
//! or [`set_enabled`]`(false)` to disable) exists so the determinism
//! tests can assert byte-identical CSVs with spans/counters on and off.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Enable gate
// ---------------------------------------------------------------------------

/// 0 = undecided (read env on first query), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether instrumentation records anything. Defaults to **on**;
/// `VARDELAY_OBS=0` (or `off`/`false`) in the environment disables it,
/// and [`set_enabled`] overrides either way at runtime.
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = !matches!(
                std::env::var("VARDELAY_OBS").as_deref(),
                Ok("0") | Ok("off") | Ok("false")
            );
            ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// Forces instrumentation on or off, overriding the environment. Meant
/// for tests (the determinism suite flips it both ways) and for callers
/// that must guarantee a quiet registry.
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A named monotonic counter (wrapping add; `u64` will not wrap in any
/// realistic run).
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (registry use; prefer [`counter`]).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds 1 (no-op while [`enabled`] is off).
    pub fn incr(&self) {
        self.add(1);
    }

    /// Adds `n` (no-op while [`enabled`] is off).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter (tests and between-run resets).
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

/// Bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`; bucket 0 holds `0`.
const BUCKETS: usize = 65;

/// A streaming log₂-bucketed histogram of non-negative integers
/// (microseconds by convention — suffix metric names with `_us`).
///
/// Recording is a handful of relaxed atomic ops; quantiles are
/// approximate (bucket upper bound, i.e. within 2× of the true value),
/// which is the right fidelity for spotting scheduling imbalance and
/// cache-miss cost without a lock or a sorted reservoir.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

/// A point-in-time digest of one [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Mean sample (0.0 when empty).
    pub mean: f64,
    /// Approximate median (bucket upper bound).
    pub p50: u64,
    /// Approximate 99th percentile (bucket upper bound).
    pub p99: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram (registry use; prefer [`histogram`]).
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn bucket_index(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Upper bound of bucket `i` (inclusive), used for quantile reads.
    fn bucket_upper(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one sample (no-op while [`enabled`] is off).
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.buckets[Self::bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Approximate `q`-quantile (`0.0 ..= 1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `q · count`. Returns 0
    /// for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time digest (not atomic across fields — counters may
    /// advance between reads; fine for reporting).
    pub fn summary(&self) -> HistogramSummary {
        let count = self.count();
        let sum = self.sum();
        HistogramSummary {
            count,
            sum,
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            p50: self.quantile(0.50),
            p99: self.quantile(0.99),
        }
    }

    /// Empties the histogram (tests and between-run resets).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.min.store(u64::MAX, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// The process-wide metric registry: name → leaked `&'static` metric.
///
/// Names are dot-separated, lowercase, with a `_us` suffix for
/// microsecond histograms (`runner.batch_us`, `analog.cache_hits`). The
/// set of distinct names is small and fixed, so leaking each metric once
/// is bounded and makes the hot path borrow-free.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` for every counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// `(name, digest)` for every histogram, name-sorted.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl Registry {
    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().expect("obs counter registry lock");
        if let Some(c) = map.get(name) {
            return c;
        }
        let leaked: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("obs histogram registry lock");
        if let Some(h) = map.get(name) {
            return h;
        }
        let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self
                .counters
                .lock()
                .expect("obs counter registry lock")
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("obs histogram registry lock")
                .iter()
                .map(|(n, h)| (n.clone(), h.summary()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (tests).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("obs counter registry lock")
            .values()
        {
            c.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("obs histogram registry lock")
            .values()
        {
            h.reset();
        }
    }
}

/// The global [`Registry`].
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Shorthand for [`registry()`]`.counter(name)`.
pub fn counter(name: &str) -> &'static Counter {
    registry().counter(name)
}

/// Shorthand for [`registry()`]`.histogram(name)`.
pub fn histogram(name: &str) -> &'static Histogram {
    registry().histogram(name)
}

/// Shorthand for [`registry()`]`.snapshot()`.
pub fn snapshot() -> Snapshot {
    registry().snapshot()
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A microsecond span timer: created by [`span`], records its elapsed
/// time into the named histogram when dropped. While [`enabled`] is off
/// the span is inert (no clock read, nothing recorded).
#[derive(Debug)]
pub struct Span {
    target: Option<(&'static Histogram, Instant)>,
}

impl Span {
    /// Microseconds since the span started (0 when instrumentation is
    /// off).
    pub fn elapsed_us(&self) -> u64 {
        self.target
            .as_ref()
            .map_or(0, |(_, start)| start.elapsed().as_micros() as u64)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((histo, start)) = self.target.take() {
            histo.record(start.elapsed().as_micros() as u64);
        }
    }
}

/// Starts a span that records its duration (µs) into `histogram(name)`
/// on drop.
pub fn span(name: &str) -> Span {
    Span {
        target: enabled().then(|| (histogram(name), Instant::now())),
    }
}

impl fmt::Display for Snapshot {
    /// Human-readable block, one metric per line (used by `repro`'s
    /// `--metrics` style output).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, value) in &self.counters {
            writeln!(f, "{name} = {value}")?;
        }
        for (name, s) in &self.histograms {
            writeln!(
                f,
                "{name}: n={} mean={:.1} min={} p50~{} p99~{} max={}",
                s.count, s.mean, s.min, s.p50, s.p99, s.max
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set_enabled` is process-global, so tests that flip it (or that
    /// assert on recorded values) must not interleave.
    static GATE: Mutex<()> = Mutex::new(());

    fn gate() -> std::sync::MutexGuard<'static, ()> {
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn counters_register_and_count() {
        let _g = gate();
        set_enabled(true);
        let c = counter("test.metrics.counter_a");
        let before = c.get();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), before + 5);
        // Same name resolves to the same counter.
        assert_eq!(counter("test.metrics.counter_a").get(), before + 5);
    }

    #[test]
    fn disabled_gate_mutes_recording() {
        let _g = gate();
        set_enabled(true);
        let c = counter("test.metrics.gated");
        let h = histogram("test.metrics.gated_us");
        set_enabled(false);
        c.incr();
        h.record(100);
        set_enabled(true);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        c.incr();
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let _g = gate();
        set_enabled(true);
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 7);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1_000_000);
        assert_eq!(s.sum, 1_001_106);
        // p50 lands in the bucket holding the 4th sample (value 3).
        assert!(s.p50 >= 3 && s.p50 < 8, "p50 {}", s.p50);
        // p99 is the max-most bucket, clamped to the observed max.
        assert_eq!(s.p99, 1_000_000);
    }

    #[test]
    fn histogram_empty_is_zeroed() {
        let s = Histogram::new().summary();
        assert_eq!(
            s,
            HistogramSummary {
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                mean: 0.0,
                p50: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn span_records_on_drop() {
        let _g = gate();
        set_enabled(true);
        let h = histogram("test.metrics.span_us");
        let before = h.count();
        {
            let _s = span("test.metrics.span_us");
        }
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn snapshot_lists_registered_metrics() {
        let _g = gate();
        set_enabled(true);
        counter("test.metrics.snap").incr();
        histogram("test.metrics.snap_us").record(5);
        let snap = snapshot();
        assert!(snap.counters.iter().any(|(n, _)| n == "test.metrics.snap"));
        assert!(snap
            .histograms
            .iter()
            .any(|(n, _)| n == "test.metrics.snap_us"));
        let text = snap.to_string();
        assert!(text.contains("test.metrics.snap"));
    }

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }
}
