//! The measurement memo: every fine-line delay measurement, memoized
//! point by point (DESIGN.md §7a).
//!
//! Calibration points, `delay_range` endpoints, sentinel probes and the
//! cells of a characterized [`DelayTable`](crate::DelayTable) all measure
//! one pure function of (quiet model fingerprint, per-stage control
//! voltages, toggle interval). [`measure_point`] never measures a
//! resident key twice, so a hit is byte-identical to a re-measurement.
//! The memo is bounded ([`MEMO_CAP`]) and single-flight: the map lock is
//! held only to fetch or insert a per-key slot, and racing callers of one
//! key block on that slot instead of measuring it twice.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use vardelay_measure::MeasureDelayError;
use vardelay_obs as obs;
use vardelay_units::{Time, Voltage};

/// Most points the process-wide memo holds. A point is one 24-bit
/// waveform measurement (~4 ms); 65,536 of them is about four minutes of
/// measurement and a few MiB of keys, which bounds a long-running server
/// that keeps recalibrating drifted configurations.
pub const MEMO_CAP: usize = 65_536;

/// What one measurement reads, as exact bits: the quiet model
/// fingerprint, the clamped per-stage control voltages and the toggle
/// interval. Two keys are equal only when every bit is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PointKey {
    model: u64,
    vctrls: Box<[u64]>,
    interval: u64,
}

impl PointKey {
    /// The key of a measurement of the model fingerprinted `model` with
    /// stage controls `stage_vctrls` at toggle interval `interval`.
    pub fn new(model: u64, stage_vctrls: &[Voltage], interval: Time) -> Self {
        PointKey {
            model,
            vctrls: stage_vctrls.iter().map(|v| v.as_v().to_bits()).collect(),
            interval: interval.as_s().to_bits(),
        }
    }
}

/// A memoized measurement: the delay, or why none could be paired.
pub type PointResult = Result<Time, MeasureDelayError>;

type Slot = Arc<OnceLock<PointResult>>;

/// Hit, miss and single-flight-wait counts of a [`PointMemo`]. A miss is
/// counted once per measurement, not once per caller: a caller that
/// blocked on another thread's in-flight measurement of the same key is
/// a wait.
#[derive(Debug, Clone, Copy)]
pub struct MemoStats {
    /// Lookups answered from a finished measurement.
    pub hits: u64,
    /// Measurements run.
    pub misses: u64,
    /// Lookups that waited for another caller's measurement.
    pub single_flight_waits: u64,
}

#[derive(Default)]
struct Entries {
    slots: HashMap<PointKey, Slot>,
    /// Insertion order, oldest first: the eviction queue.
    order: VecDeque<PointKey>,
}

/// A bounded single-flight memo of point measurements. The process uses
/// one, [`PointMemo::global`]; tests build small ones to check eviction.
pub struct PointMemo {
    cap: usize,
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    /// Whether counts are mirrored to the `analog.cache_*` obs counters
    /// (the global memo only).
    publish: bool,
}

impl PointMemo {
    /// An empty memo holding at most `cap` points.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "a memo must hold at least one point");
        PointMemo {
            cap,
            entries: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            publish: false,
        }
    }

    /// The process-wide memo, holding at most [`MEMO_CAP`] points.
    pub fn global() -> &'static PointMemo {
        static GLOBAL: OnceLock<PointMemo> = OnceLock::new();
        GLOBAL.get_or_init(|| PointMemo {
            publish: true,
            ..PointMemo::new(MEMO_CAP)
        })
    }

    /// The result for `key`, running `measure` only if no finished or
    /// in-flight measurement of `key` is resident.
    pub fn get_or_measure(
        &self,
        key: PointKey,
        measure: impl FnOnce() -> PointResult,
    ) -> PointResult {
        let slot = self.slot(key);
        if let Some(result) = slot.get() {
            self.count(&self.hits, "analog.cache_hits");
            return result.clone();
        }
        let mut measured_here = false;
        let result = slot.get_or_init(|| {
            measured_here = true;
            self.count(&self.misses, "analog.cache_misses");
            let _span = obs::span("analog.memo_miss_us");
            measure()
        });
        if !measured_here {
            self.count(&self.waits, "analog.single_flight_waits");
        }
        result.clone()
    }

    /// Fetches or inserts the slot of `key`, evicting the oldest point
    /// when full. Only this map operation runs under the lock.
    fn slot(&self, key: PointKey) -> Slot {
        let mut entries = self.entries.lock().expect("memo map lock");
        if let Some(slot) = entries.slots.get(&key) {
            return Arc::clone(slot);
        }
        if entries.slots.len() >= self.cap {
            if let Some(oldest) = entries.order.pop_front() {
                entries.slots.remove(&oldest);
            }
        }
        let slot = Slot::default();
        entries.order.push_back(key.clone());
        entries.slots.insert(key, Arc::clone(&slot));
        slot
    }

    fn count(&self, stat: &AtomicU64, metric: &str) {
        stat.fetch_add(1, Ordering::Relaxed);
        if self.publish {
            obs::counter(metric).incr();
        }
    }

    /// Points currently resident (finished or in flight).
    pub fn len(&self) -> usize {
        self.entries.lock().expect("memo map lock").slots.len()
    }

    /// Whether no point is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Forgets every point (counts keep running). Callers already
    /// waiting on an in-flight measurement keep their slot and finish
    /// normally; only later lookups start cold.
    pub fn clear(&self) {
        let mut entries = self.entries.lock().expect("memo map lock");
        entries.slots.clear();
        entries.order.clear();
    }

    /// Hit, miss and wait counts since the memo was built.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            single_flight_waits: self.waits.load(Ordering::Relaxed),
        }
    }
}

/// 0 = undecided (read the environment on first use), 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

/// Whether `VARDELAY_NO_CACHE` set to `raw` leaves the memo on: unset,
/// `0`, `off` and `false` do; any other value turns it off.
fn enabled_for(raw: Option<&str>) -> bool {
    matches!(raw, None | Some("0") | Some("off") | Some("false"))
}

/// Whether [`measure_point`] consults the memo. Defaults to on;
/// `VARDELAY_NO_CACHE` disables it (read on first use), and
/// [`set_memo_enabled`] overrides either way.
fn memo_enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let raw = std::env::var_os("VARDELAY_NO_CACHE");
            let on = enabled_for(raw.as_ref().map(|v| v.to_str().unwrap_or("")));
            set_memo_enabled(on);
            on
        }
    }
}

/// Turns the memo on or off for this process, overriding the
/// environment. Outputs are identical either way; the equivalence tests
/// flip it to prove that.
pub fn set_memo_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Measures one point through the process-wide memo, or directly when
/// the memo is off: `VARDELAY_NO_CACHE` set to anything but `0`, `off`
/// or `false`, or [`set_memo_enabled`]`(false)`.
pub fn measure_point(key: PointKey, measure: impl FnOnce() -> PointResult) -> PointResult {
    if memo_enabled() {
        PointMemo::global().get_or_measure(key, measure)
    } else {
        measure()
    }
}

/// Hit, miss and wait counts of the process-wide memo.
pub fn memo_stats() -> MemoStats {
    PointMemo::global().stats()
}

/// Empties the process-wide memo, so the next measurement of every point
/// runs cold. Meant for tests and cold-start benchmarks.
pub fn clear_characterization_cache() {
    PointMemo::global().clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_follows_the_workspace_rule() {
        for raw in [None, Some("0"), Some("off"), Some("false")] {
            assert!(enabled_for(raw), "{raw:?} must leave the memo on");
        }
        for raw in [Some("1"), Some("yes"), Some("true"), Some("")] {
            assert!(!enabled_for(raw), "{raw:?} must turn the memo off");
        }
    }
}
