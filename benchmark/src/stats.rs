//! Order statistics and the digest the oracles pin.

/// Percentile rungs a tail may be reported at, highest first. p99.9 is
/// left out on purpose: on the open-loop workloads it moves by 2–3×
/// between runs, so it is printed as a diagnostic and never gated.
const TAIL_RUNGS: [f64; 4] = [99.0, 98.0, 95.0, 90.0];

/// Samples that must lie beyond a reported percentile.
const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (`p` in 0..=100):
/// the smallest sample with at least `p` % of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples per window, at least, when a tail is taken over windows.
const MIN_WINDOW: usize = 100;

/// Completions per window, at least, when a rate is taken over windows.
const MIN_RATE_WINDOW: usize = 50;

/// Windows a tail or a rate is taken over, at most. On a shared host a
/// burst of interference inflates a few windows of a run; the median
/// over this many is unmoved until more than half are hit.
const MAX_WINDOWS: usize = 15;

/// A latency tail: the highest rung with at least [`MIN_BEYOND`] samples
/// beyond it in every window (the maximum when no rung qualifies), taken
/// in each of up to [`MAX_WINDOWS`] consecutive windows and reported as
/// the median over windows. A stall that hits one window moves that window's tail,
/// not the reported one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (100 = the maximum).
    pub percentile: f64,
    /// Its value: the median over windows.
    pub value: f64,
    /// Samples the tail was taken over.
    pub samples: usize,
    /// Consecutive windows the samples were cut into.
    pub windows: usize,
}

impl std::fmt::Display for Tail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.percentile >= 100.0 {
            write!(f, "max")?;
        } else {
            write!(f, "p{}", self.percentile)?;
        }
        write!(f, " of {} samples", self.samples)?;
        if self.windows > 1 {
            write!(f, ", median of {} windows", self.windows)?;
        }
        Ok(())
    }
}

/// The tail of `in_order`, samples in the order they were taken (see
/// [`Tail`]).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(in_order: &[f64]) -> Tail {
    let n = in_order.len();
    let windows = (n / MIN_WINDOW).clamp(1, MAX_WINDOWS);
    let size = n / windows;
    let percentile = TAIL_RUNGS
        .into_iter()
        .find(|&p| size - rank(size, p) >= MIN_BEYOND)
        .unwrap_or(100.0);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { n } else { (w + 1) * size };
            nearest_rank(&sorted(&in_order[w * size..end]), percentile)
        })
        .collect();
    Tail {
        percentile,
        value: median(&per_window),
        samples: n,
        windows,
    }
}

/// Completions per second, from the phase start `start_ns` and each
/// operation's completion time: the completions, in time order, are cut
/// into up to [`MAX_WINDOWS`] consecutive windows of at least
/// [`MIN_RATE_WINDOW`]; each window's rate is its completions over the
/// time since the previous window ended, and the median window rate is
/// reported. 0 when nothing completed.
pub fn windowed_rate(start_ns: u64, done_ns: &[u64]) -> f64 {
    let mut done = done_ns.to_vec();
    done.sort_unstable();
    let n = done.len();
    if n == 0 {
        return 0.0;
    }
    let windows = (n / MIN_RATE_WINDOW).clamp(1, MAX_WINDOWS);
    let size = n / windows;
    let mut from = start_ns;
    let rates: Vec<f64> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows { n } else { (w + 1) * size };
            let to = done[end - 1];
            let rate = (end - w * size) as f64 / (to.saturating_sub(from).max(1) as f64 / 1e9);
            from = to;
            rate
        })
        .collect();
    median(&rates)
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (nearest rank) of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    nearest_rank(&sorted(values), 50.0)
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so spreads printed here match the ones a driver
/// script computes from the same runs.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values);
    let len = data.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

/// 64-bit FNV-1a. The pinned correctness digests are computed with this
/// function, so it is kept here rather than borrowed from the program:
/// a change to the program's own hash must not move the oracle.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 90.0), 9.0);
        assert_eq!(nearest_rank(&v, 91.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.0), 1.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        let of = |n: usize| tail(&(1..=n).map(|i| i as f64).collect::<Vec<_>>());
        // 199 samples, one window: p95 is rank 190, nine beyond, so p90.
        assert_eq!(of(199).percentile, 90.0);
        assert_eq!(
            (of(199).value, of(199).samples, of(199).windows),
            (180.0, 199, 1)
        );
        // 1000 samples in ten windows of 100: p90 of each window (ten
        // beyond), and the median window is the fifth (samples 401..=500).
        let t = of(1000);
        assert_eq!((t.percentile, t.windows, t.value), (90.0, 10, 490.0));
        assert_eq!(t.to_string(), "p90 of 1000 samples, median of 10 windows");
        // 15000 samples: fifteen windows of 1000 support p99.
        let big = of(15000);
        assert_eq!((big.percentile, big.windows), (99.0, 15));
        // Too few samples for any rung: the maximum.
        let small = of(6);
        assert_eq!(
            (small.percentile, small.value, small.samples),
            (100.0, 6.0, 6)
        );
        assert_eq!(small.to_string(), "max of 6 samples");
    }

    #[test]
    fn a_stall_in_one_window_does_not_move_the_tail() {
        // Fifteen windows of 200, each holding the same distribution.
        let clean: Vec<f64> = (0..3000).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        let mut stalled = clean.clone();
        // A stall delays every request of the seventh window.
        for v in &mut stalled[1200..1400] {
            *v += 50.0;
        }
        assert_eq!(tail(&clean).windows, 15);
        assert_eq!(tail(&stalled).value, tail(&clean).value);
    }

    #[test]
    fn rates_are_the_median_window_and_shrug_off_a_stall() {
        // 1000 completions, one per ms: 1000/s.
        let steady: Vec<u64> = (1..=1000).map(|i| i * 1_000_000).collect();
        assert!((windowed_rate(0, &steady) - 1000.0).abs() < 1e-6);
        // A 100 ms stall before the 500th completion slows one window only.
        let stalled: Vec<u64> = steady
            .iter()
            .map(|&t| if t >= 500_000_000 { t + 100_000_000 } else { t })
            .collect();
        assert!((windowed_rate(0, &stalled) - 1000.0).abs() < 1e-6);
        // Few completions: one window over the whole phase.
        assert!((windowed_rate(0, &[500_000_000, 1_000_000_000]) - 2.0).abs() < 1e-9);
        assert_eq!(windowed_rate(0, &[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn digest_is_stable() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
