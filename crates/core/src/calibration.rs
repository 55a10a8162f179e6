//! Calibration: inverting the measured delay-vs-`Vctrl` curve.
//!
//! "Given these measurements, we can determine an appropriate control
//! voltage for any desired delay within this ~56 ps range" (paper §2,
//! Fig. 7). A [`CalibrationTable`] holds the measured curve and performs
//! the inversion by monotone piecewise-linear interpolation.

use vardelay_units::{Time, Voltage};

/// Error returned when a target delay lies outside the calibrated curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationError {
    /// The requested delay.
    pub requested: Time,
    /// The smallest calibrated delay.
    pub min: Time,
    /// The largest calibrated delay.
    pub max: Time,
}

impl core::fmt::Display for CalibrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "delay {} is outside the calibrated span {}..{}",
            self.requested, self.min, self.max
        )
    }
}

impl std::error::Error for CalibrationError {}

/// A measured, monotonized delay-vs-`Vctrl` transfer curve.
///
/// # Examples
///
/// ```
/// use vardelay_core::CalibrationTable;
/// use vardelay_units::{Time, Voltage};
///
/// // A linear 30 ps/V toy curve measured at three points.
/// let table = CalibrationTable::from_measurement(
///     &[Voltage::ZERO, Voltage::from_v(0.75), Voltage::from_v(1.5)],
///     |v| Time::from_ps(100.0 + 30.0 * v.as_v()),
/// );
/// let v = table.vctrl_for_delay(Time::from_ps(115.0))?;
/// assert!((v.as_v() - 0.5).abs() < 1e-9);
/// # Ok::<(), vardelay_core::CalibrationError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationTable {
    vctrls: Vec<Voltage>,
    delays: Vec<Time>,
}

impl CalibrationTable {
    /// Builds a table by invoking `measure` at each grid point, then
    /// monotonizing the result (running maximum) so inversion is
    /// well-defined even with small measurement noise.
    ///
    /// # Panics
    ///
    /// Panics if `grid` has fewer than two points or is not strictly
    /// ascending.
    pub fn from_measurement(grid: &[Voltage], mut measure: impl FnMut(Voltage) -> Time) -> Self {
        assert!(grid.len() >= 2, "calibration needs at least two points");
        assert!(
            grid.windows(2).all(|w| w[0] < w[1]),
            "calibration grid must be strictly ascending"
        );
        let mut delays: Vec<Time> = grid.iter().map(|&v| measure(v)).collect();
        // Monotonize: the physical curve is non-decreasing; tiny dips are
        // measurement noise.
        for i in 1..delays.len() {
            delays[i] = delays[i].max(delays[i - 1]);
        }
        CalibrationTable {
            vctrls: grid.to_vec(),
            delays,
        }
    }

    /// The calibration grid.
    pub fn vctrls(&self) -> &[Voltage] {
        &self.vctrls
    }

    /// The measured (monotonized) delays.
    pub fn delays(&self) -> &[Time] {
        &self.delays
    }

    /// Smallest calibrated delay.
    pub fn min_delay(&self) -> Time {
        self.delays[0]
    }

    /// Largest calibrated delay.
    pub fn max_delay(&self) -> Time {
        *self.delays.last().expect("table is non-empty")
    }

    /// The usable fine adjustment range.
    pub fn range(&self) -> Time {
        self.max_delay() - self.min_delay()
    }

    /// Mean curve slope in seconds per volt, for DAC resolution estimates.
    pub fn mean_slope_s_per_v(&self) -> f64 {
        let dv = (*self.vctrls.last().expect("non-empty") - self.vctrls[0]).as_v();
        if dv == 0.0 {
            return 0.0;
        }
        self.range().as_s() / dv
    }

    /// Interpolates the delay at an arbitrary control voltage (clamped to
    /// the calibrated span).
    pub fn delay_at(&self, vctrl: Voltage) -> Time {
        if vctrl <= self.vctrls[0] {
            return self.delays[0];
        }
        let last = self.vctrls.len() - 1;
        if vctrl >= self.vctrls[last] {
            return self.delays[last];
        }
        let i = self.vctrls.partition_point(|&v| v <= vctrl) - 1;
        let f = (vctrl - self.vctrls[i]) / (self.vctrls[i + 1] - self.vctrls[i]);
        self.delays[i] + (self.delays[i + 1] - self.delays[i]) * f
    }

    /// Inverts the curve: the control voltage that produces `target`.
    ///
    /// Flat curve segments (from monotonization) resolve to their left
    /// edge.
    ///
    /// # Errors
    ///
    /// Returns [`CalibrationError`] if `target` lies outside the
    /// calibrated delay span.
    pub fn vctrl_for_delay(&self, target: Time) -> Result<Voltage, CalibrationError> {
        if target < self.min_delay() || target > self.max_delay() {
            return Err(CalibrationError {
                requested: target,
                min: self.min_delay(),
                max: self.max_delay(),
            });
        }
        // First segment whose right endpoint reaches the target.
        let i = self
            .delays
            .partition_point(|&d| d < target)
            .min(self.delays.len() - 1);
        if i == 0 {
            return Ok(self.vctrls[0]);
        }
        let (d0, d1) = (self.delays[i - 1], self.delays[i]);
        let (v0, v1) = (self.vctrls[i - 1], self.vctrls[i]);
        if d1 <= d0 {
            return Ok(v0); // flat segment
        }
        let f = (target - d0) / (d1 - d0);
        Ok(v0.lerp(v1, f))
    }
}

/// Error returned by [`CalibrationTable::from_csv`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCalibrationError {
    /// 1-based line number of the offending row.
    pub line: usize,
    /// What was wrong with it.
    pub reason: String,
}

impl core::fmt::Display for ParseCalibrationError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "calibration CSV line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseCalibrationError {}

impl CalibrationTable {
    /// Serializes the table as two-column CSV (`vctrl_v,delay_ps`) — the
    /// persistence format a test-cell host stores between lots.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "vctrl_v,delay_ps
",
        );
        for (v, d) in self.vctrls.iter().zip(&self.delays) {
            out.push_str(&format!(
                "{:.9},{:.6}
",
                v.as_v(),
                d.as_ps()
            ));
        }
        out
    }

    /// Parses a table previously written by [`CalibrationTable::to_csv`].
    ///
    /// The grid must be strictly ascending; delays are re-monotonized on
    /// load exactly as during measurement.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCalibrationError`] for malformed rows, an unsorted
    /// grid, or fewer than two points.
    pub fn from_csv(text: &str) -> Result<Self, ParseCalibrationError> {
        let mut vctrls = Vec::new();
        let mut delays = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || (i == 0 && line.starts_with("vctrl")) {
                continue;
            }
            let mut parts = line.split(',');
            let parse = |field: Option<&str>, what: &str| -> Result<f64, ParseCalibrationError> {
                field
                    .ok_or_else(|| ParseCalibrationError {
                        line: i + 1,
                        reason: format!("missing {what}"),
                    })?
                    .trim()
                    .parse::<f64>()
                    .map_err(|e| ParseCalibrationError {
                        line: i + 1,
                        reason: format!("bad {what}: {e}"),
                    })
            };
            let v = parse(parts.next(), "vctrl")?;
            let d = parse(parts.next(), "delay")?;
            vctrls.push(Voltage::from_v(v));
            delays.push(Time::from_ps(d));
        }
        if vctrls.len() < 2 {
            return Err(ParseCalibrationError {
                line: 0,
                reason: "calibration needs at least two points".to_owned(),
            });
        }
        if !vctrls.windows(2).all(|w| w[0] < w[1]) {
            return Err(ParseCalibrationError {
                line: 0,
                reason: "vctrl grid must be strictly ascending".to_owned(),
            });
        }
        for i in 1..delays.len() {
            delays[i] = delays[i].max(delays[i - 1]);
        }
        Ok(CalibrationTable { vctrls, delays })
    }

    /// Serializes the table **bit-exactly** for the serve layer's
    /// calibration snapshots (DESIGN.md §16): a `vardelay-cal-v1`
    /// header, then one `"<vctrl_bits>,<delay_bits>"` row per point with
    /// each value's raw IEEE-754 bits in lowercase hex. Unlike
    /// [`CalibrationTable::to_csv`] (a human-readable export rounded to
    /// fixed decimals), decoding this form reconstructs *exactly* the
    /// vectors that were installed — the restart acceptance bar is that
    /// a warm-restored table answers `set_delay` byte-identically to the
    /// table that was snapshotted.
    pub fn to_snapshot(&self) -> String {
        let mut out = String::from("vardelay-cal-v1\n");
        for (v, d) in self.vctrls.iter().zip(&self.delays) {
            out.push_str(&format!(
                "{:016x},{:016x}\n",
                v.as_v().to_bits(),
                d.as_s().to_bits()
            ));
        }
        out
    }

    /// Parses a table previously written by
    /// [`CalibrationTable::to_snapshot`], reconstructing the exact bits.
    ///
    /// The decoder **validates instead of repairing**: a snapshot whose
    /// grid is not strictly ascending or whose delays decrease was
    /// corrupted after it was written (the encoder only ever sees
    /// monotonized tables), so it is rejected rather than re-monotonized
    /// into a plausible-looking but wrong table.
    ///
    /// # Errors
    ///
    /// Returns [`ParseCalibrationError`] for a missing/unknown header,
    /// malformed rows, non-finite values, an unsorted grid, decreasing
    /// delays, or fewer than two points.
    pub fn from_snapshot(text: &str) -> Result<Self, ParseCalibrationError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, "vardelay-cal-v1")) => {}
            other => {
                return Err(ParseCalibrationError {
                    line: 1,
                    reason: format!(
                        "expected \"vardelay-cal-v1\" header, got {:?}",
                        other.map(|(_, l)| l).unwrap_or("")
                    ),
                })
            }
        }
        let mut vctrls = Vec::new();
        let mut delays = Vec::new();
        for (i, line) in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let parse = |field: Option<&str>, what: &str| -> Result<f64, ParseCalibrationError> {
                let raw = field.ok_or_else(|| ParseCalibrationError {
                    line: i + 1,
                    reason: format!("missing {what}"),
                })?;
                let bits =
                    u64::from_str_radix(raw.trim(), 16).map_err(|e| ParseCalibrationError {
                        line: i + 1,
                        reason: format!("bad {what} bits: {e}"),
                    })?;
                let value = f64::from_bits(bits);
                if !value.is_finite() {
                    return Err(ParseCalibrationError {
                        line: i + 1,
                        reason: format!("non-finite {what}"),
                    });
                }
                Ok(value)
            };
            let v = parse(parts.next(), "vctrl")?;
            let d = parse(parts.next(), "delay")?;
            vctrls.push(Voltage::from_v(v));
            delays.push(Time::from_s(d));
        }
        if vctrls.len() < 2 {
            return Err(ParseCalibrationError {
                line: 0,
                reason: "calibration needs at least two points".to_owned(),
            });
        }
        if !vctrls.windows(2).all(|w| w[0] < w[1]) {
            return Err(ParseCalibrationError {
                line: 0,
                reason: "vctrl grid must be strictly ascending".to_owned(),
            });
        }
        if !delays.windows(2).all(|w| w[0] <= w[1]) {
            return Err(ParseCalibrationError {
                line: 0,
                reason: "snapshot delays decrease (corrupt snapshot)".to_owned(),
            });
        }
        Ok(CalibrationTable { vctrls, delays })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<Voltage> {
        (0..n)
            .map(|i| Voltage::from_v(1.5 * i as f64 / (n - 1) as f64))
            .collect()
    }

    #[test]
    fn round_trip_inversion() {
        let table = CalibrationTable::from_measurement(&grid(16), |v| {
            // S-shaped curve like Fig. 7.
            Time::from_ps(100.0 + 28.0 * (1.0 + (3.0 * (v.as_v() - 0.75)).tanh()))
        });
        for i in 0..=20 {
            let target = table.min_delay() + table.range() * (i as f64 / 20.0);
            let v = table.vctrl_for_delay(target).unwrap();
            let back = table.delay_at(v);
            assert!(
                (back - target).abs() < Time::from_ps(0.5),
                "target {target}, got {back}"
            );
        }
    }

    #[test]
    fn out_of_range_is_an_error() {
        let table =
            CalibrationTable::from_measurement(&grid(4), |v| Time::from_ps(10.0 * v.as_v()));
        let err = table.vctrl_for_delay(Time::from_ps(99.0)).unwrap_err();
        assert!((err.max.as_ps() - 15.0).abs() < 1e-9);
        assert!(err.to_string().contains("outside"));
    }

    #[test]
    fn noise_dips_are_monotonized() {
        let noisy = [0.0, 5.0, 4.8, 9.0]; // dip at index 2
        let mut i = 0;
        let table = CalibrationTable::from_measurement(&grid(4), |_| {
            let d = Time::from_ps(noisy[i]);
            i += 1;
            d
        });
        assert!(table.delays().windows(2).all(|w| w[0] <= w[1]));
        // Inversion across the flattened segment still works.
        assert!(table.vctrl_for_delay(Time::from_ps(5.0)).is_ok());
    }

    #[test]
    fn slope_and_range() {
        let table =
            CalibrationTable::from_measurement(&grid(8), |v| Time::from_ps(30.0 * v.as_v()));
        assert!((table.range().as_ps() - 45.0).abs() < 1e-9);
        assert!((table.mean_slope_s_per_v() - 30e-12).abs() < 1e-15);
    }

    #[test]
    fn csv_round_trip() {
        let table =
            CalibrationTable::from_measurement(&grid(9), |v| Time::from_ps(30.0 * v.as_v()));
        let csv = table.to_csv();
        let back = CalibrationTable::from_csv(&csv).expect("own output parses");
        assert_eq!(back.vctrls().len(), table.vctrls().len());
        for (a, b) in table.delays().iter().zip(back.delays()) {
            assert!((*a - *b).abs() < Time::from_fs(10.0));
        }
        // And the loaded table still inverts.
        let v = back.vctrl_for_delay(Time::from_ps(22.5)).expect("in span");
        assert!((v.as_v() - 0.75).abs() < 1e-6);
    }

    #[test]
    fn csv_errors_are_located() {
        let err =
            CalibrationTable::from_csv("vctrl_v,delay_ps\n0.0,1.0\nnonsense,2.0\n").unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.to_string().contains("line 3"));
        let short = CalibrationTable::from_csv("vctrl_v,delay_ps\n0.0,1.0\n").unwrap_err();
        assert!(short.reason.contains("two points"));
        let unsorted = CalibrationTable::from_csv("1.0,5.0\n0.5,3.0\n").unwrap_err();
        assert!(unsorted.reason.contains("ascending"));
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn tiny_grid_rejected() {
        let _ = CalibrationTable::from_measurement(&[Voltage::ZERO], |_| Time::ZERO);
    }

    proptest::proptest! {
        // The restart acceptance bar: a warm-restored table must answer
        // `set_delay` byte-identically to the snapshotted one, so the
        // snapshot codec must round-trip the exact bits at every seed —
        // including curves with flat (monotonized) segments and delays
        // that are not representable in any fixed decimal precision.
        #[test]
        fn snapshot_round_trips_bit_exactly(seed in proptest::any::<u64>(), n in 2usize..33) {
            let mut rng = proptest::TestRng::new(seed);
            let mut points = Vec::with_capacity(n);
            for i in 0..n {
                let v = 1.5 * i as f64 / (n - 1) as f64;
                // Awkward bits on purpose: irrational-ish multipliers and
                // occasional exact repeats (flat segments).
                let d = 17.0 + 43.0 * v * (1.0 + 0.01 * rng.next_f64());
                points.push((Voltage::from_v(v), Time::from_ps(d)));
            }
            let grid: Vec<Voltage> = points.iter().map(|&(v, _)| v).collect();
            let mut i = 0;
            let table = CalibrationTable::from_measurement(&grid, |_| {
                let d = points[i].1;
                i += 1;
                d
            });
            let snap = table.to_snapshot();
            let back = CalibrationTable::from_snapshot(&snap).expect("own output parses");
            for (a, b) in table.vctrls().iter().zip(back.vctrls()) {
                proptest::prop_assert_eq!(a.as_v().to_bits(), b.as_v().to_bits());
            }
            for (a, b) in table.delays().iter().zip(back.delays()) {
                proptest::prop_assert_eq!(a.as_s().to_bits(), b.as_s().to_bits());
            }
            // Re-encoding the decoded table reproduces the bytes exactly.
            proptest::prop_assert_eq!(back.to_snapshot(), snap);
        }
    }

    #[test]
    fn snapshot_rejects_garbage_instead_of_repairing() {
        let table =
            CalibrationTable::from_measurement(&grid(4), |v| Time::from_ps(30.0 * v.as_v()));
        let snap = table.to_snapshot();
        // Wrong header: a CSV or a random file is not a snapshot.
        assert!(CalibrationTable::from_snapshot(&table.to_csv()).is_err());
        assert!(CalibrationTable::from_snapshot("").is_err());
        // Fewer than two surviving rows.
        let one_row: String = snap.lines().take(2).map(|l| format!("{l}\n")).collect();
        assert!(CalibrationTable::from_snapshot(&one_row).is_err());
        // Decreasing delays mean post-write corruption — reject, never
        // re-monotonize into a plausible-looking wrong table.
        let mut rows: Vec<&str> = snap.lines().collect();
        rows.swap(1, 3);
        let swapped: String = rows.iter().map(|l| format!("{l}\n")).collect();
        let err = CalibrationTable::from_snapshot(&swapped).unwrap_err();
        assert!(err.reason.contains("ascending") || err.reason.contains("decrease"));
        // Non-hex bits are located by line.
        let bad = snap.replacen("vardelay-cal-v1\n", "vardelay-cal-v1\nzz,zz\n", 1);
        let err = CalibrationTable::from_snapshot(&bad).unwrap_err();
        assert_eq!(err.line, 2);
    }
}
