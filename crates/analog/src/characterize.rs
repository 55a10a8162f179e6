//! Bench-style characterization of waveform-domain chains, and the
//! table-driven edge-domain model built from it.
//!
//! The fast edge engine does not re-derive the buffer physics; instead it
//! does what one does with the physical prototype: **measure** the delay of
//! the full chain on a grid of control voltages and toggle intervals, then
//! interpolate. Because the preceding interval determines how far the
//! bandwidth-limited stages settled, a `delay(vctrl, preceding-interval)`
//! table reproduces both the Fig. 7 control curve and the Fig. 15
//! frequency roll-off, and applying it per-edge on real data produces the
//! data-dependent jitter the paper observes at 6.4 Gb/s.

use std::sync::{Arc, OnceLock};

use crate::block::{AnalogBlock, EdgeTransform};
use vardelay_measure::MeasureDelayError;
use vardelay_runner::Runner;
use vardelay_siggen::{BitPattern, EdgeStream, SplitMix64};
use vardelay_units::{BitRate, Time, Voltage};
use vardelay_waveform::{to_edge_stream, RenderConfig, Waveform};

/// A grid point of a characterization sweep could not be measured — the
/// chain output carried no usable signal (e.g. a dead driver under fault
/// injection). The typed form lets a quarantined channel degrade instead
/// of panicking the worker that was characterizing it.
#[derive(Debug, Clone, PartialEq)]
pub enum CharacterizeError {
    /// The chain output produced too few crossings to measure: the signal
    /// was completely lost at this grid point.
    SignalLost {
        /// Control voltage of the failing grid point.
        vctrl: Voltage,
        /// Toggle interval of the failing grid point.
        interval: Time,
        /// Crossings actually observed (at or below the warm-up count).
        edges: usize,
    },
    /// Crossings existed but could not be paired into a delay.
    Unmeasurable {
        /// Control voltage of the failing grid point.
        vctrl: Voltage,
        /// Toggle interval of the failing grid point.
        interval: Time,
        /// The underlying measurement failure.
        source: MeasureDelayError,
    },
}

impl core::fmt::Display for CharacterizeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CharacterizeError::SignalLost {
                vctrl,
                interval,
                edges,
            } => write!(
                f,
                "chain output lost the signal at vctrl={vctrl}, interval={interval} \
                 ({edges} crossings)"
            ),
            CharacterizeError::Unmeasurable {
                vctrl,
                interval,
                source,
            } => write!(
                f,
                "chain output carries no measurable edges at vctrl={vctrl}, \
                 interval={interval}: {source}"
            ),
        }
    }
}

impl std::error::Error for CharacterizeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CharacterizeError::SignalLost { .. } => None,
            CharacterizeError::Unmeasurable { source, .. } => Some(source),
        }
    }
}

/// Measures one cell of an on-demand [`DelayTable`]: the delay at a
/// `(vctrl, interval)` grid point.
type CellMeasure = dyn Fn(Voltage, Time) -> Result<Time, CharacterizeError> + Send + Sync;

/// Where an on-demand table's missing cells come from.
#[derive(Clone)]
struct CellSource {
    measure: Arc<CellMeasure>,
    /// Fans out a batch of missing cells.
    runner: Runner,
}

/// A `delay(vctrl, preceding-interval)` lookup table with bilinear
/// interpolation and boundary clamping.
///
/// Cells are either given up front ([`DelayTable::new`]) or measured the
/// first time they are read ([`DelayTable::on_demand`]), the way a bench
/// measures only the grid points an experiment needs. Clones share their
/// cells, so a cell measured through one clone is known to all.
#[derive(Debug, Clone)]
pub struct DelayTable {
    vctrls: Vec<Voltage>,
    intervals: Vec<Time>,
    /// Row-major: cell `i * intervals.len() + j` is the mean delay at
    /// `vctrls[i]`, `intervals[j]`.
    cells: Arc<[OnceLock<Time>]>,
    /// `None` for a table built from measured values: every cell is set.
    source: Option<CellSource>,
}

impl DelayTable {
    /// Builds a table from grids and measured values.
    ///
    /// # Panics
    ///
    /// Panics if grids are empty, unsorted, or the value matrix has the
    /// wrong shape.
    pub fn new(vctrls: Vec<Voltage>, intervals: Vec<Time>, delays: Vec<Vec<Time>>) -> Self {
        check_grids(&vctrls, &intervals);
        assert_eq!(delays.len(), vctrls.len(), "one delay row per vctrl");
        assert!(
            delays.iter().all(|row| row.len() == intervals.len()),
            "one delay per interval in every row"
        );
        DelayTable {
            vctrls,
            intervals,
            cells: delays.into_iter().flatten().map(OnceLock::from).collect(),
            source: None,
        }
    }

    /// A table whose cells are measured by `measure` the first time they
    /// are read. A batch of missing cells ([`DelayTable::prefetch`]) fans
    /// out on `runner`; `measure` must be a pure function of its grid
    /// point, so the table equals the eagerly measured one cell for cell.
    /// A cell that fails to measure panics the read with the error.
    ///
    /// # Panics
    ///
    /// Panics if grids are empty or unsorted.
    pub fn on_demand(
        vctrls: Vec<Voltage>,
        intervals: Vec<Time>,
        runner: Runner,
        measure: impl Fn(Voltage, Time) -> Result<Time, CharacterizeError> + Send + Sync + 'static,
    ) -> Self {
        check_grids(&vctrls, &intervals);
        let cells = (0..vctrls.len() * intervals.len())
            .map(|_| OnceLock::new())
            .collect();
        DelayTable {
            vctrls,
            intervals,
            cells,
            source: Some(CellSource {
                measure: Arc::new(measure),
                runner,
            }),
        }
    }

    /// The control-voltage grid.
    pub fn vctrls(&self) -> &[Voltage] {
        &self.vctrls
    }

    /// The preceding-interval grid.
    pub fn intervals(&self) -> &[Time] {
        &self.intervals
    }

    /// The grid cells bracketing `x` and the weight of the upper one. A
    /// zero weight brackets with the lower cell twice, so the upper cell
    /// is never read: `low + (high − low)·0` is `low` for every finite
    /// cell but `-0.0`, which no measured delay is.
    fn bracket<T>(grid: &[T], x: T) -> (usize, usize, f64)
    where
        T: Copy + PartialOrd + core::ops::Sub<Output = T> + core::ops::Div<T, Output = f64>,
    {
        let i = grid.partition_point(|&g| g <= x);
        if i == 0 {
            return (0, 0, 0.0);
        }
        if i >= grid.len() {
            return (grid.len() - 1, grid.len() - 1, 0.0);
        }
        let (lo, hi) = (i - 1, i);
        let frac = ((x - grid[lo]) / (grid[hi] - grid[lo])).clamp(0.0, 1.0);
        if frac == 0.0 {
            return (lo, lo, 0.0);
        }
        (lo, hi, frac)
    }

    /// The cell at `vctrls[row]`, `intervals[col]`, measured now if this
    /// is its first read.
    fn cell(&self, row: usize, col: usize) -> Time {
        *self.cells[row * self.intervals.len() + col].get_or_init(|| {
            let source = self
                .source
                .as_ref()
                .expect("a measured table has every cell");
            (source.measure)(self.vctrls[row], self.intervals[col])
                .unwrap_or_else(|e| panic!("{e}"))
        })
    }

    /// Measures the missing cells among `cells` (row-major indices) in one
    /// fan-out.
    fn fill(&self, cells: impl Iterator<Item = usize>) {
        let Some(source) = &self.source else {
            return;
        };
        let missing: Vec<usize> = cells.filter(|&k| self.cells[k].get().is_none()).collect();
        let n = self.intervals.len();
        let measured = source.runner.par_map(&missing, |_, &k| {
            (source.measure)(self.vctrls[k / n], self.intervals[k % n])
        });
        for (k, delay) in missing.into_iter().zip(measured) {
            // A concurrent reader may have set the cell first; both
            // measured the same pure function.
            let _ = self.cells[k].set(delay.unwrap_or_else(|e| panic!("{e}")));
        }
    }

    /// Measures, in one fan-out, every missing cell that
    /// [`DelayTable::delay_at`] will read for these points.
    pub fn prefetch(&self, points: &[(Voltage, Time)]) {
        if self.source.is_none() {
            return;
        }
        let n = self.intervals.len();
        let mut wanted = vec![false; self.cells.len()];
        for &(vctrl, interval) in points {
            let (v0, v1, _) = Self::bracket(&self.vctrls, vctrl);
            let (i0, i1, _) = Self::bracket(&self.intervals, interval);
            for k in [v0 * n + i0, v0 * n + i1, v1 * n + i0, v1 * n + i1] {
                wanted[k] = true;
            }
        }
        self.fill((0..wanted.len()).filter(|&k| wanted[k]));
    }

    /// Every cell, `delays[i][j]` at `vctrls[i]`, `intervals[j]`,
    /// measuring the missing ones in one fan-out.
    pub fn delays(&self) -> Vec<Vec<Time>> {
        self.fill(0..self.cells.len());
        self.cells
            .chunks(self.intervals.len())
            .map(|row| row.iter().map(|c| *c.get().expect("filled")).collect())
            .collect()
    }

    /// Looks up the delay with bilinear interpolation, clamping outside the
    /// measured grid.
    pub fn delay_at(&self, vctrl: Voltage, interval: Time) -> Time {
        let (v0, v1, fv) = Self::bracket(&self.vctrls, vctrl);
        let (i0, i1, fi) = Self::bracket(&self.intervals, interval);
        let d00 = self.cell(v0, i0);
        let d01 = self.cell(v0, i1);
        let d10 = self.cell(v1, i0);
        let d11 = self.cell(v1, i1);
        let low = d00 + (d01 - d00) * fi;
        let high = d10 + (d11 - d10) * fi;
        low + (high - low) * fv
    }
}

fn check_grids(vctrls: &[Voltage], intervals: &[Time]) {
    assert!(
        !vctrls.is_empty() && !intervals.is_empty(),
        "grids must be non-empty"
    );
    assert!(
        vctrls.windows(2).all(|w| w[0] < w[1]),
        "vctrl grid must be strictly ascending"
    );
    assert!(
        intervals.windows(2).all(|w| w[0] < w[1]),
        "interval grid must be strictly ascending"
    );
}

/// Equal grids and equal cells; compares every cell, measuring the
/// missing ones.
impl PartialEq for DelayTable {
    fn eq(&self, other: &Self) -> bool {
        self.vctrls == other.vctrls
            && self.intervals == other.intervals
            && self.delays() == other.delays()
    }
}

impl core::fmt::Debug for CellSource {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("on demand")
    }
}

/// Measures a `delay(vctrl, interval)` table of an arbitrary chain by
/// driving a freshly-built copy with toggling clock stimuli, exactly as on
/// the bench. Eager and uncached: every cell is measured now.
///
/// For every grid point the chain is rebuilt by `build(vctrl)` (so noise
/// seeds and filter states reset), driven with a 1010… pattern whose bit
/// period equals the interval, and the mean delay over the steady-state
/// tail of the capture is recorded. Chains built for characterization
/// should disable voltage noise so the table is a clean mean. A grid
/// point that carries no measurable signal is a typed error, so a
/// dead-driver channel under fault injection can be quarantined rather
/// than taking the worker down.
///
/// # Errors
///
/// Returns [`CharacterizeError`] for the first grid point (in row-major
/// `vctrls × intervals` order) whose output lost the signal or could not
/// be paired into a delay.
///
/// # Panics
///
/// Panics if the grids are empty.
pub fn try_measure_delay_table(
    build: &(dyn Fn(Voltage) -> Box<dyn AnalogBlock + Send> + Sync),
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Result<DelayTable, CharacterizeError> {
    try_measure_delay_table_with(Runner::global(), build, vctrls, intervals, render)
}

/// [`try_measure_delay_table`] on an explicit [`Runner`]. Every grid
/// cell builds its own chain from scratch and shares no state with any
/// other cell, so the fan-out is bit-identical to the serial nested loop
/// at every thread count.
///
/// # Errors
///
/// Returns [`CharacterizeError`] for the first failing grid point.
pub fn try_measure_delay_table_with(
    runner: Runner,
    build: &(dyn Fn(Voltage) -> Box<dyn AnalogBlock + Send> + Sync),
    vctrls: &[Voltage],
    intervals: &[Time],
    render: &RenderConfig,
) -> Result<DelayTable, CharacterizeError> {
    assert!(
        !vctrls.is_empty() && !intervals.is_empty(),
        "grids must be non-empty"
    );
    const WARMUP_EDGES: usize = 8;
    const TOTAL_BITS: usize = 24;

    let cells: Vec<(Voltage, Time)> = vctrls
        .iter()
        .flat_map(|&v| intervals.iter().map(move |&i| (v, i)))
        .collect();
    let flat = runner
        .par_map(&cells, |_, &(vctrl, interval)| {
            let rate = BitRate::from_bps(1.0 / interval.as_s());
            let stimulus = EdgeStream::nrz(&BitPattern::clock(TOTAL_BITS), rate);
            let wf = Waveform::render(&stimulus, render);
            let mut chain = build(vctrl);
            let out_wf = chain.process(&wf);
            let out = to_edge_stream(&out_wf, 0.0, rate.bit_period());
            if out.len() <= WARMUP_EDGES {
                return Err(CharacterizeError::SignalLost {
                    vctrl,
                    interval,
                    edges: out.len(),
                });
            }
            // Polarity-safe tail pairing: robust to start-up transients
            // and to a final edge cut off by the capture window.
            vardelay_measure::tail_mean_delay(&stimulus, &out, WARMUP_EDGES).map_err(|source| {
                CharacterizeError::Unmeasurable {
                    vctrl,
                    interval,
                    source,
                }
            })
        })
        .into_iter()
        .collect::<Result<Vec<Time>, CharacterizeError>>()?;
    let delays = flat
        .chunks(intervals.len())
        .map(|row| row.to_vec())
        .collect();
    Ok(DelayTable::new(vctrls.to_vec(), intervals.to_vec(), delays))
}

/// A table-driven edge-domain delay element with per-edge random jitter —
/// the fast model of a characterized chain.
#[derive(Debug, Clone)]
pub struct CharacterizedDelay {
    table: DelayTable,
    vctrl: Voltage,
    rj_sigma: Time,
    rng: SplitMix64,
    label: String,
}

impl CharacterizedDelay {
    /// Creates a model at the given operating point.
    pub fn new(table: DelayTable, vctrl: Voltage, rj_sigma: Time, seed: u64) -> Self {
        CharacterizedDelay {
            table,
            vctrl,
            rj_sigma,
            rng: SplitMix64::new(seed),
            label: "characterized-delay".to_owned(),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &DelayTable {
        &self.table
    }

    /// Current control voltage.
    pub fn vctrl(&self) -> Voltage {
        self.vctrl
    }

    /// Reprograms the control voltage.
    pub fn set_vctrl(&mut self, vctrl: Voltage) {
        self.vctrl = vctrl;
    }

    /// Delays a stream using per-edge control voltages (one per edge) —
    /// the jitter-injection path, where `Vctrl` moves with coupled noise.
    ///
    /// # Panics
    ///
    /// Panics if `vctrls.len()` differs from the edge count.
    pub fn transform_with_vctrls(&mut self, input: &EdgeStream, vctrls: &[Voltage]) -> EdgeStream {
        assert_eq!(
            vctrls.len(),
            input.len(),
            "one control voltage per edge required"
        );
        let times = self.displaced_times(input, |i| vctrls[i]);
        input.with_times(&times)
    }

    /// Delays every edge by the table at its control voltage and
    /// preceding interval. The cells those edges bracket are measured
    /// first, in one fan-out, so a cold on-demand table fills in parallel.
    fn displaced_times(
        &mut self,
        input: &EdgeStream,
        vctrl_of: impl Fn(usize) -> Voltage,
    ) -> Vec<Time> {
        // The first edge has no preceding interval; assume steady state by
        // borrowing the following interval (falling back to the longest
        // characterized one for single-edge streams). Without this, the
        // first edge becomes a large delay outlier that dominates
        // peak-to-peak jitter measurements.
        let long = *self
            .table
            .intervals()
            .last()
            .expect("table grids are non-empty");
        let first_interval = match input.edges() {
            [a, b, ..] => b.time - a.time,
            _ => long,
        };
        let mut prev: Option<Time> = None;
        let points: Vec<(Voltage, Time)> = input
            .edges()
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let interval = prev.map_or(first_interval, |p| e.time - p);
                prev = Some(e.time);
                (vctrl_of(i), interval)
            })
            .collect();
        self.table.prefetch(&points);
        input
            .edges()
            .iter()
            .zip(points)
            .map(|(e, (vctrl, interval))| {
                let mut d = self.table.delay_at(vctrl, interval);
                if self.rj_sigma > Time::ZERO {
                    d += self.rj_sigma * self.rng.gaussian();
                }
                e.time + d
            })
            .collect()
    }
}

impl EdgeTransform for CharacterizedDelay {
    fn transform(&mut self, input: &EdgeStream) -> EdgeStream {
        let vctrl = self.vctrl;
        let times = self.displaced_times(input, |_| vctrl);
        input.with_times(&times)
    }

    fn name(&self) -> &str {
        &self.label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tline::TransmissionLine;
    use crate::vga_buffer::{VgaBuffer, VgaBufferConfig};

    fn table_2x2() -> DelayTable {
        DelayTable::new(
            vec![Voltage::from_v(0.0), Voltage::from_v(1.0)],
            vec![Time::from_ps(100.0), Time::from_ps(200.0)],
            vec![
                vec![Time::from_ps(10.0), Time::from_ps(20.0)],
                vec![Time::from_ps(30.0), Time::from_ps(40.0)],
            ],
        )
    }

    #[test]
    fn bilinear_interpolation() {
        let t = table_2x2();
        let mid = t.delay_at(Voltage::from_v(0.5), Time::from_ps(150.0));
        assert!((mid.as_ps() - 25.0).abs() < 1e-9);
        // Clamping outside the grid.
        let low = t.delay_at(Voltage::from_v(-5.0), Time::from_ps(50.0));
        assert!((low.as_ps() - 10.0).abs() < 1e-9);
        let high = t.delay_at(Voltage::from_v(5.0), Time::from_ps(500.0));
        assert!((high.as_ps() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn measured_table_of_a_pure_line_is_flat() {
        let build = |_v: Voltage| -> Box<dyn AnalogBlock + Send> {
            Box::new(TransmissionLine::new(Time::from_ps(33.0)))
        };
        let table = try_measure_delay_table(
            &build,
            &[Voltage::ZERO, Voltage::from_v(1.5)],
            &[Time::from_ps(500.0), Time::from_ps(1000.0)],
            &RenderConfig::default_source(),
        )
        .expect("a line passes the stimulus");
        for v in table.vctrls() {
            for i in table.intervals() {
                let d = table.delay_at(*v, *i);
                assert!((d.as_ps() - 33.0).abs() < 0.5, "d {d}");
            }
        }
    }

    #[test]
    fn measured_vga_table_shows_amplitude_dependence() {
        let mut cfg = VgaBufferConfig::paper_default();
        cfg.core.noise_rms = Voltage::ZERO;
        let build = move |v: Voltage| -> Box<dyn AnalogBlock + Send> {
            let mut buf = VgaBuffer::new(cfg.clone(), 1);
            buf.set_vctrl(v);
            Box::new(buf)
        };
        let table = try_measure_delay_table(
            &build,
            &[Voltage::ZERO, Voltage::from_v(0.75), Voltage::from_v(1.5)],
            &[Time::from_ps(1000.0)],
            &RenderConfig::default_source(),
        )
        .expect("the buffer passes the stimulus");
        let long = Time::from_ps(1000.0);
        let d_lo = table.delay_at(Voltage::ZERO, long);
        let d_hi = table.delay_at(Voltage::from_v(1.5), long);
        let range = (d_hi - d_lo).as_ps();
        assert!((5.0..20.0).contains(&range), "range {range} ps");
    }

    #[test]
    fn characterized_delay_applies_table() {
        let table = table_2x2();
        let mut model = CharacterizedDelay::new(table, Voltage::from_v(1.0), Time::ZERO, 1);
        let stream = EdgeStream::nrz(&BitPattern::clock(10), BitRate::from_bps(1.0 / 200e-12));
        let out = model.transform(&stream);
        let d = vardelay_measure::mean_delay(&stream, &out).unwrap();
        // All intervals are 200 ps → delay 40 ps at vctrl = 1 V.
        assert!((d.as_ps() - 40.0).abs() < 0.1, "d {d}");
    }

    #[test]
    fn per_edge_vctrls_modulate_delay() {
        let table = table_2x2();
        let mut model = CharacterizedDelay::new(table, Voltage::ZERO, Time::ZERO, 1);
        let stream = EdgeStream::nrz(&BitPattern::clock(4), BitRate::from_bps(1.0 / 200e-12));
        let vctrls: Vec<Voltage> = (0..stream.len())
            .map(|i| {
                if i % 2 == 0 {
                    Voltage::ZERO
                } else {
                    Voltage::from_v(1.0)
                }
            })
            .collect();
        let out = model.transform_with_vctrls(&stream, &vctrls);
        let seq = vardelay_measure::delay_sequence(&stream, &out).unwrap();
        assert!((seq[1] - seq[0]).as_ps() > 15.0); // 40 vs 20 ps
    }

    #[test]
    fn measured_table_is_thread_count_invariant() {
        let build = |_v: Voltage| -> Box<dyn AnalogBlock + Send> {
            Box::new(TransmissionLine::new(Time::from_ps(21.0)))
        };
        let vctrls = [Voltage::ZERO, Voltage::from_v(0.7), Voltage::from_v(1.5)];
        let intervals = [Time::from_ps(400.0), Time::from_ps(800.0)];
        let render = RenderConfig::default_source();
        let measure = |runner| {
            try_measure_delay_table_with(runner, &build, &vctrls, &intervals, &render)
                .expect("a line passes the stimulus")
        };
        let serial = measure(Runner::serial());
        for threads in [2, 4, 8] {
            let parallel = measure(Runner::new(threads));
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn on_demand_cells_are_measured_once_when_first_read() {
        let reads = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counted = Arc::clone(&reads);
        let eager = table_2x2();
        let table = DelayTable::on_demand(
            eager.vctrls.clone(),
            eager.intervals.clone(),
            Runner::new(2),
            move |v, i| {
                counted.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                Ok(table_2x2().delay_at(v, i))
            },
        );
        let reads = || reads.load(std::sync::atomic::Ordering::Relaxed);
        // On a grid point both weights are zero: one cell is read.
        table.delay_at(Voltage::from_v(1.0), Time::from_ps(100.0));
        assert_eq!(reads(), 1);
        // A clone shares that cell; a prefetch measures the other three
        // cells of the bracket in one batch.
        table
            .clone()
            .prefetch(&[(Voltage::from_v(0.5), Time::from_ps(150.0))]);
        assert_eq!(reads(), 4);
        assert_eq!(table, eager);
        assert_eq!(reads(), 4, "no cell is measured twice");
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn table_grid_validated() {
        let _ = DelayTable::new(
            vec![Voltage::from_v(1.0), Voltage::from_v(0.0)],
            vec![Time::from_ps(1.0)],
            vec![vec![Time::ZERO], vec![Time::ZERO]],
        );
    }
}
