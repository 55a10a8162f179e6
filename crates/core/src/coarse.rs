//! The coarse delay section: 1:4 fanout → four controlled-length lines →
//! 4:1 mux (paper §3, Fig. 8).

use crate::config::ModelConfig;
use vardelay_analog::mux::SelectTapError;
use vardelay_analog::{AnalogBlock, FanoutBuffer, Mux4, TransmissionLine};
use vardelay_units::Time;
use vardelay_waveform::Waveform;

/// The 4-tap coarse delay selector with 33 ps designed steps.
///
/// Two digital select lines pick which of the four line copies reaches the
/// output; only two levels of active logic sit in the path, which is why
/// the paper chose this over cascading a second fine circuit ("we must be
/// concerned with the undesirable noise and jitter added by each stage").
///
/// # Examples
///
/// ```
/// use vardelay_core::{CoarseDelaySection, ModelConfig};
///
/// let mut coarse = CoarseDelaySection::new(&ModelConfig::paper_prototype(), 5);
/// coarse.select_tap(2)?;
/// assert_eq!(coarse.selected_tap(), 2);
/// // Designed 66 ps, instance deviation +4 ps (Fig. 9 measures 70 ps).
/// assert!((coarse.tap_delay(2).as_ps() - 70.0).abs() < 1e-9);
/// # Ok::<(), vardelay_analog::SelectTapError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CoarseDelaySection {
    fanout: FanoutBuffer,
    lines: Vec<TransmissionLine>,
    mux: Mux4,
    tap_delays: [Time; 4],
}

impl CoarseDelaySection {
    /// Builds the section from a model configuration: tap delays are the
    /// designed values plus this instance's static deviations.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid or any resulting tap delay
    /// is negative.
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        config.validate();
        let mut tap_delays = [Time::ZERO; 4];
        for (i, d) in tap_delays.iter_mut().enumerate() {
            *d = config.coarse_taps[i] + config.coarse_tap_deviations[i];
            assert!(*d >= Time::ZERO, "tap {i} delay must be non-negative");
        }
        let lines = tap_delays
            .iter()
            .map(|&d| TransmissionLine::new(d))
            .collect();
        CoarseDelaySection {
            fanout: FanoutBuffer::new(4, config.fixed.clone(), seed.wrapping_add(0xfa)),
            lines,
            mux: Mux4::new(config.fixed.clone(), seed.wrapping_add(0x4d)),
            tap_delays,
        }
    }

    /// Builds a section whose tap deviations are drawn randomly,
    /// `N(0, sigma)` per non-zero tap — a manufacturing-lot model, as
    /// opposed to the paper-matched instance in
    /// [`ModelConfig::paper_prototype`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid, `sigma` is negative, or a
    /// drawn tap would go negative (absurd `sigma`).
    pub fn with_random_tolerance(config: &ModelConfig, sigma: Time, seed: u64) -> Self {
        assert!(sigma >= Time::ZERO, "tolerance must be non-negative");
        let mut rng = vardelay_siggen::SplitMix64::new(seed);
        let mut cfg = config.clone();
        cfg.coarse_tap_deviations = [Time::ZERO; 4];
        for dev in cfg.coarse_tap_deviations.iter_mut().skip(1) {
            *dev = sigma * rng.gaussian();
        }
        Self::new(&cfg, seed)
    }

    /// Selects coarse tap `index` (0..4).
    ///
    /// # Errors
    ///
    /// Returns [`SelectTapError`] if `index >= 4`.
    pub fn select_tap(&mut self, index: usize) -> Result<(), SelectTapError> {
        self.mux.select(index)
    }

    /// The currently selected tap.
    pub fn selected_tap(&self) -> usize {
        self.mux.selected()
    }

    /// The differential delay of tap `index` relative to an ideal zero tap
    /// (designed value plus instance deviation).
    ///
    /// # Panics
    ///
    /// Panics if `index >= 4`.
    pub fn tap_delay(&self, index: usize) -> Time {
        self.tap_delays[index]
    }

    /// All four tap delays.
    pub fn tap_delays(&self) -> [Time; 4] {
        self.tap_delays
    }

    /// The coarse section's maximum differential delay (last tap).
    pub fn max_tap_delay(&self) -> Time {
        self.tap_delays[3]
    }

    /// Fixed through-delay of the two active stages (fanout + mux),
    /// common to every tap.
    pub fn through_delay(&self) -> Time {
        self.fanout.prop_delay() + self.mux.prop_delay()
    }

    /// Measures the four tap delays relative to tap 0 using the waveform
    /// engine on the given stimulus — the Fig. 9 experiment.
    pub fn measure_taps(&mut self, input: &Waveform, ui: Time) -> [Time; 4] {
        use vardelay_waveform::to_edge_stream;
        let restore = self.selected_tap();
        let mut measured = [Time::ZERO; 4];
        let mut tap0: Option<vardelay_siggen::EdgeStream> = None;
        #[allow(clippy::needless_range_loop)] // tap selects hardware AND indexes results
        for tap in 0..4 {
            self.select_tap(tap).expect("tap index in range");
            let out = self.process(input);
            let stream = to_edge_stream(&out, 0.0, ui);
            match &tap0 {
                None => {
                    tap0 = Some(stream);
                }
                Some(reference) => {
                    measured[tap] = vardelay_measure::mean_delay(reference, &stream)
                        .expect("tap outputs carry the same edge pattern");
                }
            }
        }
        self.select_tap(restore).expect("restoring a valid tap");
        measured
    }
}

impl AnalogBlock for CoarseDelaySection {
    fn process(&mut self, input: &Waveform) -> Waveform {
        let branches = self.fanout.fan_out(input);
        let taps: Vec<Waveform> = branches
            .iter()
            .zip(&mut self.lines)
            .map(|(branch, line)| line.process(branch))
            .collect();
        self.mux.mux(&taps)
    }

    fn name(&self) -> &str {
        "coarse-delay"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_siggen::{BitPattern, EdgeStream};
    use vardelay_units::BitRate;
    use vardelay_waveform::Waveform;

    fn quiet_section() -> CoarseDelaySection {
        CoarseDelaySection::new(&ModelConfig::paper_prototype().quiet(), 1)
    }

    #[test]
    fn prototype_taps_match_fig9() {
        let c = quiet_section();
        let taps: Vec<f64> = (0..4).map(|i| c.tap_delay(i).as_ps()).collect();
        assert_eq!(taps, vec![0.0, 33.0, 70.0, 95.0]);
    }

    #[test]
    fn measured_taps_track_designed_taps() {
        let mut c = quiet_section();
        let rate = BitRate::from_gbps(2.0);
        let stream = EdgeStream::nrz(&BitPattern::clock(16), rate);
        let cfg = ModelConfig::paper_prototype().render;
        let wf = Waveform::render(&stream, &cfg);
        let measured = c.measure_taps(&wf, rate.bit_period());
        for (tap, got) in measured.iter().enumerate().skip(1) {
            let expect = c.tap_delay(tap).as_ps();
            let got = got.as_ps();
            assert!((got - expect).abs() < 1.0, "tap {tap}: {got} vs {expect}");
        }
    }

    #[test]
    fn tap_selection_validates() {
        let mut c = quiet_section();
        assert!(c.select_tap(3).is_ok());
        assert!(c.select_tap(4).is_err());
        assert_eq!(c.selected_tap(), 3);
    }

    #[test]
    fn through_delay_counts_two_stages() {
        let c = quiet_section();
        // Two 20 ps stages in the default configuration.
        assert!((c.through_delay().as_ps() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn random_tolerance_spreads_the_taps() {
        let cfg = ModelConfig::paper_prototype().quiet();
        let a = CoarseDelaySection::with_random_tolerance(&cfg, Time::from_ps(1.5), 7);
        let b = CoarseDelaySection::with_random_tolerance(&cfg, Time::from_ps(1.5), 8);
        assert_ne!(a.tap_delays(), b.tap_delays());
        // Tap 0 stays the reference; others deviate by a few ps at most.
        assert_eq!(a.tap_delay(0), Time::ZERO);
        for tap in 1..4 {
            let dev = (a.tap_delay(tap) - cfg.coarse_taps[tap]).abs();
            assert!(dev < Time::from_ps(8.0), "tap {tap} deviates {dev}");
        }
        // Same seed reproduces the same instance.
        let c = CoarseDelaySection::with_random_tolerance(&cfg, Time::from_ps(1.5), 7);
        assert_eq!(a.tap_delays(), c.tap_delays());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_tap_rejected() {
        let mut cfg = ModelConfig::paper_prototype();
        cfg.coarse_tap_deviations[0] = Time::from_ps(-10.0);
        let _ = CoarseDelaySection::new(&cfg, 1);
    }
}
