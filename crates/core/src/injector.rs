//! Jitter injection: converting voltage noise on `Vctrl` into timing
//! jitter (paper §5, Figs. 16–17).
//!
//! "This is accomplished by AC-coupling a voltage noise source to the
//! Vctrl signal which determines the fine delay adjustment. If this
//! voltage changes, then the delay also changes."

use crate::config::ModelConfig;
use crate::fine::FineDelayLine;
use vardelay_analog::{CharacterizedDelay, OuNoise};
use vardelay_siggen::EdgeStream;
use vardelay_units::{Frequency, Time, Voltage};

/// The jitter-injection variant of the fine delay line: band-limited
/// Gaussian noise AC-coupled onto the common `Vctrl`.
///
/// The injector runs on the edge engine: the fine line is characterized
/// once into a `delay(Vctrl, interval)` table, and every passing edge
/// samples the noise process to pick its instantaneous control voltage.
///
/// # Examples
///
/// ```
/// use vardelay_core::{JitterInjector, ModelConfig};
/// use vardelay_siggen::{BitPattern, EdgeStream};
/// use vardelay_units::{BitRate, Time, Voltage};
///
/// let mut injector = JitterInjector::new(&ModelConfig::paper_prototype(), 9);
/// injector.set_noise_peak_to_peak(Voltage::from_mv(900.0));
/// let stream = EdgeStream::nrz(&BitPattern::prbs7(1, 254), BitRate::from_gbps(3.2));
/// let jittered = injector.inject(&stream);
/// assert_eq!(jittered.len(), stream.len());
/// ```
#[derive(Debug)]
pub struct JitterInjector {
    model: CharacterizedDelay,
    noise: OuNoise,
    bias: Voltage,
    last_edge: Option<Time>,
    config: ModelConfig,
    seed: u64,
}

impl JitterInjector {
    /// Default bandwidth assumed for the external noise generator.
    pub const DEFAULT_NOISE_BANDWIDTH: Frequency = Frequency::from_mhz(500.0);

    /// Builds an injector around the configured fine line, biased at the
    /// middle of the control range (maximum delay slope), with the noise
    /// source initially silent.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: &ModelConfig, seed: u64) -> Self {
        config.validate();
        let line = FineDelayLine::new(config, seed);
        let (vctrls, intervals) = line.default_grids();
        let model = line.edge_model(&vctrls, &intervals, seed.wrapping_add(0x1e));
        let bias = config.vga.vctrl_min.lerp(config.vga.vctrl_max, 0.5);
        JitterInjector {
            model,
            noise: OuNoise::new(
                Voltage::ZERO,
                Self::DEFAULT_NOISE_BANDWIDTH,
                seed.wrapping_add(0x2f),
            ),
            bias,
            last_edge: None,
            config: config.clone(),
            seed,
        }
    }

    /// The static `Vctrl` operating point the noise rides on.
    pub fn bias(&self) -> Voltage {
        self.bias
    }

    /// Moves the operating point (clamped into the control range).
    pub fn set_bias(&mut self, bias: Voltage) {
        self.bias = bias.clamp(self.config.vga.vctrl_min, self.config.vga.vctrl_max);
    }

    /// Programs the noise generator by its peak-to-peak rating
    /// (`Vpp = 6·σ`), keeping the default bandwidth.
    pub fn set_noise_peak_to_peak(&mut self, vpp: Voltage) {
        self.noise = OuNoise::from_peak_to_peak(
            vpp,
            Self::DEFAULT_NOISE_BANDWIDTH,
            self.seed.wrapping_add(0x2f),
        );
        self.last_edge = None;
    }

    /// Programs the noise generator explicitly.
    pub fn set_noise(&mut self, sigma: Voltage, bandwidth: Frequency) {
        self.noise = OuNoise::new(sigma, bandwidth, self.seed.wrapping_add(0x2f));
        self.last_edge = None;
    }

    /// Current noise RMS.
    pub fn noise_sigma(&self) -> Voltage {
        self.noise.sigma()
    }

    /// Passes a stream through the injector: each edge samples the
    /// AC-coupled noise to get its instantaneous `Vctrl`, and is delayed by
    /// the characterized fine-line transfer at that voltage.
    pub fn inject(&mut self, input: &EdgeStream) -> EdgeStream {
        let vctrls: Vec<Voltage> = input
            .times()
            .map(|t| {
                let dt = match self.last_edge {
                    Some(prev) => (t - prev).max(Time::ZERO),
                    None => Time::from_ns(10.0), // settle into stationarity
                };
                self.last_edge = Some(t);
                let n = self.noise.advance(dt);
                (self.bias + n).clamp(self.config.vga.vctrl_min, self.config.vga.vctrl_max)
            })
            .collect();
        self.model.transform_with_vctrls(input, &vctrls)
    }

    /// The local delay-vs-voltage slope at the bias point, in seconds per
    /// volt — the injection "gain" that converts voltage noise to jitter.
    pub fn injection_slope_s_per_v(&self) -> f64 {
        let dv = Voltage::from_mv(50.0);
        let interval = Time::from_ps(320.0);
        let points = [(self.bias - dv, interval), (self.bias + dv, interval)];
        let table = self.model.table();
        table.prefetch(&points);
        let [lo, hi] = points.map(|(v, t)| table.delay_at(v, t));
        (hi - lo).as_s() / (2.0 * dv.as_v())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_measure::{tie_sequence, JitterStats};
    use vardelay_siggen::BitPattern;
    use vardelay_units::BitRate;

    fn injected_tj_pp(vpp_mv: f64) -> f64 {
        let mut injector = JitterInjector::new(&ModelConfig::paper_prototype().quiet(), 11);
        injector.set_noise_peak_to_peak(Voltage::from_mv(vpp_mv));
        let stream = EdgeStream::nrz(&BitPattern::prbs7(1, 4000), BitRate::from_gbps(3.2));
        let out = injector.inject(&stream);
        let tie = tie_sequence(&out);
        JitterStats::from_times(&tie)
            .expect("stream has edges")
            .peak_to_peak
            .as_ps()
    }

    #[test]
    fn silent_noise_adds_only_the_circuit_budget() {
        // With the noise source off, the only jitter left is the line's
        // own data-dependent jitter (envelope settling on PRBS data) —
        // which must stay within the paper's ~7 ps added-jitter budget.
        let pp = injected_tj_pp(0.0);
        assert!(pp < 8.0, "pp {pp}");
    }

    #[test]
    fn noise_injects_substantial_jitter() {
        // Paper Fig. 16: 900 mVpp noise raises TJ by ~41 ps. Accept a wide
        // band; EXPERIMENTS.md records the exact figure.
        let pp = injected_tj_pp(900.0);
        assert!((15.0..80.0).contains(&pp), "pp {pp}");
    }

    #[test]
    fn injected_jitter_grows_with_noise_amplitude() {
        let low = injected_tj_pp(300.0);
        let high = injected_tj_pp(900.0);
        assert!(high > low * 1.5, "low {low}, high {high}");
    }

    #[test]
    fn slope_is_tens_of_ps_per_volt() {
        let injector = JitterInjector::new(&ModelConfig::paper_prototype().quiet(), 1);
        let slope_ps_per_v = injector.injection_slope_s_per_v() * 1e12;
        assert!(
            (15.0..80.0).contains(&slope_ps_per_v),
            "slope {slope_ps_per_v} ps/V"
        );
    }

    #[test]
    fn bias_clamps_into_control_range() {
        let mut injector = JitterInjector::new(&ModelConfig::paper_prototype().quiet(), 1);
        injector.set_bias(Voltage::from_v(99.0));
        assert!((injector.bias().as_v() - 1.5).abs() < 1e-12);
    }
}
