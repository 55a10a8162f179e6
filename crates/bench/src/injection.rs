//! Experiments E7–E8 (Figs. 16–17): jitter injection through `Vctrl`.

use crate::EXPERIMENT_SEED;
use vardelay_core::{JitterInjector, ModelConfig};
use vardelay_measure::{tie_sequence, JitterStats, Series};
use vardelay_runner::Runner;
use vardelay_siggen::{BitPattern, EdgeStream, GaussianRj, JitterModel};
use vardelay_units::{BitRate, Time, Voltage};

/// The figures reported for the Fig. 16 injection demonstration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InjectionResult {
    /// Total jitter of the reference (input) signal.
    pub reference_tj: Time,
    /// Output TJ with the noise source silent (circuit's own budget).
    pub baseline_tj: Time,
    /// Output TJ with the programmed noise applied.
    pub injected_tj: Time,
    /// Noise amplitude (generator peak-to-peak rating).
    pub noise_vpp: Voltage,
}

fn tj_pp(stream: &EdgeStream) -> Time {
    JitterStats::from_times(&tie_sequence(stream))
        .expect("capture carries edges")
        .peak_to_peak
}

fn reference_stream(bits: usize) -> EdgeStream {
    // Paper Fig. 16 reference: 3.2 Gb/s with ~8 ps total jitter.
    let clean = EdgeStream::nrz(&BitPattern::prbs7(1, bits), BitRate::from_gbps(3.2));
    GaussianRj::new(Time::from_ps(1.05), EXPERIMENT_SEED + 4).apply(&clean)
}

/// Fig. 16 — injecting 900 mVpp Gaussian noise at 3.2 Gb/s.
///
/// The paper raises an 8 ps reference to 69 ps of output jitter.
pub fn fig16_injection(bits: usize) -> InjectionResult {
    let vpp = Voltage::from_mv(900.0);
    let input = reference_stream(bits);
    let cfg = ModelConfig::paper_prototype().quiet();

    let mut silent = JitterInjector::new(&cfg, EXPERIMENT_SEED);
    let baseline = silent.inject(&input);

    let mut injector = JitterInjector::new(&cfg, EXPERIMENT_SEED);
    injector.set_noise_peak_to_peak(vpp);
    let injected = injector.inject(&input);

    InjectionResult {
        reference_tj: tj_pp(&input),
        baseline_tj: tj_pp(&baseline),
        injected_tj: tj_pp(&injected),
        noise_vpp: vpp,
    }
}

/// Fig. 17 — added jitter versus applied noise amplitude (0–1 Vpp).
///
/// Returns `(amplitude_v, added_jitter_ps)` where "added" is relative to
/// the silent-injector baseline, matching the paper's y-axis.
pub fn fig17_injection_sweep(bits: usize, points: usize) -> Series {
    fig17_injection_sweep_with(Runner::global(), bits, points)
}

/// [`fig17_injection_sweep`] on an explicit [`Runner`].
///
/// Each amplitude point gets a fresh injector, which is bit-identical to
/// reprogramming a shared one: [`JitterInjector::set_noise_peak_to_peak`]
/// fully resets the noise process (fixed derived seed) and edge history,
/// and the quiet model draws no per-edge RNG. The measurement memo
/// absorbs the rebuild cost — every injector's table reads the same
/// memoized cells.
pub fn fig17_injection_sweep_with(runner: Runner, bits: usize, points: usize) -> Series {
    let input = reference_stream(bits);
    let cfg = ModelConfig::paper_prototype().quiet();
    let mut silent = JitterInjector::new(&cfg, EXPERIMENT_SEED);
    let baseline = tj_pp(&silent.inject(&input));

    let vpps: Vec<Voltage> = (0..points)
        .map(|i| Voltage::from_v(i as f64 / (points - 1).max(1) as f64))
        .collect();
    let tjs = runner.par_map(&vpps, |_, &vpp| {
        let mut injector = JitterInjector::new(&cfg, EXPERIMENT_SEED);
        injector.set_noise_peak_to_peak(vpp);
        tj_pp(&injector.inject(&input))
    });
    let mut series = Series::new("injected jitter", "noise_vpp_v", "added_jitter_ps");
    for (vpp, tj) in vpps.iter().zip(&tjs) {
        series.push(vpp.as_v(), (*tj - baseline).as_ps().max(0.0));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_shape() {
        let r = fig16_injection(4000);
        // Reference ~8 ps pk-pk.
        assert!(
            (5.0..12.0).contains(&r.reference_tj.as_ps()),
            "ref {}",
            r.reference_tj
        );
        // Injection multiplies the jitter several-fold.
        assert!(
            r.injected_tj > r.baseline_tj * 2.0,
            "baseline {} injected {}",
            r.baseline_tj,
            r.injected_tj
        );
        assert!(
            (25.0..90.0).contains(&r.injected_tj.as_ps()),
            "injected {}",
            r.injected_tj
        );
    }

    #[test]
    fn fig17_is_monotone_ish() {
        let series = fig17_injection_sweep(2500, 6);
        assert_eq!(series.len(), 6);
        // Zero amplitude injects nothing.
        assert!(series.ys[0] < 3.0, "{}", series.ys[0]);
        // Largest amplitude injects the most (allowing small noise).
        let max = series.y_max().unwrap();
        assert!(
            (series.ys[5] - max).abs() < max * 0.25,
            "last {} max {max}",
            series.ys[5]
        );
        // Broadly increasing.
        assert!(series.ys[5] > series.ys[1]);
    }
}
