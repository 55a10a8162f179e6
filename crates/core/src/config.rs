//! Model configuration and the paper-tuned presets.
//!
//! All behavioral constants live here, in one place, so that every
//! experiment runs from the same model. The constants are tuned once
//! against two anchors from the paper — the Fig. 7 fine-delay range
//! (~56 ps over 1.5 V for 4 stages at low rate) and the Fig. 15 roll-off
//! (4-stage range ≈ 23.5 ps at a 6.4 GHz RZ clock; 2-stage ineffective
//! beyond ~6 GHz) — and then left untouched.

use vardelay_analog::{BufferCoreConfig, VgaBufferConfig};
use vardelay_obs::Fingerprint;
use vardelay_units::{Frequency, Time, Voltage};
use vardelay_waveform::RenderConfig;

fn push_core(fp: &mut Fingerprint, core: &BufferCoreConfig) {
    fp.push_f64(core.swing.as_v())
        .push_f64(core.v_lin.as_v())
        .push_f64(core.slew_v_per_s)
        .push_f64(core.bandwidth.as_hz())
        .push_f64(core.noise_rms.as_v())
        .push_f64(core.prop_delay.as_s())
        .push_f64(core.envelope_tau.as_s())
        .push_f64(core.envelope_floor.as_v());
}

/// Complete behavioral model of one delay-circuit channel.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Parameters of each variable-gain fine stage.
    pub vga: VgaBufferConfig,
    /// Parameters of fixed-swing stages (output stage, fanout, mux).
    pub fixed: BufferCoreConfig,
    /// Number of cascaded variable-gain stages (paper: 4; early unit: 2).
    pub stages: usize,
    /// Designed coarse tap delays (paper: 0/33/66/99 ps).
    pub coarse_taps: [Time; 4],
    /// Static per-tap deviations of this physical instance (paper Fig. 9
    /// measures 0/33/70/95 ps, i.e. a few ps of manufacturing error).
    pub coarse_tap_deviations: [Time; 4],
    /// Per-edge RMS random jitter contributed by each active stage in the
    /// edge-domain model (the waveform model derives its jitter from
    /// `noise_rms` instead).
    pub stage_rj: Time,
    /// Rendering parameters used for waveform simulation and
    /// characterization.
    pub render: RenderConfig,
}

impl ModelConfig {
    /// The 4-stage prototype evaluated throughout the paper.
    pub fn paper_prototype() -> Self {
        let mut vga = VgaBufferConfig::paper_default();
        // Tuned: harder limiting keeps the input-slew dependence small so
        // the output-amplitude effect dominates, and a slightly slower slew
        // widens the per-stage range so the 4-stage cascade lands near the
        // measured ~56 ps.
        vga.core = BufferCoreConfig {
            swing: Voltage::from_mv(800.0),
            v_lin: Voltage::from_mv(35.0),
            slew_v_per_s: 0.024e12,
            bandwidth: Frequency::from_ghz(9.0),
            noise_rms: Voltage::from_mv(1.0),
            prop_delay: Time::from_ps(20.0),
            // The gain-envelope settling of the variable-gain stages is
            // what compresses the adjustment range at high toggle rates
            // (Fig. 15): a 115 ps envelope cannot re-develop the
            // programmed swing within a 78 ps half-period.
            envelope_tau: Time::from_ps(115.0),
            envelope_floor: Voltage::from_mv(40.0),
        };
        let fixed = BufferCoreConfig {
            swing: Voltage::from_mv(800.0),
            v_lin: Voltage::from_mv(35.0),
            slew_v_per_s: 0.033e12,
            bandwidth: Frequency::from_ghz(9.0),
            noise_rms: Voltage::from_mv(1.0),
            prop_delay: Time::from_ps(20.0),
            envelope_tau: Time::ZERO,
            envelope_floor: Voltage::from_mv(40.0),
        };
        ModelConfig {
            vga,
            fixed,
            stages: 4,
            coarse_taps: [
                Time::ZERO,
                Time::from_ps(33.0),
                Time::from_ps(66.0),
                Time::from_ps(99.0),
            ],
            // Fig. 9 of the paper measures 0 / 33 / 70 / 95 ps.
            coarse_tap_deviations: [
                Time::ZERO,
                Time::ZERO,
                Time::from_ps(4.0),
                Time::from_ps(-4.0),
            ],
            stage_rj: Time::from_ps(0.35),
            render: {
                // Pad the capture well past the ~250 ps total chain delay
                // so the final transitions stay inside the window.
                let mut render = RenderConfig::default_source();
                render.padding = Time::from_ps(500.0);
                render
            },
        }
    }

    /// The earlier 2-stage unit used as the comparison curve in Fig. 15.
    pub fn early_two_stage() -> Self {
        let mut cfg = Self::paper_prototype();
        cfg.stages = 2;
        // The early build used a faster-slewing but much slower-settling
        // variable-gain part: smaller per-stage range (~10 ps) and a gain
        // envelope that cannot follow beyond a few GHz — which is why its
        // usable range collapses past ~6 GHz in Fig. 15.
        cfg.vga.core.slew_v_per_s = 0.033e12;
        cfg.vga.core.envelope_tau = Time::from_ps(500.0);
        cfg.fixed.bandwidth = Frequency::from_ghz(6.0);
        cfg
    }

    /// A copy with all voltage-noise sources disabled, for clean mean-delay
    /// measurements (characterization, calibration).
    pub fn quiet(&self) -> Self {
        let mut cfg = self.clone();
        cfg.vga.core.noise_rms = Voltage::ZERO;
        cfg.fixed.noise_rms = Voltage::ZERO;
        cfg.stage_rj = Time::ZERO;
        cfg
    }

    /// Total number of active components in the combined circuit: fine
    /// stages + output stage + fanout + mux. The paper counts 7 for the
    /// 4-stage prototype and worries about jitter accumulating across them.
    pub fn active_components(&self) -> usize {
        self.stages + 3
    }

    /// Aggregate edge-domain RJ of a chain of `n` active stages
    /// (independent Gaussian contributions add in quadrature).
    pub fn chain_rj(&self, n: usize) -> Time {
        self.stage_rj * (n as f64).sqrt()
    }

    /// A 64-bit structural fingerprint of every field that can influence a
    /// measurement of this model — the model part of the measurement
    /// memo's key (see DESIGN.md §7a). Two configurations share a
    /// fingerprint only when all parameters are bit-identical, so a
    /// memoized measurement keyed on it is exact, never approximate.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        push_core(&mut fp, &self.vga.core);
        fp.push_f64(self.vga.amp_min.as_v())
            .push_f64(self.vga.amp_max.as_v())
            .push_f64(self.vga.vctrl_min.as_v())
            .push_f64(self.vga.vctrl_max.as_v())
            .push_f64(self.vga.control_sharpness);
        push_core(&mut fp, &self.fixed);
        fp.push_usize(self.stages);
        for t in &self.coarse_taps {
            fp.push_f64(t.as_s());
        }
        for t in &self.coarse_tap_deviations {
            fp.push_f64(t.as_s());
        }
        fp.push_f64(self.stage_rj.as_s());
        fp.push_f64(self.render.dt.as_s())
            .push_f64(self.render.swing.as_v())
            .push_f64(self.render.rise_time.as_s())
            .push_f64(self.render.padding.as_s());
        fp.finish()
    }

    /// Validates all nested configuration.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is out of range or `stages == 0`.
    pub fn validate(&self) {
        assert!(self.stages > 0, "at least one fine stage required");
        self.vga.validate();
        self.fixed.validate();
        assert!(self.stage_rj >= Time::ZERO, "stage RJ must be non-negative");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        ModelConfig::paper_prototype().validate();
        ModelConfig::early_two_stage().validate();
    }

    #[test]
    fn prototype_counts_seven_active_components() {
        assert_eq!(ModelConfig::paper_prototype().active_components(), 7);
        assert_eq!(ModelConfig::early_two_stage().active_components(), 5);
    }

    #[test]
    fn quiet_removes_all_noise() {
        let q = ModelConfig::paper_prototype().quiet();
        assert_eq!(q.vga.core.noise_rms, Voltage::ZERO);
        assert_eq!(q.fixed.noise_rms, Voltage::ZERO);
        assert_eq!(q.stage_rj, Time::ZERO);
    }

    #[test]
    fn chain_rj_adds_in_quadrature() {
        let cfg = ModelConfig::paper_prototype();
        let one = cfg.chain_rj(1);
        let four = cfg.chain_rj(4);
        assert!((four / one - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprint_tracks_every_measurement_parameter() {
        let base = ModelConfig::paper_prototype();
        assert_eq!(
            base.fingerprint(),
            ModelConfig::paper_prototype().fingerprint()
        );
        assert_ne!(
            base.fingerprint(),
            ModelConfig::early_two_stage().fingerprint()
        );
        // quiet() changes noise fields → must invalidate the memo key.
        assert_ne!(base.fingerprint(), base.quiet().fingerprint());
        // The served model's key, pinned bit for bit: memo keys and
        // snapshot fingerprints must not move with the hash's home.
        assert_eq!(base.quiet().fingerprint(), 0xb849_72d6_bec9_2a95);
        let mut render_tweak = base.clone();
        render_tweak.render.padding = Time::from_ps(501.0);
        assert_ne!(base.fingerprint(), render_tweak.fingerprint());
        let mut tap_tweak = base.clone();
        tap_tweak.coarse_tap_deviations[3] = Time::from_ps(-3.0);
        assert_ne!(base.fingerprint(), tap_tweak.fingerprint());
    }

    #[test]
    fn coarse_taps_step_by_33ps() {
        let cfg = ModelConfig::paper_prototype();
        for i in 1..4 {
            let step = cfg.coarse_taps[i] - cfg.coarse_taps[i - 1];
            assert!((step.as_ps() - 33.0).abs() < 1e-9);
        }
    }
}
