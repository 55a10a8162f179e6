//! Pluggable delay-generation backends behind one trait.
//!
//! The paper's VGA-buffer + coarse-tap circuit (`vardelay-core`) is one
//! way to build a picosecond-resolution programmable delay; a production
//! fleet mixes it with FPGA carry-chain Vernier generators and DLL-style
//! phase interpolators that hit the same ≤1 ps budget with very
//! different resolution / range / monotonicity / dead-time trade-offs.
//! This crate defines the seam: the [`DelayBackend`] trait
//! (characterize → calibrate → `set_delay` → drift model → selftest
//! probe) plus three implementations —
//!
//! * [`CircuitBackend`] — the reference implementation, a thin wrapper
//!   over [`vardelay_core::CombinedDelayCircuit`]. Every call delegates
//!   to the exact code path the rest of the workspace already uses, so
//!   behavior through `dyn DelayBackend` is **byte-identical** to the
//!   direct path (the equivalence suite in `tests/` pins this).
//! * [`VernierBackend`] — a carry-chain Vernier pair: ~0.67 ps steps
//!   over a ~343 ps range, per-bin width nonuniformity (DNL), and a
//!   long re-arm dead time between consecutive settings.
//! * [`DllBackend`] — a DLL phase interpolator: a full-period monotone
//!   range with coarser (~2.5 ps) steps, and lock-loss transients that
//!   persist until the loop is recalibrated.
//!
//! Behavioral backends share the solve shape of the circuit — a
//! [`CalibrationTable`] inverted through a [`VctrlDac`] code — so the
//! serve layer's selftest, sentinel, snapshot and recalibration flows
//! all operate through the trait without knowing which physics sits
//! underneath. See DESIGN.md §17.

#![warn(missing_docs)]

mod circuit;
mod dll;
mod vernier;

pub use circuit::CircuitBackend;
pub use dll::DllBackend;
pub use vernier::VernierBackend;

use vardelay_core::config::ModelConfig;
use vardelay_core::selftest::{check_calibration, test_dac, CircuitHealth};
use vardelay_core::sentinel::probe_indices;
use vardelay_core::{
    CalibrationTable, SentinelConfig, SentinelProbe, SentinelReport, SetDelayError, VctrlDac,
};
use vardelay_faults::FaultKind;
use vardelay_runner::Runner;
use vardelay_units::{Time, Voltage};

// ---------------------------------------------------------------------------
// Backend identity
// ---------------------------------------------------------------------------

/// Which delay-generation hardware family a backend models.
///
/// The name doubles as the wire selector (`backend` request field), the
/// `VARDELAY_SERVE_BACKEND` environment value, and the identity folded
/// into the snapshot-store fingerprint — a calibration table snapshotted
/// by one backend can never be installed by another.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The paper's VGA-buffer + coarse-tap circuit (the reference).
    Circuit,
    /// FPGA carry-chain Vernier pair.
    Vernier,
    /// DLL phase interpolator.
    Dll,
}

impl BackendKind {
    /// Every kind, in wire-name order.
    pub const ALL: [BackendKind; 3] =
        [BackendKind::Circuit, BackendKind::Vernier, BackendKind::Dll];

    /// Stable lowercase identifier (wire field value, env value,
    /// fingerprint component, CSV label).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Circuit => "circuit",
            BackendKind::Vernier => "vernier",
            BackendKind::Dll => "dll",
        }
    }

    /// Parses a wire/env name. Case-sensitive on purpose: the wire
    /// protocol nowhere else folds case, and a selector field should
    /// not start.
    pub fn from_name(name: &str) -> Option<BackendKind> {
        BackendKind::ALL.iter().copied().find(|k| k.name() == name)
    }

    /// The valid names, comma-joined — for structured `bad_request`
    /// details listing what the caller could have asked for.
    pub fn valid_names() -> String {
        BackendKind::ALL
            .iter()
            .map(|k| k.name())
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// Whether a fault class is physically meaningful for this hardware
    /// family (DESIGN.md §17 capability table). Faults of inapplicable
    /// classes are skipped, not silently no-op'd, by campaign code.
    pub fn fault_applies(self, fault: &FaultKind) -> bool {
        match fault {
            // Every backend drives its control word through a DAC and
            // stores a measured table, and every channel has an output
            // driver.
            FaultKind::DacStuckLow { .. }
            | FaultKind::DacStuckHigh { .. }
            | FaultKind::DacFlakyBit { .. }
            | FaultKind::CalibrationSpike { .. }
            | FaultKind::DeadDriver { .. }
            | FaultKind::WeakDriver { .. }
            | FaultKind::TempStep { .. } => true,
            // Only the circuit has a 4:1 coarse mux and tap lines.
            FaultKind::MuxSelectStuck { .. } | FaultKind::TapDeviation { .. } => {
                self == BackendKind::Circuit
            }
            FaultKind::VernierChainBubble { .. } => self == BackendKind::Vernier,
            FaultKind::DllLockLoss => self == BackendKind::Dll,
        }
    }
}

impl core::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

// ---------------------------------------------------------------------------
// Capabilities and settings
// ---------------------------------------------------------------------------

/// The contract a backend advertises — what the cross-backend campaign
/// gate holds it to (`repro compare backends`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendCaps {
    /// The hardware family.
    pub kind: BackendKind,
    /// Worst-case programmable step the backend promises; the measured
    /// [`DelayBackend::setting_resolution`] must not exceed it.
    pub resolution: Time,
    /// Minimum total programmable range the backend promises; the
    /// measured [`DelayBackend::total_range`] must not fall below it.
    pub min_range: Time,
    /// Whether delay-vs-control is monotone over the full control range
    /// (a dense measured sweep must show zero strict inversions).
    pub monotone: bool,
    /// Worst-case settle/re-arm dead time a single [`DelayBackend::set_delay`]
    /// may report. Zero means retargeting is glitchless.
    pub dead_time: Time,
}

/// What one [`DelayBackend::set_delay`] programmed.
///
/// The first five fields mirror [`vardelay_core::DelaySetting`] exactly
/// — for [`CircuitBackend`] they are a field-for-field copy, which is
/// what keeps the serve wire responses byte-identical through the
/// trait. Backends without a coarse section report `tap == 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendSetting {
    /// Selected coarse tap (0 for tapless backends).
    pub tap: usize,
    /// Programmed control-DAC code.
    pub dac_code: u32,
    /// Actual control value after DAC quantization.
    pub vctrl: Voltage,
    /// The delay the backend predicts it now produces.
    pub predicted_delay: Time,
    /// `predicted_delay − target` (quantization residual).
    pub predicted_error: Time,
    /// How long the backend is dead (not producing the programmed
    /// delay) after this call: Vernier re-arm, DLL relock. Zero for the
    /// glitchless circuit.
    pub dead_time: Time,
}

// ---------------------------------------------------------------------------
// The trait
// ---------------------------------------------------------------------------

/// One channel of programmable delay generation, whatever the physics.
///
/// The lifecycle every implementation shares:
/// characterize/calibrate ([`calibrate_with`](Self::calibrate_with)) →
/// solve ([`set_delay`](Self::set_delay)) → drift
/// ([`inject_drift`](Self::inject_drift)) → sentinel probe
/// ([`measure_at`](Self::measure_at)) → selftest
/// ([`self_test`](Self::self_test)). The serve layer holds each channel
/// as `Mutex<Box<dyn DelayBackend>>` and snapshots/restores the
/// [`CalibrationTable`] through
/// [`calibration`](Self::calibration)/[`install_calibration`](Self::install_calibration).
pub trait DelayBackend: Send + core::fmt::Debug {
    /// Which hardware family this is.
    fn kind(&self) -> BackendKind;

    /// The contract this backend advertises.
    fn caps(&self) -> BackendCaps;

    /// A copy of the control DAC (for BIST sweeps; [`VctrlDac`] is
    /// `Copy`, so this is a snapshot, not a live handle).
    fn control_dac(&self) -> VctrlDac;

    /// The installed calibration table, if any.
    fn calibration(&self) -> Option<&CalibrationTable>;

    /// Installs a previously measured table (snapshot restore / WAL
    /// recovery path). Trusting it is the caller's problem — serve runs
    /// a sentinel sweep before serving from a restored table.
    fn install_calibration(&mut self, table: CalibrationTable);

    /// Measures a fresh calibration table on `runner` and installs it.
    fn calibrate_with(&mut self, runner: Runner) -> &CalibrationTable;

    /// Programs `target` (relative to the backend's minimum delay) and
    /// returns what was actually set.
    ///
    /// # Errors
    ///
    /// [`SetDelayError::NotCalibrated`] before the first calibration,
    /// [`SetDelayError::OutOfRange`] when `target` lies outside the
    /// calibrated range.
    fn set_delay(&mut self, target: Time) -> Result<BackendSetting, SetDelayError>;

    /// Total programmable range.
    ///
    /// # Errors
    ///
    /// [`SetDelayError::NotCalibrated`] before the first calibration.
    fn total_range(&self) -> Result<Time, SetDelayError>;

    /// Mean programmable step (one control-DAC LSB of delay).
    ///
    /// # Errors
    ///
    /// [`SetDelayError::NotCalibrated`] before the first calibration.
    fn setting_resolution(&self) -> Result<Time, SetDelayError>;

    /// Re-measures the delay at one control value through the backend's
    /// physics, without disturbing the programmed state — the sentinel
    /// probe primitive. Pure in the quiet model: an undrifted backend
    /// reproduces its own table bit for bit.
    fn measure_at(&self, vctrl: Voltage, interval: Time) -> Time;

    /// Steps the operating temperature `delta_k` kelvin away from the
    /// calibration point while keeping the (now stale) table installed
    /// — the drift-incident injection the soak campaign uses.
    fn inject_drift(&mut self, delta_k: f64);

    /// Applies a backend-specific fault in place. Returns whether this
    /// implementation models `fault` (a `false` from a kind whose
    /// [`BackendKind::fault_applies`] says `true` means the fault acts
    /// on a layer outside the backend, e.g. drivers).
    fn inject_fault(&mut self, fault: &FaultKind) -> bool;

    /// Deep-copies the backend (sentinels and background recalibration
    /// clone the channel so the serving lock is held only briefly).
    fn clone_backend(&self) -> Box<dyn DelayBackend>;

    /// Runs the built-in self test: a full control-DAC sweep plus a
    /// calibration-shape check against the advertised minimum range.
    ///
    /// # Errors
    ///
    /// [`SetDelayError::NotCalibrated`] before the first calibration.
    fn self_test(&self) -> Result<CircuitHealth, SetDelayError> {
        let table = self.calibration().ok_or(SetDelayError::NotCalibrated)?;
        let mut dac = self.control_dac();
        Ok(CircuitHealth {
            dac: test_dac(&mut dac),
            calibration: check_calibration(table, self.caps().min_range),
        })
    }
}

/// Builds a backend of `kind` over the shared model configuration.
/// Every kind seeds its instance randomness (Vernier bin widths, …)
/// from `seed`, so a `(kind, config, seed)` triple is reproducible.
pub fn make_backend(kind: BackendKind, config: &ModelConfig, seed: u64) -> Box<dyn DelayBackend> {
    match kind {
        BackendKind::Circuit => Box::new(CircuitBackend::new(config, seed)),
        BackendKind::Vernier => Box::new(VernierBackend::new(config, seed)),
        BackendKind::Dll => Box::new(DllBackend::new(config, seed)),
    }
}

// ---------------------------------------------------------------------------
// Trait-level sentinel
// ---------------------------------------------------------------------------

/// A drift sentinel over any [`DelayBackend`] — the trait-level twin of
/// [`vardelay_core::Sentinel`].
///
/// It probes the exact same seeded grid indices
/// ([`vardelay_core::sentinel::probe_indices`]) and folds residuals the
/// same way, so for [`CircuitBackend`] the report is byte-identical to
/// the core sentinel's — the serve health loop swaps one for the other
/// with zero behavior change (pinned by the equivalence suite).
#[derive(Debug)]
pub struct BackendSentinel {
    backend: Box<dyn DelayBackend>,
    table: CalibrationTable,
    config: SentinelConfig,
}

impl BackendSentinel {
    /// Snapshots `backend` (deep copy) and its installed table.
    ///
    /// # Errors
    ///
    /// [`SetDelayError::NotCalibrated`] when no table is installed.
    pub fn from_backend(
        backend: &dyn DelayBackend,
        config: SentinelConfig,
    ) -> Result<BackendSentinel, SetDelayError> {
        let table = backend
            .calibration()
            .ok_or(SetDelayError::NotCalibrated)?
            .clone();
        Ok(BackendSentinel {
            backend: backend.clone_backend(),
            table,
            config,
        })
    }

    /// Runs the probes: re-measures each seeded grid point through the
    /// backend's physics and reports the worst residual against the
    /// installed table.
    pub fn run(&self, seed: u64) -> SentinelReport {
        let vctrls = self.table.vctrls();
        let delays = self.table.delays();
        let mut probes = Vec::with_capacity(self.config.probes);
        let mut residual = Time::ZERO;
        for idx in probe_indices(vctrls.len(), self.config.probes, seed) {
            let measured = self.backend.measure_at(vctrls[idx], self.config.interval);
            let p = SentinelProbe {
                vctrl: vctrls[idx],
                expected: delays[idx],
                measured,
            };
            if p.residual().abs() > residual {
                residual = p.residual().abs();
            }
            probes.push(p);
        }
        SentinelReport {
            probes,
            residual,
            config: self.config,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_round_trip_and_unknowns_fail() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_name("CIRCUIT"), None);
        assert_eq!(BackendKind::from_name(""), None);
        assert_eq!(BackendKind::from_name("fpga"), None);
        assert_eq!(BackendKind::valid_names(), "circuit, vernier, dll");
    }

    #[test]
    fn capability_mapping_matches_the_taxonomy() {
        let mux = FaultKind::MuxSelectStuck {
            line: 0,
            level: true,
        };
        let bubble = FaultKind::VernierChainBubble { bin: 7 };
        assert!(BackendKind::Circuit.fault_applies(&mux));
        assert!(!BackendKind::Vernier.fault_applies(&mux));
        assert!(!BackendKind::Dll.fault_applies(&mux));
        assert!(BackendKind::Vernier.fault_applies(&bubble));
        assert!(!BackendKind::Circuit.fault_applies(&bubble));
        assert!(BackendKind::Dll.fault_applies(&FaultKind::DllLockLoss));
        assert!(!BackendKind::Circuit.fault_applies(&FaultKind::DllLockLoss));
        // Universal layers apply everywhere.
        for kind in BackendKind::ALL {
            assert!(kind.fault_applies(&FaultKind::TempStep { delta_k: 10.0 }));
            assert!(kind.fault_applies(&FaultKind::DacStuckLow { bit: 0 }));
            assert!(kind.fault_applies(&FaultKind::DeadDriver { channel: 1 }));
        }
    }

    #[test]
    fn every_kind_builds_calibrates_and_solves() {
        let config = ModelConfig::paper_prototype();
        for kind in BackendKind::ALL {
            let mut backend = make_backend(kind, &config, 7);
            assert_eq!(backend.kind(), kind);
            assert!(matches!(
                backend.set_delay(Time::from_ps(1.0)),
                Err(SetDelayError::NotCalibrated)
            ));
            backend.calibrate_with(Runner::serial());
            let range = backend.total_range().unwrap();
            assert!(
                range >= backend.caps().min_range,
                "{kind}: range {range} under advertised {}",
                backend.caps().min_range
            );
            let setting = backend.set_delay(Time::from_ps(20.0)).unwrap();
            assert!(
                setting.predicted_error.abs() <= backend.caps().resolution,
                "{kind}: error {} above advertised step {}",
                setting.predicted_error,
                backend.caps().resolution
            );
        }
    }

    #[test]
    fn self_test_is_healthy_on_every_freshly_calibrated_kind() {
        let config = ModelConfig::paper_prototype();
        for kind in BackendKind::ALL {
            let mut backend = make_backend(kind, &config, 11);
            assert!(matches!(
                backend.self_test(),
                Err(SetDelayError::NotCalibrated)
            ));
            backend.calibrate_with(Runner::serial());
            let health = backend.self_test().unwrap();
            assert!(
                health.calibration.is_healthy(),
                "{kind}: fresh calibration must pass its own selftest ({:?})",
                health.calibration
            );
        }
    }

    #[test]
    fn trait_sentinel_sees_zero_residual_on_undrifted_backends() {
        let config = ModelConfig::paper_prototype();
        for kind in BackendKind::ALL {
            let mut backend = make_backend(kind, &config, 3);
            backend.calibrate_with(Runner::serial());
            let sentinel =
                BackendSentinel::from_backend(backend.as_ref(), SentinelConfig::default()).unwrap();
            let report = sentinel.run(42);
            assert_eq!(report.residual, Time::ZERO, "{kind}: {report}");
        }
    }
}
