//! The reference backend: the paper's VGA+tap circuit behind the trait.

use vardelay_core::config::ModelConfig;
use vardelay_core::drift::TempCo;
use vardelay_core::selftest::{check_calibration, test_dac, CircuitHealth};
use vardelay_core::{CalibrationTable, CombinedDelayCircuit, SetDelayError, VctrlDac};
use vardelay_faults::{corrupt_table, FaultKind};
use vardelay_runner::Runner;
use vardelay_units::{Time, Voltage};

use crate::{BackendCaps, BackendKind, BackendSetting, DelayBackend};

/// [`CombinedDelayCircuit`] as a [`DelayBackend`].
///
/// Every trait method delegates to the circuit's own API with no
/// arithmetic of its own — same constructor sub-seeds, same calibration
/// sweep (through the same measurement memo), same solve path
/// — so driving the circuit through `dyn DelayBackend` is byte-identical
/// to driving it directly. The equivalence suite in
/// `tests/equivalence.rs` pins this at every thread count.
#[derive(Debug, Clone)]
pub struct CircuitBackend {
    circuit: CombinedDelayCircuit,
    /// The pristine (calibration-point) configuration; drift rebuilds
    /// from it, mirroring the serve layer's historical injection path.
    config: ModelConfig,
    seed: u64,
}

impl CircuitBackend {
    /// Builds the circuit exactly as [`CombinedDelayCircuit::new`] does.
    pub fn new(config: &ModelConfig, seed: u64) -> CircuitBackend {
        CircuitBackend {
            circuit: CombinedDelayCircuit::new(config, seed),
            config: config.clone(),
            seed,
        }
    }

    /// The wrapped circuit (read-only; mutation goes through the trait).
    pub fn circuit(&self) -> &CombinedDelayCircuit {
        &self.circuit
    }
}

impl DelayBackend for CircuitBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Circuit
    }

    fn caps(&self) -> BackendCaps {
        BackendCaps {
            kind: BackendKind::Circuit,
            // The paper's headline: sub-picosecond fine steps.
            resolution: Time::from_ps(1.0),
            // ~95 ps of coarse taps + ~40 ps of fine range.
            min_range: Time::from_ps(120.0),
            monotone: true,
            // Retargeting is glitchless: the mux and the VGA bias both
            // settle well under the measurement interval.
            dead_time: Time::ZERO,
        }
    }

    fn control_dac(&self) -> VctrlDac {
        *self.circuit.dac()
    }

    fn calibration(&self) -> Option<&CalibrationTable> {
        self.circuit.calibration()
    }

    fn install_calibration(&mut self, table: CalibrationTable) {
        self.circuit.install_calibration(table);
    }

    fn calibrate_with(&mut self, runner: Runner) -> &CalibrationTable {
        self.circuit.calibrate_with(runner)
    }

    fn set_delay(&mut self, target: Time) -> Result<BackendSetting, SetDelayError> {
        let setting = self.circuit.set_delay(target)?;
        Ok(BackendSetting {
            tap: setting.tap,
            dac_code: setting.dac_code,
            vctrl: setting.vctrl,
            predicted_delay: setting.predicted_delay,
            predicted_error: setting.predicted_error,
            dead_time: Time::ZERO,
        })
    }

    fn total_range(&self) -> Result<Time, SetDelayError> {
        self.circuit.total_range()
    }

    fn setting_resolution(&self) -> Result<Time, SetDelayError> {
        self.circuit.setting_resolution()
    }

    fn measure_at(&self, vctrl: Voltage, interval: Time) -> Time {
        // The exact probe the core sentinel runs: a clone of the live
        // fine line, re-biased and re-measured through the quiet model.
        let mut probe = self.circuit.fine().clone();
        probe.set_vctrl(vctrl);
        probe.measure_delay(interval)
    }

    fn inject_drift(&mut self, delta_k: f64) {
        // Same shape as the serve layer's historical drift injection: a
        // fresh circuit at the shifted temperature with the stale table
        // carried over.
        let drifted = self
            .config
            .at_temperature_offset(delta_k, &TempCo::default());
        let mut fresh = CombinedDelayCircuit::new(&drifted, self.seed);
        if let Some(table) = self.circuit.calibration() {
            fresh.install_calibration(table.clone());
        }
        self.circuit = fresh;
    }

    fn inject_fault(&mut self, fault: &FaultKind) -> bool {
        match *fault {
            FaultKind::TempStep { delta_k } => {
                self.inject_drift(delta_k);
                true
            }
            FaultKind::CalibrationSpike { point, spike } => match self.circuit.calibration() {
                Some(table) => {
                    let bad = corrupt_table(table, point, spike);
                    self.circuit.install_calibration(bad);
                    true
                }
                None => false,
            },
            // DAC/mux/tap/driver faults act on layers the wrapped
            // circuit exposes separately (FaultyDac, MuxSelectFault, …);
            // the faults campaign injects them there.
            _ => false,
        }
    }

    fn clone_backend(&self) -> Box<dyn DelayBackend> {
        Box::new(self.clone())
    }

    fn self_test(&self) -> Result<CircuitHealth, SetDelayError> {
        // The circuit's table covers the fine line only (~40 ps); the
        // advertised `min_range` covers coarse + fine, so the default
        // check would flag a healthy channel. 15 ps is the fine-range
        // floor the serve selftest has always used.
        let table = self.calibration().ok_or(SetDelayError::NotCalibrated)?;
        let mut dac = self.control_dac();
        Ok(CircuitHealth {
            dac: test_dac(&mut dac),
            calibration: check_calibration(table, Time::from_ps(15.0)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_core::{Sentinel, SentinelConfig};

    #[test]
    fn trait_path_matches_direct_path_bit_for_bit() {
        let config = ModelConfig::paper_prototype();
        let mut direct = CombinedDelayCircuit::new(&config, 0x5e7e);
        let mut backend = CircuitBackend::new(&config, 0x5e7e);
        let direct_table = direct.calibrate_with(Runner::serial()).clone();
        let trait_table = backend.calibrate_with(Runner::serial()).clone();
        assert_eq!(direct_table.to_csv(), trait_table.to_csv());
        for ps in [0.0, 1.0, 17.5, 40.0, 99.9, 120.0] {
            let want = direct.set_delay(Time::from_ps(ps)).unwrap();
            let got = backend.set_delay(Time::from_ps(ps)).unwrap();
            assert_eq!(got.tap, want.tap, "{ps} ps");
            assert_eq!(got.dac_code, want.dac_code, "{ps} ps");
            assert_eq!(got.vctrl, want.vctrl, "{ps} ps");
            assert_eq!(got.predicted_delay, want.predicted_delay, "{ps} ps");
            assert_eq!(got.predicted_error, want.predicted_error, "{ps} ps");
            assert_eq!(got.dead_time, Time::ZERO);
        }
        assert_eq!(
            backend.total_range().unwrap(),
            direct.total_range().unwrap()
        );
        assert_eq!(
            backend.setting_resolution().unwrap(),
            direct.setting_resolution().unwrap()
        );
    }

    #[test]
    fn measure_at_reproduces_the_core_sentinel_probe() {
        let config = ModelConfig::paper_prototype();
        let mut backend = CircuitBackend::new(&config, 1);
        backend.calibrate_with(Runner::serial());
        let sentinel =
            Sentinel::from_circuit(backend.circuit(), SentinelConfig::default()).unwrap();
        let report = sentinel.run(9);
        for probe in &report.probes {
            assert_eq!(
                backend.measure_at(probe.vctrl, SentinelConfig::default().interval),
                probe.measured
            );
        }
    }

    #[test]
    fn drift_keeps_the_stale_table_and_moves_the_physics() {
        let config = ModelConfig::paper_prototype();
        let mut backend = CircuitBackend::new(&config, 1);
        let table = backend.calibrate_with(Runner::serial()).clone();
        backend.inject_drift(15.0);
        assert_eq!(
            backend.calibration().unwrap().to_csv(),
            table.to_csv(),
            "drift must not touch the installed table"
        );
        let vctrl = table.vctrls()[3];
        let measured = backend.measure_at(vctrl, Time::from_ps(320.0));
        assert_ne!(measured, table.delays()[3], "physics must have moved");
    }
}
