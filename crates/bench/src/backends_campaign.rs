//! `repro backends` — the cross-backend comparison campaign
//! (DESIGN.md §17).
//!
//! Builds every [`BackendKind`] behind the same `dyn` [`DelayBackend`]
//! trait, calibrates each one, and measures the contract every backend
//! advertises through [`BackendCaps`]: programmable resolution, total
//! range, monotonicity of the measured transfer curve, worst observed
//! retarget dead time, and solve accuracy (every in-range target lands
//! within one advertised LSB; every out-of-range target draws a *typed*
//! [`SetDelayError::OutOfRange`]). On top of the static contract the
//! campaign runs a deskew-under-faults leg per backend: an 8-channel
//! bus with seeded static skews is aligned through the trait, the
//! backend-specific fault (Vernier chain bubble, DLL lock loss, circuit
//! temperature step) is injected on one channel, a
//! [`BackendSentinel`] sweep must *detect* it, and a recalibration must
//! heal it back to the quiet-bus residual.
//!
//! The circuit row doubles as the refactor guard: its calibration CSV,
//! range, resolution, and solve settings are diffed byte-for-byte
//! against a [`CombinedDelayCircuit`] driven directly (same config,
//! same seed, same serial runner) — any divergence sets
//! `reference_drift` and turns `repro compare backends` red (see
//! [`vardelay_obs::journal::GATES`]).
//!
//! Determinism: every per-backend score runs on a serial runner with
//! seeds derived from [`EXPERIMENT_SEED`]; the campaign fans out only
//! *across* backends, and all CSV floats use fixed precision — the
//! `backends_compare.csv` artifact is byte-identical at every thread
//! count.

use std::time::{Duration, Instant};

use vardelay_backend::{make_backend, BackendKind, BackendSentinel, DelayBackend};
use vardelay_core::{CombinedDelayCircuit, ModelConfig, SentinelConfig, SetDelayError};
use vardelay_faults::FaultKind;
use vardelay_measure::Table;
use vardelay_obs::journal;
use vardelay_obs::json::Value;
use vardelay_runner::{task_seed, Runner};
use vardelay_siggen::SplitMix64;
use vardelay_units::Time;

use crate::EXPERIMENT_SEED;

/// Channels in the deskew-under-faults bus (HyperTransport-3 width,
/// matching the paper's Fig. 2 scenario).
const BUS_WIDTH: usize = 8;
/// Seeded in-range solve targets per backend.
const SOLVE_TARGETS: usize = 24;
/// Dense monotonicity sweep points across the control span.
const SWEEP_POINTS: usize = 2048;
/// Largest programmed deskew/solve target, chosen inside every
/// backend's advertised range.
const TARGET_SPAN_PS: f64 = 40.0;
/// Sentinel residual above which a fault counts as detected. The quiet
/// behavioral models reproduce their own tables bit for bit, so any
/// honest residual is fault evidence; 0.25 ps sits well under the
/// smallest injected signature (a collapsed ~0.67 ps Vernier bin).
const DETECT_THRESHOLD: Time = Time::from_ps(0.25);

/// Campaign shape. [`Default`] is what CI runs.
#[derive(Debug, Clone)]
pub struct BackendsConfig {
    /// Root seed for skews and solve targets.
    pub seed: u64,
}

impl Default for BackendsConfig {
    fn default() -> Self {
        BackendsConfig {
            seed: EXPERIMENT_SEED,
        }
    }
}

impl BackendsConfig {
    /// The default campaign (env knobs may grow here; the seed is
    /// deliberately pinned so the CSV stays comparable run-over-run).
    pub fn from_env() -> Self {
        BackendsConfig::default()
    }
}

/// Everything measured for one backend kind.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendRow {
    /// The hardware family.
    pub kind: BackendKind,
    /// Measured mean programmable step (one control-DAC LSB), ps.
    pub resolution_ps: f64,
    /// Advertised worst-case step, ps (the contract bound).
    pub cap_resolution_ps: f64,
    /// Measured total programmable range, ps.
    pub range_ps: f64,
    /// Advertised minimum range, ps (the contract bound).
    pub cap_min_range_ps: f64,
    /// Strict inversions found in the dense measured sweep.
    pub monotone_violations: u64,
    /// Worst dead time observed across the solve script and the
    /// far-retarget stress, ns.
    pub dead_time_ns: f64,
    /// Advertised worst-case dead time, ns (the contract bound).
    pub cap_dead_time_ns: f64,
    /// Solves whose `|predicted_error|` exceeded one advertised LSB.
    pub solve_violations: u64,
    /// Worst in-range solve residual, ps.
    pub max_solve_residual_ps: f64,
    /// Whether an out-of-range target drew the typed error.
    pub out_of_range_typed: bool,
    /// The backend-specific fault injected in the deskew leg
    /// (`"-"` when injection is masked).
    pub fault: String,
    /// Whether the sentinel sweep caught the injected fault.
    pub fault_detected: bool,
    /// Whether recalibration healed the faulted channel (sentinel
    /// residual back under threshold, solve back within one LSB).
    pub fault_healed: bool,
    /// Quiet-bus deskew residual (pk-pk solve error across channels), ps.
    pub deskew_quiet_ps: f64,
    /// Deskew residual after the fault was detected and healed, ps.
    pub deskew_faulted_ps: f64,
    /// Whether this row met every contract leg.
    pub contract_ok: bool,
}

/// The full campaign result.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendsReport {
    /// One row per [`BackendKind`], in `BackendKind::ALL` order.
    pub rows: Vec<BackendRow>,
    /// Whether fault injection was armed ([`vardelay_faults::enabled`]).
    pub faults_enabled: bool,
    /// Whether the circuit row diverged from the directly-driven
    /// [`CombinedDelayCircuit`] baseline in any byte.
    pub reference_drift: bool,
    /// Wall clock of the whole campaign.
    pub wall: Duration,
}

impl BackendsReport {
    /// Rows that failed their contract.
    pub fn contract_violations(&self) -> u64 {
        self.rows.iter().filter(|r| !r.contract_ok).count() as u64
    }

    /// Faults detected / expected across rows (0/0 when masked).
    pub fn faults_detected(&self) -> u64 {
        if !self.faults_enabled {
            return 0;
        }
        self.rows
            .iter()
            .filter(|r| r.fault_detected && r.fault_healed)
            .count() as u64
    }

    /// Faults the campaign expected to detect (one per backend).
    pub fn faults_expected(&self) -> u64 {
        if self.faults_enabled {
            self.rows.len() as u64
        } else {
            0
        }
    }

    /// One greppable summary line (the CI backends job asserts on it).
    pub fn summary(&self) -> String {
        format!(
            "backends: {} backend(s), contract_violations={} reference_drift={} \
             faults_detected={}/{} faults={}",
            self.rows.len(),
            self.contract_violations(),
            if self.reference_drift { "yes" } else { "no" },
            self.faults_detected(),
            self.faults_expected(),
            if self.faults_enabled { "on" } else { "off" }
        )
    }

    /// Renders the comparison as a report table (the
    /// `backends_compare.csv` artifact).
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Cross-backend comparison",
            &[
                "backend",
                "resolution_ps",
                "cap_resolution_ps",
                "range_ps",
                "cap_min_range_ps",
                "monotone_violations",
                "dead_time_ns",
                "cap_dead_time_ns",
                "solve_violations",
                "max_solve_residual_ps",
                "out_of_range_typed",
                "fault",
                "fault_detected",
                "fault_healed",
                "deskew_quiet_ps",
                "deskew_faulted_ps",
                "contract_ok",
            ],
        );
        for r in &self.rows {
            table.push_owned_row(vec![
                r.kind.name().to_owned(),
                format!("{:.4}", r.resolution_ps),
                format!("{:.4}", r.cap_resolution_ps),
                format!("{:.3}", r.range_ps),
                format!("{:.3}", r.cap_min_range_ps),
                r.monotone_violations.to_string(),
                format!("{:.3}", r.dead_time_ns),
                format!("{:.3}", r.cap_dead_time_ns),
                r.solve_violations.to_string(),
                format!("{:.4}", r.max_solve_residual_ps),
                if r.out_of_range_typed { "yes" } else { "NO" }.to_owned(),
                r.fault.clone(),
                if r.fault_detected { "yes" } else { "NO" }.to_owned(),
                if r.fault_healed { "yes" } else { "NO" }.to_owned(),
                format!("{:.4}", r.deskew_quiet_ps),
                format!("{:.4}", r.deskew_faulted_ps),
                if r.contract_ok { "yes" } else { "NO" }.to_owned(),
            ]);
        }
        table
    }

    /// The journal record `repro compare backends` gates on.
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        let threads = Runner::global().threads() as u64;
        let mut record = journal::header("backends", threads, git, unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("contract_violations", self.contract_violations())
            .with("reference_drift", self.reference_drift)
            .with("faults_detected", self.faults_detected())
            .with("faults_expected", self.faults_expected());
        for r in &self.rows {
            let name = r.kind.name();
            record = record
                .with(&format!("{name}_resolution_ps"), r.resolution_ps)
                .with(&format!("{name}_range_ps"), r.range_ps)
                .with(
                    &format!("{name}_monotone_violations"),
                    r.monotone_violations,
                )
                .with(&format!("{name}_dead_time_ns"), r.dead_time_ns)
                .with(&format!("{name}_solve_violations"), r.solve_violations)
                .with(&format!("{name}_deskew_quiet_ps"), r.deskew_quiet_ps)
                .with(&format!("{name}_deskew_faulted_ps"), r.deskew_faulted_ps);
        }
        record
    }
}

/// Runs the standard campaign on the global [`Runner`].
pub fn backends_campaign(config: &BackendsConfig) -> BackendsReport {
    backends_campaign_with(config, Runner::global())
}

/// Runs the standard campaign, fanning backend kinds out on `runner`.
///
/// Every per-backend score is a pure function of the campaign seed, so
/// the result (and its CSV) is identical at every thread count.
pub fn backends_campaign_with(config: &BackendsConfig, runner: Runner) -> BackendsReport {
    let started = Instant::now();
    let faults_enabled = vardelay_faults::enabled();
    let kinds = BackendKind::ALL;
    let rows = runner.run(kinds.len(), |i| {
        score_backend(kinds[i], config.seed, faults_enabled)
    });
    let reference_drift = !circuit_matches_reference(config.seed);
    BackendsReport {
        rows,
        faults_enabled,
        reference_drift,
        wall: started.elapsed(),
    }
}

/// The backend-specific fault the deskew leg injects for `kind`.
fn fault_for(kind: BackendKind) -> FaultKind {
    match kind {
        // The circuit has no family-specific failure mode beyond the
        // shared taxonomy; its deskew leg replays the §4 drift incident.
        BackendKind::Circuit => FaultKind::TempStep { delta_k: 40.0 },
        // A collapsed carry-chain bin early in the chain shifts every
        // downstream delay by ~0.65 ps.
        BackendKind::Vernier => FaultKind::VernierChainBubble { bin: 4 },
        // Lock loss offsets every answer by ~38 ps until relock.
        BackendKind::Dll => FaultKind::DllLockLoss,
    }
}

/// Builds and calibrates one channel of `kind`.
fn channel(kind: BackendKind, seed: u64) -> Box<dyn DelayBackend> {
    let config = ModelConfig::paper_prototype();
    let mut backend = make_backend(kind, &config, seed);
    backend.calibrate_with(Runner::serial());
    backend
}

/// Worst sentinel residual over the backend's installed table.
fn sentinel_residual(backend: &dyn DelayBackend, seed: u64) -> Time {
    BackendSentinel::from_backend(backend, SentinelConfig::default())
        .expect("calibrated backend")
        .run(seed)
        .residual
}

/// Measures one backend kind against its advertised contract.
fn score_backend(kind: BackendKind, seed: u64, faults_enabled: bool) -> BackendRow {
    let mut backend = channel(kind, task_seed(seed, kind as u64));
    let caps = backend.caps();
    let resolution = backend.setting_resolution().expect("calibrated");
    let range = backend.total_range().expect("calibrated");

    // Dense monotonicity sweep across the full control span.
    let dac = backend.control_dac();
    let max_code = (1u32 << dac.bits()) - 1;
    let (v_lo, v_hi) = (dac.voltage(0), dac.voltage(max_code));
    let mut monotone_violations = 0u64;
    let mut last = backend.measure_at(v_lo, SentinelConfig::default().interval);
    for i in 1..=SWEEP_POINTS {
        let v = v_lo.lerp(v_hi, i as f64 / SWEEP_POINTS as f64);
        let d = backend.measure_at(v, SentinelConfig::default().interval);
        if d < last {
            monotone_violations += 1;
        }
        last = d;
    }

    // Seeded solve script: every in-range target must land within one
    // advertised LSB; the worst observed dead time is the contract's
    // dead-time evidence.
    let mut rng = SplitMix64::new(task_seed(seed, 0xca3e));
    let mut solve_violations = 0u64;
    let mut max_residual = Time::ZERO;
    let mut dead_time = Time::ZERO;
    for _ in 0..SOLVE_TARGETS {
        let target = Time::from_ps(TARGET_SPAN_PS * rng.next_f64());
        let setting = backend
            .set_delay(target)
            .expect("target inside every range");
        if setting.predicted_error.abs() > caps.resolution {
            solve_violations += 1;
        }
        if setting.predicted_error.abs() > max_residual {
            max_residual = setting.predicted_error.abs();
        }
        if setting.dead_time > dead_time {
            dead_time = setting.dead_time;
        }
    }
    // Far-retarget stress: min → max exposes the DLL's relock charge.
    for ps in [1.0, range.as_ps() - 1.0] {
        let setting = backend.set_delay(Time::from_ps(ps)).expect("in range");
        if setting.dead_time > dead_time {
            dead_time = setting.dead_time;
        }
    }
    let out_of_range_typed = matches!(
        backend.set_delay(range + Time::from_ps(5.0)),
        Err(SetDelayError::OutOfRange { .. })
    );

    // Deskew leg: an 8-channel bus with seeded static skews, aligned
    // through the trait. The residual is the pk-pk solve error — what
    // the bus would actually see after each channel's programmed delay.
    let mut channels: Vec<Box<dyn DelayBackend>> = (0..BUS_WIDTH)
        .map(|ch| channel(kind, task_seed(seed, 0xb05 + ch as u64)))
        .collect();
    let mut skew_rng = SplitMix64::new(task_seed(seed, 0x5e31));
    let skews: Vec<f64> = (0..BUS_WIDTH)
        .map(|_| (TARGET_SPAN_PS - 10.0) * skew_rng.next_f64())
        .collect();
    let deskew = |channels: &mut [Box<dyn DelayBackend>]| -> (f64, f64) {
        let errors: Vec<f64> = channels
            .iter_mut()
            .zip(&skews)
            .map(|(ch, &skew)| {
                let target = Time::from_ps(TARGET_SPAN_PS - skew);
                ch.set_delay(target)
                    .expect("in range")
                    .predicted_error
                    .as_ps()
            })
            .collect();
        let lo = errors.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (hi - lo, hi.abs().max(lo.abs()))
    };
    let (deskew_quiet_ps, _) = deskew(&mut channels);

    // Fault leg (injection armed): the backend-specific fault lands on
    // one channel, the sentinel must see it, recalibration must heal
    // it, and the healed bus must deskew as well as the quiet one.
    let fault = fault_for(kind);
    let (fault_label, fault_detected, fault_healed, deskew_faulted_ps) = if faults_enabled {
        let victim = 2usize;
        assert!(
            channels[victim].inject_fault(&fault),
            "{kind} must model {fault}"
        );
        let detected = sentinel_residual(channels[victim].as_ref(), seed) > DETECT_THRESHOLD;
        channels[victim].calibrate_with(Runner::serial());
        let healed = sentinel_residual(channels[victim].as_ref(), seed) <= DETECT_THRESHOLD;
        let (residual, _) = deskew(&mut channels);
        (fault.to_string(), detected, healed, residual)
    } else {
        ("-".to_owned(), true, true, deskew_quiet_ps)
    };

    // The deskew bound: each channel's solve error is within one LSB,
    // so the pk-pk across the bus may span two.
    let deskew_bound = caps.resolution.as_ps() * 2.0;
    let contract_ok = resolution <= caps.resolution
        && range >= caps.min_range
        && (!caps.monotone || monotone_violations == 0)
        && dead_time <= caps.dead_time
        && solve_violations == 0
        && out_of_range_typed
        && fault_detected
        && fault_healed
        && deskew_quiet_ps <= deskew_bound
        && deskew_faulted_ps <= deskew_bound;
    BackendRow {
        kind,
        resolution_ps: resolution.as_ps(),
        cap_resolution_ps: caps.resolution.as_ps(),
        range_ps: range.as_ps(),
        cap_min_range_ps: caps.min_range.as_ps(),
        monotone_violations,
        dead_time_ns: dead_time.as_ps() / 1000.0,
        cap_dead_time_ns: caps.dead_time.as_ps() / 1000.0,
        solve_violations,
        max_solve_residual_ps: max_residual.as_ps(),
        out_of_range_typed,
        fault: fault_label,
        fault_detected,
        fault_healed,
        deskew_quiet_ps,
        deskew_faulted_ps,
        contract_ok,
    }
}

/// Diffs the circuit backend (through `dyn DelayBackend`) against a
/// directly driven [`CombinedDelayCircuit`] — calibration CSV bytes,
/// range, resolution, and solve settings must all match exactly.
fn circuit_matches_reference(seed: u64) -> bool {
    let config = ModelConfig::paper_prototype();
    let seed = task_seed(seed, BackendKind::Circuit as u64);
    let mut direct = CombinedDelayCircuit::new(&config, seed);
    let direct_csv = direct.calibrate_with(Runner::serial()).to_csv();
    let mut backend = channel(BackendKind::Circuit, seed);
    let backend_csv = backend.calibration().expect("just calibrated").to_csv();
    if direct_csv != backend_csv {
        return false;
    }
    if backend.total_range() != direct.total_range()
        || backend.setting_resolution() != direct.setting_resolution()
    {
        return false;
    }
    for ps in [0.0, 1.0, 17.5, TARGET_SPAN_PS, 99.9, 120.0] {
        let want = direct.set_delay(Time::from_ps(ps)).expect("in range");
        let got = backend.set_delay(Time::from_ps(ps)).expect("in range");
        if got.tap != want.tap
            || got.dac_code != want.dac_code
            || got.vctrl != want.vctrl
            || got.predicted_delay != want.predicted_delay
            || got.predicted_error != want.predicted_error
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use vardelay_obs::journal::{gate, Rule};

    /// The kill switch is process-global; tests that flip it must not
    /// interleave.
    static ENABLE_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn every_backend_meets_its_contract_and_the_reference_holds() {
        let _guard = ENABLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        vardelay_faults::set_enabled(true);
        let report = backends_campaign_with(&BackendsConfig::default(), Runner::serial());
        assert!(report.faults_enabled);
        assert_eq!(report.rows.len(), BackendKind::ALL.len());
        assert_eq!(
            report.contract_violations(),
            0,
            "failing rows: {:?}",
            report
                .rows
                .iter()
                .filter(|r| !r.contract_ok)
                .collect::<Vec<_>>()
        );
        assert!(!report.reference_drift, "circuit drifted from baseline");
        assert_eq!(report.faults_detected(), report.faults_expected());
        assert!(report.summary().contains("contract_violations=0"));
    }

    #[test]
    fn campaign_is_byte_identical_at_every_thread_count() {
        let _guard = ENABLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        vardelay_faults::set_enabled(true);
        let config = BackendsConfig::default();
        let serial = backends_campaign_with(&config, Runner::serial());
        for threads in [2, 4] {
            let parallel = backends_campaign_with(&config, Runner::new(threads));
            assert_eq!(
                serial.table().to_csv(),
                parallel.table().to_csv(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn the_record_round_trips_through_the_backends_gate() {
        let _guard = ENABLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        vardelay_faults::set_enabled(true);
        let report = backends_campaign_with(&BackendsConfig::default(), Runner::serial());
        let record = report.record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("backends")
        );
        let records = [record];
        let cmp = gate("backends")
            .unwrap()
            .evaluate(&records)
            .expect("one record suffices for the absolute gate");
        assert!(!cmp.regressed(), "{cmp}");
    }

    #[test]
    fn a_contract_violation_or_reference_drift_turns_the_gate_red() {
        let _guard = ENABLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        vardelay_faults::set_enabled(true);
        let mut report = backends_campaign_with(&BackendsConfig::default(), Runner::serial());
        report.rows[0].contract_ok = false;
        let red = [report.record("deadbeef", 1_700_000_000_000)];
        let cmp = gate("backends")
            .unwrap()
            .evaluate(&red)
            .expect("record compares");
        assert_eq!(
            cmp.failed,
            [Rule::Ceiling("contract_violations", 0.0)],
            "{cmp}"
        );
        assert!(cmp.to_string().contains("REGRESSED"), "{cmp}");

        report.rows[0].contract_ok = true;
        report.reference_drift = true;
        let drifted = [report.record("deadbeef", 1_700_000_100_000)];
        let cmp = gate("backends")
            .unwrap()
            .evaluate(&drifted)
            .expect("record compares");
        assert_eq!(cmp.failed, [Rule::Ceiling("reference_drift", 0.0)], "{cmp}");
    }

    #[test]
    fn masked_injection_skips_the_fault_leg_but_keeps_the_contract() {
        let _guard = ENABLE_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        vardelay_faults::set_enabled(false);
        let report = backends_campaign_with(&BackendsConfig::default(), Runner::serial());
        vardelay_faults::set_enabled(true);
        assert!(!report.faults_enabled);
        assert_eq!(report.faults_expected(), 0);
        assert_eq!(report.contract_violations(), 0, "{:?}", report.rows);
        assert!(report.rows.iter().all(|r| r.fault == "-"));
        assert!(report.summary().contains("faults=off"));
    }
}
