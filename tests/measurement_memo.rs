//! The measurement memo (DESIGN.md §7a) must never change a bit, never
//! hide drift, measure a raced point once and stay within its cap. The
//! memo and its switch are process-wide, so every test here holds one
//! lock and sets the switch it needs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use vardelay::analog::{
    clear_characterization_cache, memo_stats, set_memo_enabled, try_measure_delay_table_with,
    AnalogBlock, DelayTable, PointKey, PointMemo,
};
use vardelay::backend::{BackendSentinel, CircuitBackend, DelayBackend};
use vardelay::core::{CombinedDelayCircuit, FineDelayLine, ModelConfig, SentinelConfig, TempCo};
use vardelay::siggen::SplitMix64;
use vardelay::units::{Time, Voltage};
use vardelay_runner::Runner;

fn memo_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn quiet_line(stages: usize) -> FineDelayLine {
    let mut cfg = ModelConfig::paper_prototype().quiet();
    cfg.stages = stages;
    FineDelayLine::new(&cfg, 1)
}

fn bits(delays: &[Vec<Time>]) -> Vec<Vec<u64>> {
    delays
        .iter()
        .map(|row| row.iter().map(|d| d.as_s().to_bits()).collect())
        .collect()
}

#[test]
fn on_demand_tables_equal_eager_uncached_tables_cell_for_cell() {
    let _lock = memo_lock();
    set_memo_enabled(true);
    let mut rng = SplitMix64::new(0x5eed);
    for stages in [1, 4, 8] {
        let line = quiet_line(stages);
        let (vctrls, intervals) = line.default_grids();
        let vctrls = [vctrls[0], vctrls[4], vctrls[8]];
        let intervals = [intervals[2], intervals[5]];

        // The eager reference: every cell measured by the table engine
        // through the same quiet seed-0 line, with no memo involved.
        let cfg = line.config().quiet();
        let build = move |v: Voltage| -> Box<dyn AnalogBlock + Send> {
            let mut cell = FineDelayLine::new(&cfg, 0);
            cell.set_vctrl(v);
            Box::new(cell)
        };
        let eager = try_measure_delay_table_with(
            Runner::new(2),
            &build,
            &vctrls,
            &intervals,
            &line.config().render,
        )
        .expect("the quiet line passes the stimulus");
        let expected = bits(&eager.delays());

        for threads in [1, 2, 8] {
            clear_characterization_cache();
            let table = line.characterize_with(Runner::new(threads), &vctrls, &intervals);
            // Half the cells in one batch fan-out, then every cell read
            // one at a time in a shuffled order.
            let batch: Vec<(Voltage, Time)> = (0..vctrls.len())
                .map(|i| (vctrls[i], intervals[i % intervals.len()]))
                .collect();
            table.prefetch(&batch);
            let mut order: Vec<(usize, usize)> = (0..vctrls.len())
                .flat_map(|i| (0..intervals.len()).map(move |j| (i, j)))
                .collect();
            for k in (1..order.len()).rev() {
                order.swap(k, (rng.next_u64() % (k as u64 + 1)) as usize);
            }
            for (i, j) in order {
                let read = table.delay_at(vctrls[i], intervals[j]);
                assert_eq!(
                    read.as_s().to_bits(),
                    expected[i][j],
                    "{stages} stages, {threads} threads: cell ({i}, {j})"
                );
            }
            assert_eq!(table, eager);
        }
    }
}

#[test]
fn measurements_are_bit_identical_with_the_memo_on_and_off() {
    let _lock = memo_lock();
    let line = quiet_line(4);
    let mut common = line.clone();
    common.set_vctrl(Voltage::from_v(0.6));
    let mut staggered = line.clone();
    staggered.set_stage_vctrls(&[0.2, 0.7, 0.9, 1.4].map(Voltage::from_v));
    let drifted_cfg = line
        .config()
        .at_temperature_offset(15.0, &TempCo::default());
    let mut drifted = FineDelayLine::new(&drifted_cfg, 1);
    drifted.set_vctrl(Voltage::from_v(0.6));
    let interval = Time::from_ps(320.0);

    for (name, probe) in [
        ("common", &common),
        ("staggered", &staggered),
        ("drifted", &drifted),
    ] {
        set_memo_enabled(false);
        let direct = probe.measure_delay(interval);
        set_memo_enabled(true);
        clear_characterization_cache();
        let cold = probe.measure_delay(interval);
        let before = memo_stats();
        let warm = probe.measure_delay(interval);
        let after = memo_stats();
        assert_eq!(after.misses, before.misses, "{name}: repeat re-measured");
        assert_eq!(after.hits, before.hits + 1, "{name}: repeat missed");
        for d in [cold, warm] {
            assert_eq!(d.as_s().to_bits(), direct.as_s().to_bits(), "{name}");
        }
    }
    // Drift is part of the key, so it is measured, not aliased.
    assert_ne!(
        drifted.measure_delay(interval),
        common.measure_delay(interval)
    );

    // A whole calibration: the memo off, cold, and answered from the
    // memo by another seed's circuit give the same table, bit for bit.
    let cfg = ModelConfig::paper_prototype();
    let calibrate = |cfg: &ModelConfig, seed| {
        CombinedDelayCircuit::new(cfg, seed)
            .calibrate()
            .to_snapshot()
    };
    set_memo_enabled(false);
    let direct = calibrate(&cfg, 7);
    set_memo_enabled(true);
    clear_characterization_cache();
    assert_eq!(calibrate(&cfg, 7), direct, "cold memo diverged");
    let before = memo_stats();
    assert_eq!(calibrate(&cfg, 99), direct, "memoized calibration diverged");
    let after = memo_stats();
    assert_eq!(
        after.misses, before.misses,
        "a repeat calibration re-measured"
    );
    assert_eq!(after.hits, before.hits + 17);
    // A different stage count is a different key.
    let mut five = cfg.clone();
    five.stages = 5;
    assert_ne!(calibrate(&five, 7), direct);
}

#[test]
fn a_memoized_undrifted_point_never_hides_drift_from_the_sentinel() {
    let _lock = memo_lock();
    set_memo_enabled(true);
    let mut backend = CircuitBackend::new(&ModelConfig::paper_prototype(), 11);
    backend.calibrate_with(Runner::new(2));
    let config = SentinelConfig::default();
    let healthy = BackendSentinel::from_backend(&backend, config).expect("calibrated");
    assert_eq!(healthy.run(3).residual, Time::ZERO);

    // Every undrifted grid point is now memoized; the drifted circuit's
    // fingerprint differs, so its probes must measure afresh.
    backend.inject_drift(15.0);
    let drifted = BackendSentinel::from_backend(&backend, config).expect("calibrated");
    let report = drifted.run(3);
    assert!(
        report.residual > Time::from_ps(0.2),
        "drift hidden: residual {}",
        report.residual
    );
}

/// Two racers on one point: the leader's measurement blocks inside the
/// single-flight slot until the racer has started its lookup, so the
/// racer must wait for it instead of measuring again.
#[test]
fn racing_lookups_of_one_point_measure_once_and_count_one_miss() {
    let _lock = memo_lock();
    let memo = PointMemo::new(16);
    let key = PointKey::new(0x0ace, &[Voltage::from_v(0.75)], Time::from_ps(320.0));
    let measurements = AtomicU64::new(0);
    let barrier = Barrier::new(2);

    let measure = |lead: bool| {
        memo.get_or_measure(key.clone(), || {
            if lead {
                barrier.wait();
                // Keep the measurement in flight while the racer reaches
                // the slot.
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            measurements.fetch_add(1, Ordering::Relaxed);
            Ok(Time::from_ps(123.0))
        })
    };
    let (a, b) = std::thread::scope(|scope| {
        let leader = scope.spawn(|| measure(true));
        let racer = scope.spawn(|| {
            barrier.wait();
            measure(false)
        });
        (leader.join().unwrap(), racer.join().unwrap())
    });
    assert_eq!(a, b);
    assert_eq!(measurements.load(Ordering::Relaxed), 1, "one measurement");
    let stats = memo.stats();
    assert_eq!(stats.misses, 1, "exactly one miss for the race");
    // The racer blocked on the in-flight measurement, or, if it was
    // descheduled past the leader's finish, hit the finished one.
    assert_eq!(stats.single_flight_waits + stats.hits, 1, "{stats:?}");
}

#[test]
fn the_memo_stays_within_its_cap_and_re_measures_evicted_points_exactly() {
    let _lock = memo_lock();
    // The closures below measure for real, not through the global memo.
    set_memo_enabled(false);
    let cap = 3;
    let memo = PointMemo::new(cap);
    let line = quiet_line(1);
    let interval = Time::from_ps(110.0);
    let fingerprint = line.config().quiet().fingerprint();
    let measurements = AtomicU64::new(0);
    let lookup = |v: f64| {
        let mut probe = line.clone();
        probe.set_vctrl(Voltage::from_v(v));
        let key = PointKey::new(fingerprint, &probe.stage_vctrls(), interval);
        memo.get_or_measure(key, || {
            measurements.fetch_add(1, Ordering::Relaxed);
            probe.try_measure_delay(interval)
        })
        .expect("the quiet line passes the stimulus")
    };

    let voltages = [0.0, 0.3, 0.6, 0.9, 1.2];
    let mut first = Vec::new();
    for v in voltages {
        first.push(lookup(v));
        assert!(memo.len() <= cap, "memo holds {} > {cap}", memo.len());
    }
    assert_eq!(memo.len(), cap);
    assert_eq!(measurements.load(Ordering::Relaxed), 5);

    // The oldest point was evicted: reading it measures again, with the
    // same bits.
    let again = lookup(voltages[0]);
    assert_eq!(measurements.load(Ordering::Relaxed), 6);
    assert_eq!(again.as_s().to_bits(), first[0].as_s().to_bits());
    // The newest point is still resident.
    assert_eq!(lookup(voltages[4]), first[4]);
    assert_eq!(measurements.load(Ordering::Relaxed), 6);
    assert!(memo.len() <= cap);
}

/// Interpolation reads no cell whose weight is zero. That is exact: for
/// finite cells `low + (high − low)·0` is `low` bit for bit, so the table
/// answers what the four-cell formula would.
#[test]
fn skipping_zero_weight_cells_leaves_interpolation_bit_identical() {
    let mut rng = SplitMix64::new(0x0b11);
    let vctrls = [Voltage::ZERO, Voltage::from_v(1.5)];
    let intervals = [Time::from_ps(100.0), Time::from_ps(300.0)];
    for _ in 0..1000 {
        let mut cell = || Time::from_ps(rng.uniform(-50.0, 400.0));
        let d = [[cell(), cell()], [cell(), cell()]];
        let rows = d.iter().map(|row| row.to_vec()).collect();
        let table = DelayTable::new(vctrls.to_vec(), intervals.to_vec(), rows);
        // On the low control row, between the intervals: the high row's
        // weight is zero.
        let at = Time::from_ps(rng.uniform(100.0, 300.0));
        let fi = (at - intervals[0]) / (intervals[1] - intervals[0]);
        let low = d[0][0] + (d[0][1] - d[0][0]) * fi;
        let high = d[1][0] + (d[1][1] - d[1][0]) * fi;
        let four_cell = low + (high - low) * 0.0;
        assert_eq!(four_cell.as_s().to_bits(), low.as_s().to_bits());
        assert_eq!(
            table.delay_at(vctrls[0], at).as_s().to_bits(),
            four_cell.as_s().to_bits()
        );
    }
}
