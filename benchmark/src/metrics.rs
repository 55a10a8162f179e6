//! The benchmark's contract: workloads, metric names, units, directions
//! and bounds. `BENCHMARK.json` at the repository root lists the same
//! table; a test keeps the two identical.

use std::collections::BTreeMap;

use vardelay_obs::json::Value;

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// One metric's definition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as keyed in results.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Good direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The workloads, each with the reason it exists.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "steady",
        "served set_delay on one resident bank: loads protocol, queue, batching, bank lookup, solve and reply write; bypasses calibration and durability",
    ),
    (
        "churn-durable",
        "10 tenants on 8 durable banks with retries and warm restarts: adds WAL, dedup, eviction snapshots and sentinel-verified restore to the request path",
    ),
    (
        "calibrate",
        "cold 17-point calibration sweeps, the cost of a drift recalibration or a cold start: waveform render, VGA chain, crossings; bypasses serving",
    ),
    (
        "figures",
        "the full 14-experiment paper reproduction, cold caches, no disk output: the simulation-heavy path users run",
    ),
];

/// End-to-end metrics; every workload reports every one. "Operation"
/// means the workload's unit of work: a served `set_delay` (timed from
/// its scheduled send), a cold calibration, or a full reproduction.
///
/// The latency bounds are 0.25, the widest a `BENCHMARK.json` bound may
/// be: on a shared two-core host, ten runs of one commit spread by up to
/// ~10 % (interquartile range over median) even while the host is steady,
/// and a bound must hold that spread with room to spare. README.md has
/// the measured spreads.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.25),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.25),
    e2e("throughput_per_s", "1/s", Better::Higher, 0.2),
];

/// Per-layer metrics from the traced run: medians of isolated calls into
/// each layer, and counts and ratios observed during the load (0 where
/// the workload's load never reaches the layer).
pub const PER_LAYER: [MetricDef; 47] = [
    layer("waveform.render_us", "us", Better::Lower),
    layer("analog.chain_us", "us", Better::Lower),
    layer("waveform.crossing_us", "us", Better::Lower),
    layer("measure.tail_mean_us", "us", Better::Lower),
    layer("core.sweep_points", "count", Better::Lower),
    layer("runner.parallel_efficiency", "ratio", Better::Higher),
    layer("backend.set_delay_us", "us", Better::Lower),
    layer("backend.vernier_calibrate_us", "us", Better::Lower),
    layer("backend.dll_calibrate_us", "us", Better::Lower),
    layer("serve.protocol.parse_us", "us", Better::Lower),
    layer("serve.protocol.render_us", "us", Better::Lower),
    layer("serve.queue.push_pop_us", "us", Better::Lower),
    layer("serve.shard.route_us", "us", Better::Lower),
    layer("serve.shard.bank_hit_us", "us", Better::Lower),
    layer("serve.shard.bank_miss_ms", "ms", Better::Lower),
    layer("serve.batched_frac", "ratio", Better::Higher),
    layer("serve.batch_size_mean", "count", Better::Higher),
    layer("unattributed_p50_us", "us", Better::Lower),
    layer("serve.shard.bank_builds", "count", Better::Lower),
    layer("serve.shard.bank_evictions", "count", Better::Lower),
    layer("serve.shard.hit_ratio", "ratio", Better::Higher),
    layer("core.sentinel.verify_ms", "ms", Better::Lower),
    layer("serve.persist.save_us", "us", Better::Lower),
    layer("serve.persist.load_us", "us", Better::Lower),
    layer("serve.wal.append_us", "us", Better::Lower),
    layer("serve.wal.records", "count", Better::Lower),
    layer("serve.wal.compactions", "count", Better::Lower),
    layer("serve.dedup.lookup_us", "us", Better::Lower),
    layer("serve.dedup.hit_frac", "ratio", Better::Higher),
    layer("serve.recovery.channels_restored", "count", Better::Higher),
    layer("bench.fig7_s", "s", Better::Lower),
    layer("bench.fig9_s", "s", Better::Lower),
    layer("bench.fig12_s", "s", Better::Lower),
    layer("bench.fig13_s", "s", Better::Lower),
    layer("bench.fig14_s", "s", Better::Lower),
    layer("bench.fig15_s", "s", Better::Lower),
    layer("bench.fig16_s", "s", Better::Lower),
    layer("bench.fig17_s", "s", Better::Lower),
    layer("bench.fig2_s", "s", Better::Lower),
    layer("bench.fig1_s", "s", Better::Lower),
    layer("bench.table1_s", "s", Better::Lower),
    layer("bench.ablation_s", "s", Better::Lower),
    layer("bench.extensions_s", "s", Better::Lower),
    layer("bench.faults_s", "s", Better::Lower),
    layer("analog.cache_misses", "count", Better::Lower),
    layer("core.solve.misses", "count", Better::Lower),
    layer("waveform.pool_allocs", "count", Better::Lower),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

/// The outcome of one workload run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (requests, calibrations, reproductions,
    /// restart probes).
    pub attempted: u64,
    /// Operations that failed: error replies, transport errors, missing
    /// replies and oracle mismatches.
    pub failed: u64,
    /// Why, for the first few failures.
    pub failures: Vec<String>,
    /// Whole-run checks that passed or failed (digests, bit-exactness).
    pub correct: bool,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

/// Failure reasons kept for the human-readable output.
const FAILURES_SHOWN: usize = 10;

impl Report {
    /// An empty, so far correct report.
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: usize) {
        self.attempted += n as u64;
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.failures.len() < FAILURES_SHOWN {
            self.failures.push(why.into());
        }
    }

    /// Records a failed whole-run check (not tied to one operation).
    pub fn fail_check(&mut self, why: impl Into<String>) {
        self.correct = false;
        if self.failures.len() < FAILURES_SHOWN {
            self.failures.push(why.into());
        }
    }

    /// Sets a metric. Panics on a name missing from the tables: a typo
    /// here would otherwise print a metric `BENCHMARK.json` does not list.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(def(name).is_some(), "unknown metric {name}");
        self.metrics.insert(name, value);
    }

    /// Whether every operation and check passed.
    pub fn is_correct(&self) -> bool {
        self.correct && self.failed == 0
    }

    /// The result line: exactly the metrics of `table`, in its order.
    ///
    /// # Panics
    ///
    /// Panics if a metric of `table` was never set.
    pub fn to_json(&self, table: &[MetricDef]) -> Value {
        let mut metrics = Value::obj();
        for m in table {
            let value = *self
                .metrics
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
            metrics = metrics.with(
                m.name,
                Value::obj().with("value", value).with("unit", m.unit),
            );
        }
        Value::obj()
            .with("correct", self.is_correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Value::parse(&text).expect("BENCHMARK.json parses")
    }

    fn check_table(listed: &Value, table: &[MetricDef], with_bound: bool) {
        let listed = listed.as_arr().expect("metric list");
        assert_eq!(listed.len(), table.len());
        for (entry, m) in listed.iter().zip(table) {
            let str_of = |k: &str| entry.get(k).and_then(Value::as_str);
            assert_eq!(str_of("name"), Some(m.name));
            assert_eq!(str_of("unit"), Some(m.unit), "{}", m.name);
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(str_of("better"), Some(better), "{}", m.name);
            let bound = entry.get("bound").and_then(Value::as_f64);
            assert_eq!(bound, if with_bound { m.bound } else { None }, "{}", m.name);
        }
    }

    #[test]
    fn benchmark_json_lists_this_table() {
        let json = benchmark_json();
        let workloads = json.get("workloads").and_then(Value::as_arr).unwrap();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(name));
            assert_eq!(entry.get("why").and_then(Value::as_str), Some(why));
        }
        check_table(json.get("end_to_end").unwrap(), &END_TO_END, true);
        check_table(json.get("per_layer").unwrap(), &PER_LAYER, false);
    }

    #[test]
    fn names_are_unique_and_bounds_at_most_a_quarter() {
        let mut names: Vec<_> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut r = Report::new();
        r.attempt(3);
        for m in &END_TO_END {
            r.set(m.name, 1.5);
        }
        let line = r.to_json(&END_TO_END).render();
        let v = Value::parse(&line).unwrap();
        let Value::Obj(pairs) = &v else { panic!() };
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(Value::as_f64), Some(1.5));
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        r.fail("x");
        assert!(!r.is_correct());
    }
}
