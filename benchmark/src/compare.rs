//! `compare <a.jsonl> <b.jsonl>`: two sets of runs (files written by
//! `run --record`), metric by metric and workload by workload, judged
//! against each metric's bound.

use std::collections::BTreeMap;

use vardelay_obs::json::Value;

use crate::metrics::{Better, MetricDef, END_TO_END, WORKLOADS};
use crate::stats::quartiles;

/// One recorded untraced run: workload and its metric values.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// Workload name.
    pub workload: String,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Reads the untraced runs of a `--record` file.
///
/// # Errors
///
/// The file cannot be read, or a line is not a record.
pub fn load(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |why: &str| format!("{path}:{}: {why}", n + 1);
        let record = Value::parse(line).map_err(|e| bad(&e.to_string()))?;
        if record.get("trace").and_then(Value::as_u64) != Some(0) {
            continue;
        }
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let Some(Value::Obj(metrics)) = record.get("result").and_then(|r| r.get("metrics")) else {
            return Err(bad("no result metrics"));
        };
        runs.push(Run {
            workload: workload.to_owned(),
            metrics: metrics
                .iter()
                .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
                .collect(),
        });
    }
    Ok(runs)
}

/// How a metric compares between a baseline and a candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate is no worse than the bound allows.
    Ok,
    /// The candidate's median is worse than the baseline's by more than
    /// the bound and by more than the run-to-run spread.
    Worse,
    /// The spread is too wide to tell: a difference inside it is not
    /// evidence either way.
    Unresolved,
}

/// One side's summary: quartiles and relative spread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    /// First quartile, median, third quartile.
    pub q: [f64; 3],
    /// (q3 − q1) ÷ median.
    pub spread: f64,
}

impl Side {
    fn of(values: &[f64]) -> Side {
        let q = quartiles(values);
        Side {
            q,
            spread: (q[2] - q[0]) / q[1].abs().max(f64::MIN_POSITIVE),
        }
    }
}

/// Judges candidate `b` against baseline `a` for metric `m`. A
/// difference inside the run-to-run spread is unresolved, not fine; a
/// spread wider than the bound leaves the metric unresolved unless every
/// candidate run beats every baseline run.
pub fn verdict(m: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, Side, Side, f64) {
    let (sa, sb) = (Side::of(a), Side::of(b));
    let bound = m.bound.unwrap_or(0.0);
    let change = (sb.q[1] - sa.q[1]) / sa.q[1].abs().max(f64::MIN_POSITIVE);
    let worse_by = match m.better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    let spread = sa.spread.max(sb.spread);
    let fold = |v: &[f64], pick: fn(f64, f64) -> f64, init: f64| v.iter().copied().fold(init, pick);
    let all_better = match m.better {
        Better::Lower => fold(b, f64::max, f64::MIN) < fold(a, f64::min, f64::MAX),
        Better::Higher => fold(b, f64::min, f64::MAX) > fold(a, f64::max, f64::MIN),
    };
    let v = if worse_by > bound {
        if worse_by > spread {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if spread > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (v, sa, sb, change)
}

/// Prints the comparison; returns whether any metric is worse.
///
/// # Errors
///
/// A file cannot be loaded.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut any_worse = false;
    println!(
        "{:<14} {:<17} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "a: median [q1 .. q3] spread",
        "b: median [q1 .. q3] spread",
        "change",
        "bound"
    );
    for (workload, _) in WORKLOADS {
        let values = |runs: &[Run], metric: &str| -> Vec<f64> {
            runs.iter()
                .filter(|r| r.workload == workload)
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect()
        };
        for m in &END_TO_END {
            let (va, vb) = (values(&a, m.name), values(&b, m.name));
            if va.len() < 2 || vb.len() < 2 {
                if !va.is_empty() || !vb.is_empty() {
                    println!(
                        "{workload:<14} {:<17} needs two runs a side ({} vs {}): unresolved",
                        m.name,
                        va.len(),
                        vb.len()
                    );
                }
                continue;
            }
            let (v, sa, sb, change) = verdict(m, &va, &vb);
            any_worse |= v == Verdict::Worse;
            let side = |s: Side| {
                format!(
                    "{:.5} [{:.5} .. {:.5}] {:.1}%",
                    s.q[1],
                    s.q[0],
                    s.q[2],
                    s.spread * 100.0
                )
            };
            println!(
                "{workload:<14} {:<17} {:>34} {:>34} {:>7.1}% {:>5.0}%  {}",
                m.name,
                side(sa),
                side(sb),
                change * 100.0,
                m.bound.unwrap_or(0.0) * 100.0,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "worse",
                    Verdict::Unresolved => "unresolved",
                }
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: MetricDef = MetricDef {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: Some(0.1),
    };
    const HIGHER: MetricDef = MetricDef {
        name: "throughput_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: Some(0.1),
    };

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        // Same distribution: ok.
        assert_eq!(
            verdict(&LOWER, &base, &[10.02, 9.98, 10.0, 10.1, 9.9]).0,
            Verdict::Ok
        );
        // 30 % slower, tight spreads: worse.
        assert_eq!(
            verdict(&LOWER, &base, &[13.0, 13.1, 12.9, 13.05, 12.95]).0,
            Verdict::Worse
        );
        // The same slowdown on a higher-is-better metric reads as worse too.
        assert_eq!(
            verdict(&HIGHER, &[13.0, 13.1, 12.9, 13.05, 12.95], &base).0,
            Verdict::Worse
        );
        // 30 % slower but inside a 60 % spread: unresolved, not ok.
        let wide = [6.0, 14.0, 8.0, 12.0, 10.0];
        assert_eq!(
            verdict(&LOWER, &wide, &[13.0, 17.0, 11.0, 15.0, 9.0]).0,
            Verdict::Unresolved
        );
        // A spread wider than the bound leaves even an unchanged median
        // unresolved ...
        assert_eq!(verdict(&LOWER, &wide, &wide).0, Verdict::Unresolved);
        // ... unless every candidate run beats every baseline run.
        assert_eq!(
            verdict(&LOWER, &wide, &[1.0, 1.5, 2.0, 2.5, 3.0]).0,
            Verdict::Ok
        );
    }

    #[test]
    fn records_are_read_back_untraced_only() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/test-compare");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("runs.jsonl");
        let result = |v: f64| {
            format!("{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"setup_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}")
        };
        std::fs::write(
            &path,
            format!(
                "{{\"workload\":\"steady\",\"seed\":1,\"trace\":0,\"result\":{}}}\n\
                 {{\"workload\":\"steady\",\"seed\":1,\"trace\":1,\"result\":{}}}\n",
                result(0.5),
                result(9.0)
            ),
        )
        .unwrap();
        let runs = load(path.to_str().unwrap()).unwrap();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].workload, "steady");
        assert_eq!(runs[0].metrics["setup_s"], 0.5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
