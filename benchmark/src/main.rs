//! The vardelay benchmark. Run from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--record FILE]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- compare A.jsonl B.jsonl
//! ```
//!
//! `run` measures each workload (all four without `--workload`) in a fresh
//! child process of itself with every `VARDELAY_*` variable removed,
//! prints every metric by name and unit, checks every output, and ends
//! with one JSON result line. `--trace 1` also replays the workload's
//! inputs layer by layer, prints the per-layer metrics and the tracing
//! overhead, and writes the spans to `benchmark/target/`. `--record`
//! appends each result to a file that `compare` reads. The exit code is
//! non-zero when any check fails. See README.md.

mod compare;
mod gen;
mod load;
mod metrics;
mod oracle;
mod replay;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use vardelay_obs::json::Value;

use metrics::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;
use workloads::{Ctx, ScratchGuard};

/// A child that runs longer than this is killed: every run must end
/// within three minutes.
const CHILD_TIMEOUT: Duration = Duration::from_secs(170);

/// Marks the child's result line on its standard output.
const RESULT_PREFIX: &str = "RESULT ";

/// `run`'s default measuring time: `run_seconds` in BENCHMARK.json.
const DEFAULT_SECONDS: f64 = 15.0;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    record: Option<String>,
}

fn usage() -> String {
    let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: vardelay-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--record FILE]\n\
         \x20      vardelay-benchmark compare A.jsonl B.jsonl\n\
         workloads: {}",
        names.join(" ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        record: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
        match (flag, value) {
            ("--trace", None) => out.trace = true,
            ("--trace", Some(v)) => {
                out.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            ("--workload", Some(v)) => {
                if !WORKLOADS.iter().any(|(n, _)| n == v) {
                    return Err(format!("unknown workload {v:?}"));
                }
                out.workload = Some(v.clone());
            }
            ("--seed", Some(v)) => out.seed = v.parse().map_err(|_| format!("bad --seed {v:?}"))?,
            ("--seconds", Some(v)) => {
                out.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or_else(|| format!("--seconds takes a number in (0, 60], not {v:?}"))?;
            }
            ("--record", Some(v)) => out.record = Some(v.clone()),
            (flag, _) => return Err(format!("unexpected argument {flag:?}")),
        }
        i += if value.is_some() { 2 } else { 1 };
    }
    Ok(out)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `benchmark/target`, where trace files and scratch state live.
fn target_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("target")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => parse_args(&args[1..]).map(|a| run(&a)),
        Some("child") => parse_args(&args[1..]).map(|a| child(&a)),
        Some("compare") if args.len() == 3 => compare::run(&args[1], &args[2]).map(i32::from),
        _ => Err("no command".to_owned()),
    };
    match code {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("vardelay-benchmark: {e}\n{}", usage());
            std::process::exit(2);
        }
    }
}

// ---------------------------------------------------------------------------
// run: one child per workload
// ---------------------------------------------------------------------------

fn run(args: &Args) -> i32 {
    let started = Instant::now();
    let workloads: Vec<&str> = match &args.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut results = Vec::new();
    for workload in workloads {
        match run_child(workload, args) {
            Ok(result) => {
                if let Some(path) = &args.record {
                    let record = Value::obj()
                        .with("workload", workload)
                        .with("seed", args.seed)
                        .with("trace", u64::from(args.trace))
                        .with("result", result.clone());
                    if let Err(e) = append_line(path, &record.render()) {
                        eprintln!("vardelay-benchmark: cannot record to {path}: {e}");
                        return 1;
                    }
                }
                results.push((workload, result));
            }
            Err(e) => {
                eprintln!("vardelay-benchmark: {workload}: {e}");
                return 1;
            }
        }
    }
    println!(
        "run: total wall time {:.2} s",
        started.elapsed().as_secs_f64()
    );
    let correct = results
        .iter()
        .all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true));
    let line = match results.as_slice() {
        [(_, only)] => only.clone(),
        _ => merged(&results),
    };
    println!("{}", line.render());
    i32::from(!correct)
}

/// All workloads' results in one line, metrics keyed `workload/metric`.
fn merged(results: &[(&str, Value)]) -> Value {
    let num = |r: &Value, k: &str| r.get(k).and_then(Value::as_u64).unwrap_or(0);
    let mut metrics = Value::obj();
    for (workload, r) in results {
        if let Some(Value::Obj(pairs)) = r.get("metrics") {
            for (name, v) in pairs {
                metrics = metrics.with(&format!("{workload}/{name}"), v.clone());
            }
        }
    }
    Value::obj()
        .with(
            "correct",
            results
                .iter()
                .all(|(_, r)| r.get("correct").and_then(Value::as_bool) == Some(true)),
        )
        .with(
            "attempted",
            results
                .iter()
                .map(|(_, r)| num(r, "attempted"))
                .sum::<u64>(),
        )
        .with(
            "failed",
            results.iter().map(|(_, r)| num(r, "failed")).sum::<u64>(),
        )
        .with("metrics", metrics)
}

fn append_line(path: &str, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(file, "{line}")
}

/// Runs one workload in a fresh child process, forwarding its output,
/// and returns its result line.
fn run_child(workload: &str, args: &Args) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([
        "child",
        "--workload",
        workload,
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &args.seconds.to_string(),
        "--trace",
        if args.trace { "1" } else { "0" },
    ])
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("VARDELAY_") {
            cmd.env_remove(key);
        }
    }
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let forward = std::thread::spawn(move || {
        let mut result = None;
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            match line.strip_prefix(RESULT_PREFIX) {
                Some(json) => result = Some(json.to_owned()),
                None => println!("{line}"),
            }
        }
        result
    });
    let started = Instant::now();
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) if started.elapsed() > CHILD_TIMEOUT => {
                let _ = child.kill();
                let _ = child.wait();
                break Err(format!("killed after {} s", CHILD_TIMEOUT.as_secs()));
            }
            Ok(None) => std::thread::sleep(Duration::from_millis(20)),
            Err(e) => break Err(format!("waiting for the child: {e}")),
        }
    };
    let result = forward
        .join()
        .map_err(|_| "output thread panicked".to_owned())?;
    let status = status?;
    let json = result.ok_or_else(|| format!("child exited with {status} and no result"))?;
    Value::parse(&json).map_err(|e| format!("unparsable child result: {e}"))
}

// ---------------------------------------------------------------------------
// child: one workload in this process
// ---------------------------------------------------------------------------

fn child(args: &Args) -> i32 {
    let Some(workload) = args.workload.as_deref() else {
        eprintln!("child: --workload is required");
        return 2;
    };
    let scratch = target_dir()
        .join("tmp")
        .join(format!("{workload}-{}", std::process::id()));
    let guard = match ScratchGuard::create(&scratch) {
        Ok(guard) => guard,
        Err(e) => {
            eprintln!("cannot create {}: {e}", scratch.display());
            return 1;
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: nproc(),
        scratch: guard.0.clone(),
    };
    println!(
        "== {workload} (seed {}, {} s, {} cores){}",
        ctx.seed,
        ctx.seconds,
        ctx.nproc,
        if args.trace { ", traced" } else { "" }
    );
    let report = if args.trace {
        traced(workload, &ctx)
    } else {
        workloads::measure(workload, &ctx, None).map(|m| m.report)
    };
    drop(guard);
    match report {
        Ok(report) => {
            println!(
                "  checks: {} attempted, {} failed",
                report.attempted, report.failed
            );
            for why in &report.failures {
                println!("  FAILED: {why}");
            }
            let table: &[_] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!("{RESULT_PREFIX}{}", report.to_json(table).render());
            i32::from(!report.is_correct())
        }
        Err(e) => {
            eprintln!("{workload}: {e}");
            1
        }
    }
}

/// The traced run: an untraced pass for reference, the same pass with
/// spans, then the layer-by-layer replay of its inputs.
fn traced(workload: &str, ctx: &Ctx) -> Result<Report, String> {
    println!("-- untraced pass");
    let plain = workloads::measure(workload, ctx, None)?;
    println!("-- traced pass");
    let mut tracer = Tracer::new();
    let traced = workloads::measure(workload, ctx, Some(&mut tracer))?;
    println!("-- tracing overhead (traced - untraced)");
    for m in &END_TO_END {
        let (a, b) = (plain.report.metrics[m.name], traced.report.metrics[m.name]);
        println!(
            "  {} {:+.6} {} ({:+.2}%)",
            m.name,
            b - a,
            m.unit,
            (b - a) / a.abs().max(f64::MIN_POSITIVE) * 100.0
        );
    }
    let mut report = Report::new();
    for m in &PER_LAYER {
        report.set(m.name, 0.0);
    }
    for (&name, &value) in &traced.live {
        report.set(name, value);
    }
    let replay_started = Instant::now();
    let replayed = replay::replay(
        &traced.replay,
        ctx.seed,
        &ctx.scratch,
        ctx.nproc,
        &mut tracer,
        &mut report,
    );
    println!("-- replay: {:.2} s", replay_started.elapsed().as_secs_f64());
    for (name, value) in replayed {
        report.set(name, value);
    }
    for side in [&plain.report, &traced.report] {
        report.attempted += side.attempted;
        report.failed += side.failed;
        report.correct &= side.correct;
        report
            .failures
            .extend(side.failures.iter().take(5).cloned());
    }
    println!("-- self time by span (count, total ms, self ms)");
    for (name, t) in tracer.self_times() {
        println!(
            "  {name:<32} {:>8} {:>12.3} {:>12.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        );
    }
    println!("-- per-layer metrics");
    for m in &PER_LAYER {
        println!("  {} = {} {}", m.name, report.metrics[m.name], m.unit);
    }
    let path = target_dir().join(format!("trace-{workload}-{}.json", ctx.seed));
    let header = Value::obj()
        .with("workload", workload)
        .with("seed", ctx.seed)
        .with("seconds", ctx.seconds);
    match tracer.write(&path, header) {
        Ok(()) => println!(
            "-- {} spans written to {}",
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => report.fail_check(format!("cannot write {}: {e}", path.display())),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn run_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "steady",
            "--seed",
            "7",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("steady"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15.0, false));
        assert!(parse_args(&strings(&["--trace", "1"])).unwrap().trace);
        assert!(parse_args(&strings(&["--trace"])).unwrap().trace);
        assert!(
            parse_args(&strings(&["--trace", "--seed", "3"]))
                .unwrap()
                .trace
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--bogus"])).is_err());
    }
}
