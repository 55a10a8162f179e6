//! End-to-end regression tests for the `repro` benchmark journal — the
//! ISSUE 2 headline bug: a single-experiment run (`repro fig9`) used to
//! **overwrite** the root `BENCH_repro.json`, erasing the record of the
//! last full `repro all` run. These tests drive the real binary in a
//! scratch working directory and assert the journal only ever grows.

use std::path::{Path, PathBuf};
use std::process::Command;

use vardelay_obs::journal;
use vardelay_obs::json::Value;

/// A scratch directory the repro binary runs in (its journal and
/// `target/repro/` CSVs land here, not in the repository).
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(name: &str) -> Scratch {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vardelay_repro_e2e_{name}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("BENCH_repro.json")
    }

    /// Runs `repro <arg>` with the scratch dir as cwd, returning the exit
    /// code.
    fn repro(&self, arg: &str) -> i32 {
        self.repro_env(&[arg], &[]).status.code().unwrap_or(-1)
    }

    /// Runs `repro` with arbitrary args and extra environment variables,
    /// returning the full output for stderr assertions.
    fn repro_env(&self, args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(args).current_dir(&self.dir);
        for (k, v) in envs {
            cmd.env(k, v);
        }
        cmd.output().expect("spawn repro")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn seeded_all_record(wall_s: f64) -> Value {
    Value::obj()
        .with("schema", journal::SCHEMA_VERSION)
        .with("experiments", "all")
        .with("threads", 1u64)
        .with("wall_s", wall_s)
}

#[test]
fn single_experiment_runs_append_and_never_clobber_the_all_record() {
    let scratch = Scratch::new("no_clobber");
    // The journal already holds a full-run record (legacy pretty format,
    // exactly what a pre-journal checkout carries).
    std::fs::write(
        scratch.journal_path(),
        "{\n  \"experiments\": \"all\",\n  \"threads\": 1,\n  \"wall_s\": 6.5,\n  \
         \"csv_points\": 1934\n}\n",
    )
    .unwrap();

    assert_eq!(scratch.repro("fig9"), 0);
    assert_eq!(scratch.repro("fig9"), 0);

    let records = journal::load(&scratch.journal_path()).unwrap();
    assert_eq!(
        records.len(),
        3,
        "seeded all record + two fig9 appends, no overwrite"
    );
    // The pre-existing `all` record survived, bit-for-bit in content.
    assert_eq!(
        records[0].get("experiments").and_then(Value::as_str),
        Some("all")
    );
    assert_eq!(records[0].get("wall_s").and_then(Value::as_f64), Some(6.5));
    assert_eq!(
        records[0].get("csv_points").and_then(Value::as_u64),
        Some(1934)
    );
    for r in &records[1..] {
        assert_eq!(r.get("experiments").and_then(Value::as_str), Some("fig9"));
        assert!(r.get("wall_s").and_then(Value::as_f64).is_some());
        assert!(
            r.get("csv_points").and_then(Value::as_u64).unwrap_or(0) > 0,
            "fig9 writes a CSV with data points"
        );
    }
    // And the fig9 CSV really landed under the scratch target/repro.
    assert!(scratch
        .dir
        .join("target/repro/fig09_coarse_taps.csv")
        .is_file());
}

#[test]
fn compare_gates_on_wall_clock_regression() {
    let scratch = Scratch::new("compare_gate");

    // No records at all → not comparable (exit 2).
    assert_eq!(scratch.repro("compare"), 2);

    // Two healthy runs → gate passes.
    journal::append(&scratch.journal_path(), &seeded_all_record(6.5)).unwrap();
    journal::append(&scratch.journal_path(), &seeded_all_record(6.6)).unwrap();
    assert_eq!(scratch.repro("compare"), 0);

    // A >10 % regression in the newest run → gate fails.
    journal::append(&scratch.journal_path(), &seeded_all_record(7.5)).unwrap();
    assert_eq!(scratch.repro("compare"), 1);

    // Interleaved single-figure records never confuse the gate: append a
    // fast fig9 record after the regression — compare still looks at the
    // latest two `all` records.
    journal::append(
        &scratch.journal_path(),
        &Value::obj()
            .with("schema", journal::SCHEMA_VERSION)
            .with("experiments", "fig9")
            .with("threads", 1u64)
            .with("wall_s", 0.01),
    )
    .unwrap();
    assert_eq!(scratch.repro("compare"), 1);
}

#[test]
fn unknown_subcommand_exits_with_usage_error() {
    let scratch = Scratch::new("usage");
    assert_eq!(scratch.repro("fig99"), 2);
    assert!(!Path::new(&scratch.journal_path()).exists());
    // Unknown names inside a comma selection are rejected the same way.
    assert_eq!(scratch.repro("fig9,fig99"), 2);
    assert!(!Path::new(&scratch.journal_path()).exists());
}

/// The ISSUE 4 satellite bug: `repro faults` with the injection kill
/// switch thrown (`VARDELAY_FAULTS=0`) runs no campaign and writes no
/// CSV — it used to append a `"wall_s":0,"csv_points":0` record that
/// poisoned the journal's time series. Zero-output runs must not append.
#[test]
fn zero_output_run_appends_no_journal_record() {
    let scratch = Scratch::new("zero_record");
    let out = scratch.repro_env(&["faults"], &[("VARDELAY_FAULTS", "0")]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("zero-point journal append skipped"),
        "the skip is announced: {stdout}"
    );
    assert!(
        !scratch.journal_path().exists(),
        "no journal record for a run that produced nothing"
    );
    assert!(
        !scratch
            .dir
            .join("target/repro/BENCH_repro_last.json")
            .exists(),
        "no last-run record either"
    );
}

/// `repro compare` must fail with a clear one-line error — not a panic,
/// not a silent pass — when fewer than two valid records remain after
/// filtering zero-point and resumed records.
#[test]
fn compare_reports_too_few_records_after_filtering() {
    let scratch = Scratch::new("compare_filtered");
    // One healthy record, one zero-point record (the old bug's droppings),
    // one resumed partial run: only the first is a valid baseline.
    journal::append(&scratch.journal_path(), &seeded_all_record(6.5)).unwrap();
    journal::append(
        &scratch.journal_path(),
        &seeded_all_record(0.0)
            .with("csv_points", 0u64)
            .with("csv_files", 0u64),
    )
    .unwrap();
    journal::append(
        &scratch.journal_path(),
        &seeded_all_record(1.2)
            .with("resumed", true)
            .with("resume_skips", 12u64),
    )
    .unwrap();
    let out = scratch.repro_env(&["compare"], &[]);
    assert_eq!(out.status.code(), Some(2), "not comparable → exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let line = stderr.lines().find(|l| !l.is_empty()).unwrap_or_default();
    assert!(
        line.contains("need two valid") && line.contains("found 1"),
        "one clear diagnostic line, got: {stderr}"
    );
}

/// `VARDELAY_DEADLINE_MS=N` is a per-experiment wall-clock budget: an
/// experiment past it is reported by name, is not checkpointed, and
/// turns the exit status red. Unset, the same experiment passes.
#[test]
fn an_experiment_over_its_deadline_budget_fails_the_run() {
    let scratch = Scratch::new("deadline");
    let checkpoint = scratch.dir.join("target/repro/checkpoints/fig7.json");

    let out = scratch.repro_env(&["fig7"], &[("VARDELAY_DEADLINE_MS", "1")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "over budget → exit 1: {stderr}");
    assert!(
        stderr.contains("experiment fig7: exceeded its 1 ms deadline"),
        "the diagnostic names the experiment: {stderr}"
    );
    assert!(
        !checkpoint.exists(),
        "an over-budget run is not checkpointed"
    );

    let unset = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig7")
        .current_dir(&scratch.dir)
        .env_remove("VARDELAY_DEADLINE_MS")
        .output()
        .expect("spawn repro");
    assert_eq!(
        unset.status.code(),
        Some(0),
        "no budget → exit 0: {}",
        String::from_utf8_lossy(&unset.stderr)
    );
    assert!(checkpoint.is_file(), "a clean run is checkpointed");
}
