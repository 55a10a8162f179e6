//! The `repro compare` gates (`vardelay_obs::journal::GATES`), checked
//! two ways:
//!
//! * a rule table: for every rule of every gate, one row where it trips
//!   on its own and one where it holds exactly at its bound, plus the
//!   rows that make a journal unusable (too few records, a thread-count
//!   mismatch, a missing field) and the record filters (zero-point and
//!   resumed records, hotpath's skip of uninstrumented ones);
//! * a golden replay: every prefix of a real journal, through every
//!   `repro compare` invocation, must give the exit code recorded for it.

use std::path::PathBuf;

use vardelay_obs::journal::{self, CompareError, Rule};
use vardelay_obs::json::Value;

/// What a gate must make of a row's records.
enum Expect {
    /// Green; the verdict line ends in `ok`.
    Green,
    /// Red on exactly these rules; the verdict line says `REGRESSED`.
    Red(&'static [Rule]),
    /// Not evaluable (`repro compare` exits 2) with this error.
    Unusable(CompareError),
}
use Expect::{Green, Red, Unusable};

fn gate(target: &str) -> &'static journal::Gate {
    journal::gate(target).expect("gate exists")
}

fn too_few(target: &str, found: usize) -> Expect {
    Unusable(CompareError::TooFewRecords {
        gate: gate(target),
        found,
    })
}

fn mismatch(older: u64, newer: u64) -> Expect {
    Unusable(CompareError::ThreadMismatch { older, newer })
}

fn missing(field: &'static str) -> Expect {
    Unusable(CompareError::MissingField(field))
}

/// A journal record of `kind` carrying only the header.
fn rec(kind: &str, threads: u64) -> Value {
    journal::header(kind, threads, "test", 0)
}

fn all(threads: u64, wall_s: f64) -> Value {
    legacy(threads, wall_s).with("csv_points", 172u64)
}

/// An `all` record without `csv_points`, as records predating the field
/// were written.
fn legacy(threads: u64, wall_s: f64) -> Value {
    rec("all", threads).with("wall_s", wall_s)
}

/// An `all` record of a run that wrote no CSV point (a skipped
/// campaign).
fn skipped(threads: u64, wall_s: f64) -> Value {
    legacy(threads, wall_s).with("csv_points", 0u64)
}

fn hot(threads: u64, solve_p99_us: f64, allocs: f64) -> Value {
    all(threads, 6.0)
        .with("solve_p99_us", solve_p99_us)
        .with("allocs_per_request", allocs)
}

fn serve(threads: u64, p99_us: f64, rps: f64) -> Value {
    rec("serve-bench", threads)
        .with("p99_us", p99_us)
        .with("throughput_rps", rps)
}

fn mt(threads: u64, p999_us: f64, fairness: f64) -> Value {
    rec("serve-bench-mt", threads)
        .with("tenants", 16u64)
        .with("p999_us", p999_us)
        .with("fairness_ratio", fairness)
}

fn soak(threads: u64, mttr_p99_us: f64, availability: f64, unhealed: u64) -> Value {
    rec("soak", threads)
        .with("incidents", 4u64)
        .with("unhealed", unhealed)
        .with("mttr_p99_us", mttr_p99_us)
        .with("availability", availability)
}

/// A `restart` record; `counts` are banks restored, banks recalibrated
/// and replay mismatches.
fn restart(threads: u64, cold_start_us: f64, warm_start_us: f64, counts: [u64; 3]) -> Value {
    let [restored, recalibrated, mismatches] = counts;
    rec("restart", threads)
        .with("cold_start_us", cold_start_us)
        .with("warm_start_us", warm_start_us)
        .with("banks_restored", restored)
        .with("banks_recalibrated", recalibrated)
        .with("wal_records_replayed", 12u64)
        .with("replay_mismatches", mismatches)
}

fn backends(violations: u64, drift: bool, detected: u64, expected: u64) -> Value {
    rec("backends", 2)
        .with("contract_violations", violations)
        .with("reference_drift", drift)
        .with("faults_detected", detected)
        .with("faults_expected", expected)
}

const WALL: Rule = Rule::Growth("wall_s", 0.10);
const P99: Rule = Rule::Growth("p99_us", 3.0);
const THROUGHPUT: Rule = Rule::Collapse("throughput_rps", 3.0);
const P999: Rule = Rule::Growth("p999_us", 3.0);
const FAIRNESS: Rule = Rule::Ceiling("fairness_ratio", 2.0);
const SOLVE: Rule = Rule::Growth("solve_p99_us", 3.0);
const ALLOCS: Rule = Rule::Growth("allocs_per_request", 0.10);
const MTTR: Rule = Rule::Growth("mttr_p99_us", 3.0);
const AVAILABILITY: Rule = Rule::Floor("availability", 0.99);
const UNHEALED: Rule = Rule::Ceiling("unhealed", 0.0);
const WARM: Rule = Rule::Growth("warm_start_us", 3.0);
const WARM_BEATS_COLD: Rule = Rule::Below("warm_start_us", "cold_start_us");
const RESTORED: Rule = Rule::Floor("banks_restored", 1.0);
const RECALIBRATED: Rule = Rule::Ceiling("banks_recalibrated", 0.0);
const MISMATCHES: Rule = Rule::Ceiling("replay_mismatches", 0.0);
const VIOLATIONS: Rule = Rule::Ceiling("contract_violations", 0.0);
const DRIFT: Rule = Rule::Ceiling("reference_drift", 0.0);
const FAULTS_CAUGHT: Rule = Rule::AtLeast("faults_detected", "faults_expected");

/// `(what the row shows, gate target, journal, expected outcome)`.
#[rustfmt::skip]
fn rows() -> Vec<(&'static str, &'static str, Vec<Value>, Expect)> {
    let (serve0, mt0, soak0) = (serve(4, 400.0, 5000.0), mt(4, 2000.0, 1.1), soak(2, 100_000.0, 1.0, 0));
    let (restart0, cold) = (restart(2, 900_000.0, 100_000.0, [1, 0, 0]), 900_000.0);
    vec![
        // all: wall-clock growth.
        ("wall at 1.1x holds",         "all", vec![all(1, 10.0), all(1, 11.0)],  Green),
        ("wall past 1.1x trips",       "all", vec![all(1, 10.0), all(1, 11.01)], Red(&[WALL])),
        ("6.0 -> 6.59 s holds",        "all", vec![all(1, 6.0), all(1, 6.59)],   Green),
        ("6.0 -> 6.61 s trips",        "all", vec![all(1, 6.0), all(1, 6.61)],   Red(&[WALL])),
        ("growth from 0 is infinite",  "all", vec![all(1, 0.0), all(1, 0.5)],    Red(&[WALL])),
        ("0 -> 0 is flat",             "all", vec![all(1, 0.0), all(1, 0.0)],    Green),
        ("legacy records compare",     "all", vec![legacy(1, 6.0), legacy(1, 6.0)], Green),
        ("one record is too few",      "all", vec![all(1, 6.0)],                 too_few("all", 1)),
        ("no record is too few",       "all", vec![],                            too_few("all", 0)),
        ("zero-point leaves one",      "all", vec![all(1, 6.0), skipped(1, 0.0)], too_few("all", 1)),
        ("resumed leaves one",         "all", vec![all(1, 6.0), all(1, 1.2).with("resumed", true)], too_few("all", 1)),
        ("widths differ",              "all", vec![all(1, 6.0), all(4, 2.0)],    mismatch(1, 4)),
        ("wall_s missing",             "all", vec![all(1, 6.0), rec("all", 1)],  missing("wall_s")),
        // serve-bench: p99 growth and throughput collapse.
        ("p99 at 4x holds",            "serve-bench", vec![serve0.clone(), serve(4, 1600.0, 5000.0)], Green),
        ("p99 past 4x trips",          "serve-bench", vec![serve0.clone(), serve(4, 1601.0, 5000.0)], Red(&[P99])),
        ("a 2x p99 step holds",        "serve-bench", vec![serve0.clone(), serve(4, 800.0, 4800.0)],  Green),
        ("p99 400 -> 1700 trips",      "serve-bench", vec![serve0.clone(), serve(4, 1700.0, 4800.0)], Red(&[P99])),
        ("rps at a quarter holds",     "serve-bench", vec![serve0.clone(), serve(4, 400.0, 1250.0)],  Green),
        ("rps under a quarter trips",  "serve-bench", vec![serve0.clone(), serve(4, 400.0, 1249.0)],  Red(&[THROUGHPUT])),
        ("rps 5000 -> 1000 trips",     "serve-bench", vec![serve0.clone(), serve(4, 400.0, 1000.0)],  Red(&[THROUGHPUT])),
        ("rps 0 -> 0 holds",           "serve-bench", vec![serve(4, 400.0, 0.0), serve(4, 400.0, 0.0)], Green),
        ("all is not serve-bench",     "serve-bench", vec![all(1, 6.0), serve0.clone()],              too_few("serve-bench", 1)),
        ("serve widths differ",        "serve-bench", vec![serve(2, 400.0, 5000.0), serve0.clone()],  mismatch(2, 4)),
        ("p99_us missing",             "serve-bench", vec![serve0.clone(), rec("serve-bench", 4)],    missing("p99_us")),
        // fairness: p99.9 growth and the newest run's fairness ratio.
        ("p99.9 at 4x holds",          "fairness", vec![mt0.clone(), mt(4, 8000.0, 1.1)], Green),
        ("p99.9 past 4x trips",        "fairness", vec![mt0.clone(), mt(4, 8001.0, 1.1)], Red(&[P999])),
        ("balanced 2x p99.9 holds",    "fairness", vec![mt0.clone(), mt(4, 4000.0, 1.3)], Green),
        ("p99.9 2000 -> 9000 trips",   "fairness", vec![mt0.clone(), mt(4, 9000.0, 1.1)], Red(&[P999])),
        ("fairness 2.0 holds",         "fairness", vec![mt0.clone(), mt(4, 2000.0, 2.0)], Green),
        ("fairness past 2.0 trips",    "fairness", vec![mt0.clone(), mt(4, 2000.0, 2.01)], Red(&[FAIRNESS])),
        ("a starved tenant trips",     "fairness", vec![mt0.clone(), mt(4, 2000.0, 9.7)], Red(&[FAIRNESS])),
        ("hot tenant trips",           "fairness", vec![mt(4, 4095.0, 1.08), mt(4, 4095.0, 9.7)], Red(&[FAIRNESS])),
        ("serve-bench is not mt",      "fairness", vec![serve0.clone(), mt0.clone()],     too_few("fairness", 1)),
        ("mt widths differ",           "fairness", vec![mt(2, 2000.0, 1.1), mt0.clone()], mismatch(2, 4)),
        ("p999_us missing",            "fairness", vec![mt0.clone(), rec("serve-bench-mt", 4)], missing("p999_us")),
        ("tenants missing",            "fairness", vec![mt0.clone(), rec("serve-bench-mt", 4).with("p999_us", 2000.0).with("fairness_ratio", 1.1)], missing("tenants")),
        // hotpath: solve p99 and allocations per request.
        ("solve at 4x holds",          "hotpath", vec![hot(4, 4000.0, 9.5), hot(4, 16000.0, 9.5)], Green),
        ("solve past 4x trips",        "hotpath", vec![hot(4, 4000.0, 9.5), hot(4, 16001.0, 9.5)], Red(&[SOLVE])),
        ("a 2x solve step holds",      "hotpath", vec![hot(4, 4000.0, 9.5), hot(4, 8000.0, 9.5)],  Green),
        ("solve 4000 -> 17000 trips",  "hotpath", vec![hot(4, 4000.0, 9.5), hot(4, 17000.0, 9.5)], Red(&[SOLVE])),
        ("allocs at 1.1x hold",        "hotpath", vec![hot(4, 4000.0, 10.0), hot(4, 4000.0, 11.0)], Green),
        ("allocs past 1.1x trip",      "hotpath", vec![hot(4, 4000.0, 10.0), hot(4, 4000.0, 11.01)], Red(&[ALLOCS])),
        ("allocs 9.5 -> 10.6 trip",    "hotpath", vec![hot(4, 4000.0, 9.5), hot(4, 4000.0, 10.6)], Red(&[ALLOCS])),
        ("skips legacy, zero, resumed", "hotpath", vec![
            all(4, 6.0),
            skipped(4, 0.1).with("solve_p99_us", 4000.0).with("allocs_per_request", 9.5),
            hot(4, 900.0, 2.0).with("resumed", true),
            hot(4, 4000.0, 9.5),
        ], too_few("hotpath", 1)),
        ("compares across legacy",     "hotpath", vec![hot(4, 4000.0, 9.5), all(4, 6.0), hot(4, 4100.0, 9.5)], Green),
        ("hotpath widths differ",      "hotpath", vec![hot(2, 4000.0, 9.5), hot(4, 4000.0, 9.5)], mismatch(2, 4)),
        // soak: MTTR growth, availability floor, no unhealed incident.
        ("mttr at 4x holds",           "soak", vec![soak0.clone(), soak(2, 400_000.0, 1.0, 0)],   Green),
        ("mttr past 4x trips",         "soak", vec![soak0.clone(), soak(2, 400_001.0, 1.0, 0)],   Red(&[MTTR])),
        ("mttr doubled holds",         "soak", vec![soak0.clone(), soak(2, 200_000.0, 0.995, 0)], Green),
        ("mttr 100 -> 500 ms trips",   "soak", vec![soak0.clone(), soak(2, 500_000.0, 1.0, 0)],   Red(&[MTTR])),
        ("availability 0.99 holds",    "soak", vec![soak0.clone(), soak(2, 100_000.0, 0.99, 0)],  Green),
        ("availability < 0.99 trips",  "soak", vec![soak0.clone(), soak(2, 100_000.0, 0.9899, 0)], Red(&[AVAILABILITY])),
        ("availability 0.97 trips",    "soak", vec![soak0.clone(), soak(2, 100_000.0, 0.97, 0)],  Red(&[AVAILABILITY])),
        ("one unhealed trips",         "soak", vec![soak0.clone(), soak(2, 100_000.0, 1.0, 1)],   Red(&[UNHEALED])),
        ("sabotage trips on unhealed", "soak", vec![soak(2, 400_000.0, 1.0, 0), soak(2, 0.0, 1.0, 4)], Red(&[UNHEALED])),
        ("drops zero-point, resumed",  "soak", vec![
            soak0.clone(),
            soak0.clone(),
            soak(2, 100_000.0, 0.5, 4).with("csv_points", 0u64),
            soak(2, 100_000.0, 0.5, 4).with("resumed", true),
        ], Green),
        ("serve-bench is not soak",    "soak", vec![serve0.clone(), soak0.clone()],               too_few("soak", 1)),
        ("soak widths differ",         "soak", vec![soak(1, 100_000.0, 1.0, 0), soak0.clone()],   mismatch(1, 2)),
        ("mttr_p99_us missing",        "soak", vec![soak0.clone(), rec("soak", 2)],               missing("mttr_p99_us")),
        // restart: warm growth, warm < cold, a bank restored, nothing
        // recalibrated, no replay mismatch.
        ("warm at 4x holds",           "restart", vec![restart0.clone(), restart(2, cold, 400_000.0, [1, 0, 0])], Green),
        ("warm past 4x trips",         "restart", vec![restart0.clone(), restart(2, cold, 400_001.0, [1, 0, 0])], Red(&[WARM])),
        ("warm doubled holds",         "restart", vec![restart0.clone(), restart(2, cold, 200_000.0, [1, 0, 0])], Green),
        ("warm 100 -> 500 ms trips",   "restart", vec![
            restart(2, 9_000_000.0, 100_000.0, [1, 0, 0]),
            restart(2, 9_000_000.0, 500_000.0, [1, 0, 0]),
        ], Red(&[WARM])),
        ("warm just under cold holds", "restart", vec![restart(2, cold, 800_000.0, [1, 0, 0]), restart(2, cold, 899_999.0, [1, 0, 0])], Green),
        ("warm equal to cold trips",   "restart", vec![restart(2, cold, 800_000.0, [1, 0, 0]), restart(2, cold, cold, [1, 0, 0])], Red(&[WARM_BEATS_COLD])),
        ("warm over cold trips",       "restart", vec![restart0.clone(), restart(2, cold, 950_000.0, [1, 0, 0])], Red(&[WARM, WARM_BEATS_COLD])),
        ("one bank restored holds",    "restart", vec![restart0.clone(), restart(2, cold, 100_000.0, [1, 0, 0])], Green),
        ("no bank restored trips",     "restart", vec![restart0.clone(), restart(2, cold, 100_000.0, [0, 0, 0])], Red(&[RESTORED])),
        ("a recalibration trips",      "restart", vec![restart0.clone(), restart(2, cold, 100_000.0, [1, 1, 0])], Red(&[RECALIBRATED])),
        ("replay mismatches trip",     "restart", vec![restart0.clone(), restart(2, cold, 100_000.0, [1, 0, 3])], Red(&[MISMATCHES])),
        ("soak is not restart",        "restart", vec![soak0.clone(), restart0.clone()],                       too_few("restart", 1)),
        ("restart widths differ",      "restart", vec![restart(1, cold, 100_000.0, [1, 0, 0]), restart0.clone()], mismatch(1, 2)),
        ("warm_start_us missing",      "restart", vec![restart0.clone(), rec("restart", 2)],                   missing("warm_start_us")),
        // backends: absolute on the newest record.
        ("one clean record holds",     "backends", vec![backends(0, false, 3, 3)],                            Green),
        ("old violations are history", "backends", vec![backends(2, true, 0, 3), backends(0, false, 3, 3)],   Green),
        ("a violation trips",          "backends", vec![backends(1, false, 3, 3)],                            Red(&[VIOLATIONS])),
        ("reference drift trips",      "backends", vec![backends(0, true, 3, 3)],                             Red(&[DRIFT])),
        ("a missed fault trips",       "backends", vec![backends(0, false, 2, 3)],                            Red(&[FAULTS_CAUGHT])),
        ("masked faults (0/0) hold",   "backends", vec![backends(0, false, 0, 0)],                            Green),
        ("drops a zero-point record",  "backends", vec![backends(0, false, 3, 3), backends(1, true, 0, 3).with("csv_points", 0u64)], Green),
        ("soak is not backends",       "backends", vec![soak0.clone()],                                       too_few("backends", 0)),
        ("violations missing",         "backends", vec![rec("backends", 2)],                                  missing("contract_violations")),
    ]
}

#[test]
fn every_rule_trips_alone_and_holds_at_its_bound() {
    for (what, target, records, expect) in rows() {
        let result = gate(target).evaluate(&records);
        match (expect, result) {
            (Green, Ok(verdict)) => {
                assert!(verdict.failed.is_empty(), "{what}: {verdict}");
                assert!(verdict.to_string().ends_with(": ok"), "{what}: {verdict}");
            }
            (Red(rules), Ok(verdict)) => {
                assert_eq!(verdict.failed, rules, "{what}: {verdict}");
                assert!(
                    verdict.to_string().contains("REGRESSED"),
                    "{what}: {verdict}"
                );
            }
            (Unusable(expected), Err(e)) => assert_eq!(e, expected, "{what}"),
            (_, Ok(verdict)) => panic!("{what}: unexpected verdict {verdict}"),
            (_, Err(e)) => panic!("{what}: unexpected error {e}"),
        }
    }
}

#[test]
fn the_latest_two_usable_records_are_the_ones_compared() {
    let wall = |r: &Value| r.get("wall_s").and_then(Value::as_f64);
    let picked = |records: &[Value]| {
        let verdict = gate("all").evaluate(records).expect("comparable");
        (wall(verdict.older), wall(verdict.newer))
    };
    // Interleaved runs of other experiments are ignored.
    let records = [
        all(1, 10.0),
        rec("fig9", 1).with("wall_s", 0.01),
        all(1, 6.0),
        all(1, 6.3),
    ];
    assert_eq!(picked(&records), (Some(6.0), Some(6.3)));
    // A skipped campaign measures nothing and never becomes a baseline.
    let records = [all(1, 6.0), all(1, 6.2), skipped(1, 0.0)];
    assert_eq!(picked(&records), (Some(6.0), Some(6.2)));
    // Nor does a partially resumed run.
    let records = [all(1, 6.0), all(1, 1.8).with("resumed", true), all(1, 6.2)];
    assert_eq!(picked(&records), (Some(6.0), Some(6.2)));
    // Hotpath compares the two instrumented records around a legacy one.
    let records = [hot(4, 4000.0, 9.5), all(4, 6.0), hot(4, 4100.0, 9.5)];
    let verdict = gate("hotpath").evaluate(&records).expect("comparable");
    let p99 = |r: &Value| r.get("solve_p99_us").and_then(Value::as_f64);
    assert_eq!(
        (p99(verdict.older), p99(verdict.newer)),
        (Some(4000.0), Some(4100.0))
    );
}

#[test]
fn the_verdict_line_shows_ratios_and_the_newest_context() {
    let line =
        |target: &str, records: &[Value]| gate(target).evaluate(records).unwrap().to_string();
    let doubled = [
        (
            "serve-bench",
            [serve(4, 400.0, 5000.0), serve(4, 800.0, 4800.0)],
        ),
        ("fairness", [mt(4, 2000.0, 1.1), mt(4, 4000.0, 1.3)]),
        ("hotpath", [hot(4, 4000.0, 9.5), hot(4, 8000.0, 9.5)]),
        (
            "soak",
            [soak(2, 100_000.0, 1.0, 0), soak(2, 200_000.0, 0.995, 0)],
        ),
        (
            "restart",
            [
                restart(2, 9e5, 1e5, [1, 0, 0]),
                restart(2, 9e5, 2e5, [1, 0, 0]),
            ],
        ),
    ];
    for (target, records) in doubled {
        let line = line(target, &records);
        assert!(
            line.contains("(2.00\u{00d7}, gate \u{2264}4\u{00d7})"),
            "{line}"
        );
    }
    assert!(line("all", &[all(1, 0.0), all(1, 0.5)]).contains("(inf\u{00d7}"));
    let context = [
        (
            "fairness",
            [mt(4, 2000.0, 1.1), mt(4, 4000.0, 1.3)],
            "tenants 16",
        ),
        (
            "soak",
            [soak(2, 1e5, 1.0, 0), soak(2, 2e5, 0.995, 0)],
            "incidents 4",
        ),
        (
            "restart",
            [
                restart(2, 9e5, 1e5, [1, 0, 0]),
                restart(2, 9e5, 2e5, [1, 0, 0]),
            ],
            "banks_restored 1",
        ),
    ];
    for (target, records, shown) in context {
        let line = line(target, &records);
        assert!(line.contains(shown), "{line}");
    }
}

#[test]
fn too_few_records_diagnostics_name_the_real_command_and_count() {
    let diagnostic = |target: &str| gate(target).evaluate(&[]).unwrap_err().to_string();
    assert_eq!(
        diagnostic("fairness"),
        "need two valid \"serve-bench-mt\" journal records to compare, found 0 after ignoring \
         zero-point and resumed records (run `repro serve-bench mt` twice)"
    );
    assert_eq!(
        diagnostic("backends"),
        "need one valid \"backends\" journal record to compare, found 0 after ignoring \
         zero-point and resumed records (run `repro backends` once)"
    );
    assert_eq!(
        diagnostic("all"),
        "need two valid \"all\" journal records to compare, found 0 after ignoring \
         zero-point and resumed records (run `repro all` twice)"
    );
}

#[test]
fn a_bare_compare_requires_all_and_arms_the_rest_once_their_records_exist() {
    let code = |records: &[Value], target| journal::exit_code(&journal::compare(records, target));
    // Only `all` is required.
    assert_eq!(code(&[], None), 2);
    assert_eq!(code(&[all(1, 6.0), all(1, 6.1)], None), 0);
    // A campaign gate with records takes part: red is 1, unusable is 2.
    let mut records = vec![all(1, 6.0), all(1, 6.1), soak(2, 100_000.0, 1.0, 0)];
    assert_eq!(code(&records, None), 0, "one soak record: soak not armed");
    records.push(soak(2, 100_000.0, 1.0, 4));
    assert_eq!(code(&records, None), 1);
    records.push(soak(1, 100_000.0, 1.0, 0));
    let results = journal::compare(&records, None);
    assert!(
        results[0].is_ok(),
        "the all verdict is kept before the error"
    );
    assert_eq!(
        results.last().unwrap().as_ref().unwrap_err(),
        &CompareError::ThreadMismatch { older: 2, newer: 1 }
    );
    assert_eq!(journal::exit_code(&results), 2);
    // A named target requires its own records.
    assert_eq!(code(&[all(1, 6.0), all(1, 6.1)], Some("soak")), 2);
    // An unknown target names the real ones.
    let results = journal::compare(&[], Some("bogus"));
    assert_eq!(journal::exit_code(&results), 2);
    let message = results[0].as_ref().unwrap_err().to_string();
    assert!(message.contains(&journal::targets()), "{message}");
}

#[test]
fn the_table_is_consistent() {
    for (i, g) in journal::GATES.iter().enumerate() {
        assert!(
            journal::GATES[..i]
                .iter()
                .all(|other| other.target != g.target),
            "{} listed twice",
            g.target
        );
        let trend = g
            .rules
            .iter()
            .any(|r| matches!(r, Rule::Growth(..) | Rule::Collapse(..)));
        assert_eq!(g.records, if trend { 2 } else { 1 }, "{}", g.target);
    }
    assert_eq!(
        journal::GATES.iter().filter(|g| g.required).count(),
        1,
        "only the all gate is required"
    );
    assert!(gate("all").required);
}

/// The exit code of every `repro compare` invocation on every prefix of
/// `tests/fixtures/BENCH_repro.json` (prefix `k` = its first `k` lines;
/// character `k` of each string). Recorded from the `repro` binary
/// before the gates became a table, by running, for each prefix `k` in
/// 0..=36 and each invocation `T`:
///
/// ```text
/// head -n $k tests/fixtures/BENCH_repro.json > $dir/BENCH_repro.json
/// (cd $dir && repro compare $T; echo $?)
/// ```
const GOLDEN: [(Option<&str>, &str); 8] = [
    (None, "2200000000000000000000000000000000000"),
    (Some("all"), "2200000000000000000000000000000000000"),
    (Some("serve-bench"), "2222222222222222222222222222222222222"),
    (Some("fairness"), "2222222222222222222222222222222222222"),
    (Some("hotpath"), "2222222222222222200000000000000000000"),
    (Some("soak"), "2222222222222222222222220000000000000"),
    (Some("restart"), "2222222222222222222222222222000000000"),
    (Some("backends"), "2222222222222222222222222222200000000"),
];

#[test]
fn every_journal_prefix_replays_to_its_golden_exit_codes() {
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/BENCH_repro.json");
    let content = std::fs::read_to_string(fixture).expect("fixture journal");
    let lines: Vec<&str> = content.lines().collect();
    assert_eq!(lines.len(), 36);
    let dir = std::env::temp_dir().join(format!("vardelay_gate_table_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_repro.json");
    for (target, golden) in GOLDEN {
        let codes: String = (0..=lines.len())
            .map(|k| {
                let prefix: String = lines[..k].iter().map(|l| format!("{l}\n")).collect();
                std::fs::write(&path, prefix).unwrap();
                let records = journal::load(&path).expect("prefix loads");
                let code = journal::exit_code(&journal::compare(&records, target));
                char::from_digit(code as u32, 10).unwrap()
            })
            .collect();
        assert_eq!(codes, golden, "repro compare {}", target.unwrap_or(""));
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
