//! The append-only benchmark journal and its regression gates.
//!
//! `BENCH_repro.json` is a JSONL file: **one JSON object per line, one
//! line per `repro` run**, appended — never overwritten — so the
//! repository's performance trajectory is a real time series. A
//! `fig9`-only run can no longer clobber the record of a full `all` run;
//! it just adds a line keyed by its own `experiments` field.
//!
//! Record schema (`schema: 1`), all fields flat except
//! `per_experiment_s`; every record opens with the [`header`] keys:
//!
//! ```json
//! {"schema":1,"experiments":"all","threads":4,"git":"d813bb2",
//!  "unix_ms":1754550000000,"wall_s":6.5,"csv_files":12,
//!  "csv_points":1934,"points_per_s":297.5,"cache_hits":508,
//!  "cache_misses":313,"single_flight_waits":0,
//!  "per_experiment_s":{"fig7":0.9}}
//! ```
//!
//! The `cache_*` fields count measurement-memo point lookups (older
//! records counted whole tables and carried `solve_*` fields). No gate
//! reads them.
//!
//! The gates: [`GATES`] is the one table of `repro compare` regression
//! gates. Each row names its target, the record kind it reads, the
//! command that writes that kind, how many records it needs and its
//! [`Rule`]s. [`Gate::evaluate`] is the one evaluator, [`Verdict`]'s
//! `Display` the one renderer, and [`compare`] runs the gates one
//! `repro compare [target]` invocation selects.

use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Value;

/// Version stamped into every record's `schema` field.
pub const SCHEMA_VERSION: u64 = 1;

/// How long [`JournalLock::acquire`] spins before giving up.
const LOCK_TIMEOUT: Duration = Duration::from_secs(2);

/// A lock file whose holder cannot be proven alive after this age is
/// considered abandoned (fallback for lock files without a readable pid,
/// e.g. written by a foreign tool).
const LOCK_STALE_AGE: Duration = Duration::from_secs(30);

/// An advisory inter-process lock guarding journal mutations.
///
/// The lock is a sibling `<journal>.lock` file created with
/// `O_CREAT | O_EXCL` and holding the owner's pid; it is removed on
/// [`Drop`]. Two concurrent `repro` processes therefore serialize their
/// appends (and the torn-tail-repair rewrite, which is *not* atomic on
/// its own). A lock whose recorded pid is no longer alive — the holder
/// crashed between create and remove — is broken automatically, so a
/// killed campaign never wedges the journal.
#[derive(Debug)]
pub struct JournalLock {
    lock_path: PathBuf,
}

impl JournalLock {
    /// Acquires the advisory lock for `journal`, spinning (5 ms steps)
    /// up to [`LOCK_TIMEOUT`] and breaking stale locks left by dead
    /// holders.
    ///
    /// # Errors
    ///
    /// `TimedOut` when a live holder keeps the lock past the timeout, or
    /// the underlying I/O error from creating the lock file.
    pub fn acquire(journal: &Path) -> io::Result<JournalLock> {
        let lock_path = lock_path_for(journal);
        let deadline = Instant::now() + LOCK_TIMEOUT;
        loop {
            match OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&lock_path)
            {
                Ok(mut file) => {
                    // Best-effort pid tag: staleness detection reads it.
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(JournalLock { lock_path });
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    if lock_is_stale(&lock_path) {
                        crate::metrics::counter("journal.stale_locks_broken").incr();
                        let _ = std::fs::remove_file(&lock_path);
                        continue;
                    }
                    if Instant::now() >= deadline {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!(
                                "journal lock {} held past {:?} by a live process",
                                lock_path.display(),
                                LOCK_TIMEOUT
                            ),
                        ));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(e),
            }
        }
    }
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

/// The sibling lock-file path for a journal (`BENCH_repro.json` →
/// `BENCH_repro.json.lock`).
pub fn lock_path_for(journal: &Path) -> PathBuf {
    let mut name = journal
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "journal".to_owned());
    name.push_str(".lock");
    journal.with_file_name(name)
}

/// Whether a lock file was abandoned by a dead holder: its recorded pid
/// no longer exists (checked via `/proc` where available), or — when no
/// pid can be read — the file is older than [`LOCK_STALE_AGE`].
fn lock_is_stale(lock_path: &Path) -> bool {
    if let Some(pid) = std::fs::read_to_string(lock_path)
        .ok()
        .and_then(|s| s.trim().parse::<u32>().ok())
    {
        if cfg!(target_os = "linux") {
            return !Path::new(&format!("/proc/{pid}")).exists();
        }
    }
    std::fs::metadata(lock_path)
        .and_then(|m| m.modified())
        .ok()
        .and_then(|mtime| mtime.elapsed().ok())
        .is_some_and(|age| age > LOCK_STALE_AGE)
}

/// Appends one record as a single JSONL line, creating the file if
/// missing. The write is a single `write_all` of `line + "\n"` through
/// `O_APPEND`, so concurrent appenders interleave whole lines; on top of
/// that the whole operation holds the [`JournalLock`], because the
/// in-place repair is read-modify-write: a **torn final line** — a crash
/// mid-append leaves a prefix with no trailing newline — is truncated
/// away (counted in the `journal.torn_lines` counter) so the new record
/// starts on its own line instead of concatenating onto the wreckage.
///
/// # Errors
///
/// Returns the underlying I/O error (callers report and continue; a
/// benchmark run must not die on a read-only checkout).
pub fn append(path: &Path, record: &Value) -> io::Result<()> {
    let _lock = JournalLock::acquire(path)?;
    repair_torn_tail(path)?;
    let mut line = record.render();
    line.push('\n');
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?
        .write_all(line.as_bytes())
}

/// Truncates a torn final line (content after the last `\n`) so appends
/// land on a line boundary. A healthy journal (newline-terminated or
/// empty/missing) is untouched.
fn repair_torn_tail(path: &Path) -> io::Result<()> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if content.is_empty() || content.ends_with('\n') {
        return Ok(());
    }
    let keep = content.rfind('\n').map_or(0, |i| i + 1);
    crate::metrics::counter("journal.torn_lines").incr();
    std::fs::write(path, &content[..keep])
}

/// A journal that could not be read or parsed.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read (missing file is **not** an error —
    /// [`load`] returns an empty journal).
    Io(io::Error),
    /// A line failed to parse.
    Parse {
        /// 1-based line number.
        line: usize,
        /// The parser's diagnosis.
        error: crate::json::ParseError,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Parse { line, error } => {
                write!(f, "journal line {line}: {error}")
            }
        }
    }
}

impl std::error::Error for JournalError {}

impl From<io::Error> for JournalError {
    fn from(e: io::Error) -> Self {
        JournalError::Io(e)
    }
}

/// Loads every record in the journal, oldest first. A missing file is an
/// empty journal.
///
/// **Torn-tail recovery:** a crash mid-append leaves a final line that
/// is a prefix of a record with no trailing newline. Such a line — the
/// file does not end in `\n` *and* its last line fails to parse — is
/// dropped (counted in the `journal.torn_lines` counter) instead of
/// failing the whole load: the torn record's run died before reporting,
/// so there is nothing to preserve. A malformed line anywhere *else*
/// (newline-terminated garbage) is still a hard [`JournalError::Parse`]
/// — that is corruption, not tearing.
///
/// # Errors
///
/// [`JournalError::Io`] on unreadable files, [`JournalError::Parse`]
/// with the offending line number on malformed records.
pub fn load(path: &Path) -> Result<Vec<Value>, JournalError> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let torn_tail_possible = !content.ends_with('\n');
    let lines: Vec<(usize, &str)> = content
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut records = Vec::with_capacity(lines.len());
    for (pos, (i, l)) in lines.iter().enumerate() {
        match Value::parse(l) {
            Ok(v) => records.push(v),
            Err(_) if torn_tail_possible && pos == lines.len() - 1 => {
                crate::metrics::counter("journal.torn_lines").incr();
            }
            Err(error) => return Err(JournalError::Parse { line: i + 1, error }),
        }
    }
    Ok(records)
}

/// The five keys every journal record opens with, in this order:
/// `schema`, `experiments` (the record kind), `threads`, `git` and
/// `unix_ms`. Writers append their own fields after them.
pub fn header(kind: &str, threads: u64, git: &str, unix_ms: u64) -> Value {
    Value::obj()
        .with("schema", SCHEMA_VERSION)
        .with("experiments", kind)
        .with("threads", threads)
        .with("git", git)
        .with("unix_ms", unix_ms)
}

/// One rule of a [`Gate`]. Fields are read as numbers, a boolean as 0
/// or 1. `Growth` and `Collapse` compare the latest two selected
/// records; the other rules judge the newest record alone, so a broken
/// run trips its gate at once instead of hiding behind a calm baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rule {
    /// Red when `newer / older > 1 + bound`. The ratio is ∞ when only
    /// `older` is 0, and 1 when both are.
    Growth(&'static str, f64),
    /// Red when `older > 0 && newer < older / (1 + bound)`.
    Collapse(&'static str, f64),
    /// Red when the field is below this floor.
    Floor(&'static str, f64),
    /// Red when the field is above this ceiling.
    Ceiling(&'static str, f64),
    /// Red unless the first field is below the second.
    Below(&'static str, &'static str),
    /// Red when the first field is below the second.
    AtLeast(&'static str, &'static str),
}

impl Rule {
    /// Judges this rule on the compared records: whether it turns its
    /// gate red, and the clause the verdict line shows for it.
    fn check(self, older: &Value, newer: &Value) -> Result<(bool, String), CompareError> {
        Ok(match self {
            Rule::Growth(field, bound) => {
                let (old, new) = (number(older, field)?, number(newer, field)?);
                let ratio = growth(old, new);
                let gate = 1.0 + bound;
                let clause = format!(
                    "{field} {} -> {} ({ratio:.2}\u{00d7}, gate \u{2264}{gate}\u{00d7})",
                    Sig(old),
                    Sig(new)
                );
                (ratio > gate, clause)
            }
            Rule::Collapse(field, bound) => {
                let (old, new) = (number(older, field)?, number(newer, field)?);
                let floor = old / (1.0 + bound);
                let clause = format!(
                    "{field} {} -> {} (gate \u{2265}{})",
                    Sig(old),
                    Sig(new),
                    Sig(floor)
                );
                (old > 0.0 && new < floor, clause)
            }
            Rule::Floor(field, floor) => {
                let value = number(newer, field)?;
                (
                    value < floor,
                    format!("{field} {} (gate \u{2265}{floor})", Sig(value)),
                )
            }
            Rule::Ceiling(field, ceiling) => {
                let value = number(newer, field)?;
                (
                    value > ceiling,
                    format!("{field} {} (gate \u{2264}{ceiling})", Sig(value)),
                )
            }
            Rule::Below(field, other) => {
                let (value, limit) = (number(newer, field)?, number(newer, other)?);
                let clause = format!("{field} {} (gate < {other} {})", Sig(value), Sig(limit));
                (value >= limit, clause)
            }
            Rule::AtLeast(field, other) => {
                let (value, limit) = (number(newer, field)?, number(newer, other)?);
                let clause = format!(
                    "{field} {} (gate \u{2265} {other} {})",
                    Sig(value),
                    Sig(limit)
                );
                (value < limit, clause)
            }
        })
    }
}

/// `newer / older`: ∞ when only `older` is 0, 1 when both are.
fn growth(older: f64, newer: f64) -> f64 {
    if older > 0.0 {
        newer / older
    } else if newer > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// A record's field as a number (`false`/`true` read as 0/1).
fn number(record: &Value, field: &'static str) -> Result<f64, CompareError> {
    record
        .get(field)
        .and_then(|v| {
            v.as_f64()
                .or_else(|| v.as_bool().map(|b| f64::from(u8::from(b))))
        })
        .ok_or(CompareError::MissingField(field))
}

/// One regression gate of `repro compare`: which records it reads and
/// the rules they must keep. Every gate drops zero-point records
/// (`csv_points: 0`, e.g. a skipped campaign) and partially resumed
/// ones (`resumed: true`): neither measures a full run, and its
/// near-zero wall clock would flag every honest successor.
#[derive(Debug, PartialEq)]
pub struct Gate {
    /// The `repro compare` target that runs this gate alone.
    pub target: &'static str,
    /// The `experiments` kind of the records it reads.
    pub kind: &'static str,
    /// The `repro` command that writes that kind.
    pub command: &'static str,
    /// Records needed: two for a trend gate, one for an absolute one.
    pub records: usize,
    /// Whether a bare `repro compare` fails when this gate lacks
    /// records. The other gates arm themselves once their records exist.
    pub required: bool,
    /// Fields a record must carry to be selected at all. Records without
    /// them are skipped, where a missing rule field is an error.
    pub select: &'static [&'static str],
    /// Newest-record fields printed beside the verdict.
    pub context: &'static [&'static str],
    /// The rules; any one failing turns the gate red.
    pub rules: &'static [Rule],
}

/// Every `repro compare` gate, in the order a bare `repro compare` runs
/// them. A latency growth bound of 3.0 (4×) is loose on purpose: those
/// latencies come from log₂-bucketed histograms, whose adjacent values
/// differ by 2×, or are quantized by a sentinel period or scheduler
/// noise, so only a real blowup trips them. DESIGN.md §9 renders this
/// table.
pub const GATES: &[Gate] = &[
    // The paper reproduction's wall clock.
    Gate {
        target: "all",
        kind: "all",
        command: "all",
        records: 2,
        required: true,
        select: &[],
        context: &[],
        rules: &[Rule::Growth("wall_s", 0.10)],
    },
    // The serving SLO: p99 latency and throughput.
    Gate {
        target: "serve-bench",
        kind: "serve-bench",
        command: "serve-bench",
        records: 2,
        required: false,
        select: &[],
        context: &[],
        rules: &[
            Rule::Growth("p99_us", 3.0),
            Rule::Collapse("throughput_rps", 3.0),
        ],
    },
    // Multi-tenant serving: p99.9 growth, and the newest run's max/min
    // per-tenant throughput ratio (a 10× hot tenant lands near 10).
    Gate {
        target: "fairness",
        kind: "serve-bench-mt",
        command: "serve-bench mt",
        records: 2,
        required: false,
        select: &[],
        context: &["tenants"],
        rules: &[
            Rule::Growth("p999_us", 3.0),
            Rule::Ceiling("fairness_ratio", 2.0),
        ],
    },
    // The solve hot path of instrumented `all` runs. Allocations vary far
    // less than latencies, so their bound is tight. Records written before
    // the fields existed, or under `VARDELAY_OBS=0`, are skipped.
    Gate {
        target: "hotpath",
        kind: "all",
        command: "all",
        records: 2,
        required: false,
        select: &["solve_p99_us", "allocs_per_request"],
        context: &[],
        rules: &[
            Rule::Growth("solve_p99_us", 3.0),
            Rule::Growth("allocs_per_request", 0.10),
        ],
    },
    // Self-healing under chaos: recovery time, healthy-channel
    // availability, and every incident healed.
    Gate {
        target: "soak",
        kind: "soak",
        command: "soak",
        records: 2,
        required: false,
        select: &[],
        context: &["incidents"],
        rules: &[
            Rule::Growth("mttr_p99_us", 3.0),
            Rule::Floor("availability", 0.99),
            Rule::Ceiling("unhealed", 0.0),
        ],
    },
    // Durable restart: the warm boot beats the cold one, restores a bank
    // from its snapshot, recalibrates nothing intact and never serves an
    // answer that differs from its pre-restart twin.
    Gate {
        target: "restart",
        kind: "restart",
        command: "restart",
        records: 2,
        required: false,
        select: &[],
        context: &["wal_records_replayed"],
        rules: &[
            Rule::Growth("warm_start_us", 3.0),
            Rule::Below("warm_start_us", "cold_start_us"),
            Rule::Floor("banks_restored", 1.0),
            Rule::Ceiling("banks_recalibrated", 0.0),
            Rule::Ceiling("replay_mismatches", 0.0),
        ],
    },
    // Every backend meets its advertised contract, the circuit backend
    // matches the directly driven circuit, and every injected fault is
    // detected and healed.
    Gate {
        target: "backends",
        kind: "backends",
        command: "backends",
        records: 1,
        required: false,
        select: &[],
        context: &[],
        rules: &[
            Rule::Ceiling("contract_violations", 0.0),
            Rule::Ceiling("reference_drift", 0.0),
            Rule::AtLeast("faults_detected", "faults_expected"),
        ],
    },
];

/// The gate `repro compare <target>` runs.
pub fn gate(target: &str) -> Option<&'static Gate> {
    GATES.iter().find(|g| g.target == target)
}

/// Every gate target, as `repro compare` usage lists them.
pub fn targets() -> String {
    GATES.iter().map(|g| g.target).collect::<Vec<_>>().join("|")
}

impl Gate {
    /// Evaluates this gate over a journal (oldest record first) on the
    /// latest [`Gate::records`] usable records of its kind.
    ///
    /// # Errors
    ///
    /// See [`CompareError`]: too few usable records, a thread-count
    /// mismatch between the two compared, or a missing field.
    pub fn evaluate<'a>(&'static self, records: &'a [Value]) -> Result<Verdict<'a>, CompareError> {
        let usable: Vec<&Value> = records
            .iter()
            .filter(|r| r.get("experiments").and_then(Value::as_str) == Some(self.kind))
            .filter(|r| r.get("csv_points").and_then(Value::as_u64) != Some(0))
            .filter(|r| r.get("resumed").and_then(Value::as_bool) != Some(true))
            .filter(|r| self.select.iter().all(|field| number(r, field).is_ok()))
            .collect();
        let Some(start) = usable.len().checked_sub(self.records) else {
            return Err(CompareError::TooFewRecords {
                gate: self,
                found: usable.len(),
            });
        };
        let (older, newer) = (usable[start], usable[usable.len() - 1]);
        let threads_of = |r: &Value| {
            r.get("threads")
                .and_then(Value::as_u64)
                .ok_or(CompareError::MissingField("threads"))
        };
        let (older_threads, threads) = (threads_of(older)?, threads_of(newer)?);
        if older_threads != threads {
            return Err(CompareError::ThreadMismatch {
                older: older_threads,
                newer: threads,
            });
        }
        let (mut failed, mut clauses) = (Vec::new(), Vec::new());
        for &rule in self.rules {
            let (fails, mut clause) = rule.check(older, newer)?;
            if fails {
                failed.push(rule);
                clause.push_str(" RED");
            }
            clauses.push(clause);
        }
        let mut context = vec![format!("{threads} thread(s)")];
        for &field in self.context {
            context.push(format!("{field} {}", Sig(number(newer, field)?)));
        }
        Ok(Verdict {
            gate: self,
            older,
            newer,
            failed,
            clauses,
            context,
        })
    }
}

/// What one [`Gate`] found; its `Display` is the line `repro compare`
/// prints.
#[derive(Debug)]
pub struct Verdict<'a> {
    /// The gate evaluated.
    pub gate: &'static Gate,
    /// The older compared record (the newest one for a one-record gate).
    pub older: &'a Value,
    /// The newest usable record.
    pub newer: &'a Value,
    /// The rules that failed, in table order.
    pub failed: Vec<Rule>,
    /// What each rule found, in table order.
    clauses: Vec<String>,
    /// The thread count and the gate's context fields.
    context: Vec<String>,
}

impl Verdict<'_> {
    /// Whether any rule failed.
    pub fn regressed(&self) -> bool {
        !self.failed.is_empty()
    }
}

impl fmt::Display for Verdict<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} [{}]: {}",
            self.gate.target,
            self.clauses.join(", "),
            self.context.join(", "),
            if self.regressed() { "REGRESSED" } else { "ok" }
        )
    }
}

/// A number shown to six significant digits, without trailing zeros.
struct Sig(f64);

impl fmt::Display for Sig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let magnitude = if self.0.is_normal() {
            self.0.abs().log10().floor() as i32
        } else {
            0
        };
        let text = format!("{:.*}", (5 - magnitude).max(0) as usize, self.0);
        match text.contains('.') {
            true => f.write_str(text.trim_end_matches('0').trim_end_matches('.')),
            false => f.write_str(&text),
        }
    }
}

/// Why a gate could not be evaluated; `repro compare` exits 2 on any.
#[derive(Debug, Clone, PartialEq)]
pub enum CompareError {
    /// Fewer usable records than the gate needs.
    TooFewRecords {
        /// The gate that came up short.
        gate: &'static Gate,
        /// Usable records found.
        found: usize,
    },
    /// The latest two records ran at different thread counts, so their
    /// timings are not comparable.
    ThreadMismatch {
        /// Older record's thread count.
        older: u64,
        /// Newer record's thread count.
        newer: u64,
    },
    /// A selected record lacks a field the gate reads.
    MissingField(&'static str),
    /// No gate answers to this `repro compare` target.
    UnknownTarget(String),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::TooFewRecords { gate, found } => {
                let (count, plural, runs) = if gate.records == 1 {
                    ("one", "", "once")
                } else {
                    ("two", "s", "twice")
                };
                write!(
                    f,
                    "need {count} valid {:?} journal record{plural} to compare, found {found} \
                     after ignoring zero-point and resumed records (run `repro {}` {runs})",
                    gate.kind, gate.command
                )
            }
            CompareError::ThreadMismatch { older, newer } => write!(
                f,
                "latest runs used different thread counts ({older} vs {newer}); \
                 their timings are not comparable"
            ),
            CompareError::MissingField(field) => {
                write!(f, "journal record is missing numeric field {field:?}")
            }
            CompareError::UnknownTarget(target) => {
                write!(
                    f,
                    "unknown target {target:?} (expected one of {})",
                    targets()
                )
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Runs the gates `repro compare [target]` selects: the named one, or
/// with no target every gate in [`GATES`] order, skipping a gate that
/// is not [`Gate::required`] while its records do not exist yet. Stops
/// at the first error, which is the last result.
pub fn compare<'a>(
    records: &'a [Value],
    target: Option<&str>,
) -> Vec<Result<Verdict<'a>, CompareError>> {
    let selected: Vec<&'static Gate> = match target {
        None => GATES.iter().collect(),
        Some(t) => match gate(t) {
            Some(g) => vec![g],
            None => return vec![Err(CompareError::UnknownTarget(t.to_owned()))],
        },
    };
    let mut results = Vec::new();
    for gate in selected {
        match gate.evaluate(records) {
            Err(CompareError::TooFewRecords { .. }) if target.is_none() && !gate.required => {}
            result => {
                let stop = result.is_err();
                results.push(result);
                if stop {
                    break;
                }
            }
        }
    }
    results
}

/// The exit status of `repro compare`: 2 when a gate could not be
/// evaluated, 1 when one regressed, 0 when every gate is green.
pub fn exit_code(results: &[Result<Verdict<'_>, CompareError>]) -> i32 {
    if results.iter().any(Result::is_err) {
        2
    } else {
        i32::from(results.iter().flatten().any(Verdict::regressed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(experiments: &str, threads: u64, wall_s: f64) -> Value {
        header(experiments, threads, "test", 0).with("wall_s", wall_s)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "vardelay_obs_journal_{name}_{}",
            std::process::id()
        ));
        p
    }

    #[test]
    fn append_accumulates_lines() {
        let path = temp_path("append");
        let _ = std::fs::remove_file(&path);
        append(&path, &record("all", 1, 6.5)).unwrap();
        append(&path, &record("fig9", 1, 0.01)).unwrap();
        append(&path, &record("all", 1, 6.4)).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(
            records[1].get("experiments").unwrap().as_str(),
            Some("fig9")
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_empty_journal() {
        assert!(load(Path::new("/nonexistent/vardelay.jsonl"))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn malformed_line_reports_its_number() {
        let path = temp_path("malformed");
        std::fs::write(&path, "{\"experiments\":\"all\"}\nnot json\n").unwrap();
        match load(&path) {
            Err(JournalError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_and_counted() {
        crate::set_enabled(true);
        let path = temp_path("torn");
        // A healthy record, then a crash mid-append: the second line is
        // truncated mid-byte with no trailing newline.
        let healthy = record("all", 1, 6.5).render();
        let torn = &record("all", 1, 6.6).render()[..20];
        std::fs::write(&path, format!("{healthy}\n{torn}")).unwrap();

        let before = crate::metrics::counter("journal.torn_lines").get();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 1, "exactly the torn line is dropped");
        assert_eq!(records[0].get("wall_s").and_then(Value::as_f64), Some(6.5));
        assert_eq!(
            crate::metrics::counter("journal.torn_lines").get(),
            before + 1,
            "torn line increments journal.torn_lines"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn newline_terminated_garbage_is_still_a_parse_error() {
        // Tearing can only truncate the trailing newline away; a garbage
        // line *with* its newline is corruption and must stay loud.
        let path = temp_path("garbage");
        std::fs::write(&path, "{\"experiments\":\"all\"}\nnot json\n").unwrap();
        match load(&path) {
            Err(JournalError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_repairs_a_torn_tail_before_writing() {
        let path = temp_path("repair");
        let healthy = record("all", 1, 6.5).render();
        std::fs::write(&path, format!("{healthy}\n{{\"experiments\":\"al")).unwrap();

        append(&path, &record("all", 1, 6.4)).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(
            !content.contains("{\"experiments\":\"al{"),
            "new record must not concatenate onto the torn tail: {content:?}"
        );
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2, "healthy + appended; torn tail gone");
        assert_eq!(records[1].get("wall_s").and_then(Value::as_f64), Some(6.4));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_lock_from_a_dead_pid_is_broken() {
        let path = temp_path("stale_lock");
        let _ = std::fs::remove_file(&path);
        // Plant a lock whose holder pid cannot exist.
        std::fs::write(lock_path_for(&path), "4294967294").unwrap();
        append(&path, &record("all", 1, 6.5)).unwrap();
        assert_eq!(load(&path).unwrap().len(), 1);
        assert!(!lock_path_for(&path).exists(), "lock released after append");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn concurrent_appends_serialize_into_whole_lines() {
        let path = temp_path("concurrent");
        let _ = std::fs::remove_file(&path);
        std::thread::scope(|scope| {
            for t in 0..8 {
                let path = &path;
                scope.spawn(move || {
                    for k in 0..4 {
                        append(path, &record("all", 1, (t * 10 + k) as f64)).unwrap();
                    }
                });
            }
        });
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 32, "every append landed as its own line");
        assert!(!lock_path_for(&path).exists(), "no lock file left behind");
        std::fs::remove_file(&path).unwrap();
    }
}
