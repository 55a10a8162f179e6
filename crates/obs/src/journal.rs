//! The append-only benchmark journal and its regression gate.
//!
//! `BENCH_repro.json` is a JSONL file: **one JSON object per line, one
//! line per `repro` run**, appended — never overwritten — so the
//! repository's performance trajectory is a real time series. A
//! `fig9`-only run can no longer clobber the record of a full `all` run;
//! it just adds a line keyed by its own `experiments` field.
//!
//! Record schema (`schema: 1`), all fields flat except
//! `per_experiment_s`:
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
//! reads them: the gates read `wall_s`, `solve_p99_us` and
//! `allocs_per_request`.
//!
//! [`load`] also accepts the legacy format (one pretty-printed object
//! spanning the whole file) so a pre-journal `BENCH_repro.json` reads as
//! a one-record journal.
//!
//! The gate: [`compare_latest`] takes the latest two records of the same
//! experiment set (same thread count — wall clock across different
//! widths is not comparable) and flags a regression when the newer wall
//! clock exceeds the older by more than the threshold. `repro compare`
//! wires this to CI.

use std::fmt;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::json::Value;

/// Version stamped into every record's `schema` field.
pub const SCHEMA_VERSION: u64 = 1;

/// Default regression-gate threshold: newer wall clock more than 10 %
/// above the older one fails.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

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
/// appends (and the legacy-migration / torn-tail-repair rewrites, which
/// are *not* atomic on their own). A lock whose recorded pid is no
/// longer alive — the holder crashed between create and remove — is
/// broken automatically, so a killed campaign never wedges the journal.
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
/// that the whole operation holds the [`JournalLock`], because the two
/// in-place repairs below are read-modify-write:
///
/// * a legacy pre-journal file (one pretty-printed object spanning the
///   whole file) is migrated to a one-line JSONL record, so appending to
///   it never produces an unparseable hybrid;
/// * a **torn final line** — a crash mid-append leaves a prefix with no
///   trailing newline — is truncated away (counted in the
///   `journal.torn_lines` counter) so the new record starts on its own
///   line instead of concatenating onto the wreckage.
///
/// # Errors
///
/// Returns the underlying I/O error (callers report and continue; a
/// benchmark run must not die on a read-only checkout).
pub fn append(path: &Path, record: &Value) -> io::Result<()> {
    let _lock = JournalLock::acquire(path)?;
    migrate_legacy(path)?;
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

/// Rewrites a legacy whole-file JSON object as one compact JSONL line.
/// JSONL files (first line parses on its own), missing files and
/// unparseable files are left untouched.
fn migrate_legacy(path: &Path) -> io::Result<()> {
    let content = match std::fs::read_to_string(path) {
        Ok(c) => c,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if content.trim().is_empty() {
        return Ok(());
    }
    let first_line_is_record = content
        .lines()
        .next()
        .is_some_and(|l| Value::parse(l).is_ok());
    if first_line_is_record {
        return Ok(());
    }
    if let Ok(legacy) = Value::parse(&content) {
        std::fs::write(path, legacy.render() + "\n")?;
    }
    Ok(())
}

/// A journal that could not be read or parsed.
#[derive(Debug)]
pub enum JournalError {
    /// The file could not be read (missing file is **not** an error —
    /// [`load`] returns an empty journal).
    Io(io::Error),
    /// A line (1-based; 0 for whole-file legacy parse) failed to parse.
    Parse {
        /// 1-based line number, 0 when the whole file failed as one
        /// document.
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
/// empty journal. A file that parses as one JSON document (the legacy
/// pre-journal format, or a one-line journal) yields one record.
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
    if content.trim().is_empty() {
        return Ok(Vec::new());
    }
    // Legacy tolerance: the whole file as one document (also covers a
    // one-line journal — identical result either way).
    if let Ok(single) = Value::parse(&content) {
        return Ok(vec![single]);
    }
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

/// The latest-two-records wall-clock comparison `repro compare` prints
/// and gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// `experiments` key both records share.
    pub experiments: String,
    /// Thread count both records share.
    pub threads: u64,
    /// Wall clock of the older record (seconds).
    pub older_wall_s: f64,
    /// Wall clock of the newer record (seconds).
    pub newer_wall_s: f64,
    /// `newer / older` (∞ when the older wall clock is 0).
    pub ratio: f64,
    /// The gate threshold the comparison was made against.
    pub threshold: f64,
    /// Whether the newer run exceeds the older by more than `threshold`.
    pub regressed: bool,
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:.3} s -> {:.3} s ({:+.1} % on {} thread(s); gate \u{00b1}{:.0} %): {}",
            self.experiments,
            self.older_wall_s,
            self.newer_wall_s,
            (self.ratio - 1.0) * 100.0,
            self.threads,
            self.threshold * 100.0,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Why two comparable records could not be found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompareError {
    /// Fewer than two *valid* records match the experiment set
    /// (zero-point records — `csv_points: 0`, e.g. a skipped campaign —
    /// are not valid comparison baselines and are filtered out first).
    TooFewRecords {
        /// Valid matching records found.
        found: usize,
        /// The experiment set looked for.
        experiments: String,
    },
    /// The latest two matching records ran at different thread counts, so
    /// their wall clocks are not comparable.
    ThreadMismatch {
        /// Older record's thread count.
        older: u64,
        /// Newer record's thread count.
        newer: u64,
    },
    /// A matching record is missing a required numeric field.
    MissingField(&'static str),
}

impl fmt::Display for CompareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompareError::TooFewRecords { found, experiments } => write!(
                f,
                "need two valid {experiments:?} journal records to compare, found {found} \
                 after ignoring zero-point and resumed records (run `repro {experiments}` twice)"
            ),
            CompareError::ThreadMismatch { older, newer } => write!(
                f,
                "latest runs used different thread counts ({older} vs {newer}); \
                 wall clocks are not comparable"
            ),
            CompareError::MissingField(field) => {
                write!(f, "journal record is missing numeric field {field:?}")
            }
        }
    }
}

impl std::error::Error for CompareError {}

/// Whether a record carries real measurement work. A record whose
/// `csv_points` is present and zero (a skipped campaign, e.g.
/// `VARDELAY_FAULTS=0`, or a fully-checkpointed `--resume` run) measures
/// nothing and must not become a comparison baseline — its near-zero
/// wall clock would flag every honest successor as a regression. Records
/// *without* a `csv_points` field (legacy) are kept.
pub fn is_zero_point(record: &Value) -> bool {
    record.get("csv_points").and_then(Value::as_u64) == Some(0)
}

/// Whether a record came from a `--resume` run that skipped
/// checkpointed experiments (`resumed: true`). Its wall clock covers
/// only the re-run remainder of the campaign, so it cannot serve as a
/// baseline for full runs.
pub fn is_resumed(record: &Value) -> bool {
    record.get("resumed").and_then(Value::as_bool) == Some(true)
}

/// Compares the latest two records whose `experiments` field equals
/// `experiments`, flagging a regression when the newer wall clock
/// exceeds the older by more than `threshold` (fractional, e.g. `0.10`).
/// Zero-point and partially-resumed records (see [`is_zero_point`],
/// [`is_resumed`]) are ignored — neither measures a full campaign.
///
/// # Errors
///
/// See [`CompareError`] — fewer than two valid matching records, a
/// thread-count mismatch between them, or records without
/// `wall_s`/`threads`.
pub fn compare_latest(
    records: &[Value],
    experiments: &str,
    threshold: f64,
) -> Result<Comparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some(experiments))
        .filter(|r| !is_zero_point(r) && !is_resumed(r))
        .collect();
    let [.., older, newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: matching.len(),
            experiments: experiments.to_owned(),
        });
    };
    let threads = |r: &Value| {
        r.get("threads")
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField("threads"))
    };
    let wall = |r: &Value| {
        r.get("wall_s")
            .and_then(Value::as_f64)
            .ok_or(CompareError::MissingField("wall_s"))
    };
    let (older_threads, newer_threads) = (threads(older)?, threads(newer)?);
    if older_threads != newer_threads {
        return Err(CompareError::ThreadMismatch {
            older: older_threads,
            newer: newer_threads,
        });
    }
    let (older_wall_s, newer_wall_s) = (wall(older)?, wall(newer)?);
    let ratio = if older_wall_s > 0.0 {
        newer_wall_s / older_wall_s
    } else if newer_wall_s > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    Ok(Comparison {
        experiments: experiments.to_owned(),
        threads: newer_threads,
        older_wall_s,
        newer_wall_s,
        ratio,
        threshold,
        regressed: ratio > 1.0 + threshold,
    })
}

/// Default threshold for the serving-SLO gate, as a fractional growth
/// bound on tail latency. Deliberately far looser than
/// [`DEFAULT_THRESHOLD`]: the p99 comes from a log₂-bucketed histogram
/// whose adjacent representable values differ by 2×, so a tight gate
/// would flap on bucket-boundary noise. `3.0` (ratio > 4×) only trips
/// on a real serving-path regression.
pub const SERVE_THRESHOLD: f64 = 3.0;

/// The latest-two-records serving comparison `repro compare` gates on:
/// p99 latency growth and throughput collapse.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeComparison {
    /// Worker count both records share.
    pub threads: u64,
    /// p99 latency of the older record, microseconds.
    pub older_p99_us: f64,
    /// p99 latency of the newer record, microseconds.
    pub newer_p99_us: f64,
    /// Throughput of the older record, requests per second.
    pub older_rps: f64,
    /// Throughput of the newer record, requests per second.
    pub newer_rps: f64,
    /// `newer_p99 / older_p99` (∞ when the older p99 is 0 and the
    /// newer is not).
    pub p99_ratio: f64,
    /// The gate threshold the comparison was made against.
    pub threshold: f64,
    /// Whether the newer run's p99 grew past the threshold or its
    /// throughput fell below `older / (1 + threshold)`.
    pub regressed: bool,
}

impl fmt::Display for ServeComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve-bench: p99 {:.0} \u{00b5}s -> {:.0} \u{00b5}s, {:.0} -> {:.0} req/s \
             ({} worker(s); gate {:.0}\u{00d7}): {}",
            self.older_p99_us,
            self.newer_p99_us,
            self.older_rps,
            self.newer_rps,
            self.threads,
            1.0 + self.threshold,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Compares the latest two `serve-bench` records (the journal kind
/// written by `repro serve-bench`), flagging a regression when the
/// newer p99 latency exceeds the older by more than `threshold`
/// (fractional — see [`SERVE_THRESHOLD`] for why it is loose) **or**
/// the newer throughput falls below `older / (1 + threshold)`.
///
/// # Errors
///
/// Same shapes as [`compare_latest`]: [`CompareError::TooFewRecords`]
/// under two `serve-bench` records, [`CompareError::ThreadMismatch`]
/// when their worker counts differ, [`CompareError::MissingField`] on
/// records without `p99_us`/`throughput_rps`/`threads`.
pub fn compare_latest_serve(
    records: &[Value],
    threshold: f64,
) -> Result<ServeComparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some("serve-bench"))
        .collect();
    let [.., older, newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: matching.len(),
            experiments: "serve-bench".to_owned(),
        });
    };
    let threads = |r: &Value| {
        r.get("threads")
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField("threads"))
    };
    let p99 = |r: &Value| {
        r.get("p99_us")
            .and_then(Value::as_f64)
            .ok_or(CompareError::MissingField("p99_us"))
    };
    let rps = |r: &Value| {
        r.get("throughput_rps")
            .and_then(Value::as_f64)
            .ok_or(CompareError::MissingField("throughput_rps"))
    };
    let (older_threads, newer_threads) = (threads(older)?, threads(newer)?);
    if older_threads != newer_threads {
        return Err(CompareError::ThreadMismatch {
            older: older_threads,
            newer: newer_threads,
        });
    }
    let (older_p99_us, newer_p99_us) = (p99(older)?, p99(newer)?);
    let (older_rps, newer_rps) = (rps(older)?, rps(newer)?);
    let p99_ratio = if older_p99_us > 0.0 {
        newer_p99_us / older_p99_us
    } else if newer_p99_us > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    let throughput_collapsed = older_rps > 0.0 && newer_rps < older_rps / (1.0 + threshold);
    Ok(ServeComparison {
        threads: newer_threads,
        older_p99_us,
        newer_p99_us,
        older_rps,
        newer_rps,
        p99_ratio,
        threshold,
        regressed: p99_ratio > 1.0 + threshold || throughput_collapsed,
    })
}

/// Max/min per-tenant throughput ratio the multi-tenant fairness gate
/// tolerates. Under the seeded *balanced* load every tenant offers the
/// same request volume, so an honest scheduler completes them within a
/// small factor of each other; `2.0` leaves room for scheduling noise
/// while still tripping on a starved tenant (a 10× hot-tenant injection
/// lands near 10).
pub const FAIRNESS_THRESHOLD: f64 = 2.0;

/// The latest-two-records multi-tenant comparison: tail-latency growth
/// between runs plus the newest run's max/min per-tenant fairness
/// ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessComparison {
    /// Worker count both records share.
    pub threads: u64,
    /// Tenants in the newer campaign.
    pub tenants: u64,
    /// p99.9 latency of the older record, microseconds.
    pub older_p999_us: f64,
    /// p99.9 latency of the newer record, microseconds.
    pub newer_p999_us: f64,
    /// The newer record's max/min per-tenant throughput ratio.
    pub newer_fairness: f64,
    /// `newer_p999 / older_p999` (∞ when the older is 0 and the newer
    /// is not).
    pub p999_ratio: f64,
    /// Tail-latency growth bound (fractional, like [`SERVE_THRESHOLD`]).
    pub latency_threshold: f64,
    /// Absolute fairness-ratio bound (see [`FAIRNESS_THRESHOLD`]).
    pub fairness_threshold: f64,
    /// Whether the newer run's p99.9 grew past the latency threshold or
    /// its fairness ratio exceeded the fairness threshold.
    pub regressed: bool,
}

impl fmt::Display for FairnessComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "serve-bench-mt: p99.9 {:.0} \u{00b5}s -> {:.0} \u{00b5}s, fairness {:.2} \
             ({} tenant(s), {} worker(s); gates {:.0}\u{00d7} latency, \u{2264}{:.1} fairness): {}",
            self.older_p999_us,
            self.newer_p999_us,
            self.newer_fairness,
            self.tenants,
            self.threads,
            1.0 + self.latency_threshold,
            self.fairness_threshold,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Compares the latest two `serve-bench-mt` records (the journal kind
/// written by `repro serve-bench mt`), flagging a regression when the
/// newer p99.9 latency exceeds the older by more than
/// `latency_threshold` (fractional, loose for the same log₂-histogram
/// reason as [`SERVE_THRESHOLD`]) **or** the newer record's max/min
/// per-tenant throughput ratio exceeds `fairness_threshold` (absolute —
/// fairness is a property of a single run, not a run-to-run delta, so a
/// starved-tenant injection trips the gate immediately rather than
/// poisoning the next baseline).
///
/// # Errors
///
/// Same shapes as [`compare_latest`]: [`CompareError::TooFewRecords`]
/// under two `serve-bench-mt` records, [`CompareError::ThreadMismatch`]
/// when their worker counts differ, [`CompareError::MissingField`] on
/// records without `p999_us`/`fairness_ratio`/`tenants`/`threads`.
pub fn compare_latest_fairness(
    records: &[Value],
    latency_threshold: f64,
    fairness_threshold: f64,
) -> Result<FairnessComparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some("serve-bench-mt"))
        .collect();
    let [.., older, newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: matching.len(),
            experiments: "serve-bench-mt".to_owned(),
        });
    };
    let threads = |r: &Value| {
        r.get("threads")
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField("threads"))
    };
    let p999 = |r: &Value| {
        r.get("p999_us")
            .and_then(Value::as_f64)
            .ok_or(CompareError::MissingField("p999_us"))
    };
    let (older_threads, newer_threads) = (threads(older)?, threads(newer)?);
    if older_threads != newer_threads {
        return Err(CompareError::ThreadMismatch {
            older: older_threads,
            newer: newer_threads,
        });
    }
    let (older_p999_us, newer_p999_us) = (p999(older)?, p999(newer)?);
    let newer_fairness = newer
        .get("fairness_ratio")
        .and_then(Value::as_f64)
        .ok_or(CompareError::MissingField("fairness_ratio"))?;
    let tenants = newer
        .get("tenants")
        .and_then(Value::as_u64)
        .ok_or(CompareError::MissingField("tenants"))?;
    let p999_ratio = if older_p999_us > 0.0 {
        newer_p999_us / older_p999_us
    } else if newer_p999_us > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    Ok(FairnessComparison {
        threads: newer_threads,
        tenants,
        older_p999_us,
        newer_p999_us,
        newer_fairness,
        p999_ratio,
        latency_threshold,
        fairness_threshold,
        regressed: p999_ratio > 1.0 + latency_threshold || newer_fairness > fairness_threshold,
    })
}

/// Availability floor for the chaos-soak gate: the fraction of healthy-
/// channel requests answered `ok` during a soak must stay at or above
/// this. Absolute, judged on the newest run alone — an outage cannot
/// hide behind a calm older baseline.
pub const SOAK_AVAILABILITY_FLOOR: f64 = 0.99;

/// Run-over-run MTTR growth bound for the chaos-soak gate (fractional,
/// like [`SERVE_THRESHOLD`]): only a >4× blowup of the p99 time-to-
/// recover trips it. Loose on purpose — recovery time is quantized by
/// the sentinel period and the re-admission round count, so small-
/// multiple noise between runs is expected.
pub const SOAK_MTTR_THRESHOLD: f64 = 3.0;

/// The latest-two-records chaos-soak comparison: the newest run's
/// absolute health (availability, unhealed incidents) plus run-over-run
/// MTTR growth.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakComparison {
    /// Worker count both records share.
    pub threads: u64,
    /// Drift incidents injected in the newer campaign.
    pub incidents: u64,
    /// Incidents of the newer campaign never healed by soak end.
    pub unhealed: u64,
    /// p99 mean-time-to-recover of the older record, microseconds.
    pub older_mttr_p99_us: f64,
    /// p99 mean-time-to-recover of the newer record, microseconds.
    pub newer_mttr_p99_us: f64,
    /// Healthy-channel availability of the newer record (0..=1).
    pub newer_availability: f64,
    /// `newer_mttr_p99 / older_mttr_p99` (∞ when the older is 0 and
    /// the newer is not).
    pub mttr_ratio: f64,
    /// MTTR growth bound (fractional — see [`SOAK_MTTR_THRESHOLD`]).
    pub mttr_threshold: f64,
    /// Absolute availability floor (see [`SOAK_AVAILABILITY_FLOOR`]).
    pub availability_floor: f64,
    /// Whether the newest soak dropped below the availability floor,
    /// left an incident unhealed, or grew MTTR past the threshold.
    pub regressed: bool,
}

impl fmt::Display for SoakComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soak: mttr p99 {:.0} \u{00b5}s -> {:.0} \u{00b5}s, availability {:.4}, \
             {}/{} incident(s) unhealed ({} worker(s); gates {:.0}\u{00d7} mttr, \
             \u{2265}{:.2} availability, 0 unhealed): {}",
            self.older_mttr_p99_us,
            self.newer_mttr_p99_us,
            self.newer_availability,
            self.unhealed,
            self.incidents,
            self.threads,
            1.0 + self.mttr_threshold,
            self.availability_floor,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Compares the latest two `soak` records (the journal kind written by
/// `repro soak`), flagging a regression when the newest run's healthy-
/// channel availability falls below `availability_floor`, when any
/// injected incident was never healed (the deterministic red leg: with
/// recalibration sabotaged, every incident stays unhealed), or when the
/// newer p99 MTTR exceeds the older by more than `mttr_threshold`
/// (fractional). Availability and unhealed-count are absolute gates on
/// the newest run alone, for the same reason the fairness ratio is — a
/// broken healing loop must trip the gate immediately, not poison the
/// next baseline.
///
/// # Errors
///
/// Same shapes as [`compare_latest`]: [`CompareError::TooFewRecords`]
/// under two `soak` records, [`CompareError::ThreadMismatch`] when
/// their worker counts differ, [`CompareError::MissingField`] on
/// records without `mttr_p99_us`/`availability`/`incidents`/`unhealed`.
pub fn compare_latest_soak(
    records: &[Value],
    mttr_threshold: f64,
    availability_floor: f64,
) -> Result<SoakComparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some("soak"))
        .collect();
    let [.., older, newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: matching.len(),
            experiments: "soak".to_owned(),
        });
    };
    let threads = |r: &Value| {
        r.get("threads")
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField("threads"))
    };
    let mttr = |r: &Value| {
        r.get("mttr_p99_us")
            .and_then(Value::as_f64)
            .ok_or(CompareError::MissingField("mttr_p99_us"))
    };
    let (older_threads, newer_threads) = (threads(older)?, threads(newer)?);
    if older_threads != newer_threads {
        return Err(CompareError::ThreadMismatch {
            older: older_threads,
            newer: newer_threads,
        });
    }
    let (older_mttr_p99_us, newer_mttr_p99_us) = (mttr(older)?, mttr(newer)?);
    let newer_availability = newer
        .get("availability")
        .and_then(Value::as_f64)
        .ok_or(CompareError::MissingField("availability"))?;
    let incidents = newer
        .get("incidents")
        .and_then(Value::as_u64)
        .ok_or(CompareError::MissingField("incidents"))?;
    let unhealed = newer
        .get("unhealed")
        .and_then(Value::as_u64)
        .ok_or(CompareError::MissingField("unhealed"))?;
    let mttr_ratio = if older_mttr_p99_us > 0.0 {
        newer_mttr_p99_us / older_mttr_p99_us
    } else if newer_mttr_p99_us > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    Ok(SoakComparison {
        threads: newer_threads,
        incidents,
        unhealed,
        older_mttr_p99_us,
        newer_mttr_p99_us,
        newer_availability,
        mttr_ratio,
        mttr_threshold,
        availability_floor,
        regressed: newer_availability < availability_floor
            || unhealed > 0
            || mttr_ratio > 1.0 + mttr_threshold,
    })
}

/// Default threshold for the hot-path solve-latency leg of the gate.
/// Like [`SERVE_THRESHOLD`], deliberately loose: `solve_p99_us` comes
/// from the log₂-bucketed `core.solve_us` histogram whose adjacent
/// representable values differ by 2×, so only a >4× blowup trips it.
pub const SOLVE_THRESHOLD: f64 = 3.0;

/// The latest-two-records hot-path comparison `repro compare` gates on:
/// per-request p99 solve time and allocations per request.
#[derive(Debug, Clone, PartialEq)]
pub struct HotpathComparison {
    /// Thread count both records share.
    pub threads: u64,
    /// p99 solve latency of the older record, microseconds.
    pub older_solve_p99_us: f64,
    /// p99 solve latency of the newer record, microseconds.
    pub newer_solve_p99_us: f64,
    /// Heap allocations per solve request in the older record.
    pub older_allocs_per_request: f64,
    /// Heap allocations per solve request in the newer record.
    pub newer_allocs_per_request: f64,
    /// `newer_p99 / older_p99` (∞ when the older p99 is 0 and the newer
    /// is not).
    pub p99_ratio: f64,
    /// `newer_allocs / older_allocs` (∞ when the older is 0 and the
    /// newer is not).
    pub allocs_ratio: f64,
    /// The solve-latency gate threshold.
    pub p99_threshold: f64,
    /// The allocations gate threshold.
    pub allocs_threshold: f64,
    /// Whether either dimension regressed past its threshold.
    pub regressed: bool,
}

impl fmt::Display for HotpathComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "hotpath: solve p99 {:.0} \u{00b5}s -> {:.0} \u{00b5}s (gate {:.0}\u{00d7}), \
             {:.2} -> {:.2} allocs/request (gate \u{00b1}{:.0} %; {} thread(s)): {}",
            self.older_solve_p99_us,
            self.newer_solve_p99_us,
            1.0 + self.p99_threshold,
            self.older_allocs_per_request,
            self.newer_allocs_per_request,
            self.allocs_threshold * 100.0,
            self.threads,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Compares the latest two `all` records that carry the hot-path
/// dimensions (`solve_p99_us`, `allocs_per_request` — present since the
/// solve fast path landed; older records and `VARDELAY_OBS=0` runs are
/// skipped, so the gate arms itself once two instrumented runs exist).
/// Flags a regression when the newer p99 solve time exceeds the older by
/// more than `p99_threshold` (see [`SOLVE_THRESHOLD`] for why it is
/// loose) **or** allocations per request grow past `allocs_threshold`.
///
/// # Errors
///
/// Same shapes as [`compare_latest`]: [`CompareError::TooFewRecords`]
/// under two instrumented `all` records, [`CompareError::ThreadMismatch`]
/// when their thread counts differ, [`CompareError::MissingField`] on
/// records without `threads`.
pub fn compare_latest_hotpath(
    records: &[Value],
    p99_threshold: f64,
    allocs_threshold: f64,
) -> Result<HotpathComparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some("all"))
        .filter(|r| !is_zero_point(r) && !is_resumed(r))
        .filter(|r| {
            r.get("solve_p99_us").and_then(Value::as_f64).is_some()
                && r.get("allocs_per_request")
                    .and_then(Value::as_f64)
                    .is_some()
        })
        .collect();
    let [.., older, newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: matching.len(),
            experiments: "all".to_owned(),
        });
    };
    let threads = |r: &Value| {
        r.get("threads")
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField("threads"))
    };
    let (older_threads, newer_threads) = (threads(older)?, threads(newer)?);
    if older_threads != newer_threads {
        return Err(CompareError::ThreadMismatch {
            older: older_threads,
            newer: newer_threads,
        });
    }
    // Presence was filtered above, so these cannot miss.
    let field = |r: &Value, name: &str| r.get(name).and_then(Value::as_f64).unwrap_or(0.0);
    let ratio = |older: f64, newer: f64| {
        if older > 0.0 {
            newer / older
        } else if newer > 0.0 {
            f64::INFINITY
        } else {
            1.0
        }
    };
    let (older_solve_p99_us, newer_solve_p99_us) =
        (field(older, "solve_p99_us"), field(newer, "solve_p99_us"));
    let (older_allocs_per_request, newer_allocs_per_request) = (
        field(older, "allocs_per_request"),
        field(newer, "allocs_per_request"),
    );
    let p99_ratio = ratio(older_solve_p99_us, newer_solve_p99_us);
    let allocs_ratio = ratio(older_allocs_per_request, newer_allocs_per_request);
    Ok(HotpathComparison {
        threads: newer_threads,
        older_solve_p99_us,
        newer_solve_p99_us,
        older_allocs_per_request,
        newer_allocs_per_request,
        p99_ratio,
        allocs_ratio,
        p99_threshold,
        allocs_threshold,
        regressed: p99_ratio > 1.0 + p99_threshold || allocs_ratio > 1.0 + allocs_threshold,
    })
}

/// Run-over-run warm-start growth bound for the durable-restart gate
/// (fractional, like [`SERVE_THRESHOLD`]): only a >4× blowup of the
/// warm boot time trips it. Loose because a warm boot is dominated by
/// the per-channel sentinel verification sweep, whose wall clock is
/// quantized by scheduler noise at the few-millisecond scale.
pub const RESTART_THRESHOLD: f64 = 3.0;

/// The latest-two-records durable-restart comparison: the newest run's
/// absolute recovery correctness (banks restored from snapshots, zero
/// replay divergence, zero forced recalibrations, warm faster than
/// cold) plus run-over-run warm-start growth.
#[derive(Debug, Clone, PartialEq)]
pub struct RestartComparison {
    /// Worker count both records share.
    pub threads: u64,
    /// Cold (first-boot) start time of the newer record, microseconds.
    pub cold_start_us: f64,
    /// Warm (restarted) start time of the older record, microseconds.
    pub older_warm_start_us: f64,
    /// Warm start time of the newer record, microseconds.
    pub newer_warm_start_us: f64,
    /// Banks the newer run's warm boot restored from snapshots.
    pub banks_restored: u64,
    /// Banks the newer run's warm boot had to recalibrate despite an
    /// uncorrupted store (must be zero — the whole point of snapshots).
    pub banks_recalibrated: u64,
    /// WAL records the newer run's warm boot replayed.
    pub wal_records_replayed: u64,
    /// Post-restart answers that diverged byte-for-byte from the
    /// pre-restart answers (must be zero — never serve a wrong table).
    pub replay_mismatches: u64,
    /// `newer_warm_start / older_warm_start` (∞ when the older is 0
    /// and the newer is not).
    pub warm_ratio: f64,
    /// Warm-start growth bound (fractional — see [`RESTART_THRESHOLD`]).
    pub warm_threshold: f64,
    /// Whether the newest run restored nothing, diverged on replay,
    /// recalibrated an intact bank, warm-started slower than cold, or
    /// grew its warm start past the threshold.
    pub regressed: bool,
}

impl fmt::Display for RestartComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restart: warm start {:.0} \u{00b5}s -> {:.0} \u{00b5}s (cold {:.0} \u{00b5}s), \
             {} bank(s) restored, {} recalibrated, {} wal record(s) replayed, \
             {} replay mismatch(es) ({} worker(s); gates {:.0}\u{00d7} warm growth, \
             warm<cold, \u{2265}1 restored, 0 recalibrated, 0 mismatches): {}",
            self.older_warm_start_us,
            self.newer_warm_start_us,
            self.cold_start_us,
            self.banks_restored,
            self.banks_recalibrated,
            self.wal_records_replayed,
            self.replay_mismatches,
            self.threads,
            1.0 + self.warm_threshold,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Compares the latest two `restart` records (the journal kind written
/// by `repro restart`), flagging a regression when the newest run's
/// warm boot restored no bank, recalibrated a bank whose snapshots were
/// intact, served any post-restart answer that diverged byte-for-byte
/// from its pre-restart twin, warm-started slower than the cold boot,
/// or grew its warm start past `warm_threshold` (fractional) over the
/// previous run. The correctness legs are absolute gates on the newest
/// run alone — a recovery path that silently recalibrates or diverges
/// must trip immediately, not poison the next baseline.
///
/// # Errors
///
/// Same shapes as [`compare_latest`]: [`CompareError::TooFewRecords`]
/// under two `restart` records, [`CompareError::ThreadMismatch`] when
/// their worker counts differ, [`CompareError::MissingField`] on
/// records without the restart fields.
pub fn compare_latest_restart(
    records: &[Value],
    warm_threshold: f64,
) -> Result<RestartComparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some("restart"))
        .collect();
    let [.., older, newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: matching.len(),
            experiments: "restart".to_owned(),
        });
    };
    let threads = |r: &Value| {
        r.get("threads")
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField("threads"))
    };
    let (older_threads, newer_threads) = (threads(older)?, threads(newer)?);
    if older_threads != newer_threads {
        return Err(CompareError::ThreadMismatch {
            older: older_threads,
            newer: newer_threads,
        });
    }
    let f64_field = |r: &Value, name: &'static str| {
        r.get(name)
            .and_then(Value::as_f64)
            .ok_or(CompareError::MissingField(name))
    };
    let u64_field = |r: &Value, name: &'static str| {
        r.get(name)
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField(name))
    };
    let older_warm_start_us = f64_field(older, "warm_start_us")?;
    let newer_warm_start_us = f64_field(newer, "warm_start_us")?;
    let cold_start_us = f64_field(newer, "cold_start_us")?;
    let banks_restored = u64_field(newer, "banks_restored")?;
    let banks_recalibrated = u64_field(newer, "banks_recalibrated")?;
    let wal_records_replayed = u64_field(newer, "wal_records_replayed")?;
    let replay_mismatches = u64_field(newer, "replay_mismatches")?;
    let warm_ratio = if older_warm_start_us > 0.0 {
        newer_warm_start_us / older_warm_start_us
    } else if newer_warm_start_us > 0.0 {
        f64::INFINITY
    } else {
        1.0
    };
    Ok(RestartComparison {
        threads: newer_threads,
        cold_start_us,
        older_warm_start_us,
        newer_warm_start_us,
        banks_restored,
        banks_recalibrated,
        wal_records_replayed,
        replay_mismatches,
        warm_ratio,
        warm_threshold,
        regressed: banks_restored == 0
            || banks_recalibrated > 0
            || replay_mismatches > 0
            || newer_warm_start_us >= cold_start_us
            || warm_ratio > 1.0 + warm_threshold,
    })
}

/// What [`compare_latest_backends`] found in the newest `backends`
/// record.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendsComparison {
    /// Worker threads of the gated run.
    pub threads: u64,
    /// Backends that missed their advertised contract.
    pub contract_violations: u64,
    /// Whether the circuit row diverged from the directly-driven
    /// circuit baseline.
    pub reference_drift: bool,
    /// Backend-specific faults detected *and* healed.
    pub faults_detected: u64,
    /// Faults the campaign expected to detect (0 when masked).
    pub faults_expected: u64,
    /// Whether the gate fired.
    pub regressed: bool,
}

impl fmt::Display for BackendsComparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "backends: {} contract violation(s), reference drift {}, \
             {}/{} fault(s) detected+healed ({} thread(s); gates 0 violations, \
             no drift, all faults caught): {}",
            self.contract_violations,
            if self.reference_drift { "yes" } else { "no" },
            self.faults_detected,
            self.faults_expected,
            self.threads,
            if self.regressed { "REGRESSED" } else { "ok" }
        )
    }
}

/// Gates the latest `backends` record (the journal kind written by
/// `repro backends`). Unlike the trend gates this one is *absolute* and
/// needs only a single record: every backend must meet its advertised
/// contract, the circuit reference must not drift from the
/// directly-driven baseline by a single byte, and every backend-specific
/// fault the campaign injected must have been detected and healed.
///
/// # Errors
///
/// [`CompareError::TooFewRecords`] when no `backends` record exists,
/// [`CompareError::MissingField`] on records without the backends
/// fields.
pub fn compare_latest_backends(records: &[Value]) -> Result<BackendsComparison, CompareError> {
    let matching: Vec<&Value> = records
        .iter()
        .filter(|r| r.get("experiments").and_then(Value::as_str) == Some("backends"))
        .collect();
    let [.., newer] = matching.as_slice() else {
        return Err(CompareError::TooFewRecords {
            found: 0,
            experiments: "backends".to_owned(),
        });
    };
    let u64_field = |name: &'static str| {
        newer
            .get(name)
            .and_then(Value::as_u64)
            .ok_or(CompareError::MissingField(name))
    };
    let threads = u64_field("threads")?;
    let contract_violations = u64_field("contract_violations")?;
    let reference_drift = newer
        .get("reference_drift")
        .and_then(Value::as_bool)
        .ok_or(CompareError::MissingField("reference_drift"))?;
    let faults_detected = u64_field("faults_detected")?;
    let faults_expected = u64_field("faults_expected")?;
    Ok(BackendsComparison {
        threads,
        contract_violations,
        reference_drift,
        faults_detected,
        faults_expected,
        regressed: contract_violations > 0 || reference_drift || faults_detected < faults_expected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(experiments: &str, threads: u64, wall_s: f64) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", experiments)
            .with("threads", threads)
            .with("wall_s", wall_s)
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
    fn legacy_single_object_loads_as_one_record() {
        let path = temp_path("legacy");
        std::fs::write(
            &path,
            "{\n  \"experiments\": \"fig9\",\n  \"threads\": 1,\n  \"wall_s\": 0.011\n}\n",
        )
        .unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].get("wall_s").unwrap().as_f64(), Some(0.011));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn appending_to_a_legacy_file_migrates_it() {
        let path = temp_path("migrate");
        std::fs::write(
            &path,
            "{\n  \"experiments\": \"all\",\n  \"threads\": 1,\n  \"wall_s\": 6.5\n}\n",
        )
        .unwrap();
        append(&path, &record("fig9", 1, 0.01)).unwrap();
        let records = load(&path).unwrap();
        assert_eq!(records.len(), 2, "legacy record + appended record");
        assert_eq!(records[0].get("experiments").unwrap().as_str(), Some("all"));
        assert_eq!(records[0].get("wall_s").unwrap().as_f64(), Some(6.5));
        assert_eq!(
            records[1].get("experiments").unwrap().as_str(),
            Some("fig9")
        );
        std::fs::remove_file(&path).unwrap();
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

    #[test]
    fn compare_ignores_zero_point_records() {
        let zero = record("all", 1, 0.0).with("csv_points", 0u64);
        assert!(is_zero_point(&zero));
        // A skipped-campaign record must be invisible to the gate: the
        // real baseline is the latest two records with actual points.
        let records = vec![
            record("all", 1, 6.0).with("csv_points", 172u64),
            record("all", 1, 6.2).with("csv_points", 172u64),
            zero.clone(),
        ];
        let c = compare_latest(&records, "all", DEFAULT_THRESHOLD).unwrap();
        assert_eq!(c.older_wall_s, 6.0);
        assert_eq!(c.newer_wall_s, 6.2);
        assert!(!c.regressed, "{c}");
        // With only one valid record left, the error is the clear
        // one-liner, not a bogus comparison against the zero record.
        let records = vec![record("all", 1, 6.0).with("csv_points", 172u64), zero];
        let err = compare_latest(&records, "all", DEFAULT_THRESHOLD).unwrap_err();
        assert_eq!(
            err,
            CompareError::TooFewRecords {
                found: 1,
                experiments: "all".to_owned()
            }
        );
        assert!(err.to_string().contains("zero-point"), "{err}");
        // Legacy records without csv_points stay comparable.
        assert!(!is_zero_point(&record("all", 1, 6.0)));
    }

    #[test]
    fn compare_ignores_partially_resumed_records() {
        // A --resume run only re-ran part of the campaign: its wall
        // clock would make every honest full run look regressed.
        let records = vec![
            record("all", 1, 6.0).with("csv_points", 172u64),
            record("all", 1, 1.8)
                .with("csv_points", 40u64)
                .with("resumed", true),
            record("all", 1, 6.2).with("csv_points", 172u64),
        ];
        let c = compare_latest(&records, "all", DEFAULT_THRESHOLD).unwrap();
        assert_eq!(c.older_wall_s, 6.0);
        assert_eq!(c.newer_wall_s, 6.2);
        assert!(!c.regressed, "{c}");
    }

    #[test]
    fn compare_picks_latest_two_matching() {
        let records = vec![
            record("all", 1, 10.0),
            record("fig9", 1, 0.01), // interleaved single-figure run: ignored
            record("all", 1, 6.0),
            record("all", 1, 6.3),
        ];
        let c = compare_latest(&records, "all", DEFAULT_THRESHOLD).unwrap();
        assert_eq!(c.older_wall_s, 6.0);
        assert_eq!(c.newer_wall_s, 6.3);
        assert!(!c.regressed, "{c}");
    }

    #[test]
    fn compare_flags_regression_over_threshold() {
        let records = vec![record("all", 1, 6.0), record("all", 1, 6.61)];
        let c = compare_latest(&records, "all", 0.10).unwrap();
        assert!(c.regressed, "{c}");
        // And just inside the gate passes.
        let records = vec![record("all", 1, 6.0), record("all", 1, 6.59)];
        assert!(!compare_latest(&records, "all", 0.10).unwrap().regressed);
    }

    #[test]
    fn compare_requires_two_records_and_equal_threads() {
        assert_eq!(
            compare_latest(&[record("all", 1, 6.0)], "all", 0.1),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "all".to_owned()
            })
        );
        assert_eq!(
            compare_latest(&[record("all", 1, 6.0), record("all", 4, 2.0)], "all", 0.1),
            Err(CompareError::ThreadMismatch { older: 1, newer: 4 })
        );
    }

    fn hotpath_record(threads: u64, solve_p99_us: f64, allocs: f64) -> Value {
        record("all", threads, 6.0)
            .with("csv_points", 172u64)
            .with("solve_p99_us", solve_p99_us)
            .with("allocs_per_request", allocs)
    }

    #[test]
    fn hotpath_compare_gates_solve_p99_and_allocations() {
        // A 2× p99 bucket step with flat allocations passes the loose
        // latency leg.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            hotpath_record(4, 8000.0, 9.5),
        ];
        let c = compare_latest_hotpath(&records, SOLVE_THRESHOLD, DEFAULT_THRESHOLD).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(c.p99_ratio, 2.0);
        // A >4× p99 blowup trips it.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            hotpath_record(4, 17000.0, 9.5),
        ];
        assert!(
            compare_latest_hotpath(&records, SOLVE_THRESHOLD, DEFAULT_THRESHOLD)
                .unwrap()
                .regressed
        );
        // Allocations per request are deterministic, so their gate is
        // the tight default: +11 % fails even with a flat p99.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            hotpath_record(4, 4000.0, 10.6),
        ];
        assert!(
            compare_latest_hotpath(&records, SOLVE_THRESHOLD, DEFAULT_THRESHOLD)
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn hotpath_compare_skips_uninstrumented_and_invalid_records() {
        // Pre-fast-path records (no hot-path fields) and zero-point or
        // resumed records never become baselines: the gate arms itself
        // only once two instrumented full runs exist.
        let legacy = record("all", 4, 6.0).with("csv_points", 172u64);
        let zero = record("all", 4, 0.1)
            .with("csv_points", 0u64)
            .with("solve_p99_us", 4000.0)
            .with("allocs_per_request", 9.5);
        let resumed = hotpath_record(4, 900.0, 2.0).with("resumed", true);
        let records = vec![
            legacy.clone(),
            zero,
            resumed,
            hotpath_record(4, 4000.0, 9.5),
        ];
        assert_eq!(
            compare_latest_hotpath(&records, SOLVE_THRESHOLD, DEFAULT_THRESHOLD),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "all".to_owned()
            })
        );
        // Two instrumented records compare even across interleaved
        // legacy ones.
        let records = vec![
            hotpath_record(4, 4000.0, 9.5),
            legacy,
            hotpath_record(4, 4100.0, 9.5),
        ];
        let c = compare_latest_hotpath(&records, SOLVE_THRESHOLD, DEFAULT_THRESHOLD).unwrap();
        assert_eq!(c.older_solve_p99_us, 4000.0);
        assert_eq!(c.newer_solve_p99_us, 4100.0);
        assert!(!c.regressed, "{c}");
        // Different widths are not comparable.
        let records = vec![
            hotpath_record(2, 4000.0, 9.5),
            hotpath_record(4, 4000.0, 9.5),
        ];
        assert_eq!(
            compare_latest_hotpath(&records, SOLVE_THRESHOLD, DEFAULT_THRESHOLD),
            Err(CompareError::ThreadMismatch { older: 2, newer: 4 })
        );
    }

    fn serve_record(threads: u64, p99_us: f64, rps: f64) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "serve-bench")
            .with("threads", threads)
            .with("p99_us", p99_us)
            .with("throughput_rps", rps)
    }

    #[test]
    fn serve_compare_gates_p99_and_throughput() {
        // Within the loose gate: a 2× p99 bucket step passes.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 800.0, 4800.0),
        ];
        let c = compare_latest_serve(&records, SERVE_THRESHOLD).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(c.p99_ratio, 2.0);
        // A >4× p99 blowup trips it.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 1700.0, 4800.0),
        ];
        assert!(
            compare_latest_serve(&records, SERVE_THRESHOLD)
                .unwrap()
                .regressed
        );
        // So does a throughput collapse, even with a flat p99.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            serve_record(4, 400.0, 1000.0),
        ];
        assert!(
            compare_latest_serve(&records, SERVE_THRESHOLD)
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn serve_compare_needs_two_records_and_equal_workers() {
        // Wall-clock records in the same journal are not serve records.
        let records = vec![record("all", 1, 6.0), serve_record(4, 400.0, 5000.0)];
        assert_eq!(
            compare_latest_serve(&records, SERVE_THRESHOLD),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "serve-bench".to_owned()
            })
        );
        let records = vec![
            serve_record(2, 400.0, 5000.0),
            serve_record(4, 400.0, 5000.0),
        ];
        assert_eq!(
            compare_latest_serve(&records, SERVE_THRESHOLD),
            Err(CompareError::ThreadMismatch { older: 2, newer: 4 })
        );
        let bad = vec![
            serve_record(4, 400.0, 5000.0),
            Value::obj()
                .with("experiments", "serve-bench")
                .with("threads", 4u64),
        ];
        assert_eq!(
            compare_latest_serve(&bad, SERVE_THRESHOLD),
            Err(CompareError::MissingField("p99_us"))
        );
    }

    fn mt_record(threads: u64, p999_us: f64, fairness: f64) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "serve-bench-mt")
            .with("threads", threads)
            .with("tenants", 16u64)
            .with("p999_us", p999_us)
            .with("fairness_ratio", fairness)
    }

    #[test]
    fn fairness_compare_gates_p999_growth_and_the_newest_ratio() {
        // Balanced and flat: ok.
        let records = vec![mt_record(4, 2000.0, 1.1), mt_record(4, 4000.0, 1.3)];
        let c = compare_latest_fairness(&records, SERVE_THRESHOLD, FAIRNESS_THRESHOLD).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(c.p999_ratio, 2.0);
        assert_eq!(c.tenants, 16);
        // A >4× p99.9 blowup trips the latency side.
        let records = vec![mt_record(4, 2000.0, 1.1), mt_record(4, 9000.0, 1.1)];
        assert!(
            compare_latest_fairness(&records, SERVE_THRESHOLD, FAIRNESS_THRESHOLD)
                .unwrap()
                .regressed
        );
        // A starved tenant trips the fairness side even with flat
        // latency — the ratio is absolute, judged on the newest run
        // alone, so an injection cannot hide behind a calm older run.
        let records = vec![mt_record(4, 2000.0, 1.1), mt_record(4, 2000.0, 9.7)];
        let c = compare_latest_fairness(&records, SERVE_THRESHOLD, FAIRNESS_THRESHOLD).unwrap();
        assert!(c.regressed, "{c}");
        assert!(c.to_string().contains("REGRESSED"), "{c}");
    }

    #[test]
    fn fairness_compare_needs_two_mt_records_with_full_fields() {
        // Single-tenant serve records do not feed the mt gate.
        let records = vec![serve_record(4, 400.0, 5000.0), mt_record(4, 2000.0, 1.1)];
        assert_eq!(
            compare_latest_fairness(&records, SERVE_THRESHOLD, FAIRNESS_THRESHOLD),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "serve-bench-mt".to_owned()
            })
        );
        let records = vec![mt_record(2, 2000.0, 1.1), mt_record(4, 2000.0, 1.1)];
        assert_eq!(
            compare_latest_fairness(&records, SERVE_THRESHOLD, FAIRNESS_THRESHOLD),
            Err(CompareError::ThreadMismatch { older: 2, newer: 4 })
        );
        let bad = vec![
            mt_record(4, 2000.0, 1.1),
            Value::obj()
                .with("experiments", "serve-bench-mt")
                .with("threads", 4u64),
        ];
        assert_eq!(
            compare_latest_fairness(&bad, SERVE_THRESHOLD, FAIRNESS_THRESHOLD),
            Err(CompareError::MissingField("p999_us"))
        );
    }

    fn soak_record(
        threads: u64,
        mttr_p99_us: f64,
        availability: f64,
        incidents: u64,
        unhealed: u64,
    ) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "soak")
            .with("threads", threads)
            .with("incidents", incidents)
            .with("unhealed", unhealed)
            .with("mttr_p99_us", mttr_p99_us)
            .with("availability", availability)
    }

    #[test]
    fn soak_compare_gates_mttr_growth_and_the_newest_health() {
        // MTTR doubled but everything healed and availability held: ok.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 200_000.0, 0.995, 4, 0),
        ];
        let c =
            compare_latest_soak(&records, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(c.mttr_ratio, 2.0);
        assert_eq!(c.incidents, 4);
        // A >4× recovery blowup trips the MTTR side.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 500_000.0, 1.0, 4, 0),
        ];
        assert!(
            compare_latest_soak(&records, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR)
                .unwrap()
                .regressed
        );
        // An availability dip trips the floor even with flat MTTR —
        // absolute on the newest run, so an outage cannot hide behind a
        // calm older baseline.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 100_000.0, 0.97, 4, 0),
        ];
        let c =
            compare_latest_soak(&records, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR).unwrap();
        assert!(c.regressed, "{c}");
        assert!(c.to_string().contains("REGRESSED"), "{c}");
        // A single unhealed incident trips it outright — this is the
        // deterministic red leg: recalibration sabotaged, nothing heals.
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            soak_record(2, 100_000.0, 1.0, 4, 1),
        ];
        assert!(
            compare_latest_soak(&records, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR)
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn soak_compare_needs_two_soak_records_with_full_fields() {
        // Other serve-side records in the journal do not feed the gate.
        let records = vec![
            serve_record(4, 400.0, 5000.0),
            soak_record(2, 100_000.0, 1.0, 4, 0),
        ];
        assert_eq!(
            compare_latest_soak(&records, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "soak".to_owned()
            })
        );
        let records = vec![
            soak_record(1, 100_000.0, 1.0, 4, 0),
            soak_record(2, 100_000.0, 1.0, 4, 0),
        ];
        assert_eq!(
            compare_latest_soak(&records, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR),
            Err(CompareError::ThreadMismatch { older: 1, newer: 2 })
        );
        let bad = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            Value::obj()
                .with("experiments", "soak")
                .with("threads", 2u64),
        ];
        assert_eq!(
            compare_latest_soak(&bad, SOAK_MTTR_THRESHOLD, SOAK_AVAILABILITY_FLOOR),
            Err(CompareError::MissingField("mttr_p99_us"))
        );
    }

    fn restart_record(
        threads: u64,
        cold_start_us: f64,
        warm_start_us: f64,
        banks_restored: u64,
        banks_recalibrated: u64,
        replay_mismatches: u64,
    ) -> Value {
        Value::obj()
            .with("schema", SCHEMA_VERSION)
            .with("experiments", "restart")
            .with("threads", threads)
            .with("cold_start_us", cold_start_us)
            .with("warm_start_us", warm_start_us)
            .with("banks_restored", banks_restored)
            .with("banks_recalibrated", banks_recalibrated)
            .with("wal_records_replayed", 12u64)
            .with("replay_mismatches", replay_mismatches)
    }

    #[test]
    fn restart_compare_gates_warm_growth_and_the_newest_recovery() {
        // Warm start half the cold start, a bank restored, no
        // divergence: ok even when the warm time doubled run-over-run.
        let records = vec![
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
            restart_record(2, 900_000.0, 200_000.0, 1, 0, 0),
        ];
        let c = compare_latest_restart(&records, RESTART_THRESHOLD).unwrap();
        assert!(!c.regressed, "{c}");
        assert_eq!(c.warm_ratio, 2.0);
        assert_eq!(c.banks_restored, 1);
        // A >4× warm-start blowup trips the growth side.
        let records = vec![
            restart_record(2, 9_000_000.0, 100_000.0, 1, 0, 0),
            restart_record(2, 9_000_000.0, 500_000.0, 1, 0, 0),
        ];
        assert!(
            compare_latest_restart(&records, RESTART_THRESHOLD)
                .unwrap()
                .regressed
        );
        // The correctness legs are absolute on the newest run: zero
        // banks restored, any replay divergence, any forced
        // recalibration, or warm slower than cold each trip alone.
        for newest in [
            restart_record(2, 900_000.0, 100_000.0, 0, 0, 0),
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 3),
            restart_record(2, 900_000.0, 100_000.0, 1, 1, 0),
            restart_record(2, 900_000.0, 950_000.0, 1, 0, 0),
        ] {
            let records = vec![restart_record(2, 900_000.0, 100_000.0, 1, 0, 0), newest];
            let c = compare_latest_restart(&records, RESTART_THRESHOLD).unwrap();
            assert!(c.regressed, "{c}");
            assert!(c.to_string().contains("REGRESSED"), "{c}");
        }
    }

    #[test]
    fn restart_compare_needs_two_restart_records_with_full_fields() {
        let records = vec![
            soak_record(2, 100_000.0, 1.0, 4, 0),
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
        ];
        assert_eq!(
            compare_latest_restart(&records, RESTART_THRESHOLD),
            Err(CompareError::TooFewRecords {
                found: 1,
                experiments: "restart".to_owned()
            })
        );
        let records = vec![
            restart_record(1, 900_000.0, 100_000.0, 1, 0, 0),
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
        ];
        assert_eq!(
            compare_latest_restart(&records, RESTART_THRESHOLD),
            Err(CompareError::ThreadMismatch { older: 1, newer: 2 })
        );
        let bad = vec![
            restart_record(2, 900_000.0, 100_000.0, 1, 0, 0),
            Value::obj()
                .with("experiments", "restart")
                .with("threads", 2u64),
        ];
        assert_eq!(
            compare_latest_restart(&bad, RESTART_THRESHOLD),
            Err(CompareError::MissingField("warm_start_us"))
        );
    }

    fn backends_record(violations: u64, drift: bool, detected: u64, expected: u64) -> Value {
        Value::obj()
            .with("experiments", "backends")
            .with("threads", 2u64)
            .with("contract_violations", violations)
            .with("reference_drift", drift)
            .with("faults_detected", detected)
            .with("faults_expected", expected)
    }

    #[test]
    fn backends_compare_is_absolute_on_the_newest_record() {
        // A single clean record passes — the gate needs no baseline.
        let c = compare_latest_backends(&[backends_record(0, false, 3, 3)]).unwrap();
        assert!(!c.regressed, "{c}");
        // Only the newest record is gated: an old violation is history.
        let records = vec![
            backends_record(2, true, 0, 3),
            backends_record(0, false, 3, 3),
        ];
        assert!(!compare_latest_backends(&records).unwrap().regressed);
        // Each leg trips alone.
        for red in [
            backends_record(1, false, 3, 3),
            backends_record(0, true, 3, 3),
            backends_record(0, false, 2, 3),
        ] {
            let c = compare_latest_backends(&[red]).unwrap();
            assert!(c.regressed, "{c}");
            assert!(c.to_string().contains("REGRESSED"), "{c}");
        }
        // Masked injection (0/0 faults) is not a failure.
        assert!(
            !compare_latest_backends(&[backends_record(0, false, 0, 0)])
                .unwrap()
                .regressed
        );
    }

    #[test]
    fn backends_compare_needs_a_record_with_full_fields() {
        let records = vec![soak_record(2, 100_000.0, 1.0, 4, 0)];
        assert_eq!(
            compare_latest_backends(&records),
            Err(CompareError::TooFewRecords {
                found: 0,
                experiments: "backends".to_owned()
            })
        );
        let bad = vec![Value::obj()
            .with("experiments", "backends")
            .with("threads", 2u64)];
        assert_eq!(
            compare_latest_backends(&bad),
            Err(CompareError::MissingField("contract_violations"))
        );
    }
}
