//! `repro restart` — the durable-serving warm-restart campaign
//! (DESIGN.md §16).
//!
//! Boots a durable in-process server on a scratch state directory and
//! times the **cold start** (full calibration sweep), programs a seeded
//! batch of `set_delay`s carrying retry ids, then stops the server the
//! unclean way — drained but never compacted, so the WAL is left for
//! the next boot. A second boot on the same directory times the **warm
//! start** (snapshot restore → sentinel verification → WAL replay) and
//! the campaign re-issues the identical request script twice: once with
//! the original `req_id`s (every answer must come from the restored
//! dedup window) and once without (every answer must come from the
//! restored tables). Any byte-level divergence from the pre-restart
//! answers — modulo the `server_epoch` stamp — counts as a
//! `replay_mismatch`, and the gate treats a single one as a failure:
//! a recovered server must never serve a wrong table.
//!
//! With fault injection armed ([`vardelay_faults::enabled`]) the
//! campaign adds a sabotage leg: it corrupts one snapshot file on disk
//! and boots a third time, requiring the server to *refuse* the corrupt
//! snapshot, recalibrate that bank from scratch, and still answer the
//! fresh script byte-identically. The aggregate lands in a `restart`
//! journal record gated by `repro compare restart` (see
//! [`vardelay_obs::journal::GATES`]): warm must beat
//! cold, at least one bank must restore, nothing may recalibrate on an
//! intact store, and the warm start must not blow up run-over-run.
//!
//! One honesty caveat, also noted in EXPERIMENTS.md: because both legs
//! run in one process, the warm boot additionally benefits from the
//! process-wide measurement memo the cold boot filled. The gate's
//! warm<cold leg is therefore conservative evidence that the snapshot
//! path is cheap, not a pure measure of it; `restore_us` (recovery work
//! only) is recorded alongside for the direct number.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use vardelay_obs::journal;
use vardelay_obs::json::Value;
use vardelay_serve::{serve, Client, Envelope, Request, Response, ServeConfig, ServerHandle};
use vardelay_siggen::SplitMix64;

use crate::EXPERIMENT_SEED;

/// Campaign shape. [`Default`] is what CI runs: 24 programmed delays
/// across the 8 channels, a scratch state directory under the system
/// temp dir, and the shared experiment seed.
#[derive(Debug, Clone)]
pub struct RestartConfig {
    /// `set_delay` requests programmed before the unclean stop.
    pub requests: usize,
    /// State directory; `None` uses (and afterwards removes) a scratch
    /// directory under the system temp dir.
    pub state_dir: Option<PathBuf>,
    /// Seed for the programmed delay targets.
    pub seed: u64,
}

impl Default for RestartConfig {
    fn default() -> Self {
        RestartConfig {
            requests: 24,
            state_dir: None,
            seed: EXPERIMENT_SEED,
        }
    }
}

impl RestartConfig {
    /// The default campaign with the request count taken from
    /// `VARDELAY_RESTART_REQUESTS` when set.
    pub fn from_env() -> Self {
        let mut config = RestartConfig::default();
        if let Some(n) = std::env::var("VARDELAY_RESTART_REQUESTS")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            config.requests = n;
        }
        config
    }
}

/// What the campaign measured.
#[derive(Debug, Clone)]
pub struct RestartReport {
    /// Whether the sabotage leg ran ([`vardelay_faults::enabled`]).
    pub faults_enabled: bool,
    /// `set_delay` requests programmed before the stop.
    pub requests: u64,
    /// First-boot wall clock (bind → serving), microseconds.
    pub cold_start_us: u64,
    /// Restarted-boot wall clock on the same directory, microseconds.
    pub warm_start_us: u64,
    /// Banks the warm boot restored from snapshots.
    pub banks_restored: u64,
    /// Banks the warm boot recalibrated despite the intact store
    /// (anything above zero is a gate failure).
    pub banks_recalibrated: u64,
    /// WAL records the warm boot replayed.
    pub wal_records_replayed: u64,
    /// The warm boot's own recovery work (restore + verify + replay),
    /// microseconds, as reported by the server.
    pub restore_us: u64,
    /// Retried requests answered from the restored dedup window.
    pub dedup_hits: u64,
    /// Post-restart answers that diverged byte-for-byte (modulo the
    /// epoch stamp) from their pre-restart twins, across both the
    /// retried and the fresh script and the sabotage leg.
    pub replay_mismatches: u64,
    /// Banks the sabotage boot recalibrated after the snapshot
    /// corruption (0 when faults are masked; ≥1 expected otherwise).
    pub sabotage_recalibrated: u64,
    /// The server's worker count (the gate's comparability key).
    pub workers: u64,
    /// Wall clock of the whole campaign.
    pub wall: Duration,
}

impl RestartReport {
    /// One greppable summary line. The CI restart job asserts on
    /// `banks_restored=`, `replay_mismatches=` and (faults armed)
    /// `sabotage_recalibrated=`.
    pub fn summary(&self) -> String {
        format!(
            "restart: requests={} cold_start={} us warm_start={} us restore={} us \
             banks_restored={} banks_recalibrated={} wal_records_replayed={} \
             dedup_hits={} replay_mismatches={} sabotage_recalibrated={} \
             workers={} faults={}",
            self.requests,
            self.cold_start_us,
            self.warm_start_us,
            self.restore_us,
            self.banks_restored,
            self.banks_recalibrated,
            self.wal_records_replayed,
            self.dedup_hits,
            self.replay_mismatches,
            self.sabotage_recalibrated,
            self.workers,
            if self.faults_enabled { "on" } else { "off" }
        )
    }

    /// The journal record `repro compare restart` gates on.
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        journal::header("restart", self.workers, git, unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("requests", self.requests)
            .with("cold_start_us", self.cold_start_us as f64)
            .with("warm_start_us", self.warm_start_us as f64)
            .with("restore_us", self.restore_us)
            .with("banks_restored", self.banks_restored)
            .with("banks_recalibrated", self.banks_recalibrated)
            .with("wal_records_replayed", self.wal_records_replayed)
            .with("dedup_hits", self.dedup_hits)
            .with("replay_mismatches", self.replay_mismatches)
            .with("sabotage_recalibrated", self.sabotage_recalibrated)
    }
}

/// Every response carries the restart counter; byte-identity across a
/// restart is judged modulo that one field.
fn strip_epoch(line: &str) -> String {
    match line.find(",\"server_epoch\":") {
        None => line.to_owned(),
        Some(start) => {
            // The field value is a bare integer, so the next `,` or `}`
            // past the key terminates it.
            let rest = &line[start + 1..];
            let end = rest.find([',', '}']).map_or(line.len(), |i| start + 1 + i);
            format!("{}{}", &line[..start], &line[end..])
        }
    }
}

/// Sends pre-rendered request lines sequentially and returns the raw
/// response lines exactly as they arrived.
fn wire_session(addr: SocketAddr, script: &[String]) -> std::io::Result<Vec<String>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut lines = Vec::with_capacity(script.len());
    for request in script {
        writer.write_all(request.as_bytes())?;
        writer.write_all(b"\n")?;
        writer.flush()?;
        let mut line = String::new();
        reader.read_line(&mut line)?;
        lines.push(line.trim_end().to_owned());
    }
    Ok(lines)
}

fn durable_config(dir: &Path) -> ServeConfig {
    let mut config = ServeConfig::in_process();
    config.workers = 2;
    config.shards = 1;
    config.state_dir = Some(dir.to_path_buf());
    config
}

fn stats(client: &mut Client, id: u64) -> std::io::Result<vardelay_serve::StatsReply> {
    let (_, response) = client.call(&Envelope {
        id: Some(id),
        deadline_ms: None,
        tenant: None,
        req_id: None,
        backend: None,
        request: Request::Stats,
    })?;
    match response {
        Response::Stats(stats) => Ok(stats),
        other => Err(std::io::Error::other(format!("stats drew {other:?}"))),
    }
}

/// Drains the listener but drops the handle without `join()`, so the
/// parting WAL compaction never runs — the crash-shaped stop the warm
/// boot must recover from.
fn stop_without_compaction(handle: ServerHandle) -> std::io::Result<()> {
    handle.shutdown();
    let addr = handle.addr();
    drop(handle);
    let deadline = Instant::now() + Duration::from_secs(30);
    while TcpStream::connect(addr).is_ok() {
        if Instant::now() >= deadline {
            return Err(std::io::Error::other("listener never closed on shutdown"));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    // The drained workers have answered every admitted request; give
    // their final WAL appends a beat to land before reopening the log.
    std::thread::sleep(Duration::from_millis(200));
    Ok(())
}

/// Flips one byte in the middle of the first snapshot file found under
/// the store, returning whether anything was sabotaged.
fn corrupt_one_snapshot(dir: &std::path::Path) -> std::io::Result<bool> {
    let banks = dir.join("banks");
    let Ok(tenants) = std::fs::read_dir(&banks) else {
        return Ok(false);
    };
    for tenant in tenants.flatten() {
        let Ok(files) = std::fs::read_dir(tenant.path()) else {
            continue;
        };
        for file in files.flatten() {
            let path = file.path();
            if path.extension().and_then(|e| e.to_str()) != Some("snap") {
                continue;
            }
            let mut bytes = std::fs::read(&path)?;
            if bytes.is_empty() {
                continue;
            }
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&path, &bytes)?;
            return Ok(true);
        }
    }
    Ok(false)
}

fn count_mismatches(before: &[String], after: &[String]) -> u64 {
    before
        .iter()
        .zip(after)
        .filter(|(old, new)| strip_epoch(old) != strip_epoch(new))
        .count() as u64
        + before.len().abs_diff(after.len()) as u64
}

/// Runs the campaign and gathers the report.
///
/// # Errors
///
/// Returns an I/O error when a server cannot bind, a connection dies
/// mid-script, or the scratch directory cannot be prepared; answer
/// divergence is *counted* (`replay_mismatches`) rather than erroring,
/// so the gate — not the campaign — decides what a mismatch means.
pub fn run_restart(config: &RestartConfig) -> std::io::Result<RestartReport> {
    vardelay_obs::set_enabled(true);
    let faults_enabled = vardelay_faults::enabled();
    let scratch = config.state_dir.is_none();
    let dir = config.state_dir.clone().unwrap_or_else(|| {
        let mut dir = std::env::temp_dir();
        dir.push(format!("vardelay_restart_{}", std::process::id()));
        dir
    });
    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    let started = Instant::now();

    // The seeded script: every request carries a retry id so the warm
    // boot's dedup window can be measured.
    let mut rng = SplitMix64::new(config.seed);
    let targets: Vec<(usize, f64)> = (0..config.requests)
        .map(|i| (i % 8, 7.5 * (rng.next_u64() % 16 + 1) as f64))
        .collect();
    let render = |with_req_id: bool| -> Vec<String> {
        targets
            .iter()
            .enumerate()
            .map(|(i, &(channel, ps))| {
                let envelope = Envelope {
                    id: Some(i as u64 + 1),
                    deadline_ms: None,
                    tenant: None,
                    req_id: with_req_id.then(|| format!("r-{i}")),
                    backend: None,
                    request: Request::SetDelay { channel, ps },
                };
                envelope.to_value().render()
            })
            .collect()
    };
    let retried = render(true);
    let fresh = render(false);

    // Cold leg: first boot pays the full calibration sweep.
    let t0 = Instant::now();
    let handle = serve(durable_config(&dir))?;
    let cold_start_us = t0.elapsed().as_micros() as u64;
    let before = wire_session(handle.addr(), &retried)?;
    stop_without_compaction(handle)?;

    // Warm leg: snapshots + WAL on the same directory.
    let t1 = Instant::now();
    let handle = serve(durable_config(&dir))?;
    let warm_start_us = t1.elapsed().as_micros() as u64;
    let mut probe = Client::connect(handle.addr())?;
    let warm_stats = stats(&mut probe, 9_000)?;
    let replay = wire_session(handle.addr(), &retried)?;
    let mut replay_mismatches = count_mismatches(&before, &replay);
    let dedup_hits = stats(&mut probe, 9_001)?.dedup_hits;
    let solved = wire_session(handle.addr(), &fresh)?;
    replay_mismatches += count_mismatches(&before, &solved);
    handle.shutdown();
    let drained = handle.join();

    // Sabotage leg (faults armed): a corrupted snapshot must be refused
    // and recalibrated — and the answers must still not change.
    let mut sabotage_recalibrated = 0u64;
    if faults_enabled && corrupt_one_snapshot(&dir)? {
        let handle = serve(durable_config(&dir))?;
        let mut probe = Client::connect(handle.addr())?;
        sabotage_recalibrated = stats(&mut probe, 9_002)?.banks_recalibrated;
        let answers = wire_session(handle.addr(), &fresh)?;
        replay_mismatches += count_mismatches(&before, &answers);
        handle.shutdown();
        handle.join();
    }

    if scratch {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(RestartReport {
        faults_enabled,
        requests: config.requests as u64,
        cold_start_us,
        warm_start_us,
        banks_restored: warm_stats.banks_restored,
        banks_recalibrated: warm_stats.banks_recalibrated,
        wal_records_replayed: warm_stats.wal_records_replayed,
        restore_us: warm_stats.restore_us,
        dedup_hits,
        replay_mismatches,
        sabotage_recalibrated,
        workers: drained.stats.workers,
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_obs::journal::{gate, Rule};

    fn report(warm_start_us: u64, banks_restored: u64, replay_mismatches: u64) -> RestartReport {
        RestartReport {
            faults_enabled: true,
            requests: 24,
            cold_start_us: 900_000,
            warm_start_us,
            banks_restored,
            banks_recalibrated: 0,
            wal_records_replayed: 48,
            restore_us: 30_000,
            dedup_hits: 24,
            replay_mismatches,
            sabotage_recalibrated: 1,
            workers: 2,
            wall: Duration::from_secs(4),
        }
    }

    #[test]
    fn the_record_round_trips_through_the_restart_gate() {
        let record = report(100_000, 1, 0).record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("restart")
        );
        let records = vec![record.clone(), record];
        let cmp = gate("restart")
            .unwrap()
            .evaluate(&records)
            .expect("two identical records compare");
        assert!(!cmp.regressed(), "{cmp}");
    }

    #[test]
    fn a_diverging_replay_turns_the_gate_red() {
        let green = report(100_000, 1, 0).record("deadbeef", 1_700_000_000_000);
        let red = report(100_000, 1, 2).record("deadbeef", 1_700_000_100_000);
        let records = [green, red];
        let cmp = gate("restart")
            .unwrap()
            .evaluate(&records)
            .expect("records compare");
        assert_eq!(
            cmp.failed,
            [Rule::Ceiling("replay_mismatches", 0.0)],
            "{cmp}"
        );
        assert!(cmp.to_string().contains("REGRESSED"), "{cmp}");
    }

    #[test]
    fn a_cold_shaped_warm_start_turns_the_gate_red() {
        // Warm no faster than cold means the snapshots bought nothing.
        let green = report(100_000, 1, 0).record("deadbeef", 1_700_000_000_000);
        let red = report(950_000, 1, 0).record("deadbeef", 1_700_000_100_000);
        let records = [green, red];
        let cmp = gate("restart")
            .unwrap()
            .evaluate(&records)
            .expect("records compare");
        // The 9.5× warm growth trips too; the warm<cold leg must trip
        // in its own right.
        assert!(
            cmp.failed
                .contains(&Rule::Below("warm_start_us", "cold_start_us")),
            "{cmp}"
        );
    }

    #[test]
    fn the_summary_carries_the_fields_ci_greps() {
        let summary = report(100_000, 1, 0).summary();
        for needle in [
            "banks_restored=1",
            "banks_recalibrated=0",
            "replay_mismatches=0",
            "sabotage_recalibrated=1",
            "dedup_hits=24",
            "faults=on",
        ] {
            assert!(summary.contains(needle), "{needle} missing from {summary}");
        }
    }

    #[test]
    fn epoch_stripping_only_removes_the_one_field() {
        assert_eq!(
            strip_epoch("{\"id\":1,\"server_epoch\":3,\"ok\":true}"),
            "{\"id\":1,\"ok\":true}"
        );
        assert_eq!(strip_epoch("{\"id\":1,\"server_epoch\":12}"), "{\"id\":1}");
        assert_eq!(strip_epoch("{\"id\":1}"), "{\"id\":1}");
    }
}
