//! The four workloads. Each builds its inputs from the seed, sets the
//! program up, times its load, checks every output against an oracle, and
//! hands the traced run what its replay needs.
//!
//! Work is sized from `--seconds` at fixed nominal rates, so a run does the
//! same amount of work on every commit: a faster program finishes sooner
//! rather than doing more, and the sample counts, and with them the tail
//! percentile reported, never change between the two sides of a
//! comparison.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use vardelay_backend::{BackendKind, CircuitBackend, DelayBackend};
use vardelay_bench::{ablation, extensions, eyes, faults_campaign, fine_delay, injection, skew};
use vardelay_core::ModelConfig;
use vardelay_runner::Runner;
use vardelay_serve::{serve, DelayReply, Response, ServeConfig, ServerHandle, SERVE_SEED};

use crate::gen::{
    churn_mix, poisson_schedule, steady_mix, sub_seed, SetDelay, SplitMix64, CHANNELS, GRID_POINTS,
};
use crate::load::{self, Pacing, Phase, MISSING};
use crate::metrics::Report;
use crate::oracle::{without_id, SetDelayOracle, CALIBRATION_CSV_DIGEST, FIGURES_DIGEST};
use crate::replay;
use crate::stats::{self, fnv1a, median, nearest_rank, sorted};
use crate::trace::Tracer;

/// Set-ups timed per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// `steady` open-loop arrival rate, requests/s.
const STEADY_RATE: f64 = 4000.0;
/// Nominal closed-loop `set_delay` rate on `steady`; sizes its burst.
const STEADY_BURST_RATE: f64 = 40_000.0;
/// `churn-durable` open-loop arrival rate, requests/s.
const CHURN_RATE: f64 = 50.0;
/// Nominal closed-loop rate on `churn-durable`; sizes its closed loop.
const CHURN_CLOSED_RATE: f64 = 140.0;
/// Resident tenant banks (the server default).
pub const BANKS: usize = 8;
/// Tenants on `churn-durable`: 1.25× the resident banks, so about a fifth
/// of requests rebuild an evicted bank.
pub const TENANTS: usize = 10;
/// Share of `churn-durable` requests that retry an earlier one.
pub const RETRY_SHARE: f64 = 0.1;
/// Requests outstanding in `steady`'s closed-loop burst: pipelined
/// capacity of the hot path.
const BURST_IN_FLIGHT: usize = 16;
/// Requests outstanding in `churn-durable`'s closed loop: a caller that
/// waits for every reply, as a deskew loop programming channels does.
/// With one outstanding request every fifth one rebuilds a bank in turn;
/// with sixteen, whether two rebuilds overlapped on the two workers moved
/// throughput by ±30 % between runs.
const CHURN_IN_FLIGHT: usize = 1;
/// Nominal cold calibrations per second; sizes `calibrate`.
const CALIBRATIONS_PER_S: f64 = 26.0;
/// Nominal seconds per full reproduction; sizes `figures`.
const REPRODUCTION_S: f64 = 2.5;

/// What every workload needs to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload seed.
    pub seed: u64,
    /// Nominal measuring time, seconds.
    pub seconds: f64,
    /// Cores; the server gets this many workers and sweeps this many
    /// threads.
    pub nproc: usize,
    /// A directory of the run's own for state and replay files.
    pub scratch: PathBuf,
}

/// One measured pass over a workload.
#[derive(Debug)]
pub struct Measured {
    /// Checks and end-to-end metrics.
    pub report: Report,
    /// Per-layer values observed during the load itself.
    pub live: BTreeMap<&'static str, f64>,
    /// Inputs for the traced replay.
    pub replay: replay::Inputs,
}

/// Runs `workload` once. `tracer` records spans around the workload's
/// calls when set. `Err` means the run could not be carried out at all.
pub fn measure(workload: &str, ctx: &Ctx, tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    match workload {
        "steady" => steady(ctx, tracer),
        "churn-durable" => churn_durable(ctx, tracer),
        "calibrate" => calibrate(ctx, tracer),
        "figures" => figures(ctx, tracer),
        other => Err(format!("unknown workload {other:?}")),
    }
}

fn scaled(x: f64, min: usize) -> usize {
    (x.round() as usize).max(min)
}

/// Empties both process-wide calibration caches, so the next calibration
/// runs the full waveform sweep.
pub fn clear_caches() {
    vardelay_core::clear_solve_cache();
    vardelay_analog::clear_characterization_cache();
}

/// The served configuration, every field set here: one shard, one worker
/// per core, the default 100 µs batch window and 8 banks, no quotas, no
/// chaos, no health supervisor. The lane depth is generous so that a
/// scheduling hiccup on a shared machine queues rather than sheds.
fn serve_config(nproc: usize, state_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        queue_depth: 1024,
        batch_window: Duration::from_micros(100),
        workers: nproc,
        shards: 1,
        channels: CHANNELS,
        max_banks: BANKS,
        quota_rps: None,
        quota_burst: None,
        default_deadline: Duration::from_secs(2),
        chaos: None,
        health_period: None,
        io_timeout: Duration::from_secs(10),
        recalibrate: true,
        state_dir,
        wal_compact: 512,
        backend: BackendKind::Circuit,
    }
}

fn start(config: &ServeConfig) -> Result<(ServerHandle, f64), String> {
    let t = Instant::now();
    let server = serve(config.clone()).map_err(|e| format!("serve(): {e}"))?;
    Ok((server, t.elapsed().as_secs_f64()))
}

/// A fresh directory under the run's scratch directory.
fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    ctx.scratch
        .join(format!("{name}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
}

/// Obs counters diffed around a load, with the per-layer metric each
/// one feeds.
const COUNTERS: [(&str, &str); 7] = [
    ("serve.bank_builds", "serve.shard.bank_builds"),
    ("serve.bank_evictions", "serve.shard.bank_evictions"),
    ("wal.records_appended", "serve.wal.records"),
    ("wal.compactions", "serve.wal.compactions"),
    ("analog.cache_misses", "analog.cache_misses"),
    ("core.solve_fast_misses", "core.solve.misses"),
    ("waveform.pool_allocs", "waveform.pool_allocs"),
];

struct Counters([u64; COUNTERS.len()]);

impl Counters {
    fn now() -> Counters {
        Counters(COUNTERS.map(|(c, _)| vardelay_obs::counter(c).get()))
    }

    fn since(&self, before: &Counters) -> BTreeMap<&'static str, f64> {
        COUNTERS
            .iter()
            .zip(self.0.iter().zip(&before.0))
            .map(|(&(_, metric), (now, then))| (metric, now.saturating_sub(*then) as f64))
            .collect()
    }
}

fn lines_of(mix: &[SetDelay], first_id: u64) -> Vec<String> {
    mix.iter()
        .enumerate()
        .map(|(i, r)| r.line(first_id + i as u64))
        .collect()
}

fn open_loop(
    addr: SocketAddr,
    mix: &[SetDelay],
    lines: &[String],
    due: &[u64],
    first_id: u64,
) -> Phase {
    let gate: Vec<Option<usize>> = mix.iter().map(|r| r.retry_of).collect();
    load::drive(
        addr,
        lines,
        first_id,
        Pacing::Open {
            due_ns: due,
            gate: &gate,
        },
    )
}

fn closed_loop(addr: SocketAddr, mix: &[SetDelay], first_id: u64, in_flight: usize) -> Phase {
    load::drive(
        addr,
        &lines_of(mix, first_id),
        first_id,
        Pacing::Closed { in_flight },
    )
}

/// Counts and checks every reply of a phase.
fn check_replies(
    report: &mut Report,
    oracle: &SetDelayOracle,
    mix: &[SetDelay],
    phase: &Phase,
    what: &str,
) {
    report.attempt(mix.len());
    if let Some(e) = &phase.transport_error {
        report.fail(format!("{what}: {e}"));
    }
    for (i, (req, reply)) in mix.iter().zip(&phase.replies).enumerate() {
        if phase.recv_ns[i] == MISSING {
            report.fail(format!(
                "{what} request {i}: no reply within 5 s of the last send"
            ));
        } else if let Err(e) = oracle.check(reply, req) {
            report.fail(format!("{what} request {i}: {e}"));
        }
    }
}

/// Sets the latency and throughput metrics from per-operation times in
/// ms, in the order the operations were due.
fn set_e2e(
    report: &mut Report,
    setup_s: f64,
    latencies_ms: &[f64],
    throughput: f64,
) -> Option<stats::Tail> {
    report.set("setup_s", setup_s);
    report.set("throughput_per_s", throughput);
    if latencies_ms.is_empty() {
        report.fail_check("no operation completed");
        report.set("latency_p50_ms", 0.0);
        report.set("latency_tail_ms", 0.0);
        return None;
    }
    let tail = stats::tail(latencies_ms);
    report.set("latency_p50_ms", median(latencies_ms));
    report.set("latency_tail_ms", tail.value);
    Some(tail)
}

fn print_e2e(report: &Report, tail: Option<stats::Tail>, setups: &[f64]) {
    let m = &report.metrics;
    let sorted_setups = stats::sorted(setups);
    let (lo, hi) = (sorted_setups[0], sorted_setups[setups.len() - 1]);
    println!(
        "  setup_s = {:.6} s (median of {}, {lo:.6} .. {hi:.6})",
        m["setup_s"],
        setups.len()
    );
    println!("  latency_p50_ms = {:.6} ms", m["latency_p50_ms"]);
    match tail {
        Some(t) => println!("  latency_tail_ms = {:.6} ms ({t})", m["latency_tail_ms"]),
        None => println!("  latency_tail_ms = 0 ms (no samples)"),
    }
    println!("  throughput_per_s = {:.3} 1/s", m["throughput_per_s"]);
}

/// Per-layer values a served load shows from the outside: batching from
/// the replies and bank-cache hits from the counters.
fn served_live(
    open: &Phase,
    counters: BTreeMap<&'static str, f64>,
    requests: usize,
) -> BTreeMap<&'static str, f64> {
    let mut live = counters;
    let replies: Vec<DelayReply> = open
        .replies
        .iter()
        .filter_map(|l| match Response::parse(l) {
            Ok((_, Response::Delay(r))) => Some(r),
            _ => None,
        })
        .collect();
    let n = replies.len().max(1) as f64;
    live.insert(
        "serve.batched_frac",
        replies.iter().filter(|r| r.batched > 1).count() as f64 / n,
    );
    live.insert(
        "serve.batch_size_mean",
        replies.iter().map(|r| r.batched as f64).sum::<f64>() / n,
    );
    let builds = live["serve.shard.bank_builds"];
    live.insert(
        "serve.shard.hit_ratio",
        1.0 - builds / requests.max(1) as f64,
    );
    live
}

/// Prints the open loop's diagnostics: the p99.9 latency, too noisy to
/// gate, and how late the generator ran. A generator whose p99 lateness
/// exceeds the median latency it measures did not hold its schedule, and
/// the run is flagged.
fn print_open_loop_diagnostics(open: &Phase) {
    let (late, lat) = (sorted(&open.lateness_us()), sorted(&open.latencies_ms()));
    if late.is_empty() || lat.is_empty() {
        return;
    }
    let (late_p99, p50_us) = (nearest_rank(&late, 99.0), nearest_rank(&lat, 50.0) * 1e3);
    println!(
        "  diagnostics: latency p99.9 {:.1} us, generator lateness p99 {late_p99:.1} us",
        nearest_rank(&lat, 99.9) * 1e3
    );
    if late_p99 > p50_us {
        println!("  WARNING: generator lateness p99 {late_p99:.1} us exceeds the {p50_us:.1} us median latency; the schedule was not held");
    }
}

/// Spans for every answered request of a phase: due → reply, with the
/// time on the wire as a child.
fn record_requests(tracer: &mut Tracer, name: &str, phase: &Phase, first_id: u64) {
    let offset = phase
        .started
        .saturating_duration_since(tracer.epoch())
        .as_nanos() as u64;
    for i in 0..phase.recv_ns.len() {
        let (due, sent, recv) = (phase.due_ns[i], phase.sent_ns[i], phase.recv_ns[i]);
        if recv == MISSING || sent == MISSING {
            continue;
        }
        let id = Some(first_id + i as u64);
        let root = tracer.record(name, offset + due, offset + recv, None, id);
        tracer.record(
            "load.in_flight",
            offset + sent,
            offset + recv,
            Some(root),
            id,
        );
    }
}

/// One span over a whole phase.
fn record_phase(tracer: &mut Tracer, name: &str, phase: &Phase) {
    let offset = phase
        .started
        .saturating_duration_since(tracer.epoch())
        .as_nanos() as u64;
    let end = phase
        .recv_ns
        .iter()
        .copied()
        .filter(|&r| r != MISSING)
        .max()
        .unwrap_or(0);
    tracer.record(name, offset, offset + end, None, None);
}

// ---------------------------------------------------------------------------
// steady
// ---------------------------------------------------------------------------

/// Open-loop Poisson `set_delay` at 4000/s on the default tenant, then a
/// closed-loop burst with 16 requests in flight. Set-up is a cold
/// `serve()`: bind, threads and the first cold calibration.
fn steady(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut report = Report::new();
    let config = serve_config(ctx.nproc, None);
    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..SETUP_REPS {
        clear_caches();
        let (handle, secs) = start(&config)?;
        setups.push(secs);
        if let Some(t) = tracer.as_deref_mut() {
            let end = t.now();
            t.record("setup.serve", end - (secs * 1e9) as u64, end, None, None);
        }
        if k + 1 < SETUP_REPS {
            handle.shutdown();
            handle.join();
        } else {
            server = Some(handle);
        }
    }
    let server = server.expect("at least one set-up");
    let addr = server.addr();
    let oracle = SetDelayOracle::new(Runner::new(ctx.nproc));

    let open_n = scaled(ctx.seconds * 0.7 * STEADY_RATE, 200);
    let mix = steady_mix(sub_seed(ctx.seed, 1), open_n);
    let lines = lines_of(&mix, 0);
    let due = poisson_schedule(sub_seed(ctx.seed, 2), STEADY_RATE, open_n);
    let burst_n = scaled(ctx.seconds * 0.2 * STEADY_BURST_RATE, 400);
    let burst_mix = steady_mix(sub_seed(ctx.seed, 3), burst_n);

    let before = Counters::now();
    let open = open_loop(addr, &mix, &lines, &due, 0);
    let burst = closed_loop(addr, &burst_mix, open_n as u64, BURST_IN_FLIGHT);
    let counters = Counters::now().since(&before);
    server.shutdown();
    server.join();

    println!(
        "  open loop: {open_n} set_delay at {STEADY_RATE}/s over {:.2} s; burst: {burst_n} set_delay, {BURST_IN_FLIGHT} in flight",
        *due.last().unwrap_or(&0) as f64 / 1e9
    );
    check_replies(&mut report, &oracle, &mix, &open, "open-loop");
    check_replies(&mut report, &oracle, &burst_mix, &burst, "burst");
    let latencies = open.latencies_ms();
    let tail = set_e2e(
        &mut report,
        median(&setups),
        &latencies,
        burst.completed_per_s(),
    );
    print_e2e(&report, tail, &setups);
    print_open_loop_diagnostics(&open);
    let live = served_live(&open, counters, open_n + burst_n);
    if let Some(t) = tracer {
        record_requests(t, "load.set_delay", &open, 0);
        record_phase(t, "load.burst", &burst);
    }
    let p50_us = report.metrics["latency_p50_ms"] * 1e3;
    Ok(Measured {
        report,
        live,
        replay: replay::Inputs::served(&mix, &lines, &open.replies, false, p50_us),
    })
}

// ---------------------------------------------------------------------------
// churn-durable
// ---------------------------------------------------------------------------

/// Ten tenants on eight durable banks. Set-up: a cold boot on an empty
/// state directory answers one probe per tenant, then the server is
/// restarted warm five times; after each restart every probe must get its
/// pre-restart answer, and `setup_s` is the median warm `serve()`. The
/// load is open-loop at 50/s with 10 % retries, then a closed loop with
/// one request outstanding.
fn churn_durable(ctx: &Ctx, tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut report = Report::new();
    let state = fresh_dir(ctx, "state");
    let config = serve_config(ctx.nproc, Some(state.clone()));
    let result = churn_in(ctx, &config, &mut report, tracer);
    // The state directory goes whatever happened.
    let _ = std::fs::remove_dir_all(&state);
    let (live, replay) = result?;
    Ok(Measured {
        report,
        live,
        replay,
    })
}

fn churn_in(
    ctx: &Ctx,
    config: &ServeConfig,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> Result<(BTreeMap<&'static str, f64>, replay::Inputs), String> {
    clear_caches();
    let (server, _) = start(config)?;
    let oracle = SetDelayOracle::new(Runner::new(ctx.nproc));
    let mut rng = SplitMix64::new(sub_seed(ctx.seed, 10));
    let probes: Vec<SetDelay> = (0..TENANTS)
        .map(|t| SetDelay {
            tenant: Some(t),
            channel: rng.below(CHANNELS),
            grid: rng.below(GRID_POINTS),
            req_id: None,
            retry_of: None,
        })
        .collect();
    let mut next_id = 0u64;
    let first = closed_loop(server.addr(), &probes, next_id, CHURN_IN_FLIGHT);
    next_id += probes.len() as u64;
    check_replies(report, &oracle, &probes, &first, "cold-boot probe");
    let answers: Vec<Option<Response>> = first
        .replies
        .iter()
        .map(|l| Response::parse(l).ok().map(|(_, r)| r))
        .collect();
    server.shutdown();
    server.join();

    let restored_counter = vardelay_obs::counter("recovery.channels_restored");
    let mut restarts = Vec::new();
    let mut restore_ms = Vec::new();
    let mut channels_restored = Vec::new();
    let mut live_server = None;
    for k in 0..SETUP_REPS {
        let before = restored_counter.get();
        let (server, secs) = start(config)?;
        restarts.push(secs);
        channels_restored.push(restored_counter.get().saturating_sub(before) as f64);
        if let Some(t) = tracer.as_deref_mut() {
            let end = t.now();
            t.record(
                "setup.warm_restart",
                end - (secs * 1e9) as u64,
                end,
                None,
                None,
            );
        }
        let after = closed_loop(server.addr(), &probes, next_id, CHURN_IN_FLIGHT);
        next_id += probes.len() as u64;
        report.attempt(probes.len());
        for (t, (reply, before)) in after.replies.iter().zip(&answers).enumerate() {
            let now = Response::parse(reply).ok().map(|(_, r)| r);
            if now.is_none() || now != *before {
                report.fail(format!(
                    "restart {k}: tenant t{t} answered {reply:?}, before the restart {before:?}"
                ));
            }
        }
        if k + 1 < SETUP_REPS {
            server.shutdown();
            restore_ms.push(server.join().stats.restore_us as f64 / 1e3);
        } else {
            live_server = Some(server);
        }
    }
    let server = live_server.expect("at least one restart");
    let addr = server.addr();

    let open_n = scaled(ctx.seconds * 0.75 * CHURN_RATE, 80);
    let closed_n = scaled(ctx.seconds * 0.15 * CHURN_CLOSED_RATE, 100);
    // One stream, so the closed loop continues the cache state the open
    // loop left; retries only where the sender can wait for their original.
    let mut mix = churn_mix(
        sub_seed(ctx.seed, 11),
        open_n + closed_n,
        TENANTS,
        BANKS,
        RETRY_SHARE,
        open_n,
        "churn",
    );
    let closed_mix = mix.split_off(open_n);
    let lines = lines_of(&mix, next_id);
    let due = poisson_schedule(sub_seed(ctx.seed, 12), CHURN_RATE, open_n);

    let before = Counters::now();
    let open = open_loop(addr, &mix, &lines, &due, next_id);
    let closed = closed_loop(addr, &closed_mix, next_id + open_n as u64, CHURN_IN_FLIGHT);
    let counters = Counters::now().since(&before);
    server.shutdown();
    let drained = server.join();
    restore_ms.push(drained.stats.restore_us as f64 / 1e3);

    let retries = mix.iter().filter(|r| r.retry_of.is_some()).count();
    println!(
        "  warm restarts: {SETUP_REPS}, {} channels restored each; open loop: {open_n} set_delay over {TENANTS} tenants at {CHURN_RATE}/s ({retries} retries) over {:.2} s; closed loop: {closed_n}, {CHURN_IN_FLIGHT} in flight",
        median(&channels_restored),
        *due.last().unwrap_or(&0) as f64 / 1e9
    );
    check_replies(report, &oracle, &mix, &open, "open-loop");
    check_replies(report, &oracle, &closed_mix, &closed, "closed-loop");
    for (i, r) in mix.iter().enumerate() {
        let Some(j) = r.retry_of else { continue };
        let (retry, original) = (&open.replies[i], &open.replies[j]);
        if !retry.is_empty() && !original.is_empty() && without_id(retry) != without_id(original) {
            report.fail(format!(
                "retry {i} of {j}: {retry:?} differs from the original {original:?}"
            ));
        }
    }
    let hits = drained.stats.dedup_hits;
    if hits != retries as u64 {
        report.fail_check(format!("{hits} dedup hits for {retries} retries"));
    }

    let latencies = open.latencies_ms();
    let tail = set_e2e(
        report,
        median(&restarts),
        &latencies,
        closed.completed_per_s(),
    );
    print_e2e(report, tail, &restarts);
    print_open_loop_diagnostics(&open);
    println!(
        "  diagnostics: recovery pass {:.1} ms (median of {})",
        median(&restore_ms),
        restore_ms.len()
    );
    let mut live = served_live(&open, counters, open_n + closed_n);
    live.insert("serve.dedup.hit_frac", hits as f64 / retries.max(1) as f64);
    live.insert(
        "serve.recovery.channels_restored",
        median(&channels_restored),
    );
    if let Some(t) = tracer {
        record_requests(t, "load.set_delay", &open, next_id);
        record_phase(t, "load.closed", &closed);
    }
    let p50_us = report.metrics["latency_p50_ms"] * 1e3;
    Ok((
        live,
        replay::Inputs::served(&mix, &lines, &open.replies, true, p50_us),
    ))
}

// ---------------------------------------------------------------------------
// calibrate
// ---------------------------------------------------------------------------

/// One cold channel bring-up: empty caches, a fresh circuit built as a
/// server bank channel is, a full 17-point calibration. Returns its time
/// and the table's digest.
fn cold_calibration(runner: Runner, tracer: Option<&mut Tracer>, id: u64) -> (f64, u64) {
    clear_caches();
    let model = ModelConfig::paper_prototype();
    let t = Instant::now();
    let csv = match tracer {
        Some(tr) => {
            let root = tr.open("calibrate.cold", None, Some(id));
            let mut backend = tr
                .time("backend.new", Some(root), Some(id), || {
                    CircuitBackend::new(&model, SERVE_SEED)
                })
                .0;
            let csv = tr
                .time("backend.calibrate_with", Some(root), Some(id), || {
                    backend.calibrate_with(runner).to_csv()
                })
                .0;
            tr.close(root);
            csv
        }
        None => CircuitBackend::new(&model, SERVE_SEED)
            .calibrate_with(runner)
            .to_csv(),
    };
    (t.elapsed().as_secs_f64(), fnv1a(csv.as_bytes()))
}

fn check_calibration(report: &mut Report, digest: u64, what: &str) {
    report.attempt(1);
    if digest != CALIBRATION_CSV_DIGEST {
        report.fail(format!(
            "{what}: calibration digest {digest:016x}, pinned {CALIBRATION_CSV_DIGEST:016x}"
        ));
    }
}

/// The set-up `calibrate` and `figures` share: cold channel bring-ups.
fn cold_setups(ctx: &Ctx, report: &mut Report, mut tracer: Option<&mut Tracer>) -> Vec<f64> {
    let runner = Runner::new(ctx.nproc);
    (0..SETUP_REPS)
        .map(|k| {
            let (secs, digest) = cold_calibration(runner, tracer.as_deref_mut(), k as u64);
            check_calibration(report, digest, "set-up");
            secs
        })
        .collect()
}

/// Cold calibrations back to back, each from empty caches.
fn calibrate(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut report = Report::new();
    let setups = cold_setups(ctx, &mut report, tracer.as_deref_mut());
    let runner = Runner::new(ctx.nproc);
    let n = scaled(ctx.seconds * CALIBRATIONS_PER_S, 3);
    let before = Counters::now();
    let started = Instant::now();
    let mut times = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    for i in 0..n {
        let (secs, digest) =
            cold_calibration(runner, tracer.as_deref_mut(), (SETUP_REPS + i) as u64);
        times.push(secs * 1e3);
        done.push(started.elapsed().as_nanos() as u64);
        check_calibration(&mut report, digest, &format!("calibration {i}"));
    }
    let wall = started.elapsed().as_secs_f64();
    let live = Counters::now().since(&before);
    println!(
        "  {n} cold calibrations on {} threads in {wall:.2} s",
        ctx.nproc
    );
    let tail = set_e2e(
        &mut report,
        median(&setups),
        &times,
        stats::windowed_rate(0, &done),
    );
    print_e2e(&report, tail, &setups);
    let p50_us = report.metrics["latency_p50_ms"] * 1e3;
    Ok(Measured {
        report,
        live,
        replay: replay::Inputs::unserved(replay::OpPath::Calibration, p50_us, BTreeMap::new()),
    })
}

// ---------------------------------------------------------------------------
// figures
// ---------------------------------------------------------------------------

/// An experiment of the reproduction: its name, its per-layer metric, and
/// a call with `repro`'s exact arguments returning the `{:?}` of its
/// results.
type Experiment = (&'static str, &'static str, fn() -> String);

/// The 14 experiments of `repro all`, in its order.
pub const EXPERIMENTS: [Experiment; 14] = [
    ("fig7", "bench.fig7_s", || {
        let series = fine_delay::fig7_delay_vs_vctrl(31);
        format!("{series:?} {:?}", fine_delay::fig7_summary(&series))
    }),
    ("fig9", "bench.fig9_s", || {
        format!("{:?}", fine_delay::fig9_coarse_taps())
    }),
    ("fig12", "bench.fig12_s", || {
        format!("{:?}", eyes::fig12_eye_4g8(8000))
    }),
    ("fig13", "bench.fig13_s", || {
        format!("{:?}", eyes::fig13_eye_6g4(8000))
    }),
    ("fig14", "bench.fig14_s", || {
        format!("{:?}", eyes::fig14_rz_6g4(8000))
    }),
    ("fig15", "bench.fig15_s", || {
        let freqs = fine_delay::fig15_default_freqs();
        format!("{:?}", fine_delay::fig15_range_vs_frequency(&freqs))
    }),
    ("fig16", "bench.fig16_s", || {
        format!("{:?}", injection::fig16_injection(8000))
    }),
    ("fig17", "bench.fig17_s", || {
        format!("{:?}", injection::fig17_injection_sweep(6000, 11))
    }),
    ("fig2", "bench.fig2_s", || {
        format!("{:?}", skew::fig2_deskew(4))
    }),
    ("fig1", "bench.fig1_s", || {
        format!("{:?}", skew::fig1_eye_alignment())
    }),
    ("table1", "bench.table1_s", || {
        format!("{:?}", fine_delay::table1_requirements())
    }),
    ("ablation", "bench.ablation_s", || {
        format!(
            "{:?} {:?} {:?}",
            ablation::stage_count_ablation(6, 4000),
            ablation::architecture_comparison(4000),
            ablation::control_strategy_ablation()
        )
    }),
    ("extensions", "bench.extensions_s", || {
        format!(
            "{:?} {:?} {:?} {:?} {:?}",
            extensions::x1_multichannel(),
            extensions::x2_tolerance(),
            extensions::x3_drift(),
            extensions::b1_baseline_comparison(400),
            extensions::x4_coded_traffic(6000)
        )
    }),
    ("faults", "bench.faults_s", || {
        format!("{:?}", faults_campaign::faults_campaign())
    }),
];

/// One cold full reproduction: every experiment from empty caches.
/// Returns per-experiment seconds and the digest of all results.
pub fn reproduce(mut tracer: Option<&mut Tracer>, id: u64) -> (Vec<f64>, u64) {
    clear_caches();
    let root = tracer
        .as_deref_mut()
        .map(|t| t.open("figures.reproduction", None, Some(id)));
    let mut text = String::new();
    let mut secs = Vec::with_capacity(EXPERIMENTS.len());
    for (name, metric, run) in EXPERIMENTS {
        let t = Instant::now();
        let out = match tracer.as_deref_mut() {
            Some(tr) => {
                tr.time(metric.trim_end_matches("_s"), root, Some(id), run)
                    .0
            }
            None => run(),
        };
        secs.push(t.elapsed().as_secs_f64());
        text.push_str(&format!("{name}: {out}\n"));
    }
    if let (Some(t), Some(root)) = (tracer, root) {
        t.close(root);
    }
    (secs, fnv1a(text.as_bytes()))
}

/// Full cold reproductions back to back. Nothing is written to disk.
fn figures(ctx: &Ctx, mut tracer: Option<&mut Tracer>) -> Result<Measured, String> {
    let mut report = Report::new();
    let setups = cold_setups(ctx, &mut report, tracer.as_deref_mut());
    let n = scaled(ctx.seconds / REPRODUCTION_S, 1);
    let before = Counters::now();
    let started = Instant::now();
    let mut totals = Vec::with_capacity(n);
    let mut done = Vec::with_capacity(n);
    let mut per_experiment = vec![Vec::with_capacity(n); EXPERIMENTS.len()];
    for i in 0..n {
        let (secs, digest) = reproduce(tracer.as_deref_mut(), i as u64);
        done.push(started.elapsed().as_nanos() as u64);
        totals.push(secs.iter().sum::<f64>() * 1e3);
        for (all, s) in per_experiment.iter_mut().zip(secs) {
            all.push(s);
        }
        report.attempt(1);
        if digest != FIGURES_DIGEST {
            report.fail(format!(
                "reproduction {i}: results digest {digest:016x}, pinned {FIGURES_DIGEST:016x}"
            ));
        }
    }
    let wall = started.elapsed().as_secs_f64();
    let live = Counters::now().since(&before);
    let experiments = EXPERIMENTS
        .iter()
        .zip(&per_experiment)
        .map(|((_, metric, _), secs)| (*metric, median(secs)))
        .collect();
    println!(
        "  {n} cold reproductions of {} experiments in {wall:.2} s",
        EXPERIMENTS.len()
    );
    let tail = set_e2e(
        &mut report,
        median(&setups),
        &totals,
        stats::windowed_rate(0, &done),
    );
    print_e2e(&report, tail, &setups);
    let p50_us = report.metrics["latency_p50_ms"] * 1e3;
    Ok(Measured {
        report,
        live,
        replay: replay::Inputs::unserved(replay::OpPath::Reproduction, p50_us, experiments),
    })
}

/// Removes a run's scratch directory when dropped.
pub struct ScratchGuard(pub PathBuf);

impl ScratchGuard {
    /// Creates `dir` (and parents).
    ///
    /// # Errors
    ///
    /// The I/O error from creating it.
    pub fn create(dir: &Path) -> std::io::Result<ScratchGuard> {
        std::fs::create_dir_all(dir)?;
        Ok(ScratchGuard(dir.to_path_buf()))
    }
}

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // The shared parent goes too once no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};

    fn ctx(name: &str) -> (Ctx, ScratchGuard) {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-smoke")
            .join(name);
        let guard = ScratchGuard::create(&dir).unwrap();
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let ctx = Ctx {
            seed: 5,
            seconds: 0.1,
            nproc,
            scratch: guard.0.clone(),
        };
        (ctx, guard)
    }

    /// A tiny run of `workload` passes every oracle and yields every
    /// end-to-end metric.
    fn smoke(workload: &str) -> Measured {
        let (ctx, _guard) = ctx(workload);
        let m = measure(workload, &ctx, None).unwrap();
        assert!(m.report.is_correct(), "{workload}: {:?}", m.report.failures);
        assert!(m.report.attempted > 0);
        for def in &END_TO_END {
            assert!(
                m.report.metrics[def.name] > 0.0,
                "{workload}: {} not measured",
                def.name
            );
        }
        m
    }

    #[test]
    fn steady_smoke_run_passes_its_oracle() {
        smoke("steady");
    }

    #[test]
    fn churn_durable_smoke_run_passes_its_oracle() {
        let m = smoke("churn-durable");
        assert_eq!(
            m.live["serve.dedup.hit_frac"], 1.0,
            "every retry is answered from the window"
        );
        assert!(m.live["serve.recovery.channels_restored"] > 0.0);
    }

    #[test]
    fn calibrate_smoke_run_passes_its_oracle() {
        smoke("calibrate");
    }

    #[test]
    fn figures_smoke_run_passes_its_oracle() {
        smoke("figures");
    }

    #[test]
    fn traced_replay_measures_every_layer_bit_exactly() {
        let (ctx, _guard) = ctx("traced");
        let mut tracer = Tracer::new();
        let m = measure("calibrate", &ctx, Some(&mut tracer)).unwrap();
        let mut report = Report::new();
        let layers = replay::replay(
            &m.replay,
            ctx.seed,
            &ctx.scratch,
            ctx.nproc,
            &mut tracer,
            &mut report,
        );
        assert!(report.is_correct(), "{:?}", report.failures);
        for def in PER_LAYER
            .iter()
            .filter(|d| d.unit != "count" && d.unit != "ratio")
        {
            assert!(
                layers.get(def.name).is_some_and(|&v| v != 0.0),
                "{} not measured",
                def.name
            );
        }
        assert_eq!(layers["core.sweep_points"], 17.0);
        let times = tracer.self_times();
        assert_eq!(
            times["analog.chain"].count, 17,
            "one span per calibration point"
        );
        assert!(
            times["replay.request"].count > 0,
            "served layers replay generated requests"
        );
    }
}
