//! `repro serve-bench`: the in-process load generator and SLO record.
//!
//! Drives a `vardelay-serve` instance with `N` client threads on an
//! **open-loop** arrival schedule: each client's send times are fixed
//! up front from seeded exponential gaps ([`vardelay_runner::task_seed`]
//! per client) and never react to server speed — a client that falls
//! behind its schedule (because responses are slow) stops sleeping and
//! fires back-to-back until it catches up, so a slow server faces
//! *more* concurrent pressure, not politely reduced load. Latency is
//! timed from each request's **scheduled** send to its response, so a
//! server stall is charged to every request that was due during it,
//! not only to the one in flight (no coordinated omission).
//!
//! Both campaigns — the single-tenant SLO load ([`run_load`]) and the
//! multi-tenant fairness campaign ([`run_mt_load`]) — run through that
//! one client loop. Latencies land in a local obs log₂ [`Histogram`];
//! the resulting quantiles plus throughput and per-kind response counts
//! become a `serve-bench` or `serve-bench-mt` journal record, gated by
//! `repro compare serve-bench` / `fairness` (see
//! [`vardelay_obs::journal::GATES`]).

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use vardelay_obs::journal;
use vardelay_obs::json::Value;
use vardelay_obs::Histogram;
use vardelay_runner::task_seed;
use vardelay_serve::{Client, Envelope, ErrorKind, Request, Response, StatsReply};
use vardelay_siggen::SplitMix64;

use crate::EXPERIMENT_SEED;

/// Load shape. [`Default`] is the smoke load CI runs: 4 clients × 100
/// requests at a 10 ms mean gap (~400 offered req/s), sized so even a
/// single-core single-worker server absorbs it without shedding — the
/// smoke gate asserts zero `overloaded`.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests each client sends.
    pub requests_per_client: usize,
    /// Mean of the exponential inter-arrival gap per client.
    pub mean_gap: Duration,
    /// Root seed for arrival schedules and request mixes.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            clients: 4,
            requests_per_client: 100,
            mean_gap: Duration::from_millis(10),
            seed: EXPERIMENT_SEED,
        }
    }
}

/// What the load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests sent (and responses received — strict request/response).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// `parse_error` responses (must be 0 — the generator sends only
    /// well-formed lines).
    pub parse_errors: u64,
    /// `bad_request` responses (must be 0 likewise).
    pub bad_requests: u64,
    /// `overloaded` responses.
    pub overloaded: u64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: u64,
    /// `internal` responses.
    pub internal_errors: u64,
    /// `unavailable` responses (a quarantined channel refusing
    /// `set_delay` while the health loop rebuilds its table).
    pub unavailable: u64,
    /// Responses answered as part of a multi-request batch.
    pub batched: u64,
    /// Transport-level failures (connection refused/reset mid-run).
    pub transport_errors: u64,
    /// Wall clock of the whole run.
    pub wall: Duration,
    /// Completed responses per second.
    pub throughput_rps: f64,
    /// Median latency from scheduled send to response, microseconds.
    pub p50_us: u64,
    /// 95th-percentile latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// The server's worker count (from its `stats` reply) — the
    /// comparability key for the regression gate.
    pub workers: u64,
}

impl LoadReport {
    /// One greppable summary line (the CI smoke job asserts on the
    /// `parse_error=` / `overloaded=` fields).
    pub fn summary(&self) -> String {
        format!(
            "serve-bench: requests={} ok={} parse_error={} bad_request={} overloaded={} \
             deadline_exceeded={} internal={} unavailable={} batched={} transport={} \
             throughput={:.0} req/s p50={} us p95={} us p99={} us workers={}",
            self.requests,
            self.ok,
            self.parse_errors,
            self.bad_requests,
            self.overloaded,
            self.deadline_exceeded,
            self.internal_errors,
            self.unavailable,
            self.batched,
            self.transport_errors,
            self.throughput_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.workers
        )
    }

    /// The journal record `repro compare` gates on. `git` and `unix_ms`
    /// are the caller's (the repro binary stamps them like its runtime
    /// records).
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        journal::header("serve-bench", self.workers, git, unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("requests", self.requests)
            .with("ok", self.ok)
            .with("parse_errors", self.parse_errors)
            .with("bad_requests", self.bad_requests)
            .with("overloaded", self.overloaded)
            .with("deadline_exceeded", self.deadline_exceeded)
            .with("internal_errors", self.internal_errors)
            .with("unavailable", self.unavailable)
            .with("batched", self.batched)
            .with("transport_errors", self.transport_errors)
            .with("throughput_rps", self.throughput_rps)
            .with("p50_us", self.p50_us)
            .with("p95_us", self.p95_us)
            .with("p99_us", self.p99_us)
    }
}

/// The deterministic request mix, by client and position. Mostly
/// `set_delay` on a quantized ps grid (so same-channel requests can
/// coalesce), salted with `inject_jitter` and `stats`.
fn request_for(rng: &mut SplitMix64, client: usize, k: usize) -> Request {
    match k % 25 {
        7 => Request::Stats,
        15 => Request::InjectJitter {
            vpp_mv: 40.0 + 10.0 * (client % 4) as f64,
            rate_gbps: 3.2,
            bits: 64,
            seed: rng.next_u64() % 1024 + 1,
        },
        _ => {
            // 8 channels × 16 grid points: plenty of collisions for the
            // batching path. The grid tops out at 112.5 ps, inside the
            // >120 ps combined range the circuit tests pin, so no mix
            // request can draw an out-of-range rejection.
            let channel = (rng.next_u64() % 8) as usize;
            let step = rng.next_u64() % 16;
            Request::SetDelay {
                channel,
                ps: 7.5 * step as f64,
            }
        }
    }
}

/// One client connection of an open-loop run.
struct ClientPlan {
    /// Tenant label sent with every request, if any.
    tenant: Option<String>,
    /// Requests to send.
    requests: usize,
    /// Mean of the exponential inter-arrival gap, microseconds.
    mean_gap_us: f64,
}

/// What one open-loop run measured.
struct Drive {
    /// Latency of every answered request, from its scheduled send.
    latency: Histogram,
    counts: ResponseCounts,
    /// `ok` responses per client, in client order.
    ok_per_client: Vec<u64>,
    wall: Duration,
}

/// The open-loop client loop both campaigns share. Connects every client
/// up front (so a dead server is a clean error, not a pile of per-thread
/// failures), then runs one thread per client: client `i` draws its
/// arrival gaps and request mix from `task_seed(seed, i)`, sleeps until
/// each request is due (or sends at once when behind schedule), and
/// times the request from when it was due, not from when it went out.
///
/// Latency histograms require obs to be recording, so this forces
/// [`vardelay_obs::set_enabled`]`(true)` — the load run *is* the
/// measurement, there is nothing to opt out of.
fn drive(addr: SocketAddr, seed: u64, plans: &[ClientPlan]) -> std::io::Result<Drive> {
    vardelay_obs::set_enabled(true);
    let latency = Histogram::new();
    let counts = ResponseCounts::default();
    let clients = plans
        .iter()
        .map(|_| Client::connect(addr))
        .collect::<std::io::Result<Vec<Client>>>()?;

    let started = Instant::now();
    let ok_per_client = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(plans)
            .enumerate()
            .map(|(client_index, (mut client, plan))| {
                let (latency, counts) = (&latency, &counts);
                scope.spawn(move || {
                    let mut rng = SplitMix64::new(task_seed(seed, client_index as u64));
                    let mut scheduled_us = 0.0f64;
                    let mut ok = 0u64;
                    for k in 0..plan.requests {
                        // Exponential inter-arrival gap, fixed by seed: the
                        // schedule does not react to server speed.
                        scheduled_us += -plan.mean_gap_us * (1.0 - rng.next_f64()).ln();
                        let scheduled = started + Duration::from_micros(scheduled_us as u64);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        let envelope = Envelope {
                            id: Some((client_index * 1_000_000 + k) as u64),
                            deadline_ms: None,
                            tenant: plan.tenant.clone(),
                            req_id: None,
                            backend: None,
                            request: request_for(&mut rng, client_index, k),
                        };
                        match client.call(&envelope) {
                            Ok((_, response)) => {
                                latency.record(scheduled.elapsed().as_micros() as u64);
                                counts.count(&response);
                                ok += u64::from(response.error_kind().is_none());
                            }
                            Err(_) => {
                                counts.transport.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    ok
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client thread panicked"))
            .collect()
    });
    Ok(Drive {
        latency,
        counts,
        ok_per_client,
        wall: started.elapsed(),
    })
}

/// One `stats` call on a fresh connection, for the server-side shape
/// (its worker count is the gates' comparability key). `None` when the
/// server does not answer it.
fn server_stats(addr: SocketAddr) -> Option<StatsReply> {
    match Client::connect(addr)
        .and_then(|mut c| c.call(&Envelope::new(Request::Stats)))
        .ok()?
    {
        (_, Response::Stats(stats)) => Some(stats),
        _ => None,
    }
}

/// Runs the load against a server at `addr` and gathers the report.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn run_load(addr: SocketAddr, config: &LoadConfig) -> std::io::Result<LoadReport> {
    let plans: Vec<ClientPlan> = (0..config.clients)
        .map(|_| ClientPlan {
            tenant: None,
            requests: config.requests_per_client,
            mean_gap_us: config.mean_gap.as_micros() as f64,
        })
        .collect();
    let Drive {
        latency,
        counts,
        wall,
        ..
    } = drive(addr, config.seed, &plans)?;
    let workers = server_stats(addr).map_or(0, |stats| stats.workers);

    let requests = (config.clients * config.requests_per_client) as u64;
    let completed = requests - counts.transport.load(Ordering::Relaxed);
    Ok(LoadReport {
        requests,
        ok: counts.ok.load(Ordering::Relaxed),
        parse_errors: counts.parse_errors.load(Ordering::Relaxed),
        bad_requests: counts.bad_requests.load(Ordering::Relaxed),
        overloaded: counts.overloaded.load(Ordering::Relaxed),
        unavailable: counts.unavailable.load(Ordering::Relaxed),
        deadline_exceeded: counts.deadline_exceeded.load(Ordering::Relaxed),
        internal_errors: counts.internal_errors.load(Ordering::Relaxed),
        batched: counts.batched.load(Ordering::Relaxed),
        transport_errors: counts.transport.load(Ordering::Relaxed),
        wall,
        throughput_rps: completed as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: latency.quantile(0.50),
        p95_us: latency.quantile(0.95),
        p99_us: latency.quantile(0.99),
        workers,
    })
}

/// How much harder a hot tenant pushes than its balanced peers: 10×
/// the requests at one tenth the mean gap. Used by the CI
/// starved-tenant injection (`VARDELAY_BENCH_HOT_TENANT`) to drive the
/// fairness ratio far past the gate.
pub const HOT_TENANT_FACTOR: usize = 10;

/// Multi-tenant load shape. [`Default`] is the seeded campaign CI runs:
/// 16 tenants × 2 clients × 40 requests at a 50 ms mean gap — 32
/// concurrent connections offering ~640 req/s in aggregate, balanced so
/// the max/min per-tenant throughput ratio sits near 1.0 on an honest
/// scheduler.
#[derive(Debug, Clone)]
pub struct MtLoadConfig {
    /// Distinct tenants, labeled `t00..`.
    pub tenants: usize,
    /// Concurrent client connections per tenant.
    pub clients_per_tenant: usize,
    /// Requests each balanced client sends.
    pub requests_per_client: usize,
    /// Mean exponential inter-arrival gap per balanced client.
    pub mean_gap: Duration,
    /// When set, that tenant's clients offer [`HOT_TENANT_FACTOR`]×
    /// the volume at 1/[`HOT_TENANT_FACTOR`] the gap — the
    /// starved-tenant injection the fairness gate must catch.
    pub hot_tenant: Option<usize>,
    /// Root seed for arrival schedules and request mixes.
    pub seed: u64,
}

impl Default for MtLoadConfig {
    fn default() -> Self {
        MtLoadConfig {
            tenants: 16,
            clients_per_tenant: 2,
            requests_per_client: 40,
            mean_gap: Duration::from_millis(50),
            hot_tenant: None,
            seed: EXPERIMENT_SEED,
        }
    }
}

impl MtLoadConfig {
    /// The default campaign, with the hot-tenant injection taken from
    /// `VARDELAY_BENCH_HOT_TENANT` (a tenant index; out-of-range or
    /// non-numeric values are ignored).
    pub fn from_env() -> Self {
        let mut config = MtLoadConfig::default();
        config.hot_tenant = std::env::var("VARDELAY_BENCH_HOT_TENANT")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&t| t < config.tenants);
        config
    }
}

/// The wire label for tenant `index` (`t00`, `t01`, …) — the same
/// labels the sharding e2e tests use.
pub fn tenant_label(index: usize) -> String {
    format!("t{index:02}")
}

/// The sentinel fairness ratio reported when at least one tenant
/// completed zero requests. Large and finite (the journal's JSON
/// renderer has no encoding for ∞) and far past any plausible gate
/// threshold.
pub const STARVED_FAIRNESS: f64 = 1e9;

/// What the multi-tenant campaign measured.
#[derive(Debug, Clone)]
pub struct MtLoadReport {
    /// Tenants driven.
    pub tenants: usize,
    /// Total client connections.
    pub clients: u64,
    /// Requests sent across all tenants.
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// `overloaded` responses (queue overflow **and** quota sheds).
    pub overloaded: u64,
    /// Other error responses (parse/bad-request/deadline/internal).
    pub other_errors: u64,
    /// Transport-level failures mid-run.
    pub transport_errors: u64,
    /// Completed (`ok`) responses per tenant, in tenant order.
    pub per_tenant_ok: Vec<u64>,
    /// Max/min of `per_tenant_ok` ([`STARVED_FAIRNESS`] when a tenant
    /// finished with zero).
    pub fairness_ratio: f64,
    /// Wall clock of the whole campaign.
    pub wall: Duration,
    /// Completed responses per second, all tenants.
    pub throughput_rps: f64,
    /// Median latency from scheduled send to response, microseconds.
    pub p50_us: u64,
    /// 99th-percentile latency, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile latency, microseconds — the SLO the fairness
    /// gate tracks run-over-run.
    pub p999_us: u64,
    /// The server's worker count (the gate's comparability key).
    pub workers: u64,
    /// The server's shard count.
    pub shards: u64,
    /// Quota sheds the server counted during the campaign.
    pub quota_rejections: u64,
    /// The injected hot tenant, if any.
    pub hot_tenant: Option<usize>,
}

impl MtLoadReport {
    /// One greppable summary line (the CI smoke job asserts on
    /// `fairness=` and the error fields).
    pub fn summary(&self) -> String {
        format!(
            "serve-bench-mt: tenants={} clients={} requests={} ok={} overloaded={} \
             other_errors={} transport={} quota_rejected={} fairness={:.2} \
             throughput={:.0} req/s p50={} us p99={} us p999={} us workers={} shards={}{}",
            self.tenants,
            self.clients,
            self.requests,
            self.ok,
            self.overloaded,
            self.other_errors,
            self.transport_errors,
            self.quota_rejections,
            self.fairness_ratio,
            self.throughput_rps,
            self.p50_us,
            self.p99_us,
            self.p999_us,
            self.workers,
            self.shards,
            match self.hot_tenant {
                Some(t) => format!(" hot_tenant={t}"),
                None => String::new(),
            }
        )
    }

    /// The journal record `repro compare fairness` gates on.
    pub fn record(&self, git: &str, unix_ms: u64) -> Value {
        let wall_s = self.wall.as_secs_f64().max(1e-9);
        let mut per_tenant = Value::obj();
        for (tenant, &ok) in self.per_tenant_ok.iter().enumerate() {
            per_tenant = per_tenant.with(&tenant_label(tenant), ok as f64 / wall_s);
        }
        let mut record = journal::header("serve-bench-mt", self.workers, git, unix_ms)
            .with("wall_s", self.wall.as_secs_f64())
            .with("tenants", self.tenants as u64)
            .with("clients", self.clients)
            .with("requests", self.requests)
            .with("ok", self.ok)
            .with("overloaded", self.overloaded)
            .with("other_errors", self.other_errors)
            .with("transport_errors", self.transport_errors)
            .with("quota_rejections", self.quota_rejections)
            .with("shards", self.shards)
            .with("fairness_ratio", self.fairness_ratio)
            .with("per_tenant_rps", per_tenant)
            .with("throughput_rps", self.throughput_rps)
            .with("p50_us", self.p50_us)
            .with("p99_us", self.p99_us)
            .with("p999_us", self.p999_us);
        if let Some(hot) = self.hot_tenant {
            record = record.with("hot_tenant", hot as u64);
        }
        record
    }
}

/// Runs the seeded multi-tenant campaign against a server at `addr`.
///
/// Every client runs the same open-loop exponential schedule as
/// [`run_load`], tagged with its tenant's label; the hot tenant (if
/// injected) runs [`HOT_TENANT_FACTOR`]× requests at
/// 1/[`HOT_TENANT_FACTOR`] the gap. Per-tenant completions feed the
/// max/min fairness ratio; all latencies share one histogram for the
/// campaign-wide p99.9.
///
/// # Errors
///
/// Returns an I/O error only when the initial connections fail;
/// failures mid-run are counted as `transport_errors` instead.
pub fn run_mt_load(addr: SocketAddr, config: &MtLoadConfig) -> std::io::Result<MtLoadReport> {
    let total_clients = config.tenants * config.clients_per_tenant;
    let plans: Vec<ClientPlan> = (0..total_clients)
        .map(|client_index| {
            let tenant = client_index / config.clients_per_tenant;
            let factor = if config.hot_tenant == Some(tenant) {
                HOT_TENANT_FACTOR
            } else {
                1
            };
            ClientPlan {
                tenant: Some(tenant_label(tenant)),
                requests: config.requests_per_client * factor,
                mean_gap_us: config.mean_gap.as_micros() as f64 / factor as f64,
            }
        })
        .collect();
    let Drive {
        latency,
        counts,
        ok_per_client,
        wall,
    } = drive(addr, config.seed, &plans)?;
    let (workers, shards, quota_rejections) = server_stats(addr).map_or((0, 0, 0), |stats| {
        (stats.workers, stats.shards, stats.quota_rejections)
    });

    let mut per_tenant_ok = vec![0u64; config.tenants];
    for (client_index, ok) in ok_per_client.into_iter().enumerate() {
        per_tenant_ok[client_index / config.clients_per_tenant] += ok;
    }
    let requests: u64 = plans.iter().map(|plan| plan.requests as u64).sum();
    let ok = counts.ok.load(Ordering::Relaxed);
    let overloaded = counts.overloaded.load(Ordering::Relaxed);
    let transport_errors = counts.transport.load(Ordering::Relaxed);
    let completed = requests - transport_errors;
    Ok(MtLoadReport {
        tenants: config.tenants,
        clients: total_clients as u64,
        requests,
        ok,
        overloaded,
        other_errors: completed - ok - overloaded,
        transport_errors,
        fairness_ratio: fairness_ratio(&per_tenant_ok),
        per_tenant_ok,
        wall,
        throughput_rps: ok as f64 / wall.as_secs_f64().max(1e-9),
        p50_us: latency.quantile(0.50),
        p99_us: latency.quantile(0.99),
        p999_us: latency.quantile(0.999),
        workers,
        shards,
        quota_rejections,
        hot_tenant: config.hot_tenant,
    })
}

/// Max/min of per-tenant completion counts; [`STARVED_FAIRNESS`] when
/// any tenant finished with zero, `1.0` for the empty/degenerate case.
fn fairness_ratio(per_tenant_ok: &[u64]) -> f64 {
    let (Some(&max), Some(&min)) = (per_tenant_ok.iter().max(), per_tenant_ok.iter().min()) else {
        return 1.0;
    };
    if min == 0 {
        if max == 0 {
            1.0
        } else {
            STARVED_FAIRNESS
        }
    } else {
        max as f64 / min as f64
    }
}

#[derive(Debug, Default)]
struct ResponseCounts {
    ok: AtomicU64,
    parse_errors: AtomicU64,
    bad_requests: AtomicU64,
    overloaded: AtomicU64,
    deadline_exceeded: AtomicU64,
    internal_errors: AtomicU64,
    unavailable: AtomicU64,
    batched: AtomicU64,
    transport: AtomicU64,
}

impl ResponseCounts {
    fn count(&self, response: &Response) {
        match response.error_kind() {
            None => {
                self.ok.fetch_add(1, Ordering::Relaxed);
                if let Response::Delay(reply) = response {
                    if reply.batched > 1 {
                        self.batched.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            Some(ErrorKind::ParseError) => {
                self.parse_errors.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::BadRequest) => {
                self.bad_requests.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Overloaded) => {
                self.overloaded.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::DeadlineExceeded) => {
                self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Internal) => {
                self.internal_errors.fetch_add(1, Ordering::Relaxed);
            }
            Some(ErrorKind::Unavailable) => {
                self.unavailable.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vardelay_obs::journal::gate;

    #[test]
    fn the_mix_is_deterministic_and_mostly_set_delay() {
        let gen = |client: usize| -> Vec<Request> {
            let mut rng = SplitMix64::new(task_seed(EXPERIMENT_SEED, client as u64));
            (0..100).map(|k| request_for(&mut rng, client, k)).collect()
        };
        assert_eq!(gen(0), gen(0));
        assert_ne!(gen(0), gen(1));
        let mix = gen(0);
        let set_delays = mix
            .iter()
            .filter(|r| matches!(r, Request::SetDelay { .. }))
            .count();
        assert!(set_delays >= 90, "{set_delays}");
        for request in &mix {
            if let Request::SetDelay { channel, ps } = request {
                assert!(*channel < 8);
                assert!((0.0..=120.0).contains(ps));
            }
        }
    }

    #[test]
    fn a_stalled_reply_is_charged_to_every_request_due_during_it() {
        use std::io::{BufRead, BufReader, Write};
        use std::net::TcpListener;

        // A throwaway responder: it answers every line at once, except
        // the 50th, which it holds for 250 ms. It serves two connections
        // — the load client and the closing `stats` call.
        const STALL: Duration = Duration::from_millis(250);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let responder = std::thread::spawn(move || {
            let mut lines = 0usize;
            for stream in listener.incoming().take(2) {
                let mut stream = stream.unwrap();
                let reader = BufReader::new(stream.try_clone().unwrap());
                for line in reader.lines() {
                    if line.is_err() {
                        break;
                    }
                    lines += 1;
                    if lines == 50 {
                        std::thread::sleep(STALL);
                    }
                    let reply = Response::Draining.to_value(None).render() + "\n";
                    if stream.write_all(reply.as_bytes()).is_err() {
                        break;
                    }
                }
            }
        });

        let config = LoadConfig {
            clients: 1,
            requests_per_client: 300,
            mean_gap: Duration::from_millis(1),
            seed: EXPERIMENT_SEED,
        };
        let report = run_load(addr, &config).unwrap();
        responder.join().unwrap();
        assert_eq!((report.ok, report.transport_errors), (300, 0), "{report:?}");
        // About 250 of the 300 requests fall due while the reply is held,
        // and each waits out the rest of the stall. Timed from their
        // actual send instead, only the held request would see it, and
        // p99 would read a loopback round trip.
        assert!(
            report.p99_us >= 200_000,
            "p99 {} us hides a {STALL:?} stall",
            report.p99_us
        );
    }

    #[test]
    fn the_record_round_trips_through_the_serve_gate() {
        let report = LoadReport {
            requests: 600,
            ok: 600,
            parse_errors: 0,
            bad_requests: 0,
            overloaded: 0,
            deadline_exceeded: 0,
            internal_errors: 0,
            unavailable: 0,
            batched: 12,
            transport_errors: 0,
            wall: Duration::from_millis(400),
            throughput_rps: 1500.0,
            p50_us: 511,
            p95_us: 1023,
            p99_us: 2047,
            workers: 4,
        };
        let record = report.record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("serve-bench")
        );
        let records = vec![record.clone(), record];
        let cmp = gate("serve-bench")
            .unwrap()
            .evaluate(&records)
            .expect("two identical records compare");
        assert!(!cmp.regressed(), "{cmp}");
    }

    #[test]
    fn the_fairness_ratio_is_max_over_min_with_a_starvation_sentinel() {
        assert_eq!(fairness_ratio(&[]), 1.0);
        assert_eq!(fairness_ratio(&[0, 0, 0]), 1.0);
        assert_eq!(fairness_ratio(&[40, 40, 40]), 1.0);
        assert_eq!(fairness_ratio(&[80, 40]), 2.0);
        assert_eq!(fairness_ratio(&[40, 0, 40]), STARVED_FAIRNESS);
    }

    fn mt_report(fairness: f64, hot: Option<usize>) -> MtLoadReport {
        MtLoadReport {
            tenants: 16,
            clients: 32,
            requests: 1280,
            ok: 1280,
            overloaded: 0,
            other_errors: 0,
            transport_errors: 0,
            per_tenant_ok: vec![80; 16],
            fairness_ratio: fairness,
            wall: Duration::from_secs(2),
            throughput_rps: 640.0,
            p50_us: 511,
            p99_us: 2047,
            p999_us: 4095,
            workers: 4,
            shards: 4,
            quota_rejections: 0,
            hot_tenant: hot,
        }
    }

    #[test]
    fn the_mt_record_round_trips_through_the_fairness_gate() {
        let record = mt_report(1.12, None).record("deadbeef", 1_700_000_000_000);
        let reparsed = Value::parse(&record.render()).expect("record renders valid JSON");
        assert_eq!(
            reparsed.get("experiments").and_then(Value::as_str),
            Some("serve-bench-mt")
        );
        assert!(
            reparsed
                .get("per_tenant_rps")
                .and_then(|v| v.get("t15"))
                .is_some(),
            "per-tenant throughput must be in the record"
        );
        let records = vec![record.clone(), record];
        let cmp = gate("fairness")
            .unwrap()
            .evaluate(&records)
            .expect("two identical records compare");
        assert!(!cmp.regressed(), "{cmp}");
    }

    #[test]
    fn a_hot_tenant_injection_trips_the_fairness_gate() {
        let baseline = mt_report(1.08, None).record("deadbeef", 1_700_000_000_000);
        let mut starved = mt_report(9.7, Some(0));
        starved.per_tenant_ok[0] = 800;
        let injected = starved.record("deadbeef", 1_700_000_100_000);
        assert_eq!(injected.get("hot_tenant").and_then(Value::as_u64), Some(0));
        let records = vec![baseline, injected];
        let cmp = gate("fairness")
            .unwrap()
            .evaluate(&records)
            .expect("records compare");
        assert!(
            cmp.regressed(),
            "fairness 9.7 must trip the 2.0 gate: {cmp}"
        );
        assert!(cmp.to_string().contains("REGRESSED"), "{cmp}");
    }
}
