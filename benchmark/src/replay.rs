//! The traced run's per-layer replay. After the load ends, inputs are
//! pushed through the public call of each layer one at a time, each call
//! inside a span, and each per-layer metric is the median of those calls.
//!
//! The inputs are the workload's own where it has them (the lines it sent
//! and the replies it got, its keys and tenants, one cold calibration, its
//! experiments); a workload that never entered a layer replays inputs
//! generated from its seed, so every layer is measured on every workload
//! and a layer's cost can be compared across them.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use vardelay_analog::AnalogBlock;
use vardelay_backend::{
    BackendKind, BackendSentinel, CircuitBackend, DelayBackend, DllBackend, VernierBackend,
};
use vardelay_core::{
    CombinedDelayCircuit, FineDelayLine, ModelConfig, SentinelConfig, SentinelVerdict,
};
use vardelay_runner::{task_seed, Runner};
use vardelay_serve::shard::tenant_lane;
use vardelay_serve::{
    BankId, BankRegistry, ChannelState, DedupTable, Envelope, FairQueue, HashRing, Request,
    Response, SnapshotStore, Wal, WalRecord, SERVE_SEED,
};
use vardelay_siggen::{BitPattern, EdgeStream};
use vardelay_units::{BitRate, Time};
use vardelay_waveform::{to_edge_stream, Waveform};

use crate::gen::{churn_mix, sub_seed, SetDelay, CHANNELS};
use crate::metrics::Report;
use crate::oracle::{SetDelayOracle, FIGURES_DIGEST};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{clear_caches, reproduce, BANKS, EXPERIMENTS, RETRY_SHARE, TENANTS};

/// Requests replayed at most; medians over this many calls are steady.
pub const REPLAY_CAP: usize = 2000;

/// Repetitions of the slower isolated calls (bank rebuilds, closed-form
/// calibrations, cold sweeps).
const REPS: usize = 5;

/// One served request: what was asked, the line sent, the reply line.
#[derive(Debug, Clone)]
pub struct Replayed {
    /// The generated request.
    pub req: SetDelay,
    /// The request line as sent.
    pub line: String,
    /// The reply line as received.
    pub reply: String,
}

/// What the workload's unit of work is made of, for the share of its
/// median the replayed layers do not explain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpPath {
    /// A served `set_delay`, through a durable server or not.
    Served {
        /// WAL, dedup and snapshots on the path.
        durable: bool,
    },
    /// A cold calibration sweep.
    Calibration,
    /// A full reproduction.
    Reproduction,
}

/// What a workload hands its replay.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Served requests (empty when the workload served none).
    pub requests: Vec<Replayed>,
    /// The workload's unit of work.
    pub path: OpPath,
    /// Median end-to-end latency of the traced load, µs.
    pub e2e_p50_us: f64,
    /// Per-experiment medians the load already measured, by metric.
    pub experiments: BTreeMap<&'static str, f64>,
}

impl Inputs {
    /// Inputs of a serving workload: the first requests of its open loop.
    pub fn served(
        mix: &[SetDelay],
        lines: &[String],
        replies: &[String],
        durable: bool,
        e2e_p50_us: f64,
    ) -> Inputs {
        Inputs {
            requests: mix
                .iter()
                .zip(lines)
                .zip(replies)
                .take(REPLAY_CAP)
                .filter(|(_, reply)| !reply.is_empty())
                .map(|((req, line), reply)| Replayed {
                    req: req.clone(),
                    line: line.clone(),
                    reply: reply.clone(),
                })
                .collect(),
            path: OpPath::Served { durable },
            e2e_p50_us,
            experiments: BTreeMap::new(),
        }
    }

    /// Inputs of a workload that serves nothing.
    pub fn unserved(
        path: OpPath,
        e2e_p50_us: f64,
        experiments: BTreeMap<&'static str, f64>,
    ) -> Inputs {
        Inputs {
            requests: Vec::new(),
            path,
            e2e_p50_us,
            experiments,
        }
    }
}

/// Per-call durations of each layer, ns.
#[derive(Debug, Default)]
struct Calls(BTreeMap<&'static str, Vec<u64>>);

impl Calls {
    fn time<T>(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        parent: Option<usize>,
        id: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, ns) = tracer.time(name, parent, id, f);
        self.0.entry(name).or_default().push(ns);
        out
    }

    /// Median call of `name` in `unit_ns` units (0 if never called).
    fn median(&self, name: &str, unit_ns: f64) -> f64 {
        self.0
            .get(name)
            .map(|v| median(&v.iter().map(|&ns| ns as f64 / unit_ns).collect::<Vec<_>>()))
            .unwrap_or(0.0)
    }

    /// Summed calls of `name`, in `unit_ns` units.
    fn total(&self, name: &str, unit_ns: f64) -> f64 {
        self.0
            .get(name)
            .map_or(0.0, |v| v.iter().sum::<u64>() as f64 / unit_ns)
    }
}

const US: f64 = 1e3;
const MS: f64 = 1e6;

/// The layer calls on a served request's path, with how often each runs.
fn served_path(durable: bool) -> Vec<(&'static str, f64)> {
    let mut path = vec![
        ("serve.protocol.parse", 1.0),
        ("serve.shard.route", 1.0),
        ("serve.queue.push_pop", 1.0),
        ("serve.shard.bank_hit", 1.0),
        ("backend.set_delay", 1.0),
        ("serve.protocol.render", 1.0),
    ];
    if durable {
        // A keyed request looks its key up and appends two records.
        path.extend([("serve.dedup.lookup", 1.0), ("serve.wal.append", 2.0)]);
    }
    path
}

/// Replays every layer and returns the per-layer medians. Replays that
/// disagree with what the load saw, or with the direct call, are recorded
/// in `report`.
pub fn replay(
    inputs: &Inputs,
    seed: u64,
    scratch: &Path,
    nproc: usize,
    tracer: &mut Tracer,
    report: &mut Report,
) -> BTreeMap<&'static str, f64> {
    let mut calls = Calls::default();
    let mut out = BTreeMap::new();
    let requests = if inputs.requests.is_empty() {
        generated_requests(seed, nproc)
    } else {
        inputs.requests.clone()
    };
    serve_layers(&requests, scratch, tracer, report, &mut calls);
    let tenants: BTreeSet<String> = requests.iter().map(|r| r.req.tenant_label()).collect();
    durable_layers(&tenants, scratch, tracer, report, &mut calls);
    calibration_layers(nproc, tracer, report, &mut calls, &mut out);
    let experiments = if inputs.experiments.is_empty() {
        experiment_layers(tracer, report)
    } else {
        inputs.experiments.clone()
    };

    let explained_us = match inputs.path {
        OpPath::Served { durable } => served_path(durable)
            .into_iter()
            .map(|(call, times)| times * calls.median(call, US))
            .sum::<f64>(),
        // The sweep's points run on `nproc` threads.
        OpPath::Calibration => {
            [
                "waveform.render",
                "analog.chain",
                "waveform.crossing",
                "measure.tail_mean",
            ]
            .iter()
            .map(|call| calls.total(call, US))
            .sum::<f64>()
                / nproc as f64
        }
        OpPath::Reproduction => experiments.values().sum::<f64>() * 1e6,
    };
    out.insert("unattributed_p50_us", inputs.e2e_p50_us - explained_us);
    out.extend(experiments);
    for (metric, call, unit) in [
        ("serve.protocol.parse_us", "serve.protocol.parse", US),
        ("serve.protocol.render_us", "serve.protocol.render", US),
        ("serve.queue.push_pop_us", "serve.queue.push_pop", US),
        ("serve.shard.route_us", "serve.shard.route", US),
        ("serve.shard.bank_hit_us", "serve.shard.bank_hit", US),
        ("serve.shard.bank_miss_ms", "serve.shard.bank_miss", MS),
        ("backend.set_delay_us", "backend.set_delay", US),
        (
            "backend.vernier_calibrate_us",
            "backend.vernier_calibrate",
            US,
        ),
        ("backend.dll_calibrate_us", "backend.dll_calibrate", US),
        ("serve.dedup.lookup_us", "serve.dedup.lookup", US),
        ("serve.wal.append_us", "serve.wal.append", US),
        ("serve.persist.save_us", "serve.persist.save", US),
        ("serve.persist.load_us", "serve.persist.load", US),
        ("core.sentinel.verify_ms", "core.sentinel.verify", MS),
        ("waveform.render_us", "waveform.render", US),
        ("analog.chain_us", "analog.chain", US),
        ("waveform.crossing_us", "waveform.crossing", US),
        ("measure.tail_mean_us", "measure.tail_mean", US),
    ] {
        out.insert(metric, calls.median(call, unit));
    }
    out
}

/// Keyed, multi-tenant requests generated from the seed, each with the
/// reply the direct solve gives, for workloads that served nothing.
fn generated_requests(seed: u64, nproc: usize) -> Vec<Replayed> {
    let oracle = SetDelayOracle::new(Runner::new(nproc));
    churn_mix(
        sub_seed(seed, 20),
        REPLAY_CAP,
        TENANTS,
        BANKS,
        RETRY_SHARE,
        REPLAY_CAP,
        "replay",
    )
    .into_iter()
    .enumerate()
    .map(|(i, req)| Replayed {
        line: req.line(i as u64),
        reply: oracle.reply_line(&req, i as u64),
        req,
    })
    .collect()
}

/// Protocol, idempotency, routing, queue, bank lookup, solve, WAL and
/// reply rendering for every request, in the server's order; then bank
/// rebuilds and the other backends' calibrations.
fn serve_layers(
    requests: &[Replayed],
    scratch: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
    calls: &mut Calls,
) {
    let model = ModelConfig::paper_prototype();
    // The served configuration: one shard, lane depth 1024.
    let ring = HashRing::new(1);
    let queue: FairQueue<usize> = FairQueue::new(1024);
    let tenants: BTreeSet<String> = requests.iter().map(|r| r.req.tenant_label()).collect();
    // Room for every tenant: this times a resident lookup; rebuilds are
    // timed on their own below.
    let registry = BankRegistry::new(model.clone(), CHANNELS, SERVE_SEED, tenants.len() + 1);
    for tenant in &tenants {
        registry.get(
            &BankId::new(tenant.as_str(), BackendKind::Circuit),
            Runner::serial(),
        );
    }
    let dedup = DedupTable::new(64);
    let wal_path = scratch.join("replay-wal.log");
    let mut wal = match Wal::open(&wal_path) {
        Ok((wal, _, _)) => wal,
        Err(e) => {
            report.fail_check(format!(
                "replay: cannot open a WAL at {}: {e}",
                wal_path.display()
            ));
            return;
        }
    };
    for (i, Replayed { req, line, reply }) in requests.iter().enumerate() {
        let id = Some(i as u64);
        let root = tracer.open("replay.request", None, id);
        let tenant = req.tenant_label();
        let key = req.req_id.clone().unwrap_or_else(|| format!("replay-{i}"));
        let parsed = calls.time(tracer, "serve.protocol.parse", Some(root), id, || {
            Envelope::parse(line.trim_end())
        });
        match parsed {
            Ok(Envelope {
                request: Request::SetDelay { channel, ps },
                ..
            }) if channel == req.channel && ps == req.ps() => {}
            other => report.fail(format!("replay: {line:?} parsed as {other:?}")),
        }
        let cached = calls.time(tracer, "serve.dedup.lookup", Some(root), id, || {
            dedup.lookup(&tenant, &key)
        });
        if cached.is_some() != req.retry_of.is_some() {
            report.fail(format!(
                "replay: dedup lookup of {key} disagrees with the load"
            ));
        }
        calls.time(tracer, "serve.shard.route", Some(root), id, || {
            ring.route(&tenant, req.channel)
        });
        let popped = calls.time(tracer, "serve.queue.push_pop", Some(root), id, || {
            queue
                .try_push(tenant_lane(&tenant), i)
                .ok()
                .and_then(|()| queue.pop())
        });
        if popped != Some(i) {
            report.fail(format!("replay: queue returned {popped:?} for request {i}"));
        }
        let bank_id = BankId::new(tenant.as_str(), BackendKind::Circuit);
        let bank = calls.time(tracer, "serve.shard.bank_hit", Some(root), id, || {
            registry.get(&bank_id, Runner::serial())
        });
        let setting = calls.time(tracer, "backend.set_delay", Some(root), id, || {
            let mut channel = bank.channels[req.channel]
                .lock()
                .expect("replay channel lock");
            channel.set_delay(Time::from_ps(req.ps()))
        });
        let Ok((reply_id, response)) = Response::parse(reply) else {
            report.fail(format!("replay: unparsable reply {reply:?}"));
            tracer.close(root);
            continue;
        };
        if let (Ok(s), Response::Delay(d)) = (&setting, &response) {
            if d.batched == 1
                && (s.tap, s.dac_code, s.predicted_delay.as_ps())
                    != (d.tap, d.dac_code, d.predicted_ps)
            {
                report.fail(format!(
                    "replay: solve of {} ps differs from the served reply",
                    req.ps()
                ));
            }
        }
        let apply = WalRecord::Apply {
            tenant: tenant.clone(),
            channel: req.channel,
            ps: req.ps(),
        };
        let logged = WalRecord::Dedup {
            tenant: tenant.clone(),
            req_id: key.clone(),
            response: response.to_value(None).render(),
        };
        for record in [apply, logged] {
            if calls
                .time(tracer, "serve.wal.append", Some(root), id, || {
                    wal.append(&record)
                })
                .is_err()
            {
                report.fail("replay: WAL append failed");
            }
        }
        dedup.record(&tenant, &key, &response);
        calls.time(tracer, "serve.protocol.render", Some(root), id, || {
            response.to_value(reply_id).render()
        });
        tracer.close(root);
    }

    // A non-resident bank with no durability hooks: an in-memory rebuild.
    let cold = BankRegistry::new(model.clone(), CHANNELS, SERVE_SEED, 1);
    for k in 0..REPS {
        let id = BankId::new(format!("replay-miss-{}", k % 2), BackendKind::Circuit);
        calls.time(tracer, "serve.shard.bank_miss", None, None, || {
            cold.get(&id, Runner::serial())
        });
    }
    // The other backends' closed-form calibrations, as a contrast.
    for _ in 0..REPS {
        let mut vernier = VernierBackend::new(&model, SERVE_SEED);
        calls.time(tracer, "backend.vernier_calibrate", None, None, || {
            vernier.calibrate_with(Runner::serial());
        });
        let mut dll = DllBackend::new(&model, SERVE_SEED);
        calls.time(tracer, "backend.dll_calibrate", None, None, || {
            dll.calibrate_with(Runner::serial());
        });
    }
}

/// Snapshot save and load of every tenant's channels into a fresh store,
/// and the one-probe sentinel a warm restart runs on each restored
/// channel.
fn durable_layers(
    tenants: &BTreeSet<String>,
    scratch: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
    calls: &mut Calls,
) {
    let model = ModelConfig::paper_prototype();
    let mut reference = CircuitBackend::new(&model, SERVE_SEED);
    let table = reference.calibrate_with(Runner::serial()).clone();
    let store = match SnapshotStore::open(scratch.join("replay-store"), 0x5eed) {
        Ok(store) => store,
        Err(e) => {
            report.fail_check(format!("replay: cannot open a snapshot store: {e}"));
            return;
        }
    };
    for tenant in tenants {
        for ch in 0..CHANNELS {
            let saved = calls.time(tracer, "serve.persist.save", None, None, || {
                store.save_channel(tenant, ch, ChannelState::Healthy, &table)
            });
            let loaded = calls.time(tracer, "serve.persist.load", None, None, || {
                store.load_channel(tenant, ch)
            });
            if !matches!((&saved, &loaded), (Ok(()), Ok(snap)) if snap.table == table) {
                report.fail(format!(
                    "replay: snapshot of {tenant:?} channel {ch} did not round-trip"
                ));
            }
        }
    }
    let probe = SentinelConfig {
        probes: 1,
        ..SentinelConfig::default()
    };
    let first = tenants.iter().next().cloned().unwrap_or_default();
    for ch in 0..CHANNELS {
        let Ok(snap) = store.load_channel(&first, ch) else {
            report.fail(format!("replay: no snapshot for channel {ch}"));
            continue;
        };
        let mut restored = CircuitBackend::new(&model, SERVE_SEED);
        restored.install_calibration(snap.table);
        let verdict = calls.time(
            tracer,
            "core.sentinel.verify",
            None,
            Some(ch as u64),
            || {
                BackendSentinel::from_backend(&restored, probe)
                    .map(|s| s.run(task_seed(SERVE_SEED, ch as u64)).verdict())
            },
        );
        if verdict != Ok(SentinelVerdict::Healthy) {
            report.fail(format!(
                "replay: restored channel {ch} failed its sentinel: {verdict:?}"
            ));
        }
    }
}

/// One cold calibration, point by point, through the public calls
/// `FineDelayLine::measure_delay` makes; every point must reproduce the
/// direct measurement bit for bit. Then the whole sweep, serial and on
/// `nproc` threads.
fn calibration_layers(
    nproc: usize,
    tracer: &mut Tracer,
    report: &mut Report,
    calls: &mut Calls,
    out: &mut BTreeMap<&'static str, f64>,
) {
    let model = ModelConfig::paper_prototype();
    let circuit = CombinedDelayCircuit::new(&model, SERVE_SEED);
    let fine = circuit.fine();
    let interval = Time::from_ps(320.0);
    let points = 17;
    for k in 0..points {
        let id = Some(k as u64);
        let root = tracer.open("replay.calibration_point", None, id);
        let vctrl = fine
            .vctrl_min()
            .lerp(fine.vctrl_max(), k as f64 / (points - 1) as f64);
        let mut probe = fine.clone();
        probe.set_vctrl(vctrl);
        let mut quiet = FineDelayLine::new(&probe.config().quiet(), 0);
        quiet.set_stage_vctrls(&probe.stage_vctrls());
        let rate = BitRate::from_bps(1.0 / interval.as_s());
        let stimulus = EdgeStream::nrz(&BitPattern::clock(24), rate);
        let wf = calls.time(tracer, "waveform.render", Some(root), id, || {
            Waveform::render(&stimulus, &probe.config().render)
        });
        let line_out = calls.time(tracer, "analog.chain", Some(root), id, || {
            quiet.process(&wf)
        });
        let edges = calls.time(tracer, "waveform.crossing", Some(root), id, || {
            to_edge_stream(&line_out, 0.0, rate.bit_period())
        });
        vardelay_waveform::pool::recycle(line_out.into_samples());
        vardelay_waveform::pool::recycle(wf.into_samples());
        let replayed = calls.time(tracer, "measure.tail_mean", Some(root), id, || {
            vardelay_measure::tail_mean_delay(&stimulus, &edges, 8)
        });
        tracer.close(root);
        let direct = probe.measure_delay(interval);
        if replayed.as_ref().ok() != Some(&direct) {
            report.fail_check(format!(
                "calibration replay point {k}: {replayed:?} is not bit-exact with measure_delay {direct:?}"
            ));
        }
    }

    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    let mut sweep_points = 0;
    for _ in 0..REPS {
        for (runner, times, name) in [
            (Runner::serial(), &mut serial, "core.sweep_serial"),
            (Runner::new(nproc), &mut parallel, "core.sweep_parallel"),
        ] {
            clear_caches();
            let mut backend = CircuitBackend::new(&model, SERVE_SEED);
            let (table, ns) =
                tracer.time(name, None, None, || backend.calibrate_with(runner).clone());
            sweep_points = table.vctrls().len();
            times.push(ns as f64);
        }
    }
    out.insert("core.sweep_points", sweep_points as f64);
    out.insert(
        "runner.parallel_efficiency",
        median(&serial) / (nproc as f64 * median(&parallel)),
    );
}

/// One cold run of every experiment, timed one by one and checked
/// against the pinned digest.
fn experiment_layers(tracer: &mut Tracer, report: &mut Report) -> BTreeMap<&'static str, f64> {
    let (secs, digest) = reproduce(Some(tracer), 0);
    if digest != FIGURES_DIGEST {
        report.fail_check(format!(
            "replayed experiments digest {digest:016x}, pinned {FIGURES_DIGEST:016x}"
        ));
    }
    EXPERIMENTS
        .iter()
        .map(|(_, metric, _)| *metric)
        .zip(secs)
        .collect()
}
