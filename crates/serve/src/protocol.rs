//! Wire protocol: line-delimited JSON requests and responses.
//!
//! One request per line, one response per line, both rendered with
//! `vardelay-obs`'s hand-rolled JSON (DESIGN.md §12 has the grammar).
//! Requests are objects with an `"op"` discriminant; responses carry
//! `"ok": true` plus op-specific fields, or `"ok": false` plus a
//! structured error kind. Every type converts **both** directions
//! (`to_value` / `from_value`) so the round-trip property tests can
//! cover the full surface.
//!
//! Classification contract (leaned on by the property tests):
//!
//! * input that is not valid JSON, or not a JSON object →
//!   [`ErrorKind::ParseError`];
//! * a well-formed object with a missing/unknown `"op"` or bad fields →
//!   [`ErrorKind::BadRequest`];
//! * neither ever panics the connection thread.

use vardelay_backend::BackendKind;
use vardelay_obs::json::Value;

/// Hard cap on a single request line, in bytes. Longer lines are
/// answered with a `parse_error` and discarded up to the next newline —
/// the connection survives.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Hard cap on any wire-side index or count field (`channel`, `tap`,
/// `bus`, `bits`, …). Far above anything a real configuration exposes,
/// but small enough that the `u64 → usize` conversion is lossless on
/// every target — a `channel: 2^40` must draw a structured
/// `bad_request`, not silently truncate on a 32-bit host and turn into
/// a confusing downstream index error.
pub const MAX_WIRE_INDEX: u64 = 1 << 20;

/// Hard cap on a `tenant` label, in bytes. Tenants are routing keys;
/// an unbounded label would let one request pin arbitrary memory in
/// the per-tenant quota and bank tables.
pub const MAX_TENANT_BYTES: usize = 128;

/// Hard cap on a `req_id` idempotency key, in bytes. Like tenants,
/// req_ids are cached server-side (the dedup window plus the WAL), so
/// they must be bounded.
pub const MAX_REQ_ID_BYTES: usize = 64;

/// Hard cap on a `backend` selector, in bytes. The longest valid name
/// is 7 bytes ("vernier"/"circuit"); the cap only bounds how much junk
/// an unknown-name error echoes back.
pub const MAX_BACKEND_BYTES: usize = 32;

/// A parsed request plus its per-request metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Option<u64>,
    /// Per-request deadline budget in milliseconds (server default when
    /// absent). Exceeding it yields a `deadline_exceeded` *response*,
    /// never a dropped connection.
    pub deadline_ms: Option<u64>,
    /// Tenant label (`"tenant"` on the wire). Absent or empty means the
    /// default tenant; the server routes `(tenant, channel)` to a shard
    /// and charges the tenant's quota.
    pub tenant: Option<String>,
    /// Client-chosen idempotency key (≤ [`MAX_REQ_ID_BYTES`] bytes).
    /// A request carrying one is executed at most once per dedup
    /// window: a retry with the same `(tenant, req_id)` — even on a
    /// different connection, even across a server restart — replays the
    /// original cached response instead of re-running the solve.
    pub req_id: Option<String>,
    /// Delay-backend selector (`"backend"` on the wire, DESIGN.md §17).
    /// Absent or empty means the server's default backend
    /// (`VARDELAY_SERVE_BACKEND`); an unknown name is a `bad_request`
    /// listing the valid names, so a typo never silently lands on the
    /// wrong hardware family.
    pub backend: Option<BackendKind>,
    /// The operation.
    pub request: Request,
}

/// Every operation the service accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Program one channel's delay: coarse tap + fine `Vctrl` solve
    /// against the cached characterization.
    SetDelay {
        /// Channel index (0-based).
        channel: usize,
        /// Requested relative delay in picoseconds.
        ps: f64,
    },
    /// Run the degraded-mode deskew loop over a fresh `bus`-wide
    /// parallel bus with seeded random skew.
    Deskew {
        /// Bus width in channels (2..=32).
        bus: usize,
        /// Seed for the bus skews and the engine's retry RNG.
        seed: u64,
    },
    /// Stream a PRBS-7 pattern through the jitter injector.
    InjectJitter {
        /// Injected noise peak-to-peak amplitude, millivolts.
        vpp_mv: f64,
        /// Line rate in Gb/s.
        rate_gbps: f64,
        /// Pattern length in bits (1..=4096).
        bits: usize,
        /// PRBS seed.
        seed: u64,
    },
    /// Run the channel-0 circuit self-test (DESIGN.md §10).
    Selftest,
    /// Report server counters and queue state.
    Stats,
    /// Begin a graceful drain: stop accepting, finish in-flight work.
    Shutdown,
}

impl Request {
    /// The wire discriminant.
    pub fn op(&self) -> &'static str {
        match self {
            Request::SetDelay { .. } => "set_delay",
            Request::Deskew { .. } => "deskew",
            Request::InjectJitter { .. } => "inject_jitter",
            Request::Selftest => "selftest",
            Request::Stats => "stats",
            Request::Shutdown => "shutdown",
        }
    }
}

/// Machine-readable error classes, in escalation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line was not valid JSON (or not an object).
    ParseError,
    /// Valid JSON, but the operation or its fields are wrong.
    BadRequest,
    /// The bounded queue was full; retry after the hinted delay.
    Overloaded,
    /// The per-request deadline elapsed before the work finished.
    DeadlineExceeded,
    /// A worker panicked while handling the request (the worker and the
    /// connection both survive).
    Internal,
    /// The addressed channel is quarantined pending recalibration;
    /// retry after the hinted delay (DESIGN.md §15).
    Unavailable,
}

impl ErrorKind {
    /// The wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::ParseError => "parse_error",
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::DeadlineExceeded => "deadline_exceeded",
            ErrorKind::Internal => "internal",
            ErrorKind::Unavailable => "unavailable",
        }
    }

    /// Inverse of [`as_str`](Self::as_str).
    pub fn from_wire(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "parse_error" => ErrorKind::ParseError,
            "bad_request" => ErrorKind::BadRequest,
            "overloaded" => ErrorKind::Overloaded,
            "deadline_exceeded" => ErrorKind::DeadlineExceeded,
            "internal" => ErrorKind::Internal,
            "unavailable" => ErrorKind::Unavailable,
            _ => return None,
        })
    }
}

/// A structured error response.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorReply {
    /// The error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub detail: String,
    /// `Retry-After`-style hint, milliseconds (backpressure only).
    pub retry_after_ms: Option<u64>,
}

/// `set_delay` success payload: the chosen operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct DelayReply {
    /// The programmed channel.
    pub channel: usize,
    /// The delay this waiter asked for, picoseconds.
    pub requested_ps: f64,
    /// Selected coarse tap.
    pub tap: usize,
    /// Programmed DAC code.
    pub dac_code: u32,
    /// Control voltage, millivolts.
    pub vctrl_mv: f64,
    /// Calibration-predicted delay, picoseconds.
    pub predicted_ps: f64,
    /// Predicted error vs the *batch* target, picoseconds.
    pub error_ps: f64,
    /// How many same-channel requests this one solve answered.
    pub batched: usize,
}

/// `deskew` success payload.
#[derive(Debug, Clone, PartialEq)]
pub struct DeskewReply {
    /// Bus width.
    pub bus: usize,
    /// Peak-to-peak skew before correction, picoseconds.
    pub before_ps: f64,
    /// Peak-to-peak skew after correction, picoseconds.
    pub after_ps: f64,
    /// Channels measured and corrected.
    pub healthy: usize,
    /// Quarantined channel indices.
    pub quarantined: Vec<usize>,
    /// Reference channel index.
    pub reference: usize,
    /// Whether the healthy channels met the paper's <5 ps target.
    pub meets_target: bool,
}

/// `inject_jitter` success payload.
#[derive(Debug, Clone, PartialEq)]
pub struct JitterReply {
    /// Edges in the jittered stream.
    pub edges: usize,
    /// Injection transfer slope, seconds per volt.
    pub slope_s_per_v: f64,
}

/// `selftest` success payload.
#[derive(Debug, Clone, PartialEq)]
pub struct SelftestReply {
    /// `healthy` / `degraded` / `faulty`.
    pub verdict: String,
    /// The full one-line health report.
    pub summary: String,
    /// `true` when the deadline budget ran out before the expensive DAC
    /// sweep: the verdict covers the calibration check only.
    pub partial: bool,
}

/// `stats` success payload — server counters since start.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReply {
    /// Request lines received (including malformed ones).
    pub requests: u64,
    /// Successful responses sent.
    pub ok: u64,
    /// `parse_error` responses sent.
    pub parse_errors: u64,
    /// `bad_request` responses sent.
    pub bad_requests: u64,
    /// `overloaded` responses sent.
    pub overloaded: u64,
    /// `deadline_exceeded` responses sent.
    pub deadline_exceeded: u64,
    /// `internal` responses sent.
    pub internal_errors: u64,
    /// Requests answered as part of a same-channel batch (followers).
    pub batched: u64,
    /// Requests shed by a tenant's token-bucket quota (a subset of
    /// `overloaded`).
    pub quota_rejections: u64,
    /// `unavailable` responses sent (quarantined channels).
    pub unavailable: u64,
    /// Connections cut by a read/write deadline expiring.
    pub io_timeouts: u64,
    /// Connections cut by the partial-line deadline.
    pub reaped: u64,
    /// Channels currently quarantined or still in recovery probation.
    pub quarantined: u64,
    /// Channels currently in any non-healthy state (probation included).
    pub unhealthy: u64,
    /// Background recalibrations completed since start.
    pub recalibrations: u64,
    /// Quarantine entries since start.
    pub quarantines: u64,
    /// The state directory's monotonic restart counter (1 with no
    /// state dir — a purely in-memory server is its own first epoch).
    pub server_epoch: u64,
    /// Tenant banks whose warm restart restored at least one channel
    /// table from a snapshot instead of recalibrating it.
    pub banks_restored: u64,
    /// Tenant banks that had persisted state but fell back to a fresh
    /// calibration for at least one channel (corrupt snapshot,
    /// fingerprint mismatch, or a sentinel-rejected table).
    pub banks_recalibrated: u64,
    /// WAL records replayed during the last warm restart.
    pub wal_records_replayed: u64,
    /// Wall time of the last warm restart's recovery pass, microseconds.
    pub restore_us: u64,
    /// Requests answered from the idempotency window instead of
    /// re-executing.
    pub dedup_hits: u64,
    /// Jobs waiting in the queue right now (all shards).
    pub queue_depth: u64,
    /// Worker threads serving the queues (all shards).
    pub workers: u64,
    /// Bank shards serving requests.
    pub shards: u64,
    /// Tenant banks currently resident (calibrated, not yet evicted).
    pub banks: u64,
}

/// Every response the service emits.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `set_delay` succeeded.
    Delay(DelayReply),
    /// `deskew` succeeded.
    Deskew(DeskewReply),
    /// `inject_jitter` succeeded.
    Jitter(JitterReply),
    /// `selftest` succeeded.
    Selftest(SelftestReply),
    /// `stats` succeeded.
    Stats(StatsReply),
    /// `shutdown` accepted; the server is draining.
    Draining,
    /// The request failed; see [`ErrorReply::kind`].
    Error(ErrorReply),
}

impl Response {
    /// Shorthand error constructor.
    pub fn error(kind: ErrorKind, detail: impl Into<String>) -> Response {
        Response::Error(ErrorReply {
            kind,
            detail: detail.into(),
            retry_after_ms: None,
        })
    }

    /// The error kind, if this is an error.
    pub fn error_kind(&self) -> Option<ErrorKind> {
        match self {
            Response::Error(e) => Some(e.kind),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Requests: JSON in both directions
// ---------------------------------------------------------------------------

fn field_f64(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_u64_or(v: &Value, key: &str, default: u64) -> Result<u64, String> {
    match v.get(key) {
        None => Ok(default),
        Some(raw) => raw
            .as_u64()
            .ok_or_else(|| format!("non-integer field {key:?}")),
    }
}

/// Decodes an index/count field with the [`MAX_WIRE_INDEX`] bound so the
/// `u64 → usize` conversion is lossless on every target. A `channel:
/// 2^40` (or `u64::MAX`) draws a structured error instead of silently
/// truncating on 32-bit hosts.
fn field_index(v: &Value, key: &str) -> Result<usize, String> {
    let raw = field_u64(v, key)?;
    if raw > MAX_WIRE_INDEX {
        return Err(format!(
            "field {key:?} is {raw}, above the protocol limit {MAX_WIRE_INDEX}"
        ));
    }
    Ok(raw as usize)
}

/// Decodes a field that must fit in `u32` (DAC codes).
fn field_u32(v: &Value, key: &str) -> Result<u32, String> {
    let raw = field_u64(v, key)?;
    u32::try_from(raw).map_err(|_| format!("field {key:?} is {raw}, which does not fit in u32"))
}

impl Envelope {
    /// A bare request with no id and the server's default deadline.
    pub fn new(request: Request) -> Envelope {
        Envelope {
            id: None,
            deadline_ms: None,
            tenant: None,
            req_id: None,
            backend: None,
            request,
        }
    }

    /// Same request, tagged with a tenant label.
    pub fn for_tenant(self, tenant: impl Into<String>) -> Envelope {
        Envelope {
            tenant: Some(tenant.into()),
            ..self
        }
    }

    /// Same request, tagged with an idempotency key.
    pub fn with_req_id(self, req_id: impl Into<String>) -> Envelope {
        Envelope {
            req_id: Some(req_id.into()),
            ..self
        }
    }

    /// Same request, pinned to an explicit delay backend.
    pub fn on_backend(self, backend: BackendKind) -> Envelope {
        Envelope {
            backend: Some(backend),
            ..self
        }
    }

    /// Renders the request line (without the trailing newline).
    pub fn to_value(&self) -> Value {
        let mut v = Value::obj().with("op", self.request.op());
        if let Some(id) = self.id {
            v = v.with("id", id);
        }
        if let Some(ms) = self.deadline_ms {
            v = v.with("deadline_ms", ms);
        }
        if let Some(tenant) = &self.tenant {
            v = v.with("tenant", tenant.as_str());
        }
        if let Some(req_id) = &self.req_id {
            v = v.with("req_id", req_id.as_str());
        }
        if let Some(backend) = self.backend {
            v = v.with("backend", backend.name());
        }
        match &self.request {
            Request::SetDelay { channel, ps } => v.with("channel", *channel).with("ps", *ps),
            Request::Deskew { bus, seed } => v.with("bus", *bus).with("seed", *seed),
            Request::InjectJitter {
                vpp_mv,
                rate_gbps,
                bits,
                seed,
            } => v
                .with("vpp_mv", *vpp_mv)
                .with("rate_gbps", *rate_gbps)
                .with("bits", *bits)
                .with("seed", *seed),
            Request::Selftest | Request::Stats | Request::Shutdown => v,
        }
    }

    /// Parses one request line. The error is already the structured
    /// response the server should write back.
    pub fn parse(line: &str) -> Result<Envelope, ErrorReply> {
        if line.len() > MAX_LINE_BYTES {
            return Err(ErrorReply {
                kind: ErrorKind::ParseError,
                detail: format!(
                    "line of {} bytes exceeds the {MAX_LINE_BYTES}-byte limit",
                    line.len()
                ),
                retry_after_ms: None,
            });
        }
        let value = Value::parse(line.trim()).map_err(|e| ErrorReply {
            kind: ErrorKind::ParseError,
            detail: e.to_string(),
            retry_after_ms: None,
        })?;
        Envelope::from_value(&value).map_err(|detail| ErrorReply {
            kind: if matches!(value, Value::Obj(_)) {
                ErrorKind::BadRequest
            } else {
                ErrorKind::ParseError
            },
            detail,
            retry_after_ms: None,
        })
    }

    /// Inverse of [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> Result<Envelope, String> {
        if !matches!(value, Value::Obj(_)) {
            return Err("request must be a JSON object".to_owned());
        }
        let id = match value.get("id") {
            None => None,
            Some(raw) => Some(raw.as_u64().ok_or("non-integer field \"id\"")?),
        };
        let deadline_ms = match value.get("deadline_ms") {
            None => None,
            Some(raw) => Some(raw.as_u64().ok_or("non-integer field \"deadline_ms\"")?),
        };
        let tenant = match value.get("tenant") {
            None => None,
            Some(raw) => {
                let s = raw.as_str().ok_or("non-string field \"tenant\"")?;
                if s.len() > MAX_TENANT_BYTES {
                    return Err(format!(
                        "field \"tenant\" is {} bytes, above the {MAX_TENANT_BYTES}-byte limit",
                        s.len()
                    ));
                }
                // The empty label IS the default tenant; normalising it
                // here keeps routing and quota accounting canonical.
                if s.is_empty() {
                    None
                } else {
                    Some(s.to_owned())
                }
            }
        };
        let req_id = match value.get("req_id") {
            None => None,
            Some(raw) => {
                let s = raw.as_str().ok_or("non-string field \"req_id\"")?;
                if s.len() > MAX_REQ_ID_BYTES {
                    return Err(format!(
                        "field \"req_id\" is {} bytes, above the {MAX_REQ_ID_BYTES}-byte limit",
                        s.len()
                    ));
                }
                // Like the tenant label: empty means "no idempotency
                // key", normalized here so the dedup window never keys
                // on "".
                if s.is_empty() {
                    None
                } else {
                    Some(s.to_owned())
                }
            }
        };
        let backend = match value.get("backend") {
            None => None,
            Some(raw) => {
                let s = raw.as_str().ok_or("non-string field \"backend\"")?;
                if s.len() > MAX_BACKEND_BYTES {
                    return Err(format!(
                        "field \"backend\" is {} bytes, above the {MAX_BACKEND_BYTES}-byte limit",
                        s.len()
                    ));
                }
                // Empty means the server default, same as absent.
                if s.is_empty() {
                    None
                } else {
                    match BackendKind::from_name(s) {
                        Some(kind) => Some(kind),
                        None => {
                            return Err(format!(
                                "unknown backend {s:?} (valid backends: {})",
                                BackendKind::valid_names()
                            ))
                        }
                    }
                }
            }
        };
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing or non-string field \"op\"")?;
        let request = match op {
            "set_delay" => Request::SetDelay {
                channel: field_index(value, "channel")?,
                ps: field_f64(value, "ps")?,
            },
            "deskew" => Request::Deskew {
                bus: field_index(value, "bus")?,
                seed: field_u64_or(value, "seed", 0)?,
            },
            "inject_jitter" => Request::InjectJitter {
                vpp_mv: field_f64(value, "vpp_mv")?,
                rate_gbps: field_f64(value, "rate_gbps")?,
                bits: field_index(value, "bits")?,
                seed: field_u64_or(value, "seed", 1)?,
            },
            "selftest" => Request::Selftest,
            "stats" => Request::Stats,
            "shutdown" => Request::Shutdown,
            other => return Err(format!("unknown op {other:?}")),
        };
        Ok(Envelope {
            id,
            deadline_ms,
            tenant,
            req_id,
            backend,
            request,
        })
    }
}

// ---------------------------------------------------------------------------
// Responses: JSON in both directions
// ---------------------------------------------------------------------------

impl Response {
    /// Renders the response line (without the trailing newline),
    /// echoing the request's correlation id when present.
    pub fn to_value(&self, id: Option<u64>) -> Value {
        let mut v = Value::obj();
        if let Some(id) = id {
            v = v.with("id", id);
        }
        match self {
            Response::Delay(r) => v
                .with("ok", true)
                .with("op", "set_delay")
                .with("channel", r.channel)
                .with("requested_ps", r.requested_ps)
                .with("tap", r.tap)
                .with("dac_code", r.dac_code as u64)
                .with("vctrl_mv", r.vctrl_mv)
                .with("predicted_ps", r.predicted_ps)
                .with("error_ps", r.error_ps)
                .with("batched", r.batched),
            Response::Deskew(r) => v
                .with("ok", true)
                .with("op", "deskew")
                .with("bus", r.bus)
                .with("before_ps", r.before_ps)
                .with("after_ps", r.after_ps)
                .with("healthy", r.healthy)
                .with(
                    "quarantined",
                    Value::Arr(r.quarantined.iter().map(|&c| Value::from(c)).collect()),
                )
                .with("reference", r.reference)
                .with("meets_target", r.meets_target),
            Response::Jitter(r) => v
                .with("ok", true)
                .with("op", "inject_jitter")
                .with("edges", r.edges)
                .with("slope_s_per_v", r.slope_s_per_v),
            Response::Selftest(r) => {
                v = v
                    .with("ok", true)
                    .with("op", "selftest")
                    .with("verdict", r.verdict.as_str())
                    .with("summary", r.summary.as_str());
                // Rendered only when set: full results stay wire-stable.
                if r.partial {
                    v = v.with("partial", true);
                }
                v
            }
            Response::Stats(r) => v
                .with("ok", true)
                .with("op", "stats")
                .with("requests", r.requests)
                .with("ok_count", r.ok)
                .with("parse_errors", r.parse_errors)
                .with("bad_requests", r.bad_requests)
                .with("overloaded", r.overloaded)
                .with("deadline_exceeded", r.deadline_exceeded)
                .with("internal_errors", r.internal_errors)
                .with("batched", r.batched)
                .with("quota_rejections", r.quota_rejections)
                .with("unavailable", r.unavailable)
                .with("io_timeouts", r.io_timeouts)
                .with("reaped", r.reaped)
                .with("quarantined", r.quarantined)
                .with("unhealthy", r.unhealthy)
                .with("recalibrations", r.recalibrations)
                .with("quarantines", r.quarantines)
                .with("server_epoch", r.server_epoch)
                .with("banks_restored", r.banks_restored)
                .with("banks_recalibrated", r.banks_recalibrated)
                .with("wal_records_replayed", r.wal_records_replayed)
                .with("restore_us", r.restore_us)
                .with("dedup_hits", r.dedup_hits)
                .with("queue_depth", r.queue_depth)
                .with("workers", r.workers)
                .with("shards", r.shards)
                .with("banks", r.banks),
            Response::Draining => v
                .with("ok", true)
                .with("op", "shutdown")
                .with("draining", true),
            Response::Error(e) => {
                v = v
                    .with("ok", false)
                    .with("error", e.kind.as_str())
                    .with("detail", e.detail.as_str());
                if let Some(ms) = e.retry_after_ms {
                    v = v.with("retry_after_ms", ms);
                }
                v
            }
        }
    }

    /// Parses a response line into `(id, response)`.
    pub fn parse(line: &str) -> Result<(Option<u64>, Response), String> {
        let value = Value::parse(line.trim()).map_err(|e| e.to_string())?;
        Response::from_value(&value)
    }

    /// Inverse of [`to_value`](Self::to_value).
    pub fn from_value(value: &Value) -> Result<(Option<u64>, Response), String> {
        let id = value.get("id").and_then(Value::as_u64);
        let ok = value
            .get("ok")
            .and_then(Value::as_bool)
            .ok_or("missing field \"ok\"")?;
        if !ok {
            let kind = value
                .get("error")
                .and_then(Value::as_str)
                .and_then(ErrorKind::from_wire)
                .ok_or("missing or unknown field \"error\"")?;
            let detail = value
                .get("detail")
                .and_then(Value::as_str)
                .unwrap_or_default()
                .to_owned();
            let retry_after_ms = value.get("retry_after_ms").and_then(Value::as_u64);
            return Ok((
                id,
                Response::Error(ErrorReply {
                    kind,
                    detail,
                    retry_after_ms,
                }),
            ));
        }
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .ok_or("missing field \"op\"")?;
        let response = match op {
            "set_delay" => Response::Delay(DelayReply {
                channel: field_index(value, "channel")?,
                requested_ps: field_f64(value, "requested_ps")?,
                tap: field_index(value, "tap")?,
                dac_code: field_u32(value, "dac_code")?,
                vctrl_mv: field_f64(value, "vctrl_mv")?,
                predicted_ps: field_f64(value, "predicted_ps")?,
                error_ps: field_f64(value, "error_ps")?,
                batched: field_index(value, "batched")?,
            }),
            "deskew" => Response::Deskew(DeskewReply {
                bus: field_index(value, "bus")?,
                before_ps: field_f64(value, "before_ps")?,
                after_ps: field_f64(value, "after_ps")?,
                healthy: field_index(value, "healthy")?,
                quarantined: value
                    .get("quarantined")
                    .and_then(Value::as_arr)
                    .ok_or("missing field \"quarantined\"")?
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .filter(|&c| c <= MAX_WIRE_INDEX)
                            .map(|c| c as usize)
                            .ok_or("non-integer or out-of-range channel")
                    })
                    .collect::<Result<_, _>>()?,
                reference: field_index(value, "reference")?,
                meets_target: value
                    .get("meets_target")
                    .and_then(Value::as_bool)
                    .ok_or("missing field \"meets_target\"")?,
            }),
            "inject_jitter" => Response::Jitter(JitterReply {
                edges: field_index(value, "edges")?,
                slope_s_per_v: field_f64(value, "slope_s_per_v")?,
            }),
            "selftest" => Response::Selftest(SelftestReply {
                verdict: value
                    .get("verdict")
                    .and_then(Value::as_str)
                    .ok_or("missing field \"verdict\"")?
                    .to_owned(),
                summary: value
                    .get("summary")
                    .and_then(Value::as_str)
                    .ok_or("missing field \"summary\"")?
                    .to_owned(),
                partial: value
                    .get("partial")
                    .and_then(Value::as_bool)
                    .unwrap_or(false),
            }),
            "stats" => Response::Stats(StatsReply {
                requests: field_u64(value, "requests")?,
                ok: field_u64(value, "ok_count")?,
                parse_errors: field_u64(value, "parse_errors")?,
                bad_requests: field_u64(value, "bad_requests")?,
                overloaded: field_u64(value, "overloaded")?,
                deadline_exceeded: field_u64(value, "deadline_exceeded")?,
                internal_errors: field_u64(value, "internal_errors")?,
                batched: field_u64(value, "batched")?,
                quota_rejections: field_u64_or(value, "quota_rejections", 0)?,
                unavailable: field_u64_or(value, "unavailable", 0)?,
                io_timeouts: field_u64_or(value, "io_timeouts", 0)?,
                reaped: field_u64_or(value, "reaped", 0)?,
                quarantined: field_u64_or(value, "quarantined", 0)?,
                unhealthy: field_u64_or(value, "unhealthy", 0)?,
                recalibrations: field_u64_or(value, "recalibrations", 0)?,
                quarantines: field_u64_or(value, "quarantines", 0)?,
                server_epoch: field_u64_or(value, "server_epoch", 0)?,
                banks_restored: field_u64_or(value, "banks_restored", 0)?,
                banks_recalibrated: field_u64_or(value, "banks_recalibrated", 0)?,
                wal_records_replayed: field_u64_or(value, "wal_records_replayed", 0)?,
                restore_us: field_u64_or(value, "restore_us", 0)?,
                dedup_hits: field_u64_or(value, "dedup_hits", 0)?,
                queue_depth: field_u64(value, "queue_depth")?,
                workers: field_u64(value, "workers")?,
                shards: field_u64_or(value, "shards", 1)?,
                banks: field_u64_or(value, "banks", 1)?,
            }),
            "shutdown" => Response::Draining,
            other => return Err(format!("unknown response op {other:?}")),
        };
        Ok((id, response))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let all = [
            Envelope {
                id: Some(7),
                deadline_ms: Some(250),
                tenant: Some("lot-a".to_owned()),
                req_id: Some("retry-0007".to_owned()),
                backend: Some(BackendKind::Dll),
                request: Request::SetDelay {
                    channel: 3,
                    ps: 161.25,
                },
            },
            Envelope::new(Request::Deskew { bus: 8, seed: 42 }),
            Envelope::new(Request::SetDelay {
                channel: 1,
                ps: 50.0,
            })
            .on_backend(BackendKind::Vernier),
            Envelope::new(Request::SetDelay {
                channel: 0,
                ps: 30.0,
            })
            .for_tenant("t07"),
            Envelope::new(Request::InjectJitter {
                vpp_mv: 80.0,
                rate_gbps: 3.2,
                bits: 127,
                seed: 5,
            }),
            Envelope::new(Request::Selftest),
            Envelope::new(Request::Stats),
            Envelope::new(Request::Shutdown),
        ];
        for env in all {
            let line = env.to_value().render();
            let back = Envelope::parse(&line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
            assert_eq!(back, env, "{line}");
        }
    }

    #[test]
    fn junk_is_a_parse_error_and_bad_fields_are_bad_requests() {
        for junk in ["", "not json", "[1,2]", "42", "\"op\"", "{\"op\":", "null"] {
            let err = Envelope::parse(junk).unwrap_err();
            assert_eq!(err.kind, ErrorKind::ParseError, "{junk:?}");
        }
        for bad in [
            "{}",
            "{\"op\":\"warp\"}",
            "{\"op\":\"set_delay\"}",
            "{\"op\":\"set_delay\",\"channel\":-1,\"ps\":10}",
            "{\"op\":\"set_delay\",\"channel\":0,\"ps\":\"x\"}",
            "{\"op\":\"stats\",\"id\":1.5}",
            "{\"op\":\"stats\",\"tenant\":7}",
        ] {
            let err = Envelope::parse(bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad:?}");
        }
        let over = "x".repeat(MAX_LINE_BYTES + 1);
        assert_eq!(
            Envelope::parse(&over).unwrap_err().kind,
            ErrorKind::ParseError
        );
    }

    #[test]
    fn overflowing_index_fields_are_bad_requests_not_truncations() {
        // Each of these would have silently truncated through `as usize`
        // on a 32-bit target before the MAX_WIRE_INDEX bound.
        for bad in [
            format!(
                "{{\"op\":\"set_delay\",\"channel\":{},\"ps\":10}}",
                u64::MAX
            ),
            format!(
                "{{\"op\":\"set_delay\",\"channel\":{},\"ps\":10}}",
                1u64 << 40
            ),
            format!("{{\"op\":\"deskew\",\"bus\":{}}}", u64::MAX),
            format!(
                "{{\"op\":\"inject_jitter\",\"vpp_mv\":80,\"rate_gbps\":3.2,\"bits\":{}}}",
                (1u64 << 20) + 1
            ),
        ] {
            let err = Envelope::parse(&bad).unwrap_err();
            assert_eq!(err.kind, ErrorKind::BadRequest, "{bad}");
            assert!(err.detail.contains("protocol limit"), "{}", err.detail);
        }
        // The bound itself is inclusive: exactly MAX_WIRE_INDEX parses
        // (the server's own channel-count check rejects it later).
        let at_limit = format!("{{\"op\":\"deskew\",\"bus\":{MAX_WIRE_INDEX}}}");
        assert!(Envelope::parse(&at_limit).is_ok());
    }

    #[test]
    fn empty_tenant_is_the_default_tenant_and_long_tenants_are_rejected() {
        let env = Envelope::parse("{\"op\":\"stats\",\"tenant\":\"\"}").unwrap();
        assert_eq!(env.tenant, None);
        let long = format!(
            "{{\"op\":\"stats\",\"tenant\":\"{}\"}}",
            "t".repeat(MAX_TENANT_BYTES + 1)
        );
        let err = Envelope::parse(&long).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.detail.contains("byte limit"), "{}", err.detail);
    }

    #[test]
    fn backend_selectors_parse_validate_and_bound() {
        // Every valid name parses to its kind; empty and absent both
        // mean "server default".
        for kind in BackendKind::ALL {
            let line = format!("{{\"op\":\"stats\",\"backend\":\"{}\"}}", kind.name());
            let env = Envelope::parse(&line).unwrap();
            assert_eq!(env.backend, Some(kind), "{line}");
        }
        let env = Envelope::parse("{\"op\":\"stats\",\"backend\":\"\"}").unwrap();
        assert_eq!(env.backend, None, "empty selector is the default");
        let env = Envelope::parse("{\"op\":\"stats\"}").unwrap();
        assert_eq!(env.backend, None);
        // An unknown name is a bad_request that lists the valid names.
        let err = Envelope::parse("{\"op\":\"stats\",\"backend\":\"fpga\"}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(
            err.detail.contains("circuit, vernier, dll"),
            "{}",
            err.detail
        );
        // Non-string and oversized selectors are bad_requests too.
        let err = Envelope::parse("{\"op\":\"stats\",\"backend\":3}").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        let long = format!(
            "{{\"op\":\"stats\",\"backend\":\"{}\"}}",
            "b".repeat(MAX_BACKEND_BYTES + 1)
        );
        let err = Envelope::parse(&long).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.detail.contains("byte limit"), "{}", err.detail);
    }

    #[test]
    fn req_ids_are_bounded_and_empty_means_absent() {
        let env = Envelope::parse("{\"op\":\"stats\",\"req_id\":\"\"}").unwrap();
        assert_eq!(env.req_id, None, "empty key is no key");
        let env = Envelope::parse("{\"op\":\"stats\",\"req_id\":\"r-1\"}").unwrap();
        assert_eq!(env.req_id.as_deref(), Some("r-1"));
        let long = format!(
            "{{\"op\":\"stats\",\"req_id\":\"{}\"}}",
            "r".repeat(MAX_REQ_ID_BYTES + 1)
        );
        let err = Envelope::parse(&long).unwrap_err();
        assert_eq!(err.kind, ErrorKind::BadRequest);
        assert!(err.detail.contains("byte limit"), "{}", err.detail);
        assert_eq!(
            Envelope::parse("{\"op\":\"stats\",\"req_id\":9}")
                .unwrap_err()
                .kind,
            ErrorKind::BadRequest
        );
    }

    #[test]
    fn recovery_stats_round_trip_and_old_lines_default_to_zero() {
        let full = StatsReply {
            requests: 9,
            ok: 9,
            workers: 2,
            server_epoch: 3,
            banks_restored: 2,
            banks_recalibrated: 1,
            wal_records_replayed: 40,
            restore_us: 12_345,
            dedup_hits: 6,
            ..StatsReply::default()
        };
        let line = Response::Stats(full.clone()).to_value(None).render();
        let (_, back) = Response::parse(&line).unwrap();
        assert_eq!(back, Response::Stats(full), "{line}");
        // A pre-durability stats line decodes with epoch 0 and zeroed
        // recovery fields.
        let old = "{\"ok\":true,\"op\":\"stats\",\"requests\":1,\"ok_count\":1,\
                   \"parse_errors\":0,\"bad_requests\":0,\"overloaded\":0,\
                   \"deadline_exceeded\":0,\"internal_errors\":0,\"batched\":0,\
                   \"queue_depth\":0,\"workers\":1}";
        let (_, response) = Response::parse(old).unwrap();
        let Response::Stats(stats) = response else {
            panic!("expected stats, got {response:?}");
        };
        assert_eq!(stats.server_epoch, 0);
        assert_eq!(stats.banks_restored, 0);
        assert_eq!(stats.dedup_hits, 0);
    }

    #[test]
    fn unavailable_and_partial_selftest_round_trip() {
        // The quarantine error: kind + retry hint survive the wire.
        let quarantined = Response::Error(ErrorReply {
            kind: ErrorKind::Unavailable,
            detail: "channel 7 is quarantined pending recalibration".to_owned(),
            retry_after_ms: Some(120),
        });
        let line = quarantined.to_value(Some(3)).render();
        let (id, back) = Response::parse(&line).unwrap();
        assert_eq!(id, Some(3));
        assert_eq!(back, quarantined, "{line}");
        assert_eq!(
            ErrorKind::from_wire("unavailable"),
            Some(ErrorKind::Unavailable)
        );

        // A partial selftest renders the flag; a full one omits it and
        // still decodes (old clients never see an unknown field flip).
        for partial in [true, false] {
            let reply = Response::Selftest(SelftestReply {
                verdict: "healthy".to_owned(),
                summary: "calibration ok; dac sweep skipped".to_owned(),
                partial,
            });
            let line = reply.to_value(None).render();
            assert_eq!(line.contains("partial"), partial, "{line}");
            let (_, back) = Response::parse(&line).unwrap();
            assert_eq!(back, reply, "{line}");
        }
    }

    #[test]
    fn stats_without_health_fields_still_decode() {
        // A pre-health server's stats line (no unavailable/io_timeouts/
        // reaped/quarantined/... fields) must decode with zero defaults.
        let line = "{\"ok\":true,\"op\":\"stats\",\"requests\":5,\"ok_count\":5,\
                    \"parse_errors\":0,\"bad_requests\":0,\"overloaded\":0,\
                    \"deadline_exceeded\":0,\"internal_errors\":0,\"batched\":0,\
                    \"queue_depth\":0,\"workers\":2}";
        let (_, response) = Response::parse(line).unwrap();
        let Response::Stats(stats) = response else {
            panic!("expected stats, got {response:?}");
        };
        assert_eq!(stats.requests, 5);
        assert_eq!(stats.unavailable, 0);
        assert_eq!(stats.io_timeouts, 0);
        assert_eq!(stats.reaped, 0);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.unhealthy, 0);
        assert_eq!(stats.recalibrations, 0);
        assert_eq!(stats.quarantines, 0);
        // And a full modern line round-trips every new field.
        let full = StatsReply {
            unavailable: 3,
            io_timeouts: 2,
            reaped: 1,
            quarantined: 1,
            unhealthy: 2,
            recalibrations: 4,
            quarantines: 2,
            ..stats
        };
        let line = Response::Stats(full.clone()).to_value(None).render();
        let (_, back) = Response::parse(&line).unwrap();
        assert_eq!(back, Response::Stats(full), "{line}");
    }

    #[test]
    fn oversized_response_fields_are_decode_errors() {
        let line = format!(
            "{{\"ok\":true,\"op\":\"set_delay\",\"channel\":1,\"requested_ps\":10.0,\
             \"tap\":2,\"dac_code\":{},\"vctrl_mv\":900.0,\"predicted_ps\":10.0,\
             \"error_ps\":0.0,\"batched\":1}}",
            u64::MAX
        );
        let err = Response::parse(&line).unwrap_err();
        assert!(err.contains("does not fit in u32"), "{err}");
    }
}
