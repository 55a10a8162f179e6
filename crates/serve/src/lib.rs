//! `vardelay-serve`: the calibrated delay line as a networked,
//! multi-tenant service.
//!
//! The paper's circuit exists to be *driven* — an ATE deskew loop
//! programs `Vctrl`/tap selects per channel, a jitter rig streams
//! profile updates — so this crate puts a TCP front end on the
//! reproduction: line-delimited JSON requests (`set_delay`, `deskew`,
//! `inject_jitter`, `selftest`, `stats`, `shutdown`) answered from a
//! worker pool over the shared, memo-calibrated
//! channel bank. DESIGN.md §12 specifies the protocol grammar and the
//! three load-shedding behaviors this crate exists to demonstrate:
//!
//! * **batching** — same-channel `set_delay` requests inside one batch
//!   window are answered from a single solve (last write wins);
//! * **backpressure** — a bounded admission queue answers `overloaded`
//!   with a retry hint instead of stalling the socket;
//! * **graceful drain** — shutdown stops accepting, finishes every
//!   admitted request, and reports final counters.
//!
//! Since PR 7 the service is *sharded* (DESIGN.md §14): requests are
//! routed by consistent hashing over `(tenant, channel)` to independent
//! [`shard`]s, each owning a worker pool and a per-tenant round-robin
//! [`queue::FairQueue`]; per-tenant token buckets shed a hot tenant at
//! admission, and per-tenant calibration banks are instantiated lazily
//! with LRU eviction of cold tenants.
//!
//! Per-request budgets ride on [`vardelay_runner::Deadline`]; an
//! exhausted budget is a `deadline_exceeded` *response*, never a
//! dropped connection. Worker panics (including seeded
//! [`vardelay_faults::RequestChaos`] kills) are contained by
//! `catch_unwind` and surface as `internal` responses while the worker
//! keeps serving — the fault-isolation property the chaos gate scores.
//!
//! Since PR 8 the service also *heals itself* (DESIGN.md §15): a
//! per-shard [`health`] supervisor runs drift sentinels over resident
//! banks, rebuilds stale calibration tables in the background (requests
//! keep answering from the old table until the atomic swap), and
//! quarantines grossly-drifted channels behind a structured
//! `unavailable` response until they re-earn admission. Per-connection
//! IO deadlines — a write deadline on every reply and a partial-line
//! deadline each connection's reader enforces — keep misbehaving
//! sockets (slow-loris drips, stalled readers) from ever pinning a
//! worker.
//!
//! Since PR 9 the service is *durable* (DESIGN.md §16): with
//! `VARDELAY_SERVE_STATE_DIR` set, a channel's calibration table and
//! health state are saved to a per-tenant snapshot store ([`persist`])
//! whenever either changes, request effects flow through a
//! digest-checked write-ahead log ([`wal`]) that compaction truncates,
//! and a restarted server warm-starts: it restores every snapshot whose
//! fingerprint matches the live circuit, checks each with one sentinel
//! probe at a point every channel shares, replays the WAL, and bumps a
//! monotonic `server_epoch` stamped into every response. Client retries
//! carrying a `req_id` are deduplicated through a bounded per-tenant
//! window ([`dedup`]) that survives the restart via the WAL.
//!
//! Since PR 10 the service is *backend-pluggable* (DESIGN.md §17):
//! every bank channel is a `dyn` [`vardelay_backend::DelayBackend`], so
//! the same wire protocol drives the paper's VGA+tap circuit, a Vernier
//! carry-chain pair, or a DLL phase interpolator. The server default
//! comes from `VARDELAY_SERVE_BACKEND`; a request may override it with
//! a `backend` field, which selects a separate per-`(tenant, backend)`
//! bank ([`shard::BankId`]) — two hardware families never share a
//! calibration table. The default backend's name is folded into the
//! snapshot fingerprint, so flipping it across a restart forces a
//! recalibration instead of warm-starting from the wrong family's
//! tables; non-default banks are ephemeral by design.
//!
//! Everything here is std-only, like the rest of the workspace.

#![warn(missing_docs)]

pub mod client;
pub mod dedup;
pub mod health;
pub mod persist;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod shard;
pub mod wal;

pub use client::Client;
pub use dedup::DedupTable;
pub use health::{ChannelState, HealthAction, HealthTable};
pub use persist::{ChannelSnapshot, SnapshotError, SnapshotStore};
pub use protocol::{
    DelayReply, DeskewReply, Envelope, ErrorKind, ErrorReply, JitterReply, Request, Response,
    SelftestReply, StatsReply, MAX_BACKEND_BYTES, MAX_LINE_BYTES, MAX_REQ_ID_BYTES,
    MAX_TENANT_BYTES, MAX_WIRE_INDEX,
};
pub use queue::FairQueue;
pub use server::{serve, DrainReport, ServeConfig, ServerHandle, SERVE_SEED};
pub use shard::{BankHooks, BankId, BankRegistry, HashRing, QuotaTable, TenantBank};
pub use wal::{Wal, WalRecord};
