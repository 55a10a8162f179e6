//! The idempotency window behind client `req_id` retries (DESIGN.md §16).
//!
//! A client that times out on a `set_delay` cannot know whether the
//! server applied it. Tagging the request with a `req_id` (≤64 bytes,
//! client-chosen) makes the retry safe: the first execution's response
//! is cached here, and any later request carrying the same
//! `(tenant, req_id)` — on *any* connection — replays the cached
//! response instead of re-executing the solve. The window is bounded
//! (the oldest entry per tenant falls out first) and is re-seeded from
//! the WAL on warm restart, so a retry that straddles a crash still
//! deduplicates.
//!
//! Two deliberate exclusions: `overloaded` sheds and `deadline_exceeded`
//! failures are never cached — those mean "not executed" (or "gave up"),
//! and a retry *should* re-execute. The lookup runs before admission
//! control for the same reason in reverse: a retry of work that already
//! happened must not be shed by a momentarily full queue.
//!
//! Best-effort by design: two copies of the same `req_id` racing
//! through different workers simultaneously can both execute (the
//! window is written at commit time, not reserved at admission).
//! `set_delay` is idempotent at the hardware level, so the race costs a
//! duplicate solve, never a wrong state.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::protocol::Response;

/// Per-tenant bounded response cache keyed by `req_id`.
#[derive(Debug)]
pub struct DedupTable {
    cap: usize,
    hits: AtomicU64,
    tenants: Mutex<HashMap<String, Window>>,
}

#[derive(Debug, Default)]
struct Window {
    responses: HashMap<String, Response>,
    order: VecDeque<String>,
}

impl DedupTable {
    /// A table keeping at most `cap` responses per tenant (clamped ≥ 1).
    pub fn new(cap: usize) -> DedupTable {
        DedupTable {
            cap: cap.max(1),
            hits: AtomicU64::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// The cached response for `(tenant, req_id)`, counting a hit when
    /// one exists.
    pub fn lookup(&self, tenant: &str, req_id: &str) -> Option<Response> {
        let tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let cached = tenants.get(tenant)?.responses.get(req_id).cloned();
        if cached.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        cached
    }

    /// Caches `response` for `(tenant, req_id)`, evicting the tenant's
    /// oldest entry past the cap. Re-recording an existing key
    /// overwrites in place without consuming a window slot (WAL replay
    /// can legitimately see the same key twice after a mid-compaction
    /// crash).
    pub fn record(&self, tenant: &str, req_id: &str, response: &Response) {
        let mut tenants = self.tenants.lock().unwrap_or_else(|e| e.into_inner());
        let window = tenants.entry(tenant.to_owned()).or_default();
        if window
            .responses
            .insert(req_id.to_owned(), response.clone())
            .is_none()
        {
            window.order.push_back(req_id.to_owned());
            while window.order.len() > self.cap {
                if let Some(oldest) = window.order.pop_front() {
                    window.responses.remove(&oldest);
                }
            }
        }
    }

    /// Retries answered from the cache since start.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ErrorKind, ErrorReply};

    fn error_reply(detail: &str) -> Response {
        Response::Error(ErrorReply {
            kind: ErrorKind::BadRequest,
            detail: detail.to_owned(),
            retry_after_ms: None,
        })
    }

    #[test]
    fn lookups_are_per_tenant_and_count_hits() {
        let table = DedupTable::new(4);
        table.record("a", "r1", &error_reply("first"));
        assert!(table.lookup("b", "r1").is_none(), "tenants are isolated");
        assert_eq!(table.hits(), 0, "misses are not hits");
        let hit = table.lookup("a", "r1").expect("cached");
        assert!(matches!(hit, Response::Error(e) if e.detail == "first"));
        assert_eq!(table.hits(), 1);
    }

    #[test]
    fn the_window_is_bounded_oldest_first() {
        let table = DedupTable::new(2);
        table.record("t", "r1", &error_reply("1"));
        table.record("t", "r2", &error_reply("2"));
        table.record("t", "r3", &error_reply("3"));
        assert!(table.lookup("t", "r1").is_none(), "oldest evicted");
        assert!(table.lookup("t", "r2").is_some());
        assert!(table.lookup("t", "r3").is_some());
        // Overwriting an existing key does not consume a slot.
        table.record("t", "r3", &error_reply("3b"));
        assert!(table.lookup("t", "r2").is_some());
    }
}
