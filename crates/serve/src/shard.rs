//! Sharding primitives: consistent hashing, tenant quotas, and the
//! lazily-populated LRU bank registry (DESIGN.md §14).
//!
//! * [`HashRing`] routes `(tenant, channel)` to a shard by FNV-1a
//!   consistent hashing over a ring of virtual nodes, so resizing the
//!   shard count from N to N+1 remaps only ~1/(N+1) of the keys — the
//!   rest keep their queue, their batch partners, and their cache
//!   locality.
//! * [`QuotaTable`] holds one token bucket per tenant: a hot tenant
//!   that exceeds its refill rate draws `overloaded` at admission while
//!   every other tenant's bucket is untouched.
//! * [`BankRegistry`] instantiates per-tenant calibration banks lazily
//!   (single-flight per tenant, same discipline as the measurement
//!   memo) and evicts the least-recently-used bank past the cap. All
//!   banks share one model fingerprint, so eviction is cheap to undo:
//!   re-admission re-calibrates through the measurement memo instead of
//!   re-sweeping.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use vardelay_backend::{make_backend, BackendKind, BackendSentinel, DelayBackend};
use vardelay_core::config::ModelConfig;
use vardelay_core::{CalibrationTable, SentinelConfig, SentinelVerdict};
use vardelay_obs::Fingerprint;
use vardelay_runner::Runner;

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fingerprint::new().push_bytes(bytes).finish()
}

/// The lane key a tenant label hashes to (per-tenant fair-queue lane).
pub fn tenant_lane(tenant: &str) -> u64 {
    fnv1a(tenant.as_bytes())
}

/// Virtual nodes per shard. More vnodes smooth the key distribution;
/// 64 keeps the ring under a few KiB while holding the N → N+1 key
/// movement near the ideal 1/(N+1).
const VNODES_PER_SHARD: usize = 64;

/// A consistent-hash ring over shard indices.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(ring position, shard index)`, sorted by position.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// A ring over `shards` shards (clamped to ≥ 1).
    pub fn new(shards: usize) -> HashRing {
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES_PER_SHARD);
        for shard in 0..shards {
            for replica in 0..VNODES_PER_SHARD {
                let label = format!("shard-{shard}-vnode-{replica}");
                points.push((fnv1a(label.as_bytes()), shard));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|p| p.0);
        HashRing { points }
    }

    /// Routes a `(tenant, channel)` pair to a shard: the first vnode at
    /// or after the key's ring position, wrapping at the top.
    pub fn route(&self, tenant: &str, channel: usize) -> usize {
        let key = Self::route_key(tenant, channel);
        let at = self.points.partition_point(|&(pos, _)| pos < key);
        self.points[at % self.points.len()].1
    }

    /// The ring position of a `(tenant, channel)` pair.
    fn route_key(tenant: &str, channel: usize) -> u64 {
        // A separator byte keeps ("ab", 1) and ("a", ...) distinct, then
        // the channel index is folded in byte by byte.
        Fingerprint::new()
            .push_bytes(tenant.as_bytes())
            .push_bytes(b"/")
            .push_usize(channel)
            .finish()
    }
}

/// Per-tenant token buckets: `rate` tokens per second refill up to
/// `burst`, one token per admitted request. `rate: None` disables
/// quotas entirely (the default — single-tenant deployments keep their
/// existing behavior).
#[derive(Debug)]
pub struct QuotaTable {
    rate: Option<f64>,
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

impl QuotaTable {
    /// A table refilling `rate` tokens/second (None = unlimited) with a
    /// `burst`-token cap.
    pub fn new(rate: Option<f64>, burst: f64) -> QuotaTable {
        QuotaTable {
            rate: rate.filter(|r| r.is_finite() && *r > 0.0),
            burst: burst.max(1.0),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Tries to take one token from `tenant`'s bucket. `true` admits;
    /// `false` means the tenant is over quota and should be answered
    /// `overloaded` without touching the queues.
    pub fn admit(&self, tenant: &str) -> bool {
        let Some(rate) = self.rate else {
            return true;
        };
        let now = Instant::now();
        let mut buckets = self.buckets.lock().unwrap_or_else(|e| e.into_inner());
        let bucket = buckets.entry(tenant.to_owned()).or_insert(Bucket {
            tokens: self.burst,
            last: now,
        });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// The identity of one calibration bank: a tenant label plus the
/// [`BackendKind`] serving it (DESIGN.md §17).
///
/// The server-default backend's banks carry the bare tenant label
/// everywhere the pre-backend code did (persistence paths, health keys,
/// WAL records), so existing deployments route and restore unchanged; a
/// wire-selected non-default backend gets its own bank under the same
/// tenant — two hardware families never share a calibration table.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BankId {
    tenant: String,
    kind: BackendKind,
}

impl BankId {
    /// A bank identity for `tenant` served by `kind`.
    pub fn new(tenant: impl Into<String>, kind: BackendKind) -> BankId {
        BankId {
            tenant: tenant.into(),
            kind,
        }
    }

    /// The tenant label (empty = the default tenant).
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The backend family serving this bank.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }
}

/// Durability callbacks the server installs on the registry
/// (DESIGN.md §16). The registry itself stays storage-agnostic: it asks
/// `restore` for a trusted table before calibrating and reports every
/// finished build through `built`. Both default to no-ops — a server
/// without a state dir installs nothing. Eviction calls no hook: a
/// bank's snapshots are already current, because the server rewrites a
/// channel's snapshot whenever its table or health state changes.
pub trait BankHooks: Send + Sync {
    /// A trusted persisted table for `(bank, channel)`, or `None` to
    /// calibrate fresh. Implementations own corruption/fingerprint
    /// checks; a returned table still faces the sentinel verification
    /// in [`TenantBank`]'s build before it is served.
    fn restore(&self, _id: &BankId, _channel: usize) -> Option<CalibrationTable> {
        None
    }

    /// Called once per completed bank build, outside the registry lock.
    /// `restored[ch]` is `true` when channel `ch` was answered from a
    /// snapshot rather than freshly calibrated.
    fn built(&self, _id: &BankId, _bank: &TenantBank, _restored: &[bool]) {}
}

/// One tenant's calibrated channel bank.
pub struct TenantBank {
    /// Per-channel delay backends, each behind its own lock so
    /// different channels solve concurrently.
    pub channels: Vec<Mutex<Box<dyn DelayBackend>>>,
    /// The hardware family every channel in this bank belongs to.
    pub kind: BackendKind,
}

impl TenantBank {
    /// Builds the bank, answering each channel from `hooks.restore`
    /// where possible. A restored table is trusted only after one
    /// sentinel probe sweep against the live backend agrees with it —
    /// a stale or mismatched table falls back to a fresh calibration
    /// rather than ever serving a wrong answer.
    fn build(
        model: &ModelConfig,
        channels: usize,
        seed: u64,
        runner: Runner,
        hooks: Option<&Arc<dyn BankHooks>>,
        id: &BankId,
    ) -> (TenantBank, Vec<bool>) {
        // Phase 1, fanned out per channel through the runner: build the
        // circuit and attempt the snapshot restore. A restored table is
        // trusted after one sentinel probe: the snapshot digest already
        // rules out bit-rot, the probe rules out a *stale* table (a
        // drifted circuit moves every grid point, so one seeded point
        // sees it), and the health supervisor re-sweeps every resident
        // channel at full probe depth within one period of boot. Every
        // channel of every bank is the same circuit, so the probe seed
        // is the bank seed, shared by all channels: per-channel seeds
        // would add distinct points to measure, not detection power.
        // The concurrent probes of the one point single-flight through
        // the measurement memo, so a warm boot measures one point per
        // process, and a table this process already measured costs
        // nothing.
        let boot_verify = SentinelConfig {
            probes: 1,
            ..SentinelConfig::default()
        };
        let verified: Vec<(Box<dyn DelayBackend>, bool)> = runner.run(channels, |ch| {
            let mut backend = make_backend(id.kind(), model, seed);
            let mut trusted = false;
            if let Some(table) = hooks.and_then(|h| h.restore(id, ch)) {
                backend.install_calibration(table);
                trusted = BackendSentinel::from_backend(backend.as_ref(), boot_verify)
                    .map(|sentinel| sentinel.run(seed).verdict() == SentinelVerdict::Healthy)
                    .unwrap_or(false);
                if trusted {
                    vardelay_obs::counter("recovery.channels_restored").add(1);
                } else {
                    vardelay_obs::counter("recovery.channels_rejected").add(1);
                }
            }
            (backend, trusted)
        });
        // Phase 2, sequential: calibrate whatever the snapshots did not
        // cover. Every bank shares the quiet-model fingerprint, so only
        // the process's very first calibration pays a full sweep (which
        // itself parallelizes through the same runner); every later
        // bank (lazy tenants, LRU re-admissions, rejected snapshots) is
        // served the byte-identical table from the measurement memo.
        let mut bank = Vec::with_capacity(channels);
        let mut restored = vec![false; channels];
        for (ch, (mut backend, trusted)) in verified.into_iter().enumerate() {
            if !trusted {
                backend.calibrate_with(runner);
            }
            restored[ch] = trusted;
            bank.push(Mutex::new(backend));
        }
        (
            TenantBank {
                channels: bank,
                kind: id.kind(),
            },
            restored,
        )
    }
}

impl std::fmt::Debug for TenantBank {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TenantBank")
            .field("channels", &self.channels.len())
            .field("kind", &self.kind)
            .finish()
    }
}

/// Lazily-populated, LRU-evicted map of [`BankId`] → calibrated bank.
///
/// Each slot is an `Arc<OnceLock<..>>` so concurrent first requests for
/// the same bank single-flight the calibration (the builder runs
/// outside the registry lock; losers of the race block on the
/// `OnceLock`, not on the whole registry).
pub struct BankRegistry {
    model: ModelConfig,
    channels: usize,
    seed: u64,
    cap: usize,
    hooks: OnceLock<Arc<dyn BankHooks>>,
    inner: Mutex<RegistryInner>,
}

struct RegistryInner {
    slots: HashMap<BankId, Arc<OnceLock<Arc<TenantBank>>>>,
    /// Least-recently-used first. Invariant: same keys as `slots`.
    lru: VecDeque<BankId>,
}

impl BankRegistry {
    /// A registry holding at most `cap` resident banks (clamped ≥ 1).
    pub fn new(model: ModelConfig, channels: usize, seed: u64, cap: usize) -> BankRegistry {
        BankRegistry {
            model,
            channels,
            seed,
            cap: cap.max(1),
            hooks: OnceLock::new(),
            inner: Mutex::new(RegistryInner {
                slots: HashMap::new(),
                lru: VecDeque::new(),
            }),
        }
    }

    /// Installs the durability hooks. First install wins; must happen
    /// before any bank is built (the server wires this up before it
    /// starts accepting).
    pub fn set_hooks(&self, hooks: Arc<dyn BankHooks>) {
        let _ = self.hooks.set(hooks);
    }

    /// Banks currently resident.
    pub fn resident(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .len()
    }

    /// The bank for `id`, calibrating it on first touch and refreshing
    /// its LRU position. Eviction only ever drops the registry's
    /// reference — in-flight requests holding the `Arc` finish on the
    /// evicted bank safely.
    pub fn get(&self, id: &BankId, runner: Runner) -> Arc<TenantBank> {
        let slot = {
            let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
            inner.lru.retain(|t| t != id);
            let slot = match inner.slots.get(id) {
                Some(slot) => Arc::clone(slot),
                None => {
                    let slot = Arc::new(OnceLock::new());
                    inner.slots.insert(id.clone(), Arc::clone(&slot));
                    slot
                }
            };
            inner.lru.push_back(id.clone());
            while inner.lru.len() > self.cap {
                if let Some(cold) = inner.lru.pop_front() {
                    inner.slots.remove(&cold);
                    vardelay_obs::counter("serve.bank_evictions").add(1);
                }
            }
            slot
        };
        Arc::clone(slot.get_or_init(|| {
            vardelay_obs::counter("serve.bank_builds").add(1);
            let (bank, restored) = TenantBank::build(
                &self.model,
                self.channels,
                self.seed,
                runner,
                self.hooks.get(),
                id,
            );
            let bank = Arc::new(bank);
            if let Some(hooks) = self.hooks.get() {
                hooks.built(id, &bank, &restored);
            }
            bank
        }))
    }

    /// The bank for `id` if it is already resident *and* built — no
    /// calibration, no LRU refresh. The health supervisor and drift
    /// injection use this so observation never changes eviction order.
    pub fn peek(&self, id: &BankId) -> Option<Arc<TenantBank>> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.slots.get(id)?.get().cloned()
    }

    /// Every resident, fully-built bank with its identity, in LRU
    /// order (coldest first). Slots still mid-build are skipped — the
    /// supervisor has nothing to probe there yet.
    pub fn snapshot(&self) -> Vec<(BankId, Arc<TenantBank>)> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .lru
            .iter()
            .filter_map(|id| {
                let bank = inner.slots.get(id)?.get()?;
                Some((id.clone(), Arc::clone(bank)))
            })
            .collect()
    }
}

impl std::fmt::Debug for BankRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BankRegistry")
            .field("channels", &self.channels)
            .field("cap", &self.cap)
            .field("resident", &self.resident())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_deterministic_and_covers_every_shard() {
        let ring = HashRing::new(4);
        let again = HashRing::new(4);
        let mut hit = [false; 4];
        for t in 0..64 {
            let tenant = format!("t{t:02}");
            for ch in 0..8 {
                let shard = ring.route(&tenant, ch);
                assert_eq!(shard, again.route(&tenant, ch));
                assert!(shard < 4);
                hit[shard] = true;
            }
        }
        assert!(hit.iter().all(|&h| h), "512 keys must reach all 4 shards");
        // Lanes and routes pinned bit for bit: a persisted deployment's
        // tenants must keep their lane and shard across releases.
        assert_eq!(tenant_lane("acme"), 0x0724_d383_f4f6_de0f);
        let acme: Vec<usize> = (0..8).map(|ch| ring.route("acme", ch)).collect();
        assert_eq!(acme, [0, 0, 1, 2, 2, 1, 0, 3]);
    }

    #[test]
    fn growing_the_ring_by_one_moves_few_keys() {
        // The consistency property the ISSUE pins: N → N+1 keeps ≥ 90 %
        // of keys on their shard (ideal movement is 1/(N+1) ≈ 5.9 %).
        let before = HashRing::new(16);
        let after = HashRing::new(17);
        let mut stable = 0usize;
        let mut total = 0usize;
        for t in 0..64 {
            let tenant = format!("tenant-{t}");
            for ch in 0..8 {
                total += 1;
                if before.route(&tenant, ch) == after.route(&tenant, ch) {
                    stable += 1;
                }
            }
        }
        assert!(
            stable * 10 >= total * 9,
            "only {stable}/{total} keys stayed put"
        );
    }

    #[test]
    fn quota_buckets_are_per_tenant() {
        let quota = QuotaTable::new(Some(1.0), 3.0);
        // Tenant a burns its burst; tenant b's bucket is untouched.
        assert!(quota.admit("a"));
        assert!(quota.admit("a"));
        assert!(quota.admit("a"));
        assert!(!quota.admit("a"));
        assert!(quota.admit("b"));
        // No rate → unlimited.
        let open = QuotaTable::new(None, 1.0);
        for _ in 0..100 {
            assert!(open.admit("a"));
        }
    }

    fn circuit(tenant: &str) -> BankId {
        BankId::new(tenant, BackendKind::Circuit)
    }

    #[test]
    fn the_registry_evicts_least_recently_used_banks() {
        let registry = BankRegistry::new(ModelConfig::paper_prototype(), 1, 0x5e7e, 2);
        let runner = Runner::serial();
        let a = registry.get(&circuit("a"), runner);
        let _b = registry.get(&circuit("b"), runner);
        assert_eq!(registry.resident(), 2);
        // Touch a so b is now the LRU; admitting c evicts b.
        let a_again = registry.get(&circuit("a"), runner);
        assert!(Arc::ptr_eq(&a, &a_again), "a single-flights to one bank");
        let _c = registry.get(&circuit("c"), runner);
        assert_eq!(registry.resident(), 2);
        // b was evicted: getting it again builds a fresh bank, and the
        // registry still holds only `cap` banks.
        let _b2 = registry.get(&circuit("b"), runner);
        assert_eq!(registry.resident(), 2);
    }

    #[test]
    fn one_tenant_two_backends_is_two_distinct_banks() {
        let registry = BankRegistry::new(ModelConfig::paper_prototype(), 1, 0x5e7e, 4);
        let runner = Runner::serial();
        let circuit_bank = registry.get(&BankId::new("a", BackendKind::Circuit), runner);
        let vernier_bank = registry.get(&BankId::new("a", BackendKind::Vernier), runner);
        assert!(
            !Arc::ptr_eq(&circuit_bank, &vernier_bank),
            "different backend kinds must never share a bank"
        );
        assert_eq!(registry.resident(), 2);
        assert_eq!(circuit_bank.kind, BackendKind::Circuit);
        assert_eq!(vernier_bank.kind, BackendKind::Vernier);
        assert_eq!(
            circuit_bank.channels[0].lock().unwrap().kind(),
            BackendKind::Circuit
        );
        assert_eq!(
            vernier_bank.channels[0].lock().unwrap().kind(),
            BackendKind::Vernier
        );
    }

    #[test]
    fn hooks_observe_restores_and_builds() {
        #[derive(Default)]
        struct Recorder {
            table: Mutex<Option<CalibrationTable>>,
            events: Mutex<Vec<String>>,
        }
        impl BankHooks for Recorder {
            fn restore(&self, id: &BankId, channel: usize) -> Option<CalibrationTable> {
                self.events
                    .lock()
                    .unwrap()
                    .push(format!("restore {}/{channel}", id.tenant()));
                if id.tenant() == "warm" {
                    self.table.lock().unwrap().clone()
                } else {
                    None
                }
            }
            fn built(&self, id: &BankId, _bank: &TenantBank, restored: &[bool]) {
                self.events
                    .lock()
                    .unwrap()
                    .push(format!("built {} restored={restored:?}", id.tenant()));
            }
        }

        let registry = BankRegistry::new(ModelConfig::paper_prototype(), 1, 0x5e7e, 1);
        let hooks = Arc::new(Recorder::default());
        registry.set_hooks(Arc::clone(&hooks) as Arc<dyn BankHooks>);
        let runner = Runner::serial();
        // Cold build: restore declines, the bank calibrates fresh.
        let cold = registry.get(&circuit("cold"), runner);
        let table = cold.channels[0]
            .lock()
            .unwrap()
            .calibration()
            .unwrap()
            .clone();
        *hooks.table.lock().unwrap() = Some(table);
        // Admitting "warm" evicts "cold" (cap 1) and restores from the
        // hook's table, which the sentinel verifies as healthy.
        let warm = registry.get(&circuit("warm"), runner);
        let restored_table = warm.channels[0]
            .lock()
            .unwrap()
            .calibration()
            .unwrap()
            .clone();
        assert_eq!(
            restored_table.to_snapshot(),
            hooks.table.lock().unwrap().as_ref().unwrap().to_snapshot(),
            "restored table is the persisted one, bit-exact"
        );
        let events = hooks.events.lock().unwrap().clone();
        assert_eq!(
            events,
            vec![
                "restore cold/0".to_owned(),
                "built cold restored=[false]".to_owned(),
                "restore warm/0".to_owned(),
                "built warm restored=[true]".to_owned(),
            ]
        );
    }

    #[test]
    fn peek_and_snapshot_observe_without_perturbing_lru() {
        let registry = BankRegistry::new(ModelConfig::paper_prototype(), 1, 0x5e7e, 2);
        let runner = Runner::serial();
        assert!(
            registry.peek(&circuit("a")).is_none(),
            "peek must never build"
        );
        let a = registry.get(&circuit("a"), runner);
        let _b = registry.get(&circuit("b"), runner);
        // Peeking a does NOT refresh it: a is still the LRU victim.
        assert!(Arc::ptr_eq(&registry.peek(&circuit("a")).unwrap(), &a));
        let snap = registry.snapshot();
        assert_eq!(
            snap.iter().map(|(id, _)| id.tenant()).collect::<Vec<_>>(),
            ["a", "b"],
            "snapshot is coldest-first"
        );
        let _c = registry.get(&circuit("c"), runner);
        assert!(
            registry.peek(&circuit("a")).is_none(),
            "a should have been evicted"
        );
        assert!(registry.peek(&circuit("b")).is_some());
    }
}
