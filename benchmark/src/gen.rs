//! Seeded input generation. Everything the program receives is built here
//! from `--seed`; the same seed gives byte-identical request lines and
//! arrival schedules.

/// Channels each tenant bank exposes (the server default).
pub const CHANNELS: usize = 8;
/// Points in the `set_delay` target grid.
pub const GRID_POINTS: usize = 16;
/// Grid step: 16 × 7.5 ps spans the coarse taps and most of the fine line.
pub const GRID_STEP_PS: f64 = 7.5;

/// The `k`-th grid target, picoseconds.
pub fn grid_ps(k: usize) -> f64 {
    k as f64 * GRID_STEP_PS
}

/// SplitMix64: a small, fast generator with a fixed, documented output
/// sequence. The benchmark keeps its own so a change to the program's RNG
/// cannot change the benchmark's inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// A sub-seed for one purpose, so adding a draw for one input never
/// shifts another input's stream.
pub fn sub_seed(seed: u64, purpose: u64) -> u64 {
    SplitMix64::new(seed ^ purpose.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Due times, in nanoseconds from the start of the phase, of `count`
/// Poisson arrivals at `rate_per_s`. The count is fixed and the length
/// follows from the draws, so the sample count, and with it the reported
/// tail percentile, never depends on the seed.
pub fn poisson_schedule(seed: u64, rate_per_s: f64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let due = t;
            t += -(1.0 - rng.next_f64()).ln() / rate_per_s;
            (due * 1e9) as u64
        })
        .collect()
}

/// One generated `set_delay`.
#[derive(Debug, Clone, PartialEq)]
pub struct SetDelay {
    /// Tenant index (`None` = the default tenant).
    pub tenant: Option<usize>,
    /// Channel.
    pub channel: usize,
    /// Grid index of the target.
    pub grid: usize,
    /// Idempotency key, if the request carries one.
    pub req_id: Option<String>,
    /// For a retry: the index of the original request it repeats.
    pub retry_of: Option<usize>,
}

impl SetDelay {
    /// The tenant label on the wire (`""` for the default tenant).
    pub fn tenant_label(&self) -> String {
        self.tenant.map(|t| format!("t{t}")).unwrap_or_default()
    }

    /// The target, picoseconds.
    pub fn ps(&self) -> f64 {
        grid_ps(self.grid)
    }

    /// The request line, newline included, hand-written in the wire
    /// format so that the inputs do not depend on the program's encoder.
    pub fn line(&self, id: u64) -> String {
        let mut line = format!("{{\"op\":\"set_delay\",\"id\":{id}");
        if let Some(t) = self.tenant {
            line.push_str(&format!(",\"tenant\":\"t{t}\""));
        }
        if let Some(r) = &self.req_id {
            line.push_str(&format!(",\"req_id\":\"{r}\""));
        }
        line.push_str(&format!(
            ",\"channel\":{},\"ps\":{}}}\n",
            self.channel,
            self.ps()
        ));
        line
    }
}

/// `count` requests on the default tenant over every channel and grid
/// point (the `steady` mix).
pub fn steady_mix(seed: u64, count: usize) -> Vec<SetDelay> {
    let mut rng = SplitMix64::new(seed);
    (0..count)
        .map(|_| SetDelay {
            tenant: None,
            channel: rng.below(CHANNELS),
            grid: rng.below(GRID_POINTS),
            req_id: None,
            retry_of: None,
        })
        .collect()
}

/// Retries are drawn from originals this many slots back, so at 50 req/s
/// the original was sent 0.5–1 s earlier and its reply has long arrived.
const RETRY_LAG: (usize, usize) = (25, 50);

/// Every this many bank-touching requests, one goes to a tenant whose
/// bank is not resident.
const MISS_EVERY: usize = 5;

/// `count` keyed requests over `tenants` tenants on a server holding
/// `resident` banks. The first `retries_before` requests include a
/// `retry_share` of retries (same tenant, body and `req_id` as an earlier
/// request, answered from the idempotency window without touching a
/// bank). Keys carry `tag`.
///
/// Tenants are not drawn independently: the generator follows the
/// server's LRU bank cache and sends exactly every fifth bank-touching
/// request to a tenant it predicts is evicted, the others to resident
/// tenants. That is the share of rebuilds a uniform draw over 10 tenants
/// and 8 banks gives on average (20 %), without its seed-to-seed spread,
/// which at a few hundred requests moved throughput by ±15 %. The
/// prediction starts from the tenants in index order, the order the
/// restart probes touch them.
pub fn churn_mix(
    seed: u64,
    count: usize,
    tenants: usize,
    resident: usize,
    retry_share: f64,
    retries_before: usize,
    tag: &str,
) -> Vec<SetDelay> {
    let mut rng = SplitMix64::new(seed);
    // Least recently used first.
    let mut lru: Vec<usize> = (tenants.saturating_sub(resident)..tenants).collect();
    let mut touches = 0usize;
    let mut out: Vec<SetDelay> = Vec::with_capacity(count);
    for i in 0..count {
        let retry = i >= RETRY_LAG.1 && i < retries_before && rng.next_f64() < retry_share;
        if retry {
            let lag = RETRY_LAG.0 + rng.below(RETRY_LAG.1 - RETRY_LAG.0 + 1);
            let mut original = i - lag;
            if let Some(first) = out[original].retry_of {
                original = first;
            }
            out.push(SetDelay {
                retry_of: Some(original),
                ..out[original].clone()
            });
            continue;
        }
        let cold: Vec<usize> = (0..tenants).filter(|t| !lru.contains(t)).collect();
        let tenant = if touches % MISS_EVERY == MISS_EVERY - 1 && !cold.is_empty() {
            cold[rng.below(cold.len())]
        } else {
            lru[rng.below(lru.len())]
        };
        lru.retain(|&t| t != tenant);
        lru.push(tenant);
        if lru.len() > resident {
            lru.remove(0);
        }
        touches += 1;
        out.push(SetDelay {
            tenant: Some(tenant),
            channel: rng.below(CHANNELS),
            grid: rng.below(GRID_POINTS),
            req_id: Some(format!("{tag}-{seed:x}-{i}")),
            retry_of: None,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_schedule_is_deterministic() {
        let a = poisson_schedule(7, 4000.0, 5000);
        assert_eq!(a, poisson_schedule(7, 4000.0, 5000));
        assert_ne!(a, poisson_schedule(8, 4000.0, 5000));
        assert_eq!(a.len(), 5000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // 5000 arrivals at 4000/s take ~1.25 s.
        let span_s = *a.last().unwrap() as f64 / 1e9;
        assert!((1.1..1.4).contains(&span_s), "span {span_s} s");
    }

    #[test]
    fn churn_misses_every_fifth_bank_touch() {
        let mix = churn_mix(9, 1000, 10, 8, 0.1, 1000, "x");
        let mut lru: Vec<usize> = (2..10).collect();
        let mut misses = 0;
        let mut touches = 0;
        let mut seen = [0usize; 10];
        for r in mix.iter().filter(|r| r.retry_of.is_none()) {
            let t = r.tenant.unwrap();
            seen[t] += 1;
            if !lru.contains(&t) {
                misses += 1;
            }
            lru.retain(|&x| x != t);
            lru.push(t);
            if lru.len() > 8 {
                lru.remove(0);
            }
            touches += 1;
        }
        assert_eq!(misses, touches / 5, "{misses} misses in {touches} touches");
        assert!(
            seen.iter().all(|&n| n > touches / 20),
            "every tenant is used: {seen:?}"
        );
    }

    #[test]
    fn mixes_are_deterministic_and_retries_repeat_their_original() {
        assert_eq!(steady_mix(3, 100), steady_mix(3, 100));
        let mix = churn_mix(3, 2000, 10, 8, 0.1, 1500, "open");
        assert_eq!(mix, churn_mix(3, 2000, 10, 8, 0.1, 1500, "open"));
        assert!(mix[1500..].iter().all(|r| r.retry_of.is_none()));
        let retries: Vec<_> = mix
            .iter()
            .enumerate()
            .filter(|(_, r)| r.retry_of.is_some())
            .collect();
        assert!(
            (100..200).contains(&retries.len()),
            "{} retries",
            retries.len()
        );
        for (i, r) in retries {
            let o = r.retry_of.unwrap();
            assert!(i - o >= RETRY_LAG.0, "retry {i} of {o} is too close");
            assert!(mix[o].retry_of.is_none());
            assert_eq!(r.line(1), mix[o].line(1), "same tenant, body and key");
        }
        assert_eq!(
            mix[0].line(9),
            format!(
                "{{\"op\":\"set_delay\",\"id\":9,\"tenant\":\"{}\",\"req_id\":\"open-3-0\",\"channel\":{},\"ps\":{}}}\n",
                mix[0].tenant_label(),
                mix[0].channel,
                mix[0].ps()
            )
        );
    }
}
