//! Channel health: the sentinel-driven state machine behind the serve
//! layer's self-healing loop (DESIGN.md §15).
//!
//! The per-shard health supervisor feeds one [`SentinelVerdict`] per
//! resident channel per round into a [`HealthTable`]; the table walks
//! each channel through
//!
//! ```text
//! Healthy ── Drifting ──▶ Probation ── healthy ──▶ Healthy
//!    │                        │
//!    └─────── Broken ─────────┴──▶ Quarantined ── healthy ──▶ Recovering
//!                                       ▲                         │
//!                                       └──── any regression ─────┤
//!                                                                 ▼
//!                                        K consecutive healthy ▶ Healthy
//! ```
//!
//! and tells the supervisor what to do next ([`HealthAction`]). The
//! request path only ever asks one cheap question —
//! [`HealthTable::admits`] — under a short mutex; everything expensive
//! (probing, recalibration) happens on the supervisor thread.
//!
//! Probation keeps serving: a Drifting table is stale, not wrong, so
//! in-flight requests keep answering from it while the replacement is
//! built. Quarantine stops `set_delay` (structured `unavailable` with a
//! retry hint); a recovered channel must post `recovery_rounds`
//! consecutive healthy sentinel rounds before re-admission, so a
//! channel oscillating around the broken threshold cannot flap in and
//! out of service.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vardelay_core::SentinelVerdict;

/// Where a channel sits in the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelState {
    /// Serving normally.
    Healthy,
    /// Sentinel saw drift; still serving from the stale table while a
    /// background recalibration runs.
    Probation,
    /// Sentinel saw gross error; `set_delay` answers `unavailable`
    /// until recalibration takes and probation clears.
    Quarantined,
    /// Recalibrated after quarantine; still rejecting until the counted
    /// number of consecutive healthy rounds is reached.
    Recovering {
        /// Consecutive healthy sentinel rounds posted so far.
        rounds: u32,
    },
}

impl ChannelState {
    /// The state's durable wire form, as written into calibration
    /// snapshots (DESIGN.md §16): `healthy` / `probation` /
    /// `quarantined` / `recovering:<rounds>`.
    pub fn to_wire(self) -> String {
        match self {
            ChannelState::Healthy => "healthy".to_owned(),
            ChannelState::Probation => "probation".to_owned(),
            ChannelState::Quarantined => "quarantined".to_owned(),
            ChannelState::Recovering { rounds } => format!("recovering:{rounds}"),
        }
    }

    /// Parses [`ChannelState::to_wire`] output; `None` on anything else
    /// (a corrupt state string rejects the whole snapshot — recovery
    /// never guesses).
    pub fn from_wire(wire: &str) -> Option<ChannelState> {
        Some(match wire {
            "healthy" => ChannelState::Healthy,
            "probation" => ChannelState::Probation,
            "quarantined" => ChannelState::Quarantined,
            other => ChannelState::Recovering {
                rounds: other.strip_prefix("recovering:")?.parse().ok()?,
            },
        })
    }
}

/// What the supervisor should do after reporting a verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthAction {
    /// Nothing; the channel is where it should be.
    None,
    /// Build a fresh table on a copy and swap it in.
    Recalibrate,
}

#[derive(Debug)]
struct ChannelHealth {
    state: ChannelState,
    /// When the channel last left `Healthy` — the MTTR clock.
    unhealthy_since: Instant,
}

/// Shared health ledger: per-channel states plus the server's
/// recalibration and quarantine counts (sentinel runs are counted in
/// the `health.sentinel_runs` metric).
///
/// One instance serves every shard; keys are `(tenant, channel)` so a
/// tenant's channel 3 and another tenant's channel 3 heal independently.
#[derive(Debug)]
pub struct HealthTable {
    channels: Mutex<HashMap<(String, usize), ChannelHealth>>,
    /// Consecutive healthy rounds required to leave `Recovering`.
    recovery_rounds: u32,
    recalibrations: AtomicU64,
    quarantines: AtomicU64,
}

impl HealthTable {
    /// A table requiring `recovery_rounds` consecutive healthy sentinel
    /// rounds (clamped ≥ 1) before a quarantined channel is re-admitted.
    pub fn new(recovery_rounds: u32) -> HealthTable {
        HealthTable {
            channels: Mutex::new(HashMap::new()),
            recovery_rounds: recovery_rounds.max(1),
            recalibrations: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// Whether `set_delay` on this channel may proceed. Absent channels
    /// (never probed) are healthy by definition — the supervisor only
    /// ever *adds* restrictions it has evidence for.
    pub fn admits(&self, tenant: &str, channel: usize) -> bool {
        let channels = self.channels.lock().unwrap_or_else(|e| e.into_inner());
        match channels.get(&(tenant.to_owned(), channel)) {
            None => true,
            Some(h) => !matches!(
                h.state,
                ChannelState::Quarantined | ChannelState::Recovering { .. }
            ),
        }
    }

    /// The channel's current state (`Healthy` when never probed).
    pub fn state(&self, tenant: &str, channel: usize) -> ChannelState {
        let channels = self.channels.lock().unwrap_or_else(|e| e.into_inner());
        channels
            .get(&(tenant.to_owned(), channel))
            .map(|h| h.state)
            .unwrap_or(ChannelState::Healthy)
    }

    /// Feeds one sentinel verdict into the state machine and returns
    /// what the supervisor should do. Counts the run, counts quarantine
    /// entries, and records `health.mttr_us` whenever a channel makes
    /// it back to `Healthy`.
    pub fn observe(&self, tenant: &str, channel: usize, verdict: SentinelVerdict) -> HealthAction {
        vardelay_obs::counter("health.sentinel_runs").add(1);
        let now = Instant::now();
        let mut channels = self.channels.lock().unwrap_or_else(|e| e.into_inner());
        let entry = channels
            .entry((tenant.to_owned(), channel))
            .or_insert(ChannelHealth {
                state: ChannelState::Healthy,
                unhealthy_since: now,
            });
        let was = entry.state;
        let (next, action) = match (was, verdict) {
            (ChannelState::Healthy, SentinelVerdict::Healthy) => {
                (ChannelState::Healthy, HealthAction::None)
            }
            // Drift: enter (or stay in) probation and keep rebuilding
            // until a round comes back clean.
            (ChannelState::Healthy | ChannelState::Probation, SentinelVerdict::Drifting) => {
                (ChannelState::Probation, HealthAction::Recalibrate)
            }
            (ChannelState::Probation, SentinelVerdict::Healthy) => {
                (ChannelState::Healthy, HealthAction::None)
            }
            // Gross error from anywhere: quarantine and rebuild.
            (_, SentinelVerdict::Broken) => (ChannelState::Quarantined, HealthAction::Recalibrate),
            // A clean round after quarantine starts the re-admission
            // count; `recovery_rounds` of them in a row re-admit.
            (ChannelState::Quarantined, SentinelVerdict::Healthy) => {
                if self.recovery_rounds <= 1 {
                    (ChannelState::Healthy, HealthAction::None)
                } else {
                    (ChannelState::Recovering { rounds: 1 }, HealthAction::None)
                }
            }
            (ChannelState::Recovering { rounds }, SentinelVerdict::Healthy) => {
                if rounds + 1 >= self.recovery_rounds {
                    (ChannelState::Healthy, HealthAction::None)
                } else {
                    (
                        ChannelState::Recovering { rounds: rounds + 1 },
                        HealthAction::None,
                    )
                }
            }
            // Any regression while counting re-admission rounds resets
            // the count and keeps the channel out of service.
            (
                ChannelState::Quarantined | ChannelState::Recovering { .. },
                SentinelVerdict::Drifting,
            ) => (ChannelState::Quarantined, HealthAction::Recalibrate),
        };
        if was == ChannelState::Healthy && next != ChannelState::Healthy {
            entry.unhealthy_since = now;
        }
        // A fall back from `Recovering` is the same incident, not a new
        // quarantine entry.
        let was_rejecting = matches!(
            was,
            ChannelState::Quarantined | ChannelState::Recovering { .. }
        );
        if next == ChannelState::Quarantined && !was_rejecting {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
        if next == ChannelState::Healthy && was != ChannelState::Healthy {
            let mttr = now.saturating_duration_since(entry.unhealthy_since);
            vardelay_obs::histogram("health.mttr_us").record(mttr.as_micros() as u64);
        }
        entry.state = next;
        action
    }

    /// Reinstates the state a channel's snapshot carries when its bank
    /// is restored (warm restart or re-admission after eviction).
    /// Restoring `Healthy` *removes* the entry: a
    /// never-probed channel and a healthy one are indistinguishable, and
    /// keeping the map sparse keeps `unhealthy_now` cheap. This is an
    /// overwrite, not a verdict — counters and the MTTR clock restart
    /// from the moment of recovery, which is when the incident became
    /// this process's problem.
    pub fn restore(&self, tenant: &str, channel: usize, state: ChannelState) {
        let mut channels = self.channels.lock().unwrap_or_else(|e| e.into_inner());
        if state == ChannelState::Healthy {
            channels.remove(&(tenant.to_owned(), channel));
            return;
        }
        channels.insert(
            (tenant.to_owned(), channel),
            ChannelHealth {
                state,
                unhealthy_since: Instant::now(),
            },
        );
    }

    /// Marks one background recalibration complete.
    pub fn note_recalibration(&self) {
        self.recalibrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Channels currently refusing `set_delay` (quarantined or still
    /// counting re-admission rounds).
    pub fn quarantined_now(&self) -> u64 {
        let channels = self.channels.lock().unwrap_or_else(|e| e.into_inner());
        channels
            .values()
            .filter(|h| {
                matches!(
                    h.state,
                    ChannelState::Quarantined | ChannelState::Recovering { .. }
                )
            })
            .count() as u64
    }

    /// Channels in any non-healthy state (probation included).
    pub fn unhealthy_now(&self) -> u64 {
        let channels = self.channels.lock().unwrap_or_else(|e| e.into_inner());
        channels
            .values()
            .filter(|h| h.state != ChannelState::Healthy)
            .count() as u64
    }

    /// Background recalibrations completed since start.
    pub fn recalibrations(&self) -> u64 {
        self.recalibrations.load(Ordering::Relaxed)
    }

    /// Quarantine entries since start.
    pub fn quarantines(&self) -> u64 {
        self.quarantines.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drift_walks_probation_and_back() {
        let table = HealthTable::new(3);
        assert!(table.admits("t", 0));
        assert_eq!(
            table.observe("t", 0, SentinelVerdict::Drifting),
            HealthAction::Recalibrate
        );
        assert_eq!(table.state("t", 0), ChannelState::Probation);
        // Probation keeps serving — that is the point of the state.
        assert!(table.admits("t", 0));
        assert_eq!(table.unhealthy_now(), 1);
        assert_eq!(table.quarantined_now(), 0);
        assert_eq!(
            table.observe("t", 0, SentinelVerdict::Healthy),
            HealthAction::None
        );
        assert_eq!(table.state("t", 0), ChannelState::Healthy);
        assert_eq!(table.unhealthy_now(), 0);
        assert_eq!(table.quarantines(), 0);
    }

    #[test]
    fn quarantine_needs_k_consecutive_healthy_rounds() {
        let table = HealthTable::new(3);
        table.observe("t", 7, SentinelVerdict::Broken);
        assert!(!table.admits("t", 7));
        assert_eq!(table.quarantines(), 1);
        assert_eq!(table.quarantined_now(), 1);
        // Two healthy rounds are not enough at K = 3.
        table.observe("t", 7, SentinelVerdict::Healthy);
        table.observe("t", 7, SentinelVerdict::Healthy);
        assert!(!table.admits("t", 7), "still counting re-admission rounds");
        assert_eq!(table.state("t", 7), ChannelState::Recovering { rounds: 2 });
        table.observe("t", 7, SentinelVerdict::Healthy);
        assert!(table.admits("t", 7));
        assert_eq!(table.state("t", 7), ChannelState::Healthy);
        // Re-entry counts a second quarantine.
        table.observe("t", 7, SentinelVerdict::Broken);
        assert_eq!(table.quarantines(), 2);
    }

    #[test]
    fn wire_states_round_trip_and_garbage_is_rejected() {
        for state in [
            ChannelState::Healthy,
            ChannelState::Probation,
            ChannelState::Quarantined,
            ChannelState::Recovering { rounds: 2 },
        ] {
            assert_eq!(ChannelState::from_wire(&state.to_wire()), Some(state));
        }
        for garbage in ["", "Healthy", "recovering", "recovering:", "recovering:x"] {
            assert_eq!(ChannelState::from_wire(garbage), None, "{garbage:?}");
        }
    }

    #[test]
    fn restore_overwrites_without_counting_an_incident() {
        let table = HealthTable::new(3);
        table.restore("t", 4, ChannelState::Quarantined);
        assert!(!table.admits("t", 4), "restored quarantine still rejects");
        assert_eq!(table.quarantines(), 0, "restore is not a new incident");
        // A later restore overwrites an earlier one, and a healthy
        // restore clears the entry entirely.
        table.restore("t", 4, ChannelState::Recovering { rounds: 1 });
        assert_eq!(table.state("t", 4), ChannelState::Recovering { rounds: 1 });
        table.restore("t", 4, ChannelState::Healthy);
        assert!(table.admits("t", 4));
        assert_eq!(table.unhealthy_now(), 0);
    }

    #[test]
    fn a_regression_mid_recovery_resets_the_count() {
        let table = HealthTable::new(2);
        table.observe("t", 1, SentinelVerdict::Broken);
        table.observe("t", 1, SentinelVerdict::Healthy);
        assert_eq!(table.state("t", 1), ChannelState::Recovering { rounds: 1 });
        // Drifting mid-recovery drops back to quarantine (no flapping),
        // and staying broken stays quarantined without double counting.
        assert_eq!(
            table.observe("t", 1, SentinelVerdict::Drifting),
            HealthAction::Recalibrate
        );
        assert_eq!(table.state("t", 1), ChannelState::Quarantined);
        assert_eq!(
            table.quarantines(),
            1,
            "re-entry from recovery is one incident"
        );
        table.observe("t", 1, SentinelVerdict::Broken);
        assert_eq!(table.quarantines(), 1);
        // Tenants are independent.
        assert!(table.admits("u", 1));
        assert!(table.admits("t", 2));
    }
}
