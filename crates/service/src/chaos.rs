//! Deterministic fault injection for the fleet service.
//!
//! Chaos is **off by default** ([`ChaosConfig::default`] injects
//! nothing) and entirely seeded: which request gets hit is a pure
//! function of the request counter and the configured periods, and
//! which shard of that request panics is drawn from an RNG seeded by
//! `(seed, request index)`. Re-running the same request sequence under
//! the same config reproduces the same faults — which is what lets
//! `tests/fleet_chaos.rs` assert that a *retried* request produces
//! samples bitwise-identical to an undisturbed run: the retry lands on
//! the next request index, which the schedule leaves alone, and
//! samples are pure in `(seed, config)`.
//!
//! Faults injected, each gated by its own period knob:
//! * shard panics — one shard task of every `panic_every`-th request
//!   panics (exercises the per-shard `catch_unwind` and typed shard
//!   replies),
//! * dropped replies — the TCP layer closes every
//!   `drop_reply_every`-th connection-reply without writing it
//!   (exercises client retry),
//! * shard latency — every shard task advances the service clock by
//!   `shard_ms` before its deadline check (exercises
//!   `deadline-exceeded` degradation under a [`ManualClock`]).
//!
//! [`ManualClock`]: crate::timing::ManualClock

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};

/// Injection schedule. All periods count from 1: `panic_every: 3`
/// hits requests 3, 6, 9, … A period of 0 disables that fault.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seeds the per-request draw of *which* shard panics.
    pub seed: u64,
    /// Panic one shard task of every Nth request (0 = never).
    pub panic_every: u64,
    /// Drop (close without writing) every Nth TCP reply (0 = never).
    pub drop_reply_every: u64,
    /// Milliseconds each shard task adds to the service clock before
    /// its deadline check (0 = none). Only observable under a manual
    /// clock; the wall clock ignores advances.
    pub shard_ms: u64,
}

impl ChaosConfig {
    pub fn enabled(&self) -> bool {
        self.panic_every > 0 || self.drop_reply_every > 0 || self.shard_ms > 0
    }
}

/// Live injection state: the schedule plus counters of what actually
/// fired, for test assertions and telemetry.
#[derive(Debug)]
pub struct ChaosState {
    cfg: ChaosConfig,
    requests: AtomicU64,
    replies: AtomicU64,
    panics_injected: AtomicU64,
    drops_injected: AtomicU64,
}

impl ChaosState {
    pub fn new(cfg: ChaosConfig) -> ChaosState {
        ChaosState {
            cfg,
            requests: AtomicU64::new(0),
            replies: AtomicU64::new(0),
            panics_injected: AtomicU64::new(0),
            drops_injected: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> ChaosConfig {
        self.cfg
    }

    /// Claims the next request index (1-based) in the schedule.
    pub fn next_request(&self) -> u64 {
        self.requests.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Which shard (if any) of request `idx` panics, drawn
    /// deterministically from `(seed, idx)`; counts the panic.
    pub fn take_panic_shard(&self, idx: u64, shards: usize) -> Option<usize> {
        if self.cfg.panic_every == 0 || shards == 0 || !idx.is_multiple_of(self.cfg.panic_every) {
            return None;
        }
        self.panics_injected.fetch_add(1, Ordering::Relaxed);
        let mut rng =
            StdRng::seed_from_u64(self.cfg.seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        Some(rng.gen_range(0..shards))
    }

    /// Whether the transport should drop the reply it is about to
    /// write; counts the drop.
    pub fn take_drop_reply(&self) -> bool {
        if self.cfg.drop_reply_every == 0 {
            return false;
        }
        let idx = self.replies.fetch_add(1, Ordering::SeqCst) + 1;
        let hit = idx.is_multiple_of(self.cfg.drop_reply_every);
        if hit {
            self.drops_injected.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    pub fn shard_ms(&self) -> u64 {
        self.cfg.shard_ms
    }

    pub fn panics_injected(&self) -> u64 {
        self.panics_injected.load(Ordering::Relaxed)
    }

    pub fn drops_injected(&self) -> u64 {
        self.drops_injected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_injects_nothing() {
        let state = ChaosState::new(ChaosConfig::default());
        assert!(!state.config().enabled());
        for _ in 0..100 {
            let idx = state.next_request();
            assert!(state.take_panic_shard(idx, 8).is_none());
            assert!(!state.take_drop_reply());
        }
        assert_eq!(state.panics_injected(), 0);
        assert_eq!(state.drops_injected(), 0);
    }

    #[test]
    fn schedule_is_periodic_and_seed_deterministic() {
        let cfg = ChaosConfig {
            seed: 42,
            panic_every: 3,
            drop_reply_every: 2,
            shard_ms: 0,
        };
        let a = ChaosState::new(cfg);
        let b = ChaosState::new(cfg);
        let mut hits = Vec::new();
        for _ in 0..12 {
            let ia = a.next_request();
            let ib = b.next_request();
            assert_eq!(ia, ib);
            let sa = a.take_panic_shard(ia, 5);
            assert_eq!(
                sa,
                b.take_panic_shard(ib, 5),
                "draw must be pure in (seed, idx)"
            );
            if let Some(s) = sa {
                assert!(s < 5);
                hits.push(ia);
            }
        }
        assert_eq!(hits, vec![3, 6, 9, 12]);
        assert_eq!(a.panics_injected(), 4);
        let drops: Vec<bool> = (0..6).map(|_| a.take_drop_reply()).collect();
        assert_eq!(drops, vec![false, true, false, true, false, true]);
        // A different seed may pick different shards but the same
        // request indices.
        let c = ChaosState::new(ChaosConfig { seed: 43, ..cfg });
        for _ in 0..12 {
            let ic = c.next_request();
            assert_eq!(c.take_panic_shard(ic, 5).is_some(), ic.is_multiple_of(3));
        }
    }
}
