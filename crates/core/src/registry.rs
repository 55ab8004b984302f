//! Cross-SKU engine registry.
//!
//! [`Engine`]s are per-SKU. A sweep over heterogeneous hardware — the
//! cluster fleet, `--cpu` comparison runs — needs one engine per SKU.
//! An [`EngineRegistry`] owns them and hands every one the same
//! registry-wide [`EngineCaches`] tier (payload builds and functional
//! passes; keys are SKU-tagged). Callers evaluate on the engine the
//! registry hands out ([`EngineRegistry::engine`]), deriving each
//! payload config through its [`Engine::config_for_spec`].
//!
//! The registry is `Sync` like the engines it owns: fleet sweep workers
//! on different threads share one registry, and [`RegistryStats`]
//! aggregates every layer's hit/miss counters for benchmark reports.

use crate::engine::{Engine, EngineCaches};
use fs2_arch::Sku;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Counters aggregated across the registry and all of its engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryStats {
    /// Engines currently registered (distinct SKUs).
    pub engines: usize,
    /// Payload-cache hits summed over all engines.
    pub payload_hits: u64,
    /// Payload-cache misses summed over all engines.
    pub payload_misses: u64,
    /// Distinct payloads cached, summed over all engines.
    pub payload_entries: usize,
    /// Functional passes served from the ExecStats caches.
    pub exec_hits: u64,
    /// Functional passes executed live (then cached).
    pub exec_misses: u64,
    /// `Engine::eval` operating-point solves summed over all engines.
    pub evals: u64,
    /// Fleet requests announced via [`EngineRegistry::begin_request`].
    pub requests: u64,
    /// Payload-cache hits landed since this registry's second request
    /// began — the "warm registry" signal (0 until then). The fleet
    /// service plans every request on one registry, so there the window
    /// opens at the service's own second request.
    pub cross_payload_hits: u64,
    /// Payload-cache lookups (hits + misses) in the same window.
    pub cross_payload_lookups: u64,
    /// ExecStats-cache hits in the same window.
    pub cross_exec_hits: u64,
    /// ExecStats-cache lookups in the same window.
    pub cross_exec_lookups: u64,
}

/// Cache-counter snapshot taken when the second request begins, so the
/// cross-request deltas in [`RegistryStats`] measure only traffic that
/// could plausibly hit another request's warm entries.
#[derive(Debug, Clone, Copy, Default)]
struct CrossBase {
    payload_hits: u64,
    payload_misses: u64,
    exec_hits: u64,
    exec_misses: u64,
}

/// One engine per SKU plus the registry-wide [`EngineCaches`] tier
/// every engine warms.
pub struct EngineRegistry {
    /// Keyed by `Sku::name`; a linear scan over a handful of SKUs beats
    /// hashing the whole `Sku` struct.
    engines: Mutex<Vec<(&'static str, Arc<Engine>)>>,
    /// The shared payload/ExecStats tier (SKU-tagged keys), so
    /// repeat fleet requests hit one registry-wide cache instead of
    /// each warming a per-engine one.
    caches: Arc<EngineCaches>,
    requests: AtomicU64,
    cross_base: Mutex<Option<CrossBase>>,
    seed: u64,
}

impl EngineRegistry {
    /// Registry whose engines get the default session seed.
    pub fn new() -> EngineRegistry {
        EngineRegistry::with_seed(0xF12E_57A2)
    }

    /// Registry whose engines are created with `seed`.
    pub fn with_seed(seed: u64) -> EngineRegistry {
        EngineRegistry::with_caches(seed, Arc::new(EngineCaches::new()))
    }

    /// Registry whose engines are created with `seed` and warm a
    /// caller-provided cache tier, so several registries can share one
    /// payload/ExecStats tier (cache keys are SKU-tagged and,
    /// where results depend on the engine seed, seed-tagged, so sharing
    /// is sound).
    pub fn with_caches(seed: u64, caches: Arc<EngineCaches>) -> EngineRegistry {
        EngineRegistry {
            engines: Mutex::new(Vec::new()),
            caches,
            requests: AtomicU64::new(0),
            cross_base: Mutex::new(None),
            seed,
        }
    }

    /// Announces the start of a fleet request against this registry.
    /// When the second request arrives, the current cache counters are
    /// snapshotted so [`RegistryStats`] can report how much later
    /// traffic was served by entries an earlier request warmed.
    pub fn begin_request(&self) {
        let n = self.requests.fetch_add(1, Ordering::Relaxed) + 1;
        if n == 2 {
            let c = self.caches.stats();
            let mut base = self.cross_base.lock().expect("cross base poisoned");
            if base.is_none() {
                *base = Some(CrossBase {
                    payload_hits: c.hits,
                    payload_misses: c.misses,
                    exec_hits: c.exec_hits,
                    exec_misses: c.exec_misses,
                });
            }
        }
    }

    /// The engine for `sku`, created on first request. Two SKUs are the
    /// same engine iff they share a `name` (the database treats the
    /// name as the node identity).
    pub fn engine(&self, sku: &Sku) -> Arc<Engine> {
        {
            let engines = self.engines.lock().expect("engine registry poisoned");
            if let Some((_, e)) = engines.iter().find(|(name, _)| *name == sku.name) {
                return Arc::clone(e);
            }
        }
        // Build outside the lock (simulator + power-model construction
        // is not free); like the other caches, a same-SKU race keeps
        // the first insert and drops the loser's engine.
        let engine = Arc::new(Engine::with_caches(
            sku.clone(),
            self.seed,
            Arc::clone(&self.caches),
        ));
        let mut engines = self.engines.lock().expect("engine registry poisoned");
        if let Some((_, e)) = engines.iter().find(|(name, _)| *name == sku.name) {
            return Arc::clone(e);
        }
        engines.push((sku.name, Arc::clone(&engine)));
        engine
    }

    /// Aggregated counters across the registry and all engines. The
    /// payload/ExecStats tier is shared, so it is read once —
    /// summing per-engine snapshots would count it once per engine.
    pub fn stats(&self) -> RegistryStats {
        let engines = self.engines.lock().expect("engine registry poisoned");
        let c = self.caches.stats();
        let base = self
            .cross_base
            .lock()
            .expect("cross base poisoned")
            .unwrap_or(CrossBase {
                // No second request yet: the cross window is empty, so
                // baseline at the current counters and every delta is 0.
                payload_hits: c.hits,
                payload_misses: c.misses,
                exec_hits: c.exec_hits,
                exec_misses: c.exec_misses,
            });
        let lookups = |h: u64, m: u64, bh: u64, bm: u64| (h + m).saturating_sub(bh + bm);
        let mut s = RegistryStats {
            engines: engines.len(),
            payload_hits: c.hits,
            payload_misses: c.misses,
            payload_entries: c.entries,
            exec_hits: c.exec_hits,
            exec_misses: c.exec_misses,
            requests: self.requests.load(Ordering::Relaxed),
            cross_payload_hits: c.hits.saturating_sub(base.payload_hits),
            cross_payload_lookups: lookups(
                c.hits,
                c.misses,
                base.payload_hits,
                base.payload_misses,
            ),
            cross_exec_hits: c.exec_hits.saturating_sub(base.exec_hits),
            cross_exec_lookups: lookups(
                c.exec_hits,
                c.exec_misses,
                base.exec_hits,
                base.exec_misses,
            ),
            ..RegistryStats::default()
        };
        for (_, e) in engines.iter() {
            s.evals += e.eval_count();
        }
        s
    }
}

impl Default for EngineRegistry {
    fn default() -> EngineRegistry {
        EngineRegistry::new()
    }
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_engine_per_sku_name() {
        let reg = EngineRegistry::new();
        let a = reg.engine(&Sku::amd_epyc_7502());
        let b = reg.engine(&Sku::amd_epyc_7502());
        let c = reg.engine(&Sku::intel_xeon_e5_2680_v3());
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(reg.stats().engines, 2);
    }

    #[test]
    fn payload_for_lands_in_the_right_engine_cache() {
        let reg = EngineRegistry::new();
        let sku = Sku::amd_epyc_7502();
        let p1 = reg.engine(&sku).payload_for_spec("REG:1").unwrap();
        let p2 = reg.engine(&sku).payload_for_spec("REG:1").unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = reg.stats();
        assert_eq!(s.payload_misses, 1);
        assert_eq!(s.payload_hits, 1);
        assert_eq!(s.payload_entries, 1);
    }

    #[test]
    fn cache_tier_is_shared_across_sku_engines() {
        let reg = EngineRegistry::new();
        let rome = reg.engine(&Sku::amd_epyc_7502());
        let haswell = reg.engine(&Sku::intel_xeon_e5_2680_v3());

        // Same spec on two SKUs: keys are SKU-tagged, so each SKU gets
        // its own entry — sharing must not alias payloads across SKUs.
        let p_rome = rome.payload_for_spec("REG:1").unwrap();
        let p_haswell = haswell.payload_for_spec("REG:1").unwrap();
        assert!(
            !Arc::ptr_eq(&p_rome, &p_haswell),
            "SKUs must get distinct cache entries even when codegen coincides"
        );
        // stats() reads only the registry's tier, so seeing both
        // engines' builds there shows they share it; it reads the tier
        // once, so two engines must not double the counters.
        let s = reg.stats();
        assert_eq!(s.payload_misses, 2);
        assert_eq!(s.payload_entries, 2);
        assert_eq!(s.payload_hits, 0);
    }

    #[test]
    fn cross_request_counters_open_on_the_second_request() {
        let reg = EngineRegistry::new();
        let sku = Sku::amd_epyc_7502();

        // Request 1 warms the payload cache.
        reg.begin_request();
        let _ = reg.engine(&sku).payload_for_spec("REG:1").unwrap();
        let s1 = reg.stats();
        assert_eq!(s1.requests, 1);
        assert_eq!(s1.cross_payload_hits, 0);
        assert_eq!(s1.cross_payload_lookups, 0, "window opens at request 2");

        // Request 2 replays the same spec: every lookup after the
        // baseline is a hit on request 1's entry.
        reg.begin_request();
        let _ = reg.engine(&sku).payload_for_spec("REG:1").unwrap();
        let s2 = reg.stats();
        assert_eq!(s2.requests, 2);
        assert_eq!(s2.cross_payload_hits, 1);
        assert_eq!(s2.cross_payload_lookups, 1);

        // A third request with a cold spec dilutes but keeps the window.
        reg.begin_request();
        let _ = reg.engine(&sku).payload_for_spec("REG:2").unwrap();
        let s3 = reg.stats();
        assert_eq!(s3.requests, 3);
        assert_eq!(s3.cross_payload_hits, 1);
        assert_eq!(s3.cross_payload_lookups, 2);
    }

    #[test]
    fn shared_caches_constructor_shares_the_tier_across_registries() {
        let caches = Arc::new(EngineCaches::new());
        let a = EngineRegistry::with_caches(7, Arc::clone(&caches));
        let b = EngineRegistry::with_caches(7, Arc::clone(&caches));
        let sku = Sku::amd_epyc_7502();
        let _ = a.engine(&sku).payload_for_spec("REG:1").unwrap();
        // Registry `b` never built anything, yet its first lookup hits.
        let _ = b.engine(&sku).payload_for_spec("REG:1").unwrap();
        let s = b.stats();
        assert_eq!(s.payload_misses, 1);
        assert_eq!(s.payload_hits, 1);
    }
}
