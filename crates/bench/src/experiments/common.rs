//! Shared experiment plumbing, routed through the `fs2-core` engine.
//!
//! Every experiment builds one [`Engine`] for its SKU and draws cached
//! payloads, traceless evaluations, sessions and parallel sweeps from
//! it instead of wiring `build_payload` + `SystemSim` + `NodePowerModel`
//! by hand.

use fs2_arch::{MemLevel, Sku};
use fs2_core::engine::Engine;
use fs2_core::groups::{format_groups, parse_groups, AccessGroup, Pattern};
use fs2_core::mix::{InstructionMix, MixRegistry};
use fs2_core::payload::{default_unroll, Payload, PayloadConfig};
use fs2_power::ThrottleResult;
use std::sync::Arc;

/// The engine every experiment on `sku` shares.
pub fn engine_for(sku: Sku) -> Engine {
    Engine::new(sku)
}

/// Cached payload from a group string with the architecture default mix
/// and unroll factor.
pub fn payload_for(engine: &Engine, spec: &str) -> Arc<Payload> {
    engine
        .payload_for_spec(spec)
        .expect("experiment group strings are valid")
}

/// Direct (traceless) evaluation: EDC-aware steady state + power.
/// Orders of magnitude faster than a full runner pass; used by the
/// parameter sweeps. This is the raw payload path without the §III-D
/// data effect (trivial fraction 0.0), keeping the figure/table
/// experiments byte-stable; config-holding callers use
/// [`Engine::eval`], which wires in the cached trivial fraction.
pub fn direct_eval(engine: &Engine, payload: &Payload, freq_mhz: f64) -> ThrottleResult {
    engine.eval_payload(payload, freq_mhz, 0.0)
}

/// "To get the ratio with the highest power consumption, we vary the
/// ratio of register calculations and memory accesses" (§IV-D): sweeps
/// the REG share (and the nearest level's weight) for a ladder rung that
/// touches all levels up to `up_to`, returning the highest-power
/// configuration. The candidate grid fans out over [`Engine::sweep`].
pub fn optimize_rung(
    engine: &Engine,
    up_to: Option<MemLevel>,
    freq_mhz: f64,
) -> (Vec<AccessGroup>, ThrottleResult) {
    let mix_groups = |reg: u32, near: u32, up_to: Option<MemLevel>| -> Vec<AccessGroup> {
        let mut groups = Vec::new();
        if reg > 0 {
            groups.push(AccessGroup::reg(reg));
        }
        if let Some(level) = up_to {
            for (i, &l) in level.up_to().iter().enumerate() {
                let pattern = if l == MemLevel::L1 {
                    Pattern::TwoLoadsStore
                } else {
                    Pattern::LoadStore
                };
                let count = if i == 0 { near } else { 1 };
                groups.push(AccessGroup::mem(l, pattern, count));
            }
        } else if reg == 0 {
            groups.push(AccessGroup::reg(1));
        }
        groups
    };

    // Wide REG sweep: shared far levels (Haswell's socket-wide L3) need
    // sparse access schedules, i.e. large register shares.
    let reg_candidates: &[u32] = if up_to.is_none() {
        &[1]
    } else {
        &[0, 1, 2, 4, 6, 8, 10, 12, 16, 20, 24, 30]
    };
    // Dense near-level traffic with sparse far-level accesses is a key
    // shape (lots of L1 work riding under an almost-saturated DRAM
    // stream), so the near weight sweeps far wider than the REG share.
    let near_candidates: &[u32] = if up_to.is_none() {
        &[0]
    } else {
        &[1, 2, 3, 4, 6, 8, 12, 16]
    };
    let mut candidates: Vec<Vec<AccessGroup>> = reg_candidates
        .iter()
        .flat_map(|&reg| {
            near_candidates
                .iter()
                .map(move |&near| mix_groups(reg, near, up_to))
        })
        .filter(|groups| !groups.is_empty())
        .collect();

    let evaluated = engine.sweep(&candidates, 0, |engine, _, groups| {
        let mix = MixRegistry::default_for(engine.sku().uarch);
        let unroll = default_unroll(engine.sku(), mix, groups);
        engine.eval(
            &PayloadConfig {
                mix,
                groups: groups.clone(),
                unroll,
            },
            freq_mhz,
        )
    });

    // Deterministic selection: strict improvement, first index wins ties
    // (identical to the previous serial loop).
    let mut best: Option<(usize, f64)> = None;
    for (i, result) in evaluated.iter().enumerate() {
        let p = result.power.total_w();
        if best.is_none_or(|(_, bp)| p > bp) {
            best = Some((i, p));
        }
    }
    let (i, _) = best.expect("at least one candidate evaluated");
    let result = evaluated.into_iter().nth(i).expect("index in range");
    (candidates.swap_remove(i), result)
}

/// Pretty group-string for reports.
pub fn spec_of(groups: &[AccessGroup]) -> String {
    format_groups(groups)
}

/// The SQRT low-power loop payload.
pub fn sqrt_payload(engine: &Engine) -> Arc<Payload> {
    engine.payload(&PayloadConfig {
        mix: InstructionMix::SQRT,
        groups: parse_groups("REG:1").unwrap(),
        unroll: 64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rung_optimizer_monotone_in_levels() {
        let engine = engine_for(Sku::amd_epyc_7502());
        let mut prev = 0.0;
        for up_to in [
            None,
            Some(MemLevel::L1),
            Some(MemLevel::L2),
            Some(MemLevel::L3),
            Some(MemLevel::Ram),
        ] {
            let (_, result) = optimize_rung(&engine, up_to, 1500.0);
            let p = result.power.total_w();
            assert!(
                p > prev,
                "rung {up_to:?} not above previous: {p:.1} vs {prev:.1}"
            );
            prev = p;
        }
    }

    #[test]
    fn direct_eval_matches_runner_scale() {
        let engine = engine_for(Sku::amd_epyc_7502());
        let p = payload_for(&engine, "REG:1");
        let r = direct_eval(&engine, &p, 1500.0);
        assert!((180.0..280.0).contains(&r.power.total_w()));
    }

    #[test]
    fn experiment_sweep_parallel_matches_serial_bitwise() {
        // The experiment worker shape (cached payload + traceless eval)
        // must return identical results on a parallel and a serial
        // pass.
        let engine = engine_for(Sku::amd_epyc_7502());
        let candidates: Vec<Vec<AccessGroup>> = [
            "REG:1",
            "REG:4,L1_L:2",
            "REG:4,L1_2LS:2,L2_LS:1",
            "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1",
            "REG:2,RAM_LS:2",
            "REG:30,L1_2LS:16,L2_LS:1,L3_LS:1,RAM_LS:1",
        ]
        .iter()
        .map(|s| parse_groups(s).unwrap())
        .collect();
        let worker = |engine: &Engine, _: usize, groups: &Vec<AccessGroup>| {
            let mix = MixRegistry::default_for(engine.sku().uarch);
            let unroll = default_unroll(engine.sku(), mix, groups);
            let r = engine.eval(
                &PayloadConfig {
                    mix,
                    groups: groups.clone(),
                    unroll,
                },
                1500.0,
            );
            (r.power.total_w().to_bits(), r.applied_mhz.to_bits())
        };
        let serial = engine.sweep(&candidates, 1, worker);
        let parallel = engine.sweep(&candidates, 4, worker);
        assert_eq!(parallel, serial, "parallel queue diverged from serial");
    }

    #[test]
    fn rung_optimizer_reuses_cached_payloads() {
        let engine = engine_for(Sku::amd_epyc_7502());
        let (g1, r1) = optimize_rung(&engine, Some(MemLevel::L2), 1500.0);
        let after_first = engine.cache_stats();
        assert!(after_first.misses > 0);
        // Second identical sweep: all payloads come from the cache.
        let (g2, r2) = optimize_rung(&engine, Some(MemLevel::L2), 1500.0);
        let after_second = engine.cache_stats();
        assert_eq!(after_second.misses, after_first.misses);
        assert!(after_second.hits >= after_first.misses);
        assert_eq!(g1, g2);
        assert_eq!(r1.power.total_w(), r2.power.total_w());
    }
}
