//! Replays one fleet request layer by layer — the plan, the per-shard
//! propose and the merge that `FleetService::handle` runs — with a span
//! around each call.

use crate::trace::Tracer;
use firestarter2::cluster::{shard_ranges, FleetRun, FleetSim};
use firestarter2::core::EngineRegistry;

/// Per-layer timings of one replayed request.
pub struct StackTimes {
    pub plan_ms: f64,
    /// Summed over shards: the propose work.
    pub propose_ms: f64,
    /// The slowest shard: the propose phase's critical path.
    pub propose_max_shard_ms: f64,
    pub merge_ms: f64,
}

/// Plans `sim` against `registry`, proposes `shards` node ranges on
/// their own threads (as the service's pool does) and merges them.
pub fn replay(
    tracer: &Tracer,
    parent: Option<u64>,
    request: Option<u64>,
    sim: &FleetSim,
    registry: &EngineRegistry,
    shards: usize,
) -> (FleetRun, StackTimes) {
    let (plan, plan_ms) = tracer.span("fleet.plan", parent, request, |_| sim.plan(registry));
    let ranges = shard_ranges(plan.total_nodes(), shards);
    let parts: Vec<_> = std::thread::scope(|scope| {
        let plan = &plan;
        let handles: Vec<_> = ranges
            .iter()
            .map(|&(lo, hi)| {
                scope.spawn(move || {
                    tracer.span("fleet.propose", parent, request, |_| {
                        sim.run_shard(plan, lo, hi)
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a propose shard panicked"))
            .collect()
    });
    let propose_ms = parts.iter().map(|(_, ms)| ms).sum();
    let propose_max_shard_ms = parts.iter().map(|(_, ms)| *ms).fold(0.0, f64::max);
    let shards = parts.into_iter().map(|(s, _)| s).collect();
    let (run, merge_ms) = tracer.span("fleet.merge", parent, request, |_| {
        sim.try_merge_shards(registry, &plan, shards)
            .expect("shard_ranges tiles the node range")
    });
    (
        run,
        StackTimes {
            plan_ms,
            propose_ms,
            propose_max_shard_ms,
            merge_ms,
        },
    )
}
