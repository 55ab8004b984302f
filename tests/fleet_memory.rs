//! Peak live heap of a budgeted fleet merge, as a ratio to the bytes of
//! the samples it emits: a memory pin that does not depend on the host.
//!
//! A std-only counting global allocator tracks the live bytes and their
//! high-water mark. This file holds exactly one test, so no other
//! test's allocations reach the counters.

use firestarter2::cluster::{BudgetPolicy, FleetConfig, FleetRun, FleetSim, TemporalMode};
use firestarter2::core::EngineRegistry;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Forwards to the system allocator and counts the bytes it holds.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes, Ordering::SeqCst);
}

// SAFETY: every method hands its caller's arguments unchanged to
// `System`, which upholds the `GlobalAlloc` contract; the counters
// only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, so from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrink(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Both blocks count until the old one is released: a moving
            // realloc holds them at once.
            grow(new_size);
            shrink(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the peak of the bytes that
/// became live while it ran.
fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(Ordering::SeqCst);
    PEAK.store(base, Ordering::SeqCst);
    let out = f();
    (out, PEAK.load(Ordering::SeqCst) - base)
}

/// A budgeted episode fleet of 96 × 1000 ticks at 147 W per node, which
/// binds under either policy. Proposing and merging it holds the
/// proposals, their labels and the emitted samples; the arbiter writes
/// the samples over the proposals, so no second sample buffer is
/// allocated. One shard peaks at the merged buffer plus its labels
/// (1.25× the sample bytes, plus the per-tick arrays); two shards peak
/// while the second is appended to the first's reserved buffer (1.875×).
#[test]
fn a_budgeted_merge_keeps_one_sample_buffer() {
    for policy in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
        let sim = FleetSim::new(FleetConfig {
            samples_per_node: 1000,
            temporal: TemporalMode::Episodes,
            budget_w: Some(96.0 * 147.0),
            budget_policy: policy,
            ..FleetConfig::taurus_haswell_scaled(96)
        });
        let registry = EngineRegistry::new();
        let plan = sim.plan(&registry);
        let sample_bytes = (sim.config.total_samples() * std::mem::size_of::<f64>()) as f64;
        for (tiling, bound) in [(vec![(0, 96)], 1.35), (vec![(0, 48), (48, 96)], 1.95)] {
            let (run, peak): (FleetRun, usize) = peak_live_bytes(|| {
                let shards = tiling
                    .iter()
                    .map(|&(lo, hi)| sim.run_shard(&plan, lo, hi))
                    .collect();
                sim.try_merge_shards(&registry, &plan, shards)
                    .expect("the ranges tile the node range")
            });
            let b = run.budget.expect("budget stats");
            let denials: u64 = b.shed_ticks.iter().chain(&b.deferred_ticks).sum();
            assert!(denials > 0, "{}: the budget must bind", policy.name());
            let ratio = peak as f64 / sample_bytes;
            println!(
                "{}, {} shard(s): peak live {peak} B = {ratio:.3}x the sample bytes",
                policy.name(),
                tiling.len()
            );
            assert!(
                ratio <= bound,
                "{}, {} shard(s): peak live heap {ratio:.3}x the sample bytes, over {bound}x",
                policy.name(),
                tiling.len()
            );
        }
    }
}
