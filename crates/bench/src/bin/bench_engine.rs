//! Micro-benchmark for the engine-layer optimizations: the SoA
//! lane-vectorized functional executor against the reference
//! interpreter, the engine's ExecStats cache, and the payload cache vs
//! rebuilding.
//!
//! Writes the measured baseline to `BENCH_engine.json` (pass an output
//! path as the first argument to override). Criterion is unavailable
//! offline, so the timing loop is manual: median of 7 repetitions.
//!
//! ```sh
//! cargo run --release -p fs2-bench --bin bench_engine
//! ```

use fs2_arch::Sku;
use fs2_bench::timing::median_ns;
use fs2_core::engine::Engine;
use fs2_sim::{run_functional, DecodedKernel, Executor, InitScheme};
use std::fmt::Write as _;
use std::hint::black_box;

/// Median-of-7 wall time of `f`, in nanoseconds per call.
fn time_ns(iters: u32, f: impl FnMut()) -> f64 {
    median_ns(iters.div_ceil(4), iters, 7, f)
}

struct Case {
    name: &'static str,
    ns_per_iter: f64,
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_engine.json".to_string());
    let engine = Engine::new(Sku::amd_epyc_7502());
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut cases: Vec<Case> = Vec::new();

    // Executor dispatch: the runner's per-candidate functional pass is
    // `functional_iters` replays of the kernel body. Use the autotuner's
    // common shape (3-group mix, modest unroll).
    let payload = engine
        .payload_for_spec("REG:2,L1_LS:1")
        .expect("static spec");
    let kernel = &payload.kernel;
    const FUNC_ITERS: u64 = 100;

    let interpreted = time_ns(40, || {
        let mut ex = Executor::new(InitScheme::V2Safe, 42);
        ex.run_interpreted(black_box(kernel), FUNC_ITERS);
        black_box(ex.state_hash());
    });
    cases.push(Case {
        name: "exec_interpreted_100_iters",
        ns_per_iter: interpreted,
    });

    let table = DecodedKernel::new(kernel);
    let soa = time_ns(40, || {
        let mut ex = Executor::new(InitScheme::V2Safe, 42);
        ex.run_decoded(black_box(&table), FUNC_ITERS);
        black_box(ex.state_hash());
    });
    cases.push(Case {
        name: "exec_soa_100_iters",
        ns_per_iter: soa,
    });

    // Sanity: both implementations agree before we publish numbers.
    {
        let mut a = Executor::new(InitScheme::V2Safe, 7);
        let mut b = Executor::new(InitScheme::V2Safe, 7);
        a.run_decoded(&table, FUNC_ITERS);
        b.run_interpreted(kernel, FUNC_ITERS);
        assert_eq!(a.state_hash(), b.state_hash(), "dispatch paths diverge");
        assert_eq!(a.stats(), b.stats(), "stats accounting diverges");
    }

    // ExecStats cache: a cold functional pass (the SoA executor end to
    // end, packaged as a FunctionalOutcome) vs the engine serving the
    // same (payload, init, seed, iters) tuple from its cache.
    let exec_cfg = engine.config_for_spec("REG:2,L1_LS:1").expect("static");
    let exec_cold = time_ns(40, || {
        black_box(run_functional(
            black_box(&table),
            InitScheme::V2Safe,
            42,
            FUNC_ITERS,
        ));
    });
    cases.push(Case {
        name: "exec_stats_cold_100_iters",
        ns_per_iter: exec_cold,
    });

    let _ = engine.functional_outcome(&exec_cfg, InitScheme::V2Safe, 42, FUNC_ITERS);
    let exec_hit = time_ns(400, || {
        black_box(engine.functional_outcome(
            black_box(&exec_cfg),
            InitScheme::V2Safe,
            42,
            FUNC_ITERS,
        ));
    });
    cases.push(Case {
        name: "exec_stats_cache_hit",
        ns_per_iter: exec_hit,
    });

    // Payload cache: cold build vs cached lookup of a paper-scale
    // payload (u = 1400, five access groups).
    let spec = "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1";
    let cold = time_ns(20, || {
        // A fresh engine per call: every request is a miss.
        let e = Engine::new(Sku::amd_epyc_7502());
        let mut cfg = e.config_for_spec(black_box(spec)).unwrap();
        cfg.unroll = 1400;
        black_box(e.payload(&cfg));
    });
    cases.push(Case {
        name: "payload_cold_build_u1400",
        ns_per_iter: cold,
    });

    let mut warm_cfg = engine.config_for_spec(spec).unwrap();
    warm_cfg.unroll = 1400;
    let _ = engine.payload(&warm_cfg);
    let warm = time_ns(200, || {
        black_box(engine.payload(black_box(&warm_cfg)));
    });
    cases.push(Case {
        name: "payload_cache_hit_u1400",
        ns_per_iter: warm,
    });

    let speedup_soa = interpreted / soa;
    let speedup_exec_cache = exec_cold / exec_hit;
    let speedup_cache = cold / warm;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"engine layer: SoA executor, ExecStats cache, payload cache\",\n",
    );
    json.push_str("  \"workloads\": {\n");
    json.push_str(
        "    \"executor\": \"REG:2,L1_LS:1 (default unroll), 100 functional iterations\",\n",
    );
    let _ = writeln!(json, "    \"payload\": \"{spec} @ u=1400\"");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    json.push_str("  \"cases_ns\": {\n");
    for (i, c) in cases.iter().enumerate() {
        let comma = if i + 1 < cases.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{}\": {:.0}{comma}", c.name, c.ns_per_iter);
    }
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"speedup_soa_vs_interpreted\": {speedup_soa:.2},");
    let _ = writeln!(
        json,
        "  \"speedup_exec_stats_cache_hit\": {speedup_exec_cache:.1},"
    );
    let _ = writeln!(
        json,
        "  \"speedup_cache_hit_vs_rebuild\": {speedup_cache:.1}"
    );
    json.push_str("}\n");

    println!("### bench_engine — functional executor and engine caches\n");
    for c in &cases {
        println!("{:<42} {:>12.0} ns/iter", c.name, c.ns_per_iter);
    }
    println!("\nSoA vectorized vs interpreted: {speedup_soa:.2}x");
    println!("ExecStats cache hit vs cold:   {speedup_exec_cache:.1}x");
    println!("payload cache hit vs rebuild:  {speedup_cache:.1}x");

    std::fs::write(&out_path, json).expect("write benchmark baseline");
    eprintln!("wrote {out_path}");
}
