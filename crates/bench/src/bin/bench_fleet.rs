//! Micro-benchmark for the engine-backed fleet pipeline: serial vs
//! sharded generation (i.i.d., episodes, budgeted episodes under both
//! policies), a shard count sweep, and the registry-wide cache counters
//! accumulated across every case (the service-loop picture: one
//! registry serves all requests).
//!
//! Writes the measured baseline to `BENCH_fleet.json` (pass an output
//! path as the first argument to override; `--threads 1,2,4` overrides
//! the sweep list). Criterion is unavailable offline, so the timing
//! loop is manual: median of 9 repetitions.
//!
//! ```sh
//! cargo run --release -p fs2-bench --bin bench_fleet
//! ```

use fs2_bench::timing::median_ms;
use fs2_calib::{calibrate, CalibConfig, FleetProfile, Trace};
use fs2_cluster::{BudgetPolicy, FleetConfig, FleetSim, TemporalMode};
use fs2_core::EngineRegistry;
use fs2_service::{FleetRequest, FleetService, ServiceConfig};
use std::fmt::Write as _;
use std::hint::black_box;

/// Median-of-9 wall time of `f`, in milliseconds per call.
fn time_ms(f: impl FnMut()) -> f64 {
    median_ms(2, 1, 9, f)
}

/// A simulator for `cfg` proposing on `threads` shards.
fn sim_at(cfg: &FleetConfig, threads: usize) -> FleetSim {
    FleetSim::new(FleetConfig {
        threads,
        ..cfg.clone()
    })
}

/// Thread counts to sweep: powers of two up to the host parallelism.
/// A 1-thread host degrades to `[1]` — the sweep then records that no
/// parallel measurement was possible rather than a fake speedup.
fn default_sweep(host_threads: usize) -> Vec<usize> {
    let mut sweep = vec![1];
    let mut t = 2;
    while t <= host_threads {
        sweep.push(t);
        t *= 2;
    }
    if *sweep.last().unwrap() < host_threads {
        sweep.push(host_threads);
    }
    sweep
}

fn main() {
    let mut out_path = "BENCH_fleet.json".to_string();
    let mut sweep_override: Option<Vec<usize>> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--threads" {
            let list = args.next().expect("--threads needs a comma-separated list");
            sweep_override = Some(
                list.split(',')
                    .map(|s| s.trim().parse().expect("thread count"))
                    .collect(),
            );
        } else {
            out_path = arg;
        }
    }

    // A long-tailed heterogeneous fleet: the fat-node slice is sampled
    // 8x longer. Shards split by node count, so the shard holding the
    // fat slice carries most of the work; the parallel case records
    // that imbalance as measured.
    let mut cfg = FleetConfig::taurus_haswell_scaled(128);
    cfg.samples_per_node = 2000;
    cfg.groups[1].samples_per_node = Some(16_000);
    let total_samples = cfg.total_samples();

    // One registry for the whole benchmark run: every case after the
    // first hits the registry-wide payload/ExecStats tier, the way a
    // resident fleet service would.
    let registry = EngineRegistry::new();

    let serial = sim_at(&cfg, 1);
    let parallel = sim_at(&cfg, 0);

    // Determinism gates before any number is published: cold and
    // warm-registry runs and the sharded parallel run must all emit
    // identical bytes (tests/fleet_golden.rs pins those bytes, and the
    // fs2-cluster unit tests pin them against a per-node oracle).
    let base = serial.run();
    assert_eq!(
        base.samples,
        serial.run_with(&registry).samples,
        "shared-registry fleet diverges from cold-registry run"
    );
    assert_eq!(
        base.samples,
        parallel.run_with(&registry).samples,
        "parallel fleet diverges from serial"
    );

    // Every timed case shares `registry`, as a resident service would.
    let serial_ms = time_ms(|| {
        black_box(serial.run_with(&registry).samples);
    });
    let parallel_ms = time_ms(|| {
        black_box(parallel.run_with(&registry).samples);
    });
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = serial_ms / parallel_ms;

    // Thread (= shard) sweep over the same fleet and shared registry: a
    // real parallel-vs-serial measurement whenever the host has more
    // than one thread.
    let sweep = sweep_override.unwrap_or_else(|| default_sweep(host_threads));
    let mut sweep_ms: Vec<(usize, f64)> = Vec::with_capacity(sweep.len());
    for &t in &sweep {
        let sim = sim_at(&cfg, t);
        assert_eq!(
            base.samples,
            sim.run_with(&registry).samples,
            "fleet diverges at {t} threads"
        );
        let ms = time_ms(|| {
            black_box(sim.run_with(&registry).samples);
        });
        sweep_ms.push((t, ms));
    }

    // Episode mode over the same fleet: timing plus the temporal
    // statistics (the autocorrelation an i.i.d. sampler cannot have),
    // gated on the usual serial/parallel determinism check.
    let mut ep_cfg = cfg.clone();
    ep_cfg.temporal = TemporalMode::Episodes;
    let ep_serial = sim_at(&ep_cfg, 1);
    let ep_parallel = sim_at(&ep_cfg, 0);
    let ep_base = ep_serial.run();
    assert_eq!(
        ep_base.samples,
        ep_parallel.run_with(&registry).samples,
        "parallel episode fleet diverges from serial"
    );
    let ep_serial_ms = time_ms(|| {
        black_box(ep_serial.run_with(&registry).samples);
    });
    let ep_parallel_ms = time_ms(|| {
        black_box(ep_parallel.run_with(&registry).samples);
    });
    let ep_stats = ep_base.episodes.expect("episode stats");

    // Budget-arbitrated episode fleet: the tick-synchronous two-phase
    // pass (propose sharded, arbitrate serial, writing the samples)
    // under a binding facility budget. Uniform horizon here — with the fat
    // slice's 16k-tick tail, 87.5 % of the ticks would have only 15
    // active nodes and the arbiter would mostly idle. All 128 nodes
    // stay active for all 2000 ticks, and 18 kW sits between the floor
    // sum (~10.7 kW) and the unconstrained mean draw (~18.7 kW), so
    // the arbiter works every tick.
    let budget_w = 18_000.0;
    let mut bu_cfg = cfg.clone();
    bu_cfg.groups[1].samples_per_node = None;
    bu_cfg.temporal = TemporalMode::Episodes;
    bu_cfg.budget_w = Some(budget_w);
    bu_cfg.budget_policy = BudgetPolicy::ShedToFloor;
    let bu_serial = sim_at(&bu_cfg, 1);
    let bu_parallel = sim_at(&bu_cfg, 0);
    let bu_base = bu_serial.run();
    assert_eq!(
        bu_base.samples,
        bu_parallel.run_with(&registry).samples,
        "parallel budgeted fleet diverges from serial"
    );
    let bu_serial_ms = time_ms(|| {
        black_box(bu_serial.run_with(&registry).samples);
    });
    let bu_parallel_ms = time_ms(|| {
        black_box(bu_parallel.run_with(&registry).samples);
    });
    let bu_stats = bu_base.budget.expect("budget stats");
    // The same fleet under defer, whose denied proposals stay queued.
    bu_cfg.budget_policy = BudgetPolicy::Defer;
    let bu_defer = sim_at(&bu_cfg, 0);
    let defer_ms = time_ms(|| {
        black_box(bu_defer.run_with(&registry).samples);
    });

    // The shared registry's counters after every case above: this is
    // the number the batching work exists for — repeat requests must be
    // mostly cache hits.
    let s = registry.stats();
    let rate = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    let payload_rate = rate(s.payload_hits, s.payload_misses);
    let exec_rate = rate(s.exec_hits, s.exec_misses);

    // Service case: the same fleet served through the request/shard
    // stack, measuring the *cross-request* tier — a repeat tenant with
    // an identical config, then a near-identical one (new power cap).
    // This is the ROADMAP's "measure cross-request hit rates" ask.
    let service = FleetService::new(ServiceConfig::default());
    let svc_req = FleetRequest {
        nodes: 64,
        samples_per_node: 500,
        seed: Some(cfg.seed),
        ..FleetRequest::fig1()
    };
    let first = service.handle(&svc_req);
    assert!(first.ok, "{:?}", first.error);
    let svc_cold_ms = time_ms(|| {
        black_box(service.handle(&svc_req).samples);
    });
    let repeat = service.handle(&svc_req);
    assert!(repeat.ok);
    assert_eq!(
        first.samples, repeat.samples,
        "served repeat diverges from the first reply"
    );
    let svc_identical_payload_rate = repeat.registry.cross_payload_hit_rate();
    let svc_identical_exec_rate = repeat.registry.cross_exec_hit_rate();
    let near = service.handle(&FleetRequest {
        power_cap_w: Some(280.0),
        ..svc_req.clone()
    });
    assert!(near.ok);
    let svc_near_payload_rate = near.registry.cross_payload_hit_rate();

    // Clone-fidelity case: a trace synthesized from the pinned
    // exemplar profile, calibrated back with the CI smoke's budget.
    // The acceptance gates (shares within 2 %, lag-1 autocorr within
    // 0.02, per-state mean dwell within 10 %) run here too, so a
    // published baseline always reflects a passing calibration.
    let mut ct_cfg = FleetConfig {
        samples_per_node: 1200,
        seed: 0x7AC3_D00D,
        temporal: TemporalMode::Episodes,
        ..FleetConfig::taurus_haswell_scaled(96)
    };
    FleetProfile::exemplar().apply(&mut ct_cfg);
    let ct_run = FleetSim::new(ct_cfg.clone()).run();
    let ct_trace = Trace::from_fleet(&ct_cfg, &ct_run.samples);
    let calib_cfg = CalibConfig {
        eval_nodes: 32,
        eval_ticks: 600,
        individuals: 12,
        generations: 6,
        ..CalibConfig::default()
    };
    let t0 = std::time::Instant::now();
    let calib = calibrate(&ct_trace, &calib_cfg).expect("exemplar trace is well-formed");
    let calib_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fid = &calib.report;
    assert!(fid.max_share_error <= 0.02, "share {}", fid.max_share_error);
    assert!(
        fid.autocorr_error <= 0.02,
        "autocorr {}",
        fid.autocorr_error
    );
    assert!(
        fid.max_dwell_rel_error <= 0.10,
        "dwell {}",
        fid.max_dwell_rel_error
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"benchmark\": \"engine-backed fleet generation (batched group eval)\",\n");
    let _ = writeln!(
        json,
        "  \"fleet\": \"{} nodes ({} SKUs), {} samples, fat slice at 16k samples/node\",",
        cfg.total_nodes(),
        cfg.groups.len(),
        total_samples
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    if host_threads == 1 {
        // On a 1-thread host the parallel case degenerates to the
        // serial path; the speedup number is not meaningful.
        json.push_str(
            "  \"note\": \"single-threaded host: parallel == serial path, \
             speedup is not a parallel measurement\",\n",
        );
    }
    json.push_str("  \"cases_ms\": {\n");
    let _ = writeln!(json, "    \"fleet_generate_serial\": {serial_ms:.2},");
    let _ = writeln!(json, "    \"fleet_generate_parallel\": {parallel_ms:.2},");
    let _ = writeln!(json, "    \"fleet_episodes_serial\": {ep_serial_ms:.2},");
    let _ = writeln!(
        json,
        "    \"fleet_episodes_parallel\": {ep_parallel_ms:.2},"
    );
    let _ = writeln!(json, "    \"fleet_budget_serial\": {bu_serial_ms:.2},");
    let _ = writeln!(json, "    \"fleet_budget_parallel\": {bu_parallel_ms:.2},");
    let _ = writeln!(json, "    \"fleet_budget_defer_parallel\": {defer_ms:.2}");
    json.push_str("  },\n");
    let _ = writeln!(json, "  \"speedup_parallel_vs_serial\": {speedup:.2},");
    json.push_str("  \"threads_sweep_ms\": {\n");
    for (i, (t, ms)) in sweep_ms.iter().enumerate() {
        let comma = if i + 1 < sweep_ms.len() { "," } else { "" };
        let _ = writeln!(json, "    \"{t}\": {ms:.2}{comma}");
    }
    json.push_str("  },\n");
    json.push_str("  \"episodes\": {\n");
    let _ = writeln!(
        json,
        "    \"lag1_autocorr\": {:.4},",
        ep_stats.lag1_autocorr
    );
    let _ = writeln!(
        json,
        "    \"floor_time_share\": {:.4},",
        ep_stats.empirical_shares[0]
    );
    json.push_str("    \"mean_dwell_ticks\": {\n");
    let n_states = ep_stats.states.len();
    for (i, (state, d)) in ep_stats
        .states
        .iter()
        .zip(&ep_stats.mean_dwell_ticks)
        .enumerate()
    {
        let comma = if i + 1 < n_states { "," } else { "" };
        let _ = writeln!(json, "      \"{state}\": {d:.1}{comma}");
    }
    json.push_str("    }\n");
    json.push_str("  },\n");
    json.push_str("  \"budget\": {\n");
    let _ = writeln!(json, "    \"budget_w\": {budget_w:.0},");
    let _ = writeln!(json, "    \"policy\": \"{}\",", bu_stats.policy.name());
    let _ = writeln!(json, "    \"ticks\": {},", bu_stats.ticks);
    let _ = writeln!(json, "    \"peak_fleet_w\": {:.1},", bu_stats.peak_fleet_w);
    let _ = writeln!(json, "    \"mean_fleet_w\": {:.1},", bu_stats.mean_fleet_w);
    let _ = writeln!(
        json,
        "    \"p95_utilization\": {:.4},",
        bu_stats.utilization.quantile(0.95)
    );
    let _ = writeln!(
        json,
        "    \"shed_node_ticks\": {},",
        bu_stats.shed_ticks.iter().sum::<u64>()
    );
    let _ = writeln!(
        json,
        "    \"infeasible_floor_ticks\": {}",
        bu_stats.infeasible_floor_ticks
    );
    json.push_str("  },\n");
    json.push_str("  \"registry\": {\n");
    let _ = writeln!(json, "    \"engines\": {},", s.engines);
    let _ = writeln!(json, "    \"payload_hits\": {},", s.payload_hits);
    let _ = writeln!(json, "    \"payload_misses\": {},", s.payload_misses);
    let _ = writeln!(json, "    \"payload_entries\": {},", s.payload_entries);
    let _ = writeln!(json, "    \"payload_hit_rate\": {payload_rate:.4},");
    let _ = writeln!(json, "    \"exec_hits\": {},", s.exec_hits);
    let _ = writeln!(json, "    \"exec_misses\": {},", s.exec_misses);
    let _ = writeln!(json, "    \"exec_hit_rate\": {exec_rate:.4},");
    let _ = writeln!(json, "    \"evals\": {}", s.evals);
    json.push_str("  },\n");
    json.push_str("  \"service\": {\n");
    let _ = writeln!(json, "    \"request_ms\": {svc_cold_ms:.2},");
    let _ = writeln!(
        json,
        "    \"identical_payload_hit_rate\": {svc_identical_payload_rate:.4},"
    );
    let _ = writeln!(
        json,
        "    \"identical_exec_hit_rate\": {svc_identical_exec_rate:.4},"
    );
    let _ = writeln!(
        json,
        "    \"near_identical_payload_hit_rate\": {svc_near_payload_rate:.4}"
    );
    json.push_str("  },\n");
    json.push_str("  \"fidelity\": {\n");
    json.push_str("    \"trace\": \"exemplar-profile self-clone, 96 nodes x 1200 ticks\",\n");
    let _ = writeln!(json, "    \"calibrate_ms\": {calib_ms:.2},");
    let _ = writeln!(json, "    \"evaluations\": {},", calib.evaluations);
    let _ = writeln!(json, "    \"cdf_distance\": {:.4},", fid.cdf_distance);
    let _ = writeln!(json, "    \"autocorr_error\": {:.4},", fid.autocorr_error);
    let _ = writeln!(json, "    \"max_share_error\": {:.4},", fid.max_share_error);
    let _ = writeln!(
        json,
        "    \"mean_dwell_rel_error\": {:.4},",
        fid.mean_dwell_rel_error
    );
    let _ = writeln!(
        json,
        "    \"max_dwell_rel_error\": {:.4}",
        fid.max_dwell_rel_error
    );
    json.push_str("  }\n");
    json.push_str("}\n");

    println!("### bench_fleet — engine-backed fleet generation\n");
    println!(
        "{} nodes, {} samples ({} long-tail)",
        cfg.total_nodes(),
        total_samples,
        cfg.groups[1].nodes
    );
    println!("serial:   {serial_ms:>9.2} ms");
    println!("parallel: {parallel_ms:>9.2} ms  ({host_threads} host threads)");
    println!("speedup:  {speedup:>9.2}x");
    if host_threads == 1 {
        println!("(single-threaded host: speedup is not a parallel measurement)");
    }
    for (t, ms) in &sweep_ms {
        println!("threads {t}: {ms:>8.2} ms");
    }
    println!(
        "episodes: {ep_serial_ms:.2} ms serial / {ep_parallel_ms:.2} ms parallel, \
         lag-1 autocorr {:.3}, floor share {:.1}%",
        ep_stats.lag1_autocorr,
        ep_stats.empirical_shares[0] * 100.0
    );
    println!(
        "budget:   {bu_serial_ms:.2} ms serial / {bu_parallel_ms:.2} ms parallel at \
         {budget_w:.0} W ({}), peak {:.0} W, {} node-ticks shed; \
         {defer_ms:.2} ms parallel under defer",
        bu_stats.policy.name(),
        bu_stats.peak_fleet_w,
        bu_stats.shed_ticks.iter().sum::<u64>()
    );
    println!(
        "registry: {} engines, payloads {} built / {} hits ({:.0}% hit rate), \
         exec {} live / {} hits ({:.0}% hit rate), {} evals",
        s.engines,
        s.payload_misses,
        s.payload_hits,
        payload_rate * 100.0,
        s.exec_misses,
        s.exec_hits,
        exec_rate * 100.0,
        s.evals
    );
    println!(
        "service:  {svc_cold_ms:.2} ms/request; cross-request hit rates: \
         identical payload {:.0}% / exec {:.0}%, near-identical payload {:.0}%",
        svc_identical_payload_rate * 100.0,
        svc_identical_exec_rate * 100.0,
        svc_near_payload_rate * 100.0
    );
    println!(
        "fidelity: self-clone in {calib_ms:.0} ms / {} evals; cdf {:.4}, \
         autocorr err {:.4}, max share err {:.4}, dwell rel err {:.4} max",
        calib.evaluations,
        fid.cdf_distance,
        fid.autocorr_error,
        fid.max_share_error,
        fid.max_dwell_rel_error
    );

    std::fs::write(&out_path, json).expect("write benchmark baseline");
    eprintln!("wrote {out_path}");
}
