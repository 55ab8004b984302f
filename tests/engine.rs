//! Cross-crate integration of the engine/session layer: payload caching
//! across consumers, determinism of cached payloads, and parallel-sweep
//! equivalence — the acceptance criteria of the engine refactor.

use firestarter2::core::payload::build_payload;
use firestarter2::prelude::*;

fn engine() -> Engine {
    Engine::new(Sku::amd_epyc_7502())
}

fn quick_cfg(freq: f64) -> RunConfig {
    RunConfig {
        freq_mhz: freq,
        duration_s: 10.0,
        start_delta_s: 2.0,
        stop_delta_s: 1.0,
        functional_iters: 200,
        ..RunConfig::default()
    }
}

/// The payload cache demonstrably avoids rebuilds: a second session
/// running the same sweep costs zero builds.
#[test]
fn repeated_sessions_share_the_payload_cache() {
    let e = engine();
    let specs = ["REG:1", "REG:4,L1_L:2", "REG:4,L1_2LS:2,L2_LS:1"];
    let run_all = |e: &Engine| {
        let mut session = e.session();
        specs
            .iter()
            .map(|s| session.run_spec(s, &quick_cfg(1500.0)).unwrap().power)
            .collect::<Vec<_>>()
    };

    let first = run_all(&e);
    let stats = e.cache_stats();
    assert_eq!(stats.misses, specs.len() as u64);
    assert_eq!(stats.hits, 0);

    let second = run_all(&e);
    let stats = e.cache_stats();
    assert_eq!(
        stats.misses,
        specs.len() as u64,
        "second pass rebuilt payloads"
    );
    assert_eq!(stats.hits, specs.len() as u64);
    // Fresh session, same seed, cached payloads: identical summaries.
    assert_eq!(first, second);
}

/// Cached payloads are bitwise what a fresh `build_payload` produces.
#[test]
fn cached_payload_machine_code_is_deterministic() {
    let e = engine();
    for spec in ["REG:1", "REG:2,L1_LS:1,RAM_P:1", "REG:8,L1_2LS:4,L2_LS:1"] {
        let cfg = e.config_for_spec(spec).unwrap();
        let cached = e.payload(&cfg);
        let fresh = build_payload(e.sku(), &cfg);
        assert_eq!(cached.machine_code, fresh.machine_code, "spec {spec}");
        assert_eq!(cached.kernel, fresh.kernel, "spec {spec}");
    }
}

/// `Engine::sweep` with N threads returns results identical to the
/// serial path — full run summaries, not just means.
#[test]
fn parallel_sweep_is_bitwise_equal_to_serial() {
    let e = engine();
    let jobs: Vec<(&str, f64)> = vec![
        ("REG:1", 1500.0),
        ("REG:1", 2500.0),
        ("REG:4,L1_2LS:3", 1500.0),
        ("REG:4,L1_2LS:2,L2_LS:1", 2200.0),
        ("REG:6,L1_2LS:3,L2_LS:1,L3_LS:1", 1500.0),
        ("REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1", 2500.0),
        ("REG:10,L1_2LS:4,L2_LS:2,L3_LS:1,RAM_L:1", 2500.0),
    ];
    let worker = |e: &Engine, _i: usize, job: &(&str, f64)| {
        let (spec, freq) = *job;
        let mut session = e.session();
        session.hold_power(60.0, 20.0, 300.0); // preheat, same per item
        let r = session.run_spec(spec, &quick_cfg(freq)).unwrap();
        (
            r.power,
            r.applied_freq_mhz,
            r.throttled,
            r.ipc,
            r.dc_access_rate,
            r.events,
            r.trivial_fraction,
        )
    };
    let serial = e.sweep(&jobs, 1, worker);
    for threads in [2, 4, 8] {
        let parallel = e.sweep(&jobs, threads, worker);
        assert_eq!(serial, parallel, "{threads}-thread sweep diverged");
    }
}

/// The NSGA-II loop stays off the engine's cache tiers: its candidates
/// are single-use (NSGA-II's genome memo answers every revisit), so a
/// tuning session, with or without the pre-screen, neither reads nor
/// fills either tier, and an identical second session selects the same
/// optimum.
#[test]
fn tuning_sessions_leave_the_engine_caches_empty() {
    let e = engine();
    let empty = CacheStats {
        hits: 0,
        misses: 0,
        entries: 0,
        exec_hits: 0,
        exec_misses: 0,
        exec_entries: 0,
    };
    for prescreen in [false, true] {
        let tune = TuneConfig {
            nsga2: Nsga2Config {
                individuals: 8,
                generations: 3,
                mutation_prob: 0.35,
                crossover_prob: 0.9,
                seed: 11,
            },
            test_duration_s: 10.0,
            preheat_s: 0.0,
            freq_mhz: 1500.0,
            unroll: Some(128),
            max_count: 4,
            prescreen,
            ..TuneConfig::default()
        };
        let r1 = e.session().tune(&tune);
        assert_eq!(r1.nsga2.history.len(), 8 * 4);
        assert_eq!(r1.prescreen_evals > 0, prescreen);
        assert_eq!(e.cache_stats(), empty, "prescreen {prescreen}");

        let r2 = e.session().tune(&tune);
        assert_eq!(e.cache_stats(), empty, "prescreen {prescreen}");
        assert_eq!(r1.best.genes, r2.best.genes);
        assert_eq!(r1.best.objectives, r2.best.objectives);
    }
}

/// Engine::measure one-shots equal the long-hand Runner path.
#[test]
fn engine_measure_equals_runner_path() {
    let e = engine();
    let cfg = e.config_for_spec("REG:4,L1_L:2,L2_L:1").unwrap();
    let run_cfg = quick_cfg(2200.0);
    let via_engine = e.measure(&cfg, &run_cfg);

    let payload = build_payload(e.sku(), &cfg);
    let mut runner = Runner::new(Sku::amd_epyc_7502());
    let direct = runner.run(&payload, &run_cfg);
    assert_eq!(via_engine.power, direct.power);
    assert_eq!(via_engine.events, direct.events);
    assert_eq!(via_engine.applied_freq_mhz, direct.applied_freq_mhz);
}
