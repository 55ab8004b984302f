//! `autotune`: the CLI's `--optimize=NSGA2` on the simulated Rome SKU
//! at the paper's defaults (40 individuals x 20 generations, §IV-E).
//! The only workload that generates, decodes, functionally executes
//! and power-models hundreds of distinct payloads; it touches no
//! fleet, service or JSON code.

use crate::{args, cli_in_child, derive, stats, timed_cli_calls, Ctx, EndToEnd, Outcome};
use firestarter2::arch::Sku;
use firestarter2::core::autotune::genes_to_groups;
use firestarter2::core::groups::format_groups;
use firestarter2::core::{Engine, InitScheme, MixRegistry, PayloadConfig, RunConfig, TuneConfig};
use firestarter2::tuning::Nsga2Config;
use std::collections::BTreeSet;

const INDIVIDUALS: usize = 40;
const GENERATIONS: u32 = 20;
/// The CLI's defaults for the remaining tuning flags.
const MUTATION_PROB: f64 = 0.35;
const TEST_DURATION_S: f64 = 10.0;
const PREHEAT_S: f64 = 240.0;
const MAX_COUNT: u32 = 8;
/// The tuner's per-candidate functional iterations.
const CANDIDATE_FUNCTIONAL_ITERS: u64 = 64;
/// Tuning runs the timed loop cycles through, each with its own seed, so
/// a run's figures do not hang on one search trajectory: the distinct
/// payloads a 40 x 20 search builds vary by about ±6 % between seeds.
const TUNE_SEEDS: u64 = 4;
const SETUPS: usize = 3;

fn cli_args(tune_seed: u64, individuals: usize, generations: u32) -> Vec<String> {
    args(&[
        "--optimize=NSGA2",
        "--cpu",
        "rome",
        "--seed",
        &tune_seed.to_string(),
        "--individuals",
        &individuals.to_string(),
        "--generations",
        &generations.to_string(),
    ])
}

/// The tuning configuration the CLI builds from `cli_args`.
fn tune_config(tune_seed: u64) -> TuneConfig {
    TuneConfig {
        nsga2: Nsga2Config {
            individuals: INDIVIDUALS,
            generations: GENERATIONS,
            mutation_prob: MUTATION_PROB,
            crossover_prob: 0.9,
            seed: tune_seed,
        },
        test_duration_s: TEST_DURATION_S,
        preheat_s: PREHEAT_S,
        freq_mhz: 0.0,
        mix: MixRegistry::default_for(Sku::amd_epyc_7502().uarch),
        unroll: None,
        max_count: MAX_COUNT,
        prescreen: false,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let seeds: Vec<u64> = (0..TUNE_SEEDS)
        .map(|k| derive(ctx.seed, 0xA7_0001 + k))
        .collect();
    let variants: Vec<Vec<String>> = seeds
        .iter()
        .map(|&s| cli_args(s, INDIVIDUALS, GENERATIONS))
        .collect();
    let tune_seed = seeds[0];

    // Set-up: a small tuning call on the same path (two generations of
    // eight), costed in the CPU time of its process like the calls.
    let warm_argv = cli_args(tune_seed, 8, 2);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        match cli_in_child(&warm_argv) {
            Ok(c) => setups.push(c.cpu_ms / 1000.0),
            Err(e) => out.check(false, || format!("set-up tuning call failed: {e}")),
        }
    }

    let calls = timed_cli_calls(ctx, &mut out, &variants);
    let Some(first) = calls.first[0].clone() else {
        return out;
    };
    let e2e = EndToEnd::from_calls(stats::median(&setups), &calls);
    out.set_end_to_end(ctx.traced(), &e2e);

    // Untimed library tuning run of the first seed: the CLI's selected
    // optimum must be the library's.
    let sku = Sku::amd_epyc_7502();
    let cfg = tune_config(tune_seed);
    let engine = Engine::with_seed(sku.clone(), tune_seed);
    let (result, tune_ms) = ctx
        .tracer
        .span("tune.library", None, None, |_| engine.session().tune(&cfg));
    let optimum = format!(
        "selected optimum: --run-instruction-groups={} --set-line-count={}\n",
        format_groups(&result.best_groups),
        result.unroll
    );
    out.check(first.contains(&optimum), || {
        format!("CLI optimum differs from the library's: want {optimum}")
    });
    let history = &result.nsga2.history;
    let distinct: BTreeSet<&Vec<u32>> = history.iter().map(|ind| &ind.genes).collect();
    out.notes.push(format!(
        "checked: {} calls over {TUNE_SEEDS} seeds, outputs identical per seed; the first \
         seed's optimum equals the library run ({} evaluations, {} distinct payloads, \
         {tune_ms:.1} ms)",
        calls.cpu_ms.len(),
        history.len(),
        distinct.len()
    ));

    if ctx.traced() {
        let evaluations = history.len() as f64;
        out.set("tune.evaluations", evaluations);
        out.set("tune.distinct_payloads", distinct.len() as f64);
        out.set(
            "tune.live_eval_share",
            (evaluations - f64::from(result.nsga2.cache_hits)) / evaluations,
        );
        let configs: Vec<PayloadConfig> = distinct
            .iter()
            .map(|genes| PayloadConfig {
                mix: cfg.mix,
                groups: genes_to_groups(genes),
                unroll: result.unroll,
            })
            .collect();
        let layer_ms = engine_layers(ctx, &mut out, &sku, tune_seed, &configs);
        out.set("tune.other_ms", tune_ms - layer_ms);
    }
    out
}

/// Times each engine layer over the distinct candidates on a fresh
/// engine: cold payload build, kernel decode, the functional pass, and
/// the measured run with that pass cached. Returns the summed time.
pub fn engine_layers(
    ctx: &Ctx,
    out: &mut Outcome,
    sku: &Sku,
    seed: u64,
    configs: &[PayloadConfig],
) -> f64 {
    let engine = Engine::with_seed(sku.clone(), seed);
    let freq = f64::from(sku.nominal_mhz());
    // The tuner's per-candidate run window (`-t 10`).
    let run_cfg = RunConfig {
        freq_mhz: freq,
        duration_s: TEST_DURATION_S,
        start_delta_s: (TEST_DURATION_S * 0.2).min(5.0),
        stop_delta_s: (TEST_DURATION_S * 0.1).min(2.0),
        functional_iters: CANDIDATE_FUNCTIONAL_ITERS,
        ..RunConfig::default()
    };
    let tracer = &ctx.tracer;
    let mut session = engine.session();
    let (mut build, mut decode, mut functional, mut run) = (0.0, 0.0, 0.0, 0.0);
    for (i, config) in configs.iter().enumerate() {
        let id = Some(1_000_000 + i as u64);
        tracer.span("tune.candidate", None, id, |root| {
            build += tracer
                .span("engine.payload", root, id, |_| engine.payload(config))
                .1;
            decode += tracer
                .span("engine.payload_decoded", root, id, |_| {
                    engine.payload_decoded(config)
                })
                .1;
            functional += tracer
                .span("engine.functional_outcome", root, id, |_| {
                    engine.functional_outcome(
                        config,
                        InitScheme::V2Safe,
                        seed,
                        CANDIDATE_FUNCTIONAL_ITERS,
                    )
                })
                .1;
            run += tracer
                .span("session.run", root, id, |_| session.run(config, &run_cfg))
                .1;
        });
    }
    let stats = engine.cache_stats();
    out.check(
        stats.misses == configs.len() as u64 && stats.exec_misses == configs.len() as u64,
        || format!("engine layer replay was not cold-then-cached: {stats:?}"),
    );
    out.set("engine.payload_build_ms", build);
    out.set("engine.decode_ms", decode);
    out.set("sim.functional_ms", functional);
    out.set("runner.run_ms", run);
    build + decode + functional + run
}
