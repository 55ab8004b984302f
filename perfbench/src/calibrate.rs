//! `calibrate`: the CLI's `--calibrate` at its default search budget
//! (40 individuals x 20 generations) on a labeled trace that set-up
//! generates from the seed. No JSON and no service: every NSGA-II
//! evaluation runs a small episode fleet, re-labels it and scores it.

use crate::stack;
use crate::timing::Mark;
use crate::{args, cpu_ms, derive, out_dir, stats, timed_cli_calls, Ctx, EndToEnd, Outcome};
use firestarter2::calib::{calibrate, CalibConfig, FleetProfile, Trace};
use firestarter2::cluster::{FleetConfig, FleetSim, TemporalMode};
use firestarter2::core::EngineRegistry;
use std::collections::BTreeMap;

/// Trace shape: an episode fleet of 96 nodes x 1200 ticks.
const TRACE_NODES: u32 = 96;
const TRACE_TICKS: u32 = 1200;
/// The CLI's default search budget.
const INDIVIDUALS: usize = 40;
const GENERATIONS: u32 = 20;
/// The fidelity tolerances CI gates the calibrator on, on the
/// self-clone fixture below.
const MAX_SHARE_ERROR: f64 = 0.02;
const MAX_AUTOCORR_ERROR: f64 = 0.02;
const MAX_DWELL_REL_ERROR: f64 = 0.10;
/// The CI self-clone fixture: trace seed, fit seed and search budget.
const FIXTURE_TRACE_SEED: u64 = 0x7AC3_D00D;
const FIXTURE_FIT_SEED: u64 = 0xCA11_BF17;
const FIXTURE_INDIVIDUALS: usize = 12;
const FIXTURE_GENERATIONS: u32 = 6;
/// Calibration seeds the timed loop alternates between: the search
/// trajectory, and so the cost of a fit, varies by about ±8 % between
/// seeds.
const CALIB_SEEDS: u64 = 2;
const SETUPS: usize = 3;

/// The target trace: the exemplar profile (the fixture the CI fidelity
/// tolerances are defined on) driving an episode fleet.
fn target_trace(trace_seed: u64) -> Trace {
    let mut cfg = FleetConfig {
        samples_per_node: TRACE_TICKS,
        seed: trace_seed,
        temporal: TemporalMode::Episodes,
        ..FleetConfig::taurus_haswell_scaled(TRACE_NODES)
    };
    FleetProfile::exemplar().apply(&mut cfg);
    let run = FleetSim::new(cfg.clone()).run();
    Trace::from_fleet(&cfg, &run.samples)
}

fn calib_config(calib_seed: u64) -> CalibConfig {
    CalibConfig {
        seed: calib_seed,
        threads: 0,
        individuals: INDIVIDUALS,
        generations: GENERATIONS,
        ..CalibConfig::default()
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();
    let trace_seed = derive(ctx.seed, 0xCA_0001);
    let calib_seeds: Vec<u64> = (0..CALIB_SEEDS)
        .map(|k| derive(ctx.seed, 0xCA_0002 + k))
        .collect();
    let calib_seed = calib_seeds[0];
    let path = out_dir().join(format!("calib-trace-{}.csv", std::process::id()));

    // Set-up, costed in CPU time like the calls: generate the trace and
    // write the CSV the CLI reads.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut csv = String::new();
    for _ in 0..SETUPS {
        let cpu = cpu_ms();
        csv = target_trace(trace_seed).to_csv();
        std::fs::write(&path, &csv).expect("write the target trace");
        setups.push((cpu_ms() - cpu) / 1000.0);
    }
    let variants: Vec<Vec<String>> = calib_seeds
        .iter()
        .map(|seed| {
            args(&[
                "--calibrate",
                &path.to_string_lossy(),
                "--seed",
                &seed.to_string(),
                "--individuals",
                &INDIVIDUALS.to_string(),
                "--generations",
                &GENERATIONS.to_string(),
            ])
        })
        .collect();

    let calls = timed_cli_calls(ctx, &mut out, &variants);
    let _ = std::fs::remove_file(&path);
    let Some(first) = calls.first[0].clone() else {
        return out;
    };
    out.set_end_to_end(
        ctx.traced(),
        &EndToEnd::from_calls(stats::median(&setups), &calls),
    );

    // Untimed library fit of the same trace with the first seed: the
    // profile the CLI printed must be byte-identical.
    let tracer = &ctx.tracer;
    let (trace, load_ms) = tracer.span("calib.trace_load", None, None, |_| Trace::from_csv(&csv));
    let trace = trace.expect("the generated trace parses");
    let cfg = calib_config(calib_seed);
    let (fit, fit_ms) = tracer.span("calib.fit", None, None, |_| calibrate(&trace, &cfg));
    let fit = fit.expect("the exemplar trace calibrates");
    let profile = fit.profile.to_text();
    out.check(first.contains(&profile), || {
        "the CLI's fitted profile differs from the library fit".to_string()
    });
    // The fidelity tolerances are gated on the CI fixture. On a seeded
    // trace they are sampling statistics: the generating profile itself,
    // cloned on another seed, exceeds the 0.10 dwell tolerance on about
    // one seed in five, so the seeded fit's numbers are reported only.
    let fixture = calibrate(
        &target_trace(FIXTURE_TRACE_SEED),
        &CalibConfig {
            individuals: FIXTURE_INDIVIDUALS,
            generations: FIXTURE_GENERATIONS,
            ..calib_config(FIXTURE_FIT_SEED)
        },
    )
    .expect("the CI fixture calibrates");
    let r = &fixture.report;
    out.check(r.max_share_error <= MAX_SHARE_ERROR, || {
        format!(
            "fixture share error {} > {MAX_SHARE_ERROR}",
            r.max_share_error
        )
    });
    out.check(r.autocorr_error <= MAX_AUTOCORR_ERROR, || {
        format!(
            "fixture lag-1 autocorr error {} > {MAX_AUTOCORR_ERROR}",
            r.autocorr_error
        )
    });
    out.check(r.max_dwell_rel_error <= MAX_DWELL_REL_ERROR, || {
        format!(
            "fixture dwell error {} > {MAX_DWELL_REL_ERROR}",
            r.max_dwell_rel_error
        )
    });
    let seeded = &fit.report;
    out.notes.push(format!(
        "checked: {} calls over {CALIB_SEEDS} seeds, outputs identical per seed; the first \
         seed's profile equals the library fit; CI fixture within \
         tolerances (share {:.4}, autocorr {:.4}, max dwell {:.4}); seeded fit, not gated: \
         share {:.4}, autocorr {:.4}, max dwell {:.4}",
        calls.cpu_ms.len(),
        r.max_share_error,
        r.autocorr_error,
        r.max_dwell_rel_error,
        seeded.max_share_error,
        seeded.autocorr_error,
        seeded.max_dwell_rel_error
    ));

    if ctx.traced() {
        out.set("calib.trace_load_ms", load_ms);
        out.set("calib.fit_ms", fit_ms);
        out.set("calib.evaluations", f64::from(fit.evaluations));
        out.set(
            "calib.live_eval_share",
            f64::from(fit.evaluations - fit.nsga_cache_hits) / f64::from(fit.evaluations),
        );
        replay_evaluations(ctx, &mut out, &fit.profile);
    }
    out
}

/// Replays evaluation fleets of the fitted profile at the calibrator's
/// evaluation size, on one shared registry as the search loop uses:
/// plan, propose, merge, re-label, score.
fn replay_evaluations(ctx: &Ctx, out: &mut Outcome, profile: &FleetProfile) {
    let defaults = CalibConfig::default();
    let eval_seed = derive(ctx.seed, 0xCA_0003);
    let mut cfg = FleetConfig {
        samples_per_node: defaults.eval_ticks,
        seed: eval_seed,
        ..FleetConfig::taurus_haswell_scaled(defaults.eval_nodes)
    };
    profile.apply(&mut cfg);
    let sim = FleetSim::new(cfg.clone());
    let registry = EngineRegistry::with_seed(eval_seed);
    let tracer = &ctx.tracer;
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Mark::now().after(ctx.replay_budget());
    let mut replay = 0u64;
    while replay == 0 || deadline.left().is_some() {
        let id = Some(1_000_000 + replay);
        tracer.span("calib.eval", None, id, |root| {
            let (run, t) = stack::replay(tracer, root, id, &sim, &registry, ctx.threads);
            let (trace, label_ms) = tracer.span("calib.eval_label", root, id, |_| {
                Trace::from_fleet(&cfg, &run.samples)
            });
            let (_, targets_ms) = tracer.span("calib.eval_targets", root, id, |_| trace.targets());
            m.entry("calib.eval_plan_ms").or_default().push(t.plan_ms);
            m.entry("calib.eval_propose_ms")
                .or_default()
                .push(t.propose_ms);
            m.entry("calib.eval_merge_ms").or_default().push(t.merge_ms);
            m.entry("calib.eval_label_ms").or_default().push(label_ms);
            m.entry("calib.eval_targets_ms")
                .or_default()
                .push(targets_ms);
        });
        replay += 1;
    }
    out.notes.push(format!("evaluation replays: {replay}"));
    for (name, values) in m {
        out.set(name, stats::median(&values));
    }
}
