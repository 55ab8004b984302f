//! The layer probe every traced run ends with. A workload that bypasses
//! a layer would report that layer's timings as a constant zero; the
//! probe instead makes one small call into every layer (a served-mix
//! sized request, one calibration evaluation and a 4 x 1 fit, a 4 x 1
//! tuning run) and fills only the per-layer metrics the workload did not
//! measure itself.

use crate::timing::Mark;
use crate::{autotune, derive, stack, Ctx, Outcome};
use firestarter2::arch::Sku;
use firestarter2::calib::{calibrate, CalibConfig, FleetProfile, Trace};
use firestarter2::cluster::{FleetConfig, FleetSim, PowerCdf, TemporalMode};
use firestarter2::core::autotune::genes_to_groups;
use firestarter2::core::TuneConfig;
use firestarter2::core::{Engine, EngineCaches, EngineRegistry, MixRegistry, PayloadConfig};
use firestarter2::service::{
    serve_with, Client, FleetReply, FleetRequest, FleetService, ServiceConfig, TransportConfig,
};
use firestarter2::tuning::Nsga2Config;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// The probe request: a served-mix tenant's size.
const NODES: u32 = 64;
const SAMPLES_PER_NODE: u32 = 500;

pub fn fill(ctx: &Ctx, out: &mut Outcome) {
    let seed = derive(ctx.seed, 0x9B_0001);
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    ctx.tracer.span("probe", None, None, |root| {
        service_and_fleet(ctx, root, seed, &mut m);
        calib(ctx, root, seed, &mut m);
        engine(ctx, out, seed, &mut m);
    });
    for (name, value) in m {
        out.metrics.entry(name).or_insert(value);
    }
}

fn service_and_fleet(ctx: &Ctx, root: Option<u64>, seed: u64, m: &mut BTreeMap<&'static str, f64>) {
    let t = &ctx.tracer;
    let req = FleetRequest {
        nodes: NODES,
        samples_per_node: SAMPLES_PER_NODE,
        seed: Some(seed),
        ..FleetRequest::fig1()
    };
    let line = req.to_line();
    let (_, decode_ms) = t.span("proto.request_decode", root, None, |_| {
        FleetRequest::from_line(&line)
    });
    let service = Arc::new(FleetService::new(ServiceConfig::default()));
    let (reply, handle_ms) = t.span("service.handle", root, None, |_| service.handle(&req));
    let (reply_line, encode_ms) = t.span("proto.reply_encode", root, None, |_| reply.to_line());
    let (_, reply_decode_ms) = t.span("proto.reply_decode", root, None, |_| {
        FleetReply::from_line(&reply_line)
    });
    m.insert("proto.request_decode_ms", decode_ms);
    m.insert("service.handle_ms", handle_ms);
    m.insert("proto.reply_encode_ms", encode_ms);
    m.insert("proto.reply_bytes", reply_line.len() as f64);
    m.insert("proto.reply_decode_ms", reply_decode_ms);
    m.insert(
        "engine.exec_misses_per_request",
        reply.registry.exec_misses as f64,
    );
    m.insert(
        "engine.cross_exec_hit_rate",
        reply.registry.cross_exec_hit_rate(),
    );
    m.insert(
        "engine.cross_payload_hit_rate",
        reply.registry.cross_payload_hit_rate(),
    );

    // One request over loopback, sent at a due time, as served-mix does.
    if let Ok(server) = serve_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        TransportConfig::default(),
    ) {
        if let Ok(mut client) = Client::connect(&server.local_addr().to_string()) {
            let due = Mark::now().after(Duration::from_millis(10));
            due.sleep_until();
            m.insert("served.generator_lag_ms", due.ms());
            let (round_trip, rtt_ms) =
                t.span("tcp.round_trip", root, None, |_| client.request(&line));
            let (warm, warm_ms) =
                t.span("service.handle_warm", root, None, |_| service.handle(&req));
            let (_, warm_encode_ms) = t.span("proto.reply_encode", root, None, |_| warm.to_line());
            if round_trip.is_ok() {
                m.insert(
                    "tcp.transport_wait_ms",
                    rtt_ms - (decode_ms + warm_ms + warm_encode_ms),
                );
            }
        }
        let a = service.admission_stats();
        m.insert("admission.queued", a.queued as f64);
        m.insert("admission.peak_queue_depth", a.peak_queue_depth as f64);
        m.insert("admission.shed", a.shed_busy as f64);
        server.shutdown();
    }

    // Plan cold, warm and for a new seed on a shared tier; propose,
    // merge and the CDF of the cold run.
    let mut cfg = FleetConfig::taurus_haswell_scaled(NODES);
    cfg.samples_per_node = SAMPLES_PER_NODE;
    cfg.seed = seed;
    let caches = Arc::new(EngineCaches::new());
    let registry = EngineRegistry::with_caches(seed, Arc::clone(&caches));
    let sim = FleetSim::new(cfg.clone());
    let (run, st) = stack::replay(t, root, None, &sim, &registry, ctx.threads);
    let (_, warm_plan_ms) = t.span("fleet.plan", root, None, |_| sim.plan(&registry));
    let fresh_seed = derive(seed, 1);
    let fresh = EngineRegistry::with_caches(fresh_seed, caches);
    let fresh_sim = FleetSim::new(FleetConfig {
        seed: fresh_seed,
        ..cfg
    });
    let (_, fresh_plan_ms) = t.span("fleet.plan", root, None, |_| fresh_sim.plan(&fresh));
    let (_, cdf_ms) = t.span("fleet.cdf", root, None, |_| {
        PowerCdf::from_samples(&run.samples, 0.1)
    });
    m.insert("fleet.plan_cold_ms", st.plan_ms);
    m.insert("fleet.plan_warm_ms", warm_plan_ms);
    m.insert("fleet.plan_fresh_seed_ms", fresh_plan_ms);
    m.insert("fleet.propose_ms", st.propose_ms);
    m.insert("fleet.propose_max_shard_ms", st.propose_max_shard_ms);
    m.insert("fleet.merge_ms", st.merge_ms);
    m.insert("fleet.cdf_ms", cdf_ms);
}

fn calib(ctx: &Ctx, root: Option<u64>, seed: u64, m: &mut BTreeMap<&'static str, f64>) {
    let t = &ctx.tracer;
    let defaults = CalibConfig::default();
    let mut cfg = FleetConfig {
        samples_per_node: defaults.eval_ticks,
        seed,
        temporal: TemporalMode::Episodes,
        ..FleetConfig::taurus_haswell_scaled(defaults.eval_nodes)
    };
    FleetProfile::exemplar().apply(&mut cfg);
    let registry = EngineRegistry::with_seed(seed);
    let (run, st) = stack::replay(
        t,
        root,
        None,
        &FleetSim::new(cfg.clone()),
        &registry,
        ctx.threads,
    );
    let (trace, label_ms) = t.span("calib.eval_label", root, None, |_| {
        Trace::from_fleet(&cfg, &run.samples)
    });
    let (_, targets_ms) = t.span("calib.eval_targets", root, None, |_| trace.targets());
    let csv = trace.to_csv();
    let (parsed, load_ms) = t.span("calib.trace_load", root, None, |_| Trace::from_csv(&csv));
    m.insert("calib.eval_plan_ms", st.plan_ms);
    m.insert("calib.eval_propose_ms", st.propose_ms);
    m.insert("calib.eval_merge_ms", st.merge_ms);
    m.insert("calib.eval_label_ms", label_ms);
    m.insert("calib.eval_targets_ms", targets_ms);
    m.insert("calib.trace_load_ms", load_ms);
    let fit_cfg = CalibConfig {
        seed,
        individuals: 4,
        generations: 1,
        ..defaults
    };
    if let Ok(trace) = parsed {
        let (fit, fit_ms) = t.span("calib.fit", root, None, |_| calibrate(&trace, &fit_cfg));
        if let Ok(fit) = fit {
            m.insert("calib.fit_ms", fit_ms);
            m.insert("calib.evaluations", f64::from(fit.evaluations));
            m.insert(
                "calib.live_eval_share",
                f64::from(fit.evaluations - fit.nsga_cache_hits) / f64::from(fit.evaluations),
            );
        }
    }
}

fn engine(ctx: &Ctx, out: &mut Outcome, seed: u64, m: &mut BTreeMap<&'static str, f64>) {
    let sku = Sku::amd_epyc_7502();
    let engine = Engine::with_seed(sku.clone(), seed);
    let cfg = TuneConfig {
        nsga2: Nsga2Config {
            individuals: 4,
            generations: 1,
            seed,
            ..Nsga2Config::default()
        },
        mix: MixRegistry::default_for(sku.uarch),
        ..TuneConfig::default()
    };
    let (result, tune_ms) = ctx
        .tracer
        .span("tune.library", None, None, |_| engine.session().tune(&cfg));
    let history = &result.nsga2.history;
    let distinct: BTreeSet<&Vec<u32>> = history.iter().map(|ind| &ind.genes).collect();
    let evaluations = history.len() as f64;
    m.insert("tune.evaluations", evaluations);
    m.insert("tune.distinct_payloads", distinct.len() as f64);
    m.insert(
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
    let mut layers = Outcome::new();
    let layer_ms = autotune::engine_layers(ctx, &mut layers, &sku, seed, &configs);
    out.check(layers.correct, || layers.notes.join("; "));
    m.extend(layers.metrics);
    m.insert("tune.other_ms", tune_ms - layer_ms);
}
