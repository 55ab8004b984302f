//! `fig1-oneshot` and `fig1-oneshot-budget`: the CLI's `--fleet` on the
//! Fig. 1 fleet (612 nodes x 2000 samples), i.i.d. or as budgeted
//! episodes under fig01's 90 kW budget. Each call builds a fresh
//! service, so it pays what a CLI user pays every time: cold plan,
//! propose, merge, the JSON round trip of the reply through the
//! in-process broker, and the client-side CDF.

use crate::stack::{self, StackTimes};
use crate::timing::Mark;
use crate::{
    args, cli_in_child, cpu_ms, derive, out_dir, sample_hash, stats, timed_cli_calls, Ctx,
    EndToEnd, Outcome,
};
use firestarter2::cluster::{FleetConfig, FleetSim, PowerCdf, TemporalMode};
use firestarter2::core::EngineRegistry;
use firestarter2::service::{FleetReply, FleetRequest, FleetService, ServiceConfig};
use std::collections::BTreeMap;

const NODES: u32 = 612;
const SAMPLES_PER_NODE: u32 = 2000;
/// fig01's facility budget; it binds on the Fig. 1 fleet.
const BUDGET_W: f64 = 90_000.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

fn cli_args(fleet_seed: u64, budget: bool) -> Vec<String> {
    let seed = fleet_seed.to_string();
    let mut argv = args(&["--fleet", "--seed", &seed]);
    if budget {
        argv.extend(args(&[
            "--fleet-temporal",
            "episodes",
            "--budget-w",
            &BUDGET_W.to_string(),
        ]));
    }
    argv
}

/// The simulator configuration the CLI call describes, built directly
/// so the reference does not go through the request layer.
fn config(fleet_seed: u64, budget: bool) -> FleetConfig {
    let mut cfg = FleetConfig::taurus_haswell_scaled(NODES);
    cfg.samples_per_node = SAMPLES_PER_NODE;
    cfg.seed = fleet_seed;
    if budget {
        cfg.temporal = TemporalMode::Episodes;
        cfg.budget_w = Some(BUDGET_W);
    }
    cfg
}

pub fn run(ctx: &Ctx, budget: bool) -> Outcome {
    let mut out = Outcome::new();
    let fleet_seed = derive(ctx.seed, 0xF1_0001);
    let argv = cli_args(fleet_seed, budget);

    // Set-up: the reference run the output checks compare against,
    // costed in CPU time like the calls.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reference = Vec::new();
    for _ in 0..SETUPS {
        let cpu = cpu_ms();
        reference = FleetSim::new(config(fleet_seed, budget)).run().samples;
        setups.push((cpu_ms() - cpu) / 1000.0);
    }
    let reference_hash = sample_hash(&reference);

    // Timed loop: back-to-back CLI calls.
    let calls = timed_cli_calls(ctx, &mut out, std::slice::from_ref(&argv));
    let Some(first) = calls.first[0].clone() else {
        return out;
    };
    out.set_end_to_end(
        ctx.traced(),
        &EndToEnd::from_calls(stats::median(&setups), &calls),
    );

    // Untimed --dump-samples pass: same report, samples bit-identical
    // to the direct simulator run.
    let path = out_dir().join(format!("fig1-samples-{}.txt", std::process::id()));
    let mut dump_argv = argv.clone();
    dump_argv.extend(args(&["--dump-samples", &path.to_string_lossy()]));
    match cli_in_child(&dump_argv) {
        Ok(c) => out.check(c.report == first, || {
            "--dump-samples report differs from the timed calls".to_string()
        }),
        Err(e) => out.check(false, || format!("--dump-samples call failed: {e}")),
    }
    let dumped: Vec<u64> = std::fs::read_to_string(&path)
        .unwrap_or_default()
        .lines()
        .map(|l| u64::from_str_radix(l, 16).unwrap_or(u64::MAX))
        .collect();
    let _ = std::fs::remove_file(&path);
    let want: Vec<u64> = reference.iter().map(|s| s.to_bits()).collect();
    out.check(dumped == want, || {
        format!(
            "dumped samples ({}) differ from FleetSim::run ({})",
            dumped.len(),
            want.len()
        )
    });
    out.notes.push(format!(
        "checked: {} report texts identical; --dump-samples equals FleetSim::run ({} samples, hash {reference_hash:016x})",
        calls.cpu_ms.len(),
        reference.len()
    ));

    if ctx.traced() {
        layers(ctx, &mut out, fleet_seed, budget, reference_hash);
    }
    out
}

/// Replays the call layer by layer: request decode, a fresh service's
/// `handle`, reply encode and decode, the client-side CDF, and the plan,
/// propose and merge inside `handle` on a fresh registry.
fn layers(ctx: &Ctx, out: &mut Outcome, fleet_seed: u64, budget: bool, reference_hash: u64) {
    let req = FleetRequest {
        seed: Some(fleet_seed),
        temporal: if budget {
            TemporalMode::Episodes
        } else {
            TemporalMode::Iid
        },
        budget_w: budget.then_some(BUDGET_W),
        ..FleetRequest::fig1()
    };
    let line = req.to_line();
    let tracer = &ctx.tracer;
    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Mark::now().after(ctx.replay_budget());
    let mut replay = 0u64;
    while replay == 0 || deadline.left().is_some() {
        // Request ids above the timed calls' ids.
        let id = Some(1_000_000 + replay);
        tracer.span("replay", None, id, |root| {
            let (decoded, ms) = tracer.span("proto.request_decode", root, id, |_| {
                FleetRequest::from_line(&line)
            });
            m.entry("proto.request_decode_ms").or_default().push(ms);
            out.check(decoded.as_ref() == Ok(&req), || {
                "request line does not decode to the request".to_string()
            });

            let service = FleetService::new(ServiceConfig::default());
            let (reply, ms) = tracer.span("service.handle", root, id, |_| service.handle(&req));
            m.entry("service.handle_ms").or_default().push(ms);
            out.check(reply.ok, || format!("handle failed: {:?}", reply.error));
            let (reply_line, ms) = tracer.span("proto.reply_encode", root, id, |_| reply.to_line());
            m.entry("proto.reply_encode_ms").or_default().push(ms);
            m.entry("proto.reply_bytes")
                .or_default()
                .push(reply_line.len() as f64);
            let (back, ms) = tracer.span("proto.reply_decode", root, id, |_| {
                FleetReply::from_line(&reply_line)
            });
            m.entry("proto.reply_decode_ms").or_default().push(ms);
            let samples = back.map(|r| r.samples).unwrap_or_default();
            out.check(sample_hash(&samples) == reference_hash, || {
                "decoded reply samples differ from FleetSim::run".to_string()
            });
            let (_, ms) = tracer.span("fleet.cdf", root, id, |_| {
                PowerCdf::from_samples(&samples, 0.1)
            });
            m.entry("fleet.cdf_ms").or_default().push(ms);
            m.entry("engine.exec_misses_per_request")
                .or_default()
                .push(reply.registry.exec_misses as f64);
            m.entry("engine.cross_exec_hit_rate")
                .or_default()
                .push(reply.registry.cross_exec_hit_rate());
            m.entry("engine.cross_payload_hit_rate")
                .or_default()
                .push(reply.registry.cross_payload_hit_rate());
            drop(service);

            // Inside handle: a fresh service has a fresh registry.
            let registry = EngineRegistry::with_seed(fleet_seed);
            let sim = FleetSim::new(config(fleet_seed, budget));
            let (run, t) = stack::replay(tracer, root, id, &sim, &registry, ctx.threads);
            out.check(sample_hash(&run.samples) == reference_hash, || {
                "replayed plan/propose/merge differs from FleetSim::run".to_string()
            });
            let StackTimes {
                plan_ms,
                propose_ms,
                propose_max_shard_ms,
                merge_ms,
            } = t;
            m.entry("fleet.plan_cold_ms").or_default().push(plan_ms);
            m.entry("fleet.propose_ms").or_default().push(propose_ms);
            m.entry("fleet.propose_max_shard_ms")
                .or_default()
                .push(propose_max_shard_ms);
            m.entry("fleet.merge_ms").or_default().push(merge_ms);
        });
        replay += 1;
    }
    out.notes.push(format!("layer replays: {replay}"));
    for (name, values) in m {
        out.set(name, stats::median(&values));
    }
}
