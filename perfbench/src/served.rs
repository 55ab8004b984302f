//! `served-mix`: a resident `FleetService` behind `serve_with` on
//! loopback, loaded through the stock `Client` (the one `--connect`
//! uses). An open loop sends a seeded Poisson schedule at a fixed rate
//! below capacity; a closed loop then runs one connection per host
//! core back to back. The tenant mix is 64 nodes x 500 samples in
//! i.i.d., episode and budgeted-episode modes; half the requests repeat
//! seeds from a small pool (the read side of the shared engine caches),
//! half bring never-seen seeds (the fill side), and a quarter ask only
//! for the CDF, where the reply codec does little.

use crate::stack;
use crate::timing::Mark;
use crate::{derive, sample_hash, stats, Ctx, EndToEnd, Outcome};
use firestarter2::cluster::{FleetConfig, FleetSim, PowerCdf, TemporalMode};
use firestarter2::core::{EngineCaches, EngineRegistry, RegistryStats};
use firestarter2::service::{
    serve_with, Client, FleetReply, FleetRequest, FleetService, Server, ServiceConfig,
    TransportConfig,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const NODES: u32 = 64;
const SAMPLES_PER_NODE: u32 = 500;
/// fig01's 90 kW budget for 612 nodes, scaled to 64 nodes; it binds.
const BUDGET_W: f64 = 9_400.0;
/// Seeds repeat tenants draw from.
const POOL_SEEDS: u64 = 3;
/// Open-loop arrival rate, requests per second.
pub const OPEN_LOOP_RPS: f64 = 8.0;
/// Share of the timed loop spent in the open loop; the rest is the
/// closed loop.
const OPEN_SHARE: f64 = 0.8;
/// A reply later than this after its due time counts as failed.
pub const LATENCY_LIMIT_MS: f64 = 1000.0;
const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Mode {
    Iid,
    Episodes,
    Budget,
}

const MODES: [Mode; 3] = [Mode::Iid, Mode::Episodes, Mode::Budget];

/// One tenant request of the mix.
#[derive(Debug, Clone, Copy)]
struct Tenant {
    seed: u64,
    mode: Mode,
    cdf_only: bool,
    fresh: bool,
}

fn pool_seed(bench_seed: u64, k: u64) -> u64 {
    derive(bench_seed, 0x900_0000 + k)
}

/// Requests per block of the tenant sequence. Each block holds every
/// combination of mode (3), fresh or repeat seed (2) and response kind
/// in the same proportions — half fresh, a quarter CDF-only — in a
/// seeded order, so every seed sees the same mix.
const BLOCK: u64 = 24;

/// Request `i` of the run's tenant sequence.
fn tenant(bench_seed: u64, i: u64) -> Tenant {
    let (block, pos) = (i / BLOCK, i % BLOCK);
    // Seeded Fisher-Yates shuffle of the block's slots.
    let mut slots: Vec<u64> = (0..BLOCK).collect();
    for j in (1..slots.len()).rev() {
        let r = derive(bench_seed, 0x5B_0000_0000 + block * BLOCK + j as u64);
        slots.swap(j, (r % (j as u64 + 1)) as usize);
    }
    let k = slots[pos as usize];
    let fresh = (k / 3) % 2 == 1;
    Tenant {
        seed: if fresh {
            derive(bench_seed, 0xF5_0000_0000 + i)
        } else {
            pool_seed(
                bench_seed,
                derive(bench_seed, 0x9A_0000_0000 + i) % POOL_SEEDS,
            )
        },
        mode: MODES[(k % 3) as usize],
        cdf_only: k < 6,
        fresh,
    }
}

impl Tenant {
    fn request(&self) -> FleetRequest {
        FleetRequest {
            nodes: NODES,
            samples_per_node: SAMPLES_PER_NODE,
            seed: Some(self.seed),
            temporal: match self.mode {
                Mode::Iid => TemporalMode::Iid,
                Mode::Episodes | Mode::Budget => TemporalMode::Episodes,
            },
            budget_w: (self.mode == Mode::Budget).then_some(BUDGET_W),
            want_samples: !self.cdf_only,
            want_cdf: self.cdf_only,
            ..FleetRequest::fig1()
        }
    }

    /// The simulator configuration, built without the request layer.
    fn config(&self) -> FleetConfig {
        let mut cfg = FleetConfig::taurus_haswell_scaled(NODES);
        cfg.samples_per_node = SAMPLES_PER_NODE;
        cfg.seed = self.seed;
        if self.mode != Mode::Iid {
            cfg.temporal = TemporalMode::Episodes;
        }
        if self.mode == Mode::Budget {
            cfg.budget_w = Some(BUDGET_W);
        }
        cfg
    }
}

fn cdf_hash(bins: &[(f64, f64)], min_w: f64, max_w: f64, samples: usize) -> u64 {
    let flat: Vec<f64> = bins
        .iter()
        .flat_map(|&(w, f)| [w, f])
        .chain([min_w, max_w, samples as f64])
        .collect();
    sample_hash(&flat)
}

/// What the output check needs from a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    samples: u64,
    cdf: Option<u64>,
}

impl Digest {
    fn of_reply(r: &FleetReply) -> Digest {
        Digest {
            samples: sample_hash(&r.samples),
            cdf: r
                .cdf
                .as_ref()
                .map(|c| cdf_hash(&c.bins, c.min_w, c.max_w, c.samples)),
        }
    }

    /// The digest a correct reply to `t` has, from its direct run.
    fn expected(t: &Tenant, samples: &[f64]) -> Digest {
        if t.cdf_only {
            let c = PowerCdf::from_samples(samples, 0.1);
            Digest {
                samples: sample_hash(&[]),
                cdf: Some(cdf_hash(&c.bins, c.min_w, c.max_w, c.samples)),
            }
        } else {
            Digest {
                samples: sample_hash(samples),
                cdf: None,
            }
        }
    }
}

/// One request as the load generator saw it.
struct Sent {
    index: u64,
    latency_ms: f64,
    lag_ms: f64,
    /// The reply digest, or why the request failed.
    result: Result<Digest, String>,
}

struct Resident {
    service: Arc<FleetService>,
    server: Server,
    addr: String,
}

/// Starts the service and warms the repeat pool: every pool seed in
/// every mode, once.
fn start(bench_seed: u64) -> Result<Resident, String> {
    let service = Arc::new(FleetService::new(ServiceConfig::default()));
    let server = serve_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        TransportConfig::default(),
    )
    .map_err(|e| format!("serve_with: {e}"))?;
    let addr = server.local_addr().to_string();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    for k in 0..POOL_SEEDS {
        for mode in MODES {
            let t = Tenant {
                seed: pool_seed(bench_seed, k),
                mode,
                cdf_only: false,
                fresh: false,
            };
            let line = client
                .request(&t.request().to_line())
                .map_err(|e| format!("warm-up request: {e}"))?;
            let reply = FleetReply::from_line(&line).map_err(|e| format!("warm-up reply: {e}"))?;
            if !reply.ok {
                return Err(format!("warm-up reply failed: {:?}", reply.error));
            }
        }
    }
    Ok(Resident {
        service,
        server,
        addr,
    })
}

/// Sends request `index` on `client` (reconnecting after a transport
/// error) and decodes the reply, inside a span for the request.
fn send(ctx: &Ctx, addr: &str, client: &mut Option<Client>, index: u64) -> Result<Digest, String> {
    let tracer = &ctx.tracer;
    let id = Some(index);
    let line = tenant(ctx.seed, index).request().to_line();
    tracer
        .span("served.request", None, id, |root| {
            if client.is_none() {
                *client = Some(Client::connect(addr).map_err(|e| format!("connect: {e}"))?);
            }
            let c = client.as_mut().expect("connected above");
            let (reply_line, _) = tracer.span("client.request", root, id, |_| c.request(&line));
            let reply_line = reply_line.map_err(|e| {
                *client = None;
                format!("transport: {e}")
            })?;
            let (reply, _) = tracer.span("proto.reply_decode", root, id, |_| {
                FleetReply::from_line(&reply_line)
            });
            let reply = reply.map_err(|e| format!("reply decode: {e}"))?;
            if reply.ok {
                Ok(Digest::of_reply(&reply))
            } else {
                Err(format!(
                    "typed failure [{}]: {}",
                    reply.error_kind.as_deref().unwrap_or("-"),
                    reply.error.as_deref().unwrap_or("-")
                ))
            }
        })
        .0
}

/// Seeded Poisson arrival offsets (seconds) inside `duration`.
fn schedule(bench_seed: u64, duration: Duration) -> Vec<f64> {
    let mut due = Vec::new();
    let mut t = 0.0;
    for i in 0u64.. {
        let u = ((derive(bench_seed, 0xD0E_0000_0000 + i) >> 11) + 1) as f64 / (1u64 << 53) as f64;
        t += -u.ln() / OPEN_LOOP_RPS;
        if t >= duration.as_secs_f64() {
            break;
        }
        due.push(t);
    }
    due
}

/// The open loop: each request is sent at its due time by one of
/// `ctx.threads` connections, or as soon as one is free.
fn open_loop(ctx: &Ctx, addr: &str, due: &[f64]) -> Vec<Sent> {
    let next = AtomicU64::new(0);
    let sent = Mutex::new(Vec::with_capacity(due.len()));
    let start = Mark::now();
    std::thread::scope(|scope| {
        for _ in 0..ctx.threads {
            scope.spawn(|| {
                let mut client = None;
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&offset) = due.get(index as usize) else {
                        break;
                    };
                    let due_at = start.after(Duration::from_secs_f64(offset));
                    due_at.sleep_until();
                    let lag_ms = due_at.ms();
                    let result = send(ctx, addr, &mut client, index);
                    let latency_ms = due_at.ms();
                    sent.lock().expect("result list poisoned").push(Sent {
                        index,
                        latency_ms,
                        lag_ms,
                        result,
                    });
                }
            });
        }
    });
    sent.into_inner().expect("result list poisoned")
}

/// The closed loop: `ctx.threads` connections send back to back until
/// `duration` has passed. Returns the requests and the elapsed time
/// to the last reply.
fn closed_loop(ctx: &Ctx, addr: &str, first_index: u64, duration: Duration) -> (Vec<Sent>, f64) {
    let next = AtomicU64::new(first_index);
    let sent = Mutex::new(Vec::new());
    let start = Mark::now();
    let end = start.after(duration);
    std::thread::scope(|scope| {
        for _ in 0..ctx.threads {
            scope.spawn(|| {
                let mut client = None;
                while end.left().is_some() {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let t = Mark::now();
                    let result = send(ctx, addr, &mut client, index);
                    sent.lock().expect("result list poisoned").push(Sent {
                        index,
                        latency_ms: t.ms(),
                        lag_ms: 0.0,
                        result,
                    });
                }
            });
        }
    });
    (
        sent.into_inner().expect("result list poisoned"),
        start.secs(),
    )
}

/// Tier-wide engine-cache counters, read through a pool seed's
/// registry (every registry shares the one tier).
fn tier(service: &FleetService, bench_seed: u64) -> RegistryStats {
    service
        .registry_stats(pool_seed(bench_seed, 0))
        .unwrap_or_default()
}

/// Direct simulator runs of distinct requests, on per-seed registries
/// sharing one cache tier (identical samples to `FleetSim::run`).
struct Oracle {
    caches: Arc<EngineCaches>,
    registries: HashMap<u64, EngineRegistry>,
    samples: HashMap<(u64, Mode), Vec<f64>>,
}

impl Oracle {
    fn new() -> Oracle {
        Oracle {
            caches: Arc::new(EngineCaches::new()),
            registries: HashMap::new(),
            samples: HashMap::new(),
        }
    }

    fn expected(&mut self, t: &Tenant) -> Digest {
        let caches = &self.caches;
        let registry = self
            .registries
            .entry(t.seed)
            .or_insert_with(|| EngineRegistry::with_caches(t.seed, Arc::clone(caches)));
        let samples = self
            .samples
            .entry((t.seed, t.mode))
            .or_insert_with(|| FleetSim::new(t.config()).run_with(registry).samples);
        Digest::expected(t, samples)
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::new();

    let mut setups = Vec::with_capacity(SETUPS);
    let mut resident = None;
    for _ in 0..SETUPS {
        if let Some(r) = resident.take() {
            let Resident { server, .. } = r;
            server.shutdown();
        }
        let t = Mark::now();
        match start(ctx.seed) {
            Ok(r) => resident = Some(r),
            Err(e) => {
                out.check(false, || format!("set-up failed: {e}"));
                return out;
            }
        }
        setups.push(t.secs());
    }
    let Resident {
        service,
        server,
        addr,
    } = resident.expect("set up above");

    let budget = ctx.loop_budget();
    let open_for = budget.mul_f64(OPEN_SHARE);
    let due = schedule(ctx.seed, open_for);
    let before = tier(&service, ctx.seed);
    let open = open_loop(ctx, &addr, &due);
    let (closed, closed_s) = closed_loop(ctx, &addr, due.len() as u64, budget - open_for);
    let after = tier(&service, ctx.seed);
    let admission = service.admission_stats();

    // Failure accounting: transport errors, typed failures, and replies
    // past the latency limit.
    let mut late = 0u64;
    let mut errors = Vec::new();
    for s in open.iter().chain(&closed) {
        out.attempted += 1;
        match &s.result {
            Err(e) => {
                out.failed += 1;
                errors.push(format!("request {}: {e}", s.index));
            }
            Ok(_) if s.latency_ms > LATENCY_LIMIT_MS => {
                out.failed += 1;
                late += 1;
            }
            Ok(_) => {}
        }
    }
    for e in errors.iter().take(5) {
        out.notes.push(e.clone());
    }
    let latencies: Vec<f64> = open
        .iter()
        .map(|s| match s.result {
            Ok(_) => s.latency_ms,
            Err(_) => s.latency_ms.max(LATENCY_LIMIT_MS),
        })
        .collect();
    let completed = closed.iter().filter(|s| s.result.is_ok()).count();
    if latencies.is_empty() || completed == 0 {
        out.check(false, || "no request completed".to_string());
        return out;
    }
    let e2e = EndToEnd {
        setup_s: stats::median(&setups),
        peak_rss_mb: crate::peak_rss_mb(),
        op_p50_ms: stats::median(&latencies),
        op_tail_ms: stats::percentile(&latencies, stats::TAIL),
        ops_per_s: completed as f64 / closed_s,
        wall_p50_ms: stats::median(&latencies),
    };
    out.set_end_to_end(ctx.traced(), &e2e);

    // Output check, outside the timed window: every reply against a
    // direct run of the same request.
    let mut oracle = Oracle::new();
    let mut checked = 0usize;
    for s in open.iter().chain(&closed) {
        if let Ok(got) = &s.result {
            let t = tenant(ctx.seed, s.index);
            let want = oracle.expected(&t);
            out.check(*got == want, || {
                format!(
                    "request {} ({t:?}): reply differs from FleetSim::run",
                    s.index
                )
            });
            checked += 1;
        }
    }
    let open_tenants: Vec<Tenant> = open.iter().map(|s| tenant(ctx.seed, s.index)).collect();
    let share = |f: fn(&Tenant) -> bool| {
        open_tenants.iter().filter(|t| f(t)).count() as f64 / open_tenants.len() as f64
    };
    let lags: Vec<f64> = open.iter().map(|s| s.lag_ms).collect();
    out.notes.push(format!(
        "open loop: {} requests at {OPEN_LOOP_RPS} req/s, tail = p{:.0}, {late} past the \
         {LATENCY_LIMIT_MS} ms limit; closed loop: {} replies on {} connections in {closed_s:.2} s",
        open.len(),
        stats::TAIL * 100.0,
        closed.len(),
        ctx.threads
    ));
    out.notes.push(format!(
        "checked: {checked} replies equal direct FleetSim runs ({} distinct requests)",
        oracle.samples.len()
    ));

    if ctx.traced() {
        let requests = (open.len() + closed.len()) as f64;
        let exec_lookups = (after.exec_hits + after.exec_misses)
            .saturating_sub(before.exec_hits + before.exec_misses);
        let payload_lookups = (after.payload_hits + after.payload_misses)
            .saturating_sub(before.payload_hits + before.payload_misses);
        let rate = |hits: u64, lookups: u64| {
            if lookups == 0 {
                0.0
            } else {
                hits as f64 / lookups as f64
            }
        };
        out.set(
            "engine.exec_misses_per_request",
            (after.exec_misses - before.exec_misses) as f64 / requests,
        );
        out.set(
            "engine.cross_exec_hit_rate",
            rate(after.exec_hits - before.exec_hits, exec_lookups),
        );
        out.set(
            "engine.cross_payload_hit_rate",
            rate(after.payload_hits - before.payload_hits, payload_lookups),
        );
        out.set("admission.queued", admission.queued as f64);
        out.set(
            "admission.peak_queue_depth",
            admission.peak_queue_depth as f64,
        );
        out.set("admission.shed", admission.shed_busy as f64);
        out.set(
            "served.generator_lag_ms",
            stats::percentile(&lags, stats::TAIL),
        );
        out.set("served.fresh_seed_share", share(|t| t.fresh));
        out.set("served.cdf_only_share", share(|t| t.cdf_only));
        layers(ctx, &mut out, &service, &addr);
    }
    server.shutdown();
    out
}

/// The replay tier's registry for `seed`, created on first use.
fn registry<'a>(
    registries: &'a mut HashMap<u64, EngineRegistry>,
    caches: &Arc<EngineCaches>,
    seed: u64,
) -> &'a EngineRegistry {
    registries
        .entry(seed)
        .or_insert_with(|| EngineRegistry::with_caches(seed, Arc::clone(caches)))
}

/// Replays tenant requests one at a time, layer by layer: request
/// decode, the resident service's `handle`, the stock client's round
/// trip, reply decode and encode, and the plan/propose/merge inside
/// `handle` on registries sharing one warm cache tier.
fn layers(ctx: &Ctx, out: &mut Outcome, service: &FleetService, addr: &str) {
    let tracer = &ctx.tracer;
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.check(false, || format!("replay connect: {e}"));
            return;
        }
    };
    let caches = Arc::new(EngineCaches::new());
    let mut registries: HashMap<u64, EngineRegistry> = HashMap::new();
    // Warm the replay tier with the repeat pool, as set-up warmed the
    // service's.
    for k in 0..POOL_SEEDS {
        for mode in MODES {
            let t = Tenant {
                seed: pool_seed(ctx.seed, k),
                mode,
                cdf_only: false,
                fresh: false,
            };
            FleetSim::new(t.config()).run_with(registry(&mut registries, &caches, t.seed));
        }
    }

    let mut m: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let deadline = Mark::now().after(ctx.replay_budget());
    let mut index = 1_000_000u64;
    while index == 1_000_000 || deadline.left().is_some() {
        let t = tenant(ctx.seed, index);
        let req = t.request();
        let line = req.to_line();
        let id = Some(index);
        tracer.span("replay", None, id, |root| {
            let (decoded, decode_ms) = tracer.span("proto.request_decode", root, id, |_| {
                FleetRequest::from_line(&line)
            });
            out.check(decoded.as_ref() == Ok(&req), || {
                "request line does not decode to the request".to_string()
            });
            let (reply, handle_ms) =
                tracer.span("service.handle", root, id, |_| service.handle(&req));
            out.check(reply.ok, || format!("handle failed: {:?}", reply.error));
            let (round_trip, rtt_ms) =
                tracer.span("tcp.round_trip", root, id, |_| client.request(&line));
            let reply_line = round_trip.unwrap_or_default();
            let (back, reply_decode_ms) = tracer.span("proto.reply_decode", root, id, |_| {
                FleetReply::from_line(&reply_line)
            });
            // The same request again in process, now as warm as the
            // round trip found it, to subtract the server's work.
            let (warm, warm_ms) =
                tracer.span("service.handle_warm", root, id, |_| service.handle(&req));
            let (encoded, encode_ms) =
                tracer.span("proto.reply_encode", root, id, |_| warm.to_line());

            let sim = FleetSim::new(t.config());
            let registry = registry(&mut registries, &caches, t.seed);
            let (run, st) = stack::replay(tracer, root, id, &sim, registry, ctx.threads);
            let want = Digest::expected(&t, &run.samples);
            out.check(
                back.as_ref().map(Digest::of_reply) == Ok(want) && Digest::of_reply(&reply) == want,
                || format!("replayed request {index}: reply differs from the replayed stack"),
            );
            if t.cdf_only {
                let (_, cdf_ms) = tracer.span("fleet.cdf", root, id, |_| {
                    PowerCdf::from_samples(&run.samples, 0.1)
                });
                m.entry("fleet.cdf_ms").or_default().push(cdf_ms);
            }
            m.entry("proto.request_decode_ms")
                .or_default()
                .push(decode_ms);
            m.entry("service.handle_ms").or_default().push(handle_ms);
            m.entry("proto.reply_decode_ms")
                .or_default()
                .push(reply_decode_ms);
            m.entry("proto.reply_encode_ms")
                .or_default()
                .push(encode_ms);
            m.entry("proto.reply_bytes")
                .or_default()
                .push(encoded.len() as f64);
            m.entry("tcp.transport_wait_ms")
                .or_default()
                .push(rtt_ms - (decode_ms + warm_ms + encode_ms));
            let plan = if t.fresh {
                "fleet.plan_fresh_seed_ms"
            } else {
                "fleet.plan_warm_ms"
            };
            m.entry(plan).or_default().push(st.plan_ms);
            m.entry("fleet.propose_ms").or_default().push(st.propose_ms);
            m.entry("fleet.propose_max_shard_ms")
                .or_default()
                .push(st.propose_max_shard_ms);
            m.entry("fleet.merge_ms").or_default().push(st.merge_ms);
        });
        index += 1;
    }
    out.notes
        .push(format!("layer replays: {}", index - 1_000_000));
    for (name, values) in m {
        out.set(name, stats::median_or_zero(&values));
    }
}
