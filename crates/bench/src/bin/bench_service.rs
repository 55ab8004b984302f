//! Micro-benchmark for the fleet service stack: concurrent clients
//! against one resident `FleetService`, first calling
//! `FleetService::handle` in-process and then sending the same requests
//! over loopback TCP through the stock `Client`. It measures request
//! throughput, latency percentiles for both, and the cross-request
//! engine-cache hit rates that the shared tier exists for (repeat
//! tenants must be mostly cache hits).
//!
//! Writes the measured baseline to `BENCH_service.json` (pass an
//! output path as the first argument to override).
//!
//! ```sh
//! cargo run --release -p fs2-bench --bin bench_service
//! ```

use fs2_service::{
    call_with_retry, serve_with, AdmissionConfig, ChaosConfig, Client, FleetReply, FleetRequest,
    FleetService, RetryPolicy, ServiceConfig, TransportConfig,
};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

const CONCURRENT_CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 8;

fn percentile(sorted_ms: &[f64], q: f64) -> f64 {
    let idx = ((sorted_ms.len() - 1) as f64 * q).round() as usize;
    sorted_ms[idx]
}

fn request(seed: u64, cap: Option<f64>) -> FleetRequest {
    FleetRequest {
        nodes: 64,
        samples_per_node: 500,
        seed: Some(seed),
        power_cap_w: cap,
        ..FleetRequest::fig1()
    }
}

/// Throughput and latency of one closed-loop phase.
struct Phase {
    replies_ok: usize,
    elapsed_s: f64,
    requests_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// CONCURRENT_CLIENTS threads, each opening a session with `open` and
/// firing REQUESTS_PER_CLIENT sequential requests through `send`, which
/// reports whether the reply came back ok. Half the tenants repeat the
/// warmed config, half rotate fresh seeds — a realistic mixed fleet.
/// Per-request latencies pool across clients for the percentiles.
fn closed_loop<S>(
    open: impl Fn() -> S + Sync,
    send: impl Fn(&mut S, &FleetRequest) -> bool + Sync,
) -> Phase {
    let started = Instant::now();
    let per_client: Vec<(Vec<f64>, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONCURRENT_CLIENTS)
            .map(|client| {
                let (open, send) = (&open, &send);
                scope.spawn(move || {
                    let mut session = open();
                    let mut latencies_ms = Vec::with_capacity(REQUESTS_PER_CLIENT);
                    let mut ok = 0usize;
                    for i in 0..REQUESTS_PER_CLIENT {
                        let seed = if i % 2 == 0 { 1 } else { 10 + client as u64 };
                        let req = request(seed, None);
                        let t0 = Instant::now();
                        if send(&mut session, &req) {
                            ok += 1;
                        }
                        latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    (latencies_ms, ok)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed_s = started.elapsed().as_secs_f64();
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut replies_ok = 0usize;
    for (lat, ok) in per_client {
        latencies_ms.extend(lat);
        replies_ok += ok;
    }
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    Phase {
        replies_ok,
        elapsed_s,
        requests_per_sec: latencies_ms.len() as f64 / elapsed_s,
        p50_ms: percentile(&latencies_ms, 0.50),
        p99_ms: percentile(&latencies_ms, 0.99),
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_service.json".to_string());
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());

    let service = Arc::new(FleetService::new(ServiceConfig {
        workers: 0,        // one per host core
        default_shards: 0, // one per worker
        ..ServiceConfig::default()
    }));

    // Warm-up request: builds the payload/exec tier every later tenant
    // re-serves from. Its registry counters are the cold baseline.
    let cold = service.handle(&request(1, None));
    assert!(cold.ok, "{:?}", cold.error);

    // A second identical request: every payload and functional pass
    // must come out of the shared tier.
    let repeat = service.handle(&request(1, None));
    assert!(repeat.ok);
    assert_eq!(
        cold.samples, repeat.samples,
        "identical requests must produce identical samples"
    );
    let repeat_payload_rate = repeat.registry.cross_payload_hit_rate();
    let repeat_exec_rate = repeat.registry.cross_exec_hit_rate();

    // A near-identical tenant (new power cap, same fleet): the operating
    // points differ but the payload tier still re-serves.
    let capped = service.handle(&request(1, Some(280.0)));
    assert!(capped.ok);
    let near_payload_rate = capped.registry.cross_payload_hit_rate();

    // Throughput run, in-process: the clients call `handle` directly.
    let requests = CONCURRENT_CLIENTS * REQUESTS_PER_CLIENT;
    let local = closed_loop(|| (), |_, req| service.handle(req).ok);
    let stats = service.admission_stats();

    // The same requests over loopback TCP, one stock `Client`
    // connection per client thread. On top of `handle` each request
    // pays its encode, the transport, the server's decode and reply
    // encode, and the client's reply decode.
    let server = serve_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        TransportConfig::default(),
    )
    .expect("bind the bench server");
    let addr = server.local_addr().to_string();
    let tcp = closed_loop(
        || Client::connect(&addr).expect("connect to the bench server"),
        |client, req| {
            client
                .request(&req.to_line())
                .ok()
                .and_then(|line| FleetReply::from_line(&line).ok())
                .is_some_and(|reply| reply.ok)
        },
    );
    server.shutdown();
    assert_eq!(tcp.replies_ok, requests, "every TCP request must be served");

    // Fault-tolerance phase, on deliberately tiny requests: a chaotic
    // service absorbing injected shard panics, a deadline screen
    // rejecting unmeetable requests, and a TCP retry loop riding over
    // dropped replies. Counters, not latencies — the point is that the
    // committed baseline records the fault-tolerance machinery working.
    let tiny = |seed: u64| FleetRequest {
        nodes: 8,
        samples_per_node: 40,
        seed: Some(seed),
        ..FleetRequest::fig1()
    };
    // The injected panics are caught, but the default hook would still
    // spray backtraces over the report; silence it for this phase.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let chaotic = FleetService::new(ServiceConfig {
        workers: 2,
        default_shards: 2,
        admission: AdmissionConfig::default(),
        chaos: ChaosConfig {
            seed: 29,
            panic_every: 2,
            ..ChaosConfig::default()
        },
    });
    let mut chaos_failed = 0u64;
    for _ in 0..6 {
        if !chaotic.handle(&tiny(3)).ok {
            chaos_failed += 1;
        }
    }
    let panics_caught = chaotic.panics_caught();
    assert_eq!(panics_caught, 3, "panic_every=2 over 6 requests");
    assert_eq!(chaos_failed, 3);
    std::panic::set_hook(default_hook);

    let screened = FleetService::new(ServiceConfig {
        workers: 2,
        default_shards: 2,
        admission: AdmissionConfig {
            cost_per_ms: 1, // 8 × 40 = 320 node·samples → ~320 ms estimate
            ..AdmissionConfig::default()
        },
        chaos: ChaosConfig::default(),
    });
    for _ in 0..4 {
        let reply = screened.handle(&FleetRequest {
            deadline_ms: Some(5),
            ..tiny(3)
        });
        assert!(!reply.ok, "a 5 ms deadline on ~320 ms of work must screen");
    }
    let deadline_rejects = screened.admission_stats().rejected_deadline;
    assert_eq!(deadline_rejects, 4);

    let dropping = Arc::new(FleetService::new(ServiceConfig {
        workers: 2,
        default_shards: 2,
        admission: AdmissionConfig::default(),
        chaos: ChaosConfig {
            seed: 31,
            drop_reply_every: 2,
            ..ChaosConfig::default()
        },
    }));
    let server = serve_with(
        Arc::clone(&dropping),
        "127.0.0.1:0",
        TransportConfig::default(),
    )
    .expect("bind chaos server");
    let addr = server.local_addr().to_string();
    let policy = RetryPolicy {
        attempts: 4,
        base_ms: 2,
        cap_ms: 20,
        seed: 5,
    };
    for _ in 0..4 {
        let line = call_with_retry(&addr, &tiny(7).to_line(), policy).expect("retries exhausted");
        assert!(FleetReply::from_line(&line).expect("decode").ok);
    }
    // Every dropped reply forced exactly one reconnect-and-retry.
    let retries = dropping
        .chaos()
        .map(|c| c.drops_injected())
        .unwrap_or_default();
    assert!(retries >= 2, "drop_reply_every=2 over 4 calls: {retries}");
    server.shutdown();

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(
        "  \"benchmark\": \"fleet service stack (handle + TCP + shards + shared caches)\",\n",
    );
    let _ = writeln!(
        json,
        "  \"fleet\": \"64 nodes, 500 samples/node per request\","
    );
    let _ = writeln!(json, "  \"host_threads\": {host_threads},");
    let _ = writeln!(json, "  \"concurrent_clients\": {CONCURRENT_CLIENTS},");
    let _ = writeln!(json, "  \"requests\": {requests},");
    let _ = writeln!(json, "  \"replies_ok\": {},", local.replies_ok);
    let _ = writeln!(
        json,
        "  \"requests_per_sec\": {:.2},",
        local.requests_per_sec
    );
    let _ = writeln!(json, "  \"p50_ms\": {:.2},", local.p50_ms);
    let _ = writeln!(json, "  \"p99_ms\": {:.2},", local.p99_ms);
    let _ = writeln!(
        json,
        "  \"tcp_requests_per_sec\": {:.2},",
        tcp.requests_per_sec
    );
    let _ = writeln!(json, "  \"tcp_p50_ms\": {:.2},", tcp.p50_ms);
    let _ = writeln!(json, "  \"tcp_p99_ms\": {:.2},", tcp.p99_ms);
    let _ = writeln!(
        json,
        "  \"cross_request_payload_hit_rate\": {repeat_payload_rate:.4},"
    );
    let _ = writeln!(
        json,
        "  \"cross_request_exec_hit_rate\": {repeat_exec_rate:.4},"
    );
    let _ = writeln!(
        json,
        "  \"near_identical_payload_hit_rate\": {near_payload_rate:.4},"
    );
    let _ = writeln!(json, "  \"panics_caught\": {panics_caught},");
    let _ = writeln!(json, "  \"retries\": {retries},");
    let _ = writeln!(json, "  \"deadline_rejects\": {deadline_rejects},");
    json.push_str("  \"admission\": {\n");
    let _ = writeln!(json, "    \"admitted\": {},", stats.admitted);
    let _ = writeln!(json, "    \"queued\": {},", stats.queued);
    let _ = writeln!(json, "    \"shed_busy\": {},", stats.shed_busy);
    let _ = writeln!(
        json,
        "    \"rejected_oversize\": {},",
        stats.rejected_oversize
    );
    let _ = writeln!(json, "    \"peak_queue_depth\": {}", stats.peak_queue_depth);
    json.push_str("  }\n");
    json.push_str("}\n");

    println!("### bench_service — fleet service stack\n");
    println!("host: {host_threads} threads");
    for (name, phase) in [("in-process handle", &local), ("loopback TCP", &tcp)] {
        println!(
            "{name}: {requests} requests from {CONCURRENT_CLIENTS} clients in {:.2} s \
             ({:.1} req/s), {} ok; latency p50 {:.1} ms, p99 {:.1} ms",
            phase.elapsed_s, phase.requests_per_sec, phase.replies_ok, phase.p50_ms, phase.p99_ms
        );
    }
    println!(
        "cross-request caches: payload {:.0}% / exec {:.0}% on the repeat tenant, \
         payload {:.0}% near-identical",
        repeat_payload_rate * 100.0,
        repeat_exec_rate * 100.0,
        near_payload_rate * 100.0
    );
    println!(
        "admission: {} admitted, {} queued (peak depth {}), {} shed",
        stats.admitted, stats.queued, stats.peak_queue_depth, stats.shed_busy
    );
    println!(
        "fault tolerance: {panics_caught} injected panics caught, {retries} dropped replies \
         retried, {deadline_rejects} unmeetable deadlines screened"
    );

    std::fs::write(&out_path, json).expect("write benchmark baseline");
    eprintln!("wrote {out_path}");
}
