//! Fleet-as-a-service: the Fig. 1 pipeline served as a long-running
//! request/shard/engine stack instead of a one-shot run — several
//! tenants, one shared engine-cache tier, bounded admission.
//!
//! ```sh
//! cargo run --example fleet_service
//! ```

use firestarter2::service::{
    serve, AdmissionConfig, ChaosConfig, FleetReply, FleetRequest, FleetService, ServiceConfig,
};
use std::sync::Arc;

fn main() {
    let service = Arc::new(FleetService::new(ServiceConfig {
        workers: 4,
        default_shards: 4,
        admission: AdmissionConfig {
            max_active: 2,
            max_queue: 8,
            ..AdmissionConfig::default()
        },
        chaos: ChaosConfig::default(), // off; see the chaos section below
    }));

    // In-process: a typed request in, a typed reply out, no JSON
    // (what the CLI's --fleet does).
    let req = FleetRequest {
        nodes: 64,
        samples_per_node: 240,
        seed: Some(42),
        ..FleetRequest::fig1()
    };
    let first = service.handle(&req);
    println!(
        "request 1: {} samples over {} shards, {} engines, {} payloads built",
        first.samples.len(),
        first.shards,
        first.registry.engines,
        first.registry.payload_misses
    );

    // The same configuration again: the second tenant re-serves the
    // warmed payload/exec tier instead of rebuilding it.
    let second = service.handle(&req);
    println!(
        "request 2: cross-request payload hit rate {:.2}, exec hit rate {:.2}",
        second.registry.cross_payload_hit_rate(),
        second.registry.cross_exec_hit_rate()
    );
    assert_eq!(
        first.samples, second.samples,
        "identical requests must produce identical samples"
    );

    // The transport: plain TCP JSON-lines (the CLI's --serve/--connect).
    let server = serve(Arc::clone(&service), "127.0.0.1:0").expect("bind");
    let addr = server.local_addr().to_string();
    let line = firestarter2::service::call(&addr, &req.to_line()).expect("tcp round trip");
    let served = FleetReply::from_line(&line).expect("decode");
    println!(
        "request 3 (TCP {addr}): {} samples, bitwise equal to request 1: {}",
        served.samples.len(),
        served.samples == first.samples
    );

    // Admission control: a deliberately oversized request is rejected
    // before any engine work happens.
    let bomb = FleetRequest {
        nodes: u32::MAX,
        samples_per_node: u32::MAX,
        ..FleetRequest::fig1()
    };
    let reply = service.handle(&bomb);
    println!(
        "oversize request: ok={} ({})",
        reply.ok,
        reply.error.as_deref().unwrap_or("-")
    );
    let stats = service.admission_stats();
    println!(
        "admission: {} admitted, {} queued, {} shed, {} rejected oversize",
        stats.admitted, stats.queued, stats.shed_busy, stats.rejected_oversize
    );

    // Fault tolerance: a second service with seeded chaos on. Request
    // #2 gets a panic injected into one shard; the reply is a typed
    // failure, and the retry reproduces the undisturbed bytes exactly —
    // the injection schedule is deterministic and the samples are pure.
    let chaotic = FleetService::new(ServiceConfig {
        workers: 4,
        default_shards: 4,
        admission: AdmissionConfig::default(),
        chaos: ChaosConfig {
            seed: 7,
            panic_every: 2,
            ..ChaosConfig::default()
        },
    });
    let ok1 = chaotic.handle(&req);
    let hurt = chaotic.handle(&req);
    let retry = chaotic.handle(&req);
    println!(
        "chaos: request 1 ok={}, request 2 ok={} [{}], retry ok={} and bitwise equal: {}",
        ok1.ok,
        hurt.ok,
        hurt.error_kind.as_deref().unwrap_or("-"),
        retry.ok,
        retry.samples == first.samples
    );
    println!(
        "supervision: {} shard panics caught",
        chaotic.panics_caught()
    );

    // Deadlines: with a cost model configured, an unmeetable deadline
    // is rejected before any engine work.
    let screened = FleetService::new(ServiceConfig {
        admission: AdmissionConfig {
            cost_per_ms: 10,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::small()
    });
    let reply = screened.handle(&FleetRequest {
        deadline_ms: Some(1),
        ..req.clone()
    });
    println!(
        "deadline screen: ok={} [{}] ({})",
        reply.ok,
        reply.error_kind.as_deref().unwrap_or("-"),
        reply.error.as_deref().unwrap_or("-")
    );
}
