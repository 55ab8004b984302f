//! Chaos-harness integration: under seeded fault injection (shard
//! panics, dropped replies, truncated frames, stalled peers) the
//! service stack must never hang, must keep its admission ledger
//! balanced and its queue depth bounded, and a retried request must
//! come back bitwise-identical to an undisturbed run — the faults are
//! deterministic, the samples are pure.

use firestarter2::cluster::FleetSim;
use firestarter2::service::proto::kind;
use firestarter2::service::{
    call_with_retry, serve_with, AdmissionConfig, ChaosConfig, Client, ClientError, FleetReply,
    FleetRequest, FleetService, RetryPolicy, ServiceConfig, TransportConfig,
};
use std::io::Write;
use std::sync::Arc;

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|s| s.to_bits()).collect()
}

fn request(seed: u64) -> FleetRequest {
    FleetRequest {
        nodes: 8,
        samples_per_node: 40,
        seed: Some(seed),
        ..FleetRequest::fig1()
    }
}

fn chaotic_config(chaos: ChaosConfig) -> ServiceConfig {
    ServiceConfig {
        workers: 3,
        default_shards: 3,
        chaos,
        ..ServiceConfig::small()
    }
}

#[test]
fn injected_panics_never_hang_and_keep_the_ledger_balanced() {
    // Panic one shard of every 3rd request.
    let service = Arc::new(FleetService::new(chaotic_config(ChaosConfig {
        seed: 41,
        panic_every: 3,
        ..ChaosConfig::default()
    })));
    let baseline = FleetSim::new(request(7).to_config()).run();
    let want = bits(&baseline.samples);

    let mut ok = 0u64;
    let mut panicked = 0u64;
    for _ in 0..12 {
        let reply = service.handle(&request(7));
        if reply.ok {
            ok += 1;
            assert_eq!(want, bits(&reply.samples), "disturbed run changed bytes");
        } else {
            panicked += 1;
            assert_eq!(reply.error_kind.as_deref(), Some(kind::SHARD_PANIC));
            let caught = reply
                .panics_caught
                .expect("failed replies carry the panic counter");
            assert!(caught >= 1);
        }
    }
    assert_eq!(ok + panicked, 12, "every request resolved");
    assert_eq!(panicked, 4, "panic_every=3 over 12 requests");

    assert_eq!(service.panics_caught(), 4);

    // The ledger balances: everything admitted either completed or
    // failed, nothing vanished.
    let stats = service.admission_stats();
    assert_eq!(stats.submitted(), 12);
    assert_eq!(stats.admitted, 12);
    assert_eq!(stats.completed, ok);
    assert_eq!(stats.failed, panicked);
    assert_eq!(stats.active, 0);
    assert_eq!(stats.queue_depth, 0);

    // Chaos accounting matches what we observed on the wire.
    let chaos = service.chaos().expect("chaos was configured on");
    assert_eq!(chaos.panics_injected(), 4);
}

#[test]
fn retried_request_is_bitwise_identical_to_an_undisturbed_run() {
    // The schedule is request-indexed: request #2 panics, the retry
    // (request #3) does not — and must reproduce the clean bytes.
    let service = Arc::new(FleetService::new(chaotic_config(ChaosConfig {
        seed: 91,
        panic_every: 2,
        ..ChaosConfig::default()
    })));
    let undisturbed = Arc::new(FleetService::new(chaotic_config(ChaosConfig::default())));

    let first = service.handle(&request(19));
    assert!(first.ok);
    let second = service.handle(&request(19));
    assert!(!second.ok, "request #2 must hit the injected panic");
    assert_eq!(second.error_kind.as_deref(), Some(kind::SHARD_PANIC));
    let retry = service.handle(&request(19));
    assert!(retry.ok, "the retry must succeed");

    let clean = undisturbed.handle(&request(19));
    assert!(clean.ok);
    assert_eq!(
        bits(&retry.samples),
        bits(&clean.samples),
        "retry after an injected fault diverged from the undisturbed run"
    );
    // The payload (not just the floats) survives: same shard count,
    // same power points, and a one-shot library run agrees too.
    assert_eq!(retry.shards, clean.shards);
    assert_eq!(retry.power_points, clean.power_points);
    let direct = FleetSim::new(request(19).to_config()).run();
    assert_eq!(bits(&retry.samples), bits(&direct.samples));
}

#[test]
fn deadline_pressure_keeps_the_queue_bounded_and_the_ledger_balanced() {
    // Deadlines reject, and a 12-caller storm hits a 1-active /
    // 2-queued gate: depth must stay bounded and every request must
    // land in exactly one ledger column.
    let service = Arc::new(FleetService::new(ServiceConfig {
        workers: 2,
        default_shards: 2,
        admission: AdmissionConfig {
            max_active: 1,
            max_queue: 2,
            cost_per_ms: 1, // 8 × 40 = 320 node·samples → ~320 ms estimate
            ..AdmissionConfig::default()
        },
        chaos: ChaosConfig::default(),
    }));
    let tight = FleetRequest {
        deadline_ms: Some(10), // unmeetable: estimate is ~320 ms
        ..request(3)
    };
    let loose = FleetRequest {
        deadline_ms: Some(600_000),
        ..request(3)
    };
    let handles: Vec<_> = (0..12)
        .map(|i| {
            let service = Arc::clone(&service);
            let req = if i % 3 == 0 {
                tight.clone()
            } else {
                loose.clone()
            };
            std::thread::spawn(move || service.handle(&req))
        })
        .collect();
    let replies: Vec<FleetReply> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut deadline_rejected = 0u64;
    for r in &replies {
        match (r.ok, r.error_kind.as_deref()) {
            (true, _) => ok += 1,
            (false, Some(kind::ADMISSION_BUSY)) => shed += 1,
            (false, Some(kind::ADMISSION_DEADLINE)) => deadline_rejected += 1,
            (false, other) => panic!("unexpected failure kind {other:?}: {:?}", r.error),
        }
    }
    assert_eq!(ok + shed + deadline_rejected, 12);
    assert_eq!(deadline_rejected, 4, "every tight deadline is screened");
    assert!(ok >= 1);

    let stats = service.admission_stats();
    assert_eq!(stats.submitted(), 12);
    assert_eq!(stats.rejected_deadline, 4);
    assert_eq!(stats.admitted, ok); // nothing admitted ever vanished
    assert_eq!(stats.completed + stats.failed, stats.admitted);
    assert_eq!(stats.shed_busy, shed);
    assert!(
        stats.peak_queue_depth <= 2,
        "queue bound violated: {stats:?}"
    );
    assert_eq!(stats.active, 0);
    assert_eq!(stats.queue_depth, 0);
}

#[test]
fn dropped_replies_are_absorbed_by_the_retry_client_bitwise() {
    // The server drops every 2nd reply mid-stream (closes the socket
    // after doing the work). A retrying client must converge on bytes
    // identical to the one-shot library run.
    let service = Arc::new(FleetService::new(chaotic_config(ChaosConfig {
        seed: 77,
        drop_reply_every: 2,
        ..ChaosConfig::default()
    })));
    let server = serve_with(service, "127.0.0.1:0", TransportConfig::default()).unwrap();
    let addr = server.local_addr().to_string();

    let want = bits(&FleetSim::new(request(29).to_config()).run().samples);
    let policy = RetryPolicy {
        attempts: 4,
        base_ms: 5,
        cap_ms: 40,
        seed: 13,
    };
    for round in 0..4 {
        let line = call_with_retry(&addr, &request(29).to_line(), policy)
            .unwrap_or_else(|e| panic!("round {round}: retries exhausted: {e}"));
        let reply = FleetReply::from_line(&line).unwrap();
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(want, bits(&reply.samples), "round {round} diverged");
    }
    server.shutdown();
}

#[test]
fn shard_panics_are_absorbed_by_the_retry_client_bitwise() {
    // Every 2nd request panics a shard. call_with_retry retries the
    // shard-panic reply, so each round returns the next request's
    // reply, identical to the one-shot library run.
    let service = Arc::new(FleetService::new(chaotic_config(ChaosConfig {
        seed: 23,
        panic_every: 2,
        ..ChaosConfig::default()
    })));
    let server = serve_with(
        Arc::clone(&service),
        "127.0.0.1:0",
        TransportConfig::default(),
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    let want = bits(&FleetSim::new(request(31).to_config()).run().samples);
    let policy = RetryPolicy {
        attempts: 3,
        base_ms: 5,
        cap_ms: 40,
        seed: 17,
    };
    for round in 0..4 {
        let line = call_with_retry(&addr, &request(31).to_line(), policy)
            .unwrap_or_else(|e| panic!("round {round}: retries exhausted: {e}"));
        let reply = FleetReply::from_line(&line).unwrap();
        assert!(reply.ok, "round {round}: {:?}", reply.error);
        assert_eq!(want, bits(&reply.samples), "round {round} diverged");
    }
    server.shutdown();
    // Rounds 2, 3 and 4 each met one panic and retried once.
    assert_eq!(service.panics_caught(), 3);
}

#[test]
fn truncated_frames_and_stalled_peers_do_not_pin_the_server() {
    let service = Arc::new(FleetService::new(chaotic_config(ChaosConfig::default())));
    let server = serve_with(
        service,
        "127.0.0.1:0",
        TransportConfig {
            poll_ms: 5,
            stall_polls: 10, // ~50 ms idle budget
            ..TransportConfig::default()
        },
    )
    .unwrap();
    let addr = server.local_addr().to_string();

    // A peer that sends half a frame and disconnects: served nothing,
    // hurt nothing.
    {
        let mut s = std::net::TcpStream::connect(&addr).unwrap();
        s.write_all(b"{\"type\":\"fleet\",\"nod").unwrap();
    } // dropped: truncated frame, no newline

    // A peer that sends half a frame and goes quiet: disconnected with
    // a typed reply once the stall budget runs out. The server closes
    // after writing it, so read-to-eof captures the whole line.
    let mut stalled = std::net::TcpStream::connect(&addr).unwrap();
    stalled.write_all(b"{\"type\":\"fleet\",\"nod").unwrap();
    let mut answer = String::new();
    std::io::Read::read_to_string(&mut stalled, &mut answer).unwrap();
    let reply = FleetReply::from_line(answer.trim()).unwrap();
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some(kind::PEER_STALLED));

    // The server is still fully alive for honest clients…
    let mut honest = Client::connect(&addr).unwrap();
    let reply = FleetReply::from_line(&honest.request(&request(11).to_line()).unwrap()).unwrap();
    assert!(reply.ok, "{:?}", reply.error);

    // …and shutdown drains every connection instead of hanging on the
    // ones the chaos peers abandoned.
    server.shutdown();
    assert!(matches!(
        honest.request(&request(11).to_line()),
        Err(ClientError::Eof | ClientError::Io(_))
    ));
}
