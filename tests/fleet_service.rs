//! Service-stack integration: a served fleet request must be
//! byte-identical to the one-shot library run whether it is served
//! in-process (`FleetService::handle`) or over TCP JSON-lines,
//! admission control must bound concurrency without panicking, the
//! wire format must round-trip seeds and samples exactly, and a typed
//! request meets the same contract as a decoded line.

use firestarter2::calib::{FleetProfile, PSTATE_SETS};
use firestarter2::cluster::{FleetConfig, FleetSim, TemporalMode};
use firestarter2::service::{
    call, serve, AdmissionConfig, Client, FleetReply, FleetRequest, FleetService, ServiceConfig,
};
use std::sync::Arc;

fn bits(samples: &[f64]) -> Vec<u64> {
    samples.iter().map(|s| s.to_bits()).collect()
}

fn request(seed: u64) -> FleetRequest {
    FleetRequest {
        nodes: 16,
        samples_per_node: 80,
        seed: Some(seed),
        ..FleetRequest::fig1()
    }
}

#[test]
fn handle_matches_the_library_run_bitwise() {
    let service = FleetService::new(ServiceConfig::small());
    for req in [
        request(17),
        FleetRequest {
            temporal: TemporalMode::Episodes,
            budget_w: Some(16.0 * 170.0),
            shards: Some(7),
            ..request(17)
        },
    ] {
        let direct = FleetSim::new(req.to_config()).run();
        let reply = service.handle(&req);
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(
            bits(&direct.samples),
            bits(&reply.samples),
            "served samples diverged from the library run"
        );
    }
}

#[test]
fn tcp_clients_get_bitwise_identical_replies_concurrently() {
    let service = Arc::new(FleetService::new(ServiceConfig::small()));
    let server = serve(service, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().to_string();
    let direct = FleetSim::new(request(23).to_config()).run();
    let want = bits(&direct.samples);

    // Two concurrent clients, same request: both replies must carry the
    // exact sample bits (the registry is shared, the samples are pure).
    let handles: Vec<_> = (0..2)
        .map(|_| {
            let addr = addr.clone();
            let want = want.clone();
            std::thread::spawn(move || {
                let line = call(&addr, &request(23).to_line()).unwrap();
                let reply = FleetReply::from_line(&line).unwrap();
                assert!(reply.ok, "{:?}", reply.error);
                assert_eq!(want, bits(&reply.samples));
                reply
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // A persistent client can pipeline several requests on one socket,
    // and a malformed line gets a failure reply without dropping it.
    let mut client = Client::connect(&addr).unwrap();
    let garbage = client.request("not json at all").unwrap();
    let reply = FleetReply::from_line(&garbage);
    assert!(reply.is_err() || !reply.unwrap().ok);
    let line = client.request(&request(23).to_line()).unwrap();
    let reply = FleetReply::from_line(&line).unwrap();
    assert!(reply.ok);
    assert_eq!(want, bits(&reply.samples));
    // The cross-request counters accumulate from request #2 onward, and
    // the two concurrent requests raced each other into a cold cache, so
    // the rate is diluted — but the warm third request must still show
    // substantial reuse of the shared tier.
    assert!(
        reply.registry.cross_payload_hit_rate() > 0.5,
        "warm identical request missed the cache: {:?}",
        reply.registry
    );
    assert!(reply.registry.cross_exec_hit_rate() > 0.5);
}

#[test]
fn admission_bounds_an_overload_storm_without_panics() {
    let service = Arc::new(FleetService::new(ServiceConfig {
        workers: 2,
        default_shards: 2,
        admission: AdmissionConfig {
            max_active: 1,
            max_queue: 2,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::small()
    }));
    let req = FleetRequest {
        nodes: 8,
        samples_per_node: 40,
        seed: Some(5),
        ..FleetRequest::fig1()
    };
    let handles: Vec<_> = (0..12)
        .map(|_| {
            let service = Arc::clone(&service);
            let req = req.clone();
            std::thread::spawn(move || service.handle(&req))
        })
        .collect();
    let replies: Vec<FleetReply> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let ok = replies.iter().filter(|r| r.ok).count();
    let shed = replies
        .iter()
        .filter(|r| !r.ok && r.error.as_deref().unwrap_or("").contains("shed"))
        .count();
    assert_eq!(ok + shed, 12, "every request must resolve to ok or shed");
    assert!(ok >= 1, "at least the first request must be served");
    let stats = service.admission_stats();
    assert_eq!(stats.admitted as usize, ok);
    assert_eq!(stats.shed_busy as usize, shed);
    assert!(
        stats.peak_queue_depth <= 2,
        "queue bound violated: {stats:?}"
    );
    assert_eq!(stats.active, 0);
    assert_eq!(stats.queue_depth, 0);
    // Whatever was admitted produced the exact library bytes.
    let direct = FleetSim::new(req.to_config()).run();
    for r in replies.iter().filter(|r| r.ok) {
        assert_eq!(bits(&direct.samples), bits(&r.samples));
    }
}

#[test]
fn oversize_requests_are_rejected_before_any_work() {
    let service = FleetService::new(ServiceConfig {
        admission: AdmissionConfig {
            max_request_cost: 1_000,
            ..AdmissionConfig::default()
        },
        ..ServiceConfig::small()
    });
    // 16 × 80 = 1280 node·samples > 1000.
    let reply = service.handle(&request(1));
    assert!(!reply.ok);
    assert!(reply.error.as_deref().unwrap().contains("rejected"));
    // The u32::MAX × u32::MAX address-space bomb is caught by the
    // checked total, not a wrapping multiply.
    let reply = service.handle(&FleetRequest {
        nodes: u32::MAX,
        samples_per_node: u32::MAX,
        ..FleetRequest::fig1()
    });
    assert!(!reply.ok);
    assert_eq!(service.admission_stats().rejected_oversize, 2);
}

#[test]
fn wire_format_round_trips_seeds_and_samples_exactly() {
    // Request: a u64 seed beyond f64's integer range must survive.
    let req = FleetRequest {
        seed: Some(u64::MAX - 41),
        power_cap_w: Some(287.65),
        budget_w: Some(1234.5),
        ..request(9)
    };
    let back = FleetRequest::from_line(&req.to_line()).unwrap();
    assert_eq!(req, back);

    // Reply: every f64 sample bit pattern survives the JSON line.
    let service = FleetService::new(ServiceConfig::small());
    let reply = service.handle(&request(31));
    assert!(reply.ok);
    let back = FleetReply::from_line(&reply.to_line()).unwrap();
    assert_eq!(bits(&reply.samples), bits(&back.samples));
    assert_eq!(
        reply.registry.cross_payload_lookups,
        back.registry.cross_payload_lookups
    );
    assert_eq!(reply.shards, back.shards);
}

#[test]
fn a_threads_key_on_the_wire_is_ignored() {
    // Regression: a request's `threads` field used to set how many OS
    // threads its budget apply phase spawned, so a tenant could make
    // one cheap request start thousands. The field is gone; a line
    // that still carries the key decodes to the same request and gets
    // the same samples.
    let plain = r#"{"type":"fleet","nodes":16,"samples_per_node":500,"seed":5,"temporal":"episodes","budget_w":2720}"#;
    let with_threads = plain.replace('}', r#","threads":4000}"#);
    let req = FleetRequest::from_line(&with_threads).expect("unknown keys decode");
    assert_eq!(req, FleetRequest::from_line(plain).unwrap());
    assert_eq!(req.to_config().threads, FleetConfig::default().threads);

    let service = FleetService::new(ServiceConfig::small());
    let reply = |line: &str| FleetReply::from_line(&service.handle_line(line)).unwrap();
    let (a, b) = (reply(plain), reply(&with_threads));
    assert!(a.ok && b.ok, "{:?} / {:?}", a.error, b.error);
    assert_eq!(a.samples.len(), 16 * 500);
    assert!(a.budget.as_ref().unwrap().shed_ticks.iter().sum::<u64>() > 0);
    assert_eq!(bits(&a.samples), bits(&b.samples));
}

/// The exemplar profile with one edit.
fn profile(edit: impl FnOnce(&mut FleetProfile)) -> Option<FleetProfile> {
    let mut p = FleetProfile::exemplar();
    edit(&mut p);
    Some(p)
}

/// `handle` checks a typed request as the decoder checks its line: a
/// request the wire rejects gets the same `bad-request` reply, byte for
/// byte, and never reaches the admission gate.
#[test]
fn handle_rejects_what_the_decoder_rejects() {
    let fig1 = FleetRequest::fig1;
    let cases = [
        FleetRequest { nodes: 0, ..fig1() },
        FleetRequest {
            samples_per_node: 0,
            ..fig1()
        },
        FleetRequest {
            power_cap_w: Some(-3.0),
            ..fig1()
        },
        FleetRequest {
            budget_w: Some(0.0),
            ..fig1()
        },
        FleetRequest {
            shards: Some(0),
            ..fig1()
        },
        FleetRequest {
            deadline_ms: Some(0),
            ..fig1()
        },
        FleetRequest {
            profile: profile(|p| p.floor_share = 2.0),
            ..fig1()
        },
        FleetRequest {
            profile: profile(|p| p.classes[2].duty = (0.8, 0.3)),
            ..fig1()
        },
        FleetRequest {
            profile: profile(|p| p.classes.iter_mut().for_each(|c| c.weight = 0.0)),
            ..fig1()
        },
    ];
    for req in cases {
        let service = FleetService::new(ServiceConfig::small());
        let typed = service.handle(&req).to_line();
        assert_eq!(typed, service.handle_line(&req.to_line()), "{req:?}");
        assert!(typed.contains(r#""error_kind":"bad-request""#), "{typed}");
        assert_eq!(service.admission_stats().submitted(), 0, "{req:?}");
    }
}

/// Typed requests no line can carry: JSON has no NaN, and the profile
/// text names P-state sets, not indices. `handle` still rejects them.
#[test]
fn handle_rejects_typed_requests_no_line_can_carry() {
    let service = FleetService::new(ServiceConfig::small());
    for req in [
        FleetRequest {
            power_cap_w: Some(f64::NAN),
            ..request(3)
        },
        FleetRequest {
            budget_w: Some(f64::NAN),
            ..request(3)
        },
        FleetRequest {
            profile: profile(|p| p.classes[0].pstate_set = PSTATE_SETS.len()),
            ..request(3)
        },
    ] {
        let reply = service.handle(&req);
        assert!(!reply.ok, "{req:?}");
        assert_eq!(reply.error_kind.as_deref(), Some("bad-request"));
    }
    assert_eq!(service.admission_stats().submitted(), 0);
}
