//! The fleet service's wire bytes are pinned line for line. Each case
//! encodes a request, or serves one through `FleetService::handle` on a
//! fresh service, and compares the line with a committed capture in
//! `tests/data/`: key order, number formatting, string escapes, the
//! optional sections and their nesting. Any change to how a request or
//! a reply is written that moves a byte shows up here.

use firestarter2::calib::FleetProfile;
use firestarter2::cluster::{BudgetPolicy, TemporalMode};
use firestarter2::service::{
    AdmissionConfig, ChaosConfig, FleetRequest, FleetService, ServiceConfig,
};

/// Compares `line` with a capture (the line plus its newline) and, on
/// a mismatch, names the first byte that differs instead of printing
/// both lines whole.
fn assert_pinned(line: &str, capture: &str) {
    let want = capture.strip_suffix('\n').unwrap_or(capture);
    if line == want {
        return;
    }
    let at = line
        .bytes()
        .zip(want.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(line.len().min(want.len()));
    let context = |s: &str| {
        let bytes = &s.as_bytes()[at.saturating_sub(40)..(at + 40).min(s.len())];
        String::from_utf8_lossy(bytes).into_owned()
    };
    panic!(
        "wire bytes moved at byte {at} (got {} bytes, pinned {}):\n  got    …{}…\n  pinned …{}…",
        line.len(),
        want.len(),
        context(line),
        context(want)
    );
}

/// A 6-node, 40-sample episode fleet under a 280 W cap and a 900 W
/// budget that binds, asking for the CDF as well.
fn episode_request() -> FleetRequest {
    FleetRequest {
        nodes: 6,
        samples_per_node: 40,
        seed: Some(11),
        temporal: TemporalMode::Episodes,
        power_cap_w: Some(280.0),
        budget_w: Some(900.0),
        want_cdf: true,
        ..FleetRequest::fig1()
    }
}

#[test]
fn fig1_request_line_is_pinned() {
    assert_pinned(
        &FleetRequest::fig1().to_line(),
        include_str!("data/wire_request_fig1.jsonl"),
    );
}

#[test]
fn request_with_every_field_set_is_pinned() {
    let req = FleetRequest {
        nodes: 63,
        samples_per_node: 321,
        seed: Some(u64::MAX - 7),
        temporal: TemporalMode::Episodes,
        power_cap_w: Some(250.5),
        budget_w: Some(9000.25),
        budget_policy: BudgetPolicy::Defer,
        shards: Some(7),
        deadline_ms: Some(1500),
        want_samples: false,
        want_cdf: true,
        profile: Some(FleetProfile::exemplar()),
    };
    assert_pinned(&req.to_line(), include_str!("data/wire_request_full.jsonl"));
}

#[test]
fn episode_reply_with_cap_budget_and_cdf_is_pinned() {
    let service = FleetService::new(ServiceConfig::small());
    let reply = service.handle(&episode_request());
    assert!(reply.ok, "{:?}", reply.error);
    assert!(
        reply
            .budget
            .as_ref()
            .is_some_and(|b| b.shed_ticks.iter().sum::<u64>() > 0),
        "the budget binds"
    );
    assert_pinned(
        &reply.to_line(),
        include_str!("data/wire_reply_episodes_6x40.jsonl"),
    );
}

#[test]
fn episode_reply_without_samples_is_pinned() {
    let service = FleetService::new(ServiceConfig::small());
    let reply = service.handle(&FleetRequest {
        want_samples: false,
        ..episode_request()
    });
    assert!(reply.ok, "{:?}", reply.error);
    assert!(reply.samples.is_empty());
    assert_pinned(
        &reply.to_line(),
        include_str!("data/wire_reply_episodes_6x40_no_samples.jsonl"),
    );
}

#[test]
fn bad_request_reply_is_pinned() {
    let service = FleetService::new(ServiceConfig::small());
    assert_pinned(
        &service.handle_line("{broken"),
        include_str!("data/wire_reply_bad_request.jsonl"),
    );
}

#[test]
fn oversize_rejection_is_pinned() {
    let service = FleetService::new(ServiceConfig::small());
    let limit = AdmissionConfig::default().max_request_cost;
    let reply = service.handle(&FleetRequest {
        nodes: 1 << 20,
        samples_per_node: 2000,
        ..FleetRequest::fig1()
    });
    assert!(!reply.ok);
    assert!(reply.error.as_deref().unwrap().contains(&limit.to_string()));
    assert_pinned(
        &reply.to_line(),
        include_str!("data/wire_reply_oversize.jsonl"),
    );
}

#[test]
fn shard_panic_reply_is_pinned() {
    let service = FleetService::new(ServiceConfig {
        chaos: ChaosConfig {
            seed: 5,
            panic_every: 1,
            ..ChaosConfig::default()
        },
        ..ServiceConfig::small()
    });
    let reply = service.handle(&episode_request());
    assert!(!reply.ok);
    assert_pinned(
        &reply.to_line(),
        include_str!("data/wire_reply_shard_panic.jsonl"),
    );
}
