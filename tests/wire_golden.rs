//! The fleet service's wire bytes are pinned line for line. Each case
//! encodes a request, or serves one through `FleetService::handle` on a
//! fresh service, and compares the line with a committed capture in
//! `tests/data/`: key order, number formatting, string escapes, the
//! optional sections and their nesting. Any change to how a request or
//! a reply is written that moves a byte shows up here. The decoder is
//! pinned too: every capture decodes and re-encodes to its own bytes,
//! and each single-fault request line gets its pinned rejection.

use firestarter2::calib::FleetProfile;
use firestarter2::cluster::{BudgetPolicy, TemporalMode};
use firestarter2::service::json::write_object;
use firestarter2::service::{
    AdmissionConfig, ChaosConfig, FleetReply, FleetRequest, FleetService, ServiceConfig,
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

/// Request lines with one fault each: every value a valid request may
/// not hold, an unknown temporal mode and budget policy, and a profile
/// whose floor share lies outside (0, 1). Their replies are pinned in
/// `data/wire_reply_single_faults.jsonl`, one line each, in this order.
fn single_fault_lines() -> Vec<String> {
    let mut profile = String::new();
    let text = FleetProfile::exemplar().to_text();
    write_object(&mut profile, |w| {
        w.field("type", "fleet").field(
            "profile",
            &text.replace("floor_share = 0.15\n", "floor_share = 2\n"),
        );
    });
    assert!(profile.contains("floor_share = 2"), "{profile}");
    [
        r#"{"type":"fleet","nodes":0}"#,
        r#"{"type":"fleet","samples_per_node":0}"#,
        r#"{"type":"fleet","cap_w":-3}"#,
        r#"{"type":"fleet","budget_w":0}"#,
        r#"{"type":"fleet","shards":0}"#,
        r#"{"type":"fleet","deadline_ms":0}"#,
        r#"{"type":"fleet","temporal":"markov"}"#,
        r#"{"type":"fleet","budget_policy":"auction"}"#,
    ]
    .into_iter()
    .map(str::to_string)
    .chain([profile])
    .collect()
}

#[test]
fn single_fault_rejections_are_pinned() {
    let service = FleetService::new(ServiceConfig::small());
    let capture = include_str!("data/wire_reply_single_faults.jsonl");
    let lines = single_fault_lines();
    assert_eq!(capture.lines().count(), lines.len());
    for (line, pinned) in lines.iter().zip(capture.lines()) {
        assert_pinned(&service.handle_line(line), pinned);
    }
    assert_eq!(
        service.admission_stats().submitted(),
        0,
        "a rejected line reached the gate"
    );
}

#[test]
fn every_capture_decodes_and_re_encodes_to_its_own_bytes() {
    for capture in [
        include_str!("data/wire_request_fig1.jsonl"),
        include_str!("data/wire_request_full.jsonl"),
    ] {
        let line = capture.strip_suffix('\n').unwrap_or(capture);
        let req = FleetRequest::from_line(line).unwrap();
        assert_pinned(&req.to_line(), capture);
    }
    let replies = [
        include_str!("data/wire_reply_episodes_6x40.jsonl"),
        include_str!("data/wire_reply_episodes_6x40_no_samples.jsonl"),
        include_str!("data/wire_reply_bad_request.jsonl"),
        include_str!("data/wire_reply_oversize.jsonl"),
        include_str!("data/wire_reply_shard_panic.jsonl"),
        include_str!("data/wire_reply_single_faults.jsonl"),
    ];
    for line in replies.iter().flat_map(|c| c.lines()) {
        let reply = FleetReply::from_line(line).unwrap();
        assert_pinned(&reply.to_line(), line);
    }
}
