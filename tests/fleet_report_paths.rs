//! The one-shot `--fleet` report and the served `--connect` report are
//! the same bytes: the same text and the same `--dump-samples` file.
//!
//! Each configuration gets a fresh server. A server's registry counters
//! accumulate across requests and the report prints them, so a second
//! `--connect` to the same server reports warm caches where the
//! one-shot run reports cold ones.

use firestarter2::cli;
use firestarter2::service::{serve, FleetService, ServiceConfig};
use std::path::Path;
use std::sync::Arc;

fn words(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn with_args(flags: &[String], extra: &[&str]) -> Vec<String> {
    let mut argv = flags.to_vec();
    argv.extend(extra.iter().map(|s| s.to_string()));
    argv
}

fn utf8(path: &Path) -> &str {
    path.to_str().expect("utf-8 temp path")
}

/// Runs `flags` as `--fleet` and as `--connect` to a fresh server,
/// asserts that both reports and both dumps are identical, and returns
/// the report with the number of dumped samples.
fn fleet_and_connect_agree(name: &str, flags: &[String]) -> (String, usize) {
    let service = Arc::new(FleetService::new(ServiceConfig::small()));
    let server = serve(service, "127.0.0.1:0").expect("bind a loopback port");
    let addr = server.local_addr().to_string();
    let dump = |side: &str| {
        std::env::temp_dir().join(format!(
            "fs2_report_{name}_{side}_{}.txt",
            std::process::id()
        ))
    };
    let (local_dump, served_dump) = (dump("fleet"), dump("connect"));

    let local = cli::run(&with_args(
        flags,
        &["--fleet", "--dump-samples", utf8(&local_dump)],
    ));
    let served = cli::run(&with_args(
        flags,
        &["--connect", &addr, "--dump-samples", utf8(&served_dump)],
    ));
    server.shutdown();
    let local_bits = std::fs::read_to_string(&local_dump);
    let served_bits = std::fs::read_to_string(&served_dump);
    let _ = std::fs::remove_file(&local_dump);
    let _ = std::fs::remove_file(&served_dump);

    let local = local.expect("--fleet run");
    let served = served.expect("--connect run");
    assert_eq!(
        local, served,
        "{name}: --connect report diverged from --fleet"
    );
    let local_bits = local_bits.expect("--fleet dump");
    let served_bits = served_bits.expect("--connect dump");
    assert_eq!(
        local_bits, served_bits,
        "{name}: --connect dump diverged from --fleet"
    );
    (local, local_bits.lines().count())
}

#[test]
fn iid_fleet_reports_the_same_bytes_locally_and_served() {
    let (report, samples) =
        fleet_and_connect_agree("iid", &words("--nodes 16 --samples-per-node 120 --seed 7"));
    assert_eq!(samples, 16 * 120);
    assert!(report.contains("ExecStats 0/"), "{report}");
}

#[test]
fn budgeted_capped_episodes_report_the_same_bytes_locally_and_served() {
    let (report, samples) = fleet_and_connect_agree(
        "budget",
        &words(
            "--fleet-temporal episodes --nodes 12 --samples-per-node 200 --seed 5 \
             --budget-w 1500 --budget-policy defer --cap-w 280",
        ),
    );
    assert_eq!(samples, 12 * 200);
    assert!(report.contains("budget 1500 W (defer)"), "{report}");
    assert!(report.contains("power cap 280.0 W"), "{report}");
    assert!(report.contains("lag-1 autocorr"), "{report}");
}

#[test]
fn profiled_fleet_reports_the_same_bytes_locally_and_served() {
    let mut flags = words("--nodes 16 --samples-per-node 100 --profile");
    flags.push(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/exemplar.profile").to_string());
    let (report, samples) = fleet_and_connect_agree("profile", &flags);
    assert_eq!(samples, 16 * 100);
    assert!(
        report.contains("calibrated profile `exemplar-v1`"),
        "{report}"
    );
}
