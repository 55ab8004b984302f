//! The `--calibrate` report is pinned byte for byte. An episode fleet
//! writes a small labeled trace through `--emit-trace`; one case fits
//! that trace as written, the other the same trace with its `state`
//! column stripped, and each compares the CLI's stdout with a
//! committed capture in `tests/data/`: the trace summary, the
//! evaluation and genome-memo counts, every fidelity number, the
//! per-state table and the fitted profile. The emitted CSV is pinned by
//! an FNV-1a-64 digest of its bytes. Any change to trace labelling,
//! fit-target extraction, the CDF lookup or the search that moves a bit
//! shows up here.

use std::path::{Path, PathBuf};

/// The episode fleet that writes the trace.
const EMIT: &str = "--fleet --fleet-temporal episodes --nodes 16 --samples-per-node 300 --seed 21";
/// The search budget and seed of both fits.
const FIT: &str = "--individuals 6 --generations 3 --seed 5";
/// How the trace's path reads in the pinned reports.
const SHOWN_PATH: &str = "TRACE.csv";

fn cli(flags: &str, path_flag: &str, path: &Path) -> String {
    let mut argv: Vec<String> = flags.split_whitespace().map(str::to_string).collect();
    argv.push(path_flag.to_string());
    argv.push(path.display().to_string());
    firestarter2::cli::run(&argv).expect("CLI run succeeds")
}

/// Writes the labeled trace to `name` in Cargo's temporary directory
/// for integration tests.
fn emit_trace(name: &str) -> PathBuf {
    let path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    cli(EMIT, "--emit-trace", &path);
    path
}

/// Fits the trace at `path` and names it [`SHOWN_PATH`] in the report.
fn calibrate(path: &Path) -> String {
    let report = cli(FIT, "--calibrate", path);
    let _ = std::fs::remove_file(path);
    report.replacen(&path.display().to_string(), SHOWN_PATH, 1)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[test]
fn emitted_trace_bytes_are_pinned() {
    let path = emit_trace("calibrate_golden_emit.csv");
    let csv = std::fs::read(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    assert!(csv.starts_with(b"node,tick,power_w,state\n"));
    assert_eq!(csv.iter().filter(|&&b| b == b'\n').count(), 1 + 16 * 300);
    assert_eq!(fnv1a64(&csv), 0x5BFD_B509_8ECA_40CD);
}

#[test]
fn labeled_trace_report_is_pinned() {
    let path = emit_trace("calibrate_golden_labeled.csv");
    assert_eq!(
        calibrate(&path),
        include_str!("data/calibrate_labeled_16x300.txt")
    );
}

#[test]
fn power_only_trace_report_is_pinned() {
    let path = emit_trace("calibrate_golden_power_only.csv");
    let labeled = std::fs::read_to_string(&path).expect("trace written");
    let stripped: String = labeled
        .lines()
        .map(|line| {
            let (rest, _state) = line.rsplit_once(',').expect("four columns");
            format!("{rest}\n")
        })
        .collect();
    std::fs::write(&path, stripped).expect("rewrite the trace");
    assert_eq!(
        calibrate(&path),
        include_str!("data/calibrate_power_only_16x300.txt")
    );
}
