//! The `--optimize=NSGA2` report is pinned byte for byte. Each case runs
//! the CLI on a small tuning configuration and compares its stdout with
//! a committed capture in `tests/data/`: the evaluation and genome-memo
//! counts, the pre-screen tally, every printed Pareto point and the
//! selected optimum. Any change to how candidates are built, executed,
//! pre-screened or measured that moves a bit shows up here.

fn optimize(flags: &str) -> String {
    let argv: Vec<String> = format!("--optimize=NSGA2 {flags}")
        .split_whitespace()
        .map(str::to_string)
        .collect();
    firestarter2::cli::run(&argv).expect("tuning run succeeds")
}

#[test]
fn rome_seed3_12x6_report_is_pinned() {
    let flags = "--cpu rome --seed 3 --individuals 12 --generations 6";
    let capture = include_str!("data/optimize_rome_seed3_12x6.txt");
    assert_eq!(optimize(flags), capture);
    // Naming the default objective pair changes nothing.
    assert_eq!(
        optimize(&format!(
            "{flags} --optimization-metric sysfs-powercap-rapl,perf-ipc"
        )),
        capture
    );
}

#[test]
fn rome_seed3_12x6_prescreen_report_is_pinned() {
    assert_eq!(
        optimize("--cpu rome --seed 3 --individuals 12 --generations 6 --prescreen"),
        include_str!("data/optimize_rome_seed3_12x6_prescreen.txt")
    );
}

#[test]
fn haswell_seed5_10x4_prescreen_report_is_pinned() {
    assert_eq!(
        optimize("--cpu haswell --seed 5 --individuals 10 --generations 4 --prescreen"),
        include_str!("data/optimize_haswell_seed5_10x4_prescreen.txt")
    );
}
