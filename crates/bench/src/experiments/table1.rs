//! Table I — overview of stress tests for Linux: the qualitative feature
//! matrix, extended with measured mean/min/max power of each tool's
//! behavioural model on the simulated Haswell node.

use crate::experiments::common::engine_for;
use crate::report::{w, Report};
use fs2_arch::Sku;
use fs2_baselines::registry::WorkloadDefinition;
use fs2_baselines::{run_baseline, table1, Baseline};

fn check(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "-"
    }
}

pub fn run(quick: bool) -> Report {
    let mut rep = Report::new(
        "table1",
        "overview of stress tests (feature matrix + measured power on 2x E5-2680 v3 @ 2000 MHz)",
    );

    rep.line(format!(
        "{:<15} {:<26} {:>4} {:>4} {:>4} {:>4}  {:<8} {:<11} {:<9}",
        "benchmark", "workload", "proc", "mem", "gpu", "net", "err-chk", "define-new", "cc-indep"
    ));
    for row in table1() {
        let err = match row.error_check {
            Some(true) => "yes",
            Some(false) => "-",
            None => "partial",
        };
        let def = match row.define_new {
            WorkloadDefinition::Template => "template",
            WorkloadDefinition::Runtime => "runtime",
            WorkloadDefinition::SourceCode => "source",
            WorkloadDefinition::Fixed => "-",
        };
        rep.line(format!(
            "{:<15} {:<26} {:>4} {:>4} {:>4} {:>4}  {:<8} {:<11} {:<9}",
            row.name,
            row.workload,
            check(row.stresses_processor),
            check(row.stresses_memory),
            check(row.stresses_gpu),
            check(row.stresses_network),
            err,
            def,
            check(row.compiler_independent),
        ));
    }

    // Measured extension: run each behavioural model.
    rep.blank();
    rep.line("measured on the simulated Haswell node (240 s window after preheat):");
    rep.csv_header(&["tool", "mean_w", "min_w", "max_w"]);
    let duration = if quick { 120.0 } else { 240.0 };
    // Each tool's behavioural model runs in its own preheated session,
    // fanned out in parallel.
    let engine = engine_for(Sku::intel_xeon_e5_2680_v3());
    let mut results: Vec<(String, f64, f64, f64)> =
        engine.sweep(&Baseline::ALL, 0, |engine, _, b| {
            let mut session = engine.session();
            session.hold_power(240.0, 20.0, 250.0); // preheat
            let r = run_baseline(session.runner_mut(), *b, duration, 2000.0);
            (r.name.to_string(), r.mean_w, r.min_w, r.max_w)
        });
    results.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, mean, min, max) in &results {
        rep.line(format!(
            "  {:<20} mean {:>7} W   (min {:>7}, max {:>7})",
            name,
            w(*mean),
            w(*min),
            w(*max)
        ));
        rep.csv_row(&[name.clone(), w(*mean), w(*min), w(*max)]);
    }
    rep.blank();
    rep.line("shape: FIRESTARTER 2 tops the ladder; Linpack/Prime95 vary over time; stress-ng's scalar matrix kernel cannot reach SIMD power levels");
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn table1_firestarter2_wins() {
        let rep = super::run(true);
        let csv = rep.csv();
        let first = csv.lines().nth(1).unwrap();
        assert!(
            first.starts_with("FIRESTARTER"),
            "power ranking not led by FIRESTARTER: {first}"
        );
        // All eight tools measured.
        assert_eq!(csv.lines().count(), 9);
    }
}
