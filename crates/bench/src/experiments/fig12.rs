//! Fig. 12 — the 3×3 cross-evaluation: workloads optimized at 1500, 2200
//! and 2500 MHz, each measured at all three frequencies; reporting power
//! (a), instruction throughput (b) and applied core frequency (c).
//!
//! Paper shape: each column's maximum power lies on the diagonal (the
//! workload optimized for the tested frequency wins); all workloads
//! throttle below nominal at 2200/2500 MHz; IPC falls with test frequency
//! for memory-rich workloads.

use crate::experiments::common::engine_for;
use crate::experiments::fig11::tune_config;
use crate::report::{mhz, r3, w, Report};
use fs2_arch::Sku;
use fs2_core::groups::{format_groups, AccessGroup};
use fs2_core::mix::MixRegistry;
use fs2_core::payload::PayloadConfig;
use fs2_core::runner::RunConfig;

pub const FREQS: [f64; 3] = [1500.0, 2200.0, 2500.0];

pub struct Cell {
    pub optimized_for: f64,
    pub tested_at: f64,
    pub power_w: f64,
    pub ipc: f64,
    pub applied_mhz: f64,
}

pub struct Matrix {
    pub cells: Vec<Cell>,
    pub workloads: Vec<(f64, Vec<AccessGroup>, u32)>,
}

impl Matrix {
    pub fn cell(&self, optimized_for: f64, tested_at: f64) -> &Cell {
        self.cells
            .iter()
            .find(|c| c.optimized_for == optimized_for && c.tested_at == tested_at)
            .expect("full matrix")
    }
}

pub fn cross_evaluate(quick: bool) -> Matrix {
    let engine = engine_for(Sku::amd_epyc_7502());

    // One optimization per frequency, fanned out in parallel (separate
    // sessions: fresh thermal state per training, like separate lab
    // sessions). Tuning builds its candidates outside the engine's
    // caches, so the three tunings leave them empty.
    let tunings: Vec<(usize, f64)> = FREQS.iter().copied().enumerate().collect();
    let workloads = engine.sweep(&tunings, 0, |engine, _, &(i, freq)| {
        let cfg = tune_config(quick, freq, 100 + i as u64);
        let result = engine.session().tune(&cfg);
        (freq, result.best_groups, result.unroll)
    });

    // Evaluate all nine combinations with the paper's measurement window
    // (240 s, first 120 s and last 2 s discarded), in parallel — each
    // cell gets its own preheated session, so results are identical to
    // the serial pass.
    let mix = MixRegistry::default_for(engine.sku().uarch);
    let combos: Vec<(f64, Vec<AccessGroup>, u32, f64)> = workloads
        .iter()
        .flat_map(|(opt_freq, groups, unroll)| {
            FREQS
                .iter()
                .map(move |&test_freq| (*opt_freq, groups.clone(), *unroll, test_freq))
        })
        .collect();
    let cells = engine.sweep(
        &combos,
        0,
        |engine, _, (opt_freq, groups, unroll, test_freq)| {
            let config = PayloadConfig {
                mix,
                groups: groups.clone(),
                unroll: *unroll,
            };
            let mut session = engine.session();
            session.hold_power(240.0, 20.0, 400.0); // preheated node

            // Session::run goes through the engine cache tiers: the
            // three test frequencies of one workload share a single
            // functional pass (the §III-D value pass is frequency-
            // independent), so only payload-distinct cells pay it.
            let r = session.run(
                &config,
                &RunConfig {
                    freq_mhz: *test_freq,
                    duration_s: 240.0,
                    start_delta_s: 120.0,
                    stop_delta_s: 2.0,
                    functional_iters: 64,
                    ..RunConfig::default()
                },
            );
            Cell {
                optimized_for: *opt_freq,
                tested_at: *test_freq,
                power_w: r.power.mean,
                ipc: r.ipc,
                applied_mhz: r.applied_freq_mhz,
            }
        },
    );
    Matrix { cells, workloads }
}

fn heatmap(rep: &mut Report, title: &str, matrix: &Matrix, value: impl Fn(&Cell) -> String) {
    rep.line(format!(
        "{title} (rows: optimized for; columns: tested at 1500/2200/2500 MHz)"
    ));
    for &opt in &FREQS {
        let row: Vec<String> = FREQS
            .iter()
            .map(|&test| format!("{:>8}", value(matrix.cell(opt, test))))
            .collect();
        rep.line(format!("  {:>4} MHz |{}", opt as u32, row.join(" ")));
    }
    rep.blank();
}

pub fn run(quick: bool) -> Report {
    let matrix = cross_evaluate(quick);
    let mut rep = Report::new(
        "fig12",
        "optimized workloads x test frequencies: power / IPC / applied frequency",
    );
    for (freq, groups, unroll) in &matrix.workloads {
        rep.line(format!(
            "ω_opt-{}MHz: {} (u={unroll})",
            *freq as u32,
            format_groups(groups)
        ));
    }
    rep.blank();
    heatmap(&mut rep, "(a) power [W]", &matrix, |c| w(c.power_w));
    heatmap(
        &mut rep,
        "(b) instruction throughput [ipc/core]",
        &matrix,
        |c| r3(c.ipc),
    );
    heatmap(&mut rep, "(c) applied core frequency [MHz]", &matrix, |c| {
        mhz(c.applied_mhz)
    });

    // Diagonal-dominance check (paper: "each workload will lead to the
    // highest power consumption for its optimization point").
    let mut diagonal_wins = 0;
    for &test in &FREQS {
        let best = FREQS
            .iter()
            .map(|&opt| (opt, matrix.cell(opt, test).power_w))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        if best.0 == test {
            diagonal_wins += 1;
        }
        rep.line(format!(
            "tested at {} MHz: best workload is ω_opt-{}MHz with {} W",
            test as u32,
            best.0 as u32,
            w(best.1)
        ));
    }
    rep.line(format!(
        "diagonal dominance: {diagonal_wins}/3 columns won by their own optimum (paper: 3/3)"
    ));

    rep.csv_header(&[
        "optimized_for",
        "tested_at",
        "power_w",
        "ipc",
        "applied_mhz",
    ]);
    for c in &matrix.cells {
        rep.csv_row(&[
            mhz(c.optimized_for),
            mhz(c.tested_at),
            w(c.power_w),
            r3(c.ipc),
            mhz(c.applied_mhz),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_matrix_shape() {
        let matrix = cross_evaluate(true);
        assert_eq!(matrix.cells.len(), 9);
        // No throttling at 1500 MHz anywhere (paper: 1492 ≈ no throttle).
        for &opt in &FREQS {
            assert_eq!(matrix.cell(opt, 1500.0).applied_mhz, 1500.0);
        }
        // Power grows with test frequency for every workload.
        for &opt in &FREQS {
            let p15 = matrix.cell(opt, 1500.0).power_w;
            let p25 = matrix.cell(opt, 2500.0).power_w;
            assert!(p25 > p15, "power not increasing for opt-{opt}");
        }
        // The 1500 MHz column: its own optimum is at least competitive.
        // Quick mode uses tiny populations, so allow a broad band here;
        // the paper-scale configuration (bin/fig12) shows the strict
        // diagonal dominance recorded in EXPERIMENTS.md.
        let best_1500 = FREQS
            .iter()
            .map(|&o| matrix.cell(o, 1500.0).power_w)
            .fold(f64::NEG_INFINITY, f64::max);
        let own_1500 = matrix.cell(1500.0, 1500.0).power_w;
        assert!(own_1500 > best_1500 * 0.90, "own optimum far from best");
    }
}
