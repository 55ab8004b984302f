//! Fig. 1 — cumulative power distribution of 612 Haswell nodes over a
//! year (1 Sa/s, 60 s means, 0.1 W bins), fed by real per-node engines:
//! every sample composes engine-evaluated payload power with the node's
//! idle floor instead of a fitted per-class normal.
//!
//! Alongside the paper's i.i.d. CDF, a time-correlated variant runs the
//! same operating points through the Markov episode model (dwell times,
//! ramps, idle hand-backs) — the structure the production trace has and
//! an i.i.d. sampler cannot reproduce — and a budget-constrained
//! variant adds facility-level power management: the fleet-wide sum of
//! node draws is capped per 60 s tick and over-budget episodes are shed
//! to the idle floor.

use crate::report::{w, Report};
use fs2_cluster::{FleetConfig, FleetSim, PowerCdf, TemporalMode};

/// The facility budget of the constrained variant, W: between the
/// unconstrained fleet's mean (~89 kW) and peak (~93 kW) tick draw, so
/// it binds on the peaks without starving the fleet.
const BUDGET_W: f64 = 90_000.0;

pub fn run() -> Report {
    let fleet = FleetSim::new(FleetConfig::default());
    let run = fleet.run();
    let cdf = PowerCdf::from_samples(&run.samples, 0.1);

    let mut rep = Report::new(
        "fig01",
        "CDF of node power for the 612-node Haswell fleet (engine-backed synthetic year)",
    );
    rep.line(format!(
        "{} nodes x {} 60-second means = {} samples, 0.1 W bins",
        fleet.config.total_nodes(),
        fleet.config.samples_per_node,
        cdf.samples
    ));
    rep.line(format!(
        "engine-backed: {} engines ({} SKUs), {} payloads built, {} operating points",
        run.registry.engines,
        fleet.config.groups.len(),
        run.registry.payload_misses,
        run.power_table.len(),
    ));
    rep.line(format!(
        "range {} .. {} W (paper: max 359.9 W)",
        w(cdf.min_w),
        w(cdf.max_w)
    ));
    rep.line(format!(
        "idle shoulder: {:.1} % of samples at or below 100 W; {:.1} % below 50 W (paper: steep incline between 50 and 100 W)",
        cdf.fraction_at(100.0) * 100.0,
        cdf.fraction_at(50.0) * 100.0
    ));
    rep.line(format!(
        "median {} W, p95 {} W, p99.9 {} W",
        w(cdf.quantile(0.5)),
        w(cdf.quantile(0.95)),
        w(cdf.quantile(0.999))
    ));
    // Time-correlated variant: identical engines and operating points,
    // Markov episodes instead of i.i.d. node-minutes.
    let ep_fleet = FleetSim::new(FleetConfig {
        temporal: TemporalMode::Episodes,
        ..FleetConfig::default()
    });
    let ep_run = ep_fleet.run();
    let ep_cdf = PowerCdf::from_samples(&ep_run.samples, 0.1);
    let stats = ep_run.episodes.expect("episode stats");
    rep.blank();
    rep.line(format!(
        "time-correlated variant (Markov episodes): lag-1 autocorrelation {:.3} \
         (i.i.d. would be ~0); range {} .. {} W",
        stats.lag1_autocorr,
        w(ep_cdf.min_w),
        w(ep_cdf.max_w)
    ));
    let shares: Vec<String> = stats
        .states
        .iter()
        .zip(&stats.empirical_shares)
        .zip(&stats.model_shares)
        .map(|((s, &got), &want)| format!("{s} {:.1}% (model {:.1}%)", got * 100.0, want * 100.0))
        .collect();
    rep.line(format!("episode time shares: {}", shares.join(", ")));
    let dwell: Vec<String> = stats
        .states
        .iter()
        .zip(&stats.mean_dwell_ticks)
        .map(|(s, &d)| format!("{s} {d:.1}"))
        .collect();
    rep.line(format!(
        "mean episode dwell [60 s ticks]: {}",
        dwell.join(", ")
    ));

    // Budget-constrained variant: the same episode fleet under a
    // facility power budget; over-budget episodes shed to the floor.
    let budget_fleet = FleetSim::new(FleetConfig {
        temporal: TemporalMode::Episodes,
        budget_w: Some(BUDGET_W),
        ..FleetConfig::default()
    });
    let budget_run = budget_fleet.run();
    let budget_cdf = PowerCdf::from_samples(&budget_run.samples, 0.1);
    let budget = budget_run.budget.expect("budget stats");
    rep.blank();
    rep.line(format!(
        "budget-constrained variant ({:.0} kW fleet budget, {} policy): \
         peak fleet draw {:.1} kW, mean {:.1} kW, p95 utilization {:.1} %",
        budget.budget_w / 1000.0,
        budget.policy.name(),
        budget.peak_fleet_w / 1000.0,
        budget.mean_fleet_w / 1000.0,
        budget.utilization.quantile(0.95) * 100.0
    ));
    let shed_total: u64 = budget.shed_ticks.iter().sum();
    let shed: Vec<String> = budget
        .states
        .iter()
        .zip(&budget.shed_ticks)
        .filter(|(_, &n)| n > 0)
        .map(|(s, n)| format!("{s} {n}"))
        .collect();
    rep.line(format!(
        "shed node-ticks: {shed_total} total ({}); {} infeasible-floor ticks",
        shed.join(", "),
        budget.infeasible_floor_ticks
    ));

    rep.csv_header(&[
        "power_w",
        "cumulative_fraction",
        "episode_cumulative_fraction",
        "budget_cumulative_fraction",
    ]);
    for wv in (40..=360).step_by(10) {
        rep.csv_row(&[
            format!("{wv}"),
            format!("{:.4}", cdf.fraction_at(f64::from(wv))),
            format!("{:.4}", ep_cdf.fraction_at(f64::from(wv))),
            format!("{:.4}", budget_cdf.fraction_at(f64::from(wv))),
        ]);
    }
    rep
}

#[cfg(test)]
mod tests {
    #[test]
    fn fig01_report_has_landmarks() {
        let rep = super::run();
        let out = rep.render();
        assert!(out.contains("612 nodes"));
        assert!(out.contains("0.1 W bins"));
        assert!(out.contains("engine-backed"));
        assert!(out.contains("time-correlated variant"));
        assert!(out.contains("lag-1 autocorrelation"));
        assert!(out.contains("budget-constrained variant"));
        assert!(out.contains("shed node-ticks"));
        assert!(rep.csv().lines().count() > 30);
        assert!(rep.csv().starts_with("power_w,cumulative_fraction,episode"));
        assert!(rep
            .csv()
            .lines()
            .next()
            .unwrap()
            .ends_with("budget_cumulative_fraction"));
    }
}
