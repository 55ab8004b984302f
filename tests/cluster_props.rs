//! Cluster property tests: the Markov episode model, the fleet's
//! thread-count invariance, and the power-CDF query contract.
//!
//! proptest is not available offline, so the properties are exercised
//! over deterministic pseudo-random case lists (fixed seeds, the same
//! style as `tests/props.rs`).

use firestarter2::cluster::{
    BudgetPolicy, EpisodeModel, EpisodeWalk, FleetConfig, FleetSim, JobMix, PowerCdf, TemporalMode,
};

/// xorshift64* — deterministic case generator for the property loops.
struct Cases {
    state: u64,
}

impl Cases {
    fn new(seed: u64) -> Cases {
        Cases { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, n).
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Property (a): the episode walk's empirical time-per-state converges
/// to the model's stationary distribution — which, for a model built
/// with `from_mix`, is exactly the configured mix scaled by the floor
/// share. Checked across several seeds and dwell/share profiles.
#[test]
fn episode_stationary_converges_to_configured_mix() {
    let mix = JobMix::taurus_haswell();
    let mut cases = Cases::new(0xE915_0DE5);
    for case in 0..4 {
        // Random-but-valid dwell profile and floor share per case.
        let floor_share = 0.05 + cases.unit() * 0.2;
        let dwell: Vec<f64> = (0..mix.classes().len())
            .map(|_| 2.0 + cases.below(80) as f64)
            .collect();
        let ramps = vec![1u32; mix.classes().len()];
        let model = EpisodeModel::from_mix(&mix, floor_share, 10.0, &dwell, &ramps);

        // from_mix's closed-form shares match the power-iterated ones.
        let shares = model.stationary_time_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            (shares[0] - floor_share).abs() < 1e-9,
            "case {case}: floor share {} != {floor_share}",
            shares[0]
        );
        let total: f64 = mix.classes().iter().map(|(_, w)| w).sum();
        for (i, (_, w)) in mix.classes().iter().enumerate() {
            let want = (1.0 - floor_share) * w / total;
            assert!(
                (shares[i + 1] - want).abs() < 1e-9,
                "case {case}, class {i}: model share {} != configured {want}",
                shares[i + 1]
            );
        }

        // Empirical convergence over a fleet of walks.
        let seed = cases.next_u64();
        let mut ticks = vec![0u64; model.n_states()];
        for node in 0..24u32 {
            let mut walk = EpisodeWalk::new(&model, &mix, seed, node);
            for _ in 0..3000 {
                ticks[walk.next_tick().state] += 1;
            }
        }
        let total_ticks: u64 = ticks.iter().sum();
        for (i, &share) in shares.iter().enumerate() {
            let got = ticks[i] as f64 / total_ticks as f64;
            assert!(
                (got - share).abs() < 0.06,
                "case {case}, state {i}: empirical {got} vs stationary {share}"
            );
        }
    }
}

/// The fleet-level version of property (a): a full episode-mode run
/// reports stats that track the model, and the sample stream is
/// genuinely time-correlated.
#[test]
fn episode_fleet_stats_track_model_and_correlate() {
    let sim = FleetSim::new(FleetConfig {
        samples_per_node: 1500,
        temporal: TemporalMode::Episodes,
        ..FleetConfig::taurus_haswell_scaled(24)
    });
    let run = sim.run();
    let stats = run.episodes.expect("episode stats present");
    for ((&got, &want), state) in stats
        .empirical_shares
        .iter()
        .zip(&stats.model_shares)
        .zip(&stats.states)
    {
        assert!(
            (got - want).abs() < 0.06,
            "{state}: empirical share {got} vs model {want}"
        );
    }
    assert!(
        stats.lag1_autocorr > 0.3,
        "episode power not autocorrelated: {}",
        stats.lag1_autocorr
    );
    // Dwell estimates stay within a factor-band of the configured means
    // (geometric draws, capped by per-node horizon effects).
    for ((&got, &want), state) in stats
        .mean_dwell_ticks
        .iter()
        .zip(sim.config.episodes.mean_dwell_ticks())
        .zip(&stats.states)
    {
        assert!(
            got > want * 0.5 && got < want * 1.5,
            "{state}: empirical dwell {got} vs configured {want}"
        );
    }
}

/// Property (b): per-node episode walks are a pure function of
/// `(seed, node_id)`, so the fleet's sample stream is invariant to the
/// sweep thread count — including under a power cap and under fleet
/// budget arbitration (both policies).
#[test]
fn episode_walks_are_invariant_to_thread_count() {
    let mut cases = Cases::new(0x7128_EAD5);
    for case in 0..6 {
        let nodes = 4 + cases.below(12) as u32;
        let samples = 100 + cases.below(300) as u32;
        let mut cfg = FleetConfig {
            samples_per_node: samples,
            temporal: TemporalMode::Episodes,
            seed: cases.next_u64(),
            ..FleetConfig::taurus_haswell_scaled(nodes)
        };
        if case % 2 == 1 {
            cfg.power_cap_w = Some(280.0 + cases.unit() * 60.0);
        }
        if case >= 2 {
            // A binding-but-feasible budget: above the idle-floor sum
            // (~90 W per node), below the unconstrained mean draw
            // (~146 W per node).
            cfg.budget_w = Some(f64::from(nodes) * (100.0 + cases.unit() * 40.0));
            cfg.budget_policy = if case % 2 == 0 {
                BudgetPolicy::ShedToFloor
            } else {
                BudgetPolicy::Defer
            };
        }
        let runs: Vec<Vec<f64>> = [1usize, 2, 5]
            .iter()
            .map(|&threads| {
                let mut c = cfg.clone();
                c.threads = threads;
                FleetSim::new(c).generate()
            })
            .collect();
        assert_eq!(runs[0], runs[1], "case {case}: 2 threads diverged");
        assert_eq!(runs[0], runs[2], "case {case}: 5 threads diverged");
    }
}

/// Budget property: with `budget_w` set, the fleet-wide sum of node
/// draws never exceeds the budget in any synchronized 60 s tick, for
/// either policy and either temporal mode, across random fleet shapes
/// and budgets — as long as the budget covers the unconditional idle
/// floors.
#[test]
fn fleet_budget_bounds_every_tick_sum() {
    let mut cases = Cases::new(0xB0D6_E701);
    for case in 0..6 {
        let nodes = 6 + cases.below(12) as u32;
        let spn = 100 + cases.below(200) as usize;
        let budget_w = f64::from(nodes) * (95.0 + cases.unit() * 50.0);
        let policy = if case % 2 == 0 {
            BudgetPolicy::ShedToFloor
        } else {
            BudgetPolicy::Defer
        };
        let temporal = if case % 3 == 0 {
            TemporalMode::Iid
        } else {
            TemporalMode::Episodes
        };
        let run = FleetSim::new(FleetConfig {
            samples_per_node: spn as u32,
            temporal,
            seed: cases.next_u64(),
            budget_w: Some(budget_w),
            budget_policy: policy,
            ..FleetConfig::taurus_haswell_scaled(nodes)
        })
        .run();
        let stats = run.budget.as_ref().expect("budget stats");
        assert_eq!(
            stats.infeasible_floor_ticks, 0,
            "case {case}: budget {budget_w} fell below the idle floors"
        );
        // Samples are node-major with a uniform horizon.
        let n = run.samples.len() / spn;
        let tick_sums: Vec<f64> = (0..spn)
            .map(|t| (0..n).map(|i| run.samples[i * spn + t]).sum())
            .collect();
        for (t, &sum) in tick_sums.iter().enumerate() {
            assert!(
                sum <= budget_w + 1e-9,
                "case {case} ({policy:?}, {temporal:?}), tick {t}: \
                 fleet draw {sum} exceeds budget {budget_w}"
            );
        }
        // The reported peak matches the emitted stream's peak.
        let peak = tick_sums.into_iter().fold(0.0, f64::max);
        assert!((peak - stats.peak_fleet_w).abs() < 1e-6, "case {case}");
    }
}

/// Property (b) continued: identical `(seed, node_id)` pairs replay the
/// identical walk; changing either changes the stream.
#[test]
fn episode_walk_is_a_function_of_seed_and_node_id() {
    let mix = JobMix::taurus_haswell();
    let model = EpisodeModel::taurus_haswell(&mix);
    let mut cases = Cases::new(0x5EED_0123);
    for _ in 0..8 {
        let seed = cases.next_u64();
        let node = cases.below(1 << 20) as u32;
        let stream = |s: u64, n: u32| -> Vec<(usize, u64)> {
            let mut w = EpisodeWalk::new(&model, &mix, s, n);
            (0..200)
                .map(|_| {
                    let t = w.next_tick();
                    (t.state, t.duty.to_bits())
                })
                .collect()
        };
        assert_eq!(stream(seed, node), stream(seed, node));
        assert_ne!(stream(seed, node), stream(seed, node.wrapping_add(1)));
        assert_ne!(stream(seed, node), stream(seed ^ 1, node));
    }
}

/// Property (c): `quantile(fraction_at(x)) <= x` for any query at or
/// above the observed minimum, across random sample sets — plus
/// monotonicity of both directions and total absence of NaN/panics.
#[test]
fn power_cdf_round_trip_is_monotone() {
    let mut cases = Cases::new(0xCDF_CDF);
    for case in 0..96 {
        let n = 1 + cases.below(200) as usize;
        let lo = -50.0 + cases.unit() * 400.0;
        let span = 0.5 + cases.unit() * 300.0;
        let samples: Vec<f64> = (0..n).map(|_| lo + cases.unit() * span).collect();
        let bin_width = [0.1, 0.5, 2.0][cases.below(3) as usize];
        let cdf = PowerCdf::from_samples(&samples, bin_width);

        // Bins are monotone and end at full mass.
        for w in cdf.bins.windows(2) {
            assert!(w[1].1 >= w[0].1 && w[1].0 > w[0].0, "case {case}");
        }
        assert!((cdf.bins.last().unwrap().1 - 1.0).abs() < 1e-12);

        // The round trip never overshoots the query point.
        for _ in 0..50 {
            let x = lo - 5.0 + cases.unit() * (span + 10.0);
            let f = cdf.fraction_at(x);
            assert!((0.0..=1.0).contains(&f), "case {case}: fraction {f}");
            if x >= cdf.min_w {
                let q = cdf.quantile(f);
                assert!(
                    q <= x + 1e-9,
                    "case {case}: quantile(fraction_at({x})) = {q} > x"
                );
            }
        }

        // quantile is monotone in q and always finite.
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = cdf.quantile(f64::from(i) / 20.0);
            assert!(q.is_finite(), "case {case}: NaN quantile");
            assert!(q >= prev, "case {case}: quantile not monotone");
            prev = q;
        }
        assert!(cdf.quantile(1.0) <= cdf.max_w + 1e-9);
        assert_eq!(cdf.quantile(0.0), cdf.min_w);
    }
}

/// Property (c) edge cases: out-of-range quantiles and the empty CDF
/// must neither panic nor produce NaN.
#[test]
fn power_cdf_edge_cases_are_total() {
    let empty = PowerCdf::from_samples(&[], 0.1);
    assert_eq!(empty.samples, 0);
    for x in [-10.0, 0.0, 100.0, f64::INFINITY] {
        assert_eq!(empty.fraction_at(x), 0.0);
    }
    for q in [-2.0, 0.0, 0.5, 1.0, 3.0] {
        assert!(empty.quantile(q).is_finite());
    }
    let one = PowerCdf::from_samples(&[123.4], 0.1);
    assert_eq!(one.quantile(-1.0), one.min_w);
    assert!(one.quantile(2.0) <= one.max_w + 1e-9);
    assert!(one.quantile(0.5) <= 123.4 + 1e-9);
}
