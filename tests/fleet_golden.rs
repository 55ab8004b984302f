//! Golden hashes for fleet generation: one FNV-1a-64 value per fleet
//! configuration pins the sample bits, the cap counters and the bits
//! of the episode and budget statistics.
//!
//! Every configuration runs through every public way of generating a
//! fleet — `FleetSim::run` and `FleetSim::run_with` at 1 and 4
//! threads, and `plan` → `run_shard` → `try_merge_shards` at several
//! shard splits plus an uneven, out-of-order tiling — and each run
//! must hash to the same pinned value. A change to any sampler, to the
//! arbiter or to the merge therefore has to keep the committed bytes,
//! not merely agree with another path of the same code. Change a value
//! here only for a deliberate change of the fleet's output.

use firestarter2::calib::FleetProfile;
use firestarter2::cluster::{
    shard_ranges, BudgetPolicy, EpisodeModel, FleetConfig, FleetRun, FleetShard, FleetSim,
    JobClass, JobMix, NodeGroup, PowerCdf, TemporalMode,
};
use firestarter2::core::EngineRegistry;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn f64s(&mut self, vs: &[f64]) {
        self.usize(vs.len());
        for &v in vs {
            self.f64(v);
        }
    }

    fn u64s(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }

    fn strs<S: AsRef<str>>(&mut self, ss: &[S]) {
        self.usize(ss.len());
        for s in ss {
            let s = s.as_ref();
            self.usize(s.len());
            self.bytes(s.as_bytes());
        }
    }

    fn cdf(&mut self, c: &PowerCdf) {
        self.usize(c.bins.len());
        for &(edge, frac) in &c.bins {
            self.f64(edge);
            self.f64(frac);
        }
        self.f64(c.min_w);
        self.f64(c.max_w);
        self.usize(c.samples);
    }
}

/// The pinned digest of one run: samples, cap counters, and the
/// episode and budget statistics (registry counters are excluded —
/// they describe cache warmth, not the fleet).
fn digest(run: &FleetRun) -> u64 {
    let mut h = Fnv::new();
    h.f64s(&run.samples);
    h.usize(run.capped_samples);
    h.usize(run.capped_points);
    h.usize(run.infeasible_points);
    match &run.episodes {
        None => h.u64(0),
        Some(e) => {
            h.u64(1);
            h.strs(&e.states);
            h.f64s(&e.empirical_shares);
            h.f64s(&e.model_shares);
            h.f64s(&e.mean_dwell_ticks);
            h.f64(e.lag1_autocorr);
        }
    }
    match &run.budget {
        None => h.u64(0),
        Some(b) => {
            h.u64(1);
            h.f64(b.budget_w);
            h.strs(&[b.policy.name()]);
            h.usize(b.ticks);
            h.f64(b.peak_fleet_w);
            h.f64(b.mean_fleet_w);
            h.u64s(&b.shed_ticks);
            h.u64s(&b.deferred_ticks);
            h.u64(b.truncated_proposals);
            h.u64(b.infeasible_floor_ticks);
            h.cdf(&b.utilization);
            h.strs(&b.states);
        }
    }
    h.0
}

/// Proposes `ranges` one shard at a time against one plan and merges
/// them in the order given.
fn sharded(sim: &FleetSim, registry: &EngineRegistry, ranges: &[(u32, u32)]) -> FleetRun {
    let plan = sim.plan(registry);
    let shards: Vec<FleetShard> = ranges
        .iter()
        .map(|&(lo, hi)| sim.run_shard(&plan, lo, hi))
        .collect();
    sim.try_merge_shards(registry, &plan, shards)
        .expect("the ranges tile the node range")
}

/// Runs `cfg` through every generation path and checks each digest
/// against `golden`. Returns the single-threaded run for the callers'
/// sanity checks (that the configuration exercises what it claims to).
fn assert_golden(label: &str, cfg: FleetConfig, golden: u64) -> FleetRun {
    let mut runs: Vec<(String, FleetRun)> = Vec::new();
    let serial = FleetSim::new(FleetConfig {
        threads: 1,
        ..cfg.clone()
    });
    runs.push(("run, 1 thread".into(), serial.run()));
    let registry = EngineRegistry::with_seed(cfg.seed);
    let parallel = FleetSim::new(FleetConfig {
        threads: 4,
        ..cfg.clone()
    });
    runs.push(("run_with, 4 threads".into(), parallel.run_with(&registry)));

    let sim = FleetSim::new(cfg);
    let nodes = sim.config.total_nodes();
    for split in [1usize, 2, 7, 64] {
        let ranges = shard_ranges(nodes, split);
        runs.push((
            format!("{split}-way shard split"),
            sharded(&sim, &registry, &ranges),
        ));
    }
    let k = nodes / 3;
    assert!(k >= 2, "{label}: the uneven tiling needs at least 6 nodes");
    runs.push((
        "uneven out-of-order shards".into(),
        sharded(&sim, &registry, &[(k, nodes), (0, 1), (1, k)]),
    ));

    for (path, run) in &runs {
        assert_eq!(
            run.samples.len(),
            sim.config.total_samples(),
            "{label} via {path}: sample count"
        );
        let got = digest(run);
        assert_eq!(
            got, golden,
            "{label} via {path}: digest {got:#018x} != pinned {golden:#018x}"
        );
    }
    runs.swap_remove(0).1
}

fn scaled(nodes: u32, samples_per_node: u32) -> FleetConfig {
    FleetConfig {
        samples_per_node,
        ..FleetConfig::taurus_haswell_scaled(nodes)
    }
}

/// Interleaved duplicate-SKU groups with per-group sample overrides:
/// unequal node horizons and a group order that differs from the
/// engine's deduplicated evaluation order.
fn interleaved() -> FleetConfig {
    let thin = firestarter2::arch::Sku::intel_xeon_e5_2680_v3();
    let fat = firestarter2::arch::Sku::intel_xeon_e5_2695_v3();
    let group = |sku: &firestarter2::arch::Sku, nodes, samples_per_node| NodeGroup {
        sku: sku.clone(),
        nodes,
        samples_per_node,
    };
    FleetConfig {
        groups: vec![
            group(&thin, 3, None),
            group(&fat, 2, Some(701)),
            group(&thin, 5, Some(157)),
            group(&fat, 1, None),
        ],
        samples_per_node: 250,
        ..FleetConfig::taurus_haswell_scaled(2)
    }
}

#[test]
fn iid_fleet_matches_its_golden_hash() {
    let run = assert_golden("iid", scaled(48, 200), 0xFBE5_AA4B_4470_F149);
    assert!(run.episodes.is_none() && run.budget.is_none());
}

#[test]
fn episode_fleet_matches_its_golden_hash() {
    let cfg = FleetConfig {
        temporal: TemporalMode::Episodes,
        ..scaled(48, 200)
    };
    let run = assert_golden("episodes", cfg, 0x3A5C_3F02_DC83_036B);
    assert!(run.episodes.is_some());
}

#[test]
fn budget_shed_to_floor_matches_its_golden_hash() {
    let cfg = FleetConfig {
        budget_w: Some(48.0 * 150.0),
        budget_policy: BudgetPolicy::ShedToFloor,
        ..scaled(48, 200)
    };
    let run = assert_golden("iid budget shed-to-floor", cfg, 0xA0A9_5A02_26C2_2DA0);
    let b = run.budget.expect("budget stats");
    assert!(b.shed_ticks.iter().sum::<u64>() > 0, "the budget must bind");
}

#[test]
fn budget_defer_matches_its_golden_hash() {
    let cfg = FleetConfig {
        temporal: TemporalMode::Episodes,
        budget_w: Some(48.0 * 130.0),
        budget_policy: BudgetPolicy::Defer,
        power_cap_w: Some(280.0),
        ..scaled(48, 200)
    };
    let run = assert_golden("episodes budget defer + cap", cfg, 0xB089_F327_734D_F070);
    let b = run.budget.expect("budget stats");
    assert!(
        b.deferred_ticks.iter().sum::<u64>() > 0,
        "the budget must bind"
    );
    assert!(run.capped_samples > 0, "the cap must remap draws");
}

/// The Fig. 1 fleet (612 nodes × 2000 ticks) as episodes under fig01's
/// binding 90 kW budget: the configuration the budgeted `--fleet` call
/// runs at full size.
fn fig1_budgeted(policy: BudgetPolicy) -> FleetConfig {
    FleetConfig {
        temporal: TemporalMode::Episodes,
        budget_w: Some(90_000.0),
        budget_policy: policy,
        ..scaled(612, 2000)
    }
}

#[test]
fn fig1_budget_shed_to_floor_matches_its_golden_hash() {
    let cfg = fig1_budgeted(BudgetPolicy::ShedToFloor);
    let run = assert_golden("fig1 budgeted episodes, shed", cfg, 0xFEB6_CF3E_4623_F204);
    let b = run.budget.expect("budget stats");
    assert!(b.shed_ticks.iter().sum::<u64>() > 0, "the budget must bind");
}

#[test]
fn fig1_budget_defer_matches_its_golden_hash() {
    let cfg = fig1_budgeted(BudgetPolicy::Defer);
    let run = assert_golden("fig1 budgeted episodes, defer", cfg, 0xF48E_B634_6C7C_1B80);
    let b = run.budget.expect("budget stats");
    assert!(
        b.deferred_ticks.iter().sum::<u64>() > 0,
        "the budget must bind"
    );
}

#[test]
fn infeasible_power_cap_matches_its_golden_hash() {
    let cfg = FleetConfig {
        power_cap_w: Some(300.0),
        ..scaled(48, 200)
    };
    let run = assert_golden("iid power cap 300 W", cfg, 0x535A_D103_456B_80E4);
    assert!(run.capped_points > 0 && run.capped_samples > 0);
    assert!(
        run.infeasible_points > 0,
        "the cap must leave infeasible cells"
    );
}

#[test]
fn exemplar_profile_fleet_matches_its_golden_hash() {
    let mut cfg = scaled(48, 200);
    FleetProfile::exemplar().apply(&mut cfg);
    let run = assert_golden("exemplar profile", cfg, 0x46D4_4DBA_9DFE_5FC4);
    assert!(run.episodes.is_some());
}

#[test]
fn interleaved_groups_with_sample_overrides_match_their_golden_hash() {
    let cfg = FleetConfig {
        power_cap_w: Some(250.0),
        ..interleaved()
    };
    let run = assert_golden("interleaved groups + cap", cfg, 0x8368_1590_9F3A_C8FE);
    assert!(run.capped_samples > 0);
}

#[test]
fn interleaved_budgeted_episodes_match_their_golden_hash() {
    let cfg = FleetConfig {
        temporal: TemporalMode::Episodes,
        budget_w: Some(11.0 * 130.0),
        budget_policy: BudgetPolicy::ShedToFloor,
        ..interleaved()
    };
    let run = assert_golden(
        "interleaved groups, budgeted episodes",
        cfg,
        0xB5D8_414F_63B7_C430,
    );
    let b = run.budget.expect("budget stats");
    assert_eq!(b.ticks, 701, "ticks run to the longest horizon");
    assert!(b.shed_ticks.iter().sum::<u64>() > 0, "the budget must bind");
}

#[test]
fn interleaved_episodes_match_their_golden_hash() {
    // Unequal horizons through the episode write path, no budget.
    let cfg = FleetConfig {
        temporal: TemporalMode::Episodes,
        ..interleaved()
    };
    let run = assert_golden("interleaved groups, episodes", cfg, 0x7E6C_291D_B8BC_8643);
    assert!(run.episodes.is_some(), "episode statistics reported");
    assert!(run.budget.is_none());
}

#[test]
fn interleaved_budgeted_iid_defer_matches_its_golden_hash() {
    // The i.i.d. arbitrated path with unequal horizons: deferrals push
    // proposals past the short nodes' ends.
    let cfg = FleetConfig {
        budget_w: Some(11.0 * 130.0),
        budget_policy: BudgetPolicy::Defer,
        ..interleaved()
    };
    let run = assert_golden(
        "interleaved groups, budgeted iid defer",
        cfg,
        0x1756_E4ED_998D_8D84,
    );
    assert!(run.episodes.is_none());
    let b = run.budget.expect("budget stats");
    assert_eq!(b.ticks, 701, "ticks run to the longest horizon");
    assert!(
        b.deferred_ticks.iter().sum::<u64>() > 0,
        "the budget must bind"
    );
    assert!(
        b.truncated_proposals > 0,
        "defer must push proposals past a horizon"
    );
}

/// A hand-built episode mix over the Taurus payload specs: a
/// zero-weight `parked` class between positive ones, a `medium` class
/// that lists P-state 2 twice, and short dwells, so that a 300-tick
/// walk starts many episodes on every class it can reach.
fn hand_built_episodes() -> FleetConfig {
    let taurus = JobMix::taurus_haswell();
    let class = |spec_of: &str, name: &'static str, pstates: &'static [usize]| JobClass {
        name,
        pstates,
        ..taurus
            .classes()
            .iter()
            .find(|(c, _)| c.name == spec_of)
            .expect("a Taurus class")
            .0
    };
    let mix = JobMix::new(vec![
        (class("idle", "idle", &[2]), 0.30),
        (class("low", "parked", &[0]), 0.0),
        (class("medium", "medium", &[2, 0, 2]), 0.30),
        (class("high", "high", &[0, 1]), 0.30),
        (class("peak", "peak", &[0]), 0.10),
    ]);
    let episodes = EpisodeModel::from_mix(
        &mix,
        0.1,
        5.0,
        &[4.0, 3.0, 8.0, 12.0, 20.0],
        &[0, 0, 1, 2, 2],
    );
    FleetConfig {
        mix,
        episodes,
        temporal: TemporalMode::Episodes,
        seed: 0x5EED,
        power_cap_w: Some(250.0),
        budget_w: Some(3600.0),
        budget_policy: BudgetPolicy::Defer,
        ..scaled(24, 300)
    }
}

#[test]
fn hand_built_episode_mix_matches_its_golden_hash() {
    let run = assert_golden(
        "hand-built episode mix",
        hand_built_episodes(),
        0xF11F_5EF9_D819_41FA,
    );
    let e = run.episodes.expect("episode statistics reported");
    let parked = e
        .states
        .iter()
        .position(|s| s == "parked")
        .expect("a parked state");
    assert_eq!(
        e.empirical_shares[parked], 0.0,
        "a zero-weight class never runs"
    );
    assert!(run.capped_samples > 0, "the cap must remap draws");
    assert!(
        run.infeasible_points > 0,
        "the cap must leave infeasible lanes"
    );
    let b = run.budget.expect("budget stats");
    assert!(
        b.deferred_ticks.iter().sum::<u64>() > 0,
        "the budget must bind"
    );
}
