//! Markov job episodes: the fleet's temporal structure.
//!
//! The i.i.d. per-node-minute sampler reproduces Fig. 1's power
//! *distribution* but not its time correlation: real traces show jobs
//! that dwell at an operating point for many 60 s ticks, ramp in, and
//! hand the node back to the idle floor. An [`EpisodeModel`] is a
//! semi-Markov chain over one explicit idle-floor state plus one state
//! per [`JobMix`] class: each state has a
//! geometric dwell-time distribution (in 60 s ticks), job states have a
//! linear ramp-in profile, and a row-stochastic transition matrix
//! (validated like `JobMix` weights) picks the next state when an
//! episode ends. Duty cycle and P-state are drawn **once per episode**,
//! so consecutive ticks of one job share an operating point — the
//! source of the lag-1 autocorrelation the i.i.d. sampler cannot
//! produce.
//!
//! An [`EpisodeWalk`] is a deterministic function of `(seed, node_id)`:
//! per-node streams are independent of grouping and thread count, so an
//! N-thread fleet fan-out stays bitwise-identical to a serial pass.

use crate::jobs::{pick_weighted, JobMix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Idle-floor time share of [`EpisodeModel::taurus_haswell`], which
/// keeps only the transitions it shapes; profiles read it from here.
pub const TAURUS_HASWELL_FLOOR_SHARE: f64 = 0.10;

/// Upper bound on one episode length; a pathological dwell draw must
/// not stall a walk (P(hit) < 1e-40 for any sane mean).
const MAX_EPISODE_TICKS: u32 = 100_000;

/// Mixing salt so episode streams never collide with the i.i.d.
/// per-node streams derived from the same `(seed, node_id)`.
const EPISODE_SALT: u64 = 0x1BD1_1BDA_A9FC_1A22;

/// One geometric dwell draw on `{1, 2, ...}` with the given mean, via
/// the inverse CDF (one uniform per episode).
fn geometric_ticks(rng: &mut StdRng, mean_ticks: f64) -> u32 {
    if mean_ticks <= 1.0 {
        // Still consume the draw so episode streams do not depend on
        // which states have unit dwell.
        let _ = rng.gen_range(0.0..1.0);
        return 1;
    }
    let p = 1.0 / mean_ticks;
    let u = rng.gen_range(0.0..1.0);
    // L = 1 + floor(ln(1-u) / ln(1-p)) has mean 1/p on {1, 2, ...}.
    let l = 1.0 + ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if l >= f64::from(MAX_EPISODE_TICKS) {
        MAX_EPISODE_TICKS
    } else {
        (l as u32).max(1)
    }
}

/// A semi-Markov episode model over the fleet's states: index 0 is the
/// explicit idle floor (no payload), indices `1..` map to the job-mix
/// classes in order.
#[derive(Debug, Clone)]
pub struct EpisodeModel {
    /// State names (index 0 = `"floor"`, then the class names).
    names: Vec<&'static str>,
    /// Mean dwell per state, in 60 s ticks (>= 1).
    mean_dwell_ticks: Vec<f64>,
    /// Row-stochastic transition matrix of the embedded jump chain;
    /// rows are normalized at construction.
    transitions: Vec<Vec<f64>>,
    /// Linear ramp-in length per state, ticks (0 = full power at once;
    /// always 0 for the floor state).
    ramp_ticks: Vec<u32>,
    /// Long-run fraction of *time* spent in each state (jump-chain
    /// stationary distribution weighted by dwell), computed once.
    stationary_time: Vec<f64>,
}

impl EpisodeModel {
    /// Builds and validates a model. Panics (like [`JobMix::new`]) on
    /// malformed input: fewer than two states, mismatched lengths,
    /// dwell below one tick, negative matrix entries, or a row with no
    /// positive weight. Rows need not sum to 1; they are normalized.
    pub fn new(
        names: Vec<&'static str>,
        mean_dwell_ticks: Vec<f64>,
        transitions: Vec<Vec<f64>>,
        ramp_ticks: Vec<u32>,
    ) -> EpisodeModel {
        let n = names.len();
        assert!(n >= 2, "episode model needs the floor plus >= 1 class");
        assert_eq!(mean_dwell_ticks.len(), n, "dwell length != state count");
        assert_eq!(transitions.len(), n, "transition rows != state count");
        assert_eq!(ramp_ticks.len(), n, "ramp length != state count");
        for (i, &d) in mean_dwell_ticks.iter().enumerate() {
            assert!(
                d.is_finite() && d >= 1.0,
                "{}: mean dwell {d} below one tick",
                names[i]
            );
        }
        let transitions: Vec<Vec<f64>> = transitions
            .into_iter()
            .enumerate()
            .map(|(i, row)| {
                assert_eq!(row.len(), n, "{}: row length != state count", names[i]);
                let mut total = 0.0;
                for &w in &row {
                    assert!(
                        w.is_finite() && w >= 0.0,
                        "{}: negative transition weight {w}",
                        names[i]
                    );
                    total += w;
                }
                assert!(total > 0.0, "{}: row has no positive weight", names[i]);
                row.into_iter().map(|w| w / total).collect()
            })
            .collect();
        let stationary_time = time_shares(&transitions, &mean_dwell_ticks);
        EpisodeModel {
            names,
            mean_dwell_ticks,
            transitions,
            ramp_ticks,
            stationary_time,
        }
    }

    /// A model whose long-run *time* shares match `mix`'s weights
    /// scaled by `1 - floor_share`, with `floor_share` of the time on
    /// the explicit idle floor. Every row of the transition matrix is
    /// the same jump distribution `q_j ∝ share_j / dwell_j`, so the
    /// embedded chain's stationary distribution is `q` and the time
    /// share of state `j` is exactly `q_j · dwell_j ∝ share_j`.
    ///
    /// Because every row is identical, the diagonal is *not* zero:
    /// state `j` self-transitions with probability `q_j`. A
    /// self-transition ends the episode and immediately starts a new
    /// one in the same state — with fresh dwell, duty and P-state
    /// draws and a restarted ramp — so consecutive same-state ticks
    /// are not guaranteed to share an operating point (only ticks of
    /// one *episode* are). A zero-weight mix class gets `q_j = 0`:
    /// the state exists in the model but is unreachable (zero
    /// stationary share, never visited by an [`EpisodeWalk`]).
    pub fn from_mix(
        mix: &JobMix,
        floor_share: f64,
        floor_dwell_ticks: f64,
        class_dwell_ticks: &[f64],
        class_ramp_ticks: &[u32],
    ) -> EpisodeModel {
        let classes = mix.classes();
        assert!(
            (0.0..1.0).contains(&floor_share) && floor_share > 0.0,
            "floor share {floor_share} outside (0, 1)"
        );
        assert_eq!(class_dwell_ticks.len(), classes.len());
        assert_eq!(class_ramp_ticks.len(), classes.len());
        let total: f64 = classes.iter().map(|(_, w)| w).sum();
        let mut names = vec!["floor"];
        let mut dwell = vec![floor_dwell_ticks];
        let mut shares = vec![floor_share];
        let mut ramps = vec![0u32];
        for ((class, w), (&d, &r)) in classes
            .iter()
            .zip(class_dwell_ticks.iter().zip(class_ramp_ticks))
        {
            names.push(class.name);
            dwell.push(d);
            shares.push((1.0 - floor_share) * w / total);
            ramps.push(r);
        }
        let row: Vec<f64> = shares
            .iter()
            .zip(&dwell)
            .map(|(&s, &d)| s / d.max(1.0))
            .collect();
        let transitions = vec![row; names.len()];
        EpisodeModel::new(names, dwell, transitions, ramps)
    }

    /// The Taurus Haswell profile behind the Fig. 1 time-correlated
    /// variant: 10 % of node time on the bare idle floor, job dwells
    /// growing with intensity (interactive/idle sessions are short,
    /// peak jobs run for hours), short ramps on the heavy classes.
    pub fn taurus_haswell(mix: &JobMix) -> EpisodeModel {
        EpisodeModel::from_mix(
            mix,
            TAURUS_HASWELL_FLOOR_SHARE,
            15.0,
            &[10.0, 20.0, 30.0, 60.0, 120.0],
            &[0, 1, 1, 2, 3],
        )
    }

    /// Number of states (floor + classes).
    pub fn n_states(&self) -> usize {
        self.names.len()
    }

    /// State names; index 0 is the floor.
    pub fn state_names(&self) -> &[&'static str] {
        &self.names
    }

    /// Mean dwell per state, in 60 s ticks.
    pub fn mean_dwell_ticks(&self) -> &[f64] {
        &self.mean_dwell_ticks
    }

    /// Ramp-in length per state, ticks.
    pub fn ramp_ticks(&self) -> &[u32] {
        &self.ramp_ticks
    }

    /// The normalized transition matrix (row `i` = jump distribution
    /// out of state `i`).
    pub fn transitions(&self) -> &[Vec<f64>] {
        &self.transitions
    }

    /// Long-run fraction of time per state (stationary distribution of
    /// the embedded jump chain, weighted by mean dwell).
    pub fn stationary_time_shares(&self) -> &[f64] {
        &self.stationary_time
    }
}

/// Stationary time shares: power-iterate `π ← πP` (deterministic, no
/// RNG), then weight by dwell and normalize.
fn time_shares(transitions: &[Vec<f64>], dwell: &[f64]) -> Vec<f64> {
    let n = transitions.len();
    let mut pi = vec![1.0 / n as f64; n];
    for _ in 0..500 {
        let mut next = vec![0.0; n];
        for (i, row) in transitions.iter().enumerate() {
            for (j, &p) in row.iter().enumerate() {
                next[j] += pi[i] * p;
            }
        }
        pi = next;
    }
    let mut t: Vec<f64> = pi.iter().zip(dwell).map(|(&p, &d)| p * d).collect();
    let total: f64 = t.iter().sum();
    assert!(total > 0.0, "degenerate stationary distribution");
    for v in &mut t {
        *v /= total;
    }
    t
}

/// One 60 s tick of an episode walk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tick {
    /// Model state index (0 = floor).
    pub state: usize,
    /// Job-mix class index for job states, `None` on the floor.
    pub class: Option<usize>,
    /// Ramp-scaled effective duty cycle for this tick (0 on the floor).
    pub duty: f64,
    /// The slot of the class's [`crate::JobClass::pstates`] drawn for
    /// the episode (0 on the floor): the P-state the episode runs at is
    /// `pstates[pstate]`, and the fleet composes the tick from its
    /// operating-point lane for that slot.
    pub pstate: usize,
}

/// A deterministic per-node walk through the episode model. The RNG
/// stream is a pure function of `(seed, node_id)`: two walks with the
/// same pair produce identical tick sequences regardless of how the
/// fleet is grouped or threaded.
#[derive(Debug, Clone)]
pub struct EpisodeWalk<'a> {
    model: &'a EpisodeModel,
    mix: &'a JobMix,
    rng: StdRng,
    state: usize,
    episode_len: u32,
    tick_in_episode: u32,
    duty: f64,
    pstate: usize,
    /// Ticks spent per state (for empirical stationary shares).
    state_ticks: Vec<u64>,
    /// Episodes started per state (for empirical mean dwell).
    episode_counts: Vec<u64>,
}

impl<'a> EpisodeWalk<'a> {
    /// Starts a walk for one node. The initial state is drawn from the
    /// model's stationary time shares so short runs start in steady
    /// state rather than burning in.
    pub fn new(
        model: &'a EpisodeModel,
        mix: &'a JobMix,
        seed: u64,
        node_id: u32,
    ) -> EpisodeWalk<'a> {
        assert_eq!(
            model.n_states(),
            mix.classes().len() + 1,
            "episode model states must be floor + one per mix class"
        );
        let mut rng = StdRng::seed_from_u64(
            seed ^ EPISODE_SALT ^ (u64::from(node_id).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let x = rng.gen_range(0.0..1.0);
        let state = pick_weighted(model.stationary_time_shares().iter().copied(), x);
        let n = model.n_states();
        let mut walk = EpisodeWalk {
            model,
            mix,
            rng,
            state,
            episode_len: 1,
            tick_in_episode: 0,
            duty: 0.0,
            pstate: 0,
            state_ticks: vec![0; n],
            episode_counts: vec![0; n],
        };
        walk.start_episode(state);
        walk
    }

    /// Begins a new episode in `state`: one dwell draw, plus one duty
    /// and one P-state draw for job states (shared by every tick of the
    /// episode — the time correlation).
    fn start_episode(&mut self, state: usize) {
        self.state = state;
        self.episode_counts[state] += 1;
        self.episode_len = geometric_ticks(&mut self.rng, self.model.mean_dwell_ticks[state]);
        self.tick_in_episode = 0;
        if state > 0 {
            let class = &self.mix.classes()[state - 1].0;
            self.duty = class.draw_duty(&mut self.rng);
            self.pstate = class.draw_pstate(&mut self.rng);
        } else {
            self.duty = 0.0;
            self.pstate = 0;
        }
    }

    /// Produces the next 60 s tick and advances the walk.
    pub fn next_tick(&mut self) -> Tick {
        let state = self.state;
        let ramp = self.model.ramp_ticks[state];
        let ramp_scale = if state > 0 && ramp > 0 {
            (f64::from(self.tick_in_episode + 1) / f64::from(ramp)).min(1.0)
        } else {
            1.0
        };
        let tick = Tick {
            state,
            class: state.checked_sub(1),
            duty: self.duty * ramp_scale,
            pstate: self.pstate,
        };
        self.state_ticks[state] += 1;
        self.tick_in_episode += 1;
        if self.tick_in_episode >= self.episode_len {
            let x = self.rng.gen_range(0.0..1.0);
            let next = pick_weighted(self.model.transitions[state].iter().copied(), x);
            self.start_episode(next);
        }
        tick
    }

    /// Ticks spent per state so far.
    pub fn state_ticks(&self) -> &[u64] {
        &self.state_ticks
    }

    /// Episodes started per state so far (the running one included).
    pub fn episode_counts(&self) -> &[u64] {
        &self.episode_counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> (JobMix, EpisodeModel) {
        let mix = JobMix::taurus_haswell();
        let model = EpisodeModel::taurus_haswell(&mix);
        (mix, model)
    }

    #[test]
    fn from_mix_time_shares_match_configured_weights() {
        let (mix, model) = model();
        let shares = model.stationary_time_shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((shares[0] - 0.10).abs() < 1e-9, "floor share {}", shares[0]);
        let total: f64 = mix.classes().iter().map(|(_, w)| w).sum();
        for (i, (_, w)) in mix.classes().iter().enumerate() {
            let want = 0.90 * w / total;
            assert!(
                (shares[i + 1] - want).abs() < 1e-9,
                "class {i}: share {} != {want}",
                shares[i + 1]
            );
        }
    }

    #[test]
    fn rows_are_normalized_and_validated() {
        let m = EpisodeModel::new(
            vec!["floor", "a"],
            vec![5.0, 10.0],
            vec![vec![1.0, 3.0], vec![2.0, 2.0]],
            vec![0, 1],
        );
        for row in m.transitions() {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
        assert_eq!(m.transitions()[0], vec![0.25, 0.75]);
    }

    #[test]
    #[should_panic(expected = "below one tick")]
    fn sub_tick_dwell_is_rejected() {
        let _ = EpisodeModel::new(
            vec!["floor", "a"],
            vec![0.5, 10.0],
            vec![vec![0.5, 0.5], vec![0.5, 0.5]],
            vec![0, 0],
        );
    }

    #[test]
    #[should_panic(expected = "no positive weight")]
    fn zero_row_is_rejected() {
        let _ = EpisodeModel::new(
            vec!["floor", "a"],
            vec![5.0, 10.0],
            vec![vec![0.0, 0.0], vec![0.5, 0.5]],
            vec![0, 0],
        );
    }

    #[test]
    #[should_panic(expected = "negative transition weight")]
    fn negative_weight_is_rejected() {
        let _ = EpisodeModel::new(
            vec!["floor", "a"],
            vec![5.0, 10.0],
            vec![vec![0.5, -0.5], vec![0.5, 0.5]],
            vec![0, 0],
        );
    }

    #[test]
    fn geometric_dwell_mean_is_calibrated() {
        let mut rng = StdRng::seed_from_u64(7);
        for &mean in &[1.0, 4.0, 30.0, 120.0] {
            let n = 40_000;
            let total: u64 = (0..n)
                .map(|_| u64::from(geometric_ticks(&mut rng, mean)))
                .sum();
            let got = total as f64 / f64::from(n);
            assert!(
                (got - mean).abs() < mean * 0.05 + 0.01,
                "mean dwell {got} != {mean}"
            );
        }
    }

    #[test]
    fn unit_mean_dwell_consumes_exactly_one_draw() {
        // Regression guard for stream alignment: the `mean_ticks <= 1`
        // shortcut must consume exactly one uniform, like the general
        // path, so episode streams do not depend on which states have
        // unit dwell.
        for seed in 0..32u64 {
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            assert_eq!(geometric_ticks(&mut a, 1.0), 1);
            let _: f64 = b.gen_range(0.0..1.0); // the one draw
                                                // Both streams are now aligned: the next draws agree.
            for _ in 0..4 {
                assert_eq!(
                    a.gen_range(0.0..1.0).to_bits(),
                    b.gen_range(0.0..1.0).to_bits(),
                    "seed {seed}: unit-dwell path consumed != 1 draw"
                );
            }
        }
    }

    #[test]
    fn pathological_dwell_clamps_at_max_episode_ticks() {
        // A huge mean pushes nearly every inverse-CDF draw past the
        // clamp; no draw may ever exceed it (a stalled walk would hang
        // the fleet propose phase).
        let mut rng = StdRng::seed_from_u64(11);
        let mut clamped = 0u32;
        for _ in 0..1000 {
            let l = geometric_ticks(&mut rng, 1e12);
            assert!(l <= MAX_EPISODE_TICKS, "dwell {l} escaped the clamp");
            if l == MAX_EPISODE_TICKS {
                clamped += 1;
            }
        }
        assert!(clamped > 900, "only {clamped}/1000 draws hit the clamp");
        // Sane means never come near it.
        for _ in 0..1000 {
            assert!(geometric_ticks(&mut rng, 120.0) < MAX_EPISODE_TICKS);
        }
    }

    #[test]
    fn zero_weight_class_is_an_unreachable_state() {
        // `from_mix` with a zero-weight class: the identical-row
        // construction gives that state jump probability q_j = 0, so
        // it has zero stationary share and no walk ever visits it.
        let dummy = |name: &'static str, w: f64| {
            (
                crate::jobs::JobClass {
                    name,
                    spec: "REG:1",
                    duty: (0.1, 0.5),
                    pstates: &[0],
                },
                w,
            )
        };
        let mix = JobMix::new(vec![
            dummy("a", 0.5),
            dummy("disabled", 0.0),
            dummy("c", 0.5),
        ]);
        let model = EpisodeModel::from_mix(&mix, 0.2, 10.0, &[5.0, 5.0, 5.0], &[0, 0, 0]);
        // State 2 = the zero-weight class: zero stationary time share.
        assert_eq!(model.stationary_time_shares()[2], 0.0);
        for row in model.transitions() {
            assert_eq!(row[2], 0.0, "jump probability into a dead state");
        }
        for node in 0..8u32 {
            let mut walk = EpisodeWalk::new(&model, &mix, 77, node);
            for _ in 0..2000 {
                assert_ne!(
                    walk.next_tick().state,
                    2,
                    "node {node} visited a dead state"
                );
            }
            assert_eq!(walk.state_ticks()[2], 0);
            assert_eq!(walk.episode_counts()[2], 0);
        }
    }

    #[test]
    fn identical_rows_allow_self_transitions() {
        // The from_mix construction has a nonzero diagonal: an episode
        // can be followed by a fresh episode of the same state (new
        // dwell/duty/P-state draws). Verify the diagonal really is the
        // stationary jump distribution, i.e. rows are identical.
        let (_, model) = model();
        let rows = model.transitions();
        for row in rows.iter().skip(1) {
            assert_eq!(row, &rows[0], "from_mix rows must be identical");
        }
        assert!(
            rows[0].iter().all(|&p| p > 0.0),
            "every state (floor included) must self-transition with p > 0"
        );
    }

    #[test]
    fn walk_is_deterministic_per_seed_and_node() {
        let (mix, model) = model();
        let ticks = |seed: u64, node: u32| -> Vec<Tick> {
            let mut w = EpisodeWalk::new(&model, &mix, seed, node);
            (0..500).map(|_| w.next_tick()).collect()
        };
        assert_eq!(ticks(1, 3), ticks(1, 3));
        assert_ne!(ticks(1, 3), ticks(1, 4), "node streams must differ");
        assert_ne!(ticks(1, 3), ticks(2, 3), "seed streams must differ");
    }

    #[test]
    fn episodes_share_an_operating_point() {
        // With no self-transitions, consecutive same-state ticks always
        // belong to one episode: the P-state must be constant and the
        // ramped duty monotone within any same-state stretch.
        let mix = JobMix::taurus_haswell();
        let n = mix.classes().len() + 1;
        let mut rows = vec![vec![1.0; n]; n];
        for (i, row) in rows.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        let model = EpisodeModel::new(
            vec!["floor", "idle", "low", "medium", "high", "peak"],
            vec![5.0, 10.0, 20.0, 30.0, 60.0, 120.0],
            rows,
            vec![0, 0, 1, 1, 2, 3],
        );
        let mut w = EpisodeWalk::new(&model, &mix, 9, 0);
        let mut prev: Option<Tick> = None;
        for _ in 0..3000 {
            let t = w.next_tick();
            if let Some(p) = prev {
                if p.state == t.state {
                    assert_eq!(p.pstate, t.pstate, "P-state changed mid-episode");
                    assert!(
                        t.duty >= p.duty - 1e-12,
                        "duty fell mid-ramp: {} -> {}",
                        p.duty,
                        t.duty
                    );
                }
            }
            if t.state == 0 {
                assert_eq!(t.duty, 0.0);
                assert_eq!(t.class, None);
            } else {
                assert_eq!(t.class, Some(t.state - 1));
                assert!((0.0..=1.0).contains(&t.duty));
            }
            prev = Some(t);
        }
    }

    #[test]
    fn empirical_time_shares_converge() {
        let (mix, model) = model();
        let n_states = model.n_states();
        let mut ticks = vec![0u64; n_states];
        for node in 0..24u32 {
            let mut w = EpisodeWalk::new(&model, &mix, 42, node);
            let mut local = vec![0u64; n_states];
            for _ in 0..3000 {
                let t = w.next_tick();
                local[t.state] += 1;
            }
            // The walk's own counters must agree with the tick stream.
            assert_eq!(local, w.state_ticks());
            for (a, b) in ticks.iter_mut().zip(&local) {
                *a += b;
            }
        }
        let total: u64 = ticks.iter().sum();
        for (i, &share) in model.stationary_time_shares().iter().enumerate() {
            let got = ticks[i] as f64 / total as f64;
            assert!(
                (got - share).abs() < 0.05,
                "state {i}: empirical {got} vs model {share}"
            );
        }
    }
}
