//! The auto-calibration loop: fit a [`FleetProfile`] to a target
//! trace by running NSGA-II over `FleetSim` itself.
//!
//! The fit splits along what can be solved in closed form and what
//! cannot:
//!
//! * **Moment matching** (state-labeled traces). `EpisodeModel::
//!   from_mix` makes long-run time shares *equal* to the configured
//!   shares, so floor share and class weights are read straight off
//!   the trace. Episode dwells need one correction: `from_mix` rows
//!   are identical, so a state self-transitions with probability
//!   `q_j` and consecutive episodes merge into one *observed run* of
//!   expected length `d_j / (1 - q_j)`. A short fixed-point iteration
//!   inverts that bias, recovering episode dwells whose observed runs
//!   match the trace's.
//! * **NSGA-II search** (everything moments cannot give): per-class
//!   duty-cycle bands and P-state sets — and, for unlabeled traces,
//!   the floor share, a dwell scale and the class weights too. Each
//!   candidate profile is applied to a small evaluation fleet and
//!   scored by running `FleetSim` (seeded, bitwise thread-invariant);
//!   all candidates, and the final clone fleet, share one
//!   `EngineRegistry`, so after the first candidate warms the
//!   `(SKU, spec, P-state)` tables every later evaluation is pure
//!   cache hits plus sampling. Its engine seed is the default one:
//!   the evaluation and clone seeds key only the fleets' node streams.
//!
//! Objectives (all errors, negated for the maximizing optimizer):
//! power-CDF distance, pooled lag-1 autocorrelation error, and mean
//! per-state observed-run dwell error. The returned
//! [`FidelityReport`] re-measures the *final* profile against a
//! fresh, independently seeded clone fleet — those are the numbers
//! the CI gate and `BENCH_fleet.json` carry.
//!
//! Determinism: the fit is a pure function of `(trace, CalibConfig)`.
//! `CalibConfig::threads` only sets how many shards (one per thread)
//! the evaluation fleets run in, which never changes `FleetSim` bits.

use crate::profile::{FleetProfile, PSTATE_SETS};
use crate::trace::{FitTargets, Trace};
use fs2_cluster::fleet::{FleetConfig, FleetSim, PowerCdf};
use fs2_core::EngineRegistry;
use fs2_tuning::{Nsga2, Nsga2Config, Problem};
use std::fmt;

/// Seed salt for the candidate-evaluation fleet.
const EVAL_SALT: u64 = 0xCA11_B0A7;
/// Seed salt for the final fidelity clone (independent of both the
/// evaluation fleet and any seed the target trace was built from).
const CLONE_SALT: u64 = 0xC10E_5EED;

/// Calibration budget and evaluation-fleet sizing.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibConfig {
    /// Nodes in the candidate-evaluation fleet.
    pub eval_nodes: u32,
    /// Ticks per node in the candidate-evaluation fleet.
    pub eval_ticks: u32,
    /// Nodes in the final fidelity clone; 0 = match the trace.
    pub clone_nodes: u32,
    /// Ticks per node in the final fidelity clone; 0 = match the
    /// trace's mean ticks per node.
    pub clone_ticks: u32,
    /// Master seed: drives NSGA-II and derives the evaluation/clone
    /// fleet seeds. The whole fit is a pure function of
    /// `(trace, seed)` plus the budget fields.
    pub seed: u64,
    /// Shard threads for the evaluation/clone fleets
    /// ([`FleetConfig::threads`]; 0 = host parallelism). Never changes
    /// any fitted parameter or fidelity bit — `FleetSim` is
    /// thread-invariant.
    pub threads: usize,
    /// NSGA-II population size (>= 2).
    pub individuals: usize,
    /// NSGA-II generations.
    pub generations: u32,
}

impl Default for CalibConfig {
    fn default() -> CalibConfig {
        CalibConfig {
            eval_nodes: 32,
            eval_ticks: 600,
            clone_nodes: 0,
            clone_ticks: 0,
            seed: 0xCA11_BF17,
            threads: 0,
            individuals: 16,
            generations: 8,
        }
    }
}

/// A typed calibration failure.
#[derive(Debug, Clone, PartialEq)]
pub enum CalibError {
    /// A trace state label that is neither `floor` nor a known class.
    UnknownState { name: String },
    /// A labeled trace with no job states at all (floor only):
    /// there is no mix to fit.
    NoJobStates,
}

impl fmt::Display for CalibError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CalibError::UnknownState { name } => {
                write!(f, "trace state {name:?} is not floor or a known class")
            }
            CalibError::NoJobStates => {
                write!(f, "trace never leaves the idle floor; no job mix to fit")
            }
        }
    }
}

impl std::error::Error for CalibError {}

/// Per-state fidelity row: target vs clone, shares and observed-run
/// dwell.
#[derive(Debug, Clone, PartialEq)]
pub struct StateFidelity {
    pub state: String,
    pub target_share: f64,
    pub clone_share: f64,
    /// Mean observed-run length in the trace, ticks (0 if absent).
    pub target_dwell_ticks: f64,
    pub clone_dwell_ticks: f64,
}

/// Clone-quality numbers: the final fitted profile re-measured
/// against an independently seeded clone fleet. These are the fields
/// CI gates on.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// Mean |CDF_target - CDF_clone| over a uniform power grid
    /// spanning both supports.
    pub cdf_distance: f64,
    pub target_lag1: f64,
    pub clone_lag1: f64,
    /// |target_lag1 - clone_lag1|.
    pub autocorr_error: f64,
    /// max over states of |share_target - share_clone| (0.0 for
    /// unlabeled traces).
    pub max_share_error: f64,
    /// Mean/max over trace states of relative observed-run dwell
    /// error (0.0 for unlabeled traces).
    pub mean_dwell_rel_error: f64,
    pub max_dwell_rel_error: f64,
    /// Per-state table (empty for unlabeled traces).
    pub states: Vec<StateFidelity>,
    /// Fidelity-clone fleet size actually used.
    pub clone_nodes: u32,
    pub clone_ticks_per_node: u32,
}

impl FidelityReport {
    /// Human-readable report for the CLI.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "clone fidelity ({} nodes x {} ticks):\n",
            self.clone_nodes, self.clone_ticks_per_node
        ));
        out.push_str(&format!("  cdf_distance        {:.4}\n", self.cdf_distance));
        out.push_str(&format!(
            "  lag1_autocorr       target {:.4}  clone {:.4}  error {:.4}\n",
            self.target_lag1, self.clone_lag1, self.autocorr_error
        ));
        if !self.states.is_empty() {
            out.push_str(&format!(
                "  max_share_error     {:.4}\n",
                self.max_share_error
            ));
            out.push_str(&format!(
                "  dwell_rel_error     mean {:.4}  max {:.4}\n",
                self.mean_dwell_rel_error, self.max_dwell_rel_error
            ));
            out.push_str("  state      share(target/clone)   dwell(target/clone)\n");
            for s in &self.states {
                out.push_str(&format!(
                    "  {:<9} {:.4} / {:.4}       {:.1} / {:.1}\n",
                    s.state,
                    s.target_share,
                    s.clone_share,
                    s.target_dwell_ticks,
                    s.clone_dwell_ticks
                ));
            }
        }
        out
    }
}

/// The calibration output: the fitted profile plus its fidelity.
#[derive(Debug, Clone)]
pub struct CalibrationResult {
    pub profile: FleetProfile,
    pub report: FidelityReport,
    /// NSGA-II evaluations, one per genome the search scored,
    /// duplicate-genome cache hits included: `evaluations -
    /// nsga_cache_hits` of them ran an evaluation fleet.
    pub evaluations: u32,
    /// NSGA-II evaluations answered from the duplicate-genome cache,
    /// without a fleet run.
    pub nsga_cache_hits: u32,
}

/// Moment-matched share/dwell parameters for a labeled trace.
struct Moments {
    floor_share: f64,
    floor_dwell: f64,
    /// Per known class: mix weight (trace time share; 0 when the
    /// class never appears).
    weights: Vec<f64>,
    /// Per known class: episode dwell after self-transition
    /// de-biasing.
    dwells: Vec<f64>,
}

/// Recovers episode-level dwells from observed-run dwells. With
/// `from_mix`'s identical rows, state `j` self-transitions with
/// `q_j = (s_j/d_j) / Σ_k (s_k/d_k)` and the expected observed run is
/// `d_j / (1 - q_j)`; iterate `d_j ← r_j · (1 - q_j)` to a fixed
/// point (contractive for q < 1; 60 rounds is far past convergence).
fn debias_dwells(shares: &[f64], runs: &[f64]) -> Vec<f64> {
    let mut d: Vec<f64> = runs.iter().map(|&r| r.max(1.0)).collect();
    for _ in 0..60 {
        let denom: f64 = shares
            .iter()
            .zip(&d)
            .filter(|(&s, _)| s > 0.0)
            .map(|(&s, &dj)| s / dj)
            .sum();
        if denom <= 0.0 {
            break;
        }
        for j in 0..d.len() {
            if shares[j] > 0.0 {
                let q = (shares[j] / d[j]) / denom;
                d[j] = (runs[j] * (1.0 - q)).max(1.0);
            }
        }
    }
    d
}

/// Extracts moment-matched parameters from a labeled trace's targets.
fn match_moments(targets: &FitTargets, names: &[&str]) -> Result<Option<Moments>, CalibError> {
    let Some(labels) = &targets.labels else {
        return Ok(None);
    };
    // Trace state order → (floor | class index) mapping.
    let mut share_of = vec![0.0f64; names.len() + 1];
    let mut run_of = vec![0.0f64; names.len() + 1];
    for (i, state) in labels.states.iter().enumerate() {
        let slot = if state == "floor" {
            0
        } else {
            match names.iter().position(|n| n == state) {
                Some(c) => c + 1,
                None => {
                    return Err(CalibError::UnknownState {
                        name: state.clone(),
                    })
                }
            }
        };
        share_of[slot] = labels.shares[i];
        run_of[slot] = labels.mean_run_ticks[i];
    }
    if share_of[1..].iter().all(|&s| s == 0.0) {
        return Err(CalibError::NoJobStates);
    }
    // A trace that never idles still needs a (tiny) floor state:
    // `from_mix` requires floor_share > 0.
    if share_of[0] == 0.0 {
        share_of[0] = 1e-3;
        run_of[0] = 1.0;
    }
    let dwells = debias_dwells(&share_of, &run_of);
    Ok(Some(Moments {
        floor_share: share_of[0],
        floor_dwell: dwells[0],
        weights: share_of[1..].to_vec(),
        dwells: dwells[1..].to_vec(),
    }))
}

/// Mean absolute CDF difference over a uniform 257-point power grid
/// spanning both supports.
fn cdf_distance(a: &PowerCdf, b: &PowerCdf) -> f64 {
    if a.samples == 0 || b.samples == 0 {
        return 1.0;
    }
    let lo = a.min_w.min(b.min_w);
    let hi = a.max_w.max(b.max_w);
    if hi <= lo {
        return (a.fraction_at(lo) - b.fraction_at(lo)).abs();
    }
    let n = 257;
    let mut total = 0.0;
    for i in 0..n {
        let x = lo + (hi - lo) * (i as f64) / ((n - 1) as f64);
        total += (a.fraction_at(x) - b.fraction_at(x)).abs();
    }
    total / n as f64
}

/// The NSGA-II problem: decode genes → profile → evaluation-fleet run
/// → distance to the trace targets.
struct CloneProblem<'a> {
    targets: &'a FitTargets,
    moments: Option<Moments>,
    /// Trace run dwells indexed like the model states (floor first),
    /// for the dwell objective; empty when unlabeled.
    target_runs: Vec<f64>,
    base: FleetProfile,
    eval_cfg: FleetConfig,
    registry: &'a EngineRegistry,
}

impl CloneProblem<'_> {
    /// Genome layout. Labeled traces (shares/dwells moment-matched):
    /// 3 genes per class — duty_lo (percent, 0..=95), duty_width
    /// (percent of the remaining headroom, 1..=100), P-state set
    /// index. Unlabeled traces prepend floor_share (percent, 1..=60)
    /// and a dwell scale (percent, 25..=400), and append one weight
    /// gene (1..=100) per class.
    fn gene_bounds(&self) -> Vec<(u32, u32)> {
        let n_classes = self.base.classes.len();
        let mut b = Vec::new();
        if self.moments.is_none() {
            b.push((1, 60));
            b.push((25, 400));
        }
        for _ in 0..n_classes {
            b.push((0, 95));
            b.push((1, 100));
            b.push((0, (PSTATE_SETS.len() - 1) as u32));
        }
        if self.moments.is_none() {
            for _ in 0..n_classes {
                b.push((1, 100));
            }
        }
        b
    }

    /// Decodes a genome into a complete profile.
    fn decode(&self, genes: &[u32]) -> FleetProfile {
        let n_classes = self.base.classes.len();
        let mut p = self.base.clone();
        let class_base = if self.moments.is_none() { 2 } else { 0 };
        match &self.moments {
            Some(m) => {
                p.floor_share = m.floor_share;
                p.floor_dwell_ticks = m.floor_dwell;
                for (i, c) in p.classes.iter_mut().enumerate() {
                    c.weight = m.weights[i];
                    c.dwell_ticks = m.dwells[i];
                }
            }
            None => {
                p.floor_share = f64::from(genes[0]) / 100.0;
                let scale = f64::from(genes[1]) / 100.0;
                for (i, c) in p.classes.iter_mut().enumerate() {
                    c.dwell_ticks = (self.base.classes[i].dwell_ticks * scale).max(1.0);
                    c.weight = f64::from(genes[2 + 3 * n_classes + i]) / 100.0;
                }
                p.floor_dwell_ticks = (self.base.floor_dwell_ticks * scale).max(1.0);
            }
        }
        for (i, c) in p.classes.iter_mut().enumerate() {
            let lo = f64::from(genes[class_base + 3 * i]) / 100.0;
            let width = f64::from(genes[class_base + 3 * i + 1]) / 100.0;
            let hi = lo + width * (1.0 - lo);
            // width >= 1% keeps the band non-empty; clamp away from
            // exact 1.0 rounding.
            c.duty = (lo, hi.min(1.0).max(lo + 1e-4));
            c.pstate_set = genes[class_base + 3 * i + 2] as usize;
        }
        p
    }

    /// Runs one candidate through the evaluation fleet and extracts
    /// its targets with the same estimator used on the trace.
    fn measure(&self, profile: &FleetProfile) -> FitTargets {
        let mut cfg = self.eval_cfg.clone();
        profile.apply(&mut cfg);
        let run = FleetSim::new(cfg.clone()).run_with(self.registry);
        Trace::from_fleet(&cfg, &run.samples).targets()
    }

    /// Error triple (cdf, autocorr, dwell) for a candidate's
    /// measured targets.
    fn errors(&self, got: &FitTargets) -> (f64, f64, f64) {
        let cdf = cdf_distance(&self.targets.cdf, &got.cdf);
        let ac = (self.targets.lag1_autocorr - got.lag1_autocorr).abs();
        let dwell = if self.target_runs.is_empty() {
            0.0
        } else {
            let got_labels = got.labels.as_ref().expect("eval fleet is labeled");
            let state_names: Vec<&str> = std::iter::once("floor")
                .chain(self.base.classes.iter().map(|c| c.name))
                .collect();
            let mut total = 0.0;
            let mut n = 0usize;
            for (j, &target_run) in self.target_runs.iter().enumerate() {
                if target_run <= 0.0 {
                    continue;
                }
                let name = state_names[j];
                let got_run = got_labels
                    .states
                    .iter()
                    .position(|s| s == name)
                    .map(|i| got_labels.mean_run_ticks[i])
                    .unwrap_or(0.0);
                total += (got_run - target_run).abs() / target_run.max(1.0);
                n += 1;
            }
            if n == 0 {
                0.0
            } else {
                total / n as f64
            }
        };
        (cdf, ac, dwell)
    }
}

impl Problem for CloneProblem<'_> {
    fn n_genes(&self) -> usize {
        self.gene_bounds().len()
    }

    fn n_objectives(&self) -> usize {
        3
    }

    fn bounds(&self) -> Vec<(u32, u32)> {
        self.gene_bounds()
    }

    fn evaluate(&mut self, genes: &[u32]) -> Vec<f64> {
        let profile = self.decode(genes);
        let got = self.measure(&profile);
        let (cdf, ac, dwell) = self.errors(&got);
        // The optimizer maximizes; errors enter negated.
        vec![-cdf, -ac, -dwell]
    }
}

/// Fits a profile to `trace`. Returns the fitted profile and a
/// fidelity report measured against a fresh clone fleet. Pure
/// function of `(trace, cfg)`; see the module docs.
pub fn calibrate(trace: &Trace, cfg: &CalibConfig) -> Result<CalibrationResult, CalibError> {
    let targets = trace.targets();
    let base = FleetProfile::taurus_haswell();
    let names: Vec<&str> = base.classes.iter().map(|c| c.name).collect();
    let moments = match_moments(&targets, &names)?;
    let target_runs: Vec<f64> = match &targets.labels {
        Some(labels) => {
            let state_names: Vec<&str> = std::iter::once("floor").chain(names.clone()).collect();
            state_names
                .iter()
                .map(|n| {
                    labels
                        .states
                        .iter()
                        .position(|s| s == n)
                        .map(|i| labels.mean_run_ticks[i])
                        .unwrap_or(0.0)
                })
                .collect()
        }
        None => Vec::new(),
    };

    let registry = EngineRegistry::new();
    let eval_seed = cfg.seed ^ EVAL_SALT;
    let eval_cfg = FleetConfig {
        samples_per_node: cfg.eval_ticks,
        seed: eval_seed,
        threads: cfg.threads,
        ..FleetConfig::taurus_haswell_scaled(cfg.eval_nodes)
    };

    let mut problem = CloneProblem {
        targets: &targets,
        moments,
        target_runs,
        base,
        eval_cfg,
        registry: &registry,
    };
    let nsga = Nsga2::new(Nsga2Config {
        individuals: cfg.individuals,
        generations: cfg.generations,
        seed: cfg.seed,
        ..Nsga2Config::default()
    });
    let result = nsga.run(&mut problem);

    // Deterministic selection from the Pareto front: minimize the
    // summed error, tie-break on the genome.
    let mut best: Option<(&Vec<u32>, f64)> = None;
    for ind in &result.front {
        let score: f64 = -ind.objectives.iter().sum::<f64>();
        let better = match best {
            None => true,
            Some((genes, s)) => {
                score < s - 1e-12 || ((score - s).abs() <= 1e-12 && ind.genes < *genes)
            }
        };
        if better {
            best = Some((&ind.genes, score));
        }
    }
    let (genes, _) = best.expect("NSGA-II front is never empty");
    let mut profile = problem.decode(genes);
    profile.name = "calibrated".to_string();

    // Final fidelity: re-measure the fitted profile on an
    // independently seeded clone fleet sized like the trace.
    let clone_nodes = if cfg.clone_nodes > 0 {
        cfg.clone_nodes
    } else {
        (targets.n_nodes as u32).max(1)
    };
    let clone_ticks = if cfg.clone_ticks > 0 {
        cfg.clone_ticks
    } else {
        ((targets.n_ticks / targets.n_nodes.max(1)) as u32).max(2)
    };
    let clone_seed = cfg.seed ^ CLONE_SALT;
    let mut clone_cfg = FleetConfig {
        samples_per_node: clone_ticks,
        seed: clone_seed,
        threads: cfg.threads,
        ..FleetConfig::taurus_haswell_scaled(clone_nodes)
    };
    profile.apply(&mut clone_cfg);
    let clone_run = FleetSim::new(clone_cfg.clone()).run_with(&registry);
    let clone_targets = Trace::from_fleet(&clone_cfg, &clone_run.samples).targets();

    let report = fidelity(&targets, &clone_targets, clone_nodes, clone_ticks);
    Ok(CalibrationResult {
        profile,
        report,
        evaluations: result.history.len() as u32,
        nsga_cache_hits: result.cache_hits,
    })
}

/// Builds the fidelity report comparing trace targets against
/// clone-fleet targets, both measured with the same estimators.
pub fn fidelity(
    target: &FitTargets,
    clone: &FitTargets,
    clone_nodes: u32,
    clone_ticks_per_node: u32,
) -> FidelityReport {
    let cdf = cdf_distance(&target.cdf, &clone.cdf);
    let ac = (target.lag1_autocorr - clone.lag1_autocorr).abs();
    let mut states = Vec::new();
    let mut max_share = 0.0f64;
    let mut dwell_errs = Vec::new();
    if let (Some(t), Some(c)) = (&target.labels, &clone.labels) {
        // Union of state names, trace order first.
        let mut names: Vec<String> = t.states.clone();
        for s in &c.states {
            if !names.contains(s) {
                names.push(s.clone());
            }
        }
        for name in &names {
            let ti = t.states.iter().position(|s| s == name);
            let ci = c.states.iter().position(|s| s == name);
            let ts = ti.map(|i| t.shares[i]).unwrap_or(0.0);
            let cs = ci.map(|i| c.shares[i]).unwrap_or(0.0);
            let td = ti.map(|i| t.mean_run_ticks[i]).unwrap_or(0.0);
            let cd = ci.map(|i| c.mean_run_ticks[i]).unwrap_or(0.0);
            max_share = max_share.max((ts - cs).abs());
            if td > 0.0 {
                dwell_errs.push((cd - td).abs() / td.max(1.0));
            }
            states.push(StateFidelity {
                state: name.clone(),
                target_share: ts,
                clone_share: cs,
                target_dwell_ticks: td,
                clone_dwell_ticks: cd,
            });
        }
    }
    let (mean_dwell, max_dwell) = if dwell_errs.is_empty() {
        (0.0, 0.0)
    } else {
        (
            dwell_errs.iter().sum::<f64>() / dwell_errs.len() as f64,
            dwell_errs.iter().copied().fold(0.0, f64::max),
        )
    };
    FidelityReport {
        cdf_distance: cdf,
        target_lag1: target.lag1_autocorr,
        clone_lag1: clone.lag1_autocorr,
        autocorr_error: ac,
        max_share_error: max_share,
        mean_dwell_rel_error: mean_dwell,
        max_dwell_rel_error: max_dwell,
        states,
        clone_nodes,
        clone_ticks_per_node,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs2_cluster::fleet::TemporalMode;

    /// Synthesizes a labeled trace from a known profile.
    pub(crate) fn trace_from(profile: &FleetProfile, nodes: u32, ticks: u32, seed: u64) -> Trace {
        let mut cfg = FleetConfig {
            samples_per_node: ticks,
            seed,
            temporal: TemporalMode::Episodes,
            ..FleetConfig::taurus_haswell_scaled(nodes)
        };
        profile.apply(&mut cfg);
        let run = FleetSim::new(cfg.clone()).run();
        Trace::from_fleet(&cfg, &run.samples)
    }

    #[test]
    fn debias_recovers_episode_dwells() {
        // Forward model: shares + episode dwells → q → run dwells;
        // the fixed point must invert it.
        let shares = [0.15, 0.2125, 0.17, 0.17, 0.17, 0.1275];
        let dwell = [8.0, 6.0, 10.0, 14.0, 20.0, 30.0];
        let denom: f64 = shares.iter().zip(&dwell).map(|(&s, &d)| s / d).sum();
        let runs: Vec<f64> = shares
            .iter()
            .zip(&dwell)
            .map(|(&s, &d)| d / (1.0 - (s / d) / denom))
            .collect();
        let got = debias_dwells(&shares, &runs);
        for (g, w) in got.iter().zip(&dwell) {
            assert!((g - w).abs() < 1e-9, "dwell {g} != {w}");
        }
    }

    #[test]
    fn moment_matching_reads_shares_off_the_trace() {
        let profile = FleetProfile::exemplar();
        let trace = trace_from(&profile, 48, 800, 0xBEEF);
        let targets = trace.targets();
        let base = FleetProfile::taurus_haswell();
        let names: Vec<&str> = base.classes.iter().map(|c| c.name).collect();
        let m = match_moments(&targets, &names).unwrap().unwrap();
        assert!((m.floor_share - 0.15).abs() < 0.02);
        // Weights are trace time shares; compare against the
        // profile's intended shares (0.85 * normalized weight).
        for (i, c) in profile.classes.iter().enumerate() {
            let want = 0.85 * c.weight;
            assert!(
                (m.weights[i] - want).abs() < 0.02,
                "{}: weight {} vs {want}",
                c.name,
                m.weights[i]
            );
        }
        // De-biased dwells land near the true episode dwells.
        for (i, c) in profile.classes.iter().enumerate() {
            let rel = (m.dwells[i] - c.dwell_ticks).abs() / c.dwell_ticks;
            assert!(
                rel < 0.15,
                "{}: dwell {} vs {} (rel {rel})",
                c.name,
                m.dwells[i],
                c.dwell_ticks
            );
        }
    }

    #[test]
    fn unknown_state_and_floor_only_are_typed_errors() {
        use crate::trace::NodeTrace;
        let t = Trace::new(
            vec![NodeTrace {
                node: 0,
                power_w: vec![1.0, 2.0],
                states: vec![0, 0],
            }],
            &["warp"],
        );
        assert_eq!(
            calibrate(&t, &CalibConfig::default()).unwrap_err(),
            CalibError::UnknownState {
                name: "warp".into()
            }
        );
        let t = Trace::new(
            vec![NodeTrace {
                node: 0,
                power_w: vec![1.0, 2.0],
                states: vec![0, 0],
            }],
            &["floor"],
        );
        assert_eq!(
            calibrate(&t, &CalibConfig::default()).unwrap_err(),
            CalibError::NoJobStates
        );
    }

    #[test]
    fn cdf_distance_is_zero_on_self_and_positive_on_shift() {
        let a = PowerCdf::from_samples(&[100.0, 120.0, 140.0, 160.0], 0.1);
        let b = PowerCdf::from_samples(&[200.0, 220.0, 240.0, 260.0], 0.1);
        assert_eq!(cdf_distance(&a, &a), 0.0);
        assert!(cdf_distance(&a, &b) > 0.3);
    }
}
