//! Fleet simulation and the Fig. 1 CDF pipeline.
//!
//! A [`FleetSim`] owns a heterogeneous set of nodes (mixable SKUs) and
//! drives one real `fs2_core::Engine` per SKU through an
//! [`EngineRegistry`]. Per 60 s sample, a node draws a job class from
//! the [`JobMix`], a duty cycle and a P-state, and its mean power is
//! composed from engine-evaluated payload power and the node's idle
//! floor — the workload-cloning pipeline, not distribution fitting.
//!
//! Two temporal modes compose their samples from one operating-point
//! table ([`TemporalMode`]): the historical i.i.d. per-node-minute
//! sampler (the byte-stable Fig. 1 default) and the Markov episode
//! model of [`crate::episodes`], which adds dwell times, ramps and
//! hand-backs to the idle floor — the time correlation real traces
//! show. That table is one lane per node group, job class and listed
//! P-state, holding the power-capped payload power above the idle
//! floor; an i.i.d. draw and an episode tick both read the lane of the
//! drawn class and P-state slot.
//!
//! Generation is one pipeline, the one the fleet service runs:
//! [`FleetSim::plan`] engine-evaluates the operating points into those
//! lanes once, [`FleetSim::run_shard`] proposes contiguous node ranges and
//! [`FleetSim::try_merge_shards`] reassembles them in node order;
//! [`FleetSim::run_with`] runs it in-process with one shard per
//! thread. Within it, generation is a tick-synchronous two-phase
//! pass: (1) **propose** — every node draws its full tick stream from
//! its own `(seed, node_id)` RNG stream, straight into its shard's
//! buffer, and the merge appends the shards in node order; (2)
//! **arbitrate** — when [`FleetConfig::budget_w`] is set, a serial
//! node-id-ordered fold ([`crate::budget`]) admits proposals against
//! the remaining fleet budget per 60 s tick, sheds or defers the rest,
//! and writes each tick's outcome over the merged proposals in place.
//! Without a budget the merged proposals are the samples. Every phase
//! is deterministic, so the result is bitwise-identical for any thread
//! count and shard split, and runs without a budget reproduce the
//! historical sample streams byte for byte.

use crate::budget::{arbitrate, BudgetPolicy, NodeStream};
use crate::episodes::{EpisodeModel, EpisodeWalk};
use crate::jobs::JobMix;
use fs2_core::{fan_out, resolve_threads, EngineRegistry, InitScheme, RegistryStats};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One homogeneous slice of the fleet.
#[derive(Debug, Clone)]
pub struct NodeGroup {
    pub sku: fs2_arch::Sku,
    pub nodes: u32,
    /// Overrides [`FleetConfig::samples_per_node`] for this group
    /// (e.g. a slice monitored at a higher rate). Shards split the
    /// fleet by node count, not by samples, so a long-tailed group
    /// loads the shard that holds it more than the others.
    pub samples_per_node: Option<u32>,
}

/// How consecutive 60 s samples of one node relate to each other.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TemporalMode {
    /// Independent draws per node-minute (the original Fig. 1
    /// pipeline; the default, byte-stable across releases).
    #[default]
    Iid,
    /// Markov job episodes over the same operating points: geometric
    /// dwell times, ramp-in profiles, explicit idle-floor hand-backs
    /// (see [`FleetConfig::episodes`]).
    Episodes,
}

impl TemporalMode {
    /// The mode `iid` or `episodes` names, in any letter case.
    pub fn from_name(name: &str) -> Option<TemporalMode> {
        match name.to_ascii_lowercase().as_str() {
            "iid" => Some(TemporalMode::Iid),
            "episodes" => Some(TemporalMode::Episodes),
            _ => None,
        }
    }
}

/// Fleet parameters (Fig. 1: 612 nodes, one year, 60 s means).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Heterogeneous node groups; engines are shared per SKU.
    pub groups: Vec<NodeGroup>,
    /// 60 s-mean samples generated per node (a full year would be
    /// 525 600; the CDF converges far earlier).
    pub samples_per_node: u32,
    pub mix: JobMix,
    /// Temporal structure of each node's sample stream.
    pub temporal: TemporalMode,
    /// The episode model used when `temporal` is
    /// [`TemporalMode::Episodes`]; ignored in i.i.d. mode.
    pub episodes: EpisodeModel,
    pub seed: u64,
    /// Shards [`FleetSim::run_with`] proposes on scoped threads, one
    /// per thread; 0 = host parallelism, 1 = serial. The samples are
    /// identical either way. The fleet service does not read it: its
    /// worker count and the request's shard count set that fan-out.
    pub threads: usize,
    /// Facility-side clamp, W (the paper's observed 359.9 W maximum).
    pub cap_w: f64,
    /// What-if power cap, W: a drawn P-state whose engine-evaluated
    /// operating point exceeds the cap is clamped to the class's
    /// highest admissible P-state (the fastest one still under the
    /// cap). Classes with no admissible P-state keep their
    /// lowest-power one (the facility clamp still applies; such
    /// still-over-cap points are reported via
    /// [`FleetRun::infeasible_points`]). A set cap must be a positive,
    /// finite wattage ([`FleetSim::new`] panics otherwise). `None`
    /// disables capping and leaves the sampler byte-stable.
    pub power_cap_w: Option<f64>,
    /// Fleet-wide power budget per 60 s tick, W: node draws are
    /// admitted in node-id order until the tick's fleet sum would
    /// exceed this, and the rest are resolved via `budget_policy`.
    /// Idle floors are unconditional, so a budget below the sum of the
    /// active floors is infeasible (counted, not hidden). `None`
    /// disables arbitration and keeps both samplers byte-stable.
    pub budget_w: Option<f64>,
    /// How the arbiter resolves denied proposals (ignored without
    /// `budget_w`).
    pub budget_policy: BudgetPolicy,
}

impl FleetConfig {
    /// The 612-node Taurus Haswell partition: mostly 12-core
    /// E5-2680 v3 nodes with a 14-core E5-2695 v3 slice mixed in.
    pub fn taurus_haswell() -> FleetConfig {
        FleetConfig::taurus_haswell_scaled(612)
    }

    /// A Taurus profile scaled to `nodes` total nodes, keeping the
    /// SKU ratio (~7:1) and at least one node per group.
    pub fn taurus_haswell_scaled(nodes: u32) -> FleetConfig {
        assert!(nodes > 0, "fleet needs at least one node");
        // 64-bit ratio: `nodes * 72` would wrap u32 for the huge node
        // counts service requests can carry (the result fits, the
        // intermediate does not).
        let fat = if nodes >= 2 {
            u32::try_from(u64::from(nodes) * 72 / 612)
                .expect("quotient is <= nodes, which is u32")
                .max(1)
        } else {
            0
        };
        let mut groups = vec![NodeGroup {
            sku: fs2_arch::Sku::intel_xeon_e5_2680_v3(),
            nodes: nodes - fat,
            samples_per_node: None,
        }];
        if fat > 0 {
            groups.push(NodeGroup {
                sku: fs2_arch::Sku::intel_xeon_e5_2695_v3(),
                nodes: fat,
                samples_per_node: None,
            });
        }
        let mix = JobMix::taurus_haswell();
        let episodes = EpisodeModel::taurus_haswell(&mix);
        FleetConfig {
            groups,
            samples_per_node: 2000,
            mix,
            temporal: TemporalMode::Iid,
            episodes,
            seed: 0xF1EE7,
            threads: 0,
            cap_w: 359.9,
            power_cap_w: None,
            budget_w: None,
            budget_policy: BudgetPolicy::default(),
        }
    }

    /// Total node count across all groups.
    pub fn total_nodes(&self) -> u32 {
        self.groups.iter().map(|g| g.nodes).sum()
    }

    /// Total 60 s-mean samples the fleet will generate.
    ///
    /// Panics when the total does not fit a `usize` — use
    /// [`FleetConfig::try_total_samples`] to surface the error instead
    /// (the fleet service's admission control does, so an absurd
    /// request is rejected rather than wrapped on 32-bit targets).
    pub fn total_samples(&self) -> usize {
        self.try_total_samples()
            .unwrap_or_else(|e| panic!("fleet size overflows the address space: {e}"))
    }

    /// Checked [`FleetConfig::total_samples`]: `node_count * samples`
    /// is summed in 128-bit so it cannot wrap, and a total beyond
    /// `usize::MAX` comes back as [`FleetSizeError`].
    pub fn try_total_samples(&self) -> Result<usize, FleetSizeError> {
        let total: u128 = self
            .groups
            .iter()
            .map(|g| {
                u128::from(g.nodes)
                    * u128::from(g.samples_per_node.unwrap_or(self.samples_per_node))
            })
            .sum();
        usize::try_from(total).map_err(|_| FleetSizeError { total })
    }
}

/// A fleet configuration asks for more samples than the address space
/// holds ([`FleetConfig::try_total_samples`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetSizeError {
    /// The requested total sample count.
    pub total: u128,
}

impl std::fmt::Display for FleetSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "fleet requests {} samples, more than usize::MAX ({})",
            self.total,
            usize::MAX
        )
    }
}

impl std::error::Error for FleetSizeError {}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig::taurus_haswell()
    }
}

/// An empirical power CDF over fixed-width bins.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerCdf {
    /// `(bin_upper_edge_w, cumulative_fraction)`, ascending.
    pub bins: Vec<(f64, f64)>,
    pub min_w: f64,
    pub max_w: f64,
    pub samples: usize,
}

impl PowerCdf {
    /// Builds the CDF from samples with the paper's 0.1 W bins. An
    /// empty sample set yields an empty CDF (zero mass everywhere)
    /// rather than panicking.
    pub fn from_samples(samples: &[f64], bin_width: f64) -> PowerCdf {
        assert!(bin_width > 0.0);
        if samples.is_empty() {
            return PowerCdf {
                bins: Vec::new(),
                min_w: 0.0,
                max_w: 0.0,
                samples: 0,
            };
        }
        let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let nbins = (((max - min) / bin_width).floor() as usize + 1).max(1);
        let mut counts = vec![0u64; nbins];
        for &s in samples {
            let b = (((s - min) / bin_width) as usize).min(nbins - 1);
            counts[b] += 1;
        }
        let total = samples.len() as f64;
        let mut acc = 0u64;
        let bins = counts
            .iter()
            .enumerate()
            .map(|(i, c)| {
                acc += c;
                (min + bin_width * (i as f64 + 1.0), acc as f64 / total)
            })
            .collect();
        PowerCdf {
            bins,
            min_w: min,
            max_w: max,
            samples: samples.len(),
        }
    }

    /// Cumulative fraction at or below `power_w`. Queries below the
    /// first bin's lower edge are outside the observed range and have
    /// zero cumulative mass, as does any query on an empty CDF.
    /// A query above the last bin edge, or a NaN query, reads 1.0. The
    /// bin is found by binary search, since bin edges never decrease.
    pub fn fraction_at(&self, power_w: f64) -> f64 {
        if self.samples == 0 || power_w < self.min_w {
            return 0.0;
        }
        // `!(edge >= x)` rather than `edge < x`, so that NaN falls past
        // every bin.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        let bin = self.bins.partition_point(|&(edge, _)| !(edge >= power_w));
        self.bins.get(bin).map_or(1.0, |&(_, frac)| frac)
    }

    /// Power at quantile `q`: the lower edge of the first bin whose
    /// cumulative fraction reaches `q`, so that
    /// `quantile(fraction_at(x)) <= x` for any `x` at or above the
    /// observed minimum. Out-of-range `q` clamps (`q <= 0` returns
    /// `min_w`, `q >= 1` the last massed bin's lower edge) and an
    /// empty CDF returns 0.0 — no panic, no NaN.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min_w;
        }
        let q = q.min(1.0);
        match self.bins.iter().position(|&(_, frac)| frac >= q) {
            Some(0) => self.min_w,
            Some(i) => self.bins[i - 1].0,
            None => self.max_w,
        }
    }
}

/// One engine-evaluated `(SKU, class, P-state)` operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassPower {
    pub sku: &'static str,
    pub class: &'static str,
    /// Requested P-state frequency, MHz.
    pub freq_mhz: u32,
    /// Applied (possibly EDC/PPT-throttled) frequency, MHz.
    pub applied_mhz: f64,
    /// Node power while the payload executes, W.
    pub watts: f64,
}

/// Episode-mode statistics of one fleet generation pass.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeStats {
    /// State names (index 0 = the idle floor, then the mix classes).
    pub states: Vec<String>,
    /// Empirical fraction of ticks spent per state.
    pub empirical_shares: Vec<f64>,
    /// The model's predicted long-run time shares.
    pub model_shares: Vec<f64>,
    /// Empirical mean dwell per state, in 60 s ticks (0 when a state
    /// never started an episode).
    pub mean_dwell_ticks: Vec<f64>,
    /// Lag-1 autocorrelation of node power, pooled over all nodes
    /// (per-node centered; i.i.d. sampling would measure ~0 here).
    ///
    /// Zero-variance contract: when the pooled denominator is zero —
    /// every node's stream is constant, every node has fewer than two
    /// samples, or the fleet is empty — the statistic is **defined as
    /// `0.0`**, never `NaN` or an error. A constant stream carries no
    /// linear dependence to measure, and downstream consumers
    /// (calibration divides distances by tolerances built on this
    /// field) rely on it always being finite.
    pub lag1_autocorr: f64,
}

/// Budget-arbitration telemetry of one fleet generation pass.
#[derive(Debug, Clone)]
pub struct BudgetStats {
    /// The configured per-tick fleet budget, W.
    pub budget_w: f64,
    pub policy: BudgetPolicy,
    /// Synchronized 60 s ticks arbitrated (the longest node horizon).
    pub ticks: usize,
    /// Highest per-tick fleet draw, W.
    pub peak_fleet_w: f64,
    /// Mean per-tick fleet draw, W.
    pub mean_fleet_w: f64,
    /// Per-state count of proposals shed to the floor
    /// ([`BudgetPolicy::ShedToFloor`]; index 0 = floor, then the mix
    /// classes — floor proposals have zero increment and are never
    /// denied).
    pub shed_ticks: Vec<u64>,
    /// Per-state count of tick-denials that deferred a proposal
    /// ([`BudgetPolicy::Defer`]; one proposal can defer repeatedly).
    pub deferred_ticks: Vec<u64>,
    /// Proposals deferred past the end of their node's horizon and
    /// therefore never run.
    pub truncated_proposals: u64,
    /// Ticks whose unconditional idle floors alone exceeded the
    /// budget (the budget is infeasible on those ticks).
    pub infeasible_floor_ticks: u64,
    /// CDF of per-tick budget utilization (fleet draw / budget,
    /// binned at 0.5 %).
    pub utilization: PowerCdf,
    /// State names aligned with the shed/deferred counters.
    pub states: Vec<&'static str>,
}

/// The output of one fleet generation pass.
#[derive(Debug, Clone)]
pub struct FleetRun {
    /// All 60 s-mean node power samples, in node order.
    pub samples: Vec<f64>,
    /// Registry/engine cache counters for the run.
    pub registry: RegistryStats,
    /// The engine-evaluated operating points the samples composed from,
    /// one per node group, job class and distinct P-state of the class.
    pub power_table: Vec<ClassPower>,
    /// Episode statistics ([`TemporalMode::Episodes`] only). State
    /// shares and dwells describe the *proposed* walks; under a budget
    /// the emitted stream additionally reflects sheds and defers,
    /// which [`FleetRun::budget`] accounts for.
    pub episodes: Option<EpisodeStats>,
    /// Number of operating-point lanes whose P-state the power cap
    /// redirects to a lower one (0 when no cap is set). A lane is one
    /// node group, job class and listed P-state, so a P-state a class
    /// lists twice counts twice. This counts lanes, not drawn samples —
    /// see `capped_samples` for the per-sample count.
    pub capped_points: usize,
    /// Number of drawn samples whose P-state the power cap actually
    /// remapped (accumulated per node, summed in node input order, so
    /// the count is identical for any thread count).
    pub capped_samples: usize,
    /// Lanes (counted like `capped_points`) whose final operating point
    /// still exceeds `power_cap_w` — the class has no admissible
    /// P-state and fell back to its lowest-power one over the cap.
    pub infeasible_points: usize,
    /// Budget arbitration telemetry ([`FleetConfig::budget_w`] only).
    pub budget: Option<BudgetStats>,
}

/// Per-node work item of a [`FleetPlan`].
struct NodeItem {
    sku_idx: usize,
    /// Fleet-global node id (stable across thread counts).
    node_id: u32,
    samples: u32,
}

/// The request-shared generation plan built by [`FleetSim::plan`]:
/// one operating-point table per node group, a lane per job class and
/// listed P-state that both temporal modes compose their samples from,
/// and the per-node work items — everything the propose loops read. A plan is immutable and
/// `Sync`, so shard workers on any thread run [`FleetSim::run_shard`]
/// against one shared plan without ever touching the engine registry.
pub struct FleetPlan {
    /// Per-group operating-point lanes; index == group index.
    lanes: Vec<SkuLanes>,
    /// Per-node work items; index == fleet-global node id.
    items: Vec<NodeItem>,
    /// The engine-evaluated points the lanes were built from.
    power_table: Vec<ClassPower>,
    capped_points: usize,
    infeasible_points: usize,
}

impl FleetPlan {
    /// Total nodes the plan covers (shard ranges index into this).
    pub fn total_nodes(&self) -> u32 {
        u32::try_from(self.items.len()).expect("one item per node, and node counts are u32")
    }

    /// Each node's slots in a node-major run buffer, in node order:
    /// every node proposes, and emits, exactly its horizon.
    fn node_ranges(&self) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
        self.items.iter().scan(0usize, |end, n| {
            let lo = *end;
            *end += n.samples as usize;
            Some(lo..*end)
        })
    }
}

impl std::fmt::Debug for FleetPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetPlan")
            .field("nodes", &self.items.len())
            .field("power_points", &self.power_table.len())
            .field("capped_points", &self.capped_points)
            .field("infeasible_points", &self.infeasible_points)
            .finish()
    }
}

/// One shard's propose-phase output ([`FleetSim::run_shard`]): the
/// proposals of nodes `[lo, hi)`, node after node, in one buffer. Every
/// mode has the same layout; a column the mode does not need stays
/// empty.
pub struct FleetShard {
    lo: u32,
    hi: u32,
    /// Proposed node power per tick, W. Without a budget these are the
    /// emitted samples.
    watts: Vec<f64>,
    /// State label per proposal, parallel to `watts` (budgeted runs
    /// only: the arbiter's per-state counters read it).
    states: Vec<u16>,
    /// Per-state ticks and episode starts summed over the shard's
    /// walks (episode runs only).
    state_ticks: Vec<u64>,
    episode_counts: Vec<u64>,
    /// Drawn samples whose P-state the power cap remapped.
    capped_samples: usize,
}

impl FleetShard {
    /// The `[lo, hi)` node range this shard covers.
    pub fn range(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }
}

/// The shard set handed to [`FleetSim::try_merge_shards`] does not
/// tile the plan's node range — a shard is missing (e.g. it panicked
/// upstream and was dropped), duplicated, or overlapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardTilingError {
    /// First node index left uncovered (or covered twice).
    pub expected_lo: u32,
    /// The shard range actually found there (`None`: coverage simply
    /// ran out before `total_nodes`).
    pub found_lo: Option<u32>,
    /// Nodes the plan expects covered.
    pub total_nodes: usize,
}

impl std::fmt::Display for ShardTilingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.found_lo {
            Some(got) => write!(
                f,
                "shards do not tile the node range: expected lo {}, got {got}",
                self.expected_lo
            ),
            None => write!(
                f,
                "shards cover {} of {} nodes",
                self.expected_lo, self.total_nodes
            ),
        }
    }
}

impl std::error::Error for ShardTilingError {}

/// Splits `0..total_nodes` into at most `shards` contiguous,
/// near-equal, non-empty ranges (fewer when the fleet has fewer nodes
/// than the requested shard count; always at least one).
pub fn shard_ranges(total_nodes: u32, shards: usize) -> Vec<(u32, u32)> {
    let n = u32::try_from(shards.clamp(1, total_nodes.max(1) as usize))
        .expect("clamped to a u32 node count");
    let base = total_nodes / n;
    let rem = total_nodes % n;
    let mut out = Vec::with_capacity(n as usize);
    let mut lo = 0u32;
    for i in 0..n {
        let len = base + u32::from(i < rem);
        out.push((lo, lo + len));
        lo += len;
    }
    out
}

/// The per-node RNG stream: a pure function of `(seed, node_id)` —
/// which is exactly what makes sharding byte-transparent.
fn rng_for(seed: u64, node_id: u32) -> StdRng {
    StdRng::seed_from_u64(seed ^ (u64::from(node_id).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
}

/// Draws every sample of up to four node slices in lockstep: the
/// per-sample critical path is the serial xoshiro/convert/compare
/// chain, and the extra independent streams fill its pipeline bubbles.
/// Per-node draw sequences and output slices are untouched, so the
/// bytes match the one-stream-at-a-time reference exactly. Returns the
/// number of cap-remapped samples.
fn lockstep_fill(mut parts: Vec<(&SkuLanes, StdRng, &mut [f64])>, cap: f64) -> usize {
    let mut capped_samples = 0usize;
    // Four-stream lockstep over the shortest slice.
    if let [a, b, c, d] = parts.as_mut_slice() {
        let n = a.2.len().min(b.2.len()).min(c.2.len()).min(d.2.len());
        let (ha, ta) = std::mem::take(&mut a.2).split_at_mut(n);
        let (hb, tb) = std::mem::take(&mut b.2).split_at_mut(n);
        let (hc, tc) = std::mem::take(&mut c.2).split_at_mut(n);
        let (hd, td) = std::mem::take(&mut d.2).split_at_mut(n);
        (a.2, b.2, c.2, d.2) = (ta, tb, tc, td);
        for (((sa, sb), sc), sd) in ha
            .iter_mut()
            .zip(hb.iter_mut())
            .zip(hc.iter_mut())
            .zip(hd.iter_mut())
        {
            let (pa, _, ra) = a.0.draw(&mut a.1);
            let (pb, _, rb) = b.0.draw(&mut b.1);
            let (pc, _, rc) = c.0.draw(&mut c.1);
            let (pd, _, rd) = d.0.draw(&mut d.1);
            capped_samples += usize::from(ra) + usize::from(rb) + usize::from(rc) + usize::from(rd);
            *sa = pa.min(cap);
            *sb = pb.min(cap);
            *sc = pc.min(cap);
            *sd = pd.min(cap);
        }
    }
    // Remainders (under-four chunks, long-tail nodes): pairwise
    // lockstep while possible, then singles.
    parts.retain(|p| !p.2.is_empty());
    while parts.len() >= 2 {
        let n = parts[0].2.len().min(parts[1].2.len());
        let (first, rest) = parts.split_at_mut(1);
        let (a, b) = (&mut first[0], &mut rest[0]);
        let (ha, ta) = std::mem::take(&mut a.2).split_at_mut(n);
        let (hb, tb) = std::mem::take(&mut b.2).split_at_mut(n);
        (a.2, b.2) = (ta, tb);
        for (sa, sb) in ha.iter_mut().zip(hb.iter_mut()) {
            let (pa, _, ra) = a.0.draw(&mut a.1);
            let (pb, _, rb) = b.0.draw(&mut b.1);
            capped_samples += usize::from(ra) + usize::from(rb);
            *sa = pa.min(cap);
            *sb = pb.min(cap);
        }
        parts.retain(|p| !p.2.is_empty());
    }
    if let [(l, rng, out)] = parts.as_mut_slice() {
        for slot in out.iter_mut() {
            let (p, _, remapped) = l.draw(rng);
            capped_samples += usize::from(remapped);
            *slot = p.min(cap);
        }
    }
    capped_samples
}

/// Per-class draw parameters of the batched composer, packed so one
/// indexed load per sample fetches everything the class needs.
#[derive(Clone, Copy)]
struct ClassLane {
    duty_lo: f64,
    /// `duty.1 - duty.0`; `lo + unit * span` reproduces
    /// `gen_range(lo..hi)` bit-for-bit.
    duty_span: f64,
    /// Number of drawable P-states.
    pstates: u64,
    /// `pstates.wrapping_neg() % pstates`, hoisted out of the
    /// per-sample Lemire draw (a u64 division per draw otherwise).
    lemire_threshold: u64,
    /// Offset of this class's lanes in [`SkuLanes::lanes`].
    lane_base: u32,
    /// The class's index in `JobMix::classes()` order (the episode
    /// state label).
    class_idx: u16,
}

/// One `(class, P-state slot)` operating point of a node group: what a
/// sample of that class drawn at that slot of [`crate::JobClass::pstates`]
/// composes from, in either temporal mode.
struct Lane {
    /// `load - idle`: the engine-evaluated payload power of the P-state
    /// the slot runs at after the power cap, above the group's idle
    /// floor. A sample at duty `d` is `idle + d * delta`.
    delta: f64,
    /// Whether the power cap moved the slot's P-state to another one.
    remapped: bool,
}

/// One node group's operating-point table. Every sample reads only
/// this struct: the i.i.d. composer ([`SkuLanes::draw`]) through the
/// positive-weight pick thresholds and the packed per-class draw
/// parameters, an episode tick through [`SkuLanes::class_base`], and
/// both land on the contiguous [`Lane`] of the drawn `(class, slot)`.
/// The per-class draw parameters are precomputed from the operands a
/// per-node draw reads — `duty.1 - duty.0` — so the composed watts are
/// bit-identical to drawing through the [`JobMix`] API.
struct SkuLanes {
    /// The group's idle floor, W (the engine's idle power).
    idle: f64,
    /// The floor after the facility clamp: the arbiter's unconditional
    /// per-node draw.
    floor_w: f64,
    /// `JobMix::total_fraction()` — the draw range of the class pick.
    total: f64,
    /// The `pick_weighted` subtract/compare chain collapsed into exact
    /// per-entry thresholds on the *raw* draw (see
    /// [`collapse_pick_chain`]): entry `j` of the scan is picked iff
    /// `x < thresholds[j]`, so the pick is `picks[#{t <= x}]` — a
    /// branchless count instead of a serial float chain. The first
    /// eight live in a fixed array padded with `+inf` (`x >= +inf`
    /// never counts), so the common count is eight unrolled compares
    /// with no loop-carried branch; mixes with more positive classes
    /// spill into `spill` and the counts add up regardless of the
    /// split because the thresholds are sorted.
    thresholds: [f64; 8],
    spill: Vec<f64>,
    /// The picked class's draw parameters per threshold count, with
    /// the `pick_weighted` fallback (last positive-weight class) in
    /// the final slot. Inlining the [`ClassLane`] here (instead of a
    /// class-index table pointing into a second array) drops one
    /// dependent load from the per-sample critical path.
    picks: Vec<ClassLane>,
    /// Offset of each class's first lane in `lanes`, in `JobMix`
    /// order, zero-weight classes included (`picks` skips them): class
    /// `c` drawn at slot `k` composes from `lanes[class_base[c] + k]`.
    class_base: Vec<usize>,
    /// One lane per class and listed P-state slot, class after class.
    lanes: Vec<Lane>,
}

/// Collapses the `pick_weighted` subtract/compare chain over positive
/// weights `w` into per-entry thresholds on the raw draw `x`.
///
/// The chain value before test `j` is `g_j(x)` with `g_0(x) = x` and
/// `g_{j+1}(x) = fl(g_j(x) - w_j)` (each step rounded to nearest).
/// Every `g_j` is monotone non-decreasing in `x` — float subtraction
/// of a constant and rounding both preserve order — so the test
/// `g_j(x) < w_j` holds exactly for `x` below a single boundary
/// `T_j = min { x : g_j(x) >= w_j }`, found here by binary search on
/// the f64 bit representation (order-isomorphic for non-negative
/// floats). The thresholds come out sorted: failing test `j + 1`
/// forces `g_j(x) > w_j`, i.e. failing test `j` first. Hence the
/// picked entry `min { j : x < T_j }` equals `#{ j : T_j <= x }`,
/// and the collapse is bit-exact for every representable draw — not
/// an approximation of the chain.
fn collapse_pick_chain(weights: &[f64], total: f64) -> Vec<f64> {
    let chain = |x: f64, j: usize| -> f64 {
        let mut v = x;
        for &w in &weights[..j] {
            v -= w;
        }
        v
    };
    (0..weights.len())
        .map(|j| {
            // Draws satisfy `0 <= x <= total`; if even `total` keeps
            // the chain below `w_j`, the test always passes.
            if chain(total, j) < weights[j] {
                return f64::INFINITY;
            }
            // Invariant: chain(lo) < w_j <= chain(hi). `lo = 0` holds
            // because `g_0(0) = 0` and later chain values are negative
            // at zero, while weights are strictly positive.
            let (mut lo, mut hi) = (0u64, total.to_bits());
            while hi - lo > 1 {
                let mid = lo + (hi - lo) / 2;
                if chain(f64::from_bits(mid), j) >= weights[j] {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            f64::from_bits(hi)
        })
        .collect()
}

impl SkuLanes {
    /// One tick of the batched composer: draws `(class, duty, P-state)`
    /// from `rng` with the exact draw sequence (and bit patterns) the
    /// per-node reference path consumes, and returns the uncapped
    /// watts, the drawn class index and whether the power cap remapped
    /// the drawn P-state.
    #[inline(always)]
    fn draw(&self, rng: &mut StdRng) -> (f64, usize, bool) {
        // `gen_range(0.0..total)` with the zero start folded away:
        // `0.0 + unit * (total - 0.0)` is bitwise `unit * total`.
        // Both always-consumed draws are pulled up front (same
        // consumption order: class first, duty second), so the RNG
        // state updates overlap the threshold count.
        let x = rng.gen_unit() * self.total;
        let duty_unit = rng.gen_unit();
        // The collapsed `pick_weighted` chain: a branchless count of
        // crossed thresholds instead of a serial subtract/compare
        // chain with one data-random branch per entry.
        let mut idx = 0usize;
        for &t in &self.thresholds {
            idx += usize::from(x >= t);
        }
        for &t in &self.spill {
            idx += usize::from(x >= t);
        }
        let cl = &self.picks[idx];
        let duty = cl.duty_lo + duty_unit * cl.duty_span;
        let k = if cl.pstates == 2 {
            // Lemire for span 2: the rejection threshold is 0 and the
            // 128-bit product's high word is the raw draw's top bit —
            // one `next_u64`, the exact `gen_range(0..2)` stream.
            (rng.next_u64() >> 63) as usize
        } else if cl.pstates > 1 {
            // Lemire with the per-class rejection threshold
            // precomputed (the generic path pays a u64 division per
            // draw).
            loop {
                let m = u128::from(rng.next_u64()) * u128::from(cl.pstates);
                if (m as u64) >= cl.lemire_threshold {
                    break (m >> 64) as usize;
                }
            }
        } else {
            0
        };
        let lane = &self.lanes[cl.lane_base as usize + k];
        // The 60 s mean: duty-cycled payload power on top of the idle
        // floor (the facility cap clamp is the caller's).
        (
            self.idle + duty * lane.delta,
            cl.class_idx as usize,
            lane.remapped,
        )
    }
}

/// The fleet generator.
#[derive(Debug, Clone)]
pub struct FleetSim {
    pub config: FleetConfig,
}

impl FleetSim {
    /// Panics on a fleet without groups, an episode model that does not
    /// cover the mix, or a power cap or budget that is not a positive,
    /// finite wattage.
    pub fn new(config: FleetConfig) -> FleetSim {
        assert!(!config.groups.is_empty(), "fleet needs at least one group");
        if config.temporal == TemporalMode::Episodes {
            assert_eq!(
                config.episodes.n_states(),
                config.mix.classes().len() + 1,
                "episode model must cover the floor plus every mix class"
            );
        }
        if let Some(c) = config.power_cap_w {
            assert!(
                c.is_finite() && c > 0.0,
                "power_cap_w must be a positive wattage, got {c}"
            );
        }
        if let Some(b) = config.budget_w {
            assert!(
                b.is_finite() && b > 0.0,
                "budget_w must be a positive wattage, got {b}"
            );
        }
        FleetSim { config }
    }

    /// Generates every 60 s-mean sample plus the run's cache counters.
    /// Plans on a fresh [`EngineRegistry::new`], seeded like the one
    /// registry the fleet service plans every request on; the fleet's
    /// seed keys only its node RNG streams.
    pub fn run(&self) -> FleetRun {
        self.run_with(&EngineRegistry::new())
    }

    /// [`FleetSim::run`] against a caller-owned registry. Repeat fleet
    /// requests (a service loop, the benches) that hold one registry
    /// reuse its registry-wide payload/ExecStats tier instead of
    /// rewarming fresh caches per run — the second request's table
    /// build is pure cache hits. Any registry gives the samples and
    /// power table of [`FleetSim::run`], whatever its seed. The engine
    /// seed sets only the initial values of each payload's
    /// [`InitScheme::V2Safe`] functional pass, whose operands stay
    /// finite and non-zero, and the plan reads only that pass's trivial
    /// fraction: 0 for every job class of [`JobMix::taurus_haswell`] on
    /// either Taurus SKU, the only payloads a service request reaches.
    ///
    /// This is the fleet service's pipeline run in-process:
    /// [`FleetSim::plan`], then [`FleetSim::run_shard`] over
    /// [`shard_ranges`] of [`FleetConfig::threads`] shards, fanned out
    /// over as many threads (the caller's among them) by [`fan_out`],
    /// then [`FleetSim::try_merge_shards`].
    pub fn run_with(&self, registry: &EngineRegistry) -> FleetRun {
        let plan = self.plan(registry);
        let threads = resolve_threads(self.config.threads);
        let ranges = shard_ranges(plan.total_nodes(), threads);
        let shards = fan_out(&ranges, threads, |_, &(lo, hi)| {
            self.run_shard(&plan, lo, hi)
        });
        self.try_merge_shards(registry, &plan, shards)
            .expect("shard_ranges tiles the node range")
    }

    /// Builds the request-shared generation plan in one pass per
    /// `(node group, job class)`: one engine call evaluates the class's
    /// P-states on the group's SKU, the power cap resolves the class's
    /// target P-state, and one operating-point lane per listed P-state
    /// is counted into [`FleetRun::capped_points`] and
    /// [`FleetRun::infeasible_points`] and pushed onto the group's
    /// table. Each group's nodes then join the per-node work items. This is the only phase that touches the
    /// engine registry (plus the final merge, for its counters), so
    /// shard workers stay pure lane readers. Also announces the request
    /// to the registry's cross-request counters.
    pub fn plan(&self, registry: &EngineRegistry) -> FleetPlan {
        registry.begin_request();
        let cfg = &self.config;
        let classes = cfg.mix.classes();
        let mut lanes: Vec<SkuLanes> = Vec::with_capacity(cfg.groups.len());
        let mut items: Vec<NodeItem> = Vec::with_capacity(cfg.total_nodes() as usize);
        let mut power_table: Vec<ClassPower> = Vec::new();
        let mut capped_points = 0usize;
        let mut infeasible_points = 0usize;
        for (sku_idx, group) in cfg.groups.iter().enumerate() {
            let engine = registry.engine(&group.sku);
            let idle = engine.idle_power_w();
            let states = &group.sku.pstates.states;
            let mut sku = SkuLanes {
                idle,
                floor_w: idle.min(cfg.cap_w),
                total: cfg.mix.total_fraction(),
                thresholds: [f64::INFINITY; 8],
                spill: Vec::new(),
                picks: Vec::new(),
                class_base: Vec::with_capacity(classes.len()),
                lanes: Vec::new(),
            };
            let mut weights = Vec::new();
            for (ci, (class, frac)) in classes.iter().enumerate() {
                // The class's distinct P-states in first-seen order ride
                // one engine call, so each (SKU, class) costs a single
                // cached payload fetch and one cached functional pass
                // however many P-states it lists.
                let mut seen: Vec<usize> = Vec::new();
                for &p in class.pstates {
                    assert!(
                        p < states.len(),
                        "{}: P-state index {p} out of range for {}",
                        class.name,
                        group.sku.name
                    );
                    if !seen.contains(&p) {
                        seen.push(p);
                    }
                }
                let config = engine
                    .config_for_spec(class.spec)
                    .unwrap_or_else(|e| panic!("fleet job-class spec rejected: {e}"));
                let freqs: Vec<f64> = seen
                    .iter()
                    .map(|&p| f64::from(states[p].freq_mhz))
                    .collect();
                let points = engine.eval_points(&config, InitScheme::V2Safe, &freqs);
                let mut load = vec![f64::NAN; states.len()];
                for (&p, point) in seen.iter().zip(&points) {
                    load[p] = point.power.total_w();
                    power_table.push(ClassPower {
                        sku: group.sku.name,
                        class: class.name,
                        freq_mhz: states[p].freq_mhz,
                        applied_mhz: point.applied_mhz,
                        watts: load[p],
                    });
                }

                // P-state admission under the what-if power cap: a slot
                // whose point exceeds the cap runs at the class's
                // highest-power admissible P-state, or, with none, at its
                // lowest-power one — counted as infeasible rather than
                // silently passed. No cap is an infinite one, which
                // admits every point. The draw itself is untouched, so
                // the RNG streams of capped and uncapped runs stay
                // aligned sample for sample.
                let cap = cfg.power_cap_w.unwrap_or(f64::INFINITY);
                let by_load = |a: &usize, b: &usize| load[*a].total_cmp(&load[*b]);
                let listed = || class.pstates.iter().copied();
                let target = listed()
                    .filter(|&p| load[p] <= cap)
                    .max_by(by_load)
                    .or_else(|| listed().min_by(by_load))
                    .expect("classes always have P-states");
                sku.class_base.push(sku.lanes.len());
                for p in listed() {
                    let runs_at = if load[p] > cap { target } else { p };
                    capped_points += usize::from(runs_at != p);
                    infeasible_points += usize::from(load[runs_at] > cap);
                    sku.lanes.push(Lane {
                        delta: load[runs_at] - idle,
                        remapped: runs_at != p,
                    });
                }

                if *frac > 0.0 {
                    let pstates = class.pstates.len() as u64;
                    weights.push(*frac);
                    sku.picks.push(ClassLane {
                        duty_lo: class.duty.0,
                        duty_span: class.duty.1 - class.duty.0,
                        pstates,
                        lemire_threshold: pstates.wrapping_neg() % pstates,
                        lane_base: u32::try_from(sku.class_base[ci])
                            .expect("a few lanes per job class"),
                        class_idx: u16::try_from(ci).expect("class catalogue is tiny"),
                    });
                }
            }
            // The `pick_weighted` fallback: past every threshold, the
            // last positive-weight class wins.
            let last = *sku.picks.last().expect("mix has a positive weight");
            sku.picks.push(last);
            for (i, t) in collapse_pick_chain(&weights, sku.total)
                .into_iter()
                .enumerate()
            {
                if i < 8 {
                    sku.thresholds[i] = t;
                } else {
                    sku.spill.push(t);
                }
            }
            lanes.push(sku);

            // Node ids are global and stable, so per-node RNG streams
            // (and therefore the samples) do not depend on grouping or
            // thread count.
            let samples = group.samples_per_node.unwrap_or(cfg.samples_per_node);
            for _ in 0..group.nodes {
                let node_id = u32::try_from(items.len()).expect("node counts are u32");
                items.push(NodeItem {
                    sku_idx,
                    node_id,
                    samples,
                });
            }
        }

        FleetPlan {
            lanes,
            items,
            power_table,
            capped_points,
            infeasible_points,
        }
    }

    /// Appends node `item`'s episode walk to `shard`: its proposals,
    /// their state labels when a budget will read them, and the walk's
    /// per-state counters added to the shard's.
    fn propose_episode(&self, plan: &FleetPlan, item: &NodeItem, shard: &mut FleetShard) {
        let cfg = &self.config;
        let labelled = cfg.budget_w.is_some();
        let sku = &plan.lanes[item.sku_idx];
        let mut capped_samples = 0usize;
        let mut walk = EpisodeWalk::new(&cfg.episodes, &cfg.mix, cfg.seed, item.node_id);
        for _ in 0..item.samples {
            let t = walk.next_tick();
            // The tick's class and P-state slot name the lane an i.i.d.
            // draw of the same pair reads.
            let p = match t.class {
                None => sku.idle,
                Some(ci) => {
                    let lane = &sku.lanes[sku.class_base[ci] + t.pstate];
                    capped_samples += usize::from(lane.remapped);
                    sku.idle + t.duty * lane.delta
                }
            };
            shard.watts.push(p.min(cfg.cap_w));
            if labelled {
                // fs2-lint: allow(checked-cast) -- episode state index is bounded by the class count; hot per-sample loop
                shard.states.push(t.state as u16);
            }
        }
        shard.capped_samples += capped_samples;
        for (sum, n) in shard.state_ticks.iter_mut().zip(walk.state_ticks()) {
            *sum += n;
        }
        for (sum, n) in shard.episode_counts.iter_mut().zip(walk.episode_counts()) {
            *sum += n;
        }
    }

    /// The serial tail of every run, over the merged proposals of the
    /// whole fleet: with a budget, [`arbitrate`] rewrites them into the
    /// emitted samples in place and the labels are freed; without one,
    /// the proposals are the samples. Then the episode and budget
    /// statistics are folded.
    fn finish(&self, registry: &EngineRegistry, plan: &FleetPlan, merged: FleetShard) -> FleetRun {
        let cfg = &self.config;
        let classes = cfg.mix.classes();

        let (mut samples, states) = (merged.watts, merged.states);
        let arbitration = cfg.budget_w.map(|budget_w| {
            let nodes: Vec<NodeStream> = plan
                .items
                .iter()
                .map(|n| NodeStream {
                    floor_w: plan.lanes[n.sku_idx].floor_w,
                    ticks: n.samples as usize,
                })
                .collect();
            let (policy, n_states) = (cfg.budget_policy, classes.len() + 1);
            arbitrate(&nodes, budget_w, policy, n_states, &mut samples, &states)
        });
        drop(states);

        let episode_stats = (cfg.temporal == TemporalMode::Episodes).then(|| {
            aggregate_episode_stats(
                &cfg.episodes,
                &merged.state_ticks,
                &merged.episode_counts,
                plan.node_ranges().map(|at| &samples[at]),
            )
        });

        let budget = arbitration.map(|arb| {
            let budget_w = cfg.budget_w.expect("arbitration implies a budget");
            let ticks = arb.tick_draw_w.len();
            let peak_fleet_w = arb.tick_draw_w.iter().copied().fold(0.0, f64::max);
            let mean_fleet_w = if ticks == 0 {
                0.0
            } else {
                arb.tick_draw_w.iter().sum::<f64>() / ticks as f64
            };
            let util: Vec<f64> = arb.tick_draw_w.iter().map(|&d| d / budget_w).collect();
            let mut states = vec!["floor"];
            states.extend(classes.iter().map(|(c, _)| c.name));
            BudgetStats {
                budget_w,
                policy: cfg.budget_policy,
                ticks,
                peak_fleet_w,
                mean_fleet_w,
                shed_ticks: arb.shed_ticks,
                deferred_ticks: arb.deferred_ticks,
                truncated_proposals: arb.truncated_proposals,
                infeasible_floor_ticks: arb.infeasible_floor_ticks,
                utilization: PowerCdf::from_samples(&util, 0.005),
                states,
            }
        });

        FleetRun {
            samples,
            registry: registry.stats(),
            power_table: plan.power_table.clone(),
            episodes: episode_stats,
            capped_points: plan.capped_points,
            capped_samples: merged.capped_samples,
            infeasible_points: plan.infeasible_points,
            budget,
        }
    }

    /// An empty shard for the node range `[lo, hi)`, its columns
    /// reserved. The shard at node 0 reserves room for the whole fleet:
    /// the merge appends the other shards to its buffers in place.
    fn empty_shard(&self, plan: &FleetPlan, lo: u32, hi: u32) -> FleetShard {
        let cfg = &self.config;
        assert!(
            lo <= hi && (hi as usize) <= plan.items.len(),
            "shard [{lo}, {hi}) out of range for {} nodes",
            plan.items.len()
        );
        let end = if lo == 0 {
            plan.items.len()
        } else {
            hi as usize
        };
        let capacity = plan.items[lo as usize..end]
            .iter()
            .map(|n| n.samples as usize)
            .sum();
        let labels = if cfg.budget_w.is_some() { capacity } else { 0 };
        let n_states = match cfg.temporal {
            TemporalMode::Iid => 0,
            TemporalMode::Episodes => cfg.episodes.n_states(),
        };
        FleetShard {
            lo,
            hi,
            watts: Vec::with_capacity(capacity),
            states: Vec::with_capacity(labels),
            state_ticks: vec![0; n_states],
            episode_counts: vec![0; n_states],
            capped_samples: 0,
        }
    }

    /// Proposes the node range `[lo, hi)` of an already-built plan.
    ///
    /// This is the unit of work of [`FleetSim::run_with`] and of the
    /// fleet service's shard layer: because every node's stream is a
    /// pure function of `(seed, node_id)`, a shard proposes exactly the
    /// bytes a one-shard run would have produced for those nodes, and
    /// [`FleetSim::try_merge_shards`] reassembles the full run
    /// bitwise-identically. Every node's proposals go straight into the
    /// shard's buffer, node after node; unbudgeted i.i.d. shards draw
    /// four nodes at a time in lockstep.
    pub fn run_shard(&self, plan: &FleetPlan, lo: u32, hi: u32) -> FleetShard {
        let cfg = &self.config;
        let mut shard = self.empty_shard(plan, lo, hi);
        let nodes = &plan.items[lo as usize..hi as usize];
        match (cfg.temporal, cfg.budget_w) {
            (TemporalMode::Iid, None) => {
                let total: usize = nodes.iter().map(|n| n.samples as usize).sum();
                shard.watts.resize(total, 0.0f64);
                let mut rest = shard.watts.as_mut_slice();
                let mut parts: Vec<(&SkuLanes, StdRng, &mut [f64])> = Vec::with_capacity(4);
                let mut it = nodes.iter().peekable();
                while it.peek().is_some() {
                    for n in it.by_ref().take(4) {
                        let (head, tail) = rest.split_at_mut(n.samples as usize);
                        rest = tail;
                        parts.push((&plan.lanes[n.sku_idx], rng_for(cfg.seed, n.node_id), head));
                    }
                    shard.capped_samples += lockstep_fill(std::mem::take(&mut parts), cfg.cap_w);
                }
            }
            (TemporalMode::Iid, Some(_)) => {
                // Budgeted: one node at a time, every proposal labelled
                // with its class for the arbiter's per-state counters.
                for n in nodes {
                    let l = &plan.lanes[n.sku_idx];
                    let mut rng = rng_for(cfg.seed, n.node_id);
                    for _ in 0..n.samples {
                        let (p, ci, remapped) = l.draw(&mut rng);
                        shard.capped_samples += usize::from(remapped);
                        shard.watts.push(p.min(cfg.cap_w));
                        // fs2-lint: allow(checked-cast) -- class index < catalogue size (JobMix validates); hot per-sample loop
                        shard.states.push((ci + 1) as u16);
                    }
                }
            }
            (TemporalMode::Episodes, _) => {
                for n in nodes {
                    self.propose_episode(plan, n, &mut shard);
                }
            }
        }
        shard
    }

    /// Merges shard results back into one [`FleetRun`].
    ///
    /// Shards must tile the plan's node range exactly, in any order
    /// (they are sorted by range here); a missing, duplicated or
    /// overlapping shard is a typed [`ShardTilingError`]. Every shard
    /// is appended to the node-0 shard's buffers, which reserved room
    /// for the whole run. That buffer becomes the run's samples: with a
    /// budget, the serial arbitration rewrites it in place first. The
    /// merged run is byte-identical for every shard split.
    pub fn try_merge_shards(
        &self,
        registry: &EngineRegistry,
        plan: &FleetPlan,
        mut shards: Vec<FleetShard>,
    ) -> Result<FleetRun, ShardTilingError> {
        shards.sort_by_key(|s| s.lo);
        let tiling_error = |expected_lo, found_lo| ShardTilingError {
            expected_lo,
            found_lo,
            total_nodes: plan.items.len(),
        };
        let mut expected = 0u32;
        for s in &shards {
            if s.lo != expected {
                return Err(tiling_error(expected, Some(s.lo)));
            }
            expected = s.hi;
        }
        if expected as usize != plan.items.len() {
            return Err(tiling_error(expected, None));
        }

        let mut shards = shards.into_iter();
        // Only a fleet without nodes tiles with no shard at all.
        let mut all = shards
            .next()
            .unwrap_or_else(|| self.empty_shard(plan, 0, 0));
        for mut s in shards {
            all.watts.append(&mut s.watts);
            all.states.append(&mut s.states);
            for (sum, n) in all.state_ticks.iter_mut().zip(&s.state_ticks) {
                *sum += n;
            }
            for (sum, n) in all.episode_counts.iter_mut().zip(&s.episode_counts) {
                *sum += n;
            }
            all.capped_samples += s.capped_samples;
        }
        Ok(self.finish(registry, plan, all))
    }

    /// Generates all 60 s-mean samples for the fleet.
    pub fn generate(&self) -> Vec<f64> {
        self.run().samples
    }
}

/// Folds the walks' summed per-state `state_ticks` and
/// `episode_counts` and the emitted per-node sample streams into
/// fleet-wide episode statistics. Nodes are visited in input order, so
/// the result is identical for any shard split. The state shares and
/// dwells describe the *proposed* walks; the autocorrelation measures
/// the emitted stream (post-arbitration when a budget is set).
fn aggregate_episode_stats<'a>(
    model: &EpisodeModel,
    ticks: &[u64],
    episodes: &[u64],
    per_node_samples: impl IntoIterator<Item = &'a [f64]>,
) -> EpisodeStats {
    let total: u64 = ticks.iter().sum();
    let empirical_shares = ticks
        .iter()
        .map(|&t| {
            if total == 0 {
                0.0
            } else {
                t as f64 / total as f64
            }
        })
        .collect();
    let mean_dwell_ticks = ticks
        .iter()
        .zip(episodes)
        .map(|(&t, &e)| if e == 0 { 0.0 } else { t as f64 / e as f64 })
        .collect();
    EpisodeStats {
        states: model.state_names().iter().map(|s| s.to_string()).collect(),
        empirical_shares,
        model_shares: model.stationary_time_shares().to_vec(),
        mean_dwell_ticks,
        lag1_autocorr: pooled_lag1_autocorr(per_node_samples),
    }
}

/// Pooled lag-1 autocorrelation of per-node power streams: each stream
/// is centred on its own mean, and the lag-1 products and squared
/// deviations of all streams are summed before the one division.
/// Streams shorter than two samples contribute nothing. Zero pooled
/// variance (constant streams, no stream of two samples, no streams)
/// reads 0.0, never `NaN`: the [`EpisodeStats::lag1_autocorr`]
/// contract. Fleet runs and calibration traces both measure with this
/// function.
pub fn pooled_lag1_autocorr<'a>(per_node: impl IntoIterator<Item = &'a [f64]>) -> f64 {
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for s in per_node {
        if s.len() >= 2 {
            let mean = s.iter().sum::<f64>() / s.len() as f64;
            den += s.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>();
            num += s
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>();
        }
    }
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::JobClass;

    /// The engine-evaluated load of `class` at P-state `p` on `sku`,
    /// read from a run's power table.
    fn table_load(table: &[ClassPower], sku: &fs2_arch::Sku, class: &JobClass, p: usize) -> f64 {
        let freq_mhz = sku.pstates.states[p].freq_mhz;
        table
            .iter()
            .find(|r| r.sku == sku.name && r.class == class.name && r.freq_mhz == freq_mhz)
            .expect("every listed P-state is evaluated")
            .watts
    }

    /// The P-state a draw of `class` at P-state `drawn` runs at under
    /// `cap`, by the rule [`FleetConfig::power_cap_w`] states: a point
    /// over the cap moves to the class's highest-power point under it,
    /// or, with none, to its lowest-power one.
    fn capped_pstate(
        class: &JobClass,
        drawn: usize,
        cap: Option<f64>,
        load: impl Fn(usize) -> f64,
    ) -> usize {
        match cap {
            Some(cap) if load(drawn) > cap => {
                let by_load = |a: &usize, b: &usize| load(*a).total_cmp(&load(*b));
                let listed = || class.pstates.iter().copied();
                listed()
                    .filter(|&p| load(p) <= cap)
                    .max_by(by_load)
                    .or_else(|| listed().min_by(by_load))
                    .expect("classes always have P-states")
            }
            _ => drawn,
        }
    }

    /// The per-node oracle for the i.i.d. sampler: every draw walks the
    /// [`JobMix`]/[`JobClass`] API, takes the load from the
    /// engine-evaluated `power_table` and the idle floor from the
    /// engine, applies the power-cap rule itself, and appends to
    /// `shard` what the production sampler would (labels only under a
    /// budget). It reads nothing the plan derived from those points, so
    /// the plan's lanes and the batched composer ([`SkuLanes`], the
    /// collapsed pick chain, the lockstep fill) are pinned against it
    /// bit for bit.
    fn propose_iid_reference(
        sim: &FleetSim,
        registry: &EngineRegistry,
        power_table: &[ClassPower],
        item: &NodeItem,
        shard: &mut FleetShard,
    ) {
        let cfg = &sim.config;
        let sku = &cfg.groups[item.sku_idx].sku;
        let idle = registry.engine(sku).idle_power_w();
        let mut rng = rng_for(cfg.seed, item.node_id);
        for _ in 0..item.samples {
            let ci = cfg.mix.pick_idx(&mut rng);
            let class = &cfg.mix.classes()[ci].0;
            let duty = class.draw_duty(&mut rng);
            let drawn = class.pstates[class.draw_pstate(&mut rng)];
            let load = |p| table_load(power_table, sku, class, p);
            let runs_at = capped_pstate(class, drawn, cfg.power_cap_w, load);
            shard.capped_samples += usize::from(runs_at != drawn);
            shard
                .watts
                .push((idle + duty * (load(runs_at) - idle)).min(cfg.cap_w));
            if cfg.budget_w.is_some() {
                shard.states.push(u16::try_from(ci + 1).unwrap());
            }
        }
    }

    /// `(capped_points, infeasible_points)` by the cap rule, over every
    /// node group, job class and listed P-state.
    fn cap_counts_reference(cfg: &FleetConfig, power_table: &[ClassPower]) -> (usize, usize) {
        let Some(cap) = cfg.power_cap_w else {
            return (0, 0);
        };
        let (mut capped, mut infeasible) = (0, 0);
        for group in &cfg.groups {
            for (class, _) in cfg.mix.classes() {
                let load = |p| table_load(power_table, &group.sku, class, p);
                for &p in class.pstates {
                    let runs_at = capped_pstate(class, p, Some(cap), load);
                    capped += usize::from(runs_at != p);
                    infeasible += usize::from(load(runs_at) > cap);
                }
            }
        }
        (capped, infeasible)
    }

    /// A whole run through the oracle: a cold registry, every node
    /// proposed one after another into one full-range shard (the
    /// reference sampler in i.i.d. mode), then the production merge —
    /// no shard split, no lockstep fill — with the cap counters
    /// recounted by the cap rule.
    fn run_reference(sim: &FleetSim) -> FleetRun {
        let registry = EngineRegistry::with_seed(sim.config.seed);
        let plan = sim.plan(&registry);
        let mut shard = sim.empty_shard(&plan, 0, plan.total_nodes());
        for item in &plan.items {
            match sim.config.temporal {
                TemporalMode::Iid => {
                    propose_iid_reference(sim, &registry, &plan.power_table, item, &mut shard)
                }
                TemporalMode::Episodes => sim.propose_episode(&plan, item, &mut shard),
            }
        }
        let run = sim
            .try_merge_shards(&registry, &plan, vec![shard])
            .expect("one full-range shard tiles the node range");
        let (capped_points, infeasible_points) =
            cap_counts_reference(&sim.config, &run.power_table);
        FleetRun {
            capped_points,
            infeasible_points,
            ..run
        }
    }

    /// `plan` → `run_shard` over `ranges`, in the order given →
    /// `try_merge_shards`.
    fn run_sharded(sim: &FleetSim, ranges: &[(u32, u32)]) -> FleetRun {
        let registry = EngineRegistry::with_seed(sim.config.seed);
        let plan = sim.plan(&registry);
        let shards: Vec<FleetShard> = ranges
            .iter()
            .map(|&(lo, hi)| sim.run_shard(&plan, lo, hi))
            .collect();
        sim.try_merge_shards(&registry, &plan, shards)
            .expect("the ranges tile the node range")
    }

    /// The hand-built mix of `tests/fleet_golden.rs` over the Taurus
    /// payload specs: a zero-weight `parked` class between positive
    /// ones, and a `medium` class that lists P-state 2 twice.
    fn hand_built_mix() -> JobMix {
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
        JobMix::new(vec![
            (class("idle", "idle", &[2]), 0.30),
            (class("low", "parked", &[0]), 0.0),
            (class("medium", "medium", &[2, 0, 2]), 0.30),
            (class("high", "high", &[0, 1]), 0.30),
            (class("peak", "peak", &[0]), 0.10),
        ])
    }

    fn small_fleet() -> FleetSim {
        FleetSim::new(FleetConfig {
            samples_per_node: 500,
            ..FleetConfig::taurus_haswell_scaled(64)
        })
    }

    fn small_episode_fleet() -> FleetSim {
        FleetSim::new(FleetConfig {
            samples_per_node: 500,
            temporal: TemporalMode::Episodes,
            ..FleetConfig::taurus_haswell_scaled(64)
        })
    }

    #[test]
    fn cdf_shape_matches_fig1_landmarks() {
        let cdf = PowerCdf::from_samples(&small_fleet().generate(), 0.1);
        // Maximum below the physical cap (paper: 359.9 W).
        assert!(cdf.max_w <= 359.9 + 1e-9);
        assert!(cdf.max_w > 300.0, "no high-power tail: max {}", cdf.max_w);
        // Steep idle shoulder: a large fraction between 50 W and 100 W.
        let below_100 = cdf.fraction_at(100.0);
        let below_50 = cdf.fraction_at(50.0);
        assert!(below_50 < 0.02, "mass below 50 W: {below_50}");
        assert!(
            below_100 > 0.35,
            "idle shoulder missing: only {below_100} below 100 W"
        );
        // Most of the time, the power budget is far from exhausted.
        assert!(cdf.fraction_at(250.0) > 0.75);
    }

    #[test]
    fn cdf_is_monotone_and_complete() {
        let cdf = PowerCdf::from_samples(&small_fleet().generate(), 0.1);
        assert!((cdf.bins.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.bins.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].0 > w[0].0);
        }
        assert_eq!(cdf.samples, 64 * 500);
    }

    #[test]
    fn quantiles_are_ordered() {
        let cdf = PowerCdf::from_samples(&small_fleet().generate(), 0.1);
        let q25 = cdf.quantile(0.25);
        let q50 = cdf.quantile(0.50);
        let q95 = cdf.quantile(0.95);
        assert!(q25 <= q50 && q50 <= q95);
        assert!(q95 > 200.0);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_fleet().generate();
        let b = small_fleet().generate();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_fleet_matches_serial_bitwise() {
        let mut serial = small_fleet();
        serial.config.threads = 1;
        let mut parallel = small_fleet();
        parallel.config.threads = 4;
        assert_eq!(serial.generate(), parallel.generate());
    }

    #[test]
    fn episode_fleet_parallel_matches_serial_bitwise() {
        let mut serial = small_episode_fleet();
        serial.config.threads = 1;
        let mut parallel = small_episode_fleet();
        parallel.config.threads = 4;
        let a = serial.run();
        let b = parallel.run();
        assert_eq!(a.samples, b.samples);
        // The aggregated episode statistics must match too.
        let (sa, sb) = (a.episodes.unwrap(), b.episodes.unwrap());
        assert_eq!(sa.empirical_shares, sb.empirical_shares);
        assert_eq!(sa.mean_dwell_ticks, sb.mean_dwell_ticks);
        assert_eq!(sa.lag1_autocorr, sb.lag1_autocorr);
    }

    #[test]
    fn episode_mode_is_time_correlated_iid_is_not() {
        let iid = small_fleet().run();
        assert!(iid.episodes.is_none(), "i.i.d. runs carry no episode stats");
        let ep = small_episode_fleet().run();
        let stats = ep.episodes.expect("episode stats present");
        assert!(
            stats.lag1_autocorr > 0.3,
            "episodes not time-correlated: r1 = {}",
            stats.lag1_autocorr
        );
        // The i.i.d. stream, measured the same way, sits near zero.
        let mut num = 0.0;
        let mut den = 0.0;
        for chunk in iid.samples.chunks(500) {
            let mean = chunk.iter().sum::<f64>() / chunk.len() as f64;
            den += chunk.iter().map(|&x| (x - mean) * (x - mean)).sum::<f64>();
            num += chunk
                .windows(2)
                .map(|w| (w[0] - mean) * (w[1] - mean))
                .sum::<f64>();
        }
        let r1_iid = num / den;
        assert!(r1_iid.abs() < 0.05, "i.i.d. autocorrelation {r1_iid}");
        assert!(stats.lag1_autocorr > r1_iid + 0.25);
    }

    #[test]
    fn zero_variance_autocorr_is_zero_not_nan() {
        // Regression for the documented `EpisodeStats::lag1_autocorr`
        // contract: a zero pooled denominator — constant per-node
        // streams, streams shorter than two samples, or no nodes at
        // all — yields exactly 0.0, never NaN (calibration feeds this
        // field into error terms and must stay finite).
        let mix = JobMix::taurus_haswell();
        let model = EpisodeModel::taurus_haswell(&mix);
        let n = model.n_states();
        // Per-state walk totals of `nodes` walks of `ticks` ticks each.
        let ticks = |ticks: u64, nodes: u64| vec![ticks * nodes; n];
        let episodes = |nodes: u64| vec![nodes; n];
        // Constant streams: positive length, zero variance.
        let stats = aggregate_episode_stats(
            &model,
            &ticks(5, 2),
            &episodes(2),
            [&[120.0; 5][..], &[80.5; 5][..]],
        );
        assert_eq!(stats.lag1_autocorr, 0.0);
        assert!(!stats.lag1_autocorr.is_nan());
        // Streams too short for a lag-1 pair.
        let stats = aggregate_episode_stats(&model, &ticks(1, 1), &episodes(1), [&[97.0][..]]);
        assert_eq!(stats.lag1_autocorr, 0.0);
        // Empty fleet: no nodes, no ticks, shares all zero.
        let stats = aggregate_episode_stats(&model, &ticks(0, 0), &episodes(0), std::iter::empty());
        assert_eq!(stats.lag1_autocorr, 0.0);
        assert!(stats.empirical_shares.iter().all(|&s| s == 0.0));
        // A varying stream still measures nonzero correlation (the
        // guard must not clamp legitimate statistics to zero).
        let ramp: Vec<f64> = (0..64).map(|i| 50.0 + f64::from(i)).collect();
        let stats = aggregate_episode_stats(&model, &ticks(64, 1), &episodes(1), [ramp.as_slice()]);
        assert!(stats.lag1_autocorr > 0.8);
    }

    #[test]
    fn episode_stationary_tracks_model_shares() {
        let run = small_episode_fleet().run();
        let stats = run.episodes.unwrap();
        assert_eq!(stats.states[0], "floor");
        assert!((stats.empirical_shares.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for (i, (&got, &want)) in stats
            .empirical_shares
            .iter()
            .zip(&stats.model_shares)
            .enumerate()
        {
            assert!(
                (got - want).abs() < 0.05,
                "state {i}: empirical {got} vs model {want}"
            );
        }
    }

    #[test]
    fn restructured_run_reproduces_pre_budget_streams() {
        // Golden bit patterns captured from the pre-restructure
        // (independent per-node streams) generator: the tick-synchronous
        // pass without a budget must reproduce them byte for byte.
        let golden_iid: &[(usize, u64)] = &[
            (0, 0x405526E41CAD1777),
            (1, 0x4055D8E7012860E9),
            (2, 0x4071A34942E8597B),
            (99, 0x4064A3BB333C277E),
            (100, 0x4070D0229EDDF40F),
            (399, 0x40649B9C33875320),
            (400, 0x407663A3160EC8BE),
            (799, 0x4056EF96D9D21AC2),
        ];
        let golden_ep: &[(usize, u64)] = &[
            (0, 0x405692472853DB3B),
            (1, 0x405692472853DB3B),
            (99, 0x4054B33333333333),
            (100, 0x405C94D884529681),
            (399, 0x4060E750EBC4F7BE),
            (400, 0x405B564B57C70C39),
            (799, 0x406A0C383723A280),
        ];
        for (mode, golden, sum_bits) in [
            (TemporalMode::Iid, golden_iid, 0x40FDE54A0DD66BD7u64),
            (TemporalMode::Episodes, golden_ep, 0x40FDBE5E1099D13Au64),
        ] {
            let s = FleetSim::new(FleetConfig {
                samples_per_node: 100,
                temporal: mode,
                ..FleetConfig::taurus_haswell_scaled(8)
            })
            .generate();
            for &(i, bits) in golden {
                assert_eq!(
                    s[i].to_bits(),
                    bits,
                    "{mode:?} sample {i} drifted from the pre-budget stream"
                );
            }
            let sum: f64 = s.iter().sum();
            assert_eq!(sum.to_bits(), sum_bits, "{mode:?} stream sum drifted");
        }
    }

    /// Per-tick fleet sums of a uniform-horizon run (samples are
    /// node-major: node `n`'s tick `t` sits at `n * spn + t`).
    fn tick_sums(samples: &[f64], spn: usize) -> Vec<f64> {
        let nodes = samples.len() / spn;
        (0..spn)
            .map(|t| (0..nodes).map(|n| samples[n * spn + t]).sum())
            .collect()
    }

    #[test]
    fn budget_caps_the_fleet_sum_every_tick() {
        let spn = 300usize;
        let base_cfg = FleetConfig {
            samples_per_node: spn as u32,
            temporal: TemporalMode::Episodes,
            ..FleetConfig::taurus_haswell_scaled(16)
        };
        let unbudgeted = FleetSim::new(base_cfg.clone()).run();
        assert!(unbudgeted.budget.is_none());
        // A budget below the unconstrained peak but well above the
        // idle-floor sum (~16 x 83 W), so it binds and is feasible.
        let budget_w = 2000.0;
        let unconstrained_peak = tick_sums(&unbudgeted.samples, spn)
            .into_iter()
            .fold(0.0, f64::max);
        assert!(unconstrained_peak > budget_w, "budget would not bind");
        for policy in [BudgetPolicy::ShedToFloor, BudgetPolicy::Defer] {
            let run = FleetSim::new(FleetConfig {
                budget_w: Some(budget_w),
                budget_policy: policy,
                ..base_cfg.clone()
            })
            .run();
            let stats = run.budget.as_ref().expect("budget stats present");
            assert_eq!(stats.infeasible_floor_ticks, 0);
            for (t, sum) in tick_sums(&run.samples, spn).into_iter().enumerate() {
                assert!(
                    sum <= budget_w + 1e-9,
                    "{policy:?} tick {t}: fleet draw {sum} exceeds {budget_w}"
                );
            }
            // The arbiter's own accounting matches the emitted stream.
            assert_eq!(stats.ticks, spn);
            assert!(stats.peak_fleet_w <= budget_w + 1e-9);
            assert!(stats.peak_fleet_w > budget_w * 0.9, "budget never filled");
            assert!(stats.mean_fleet_w < stats.peak_fleet_w);
            assert!((stats.utilization.max_w - stats.peak_fleet_w / budget_w).abs() < 0.005);
            let denied: u64 = match policy {
                BudgetPolicy::ShedToFloor => stats.shed_ticks.iter().sum(),
                BudgetPolicy::Defer => stats.deferred_ticks.iter().sum(),
            };
            assert!(denied > 0, "{policy:?}: a binding budget must deny ticks");
            // Floor proposals are never denied.
            assert_eq!(stats.shed_ticks[0], 0);
            assert_eq!(stats.deferred_ticks[0], 0);
        }
    }

    #[test]
    fn budget_applies_to_the_iid_sampler_too() {
        let spn = 200usize;
        let budget_w = 1800.0;
        let run = FleetSim::new(FleetConfig {
            samples_per_node: spn as u32,
            budget_w: Some(budget_w),
            ..FleetConfig::taurus_haswell_scaled(16)
        })
        .run();
        let stats = run.budget.as_ref().expect("budget stats");
        assert!(stats.shed_ticks.iter().sum::<u64>() > 0);
        for (t, sum) in tick_sums(&run.samples, spn).into_iter().enumerate() {
            assert!(sum <= budget_w + 1e-9, "tick {t}: {sum} over budget");
        }
    }

    #[test]
    fn budgeted_runs_are_thread_count_invariant() {
        for (temporal, policy) in [
            (TemporalMode::Iid, BudgetPolicy::ShedToFloor),
            (TemporalMode::Episodes, BudgetPolicy::ShedToFloor),
            (TemporalMode::Episodes, BudgetPolicy::Defer),
        ] {
            let cfg = FleetConfig {
                samples_per_node: 250,
                temporal,
                budget_w: Some(2000.0),
                budget_policy: policy,
                ..FleetConfig::taurus_haswell_scaled(16)
            };
            let mut serial_cfg = cfg.clone();
            serial_cfg.threads = 1;
            let mut parallel_cfg = cfg;
            parallel_cfg.threads = 4;
            let a = FleetSim::new(serial_cfg).run();
            let b = FleetSim::new(parallel_cfg).run();
            assert_eq!(a.samples, b.samples, "{temporal:?}/{policy:?} diverged");
            let (sa, sb) = (a.budget.unwrap(), b.budget.unwrap());
            assert_eq!(sa.shed_ticks, sb.shed_ticks);
            assert_eq!(sa.deferred_ticks, sb.deferred_ticks);
            assert_eq!(sa.peak_fleet_w.to_bits(), sb.peak_fleet_w.to_bits());
            assert_eq!(a.capped_samples, b.capped_samples);
        }
    }

    #[test]
    fn shed_loses_work_defer_delays_it() {
        let cfg = FleetConfig {
            samples_per_node: 400,
            temporal: TemporalMode::Episodes,
            budget_w: Some(1900.0),
            ..FleetConfig::taurus_haswell_scaled(16)
        };
        let shed = FleetSim::new(FleetConfig {
            budget_policy: BudgetPolicy::ShedToFloor,
            ..cfg.clone()
        })
        .run();
        let defer = FleetSim::new(FleetConfig {
            budget_policy: BudgetPolicy::Defer,
            ..cfg
        })
        .run();
        let (ss, ds) = (shed.budget.unwrap(), defer.budget.unwrap());
        // Shed never defers or truncates; defer never sheds.
        assert!(ss.shed_ticks.iter().sum::<u64>() > 0);
        assert_eq!(ss.deferred_ticks.iter().sum::<u64>(), 0);
        assert_eq!(ss.truncated_proposals, 0);
        assert_eq!(ds.shed_ticks.iter().sum::<u64>(), 0);
        assert!(ds.deferred_ticks.iter().sum::<u64>() > 0);
        // The two policies genuinely produce different streams.
        assert_ne!(shed.samples, defer.samples);
    }

    #[test]
    fn capped_samples_counts_per_sample_and_is_thread_invariant() {
        // Regression: `capped_points` counts the plan's static lanes
        // (the CLI's per-sample claim was wrong); `capped_samples` is
        // the per-sample count, accumulated in node input order.
        for temporal in [TemporalMode::Iid, TemporalMode::Episodes] {
            let cfg = FleetConfig {
                samples_per_node: 400,
                temporal,
                power_cap_w: Some(300.0),
                ..FleetConfig::taurus_haswell_scaled(16)
            };
            let mut serial_cfg = cfg.clone();
            serial_cfg.threads = 1;
            let mut parallel_cfg = cfg.clone();
            parallel_cfg.threads = 4;
            let a = FleetSim::new(serial_cfg).run();
            let b = FleetSim::new(parallel_cfg).run();
            assert_eq!(
                a.capped_samples, b.capped_samples,
                "{temporal:?}: capped_samples depends on thread count"
            );
            assert!(a.capped_samples > 0, "{temporal:?}: cap clamped nothing");
            // The static lane count is far smaller than the drawn
            // total and unchanged between the two runs.
            assert_eq!(a.capped_points, b.capped_points);
            assert!(a.capped_points > 0);
            assert!(a.capped_points < 50, "lanes, not samples");
            assert!(a.capped_samples > a.capped_points);
            // Uncapped runs report zero on both counters.
            let uncapped = FleetSim::new(FleetConfig {
                power_cap_w: None,
                ..cfg
            })
            .run();
            assert_eq!(uncapped.capped_points, 0);
            assert_eq!(uncapped.capped_samples, 0);
        }
    }

    #[test]
    fn infeasible_cap_is_surfaced_not_silent() {
        // Regression: a cap below every operating point of a class used
        // to fall back to the lowest-power P-state with no signal. A
        // 150 W cap is under the whole "peak" class (and more).
        let mut cfg = small_fleet().config;
        cfg.power_cap_w = Some(150.0);
        let run = FleetSim::new(cfg).run();
        assert!(
            run.infeasible_points > 0,
            "cap below a whole class must surface infeasible points"
        );
        // 150 W is under every operating point: every lane is
        // infeasible (the Taurus classes list no P-state twice, so
        // there is one lane per evaluated (SKU, class, P-state)).
        let drawable = run.power_table.len();
        assert_eq!(run.infeasible_points, drawable);
        // A 300 W cap remaps the multi-P-state classes, but the
        // single-P-state "peak" class (and the flat "high" rows) has no
        // admissible point — both counters must be nonzero at once.
        let mut mid_cfg = small_fleet().config;
        mid_cfg.power_cap_w = Some(300.0);
        let mid = FleetSim::new(mid_cfg).run();
        assert!(mid.capped_points > 0);
        assert!(mid.infeasible_points > 0);
        assert!(mid.infeasible_points < drawable);
        // A cap above every operating point touches nothing.
        let mut ok_cfg = small_fleet().config;
        ok_cfg.power_cap_w = Some(400.0);
        let ok = FleetSim::new(ok_cfg).run();
        assert_eq!(ok.capped_points, 0);
        assert_eq!(ok.infeasible_points, 0);
        // No cap: no accounting at all.
        assert_eq!(small_fleet().run().infeasible_points, 0);
    }

    #[test]
    #[should_panic(expected = "power_cap_w must be a positive wattage, got NaN")]
    fn nan_power_cap_is_rejected() {
        // Regression: a NaN cap admitted no comparison, so it ran
        // uncapped with nothing counted.
        let mut cfg = small_fleet().config;
        cfg.power_cap_w = Some(f64::NAN);
        let _ = FleetSim::new(cfg);
    }

    #[test]
    fn power_cap_clamps_operating_points() {
        let uncapped = small_episode_fleet().run();
        assert_eq!(uncapped.capped_points, 0);
        let mut capped_cfg = small_episode_fleet().config;
        capped_cfg.power_cap_w = Some(300.0);
        let capped = FleetSim::new(capped_cfg).run();
        assert!(capped.capped_points > 0, "a 300 W cap must remap points");
        // Same RNG streams: sample-for-sample the capped run is never
        // hotter, and strictly cooler somewhere.
        assert_eq!(capped.samples.len(), uncapped.samples.len());
        let mut lowered = 0usize;
        for (c, u) in capped.samples.iter().zip(&uncapped.samples) {
            assert!(c <= &(u + 1e-9), "cap raised a sample: {c} > {u}");
            if c + 1e-9 < *u {
                lowered += 1;
            }
        }
        assert!(lowered > 0, "cap lowered nothing");
        // The cap also applies to the i.i.d. sampler.
        let mut iid_cfg = small_fleet().config;
        iid_cfg.power_cap_w = Some(300.0);
        let iid_capped = FleetSim::new(iid_cfg).run();
        assert!(iid_capped.capped_points > 0);
    }

    #[test]
    fn every_sample_traces_to_the_engine_registry() {
        let run = small_fleet().run();
        let s = run.registry;
        // One engine per distinct SKU; one payload per (SKU, class).
        assert_eq!(s.engines, 2);
        assert_eq!(s.payload_misses, 10);
        assert_eq!(s.payload_entries, 10);
        // Every operating point is one engine eval — no sample power
        // arrives outside the engine pipeline.
        assert_eq!(s.evals as usize, run.power_table.len());
        // The power table holds every evaluated operating point, and
        // every sample lies between the idle floor and the cap.
        assert!(!run.power_table.is_empty());
        for row in &run.power_table {
            assert!(row.watts > 80.0 && row.watts < 400.0, "{row:?}");
        }
        assert_eq!(run.samples.len(), small_fleet().config.total_samples());
        for &p in &run.samples {
            assert!((50.0..=359.9).contains(&p), "sample {p} out of range");
        }
    }

    #[test]
    fn heterogeneous_skus_differ_in_power() {
        // The two SKU slices must not produce identical operating
        // points — heterogeneity has to be visible in the table.
        let run = small_fleet().run();
        let of = |sku: &str| -> Vec<f64> {
            run.power_table
                .iter()
                .filter(|r| r.sku == sku)
                .map(|r| r.watts)
                .collect()
        };
        let a = of("Intel Xeon E5-2680 v3 (2S)");
        let b = of("Intel Xeon E5-2695 v3 (2S)");
        assert!(!a.is_empty() && !b.is_empty());
        assert_ne!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = FleetConfig {
            samples_per_node: 100,
            ..FleetConfig::taurus_haswell_scaled(8)
        };
        let a = FleetSim::new(cfg.clone()).generate();
        cfg.seed = 123;
        let b = FleetSim::new(cfg.clone()).generate();
        assert_ne!(a, b);
        // And the two temporal modes draw from distinct streams.
        cfg.seed = 0xF1EE7;
        cfg.temporal = TemporalMode::Episodes;
        let c = FleetSim::new(cfg).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn per_group_sample_overrides_are_respected() {
        let mut cfg = FleetConfig {
            samples_per_node: 50,
            threads: 3,
            ..FleetConfig::taurus_haswell_scaled(9)
        };
        // Long-tailed fleet: the fat-node slice is sampled 10x longer.
        cfg.groups[1].samples_per_node = Some(500);
        let sim = FleetSim::new(cfg.clone());
        assert_eq!(
            sim.config.total_samples(),
            8 * 50 + 500 // 8 thin nodes + 1 fat node
        );
        let run = sim.run();
        assert_eq!(run.samples.len(), sim.config.total_samples());
        // Still bitwise-identical to serial despite the uneven shards.
        let mut serial_cfg = cfg;
        serial_cfg.threads = 1;
        assert_eq!(run.samples, FleetSim::new(serial_cfg).generate());
    }

    #[test]
    fn fraction_at_extremes() {
        let cdf = PowerCdf::from_samples(&[100.0, 200.0, 300.0], 0.1);
        assert_eq!(cdf.fraction_at(1000.0), 1.0);
        assert!(cdf.fraction_at(100.05) > 0.3);
    }

    #[test]
    fn fraction_at_below_min_is_zero() {
        // Regression: queries below the first bin used to return the
        // first bin's cumulative mass (~0.33 here) instead of 0.
        let cdf = PowerCdf::from_samples(&[100.0, 200.0, 300.0], 0.1);
        assert_eq!(cdf.fraction_at(0.0), 0.0);
        assert_eq!(cdf.fraction_at(99.9), 0.0);
        assert_eq!(cdf.fraction_at(-5.0), 0.0);
        // At or above the minimum, mass appears.
        assert!(cdf.fraction_at(100.0) > 0.3);
    }

    /// `fraction_at` as the linear scan over the bins it was before the
    /// binary search: the oracle the search must match bit for bit.
    fn fraction_at_linear(cdf: &PowerCdf, power_w: f64) -> f64 {
        if cdf.samples == 0 || power_w < cdf.min_w {
            return 0.0;
        }
        match cdf.bins.iter().find(|(edge, _)| *edge >= power_w) {
            Some((_, frac)) => *frac,
            None => 1.0,
        }
    }

    #[test]
    fn fraction_at_binary_search_matches_the_linear_scan() {
        // A fleet-wide spread over ~3200 bins, one sample, repeats on
        // one edge, no samples, and edges that collide because the bin
        // width is far below the float spacing near `min_w`.
        let spread: Vec<f64> = (0..4000u32)
            .map(|i| 80.0 + f64::from(i * 7919 % 3203) * 0.1 + f64::from(i % 7) * 0.013)
            .collect();
        let colliding: Vec<f64> = (0..40u32).map(|i| 1e9 + f64::from(i) * 1e-7).collect();
        let cases: [(&[f64], f64); 5] = [
            (&spread, 0.1),
            (&[250.0], 0.1),
            (&[100.0, 100.1, 100.1, 100.2], 0.1),
            (&[], 0.1),
            (&colliding, 1e-9),
        ];
        for (samples, width) in cases {
            let cdf = PowerCdf::from_samples(samples, width);
            let mut probes = vec![
                f64::NEG_INFINITY,
                -1.0,
                cdf.min_w - width,
                cdf.min_w,
                cdf.max_w,
                f64::INFINITY,
                f64::NAN,
            ];
            if let Some(&(last, _)) = cdf.bins.last() {
                probes.extend([last + width, last * 2.0]);
            }
            for &(edge, _) in &cdf.bins {
                probes.extend([edge - width / 2.0, edge, edge + width / 2.0]);
            }
            for x in probes {
                assert_eq!(
                    cdf.fraction_at(x).to_bits(),
                    fraction_at_linear(&cdf, x).to_bits(),
                    "x {x}, bin width {width}, {} samples",
                    samples.len()
                );
            }
        }
        // NaN falls past every bin, as the scan had it.
        let cdf = PowerCdf::from_samples(&spread, 0.1);
        assert_eq!(cdf.fraction_at(f64::NAN), 1.0);
        // The colliding case does hold equal neighbouring edges.
        let cdf = PowerCdf::from_samples(&colliding, 1e-9);
        assert!(cdf.bins.windows(2).any(|w| w[0].0 == w[1].0));
    }

    #[test]
    fn quantile_clamps_out_of_range_q() {
        // Regression: q outside [0, 1] used to assert-panic.
        let cdf = PowerCdf::from_samples(&[100.0, 200.0, 300.0], 0.1);
        assert_eq!(cdf.quantile(0.0), 100.0);
        assert_eq!(cdf.quantile(-3.0), 100.0);
        let top = cdf.quantile(1.0);
        assert!(top <= 300.0 && top > 299.0, "q=1 -> {top}");
        assert_eq!(cdf.quantile(7.5), top);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            assert!(cdf.quantile(q).is_finite());
        }
    }

    #[test]
    fn quantile_round_trips_through_fraction_at() {
        // Regression: with upper-edge quantiles,
        // quantile(fraction_at(x)) could exceed x by up to one bin.
        let cdf = PowerCdf::from_samples(&[100.0, 100.04, 200.0, 300.0], 0.1);
        for x in [100.0, 100.05, 150.0, 200.0, 299.95, 300.0, 350.0] {
            let q = cdf.quantile(cdf.fraction_at(x));
            assert!(q <= x + 1e-9, "round trip rose: x {x} -> {q}");
        }
    }

    #[test]
    fn empty_cdf_never_panics_or_returns_nan() {
        // Regression: an empty sample set used to assert-panic in
        // from_samples.
        let cdf = PowerCdf::from_samples(&[], 0.1);
        assert_eq!(cdf.samples, 0);
        assert_eq!(cdf.fraction_at(100.0), 0.0);
        assert_eq!(cdf.fraction_at(-1.0), 0.0);
        for q in [-1.0, 0.0, 0.5, 1.0, 2.0] {
            let v = cdf.quantile(q);
            assert!(v.is_finite() && !v.is_nan());
        }
    }

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|w| w.to_bits()).collect()
    }

    fn assert_runs_identical(reference: &FleetRun, run: &FleetRun, label: &str) {
        assert_eq!(
            bits(&reference.samples),
            bits(&run.samples),
            "{label}: sample bytes diverged"
        );
        assert_eq!(
            reference.capped_samples, run.capped_samples,
            "{label}: capped_samples diverged"
        );
        assert_eq!(
            reference.capped_points, run.capped_points,
            "{label}: capped_points diverged"
        );
        assert_eq!(
            reference.infeasible_points, run.infeasible_points,
            "{label}: infeasible_points diverged"
        );
        assert_eq!(
            reference.power_table.len(),
            run.power_table.len(),
            "{label}: power table rows diverged"
        );
        for (a, b) in reference.power_table.iter().zip(&run.power_table) {
            assert_eq!(a.sku, b.sku, "{label}: power table SKU order");
            assert_eq!(a.class, b.class, "{label}: power table class order");
            assert_eq!(a.freq_mhz, b.freq_mhz, "{label}: power table P-state order");
            assert_eq!(
                a.applied_mhz.to_bits(),
                b.applied_mhz.to_bits(),
                "{label}: applied frequency bits"
            );
            assert_eq!(a.watts.to_bits(), b.watts.to_bits(), "{label}: watt bits");
        }
    }

    #[test]
    fn batched_run_matches_per_node_reference_bitwise() {
        // The batched composer (the flattened lockstep sampler over the
        // plan's per-(SKU, class) table) reproduces the per-node oracle
        // byte-for-byte at any thread count.
        let cfg = FleetConfig {
            samples_per_node: 300,
            threads: 1,
            ..FleetConfig::taurus_haswell_scaled(12)
        };
        let sim = FleetSim::new(cfg.clone());
        let reference = run_reference(&sim);
        let registry = EngineRegistry::with_seed(cfg.seed);
        let serial = sim.run_with(&registry);
        assert_runs_identical(&reference, &serial, "batched serial");
        let parallel = FleetSim::new(FleetConfig {
            threads: 4,
            ..cfg.clone()
        })
        .run_with(&registry);
        assert_runs_identical(&reference, &parallel, "batched 4-thread");
        // Default entry point takes the batched path too.
        let via_run = sim.run();
        assert_runs_identical(&reference, &via_run, "run()");
    }

    #[test]
    fn batched_grouping_order_is_immaterial() {
        // Interleaved duplicate-SKU groups with unequal per-group
        // sample counts: the plan's second group of each SKU reads its
        // rows from the payload and ExecStats entries the first one
        // filled, and the odd node count plus long-tail groups leave
        // unequal tails for the lockstep sampler. Bytes must not care.
        let thin = fs2_arch::Sku::intel_xeon_e5_2680_v3();
        let fat = fs2_arch::Sku::intel_xeon_e5_2695_v3();
        let cfg = FleetConfig {
            groups: vec![
                NodeGroup {
                    sku: thin.clone(),
                    nodes: 3,
                    samples_per_node: None,
                },
                NodeGroup {
                    sku: fat.clone(),
                    nodes: 2,
                    samples_per_node: Some(701),
                },
                NodeGroup {
                    sku: thin.clone(),
                    nodes: 5,
                    samples_per_node: Some(157),
                },
                NodeGroup {
                    sku: fat.clone(),
                    nodes: 1,
                    samples_per_node: None,
                },
            ],
            samples_per_node: 250,
            threads: 1,
            power_cap_w: Some(250.0),
            ..FleetConfig::taurus_haswell_scaled(2)
        };
        let sim = FleetSim::new(cfg.clone());
        let reference = run_reference(&sim);
        assert!(
            reference.capped_samples > 0,
            "power cap should bite so the remap lanes are exercised"
        );
        let batched = sim.run();
        assert_runs_identical(&reference, &batched, "interleaved groups");
        let parallel = FleetSim::new(FleetConfig { threads: 4, ..cfg }).run();
        assert_runs_identical(&reference, &parallel, "interleaved groups, 4 threads");
    }

    #[test]
    fn budgeted_batched_composer_matches_reference_bitwise() {
        // With a fleet budget the i.i.d. shards draw one node at a time
        // and label every proposal for the arbiter instead of filling
        // in lockstep; the draws are the same either way.
        let cfg = FleetConfig {
            samples_per_node: 400,
            threads: 1,
            budget_w: Some(64.0 * 180.0),
            ..FleetConfig::taurus_haswell_scaled(64)
        };
        let sim = FleetSim::new(cfg);
        let reference = run_reference(&sim);
        let run = sim.run();
        let budget = reference.budget.as_ref().expect("budget stats");
        let arbitrated: u64 = budget.shed_ticks.iter().sum::<u64>()
            + budget.deferred_ticks.iter().sum::<u64>()
            + budget.truncated_proposals;
        assert!(
            arbitrated > 0,
            "budget should bite so arbitration is exercised"
        );
        assert_runs_identical(&reference, &run, "budgeted batched");
    }

    #[test]
    fn shared_registry_reuse_hits_caches_across_fleet_runs() {
        // The registry-wide cache tier: a second fleet run against the
        // same registry rebuilds its power table entirely from shared
        // payload/ExecStats caches — and still produces the same bytes.
        // The counts are exact: the plan makes one payload lookup and
        // one ExecStats lookup per (SKU, class), 5 job classes on 2 SKUs,
        // however many P-states a class spans.
        let sim = small_fleet();
        let registry = EngineRegistry::with_seed(sim.config.seed);
        let first = sim.run_with(&registry);
        let counts = |s: &RegistryStats| {
            (
                (s.payload_hits, s.payload_misses),
                (s.exec_hits, s.exec_misses),
            )
        };
        assert_eq!(counts(&first.registry), ((0, 10), (0, 10)), "cold registry");
        let second = sim.run_with(&registry);
        assert_eq!(bits(&first.samples), bits(&second.samples));
        assert_eq!(
            counts(&second.registry),
            ((10, 10), (10, 10)),
            "the warm run re-serves every payload and functional pass"
        );
    }

    #[test]
    fn one_registry_serves_every_fleet_seed_from_the_same_passes() {
        // The engine seed sets only the initial values of a payload's
        // functional pass, and under `InitScheme::V2Safe` no payload a
        // fleet reaches has a trivial lane-op whatever those values are.
        // So one default-seeded registry gives every fleet seed the
        // bytes a registry seeded like the fleet gives, and a new fleet
        // seed reruns no pass.
        let shared = EngineRegistry::new();
        for seed in [0, 7, 0xF1EE7, u64::MAX] {
            for temporal in [TemporalMode::Iid, TemporalMode::Episodes] {
                let sim = FleetSim::new(FleetConfig {
                    samples_per_node: 60,
                    seed,
                    temporal,
                    ..FleetConfig::taurus_haswell_scaled(24)
                });
                let own = sim.run_with(&EngineRegistry::with_seed(seed));
                let run = sim.run_with(&shared);
                assert_runs_identical(&own, &run, &format!("seed {seed:#x}, {temporal:?}"));
            }
        }
        let stats = shared.stats();
        assert_eq!(stats.engines, 2);
        assert_eq!(stats.payload_misses, 10, "5 job classes on 2 SKUs");
        assert_eq!(stats.exec_misses, 10, "one functional pass per payload");
    }

    #[test]
    fn collapsed_pick_chain_matches_reference_scan() {
        // Exhaustive cross-check of the threshold collapse against the
        // reference subtract/compare chain on many draws and several
        // weight sets, including awkward ones (tiny trailing weights,
        // sums above/below 1, rounding-hostile magnitudes).
        let weight_sets: &[&[f64]] = &[
            &[0.30, 0.25, 0.22, 0.20, 0.03],
            &[0.1, 0.1, 0.1],
            &[1e-3, 0.9, 1e-9],
            &[0.7, 0.1 + 1e-16, 0.2],
            &[0.2; 7],
            &[f64::MIN_POSITIVE, 0.5, f64::MIN_POSITIVE],
        ];
        for (si, weights) in weight_sets.iter().enumerate() {
            let total: f64 = weights.iter().sum();
            let thresholds = collapse_pick_chain(weights, total);
            assert!(
                thresholds.windows(2).all(|w| w[0] <= w[1]),
                "set {si}: thresholds not sorted: {thresholds:?}"
            );
            let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ si as u64);
            for _ in 0..20_000 {
                let x = rng.gen_unit() * total;
                // Reference `pick_weighted` chain.
                let mut rx = x;
                let mut expected = weights.len();
                for (j, &w) in weights.iter().enumerate() {
                    if rx < w {
                        expected = j;
                        break;
                    }
                    rx -= w;
                }
                let counted = thresholds.iter().filter(|&&t| x >= t).count();
                assert_eq!(
                    counted.min(weights.len()),
                    expected.min(weights.len()),
                    "set {si}, draw {x:e}: collapse diverged from the chain"
                );
            }
        }
    }

    #[test]
    fn shard_ranges_tile_the_node_range() {
        for &(total, shards) in &[
            (64u32, 1usize),
            (64, 2),
            (64, 7),
            (64, 64),
            (64, 100),
            (5, 3),
            (1, 8),
            (0, 4),
        ] {
            let ranges = shard_ranges(total, shards);
            let mut expected = 0u32;
            for &(lo, hi) in &ranges {
                assert_eq!(lo, expected, "{total} nodes / {shards} shards: gap");
                assert!(hi >= lo);
                expected = hi;
            }
            assert_eq!(expected, total, "{total} nodes / {shards} shards: cover");
            if total > 0 {
                assert!(ranges.iter().all(|&(lo, hi)| hi > lo), "empty shard");
                let sizes: Vec<u32> = ranges.iter().map(|&(lo, hi)| hi - lo).collect();
                let (min, max) = (*sizes.iter().min().unwrap(), *sizes.iter().max().unwrap());
                assert!(max - min <= 1, "unbalanced split: {sizes:?}");
            }
        }
    }

    fn assert_optional_stats_identical(a: &FleetRun, b: &FleetRun, label: &str) {
        match (&a.episodes, &b.episodes) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.states, y.states, "{label}: episode states");
                assert_eq!(
                    bits(&x.empirical_shares),
                    bits(&y.empirical_shares),
                    "{label}: empirical shares"
                );
                assert_eq!(
                    bits(&x.mean_dwell_ticks),
                    bits(&y.mean_dwell_ticks),
                    "{label}: mean dwells"
                );
                assert_eq!(
                    x.lag1_autocorr.to_bits(),
                    y.lag1_autocorr.to_bits(),
                    "{label}: lag-1 autocorrelation"
                );
            }
            _ => panic!("{label}: episode stats presence diverged"),
        }
        match (&a.budget, &b.budget) {
            (None, None) => {}
            (Some(x), Some(y)) => {
                assert_eq!(x.ticks, y.ticks, "{label}: arbitrated ticks");
                assert_eq!(
                    x.peak_fleet_w.to_bits(),
                    y.peak_fleet_w.to_bits(),
                    "{label}: peak draw"
                );
                assert_eq!(
                    x.mean_fleet_w.to_bits(),
                    y.mean_fleet_w.to_bits(),
                    "{label}: mean draw"
                );
                assert_eq!(x.shed_ticks, y.shed_ticks, "{label}: shed ticks");
                assert_eq!(x.deferred_ticks, y.deferred_ticks, "{label}: deferrals");
                assert_eq!(
                    x.truncated_proposals, y.truncated_proposals,
                    "{label}: truncations"
                );
            }
            _ => panic!("{label}: budget stats presence diverged"),
        }
    }

    #[test]
    fn sharded_run_is_bitwise_identical_for_any_split() {
        // The shard layer's contract: every split of the node range
        // merges back to the bytes of the per-node oracle — samples,
        // CDF, episode stats, and budget stats — because each node's
        // walk is a pure function of `(seed, node_id)`.
        let configs: Vec<(&str, FleetConfig)> = vec![
            (
                "iid fast path",
                FleetConfig {
                    samples_per_node: 300,
                    ..FleetConfig::taurus_haswell_scaled(63)
                },
            ),
            (
                "episodes",
                FleetConfig {
                    samples_per_node: 300,
                    temporal: TemporalMode::Episodes,
                    ..FleetConfig::taurus_haswell_scaled(63)
                },
            ),
            (
                "budgeted iid + cap",
                FleetConfig {
                    samples_per_node: 200,
                    budget_w: Some(63.0 * 180.0),
                    power_cap_w: Some(250.0),
                    ..FleetConfig::taurus_haswell_scaled(63)
                },
            ),
            (
                "hand-built mix, budgeted iid + cap",
                FleetConfig {
                    samples_per_node: 200,
                    mix: hand_built_mix(),
                    budget_w: Some(63.0 * 150.0),
                    budget_policy: BudgetPolicy::Defer,
                    power_cap_w: Some(250.0),
                    ..FleetConfig::taurus_haswell_scaled(63)
                },
            ),
            (
                // Every class at P-states 0-2 under 260 W: `idle` is over
                // the cap at P0 and under it at both P1 and P2, so the
                // cap must pick the higher-power admissible point.
                "every P-state, iid + cap",
                FleetConfig {
                    samples_per_node: 200,
                    mix: JobMix::new(
                        JobMix::taurus_haswell()
                            .classes()
                            .iter()
                            .map(|&(c, w)| {
                                (
                                    JobClass {
                                        pstates: &[0, 1, 2],
                                        ..c
                                    },
                                    w,
                                )
                            })
                            .collect(),
                    ),
                    power_cap_w: Some(260.0),
                    ..FleetConfig::taurus_haswell_scaled(63)
                },
            ),
        ];
        for (label, cfg) in configs {
            let sim = FleetSim::new(cfg);
            let reference = run_reference(&sim);
            let ref_cdf = PowerCdf::from_samples(&reference.samples, 0.1);
            for shards in [1usize, 2, 7, 64] {
                let ranges = shard_ranges(sim.config.total_nodes(), shards);
                let sharded = run_sharded(&sim, &ranges);
                let tag = format!("{label}, {shards} shards");
                assert_runs_identical(&reference, &sharded, &tag);
                assert_optional_stats_identical(&reference, &sharded, &tag);
                let cdf = PowerCdf::from_samples(&sharded.samples, 0.1);
                assert_eq!(ref_cdf.bins, cdf.bins, "{tag}: CDF bins diverged");
            }
        }
    }

    #[test]
    fn uneven_hand_built_shards_merge_identically() {
        // try_merge_shards accepts any tiling in any order;
        // deliberately lopsided out-of-order ranges must still
        // reassemble the oracle's bytes.
        for sim in [small_fleet(), small_episode_fleet()] {
            let reference = run_reference(&sim);
            let merged = run_sharded(&sim, &[(13, 64), (0, 1), (1, 13)]);
            assert_runs_identical(&reference, &merged, "uneven shards");
            assert_optional_stats_identical(&reference, &merged, "uneven shards");
        }
    }

    #[test]
    fn merge_rejects_gapped_shards() {
        let sim = small_fleet();
        let registry = EngineRegistry::with_seed(sim.config.seed);
        let plan = sim.plan(&registry);
        let shards = vec![sim.run_shard(&plan, 0, 10), sim.run_shard(&plan, 20, 64)];
        let err = sim
            .try_merge_shards(&registry, &plan, shards)
            .expect_err("a gap must not merge");
        assert_eq!(err.expected_lo, 10);
        assert_eq!(err.found_lo, Some(20));
        assert!(err.to_string().contains("do not tile"), "{err}");
        // Coverage that stops short is an error too.
        let short = vec![sim.run_shard(&plan, 0, 63)];
        let err = sim
            .try_merge_shards(&registry, &plan, short)
            .expect_err("a short tiling must not merge");
        assert_eq!((err.expected_lo, err.found_lo), (63, None));
    }

    #[test]
    fn total_samples_overflow_is_an_error_not_a_wrap() {
        // A service request for u32::MAX nodes × u32::MAX samples each
        // exceeds usize::MAX on every target; try_total_samples must
        // surface that instead of wrapping (the admission layer turns
        // it into a reject).
        let cfg = FleetConfig {
            groups: vec![
                NodeGroup {
                    sku: fs2_arch::Sku::intel_xeon_e5_2680_v3(),
                    nodes: u32::MAX,
                    samples_per_node: Some(u32::MAX),
                },
                NodeGroup {
                    sku: fs2_arch::Sku::intel_xeon_e5_2695_v3(),
                    nodes: u32::MAX,
                    samples_per_node: Some(u32::MAX),
                },
            ],
            ..FleetConfig::taurus_haswell_scaled(1)
        };
        let err = cfg.try_total_samples().expect_err("must overflow");
        assert_eq!(err.total, 2 * (u128::from(u32::MAX) * u128::from(u32::MAX)));
        assert!(err.to_string().contains("more than usize::MAX"));
        // Sane configs round-trip through the checked path.
        let ok = FleetConfig::taurus_haswell_scaled(612);
        assert_eq!(ok.try_total_samples().unwrap(), ok.total_samples());
    }
}
