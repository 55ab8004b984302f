//! # fs2-cluster — node-fleet power simulation
//!
//! Fig. 1 of the paper shows the cumulative distribution of power
//! consumption of 612 Haswell nodes of the Taurus HPC system over one
//! year (1 Sa/s per node, aggregated to 60 s means, 0.1 W bins): most of
//! the time the power budget is unused, with a steep idle shoulder
//! between 50 W and 100 W and a maximum of 359.9 W — the argument for why
//! worst-case stress tests matter to infrastructure designers.
//!
//! The production trace is not available, so [`fleet`] *clones* the
//! workload instead of fitting a distribution: every node owns a seat in
//! a heterogeneous fleet whose SKUs share real `fs2_core::Engine`s
//! through an `EngineRegistry`. Per 60 s sample, a [`jobs::JobClass`] is
//! drawn from the [`jobs::JobMix`], its payload spec is evaluated through
//! `Engine::eval` at a drawn P-state, and the sample power is the
//! duty-cycled mix of that payload power and the node's idle floor. The
//! CDF pipeline (60 s aggregation, 0.1 W binning) is identical to the
//! paper's, and the sharded fan-out (`FleetSim::plan` →
//! `FleetSim::run_shard` → `FleetSim::try_merge_shards`) is
//! bitwise-identical to a serial pass.
//!
//! On top of the i.i.d. per-node-minute sampler, [`episodes`] adds the
//! temporal structure real traces show: a semi-Markov model whose
//! states are the idle floor plus the job classes, with geometric
//! dwell times (in 60 s ticks), ramp-in profiles and per-episode
//! operating points. [`fleet::TemporalMode`] selects the sampler;
//! [`fleet::FleetConfig::power_cap_w`] adds a power-capping what-if
//! hook clamping draws to the highest admissible P-state.
//!
//! [`budget`] models facility-level power management on top of the
//! per-node cap: [`fleet::FleetConfig::budget_w`] caps the fleet-wide
//! *sum* of node draws per 60 s tick, with a pluggable
//! [`budget::BudgetPolicy`] that sheds denied node-minutes to the idle
//! floor or defers the episode's remaining ticks. Generation is a
//! tick-synchronous propose → arbitrate pass: shards propose straight
//! into one buffer, and the serial arbiter writes the emitted samples
//! over the proposals, node by node. It stays bitwise-identical across
//! thread counts and byte-stable when no budget is set.

pub mod budget;
pub mod episodes;
pub mod fleet;
pub mod jobs;

pub use budget::{Arbitration, BudgetPolicy, NodeStream};
pub use episodes::{EpisodeModel, EpisodeWalk, Tick};
pub use fleet::{
    pooled_lag1_autocorr, shard_ranges, BudgetStats, ClassPower, EpisodeStats, FleetConfig,
    FleetPlan, FleetRun, FleetShard, FleetSim, FleetSizeError, NodeGroup, PowerCdf,
    ShardTilingError, TemporalMode,
};
pub use jobs::{JobClass, JobMix};
