//! # fs2-sim — analytic processor simulator
//!
//! The paper evaluates FIRESTARTER 2 on physical AMD Rome and Intel
//! Haswell nodes. This crate is the reproduction's hardware substitute: a
//! deterministic, steady-state model of exactly the mechanisms the paper's
//! experiments exercise (see DESIGN.md §2):
//!
//! * [`kernel`] — the executable form of a generated payload: the
//!   instruction sequence of one loop iteration plus which memory level
//!   each access targets.
//! * [`core`] — per-core steady-state pipeline model: front-end fetch
//!   source and width, back-end port pressure, per-level memory
//!   throughput with MLP/latency limits and shared-resource contention.
//!   Produces cycles-per-iteration, IPC and the bottleneck.
//! * [`exec`] — functional (value-level) executor over real `f64` register
//!   state. Tracks operand triviality (±∞, 0, NaN) for the
//!   data-dependent-power effect of §III-D, and provides register dump +
//!   error-check hashing.
//! * [`events`] — hardware-event counters equivalent to those the paper
//!   reads (instructions, cycles, µops by fetch source, data-cache
//!   accesses).
//! * [`system`] — whole-node symmetric execution: every active core runs
//!   the same kernel; shared L3/DRAM bandwidth is divided among them.
//! * [`clock`] — simulated nanosecond clock used by the runner and the
//!   metric infrastructure.
//!
//! The model is *analytic*: one evaluation is O(kernel length), which is
//! what makes embedding it inside an NSGA-II loop with thousands of
//! candidate evaluations practical.

pub mod clock;
pub mod core;
pub mod events;
pub mod exec;
pub mod kernel;
pub mod system;

pub use crate::core::{Bottleneck, CoreSteadyState};
pub use clock::SimClock;
pub use events::HwEvents;
pub use exec::{
    format_register_dump, run_functional, state_hash_of, DecodedKernel, ExecStats, Executor,
    FunctionalOutcome, InitScheme, LANES,
};
pub use kernel::{Kernel, TaggedInst};
pub use system::{NodeSteadyState, SystemSim};
