//! # fs2-core — FIRESTARTER 2
//!
//! The paper's primary contribution: runtime generation of
//! processor-specific stress workloads `ω = (I, u, M)` and an embedded
//! NSGA-II self-tuning loop over the memory accesses `M`.
//!
//! * [`groups`] — the access-group grammar of Eq. 1
//!   (`REG | {L1,L2,L3,RAM} × {L,S,LS,2LS,P} : count`), with the
//!   `--run-instruction-groups` string syntax.
//! * [`mod@distribute`] — the proportional interleaving of access groups into
//!   consecutive instruction sets ("distributed as good as possible"),
//!   then unrolled to `u` sets.
//! * [`mix`] — per-architecture instruction sets `I` (`--avail` /
//!   `--function`): the Haswell FMA mix used in the paper's Zen 2 case
//!   study, an AVX fallback, and the deliberately low-power `sqrtsd` loop.
//! * [`payload`] — the AsmJit-equivalent backend: turns `(I, u, M)` into
//!   a tagged simulator kernel *and* real x86-64 machine code.
//! * [`runner`] — workload execution on simulated time: EDC-aware
//!   frequency solve, power/IPC/trace recording, measurement windows with
//!   start/stop deltas, register dump and error detection (§III-D).
//! * [`engine`] — the reusable payload-to-power pipeline: a per-SKU
//!   [`Engine`] memoizes payload builds keyed by `(I, u, M)`, hands out
//!   measurement [`Session`]s, evaluates traceless sweeps, and fans
//!   work queues out over threads ([`Engine::sweep`]). The CLI and the
//!   fig/table experiments route through it; the NSGA-II loop builds
//!   its single-use candidates outside the caches.
//! * [`fan_out`] — the one scoped fan-out: an input-ordered parallel map
//!   over a claim-by-index queue, behind [`Engine::sweep`] and the
//!   cluster fleet's shard pass ([`resolve_threads`] maps `0` threads
//!   to one per host core).
//! * [`registry`] — the cross-SKU layer above the engines: an
//!   [`EngineRegistry`] owns one [`Engine`] per SKU and gives them one
//!   shared cache tier, feeding heterogeneous sweeps (the cluster
//!   fleet) from one set of caches.
//! * [`autotune`] — the §III-C optimization loop wiring NSGA-II to the
//!   runner and metrics, gap-free between candidates (Fig. 7).
//! * [`legacy`] — FIRESTARTER 1.x behaviour: fixed per-SKU workloads, the
//!   v1.7.4 ±∞ initialization bug, and the recompile-per-candidate tuning
//!   prototype whose idle gaps Fig. 6 shows.

pub mod autotune;
pub mod distribute;
pub mod engine;
mod fanout;
pub mod groups;
pub mod legacy;
pub mod mix;
pub mod payload;
pub mod registry;
pub mod runner;

pub use autotune::{AutoTuner, TuneConfig, TuneResult};
pub use distribute::{distribute, unroll_sequence};
pub use engine::{CacheStats, Engine, EngineCaches, Session};
pub use fanout::{fan_out, resolve_threads};
pub use groups::{parse_groups, AccessGroup, GroupParseError, Pattern, Target};
pub use mix::{InstructionMix, MixRegistry};
pub use payload::{default_unroll, Payload, PayloadConfig};
pub use registry::{EngineRegistry, RegistryStats};
pub use runner::{RunConfig, RunResult, Runner};

// Re-exported so registry-level consumers (the cluster fleet) can name
// the init scheme of `Engine::eval_points` without a direct fs2-sim
// dependency.
pub use fs2_sim::InitScheme;
