//! # fs2-service — fleet-as-a-service
//!
//! The paper's Fig. 1 fleet pipeline as a long-running, multi-tenant
//! service instead of a one-shot CLI action. Four layers, many callers:
//!
//! * [`proto`] — the request layer: [`proto::FleetRequest`] /
//!   [`proto::FleetReply`] with dependency-free JSON-lines framing
//!   ([`json`]); a reply holds the fleet's own CDF and episode
//!   statistics and is written in one pass, and 64-bit seeds and `f64`
//!   samples round-trip exactly, so a served reply is byte-comparable
//!   to a local run.
//! * [`admission`] — the control layer: per-request node·sample cost
//!   estimates, a bounded wait queue, and a queue/shed/reject policy
//!   so floods of requests degrade gracefully instead of OOMing.
//! * [`service::FleetService`] — the shard layer: each request's node
//!   range splits into shards that `FleetSim::run_shard` proposes on
//!   the scoped fan-out ([`fs2_core::fan_out`]), the caller's thread
//!   among the workers, and merges back bitwise-identically to the
//!   serial result.
//! * the engine layer stays `fs2-core`'s [`fs2_core::EngineRegistry`]:
//!   one registry plans every request, whatever its seed (a fleet's
//!   seed keys only its node streams), and the cross-request hit rates
//!   surface in every reply.
//!
//! In-process callers, the CLI's `--fleet` among them, call
//! [`service::FleetService::handle`] with a typed request and read the
//! typed reply; JSON is spoken only at the one transport, [`tcp`]
//! (plain TCP JSON-lines, the CLI's `--serve`/`--connect`). A request
//! has one contract, [`proto::FleetRequest::validate`]: `handle` checks
//! it for typed and decoded requests alike, and a request that breaks
//! it gets a `bad-request` reply before admission counts it.
//!
//! A fault-tolerance layer cuts across all of it: every shard task runs
//! under `catch_unwind`, so a panic is counted and typed as a
//! [`service::ShardError`] in its own slot, requests carry optional
//! completion deadlines, checked at admission, before each shard and
//! after the merge ([`timing`] is the lone clock seam), the TCP
//! transport bounds line length / read stalls / connection count and
//! drains connections on shutdown, clients reconnect-and-retry on a
//! deterministic backoff schedule, and a seeded [`chaos`] harness
//! injects shard panics, dropped replies and shard latency at
//! reproducible points to prove all of the above.

pub mod admission;
pub mod chaos;
pub mod json;
pub mod proto;
pub mod service;
pub mod tcp;
pub mod timing;

pub use admission::{AdmissionConfig, AdmissionError, AdmissionStats, Gate, Permit};
pub use chaos::{ChaosConfig, ChaosState};
pub use json::{Json, JsonError};
pub use proto::{BudgetWire, FleetReply, FleetRequest, ProtoError, RegistryWire};
pub use service::{FleetService, ServiceConfig, ShardError};
pub use tcp::{
    call, call_with_retry, serve, serve_with, Client, ClientError, RetryPolicy, Server,
    TransportConfig,
};
pub use timing::{Clock, ManualClock, WallClock};
