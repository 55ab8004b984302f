//! Wire protocol of the fleet service: [`FleetRequest`] in,
//! [`FleetReply`] out, one JSON object per line.
//!
//! The request mirrors the CLI's `--fleet` knobs (node count, samples
//! per node, seed, temporal mode, caps, budget) plus service-side
//! controls (shard count, which artifacts to return). The reply
//! carries everything the CLI printer shows for a one-shot run —
//! samples, registry counters, cap/budget/episode telemetry — so a
//! remote client renders byte-identical output to the local path.
//!
//! Floats and 64-bit seeds round-trip exactly (see [`crate::json`]),
//! which is what makes the CI smoke diff of served-vs-local samples
//! meaningful.

use crate::json::Json;
use fs2_calib::FleetProfile;
use fs2_cluster::{BudgetPolicy, FleetConfig, TemporalMode};
use std::fmt;

/// A malformed or unsupported request/reply line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError(pub String);

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ProtoError {}

fn perr(msg: impl Into<String>) -> ProtoError {
    ProtoError(msg.into())
}

/// An optional request field: absent or `null` is `None`; any other
/// value must convert through `as_t`, or the request fails naming
/// `what` the field must be.
fn opt_field<'a, T>(
    v: &'a Json,
    key: &str,
    as_t: impl Fn(&'a Json) -> Option<T>,
    what: &str,
) -> Result<Option<T>, ProtoError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(j) => as_t(j)
            .map(Some)
            .ok_or_else(|| perr(format!("`{key}` must be {what}"))),
    }
}

/// One fleet-simulation request.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    /// Total fleet size; expanded via the Taurus SKU ratio like the
    /// CLI's `--nodes`.
    pub nodes: u32,
    pub samples_per_node: u32,
    /// `None` uses the Fig. 1 seed, like the CLI without `--seed`.
    pub seed: Option<u64>,
    pub temporal: TemporalMode,
    pub power_cap_w: Option<f64>,
    pub budget_w: Option<f64>,
    pub budget_policy: BudgetPolicy,
    /// Shard count override; `None` leaves it to the service.
    pub shards: Option<usize>,
    /// Optional completion deadline, in milliseconds from admission.
    /// The gate rejects deadlines its throughput estimate cannot meet
    /// ([`kind::ADMISSION_DEADLINE`]); an admitted request that still
    /// overruns degrades to a typed [`kind::DEADLINE_EXCEEDED`] reply
    /// at the next between-shards check.
    pub deadline_ms: Option<u64>,
    /// Return the raw 60 s-mean samples (the big artifact).
    pub want_samples: bool,
    /// Return the binned 0.1 W CDF.
    pub want_cdf: bool,
    /// Calibrated fleet profile to drive the run (forces episode
    /// mode). Travels on the wire as the canonical profile text, so
    /// a `--calibrate` artifact can be served verbatim; malformed
    /// profile text is rejected at decode time with the
    /// `ProfileError` message.
    pub profile: Option<FleetProfile>,
}

impl FleetRequest {
    /// The Fig. 1 pipeline as a request (612 nodes, default seed).
    pub fn fig1() -> FleetRequest {
        FleetRequest {
            nodes: 612,
            samples_per_node: 2000,
            seed: None,
            temporal: TemporalMode::Iid,
            power_cap_w: None,
            budget_w: None,
            budget_policy: BudgetPolicy::default(),
            shards: None,
            deadline_ms: None,
            want_samples: true,
            want_cdf: false,
            profile: None,
        }
    }

    /// Expands the request into the simulator configuration, exactly
    /// like the CLI builds one from its flags.
    pub fn to_config(&self) -> FleetConfig {
        let mut cfg = FleetConfig::taurus_haswell_scaled(self.nodes);
        cfg.samples_per_node = self.samples_per_node;
        cfg.temporal = self.temporal;
        cfg.power_cap_w = self.power_cap_w;
        cfg.budget_w = self.budget_w;
        cfg.budget_policy = self.budget_policy;
        if let Some(seed) = self.seed {
            cfg.seed = seed;
        }
        if let Some(profile) = &self.profile {
            profile.apply(&mut cfg);
        }
        cfg
    }

    pub fn to_json(&self) -> Json {
        let opt_f64 = |v: Option<f64>| v.map(Json::of_f64).unwrap_or(Json::Null);
        Json::obj()
            .set("type", Json::of_str("fleet"))
            .set("nodes", Json::of_u64(u64::from(self.nodes)))
            .set(
                "samples_per_node",
                Json::of_u64(u64::from(self.samples_per_node)),
            )
            .set("seed", self.seed.map(Json::of_u64).unwrap_or(Json::Null))
            .set(
                "temporal",
                Json::of_str(match self.temporal {
                    TemporalMode::Iid => "iid",
                    TemporalMode::Episodes => "episodes",
                }),
            )
            .set("cap_w", opt_f64(self.power_cap_w))
            .set("budget_w", opt_f64(self.budget_w))
            .set(
                "budget_policy",
                Json::of_str(match self.budget_policy {
                    BudgetPolicy::ShedToFloor => "shed",
                    BudgetPolicy::Defer => "defer",
                }),
            )
            .set(
                "shards",
                self.shards.map(Json::of_usize).unwrap_or(Json::Null),
            )
            .set(
                "deadline_ms",
                self.deadline_ms.map(Json::of_u64).unwrap_or(Json::Null),
            )
            .set("want_samples", Json::of_bool(self.want_samples))
            .set("want_cdf", Json::of_bool(self.want_cdf))
            .set(
                "profile",
                self.profile
                    .as_ref()
                    .map(|p| Json::of_str(&p.to_text()))
                    .unwrap_or(Json::Null),
            )
    }

    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    pub fn from_json(v: &Json) -> Result<FleetRequest, ProtoError> {
        match v.get("type").and_then(Json::as_str) {
            Some("fleet") => {}
            Some(other) => return Err(perr(format!("unknown request type `{other}`"))),
            None => return Err(perr("missing request type")),
        }
        let u32_field = |key: &str, default: u32| -> Result<u32, ProtoError> {
            match v.get(key) {
                None => Ok(default),
                Some(j) => j
                    .as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| perr(format!("`{key}` must be a u32"))),
            }
        };
        let opt_f64 = |key: &str| -> Result<Option<f64>, ProtoError> {
            let w = opt_field(v, key, Json::as_f64, "a number")?;
            if w.is_some_and(|w| !w.is_finite() || w <= 0.0) {
                return Err(perr(format!("`{key}` must be a positive wattage")));
            }
            Ok(w)
        };
        let nodes = u32_field("nodes", 612)?;
        if nodes == 0 {
            return Err(perr("`nodes` must be at least 1"));
        }
        let samples_per_node = u32_field("samples_per_node", 2000)?;
        if samples_per_node == 0 {
            return Err(perr("`samples_per_node` must be at least 1"));
        }
        let seed = opt_field(v, "seed", Json::as_u64, "a u64")?;
        let temporal = match opt_field(v, "temporal", Json::as_str, "a string")? {
            None | Some("iid") => TemporalMode::Iid,
            Some("episodes") => TemporalMode::Episodes,
            Some(other) => return Err(perr(format!("unknown temporal mode `{other}`"))),
        };
        let budget_policy = match opt_field(v, "budget_policy", Json::as_str, "a string")? {
            None | Some("shed") | Some("shed-to-floor") => BudgetPolicy::ShedToFloor,
            Some("defer") => BudgetPolicy::Defer,
            Some(other) => return Err(perr(format!("unknown budget policy `{other}`"))),
        };
        let positive = "a positive integer";
        let shards = opt_field(v, "shards", |j| j.as_usize().filter(|&s| s > 0), positive)?;
        let deadline_ms = opt_field(
            v,
            "deadline_ms",
            |j| j.as_u64().filter(|&d| d > 0),
            positive,
        )?;
        let profile = match opt_field(v, "profile", Json::as_str, "a string")? {
            None => None,
            Some(text) => Some(
                FleetProfile::from_text(text).map_err(|e| perr(format!("bad `profile`: {e}")))?,
            ),
        };
        Ok(FleetRequest {
            nodes,
            samples_per_node,
            seed,
            temporal,
            power_cap_w: opt_f64("cap_w")?,
            budget_w: opt_f64("budget_w")?,
            budget_policy,
            shards,
            deadline_ms,
            want_samples: opt_field(v, "want_samples", Json::as_bool, "a boolean")?.unwrap_or(true),
            want_cdf: opt_field(v, "want_cdf", Json::as_bool, "a boolean")?.unwrap_or(false),
            profile,
        })
    }

    pub fn from_line(line: &str) -> Result<FleetRequest, ProtoError> {
        let v = Json::parse(line).map_err(|e| perr(e.to_string()))?;
        FleetRequest::from_json(&v)
    }
}

/// Engine-registry counters on the wire (the subset the CLI prints
/// plus the cross-request cache telemetry).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryWire {
    pub engines: usize,
    pub payload_hits: u64,
    pub payload_misses: u64,
    pub exec_hits: u64,
    pub exec_misses: u64,
    pub requests: u64,
    pub cross_payload_hits: u64,
    pub cross_payload_lookups: u64,
    pub cross_exec_hits: u64,
    pub cross_exec_lookups: u64,
}

impl RegistryWire {
    pub fn from_stats(s: &fs2_core::RegistryStats) -> RegistryWire {
        RegistryWire {
            engines: s.engines,
            payload_hits: s.payload_hits,
            payload_misses: s.payload_misses,
            exec_hits: s.exec_hits,
            exec_misses: s.exec_misses,
            requests: s.requests,
            cross_payload_hits: s.cross_payload_hits,
            cross_payload_lookups: s.cross_payload_lookups,
            cross_exec_hits: s.cross_exec_hits,
            cross_exec_lookups: s.cross_exec_lookups,
        }
    }

    pub fn cross_payload_hit_rate(&self) -> f64 {
        rate(self.cross_payload_hits, self.cross_payload_lookups)
    }

    pub fn cross_exec_hit_rate(&self) -> f64 {
        rate(self.cross_exec_hits, self.cross_exec_lookups)
    }

    fn to_json(self) -> Json {
        Json::obj()
            .set("engines", Json::of_usize(self.engines))
            .set("payload_hits", Json::of_u64(self.payload_hits))
            .set("payload_misses", Json::of_u64(self.payload_misses))
            .set("exec_hits", Json::of_u64(self.exec_hits))
            .set("exec_misses", Json::of_u64(self.exec_misses))
            .set("requests", Json::of_u64(self.requests))
            .set("cross_payload_hits", Json::of_u64(self.cross_payload_hits))
            .set(
                "cross_payload_lookups",
                Json::of_u64(self.cross_payload_lookups),
            )
            .set("cross_exec_hits", Json::of_u64(self.cross_exec_hits))
            .set("cross_exec_lookups", Json::of_u64(self.cross_exec_lookups))
    }

    fn from_json(v: &Json) -> RegistryWire {
        let u = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
        RegistryWire {
            engines: v.get("engines").and_then(Json::as_usize).unwrap_or(0),
            payload_hits: u("payload_hits"),
            payload_misses: u("payload_misses"),
            exec_hits: u("exec_hits"),
            exec_misses: u("exec_misses"),
            requests: u("requests"),
            cross_payload_hits: u("cross_payload_hits"),
            cross_payload_lookups: u("cross_payload_lookups"),
            cross_exec_hits: u("cross_exec_hits"),
            cross_exec_lookups: u("cross_exec_lookups"),
        }
    }
}

fn rate(hits: u64, lookups: u64) -> f64 {
    if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    }
}

/// Budget-arbitration telemetry on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetWire {
    pub budget_w: f64,
    /// `BudgetPolicy::name()` of the policy that ran.
    pub policy: String,
    pub ticks: usize,
    pub peak_fleet_w: f64,
    pub mean_fleet_w: f64,
    pub shed_ticks: Vec<u64>,
    pub deferred_ticks: Vec<u64>,
    pub truncated_proposals: u64,
    pub infeasible_floor_ticks: u64,
    /// 95th percentile of per-tick budget utilization.
    pub util_p95: f64,
    pub states: Vec<String>,
}

/// Episode-statistics telemetry on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct EpisodeWire {
    pub states: Vec<String>,
    pub empirical_shares: Vec<f64>,
    pub model_shares: Vec<f64>,
    pub mean_dwell_ticks: Vec<f64>,
    pub lag1_autocorr: f64,
}

/// The 0.1 W-binned CDF on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfWire {
    /// `(bin_upper_edge_w, cumulative_fraction)` pairs, ascending.
    pub bins: Vec<(f64, f64)>,
    pub min_w: f64,
    pub max_w: f64,
    pub samples: usize,
}

/// Machine-readable failure kinds carried in
/// [`FleetReply::error_kind`], so clients and the CLI can branch on
/// *why* a request failed without parsing prose.
pub mod kind {
    /// The request line failed to decode or validate.
    pub const BAD_REQUEST: &str = "bad-request";
    /// Shed at the gate: active slots and queue both full.
    pub const ADMISSION_BUSY: &str = "admission-busy";
    /// Rejected at the gate: cost above the per-request limit.
    pub const ADMISSION_OVERSIZE: &str = "admission-oversize";
    /// Rejected at the gate: deadline unmeetable at estimated cost.
    pub const ADMISSION_DEADLINE: &str = "admission-deadline";
    /// Admitted, but the deadline expired between shards.
    pub const DEADLINE_EXCEEDED: &str = "deadline-exceeded";
    /// A shard task panicked; the service caught it in its slot.
    pub const SHARD_PANIC: &str = "shard-panic";
    /// The shard set failed to merge (should never happen; typed so
    /// it degrades to a reply instead of a crashed thread if it does).
    pub const SHARD_MERGE: &str = "shard-merge";
    /// Transport: a request line exceeded the length bound.
    pub const LINE_TOO_LONG: &str = "transport-line-too-long";
    /// Transport: the peer stalled past the read-timeout budget.
    pub const PEER_STALLED: &str = "transport-peer-stalled";
    /// Transport: the server is at its connection cap.
    pub const OVER_CAPACITY: &str = "transport-over-capacity";
}

/// The service's shard-panic counter on the wire.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolWire {
    /// Shard-task panics caught over the service's lifetime.
    pub panics_caught: u64,
}

impl PoolWire {
    fn to_json(self) -> Json {
        Json::obj().set("panics_caught", Json::of_u64(self.panics_caught))
    }

    fn from_json(v: &Json) -> PoolWire {
        PoolWire {
            panics_caught: v.get("panics_caught").and_then(Json::as_u64).unwrap_or(0),
        }
    }
}

/// One fleet-simulation reply (or a service-side rejection).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReply {
    pub ok: bool,
    /// Rejection/failure reason when `ok` is false.
    pub error: Option<String>,
    /// Machine-readable failure kind (one of the [`kind`] constants)
    /// when `ok` is false and the failure is typed.
    pub error_kind: Option<String>,
    /// The shard-panic counter at reply time (present whenever the
    /// request reached the shard layer).
    pub pool: Option<PoolWire>,
    /// Raw 60 s-mean samples (empty unless requested).
    pub samples: Vec<f64>,
    pub cdf: Option<CdfWire>,
    pub registry: RegistryWire,
    /// Operating points in the request's power table.
    pub power_points: usize,
    pub capped_points: usize,
    pub capped_samples: usize,
    pub infeasible_points: usize,
    pub budget: Option<BudgetWire>,
    pub episodes: Option<EpisodeWire>,
    /// Shards the request was actually split into.
    pub shards: usize,
}

impl FleetReply {
    pub fn failure(error: impl Into<String>) -> FleetReply {
        FleetReply {
            ok: false,
            error: Some(error.into()),
            error_kind: None,
            pool: None,
            samples: Vec::new(),
            cdf: None,
            registry: RegistryWire::default(),
            power_points: 0,
            capped_points: 0,
            capped_samples: 0,
            infeasible_points: 0,
            budget: None,
            episodes: None,
            shards: 0,
        }
    }

    /// A typed failure: like [`FleetReply::failure`] plus one of the
    /// [`kind`] constants for machine-readable branching.
    pub fn failure_kind(kind: &str, error: impl Into<String>) -> FleetReply {
        FleetReply {
            error_kind: Some(kind.to_string()),
            ..FleetReply::failure(error)
        }
    }

    pub fn to_json(&self) -> Json {
        let strs = |v: &[String]| Json::Arr(v.iter().map(|s| Json::of_str(s)).collect());
        let mut out = Json::obj()
            .set("type", Json::of_str("reply"))
            .set("ok", Json::of_bool(self.ok));
        if let Some(e) = &self.error {
            out = out.set("error", Json::of_str(e));
        }
        if let Some(k) = &self.error_kind {
            out = out.set("error_kind", Json::of_str(k));
        }
        if let Some(p) = &self.pool {
            out = out.set("pool", p.to_json());
        }
        out = out
            .set("samples", Json::of_f64s(&self.samples))
            .set("registry", self.registry.to_json())
            .set("power_points", Json::of_usize(self.power_points))
            .set("capped_points", Json::of_usize(self.capped_points))
            .set("capped_samples", Json::of_usize(self.capped_samples))
            .set("infeasible_points", Json::of_usize(self.infeasible_points))
            .set("shards", Json::of_usize(self.shards));
        if let Some(c) = &self.cdf {
            let bins = c
                .bins
                .iter()
                .map(|&(w, f)| Json::Arr(vec![Json::of_f64(w), Json::of_f64(f)]))
                .collect();
            out = out.set(
                "cdf",
                Json::obj()
                    .set("bins", Json::Arr(bins))
                    .set("min_w", Json::of_f64(c.min_w))
                    .set("max_w", Json::of_f64(c.max_w))
                    .set("samples", Json::of_usize(c.samples)),
            );
        }
        if let Some(b) = &self.budget {
            out = out.set(
                "budget",
                Json::obj()
                    .set("budget_w", Json::of_f64(b.budget_w))
                    .set("policy", Json::of_str(&b.policy))
                    .set("ticks", Json::of_usize(b.ticks))
                    .set("peak_fleet_w", Json::of_f64(b.peak_fleet_w))
                    .set("mean_fleet_w", Json::of_f64(b.mean_fleet_w))
                    .set("shed_ticks", Json::of_u64s(&b.shed_ticks))
                    .set("deferred_ticks", Json::of_u64s(&b.deferred_ticks))
                    .set("truncated_proposals", Json::of_u64(b.truncated_proposals))
                    .set(
                        "infeasible_floor_ticks",
                        Json::of_u64(b.infeasible_floor_ticks),
                    )
                    .set("util_p95", Json::of_f64(b.util_p95))
                    .set("states", strs(&b.states)),
            );
        }
        if let Some(e) = &self.episodes {
            out = out.set(
                "episodes",
                Json::obj()
                    .set("states", strs(&e.states))
                    .set("empirical_shares", Json::of_f64s(&e.empirical_shares))
                    .set("model_shares", Json::of_f64s(&e.model_shares))
                    .set("mean_dwell_ticks", Json::of_f64s(&e.mean_dwell_ticks))
                    .set("lag1_autocorr", Json::of_f64(e.lag1_autocorr)),
            );
        }
        out
    }

    pub fn to_line(&self) -> String {
        self.to_json().to_line()
    }

    pub fn from_line(line: &str) -> Result<FleetReply, ProtoError> {
        let v = Json::parse(line).map_err(|e| perr(e.to_string()))?;
        match v.get("type").and_then(Json::as_str) {
            Some("reply") => {}
            _ => return Err(perr("not a reply line")),
        }
        let strs = |j: &Json| -> Vec<String> {
            j.as_arr()
                .map(|a| {
                    a.iter()
                        .filter_map(|v| v.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default()
        };
        let cdf = v.get("cdf").map(|c| {
            let bins = c
                .get("bins")
                .and_then(Json::as_arr)
                .map(|pairs| {
                    pairs
                        .iter()
                        .filter_map(|p| {
                            let p = p.as_arr()?;
                            Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
                        })
                        .collect()
                })
                .unwrap_or_default();
            CdfWire {
                bins,
                min_w: c.get("min_w").and_then(Json::as_f64).unwrap_or(0.0),
                max_w: c.get("max_w").and_then(Json::as_f64).unwrap_or(0.0),
                samples: c.get("samples").and_then(Json::as_usize).unwrap_or(0),
            }
        });
        let budget = v.get("budget").map(|b| {
            let u64s = |k: &str| b.get(k).and_then(Json::u64s).unwrap_or_default();
            let f = |k: &str| b.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            BudgetWire {
                budget_w: f("budget_w"),
                policy: b
                    .get("policy")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string(),
                ticks: b.get("ticks").and_then(Json::as_usize).unwrap_or(0),
                peak_fleet_w: f("peak_fleet_w"),
                mean_fleet_w: f("mean_fleet_w"),
                shed_ticks: u64s("shed_ticks"),
                deferred_ticks: u64s("deferred_ticks"),
                truncated_proposals: b
                    .get("truncated_proposals")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                infeasible_floor_ticks: b
                    .get("infeasible_floor_ticks")
                    .and_then(Json::as_u64)
                    .unwrap_or(0),
                util_p95: f("util_p95"),
                states: strs(b.get("states").unwrap_or(&Json::Null)),
            }
        });
        let episodes = v.get("episodes").map(|e| {
            let f64s = |k: &str| e.get(k).and_then(Json::f64s).unwrap_or_default();
            EpisodeWire {
                states: strs(e.get("states").unwrap_or(&Json::Null)),
                empirical_shares: f64s("empirical_shares"),
                model_shares: f64s("model_shares"),
                mean_dwell_ticks: f64s("mean_dwell_ticks"),
                lag1_autocorr: e.get("lag1_autocorr").and_then(Json::as_f64).unwrap_or(0.0),
            }
        });
        Ok(FleetReply {
            ok: v.get("ok").and_then(Json::as_bool).unwrap_or(false),
            error: v.get("error").and_then(Json::as_str).map(str::to_string),
            error_kind: v
                .get("error_kind")
                .and_then(Json::as_str)
                .map(str::to_string),
            pool: v.get("pool").map(PoolWire::from_json),
            samples: v
                .get("samples")
                .and_then(Json::f64s)
                .ok_or_else(|| perr("reply carries no samples array"))?,
            cdf,
            registry: v
                .get("registry")
                .map(RegistryWire::from_json)
                .unwrap_or_default(),
            power_points: v.get("power_points").and_then(Json::as_usize).unwrap_or(0),
            capped_points: v.get("capped_points").and_then(Json::as_usize).unwrap_or(0),
            capped_samples: v
                .get("capped_samples")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            infeasible_points: v
                .get("infeasible_points")
                .and_then(Json::as_usize)
                .unwrap_or(0),
            budget,
            episodes,
            shards: v.get("shards").and_then(Json::as_usize).unwrap_or(0),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips_exactly() {
        let req = FleetRequest {
            nodes: 63,
            samples_per_node: 321,
            seed: Some(u64::MAX - 7),
            temporal: TemporalMode::Episodes,
            power_cap_w: Some(250.5),
            budget_w: Some(9000.25),
            budget_policy: BudgetPolicy::Defer,
            shards: Some(7),
            deadline_ms: Some(1500),
            want_samples: false,
            want_cdf: true,
            profile: Some(FleetProfile::exemplar()),
        };
        let back = FleetRequest::from_line(&req.to_line()).unwrap();
        assert_eq!(req, back);
        // The profile survives the JSON string escaping byte-exactly.
        assert_eq!(
            back.profile.as_ref().unwrap().to_text(),
            FleetProfile::exemplar().to_text()
        );
        // Defaults: a minimal request is the Fig. 1 shape.
        let minimal = FleetRequest::from_line(r#"{"type":"fleet"}"#).unwrap();
        assert_eq!(minimal, FleetRequest::fig1());
    }

    #[test]
    fn request_validation_rejects_nonsense() {
        for bad in [
            r#"{"type":"quote"}"#,
            r#"{"type":"fleet","nodes":0}"#,
            r#"{"type":"fleet","samples_per_node":0}"#,
            r#"{"type":"fleet","temporal":"markov"}"#,
            r#"{"type":"fleet","cap_w":-3}"#,
            r#"{"type":"fleet","budget_w":0}"#,
            r#"{"type":"fleet","budget_policy":"auction"}"#,
            r#"{"type":"fleet","shards":0}"#,
            r#"{"type":"fleet","deadline_ms":0}"#,
            r#"{"type":"fleet","deadline_ms":-5}"#,
            r#"{"type":"fleet","seed":-1}"#,
            r#"{"type":"fleet","profile":7}"#,
            r##"{"type":"fleet","profile":"# wrong header\n"}"##,
            r#"{"type":"fleet","temporal":5}"#,
            r#"{"type":"fleet","budget_policy":1}"#,
            r#"{"type":"fleet","want_samples":"no"}"#,
            r#"{"type":"fleet","want_cdf":1}"#,
            "not json",
        ] {
            assert!(FleetRequest::from_line(bad).is_err(), "accepted {bad}");
        }
        // An explicit null keeps the field's default.
        let nulls =
            FleetRequest::from_line(r#"{"type":"fleet","temporal":null,"want_samples":null}"#)
                .unwrap();
        assert_eq!(nulls, FleetRequest::fig1());
        // The decode error names the profile parser's complaint.
        let err =
            FleetRequest::from_line(r##"{"type":"fleet","profile":"# wrong\n"}"##).unwrap_err();
        assert!(err.to_string().contains("bad `profile`"), "{err}");
    }

    #[test]
    fn profiled_request_forces_episode_mode() {
        let req = FleetRequest {
            temporal: TemporalMode::Iid,
            profile: Some(FleetProfile::exemplar()),
            ..FleetRequest::fig1()
        };
        let cfg = req.to_config();
        assert_eq!(cfg.temporal, TemporalMode::Episodes);
        // The episode model is the profile's, not the Taurus default.
        assert!((cfg.episodes.stationary_time_shares()[0] - 0.15).abs() < 1e-9);
    }

    #[test]
    fn reply_round_trips_sample_bits() {
        let reply = FleetReply {
            ok: true,
            error: None,
            error_kind: None,
            pool: Some(PoolWire { panics_caught: 3 }),
            samples: vec![83.25, 359.9, f64::from_bits(0x405526E41CAD1777)],
            cdf: Some(CdfWire {
                bins: vec![(100.0, 0.25), (360.0, 1.0)],
                min_w: 83.25,
                max_w: 359.9,
                samples: 3,
            }),
            registry: RegistryWire {
                engines: 2,
                payload_misses: 10,
                exec_hits: 5,
                cross_payload_hits: 3,
                cross_payload_lookups: 4,
                ..RegistryWire::default()
            },
            power_points: 40,
            capped_points: 1,
            capped_samples: 2,
            infeasible_points: 0,
            budget: Some(BudgetWire {
                budget_w: 1500.0,
                policy: "shed-to-floor".into(),
                ticks: 200,
                peak_fleet_w: 1499.5,
                mean_fleet_w: 1200.25,
                shed_ticks: vec![0, 4, 5],
                deferred_ticks: vec![0, 0, 0],
                truncated_proposals: 1,
                infeasible_floor_ticks: 0,
                util_p95: 0.99,
                states: vec!["floor".into(), "hpl".into()],
            }),
            episodes: Some(EpisodeWire {
                states: vec!["floor".into(), "hpl".into()],
                empirical_shares: vec![0.5, 0.5],
                model_shares: vec![0.4, 0.6],
                mean_dwell_ticks: vec![3.5, 7.25],
                lag1_autocorr: 0.42,
            }),
            shards: 7,
        };
        let back = FleetReply::from_line(&reply.to_line()).unwrap();
        assert_eq!(reply, back);
        assert_eq!(
            back.samples[2].to_bits(),
            0x405526E41CAD1777,
            "sample bits must survive the wire"
        );
        assert!((back.registry.cross_payload_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn failure_replies_carry_the_reason() {
        let line = FleetReply::failure("rejected: queue full").to_line();
        let back = FleetReply::from_line(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("rejected: queue full"));
        assert_eq!(back.error_kind, None, "untyped failures stay untyped");
    }

    #[test]
    fn typed_failures_round_trip_kind_and_pool_counters() {
        let mut reply = FleetReply::failure_kind(kind::SHARD_PANIC, "shard task 2 panicked: boom");
        reply.pool = Some(PoolWire { panics_caught: 1 });
        let back = FleetReply::from_line(&reply.to_line()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error_kind.as_deref(), Some(kind::SHARD_PANIC));
        assert_eq!(back.pool.unwrap().panics_caught, 1);
        // An old-style reply without the new fields still decodes.
        let legacy = r#"{"type":"reply","ok":false,"error":"shed","samples":[]}"#;
        let old = FleetReply::from_line(legacy).unwrap();
        assert_eq!(old.error_kind, None);
        assert_eq!(old.pool, None);
        // Counters this build does not know are skipped.
        let extra = r#"{"type":"reply","ok":false,"samples":[],"pool":{"panics_caught":2,"retired_counter":1}}"#;
        let old = FleetReply::from_line(extra).unwrap();
        assert_eq!(old.pool, Some(PoolWire { panics_caught: 2 }));
    }
}
