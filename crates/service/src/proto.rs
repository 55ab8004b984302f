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
//! The reply holds the fleet's own [`PowerCdf`] and [`EpisodeStats`],
//! and `to_line` writes request and reply in one pass through
//! [`crate::json::write_object`], straight into the line. Only the
//! registry counters and the budget telemetry have wire structs of
//! their own, because the wire carries a subset of them
//! ([`RegistryWire`]) or a summary ([`BudgetWire`]'s utilization p95).
//! Decoding parses the line into a [`Json`] tree and reads its shape
//! back. Every rule of a valid request lives in
//! [`FleetRequest::validate`], which the decoder, the CLI and
//! `FleetService::handle` all call.
//!
//! Floats and 64-bit seeds round-trip exactly (see [`crate::json`]),
//! which is what makes the CI smoke diff of served-vs-local samples
//! meaningful.

use crate::json::{write_object, Json};
use fs2_calib::FleetProfile;
use fs2_cluster::{BudgetPolicy, EpisodeStats, FleetConfig, PowerCdf, TemporalMode};
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

/// The number at `key` of a reply section, or 0 when it is absent or
/// not a number of that type.
fn num<T: std::str::FromStr + Default>(v: &Json, key: &str) -> T {
    match v.get(key) {
        Some(Json::Num(t)) => t.parse().unwrap_or_default(),
        _ => T::default(),
    }
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
    /// Optional completion deadline, in milliseconds from admission,
    /// so the plan counts against it. A gate that knows its throughput
    /// rejects deadlines its estimate cannot meet
    /// ([`kind::ADMISSION_DEADLINE`]). An admitted request that still
    /// overruns fails with a typed [`kind::DEADLINE_EXCEEDED`] reply:
    /// the deadline is checked before each shard starts and again once
    /// the shards have merged, so no reply is served late.
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

    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, |w| {
            w.field("type", "fleet")
                .field("nodes", &self.nodes)
                .field("samples_per_node", &self.samples_per_node)
                .field("seed", &self.seed)
                .field(
                    "temporal",
                    match self.temporal {
                        TemporalMode::Iid => "iid",
                        TemporalMode::Episodes => "episodes",
                    },
                )
                .field("cap_w", &self.power_cap_w)
                .field("budget_w", &self.budget_w)
                .field(
                    "budget_policy",
                    match self.budget_policy {
                        BudgetPolicy::ShedToFloor => "shed",
                        BudgetPolicy::Defer => "defer",
                    },
                )
                .field("shards", &self.shards)
                .field("deadline_ms", &self.deadline_ms)
                .field("want_samples", &self.want_samples)
                .field("want_cdf", &self.want_cdf)
                .field("profile", &self.profile.as_ref().map(FleetProfile::to_text));
        });
        out
    }

    /// Checks every rule of a valid request: at least one node and one
    /// sample per node, positive finite wattages, `shards` and
    /// `deadline_ms` of at least 1, and a profile that passes
    /// [`FleetProfile::validate`]. The decoder and the CLI call it, and
    /// [`crate::FleetService::handle`] calls it before the gate counts
    /// the request, so a typed request meets the same contract as a
    /// decoded line.
    pub fn validate(&self) -> Result<(), ProtoError> {
        let bad_watts = |w: Option<f64>| w.is_some_and(|w| !(w.is_finite() && w > 0.0));
        let fault = if self.nodes == 0 {
            "`nodes` must be at least 1"
        } else if self.samples_per_node == 0 {
            "`samples_per_node` must be at least 1"
        } else if bad_watts(self.power_cap_w) {
            "`cap_w` must be a positive wattage"
        } else if bad_watts(self.budget_w) {
            "`budget_w` must be a positive wattage"
        } else if self.shards == Some(0) {
            "`shards` must be a positive integer"
        } else if self.deadline_ms == Some(0) {
            "`deadline_ms` must be a positive integer"
        } else {
            return match &self.profile {
                Some(p) => p
                    .validate()
                    .map_err(|e| perr(format!("bad `profile`: {e}"))),
                None => Ok(()),
            };
        };
        Err(perr(fault))
    }

    /// Decodes a request object. An absent or `null` field keeps its
    /// [`FleetRequest::fig1`] value; a field of the wrong type, an
    /// unknown name or malformed profile text is a shape error. The
    /// decoded request must then pass [`FleetRequest::validate`].
    pub fn from_json(v: &Json) -> Result<FleetRequest, ProtoError> {
        match v.get("type").and_then(Json::as_str) {
            Some("fleet") => {}
            Some(other) => return Err(perr(format!("unknown request type `{other}`"))),
            None => return Err(perr("missing request type")),
        }
        let d = FleetRequest::fig1();
        let u32_of = |j: &Json| j.as_u64().and_then(|n| u32::try_from(n).ok());
        let positive = "a positive integer";
        let req = FleetRequest {
            nodes: opt_field(v, "nodes", u32_of, "a u32")?.unwrap_or(d.nodes),
            samples_per_node: opt_field(v, "samples_per_node", u32_of, "a u32")?
                .unwrap_or(d.samples_per_node),
            seed: opt_field(v, "seed", Json::as_u64, "a u64")?,
            temporal: match opt_field(v, "temporal", Json::as_str, "a string")? {
                None => d.temporal,
                Some(name) => TemporalMode::from_name(name)
                    .ok_or_else(|| perr(format!("unknown temporal mode `{name}`")))?,
            },
            power_cap_w: opt_field(v, "cap_w", Json::as_f64, "a number")?,
            budget_w: opt_field(v, "budget_w", Json::as_f64, "a number")?,
            budget_policy: match opt_field(v, "budget_policy", Json::as_str, "a string")? {
                None => d.budget_policy,
                Some(name) => BudgetPolicy::from_name(name)
                    .ok_or_else(|| perr(format!("unknown budget policy `{name}`")))?,
            },
            shards: opt_field(v, "shards", Json::as_usize, positive)?,
            deadline_ms: opt_field(v, "deadline_ms", Json::as_u64, positive)?,
            want_samples: opt_field(v, "want_samples", Json::as_bool, "a boolean")?
                .unwrap_or(d.want_samples),
            want_cdf: opt_field(v, "want_cdf", Json::as_bool, "a boolean")?.unwrap_or(d.want_cdf),
            profile: match opt_field(v, "profile", Json::as_str, "a string")? {
                None => None,
                Some(text) => Some(
                    FleetProfile::from_text(text)
                        .map_err(|e| perr(format!("bad `profile`: {e}")))?,
                ),
            },
        };
        req.validate()?;
        Ok(req)
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

    fn from_json(v: &Json) -> RegistryWire {
        RegistryWire {
            engines: num(v, "engines"),
            payload_hits: num(v, "payload_hits"),
            payload_misses: num(v, "payload_misses"),
            exec_hits: num(v, "exec_hits"),
            exec_misses: num(v, "exec_misses"),
            requests: num(v, "requests"),
            cross_payload_hits: num(v, "cross_payload_hits"),
            cross_payload_lookups: num(v, "cross_payload_lookups"),
            cross_exec_hits: num(v, "cross_exec_hits"),
            cross_exec_lookups: num(v, "cross_exec_lookups"),
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

/// One fleet-simulation reply (or a service-side rejection).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetReply {
    pub ok: bool,
    /// Rejection/failure reason when `ok` is false.
    pub error: Option<String>,
    /// Machine-readable failure kind (one of the [`kind`] constants)
    /// when `ok` is false and the failure is typed.
    pub error_kind: Option<String>,
    /// Shard-task panics the service had caught at reply time (present
    /// whenever the request reached the shard layer). On the wire it is
    /// `"pool":{"panics_caught":N}`.
    pub panics_caught: Option<u64>,
    /// Raw 60 s-mean samples (empty unless requested).
    pub samples: Vec<f64>,
    /// The 0.1 W-binned CDF of the samples (when requested).
    pub cdf: Option<PowerCdf>,
    pub registry: RegistryWire,
    /// Operating points in the request's power table.
    pub power_points: usize,
    pub capped_points: usize,
    pub capped_samples: usize,
    pub infeasible_points: usize,
    pub budget: Option<BudgetWire>,
    pub episodes: Option<EpisodeStats>,
    /// Shards the request was actually split into.
    pub shards: usize,
}

impl FleetReply {
    /// A failure reply of one of the [`kind`]s, carrying `error`.
    pub fn failure_kind(kind: &str, error: impl Into<String>) -> FleetReply {
        FleetReply {
            error: Some(error.into()),
            error_kind: Some(kind.to_string()),
            ..FleetReply::default()
        }
    }

    pub fn to_line(&self) -> String {
        let mut out = String::new();
        write_object(&mut out, |w| {
            w.field("type", "reply").field("ok", &self.ok);
            if let Some(e) = &self.error {
                w.field("error", e);
            }
            if let Some(k) = &self.error_kind {
                w.field("error_kind", k);
            }
            if let Some(n) = self.panics_caught {
                w.object("pool", |w| {
                    w.field("panics_caught", &n);
                });
            }
            let r = &self.registry;
            w.field("samples", &self.samples)
                .object("registry", |w| {
                    w.field("engines", &r.engines)
                        .field("payload_hits", &r.payload_hits)
                        .field("payload_misses", &r.payload_misses)
                        .field("exec_hits", &r.exec_hits)
                        .field("exec_misses", &r.exec_misses)
                        .field("requests", &r.requests)
                        .field("cross_payload_hits", &r.cross_payload_hits)
                        .field("cross_payload_lookups", &r.cross_payload_lookups)
                        .field("cross_exec_hits", &r.cross_exec_hits)
                        .field("cross_exec_lookups", &r.cross_exec_lookups);
                })
                .field("power_points", &self.power_points)
                .field("capped_points", &self.capped_points)
                .field("capped_samples", &self.capped_samples)
                .field("infeasible_points", &self.infeasible_points)
                .field("shards", &self.shards);
            if let Some(c) = &self.cdf {
                w.object("cdf", |w| {
                    w.field("bins", &c.bins)
                        .field("min_w", &c.min_w)
                        .field("max_w", &c.max_w)
                        .field("samples", &c.samples);
                });
            }
            if let Some(b) = &self.budget {
                w.object("budget", |w| {
                    w.field("budget_w", &b.budget_w)
                        .field("policy", &b.policy)
                        .field("ticks", &b.ticks)
                        .field("peak_fleet_w", &b.peak_fleet_w)
                        .field("mean_fleet_w", &b.mean_fleet_w)
                        .field("shed_ticks", &b.shed_ticks)
                        .field("deferred_ticks", &b.deferred_ticks)
                        .field("truncated_proposals", &b.truncated_proposals)
                        .field("infeasible_floor_ticks", &b.infeasible_floor_ticks)
                        .field("util_p95", &b.util_p95)
                        .field("states", &b.states);
                });
            }
            if let Some(e) = &self.episodes {
                w.object("episodes", |w| {
                    w.field("states", &e.states)
                        .field("empirical_shares", &e.empirical_shares)
                        .field("model_shares", &e.model_shares)
                        .field("mean_dwell_ticks", &e.mean_dwell_ticks)
                        .field("lag1_autocorr", &e.lag1_autocorr);
                });
            }
        });
        out
    }

    pub fn from_line(line: &str) -> Result<FleetReply, ProtoError> {
        let v = Json::parse(line).map_err(|e| perr(e.to_string()))?;
        match v.get("type").and_then(Json::as_str) {
            Some("reply") => {}
            _ => return Err(perr("not a reply line")),
        }
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).map(str::to_string);
        let f64s = |j: &Json, key: &str| j.get(key).and_then(Json::f64s).unwrap_or_default();
        let u64s = |j: &Json, key: &str| j.get(key).and_then(Json::u64s).unwrap_or_default();
        let strs = |j: &Json, key: &str| -> Vec<String> {
            let items = j.get(key).and_then(Json::as_arr).unwrap_or_default();
            items
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect()
        };
        let cdf = v.get("cdf").map(|c| {
            let pairs = c.get("bins").and_then(Json::as_arr).unwrap_or_default();
            PowerCdf {
                bins: pairs
                    .iter()
                    .filter_map(|p| {
                        let p = p.as_arr()?;
                        Some((p.first()?.as_f64()?, p.get(1)?.as_f64()?))
                    })
                    .collect(),
                min_w: num(c, "min_w"),
                max_w: num(c, "max_w"),
                samples: num(c, "samples"),
            }
        });
        let budget = v.get("budget").map(|b| BudgetWire {
            budget_w: num(b, "budget_w"),
            policy: text(b, "policy").unwrap_or_default(),
            ticks: num(b, "ticks"),
            peak_fleet_w: num(b, "peak_fleet_w"),
            mean_fleet_w: num(b, "mean_fleet_w"),
            shed_ticks: u64s(b, "shed_ticks"),
            deferred_ticks: u64s(b, "deferred_ticks"),
            truncated_proposals: num(b, "truncated_proposals"),
            infeasible_floor_ticks: num(b, "infeasible_floor_ticks"),
            util_p95: num(b, "util_p95"),
            states: strs(b, "states"),
        });
        let episodes = v.get("episodes").map(|e| EpisodeStats {
            states: strs(e, "states"),
            empirical_shares: f64s(e, "empirical_shares"),
            model_shares: f64s(e, "model_shares"),
            mean_dwell_ticks: f64s(e, "mean_dwell_ticks"),
            lag1_autocorr: num(e, "lag1_autocorr"),
        });
        Ok(FleetReply {
            ok: v.get("ok").and_then(Json::as_bool).unwrap_or(false),
            error: text(&v, "error"),
            error_kind: text(&v, "error_kind"),
            panics_caught: v.get("pool").map(|p| num(p, "panics_caught")),
            samples: v
                .get("samples")
                .and_then(Json::f64s)
                .ok_or_else(|| perr("reply carries no samples array"))?,
            cdf,
            registry: RegistryWire::from_json(v.get("registry").unwrap_or(&Json::Null)),
            power_points: num(&v, "power_points"),
            capped_points: num(&v, "capped_points"),
            capped_samples: num(&v, "capped_samples"),
            infeasible_points: num(&v, "infeasible_points"),
            budget,
            episodes,
            shards: num(&v, "shards"),
        })
    }
}

/// Whether a reply line is a [`kind::SHARD_PANIC`] failure.
/// [`FleetReply::to_line`] writes `"ok"` second, so a success reply,
/// which can run to tens of MB, is told apart by its first bytes; only
/// a failure reply, which carries no samples, is decoded.
pub(crate) fn is_shard_panic(line: &str) -> bool {
    line.starts_with(r#"{"type":"reply","ok":false,"#)
        && FleetReply::from_line(line)
            .is_ok_and(|r| r.error_kind.as_deref() == Some(kind::SHARD_PANIC))
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
        let nulls = FleetRequest::from_line(
            r#"{"type":"fleet","nodes":null,"temporal":null,"want_samples":null}"#,
        )
        .unwrap();
        assert_eq!(nulls, FleetRequest::fig1());
        // Names take any letter case, as on the CLI.
        let named = FleetRequest::from_line(
            r#"{"type":"fleet","temporal":"Episodes","budget_policy":"DEFER"}"#,
        )
        .unwrap();
        assert_eq!(named.temporal, TemporalMode::Episodes);
        assert_eq!(named.budget_policy, BudgetPolicy::Defer);
        // A shape error reports before a value error.
        let err = FleetRequest::from_line(r#"{"type":"fleet","nodes":0,"seed":-1}"#).unwrap_err();
        assert_eq!(err.to_string(), "`seed` must be a u64");
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
            panics_caught: Some(3),
            samples: vec![83.25, 359.9, f64::from_bits(0x405526E41CAD1777)],
            cdf: Some(PowerCdf {
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
            episodes: Some(EpisodeStats {
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
        let line = FleetReply::failure_kind(kind::ADMISSION_BUSY, "rejected: queue full").to_line();
        let back = FleetReply::from_line(&line).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error.as_deref(), Some("rejected: queue full"));
        assert_eq!(back.error_kind.as_deref(), Some(kind::ADMISSION_BUSY));
        assert_eq!(back.panics_caught, None, "no shard ran");
    }

    #[test]
    fn typed_failures_round_trip_kind_and_pool_counters() {
        let mut reply = FleetReply::failure_kind(kind::SHARD_PANIC, "shard task 2 panicked: boom");
        reply.panics_caught = Some(1);
        let back = FleetReply::from_line(&reply.to_line()).unwrap();
        assert!(!back.ok);
        assert_eq!(back.error_kind.as_deref(), Some(kind::SHARD_PANIC));
        assert_eq!(back.panics_caught, Some(1));
        // The retry rule tells a shard panic from the line alone.
        assert!(is_shard_panic(&reply.to_line()));
        let busy = FleetReply::failure_kind(kind::ADMISSION_BUSY, "shed");
        assert!(!is_shard_panic(&busy.to_line()));
        // An old-style reply without the new fields still decodes.
        let legacy = r#"{"type":"reply","ok":false,"error":"shed","samples":[]}"#;
        let old = FleetReply::from_line(legacy).unwrap();
        assert_eq!(old.error_kind, None);
        assert_eq!(old.panics_caught, None);
        // Counters this build does not know are skipped.
        let extra = r#"{"type":"reply","ok":false,"samples":[],"pool":{"panics_caught":2,"retired_counter":1}}"#;
        let old = FleetReply::from_line(extra).unwrap();
        assert_eq!(old.panics_caught, Some(2));
    }
}
