//! The fleet service core: admission gate in front, the scoped shard
//! fan-out underneath, one engine registry across every request.
//!
//! A request travels the full stack: decode → validate → cost estimate →
//! [`Gate::admit`] (which also screens unmeetable deadlines) → plan on
//! the service's one [`EngineRegistry`] → shards proposed on
//! [`fan_out`] → bitwise-identical merge → reply. The registry's
//! caches re-serve payloads and functional passes to every later
//! request, whatever its seed: a fleet's seed keys only its node RNG
//! streams, so the caches hold one payload and one functional pass per
//! job class and SKU a request can reach (10 in all), however many
//! seeds arrive.
//!
//! Every fault on that path degrades to a *typed* failure reply
//! instead of a hung or crashed connection: a panicking shard task is
//! caught in its own slot and surfaces as [`kind::SHARD_PANIC`], a
//! deadline that expires before a shard starts or before the reply as
//! [`kind::DEADLINE_EXCEEDED`], and a shard set that fails to tile as
//! [`kind::SHARD_MERGE`]. The count of caught shard panics rides every
//! reply that reached the shard layer, and the seeded [`ChaosState`] —
//! off unless [`ServiceConfig::chaos`] enables it — injects those
//! faults at deterministic points.

use crate::admission::{AdmissionConfig, AdmissionError, AdmissionStats, Gate};
use crate::chaos::{ChaosConfig, ChaosState};
use crate::proto::{kind, BudgetWire, FleetReply, FleetRequest, RegistryWire};
use crate::timing::{Clock, WallClock};
use fs2_cluster::{shard_ranges, FleetShard, FleetSim, PowerCdf};
use fs2_core::{fan_out, resolve_threads, EngineRegistry, RegistryStats};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A shard task that panicked instead of returning: the typed shape
/// the service turns into a `shard-panic` failure reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardError {
    /// Shard index within the request.
    pub index: usize,
    /// Stringified panic payload.
    pub message: String,
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "shard task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ShardError {}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Service-level knobs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceConfig {
    /// Threads that propose one request's shards (0 = one per host
    /// core). The thread that calls [`FleetService::handle`] is one of
    /// them, so a request spawns at most `workers − 1` threads, and
    /// none with one worker or one shard. The threads live only as long
    /// as their request, so concurrent requests run up to
    /// [`AdmissionConfig::max_active`] × `workers` shard threads in all:
    /// 8 with the default 4 active requests on a 2-core host.
    pub workers: usize,
    /// Default shards per request (0 = one per worker); requests may
    /// override via [`FleetRequest::shards`].
    pub default_shards: usize,
    pub admission: AdmissionConfig,
    /// Fault-injection schedule; [`ChaosConfig::default`] is off.
    pub chaos: ChaosConfig,
}

impl ServiceConfig {
    /// A deliberately small footprint for tests and examples.
    pub fn small() -> ServiceConfig {
        ServiceConfig {
            workers: 2,
            default_shards: 2,
            admission: AdmissionConfig::default(),
            chaos: ChaosConfig::default(),
        }
    }
}

/// A long-running fleet-simulation service.
pub struct FleetService {
    gate: Gate,
    /// [`ServiceConfig::workers`], resolved.
    workers: usize,
    /// Shard panics caught over the service's lifetime.
    panics_caught: AtomicU64,
    /// Plans every request, whatever its seed.
    registry: EngineRegistry,
    default_shards: usize,
    clock: Arc<dyn Clock>,
    chaos: Option<Arc<ChaosState>>,
}

impl FleetService {
    pub fn new(cfg: ServiceConfig) -> FleetService {
        FleetService::with_clock(cfg, Arc::new(WallClock::new()))
    }

    /// Builds the service on an explicit clock — the deterministic
    /// entry point for deadline tests ([`crate::timing::ManualClock`]).
    pub fn with_clock(cfg: ServiceConfig, clock: Arc<dyn Clock>) -> FleetService {
        FleetService {
            gate: Gate::new(cfg.admission),
            workers: resolve_threads(cfg.workers),
            panics_caught: AtomicU64::new(0),
            registry: EngineRegistry::new(),
            default_shards: cfg.default_shards,
            clock,
            chaos: cfg
                .chaos
                .enabled()
                .then(|| Arc::new(ChaosState::new(cfg.chaos))),
        }
    }

    pub fn admission_stats(&self) -> AdmissionStats {
        self.gate.stats()
    }

    /// Shard-task panics caught over the service's lifetime: the
    /// counter every reply that reached the shard layer carries.
    pub fn panics_caught(&self) -> u64 {
        self.panics_caught.load(Ordering::Relaxed)
    }

    /// The live chaos state, when fault injection is enabled. The TCP
    /// layer consults it for reply drops; tests for counters.
    pub fn chaos(&self) -> Option<&Arc<ChaosState>> {
        self.chaos.as_ref()
    }

    /// Counters of the registry that plans every request. `seed`
    /// selects nothing: every seed is served by the one registry, so
    /// this is `Some` for any seed.
    pub fn registry_stats(&self, _seed: u64) -> Option<RegistryStats> {
        Some(self.registry.stats())
    }

    /// Serves one request through the full stack. This is the
    /// in-process entry point (the CLI's `--fleet` calls it); the TCP
    /// transport reaches it through [`FleetService::handle_line`]. A
    /// request that fails [`FleetRequest::validate`] gets the decoder's
    /// [`kind::BAD_REQUEST`] reply before the gate counts it, so typed
    /// and decoded requests meet one contract, and an admitted request
    /// that misses its deadline fails typed instead of replying late.
    pub fn handle(&self, req: &FleetRequest) -> FleetReply {
        if let Err(e) = req.validate() {
            return FleetReply::failure_kind(kind::BAD_REQUEST, e.to_string());
        }
        let cfg = req.to_config();
        // node·samples in 128-bit: an address-space overflow becomes an
        // oversize cost, not a wrap (FleetSizeError carries the total).
        let cost = match cfg.try_total_samples() {
            Ok(n) => n as u128,
            Err(e) => e.total,
        };
        let permit = match self.gate.admit(cost, req.deadline_ms) {
            Ok(p) => p,
            Err(e) => {
                let k = match e {
                    AdmissionError::Busy { .. } => kind::ADMISSION_BUSY,
                    AdmissionError::Oversize { .. } => kind::ADMISSION_OVERSIZE,
                    AdmissionError::DeadlineUnmeetable { .. } => kind::ADMISSION_DEADLINE,
                };
                return FleetReply::failure_kind(k, e.to_string());
            }
        };
        // The deadline counts from admission, so the plan counts too.
        // `overshoot()` reads the clock and returns how many ms past the
        // deadline it is, if it is past.
        let deadline_at = req
            .deadline_ms
            .map(|d| self.clock.now_ms().saturating_add(d));
        let overshoot = || {
            let now = self.clock.now_ms();
            deadline_at.filter(|&d| now > d).map(|d| now - d)
        };

        let shards = match req.shards.unwrap_or(self.default_shards) {
            0 => self.workers,
            n => n,
        };
        let sim = FleetSim::new(cfg);
        let plan = sim.plan(&self.registry);
        let ranges = shard_ranges(plan.total_nodes(), shards);

        // Fault injection: claim this request's slot in the chaos
        // schedule (a no-op when chaos is off).
        let (panic_shard, chaos_shard_ms) = match &self.chaos {
            Some(c) => (
                c.take_panic_shard(c.next_request(), ranges.len()),
                c.shard_ms(),
            ),
            None => (None, 0),
        };

        // Each task checks the deadline *before* proposing its shard: an
        // expired request degrades to a typed reply instead of burning
        // threads on doomed work. The Err payload is the overshoot in ms.
        let shard_task = |k: usize, lo: u32, hi: u32| -> Result<FleetShard, u64> {
            if chaos_shard_ms > 0 {
                self.clock.advance_ms(chaos_shard_ms);
            }
            if let Some(over) = overshoot() {
                return Err(over);
            }
            if panic_shard == Some(k) {
                // fs2-lint: allow(no-panic-service) -- chaos injection: this panic IS the fault under test; the shard's catch_unwind contains it
                panic!("chaos: injected panic in shard task {k}");
            }
            Ok(sim.run_shard(&plan, lo, hi))
        };
        let outcomes = fan_out(&ranges, self.workers, |k, &(lo, hi)| {
            // A panic settles as a typed error in its own slot instead
            // of unwinding into the caller's connection thread.
            catch_unwind(AssertUnwindSafe(|| shard_task(k, lo, hi))).map_err(|payload| {
                self.panics_caught.fetch_add(1, Ordering::Relaxed);
                ShardError {
                    index: k,
                    message: panic_message(payload.as_ref()),
                }
            })
        });

        let mut parts = Vec::with_capacity(outcomes.len());
        let mut first_panic: Option<ShardError> = None;
        let mut worst_overshoot: Option<u64> = None;
        for outcome in outcomes {
            match outcome {
                Ok(Ok(shard)) => parts.push(shard),
                Ok(Err(over)) => {
                    worst_overshoot = Some(worst_overshoot.map_or(over, |w| w.max(over)));
                }
                Err(e) => {
                    if first_panic.is_none() {
                        first_panic = Some(e);
                    }
                }
            }
        }
        // A failure past admission books the permit as failed and
        // carries the panic counter.
        let failure = |k: &str, error: String| {
            permit.fail();
            FleetReply {
                panics_caught: Some(self.panics_caught()),
                ..FleetReply::failure_kind(k, error)
            }
        };
        if let Some(e) = first_panic {
            return failure(kind::SHARD_PANIC, e.to_string());
        }
        let late = |over: u64| {
            let error = format!("deadline exceeded mid-flight by {over} ms");
            failure(kind::DEADLINE_EXCEEDED, error)
        };
        if let Some(over) = worst_overshoot {
            return late(over);
        }
        let run = match sim.try_merge_shards(&self.registry, &plan, parts) {
            Ok(run) => run,
            Err(e) => return failure(kind::SHARD_MERGE, e.to_string()),
        };
        // The deadline bounds completion: a request whose last shards
        // overran fails here instead of being served late.
        if let Some(over) = overshoot() {
            return late(over);
        }
        drop(permit);

        let budget = run.budget.map(|b| BudgetWire {
            budget_w: b.budget_w,
            policy: b.policy.name().to_string(),
            ticks: b.ticks,
            peak_fleet_w: b.peak_fleet_w,
            mean_fleet_w: b.mean_fleet_w,
            shed_ticks: b.shed_ticks,
            deferred_ticks: b.deferred_ticks,
            truncated_proposals: b.truncated_proposals,
            infeasible_floor_ticks: b.infeasible_floor_ticks,
            util_p95: b.utilization.quantile(0.95),
            states: b.states.iter().map(|s| s.to_string()).collect(),
        });
        FleetReply {
            ok: true,
            error: None,
            error_kind: None,
            panics_caught: Some(self.panics_caught()),
            cdf: req
                .want_cdf
                .then(|| PowerCdf::from_samples(&run.samples, 0.1)),
            samples: if req.want_samples {
                run.samples
            } else {
                Vec::new()
            },
            registry: RegistryWire::from_stats(&run.registry),
            power_points: run.power_table.len(),
            capped_points: run.capped_points,
            capped_samples: run.capped_samples,
            infeasible_points: run.infeasible_points,
            budget,
            episodes: run.episodes,
            shards: ranges.len(),
        }
    }

    /// Wire entry point: one request line in, one reply line out.
    /// Never panics on malformed input — decode failures become
    /// failure replies.
    pub fn handle_line(&self, line: &str) -> String {
        match FleetRequest::from_line(line) {
            Ok(req) => self.handle(&req).to_line(),
            Err(e) => FleetReply::failure_kind(kind::BAD_REQUEST, e.to_string()).to_line(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::ManualClock;
    use fs2_cluster::TemporalMode;

    fn bits(samples: &[f64]) -> Vec<u64> {
        samples.iter().map(|s| s.to_bits()).collect()
    }

    fn request(seed: u64) -> FleetRequest {
        FleetRequest {
            nodes: 24,
            samples_per_node: 120,
            seed: Some(seed),
            ..FleetRequest::fig1()
        }
    }

    #[test]
    fn served_samples_match_the_one_shot_path_bitwise() {
        let service = FleetService::new(ServiceConfig::small());
        for req in [
            request(41),
            FleetRequest {
                temporal: TemporalMode::Episodes,
                budget_w: Some(24.0 * 170.0),
                shards: Some(5),
                ..request(41)
            },
        ] {
            let direct = FleetSim::new(req.to_config()).run();
            let reply = service.handle(&req);
            assert!(reply.ok, "{:?}", reply.error);
            assert_eq!(
                bits(&direct.samples),
                bits(&reply.samples),
                "served bytes diverged from the one-shot run"
            );
            assert_eq!(reply.capped_samples, direct.capped_samples);
            assert_eq!(reply.power_points, direct.power_table.len());
            assert_eq!(
                reply.panics_caught,
                Some(0),
                "successful replies carry the panic counter"
            );
        }
    }

    #[test]
    fn profiled_request_serves_the_calibrated_fleet() {
        use fs2_calib::FleetProfile;
        let service = FleetService::new(ServiceConfig::small());
        let req = FleetRequest {
            profile: Some(FleetProfile::exemplar()),
            ..request(41)
        };
        // The wire round trip loses nothing: serve the decoded line.
        let decoded = FleetRequest::from_line(&req.to_line()).unwrap();
        let direct = FleetSim::new(req.to_config()).run();
        let reply = service.handle(&decoded);
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(
            bits(&direct.samples),
            bits(&reply.samples),
            "served profiled fleet diverged from the one-shot run"
        );
        // Episode telemetry reflects the profile's floor share, not
        // the Taurus default of 0.10.
        let episodes = reply.episodes.expect("profile forces episode mode");
        assert!((episodes.model_shares[0] - 0.15).abs() < 1e-9);
        // Malformed profile text on the wire becomes a failure reply.
        let bad = r##"{"type":"fleet","profile":"# not a profile\n"}"##;
        let line = service.handle_line(bad);
        let failure = FleetReply::from_line(&line).unwrap();
        assert!(!failure.ok);
        assert!(failure.error.as_deref().unwrap().contains("bad `profile`"));
        assert_eq!(failure.error_kind.as_deref(), Some(kind::BAD_REQUEST));
    }

    #[test]
    fn identical_requests_hit_the_cross_request_caches() {
        let service = FleetService::new(ServiceConfig::small());
        let req = request(7);
        let first = service.handle(&req);
        assert_eq!(first.registry.requests, 1);
        assert_eq!(first.registry.cross_payload_lookups, 0);
        let second = service.handle(&req);
        assert_eq!(bits(&first.samples), bits(&second.samples));
        assert_eq!(second.registry.requests, 2);
        assert!(
            second.registry.cross_payload_hit_rate() > 0.99,
            "identical config must re-serve every payload: {:?}",
            second.registry
        );
        assert!(second.registry.cross_exec_hit_rate() > 0.99);
        // A near-identical request (new cap) still reuses the payload
        // tier even though its operating points differ.
        let capped = service.handle(&FleetRequest {
            power_cap_w: Some(260.0),
            ..request(7)
        });
        assert!(capped.ok);
        assert!(capped.registry.cross_payload_hit_rate() > 0.99);
    }

    #[test]
    fn every_seed_is_served_from_one_bounded_registry() {
        let service = FleetService::new(ServiceConfig::small());
        for seed in 1..=20 {
            let req = request(seed);
            let direct = FleetSim::new(req.to_config()).run();
            let reply = service.handle(&req);
            assert!(reply.ok, "{:?}", reply.error);
            assert_eq!(
                bits(&direct.samples),
                bits(&reply.samples),
                "seed {seed} diverged from the one-shot run"
            );
        }
        // 5 job classes on 2 SKUs: the first request builds 10 payloads
        // and runs their 10 functional passes, and the other 19 seeds
        // are served from them.
        let stats = service.registry_stats(20).expect("one registry");
        assert_eq!(stats.engines, 2);
        assert_eq!((stats.payload_misses, stats.payload_hits), (10, 190));
        assert_eq!((stats.exec_misses, stats.exec_hits), (10, 190));
    }

    #[test]
    fn oversize_and_overflowing_requests_are_rejected_cleanly() {
        let service = FleetService::new(ServiceConfig {
            admission: AdmissionConfig {
                max_request_cost: 10_000,
                ..AdmissionConfig::default()
            },
            ..ServiceConfig::small()
        });
        let reply = service.handle(&FleetRequest {
            nodes: 1000,
            samples_per_node: 1000,
            ..FleetRequest::fig1()
        });
        assert!(!reply.ok);
        assert!(reply.error.as_deref().unwrap().contains("rejected"));
        assert_eq!(reply.error_kind.as_deref(), Some(kind::ADMISSION_OVERSIZE));
        // u32::MAX × u32::MAX nodes·samples overflows usize on every
        // target; the checked total feeds admission, nothing wraps.
        let reply = service.handle(&FleetRequest {
            nodes: u32::MAX,
            samples_per_node: u32::MAX,
            ..FleetRequest::fig1()
        });
        assert!(!reply.ok, "address-space bomb was admitted");
        assert_eq!(service.admission_stats().rejected_oversize, 2);
        assert_eq!(service.admission_stats().admitted, 0);
    }

    #[test]
    fn unmeetable_deadline_is_rejected_at_admission() {
        // A manual clock: the deadline counts from admission, and an
        // unoptimized cold plan may itself take hundreds of ms.
        let service = FleetService::with_clock(
            ServiceConfig {
                admission: AdmissionConfig {
                    // 24 nodes × 120 samples = 2880 cost → 288 ms of work.
                    cost_per_ms: 10,
                    ..AdmissionConfig::default()
                },
                ..ServiceConfig::small()
            },
            Arc::new(ManualClock::new()),
        );
        let reply = service.handle(&FleetRequest {
            deadline_ms: Some(100),
            ..request(5)
        });
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::ADMISSION_DEADLINE));
        assert_eq!(service.admission_stats().rejected_deadline, 1);
        // A meetable deadline sails through.
        let reply = service.handle(&FleetRequest {
            deadline_ms: Some(500),
            ..request(5)
        });
        assert!(reply.ok, "{:?}", reply.error);
    }

    #[test]
    fn mid_flight_deadline_degrades_to_a_typed_reply() {
        // Manual clock + chaos shard latency: each shard task "takes"
        // 40 ms, so a 50 ms deadline dies between shards while a lax
        // one survives — deterministically.
        let clock = Arc::new(ManualClock::new());
        let service = FleetService::with_clock(
            ServiceConfig {
                chaos: ChaosConfig {
                    shard_ms: 40,
                    ..ChaosConfig::default()
                },
                ..ServiceConfig::small()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let reply = service.handle(&FleetRequest {
            deadline_ms: Some(50),
            ..request(9)
        });
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::DEADLINE_EXCEEDED));
        assert!(
            reply.error.as_deref().unwrap().contains("mid-flight"),
            "{:?}",
            reply.error
        );
        let stats = service.admission_stats();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.failed, 1, "the permit must book as failed");
        // Plenty of headroom → the same request succeeds.
        let reply = service.handle(&FleetRequest {
            deadline_ms: Some(10_000),
            ..request(9)
        });
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(service.admission_stats().completed, 1);
    }

    #[test]
    fn the_deadline_counts_from_admission() {
        // A fresh service plans cold (~20 ms in a release build), so a
        // 1 ms deadline has passed before any shard starts.
        let service = FleetService::new(ServiceConfig::small());
        let reply = service.handle(&FleetRequest {
            deadline_ms: Some(1),
            ..request(3)
        });
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some(kind::DEADLINE_EXCEEDED));
        let stats = service.admission_stats();
        assert_eq!((stats.admitted, stats.failed), (1, 1));
        // The same request with time to spare succeeds.
        let service = FleetService::new(ServiceConfig::small());
        let reply = service.handle(&FleetRequest {
            deadline_ms: Some(60_000),
            ..request(3)
        });
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(service.admission_stats().completed, 1);
    }

    /// A clock that moves `step` ms forward on every read.
    #[derive(Debug)]
    struct StepClock {
        now: AtomicU64,
        step: u64,
    }

    impl Clock for StepClock {
        fn now_ms(&self) -> u64 {
            self.now.fetch_add(self.step, Ordering::SeqCst)
        }
    }

    #[test]
    fn a_request_that_completes_late_fails_typed() {
        // Three reads: admission at 0 sets the deadline at 15, the one
        // shard starts at 10, in time, and the merge ends at 20.
        let clock = StepClock {
            now: AtomicU64::new(0),
            step: 10,
        };
        let service = FleetService::with_clock(ServiceConfig::small(), Arc::new(clock));
        let reply = service.handle(&FleetRequest {
            shards: Some(1),
            deadline_ms: Some(15),
            ..request(4)
        });
        assert!(!reply.ok, "a late request was served");
        assert_eq!(reply.error_kind.as_deref(), Some(kind::DEADLINE_EXCEEDED));
        assert_eq!(
            reply.error.as_deref(),
            Some("deadline exceeded mid-flight by 5 ms")
        );
        let stats = service.admission_stats();
        assert_eq!((stats.admitted, stats.completed, stats.failed), (1, 0, 1));
    }

    #[test]
    fn injected_shard_panic_becomes_a_typed_reply_and_the_pool_recovers() {
        let service = FleetService::new(ServiceConfig {
            chaos: ChaosConfig {
                seed: 11,
                panic_every: 2,
                ..ChaosConfig::default()
            },
            ..ServiceConfig::small()
        });
        let baseline = FleetService::new(ServiceConfig::small());
        let req = request(33);
        // Request 1: schedule leaves it alone.
        let first = service.handle(&req);
        assert!(first.ok, "{:?}", first.error);
        // Request 2: one shard panics; the reply is typed, not a hang.
        let second = service.handle(&req);
        assert!(!second.ok);
        assert_eq!(second.error_kind.as_deref(), Some(kind::SHARD_PANIC));
        assert!(
            second.error.as_deref().unwrap().contains("injected panic"),
            "{:?}",
            second.error
        );
        assert_eq!(second.panics_caught, Some(1));
        // Request 3 (the "retry"): bitwise-identical to an undisturbed
        // service run of the same request.
        let third = service.handle(&req);
        assert!(third.ok, "{:?}", third.error);
        let undisturbed = baseline.handle(&req);
        assert_eq!(bits(&third.samples), bits(&undisturbed.samples));
        // Accounting: 3 admitted = 2 completed + 1 failed.
        let stats = service.admission_stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
        assert_eq!(service.chaos().unwrap().panics_injected(), 1);
    }

    #[test]
    fn one_worker_service_types_a_shard_panic_on_the_calling_thread() {
        // One worker means no helper thread: every shard, the panicking
        // one included, runs on the thread that called `handle`.
        let service = FleetService::new(ServiceConfig {
            workers: 1,
            default_shards: 3,
            chaos: ChaosConfig {
                seed: 3,
                panic_every: 2,
                ..ChaosConfig::default()
            },
            ..ServiceConfig::small()
        });
        let req = request(21);
        assert!(service.handle(&req).ok);
        let hurt = service.handle(&req);
        assert!(!hurt.ok);
        assert_eq!(hurt.error_kind.as_deref(), Some(kind::SHARD_PANIC));
        let error = hurt.error.as_deref().unwrap();
        assert!(error.starts_with("shard task "), "{error}");
        assert!(
            error.contains(" panicked: chaos: injected panic"),
            "{error}"
        );
        assert_eq!(hurt.panics_caught, Some(1));
        let retry = service.handle(&req);
        assert!(retry.ok, "{:?}", retry.error);
        let direct = FleetSim::new(req.to_config()).run();
        assert_eq!(bits(&retry.samples), bits(&direct.samples));
        let stats = service.admission_stats();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.failed, 1);
    }

    #[test]
    fn shard_count_and_worker_count_do_not_change_the_bytes() {
        let req = request(13);
        let reference = FleetSim::new(req.to_config()).run();
        for (workers, shards) in [(1, 1), (2, 7), (4, 24), (3, 64)] {
            let service = FleetService::new(ServiceConfig {
                workers,
                default_shards: shards,
                ..ServiceConfig::small()
            });
            let reply = service.handle(&req);
            assert!(reply.ok);
            assert_eq!(
                bits(&reference.samples),
                bits(&reply.samples),
                "{workers} workers / {shards} shards diverged"
            );
        }
    }
}
