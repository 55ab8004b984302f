//! The engine/session layer: a reusable payload-to-power pipeline.
//!
//! Every consumer of generated workloads — the CLI's `Measure`/`Optimize`
//! actions, the fig/table experiments, and the NSGA-II evaluation loop —
//! used to rebuild payloads from scratch and drive its own ad-hoc
//! `Runner` glue. An [`Engine`] centralizes that plumbing for one SKU:
//!
//! * two **cache tiers** ([`EngineCaches`]): a payload cache memoizing
//!   [`build_payload`] results keyed by `(mix, groups, unroll)` — sweeps
//!   over mixes, unroll factors and access groups (the dominant usage
//!   pattern; Figs. 6–12 are all sweeps) stop paying for redundant code
//!   generation — and an ExecStats cache memoizing each payload's
//!   functional pass, which decodes the kernel inside the pass on a miss;
//! * **[`Session`]s**, each owning a [`Runner`] on its own simulated
//!   clock, for trace-producing measurement runs. [`Session::tune`]
//!   stays off the tiers: NSGA-II's genome memo already answers every
//!   revisited candidate, so the tuner builds each candidate once and
//!   runs its one functional pass directly, and caching them would
//!   only grow the tiers;
//! * **traceless evaluation** ([`Engine::eval`]) for parameter sweeps
//!   that only need the EDC-aware steady state;
//! * **parallel sweeps** ([`Engine::sweep`]), a thin wrapper over the
//!   crate's one scoped fan-out ([`fan_out`]). Item evaluation is
//!   deterministic, so an N-thread sweep returns bitwise-identical
//!   results to a serial pass, in input order.
//!
//! The engine is `Sync`: sessions and sweep workers on different threads
//! share one payload cache.

use crate::fanout::fan_out;
use crate::groups::GroupParseError;
use crate::mix::MixRegistry;
use crate::payload::{build_payload, default_unroll, Payload, PayloadConfig};
use crate::runner::{RunConfig, RunResult, Runner};
use fs2_arch::Sku;
use fs2_power::{solve_throttle, NodePowerModel, ThrottleResult};
use fs2_sim::{run_functional, DecodedKernel, FunctionalOutcome, InitScheme, SystemSim};
use std::collections::hash_map::{Entry, HashMap};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Cache key: the full workload specification `(SKU, I, u, M)`. The
/// cache tiers behind an engine can be shared registry-wide across SKU
/// engines ([`EngineCaches`]), so the SKU name is part of the key —
/// sharing never aliases payloads across SKUs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PayloadKey {
    sku: &'static str,
    mix: crate::mix::MixKind,
    groups: Vec<crate::groups::AccessGroup>,
    unroll: u32,
}

impl PayloadKey {
    fn of(sku: &Sku, config: &PayloadConfig) -> PayloadKey {
        PayloadKey {
            sku: sku.name,
            mix: config.mix.kind,
            groups: config.groups.clone(),
            unroll: config.unroll,
        }
    }
}

/// ExecStats-cache key: a [`FunctionalOutcome`] is a pure function of
/// `(payload, init scheme, executor seed, iteration count)`, nothing
/// else — which is exactly what makes memoizing it sound.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ExecKey {
    payload: PayloadKey,
    init: InitScheme,
    seed: u64,
    iters: u64,
}

/// Snapshot of the engine's cache counters for its two cache tiers:
/// payload builds and functional (ExecStats) passes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that had to build a fresh payload.
    pub misses: u64,
    /// Distinct payloads currently cached.
    pub entries: usize,
    /// Functional passes answered from the ExecStats cache.
    pub exec_hits: u64,
    /// Functional passes executed live (then cached).
    pub exec_misses: u64,
    /// Distinct `(payload, init, seed, iters)` outcomes cached.
    pub exec_entries: usize,
}

impl CacheStats {
    /// Total payload requests served.
    pub fn requests(&self) -> u64 {
        self.hits + self.misses
    }
}

/// The shareable cache tier behind one or more [`Engine`]s: payload
/// builds and functional (ExecStats) outcomes, plus their hit/miss
/// counters. No decoded micro-op table is kept: an ExecStats miss
/// decodes its payload's kernel inside the pass it feeds, and a hit
/// never reads the table.
///
/// A standalone engine owns a private tier; an
/// [`crate::EngineRegistry`] hands every SKU engine one shared
/// `Arc<EngineCaches>`, so heterogeneous fleet requests warm a single
/// registry-wide cache instead of N per-engine ones. Keys are
/// SKU-tagged (`PayloadKey`), so sharing is safe across SKUs — a hit
/// can only come from the same `(SKU, mix, groups, unroll)` workload.
pub struct EngineCaches {
    payloads: Mutex<HashMap<PayloadKey, Arc<Payload>>>,
    execs: Mutex<HashMap<ExecKey, Arc<FunctionalOutcome>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    exec_hits: AtomicU64,
    exec_misses: AtomicU64,
}

impl EngineCaches {
    /// An empty cache tier, ready to be shared across engines.
    pub fn new() -> EngineCaches {
        EngineCaches {
            payloads: Mutex::new(HashMap::new()),
            execs: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            exec_hits: AtomicU64::new(0),
            exec_misses: AtomicU64::new(0),
        }
    }

    /// Counter snapshot for the whole tier. When the tier is shared,
    /// these are registry-wide totals (read the tier once — summing
    /// per-engine snapshots would multiply-count shared counters).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.payloads.lock().expect("payload cache poisoned").len(),
            exec_hits: self.exec_hits.load(Ordering::Relaxed),
            exec_misses: self.exec_misses.load(Ordering::Relaxed),
            exec_entries: self.execs.lock().expect("exec cache poisoned").len(),
        }
    }
}

impl Default for EngineCaches {
    fn default() -> EngineCaches {
        EngineCaches::new()
    }
}

impl std::fmt::Debug for EngineCaches {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCaches")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Looks `key` up in one cache tier, building its value on a miss.
/// The build runs outside the lock: payload generation and functional
/// passes are the expensive part, and concurrent sweep workers must not
/// serialize on them. Threads racing on the same key all build, but
/// only the one whose insert lands in the vacant entry counts the miss;
/// losers drop their (identical) copy, take the winner's `Arc`, and
/// count as late hits — so `misses` equals the number of distinct keys
/// ever built into the tier.
fn memo<K: Clone + Eq + Hash, V>(
    map: &Mutex<HashMap<K, Arc<V>>>,
    hits: &AtomicU64,
    misses: &AtomicU64,
    key: &K,
    build: impl FnOnce() -> V,
) -> Arc<V> {
    if let Some(v) = map.lock().expect("engine cache poisoned").get(key) {
        hits.fetch_add(1, Ordering::Relaxed);
        return Arc::clone(v);
    }
    let built = Arc::new(build());
    let mut cache = map.lock().expect("engine cache poisoned");
    match cache.entry(key.clone()) {
        Entry::Occupied(e) => {
            hits.fetch_add(1, Ordering::Relaxed);
            Arc::clone(e.get())
        }
        Entry::Vacant(v) => {
            misses.fetch_add(1, Ordering::Relaxed);
            Arc::clone(v.insert(built))
        }
    }
}

/// A per-SKU workload engine: payload cache + session factory + sweep
/// driver. Create one per simulated system and share it freely (`&Engine`
/// is all any consumer needs).
pub struct Engine {
    sku: Sku,
    sim: SystemSim,
    power_model: NodePowerModel,
    caches: Arc<EngineCaches>,
    evals: AtomicU64,
    seed: u64,
}

impl Engine {
    /// Engine with the default runner seed.
    pub fn new(sku: Sku) -> Engine {
        Engine::with_seed(sku, 0xF12E_57A2)
    }

    /// Engine whose sessions default to `seed`, with a private cache
    /// tier.
    pub fn with_seed(sku: Sku, seed: u64) -> Engine {
        Engine::with_caches(sku, seed, Arc::new(EngineCaches::new()))
    }

    /// Engine backed by an existing (possibly shared) cache tier — the
    /// constructor [`crate::EngineRegistry`] uses so every SKU engine
    /// warms the same registry-wide caches.
    pub fn with_caches(sku: Sku, seed: u64, caches: Arc<EngineCaches>) -> Engine {
        Engine {
            sim: SystemSim::new(sku.clone()),
            power_model: NodePowerModel::new(sku.clone()),
            sku,
            caches,
            evals: AtomicU64::new(0),
            seed,
        }
    }

    pub fn sku(&self) -> &Sku {
        &self.sku
    }

    /// The seed sessions are created with by default.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The shared node simulator (hardware-event sampling, steady-state
    /// queries that need more than [`Engine::eval`]).
    pub fn sim(&self) -> &SystemSim {
        &self.sim
    }

    /// The calibrated node power model (idle floor, workload power
    /// composition) the engine evaluates against.
    pub fn power_model(&self) -> &NodePowerModel {
        &self.power_model
    }

    /// Node power with every core in its deepest idle state, watts —
    /// the floor duty-cycled fleet workloads decay to.
    pub fn idle_power_w(&self) -> f64 {
        self.power_model.idle_power().total_w()
    }

    /// Returns the payload for `config`, building it at most once.
    /// Cached payloads are deterministic: a hit hands back the same
    /// `machine_code` bytes a fresh [`build_payload`] would produce.
    pub fn payload(&self, config: &PayloadConfig) -> Arc<Payload> {
        self.payload_keyed(&PayloadKey::of(&self.sku, config), config)
    }

    /// [`Engine::payload`] for a caller that already computed the key.
    fn payload_keyed(&self, key: &PayloadKey, config: &PayloadConfig) -> Arc<Payload> {
        let c = &self.caches;
        memo(&c.payloads, &c.hits, &c.misses, key, || {
            build_payload(&self.sku, config)
        })
    }

    /// The cached payload for `config` together with its micro-op table.
    /// The table is not cached: every call runs the decoder afresh.
    pub fn payload_decoded(&self, config: &PayloadConfig) -> (Arc<Payload>, DecodedKernel) {
        let payload = self.payload(config);
        let decoded = DecodedKernel::new(&payload.kernel);
        (payload, decoded)
    }

    /// The functional (§III-D value-level) outcome of running `config`'s
    /// payload for `iters` iterations from `(init, seed)`, served from
    /// the ExecStats cache when this exact tuple ran before. The outcome
    /// — [`fs2_sim::ExecStats`], state hash, register file — is a pure
    /// function of the key, so a hit is bit-identical to a live pass.
    pub fn functional_outcome(
        &self,
        config: &PayloadConfig,
        init: InitScheme,
        seed: u64,
        iters: u64,
    ) -> Arc<FunctionalOutcome> {
        self.payload_and_outcome(config, init, seed, iters).1
    }

    /// `config`'s cached payload and its cached functional outcome: one
    /// lookup in each tier, with one payload key (one groups clone)
    /// serving both. An ExecStats miss decodes the payload's kernel and
    /// runs the pass.
    fn payload_and_outcome(
        &self,
        config: &PayloadConfig,
        init: InitScheme,
        seed: u64,
        iters: u64,
    ) -> (Arc<Payload>, Arc<FunctionalOutcome>) {
        let payload_key = PayloadKey::of(&self.sku, config);
        let payload = self.payload_keyed(&payload_key, config);
        let key = ExecKey {
            payload: payload_key,
            init,
            seed,
            iters,
        };
        let c = &self.caches;
        let outcome = memo(&c.execs, &c.exec_hits, &c.exec_misses, &key, || {
            run_functional(&DecodedKernel::new(&payload.kernel), init, seed, iters)
        });
        (payload, outcome)
    }

    /// Payload config for a group string with the architecture-default
    /// mix and unroll factor (the common experiment shape).
    pub fn config_for_spec(&self, spec: &str) -> Result<PayloadConfig, GroupParseError> {
        let mix = MixRegistry::default_for(self.sku.uarch);
        let groups = crate::groups::parse_groups(spec)?;
        let unroll = default_unroll(&self.sku, mix, &groups);
        Ok(PayloadConfig {
            mix,
            groups,
            unroll,
        })
    }

    /// Cached payload for a group string (default mix and unroll).
    pub fn payload_for_spec(&self, spec: &str) -> Result<Arc<Payload>, GroupParseError> {
        Ok(self.payload(&self.config_for_spec(spec)?))
    }

    /// Current cache counters (all tiers). When the engine shares a
    /// registry-wide tier, these are the shared totals, not per-engine
    /// slices.
    pub fn cache_stats(&self) -> CacheStats {
        self.caches.stats()
    }

    /// Functional iteration count backing [`Engine::eval`]'s cached
    /// trivial fraction. The autotuner's per-candidate pass runs the
    /// same count, so its pre-screen scores a candidate as
    /// [`Engine::eval`] would at the same seed.
    pub const EVAL_FUNCTIONAL_ITERS: u64 = 64;

    /// Direct (traceless) evaluation: EDC-aware steady state + power.
    /// Orders of magnitude faster than a full session run; the parameter
    /// sweeps live on this. The §III-D data effect is included: the
    /// payload's trivial fraction comes from a cached functional pass
    /// ([`InitScheme::V2Safe`], the engine seed,
    /// [`Engine::EVAL_FUNCTIONAL_ITERS`] iterations), so a
    /// trivial-heavy payload evaluates to a different operating point
    /// than a dense one.
    pub fn eval(&self, config: &PayloadConfig, freq_mhz: f64) -> ThrottleResult {
        self.eval_init(config, freq_mhz, InitScheme::V2Safe)
    }

    /// [`Engine::eval`] under an explicit init scheme (the v1.74 buggy
    /// initialization drives most payloads trivial, which shifts the
    /// operating point — the §III-D regression hook).
    pub fn eval_init(
        &self,
        config: &PayloadConfig,
        freq_mhz: f64,
        init: InitScheme,
    ) -> ThrottleResult {
        let mut points = self.eval_points(config, init, &[freq_mhz]);
        points.pop().expect("one point per frequency")
    }

    /// [`Engine::eval_init`] at every frequency in `freqs_mhz`: one
    /// payload lookup and one cached functional pass serve all of them —
    /// the fleet table build asks for all of a class's P-states in one
    /// call. Results are bit-identical to per-frequency
    /// [`Engine::eval_init`] calls, in input order.
    pub fn eval_points(
        &self,
        config: &PayloadConfig,
        init: InitScheme,
        freqs_mhz: &[f64],
    ) -> Vec<ThrottleResult> {
        let (payload, outcome) =
            self.payload_and_outcome(config, init, self.seed, Engine::EVAL_FUNCTIONAL_ITERS);
        let trivial_fraction = outcome.stats.trivial_fraction();
        freqs_mhz
            .iter()
            .map(|&f| self.eval_payload(&payload, f, trivial_fraction))
            .collect()
    }

    /// Raw operating-point solve for an already-built payload with an
    /// explicit trivial fraction (no cache traffic; callers that hold a
    /// `Payload` but no config, e.g. ablation experiments).
    pub fn eval_payload(
        &self,
        payload: &Payload,
        freq_mhz: f64,
        trivial_fraction: f64,
    ) -> ThrottleResult {
        self.evals.fetch_add(1, Ordering::Relaxed);
        solve_throttle(
            &self.sim,
            &self.power_model,
            &payload.kernel,
            freq_mhz,
            None,
            trivial_fraction,
        )
    }

    /// Number of [`Engine::eval`] operating-point solves so far (the
    /// registry aggregates this across engines for fleet reports).
    pub fn eval_count(&self) -> u64 {
        self.evals.load(Ordering::Relaxed)
    }

    /// A fresh measurement session on its own simulated clock, seeded
    /// with the engine default.
    pub fn session(&self) -> Session<'_> {
        self.session_with_seed(self.seed)
    }

    /// A fresh measurement session with an explicit seed.
    pub fn session_with_seed(&self, seed: u64) -> Session<'_> {
        Session {
            engine: self,
            runner: Runner::with_seed(self.sku.clone(), seed),
        }
    }

    /// One-shot measurement: fresh session, cached payload, single run.
    pub fn measure(&self, config: &PayloadConfig, run_cfg: &RunConfig) -> RunResult {
        self.session().run(config, run_cfg)
    }

    /// Evaluates `worker` over `items` on up to `threads` OS threads
    /// through [`fan_out`]: items are pulled from a shared work queue,
    /// results land in input order, and `threads == 0` uses the host
    /// parallelism. Every worker sees the same `&Engine` — payload-cache
    /// hits are shared across the sweep.
    ///
    /// Item evaluations must be independent (each typically opens its own
    /// [`Session`]); under that contract the result vector is
    /// bitwise-identical to a serial `items.iter().map(...)` pass.
    pub fn sweep<T, R, F>(&self, items: &[T], threads: usize, worker: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&Engine, usize, &T) -> R + Sync,
    {
        fan_out(items, threads, |i, item| worker(self, i, item))
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("sku", &self.sku.name)
            .field("seed", &self.seed)
            .field("cache", &self.cache_stats())
            .finish()
    }
}

/// One measurement session: a [`Runner`] (simulated clock, session-long
/// power trace, thermal state) bound to its engine's payload cache.
/// Everything the CLI, the experiments and the tuning loop previously
/// wired by hand goes through here.
pub struct Session<'e> {
    engine: &'e Engine,
    runner: Runner,
}

impl<'e> Session<'e> {
    /// The engine this session draws payloads from.
    pub fn engine(&self) -> &'e Engine {
        self.engine
    }

    pub fn sku(&self) -> &Sku {
        self.runner.sku()
    }

    /// Runs the cached payload for `config` under `run_cfg`, advancing
    /// the session clock. Goes through both engine cache tiers: the
    /// cached payload, then the ExecStats cache, which skips the
    /// functional pass (and its decode) entirely on a hit. An armed
    /// fault is served from the cache too: the runner flips it into a
    /// copy of the cached registers ([`Runner::run_with_functional`]).
    /// Results are bit-identical to [`Runner::run_kernel`] in every case.
    pub fn run(&mut self, config: &PayloadConfig, run_cfg: &RunConfig) -> RunResult {
        let (payload, outcome) = self.engine.payload_and_outcome(
            config,
            run_cfg.init,
            self.runner.seed(),
            run_cfg.functional_iters,
        );
        self.runner
            .run_with_functional(&payload.kernel, &outcome, run_cfg)
    }

    /// Runs the cached payload for a group string (default mix/unroll).
    pub fn run_spec(
        &mut self,
        spec: &str,
        run_cfg: &RunConfig,
    ) -> Result<RunResult, GroupParseError> {
        let config = self.engine.config_for_spec(spec)?;
        Ok(self.run(&config, run_cfg))
    }

    /// Runs an already-built payload (e.g. one handed out by
    /// [`Engine::payload`] before a sweep).
    pub fn run_payload(&mut self, payload: &Payload, run_cfg: &RunConfig) -> RunResult {
        self.runner.run(payload, run_cfg)
    }

    /// Runs a raw kernel (baselines, hand-built ablation kernels).
    pub fn run_kernel(&mut self, kernel: &fs2_sim::Kernel, run_cfg: &RunConfig) -> RunResult {
        self.runner.run_kernel(kernel, run_cfg)
    }

    /// Runs the §III-C self-tuning loop on this session's runner
    /// ([`crate::autotune::AutoTuner::run`]). The loop stays off the
    /// engine's cache tiers: every candidate is built and executed once,
    /// and NSGA-II's own genome memo answers revisits, so a tune leaves
    /// [`Engine::cache_stats`] untouched.
    pub fn tune(&mut self, cfg: &crate::autotune::TuneConfig) -> crate::autotune::TuneResult {
        crate::autotune::AutoTuner::run(&mut self.runner, cfg)
    }

    /// Records idle time on the session trace.
    pub fn idle(&mut self, duration_s: f64, sample_rate_hz: f64) {
        self.runner.idle(duration_s, sample_rate_hz);
    }

    /// Records constant-power time (preheat etc.) on the session trace.
    pub fn hold_power(&mut self, duration_s: f64, sample_rate_hz: f64, base_w: f64) {
        self.runner.hold_power(duration_s, sample_rate_hz, base_w);
    }

    /// Arms a single-bit register fault for the next error-detection run.
    pub fn inject_fault_next_run(&mut self, lane: usize, reg: usize, bit: u32) {
        self.runner.inject_fault_next_run(lane, reg, bit);
    }

    /// The session-long power trace.
    pub fn trace(&self) -> &fs2_metrics::TimeSeries {
        self.runner.trace()
    }

    /// The session clock.
    pub fn clock(&self) -> &fs2_sim::SimClock {
        self.runner.clock()
    }

    pub fn power_model(&self) -> &NodePowerModel {
        self.runner.power_model()
    }

    /// Escape hatch for consumers that still take `&mut Runner` (legacy
    /// baselines, the v1.x tuning prototype).
    pub fn runner_mut(&mut self) -> &mut Runner {
        &mut self.runner
    }

    pub fn runner(&self) -> &Runner {
        &self.runner
    }
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("sku", &self.runner.sku().name)
            .field("t_s", &self.runner.clock().now_secs())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::groups::parse_groups;

    fn engine() -> Engine {
        Engine::new(Sku::amd_epyc_7502())
    }

    fn quick_cfg(freq: f64) -> RunConfig {
        RunConfig {
            freq_mhz: freq,
            duration_s: 10.0,
            start_delta_s: 2.0,
            stop_delta_s: 1.0,
            functional_iters: 200,
            ..RunConfig::default()
        }
    }

    #[test]
    fn payload_cache_hits_and_misses_are_counted() {
        let e = engine();
        let cfg = e.config_for_spec("REG:4,L1_L:2,L2_L:1").unwrap();
        assert_eq!(e.cache_stats().requests(), 0);

        let p1 = e.payload(&cfg);
        let s = e.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (0, 1, 1));

        let p2 = e.payload(&cfg);
        let s = e.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(Arc::ptr_eq(&p1, &p2), "hit must return the cached payload");

        // A different unroll is a different workload.
        let mut cfg2 = cfg.clone();
        cfg2.unroll += 7;
        let _ = e.payload(&cfg2);
        let s = e.cache_stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 2, 2));
    }

    #[test]
    fn cached_payload_is_identical_to_fresh_build() {
        let e = engine();
        let cfg = e.config_for_spec("REG:2,L1_LS:1,RAM_P:1").unwrap();
        let cached = e.payload(&cfg);
        let cached_again = e.payload(&cfg);
        let fresh = build_payload(e.sku(), &cfg);
        assert_eq!(cached.machine_code, fresh.machine_code);
        assert_eq!(cached_again.machine_code, fresh.machine_code);
        assert_eq!(cached.kernel, fresh.kernel);
        assert_eq!(cached.sequence, fresh.sequence);
    }

    #[test]
    fn session_run_equals_direct_runner_path() {
        let e = engine();
        let cfg = e.config_for_spec("REG:1").unwrap();
        let run_cfg = quick_cfg(1500.0);
        let via_session = e.session().run(&cfg, &run_cfg);

        let payload = build_payload(e.sku(), &cfg);
        let mut runner = Runner::with_seed(e.sku().clone(), e.seed());
        let direct = runner.run(&payload, &run_cfg);
        assert_eq!(via_session.power, direct.power);
        assert_eq!(via_session.applied_freq_mhz, direct.applied_freq_mhz);
        assert_eq!(via_session.ipc, direct.ipc);
    }

    #[test]
    fn sweep_parallel_matches_serial_bitwise() {
        let e = engine();
        let specs = [
            "REG:1",
            "REG:4,L1_L:2",
            "REG:4,L1_2LS:2,L2_LS:1",
            "REG:6,L1_2LS:3,L2_LS:1,L3_LS:1",
            "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1",
            "REG:2,RAM_LS:2",
            "L1_L:1",
            "REG:10,L1_2LS:4,L2_LS:2,L3_LS:1,RAM_L:1",
        ];
        let worker = |e: &Engine, _i: usize, spec: &&str| {
            let cfg = e.config_for_spec(spec).unwrap();
            let r = e.session().run(&cfg, &quick_cfg(1500.0));
            (r.power, r.applied_freq_mhz, r.ipc, r.events)
        };
        let serial = e.sweep(&specs, 1, worker);
        let parallel = e.sweep(&specs, 4, worker);
        assert_eq!(serial, parallel);
        // And the sweep populated the shared cache once per spec.
        assert_eq!(e.cache_stats().entries, specs.len());
    }

    #[test]
    fn sweep_preserves_input_order() {
        let e = engine();
        let items: Vec<usize> = (0..100).collect();
        let out = e.sweep(&items, 8, |_, i, &item| {
            assert_eq!(i, item);
            item * 3
        });
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn eval_matches_runner_scale() {
        let e = engine();
        let cfg = e.config_for_spec("REG:1").unwrap();
        assert_eq!(e.eval_count(), 0);
        let r = e.eval(&cfg, 1500.0);
        assert!((180.0..280.0).contains(&r.power.total_w()));
        let _ = e.eval(&cfg, 2200.0);
        assert_eq!(e.eval_count(), 2, "eval counter must track solves");
        // Both evals share one cached functional pass for the trivial
        // fraction.
        let s = e.cache_stats();
        assert_eq!((s.exec_misses, s.exec_hits), (1, 1));
    }

    #[test]
    fn trivial_heavy_payload_changes_the_eval_point() {
        // §III-D: operand values matter. The v1.74 buggy init drives
        // nearly every FMA operand denormal/trivial, which the power
        // composition discounts — the same workload must evaluate to a
        // different (lower-power) operating point than under the safe
        // init, i.e. the cached trivial fraction is actually wired into
        // `Engine::eval`, not hard-coded to 0.0.
        let e = engine();
        let cfg = e.config_for_spec("REG:4,L1_L:2").unwrap();
        let dense = e.eval(&cfg, 1500.0);
        let trivial = e.eval_init(&cfg, 1500.0, InitScheme::V174Buggy);
        assert!(
            trivial.power.total_w() < dense.power.total_w(),
            "trivial-heavy payload must evaluate below the dense point \
             ({} W !< {} W)",
            trivial.power.total_w(),
            dense.power.total_w()
        );
    }

    #[test]
    fn eval_points_matches_per_call_eval_bitwise() {
        let e = engine();
        let specs = ["REG:1", "REG:4,L1_L:2", "REG:2,RAM_LS:2"];
        let freqs = [1200.0, 1500.0, 2200.0];
        let configs: Vec<PayloadConfig> = specs
            .iter()
            .map(|s| e.config_for_spec(s).unwrap())
            .collect();
        let batched: Vec<Vec<ThrottleResult>> = configs
            .iter()
            .map(|c| e.eval_points(c, InitScheme::V2Safe, &freqs))
            .collect();

        let fresh = engine();
        for (config, points) in configs.iter().zip(&batched) {
            assert_eq!(points.len(), freqs.len());
            for (&f, point) in freqs.iter().zip(points) {
                let single = fresh.eval(config, f);
                assert_eq!(point.power, single.power);
                assert_eq!(point.applied_mhz.to_bits(), single.applied_mhz.to_bits());
            }
        }
        // One functional pass per distinct workload serves all freqs.
        let s = e.cache_stats();
        assert_eq!(s.exec_misses as usize, specs.len());
        assert_eq!(e.eval_count(), (specs.len() * freqs.len()) as u64);
    }

    #[test]
    fn concurrent_payload_requests_converge_to_one_entry() {
        let e = engine();
        let cfg = e.config_for_spec("REG:4,L1_L:2,L2_L:1").unwrap();
        let items = vec![(); 16];
        let payloads = e.sweep(&items, 8, |e, _, _| e.payload(&cfg));
        let s = e.cache_stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.requests(), 16);
        // Whatever raced, everyone must observe identical bytes.
        for p in &payloads {
            assert_eq!(p.machine_code, payloads[0].machine_code);
        }
    }

    #[test]
    fn bad_spec_is_reported() {
        let e = engine();
        let err = e.payload_for_spec("L9_X:1").unwrap_err();
        assert_eq!(err, parse_groups("L9_X:1").unwrap_err());
        // A bad spec is rejected before either tier is consulted.
        let s = e.cache_stats();
        assert_eq!(s.requests(), 0, "a bad spec must build nothing");
        assert_eq!(s.exec_hits + s.exec_misses, 0);
    }

    #[test]
    fn many_threads_one_key_counts_one_miss() {
        // Regression: concurrent misses on the same key used to count one
        // miss *per builder*. With entry-based insertion exactly one
        // thread counts the miss, losers count as hits, and every caller
        // gets the winner's Arc — whatever the interleaving.
        let e = engine();
        let cfg = e.config_for_spec("REG:4,L1_L:2,L2_L:1").unwrap();
        const N: usize = 16;
        let barrier = std::sync::Barrier::new(N);
        let payloads: Vec<Arc<Payload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait(); // maximize same-key contention
                        e.payload(&cfg)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let s = e.cache_stats();
        assert_eq!(s.misses, 1, "racing builders must count one miss");
        assert_eq!(s.hits, (N - 1) as u64);
        assert_eq!(s.entries, 1);
        let cached = e.payload(&cfg);
        for p in &payloads {
            assert!(
                Arc::ptr_eq(p, &cached),
                "every caller must observe the single cached Arc"
            );
        }
    }

    #[test]
    fn exec_stats_cache_hits_are_bit_identical() {
        let e = engine();
        let cfg = e.config_for_spec("REG:2,L1_LS:1").unwrap();
        let cold = e.functional_outcome(&cfg, InitScheme::V2Safe, 7, 120);
        let warm = e.functional_outcome(&cfg, InitScheme::V2Safe, 7, 120);
        assert!(Arc::ptr_eq(&cold, &warm), "hit must return the cached Arc");
        let s = e.cache_stats();
        assert_eq!((s.exec_hits, s.exec_misses, s.exec_entries), (1, 1, 1));

        // The cached outcome equals an uncached executor pass, bit for bit.
        let (_, decoded) = e.payload_decoded(&cfg);
        let live = fs2_sim::run_functional(&decoded, InitScheme::V2Safe, 7, 120);
        assert_eq!(*cold, live);

        // Init scheme, seed, and iteration count are all part of the key.
        let _ = e.functional_outcome(&cfg, InitScheme::V174Buggy, 7, 120);
        let _ = e.functional_outcome(&cfg, InitScheme::V2Safe, 8, 120);
        let _ = e.functional_outcome(&cfg, InitScheme::V2Safe, 7, 121);
        assert_eq!(e.cache_stats().exec_entries, 4);
    }

    #[test]
    fn session_run_hits_exec_cache_on_repeat() {
        let e = engine();
        let cfg = e.config_for_spec("REG:2,L1_LS:1").unwrap();
        let run_cfg = quick_cfg(1500.0);
        let first = e.session().run(&cfg, &run_cfg);
        let second = e.session().run(&cfg, &run_cfg);
        assert_eq!(first.power, second.power);
        assert_eq!(first.trivial_fraction, second.trivial_fraction);
        let s = e.cache_stats();
        assert_eq!(s.exec_misses, 1, "one live functional pass");
        assert_eq!(s.exec_hits, 1, "repeat run must be served from cache");
    }

    #[test]
    fn armed_faults_are_detected_from_the_cached_pass() {
        let e = engine();
        let cfg = e.config_for_spec("REG:2,L1_LS:1").unwrap();
        let mut run_cfg = quick_cfg(1500.0);
        run_cfg.error_detection = true;

        // Warm every tier with a clean run.
        let clean = e.session().run(&cfg, &run_cfg);
        assert_eq!(clean.error_check_passed, Some(true));
        let warm = e.cache_stats();

        // An armed fault is flipped into the cached outcome's registers:
        // the divergence is detected without a live functional pass.
        let mut session = e.session();
        session.inject_fault_next_run(2, 5, 51);
        let faulted = session.run(&cfg, &run_cfg);
        assert_eq!(faulted.error_check_passed, Some(false));
        let s = e.cache_stats();
        assert_eq!(s.exec_hits, warm.exec_hits + 1, "fault run must hit");
        assert_eq!(s.exec_misses, warm.exec_misses, "fault run must not fill");

        // The fault is one-shot: the next run is clean and cache-served.
        let after = session.run(&cfg, &run_cfg);
        assert_eq!(after.error_check_passed, Some(true));
        assert_eq!(e.cache_stats().exec_hits, warm.exec_hits + 2);
    }

    #[test]
    fn concurrent_exec_requests_converge_to_one_entry() {
        let e = engine();
        let cfg = e.config_for_spec("REG:2,L1_LS:1").unwrap();
        let items = vec![(); 8];
        let outcomes = e.sweep(&items, 4, |e, _, _| {
            e.functional_outcome(&cfg, InitScheme::V2Safe, 5, 100)
        });
        let s = e.cache_stats();
        assert_eq!(s.exec_entries, 1);
        assert_eq!(s.exec_misses, 1, "racing passes must count one miss");
        assert_eq!(s.exec_hits + s.exec_misses, 8);
        for o in &outcomes {
            assert_eq!(o.state_hash, outcomes[0].state_hash);
        }
    }

    #[test]
    fn sweep_handles_empty_items() {
        let e = engine();
        let items: [u32; 0] = [];
        let out = e.sweep(&items, 4, |_, _, &x| x * 2);
        assert!(out.is_empty());
    }

    #[test]
    fn sweep_with_more_threads_than_items() {
        let e = engine();
        let items = [10u32, 20, 30];
        let out = e.sweep(&items, 64, |_, i, &x| (i, x + 1));
        assert_eq!(out, vec![(0, 11), (1, 21), (2, 31)]);
    }

    #[test]
    fn sweep_zero_threads_on_single_item() {
        // threads == 0 means "host parallelism"; with one item it must
        // degrade to the serial path, not spawn an empty pool.
        let e = engine();
        let items = [7u64];
        let out = e.sweep(&items, 0, |_, i, &x| x + i as u64);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn sweep_worker_panic_reaches_the_caller() {
        let e = engine();
        let items: Vec<usize> = (0..12).collect();
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                e.sweep(&items, threads, |_, _, &x| {
                    if x == 5 {
                        panic!("item {x} exploded");
                    }
                    x
                })
            }));
            let payload = caught.expect_err("the worker panic must reach the caller");
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .unwrap_or_default();
            assert!(msg.contains("item 5 exploded"), "{threads} threads: {msg}");
        }
    }
}
