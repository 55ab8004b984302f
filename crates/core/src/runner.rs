//! Workload execution on simulated time.
//!
//! The runner owns the simulated clock, a session-long power trace (the
//! raw material of Fig. 6/7), a first-order thermal state (the reason the
//! paper preheats for 240 s and excludes 120 s from measurements), and
//! the error-detection / register-dump features of §III-D.

use crate::payload::Payload;
use fs2_arch::Sku;
use fs2_metrics::metric::Summary;
use fs2_metrics::TimeSeries;
use fs2_power::{solve_throttle, NodePowerModel, PowerBreakdown};
use fs2_sim::{
    run_functional, state_hash_of, DecodedKernel, FunctionalOutcome, HwEvents, InitScheme, Kernel,
    SimClock, SystemSim, LANES,
};

/// Per-run parameters (CLI: `-t`, `--start-delta`, `--stop-delta`, …).
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Requested core frequency (a selectable P-state), MHz.
    pub freq_mhz: f64,
    /// Workload duration in seconds (`-t`).
    pub duration_s: f64,
    /// Seconds excluded from the start of the measurement window
    /// (`--start-delta`, paper default 5 s).
    pub start_delta_s: f64,
    /// Seconds excluded from the end (`--stop-delta`, default 2 s).
    pub stop_delta_s: f64,
    /// Cores running the workload (`None` = all).
    pub active_cores: Option<u32>,
    /// Register/buffer initialization (v2 safe vs. v1.7.4 bug).
    pub init: InitScheme,
    /// Iterations of value-level execution used to measure operand
    /// triviality and drive error detection.
    pub functional_iters: u64,
    /// Compare register-state hashes across simulated cores (§III-D).
    pub error_detection: bool,
    /// Capture a register dump after execution (`--dump-registers`).
    pub dump_registers: bool,
    /// Power-meter sampling rate (LMG95: 20 Sa/s).
    pub sample_rate_hz: f64,
    /// External device power added on top of the node model (GPUs).
    pub external_w: f64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            freq_mhz: 0.0, // caller must set; 0 = use nominal
            duration_s: 10.0,
            start_delta_s: 5.0,
            stop_delta_s: 2.0,
            active_cores: None,
            init: InitScheme::V2Safe,
            functional_iters: 1500,
            error_detection: false,
            dump_registers: false,
            sample_rate_hz: 20.0,
            external_w: 0.0,
        }
    }
}

/// Everything measured during one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Windowed node power (deltas applied).
    pub power: Summary,
    /// Steady-state decomposition at the applied frequency.
    pub breakdown: PowerBreakdown,
    pub requested_freq_mhz: f64,
    /// EDC-throttled applied frequency (Fig. 12c's metric).
    pub applied_freq_mhz: f64,
    pub throttled: bool,
    /// Steady-state IPC per core.
    pub ipc: f64,
    /// Data-cache accesses per cycle per core (Fig. 9's third metric).
    pub dc_access_rate: f64,
    /// Per-core hardware events over the run.
    pub events: HwEvents,
    /// Fraction of FP lane operations with trivial operands.
    pub trivial_fraction: f64,
    /// `Some(true)` = all cores agree; `Some(false)` = divergence found.
    pub error_check_passed: Option<bool>,
    /// Register dump, if requested.
    pub register_dump: Option<String>,
    /// Measurement window on the session clock.
    pub t_start_s: f64,
    pub t_stop_s: f64,
}

/// First-order thermal model: heat level in [0, 1] trailing power with a
/// time constant; hot silicon leaks more, raising measured power by up to
/// `LEAK_GAIN`. This is what the 240 s preheat of §III-C cancels.
#[derive(Debug, Clone, Copy)]
struct Thermal {
    heat: f64,
}

const THERMAL_TAU_S: f64 = 60.0;
const LEAK_GAIN: f64 = 0.035;
/// Node power that saturates the thermal envelope.
const HEAT_SCALE_W: f64 = 500.0;

impl Thermal {
    fn new() -> Thermal {
        Thermal { heat: 0.0 }
    }

    /// Advances by `dt` seconds at `power_w`, returning the heat level.
    fn step(&mut self, power_w: f64, dt: f64) -> f64 {
        let target = (power_w / HEAT_SCALE_W).clamp(0.0, 1.0);
        let alpha = 1.0 - (-dt / THERMAL_TAU_S).exp();
        self.heat += (target - self.heat) * alpha;
        self.heat
    }
}

/// The workload runner.
pub struct Runner {
    sim: SystemSim,
    power_model: NodePowerModel,
    clock: SimClock,
    trace: TimeSeries,
    thermal: Thermal,
    seed: u64,
    pending_fault: Option<(usize, usize, u32)>,
}

impl Runner {
    pub fn new(sku: Sku) -> Runner {
        Runner::with_seed(sku, 0xF12E_57A2)
    }

    pub fn with_seed(sku: Sku, seed: u64) -> Runner {
        Runner {
            sim: SystemSim::new(sku.clone()),
            power_model: NodePowerModel::new(sku),
            clock: SimClock::new(),
            trace: TimeSeries::new(),
            thermal: Thermal::new(),
            seed,
            pending_fault: None,
        }
    }

    pub fn sku(&self) -> &Sku {
        self.sim.sku()
    }

    /// The seed functional executors are created with — part of the
    /// engine's ExecStats cache key.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The session-long power trace (Fig. 6/7 raw data).
    pub fn trace(&self) -> &TimeSeries {
        &self.trace
    }

    pub fn power_model(&self) -> &NodePowerModel {
        &self.power_model
    }

    /// Arms a single-bit register fault for the next error-detection run
    /// (silent-data-corruption test). Every simulated core replays the
    /// same deterministic pass, so the run flips the fault into a copy
    /// of that pass's final registers: the state of the core that went
    /// wrong. Runs with detection off leave the fault armed.
    pub fn inject_fault_next_run(&mut self, lane: usize, reg: usize, bit: u32) {
        self.pending_fault = Some((reg, lane, bit));
    }

    /// Deterministic sampling ripple: ±0.4 % measurement noise, phase
    /// derived from time so traces are reproducible.
    fn ripple(t_s: f64, base_w: f64) -> f64 {
        base_w * 0.004 * (t_s * 2.7).sin()
    }

    /// Records `duration_s` of idle (between-candidate gaps of the v1.x
    /// tuning prototype — the dips in Fig. 6).
    pub fn idle(&mut self, duration_s: f64, sample_rate_hz: f64) {
        let idle_w = self.power_model.idle_power().total_w();
        self.advance_recording(duration_s, sample_rate_hz, idle_w);
    }

    /// Records `duration_s` at an arbitrary constant base power (used by
    /// the v1 prototype's compile phase, which is busy on one core).
    pub fn hold_power(&mut self, duration_s: f64, sample_rate_hz: f64, base_w: f64) {
        self.advance_recording(duration_s, sample_rate_hz, base_w);
    }

    fn advance_recording(&mut self, duration_s: f64, sample_rate_hz: f64, base_w: f64) {
        assert!(duration_s >= 0.0 && sample_rate_hz > 0.0);
        let dt = 1.0 / sample_rate_hz;
        let t0 = self.clock.now_secs();
        let mut t = t0;
        while t < t0 + duration_s {
            let heat = self.thermal.step(base_w, dt);
            let w = base_w * (1.0 + LEAK_GAIN * heat) + Self::ripple(t, base_w);
            self.trace.push(t, w);
            t += dt;
        }
        self.clock.advance_secs(duration_s);
    }

    /// Runs a payload under `cfg`, advancing the session clock.
    pub fn run(&mut self, payload: &Payload, cfg: &RunConfig) -> RunResult {
        self.run_kernel(&payload.kernel, cfg)
    }

    /// Runs a raw kernel (used by baselines and tests): decodes it, runs
    /// the §III-D value pass once, and finishes the run from that
    /// outcome through [`Runner::run_with_functional`].
    pub fn run_kernel(&mut self, kernel: &Kernel, cfg: &RunConfig) -> RunResult {
        let decoded = DecodedKernel::new(kernel);
        let functional = run_functional(&decoded, cfg.init, self.seed, cfg.functional_iters);
        self.run_with_functional(kernel, &functional, cfg)
    }

    /// Runs a kernel whose functional pass is already computed (live by
    /// [`Runner::run_kernel`] or by the autotuner's per-candidate pass,
    /// or from the engine's ExecStats cache).
    ///
    /// `functional` must describe a pass of this kernel under
    /// `(cfg.init, self.seed(), cfg.functional_iters)`; with that
    /// contract the result is the same whichever front end computed it.
    pub fn run_with_functional(
        &mut self,
        kernel: &Kernel,
        functional: &FunctionalOutcome,
        cfg: &RunConfig,
    ) -> RunResult {
        // 1. Results of the value-level pass: operand triviality, the
        //    error-detection verdict and the register dump.
        let trivial_fraction = functional.stats.trivial_fraction();
        let error_check_passed = self.error_check(functional, cfg);
        let register_dump = cfg.dump_registers.then(|| functional.register_dump());
        let freq = if cfg.freq_mhz > 0.0 {
            cfg.freq_mhz
        } else {
            f64::from(self.sku().nominal_mhz())
        };

        // 2. EDC-aware steady state.
        let throttle = solve_throttle(
            &self.sim,
            &self.power_model,
            kernel,
            freq,
            cfg.active_cores,
            trivial_fraction,
        );
        let base_w = throttle.power.total_w() + cfg.external_w;

        // 3. Power trace over the run window.
        let t_start = self.clock.now_secs();
        self.advance_recording(cfg.duration_s, cfg.sample_rate_hz, base_w);
        let t_stop = self.clock.now_secs();

        // 4. Hardware events at the applied frequency.
        let (_, events) = self.sim.run(
            kernel,
            throttle.applied_mhz,
            cfg.duration_s * 1e9,
            cfg.active_cores,
        );

        let power = Summary::windowed(
            &self.trace,
            t_start,
            t_stop,
            cfg.start_delta_s,
            cfg.stop_delta_s,
        )
        .unwrap_or(Summary {
            mean: base_w,
            min: base_w,
            max: base_w,
            stddev: 0.0,
            samples: 0,
            window_s: 0.0,
        });

        RunResult {
            power,
            breakdown: throttle.power.with_external(cfg.external_w),
            requested_freq_mhz: freq,
            applied_freq_mhz: throttle.applied_mhz,
            throttled: throttle.throttled,
            ipc: throttle.node.core.ipc,
            dc_access_rate: throttle.node.core.dc_accesses_per_cycle,
            events,
            trivial_fraction,
            error_check_passed,
            register_dump,
            t_start_s: t_start,
            t_stop_s: t_stop,
        }
    }

    /// The §III-D verdict: `None` with detection off (an armed fault
    /// stays armed). With detection on, the second core's state is the
    /// same replay as `functional`, with the armed fault (if any) taken
    /// and flipped into a copy of its registers; the check passes when
    /// the hashes agree.
    fn error_check(&mut self, functional: &FunctionalOutcome, cfg: &RunConfig) -> Option<bool> {
        if !cfg.error_detection {
            return None;
        }
        let mut registers = functional.registers;
        if let Some((reg, lane, bit)) = self.pending_fault.take() {
            let v = &mut registers[reg % 16][lane % LANES];
            *v = f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)));
        }
        Some(state_hash_of(&registers) == functional.state_hash)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::groups::parse_groups;
    use crate::mix::InstructionMix;
    use crate::payload::{build_payload, PayloadConfig};
    use fs2_sim::Executor;

    fn rome_config(groups: &str, unroll: u32) -> PayloadConfig {
        PayloadConfig {
            mix: InstructionMix::FMA,
            groups: parse_groups(groups).unwrap(),
            unroll,
        }
    }

    fn rome_payload(groups: &str, unroll: u32) -> Payload {
        build_payload(&Sku::amd_epyc_7502(), &rome_config(groups, unroll))
    }

    fn quick_cfg(freq: f64) -> RunConfig {
        RunConfig {
            freq_mhz: freq,
            duration_s: 10.0,
            start_delta_s: 2.0,
            stop_delta_s: 1.0,
            functional_iters: 500,
            ..RunConfig::default()
        }
    }

    #[test]
    fn run_produces_consistent_result() {
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 512);
        let r = runner.run(&p, &quick_cfg(1500.0));
        assert!(r.power.mean > 150.0 && r.power.mean < 350.0);
        assert!(!r.throttled);
        assert_eq!(r.applied_freq_mhz, 1500.0);
        assert!(r.ipc > 3.5);
        assert_eq!(r.trivial_fraction, 0.0);
        assert!(r.events.iterations > 0);
        assert_eq!(r.error_check_passed, None);
        assert!(r.t_stop_s > r.t_start_s);
    }

    #[test]
    fn clock_and_trace_advance_across_runs() {
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 256);
        let r1 = runner.run(&p, &quick_cfg(1500.0));
        let r2 = runner.run(&p, &quick_cfg(1500.0));
        assert!(r2.t_start_s >= r1.t_stop_s);
        assert_eq!(runner.clock().now_secs(), 20.0);
        // 20 Sa/s × 20 s = 400 samples.
        assert_eq!(runner.trace().len(), 400);
    }

    #[test]
    fn thermal_warm_up_raises_power_toward_steady_state() {
        // The §III-C rationale for preheat: a cold node measures lower.
        let mut cold = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 512);
        let cold_r = cold.run(&p, &quick_cfg(1500.0));

        let mut hot = Runner::new(Sku::amd_epyc_7502());
        hot.hold_power(240.0, 20.0, 300.0); // preheat
        let hot_r = hot.run(&p, &quick_cfg(1500.0));
        assert!(
            hot_r.power.mean > cold_r.power.mean + 1.0,
            "preheat effect missing: cold {:.1} vs hot {:.1}",
            cold_r.power.mean,
            hot_r.power.mean
        );
    }

    #[test]
    fn idle_gap_shows_in_trace() {
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 256);
        runner.run(&p, &quick_cfg(1500.0));
        runner.idle(5.0, 20.0);
        runner.run(&p, &quick_cfg(1500.0));
        let (min, max) = runner
            .trace()
            .min_max_between(0.0, runner.clock().now_secs())
            .unwrap();
        // The idle dip is far below the load level.
        assert!(min < max * 0.7, "idle gap invisible: {min:.1}..{max:.1}");
    }

    #[test]
    fn error_detection_passes_clean_and_catches_faults() {
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:2,L1_LS:1", 63);
        let mut cfg = quick_cfg(1500.0);
        cfg.error_detection = true;
        let r = runner.run(&p, &cfg);
        assert_eq!(r.error_check_passed, Some(true));

        runner.inject_fault_next_run(2, 5, 51);
        let r = runner.run(&p, &cfg);
        assert_eq!(r.error_check_passed, Some(false));

        // Fault is one-shot.
        let r = runner.run(&p, &cfg);
        assert_eq!(r.error_check_passed, Some(true));
    }

    #[test]
    fn register_dump_available_on_request() {
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 64);
        let mut cfg = quick_cfg(1500.0);
        cfg.dump_registers = true;
        let r = runner.run(&p, &cfg);
        let dump = r.register_dump.expect("dump requested");
        assert!(dump.contains("ymm0"));
        assert!(dump.contains("ymm15"));
    }

    #[test]
    fn v174_init_lowers_power() {
        // §III-D: 314.1 W (v2.0) vs 305.6 W (v1.7.4).
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 512);
        let mut cfg = quick_cfg(2500.0);
        cfg.functional_iters = 2000;
        let healthy = runner.run(&p, &cfg);
        cfg.init = InitScheme::V174Buggy;
        let buggy = runner.run(&p, &cfg);
        assert!(buggy.trivial_fraction > 0.5);
        let delta = healthy.power.mean - buggy.power.mean;
        assert!(
            (2.0..20.0).contains(&delta),
            "v1.7.4 delta = {delta:.1} W (healthy {:.1}, buggy {:.1})",
            healthy.power.mean,
            buggy.power.mean
        );
    }

    /// The fields of a [`RunResult`] that must be bit-identical across
    /// the live and cached functional-pass front ends.
    fn fingerprint(r: &RunResult) -> (u64, u64, u64, Option<bool>, Option<String>, u64) {
        (
            r.power.mean.to_bits(),
            r.applied_freq_mhz.to_bits(),
            r.trivial_fraction.to_bits(),
            r.error_check_passed,
            r.register_dump.clone(),
            r.ipc.to_bits(),
        )
    }

    /// The two-core §III-D pass, kept as the oracle of the verdict: two
    /// executors replay `decoded` from one seed, the armed fault (given
    /// in [`Runner::inject_fault_next_run`]'s `(lane, reg, bit)` order)
    /// is flipped into the second after its run, and the check compares
    /// their state hashes. The first executor's outcome carries the
    /// register dump and the trivial fraction.
    fn two_core_oracle(
        decoded: &DecodedKernel,
        cfg: &RunConfig,
        seed: u64,
        fault: Option<(usize, usize, u32)>,
    ) -> (FunctionalOutcome, Option<bool>) {
        let mut ex0 = Executor::new(cfg.init, seed);
        ex0.run_decoded(decoded, cfg.functional_iters);
        let error_check_passed = cfg.error_detection.then(|| {
            let mut ex1 = Executor::new(cfg.init, seed);
            ex1.run_decoded(decoded, cfg.functional_iters);
            if let Some((lane, reg, bit)) = fault {
                ex1.inject_bit_flip(reg, lane, bit);
            }
            ex0.state_hash() == ex1.state_hash()
        });
        (ex0.outcome(), error_check_passed)
    }

    /// The §III-D bits of a run: verdict, register dump, trivial fraction.
    fn detection_bits(r: &RunResult) -> (Option<bool>, Option<String>, u64) {
        (
            r.error_check_passed,
            r.register_dump.clone(),
            r.trivial_fraction.to_bits(),
        )
    }

    #[test]
    fn live_and_cached_verdicts_match_the_two_core_oracle() {
        let sku = Sku::amd_epyc_7502();
        let p = rome_payload("REG:2,L1_LS:1", 63);
        let config = rome_config("REG:2,L1_LS:1", 63);
        let engine = Engine::new(sku.clone());
        let decoded = DecodedKernel::new(&p.kernel);
        let faults = [None, Some((2, 5, 51)), Some((0, 3, 0)), Some((3, 15, 63))];
        for init in [InitScheme::V2Safe, InitScheme::V174Buggy] {
            for error_detection in [false, true] {
                for fault in faults {
                    let mut cfg = quick_cfg(1500.0);
                    cfg.init = init;
                    cfg.error_detection = error_detection;
                    cfg.dump_registers = true;
                    let mut live = Runner::new(sku.clone());
                    let mut session = engine.session();
                    if let Some((lane, reg, bit)) = fault {
                        live.inject_fault_next_run(lane, reg, bit);
                        session.inject_fault_next_run(lane, reg, bit);
                    }
                    let (outcome, verdict) = two_core_oracle(&decoded, &cfg, live.seed(), fault);
                    let expected = (
                        verdict,
                        Some(outcome.register_dump()),
                        outcome.stats.trivial_fraction().to_bits(),
                    );
                    let live_r = live.run_kernel(&p.kernel, &cfg);
                    let cached_r = session.run(&config, &cfg);
                    let case = format!("{init:?}, detection {error_detection}, fault {fault:?}");
                    assert_eq!(detection_bits(&live_r), expected, "live: {case}");
                    assert_eq!(detection_bits(&cached_r), expected, "cached: {case}");
                    assert_eq!(fingerprint(&live_r), fingerprint(&cached_r), "{case}");
                }
            }
        }
    }

    #[test]
    fn a_fault_armed_without_detection_fails_the_next_detection_run() {
        let sku = Sku::amd_epyc_7502();
        let p = rome_payload("REG:2,L1_LS:1", 63);
        let config = rome_config("REG:2,L1_LS:1", 63);
        let engine = Engine::new(sku.clone());
        let off = quick_cfg(1500.0);
        let on = RunConfig {
            error_detection: true,
            ..off.clone()
        };

        let mut live = Runner::new(sku);
        live.inject_fault_next_run(2, 5, 51);
        assert_eq!(live.run_kernel(&p.kernel, &off).error_check_passed, None);
        assert_eq!(
            live.run_kernel(&p.kernel, &on).error_check_passed,
            Some(false)
        );
        assert_eq!(
            live.run_kernel(&p.kernel, &on).error_check_passed,
            Some(true)
        );

        let mut session = engine.session();
        session.inject_fault_next_run(2, 5, 51);
        assert_eq!(session.run(&config, &off).error_check_passed, None);
        assert_eq!(session.run(&config, &on).error_check_passed, Some(false));
        assert_eq!(session.run(&config, &on).error_check_passed, Some(true));
    }

    #[test]
    fn external_power_is_added() {
        let mut runner = Runner::new(Sku::amd_epyc_7502());
        let p = rome_payload("REG:1", 256);
        let base = runner.run(&p, &quick_cfg(1500.0));
        let mut cfg = quick_cfg(1500.0);
        cfg.external_w = 624.0; // 4 stressed K80s
        let with_gpu = runner.run(&p, &cfg);
        let delta = with_gpu.power.mean - base.power.mean;
        assert!((delta - 624.0).abs() < 40.0, "GPU delta = {delta:.1}");
    }
}
