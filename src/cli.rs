//! Command-line interface mirroring the paper's flags.
//!
//! Everything runs against the simulated node (DESIGN.md §2), so the CLI
//! additionally takes `--cpu` (which simulated system) and `--freq`
//! (which P-state; real FIRESTARTER leaves P-state selection to the OS).

use crate::prelude::*;
use fs2_cluster::{BudgetPolicy, TemporalMode};
use fs2_core::groups::format_groups;
use fs2_metrics::CsvWriter;
use fs2_service::FleetRequest;
use fs2_tuning::Nsga2Config;
use std::fmt;

/// CLI failure, printed to stderr with exit code 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// What the invocation asks for.
#[derive(Debug, Clone, PartialEq)]
enum Action {
    Help,
    Avail,
    ListMetrics,
    Measure,
    Optimize,
    Fleet,
    /// Run the fleet service on a TCP address until killed.
    Serve,
    /// Submit the fleet request to a remote `--serve` instance.
    Connect,
    /// Fit a fleet profile to a power trace (`--calibrate`).
    Calibrate,
}

/// Parsed configuration.
#[derive(Debug, Clone)]
pub struct CliConfig {
    action: Action,
    cpu: String,
    function: Option<String>,
    groups: Option<String>,
    line_count: Option<u32>,
    timeout_s: f64,
    freq_mhz: f64,
    start_delta_ms: f64,
    stop_delta_ms: f64,
    dump_registers: bool,
    error_detection: bool,
    /// `None` keeps [`RunConfig::default`]'s iteration count.
    functional_iters: Option<u64>,
    version_emulation: String,
    gpus: u32,
    gpu_init: String,
    individuals: usize,
    generations: u32,
    nsga2_m: f64,
    preheat_s: f64,
    /// `None` keeps each action's own default (measurement seed for
    /// Measure/Optimize, the Fig. 1 fleet seed for Fleet).
    seed: Option<u64>,
    /// The fleet flags, parsed straight into the request `--fleet` and
    /// `--connect` serve ([`FleetRequest::fig1`] without them);
    /// [`fleet_request`] adds `--seed`, `--shards` and `--profile`.
    fleet: FleetRequest,
    threads: usize,
    prescreen: bool,
    serve_addr: Option<String>,
    connect_addr: Option<String>,
    /// Shards per fleet request (0 = one per worker).
    shards: usize,
    /// Threads per request's shard pass (0 = host cores).
    workers: usize,
    /// Admission wait-queue bound.
    queue_depth: usize,
    /// Admission per-request node·sample cost cap.
    max_cost: u64,
    /// Total `--connect` attempts, including the first.
    retries: u32,
    /// Chaos injection periods (0 = off) and schedule seed.
    chaos_panic_every: u64,
    chaos_drop_every: u64,
    chaos_seed: u64,
    /// Write the reply's raw sample bits here (one hex u64 per line).
    dump_samples: Option<String>,
    /// Target trace CSV for `--calibrate`.
    calibrate_trace: Option<String>,
    /// Where `--calibrate` writes the fitted profile (default stdout).
    profile_out: Option<String>,
    /// Fleet profile driving `--fleet` / `--connect` runs.
    profile: Option<String>,
    /// Write the episode run's labeled trace CSV here.
    emit_trace: Option<String>,
}

/// Default RNG seed for Measure/Optimize runs.
const DEFAULT_SEED: u64 = 0xF12E_57A2;

/// The objective pair the tuner optimizes: the runner's node power and
/// the core model's IPC. `--optimization-metric` accepts nothing else.
const OPTIMIZATION_METRICS: &str = "sysfs-powercap-rapl,perf-ipc";

impl Default for CliConfig {
    fn default() -> CliConfig {
        CliConfig {
            action: Action::Measure,
            cpu: "rome".to_string(),
            function: None,
            groups: None,
            line_count: None,
            timeout_s: 10.0,
            freq_mhz: 0.0,
            start_delta_ms: 5000.0,
            stop_delta_ms: 2000.0,
            dump_registers: false,
            error_detection: false,
            functional_iters: None,
            version_emulation: "2.0".to_string(),
            gpus: 0,
            gpu_init: "device".to_string(),
            individuals: 40,
            generations: 20,
            nsga2_m: 0.35,
            preheat_s: 240.0,
            seed: None,
            fleet: FleetRequest::fig1(),
            threads: 0,
            prescreen: false,
            serve_addr: None,
            connect_addr: None,
            shards: 0,
            workers: 0,
            queue_depth: 64,
            max_cost: 1 << 30,
            retries: 1,
            chaos_panic_every: 0,
            chaos_drop_every: 0,
            chaos_seed: 0,
            dump_samples: None,
            calibrate_trace: None,
            profile_out: None,
            profile: None,
            emit_trace: None,
        }
    }
}

const HELP: &str = "\
firestarter2 — FIRESTARTER 2 reproduction (simulated hardware)

USAGE: firestarter2 [OPTIONS]

WORKLOAD
  -a, --avail                     list available instruction mixes
  -i, --function NAME             select the instruction mix (I)
  --run-instruction-groups SPEC   memory accesses M, e.g. REG:4,L1_L:2,L2_L:1
  --set-line-count N              unroll factor u
  -t, --timeout SECONDS           workload duration (default 10)
  --freq MHZ                      P-state frequency (default: nominal)
  --cpu {rome|haswell|generic}    simulated system (default rome)
  --version-emulation {2.0|1.7.4} register init scheme (§III-D bug)

MEASUREMENT
  --measurement                   print metric CSV after the run (always on)
  --start-delta MS                exclude window head (default 5000)
  --stop-delta MS                 exclude window tail (default 2000)
  --list-metrics                  list the metric CSV's rows and where
                                  each value comes from
  --dump-registers                dump vector registers after the run
  --error-detection               compare register state across cores
  --functional-iters N            value-level (§III-D) iterations for
                                  triviality measurement and error
                                  detection (default 1500)

GPUS
  --gpus N                        attach N simulated Tesla K80 cards
  --gpu-init {device|host}        matrix initialization strategy

FLEET (Fig. 1)
  --fleet                         simulate the Taurus Haswell fleet CDF
                                  through real per-node engines
  --nodes N                       fleet size (default 612, mixed SKUs)
  --samples-per-node N            60 s means per node (default 2000)
  --threads N                     --calibrate evaluation threads
                                  (default 0 = all cores); --fleet and
                                  --connect ignore it: --workers and
                                  --shards set their fan-out
  --fleet-temporal {iid|episodes} per-node sampling: independent minutes
                                  (default) or Markov job episodes with
                                  dwell times, ramps and idle hand-backs
  --cap-w W                       what-if per-node power cap: clamp each
                                  drawn P-state to the class's highest
                                  admissible one (per-sample)
  --budget-w W                    fleet-wide power budget per 60 s tick:
                                  admit node draws in node-id order,
                                  resolve the rest via --budget-policy
  --budget-policy {shed|defer}    shed drops a denied node to its idle
                                  floor for the tick; defer pushes the
                                  episode's remaining ticks later
                                  (default shed)

FLEET SERVICE
  --serve ADDR                    run the fleet service on ADDR
                                  (e.g. 127.0.0.1:7171) until killed;
                                  JSON-lines protocol, one request per
                                  line, nc-compatible
  --connect ADDR                  submit this invocation's fleet flags
                                  to a --serve instance and print the
                                  reply like a local --fleet run
  --shards N                      shards per request (0 = one/worker)
  --workers N                     threads per request's shards
                                  (0 = host cores)
  --queue-depth N                 admission wait-queue bound before the
                                  service sheds requests (default 64)
  --max-cost N                    reject requests above N node-samples
                                  (default 2^30)
  --deadline-ms MS                completion deadline in ms from
                                  admission; a request that overruns it
                                  fails typed instead of replying late
  --retries N                     total --connect attempts, with a
                                  seeded deterministic backoff between
                                  them (default 1 = no retry)
  --dump-samples PATH             write the reply's raw sample bits to
                                  PATH, one hex u64 per line

FAULT INJECTION (--serve / --fleet; off by default)
  --chaos-panic-every N           panic one shard task every Nth request
  --chaos-drop-every N            drop every Nth reply mid-stream and
                                  close the connection (TCP only)
  --chaos-seed N                  seeds the injection schedule; the
                                  same seed replays the same faults

FLEET CALIBRATION
  --calibrate TRACE.csv           fit a fleet profile to a per-node
                                  power trace (node,tick,power_w[,state])
                                  and print the clone-fidelity report;
                                  honours --seed, --threads,
                                  --individuals and --generations
  --profile-out PATH              write the fitted profile here
                                  (default: print it after the report)
  --profile PATH                  drive a --fleet or --connect run with
                                  a calibrated profile (forces episode
                                  mode; the profile rides the request)
  --emit-trace PATH               write the labeled per-node trace of a
                                  --fleet episode run without --budget-w
                                  to PATH, in the format --calibrate
                                  consumes

OPTIMIZATION (§III-C)
  --optimize=NSGA2                run the self-tuning loop
  --individuals N                 population size (default 40)
  --generations N                 generations (default 20)
  --nsga2-m P                     mutation probability (default 0.35)
  --preheat SECONDS               preheat duration (default 240)
  --prescreen                     score candidates with a traceless
                                  steady-state solve first and skip the
                                  full measured run for clear losers
  --optimization-metric A,B       objective pair; only the default
                                  sysfs-powercap-rapl,perf-ipc is accepted
  --seed N                        RNG seed

  -h, --help                      this help
";

fn parse_kv(
    arg: &str,
    args: &mut std::slice::Iter<'_, String>,
    key: &str,
) -> Result<Option<String>, CliError> {
    if let Some(rest) = arg.strip_prefix(&format!("{key}=")) {
        return Ok(Some(rest.to_string()));
    }
    if arg == key {
        return match args.next() {
            Some(v) => Ok(Some(v.clone())),
            None => Err(err(format!("{key} requires a value"))),
        };
    }
    Ok(None)
}

/// `key`'s value `v` through `parse`, or an error naming both.
fn flag_value<T>(key: &str, v: &str, parse: impl FnOnce(&str) -> Option<T>) -> Result<T, CliError> {
    parse(v).ok_or_else(|| err(format!("invalid value `{v}` for {key}")))
}

/// Parses an argument list (without the program name).
pub fn parse_args(argv: &[String]) -> Result<CliConfig, CliError> {
    let mut cfg = CliConfig::default();
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let a = arg.as_str();
        match a {
            "-h" | "--help" => cfg.action = Action::Help,
            "-a" | "--avail" => cfg.action = Action::Avail,
            "--list-metrics" => cfg.action = Action::ListMetrics,
            "--fleet" => cfg.action = Action::Fleet,
            // The metric CSV always prints; the flag stays accepted.
            "--measurement" => {}
            "--dump-registers" => cfg.dump_registers = true,
            "--error-detection" => cfg.error_detection = true,
            "--prescreen" => cfg.prescreen = true,
            _ if a == "--optimize" || a.starts_with("--optimize=") => {
                let v = a.strip_prefix("--optimize=").unwrap_or("NSGA2");
                if !v.eq_ignore_ascii_case("nsga2") {
                    return Err(err(format!("unknown optimizer `{v}` (only NSGA2)")));
                }
                cfg.action = Action::Optimize;
            }
            _ if a == "--optimization-metric" || a.starts_with("--optimization-metric=") => {
                let v = parse_kv(a, &mut args, "--optimization-metric")?
                    .expect("the guard matched the key");
                if v != OPTIMIZATION_METRICS {
                    return Err(err(format!(
                        "unsupported --optimization-metric `{v}` \
                         (the tuner optimizes {OPTIMIZATION_METRICS} only)"
                    )));
                }
            }
            _ => {
                let mut matched = false;
                // `opt!(key, slot)` parses the value into the slot's
                // type, `some slot` into an `Option` slot, and a third
                // argument names the parser.
                macro_rules! opt {
                    ($key:expr, some $slot:expr) => {
                        opt!($key, $slot, |v: &str| v.parse().ok().map(Some))
                    };
                    ($key:expr, $slot:expr) => {
                        opt!($key, $slot, |v: &str| v.parse().ok())
                    };
                    ($key:expr, $slot:expr, $parse:expr) => {
                        if !matched {
                            if let Some(v) = parse_kv(a, &mut args, $key)? {
                                $slot = flag_value($key, &v, $parse)?;
                                matched = true;
                            }
                        }
                    };
                }
                opt!("--cpu", cfg.cpu);
                opt!("-i", some cfg.function);
                opt!("--function", some cfg.function);
                opt!("--run-instruction-groups", some cfg.groups);
                opt!("--set-line-count", some cfg.line_count);
                opt!("-t", cfg.timeout_s);
                opt!("--timeout", cfg.timeout_s);
                opt!("--freq", cfg.freq_mhz);
                opt!("--start-delta", cfg.start_delta_ms);
                opt!("--stop-delta", cfg.stop_delta_ms);
                opt!("--functional-iters", some cfg.functional_iters);
                opt!("--version-emulation", cfg.version_emulation);
                opt!("--gpus", cfg.gpus);
                opt!("--gpu-init", cfg.gpu_init);
                opt!("--individuals", cfg.individuals);
                opt!("--generations", cfg.generations);
                opt!("--nsga2-m", cfg.nsga2_m);
                opt!("--preheat", cfg.preheat_s);
                opt!("--seed", some cfg.seed);
                opt!("--nodes", cfg.fleet.nodes);
                opt!("--samples-per-node", cfg.fleet.samples_per_node);
                opt!("--threads", cfg.threads);
                opt!(
                    "--fleet-temporal",
                    cfg.fleet.temporal,
                    TemporalMode::from_name
                );
                opt!("--cap-w", some cfg.fleet.power_cap_w);
                opt!("--budget-w", some cfg.fleet.budget_w);
                opt!(
                    "--budget-policy",
                    cfg.fleet.budget_policy,
                    BudgetPolicy::from_name
                );
                opt!("--serve", some cfg.serve_addr);
                opt!("--connect", some cfg.connect_addr);
                opt!("--shards", cfg.shards);
                opt!("--workers", cfg.workers);
                opt!("--queue-depth", cfg.queue_depth);
                opt!("--max-cost", cfg.max_cost);
                opt!("--deadline-ms", some cfg.fleet.deadline_ms);
                opt!("--retries", cfg.retries);
                opt!("--chaos-panic-every", cfg.chaos_panic_every);
                opt!("--chaos-drop-every", cfg.chaos_drop_every);
                opt!("--chaos-seed", cfg.chaos_seed);
                opt!("--dump-samples", some cfg.dump_samples);
                opt!("--calibrate", some cfg.calibrate_trace);
                opt!("--profile-out", some cfg.profile_out);
                opt!("--profile", some cfg.profile);
                opt!("--emit-trace", some cfg.emit_trace);
                if !matched {
                    return Err(err(format!("unknown argument `{a}` (see --help)")));
                }
            }
        }
    }
    // Validated here so both Measure and Optimize reject it instead of
    // tripping the payload builder's assert.
    if cfg.line_count == Some(0) {
        return Err(err("--set-line-count must be at least 1"));
    }
    if cfg.functional_iters == Some(0) {
        return Err(err("--functional-iters must be at least 1"));
    }
    // A negative or NaN duration trips the runner's recording assert,
    // and an infinite one never returns while the power trace grows.
    if !cfg.timeout_s.is_finite() || cfg.timeout_s < 0.0 {
        return Err(err(
            "-t/--timeout must be a finite number of seconds, at least 0",
        ));
    }
    if !cfg.preheat_s.is_finite() || cfg.preheat_s < 0.0 {
        return Err(err(
            "--preheat must be a finite number of seconds, at least 0",
        ));
    }
    // NSGA-II asserts both; --calibrate's search shares --individuals.
    if cfg.individuals < 2 {
        return Err(err("--individuals must be at least 2"));
    }
    if !(0.0..=1.0).contains(&cfg.nsga2_m) {
        return Err(err("--nsga2-m must be a probability in [0, 1]"));
    }
    // The fleet flags meet the service's own request contract.
    cfg.fleet
        .validate()
        .map_err(|e| err(format!("invalid fleet request: {e}")))?;
    if cfg.max_cost == 0 {
        return Err(err("--max-cost must be at least 1"));
    }
    if cfg.retries == 0 {
        return Err(err("--retries must be at least 1 (the first attempt)"));
    }
    let chaos_on = cfg.chaos_panic_every > 0 || cfg.chaos_drop_every > 0;
    if chaos_on && cfg.connect_addr.is_some() {
        return Err(err(
            "chaos injection lives server-side (use --serve or --fleet, not --connect)",
        ));
    }
    if cfg.serve_addr.is_some() && cfg.connect_addr.is_some() {
        return Err(err("--serve and --connect are mutually exclusive"));
    }
    if cfg.calibrate_trace.is_some() && (cfg.serve_addr.is_some() || cfg.connect_addr.is_some()) {
        return Err(err("--calibrate runs locally (drop --serve/--connect)"));
    }
    if cfg.profile_out.is_some() && cfg.calibrate_trace.is_none() {
        return Err(err("--profile-out needs --calibrate"));
    }
    if cfg.action != Action::Help {
        if cfg.calibrate_trace.is_some() {
            cfg.action = Action::Calibrate;
        } else if cfg.serve_addr.is_some() {
            cfg.action = Action::Serve;
        } else if cfg.connect_addr.is_some() {
            cfg.action = Action::Connect;
        }
    }
    if cfg.emit_trace.is_some() && cfg.action != Action::Fleet {
        return Err(err("--emit-trace needs a local --fleet run"));
    }
    Ok(cfg)
}

fn sku_for(cfg: &CliConfig) -> Result<Sku, CliError> {
    match cfg.cpu.to_ascii_lowercase().as_str() {
        "rome" | "epyc" | "zen2" => Ok(Sku::amd_epyc_7502()),
        "haswell" | "xeon" => Ok(Sku::intel_xeon_e5_2680_v3()),
        "generic" => Ok(Sku::generic()),
        other => Err(err(format!("unknown --cpu `{other}`"))),
    }
}

/// Executes a parsed configuration, returning the program output.
pub fn execute(cfg: &CliConfig) -> Result<String, CliError> {
    match cfg.action {
        Action::Help => Ok(HELP.to_string()),
        Action::Avail => {
            let sku = sku_for(cfg)?;
            let mut out = format!(
                "Available functions for {} ({}):\n",
                sku.name,
                sku.uarch.name()
            );
            for (i, m) in MixRegistry::available_for(sku.uarch).iter().enumerate() {
                out.push_str(&format!(
                    "  {} | {:5} | {}{}\n",
                    i + 1,
                    m.name,
                    m.description,
                    if i == 0 { "  (default)" } else { "" }
                ));
            }
            Ok(out)
        }
        Action::ListMetrics => Ok("\
Metrics (the measurement CSV's rows; --optimize tunes the first two):
  sysfs-powercap-rapl   node power [W] from the power model's windowed trace
  perf-ipc              instructions/cycle from the core model's steady state
  freq                  applied frequency [MHz] from the EDC throttle solve
  dc-access-rate        data-cache accesses/cycle from the core model
  trivial-fraction      trivial FP lane-op share from the value-level pass
"
        .to_string()),
        Action::Measure => run_measure(cfg),
        Action::Optimize => run_optimize(cfg),
        Action::Fleet => run_fleet(cfg),
        Action::Serve => run_serve(cfg),
        Action::Connect => run_connect(cfg),
        Action::Calibrate => run_calibrate(cfg),
    }
}

/// The request `--fleet` and `--connect` send: the fleet flags plus
/// `--seed` (without it, the Fig. 1 seed of the fig01/example
/// pipeline), `--shards` and the `--profile` file.
fn fleet_request(cfg: &CliConfig) -> Result<FleetRequest, CliError> {
    let profile = match &cfg.profile {
        None => None,
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| err(format!("--profile {path}: {e}")))?;
            let parsed = fs2_calib::FleetProfile::from_text(&text);
            Some(parsed.map_err(|e| err(format!("--profile {path}: {e}")))?)
        }
    };
    Ok(FleetRequest {
        seed: cfg.seed,
        shards: (cfg.shards > 0).then_some(cfg.shards),
        profile,
        ..cfg.fleet.clone()
    })
}

fn service_config_from_cli(cfg: &CliConfig) -> fs2_service::ServiceConfig {
    fs2_service::ServiceConfig {
        workers: cfg.workers,
        default_shards: cfg.shards,
        admission: fs2_service::AdmissionConfig {
            max_queue: cfg.queue_depth,
            max_request_cost: cfg.max_cost,
            ..fs2_service::AdmissionConfig::default()
        },
        chaos: fs2_service::ChaosConfig {
            seed: cfg.chaos_seed,
            panic_every: cfg.chaos_panic_every,
            drop_reply_every: cfg.chaos_drop_every,
            ..fs2_service::ChaosConfig::default()
        },
    }
}

fn write_sample_bits(path: &str, samples: &[f64]) -> Result<(), CliError> {
    use std::fmt::Write as _;

    let mut text = String::with_capacity(samples.len() * 17);
    for s in samples {
        let _ = writeln!(text, "{:016x}", s.to_bits());
    }
    std::fs::write(path, text).map_err(|e| err(format!("--dump-samples {path}: {e}")))
}

/// Renders a service reply exactly like the historical one-shot
/// `--fleet` output (the CDF is recomputed client-side from the
/// returned samples, so local and served runs print the same bytes).
fn print_fleet_reply(
    req: &FleetRequest,
    reply: &fs2_service::FleetReply,
) -> Result<String, CliError> {
    use fs2_cluster::{FleetConfig, PowerCdf};

    if !reply.ok {
        let kind = reply
            .error_kind
            .as_deref()
            .map(|k| format!(" [{k}]"))
            .unwrap_or_default();
        return Err(err(format!(
            "fleet service{kind}: {}",
            reply.error.as_deref().unwrap_or("unspecified failure")
        )));
    }
    let fleet_cfg = FleetConfig::taurus_haswell_scaled(req.nodes);
    let cdf = PowerCdf::from_samples(&reply.samples, 0.1);

    let mut out = String::new();
    out.push_str(&format!(
        "FIRESTARTER 2 reproduction — fleet of {} nodes ({} SKU groups)\n",
        fleet_cfg.total_nodes(),
        fleet_cfg.groups.len()
    ));
    for group in &fleet_cfg.groups {
        out.push_str(&format!("  {:>4} x {}\n", group.nodes, group.sku.name));
    }
    if let Some(p) = &req.profile {
        out.push_str(&format!(
            "  calibrated profile `{}`: floor share {:.1} %, {} job classes\n",
            p.name,
            p.floor_share * 100.0,
            p.classes.len()
        ));
    }
    out.push_str(&format!(
        "  {} 60 s-mean samples via {} engines: {} payloads built, {} operating points\n",
        cdf.samples, reply.registry.engines, reply.registry.payload_misses, reply.power_points
    ));
    out.push_str(&format!(
        "  exec caches: ExecStats {}/{} hits\n",
        reply.registry.exec_hits,
        reply.registry.exec_hits + reply.registry.exec_misses,
    ));
    // Quiet on a healthy service so local and served runs print the
    // same bytes; only a caught panic surfaces the supervision line.
    if let Some(n) = reply.panics_caught.filter(|&n| n > 0) {
        out.push_str(&format!("  supervision: {n} shard panics caught\n"));
    }
    if let Some(cap) = req.power_cap_w {
        out.push_str(&format!(
            "  power cap {cap:.1} W: {} of {} drawn samples clamped to lower P-states \
             ({} remap-table cells)\n",
            reply.capped_samples,
            reply.samples.len(),
            reply.capped_points
        ));
        if reply.infeasible_points > 0 {
            out.push_str(&format!(
                "  warning: {} operating points exceed the cap even at their class's \
                 lowest-power P-state (cap infeasible for those classes)\n",
                reply.infeasible_points
            ));
        }
    }
    if let Some(stats) = &reply.budget {
        out.push_str(&format!(
            "  budget {:.0} W ({}): peak fleet draw {:.0} W, mean {:.0} W, \
             p95 utilization {:.1} %\n",
            stats.budget_w,
            stats.policy,
            stats.peak_fleet_w,
            stats.mean_fleet_w,
            stats.util_p95 * 100.0
        ));
        let shed: u64 = stats.shed_ticks.iter().sum();
        let deferred: u64 = stats.deferred_ticks.iter().sum();
        out.push_str(&format!(
            "  budget denials: {shed} node-ticks shed, {deferred} deferred, \
             {} proposals truncated past the horizon\n",
            stats.truncated_proposals
        ));
        let denials = if shed > 0 {
            &stats.shed_ticks
        } else {
            &stats.deferred_ticks
        };
        if shed + deferred > 0 {
            out.push_str("  denied per state:");
            for (state, &n) in stats.states.iter().zip(denials.iter()) {
                if n > 0 {
                    out.push_str(&format!(" {state} {n}"));
                }
            }
            out.push('\n');
        }
        if stats.infeasible_floor_ticks > 0 {
            out.push_str(&format!(
                "  warning: {} ticks where idle floors alone exceed the budget \
                 (budget infeasible without powering nodes off)\n",
                stats.infeasible_floor_ticks
            ));
        }
    }
    if let Some(stats) = &reply.episodes {
        out.push_str(&format!(
            "  episodes: lag-1 autocorr {:.3}; time shares",
            stats.lag1_autocorr
        ));
        for ((state, &got), &want) in stats
            .states
            .iter()
            .zip(&stats.empirical_shares)
            .zip(&stats.model_shares)
        {
            out.push_str(&format!(
                " {state} {:.1}% (model {:.1}%)",
                got * 100.0,
                want * 100.0
            ));
        }
        out.push('\n');
        out.push_str("  mean dwell [min]:");
        for (state, &d) in stats.states.iter().zip(&stats.mean_dwell_ticks) {
            out.push_str(&format!(" {state} {d:.1}"));
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "  range {:.1} .. {:.1} W; {:.1} % at or below 100 W; median {:.1} W, p95 {:.1} W\n",
        cdf.min_w,
        cdf.max_w,
        cdf.fraction_at(100.0) * 100.0,
        cdf.quantile(0.5),
        cdf.quantile(0.95)
    ));
    let mut csv = CsvWriter::new();
    csv.header(&["power_w", "cumulative_fraction"]);
    for w in (40..=360).step_by(20) {
        csv.row(&[
            format!("{w}"),
            format!("{:.4}", cdf.fraction_at(f64::from(w))),
        ]);
    }
    out.push_str(csv.as_str());
    Ok(out)
}

/// The fleet configuration an `--emit-trace` run labels, checked
/// before the fleet runs: only episode runs carry state labels, the
/// labels replay the proposed walks, which a budget does not emit as
/// proposed, and every trace node needs two ticks for a lag-1 pair.
fn emit_trace_config(req: &FleetRequest) -> Result<fs2_cluster::FleetConfig, CliError> {
    let fleet_cfg = req.to_config();
    if fleet_cfg.temporal != fs2_cluster::TemporalMode::Episodes {
        return Err(err(
            "--emit-trace needs --fleet-temporal episodes or --profile \
             (i.i.d. minutes carry no episode labels)",
        ));
    }
    if fleet_cfg.budget_w.is_some() {
        return Err(err(
            "--emit-trace cannot label a --budget-w run \
             (the labels replay the proposed walks, not the shed or deferred ticks)",
        ));
    }
    // The CLI's fleets have no per-group sample override, so every
    // node carries `samples_per_node` ticks.
    if fleet_cfg.samples_per_node < 2 {
        return Err(err(
            "--emit-trace needs at least 2 samples per node (a trace node needs a lag-1 pair)",
        ));
    }
    Ok(fleet_cfg)
}

/// One-shot `--fleet`: [`fs2_service::FleetService::handle`] on a
/// fresh service instance (the full request → admission → shard →
/// engine stack, minus the socket and the JSON codec).
fn run_fleet(cfg: &CliConfig) -> Result<String, CliError> {
    let req = fleet_request(cfg)?;
    let emit = match &cfg.emit_trace {
        Some(path) => Some((path, emit_trace_config(&req)?)),
        None => None,
    };
    let reply = fs2_service::FleetService::new(service_config_from_cli(cfg)).handle(&req);
    if reply.ok {
        if let Some(path) = &cfg.dump_samples {
            write_sample_bits(path, &reply.samples)?;
        }
        if let Some((path, fleet_cfg)) = &emit {
            let trace = fs2_calib::Trace::from_fleet(fleet_cfg, &reply.samples);
            std::fs::write(path, trace.to_csv())
                .map_err(|e| err(format!("--emit-trace {path}: {e}")))?;
        }
    }
    print_fleet_reply(&req, &reply)
}

fn run_serve(cfg: &CliConfig) -> Result<String, CliError> {
    use std::sync::Arc;

    let addr = cfg
        .serve_addr
        .as_deref()
        .expect("Serve action implies --serve");
    let service = Arc::new(fs2_service::FleetService::new(service_config_from_cli(cfg)));
    let server =
        fs2_service::serve(service, addr).map_err(|e| err(format!("--serve {addr}: {e}")))?;
    // Announce readiness on stdout (smoke tests poll for this), then
    // serve until the process is killed.
    println!("fleet service listening on {}", server.local_addr());
    loop {
        std::thread::park();
    }
}

fn run_connect(cfg: &CliConfig) -> Result<String, CliError> {
    let addr = cfg
        .connect_addr
        .as_deref()
        .expect("Connect action implies --connect");
    let req = fleet_request(cfg)?;
    // call_with_retry retries transport failures and shard panics.
    // ClientError's Display says *which* transport failure was hit — a
    // stalled server ("timed out …") reads differently from a vanished
    // one ("connection closed before a reply arrived").
    let policy = fs2_service::RetryPolicy {
        attempts: cfg.retries,
        ..fs2_service::RetryPolicy::default()
    };
    let line = fs2_service::call_with_retry(addr, &req.to_line(), policy).map_err(|e| {
        let after = if cfg.retries > 1 {
            format!(" after {} attempts", cfg.retries)
        } else {
            String::new()
        };
        err(format!("--connect {addr}{after}: {e}"))
    })?;
    let reply = fs2_service::FleetReply::from_line(&line).map_err(|e| err(e.to_string()))?;
    if let Some(path) = &cfg.dump_samples {
        if reply.ok {
            write_sample_bits(path, &reply.samples)?;
        }
    }
    print_fleet_reply(&req, &reply)
}

/// `--calibrate TRACE.csv`: fit a fleet profile to the trace and
/// report the clone fidelity (ISSUE: trace-driven fleet cloning).
fn run_calibrate(cfg: &CliConfig) -> Result<String, CliError> {
    use fs2_calib::{calibrate, CalibConfig, Trace};

    let path = cfg
        .calibrate_trace
        .as_deref()
        .expect("Calibrate action implies --calibrate");
    let text =
        std::fs::read_to_string(path).map_err(|e| err(format!("--calibrate {path}: {e}")))?;
    let trace = Trace::from_csv(&text).map_err(|e| err(format!("--calibrate {path}: {e}")))?;
    let defaults = CalibConfig::default();
    let calib_cfg = CalibConfig {
        seed: cfg.seed.unwrap_or(defaults.seed),
        threads: cfg.threads,
        individuals: cfg.individuals,
        generations: cfg.generations,
        ..defaults
    };
    let result =
        calibrate(&trace, &calib_cfg).map_err(|e| err(format!("--calibrate {path}: {e}")))?;

    let mut out = String::new();
    out.push_str(&format!(
        "calibrated {path}: {} nodes x {} total ticks ({}), {} evaluations \
         ({} duplicate-genome hits)\n\n",
        trace.nodes().len(),
        trace.n_ticks(),
        if trace.is_labeled() {
            "state-labeled"
        } else {
            "power-only"
        },
        result.evaluations,
        result.nsga_cache_hits
    ));
    out.push_str(&result.report.render());
    match &cfg.profile_out {
        Some(dest) => {
            std::fs::write(dest, result.profile.to_text())
                .map_err(|e| err(format!("--profile-out {dest}: {e}")))?;
            out.push_str(&format!("\nfitted profile written to {dest}\n"));
        }
        None => {
            out.push_str("\nfitted profile:\n");
            out.push_str(&result.profile.to_text());
        }
    }
    Ok(out)
}

fn workload_from_cli(cfg: &CliConfig, sku: &Sku) -> Result<PayloadConfig, CliError> {
    let mix = match &cfg.function {
        Some(name) => MixRegistry::by_name(sku.uarch, name)
            .ok_or_else(|| err(format!("unknown function `{name}` (see --avail)")))?,
        None => MixRegistry::default_for(sku.uarch),
    };
    let groups = match &cfg.groups {
        Some(s) => parse_groups(s).map_err(|e| err(format!("--run-instruction-groups: {e}")))?,
        None => parse_groups("REG:1").expect("static default"),
    };
    let unroll = cfg
        .line_count
        .unwrap_or_else(|| default_unroll(sku, mix, &groups));
    Ok(PayloadConfig {
        mix,
        groups,
        unroll,
    })
}

fn init_scheme(cfg: &CliConfig) -> Result<InitScheme, CliError> {
    match cfg.version_emulation.as_str() {
        "2.0" | "2" => Ok(InitScheme::V2Safe),
        "1.7.4" => Ok(InitScheme::V174Buggy),
        other => Err(err(format!("unknown --version-emulation `{other}`"))),
    }
}

fn gpu_power(cfg: &CliConfig, duration_s: f64) -> Result<f64, CliError> {
    if cfg.gpus == 0 {
        return Ok(0.0);
    }
    let strategy = match cfg.gpu_init.as_str() {
        "device" => InitStrategy::OnDevice,
        "host" => InitStrategy::HostThenTransfer,
        other => return Err(err(format!("unknown --gpu-init `{other}`"))),
    };
    let stress = GpuStress {
        devices: (0..cfg.gpus)
            .map(|_| fs2_gpu::GpuDevice::new(fs2_gpu::device::GpuSpec::k80()))
            .collect(),
        strategy,
        mem_fraction: 0.9,
    };
    Ok(stress.run(duration_s).avg_power_w)
}

fn run_measure(cfg: &CliConfig) -> Result<String, CliError> {
    let sku = sku_for(cfg)?;
    let workload = workload_from_cli(cfg, &sku)?;
    let external_w = gpu_power(cfg, cfg.timeout_s)?;
    let engine = Engine::with_seed(sku, cfg.seed.unwrap_or(DEFAULT_SEED));
    let payload = engine.payload(&workload);
    let run_cfg = RunConfig {
        freq_mhz: cfg.freq_mhz,
        duration_s: cfg.timeout_s,
        start_delta_s: (cfg.start_delta_ms / 1000.0).min(cfg.timeout_s / 2.0),
        stop_delta_s: (cfg.stop_delta_ms / 1000.0).min(cfg.timeout_s / 4.0),
        init: init_scheme(cfg)?,
        error_detection: cfg.error_detection,
        dump_registers: cfg.dump_registers,
        functional_iters: cfg
            .functional_iters
            .unwrap_or(RunConfig::default().functional_iters),
        external_w,
        ..RunConfig::default()
    };
    // Session::run goes through the engine's payload and ExecStats
    // cache tiers (not that a one-shot CLI run repeats much — but it
    // keeps the CLI on the same path the experiments use).
    let r = engine.session().run(&workload, &run_cfg);

    let mut out = String::new();
    out.push_str(&format!(
        "FIRESTARTER 2 reproduction — workload {}\n",
        payload.kernel.name
    ));
    out.push_str(&format!(
        "  requested {} MHz, applied {} MHz{}\n",
        r.requested_freq_mhz,
        r.applied_freq_mhz,
        if r.throttled { " (EDC throttled)" } else { "" }
    ));
    if let Some(passed) = r.error_check_passed {
        out.push_str(&format!(
            "  error detection: {}\n",
            if passed {
                "PASS"
            } else {
                "FAIL — register divergence"
            }
        ));
    }
    let mut csv = CsvWriter::new();
    csv.header(&["metric", "mean", "min", "max", "unit"]);
    csv.row(&[
        "sysfs-powercap-rapl".into(),
        format!("{:.1}", r.power.mean),
        format!("{:.1}", r.power.min),
        format!("{:.1}", r.power.max),
        "W".into(),
    ]);
    csv.row(&[
        "perf-ipc".into(),
        format!("{:.3}", r.ipc),
        format!("{:.3}", r.ipc),
        format!("{:.3}", r.ipc),
        "instructions/cycle".into(),
    ]);
    csv.row(&[
        "freq".into(),
        format!("{:.0}", r.applied_freq_mhz),
        String::new(),
        String::new(),
        "MHz".into(),
    ]);
    csv.row(&[
        "dc-access-rate".into(),
        format!("{:.3}", r.dc_access_rate),
        String::new(),
        String::new(),
        "accesses/cycle".into(),
    ]);
    csv.row(&[
        "trivial-fraction".into(),
        format!("{:.4}", r.trivial_fraction),
        String::new(),
        String::new(),
        "of FP lane ops".into(),
    ]);
    out.push_str(csv.as_str());
    if let Some(dump) = &r.register_dump {
        out.push_str("register dump:\n");
        out.push_str(dump);
    }
    Ok(out)
}

fn run_optimize(cfg: &CliConfig) -> Result<String, CliError> {
    let sku = sku_for(cfg)?;
    let mix = match &cfg.function {
        Some(name) => MixRegistry::by_name(sku.uarch, name)
            .ok_or_else(|| err(format!("unknown function `{name}`")))?,
        None => MixRegistry::default_for(sku.uarch),
    };
    let seed = cfg.seed.unwrap_or(DEFAULT_SEED);
    let engine = Engine::with_seed(sku, seed);
    let tune_cfg = TuneConfig {
        nsga2: Nsga2Config {
            individuals: cfg.individuals,
            generations: cfg.generations,
            mutation_prob: cfg.nsga2_m,
            crossover_prob: 0.9,
            seed,
        },
        test_duration_s: cfg.timeout_s,
        preheat_s: cfg.preheat_s,
        freq_mhz: cfg.freq_mhz,
        mix,
        unroll: cfg.line_count,
        max_count: 8,
        prescreen: cfg.prescreen,
    };
    let result = engine.session().tune(&tune_cfg);

    let mut out = String::new();
    out.push_str(&format!(
        "NSGA-II finished: {} evaluations ({} cache hits), metrics: {OPTIMIZATION_METRICS}\n",
        result.nsga2.history.len(),
        result.nsga2.cache_hits,
    ));
    if cfg.prescreen {
        out.push_str(&format!(
            "pre-screen: {} candidates scored traceless, {} pruned before measurement \
             ({:.1} % prune rate)\n",
            result.prescreen_evals,
            result.prescreen_pruned,
            if result.prescreen_evals > 0 {
                result.prescreen_pruned as f64 / result.prescreen_evals as f64 * 100.0
            } else {
                0.0
            }
        ));
    }
    out.push_str("final Pareto front (power [W], IPC):\n");
    let mut front = result.nsga2.front.clone();
    front.sort_by(|a, b| b.objectives[0].total_cmp(&a.objectives[0]));
    for ind in front.iter().take(10) {
        out.push_str(&format!(
            "  {:7.1} W  {:5.3} ipc  {}\n",
            ind.objectives[0],
            ind.objectives[1],
            format_groups(&fs2_core::autotune::genes_to_groups(&ind.genes)),
        ));
    }
    out.push_str(&format!(
        "selected optimum: --run-instruction-groups={} --set-line-count={}\n",
        format_groups(&result.best_groups),
        result.unroll
    ));
    Ok(out)
}

/// Entry point used by `main` and the CLI tests.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    execute(&parse_args(argv)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn help_and_avail() {
        let out = run(&args("--help")).unwrap();
        assert!(out.contains("--run-instruction-groups"));
        let out = run(&args("--avail")).unwrap();
        assert!(out.contains("FMA"));
        assert!(out.contains("(default)"));
    }

    #[test]
    fn list_metrics() {
        // --list-metrics names exactly the rows a measure run prints.
        let listed: Vec<String> = run(&args("--list-metrics"))
            .unwrap()
            .lines()
            .filter_map(|l| l.strip_prefix("  "))
            .map(|l| l.split_whitespace().next().unwrap().to_string())
            .collect();
        let out = run(&args("-t 2 --freq 1500")).unwrap();
        let printed: Vec<String> = out
            .lines()
            .skip_while(|l| *l != "metric,mean,min,max,unit")
            .skip(1)
            .map(|l| l.split(',').next().unwrap().to_string())
            .collect();
        assert_eq!(listed, printed);
    }

    #[test]
    fn measure_defaults() {
        let out = run(&args(
            "-t 6 --freq 1500 --start-delta 1000 --stop-delta 500",
        ))
        .unwrap();
        assert!(out.contains("sysfs-powercap-rapl"));
        assert!(out.contains("applied 1500 MHz"));
    }

    #[test]
    fn measure_with_groups_and_unroll() {
        let out = run(&args(
            "-t 6 --freq 1500 --run-instruction-groups REG:4,L1_L:2,L2_L:1 --set-line-count 210",
        ))
        .unwrap();
        assert!(out.contains("REG:4,L1_L:2,L2_L:1"));
        assert!(out.contains("u210"));
    }

    #[test]
    fn error_detection_and_dump() {
        let out = run(&args("-t 6 --freq 1500 --error-detection --dump-registers")).unwrap();
        assert!(out.contains("error detection: PASS"));
        assert!(out.contains("ymm15"));
    }

    #[test]
    fn measure_reports_trivial_fraction() {
        let grab = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("trivial-fraction"))
                .and_then(|l| l.split(',').nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        let v2 = run(&args("-t 6 --freq 1500")).unwrap();
        assert_eq!(grab(&v2), 0.0, "v2.0 init must stay non-trivial");
        let v174 = run(&args(
            "-t 6 --freq 1500 --version-emulation 1.7.4 --functional-iters 2000",
        ))
        .unwrap();
        assert!(
            grab(&v174) > 0.5,
            "±∞ clock-gating fraction missing: {v174}"
        );
    }

    #[test]
    fn functional_iters_flag_controls_the_value_pass() {
        // Under the 1.7.4 bug the first iteration still starts from
        // finite registers, so the trivial fraction keeps climbing with
        // more replays. The flag must actually reach the executor.
        let grab = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("trivial-fraction"))
                .and_then(|l| l.split(',').nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        let at = |iters: u32| -> f64 {
            grab(
                &run(&args(&format!(
                    "-t 6 --freq 1500 --version-emulation 1.7.4 --functional-iters {iters}"
                )))
                .unwrap(),
            )
        };
        let (short, long) = (at(1), at(2000));
        assert!(
            short < long,
            "iteration count must reach the executor: {short} vs {long}"
        );
        assert!(run(&args("--functional-iters 0")).is_err());
        assert!(run(&args("--functional-iters lots")).is_err());
    }

    #[test]
    fn fleet_reports_exec_cache_counters() {
        let out = run(&args("--fleet --nodes 8 --samples-per-node 40")).unwrap();
        assert!(
            out.contains("exec caches: ExecStats 0/"),
            "missing exec-cache counters: {out}"
        );
    }

    #[test]
    fn version_emulation_changes_power() {
        let v2 = run(&args("-t 6 --freq 2500 --seed 5")).unwrap();
        let v174 = run(&args("-t 6 --freq 2500 --seed 5 --version-emulation 1.7.4")).unwrap();
        let grab = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("sysfs-powercap-rapl"))
                .and_then(|l| l.split(',').nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        assert!(grab(&v2) > grab(&v174));
    }

    #[test]
    fn optimize_small() {
        let out = run(&args(
            "--optimize=NSGA2 --individuals 6 --generations 2 --preheat 30 -t 5 \
             --freq 1500 --set-line-count 126 --seed 3",
        ))
        .unwrap();
        assert!(out.contains("NSGA-II finished: 18 evaluations"));
        assert!(out.contains("selected optimum"));
        assert!(out.contains("--run-instruction-groups="));
    }

    #[test]
    fn gpu_flag_adds_power() {
        let without = run(&args("-t 6 --freq 1500 --cpu haswell --seed 2")).unwrap();
        let with = run(&args("-t 6 --freq 1500 --cpu haswell --gpus 4 --seed 2")).unwrap();
        let grab = |s: &str| -> f64 {
            s.lines()
                .find(|l| l.starts_with("sysfs-powercap-rapl"))
                .and_then(|l| l.split(',').nth(1))
                .unwrap()
                .parse()
                .unwrap()
        };
        let delta = grab(&with) - grab(&without);
        assert!(delta > 300.0, "4 K80s only added {delta:.1} W");
    }

    #[test]
    fn fleet_action_reports_engine_backed_cdf() {
        let out = run(&args("--fleet --nodes 12 --samples-per-node 60 --seed 11")).unwrap();
        assert!(out.contains("fleet of 12 nodes"));
        assert!(out.contains("E5-2680 v3"));
        assert!(out.contains("E5-2695 v3"), "fleet must mix SKUs: {out}");
        assert!(out.contains("payloads built"));
        assert!(out.contains("power_w,cumulative_fraction"));
    }

    #[test]
    fn fleet_default_seed_matches_fig1_pipeline() {
        // Without --seed the CLI must reproduce the fig01/example CDF
        // (FleetConfig's 0xF1EE7), not the measurement default.
        let implicit = run(&args("--fleet --nodes 12 --samples-per-node 60")).unwrap();
        let explicit = run(&args(&format!(
            "--fleet --nodes 12 --samples-per-node 60 --seed {}",
            0xF1EE7u64
        )))
        .unwrap();
        assert_eq!(implicit, explicit);
    }

    /// The fan-out pair the determinism tests compare: one worker and
    /// one shard against four workers and seven shards.
    const SERIAL: &str = "--workers 1 --shards 1";
    const SHARDED: &str = "--workers 4 --shards 7";

    #[test]
    fn fleet_action_is_deterministic_per_seed() {
        let fleet = "--fleet --nodes 8 --samples-per-node 40 --seed 5";
        let a = run(&args(&format!("{fleet} {SERIAL}"))).unwrap();
        let b = run(&args(&format!("{fleet} {SHARDED}"))).unwrap();
        assert_eq!(a, b, "the shard fan-out must not change the CDF");
        let c = run(&args("--fleet --nodes 8 --samples-per-node 40 --seed 6")).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn fleet_episode_mode_reports_temporal_stats() {
        let out = run(&args(
            "--fleet --fleet-temporal episodes --nodes 12 --samples-per-node 200",
        ))
        .unwrap();
        assert!(out.contains("lag-1 autocorr"), "no episode stats: {out}");
        assert!(out.contains("mean dwell"));
        assert!(out.contains("floor"));
        // The i.i.d. default prints no episode section.
        let iid = run(&args("--fleet --nodes 12 --samples-per-node 200")).unwrap();
        assert!(!iid.contains("lag-1 autocorr"));
    }

    #[test]
    fn fleet_episode_mode_is_thread_invariant() {
        let fleet = "--fleet --fleet-temporal episodes --nodes 8 --samples-per-node 100";
        let a = run(&args(&format!("{fleet} {SERIAL}"))).unwrap();
        let b = run(&args(&format!("{fleet} {SHARDED}"))).unwrap();
        assert_eq!(a, b, "episode CDF must not depend on the shard fan-out");
    }

    #[test]
    fn fleet_power_cap_clamps_the_tail() {
        let uncapped = run(&args("--fleet --nodes 16 --samples-per-node 200")).unwrap();
        let capped = run(&args(
            "--fleet --nodes 16 --samples-per-node 200 --cap-w 300",
        ))
        .unwrap();
        assert!(capped.contains("power cap 300.0 W"));
        // Per-sample semantics: the line reports drawn samples, with
        // the static remap-cell count alongside.
        assert!(capped.contains("drawn samples clamped to lower P-states"));
        assert!(capped.contains("remap-table cells"));
        assert_ne!(uncapped, capped);
    }

    #[test]
    fn fleet_infeasible_cap_prints_a_warning() {
        // 150 W sits below every operating point: the fallback P-state
        // still exceeds the cap and must be called out, not silent.
        let out = run(&args(
            "--fleet --nodes 12 --samples-per-node 100 --cap-w 150",
        ))
        .unwrap();
        assert!(
            out.contains("warning:") && out.contains("exceed the cap"),
            "missing infeasible-cap warning: {out}"
        );
        // A cap above the table prints no warning.
        let ok = run(&args(
            "--fleet --nodes 12 --samples-per-node 100 --cap-w 400",
        ))
        .unwrap();
        assert!(!ok.contains("warning:"));
    }

    #[test]
    fn sharded_fleet_matches_the_unsharded_output() {
        let plain = run(&args("--fleet --nodes 12 --samples-per-node 80 --seed 9")).unwrap();
        for shards in [1, 2, 7] {
            let sharded = run(&args(&format!(
                "--fleet --nodes 12 --samples-per-node 80 --seed 9 --shards {shards} --workers 2"
            )))
            .unwrap();
            assert_eq!(plain, sharded, "--shards {shards} changed the output");
        }
    }

    #[test]
    fn connect_matches_the_local_fleet_output() {
        use std::sync::Arc;
        // A fresh server per comparison keeps the registry counters
        // cold, so local and served runs print identical bytes.
        let service = Arc::new(fs2_service::FleetService::new(
            fs2_service::ServiceConfig::small(),
        ));
        let server = fs2_service::serve(service, "127.0.0.1:0").unwrap();
        let local = run(&args("--fleet --nodes 10 --samples-per-node 60 --seed 3")).unwrap();
        let served = run(&args(&format!(
            "--connect {} --nodes 10 --samples-per-node 60 --seed 3",
            server.local_addr()
        )))
        .unwrap();
        assert_eq!(local, served, "served output diverged from local run");
    }

    #[test]
    fn dump_samples_is_invariant_across_transports_and_shards() {
        let dir = std::env::temp_dir();
        let a = dir.join(format!("fs2_dump_a_{}.txt", std::process::id()));
        let b = dir.join(format!("fs2_dump_b_{}.txt", std::process::id()));
        run(&args(&format!(
            "--fleet --nodes 8 --samples-per-node 40 --seed 5 --dump-samples {}",
            a.display()
        )))
        .unwrap();
        run(&args(&format!(
            "--fleet --nodes 8 --samples-per-node 40 --seed 5 --shards 7 --workers 3 \
             --dump-samples {}",
            b.display()
        )))
        .unwrap();
        let dump_a = std::fs::read_to_string(&a).unwrap();
        let dump_b = std::fs::read_to_string(&b).unwrap();
        let _ = std::fs::remove_file(&a);
        let _ = std::fs::remove_file(&b);
        assert_eq!(dump_a.lines().count(), 8 * 40);
        assert!(dump_a.lines().all(|l| u64::from_str_radix(l, 16).is_ok()));
        assert_eq!(dump_a, dump_b, "sample bits changed across shard counts");
    }

    #[test]
    fn calibrate_round_trips_through_trace_profile_and_fleet() {
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("fs2_trace_{}.csv", std::process::id()));
        let profile = dir.join(format!("fs2_profile_{}.txt", std::process::id()));

        // 1. An episode fleet run emits the labeled trace.
        let emitted = run(&args(&format!(
            "--fleet --fleet-temporal episodes --nodes 24 --samples-per-node 400 \
             --emit-trace {}",
            trace.display()
        )))
        .unwrap();
        assert!(emitted.contains("lag-1 autocorr"));
        let head = std::fs::read_to_string(&trace).unwrap();
        assert!(head.starts_with("node,tick,power_w,state\n"), "{head:.60}");

        // 2. Calibration fits a profile to that trace.
        let report = run(&args(&format!(
            "--calibrate {} --individuals 6 --generations 3 --profile-out {}",
            trace.display(),
            profile.display()
        )))
        .unwrap();
        assert!(report.contains("state-labeled"));
        assert!(report.contains("cdf_distance"));
        assert!(report.contains("fitted profile written to"));

        // 3. The fitted profile drives a fleet run end to end.
        let profiled = run(&args(&format!(
            "--fleet --nodes 24 --samples-per-node 100 --profile {}",
            profile.display()
        )))
        .unwrap();
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&profile);
        assert!(
            profiled.contains("calibrated profile `calibrated`"),
            "profile line missing: {profiled}"
        );
        // The profile forces episode mode even though the CLI default
        // temporal is iid.
        assert!(profiled.contains("lag-1 autocorr"));
    }

    #[test]
    fn calibration_flags_are_validated() {
        // --profile-out / --emit-trace only make sense in context.
        assert!(run(&args("--profile-out /tmp/p.txt")).is_err());
        assert!(run(&args("--emit-trace /tmp/t.csv")).is_err());
        assert!(run(&args("--calibrate t.csv --connect 127.0.0.1:1")).is_err());
        // i.i.d. minutes carry no episode labels to emit.
        assert!(run(&args(
            "--fleet --nodes 8 --samples-per-node 40 --emit-trace /tmp/t.csv"
        ))
        .is_err());
        // Missing and malformed inputs fail with context, not panics.
        assert!(run(&args("--calibrate /nonexistent/trace.csv")).is_err());
        assert!(run(&args("--fleet --profile /nonexistent/p.txt")).is_err());
        let bad = std::env::temp_dir().join(format!("fs2_bad_profile_{}.txt", std::process::id()));
        std::fs::write(&bad, "# wrong header\n").unwrap();
        let res = run(&args(&format!("--fleet --profile {}", bad.display())));
        let _ = std::fs::remove_file(&bad);
        assert!(res.is_err());
        // The help text documents the calibration surface.
        let help = run(&args("--help")).unwrap();
        assert!(help.contains("FLEET CALIBRATION"));
        assert!(help.contains("--calibrate"));
        assert!(help.contains("--emit-trace"));
    }

    #[test]
    fn service_flags_are_validated() {
        assert!(run(&args("--fleet --max-cost 0")).is_err());
        assert!(run(&args("--serve 127.0.0.1:0 --connect 127.0.0.1:1")).is_err());
        assert!(run(&args("--help --serve 127.0.0.1:0"))
            .unwrap()
            .contains("FLEET SERVICE"));
    }

    #[test]
    fn fleet_budget_reports_arbitration() {
        // 12 nodes draw ~146 W each on average; 1500 W binds hard.
        let budgeted = run(&args(
            "--fleet --fleet-temporal episodes --nodes 12 --samples-per-node 200 --budget-w 1500",
        ))
        .unwrap();
        assert!(budgeted.contains("budget 1500 W (shed-to-floor)"));
        assert!(budgeted.contains("peak fleet draw"));
        assert!(budgeted.contains("node-ticks shed"));
        assert!(budgeted.contains("denied per state:"));
        let unbudgeted = run(&args(
            "--fleet --fleet-temporal episodes --nodes 12 --samples-per-node 200",
        ))
        .unwrap();
        assert!(!unbudgeted.contains("budget"));
        assert_ne!(budgeted, unbudgeted);
        // The defer policy is reported and produces a different stream.
        let deferred = run(&args(
            "--fleet --fleet-temporal episodes --nodes 12 --samples-per-node 200 \
             --budget-w 1500 --budget-policy defer",
        ))
        .unwrap();
        assert!(deferred.contains("budget 1500 W (defer)"));
        assert_ne!(deferred, budgeted);
        // The budget also arbitrates the i.i.d. sampler.
        let iid = run(&args(
            "--fleet --nodes 12 --samples-per-node 200 --budget-w 1500",
        ))
        .unwrap();
        assert!(iid.contains("budget 1500 W"));
    }

    #[test]
    fn fleet_budget_is_thread_count_invariant() {
        for policy in ["shed", "defer"] {
            let fleet = format!(
                "--fleet --fleet-temporal episodes --nodes 8 --samples-per-node 100 \
                 --budget-w 1000 --budget-policy {policy}"
            );
            let a = run(&args(&format!("{fleet} {SERIAL}"))).unwrap();
            let b = run(&args(&format!("{fleet} {SHARDED}"))).unwrap();
            assert_eq!(a, b, "{policy}: budgeted CDF depends on the shard fan-out");
        }
    }

    #[test]
    fn fleet_infeasible_budget_prints_a_warning() {
        // 12 nodes x ~83 W idle floor ≈ 1 kW: a 500 W budget is below
        // the unconditional floors on every tick.
        let out = run(&args(
            "--fleet --nodes 12 --samples-per-node 50 --budget-w 500",
        ))
        .unwrap();
        assert!(
            out.contains("idle floors alone exceed the budget"),
            "missing infeasible-budget warning: {out}"
        );
    }

    #[test]
    fn bad_arguments_are_rejected() {
        assert!(run(&args("--nonsense")).is_err());
        assert!(run(&args("--cpu mars")).is_err());
        assert!(run(&args("--run-instruction-groups L9_X:1")).is_err());
        assert!(run(&args("--optimize=SA")).is_err());
        assert!(run(&args("--set-line-count abc")).is_err());
        // Zero unroll must be a CLI error on every action, not a panic
        // inside the payload builder.
        assert!(run(&args("--set-line-count 0")).is_err());
        assert!(run(&args("--optimize=NSGA2 --set-line-count 0")).is_err());
        assert!(run(&args("-t")).is_err());
        assert!(run(&args("--fleet --nodes 0")).is_err());
        assert!(run(&args("--fleet --samples-per-node 0")).is_err());
        assert!(run(&args("--fleet --fleet-temporal markov")).is_err());
        assert!(run(&args("--fleet --cap-w 0")).is_err());
        assert!(run(&args("--fleet --cap-w -10")).is_err());
        assert!(run(&args("--fleet --cap-w watts")).is_err());
        assert!(run(&args("--fleet --budget-w 0")).is_err());
        assert!(run(&args("--fleet --budget-w -5")).is_err());
        assert!(run(&args("--fleet --budget-w watts")).is_err());
        assert!(run(&args("--fleet --budget-w 1000 --budget-policy bogus")).is_err());
        // Tuning inputs that would trip an assert or never return are
        // typed errors before any run.
        assert!(run(&args("--optimize=NSGA2 --individuals 0")).is_err());
        assert!(run(&args("--optimize=NSGA2 --individuals 1")).is_err());
        assert!(run(&args("--optimize=NSGA2 --nsga2-m 1.5")).is_err());
        assert!(run(&args("--optimize=NSGA2 --nsga2-m -0.1")).is_err());
        assert!(run(&args("--optimize=NSGA2 --nsga2-m NaN")).is_err());
        assert!(run(&args("-t -1")).is_err());
        assert!(run(&args("--timeout NaN")).is_err());
        assert!(run(&args("--optimize=NSGA2 -t -1")).is_err());
        assert!(run(&args("-t inf")).is_err());
        assert!(run(&args("--optimize=NSGA2 -t inf")).is_err());
        assert!(run(&args("--optimize=NSGA2 --preheat inf")).is_err());
        assert!(run(&args("--optimize=NSGA2 --preheat -5")).is_err());
        assert!(run(&args("--optimize=NSGA2 --preheat NaN")).is_err());
        // Only the objective pair the runner computes can be named.
        assert!(run(&args("--optimization-metric bogus,metricq")).is_err());
        assert!(run(&args("--optimization-metric ipc-estimate")).is_err());
        assert!(run(&args("--metric-path x")).is_err());
        assert!(parse_args(&args("--optimization-metric=sysfs-powercap-rapl,perf-ipc")).is_ok());
        // A one-tick trace node is rejected before the fleet runs.
        let trace =
            std::env::temp_dir().join(format!("fs2_short_trace_{}.csv", std::process::id()));
        assert!(run(&args(&format!(
            "--fleet --fleet-temporal episodes --nodes 2 --samples-per-node 1 --emit-trace {}",
            trace.display()
        )))
        .is_err());
        assert!(!trace.exists(), "a rejected run wrote {}", trace.display());
        // So is a budgeted run, whose sheds and defers the labels miss.
        let e = run(&args(&format!(
            "--fleet --fleet-temporal episodes --nodes 8 --samples-per-node 200 \
             --budget-w 900 --emit-trace {}",
            trace.display()
        )))
        .unwrap_err();
        assert!(e.to_string().contains("--budget-w"), "{e}");
        assert!(!trace.exists(), "a rejected run wrote {}", trace.display());
    }

    #[test]
    fn fleet_flags_follow_the_request_contract() {
        // Names go through the service's own parsers, in any letter case.
        let fleet = "--fleet --budget-w 1500 --nodes 12 --samples-per-node 50";
        let upper = run(&args(&format!(
            "{fleet} --fleet-temporal EPISODES --budget-policy Shed-To-Floor"
        )))
        .unwrap();
        let lower = run(&args(&format!(
            "{fleet} --fleet-temporal episodes --budget-policy shed"
        )))
        .unwrap();
        assert_eq!(upper, lower);
        // A bad name fails at parse time, whatever the action.
        assert!(parse_args(&args("-t 1 --fleet-temporal markov")).is_err());
        assert!(parse_args(&args("-t 1 --budget-policy auction")).is_err());
        // The values meet the request's own rules.
        let e = parse_args(&args("--fleet --deadline-ms 0")).unwrap_err();
        assert_eq!(
            e.to_string(),
            "invalid fleet request: `deadline_ms` must be a positive integer"
        );
    }

    #[test]
    fn haswell_and_generic_cpus_work() {
        let out = run(&args("--avail --cpu haswell")).unwrap();
        assert!(out.contains("haswell"));
        let out = run(&args("--avail --cpu generic")).unwrap();
        assert!(out.contains("AVX"));
        assert!(!out.contains("| FMA"));
    }
}
