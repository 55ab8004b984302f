//! The repository benchmark: runs one named workload through the same
//! public entry points users reach, checks the outputs, and prints
//! every end-to-end metric (or, with `--trace 1`, every per-layer
//! metric) as the last line of standard output, one JSON object.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig1-oneshot --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Every input is generated from `--seed`; the program under test
//! receives only those generated inputs. See `perfbench/README.md` for
//! why each workload exists and which layers it bypasses.

mod autotune;
mod calibrate;
mod oneshot;
mod probe;
mod served;
mod stack;
mod stats;
mod timing;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;
use timing::Mark;
use trace::Tracer;

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
];

/// Per-layer metrics, reported by every workload in the traced run. A
/// layer the workload never calls into is measured by the layer probe.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("traced.setup_s", "s"),
    ("traced.peak_rss_mb", "MB"),
    ("traced.op_p50_ms", "ms"),
    ("traced.op_tail_ms", "ms"),
    ("traced.ops_per_s", "1/s"),
    ("wall.op_p50_ms", "ms"),
    ("proto.reply_encode_ms", "ms"),
    ("proto.reply_decode_ms", "ms"),
    ("proto.reply_bytes", "bytes"),
    ("proto.request_decode_ms", "ms"),
    ("tcp.transport_wait_ms", "ms"),
    ("service.handle_ms", "ms"),
    ("admission.queued", "count"),
    ("admission.peak_queue_depth", "count"),
    ("admission.shed", "count"),
    ("fleet.plan_cold_ms", "ms"),
    ("fleet.plan_warm_ms", "ms"),
    ("fleet.plan_fresh_seed_ms", "ms"),
    ("engine.exec_misses_per_request", "count"),
    ("engine.cross_exec_hit_rate", "ratio"),
    ("engine.cross_payload_hit_rate", "ratio"),
    ("fleet.propose_ms", "ms"),
    ("fleet.propose_max_shard_ms", "ms"),
    ("fleet.merge_ms", "ms"),
    ("fleet.cdf_ms", "ms"),
    ("calib.trace_load_ms", "ms"),
    ("calib.fit_ms", "ms"),
    ("calib.evaluations", "count"),
    ("calib.live_eval_share", "ratio"),
    ("calib.eval_plan_ms", "ms"),
    ("calib.eval_propose_ms", "ms"),
    ("calib.eval_merge_ms", "ms"),
    ("calib.eval_label_ms", "ms"),
    ("calib.eval_targets_ms", "ms"),
    ("engine.payload_build_ms", "ms"),
    ("engine.decode_ms", "ms"),
    ("sim.functional_ms", "ms"),
    ("runner.run_ms", "ms"),
    ("tune.evaluations", "count"),
    ("tune.distinct_payloads", "count"),
    ("tune.live_eval_share", "ratio"),
    ("tune.other_ms", "ms"),
    ("served.generator_lag_ms", "ms"),
    ("served.fresh_seed_share", "ratio"),
    ("served.cdf_only_share", "ratio"),
];

/// Everything one workload run hands back to the reporter.
#[derive(Default)]
pub struct Outcome {
    /// False when any output check failed.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result object.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check; the run then exits non-zero.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.correct = false;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// Files the end-to-end numbers of the timed loop, under their
    /// traced names when this is the traced run.
    pub fn set_end_to_end(&mut self, traced: bool, e2e: &EndToEnd) {
        let pick = |plain: &'static str, traced_name: &'static str| {
            if traced {
                traced_name
            } else {
                plain
            }
        };
        self.set(pick("setup_s", "traced.setup_s"), e2e.setup_s);
        self.set(pick("peak_rss_mb", "traced.peak_rss_mb"), e2e.peak_rss_mb);
        self.set(pick("op_p50_ms", "traced.op_p50_ms"), e2e.op_p50_ms);
        self.set(pick("op_tail_ms", "traced.op_tail_ms"), e2e.op_tail_ms);
        self.set(pick("ops_per_s", "traced.ops_per_s"), e2e.ops_per_s);
        if traced {
            self.set("wall.op_p50_ms", e2e.wall_p50_ms);
        }
    }
}

/// The end-to-end numbers every workload measures.
pub struct EndToEnd {
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub op_p50_ms: f64,
    pub op_tail_ms: f64,
    pub ops_per_s: f64,
    /// Median wall time of an operation (per-layer `wall.op_p50_ms`).
    pub wall_p50_ms: f64,
}

impl EndToEnd {
    /// Statistics of a one-shot workload's back-to-back calls, on the
    /// CPU time each call's process used.
    pub fn from_calls(setup_s: f64, calls: &Calls) -> EndToEnd {
        let total_ms: f64 = calls.cpu_ms.iter().sum();
        EndToEnd {
            setup_s,
            peak_rss_mb: stats::median(&calls.rss_mb),
            op_p50_ms: stats::median(&calls.cpu_ms),
            op_tail_ms: stats::percentile(&calls.cpu_ms, stats::TAIL),
            ops_per_s: calls.cpu_ms.len() as f64 * 1000.0 / total_ms,
            wall_p50_ms: stats::median(&calls.wall_ms),
        }
    }
}

/// Runs this binary with `CHILD_FLAG` first: one `cli::run` call in a
/// fresh process, as a CLI user makes it.
const CHILD_FLAG: &str = "--child-cli";

/// One CLI call measured in its own process.
pub struct ChildCall {
    pub report: String,
    /// Wall time of `cli::run`, ms.
    pub wall_ms: f64,
    /// CPU time of the process, user plus system over all threads, ms.
    pub cpu_ms: f64,
    /// Peak resident memory of the process, MiB.
    pub rss_mb: f64,
}

/// Runs one CLI call in a fresh process; `Err` carries the CLI's error
/// or why the process could not report.
pub fn cli_in_child(argv: &[String]) -> Result<ChildCall, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let child = std::process::Command::new(exe)
        .arg(CHILD_FLAG)
        .args(argv)
        .output()
        .map_err(|e| format!("spawning the CLI call: {e}"))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let Some((head, body)) = stdout.split_once('\n') else {
        return Err(format!(
            "CLI call printed nothing ({}): {}",
            child.status,
            String::from_utf8_lossy(&child.stderr)
        ));
    };
    let nums: Vec<f64> = head.split(' ').filter_map(|n| n.parse().ok()).collect();
    let &[wall_ms, cpu_ms, rss_mb] = nums.as_slice() else {
        return Err(format!("malformed CLI call header `{head}`"));
    };
    if child.status.success() {
        Ok(ChildCall {
            report: body.to_string(),
            wall_ms,
            cpu_ms,
            rss_mb,
        })
    } else {
        Err(body.to_string())
    }
}

/// The `CHILD_FLAG` mode: times one `cli::run` call, prints
/// `<wall ms> <cpu ms> <peak rss MiB>` and then the report or the error.
fn child_main(argv: &[String]) -> ExitCode {
    let t = Mark::now();
    let result = firestarter2::cli::run(argv);
    let ms = t.ms();
    println!("{ms} {} {}", cpu_ms(), peak_rss_mb());
    match result {
        Ok(text) => {
            print!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            print!("{e}");
            ExitCode::from(3)
        }
    }
}

/// The calls of a one-shot workload's timed loop.
pub struct Calls {
    pub wall_ms: Vec<f64>,
    pub cpu_ms: Vec<f64>,
    pub rss_mb: Vec<f64>,
    /// Per argument variant, the first successful call's report.
    pub first: Vec<Option<String>>,
}

/// The timed loop of a one-shot workload: back-to-back CLI calls, each
/// in a fresh process, in rounds that call every argument variant once,
/// until another round would overrun the loop budget (at least one
/// round), so every variant weighs the same. Every report must equal the
/// first report of its variant.
pub fn timed_cli_calls(ctx: &Ctx, out: &mut Outcome, variants: &[Vec<String>]) -> Calls {
    let mut calls = Calls {
        wall_ms: Vec::new(),
        cpu_ms: Vec::new(),
        rss_mb: Vec::new(),
        first: vec![None; variants.len()],
    };
    let deadline = Mark::now().after(ctx.loop_budget());
    let mut round = Mark::now();
    for call in 0u64.. {
        let variant = (call % variants.len() as u64) as usize;
        let (result, _) = ctx.tracer.span("cli.call", None, Some(call), |_| {
            cli_in_child(&variants[variant])
        });
        out.attempted += 1;
        match result {
            Ok(c) => {
                calls.wall_ms.push(c.wall_ms);
                calls.cpu_ms.push(c.cpu_ms);
                calls.rss_mb.push(c.rss_mb);
                match &calls.first[variant] {
                    None => calls.first[variant] = Some(c.report),
                    Some(f) => out.check(*f == c.report, || {
                        format!("call {call}: output differs from the variant's first call")
                    }),
                }
            }
            Err(e) => {
                out.failed += 1;
                out.notes.push(format!("call {call} failed: {e}"));
            }
        }
        if variant + 1 == variants.len() {
            if deadline.left().is_none_or(|left| left < round.elapsed()) {
                break;
            }
            round = Mark::now();
        }
    }
    if calls.first[0].is_none() {
        out.check(false, || "the first variant never succeeded".to_string());
    }
    calls
}

/// What a workload run gets from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Load-generator threads and connections: one per host core.
    pub threads: usize,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }

    /// The timed-loop budget: the whole run untraced; the traced run
    /// splits it between the traced loop and the layer replays.
    pub fn loop_budget(&self) -> Duration {
        let share = if self.traced() { 0.5 } else { 1.0 };
        Duration::from_secs_f64(self.seconds * share)
    }

    pub fn replay_budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds * 0.5)
    }
}

/// A seed for one purpose, derived from the benchmark seed (splitmix64
/// finalizer over seed and salt).
pub fn derive(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over the bit patterns of `samples`.
pub fn sample_hash(samples: &[f64]) -> u64 {
    samples.iter().fold(0xCBF2_9CE4_8422_2325u64, |h, s| {
        s.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
    })
}

/// Scratch directory for files the run hands to the CLI and for the
/// span dump; inside the benchmark's own directory of the checkout.
pub fn out_dir() -> std::path::PathBuf {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create the benchmark output directory");
    dir
}

/// `argv` strings for `firestarter2::cli::run`.
pub fn args(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage_self() -> RUsage {
    let mut u = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `RUsage` matches the layout of `struct rusage` on 64-bit
    // Linux (two `timeval`s followed by fourteen `long`s), and the
    // pointer is to a live, writable value for the duration of the call.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    u
}

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    // Linux reports ru_maxrss in KiB.
    rusage_self().maxrss as f64 / 1024.0
}

/// CPU time this process has used so far, user plus system over all
/// its threads, ms. Unlike wall time it does not grow while the
/// hypervisor runs other guests on this machine's cores.
pub fn cpu_ms() -> f64 {
    let u = rusage_self();
    let secs = u.utime[0] + u.stime[0];
    let micros = u.utime[1] + u.stime[1];
    secs as f64 * 1000.0 + micros as f64 / 1000.0
}

/// The CPU brand string, from CPUID.
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        let mut bytes = Vec::with_capacity(48);
        for leaf in 0x8000_0002u32..=0x8000_0004 {
            // CPUID is available on every x86-64 processor, and the
            // brand-string leaves are defined on all of them.
            #[allow(unused_unsafe)]
            // SAFETY: CPUID has no memory-safety preconditions on x86-64.
            let r = unsafe { __cpuid(leaf) };
            for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                bytes.extend_from_slice(&reg.to_le_bytes());
            }
        }
        String::from_utf8_lossy(&bytes)
            .trim_matches(char::from(0))
            .trim()
            .to_string()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        std::env::consts::ARCH.to_string()
    }
}

struct Cli {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Formats a metric value as JSON: every digit Rust's shortest
/// round-trip formatting gives, never an exponent.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(CHILD_FLAG) {
        return child_main(&argv[1..]);
    }
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
                 workloads: fig1-oneshot fig1-oneshot-budget served-mix calibrate autotune"
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: cli.seed,
        seconds: cli.seconds,
        tracer: Tracer::new(cli.trace),
        threads,
    };
    let mut outcome = match cli.workload.as_str() {
        "fig1-oneshot" => oneshot::run(&ctx, false),
        "fig1-oneshot-budget" => oneshot::run(&ctx, true),
        "served-mix" => served::run(&ctx),
        "calibrate" => calibrate::run(&ctx),
        "autotune" => autotune::run(&ctx),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };

    println!(
        "workload {} seed {} seconds {} trace {} host_threads {threads} cpu \"{}\"",
        cli.workload,
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        cpu_model()
    );
    if cli.trace {
        probe::fill(&ctx, &mut outcome);
        let path = out_dir().join(format!("spans-{}-seed{}.jsonl", cli.workload, cli.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(n) => println!("spans: {n} written to {}", path.display()),
            Err(e) => outcome.check(false, || format!("writing {}: {e}", path.display())),
        }
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    let table = if cli.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(&v) => v,
            // A share of requests the workload never sends.
            None if cli.trace && !matches!(unit, "ms" | "s") => 0.0,
            None => {
                outcome.check(false, || format!("metric {name} was not measured"));
                0.0
            }
        };
        if !value.is_finite() {
            outcome.check(false, || format!("metric {name} is not finite"));
            continue;
        }
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "attempted {} failed {} correct {}",
        outcome.attempted, outcome.failed, outcome.correct
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
