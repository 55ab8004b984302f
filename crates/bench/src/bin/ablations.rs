//! Ablation studies for the design choices called out in DESIGN.md §6.
//!
//! Prints four comparisons:
//!  1. NSGA-II vs pure random search at an equal evaluation budget.
//!  2. Proportionally distributed vs clustered access schedules.
//!  3. FMA triviality gating on vs off (the §III-D mechanism).
//!  4. Shared-resource contention model on vs off (all cores vs one).

use fs2_arch::Sku;
use fs2_core::autotune::{genes_to_groups, TuneConfig};
use fs2_core::distribute::{distribute, unroll_sequence};
use fs2_core::groups::{format_groups, parse_groups, Target};
use fs2_core::mix::MixRegistry;
use fs2_core::payload::{default_unroll, PayloadConfig};
use fs2_core::runner::RunConfig;
use fs2_sim::kernel::TaggedInst;
use fs2_sim::Kernel;
use fs2_tuning::Nsga2Config;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let sku = Sku::amd_epyc_7502();
    println!("### ablations — design-choice studies on {}\n", sku.name);
    nsga2_vs_random(&sku);
    spaced_vs_clustered(&sku);
    gating_on_off(&sku);
    contention_on_off(&sku);
}

/// 1. NSGA-II vs random search with the same evaluation budget.
fn nsga2_vs_random(sku: &Sku) {
    let budget = 96usize;
    let freq = 1500.0;

    // NSGA-II: 16 individuals x 5 generations = 96 evaluations.
    let engine = fs2_bench::experiments::common::engine_for(sku.clone());
    let cfg = TuneConfig {
        nsga2: Nsga2Config {
            individuals: 16,
            generations: 5,
            mutation_prob: 0.35,
            crossover_prob: 0.9,
            seed: 1,
        },
        test_duration_s: 10.0,
        preheat_s: 0.0,
        freq_mhz: freq,
        ..TuneConfig::default()
    };
    let tuned = engine.session().tune(&cfg);

    // Random search: same budget, same gene space, same engine.
    let mut rng = StdRng::seed_from_u64(1);
    let items = fs2_core::groups::all_valid_items().len();
    let mut session = engine.session();
    let mut best_random = f64::NEG_INFINITY;
    let mut best_genes = vec![0u32; items];
    for _ in 0..budget {
        let mut genes: Vec<u32> = (0..items).map(|_| rng.gen_range(0..=8u32)).collect();
        if genes.iter().all(|&g| g == 0) {
            genes[0] = 1;
        }
        let groups = genes_to_groups(&genes);
        let unroll = default_unroll(sku, cfg.mix, &groups);
        let payload = engine.payload(&PayloadConfig {
            mix: cfg.mix,
            groups,
            unroll,
        });
        let r = session.run_payload(
            &payload,
            &RunConfig {
                freq_mhz: freq,
                duration_s: 10.0,
                start_delta_s: 2.0,
                stop_delta_s: 1.0,
                functional_iters: 64,
                ..RunConfig::default()
            },
        );
        if r.power.mean > best_random {
            best_random = r.power.mean;
            best_genes = genes;
        }
    }

    println!("1. optimizer ablation ({budget} evaluations @ {freq} MHz):");
    println!(
        "   NSGA-II        best {:.1} W   ({})",
        tuned.best.objectives[0],
        format_groups(&tuned.best_groups)
    );
    println!(
        "   random search  best {:.1} W   ({})\n",
        best_random,
        format_groups(&genes_to_groups(&best_genes))
    );
}

/// 2. The paper's proportional interleaving vs naive clustering.
fn spaced_vs_clustered(sku: &Sku) {
    let engine = fs2_bench::experiments::common::engine_for(sku.clone());
    let groups = parse_groups("REG:4,L1_2LS:2,RAM_L:1").unwrap();
    let mix = MixRegistry::default_for(sku.uarch);
    let u = default_unroll(sku, mix, &groups);

    // Spaced: the shipped scheduler.
    let spaced = engine.payload(&PayloadConfig {
        mix,
        groups: groups.clone(),
        unroll: u,
    });

    // Clustered: all occurrences of each group back-to-back.
    let window = distribute(&groups);
    let mut clustered_window = window.clone();
    clustered_window.sort_unstable();
    let seq = unroll_sequence(&clustered_window, u);
    let mut body: Vec<TaggedInst> = Vec::new();
    for (i, &gi) in seq.iter().enumerate() {
        let g = &groups[gi];
        let access = match (g.target, g.pattern) {
            (Target::Mem(level), Some(p)) => Some((level, p)),
            _ => None,
        };
        body.extend(mix.emit_group(i as u32, access));
    }
    body.push(TaggedInst::reg(fs2_isa::Inst::Dec(fs2_isa::Gp::Rdi)));
    body.push(TaggedInst::reg(fs2_isa::Inst::Jnz { rel: 0 }));
    let clustered = Kernel::new("clustered", body, u);

    let mut session = engine.session();
    let cfg = RunConfig {
        freq_mhz: 1500.0,
        duration_s: 20.0,
        start_delta_s: 4.0,
        stop_delta_s: 2.0,
        functional_iters: 64,
        ..RunConfig::default()
    };
    let r_spaced = session.run_payload(&spaced, &cfg);
    let r_clustered = session.run_kernel(&clustered, &cfg);
    println!("2. access-distribution ablation (REG:4,L1_2LS:2,RAM_L:1 @1500 MHz):");
    println!(
        "   spaced (paper) {:.1} W  ipc {:.2}",
        r_spaced.power.mean, r_spaced.ipc
    );
    println!(
        "   clustered      {:.1} W  ipc {:.2}",
        r_clustered.power.mean, r_clustered.ipc
    );
    println!("   (aggregate traffic is identical; spacing matters for burst behaviour)\n");
}

/// 3. FMA triviality gating on/off.
fn gating_on_off(sku: &Sku) {
    use fs2_bench::experiments::common::{direct_eval, engine_for, payload_for};
    let engine = engine_for(sku.clone());
    let payload = payload_for(&engine, "REG:1");
    let on = direct_eval(&engine, &payload, 2500.0);
    // Gating "off" = operands fully trivial (the v1.7.4 end state).
    let sim = fs2_sim::SystemSim::new(sku.clone());
    let model = fs2_power::NodePowerModel::new(sku.clone());
    let off = fs2_power::solve_throttle(&sim, &model, &payload.kernel, 2500.0, None, 1.0);
    println!("3. FMA data-triviality gating (REG:1 @2500 MHz):");
    println!("   healthy operands  {:.1} W", on.power.total_w());
    println!(
        "   trivial operands  {:.1} W  (Δ {:.1} W; paper §III-D: 8.5 W)\n",
        off.power.total_w(),
        on.power.total_w() - off.power.total_w()
    );
}

/// 4. Contention model on/off.
fn contention_on_off(sku: &Sku) {
    use fs2_bench::experiments::common::{engine_for, payload_for};
    let engine = engine_for(sku.clone());
    let payload = payload_for(&engine, "REG:2,RAM_LS:2");
    let full = engine.sim().evaluate(&payload.kernel, 2500.0, None);
    let solo = engine.sim().evaluate(&payload.kernel, 2500.0, Some(1));
    println!("4. shared-resource contention (REG:2,RAM_LS:2 @2500 MHz):");
    println!(
        "   all {} cores: {:.2} ipc/core, {:.1} GB/s DRAM/node",
        full.active_cores,
        full.core.ipc,
        full.node_level_bytes_per_sec[fs2_arch::MemLevel::Ram.idx()] / 1e9
    );
    println!(
        "   single core : {:.2} ipc/core, {:.1} GB/s DRAM/node",
        solo.core.ipc,
        solo.node_level_bytes_per_sec[fs2_arch::MemLevel::Ram.idx()] / 1e9
    );
    println!("   (per-core DRAM share collapses under full occupancy — why static per-SKU workloads mistune)");
}
