//! Decode/replay parity suite: the SoA lane-vectorized fast path
//! ([`Executor::run_decoded`]) must be indistinguishable from the
//! reference interpreter ([`Executor::run_interpreted`]), its oracle —
//! same [`ExecStats`], same state hash, same register dumps — across
//! every instruction variant, both init schemes, and fault injection.
//!
//! This is the golden gate for the §III-D executor: any future change
//! to the vectorized replay loop that drifts from the interpreted
//! semantics (triviality accounting included) fails here.

use fs2_arch::MemLevel;
use fs2_isa::prelude::*;
use fs2_sim::{
    format_register_dump, run_functional, DecodedKernel, Executor, InitScheme, Kernel, TaggedInst,
};

/// Exercises every functional `Inst` variant: packed FMA/MUL/ADD with
/// register and memory operands across all four levels, XOR clears,
/// loads/stores, the scalar lane-0 sqrt/mul/add ops, the full GP ALU,
/// and the inert control-flow/hint instructions the decoder drops.
fn all_variants_kernel() -> Kernel {
    let body = vec![
        // GP setup: buffer base + a moving index.
        TaggedInst::reg(Inst::MovImm64 {
            dst: Gp::Rax,
            imm: 0x1000,
        }),
        TaggedInst::reg(Inst::MovImm64 {
            dst: Gp::Rbx,
            imm: 3,
        }),
        // Packed FP, register operands.
        TaggedInst::reg(Inst::Vfmadd231pd {
            dst: Ymm::new(0),
            src1: Ymm::new(12),
            src2: RmYmm::Reg(Ymm::new(14)),
        }),
        TaggedInst::reg(Inst::Vmulpd {
            dst: Ymm::new(1),
            src1: Ymm::new(2),
            src2: RmYmm::Reg(Ymm::new(13)),
        }),
        TaggedInst::reg(Inst::Vaddpd {
            dst: Ymm::new(3),
            src1: Ymm::new(4),
            src2: RmYmm::Reg(Ymm::new(5)),
        }),
        // Packed FP, memory operands on three different levels.
        TaggedInst::mem(
            Inst::Vfmadd231pd {
                dst: Ymm::new(6),
                src1: Ymm::new(12),
                src2: RmYmm::Mem(Mem::base(Gp::Rax)),
            },
            MemLevel::L1,
        ),
        TaggedInst::mem(
            Inst::Vmulpd {
                dst: Ymm::new(7),
                src1: Ymm::new(8),
                src2: RmYmm::Mem(Mem::base_disp(Gp::Rax, 64)),
            },
            MemLevel::L2,
        ),
        TaggedInst::mem(
            Inst::Vaddpd {
                dst: Ymm::new(9),
                src1: Ymm::new(10),
                src2: RmYmm::Mem(Mem::base_index(Gp::Rax, Gp::Rbx, Scale::X8, 32)),
            },
            MemLevel::L3,
        ),
        // XOR (bitwise, no FP accounting), load, store.
        TaggedInst::reg(Inst::Vxorps {
            dst: Ymm::new(11),
            src1: Ymm::new(11),
            src2: Ymm::new(2),
        }),
        TaggedInst::mem(
            Inst::VmovapdLoad {
                dst: Ymm::new(2),
                src: Mem::base_disp(Gp::Rax, 96),
            },
            MemLevel::Ram,
        ),
        TaggedInst::mem(
            Inst::VmovapdStore {
                dst: Mem::base_disp(Gp::Rax, 128),
                src: Ymm::new(0),
            },
            MemLevel::L2,
        ),
        // Scalar lane-0 ops (sqrtsd has no triviality accounting;
        // mulsd/addsd count exactly one lane op each).
        TaggedInst::reg(Inst::Sqrtsd {
            dst: Xmm::new(4),
            src: Xmm::new(5),
        }),
        TaggedInst::reg(Inst::Mulsd {
            dst: Xmm::new(6),
            src: Xmm::new(7),
        }),
        TaggedInst::reg(Inst::Addsd {
            dst: Xmm::new(8),
            src: Xmm::new(9),
        }),
        // GP ALU.
        TaggedInst::reg(Inst::ShlImm {
            dst: Gp::Rbx,
            imm: 2,
        }),
        TaggedInst::reg(Inst::ShrImm {
            dst: Gp::Rbx,
            imm: 1,
        }),
        TaggedInst::reg(Inst::AddImm {
            dst: Gp::Rax,
            imm: 32,
        }),
        TaggedInst::reg(Inst::AddGp {
            dst: Gp::Rbx,
            src: Gp::Rax,
        }),
        TaggedInst::reg(Inst::XorGp {
            dst: Gp::Rcx,
            src: Gp::Rbx,
        }),
        // Inert instructions: dropped by the decoder, no-ops when
        // interpreted — parity depends on both agreeing on that.
        TaggedInst::mem(
            Inst::Prefetch {
                hint: PrefetchHint::T0,
                mem: Mem::base(Gp::Rax),
            },
            MemLevel::Ram,
        ),
        TaggedInst::reg(Inst::CmpGp {
            a: Gp::Rdi,
            b: Gp::Rcx,
        }),
        TaggedInst::reg(Inst::Nop),
        TaggedInst::reg(Inst::Dec(Gp::Rdi)),
        TaggedInst::reg(Inst::Jnz { rel: 0 }),
        TaggedInst::reg(Inst::Ret),
    ];
    Kernel::new("all-variants", body, 1)
}

/// Everything observable after a run.
fn observe(ex: &Executor) -> (u64, [[f64; fs2_sim::LANES]; 16], String, u64, u64, u64) {
    let mut dump = String::new();
    ex.dump_registers(&mut dump);
    (
        ex.state_hash(),
        ex.registers(),
        dump,
        ex.stats().fp_lane_ops,
        ex.stats().trivial_lane_ops,
        ex.stats().iterations,
    )
}

#[test]
fn three_tiers_agree_on_every_inst_variant() {
    let k = all_variants_kernel();
    let d = DecodedKernel::new(&k);
    for scheme in [InitScheme::V2Safe, InitScheme::V174Buggy] {
        for seed in [1u64, 42, 0xDEAD_BEEF] {
            let mut soa = Executor::new(scheme, seed);
            let mut interp = Executor::new(scheme, seed);
            soa.run_decoded(&d, 257);
            interp.run_interpreted(&k, 257);
            assert_eq!(
                observe(&soa),
                observe(&interp),
                "SoA vs interpreted diverged ({scheme:?}, seed {seed})"
            );
        }
    }
}

/// FMA-accumulate kernel (the workload shape where the 1.7.4 bug
/// saturates the accumulators): dst ymm0..=11 from multipliers 12..=15.
fn fma_accumulate_kernel() -> Kernel {
    let mut body = Vec::new();
    for g in 0..12u8 {
        body.push(TaggedInst::reg(Inst::Vfmadd231pd {
            dst: Ymm::new(g),
            src1: Ymm::new(12 + g % 2),
            src2: RmYmm::Reg(Ymm::new(14 + g % 2)),
        }));
    }
    body.push(TaggedInst::reg(Inst::Dec(Gp::Rdi)));
    body.push(TaggedInst::reg(Inst::Jnz { rel: 0 }));
    Kernel::new("fma-acc", body, 12)
}

#[test]
fn v174_trivial_fraction_survives_the_soa_path() {
    // The ±∞ clock-gating story (§III-D): the vectorized bitmask
    // accounting must report the same saturation as per-lane checks —
    // on the mixed kernel (partial saturation: loads keep refreshing
    // some registers with finite buffer values) and on the pure FMA
    // accumulation shape where the bug drives nearly all work trivial.
    for k in [all_variants_kernel(), fma_accumulate_kernel()] {
        let d = DecodedKernel::new(&k);
        let mut soa = Executor::new(InitScheme::V174Buggy, 7);
        let mut interp = Executor::new(InitScheme::V174Buggy, 7);
        soa.run_decoded(&d, 2000);
        interp.run_interpreted(&k, 2000);
        assert_eq!(soa.stats(), interp.stats(), "{}", k.name);
        assert!(
            soa.stats().trivial_fraction() > 0.1,
            "{}: clock-gating effect lost: {}",
            k.name,
            soa.stats().trivial_fraction()
        );
        // The safe scheme must agree across tiers too (its fraction is
        // kernel-dependent; bit-equality is the property under test).
        let mut soa2 = Executor::new(InitScheme::V2Safe, 7);
        let mut interp2 = Executor::new(InitScheme::V2Safe, 7);
        soa2.run_decoded(&d, 2000);
        interp2.run_interpreted(&k, 2000);
        assert_eq!(soa2.stats(), interp2.stats(), "{}", k.name);
    }
    // On the accumulating shape the saturation is near-total.
    let k = fma_accumulate_kernel();
    let mut ex = Executor::new(InitScheme::V174Buggy, 7);
    ex.run_decoded(&DecodedKernel::new(&k), 2000);
    assert!(
        ex.stats().trivial_fraction() > 0.5,
        "accumulators must saturate: {}",
        ex.stats().trivial_fraction()
    );
}

#[test]
fn bit_flip_injection_keeps_tiers_in_lockstep() {
    // Fault injection mid-run: masks are refreshed on entry, so the SoA
    // path must absorb externally corrupted state exactly like the
    // reference interpreter (including the corrupted lane turning
    // trivial when the flip lands in the exponent).
    let k = all_variants_kernel();
    let d = DecodedKernel::new(&k);
    // (3, 1, 62) lands in a pure-output register (vaddpd dst) that the
    // next iteration overwrites: the tiers must stay in lockstep, but
    // the flip itself is erased, so only the persistent-state flips
    // (the ymm0 FMA accumulator, untouched ymm15) assert visibility.
    for (reg, lane, bit) in [(3usize, 1usize, 62u32), (0, 0, 52), (15, 3, 11)] {
        let mut soa = Executor::new(InitScheme::V2Safe, 9);
        let mut interp = Executor::new(InitScheme::V2Safe, 9);
        soa.run_decoded(&d, 100);
        interp.run_interpreted(&k, 100);
        soa.inject_bit_flip(reg, lane, bit);
        interp.inject_bit_flip(reg, lane, bit);
        assert_eq!(soa.state_hash(), interp.state_hash());
        soa.run_decoded(&d, 100);
        interp.run_interpreted(&k, 100);
        assert_eq!(
            observe(&soa),
            observe(&interp),
            "post-flip divergence at ({reg}, {lane}, {bit})"
        );
        // Flips in persistent state stay visible against a clean twin.
        if reg != 3 {
            let mut clean = Executor::new(InitScheme::V2Safe, 9);
            clean.run_decoded(&d, 200);
            assert_ne!(
                clean.state_hash(),
                soa.state_hash(),
                "flip at ({reg}, {lane}, {bit}) vanished"
            );
        }
    }
}

#[test]
fn run_functional_equals_manual_replay() {
    let k = all_variants_kernel();
    let d = DecodedKernel::new(&k);
    for scheme in [InitScheme::V2Safe, InitScheme::V174Buggy] {
        let outcome = run_functional(&d, scheme, 5, 300);
        let mut ex = Executor::new(scheme, 5);
        ex.run_interpreted(&k, 300);
        assert_eq!(outcome.stats, *ex.stats());
        assert_eq!(outcome.state_hash, ex.state_hash());
        assert_eq!(
            outcome.state_hash,
            fs2_sim::state_hash_of(&outcome.registers)
        );
        assert_eq!(outcome.registers, ex.registers());
        let mut dump = String::new();
        format_register_dump(&outcome.registers, &mut dump);
        assert_eq!(outcome.register_dump(), dump);
    }
}

#[test]
fn scalar_ops_count_single_lane_triviality() {
    // A kernel of only scalar ops: fp_lane_ops must advance by exactly
    // 2 per iteration (mulsd + addsd; sqrtsd is uncounted), identically
    // across tiers.
    let body = vec![
        TaggedInst::reg(Inst::Sqrtsd {
            dst: Xmm::new(0),
            src: Xmm::new(1),
        }),
        TaggedInst::reg(Inst::Mulsd {
            dst: Xmm::new(2),
            src: Xmm::new(3),
        }),
        TaggedInst::reg(Inst::Addsd {
            dst: Xmm::new(4),
            src: Xmm::new(5),
        }),
    ];
    let k = Kernel::new("scalar", body, 1);
    let d = DecodedKernel::new(&k);
    let mut soa = Executor::new(InitScheme::V2Safe, 3);
    let mut interp = Executor::new(InitScheme::V2Safe, 3);
    soa.run_decoded(&d, 50);
    interp.run_interpreted(&k, 50);
    assert_eq!(soa.stats(), interp.stats());
    assert_eq!(soa.stats().fp_lane_ops, 100);
    assert_eq!(soa.state_hash(), interp.state_hash());
}
