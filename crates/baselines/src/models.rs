//! Behavioural models of the comparator stress tests.
//!
//! Each baseline is a cyclic schedule of *phases*; each phase is a
//! simulator kernel run for a duration. The phase structure encodes the
//! power signature §II-B describes for every tool.

use fs2_arch::{MemLevel, Sku};
use fs2_core::groups::parse_groups;
use fs2_core::mix::InstructionMix;
use fs2_core::payload::{build_payload, default_unroll, PayloadConfig};
use fs2_isa::prelude::*;
use fs2_sim::kernel::TaggedInst;
use fs2_sim::Kernel;

/// One phase of a baseline's execution cycle.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    /// `None` = idle (no workload running).
    pub kernel: Option<Kernel>,
    pub duration_s: f64,
}

/// The modelled tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Baseline {
    /// FIRESTARTER 1.x static per-SKU workload.
    Firestarter1,
    /// FIRESTARTER 2 with a representative tuned workload.
    Firestarter2,
    /// Prime95 torture test (Lucas–Lehmer / FFT phases).
    Prime95,
    /// High-Performance-Linpack-style solver with init/validate phases.
    Linpack,
    /// stress-ng `--matrix` (long-double product — not vectorizable).
    StressNgMatrix,
    /// eeMark template benchmark (compute + memory + communication).
    EeMark,
    /// The low-power `sqrtsd` loop of Fig. 2.
    SqrtLoop,
    /// Idle with C-states enabled.
    Idle,
}

impl Baseline {
    pub const ALL: [Baseline; 8] = [
        Baseline::Firestarter1,
        Baseline::Firestarter2,
        Baseline::Prime95,
        Baseline::Linpack,
        Baseline::StressNgMatrix,
        Baseline::EeMark,
        Baseline::SqrtLoop,
        Baseline::Idle,
    ];

    pub const fn name(self) -> &'static str {
        match self {
            Baseline::Firestarter1 => "FIRESTARTER 1",
            Baseline::Firestarter2 => "FIRESTARTER 2",
            Baseline::Prime95 => "Prime95",
            Baseline::Linpack => "Linpack",
            Baseline::StressNgMatrix => "stress-ng (matrix)",
            Baseline::EeMark => "eeMark",
            Baseline::SqrtLoop => "sqrtsd loop",
            Baseline::Idle => "idle",
        }
    }

    /// The phase cycle of this tool on `sku`.
    pub fn phases(self, sku: &Sku) -> Vec<Phase> {
        match self {
            Baseline::Firestarter1 => {
                let w = fs2_core::legacy::LegacyWorkload::for_sku(sku);
                vec![Phase {
                    name: "stress",
                    kernel: Some(w.build(sku).kernel),
                    duration_s: 60.0,
                }]
            }
            Baseline::Firestarter2 => {
                // A representative tuned M per architecture (the benches
                // derive the real optimum via NSGA-II; these are the
                // converged shapes for each node).
                let spec = match sku.uarch {
                    fs2_arch::Microarch::Haswell => "REG:12,L1_2LS:16,L2_LS:1,L3_LS:1,RAM_LS:1",
                    _ => "REG:8,L1_2LS:4,L2_LS:1,L3_LS:1,RAM_LS:1",
                };
                let groups = parse_groups(spec).unwrap();
                let u = default_unroll(sku, InstructionMix::FMA, &groups);
                let p = build_payload(
                    sku,
                    &PayloadConfig {
                        mix: InstructionMix::FMA,
                        groups,
                        unroll: u,
                    },
                );
                vec![Phase {
                    name: "stress",
                    kernel: Some(p.kernel),
                    duration_s: 60.0,
                }]
            }
            Baseline::Prime95 => vec![
                Phase {
                    name: "fft",
                    kernel: Some(prime95_fft_kernel(sku)),
                    duration_s: 40.0,
                },
                Phase {
                    name: "carry",
                    kernel: Some(prime95_carry_kernel()),
                    duration_s: 8.0,
                },
            ],
            Baseline::Linpack => vec![
                Phase {
                    name: "init",
                    kernel: Some(linpack_init_kernel()),
                    duration_s: 15.0,
                },
                Phase {
                    name: "dgemm",
                    kernel: Some(linpack_dgemm_kernel(sku)),
                    duration_s: 120.0,
                },
                Phase {
                    name: "validate",
                    kernel: Some(linpack_validate_kernel()),
                    duration_s: 10.0,
                },
            ],
            Baseline::StressNgMatrix => vec![Phase {
                name: "matrix",
                kernel: Some(stressng_matrix_kernel()),
                duration_s: 60.0,
            }],
            Baseline::EeMark => vec![
                Phase {
                    name: "compute",
                    kernel: Some(eemark_compute_kernel(sku)),
                    duration_s: 30.0,
                },
                Phase {
                    name: "memory",
                    kernel: Some(eemark_memory_kernel(sku)),
                    duration_s: 20.0,
                },
                Phase {
                    name: "communicate",
                    kernel: Some(eemark_comm_kernel()),
                    duration_s: 10.0,
                },
            ],
            Baseline::SqrtLoop => {
                let p = build_payload(
                    sku,
                    &PayloadConfig {
                        mix: InstructionMix::SQRT,
                        groups: parse_groups("REG:1").unwrap(),
                        unroll: 64,
                    },
                );
                vec![Phase {
                    name: "sqrt",
                    kernel: Some(p.kernel),
                    duration_s: 60.0,
                }]
            }
            Baseline::Idle => vec![Phase {
                name: "idle",
                kernel: None,
                duration_s: 60.0,
            }],
        }
    }
}

fn finish(name: &str, mut body: Vec<TaggedInst>, groups: u32) -> Kernel {
    body.push(TaggedInst::reg(Inst::Dec(Gp::Rdi)));
    body.push(TaggedInst::reg(Inst::Jnz { rel: 0 }));
    Kernel::new(name.to_string(), body, groups)
}

/// Prime95 FFT pass: FMA-dense with an L1/L2-resident working set — high
/// power, close to FIRESTARTER's core stress but with more loads.
fn prime95_fft_kernel(sku: &Sku) -> Kernel {
    let groups = parse_groups("REG:2,L1_LS:2,L2_L:1").unwrap();
    let u = default_unroll(sku, InstructionMix::FMA, &groups);
    build_payload(
        sku,
        &PayloadConfig {
            mix: InstructionMix::FMA,
            groups,
            unroll: u,
        },
    )
    .kernel
}

/// Prime95 carry propagation: serial, ALU- and L1-heavy, little FP.
fn prime95_carry_kernel() -> Kernel {
    let mut body = Vec::new();
    for g in 0..256u32 {
        body.push(TaggedInst::mem(
            Inst::VmovapdLoad {
                dst: Ymm::new(10),
                src: Mem::base(Gp::Rbx),
            },
            MemLevel::L1,
        ));
        body.push(TaggedInst::reg(Inst::AddGp {
            dst: Gp::Rax,
            src: Gp::R9,
        }));
        body.push(TaggedInst::reg(Inst::ShrImm {
            dst: Gp::Rax,
            imm: 13,
        }));
        body.push(TaggedInst::reg(Inst::XorGp {
            dst: Gp::R9,
            src: Gp::R10,
        }));
        body.push(TaggedInst::reg(Inst::AddImm {
            dst: Gp::Rbx,
            imm: 64,
        }));
        if g % 32 == 31 {
            body.push(TaggedInst::reg(Inst::MovImm64 {
                dst: Gp::Rbx,
                imm: 0x10_0000,
            }));
        }
    }
    finish("prime95-carry", body, 256)
}

/// HPL panel initialization: memory copies, no arithmetic to speak of.
fn linpack_init_kernel() -> Kernel {
    let mut body = Vec::new();
    for g in 0..128u32 {
        body.push(TaggedInst::mem(
            Inst::VmovapdLoad {
                dst: Ymm::new(10),
                src: Mem::base(Gp::R8),
            },
            MemLevel::Ram,
        ));
        body.push(TaggedInst::mem(
            Inst::VmovapdStore {
                dst: Mem::base_disp(Gp::R8, 32),
                src: Ymm::new(10),
            },
            MemLevel::Ram,
        ));
        body.push(TaggedInst::reg(Inst::AddImm {
            dst: Gp::R8,
            imm: 64,
        }));
        if g % 64 == 63 {
            body.push(TaggedInst::reg(Inst::MovImm64 {
                dst: Gp::R8,
                imm: 0x4000_0000,
            }));
        }
    }
    finish("linpack-init", body, 128)
}

/// HPL DGEMM update: FMA-dense, blocked working set through the caches
/// with panel streaming from RAM.
fn linpack_dgemm_kernel(sku: &Sku) -> Kernel {
    let groups = parse_groups("REG:4,L1_LS:2,L2_L:1,RAM_L:1").unwrap();
    let u = default_unroll(sku, InstructionMix::FMA, &groups);
    build_payload(
        sku,
        &PayloadConfig {
            mix: InstructionMix::FMA,
            groups,
            unroll: u,
        },
    )
    .kernel
}

/// HPL residual check: scalar math and reductions.
fn linpack_validate_kernel() -> Kernel {
    let mut body = Vec::new();
    for _ in 0..128u32 {
        body.push(TaggedInst::reg(Inst::Mulsd {
            dst: Xmm::new(0),
            src: Xmm::new(1),
        }));
        body.push(TaggedInst::reg(Inst::Addsd {
            dst: Xmm::new(2),
            src: Xmm::new(0),
        }));
        body.push(TaggedInst::mem(
            Inst::VmovapdLoad {
                dst: Ymm::new(10),
                src: Mem::base(Gp::Rbx),
            },
            MemLevel::L2,
        ));
        body.push(TaggedInst::reg(Inst::AddImm {
            dst: Gp::Rbx,
            imm: 64,
        }));
    }
    finish("linpack-validate", body, 128)
}

/// stress-ng matrix product with `long double`: "which are not supported
/// by SIMD extensions" — scalar multiply/add chains dominated by
/// ALU/address work; at best 1 FLOP per instruction pair.
fn stressng_matrix_kernel() -> Kernel {
    let mut body = Vec::new();
    for g in 0..256u32 {
        body.push(TaggedInst::reg(Inst::Mulsd {
            dst: Xmm::new((g % 8) as u8),
            src: Xmm::new(8 + (g % 4) as u8),
        }));
        body.push(TaggedInst::reg(Inst::Addsd {
            dst: Xmm::new(((g + 4) % 8) as u8),
            src: Xmm::new((g % 8) as u8),
        }));
        body.push(TaggedInst::reg(Inst::AddGp {
            dst: Gp::Rax,
            src: Gp::R9,
        }));
        if g % 4 == 0 {
            body.push(TaggedInst::mem(
                Inst::VmovapdLoad {
                    dst: Ymm::new(10),
                    src: Mem::base(Gp::Rbx),
                },
                MemLevel::L1,
            ));
            body.push(TaggedInst::reg(Inst::AddImm {
                dst: Gp::Rbx,
                imm: 64,
            }));
        }
    }
    finish("stressng-matrix", body, 256)
}

/// eeMark compute routine: vectorized mul/add templates (no FMA).
fn eemark_compute_kernel(sku: &Sku) -> Kernel {
    let groups = parse_groups("REG:3,L1_LS:1").unwrap();
    let u = default_unroll(sku, InstructionMix::AVX, &groups);
    build_payload(
        sku,
        &PayloadConfig {
            mix: InstructionMix::AVX,
            groups,
            unroll: u,
        },
    )
    .kernel
}

/// eeMark memory routine: streaming RAM load/store.
fn eemark_memory_kernel(sku: &Sku) -> Kernel {
    let groups = parse_groups("REG:1,RAM_LS:2").unwrap();
    let u = default_unroll(sku, InstructionMix::AVX, &groups);
    build_payload(
        sku,
        &PayloadConfig {
            mix: InstructionMix::AVX,
            groups,
            unroll: u,
        },
    )
    .kernel
}

/// eeMark communication routine: the MPI stand-in — pointer chasing and
/// light copies, negligible FP.
fn eemark_comm_kernel() -> Kernel {
    let mut body = Vec::new();
    for g in 0..64u32 {
        body.push(TaggedInst::mem(
            Inst::VmovapdLoad {
                dst: Ymm::new(10),
                src: Mem::base(Gp::R8),
            },
            MemLevel::Ram,
        ));
        body.push(TaggedInst::reg(Inst::AddGp {
            dst: Gp::Rax,
            src: Gp::R9,
        }));
        body.push(TaggedInst::reg(Inst::AddImm {
            dst: Gp::R8,
            imm: 64,
        }));
        if g % 32 == 31 {
            body.push(TaggedInst::reg(Inst::MovImm64 {
                dst: Gp::R8,
                imm: 0x4000_0000,
            }));
        }
    }
    finish("eemark-comm", body, 64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs2_sim::core::{steady_state, ActiveSet};

    fn rome() -> Sku {
        Sku::amd_epyc_7502()
    }

    #[test]
    fn all_baselines_produce_phases() {
        let sku = rome();
        for b in Baseline::ALL {
            let phases = b.phases(&sku);
            assert!(!phases.is_empty(), "{} has no phases", b.name());
            for p in &phases {
                assert!(p.duration_s > 0.0);
                if b != Baseline::Idle {
                    assert!(p.kernel.is_some(), "{}:{} missing kernel", b.name(), p.name);
                }
            }
        }
    }

    #[test]
    fn stressng_matrix_is_not_vectorized() {
        let k = stressng_matrix_kernel();
        // No 256-bit FP arithmetic at all.
        assert!(!k.body.iter().any(|t| matches!(
            t.inst,
            Inst::Vfmadd231pd { .. } | Inst::Vmulpd { .. } | Inst::Vaddpd { .. }
        )));
        // Scalar FLOPs only: far fewer FLOPs per instruction than FMA code.
        let flops_per_inst = k.meta.flops as f64 / k.meta.insts as f64;
        assert!(
            flops_per_inst < 1.0,
            "too many FLOPs/inst: {flops_per_inst}"
        );
    }

    #[test]
    fn linpack_phases_have_contrasting_intensity() {
        let sku = rome();
        let phases = Baseline::Linpack.phases(&sku);
        let ipc_of =
            |k: &Kernel| steady_state(&sku, k, 2000.0, ActiveSet::full(&sku)).fp_utilization;
        let init = phases.iter().find(|p| p.name == "init").unwrap();
        let dgemm = phases.iter().find(|p| p.name == "dgemm").unwrap();
        let fp_init = ipc_of(init.kernel.as_ref().unwrap());
        let fp_dgemm = ipc_of(dgemm.kernel.as_ref().unwrap());
        assert!(
            fp_dgemm > fp_init + 0.3,
            "dgemm {fp_dgemm:.2} vs init {fp_init:.2}"
        );
    }
}
