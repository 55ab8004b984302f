//! Node power composition.

use crate::coeffs::PowerCoeffs;
use fs2_arch::pipeline::FetchSource;
use fs2_arch::{MemLevel, Sku};
use fs2_isa::meta::UopClass;
use fs2_sim::{Kernel, NodeSteadyState};

/// Instruction counts of one kernel iteration, bucketed by energy class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    pub fma: u64,
    pub mul: u64,
    pub add: u64,
    pub veclogic: u64,
    pub sqrt: u64,
    pub scalar: u64,
    pub alu: u64,
    pub branch: u64,
    pub nop: u64,
    pub load: u64,
    pub store: u64,
    pub prefetch: u64,
}

impl ClassCounts {
    /// Buckets every instruction of the kernel body.
    pub fn of(kernel: &Kernel) -> ClassCounts {
        let mut c = ClassCounts::default();
        for t in &kernel.body {
            match fs2_isa::meta::meta(&t.inst).class {
                UopClass::FpFma256 => c.fma += 1,
                UopClass::FpMul256 => c.mul += 1,
                UopClass::FpAdd256 => c.add += 1,
                UopClass::VecLogic256 => c.veclogic += 1,
                UopClass::FpSqrt64 => c.sqrt += 1,
                UopClass::FpScalar64 => c.scalar += 1,
                UopClass::AluLight => c.alu += 1,
                UopClass::Branch => c.branch += 1,
                UopClass::Nop => c.nop += 1,
                UopClass::Load256 => c.load += 1,
                UopClass::Store256 => c.store += 1,
                UopClass::Prefetch => c.prefetch += 1,
            }
        }
        c
    }
}

/// Decomposed node power, watts.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PowerBreakdown {
    /// Board constants (fans, VRs, disks).
    pub platform_w: f64,
    /// All sockets' uncore/IO-die.
    pub uncore_w: f64,
    /// All cores' static/leakage.
    pub core_static_w: f64,
    /// All cores' dynamic (switching) power.
    pub core_dynamic_w: f64,
    /// DRAM background + access energy.
    pub dram_w: f64,
    /// External devices (GPUs) attached by the caller.
    pub external_w: f64,
    /// Core-rail current per socket in amperes (drives EDC throttling).
    pub core_rail_amps_per_socket: f64,
    /// Package power per socket in watts (drives PPT throttling):
    /// cores + uncore + DRAM-access share of one socket.
    pub socket_power_w: f64,
}

impl PowerBreakdown {
    /// Total node power in watts.
    pub fn total_w(&self) -> f64 {
        self.platform_w
            + self.uncore_w
            + self.core_static_w
            + self.core_dynamic_w
            + self.dram_w
            + self.external_w
    }

    /// Adds external device power (e.g. GPUs) and returns self.
    pub fn with_external(mut self, watts: f64) -> PowerBreakdown {
        self.external_w += watts;
        self
    }
}

/// The calibrated node power model for one SKU.
#[derive(Debug, Clone)]
pub struct NodePowerModel {
    sku: Sku,
    coeffs: PowerCoeffs,
}

impl NodePowerModel {
    pub fn new(sku: Sku) -> NodePowerModel {
        let coeffs = PowerCoeffs::for_uarch(sku.uarch);
        NodePowerModel { sku, coeffs }
    }

    pub fn sku(&self) -> &Sku {
        &self.sku
    }

    pub fn coeffs(&self) -> &PowerCoeffs {
        &self.coeffs
    }

    /// Node power with every core in its deepest idle state (the Fig. 2
    /// "Idle (C-States enabled)" bar).
    pub fn idle_power(&self) -> PowerBreakdown {
        let c = &self.coeffs;
        let sockets = f64::from(self.sku.topology.sockets);
        let cores = f64::from(self.sku.topology.total_cores());
        PowerBreakdown {
            platform_w: c.platform_static_w,
            uncore_w: c.uncore_idle_w * sockets,
            core_static_w: 0.0, // folded into core_idle for gated cores
            core_dynamic_w: c.core_idle_w * cores,
            dram_w: c.dram_static_w * sockets,
            external_w: 0.0,
            core_rail_amps_per_socket: 0.0,
            socket_power_w: c.uncore_idle_w
                + (c.core_idle_w * cores + c.dram_static_w * sockets) / sockets,
        }
    }

    /// Node power for a workload steady state.
    ///
    /// `trivial_fraction` is the share of FP lane operations with trivial
    /// operands (from [`fs2_sim::Executor`]); it scales down FMA/MUL/ADD
    /// energy by `fma_gate_factor` (§III-D).
    pub fn workload_power(
        &self,
        node: &NodeSteadyState,
        kernel: &Kernel,
        trivial_fraction: f64,
    ) -> PowerBreakdown {
        let c = &self.coeffs;
        let sku = &self.sku;
        let sockets = f64::from(sku.topology.sockets);
        let total_cores = f64::from(sku.topology.total_cores());
        let active = f64::from(node.active_cores);
        let idle_cores = (total_cores - active).max(0.0);

        let freq_mhz = node.core.freq_mhz;
        let voltage = sku.pstates.voltage_at(freq_mhz);
        let vs = c.vscale(voltage);
        let gate = 1.0 - c.fma_gate_factor * trivial_fraction.clamp(0.0, 1.0);

        let iters = node.core.iters_per_sec; // per active core
        let counts = ClassCounts::of(kernel);
        let n = |x: u64| x as f64 * iters; // events per second per core

        // Arithmetic energy (nJ/s = W when multiplied by 1e-9 · 1e9 = 1).
        let arith_w_nj = n(counts.fma) * c.e_fma256_nj * gate
            + n(counts.mul) * c.e_mul256_nj * gate
            + n(counts.add) * c.e_add256_nj * gate
            + n(counts.veclogic) * c.e_veclogic_nj
            + n(counts.sqrt) * c.e_sqrt_nj
            + n(counts.scalar) * c.e_scalar64_nj
            + n(counts.alu) * c.e_alu_nj
            + n(counts.branch) * c.e_branch_nj
            + n(counts.nop) * c.e_nop_nj
            // LSU per-µop energy: covers explicit loads/stores, FMA-fused
            // loads and prefetches alike (SeqMeta port counts).
            + kernel.meta.load as f64 * iters * c.e_loadop_nj
            + kernel.meta.store as f64 * iters * c.e_storeop_nj;

        // Front-end energy depends on which structure feeds the loop.
        let e_uop = match node.core.fetch_source {
            FetchSource::LoopBuffer => c.e_uop_loopbuf_nj,
            FetchSource::OpCache => c.e_uop_opcache_nj,
            FetchSource::L1i | FetchSource::L2 => c.e_uop_decoder_nj,
        };
        let mut frontend_w_nj = kernel.meta.uops as f64 * iters * e_uop;
        if node.core.fetch_source == FetchSource::L2 {
            // Code streaming from L2 adds cache traffic energy too.
            frontend_w_nj += kernel.code_bytes as f64 * iters * c.e_codefetch_byte_nj;
        }

        // Clock tree runs every cycle, stalled or not.
        let clock_w_nj = freq_mhz * 1e6 * c.e_cycle_nj;

        // Data movement: L1..L3 in the core/CCD voltage domain; DRAM not.
        let bytes = |l: MemLevel| kernel.traffic.bytes(l) as f64 * iters;
        let cache_w_nj = bytes(MemLevel::L1) * c.e_l1_byte_nj
            + bytes(MemLevel::L2) * c.e_l2_byte_nj
            + bytes(MemLevel::L3) * c.e_l3_byte_nj;
        let dram_access_w = bytes(MemLevel::Ram) * c.e_ram_byte_nj * active * 1e-9;

        let per_core_dyn_w = (arith_w_nj + frontend_w_nj + clock_w_nj + cache_w_nj) * vs * 1e-9;
        let core_dynamic_w = per_core_dyn_w * active + c.core_idle_w * idle_cores;
        let core_static_w = c.core_static_w * vs * active;

        // Core-rail current per socket (dynamic + static of that socket's
        // active cores over the rail voltage).
        let active_per_socket = active / sockets;
        let core_rail_amps_per_socket =
            (per_core_dyn_w + c.core_static_w * vs) * active_per_socket / voltage.max(0.1);

        // Package power: cores + uncore + the IMC/IO-die share of DRAM
        // access energy. The DIMM share of `e_ram_byte_nj` sits outside
        // the package domain (it does not count against PPT).
        const IMC_SHARE_OF_DRAM_ACCESS: f64 = 0.35;
        let socket_power_w = (core_dynamic_w
            + core_static_w
            + c.uncore_active_w * sockets
            + c.dram_static_w * sockets
            + dram_access_w * IMC_SHARE_OF_DRAM_ACCESS)
            / sockets;

        PowerBreakdown {
            platform_w: c.platform_static_w,
            uncore_w: c.uncore_active_w * sockets,
            core_static_w,
            core_dynamic_w,
            dram_w: c.dram_static_w * sockets + dram_access_w,
            external_w: 0.0,
            core_rail_amps_per_socket,
            socket_power_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fs2_isa::prelude::*;
    use fs2_sim::kernel::TaggedInst;
    use fs2_sim::SystemSim;

    /// Two FMA + two ALU per group — the paper's §IV-B mix, register-only.
    fn reg_kernel(groups: u32) -> Kernel {
        let mut body = Vec::new();
        for g in 0..groups {
            body.push(TaggedInst::reg(Inst::Vfmadd231pd {
                dst: Ymm::new((g % 12) as u8),
                src1: Ymm::new(12),
                src2: RmYmm::Reg(Ymm::new(14)),
            }));
            body.push(TaggedInst::reg(Inst::XorGp {
                dst: Gp::Rax,
                src: Gp::Rbx,
            }));
            body.push(TaggedInst::reg(Inst::Vfmadd231pd {
                dst: Ymm::new(((g + 6) % 12) as u8),
                src1: Ymm::new(13),
                src2: RmYmm::Reg(Ymm::new(15)),
            }));
            body.push(TaggedInst::reg(Inst::ShlImm {
                dst: Gp::Rdx,
                imm: 4,
            }));
        }
        body.push(TaggedInst::reg(Inst::Dec(Gp::Rdi)));
        body.push(TaggedInst::reg(Inst::Jnz { rel: 0 }));
        Kernel::new("reg-mix", body, groups)
    }

    fn rome_eval(kernel: &Kernel, freq: f64) -> (NodePowerModel, NodeSteadyState) {
        let sku = Sku::amd_epyc_7502();
        let sim = SystemSim::new(sku.clone());
        let node = sim.evaluate(kernel, freq, None);
        (NodePowerModel::new(sku), node)
    }

    #[test]
    fn class_counts_bucketize() {
        let k = reg_kernel(8);
        let c = ClassCounts::of(&k);
        assert_eq!(c.fma, 16);
        assert_eq!(c.alu, 17); // 16 mix ALU + dec
        assert_eq!(c.branch, 1);
        assert_eq!(c.load + c.store + c.prefetch, 0);
    }

    #[test]
    fn reg_only_at_nominal_is_around_314_w() {
        // §III-D landmark: v2.0 REG:1 at nominal ⇒ 314.1 W.
        let k = reg_kernel(64);
        let (model, node) = rome_eval(&k, 2500.0);
        let p = model.workload_power(&node, &k, 0.0).total_w();
        assert!(
            (280.0..=350.0).contains(&p),
            "REG-only @2500 MHz = {p:.1} W, expected ≈314 W"
        );
    }

    #[test]
    fn v174_gating_loses_single_digit_watts() {
        // §III-D landmark: 314.1 W (v2.0) vs 305.6 W (v1.7.4) ⇒ Δ ≈ 8.5 W.
        let k = reg_kernel(64);
        let (model, node) = rome_eval(&k, 2500.0);
        let healthy = model.workload_power(&node, &k, 0.0).total_w();
        let buggy = model.workload_power(&node, &k, 1.0).total_w();
        let delta = healthy - buggy;
        assert!(
            (4.0..=15.0).contains(&delta),
            "gating delta = {delta:.1} W, expected ≈8.5 W"
        );
    }

    #[test]
    fn reg_only_at_1500_matches_fig9_no_access() {
        // Fig. 9 landmark: "No access" at 1500 MHz ⇒ ≈235 W.
        let k = reg_kernel(64);
        let (model, node) = rome_eval(&k, 1500.0);
        let p = model.workload_power(&node, &k, 0.0).total_w();
        assert!(
            (205.0..=265.0).contains(&p),
            "REG-only @1500 MHz = {p:.1} W, expected ≈235 W"
        );
    }

    #[test]
    fn idle_is_far_below_any_workload() {
        let k = reg_kernel(64);
        let (model, node) = rome_eval(&k, 1500.0);
        let idle = model.idle_power().total_w();
        let load = model.workload_power(&node, &k, 0.0).total_w();
        assert!(idle < load * 0.75, "idle {idle:.1} W vs load {load:.1} W");
        assert!(idle > 80.0, "Rome dual-socket idle unrealistically low");
    }

    #[test]
    fn power_rises_with_frequency() {
        let k = reg_kernel(64);
        let sku = Sku::amd_epyc_7502();
        let sim = SystemSim::new(sku.clone());
        let model = NodePowerModel::new(sku);
        let mut prev = 0.0;
        for f in [1500.0, 2200.0, 2500.0] {
            let node = sim.evaluate(&k, f, None);
            let p = model.workload_power(&node, &k, 0.0).total_w();
            assert!(p > prev, "power not monotonic in frequency at {f} MHz");
            prev = p;
        }
    }

    #[test]
    fn memory_access_energy_adds_power() {
        // A RAM-streaming variant must consume more than register-only
        // (the Fig. 2/9 ladder), even though its IPC is lower.
        let reg = reg_kernel(64);
        let mut body = reg.body.clone();
        // Replace every 4th group's ALU with a RAM load.
        for (i, t) in body.iter_mut().enumerate() {
            if i % 16 == 1 {
                *t = TaggedInst::mem(
                    Inst::VmovapdLoad {
                        dst: Ymm::new(11),
                        src: Mem::base(Gp::Rbx),
                    },
                    MemLevel::Ram,
                );
            }
        }
        let ram = Kernel::new("ram-mix", body, 64);
        let sku = Sku::amd_epyc_7502();
        let sim = SystemSim::new(sku.clone());
        let model = NodePowerModel::new(sku);
        let reg_node = sim.evaluate(&reg, 1500.0, None);
        let ram_node = sim.evaluate(&ram, 1500.0, None);
        let p_reg = model.workload_power(&reg_node, &reg, 0.0).total_w();
        let p_ram = model.workload_power(&ram_node, &ram, 0.0).total_w();
        assert!(
            p_ram > p_reg + 20.0,
            "RAM access energy too small: {p_reg:.1} -> {p_ram:.1} W"
        );
    }

    #[test]
    fn current_scales_with_activity() {
        let k = reg_kernel(64);
        let (model, node) = rome_eval(&k, 2500.0);
        let full = model.workload_power(&node, &k, 0.0);
        assert!(full.core_rail_amps_per_socket > 20.0);
        let sku = Sku::amd_epyc_7502();
        let sim = SystemSim::new(sku);
        let half_node = sim.evaluate(&k, 2500.0, Some(32));
        let half = model.workload_power(&half_node, &k, 0.0);
        assert!(half.core_rail_amps_per_socket < full.core_rail_amps_per_socket);
    }

    #[test]
    fn external_power_composes() {
        let p = PowerBreakdown::default().with_external(116.0);
        assert_eq!(p.total_w(), 116.0);
    }

    #[test]
    fn haswell_idle_matches_fig2_bottom_bar() {
        // Fig. 2 "Idle (C-States enabled)" on the Haswell node: ~70-90 W.
        let model = NodePowerModel::new(Sku::intel_xeon_e5_2680_v3());
        let idle = model.idle_power().total_w();
        assert!((60.0..=95.0).contains(&idle), "Haswell idle = {idle:.1} W");
    }

    #[test]
    fn haswell_full_stress_matches_fig2_top_bar() {
        // Fig. 2 full FIRESTARTER on the Haswell node: ~360 W at 2000 MHz.
        let sku = Sku::intel_xeon_e5_2680_v3();
        let sim = SystemSim::new(sku.clone());
        let model = NodePowerModel::new(sku.clone());
        let mix = fs2_core_free_kernel(&sku);
        let node = sim.evaluate(&mix, 2000.0, None);
        let p = model.workload_power(&node, &mix, 0.0).total_w();
        assert!(
            (310.0..=420.0).contains(&p),
            "Haswell full stress = {p:.1} W, expected ≈360 W"
        );
    }

    /// A dense stress kernel without depending on fs2-core (layering):
    /// 2 FMA + L1 load/store pair + RAM load every 8th group.
    fn fs2_core_free_kernel(_sku: &Sku) -> Kernel {
        use fs2_isa::prelude::*;
        use fs2_sim::kernel::TaggedInst;
        let mut body = Vec::new();
        for g in 0..64u32 {
            body.push(TaggedInst::reg(Inst::Vfmadd231pd {
                dst: Ymm::new((g % 10) as u8),
                src1: Ymm::new(12),
                src2: RmYmm::Reg(Ymm::new(14)),
            }));
            body.push(TaggedInst::mem(
                Inst::VmovapdLoad {
                    dst: Ymm::new(10),
                    src: Mem::base(Gp::Rbx),
                },
                MemLevel::L1,
            ));
            body.push(TaggedInst::reg(Inst::Vfmadd231pd {
                dst: Ymm::new(((g + 5) % 10) as u8),
                src1: Ymm::new(13),
                src2: RmYmm::Reg(Ymm::new(15)),
            }));
            if g % 8 == 0 {
                body.push(TaggedInst::mem(
                    Inst::VmovapdLoad {
                        dst: Ymm::new(11),
                        src: Mem::base(Gp::R8),
                    },
                    MemLevel::Ram,
                ));
            } else {
                body.push(TaggedInst::mem(
                    Inst::VmovapdStore {
                        dst: Mem::base_disp(Gp::Rbx, 32),
                        src: Ymm::new(10),
                    },
                    MemLevel::L1,
                ));
            }
        }
        body.push(TaggedInst::reg(Inst::Dec(Gp::Rdi)));
        body.push(TaggedInst::reg(Inst::Jnz { rel: 0 }));
        Kernel::new("haswell-stress", body, 64)
    }
}
