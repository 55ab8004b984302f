//! Functional (value-level) executor.
//!
//! §III-D of the paper: the *data* processed by the FMA units changes
//! power measurably. Intel's FMA clock-gating patent (Hickmann et al.)
//! gates parts of the unit when "an answer is either trivially known" —
//! operands of ±∞ or 0. FIRESTARTER 1.7.4 had an initialization bug that
//! let register values accumulate to ±∞, silently losing ~8.5 W of node
//! power; FIRESTARTER 2.0 fixes the initialization and gains it back.
//!
//! This executor runs the kernel's instruction stream over real `f64`
//! register state so that exactly this effect — and the register-dump /
//! error-detection features of §III-D — fall out of actual computation
//! rather than a hard-coded flag.
//!
//! Two implementations share one register state:
//!
//! * [`Executor::run_interpreted`] — matches raw [`Inst`] variants every
//!   iteration with per-lane triviality checks on every operand (the
//!   reference semantics, and the oracle of the `exec_parity` suite);
//! * [`Executor::run_decoded`] — the lane-vectorized path every
//!   production run takes. It replays a flat [`DecodedKernel`] micro-op
//!   table; registers live in a flat 16 × [`LANES`] lane array (one
//!   contiguous fixed-size lane slice per register), micro-ops carry
//!   masked register numbers that index it checked-free, FMA/MUL/ADD
//!   bodies iterate fixed-size lane slices the compiler auto-vectorizes,
//!   and triviality is a per-register lane bitmask updated once per
//!   destination write instead of per-lane checks on every source
//!   operand.
//!
//! Both are bit-identical in results: same [`ExecStats`], same
//! [`Executor::state_hash`], same register dumps.

use crate::kernel::Kernel;
use fs2_arch::MemLevel;
use fs2_isa::inst::{Inst, RmYmm};
use fs2_isa::mem::Mem;
use std::fmt::Write as _;

/// Register/buffer initialization scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InitScheme {
    /// FIRESTARTER 2.0: products are tiny relative to the accumulator, so
    /// values stay finite and non-trivial for the life of the run.
    V2Safe,
    /// The 1.7.4 bug: initial magnitudes are so large that accumulators
    /// overflow to ±∞ within a few iterations, after which the FMA inputs
    /// are trivial and the unit clock-gates.
    V174Buggy,
}

/// Statistics accumulated during functional execution.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecStats {
    /// Executed FMA/MUL/ADD lane operations (one per f64 lane).
    pub fp_lane_ops: u64,
    /// Lane operations with at least one trivial (±∞/0/NaN) operand.
    pub trivial_lane_ops: u64,
    /// Completed loop iterations.
    pub iterations: u64,
}

impl ExecStats {
    /// Fraction of FP lane work that the FMA unit can clock-gate.
    pub fn trivial_fraction(&self) -> f64 {
        if self.fp_lane_ops == 0 {
            0.0
        } else {
            self.trivial_lane_ops as f64 / self.fp_lane_ops as f64
        }
    }
}

/// Branchless triviality test: ±0 (upper 63 bits clear once the sign is
/// shifted out) or an all-ones exponent (±∞/NaN). Equivalent to
/// `x == 0.0 || x.is_infinite() || x.is_nan()` but auto-vectorizable.
#[inline(always)]
fn is_trivial(x: f64) -> bool {
    let b = x.to_bits();
    (b << 1) == 0 || (b & 0x7FF0_0000_0000_0000) == 0x7FF0_0000_0000_0000
}

/// The interpreter's per-lane triviality test, written as the plain
/// definition so the reference semantics do not depend on the bit
/// tricks of [`is_trivial`] and [`mask4`] that the fast path relies on.
/// Semantically identical to [`is_trivial`].
#[inline]
fn is_trivial_v1(x: f64) -> bool {
    x == 0.0 || x.is_infinite() || x.is_nan()
}

/// Triviality lane bitmask of one register value (bit `l` set ⇔ lane `l`
/// is ±∞/0/NaN). Only the low [`LANES`] bits are ever set.
///
/// This is the one operation the replay loop performs per destination
/// write, so on AVX hosts it is four vector instructions + a movemask:
/// `x == 0` catches ±0, `!(|x| < ∞)` (unordered compare) catches ±∞ and
/// NaN. The autovectorizer does not form `vmovmskpd` from the scalar
/// loop — it extracts every lane through GP registers, ~7× the
/// instructions — hence the explicit intrinsics. The portable arm below
/// is the same predicate, and the exec_parity suite pins both to the
/// interpreted tier's per-lane semantics.
#[cfg(all(target_arch = "x86_64", target_feature = "avx"))]
#[inline(always)]
fn mask4(v: &[f64; LANES]) -> u8 {
    use std::arch::x86_64::{
        _mm256_andnot_pd, _mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_or_pd,
        _mm256_set1_pd, _mm256_setzero_pd, _CMP_EQ_OQ, _CMP_NLT_UQ,
    };
    const { assert!(LANES == 4, "AVX mask4 is 4-lane") };
    // SAFETY: this arm only compiles when AVX is statically enabled
    // (the workspace builds with `-C target-feature=+fma,+avx2`), and
    // `v` is a valid, readable `[f64; 4]`.
    unsafe {
        let x = _mm256_loadu_pd(v.as_ptr());
        let is_zero = _mm256_cmp_pd::<_CMP_EQ_OQ>(x, _mm256_setzero_pd());
        let abs = _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
        let not_finite = _mm256_cmp_pd::<_CMP_NLT_UQ>(abs, _mm256_set1_pd(f64::INFINITY));
        (_mm256_movemask_pd(_mm256_or_pd(is_zero, not_finite)) as u8) & 0xF
    }
}

/// Portable [`mask4`] for targets without statically-enabled AVX.
#[cfg(not(all(target_arch = "x86_64", target_feature = "avx")))]
#[inline(always)]
fn mask4(v: &[f64; LANES]) -> u8 {
    let mut m = 0u8;
    for (l, &x) in v.iter().enumerate() {
        m |= u8::from(is_trivial(x)) << l;
    }
    m
}

/// Deterministic xorshift64* generator so the executor does not need the
/// `rand` dependency (and stays reproducible across the workspace).
#[derive(Debug, Clone)]
struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    fn new(seed: u64) -> XorShift64 {
        XorShift64 { state: seed.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in [0, 1).
    fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// f64 lanes per 256-bit vector register.
pub const LANES: usize = 4;
/// Per-level functional buffer length in 256-bit elements. Functional
/// behaviour only needs value storage, not real capacities.
const BUF_ELEMS: usize = 1024;
/// Buffer slot modulus. Buffers always hold exactly [`BUF_ELEMS`]
/// elements, so the historical `BUF_ELEMS.min(len - 1)` divisor is the
/// compile-time constant `BUF_ELEMS - 1` — which lets the hot path use a
/// strength-reduced constant remainder instead of a runtime division.
const SLOT_MOD: usize = BUF_ELEMS - 1;

/// Pre-resolved memory operand: register numbers and the level's buffer
/// index extracted once so the hot loop does no `Option`/enum matching.
#[derive(Debug, Clone, Copy)]
struct MemOp {
    base: u8,
    /// Index register number; only read when `index_factor > 0`.
    index_reg: u8,
    /// Scale factor (1/2/4/8), or 0 when the operand has no index.
    index_factor: u8,
    disp: i32,
    /// `MemLevel::idx()` of the access stream's target.
    level: u8,
}

impl MemOp {
    fn new(mem: &Mem, level: MemLevel) -> MemOp {
        let (index_reg, index_factor) = match mem.index {
            Some((r, s)) => (r.num(), s.factor()),
            None => (0, 0),
        };
        MemOp {
            base: mem.base.num(),
            index_reg,
            index_factor,
            disp: mem.disp,
            level: level.idx() as u8,
        }
    }
}

/// Masked register index: `Ymm::num()` is always < 16, and the `& 15`
/// lets the compiler drop every bounds check in the replay loop (the
/// register file is `[[f64; LANES]; 16]`).
#[inline(always)]
fn ri(reg: u8) -> usize {
    (reg & 15) as usize
}
/// One pre-decoded micro-operation. Control flow (`cmp`/`jnz`), hints
/// and `nop`/`ret` have no functional effect and are dropped at decode
/// time, so the replay loop touches only state-changing operations.
/// Vector-register operands are plain register numbers (< 16), indexed
/// through [`ri`] so lane loads compile to unchecked 256-bit moves.
#[derive(Debug, Clone, Copy)]
enum MicroOp {
    Fma { dst: u8, a: u8, b: u8 },
    FmaMem { dst: u8, a: u8, mem: MemOp },
    Mul { dst: u8, a: u8, b: u8 },
    MulMem { dst: u8, a: u8, mem: MemOp },
    Add { dst: u8, a: u8, b: u8 },
    AddMem { dst: u8, a: u8, mem: MemOp },
    Xor { dst: u8, a: u8, b: u8 },
    Load { dst: u8, mem: MemOp },
    Store { src: u8, mem: MemOp },
    SqrtSd { dst: u8, src: u8 },
    MulSd { dst: u8, src: u8 },
    AddSd { dst: u8, src: u8 },
    GpXor { dst: u8, src: u8 },
    GpShl { dst: u8, imm: u8 },
    GpShr { dst: u8, imm: u8 },
    GpAddImm { dst: u8, imm: i32 },
    GpAdd { dst: u8, src: u8 },
    GpMovImm { dst: u8, imm: u64 },
    GpDec { dst: u8 },
}

/// A kernel pre-decoded into a flat micro-op table, built once and
/// replayed for every functional iteration (and, in the engine, shared
/// by every run of a cached payload). Replay through
/// [`Executor::run_decoded`] is bit-identical to interpreting the raw
/// instruction stream.
#[derive(Debug, Clone)]
pub struct DecodedKernel {
    ops: Vec<MicroOp>,
}

impl DecodedKernel {
    /// Decodes a kernel body. Panics if a memory-touching instruction has
    /// no level tag (same contract as [`Kernel::new`]).
    pub fn new(kernel: &Kernel) -> DecodedKernel {
        let mut ops = Vec::with_capacity(kernel.body.len());
        for t in &kernel.body {
            let level = |what: &str| {
                t.level
                    .unwrap_or_else(|| panic!("{what} needs a level tag in `{}`", kernel.name))
            };
            let op = match &t.inst {
                Inst::Vfmadd231pd { dst, src1, src2 } => match src2 {
                    RmYmm::Reg(b) => MicroOp::Fma {
                        dst: dst.num(),
                        a: src1.num(),
                        b: b.num(),
                    },
                    RmYmm::Mem(m) => MicroOp::FmaMem {
                        dst: dst.num(),
                        a: src1.num(),
                        mem: MemOp::new(m, level("memory operand")),
                    },
                },
                Inst::Vmulpd { dst, src1, src2 } => match src2 {
                    RmYmm::Reg(b) => MicroOp::Mul {
                        dst: dst.num(),
                        a: src1.num(),
                        b: b.num(),
                    },
                    RmYmm::Mem(m) => MicroOp::MulMem {
                        dst: dst.num(),
                        a: src1.num(),
                        mem: MemOp::new(m, level("memory operand")),
                    },
                },
                Inst::Vaddpd { dst, src1, src2 } => match src2 {
                    RmYmm::Reg(b) => MicroOp::Add {
                        dst: dst.num(),
                        a: src1.num(),
                        b: b.num(),
                    },
                    RmYmm::Mem(m) => MicroOp::AddMem {
                        dst: dst.num(),
                        a: src1.num(),
                        mem: MemOp::new(m, level("memory operand")),
                    },
                },
                Inst::Vxorps { dst, src1, src2 } => MicroOp::Xor {
                    dst: dst.num(),
                    a: src1.num(),
                    b: src2.num(),
                },
                Inst::VmovapdLoad { dst, src } => MicroOp::Load {
                    dst: dst.num(),
                    mem: MemOp::new(src, level("load")),
                },
                Inst::VmovapdStore { dst, src } => MicroOp::Store {
                    src: src.num(),
                    mem: MemOp::new(dst, level("store")),
                },
                Inst::Sqrtsd { dst, src } => MicroOp::SqrtSd {
                    dst: dst.num(),
                    src: src.num(),
                },
                Inst::Mulsd { dst, src } => MicroOp::MulSd {
                    dst: dst.num(),
                    src: src.num(),
                },
                Inst::Addsd { dst, src } => MicroOp::AddSd {
                    dst: dst.num(),
                    src: src.num(),
                },
                Inst::XorGp { dst, src } => MicroOp::GpXor {
                    dst: dst.num(),
                    src: src.num(),
                },
                Inst::ShlImm { dst, imm } => MicroOp::GpShl {
                    dst: dst.num(),
                    imm: *imm,
                },
                Inst::ShrImm { dst, imm } => MicroOp::GpShr {
                    dst: dst.num(),
                    imm: *imm,
                },
                Inst::AddImm { dst, imm } => MicroOp::GpAddImm {
                    dst: dst.num(),
                    imm: *imm,
                },
                Inst::AddGp { dst, src } => MicroOp::GpAdd {
                    dst: dst.num(),
                    src: src.num(),
                },
                Inst::MovImm64 { dst, imm } => MicroOp::GpMovImm {
                    dst: dst.num(),
                    imm: *imm,
                },
                Inst::Dec(r) => MicroOp::GpDec { dst: r.num() },
                // No functional effect; dropped from the replay table.
                Inst::CmpGp { .. }
                | Inst::Jnz { .. }
                | Inst::Prefetch { .. }
                | Inst::Nop
                | Inst::Ret => continue,
            };
            ops.push(op);
        }
        DecodedKernel { ops }
    }

    /// Number of state-changing micro-ops per iteration.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the kernel has no state-changing operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// Everything a functional pass produces: [`ExecStats`], the
/// error-detection state hash, and the final vector register file (from
/// which the `--dump-registers` text is a pure formatting step). A
/// `FunctionalOutcome` is a pure function of
/// `(kernel, InitScheme, seed, iterations)`, which is what makes the
/// engine-level ExecStats cache sound.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionalOutcome {
    /// Lane-op statistics of the pass.
    pub stats: ExecStats,
    /// FNV-1a hash over the final vector state ([`Executor::state_hash`]).
    pub state_hash: u64,
    /// Final vector register file.
    pub registers: [[f64; LANES]; 16],
}

impl FunctionalOutcome {
    /// Formats the register dump of the final state
    /// (see [`format_register_dump`]).
    pub fn register_dump(&self) -> String {
        let mut s = String::new();
        format_register_dump(&self.registers, &mut s);
        s
    }
}

/// Runs one complete functional pass: a fresh executor initialized per
/// `(scheme, seed)`, `iterations` replays of `decoded`, and the packaged
/// [`FunctionalOutcome`].
pub fn run_functional(
    decoded: &DecodedKernel,
    scheme: InitScheme,
    seed: u64,
    iterations: u64,
) -> FunctionalOutcome {
    let mut ex = Executor::new(scheme, seed);
    ex.run_decoded(decoded, iterations);
    ex.outcome()
}

/// Writes a register file in hexadecimal + decimal form — the
/// `--dump-registers` feature used to verify SIMD correctness in
/// out-of-spec (overclocked) operation.
pub fn format_register_dump(regs: &[[f64; LANES]; 16], out: &mut String) {
    for (i, reg) in regs.iter().enumerate() {
        let _ = write!(out, "ymm{i:<2}");
        for lane in reg {
            let _ = write!(out, " {:#018x}({:+.6e})", lane.to_bits(), lane);
        }
        let _ = writeln!(out);
    }
}

/// One memory level's functional buffer: a fixed-size boxed slot array.
/// The compile-time length is what lets the replay loop's slot indexing
/// (`addr % SLOT_MOD < BUF_ELEMS`) drop its bounds checks.
type Buffer = Box<[[f64; LANES]; BUF_ELEMS]>;

/// Value-level executor for payload kernels.
///
/// Register and buffer state is stored structure-of-arrays style: the
/// vector file is a flat `16 × LANES` lane array (each register one
/// contiguous, fixed-size lane slice) and each memory level one flat
/// fixed-size slot array, so the vectorized replay loop indexes lanes
/// directly with the micro-ops' masked register numbers — no slicing,
/// no bounds checks, bodies the compiler auto-vectorizes.
#[derive(Debug, Clone)]
pub struct Executor {
    /// Vector register file, register-major: `ymm[N]` is the LANES-wide
    /// lane slice of `ymmN`.
    ymm: [[f64; LANES]; 16],
    gp: [u64; 16],
    /// Per-register triviality lane bitmask (bit `l` ⇔ lane `l` trivial).
    /// Maintained by [`Executor::run_decoded`] (refreshed from values on
    /// entry), so the interpreter and fault injection never need to keep
    /// it coherent.
    ymm_mask: [u8; 16],
    /// Per-level functional buffers, [`BUF_ELEMS`] 256-bit slots each.
    buffers: [Buffer; 4],
    /// Per-slot triviality masks mirroring `buffers`.
    buf_mask: [Box<[u8; BUF_ELEMS]>; 4],
    stats: ExecStats,
    scheme: InitScheme,
}

impl Executor {
    /// Creates an executor with registers and buffers initialized per
    /// `scheme`, deterministically from `seed`.
    pub fn new(scheme: InitScheme, seed: u64) -> Executor {
        let mut rng = XorShift64::new(seed);
        let mut ymm = [[0.0; LANES]; 16];
        match scheme {
            InitScheme::V2Safe => {
                // Accumulators in [1, 2); multiplicand pairs whose products
                // are ~1e-12 with alternating sign: the accumulator drifts
                // by less than 1e-3 over 1e9 iterations.
                for (r, reg) in ymm.iter_mut().enumerate() {
                    for (l, lane) in reg.iter_mut().enumerate() {
                        let sign = if (r + l) % 2 == 0 { 1.0 } else { -1.0 };
                        *lane = match r {
                            12..=13 => sign * (1.0 + rng.next_f64()) * 1e-6,
                            14..=15 => sign * (1.0 + rng.next_f64()) * 1e-6,
                            _ => 1.0 + rng.next_f64(),
                        };
                    }
                }
            }
            InitScheme::V174Buggy => {
                // Multiplicands around 1e160: the very first FMA pushes the
                // accumulator past DBL_MAX.
                for (r, reg) in ymm.iter_mut().enumerate() {
                    for (l, lane) in reg.iter_mut().enumerate() {
                        let sign = if (r + l) % 2 == 0 { 1.0 } else { -1.0 };
                        *lane = match r {
                            12..=15 => sign * (1.0 + rng.next_f64()) * 1e160,
                            _ => 1.0 + rng.next_f64(),
                        };
                    }
                }
            }
        }
        // Draw order matches the historical flat layout (slot-major,
        // lane within slot), so buffer contents — and every downstream
        // hash — are unchanged.
        let mut mk_buf = |scale: f64| -> Buffer {
            let mut buf: Buffer = vec![[0.0; LANES]; BUF_ELEMS]
                .into_boxed_slice()
                .try_into()
                .expect("BUF_ELEMS slots");
            for slot in buf.iter_mut() {
                for lane in slot.iter_mut() {
                    *lane = (0.5 + rng.next_f64()) * scale;
                }
            }
            buf
        };
        let buffers = [mk_buf(1.0), mk_buf(1.0), mk_buf(1.0), mk_buf(1.0)];
        let mk_mask = || -> Box<[u8; BUF_ELEMS]> {
            vec![0u8; BUF_ELEMS]
                .into_boxed_slice()
                .try_into()
                .expect("BUF_ELEMS masks")
        };
        let buf_mask = [mk_mask(), mk_mask(), mk_mask(), mk_mask()];
        // All-zero masks are the correct initial state: both schemes
        // initialize every register and buffer lane to a nonzero finite
        // value, and `run_decoded` refreshes masks on entry anyway.
        Executor {
            ymm,
            gp: [0; 16],
            ymm_mask: [0; 16],
            buffers,
            buf_mask,
            stats: ExecStats::default(),
            scheme,
        }
    }

    /// The initialization scheme in use.
    pub fn scheme(&self) -> InitScheme {
        self.scheme
    }

    /// Current vector register file.
    pub fn registers(&self) -> [[f64; LANES]; 16] {
        self.ymm
    }

    /// Statistics so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Packages the current state as a [`FunctionalOutcome`].
    pub fn outcome(&self) -> FunctionalOutcome {
        FunctionalOutcome {
            stats: self.stats,
            state_hash: self.state_hash(),
            registers: self.registers(),
        }
    }

    /// Recomputes every triviality mask from the current values. Called
    /// on entry to [`Executor::run_decoded`] so that state mutated by the
    /// interpreter or [`Executor::inject_bit_flip`] never leaves the
    /// masks stale.
    fn refresh_masks(&mut self) {
        for (r, reg) in self.ymm.iter().enumerate() {
            self.ymm_mask[r] = mask4(reg);
        }
        for (masks, buf) in self.buf_mask.iter_mut().zip(&self.buffers) {
            for (m, slot) in masks.iter_mut().zip(buf.iter()) {
                *m = mask4(slot);
            }
        }
    }

    /// Slots are always produced modulo the buffer modulus (<
    /// [`BUF_ELEMS`]); the `&` masks restate that bound so the indexing
    /// is checked-free.
    #[inline(always)]
    fn buf_write(&mut self, level: usize, slot: usize, v: [f64; LANES]) {
        self.buffers[level & 3][slot & (BUF_ELEMS - 1)] = v;
    }

    fn addr_of(&self, mem: &Mem) -> u64 {
        let base = self.gp[mem.base.num() as usize];
        let idx = mem
            .index
            .map(|(r, s)| self.gp[r.num() as usize].wrapping_mul(u64::from(s.factor())))
            .unwrap_or(0);
        base.wrapping_add(idx).wrapping_add(mem.disp as i64 as u64)
    }

    fn buf_slot(&self, level: MemLevel, mem: &Mem) -> usize {
        let elems = self.buffers[level.idx()].len();
        // Slot granularity matches the 32-byte vmovapd width; `level`
        // selects the buffer in the caller.
        (self.addr_of(mem) / 32) as usize % BUF_ELEMS.min(elems - 1)
    }

    /// Micro-op address resolution: the interpreter's address
    /// arithmetic ([`Executor::buf_slot`]), but the modulus is the
    /// compile-time [`SLOT_MOD`] (buffers always hold exactly
    /// [`BUF_ELEMS`] slots, so `BUF_ELEMS.min(len - 1)` is constant).
    #[inline(always)]
    fn slot_fast(&self, mem: &MemOp) -> usize {
        let base = self.gp[mem.base as usize];
        let idx = if mem.index_factor > 0 {
            self.gp[mem.index_reg as usize].wrapping_mul(u64::from(mem.index_factor))
        } else {
            0
        };
        let addr = base.wrapping_add(idx).wrapping_add(mem.disp as i64 as u64);
        // `% SLOT_MOD` already bounds the slot below BUF_ELEMS; the `&`
        // restates it as a mask so every fixed-size-array index downstream
        // is provably in range (no bounds checks in the replay loop).
        ((addr / 32) as usize % SLOT_MOD) & (BUF_ELEMS - 1)
    }

    fn count_fp(&mut self, operands: &[[f64; LANES]]) {
        for l in 0..LANES {
            self.stats.fp_lane_ops += 1;
            if operands.iter().any(|o| is_trivial_v1(o[l])) {
                self.stats.trivial_lane_ops += 1;
            }
        }
    }

    fn read_rm(&self, src: &RmYmm, level: Option<MemLevel>) -> [f64; LANES] {
        match src {
            RmYmm::Reg(r) => self.vload_v1(r.num()),
            RmYmm::Mem(m) => {
                let level = level.expect("memory operand needs a level tag");
                self.buf_read_v1(level.idx(), self.buf_slot(level, m))
            }
        }
    }

    fn exec_inst(&mut self, inst: &Inst, level: Option<MemLevel>) {
        match inst {
            Inst::Vfmadd231pd { dst, src1, src2 } => {
                let di = dst.num();
                let d = self.vload_v1(di);
                let a = self.vload_v1(src1.num());
                let b = self.read_rm(src2, level);
                self.count_fp(&[d, a, b]);
                let mut out = [0.0; LANES];
                for l in 0..LANES {
                    out[l] = a[l].mul_add(b[l], d[l]);
                }
                self.vstore_v1(di, out);
            }
            Inst::Vmulpd { dst, src1, src2 } => {
                let a = self.vload_v1(src1.num());
                let b = self.read_rm(src2, level);
                self.count_fp(&[a, b]);
                let mut out = [0.0; LANES];
                for l in 0..LANES {
                    out[l] = a[l] * b[l];
                }
                self.vstore_v1(dst.num(), out);
            }
            Inst::Vaddpd { dst, src1, src2 } => {
                let a = self.vload_v1(src1.num());
                let b = self.read_rm(src2, level);
                self.count_fp(&[a, b]);
                let mut out = [0.0; LANES];
                for l in 0..LANES {
                    out[l] = a[l] + b[l];
                }
                self.vstore_v1(dst.num(), out);
            }
            Inst::Vxorps { dst, src1, src2 } => {
                let a = self.vload_v1(src1.num());
                let b = self.vload_v1(src2.num());
                let mut out = [0.0; LANES];
                for l in 0..LANES {
                    out[l] = f64::from_bits(a[l].to_bits() ^ b[l].to_bits());
                }
                self.vstore_v1(dst.num(), out);
            }
            Inst::VmovapdLoad { dst, src } => {
                let level = level.expect("load needs a level tag");
                let v = self.buf_read_v1(level.idx(), self.buf_slot(level, src));
                self.vstore_v1(dst.num(), v);
            }
            Inst::VmovapdStore { dst, src } => {
                let level = level.expect("store needs a level tag");
                let slot = self.buf_slot(level, dst);
                let v = self.vload_v1(src.num());
                self.buf_write(level.idx(), slot, v);
            }
            Inst::Sqrtsd { dst, src } => {
                let s = self.ymm[ri(src.num())][0];
                self.ymm[ri(dst.num())][0] = s.sqrt();
            }
            Inst::Mulsd { dst, src } => {
                let s = self.ymm[ri(src.num())][0];
                let di = ri(dst.num());
                let d = self.ymm[di][0];
                self.stats.fp_lane_ops += 1;
                if is_trivial_v1(s) || is_trivial_v1(d) {
                    self.stats.trivial_lane_ops += 1;
                }
                self.ymm[di][0] = d * s;
            }
            Inst::Addsd { dst, src } => {
                let s = self.ymm[ri(src.num())][0];
                let di = ri(dst.num());
                let d = self.ymm[di][0];
                self.stats.fp_lane_ops += 1;
                if is_trivial_v1(s) || is_trivial_v1(d) {
                    self.stats.trivial_lane_ops += 1;
                }
                self.ymm[di][0] = d + s;
            }
            Inst::XorGp { dst, src } => {
                self.gp[dst.num() as usize] ^= self.gp[src.num() as usize];
            }
            Inst::ShlImm { dst, imm } => {
                let d = &mut self.gp[dst.num() as usize];
                *d = d.wrapping_shl(u32::from(*imm));
            }
            Inst::ShrImm { dst, imm } => {
                let d = &mut self.gp[dst.num() as usize];
                *d = d.wrapping_shr(u32::from(*imm));
            }
            Inst::AddImm { dst, imm } => {
                let d = &mut self.gp[dst.num() as usize];
                *d = d.wrapping_add(*imm as i64 as u64);
            }
            Inst::AddGp { dst, src } => {
                let s = self.gp[src.num() as usize];
                let d = &mut self.gp[dst.num() as usize];
                *d = d.wrapping_add(s);
            }
            Inst::MovImm64 { dst, imm } => {
                self.gp[dst.num() as usize] = *imm;
            }
            Inst::Dec(r) => {
                let d = &mut self.gp[r.num() as usize];
                *d = d.wrapping_sub(1);
            }
            // Control flow is driven by the caller; comparisons, branches
            // and hints have no functional effect here.
            Inst::CmpGp { .. }
            | Inst::Jnz { .. }
            | Inst::Prefetch { .. }
            | Inst::Nop
            | Inst::Ret => {}
        }
    }

    /// Executes `iterations` passes over the kernel body.
    ///
    /// Pre-decodes the instruction stream into a micro-op table once,
    /// then replays it through the lane-vectorized fast path. Equivalent
    /// to [`Executor::run_interpreted`] bit for bit (state, stats).
    pub fn run(&mut self, kernel: &Kernel, iterations: u64) -> &ExecStats {
        let decoded = DecodedKernel::new(kernel);
        self.run_decoded(&decoded, iterations)
    }

    /// Executes `iterations` passes over a pre-decoded kernel through the
    /// lane-vectorized fast path. Decode the kernel once with
    /// [`DecodedKernel::new`] and reuse it across runs (the engine keeps
    /// one table per cached payload).
    ///
    /// FP-op bodies iterate fixed-size `[f64; LANES]` slices of the flat
    /// lane array (auto-vectorizable), and the interpreter's per-lane
    /// triviality test collapses to a bitmask OR + popcount per op:
    /// each destination write refreshes its register's mask once, and
    /// source operands reuse the masks instead of re-testing every lane.
    pub fn run_decoded(&mut self, decoded: &DecodedKernel, iterations: u64) -> &ExecStats {
        self.refresh_masks();
        let mut fp_ops: u64 = 0;
        let mut trivial: u64 = 0;
        for _ in 0..iterations {
            for op in &decoded.ops {
                match *op {
                    MicroOp::Fma { dst, a, b } => {
                        let di = ri(dst);
                        let d = self.ymm[di];
                        let x = self.ymm[ri(a)];
                        let y = self.ymm[ri(b)];
                        let tm = self.ymm_mask[di] | self.ymm_mask[ri(a)] | self.ymm_mask[ri(b)];
                        fp_ops += LANES as u64;
                        trivial += u64::from(tm.count_ones());
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = x[l].mul_add(y[l], d[l]);
                        }
                        self.ymm_mask[di] = mask4(&out);
                        self.ymm[di] = out;
                    }
                    MicroOp::FmaMem { dst, a, mem } => {
                        let slot = self.slot_fast(&mem);
                        let lvl = (mem.level & 3) as usize;
                        let di = ri(dst);
                        let d = self.ymm[di];
                        let x = self.ymm[ri(a)];
                        let y = self.buffers[lvl][slot];
                        let tm =
                            self.ymm_mask[di] | self.ymm_mask[ri(a)] | self.buf_mask[lvl][slot];
                        fp_ops += LANES as u64;
                        trivial += u64::from(tm.count_ones());
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = x[l].mul_add(y[l], d[l]);
                        }
                        self.ymm_mask[di] = mask4(&out);
                        self.ymm[di] = out;
                    }
                    MicroOp::Mul { dst, a, b } => {
                        let x = self.ymm[ri(a)];
                        let y = self.ymm[ri(b)];
                        let tm = self.ymm_mask[ri(a)] | self.ymm_mask[ri(b)];
                        fp_ops += LANES as u64;
                        trivial += u64::from(tm.count_ones());
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = x[l] * y[l];
                        }
                        self.ymm_mask[ri(dst)] = mask4(&out);
                        self.ymm[ri(dst)] = out;
                    }
                    MicroOp::MulMem { dst, a, mem } => {
                        let slot = self.slot_fast(&mem);
                        let lvl = (mem.level & 3) as usize;
                        let x = self.ymm[ri(a)];
                        let y = self.buffers[lvl][slot];
                        let tm = self.ymm_mask[ri(a)] | self.buf_mask[lvl][slot];
                        fp_ops += LANES as u64;
                        trivial += u64::from(tm.count_ones());
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = x[l] * y[l];
                        }
                        self.ymm_mask[ri(dst)] = mask4(&out);
                        self.ymm[ri(dst)] = out;
                    }
                    MicroOp::Add { dst, a, b } => {
                        let x = self.ymm[ri(a)];
                        let y = self.ymm[ri(b)];
                        let tm = self.ymm_mask[ri(a)] | self.ymm_mask[ri(b)];
                        fp_ops += LANES as u64;
                        trivial += u64::from(tm.count_ones());
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = x[l] + y[l];
                        }
                        self.ymm_mask[ri(dst)] = mask4(&out);
                        self.ymm[ri(dst)] = out;
                    }
                    MicroOp::AddMem { dst, a, mem } => {
                        let slot = self.slot_fast(&mem);
                        let lvl = (mem.level & 3) as usize;
                        let x = self.ymm[ri(a)];
                        let y = self.buffers[lvl][slot];
                        let tm = self.ymm_mask[ri(a)] | self.buf_mask[lvl][slot];
                        fp_ops += LANES as u64;
                        trivial += u64::from(tm.count_ones());
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = x[l] + y[l];
                        }
                        self.ymm_mask[ri(dst)] = mask4(&out);
                        self.ymm[ri(dst)] = out;
                    }
                    MicroOp::Xor { dst, a, b } => {
                        let x = self.ymm[ri(a)];
                        let y = self.ymm[ri(b)];
                        let mut out = [0.0; LANES];
                        for l in 0..LANES {
                            out[l] = f64::from_bits(x[l].to_bits() ^ y[l].to_bits());
                        }
                        self.ymm_mask[ri(dst)] = mask4(&out);
                        self.ymm[ri(dst)] = out;
                    }
                    MicroOp::Load { dst, mem } => {
                        let slot = self.slot_fast(&mem);
                        let lvl = (mem.level & 3) as usize;
                        self.ymm_mask[ri(dst)] = self.buf_mask[lvl][slot];
                        self.ymm[ri(dst)] = self.buffers[lvl][slot];
                    }
                    MicroOp::Store { src, mem } => {
                        let slot = self.slot_fast(&mem);
                        let lvl = (mem.level & 3) as usize;
                        self.buf_mask[lvl][slot] = self.ymm_mask[ri(src)];
                        self.buffers[lvl][slot] = self.ymm[ri(src)];
                    }
                    MicroOp::SqrtSd { dst, src } => {
                        let s = self.ymm[ri(src)][0];
                        let out = s.sqrt();
                        let di = ri(dst);
                        self.ymm_mask[di] = (self.ymm_mask[di] & !1) | u8::from(is_trivial(out));
                        self.ymm[di][0] = out;
                    }
                    MicroOp::MulSd { dst, src } => {
                        let s = self.ymm[ri(src)][0];
                        let di = ri(dst);
                        let d = self.ymm[di][0];
                        fp_ops += 1;
                        trivial += u64::from((self.ymm_mask[di] | self.ymm_mask[ri(src)]) & 1);
                        let out = d * s;
                        self.ymm_mask[di] = (self.ymm_mask[di] & !1) | u8::from(is_trivial(out));
                        self.ymm[di][0] = out;
                    }
                    MicroOp::AddSd { dst, src } => {
                        let s = self.ymm[ri(src)][0];
                        let di = ri(dst);
                        let d = self.ymm[di][0];
                        fp_ops += 1;
                        trivial += u64::from((self.ymm_mask[di] | self.ymm_mask[ri(src)]) & 1);
                        let out = d + s;
                        self.ymm_mask[di] = (self.ymm_mask[di] & !1) | u8::from(is_trivial(out));
                        self.ymm[di][0] = out;
                    }
                    MicroOp::GpXor { dst, src } => {
                        self.gp[ri(dst)] ^= self.gp[ri(src)];
                    }
                    MicroOp::GpShl { dst, imm } => {
                        let d = &mut self.gp[ri(dst)];
                        *d = d.wrapping_shl(u32::from(imm));
                    }
                    MicroOp::GpShr { dst, imm } => {
                        let d = &mut self.gp[ri(dst)];
                        *d = d.wrapping_shr(u32::from(imm));
                    }
                    MicroOp::GpAddImm { dst, imm } => {
                        let d = &mut self.gp[ri(dst)];
                        *d = d.wrapping_add(imm as i64 as u64);
                    }
                    MicroOp::GpAdd { dst, src } => {
                        let s = self.gp[ri(src)];
                        let d = &mut self.gp[ri(dst)];
                        *d = d.wrapping_add(s);
                    }
                    MicroOp::GpMovImm { dst, imm } => {
                        self.gp[ri(dst)] = imm;
                    }
                    MicroOp::GpDec { dst } => {
                        let d = &mut self.gp[ri(dst)];
                        *d = d.wrapping_sub(1);
                    }
                }
            }
        }
        self.stats.iterations += iterations;
        self.stats.fp_lane_ops += fp_ops;
        self.stats.trivial_lane_ops += trivial;
        &self.stats
    }

    /// Reference implementation: matches on the raw `Inst` stream every
    /// iteration. It is the oracle of the decoded-vs-interpreted
    /// equivalence tests and the reference case of `bench_engine`.
    pub fn run_interpreted(&mut self, kernel: &Kernel, iterations: u64) -> &ExecStats {
        for _ in 0..iterations {
            for t in &kernel.body {
                self.exec_inst(&t.inst, t.level);
            }
            self.stats.iterations += 1;
        }
        &self.stats
    }

    /// Interpreter register load: a flat-slice view with runtime bounds
    /// checks, independent of the fast path's masked indexing.
    #[inline]
    fn vload_v1(&self, reg: u8) -> [f64; LANES] {
        let i = reg as usize * LANES;
        let flat = self.ymm.as_flattened();
        flat[i..i + LANES].try_into().expect("flat ymm index")
    }

    /// Interpreter register store (flat-slice `copy_from_slice`).
    #[inline]
    fn vstore_v1(&mut self, reg: u8, v: [f64; LANES]) {
        let i = reg as usize * LANES;
        self.ymm.as_flattened_mut()[i..i + LANES].copy_from_slice(&v);
    }

    /// Interpreter buffer read through a flat lane view.
    #[inline]
    fn buf_read_v1(&self, level: usize, slot: usize) -> [f64; LANES] {
        let base = slot * LANES;
        let flat = self.buffers[level].as_flattened();
        flat[base..base + LANES]
            .try_into()
            .expect("flat buffer slot")
    }

    /// Writes all vector registers in hexadecimal + decimal form — the
    /// `--dump-registers` feature used to verify SIMD correctness in
    /// out-of-spec (overclocked) operation.
    pub fn dump_registers(&self, out: &mut String) {
        format_register_dump(&self.registers(), out);
    }

    /// FNV-1a hash over the full vector state — two correct cores running
    /// the same workload from the same seed must agree (error detection).
    /// Byte order is register-major, lane within register — unchanged
    /// from the historical flat layout, so hashes are stable.
    pub fn state_hash(&self) -> u64 {
        state_hash_of(&self.ymm)
    }

    /// Flips one mantissa/exponent/sign bit — fault injection for the
    /// error-detection tests (simulated silent data corruption).
    pub fn inject_bit_flip(&mut self, reg: usize, lane: usize, bit: u32) {
        let v = &mut self.ymm[reg % 16][lane % LANES];
        *v = f64::from_bits(v.to_bits() ^ (1u64 << (bit % 64)));
        // `run_decoded` re-derives masks on entry, but keep the
        // register's mask coherent for callers inspecting state directly.
        self.ymm_mask[reg % 16] = mask4(&self.ymm[reg % 16]);
    }

    /// True if any register lane has reached a trivial value.
    pub fn any_trivial_register(&self) -> bool {
        self.ymm.iter().flatten().any(|&x| is_trivial(x))
    }
}

/// FNV-1a hash over a vector register file — the free-function form of
/// [`Executor::state_hash`], usable on registers extracted from a
/// [`FunctionalOutcome`] (the runner's error detection re-hashes a copy
/// with the armed fault flipped in). Byte order is register-major, lane
/// within register — unchanged from the historical flat layout, so
/// hashes are stable.
pub fn state_hash_of(regs: &[[f64; LANES]; 16]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for reg in regs {
        for lane in reg {
            for byte in lane.to_bits().to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TaggedInst;
    use fs2_isa::prelude::*;

    /// dst ymm0..=11 accumulate via FMA from multiplier regs 12..=15.
    fn fma_kernel() -> Kernel {
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
        Kernel::new("fma", body, 12)
    }

    #[test]
    fn v2_init_stays_finite_and_nontrivial() {
        let mut ex = Executor::new(InitScheme::V2Safe, 42);
        ex.run(&fma_kernel(), 10_000);
        assert!(!ex.any_trivial_register());
        assert_eq!(ex.stats().trivial_lane_ops, 0);
        assert!(ex.stats().fp_lane_ops > 0);
        assert!((ex.stats().trivial_fraction() - 0.0).abs() < 1e-12);
    }

    #[test]
    fn v174_bug_accumulates_to_infinity() {
        let mut ex = Executor::new(InitScheme::V174Buggy, 42);
        ex.run(&fma_kernel(), 1_000);
        assert!(ex.any_trivial_register());
        // Once saturated, nearly all subsequent FP work is trivial.
        assert!(
            ex.stats().trivial_fraction() > 0.5,
            "trivial fraction = {}",
            ex.stats().trivial_fraction()
        );
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = Executor::new(InitScheme::V2Safe, 7);
        let mut b = Executor::new(InitScheme::V2Safe, 7);
        let k = fma_kernel();
        a.run(&k, 500);
        b.run(&k, 500);
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a.registers(), b.registers());
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Executor::new(InitScheme::V2Safe, 1);
        let mut b = Executor::new(InitScheme::V2Safe, 2);
        let k = fma_kernel();
        a.run(&k, 10);
        b.run(&k, 10);
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn bit_flip_detected_by_hash() {
        let mut a = Executor::new(InitScheme::V2Safe, 7);
        let mut b = Executor::new(InitScheme::V2Safe, 7);
        let k = fma_kernel();
        a.run(&k, 100);
        b.run(&k, 100);
        assert_eq!(a.state_hash(), b.state_hash());
        b.inject_bit_flip(3, 1, 52);
        assert_ne!(a.state_hash(), b.state_hash());
        // Error is persistent: it stays detectable after more work.
        a.run(&k, 100);
        b.run(&k, 100);
        assert_ne!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn loads_and_stores_move_values() {
        let body = vec![
            TaggedInst::reg(Inst::MovImm64 {
                dst: Gp::Rax,
                imm: 64,
            }),
            TaggedInst::mem(
                Inst::VmovapdLoad {
                    dst: Ymm::new(0),
                    src: Mem::base(Gp::Rax),
                },
                MemLevel::L2,
            ),
            TaggedInst::mem(
                Inst::VmovapdStore {
                    dst: Mem::base_disp(Gp::Rax, 32),
                    src: Ymm::new(0),
                },
                MemLevel::L2,
            ),
            TaggedInst::mem(
                Inst::VmovapdLoad {
                    dst: Ymm::new(1),
                    src: Mem::base_disp(Gp::Rax, 32),
                },
                MemLevel::L2,
            ),
        ];
        let k = Kernel::new("ls", body, 1);
        let mut ex = Executor::new(InitScheme::V2Safe, 3);
        ex.run(&k, 1);
        assert_eq!(ex.registers()[0], ex.registers()[1]);
    }

    /// `mov rax, imm; …; vmovapd ymm0, [rax]` at L1: the loaded value
    /// shows which address the GP ops computed.
    fn load_via_rax(gp_ops: Vec<TaggedInst>) -> [f64; LANES] {
        let mut body = gp_ops;
        body.push(TaggedInst::mem(
            Inst::VmovapdLoad {
                dst: Ymm::new(0),
                src: Mem::base(Gp::Rax),
            },
            MemLevel::L1,
        ));
        let mut ex = Executor::new(InitScheme::V2Safe, 3);
        ex.run(&Kernel::new("alu", body, 1), 1);
        ex.registers()[0]
    }

    fn mov_rax(imm: u64) -> TaggedInst {
        TaggedInst::reg(Inst::MovImm64 { dst: Gp::Rax, imm })
    }

    fn mov_rbx(imm: u64) -> TaggedInst {
        TaggedInst::reg(Inst::MovImm64 { dst: Gp::Rbx, imm })
    }

    fn xor_rax_rbx() -> TaggedInst {
        TaggedInst::reg(Inst::XorGp {
            dst: Gp::Rax,
            src: Gp::Rbx,
        })
    }

    #[test]
    fn gp_alu_semantics() {
        // 0x5555… << 1 = 0xAAAA…; xor with 0xAAAA… = 0, so the load
        // must read the slot at address 0.
        let computed = load_via_rax(vec![
            mov_rax(0x5555_5555_5555_5555),
            TaggedInst::reg(Inst::ShlImm {
                dst: Gp::Rax,
                imm: 1,
            }),
            mov_rbx(0xAAAA_AAAA_AAAA_AAAA),
            xor_rax_rbx(),
        ]);
        assert_eq!(computed, load_via_rax(vec![mov_rax(0)]));
        assert_ne!(computed, load_via_rax(vec![mov_rax(64)]));
        // Address 0xAAAA… itself lands on slot 0 (0xAAAA… / 32 is a
        // multiple of the 1023-slot modulus), so a skipped xor would
        // pass the check above. Pin xor with operands that do not
        // alias: 64 ^ 96 = 32.
        let xored = load_via_rax(vec![mov_rax(64), mov_rbx(96), xor_rax_rbx()]);
        assert_eq!(xored, load_via_rax(vec![mov_rax(32)]));
        assert_ne!(xored, load_via_rax(vec![mov_rax(64)]));
    }

    #[test]
    fn register_dump_contains_all_registers() {
        let ex = Executor::new(InitScheme::V2Safe, 11);
        let mut s = String::new();
        ex.dump_registers(&mut s);
        for i in 0..16 {
            assert!(s.contains(&format!("ymm{i}")), "missing ymm{i} in dump");
        }
        assert_eq!(s.lines().count(), 16);
    }

    #[test]
    fn decoded_matches_interpreted_bit_for_bit() {
        // The lane-vectorized fast path must be indistinguishable from
        // the reference interpreter: same registers, buffers, stats, hash.
        let k = fma_kernel();
        for seed in [1u64, 7, 42] {
            let mut fast = Executor::new(InitScheme::V2Safe, seed);
            let mut slow = Executor::new(InitScheme::V2Safe, seed);
            fast.run(&k, 500);
            slow.run_interpreted(&k, 500);
            assert_eq!(fast.state_hash(), slow.state_hash());
            assert_eq!(fast.registers(), slow.registers());
            assert_eq!(fast.stats(), slow.stats());
        }
    }

    #[test]
    fn all_three_tiers_agree_bit_for_bit() {
        let k = fma_kernel();
        let d = DecodedKernel::new(&k);
        for scheme in [InitScheme::V2Safe, InitScheme::V174Buggy] {
            let mut soa = Executor::new(scheme, 9);
            let mut interp = Executor::new(scheme, 9);
            soa.run_decoded(&d, 400);
            interp.run_interpreted(&k, 400);
            assert_eq!(soa.state_hash(), interp.state_hash());
            assert_eq!(soa.stats(), interp.stats());
            assert_eq!(soa.registers(), interp.registers());
        }
    }

    #[test]
    fn decoded_matches_interpreted_with_memory_ops() {
        let body = vec![
            TaggedInst::reg(Inst::MovImm64 {
                dst: Gp::Rax,
                imm: 64,
            }),
            TaggedInst::mem(
                Inst::VmovapdLoad {
                    dst: Ymm::new(0),
                    src: Mem::base(Gp::Rax),
                },
                MemLevel::L1,
            ),
            TaggedInst::mem(
                Inst::Vfmadd231pd {
                    dst: Ymm::new(1),
                    src1: Ymm::new(0),
                    src2: RmYmm::Mem(Mem::base_disp(Gp::Rax, 32)),
                },
                MemLevel::L2,
            ),
            TaggedInst::mem(
                Inst::VmovapdStore {
                    dst: Mem::base_disp(Gp::Rax, 96),
                    src: Ymm::new(1),
                },
                MemLevel::Ram,
            ),
            TaggedInst::reg(Inst::AddImm {
                dst: Gp::Rax,
                imm: 32,
            }),
            TaggedInst::reg(Inst::Dec(Gp::Rdi)),
            TaggedInst::reg(Inst::Jnz { rel: 0 }),
        ];
        let k = Kernel::new("memmix", body, 1);
        let mut fast = Executor::new(InitScheme::V2Safe, 9);
        let mut slow = Executor::new(InitScheme::V2Safe, 9);
        fast.run(&k, 300);
        slow.run_interpreted(&k, 300);
        assert_eq!(fast.state_hash(), slow.state_hash());
        assert_eq!(fast.stats(), slow.stats());
    }

    #[test]
    fn decoded_kernel_drops_inert_instructions() {
        let k = fma_kernel(); // 12 FMAs + dec + jnz
        let d = DecodedKernel::new(&k);
        assert_eq!(d.len(), 13); // jnz dropped, dec kept
        assert!(!d.is_empty());
    }

    #[test]
    fn decoded_kernel_reuse_across_runs() {
        let k = fma_kernel();
        let d = DecodedKernel::new(&k);
        let mut a = Executor::new(InitScheme::V2Safe, 5);
        let mut b = Executor::new(InitScheme::V2Safe, 5);
        a.run_decoded(&d, 100);
        a.run_decoded(&d, 100);
        b.run(&k, 200);
        assert_eq!(a.state_hash(), b.state_hash());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn functional_outcome_is_a_pure_summary() {
        let k = fma_kernel();
        let d = DecodedKernel::new(&k);
        let via_fn = run_functional(&d, InitScheme::V2Safe, 5, 200);
        let mut ex = Executor::new(InitScheme::V2Safe, 5);
        ex.run_decoded(&d, 200);
        assert_eq!(via_fn, ex.outcome());
        assert_eq!(via_fn.state_hash, ex.state_hash());
        let mut dump = String::new();
        ex.dump_registers(&mut dump);
        assert_eq!(via_fn.register_dump(), dump);
    }

    #[test]
    fn sqrt_loop_converges_to_one() {
        // Repeated sqrtsd drives any positive value toward 1.0 — the
        // classic low-power loop has stable, boring data.
        let body = vec![TaggedInst::reg(Inst::Sqrtsd {
            dst: Xmm::new(0),
            src: Xmm::new(0),
        })];
        let k = Kernel::new("sqrt", body, 1);
        let mut ex = Executor::new(InitScheme::V2Safe, 5);
        ex.run(&k, 200);
        let v = ex.registers()[0][0];
        assert!((v - 1.0).abs() < 1e-9, "sqrt fixpoint = {v}");
    }
}
