//! x86-64 machine-code encoder for the payload instruction subset.
//!
//! This is the reproduction's stand-in for AsmJit: FIRESTARTER 2 builds its
//! inner loop at runtime from the instruction-mix definition, the unroll
//! factor `u` and the memory accesses `M`, then jumps into the generated
//! buffer. We emit the identical byte sequences (verified against
//! hand-derived encodings and a round-trip decoder); execution happens on
//! the `fs2-sim` model instead of the real CPU (see DESIGN.md §2).

use crate::inst::{Inst, RmYmm};
use crate::mem::Mem;
use std::fmt;

/// Errors produced while assembling a code buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A `jnz` referenced a label that was never bound.
    UnboundLabel(Label),
    /// Branch displacement exceeded ±2 GiB (cannot happen for realistic
    /// payloads; kept for completeness).
    BranchOutOfRange,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::UnboundLabel(l) => write!(f, "label L{} was never bound", l.0),
            EncodeError::BranchOutOfRange => f.write_str("branch displacement out of range"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Opcode map selector for VEX-encoded instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VexMap {
    /// Two-byte opcode map (`0F`).
    M0f,
    /// Three-byte opcode map (`0F 38`).
    M0f38,
}

impl VexMap {
    fn mmmmm(self) -> u8 {
        match self {
            VexMap::M0f => 0b00001,
            VexMap::M0f38 => 0b00010,
        }
    }
}

/// ModRM/SIB/displacement bytes plus the prefix extension bits they need.
struct ModRmEnc {
    x_ext: bool,
    b_ext: bool,
    /// modrm, optional sib, displacement bytes.
    bytes: [u8; 6],
    len: usize,
}

/// Encodes a register-direct ModRM byte (`mod = 11`).
#[inline]
fn reg_modrm(reg_low3: u8, rm_low3: u8) -> u8 {
    0b1100_0000 | (reg_low3 << 3) | rm_low3
}

/// Encodes a memory ModRM (+SIB, +disp) for `[base + index*scale + disp]`.
fn mem_modrm(reg_low3: u8, mem: &Mem) -> ModRmEnc {
    let need_sib = mem.index.is_some() || mem.base.needs_sib();
    // RBP/R13 cannot be encoded with mod=00; force a disp8 of zero.
    let (modbits, disp_len) = if mem.disp == 0 && !mem.base.needs_disp() {
        (0b00u8, 0usize)
    } else if mem.disp_fits_i8() {
        (0b01, 1)
    } else {
        (0b10, 4)
    };
    let rm = if need_sib { 0b100 } else { mem.base.low3() };
    let mut bytes = [0u8; 6];
    let mut len = 0;
    bytes[len] = (modbits << 6) | (reg_low3 << 3) | rm;
    len += 1;
    let mut x_ext = false;
    if need_sib {
        let (index_bits, scale_bits, x) = match mem.index {
            Some((idx, scale)) => (idx.low3(), scale.bits(), idx.is_extended()),
            // index=100 with VEX.X/REX.X clear means "no index".
            None => (0b100, 0, false),
        };
        x_ext = x;
        bytes[len] = (scale_bits << 6) | (index_bits << 3) | mem.base.low3();
        len += 1;
    }
    let disp = mem.disp.to_le_bytes();
    bytes[len..len + disp_len].copy_from_slice(&disp[..disp_len]);
    len += disp_len;
    ModRmEnc {
        x_ext,
        b_ext: mem.base.is_extended(),
        bytes,
        len,
    }
}

/// Emits a VEX prefix, choosing the 2-byte form when legal.
#[allow(clippy::too_many_arguments)]
fn emit_vex(
    out: &mut Vec<u8>,
    map: VexMap,
    w: bool,
    l256: bool,
    pp: u8,
    r_ext: bool,
    x_ext: bool,
    b_ext: bool,
    vvvv: u8,
) {
    debug_assert!(pp < 4 && vvvv < 16);
    let inv = |b: bool| u8::from(!b);
    if map == VexMap::M0f && !w && !x_ext && !b_ext {
        out.push(0xC5);
        out.push((inv(r_ext) << 7) | (((!vvvv) & 0xF) << 3) | (u8::from(l256) << 2) | pp);
    } else {
        out.push(0xC4);
        out.push((inv(r_ext) << 7) | (inv(x_ext) << 6) | (inv(b_ext) << 5) | map.mmmmm());
        out.push((u8::from(w) << 7) | (((!vvvv) & 0xF) << 3) | (u8::from(l256) << 2) | pp);
    }
}

/// Emits a REX prefix if any bit is needed (always when `w`).
fn emit_rex(out: &mut Vec<u8>, w: bool, r: bool, x: bool, b: bool) {
    if w || r || x || b {
        out.push(0x40 | (u8::from(w) << 3) | (u8::from(r) << 2) | (u8::from(x) << 1) | u8::from(b));
    }
}

/// pp field values (implied legacy prefixes).
const PP_NONE: u8 = 0b00;
const PP_66: u8 = 0b01;

/// Emits a three-operand VEX instruction (`dst, vvvv=src1, rm=src2`).
#[allow(clippy::too_many_arguments)]
fn emit_vex3op(
    out: &mut Vec<u8>,
    map: VexMap,
    w: bool,
    pp: u8,
    opcode: u8,
    dst: u8,
    src1: u8,
    src2: &RmYmm,
) {
    match src2 {
        RmYmm::Reg(r) => {
            emit_vex(
                out,
                map,
                w,
                true,
                pp,
                dst >= 8,
                false,
                r.is_extended(),
                src1,
            );
            out.push(opcode);
            out.push(reg_modrm(dst & 7, r.low3()));
        }
        RmYmm::Mem(m) => {
            let enc = mem_modrm(dst & 7, m);
            emit_vex(out, map, w, true, pp, dst >= 8, enc.x_ext, enc.b_ext, src1);
            out.push(opcode);
            out.extend_from_slice(&enc.bytes[..enc.len]);
        }
    }
}

/// Encodes one instruction, appending its bytes to `out`.
///
/// `Jnz` encodes the stored relative displacement verbatim; use
/// [`Assembler`] for label-based control flow.
pub fn encode(inst: &Inst, out: &mut Vec<u8>) {
    match *inst {
        Inst::Vfmadd231pd { dst, src1, src2 } => {
            // VEX.DDS.256.66.0F38.W1 B8 /r
            emit_vex3op(
                out,
                VexMap::M0f38,
                true,
                PP_66,
                0xB8,
                dst.num(),
                src1.num(),
                &src2,
            );
        }
        Inst::Vmulpd { dst, src1, src2 } => {
            // VEX.NDS.256.66.0F.WIG 59 /r
            emit_vex3op(
                out,
                VexMap::M0f,
                false,
                PP_66,
                0x59,
                dst.num(),
                src1.num(),
                &src2,
            );
        }
        Inst::Vaddpd { dst, src1, src2 } => {
            // VEX.NDS.256.66.0F.WIG 58 /r
            emit_vex3op(
                out,
                VexMap::M0f,
                false,
                PP_66,
                0x58,
                dst.num(),
                src1.num(),
                &src2,
            );
        }
        Inst::Vxorps { dst, src1, src2 } => {
            // VEX.NDS.256.0F.WIG 57 /r
            emit_vex3op(
                out,
                VexMap::M0f,
                false,
                PP_NONE,
                0x57,
                dst.num(),
                src1.num(),
                &RmYmm::Reg(src2),
            );
        }
        Inst::VmovapdLoad { dst, src } => {
            // VEX.256.66.0F.WIG 28 /r
            let enc = mem_modrm(dst.low3(), &src);
            emit_vex(
                out,
                VexMap::M0f,
                false,
                true,
                PP_66,
                dst.is_extended(),
                enc.x_ext,
                enc.b_ext,
                0,
            );
            out.push(0x28);
            out.extend_from_slice(&enc.bytes[..enc.len]);
        }
        Inst::VmovapdStore { dst, src } => {
            // VEX.256.66.0F.WIG 29 /r
            let enc = mem_modrm(src.low3(), &dst);
            emit_vex(
                out,
                VexMap::M0f,
                false,
                true,
                PP_66,
                src.is_extended(),
                enc.x_ext,
                enc.b_ext,
                0,
            );
            out.push(0x29);
            out.extend_from_slice(&enc.bytes[..enc.len]);
        }
        Inst::Sqrtsd { dst, src } => {
            // F2 0F 51 /r
            out.push(0xF2);
            emit_rex(out, false, dst.is_extended(), false, src.is_extended());
            out.push(0x0F);
            out.push(0x51);
            out.push(reg_modrm(dst.low3(), src.low3()));
        }
        Inst::Mulsd { dst, src } => {
            // F2 0F 59 /r
            out.push(0xF2);
            emit_rex(out, false, dst.is_extended(), false, src.is_extended());
            out.push(0x0F);
            out.push(0x59);
            out.push(reg_modrm(dst.low3(), src.low3()));
        }
        Inst::Addsd { dst, src } => {
            // F2 0F 58 /r
            out.push(0xF2);
            emit_rex(out, false, dst.is_extended(), false, src.is_extended());
            out.push(0x0F);
            out.push(0x58);
            out.push(reg_modrm(dst.low3(), src.low3()));
        }
        Inst::XorGp { dst, src } => {
            // REX.W 31 /r (xor r/m64, r64)
            emit_rex(out, true, src.is_extended(), false, dst.is_extended());
            out.push(0x31);
            out.push(reg_modrm(src.low3(), dst.low3()));
        }
        Inst::ShlImm { dst, imm } => {
            // REX.W C1 /4 ib
            emit_rex(out, true, false, false, dst.is_extended());
            out.push(0xC1);
            out.push(reg_modrm(4, dst.low3()));
            out.push(imm);
        }
        Inst::ShrImm { dst, imm } => {
            // REX.W C1 /5 ib
            emit_rex(out, true, false, false, dst.is_extended());
            out.push(0xC1);
            out.push(reg_modrm(5, dst.low3()));
            out.push(imm);
        }
        Inst::AddImm { dst, imm } => {
            emit_rex(out, true, false, false, dst.is_extended());
            if let Ok(imm8) = i8::try_from(imm) {
                // REX.W 83 /0 ib
                out.push(0x83);
                out.push(reg_modrm(0, dst.low3()));
                out.push(imm8 as u8);
            } else {
                // REX.W 81 /0 id
                out.push(0x81);
                out.push(reg_modrm(0, dst.low3()));
                out.extend_from_slice(&imm.to_le_bytes());
            }
        }
        Inst::AddGp { dst, src } => {
            // REX.W 01 /r (add r/m64, r64)
            emit_rex(out, true, src.is_extended(), false, dst.is_extended());
            out.push(0x01);
            out.push(reg_modrm(src.low3(), dst.low3()));
        }
        Inst::MovImm64 { dst, imm } => {
            // REX.W B8+rd io
            emit_rex(out, true, false, false, dst.is_extended());
            out.push(0xB8 + dst.low3());
            out.extend_from_slice(&imm.to_le_bytes());
        }
        Inst::Dec(r) => {
            // REX.W FF /1
            emit_rex(out, true, false, false, r.is_extended());
            out.push(0xFF);
            out.push(reg_modrm(1, r.low3()));
        }
        Inst::CmpGp { a, b } => {
            // REX.W 39 /r (cmp r/m64, r64)
            emit_rex(out, true, b.is_extended(), false, a.is_extended());
            out.push(0x39);
            out.push(reg_modrm(b.low3(), a.low3()));
        }
        Inst::Jnz { rel } => {
            // 0F 85 cd
            out.push(0x0F);
            out.push(0x85);
            out.extend_from_slice(&rel.to_le_bytes());
        }
        Inst::Prefetch { hint, mem } => {
            // 0F 18 /hint
            let enc = mem_modrm(hint.modrm_reg(), &mem);
            emit_rex(out, false, false, enc.x_ext, enc.b_ext);
            out.push(0x0F);
            out.push(0x18);
            out.extend_from_slice(&enc.bytes[..enc.len]);
        }
        Inst::Nop => out.push(0x90),
        Inst::Ret => out.push(0xC3),
    }
}

/// Byte length of a single encoded instruction.
pub fn encoded_len(inst: &Inst) -> usize {
    let mut buf = Vec::with_capacity(16);
    encode(inst, &mut buf);
    buf.len()
}

/// A forward/backward branch target handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) usize);

/// A small assembler with label support, mirroring the AsmJit usage in
/// FIRESTARTER 2 (one backward `jnz` closing the unrolled loop).
#[derive(Debug, Default)]
pub struct Assembler {
    buf: Vec<u8>,
    insts: Vec<Inst>,
    labels: Vec<Option<usize>>,
    fixups: Vec<(usize, Label)>,
}

impl Assembler {
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Allocates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    pub fn bind(&mut self, label: Label) {
        self.labels[label.0] = Some(self.buf.len());
    }

    /// Appends one instruction.
    pub fn push(&mut self, inst: Inst) {
        self.insts.push(inst);
        encode(&inst, &mut self.buf);
    }

    /// Appends a `jnz` to `label` (patched in [`Assembler::finish`]).
    pub fn jnz(&mut self, label: Label) {
        let at = self.buf.len();
        self.insts.push(Inst::Jnz { rel: 0 });
        encode(&Inst::Jnz { rel: 0 }, &mut self.buf);
        self.fixups.push((at, label));
    }

    /// Current offset into the code buffer.
    pub fn offset(&self) -> usize {
        self.buf.len()
    }

    /// Instructions pushed so far, in order.
    pub fn insts(&self) -> &[Inst] {
        &self.insts
    }

    /// Resolves fixups and returns the finished code buffer.
    pub fn finish(mut self) -> Result<Vec<u8>, EncodeError> {
        for &(at, label) in &self.fixups {
            let target = self.labels[label.0].ok_or(EncodeError::UnboundLabel(label))?;
            // jnz rel32 is 6 bytes; displacement is relative to its end.
            let end = at as i64 + 6;
            let rel = target as i64 - end;
            let rel32 = i32::try_from(rel).map_err(|_| EncodeError::BranchOutOfRange)?;
            self.buf[at + 2..at + 6].copy_from_slice(&rel32.to_le_bytes());
        }
        Ok(self.buf)
    }
}

/// Encodes a straight-line sequence (no labels) into a fresh buffer.
pub fn encode_sequence(insts: &[Inst]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(insts.len() * 5);
    for inst in insts {
        encode(inst, &mut buf);
    }
    buf
}

/// Total encoded size of a sequence, in bytes. Payload builders use this to
/// decide which front-end structure (loop buffer / µop cache / L1I / L2) a
/// given unroll factor lands in.
pub fn sequence_len(insts: &[Inst]) -> usize {
    insts.iter().map(encoded_len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::PrefetchHint;
    use crate::mem::Scale;
    use crate::reg::{Gp, Xmm, Ymm};

    fn enc(i: Inst) -> Vec<u8> {
        let mut v = Vec::new();
        encode(&i, &mut v);
        v
    }

    #[test]
    fn vxorps_reg_reg_reg() {
        // vxorps ymm0, ymm0, ymm0
        assert_eq!(
            enc(Inst::Vxorps {
                dst: Ymm::new(0),
                src1: Ymm::new(0),
                src2: Ymm::new(0)
            }),
            vec![0xC5, 0xFC, 0x57, 0xC0]
        );
        // vxorps ymm8, ymm8, ymm8 — forces the 3-byte VEX form.
        assert_eq!(
            enc(Inst::Vxorps {
                dst: Ymm::new(8),
                src1: Ymm::new(8),
                src2: Ymm::new(8)
            }),
            vec![0xC4, 0x41, 0x3C, 0x57, 0xC0]
        );
    }

    #[test]
    fn vfmadd231pd_forms() {
        // vfmadd231pd ymm1, ymm2, ymm3
        assert_eq!(
            enc(Inst::Vfmadd231pd {
                dst: Ymm::new(1),
                src1: Ymm::new(2),
                src2: RmYmm::Reg(Ymm::new(3))
            }),
            vec![0xC4, 0xE2, 0xED, 0xB8, 0xCB]
        );
        // vfmadd231pd ymm1, ymm2, [rax]
        assert_eq!(
            enc(Inst::Vfmadd231pd {
                dst: Ymm::new(1),
                src1: Ymm::new(2),
                src2: RmYmm::Mem(Mem::base(Gp::Rax))
            }),
            vec![0xC4, 0xE2, 0xED, 0xB8, 0x08]
        );
    }

    #[test]
    fn vmulpd_vaddpd() {
        // vmulpd ymm0, ymm1, ymm2
        assert_eq!(
            enc(Inst::Vmulpd {
                dst: Ymm::new(0),
                src1: Ymm::new(1),
                src2: RmYmm::Reg(Ymm::new(2))
            }),
            vec![0xC5, 0xF5, 0x59, 0xC2]
        );
        // vaddpd ymm0, ymm1, ymm2
        assert_eq!(
            enc(Inst::Vaddpd {
                dst: Ymm::new(0),
                src1: Ymm::new(1),
                src2: RmYmm::Reg(Ymm::new(2))
            }),
            vec![0xC5, 0xF5, 0x58, 0xC2]
        );
    }

    #[test]
    fn vmovapd_addressing_modes() {
        // vmovapd ymm1, [rax]
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(1),
                src: Mem::base(Gp::Rax)
            }),
            vec![0xC5, 0xFD, 0x28, 0x08]
        );
        // vmovapd [rax], ymm1
        assert_eq!(
            enc(Inst::VmovapdStore {
                dst: Mem::base(Gp::Rax),
                src: Ymm::new(1)
            }),
            vec![0xC5, 0xFD, 0x29, 0x08]
        );
        // vmovapd ymm1, [rax+0x40] — disp8 compression
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(1),
                src: Mem::base_disp(Gp::Rax, 0x40)
            }),
            vec![0xC5, 0xFD, 0x28, 0x48, 0x40]
        );
        // vmovapd ymm1, [rax+0x12345678] — disp32
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(1),
                src: Mem::base_disp(Gp::Rax, 0x1234_5678)
            }),
            vec![0xC5, 0xFD, 0x28, 0x88, 0x78, 0x56, 0x34, 0x12]
        );
        // vmovapd ymm1, [rsp] — SIB escape for RSP base
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(1),
                src: Mem::base(Gp::Rsp)
            }),
            vec![0xC5, 0xFD, 0x28, 0x0C, 0x24]
        );
        // vmovapd ymm1, [rbp] — forced disp8=0 for RBP base
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(1),
                src: Mem::base(Gp::Rbp)
            }),
            vec![0xC5, 0xFD, 0x28, 0x4D, 0x00]
        );
        // vmovapd ymm9, [r8] — extended registers need 3-byte VEX
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(9),
                src: Mem::base(Gp::R8)
            }),
            vec![0xC4, 0x41, 0x7D, 0x28, 0x08]
        );
        // vmovapd ymm1, [rax+rbx*2] — SIB with index
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(1),
                src: Mem::base_index(Gp::Rax, Gp::Rbx, Scale::X2, 0)
            }),
            vec![0xC5, 0xFD, 0x28, 0x0C, 0x58]
        );
    }

    #[test]
    fn gp_alu_encodings() {
        // xor rax, rbx
        assert_eq!(
            enc(Inst::XorGp {
                dst: Gp::Rax,
                src: Gp::Rbx
            }),
            vec![0x48, 0x31, 0xD8]
        );
        // xor r8, r9
        assert_eq!(
            enc(Inst::XorGp {
                dst: Gp::R8,
                src: Gp::R9
            }),
            vec![0x4D, 0x31, 0xC8]
        );
        // shl rax, 4 / shr rax, 4
        assert_eq!(
            enc(Inst::ShlImm {
                dst: Gp::Rax,
                imm: 4
            }),
            vec![0x48, 0xC1, 0xE0, 0x04]
        );
        assert_eq!(
            enc(Inst::ShrImm {
                dst: Gp::Rax,
                imm: 4
            }),
            vec![0x48, 0xC1, 0xE8, 0x04]
        );
        // shl r10, 4
        assert_eq!(
            enc(Inst::ShlImm {
                dst: Gp::R10,
                imm: 4
            }),
            vec![0x49, 0xC1, 0xE2, 0x04]
        );
        // add rax, 0x40 (imm8 form)
        assert_eq!(
            enc(Inst::AddImm {
                dst: Gp::Rax,
                imm: 0x40
            }),
            vec![0x48, 0x83, 0xC0, 0x40]
        );
        // add rax, 0x1000 (imm32 form)
        assert_eq!(
            enc(Inst::AddImm {
                dst: Gp::Rax,
                imm: 0x1000
            }),
            vec![0x48, 0x81, 0xC0, 0x00, 0x10, 0x00, 0x00]
        );
        // add rbx, rax
        assert_eq!(
            enc(Inst::AddGp {
                dst: Gp::Rbx,
                src: Gp::Rax
            }),
            vec![0x48, 0x01, 0xC3]
        );
        // dec rdi
        assert_eq!(enc(Inst::Dec(Gp::Rdi)), vec![0x48, 0xFF, 0xCF]);
        // cmp rax, rbx
        assert_eq!(
            enc(Inst::CmpGp {
                a: Gp::Rax,
                b: Gp::Rbx
            }),
            vec![0x48, 0x39, 0xD8]
        );
    }

    #[test]
    fn mov_imm64() {
        let bytes = enc(Inst::MovImm64 {
            dst: Gp::Rax,
            imm: 0x1122_3344_5566_7788,
        });
        assert_eq!(
            bytes,
            vec![0x48, 0xB8, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11]
        );
        let bytes = enc(Inst::MovImm64 {
            dst: Gp::R9,
            imm: 1,
        });
        assert_eq!(bytes[..2], [0x49, 0xB9]);
        assert_eq!(bytes.len(), 10);
    }

    #[test]
    fn sqrtsd_and_misc() {
        assert_eq!(
            enc(Inst::Sqrtsd {
                dst: Xmm::new(0),
                src: Xmm::new(0)
            }),
            vec![0xF2, 0x0F, 0x51, 0xC0]
        );
        assert_eq!(
            enc(Inst::Sqrtsd {
                dst: Xmm::new(1),
                src: Xmm::new(2)
            }),
            vec![0xF2, 0x0F, 0x51, 0xCA]
        );
        // extended registers add a REX prefix after the F2 prefix
        assert_eq!(
            enc(Inst::Sqrtsd {
                dst: Xmm::new(9),
                src: Xmm::new(10)
            }),
            vec![0xF2, 0x45, 0x0F, 0x51, 0xCA]
        );
        assert_eq!(enc(Inst::Nop), vec![0x90]);
        assert_eq!(enc(Inst::Ret), vec![0xC3]);
    }

    #[test]
    fn scalar_mul_add_encodings() {
        // mulsd xmm1, xmm2 = F2 0F 59 /r
        assert_eq!(
            enc(Inst::Mulsd {
                dst: Xmm::new(1),
                src: Xmm::new(2)
            }),
            vec![0xF2, 0x0F, 0x59, 0xCA]
        );
        // addsd xmm0, xmm3 = F2 0F 58 /r
        assert_eq!(
            enc(Inst::Addsd {
                dst: Xmm::new(0),
                src: Xmm::new(3)
            }),
            vec![0xF2, 0x0F, 0x58, 0xC3]
        );
        // Extended registers pick up a REX prefix after the F2.
        assert_eq!(
            enc(Inst::Mulsd {
                dst: Xmm::new(12),
                src: Xmm::new(3)
            }),
            vec![0xF2, 0x44, 0x0F, 0x59, 0xE3]
        );
    }

    #[test]
    fn prefetch_encodings() {
        assert_eq!(
            enc(Inst::Prefetch {
                hint: PrefetchHint::T0,
                mem: Mem::base(Gp::Rax)
            }),
            vec![0x0F, 0x18, 0x08]
        );
        assert_eq!(
            enc(Inst::Prefetch {
                hint: PrefetchHint::T2,
                mem: Mem::base(Gp::Rax)
            }),
            vec![0x0F, 0x18, 0x18]
        );
        // extended base ⇒ REX.B without W
        assert_eq!(
            enc(Inst::Prefetch {
                hint: PrefetchHint::T2,
                mem: Mem::base(Gp::R8)
            }),
            vec![0x41, 0x0F, 0x18, 0x18]
        );
    }

    #[test]
    fn jnz_encoding_and_label_resolution() {
        assert_eq!(
            enc(Inst::Jnz { rel: -32 }),
            vec![0x0F, 0x85, 0xE0, 0xFF, 0xFF, 0xFF]
        );

        // A minimal loop: top: dec rdi; jnz top; ret
        let mut asm = Assembler::new();
        let top = asm.label();
        asm.bind(top);
        asm.push(Inst::Dec(Gp::Rdi)); // 3 bytes
        asm.jnz(top); // 6 bytes, rel = 0 - (3+6) = -9
        asm.push(Inst::Ret);
        let code = asm.finish().unwrap();
        assert_eq!(
            code,
            vec![0x48, 0xFF, 0xCF, 0x0F, 0x85, 0xF7, 0xFF, 0xFF, 0xFF, 0xC3]
        );
    }

    #[test]
    fn forward_label() {
        let mut asm = Assembler::new();
        let out = asm.label();
        asm.jnz(out); // 6 bytes; target = 7 ⇒ rel = 7 - 6 = 1
        asm.push(Inst::Nop);
        asm.bind(out);
        asm.push(Inst::Ret);
        let code = asm.finish().unwrap();
        assert_eq!(code, vec![0x0F, 0x85, 0x01, 0x00, 0x00, 0x00, 0x90, 0xC3]);
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut asm = Assembler::new();
        let l = asm.label();
        asm.jnz(l);
        assert_eq!(asm.finish(), Err(EncodeError::UnboundLabel(Label(0))));
    }

    #[test]
    fn sequence_len_matches_encoding() {
        let seq = [
            Inst::Vfmadd231pd {
                dst: Ymm::new(0),
                src1: Ymm::new(1),
                src2: RmYmm::Reg(Ymm::new(2)),
            },
            Inst::XorGp {
                dst: Gp::Rax,
                src: Gp::Rbx,
            },
            Inst::Nop,
        ];
        assert_eq!(sequence_len(&seq), encode_sequence(&seq).len());
        assert_eq!(sequence_len(&seq), 5 + 3 + 1);
    }

    #[test]
    fn negative_disp8_encoding() {
        // vmovapd ymm0, [rbx-0x20]
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(0),
                src: Mem::base_disp(Gp::Rbx, -0x20)
            }),
            vec![0xC5, 0xFD, 0x28, 0x43, 0xE0]
        );
    }

    #[test]
    fn r12_base_needs_sib_r13_needs_disp() {
        // vmovapd ymm0, [r12]
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(0),
                src: Mem::base(Gp::R12)
            }),
            vec![0xC4, 0xC1, 0x7D, 0x28, 0x04, 0x24]
        );
        // vmovapd ymm0, [r13]
        assert_eq!(
            enc(Inst::VmovapdLoad {
                dst: Ymm::new(0),
                src: Mem::base(Gp::R13)
            }),
            vec![0xC4, 0xC1, 0x7D, 0x28, 0x45, 0x00]
        );
    }
}
