//! Programmatic IA-32 assembler.
//!
//! Guest programs in this reproduction (the synthetic SpecInt-like
//! workloads, the test corpus) are authored through [`Asm`] rather than an
//! external toolchain. The assembler emits real IA-32 machine code — the
//! same bytes the [`decode`](crate::decode) module parses — with label
//! fix-ups for branches, so the decoder can be property-tested by
//! round-tripping what the assembler produces.

use crate::insn::{Cond, MemRef, Reg, Size};

/// A forward-referenceable code label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// A finished guest code segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Guest virtual address of the first code byte.
    pub base: u32,
    /// The machine code.
    pub code: Vec<u8>,
}

#[derive(Debug, Clone, Copy)]
struct Fixup {
    /// Offset of the rel32 field inside `bytes`.
    at: usize,
    label: Label,
}

/// An IA-32 machine-code emitter with labels.
///
/// # Examples
///
/// ```
/// use vta_x86::{Asm, Reg::*};
///
/// let mut asm = Asm::new(0x0800_0000);
/// asm.mov_ri(ECX, 10);
/// asm.mov_ri(EAX, 0);
/// let top = asm.here();
/// asm.add_rr(EAX, ECX);
/// asm.dec_r(ECX);
/// asm.jcc(vta_x86::Cond::Ne, top);
/// asm.exit_with_eax();
/// let prog = asm.finish();
/// assert_eq!(prog.base, 0x0800_0000);
/// assert!(!prog.code.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Asm {
    base: u32,
    bytes: Vec<u8>,
    labels: Vec<Option<u32>>,
    fixups: Vec<Fixup>,
}

impl Asm {
    /// Starts a code segment at guest address `base`.
    pub fn new(base: u32) -> Self {
        Asm {
            base,
            bytes: Vec::new(),
            labels: Vec::new(),
            fixups: Vec::new(),
        }
    }

    /// The guest address of the next emitted byte.
    pub fn cur_addr(&self) -> u32 {
        self.base + self.bytes.len() as u32
    }

    /// Creates an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the current position.
    ///
    /// # Panics
    ///
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.labels[label.0].is_none(), "label bound twice");
        self.labels[label.0] = Some(self.cur_addr());
    }

    /// Creates a label bound to the current position.
    pub fn here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Patches fix-ups and returns the finished program.
    ///
    /// # Panics
    ///
    /// Panics if any referenced label was never bound.
    pub fn finish(mut self) -> Program {
        for fx in &self.fixups {
            let target = self.labels[fx.label.0].expect("unbound label at finish");
            let field_end = self.base + fx.at as u32 + 4;
            let rel = target.wrapping_sub(field_end) as i32;
            self.bytes[fx.at..fx.at + 4].copy_from_slice(&rel.to_le_bytes());
        }
        Program {
            base: self.base,
            code: self.bytes,
        }
    }

    // ---- low-level emission -------------------------------------------

    fn b(&mut self, byte: u8) {
        self.bytes.push(byte);
    }

    fn d32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Emits raw bytes (escape hatch for tests).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Emits a ModRM byte for a register-direct operand.
    fn modrm_reg(&mut self, reg_field: u8, rm_reg: Reg) {
        self.b(0xC0 | (reg_field << 3) | rm_reg.num());
    }

    /// Emits ModRM/SIB/disp for a memory operand.
    fn modrm_mem(&mut self, reg_field: u8, m: MemRef) {
        let scale_bits = |s: u8| match s {
            1 => 0u8,
            2 => 1,
            4 => 2,
            8 => 3,
            _ => panic!("invalid scale {s}"),
        };
        match (m.base, m.index) {
            (None, None) => {
                // [disp32]: mod=00 rm=101.
                self.b((reg_field << 3) | 5);
                self.d32(m.disp as u32);
            }
            (None, Some((idx, sc))) => {
                assert_ne!(idx, Reg::ESP, "esp cannot be an index");
                // mod=00 rm=100, SIB base=101 → disp32 + index.
                self.b((reg_field << 3) | 4);
                self.b((scale_bits(sc) << 6) | (idx.num() << 3) | 5);
                self.d32(m.disp as u32);
            }
            (Some(base), index) => {
                let needs_sib = index.is_some() || base == Reg::ESP;
                // EBP as base with mod=00 means disp32, so force disp8.
                let md = if m.disp == 0 && base != Reg::EBP {
                    0u8
                } else if (-128..=127).contains(&m.disp) {
                    1
                } else {
                    2
                };
                if needs_sib {
                    self.b((md << 6) | (reg_field << 3) | 4);
                    let (idx_bits, sc) = match index {
                        Some((idx, sc)) => {
                            assert_ne!(idx, Reg::ESP, "esp cannot be an index");
                            (idx.num(), scale_bits(sc))
                        }
                        None => (4, 0), // no index
                    };
                    self.b((sc << 6) | (idx_bits << 3) | base.num());
                } else {
                    self.b((md << 6) | (reg_field << 3) | base.num());
                }
                match md {
                    0 => {}
                    1 => self.b(m.disp as i8 as u8),
                    2 => self.d32(m.disp as u32),
                    _ => unreachable!(),
                }
            }
        }
    }

    fn rel32_to(&mut self, label: Label) {
        self.fixups.push(Fixup {
            at: self.bytes.len(),
            label,
        });
        self.d32(0);
    }

    // ---- data movement -------------------------------------------------

    /// `mov r32, imm32`.
    pub fn mov_ri(&mut self, dst: Reg, imm: u32) {
        self.b(0xB8 + dst.num());
        self.d32(imm);
    }

    /// `mov r8, imm8` (register numbers 0–7 = AL..BH).
    pub fn mov_ri8(&mut self, dst: u8, imm: u8) {
        assert!(dst < 8);
        self.b(0xB0 + dst);
        self.b(imm);
    }

    /// `mov r32, r32`.
    pub fn mov_rr(&mut self, dst: Reg, src: Reg) {
        self.b(0x89);
        self.modrm_reg(src.num(), dst);
    }

    /// `mov r32, [mem]`.
    pub fn mov_rm(&mut self, dst: Reg, m: MemRef) {
        self.b(0x8B);
        self.modrm_mem(dst.num(), m);
    }

    /// `mov [mem], r32`.
    pub fn mov_mr(&mut self, m: MemRef, src: Reg) {
        self.b(0x89);
        self.modrm_mem(src.num(), m);
    }

    /// `mov dword [mem], imm32`.
    pub fn mov_mi(&mut self, m: MemRef, imm: u32) {
        self.b(0xC7);
        self.modrm_mem(0, m);
        self.d32(imm);
    }

    /// `mov r8, [mem]` (byte load).
    pub fn mov_rm8(&mut self, dst: Reg, m: MemRef) {
        assert!(dst.num() < 4, "byte dst must be AL/CL/DL/BL");
        self.b(0x8A);
        self.modrm_mem(dst.num(), m);
    }

    /// `mov [mem], r8` (byte store).
    pub fn mov_mr8(&mut self, m: MemRef, src: Reg) {
        assert!(src.num() < 4, "byte src must be AL/CL/DL/BL");
        self.b(0x88);
        self.modrm_mem(src.num(), m);
    }

    /// `mov byte [mem], imm8`.
    pub fn mov_mi8(&mut self, m: MemRef, imm: u8) {
        self.b(0xC6);
        self.modrm_mem(0, m);
        self.b(imm);
    }

    /// `movzx r32, r/m8` or `r/m16`.
    pub fn movzx(&mut self, dst: Reg, src: Reg, src_size: Size) {
        self.b(0x0F);
        self.b(if src_size == Size::Byte { 0xB6 } else { 0xB7 });
        self.modrm_reg(dst.num(), src);
    }

    /// `movzx r32, byte/word [mem]`.
    pub fn movzx_m(&mut self, dst: Reg, m: MemRef, src_size: Size) {
        self.b(0x0F);
        self.b(if src_size == Size::Byte { 0xB6 } else { 0xB7 });
        self.modrm_mem(dst.num(), m);
    }

    /// `movsx r32, r/m8` or `r/m16`.
    pub fn movsx(&mut self, dst: Reg, src: Reg, src_size: Size) {
        self.b(0x0F);
        self.b(if src_size == Size::Byte { 0xBE } else { 0xBF });
        self.modrm_reg(dst.num(), src);
    }

    /// `movsx r32, byte/word [mem]`.
    pub fn movsx_m(&mut self, dst: Reg, m: MemRef, src_size: Size) {
        self.b(0x0F);
        self.b(if src_size == Size::Byte { 0xBE } else { 0xBF });
        self.modrm_mem(dst.num(), m);
    }

    /// `lea r32, [mem]`.
    pub fn lea(&mut self, dst: Reg, m: MemRef) {
        self.b(0x8D);
        self.modrm_mem(dst.num(), m);
    }

    /// `xchg r32, r32`.
    pub fn xchg_rr(&mut self, a: Reg, b: Reg) {
        self.b(0x87);
        self.modrm_reg(b.num(), a);
    }

    // ---- ALU -------------------------------------------------------------

    fn alu_rr(&mut self, op_idx: u8, dst: Reg, src: Reg) {
        self.b((op_idx << 3) | 0x01);
        self.modrm_reg(src.num(), dst);
    }

    fn alu_rm(&mut self, op_idx: u8, dst: Reg, m: MemRef) {
        self.b((op_idx << 3) | 0x03);
        self.modrm_mem(dst.num(), m);
    }

    fn alu_mr(&mut self, op_idx: u8, m: MemRef, src: Reg) {
        self.b((op_idx << 3) | 0x01);
        self.modrm_mem(src.num(), m);
    }

    fn alu_ri(&mut self, op_idx: u8, dst: Reg, imm: i32) {
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.modrm_reg(op_idx, dst);
            self.b(imm as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm_reg(op_idx, dst);
            self.d32(imm as u32);
        }
    }

    fn alu_mi(&mut self, op_idx: u8, m: MemRef, imm: i32) {
        if (-128..=127).contains(&imm) {
            self.b(0x83);
            self.modrm_mem(op_idx, m);
            self.b(imm as i8 as u8);
        } else {
            self.b(0x81);
            self.modrm_mem(op_idx, m);
            self.d32(imm as u32);
        }
    }
}

macro_rules! alu_op {
    ($rr:ident, $ri:ident, $rm:ident, $mr:ident, $mi:ident, $idx:expr, $doc:literal) => {
        impl Asm {
            #[doc = concat!("`", $doc, " r32, r32`.")]
            pub fn $rr(&mut self, dst: Reg, src: Reg) {
                self.alu_rr($idx, dst, src);
            }

            #[doc = concat!("`", $doc, " r32, imm`.")]
            pub fn $ri(&mut self, dst: Reg, imm: i32) {
                self.alu_ri($idx, dst, imm);
            }

            #[doc = concat!("`", $doc, " r32, [mem]`.")]
            pub fn $rm(&mut self, dst: Reg, m: MemRef) {
                self.alu_rm($idx, dst, m);
            }

            #[doc = concat!("`", $doc, " [mem], r32`.")]
            pub fn $mr(&mut self, m: MemRef, src: Reg) {
                self.alu_mr($idx, m, src);
            }

            #[doc = concat!("`", $doc, " dword [mem], imm`.")]
            pub fn $mi(&mut self, m: MemRef, imm: i32) {
                self.alu_mi($idx, m, imm);
            }
        }
    };
}

alu_op!(add_rr, add_ri, add_rm, add_mr, add_mi, 0, "add");
alu_op!(or_rr, or_ri, or_rm, or_mr, or_mi, 1, "or");
alu_op!(adc_rr, adc_ri, adc_rm, adc_mr, adc_mi, 2, "adc");
alu_op!(sbb_rr, sbb_ri, sbb_rm, sbb_mr, sbb_mi, 3, "sbb");
alu_op!(and_rr, and_ri, and_rm, and_mr, and_mi, 4, "and");
alu_op!(sub_rr, sub_ri, sub_rm, sub_mr, sub_mi, 5, "sub");
alu_op!(xor_rr, xor_ri, xor_rm, xor_mr, xor_mi, 6, "xor");
alu_op!(cmp_rr, cmp_ri, cmp_rm, cmp_mr, cmp_mi, 7, "cmp");

impl Asm {
    /// `test r32, r32`.
    pub fn test_rr(&mut self, a: Reg, b: Reg) {
        self.b(0x85);
        self.modrm_reg(b.num(), a);
    }

    /// `test r32, imm32`.
    pub fn test_ri(&mut self, a: Reg, imm: u32) {
        self.b(0xF7);
        self.modrm_reg(0, a);
        self.d32(imm);
    }

    /// `inc r32`.
    pub fn inc_r(&mut self, r: Reg) {
        self.b(0x40 + r.num());
    }

    /// `dec r32`.
    pub fn dec_r(&mut self, r: Reg) {
        self.b(0x48 + r.num());
    }

    /// `inc dword [mem]`.
    pub fn inc_m(&mut self, m: MemRef) {
        self.b(0xFF);
        self.modrm_mem(0, m);
    }

    /// `dec dword [mem]`.
    pub fn dec_m(&mut self, m: MemRef) {
        self.b(0xFF);
        self.modrm_mem(1, m);
    }

    /// `neg r32`.
    pub fn neg_r(&mut self, r: Reg) {
        self.b(0xF7);
        self.modrm_reg(3, r);
    }

    /// `not r32`.
    pub fn not_r(&mut self, r: Reg) {
        self.b(0xF7);
        self.modrm_reg(2, r);
    }

    /// `imul r32, r32` (two-operand, truncating).
    pub fn imul_rr(&mut self, dst: Reg, src: Reg) {
        self.b(0x0F);
        self.b(0xAF);
        self.modrm_reg(dst.num(), src);
    }

    /// `imul r32, r32, imm32` (three-operand).
    pub fn imul_rri(&mut self, dst: Reg, src: Reg, imm: i32) {
        self.b(0x69);
        self.modrm_reg(dst.num(), src);
        self.d32(imm as u32);
    }

    /// `mul r32` (EDX:EAX = EAX * r).
    pub fn mul_r(&mut self, r: Reg) {
        self.b(0xF7);
        self.modrm_reg(4, r);
    }

    /// `imul r32` (signed widening; EDX:EAX = EAX * r).
    pub fn imul_r(&mut self, r: Reg) {
        self.b(0xF7);
        self.modrm_reg(5, r);
    }

    /// `div r32` (EAX = EDX:EAX / r, EDX = remainder).
    pub fn div_r(&mut self, r: Reg) {
        self.b(0xF7);
        self.modrm_reg(6, r);
    }

    /// `idiv r32` (signed divide of EDX:EAX).
    pub fn idiv_r(&mut self, r: Reg) {
        self.b(0xF7);
        self.modrm_reg(7, r);
    }

    /// `cdq` (sign-extend EAX into EDX).
    pub fn cdq(&mut self) {
        self.b(0x99);
    }

    fn shift_ri(&mut self, ext: u8, r: Reg, count: u8) {
        if count == 1 {
            self.b(0xD1);
            self.modrm_reg(ext, r);
        } else {
            self.b(0xC1);
            self.modrm_reg(ext, r);
            self.b(count);
        }
    }

    fn shift_rcl(&mut self, ext: u8, r: Reg) {
        self.b(0xD3);
        self.modrm_reg(ext, r);
    }

    /// `shl r32, imm8`.
    pub fn shl_ri(&mut self, r: Reg, count: u8) {
        self.shift_ri(4, r, count);
    }

    /// `shr r32, imm8`.
    pub fn shr_ri(&mut self, r: Reg, count: u8) {
        self.shift_ri(5, r, count);
    }

    /// `sar r32, imm8`.
    pub fn sar_ri(&mut self, r: Reg, count: u8) {
        self.shift_ri(7, r, count);
    }

    /// `rol r32, imm8`.
    pub fn rol_ri(&mut self, r: Reg, count: u8) {
        self.shift_ri(0, r, count);
    }

    /// `ror r32, imm8`.
    pub fn ror_ri(&mut self, r: Reg, count: u8) {
        self.shift_ri(1, r, count);
    }

    /// `shl r32, cl`.
    pub fn shl_rcl(&mut self, r: Reg) {
        self.shift_rcl(4, r);
    }

    /// `shr r32, cl`.
    pub fn shr_rcl(&mut self, r: Reg) {
        self.shift_rcl(5, r);
    }

    /// `sar r32, cl`.
    pub fn sar_rcl(&mut self, r: Reg) {
        self.shift_rcl(7, r);
    }

    // ---- stack & control flow -----------------------------------------

    /// `push r32`.
    pub fn push_r(&mut self, r: Reg) {
        self.b(0x50 + r.num());
    }

    /// `pop r32`.
    pub fn pop_r(&mut self, r: Reg) {
        self.b(0x58 + r.num());
    }

    /// `push imm32`.
    pub fn push_i(&mut self, imm: i32) {
        self.b(0x68);
        self.d32(imm as u32);
    }

    /// `jmp label` (rel32).
    pub fn jmp(&mut self, l: Label) {
        self.b(0xE9);
        self.rel32_to(l);
    }

    /// `jcc label` (rel32).
    pub fn jcc(&mut self, c: Cond, l: Label) {
        self.b(0x0F);
        self.b(0x80 | c.num());
        self.rel32_to(l);
    }

    /// `call label` (rel32).
    pub fn call(&mut self, l: Label) {
        self.b(0xE8);
        self.rel32_to(l);
    }

    /// `jmp r32` (register-indirect).
    pub fn jmp_r(&mut self, r: Reg) {
        self.b(0xFF);
        self.modrm_reg(4, r);
    }

    /// `jmp [mem]` (memory-indirect, e.g. jump tables).
    pub fn jmp_m(&mut self, m: MemRef) {
        self.b(0xFF);
        self.modrm_mem(4, m);
    }

    /// `call r32` (register-indirect).
    pub fn call_r(&mut self, r: Reg) {
        self.b(0xFF);
        self.modrm_reg(2, r);
    }

    /// `ret`.
    pub fn ret(&mut self) {
        self.b(0xC3);
    }

    /// `setcc r8` (register numbers 0–3 = AL..BL).
    pub fn setcc(&mut self, c: Cond, r8: u8) {
        assert!(r8 < 8);
        self.b(0x0F);
        self.b(0x90 | c.num());
        self.b(0xC0 | r8);
    }

    /// `cmovcc r32, r32`.
    pub fn cmovcc(&mut self, c: Cond, dst: Reg, src: Reg) {
        self.b(0x0F);
        self.b(0x40 | c.num());
        self.modrm_reg(dst.num(), src);
    }

    // ---- string ops ------------------------------------------------------

    /// `rep movsd` / `rep movsb`.
    pub fn rep_movs(&mut self, size: Size) {
        self.b(0xF3);
        self.b(if size == Size::Byte { 0xA4 } else { 0xA5 });
    }

    /// `rep stosd` / `rep stosb`.
    pub fn rep_stos(&mut self, size: Size) {
        self.b(0xF3);
        self.b(if size == Size::Byte { 0xAA } else { 0xAB });
    }

    /// `lodsd` / `lodsb` (no rep).
    pub fn lods(&mut self, size: Size) {
        self.b(if size == Size::Byte { 0xAC } else { 0xAD });
    }

    /// `cld` — clear the direction flag.
    pub fn cld(&mut self) {
        self.b(0xFC);
    }

    // ---- misc -----------------------------------------------------------

    /// `nop`.
    pub fn nop(&mut self) {
        self.b(0x90);
    }

    /// `int imm8`.
    pub fn int_(&mut self, vector: u8) {
        self.b(0xCD);
        self.b(vector);
    }

    /// `hlt`.
    pub fn hlt(&mut self) {
        self.b(0xF4);
    }

    /// Linux `exit(EAX)`: moves EAX to EBX, sets EAX=1, `int 0x80`.
    pub fn exit_with_eax(&mut self) {
        self.mov_rr(Reg::EBX, Reg::EAX);
        self.mov_ri(Reg::EAX, 1);
        self.int_(0x80);
    }

    /// Linux `exit(code)`.
    pub fn exit(&mut self, code: u32) {
        self.mov_ri(Reg::EBX, code);
        self.mov_ri(Reg::EAX, 1);
        self.int_(0x80);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{decode, SliceSource};
    use crate::insn::{Op, Operand};
    use Reg::*;

    fn roundtrip(f: impl FnOnce(&mut Asm)) -> Vec<crate::insn::Insn> {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let prog = asm.finish();
        let src = SliceSource::new(prog.base, &prog.code);
        let mut out = Vec::new();
        let mut pc = prog.base;
        let end = prog.base + prog.code.len() as u32;
        while pc < end {
            let i = decode(&src, pc).expect("self-emitted code decodes");
            pc = i.next_addr();
            out.push(i);
        }
        out
    }

    #[test]
    fn emitted_code_decodes_back() {
        let insns = roundtrip(|a| {
            a.mov_ri(EAX, 0x1234_5678);
            a.add_rr(EAX, EBX);
            a.sub_ri(ECX, -7);
            a.mov_rm(EDX, MemRef::base_index(EBX, ECX, 4, 0x40));
            a.push_r(EBP);
            a.pop_r(EBP);
            a.ret();
        });
        assert_eq!(insns.len(), 7);
        assert_eq!(insns[0].op, Op::Mov);
        assert_eq!(insns[2].src, Some(Operand::Imm(-7)));
        assert_eq!(insns[6].op, Op::Ret);
    }

    #[test]
    fn label_fixup_forward_and_backward() {
        let insns = roundtrip(|a| {
            let fwd = a.label();
            let back = a.here(); // 0x1000
            a.nop();
            a.jcc(Cond::Ne, back);
            a.jmp(fwd);
            a.bind(fwd);
            a.nop();
        });
        // nop(1) jcc(6) jmp(5) nop(1)
        assert_eq!(insns[1].target(), Some(0x1000));
        assert_eq!(insns[2].target(), Some(0x1000 + 1 + 6 + 5));
    }

    #[test]
    fn esp_base_uses_sib() {
        let insns = roundtrip(|a| a.mov_rm(EAX, MemRef::base_disp(ESP, 8)));
        assert_eq!(insns[0].src, Some(Operand::Mem(MemRef::base_disp(ESP, 8))));
    }

    #[test]
    fn ebp_base_zero_disp_encodes() {
        let insns = roundtrip(|a| a.mov_rm(EAX, MemRef::base_disp(EBP, 0)));
        assert_eq!(insns[0].src, Some(Operand::Mem(MemRef::base_disp(EBP, 0))));
    }

    #[test]
    fn large_disp_uses_disp32() {
        let insns = roundtrip(|a| a.mov_rm(EAX, MemRef::base_disp(EBX, 0x1234)));
        assert_eq!(
            insns[0].src,
            Some(Operand::Mem(MemRef::base_disp(EBX, 0x1234)))
        );
    }

    #[test]
    fn abs_and_index_only() {
        let insns = roundtrip(|a| {
            a.mov_rm(EAX, MemRef::abs(0x0900_0000));
            a.mov_rm(
                EAX,
                MemRef {
                    base: None,
                    index: Some((ECX, 8)),
                    disp: 0x100,
                },
            );
        });
        assert_eq!(
            insns[0].src.unwrap().mem().unwrap().disp as u32,
            0x0900_0000
        );
        let m = insns[1].src.unwrap().mem().unwrap();
        assert_eq!(m.index, Some((ECX, 8)));
    }

    #[test]
    fn shifts_and_muls_roundtrip() {
        let insns = roundtrip(|a| {
            a.shl_ri(EAX, 3);
            a.shr_ri(EBX, 1);
            a.sar_rcl(EDX);
            a.imul_rr(EAX, ECX);
            a.mul_r(EBX);
            a.idiv_r(ESI);
            a.cdq();
        });
        let ops: Vec<Op> = insns.iter().map(|i| i.op).collect();
        assert_eq!(
            ops,
            [
                Op::Shl,
                Op::Shr,
                Op::Sar,
                Op::ImulR,
                Op::Mul,
                Op::Idiv,
                Op::Cdq
            ]
        );
    }

    #[test]
    fn exit_sequence() {
        let insns = roundtrip(|a| a.exit(3));
        assert_eq!(insns[2].op, Op::Int);
        assert_eq!(insns[2].src, Some(Operand::Imm(0x80)));
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.jmp(l);
        let _ = a.finish();
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn double_bind_panics() {
        let mut a = Asm::new(0);
        let l = a.label();
        a.bind(l);
        a.bind(l);
    }
}
