//! Structured model of decoded IA-32 instructions.

use std::fmt;

/// A 32-bit general-purpose register (also names the 16/8-bit views).
///
/// The discriminant is the hardware register number used in ModRM
/// encodings. For 8-bit operands, numbers 0–3 are `AL/CL/DL/BL` and 4–7 are
/// the *high-byte* views `AH/CH/DH/BH` of `EAX..EBX`, as on real hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Reg {
    EAX = 0,
    ECX = 1,
    EDX = 2,
    EBX = 3,
    ESP = 4,
    EBP = 5,
    ESI = 6,
    EDI = 7,
}

impl Reg {
    /// All eight registers in encoding order.
    pub const ALL: [Reg; 8] = [
        Reg::EAX,
        Reg::ECX,
        Reg::EDX,
        Reg::EBX,
        Reg::ESP,
        Reg::EBP,
        Reg::ESI,
        Reg::EDI,
    ];

    /// The hardware encoding number (0–7).
    #[inline]
    pub const fn num(self) -> u8 {
        self as u8
    }

    /// Decodes a register number.
    ///
    /// # Panics
    ///
    /// Panics if `n > 7`.
    #[inline]
    pub fn from_num(n: u8) -> Reg {
        Reg::ALL[n as usize]
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = ["eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi"][*self as usize];
        f.write_str(s)
    }
}

/// Operand size of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Size {
    /// 8-bit.
    Byte,
    /// 16-bit (`0x66` operand-size prefix).
    Word,
    /// 32-bit (default in protected mode).
    Dword,
}

impl Size {
    /// Width in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            Size::Byte => 1,
            Size::Word => 2,
            Size::Dword => 4,
        }
    }

    /// Width in bits.
    #[inline]
    pub fn bits(self) -> u32 {
        self.bytes() * 8
    }

    /// Mask selecting the low `bits()` bits of a value.
    #[inline]
    pub fn mask(self) -> u32 {
        match self {
            Size::Byte => 0xFF,
            Size::Word => 0xFFFF,
            Size::Dword => 0xFFFF_FFFF,
        }
    }

    /// The most-significant-bit mask for this width.
    #[inline]
    pub fn sign_bit(self) -> u32 {
        1 << (self.bits() - 1)
    }

    /// Sign-extends `v` (of this width) to 32 bits.
    #[inline]
    pub fn sign_extend(self, v: u32) -> u32 {
        match self {
            Size::Byte => v as u8 as i8 as i32 as u32,
            Size::Word => v as u16 as i16 as i32 as u32,
            Size::Dword => v,
        }
    }
}

/// A branch condition (`tttn` encoding, as in `Jcc`/`SETcc`/`CMOVcc`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Cond {
    O = 0x0,
    No = 0x1,
    B = 0x2,
    Ae = 0x3,
    E = 0x4,
    Ne = 0x5,
    Be = 0x6,
    A = 0x7,
    S = 0x8,
    Ns = 0x9,
    P = 0xA,
    Np = 0xB,
    L = 0xC,
    Ge = 0xD,
    Le = 0xE,
    G = 0xF,
}

impl Cond {
    /// All sixteen conditions in encoding order.
    pub const ALL: [Cond; 16] = [
        Cond::O,
        Cond::No,
        Cond::B,
        Cond::Ae,
        Cond::E,
        Cond::Ne,
        Cond::Be,
        Cond::A,
        Cond::S,
        Cond::Ns,
        Cond::P,
        Cond::Np,
        Cond::L,
        Cond::Ge,
        Cond::Le,
        Cond::G,
    ];

    /// Decodes the 4-bit `tttn` field.
    ///
    /// # Panics
    ///
    /// Panics if `n > 15`.
    #[inline]
    pub fn from_num(n: u8) -> Cond {
        Self::ALL[n as usize]
    }

    /// The 4-bit `tttn` encoding.
    #[inline]
    pub fn num(self) -> u8 {
        self as u8
    }

    /// The logically inverted condition (flips the low encoding bit).
    #[inline]
    pub fn negate(self) -> Cond {
        Cond::from_num(self.num() ^ 1)
    }
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8), if any. `ESP` cannot index.
    pub index: Option<(Reg, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

impl MemRef {
    /// An absolute-address reference `[disp]`.
    pub fn abs(addr: u32) -> MemRef {
        MemRef {
            base: None,
            index: None,
            disp: addr as i32,
        }
    }

    /// A base-plus-displacement reference `[base + disp]`.
    pub fn base_disp(base: Reg, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            disp,
        }
    }

    /// A full scaled-index reference `[base + index*scale + disp]`.
    pub fn base_index(base: Reg, index: Reg, scale: u8, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: Some((index, scale)),
            disp,
        }
    }
}

impl fmt::Display for MemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        let mut first = true;
        if let Some(b) = self.base {
            write!(f, "{b}")?;
            first = false;
        }
        if let Some((i, s)) = self.index {
            if !first {
                write!(f, "+")?;
            }
            write!(f, "{i}*{s}")?;
            first = false;
        }
        if self.disp != 0 || first {
            if self.disp < 0 {
                write!(f, "-{:#x}", self.disp.unsigned_abs())?;
            } else {
                if !first {
                    write!(f, "+")?;
                }
                write!(f, "{:#x}", self.disp)?;
            }
        }
        write!(f, "]")
    }
}

/// One operand of an instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A register, interpreted at the instruction's operand [`Size`].
    Reg(Reg),
    /// An immediate (already sign-extended where the encoding does so).
    Imm(i64),
    /// A memory reference, accessed at the instruction's operand [`Size`].
    Mem(MemRef),
    /// An absolute branch target (decoder resolves relative targets).
    Target(u32),
}

impl Operand {
    /// Returns the register if this operand is one.
    pub fn reg(self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(r),
            _ => None,
        }
    }

    /// Returns the memory reference if this operand is one.
    pub fn mem(self) -> Option<MemRef> {
        match self {
            Operand::Mem(m) => Some(m),
            _ => None,
        }
    }

    /// Whether this operand touches memory.
    pub fn is_mem(self) -> bool {
        matches!(self, Operand::Mem(_))
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(i) => write!(f, "{i:#x}"),
            Operand::Mem(m) => write!(f, "{m}"),
            Operand::Target(t) => write!(f, "{t:#010x}"),
        }
    }
}

/// `rep` prefix state for string instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Rep {
    /// No prefix: one iteration.
    #[default]
    None,
    /// `rep` / `repe` (`0xF3`): repeat while `ECX != 0`.
    Rep,
    /// `repne` (`0xF2`).
    Repne,
}

/// Instruction operation.
///
/// Condition payloads live in [`Insn::cond`]; this enum is deliberately
/// flat so the translator's lowering is a single `match`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Op {
    // Data movement.
    Mov,
    Movzx,
    Movsx,
    Lea,
    Xchg,
    Push,
    Pop,
    // ALU, two-operand (set flags).
    Add,
    Or,
    Adc,
    Sbb,
    And,
    Sub,
    Xor,
    Cmp,
    Test,
    // ALU, one-operand.
    Inc,
    Dec,
    Neg,
    Not,
    // Wide multiply/divide on EDX:EAX.
    Mul,
    Imul,
    Div,
    Idiv,
    /// Two/three operand `imul r, r/m [, imm]`.
    ImulR,
    // Shifts and rotates.
    Rol,
    Ror,
    Shl,
    Shr,
    Sar,
    // Control flow.
    Jmp,
    JmpInd,
    Jcc,
    Call,
    CallInd,
    Ret,
    // Flag-conditional data ops.
    Setcc,
    Cmovcc,
    // Width conversion.
    Cwde,
    Cdq,
    // String ops (respect `Insn::rep`).
    Movs,
    Stos,
    Lods,
    Scas,
    // Misc.
    Nop,
    Int,
    Hlt,
    Cld,
    Std,
}

impl Op {
    /// Whether this operation ends a basic block.
    pub fn is_block_end(self) -> bool {
        matches!(
            self,
            Op::Jmp | Op::JmpInd | Op::Jcc | Op::Call | Op::CallInd | Op::Ret | Op::Hlt | Op::Int
        )
    }
}

/// A decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insn {
    /// Guest virtual address of the first byte.
    pub addr: u32,
    /// Encoded length in bytes.
    pub len: u8,
    /// Operation.
    pub op: Op,
    /// Operand size.
    pub size: Size,
    /// Destination (or only) operand.
    pub dst: Option<Operand>,
    /// Source operand.
    pub src: Option<Operand>,
    /// Extra operand (three-operand `imul` immediate, shift count).
    pub src2: Option<Operand>,
    /// Condition for `Jcc`/`Setcc`/`Cmovcc`.
    pub cond: Option<Cond>,
    /// `rep` prefix for string operations.
    pub rep: Rep,
    /// Source operand width for widening moves (`Movzx`/`Movsx`).
    pub src_size: Option<Size>,
}

impl Insn {
    /// A skeleton instruction with every optional field empty.
    pub fn new(addr: u32, op: Op) -> Insn {
        Insn {
            addr,
            len: 0,
            op,
            size: Size::Dword,
            dst: None,
            src: None,
            src2: None,
            cond: None,
            rep: Rep::None,
            src_size: None,
        }
    }
}

impl Insn {
    /// Address of the next sequential instruction.
    #[inline]
    pub fn next_addr(&self) -> u32 {
        self.addr.wrapping_add(self.len as u32)
    }

    /// The taken-branch target, if statically known.
    pub fn target(&self) -> Option<u32> {
        match (self.op, self.dst) {
            (Op::Jmp | Op::Jcc | Op::Call, Some(Operand::Target(t))) => Some(t),
            _ => None,
        }
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}: {:?}", self.addr, self.op)?;
        if let Some(c) = self.cond {
            write!(f, ".{c:?}")?;
        }
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        if let Some(s) = self.src {
            write!(f, ", {s}")?;
        }
        if let Some(s2) = self.src2 {
            write!(f, ", {s2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip() {
        for r in Reg::ALL {
            assert_eq!(Reg::from_num(r.num()), r);
        }
    }

    #[test]
    fn cond_negate_flips() {
        assert_eq!(Cond::E.negate(), Cond::Ne);
        assert_eq!(Cond::Ne.negate(), Cond::E);
        assert_eq!(Cond::L.negate(), Cond::Ge);
        for c in Cond::ALL {
            assert_eq!(c.negate().negate(), c);
        }
    }

    #[test]
    fn size_helpers() {
        assert_eq!(Size::Byte.mask(), 0xFF);
        assert_eq!(Size::Word.bits(), 16);
        assert_eq!(Size::Dword.sign_bit(), 0x8000_0000);
        assert_eq!(Size::Byte.sign_extend(0x80), 0xFFFF_FF80);
        assert_eq!(Size::Word.sign_extend(0x8000), 0xFFFF_8000);
        assert_eq!(Size::Dword.sign_extend(5), 5);
    }

    #[test]
    fn memref_display_forms() {
        assert_eq!(MemRef::abs(0x10).to_string(), "[0x10]");
        assert_eq!(MemRef::base_disp(Reg::EBP, -4).to_string(), "[ebp-0x4]");
        let m = MemRef::base_index(Reg::EAX, Reg::ECX, 4, 8);
        assert_eq!(m.to_string(), "[eax+ecx*4+0x8]");
    }

    #[test]
    fn op_block_end_classification() {
        assert!(Op::Ret.is_block_end());
        assert!(!Op::Lea.is_block_end());
    }

    #[test]
    fn insn_target_of_direct_jump() {
        let mut i = Insn::new(0x100, Op::Jmp);
        i.len = 2;
        i.dst = Some(Operand::Target(0x200));
        assert_eq!(i.target(), Some(0x200));
        assert_eq!(i.next_addr(), 0x102);
    }
}
