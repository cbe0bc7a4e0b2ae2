//! The host tile instruction set ("RawIsa").
//!
//! A MIPS-derived 32-bit RISC ISA as on a Raw tile, plus the two bit-field
//! operations (`ext`/`ins`) the paper's emulator leans on to keep the x86
//! flags packed in one register, and two pseudo-terminators that model the
//! tile's interaction with the DBT runtime: [`RInsn::Dispatch`] (leave the
//! code cache and look up the next guest address) and [`RInsn::Sys`]
//! (proxy a guest system call to the syscall tile).
//!
//! Every instruction occupies one 32-bit word of the tile's
//! software-managed instruction memory; [`RInsn::SIZE_BYTES`] is what the
//! L1 code cache accounting uses.

/// A host register. `r0` is hardwired to zero, as on MIPS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RReg(pub u8);

/// Number of architected host registers per tile.
pub(crate) const NUM_REGS: usize = 32;

impl std::fmt::Display for RReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Three-register ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    Nor,
    /// Set if signed less-than.
    Slt,
    /// Set if unsigned less-than.
    Sltu,
    /// Shift left by register amount (low 5 bits).
    Sllv,
    Srlv,
    Srav,
    /// Low 32 bits of the product (single-cycle on Raw).
    Mul,
    /// High 32 bits of the signed product.
    Mulh,
    /// High 32 bits of the unsigned product.
    Mulhu,
    /// Signed divide (iterative; expensive).
    Div,
    /// Unsigned divide.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

impl AluOp {
    /// Issue cycles for this operation on the 8-stage in-order tile.
    pub(crate) fn cycles(self) -> u64 {
        match self {
            AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => 32,
            AluOp::Mul | AluOp::Mulh | AluOp::Mulhu => 2,
            _ => 1,
        }
    }
}

/// Register-immediate ALU operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluIOp {
    Addi,
    Andi,
    Ori,
    Xori,
    Slti,
    Sltiu,
    /// Shift left by a constant.
    Sll,
    /// Logical shift right by a constant.
    Srl,
    /// Arithmetic shift right by a constant.
    Sra,
}

/// Memory access widths (with zero/sign extension on loads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum MemOp {
    B,
    Bu,
    H,
    Hu,
    W,
}

impl MemOp {
    /// Access width in bytes.
    pub fn bytes(self) -> u32 {
        match self {
            MemOp::B | MemOp::Bu => 1,
            MemOp::H | MemOp::Hu => 2,
            MemOp::W => 4,
        }
    }

    /// Extends a loaded raw value per this op's signedness.
    pub(crate) fn extend(self, raw: u32) -> u32 {
        match self {
            MemOp::B => raw as u8 as i8 as i32 as u32,
            MemOp::Bu => raw & 0xFF,
            MemOp::H => raw as u16 as i16 as i32 as u32,
            MemOp::Hu => raw & 0xFFFF,
            MemOp::W => raw,
        }
    }
}

/// Branch conditions (compare two registers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BrCond {
    Eq,
    Ne,
    Lt,
    Ge,
    LtU,
    GeU,
}

impl BrCond {
    /// Evaluates the condition on two register values.
    pub(crate) fn holds(self, a: u32, b: u32) -> bool {
        match self {
            BrCond::Eq => a == b,
            BrCond::Ne => a != b,
            BrCond::Lt => (a as i32) < b as i32,
            BrCond::Ge => (a as i32) >= b as i32,
            BrCond::LtU => a < b,
            BrCond::GeU => a >= b,
        }
    }
}

/// Where a branch or jump goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchTarget {
    /// An instruction index inside the current translated block.
    Local(usize),
    /// A guest address: a *chainable exit*. If the target block is resident
    /// in the L1 code cache the branch is patched to fall through into it
    /// (chaining); otherwise control returns to the dispatch loop.
    Guest(u32),
}

/// Shift/rotate operations a [`HelperKind::Shift`] helper can perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ShiftOp {
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
}

/// Out-of-line runtime helper routines ("millicode").
///
/// Real DBTs keep support routines resident next to the dispatch loop for
/// operations too bulky to inline — wide divides and the flag-exact
/// shift/rotate path (x86 leaves all flags untouched when the masked shift
/// count is zero, which inline code would need extra branches to honour).
/// The register ABI is fixed by `vta_ir::apply_helper`, the canonical
/// implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HelperKind {
    /// x86 `div`/`idiv`: divides the widened accumulator by `r24`.
    Div {
        /// Signed divide?
        signed: bool,
        /// Operand width in bytes (1, 2 or 4).
        width: u8,
    },
    /// Flag-exact shift/rotate of `r24` by `r25`, flags in/out via `r9`.
    Shift {
        /// Operation.
        op: ShiftOp,
        /// Operand width in bytes (1, 2 or 4).
        width: u8,
    },
}

impl HelperKind {
    /// Cycle occupancy of the helper call (call + routine + return).
    pub(crate) fn cycles(self) -> u64 {
        match self {
            HelperKind::Div { .. } => 45,
            HelperKind::Shift { .. } => 14,
        }
    }
}

/// Why a [`RInsn::Trap`] stops the machine.
///
/// Traps are *statically known* guest faults the translator discovers at
/// translation time and materialises as a terminator, so the translated
/// path reports them with the same precision as the reference
/// interpreter: the guest code before the faulting point still executes
/// (and may fault on its own first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrapCause {
    /// `int` with a vector the virtual machine does not implement.
    BadInterrupt {
        /// The interrupt vector.
        vector: u8,
    },
    /// Guest bytes at `addr` do not decode (unsupported opcode, truncated
    /// instruction, or unmapped code page reached mid-block).
    Undecodable {
        /// Guest address of the undecodable instruction.
        addr: u32,
    },
}

/// One host instruction.
///
/// # Examples
///
/// ```
/// use vta_raw::isa::{AluIOp, RInsn, RReg};
///
/// // r3 = r1 + 4
/// let i = RInsn::AluI { op: AluIOp::Addi, rd: RReg(3), rs: RReg(1), imm: 4 };
/// assert_eq!(i.cycles(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RInsn {
    /// `rd = rs <op> rt`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: RReg,
        /// First source.
        rs: RReg,
        /// Second source.
        rt: RReg,
    },
    /// `rd = rs <op> imm`.
    AluI {
        /// Operation.
        op: AluIOp,
        /// Destination.
        rd: RReg,
        /// Source.
        rs: RReg,
        /// Immediate (full 32-bit constants are built with `Lui`+`Ori`).
        imm: i32,
    },
    /// `rd = imm << 16`.
    Lui {
        /// Destination.
        rd: RReg,
        /// Upper immediate.
        imm: u32,
    },
    /// Guest-memory load through the software-translated memory path.
    Load {
        /// Width/extension.
        op: MemOp,
        /// Destination.
        rd: RReg,
        /// Base register (guest virtual address).
        base: RReg,
        /// Byte offset.
        off: i32,
    },
    /// Guest-memory store through the software-translated memory path.
    Store {
        /// Width.
        op: MemOp,
        /// Value to store.
        src: RReg,
        /// Base register (guest virtual address).
        base: RReg,
        /// Byte offset.
        off: i32,
    },
    /// Conditional branch.
    Branch {
        /// Condition.
        cond: BrCond,
        /// Left operand.
        rs: RReg,
        /// Right operand.
        rt: RReg,
        /// Target.
        target: BranchTarget,
    },
    /// Unconditional jump.
    Jump {
        /// Target.
        target: BranchTarget,
    },
    /// `rd = rs[pos .. pos+len]` (zero-extended bit-field extract).
    Ext {
        /// Destination.
        rd: RReg,
        /// Source.
        rs: RReg,
        /// Starting bit.
        pos: u8,
        /// Field width in bits.
        len: u8,
    },
    /// `rd[pos .. pos+len] = rs` (bit-field insert; other bits kept).
    Ins {
        /// Destination (read-modify-write).
        rd: RReg,
        /// Source of the low `len` bits.
        rs: RReg,
        /// Starting bit.
        pos: u8,
        /// Field width in bits.
        len: u8,
    },
    /// Call an out-of-line runtime helper routine.
    Helper {
        /// Which routine.
        kind: HelperKind,
    },
    /// Leave translated code: the next guest address is in `rs`.
    Dispatch {
        /// Register holding the guest address to continue at.
        rs: RReg,
    },
    /// Proxy a guest system call (registers already hold the x86 state).
    Sys,
    /// Raise a statically known guest fault (see [`TrapCause`]).
    Trap {
        /// Why the machine faults here.
        cause: TrapCause,
    },
    /// Stop the virtual machine.
    Hlt,
    /// No operation.
    Nop,
    /// Superblock member-boundary guard: if the runtime has observed a
    /// store into translated code pages since the block was entered,
    /// leave translated code and continue (via dispatch, against fresh
    /// bytes) at guest address `resume`. Free when no store is pending —
    /// it models the zero-cost invalidation check the runtime's store
    /// path already performs.
    SmcGuard {
        /// Guest address of the next member block.
        resume: u32,
    },
}

impl RInsn {
    /// Bytes of instruction memory one instruction occupies.
    pub const SIZE_BYTES: u32 = 4;

    /// Base issue cycles (memory stalls are added by the memory system).
    pub fn cycles(self) -> u64 {
        match self {
            RInsn::Alu { op, .. } => op.cycles(),
            RInsn::Helper { kind } => kind.cycles(),
            // The guard costs nothing on the common no-SMC path: the
            // runtime's store path pays for invalidation detection.
            RInsn::SmcGuard { .. } => 0,
            // Loads/stores: 1 issue cycle; the software address translation
            // and cache occupancy are charged by the DataPort.
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_costs() {
        assert_eq!(AluOp::Add.cycles(), 1);
        assert_eq!(AluOp::Mul.cycles(), 2);
        assert_eq!(AluOp::Div.cycles(), 32);
    }

    #[test]
    fn memop_extension() {
        assert_eq!(MemOp::B.extend(0x80), 0xFFFF_FF80);
        assert_eq!(MemOp::Bu.extend(0x80), 0x80);
        assert_eq!(MemOp::H.extend(0x8000), 0xFFFF_8000);
        assert_eq!(MemOp::Hu.extend(0x8000), 0x8000);
        assert_eq!(MemOp::W.extend(0xDEAD_BEEF), 0xDEAD_BEEF);
    }

    #[test]
    fn branch_conditions() {
        assert!(BrCond::Lt.holds((-1i32) as u32, 0));
        assert!(!BrCond::LtU.holds((-1i32) as u32, 0));
        assert!(BrCond::GeU.holds(0xFFFF_FFFF, 1));
        assert!(BrCond::Eq.holds(3, 3));
        assert!(BrCond::Ne.holds(3, 4));
        assert!(BrCond::Ge.holds(0, 0));
    }
}
