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

/// Where a branch or jump goes: what [`RInsn::branch`] and
/// [`RInsn::jump`] take and what an instruction's `Debug` text names.
///
/// An [`RInsn`] holds the target flat, as the `u32` of its `*Local` or
/// `*Guest` variant, so nesting this tagged enum costs no host bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchTarget {
    /// An instruction index inside the current translated block.
    Local(u32),
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

/// Why a trap ([`RInsn::TrapBadInterrupt`], [`RInsn::TrapUndecodable`];
/// built by [`RInsn::trap`]) stops the machine.
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
/// The simulated machine charges it [`RInsn::SIZE_BYTES`] of
/// instruction memory whatever its host layout. On the host it is 8
/// bytes, what every cached translation (L1, L1.5, L2, the sweep's memo)
/// pays an instruction: a tag and at most 7 bytes of fields. A branch,
/// jump or trap is therefore one flat variant per target kind or cause
/// rather than a variant nesting a second tagged enum; build them with
/// [`RInsn::branch`], [`RInsn::jump`] and [`RInsn::trap`]. `Debug`
/// prints the nested form (`Branch { .., target: Local(7) }`, `Trap {
/// cause: Undecodable { .. } }`), the text translation digests hash.
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
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
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
    /// Conditional branch to an instruction index inside the current
    /// translated block ([`BranchTarget::Local`]).
    BranchLocal {
        /// Condition.
        cond: BrCond,
        /// Left operand.
        rs: RReg,
        /// Right operand.
        rt: RReg,
        /// Instruction index.
        target: u32,
    },
    /// Conditional branch to a guest address, a chainable exit
    /// ([`BranchTarget::Guest`]).
    BranchGuest {
        /// Condition.
        cond: BrCond,
        /// Left operand.
        rs: RReg,
        /// Right operand.
        rt: RReg,
        /// Guest address.
        target: u32,
    },
    /// Unconditional jump to an instruction index inside the current
    /// translated block.
    JumpLocal {
        /// Instruction index.
        target: u32,
    },
    /// Unconditional jump to a guest address, a chainable exit.
    JumpGuest {
        /// Guest address.
        target: u32,
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
    /// Raise [`TrapCause::BadInterrupt`]: `int` with an unimplemented
    /// vector.
    TrapBadInterrupt {
        /// The interrupt vector.
        vector: u8,
    },
    /// Raise [`TrapCause::Undecodable`]: guest bytes that do not decode.
    TrapUndecodable {
        /// Guest address of the undecodable instruction.
        addr: u32,
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

// The host layout every cached translation pays per instruction. A
// `usize` in `BranchTarget::Local` once made it 24 bytes, and variants
// nesting `BranchTarget` and `TrapCause` 12; a wider field or a nested
// tagged enum in any variant fails the build here rather than in a heap
// profile. `BranchTarget` is what `branch` and `jump` take, never what
// an instruction holds.
const _: () = assert!(std::mem::size_of::<RInsn>() == 8);
const _: () = assert!(std::mem::size_of::<BranchTarget>() == 8);

impl RInsn {
    /// Bytes of instruction memory one instruction occupies in the
    /// simulated machine: what every code cache and DRAM charge. The
    /// host layout can change without moving a simulated cycle.
    pub const SIZE_BYTES: u32 = 4;

    /// A conditional branch: to `target` if `cond` holds on `rs` and `rt`.
    pub fn branch(cond: BrCond, rs: RReg, rt: RReg, target: BranchTarget) -> RInsn {
        match target {
            BranchTarget::Local(target) => RInsn::BranchLocal {
                cond,
                rs,
                rt,
                target,
            },
            BranchTarget::Guest(target) => RInsn::BranchGuest {
                cond,
                rs,
                rt,
                target,
            },
        }
    }

    /// An unconditional jump to `target`.
    pub fn jump(target: BranchTarget) -> RInsn {
        match target {
            BranchTarget::Local(target) => RInsn::JumpLocal { target },
            BranchTarget::Guest(target) => RInsn::JumpGuest { target },
        }
    }

    /// A trap raising `cause`.
    pub fn trap(cause: TrapCause) -> RInsn {
        match cause {
            TrapCause::BadInterrupt { vector } => RInsn::TrapBadInterrupt { vector },
            TrapCause::Undecodable { addr } => RInsn::TrapUndecodable { addr },
        }
    }

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

/// The text a derived `Debug` printed when branches, jumps and traps
/// nested [`BranchTarget`] and [`TrapCause`]: translation digests hash
/// it, so the flat layout prints the nested form.
impl std::fmt::Debug for RInsn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        use std::fmt::Debug;
        let mut out = |name: &str, fields: &[(&str, &dyn Debug)]| {
            let mut s = f.debug_struct(name);
            for (field, value) in fields {
                s.field(field, value);
            }
            s.finish()
        };
        match *self {
            RInsn::Alu { op, rd, rs, rt } => {
                out("Alu", &[("op", &op), ("rd", &rd), ("rs", &rs), ("rt", &rt)])
            }
            RInsn::AluI { op, rd, rs, imm } => out(
                "AluI",
                &[("op", &op), ("rd", &rd), ("rs", &rs), ("imm", &imm)],
            ),
            RInsn::Lui { rd, imm } => out("Lui", &[("rd", &rd), ("imm", &imm)]),
            RInsn::Load { op, rd, base, off } => out(
                "Load",
                &[("op", &op), ("rd", &rd), ("base", &base), ("off", &off)],
            ),
            RInsn::Store { op, src, base, off } => out(
                "Store",
                &[("op", &op), ("src", &src), ("base", &base), ("off", &off)],
            ),
            RInsn::BranchLocal {
                cond,
                rs,
                rt,
                target,
            } => out(
                "Branch",
                &[
                    ("cond", &cond),
                    ("rs", &rs),
                    ("rt", &rt),
                    ("target", &BranchTarget::Local(target)),
                ],
            ),
            RInsn::BranchGuest {
                cond,
                rs,
                rt,
                target,
            } => out(
                "Branch",
                &[
                    ("cond", &cond),
                    ("rs", &rs),
                    ("rt", &rt),
                    ("target", &BranchTarget::Guest(target)),
                ],
            ),
            RInsn::JumpLocal { target } => out("Jump", &[("target", &BranchTarget::Local(target))]),
            RInsn::JumpGuest { target } => out("Jump", &[("target", &BranchTarget::Guest(target))]),
            RInsn::Ext { rd, rs, pos, len } => out(
                "Ext",
                &[("rd", &rd), ("rs", &rs), ("pos", &pos), ("len", &len)],
            ),
            RInsn::Ins { rd, rs, pos, len } => out(
                "Ins",
                &[("rd", &rd), ("rs", &rs), ("pos", &pos), ("len", &len)],
            ),
            RInsn::Helper { kind } => out("Helper", &[("kind", &kind)]),
            RInsn::Dispatch { rs } => out("Dispatch", &[("rs", &rs)]),
            RInsn::Sys => out("Sys", &[]),
            RInsn::TrapBadInterrupt { vector } => {
                out("Trap", &[("cause", &TrapCause::BadInterrupt { vector })])
            }
            RInsn::TrapUndecodable { addr } => {
                out("Trap", &[("cause", &TrapCause::Undecodable { addr })])
            }
            RInsn::Hlt => out("Hlt", &[]),
            RInsn::Nop => out("Nop", &[]),
            RInsn::SmcGuard { resume } => out("SmcGuard", &[("resume", &resume)]),
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

    /// Every variant, each flat split both ways, prints the text the
    /// derived `Debug` of the nested layout printed, which translation
    /// digests hash.
    #[test]
    fn debug_prints_the_nested_layout() {
        let (a, b, c) = (RReg(1), RReg(2), RReg(31));
        let golden = [
            (
                RInsn::Alu {
                    op: AluOp::Mulhu,
                    rd: a,
                    rs: b,
                    rt: c,
                },
                "Alu { op: Mulhu, rd: RReg(1), rs: RReg(2), rt: RReg(31) }",
            ),
            (
                RInsn::AluI {
                    op: AluIOp::Sra,
                    rd: a,
                    rs: b,
                    imm: -4,
                },
                "AluI { op: Sra, rd: RReg(1), rs: RReg(2), imm: -4 }",
            ),
            (
                RInsn::Lui { rd: a, imm: 0xBEEF },
                "Lui { rd: RReg(1), imm: 48879 }",
            ),
            (
                RInsn::Load {
                    op: MemOp::Bu,
                    rd: a,
                    base: b,
                    off: -8,
                },
                "Load { op: Bu, rd: RReg(1), base: RReg(2), off: -8 }",
            ),
            (
                RInsn::Store {
                    op: MemOp::W,
                    src: a,
                    base: c,
                    off: 12,
                },
                "Store { op: W, src: RReg(1), base: RReg(31), off: 12 }",
            ),
            (
                RInsn::branch(BrCond::GeU, a, b, BranchTarget::Local(7)),
                "Branch { cond: GeU, rs: RReg(1), rt: RReg(2), target: Local(7) }",
            ),
            (
                RInsn::branch(BrCond::Ne, c, RReg(0), BranchTarget::Guest(0x0804_8010)),
                "Branch { cond: Ne, rs: RReg(31), rt: RReg(0), target: Guest(134512656) }",
            ),
            (
                RInsn::jump(BranchTarget::Local(0)),
                "Jump { target: Local(0) }",
            ),
            (
                RInsn::jump(BranchTarget::Guest(0xFFFF_FFFF)),
                "Jump { target: Guest(4294967295) }",
            ),
            (
                RInsn::Ext {
                    rd: a,
                    rs: b,
                    pos: 10,
                    len: 1,
                },
                "Ext { rd: RReg(1), rs: RReg(2), pos: 10, len: 1 }",
            ),
            (
                RInsn::Ins {
                    rd: c,
                    rs: a,
                    pos: 0,
                    len: 32,
                },
                "Ins { rd: RReg(31), rs: RReg(1), pos: 0, len: 32 }",
            ),
            (
                RInsn::Helper {
                    kind: HelperKind::Div {
                        signed: true,
                        width: 4,
                    },
                },
                "Helper { kind: Div { signed: true, width: 4 } }",
            ),
            (
                RInsn::Helper {
                    kind: HelperKind::Shift {
                        op: ShiftOp::Rol,
                        width: 1,
                    },
                },
                "Helper { kind: Shift { op: Rol, width: 1 } }",
            ),
            (RInsn::Dispatch { rs: b }, "Dispatch { rs: RReg(2) }"),
            (RInsn::Sys, "Sys"),
            (
                RInsn::trap(TrapCause::BadInterrupt { vector: 3 }),
                "Trap { cause: BadInterrupt { vector: 3 } }",
            ),
            (
                RInsn::trap(TrapCause::Undecodable { addr: 0x0804_8123 }),
                "Trap { cause: Undecodable { addr: 134512931 } }",
            ),
            (RInsn::Hlt, "Hlt"),
            (RInsn::Nop, "Nop"),
            (
                RInsn::SmcGuard { resume: 0x1234 },
                "SmcGuard { resume: 4660 }",
            ),
        ];
        for (insn, text) in golden {
            assert_eq!(format!("{insn:?}"), text);
        }
        assert_eq!(
            format!("{:#?}", golden[5].0),
            "Branch {\n    cond: GeU,\n    rs: RReg(\n        1,\n    ),\n    rt: RReg(\n        \
             2,\n    ),\n    target: Local(\n        7,\n    ),\n}"
        );
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
