//! The x86-like mid-level IR the translation slaves work on.
//!
//! Guest architectural state maps to fixed virtual registers:
//! `VReg(0..=7)` are `EAX..EDI` and `VReg(8)` is the packed EFLAGS word.
//! Temporaries are numbered from [`VReg::FIRST_TEMP`] upward. Flag effects
//! are modelled as *per-flag* [`MInsn::FlagDef`] pseudo-instructions so
//! lowering can emit only the individual flags a reader can see. An
//! [`MBlock`] is lowered code and the guest spans decoded for it, nothing
//! more: which guest blocks it covers is the translator's to say.

use std::fmt;

use vta_raw::isa::TrapCause;
use vta_x86::{Cond, Rep, Size};

/// A virtual register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VReg(pub u32);

impl VReg {
    /// The packed EFLAGS virtual register.
    pub const FLAGS: VReg = VReg(8);
    /// First temporary number (0–7 are guest GPRs, 8 is EFLAGS).
    pub const FIRST_TEMP: u32 = 9;

    /// The virtual register holding guest register `r`.
    pub fn guest(r: vta_x86::Reg) -> VReg {
        VReg(r.num() as u32)
    }

    /// Whether this is part of the guest architectural state.
    pub fn is_guest_state(self) -> bool {
        self.0 <= 8
    }
}

impl fmt::Display for VReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 8 {
            write!(f, "%{}", vta_x86::Reg::from_num(self.0 as u8))
        } else if *self == VReg::FLAGS {
            write!(f, "%flags")
        } else {
            write!(f, "%t{}", self.0 - Self::FIRST_TEMP)
        }
    }
}

/// An operand: a virtual register or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Val {
    /// Register value.
    Reg(VReg),
    /// 32-bit constant.
    Const(u32),
}

impl Val {
    /// The register, if this is one.
    pub fn reg(self) -> Option<VReg> {
        match self {
            Val::Reg(r) => Some(r),
            Val::Const(_) => None,
        }
    }

    /// The constant, if this is one.
    pub fn constant(self) -> Option<u32> {
        match self {
            Val::Const(c) => Some(c),
            Val::Reg(_) => None,
        }
    }
}

impl From<VReg> for Val {
    fn from(r: VReg) -> Val {
        Val::Reg(r)
    }
}

impl fmt::Display for Val {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Val::Reg(r) => write!(f, "{r}"),
            Val::Const(c) => write!(f, "{c:#x}"),
        }
    }
}

/// One of the six arithmetic EFLAGS bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Flag {
    Cf,
    Pf,
    Af,
    Zf,
    Sf,
    Of,
}

impl Flag {
    /// All six flags.
    pub const ALL: [Flag; 6] = [Flag::Cf, Flag::Pf, Flag::Af, Flag::Zf, Flag::Sf, Flag::Of];

    /// Bit position of this flag in the packed EFLAGS word.
    pub fn bit(self) -> u8 {
        match self {
            Flag::Cf => 0,
            Flag::Pf => 2,
            Flag::Af => 4,
            Flag::Zf => 6,
            Flag::Sf => 7,
            Flag::Of => 11,
        }
    }

    /// Singleton [`FlagSet`].
    pub fn set(self) -> FlagSet {
        FlagSet(1 << (self as u8))
    }
}

/// A set of arithmetic flags (bitset over [`Flag`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct FlagSet(pub u8);

impl FlagSet {
    /// The empty set.
    pub const EMPTY: FlagSet = FlagSet(0);
    /// All six arithmetic flags.
    pub const ALL: FlagSet = FlagSet(0b11_1111);

    /// Whether `flag` is in the set.
    pub fn contains(self, flag: Flag) -> bool {
        self.0 & (1 << flag as u8) != 0
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: FlagSet) -> FlagSet {
        FlagSet(self.0 | other.0)
    }

    /// Set difference.
    #[must_use]
    pub fn minus(self, other: FlagSet) -> FlagSet {
        FlagSet(self.0 & !other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersect(self, other: FlagSet) -> FlagSet {
        FlagSet(self.0 & other.0)
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates the members.
    pub fn iter(self) -> impl Iterator<Item = Flag> {
        Flag::ALL.into_iter().filter(move |f| self.contains(*f))
    }

    /// The flags a condition code reads.
    pub fn for_cond(cond: Cond) -> FlagSet {
        use Flag::*;
        match cond {
            Cond::O | Cond::No => Of.set(),
            Cond::B | Cond::Ae => Cf.set(),
            Cond::E | Cond::Ne => Zf.set(),
            Cond::Be | Cond::A => Cf.set().union(Zf.set()),
            Cond::S | Cond::Ns => Sf.set(),
            Cond::P | Cond::Np => Pf.set(),
            Cond::L | Cond::Ge => Sf.set().union(Of.set()),
            Cond::Le | Cond::G => Zf.set().union(Sf.set()).union(Of.set()),
        }
    }
}

impl fmt::Display for FlagSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, fl) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{fl:?}")?;
        }
        write!(f, "}}")
    }
}

/// Pure value-producing binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BinOp {
    Add,
    Sub,
    And,
    Or,
    Xor,
    /// Low 32 bits of a product.
    Mul,
    /// High 32 bits of a signed product.
    MulhS,
    /// High 32 bits of an unsigned product.
    MulhU,
    /// Logical shift left (count taken mod 32).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Signed less-than (0/1).
    SltS,
    /// Unsigned less-than (0/1).
    SltU,
}

/// How a [`MInsn::FlagDef`] computes its flag.
///
/// `a`/`b` are the (size-masked) operands and `res` the size-masked
/// result; `cin` is the pre-operation carry for `Adc`/`Sbb`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FlagKind {
    Add,
    Adc,
    Sub,
    Sbb,
    /// `and`/`or`/`xor`/`test`: CF/OF/AF cleared, SZP from result.
    Logic,
    Neg,
    /// Widening multiply: CF/OF = (hi != 0); `b` holds `hi`.
    MulU,
    /// Signed widening multiply: CF/OF = (hi != sign-extension of lo).
    MulS,
}

/// Shift/rotate operations that go through the flag-exact helper when any
/// flag is live (x86 leaves flags untouched for a zero count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ShiftKind {
    Shl,
    Shr,
    Sar,
    Rol,
    Ror,
}

/// String operations (with optional `rep`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum StringOp {
    Movs,
    Stos,
    Lods,
    Scas,
}

/// One mid-level IR instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MInsn {
    /// `dst = src`.
    Mov {
        /// Destination.
        dst: VReg,
        /// Source value.
        src: Val,
    },
    /// `dst = a <op> b` (pure, full 32-bit).
    Bin {
        /// Operation.
        op: BinOp,
        /// Destination.
        dst: VReg,
        /// Left operand.
        a: Val,
        /// Right operand.
        b: Val,
    },
    /// `dst = zero-extended load of `width` bytes from `base + off``.
    Load {
        /// Destination.
        dst: VReg,
        /// Base address value.
        base: Val,
        /// Byte offset.
        off: i32,
        /// Access width in bytes (1, 2 or 4).
        width: u8,
    },
    /// Store the low `width` bytes of `src` to `base + off`.
    Store {
        /// Value to store.
        src: Val,
        /// Base address value.
        base: Val,
        /// Byte offset.
        off: i32,
        /// Access width in bytes (1, 2 or 4).
        width: u8,
    },
    /// Compute one flag of the packed EFLAGS register.
    FlagDef {
        /// Which flag.
        flag: Flag,
        /// Semantics.
        kind: FlagKind,
        /// Operand width the operation ran at.
        size: Size,
        /// Left operand (size-masked).
        a: Val,
        /// Right operand (size-masked; `hi` for multiplies).
        b: Val,
        /// Result (size-masked).
        res: Val,
        /// Pre-operation carry (for `Adc`/`Sbb`).
        cin: Option<Val>,
    },
    /// `dst = 1` if `cond` holds on the packed flags, else `0`.
    EvalCond {
        /// Destination (0/1).
        dst: VReg,
        /// Condition.
        cond: Cond,
    },
    /// Flag-exact shift/rotate via the runtime helper; replaces the whole
    /// packed flags word (helper implements the zero-count no-op rule).
    ShiftFx {
        /// Operation.
        op: ShiftKind,
        /// Operand width.
        size: Size,
        /// Destination of the shifted value.
        dst: VReg,
        /// Value to shift (size-masked).
        a: Val,
        /// Shift count (masked to 5 bits by the helper).
        count: Val,
    },
    /// x86 `div`/`idiv` via the runtime helper (mutates EAX/EDX).
    DivHelper {
        /// Signed divide?
        signed: bool,
        /// Operand width.
        size: Size,
        /// Divisor.
        divisor: Val,
    },
    /// A string operation, possibly `rep`-prefixed (inline host loop).
    RepString {
        /// Which operation.
        op: StringOp,
        /// Element width.
        size: Size,
        /// Repeat prefix.
        rep: Rep,
    },
    /// Set or clear the direction flag (bit 10 of the packed word).
    SetDf(
        /// New DF value.
        bool,
    ),
    /// Superblock side exit: leave the region for `target` when `cond`
    /// holds on the packed flags (the not-predicted arm of an internal
    /// conditional branch). Architectural state must be fully
    /// materialized here — the exit falls back to dispatch.
    SideExit {
        /// Condition under which the exit is taken.
        cond: Cond,
        /// Guest address execution continues at when the exit is taken.
        target: u32,
    },
    /// Superblock member boundary: if a store into translated code pages
    /// has been observed since the region was entered, leave the region
    /// and resume via dispatch (against fresh bytes) at `resume`, the
    /// guest address of the next member block.
    Boundary {
        /// Guest address of the next member block.
        resume: u32,
    },
    /// Recorded-path indirect junction: the recording pass observed the
    /// indirect terminator here going to `expected`, and the region was
    /// formed along that successor. At run time, if `reg` (the computed
    /// guest target) differs from `expected`, leave the region through
    /// the dispatcher at the computed address; otherwise fall through
    /// into the next member. Architectural state must be fully
    /// materialized here, exactly as at a [`MInsn::SideExit`].
    IndirectGuard {
        /// Register holding the computed guest target address.
        reg: VReg,
        /// The recorded successor the region continues into.
        expected: u32,
    },
}

impl MInsn {
    /// The register this instruction defines, if exactly one.
    pub fn def(&self) -> Option<VReg> {
        match *self {
            MInsn::Mov { dst, .. }
            | MInsn::Bin { dst, .. }
            | MInsn::Load { dst, .. }
            | MInsn::EvalCond { dst, .. } => Some(dst),
            MInsn::ShiftFx { dst, .. } => Some(dst),
            _ => None,
        }
    }

    /// Calls `f` on every value this instruction reads, in operand
    /// order, without allocating (the translator passes walk every
    /// operand of every instruction, so this is on the translation hot
    /// path).
    pub fn for_each_use(&self, mut f: impl FnMut(Val)) {
        match *self {
            MInsn::Mov { src, .. } => f(src),
            MInsn::Bin { a, b, .. } => {
                f(a);
                f(b);
            }
            MInsn::Load { base, .. } => f(base),
            MInsn::Store { src, base, .. } => {
                f(src);
                f(base);
            }
            MInsn::FlagDef { a, b, res, cin, .. } => {
                f(a);
                f(b);
                f(res);
                if let Some(c) = cin {
                    f(c);
                }
            }
            MInsn::EvalCond { .. } => f(Val::Reg(VReg::FLAGS)),
            // The shift helper reads (and merges into) the packed flags.
            MInsn::ShiftFx { a, count, .. } => {
                f(a);
                f(count);
                f(Val::Reg(VReg::FLAGS));
            }
            // Divides read the widened accumulator (EAX/EDX) implicitly.
            MInsn::DivHelper { divisor, .. } => {
                f(divisor);
                f(Val::Reg(VReg(0)));
                f(Val::Reg(VReg(2)));
            }
            // String ops read EAX/ECX/ESI/EDI and DF implicitly.
            MInsn::RepString { .. } => {
                for r in [0u32, 1, 6, 7] {
                    f(Val::Reg(VReg(r)));
                }
                f(Val::Reg(VReg::FLAGS));
            }
            // SetDf is a read-modify-write of the packed flags word.
            MInsn::SetDf(_) => f(Val::Reg(VReg::FLAGS)),
            // Region exit points: every guest register (and the packed
            // flags word) must hold its architectural value here, since
            // execution may leave the region for the dispatcher.
            MInsn::SideExit { .. } | MInsn::Boundary { .. } => {
                for r in 0..=8u32 {
                    f(Val::Reg(VReg(r)));
                }
            }
            // Also an exit point, and it reads the computed target.
            MInsn::IndirectGuard { reg, .. } => {
                f(Val::Reg(reg));
                for r in 0..=8u32 {
                    f(Val::Reg(VReg(r)));
                }
            }
        }
    }
}

/// How a mid-level block ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Term {
    /// Unconditional transfer to a known guest address.
    Goto(u32),
    /// Two-way conditional branch on a condition code.
    CondGoto {
        /// Condition evaluated against the packed flags.
        cond: Cond,
        /// Target when the condition holds.
        taken: u32,
        /// Fall-through target.
        fall: u32,
    },
    /// Computed transfer (indirect jump / call / return).
    Indirect(
        /// Register holding the guest target address.
        VReg,
    ),
    /// `int 0x80`; execution resumes at the given guest address.
    Sys(
        /// Resume address.
        u32,
    ),
    /// A statically known guest fault: an unimplemented `int` vector, or
    /// undecodable bytes after a decodable straight-line prefix. The
    /// preceding body still executes (and may fault on its own first),
    /// matching the reference interpreter's instruction-granular faults.
    Trap(
        /// Why the machine faults here.
        TrapCause,
    ),
    /// `hlt`.
    Halt,
}

impl Term {
    /// Statically known successor addresses: the target, or the taken
    /// and fall-through targets, or the syscall's resume address.
    pub fn successors(self) -> [Option<u32>; 2] {
        match self {
            Term::Goto(t) | Term::Sys(t) => [Some(t), None],
            Term::CondGoto { taken, fall, .. } => [Some(taken), Some(fall)],
            Term::Indirect(_) | Term::Trap(_) | Term::Halt => [None, None],
        }
    }

    /// Whether `t` is one of [`Term::successors`].
    #[inline]
    pub fn leads_to(self, t: u32) -> bool {
        self.successors().contains(&Some(t))
    }
}

/// A lowered region's mid-level code: what the passes and codegen work
/// on. Which guest code it covers is the translator's to say
/// ([`TBlock::members`](crate::TBlock::members)), not the MIR's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MBlock {
    /// Straight-line body.
    pub insns: Vec<MInsn>,
    /// Terminator.
    pub term: Term,
    /// Next free temporary number (passes may allocate more).
    pub next_temp: u32,
    /// Guest `(start, len)` spans decoded on this block's behalf so far,
    /// in decode order: its own instructions, a decode that failed, and
    /// whatever the flag-liveness scan read past its end. The translator
    /// folds them into [`TBlock::footprint`](crate::TBlock::footprint).
    pub reads: Vec<(u32, u32)>,
}

/// Notes in `reads` (an [`MBlock::reads`] list) that the `len` guest
/// bytes at `addr` were decoded, extending the last span when the decode
/// carried straight on from it.
pub fn note_read(reads: &mut Vec<(u32, u32)>, addr: u32, len: u32) {
    match reads.last_mut() {
        Some((start, n)) if start.wrapping_add(*n) == addr => *n += len,
        _ => reads.push((addr, len)),
    }
}

impl Default for MBlock {
    /// An empty body that halts, with no temporaries and no reads: a
    /// buffer to lower into. Allocates nothing.
    fn default() -> Self {
        MBlock {
            insns: Vec::new(),
            term: Term::Halt,
            next_temp: VReg::FIRST_TEMP,
            reads: Vec::new(),
        }
    }
}

impl MBlock {
    /// Allocates a fresh temporary.
    pub fn temp(&mut self) -> VReg {
        let r = VReg(self.next_temp);
        self.next_temp += 1;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::Reg;

    #[test]
    fn guest_vreg_mapping() {
        assert_eq!(VReg::guest(Reg::EAX), VReg(0));
        assert_eq!(VReg::guest(Reg::EDI), VReg(7));
        assert!(VReg::guest(Reg::ESP).is_guest_state());
        assert!(VReg::FLAGS.is_guest_state());
        assert!(!VReg(9).is_guest_state());
    }

    #[test]
    fn flagset_ops() {
        let s = Flag::Cf.set().union(Flag::Zf.set());
        assert!(s.contains(Flag::Cf));
        assert!(!s.contains(Flag::Of));
        assert_eq!(s.minus(Flag::Cf.set()), Flag::Zf.set());
        assert_eq!(FlagSet::ALL.iter().count(), 6);
        assert!(FlagSet::EMPTY.is_empty());
    }

    #[test]
    fn cond_flag_reads() {
        use vta_x86::Cond;
        assert_eq!(FlagSet::for_cond(Cond::E), Flag::Zf.set());
        assert_eq!(
            FlagSet::for_cond(Cond::Le),
            Flag::Zf.set().union(Flag::Sf.set()).union(Flag::Of.set())
        );
        assert_eq!(FlagSet::for_cond(Cond::B), Flag::Cf.set());
    }

    #[test]
    fn flag_bits_match_eflags_layout() {
        assert_eq!(Flag::Cf.bit(), 0);
        assert_eq!(Flag::Pf.bit(), 2);
        assert_eq!(Flag::Af.bit(), 4);
        assert_eq!(Flag::Zf.bit(), 6);
        assert_eq!(Flag::Sf.bit(), 7);
        assert_eq!(Flag::Of.bit(), 11);
    }

    #[test]
    fn insn_def_use() {
        let i = MInsn::Bin {
            op: BinOp::Add,
            dst: VReg(9),
            a: Val::Reg(VReg(0)),
            b: Val::Const(5),
        };
        assert_eq!(i.def(), Some(VReg(9)));
        let mut uses = Vec::new();
        i.for_each_use(|u| uses.push(u));
        assert_eq!(uses, vec![Val::Reg(VReg(0)), Val::Const(5)]);

        let s = MInsn::Store {
            src: Val::Reg(VReg(1)),
            base: Val::Reg(VReg(4)),
            off: -4,
            width: 4,
        };
        assert_eq!(s.def(), None);
    }

    #[test]
    fn term_successors() {
        // Every variant with the successors it must name; `leads_to`
        // holds for exactly those, including targets at both ends of the
        // address space and a taken arm equal to the fall-through.
        let cond = vta_x86::Cond::E;
        let cases = [
            (Term::Goto(5), [Some(5), None]),
            (Term::Goto(0), [Some(0), None]),
            (Term::Goto(u32::MAX), [Some(u32::MAX), None]),
            (
                Term::CondGoto {
                    cond,
                    taken: 1,
                    fall: 2,
                },
                [Some(1), Some(2)],
            ),
            (
                Term::CondGoto {
                    cond,
                    taken: 0x40,
                    fall: 0x40,
                },
                [Some(0x40), Some(0x40)],
            ),
            (Term::Sys(0x1234), [Some(0x1234), None]),
            (Term::Indirect(VReg(9)), [None, None]),
            (
                Term::Trap(TrapCause::BadInterrupt { vector: 3 }),
                [None, None],
            ),
            (Term::Trap(TrapCause::Undecodable { addr: 7 }), [None, None]),
            (Term::Halt, [None, None]),
        ];
        for (term, succs) in cases {
            assert_eq!(term.successors(), succs, "{term:?}");
            let targets: Vec<u32> = succs.into_iter().flatten().collect();
            for &t in &targets {
                assert!(term.leads_to(t), "{term:?} must lead to {t:#x}");
            }
            // Misses: neighbours of every target, and fixed probes.
            let probes = targets
                .iter()
                .flat_map(|&t| [t.wrapping_sub(1), t.wrapping_add(1)])
                .chain([0, 3, 7, 9, 0x1000, u32::MAX]);
            for t in probes.filter(|t| !targets.contains(t)) {
                assert!(!term.leads_to(t), "{term:?} must not lead to {t:#x}");
            }
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(VReg(0).to_string(), "%eax");
        assert_eq!(VReg::FLAGS.to_string(), "%flags");
        assert_eq!(VReg(9).to_string(), "%t0");
        assert_eq!(Val::Const(16).to_string(), "0x10");
        let s = Flag::Cf.set().union(Flag::Zf.set());
        assert_eq!(s.to_string(), "{Cf,Zf}");
    }
}
