//! Code generation: mid-level IR → host [`RInsn`] sequences.
//!
//! Guest state lives in a fixed host-register mapping (`EAX..EDI` in
//! `r1..r8`, packed EFLAGS in `r9`); temporaries get host registers by
//! linear scan. One backward walk over the body plans the scan: where
//! each temporary is last read and, at `OptLevel::Full`, which pure
//! instructions define a value nothing reads (dead-code removal); those
//! are skipped in place. Flag definitions expand to short
//! bit-manipulation sequences ending in an `ins` into the packed flags
//! word — the encoding the paper describes (§4.5) — and conditional
//! branches expand to an extract plus a branch.

use vta_raw::isa::{AluIOp, AluOp, BrCond, BranchTarget, HelperKind, MemOp, RInsn, RReg, ShiftOp};
use vta_x86::flags::Flags;
use vta_x86::{Cond, Rep, Size};

use crate::mir::{BinOp, Flag, FlagKind, MBlock, MInsn, ShiftKind, StringOp, Term, VReg, Val};
use crate::OptLevel;

/// Host register of guest register number `n` (0..=7).
pub const fn guest_host_reg(n: u32) -> RReg {
    debug_assert!(n < 8);
    RReg(n as u8 + 1)
}

/// Host register holding the packed EFLAGS word.
pub(crate) const FLAGS_REG: RReg = RReg(9);
/// Expansion output scratch; also the helper ABI's divisor and shift
/// value register ([`apply_helper`](crate::apply_helper)).
pub(crate) const OUT0: RReg = RReg(24);
/// Second expansion output scratch; also the helper ABI's shift count
/// register.
pub(crate) const OUT1: RReg = RReg(25);
/// Scratch registers reserved for materializing constant operands.
pub(crate) const SCRATCH: [RReg; 3] = [RReg(27), RReg(28), RReg(29)];
/// Register carrying the guest resume address across a `Sys` exit.
pub const SYS_RESUME_REG: RReg = RReg(26);
/// Temp pool for linear-scan allocation.
pub(crate) const TEMP_POOL: [RReg; 16] = [
    RReg(10),
    RReg(11),
    RReg(12),
    RReg(13),
    RReg(14),
    RReg(15),
    RReg(16),
    RReg(17),
    RReg(18),
    RReg(19),
    RReg(20),
    RReg(21),
    RReg(22),
    RReg(23),
    RReg(30),
    RReg(31),
];

/// Code generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodegenError {
    /// More temporaries were simultaneously live than the host register
    /// file can hold (the translator caps block size precisely to keep
    /// this from happening).
    RegisterPressure {
        /// The block's guest address.
        guest_addr: u32,
    },
}

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodegenError::RegisterPressure { guest_addr } => {
                write!(f, "register pressure exceeded in block {guest_addr:#010x}")
            }
        }
    }
}

impl std::error::Error for CodegenError {}

/// Code generation ran out of host registers for the block's temporaries;
/// the translator, which knows the block's address, turns it into
/// [`CodegenError::RegisterPressure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RegisterPressure;

/// Code generation's share of a translator's context: the host code
/// buffer and the register allocator's tables, kept across blocks and
/// reset at the start of each.
#[derive(Debug, Default)]
pub(crate) struct Context {
    em: Emitter,
    alloc: Alloc,
}

impl Context {
    /// The host code of the last block [`codegen`] generated.
    pub(crate) fn code(&self) -> &[RInsn] {
        &self.em.code
    }
}

#[derive(Debug, Default)]
struct Emitter {
    code: Vec<RInsn>,
}

impl Emitter {
    fn emit(&mut self, i: RInsn) {
        self.code.push(i);
    }

    /// The index of the next instruction, as [`BranchTarget::Local`]
    /// holds it. The one conversion from the buffer's length: a block is
    /// at most `MAX_BLOCK_INSNS` guest instructions, a region at most its
    /// `RegionLimits::max_insns`, each a few dozen host instructions, so
    /// the length is far below `u32::MAX`.
    fn here(&self) -> u32 {
        self.code.len() as u32
    }

    /// Patches a branch/jump at `at` to target instruction index `target`.
    fn patch(&mut self, at: u32, target: u32) {
        match &mut self.code[at as usize] {
            RInsn::BranchLocal { target: t, .. } | RInsn::JumpLocal { target: t } => *t = target,
            other => panic!("patch target is not a branch: {other:?}"),
        }
    }

    /// rd = constant.
    fn load_const(&mut self, rd: RReg, c: u32) {
        let sc = c as i32;
        if (-32768..=32767).contains(&sc) {
            self.emit(RInsn::AluI {
                op: AluIOp::Addi,
                rd,
                rs: RReg(0),
                imm: sc,
            });
        } else if c & 0xFFFF == 0 {
            self.emit(RInsn::Lui { rd, imm: c >> 16 });
        } else {
            self.emit(RInsn::Lui { rd, imm: c >> 16 });
            self.emit(RInsn::AluI {
                op: AluIOp::Ori,
                rd,
                rs: rd,
                imm: (c & 0xFFFF) as i32,
            });
        }
    }

    /// rd = rs (register move).
    fn mov(&mut self, rd: RReg, rs: RReg) {
        if rd != rs {
            self.emit(RInsn::Alu {
                op: AluOp::Or,
                rd,
                rs,
                rt: RReg(0),
            });
        }
    }
}

/// A value resolved to the host level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HostVal {
    Reg(RReg),
    Const(u32),
}

/// Per-expansion scratch register dispenser.
struct Scratch {
    next: usize,
}

impl Scratch {
    fn new() -> Scratch {
        Scratch { next: 0 }
    }

    fn take(&mut self) -> RReg {
        let r = SCRATCH[self.next % SCRATCH.len()];
        assert!(
            self.next < SCRATCH.len(),
            "expansion exceeded scratch budget"
        );
        self.next += 1;
        r
    }

    /// Materializes a value into a register (constants use scratch).
    fn reg(&mut self, em: &mut Emitter, v: HostVal) -> RReg {
        match v {
            HostVal::Reg(r) => r,
            HostVal::Const(0) => RReg(0),
            HostVal::Const(c) => {
                let r = self.take();
                em.load_const(r, c);
                r
            }
        }
    }
}

/// Chain terminator / unset marker for the expiry lists.
const NONE: u32 = u32::MAX;

#[derive(Debug, Default)]
struct Alloc {
    /// `last_use[v]` = index of the last instruction reading temp `v`,
    /// or of its definition if nothing reads it.
    last_use: Vec<u32>,
    /// `dead[i]`: body instruction `i` is pure and nothing reads what it
    /// defines, so codegen skips it (planned at `OptLevel::Full` only).
    dead: Vec<bool>,
    /// `map[v]` = host register of temp `v` (indexed by VReg number).
    map: Vec<Option<RReg>>,
    free: Vec<RReg>,
    /// Head of the singly linked list of temps whose last use is at
    /// instruction index `i` (so expiry after instruction `i` walks one
    /// short chain instead of scanning every live temp).
    expiry_head: Vec<u32>,
    /// `expiry_next[v]` = next temp in `v`'s expiry chain.
    expiry_next: Vec<u32>,
}

impl Alloc {
    /// Forgets the last block and plans `block`'s temporaries in one
    /// backward walk: where each temp is last read (or defined, if
    /// nothing reads it) and, when `prune`, which pure instructions
    /// (`Mov`, `Bin`, `EvalCond`) define a value nothing reads.
    ///
    /// Guest state (`VReg(0..=8)`) is live out of every block; a
    /// `Term::Indirect` register lives to the end. A temp is live exactly
    /// when a later read has been seen, because lowering defines every
    /// temp once, before any read. Loads are never pruned: a load can
    /// fault, and x86 still faults when the result is unused.
    fn plan(&mut self, block: &MBlock, prune: bool) {
        let regs = block.next_temp.max(VReg::FIRST_TEMP) as usize;
        let n = block.insns.len();
        let Alloc { last_use, dead, .. } = self;
        last_use.clear();
        last_use.resize(regs, NONE);
        dead.clear();
        dead.resize(n, false);
        // One bit per guest-state register: live until a def is seen.
        let mut guest: u16 = 0x1FF;
        if let Term::Indirect(r) = block.term {
            if !r.is_guest_state() {
                last_use[r.0 as usize] = n as u32;
            }
        }
        for (i, insn) in block.insns.iter().enumerate().rev() {
            if let Some(d) = insn.def() {
                let read = if d.is_guest_state() {
                    guest & (1 << d.0) != 0
                } else {
                    last_use[d.0 as usize] != NONE
                };
                let pure = matches!(
                    insn,
                    MInsn::Mov { .. } | MInsn::Bin { .. } | MInsn::EvalCond { .. }
                );
                if prune && pure && !read {
                    dead[i] = true;
                    continue;
                }
                if d.is_guest_state() {
                    guest &= !(1 << d.0);
                } else if !read {
                    last_use[d.0 as usize] = i as u32;
                }
            }
            // An `EvalCond` reads `VReg::FLAGS`, so it keeps the flags live.
            insn.for_each_use(|v| {
                if let Val::Reg(r) = v {
                    if r.is_guest_state() {
                        guest |= 1 << r.0;
                    } else if last_use[r.0 as usize] == NONE {
                        last_use[r.0 as usize] = i as u32;
                    }
                }
            });
        }
        // Bucket the temps by their expiry index.
        let (head, next) = (&mut self.expiry_head, &mut self.expiry_next);
        head.clear();
        head.resize(n + 1, NONE);
        next.clear();
        next.resize(regs, NONE);
        for (v, &at) in self.last_use.iter().enumerate() {
            if at != NONE {
                next[v] = head[at as usize];
                head[at as usize] = v as u32;
            }
        }
        self.map.clear();
        self.map.resize(regs, None);
        self.free.clear();
        self.free.extend(TEMP_POOL.iter().rev());
    }

    /// Host register of `v` (guest state is fixed; temps must be live).
    fn read(&self, v: VReg) -> RReg {
        if v.0 < 8 {
            guest_host_reg(v.0)
        } else if v == VReg::FLAGS {
            FLAGS_REG
        } else {
            self.map[v.0 as usize].unwrap_or_else(|| panic!("use of unallocated temp {v}"))
        }
    }

    /// Host register for defining `v`, allocating a temp if needed.
    fn def(&mut self, v: VReg) -> Result<RReg, RegisterPressure> {
        if v.0 < 8 {
            return Ok(guest_host_reg(v.0));
        }
        if v == VReg::FLAGS {
            return Ok(FLAGS_REG);
        }
        if let Some(r) = self.map[v.0 as usize] {
            return Ok(r);
        }
        let r = self.free.pop().ok_or(RegisterPressure)?;
        self.map[v.0 as usize] = Some(r);
        Ok(r)
    }

    /// Releases temps whose last use is at instruction index `i`.
    fn expire(&mut self, i: usize) {
        let mut v = self.expiry_head[i];
        while v != NONE {
            if let Some(r) = self.map[v as usize].take() {
                self.free.push(r);
            }
            v = self.expiry_next[v as usize];
        }
    }

    /// Temporarily grabs a register from the free pool for each slot of
    /// `regs`, in order.
    fn grab(&mut self, regs: &mut [RReg]) -> Result<(), RegisterPressure> {
        if self.free.len() < regs.len() {
            return Err(RegisterPressure);
        }
        for r in regs {
            *r = self.free.pop().expect("checked");
        }
        Ok(())
    }

    /// Returns grabbed registers to the free pool, in order.
    fn release(&mut self, regs: impl IntoIterator<Item = RReg>) {
        self.free.extend(regs);
    }

    fn val(&self, v: Val) -> HostVal {
        match v {
            Val::Reg(r) => HostVal::Reg(self.read(r)),
            Val::Const(c) => HostVal::Const(c),
        }
    }
}

/// Generates host code for a mid-level block into `cx`
/// ([`Context::code`]). At [`OptLevel::Full`] the instructions
/// `Alloc::plan` finds dead are skipped in place.
///
/// # Errors
///
/// Returns [`RegisterPressure`] if the block needs more simultaneously-live
/// temporaries than the tile register file provides.
pub(crate) fn codegen(
    block: &MBlock,
    opt: OptLevel,
    cx: &mut Context,
) -> Result<(), RegisterPressure> {
    let Context { em, alloc } = cx;
    em.code.clear();
    alloc.plan(block, opt == OptLevel::Full);
    for (i, insn) in block.insns.iter().enumerate() {
        if alloc.dead[i] {
            continue;
        }
        emit_insn(em, alloc, insn)?;
        alloc.expire(i);
    }
    emit_term(em, alloc, block.term);
    Ok(())
}

fn bin_alu(op: BinOp) -> AluOp {
    match op {
        BinOp::Add => AluOp::Add,
        BinOp::Sub => AluOp::Sub,
        BinOp::And => AluOp::And,
        BinOp::Or => AluOp::Or,
        BinOp::Xor => AluOp::Xor,
        BinOp::Mul => AluOp::Mul,
        BinOp::MulhS => AluOp::Mulh,
        BinOp::MulhU => AluOp::Mulhu,
        BinOp::Shl => AluOp::Sllv,
        BinOp::Shr => AluOp::Srlv,
        BinOp::Sar => AluOp::Srav,
        BinOp::SltS => AluOp::Slt,
        BinOp::SltU => AluOp::Sltu,
    }
}

fn emit_insn(em: &mut Emitter, alloc: &mut Alloc, insn: &MInsn) -> Result<(), RegisterPressure> {
    match *insn {
        MInsn::Mov { dst, src } => {
            let d = alloc.def(dst)?;
            match alloc.val(src) {
                HostVal::Reg(r) => em.mov(d, r),
                HostVal::Const(c) => em.load_const(d, c),
            }
        }
        MInsn::Bin { op, dst, a, b } => {
            let av = alloc.val(a);
            let bv = alloc.val(b);
            let d = alloc.def(dst)?;
            emit_bin(em, op, d, av, bv);
        }
        MInsn::Load {
            dst,
            base,
            off,
            width,
        } => {
            let (base_r, off) = resolve_addr(em, alloc, base, off);
            let d = alloc.def(dst)?;
            em.emit(RInsn::Load {
                op: width_memop(width),
                rd: d,
                base: base_r,
                off,
            });
        }
        MInsn::Store {
            src,
            base,
            off,
            width,
        } => {
            let mut sc = Scratch::new();
            let sv = alloc.val(src);
            let s = sc.reg(em, sv);
            let (base_r, off) = resolve_addr(em, alloc, base, off);
            em.emit(RInsn::Store {
                op: width_memop(width),
                src: s,
                base: base_r,
                off,
            });
        }
        MInsn::FlagDef {
            flag,
            kind,
            size,
            a,
            b,
            res,
            cin,
        } => {
            emit_flagdef(em, alloc, flag, kind, size, a, b, res, cin);
        }
        MInsn::EvalCond { dst, cond } => {
            let d = alloc.def(dst)?;
            emit_eval_cond(em, d, cond);
        }
        MInsn::ShiftFx {
            op,
            size,
            dst,
            a,
            count,
        } => {
            // ABI: value in r24, count in r25; result replaces r24, flags r9.
            match alloc.val(a) {
                HostVal::Reg(r) => em.mov(OUT0, r),
                HostVal::Const(c) => em.load_const(OUT0, c),
            }
            match alloc.val(count) {
                HostVal::Reg(r) => em.mov(OUT1, r),
                HostVal::Const(c) => em.load_const(OUT1, c),
            }
            em.emit(RInsn::Helper {
                kind: HelperKind::Shift {
                    op: shift_helper_op(op),
                    width: size.bytes() as u8,
                },
            });
            let d = alloc.def(dst)?;
            em.mov(d, OUT0);
        }
        MInsn::DivHelper {
            signed,
            size,
            divisor,
        } => {
            match alloc.val(divisor) {
                HostVal::Reg(r) => em.mov(OUT0, r),
                HostVal::Const(c) => em.load_const(OUT0, c),
            }
            em.emit(RInsn::Helper {
                kind: HelperKind::Div {
                    signed,
                    width: size.bytes() as u8,
                },
            });
        }
        MInsn::RepString { op, size, rep } => {
            emit_string(em, alloc, op, size, rep)?;
        }
        MInsn::SetDf(v) => {
            if v {
                em.load_const(OUT0, 1);
                em.emit(RInsn::Ins {
                    rd: FLAGS_REG,
                    rs: OUT0,
                    pos: 10,
                    len: 1,
                });
            } else {
                em.emit(RInsn::Ins {
                    rd: FLAGS_REG,
                    rs: RReg(0),
                    pos: 10,
                    len: 1,
                });
            }
        }
        // Guest state lives in fixed host registers (r1..r9), so a
        // mid-region exit is state-complete without any spill code: the
        // same extract+branch shape as a terminator conditional.
        MInsn::SideExit { cond, target } => {
            emit_eval_cond(em, SCRATCH[2], cond);
            em.emit(RInsn::branch(
                BrCond::Ne,
                SCRATCH[2],
                RReg(0),
                BranchTarget::Guest(target),
            ));
        }
        MInsn::Boundary { resume } => {
            em.emit(RInsn::SmcGuard { resume });
        }
        // Compare the computed target against the recorded successor and
        // fall into the dispatcher when they differ. Like a side exit,
        // guest state is already architectural in the fixed registers.
        MInsn::IndirectGuard { reg, expected } => {
            let rr = alloc.read(reg);
            em.load_const(SCRATCH[2], expected);
            let skip = em.here();
            em.emit(RInsn::branch(
                BrCond::Eq,
                rr,
                SCRATCH[2],
                BranchTarget::Local(0),
            )); // patched
            em.emit(RInsn::Dispatch { rs: rr });
            let after = em.here();
            em.patch(skip, after);
        }
    }
    Ok(())
}

fn width_memop(width: u8) -> MemOp {
    match width {
        1 => MemOp::Bu,
        2 => MemOp::Hu,
        4 => MemOp::W,
        other => panic!("invalid access width {other}"),
    }
}

fn shift_helper_op(op: ShiftKind) -> ShiftOp {
    match op {
        ShiftKind::Shl => ShiftOp::Shl,
        ShiftKind::Shr => ShiftOp::Shr,
        ShiftKind::Sar => ShiftOp::Sar,
        ShiftKind::Rol => ShiftOp::Rol,
        ShiftKind::Ror => ShiftOp::Ror,
    }
}

/// Emits `d = a <op> b`, folding small constants into immediate forms.
fn emit_bin(em: &mut Emitter, op: BinOp, d: RReg, a: HostVal, b: HostVal) {
    let mut sc = Scratch::new();
    // Immediate forms.
    if let HostVal::Const(c) = b {
        let sc32 = c as i32;
        match op {
            BinOp::Add if (-32768..=32767).contains(&sc32) => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Addi,
                    rd: d,
                    rs: ar,
                    imm: sc32,
                });
                return;
            }
            BinOp::Sub if (-32767..=32768).contains(&sc32) => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Addi,
                    rd: d,
                    rs: ar,
                    imm: -sc32,
                });
                return;
            }
            BinOp::And if c <= 0xFFFF => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Andi,
                    rd: d,
                    rs: ar,
                    imm: c as i32,
                });
                return;
            }
            BinOp::Or if c <= 0xFFFF => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Ori,
                    rd: d,
                    rs: ar,
                    imm: c as i32,
                });
                return;
            }
            BinOp::Xor if c <= 0xFFFF => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Xori,
                    rd: d,
                    rs: ar,
                    imm: c as i32,
                });
                return;
            }
            BinOp::Shl | BinOp::Shr | BinOp::Sar => {
                let ar = sc.reg(em, a);
                let iop = match op {
                    BinOp::Shl => AluIOp::Sll,
                    BinOp::Shr => AluIOp::Srl,
                    _ => AluIOp::Sra,
                };
                em.emit(RInsn::AluI {
                    op: iop,
                    rd: d,
                    rs: ar,
                    imm: (c & 31) as i32,
                });
                return;
            }
            BinOp::SltS if (-32768..=32767).contains(&sc32) => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Slti,
                    rd: d,
                    rs: ar,
                    imm: sc32,
                });
                return;
            }
            BinOp::SltU if c <= 0xFFFF => {
                let ar = sc.reg(em, a);
                em.emit(RInsn::AluI {
                    op: AluIOp::Sltiu,
                    rd: d,
                    rs: ar,
                    imm: c as i32,
                });
                return;
            }
            _ => {}
        }
    }
    let ar = sc.reg(em, a);
    let br = sc.reg(em, b);
    em.emit(RInsn::Alu {
        op: bin_alu(op),
        rd: d,
        rs: ar,
        rt: br,
    });
}

fn resolve_addr(_em: &mut Emitter, alloc: &Alloc, base: Val, off: i32) -> (RReg, i32) {
    match alloc.val(base) {
        HostVal::Reg(r) => (r, off),
        HostVal::Const(c) => {
            // Absolute guest addresses use r0-relative addressing; the
            // offset field is a full 32-bit word and wraps like the ALU.
            let abs = c.wrapping_add(off as u32);
            (RReg(0), abs as i32)
        }
    }
}

/// Emits the computation of one flag bit and inserts it into `r9`.
#[allow(clippy::too_many_arguments)]
fn emit_flagdef(
    em: &mut Emitter,
    alloc: &Alloc,
    flag: Flag,
    kind: FlagKind,
    size: Size,
    a: Val,
    b: Val,
    res: Val,
    cin: Option<Val>,
) {
    let av = alloc.val(a);
    let bv = alloc.val(b);
    let rv = alloc.val(res);
    let cv = cin.map(|c| alloc.val(c));

    // Fully-constant flag effects fold to a static bit.
    if let (HostVal::Const(ca), HostVal::Const(cb), HostVal::Const(cr)) = (av, bv, rv) {
        let cc = match cv {
            Some(HostVal::Const(c)) => Some(c),
            None => None,
            _ => {
                emit_flag_dynamic(em, flag, kind, size, av, bv, rv, cv);
                return;
            }
        };
        let bit = const_flag_bit(flag, kind, size, ca, cb, cr, cc);
        if bit {
            em.load_const(OUT0, 1);
            em.emit(RInsn::Ins {
                rd: FLAGS_REG,
                rs: OUT0,
                pos: flag.bit(),
                len: 1,
            });
        } else {
            em.emit(RInsn::Ins {
                rd: FLAGS_REG,
                rs: RReg(0),
                pos: flag.bit(),
                len: 1,
            });
        }
        return;
    }
    emit_flag_dynamic(em, flag, kind, size, av, bv, rv, cv);
}

/// Computes a flag on compile-time constants (mirrors `vta_x86::flags`).
fn const_flag_bit(
    flag: Flag,
    kind: FlagKind,
    size: Size,
    a: u32,
    b: u32,
    res: u32,
    cin: Option<u32>,
) -> bool {
    use vta_x86::flags as xf;
    let mut f = Flags(0);
    if cin == Some(1) {
        f.set_cf(true);
    }
    match kind {
        FlagKind::Add => {
            xf::add(&mut f, size, a, b);
        }
        FlagKind::Adc => {
            xf::adc(&mut f, size, a, b);
        }
        FlagKind::Sub | FlagKind::Neg => {
            xf::sub(&mut f, size, a, b);
        }
        FlagKind::Sbb => {
            xf::sbb(&mut f, size, a, b);
        }
        FlagKind::Logic => {
            xf::logic(&mut f, size, res);
        }
        FlagKind::MulU => {
            // a = lo, b = hi.
            let over = b & size.mask() != 0;
            f.set_cf(over);
            f.set_of(over);
            f.set_af(false);
            f.set_zf(res & size.mask() == 0);
            f.set_sf(res & size.sign_bit() != 0);
            f.set_pf(xf::parity_even(res));
        }
        FlagKind::MulS => {
            let expected = if res & size.sign_bit() != 0 {
                size.mask()
            } else {
                0
            };
            let over = b & size.mask() != expected;
            f.set_cf(over);
            f.set_of(over);
            f.set_af(false);
            f.set_zf(res & size.mask() == 0);
            f.set_sf(res & size.sign_bit() != 0);
            f.set_pf(xf::parity_even(res));
        }
    }
    match flag {
        Flag::Cf => f.cf(),
        Flag::Pf => f.pf(),
        Flag::Af => f.af(),
        Flag::Zf => f.zf(),
        Flag::Sf => f.sf(),
        Flag::Of => f.of(),
    }
}

#[allow(clippy::too_many_arguments)]
fn emit_flag_dynamic(
    em: &mut Emitter,
    flag: Flag,
    kind: FlagKind,
    size: Size,
    a: HostVal,
    b: HostVal,
    res: HostVal,
    cin: Option<HostVal>,
) {
    let mut sc = Scratch::new();
    let sign_shift = (size.bits() - 1) as i32;
    let s = OUT0;

    match (flag, kind) {
        // ---- CF --------------------------------------------------------
        (Flag::Cf, FlagKind::Add) => {
            // carry ⟺ res < a (operands size-masked).
            let (rr, ar) = (sc.reg(em, res), sc.reg(em, a));
            em.emit(RInsn::Alu {
                op: AluOp::Sltu,
                rd: s,
                rs: rr,
                rt: ar,
            });
        }
        (Flag::Cf, FlagKind::Adc) => {
            // carry ⟺ res < a ∨ (res == a ∧ cin).
            let (rr, ar) = (sc.reg(em, res), sc.reg(em, a));
            let cr = match cin.expect("adc has carry-in") {
                HostVal::Reg(r) => r,
                HostVal::Const(c) => {
                    let t = sc.take();
                    em.load_const(t, c);
                    t
                }
            };
            em.emit(RInsn::Alu {
                op: AluOp::Sltu,
                rd: s,
                rs: rr,
                rt: ar,
            });
            let s2 = OUT1;
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s2,
                rs: rr,
                rt: ar,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Sltiu,
                rd: s2,
                rs: s2,
                imm: 1,
            });
            em.emit(RInsn::Alu {
                op: AluOp::And,
                rd: s2,
                rs: s2,
                rt: cr,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Or,
                rd: s,
                rs: s,
                rt: s2,
            });
        }
        (Flag::Cf, FlagKind::Sub | FlagKind::Neg) => {
            let (ar, br) = (sc.reg(em, a), sc.reg(em, b));
            em.emit(RInsn::Alu {
                op: AluOp::Sltu,
                rd: s,
                rs: ar,
                rt: br,
            });
        }
        (Flag::Cf, FlagKind::Sbb) => {
            // borrow ⟺ a < b ∨ (a == b ∧ cin).
            let (ar, br) = (sc.reg(em, a), sc.reg(em, b));
            let cr = match cin.expect("sbb has carry-in") {
                HostVal::Reg(r) => r,
                HostVal::Const(c) => {
                    let t = sc.take();
                    em.load_const(t, c);
                    t
                }
            };
            em.emit(RInsn::Alu {
                op: AluOp::Sltu,
                rd: s,
                rs: ar,
                rt: br,
            });
            let s2 = OUT1;
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s2,
                rs: ar,
                rt: br,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Sltiu,
                rd: s2,
                rs: s2,
                imm: 1,
            });
            em.emit(RInsn::Alu {
                op: AluOp::And,
                rd: s2,
                rs: s2,
                rt: cr,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Or,
                rd: s,
                rs: s,
                rt: s2,
            });
        }
        (Flag::Cf | Flag::Of, FlagKind::Logic) => {
            em.emit(RInsn::Ins {
                rd: FLAGS_REG,
                rs: RReg(0),
                pos: flag.bit(),
                len: 1,
            });
            return;
        }
        (Flag::Cf | Flag::Of, FlagKind::MulU) => {
            // b holds `hi`; overflow ⟺ hi != 0.
            let br = sc.reg(em, b);
            em.emit(RInsn::Alu {
                op: AluOp::Sltu,
                rd: s,
                rs: RReg(0),
                rt: br,
            });
        }
        (Flag::Cf | Flag::Of, FlagKind::MulS) => {
            // overflow ⟺ hi != sign-fill(lo). a = lo, b = hi.
            let ar = sc.reg(em, a);
            let s2 = OUT1;
            let sh = 32 - size.bits();
            if sh > 0 {
                em.emit(RInsn::AluI {
                    op: AluIOp::Sll,
                    rd: s2,
                    rs: ar,
                    imm: sh as i32,
                });
                em.emit(RInsn::AluI {
                    op: AluIOp::Sra,
                    rd: s2,
                    rs: s2,
                    imm: sh as i32,
                });
                em.emit(RInsn::AluI {
                    op: AluIOp::Sra,
                    rd: s2,
                    rs: s2,
                    imm: 31,
                });
                em.emit(RInsn::AluI {
                    op: AluIOp::Andi,
                    rd: s2,
                    rs: s2,
                    imm: size.mask() as i32,
                });
            } else {
                em.emit(RInsn::AluI {
                    op: AluIOp::Sra,
                    rd: s2,
                    rs: ar,
                    imm: 31,
                });
            }
            let br = sc.reg(em, b);
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s2,
                rs: s2,
                rt: br,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Sltu,
                rd: s,
                rs: RReg(0),
                rt: s2,
            });
        }
        // ---- OF (add/sub families) -------------------------------------
        (Flag::Of, FlagKind::Add | FlagKind::Adc) => {
            let (ar, br, rr) = (sc.reg(em, a), sc.reg(em, b), sc.reg(em, res));
            let s2 = OUT1;
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: ar,
                rt: rr,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s2,
                rs: br,
                rt: rr,
            });
            em.emit(RInsn::Alu {
                op: AluOp::And,
                rd: s,
                rs: s,
                rt: s2,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Srl,
                rd: s,
                rs: s,
                imm: sign_shift,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Andi,
                rd: s,
                rs: s,
                imm: 1,
            });
        }
        (Flag::Of, FlagKind::Sub | FlagKind::Sbb | FlagKind::Neg) => {
            let (ar, br, rr) = (sc.reg(em, a), sc.reg(em, b), sc.reg(em, res));
            let s2 = OUT1;
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: ar,
                rt: br,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s2,
                rs: ar,
                rt: rr,
            });
            em.emit(RInsn::Alu {
                op: AluOp::And,
                rd: s,
                rs: s,
                rt: s2,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Srl,
                rd: s,
                rs: s,
                imm: sign_shift,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Andi,
                rd: s,
                rs: s,
                imm: 1,
            });
        }
        // ---- AF ---------------------------------------------------------
        (Flag::Af, FlagKind::Logic | FlagKind::MulU | FlagKind::MulS) => {
            em.emit(RInsn::Ins {
                rd: FLAGS_REG,
                rs: RReg(0),
                pos: flag.bit(),
                len: 1,
            });
            return;
        }
        (Flag::Af, _) => {
            let (ar, br, rr) = (sc.reg(em, a), sc.reg(em, b), sc.reg(em, res));
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: ar,
                rt: br,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: s,
                rt: rr,
            });
            em.emit(RInsn::Ext {
                rd: s,
                rs: s,
                pos: 4,
                len: 1,
            });
        }
        // ---- ZF / SF / PF (from the result, any kind) --------------------
        (Flag::Zf, _) => {
            let rr = sc.reg(em, res);
            em.emit(RInsn::AluI {
                op: AluIOp::Sltiu,
                rd: s,
                rs: rr,
                imm: 1,
            });
        }
        (Flag::Sf, _) => {
            let rr = sc.reg(em, res);
            em.emit(RInsn::AluI {
                op: AluIOp::Srl,
                rd: s,
                rs: rr,
                imm: sign_shift,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Andi,
                rd: s,
                rs: s,
                imm: 1,
            });
        }
        (Flag::Pf, _) => {
            let rr = sc.reg(em, res);
            let s2 = OUT1;
            em.emit(RInsn::Ext {
                rd: s,
                rs: rr,
                pos: 0,
                len: 8,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Srl,
                rd: s2,
                rs: s,
                imm: 4,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: s,
                rt: s2,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Srl,
                rd: s2,
                rs: s,
                imm: 2,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: s,
                rt: s2,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Srl,
                rd: s2,
                rs: s,
                imm: 1,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: s,
                rt: s2,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Xori,
                rd: s,
                rs: s,
                imm: 1,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Andi,
                rd: s,
                rs: s,
                imm: 1,
            });
        }
    }
    em.emit(RInsn::Ins {
        rd: FLAGS_REG,
        rs: s,
        pos: flag.bit(),
        len: 1,
    });
}

/// Emits `d = cond(r9) ? 1 : 0`.
fn emit_eval_cond(em: &mut Emitter, d: RReg, cond: Cond) {
    // `rd = flag`, read at the flag's bit of the packed EFLAGS word.
    fn ext(em: &mut Emitter, rd: RReg, flag: Flag) {
        em.emit(RInsn::Ext {
            rd,
            rs: FLAGS_REG,
            pos: flag.bit(),
            len: 1,
        });
    }
    // `d = d op flag`, the flag read into `OUT1`.
    let fold = |em: &mut Emitter, op: AluOp, flag: Flag| {
        ext(em, OUT1, flag);
        em.emit(RInsn::Alu {
            op,
            rd: d,
            rs: d,
            rt: OUT1,
        });
    };
    let neg = cond.num() & 1 == 1;
    let base = Cond::from_num(cond.num() & !1);
    match base {
        Cond::O => ext(em, d, Flag::Of),
        Cond::B => ext(em, d, Flag::Cf),
        Cond::E => ext(em, d, Flag::Zf),
        Cond::S => ext(em, d, Flag::Sf),
        Cond::P => ext(em, d, Flag::Pf),
        Cond::Be => {
            ext(em, d, Flag::Cf);
            fold(em, AluOp::Or, Flag::Zf);
        }
        Cond::L => {
            ext(em, d, Flag::Sf);
            fold(em, AluOp::Xor, Flag::Of);
        }
        Cond::Le => {
            ext(em, d, Flag::Sf);
            fold(em, AluOp::Xor, Flag::Of);
            fold(em, AluOp::Or, Flag::Zf);
        }
        other => unreachable!("base cond {other:?}"),
    }
    if neg {
        em.emit(RInsn::AluI {
            op: AluIOp::Xori,
            rd: d,
            rs: d,
            imm: 1,
        });
    }
}

/// Inline expansion of the string operations (with optional `rep`).
fn emit_string(
    em: &mut Emitter,
    alloc: &mut Alloc,
    op: StringOp,
    size: Size,
    rep: Rep,
) -> Result<(), RegisterPressure> {
    let w = size.bytes() as i32;
    let eax = guest_host_reg(0);
    let ecx = guest_host_reg(1);
    let esi = guest_host_reg(6);
    let edi = guest_host_reg(7);
    let mop = width_memop(size.bytes() as u8);

    // Temps: step, plus per-op extras.
    let extra = match op {
        StringOp::Scas => 3, // bval, am, tz
        StringOp::Movs | StringOp::Lods => 1,
        StringOp::Stos => 0,
    };
    let mut grabbed = [RReg(0); 4];
    let tmps = &mut grabbed[..1 + extra];
    alloc.grab(tmps)?;
    let step = tmps[extra];

    // step = DF ? -w : w.
    em.load_const(step, w as u32);
    em.emit(RInsn::Ext {
        rd: OUT0,
        rs: FLAGS_REG,
        pos: 10,
        len: 1,
    });
    let skip_neg = em.here();
    em.emit(RInsn::branch(
        BrCond::Eq,
        OUT0,
        RReg(0),
        BranchTarget::Local(0),
    )); // patched
    em.emit(RInsn::Alu {
        op: AluOp::Sub,
        rd: step,
        rs: RReg(0),
        rt: step,
    });
    let after_neg = em.here();
    em.patch(skip_neg, after_neg);

    // Scas keeps EAX masked once.
    let (bval, am, tz) = match op {
        StringOp::Scas => {
            let [bval, am, tz] = [tmps[0], tmps[1], tmps[2]];
            if size == Size::Dword {
                em.mov(am, eax);
            } else {
                em.emit(RInsn::AluI {
                    op: AluIOp::Andi,
                    rd: am,
                    rs: eax,
                    imm: size.mask() as i32,
                });
            }
            // Default "no compare ran": bval = am so post-loop flags would
            // be equal-compare; tz tracks whether any compare ran.
            em.mov(bval, am);
            em.emit(RInsn::AluI {
                op: AluIOp::Addi,
                rd: tz,
                rs: RReg(0),
                imm: 0,
            });
            (Some(bval), Some(am), Some(tz))
        }
        StringOp::Movs | StringOp::Lods => (Some(tmps[0]), None, None),
        StringOp::Stos => (None, None, None),
    };

    let loop_top = em.here();
    // The loop's exits: ECX exhausted, and the scas compare.
    let mut exit_branches = [None; 2];
    if rep != Rep::None {
        exit_branches[0] = Some(em.here());
        em.emit(RInsn::branch(
            BrCond::Eq,
            ecx,
            RReg(0),
            BranchTarget::Local(0),
        )); // patched to end
    }

    // Body.
    match op {
        StringOp::Movs => {
            let t = bval.expect("movs temp");
            em.emit(RInsn::Load {
                op: mop,
                rd: t,
                base: esi,
                off: 0,
            });
            em.emit(RInsn::Store {
                op: mop,
                src: t,
                base: edi,
                off: 0,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Add,
                rd: esi,
                rs: esi,
                rt: step,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Add,
                rd: edi,
                rs: edi,
                rt: step,
            });
        }
        StringOp::Stos => {
            em.emit(RInsn::Store {
                op: mop,
                src: eax,
                base: edi,
                off: 0,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Add,
                rd: edi,
                rs: edi,
                rt: step,
            });
        }
        StringOp::Lods => {
            let t = bval.expect("lods temp");
            em.emit(RInsn::Load {
                op: mop,
                rd: t,
                base: esi,
                off: 0,
            });
            if size == Size::Dword {
                em.mov(eax, t);
            } else {
                // Insert the low bits into EAX.
                em.emit(RInsn::Ins {
                    rd: eax,
                    rs: t,
                    pos: 0,
                    len: size.bits() as u8,
                });
            }
            em.emit(RInsn::Alu {
                op: AluOp::Add,
                rd: esi,
                rs: esi,
                rt: step,
            });
        }
        StringOp::Scas => {
            let b = bval.expect("scas bval");
            let z = tz.expect("scas tz");
            em.emit(RInsn::Load {
                op: mop,
                rd: b,
                base: edi,
                off: 0,
            });
            em.emit(RInsn::Alu {
                op: AluOp::Add,
                rd: edi,
                rs: edi,
                rt: step,
            });
            em.emit(RInsn::AluI {
                op: AluIOp::Addi,
                rd: z,
                rs: RReg(0),
                imm: 1,
            });
        }
    }

    if rep != Rep::None {
        em.emit(RInsn::AluI {
            op: AluIOp::Addi,
            rd: ecx,
            rs: ecx,
            imm: -1,
        });
        if op == StringOp::Scas {
            // Termination on ZF: repe stops when ZF clears (values differ),
            // repne stops when ZF sets (values equal).
            let s = OUT0;
            let a = am.expect("scas am");
            let b = bval.expect("scas bval");
            em.emit(RInsn::Alu {
                op: AluOp::Xor,
                rd: s,
                rs: a,
                rt: b,
            });
            let cond = match rep {
                Rep::Rep => BrCond::Ne,   // repe: exit when a != b
                Rep::Repne => BrCond::Eq, // repne: exit when a == b
                Rep::None => unreachable!(),
            };
            exit_branches[1] = Some(em.here());
            em.emit(RInsn::branch(cond, s, RReg(0), BranchTarget::Local(0)));
        }
        em.emit(RInsn::jump(BranchTarget::Local(loop_top)));
    }

    let end = em.here();
    for at in exit_branches.into_iter().flatten() {
        em.patch(at, end);
    }

    // Scas: materialize the sub flags from the last comparison.
    if op == StringOp::Scas {
        let a = am.expect("scas am");
        let b = bval.expect("scas bval");
        let z = tz.expect("scas tz");
        let skip = em.here();
        em.emit(RInsn::branch(
            BrCond::Eq,
            z,
            RReg(0),
            BranchTarget::Local(0),
        )); // patched
            // res = (a - b) masked, in scratch[2].
        let resr = SCRATCH[2];
        em.emit(RInsn::Alu {
            op: AluOp::Sub,
            rd: resr,
            rs: a,
            rt: b,
        });
        if size != Size::Dword {
            em.emit(RInsn::AluI {
                op: AluIOp::Andi,
                rd: resr,
                rs: resr,
                imm: size.mask() as i32,
            });
        }
        for flag in Flag::ALL {
            emit_flag_dynamic(
                em,
                flag,
                FlagKind::Sub,
                size,
                HostVal::Reg(a),
                HostVal::Reg(b),
                HostVal::Reg(resr),
                None,
            );
        }
        let after = em.here();
        em.patch(skip, after);
    }

    // Return the grabbed registers.
    alloc.release([tz, bval, am, Some(step)].into_iter().flatten());
    Ok(())
}

fn emit_term(em: &mut Emitter, alloc: &mut Alloc, term: Term) {
    match term {
        Term::Goto(t) => em.emit(RInsn::jump(BranchTarget::Guest(t))),
        Term::CondGoto { cond, taken, fall } => {
            emit_eval_cond(em, SCRATCH[2], cond);
            em.emit(RInsn::branch(
                BrCond::Ne,
                SCRATCH[2],
                RReg(0),
                BranchTarget::Guest(taken),
            ));
            em.emit(RInsn::jump(BranchTarget::Guest(fall)));
        }
        Term::Indirect(r) => {
            let rr = alloc.read(r);
            em.emit(RInsn::Dispatch { rs: rr });
        }
        Term::Sys(next) => {
            em.load_const(SYS_RESUME_REG, next);
            em.emit(RInsn::Sys);
        }
        Term::Trap(cause) => em.emit(RInsn::trap(cause)),
        Term::Halt => em.emit(RInsn::Hlt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::lower_block;
    use vta_x86::decode::SliceSource;
    use vta_x86::{Asm, Reg::*};

    /// The host code the translator makes of one block at `Full`.
    fn gen(f: impl FnOnce(&mut Asm)) -> Vec<RInsn> {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let mut b = lower_block(&src, p.base, OptLevel::Full).unwrap();
        crate::opt::valueprop::propagate(&mut b, &mut Default::default());
        let mut cx = Context::default();
        codegen(&b, OptLevel::Full, &mut cx).expect("codegen");
        cx.code().to_vec()
    }

    /// `insns` ending in `term`, planned as at `Full`.
    fn planned(insns: Vec<MInsn>, term: Term) -> (MBlock, Alloc) {
        let b = MBlock {
            insns,
            term,
            next_temp: 64,
            reads: Vec::new(),
        };
        let mut alloc = Alloc::default();
        alloc.plan(&b, true);
        (b, alloc)
    }

    /// The body instructions codegen emits at `Full`.
    fn kept(insns: Vec<MInsn>, term: Term) -> Vec<MInsn> {
        let (b, alloc) = planned(insns, term);
        let live = b.insns.iter().zip(&alloc.dead).filter(|(_, &dead)| !dead);
        live.map(|(insn, _)| *insn).collect()
    }

    #[test]
    fn removes_unused_temp() {
        let kept = kept(
            vec![
                MInsn::Bin {
                    op: BinOp::Add,
                    dst: VReg(9),
                    a: Val::Reg(VReg(0)),
                    b: Val::Const(1),
                }, // dead
                MInsn::Mov {
                    dst: VReg(0),
                    src: Val::Const(3),
                },
            ],
            Term::Halt,
        );
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn keeps_chain_feeding_guest_state() {
        let kept = kept(
            vec![
                MInsn::Bin {
                    op: BinOp::Add,
                    dst: VReg(9),
                    a: Val::Reg(VReg(0)),
                    b: Val::Const(1),
                },
                MInsn::Mov {
                    dst: VReg(1),
                    src: Val::Reg(VReg(9)),
                },
            ],
            Term::Halt,
        );
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn keeps_dead_loads_for_faults() {
        let kept = kept(
            vec![MInsn::Load {
                dst: VReg(9),
                base: Val::Const(0x1234),
                off: 0,
                width: 4,
            }],
            Term::Halt,
        );
        assert_eq!(kept.len(), 1, "dead loads still fault");
    }

    #[test]
    fn indirect_target_is_live() {
        let kept = kept(
            vec![MInsn::Bin {
                op: BinOp::Add,
                dst: VReg(12),
                a: Val::Reg(VReg(4)),
                b: Val::Const(4),
            }],
            Term::Indirect(VReg(12)),
        );
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn dead_mov_of_overwritten_guest_reg() {
        let kept = kept(
            vec![
                MInsn::Mov {
                    dst: VReg(0),
                    src: Val::Const(1),
                }, // dead: overwritten
                MInsn::Mov {
                    dst: VReg(0),
                    src: Val::Const(2),
                },
            ],
            Term::Halt,
        );
        assert_eq!(
            kept,
            [MInsn::Mov {
                dst: VReg(0),
                src: Val::Const(2)
            }]
        );
    }

    #[test]
    fn an_unread_temp_expires_at_its_definition() {
        // The load stays (it can fault) though nothing reads t9: its
        // register is freed right after it, at index 1.
        let (_, alloc) = planned(
            vec![
                MInsn::Mov {
                    dst: VReg(0),
                    src: Val::Const(1),
                },
                MInsn::Load {
                    dst: VReg(9),
                    base: Val::Reg(VReg(0)),
                    off: 0,
                    width: 4,
                },
                MInsn::Mov {
                    dst: VReg(1),
                    src: Val::Const(2),
                },
            ],
            Term::Halt,
        );
        assert_eq!(alloc.last_use[9], 1);
        assert_eq!(alloc.expiry_head[1], 9);
    }

    #[test]
    fn ends_in_terminator() {
        let code = gen(|a| {
            a.mov_ri(EAX, 42);
            a.hlt();
        });
        assert_eq!(*code.last().unwrap(), RInsn::Hlt);
    }

    #[test]
    fn direct_jump_is_chainable_exit() {
        let code = gen(|a| {
            let l = a.label();
            a.jmp(l);
            a.bind(l);
        });
        assert!(matches!(code.last(), Some(RInsn::JumpGuest { .. })));
    }

    #[test]
    fn cond_branch_is_extract_plus_branch() {
        // The block: cmp eax, ebx; je → after optimization only ZF remains,
        // and the exit is ext + bne + j, matching the paper's
        // "two instructions per conditional branch" analysis.
        let code = gen(|a| {
            a.cmp_rr(EAX, EBX);
            let t = a.label();
            a.jcc(vta_x86::Cond::E, t);
            a.bind(t);
            a.and_rr(EAX, EAX);
            a.hlt();
        });
        let n = code.len();
        assert!(matches!(code[n - 3], RInsn::Ext { .. }), "{:?}", code);
        assert!(matches!(code[n - 2], RInsn::BranchGuest { .. }));
        assert!(matches!(code[n - 1], RInsn::JumpGuest { .. }));
    }

    #[test]
    fn sys_sets_resume_register() {
        let code = gen(|a| {
            a.int_(0x80);
        });
        assert_eq!(*code.last().unwrap(), RInsn::Sys);
        // The resume constant must be loaded into r26 beforehand.
        assert!(code.iter().any(|i| matches!(
            i,
            RInsn::AluI { rd, .. } | RInsn::Lui { rd, .. } if *rd == SYS_RESUME_REG
        )));
    }

    #[test]
    fn guest_regs_map_to_r1_r8() {
        let code = gen(|a| {
            a.mov_rr(EAX, EBX); // r1 = r4
            a.hlt();
        });
        assert!(code.contains(&RInsn::Alu {
            op: AluOp::Or,
            rd: RReg(1),
            rs: RReg(4),
            rt: RReg(0),
        }));
    }

    #[test]
    fn small_consts_use_addi() {
        let code = gen(|a| {
            a.mov_ri(EAX, 5);
            a.hlt();
        });
        assert!(code.contains(&RInsn::AluI {
            op: AluIOp::Addi,
            rd: RReg(1),
            rs: RReg(0),
            imm: 5,
        }));
    }

    #[test]
    fn large_consts_use_lui_ori() {
        let code = gen(|a| {
            a.mov_ri(EAX, 0xDEAD_BEEF);
            a.hlt();
        });
        assert!(code.iter().any(|i| matches!(i, RInsn::Lui { .. })));
    }

    #[test]
    fn rep_movs_emits_loop() {
        let code = gen(|a| {
            a.rep_movs(Size::Dword);
            a.hlt();
        });
        // Needs at least one local backward jump.
        assert!(code.iter().any(|i| matches!(i, RInsn::JumpLocal { .. })));
        assert!(code.iter().any(|i| matches!(i, RInsn::Load { .. })));
        assert!(code.iter().any(|i| matches!(i, RInsn::Store { .. })));
    }

    #[test]
    fn div_moves_divisor_to_scratch() {
        let code = gen(|a| {
            a.div_r(ECX);
            a.hlt();
        });
        let helper_pos = code
            .iter()
            .position(|i| {
                matches!(
                    i,
                    RInsn::Helper {
                        kind: HelperKind::Div { .. }
                    }
                )
            })
            .expect("has helper");
        assert!(helper_pos > 0);
    }

    #[test]
    fn flag_dead_block_has_no_ins() {
        // All flags die: no `ins` into r9 should remain.
        let code = gen(|a| {
            a.add_rr(EAX, EBX);
            let l = a.label();
            a.jmp(l);
            a.bind(l);
            a.and_rr(ECX, ECX);
            a.hlt();
        });
        // The add itself must remain but no flag insertion for it. The
        // final and's flags are also dead (halt).
        assert!(
            !code
                .iter()
                .any(|i| matches!(i, RInsn::Ins { rd, .. } if *rd == FLAGS_REG)),
            "{code:?}"
        );
    }
}
