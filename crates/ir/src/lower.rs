//! Lowering decoded IA-32 instructions to the mid-level IR.
//!
//! One member basic block at a time, from the instructions the translator
//! decoded and the flags `opt::flags::live_after` found live after each.
//! Lowering emits only what a reader can see: a per-flag
//! [`MInsn::FlagDef`] for each flag an instruction writes that is live
//! after it, and for a shift either the flag-exact [`MInsn::ShiftFx`]
//! (some flag live) or value-only code (none).

use vta_x86::{Cond, Insn, MemRef, Op, Operand, Reg, Size};

use vta_raw::isa::TrapCause;

use crate::mir::{
    BinOp, Flag, FlagKind, FlagSet, MBlock, MInsn, ShiftKind, StringOp, Term, VReg, Val,
};

/// Default cap on guest instructions per translated block.
pub const MAX_BLOCK_INSNS: u32 = 32;

struct Ctx<'a> {
    insns: &'a mut Vec<MInsn>,
    next_temp: u32,
    /// The flags live after the instruction being lowered.
    live: FlagSet,
}

impl Ctx<'_> {
    fn temp(&mut self) -> VReg {
        let r = VReg(self.next_temp);
        self.next_temp += 1;
        r
    }

    fn emit(&mut self, i: MInsn) {
        self.insns.push(i);
    }

    fn bin(&mut self, op: BinOp, a: Val, b: Val) -> VReg {
        let dst = self.temp();
        self.emit(MInsn::Bin { op, dst, a, b });
        dst
    }

    /// Masks `v` to `size`, returning a value known to fit the width.
    fn mask_to(&mut self, v: Val, size: Size) -> Val {
        if size == Size::Dword {
            return v;
        }
        if let Val::Const(c) = v {
            return Val::Const(c & size.mask());
        }
        Val::Reg(self.bin(BinOp::And, v, Val::Const(size.mask())))
    }

    /// Sign-extends a `size`-masked value to 32 bits.
    fn sext_from(&mut self, v: Val, size: Size) -> Val {
        if size == Size::Dword {
            return v;
        }
        if let Val::Const(c) = v {
            return Val::Const(size.sign_extend(c & size.mask()));
        }
        let sh = 32 - size.bits();
        let t = self.bin(BinOp::Shl, v, Val::Const(sh));
        Val::Reg(self.bin(BinOp::Sar, Val::Reg(t), Val::Const(sh)))
    }

    /// Reads a guest register at a width; the result is size-masked.
    fn read_reg(&mut self, r: Reg, size: Size) -> Val {
        let n = r.num();
        match size {
            Size::Dword => Val::Reg(VReg(n as u32)),
            Size::Word => {
                let g = Val::Reg(VReg(n as u32));
                self.mask_to(g, Size::Word)
            }
            Size::Byte => {
                if n < 4 {
                    let g = Val::Reg(VReg(n as u32));
                    self.mask_to(g, Size::Byte)
                } else {
                    // High byte of EAX..EBX.
                    let g = Val::Reg(VReg((n - 4) as u32));
                    let sh = self.bin(BinOp::Shr, g, Val::Const(8));
                    self.mask_to(Val::Reg(sh), Size::Byte)
                }
            }
        }
    }

    /// Writes a guest register at a width, preserving the other bits.
    fn write_reg(&mut self, r: Reg, size: Size, v: Val) {
        let n = r.num();
        match size {
            Size::Dword => self.emit(MInsn::Mov {
                dst: VReg(n as u32),
                src: v,
            }),
            Size::Word => {
                let g = VReg(n as u32);
                let kept = self.bin(BinOp::And, Val::Reg(g), Val::Const(0xFFFF_0000));
                let low = self.mask_to(v, Size::Word);
                let merged = self.bin(BinOp::Or, Val::Reg(kept), low);
                self.emit(MInsn::Mov {
                    dst: g,
                    src: Val::Reg(merged),
                });
            }
            Size::Byte => {
                let (g, shift, keep_mask) = if n < 4 {
                    (VReg(n as u32), 0u32, !0xFFu32)
                } else {
                    (VReg((n - 4) as u32), 8u32, !0xFF00u32)
                };
                let kept = self.bin(BinOp::And, Val::Reg(g), Val::Const(keep_mask));
                let low = self.mask_to(v, Size::Byte);
                let placed = if shift == 0 {
                    low
                } else {
                    Val::Reg(self.bin(BinOp::Shl, low, Val::Const(shift)))
                };
                let merged = self.bin(BinOp::Or, Val::Reg(kept), placed);
                self.emit(MInsn::Mov {
                    dst: g,
                    src: Val::Reg(merged),
                });
            }
        }
    }

    /// Computes a memory operand's address as `(base value, offset)`.
    fn addr_parts(&mut self, m: MemRef) -> (Val, i32) {
        match (m.base, m.index) {
            (None, None) => (Val::Const(0), m.disp),
            (Some(b), None) => (Val::Reg(VReg(b.num() as u32)), m.disp),
            (base, Some((idx, scale))) => {
                let idx_v = Val::Reg(VReg(idx.num() as u32));
                let scaled = if scale == 1 {
                    idx_v
                } else {
                    Val::Reg(self.bin(BinOp::Shl, idx_v, Val::Const(scale.trailing_zeros())))
                };
                let sum = match base {
                    Some(b) => {
                        Val::Reg(self.bin(BinOp::Add, Val::Reg(VReg(b.num() as u32)), scaled))
                    }
                    None => scaled,
                };
                (sum, m.disp)
            }
        }
    }

    /// The full effective address as a single value.
    fn addr_value(&mut self, m: MemRef) -> Val {
        let (base, off) = self.addr_parts(m);
        if off == 0 {
            base
        } else if let Val::Const(c) = base {
            Val::Const(c.wrapping_add(off as u32))
        } else {
            Val::Reg(self.bin(BinOp::Add, base, Val::Const(off as u32)))
        }
    }

    /// Reads any operand at a width; result is size-masked.
    fn read_operand(&mut self, op: Operand, size: Size) -> Val {
        match op {
            Operand::Reg(r) => self.read_reg(r, size),
            Operand::Imm(i) => Val::Const(i as u32 & size.mask()),
            Operand::Mem(m) => {
                let (base, off) = self.addr_parts(m);
                let dst = self.temp();
                self.emit(MInsn::Load {
                    dst,
                    base,
                    off,
                    width: size.bytes() as u8,
                });
                Val::Reg(dst)
            }
            Operand::Target(t) => Val::Const(t),
        }
    }

    /// Writes a size-masked value to a register or memory operand.
    fn write_operand(&mut self, op: Operand, size: Size, v: Val) {
        match op {
            Operand::Reg(r) => self.write_reg(r, size, v),
            Operand::Mem(m) => {
                let (base, off) = self.addr_parts(m);
                self.emit(MInsn::Store {
                    src: v,
                    base,
                    off,
                    width: size.bytes() as u8,
                });
            }
            other => panic!("write to non-lvalue operand {other:?}"),
        }
    }

    fn push(&mut self, v: Val) {
        let esp = VReg::guest(Reg::ESP);
        let new = self.bin(BinOp::Sub, Val::Reg(esp), Val::Const(4));
        self.emit(MInsn::Mov {
            dst: esp,
            src: Val::Reg(new),
        });
        self.emit(MInsn::Store {
            src: v,
            base: Val::Reg(esp),
            off: 0,
            width: 4,
        });
    }

    fn pop(&mut self) -> VReg {
        let esp = VReg::guest(Reg::ESP);
        let t = self.temp();
        self.emit(MInsn::Load {
            dst: t,
            base: Val::Reg(esp),
            off: 0,
            width: 4,
        });
        let new = self.bin(BinOp::Add, Val::Reg(esp), Val::Const(4));
        self.emit(MInsn::Mov {
            dst: esp,
            src: Val::Reg(new),
        });
        t
    }

    /// Emits a `FlagDef` for each flag live after the instruction.
    fn flags_all(
        &mut self,
        kind: FlagKind,
        size: Size,
        a: Val,
        b: Val,
        res: Val,
        cin: Option<Val>,
    ) {
        for flag in self.live.iter() {
            self.emit(MInsn::FlagDef {
                flag,
                kind,
                size,
                a,
                b,
                res,
                cin,
            });
        }
    }

    /// Emits a `FlagDef` for each flag but CF live after the instruction
    /// (`inc`/`dec`).
    fn flags_no_cf(&mut self, kind: FlagKind, size: Size, a: Val, b: Val, res: Val) {
        for flag in self.live.minus(Flag::Cf.set()).iter() {
            self.emit(MInsn::FlagDef {
                flag,
                kind,
                size,
                a,
                b,
                res,
                cin: None,
            });
        }
    }

    /// Value-only shift code for a shift no reader can see the flags of:
    /// the shifted value of the size-masked `a`, itself size-masked.
    fn value_shift(&mut self, op: ShiftKind, size: Size, a: Val, count: Val) -> Val {
        // Mask the count to 5 bits (x86 semantics).
        let c = match count {
            Val::Const(k) => Val::Const(k & 31),
            Val::Reg(_) => Val::Reg(self.bin(BinOp::And, count, Val::Const(31))),
        };
        match op {
            ShiftKind::Shl => {
                // Masked operand shifted within 32 bits then re-masked
                // covers every count 0..=31 (counts >= width zero the
                // field).
                let v = Val::Reg(self.bin(BinOp::Shl, a, c));
                self.mask_to(v, size)
            }
            // Operand is size-masked, so a 32-bit logical shift is exact.
            ShiftKind::Shr => Val::Reg(self.bin(BinOp::Shr, a, c)),
            ShiftKind::Sar => {
                // Sign-extend to 32 bits, arithmetic shift, re-mask.
                let v = self.sext_from(a, size);
                let v = Val::Reg(self.bin(BinOp::Sar, v, c));
                self.mask_to(v, size)
            }
            ShiftKind::Rol | ShiftKind::Ror => {
                // Rotate within the operand width: count mod width.
                let bits = size.bits();
                let cm = if bits == 32 {
                    c
                } else {
                    Val::Reg(self.bin(BinOp::And, c, Val::Const(bits - 1)))
                };
                // other = width - count (mod 32 shifts make width-0 ==
                // a>>0|a<<0).
                let other = Val::Reg(self.bin(BinOp::Sub, Val::Const(bits), cm));
                let (lo_op, hi_op) = match op {
                    ShiftKind::Rol => (BinOp::Shl, BinOp::Shr),
                    _ => (BinOp::Shr, BinOp::Shl),
                };
                let p1 = Val::Reg(self.bin(lo_op, a, cm));
                let p2 = Val::Reg(self.bin(hi_op, a, other));
                let v = Val::Reg(self.bin(BinOp::Or, p1, p2));
                self.mask_to(v, size)
            }
        }
    }

    /// Reads the current CF as a 0/1 value.
    fn carry_in(&mut self) -> Val {
        let t = self.temp();
        self.emit(MInsn::EvalCond {
            dst: t,
            cond: Cond::B,
        });
        Val::Reg(t)
    }
}

/// How a member whose last decoded instruction is `insn` ends: the
/// transfer `insn` makes, or straight on to the next address when the
/// instruction cap cut the member there. The register an indirect
/// transfer's target is in is named when the member is lowered
/// ([`lower_member`]); until then it is [`VReg::FLAGS`].
pub(crate) fn term_of(insn: &Insn) -> Term {
    match insn.op {
        Op::Jmp | Op::Call => Term::Goto(insn.target().expect("direct target")),
        Op::Jcc => Term::CondGoto {
            cond: insn.cond.unwrap(),
            taken: insn.target().expect("jcc target"),
            fall: insn.next_addr(),
        },
        Op::JmpInd | Op::CallInd | Op::Ret => Term::Indirect(VReg::FLAGS),
        Op::Int => {
            let vector = match insn.src {
                Some(Operand::Imm(v)) => v as u8,
                _ => 0,
            };
            if vector == 0x80 {
                Term::Sys(insn.next_addr())
            } else {
                // Unsupported interrupt vectors fault, exactly as the
                // reference interpreter's `CpuError::BadInterrupt` does.
                Term::Trap(TrapCause::BadInterrupt { vector })
            }
        }
        Op::Hlt => Term::Halt,
        _ => Term::Goto(insn.next_addr()),
    }
}

/// Lowers the member basic block `insns`, which ends in `term` (as
/// decoded), onto the end of `block`: its body is appended to
/// `block.insns` and its temporaries continue from `block.next_temp`.
/// `live` holds the flags live after each instruction, last instruction
/// first. Returns `term` with an indirect target's register named.
pub(crate) fn lower_member(
    insns: &[Insn],
    live: &[FlagSet],
    term: Term,
    block: &mut MBlock,
) -> Term {
    let mut ctx = Ctx {
        insns: &mut block.insns,
        next_temp: block.next_temp,
        live: FlagSet::EMPTY,
    };
    let mut term = term;
    for (insn, &live) in insns.iter().zip(live.iter().rev()) {
        ctx.live = live;
        if let Some(target) = lower_insn(&mut ctx, insn) {
            term = Term::Indirect(target);
        }
    }
    block.next_temp = ctx.next_temp;
    term
}

/// Lowers one instruction; returns the register an indirect transfer's
/// target is in. A transfer's own effects (the pushed return address, the
/// popped one) are lowered here; where it goes is [`term_of`]'s.
fn lower_insn(ctx: &mut Ctx<'_>, insn: &Insn) -> Option<VReg> {
    let size = insn.size;
    match insn.op {
        Op::Nop => {}
        Op::Mov => {
            let v = ctx.read_operand(insn.src.unwrap(), size);
            ctx.write_operand(insn.dst.unwrap(), size, v);
        }
        Op::Movzx => {
            let ss = insn.src_size.unwrap();
            let v = ctx.read_operand(insn.src.unwrap(), ss);
            ctx.write_operand(insn.dst.unwrap(), Size::Dword, v);
        }
        Op::Movsx => {
            let ss = insn.src_size.unwrap();
            let raw = ctx.read_operand(insn.src.unwrap(), ss);
            let v = ctx.sext_from(raw, ss);
            ctx.write_operand(insn.dst.unwrap(), Size::Dword, v);
        }
        Op::Lea => {
            let m = insn.src.unwrap().mem().expect("lea needs memory src");
            let v = ctx.addr_value(m);
            ctx.write_operand(insn.dst.unwrap(), Size::Dword, v);
        }
        Op::Xchg => {
            let (d, s) = (insn.dst.unwrap(), insn.src.unwrap());
            let dv = ctx.read_operand(d, size);
            let sv = ctx.read_operand(s, size);
            // For a plain register operand, `dv` is the guest register's
            // vreg itself, not a snapshot — copy it to a temp before the
            // first write clobbers it (found by differential fuzzing).
            let t = ctx.temp();
            ctx.emit(MInsn::Mov { dst: t, src: dv });
            ctx.write_operand(d, size, sv);
            ctx.write_operand(s, size, Val::Reg(t));
        }
        Op::Push => {
            let v = ctx.read_operand(insn.dst.unwrap(), Size::Dword);
            // `push esp` pushes the value from *before* the decrement,
            // but for a register operand `v` is the live ESP vreg itself
            // — snapshot it ahead of `push`'s ESP update (found by
            // differential fuzzing).
            let v = if v == Val::Reg(VReg::guest(Reg::ESP)) {
                let t = ctx.temp();
                ctx.emit(MInsn::Mov { dst: t, src: v });
                Val::Reg(t)
            } else {
                v
            };
            ctx.push(v);
        }
        Op::Pop => {
            let v = ctx.pop();
            ctx.write_operand(insn.dst.unwrap(), Size::Dword, Val::Reg(v));
        }
        Op::Add | Op::Adc | Op::Sub | Op::Sbb | Op::Cmp => {
            let d = insn.dst.unwrap();
            let a = ctx.read_operand(d, size);
            let b = ctx.read_operand(insn.src.unwrap(), size);
            let (kind, cin) = match insn.op {
                Op::Add => (FlagKind::Add, None),
                Op::Adc => (FlagKind::Adc, Some(ctx.carry_in())),
                Op::Sub | Op::Cmp => (FlagKind::Sub, None),
                Op::Sbb => (FlagKind::Sbb, Some(ctx.carry_in())),
                _ => unreachable!(),
            };
            let mut res = match insn.op {
                Op::Add | Op::Adc => Val::Reg(ctx.bin(BinOp::Add, a, b)),
                _ => Val::Reg(ctx.bin(BinOp::Sub, a, b)),
            };
            if let Some(c) = cin {
                let op = if insn.op == Op::Adc {
                    BinOp::Add
                } else {
                    BinOp::Sub
                };
                res = Val::Reg(ctx.bin(op, res, c));
            }
            let res = ctx.mask_to(res, size);
            ctx.flags_all(kind, size, a, b, res, cin);
            if insn.op != Op::Cmp {
                ctx.write_operand(d, size, res);
            }
        }
        Op::And | Op::Or | Op::Xor | Op::Test => {
            let d = insn.dst.unwrap();
            let a = ctx.read_operand(d, size);
            let b = ctx.read_operand(insn.src.unwrap(), size);
            let op = match insn.op {
                Op::And | Op::Test => BinOp::And,
                Op::Or => BinOp::Or,
                Op::Xor => BinOp::Xor,
                _ => unreachable!(),
            };
            // Operands are masked, so the result already fits the width.
            let res = Val::Reg(ctx.bin(op, a, b));
            ctx.flags_all(FlagKind::Logic, size, a, b, res, None);
            if insn.op != Op::Test {
                ctx.write_operand(d, size, res);
            }
        }
        Op::Inc | Op::Dec => {
            let d = insn.dst.unwrap();
            let a = ctx.read_operand(d, size);
            let (op, kind) = if insn.op == Op::Inc {
                (BinOp::Add, FlagKind::Add)
            } else {
                (BinOp::Sub, FlagKind::Sub)
            };
            let res = Val::Reg(ctx.bin(op, a, Val::Const(1)));
            let res = ctx.mask_to(res, size);
            ctx.flags_no_cf(kind, size, a, Val::Const(1), res);
            ctx.write_operand(d, size, res);
        }
        Op::Neg => {
            let d = insn.dst.unwrap();
            let a = ctx.read_operand(d, size);
            let res = Val::Reg(ctx.bin(BinOp::Sub, Val::Const(0), a));
            let res = ctx.mask_to(res, size);
            ctx.flags_all(FlagKind::Sub, size, Val::Const(0), a, res, None);
            ctx.write_operand(d, size, res);
        }
        Op::Not => {
            let d = insn.dst.unwrap();
            let a = ctx.read_operand(d, size);
            let res = Val::Reg(ctx.bin(BinOp::Xor, a, Val::Const(size.mask())));
            ctx.write_operand(d, size, res);
        }
        Op::Mul | Op::Imul => {
            let signed = insn.op == Op::Imul;
            let a = ctx.read_reg(Reg::EAX, size);
            let b = ctx.read_operand(insn.src.unwrap(), size);
            let (lo, hi) = widening_mul(ctx, signed, size, a, b);
            match size {
                Size::Byte => {
                    // AX = AL * r/m8.
                    let hi_shift = ctx.bin(BinOp::Shl, hi, Val::Const(8));
                    let ax = ctx.bin(BinOp::Or, Val::Reg(hi_shift), lo);
                    ctx.write_reg(Reg::EAX, Size::Word, Val::Reg(ax));
                }
                _ => {
                    ctx.write_reg(Reg::EAX, size, lo);
                    ctx.write_reg(Reg::EDX, size, hi);
                }
            }
            let kind = if signed {
                FlagKind::MulS
            } else {
                FlagKind::MulU
            };
            ctx.flags_all(kind, size, lo, hi, lo, None);
        }
        Op::ImulR => {
            let (a, b) = match insn.src2 {
                Some(Operand::Imm(i)) => (
                    ctx.read_operand(insn.src.unwrap(), size),
                    Val::Const(i as u32 & size.mask()),
                ),
                _ => (
                    ctx.read_operand(insn.dst.unwrap(), size),
                    ctx.read_operand(insn.src.unwrap(), size),
                ),
            };
            let (lo, hi) = widening_mul(ctx, true, size, a, b);
            ctx.flags_all(FlagKind::MulS, size, lo, hi, lo, None);
            ctx.write_operand(insn.dst.unwrap(), size, lo);
        }
        Op::Div | Op::Idiv => {
            let divisor = ctx.read_operand(insn.src.unwrap(), size);
            ctx.emit(MInsn::DivHelper {
                signed: insn.op == Op::Idiv,
                size,
                divisor,
            });
        }
        Op::Rol | Op::Ror | Op::Shl | Op::Shr | Op::Sar => {
            let d = insn.dst.unwrap();
            let a = ctx.read_operand(d, size);
            let count = match insn.src.unwrap() {
                Operand::Imm(i) => Val::Const(i as u32 & 31),
                Operand::Reg(_) => ctx.read_reg(Reg::ECX, Size::Byte),
                other => panic!("bad shift count operand {other:?}"),
            };
            let op = match insn.op {
                Op::Rol => ShiftKind::Rol,
                Op::Ror => ShiftKind::Ror,
                Op::Shl => ShiftKind::Shl,
                Op::Shr => ShiftKind::Shr,
                Op::Sar => ShiftKind::Sar,
                _ => unreachable!(),
            };
            let dst = ctx.temp();
            if ctx.live.is_empty() {
                let v = ctx.value_shift(op, size, a, count);
                ctx.emit(MInsn::Mov { dst, src: v });
            } else {
                ctx.emit(MInsn::ShiftFx {
                    op,
                    size,
                    dst,
                    a,
                    count,
                });
            }
            ctx.write_operand(d, size, Val::Reg(dst));
        }
        Op::Cwde => {
            let v = ctx.read_reg(Reg::EAX, Size::Word);
            let s = ctx.sext_from(v, Size::Word);
            ctx.write_reg(Reg::EAX, Size::Dword, s);
        }
        Op::Cdq => {
            let s = ctx.bin(BinOp::Sar, Val::Reg(VReg::guest(Reg::EAX)), Val::Const(31));
            ctx.write_reg(Reg::EDX, Size::Dword, Val::Reg(s));
        }
        Op::Setcc => {
            let t = ctx.temp();
            ctx.emit(MInsn::EvalCond {
                dst: t,
                cond: insn.cond.unwrap(),
            });
            ctx.write_operand(insn.dst.unwrap(), Size::Byte, Val::Reg(t));
        }
        Op::Cmovcc => {
            let v = ctx.read_operand(insn.src.unwrap(), size);
            let cur = ctx.read_operand(insn.dst.unwrap(), size);
            let c = ctx.temp();
            ctx.emit(MInsn::EvalCond {
                dst: c,
                cond: insn.cond.unwrap(),
            });
            // Branchless select: res = cur ^ ((cur ^ v) & -c).
            let mask = ctx.bin(BinOp::Sub, Val::Const(0), Val::Reg(c));
            let diff = ctx.bin(BinOp::Xor, cur, v);
            let sel = ctx.bin(BinOp::And, Val::Reg(diff), Val::Reg(mask));
            let res = ctx.bin(BinOp::Xor, cur, Val::Reg(sel));
            ctx.write_operand(insn.dst.unwrap(), size, Val::Reg(res));
        }
        Op::Movs | Op::Stos | Op::Lods | Op::Scas => {
            let op = match insn.op {
                Op::Movs => StringOp::Movs,
                Op::Stos => StringOp::Stos,
                Op::Lods => StringOp::Lods,
                Op::Scas => StringOp::Scas,
                _ => unreachable!(),
            };
            ctx.emit(MInsn::RepString {
                op,
                size,
                rep: insn.rep,
            });
        }
        Op::Cld => ctx.emit(MInsn::SetDf(false)),
        Op::Std => ctx.emit(MInsn::SetDf(true)),
        // --- terminators ---------------------------------------------
        Op::Jmp | Op::Jcc | Op::Int | Op::Hlt => {}
        Op::Call => ctx.push(Val::Const(insn.next_addr())),
        Op::JmpInd => {
            let t = ctx.read_operand(insn.src.unwrap(), Size::Dword);
            return Some(to_reg(ctx, t));
        }
        Op::CallInd => {
            let t = ctx.read_operand(insn.src.unwrap(), Size::Dword);
            let r = to_reg(ctx, t);
            ctx.push(Val::Const(insn.next_addr()));
            return Some(r);
        }
        Op::Ret => {
            let t = ctx.pop();
            if let Some(Operand::Imm(n)) = insn.src {
                let esp = VReg::guest(Reg::ESP);
                let new = ctx.bin(BinOp::Add, Val::Reg(esp), Val::Const(n as u32));
                ctx.emit(MInsn::Mov {
                    dst: esp,
                    src: Val::Reg(new),
                });
            }
            return Some(t);
        }
    }
    None
}

/// Widening multiply of two size-masked values; returns `(lo, hi)` masked.
fn widening_mul(ctx: &mut Ctx<'_>, signed: bool, size: Size, a: Val, b: Val) -> (Val, Val) {
    match size {
        Size::Dword => {
            let lo = ctx.bin(BinOp::Mul, a, b);
            let hi_op = if signed { BinOp::MulhS } else { BinOp::MulhU };
            let hi = ctx.bin(hi_op, a, b);
            (Val::Reg(lo), Val::Reg(hi))
        }
        _ => {
            // The full product fits in 32 bits for 8/16-bit operands.
            let (ea, eb) = if signed {
                (ctx.sext_from(a, size), ctx.sext_from(b, size))
            } else {
                (a, b)
            };
            let full = ctx.bin(BinOp::Mul, ea, eb);
            let lo = ctx.mask_to(Val::Reg(full), size);
            let hi_raw = ctx.bin(BinOp::Shr, Val::Reg(full), Val::Const(size.bits()));
            let hi = ctx.mask_to(Val::Reg(hi_raw), size);
            (lo, hi)
        }
    }
}

fn to_reg(ctx: &mut Ctx<'_>, v: Val) -> VReg {
    match v {
        Val::Reg(r) => r,
        Val::Const(c) => {
            let t = ctx.temp();
            ctx.emit(MInsn::Mov {
                dst: t,
                src: Val::Const(c),
            });
            t
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translate::lower_block;
    use crate::{translate_block, OptLevel};
    use vta_x86::decode::SliceSource;
    use vta_x86::{Asm, Reg::*};

    /// The block at the start of `f`'s code, lowered with every flag live
    /// wherever it exits.
    fn lower(f: impl FnOnce(&mut Asm)) -> MBlock {
        lower_counted(f).0
    }

    /// As [`lower`], with the guest instructions the block covers.
    fn lower_counted(f: impl FnOnce(&mut Asm)) -> (MBlock, u32) {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let b = lower_block(&src, p.base, OptLevel::None).expect("lowering");
        let covered = translate_block(&src, p.base, OptLevel::None).expect("translation");
        (b, covered.guest_insns)
    }

    #[test]
    fn simple_add_produces_flagdefs() {
        let (b, guest_insns) = lower_counted(|a| {
            a.add_rr(EAX, EBX);
            a.ret();
        });
        let flagdefs = b
            .insns
            .iter()
            .filter(|i| matches!(i, MInsn::FlagDef { .. }))
            .count();
        assert_eq!(flagdefs, 6, "all six flags live at an indirect exit");
        assert!(matches!(b.term, Term::Indirect(_)));
        assert_eq!(guest_insns, 2);
    }

    #[test]
    fn inc_omits_cf() {
        let b = lower(|a| {
            a.inc_r(ECX);
            a.ret();
        });
        assert!(!b
            .insns
            .iter()
            .any(|i| matches!(i, MInsn::FlagDef { flag: Flag::Cf, .. })));
        assert_eq!(
            b.insns
                .iter()
                .filter(|i| matches!(i, MInsn::FlagDef { .. }))
                .count(),
            5
        );
    }

    #[test]
    fn jcc_ends_block_with_condgoto() {
        let b = lower(|a| {
            a.cmp_ri(EAX, 5);
            let l = a.here();
            a.jcc(vta_x86::Cond::E, l);
        });
        match b.term {
            Term::CondGoto { cond, taken, fall } => {
                assert_eq!(cond, vta_x86::Cond::E);
                assert_eq!(taken, 0x1003, "cmp is 3 bytes");
                assert_eq!(fall, 0x1003 + 6);
            }
            other => panic!("unexpected term {other:?}"),
        }
    }

    #[test]
    fn call_pushes_return_address() {
        let b = lower(|a| {
            let l = a.label();
            a.call(l);
            a.bind(l);
        });
        // A push = sub esp + mov esp + store.
        assert!(b.insns.iter().any(|i| matches!(
            i,
            MInsn::Store {
                src: Val::Const(0x1005),
                width: 4,
                ..
            }
        )));
        assert_eq!(b.term, Term::Goto(0x1005));
    }

    #[test]
    fn block_caps_at_max_insns() {
        let (b, guest_insns) = lower_counted(|a| {
            for _ in 0..40 {
                a.nop();
            }
            a.ret();
        });
        assert_eq!(guest_insns, MAX_BLOCK_INSNS);
        assert_eq!(b.term, Term::Goto(0x1000 + MAX_BLOCK_INSNS));
    }

    #[test]
    fn int80_is_sys_terminator() {
        let b = lower(|a| {
            a.int_(0x80);
        });
        assert_eq!(b.term, Term::Sys(0x1002));
    }

    #[test]
    fn shifts_lower_to_shiftfx() {
        let b = lower(|a| {
            a.shl_ri(EAX, 3);
            a.ret();
        });
        assert!(b.insns.iter().any(|i| matches!(
            i,
            MInsn::ShiftFx {
                op: ShiftKind::Shl,
                ..
            }
        )));
    }

    #[test]
    fn div_lowers_to_helper() {
        let b = lower(|a| {
            a.div_r(ECX);
            a.ret();
        });
        assert!(b
            .insns
            .iter()
            .any(|i| matches!(i, MInsn::DivHelper { signed: false, .. })));
    }

    #[test]
    fn string_op_does_not_end_block() {
        let (b, guest_insns) = lower_counted(|a| {
            a.rep_movs(Size::Dword);
            a.mov_ri(EAX, 1);
            a.ret();
        });
        assert!(b.insns.iter().any(|i| matches!(
            i,
            MInsn::RepString {
                op: StringOp::Movs,
                ..
            }
        )));
        assert_eq!(guest_insns, 3);
    }

    #[test]
    fn adc_reads_carry() {
        let b = lower(|a| {
            a.adc_rr(EAX, EBX);
            a.ret();
        });
        assert!(b
            .insns
            .iter()
            .any(|i| matches!(i, MInsn::EvalCond { cond: Cond::B, .. })));
    }

    #[test]
    fn high_byte_write_preserves_surroundings() {
        // mov ah, imm → read-modify-write of EAX.
        let b = lower(|a| {
            a.mov_ri8(4, 0x55);
            a.ret();
        });
        // Must contain an And with the keep-mask !0xFF00.
        assert!(b.insns.iter().any(|i| matches!(
            i,
            MInsn::Bin { op: BinOp::And, b: Val::Const(c), .. } if *c == !0xFF00u32
        )));
    }
}
