//! Dead-flag elimination with interblock liveness.
//!
//! Almost every x86 ALU instruction writes all six arithmetic flags, but
//! almost no instruction reads them — eagerly materializing each flag into
//! the packed EFLAGS register would multiply the translated code size.
//! This pass removes [`MInsn::FlagDef`]s whose flag no reachable consumer
//! can observe.
//!
//! Liveness *across* block boundaries is computed by scanning forward in
//! the **guest** code from each statically-known successor: the translator
//! decodes ahead (it is about to translate those blocks speculatively
//! anyway) and observes which flags are read before being overwritten. At
//! indirect successors all flags are conservatively live.

use vta_x86::decode::{decode, CodeSource, MAX_INSN_LEN};
use vta_x86::{Op, Rep};

use crate::mir::{note_read, Flag, FlagSet, MBlock, MInsn, ShiftKind, StringOp, Term, Val};

/// Maximum guest instructions scanned per successor path.
pub const SCAN_DEPTH: u32 = 48;
/// Maximum branch-following recursion while scanning.
pub const SCAN_FANOUT: u32 = 4;

/// The pass's buffers, kept across blocks by a translator's context and
/// cleared at first use in each block.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    /// The scan memo: live-in flags per guest address scanned for this
    /// block. A scan visits a handful of addresses, so a linear search
    /// beats hashing.
    memo: Vec<(u32, FlagSet)>,
    /// Per body instruction: whether it survives.
    keep: Vec<bool>,
    /// Per body instruction: whether a `ShiftFx` must stay flag-exact.
    shift_flags: Vec<bool>,
    /// The rewritten body, before it is copied back.
    out: Vec<MInsn>,
}

/// Flags a decoded guest instruction reads.
fn guest_reads(op: Op, cond: Option<vta_x86::Cond>) -> FlagSet {
    match op {
        Op::Jcc | Op::Setcc | Op::Cmovcc => FlagSet::for_cond(cond.expect("cc op")),
        Op::Adc | Op::Sbb => Flag::Cf.set(),
        _ => FlagSet::EMPTY,
    }
}

/// Flags a decoded guest instruction unconditionally overwrites.
fn guest_kills(op: Op) -> FlagSet {
    match op {
        Op::Add
        | Op::Or
        | Op::Adc
        | Op::Sbb
        | Op::And
        | Op::Sub
        | Op::Xor
        | Op::Cmp
        | Op::Test
        | Op::Neg
        | Op::Mul
        | Op::Imul
        | Op::ImulR => FlagSet::ALL,
        Op::Inc | Op::Dec => FlagSet::ALL.minus(Flag::Cf.set()),
        // Shifts/rotates leave flags untouched when the masked count is
        // zero, so they cannot be counted on to kill anything.
        Op::Rol | Op::Ror | Op::Shl | Op::Shr | Op::Sar => FlagSet::EMPTY,
        // `scas` only compares when ECX != 0 under rep.
        Op::Scas => FlagSet::EMPTY,
        _ => FlagSet::EMPTY,
    }
}

/// Computes which flags are live on entry to guest address `addr`.
///
/// Scans forward from `addr`, following direct control flow up to
/// [`SCAN_DEPTH`] instructions and [`SCAN_FANOUT`] branch levels;
/// unresolved paths (indirect jumps, returns, decode failures) report all
/// flags live. The answer depends on every byte the scan decoded, so the
/// spans are noted in `reads` (see [`MBlock::reads`]); a failed decode
/// counts for the most it can have fetched.
fn live_in_at<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    memo: &mut Vec<(u32, FlagSet)>,
    reads: &mut Vec<(u32, u32)>,
) -> FlagSet {
    scan(src, addr, SCAN_DEPTH, SCAN_FANOUT, memo, reads)
}

fn scan<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    depth: u32,
    fanout: u32,
    memo: &mut Vec<(u32, FlagSet)>,
    reads: &mut Vec<(u32, u32)>,
) -> FlagSet {
    if let Some(&(_, cached)) = memo.iter().find(|&&(at, _)| at == addr) {
        return cached;
    }
    // Guard against scan cycles: assume all live while recursing into
    // ourselves (sound: over-approximation).
    let slot = memo.len();
    memo.push((addr, FlagSet::ALL));
    let result = scan_uncached(src, addr, depth, fanout, memo, reads);
    memo[slot].1 = result;
    result
}

fn scan_uncached<S: CodeSource + ?Sized>(
    src: &S,
    mut addr: u32,
    depth: u32,
    fanout: u32,
    memo: &mut Vec<(u32, FlagSet)>,
    reads: &mut Vec<(u32, u32)>,
) -> FlagSet {
    let mut live = FlagSet::EMPTY;
    let mut undetermined = FlagSet::ALL;

    for _ in 0..depth {
        let Ok(insn) = decode(src, addr) else {
            note_read(reads, addr, MAX_INSN_LEN);
            return live.union(undetermined);
        };
        note_read(reads, addr, u32::from(insn.len));
        live = live.union(guest_reads(insn.op, insn.cond).intersect(undetermined));
        undetermined = undetermined.minus(guest_kills(insn.op));
        if undetermined.is_empty() {
            return live;
        }
        match insn.op {
            Op::Jmp | Op::Call => {
                // Follow the direct edge (calls are followed into the
                // callee: the return path is beyond our horizon anyway).
                match insn.target() {
                    Some(t) => {
                        addr = t;
                        continue;
                    }
                    None => return live.union(undetermined),
                }
            }
            Op::Jcc => {
                if fanout == 0 {
                    return live.union(undetermined);
                }
                let taken = insn.target().expect("jcc target");
                let a = scan(src, taken, depth / 2, fanout - 1, memo, reads);
                let b = scan(src, insn.next_addr(), depth / 2, fanout - 1, memo, reads);
                return live.union(a.union(b).intersect(undetermined));
            }
            Op::JmpInd | Op::CallInd | Op::Ret | Op::Int | Op::Hlt => {
                // Unknown continuation (or syscall/exit): assume live,
                // except Hlt which ends the machine.
                if insn.op == Op::Hlt {
                    return live;
                }
                return live.union(undetermined);
            }
            _ => addr = insn.next_addr(),
        }
    }
    live.union(undetermined)
}

/// Removes dead `FlagDef`s from `block` and rewrites flag-dead
/// [`MInsn::ShiftFx`] instructions into plain value-only shift code,
/// using the interblock liveness scan for the block's live-out set.
pub(crate) fn eliminate_dead_flags<S: CodeSource + ?Sized>(
    block: &mut MBlock,
    src: &S,
    scratch: &mut Scratch,
) {
    let Scratch {
        memo,
        keep,
        shift_flags,
        out,
    } = scratch;
    memo.clear();
    let mut reads = std::mem::take(&mut block.reads);
    let mut live_at = |addr| live_in_at(src, addr, memo, &mut reads);
    // Live-out of the block.
    let live = match block.term {
        Term::Goto(t) => live_at(t),
        Term::CondGoto { cond, taken, fall } => FlagSet::for_cond(cond)
            .union(live_at(taken))
            .union(live_at(fall)),
        Term::Sys(next) => live_at(next),
        Term::Indirect(_) => FlagSet::ALL,
        // Trap and Halt both stop the machine: no flag is observable after.
        Term::Trap(_) | Term::Halt => FlagSet::EMPTY,
    };
    eliminate_with_liveout(block, live, &mut live_at, keep, shift_flags, out);
    block.reads = reads;
}

/// Intrablock-only variant: assumes every flag is live at the block exit
/// (plus the terminator's own reads). This is what `OptLevel::None`
/// uses — looking ahead into successors is itself an optimization.
pub(crate) fn eliminate_dead_flags_conservative(block: &mut MBlock, scratch: &mut Scratch) {
    let live = match block.term {
        Term::Trap(_) | Term::Halt => FlagSet::EMPTY,
        Term::CondGoto { cond, .. } => FlagSet::for_cond(cond).union(FlagSet::ALL),
        _ => FlagSet::ALL,
    };
    let Scratch {
        keep,
        shift_flags,
        out,
        ..
    } = scratch;
    eliminate_with_liveout(block, live, &mut |_| FlagSet::ALL, keep, shift_flags, out);
}

/// `exit_live(addr)` answers which flags are live on entry to the guest
/// address a mid-body region exit (side exit or boundary guard) leaves
/// for — the same interblock query the terminator live-out uses.
/// `keep`, `shift_flags` and `out` are scratch, where the rewritten body
/// is built before it is copied back: each buffer keeps one role, so
/// each grows only to the largest block it has held.
fn eliminate_with_liveout(
    block: &mut MBlock,
    mut live: FlagSet,
    exit_live: &mut dyn FnMut(u32) -> FlagSet,
    keep: &mut Vec<bool>,
    shift_flags: &mut Vec<bool>,
    out: &mut Vec<MInsn>,
) {
    // Backward pass over the body.
    keep.clear();
    keep.resize(block.insns.len(), true);
    shift_flags.clear();
    shift_flags.resize(block.insns.len(), false);
    for (i, insn) in block.insns.iter().enumerate().rev() {
        match insn {
            MInsn::FlagDef { flag, .. } => {
                if live.contains(*flag) {
                    live = live.minus(flag.set());
                } else {
                    keep[i] = false;
                }
            }
            MInsn::EvalCond { cond, .. } => {
                live = live.union(FlagSet::for_cond(*cond));
            }
            MInsn::ShiftFx { .. } => {
                // Writes flags only when the count is nonzero: does not
                // kill, but if any flag is live it must stay flag-exact.
                shift_flags[i] = !live.is_empty();
            }
            MInsn::RepString { op: StringOp::Scas, rep, .. }
                // A non-rep scas always writes all flags.
                if *rep == Rep::None => {
                    live = FlagSet::EMPTY;
                }
            // A taken side exit leaves the region: its condition's flags
            // plus whatever `target`'s code reads are live here.
            MInsn::SideExit { cond, target } => {
                live = live
                    .union(FlagSet::for_cond(*cond))
                    .union(exit_live(*target));
            }
            // A fired boundary guard resumes (via a fresh translation) at
            // the next member's address.
            MInsn::Boundary { resume } => {
                live = live.union(exit_live(*resume));
            }
            // A mismatching indirect guard leaves through the dispatcher
            // at a computed address: the continuation is unknowable, so
            // every flag is live here.
            MInsn::IndirectGuard { .. } => {
                live = FlagSet::ALL;
            }
            _ => {}
        }
    }

    // Rewrite flag-dead ShiftFx into pure value computation.
    out.clear();
    for (i, insn) in block.insns.iter().enumerate() {
        if !keep[i] {
            continue;
        }
        match *insn {
            MInsn::ShiftFx {
                op,
                size,
                dst,
                a,
                count,
            } if !shift_flags[i] => {
                block.next_temp = lower_value_shift(block.next_temp, out, op, size, dst, a, count);
            }
            other => out.push(other),
        }
    }
    block.insns.clear();
    block.insns.extend_from_slice(out);
}

/// Emits value-only shift code; returns the updated temp counter.
fn lower_value_shift(
    mut next_temp: u32,
    out: &mut Vec<MInsn>,
    op: ShiftKind,
    size: vta_x86::Size,
    dst: crate::mir::VReg,
    a: Val,
    count: Val,
) -> u32 {
    use crate::mir::{BinOp, VReg};
    let mut temp = || {
        let r = VReg(next_temp);
        next_temp += 1;
        r
    };
    let bin = |out: &mut Vec<MInsn>, op, a, b, dst| {
        out.push(MInsn::Bin { op, dst, a, b });
        Val::Reg(dst)
    };
    let bits = size.bits();

    // Mask the count to 5 bits (x86 semantics).
    let c = match count {
        Val::Const(k) => Val::Const(k & 31),
        Val::Reg(_) => {
            let t = temp();
            bin(out, BinOp::And, count, Val::Const(31), t)
        }
    };

    match op {
        ShiftKind::Shl => {
            // Masked operand shifted within 32 bits then re-masked covers
            // every count 0..=31 (counts >= width zero the field).
            let t = temp();
            let v = bin(out, BinOp::Shl, a, c, t);
            let v = if size == vta_x86::Size::Dword {
                v
            } else {
                let t2 = temp();
                bin(out, BinOp::And, v, Val::Const(size.mask()), t2)
            };
            out.push(MInsn::Mov { dst, src: v });
        }
        ShiftKind::Shr => {
            // Operand is size-masked, so a 32-bit logical shift is exact.
            let t = temp();
            let v = bin(out, BinOp::Shr, a, c, t);
            out.push(MInsn::Mov { dst, src: v });
        }
        ShiftKind::Sar => {
            // Sign-extend to 32 bits, arithmetic shift, re-mask.
            let sh = 32 - bits;
            let mut v = a;
            if sh > 0 {
                let t = temp();
                v = bin(out, BinOp::Shl, v, Val::Const(sh), t);
                let t = temp();
                v = bin(out, BinOp::Sar, v, Val::Const(sh), t);
            }
            let t = temp();
            let mut v = bin(out, BinOp::Sar, v, c, t);
            if sh > 0 {
                let t = temp();
                v = bin(out, BinOp::And, v, Val::Const(size.mask()), t);
            }
            out.push(MInsn::Mov { dst, src: v });
        }
        ShiftKind::Rol | ShiftKind::Ror => {
            // Rotate within the operand width: count mod width.
            let cm = if bits == 32 {
                c
            } else {
                let t = temp();
                bin(out, BinOp::And, c, Val::Const(bits - 1), t)
            };
            // other = width - count (mod 32 shifts make width-0 == a>>0|a<<0).
            let t = temp();
            let other = bin(out, BinOp::Sub, Val::Const(bits), cm, t);
            let (lo_op, hi_op) = match op {
                ShiftKind::Rol => (BinOp::Shl, BinOp::Shr),
                _ => (BinOp::Shr, BinOp::Shl),
            };
            let t1 = temp();
            let p1 = bin(out, lo_op, a, cm, t1);
            let t2 = temp();
            let p2 = bin(out, hi_op, a, other, t2);
            let t3 = temp();
            let mut v = bin(out, BinOp::Or, p1, p2, t3);
            if bits != 32 {
                let t4 = temp();
                v = bin(out, BinOp::And, v, Val::Const(size.mask()), t4);
            }
            out.push(MInsn::Mov { dst, src: v });
        }
    }
    next_temp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower_block;
    use vta_x86::decode::SliceSource;
    use vta_x86::{Asm, Cond, Reg::*};

    fn lower_opt(f: impl FnOnce(&mut Asm)) -> MBlock {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let mut b = lower_block(&src, p.base, 32).unwrap();
        eliminate_dead_flags(&mut b, &src, &mut Scratch::default());
        b
    }

    fn flagdefs(b: &MBlock) -> usize {
        b.insns
            .iter()
            .filter(|i| matches!(i, MInsn::FlagDef { .. }))
            .count()
    }

    #[test]
    fn overwritten_flags_die() {
        // add sets flags, the following sub overwrites all of them; only
        // the sub's flags can survive (and they die too — the exit path is
        // a direct jump to code that clobbers flags).
        let b = lower_opt(|a| {
            a.add_rr(EAX, EBX);
            a.sub_rr(EAX, ECX);
            let next = a.label();
            a.jmp(next);
            a.bind(next);
            a.and_rr(EAX, EAX); // kills all flags at the successor
            a.hlt();
        });
        assert_eq!(flagdefs(&b), 0, "every flag is dead");
    }

    #[test]
    fn branch_keeps_only_consumed_flags() {
        // cmp; je → the branch consumes ZF; the successor clobbers all, so
        // exactly one FlagDef (ZF) must survive.
        let b = lower_opt(|a| {
            a.cmp_rr(EAX, EBX);
            let t = a.label();
            a.jcc(Cond::E, t);
            a.bind(t);
            a.and_rr(EAX, EAX);
            a.hlt();
        });
        assert_eq!(flagdefs(&b), 1);
        assert!(b
            .insns
            .iter()
            .any(|i| matches!(i, MInsn::FlagDef { flag: Flag::Zf, .. })));
    }

    #[test]
    fn indirect_successor_keeps_all() {
        let b = lower_opt(|a| {
            a.add_rr(EAX, EBX);
            a.ret();
        });
        assert_eq!(flagdefs(&b), 6, "ret has unknown successor");
    }

    #[test]
    fn adc_in_successor_keeps_cf() {
        let b = lower_opt(|a| {
            a.add_rr(EAX, EBX);
            let next = a.label();
            a.jmp(next);
            a.bind(next);
            a.adc_rr(EDX, ECX); // reads CF, then kills everything
            a.hlt();
        });
        // The add's CF must survive; its other five flags are killed by
        // the adc before any read.
        assert_eq!(flagdefs(&b), 1);
        assert!(b
            .insns
            .iter()
            .any(|i| matches!(i, MInsn::FlagDef { flag: Flag::Cf, .. })));
    }

    #[test]
    fn dead_shift_becomes_value_only() {
        let b = lower_opt(|a| {
            a.shl_ri(EAX, 3);
            let next = a.label();
            a.jmp(next);
            a.bind(next);
            a.and_rr(EAX, EAX);
            a.hlt();
        });
        assert!(
            !b.insns.iter().any(|i| matches!(i, MInsn::ShiftFx { .. })),
            "flag-dead shift must be rewritten"
        );
        assert!(b.insns.iter().any(|i| matches!(
            i,
            MInsn::Bin {
                op: crate::mir::BinOp::Shl,
                ..
            }
        )));
    }

    #[test]
    fn live_shift_stays_flag_exact() {
        let b = lower_opt(|a| {
            a.shl_ri(EAX, 1);
            let t = a.label();
            a.jcc(Cond::B, t); // consumes the shift's CF
            a.bind(t);
            a.and_rr(EAX, EAX);
            a.hlt();
        });
        assert!(b.insns.iter().any(|i| matches!(i, MInsn::ShiftFx { .. })));
    }

    #[test]
    fn scan_follows_direct_jumps() {
        let mut asm = Asm::new(0x2000);
        let far = asm.label();
        asm.jmp(far); // entry: jump over a gap
        for _ in 0..10 {
            asm.nop();
        }
        asm.bind(far);
        asm.and_rr(EAX, EAX); // kills all flags
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let (mut memo, mut reads) = (Vec::new(), Vec::new());
        assert_eq!(
            live_in_at(&src, 0x2000, &mut memo, &mut reads),
            FlagSet::EMPTY
        );
        // The jump, then the `and` it lands on; the nops were never read.
        assert_eq!(reads, [(0x2000, 5), (0x200F, 2)]);
    }

    #[test]
    fn scan_loop_terminates() {
        let mut asm = Asm::new(0x3000);
        let top = asm.here();
        asm.nop();
        asm.jmp(top); // tight infinite loop, no flag ops
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let (mut memo, mut reads) = (Vec::new(), Vec::new());
        // Must not hang; memoization breaks the cycle conservatively.
        let live = live_in_at(&src, 0x3000, &mut memo, &mut reads);
        assert_eq!(live, FlagSet::ALL);
    }
}
