//! Flag liveness: which arithmetic flags a reader can see after each
//! guest instruction of a region.
//!
//! Almost every x86 ALU instruction writes all six arithmetic flags, but
//! almost no instruction reads them — eagerly materializing each flag into
//! the packed EFLAGS register would multiply the translated code size. So
//! before anything is lowered, one backward pass over the region's decoded
//! instructions (`live_after`) computes the flags live after each one,
//! and lowering emits a [`MInsn::FlagDef`](crate::mir::MInsn::FlagDef)
//! only for those, keeping a shift flag-exact only where some flag is live.
//! One per-[`Op`] table of the flags an instruction reads and overwrites
//! feeds both that pass and the successor scan.
//!
//! Liveness *across* the region's exits is computed by scanning forward in
//! the **guest** code from each statically-known successor: the translator
//! decodes ahead (it is about to translate those blocks speculatively
//! anyway) and observes which flags are read before being overwritten. At
//! indirect successors all flags are conservatively live.

use vta_x86::decode::{decode, CodeSource, MAX_INSN_LEN};
use vta_x86::{Insn, Op, Rep};

use crate::mir::{note_read, Flag, FlagSet, Term};
use crate::translate::{Formed, Junction};

/// Maximum guest instructions scanned per successor path.
pub(crate) const SCAN_DEPTH: u32 = 48;
/// Maximum branch-following recursion while scanning.
pub(crate) const SCAN_FANOUT: u32 = 4;

/// Flags a decoded guest instruction reads.
fn guest_reads(insn: &Insn) -> FlagSet {
    match insn.op {
        Op::Jcc | Op::Setcc | Op::Cmovcc => FlagSet::for_cond(insn.cond.expect("cc op")),
        Op::Adc | Op::Sbb => Flag::Cf.set(),
        _ => FlagSet::EMPTY,
    }
}

/// Flags a decoded guest instruction unconditionally overwrites.
fn guest_kills(insn: &Insn) -> FlagSet {
    match insn.op {
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
        // `scas` compares, writing every flag, unless a `rep` prefix
        // finds ECX == 0.
        Op::Scas if insn.rep == Rep::None => FlagSet::ALL,
        // Shifts/rotates leave flags untouched when the masked count is
        // zero, so they cannot be counted on to kill anything.
        _ => FlagSet::EMPTY,
    }
}

/// Computes which flags are live on entry to guest address `addr`.
///
/// Scans forward from `addr`, following direct control flow up to
/// [`SCAN_DEPTH`] instructions and [`SCAN_FANOUT`] branch levels;
/// unresolved paths (indirect jumps, returns, decode failures) report all
/// flags live. The answer depends on every byte the scan decoded, so the
/// spans are noted in `reads` (see [`MBlock::reads`](crate::mir::MBlock::reads));
/// a failed decode counts for the most it can have fetched. `memo` holds
/// the live-in flags per address scanned so far in this translation (a
/// scan visits a handful of addresses, so a linear search beats hashing).
pub(crate) fn live_in_at<S: CodeSource + ?Sized>(
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
        live = live.union(guest_reads(&insn).intersect(undetermined));
        undetermined = undetermined.minus(guest_kills(&insn));
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

/// Computes the flags live after each instruction of the region formed
/// from `members`, whose instructions are `insns`, into `live`: last
/// instruction first, the order the backward pass meets them.
///
/// `exit(addr)` answers which flags are live on entry to a guest address
/// the region leaves for. The region leaves through its terminator, and
/// mid-body through each junction: a taken side exit reads its
/// condition's flags plus whatever its target's code reads, a fired
/// boundary guard resumes (via a fresh translation) at the next member,
/// and a mismatching indirect guard leaves through the dispatcher for an
/// unknowable address, where every flag is live. The queries go out in
/// one fixed order — the terminator's successors, taken before fall, then
/// the junctions from last to first, each boundary before its side exit
/// — because the scan memo they share makes the answers depend on it.
pub(crate) fn live_after(
    insns: &[Insn],
    members: &[Formed],
    mut exit: impl FnMut(u32) -> FlagSet,
    live: &mut Vec<FlagSet>,
) {
    let last = members.last().expect("a region has an entry member");
    let mut now = match last.term {
        Term::Goto(t) | Term::Sys(t) => exit(t),
        Term::CondGoto { cond, taken, fall } => {
            FlagSet::for_cond(cond).union(exit(taken)).union(exit(fall))
        }
        Term::Indirect(_) => FlagSet::ALL,
        // Trap and Halt both stop the machine: no flag is observable after.
        Term::Trap(_) | Term::Halt => FlagSet::EMPTY,
    };
    live.clear();
    for m in members.iter().rev() {
        for insn in insns[m.start..m.end].iter().rev() {
            live.push(now);
            now = guest_reads(insn).union(now.minus(guest_kills(insn)));
        }
        let Some(junction) = m.junction else {
            continue;
        };
        now = now.union(exit(m.addr));
        match junction {
            Junction::Plain => {}
            Junction::Side(cond, target) => {
                now = now.union(FlagSet::for_cond(cond)).union(exit(target));
            }
            Junction::Guard => now = FlagSet::ALL,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower_member, term_of};
    use crate::mir::{MBlock, MInsn};
    use crate::translate::lower_block;
    use crate::OptLevel;
    use vta_x86::decode::SliceSource;
    use vta_x86::{Asm, Cond, MemRef, Reg::*};

    fn lower_opt(f: impl FnOnce(&mut Asm)) -> MBlock {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let p = asm.finish();
        lower_block(&SliceSource::new(p.base, &p.code), p.base, OptLevel::Full).unwrap()
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

    #[test]
    fn lowering_writes_and_reads_what_the_table_says() {
        // Every flag-touching op, and some that touch no flag, each
        // lowered alone with every flag live: the `FlagDef`s it emits are
        // the flags the table says it overwrites, and the `EvalCond`s it
        // emits read the flags the table says it reads.
        let mut asm = Asm::new(0x1000);
        asm.add_rr(EAX, EBX);
        asm.or_rr(EAX, EBX);
        asm.adc_rr(EAX, EBX);
        asm.sbb_rr(EAX, EBX);
        asm.and_rr(EAX, EBX);
        asm.sub_rr(EAX, EBX);
        asm.xor_rr(EAX, EBX);
        asm.cmp_rr(EAX, EBX);
        asm.test_rr(EAX, EBX);
        asm.inc_r(ECX);
        asm.dec_r(ECX);
        asm.neg_r(ECX);
        asm.mul_r(ECX);
        asm.imul_r(ECX);
        asm.imul_rr(EAX, ECX);
        asm.imul_rri(EAX, ECX, 3);
        asm.shl_ri(EAX, 3);
        asm.shr_ri(EAX, 3);
        asm.sar_ri(EAX, 3);
        asm.rol_ri(EAX, 3);
        asm.ror_ri(EAX, 3);
        asm.shl_rcl(EAX);
        asm.setcc(Cond::L, 0);
        asm.cmovcc(Cond::Be, EAX, EBX);
        asm.mov_rr(EAX, EBX);
        asm.lea(EAX, MemRef::base_disp(EBX, 4));
        asm.not_r(EAX);
        asm.div_r(ECX);
        asm.raw(&[0xAF]); // scas
        asm.raw(&[0xF3, 0xAF]); // rep scas
        let end = asm.label();
        asm.jcc(Cond::G, end);
        asm.bind(end);
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let (mut pc, mut writers) = (p.base, 0);
        while pc < p.base + p.code.len() as u32 {
            let insn = decode(&src, pc).expect("decodes");
            pc = insn.next_addr();
            let mut block = MBlock::default();
            let term = lower_member(&[insn], &[FlagSet::ALL], term_of(&insn), &mut block);
            let (mut defs, mut evals) = (FlagSet::EMPTY, FlagSet::EMPTY);
            for i in &block.insns {
                match *i {
                    MInsn::FlagDef { flag, .. } => defs = defs.union(flag.set()),
                    MInsn::EvalCond { cond, .. } => evals = evals.union(FlagSet::for_cond(cond)),
                    _ => {}
                }
            }
            if let Term::CondGoto { cond, .. } = term {
                // A branch reads its condition's flags at the exit.
                evals = evals.union(FlagSet::for_cond(cond));
            }
            if insn.op == Op::Scas {
                // The string op writes the packed flags itself.
                assert!(
                    matches!(block.insns[..], [MInsn::RepString { .. }]),
                    "{insn}"
                );
            } else {
                assert_eq!(defs, guest_kills(&insn), "{insn} writes");
            }
            assert_eq!(evals, guest_reads(&insn), "{insn} reads");
            writers += usize::from(!guest_kills(&insn).is_empty());
        }
        assert_eq!(writers, 17, "every form the table kills flags for");
    }
}
