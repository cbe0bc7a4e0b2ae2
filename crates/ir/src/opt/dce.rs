//! Dead temporary elimination (backward liveness over one block).

use crate::mir::{MBlock, MInsn, Term, VReg, Val};

/// A dense liveness set over virtual-register numbers (one bit each).
/// The pass flips a few bits per instruction on every translated block,
/// so the set is a flat bit array rather than a hash set.
#[derive(Debug, Default)]
struct LiveSet {
    words: Vec<u64>,
}

impl LiveSet {
    /// Empties the set and sizes it for `regs` registers.
    fn reset(&mut self, regs: usize) {
        self.words.clear();
        self.words.resize(regs.div_ceil(64), 0);
    }

    #[inline]
    fn insert(&mut self, r: VReg) {
        self.words[(r.0 / 64) as usize] |= 1 << (r.0 % 64);
    }

    #[inline]
    fn remove(&mut self, r: VReg) {
        self.words[(r.0 / 64) as usize] &= !(1 << (r.0 % 64));
    }

    #[inline]
    fn contains(&self, r: VReg) -> bool {
        self.words[(r.0 / 64) as usize] & (1 << (r.0 % 64)) != 0
    }
}

/// The pass's buffers, kept across blocks by a translator's context and
/// reset at first use in each block.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    live: LiveSet,
    /// Per body instruction: whether it survives.
    keep: Vec<bool>,
}

/// Removes pure instructions whose destination temporary is never read.
///
/// Guest state (`VReg(0..=8)`) is always live-out. Loads are *not*
/// removed even when dead: a load can fault, and x86 still faults when the
/// result is unused.
pub(crate) fn eliminate(block: &mut MBlock, scratch: &mut Scratch) {
    let Scratch { live, keep } = scratch;
    live.reset(block.next_temp.max(VReg::FIRST_TEMP) as usize);
    for r in 0..=8 {
        live.insert(VReg(r));
    }
    if let Term::Indirect(r) = block.term {
        live.insert(r);
    }

    keep.clear();
    keep.resize(block.insns.len(), true);
    for (i, insn) in block.insns.iter().enumerate().rev() {
        let removable = matches!(
            insn,
            MInsn::Mov { .. } | MInsn::Bin { .. } | MInsn::EvalCond { .. }
        );
        if removable {
            let dst = insn.def().expect("pure insns have a def");
            if !live.contains(dst) {
                keep[i] = false;
                continue;
            }
            live.remove(dst);
        } else if let Some(dst) = insn.def() {
            live.remove(dst);
        }
        insn.for_each_use(|v| {
            if let Val::Reg(r) = v {
                live.insert(r);
            }
        });
        // Which flags are worth defining was settled before lowering
        // (opt::flags); here VReg::FLAGS stays live by virtue of being
        // guest state.
        if matches!(insn, MInsn::EvalCond { .. }) {
            live.insert(VReg::FLAGS);
        }
    }

    let mut idx = 0;
    block.insns.retain(|_| {
        let k = keep[idx];
        idx += 1;
        k
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::BinOp;

    fn block(insns: Vec<MInsn>, term: Term) -> MBlock {
        MBlock {
            insns,
            term,
            next_temp: 64,
            reads: Vec::new(),
        }
    }

    #[test]
    fn removes_unused_temp() {
        let mut b = block(
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
        eliminate(&mut b, &mut Scratch::default());
        assert_eq!(b.insns.len(), 1);
    }

    #[test]
    fn keeps_chain_feeding_guest_state() {
        let mut b = block(
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
        eliminate(&mut b, &mut Scratch::default());
        assert_eq!(b.insns.len(), 2);
    }

    #[test]
    fn keeps_dead_loads_for_faults() {
        let mut b = block(
            vec![MInsn::Load {
                dst: VReg(9),
                base: Val::Const(0x1234),
                off: 0,
                width: 4,
            }],
            Term::Halt,
        );
        eliminate(&mut b, &mut Scratch::default());
        assert_eq!(b.insns.len(), 1, "dead loads still fault");
    }

    #[test]
    fn indirect_target_is_live() {
        let mut b = block(
            vec![MInsn::Bin {
                op: BinOp::Add,
                dst: VReg(12),
                a: Val::Reg(VReg(4)),
                b: Val::Const(4),
            }],
            Term::Indirect(VReg(12)),
        );
        eliminate(&mut b, &mut Scratch::default());
        assert_eq!(b.insns.len(), 1);
    }

    #[test]
    fn dead_mov_of_overwritten_guest_reg() {
        let mut b = block(
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
        eliminate(&mut b, &mut Scratch::default());
        assert_eq!(b.insns.len(), 1);
        assert_eq!(
            b.insns[0],
            MInsn::Mov {
                dst: VReg(0),
                src: Val::Const(2)
            }
        );
    }
}
