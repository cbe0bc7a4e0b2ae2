//! Constant folding plus copy/constant propagation (one forward pass).

use crate::mir::{BinOp, MInsn, VReg, Val};

/// What we currently know about a virtual register.
///
/// A `CopyOf` fact captures the source register's redefinition version at
/// the time the fact was made; the fact is valid only while the version
/// still matches. This makes invalidation O(1) — bump the version —
/// instead of a scan over every outstanding fact, which mattered: the
/// translator runs this pass on every block and helper-style
/// instructions invalidate several registers each.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fact {
    Const(u32),
    CopyOf(VReg, u32),
}

/// Per-register fact table, indexed by virtual-register number. A
/// translator's context keeps one across blocks; each block resets it.
#[derive(Debug, Default)]
pub(crate) struct Facts {
    fact: Vec<Option<Fact>>,
    /// Redefinition counter per register; stale `CopyOf` facts are
    /// detected by version mismatch.
    ver: Vec<u32>,
}

impl Facts {
    /// Forgets everything and sizes the table for `regs` registers.
    fn reset(&mut self, regs: usize) {
        self.fact.clear();
        self.fact.resize(regs, None);
        self.ver.clear();
        self.ver.resize(regs, 0);
    }

    /// Resolves a value through the fact table.
    fn resolve(&self, v: Val) -> Val {
        match v {
            Val::Const(_) => v,
            Val::Reg(r) => match self.fact[r.0 as usize] {
                Some(Fact::Const(c)) => Val::Const(c),
                Some(Fact::CopyOf(s, sv)) if self.ver[s.0 as usize] == sv => Val::Reg(s),
                _ => v,
            },
        }
    }

    /// Drops facts about `r` and (by version bump) any copies of it.
    fn invalidate(&mut self, r: VReg) {
        self.fact[r.0 as usize] = None;
        self.ver[r.0 as usize] += 1;
    }

    fn set(&mut self, r: VReg, f: Fact) {
        self.fact[r.0 as usize] = Some(f);
    }

    fn copy_of(&self, src: VReg) -> Fact {
        Fact::CopyOf(src, self.ver[src.0 as usize])
    }
}

/// Folds constant expressions and forwards copies/constants through the
/// block. Sound per-block: helper-style instructions that mutate guest
/// registers invalidate what they touch.
pub(crate) fn propagate(block: &mut crate::mir::MBlock, known: &mut Facts) {
    known.reset(block.next_temp.max(VReg::FIRST_TEMP) as usize);

    for insn in &mut block.insns {
        match insn {
            MInsn::Mov { dst, src } => {
                *src = known.resolve(*src);
                let d = *dst;
                let fact = match *src {
                    Val::Const(c) => Some(Fact::Const(c)),
                    Val::Reg(s) if s != d => Some(known.copy_of(s)),
                    Val::Reg(_) => None,
                };
                known.invalidate(d);
                if let Some(f) = fact {
                    known.set(d, f);
                }
            }
            MInsn::Bin { op, dst, a, b } => {
                *a = known.resolve(*a);
                *b = known.resolve(*b);
                let d = *dst;
                if let (Val::Const(ca), Val::Const(cb)) = (*a, *b) {
                    let folded = fold(*op, ca, cb);
                    let src = Val::Const(folded);
                    known.invalidate(d);
                    known.set(d, Fact::Const(folded));
                    *insn = MInsn::Mov { dst: d, src };
                } else {
                    known.invalidate(d);
                }
            }
            MInsn::Load { dst, base, .. } => {
                *base = known.resolve(*base);
                let d = *dst;
                known.invalidate(d);
            }
            MInsn::Store { src, base, .. } => {
                *src = known.resolve(*src);
                *base = known.resolve(*base);
            }
            MInsn::FlagDef { a, b, res, cin, .. } => {
                *a = known.resolve(*a);
                *b = known.resolve(*b);
                *res = known.resolve(*res);
                if let Some(c) = cin {
                    *c = known.resolve(*c);
                }
            }
            MInsn::EvalCond { dst, .. } => {
                let d = *dst;
                known.invalidate(d);
            }
            MInsn::ShiftFx { dst, a, count, .. } => {
                *a = known.resolve(*a);
                *count = known.resolve(*count);
                let d = *dst;
                known.invalidate(d);
            }
            MInsn::DivHelper { divisor, .. } => {
                *divisor = known.resolve(*divisor);
                // Mutates EAX/EDX.
                known.invalidate(VReg(0));
                known.invalidate(VReg(2));
            }
            MInsn::RepString { .. } => {
                // Mutates EAX/ECX/ESI/EDI depending on the op; be blunt.
                for r in [0u32, 1, 6, 7] {
                    known.invalidate(VReg(r));
                }
            }
            MInsn::SetDf(_) => {}
            // Region exit points read state but write nothing; facts stay
            // valid across them (guest-reg writes are never removed across
            // a boundary, so the architectural state there is exact).
            MInsn::SideExit { .. } | MInsn::Boundary { .. } | MInsn::IndirectGuard { .. } => {}
        }
    }
}

/// Evaluates a [`BinOp`] on constants (shift counts taken mod 32).
pub(crate) fn fold(op: BinOp, a: u32, b: u32) -> u32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::MulhS => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        BinOp::MulhU => (((a as u64) * (b as u64)) >> 32) as u32,
        BinOp::Shl => a.wrapping_shl(b & 31),
        BinOp::Shr => a.wrapping_shr(b & 31),
        BinOp::Sar => ((a as i32).wrapping_shr(b & 31)) as u32,
        BinOp::SltS => ((a as i32) < b as i32) as u32,
        BinOp::SltU => (a < b) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{MBlock, Term};

    fn block(insns: Vec<MInsn>) -> MBlock {
        MBlock {
            insns,
            term: Term::Halt,
            next_temp: 64,
            reads: Vec::new(),
        }
    }

    #[test]
    fn folds_constants() {
        let mut b = block(vec![
            MInsn::Mov {
                dst: VReg(9),
                src: Val::Const(6),
            },
            MInsn::Bin {
                op: BinOp::Mul,
                dst: VReg(10),
                a: Val::Reg(VReg(9)),
                b: Val::Const(7),
            },
            MInsn::Mov {
                dst: VReg(0),
                src: Val::Reg(VReg(10)),
            },
        ]);
        propagate(&mut b, &mut Facts::default());
        assert_eq!(
            b.insns[2],
            MInsn::Mov {
                dst: VReg(0),
                src: Val::Const(42)
            }
        );
    }

    #[test]
    fn copies_forward() {
        let mut b = block(vec![
            MInsn::Mov {
                dst: VReg(9),
                src: Val::Reg(VReg(1)),
            },
            MInsn::Bin {
                op: BinOp::Add,
                dst: VReg(10),
                a: Val::Reg(VReg(9)),
                b: Val::Reg(VReg(9)),
            },
        ]);
        propagate(&mut b, &mut Facts::default());
        assert_eq!(
            b.insns[1],
            MInsn::Bin {
                op: BinOp::Add,
                dst: VReg(10),
                a: Val::Reg(VReg(1)),
                b: Val::Reg(VReg(1)),
            }
        );
    }

    #[test]
    fn redefinition_invalidates_copies() {
        let mut b = block(vec![
            MInsn::Mov {
                dst: VReg(9),
                src: Val::Reg(VReg(1)),
            },
            // Redefine the source.
            MInsn::Mov {
                dst: VReg(1),
                src: Val::Const(0),
            },
            MInsn::Bin {
                op: BinOp::Add,
                dst: VReg(10),
                a: Val::Reg(VReg(9)),
                b: Val::Const(0),
            },
        ]);
        propagate(&mut b, &mut Facts::default());
        // %t0 must NOT have been replaced by the clobbered %ecx.
        assert_eq!(
            b.insns[2],
            MInsn::Bin {
                op: BinOp::Add,
                dst: VReg(10),
                a: Val::Reg(VReg(9)),
                b: Val::Const(0),
            }
        );
    }

    #[test]
    fn div_helper_clobbers_accumulator() {
        let mut b = block(vec![
            MInsn::Mov {
                dst: VReg(0),
                src: Val::Const(5),
            }, // EAX = 5
            MInsn::DivHelper {
                signed: false,
                size: vta_x86::Size::Dword,
                divisor: Val::Const(2),
            },
            MInsn::Mov {
                dst: VReg(9),
                src: Val::Reg(VReg(0)),
            },
        ]);
        propagate(&mut b, &mut Facts::default());
        // EAX is no longer the constant 5 after the divide.
        assert_eq!(
            b.insns[2],
            MInsn::Mov {
                dst: VReg(9),
                src: Val::Reg(VReg(0))
            }
        );
    }

    #[test]
    fn fold_table() {
        assert_eq!(fold(BinOp::Add, u32::MAX, 1), 0);
        assert_eq!(fold(BinOp::Sar, 0x8000_0000, 31), u32::MAX);
        assert_eq!(fold(BinOp::Shr, 0x8000_0000, 31), 1);
        assert_eq!(fold(BinOp::SltS, u32::MAX, 0), 1);
        assert_eq!(fold(BinOp::SltU, u32::MAX, 0), 0);
        assert_eq!(fold(BinOp::MulhU, u32::MAX, 2), 1);
    }
}
