//! The translated-block executor: one Raw tile running host code.
//!
//! The runtime-execution tile spends its life inside translated blocks.
//! [`run_block`] interprets a block's [`RInsn`] sequence against the
//! tile's register file, charging base issue cycles per instruction and
//! delegating guest loads/stores to a [`DataPort`] — the DBT's pipelined
//! memory system — which returns the stall cycles the access cost.

#[cfg(test)]
use crate::isa::BrCond;
use crate::isa::{AluIOp, AluOp, HelperKind, MemOp, RInsn, RReg, NUM_REGS};

/// Cycles of pipeline bubble on a taken branch (8-stage in-order pipe).
pub const TAKEN_BRANCH_PENALTY: u64 = 2;

/// The register file of one tile.
///
/// # Examples
///
/// ```
/// use vta_raw::{CoreState, RReg};
///
/// let mut s = CoreState::new();
/// s.set(RReg(5), 99);
/// assert_eq!(s.get(RReg(5)), 99);
/// s.set(RReg(0), 7); // writes to r0 are discarded
/// assert_eq!(s.get(RReg(0)), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreState {
    regs: [u32; NUM_REGS],
}

impl CoreState {
    /// A zeroed register file.
    pub fn new() -> Self {
        CoreState {
            regs: [0; NUM_REGS],
        }
    }

    /// Reads a register (`r0` always reads zero).
    #[inline]
    pub fn get(&self, r: RReg) -> u32 {
        self.regs[r.0 as usize]
    }

    /// Writes a register (`r0` writes are discarded).
    #[inline]
    pub fn set(&mut self, r: RReg, v: u32) {
        if r.0 != 0 {
            self.regs[r.0 as usize] = v;
        }
    }
}

impl Default for CoreState {
    fn default() -> Self {
        Self::new()
    }
}

/// A fault raised while executing translated code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// A guest access touched an unmapped page.
    Unmapped {
        /// The faulting guest address.
        addr: u32,
    },
    /// Host divide by zero (emitted guards forward x86 divide faults here).
    DivZero,
    /// `int` with a vector the virtual machine does not implement.
    BadInterrupt {
        /// The interrupt vector.
        vector: u8,
    },
    /// Guest code at `addr` does not decode; raised by a translated
    /// [`RInsn::TrapUndecodable`] once execution actually reaches the bad
    /// bytes.
    Undecodable {
        /// Guest address of the undecodable instruction.
        addr: u32,
    },
    /// The block ran past its fuel limit (malformed internal loop).
    FuelExhausted,
}

/// The execution tile's window onto the DBT memory system.
///
/// Implementations charge the *occupancy* of the access (software address
/// translation, cache, network, DRAM) and return it as stall cycles.
pub trait DataPort {
    /// Loads from guest virtual `addr`; returns `(value, stall_cycles)`.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] for accesses to unmapped guest pages.
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault>;

    /// Stores to guest virtual `addr`; returns stall cycles.
    ///
    /// # Errors
    ///
    /// Returns [`Fault::Unmapped`] for accesses to unmapped guest pages.
    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault>;

    /// Executes a runtime helper routine against the register file
    /// (canonical implementation: `vta_ir::apply_helper`).
    ///
    /// # Errors
    ///
    /// Returns [`Fault::DivZero`] for faulting divides.
    ///
    /// # Panics
    ///
    /// The default implementation panics; ports used with code that emits
    /// helpers must override it.
    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        let _ = state;
        panic!("DataPort::helper not supported by this port (kind {kind:?})");
    }

    /// Whether a store into translated code pages has been observed since
    /// the current block was entered. Polled by [`RInsn::SmcGuard`] at
    /// superblock member boundaries; ports without self-modifying-code
    /// tracking report `false`.
    fn smc_pending(&self) -> bool {
        false
    }
}

/// Why a translated block returned control.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockExit {
    /// Direct exit to a statically-known guest address (chainable).
    Goto(u32),
    /// Indirect exit (`Dispatch`): the next guest address was computed.
    Indirect(u32),
    /// The guest executed `int 0x80`; state is in the guest registers.
    Sys,
    /// The guest halted.
    Halt,
    /// A fault occurred.
    Fault(Fault),
}

impl BlockExit {
    /// The guest address execution continues at, when the exit carries
    /// one: the chain target of a `Goto` or the computed target of an
    /// `Indirect`. This is what a region-recording pass logs as the
    /// observed successor of the block.
    pub fn successor(self) -> Option<u32> {
        match self {
            BlockExit::Goto(t) | BlockExit::Indirect(t) => Some(t),
            BlockExit::Sys | BlockExit::Halt | BlockExit::Fault(_) => None,
        }
    }
}

/// Outcome of running a block: exit reason, cycles burned, instructions
/// retired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Why the block exited.
    pub exit: BlockExit,
    /// Total cycles (issue + memory stalls + branch penalties).
    pub cycles: u64,
    /// Host instructions retired.
    pub insns: u64,
    /// Cycles of `cycles` that were memory stalls (load/store wait on the
    /// translation pipeline, an L2 bank, or DRAM). Lets an observer
    /// decompose block time into issue vs. memory-stall cycles.
    pub stall_cycles: u64,
    /// [`RInsn::SmcGuard`]s executed without firing. In a superblock
    /// region a guard sits at each member junction, so this is the number
    /// of member boundaries crossed — the caller uses it to attribute
    /// retired guest instructions exactly when a region exits early
    /// (side exit, SMC guard, fault).
    pub guards_passed: u32,
}

/// Executes one translated block to its exit.
///
/// `fuel` bounds retired instructions so a malformed internal loop cannot
/// hang the simulation (exceeding it yields [`Fault::FuelExhausted`]).
///
/// # Panics
///
/// Panics if execution falls off the end of `code` — the code generator
/// guarantees every block ends in a terminator.
pub fn run_block<P: DataPort + ?Sized>(
    state: &mut CoreState,
    code: &[RInsn],
    port: &mut P,
    fuel: u64,
) -> RunOutcome {
    let mut pc = 0usize;
    let mut cycles: u64 = 0;
    let mut insns: u64 = 0;
    let mut stalls: u64 = 0;
    let mut guards: u32 = 0;

    loop {
        if insns >= fuel {
            return RunOutcome {
                exit: BlockExit::Fault(Fault::FuelExhausted),
                cycles,
                insns,
                stall_cycles: stalls,
                guards_passed: guards,
            };
        }
        let insn = *code
            .get(pc)
            .expect("fell off the end of a translated block");
        pc += 1;
        insns += 1;
        cycles += insn.cycles();

        match insn {
            RInsn::Nop => {}
            RInsn::Alu { op, rd, rs, rt } => {
                let a = state.get(rs);
                let b = state.get(rt);
                let v = match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::And => a & b,
                    AluOp::Or => a | b,
                    AluOp::Xor => a ^ b,
                    AluOp::Nor => !(a | b),
                    AluOp::Slt => ((a as i32) < b as i32) as u32,
                    AluOp::Sltu => (a < b) as u32,
                    AluOp::Sllv => a.wrapping_shl(b & 31),
                    AluOp::Srlv => a.wrapping_shr(b & 31),
                    AluOp::Srav => ((a as i32).wrapping_shr(b & 31)) as u32,
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
                    AluOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
                    AluOp::Div | AluOp::Divu | AluOp::Rem | AluOp::Remu => {
                        if b == 0 {
                            return RunOutcome {
                                exit: BlockExit::Fault(Fault::DivZero),
                                cycles,
                                insns,
                                stall_cycles: stalls,
                                guards_passed: guards,
                            };
                        }
                        match op {
                            AluOp::Div => (a as i32).wrapping_div(b as i32) as u32,
                            AluOp::Divu => a / b,
                            AluOp::Rem => (a as i32).wrapping_rem(b as i32) as u32,
                            AluOp::Remu => a % b,
                            _ => unreachable!(),
                        }
                    }
                };
                state.set(rd, v);
            }
            RInsn::AluI { op, rd, rs, imm } => {
                let a = state.get(rs);
                let v = match op {
                    AluIOp::Addi => a.wrapping_add(imm as u32),
                    AluIOp::Andi => a & imm as u32,
                    AluIOp::Ori => a | imm as u32,
                    AluIOp::Xori => a ^ imm as u32,
                    AluIOp::Slti => ((a as i32) < imm) as u32,
                    AluIOp::Sltiu => (a < imm as u32) as u32,
                    AluIOp::Sll => a.wrapping_shl(imm as u32 & 31),
                    AluIOp::Srl => a.wrapping_shr(imm as u32 & 31),
                    AluIOp::Sra => ((a as i32).wrapping_shr(imm as u32 & 31)) as u32,
                };
                state.set(rd, v);
            }
            RInsn::Lui { rd, imm } => state.set(rd, imm << 16),
            RInsn::Ext { rd, rs, pos, len } => {
                let mask = if len >= 32 {
                    u32::MAX
                } else {
                    (1u32 << len) - 1
                };
                state.set(rd, (state.get(rs) >> pos) & mask);
            }
            RInsn::Ins { rd, rs, pos, len } => {
                let mask = if len >= 32 {
                    u32::MAX
                } else {
                    (1u32 << len) - 1
                };
                let cleared = state.get(rd) & !(mask << pos);
                state.set(rd, cleared | ((state.get(rs) & mask) << pos));
            }
            RInsn::Load { op, rd, base, off } => {
                let addr = state.get(base).wrapping_add(off as u32);
                match port.load(addr, op) {
                    Ok((v, stall)) => {
                        cycles += stall;
                        stalls += stall;
                        state.set(rd, op.extend(v));
                    }
                    Err(f) => {
                        return RunOutcome {
                            exit: BlockExit::Fault(f),
                            cycles,
                            insns,
                            stall_cycles: stalls,
                            guards_passed: guards,
                        }
                    }
                }
            }
            RInsn::Store { op, src, base, off } => {
                let addr = state.get(base).wrapping_add(off as u32);
                match port.store(addr, state.get(src), op) {
                    Ok(stall) => {
                        cycles += stall;
                        stalls += stall;
                    }
                    Err(f) => {
                        return RunOutcome {
                            exit: BlockExit::Fault(f),
                            cycles,
                            insns,
                            stall_cycles: stalls,
                            guards_passed: guards,
                        }
                    }
                }
            }
            RInsn::BranchLocal {
                cond,
                rs,
                rt,
                target,
            } => {
                if cond.holds(state.get(rs), state.get(rt)) {
                    cycles += TAKEN_BRANCH_PENALTY;
                    pc = target as usize;
                }
            }
            RInsn::BranchGuest {
                cond,
                rs,
                rt,
                target,
            } => {
                if cond.holds(state.get(rs), state.get(rt)) {
                    cycles += TAKEN_BRANCH_PENALTY;
                    return RunOutcome {
                        exit: BlockExit::Goto(target),
                        cycles,
                        insns,
                        stall_cycles: stalls,
                        guards_passed: guards,
                    };
                }
            }
            RInsn::JumpLocal { target } => {
                cycles += TAKEN_BRANCH_PENALTY;
                pc = target as usize;
            }
            RInsn::JumpGuest { target } => {
                cycles += TAKEN_BRANCH_PENALTY;
                return RunOutcome {
                    exit: BlockExit::Goto(target),
                    cycles,
                    insns,
                    stall_cycles: stalls,
                    guards_passed: guards,
                };
            }
            RInsn::Helper { kind } => {
                if let Err(f) = port.helper(kind, state) {
                    return RunOutcome {
                        exit: BlockExit::Fault(f),
                        cycles,
                        insns,
                        stall_cycles: stalls,
                        guards_passed: guards,
                    };
                }
            }
            RInsn::Dispatch { rs } => {
                return RunOutcome {
                    exit: BlockExit::Indirect(state.get(rs)),
                    cycles,
                    insns,
                    stall_cycles: stalls,
                    guards_passed: guards,
                }
            }
            RInsn::Sys => {
                return RunOutcome {
                    exit: BlockExit::Sys,
                    cycles,
                    insns,
                    stall_cycles: stalls,
                    guards_passed: guards,
                }
            }
            RInsn::TrapBadInterrupt { vector } => {
                return RunOutcome {
                    exit: BlockExit::Fault(Fault::BadInterrupt { vector }),
                    cycles,
                    insns,
                    stall_cycles: stalls,
                    guards_passed: guards,
                }
            }
            RInsn::TrapUndecodable { addr } => {
                return RunOutcome {
                    exit: BlockExit::Fault(Fault::Undecodable { addr }),
                    cycles,
                    insns,
                    stall_cycles: stalls,
                    guards_passed: guards,
                }
            }
            RInsn::Hlt => {
                return RunOutcome {
                    exit: BlockExit::Halt,
                    cycles,
                    insns,
                    stall_cycles: stalls,
                    guards_passed: guards,
                }
            }
            RInsn::SmcGuard { resume } => {
                if port.smc_pending() {
                    return RunOutcome {
                        exit: BlockExit::Goto(resume),
                        cycles,
                        insns,
                        stall_cycles: stalls,
                        guards_passed: guards,
                    };
                }
                guards += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flat test memory with a constant per-access stall.
    struct TestPort {
        mem: std::collections::HashMap<u32, u8>,
        stall: u64,
    }

    impl TestPort {
        fn new(stall: u64) -> Self {
            TestPort {
                mem: std::collections::HashMap::new(),
                stall,
            }
        }
    }

    impl DataPort for TestPort {
        fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
            let mut v = 0u32;
            for i in (0..op.bytes()).rev() {
                v = (v << 8) | *self.mem.get(&(addr + i)).unwrap_or(&0) as u32;
            }
            Ok((v, self.stall))
        }

        fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
            for i in 0..op.bytes() {
                self.mem.insert(addr + i, (value >> (8 * i)) as u8);
            }
            Ok(self.stall)
        }
    }

    fn r(n: u8) -> RReg {
        RReg(n)
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut s = CoreState::new();
        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(1),
                rs: r(0),
                imm: 6,
            },
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(2),
                rs: r(0),
                imm: 7,
            },
            RInsn::Alu {
                op: AluOp::Mul,
                rd: r(3),
                rs: r(1),
                rt: r(2),
            },
            RInsn::Hlt,
        ];
        let out = run_block(&mut s, &code, &mut TestPort::new(0), 100);
        assert_eq!(out.exit, BlockExit::Halt);
        assert_eq!(s.get(r(3)), 42);
        assert_eq!(out.insns, 4);
        // 1 + 1 + 2 (mul) + 1.
        assert_eq!(out.cycles, 5);
    }

    #[test]
    fn local_branch_loops() {
        // r1 = 5; loop: r2 += r1; r1 -= 1; bne r1, r0, loop; hlt
        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(1),
                rs: r(0),
                imm: 5,
            },
            RInsn::Alu {
                op: AluOp::Add,
                rd: r(2),
                rs: r(2),
                rt: r(1),
            },
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(1),
                rs: r(1),
                imm: -1,
            },
            RInsn::BranchLocal {
                cond: BrCond::Ne,
                rs: r(1),
                rt: r(0),
                target: 1,
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        let out = run_block(&mut s, &code, &mut TestPort::new(0), 100);
        assert_eq!(out.exit, BlockExit::Halt);
        assert_eq!(s.get(r(2)), 15);
    }

    #[test]
    fn guest_exit_and_dispatch() {
        let code = [RInsn::JumpGuest {
            target: 0x8000_0010,
        }];
        let mut s = CoreState::new();
        let out = run_block(&mut s, &code, &mut TestPort::new(0), 10);
        assert_eq!(out.exit, BlockExit::Goto(0x8000_0010));

        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(4),
                rs: r(0),
                imm: 0x1234,
            },
            RInsn::Dispatch { rs: r(4) },
        ];
        let mut s = CoreState::new();
        let out = run_block(&mut s, &code, &mut TestPort::new(0), 10);
        assert_eq!(out.exit, BlockExit::Indirect(0x1234));
    }

    #[test]
    fn memory_stalls_counted() {
        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(1),
                rs: r(0),
                imm: 0x100,
            },
            RInsn::Store {
                op: MemOp::W,
                src: r(1),
                base: r(1),
                off: 0,
            },
            RInsn::Load {
                op: MemOp::W,
                rd: r(2),
                base: r(1),
                off: 0,
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        let out = run_block(&mut s, &code, &mut TestPort::new(4), 10);
        assert_eq!(s.get(r(2)), 0x100);
        // 4 issue cycles + 2 accesses × 4 stall.
        assert_eq!(out.cycles, 12);
        assert_eq!(out.stall_cycles, 8, "stall share reported separately");
    }

    #[test]
    fn load_extension_variants() {
        let mut port = TestPort::new(0);
        port.store(0x10, 0x80, MemOp::B).unwrap();
        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(1),
                rs: r(0),
                imm: 0x10,
            },
            RInsn::Load {
                op: MemOp::B,
                rd: r(2),
                base: r(1),
                off: 0,
            },
            RInsn::Load {
                op: MemOp::Bu,
                rd: r(3),
                base: r(1),
                off: 0,
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        run_block(&mut s, &code, &mut port, 10);
        assert_eq!(s.get(r(2)), 0xFFFF_FF80);
        assert_eq!(s.get(r(3)), 0x80);
    }

    #[test]
    fn ext_ins_bitfields() {
        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(1),
                rs: r(0),
                imm: 0b1011_0100,
            },
            RInsn::Ext {
                rd: r(2),
                rs: r(1),
                pos: 4,
                len: 4,
            }, // 0b1011
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(3),
                rs: r(0),
                imm: 1,
            },
            RInsn::Ins {
                rd: r(1),
                rs: r(3),
                pos: 0,
                len: 2,
            }, // low 2 bits := 01
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        run_block(&mut s, &code, &mut TestPort::new(0), 10);
        assert_eq!(s.get(r(2)), 0b1011);
        assert_eq!(s.get(r(1)), 0b1011_0101);
    }

    #[test]
    fn div_zero_faults() {
        let code = [
            RInsn::Alu {
                op: AluOp::Divu,
                rd: r(1),
                rs: r(1),
                rt: r(0),
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        let out = run_block(&mut s, &code, &mut TestPort::new(0), 10);
        assert_eq!(out.exit, BlockExit::Fault(Fault::DivZero));
    }

    #[test]
    fn fuel_limit_stops_runaway() {
        let code = [RInsn::JumpLocal { target: 0 }];
        let mut s = CoreState::new();
        let out = run_block(&mut s, &code, &mut TestPort::new(0), 50);
        assert_eq!(out.exit, BlockExit::Fault(Fault::FuelExhausted));
        assert_eq!(out.insns, 50);
    }

    #[test]
    fn r0_is_hardwired_zero() {
        let code = [
            RInsn::AluI {
                op: AluIOp::Addi,
                rd: r(0),
                rs: r(0),
                imm: 99,
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        run_block(&mut s, &code, &mut TestPort::new(0), 10);
        assert_eq!(s.get(r(0)), 0);
    }

    #[test]
    fn lui_ori_builds_constant() {
        let code = [
            RInsn::Lui {
                rd: r(1),
                imm: 0xDEAD,
            },
            RInsn::AluI {
                op: AluIOp::Ori,
                rd: r(1),
                rs: r(1),
                imm: 0xBEEF,
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        run_block(&mut s, &code, &mut TestPort::new(0), 10);
        assert_eq!(s.get(r(1)), 0xDEAD_BEEF);
    }

    #[test]
    fn taken_branch_penalty_charged() {
        let taken = [
            RInsn::BranchLocal {
                cond: BrCond::Eq,
                rs: r(0),
                rt: r(0),
                target: 1,
            },
            RInsn::Hlt,
        ];
        let not_taken = [
            RInsn::BranchLocal {
                cond: BrCond::Ne,
                rs: r(0),
                rt: r(0),
                target: 1,
            },
            RInsn::Hlt,
        ];
        let mut s = CoreState::new();
        let a = run_block(&mut s, &taken, &mut TestPort::new(0), 10);
        let b = run_block(&mut s, &not_taken, &mut TestPort::new(0), 10);
        assert_eq!(a.cycles, b.cycles + TAKEN_BRANCH_PENALTY);
    }
}
