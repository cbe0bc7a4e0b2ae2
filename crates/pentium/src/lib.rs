//! # vta-pentium — the Pentium III baseline cost model
//!
//! The paper evaluates clock-for-clock against a Pentium III (§4.1):
//! `slowdown = CyclesOnTranslator / CyclesOnPentiumIII`. [`PentiumModel`]
//! observes the reference interpreter's one loop ([`Cpu::run_observed`])
//! and charges the events it counts with the PIII parameters the paper's
//! own analysis uses (§4.5, Figure 11):
//!
//! - out-of-order 3-wide superscalar, with realized ILP on SpecInt of
//!   ≈ 1.3 (the Pentium Pro measurement the paper cites);
//! - memory: L1 16 KiB/4-way (latency 3, occupancy 1), L2 256 KiB/8-way
//!   (latency 7), main memory latency 79 — out-of-order execution hides
//!   the occupancy, so hits cost nothing beyond issue and misses charge
//!   their latencies;
//! - a 2-bit branch predictor with a mispredict penalty of 11 cycles
//!   (the PIII pipeline depth).
//!
//! The [`analysis`] module reproduces the §4.5 CPI decomposition.
//!
//! # Examples
//!
//! ```
//! use vta_pentium::PentiumModel;
//! use vta_x86::{Asm, GuestImage, Reg};
//!
//! let mut asm = Asm::new(0x0800_0000);
//! asm.mov_ri(Reg::ECX, 100);
//! let top = asm.here();
//! asm.add_rr(Reg::EAX, Reg::ECX);
//! asm.dec_r(Reg::ECX);
//! asm.jcc(vta_x86::Cond::Ne, top);
//! asm.exit_with_eax();
//! let image = GuestImage::from_code(asm.finish());
//!
//! let report = PentiumModel::new().run(&image, 1_000_000).unwrap();
//! assert!(report.cycles > 0);
//! assert!(report.cpi() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;

use vta_raw::{Cache, CacheConfig};
use vta_x86::{Cpu, CpuError, GuestImage, Insn, Observer, Op, Operand, Reg, StopReason};

/// Realized instruction-level parallelism on SpecInt (×1000).
/// The paper cites 1.3 for SpecInt 95 on a Pentium Pro (§4.5).
pub(crate) const ILP_X1000: u64 = 1300;
/// L1 data hit latency (Figure 11). Hidden by the OoO core.
pub const L1_LATENCY: u64 = 3;
/// L2 data hit latency (Figure 11).
pub const L2_LATENCY: u64 = 7;
/// Main-memory latency (Figure 11).
pub const MEM_LATENCY: u64 = 79;
/// Branch mispredict penalty (PIII 10-stage pipe).
pub(crate) const MISPREDICT: u64 = 11;

/// Outcome of a baseline run.
#[derive(Debug, Clone)]
pub struct PentiumReport {
    /// Modelled PIII cycles.
    pub cycles: u64,
    /// Instructions retired.
    pub insns: u64,
    /// Memory accesses issued.
    pub mem_accesses: u64,
    /// L1 data misses.
    pub l1_misses: u64,
    /// L2 data misses (to main memory).
    pub l2_misses: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Why execution stopped.
    pub stop: StopReason,
    /// Guest exit code, if it exited.
    pub exit_code: Option<u32>,
}

impl PentiumReport {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        if self.insns == 0 {
            0.0
        } else {
            self.cycles as f64 / self.insns as f64
        }
    }
}

/// The baseline machine: an [`Observer`] of the reference interpreter
/// that counts each instruction's data accesses and branch outcome as
/// [`Cpu::run_observed`] steps through the guest.
#[derive(Debug, Clone)]
pub struct PentiumModel {
    l1: Cache,
    l2: Cache,
    /// 2-bit saturating counters indexed by branch address.
    predictor: Vec<u8>,
    /// The current run's events, zeroed by every run (the caches and
    /// predictor stay warm).
    tally: Tally,
}

#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    mem_accesses: u64,
    l1_misses: u64,
    l2_misses: u64,
    branches: u64,
    mispredicts: u64,
}

impl PentiumModel {
    /// Creates the model with PIII cache geometry.
    pub fn new() -> PentiumModel {
        PentiumModel {
            l1: Cache::new(CacheConfig {
                size_bytes: 16 * 1024,
                line_bytes: 32,
                ways: 4,
            }),
            l2: Cache::new(CacheConfig {
                size_bytes: 256 * 1024,
                line_bytes: 32,
                ways: 8,
            }),
            predictor: vec![1; 4096],
            tally: Tally::default(),
        }
    }

    /// Runs `image`, modelling cycles, until exit or `max_insns`.
    ///
    /// # Errors
    ///
    /// Propagates guest faults from the reference interpreter.
    pub fn run(&mut self, image: &GuestImage, max_insns: u64) -> Result<PentiumReport, CpuError> {
        self.run_cpu(&mut Cpu::new(image), max_insns)
    }

    /// Like [`PentiumModel::run`] on a booted `cpu`, which the caller
    /// keeps: one pass gives the modelled cycles and the reference
    /// interpreter's final state.
    ///
    /// # Errors
    ///
    /// Propagates guest faults from the reference interpreter.
    pub fn run_cpu(&mut self, cpu: &mut Cpu, max_insns: u64) -> Result<PentiumReport, CpuError> {
        self.tally = Tally::default();
        let start = cpu.insn_count;
        let stop = cpu.run_observed(max_insns, self)?;
        let (t, insns) = (self.tally, cpu.insn_count - start);
        // Issue at the realized ILP (in 1/1000ths of a cycle), plus each
        // L1 miss's L2 or memory latency and each mispredict's penalty.
        let stalls = L2_LATENCY * (t.l1_misses - t.l2_misses)
            + MEM_LATENCY * t.l2_misses
            + MISPREDICT * t.mispredicts;
        Ok(PentiumReport {
            cycles: (insns * (1_000_000 / ILP_X1000) + stalls * 1000) / 1000,
            insns,
            mem_accesses: t.mem_accesses,
            l1_misses: t.l1_misses,
            l2_misses: t.l2_misses,
            branches: t.branches,
            mispredicts: t.mispredicts,
            stop,
            exit_code: match stop {
                StopReason::Exit(c) => Some(c),
                _ => None,
            },
        })
    }

    /// One data access through L1 and L2 (hits are hidden by the OoO
    /// core).
    fn access(&mut self, addr: u32, write: bool) {
        let t = &mut self.tally;
        t.mem_accesses += 1;
        if !self.l1.access(addr as u64, write).is_hit() {
            t.l1_misses += 1;
            if !self.l2.access(addr as u64, write).is_hit() {
                t.l2_misses += 1;
            }
        }
    }
}

impl Observer for PentiumModel {
    fn before(&mut self, cpu: &Cpu, insn: &Insn) {
        // Data accesses: destination, source, then stack or string
        // traffic. `lea` computes an address without touching memory.
        if insn.op != Op::Lea {
            if let Some(Operand::Mem(m)) = insn.dst {
                self.access(cpu.effective_addr(m), true);
            }
            if let Some(Operand::Mem(m)) = insn.src {
                self.access(cpu.effective_addr(m), false);
            }
        }
        let reg = |r: Reg| cpu.regs[r.num() as usize];
        match insn.op {
            Op::Push | Op::Call | Op::CallInd => self.access(reg(Reg::ESP).wrapping_sub(4), true),
            Op::Pop | Op::Ret => self.access(reg(Reg::ESP), false),
            Op::Movs => {
                self.access(reg(Reg::ESI), false);
                self.access(reg(Reg::EDI), true);
            }
            Op::Stos => self.access(reg(Reg::EDI), true),
            Op::Lods => self.access(reg(Reg::ESI), false),
            Op::Scas => self.access(reg(Reg::EDI), false),
            _ => {}
        }
    }

    fn after(&mut self, cpu: &Cpu, insn: &Insn) {
        // Branch prediction on conditional branches.
        if insn.op != Op::Jcc {
            return;
        }
        self.tally.branches += 1;
        let taken = cpu.eip != insn.next_addr();
        let slot = (insn.addr as usize >> 1) % self.predictor.len();
        let c = &mut self.predictor[slot];
        if taken != (*c >= 2) {
            self.tally.mispredicts += 1;
        }
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

impl Default for PentiumModel {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::{Asm, Cond, MemRef, Reg, Size};

    const BASE: u32 = 0x0800_0000;
    const DATA: u32 = 0x0900_0000;

    fn run(f: impl FnOnce(&mut Asm)) -> PentiumReport {
        let mut asm = Asm::new(BASE);
        f(&mut asm);
        let img = GuestImage::from_code(asm.finish()).with_bss(DATA, 0x100000);
        PentiumModel::new().run(&img, 50_000_000).expect("runs")
    }

    #[test]
    fn compute_bound_cpi_near_ilp_limit() {
        let r = run(|a| {
            a.mov_ri(Reg::ECX, 5000);
            let top = a.here();
            a.add_rr(Reg::EAX, Reg::ECX);
            a.imul_rri(Reg::EBX, Reg::EAX, 3);
            a.xor_rr(Reg::EDX, Reg::EBX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let cpi = r.cpi();
        assert!(
            (0.7..=1.1).contains(&cpi),
            "compute-bound CPI near 1/1.3, got {cpi}"
        );
        assert!(r.mispredicts < r.branches / 10, "loop branch predicts well");
    }

    #[test]
    fn pointer_chase_pays_memory_latency() {
        // Serial walk over a region far exceeding L2.
        let r = run(|a| {
            a.mov_ri(Reg::EBX, DATA);
            a.mov_ri(Reg::ECX, 8000);
            let top = a.here();
            a.mov_rm(Reg::EAX, MemRef::base_disp(Reg::EBX, 0));
            a.add_ri(Reg::EBX, 128); // new line every access, > L2 size
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        assert!(r.l1_misses > 7000, "strided walk misses: {}", r.l1_misses);
        assert!(r.cpi() > 3.0, "memory-bound CPI must be high: {}", r.cpi());
    }

    #[test]
    fn exit_code_propagates() {
        let r = run(|a| {
            a.mov_ri(Reg::EAX, 7);
            a.exit_with_eax();
        });
        assert_eq!(r.exit_code, Some(7));
        assert_eq!(r.stop, StopReason::Exit(7));
    }

    #[test]
    fn alternating_branch_mispredicts() {
        let r = run(|a| {
            a.mov_ri(Reg::ECX, 2000);
            let top = a.here();
            a.test_ri(Reg::ECX, 1);
            let skip = a.label();
            a.jcc(Cond::E, skip); // alternates taken/not-taken
            a.nop();
            a.bind(skip);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        assert!(
            r.mispredicts * 3 > r.branches,
            "alternating branch defeats 2-bit counters: {}/{}",
            r.mispredicts,
            r.branches
        );
    }

    #[test]
    fn each_insn_probes_its_pinned_data_accesses() {
        let accesses = |insn: fn(&mut Asm)| {
            run(|a| {
                a.cld();
                a.mov_ri(Reg::ESI, DATA);
                a.mov_ri(Reg::EDI, DATA + 0x100);
                a.mov_ri(Reg::ECX, 8);
                insn(a);
                a.exit_with_eax();
            })
            .mem_accesses
        };
        assert_eq!(accesses(|_| {}), 0, "the harness touches no data");
        assert_eq!(accesses(|a| a.push_r(Reg::EAX)), 1);
        assert_eq!(accesses(|a| a.pop_r(Reg::EAX)), 1);
        assert_eq!(accesses(|a| a.raw(&[0xA5])), 2, "movsd reads and writes");
        assert_eq!(accesses(|a| a.raw(&[0xAB])), 1, "stosd");
        assert_eq!(
            accesses(|a| a.lea(Reg::EAX, MemRef::base_disp(Reg::ESI, 4))),
            0
        );
        assert_eq!(
            accesses(|a| a.mov_mr(MemRef::base_disp(Reg::EDI, 0), Reg::EAX)),
            1
        );
        assert_eq!(
            accesses(|a| a.rep_stos(Size::Dword)),
            1,
            "a rep string op is one probe, not one per element"
        );
    }

    #[test]
    fn a_reused_model_counts_from_zero_with_warm_caches() {
        let mut asm = Asm::new(BASE);
        asm.mov_ri(Reg::EBX, DATA);
        asm.mov_ri(Reg::ECX, 256);
        let top = asm.here();
        asm.mov_rm(Reg::EAX, MemRef::base_disp(Reg::EBX, 0));
        asm.add_ri(Reg::EBX, 32);
        asm.dec_r(Reg::ECX);
        asm.jcc(Cond::Ne, top);
        asm.exit_with_eax();
        let img = GuestImage::from_code(asm.finish()).with_bss(DATA, 0x2000);
        let mut model = PentiumModel::new();
        let cold = model.run(&img, 1_000_000).unwrap();
        let warm = model.run(&img, 1_000_000).unwrap();
        assert_eq!(
            (warm.insns, warm.mem_accesses, warm.branches),
            (cold.insns, cold.mem_accesses, cold.branches)
        );
        assert_eq!((cold.l1_misses, warm.l1_misses), (256, 0));
        assert!(warm.cycles < cold.cycles);
    }

    #[test]
    fn deterministic() {
        let prog = |a: &mut Asm| {
            a.mov_ri(Reg::ECX, 1000);
            let top = a.here();
            a.add_rr(Reg::EAX, Reg::ECX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        };
        assert_eq!(run(prog).cycles, run(prog).cycles);
    }
}
