//! Shared building blocks for the synthetic benchmarks.
//!
//! Register conventions used throughout the suite:
//! `EBP` = data-segment base (set once at startup and preserved);
//! `EAX` = running checksum; `EBX`/`EDX` = scratch;
//! `ECX`/`ESI`/`EDI` are used by loops and string operations.

use vta_sim::Rng;
use vta_x86::{Asm, Cond, MemRef, Reg};

/// Guest address of the code segment.
pub(crate) const CODE_BASE: u32 = 0x0800_0000;
/// Guest address of the data segment.
pub(crate) const DATA_BASE: u32 = 0x0900_0000;

/// Deterministic code generator wrapping the assembler.
pub(crate) struct Gen {
    /// The assembler.
    pub a: Asm,
    /// Seeded PRNG (every benchmark uses its own fixed seed).
    pub rng: Rng,
}

impl Gen {
    /// Starts a benchmark's code segment.
    pub(crate) fn new(seed: u64) -> Gen {
        Gen {
            a: Asm::new(CODE_BASE),
            rng: Rng::seeded(seed),
        }
    }

    /// Emits `n` data-dependent ALU instructions over EAX/EBX/EDX.
    ///
    /// The mix is weighted like SpecInt integer code: mostly add/sub/
    /// logic, some shifts and multiplies, with everything feeding the
    /// checksum in EAX so nothing is dead code.
    pub(crate) fn alu_filler(&mut self, n: usize) {
        use Reg::*;
        for _ in 0..n {
            match self.rng.below(12) {
                0 => self.a.add_rr(EAX, EBX),
                1 => self.a.sub_rr(EBX, EDX),
                2 => self.a.xor_rr(EAX, EDX),
                3 => self.a.and_ri(EBX, 0x00FF_FFFF),
                4 => self.a.or_ri(EDX, 0x11),
                5 => self.a.add_ri(EAX, self.rng.next_u32() as i32 & 0xFFFF),
                6 => self.a.shl_ri(EBX, (self.rng.below(7) + 1) as u8),
                7 => self.a.shr_ri(EDX, (self.rng.below(7) + 1) as u8),
                8 => self.a.imul_rri(EBX, EAX, (self.rng.below(13) + 3) as i32),
                9 => self.a.rol_ri(EAX, 5),
                10 => self.a.lea(
                    EDX,
                    MemRef::base_index(EAX, EBX, 2, self.rng.below(64) as i32),
                ),
                11 => self.a.add_rr(EAX, EDX),
                _ => unreachable!(),
            }
        }
    }

    /// Emits a load-modify-store touching `[EBP + random offset]` within
    /// a power-of-two window of `window` bytes.
    pub(crate) fn mem_touch(&mut self, window: u32) {
        let off = (self.rng.below(window as u64 / 4) * 4) as i32;
        self.a.add_rm(Reg::EAX, MemRef::base_disp(Reg::EBP, off));
        let off2 = (self.rng.below(window as u64 / 4) * 4) as i32;
        self.a.mov_mr(MemRef::base_disp(Reg::EBP, off2), Reg::EAX);
    }

    /// Emits a short forward conditional hop (adds realistic branchiness
    /// and splits the code into more basic blocks).
    pub(crate) fn branch_hop(&mut self) {
        let skip = self.a.label();
        self.a.test_ri(Reg::EAX, 1 << self.rng.below(8));
        self.a.jcc(Cond::E, skip);
        self.a.add_ri(Reg::EBX, 0x101);
        self.a.bind(skip);
    }

    /// Emits a region of `blocks` basic blocks (each ~6-10 guest
    /// instructions with the given memory-touch probability in percent).
    /// Falls through at the end; this is the "instruction working set"
    /// knob the code-cache figures turn.
    pub(crate) fn code_region(&mut self, blocks: usize, mem_pct: u64, window: u32) {
        for _ in 0..blocks {
            let n = 3 + self.rng.below(4) as usize;
            self.alu_filler(n);
            if self.rng.chance(mem_pct, 100) {
                self.mem_touch(window);
            }
            self.branch_hop();
        }
    }

    /// Like [`Gen::code_region`], but every `cold_stride`-th hot block
    /// also carries a never-taken branch into a `cold_len`-block cold
    /// chain (emitted after the region). The cold code never executes,
    /// but the speculative translator cannot know that: it crawls and
    /// translates it — the "large amount of work that may not be needed"
    /// the paper accepts as the price of speculation (§2.1). Real
    /// programs are full of such code (error paths, cold features).
    pub(crate) fn code_region_cold(
        &mut self,
        blocks: usize,
        mem_pct: u64,
        window: u32,
        cold_stride: usize,
        cold_len: usize,
    ) {
        // Cold chains are laid out *before* the hot code, so the guards
        // that reach them are backward branches — which the translator's
        // backward-taken static predictor prioritizes, exactly the
        // mis-speculation that starves demand requests in the paper's
        // vpr/gcc/crafty runs.
        let n_entries = if cold_stride > 0 {
            blocks.div_ceil(cold_stride)
        } else {
            0
        };
        let hot_start = self.a.label();
        self.a.jmp(hot_start);
        let mut cold_entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let entry = self.a.here();
            cold_entries.push(entry);
            for _ in 0..cold_len {
                self.alu_filler(5);
                self.branch_hop();
            }
            self.a.jmp(hot_start); // never executed
        }
        self.a.bind(hot_start);
        let mut next_cold = cold_entries.into_iter();
        for i in 0..blocks {
            let n = 3 + self.rng.below(4) as usize;
            self.alu_filler(n);
            if self.rng.chance(mem_pct, 100) {
                self.mem_touch(window);
            }
            self.branch_hop();
            if cold_stride > 0 && i % cold_stride == 0 {
                if let Some(cold) = next_cold.next() {
                    // ESP & 0 == 0 always: ZF set, `jne` never taken.
                    self.a.test_ri(Reg::ESP, 0);
                    self.a.jcc(Cond::Ne, cold);
                }
            }
        }
    }

    /// Standard epilogue: fold EBX/EDX into the checksum and exit.
    pub(crate) fn finish_with_checksum(mut self) -> vta_x86::GuestImage {
        self.a.add_rr(Reg::EAX, Reg::EBX);
        self.a.xor_rr(Reg::EAX, Reg::EDX);
        self.a.exit_with_eax();
        vta_x86::GuestImage::from_code(self.a.finish())
    }

    /// Builds a deterministic pseudo-random data blob.
    pub(crate) fn data_blob(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.rng.next_u32() as u8).collect()
    }
}

/// Standard prologue: EBP = data base, checksum registers zeroed.
pub(crate) fn prologue(g: &mut Gen) {
    g.a.mov_ri(Reg::EBP, DATA_BASE);
    g.a.mov_ri(Reg::EAX, 0x1357_9BDF);
    g.a.mov_ri(Reg::EBX, 0x0246_8ACE);
    g.a.mov_ri(Reg::EDX, 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::{Cpu, GuestImage, StopReason};

    #[test]
    fn code_region_runs_and_exits() {
        let mut g = Gen::new(7);
        prologue(&mut g);
        g.code_region(40, 30, 4096);
        let img = g.finish_with_checksum().with_bss(DATA_BASE, 0x10000);
        let mut cpu = Cpu::new(&img);
        assert!(matches!(cpu.run(1_000_000).unwrap(), StopReason::Exit(_)));
    }

    #[test]
    fn generation_is_deterministic() {
        let build = || {
            let mut g = Gen::new(42);
            prologue(&mut g);
            g.code_region(10, 50, 1024);
            g.finish_with_checksum()
        };
        let (a, b): (GuestImage, GuestImage) = (build(), build());
        assert_eq!(a.code, b.code);
    }
}
