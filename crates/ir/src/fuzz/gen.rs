//! Layered deterministic case generators.
//!
//! Each generator targets one risk surface of the front end:
//!
//! * [`linear`] — valid straight-line ALU/memory/flag streams built with
//!   the in-tree assembler (broad instruction coverage);
//! * [`branchy`] — data-dependent loops and forward branches (cross-block
//!   flag liveness, block chaining);
//! * `flag_stress` — arithmetic/shift/rotate sequences, including
//!   sub-width operations at the count boundaries, with every flag
//!   materialised through `setcc` after each step;
//! * `memory` — sized loads/stores, string operations, push/pop
//!   traffic, and occasional wild pointers (fault-path agreement);
//! * [`raw_bytes`] — decoder soup: a valid register-seeding prologue
//!   followed by random bytes biased toward ModRM/SIB-heavy encodings;
//! * [`smc`] — self-modifying code that patches a *later* block before
//!   jumping to it (same-block SMC is out of contract for a block DBT);
//! * [`syscalls`] — `write`/`brk`/`read`/`time`/`getpid`/`exit` traffic;
//! * `superblock` — hot loops over chains of small blocks linked by
//!   direct jumps and mostly-not-taken forward branches, which path
//!   recording turns into regions at `OptLevel::Full` (exercises
//!   cross-member optimization and mid-region side exits);
//! * `indirect_chain` — ret-heavy call trees plus data-dependent
//!   computed jumps through an in-memory table (the indirect-target
//!   inline-cache surface);
//! * [`region_smc`] — a loop whose recorded region stores into a *later
//!   member of itself* on every pass: in contract only because the
//!   member-boundary `SmcGuard` exits ahead of the stale bytes, with the
//!   flags the resume point's code reads;
//! * [`recorded_path`] — hot loops with phase-stable and churning
//!   data-dependent junctions plus a `call`/`ret` pair, which the
//!   oracle's `OptLevel::Full` run records and turns into
//!   `translate_region_along` regions (exercises recorded-shape
//!   formation and its guard side exits);
//! * [`wide_arith`] — the one-operand `EDX:EAX` forms (`mul`, `imul`,
//!   `idiv`) no other family emits. Driven by a tier-1 seeded loop, not
//!   by [`CaseStream`], whose rotation stays comparable across PRs.
//!
//! All generators draw exclusively from the caller's [`Rng`], so a fixed
//! seed reproduces the identical stream of [`Case`]s on every run.

use crate::fuzz::{Case, CODE_BASE, DATA_BASE, DATA_LEN};
use vta_sim::Rng;
use vta_x86::{Asm, Cond, MemRef, Reg, Size};

const GP: [Reg; 6] = [Reg::EAX, Reg::ECX, Reg::EDX, Reg::EBX, Reg::ESI, Reg::EDI];

/// Materialises a spread of conditions into the low byte registers so
/// flag state becomes part of the register comparison.
fn flag_epilogue(asm: &mut Asm) {
    for (i, c) in [Cond::B, Cond::E, Cond::S, Cond::O, Cond::P, Cond::L]
        .iter()
        .enumerate()
    {
        asm.setcc(*c, (i % 4) as u8);
        asm.push_r(Reg::EAX);
        asm.pop_r(Reg::EAX);
    }
}

fn seed_regs(asm: &mut Asm, rng: &mut Rng) {
    for r in GP {
        asm.mov_ri(r, rng.next_u32());
    }
    asm.mov_ri(Reg::EBP, DATA_BASE);
}

/// Valid straight-line instruction streams with broad coverage.
pub fn linear(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);

    let n_ops = 8 + rng.below(32) as usize;
    for _ in 0..n_ops {
        let a = GP[rng.below(6) as usize];
        let b = GP[rng.below(6) as usize];
        let imm = rng.next_u32() as i32;
        match rng.below(34) {
            0 => asm.add_rr(a, b),
            1 => asm.sub_rr(a, b),
            2 => asm.and_rr(a, b),
            3 => asm.or_rr(a, b),
            4 => asm.xor_rr(a, b),
            5 => asm.cmp_rr(a, b),
            6 => asm.test_rr(a, b),
            7 => asm.add_ri(a, imm),
            8 => asm.sub_ri(a, imm),
            9 => asm.adc_rr(a, b),
            10 => asm.sbb_ri(a, imm),
            11 => asm.inc_r(a),
            12 => asm.dec_r(a),
            13 => asm.neg_r(a),
            14 => asm.not_r(a),
            15 => asm.imul_rr(a, b),
            16 => asm.imul_rri(a, b, imm),
            17 => asm.shl_ri(a, rng.below(32) as u8),
            18 => asm.shr_ri(a, rng.below(32) as u8),
            19 => asm.sar_ri(a, rng.below(32) as u8),
            20 => asm.rol_ri(a, rng.below(32) as u8),
            21 => asm.ror_ri(a, rng.below(32) as u8),
            22 => match rng.below(3) {
                0 => asm.shl_rcl(a),
                1 => asm.shr_rcl(a),
                _ => asm.sar_rcl(a),
            },
            23 => asm.setcc(Cond::ALL[rng.below(16) as usize], rng.below(4) as u8),
            24 => asm.cmovcc(Cond::ALL[rng.below(16) as usize], a, b),
            25 => {
                let off = (rng.below(64) * 4) as i32;
                asm.mov_mr(MemRef::base_disp(Reg::EBP, off), a);
                asm.mov_rm(b, MemRef::base_disp(Reg::EBP, off));
            }
            26 => {
                // Guarded divide: nonzero divisor, bounded dividend high half.
                asm.mov_ri(Reg::EDX, 0);
                asm.or_ri(Reg::ECX, 1);
                asm.div_r(Reg::ECX);
            }
            27 => asm.cdq(),
            28 => asm.movzx(
                a,
                b,
                if rng.chance(1, 2) {
                    Size::Byte
                } else {
                    Size::Word
                },
            ),
            29 => asm.movsx(
                a,
                b,
                if rng.chance(1, 2) {
                    Size::Byte
                } else {
                    Size::Word
                },
            ),
            30 => {
                asm.push_r(a);
                asm.pop_r(b);
            }
            31 => asm.xchg_rr(a, b),
            32 => asm.lea(a, MemRef::base_index(b, a, 1 << rng.below(3), imm & 0xFF)),
            33 => asm.mov_ri8(rng.below(8) as u8, rng.next_u32() as u8),
            _ => unreachable!(),
        }
        if rng.chance(1, 3) {
            asm.setcc(Cond::ALL[rng.below(16) as usize], rng.below(4) as u8);
        }
    }
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("linear"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Data-dependent loops and forward branches.
pub fn branchy(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    let seed = rng.next_u32();
    let iters = 20 + (seed & 0x3F);
    asm.mov_ri(Reg::EAX, 0);
    asm.mov_ri(Reg::EBX, seed | 1);
    asm.mov_ri(Reg::ECX, iters);
    asm.mov_ri(Reg::EBP, DATA_BASE);
    let top = asm.here();
    // xorshift-style mixing keeps the branch pattern data-dependent.
    asm.mov_rr(Reg::EDX, Reg::EBX);
    asm.shl_ri(Reg::EDX, (1 + rng.below(20)) as u8);
    asm.xor_rr(Reg::EBX, Reg::EDX);
    asm.mov_rr(Reg::EDX, Reg::EBX);
    asm.shr_ri(Reg::EDX, (1 + rng.below(20)) as u8);
    asm.xor_rr(Reg::EBX, Reg::EDX);
    asm.add_rr(Reg::EAX, Reg::EBX);
    asm.test_ri(Reg::EBX, 1 << rng.below(8));
    let skip = asm.label();
    asm.jcc(Cond::ALL[rng.below(16) as usize], skip);
    asm.add_ri(Reg::EAX, 0x1111);
    asm.mov_mr(
        MemRef::base_disp(Reg::EBP, (rng.below(64) * 4) as i32),
        Reg::EAX,
    );
    asm.bind(skip);
    asm.dec_r(Reg::ECX);
    asm.jcc(Cond::Ne, top);
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("branchy"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Arithmetic/shift/rotate flag stress, including sub-width operations
/// at the shift-count boundaries, with `setcc` after every step.
pub(crate) fn flag_stress(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);

    let n_ops = 6 + rng.below(20) as usize;
    for _ in 0..n_ops {
        let a = GP[rng.below(6) as usize];
        let b = GP[rng.below(6) as usize];
        // Boundary-heavy shift counts: width-1, width, width+1, 31 for
        // every operand width, plus uniform ones.
        let uniform = rng.below(32) as u8;
        let count = [1u8, 7, 8, 9, 15, 16, 17, 31, uniform][rng.below(9) as usize];
        match rng.below(18) {
            0 => asm.add_rr(a, b),
            1 => asm.adc_rr(a, b),
            2 => asm.sbb_rr(a, b),
            3 => asm.neg_r(a),
            4 => asm.shl_ri(a, count),
            5 => asm.shr_ri(a, count),
            6 => asm.sar_ri(a, count),
            7 => asm.rol_ri(a, count),
            8 => asm.ror_ri(a, count),
            9 => {
                asm.mov_ri(Reg::ECX, u32::from(count));
                match rng.below(3) {
                    0 => asm.shl_rcl(a),
                    1 => asm.shr_rcl(a),
                    _ => asm.sar_rcl(a),
                }
            }
            // Sub-width shifts/rotates via raw encodings (0xC0 group /
            // 0x66-prefixed 0xC1 group); ext: rol=0 ror=1 shl=4 shr=5
            // sar=7; modrm 0xC0|ext<<3|reg targets a low byte register.
            10..=12 => {
                let ext = [0u8, 1, 4, 5, 7][rng.below(5) as usize];
                let reg = rng.below(4) as u8; // AL/CL/DL/BL
                asm.raw(&[0xC0, 0xC0 | (ext << 3) | reg, count]);
            }
            13..=14 => {
                let ext = [0u8, 1, 4, 5, 7][rng.below(5) as usize];
                let reg = rng.below(8) as u8; // AX..DI
                asm.raw(&[0x66, 0xC1, 0xC0 | (ext << 3) | reg, count]);
            }
            // Byte/word ALU via raw encodings (00/28/30 families).
            15 => {
                let opc = [0x00u8, 0x28, 0x30, 0x38][rng.below(4) as usize];
                let modrm = 0xC0 | (rng.below(8) as u8) << 3 | rng.below(8) as u8;
                asm.raw(&[opc, modrm]);
            }
            16 => asm.imul_rr(a, b),
            17 => {
                asm.mov_ri(Reg::EDX, rng.below(4) as u32);
                asm.or_ri(Reg::ECX, 1);
                asm.div_r(Reg::ECX);
            }
            _ => unreachable!(),
        }
        // Materialise all interesting flags immediately.
        asm.setcc(Cond::ALL[rng.below(16) as usize], rng.below(4) as u8);
        if rng.chance(1, 2) {
            asm.adc_ri(b, 0); // consume CF into a compared register
        }
    }
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("flag_stress"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Memory traffic: sized loads/stores, string ops, stack churn, and
/// occasional wild pointers.
pub(crate) fn memory(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);
    asm.cld();

    let n_ops = 5 + rng.below(16) as usize;
    for _ in 0..n_ops {
        let a = GP[rng.below(6) as usize];
        let off = (rng.below(u64::from(DATA_LEN) - 64) & !3) as i32;
        match rng.below(12) {
            0 => asm.mov_mr(MemRef::base_disp(Reg::EBP, off), a),
            1 => asm.mov_rm(a, MemRef::base_disp(Reg::EBP, off)),
            2 => asm.mov_mi(MemRef::abs(DATA_BASE + off as u32), rng.next_u32()),
            3 => asm.mov_mi8(MemRef::base_disp(Reg::EBP, off), rng.next_u32() as u8),
            4 => {
                // 8-bit loads/stores need a low-byte-addressable register.
                let lo = GP[rng.below(4) as usize];
                asm.mov_rm8(lo, MemRef::base_disp(Reg::EBP, off));
                asm.mov_mr8(MemRef::base_disp(Reg::EBP, off + 1), lo);
            }
            5 => {
                asm.movzx_m(a, MemRef::base_disp(Reg::EBP, off), Size::Word);
                asm.movsx_m(a, MemRef::base_disp(Reg::EBP, off), Size::Byte);
            }
            6 => {
                asm.add_mr(MemRef::base_disp(Reg::EBP, off), a);
                asm.add_rm(a, MemRef::base_disp(Reg::EBP, off));
            }
            7 => {
                asm.inc_m(MemRef::base_disp(Reg::EBP, off));
                asm.dec_m(MemRef::abs(DATA_BASE + off as u32));
            }
            8 => {
                // rep stos then rep movs within the scratch region.
                asm.mov_ri(Reg::EDI, DATA_BASE);
                asm.mov_ri(Reg::EAX, rng.next_u32());
                asm.mov_ri(Reg::ECX, 1 + rng.below(24) as u32);
                asm.rep_stos(Size::Dword);
                asm.mov_ri(Reg::ESI, DATA_BASE);
                asm.mov_ri(Reg::EDI, DATA_BASE + 0x200);
                asm.mov_ri(Reg::ECX, 1 + rng.below(24) as u32);
                asm.rep_movs(if rng.chance(1, 2) {
                    Size::Dword
                } else {
                    Size::Byte
                });
            }
            9 => {
                asm.push_r(a);
                asm.push_i(rng.next_u32() as i32);
                asm.pop_r(GP[rng.below(6) as usize]);
                asm.pop_r(GP[rng.below(6) as usize]);
            }
            10 => {
                asm.lods(Size::Byte);
                asm.mov_ri(Reg::ESI, DATA_BASE + (rng.below(64) as u32) * 4);
            }
            11 => {
                // Wild pointer: unmapped on both sides (1 in 8 cases).
                if rng.chance(1, 8) {
                    asm.mov_ri(Reg::EBX, 0x7777_0000 | (rng.next_u32() & 0xFFF));
                    asm.mov_mr(MemRef::base_disp(Reg::EBX, 0), a);
                } else {
                    asm.mov_rm(a, MemRef::base_index(Reg::EBP, Reg::ECX, 1, 0));
                    asm.and_ri(Reg::ECX, 0x3F); // keep the index tame next time
                }
            }
            _ => unreachable!(),
        }
    }
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("memory"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Decoder soup: a valid prologue that points registers at safe
/// locations, then raw random bytes with a bias toward prefix- and
/// ModRM/SIB-dense values.
pub fn raw_bytes(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    // Registers point at the scratch region (or small offsets into it),
    // so decoded-by-accident memory operands mostly hit mapped data.
    for r in GP {
        asm.mov_ri(
            r,
            DATA_BASE + (rng.below(u64::from(DATA_LEN) / 2) as u32 & !3),
        );
    }
    asm.mov_ri(Reg::EBP, DATA_BASE + 0x800);

    let n = 4 + rng.below(36) as usize;
    let mut soup = Vec::with_capacity(n);
    for _ in 0..n {
        let b = match rng.below(10) {
            // Plain random byte.
            0..=4 => rng.next_u32() as u8,
            // Opcode-dense region: ALU rows 0x00..0x3F.
            5 | 6 => (rng.next_u32() as u8) & 0x3F,
            // ModRM stress: md/reg/rm patterns around EBP/ESP encodings.
            7 => [0x04u8, 0x05, 0x44, 0x45, 0x84, 0x85, 0x24, 0x25][rng.below(8) as usize],
            // Prefixes and escape bytes.
            8 => [0x66u8, 0x0F, 0xF2, 0xF3][rng.below(4) as usize],
            // Common one-byte ops to keep streams partially decodable.
            _ => [0x90u8, 0x40, 0x48, 0x89, 0x8B, 0xC1, 0xF7, 0xFF][rng.below(8) as usize],
        };
        soup.push(b);
    }
    asm.raw(&soup);
    // No epilogue: soup usually ends in a fault or decodes into hlt-less
    // garbage; the oracle compares whatever stop state results.
    let mut code = asm.finish().code;
    code.push(0xF4); // trailing hlt in case the soup falls through
    Case {
        name: String::from("raw_bytes"),
        code,
        input: Vec::new(),
    }
}

/// Cross-block self-modifying code: block A patches an instruction in
/// block B, then jumps to B.
pub fn smc(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    let imm = rng.next_u32();
    // Block A stores a fresh immediate over the imm32 field of a
    // `mov eax, imm32` in block B, then jumps to B *indirectly*. The
    // store and the patched instruction are in *different* blocks —
    // same-block SMC is outside a block-granular DBT's coherence
    // contract — and the indirect terminator matters: a direct jump
    // lets the optimizer's cross-block flag-liveness scan read B's
    // bytes into A's translation footprint, which turns the patch into
    // (correctly skipped) same-block SMC at `OptLevel::Full`. With an
    // indirect jump A's footprint stays its own, so the patch is
    // compared at both optimization levels.
    asm.mov_ri(Reg::ECX, imm);
    let store_pos = asm.cur_addr();
    asm.mov_mr(MemRef::abs(0), Reg::ECX); // encodes 0x89 /r disp32; patched below
    let target = asm.label();
    asm.mov_ri(Reg::EDX, 0); // imm32 patched to B's address below
    let jmp_pos = asm.cur_addr();
    asm.jmp_r(Reg::EDX);
    asm.bind(target);
    let b_addr = asm.cur_addr();
    asm.mov_ri(Reg::EAX, 0xDEAD_BEEF); // imm32 overwritten at runtime
    asm.add_ri(Reg::EAX, 1);
    flag_epilogue(&mut asm);
    asm.hlt();
    let mut code = asm.finish().code;
    // `mov [abs], ecx` is [0x89, modrm, disp32]: point the disp32 at the
    // imm32 field of B's `mov eax` (one byte past its 0xB8 opcode).
    let disp_off = (store_pos - CODE_BASE) as usize + 2;
    code[disp_off..disp_off + 4].copy_from_slice(&(b_addr + 1).to_le_bytes());
    // Point the `mov edx, imm32` feeding `jmp edx` at block B (the
    // imm32 is the last 4 bytes before the jump).
    let target_off = (jmp_pos - CODE_BASE) as usize - 4;
    code[target_off..target_off + 4].copy_from_slice(&b_addr.to_le_bytes());
    Case {
        name: String::from("smc"),
        code,
        input: Vec::new(),
    }
}

/// Syscall traffic: `write`, `brk`, `read`, `time`, `getpid`, `exit`.
pub fn syscalls(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    let mut input = Vec::new();
    for _ in 0..4 + rng.below(12) {
        input.push(rng.next_u32() as u8);
    }
    asm.mov_ri(Reg::EBP, DATA_BASE);
    let n_ops = 2 + rng.below(6) as usize;
    for _ in 0..n_ops {
        match rng.below(5) {
            0 => {
                // write(1, DATA, n) after seeding a word there.
                asm.mov_mi(MemRef::abs(DATA_BASE), rng.next_u32());
                asm.mov_ri(Reg::EAX, 4);
                asm.mov_ri(Reg::EBX, 1);
                asm.mov_ri(Reg::ECX, DATA_BASE);
                asm.mov_ri(Reg::EDX, 1 + rng.below(4) as u32);
                asm.int_(0x80);
            }
            1 => {
                // brk(0) then a small grow.
                asm.mov_ri(Reg::EAX, 45);
                asm.mov_ri(Reg::EBX, 0);
                asm.int_(0x80);
                asm.mov_rr(Reg::ESI, Reg::EAX);
                asm.mov_ri(Reg::EAX, 45);
                asm.lea(Reg::EBX, MemRef::base_disp(Reg::ESI, 0x1000));
                asm.int_(0x80);
            }
            2 => {
                // read(0, DATA+0x100, n) from the synthetic input.
                asm.mov_ri(Reg::EAX, 3);
                asm.mov_ri(Reg::EBX, 0);
                asm.mov_ri(Reg::ECX, DATA_BASE + 0x100);
                asm.mov_ri(Reg::EDX, 1 + rng.below(8) as u32);
                asm.int_(0x80);
            }
            3 => {
                // time() / getpid() fold into the register state.
                asm.mov_ri(Reg::EAX, if rng.chance(1, 2) { 13 } else { 20 });
                asm.int_(0x80);
                asm.add_rr(Reg::EDI, Reg::EAX);
            }
            4 => {
                // An unsupported interrupt vector faults identically.
                if rng.chance(1, 6) {
                    asm.int_((rng.below(255) as u8) | 1); // never 0x80 (even)
                } else {
                    asm.nop();
                }
            }
            _ => unreachable!(),
        }
    }
    if rng.chance(1, 2) {
        asm.mov_ri(Reg::EAX, rng.below(256) as u32);
        asm.exit_with_eax();
    } else {
        asm.hlt();
    }
    Case {
        name: String::from("syscalls"),
        code: asm.finish().code,
        input,
    }
}

/// Registers a superblock-shaped loop body may clobber freely: every
/// general-purpose register except `ECX` (the loop counter) and `EBP`
/// (the data-region base).
const SB_SAFE: [Reg; 4] = [Reg::EAX, Reg::EDX, Reg::EBX, Reg::ESI];

/// Hot loops over chains of small blocks linked by direct jumps and
/// mostly-not-taken forward branches. At `OptLevel::Full` the loop
/// branch promotes the loop head, one iteration records the path the
/// branches took, and later iterations run the region formed along it.
/// The forward branches test data-dependent bits, so some iterations
/// leave the recorded path through a side exit mid-region; the loop
/// branch closes the recording and the region through dispatch.
pub(crate) fn superblock(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);
    asm.mov_ri(Reg::ECX, 12 + rng.below(48) as u32);
    let top = asm.here();
    let n_links = 2 + rng.below(4) as usize;
    for _ in 0..n_links {
        for _ in 0..1 + rng.below(4) {
            let a = SB_SAFE[rng.below(4) as usize];
            let b = SB_SAFE[rng.below(4) as usize];
            match rng.below(6) {
                0 => asm.add_rr(a, b),
                1 => asm.xor_rr(a, b),
                2 => asm.add_ri(a, rng.next_u32() as i32),
                3 => asm.rol_ri(a, 1 + rng.below(31) as u8),
                4 => asm.mov_mr(MemRef::base_disp(Reg::EBP, (rng.below(64) * 4) as i32), a),
                _ => asm.setcc(Cond::ALL[rng.below(16) as usize], rng.below(4) as u8),
            }
        }
        match rng.below(3) {
            0 => {
                // Direct-jump link: ends the member, region continues.
                let l = asm.label();
                asm.jmp(l);
                asm.bind(l);
            }
            1 => {
                // Forward branch over a small chunk: predicted
                // fall-through, occasionally a mid-region side exit.
                asm.test_ri(Reg::EBX, 1 << rng.below(10));
                let skip = asm.label();
                asm.jcc(Cond::ALL[rng.below(16) as usize], skip);
                asm.add_ri(SB_SAFE[rng.below(4) as usize], 0x101);
                asm.bind(skip);
            }
            _ => {} // plain fall-through into the next link
        }
    }
    // Keep the branch-feeding bits churning across iterations.
    asm.add_rr(Reg::EBX, Reg::ESI);
    asm.rol_ri(Reg::EBX, 7);
    asm.dec_r(Reg::ECX);
    asm.jcc(Cond::Ne, top);
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("superblock"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Ret-heavy call trees and data-dependent computed jumps through an
/// in-memory table: the workload shape the indirect-target inline cache
/// exists for. Every `ret` and the table `jmp` leave the translated
/// block through the indirect path.
pub(crate) fn indirect_chain(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);
    let l_main = asm.label();
    asm.jmp(l_main);

    // Small subroutines; clobber only SB_SAFE so the loop counter and
    // data base survive.
    let n_subs = 2 + rng.below(3) as usize;
    let mut subs = Vec::new();
    for _ in 0..n_subs {
        let l = asm.here();
        for _ in 0..1 + rng.below(3) {
            let a = SB_SAFE[rng.below(4) as usize];
            let b = SB_SAFE[rng.below(4) as usize];
            match rng.below(4) {
                0 => asm.add_rr(a, b),
                1 => asm.xor_rr(a, b),
                2 => asm.add_ri(a, rng.next_u32() as i32),
                _ => asm.rol_ri(a, 1 + rng.below(31) as u8),
            }
        }
        asm.ret();
        subs.push(l);
    }

    // Landing pads for the computed jump; each resumes the loop.
    let l_resume = asm.label();
    let n_pads: u32 = if rng.chance(1, 2) { 2 } else { 4 };
    let mut pad_addrs = Vec::new();
    for _ in 0..n_pads {
        pad_addrs.push(asm.cur_addr());
        asm.add_ri(SB_SAFE[rng.below(4) as usize], rng.next_u32() as i32);
        asm.jmp(l_resume);
    }

    asm.bind(l_main);
    // Jump table in the scratch region (pad addresses are known by now).
    let table = 0x400i32;
    for (i, &a) in pad_addrs.iter().enumerate() {
        asm.mov_mi(MemRef::abs(DATA_BASE + 0x400 + 4 * i as u32), a);
    }
    asm.mov_ri(Reg::ECX, 8 + rng.below(24) as u32);
    let top = asm.here();
    for _ in 0..1 + rng.below(3) {
        asm.call(subs[rng.below(u64::from(n_subs as u32)) as usize]);
    }
    // Data-dependent pad selection through the table.
    asm.mov_rr(Reg::EDX, Reg::EBX);
    asm.shr_ri(Reg::EDX, rng.below(8) as u8);
    asm.and_ri(Reg::EDX, n_pads as i32 - 1);
    asm.jmp_m(MemRef::base_index(Reg::EBP, Reg::EDX, 4, table));
    asm.bind(l_resume);
    asm.add_rr(Reg::EBX, Reg::ESI);
    asm.dec_r(Reg::ECX);
    asm.jcc(Cond::Ne, top);
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("indirect_chain"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Self-modifying code that patches a *later member of the same
/// superblock region* on every pass of a loop. At `OptLevel::Full` the
/// backedge promotes the loop head, one pass records `top -> fill.. ->
/// patched`, and every later pass runs that region, whose entry member
/// stores into the last one. Coherent execution depends entirely on the
/// member-boundary `SmcGuard` exiting to the first filler before the
/// patched bytes run; single blocks then carry the pass to the backedge
/// (at `OptLevel::None` the same bytes are ordinary cross-block SMC).
/// Two shapes:
///
/// * the store writes the pass's value over the imm32 of `mov eax,
///   imm32`, and the first filler opens with a flag-killing `add`, so no
///   single block's flag scan reads the patched bytes;
/// * the store flips the patched member's `add esi, eax` to `adc esi,
///   eax` every other pass, right after a `cmp` sets CF, and two long
///   flag-preserving fillers run the resume point's flag scan out of
///   depth before the `add`: CF is live at the guard only because that
///   scan says so, which is what keeps the flag the `adc` reads.
pub fn region_smc(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);
    let flip = rng.chance(1, 2);
    let passes = 4 + rng.below(12) as u32;
    asm.mov_ri(Reg::ECX, passes);
    let top = asm.here();
    asm.mov_rr(Reg::EDX, Reg::ECX);
    // The store's disp32 is patched below.
    let store_pos;
    if flip {
        // EDX = the `add` opcode, with 0x10 (making it `adc`) on odd passes.
        asm.and_ri(Reg::EDX, 1);
        asm.shl_ri(Reg::EDX, 4);
        asm.or_ri(Reg::EDX, 0x01);
        asm.cmp_ri(Reg::ECX, 1 + rng.below(u64::from(passes)) as i32);
        store_pos = asm.cur_addr();
        asm.mov_mr8(MemRef::abs(0), Reg::EDX);
    } else {
        asm.imul_rri(Reg::EDX, Reg::EDX, rng.next_u32() as i32);
        store_pos = asm.cur_addr();
        asm.mov_mr(MemRef::abs(0), Reg::EDX);
    }
    let n_fill = if flip { 2 } else { 1 + rng.below(2) as usize };
    let mut l_next = asm.label();
    asm.jmp(l_next);
    for i in 0..n_fill {
        asm.bind(l_next);
        if flip {
            // 23..30 instructions that write no flag: with both fillers'
            // jumps, at least 48 decodes (the scan's depth) before the
            // patched member.
            for _ in 0..23 + rng.below(8) {
                let r = [Reg::EAX, Reg::EDI, Reg::EBP][rng.below(3) as usize];
                match rng.below(3) {
                    0 => asm.mov_ri(r, rng.next_u32()),
                    1 => asm.lea(r, MemRef::base_disp(Reg::EDI, rng.next_u32() as i8 as i32)),
                    _ => asm.not_r(r),
                }
            }
        } else {
            if i == 0 {
                asm.add_ri(Reg::ESI, rng.next_u32() as i32);
            }
            for _ in 0..rng.below(3) {
                asm.add_ri(Reg::EDI, rng.next_u32() as i32);
            }
        }
        l_next = asm.label();
        asm.jmp(l_next);
    }
    asm.bind(l_next);
    let imm_addr = asm.cur_addr() + 1;
    // A small addend when the opcode flips, so the `add` leaves CF clear
    // and the `adc` depends on the `cmp`'s CF.
    let addend = if flip {
        rng.below(0x1_0000) as u32
    } else {
        0xDEAD_BEEF
    };
    asm.mov_ri(Reg::EAX, addend); // imm32 overwritten at runtime, unless flipping
    let op_addr = asm.cur_addr();
    // add esi, eax (its opcode byte flipped at runtime): ESI, which the
    // flag epilogue's setcc writes leave whole.
    asm.raw(&[0x01, 0xC6]);
    asm.dec_r(Reg::ECX);
    asm.jcc(Cond::Ne, top);
    flag_epilogue(&mut asm);
    asm.hlt();
    let mut code = asm.finish().code;
    // `mov [abs], r` is [0x88 / 0x89, modrm, disp32]: point the disp32 at
    // the patched bytes.
    let target = if flip { op_addr } else { imm_addr };
    let disp_off = (store_pos - CODE_BASE) as usize + 2;
    code[disp_off..disp_off + 4].copy_from_slice(&target.to_le_bytes());
    Case {
        name: String::from("region_smc"),
        code,
        input: Vec::new(),
    }
}

/// Hot loops whose junctions go a data-dependent way — the workload
/// shape runtime path recording exists for, which the oracle's
/// `OptLevel::Full` run turns into `translate_region_along` regions. Some
/// junctions test bits of `EDI`, which the body never writes: those go
/// the same way every iteration, so the recorded path holds and the
/// region runs end to end. Others test bits of `EBX`, which churns
/// every iteration: the recorded arm stops holding and the region must
/// side-exit through its guards to exactly the address single-block
/// execution reaches. A leaf `call`/`ret` pair adds the indirect exit
/// a recording crosses under an inline target guard.
pub fn recorded_path(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);
    let l_main = asm.label();
    asm.jmp(l_main);

    // The leaf subroutine (clobbers only SB_SAFE registers).
    let sub = asm.here();
    for _ in 0..1 + rng.below(3) {
        let a = SB_SAFE[rng.below(4) as usize];
        match rng.below(3) {
            0 => asm.add_ri(a, rng.next_u32() as i32),
            1 => asm.rol_ri(a, 1 + rng.below(31) as u8),
            _ => asm.xor_rr(a, SB_SAFE[rng.below(4) as usize]),
        }
    }
    asm.ret();

    asm.bind(l_main);
    asm.mov_ri(Reg::ECX, 24 + rng.below(48) as u32);
    let top = asm.here();
    let n_junctions = 1 + rng.below(3) as usize;
    for _ in 0..n_junctions {
        let stable = rng.chance(1, 2);
        asm.test_ri(if stable { Reg::EDI } else { Reg::EBX }, 1 << rng.below(10));
        let arm = asm.label();
        let join = asm.label();
        asm.jcc(if rng.chance(1, 2) { Cond::E } else { Cond::Ne }, arm);
        asm.add_ri(SB_SAFE[rng.below(4) as usize], rng.next_u32() as i32);
        asm.jmp(join);
        asm.bind(arm);
        asm.xor_rr(
            SB_SAFE[rng.below(4) as usize],
            SB_SAFE[rng.below(4) as usize],
        );
        asm.bind(join);
    }
    if rng.chance(2, 3) {
        asm.call(sub);
    }
    // Churn the unstable junction bits across iterations.
    asm.add_rr(Reg::EBX, Reg::ESI);
    asm.rol_ri(Reg::EBX, 5);
    asm.dec_r(Reg::ECX);
    asm.jcc(Cond::Ne, top);
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("recorded_path"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// Straight-line one-operand widening multiplies and signed divides,
/// with a `setcc` after every step. Most divides sign-extend the
/// dividend first (`cdq`, so the quotient fits); one in eight divides
/// whatever `EDX:EAX` the stream left, so quotient overflow is compared
/// too.
pub fn wide_arith(rng: &mut Rng) -> Case {
    let mut asm = Asm::new(CODE_BASE);
    seed_regs(&mut asm, rng);

    let n_ops = 4 + rng.below(16) as usize;
    for _ in 0..n_ops {
        let a = GP[rng.below(6) as usize];
        match rng.below(3) {
            0 => asm.mul_r(a),
            1 => asm.imul_r(a),
            _ => {
                if !rng.chance(1, 8) {
                    asm.cdq();
                }
                asm.or_ri(Reg::ECX, 1);
                asm.idiv_r(Reg::ECX);
            }
        }
        asm.setcc(Cond::ALL[rng.below(16) as usize], rng.below(4) as u8);
    }
    flag_epilogue(&mut asm);
    asm.hlt();
    Case {
        name: String::from("wide_arith"),
        code: asm.finish().code,
        input: Vec::new(),
    }
}

/// A deterministic stream of cases drawn from every generator family
/// in the rotation (all but [`wide_arith`]).
///
/// Iterating yields `linear`, `branchy`, `flag_stress`, `memory`,
/// `raw_bytes`, `smc`, `syscalls`, `superblock`, `indirect_chain`,
/// `region_smc`, and `recorded_path` cases in a fixed weighted
/// rotation; the same seed always produces the same stream.
pub struct CaseStream {
    rng: Rng,
    seed: u64,
    idx: u64,
}

impl CaseStream {
    /// Creates a stream for one seed.
    pub fn new(seed: u64) -> Self {
        CaseStream {
            rng: Rng::seeded(seed),
            seed,
            idx: 0,
        }
    }
}

impl Iterator for CaseStream {
    type Item = Case;

    fn next(&mut self) -> Option<Case> {
        let mut case = match self.rng.below(14) {
            0 | 1 => linear(&mut self.rng),
            2 => branchy(&mut self.rng),
            3 | 4 => flag_stress(&mut self.rng),
            5 => memory(&mut self.rng),
            6 | 7 => raw_bytes(&mut self.rng),
            8 => smc(&mut self.rng),
            9 => syscalls(&mut self.rng),
            10 => superblock(&mut self.rng),
            11 => indirect_chain(&mut self.rng),
            12 => region_smc(&mut self.rng),
            _ => recorded_path(&mut self.rng),
        };
        case.name = format!("{}-{:#x}#{}", case.name, self.seed, self.idx);
        self.idx += 1;
        Some(case)
    }
}
