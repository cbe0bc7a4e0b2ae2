//! Differential testing: translated host code vs the reference interpreter.
//!
//! Hand-written guest programs, one per front-end feature, each judged by
//! the fuzz oracle ([`vta_ir::fuzz::run_image`]): stop reason, registers,
//! guest memory and syscall output must match `vta_x86::Cpu` exactly, at
//! both optimization levels — at `Full` under the regions the DBT's
//! path-recording protocol forms. A `Skip` fails: every program here is
//! small enough to be comparable.

use vta_ir::fuzz::{gen, run_case, run_image, Verdict, CODE_BASE as BASE, DATA_BASE as DATA};
use vta_sim::Rng;
use vta_x86::{Asm, Cond, GuestImage, Reg, Size};

fn check(image: &GuestImage) {
    assert_eq!(run_image(image), Verdict::Pass);
}

fn image(f: impl FnOnce(&mut Asm)) -> GuestImage {
    let mut asm = Asm::new(BASE);
    f(&mut asm);
    GuestImage::from_code(asm.finish()).with_bss(DATA, 0x1000)
}

#[test]
fn arithmetic_loop() {
    check(&image(|a| {
        a.mov_ri(Reg::ECX, 1000);
        a.mov_ri(Reg::EAX, 0);
        let top = a.here();
        a.add_rr(Reg::EAX, Reg::ECX);
        a.dec_r(Reg::ECX);
        a.jcc(Cond::Ne, top);
        a.hlt();
    }));
}

#[test]
fn call_ret_and_stack() {
    check(&image(|a| {
        let f = a.label();
        a.mov_ri(Reg::EAX, 3);
        a.push_r(Reg::EAX);
        a.call(f);
        a.pop_r(Reg::ECX);
        a.add_rr(Reg::EAX, Reg::ECX);
        a.hlt();
        a.bind(f);
        a.imul_rri(Reg::EAX, Reg::EAX, 111);
        a.ret();
    }));
}

#[test]
fn memory_matrix_walk() {
    check(&image(|a| {
        a.mov_ri(Reg::EBX, DATA);
        a.mov_ri(Reg::ECX, 64);
        let top = a.here();
        // [ebx + ecx*4] = ecx * 3
        a.lea(
            Reg::EAX,
            vta_x86::MemRef::base_index(Reg::ECX, Reg::ECX, 2, 0),
        );
        a.mov_mr(
            vta_x86::MemRef::base_index(Reg::EBX, Reg::ECX, 4, 0),
            Reg::EAX,
        );
        a.dec_r(Reg::ECX);
        a.jcc(Cond::Ne, top);
        // Sum them back.
        a.mov_ri(Reg::ECX, 64);
        a.mov_ri(Reg::EDX, 0);
        let top2 = a.here();
        a.add_rm(
            Reg::EDX,
            vta_x86::MemRef::base_index(Reg::EBX, Reg::ECX, 4, 0),
        );
        a.dec_r(Reg::ECX);
        a.jcc(Cond::Ne, top2);
        a.mov_rr(Reg::EAX, Reg::EDX);
        a.hlt();
    }));
}

#[test]
fn division_and_widening_mul() {
    check(&image(|a| {
        a.mov_ri(Reg::EAX, 0x1234_5678);
        a.mov_ri(Reg::ECX, 0x9ABC);
        a.mul_r(Reg::ECX); // EDX:EAX wide product
        a.mov_ri(Reg::ECX, 77);
        a.div_r(Reg::ECX);
        a.mov_rr(Reg::EBX, Reg::EDX);
        a.mov_ri(Reg::EAX, (-100_000i32) as u32);
        a.cdq();
        a.mov_ri(Reg::ECX, 333);
        a.idiv_r(Reg::ECX);
        a.hlt();
    }));
}

#[test]
fn flags_consumed_across_blocks() {
    check(&image(|a| {
        // Flags set in one block, consumed after a direct jump.
        a.mov_ri(Reg::EAX, 5);
        a.cmp_ri(Reg::EAX, 9);
        let l = a.label();
        a.jmp(l);
        a.bind(l);
        a.setcc(Cond::L, 0); // AL = (5 < 9)
        a.setcc(Cond::B, 1); // CL = (5 <u 9)
        a.setcc(Cond::O, 2); // DL
        a.setcc(Cond::P, 3); // BL
        a.adc_ri(Reg::ESI, 7); // consumes CF
        a.hlt();
    }));
}

#[test]
fn string_ops() {
    check(&image(|a| {
        a.cld();
        // Fill 32 dwords with a pattern.
        a.mov_ri(Reg::EDI, DATA);
        a.mov_ri(Reg::EAX, 0xA5A5_0101);
        a.mov_ri(Reg::ECX, 32);
        a.rep_stos(Size::Dword);
        // Copy them.
        a.mov_ri(Reg::ESI, DATA);
        a.mov_ri(Reg::EDI, DATA + 0x200);
        a.mov_ri(Reg::ECX, 32);
        a.rep_movs(Size::Dword);
        // Load one back.
        a.mov_ri(Reg::ESI, DATA + 0x200 + 12);
        a.lods(Size::Dword);
        a.hlt();
    }));
}

#[test]
fn repne_scas_finds_byte() {
    check(&image(|a| {
        a.cld();
        // Memory is zero; store a sentinel at DATA+37.
        a.mov_mi8(vta_x86::MemRef::abs(DATA + 37), 0x7F);
        a.mov_ri(Reg::EDI, DATA);
        a.mov_ri(Reg::EAX, 0x7F);
        a.mov_ri(Reg::ECX, 100);
        a.raw(&[0xF2, 0xAE]); // repne scasb
        a.setcc(Cond::E, 2); // DL = found?
        a.hlt();
    }));
}

#[test]
fn jump_table_dispatch() {
    // Build a three-way jump table in guest memory.
    let mut asm = Asm::new(BASE);
    let mut cases = Vec::new();
    let done = asm.label();
    asm.mov_ri(Reg::ECX, 2);
    asm.mov_rm(
        Reg::EDX,
        vta_x86::MemRef {
            base: None,
            index: Some((Reg::ECX, 4)),
            disp: DATA as i32,
        },
    );
    asm.jmp_r(Reg::EDX);
    for v in [111u32, 222, 333] {
        let here = asm.cur_addr();
        cases.push(here);
        asm.mov_ri(Reg::EAX, v);
        asm.jmp(done);
    }
    asm.bind(done);
    asm.hlt();
    let mut table = Vec::new();
    for c in &cases {
        table.extend_from_slice(&c.to_le_bytes());
    }
    let img = GuestImage::from_code(asm.finish()).with_data(DATA, table);
    check(&img);
}

#[test]
fn syscall_write_and_exit() {
    check(&image(|a| {
        a.mov_ri(Reg::EAX, 4);
        a.mov_ri(Reg::EBX, 1);
        a.mov_ri(Reg::ECX, DATA);
        a.mov_mi(vta_x86::MemRef::abs(DATA), u32::from_le_bytes(*b"pong"));
        a.mov_ri(Reg::EDX, 4);
        a.int_(0x80);
        a.mov_ri(Reg::EAX, 55);
        a.exit_with_eax();
    }));
}

#[test]
fn high_and_word_registers() {
    check(&image(|a| {
        a.mov_ri(Reg::EAX, 0x1122_3344);
        a.mov_ri8(4, 0xAB); // AH
        a.mov_ri8(0, 0xCD); // AL
        a.raw(&[0x66, 0xBB, 0x77, 0x66]); // mov bx, 0x6677
        a.mov_ri(Reg::ECX, 0);
        a.movzx(Reg::ECX, Reg::EAX, Size::Byte); // ECX = AL
        a.movsx(Reg::EDX, Reg::EAX, Size::Byte); // EDX = sext(AL)
        a.hlt();
    }));
}

#[test]
fn cmov_and_setcc_matrix() {
    check(&image(|a| {
        a.mov_ri(Reg::EAX, 10);
        a.mov_ri(Reg::EBX, 20);
        a.cmp_rr(Reg::EAX, Reg::EBX);
        a.cmovcc(Cond::L, Reg::ESI, Reg::EBX);
        a.cmovcc(Cond::G, Reg::EDI, Reg::EBX);
        a.setcc(Cond::Le, 2);
        a.hlt();
    }));
}

#[test]
fn divide_fault_matches() {
    check(&image(|a| {
        a.mov_ri(Reg::EAX, 1);
        a.mov_ri(Reg::EDX, 0);
        a.mov_ri(Reg::ECX, 0);
        a.div_r(Reg::ECX);
        a.hlt();
    }));
}

/// Seeded straight-line and branchy programs from the fuzz generators.
#[test]
fn generated_programs_match() {
    let mut rng = Rng::seeded(0xD1FF);
    for i in 0..300 {
        let case = gen::linear(&mut rng);
        assert_eq!(run_case(&case), Verdict::Pass, "linear[{i}]");
    }
    let mut rng = Rng::seeded(0xB4A7C4);
    for i in 0..100 {
        let case = gen::branchy(&mut rng);
        assert_eq!(run_case(&case), Verdict::Pass, "branchy[{i}]");
    }
}

#[test]
fn word_and_byte_alu_differential() {
    check(&image(|a| {
        a.mov_ri(Reg::EAX, 0xAABB_CCDD);
        a.mov_ri(Reg::EBX, 0x1122_3344);
        // 16-bit adds/compares via the 0x66 prefix.
        a.raw(&[0x66, 0x01, 0xD8]); // add ax, bx
        a.raw(&[0x66, 0x39, 0xC3]); // cmp bx, ax
        a.setcc(Cond::B, 2);
        // Byte ALU incl. high-byte registers.
        a.raw(&[0x00, 0xE0]); // add al, ah
        a.raw(&[0x28, 0xFB]); // sub bl, bh
        a.raw(&[0x66, 0xC1, 0xE0, 0x05]); // shl ax, 5
        a.setcc(Cond::O, 1);
        a.hlt();
    }));
}

#[test]
fn syscalls_brk_read_time_differential() {
    let img = image(|a| {
        // brk(0) → current break; brk(base + 0x2000) → grow.
        a.mov_ri(Reg::EAX, 45);
        a.mov_ri(Reg::EBX, 0);
        a.int_(0x80);
        a.mov_rr(Reg::ESI, Reg::EAX);
        a.mov_ri(Reg::EAX, 45);
        a.lea(Reg::EBX, vta_x86::MemRef::base_disp(Reg::ESI, 0x2000));
        a.int_(0x80);
        // read(0, brk_base, 8) from the synthetic input.
        a.mov_ri(Reg::EAX, 3);
        a.mov_ri(Reg::EBX, 0);
        a.mov_rr(Reg::ECX, Reg::ESI);
        a.mov_ri(Reg::EDX, 8);
        a.int_(0x80);
        // Echo what was read back out.
        a.mov_ri(Reg::EAX, 4);
        a.mov_ri(Reg::EBX, 1);
        a.mov_ri(Reg::EDX, 8);
        a.int_(0x80);
        // time() and getpid() land in the checksum.
        a.mov_ri(Reg::EAX, 13);
        a.int_(0x80);
        a.mov_rr(Reg::EDI, Reg::EAX);
        a.mov_ri(Reg::EAX, 20);
        a.int_(0x80);
        a.add_rr(Reg::EAX, Reg::EDI);
        a.exit_with_eax();
    })
    .with_input(b"hello678trailing".to_vec());
    check(&img);
}
