//! Decoder and loader edge cases: tables, then seeded loops.
//!
//! The tables cover where IA-32's addressing-mode escape hatches
//! live — EBP loses its base role at `mod == 0`, ESP in the `rm` field
//! means "SIB follows", index 4 means "no index" — exactly
//! the shapes raw-byte differential fuzzing leans on. Each table row
//! decodes a hand-assembled byte string and checks the full decoded
//! form (op, size, operands, length).
//!
//! The seeded loops (`vta_sim::Rng`, fixed seeds) hold the two
//! boundaries guest bytes cross: whatever the assembler emits decodes
//! back to the same operands, and nothing a guest can supply — byte
//! soup to the decoder, a mutated ELF to the loader — panics.

use vta_sim::Rng;
use vta_x86::decode::{decode, DecodeError, SliceSource, MAX_INSN_LEN};
use vta_x86::{elf, Asm, Cond, GuestMem, Insn, MemRef, Op, Operand, Reg, Size, PAGE_SIZE};

const BASE: u32 = 0x0800_0000;

fn decode_one(bytes: &[u8]) -> Result<Insn, DecodeError> {
    let src = SliceSource::new(BASE, bytes);
    decode(&src, BASE)
}

fn mem(insn: &Insn) -> MemRef {
    match insn.src {
        Some(Operand::Mem(m)) => m,
        other => panic!("expected memory src, got {other:?}"),
    }
}

#[test]
fn modrm_ebp_base_needs_disp() {
    // mod == 1: EBP base with sign-extended disp8, both signs.
    let rows: [(&[u8], i32); 3] = [
        (&[0x8B, 0x45, 0x08], 8),  // mov eax, [ebp+8]
        (&[0x8B, 0x45, 0xFC], -4), // mov eax, [ebp-4]
        (&[0x8B, 0x45, 0x00], 0),  // mov eax, [ebp+0] — canonical [ebp]
    ];
    for (bytes, disp) in rows {
        let insn = decode_one(bytes).expect("decodes");
        assert_eq!(insn.op, Op::Mov);
        assert_eq!(insn.len as usize, bytes.len());
        assert_eq!(
            mem(&insn),
            MemRef {
                base: Some(Reg::EBP),
                index: None,
                disp
            },
            "bytes {bytes:02x?}"
        );
    }

    // mod == 2: EBP base with disp32.
    let insn = decode_one(&[0x8B, 0x85, 0x80, 0x00, 0x00, 0x00]).expect("decodes");
    assert_eq!(insn.len, 6);
    assert_eq!(mem(&insn), MemRef::base_disp(Reg::EBP, 0x80));

    // mod == 0, rm == 5 is NOT [ebp]: it is absolute disp32.
    let insn = decode_one(&[0x8B, 0x05, 0x44, 0x33, 0x22, 0x11]).expect("decodes");
    assert_eq!(insn.len, 6);
    assert_eq!(mem(&insn), MemRef::abs(0x1122_3344));
}

#[test]
fn sib_index_and_base_escapes() {
    // SIB with index 4 = no index: mov eax, [esp].
    let insn = decode_one(&[0x8B, 0x04, 0x24]).expect("decodes");
    assert_eq!(insn.len, 3);
    assert_eq!(
        mem(&insn),
        MemRef {
            base: Some(Reg::ESP),
            index: None,
            disp: 0
        }
    );

    // SIB base 5 at mod == 0 = no base, disp32 follows (index kept).
    let insn = decode_one(&[0x8B, 0x04, 0x8D, 0x44, 0x33, 0x22, 0x11]).expect("decodes");
    assert_eq!(insn.len, 7);
    assert_eq!(
        mem(&insn),
        MemRef {
            base: None,
            index: Some((Reg::ECX, 4)),
            disp: 0x1122_3344
        }
    );

    // SIB base 5 at mod == 0 with index 4 too: bare [disp32] via SIB.
    let insn = decode_one(&[0x8B, 0x04, 0x25, 0x44, 0x33, 0x22, 0x11]).expect("decodes");
    assert_eq!(insn.len, 7);
    assert_eq!(
        mem(&insn),
        MemRef {
            base: None,
            index: None,
            disp: 0x1122_3344
        }
    );

    // SIB base 5 at mod == 1 IS an EBP base (plus disp8 and index).
    let insn = decode_one(&[0x8B, 0x44, 0x8D, 0x10]).expect("decodes");
    assert_eq!(insn.len, 4);
    assert_eq!(
        mem(&insn),
        MemRef {
            base: Some(Reg::EBP),
            index: Some((Reg::ECX, 4)),
            disp: 0x10
        }
    );

    // Scale bits apply even with an EBP base: [ebp+esi*8-0x20].
    let insn = decode_one(&[0x8B, 0x44, 0xF5, 0xE0]).expect("decodes");
    assert_eq!(
        mem(&insn),
        MemRef {
            base: Some(Reg::EBP),
            index: Some((Reg::ESI, 8)),
            disp: -0x20
        }
    );
}

#[test]
fn operand_size_prefix_narrows_to_word() {
    // 66 8b 45 08: mov ax, [ebp+8] — Word size, same addressing form.
    let insn = decode_one(&[0x66, 0x8B, 0x45, 0x08]).expect("decodes");
    assert_eq!(insn.op, Op::Mov);
    assert_eq!(insn.size, Size::Word);
    assert_eq!(insn.len, 4);
    assert_eq!(mem(&insn), MemRef::base_disp(Reg::EBP, 8));

    // 66 05 imm16: add ax, 0x1234 — the immediate narrows with the size.
    let insn = decode_one(&[0x66, 0x05, 0x34, 0x12]).expect("decodes");
    assert_eq!(insn.op, Op::Add);
    assert_eq!(insn.size, Size::Word);
    assert_eq!(insn.len, 4);
    assert_eq!(insn.dst, Some(Operand::Reg(Reg::EAX)));
    assert_eq!(insn.src, Some(Operand::Imm(0x1234)));

    // 66 c1 e0 05: shl ax, 5 — shift count stays a byte immediate.
    let insn = decode_one(&[0x66, 0xC1, 0xE0, 0x05]).expect("decodes");
    assert_eq!(insn.op, Op::Shl);
    assert_eq!(insn.size, Size::Word);
    assert_eq!(insn.src, Some(Operand::Imm(5)));
}

#[test]
fn lea_requires_memory_operand() {
    // lea with mod == 3 (register source) is #UD on hardware; the
    // decoder must reject it rather than hand Op::Lea a register
    // operand (both execution paths used to panic on it — see the
    // lea-reg-reg-ud corpus entry).
    for modrm in [0xC0u8, 0xD8, 0xFF] {
        match decode_one(&[0x8D, modrm]) {
            Err(DecodeError::Unsupported { opcode: 0x8D, .. }) => {}
            other => panic!("lea mod==3 (modrm {modrm:#04x}) decoded to {other:?}"),
        }
    }

    // The memory forms still decode fine.
    let insn = decode_one(&[0x8D, 0x44, 0x24, 0x10]).expect("decodes");
    assert_eq!(insn.op, Op::Lea);
    assert_eq!(
        mem(&insn),
        MemRef {
            base: Some(Reg::ESP),
            index: None,
            disp: 0x10
        }
    );
}

/// One ALU row of the assembler: the decoded op and its four emitters.
type AluRow = (
    Op,
    fn(&mut Asm, Reg, Reg),
    fn(&mut Asm, Reg, i32),
    fn(&mut Asm, Reg, MemRef),
    fn(&mut Asm, MemRef, Reg),
);

const ALU: [AluRow; 8] = [
    (Op::Add, Asm::add_rr, Asm::add_ri, Asm::add_rm, Asm::add_mr),
    (Op::Or, Asm::or_rr, Asm::or_ri, Asm::or_rm, Asm::or_mr),
    (Op::Adc, Asm::adc_rr, Asm::adc_ri, Asm::adc_rm, Asm::adc_mr),
    (Op::Sbb, Asm::sbb_rr, Asm::sbb_ri, Asm::sbb_rm, Asm::sbb_mr),
    (Op::And, Asm::and_rr, Asm::and_ri, Asm::and_rm, Asm::and_mr),
    (Op::Sub, Asm::sub_rr, Asm::sub_ri, Asm::sub_rm, Asm::sub_mr),
    (Op::Xor, Asm::xor_rr, Asm::xor_ri, Asm::xor_rm, Asm::xor_mr),
    (Op::Cmp, Asm::cmp_rr, Asm::cmp_ri, Asm::cmp_rm, Asm::cmp_mr),
];

fn random_reg(rng: &mut Rng) -> Reg {
    Reg::ALL[rng.below(8) as usize]
}

/// Any encodable memory operand (ESP cannot be an index register).
fn random_memref(rng: &mut Rng) -> MemRef {
    let base = rng.chance(1, 2).then(|| random_reg(rng));
    let index = rng
        .chance(1, 2)
        .then(|| (random_reg(rng), 1u8 << rng.below(4)))
        .filter(|&(r, _)| r != Reg::ESP);
    let disp = match rng.below(3) {
        0 => 0,
        1 => rng.next_u32() as i8 as i32,
        _ => rng.next_u32() as i32,
    };
    MemRef { base, index, disp }
}

/// What one emitted instruction must decode back to.
type Check = Box<dyn Fn(&Insn)>;

fn operands(op: Op, dst: Operand, src: Operand) -> Check {
    Box::new(move |i| assert_eq!((i.op, i.dst, i.src), (op, Some(dst), Some(src)), "{i:?}"))
}

fn conditional(op: Op, cond: Cond) -> Check {
    Box::new(move |i| assert_eq!((i.op, i.cond), (op, Some(cond)), "{i:?}"))
}

/// Length only: immediates sign-extend per encoding form, and the
/// operand-carrying rows already cover the ModRM paths.
fn any() -> Check {
    Box::new(|_| {})
}

/// Whatever the assembler emits, the decoder reads back: instruction
/// lengths tile the stream exactly and op, condition and operands
/// survive the round trip.
#[test]
fn assembled_sequences_decode_back() {
    use Operand::{Imm, Mem, Reg as R};
    let mut rng = Rng::seeded(0xA53B);
    for _ in 0..256 {
        let mut asm = Asm::new(BASE);
        let mut checks: Vec<Check> = Vec::new();
        for _ in 0..rng.range(1, 39) {
            let (r, r2) = (random_reg(&mut rng), random_reg(&mut rng));
            let m = random_memref(&mut rng);
            let imm = rng.next_u32();
            let (op, rr, ri, rm, mr) = ALU[rng.below(8) as usize];
            let cond = Cond::ALL[rng.below(16) as usize];
            match rng.below(10) {
                0 => {
                    asm.mov_ri(r, imm);
                    checks.push(operands(Op::Mov, R(r), Imm(i64::from(imm))));
                }
                1 => {
                    rr(&mut asm, r, r2);
                    checks.push(operands(op, R(r), R(r2)));
                }
                2 => {
                    ri(&mut asm, r, imm as i32);
                    checks.push(any());
                }
                3 => {
                    rm(&mut asm, r, m);
                    checks.push(operands(op, R(r), Mem(m)));
                }
                4 => {
                    mr(&mut asm, m, r);
                    checks.push(operands(op, Mem(m), R(r)));
                }
                5 => {
                    let shift = [
                        Asm::shl_ri,
                        Asm::shr_ri,
                        Asm::sar_ri,
                        Asm::rol_ri,
                        Asm::ror_ri,
                    ][rng.below(5) as usize];
                    shift(&mut asm, r, rng.below(32) as u8);
                    checks.push(any());
                }
                6 => {
                    let here = asm.here();
                    asm.jcc(cond, here);
                    checks.push(Box::new(move |i| {
                        conditional(Op::Jcc, cond)(i);
                        assert_eq!(i.target(), Some(i.addr), "self-loop target");
                    }));
                }
                7 => {
                    asm.push_r(r);
                    asm.pop_r(r);
                    checks.extend([any(), any()]);
                }
                8 => {
                    asm.lea(r, m);
                    checks.push(operands(Op::Lea, R(r), Mem(m)));
                }
                _ => {
                    asm.setcc(cond, rng.below(4) as u8);
                    checks.push(conditional(Op::Setcc, cond));
                }
            }
        }
        let prog = asm.finish();
        let src = SliceSource::new(prog.base, &prog.code);
        let mut pc = prog.base;
        for check in checks {
            let insn = decode(&src, pc).expect("self-emitted code must decode");
            check(&insn);
            pc = insn.next_addr();
        }
        assert_eq!(
            pc,
            prog.base + prog.code.len() as u32,
            "decoded lengths must exactly tile the stream"
        );
    }
}

/// Arbitrary bytes decode to an instruction within the ISA's length
/// limit or to a structured error — never a panic.
#[test]
fn byte_soup_never_panics_the_decoder() {
    let mut rng = Rng::seeded(0x50FA);
    for _ in 0..4096 {
        let bytes: Vec<u8> = (0..rng.below(64)).map(|_| rng.next_u32() as u8).collect();
        if let Ok(insn) = decode_one(&bytes) {
            assert!(u32::from(insn.len) <= MAX_INSN_LEN, "{bytes:02x?}");
        }
    }
}

/// The `decode_digest` tails (`vta_bench::perf`): SIB / displacement /
/// immediate bytes after the ModRM byte.
const TAILS: [&[u8]; 4] = [
    &[0x24, 0x78, 0x56, 0x34, 0x12, 0xEF, 0xCD, 0xAB, 0x89, 0x10],
    &[0x8D, 0x80, 0x00, 0x00, 0x01, 0x7F, 0x02, 0x00, 0x00, 0x00],
    &[0xFF; 10],
    &[],
];

/// Decodes the 15-byte `run` laid across the page edge at `edge`, its
/// first `cut` bytes before it, through guest memory with the next page
/// mapped and unmapped, and holds each result to a byte slice: the whole
/// run, then the run cut at the edge. `mapped` / `cut_off` are reused
/// memories: the pages either side of the edge, and the page before it.
fn holds_across_the_edge(
    mapped: &mut GuestMem,
    cut_off: &mut GuestMem,
    edge: u32,
    run: &[u8; MAX_INSN_LEN as usize],
    cut: usize,
) {
    let at = edge.wrapping_sub(cut as u32);
    // load_bytes stops at 2^32, so the run goes in as its two halves.
    mapped.load_bytes(at, &run[..cut]);
    mapped.load_bytes(edge, &run[cut..]);
    cut_off.load_bytes(at, &run[..cut]);
    let whole = decode(&SliceSource::new(at, run), at);
    assert_eq!(decode(mapped, at), whole, "{run:02x?} cut {cut}, mapped");
    let short = decode(&SliceSource::new(at, &run[..cut]), at);
    let got = decode(cut_off, at);
    assert_eq!(got, short, "{run:02x?} cut {cut}, unmapped");
    if let Err(DecodeError::Unmapped { addr }) = got {
        assert_eq!(addr, edge, "{run:02x?} cut {cut}: the edge is unfetchable");
    }
}

/// The decoder reads guest memory a page at a time, so an instruction
/// that crosses a page edge must decode as if the bytes were one run:
/// over a seeded sample of the `decode_digest` inputs (every prefix and
/// opcode twice, random ModRM, tail and filler), at every cut from 1 to 14
/// bytes before the edge, with the next page mapped and not, and at the
/// 2^32 wrap.
#[test]
fn an_instruction_across_a_page_edge_decodes_as_one_run() {
    const EDGE: u32 = BASE + PAGE_SIZE;
    const WRAP: u32 = 0;
    let mut rng = Rng::seeded(0xED6E);
    let (mut mapped, mut cut_off) = (GuestMem::new(), GuestMem::new());
    let (mut wrapped, mut wrap_cut) = (GuestMem::new(), GuestMem::new());
    let mut run = [0u8; MAX_INSN_LEN as usize];
    for prefix in [None, Some(0x66), Some(0xF2), Some(0xF3)] {
        for opcode in 0..0x200u32 {
            for _ in 0..2 {
                let mut bytes = Vec::with_capacity(run.len());
                bytes.extend(prefix);
                bytes.extend((opcode > 0xFF).then_some(0x0F));
                bytes.extend([opcode as u8, rng.next_u32() as u8]);
                bytes.extend_from_slice(TAILS[rng.below(4) as usize]);
                let (head, filler) = run.split_at_mut(bytes.len());
                head.copy_from_slice(&bytes);
                filler.iter_mut().for_each(|b| *b = rng.next_u32() as u8);
                for cut in 1..MAX_INSN_LEN as usize {
                    holds_across_the_edge(&mut mapped, &mut cut_off, EDGE, &run, cut);
                    holds_across_the_edge(&mut wrapped, &mut wrap_cut, WRAP, &run, cut);
                }
            }
        }
    }
    // Every cut, over one 14-byte instruction: `mov ax, [eax*4 + disp32]`
    // under six segment overrides.
    let long = [
        0x26, 0x2E, 0x36, 0x3E, 0x64, 0x65, 0x66, 0x8B, 0x04, 0x85, 0x78, 0x56, 0x34, 0x12, 0x90,
    ];
    for cut in 1..MAX_INSN_LEN as usize {
        holds_across_the_edge(&mut mapped, &mut cut_off, EDGE, &long, cut);
        holds_across_the_edge(&mut wrapped, &mut wrap_cut, WRAP, &long, cut);
    }
    // A 16th byte is too long before it is unmapped: 15 prefixes end at
    // the edge of an unmapped page.
    let prefixes = [0x66; MAX_INSN_LEN as usize];
    for (mem, edge) in [(&mut cut_off, EDGE), (&mut wrap_cut, WRAP)] {
        let at = edge.wrapping_sub(MAX_INSN_LEN);
        mem.load_bytes(at, &prefixes);
        assert_eq!(decode(mem, at), Err(DecodeError::TooLong { addr: at }));
    }
}

/// One- and two-byte mutations of a valid executable load or fail with
/// an `ElfError` — never a panic — and what loads can be mapped.
#[test]
fn mutated_elf_never_panics_the_loader() {
    let valid = elf::write_minimal_exec(BASE, &[0x90; 32], BASE);
    let mut rng = Rng::seeded(0xE1F);
    for _ in 0..2000 {
        let mut bytes = valid.clone();
        for _ in 0..rng.range(1, 2) {
            let at = rng.below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u32() as u8;
        }
        let Ok(image) = elf::load(&bytes) else {
            continue;
        };
        // A mutated `p_memsz` can legitimately ask for gigabytes of bss;
        // that is the guest's right, not this test's to allocate. (Code
        // and data are file bytes, so they cannot be large.)
        let bss: u64 = image.bss.iter().map(|&(_, len)| u64::from(len)).sum();
        if bss < 16 << 20 {
            image.build_mem();
        }
    }
}
