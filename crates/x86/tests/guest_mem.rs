//! `GuestMem` held to a byte-at-a-time model, plus the edges of the
//! address space a guest binary or syscall can reach.
//!
//! The page table takes an in-page fast path for 2- and 4-byte accesses
//! and copies ranges a page at a time; the model below does everything
//! one byte at a time over a `BTreeMap<u32, u8>`, the way the table's
//! straddle fallback does. The seeded loop (`vta_sim::Rng`, fixed seed)
//! clusters its addresses where the two could disagree: page edges,
//! the directory edge at `0x0040_0000`, unmapped neighbours and the
//! last bytes below 2^32, where a straddle wraps to address 0.

use std::collections::{BTreeMap, BTreeSet};

use vta_sim::Rng;
use vta_x86::{elf, GuestImage, GuestMem, SysState, SyscallResult, UnmappedAccess, PAGE_SIZE};

const EFAULT: SyscallResult = SyscallResult::Continue((-14i32) as u32);

/// Guest memory one byte at a time: the mapped page set, and every
/// nonzero byte.
#[derive(Debug, Clone, Default, PartialEq)]
struct Model {
    pages: BTreeSet<u32>,
    bytes: BTreeMap<u32, u8>,
}

impl Model {
    fn read(&self, addr: u32) -> Result<u8, UnmappedAccess> {
        if self.pages.contains(&(addr / PAGE_SIZE)) {
            Ok(self.bytes.get(&addr).copied().unwrap_or(0))
        } else {
            Err(UnmappedAccess { addr })
        }
    }

    fn write(&mut self, addr: u32, v: u8) -> Result<(), UnmappedAccess> {
        self.read(addr)?;
        if v == 0 {
            self.bytes.remove(&addr);
        } else {
            self.bytes.insert(addr, v);
        }
        Ok(())
    }

    fn read_n(&self, addr: u32, n: u32) -> Result<Vec<u8>, UnmappedAccess> {
        (0..n).map(|i| self.read(addr.wrapping_add(i))).collect()
    }

    fn write_n(&mut self, addr: u32, bytes: &[u8]) -> Result<(), UnmappedAccess> {
        for (i, &b) in bytes.iter().enumerate() {
            self.write(addr.wrapping_add(i as u32), b)?;
        }
        Ok(())
    }

    fn map(&mut self, start: u32, end: u32) {
        if start < end {
            self.pages.extend(start / PAGE_SIZE..=(end - 1) / PAGE_SIZE);
        }
    }

    /// `load_bytes`: maps as it goes and stops at 2^32.
    fn load(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            let Ok(a) = u32::try_from(u64::from(addr) + i as u64) else {
                break;
            };
            self.pages.insert(a / PAGE_SIZE);
            self.write(a, b).expect("just mapped");
        }
    }

    fn page(&self, page_no: u32) -> [u8; PAGE_SIZE as usize] {
        let base = page_no * PAGE_SIZE;
        let mut page = [0; PAGE_SIZE as usize];
        for (&a, &v) in self.bytes.range(base..=base + (PAGE_SIZE - 1)) {
            page[(a - base) as usize] = v;
        }
        page
    }
}

/// One operation of a stream, applied to a memory and its model alike.
#[derive(Debug, Clone)]
enum Op {
    Map(u32, u32),
    Read(u32, u32),
    Write(u32, u32, u32),
    Load(u32, Vec<u8>),
    ReadBytes(u32, u32),
}

/// An address within 8 bytes of a page edge, the directory edge or the
/// top of the address space — or, rarely, anywhere at all.
fn edge_addr(rng: &mut Rng) -> u32 {
    const EDGES: [u32; 7] = [
        0x0000_0000, // below it: 0xFFFF_FFF8..=0xFFFF_FFFF
        0x0000_1000,
        0x0000_2000,
        0x0040_0000, // first page of the second directory
        0x0040_1000,
        0x0800_0000,
        0xFFFF_F000,
    ];
    if rng.chance(1, 16) {
        return rng.next_u32();
    }
    EDGES[rng.below(EDGES.len() as u64) as usize]
        .wrapping_add(rng.below(17) as u32)
        .wrapping_sub(8)
}

fn random_op(rng: &mut Rng) -> Op {
    let addr = edge_addr(rng);
    let size = [1, 2, 4][rng.below(3) as usize];
    // Mostly a few bytes, sometimes a few pages.
    let longest = if rng.chance(1, 4) { 9000 } else { 12 };
    let len = rng.below(longest) as u32;
    match rng.below(8) {
        // Ranges of zero to two pages, the empty and inverted ones too.
        0 | 1 => Op::Map(
            addr,
            addr.wrapping_add(rng.below(2 * 4096) as u32)
                .wrapping_sub(4),
        ),
        2 | 3 => Op::Read(addr, size),
        4 | 5 => Op::Write(addr, rng.next_u32(), size),
        6 => Op::Load(addr, (0..len).map(|_| rng.next_u32() as u8).collect()),
        _ => Op::ReadBytes(addr, len),
    }
}

/// Applies `op` to both sides and holds every result equal.
fn apply(op: &Op, mem: &mut GuestMem, model: &mut Model) {
    match *op {
        Op::Map(start, end) => {
            mem.map_zeroed(start, end);
            model.map(start, end);
        }
        Op::Read(addr, size) => {
            let want = model.read_n(addr, size).map(|b| {
                let mut le = [0; 4];
                le[..b.len()].copy_from_slice(&b);
                u32::from_le_bytes(le)
            });
            assert_eq!(mem.read_sized(addr, size), want, "{op:?}");
            let direct = match size {
                1 => mem.read_u8(addr).map(u32::from),
                2 => mem.read_u16(addr).map(u32::from),
                _ => mem.read_u32(addr),
            };
            assert_eq!(direct, want, "{op:?}");
        }
        Op::Write(addr, v, size) => {
            let want = model.write_n(addr, &v.to_le_bytes()[..size as usize]);
            // Both spellings of the same write, so the second must land
            // on what the first left (a faulting one, its partial bytes).
            assert_eq!(mem.write_sized(addr, v, size), want, "{op:?}");
            let direct = match size {
                1 => mem.write_u8(addr, v as u8),
                2 => mem.write_u16(addr, v as u16),
                _ => mem.write_u32(addr, v),
            };
            assert_eq!(direct, want, "{op:?}");
        }
        Op::Load(addr, ref bytes) => {
            mem.load_bytes(addr, bytes);
            model.load(addr, bytes);
        }
        Op::ReadBytes(addr, len) => {
            assert_eq!(mem.read_bytes(addr, len), model.read_n(addr, len), "{op:?}");
        }
    }
}

fn run(ops: &[Op]) -> (GuestMem, Model) {
    let (mut mem, mut model) = (GuestMem::new(), Model::default());
    for op in ops {
        apply(op, &mut mem, &mut model);
    }
    (mem, model)
}

/// Same page set (sorted) and same bytes on every page — which covers
/// what a faulting straddling write left behind.
fn assert_same(mem: &GuestMem, model: &Model, what: &str) {
    let pages: Vec<u32> = model.pages.iter().copied().collect();
    assert_eq!(mem.mapped_pages(), pages, "{what}: page set");
    for &p in &pages {
        assert!(mem.is_mapped(p * PAGE_SIZE));
        assert!(
            mem.page(p) == Some(&model.page(p)),
            "{what}: contents of page {p:#x}"
        );
    }
}

#[test]
fn guest_mem_agrees_with_a_byte_model() {
    let mut rng = Rng::seeded(0x9A6E);
    let mut unequal = 0;
    for stream in 0..256 {
        let ops: Vec<Op> = (0..rng.range(1, 80)).map(|_| random_op(&mut rng)).collect();
        let (mem, model) = run(&ops);
        let what = format!("stream {stream}");
        assert_same(&mem, &model, &what);

        // A clone is equal and independent.
        let mut copy = mem.clone();
        assert_eq!(copy, mem, "{what}");
        if let Some(&p) = model.pages.first() {
            let addr = p * PAGE_SIZE;
            copy.write_u8(addr, !model.page(p)[0]).unwrap();
            assert_ne!(copy, mem, "{what}");
            assert_same(&mem, &model, &what);
        }

        // Equality is page set and contents, not history: the same
        // state rebuilt page by page from the top down is equal...
        let mut rebuilt = GuestMem::new();
        for &p in model.pages.iter().rev() {
            rebuilt.load_bytes(p * PAGE_SIZE, &model.page(p));
        }
        assert_eq!(rebuilt, mem, "{what}");
        // ...one more mapped page is not...
        let spare = (0..).find(|p| !model.pages.contains(p)).unwrap();
        rebuilt.map_zeroed(spare * PAGE_SIZE, spare * PAGE_SIZE + 1);
        assert_ne!(rebuilt, mem, "{what}");
        // ...and the same ops in another order are equal exactly when
        // the models are.
        let mut shuffled = ops;
        rng.shuffle(&mut shuffled);
        let (mem2, model2) = run(&shuffled);
        assert_eq!(mem == mem2, model == model2, "{what}");
        unequal += usize::from(model != model2);
    }
    assert!((32..=224).contains(&unequal), "{unequal} of 256");
}

#[test]
fn an_empty_range_maps_nothing() {
    let mut mem = GuestMem::new();
    mem.map_zeroed(0x1001, 0x1001);
    mem.map_zeroed(0, 0);
    mem.map_zeroed(0x3000, 0x2000);
    mem.load_bytes(0x5001, &[]);
    assert_eq!(mem.mapped_pages(), Vec::<u32>::new());

    // Reachable from a guest binary: a PT_LOAD with p_filesz = p_memsz
    // = 0 at an unaligned p_vaddr, and a bss of no bytes.
    let e = elf::write_minimal_exec(0x0804_8001, &[], 0x0804_8001);
    assert_eq!(e[52 + 16..52 + 24], [0; 8], "p_filesz = p_memsz = 0");
    let image = elf::load(&e).expect("loads").with_bss(0x0900_0010, 0);
    let pages = image.build_mem().mapped_pages();
    assert!(!pages.contains(&0x08048) && !pages.contains(&0x09000));
    assert_eq!(pages.len() as u32, image.stack_size / PAGE_SIZE);
}

#[test]
fn the_address_space_ends_at_4_gib() {
    // A range ending exactly at 2^32 is legal...
    let mut mem = GuestMem::new();
    mem.load_bytes(0xFFFF_FFFC, &[1, 2, 3, 4]);
    assert_eq!(mem.mapped_pages(), vec![0xF_FFFF]);
    assert_eq!(mem.read_u32(0xFFFF_FFFC), Ok(0x0403_0201));
    // ...and so is one spanning the last page edge and ending there.
    let mut mem = GuestMem::new();
    mem.load_bytes(0xFFFF_EFFE, &[7; PAGE_SIZE as usize + 2]);
    assert_eq!(mem.mapped_pages(), vec![0xF_FFFE, 0xF_FFFF]);
    assert_eq!(mem.read_u8(0xFFFF_FFFF), Ok(7));

    // One reaching past it is cut off there: nothing wraps to page 0.
    let mut mem = GuestMem::new();
    mem.load_bytes(0xFFFF_FFFE, &[1, 2, 3, 4]);
    assert_eq!(mem.mapped_pages(), vec![0xF_FFFF]);
    assert_eq!(mem.read_u16(0xFFFF_FFFE), Ok(0x0201));
    assert_eq!(mem.read_u32(0xFFFF_FFFE), Err(UnmappedAccess { addr: 0 }));

    // The same through an image built by hand.
    let mut image = GuestImage::from_code(vta_x86::Asm::new(0x0800_0000).finish())
        .with_data(0xFFFF_FFFE, vec![1, 2, 3, 4])
        .with_bss(0xFFFF_DFFF, 0xFFFF_FFFF)
        .with_bss(0xFFFF_FFFF, 1);
    image.stack_size = 0;
    let mem = image.build_mem();
    assert_eq!(mem.mapped_pages(), vec![0xF_FFFD, 0xF_FFFE, 0xF_FFFF]);
    assert_eq!(mem.read_u16(0xFFFF_FFFE), Ok(0x0201));
}

#[test]
fn write_syscall_faults_on_a_guest_supplied_length() {
    // write(1, buf, 0xFFFF_FFFF): the length is the guest's, so the
    // copy must fault at the first unmapped page — two pages in —
    // rather than size a buffer by it, and output must not grow.
    let mut mem = GuestMem::new();
    mem.load_bytes(0x2000, &[b'x'; 2 * PAGE_SIZE as usize]);
    let mut sys = SysState::new(0x0A00_0000);
    assert_eq!(sys.dispatch(&mut mem, 4, [1, 0x2000, 0xFFFF_FFFF]), EFAULT);
    assert!(sys.output.is_empty());
    // A length that wraps past 2^32 back into mapped memory reads on
    // from address 0, as it always has.
    mem.load_bytes(0xFFFF_FFFE, b"ab");
    mem.load_bytes(0, b"cd");
    assert_eq!(
        sys.dispatch(&mut mem, 4, [1, 0xFFFF_FFFE, 4]),
        SyscallResult::Continue(4)
    );
    assert_eq!(sys.output, b"abcd");
}

#[test]
fn read_syscall_keeps_the_bytes_before_the_fault() {
    let mut mem = GuestMem::new();
    mem.map_zeroed(0x2000, 0x3000);
    let mut sys = SysState::new(0x0A00_0000);
    sys.set_input((0..32).collect());
    // Eight bytes fit on the mapped page; the ninth faults. The input
    // is not consumed, so a retry into good memory sees it all again.
    assert_eq!(sys.dispatch(&mut mem, 3, [0, 0x2FF8, 32]), EFAULT);
    assert_eq!(
        mem.read_bytes(0x2FF8, 8).unwrap(),
        (0..8).collect::<Vec<u8>>()
    );
    assert_eq!(sys.input_pos, 0);
    assert_eq!(
        sys.dispatch(&mut mem, 3, [0, 0x2000, 32]),
        SyscallResult::Continue(32)
    );
    assert_eq!(
        mem.read_bytes(0x2000, 32).unwrap(),
        (0..32).collect::<Vec<u8>>()
    );
}
