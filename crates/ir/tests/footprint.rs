//! `TBlock::footprint` against a model that watches every fetch.
//!
//! The translator reports which guest bytes a translation depended on
//! from the spans it decoded; nothing on the production path sits between
//! it and the [`CodeSource`]. `RecordingSource` here is the model that
//! does: it hands out one-byte windows, so it notes every address read
//! through it. Over the fuzz
//! generators, at both opt levels and along recorded paths, the reported
//! footprint must hold every address the model saw — and nothing else,
//! except where a decode failed: the translator charges a failed decode
//! the most it can have fetched, so bytes beyond the model's must lie
//! within [`MAX_INSN_LEN`] of a fetched address that does not decode.

use std::cell::RefCell;
use std::collections::BTreeSet;

use vta_ir::fuzz::{gen, Case};
use vta_ir::{translate_region, translate_region_along, OptLevel, RegionLimits, TBlock};
use vta_sim::Rng;
use vta_x86::decode::{decode, CodeSource, MAX_INSN_LEN};
use vta_x86::{Asm, GuestMem, Reg, PAGE_SIZE};

/// Notes every address read through it, in order: each window is one
/// byte.
struct RecordingSource<'a> {
    src: &'a GuestMem,
    reads: RefCell<Vec<u32>>,
}

impl CodeSource for RecordingSource<'_> {
    fn window(&self, addr: u32) -> &[u8] {
        self.reads.borrow_mut().push(addr);
        self.src.window(addr).get(..1).unwrap_or_default()
    }
}

/// Translates through the model and holds the reported footprint to what
/// the model saw; the block and whether the two were equal.
fn checked(
    mem: &GuestMem,
    what: &str,
    translate: impl FnOnce(&RecordingSource<'_>) -> Option<TBlock>,
) -> Option<(TBlock, bool)> {
    let rec = RecordingSource {
        src: mem,
        reads: RefCell::default(),
    };
    let block = translate(&rec)?;
    let mut reads = rec.reads.into_inner();
    // A debug build's translator reads the footprint once more, last, for
    // its read digest: one window per byte, in order. Those reads are not
    // the decoder's.
    if cfg!(debug_assertions) {
        let footprint: Vec<u32> = (block.footprint.spans().iter())
            .flat_map(|&(start, len)| (0..len).map(move |i| start + i))
            .collect();
        let digest_walk = reads.split_off(reads.len() - footprint.len());
        assert_eq!(digest_walk, footprint, "{what}: the read digest's walk");
    }
    let seen: BTreeSet<u32> = reads.into_iter().collect();
    for &addr in &seen {
        assert!(
            block.footprint.covers(addr),
            "{what}: fetched {addr:#x} is outside {:x?}",
            block.footprint.spans()
        );
    }
    let mut reported = 0;
    let mut pages = BTreeSet::new();
    for &(start, len) in block.footprint.spans() {
        reported += len as usize;
        pages.extend(start >> 12..=(start + (len - 1)) >> 12);
        for addr in (start..=start + (len - 1)).filter(|a| !seen.contains(a)) {
            let excused = (1..MAX_INSN_LEN).any(|back| {
                let at = addr.wrapping_sub(back);
                seen.contains(&at) && decode(mem, at).is_err()
            });
            assert!(excused, "{what}: {addr:#x} reported, never fetched");
        }
    }
    assert!(block.footprint.pages().eq(pages), "{what}: pages");
    Some((block, reported == seen.len()))
}

/// Walks the image's code reachable from the entry without running it, checking
/// the static translation at each address at both opt levels and the
/// region along each one-junction recorded path. Returns how many
/// translations were checked and how many footprints were exact.
fn walk(case: &Case) -> (u32, u32) {
    let image = case.image();
    let mem = image.build_mem();
    let code = image.code_base..image.code_end();
    let (mut checked_n, mut exact_n) = (0, 0);
    let mut tally = |r: Option<(TBlock, bool)>| {
        let (block, exact) = r?;
        checked_n += 1;
        exact_n += u32::from(exact);
        Some(block)
    };
    let mut todo = vec![image.entry];
    let mut visited = BTreeSet::new();
    while let Some(addr) = todo.pop() {
        if visited.len() >= 48 || !visited.insert(addr) {
            continue;
        }
        // The single block last: its successors are the junctions a
        // recorded path can name.
        let mut succs = Vec::new();
        for opt in [OptLevel::Full, OptLevel::None] {
            let what = format!("{} {opt:?} @{addr:#x}", case.name);
            let limits = RegionLimits::for_opt(opt);
            let block = tally(checked(&mem, &what, |rec| {
                translate_region(rec, addr, opt, &limits).ok()
            }));
            if let Some(block) = block {
                succs = block.term.successors().into_iter().flatten().collect();
                succs.push(block.end_addr());
            }
        }
        let limits = RegionLimits::default();
        for &next in &succs {
            let what = format!("{} along [{next:#x}] @{addr:#x}", case.name);
            tally(checked(&mem, &what, |rec| {
                translate_region_along(rec, addr, OptLevel::Full, &limits, &[next]).ok()
            }));
        }
        todo.extend(succs.into_iter().filter(|a| code.contains(a)));
    }
    (checked_n, exact_n)
}

#[test]
fn footprint_holds_every_fetch_and_no_more_unless_a_decode_failed() {
    type Gen = fn(&mut Rng) -> Case;
    let gens: [(Gen, u32); 6] = [
        (gen::linear, 40),
        (gen::branchy, 40),
        (gen::smc, 40),
        (gen::region_smc, 40),
        (gen::recorded_path, 40),
        (gen::raw_bytes, 120),
    ];
    let mut rng = Rng::seeded(0xF007_9817);
    for (gen, cases) in gens {
        let (mut checked_n, mut exact_n) = (0, 0);
        let mut name = String::new();
        for _ in 0..cases {
            let case = gen(&mut rng);
            let (c, e) = walk(&case);
            checked_n += c;
            exact_n += e;
            name = case.name;
        }
        // Neither side of the property is vacuous for any generator.
        assert!(checked_n >= cases, "{name}: {checked_n} translations");
        assert!(exact_n > 0, "{name}: no footprint was exact");
        println!("{name}: {checked_n} translations, {exact_n} exact");
    }
}

/// A block laid across a page edge, with an instruction cut by it: the
/// model sees the bytes the translator read on both pages, and the
/// footprint is exactly those bytes.
#[test]
fn a_block_across_a_page_edge_is_read_on_both_pages() {
    const EDGE: u32 = 0x0800_1000;
    for before in 1..=12 {
        let mut a = Asm::new(EDGE - before);
        for i in 0..6 {
            a.mov_ri(Reg::ALL[i], 0x1234_5678); // 5 bytes each
        }
        a.add_rr(Reg::EAX, Reg::EBX);
        a.ret();
        let p = a.finish();
        let mut mem = GuestMem::new();
        mem.load_bytes(p.base, &p.code);
        for opt in [OptLevel::Full, OptLevel::None] {
            let what = format!("{before} bytes before the edge at {opt:?}");
            let limits = RegionLimits::for_opt(opt);
            let (block, exact) = checked(&mem, &what, |rec| {
                translate_region(rec, p.base, opt, &limits).ok()
            })
            .expect("translates");
            assert!(exact, "{what}: {:x?}", block.footprint.spans());
            let pages = [EDGE / PAGE_SIZE - 1, EDGE / PAGE_SIZE];
            assert!(block.footprint.pages().eq(pages), "{what}: pages");
            assert_eq!(block.guest_len as usize, p.code.len(), "{what}");
        }
    }
}
