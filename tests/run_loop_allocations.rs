//! Counted host work in the run loop: what a warm `System` allocates.
//!
//! A counting global allocator counts the heap allocations (and
//! reallocations) the run loop makes on its own thread. Each cell warms a
//! `paper_default` `System` through the first third of its guest's
//! instructions, then counts what the rest of the run allocates. The
//! denominators are the run's own `Stats` counters, so a failure names
//! the layer and prints the ratio:
//!
//! - (a) a chained block exit allocates nothing (gzip and parser, whose
//!   code is translated and chained by then, and mcf at `Scale::Small`,
//!   whose data misses go out to DRAM): the only allocations are the five
//!   of the `RunReport` the run returns;
//! - (b) an L1 code miss served from L1.5 or L2 (crafty at
//!   `Scale::Small`, whose code is far larger than L1). It does not yet
//!   allocate nothing; its count is a ratchet that may only go down.
//!   Counted by size, 2,311 of its 2,571 allocations are B-tree nodes of
//!   the L1.5 banks' `BTreeMap<u32, Arc<TBlock>>` (2,131 leaves of 144
//!   bytes, 180 internal nodes of 240), churned as a bank inserts and
//!   evicts; the rest are the 32 translations after the warm-up, about
//!   eight allocations each, and the `RunReport`;
//! - (c) a translation and its commit (gcc at `Scale::Test`, a
//!   `cold_translate` guest, whose run is mostly first-time code): the
//!   block's code and its `Arc<TBlock>` (a plain block of one footprint
//!   span allocates nothing else), a region's later members, a
//!   footprint's spans past one, and whatever the manager's tables grow
//!   by. A ratchet too, per `translate.blocks`;
//! - (d) the heap a translated block holds: the same gcc cell's live
//!   bytes, from before `System::new` to the return of its last
//!   `System::run` with the `System` still alive, per
//!   `translate.committed`. Translated code is most of a run's heap, so
//!   this is `peak_rss_mb`'s deterministic proxy; a ratchet too. It
//!   counts requested bytes, not the allocator's chunks, so a 12-byte
//!   member list that was a 32-byte chunk counts 12.
//!
//! A fifth ceiling holds what `System::new` allocates before any of it.
//!
//! The counts depend on the toolchain's collections, not on the
//! simulated machine, so they are ceilings here rather than rows of
//! `BENCH_dispatch.json`.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::cell::Cell;

use vta::dbt::{System, VirtualArchConfig};
use vta::sim::Ctr;
use vta::workloads::{by_name, Scale};
use vta::x86::Cpu;

/// [`Heap`], counting each allocation on the allocating thread and
/// keeping that thread's balance of live bytes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` on this thread.
fn count(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    moved(bytes as i64);
}

/// Moves this thread's live-byte balance by `bytes`.
fn moved(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `Heap` with the caller's arguments,
// so `Heap`'s guarantees are the caller's; counting touches only
// const-initialized thread-local `Cell`s, which neither allocate nor
// need a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        unsafe { Heap.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        unsafe { Heap.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        moved(-(layout.size() as i64));
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        unsafe { Heap.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        moved(-(layout.size() as i64));
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        unsafe { Heap.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Layer (d)'s ceiling: heap bytes a committed translation leaves live.
const BYTES_PER_TRANSLATION: f64 = 364.0;

/// What `System::new(paper_default)` allocates on gcc at `Scale::Test`.
const SYSTEM_NEW_ALLOCS: u64 = 169;

/// What the last two thirds of a guest's run did.
struct Rest {
    allocs: u64,
    exec_blocks: u64,
    l1_misses: u64,
    translations: u64,
    dram: u64,
    /// Bytes the whole run left live with its `System` still alive.
    live_bytes: i64,
    /// `translate.committed` over the whole run.
    committed: u64,
}

/// Runs `name` at `scale` on `paper_default`, warmed through a third of
/// its instructions, and counts the rest.
fn rest_of_run(name: &str, scale: Scale) -> Rest {
    let w = by_name(name, scale).expect("bundled workload");
    let mut cpu = Cpu::new(&w.image);
    cpu.run(u64::MAX).expect("the reference run");
    let live_before = LIVE.with(Cell::get);
    let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
    let warm = sys.run(cpu.insn_count / 3).expect("the warm-up");
    let before = ALLOCS.with(Cell::get);
    let done = sys.run(u64::MAX).expect("the rest of the run");
    let allocs = ALLOCS.with(Cell::get) - before;
    let live_bytes = LIVE.with(Cell::get) - live_before;
    assert_eq!(done.guest_insns, cpu.insn_count, "{name}: retired count");
    let delta = |c| done.stats.get_ctr(c) - warm.stats.get_ctr(c);
    Rest {
        allocs,
        exec_blocks: delta(Ctr::ExecBlocks),
        l1_misses: delta(Ctr::L1CodeMiss),
        translations: delta(Ctr::TranslateBlocks),
        dram: delta(Ctr::MemDram),
        live_bytes,
        committed: done.stats.get_ctr(Ctr::TranslateCommitted),
    }
}

/// Holds the rest of `name`'s run to `ceiling` allocations, naming
/// `layer` and the per-exit and per-miss ratios when it is over; returns
/// what it counted.
fn at_most(name: &str, scale: Scale, layer: &str, ceiling: u64) -> Rest {
    let r = rest_of_run(name, scale);
    let per = |n: u64| r.allocs as f64 / n.max(1) as f64;
    let line = format!(
        "{name} {scale:?}: {} allocations over {} exec.blocks ({:.4} a block exit), \
         {} l1code.miss ({:.4} a miss), {} translate.blocks ({:.4} a translation), \
         {} mem.dram",
        r.allocs,
        r.exec_blocks,
        per(r.exec_blocks),
        r.l1_misses,
        per(r.l1_misses),
        r.translations,
        per(r.translations),
        r.dram,
    );
    println!("{line}");
    assert!(
        r.allocs <= ceiling,
        "layer {layer}: {line}; ceiling {ceiling}"
    );
    r
}

#[test]
fn a_chained_exit_allocates_nothing() {
    for name in ["gzip", "parser"] {
        at_most(name, Scale::Test, "(a) chained block exit", 5);
    }
    // The DRAM-bound miss path (MemSys::miss_path) runs in the counted
    // part too, and allocates nothing either.
    let mcf = at_most("mcf", Scale::Small, "(a) chained block exit", 5);
    assert!(mcf.dram > 0, "mcf Small: no mem.dram after the warm-up");
}

#[test]
fn a_chained_exit_allocates_nothing_beside_translations() {
    // bzip2 still counts 3 translations and 9 L1 code misses after the
    // warm-up; the 19 allocations beyond the report are a ratchet.
    at_most("bzip2", Scale::Test, "(a) chained block exit", 24);
}

#[test]
fn an_l1_code_miss_allocates_at_most_the_ratchet() {
    at_most("crafty", Scale::Small, "(b) L1 code miss", 2_571);
}

#[test]
fn a_translation_allocates_at_most_the_ratchet() {
    // 7,213 translations after the warm-up, about 2.38 allocations each:
    // the block's code and its `Arc`, the rest a region's members, a
    // footprint's spans past one and the manager's and the caches' tables
    // growing. A ratchet: it may only go down.
    let gcc = at_most("gcc", Scale::Test, "(c) translation and commit", 17_172);
    // The same cell's heap per committed translation: the block's host
    // code, its `Arc<TBlock>` and the manager's and caches' tables. A
    // ratchet: it may only go down.
    let per = gcc.live_bytes as f64 / gcc.committed.max(1) as f64;
    let line = format!(
        "gcc Test: {} bytes live over {} translate.committed ({per:.1} bytes a translation)",
        gcc.live_bytes, gcc.committed,
    );
    println!("{line}");
    assert!(
        per <= BYTES_PER_TRANSLATION,
        "layer (d) heap per translated block: {line}; ceiling {BYTES_PER_TRANSLATION}"
    );
}

#[test]
fn system_new_allocates_at_most_the_ceiling() {
    // 160 allocations of 4 KiB or more (the guest's memory pages and the
    // tiles' tables) and 9 small ones. A ratchet: it may only go down.
    let w = by_name("gcc", Scale::Test).expect("bundled workload");
    let before = ALLOCS.with(Cell::get);
    let sys = System::new(VirtualArchConfig::paper_default(), &w.image);
    let allocs = ALLOCS.with(Cell::get) - before;
    drop(sys);
    println!("gcc Test: System::new(paper_default) made {allocs} allocations");
    assert!(
        allocs <= SYSTEM_NEW_ALLOCS,
        "System::new(paper_default) on gcc Test: {allocs} allocations; \
         ceiling {SYSTEM_NEW_ALLOCS}"
    );
}
