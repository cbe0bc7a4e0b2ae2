//! A warm [`Translator`] allocates only the block it returns.
//!
//! A counting global allocator counts the heap allocations (and
//! reallocations) each translation makes on its own thread. Once one
//! context has translated the shared workload, translating it again must
//! make exactly one allocation for a plain block whose footprint is one
//! span: the returned `TBlock`'s `code`. A region or a footprint of more
//! spans may make at most three: the code, the members after the entry
//! and the spans. Every other buffer lives in the context.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vta_ir::Translator;

/// [`System`], counting each allocation on the allocating thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments,
// so `System`'s guarantees are the caller's; counting touches only a
// const-initialized thread-local `Cell`, which neither allocates nor
// needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is
        // `System`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `f`'s result and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

#[test]
fn a_warm_translator_allocates_only_the_block_it_returns() {
    let (mems, jobs) = common::workload(0xA110_C8ED);
    let (mut translator, fresh_context) = counted(Translator::default);
    assert_eq!(fresh_context, 0, "a fresh context allocates nothing");
    for job in &jobs {
        let _ = job.on(&mut translator, &mems);
    }
    let (mut warm, mut fresh, mut blocks, mut plain) = (0, 0, 0, 0);
    for (i, job) in jobs.iter().enumerate() {
        let (block, n) = counted(|| job.on(&mut translator, &mems));
        match &block {
            Ok(b) if !b.is_region() && b.footprint.spans().len() == 1 => {
                assert_eq!(n, 1, "job {i}: a plain block of one span, for {job:x?}");
                plain += 1;
            }
            _ => assert!(n <= 3, "job {i}: {n} allocations for {job:x?}"),
        }
        warm += n;
        fresh += counted(|| job.fresh(&mems)).1;
        blocks += u64::from(block.is_ok());
    }
    println!(
        "{} jobs, {blocks} blocks ({plain} plain of one span): {:.2} allocations per call \
         warm, {:.2} on a fresh context",
        jobs.len(),
        warm as f64 / jobs.len() as f64,
        fresh as f64 / jobs.len() as f64
    );
}
