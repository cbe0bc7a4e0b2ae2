//! Counted host work in a sweep: how much heap a sweep holds at its peak.
//!
//! A counting global allocator tracks the bytes live on the heap and
//! their high-water mark, over every thread. A guest's translation memo
//! is read only by that guest's cells, so a sweep that frees each memo
//! with its guest's last cell peaks near the heaviest single guest; one
//! that keeps every memo until it returns peaks near the sum of them all.
//!
//! The gate: the peak of a one-thread Figure 5 sweep at `Scale::Test`
//! is at most 1.5 times the largest peak of one guest's Figure 5 cells
//! run alone on one memo, both measured here. Peak live bytes are the
//! deterministic proxy for the benchmark's `peak_rss_mb`; they depend on
//! the toolchain's collections, so the bound is a ratio between two runs
//! of the same build rather than a frozen number.

use std::alloc::{GlobalAlloc, Layout, System as Heap};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use vta_bench::figures::fig5_configs;
use vta_bench::{measure_cell, sweep_threads};
use vta_dbt::SharedTranslations;
use vta_workloads::Scale;

/// [`Heap`], keeping the live byte count and its peak.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

fn shrank(bytes: usize) {
    LIVE.fetch_sub(bytes, Relaxed);
}

// SAFETY: every method forwards to `Heap` with the caller's arguments,
// so `Heap`'s guarantees are the caller's; counting touches only two
// atomics, which neither allocate nor need a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        let ptr = unsafe { Heap.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        let ptr = unsafe { Heap.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        let moved = unsafe { Heap.realloc(ptr, layout, new_size) };
        if !moved.is_null() {
            grew(new_size);
            shrank(layout.size());
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract, which is
        // `Heap`'s.
        unsafe { Heap.dealloc(ptr, layout) };
        shrank(layout.size());
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Bytes `f` held live at its peak, above what was live when it began.
fn peak_of<T>(f: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    drop(f());
    PEAK.load(Relaxed) - base
}

const MIB: f64 = (1 << 20) as f64;

#[test]
fn a_sweep_peaks_near_its_heaviest_guest_not_the_sum_of_all() {
    let configs = fig5_configs();
    let (_, first) = &configs[0];
    assert!(
        configs
            .iter()
            .all(|(_, c)| (c.opt, c.superblock) == (first.opt, first.superblock)),
        "Figure 5's cells share one memo per guest"
    );

    let mut heaviest = (0, "");
    for w in vta_workloads::all(Scale::Test) {
        let peak = peak_of(|| {
            let memo = SharedTranslations::with_limits(first.opt, first.region_limits());
            for (label, cfg) in &configs {
                let m = measure_cell(w.name, &w.image, label, cfg.clone(), Some(&memo), Some(1));
                drop(m);
            }
        });
        heaviest = heaviest.max((peak, w.name));
    }
    let (guest_peak, guest) = heaviest;

    let sweep_peak = peak_of(|| sweep_threads(Scale::Test, &configs, 1));
    let ratio = sweep_peak as f64 / guest_peak as f64;
    println!(
        "one-thread Figure 5 sweep peaks at {:.1} MiB live; its heaviest guest ({guest}) alone \
         at {:.1} MiB: ratio {ratio:.2}",
        sweep_peak as f64 / MIB,
        guest_peak as f64 / MIB,
    );
    assert!(
        ratio <= 1.5,
        "a one-thread Figure 5 sweep peaks at {:.1} MiB live, {ratio:.2}x the {:.1} MiB of its \
         heaviest guest ({guest}) run alone: the sweep keeps translation memos past their \
         guest's last cell",
        sweep_peak as f64 / MIB,
        guest_peak as f64 / MIB,
    );
}
