//! The spatially pipelined data memory system (§2.2, Figure 2).
//!
//! A guest access that misses the execution tile's L1 data cache travels:
//! execution tile → **MMU/TLB tile** (x86 virtual → x86 physical → Raw
//! physical) → an **L2 data-cache bank tile** (a software transactor
//! serving a fraction of the physical address space) → off-chip DRAM on a
//! bank miss. Every leg pays network hop latency; MMU and banks serialize
//! requests, so memory-intensive phases queue — and removing bank tiles
//! (morphing them into translators) genuinely shrinks L2 capacity.

use vta_raw::{net, Cache, CacheConfig, Dram, TileId};
use vta_sim::{Cycle, Tracer, TrackId};

use crate::timing::Timing;

/// Where an access was satisfied (for statistics and Figure 11 probes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Execution-tile L1 data cache hit.
    L1,
    /// L2 data-cache bank hit.
    L2,
    /// Off-chip DRAM.
    Dram,
}

/// One L2 data bank tile: a cache plus a service queue.
#[derive(Debug, Clone)]
pub struct Bank {
    /// Grid position.
    pub tile: TileId,
    /// Tag array.
    pub cache: Cache,
    /// When the software transactor is next free.
    pub next_free: Cycle,
    /// Trace track for this bank tile (set when tracing is enabled).
    pub track: TrackId,
}

/// The pipelined memory system state.
#[derive(Debug, Clone)]
pub struct MemSys {
    /// Execution tile's L1 data cache.
    pub l1d: Cache,
    /// MMU tile TLB (4 KiB pages).
    pub tlb: Cache,
    /// When the MMU software loop is next free.
    pub mmu_next_free: Cycle,
    /// Trace track of the MMU tile (set when tracing is enabled).
    pub trk_mmu: TrackId,
    /// Trace track of the DRAM channel (set when tracing is enabled).
    pub trk_dram: TrackId,
    /// The L2 data bank tiles.
    pub banks: Vec<Bank>,
    /// Counters: `(l1_hit, l2_hit, dram, tlb_miss)`.
    pub counts: [u64; 4],
}

fn bank_cache(bytes: u32) -> Cache {
    Cache::new(CacheConfig {
        size_bytes: bytes,
        line_bytes: 32,
        ways: 2,
    })
}

impl MemSys {
    /// Builds the memory system for the given bank tiles.
    pub fn new(bank_tiles: &[TileId], bank_bytes: u32) -> MemSys {
        MemSys {
            l1d: Cache::new(CacheConfig::RAW_L1D),
            // 128-entry, 4-way TLB over 4 KiB pages.
            tlb: Cache::new(CacheConfig {
                size_bytes: 128 * 4096,
                line_bytes: 4096,
                ways: 4,
            }),
            mmu_next_free: Cycle::ZERO,
            trk_mmu: TrackId::default(),
            trk_dram: TrackId::default(),
            banks: bank_tiles
                .iter()
                .map(|&tile| Bank {
                    tile,
                    cache: bank_cache(bank_bytes),
                    next_free: Cycle::ZERO,
                    track: TrackId::default(),
                })
                .collect(),
            counts: [0; 4],
        }
    }

    /// Adds a bank tile (morphing: translator → cache).
    pub fn add_bank(&mut self, tile: TileId, bank_bytes: u32) {
        self.banks.push(Bank {
            tile,
            cache: bank_cache(bank_bytes),
            next_free: Cycle::ZERO,
            track: TrackId::default(),
        });
    }

    /// Removes the last-added bank; returns `(tile, dirty_lines)` for the
    /// flush-cost accounting (§2.3: shrinking the L2 means write-backs).
    pub fn remove_bank(&mut self) -> Option<(TileId, u32)> {
        let mut bank = self.banks.pop()?;
        let dirty = bank.cache.flush();
        Some((bank.tile, dirty))
    }

    /// Performs one guest access; returns `(stall_cycles, level)`.
    ///
    /// `exec`/`mmu` are grid positions; `now` is the execution-tile time
    /// at issue.
    ///
    /// The L1 D$ hit path — the overwhelmingly common case — is inlined
    /// into the execution loop; everything past the L1 probe lives in
    /// the out-of-line [`MemSys::miss_path`].
    #[inline]
    #[allow(clippy::too_many_arguments)] // one arg per pipeline stage
    pub fn access(
        &mut self,
        now: Cycle,
        addr: u32,
        write: bool,
        exec: TileId,
        mmu: TileId,
        dram: &mut Dram,
        t: &Timing,
        tracer: &mut Tracer,
    ) -> (u64, MemLevel) {
        // L1: inline software address translation + hardware D$ probe.
        if self.l1d.access(addr as u64, write).is_hit() {
            self.counts[0] += 1;
            return (t.l1d_hit, MemLevel::L1);
        }
        self.miss_path(now, addr, write, exec, mmu, dram, t, tracer)
    }

    /// The pipelined path past an L1 D$ miss: MMU/TLB, bank, DRAM.
    #[cold]
    #[inline(never)]
    #[allow(clippy::too_many_arguments)]
    fn miss_path(
        &mut self,
        now: Cycle,
        addr: u32,
        write: bool,
        exec: TileId,
        mmu: TileId,
        dram: &mut Dram,
        t: &Timing,
        tracer: &mut Tracer,
    ) -> (u64, MemLevel) {
        // Request travels to the MMU tile.
        let mut when = now + t.l1d_hit;
        when += net::message(tracer, when, exec, mmu, 1);
        when = when.max(self.mmu_next_free);
        let mmu_start = when;
        when += t.mmu_service;
        if !self.tlb.access(addr as u64, false).is_hit() {
            // Page-table walk in DRAM.
            self.counts[3] += 1;
            tracer.instant(when, self.trk_mmu, "tlb.walk", addr as u64 >> 12);
            let walk_done = dram
                .access_traced(when, 2, tracer, self.trk_dram, "tlb.walk")
                .max(when);
            when = walk_done + t.tlb_miss_walk.saturating_sub(t.dram_latency);
        }
        self.mmu_next_free = when;
        tracer.span(
            mmu_start,
            when.saturating_since(mmu_start),
            self.trk_mmu,
            "mmu",
        );

        // MMU forwards to the owning bank (interleaved by line address).
        let (stall, level) = if self.banks.is_empty() {
            // No cache tiles: straight to DRAM.
            let filled = dram.access_traced(when, t.line_words, tracer, self.trk_dram, "mem.fill");
            let done = filled + net::message(tracer, filled, mmu, exec, t.line_words);
            self.counts[2] += 1;
            (done - now, MemLevel::Dram)
        } else {
            // Lines interleave across banks; each bank indexes with its
            // bank-local line address so aggregate capacity scales with
            // the number of bank tiles (the resource morphing trades).
            let line = (addr >> 5) as u64;
            let idx = (line as usize) % self.banks.len();
            let local = (line / self.banks.len() as u64) << 5;
            let bank_tile = self.banks[idx].tile;
            let mut when = when + net::message(tracer, when, mmu, bank_tile, 1);
            when = when.max(self.banks[idx].next_free);
            let bank_start = when;
            when += t.bank_service;
            let access = self.banks[idx].cache.access(local, write);
            let level = if access.is_hit() {
                self.counts[1] += 1;
                MemLevel::L2
            } else {
                self.counts[2] += 1;
                // Line fill from DRAM (plus any write-back occupancy).
                if let vta_raw::Access::Miss { writeback: Some(_) } = access {
                    dram.access_traced(when, t.line_words, tracer, self.trk_dram, "writeback");
                }
                when = dram
                    .access_traced(when, t.line_words, tracer, self.trk_dram, "l2d.fill")
                    .max(when);
                MemLevel::Dram
            };
            self.banks[idx].next_free = when;
            let track = self.banks[idx].track;
            tracer.span(bank_start, when.saturating_since(bank_start), track, "bank");
            let done = when + net::message(tracer, when, bank_tile, exec, t.line_words);
            (done - now, level)
        };

        // The L1 fill itself (tag write + critical-word restart).
        (stall + 2, level)
    }

    /// `(l1_hits, l2_hits, dram_accesses, tlb_misses)`.
    pub fn stats(&self) -> [u64; 4] {
        self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EXEC: TileId = TileId { x: 1, y: 1 };
    const MMU: TileId = TileId { x: 2, y: 1 };

    /// A memory system with its DRAM channel and cost table; exec at
    /// (1,1), MMU at (2,1), untraced unless asked.
    struct Rig {
        m: MemSys,
        d: Dram,
        t: Timing,
    }

    impl Rig {
        fn access(&mut self, now: u64, addr: u32, write: bool) -> (u64, MemLevel) {
            self.access_traced(now, addr, write, &mut Tracer::disabled())
        }

        fn access_traced(
            &mut self,
            now: u64,
            addr: u32,
            write: bool,
            tracer: &mut Tracer,
        ) -> (u64, MemLevel) {
            let (d, t) = (&mut self.d, &self.t);
            self.m
                .access(Cycle(now), addr, write, EXEC, MMU, d, t, tracer)
        }
    }

    fn sys_with(banks: &[TileId]) -> Rig {
        let (m, t) = (MemSys::new(banks, 32 * 1024), Timing::default());
        let d = Dram::new(t.dram_latency, t.dram_word);
        Rig { m, d, t }
    }

    fn sys() -> Rig {
        sys_with(&[TileId::new(2, 2), TileId::new(3, 1)])
    }

    #[test]
    fn l1_hit_costs_software_translation() {
        let mut r = sys();
        // Prime.
        r.access(0, 0x1000, false);
        let (stall, level) = r.access(500, 0x1000, false);
        assert_eq!(level, MemLevel::L1);
        assert_eq!(stall, r.t.l1d_hit, "Figure 11: L1 hit occupancy 4");
    }

    #[test]
    fn first_touch_goes_to_dram() {
        let mut r = sys();
        let (stall, level) = r.access(0, 0x4000, false);
        assert_eq!(level, MemLevel::Dram);
        assert!(stall > 100, "cold miss ≈ 151 cycles, got {stall}");
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut r = sys();
        // Fill the same L1 set with three conflicting lines (2-way L1,
        // 512 sets × 32B → stride 16 KiB).
        r.access(0, 0x0_0000, false);
        r.access(1000, 0x0_4000, false);
        r.access(2000, 0x0_8000, false);
        // First line is now out of L1 but still in its L2 bank.
        let (stall, level) = r.access(9000, 0x0_0000, false);
        assert_eq!(level, MemLevel::L2);
        assert!(
            (60..=110).contains(&stall),
            "Figure 11: L2 hit ≈ 87, got {stall}"
        );
    }

    #[test]
    fn bank_contention_queues() {
        let mut r = sys();
        // Two cold misses to the same bank at the same cycle.
        let (s1, _) = r.access(0, 0x0_0000, false);
        let (s2, _) = r.access(0, 0x1_0000, false);
        assert!(s2 > s1, "second request queues at MMU/bank: {s1} vs {s2}");
    }

    #[test]
    fn removing_banks_loses_capacity() {
        let mut r = sys();
        r.access(0, 0x2_0000, true);
        r.m.remove_bank().expect("bank present");
        assert_eq!(r.m.banks.len(), 1);
        // With one bank gone the address re-homes and must refill.
        let (_, level) = r.access(50_000, 0x2_0040, false);
        assert_eq!(level, MemLevel::Dram);
    }

    #[test]
    fn tlb_miss_charged_once_per_page() {
        let mut r = sys();
        r.access(0, 0x9_0000, false);
        let before = r.m.stats()[3];
        r.access(5000, 0x9_0100, false);
        assert_eq!(r.m.stats()[3], before, "same page: no second TLB miss");
    }

    #[test]
    fn zero_banks_straight_to_dram() {
        let mut r = sys_with(&[]);
        let (stall, level) = r.access(0, 0x1234, false);
        assert_eq!(level, MemLevel::Dram);
        // Every cycle of network time the miss is charged is a message
        // the tracer saw: the request to the MMU and the line coming back.
        let mut tracer = Tracer::new(vta_sim::TraceConfig { capacity: 64 });
        let traced = sys_with(&[]).access_traced(0, 0x1234, false, &mut tracer);
        assert_eq!(traced, (stall, level), "tracing is an observer");
        let legs: Vec<_> = tracer
            .events()
            .filter_map(|e| match *e {
                vta_sim::TraceEvent::NetMsg {
                    src, dst, words, ..
                } => Some((src, dst, words)),
                _ => None,
            })
            .collect();
        assert_eq!(
            legs,
            [
                (EXEC.into(), MMU.into(), 1),
                (MMU.into(), EXEC.into(), r.t.line_words)
            ]
        );
    }
}
