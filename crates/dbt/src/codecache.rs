//! The three-level code cache hierarchy (Figure 3).
//!
//! - **L1**: translated blocks copied into the execution tile's
//!   software-managed instruction memory. Blocks are tight-packed; when
//!   the next block does not fit, the whole cache is flushed (the paper's
//!   "tight packing and flushing algorithm", §4.2). Chaining is only
//!   possible here, because only at copy-in time is a block's absolute
//!   position known. Host-side, resident blocks live in a slot arena
//!   addressed by generational [`BlockHandle`]s: the dispatch loop caches
//!   a block's chain successors as handles, so the hot
//!   block→chained-block edge never touches the address table, and a
//!   guest-address lookup is one probe of an [`AddrMap`].
//! - **L1.5**: one or two dedicated tiles holding recently used translated
//!   blocks close to the execution tile; no chaining through it.
//! - **L2**: the manager tile's map of every translation, stored in
//!   off-chip DRAM (105 MB in the paper); flushed whole when full, like
//!   L1. Which translations are in flight is the slave pool's to say.
//!
//! `CodeHierarchy` is the execution tile's side of the figure: L1 and
//! the L1.5 bank tiles, the one fetch path that walks them down to the
//! manager, and the one loop that drops an address from all of them.

use std::collections::BTreeMap;
use std::sync::Arc;

use vta_ir::TBlock;
use vta_raw::{net, TileId};
use vta_sim::{Ctr, Cycle};

use crate::config::VirtualArchConfig;
use crate::manager::{Manager, Outside};
use crate::system::SystemError;
use vta_sim::addrhash::AddrMap;

/// A generational handle into the L1 arena.
///
/// A handle stays valid until its slot is cleared — by a whole-cache
/// flush, an SMC invalidation, or an overwriting insert — each of which
/// bumps the slot's generation. A stale handle simply fails the
/// generation check; it can never reach a block other than the one it
/// was created for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockHandle {
    slot: u32,
    gen: u32,
}

/// Four `guest target → handle` edges patched beside a block's exits.
///
/// A refill takes the entry already holding the target or the first
/// free one, else the next in round-robin order (deterministic).
#[derive(Debug, Clone, Copy, Default)]
struct Edges {
    entries: [Option<(u32, BlockHandle)>; 4],
    next: u8,
}

impl Edges {
    #[inline]
    fn get(&self, target: u32) -> Option<BlockHandle> {
        let &(_, h) = self.entries.iter().flatten().find(|e| e.0 == target)?;
        Some(h)
    }

    fn put(&mut self, target: u32, succ: BlockHandle) {
        let i = self
            .entries
            .iter()
            .position(|e| e.is_none_or(|(t, _)| t == target))
            .unwrap_or_else(|| {
                let i = usize::from(self.next) % self.entries.len();
                self.next = self.next.wrapping_add(1);
                i
            });
        self.entries[i] = Some((target, succ));
    }
}

/// One arena slot: the resident block, the slot's generation and its two
/// edge caches.
///
/// `succ` caches direct-chain successors. It is a host-side memo: on a
/// miss the index finds the same block, so its eviction order moves no
/// cycle. It has four entries because a superblock region also exits
/// through its side exits and SMC-guard resumes. `itc` models the small
/// per-site target-prediction cache patched next to a translated
/// `ret`/indirect `jmp` — the paper's return predictor generalized —
/// checked before falling back to dispatch; its fill order is simulated.
#[derive(Debug, Clone, Default)]
struct Slot {
    block: Option<Arc<TBlock>>,
    gen: u32,
    succ: Edges,
    itc: Edges,
}

/// The execution tile's L1 code cache (instruction memory).
///
/// Host-side, blocks live in a slot arena indexed by a
/// `guest_addr → slot` [`AddrMap`]. The dispatch loop holds
/// [`BlockHandle`]s and caches chain successors per slot, so the hot
/// chained-dispatch edge is two generation checks and an array index —
/// no hashing.
#[derive(Debug, Clone)]
pub struct L1Code {
    capacity: u32,
    used: u32,
    slots: Vec<Slot>,
    free_slots: Vec<u32>,
    index: AddrMap<u32, u32>,
    flushes: u64,
}

impl L1Code {
    /// Creates an empty L1 code cache of `capacity` bytes.
    pub fn new(capacity: u32) -> L1Code {
        L1Code {
            capacity,
            used: 0,
            slots: Vec::new(),
            free_slots: Vec::new(),
            index: AddrMap::default(),
            flushes: 0,
        }
    }

    /// Looks up a resident translation's handle.
    #[inline]
    pub fn lookup(&self, guest_addr: u32) -> Option<BlockHandle> {
        let &slot = self.index.get(&guest_addr)?;
        let gen = self.slots[slot as usize].gen;
        Some(BlockHandle { slot, gen })
    }

    /// `h`'s slot, unless it has been cleared since `h` was created.
    #[inline]
    fn slot(&self, h: BlockHandle) -> Option<&Slot> {
        let slot = &self.slots[h.slot as usize];
        (slot.gen == h.gen).then_some(slot)
    }

    fn slot_mut(&mut self, h: BlockHandle) -> Option<&mut Slot> {
        let slot = &mut self.slots[h.slot as usize];
        (slot.gen == h.gen).then_some(slot)
    }

    /// Resolves a handle to its block; `None` if the slot has been
    /// cleared (flush / invalidation) since the handle was created.
    #[inline]
    pub(crate) fn handle_block(&self, h: BlockHandle) -> Option<&Arc<TBlock>> {
        self.slot(h)?.block.as_ref()
    }

    /// The cached chain successor of `h`'s block for branch target
    /// `target`, if still valid.
    #[inline]
    pub(crate) fn cached_succ(&self, h: BlockHandle, target: u32) -> Option<BlockHandle> {
        let next = self.slot(h)?.succ.get(target)?;
        self.slot(next).map(|_| next)
    }

    /// The inline-cache prediction of `h`'s block for indirect target
    /// `target`, if cached and still valid.
    #[inline]
    pub(crate) fn cached_indirect(&self, h: BlockHandle, target: u32) -> Option<BlockHandle> {
        let next = self.slot(h)?.itc.get(target)?;
        self.slot(next).map(|_| next)
    }

    /// Whether a translation for `guest_addr` is resident (chainable).
    #[inline]
    pub fn contains(&self, guest_addr: u32) -> bool {
        self.index.contains_key(&guest_addr)
    }

    /// Inserts a block, tight-packing; returns `true` if the cache had to
    /// be flushed to make room. Blocks larger than the whole cache are
    /// not cached (they execute from the fetch path each time).
    pub fn insert(&mut self, block: Arc<TBlock>) -> bool {
        let bytes = block.host_bytes();
        if bytes > self.capacity {
            return false;
        }
        let flushed = self.used + bytes > self.capacity;
        if flushed {
            self.flush_all();
        }
        self.used += bytes;
        let addr = block.guest_addr;
        let slot = self.alloc_slot(block);
        // Overwrite an existing mapping by retiring its slot (its bytes
        // stay packed until the next flush); stale handles to the old
        // block fail their generation check.
        if let Some(old) = self.index.insert(addr, slot) {
            self.clear_slot(old);
        }
        flushed
    }

    /// Drops one translation (self-modifying-code invalidation). Any
    /// outstanding handle or cached chain edge to it goes stale.
    pub fn invalidate(&mut self, guest_addr: u32) {
        if let Some(slot) = self.index.remove(&guest_addr) {
            let block = self.clear_slot(slot).expect("live slot");
            self.used -= block.host_bytes();
        }
    }

    /// Drops every inline indirect-target cache entry predicting a
    /// target inside `page` (a 4 KiB page number). SMC invalidation
    /// calls this on the modeled hardware's behalf: the compare patched
    /// next to each indirect site holds a *guest code address*, and on
    /// the real machine nothing re-checks it once new code for that
    /// address is installed — the patch itself must be flushed. The
    /// host-side handle in the entry happens to go stale through its
    /// generation check too, but only as long as handles are the lookup
    /// mechanism; the purge keeps the model honest rather than leaning
    /// on that accident.
    pub(crate) fn purge_indirect_targets(&mut self, page: u32) {
        for slot in &mut self.slots {
            for e in &mut slot.itc.entries {
                if e.is_some_and(|(t, _)| t / 4096 == page) {
                    *e = None;
                }
            }
        }
    }

    /// Number of whole-cache flushes so far.
    pub(crate) fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Flush-all: clear every slot (bumping its generation) and the
    /// index.
    fn flush_all(&mut self) {
        for i in 0..self.slots.len() {
            if self.slots[i].block.is_some() {
                self.clear_slot(i as u32);
            }
        }
        self.index.clear();
        self.used = 0;
        self.flushes += 1;
    }

    fn alloc_slot(&mut self, block: Arc<TBlock>) -> u32 {
        let fresh = |gen| Slot {
            block: Some(block),
            gen,
            ..Slot::default()
        };
        if let Some(i) = self.free_slots.pop() {
            let s = &mut self.slots[i as usize];
            *s = fresh(s.gen);
            i
        } else {
            self.slots.push(fresh(0));
            (self.slots.len() - 1) as u32
        }
    }

    /// Empties slot `i`, bumping its generation; returns its block.
    fn clear_slot(&mut self, i: u32) -> Option<Arc<TBlock>> {
        let s = &mut self.slots[i as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free_slots.push(i);
        s.block.take()
    }
}

/// One L1.5 code-cache bank tile.
///
/// Eviction is *hash-retention* rather than LRU: each block has a fixed
/// pseudo-random priority derived from its guest address, and
/// low-priority blocks stick. Under a cyclic sweep larger than the bank
/// (the gcc/vortex pattern) LRU retains nothing, while a sticky subset
/// gives the capacity-proportional hit rate a hashed hardware cache
/// would. Blocks are kept in retention order, so the victim is the last.
#[derive(Debug, Clone)]
pub struct L15Bank {
    capacity: u32,
    used: u32,
    /// Resident blocks keyed by [`L15Bank::retention`] of their address.
    blocks: BTreeMap<u32, Arc<TBlock>>,
}

impl L15Bank {
    /// Creates an empty bank of `capacity` bytes.
    pub fn new(capacity: u32) -> L15Bank {
        L15Bank {
            capacity,
            used: 0,
            blocks: BTreeMap::new(),
        }
    }

    /// Looks up a block.
    pub fn get(&self, guest_addr: u32) -> Option<Arc<TBlock>> {
        self.blocks.get(&Self::retention(guest_addr)).cloned()
    }

    /// Fixed per-address retention priority (lower sticks harder). A
    /// bijection on `u32` — xor is invertible and the multiplier is odd —
    /// so priorities never tie and a key names exactly one address.
    fn retention(addr: u32) -> u32 {
        (addr ^ 0x9E37_79B9).wrapping_mul(0x85EB_CA6B)
    }

    /// Inserts a block, replacing any at its address; evicts the
    /// highest-retention-priority blocks (possibly the incoming block
    /// itself) until the bank fits.
    pub fn insert(&mut self, block: Arc<TBlock>) {
        let bytes = block.host_bytes();
        if bytes > self.capacity {
            return;
        }
        if let Some(old) = self.blocks.insert(Self::retention(block.guest_addr), block) {
            self.used -= old.host_bytes();
        }
        self.used += bytes;
        while self.used > self.capacity {
            let (_, b) = self.blocks.pop_last().expect("over capacity, so non-empty");
            self.used -= b.host_bytes();
        }
    }

    /// Drops one translation.
    pub(crate) fn invalidate(&mut self, guest_addr: u32) {
        if let Some(b) = self.blocks.remove(&Self::retention(guest_addr)) {
            self.used -= b.host_bytes();
        }
    }
}

/// The manager tile's L2 code cache (in DRAM).
///
/// Blocks are packed until the next one does not fit; then the whole
/// cache is flushed, like L1 — but the incoming block is always kept,
/// even one larger than the whole cache (the manager must be able to
/// serve every translation it commits). The paper's 105 MB never fills.
#[derive(Debug, Clone, Default)]
pub struct L2Code {
    capacity: u64,
    used: u64,
    blocks: AddrMap<u32, Arc<TBlock>>,
    flushes: u64,
}

impl L2Code {
    /// Creates an empty L2 code cache of `capacity` bytes.
    pub fn new(capacity: u64) -> L2Code {
        L2Code {
            capacity,
            ..L2Code::default()
        }
    }

    /// Looks up a committed translation.
    pub fn get(&self, guest_addr: u32) -> Option<&Arc<TBlock>> {
        self.blocks.get(&guest_addr)
    }

    /// Commits a finished translation, replacing any block at its
    /// address and flushing the whole cache first if it does not fit.
    ///
    /// This is the single point where translations become visible to the
    /// simulation, reached in canonical commit order (see
    /// [`crate::slave`]).
    pub fn commit(&mut self, block: Arc<TBlock>) {
        self.invalidate(block.guest_addr);
        let bytes = block.host_bytes() as u64;
        if self.used + bytes > self.capacity {
            self.blocks.clear();
            self.used = 0;
            self.flushes += 1;
        }
        self.used += bytes;
        self.blocks.insert(block.guest_addr, block);
    }

    /// Drops a translation (self-modifying-code invalidation).
    pub(crate) fn invalidate(&mut self, guest_addr: u32) {
        if let Some(b) = self.blocks.remove(&guest_addr) {
            self.used -= b.host_bytes() as u64;
        }
    }

    /// Number of whole-cache flushes so far.
    pub(crate) fn flushes(&self) -> u64 {
        self.flushes
    }
}

/// One L1.5 bank tile: where it sits, what it holds, and when its
/// software loop is next free.
#[derive(Debug, Clone)]
struct BankTile {
    tile: TileId,
    bank: L15Bank,
    next_free: Cycle,
}

/// The code caches on the execution tile's side of the manager: its own
/// L1 instruction memory and the L1.5 bank tiles next to it.
#[derive(Debug, Clone)]
pub(crate) struct CodeHierarchy {
    exec: TileId,
    l1: L1Code,
    banks: Vec<BankTile>,
}

impl CodeHierarchy {
    /// The empty hierarchy of `cfg`'s virtual architecture.
    pub(crate) fn new(cfg: &VirtualArchConfig) -> CodeHierarchy {
        CodeHierarchy {
            exec: cfg.placement.exec,
            l1: L1Code::new(cfg.l1_code_bytes),
            banks: cfg
                .placement
                .l15_banks
                .iter()
                .map(|&tile| BankTile {
                    tile,
                    bank: L15Bank::new(cfg.l15_bank_bytes),
                    next_free: Cycle::ZERO,
                })
                .collect(),
        }
    }

    /// The L1.5 bank serving `pc`, or `None` when no banks exist (the
    /// modulus by the bank count can never divide by zero).
    pub(crate) fn l15_index(&self, pc: u32) -> Option<usize> {
        (!self.banks.is_empty()).then(|| (pc as usize >> 2) % self.banks.len())
    }

    /// Obtains the translated block for `pc` from cycle `now`, charging
    /// the lookup costs of whichever level supplies it: L1, the L1.5
    /// bank serving `pc`, or the manager (which demand-translates on an
    /// L2 miss). The block ends up resident in L1 — unless it is larger
    /// than the whole cache — and in its L1.5 bank. Returns the block,
    /// its L1 handle, and the cycle the execution tile can run it.
    pub(crate) fn fetch(
        &mut self,
        pc: u32,
        mut now: Cycle,
        manager: &mut Manager,
        out: &mut Outside<'_>,
    ) -> Result<(Arc<TBlock>, Option<BlockHandle>, Cycle), SystemError> {
        if let Some(h) = self.l1.lookup(pc) {
            out.stats.bump_ctr(Ctr::L1CodeHit);
            let b = Arc::clone(self.l1.handle_block(h).expect("fresh handle"));
            return Ok((b, Some(h), now));
        }
        out.stats.bump_ctr(Ctr::L1CodeMiss);

        let bank = self.l15_index(pc);
        let (exec, mgr) = (self.exec, manager.tile());
        let arrival = if let Some(idx) = bank {
            let b = &mut self.banks[idx];
            let tile = b.tile;
            now += net::message(out.tracer, now, exec, tile, 1);
            now = now.max(b.next_free);
            let service = out.timing.l15_service;
            out.tracer
                .span(now, service, out.tracks.tile(tile), "l15.lookup");
            now += service;
            b.next_free = now;
            if let Some(block) = b.bank.get(pc) {
                out.stats.bump_ctr(Ctr::L15Hit);
                now += net::message(out.tracer, now, tile, exec, block.code.len() as u32);
                now = self.install_l1(&block, now, out);
                return Ok((block, self.l1.lookup(pc), now));
            }
            out.stats.bump_ctr(Ctr::L15Miss);
            // A request that missed in an L1.5 bank is *forwarded* from
            // the bank tile — the wire is charged from the bank, not
            // teleported back to the execution tile — and the bank
            // simultaneously sends the execution tile a one-word miss
            // notification so the dispatch loop knows to wait on the
            // manager. Both legs leave the bank at the same cycle, so
            // the request's effective latency is their max.
            let forward = net::message(out.tracer, now, tile, mgr, 1);
            let notify = net::message(out.tracer, now, tile, exec, 1);
            now + forward.max(notify)
        } else {
            now + net::message(out.tracer, now, exec, mgr, 1)
        };

        let fetched = manager.lookup(pc, arrival, out)?;
        for addr in fetched.swapped {
            self.invalidate(addr);
        }
        let block = fetched.block;
        now = fetched.at;
        now += net::message(out.tracer, now, mgr, exec, block.code.len() as u32);
        if let Some(idx) = bank {
            self.banks[idx].bank.insert(Arc::clone(&block));
        }
        now = self.install_l1(&block, now, out);
        Ok((block, self.l1.lookup(pc), now))
    }

    /// Relocates `block` into L1 instruction memory from cycle `now`
    /// (copy plus chain re-patching, plus the flush if it did not fit);
    /// returns the cycle it is in place.
    fn install_l1(&mut self, block: &Arc<TBlock>, mut now: Cycle, out: &mut Outside<'_>) -> Cycle {
        let words = block.code.len() as u64;
        now += 30 + words * out.timing.l1code_copy_per_word;
        if self.l1.insert(Arc::clone(block)) {
            now += out.timing.l1code_flush;
            out.tracer
                .instant(now, out.tracks.exec, "l1code.flush", words);
        }
        now
    }

    /// Drops the translation of `addr` from L1 and every L1.5 bank; an
    /// outstanding handle or chained edge to it fails its generation
    /// check. With the manager dropping its own L2 entry this is how a
    /// translation is revoked: region swap, demotion, SMC alike.
    pub(crate) fn invalidate(&mut self, addr: u32) {
        self.l1.invalidate(addr);
        for b in &mut self.banks {
            b.bank.invalidate(addr);
        }
    }

    /// See [`L1Code::purge_indirect_targets`].
    pub(crate) fn purge_indirect_targets(&mut self, page: u32) {
        self.l1.purge_indirect_targets(page);
    }

    /// The L1 code cache, to read (handles, inline caches, flush count).
    #[inline]
    pub(crate) fn l1(&self) -> &L1Code {
        &self.l1
    }

    /// The L1-resident block a direct exit of `from`'s block to `target`
    /// chains to: the patched branch if the edge is cached, else an L1
    /// lookup whose hit patches it.
    #[inline]
    pub(crate) fn chain(&mut self, from: Option<BlockHandle>, target: u32) -> Option<BlockHandle> {
        if let Some(next) = from.and_then(|h| self.l1.cached_succ(h, target)) {
            return Some(next);
        }
        let next = self.l1.lookup(target)?;
        if let Some(slot) = from.and_then(|h| self.l1.slot_mut(h)) {
            slot.succ.put(target, next);
        }
        Some(next)
    }

    /// Patches `target` into `from`'s inline cache if it is L1-resident.
    pub(crate) fn learn_indirect(&mut self, from: Option<BlockHandle>, target: u32) {
        let Some(next) = self.l1.lookup(target) else {
            return;
        };
        if let Some(slot) = from.and_then(|h| self.l1.slot_mut(h)) {
            slot.itc.put(target, next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_raw::isa::RInsn;

    fn block(addr: u32, insns: usize) -> Arc<TBlock> {
        let entry = vta_ir::Member {
            addr,
            len: 4,
            insns: 1,
        };
        Arc::new(TBlock::new(
            entry,
            &[],
            vec![RInsn::Nop; insns],
            vta_ir::mir::Term::Halt,
            vta_ir::Footprint::default(),
        ))
    }

    #[test]
    fn l1_tight_pack_then_flush() {
        let mut l1 = L1Code::new(100); // room for 25 words
        assert!(!l1.insert(block(0x1000, 10))); // 40 bytes
        assert!(!l1.insert(block(0x2000, 10))); // 80 bytes
        assert!(l1.contains(0x1000));
        // Next insert exceeds capacity → flush-all.
        assert!(l1.insert(block(0x3000, 10)));
        assert!(!l1.contains(0x1000), "flush removes everything");
        assert!(l1.contains(0x3000));
        assert_eq!(l1.flushes(), 1);
        assert_eq!(l1.used, 40);
    }

    /// Whatever fits is resident right after its insert, and the byte
    /// account never exceeds capacity — across however many flushes.
    #[test]
    fn l1_random_inserts_stay_within_capacity() {
        let mut rng = vta_sim::Rng::seeded(0x11C0);
        for _ in 0..256 {
            let mut l1 = L1Code::new(4096);
            for _ in 0..rng.range(1, 99) {
                let addr = rng.next_u32();
                l1.insert(block(addr, rng.range(1, 199) as usize));
                assert!(l1.used <= 4096, "over capacity");
                assert!(l1.contains(addr), "inserted block resident");
            }
        }
    }

    #[test]
    fn l1_oversize_block_not_cached() {
        let mut l1 = L1Code::new(100);
        assert!(!l1.insert(block(0x1000, 100))); // 400 bytes > 100
        assert!(!l1.contains(0x1000));
        assert_eq!(l1.used, 0);
    }

    #[test]
    fn l1_invalidate_reclaims() {
        let mut l1 = L1Code::new(100);
        l1.insert(block(0x1000, 10));
        l1.invalidate(0x1000);
        assert!(!l1.contains(0x1000));
        assert_eq!(l1.used, 0);
    }

    #[test]
    fn l1_handle_goes_stale_on_invalidate() {
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 10));
        let h = l1.lookup(0x1000).expect("resident");
        assert!(l1.handle_block(h).is_some());
        l1.invalidate(0x1000);
        assert!(l1.handle_block(h).is_none(), "stale generation");
        // Reinsert: old handle must stay stale even if the slot is reused.
        l1.insert(block(0x1000, 10));
        assert!(l1.handle_block(h).is_none());
        assert!(l1.lookup(0x1000).is_some());
    }

    #[test]
    fn l1_handle_goes_stale_on_flush() {
        let mut l1 = L1Code::new(100);
        l1.insert(block(0x1000, 10));
        let h = l1.lookup(0x1000).expect("resident");
        assert!(l1.insert(block(0x2000, 10)) || l1.insert(block(0x3000, 10)));
        assert!(l1.handle_block(h).is_none(), "flush revokes handles");
    }

    #[test]
    fn l1_chain_succ_cache() {
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 5));
        l1.insert(block(0x2000, 5));
        let a = l1.lookup(0x1000).unwrap();
        let b = l1.lookup(0x2000).unwrap();
        assert_eq!(l1.cached_succ(a, 0x2000), None, "cold");
        l1.slot_mut(a).unwrap().succ.put(0x2000, b);
        assert_eq!(l1.cached_succ(a, 0x2000), Some(b));
        assert_eq!(l1.cached_succ(a, 0x3000), None, "different target");
        // Invalidating the successor makes the edge stale.
        l1.invalidate(0x2000);
        assert_eq!(l1.cached_succ(a, 0x2000), None);
        // Two distinct targets fit (cond-branch fanout).
        l1.insert(block(0x2000, 5));
        l1.insert(block(0x4000, 5));
        let b2 = l1.lookup(0x2000).unwrap();
        let c = l1.lookup(0x4000).unwrap();
        l1.slot_mut(a).unwrap().succ.put(0x2000, b2);
        l1.slot_mut(a).unwrap().succ.put(0x4000, c);
        assert_eq!(l1.cached_succ(a, 0x2000), Some(b2));
        assert_eq!(l1.cached_succ(a, 0x4000), Some(c));
    }

    #[test]
    fn l1_inline_indirect_cache() {
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 5));
        let a = l1.lookup(0x1000).unwrap();
        for (i, addr) in [0x2000u32, 0x3000, 0x4000, 0x5000].iter().enumerate() {
            l1.insert(block(*addr, 1));
            let t = l1.lookup(*addr).unwrap();
            l1.slot_mut(a).unwrap().itc.put(*addr, t);
            assert_eq!(l1.cached_indirect(a, *addr), Some(t), "entry {i}");
        }
        // A fifth target evicts round-robin; the cache still answers for
        // the newest entry and misses cleanly on the evicted one.
        l1.insert(block(0x6000, 1));
        let t6 = l1.lookup(0x6000).unwrap();
        l1.slot_mut(a).unwrap().itc.put(0x6000, t6);
        assert_eq!(l1.cached_indirect(a, 0x6000), Some(t6));
        assert_eq!(l1.cached_indirect(a, 0x2000), None, "evicted");
        // Invalidating a cached target's translation revokes the entry.
        l1.invalidate(0x6000);
        assert_eq!(l1.cached_indirect(a, 0x6000), None, "stale generation");
        // Invalidating the *source* block revokes the whole cache.
        l1.invalidate(0x1000);
        assert_eq!(l1.cached_indirect(a, 0x3000), None);
    }

    #[test]
    fn l1_purge_indirect_targets_by_page() {
        // SMC invalidation of a page must flush inline-cache entries
        // predicting targets *inside* that page even when the target's
        // own translation is still resident — the hardware's patched
        // compare holds a raw guest address and never re-checks it.
        let mut l1 = L1Code::new(1000);
        l1.insert(block(0x1000, 5));
        let a = l1.lookup(0x1000).unwrap();
        l1.insert(block(0x2000, 1));
        l1.insert(block(0x3000, 1));
        let t2 = l1.lookup(0x2000).unwrap();
        let t3 = l1.lookup(0x3000).unwrap();
        l1.slot_mut(a).unwrap().itc.put(0x2000, t2);
        l1.slot_mut(a).unwrap().itc.put(0x3000, t3);
        l1.purge_indirect_targets(0x2000 / 4096);
        assert_eq!(
            l1.cached_indirect(a, 0x2000),
            None,
            "entry into the invalidated page purged despite a live target"
        );
        assert_eq!(
            l1.cached_indirect(a, 0x3000),
            Some(t3),
            "entries into other pages survive"
        );
    }

    #[test]
    fn l1_holds_hundreds_of_resident_blocks() {
        // Far more blocks than the index's first allocation holds.
        let mut l1 = L1Code::new(1 << 20);
        for i in 0..500u32 {
            assert!(!l1.insert(block(0x1000 + i * 16, 1)));
        }
        for i in 0..500u32 {
            assert!(l1.contains(0x1000 + i * 16), "addr {i} resident");
        }
        assert!(!l1.contains(0x0));
    }

    #[test]
    fn l1_insert_invalidate_churn_reclaims_every_byte() {
        // Rounds of inserts and invalidates at one set of addresses
        // return every byte and leave nothing resident.
        let mut l1 = L1Code::new(1 << 20);
        for round in 0..50u32 {
            for i in 0..40u32 {
                l1.insert(block(0x1000 + i * 4, 1));
            }
            for i in 0..40u32 {
                l1.invalidate(0x1000 + i * 4);
            }
            assert_eq!(l1.used, 0, "round {round}");
        }
        assert!(!l1.contains(0x1000));
    }

    /// L1 and its two edge caches against a model, over seeded streams
    /// of inserts (fresh, at a resident address, oversize), invalidates,
    /// page purges, chained exits and learned indirect targets, through
    /// flushes of a tight cache. The model holds each resident block's
    /// bytes and an instance number, and each instance's inline
    /// indirect cache as the modeled hardware fills it (first free or
    /// matching entry, else round-robin). The chain-successor cache has
    /// no model: `chain` must answer exactly what `lookup` does, so its
    /// eviction order is the host's alone.
    #[test]
    fn l1_random_streams_match_a_model() {
        type Resident = BTreeMap<u32, (u32, u64)>;
        type Itc = ([Option<(u32, u64)>; 4], usize);
        let live = |h: &(BlockHandle, u64), resident: &Resident| {
            resident.values().any(|&(_, id)| id == h.1)
        };
        let mut rng = vta_sim::Rng::seeded(0x11AB);
        for _ in 0..64 {
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.l1_code_bytes = rng.range(64, 1024) as u32;
            let capacity = cfg.l1_code_bytes;
            let mut code = CodeHierarchy::new(&cfg);
            let pool: Vec<u32> = (0..rng.range(4, 24))
                .map(|_| 0x1000 * rng.range(1, 3) as u32 + 16 * rng.below(256) as u32)
                .collect();
            // addr -> (bytes, instance); instance -> its inline cache.
            let mut resident = Resident::new();
            let mut itcs: BTreeMap<u64, Itc> = BTreeMap::new();
            let (mut used, mut flushes, mut instances) = (0u32, 0u64, 0u64);
            // Handles seen, with the instance each was made for.
            let mut handles: Vec<(BlockHandle, u64)> = Vec::new();
            for _ in 0..rng.range(50, 400) {
                let addr = if !resident.is_empty() && rng.chance(1, 4) {
                    let nth = rng.below(resident.len() as u64) as usize;
                    *resident.keys().nth(nth).expect("in range")
                } else {
                    pool[rng.below(pool.len() as u64) as usize]
                };
                // Mostly the oldest live block, so its inline cache fills.
                let from = match rng.below(4) {
                    0 => None,
                    1 => handles.get(rng.below(8) as usize).copied(),
                    _ => handles.iter().find(|h| live(h, &resident)).copied(),
                };
                match rng.below(20) {
                    0..=5 => {
                        let most = u64::from(capacity) / if rng.chance(1, 8) { 3 } else { 32 };
                        let insns = rng.range(1, most + 1) as usize;
                        let bytes = insns as u32 * RInsn::SIZE_BYTES;
                        let flushed = code.l1.insert(block(addr, insns));
                        let flush = bytes <= capacity && used + bytes > capacity;
                        assert_eq!(flushed, flush, "flush at {bytes} B into {used} B");
                        if flush {
                            resident.clear();
                            used = 0;
                            flushes += 1;
                        }
                        if bytes <= capacity {
                            // The bytes of a block it replaces stay packed
                            // until the next flush.
                            used += bytes;
                            instances += 1;
                            resident.insert(addr, (bytes, instances));
                            itcs.insert(instances, ([None; 4], 0));
                            let h = code.l1.lookup(addr).expect("just inserted");
                            handles.push((h, instances));
                            if handles.len() > 8 {
                                let dead = handles.iter().position(|h| !live(h, &resident));
                                handles.remove(dead.unwrap_or(0));
                            }
                        }
                    }
                    6 | 7 => {
                        code.invalidate(addr);
                        if let Some((bytes, _)) = resident.remove(&addr) {
                            used -= bytes;
                        }
                    }
                    8 => {
                        let page = addr / 4096;
                        code.purge_indirect_targets(page);
                        for (entries, _) in itcs.values_mut() {
                            for e in entries.iter_mut() {
                                if e.is_some_and(|(t, _)| t / 4096 == page) {
                                    *e = None;
                                }
                            }
                        }
                    }
                    9..=12 => {
                        let next = code.chain(from.map(|(h, _)| h), addr);
                        assert_eq!(next, code.l1.lookup(addr), "chain to {addr:#x}");
                    }
                    _ => {
                        code.learn_indirect(from.map(|(h, _)| h), addr);
                        let target = resident.get(&addr).map(|&(_, id)| id);
                        let from = from.filter(|h| live(h, &resident));
                        if let (Some((_, id)), Some(target)) = (from, target) {
                            let (entries, next) = itcs.get_mut(&id).expect("live instance");
                            let hit = entries
                                .iter()
                                .position(|e| e.is_none_or(|(t, _)| t == addr));
                            let i = hit.unwrap_or_else(|| {
                                *next += 1;
                                (*next - 1) % 4
                            });
                            entries[i] = Some((addr, target));
                        }
                    }
                }

                assert_eq!(code.l1.used, used, "capacity {capacity}");
                assert_eq!(code.l1.flushes(), flushes);
                for &a in &pool {
                    let h = code.l1.lookup(a);
                    assert_eq!(h.is_some(), resident.contains_key(&a), "{a:#x}");
                    assert_eq!(code.l1.contains(a), h.is_some());
                    if let Some(h) = h {
                        let b = code.l1.handle_block(h).expect("fresh handle");
                        assert_eq!(b.guest_addr, a);
                    }
                    for from in &handles {
                        let succ = code.l1.cached_succ(from.0, a);
                        assert!(succ.is_none() || succ == h, "succ {a:#x}");
                        let model = || {
                            let (entries, _) =
                                itcs.get(&from.1).filter(|_| live(from, &resident))?;
                            let (_, target) = entries.iter().flatten().find(|e| e.0 == a)?;
                            (resident.get(&a)?.1 == *target).then_some(h?)
                        };
                        assert_eq!(code.l1.cached_indirect(from.0, a), model(), "itc {a:#x}");
                    }
                }
            }
        }
    }

    #[test]
    fn l15_hash_retention_is_stable() {
        // Cyclic sweep over 3 blocks through a 2-block bank: a fixed
        // subset must stay resident (LRU would evict everything).
        let mut bank = L15Bank::new(100);
        let addrs = [0x1000u32, 0x2000, 0x3000];
        for _ in 0..4 {
            for &a in &addrs {
                if bank.get(a).is_none() {
                    bank.insert(block(a, 10));
                }
            }
        }
        let resident: Vec<u32> = addrs
            .iter()
            .copied()
            .filter(|&a| bank.get(a).is_some())
            .collect();
        assert_eq!(resident.len(), 2, "two of three fit and must stick");
        // The resident set is deterministic across rebuilds.
        let mut bank2 = L15Bank::new(100);
        for _ in 0..4 {
            for &a in &addrs {
                if bank2.get(a).is_none() {
                    bank2.insert(block(a, 10));
                }
            }
        }
        for &a in &resident {
            assert!(bank2.get(a).is_some());
        }
    }

    /// Re-inserting a resident address replaces its bytes rather than
    /// adding to them, so the bank never evicts blocks that fit.
    #[test]
    fn l15_reinsert_replaces_the_resident_bytes() {
        let mut bank = L15Bank::new(80);
        bank.insert(block(0x1000, 10)); // 40 bytes
        bank.insert(block(0x1000, 10));
        bank.insert(block(0x2000, 10));
        assert_eq!(bank.used, 80);
        assert!(bank.get(0x1000).is_some() && bank.get(0x2000).is_some());
    }

    /// Retention is a function of the operation sequence alone, and the
    /// ordered map evicts exactly what a whole-bank scan for the highest
    /// retention priority would: a `Vec` of `(addr, bytes)` evicting by
    /// that scan is the reference, held to the bank after every insert
    /// (fresh and resident addresses), invalidate and get.
    #[test]
    fn l15_random_inserts_retain_deterministically() {
        let mut rng = vta_sim::Rng::seeded(0x15BA);
        let used = |model: &[(u32, u32)]| model.iter().map(|&(_, b)| b).sum::<u32>();
        for _ in 0..256 {
            let top = 16 << rng.range(0, 12); // 16 B..64 KiB
            let capacity = rng.range(16, top) as u32;
            let pool: Vec<u32> = (0..rng.range(1, 64)).map(|_| rng.next_u32()).collect();
            let mut bank = L15Bank::new(capacity);
            let mut model: Vec<(u32, u32)> = Vec::new();
            for _ in 0..rng.range(1, 400) {
                let addr = if rng.chance(1, 4) {
                    rng.next_u32()
                } else {
                    pool[rng.below(pool.len() as u64) as usize]
                };
                match rng.below(4) {
                    0 => {
                        bank.invalidate(addr);
                        model.retain(|&(a, _)| a != addr);
                    }
                    1 => {
                        let resident = model.iter().any(|&(a, _)| a == addr);
                        assert_eq!(bank.get(addr).is_some(), resident, "get {addr:#x}");
                    }
                    _ => {
                        // Mostly blocks of up to an eighth of the bank;
                        // one in eight up to just over the whole bank.
                        let most = u64::from(capacity) / if rng.chance(1, 8) { 4 } else { 32 };
                        let insns = rng.range(1, most + 1) as usize;
                        bank.insert(block(addr, insns));
                        let bytes = insns as u32 * RInsn::SIZE_BYTES;
                        if bytes <= capacity {
                            model.retain(|&(a, _)| a != addr);
                            model.push((addr, bytes));
                            while used(&model) > capacity {
                                let victim = (0..model.len())
                                    .max_by_key(|&i| L15Bank::retention(model[i].0))
                                    .expect("non-empty when over capacity");
                                model.swap_remove(victim);
                            }
                        }
                    }
                }
                let mut resident: Vec<u32> = bank.blocks.values().map(|b| b.guest_addr).collect();
                let mut expected: Vec<u32> = model.iter().map(|&(a, _)| a).collect();
                resident.sort_unstable();
                expected.sort_unstable();
                assert_eq!(resident, expected, "capacity {capacity}");
                assert_eq!(bank.used, used(&model), "capacity {capacity}");
            }
        }
    }

    #[test]
    fn l15_oversize_block_skipped() {
        let mut bank = L15Bank::new(16);
        bank.insert(block(0x1000, 10)); // 40 bytes > 16
        assert!(bank.get(0x1000).is_none());
    }

    #[test]
    fn l2_flushes_when_full_and_keeps_the_incoming_block() {
        let mut l2 = L2Code::new(100); // room for 25 words
        l2.commit(block(0x1000, 10));
        l2.commit(block(0x1000, 10)); // recommit replaces, never double-counts
        l2.commit(block(0x2000, 10));
        assert_eq!((l2.used, l2.flushes()), (80, 0));
        l2.commit(block(0x3000, 10));
        assert!(l2.get(0x1000).is_none() && l2.get(0x2000).is_none());
        assert!(l2.get(0x3000).is_some());
        assert_eq!((l2.used, l2.flushes()), (40, 1));
        // A block larger than the whole cache is still held, alone.
        l2.commit(block(0x4000, 100));
        assert!(l2.get(0x4000).is_some() && l2.get(0x3000).is_none());
        assert_eq!((l2.used, l2.flushes()), (400, 2));
    }

    #[test]
    fn l2_invalidate() {
        let mut l2 = L2Code::new(1 << 20);
        l2.commit(block(0x1000, 10));
        l2.invalidate(0x1000);
        assert!(l2.get(0x1000).is_none());
        assert_eq!(l2.used, 0);
    }

    #[test]
    fn hierarchy_invalidate_leaves_no_level_holding_the_block() {
        use crate::manager::tests::{World, BASE};
        use vta_x86::{Asm, GuestImage, Reg};
        let cfg = VirtualArchConfig::paper_default();
        let mut a = Asm::new(BASE);
        let next = a.label();
        a.add_ri(Reg::EAX, 1);
        a.jmp(next);
        a.bind(next);
        let second = a.cur_addr();
        a.exit_with_eax();
        let mut w = World::new(&cfg, &GuestImage::from_code(a.finish()));
        let mut manager = Manager::new(&cfg);
        let mut code = CodeHierarchy::new(&cfg);
        let mut fetch = |code: &mut CodeHierarchy, w: &mut World, pc, now| {
            let fetched = code.fetch(pc, now, &mut manager, &mut w.outside());
            let (_, handle, now) = fetched.expect("translates");
            (handle.expect("in L1"), now)
        };
        let (first_h, t0) = fetch(&mut code, &mut w, BASE, Cycle(0));
        let (second_h, t1) = fetch(&mut code, &mut w, second, t0);
        assert_eq!(code.chain(Some(first_h), second), Some(second_h));
        let idx = code.l15_index(second).expect("two banks");
        assert!(code.banks[idx].bank.get(second).is_some(), "in L1.5");

        code.invalidate(second);
        let live = |code: &CodeHierarchy, h| code.l1().handle_block(h).is_some();
        assert!(!live(&code, second_h), "generation check fails");
        assert_eq!(code.chain(Some(first_h), second), None, "stale edge");
        assert!(!code.l1.contains(second));
        assert!(code.banks.iter().all(|b| b.bank.get(second).is_none()));
        assert!(live(&code, first_h), "other blocks untouched");

        // The manager still holds it: the refetch is served from L2
        // without a retranslation, and reinstalls both levels.
        let committed = w.stats.get("translate.committed");
        let (h, t2) = fetch(&mut code, &mut w, second, t1);
        assert!(t2 > t1, "the walk to the manager is charged");
        assert!(live(&code, h) && code.banks[idx].bank.get(second).is_some());
        assert_eq!(w.stats.get("translate.committed"), committed);
        assert_eq!(w.stats.get("l1code.miss"), 3);
    }
}
