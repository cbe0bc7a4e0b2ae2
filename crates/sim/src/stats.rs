use std::collections::BTreeMap;
use std::fmt;

/// The interned counters every simulated component bumps.
///
/// The execution loop increments several counters per simulated basic
/// block, so every counter name is interned: each variant indexes a
/// flat `[u64; N]` array inside [`Stats`] and an increment is a single
/// array add. Counters are written through a `Ctr` only; the
/// string-keyed [`Stats`] API reads the same slots by name.
///
/// Variants are declared in ascending name order — the order of
/// [`Ctr::ALL`], so `ALL[i] as usize == i` — and iteration is therefore
/// name-ordered without sorting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Ctr {
    /// `chain.taken` — direct branches dispatched through an L1 chain.
    ChainTaken,
    /// `cycles` — total simulated cycles (set once at end of run).
    Cycles,
    /// `dispatch.direct_miss` — direct branches that missed the L1 chain.
    DispatchDirectMiss,
    /// `dispatch.indirect` — indirect branch dispatches.
    DispatchIndirect,
    /// `dispatch.inline_hit` — indirect branches resolved by a block's
    /// inline target-prediction cache (no dispatch round trip).
    DispatchInlineHit,
    /// `exec.blocks` — translated blocks executed.
    ExecBlocks,
    /// `exec.stall_cycles` — execution-tile cycles stalled on data
    /// loads/stores (the memory component of CPI).
    ExecStallCycles,
    /// `guest_insns` — guest instructions retired.
    GuestInsns,
    /// `host_insns` — host instructions executed.
    HostInsns,
    /// `l15.hit` — L1.5 code-cache hits.
    L15Hit,
    /// `l15.miss` — L1.5 code-cache misses.
    L15Miss,
    /// `l1code.flushes` — whole-L1-code-cache flushes.
    L1CodeFlushes,
    /// `l1code.hit` — L1 code-cache hits.
    L1CodeHit,
    /// `l1code.miss` — L1 code-cache misses.
    L1CodeMiss,
    /// `l2code.access` — L2 code-cache (manager) accesses.
    L2CodeAccess,
    /// `l2code.miss` — L2 code-cache misses (demand translations).
    L2CodeMiss,
    /// `manager.assign_cycles` — manager-tile cycles handing slaves jobs.
    ManagerAssignCycles,
    /// `manager.commit_cycles` — manager-tile cycles committing finished
    /// translations.
    ManagerCommitCycles,
    /// `manager.dram_wait_cycles` — manager-tile cycles a lookup held
    /// the ring while waiting on its DRAM-resident metadata.
    ManagerDramWaitCycles,
    /// `manager.morph_cycles` — cycles charged for reconfiguring a
    /// tile's role.
    ManagerMorphCycles,
    /// `manager.service_cycles` — manager-tile cycles serving demand
    /// lookups and SMC walks ("network service").
    ManagerServiceCycles,
    /// `mem.dram` — data accesses served by DRAM.
    MemDram,
    /// `mem.l1_hit` — data accesses served by the L1 D-cache.
    MemL1Hit,
    /// `mem.l2_hit` — data accesses served by an L2 bank.
    MemL2Hit,
    /// `mem.tlb_miss` — TLB misses (page-table walks).
    MemTlbMiss,
    /// `morph.reconfigs` — morphing reconfiguration decisions.
    MorphReconfigs,
    /// `morph.to_cache` — translator tiles morphed into cache banks.
    MorphToCache,
    /// `morph.to_translator` — cache banks morphed into translators.
    MorphToTranslator,
    /// `smc.invalidations` — self-modifying-code page invalidations.
    SmcInvalidations,
    /// `spec.pushes` — speculative translation queue pushes.
    SpecPushes,
    /// `superblock.demoted` — regions pinned back to single-block
    /// translation after a re-recorded path also failed to hold.
    SuperblockDemoted,
    /// `superblock.entries` — executions entering a multi-block region.
    SuperblockEntries,
    /// `superblock.promotions` — addresses promoted to region translation
    /// (a loop backedge or a capped region's continuation got hot).
    SuperblockPromotions,
    /// `superblock.re_recorded` — regions whose recorded path stopped
    /// holding and entered a second (final) recording pass.
    SuperblockReRecorded,
    /// `superblock.recorded` — regions formed along a runtime-recorded
    /// path (as opposed to the static prediction).
    SuperblockRecorded,
    /// `superblock.side_exits` — region exits through a side exit
    /// (mispredicted internal branch) rather than the region terminator.
    SuperblockSideExits,
    /// `superblock.smc_exits` — region exits forced by a self-modifying
    /// store observed at a member boundary guard.
    SuperblockSmcExits,
    /// `syscalls` — guest system calls.
    Syscalls,
    /// `translate.blocks` — blocks translated by the slave pool.
    TranslateBlocks,
    /// `translate.busy_cycles` — slave-tile cycles spent translating.
    TranslateBusyCycles,
    /// `translate.committed` — translations committed to the L2 code cache.
    TranslateCommitted,
}

impl Ctr {
    /// Number of interned counters (the size of the flat array).
    pub const COUNT: usize = 41;

    /// Every interned counter, in ascending name order.
    pub const ALL: [Ctr; Ctr::COUNT] = [
        Ctr::ChainTaken,
        Ctr::Cycles,
        Ctr::DispatchDirectMiss,
        Ctr::DispatchIndirect,
        Ctr::DispatchInlineHit,
        Ctr::ExecBlocks,
        Ctr::ExecStallCycles,
        Ctr::GuestInsns,
        Ctr::HostInsns,
        Ctr::L15Hit,
        Ctr::L15Miss,
        Ctr::L1CodeFlushes,
        Ctr::L1CodeHit,
        Ctr::L1CodeMiss,
        Ctr::L2CodeAccess,
        Ctr::L2CodeMiss,
        Ctr::ManagerAssignCycles,
        Ctr::ManagerCommitCycles,
        Ctr::ManagerDramWaitCycles,
        Ctr::ManagerMorphCycles,
        Ctr::ManagerServiceCycles,
        Ctr::MemDram,
        Ctr::MemL1Hit,
        Ctr::MemL2Hit,
        Ctr::MemTlbMiss,
        Ctr::MorphReconfigs,
        Ctr::MorphToCache,
        Ctr::MorphToTranslator,
        Ctr::SmcInvalidations,
        Ctr::SpecPushes,
        Ctr::SuperblockDemoted,
        Ctr::SuperblockEntries,
        Ctr::SuperblockPromotions,
        Ctr::SuperblockReRecorded,
        Ctr::SuperblockRecorded,
        Ctr::SuperblockSideExits,
        Ctr::SuperblockSmcExits,
        Ctr::Syscalls,
        Ctr::TranslateBlocks,
        Ctr::TranslateBusyCycles,
        Ctr::TranslateCommitted,
    ];

    /// The dotted string name this counter is published under.
    pub const fn name(self) -> &'static str {
        match self {
            Ctr::ChainTaken => "chain.taken",
            Ctr::Cycles => "cycles",
            Ctr::DispatchDirectMiss => "dispatch.direct_miss",
            Ctr::DispatchIndirect => "dispatch.indirect",
            Ctr::DispatchInlineHit => "dispatch.inline_hit",
            Ctr::ExecBlocks => "exec.blocks",
            Ctr::ExecStallCycles => "exec.stall_cycles",
            Ctr::GuestInsns => "guest_insns",
            Ctr::HostInsns => "host_insns",
            Ctr::L15Hit => "l15.hit",
            Ctr::L15Miss => "l15.miss",
            Ctr::L1CodeFlushes => "l1code.flushes",
            Ctr::L1CodeHit => "l1code.hit",
            Ctr::L1CodeMiss => "l1code.miss",
            Ctr::L2CodeAccess => "l2code.access",
            Ctr::L2CodeMiss => "l2code.miss",
            Ctr::ManagerAssignCycles => "manager.assign_cycles",
            Ctr::ManagerCommitCycles => "manager.commit_cycles",
            Ctr::ManagerDramWaitCycles => "manager.dram_wait_cycles",
            Ctr::ManagerMorphCycles => "manager.morph_cycles",
            Ctr::ManagerServiceCycles => "manager.service_cycles",
            Ctr::MemDram => "mem.dram",
            Ctr::MemL1Hit => "mem.l1_hit",
            Ctr::MemL2Hit => "mem.l2_hit",
            Ctr::MemTlbMiss => "mem.tlb_miss",
            Ctr::MorphReconfigs => "morph.reconfigs",
            Ctr::MorphToCache => "morph.to_cache",
            Ctr::MorphToTranslator => "morph.to_translator",
            Ctr::SmcInvalidations => "smc.invalidations",
            Ctr::SpecPushes => "spec.pushes",
            Ctr::SuperblockDemoted => "superblock.demoted",
            Ctr::SuperblockEntries => "superblock.entries",
            Ctr::SuperblockPromotions => "superblock.promotions",
            Ctr::SuperblockReRecorded => "superblock.re_recorded",
            Ctr::SuperblockRecorded => "superblock.recorded",
            Ctr::SuperblockSideExits => "superblock.side_exits",
            Ctr::SuperblockSmcExits => "superblock.smc_exits",
            Ctr::Syscalls => "syscalls",
            Ctr::TranslateBlocks => "translate.blocks",
            Ctr::TranslateBusyCycles => "translate.busy_cycles",
            Ctr::TranslateCommitted => "translate.committed",
        }
    }

    /// Resolves a string name to its interned counter, if it is one.
    pub fn from_name(name: &str) -> Option<Ctr> {
        Ctr::ALL
            .binary_search_by(|c| c.name().cmp(name))
            .ok()
            .map(|i| Ctr::ALL[i])
    }
}

/// A registry of named event counters and histograms for one simulation run.
///
/// Every figure in the paper's evaluation is a ratio of two counters
/// (e.g. Figure 6 is `l2code.accesses / cycles`), so components bump
/// counters here and the benchmark harness reads them back by name at the
/// end of a run. Names are dotted paths like `"l2code.miss"`.
///
/// Counters (see [`Ctr`]) live in a flat array and are written with
/// [`Stats::bump_ctr`]/[`Stats::add_ctr`]/[`Stats::set_ctr`] — a single
/// indexed store, suitable for per-block hot paths. The string-keyed
/// readers resolve a name to the same slot, so both views always agree.
///
/// # Examples
///
/// ```
/// use vta_sim::{Ctr, Stats};
///
/// let mut stats = Stats::new();
/// stats.add_ctr(Ctr::L2CodeAccess, 3);
/// stats.bump_ctr(Ctr::L2CodeAccess);
/// assert_eq!(stats.get("l2code.access"), 4);
/// assert_eq!(stats.get_ctr(Ctr::L2CodeAccess), 4);
/// assert_eq!(stats.get("never.touched"), 0);
/// ```
#[derive(Debug, Clone)]
pub struct Stats {
    /// Interned counter slots, indexed by `Ctr as usize`.
    fixed: [u64; Ctr::COUNT],
    /// Counters explicitly set to zero: they read the same as untouched
    /// ones but are still listed by `iter`/`Display`.
    zeroed: [bool; Ctr::COUNT],
    histograms: BTreeMap<String, Histogram>,
}

impl Default for Stats {
    fn default() -> Self {
        Stats {
            fixed: [0; Ctr::COUNT],
            zeroed: [false; Ctr::COUNT],
            histograms: BTreeMap::new(),
        }
    }
}

impl PartialEq for Stats {
    fn eq(&self, o: &Self) -> bool {
        // A counter `set` to zero and an untouched one hold the same
        // value; they differ only in visibility. Compare visibility of
        // the zero-valued slots rather than the raw flags so that e.g.
        // `set_ctr(c, 0); add_ctr(c, 1)` equals a plain `add_ctr(c, 1)`.
        self.fixed == o.fixed
            && Ctr::ALL.iter().all(|&c| {
                let i = c as usize;
                (self.zeroed[i] && self.fixed[i] == 0) == (o.zeroed[i] && o.fixed[i] == 0)
            })
            && self.histograms == o.histograms
    }
}

impl Eq for Stats {}

impl Stats {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Increments an interned counter by one.
    #[inline]
    pub fn bump_ctr(&mut self, c: Ctr) {
        self.fixed[c as usize] += 1;
    }

    /// Adds `n` to an interned counter.
    #[inline]
    pub fn add_ctr(&mut self, c: Ctr, n: u64) {
        self.fixed[c as usize] += n;
    }

    /// Reads an interned counter.
    #[inline]
    pub fn get_ctr(&self, c: Ctr) -> u64 {
        self.fixed[c as usize]
    }

    /// Sets an interned counter to an absolute value.
    #[inline]
    pub fn set_ctr(&mut self, c: Ctr, value: u64) {
        self.fixed[c as usize] = value;
        self.zeroed[c as usize] = value == 0;
    }

    /// Whether an interned counter would be listed by `iter`.
    fn fixed_present(&self, c: Ctr) -> bool {
        self.fixed[c as usize] != 0 || self.zeroed[c as usize]
    }

    /// Reads a counter; unknown names read as zero.
    pub fn get(&self, name: &str) -> u64 {
        Ctr::from_name(name).map_or(0, |c| self.get_ctr(c))
    }

    /// Records `value` into the histogram `name`; only the first record
    /// under a name allocates it.
    pub fn record(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => self
                .histograms
                .entry(name.to_owned())
                .or_default()
                .record(value),
        }
    }

    /// Returns the histogram `name`, if any values were recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all touched counters in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        Ctr::ALL
            .iter()
            .filter(|&&c| self.fixed_present(c))
            .map(|&c| (c.name(), self.fixed[c as usize]))
    }

    /// A deterministic 64-bit digest of every counter and histogram.
    ///
    /// FNV-1a over the name-ordered counter list plus each histogram's
    /// `(name, count, sum, max)` — stable across processes, so two runs
    /// fingerprint equal iff their observable stats are equal. The
    /// determinism CI stage compares this digest across sweep widths.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
        };
        for (name, value) in self.iter() {
            eat(name.as_bytes());
            eat(&value.to_le_bytes());
        }
        for (name, hist) in &self.histograms {
            eat(name.as_bytes());
            eat(&hist.count().to_le_bytes());
            eat(&hist.sum().to_le_bytes());
            eat(&hist.max().to_le_bytes());
        }
        h
    }

    /// The first counter or histogram whose value differs from
    /// `other`, as a human-readable description — `None` when the two
    /// registries are equal. Oracle-comparison tests use this to report
    /// *which* counter diverged instead of dumping two full registries.
    pub fn first_difference(&self, other: &Stats) -> Option<String> {
        let mine: Vec<(&str, u64)> = self.iter().collect();
        let theirs: Vec<(&str, u64)> = other.iter().collect();
        let mut a = mine.iter().peekable();
        let mut b = theirs.iter().peekable();
        loop {
            match (a.peek(), b.peek()) {
                (Some(&&(an, av)), Some(&&(bn, bv))) if an == bn => {
                    if av != bv {
                        return Some(format!("counter {an}: {av} vs {bv}"));
                    }
                    a.next();
                    b.next();
                }
                (Some(&&(an, _)), Some(&&(bn, _))) => {
                    let missing = if an < bn { an } else { bn };
                    return Some(format!("counter {missing}: present on one side only"));
                }
                (Some(&&(an, _)), None) | (None, Some(&&(an, _))) => {
                    return Some(format!("counter {an}: present on one side only"));
                }
                (None, None) => break,
            }
        }
        for (name, h) in &self.histograms {
            match other.histograms.get(name) {
                Some(o) if h == o => {}
                Some(_) => return Some(format!("histogram {name}: distributions differ")),
                None => return Some(format!("histogram {name}: present on one side only")),
            }
        }
        for name in other.histograms.keys() {
            if !self.histograms.contains_key(name) {
                return Some(format!("histogram {name}: present on one side only"));
            }
        }
        None
    }

    /// Merges another registry into this one, summing counters.
    pub fn merge(&mut self, other: &Stats) {
        for (a, b) in self.fixed.iter_mut().zip(other.fixed.iter()) {
            *a += b;
        }
        for (a, b) in self.zeroed.iter_mut().zip(other.zeroed.iter()) {
            *a |= b;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k} = {v}")?;
        }
        Ok(())
    }
}

/// A fixed-bucket power-of-two histogram of `u64` samples.
///
/// Bucket `i` holds samples whose value has bit-length `i` (i.e. values in
/// `[2^(i-1), 2^i)`), which is plenty for latency distributions.
///
/// # Examples
///
/// ```
/// use vta_sim::Histogram;
///
/// let mut h = Histogram::default();
/// h.record(6);
/// h.record(100);
/// assert_eq!(h.count(), 2);
/// assert_eq!(h.sum(), 106);
/// assert!(h.mean() > 50.0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[64 - value.leading_zeros() as usize] += 1;
        self.count += 1;
        self.sum += value;
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded sample, or zero if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or zero if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// An upper bound on the `p`-quantile of the recorded samples
    /// (`p` in `0.0..=1.0`), or zero if the histogram is empty.
    ///
    /// Buckets are power-of-two sized, so the answer is the upper edge of
    /// the bucket containing the quantile (clamped to the observed
    /// maximum): exact for small values, within 2x above that — plenty for
    /// "p99 queue depth" style reporting.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                if i == 0 {
                    return 0;
                }
                let upper = (1u128 << i) - 1;
                return (upper.min(self.max as u128)) as u64;
            }
        }
        self.max
    }

    /// Accumulates another histogram's samples into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.bump_ctr(Ctr::Syscalls);
        s.add_ctr(Ctr::Syscalls, 4);
        assert_eq!(s.get("syscalls"), 5);
    }

    #[test]
    fn unknown_counter_is_zero() {
        assert_eq!(Stats::new().get("nope"), 0);
    }

    #[test]
    fn merge_sums_counters() {
        let mut a = Stats::new();
        a.bump_ctr(Ctr::ChainTaken);
        let mut b = Stats::new();
        b.add_ctr(Ctr::ChainTaken, 2);
        b.add_ctr(Ctr::SpecPushes, 3);
        a.merge(&b);
        assert_eq!(a.get_ctr(Ctr::ChainTaken), 3);
        assert_eq!(a.get("spec.pushes"), 3);
    }

    #[test]
    fn set_overwrites() {
        let mut s = Stats::new();
        s.add_ctr(Ctr::Cycles, 5);
        s.set_ctr(Ctr::Cycles, 2);
        assert_eq!(s.get("cycles"), 2);
    }

    #[test]
    fn ctr_names_roundtrip_and_are_sorted() {
        let mut prev: Option<&str> = None;
        for (i, c) in Ctr::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{c:?} is declared out of `ALL` order");
            assert_eq!(Ctr::from_name(c.name()), Some(c));
            if let Some(p) = prev {
                assert!(p < c.name(), "{p} !< {}", c.name());
            }
            prev = Some(c.name());
        }
        assert_eq!(Ctr::ALL.len(), Ctr::COUNT);
    }

    #[test]
    fn set_zero_is_listed_untouched_is_not() {
        let mut s = Stats::new();
        s.set_ctr(Ctr::Cycles, 0);
        let listed: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(listed, ["cycles"]);
        assert!(!Stats::new().iter().any(|(k, _)| k == "cycles"));
    }

    #[test]
    fn histogram_moments() {
        let mut h = Histogram::default();
        for v in [1u64, 2, 3, 4] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 10);
        assert_eq!(h.max(), 4);
        assert!((h.mean() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::default();
        a.record(8);
        let mut b = Histogram::default();
        b.record(16);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), 16);
    }

    #[test]
    fn stats_display_lists_counters() {
        let mut s = Stats::new();
        s.add_ctr(Ctr::HostInsns, 7);
        s.bump_ctr(Ctr::Syscalls);
        assert_eq!(s.to_string(), "host_insns = 7\nsyscalls = 1\n");
    }

    #[test]
    fn iter_in_name_order() {
        let mut s = Stats::new();
        s.bump_ctr(Ctr::TranslateCommitted);
        s.bump_ctr(Ctr::ManagerServiceCycles);
        s.bump_ctr(Ctr::Cycles);
        let names: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(
            names,
            ["cycles", "manager.service_cycles", "translate.committed"]
        );
    }

    #[test]
    fn percentile_bounds_quantiles() {
        let mut h = Histogram::default();
        assert_eq!(h.percentile(0.5), 0, "empty histogram");
        for v in 1..=100u64 {
            h.record(v);
        }
        // Power-of-two buckets: the answer is an upper bound within 2x.
        for p in [0.5f64, 0.9, 0.99] {
            let exact = (p * 100.0).ceil() as u64;
            let got = h.percentile(p);
            assert!(got >= exact, "p{p}: {got} >= {exact}");
            assert!(got < exact * 2, "p{p}: {got} < {}", exact * 2);
        }
        assert_eq!(h.percentile(1.0), 100, "clamped to observed max");
        let mut zeros = Histogram::default();
        zeros.record(0);
        zeros.record(0);
        assert_eq!(zeros.percentile(0.99), 0);
    }

    /// Property-style check (seeded in-tree RNG): merging
    /// two registries built from disjoint event streams must equal one
    /// registry that replayed both streams, for any interleaving of
    /// additive events. `set_ctr` is deliberately excluded — it is an
    /// overwrite, not an event — except for the `set_ctr(_, 0)` presence
    /// case checked separately below.
    #[test]
    fn merge_agrees_with_replaying_events() {
        let hists = ["lat.dram", "depth.q"];
        let mut rng = crate::Rng::seeded(0xDECAF);
        for trial in 0..50 {
            let mut left = Stats::new();
            let mut right = Stats::new();
            let mut replay = Stats::new();
            for _ in 0..rng.range(1, 60) {
                let pick_left = rng.chance(1, 2);
                let target = if pick_left { &mut left } else { &mut right };
                let c = Ctr::ALL[rng.below(Ctr::COUNT as u64) as usize];
                match rng.below(3) {
                    0 => {
                        target.bump_ctr(c);
                        replay.bump_ctr(c);
                    }
                    1 => {
                        let v = rng.below(1000);
                        target.add_ctr(c, v);
                        replay.add_ctr(c, v);
                    }
                    _ => {
                        let h = hists[rng.below(hists.len() as u64) as usize];
                        // Shift keeps sums far from u64 overflow while
                        // still exercising many bucket indices.
                        let v = rng.next_u64() >> (16 + rng.below(48));
                        target.record(h, v);
                        replay.record(h, v);
                    }
                }
            }
            left.merge(&right);
            assert_eq!(left, replay, "trial {trial}");
        }
    }

    #[test]
    fn merge_preserves_set_zero_presence() {
        // A counter set to 0 on either side must still be listed after the
        // merge, and summing into it must behave like a plain counter.
        let mut a = Stats::new();
        a.set_ctr(Ctr::Cycles, 0);
        let b = Stats::new();
        let mut merged = a.clone();
        merged.merge(&b);
        assert!(merged.iter().any(|(k, _)| k == "cycles"));
        let mut c = Stats::new();
        c.merge(&a);
        assert!(c.iter().any(|(k, _)| k == "cycles"), "rhs zero is kept");
        // Zero + value merges to the value, and equals a never-zeroed peer.
        let mut d = Stats::new();
        d.add_ctr(Ctr::Cycles, 7);
        c.merge(&d);
        assert_eq!(c.get("cycles"), 7);
        let mut plain = Stats::new();
        plain.add_ctr(Ctr::Cycles, 7);
        assert_eq!(c, plain);
    }

    #[test]
    fn equality_ignores_how_counters_were_written() {
        let mut a = Stats::new();
        a.set_ctr(Ctr::Cycles, 0);
        a.add_ctr(Ctr::Cycles, 1);
        let mut b = Stats::new();
        b.bump_ctr(Ctr::Cycles);
        assert_eq!(a, b);
        let mut c = Stats::new();
        c.set_ctr(Ctr::Cycles, 0);
        assert_ne!(c, Stats::new(), "a visible zero counter is observable");
    }

    #[test]
    fn fingerprint_tracks_observable_state() {
        let mut a = Stats::new();
        a.add_ctr(Ctr::Cycles, 10);
        a.bump_ctr(Ctr::L2CodeAccess);
        a.record("lat", 3);
        a.record("lat", 9);
        let mut b = Stats::new();
        b.record("lat", 3);
        b.bump_ctr(Ctr::L2CodeAccess);
        b.add_ctr(Ctr::Cycles, 10);
        b.record("lat", 9);
        assert_eq!(a, b);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "order of writes is invisible"
        );
        b.add_ctr(Ctr::Cycles, 1);
        assert_ne!(a.fingerprint(), b.fingerprint(), "a changed counter shows");
        let mut c = a.clone();
        c.record("lat", 9);
        assert_ne!(a.fingerprint(), c.fingerprint(), "histograms are covered");
        assert_eq!(Stats::new().fingerprint(), Stats::new().fingerprint());
    }

    #[test]
    fn first_difference_none_when_equal() {
        assert_eq!(Stats::new().first_difference(&Stats::new()), None);
        let mut a = Stats::new();
        a.add_ctr(Ctr::Cycles, 10);
        a.add_ctr(Ctr::ChainTaken, 3);
        a.record("lat", 7);
        let b = a.clone();
        assert_eq!(a.first_difference(&b), None);
        assert_eq!(b.first_difference(&a), None);
    }

    #[test]
    fn first_difference_names_the_divergent_counter() {
        let mut a = Stats::new();
        a.add_ctr(Ctr::Cycles, 10);
        let mut b = Stats::new();
        b.add_ctr(Ctr::Cycles, 12);
        assert_eq!(
            a.first_difference(&b),
            Some("counter cycles: 10 vs 12".to_string())
        );
        // A counter only one side touched reports presence, not a value.
        let mut c = a.clone();
        c.add_ctr(Ctr::SpecPushes, 1);
        assert_eq!(
            a.first_difference(&c),
            Some("counter spec.pushes: present on one side only".to_string())
        );
        assert_eq!(
            c.first_difference(&a),
            Some("counter spec.pushes: present on one side only".to_string())
        );
    }

    #[test]
    fn first_difference_reports_first_in_name_order() {
        // Several divergences: the report must name the first in the
        // registry's canonical (name) order, regardless of write order.
        let mut a = Stats::new();
        a.add_ctr(Ctr::TranslateCommitted, 1);
        a.add_ctr(Ctr::ChainTaken, 2);
        a.bump_ctr(Ctr::Cycles);
        let mut b = Stats::new();
        b.add_ctr(Ctr::TranslateCommitted, 9);
        b.add_ctr(Ctr::ChainTaken, 9);
        b.add_ctr(Ctr::Cycles, 9);
        assert_eq!(
            a.first_difference(&b),
            Some("counter chain.taken: 2 vs 9".to_string())
        );
        // Counters compare before histograms even when a histogram also
        // differs.
        a.record("lat", 1);
        assert_eq!(
            a.first_difference(&b),
            Some("counter chain.taken: 2 vs 9".to_string())
        );
    }

    #[test]
    fn first_difference_covers_histograms() {
        let mut a = Stats::new();
        a.record("lat", 4);
        let mut b = Stats::new();
        b.record("lat", 4);
        assert_eq!(a.first_difference(&b), None);
        b.record("lat", 8);
        assert_eq!(
            a.first_difference(&b),
            Some("histogram lat: distributions differ".to_string())
        );
        let c = Stats::new();
        assert_eq!(
            a.first_difference(&c),
            Some("histogram lat: present on one side only".to_string())
        );
        assert_eq!(
            c.first_difference(&a),
            Some("histogram lat: present on one side only".to_string())
        );
    }
}
