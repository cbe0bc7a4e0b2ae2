//! Set-associative cache model (tags only — data lives elsewhere).
//!
//! Used for the execution tile's 32 KiB hardware data cache, for the L2
//! data-cache bank tiles (each bank tile contributes its own 32 KiB of
//! SRAM, which is why trading cache tiles for translator tiles changes L2
//! capacity — the knob Figures 9/10 turn), and for the MMU tile's TLB.

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u32,
    /// Associativity.
    pub ways: u32,
}

impl CacheConfig {
    /// A Raw tile's 32 KiB, 2-way, 32-byte-line data cache.
    pub const RAW_L1D: CacheConfig = CacheConfig {
        size_bytes: 32 * 1024,
        line_bytes: 32,
        ways: 2,
    };

    /// Number of sets.
    pub(crate) fn sets(&self) -> u32 {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The line was resident.
    Hit,
    /// The line was not resident; it has now been filled. If a dirty line
    /// was evicted to make room, its base address is reported for
    /// write-back accounting.
    Miss {
        /// Base address of the evicted dirty line, if any.
        writeback: Option<u64>,
    },
}

impl Access {
    /// Whether this access hit.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    valid: bool,
    dirty: bool,
    tag: u64,
    lru: u64,
}

/// An LRU set-associative cache (tag array only).
///
/// # Examples
///
/// ```
/// use vta_raw::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig { size_bytes: 128, line_bytes: 32, ways: 2 });
/// assert!(!c.access(0x40, false).is_hit());
/// assert!(c.access(0x44, false).is_hit()); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>,
    tick: u64,
    line_shift: u32,
    set_mask: u64,
    /// `line_shift` plus the set-index bits: an address's tag is
    /// `addr >> tag_shift`.
    tag_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is not a power-of-two split.
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be 2^n");
        let sets = cfg.sets();
        assert!(sets.is_power_of_two() && sets > 0, "set count must be 2^n");
        Cache {
            cfg,
            lines: vec![Line::default(); (sets * cfg.ways) as usize],
            tick: 0,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: (sets - 1) as u64,
            tag_shift: cfg.line_bytes.trailing_zeros() + sets.trailing_zeros(),
        }
    }

    /// Accesses `addr`; fills on miss; marks dirty on writes.
    #[inline]
    pub fn access(&mut self, addr: u64, write: bool) -> Access {
        self.tick += 1;
        let set = ((addr >> self.line_shift) & self.set_mask) as usize;
        let tag = addr >> self.tag_shift;
        let ways = self.cfg.ways as usize;
        let slice = &mut self.lines[set * ways..(set + 1) * ways];

        if let Some(line) = slice.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.lru = self.tick;
            line.dirty |= write;
            return Access::Hit;
        }

        // Choose victim: first invalid way, else LRU.
        let victim = match slice.iter().position(|l| !l.valid) {
            Some(i) => i,
            None => slice
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("nonzero associativity"),
        };
        let evicted = slice[victim];
        let writeback = (evicted.valid && evicted.dirty)
            .then(|| (evicted.tag << self.tag_shift) | ((set as u64) << self.line_shift));
        slice[victim] = Line {
            valid: true,
            dirty: write,
            tag,
            lru: self.tick,
        };
        Access::Miss { writeback }
    }

    /// Invalidates everything, returning the number of dirty lines that
    /// would need write-back (the reconfiguration cost morphing pays).
    pub fn flush(&mut self) -> u32 {
        let dirty = self.lines.iter().filter(|l| l.valid && l.dirty).count() as u32;
        for l in &mut self.lines {
            *l = Line::default();
        }
        dirty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Whether `addr`'s line is resident (no state change).
    fn probe(c: &Cache, addr: u64) -> bool {
        let set = ((addr >> c.line_shift) & c.set_mask) as usize;
        let tag = addr >> c.tag_shift;
        let ways = c.cfg.ways as usize;
        c.lines[set * ways..(set + 1) * ways]
            .iter()
            .any(|l| l.valid && l.tag == tag)
    }

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 16B lines = 128B.
        Cache::new(CacheConfig {
            size_bytes: 128,
            line_bytes: 16,
            ways: 2,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert!(!c.access(0x100, false).is_hit());
        assert!(c.access(0x100, false).is_hit());
        assert!(c.access(0x10F, false).is_hit());
        assert!(!c.access(0x110, false).is_hit());
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0 (stride = sets*line = 64).
        c.access(0x000, false);
        c.access(0x040, false);
        c.access(0x000, false); // touch A again; B becomes LRU
        let r = c.access(0x080, false); // evicts B
        assert!(!r.is_hit());
        assert!(c.access(0x000, false).is_hit(), "A must survive");
        assert!(!c.access(0x040, false).is_hit(), "B was evicted");
    }

    #[test]
    fn dirty_writeback_reported() {
        let mut c = tiny();
        c.access(0x000, true); // dirty A
        c.access(0x040, false);
        match c.access(0x080, false) {
            Access::Miss { writeback } => assert_eq!(writeback, Some(0x000)),
            Access::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn clean_eviction_no_writeback() {
        let mut c = tiny();
        c.access(0x000, false);
        c.access(0x040, false);
        match c.access(0x080, false) {
            Access::Miss { writeback } => assert_eq!(writeback, None),
            Access::Hit => panic!("expected miss"),
        }
    }

    #[test]
    fn flush_counts_dirty_lines() {
        let mut c = tiny();
        c.access(0x00, true); // set 0, dirty
        c.access(0x10, true); // set 1, dirty
        c.access(0x20, false); // set 2, clean
        assert_eq!(c.flush(), 2);
        assert!(!c.access(0x00, false).is_hit(), "flush invalidates");
    }

    #[test]
    fn probe_does_not_fill() {
        let mut c = tiny();
        assert!(!probe(&c, 0x123));
        c.access(0x123, false);
        assert!(probe(&c, 0x123));
    }

    #[test]
    fn hits_and_misses_by_set() {
        let mut c = tiny();
        let hits = [0, 0, 64].map(|a| c.access(a, false).is_hit());
        assert_eq!(hits, [false, true, false]);
    }

    /// A random address stream over a random small geometry: every
    /// access leaves its line resident, resident lines never exceed the
    /// capacity, and a flush writes back no more than was written or
    /// fits, and invalidates.
    #[test]
    fn random_streams_fill_stay_within_capacity_and_flush() {
        let mut rng = vta_sim::Rng::seeded(0xCAC4E);
        for _ in 0..256 {
            let (line_bytes, ways) = (16 << rng.below(3), 1 << rng.below(3));
            let cfg = CacheConfig {
                size_bytes: line_bytes * ways * (2 << rng.below(5)),
                line_bytes,
                ways,
            };
            let addrs: Vec<u64> = (0..rng.range(1, 299))
                .map(|_| u64::from(rng.next_u32()))
                .collect();
            let mut c = Cache::new(cfg);
            let (mut writes, mut misses) = (0, 0);
            for &a in &addrs {
                let write = rng.chance(1, 2);
                writes += u32::from(write);
                misses += usize::from(!c.access(a, write).is_hit());
                assert!(probe(&c, a), "just-filled line must be resident");
                assert!(c.access(a, false).is_hit());
            }
            // Resident lines, counted by probing every line touched.
            let line = u64::from(line_bytes);
            let mut lines: Vec<u64> = addrs.iter().map(|&a| a / line).collect();
            lines.sort_unstable();
            lines.dedup();
            assert!(misses >= lines.len(), "a line's first touch misses");
            let resident = lines.iter().filter(|&&l| probe(&c, l * line)).count() as u32;
            assert!(resident * line_bytes <= cfg.size_bytes, "over capacity");
            let dirty = c.flush();
            assert!(dirty <= writes, "cannot flush more dirty lines than writes");
            assert!(dirty <= resident, "cannot flush more than was resident");
            assert!(!c.access(addrs[0], false).is_hit(), "flush invalidates");
        }
    }

    #[test]
    fn raw_l1d_geometry() {
        let c = Cache::new(CacheConfig::RAW_L1D);
        assert_eq!(c.cfg.sets(), 512);
    }
}
