// Property suite: requires the `proptest` feature (external dependency).
#![cfg(feature = "proptest")]

//! Property tests on the hardware models: cache invariants and DRAM
//! serialization.

use proptest::prelude::*;
use vta_raw::{Cache, CacheConfig, Dram};
use vta_sim::Cycle;

fn geometry() -> impl Strategy<Value = CacheConfig> {
    (
        prop_oneof![Just(16u32), Just(32), Just(64)],
        prop_oneof![Just(1u32), Just(2), Just(4)],
        1u32..6,
    )
        .prop_map(|(line, ways, sets_pow)| CacheConfig {
            line_bytes: line,
            ways,
            size_bytes: line * ways * (1 << sets_pow),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An access always makes the line resident; a probe of the same line
    /// immediately afterwards must hit.
    #[test]
    fn access_makes_resident(cfg in geometry(), addrs in proptest::collection::vec(any::<u32>(), 1..200)) {
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a as u64, a & 1 == 0);
            prop_assert!(c.probe(a as u64), "just-filled line must be resident");
            prop_assert!(c.access(a as u64, false).is_hit());
        }
        let (hits, misses) = c.stats();
        prop_assert_eq!(hits + misses, addrs.len() as u64 * 2);
    }

    /// Resident lines never exceed the configured capacity.
    #[test]
    fn capacity_never_exceeded(cfg in geometry(), addrs in proptest::collection::vec(any::<u32>(), 1..300)) {
        let mut c = Cache::new(cfg);
        for &a in &addrs {
            c.access(a as u64, true);
        }
        // Count resident lines by probing every line we touched.
        let mut lines: Vec<u64> = addrs.iter().map(|&a| a as u64 / cfg.line_bytes as u64).collect();
        lines.sort_unstable();
        lines.dedup();
        let resident = lines
            .iter()
            .filter(|&&l| c.probe(l * cfg.line_bytes as u64))
            .count() as u32;
        prop_assert!(resident * cfg.line_bytes <= cfg.size_bytes);
    }

    /// Flush reports exactly the lines that were written and resident.
    #[test]
    fn flush_counts_are_bounded(cfg in geometry(), addrs in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..200)) {
        let mut c = Cache::new(cfg);
        let mut writes = 0u32;
        for &(a, w) in &addrs {
            c.access(a as u64, w);
            writes += w as u32;
        }
        let dirty = c.flush();
        prop_assert!(dirty <= writes, "cannot flush more dirty lines than writes");
        prop_assert!(dirty <= cfg.size_bytes / cfg.line_bytes);
        // After flush, everything misses.
        prop_assert!(!c.access(addrs[0].0 as u64, false).is_hit());
    }

    /// The DRAM channel never completes two transfers overlapping.
    #[test]
    fn dram_serializes(reqs in proptest::collection::vec((0u64..500, 1u32..32), 1..100)) {
        let mut d = Dram::new(60, 1);
        let mut now = Cycle::ZERO;
        let mut prev_done = Cycle::ZERO;
        for &(dt, words) in &reqs {
            now += dt;
            let done = d.access(now, words);
            prop_assert!(done.as_u64() >= now.as_u64() + 60, "latency floor");
            prop_assert!(done > prev_done || done - prev_done == 0,
                "monotone completion");
            prev_done = prev_done.max(done);
        }
        prop_assert_eq!(d.accesses(), reqs.len() as u64);
    }
}
