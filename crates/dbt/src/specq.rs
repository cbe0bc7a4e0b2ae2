//! Prioritized speculative-translation work queues (§2.1).
//!
//! Translation requests are prioritized by their *speculation depth* —
//! the distance in control-flow edges from the last block known to be on
//! the program's real execution path. Demand misses enter at depth 0;
//! each speculative successor is one deeper; return-predictor addresses
//! enter at low priority ("the code inside of the function has a higher
//! probability of being needed than the return location").

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use vta_sim::addrhash::AddrMap;

/// The deepest speculation level: a push deeper than this is clamped to
/// it.
pub(crate) const MAX_SPEC_DEPTH: u8 = 5;

/// Depth used for return-predictor entries: the deepest level but one.
pub(crate) const RETURN_DEPTH: u8 = MAX_SPEC_DEPTH - 1;

/// One queue per depth `0..=MAX_SPEC_DEPTH`.
const LEVELS: usize = MAX_SPEC_DEPTH as usize + 1;

/// A set of FIFO queues indexed by speculation depth (0 = highest).
///
/// Promotion (re-pushing a queued address at a shallower depth) is O(1):
/// instead of scanning the deeper queue to remove the old entry, the live
/// position of every address is kept in a side map keyed by a generation
/// number, and a promoted address simply gets a new generation at the
/// shallower depth. The superseded queue entry becomes a *tombstone* that
/// [`SpecQueues::pop`] skips when its generation no longer matches —
/// observable pop order is identical to eagerly removing it.
#[derive(Debug, Clone)]
pub(crate) struct SpecQueues {
    /// FIFO per depth, [`LEVELS`] of them; entries are `(addr,
    /// generation)` and may be stale. A `Vec`, not an inline array: the
    /// array's ~170 bytes inside `System` measured slower on `exec_hot`.
    queues: Vec<VecDeque<(u32, u64)>>,
    /// The live `(depth, generation)` of every pending address.
    live: AddrMap<u32, (u8, u64)>,
    next_gen: u64,
    pushes: u64,
}

impl Default for SpecQueues {
    fn default() -> Self {
        SpecQueues {
            queues: vec![VecDeque::new(); LEVELS],
            live: AddrMap::default(),
            next_gen: 0,
            pushes: 0,
        }
    }
}

impl SpecQueues {
    /// Enqueues `addr` at `depth` (clamped). Duplicates are dropped;
    /// re-pushing at a *shallower* depth promotes the entry in O(1).
    ///
    /// Counting semantics: [`SpecQueues::pushes`] counts only *newly
    /// accepted* addresses — duplicates and promotions do not increment it
    /// (a promotion is the same pending request changing priority, not new
    /// work; this is what feeds the `spec.pushes` run counter).
    pub(crate) fn push(&mut self, addr: u32, depth: u8) {
        let depth = depth.min(MAX_SPEC_DEPTH);
        let gen = self.next_gen + 1;
        match self.live.entry(addr) {
            Entry::Occupied(mut live) if depth < live.get().0 => {
                live.insert((depth, gen));
            }
            Entry::Occupied(_) => return,
            Entry::Vacant(live) => {
                live.insert((depth, gen));
                self.pushes += 1;
            }
        }
        self.next_gen = gen;
        self.queues[depth as usize].push_back((addr, gen));
    }

    /// Pops the highest-priority pending address, skipping tombstones left
    /// behind by promotions.
    pub(crate) fn pop(&mut self) -> Option<(u32, u8)> {
        for d in 0..self.queues.len() {
            while let Some((addr, gen)) = self.queues[d].pop_front() {
                if let Entry::Occupied(live) = self.live.entry(addr) {
                    if *live.get() == (d as u8, gen) {
                        live.remove();
                        return Some((addr, d as u8));
                    }
                }
            }
        }
        None
    }

    /// Total pending entries (the morph manager's reconfiguration metric).
    pub(crate) fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether nothing is pending.
    pub(crate) fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Distinct addresses accepted (promotions and duplicates excluded;
    /// see [`SpecQueues::push`]).
    pub(crate) fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Live entries per speculation depth, index `0..=MAX_SPEC_DEPTH` (a
    /// point-in-time gauge for the metrics layer; tombstones excluded).
    pub(crate) fn depth_lens(&self) -> [usize; LEVELS] {
        let mut lens = [0; LEVELS];
        for &(depth, _) in self.live.values() {
            lens[depth as usize] += 1;
        }
        lens
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn priority_order() {
        let mut q = SpecQueues::default();
        q.push(0x30, 3);
        q.push(0x10, 1);
        q.push(0x00, 0);
        q.push(0x11, 1);
        assert_eq!(q.pop(), Some((0x00, 0)));
        assert_eq!(q.pop(), Some((0x10, 1)));
        assert_eq!(q.pop(), Some((0x11, 1)));
        assert_eq!(q.pop(), Some((0x30, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn duplicates_dropped() {
        let mut q = SpecQueues::default();
        q.push(0x10, 2);
        q.push(0x10, 2);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn promotion_on_shallower_push() {
        let mut q = SpecQueues::default();
        q.push(0x10, 3);
        q.push(0x20, 1);
        q.push(0x10, 0); // promote
        assert_eq!(q.pop(), Some((0x10, 0)));
        assert_eq!(q.pop(), Some((0x20, 1)));
    }

    #[test]
    fn depth_clamped() {
        let mut q = SpecQueues::default();
        q.push(0x10, 7);
        assert_eq!(q.pop(), Some((0x10, MAX_SPEC_DEPTH)));
        q.push(0x10, u8::MAX);
        assert_eq!(q.pop(), Some((0x10, MAX_SPEC_DEPTH)));
    }

    #[test]
    fn push_counting_semantics() {
        let mut q = SpecQueues::default();
        q.push(0x10, 3);
        q.push(0x10, 3); // duplicate: dropped
        q.push(0x10, 1); // promotion
        q.push(0x20, 0);
        assert_eq!(q.pushes(), 2, "only newly accepted addresses count");
        // Re-pushing after a pop is a new acceptance.
        assert_eq!(q.pop(), Some((0x20, 0)));
        q.push(0x20, 2);
        assert_eq!(q.pushes(), 3);
    }

    #[test]
    fn depth_lens_count_live_entries_only() {
        let mut q = SpecQueues::default();
        q.push(0x10, 3);
        q.push(0x20, 3);
        q.push(0x10, 1); // promotion leaves a tombstone at depth 3
        q.push(0x30, 0);
        assert_eq!(q.depth_lens(), [1, 1, 0, 1, 0, 0]);
        q.pop(); // drains 0x30 at depth 0
        assert_eq!(q.depth_lens(), [0, 1, 0, 1, 0, 0]);
        assert_eq!(q.depth_lens().iter().sum::<usize>(), q.len());
    }

    /// Whatever is pushed pops in non-decreasing depth order, each
    /// address exactly once.
    #[test]
    fn random_pushes_pop_by_priority_once_each() {
        let mut rng = vta_sim::Rng::seeded(0x5BEC);
        for _ in 0..256 {
            let mut q = SpecQueues::default();
            let mut pending = std::collections::HashSet::new();
            for _ in 0..rng.range(1, 99) {
                // A small address space, so duplicates and promotions occur.
                let addr = rng.below(64) as u32 * 4;
                q.push(addr, rng.below(8) as u8);
                pending.insert(addr);
            }
            assert_eq!(q.len(), pending.len());
            let mut last_depth = 0;
            while let Some((addr, depth)) = q.pop() {
                assert!(depth >= last_depth, "priority inversion");
                last_depth = depth;
                assert!(pending.remove(&addr), "{addr:#x} popped twice");
            }
            assert!(pending.is_empty() && q.is_empty());
        }
    }

    /// A re-pushed address pops once, at the shallower of its two
    /// (clamped) depths: promotion never deepens. Exhaustive.
    #[test]
    fn repush_pops_at_the_shallower_depth() {
        for d1 in 0..8u8 {
            for d2 in 0..8u8 {
                let mut q = SpecQueues::default();
                q.push(0x10, d1);
                q.push(0x10, d2);
                let depth = d1.min(d2).min(MAX_SPEC_DEPTH);
                assert_eq!(q.pop(), Some((0x10, depth)), "{d1} then {d2}");
                assert!(q.is_empty());
            }
        }
    }

    /// A promoted address must pop exactly once, at its promoted depth,
    /// and the tombstone left in the deeper queue must be invisible.
    #[test]
    fn promotion_leaves_no_observable_tombstone() {
        let mut q = SpecQueues::default();
        q.push(0x10, 3);
        q.push(0x20, 3);
        q.push(0x10, 1);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((0x10, 1)));
        assert_eq!(q.pop(), Some((0x20, 3)), "tombstone at depth 3 skipped");
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    /// Re-pushing an address at the depth where its *stale* entry still
    /// sits must not resurrect the tombstone: generations distinguish the
    /// two, so pop order matches the eager-removal implementation.
    #[test]
    fn repush_at_tombstone_depth_keeps_fifo_order() {
        let mut q = SpecQueues::default();
        q.push(0x10, 2);
        q.push(0x10, 0); // promote; tombstone left at depth 2 front
        assert_eq!(q.pop(), Some((0x10, 0)));
        q.push(0x30, 2);
        q.push(0x10, 2); // fresh entry behind 0x30, at the tombstone depth
        assert_eq!(q.pop(), Some((0x30, 2)), "FIFO within a depth");
        assert_eq!(q.pop(), Some((0x10, 2)));
        assert_eq!(q.pop(), None);
    }

    /// Differential check against a straightforward eager-removal model,
    /// over a deterministic pseudo-random op mix.
    #[test]
    fn matches_eager_removal_model() {
        struct Model {
            queues: Vec<VecDeque<u32>>,
        }
        impl Model {
            fn push(&mut self, addr: u32, depth: u8) {
                let depth = depth.min(MAX_SPEC_DEPTH) as usize;
                let cur = self
                    .queues
                    .iter()
                    .position(|q| q.iter().any(|&a| a == addr));
                match cur {
                    Some(d) if depth < d => {
                        let pos = self.queues[d].iter().position(|&a| a == addr).unwrap();
                        self.queues[d].remove(pos);
                        self.queues[depth].push_back(addr);
                    }
                    Some(_) => {}
                    None => self.queues[depth].push_back(addr),
                }
            }
            fn pop(&mut self) -> Option<(u32, u8)> {
                for (d, q) in self.queues.iter_mut().enumerate() {
                    if let Some(a) = q.pop_front() {
                        return Some((a, d as u8));
                    }
                }
                None
            }
        }
        let mut model = Model {
            queues: vec![VecDeque::new(); LEVELS],
        };
        let mut q = SpecQueues::default();
        let mut rng = vta_sim::Rng::seeded(0xBADC0DE);
        for step in 0..4000 {
            if rng.chance(2, 3) {
                let addr = rng.below(40) as u32 * 4;
                let depth = rng.below(u64::from(MAX_SPEC_DEPTH) + 2) as u8;
                q.push(addr, depth);
                model.push(addr, depth);
            } else {
                assert_eq!(q.pop(), model.pop(), "step {step}");
            }
            assert_eq!(
                q.len(),
                model.queues.iter().map(VecDeque::len).sum::<usize>(),
                "step {step}"
            );
        }
        while let Some(got) = q.pop() {
            assert_eq!(Some(got), model.pop(), "drain");
        }
        assert_eq!(model.pop(), None);
    }
}
