//! Translation slave tiles.
//!
//! A slave owns one translation at a time; the manager assigns work from
//! the speculative queues and collects finished blocks. There is **no
//! preemption**: a demand miss that arrives while every slave is busy
//! waits for the first slave to finish — the paper identifies exactly
//! this as the reason vpr/gcc/crafty run slower with speculation (§4.3).
//!
//! **Canonical commit order.** `SlavePool::pop_done` releases finished
//! translations strictly min-keyed by `(done_at, slave index)` — the
//! simulated completion cycle with the tile id as tie-break. Every
//! consumer (manager commit, stats, trace) observes completions in this
//! one total order, which is what makes the simulation deterministic.

use std::sync::Arc;

use vta_ir::{RegionShape, TBlock};
use vta_raw::TileId;
use vta_sim::Cycle;

/// A translation in progress on one slave.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// Guest address being translated.
    pub addr: u32,
    /// Cycle at which the finished block reaches the manager.
    pub done_at: Cycle,
    /// The shape the block was translated under: single block, static
    /// region, or a region along a recorded path. A promotion (or a
    /// fresh recording) that lands while the translation is in flight
    /// makes the shape stale; the commit path drops such blocks.
    pub shape: RegionShape,
    /// Set by SMC invalidation (the block was translated from bytes the
    /// guest has since overwritten) or by [`SlavePool::shrink`] (the
    /// slave retired mid-job): the commit path drops the block.
    pub cancelled: bool,
    /// The result (precomputed functionally; timing charged via `done_at`).
    pub block: Option<Arc<TBlock>>,
}

/// One translation slave tile.
#[derive(Debug, Clone)]
pub(crate) struct Slave {
    /// Grid position (network distance to the manager matters).
    pub tile: TileId,
    /// Work in progress, if any: the only record of a running job.
    pub current: Option<InFlight>,
}

impl Slave {
    /// Creates an idle slave on `tile`.
    pub(crate) fn new(tile: TileId) -> Slave {
        Slave {
            tile,
            current: None,
        }
    }

    /// Whether the slave is idle.
    pub(crate) fn is_idle(&self) -> bool {
        self.current.is_none()
    }
}

/// The pool of translation slaves (grown and shrunk by morphing).
#[derive(Debug, Clone, Default)]
pub(crate) struct SlavePool {
    slaves: Vec<Slave>,
    /// No busy slave finishes before this cycle: exact once
    /// [`SlavePool::pop_done`] has found nothing due, and lowered by
    /// [`SlavePool::assign`].
    next_done: Cycle,
}

impl SlavePool {
    /// Creates a pool on the given tiles.
    pub(crate) fn new(tiles: &[TileId]) -> SlavePool {
        SlavePool {
            slaves: tiles.iter().copied().map(Slave::new).collect(),
            next_done: Cycle::ZERO,
        }
    }

    /// Number of slaves.
    pub(crate) fn len(&self) -> usize {
        self.slaves.len()
    }

    /// Index of an idle slave, if any (lowest index first).
    pub(crate) fn idle_slave(&self) -> Option<usize> {
        self.slaves.iter().position(Slave::is_idle)
    }

    /// Mutable access to a slave, for tests that move a job: the pool
    /// forgets its completion floor.
    #[cfg(test)]
    pub(crate) fn slave_mut(&mut self, i: usize) -> &mut Slave {
        self.next_done = Cycle::ZERO;
        &mut self.slaves[i]
    }

    /// Starts slave `i` on `job`.
    pub fn assign(&mut self, i: usize, job: InFlight) {
        self.next_done = self.next_done.min(job.done_at);
        self.slaves[i].current = Some(job);
    }

    /// A cycle no busy slave finishes before (see [`SlavePool::pop_done`]):
    /// while it is after `now`, nothing is due.
    #[inline]
    pub fn next_done(&self) -> Cycle {
        self.next_done
    }

    /// Shared access to a slave.
    pub fn slave(&self, i: usize) -> &Slave {
        &self.slaves[i]
    }

    /// Earliest completion among busy slaves.
    pub fn earliest_done(&self) -> Option<Cycle> {
        let busy = self.slaves.iter().filter_map(|s| s.current.as_ref());
        busy.map(|c| c.done_at).min()
    }

    /// Completions ready at or before `now`, in the canonical commit
    /// order: min `(done_at, slave index)`. This ordering is a
    /// determinism invariant — see the module docs. When nothing is
    /// ready, [`SlavePool::next_done`] becomes the earliest completion.
    pub fn pop_done(&mut self, now: Cycle) -> Option<(usize, InFlight)> {
        let first = self
            .slaves
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.current.as_ref().map(|c| (i, c.done_at)))
            .min_by_key(|&(i, c)| (c, i));
        match first {
            Some((i, c)) if c <= now => {
                let inflight = self.slaves[i].current.take().expect("was busy");
                Some((i, inflight))
            }
            _ => {
                self.next_done = first.map_or(Cycle(u64::MAX), |(_, c)| c);
                None
            }
        }
    }

    /// Grows the pool by one slave on `tile`.
    pub fn grow(&mut self, tile: TileId) {
        self.slaves.push(Slave::new(tile));
    }

    /// Retires one slave, preferring an idle one (from the back). With
    /// every slave busy, the one finishing last goes: its tile is
    /// reclaimed once that block is done, and the job comes back
    /// cancelled for the manager to drop like any stale job. Returns the
    /// tile freed and the abandoned job, if any.
    pub fn shrink(&mut self) -> Option<(TileId, Option<InFlight>)> {
        if self.slaves.len() <= 1 {
            return None;
        }
        let done_at = |s: &Slave| s.current.as_ref().map(|c| c.done_at);
        let i = self
            .slaves
            .iter()
            .rposition(Slave::is_idle)
            .or_else(|| (0..self.slaves.len()).max_by_key(|&i| done_at(&self.slaves[i])))?;
        let Slave { tile, mut current } = self.slaves.remove(i);
        if let Some(job) = &mut current {
            job.cancelled = true;
        }
        Some((tile, current))
    }

    /// Marks every in-flight translation cancelled (SMC invalidation:
    /// their functional results may derive from overwritten bytes).
    /// The slaves still finish — the cycles were genuinely burned —
    /// but the commit path discards the blocks.
    pub fn cancel_in_flight(&mut self) {
        for s in &mut self.slaves {
            if let Some(c) = &mut s.current {
                c.cancelled = true;
            }
        }
    }

    /// The slave currently translating `addr`, if any.
    pub fn translating(&self, addr: u32) -> Option<usize> {
        self.slaves
            .iter()
            .position(|s| s.current.as_ref().is_some_and(|c| c.addr == addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u8) -> TileId {
        TileId::new(n % 4, n / 4)
    }

    fn flight(addr: u32, done: u64) -> InFlight {
        InFlight {
            addr,
            done_at: Cycle(done),
            shape: RegionShape::Single,
            cancelled: false,
            block: None,
        }
    }

    #[test]
    fn idle_selection_is_lowest_index_first() {
        let mut pool = SlavePool::new(&[t(0), t(1), t(2)]);
        assert_eq!(pool.idle_slave(), Some(0));
        pool.assign(0, flight(0x10, 100));
        pool.assign(1, flight(0x14, 100));
        assert_eq!(pool.idle_slave(), Some(2));
        pool.assign(2, flight(0x18, 100));
        assert_eq!(pool.idle_slave(), None);
    }

    #[test]
    fn completions_in_time_order() {
        let mut pool = SlavePool::new(&[t(0), t(1)]);
        pool.assign(0, flight(0xA, 200));
        pool.assign(1, flight(0xB, 100));
        assert_eq!(pool.earliest_done(), Some(Cycle(100)));
        assert!(pool.pop_done(Cycle(99)).is_none());
        assert_eq!(pool.next_done(), Cycle(100), "exact once nothing is due");
        pool.assign(1, flight(0xC, 50));
        assert_eq!(pool.next_done(), Cycle(50), "an earlier job lowers it");
        let (i, f) = pool.pop_done(Cycle(300)).expect("ready");
        assert_eq!((i, f.addr), (1, 0xC));
        let (i, f) = pool.pop_done(Cycle(300)).expect("ready");
        assert_eq!((i, f.addr), (0, 0xA));
        assert!(pool.pop_done(Cycle(300)).is_none());
        assert_eq!(pool.next_done(), Cycle(u64::MAX), "nothing busy");
    }

    #[test]
    fn completions_tie_break_on_slave_index() {
        // Two slaves finishing on the same cycle: the lower tile index
        // commits first, every time — the canonical order's tie-break.
        let mut pool = SlavePool::new(&[t(0), t(1), t(2)]);
        pool.assign(2, flight(0xC, 100));
        pool.assign(0, flight(0xA, 100));
        pool.assign(1, flight(0xB, 100));
        let order: Vec<_> = std::iter::from_fn(|| pool.pop_done(Cycle(100)))
            .map(|(i, f)| (i, f.addr))
            .collect();
        assert_eq!(order, vec![(0, 0xA), (1, 0xB), (2, 0xC)]);
    }

    #[test]
    fn shrink_prefers_idle() {
        let mut pool = SlavePool::new(&[t(0), t(1), t(2)]);
        pool.assign(1, flight(0xA, 500));
        let (tile, abandoned) = pool.shrink().expect("shrinks");
        assert_eq!(tile, t(2), "idle slave retired first");
        assert!(abandoned.is_none());
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn shrink_busy_hands_back_the_job_cancelled() {
        let mut pool = SlavePool::new(&[t(0), t(1)]);
        pool.assign(0, flight(0xA, 300));
        pool.assign(1, flight(0xB, 700));
        let (tile, abandoned) = pool.shrink().expect("shrinks");
        assert_eq!(tile, t(1), "latest-finishing busy slave retired");
        let job = abandoned.expect("busy slave's job");
        assert_eq!(
            (job.addr, job.done_at, job.cancelled),
            (0xB, Cycle(700), true)
        );
        assert_eq!(pool.translating(0xB), None, "no slave holds it any more");
    }

    #[test]
    fn shrink_keeps_at_least_one() {
        let mut pool = SlavePool::new(&[t(0)]);
        assert!(pool.shrink().is_none());
    }

    #[test]
    fn translating_lookup() {
        let mut pool = SlavePool::new(&[t(0), t(1)]);
        pool.assign(1, flight(0x42, 100));
        assert_eq!(pool.translating(0x42), Some(1));
        assert_eq!(pool.translating(0x43), None);
    }
}
