//! The path-recording protocol: which guest addresses root a region, and
//! the successors each root's region is formed along
//! ([`Translator::translate_region_along`](crate::Translator::translate_region_along)).
//! [`Recorder`] is driven by one [`Recorder::exited`] call per block
//! exit. The DBT's `Regions` drives it and adds owed builds, health and
//! demotion; the fuzz oracle drives the same type, so it runs the region
//! shapes the DBT forms.
//!
//! ```text
//!            promote              entered as a single block
//!   (none) ──────────► Armed ─────────────────────────────► Recording
//!                        ▲                                   │      │
//!                        │ drop_path            path closed  │      │ empty path
//!                        │                                   ▼      ▼
//!                        └──────────────────────────── Recorded ─► Pinned
//!                                                          drop_path
//! ```
//!
//! * **Promotion**, once per address: the target of a backward direct or
//!   indirect exit (`t < root`, so a self-loop never arms: a region
//!   cannot unroll), or of a full run off the end of a capped region into
//!   one of its terminator's targets (long loop bodies tile into
//!   back-to-back regions).
//! * **Start**: with no recording open, an armed root entered as a single
//!   block opens the one recording.
//! * **Close**: every exit logs its successor until a region block runs
//!   (its exit is no single-block junction), an exit has no successor
//!   (syscall, halt, fault), the successor is the root, or the path holds
//!   [`RegionLimits::max_blocks`] successors. The path so far is the
//!   root's shape; an empty one pins the root.
//!
//! Every trigger is architectural, never host timing, so the roots and
//! paths are deterministic.

use std::sync::Arc;

use vta_raw::exec::BlockExit;
use vta_sim::addrhash::AddrMap;

use crate::mir::Term;
use crate::translate::{RegionLimits, TBlock};

/// What the protocol reads of the block that just ran, copied out so a
/// caller holds nothing of the block while its caches change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockFacts {
    /// Entry address: the region root of a superblock.
    pub root: u32,
    /// Member blocks; more than one makes the block a region.
    pub members: u32,
    /// Guest instructions a full run retires.
    pub guest_insns: u32,
    /// How the last member ends.
    pub term: Term,
}

impl BlockFacts {
    /// The facts of `block`.
    #[inline]
    pub fn of(block: &TBlock) -> BlockFacts {
        BlockFacts {
            root: block.guest_addr,
            members: block.members().len() as u32,
            guest_insns: block.guest_insns,
            term: block.term,
        }
    }

    /// Whether the block is a multi-member superblock region.
    #[inline]
    pub fn is_region(&self) -> bool {
        self.members > 1
    }
}

/// Where a promoted root is in the protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Phase {
    Armed,
    Recording,
    /// The successor observed at each block exit, in execution order:
    /// the root's region shape.
    Recorded(Arc<[u32]>),
    /// Single-block for good.
    Pinned,
}

/// One promoted root: its phase, and what the driver keeps beside it.
#[derive(Debug, Clone)]
pub struct Root<T> {
    phase: Phase,
    /// The driver's own per-root state; the protocol never reads it.
    pub data: T,
}

impl<T> Root<T> {
    /// The recorded path, once the root has one.
    pub fn path(&self) -> Option<&Arc<[u32]>> {
        match &self.phase {
            Phase::Recorded(path) => Some(path),
            _ => None,
        }
    }
}

/// What one block exit did to the protocol.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Step {
    /// This root's recording just closed with a non-empty path.
    pub recorded: Option<u32>,
    /// This address was just promoted.
    pub promoted: Option<u32>,
}

/// The protocol's state: every promoted root and the one open recording.
/// `T` is what the driver keeps per root (`()` when nothing).
#[derive(Debug, Clone)]
pub struct Recorder<T = ()> {
    limits: RegionLimits,
    /// One entry per promoted root; a promotion is never forgotten.
    roots: AddrMap<u32, Root<T>>,
    /// Roots in [`Phase::Armed`], so a block exit with nothing armed
    /// costs no lookup.
    armed: usize,
    /// The open recording's root and its successors so far. At most one:
    /// a recording is a run of *consecutive* block exits; interleaving
    /// two would split both.
    open: Option<(u32, Vec<u32>)>,
}

impl<T: Default> Recorder<T> {
    /// No roots yet. `limits.max_blocks <= 1` promotes nothing.
    pub fn new(limits: RegionLimits) -> Recorder<T> {
        Recorder {
            limits,
            roots: AddrMap::default(),
            armed: 0,
            open: None,
        }
    }

    /// The root at `pc`, if `pc` was promoted.
    pub fn root(&self, pc: u32) -> Option<&Root<T>> {
        self.roots.get(&pc)
    }

    /// The root at `pc`, for its driver data.
    pub fn root_mut(&mut self, pc: u32) -> Option<&mut Root<T>> {
        self.roots.get_mut(&pc)
    }

    /// The recorded path of the root at `pc`, if it has one.
    pub fn path(&self, pc: u32) -> Option<&Arc<[u32]>> {
        self.roots.get(&pc).and_then(Root::path)
    }

    /// How many roots are armed.
    pub fn armed(&self) -> usize {
        self.armed
    }

    /// One block exit: `block` ran and left through `exit`, having run
    /// all its members if `full_run`. Starts, extends or closes the
    /// recording and promotes the exit's target when it is a loop head or
    /// a capped region's continuation. An exit with nothing armed,
    /// nothing open, no region and no backward target probes no table.
    pub fn exited(&mut self, block: BlockFacts, exit: BlockExit, full_run: bool) -> Step {
        let root = block.root;
        let region = block.is_region();
        let mut step = Step::default();
        if self.open.is_some() || (self.armed > 0 && !region && self.start(root)) {
            step.recorded = self.record(block, exit);
        }
        let hot = match exit {
            BlockExit::Goto(t) => {
                let capped = block.members >= self.limits.max_blocks
                    || block.guest_insns + 4 > self.limits.max_insns;
                let continuation = region && full_run && capped && block.term.leads_to(t);
                ((t < root || continuation) && self.promotable(t)).then_some(t)
            }
            BlockExit::Indirect(t) if t < root && self.promotable(t) => Some(t),
            _ => None,
        };
        if let Some(t) = hot {
            self.armed += 1;
            self.roots.insert(
                t,
                Root {
                    phase: Phase::Armed,
                    data: T::default(),
                },
            );
            step.promoted = Some(t);
        }
        step
    }

    /// Drops the recorded path of `pc`, and pins the root single-block
    /// for good or arms it for a fresh recording.
    pub fn drop_path(&mut self, pc: u32, pin: bool) {
        let r = self.roots.get_mut(&pc).expect("a promoted root");
        debug_assert!(matches!(r.phase, Phase::Recorded(_)), "{:?}", r.phase);
        r.phase = if pin { Phase::Pinned } else { Phase::Armed };
        self.armed += usize::from(!pin);
    }

    fn promotable(&self, t: u32) -> bool {
        self.limits.max_blocks > 1 && !self.roots.contains_key(&t)
    }

    /// Opens the recording at `addr` if it is an armed root.
    fn start(&mut self, addr: u32) -> bool {
        match self.roots.get_mut(&addr) {
            Some(r) if r.phase == Phase::Armed => {
                r.phase = Phase::Recording;
                self.armed -= 1;
                self.open = Some((addr, Vec::new()));
                true
            }
            _ => false,
        }
    }

    /// Logs the successor `block` took, and closes the recording by the
    /// close rules. Returns the root a closed non-empty path was recorded
    /// for.
    fn record(&mut self, block: BlockFacts, exit: BlockExit) -> Option<u32> {
        let (root, path) = self.open.as_mut().expect("a recording is open");
        let done = block.is_region()
            || match exit.successor() {
                Some(t) if t != *root => {
                    path.push(t);
                    path.len() as u32 >= self.limits.max_blocks
                }
                _ => true,
            };
        if !done {
            return None;
        }
        let (root, path) = self.open.take().expect("a recording is open");
        let r = self.roots.get_mut(&root).expect("the recording's root");
        debug_assert_eq!(r.phase, Phase::Recording);
        if path.is_empty() {
            r.phase = Phase::Pinned;
            return None;
        }
        r.phase = Phase::Recorded(Arc::from(path));
        Some(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ROOT: u32 = 0x1000;
    const BODY: u32 = 0x1010;
    const TAIL: u32 = 0x1020;

    /// A single block at `root` ending in `term`.
    fn single(root: u32, term: Term) -> BlockFacts {
        BlockFacts {
            root,
            members: 1,
            guest_insns: 2,
            term,
        }
    }

    /// A two-member region at `root` ending in `term`.
    fn region(root: u32, term: Term) -> BlockFacts {
        BlockFacts {
            members: 2,
            guest_insns: 4,
            ..single(root, term)
        }
    }

    fn recorder() -> Recorder {
        Recorder::new(RegionLimits::default())
    }

    /// A single block at `from` jumping to `to`.
    fn goto(r: &mut Recorder, from: u32, to: u32) -> Step {
        r.exited(single(from, Term::Goto(to)), BlockExit::Goto(to), true)
    }

    /// Promotes ROOT by the backedge BODY → ROOT, then enters ROOT.
    fn armed_and_entered(r: &mut Recorder) {
        goto(r, BODY, ROOT);
        assert_eq!(phase(r, ROOT), Some(Phase::Armed));
        assert_eq!(goto(r, ROOT, BODY), Step::default());
        assert_eq!(phase(r, ROOT), Some(Phase::Recording));
    }

    fn phase(r: &Recorder, pc: u32) -> Option<Phase> {
        r.root(pc).map(|root| root.phase.clone())
    }

    fn recorded(path: &[u32]) -> Option<Phase> {
        Some(Phase::Recorded(Arc::from(path)))
    }

    #[test]
    fn a_backward_direct_exit_promotes_its_target_once() {
        let mut r = recorder();
        let step = goto(&mut r, BODY, ROOT);
        assert_eq!(step.promoted, Some(ROOT));
        assert_eq!(r.armed(), 1);
        assert_eq!(goto(&mut r, BODY, ROOT).promoted, None, "already a root");
        assert_eq!(goto(&mut r, ROOT, BODY).promoted, None, "forward");
    }

    #[test]
    fn a_backward_indirect_exit_promotes_its_target() {
        let mut r = recorder();
        let block = single(BODY, Term::Indirect(crate::VReg(0)));
        let step = r.exited(block, BlockExit::Indirect(ROOT), true);
        assert_eq!(step.promoted, Some(ROOT));
        let step = r.exited(block, BlockExit::Indirect(TAIL), true);
        assert_eq!(step.promoted, None, "a forward indirect exit");
    }

    #[test]
    fn a_capped_region_promotes_its_continuation_but_not_a_side_exit() {
        let limits = RegionLimits {
            max_blocks: 2,
            ..RegionLimits::default()
        };
        let mut r = Recorder::<()>::new(limits);
        let capped = region(ROOT, Term::Goto(TAIL));
        let step = r.exited(capped, BlockExit::Goto(0x3000), false);
        assert_eq!(step.promoted, None, "a forward side exit");
        let step = r.exited(capped, BlockExit::Goto(TAIL), false);
        assert_eq!(step.promoted, None, "a boundary exit, not a full run");
        assert_eq!(
            r.exited(capped, BlockExit::Goto(TAIL), true).promoted,
            Some(TAIL)
        );
        // Under the cap the same full run continues through dispatch.
        let mut r = recorder();
        let step = r.exited(capped, BlockExit::Goto(TAIL), true);
        assert_eq!(step.promoted, None, "not capped at 8 blocks");
    }

    #[test]
    fn nothing_promotes_when_regions_are_off() {
        let mut r = Recorder::<()>::new(RegionLimits::single());
        assert_eq!(goto(&mut r, BODY, ROOT).promoted, None);
        assert_eq!(r.armed(), 0);
    }

    #[test]
    fn an_armed_root_starts_the_recording_only_as_a_single_block() {
        let mut r = recorder();
        goto(&mut r, BODY, ROOT);
        // Entered as a region: no recording, still armed.
        r.exited(region(ROOT, Term::Goto(TAIL)), BlockExit::Goto(TAIL), true);
        assert_eq!(phase(&r, ROOT), Some(Phase::Armed));
        goto(&mut r, ROOT, BODY);
        assert_eq!(phase(&r, ROOT), Some(Phase::Recording));
        assert_eq!(r.armed(), 0);
    }

    #[test]
    fn a_second_armed_root_waits_for_the_open_recording() {
        let mut r = recorder();
        goto(&mut r, BODY, ROOT);
        goto(&mut r, 0x2010, 0x2000);
        goto(&mut r, ROOT, 0x2000);
        // 0x2000 is entered mid-recording: logged, not started.
        goto(&mut r, 0x2000, 0x3000);
        assert_eq!(phase(&r, 0x2000), Some(Phase::Armed));
        assert_eq!(r.armed(), 1);
    }

    #[test]
    fn the_recording_closes_when_the_successor_is_the_root() {
        let mut r = recorder();
        armed_and_entered(&mut r);
        assert_eq!(goto(&mut r, BODY, ROOT).recorded, Some(ROOT));
        assert_eq!(phase(&r, ROOT), recorded(&[BODY]));
        assert_eq!(r.path(ROOT).map(|p| &p[..]), Some(&[BODY][..]));
    }

    #[test]
    fn the_recording_closes_at_an_exit_with_no_successor_keeping_the_path() {
        for exit in [
            BlockExit::Sys,
            BlockExit::Halt,
            BlockExit::Fault(vta_raw::exec::Fault::DivZero),
        ] {
            let mut r = recorder();
            armed_and_entered(&mut r);
            let step = r.exited(single(BODY, Term::Halt), exit, true);
            assert_eq!(step.recorded, Some(ROOT), "{exit:?}");
            assert_eq!(phase(&r, ROOT), recorded(&[BODY]));
        }
    }

    #[test]
    fn the_recording_closes_when_a_region_runs_keeping_the_path_so_far() {
        let mut r = recorder();
        armed_and_entered(&mut r);
        let step = r.exited(region(BODY, Term::Goto(TAIL)), BlockExit::Goto(TAIL), true);
        assert_eq!(step.recorded, Some(ROOT));
        assert_eq!(
            phase(&r, ROOT),
            recorded(&[BODY]),
            "the region's exit is not logged"
        );
    }

    #[test]
    fn the_recording_closes_at_max_blocks_successors() {
        let mut r = recorder();
        armed_and_entered(&mut r);
        let cap = RegionLimits::default().max_blocks;
        let path: Vec<u32> = (0..cap).map(|i| BODY + 0x10 * i).collect();
        for w in path.windows(2) {
            let closes = w[1] == path[path.len() - 1];
            let want = closes.then_some(ROOT);
            assert_eq!(goto(&mut r, w[0], w[1]).recorded, want, "{w:x?}");
        }
        assert_eq!(phase(&r, ROOT), recorded(&path));
    }

    #[test]
    fn an_empty_path_pins_the_root() {
        let mut r = recorder();
        goto(&mut r, BODY, ROOT);
        let step = r.exited(single(ROOT, Term::Halt), BlockExit::Sys, true);
        assert_eq!(step, Step::default());
        assert_eq!(phase(&r, ROOT), Some(Phase::Pinned));
        assert_eq!(goto(&mut r, BODY, ROOT).promoted, None, "never re-promoted");
    }

    #[test]
    fn a_self_loop_does_not_arm() {
        let mut r = recorder();
        assert_eq!(goto(&mut r, ROOT, ROOT).promoted, None);
        assert_eq!(r.armed(), 0);
    }

    #[test]
    fn an_exit_from_a_recorded_region_still_promotes() {
        let mut r = recorder();
        armed_and_entered(&mut r);
        goto(&mut r, BODY, ROOT);
        let step = r.exited(
            region(ROOT, Term::Goto(BODY)),
            BlockExit::Goto(0x0800),
            false,
        );
        assert_eq!(step.promoted, Some(0x0800));
    }

    #[test]
    fn dropping_the_path_rearms_or_pins() {
        let mut r = recorder();
        armed_and_entered(&mut r);
        goto(&mut r, BODY, ROOT);
        r.drop_path(ROOT, false);
        assert_eq!((phase(&r, ROOT), r.armed()), (Some(Phase::Armed), 1));
        assert_eq!(r.path(ROOT), None);
        goto(&mut r, ROOT, BODY);
        goto(&mut r, BODY, ROOT);
        r.drop_path(ROOT, true);
        assert_eq!((phase(&r, ROOT), r.armed()), (Some(Phase::Pinned), 0));
    }
}
