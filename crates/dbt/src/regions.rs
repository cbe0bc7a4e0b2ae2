//! Superblock regions: which guest addresses root one, and how each is
//! doing. A promoted root has exactly one [`Record`], and its [`Phase`]
//! is the whole story of where the root stands:
//!
//! ```text
//!            promote                 enters single-block
//!   (none) ──────────► Armed ───────────────────────────► Recording
//!                        ▲                                  │     │
//!                        │ first demotion       path logged │     │ empty path
//!                        │ (re-record once)                 ▼     ▼
//!                        │                                 Owed  Pinned
//!                        │          build committed          │    ▲
//!                        │              (or failed)          ▼    │
//!                        └───────────────────────────────── Live ─┘
//!                           first-junction exits ≥ 3/4      second demotion
//! ```
//!
//! Every trigger is architectural — which branches the guest executed,
//! never host timing — so promotions, recordings, and the regions
//! formed from them are deterministic.

use std::collections::HashMap;
use std::sync::Arc;

use vta_ir::mir::Term;
use vta_ir::{RegionLimits, RegionShape, TBlock};
use vta_raw::exec::BlockExit;
use vta_sim::{Ctr, Stats};

/// Where a promoted root is in its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Waiting for the recorder: recording starts the next time
    /// execution enters the root as a single block.
    Armed,
    /// The active recording pass is logging this root's path.
    Recording,
    /// A region build is owed — queued or in flight, not committed yet.
    /// The resident single-block translation keeps executing while the
    /// region forms in the background; the commit swaps it in.
    Owed,
    /// The owed build has settled. For a region built from a recording,
    /// the counters track how its entries have been leaving it.
    Live(Health),
    /// Demoted back to single-block translation for good.
    Pinned,
}

/// How a recorded region's entries have been leaving it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Health {
    /// Times the region was entered.
    entries: u64,
    /// Times it exited at the *first* junction (no member boundary
    /// crossed) — the signature of a recorded path that no longer holds
    /// at all.
    first_exits: u64,
}

/// Everything known about one promoted root.
#[derive(Debug, Clone)]
struct Record {
    phase: Phase,
    /// The completed recording: the successor observed at each block
    /// exit, in execution order. The list *is* the root's region shape —
    /// it keys the shared memo and drives `translate_region_along`.
    /// Present from the end of a recording until a demotion.
    path: Option<Arc<[u32]>>,
    /// Whether the root has spent its one re-recording.
    re_recorded: bool,
}

/// The recording pass in progress.
#[derive(Debug, Clone)]
struct Recording {
    root: u32,
    path: Vec<u32>,
}

/// What the exit bookkeeping reads of the block that just ran, copied
/// out of it so that the block can stay borrowed from the L1 arena for
/// the run and nothing of it is held while the caches change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct BlockFacts {
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
    pub(crate) fn of(block: &TBlock) -> BlockFacts {
        BlockFacts {
            root: block.guest_addr,
            members: block.ranges.len() as u32,
            guest_insns: block.guest_insns,
            term: block.term,
        }
    }

    /// Whether the block is a multi-member superblock region.
    pub(crate) fn is_region(&self) -> bool {
        self.members > 1
    }
}

/// What one block exit asks of the rest of the machine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ExitVerdict {
    /// A region build just became owed for this root: queue it.
    pub build: Option<u32>,
    /// This root's region was just demoted: drop its translation at
    /// every cache level (demand retranslation sees it single-block).
    pub demoted: Option<u32>,
}

/// Region roots and the single active recorder.
#[derive(Debug, Clone)]
pub(crate) struct Regions {
    limits: RegionLimits,
    /// One record per promoted root; a promotion is never forgotten
    /// (SMC revocation leaves it in place, so post-invalidation demand
    /// retranslation is region-shaped again).
    roots: HashMap<u32, Record>,
    /// Roots in [`Phase::Armed`], so a block exit with nothing armed
    /// costs no lookup.
    armed: usize,
    /// At most one recording at a time: a recording is a run of
    /// *consecutive* block exits; interleaving two would split both.
    recorder: Option<Recording>,
}

impl Regions {
    /// No roots yet. `limits.max_blocks <= 1` turns regions off.
    pub(crate) fn new(limits: RegionLimits) -> Regions {
        Regions {
            limits,
            roots: HashMap::new(),
            armed: 0,
            recorder: None,
        }
    }

    /// The translation shape for `pc`: a recorded-path region once a
    /// recording has completed for a promoted address, and a single
    /// basic block otherwise — including while a recording is still in
    /// progress, and for roots demoted back to single (a demotion drops
    /// the path, and nothing is promoted while regions are off).
    pub(crate) fn shape_for(&self, pc: u32) -> RegionShape {
        match self.roots.get(&pc).and_then(|r| r.path.as_ref()) {
            Some(path) => RegionShape::Recorded(Arc::clone(path)),
            None => RegionShape::Single,
        }
    }

    /// Whether a region build for `addr` is still owed. A build dropped
    /// in flight (cancelled by SMC, or gone stale) is re-queued while
    /// this holds, and the resident single does not make the queued
    /// entry settled work.
    pub(crate) fn build_owed(&self, addr: u32) -> bool {
        matches!(self.roots.get(&addr), Some(r) if r.phase == Phase::Owed)
    }

    /// The owed build of `addr` ended: a region translation of it
    /// committed — it then replaces a live single-block translation,
    /// which the commit must swap out — or its translation failed (the
    /// manager's failed set keeps it from being retried speculatively).
    /// True if a build was owed.
    pub(crate) fn build_settled(&mut self, addr: u32) -> bool {
        match self.roots.get_mut(&addr) {
            Some(r) if r.phase == Phase::Owed => {
                r.phase = Phase::Live(Health::default());
                true
            }
            _ => false,
        }
    }

    /// One block exit on the execution tile: `block` ran and left
    /// through `exit` after `guards_passed` member boundaries, having
    /// retired `retired` guest instructions; `smc_fired` if it stored
    /// into translated code. Counts region entries and early exits,
    /// advances the recorder, demotes a region whose path stopped
    /// holding, and promotes the exit's target when it is a loop head or
    /// a capped region's continuation.
    pub(crate) fn block_exited(
        &mut self,
        block: BlockFacts,
        exit: BlockExit,
        guards_passed: u32,
        retired: u64,
        smc_fired: bool,
        stats: &mut Stats,
    ) -> ExitVerdict {
        let mut verdict = ExitVerdict::default();
        let root = block.root;
        let region = block.is_region();
        // Health accounting: count every entry into a region built from
        // a recording; its first-junction exits are noted below.
        let recorded_root = region && self.note_entry(root);

        // Runtime path recording: while a promoted root awaits its
        // region, one recording pass logs the actually-taken successor
        // at every block exit, starting the next time execution enters
        // the root as a single block.
        if self.recorder.is_some() || (self.armed > 0 && !region && self.start_recording(root)) {
            verdict.build = self.record_step(block, exit);
        }

        let full_run = retired == block.guest_insns as u64;
        let left_early = region
            && match exit {
                // A direct exit that is not one of the terminator's
                // static targets left the superblock early: through a
                // side exit, or through an SMC boundary guard.
                BlockExit::Goto(t) => !block.term.leads_to(t),
                // A mid-region indirect guard that missed its recorded
                // target, exactly like a side exit (a full run ending at
                // an indirect terminator has retired every member).
                BlockExit::Indirect(_) => !full_run,
                _ => false,
            };
        if left_early && smc_fired && matches!(exit, BlockExit::Goto(_)) {
            stats.bump_ctr(Ctr::SuperblockSmcExits);
        } else if left_early {
            stats.bump_ctr(Ctr::SuperblockSideExits);
            if recorded_root && guards_passed == 0 {
                verdict.demoted = self.note_first_junction_exit(root, stats);
            }
        }

        // Promotion. A backward direct exit marks its target as a loop
        // head; a full run off the end of a capped region marks its
        // forward continuation, so long loop bodies partition into
        // back-to-back traces. An indirect backedge — a `ret` bouncing
        // back to a stable call site is the common shape — marks its
        // target hot too: the recording crosses the indirect under an
        // inline target guard.
        // A forward exit that is no capped region's continuation never
        // probes the root map.
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
            self.promote(t, stats);
        }
        verdict
    }

    fn promotable(&self, t: u32) -> bool {
        self.limits.max_blocks > 1 && !self.roots.contains_key(&t)
    }

    /// Promotes `pc` to region shape: future translations root a
    /// superblock there. The resident single-block translation stays
    /// live — the execution tile never stalls on a promotion. The
    /// promotion arms a recording pass; the build is owed when the
    /// recording completes.
    fn promote(&mut self, pc: u32, stats: &mut Stats) {
        stats.bump_ctr(Ctr::SuperblockPromotions);
        self.armed += 1;
        self.roots.insert(
            pc,
            Record {
                phase: Phase::Armed,
                path: None,
                re_recorded: false,
            },
        );
    }

    /// Starts the recording pass at `addr` if it is an armed root.
    fn start_recording(&mut self, addr: u32) -> bool {
        match self.roots.get_mut(&addr) {
            Some(r) if r.phase == Phase::Armed => {
                r.phase = Phase::Recording;
                self.armed -= 1;
                self.recorder = Some(Recording {
                    root: addr,
                    path: Vec::new(),
                });
                true
            }
            _ => false,
        }
    }

    /// One step of the active recording pass: logs the successor the
    /// block that just executed actually took. The recording finishes
    /// at the loop-closing backedge (the successor is the root), at an
    /// unknowable continuation (syscall / halt / fault), at the region
    /// formation cap, or when a resident superblock runs — its exit is
    /// a region exit, not a single-block junction, so the path has a
    /// gap there. Returns the root whose build the finished recording
    /// owes.
    fn record_step(&mut self, block: BlockFacts, exit: BlockExit) -> Option<u32> {
        let rec = self.recorder.as_mut().expect("recording active");
        let done = block.is_region()
            || match exit.successor() {
                Some(t) if t != rec.root => {
                    rec.path.push(t);
                    rec.path.len() as u32 >= self.limits.max_blocks
                }
                _ => true,
            };
        if !done {
            return None;
        }
        // A non-empty path becomes the root's region shape and the
        // build is owed; an empty one (the root halts, syscalls, or
        // immediately loops onto itself) pins the root single-block —
        // there is nothing to form along.
        let rec = self.recorder.take().expect("recording active");
        let r = self.roots.get_mut(&rec.root).expect("recording root");
        debug_assert_eq!(r.phase, Phase::Recording);
        if rec.path.is_empty() {
            r.phase = Phase::Pinned;
            return None;
        }
        r.path = Some(Arc::from(rec.path));
        r.phase = Phase::Owed;
        Some(rec.root)
    }

    /// Counts an entry into the region at `root`, if it was built from a
    /// recording (returned). Both counters are halved once 128 entries
    /// accumulate, so the demotion rate tracks a sliding window of
    /// roughly the last 64–128 entries — a region that served a long
    /// phase well must still demote promptly when the program moves on
    /// and its path stops holding.
    fn note_entry(&mut self, root: u32) -> bool {
        let Some(r) = self.roots.get_mut(&root) else {
            return false;
        };
        if r.path.is_none() {
            return false;
        }
        // Only a settled build leaves a recorded region resident.
        debug_assert!(matches!(r.phase, Phase::Live(_)), "{:?}", r.phase);
        if let Phase::Live(h) = &mut r.phase {
            h.entries += 1;
            if h.entries >= 128 {
                h.entries /= 2;
                h.first_exits /= 2;
            }
        }
        true
    }

    /// Notes a recorded region leaving through its *first* junction —
    /// before any member boundary was crossed. A path whose very first
    /// step stops holding makes the region pure overhead (a region
    /// built toward the historically-hottest target instead of the
    /// recorded one measured ~99% here on call-heavy code), so a root
    /// whose first-junction-exit rate crosses 3/4 over at least 64
    /// entries is demoted (returned). Occasional side exits *deeper* in
    /// the region — a data-dependent branch taking its cold arm now and
    /// then — never demote: the entry fee was already amortized by the
    /// members that did retire.
    ///
    /// The first demotion discards the recording and re-arms the
    /// recorder for one more pass — the program may simply have moved
    /// to a new phase; a second demotion pins the root single-block for
    /// good.
    fn note_first_junction_exit(&mut self, root: u32, stats: &mut Stats) -> Option<u32> {
        let r = self.roots.get_mut(&root)?;
        let Phase::Live(h) = &mut r.phase else {
            return None;
        };
        h.first_exits += 1;
        if !(h.entries >= 64 && h.first_exits * 4 > h.entries * 3) {
            return None;
        }
        r.path = None;
        if r.re_recorded {
            r.phase = Phase::Pinned;
            stats.bump_ctr(Ctr::SuperblockDemoted);
        } else {
            r.re_recorded = true;
            r.phase = Phase::Armed;
            self.armed += 1;
            stats.bump_ctr(Ctr::SuperblockReRecorded);
        }
        Some(root)
    }
}

#[cfg(test)]
impl Regions {
    /// What running the loop `head → body → head` does to an unpromoted
    /// `head`, the way `tests::record_once` drives it: the backedge out
    /// of `body` promotes `head`, one pass through both blocks records
    /// the path, and the region build that owes is returned — for tests
    /// of what an owed build drives elsewhere.
    pub(crate) fn record_loop(
        &mut self,
        head: &TBlock,
        body: &TBlock,
        stats: &mut Stats,
    ) -> Option<u32> {
        let mut step = |rg: &mut Regions, from: &TBlock, to: &TBlock| {
            let facts = BlockFacts::of(from);
            let exit = BlockExit::Goto(to.guest_addr);
            rg.block_exited(facts, exit, 0, facts.guest_insns.into(), false, stats)
        };
        step(self, body, head);
        step(self, head, body);
        step(self, body, head).build
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_raw::isa::RInsn;

    const ROOT: u32 = 0x1000;
    const BODY: u32 = 0x1010;

    fn single(addr: u32, term: Term) -> TBlock {
        TBlock {
            guest_addr: addr,
            guest_len: 4,
            guest_insns: 2,
            code: vec![RInsn::Nop],
            translate_cycles: 100,
            term,
            is_call: false,
            ranges: vec![(addr, 4)],
            member_insns: vec![2],
            footprint: vta_ir::Footprint::default(),
        }
    }

    /// The region ROOT → BODY, looping back to ROOT.
    fn region() -> TBlock {
        TBlock {
            guest_insns: 4,
            ranges: vec![(ROOT, 4), (BODY, 4)],
            member_insns: vec![2, 2],
            ..single(ROOT, Term::Goto(ROOT))
        }
    }

    /// Runs `block` to `exit` with no guard passed unless it ran fully.
    fn exit(rg: &mut Regions, block: &TBlock, exit: BlockExit, full: bool) -> (ExitVerdict, Stats) {
        let mut stats = Stats::new();
        let retired = if full { block.guest_insns as u64 } else { 2 };
        let guards = if full { 1 } else { 0 };
        let v = rg.block_exited(
            BlockFacts::of(block),
            exit,
            guards,
            retired,
            false,
            &mut stats,
        );
        (v, stats)
    }

    /// Promotes ROOT by a backedge from BODY and records ROOT → BODY.
    fn record_once(rg: &mut Regions) -> ExitVerdict {
        let root = single(ROOT, Term::Goto(BODY));
        let body = single(BODY, Term::Goto(ROOT));
        let (v, _) = exit(rg, &root, BlockExit::Goto(BODY), true);
        assert_eq!(v, ExitVerdict::default(), "armed roots record, not build");
        assert_eq!(rg.shape_for(ROOT), RegionShape::Single, "mid-recording");
        exit(rg, &body, BlockExit::Goto(ROOT), true).0
    }

    /// Enters the live region `n` times, leaving at the first junction.
    fn first_junction_exits(rg: &mut Regions, n: usize) -> (Option<u32>, Stats) {
        let reg = region();
        for _ in 0..n {
            let (v, stats) = exit(rg, &reg, BlockExit::Goto(0x2000), false);
            if v.demoted.is_some() {
                return (v.demoted, stats);
            }
        }
        (None, Stats::new())
    }

    #[test]
    fn a_root_walks_every_phase_by_calls_alone() {
        let mut rg = Regions::new(RegionLimits::default());
        let body = single(BODY, Term::Goto(ROOT));

        // (none) → Armed: the backedge BODY → ROOT promotes ROOT.
        let (v, stats) = exit(&mut rg, &body, BlockExit::Goto(ROOT), true);
        assert_eq!(v, ExitVerdict::default());
        assert_eq!(stats.get("superblock.promotions"), 1);
        assert_eq!(rg.shape_for(ROOT), RegionShape::Single);
        // A second backedge does not promote twice.
        let (_, stats) = exit(&mut rg, &body, BlockExit::Goto(ROOT), true);
        assert_eq!(stats.get("superblock.promotions"), 0);

        // Armed → Recording → Owed: one pass over ROOT, BODY.
        let v = record_once(&mut rg);
        assert_eq!(v.build, Some(ROOT), "a finished recording owes its build");
        assert!(rg.build_owed(ROOT));
        let shape = rg.shape_for(ROOT);
        assert_eq!(shape, RegionShape::Recorded(Arc::from(vec![BODY])));

        // Owed → Live: the region's commit settles the build, once.
        assert!(rg.build_settled(ROOT));
        assert!(!rg.build_owed(ROOT));
        assert!(!rg.build_settled(ROOT), "already settled");

        // Live: full runs never demote; 63 first-junction exits do not
        // reach the 64-entry floor, the 64th does.
        let reg = region();
        let (v, stats) = exit(&mut rg, &reg, BlockExit::Goto(ROOT), true);
        assert_eq!(v, ExitVerdict::default());
        assert_eq!(stats.get("superblock.side_exits"), 0);
        assert_eq!(first_junction_exits(&mut rg, 62).0, None);
        let (demoted, stats) = first_junction_exits(&mut rg, 1);
        assert_eq!(demoted, Some(ROOT), "3/4 of >= 64 entries left at once");
        assert_eq!(stats.get("superblock.re_recorded"), 1);
        assert_eq!(stats.get("superblock.side_exits"), 1);

        // Live → Armed (the one re-record): single-shaped again, and the
        // next single-block entry records afresh.
        assert_eq!(rg.shape_for(ROOT), RegionShape::Single);
        assert_eq!(record_once(&mut rg).build, Some(ROOT));
        assert!(rg.build_settled(ROOT));

        // Live → Pinned: the second demotion is final.
        let (demoted, stats) = first_junction_exits(&mut rg, 64);
        assert_eq!(demoted, Some(ROOT));
        assert_eq!(stats.get("superblock.demoted"), 1);
        assert_eq!(rg.shape_for(ROOT), RegionShape::Single);
        assert_eq!(record_once(&mut rg), ExitVerdict::default(), "pinned");
        assert_eq!(rg.armed, 0);
    }
}
