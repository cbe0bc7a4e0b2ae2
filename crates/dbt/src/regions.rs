//! Superblock regions on the execution tile: the path-recording protocol
//! ([`vta_ir::record`]) plus what a machine with a code cache needs of
//! it. A recorded root's build is owed until it commits; a live region
//! tracks how its entries leave it, and is demoted (architecturally, so
//! deterministically) when its path stops holding:
//!
//! ```text
//!   recorded ──► owed ──────────────────► live ─► first demotion: re-armed
//!            build committed (or failed)        second demotion: pinned
//! ```

use std::sync::Arc;

use vta_ir::record::{BlockFacts, Recorder};
use vta_ir::{RegionLimits, RegionShape};
use vta_raw::exec::BlockExit;
use vta_sim::{Ctr, Stats};

/// What the DBT keeps beside a root's place in the protocol.
#[derive(Debug, Clone, Copy, Default)]
struct Build {
    /// A recorded root's health once its build settled; `None` while the
    /// build is owed (queued or in flight: the resident single keeps
    /// running, and the commit swaps the region in).
    live: Option<Health>,
    /// Whether the root has spent its one re-recording.
    re_recorded: bool,
}

/// How a recorded region's entries have been leaving it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Health {
    /// Times the region was entered.
    entries: u64,
    /// Times it exited at the *first* junction, crossing no member
    /// boundary: its recorded path no longer holds at all.
    first_exits: u64,
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

/// Region roots, their recordings, builds and health.
#[derive(Debug, Clone)]
pub(crate) struct Regions {
    /// The protocol. SMC revocation leaves a promotion in place, so
    /// demand retranslation after it is region-shaped again.
    paths: Recorder<Build>,
}

impl Regions {
    /// No roots yet. `limits.max_blocks <= 1` turns regions off.
    pub(crate) fn new(limits: RegionLimits) -> Regions {
        Regions {
            paths: Recorder::new(limits),
        }
    }

    /// The translation shape for `pc`: a region along its recorded path
    /// if it has one, else a single block (mid-recording, demoted, or
    /// with regions off).
    pub(crate) fn shape_for(&self, pc: u32) -> RegionShape {
        match self.paths.path(pc) {
            Some(path) => RegionShape::Recorded(Arc::clone(path)),
            None => RegionShape::Single,
        }
    }

    /// Whether a region build for `addr` is still owed. A build dropped
    /// in flight (cancelled by SMC, or gone stale) is re-queued while
    /// this holds, and the resident single does not make the queued
    /// entry settled work.
    pub(crate) fn build_owed(&self, addr: u32) -> bool {
        matches!(self.paths.root(addr), Some(r) if r.path().is_some() && r.data.live.is_none())
    }

    /// The owed build of `addr` ended: a region translation of it
    /// committed — it then replaces a live single-block translation,
    /// which the commit must swap out — or its translation failed (the
    /// manager's failed set keeps it from being retried speculatively).
    /// True if a build was owed.
    pub(crate) fn build_settled(&mut self, addr: u32) -> bool {
        match self.paths.root_mut(addr) {
            Some(r) if r.path().is_some() && r.data.live.is_none() => {
                r.data.live = Some(Health::default());
                true
            }
            _ => false,
        }
    }

    /// One block exit on the execution tile: `block` ran and left
    /// through `exit` after `guards_passed` member boundaries, having
    /// retired `retired` guest instructions; `smc_fired` if it stored
    /// into translated code. Counts region entries and early exits,
    /// drives the recording protocol (which records paths and promotes
    /// loop heads and capped regions' continuations), and demotes a
    /// region whose path stopped holding.
    pub(crate) fn block_exited(
        &mut self,
        block: BlockFacts,
        exit: BlockExit,
        guards_passed: u32,
        retired: u64,
        smc_fired: bool,
        stats: &mut Stats,
    ) -> ExitVerdict {
        let root = block.root;
        let region = block.is_region();
        // Health accounting: count every entry into a region built from
        // a recording; its first-junction exits are noted below.
        let recorded_root = region && self.note_entry(root);

        let full_run = retired == block.guest_insns as u64;
        let step = self.paths.exited(block, exit, full_run);
        if step.promoted.is_some() {
            stats.bump_ctr(Ctr::SuperblockPromotions);
        }
        let mut verdict = ExitVerdict {
            build: step.recorded,
            demoted: None,
        };

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
        verdict
    }

    /// Counts an entry into the region at `root`, if it was built from a
    /// recording (returned). Both counters are halved once 128 entries
    /// accumulate, so the demotion rate tracks a sliding window of
    /// roughly the last 64–128 entries — a region that served a long
    /// phase well must still demote promptly when the program moves on
    /// and its path stops holding.
    fn note_entry(&mut self, root: u32) -> bool {
        let Some(r) = self.paths.root_mut(root) else {
            return false;
        };
        if r.path().is_none() {
            return false;
        }
        // Only a settled build leaves a recorded region resident.
        debug_assert!(r.data.live.is_some(), "an owed build ran");
        if let Some(h) = &mut r.data.live {
            h.entries += 1;
            if h.entries >= 128 {
                h.entries /= 2;
                h.first_exits /= 2;
            }
        }
        true
    }

    /// Notes a recorded region leaving through its *first* junction,
    /// before any member boundary was crossed: a path whose first step
    /// stops holding makes the region pure overhead (~99% of entries on
    /// call-heavy code, for a region built toward the historically
    /// hottest target). A root whose first-junction-exit rate crosses 3/4
    /// over at least 64 entries is demoted (returned); deeper side exits
    /// never demote, as the members that retired amortized the entry.
    /// The first demotion re-arms the root for one more recording (the
    /// program may have changed phase); the second pins it for good.
    fn note_first_junction_exit(&mut self, root: u32, stats: &mut Stats) -> Option<u32> {
        let r = self.paths.root_mut(root)?;
        let h = r.data.live.as_mut()?;
        h.first_exits += 1;
        if !(h.entries >= 64 && h.first_exits * 4 > h.entries * 3) {
            return None;
        }
        let pin = r.data.re_recorded;
        r.data = Build {
            live: None,
            re_recorded: true,
        };
        self.paths.drop_path(root, pin);
        stats.bump_ctr(if pin {
            Ctr::SuperblockDemoted
        } else {
            Ctr::SuperblockReRecorded
        });
        Some(root)
    }
}

#[cfg(test)]
use vta_ir::TBlock;

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
    use vta_ir::mir::Term;
    use vta_ir::Member;
    use vta_raw::isa::RInsn;

    const ROOT: u32 = 0x1000;
    const BODY: u32 = 0x1010;

    /// A member of 4 bytes and 2 instructions at `addr`.
    fn member(addr: u32) -> Member {
        Member {
            addr,
            len: 4,
            insns: 2,
        }
    }

    fn single(addr: u32, term: Term) -> TBlock {
        let footprint = vta_ir::Footprint::default();
        TBlock::new(member(addr), &[], vec![RInsn::Nop], term, footprint)
    }

    /// The region ROOT → BODY, looping back to ROOT.
    fn region() -> TBlock {
        let (code, footprint) = (vec![RInsn::Nop], vta_ir::Footprint::default());
        TBlock::new(
            member(ROOT),
            &[member(BODY)],
            code,
            Term::Goto(ROOT),
            footprint,
        )
    }

    /// Runs `block` to `exit` with no guard passed unless it ran fully.
    fn exit(rg: &mut Regions, block: &TBlock, exit: BlockExit, full: bool) -> (ExitVerdict, Stats) {
        let mut stats = Stats::new();
        let guards = if full { 1 } else { 0 };
        let retired = block.retired(guards);
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
        assert_eq!(rg.paths.armed(), 0);
    }
}
