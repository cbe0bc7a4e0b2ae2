//! The manager tile (Figure 3): the L2 code cache, the speculative work
//! queues, and the translation slaves it feeds.
//!
//! Everything the tile does occupies one software loop, modelled as a
//! *service ring*: a request is served from `max(arrival, next free
//! cycle)` and the end of its window becomes the next free cycle, so no
//! two windows overlap. Demand lookups, commits, slave assignments and
//! SMC walks all go through [`Manager::reserve`], the only code that
//! touches the ring — which makes the manager a genuine queueing
//! bottleneck when many slaves commit while the execution tile waits on
//! a lookup (the congestion the paper blames for vpr/gcc/crafty, §4.3).
//!
//! Translation slaves live on their own timelines; [`Manager::drain`]
//! catches up on their completions whenever the execution tile
//! interacts with the manager: translation proceeds in the background
//! while the execution tile runs already-translated code.

use std::sync::Arc;

use vta_ir::mir::Term;
use vta_ir::{OptLevel, RegionLimits, RegionShape, TBlock, TranslateError, Translator};
use vta_raw::{net, Dram, TileId};
use vta_sim::{Ctr, Cycle, Profiler, Stats, Tracer, TrackId};
use vta_x86::GuestMem;

use crate::codecache::L2Code;
use crate::config::{VirtualArchConfig, GRID};
use crate::regions::Regions;
use crate::shared::SharedTranslations;
use crate::slave::{InFlight, SlavePool};
use crate::specq::{SpecQueues, RETURN_DEPTH};
use crate::system::SystemError;
use crate::timing::Timing;
use vta_sim::addrhash::{AddrMap, AddrSet};

/// Trace track ids: one per grid tile (indexed by
/// `TileId::index(GRID)`) plus the execution tile's, the DRAM channel,
/// the queue-depth counter and the morph decisions. All default while
/// tracing is disabled.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tracks {
    pub tiles: Vec<TrackId>,
    pub exec: TrackId,
    pub dram: TrackId,
    pub qdepth: TrackId,
    pub morph: TrackId,
}

impl Tracks {
    /// Trace track of `tile` (default id when tracing is disabled).
    pub(crate) fn tile(&self, tile: TileId) -> TrackId {
        let id = self.tiles.get(tile.index(GRID));
        id.copied().unwrap_or_default()
    }
}

/// What a tile's work touches outside the tile, borrowed for one call:
/// guest memory, the DRAM channel, the region records, the cost table,
/// and the run's observers (`prof` is the run loop's host-profile
/// recorder).
pub(crate) struct Outside<'a> {
    pub mem: &'a GuestMem,
    pub dram: &'a mut Dram,
    pub regions: &'a mut Regions,
    pub timing: &'a Timing,
    pub stats: &'a mut Stats,
    pub tracer: &'a mut Tracer,
    pub tracks: &'a Tracks,
    pub prof: &'a mut Profiler,
}

/// What the manager tile's cycles go to. Attribution is purely
/// simulated arithmetic, identical with profiling on or off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Duty {
    /// Serving a demand lookup ("network service").
    Lookup,
    /// Walking the metadata for an SMC invalidation (network service).
    SmcWalk,
    /// Committing a slave's finished block.
    Commit,
    /// Handing a slave its next job.
    Assign,
    /// A lookup stalled on its DRAM-resident metadata: the ring is
    /// occupied but waiting, not working.
    DramWait,
    /// Reconfiguring a tile's role. Never reserved: the execution tile
    /// is charged the cycles directly.
    Morph,
}

impl Outside<'_> {
    /// A traced access of `words` words to the DRAM channel at `at`;
    /// returns its completion cycle.
    fn dram_access(&mut self, at: Cycle, words: u32, what: &'static str) -> Cycle {
        self.dram
            .access_traced(at, words, self.tracer, self.tracks.dram, what)
    }
}

impl Duty {
    /// The name of the duty's window on the manager's trace track.
    fn span_name(self) -> &'static str {
        match self {
            Duty::Lookup => "l2.lookup",
            Duty::SmcWalk => "smc.walk",
            Duty::Commit => "commit",
            Duty::Assign => "assign",
            Duty::DramWait => "dram.wait",
            Duty::Morph => "morph",
        }
    }

    /// Attributes `cycles` of manager time to this duty.
    pub(crate) fn attribute(self, stats: &mut Stats, cycles: u64) {
        let counter = match self {
            Duty::Lookup | Duty::SmcWalk => Ctr::ManagerServiceCycles,
            Duty::Commit => Ctr::ManagerCommitCycles,
            Duty::Assign => Ctr::ManagerAssignCycles,
            Duty::DramWait => Ctr::ManagerDramWaitCycles,
            Duty::Morph => Ctr::ManagerMorphCycles,
        };
        stats.add_ctr(counter, cycles);
    }
}

/// What [`Manager::lookup`] hands the code-cache hierarchy: the block,
/// the cycle its image is out of the DRAM-resident L2, and the
/// addresses whose single a region commit replaced meanwhile (the
/// caller drops them from L1 / L1.5).
pub(crate) struct Fetched {
    pub block: Arc<TBlock>,
    pub at: Cycle,
    pub swapped: Vec<u32>,
}

/// The manager / L2 code cache tile and the slave tiles it drives.
pub(crate) struct Manager {
    tile: TileId,
    opt: OptLevel,
    limits: RegionLimits,
    speculation: bool,
    /// The service ring: the next cycle the software loop is free.
    next_free: Cycle,
    l2: L2Code,
    queues: SpecQueues,
    pool: SlavePool,
    /// Addresses whose translation failed (speculation into data):
    /// never retried speculatively, retried on demand.
    failed: AddrSet<u32>,
    /// Page → entry addresses of the translations whose footprint
    /// touches it: SMC detection (a store into a key may be a store into
    /// bytes a translation was made from) and invalidation.
    pages: AddrMap<u32, Vec<u32>>,
    /// One bit per guest page, set exactly while `pages` has the key:
    /// what the execution tile tests on every store. Grown to the
    /// highest code page seen (4 KiB for code at `0x0800_0000`).
    code_pages: Vec<u64>,
    /// Optional cross-system translation memo (sweeps).
    shared: Option<Arc<SharedTranslations>>,
    /// The one translation context every translation this manager runs
    /// goes through (its slaves' and its own inline ones).
    translator: Translator,
}

impl Manager {
    /// The manager of `cfg`'s virtual architecture, everything empty.
    pub(crate) fn new(cfg: &VirtualArchConfig) -> Manager {
        Manager {
            tile: cfg.placement.manager,
            opt: cfg.opt,
            limits: cfg.region_limits(),
            speculation: cfg.speculation,
            next_free: Cycle::ZERO,
            l2: L2Code::new(cfg.l2_code_bytes),
            queues: SpecQueues::default(),
            pool: SlavePool::new(&cfg.placement.slaves),
            failed: AddrSet::default(),
            pages: AddrMap::default(),
            code_pages: Vec::new(),
            shared: None,
            translator: Translator::default(),
        }
    }

    /// Grid position of the manager tile.
    pub(crate) fn tile(&self) -> TileId {
        self.tile
    }

    /// Attaches a cross-system translation memo; refused if its opt
    /// level or region limits differ from this manager's.
    pub(crate) fn attach_shared(&mut self, shared: Arc<SharedTranslations>) {
        if shared.opt() == self.opt && shared.limits() == self.limits {
            self.shared = Some(shared);
        }
    }

    /// Whether any committed translation read bytes on `page`.
    #[inline]
    pub(crate) fn holds_code(&self, page: u32) -> bool {
        self.code_pages
            .get(page as usize / 64)
            .is_some_and(|word| word >> (page % 64) & 1 != 0)
    }

    /// The work queues, to read.
    pub(crate) fn queues(&self) -> &SpecQueues {
        &self.queues
    }

    /// The slave pool, to read.
    pub(crate) fn slaves(&self) -> &SlavePool {
        &self.pool
    }

    /// Queues the region build a promotion or a finished recording
    /// owes, at high speculative priority.
    pub(crate) fn queue_region_build(&mut self, root: u32) {
        self.queues.push(root, 1);
    }

    /// Drops the L2 translation of `addr` (region demotion).
    pub(crate) fn forget(&mut self, addr: u32) {
        self.l2.invalidate(addr);
    }

    /// Morphing: `tile` joins the pool, busy reloading its software
    /// role until `ready`.
    pub(crate) fn add_slave(&mut self, tile: TileId, ready: Cycle) {
        self.pool.grow(tile);
        let job = InFlight {
            addr: RELOADING,
            done_at: ready,
            shape: RegionShape::Single,
            cancelled: false,
            block: None,
        };
        self.pool.assign(self.pool.len() - 1, job);
    }

    /// Morphing: retires one slave at `now`; the tile freed and when.
    /// A busy slave's tile is free once its block is done, and the job
    /// it abandons is dropped like any stale one (see
    /// [`SlavePool::shrink`]).
    pub(crate) fn retire_slave(
        &mut self,
        now: Cycle,
        out: &mut Outside<'_>,
    ) -> Option<(TileId, Cycle)> {
        let (tile, abandoned) = self.pool.shrink()?;
        let free_at = abandoned.as_ref().map_or(now, |job| job.done_at);
        if let Some(job) = abandoned {
            self.close_job(job, out);
        }
        Some((tile, free_at))
    }

    // ---- the service ring --------------------------------------------------

    /// The ring rule: a request that arrived at `arrival` keeps the loop
    /// busy for `busy` cycles from `max(arrival, next_free)`; the end of
    /// the window is stored back (and returned), its cycles attributed
    /// to `duty`, and the window emitted as a span on the manager's
    /// track. A lookup's window also covers its wait on the
    /// DRAM-resident metadata, counted apart from the fixed service time
    /// so the manager's busy share is honest.
    fn reserve(&mut self, arrival: Cycle, duty: Duty, busy: u64, out: &mut Outside<'_>) -> Cycle {
        let start = arrival.max(self.next_free);
        let mut end = start + busy;
        duty.attribute(out.stats, busy);
        if duty == Duty::Lookup {
            let worked = end;
            end = out.dram_access(worked, 2, "l2meta").max(worked);
            Duty::DramWait.attribute(out.stats, end.saturating_since(worked));
        }
        self.next_free = end;
        let track = out.tracks.tile(self.tile);
        out.tracer
            .span(start, end.saturating_since(start), track, duty.span_name());
        end
    }

    // ---- demand path -------------------------------------------------------

    /// Serves the execution tile's request for the translation of `pc`,
    /// arriving at `arrival`: catches up on slave completions, reserves
    /// the ring for the lookup, demand-translates on an L2 miss, and
    /// reads the block image out of DRAM.
    pub(crate) fn lookup(
        &mut self,
        pc: u32,
        arrival: Cycle,
        out: &mut Outside<'_>,
    ) -> Result<Fetched, SystemError> {
        let mut swapped = self.drain(arrival, out);
        let mut now = self.reserve(arrival, Duty::Lookup, out.timing.manager_service, out);
        out.stats.bump_ctr(Ctr::L2CodeAccess);
        let block = match self.l2.get(pc) {
            Some(block) => Arc::clone(block),
            None => {
                out.stats.bump_ctr(Ctr::L2CodeMiss);
                let ready = self.demand_translate(pc, now, &mut swapped, out)?;
                let waited = ready.saturating_since(now);
                now = now.max(ready);
                out.stats.record("demand.wait_cycles", waited);
                out.tracer
                    .instant(now, out.tracks.exec, "demand.wait", waited);
                Arc::clone(self.l2.get(pc).expect("demand translation committed"))
            }
        };
        // Fetch the block image from DRAM through the manager.
        let words = block.code.len() as u32;
        now = out.dram_access(now, words, "l2code.read").max(now);
        Ok(Fetched {
            block,
            at: now,
            swapped,
        })
    }

    /// Demand-translates `pc` from cycle `now`, waiting on the slave
    /// pipeline; returns the cycle the block is committed at the
    /// manager. There is no preemption: the request queues at depth 0
    /// and waits for a slave to come free.
    fn demand_translate(
        &mut self,
        pc: u32,
        now: Cycle,
        swapped: &mut Vec<u32>,
        out: &mut Outside<'_>,
    ) -> Result<Cycle, SystemError> {
        if !self.settled(pc, out.regions) {
            self.queues.push(pc, 0);
        }
        let mut t = now;
        self.assign_idle(t, out);
        loop {
            if self.l2.get(pc).is_some() {
                return Ok(t);
            }
            match self.pool.earliest_done() {
                Some(done) if !self.failed.contains(&pc) => {
                    // A flushing L2 may drop the block before it is
                    // served, and never lets speculation run dry for the
                    // pool to idle: while `pc` is unsettled, ask again.
                    if self.l2.flushes() > 0 && !self.settled(pc, out.regions) {
                        self.queues.push(pc, 0);
                    }
                    t = t.max(done);
                    swapped.extend(self.drain(t, out));
                }
                // Nothing in flight and nothing committed (the pool is
                // empty or the queue lost the entry), or speculation
                // once failed on this address — the guest may have
                // written valid code there since. Translate inline; a
                // failure now is the guest's.
                _ => {
                    let shape = out.regions.shape_for(pc);
                    let block = self
                        .translate(pc, &shape, out)
                        .map_err(|error| SystemError::Translate { addr: pc, error })?;
                    self.failed.remove(&pc);
                    t += u64::from(block.translate_cycles);
                    swapped.extend(self.install(block, &shape, out));
                    return Ok(t);
                }
            }
        }
    }

    /// Translates `pc` at the configured opt level under `shape` — a
    /// single basic block or a region along a recorded path —
    /// consulting and feeding the shared memo
    /// when one is attached. The memo validates the live guest bytes
    /// and is keyed by the full shape (a recorded shape carries its
    /// path), so a hit is byte-for-byte what a fresh translation would
    /// produce.
    pub(crate) fn translate(
        &mut self,
        pc: u32,
        shape: &RegionShape,
        out: &mut Outside<'_>,
    ) -> Result<Arc<TBlock>, TranslateError> {
        // Host profile phase: translation work on the run thread (memo
        // consult plus the inline build on a miss). Reading the host
        // clock never changes simulated state.
        out.prof.enter("run.translate");
        let (mem, memo, opt) = (out.mem, self.shared.as_ref(), self.opt);
        let (limits, translator) = (&self.limits, &mut self.translator);
        let build = || {
            let b = Arc::new(match shape {
                RegionShape::Recorded(path) => {
                    translator.translate_region_along(mem, pc, opt, limits, path)?
                }
                RegionShape::Single => translator.translate_block(mem, pc, opt)?,
            });
            if let Some(memo) = memo {
                memo.publish(mem, &b, shape);
            }
            Ok(b)
        };
        let r = memo
            .and_then(|m| m.consult(mem, pc, shape))
            .map_or_else(build, Ok);
        out.prof.exit();
        r
    }

    // ---- slave pipeline ----------------------------------------------------

    /// Whether [`Manager::drain`] at `now` has anything to do: a slave
    /// completion at or before `now`, or queued work and an idle slave
    /// to start on it. When this is false, `drain(now)` is an exact
    /// no-op, so the execution tile skips it after a block exit.
    #[inline]
    pub(crate) fn due(&self, now: Cycle) -> bool {
        self.pool.next_done() <= now
            || (!self.queues.is_empty() && self.pool.idle_slave().is_some())
    }

    /// Commits every slave completion due by `now`, in the canonical
    /// `(done_at, slave)` order, and keeps the slaves fed. Returns the
    /// addresses whose resident single a region commit replaced, for
    /// the caller to drop from L1 / L1.5.
    pub(crate) fn drain(&mut self, now: Cycle, out: &mut Outside<'_>) -> Vec<u32> {
        let mut swapped = Vec::new();
        // Host profile phase: one span per drain *burst*, not per
        // commit — only entered when a commit actually pops, so the
        // empty per-block call never reads the host clock, and a
        // 10-commit burst costs two reads instead of twenty.
        let mut in_span = false;
        while let Some((slave, inflight)) = self.pool.pop_done(now) {
            if !in_span {
                out.prof.enter("run.commit");
                in_span = true;
            }
            swapped.extend(self.finish(slave, inflight, out));
        }
        if in_span {
            out.prof.exit();
        }
        self.assign_idle(now, out);
        swapped
    }

    /// Takes `slave`'s finished work (see [`Manager::close_job`]) and hands
    /// the slave its next job.
    fn finish(&mut self, slave: usize, inflight: InFlight, out: &mut Outside<'_>) -> Option<u32> {
        let done = inflight.done_at;
        let swapped = self.close_job(inflight, out);
        self.next_job(slave, done, out);
        swapped
    }

    /// A job leaves its slave, finished or abandoned by a retiring tile:
    /// commits the block, notes the failure, or drops it as stale. A
    /// morphed-in tile finishing its role reload is not a translation.
    fn close_job(&mut self, job: InFlight, out: &mut Outside<'_>) -> Option<u32> {
        let addr = job.addr;
        if addr == RELOADING {
            return None;
        }
        out.stats.bump_ctr(Ctr::TranslateBlocks);
        if job.cancelled || job.shape != out.regions.shape_for(addr) {
            // The translation went stale in flight: an SMC store may
            // have overwritten its source bytes, its slave retired, a
            // promotion or a fresh recording changed the wanted shape,
            // or a demotion revoked it. Drop the block; re-queue the
            // region build if one is still owed, otherwise demand or
            // speculation asks again.
            if out.regions.build_owed(addr) {
                self.queues.push(addr, 1);
            }
            return None;
        }
        let Some(block) = job.block else {
            self.failed.insert(addr);
            out.regions.build_settled(addr);
            return None;
        };
        // Committing occupies the manager tile: speculative traffic
        // competes with demand lookups for the shared resource.
        let words = block.code.len() as u32;
        self.reserve(job.done_at, Duty::Commit, 40 + u64::from(words) / 2, out);
        // Writing the block into the DRAM-resident L2 code cache shares
        // the channel with demand fetches.
        out.dram_access(job.done_at, words, "l2code.write");
        out.stats
            .record("translate.block_host_bytes", block.host_bytes() as u64);
        out.stats
            .record("translate.block_guest_insns", block.guest_insns as u64);
        self.install(block, &job.shape, out)
    }

    /// Makes a finished translation visible: registers its footprint's
    /// pages for SMC detection and commits it to L2. A region settling an
    /// owed build replaces a live single: the commit overwrites its L2
    /// copy, and its address is returned for the caller to drop from
    /// L1 / L1.5, so the next fetch (or a chained L1 handle, via its
    /// generation check) picks up the superblock.
    pub(crate) fn install(
        &mut self,
        block: Arc<TBlock>,
        shape: &RegionShape,
        out: &mut Outside<'_>,
    ) -> Option<u32> {
        let addr = block.guest_addr;
        let swapped = (shape.is_region() && out.regions.build_settled(addr)).then(|| {
            if matches!(shape, RegionShape::Recorded(_)) {
                out.stats.bump_ctr(Ctr::SuperblockRecorded);
            }
            addr
        });
        // Revocation is translation-granular: every page of the
        // footprint registers against the entry address, so a store into
        // any member — including the interior of a superblock — or into
        // successor code the flag scan read revokes the whole translation.
        // Registration is O(1): only an immediate repeat is skipped, so
        // an address committed again (a region replacing its single, a
        // retranslation after an L2 flush or a demotion) may be listed
        // twice. Revoking it twice is revoking it once.
        for page in block.footprint.pages() {
            let addrs = self.pages.entry(page).or_default();
            if addrs.last() != Some(&addr) {
                addrs.push(addr);
            }
            let word = page as usize / 64;
            if word >= self.code_pages.len() {
                self.code_pages.resize(word + 1, 0);
            }
            self.code_pages[word] |= 1 << (page % 64);
        }
        out.stats.bump_ctr(Ctr::TranslateCommitted);
        self.l2.commit(block);
        swapped
    }

    /// Starts idle slaves on queued work at time `now`; true if any.
    pub(crate) fn assign_idle(&mut self, now: Cycle, out: &mut Outside<'_>) -> bool {
        let mut any = false;
        while !self.queues.is_empty() {
            let Some(slave) = self.pool.idle_slave() else {
                break;
            };
            any |= self.next_job(slave, now, out);
        }
        any
    }

    /// Whether `addr` needs no translation job: speculation failed on
    /// it, a slave is translating it, or it is committed and owes no
    /// region build (while one is owed, the resident single keeps
    /// running and the build is still work).
    fn settled(&self, addr: u32, regions: &Regions) -> bool {
        self.failed.contains(&addr)
            || self.pool.translating(addr).is_some()
            || (self.l2.get(addr).is_some() && !regions.build_owed(addr))
    }

    /// The job loop: pops queue entries until one is not settled work
    /// and starts `slave` on it at `at`. False if the queue ran dry.
    fn next_job(&mut self, slave: usize, at: Cycle, out: &mut Outside<'_>) -> bool {
        while let Some((addr, depth)) = self.queues.pop() {
            if !self.settled(addr, out.regions) {
                self.start(slave, addr, depth, at, out);
                return true;
            }
        }
        false
    }

    fn start(&mut self, slave: usize, addr: u32, depth: u8, at: Cycle, out: &mut Outside<'_>) {
        // Handing out work occupies the manager's software loop.
        self.reserve(at, Duty::Assign, 30, out);
        let tile = self.pool.slave(slave).tile;
        let shape = out.regions.shape_for(addr);
        let block = self.translate(addr, &shape, out).ok();
        let (cycles, words) = match &block {
            Some(b) => (u64::from(b.translate_cycles), b.code.len() as u32),
            // Failed translations still burn decode time.
            None => (200, 0),
        };
        out.tracer
            .span(at, cycles, out.tracks.tile(tile), "translate");
        let wire = net::message(out.tracer, at + cycles, tile, self.tile, words.max(1));
        out.stats.add_ctr(Ctr::TranslateBusyCycles, cycles);
        let job = InFlight {
            addr,
            done_at: at + cycles + wire,
            shape,
            cancelled: false,
            block: block.clone(),
        };
        self.pool.assign(slave, job);
        // Successors are visible as soon as the slave has decoded the
        // block — the translator "runs ahead translating the program"
        // (§2.1) rather than waiting for its own commit.
        if let (true, Some(b)) = (self.speculation, block) {
            self.enqueue_successors(&b, depth, out.regions);
        }
    }

    /// Pushes a finished block's likely successors (§2.1's speculative
    /// parallel translation, with static backward-taken prediction and
    /// the return predictor).
    fn enqueue_successors(&mut self, block: &TBlock, depth: u8, regions: &Regions) {
        let d1 = depth.saturating_add(1);
        let d2 = depth.saturating_add(2);
        match block.term {
            Term::Goto(t) => self.push_spec(t, d1, regions),
            Term::CondGoto { taken, fall, .. } => {
                if taken <= block.guest_addr {
                    // Backward branch: predict taken (loop).
                    self.push_spec(taken, d1, regions);
                    self.push_spec(fall, d2, regions);
                } else {
                    self.push_spec(fall, d1, regions);
                    self.push_spec(taken, d2, regions);
                }
            }
            Term::Sys(next) => self.push_spec(next, d1, regions),
            Term::Indirect(_) | Term::Trap(_) | Term::Halt => {}
        }
        if block.is_call {
            // Return predictor: the address after the call (the end of the
            // region's *last* member), low priority.
            self.push_spec(block.end_addr(), RETURN_DEPTH, regions);
        }
    }

    fn push_spec(&mut self, addr: u32, depth: u8, regions: &Regions) {
        if !self.settled(addr, regions) {
            self.queues.push(addr, depth);
        }
    }

    // ---- self-modifying code -----------------------------------------------

    /// A store hit translated code on `page`: forgets the page, drops
    /// every translation covering it from L2 and returns their entry
    /// addresses for the caller to drop from L1 / L1.5 (`None` if the
    /// page holds no code any more). An address committed more than once
    /// may be listed more than once (see [`Manager::install`]); the
    /// first occurrences keep commit order, and dropping an address is
    /// idempotent at every level. In-flight slave translations may
    /// derive from the overwritten bytes (their functional result is
    /// computed at assign time): cancel them all — SMC is rare, and
    /// re-queueing is always safe.
    pub(crate) fn revoke_page(&mut self, page: u32) -> Option<Vec<u32>> {
        let addrs = self.pages.remove(&page)?;
        self.code_pages[page as usize / 64] &= !(1 << (page % 64));
        for &addr in &addrs {
            self.l2.invalidate(addr);
        }
        self.pool.cancel_in_flight();
        Some(addrs)
    }

    /// The invalidation walk of an SMC request arriving at `arrival`;
    /// returns the cycle it ends. It occupies the service loop like any
    /// other request: it queues behind an in-progress commit or lookup,
    /// and no commit can be booked into the window it was charged for.
    pub(crate) fn smc_walk(&mut self, arrival: Cycle, out: &mut Outside<'_>) -> Cycle {
        self.reserve(arrival, Duty::SmcWalk, out.timing.manager_service, out)
    }
}

/// `InFlight::addr` of a morphed-in slave still loading its role: it
/// occupies the slave until `done_at` and commits nothing.
const RELOADING: u32 = u32::MAX;

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vta_sim::{TraceConfig, TraceEvent};
    use vta_x86::{Asm, Cond, GuestImage, Reg};

    pub(crate) const BASE: u32 = 0x0800_0000;

    /// White-box access for tests outside this module.
    impl Manager {
        pub(crate) fn pool(&mut self) -> &mut SlavePool {
            &mut self.pool
        }

        pub(crate) fn l2(&self) -> &L2Code {
            &self.l2
        }
    }

    /// Everything an [`Outside`] borrows, owned — so a tile can be
    /// driven without a `System`. Tracing is on, with the manager tile
    /// on a track of its own.
    pub(crate) struct World {
        pub mem: GuestMem,
        pub dram: Dram,
        pub regions: Regions,
        pub timing: Timing,
        pub stats: Stats,
        pub tracer: Tracer,
        pub tracks: Tracks,
        pub prof: Profiler,
    }

    impl World {
        pub(crate) fn new(cfg: &VirtualArchConfig, image: &GuestImage) -> World {
            let timing = Timing::default();
            let mut tracer = Tracer::new(TraceConfig { capacity: 1 << 16 });
            let mut tracks = Tracks {
                tiles: vec![tracer.track("other"); GRID as usize * GRID as usize],
                dram: tracer.track("dram"),
                ..Tracks::default()
            };
            tracks.tiles[cfg.placement.manager.index(GRID)] = tracer.track("manager");
            World {
                mem: image.build_mem(),
                dram: Dram::new(timing.dram_latency, timing.dram_word),
                regions: Regions::new(cfg.region_limits()),
                timing,
                stats: Stats::new(),
                tracer,
                tracks,
                prof: Profiler::disabled(),
            }
        }

        pub(crate) fn outside(&mut self) -> Outside<'_> {
            Outside {
                mem: &self.mem,
                dram: &mut self.dram,
                regions: &mut self.regions,
                timing: &self.timing,
                stats: &mut self.stats,
                tracer: &mut self.tracer,
                tracks: &self.tracks,
                prof: &mut self.prof,
            }
        }
    }

    #[test]
    fn ring_windows_never_overlap_and_every_cycle_has_one_duty() {
        let cfg = VirtualArchConfig::paper_default();
        // A chain of small blocks: the speculation burst keeps every
        // slave busy, so commits and assigns are in progress while the
        // next demand lookup and the SMC walk arrive.
        let mut a = Asm::new(BASE);
        let mut blocks = Vec::new();
        for i in 0..40 {
            blocks.push(a.cur_addr());
            a.add_ri(Reg::EAX, i);
            a.test_ri(Reg::EAX, 1);
            let next = a.label();
            a.jcc(Cond::Ne, next);
            a.bind(next);
        }
        a.exit_with_eax();
        let mut w = World::new(&cfg, &GuestImage::from_code(a.finish()));
        let mut m = Manager::new(&cfg);
        let mut now = m.smc_walk(Cycle(1), &mut w.outside());
        for pc in [blocks[0], blocks[7], blocks[30], blocks[0]] {
            m.drain(now + 1, &mut w.outside());
            let fetched = m.lookup(pc, now + 2, &mut w.outside());
            now = fetched.expect("translates").at;
        }
        m.drain(Cycle(10_000_000), &mut w.outside());

        let track = w.tracks.tile(cfg.placement.manager);
        let mut spans: Vec<(u64, u64, &str)> = w
            .tracer
            .events()
            .filter_map(|e| match *e {
                TraceEvent::Span {
                    ts,
                    dur,
                    track: t,
                    name,
                } if t == track => Some((ts, dur, name)),
                _ => None,
            })
            .collect();
        for duty in ["l2.lookup", "smc.walk", "commit", "assign"] {
            assert!(spans.iter().any(|s| s.2 == duty), "no {duty} window");
        }
        spans.sort_unstable();
        for pair in spans.windows(2) {
            let ((a_ts, a_dur, a), (b_ts, _, b)) = (pair[0], pair[1]);
            assert!(
                a_ts + a_dur <= b_ts,
                "{a}@{a_ts}+{a_dur} overlaps {b}@{b_ts}"
            );
        }
        // Every reserved cycle is attributed to exactly one duty: the
        // windows' total length is the sum of the duty counters.
        let reserved: u64 = spans.iter().map(|s| s.1).sum();
        let attributed: u64 = ["service", "dram_wait", "commit", "assign"]
            .iter()
            .map(|d| w.stats.get(&format!("manager.{d}_cycles")))
            .sum();
        assert_eq!(reserved, attributed);
    }

    #[test]
    fn code_page_bits_agree_with_the_page_map() {
        // The execution tile asks `holds_code` on every store; the
        // manager answers from a bitset kept beside `pages`. Whatever
        // is installed and revoked, in whatever order, the bit is the
        // map's key set, and that is the pages of the live footprints —
        // which reach pages no member range does — on every page
        // touched and on its neighbours.
        let cfg = VirtualArchConfig::paper_default();
        let mut a = Asm::new(BASE);
        a.exit_with_eax();
        let image = GuestImage::from_code(a.finish());
        // Pages around the code base, the bottom pages and a few far
        // above both (the bitset grows to the highest seen).
        const CODE: u32 = BASE / 4096;
        const HIGH: u32 = 0xF_FFE0;
        fn page(rng: &mut vta_sim::Rng) -> u32 {
            match rng.below(8) {
                0 => rng.below(3) as u32,
                1 => HIGH + rng.below(16) as u32,
                _ => CODE + rng.below(6) as u32,
            }
        }
        // One to three spans ending just below or just past a page
        // edge, some of zero length.
        fn spans(rng: &mut vta_sim::Rng) -> Vec<(u32, u32)> {
            (0..rng.range(1, 3))
                .map(|_| {
                    let len = [0, 3, 40][rng.below(3) as usize];
                    ((page(rng) + 1) * 4096 - rng.range(1, 20) as u32, len)
                })
                .collect()
        }
        let watched = (0..4).chain(CODE - 1..CODE + 8).chain(HIGH - 1..HIGH + 18);
        let mut rng = vta_sim::Rng::seeded(0x5AC0DE);
        for stream in 0..256 {
            let mut w = World::new(&cfg, &image);
            let mut m = Manager::new(&cfg);
            let mut model = std::collections::BTreeSet::new();
            for _ in 0..rng.range(1, 40) {
                if rng.chance(2, 3) {
                    // The members, and what the translator read past
                    // them: the footprint holds both.
                    let ranges = spans(&mut rng);
                    let read: Vec<(u32, u32)> =
                        ranges.iter().copied().chain(spans(&mut rng)).collect();
                    for &(start, len) in read.iter().filter(|s| s.1 > 0) {
                        model.extend(start / 4096..=(start + len - 1) / 4096);
                    }
                    let members: Vec<vta_ir::Member> = ranges
                        .iter()
                        .map(|&(addr, len)| vta_ir::Member {
                            addr,
                            len,
                            insns: 1,
                        })
                        .collect();
                    let block = Arc::new(TBlock::new(
                        members[0],
                        &members[1..],
                        Vec::new(),
                        Term::Halt,
                        vta_ir::Footprint::new(read),
                    ));
                    m.install(block, &RegionShape::Single, &mut w.outside());
                } else {
                    let page = page(&mut rng);
                    assert_eq!(m.revoke_page(page).is_some(), model.remove(&page));
                }
                for p in watched.clone() {
                    let want = model.contains(&p);
                    assert_eq!(
                        (m.holds_code(p), m.pages.contains_key(&p)),
                        (want, want),
                        "stream {stream}: page {p:#x}"
                    );
                }
            }
            assert!(m.pages.keys().all(|p| watched.clone().any(|q| q == *p)));
        }
    }

    #[test]
    fn a_recommitted_root_revokes_as_if_registered_once() {
        // A single at `top`, the loop body, then the region `top`'s
        // recorded path owes: `top` commits twice on one page, with the
        // body between, so the page lists it twice. Revoking the page
        // lists what the old deduplicating registration listed, in its
        // order, and leaves every cache level as revoking each address
        // once would.
        let cfg = VirtualArchConfig::paper_default();
        let mut a = Asm::new(BASE);
        a.mov_ri(Reg::ECX, 10);
        let top = a.cur_addr();
        let head = a.here();
        a.add_rr(Reg::EAX, Reg::ECX);
        let mid = a.label();
        a.jmp(mid);
        a.bind(mid);
        let body = a.cur_addr();
        a.dec_r(Reg::ECX);
        a.jcc(Cond::Ne, head);
        a.exit_with_eax();
        let mut w = World::new(&cfg, &GuestImage::from_code(a.finish()));
        let mut m = Manager::new(&cfg);
        let mut code = crate::codecache::CodeHierarchy::new(&cfg);
        let mut out = w.outside();
        let single = RegionShape::Single;
        let top_block = m.translate(top, &single, &mut out).expect("translates");
        let body_block = m.translate(body, &single, &mut out).expect("translates");
        m.install(Arc::clone(&top_block), &single, &mut out);
        m.install(Arc::clone(&body_block), &single, &mut out);
        let owed = out.regions.record_loop(&top_block, &body_block, out.stats);
        assert_eq!(owed, Some(top), "the loop owes its region");
        let shape = out.regions.shape_for(top);
        let region = m.translate(top, &shape, &mut out).expect("translates");
        assert!(region.is_region());
        assert_eq!(m.install(region, &shape, &mut out), Some(top), "swapped");
        let page = BASE / 4096;
        assert_eq!(m.pages[&page], [top, body, top]);
        for pc in [top, body] {
            code.fetch(pc, Cycle(1_000), &mut m, &mut out)
                .expect("fetches");
        }

        let (l2_before, code_before) = (m.l2.clone(), code.clone());
        let revoked = m.revoke_page(page).expect("a code page");
        let mut once: Vec<u32> = Vec::new();
        for &addr in &revoked {
            if !once.contains(&addr) {
                once.push(addr);
            }
        }
        assert_eq!(once, [top, body], "first occurrences in commit order");
        for &addr in &revoked {
            code.invalidate(addr);
        }
        let (mut l2_once, mut code_once) = (l2_before, code_before);
        for &addr in &once {
            l2_once.invalidate(addr);
            code_once.invalidate(addr);
        }
        assert!(m.l2.get(top).is_none() && m.l2.get(body).is_none());
        assert_eq!(format!("{:?}", m.l2), format!("{l2_once:?}"), "L2");
        assert_eq!(format!("{code:?}"), format!("{code_once:?}"), "L1, L1.5");
    }

    /// What a drain can change: each slave's job, the queues, which
    /// addresses L2 holds, the service ring and every counter.
    fn drain_visible(
        m: &Manager,
        stats: &Stats,
        addrs: &[u32],
    ) -> impl PartialEq + std::fmt::Debug {
        let jobs: Vec<_> = (0..m.pool.len())
            .map(|i| {
                let job = m.pool.slave(i).current.as_ref();
                job.map(|j| (j.addr, j.done_at, j.cancelled, j.shape.clone()))
            })
            .collect();
        let queued = (m.queues.len(), m.queues.pushes(), m.queues.depth_lens());
        let l2: Vec<bool> = addrs.iter().map(|&a| m.l2.get(a).is_some()).collect();
        (jobs, queued, l2, m.next_free, stats.clone())
    }

    #[test]
    fn drain_acts_only_when_the_gate_says_due() {
        // Seeded streams of pushes (code and data addresses, every
        // depth), direct starts, clock advances, slaves joining and
        // retiring, SMC cancellations and drains. A drain the gate calls
        // not due must be an exact no-op, and every drain leaves nothing
        // due behind it.
        let cfg = VirtualArchConfig::paper_default();
        let mut a = Asm::new(BASE);
        let mut addrs = Vec::new();
        for i in 0..24 {
            addrs.push(a.cur_addr());
            a.add_ri(Reg::EAX, i);
            a.test_ri(Reg::EAX, 1);
            let next = a.label();
            a.jcc(Cond::Ne, next);
            a.bind(next);
        }
        a.exit_with_eax();
        addrs.push(0x0900_0000); // data: its translation fails
        let image = GuestImage::from_code(a.finish()).with_bss(0x0900_0000, 64);
        let mut rng = vta_sim::Rng::seeded(0xD2A1_6A7E);
        let (mut skips, mut drains) = (0, 0);
        for stream in 0..64 {
            let mut w = World::new(&cfg, &image);
            let mut m = Manager::new(&cfg);
            let mut now = Cycle::ZERO;
            for step in 0..rng.range(20, 120) {
                let addr = addrs[rng.below(addrs.len() as u64) as usize];
                match rng.below(16) {
                    0..=4 => m.queues.push(addr, rng.below(8) as u8),
                    5..=6 => {
                        if let Some(slave) = m.pool.idle_slave() {
                            if !m.settled(addr, &w.regions) {
                                m.start(slave, addr, 1, now, &mut w.outside());
                            }
                        }
                    }
                    7..=9 => now += rng.range(0, 4_000),
                    10 => m.add_slave(TileId::new(0, 3), now + rng.range(0, 500)),
                    11 => {
                        m.retire_slave(now, &mut w.outside());
                    }
                    12 => m.pool.cancel_in_flight(),
                    _ => {
                        let due = m.due(now);
                        let before = drain_visible(&m, &w.stats, &addrs);
                        let swapped = m.drain(now, &mut w.outside());
                        if due {
                            drains += 1;
                        } else {
                            skips += 1;
                            let after = drain_visible(&m, &w.stats, &addrs);
                            assert!(swapped.is_empty(), "stream {stream} step {step}");
                            assert_eq!(after, before, "stream {stream} step {step}: not due");
                        }
                        assert!(!m.due(now), "stream {stream} step {step}: due after drain");
                    }
                }
            }
        }
        assert!(
            skips > 200 && drains > 200,
            "skips {skips}, drains {drains}"
        );
    }

    #[test]
    fn a_busy_slave_retiring_leaves_nothing_marked_and_no_build_owed() {
        // Every slave busy: the one finishing last holds an owed region
        // build, the one before it a speculative single. Both retire, and
        // their jobs are dropped as stale: the single's address is
        // speculation's to ask for again, the build is re-queued.
        let cfg = VirtualArchConfig::paper_default();
        let mut a = Asm::new(BASE);
        a.mov_ri(Reg::ECX, 10);
        let top = a.cur_addr();
        let head = a.here();
        a.add_rr(Reg::EAX, Reg::ECX);
        let mid = a.label();
        a.jmp(mid);
        a.bind(mid);
        let body = a.cur_addr();
        a.dec_r(Reg::ECX);
        a.jcc(Cond::Ne, head);
        let mut chain = Vec::new();
        for i in 0..6 {
            chain.push(a.cur_addr());
            a.add_ri(Reg::EAX, i);
            let next = a.label();
            a.jmp(next);
            a.bind(next);
        }
        a.exit_with_eax();
        let mut w = World::new(&cfg, &GuestImage::from_code(a.finish()));
        let mut m = Manager::new(&cfg);
        let mut out = w.outside();
        let mut single = |pc| m.translate(pc, &RegionShape::Single, &mut out);
        let top_block = single(top).expect("translates");
        let body_block = single(body).expect("translates");
        m.install(Arc::clone(&top_block), &RegionShape::Single, &mut out);
        let owed = out.regions.record_loop(&top_block, &body_block, out.stats);
        m.queue_region_build(owed.expect("a recorded path owes its build"));
        for &addr in &chain[..5] {
            m.queues.push(addr, 2);
        }
        m.assign_idle(Cycle(0), &mut out);
        assert_eq!(m.pool.idle_slave(), None, "every slave busy");
        let spec = chain[0];
        for (addr, done) in [(top, 1_000_000), (spec, 900_000)] {
            let i = m.pool.translating(addr).expect("in flight");
            m.pool.slave_mut(i).current.as_mut().expect("busy").done_at = Cycle(done);
        }
        for free_at in [1_000_000, 900_000] {
            let retired = m.retire_slave(Cycle(10), &mut out).expect("retires");
            assert_eq!(
                retired.1,
                Cycle(free_at),
                "tile free once its block is done"
            );
        }
        assert_eq!(
            out.stats.get("translate.blocks"),
            2,
            "retired work stays counted"
        );

        let pushes = m.queues.pushes();
        m.push_spec(spec, 2, out.regions);
        assert_eq!(
            m.queues.pushes(),
            pushes + 1,
            "speculation refused {spec:#x}"
        );
        m.drain(Cycle(10_000_000), &mut out);
        assert!(
            !out.regions.build_owed(top),
            "the abandoned build stays owed"
        );
        let resident = m.l2.get(top).expect("resident");
        assert!(resident.is_region(), "the region committed");
    }
}
