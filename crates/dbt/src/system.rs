//! The whole virtual machine: tile roles wired together and run.
//!
//! The runtime-execution tile drives simulated time: [`System::run`] is
//! its dispatch loop. Every other tile keeps its own state and its own
//! clock and is reached through one seam — the code-cache hierarchy
//! ([`crate::codecache`]) for a block to run, the manager
//! (`crate::manager`) behind it, the region records
//! (`crate::regions`) once per block exit, the memory system
//! ([`crate::memsys`]) for every guest load and store.

use std::sync::Arc;

use vta_ir::codegen::{guest_host_reg, SYS_RESUME_REG};
use vta_ir::helper::R_ESP;
use vta_ir::record::BlockFacts;
use vta_ir::{apply_helper, proxy_syscall, TBlock, TranslateError};
use vta_raw::exec::{run_block, BlockExit, CoreState, DataPort, Fault};
use vta_raw::isa::{HelperKind, MemOp};
use vta_raw::{net, Dram, TileId};
use vta_sim::{
    Ctr, Cycle, GaugeId, Metrics, MetricsConfig, ProfConfig, ProfileReport, Profiler, Stats,
    TraceConfig, Tracer,
};
use vta_x86::{GuestImage, GuestMem, Reg, SysState, Syscall, PAGE_SIZE};

use crate::codecache::{BlockHandle, CodeHierarchy};
use crate::config::{VirtualArchConfig, GRID};
use crate::manager::{Duty, Manager, Outside, Tracks};
use crate::memsys::MemSys;
use crate::morph::{MorphAction, MorphManager};
use crate::regions::Regions;
use crate::shared::SharedTranslations;
use crate::specq::MAX_SPEC_DEPTH;
use crate::timing::Timing;

/// Why the run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCause {
    /// The guest called `exit`.
    Exit,
    /// The guest executed `hlt`.
    Halt,
    /// The guest-instruction budget ran out.
    InsnBudget,
}

/// A finished run: outcome plus every counter the figures need.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Why the run stopped.
    pub stop: StopCause,
    /// Exit code if the guest exited.
    pub exit_code: Option<u32>,
    /// Total simulated cycles on the virtual machine.
    pub cycles: u64,
    /// Guest instructions retired.
    pub guest_insns: u64,
    /// Everything the guest wrote to stdout/stderr.
    pub output: Vec<u8>,
    /// All event counters.
    pub stats: Stats,
}

/// A fatal error while running the guest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SystemError {
    /// The demanded guest code could not be translated.
    Translate {
        /// Guest address.
        addr: u32,
        /// The underlying failure.
        error: TranslateError,
    },
    /// Translated code faulted (unmapped access, divide error).
    GuestFault {
        /// Guest block the fault occurred in.
        block: u32,
        /// The fault.
        fault: Fault,
    },
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Translate { addr, error } => {
                write!(f, "translation of {addr:#010x} failed: {error}")
            }
            SystemError::GuestFault { block, fault } => {
                write!(f, "guest fault in block {block:#010x}: {fault:?}")
            }
        }
    }
}

impl std::error::Error for SystemError {}

/// The executing virtual machine: the runtime-execution tile — its
/// dispatch loop, syscall proxying, chaining — wired to the other tiles
/// of Figure 3, each of which owns its own state.
pub struct System {
    cfg: VirtualArchConfig,
    timing: Timing,
    now: Cycle,
    mem: GuestMem,
    sys: SysState,
    state: CoreState,
    pc: u32,
    /// Arena handle for the block at `pc`, when the previous block
    /// chained straight to it (no L1 lookup needed on the fast path).
    cur_handle: Option<BlockHandle>,
    guest_insns: u64,
    /// L1 code cache and the L1.5 bank tiles.
    code: CodeHierarchy,
    /// The manager / L2 code cache tile and its translation slaves.
    manager: Manager,
    /// Superblock region roots and the path recorder.
    regions: Regions,
    /// MMU tile and L2 data bank tiles.
    memsys: MemSys,
    dram: Dram,
    morph: Option<MorphManager>,
    stats: Stats,
    /// Cycle-accurate event recorder (disabled unless
    /// [`System::enable_tracing`] is called; recording never changes
    /// simulated time).
    tracer: Tracer,
    tracks: Tracks,
    /// Windowed metrics recorder (disabled unless
    /// [`System::enable_metrics`] is called; sampling never changes
    /// simulated time).
    metrics: Metrics,
    /// Gauge ids for the metrics series columns.
    gauges: Gauges,
    /// Host wall-clock span recorder (disabled unless
    /// [`System::enable_profiling`] is called). The *second* clock
    /// domain: host-side only, never folded into [`RunReport::stats`],
    /// the metrics series, or any fingerprinted output.
    profiler: Profiler,
}

/// Gauge ids registered with the metrics recorder at
/// [`System::enable_metrics`] time.
#[derive(Debug, Clone, Default)]
struct Gauges {
    /// Total pending speculative-translation requests.
    specq: GaugeId,
    /// Pending requests per speculation depth, index = depth.
    specq_depths: Vec<GaugeId>,
    /// Live translation slaves (morph role occupancy, translator side).
    translators: GaugeId,
    /// Live L2 data banks (morph role occupancy, cache side).
    l2_banks: GaugeId,
}

impl System {
    /// Boots `image` under the given virtual architecture.
    pub fn new(cfg: VirtualArchConfig, image: &GuestImage) -> System {
        let timing = Timing::default();
        let mut sys = SysState::new(image.brk_base);
        sys.set_input(image.input.clone());
        let mut state = CoreState::new();
        state.set(R_ESP, image.initial_esp());
        let min_banks = 1;
        let max_banks = cfg.placement.l2_banks.len();
        System {
            now: Cycle::ZERO,
            mem: image.build_mem(),
            sys,
            state,
            pc: image.entry,
            cur_handle: None,
            guest_insns: 0,
            code: CodeHierarchy::new(&cfg),
            manager: Manager::new(&cfg),
            regions: Regions::new(cfg.region_limits()),
            memsys: MemSys::new(&cfg.placement.l2_banks, cfg.l2_bank_bytes),
            dram: Dram::new(timing.dram_latency, timing.dram_word),
            morph: cfg
                .morph
                .map(|m| MorphManager::new(m, min_banks, max_banks.max(min_banks))),
            stats: Stats::new(),
            tracer: Tracer::disabled(),
            tracks: Tracks::default(),
            metrics: Metrics::disabled(),
            gauges: Gauges::default(),
            profiler: Profiler::disabled(),
            timing,
            cfg,
        }
    }

    /// Turns on cycle-accurate tracing (call before [`System::run`]).
    ///
    /// Registers one track per grid tile (named by the tile's boot-time
    /// role) plus tracks for the DRAM channel, the speculation-queue
    /// depth counter, and morph decisions. Tracing is an observer:
    /// simulated cycle counts are bit-identical with it on or off.
    pub fn enable_tracing(&mut self, tcfg: TraceConfig) {
        self.tracer = Tracer::new(tcfg);
        let p = &self.cfg.placement;
        let mut roles: Vec<Option<&'static str>> = vec![None; GRID as usize * GRID as usize];
        let mut set = |t: TileId, role: &'static str| {
            roles[t.index(GRID)].get_or_insert(role);
        };
        set(p.exec, "exec");
        set(p.mmu, "mmu");
        set(p.manager, "manager");
        set(p.syscall, "syscall");
        p.l15_banks.iter().for_each(|&t| set(t, "l15"));
        self.memsys.banks.iter().for_each(|b| set(b.tile, "l2bank"));
        let slaves = self.manager.slaves();
        (0..slaves.len()).for_each(|i| set(slaves.slave(i).tile, "slave"));
        let tiles = TileId::all(GRID, GRID)
            .map(|t| {
                let role = roles[t.index(GRID)].unwrap_or("idle");
                self.tracer.track(&format!("tile({},{}) {role}", t.x, t.y))
            })
            .collect();
        self.tracks = Tracks {
            tiles,
            dram: self.tracer.track("dram"),
            qdepth: self.tracer.track("specq.depth"),
            morph: self.tracer.track("morph"),
            ..Tracks::default()
        };
        self.tracks.exec = self.tracks.tile(p.exec);
        self.memsys.trk_mmu = self.tracks.tile(p.mmu);
        self.memsys.trk_dram = self.tracks.dram;
        for bank in &mut self.memsys.banks {
            bank.track = self.tracks.tile(bank.tile);
        }
    }

    /// Takes the trace recorder out of the system (for export after a
    /// run), leaving a disabled one behind.
    pub fn take_tracer(&mut self) -> Tracer {
        std::mem::take(&mut self.tracer)
    }

    /// Turns on windowed metrics sampling (call before [`System::run`]).
    ///
    /// Registers the simulated gauges (queue depths, role occupancy).
    /// Like the tracer, the recorder is a pure observer: a window
    /// closes whenever the simulated clock crosses a grid boundary, the
    /// snapshot handed in is state the simulator already computed, and
    /// nothing is ever read back, so simulated cycles and [`Stats`] are
    /// bit-identical with metrics on or off.
    pub fn enable_metrics(&mut self, mcfg: MetricsConfig) {
        self.metrics = Metrics::new(mcfg);
        self.gauges = Gauges {
            specq: self.metrics.gauge("specq.len"),
            specq_depths: (0..=MAX_SPEC_DEPTH)
                .map(|d| self.metrics.gauge(&format!("specq.d{d}.len")))
                .collect(),
            translators: self.metrics.gauge("pool.translators"),
            l2_banks: self.metrics.gauge("mem.l2_banks"),
        };
    }

    /// Takes the metrics recorder out of the system (for export after a
    /// run), leaving a disabled one behind.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.metrics)
    }

    /// Turns on host wall-clock profiling (call before [`System::run`]).
    ///
    /// The profiler is the simulated machine's *second* clock domain:
    /// it records what the host did — the run loop's phases — in wall
    /// nanoseconds, while the [`Tracer`] records what the simulated
    /// machine did in cycles. Like the tracer and
    /// the metrics recorder it is a pure observer: instrumented code
    /// only reads the host clock and never branches on what it read,
    /// so simulated cycles, [`Stats`], metrics series, and trace
    /// events are bit-identical with profiling on or off.
    pub fn enable_profiling(&mut self, _pcfg: ProfConfig) {
        self.profiler = Profiler::new();
    }

    /// Collects the profile, leaving a disabled profiler behind.
    pub fn take_profile(&mut self) -> ProfileReport {
        std::mem::take(&mut self.profiler).report()
    }

    /// The counters their owners keep (set, not bumped), as of now. The
    /// end of [`System::run`] stores exactly these and mid-run metrics
    /// windows read them live, so the windowed sums telescope to them.
    fn owned_counters(&self) -> impl Iterator<Item = (Ctr, u64)> {
        let mem = self.memsys.stats();
        [
            (Ctr::Cycles, self.now.as_u64()),
            (Ctr::GuestInsns, self.guest_insns),
            (Ctr::MemL1Hit, mem[0]),
            (Ctr::MemL2Hit, mem[1]),
            (Ctr::MemDram, mem[2]),
            (Ctr::MemTlbMiss, mem[3]),
            (Ctr::L1CodeFlushes, self.code.l1().flushes()),
            (Ctr::SpecPushes, self.manager.queues().pushes()),
        ]
        .into_iter()
        .chain(
            self.morph
                .as_ref()
                .map(|m| (Ctr::MorphReconfigs, m.reconfigs)),
        )
    }

    /// Hands the metrics recorder a full interned-counter snapshot (the
    /// bumped counters out of `stats`, the owned ones live) and a sample
    /// per gauge: closes the windows due, or with `last` the final one.
    fn sample_metrics(&mut self, last: bool) {
        let mut snap = [0u64; Ctr::COUNT];
        for &c in Ctr::ALL.iter() {
            snap[c as usize] = self.stats.get_ctr(c);
        }
        for (c, v) in self.owned_counters() {
            snap[c as usize] = v;
        }
        let mut gauges = vec![0u64; self.metrics.gauge_count()];
        if !gauges.is_empty() {
            let (g, queues) = (&self.gauges, self.manager.queues());
            gauges[g.specq.0 as usize] = queues.len() as u64;
            for (id, len) in g.specq_depths.iter().zip(queues.depth_lens()) {
                gauges[id.0 as usize] = len as u64;
            }
            gauges[g.translators.0 as usize] = self.manager.slaves().len() as u64;
            gauges[g.l2_banks.0 as usize] = self.memsys.banks.len() as u64;
        }
        if last {
            self.metrics.finish(self.now, &snap, &gauges);
        } else {
            self.metrics.sample(self.now, &snap, &gauges);
        }
    }

    /// Attaches a cross-system translation memo (see
    /// [`SharedTranslations`]); refused if its opt level or region
    /// limits differ from this system's. Purely a host-side accelerator:
    /// simulated cycle counts are identical with or without it.
    pub fn attach_shared(&mut self, shared: Arc<SharedTranslations>) {
        self.manager.attach_shared(shared);
    }

    /// The other tiles, each with what it may touch of the rest of the
    /// machine for one call.
    #[inline]
    fn tiles(&mut self) -> (&mut CodeHierarchy, &mut Manager, Outside<'_>) {
        let out = Outside {
            mem: &self.mem,
            dram: &mut self.dram,
            regions: &mut self.regions,
            timing: &self.timing,
            stats: &mut self.stats,
            tracer: &mut self.tracer,
            tracks: &self.tracks,
            prof: &mut self.profiler,
        };
        (&mut self.code, &mut self.manager, out)
    }

    /// Runs the guest until exit/halt/fault or `max_guest_insns`.
    ///
    /// # Errors
    ///
    /// Returns [`SystemError`] on guest faults or untranslatable demanded
    /// code.
    pub fn run(&mut self, max_guest_insns: u64) -> Result<RunReport, SystemError> {
        let stop = loop {
            if self.guest_insns >= max_guest_insns {
                break (StopCause::InsnBudget, None);
            }

            self.maybe_morph();

            let pc = self.pc;
            // Fast path: the previous block chained here and handed us
            // the arena handle — no address-table probe — and the block
            // runs borrowed from its L1 slot. A stale handle (flush/SMC
            // since) fails its generation check and falls back to the
            // full fetch path, whose block is owned for the iteration.
            let fetched;
            let chained = self
                .cur_handle
                .take()
                .and_then(|h| Some((&**self.code.l1().handle_block(h)?, h)));
            let (block, handle): (&TBlock, _) = match chained {
                Some((block, h)) => {
                    self.stats.bump_ctr(Ctr::L1CodeHit);
                    (block, Some(h))
                }
                None => {
                    fetched = self.fetch_block(pc)?;
                    (&fetched.0, fetched.1)
                }
            };

            if cfg!(debug_assertions) {
                assert_fresh(pc, block, &self.mem);
            }

            // Execute the block on the execution tile.
            let mut smc = Vec::new();
            let mut port = ExecPort {
                mem: &mut self.mem,
                memsys: &mut self.memsys,
                dram: &mut self.dram,
                timing: &self.timing,
                exec: self.cfg.placement.exec,
                mmu: self.cfg.placement.mmu,
                now: self.now,
                manager: &self.manager,
                smc: &mut smc,
                tracer: &mut self.tracer,
            };
            // No fuel cap: every internal loop codegen emits is a `rep`
            // loop, bounded by ECX and by mapped memory exactly as the
            // reference interpreter runs it.
            let outcome = run_block(&mut self.state, &block.code, &mut port, u64::MAX);
            self.tracer
                .span(self.now, outcome.cycles, self.tracks.exec, "block");
            self.now += outcome.cycles;
            let retired = block.retired(outcome.guards_passed);
            // What the exit bookkeeping needs of the block, copied before
            // SMC invalidation and chaining change the caches it lives in.
            let facts = BlockFacts::of(block);
            self.guest_insns += retired;
            self.stats.add_ctr(Ctr::HostInsns, outcome.insns);
            self.stats
                .add_ctr(Ctr::ExecStallCycles, outcome.stall_cycles);
            self.stats.bump_ctr(Ctr::ExecBlocks);
            if facts.is_region() {
                self.stats.bump_ctr(Ctr::SuperblockEntries);
            }

            // Self-modifying-code invalidation.
            let smc_fired = !smc.is_empty();
            for page in smc {
                self.invalidate_page(page);
            }

            // Region bookkeeping: entry/exit health, path recording,
            // promotion of the exit's target.
            let verdict = self.regions.block_exited(
                facts,
                outcome.exit,
                outcome.guards_passed,
                retired,
                smc_fired,
                &mut self.stats,
            );
            if let Some(root) = verdict.build {
                self.manager.queue_region_build(root);
            }
            if let Some(root) = verdict.demoted {
                self.code.invalidate(root);
                self.manager.forget(root);
            }

            match outcome.exit {
                BlockExit::Goto(t) => {
                    if let Some(next) = self.code.chain(handle, t) {
                        // Chained: patched direct branch inside L1 I-mem.
                        self.now += self.timing.chain;
                        self.stats.bump_ctr(Ctr::ChainTaken);
                        self.cur_handle = Some(next);
                    } else {
                        self.now += self.timing.dispatch_miss;
                        self.stats.bump_ctr(Ctr::DispatchDirectMiss);
                    }
                    self.pc = t;
                }
                BlockExit::Indirect(t) => {
                    // Inline target-prediction cache (the paper's return
                    // predictor generalized): a compare patched next to
                    // the indirect site, checked before dispatch.
                    if let Some(next) = handle.and_then(|h| self.code.l1().cached_indirect(h, t)) {
                        self.now += self.timing.inline_cache_hit;
                        self.stats.bump_ctr(Ctr::DispatchInlineHit);
                        self.cur_handle = Some(next);
                    } else {
                        self.now += self.timing.dispatch_indirect;
                        self.stats.bump_ctr(Ctr::DispatchIndirect);
                        self.code.learn_indirect(handle, t);
                    }
                    self.pc = t;
                }
                BlockExit::Sys => {
                    self.stats.bump_ctr(Ctr::Syscalls);
                    if let Some(code) = self.do_syscall() {
                        break (StopCause::Exit, Some(code));
                    }
                }
                BlockExit::Halt => break (StopCause::Halt, None),
                BlockExit::Fault(fault) => {
                    return Err(SystemError::GuestFault { block: pc, fault });
                }
            }

            // The manager's catch-up, only when a slave completion or an
            // idle slave's next job is due: otherwise it is a no-op.
            if self.manager.due(self.now) {
                self.catch_up(self.now);
            }
            self.tracer.counter(
                self.now,
                self.tracks.qdepth,
                self.manager.queues().len() as u64,
            );
            // Windowed sampling: one branch when metrics are off. The
            // grid boundary may have passed mid-block; `sample` closes
            // the window at the boundary cycle regardless of how late
            // this check runs (see `vta_sim::metrics`).
            if self.metrics.due(self.now) {
                self.sample_metrics(false);
            }
        };

        for (c, v) in self.owned_counters() {
            self.stats.set_ctr(c, v);
        }
        // Close the final (off-grid) window and seal the series; the
        // windowed sums now telescope to the totals set just above.
        if self.metrics.is_enabled() {
            self.sample_metrics(true);
        }

        Ok(RunReport {
            stop: stop.0,
            exit_code: stop.1,
            cycles: self.now.as_u64(),
            guest_insns: self.guest_insns,
            output: self.sys.output.clone(),
            stats: self.stats.clone(),
        })
    }

    /// Obtains the translated block for `pc` through the code-cache
    /// hierarchy, charging the costs of whichever level supplies it.
    fn fetch_block(&mut self, pc: u32) -> Result<(Arc<TBlock>, Option<BlockHandle>), SystemError> {
        let now = self.now;
        let (code, manager, mut out) = self.tiles();
        // Host profile phase: the dispatch slow path (an L1 code miss
        // walking L1.5 / the L2 manager, possibly demand-translating).
        // The chained fast path in run() is deliberately uninstrumented:
        // a per-block clock read would not fit the profiling budget.
        out.prof.enter("run.dispatch");
        let fetched = code.fetch(pc, now, manager, &mut out);
        out.prof.exit();
        let (block, handle, now) = fetched?;
        self.now = now;
        Ok((block, handle))
    }

    /// Lets the manager commit every slave completion due by `now` and
    /// feed its slaves; drops the singles its region commits replaced.
    fn catch_up(&mut self, now: Cycle) {
        let (code, manager, mut out) = self.tiles();
        for addr in manager.drain(now, &mut out) {
            code.invalidate(addr);
        }
    }

    /// Proxies a syscall to the syscall tile; returns `Some(code)` on exit.
    fn do_syscall(&mut self) -> Option<u32> {
        let (exec, sysc) = (self.cfg.placement.exec, self.cfg.placement.syscall);
        self.now += net::message(&mut self.tracer, self.now, exec, sysc, 4);
        self.tracer.span(
            self.now,
            self.timing.syscall_service,
            self.tracks.tile(sysc),
            "syscall",
        );
        self.now += self.timing.syscall_service;
        self.now += net::message(&mut self.tracer, self.now, sysc, exec, 1);

        let brk = self.sys.brk;
        let read = self.read_span();
        let exit = proxy_syscall(&mut self.state, &mut self.sys, &mut self.mem);
        if exit.is_none() {
            self.pc = self.state.get(SYS_RESUME_REG);
        }
        // A grown break maps zeroed pages. A translation whose decode
        // found one of them unmapped read different bytes there, so the
        // mapping revokes it as a store into the page would. A `read`
        // stores its bytes, so it revokes the pages they land on.
        let grown = (self.sys.brk > brk).then(|| (brk, self.sys.brk - brk));
        for (start, len) in grown.into_iter().chain(read) {
            let last = start.saturating_add(len - 1);
            for page in start / PAGE_SIZE..=last / PAGE_SIZE {
                if self.manager.holds_code(page) {
                    self.invalidate_page(page);
                }
            }
        }
        exit
    }

    /// `(buffer, length)` a pending `read` of the input stream writes, up
    /// to the input left (a faulting one writes those before the fault).
    fn read_span(&self) -> Option<(u32, u32)> {
        let reg = |r: Reg| self.state.get(guest_host_reg(r.num() as u32));
        let left = self.sys.input.len() - self.sys.input_pos;
        let len = (reg(Reg::EDX) as usize).min(left) as u32;
        let read = Syscall::from_nr(reg(Reg::EAX)) == Syscall::Read && reg(Reg::EBX) == 0;
        (read && len > 0).then(|| (reg(Reg::ECX), len))
    }

    fn maybe_morph(&mut self) {
        let qlen = self.manager.queues().len();
        let nbanks = self.memsys.banks.len();
        let (trk_morph, trk_dram) = (self.tracks.morph, self.tracks.dram);
        let Some(m) = &mut self.morph else { return };
        let action = m.decide(self.now, qlen, nbanks, &mut self.tracer, trk_morph);
        let lag = m.last_lag();
        match action {
            Some(MorphAction::CacheToTranslator) => {
                // Host profile phase: only an *applied* morph action
                // reads the host clock; the per-block decide() poll
                // above never does.
                self.profiler.enter("run.morph");
                if let Some((tile, dirty)) = self.memsys.remove_bank() {
                    // Explicit role-change event at the switch point:
                    // old role -> new role, with the queue depth that
                    // triggered it (the decision instant above fires at
                    // the sample; this one marks the reconfiguration).
                    self.tracer
                        .instant(self.now, trk_morph, "role: l2bank->slave", qlen as u64);
                    self.metrics.event(self.now, "morph.to_translator", lag);
                    self.stats.record("morph.lag_cycles", lag);
                    // Write back the dirty lines (DRAM occupancy) and
                    // reload the tile's software role.
                    self.dram.access_traced(
                        self.now,
                        dirty * self.timing.line_words,
                        &mut self.tracer,
                        trk_dram,
                        "morph.writeback",
                    );
                    let charged = self.timing.reconfig_per_dirty_line * dirty as u64 / 8 + 50;
                    Duty::Morph.attribute(&mut self.stats, charged);
                    self.now += charged;
                    self.tracer.instant(
                        self.now,
                        self.tracks.tile(tile),
                        "role.translator",
                        dirty as u64,
                    );
                    self.manager
                        .add_slave(tile, self.now + self.timing.reconfig);
                    self.stats.bump_ctr(Ctr::MorphToTranslator);
                }
                self.profiler.exit();
            }
            Some(MorphAction::TranslatorToCache) => {
                self.profiler.enter("run.morph");
                let now = self.now;
                let (_, manager, mut out) = self.tiles();
                if let Some((tile, free_at)) = manager.retire_slave(now, &mut out) {
                    self.tracer
                        .instant(self.now, trk_morph, "role: slave->l2bank", qlen as u64);
                    self.metrics.event(self.now, "morph.to_cache", lag);
                    self.stats.record("morph.lag_cycles", lag);
                    self.memsys.add_bank(tile, self.cfg.l2_bank_bytes);
                    let track = self.tracks.tile(tile);
                    let bank = self.memsys.banks.last_mut().expect("just added");
                    bank.next_free = free_at + self.timing.reconfig;
                    bank.track = track;
                    Duty::Morph.attribute(&mut self.stats, 50);
                    self.now += 50;
                    self.tracer.instant(self.now, track, "role.cache", 0);
                    self.stats.bump_ctr(Ctr::MorphToCache);
                }
                self.profiler.exit();
            }
            None => {}
        }
    }

    /// The guest stored into translated code on `page`: revokes every
    /// translation covering it at every cache level, and charges the
    /// round trip to the manager whose walk does it.
    fn invalidate_page(&mut self, page: u32) {
        let Some(addrs) = self.manager.revoke_page(page) else {
            return;
        };
        self.stats.bump_ctr(Ctr::SmcInvalidations);
        for addr in addrs {
            self.code.invalidate(addr);
        }
        // Flush inline target-prediction entries pointing into the
        // page: the patched compares hold raw guest addresses, and a
        // stale one surviving into re-translated code would dispatch
        // into the revoked translation.
        self.code.purge_indirect_targets(page);
        self.tracer
            .instant(self.now, self.tracks.exec, "smc.invalidate", page as u64);
        let (exec, mgr) = (self.cfg.placement.exec, self.cfg.placement.manager);
        let arrival = self.now + net::message(&mut self.tracer, self.now, exec, mgr, 1);
        let (_, manager, mut out) = self.tiles();
        self.now = manager.smc_walk(arrival, &mut out);
        self.now += net::message(&mut self.tracer, self.now, mgr, exec, 1);
    }
}

/// The revocation invariant, checked on every block entry in
/// `debug_assertions` builds: a block runs only while the guest bytes of
/// its footprint are the bytes its translation read. A store into them
/// (or a `brk` mapping a page a decode found unmapped) must have revoked
/// it from every cache level first; a block that fails this ran stale.
fn assert_fresh(pc: u32, block: &TBlock, mem: &GuestMem) {
    let Some(read) = block.footprint.read_digest() else {
        return;
    };
    let now = block.footprint.digest(mem);
    assert!(
        now == read,
        "pc {pc:#010x}: the block at {:#010x} (members {:x?}) runs on stale guest \
         bytes: its footprint {:x?} digests to {now:#018x}, its translation read \
         {read:#018x}",
        block.guest_addr,
        block.members().map(|m| (m.addr, m.len)).collect::<Vec<_>>(),
        block.footprint.spans(),
    );
}

/// The execution tile's memory port during one block.
struct ExecPort<'a> {
    mem: &'a mut GuestMem,
    memsys: &'a mut MemSys,
    dram: &'a mut Dram,
    timing: &'a Timing,
    exec: TileId,
    mmu: TileId,
    now: Cycle,
    manager: &'a Manager,
    smc: &'a mut Vec<u32>,
    tracer: &'a mut Tracer,
}

impl ExecPort<'_> {
    #[inline(always)]
    fn access(&mut self, addr: u32, write: bool) -> u64 {
        let (stall, _level) = self.memsys.access(
            self.now,
            addr,
            write,
            self.exec,
            self.mmu,
            self.dram,
            self.timing,
            self.tracer,
        );
        self.now += stall + 1;
        stall
    }
}

impl DataPort for ExecPort<'_> {
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
        let value = self
            .mem
            .read_sized(addr, op.bytes())
            .map_err(|e| Fault::Unmapped { addr: e.addr })?;
        Ok((value, self.access(addr, false)))
    }

    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
        self.mem
            .write_sized(addr, value, op.bytes())
            .map_err(|e| Fault::Unmapped { addr: e.addr })?;
        // A store is SMC if any byte of it lands in a page holding
        // translated code: its first byte's page, or — when it
        // straddles a page edge — its last byte's.
        let first = addr / 4096;
        let last = addr.wrapping_add(op.bytes() - 1) / 4096;
        if self.manager.holds_code(first) {
            self.smc.push(first);
        }
        if last != first && self.manager.holds_code(last) {
            self.smc.push(last);
        }
        Ok(self.access(addr, true))
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }

    fn smc_pending(&self) -> bool {
        // A store into translated code pages happened earlier in this
        // block: the next SMC guard must bail to dispatch so the region
        // is revoked and retranslated against the fresh bytes.
        !self.smc.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_ir::mir::Term;
    use vta_ir::RegionShape;
    use vta_x86::{Asm, Cond, Reg};

    const BASE: u32 = 0x0800_0000;

    fn image(f: impl FnOnce(&mut Asm)) -> GuestImage {
        let mut asm = Asm::new(BASE);
        f(&mut asm);
        GuestImage::from_code(asm.finish()).with_bss(0x0900_0000, 0x4000)
    }

    /// The reference interpreter's exit code and retired-instruction
    /// count for `img`.
    fn reference(img: &GuestImage) -> (u32, u64) {
        let mut cpu = vta_x86::Cpu::new(img);
        match cpu.run(10_000_000).expect("reference runs") {
            vta_x86::StopReason::Exit(code) => (code, cpu.insn_count),
            other => panic!("reference stopped with {other:?}"),
        }
    }

    fn loop_program(iters: u32) -> GuestImage {
        image(|a| {
            a.mov_ri(Reg::ECX, iters);
            a.mov_ri(Reg::EAX, 0);
            let top = a.here();
            a.add_rr(Reg::EAX, Reg::ECX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        })
    }

    #[test]
    fn runs_simple_program_to_exit() {
        let img = loop_program(100);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.stop, StopCause::Exit);
        assert_eq!(report.exit_code, Some((1..=100).sum::<u32>()));
        assert!(report.cycles > 0);
        assert!(report.guest_insns > 300);
    }

    #[test]
    fn deterministic_cycle_counts() {
        let img = loop_program(500);
        let run = || {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.run(10_000_000).expect("runs").cycles
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn hot_loop_chains_in_l1() {
        let img = loop_program(10_000);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert!(
            report.stats.get("chain.taken") > 9_000,
            "the loop back-edge must chain: {}",
            report.stats.get("chain.taken")
        );
        // Only a couple of blocks ever translated.
        assert!(report.stats.get("l2code.access") < 20);
    }

    #[test]
    fn speculation_reduces_demand_misses() {
        // A long chain of distinct blocks: speculative translators run
        // ahead; the conservative translator takes a demand miss per block.
        let img = image(|a| {
            for i in 0..200u32 {
                a.add_ri(Reg::EAX, i as i32);
                let l = a.label();
                a.jmp(l);
                a.bind(l);
            }
            a.exit_with_eax();
        });
        let run = |cfg: VirtualArchConfig| {
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let spec = run(VirtualArchConfig::with_translators(6, true));
        let cons = run(VirtualArchConfig::with_translators(1, false));
        assert!(
            spec.cycles < cons.cycles,
            "speculative {} should beat conservative {}",
            spec.cycles,
            cons.cycles
        );
    }

    #[test]
    fn exit_code_and_output_match_reference() {
        let img = image(|a| {
            a.mov_ri(Reg::EAX, 4);
            a.mov_ri(Reg::EBX, 1);
            a.mov_ri(Reg::ECX, 0x0900_0000);
            a.mov_mi(
                vta_x86::MemRef::abs(0x0900_0000),
                u32::from_le_bytes(*b"abcd"),
            );
            a.mov_ri(Reg::EDX, 4);
            a.int_(0x80);
            a.exit(9);
        });
        let mut cpu = vta_x86::Cpu::new(&img);
        let ref_stop = cpu.run(1_000_000).unwrap();
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(ref_stop, vta_x86::StopReason::Exit(9));
        assert_eq!(report.exit_code, Some(9));
        assert_eq!(report.output, cpu.sys.output);
    }

    #[test]
    fn a_rep_stos_longer_than_any_fuel_cap_runs_as_the_reference_does() {
        // One translated block storing 13 Mi dwords: ~4 host instructions
        // an iteration, past the 50 M a block once ran before
        // `FuelExhausted`. The reference has no such cap.
        const COUNT: u32 = 13 << 20;
        let mut a = Asm::new(BASE);
        a.mov_ri(Reg::EDI, 0x0900_0000);
        a.mov_ri(Reg::ECX, COUNT);
        a.rep_stos(vta_x86::Size::Dword);
        a.exit(3);
        let img = GuestImage::from_code(a.finish()).with_bss(0x0900_0000, COUNT * 4);
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 3);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs to exit");
        assert_eq!(report.exit_code, Some(3));
        assert_eq!(report.guest_insns, ref_insns, "retired count");
    }

    #[test]
    fn guest_fault_is_reported() {
        let img = image(|a| {
            a.mov_rm(Reg::EAX, vta_x86::MemRef::abs(0x4000_0000));
            a.hlt();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        match sys.run(1_000) {
            Err(SystemError::GuestFault {
                fault: Fault::Unmapped { addr },
                ..
            }) => {
                assert_eq!(addr, 0x4000_0000);
            }
            other => panic!("expected unmapped fault, got {other:?}"),
        }
    }

    #[test]
    fn insn_budget_stops() {
        let img = image(|a| {
            let top = a.here();
            a.inc_r(Reg::EAX);
            a.jmp(top);
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000).expect("runs");
        assert_eq!(report.stop, StopCause::InsnBudget);
    }

    #[test]
    fn smc_invalidates_translations() {
        // Code writes over its own (already executed) bytes; execution
        // must pick up the new translation.
        let img = image(|a| {
            // First pass writes "mov eax, 7; ret"-style patch over a
            // later instruction; here we simply patch an immediate.
            let patch_site = BASE + 0x40;
            a.mov_ri(Reg::ECX, 2);
            let top = a.here();
            // Patch the immediate byte of the `mov_ri(EBX, 11)` below.
            a.mov_mi8(vta_x86::MemRef::abs(patch_site + 1), 99);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            // Pad to the patch site.
            while a.cur_addr() < patch_site {
                a.nop();
            }
            a.mov_ri(Reg::EBX, 11); // byte at patch_site+1 becomes 99
            a.mov_rr(Reg::EAX, Reg::EBX);
            a.exit_with_eax();
        });
        // Reference semantics.
        let (want, _) = reference(&img);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want));
        assert!(report.stats.get("smc.invalidations") > 0);
    }

    #[test]
    fn smc_revokes_chained_dispatch_handles() {
        // Phase 1 runs a hot loop long enough for the dispatch loop to
        // cache arena handles and chain-successor edges for the body;
        // then the guest patches the body's immediate and re-runs it.
        // A stale handle surviving the invalidation would keep executing
        // the old translation and add the old immediate.
        let mut site = 0u32;
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 2);
            a.mov_ri(Reg::EAX, 0);
            let outer = a.here();
            a.mov_ri(Reg::ECX, 1000);
            let top = a.here();
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11); // imm low byte patched to 99
            a.add_rr(Reg::EAX, Reg::EBX);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.mov_mi8(vta_x86::MemRef::abs(site + 1), 99);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, outer);
            a.exit_with_eax();
        });
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 1000 * 11 + 1000 * 99);

        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want), "stale handle executed");
        assert_eq!(report.guest_insns, ref_insns, "retired count");
        assert!(report.stats.get("smc.invalidations") >= 1);
        assert!(
            report.stats.get("chain.taken") > 1500,
            "both passes must run chained: {}",
            report.stats.get("chain.taken")
        );

        // Same guest with a translation memo populated by the first run:
        // the memo's pre-patch entry must be rejected by its byte check
        // once the guest has patched the site.
        let sh = SharedTranslations::new(VirtualArchConfig::paper_default().opt);
        for pass in 0..2 {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.attach_shared(Arc::clone(&sh));
            let r = sys.run(10_000_000).expect("runs");
            assert_eq!(r.exit_code, Some(want), "pass {pass}");
            assert_eq!(r.cycles, report.cycles, "pass {pass}");
        }
        assert!(!sh.is_empty());
    }

    #[test]
    fn shared_translations_do_not_change_results() {
        let img = loop_program(500);
        let base = {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.run(10_000_000).expect("runs")
        };
        let sh = SharedTranslations::new(VirtualArchConfig::paper_default().opt);
        // Second iteration actually consumes the memo the first filled.
        for pass in 0..2 {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.attach_shared(Arc::clone(&sh));
            let r = sys.run(10_000_000).expect("runs");
            assert_eq!(r.cycles, base.cycles, "pass {pass}");
            assert_eq!(r.stats, base.stats, "pass {pass}");
        }
        assert!(!sh.is_empty());
    }

    #[test]
    fn smc_guard_exits_same_region_self_modification() {
        // The entry member of a superblock patches the immediate of a
        // *later* member of the same region, every iteration of a loop.
        // Iteration 1 runs as single blocks and promotes the loop head;
        // from iteration 2 on the region's boundary guard after the
        // storing member must bail to dispatch so the patched member
        // never runs from the stale translation.
        let mut site = 0u32;
        let img = image(|a| {
            let m1 = a.label();
            let m2 = a.label();
            a.mov_ri(Reg::ECX, 3);
            let top = a.here();
            a.mov_mi8(vta_x86::MemRef::abs(BASE + 0x40 + 1), 99);
            a.jmp(m1);
            a.bind(m1);
            a.add_ri(Reg::EDX, 0);
            a.jmp(m2);
            while a.cur_addr() < BASE + 0x40 {
                a.nop();
            }
            a.bind(m2);
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11); // imm low byte patched to 99
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.mov_rr(Reg::EAX, Reg::EBX);
            a.exit_with_eax();
        });
        assert_eq!(site, BASE + 0x40);
        let (want, _) = reference(&img);
        assert_eq!(want, 99, "reference sees the patched immediate");
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want), "stale member executed");
        assert!(report.stats.get("smc.invalidations") >= 1);
        assert!(
            report.stats.get("superblock.smc_exits") >= 1,
            "the boundary guard must fire: {:?}",
            report.stats
        );
    }

    #[test]
    fn smc_store_into_region_interior_revokes_whole_region() {
        // Two passes patch once; three patch a second time, over code
        // retranslated after the first revocation.
        interior_patch_case(2, 99);
        interior_patch_case(3, 90);
    }

    fn interior_patch_case(passes: u32, patch: u8) {
        // A region whose entry sits on one guest page and whose interior
        // member crosses onto the next page. The guest patches the
        // interior member's bytes (second page) and loops back: page-keyed
        // revocation must kill the region registered under its
        // first-page entry address, or the loop re-adds the stale value.
        let mut site = 0u32;
        let img = image(|a| {
            a.mov_ri(Reg::ESI, passes);
            a.mov_ri(Reg::EAX, 0);
            let outer = a.here();
            let y_entry = a.label();
            let y_mid = a.label();
            let y_end = a.label();
            let done = a.label();
            a.jmp(y_entry);
            a.bind(y_end);
            a.add_rr(Reg::EAX, Reg::EBX);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::E, done);
            a.mov_mi8(vta_x86::MemRef::abs(BASE + 0x1000 + 1), patch);
            a.jmp(outer);
            a.bind(done);
            a.exit_with_eax();
            // Region entry near the end of page 0 ...
            while a.cur_addr() < BASE + 0xFF8 {
                a.nop();
            }
            a.bind(y_entry);
            a.jmp(y_mid);
            // ... interior member on page 1.
            while a.cur_addr() < BASE + 0x1000 {
                a.nop();
            }
            a.bind(y_mid);
            site = a.cur_addr();
            a.mov_ri(Reg::EBX, 11); // imm low byte patched
            a.jmp(y_end);
        });
        assert_eq!(site, BASE + 0x1000);
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 11 + (passes - 1) * u32::from(patch));
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want), "interior patch ignored");
        assert_eq!(report.guest_insns, ref_insns, "retired count");
        assert!(report.stats.get("smc.invalidations") >= 1);
    }

    /// `outer` ends in `add eax,1; jmp B`, and `B`, on the next page,
    /// opens with `cmp eax,eax`: the flag scan reads that and drops every
    /// flag of the `add`, so `outer`'s translation stands on `B`'s bytes.
    /// In the pass where `esi == patch_when` the guest turns the `cmp`
    /// into `setc bl`, which reads the `add`'s carry: each later pass
    /// must add 1 to the exit code.
    fn scanned_successor_case(patch_when: i32) -> GuestImage {
        const B: u32 = BASE + 0x1000;
        image(|a| {
            let (b, c, skip) = (a.label(), a.label(), a.label());
            a.mov_ri(Reg::ESI, 4);
            a.mov_ri(Reg::EDI, 0);
            let outer = a.here();
            a.mov_ri(Reg::EBX, 0);
            a.mov_ri(Reg::EAX, u32::MAX);
            a.add_ri(Reg::EAX, 1);
            a.jmp(b);
            a.bind(c);
            a.cmp_ri(Reg::ESI, patch_when);
            a.jcc(Cond::Ne, skip);
            for (i, byte) in [0x0F, 0x92, 0xC3].into_iter().enumerate() {
                a.mov_mi8(vta_x86::MemRef::abs(B + i as u32), byte);
            }
            a.bind(skip);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, outer);
            a.mov_rr(Reg::EAX, Reg::EDI);
            a.exit_with_eax();
            while a.cur_addr() < B {
                a.nop();
            }
            a.bind(b);
            a.cmp_rr(Reg::EAX, Reg::EAX);
            a.nop();
            a.add_rr(Reg::EDI, Reg::EBX);
            a.jmp(c);
        })
    }

    #[test]
    fn store_into_a_scanned_successor_revokes_the_predecessor() {
        let img = scanned_successor_case(3);
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 2, "two passes run the patched successor");
        for cfg in [
            VirtualArchConfig::paper_default(),
            VirtualArchConfig::with_translators(1, false),
        ] {
            let report = System::new(cfg, &img).run(1_000_000).expect("runs");
            assert_eq!(report.exit_code, Some(want), "stale flag elimination");
            assert_eq!(report.guest_insns, ref_insns, "retired count");
        }
    }

    #[test]
    fn shared_memo_rejects_a_block_whose_scanned_successor_changed() {
        // Patched in the first pass: the memo already holds `outer`'s
        // pre-patch translation when the revoked address is translated
        // again, and the second cell boots on a memo full of both.
        let img = scanned_successor_case(4);
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 3);
        let sh = SharedTranslations::new(VirtualArchConfig::paper_default().opt);
        for cfg in [
            VirtualArchConfig::with_translators(6, true),
            VirtualArchConfig::with_translators(1, false),
        ] {
            let mut sys = System::new(cfg, &img);
            sys.attach_shared(Arc::clone(&sh));
            let report = sys.run(1_000_000).expect("runs");
            assert_eq!(report.exit_code, Some(want), "memo served a stale block");
            assert_eq!(report.guest_insns, ref_insns, "retired count");
        }
        assert!(!sh.is_empty());
    }

    #[test]
    fn indirect_inline_cache_hits_on_hot_returns() {
        // A hot call/ret loop: the first return pays the dispatch probe
        // and seeds the inline cache; later returns hit it.
        let img = image(|a| {
            let func = a.label();
            a.mov_ri(Reg::ECX, 500);
            let top = a.here();
            a.call(func);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(Reg::EAX, 1);
            a.ret();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(500));
        let hits = report.stats.get("dispatch.inline_hit");
        let misses = report.stats.get("dispatch.indirect");
        assert!(
            hits > 400,
            "hot returns must hit the inline cache: hits={hits} misses={misses}"
        );
        assert!(misses >= 1, "the first return seeds the cache");
    }

    #[test]
    fn superblocks_reduce_dispatch_exits() {
        // A straight chain of fall-through blocks: the first backedge
        // promotes the loop head, capped regions promote their forward
        // continuations, and the chain collapses into a few regions —
        // far fewer block exits reach the chain/dispatch machinery.
        // Enough iterations to amortize retranslating the body as
        // regions on top of the initial single-block translations.
        let img = image(|a| {
            a.mov_ri(Reg::ESI, 20_000);
            let top = a.here();
            for i in 0..30u32 {
                a.add_ri(Reg::EAX, i as i32);
                let l = a.label();
                a.jmp(l);
                a.bind(l);
            }
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let run = |superblock: bool| {
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.superblock = superblock;
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let on = run(true);
        let off = run(false);
        assert_eq!(on.exit_code, off.exit_code);
        assert!(on.stats.get("superblock.entries") > 0);
        assert_eq!(off.stats.get("superblock.entries"), 0);
        let exits = |r: &RunReport| {
            r.stats.get("chain.taken")
                + r.stats.get("dispatch.direct_miss")
                + r.stats.get("dispatch.indirect")
        };
        assert!(
            exits(&on) * 2 < exits(&off),
            "superblocks must collapse exits: on={} off={}",
            exits(&on),
            exits(&off)
        );
        assert!(
            on.cycles < off.cycles,
            "fewer exits must be cheaper: on={} off={}",
            on.cycles,
            off.cycles
        );
    }

    #[test]
    fn metrics_windows_reconcile_and_do_not_change_results() {
        let img = loop_program(2000);
        let base = System::new(VirtualArchConfig::paper_default(), &img)
            .run(10_000_000)
            .expect("runs");
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        sys.enable_metrics(MetricsConfig {
            interval: 500,
            ..MetricsConfig::default()
        });
        let r = sys.run(10_000_000).expect("runs");
        assert_eq!(r.cycles, base.cycles, "sampling never changes time");
        assert_eq!(r.stats, base.stats, "sampling never changes counters");
        let m = sys.take_metrics();
        assert!(m.len() > 1, "several windows closed: {}", m.len());
        m.reconcile_stats(&r.stats)
            .expect("windowed sums telescope to the run totals");
        let last = m.windows().last().expect("non-empty");
        assert_eq!(last.end, r.cycles, "final window closes at end of run");
        assert!(
            m.gauges().any(|(_, n)| n == "specq.len"),
            "simulated gauges registered"
        );
    }

    #[test]
    fn metrics_interval_choice_never_changes_simulation() {
        let img = loop_program(800);
        let mut cycles = Vec::new();
        for interval in [1u64, 97, 10_000] {
            let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
            sys.enable_metrics(MetricsConfig {
                interval,
                ..MetricsConfig::default()
            });
            let r = sys.run(10_000_000).expect("runs");
            sys.metrics
                .reconcile_stats(&r.stats)
                .unwrap_or_else(|e| panic!("interval {interval}: {e}"));
            cycles.push(r.cycles);
        }
        assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
    }

    #[test]
    fn histograms_record_translation_shape() {
        let img = loop_program(200);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        let h = report
            .stats
            .histogram("translate.block_host_bytes")
            .expect("translation sizes recorded");
        assert!(h.count() > 0);
        assert!(h.mean() > 4.0, "blocks are bigger than one instruction");
        let w = report
            .stats
            .histogram("demand.wait_cycles")
            .expect("demand misses recorded");
        assert!(w.count() >= 1, "at least the first block demand-misses");
    }

    #[test]
    fn morphing_reconfigures_under_pressure() {
        // Conditional branches fan the speculative frontier out two ways
        // per block, faster than the slaves can drain it.
        let img = image(|a| {
            for i in 0..400u32 {
                a.test_ri(Reg::EAX, 1);
                let taken = a.label();
                a.jcc(Cond::Ne, taken);
                a.add_ri(Reg::EBX, i as i32);
                a.bind(taken);
                a.add_ri(Reg::EAX, 1);
            }
            a.exit_with_eax();
        });
        let mut sys = System::new(VirtualArchConfig::morphing(0), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert!(
            report.stats.get("morph.to_translator") > 0,
            "queue pressure must trigger reconfiguration: {:?}",
            report.stats
        );
    }

    /// Three phases of 1500 iterations each: the data-dependent branch
    /// in the loop body takes the `+1` arm in phases one and three and
    /// the `+2` arm in phase two, so any path recorded through the
    /// junction stops holding twice. The phases are long because the
    /// startup speculation burst keeps every slave busy for a while
    /// (no preemption — §4.3): the loop-head region must still commit
    /// early in phase one. Exit code 1500 + 3000 + 1500.
    fn phase_flip_program() -> GuestImage {
        image(|a| {
            a.mov_ri(Reg::EAX, 0);
            a.mov_ri(Reg::EDX, 0);
            a.mov_ri(Reg::ESI, 3);
            let phase = a.here();
            a.mov_ri(Reg::ECX, 1_500);
            let top = a.here();
            a.test_ri(Reg::EDX, 1);
            let arm_b = a.label();
            let join = a.label();
            a.jcc(Cond::Ne, arm_b);
            a.add_ri(Reg::EAX, 1);
            a.jmp(join);
            a.bind(arm_b);
            a.add_ri(Reg::EAX, 2);
            a.bind(join);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.add_ri(Reg::EDX, 1);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, phase);
            a.exit_with_eax();
        })
    }

    #[test]
    fn cancelled_region_build_is_not_stuck_pending() {
        // Regression: a region build cancelled mid-flight by an SMC
        // invalidation used to leave its address in `region_pending`
        // forever — the single-block translation stayed resident, so
        // `assign_idle` skipped the re-queued entry as already-known
        // work and the promotion never settled into a region.
        //
        // The loop body spans two basic blocks (an internal `jmp` splits
        // it) so the rebuilt region is observably multi-member.
        let img = image(|a| {
            a.mov_ri(Reg::ECX, 10);
            a.mov_ri(Reg::EAX, 0);
            let top = a.here();
            a.add_rr(Reg::EAX, Reg::ECX);
            let mid = a.label();
            a.jmp(mid);
            a.bind(mid);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let top = BASE + 10;
        // Seed the resident single-block translation, as demand would.
        let (_, manager, mut out) = sys.tiles();
        let mut single = |pc| manager.translate(pc, &RegionShape::Single, &mut out);
        let top_block = single(top).expect("translates");
        let Term::Goto(body) = top_block.term else {
            panic!("the loop head ends in its jmp");
        };
        let body_block = single(body).expect("translates");
        manager.install(Arc::clone(&top_block), &RegionShape::Single, &mut out);
        // Promote and record: the region build is queued and a slave
        // picks it up.
        let owed = out.regions.record_loop(&top_block, &body_block, out.stats);
        manager.queue_region_build(owed.expect("a recorded path owes its build"));
        assert!(out.regions.build_owed(top));
        let started = manager.assign_idle(Cycle(0), &mut out);
        assert!(started, "region build starts");
        assert!(manager.pool().translating(top).is_some());
        // SMC cancels every in-flight translation; the commit path must
        // re-queue the owed region, and the next assignment must not
        // drop it just because the single is resident.
        manager.pool().cancel_in_flight();
        sys.catch_up(Cycle(1_000_000));
        assert!(
            !sys.regions.build_owed(top),
            "cancelled region build left the promotion pending forever"
        );
        let resident = sys.manager.l2().get(top).expect("resident");
        assert!(resident.is_region(), "region rebuilt after cancel");
    }

    #[test]
    fn zero_l15_banks_never_index_a_bank() {
        // The zero-bank pole of the Figure 4 sweep: no bank index may
        // ever be computed (the modulus would divide by zero), and the
        // whole run must route L1 misses straight to the manager.
        let img = loop_program(50);
        let mut sys = System::new(VirtualArchConfig::with_l15_banks(0), &img);
        assert_eq!(sys.code.l15_index(BASE), None, "no bank to index");
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some((1..=50).sum::<u32>()));
        assert_eq!(
            report.stats.get("l15.hit") + report.stats.get("l15.miss"),
            0,
            "no L1.5 traffic without banks"
        );
    }

    #[test]
    fn recording_never_changes_guest_instruction_count() {
        // The tentpole invariant: recorded-path regions change where
        // *time* goes, never what the guest retires. Conditionals, an
        // alternating (never fully predictable) branch, and a call/ret
        // pair; compare recorded regions, no regions, and the reference.
        let img = image(|a| {
            let func = a.label();
            a.mov_ri(Reg::ECX, 600);
            let top = a.here();
            a.test_ri(Reg::ECX, 1);
            let odd = a.label();
            let join = a.label();
            a.jcc(Cond::Ne, odd);
            a.add_ri(Reg::EAX, 1);
            a.jmp(join);
            a.bind(odd);
            a.add_ri(Reg::EAX, 2);
            a.bind(join);
            a.call(func);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(Reg::EBX, 1);
            a.ret();
        });
        let run = |superblock: bool| {
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.superblock = superblock;
            let mut sys = System::new(cfg, &img);
            sys.run(10_000_000).expect("runs")
        };
        let recorded = run(true);
        let off = run(false);
        let (exit_code, guest_insns) = reference(&img);
        for r in [&recorded, &off] {
            assert_eq!(r.exit_code, Some(exit_code));
            assert_eq!(r.guest_insns, guest_insns);
        }
        assert!(recorded.stats.get("superblock.recorded") > 0);
    }

    #[test]
    fn recorded_paths_follow_branches_static_prediction_misses() {
        // A hot loop whose body takes a *forward* conditional every
        // iteration: a static through-path predictor grows along the
        // fall-through arm, so its region would side-exit at the first
        // junction on every entry; the recording follows the taken arm
        // and runs the region to the backedge.
        let img = image(|a| {
            a.mov_ri(Reg::EBX, 1);
            a.mov_ri(Reg::ECX, 2_000);
            let top = a.here();
            a.test_ri(Reg::EBX, 1);
            let taken = a.label();
            a.jcc(Cond::Ne, taken);
            a.add_ri(Reg::EAX, 1_000); // never runs
            a.bind(taken);
            a.add_ri(Reg::EAX, 1);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let rec = sys.run(10_000_000).expect("runs");
        assert_eq!(rec.exit_code, Some(2_000));
        assert_eq!(rec.guest_insns, reference(&img).1);
        assert!(rec.stats.get("superblock.recorded") >= 1);
        let side = rec.stats.get("superblock.side_exits");
        let entries = rec.stats.get("superblock.entries");
        assert!(
            entries > 1_000 && side * 10 < entries,
            "recording must eliminate the fall-through side exit: \
             side={side} entries={entries}"
        );
    }

    #[test]
    fn recording_crosses_hot_returns_into_regions() {
        // A hot call/ret pair. The static predictor cannot grow a
        // region across the indirect `ret`; the recorder logs its
        // actual target, the `ret`'s backward indirect exit promotes
        // the return site, and the recorded regions cover the whole
        // call/body/return cycle — entered every iteration, exiting
        // early almost never (the return target is stable).
        let img = image(|a| {
            let func = a.label();
            a.mov_ri(Reg::ECX, 1_500);
            let top = a.here();
            a.call(func);
            a.dec_r(Reg::ECX);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
            a.bind(func);
            a.add_ri(Reg::EAX, 1);
            a.ret();
        });
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(1_500));
        assert!(report.stats.get("superblock.recorded") >= 1);
        let entries = report.stats.get("superblock.entries");
        let side = report.stats.get("superblock.side_exits");
        assert!(entries > 1_000, "regions must carry the loop: {entries}");
        assert!(
            side * 20 < entries,
            "the recorded return target must hold: side={side} entries={entries}"
        );
        assert_eq!(report.stats.get("superblock.demoted"), 0);
    }

    #[test]
    fn flaky_recorded_path_re_records_then_pins() {
        // Phase changes invalidate a recorded path twice: the first
        // demotion discards the region and re-records along the new
        // phase's path; the second pins the root single-block. Guest
        // retirement stays identical to the reference and to a run
        // without regions throughout.
        let img = phase_flip_program();
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(10_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(1_500 + 3_000 + 1_500));
        assert_eq!(report.guest_insns, reference(&img).1, "retired count");
        assert!(
            report.stats.get("superblock.recorded") >= 2,
            "initial recording plus the re-recording: {:?}",
            report.stats
        );
        assert!(
            report.stats.get("superblock.re_recorded") >= 1,
            "phase two must demote and re-record: {:?}",
            report.stats
        );
        assert!(
            report.stats.get("superblock.demoted") >= 1,
            "phase three must pin the root: {:?}",
            report.stats
        );
        let mut cfg = VirtualArchConfig::paper_default();
        cfg.superblock = false;
        let off = System::new(cfg, &img).run(10_000_000).expect("runs");
        assert_eq!(off.exit_code, report.exit_code);
        assert_eq!(off.guest_insns, report.guest_insns);
    }

    #[test]
    fn l15_banks_absorb_l1_flush_traffic() {
        // Working set larger than L1 code: with L1.5 the refill is cheap.
        let big_code = |a: &mut Asm| {
            for i in 0..700u32 {
                a.add_ri(Reg::EAX, i as i32);
                a.xor_rr(Reg::EDX, Reg::EAX);
                a.imul_rri(Reg::EBX, Reg::EAX, 3);
                a.add_rr(Reg::EDX, Reg::EBX);
                a.rol_ri(Reg::EAX, 3);
                let l = a.label();
                a.jmp(l);
                a.bind(l);
            }
        };
        let img = image(|a| {
            // Run the big straight-line region twice.
            a.mov_ri(Reg::ESI, 2);
            let top = a.here();
            big_code(a);
            a.dec_r(Reg::ESI);
            a.jcc(Cond::Ne, top);
            a.exit_with_eax();
        });
        // Single-block shape only: region promotion would retranslate
        // the two-iteration body mid-run, swamping the refill signal
        // this test isolates.
        let cfg = |banks| {
            let mut c = VirtualArchConfig::with_l15_banks(banks);
            c.superblock = false;
            c
        };
        let with = {
            let mut s = System::new(cfg(2), &img);
            s.run(50_000_000).expect("runs").cycles
        };
        let without = {
            let mut s = System::new(cfg(0), &img);
            s.run(50_000_000).expect("runs").cycles
        };
        assert!(
            with < without,
            "L1.5 banks must help big working sets: with={with} without={without}"
        );
    }

    #[test]
    fn store_straddling_into_a_code_page_is_smc() {
        // The loop head sits at a page boundary; the guest patches its
        // immediate with a 4-byte store that *starts* two bytes below,
        // in a data page: only its last two bytes land in code.
        let mut a = Asm::new(BASE);
        let done = a.label();
        let top = a.here();
        a.mov_ri(Reg::EBX, 11); // BB 0B 00 00 00 -> BB 63 00 00 00
        a.mov_rr(Reg::EAX, Reg::EBX);
        a.dec_r(Reg::ECX);
        a.jcc(Cond::E, done);
        a.mov_mi(vta_x86::MemRef::abs(BASE - 2), 0x63BB_0000);
        a.jmp(top);
        a.bind(done);
        a.exit_with_eax();
        let entry = a.cur_addr();
        a.mov_ri(Reg::ECX, 2);
        a.jmp(top);
        let img = GuestImage::from_code(a.finish())
            .with_bss(BASE - 0x1000, 0x1000)
            .with_entry(entry);
        assert_eq!(reference(&img).0, 99);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000).expect("runs");
        assert_eq!(report.exit_code, Some(99), "straddling store missed");
        assert!(report.stats.get("smc.invalidations") >= 1);
    }

    #[test]
    fn failed_speculation_does_not_poison_later_valid_code() {
        // Speculation reaches `BUF` through the direct jump while it
        // holds undecodable bytes and fails. The first pass then writes
        // real code there; the second jumps to it.
        const BUF: u32 = 0x0900_0000;
        let patch = {
            let mut p = Asm::new(BUF);
            p.mov_ri(Reg::EAX, 7);
            p.exit_with_eax();
            p.finish().code
        };
        let mut a = Asm::new(BASE);
        a.mov_ri(Reg::ESI, 2);
        let top = a.here();
        let go = a.label();
        a.dec_r(Reg::ESI);
        a.jcc(Cond::E, go);
        for (i, &b) in patch.iter().enumerate() {
            a.mov_mi8(vta_x86::MemRef::abs(BUF + i as u32), b);
        }
        a.jmp(top);
        a.bind(go);
        let rel = BUF.wrapping_sub(a.cur_addr() + 5);
        a.raw(&[0xE9]);
        a.raw(&rel.to_le_bytes());
        let img = GuestImage::from_code(a.finish()).with_data(BUF, vec![0xD8; 64]);
        assert_eq!(reference(&img).0, 7);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000).expect("retranslates on demand");
        assert_eq!(report.exit_code, Some(7));
        // One slave job more than slave commits: the failure on BUF.
        let commits = report.stats.histogram("translate.block_host_bytes");
        let commits = commits.map_or(0, |h| h.count());
        assert!(report.stats.get("translate.blocks") > commits);
    }

    /// `T`, the last 7 bytes of the code page, is `inc esi; jnz back`:
    /// always taken, but the flag scan decodes its fall-through on the
    /// next page, unmapped, so `T`'s footprint reaches into it. The guest
    /// runs `T`, grows its break over that page (now mapped, all zeros)
    /// and runs `T` again.
    fn brk_over_a_scanned_page() -> GuestImage {
        const T: u32 = BASE + 0x1000 - 7;
        let mut a = Asm::new(BASE);
        let (back, done) = (a.label(), a.label());
        a.mov_ri(Reg::ESI, 0);
        let jmp_t = |a: &mut Asm| {
            let rel = T.wrapping_sub(a.cur_addr() + 5);
            a.raw(&[0xE9]);
            a.raw(&rel.to_le_bytes());
        };
        jmp_t(&mut a);
        a.bind(back);
        let back_addr = a.cur_addr();
        a.cmp_ri(Reg::ESI, 1);
        a.jcc(Cond::Ne, done);
        a.mov_ri(Reg::EAX, 45);
        a.mov_ri(Reg::EBX, BASE + 0x2000);
        a.int_(0x80);
        jmp_t(&mut a);
        a.bind(done);
        a.mov_rr(Reg::EAX, Reg::ESI);
        a.exit_with_eax();
        while a.cur_addr() < T {
            a.nop();
        }
        a.raw(&[0x46, 0x0F, 0x85]); // inc esi; jnz rel32
        a.raw(&back_addr.wrapping_sub(T + 7).to_le_bytes());
        let mut img = GuestImage::from_code(a.finish());
        img.brk_base = BASE + 0x1000;
        img
    }

    #[test]
    fn a_brk_over_a_page_a_decode_found_unmapped_revokes_the_block() {
        // The zeros `brk` maps are not the bytes `T`'s translation read
        // (none: the page was unmapped), so the mapping revokes `T` as a
        // store into the page would, and the second run of `T` is a
        // fresh translation. The revocation invariant holds `T` to that
        // in debug builds; the counter says so in any build.
        let img = brk_over_a_scanned_page();
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 2);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want));
        assert_eq!(report.guest_insns, ref_insns, "retired count");
        assert_eq!(report.stats.get("smc.invalidations"), 1, "brk revoked T");
    }

    #[test]
    fn a_read_into_translated_code_revokes_the_block() {
        // Pass 1 runs `P: mov eax, 1`; a `read` of the input stream then
        // overwrites its imm32 with 7, and pass 2 jumps back to `P`. The
        // read stores into a code page, so it revokes `P` as a store
        // would, and pass 2 runs a fresh translation (the revocation
        // invariant holds it to that in debug builds).
        let mut a = Asm::new(BASE);
        let done = a.label();
        a.mov_ri(Reg::ESI, 0);
        let imm = a.cur_addr() + 1;
        let p = a.here();
        a.mov_ri(Reg::EAX, 1);
        a.cmp_ri(Reg::ESI, 0);
        a.jcc(Cond::Ne, done);
        a.mov_ri(Reg::ESI, 1);
        a.mov_ri(Reg::EAX, 3);
        a.mov_ri(Reg::EBX, 0);
        a.mov_ri(Reg::ECX, imm);
        a.mov_ri(Reg::EDX, 4);
        a.int_(0x80);
        a.jmp(p);
        a.bind(done);
        a.exit_with_eax();
        let img = GuestImage::from_code(a.finish()).with_input(7u32.to_le_bytes().to_vec());
        let (want, ref_insns) = reference(&img);
        assert_eq!(want, 7);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        let report = sys.run(1_000_000).expect("runs");
        assert_eq!(report.exit_code, Some(want));
        assert_eq!(report.guest_insns, ref_insns, "retired count");
        assert_eq!(report.stats.get("smc.invalidations"), 1, "read revoked P");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "runs on stale guest bytes")]
    fn a_block_whose_bytes_changed_unrevoked_fails_the_invariant() {
        // Rewrite a translated loop body behind the manager's back (no
        // store, so no revocation): its next entry runs stale.
        let img = loop_program(1_000);
        let mut sys = System::new(VirtualArchConfig::paper_default(), &img);
        sys.run(100).expect("runs");
        let top = BASE + 10; // mov ecx, imm32; mov eax, imm32
        assert!(sys.manager.l2().get(top).is_some(), "loop body translated");
        sys.mem.write_sized(top, 0x90, 1).expect("mapped");
        let _ = sys.run(1_000);
    }
}
