//! The differential oracle.
//!
//! Every case is executed on the reference interpreter ([`vta_x86::Cpu`])
//! and on the translated path at [`OptLevel::None`] and at
//! [`OptLevel::Full`], then the architectural outcomes are compared
//! channel by channel:
//!
//! * **stop reason** — exit code, halt, or the fault kind (always);
//! * **registers** — all eight GPRs (skipped on faults: the reference
//!   stops mid-instruction while translated code stops at block
//!   granularity, so intermediate register state is not comparable);
//! * **memory** — every mapped page, byte for byte (same fault caveat);
//! * **syscall output** — the full `write` byte stream (always).
//!
//! Flags are deliberately *not* read out of the packed flags register:
//! dead-flag elimination makes unobserved flag bits unrepresentative on
//! the translated side. Generators instead materialise the flags they
//! care about with `setcc`, which lands them in the compared registers.
//!
//! Resource exhaustion on either side ([`Outcome::Limit`]) yields
//! [`Verdict::Skip`], never a divergence: the two paths meter work in
//! different units (instructions vs fuel/blocks), so a case that runs out
//! on one side may legitimately finish on the other. The same policy
//! covers [`CodegenError`](crate::translate::TranslateError::Codegen)
//! (register-pressure spills are a capacity limit, not a semantics bug).
//!
//! Same-block self-modifying code is also skipped, and detected
//! *precisely*: every store the block performs is checked by *address*
//! against [`TBlock::footprint`] ([`Footprint::covers`](crate::Footprint::covers),
//! the answer SMC revocation and the sweep memo use). A hit means the
//! block's own stores overwrote bytes its translation had read, which a
//! block DBT cannot coherently execute ([`Outcome::OutOfContract`]).
//! Value revalidation would not do: a dirtied byte can cycle back to its
//! translated value (ABA) after the reference branched on an
//! intermediate one. Cross-block SMC stays fully compared: the oracle
//! retranslates every block on entry.
//!
//! There is one functional DBT loop, `run_translated`, over one
//! functional [`DataPort`] and the translated side's one syscall layer
//! ([`proxy_syscall`]). It runs the shapes `System` runs: the DBT's own
//! path-recording protocol ([`Recorder`] under [`RegionLimits::for_opt`])
//! sees every block exit, and the block at `pc` is single until a
//! recording closes for it, then a [`Translator::translate_region_along`]
//! region — both at the run's level (at `None` nothing promotes). Where a
//! recorded path stops holding, the region's guards must side-exit to
//! exactly where single blocks go. [`run_image`] judges any
//! [`GuestImage`]; [`run_case`] is `run_image` of a fuzz [`Case`].
//!
//! Stores into a *later, not yet executed* member of the current
//! region are back in contract: the `SmcGuard` at each member boundary
//! exits to the next member's entry before any stale byte runs, and the
//! oracle retranslates from there against the patched bytes. Only when
//! the dirtied bytes belong to an already-decoded portion — the entry
//! member itself, a member the exit does not precede, or footprint bytes
//! outside every member range (the successor flag-liveness scan) — is
//! the case out of contract.

use crate::codegen::{guest_host_reg, SYS_RESUME_REG};
use crate::fuzz::Case;
use crate::helper::{apply_helper, proxy_syscall, R_ESP};
use crate::record::{BlockFacts, Recorder};
use crate::translate::{OptLevel, RegionLimits, TranslateError, Translator};
use crate::{Footprint, TBlock};
use vta_raw::exec::{run_block, BlockExit, CoreState, DataPort, Fault};
use vta_raw::isa::{HelperKind, MemOp};
use vta_x86::{Cpu, CpuError, GuestImage, GuestMem, StopReason, SysState, PAGE_SIZE};

/// Instruction budget for the reference interpreter.
const REF_INSN_LIMIT: u64 = 2_000_000;
/// Fuel budget for a single translated block execution.
const BLOCK_FUEL: u64 = 4_000_000;
/// Maximum number of translated block executions per case.
const BLOCK_BUDGET: u32 = 400_000;

/// How a run finished, in comparable (side-neutral) terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The guest called `exit` with this code.
    Exit(u32),
    /// The guest executed `hlt`.
    Halt,
    /// The guest faulted.
    Fault(FaultKind),
    /// The run exhausted its resource budget (insn limit, fuel, block
    /// budget, or a codegen capacity error). Never compared — see
    /// [`Verdict::Skip`].
    Limit,
    /// A translated block's own execution overwrote bytes its
    /// translation had read (same-block self-modifying code). A block
    /// DBT decodes a whole block before running any of it, while the
    /// reference decodes instruction by instruction, so this pattern is
    /// outside the coherence contract — the case is skipped, never
    /// compared. (Cross-block SMC *is* in contract and is compared: the
    /// oracle retranslates every block fresh.)
    OutOfContract,
}

/// A guest fault, normalised so the reference and translated encodings
/// compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Instruction fetch/decode failed (undecodable bytes or an unmapped
    /// fetch). The faulting address is *not* part of the comparison: the
    /// reference reports the failing instruction start while the
    /// translated side may report the byte that broke a longer decode.
    Undecodable,
    /// A data access touched an unmapped page at this address.
    Unmapped {
        /// The faulting data address (identical on both sides: every
        /// layer faults on the first unmapped byte).
        addr: u32,
    },
    /// Divide by zero or quotient overflow.
    Divide,
    /// `int` with a vector the platform does not implement.
    BadInterrupt {
        /// The unsupported vector.
        vector: u8,
    },
}

/// Which comparison channel diverged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Channel {
    /// Stop reason (exit code / halt / fault kind).
    Stop,
    /// Final general-purpose register values.
    Regs,
    /// Final guest memory contents.
    Memory,
    /// Syscall output byte stream.
    Output,
}

/// A confirmed disagreement between the reference and the translated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Optimization level of the diverging translated run.
    pub opt: OptLevel,
    /// The first channel that differed.
    pub channel: Channel,
    /// Human-readable detail (both sides' values).
    pub detail: String,
}

/// The oracle's judgement on one case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Both translated runs matched the reference on every channel.
    Pass,
    /// The case hit a resource limit on some side and is not comparable.
    Skip(&'static str),
    /// The translated path disagreed with the reference.
    Diverge(Divergence),
}

impl Verdict {
    /// True for [`Verdict::Diverge`].
    pub fn is_divergence(&self) -> bool {
        matches!(self, Verdict::Diverge(_))
    }
}

/// Final architectural state of one run.
struct RunResult {
    outcome: Outcome,
    regs: [u32; 8],
    mem: GuestMem,
    output: Vec<u8>,
}

struct OraclePort<'a> {
    mem: &'a mut GuestMem,
    /// Read footprint of the currently-executing region's translation.
    reads: &'a Footprint,
    /// Byte addresses of every store that landed inside that footprint:
    /// the region may be executing stale code. Tracked by store address,
    /// not value, so a byte that cycles back to its translated value
    /// mid-block (ABA) is still caught. Whether a hit is actually out of
    /// contract depends on *which member* the dirty bytes belong to —
    /// see the coherence check after `run_block`.
    dirty: Vec<u32>,
}

impl DataPort for OraclePort<'_> {
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
        self.mem
            .read_sized(addr, op.bytes())
            .map(|v| (v, 0))
            .map_err(|e| Fault::Unmapped { addr: e.addr })
    }

    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
        for i in 0..op.bytes() {
            let a = addr.wrapping_add(i);
            if self.reads.covers(a) {
                self.dirty.push(a);
            }
        }
        self.mem
            .write_sized(addr, value, op.bytes())
            .map(|_| 0)
            .map_err(|e| Fault::Unmapped { addr: e.addr })
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }

    /// Polled by `RInsn::SmcGuard` at superblock member boundaries: a
    /// pending footprint hit makes the guard exit to the next member's
    /// entry instead of running possibly-stale bytes.
    fn smc_pending(&self) -> bool {
        !self.dirty.is_empty()
    }
}

fn fault_kind(f: Fault) -> Outcome {
    match f {
        Fault::Unmapped { addr } => Outcome::Fault(FaultKind::Unmapped { addr }),
        Fault::DivZero => Outcome::Fault(FaultKind::Divide),
        Fault::BadInterrupt { vector } => Outcome::Fault(FaultKind::BadInterrupt { vector }),
        Fault::Undecodable { .. } => Outcome::Fault(FaultKind::Undecodable),
        Fault::FuelExhausted => Outcome::Limit,
    }
}

/// Runs an image on the reference interpreter.
fn run_reference(image: &GuestImage) -> RunResult {
    let mut cpu = Cpu::new(image);
    let outcome = match cpu.run(REF_INSN_LIMIT) {
        Ok(StopReason::Exit(c)) => Outcome::Exit(c),
        Ok(StopReason::Halt) => Outcome::Halt,
        Ok(StopReason::InsnLimit) => Outcome::Limit,
        Err(CpuError::Decode(_)) => Outcome::Fault(FaultKind::Undecodable),
        Err(CpuError::Unmapped { addr, .. }) => Outcome::Fault(FaultKind::Unmapped { addr }),
        Err(CpuError::DivideError { .. }) => Outcome::Fault(FaultKind::Divide),
        Err(CpuError::BadInterrupt { vector, .. }) => {
            Outcome::Fault(FaultKind::BadInterrupt { vector })
        }
    };
    RunResult {
        outcome,
        regs: cpu.regs,
        mem: cpu.mem,
        output: cpu.sys.output,
    }
}

/// Runs an image through translate + execute at `opt`: the one
/// functional DBT loop, shaping regions by the recording protocol.
///
/// Blocks are re-translated on every entry (no translation cache): the
/// oracle must stay coherent with self-modifying code, and divergence
/// hunting values correctness over speed. Every translation of the run
/// goes through one [`Translator`], so the cases also exercise a context
/// reused across single-block and region shapes.
fn run_translated(image: &GuestImage, opt: OptLevel) -> RunResult {
    let mut mem = image.build_mem();
    let mut sys = SysState::new(image.brk_base);
    sys.set_input(image.input.clone());

    let limits = RegionLimits::for_opt(opt);
    let mut paths = Recorder::<()>::new(limits);
    let mut translator = Translator::default();
    let mut state = CoreState::new();
    state.set(R_ESP, image.initial_esp());
    let mut pc = image.entry;
    let mut blocks = 0u32;

    let outcome = loop {
        blocks += 1;
        if blocks > BLOCK_BUDGET {
            break Outcome::Limit;
        }
        let translated = match paths.path(pc) {
            Some(path) => translator.translate_region_along(&mem, pc, opt, &limits, path),
            None => translator.translate_block(&mem, pc, opt),
        };
        let block = match translated {
            Ok(b) => b,
            Err(TranslateError::Decode(_)) => break Outcome::Fault(FaultKind::Undecodable),
            // Capacity, not semantics (e.g. register-pressure spill):
            // treat like a resource limit so the case is skipped.
            Err(TranslateError::Codegen(_)) => break Outcome::Limit,
        };
        let mut port = OraclePort {
            mem: &mut mem,
            reads: &block.footprint,
            dirty: Vec::new(),
        };
        let out = run_block(&mut state, &block.code, &mut port, BLOCK_FUEL);
        if stale_execution(&block, &out.exit, &port.dirty) {
            break Outcome::OutOfContract;
        }
        let full_run = block.retired(out.guards_passed) == u64::from(block.guest_insns);
        paths.exited(BlockFacts::of(&block), out.exit, full_run);
        match out.exit {
            BlockExit::Goto(t) | BlockExit::Indirect(t) => pc = t,
            BlockExit::Halt => break Outcome::Halt,
            BlockExit::Fault(f) => break fault_kind(f),
            BlockExit::Sys => match proxy_syscall(&mut state, &mut sys, &mut mem) {
                Some(code) => break Outcome::Exit(code),
                None => pc = state.get(SYS_RESUME_REG),
            },
        }
    };

    RunResult {
        outcome,
        regs: std::array::from_fn(|i| state.get(guest_host_reg(i as u32))),
        mem,
        output: sys.output,
    }
}

/// Whether a block execution that dirtied its own translation's read
/// footprint may have run stale bytes. `false` means the SmcGuard
/// machinery provably exited before any dirtied byte could execute:
/// the exit resumes at a later member's entry and every dirty byte
/// lies at or past that resume point inside the region's member
/// ranges. Anything else — a dirty byte in code the exit does not
/// precede, or in footprint bytes outside every member (the successor
/// liveness scan) — is stale execution the reference never saw.
fn stale_execution(block: &TBlock, exit: &BlockExit, dirty: &[u32]) -> bool {
    if dirty.is_empty() {
        return false;
    }
    let resumes_before_dirty = match *exit {
        BlockExit::Goto(r) => block.members().position(|m| m.addr == r).is_some_and(|j| {
            j >= 1
                && dirty
                    .iter()
                    .all(|&d| (block.members().skip(j)).any(|m| d.wrapping_sub(m.addr) < m.len))
        }),
        _ => false,
    };
    !resumes_before_dirty
}

/// Byte-compares every mapped page of two guest memories.
fn mem_diff(a: &GuestMem, b: &GuestMem) -> Option<String> {
    // Equal memories are the common case; the rest only names where
    // two unequal ones differ.
    if a == b {
        return None;
    }
    let pa = a.mapped_pages();
    let pb = b.mapped_pages();
    if pa != pb {
        return Some(format!(
            "mapped page sets differ: {} vs {} pages",
            pa.len(),
            pb.len()
        ));
    }
    for page in pa {
        let ba = a.page(page).expect("page is mapped");
        let bb = b.page(page).expect("page is mapped");
        if let Some(off) = ba.iter().zip(bb).position(|(x, y)| x != y) {
            return Some(format!(
                "byte at {:#010x}: ref {:#04x} vs dbt {:#04x}",
                page * PAGE_SIZE + off as u32,
                ba[off],
                bb[off]
            ));
        }
    }
    None
}

/// Compares one translated run against the reference run.
fn compare(opt: OptLevel, reference: &RunResult, dbt: &RunResult) -> Verdict {
    // A limit on either side makes the case incomparable.
    if reference.outcome == Outcome::Limit || dbt.outcome == Outcome::Limit {
        return Verdict::Skip("resource limit");
    }
    // Same-block SMC (only the translated side can detect it).
    if dbt.outcome == Outcome::OutOfContract {
        return Verdict::Skip("same-block SMC");
    }
    let diverge = |channel, detail| {
        Verdict::Diverge(Divergence {
            opt,
            channel,
            detail,
        })
    };
    if reference.outcome != dbt.outcome {
        return diverge(
            Channel::Stop,
            format!("ref {:?} vs dbt {:?}", reference.outcome, dbt.outcome),
        );
    }
    if reference.output != dbt.output {
        return diverge(
            Channel::Output,
            format!(
                "ref {} bytes vs dbt {} bytes",
                reference.output.len(),
                dbt.output.len()
            ),
        );
    }
    // Faults stop the reference mid-instruction but translated code at
    // block granularity; register/memory state is only compared on
    // clean stops.
    if !matches!(reference.outcome, Outcome::Fault(_)) {
        if reference.regs != dbt.regs {
            return diverge(
                Channel::Regs,
                format!("ref {:08x?} vs dbt {:08x?}", reference.regs, dbt.regs),
            );
        }
        if let Some(d) = mem_diff(&reference.mem, &dbt.mem) {
            return diverge(Channel::Memory, d);
        }
    }
    Verdict::Pass
}

/// Runs one guest image through the full differential oracle.
///
/// Returns the first non-[`Pass`](Verdict::Pass) verdict across the two
/// optimization levels, [`OptLevel::None`] first.
pub fn run_image(image: &GuestImage) -> Verdict {
    let reference = run_reference(image);
    for opt in [OptLevel::None, OptLevel::Full] {
        let dbt = run_translated(image, opt);
        match compare(opt, &reference, &dbt) {
            Verdict::Pass => {}
            other => return other,
        }
    }
    Verdict::Pass
}

/// Runs one fuzz case through the full differential oracle.
pub fn run_case(case: &Case) -> Verdict {
    run_image(&case.image())
}
