//! The translation pipeline driver: decode and form the region, compute
//! flag liveness, lower only the flags a reader can see, propagate values
//! (at [`OptLevel::Full`]), codegen (which also drops dead code at
//! `Full`).
//!
//! The whole pipeline is a *pure* function of the bytes it fetches through
//! [`CodeSource`]: no globals, no randomness, no iteration over unordered
//! containers. That purity is what makes a translation reusable: a block
//! produced earlier, or by another sweep cell, is bit-identical to one
//! produced now, *provided every byte the translation read still holds
//! the same value*. The translator is the one place that knows which
//! bytes those are — flag liveness scans guest code far beyond the
//! translated block (it follows successors) — so it says so: every
//! decode it makes is noted on the [`MBlock`] and folded into
//! [`TBlock::footprint`], which SMC revocation, the sweep memo and the
//! fuzz oracle all read. Nothing wraps the [`CodeSource`]; nothing runs
//! per byte read: the decoder reads a window at a time, and
//! [`Footprint::windows`] walks a footprint's live bytes the same way.
//!
//! Which guest code a translation covers is stated once, by formation:
//! the [`TBlock`] takes its [`TBlock::members`], entry address and
//! length, instruction count and `is_call` straight from the formed
//! members and decoded instructions, and the MIR in between relays none
//! of them. A plain basic block allocates nothing beside its code: its
//! one member is the header, and its one footprint span is held inline.

use std::num::NonZeroU64;
use std::sync::Arc;

use vta_raw::isa::{RInsn, TrapCause};
use vta_sim::Fnv1a;
use vta_x86::decode::{decode, CodeSource, DecodeError, MAX_INSN_LEN};
use vta_x86::{Cond, Insn, Op};

use crate::codegen::{codegen, CodegenError, RegisterPressure};
use crate::lower::{lower_member, term_of, MAX_BLOCK_INSNS};
use crate::mir::{note_read, FlagSet, MBlock, MInsn, Term, VReg};
use crate::opt::{flags, valueprop};

/// Translation effort (Figure 8 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Baseline translation only: flags are lowered only where a reader in
    /// the region can see them (the paper counts dead-flag elimination as
    /// part of the core translator, §4.5), with every flag assumed live
    /// wherever the region exits, and no passes run.
    None,
    /// The full pass pipeline ("optimization on" in Figure 8).
    #[default]
    Full,
}

impl OptLevel {
    /// Per-guest-instruction translation occupancy in slave-tile cycles.
    ///
    /// Calibrated so a typical block costs a few thousand cycles to
    /// translate — large against execution but overlappable by
    /// speculative parallel translation. Optimization roughly doubles
    /// the translation occupancy (the cost Figure 8 says is worth paying
    /// off the critical path).
    pub(crate) fn cycles_per_guest_insn(self) -> u64 {
        match self {
            OptLevel::None => 260,
            OptLevel::Full => 540,
        }
    }
}

/// Caps on superblock (multi-block region) formation.
///
/// A region starts as one basic block and is extended — along the
/// statically predicted hot path (fall-through, or the paper's
/// backward-taken/forward-not-taken rule; [`translate_region`]) or along
/// a recorded successor path ([`translate_region_along`]) — until it hits
/// a terminator its path cannot cross, an already-included address, or
/// one of these caps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionLimits {
    /// Maximum member basic blocks per region.
    pub max_blocks: u32,
    /// Maximum total guest instructions per region.
    pub max_insns: u32,
    /// Maximum distinct guest code pages a region's fetches may span
    /// (stops page-crossing runaway regions; revocation is page-keyed).
    pub max_pages: u32,
}

impl Default for RegionLimits {
    fn default() -> Self {
        RegionLimits {
            max_blocks: 8,
            max_insns: 96,
            max_pages: 2,
        }
    }
}

impl RegionLimits {
    /// Limits that disable region formation (every region is one block).
    pub fn single() -> RegionLimits {
        RegionLimits {
            max_blocks: 1,
            max_insns: MAX_BLOCK_INSNS,
            max_pages: 2,
        }
    }

    /// The limits an optimization level forms regions under: superblocks
    /// are part of the full pipeline, baseline translation stays
    /// single-block (region formation is itself an optimization).
    pub fn for_opt(opt: OptLevel) -> RegionLimits {
        match opt {
            OptLevel::Full => RegionLimits::default(),
            OptLevel::None => RegionLimits::single(),
        }
    }
}

/// How the translation at a guest address was shaped.
///
/// The same guest address translates to *different* host code depending
/// on whether (and along which path) region formation ran, so the shape
/// must be part of every translation-cache and memo key. Because the
/// recorded path is carried by value (not hashed down to a digest), two
/// recordings that differ anywhere produce distinct keys and cross-cell
/// memo reuse stays sound: a hit means the reusing cell would have
/// formed the identical region from the identical bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RegionShape {
    /// A plain single basic block.
    Single,
    /// A region formed along an explicitly recorded successor path
    /// ([`translate_region_along`]); the payload is the recorded
    /// successor list, one entry per junction.
    Recorded(Arc<[u32]>),
}

impl RegionShape {
    /// Whether this shape involves region formation at all.
    pub fn is_region(&self) -> bool {
        !matches!(self, RegionShape::Single)
    }
}

/// A translated block of host code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TBlock {
    /// Guest address this block translates: its entry member's.
    pub guest_addr: u32,
    /// Bytes of guest code covered by the entry member block.
    pub guest_len: u32,
    /// Guest instructions covered: the sum over [`TBlock::members`].
    pub guest_insns: u32,
    /// The host code.
    pub code: Vec<RInsn>,
    /// Slave-tile cycles the translation cost.
    pub translate_cycles: u64,
    /// The block's terminator (drives speculation on successors).
    pub term: Term,
    /// Whether the block ends in a guest `call` (return predictor).
    pub is_call: bool,
    /// The member basic blocks after the entry, in formation order. The
    /// header describes the entry, so a plain basic block holds an empty
    /// slice, which does not allocate. Read through
    /// [`TBlock::members`], which yields the entry first.
    rest: Box<[Member]>,
    /// Every guest byte this translation depended on: the members'
    /// instructions, the successor code the flag-liveness scan decoded,
    /// and the most any failed decode can have fetched. While these
    /// bytes are unchanged a fresh translation is bit-identical; a store
    /// into any of them makes this one stale.
    pub footprint: Footprint,
}

/// One member basic block of a [`TBlock`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// Guest address of its first instruction.
    pub addr: u32,
    /// Bytes of guest code it covers.
    pub len: u32,
    /// Guest instructions it covers.
    pub insns: u32,
}

/// A set of guest bytes as sorted `(start, len)` spans that neither
/// overlap, touch, are empty nor run past 2^32.
///
/// In `debug_assertions` builds a translated block's footprint also
/// carries the [`Footprint::digest`] of its bytes as the translator read
/// them, so the run loop can check, on every block entry, that a block
/// runs only on the bytes it was made from (see
/// [`Footprint::read_digest`]). Two footprints are equal when their
/// spans are: the digest is a witness, not part of the set. One span is
/// held inline and more in a boxed slice, whose pointer's niche tags
/// the two, and the digest is a non-zero word, so a footprint is 24
/// bytes and one of a single span allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct Footprint {
    spans: Spans,
    read: Option<NonZeroU64>,
}

/// A [`Footprint`]'s spans: most translations read one run of bytes.
#[derive(Debug, Clone)]
enum Spans {
    One([(u32, u32); 1]),
    Many(Box<[(u32, u32)]>),
}

impl Spans {
    /// `spans`, copied: inline if there is one.
    fn of(spans: &[(u32, u32)]) -> Spans {
        match *spans {
            [one] => Spans::One([one]),
            _ => Spans::Many(spans.into()),
        }
    }
}

impl Default for Spans {
    fn default() -> Spans {
        Spans::Many(Box::default())
    }
}

// What every cached translation pays on the host beside its code: one
// footprint span inline must not grow a footprint past a `Vec`, nor the
// `TBlock` past the 104 bytes that put an `Arc<TBlock>` in a 128-byte
// malloc chunk.
const _: () = assert!(std::mem::size_of::<Footprint>() == 24);
const _: () = assert!(std::mem::size_of::<TBlock>() <= 104);

impl PartialEq for Footprint {
    fn eq(&self, other: &Footprint) -> bool {
        self.spans() == other.spans()
    }
}

impl Eq for Footprint {}

impl Footprint {
    /// The set of bytes in `spans`, given in any order; a span reaching
    /// past 2^32 wraps to address 0, as instruction fetch does. It
    /// carries no read digest.
    pub fn new(mut spans: Vec<(u32, u32)>) -> Footprint {
        normalize(&mut spans);
        Footprint {
            spans: Spans::of(&spans),
            read: None,
        }
    }

    /// FNV-1a over the footprint's bytes as `src` holds them now, span
    /// after span, then over the address of each byte `src` cannot read:
    /// mapping a page changes the digest as a store would, and where
    /// `src`'s windows end does not.
    pub fn digest<S: CodeSource + ?Sized>(&self, src: &S) -> u64 {
        let (mut h, mut unmapped) = (Fnv1a::default(), Fnv1a::default());
        for run in self.windows(src) {
            match run {
                Ok(bytes) => h.eat(bytes),
                Err(addr) => unmapped.eat(&addr.to_le_bytes()),
            }
        }
        h.eat(&unmapped.finish().to_le_bytes());
        h.finish()
    }

    /// The one walk over the footprint's bytes as `src` holds them now,
    /// span after span, a [`CodeSource::window`] at a time: `Ok` with the
    /// next readable run (cut at its span's end), `Err` with the address
    /// of a byte `src` cannot read. [`Footprint::digest`] and the sweep
    /// memo's byte re-validation both read through it.
    pub fn windows<'a, S: CodeSource + ?Sized>(
        &'a self,
        src: &'a S,
    ) -> impl Iterator<Item = Result<&'a [u8], u32>> + 'a {
        self.spans().iter().flat_map(move |&(mut addr, mut left)| {
            std::iter::from_fn(move || {
                (left > 0).then(|| {
                    let window = src.window(addr);
                    let run = match window.len().min(left as usize) {
                        0 => Err(addr),
                        n => Ok(&window[..n]),
                    };
                    let n = run.map_or(1, <[u8]>::len) as u32;
                    (addr, left) = (addr.wrapping_add(n), left - n);
                    run
                })
            })
        })
    }

    /// The [`Footprint::digest`] the translator took as it read the
    /// bytes: `Some` for a translated block in a `debug_assertions`
    /// build (unless the digest is zero); `None` for a footprint built
    /// from spans, and in release builds.
    pub fn read_digest(&self) -> Option<u64> {
        self.read.map(NonZeroU64::get)
    }

    /// The spans, ascending.
    pub fn spans(&self) -> &[(u32, u32)] {
        match &self.spans {
            Spans::One(one) => one,
            Spans::Many(many) => many,
        }
    }

    /// Whether `addr` is one of the bytes.
    pub fn covers(&self, addr: u32) -> bool {
        let spans = self.spans();
        let after = spans.partition_point(|&(start, _)| start <= addr);
        after > 0 && addr - spans[after - 1].0 < spans[after - 1].1
    }

    /// The 4 KiB guest pages holding any of the bytes, ascending, each
    /// once.
    pub fn pages(&self) -> impl Iterator<Item = u32> + '_ {
        let mut unseen = 0;
        self.spans().iter().flat_map(move |&(start, len)| {
            let first = (start >> 12).max(unseen);
            unseen = ((start + (len - 1)) >> 12) + 1;
            first..unseen
        })
    }
}

/// Sorts and merges `spans` in place into a [`Footprint`]'s canonical
/// form: no span empty, overlapping, touching or past 2^32 (a span
/// reaching past it continues at address 0).
fn normalize(spans: &mut Vec<(u32, u32)>) {
    for i in 0..spans.len() {
        let (start, len) = spans[i];
        let over = (start as u64 + len as u64).saturating_sub(1 << 32) as u32;
        if over > 0 {
            spans[i].1 = len - over;
            spans.push((0, over));
        }
    }
    spans.retain(|&(_, len)| len > 0);
    spans.sort_unstable();
    // Merge in place: `dedup_by` drops `next` when told it is covered
    // by `prev`, which is grown to cover it first.
    spans.dedup_by(|next, prev| {
        let touches = prev.0 as u64 + prev.1 as u64 >= next.0 as u64;
        if touches {
            prev.1 = prev.1.max(next.0 - prev.0 + next.1);
        }
        touches
    });
}

impl TBlock {
    /// A block of `code` over the member `entry` and the members `rest`
    /// after it, ending in `term` and depending on the bytes of
    /// `footprint`: the header takes the entry's address and length and
    /// the members' instruction count. It charges no translation cycles
    /// and ends in no `call` until those fields say otherwise.
    pub fn new(
        entry: Member,
        rest: &[Member],
        code: Vec<RInsn>,
        term: Term,
        footprint: Footprint,
    ) -> TBlock {
        TBlock {
            guest_addr: entry.addr,
            guest_len: entry.len,
            guest_insns: rest.iter().fold(entry.insns, |n, m| n + m.insns),
            code,
            translate_cycles: 0,
            term,
            is_call: false,
            rest: rest.into(),
            footprint,
        }
    }

    /// Host code size in bytes (for code-cache accounting).
    pub fn host_bytes(&self) -> u32 {
        self.code.len() as u32 * RInsn::SIZE_BYTES
    }

    /// Whether the block is a multi-member superblock region.
    pub fn is_region(&self) -> bool {
        !self.rest.is_empty()
    }

    /// The member basic blocks, in formation order: the entry (the
    /// header's address and length) first, so a plain basic block has
    /// exactly one. What the translation depends on — and so what
    /// revokes it — is [`TBlock::footprint`], not these.
    pub fn members(&self) -> impl ExactSizeIterator<Item = Member> + '_ {
        (0..self.rest.len() + 1).map(|i| match i.checked_sub(1) {
            None => Member {
                addr: self.guest_addr,
                len: self.guest_len,
                insns: self.guest_insns - self.rest.iter().map(|m| m.insns).sum::<u32>(),
            },
            Some(j) => self.rest[j],
        })
    }

    /// Guest instructions a run of this block retired, given the member
    /// boundaries it crossed: one that left through a side exit (or a
    /// firing SMC guard) after `guards_passed` boundaries ran members
    /// `0..=guards_passed` only, and a full run ran all of them. The run
    /// loop asks once per block exit; a plain block, or a full run, reads
    /// [`TBlock::guest_insns`] after one comparison.
    #[inline]
    pub fn retired(&self, guards_passed: u32) -> u64 {
        // The members after the entry that the run reached.
        let reached = guards_passed as usize;
        if reached >= self.rest.len() {
            u64::from(self.guest_insns)
        } else {
            let missed: u32 = self.rest[reached..].iter().map(|m| m.insns).sum();
            u64::from(self.guest_insns - missed)
        }
    }

    /// Guest address one past the last member block — the return address
    /// the paper's return predictor speculates for `call` regions.
    pub fn end_addr(&self) -> u32 {
        let (addr, len) =
            (self.rest.last()).map_or((self.guest_addr, self.guest_len), |m| (m.addr, m.len));
        addr.wrapping_add(len)
    }
}

/// Translation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TranslateError {
    /// Guest instruction decode failed.
    Decode(DecodeError),
    /// Code generation failed.
    Codegen(CodegenError),
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Decode(e) => write!(f, "decode: {e}"),
            TranslateError::Codegen(e) => write!(f, "codegen: {e}"),
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<DecodeError> for TranslateError {
    fn from(e: DecodeError) -> Self {
        TranslateError::Decode(e)
    }
}

impl From<CodegenError> for TranslateError {
    fn from(e: CodegenError) -> Self {
        TranslateError::Codegen(e)
    }
}

/// Translates the guest basic block at `addr` into host code.
///
/// A fresh [`Translator`] for one block; a caller translating many blocks
/// keeps one and calls [`Translator::translate_block`].
///
/// # Errors
///
/// Returns [`TranslateError`] on undecodable guest code or pathological
/// register pressure.
///
/// # Examples
///
/// ```
/// use vta_ir::{translate_block, OptLevel};
/// use vta_x86::decode::SliceSource;
/// use vta_x86::{Asm, Reg};
///
/// let mut asm = Asm::new(0x1000);
/// asm.add_ri(Reg::EAX, 1);
/// asm.hlt();
/// let p = asm.finish();
/// let b = translate_block(&SliceSource::new(p.base, &p.code), p.base, OptLevel::Full)?;
/// assert_eq!(b.guest_insns, 2);
/// # Ok::<(), vta_ir::TranslateError>(())
/// ```
pub fn translate_block<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
) -> Result<TBlock, TranslateError> {
    Translator::default().translate_block(src, addr, opt)
}

/// Translates the region at `addr` on a fresh [`Translator`]; see
/// [`Translator::translate_region`].
///
/// # Errors
///
/// As [`Translator::translate_region`].
pub fn translate_region<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
    limits: &RegionLimits,
) -> Result<TBlock, TranslateError> {
    Translator::default().translate_region(src, addr, opt, limits)
}

/// Translates the region at `addr` along `path` on a fresh
/// [`Translator`]; see [`Translator::translate_region_along`].
///
/// # Errors
///
/// As [`Translator::translate_region_along`].
pub fn translate_region_along<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
    limits: &RegionLimits,
    path: &[u32],
) -> Result<TBlock, TranslateError> {
    Translator::default().translate_region_along(src, addr, opt, limits, path)
}

/// One reusable translation context: every buffer the pipeline works in,
/// from the region's decoded instructions through its MIR and the passes
/// to the host code.
///
/// Each buffer is cleared at its first use in a translation and keeps its
/// capacity for the next, so once the buffers have grown to the blocks a
/// caller translates, the only heap memory a translation allocates is the
/// [`TBlock`] it returns: its `code`, and for a region or a footprint of
/// more than one span, the members after the entry and the spans. Nothing
/// else carries from one translation to the next: a translation is the
/// same function of the bytes it read whether the context is fresh or has
/// translated a million blocks before, and a fresh one allocates nothing.
///
/// # Examples
///
/// ```
/// use vta_ir::{translate_block, OptLevel, Translator};
/// use vta_x86::decode::SliceSource;
/// use vta_x86::{Asm, Reg};
///
/// let mut asm = Asm::new(0x1000);
/// asm.add_ri(Reg::EAX, 1);
/// asm.hlt();
/// let p = asm.finish();
/// let src = SliceSource::new(p.base, &p.code);
/// let mut t = Translator::default();
/// for opt in [OptLevel::Full, OptLevel::None, OptLevel::Full] {
///     assert_eq!(t.translate_block(&src, p.base, opt)?, translate_block(&src, p.base, opt)?);
/// }
/// # Ok::<(), vta_ir::TranslateError>(())
/// ```
#[derive(Debug, Default)]
pub struct Translator {
    /// The region's decoded guest instructions, member after member (and
    /// past the last, those of a member formation rejected).
    insns: Vec<Insn>,
    /// The region's members, in formation order.
    members: Vec<Formed>,
    /// Distinct guest pages the members span.
    pages: Vec<u32>,
    /// The flags live after each of the region's instructions, last
    /// instruction first.
    live: Vec<FlagSet>,
    /// The successor scan's memo: live-in flags per guest address scanned
    /// for this translation.
    memo: Vec<(u32, FlagSet)>,
    /// The lowered region: its MIR body, next temporary and the guest
    /// spans decoded on its behalf.
    mir: MBlock,
    /// Value propagation's fact table.
    facts: valueprop::Facts,
    codegen: crate::codegen::Context,
}

impl Translator {
    /// Translates the guest basic block at `addr` into host code.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError`] on undecodable guest code or
    /// pathological register pressure.
    pub fn translate_block<S: CodeSource + ?Sized>(
        &mut self,
        src: &S,
        addr: u32,
        opt: OptLevel,
    ) -> Result<TBlock, TranslateError> {
        self.translate(src, addr, opt, &RegionLimits::single(), None)
    }

    /// Translates a superblock region starting at `addr`: the basic
    /// block there, extended along the statically-predicted path subject
    /// to `limits`, optimized and register-allocated as one merged unit.
    ///
    /// Internal predicted-not-taken branches become [`MInsn::SideExit`]s
    /// and each member junction carries an [`MInsn::Boundary`] guard (the
    /// exit taken when self-modifying code is detected mid-region). Like
    /// [`Translator::translate_block`], the result is a pure function of
    /// the bytes fetched through `src`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError`] on undecodable guest code at the entry
    /// block or pathological register pressure. Decode failures while
    /// *extending* are not errors — the region simply stops growing; a
    /// merged region that exceeds the host register file
    /// deterministically falls back to the single-block translation.
    pub fn translate_region<S: CodeSource + ?Sized>(
        &mut self,
        src: &S,
        addr: u32,
        opt: OptLevel,
        limits: &RegionLimits,
    ) -> Result<TBlock, TranslateError> {
        self.translate(src, addr, opt, limits, None)
    }

    /// Translates a superblock region starting at `addr` along an
    /// explicitly *recorded* successor path instead of the static
    /// prediction: `path` holds the successor the recording pass observed
    /// at each block exit, in execution order — one entry per junction.
    /// The entry at an unconditional goto is redundant but still
    /// validated, so a recording taken against different resident code
    /// cannot splice a wrong member.
    ///
    /// Formation stops at the first junction where the recorded successor
    /// no longer matches the decoded terminator (a gap in the recording),
    /// at a revisited member (the loop-closing backedge), when the path
    /// runs out, or at the usual `limits` caps. Indirect junctions become
    /// [`MInsn::IndirectGuard`]s: the region continues into the recorded
    /// target and falls back to dispatch when the computed target
    /// differs. Like [`Translator::translate_region`], the result is a
    /// pure function of `path` and the bytes fetched through `src`.
    ///
    /// # Errors
    ///
    /// Returns [`TranslateError`] on undecodable guest code at the entry
    /// block or pathological register pressure (with the same
    /// deterministic single-block fallback as
    /// [`Translator::translate_region`]).
    pub fn translate_region_along<S: CodeSource + ?Sized>(
        &mut self,
        src: &S,
        addr: u32,
        opt: OptLevel,
        limits: &RegionLimits,
        path: &[u32],
    ) -> Result<TBlock, TranslateError> {
        self.translate(src, addr, opt, limits, Some(path))
    }

    /// Forms the region at `addr`, then lowers, optimizes,
    /// register-allocates and code-generates it.
    fn translate<S: CodeSource + ?Sized>(
        &mut self,
        src: &S,
        addr: u32,
        opt: OptLevel,
        limits: &RegionLimits,
        path: Option<&[u32]>,
    ) -> Result<TBlock, TranslateError> {
        self.mir.reads.clear();
        self.form_region(src, addr, limits, path)?;
        loop {
            self.lower(src, opt);
            if opt == OptLevel::Full {
                valueprop::propagate(&mut self.mir, &mut self.facts);
            }
            match codegen(&self.mir, opt, &mut self.codegen) {
                Ok(()) => break,
                // A merged region can exceed the host temp pool even when
                // each member fits alone. Deterministic fallback —
                // identical whether the translation runs in the system or
                // in the fuzz oracle — keeps memoized reuse bit-exact. The
                // single block stands on the abandoned region's bytes too
                // (its reads stay): other bytes there and the region might
                // have fitted.
                Err(RegisterPressure) if self.members.len() > 1 => self.members.truncate(1),
                Err(RegisterPressure) => {
                    return Err(CodegenError::RegisterPressure { guest_addr: addr }.into())
                }
            }
        }
        let (members, insns) = (&self.members, &self.insns);
        let entry = members[0];
        let guest_insns = members.last().expect("the entry is a member").end as u32;
        // Canonical in the reused buffer, so the copy is exact.
        normalize(&mut self.mir.reads);
        let mut footprint = Footprint {
            spans: Spans::of(&self.mir.reads),
            read: None,
        };
        if cfg!(debug_assertions) {
            footprint.read = NonZeroU64::new(footprint.digest(src));
        }
        Ok(TBlock {
            guest_addr: entry.addr,
            guest_len: entry.len,
            guest_insns,
            translate_cycles: guest_insns as u64 * opt.cycles_per_guest_insn(),
            term: self.mir.term,
            is_call: matches!(insns[guest_insns as usize - 1].op, Op::Call | Op::CallInd),
            code: self.codegen.code().to_vec(),
            rest: members[1..]
                .iter()
                .map(|m| Member {
                    addr: m.addr,
                    len: m.len,
                    insns: (m.end - m.start) as u32,
                })
                .collect(),
            footprint,
        })
    }

    /// Decodes the entry block at `addr` and extends the region member by
    /// member: along the recorded successor `path` (one entry per
    /// junction) when there is one, along the static prediction otherwise.
    /// See [`Translator::translate_region`] and
    /// [`Translator::translate_region_along`] for the stop rules. Every
    /// span decoded is added to the reads.
    fn form_region<S: CodeSource + ?Sized>(
        &mut self,
        src: &S,
        addr: u32,
        limits: &RegionLimits,
        path: Option<&[u32]>,
    ) -> Result<(), DecodeError> {
        let Translator {
            insns,
            members,
            pages,
            mir,
            ..
        } = self;
        let reads = &mut mir.reads;
        insns.clear();
        members.clear();
        pages.clear();
        let (len, term) = decode_member(src, addr, insns, reads)?;
        members.push(Formed {
            addr,
            len,
            start: 0,
            end: insns.len(),
            term,
            junction: None,
        });
        if limits.max_blocks > 1 {
            pages.extend(pages_of(addr, len));
        }
        let mut path = path.map(|p| p.iter().copied());
        loop {
            let last = *members.last().expect("the entry is a member");
            if members.len() as u32 >= limits.max_blocks || last.end as u32 >= limits.max_insns {
                break;
            }
            let chosen = match &mut path {
                Some(path) => path.next().and_then(|next| recorded(&last.term, next)),
                None => predicted(&last.term, members),
            };
            let Some((next, junction)) = chosen else {
                break;
            };
            // Never re-enter a member: loops close through dispatch (which
            // chains back to the region entry), not by unrolling — a
            // recording ends at the loop-closing backedge for the same
            // reason.
            if members.iter().any(|m| m.addr == next) {
                break;
            }
            // The next member is decoded after the last; one that does
            // not join is never lowered. Its reads stay, because whether
            // it joins was read off its bytes.
            let Ok((len, term)) = decode_member(src, next, insns, reads) else {
                // A decode failure on the chosen path is not an error —
                // the region just stops before it.
                note_read(reads, next, MAX_INSN_LEN);
                break;
            };
            if insns.len() as u32 > limits.max_insns {
                break;
            }
            for p in pages_of(next, len) {
                if !pages.contains(&p) {
                    pages.push(p);
                }
            }
            if pages.len() as u32 > limits.max_pages {
                break;
            }
            members.push(Formed {
                addr: next,
                len,
                start: last.end,
                end: insns.len(),
                term,
                junction: Some(junction),
            });
        }
        Ok(())
    }

    /// Computes the flags live after each instruction of the formed region
    /// — scanning the successors at [`OptLevel::Full`], taking every flag
    /// as live wherever the region exits at [`OptLevel::None`] — and
    /// lowers the members, with their junctions, into the MIR buffer.
    fn lower<S: CodeSource + ?Sized>(&mut self, src: &S, opt: OptLevel) {
        let Translator {
            insns,
            members,
            live,
            memo,
            mir: region,
            ..
        } = self;
        match opt {
            OptLevel::Full => {
                memo.clear();
                let reads = &mut region.reads;
                let exit = |at| flags::live_in_at(src, at, memo, reads);
                flags::live_after(insns, members, exit, live);
            }
            OptLevel::None => flags::live_after(insns, members, |_| FlagSet::ALL, live),
        }
        region.insns.clear();
        region.next_temp = VReg::FIRST_TEMP;
        let n = members.last().expect("the entry is a member").end;
        let mut term = Term::Halt;
        for m in members.iter() {
            if let Some(junction) = m.junction {
                match junction {
                    Junction::Plain => {}
                    Junction::Side(cond, target) => {
                        region.insns.push(MInsn::SideExit { cond, target });
                    }
                    Junction::Guard => {
                        let Term::Indirect(reg) = term else {
                            unreachable!("a guard follows an indirect exit");
                        };
                        region.insns.push(MInsn::IndirectGuard {
                            reg,
                            expected: m.addr,
                        });
                    }
                }
                region.insns.push(MInsn::Boundary { resume: m.addr });
            }
            let masks = &live[n - m.end..n - m.start];
            term = lower_member(&insns[m.start..m.end], masks, m.term, region);
        }
        region.term = term;
    }
}

/// Decodes the guest basic block at `addr` onto the end of `insns`: up to
/// and including its first block-ending instruction
/// ([`Op::is_block_end`]), at most [`MAX_BLOCK_INSNS`] instructions, or up
/// to bytes that do not decode. Returns its length in bytes and how it
/// ends ([`term_of`]), and notes the span decoded in `reads`. Only a
/// decode failure at its first instruction is an error, and then nothing
/// is decoded.
fn decode_member<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    insns: &mut Vec<Insn>,
    reads: &mut Vec<(u32, u32)>,
) -> Result<(u32, Term), DecodeError> {
    let start = insns.len();
    let mut pc = addr;
    // What a decode that fails mid-block may have fetched.
    let mut failed_fetch = 0;
    let term = loop {
        let insn = match decode(src, pc) {
            Ok(insn) => insn,
            Err(e) if insns.len() == start => return Err(e),
            // After a decodable prefix the block must still execute that
            // prefix: the reference interpreter faults instruction by
            // instruction, so earlier instructions run (and may fault
            // first, e.g. on an unmapped store) before the undecodable
            // bytes are ever reached.
            Err(_) => {
                failed_fetch = MAX_INSN_LEN;
                break Term::Trap(TrapCause::Undecodable { addr: pc });
            }
        };
        insns.push(insn);
        pc = insn.next_addr();
        if insn.op.is_block_end() || insns.len() - start == MAX_BLOCK_INSNS as usize {
            break term_of(&insn);
        }
    };
    // The instructions are back to back, so they are one span.
    note_read(reads, addr, pc.wrapping_sub(addr) + failed_fetch);
    Ok((pc.wrapping_sub(addr), term))
}

/// One member basic block of the region being formed, as decoded.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Formed {
    /// Guest address.
    pub addr: u32,
    /// Bytes of guest code covered.
    pub len: u32,
    /// Its instructions are `start..end` of the translator's decoded
    /// instructions; it starts where the previous member ends.
    pub start: usize,
    /// See `start`.
    pub end: usize,
    /// How it ends, as decoded ([`term_of`]).
    pub term: Term,
    /// What the junction into it carries besides its [`MInsn::Boundary`]
    /// guard; `None` for the entry, which has no junction.
    pub junction: Option<Junction>,
}

/// Distinct 4 KiB guest pages the byte range `[addr, addr + len)` spans.
fn pages_of(addr: u32, len: u32) -> impl Iterator<Item = u32> {
    (addr >> 12)..=(addr.saturating_add(len.max(1) - 1) >> 12)
}

/// What the junction into a member carries besides its
/// [`MInsn::Boundary`] guard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Junction {
    /// Unconditional: the boundary guard alone.
    Plain,
    /// Conditional: a side exit for the arm not followed.
    Side(Cond, u32),
    /// Indirect: a guard comparing the computed target register (the
    /// previous member's) against the recorded successor.
    Guard,
}

/// The static predictor's next member after a block ending in `term`:
/// fall-through, or the paper's backward-taken/forward-not-taken rule.
/// `members` is the member list so far, last entry the current member.
fn predicted(term: &Term, members: &[Formed]) -> Option<(u32, Junction)> {
    match *term {
        Term::Goto(t) => Some((t, Junction::Plain)),
        Term::CondGoto { cond, taken, fall } => {
            let member_addr = members.last().expect("nonempty").addr;
            let closes_loop = taken <= member_addr && members.iter().any(|m| m.addr == taken);
            Some(if closes_loop {
                // Backward branch into this region: the trace's own
                // loop closing. Predict taken; the re-entry check in
                // `form_region` then ends the region at the backedge.
                (taken, Junction::Side(cond.negate(), fall))
            } else {
                // Forward branch, or a backward branch *leaving* the
                // region (e.g. a rarely-taken guard into earlier
                // cold code): predict not taken, side-exit to the
                // taken arm. Following backward edges out of the
                // trace is how cold-guard regions end up side-
                // exiting on nearly every entry.
                (fall, Junction::Side(cond, taken))
            })
        }
        // Indirect, syscall, trap and halt all end the region.
        _ => None,
    }
}

/// Validates the recorded successor `next` against the decoded
/// terminator. A mismatch is not an error: recordings can have gaps
/// (e.g. an already-resident superblock ran several blocks between two
/// recorded exits), and the region simply ends at the gap.
fn recorded(term: &Term, next: u32) -> Option<(u32, Junction)> {
    match *term {
        Term::Goto(t) => (next == t).then_some((t, Junction::Plain)),
        Term::CondGoto { cond, taken, fall } => {
            if next == taken {
                Some((taken, Junction::Side(cond.negate(), fall)))
            } else if next == fall {
                Some((fall, Junction::Side(cond, taken)))
            } else {
                None
            }
        }
        // The whole point of recording: the observed target of an
        // indirect terminator extends the region through it.
        Term::Indirect(_) => Some((next, Junction::Guard)),
        // Syscall, trap and halt still end the region.
        _ => None,
    }
}

/// The guest basic block at `addr`, lowered at `opt` but not optimized:
/// what the passes start from.
#[cfg(test)]
pub(crate) fn lower_block<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
) -> Result<MBlock, DecodeError> {
    let mut t = Translator::default();
    t.form_region(src, addr, &RegionLimits::single(), None)?;
    t.lower(src, opt);
    Ok(t.mir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::decode::SliceSource;
    use vta_x86::{Asm, Reg::*};

    /// A run that passed `g` member boundaries retired members `0..=g`;
    /// one that passed them all, every member.
    #[test]
    fn retired_counts_the_members_a_run_reached() {
        let member = |addr, insns| Member {
            addr,
            len: 4 * insns,
            insns,
        };
        let block = |rest: &[Member]| {
            let b = TBlock::new(
                member(0x1000, 2),
                rest,
                Vec::new(),
                Term::Halt,
                Footprint::default(),
            );
            assert_eq!(members(&b)[1..], *rest, "the entry first, then the rest");
            b
        };
        let b = block(&[member(0x2000, 3), member(0x3000, 4)]);
        assert!(b.is_region());
        assert_eq!((b.guest_addr, b.guest_len, b.guest_insns), (0x1000, 8, 9));
        assert_eq!(members(&b)[0], member(0x1000, 2));
        assert_eq!(
            [0, 1, 2, 3, u32::MAX].map(|g| b.retired(g)),
            [2, 5, 9, 9, 9]
        );
        assert_eq!(b.end_addr(), 0x3010, "the last member's end");
        let plain = block(&[]);
        assert!(!plain.is_region());
        assert_eq!(members(&plain), [member(0x1000, 2)]);
        assert_eq!([0, u32::MAX].map(|g| plain.retired(g)), [2, 2]);
        assert_eq!(plain.end_addr(), 0x1008, "the entry's end");
    }

    /// `b`'s members, entry first.
    fn members(b: &TBlock) -> Vec<Member> {
        b.members().collect()
    }

    /// `TBlock`s cross host threads through the sweep's shared memo.
    #[test]
    fn translation_artifacts_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TBlock>();
        assert_send_sync::<TranslateError>();
    }

    #[test]
    fn footprint_is_sorted_merged_and_split_at_4_gib() {
        // Out of order, overlapping, touching, empty, and one span that
        // runs 4 bytes past 2^32 (it continues at address 0).
        let f = Footprint::new(vec![
            (0x2000, 8),
            (0x1FFE, 2),
            (0x2004, 0x10),
            (0x5000, 0),
            (0xFFFF_FFFA, 10),
            (0x3000, 1),
        ]);
        assert_eq!(
            f.spans(),
            [(0, 4), (0x1FFE, 0x16), (0x3000, 1), (0xFFFF_FFFA, 6)]
        );
        for (addr, inside) in [
            (0, true),
            (3, true),
            (4, false),
            (0x1FFD, false),
            (0x1FFE, true),
            (0x2013, true),
            (0x2014, false),
            (0x3000, true),
            (0x5000, false),
            (0xFFFF_FFF9, false),
            (0xFFFF_FFFF, true),
        ] {
            assert_eq!(f.covers(addr), inside, "{addr:#x}");
        }
        // Pages ascend and come once each, however many spans share one.
        assert_eq!(f.pages().collect::<Vec<_>>(), [0, 1, 2, 3, 0xF_FFFF]);
        assert_eq!(Footprint::default().pages().count(), 0);
        assert!(!Footprint::default().covers(0));
    }

    #[test]
    fn footprint_covers_successor_scan_and_failed_decodes() {
        // Flag liveness scans the jump target; its bytes are in the
        // footprint though they are past `guest_len`, the bytes jumped
        // over are not.
        let mut asm = Asm::new(0x1000);
        asm.add_ri(EAX, 1); // defines flags
        let l = asm.label();
        asm.jmp(l);
        asm.raw(&[0x90; 0x20]);
        asm.bind(l);
        asm.and_rr(EAX, EAX); // kills every flag: the scan stops here
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let block = translate_block(&src, p.base, OptLevel::Full).expect("translates");
        let target = p.base + block.guest_len + 0x20;
        assert_eq!(
            block.footprint.spans(),
            [(p.base, block.guest_len), (target, 2)]
        );
        // Without the scan the block stands on its own bytes alone.
        let none = translate_block(&src, p.base, OptLevel::None).expect("translates");
        assert_eq!(none.footprint.spans(), [(p.base, none.guest_len)]);

        // A block cut short by bytes that do not decode depends on
        // whatever the failed decode may have fetched.
        let bytes = [0x40, 0xB8, 0x01, 0x00]; // inc eax; truncated mov eax, imm32
        let src = SliceSource::new(0x1000, &bytes);
        let cut = translate_block(&src, 0x1000, OptLevel::Full).expect("prefix translates");
        assert_eq!(cut.guest_len, 1);
        assert_eq!(cut.footprint.spans(), [(0x1000, 1 + MAX_INSN_LEN)]);
    }

    fn translate(opt: OptLevel, f: impl FnOnce(&mut Asm)) -> TBlock {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let p = asm.finish();
        translate_block(&SliceSource::new(p.base, &p.code), p.base, opt).expect("translates")
    }

    #[test]
    fn optimization_shrinks_code() {
        let body = |a: &mut Asm| {
            a.mov_ri(EAX, 6);
            a.mov_ri(ECX, 7);
            a.imul_rr(EAX, ECX);
            a.add_ri(EAX, 0x100);
            let l = a.label();
            a.jmp(l);
            a.bind(l);
            a.and_rr(EAX, EAX);
            a.hlt();
        };
        let full = translate(OptLevel::Full, body);
        let none = translate(OptLevel::None, body);
        assert!(
            full.code.len() < none.code.len(),
            "optimized {} vs unoptimized {}",
            full.code.len(),
            none.code.len()
        );
    }

    #[test]
    fn optimization_costs_more_to_run() {
        let t = |o: OptLevel| {
            translate(o, |a| {
                a.add_rr(EAX, EBX);
                a.ret();
            })
        };
        assert!(t(OptLevel::Full).translate_cycles > t(OptLevel::None).translate_cycles);
    }

    #[test]
    fn covers_guest_bytes() {
        let b = translate(OptLevel::Full, |a| {
            a.mov_ri(EAX, 1); // 5 bytes
            a.ret(); // 1 byte
        });
        assert_eq!(b.guest_len, 6);
        assert_eq!(b.guest_insns, 2);
        assert!(b.host_bytes() >= 4);
    }

    #[test]
    fn decode_error_propagates() {
        let bytes = [0x0F, 0x31]; // rdtsc: unsupported
        let r = translate_block(&SliceSource::new(0, &bytes), 0, OptLevel::Full);
        assert!(matches!(r, Err(TranslateError::Decode(_))));
    }

    fn region(opt: OptLevel, limits: &RegionLimits, f: impl FnOnce(&mut Asm)) -> TBlock {
        let mut asm = Asm::new(0x1000);
        f(&mut asm);
        let p = asm.finish();
        translate_region(&SliceSource::new(p.base, &p.code), p.base, opt, limits)
            .expect("translates")
    }

    #[test]
    fn region_extends_through_predicted_path() {
        // A: jmp C   B: add eax,1; hlt   C: sub eax,1; jnz B   D: hlt
        // The backward branch at C leaves the region (B is not a
        // member), so formation predicts it not taken and continues
        // through the fall-through D.
        let b = region(OptLevel::Full, &RegionLimits::default(), |a| {
            let lb = a.label();
            let lc = a.label();
            a.jmp(lc);
            a.bind(lb);
            a.add_ri(EAX, 1);
            a.hlt();
            a.bind(lc);
            a.sub_ri(EAX, 1);
            a.jcc(vta_x86::Cond::Ne, lb);
            a.add_ri(EAX, 7);
            a.hlt();
        });
        // Formation order: A (goto C), C (side exit to B), D (halt).
        assert_eq!(members(&b).len(), 3, "members: {:?}", members(&b));
        assert_eq!(members(&b)[0].addr, 0x1000);
        assert!(
            members(&b)[2].addr > members(&b)[1].addr,
            "D after C: {:?}",
            members(&b)
        );
        assert_eq!(b.term, Term::Halt);
        assert_eq!(
            b.end_addr(),
            members(&b)[2].addr + members(&b)[2].len,
            "end_addr is the last member's end"
        );
        // Each junction carries an SMC guard; the conditional junction
        // also carries a side exit (a host branch to a guest target that
        // is not the terminator's).
        let guards = b
            .code
            .iter()
            .filter(|i| matches!(i, RInsn::SmcGuard { .. }))
            .count();
        assert_eq!(guards, 2, "one guard per junction");
    }

    #[test]
    fn region_stops_at_indirect_and_revisit() {
        // `ret` ends the region immediately.
        let b = region(OptLevel::Full, &RegionLimits::default(), |a| {
            a.add_ri(EAX, 1);
            a.ret();
        });
        assert_eq!(members(&b).len(), 1);
        // A self-loop closes through dispatch, not by unrolling.
        let b = region(OptLevel::Full, &RegionLimits::default(), |a| {
            let top = a.label();
            a.bind(top);
            a.add_ri(EAX, 1);
            a.jmp(top);
        });
        assert_eq!(members(&b).len(), 1);
        assert_eq!(b.term, Term::Goto(0x1000));
    }

    #[test]
    fn single_limits_match_translate_block() {
        let body = |a: &mut Asm| {
            a.mov_ri(EAX, 3);
            let l = a.label();
            a.jmp(l);
            a.bind(l);
            a.add_ri(EAX, 1);
            a.hlt();
        };
        let mut asm = Asm::new(0x1000);
        body(&mut asm);
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let single =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::single()).unwrap();
        let plain = translate_block(&src, p.base, OptLevel::Full).unwrap();
        assert_eq!(single, plain);
        assert_eq!(
            *members(&single),
            [Member {
                addr: p.base,
                len: single.guest_len,
                insns: single.guest_insns
            }]
        );
        // With formation enabled the same code merges into one region.
        let merged =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::default()).unwrap();
        assert_eq!(members(&merged).len(), 2);
        assert_eq!(merged.guest_insns, 4);
    }

    #[test]
    fn region_respects_block_cap() {
        // A long fall-through chain of tiny blocks; cap at 3 members.
        let limits = RegionLimits {
            max_blocks: 3,
            ..RegionLimits::default()
        };
        let b = region(OptLevel::Full, &limits, |a| {
            for _ in 0..6 {
                let l = a.label();
                a.add_ri(EAX, 1);
                a.jmp(l);
                a.bind(l);
            }
            a.hlt();
        });
        assert_eq!(members(&b).len(), 3);
        assert!(matches!(b.term, Term::Goto(_)));
    }

    #[test]
    fn recorded_path_follows_the_taken_arm() {
        // sub eax,1; jne C; [fall B: add eax,2; hlt]; C: add eax,7; hlt
        // Static prediction follows the fall-through; a recording that
        // observed the taken arm extends the region into C instead.
        let mut asm = Asm::new(0x1000);
        let lc = asm.label();
        asm.sub_ri(EAX, 1);
        asm.jcc(vta_x86::Cond::Ne, lc);
        asm.add_ri(EAX, 2);
        asm.hlt();
        asm.bind(lc);
        asm.add_ri(EAX, 7);
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let single = translate_block(&src, p.base, OptLevel::Full).unwrap();
        let Term::CondGoto { taken, fall, .. } = single.term else {
            panic!("expected conditional terminator, got {:?}", single.term);
        };
        let stat =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::default()).unwrap();
        assert_eq!(
            members(&stat)[1].addr,
            fall,
            "static prediction falls through"
        );
        let rec = translate_region_along(
            &src,
            p.base,
            OptLevel::Full,
            &RegionLimits::default(),
            &[taken],
        )
        .unwrap();
        assert_eq!(members(&rec).len(), 2, "members: {:?}", members(&rec));
        assert_eq!(
            members(&rec)[1].addr,
            taken,
            "recorded path takes the branch"
        );
        assert_ne!(rec, stat);
    }

    #[test]
    fn recorded_path_crosses_an_indirect() {
        // add eax,1; ret; C: add eax,7; hlt — the recording observed the
        // return going to C, so the region extends through the indirect
        // with a guard that falls back to dispatch on any other target.
        let mut asm = Asm::new(0x1000);
        asm.add_ri(EAX, 1);
        asm.ret();
        asm.add_ri(EAX, 7);
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let single = translate_block(&src, p.base, OptLevel::Full).unwrap();
        assert!(matches!(single.term, Term::Indirect(_)));
        let c = single.end_addr();
        let rec =
            translate_region_along(&src, p.base, OptLevel::Full, &RegionLimits::default(), &[c])
                .unwrap();
        assert_eq!(members(&rec).len(), 2, "members: {:?}", members(&rec));
        assert_eq!(members(&rec)[1].addr, c);
        assert_eq!(rec.term, Term::Halt, "region ends at the member's halt");
        // Exactly one mid-region dispatch (the guard's mismatch path) and
        // one SMC guard (the junction boundary).
        let dispatches = rec
            .code
            .iter()
            .filter(|i| matches!(i, RInsn::Dispatch { .. }))
            .count();
        assert_eq!(dispatches, 1, "guard keeps a dispatch for mismatches");
        let guards = rec
            .code
            .iter()
            .filter(|i| matches!(i, RInsn::SmcGuard { .. }))
            .count();
        assert_eq!(guards, 1);
        // The static formation cannot cross the indirect at all.
        let stat =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::default()).unwrap();
        assert_eq!(members(&stat).len(), 1);
    }

    #[test]
    fn recorded_path_mismatch_stops_growth() {
        // jmp C; C: add eax,1; hlt — a recorded successor that matches
        // neither arm of the junction ends the region (a recording gap),
        // and an empty recording is just the single block.
        let mut asm = Asm::new(0x1000);
        let lc = asm.label();
        asm.jmp(lc);
        asm.bind(lc);
        asm.add_ri(EAX, 1);
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let bogus = translate_region_along(
            &src,
            p.base,
            OptLevel::Full,
            &RegionLimits::default(),
            &[0xDEAD_0000],
        )
        .unwrap();
        assert_eq!(members(&bogus).len(), 1, "mismatch must stop formation");
        let empty =
            translate_region_along(&src, p.base, OptLevel::Full, &RegionLimits::default(), &[])
                .unwrap();
        assert_eq!(
            empty,
            translate_block(&src, p.base, OptLevel::Full).unwrap()
        );
    }

    #[test]
    fn recorded_path_matching_static_prediction_is_identical() {
        // Same program as region_extends_through_predicted_path: when the
        // recording agrees with the static prediction at every junction,
        // the formed region is bit-identical to the static one.
        let mut asm = Asm::new(0x1000);
        let lb = asm.label();
        let lc = asm.label();
        asm.jmp(lc);
        asm.bind(lb);
        asm.add_ri(EAX, 1);
        asm.hlt();
        asm.bind(lc);
        asm.sub_ri(EAX, 1);
        asm.jcc(vta_x86::Cond::Ne, lb);
        asm.add_ri(EAX, 7);
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let stat =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::default()).unwrap();
        assert_eq!(members(&stat).len(), 3);
        let path = [members(&stat)[1].addr, members(&stat)[2].addr];
        let rec = translate_region_along(
            &src,
            p.base,
            OptLevel::Full,
            &RegionLimits::default(),
            &path,
        )
        .unwrap();
        assert_eq!(rec, stat);
    }

    #[test]
    fn recorded_path_closes_at_the_backedge() {
        // top: sub eax,1; jne top — the recording ends where the path
        // would re-enter the region root; the revisit rule ends it there
        // even if the recorded path claims otherwise.
        let mut asm = Asm::new(0x1000);
        let top = asm.label();
        asm.bind(top);
        asm.sub_ri(EAX, 1);
        asm.jcc(vta_x86::Cond::Ne, top);
        asm.hlt();
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let rec = translate_region_along(
            &src,
            p.base,
            OptLevel::Full,
            &RegionLimits::default(),
            &[p.base, p.base],
        )
        .unwrap();
        assert_eq!(members(&rec).len(), 1, "loop closes through dispatch");
    }

    #[test]
    fn cross_member_optimization_pays_off() {
        // The constant loaded in the first member folds into the second;
        // the merged region must beat two single blocks on host size.
        let body = |a: &mut Asm| {
            a.mov_ri(EAX, 6);
            let l = a.label();
            a.jmp(l);
            a.bind(l);
            a.add_ri(EAX, 7);
            a.imul_rr(EAX, EAX);
            a.hlt();
        };
        let mut asm = Asm::new(0x1000);
        body(&mut asm);
        let p = asm.finish();
        let src = SliceSource::new(p.base, &p.code);
        let merged =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::default()).unwrap();
        let first = translate_block(&src, p.base, OptLevel::Full).unwrap();
        let second = translate_block(&src, members(&merged)[1].addr, OptLevel::Full).unwrap();
        assert!(
            merged.code.len() < first.code.len() + second.code.len(),
            "merged {} vs split {}+{}",
            merged.code.len(),
            first.code.len(),
            second.code.len()
        );
    }

    /// Every temporary of `b` is defined once, and never read before
    /// its definition: what codegen's backward walk relies on to call a
    /// temporary live exactly when a later read has been seen.
    fn assert_single_definition(b: &MBlock, pc: u32) {
        let mut defined = vec![false; b.next_temp as usize];
        for insn in &b.insns {
            insn.for_each_use(|v| {
                if let crate::mir::Val::Reg(r) = v {
                    assert!(
                        r.is_guest_state() || defined[r.0 as usize],
                        "{pc:#x}: {r} read before its definition in {insn:?}"
                    );
                }
            });
            if let Some(d) = insn.def().filter(|d| !d.is_guest_state()) {
                assert!(!defined[d.0 as usize], "{pc:#x}: {d} defined twice");
                defined[d.0 as usize] = true;
            }
        }
        if let Term::Indirect(r) = b.term {
            assert!(r.is_guest_state() || defined[r.0 as usize], "{pc:#x}: {r}");
        }
    }

    #[test]
    fn lowering_emits_only_the_flags_a_reader_can_see() {
        // Every block leader of the guests a cold translation benchmark
        // runs, each single block at Full: lowered, before any pass, a
        // block averages at most 16 MIR instructions. Lowering every flag
        // an instruction writes comes to 36 a block, 24 of them FlagDefs.
        // Each lowered block also defines every temporary once, before
        // any read.
        let (mut blocks, mut lowered) = (0, 0);
        for name in ["gcc", "vpr", "crafty", "vortex"] {
            let w = vta_workloads::by_name(name, vta_workloads::Scale::Test).expect("a guest");
            let mut leaders = vta_x86::Leaders::default();
            leaders.0.insert(w.image.entry);
            vta_x86::Cpu::new(&w.image)
                .run_observed(u64::MAX, &mut leaders)
                .expect("the guest runs");
            let mem = w.image.build_mem();
            for pc in leaders.0 {
                if let Ok(b) = lower_block(&mem, pc, OptLevel::Full) {
                    blocks += 1;
                    lowered += b.insns.len();
                    assert_single_definition(&b, pc);
                }
            }
        }
        let mean = lowered as f64 / blocks as f64;
        assert!(blocks > 10_000, "{blocks} blocks");
        assert!(mean <= 16.0, "{mean:.2} MIR instructions lowered a block");
    }
}
