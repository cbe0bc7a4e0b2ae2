//! The translation pipeline driver: decode → lower → optimize → codegen.
//!
//! The whole pipeline is a *pure* function of the bytes it fetches through
//! [`CodeSource`]: no globals, no randomness, no iteration over unordered
//! containers. That purity is what makes a translation reusable: a block
//! produced earlier, or by another sweep cell, is bit-identical to one
//! produced now, *provided every byte the translation read still holds
//! the same value*. The translator is the one place that knows which
//! bytes those are — the optimizer scans guest code far beyond the
//! translated block (the dead-flags pass follows successors) — so it says
//! so: every decode it makes is noted on the [`MBlock`] and folded into
//! [`TBlock::footprint`], which SMC revocation, the sweep memo and the
//! fuzz oracle all read. Nothing wraps the [`CodeSource`]; nothing runs
//! per fetched byte.

use std::sync::Arc;

use vta_raw::isa::RInsn;
use vta_x86::decode::{CodeSource, DecodeError, MAX_INSN_LEN};
use vta_x86::Cond;

use crate::codegen::{codegen, CodegenError};
use crate::lower::{lower_block, lower_member, MAX_BLOCK_INSNS};
use crate::mir::{note_read, MBlock, MInsn, Term, VReg, Val};
use crate::opt;

/// Translation effort (Figure 8 compares the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptLevel {
    /// Baseline translation only: dead-flag elimination (which the paper
    /// counts as part of the core translator, §4.5) but no further passes.
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
    pub fn cycles_per_guest_insn(self) -> u64 {
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
    /// Guest address this block translates.
    pub guest_addr: u32,
    /// Bytes of guest code covered by the entry member block.
    pub guest_len: u32,
    /// Guest instructions covered (all members).
    pub guest_insns: u32,
    /// The host code.
    pub code: Vec<RInsn>,
    /// Slave-tile cycles the translation cost.
    pub translate_cycles: u64,
    /// The block's terminator (drives speculation on successors).
    pub term: Term,
    /// Whether the block ends in a guest `call` (return predictor).
    pub is_call: bool,
    /// Guest `(addr, len)` of each member basic block, in formation
    /// order. A plain basic block has exactly one entry, equal to
    /// `(guest_addr, guest_len)`. What the translation depends on — and
    /// so what revokes it — is [`TBlock::footprint`], not these.
    pub ranges: Vec<(u32, u32)>,
    /// Guest instructions per member, parallel to `ranges`. Lets the
    /// executor attribute the exact retired-instruction count when a
    /// region leaves through a side exit or SMC guard (the members past
    /// the exit never ran).
    pub member_insns: Vec<u32>,
    /// Every guest byte this translation depended on: the members'
    /// instructions, the successor code the flag-liveness scan decoded,
    /// and the most any failed decode can have fetched. While these
    /// bytes are unchanged a fresh translation is bit-identical; a store
    /// into any of them makes this one stale.
    pub footprint: Footprint,
}

/// A set of guest bytes as sorted `(start, len)` spans that neither
/// overlap, touch, are empty nor run past 2^32.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Footprint {
    spans: Vec<(u32, u32)>,
}

impl Footprint {
    /// The set of bytes in `spans`, given in any order; a span reaching
    /// past 2^32 wraps to address 0, as instruction fetch does.
    pub fn new(mut spans: Vec<(u32, u32)>) -> Footprint {
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
        Footprint { spans }
    }

    /// The spans, ascending.
    pub fn spans(&self) -> &[(u32, u32)] {
        &self.spans
    }

    /// Whether `addr` is one of the bytes.
    pub fn covers(&self, addr: u32) -> bool {
        let after = self.spans.partition_point(|&(start, _)| start <= addr);
        after > 0 && addr - self.spans[after - 1].0 < self.spans[after - 1].1
    }

    /// The 4 KiB guest pages holding any of the bytes, ascending, each
    /// once.
    pub fn pages(&self) -> impl Iterator<Item = u32> + '_ {
        let mut unseen = 0;
        self.spans.iter().flat_map(move |&(start, len)| {
            let first = (start >> 12).max(unseen);
            unseen = ((start + (len - 1)) >> 12) + 1;
            first..unseen
        })
    }
}

impl TBlock {
    /// Host code size in bytes (for code-cache accounting).
    pub fn host_bytes(&self) -> u32 {
        self.code.len() as u32 * RInsn::SIZE_BYTES
    }

    /// Guest address one past the last member block — the return address
    /// the paper's return predictor speculates for `call` regions.
    pub fn end_addr(&self) -> u32 {
        match self.ranges.last() {
            Some(&(a, l)) => a.wrapping_add(l),
            None => self.guest_addr.wrapping_add(self.guest_len),
        }
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
    translate_region(src, addr, opt, &RegionLimits::single())
}

/// Translates a superblock region starting at `addr`: the basic block
/// there, extended along the statically-predicted path subject to
/// `limits`, optimized and register-allocated as one merged unit.
///
/// Internal predicted-not-taken branches become [`MInsn::SideExit`]s and
/// each member junction carries an [`MInsn::Boundary`] guard (the exit
/// taken when self-modifying code is detected mid-region). Like
/// [`translate_block`], the result is a pure function of the bytes
/// fetched through `src`.
///
/// # Errors
///
/// Returns [`TranslateError`] on undecodable guest code at the entry
/// block or pathological register pressure. Decode failures while
/// *extending* are not errors — the region simply stops growing; a
/// merged region that exceeds the host register file deterministically
/// falls back to the single-block translation.
pub fn translate_region<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
    limits: &RegionLimits,
) -> Result<TBlock, TranslateError> {
    translate_formed(src, addr, opt, limits, None)
}

/// Translates a superblock region starting at `addr` along an explicitly
/// *recorded* successor path instead of the static prediction: `path`
/// holds the successor the recording pass observed at each block exit,
/// in execution order — one entry per junction. The entry at an
/// unconditional goto is redundant but still validated, so a recording
/// taken against different resident code cannot splice a wrong member.
///
/// Formation stops at the first junction where the recorded successor no
/// longer matches the decoded terminator (a gap in the recording), at a
/// revisited member (the loop-closing backedge), when the path runs out,
/// or at the usual `limits` caps. Indirect junctions become
/// [`MInsn::IndirectGuard`]s: the region continues into the recorded
/// target and falls back to dispatch when the computed target differs.
/// Like [`translate_region`], the result is a pure function of `path`
/// and the bytes fetched through `src`.
///
/// # Errors
///
/// Returns [`TranslateError`] on undecodable guest code at the entry
/// block or pathological register pressure (with the same deterministic
/// single-block fallback as [`translate_region`]).
pub fn translate_region_along<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
    limits: &RegionLimits,
    path: &[u32],
) -> Result<TBlock, TranslateError> {
    translate_formed(src, addr, opt, limits, Some(path))
}

/// Forms the region at `addr`, then optimizes, register-allocates and
/// code-generates it.
fn translate_formed<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    opt: OptLevel,
    limits: &RegionLimits,
    path: Option<&[u32]>,
) -> Result<TBlock, TranslateError> {
    let (mut region, mut ranges, mut member_insns) = form_region(src, addr, limits, path)?;
    let code = loop {
        match opt {
            OptLevel::Full => opt::optimize(&mut region, src),
            OptLevel::None => opt::baseline_only(&mut region, src),
        }
        match codegen(&region) {
            Ok(code) => break code,
            // A merged region can exceed the host temp pool even when each
            // member fits alone. Deterministic fallback — identical whether
            // the translation runs in the system or in the fuzz oracle —
            // keeps memoized reuse bit-exact. The single block stands on
            // the abandoned region's bytes too: other bytes there and the
            // region might have fitted.
            Err(CodegenError::RegisterPressure { .. }) if ranges.len() > 1 => {
                let abandoned = region.reads;
                (region, ranges, member_insns) =
                    form_region(src, addr, &RegionLimits::single(), None)?;
                region.reads.extend(abandoned);
            }
            Err(e) => return Err(e.into()),
        }
    };
    Ok(TBlock {
        guest_addr: region.guest_addr,
        guest_len: region.guest_len,
        guest_insns: region.guest_insns,
        translate_cycles: region.guest_insns as u64 * opt.cycles_per_guest_insn(),
        term: region.term,
        is_call: region.is_call,
        code,
        ranges,
        member_insns,
        footprint: Footprint::new(region.reads),
    })
}

/// Distinct 4 KiB guest pages the byte range `[addr, addr + len)` spans.
fn pages_of(addr: u32, len: u32) -> impl Iterator<Item = u32> {
    (addr >> 12)..=(addr.saturating_add(len.max(1) - 1) >> 12)
}

/// What [`form_region`] assembles: the merged region, the member
/// `(addr, len)` list, and the per-member guest instruction counts.
type FormedRegion = (MBlock, Vec<(u32, u32)>, Vec<u32>);

/// What the junction into the next member carries besides its
/// [`MInsn::Boundary`] guard.
enum Junction {
    /// Unconditional: the boundary guard alone.
    Plain,
    /// Conditional: a side exit for the arm not followed.
    Side(Cond, u32),
    /// Indirect: a guard comparing the computed target register against
    /// the recorded successor.
    Guard(VReg),
}

/// The static predictor's next member after a block ending in `term`:
/// fall-through, or the paper's backward-taken/forward-not-taken rule.
/// `ranges` is the member list so far, last entry the current member.
fn predicted(term: &Term, ranges: &[(u32, u32)]) -> Option<(u32, Junction)> {
    match *term {
        Term::Goto(t) => Some((t, Junction::Plain)),
        Term::CondGoto { cond, taken, fall } => {
            let member_addr = ranges.last().expect("nonempty").0;
            let closes_loop = taken <= member_addr && ranges.iter().any(|&(a, _)| a == taken);
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
        Term::Indirect(r) => Some((next, Junction::Guard(r))),
        // Syscall, trap and halt still end the region.
        _ => None,
    }
}

/// Lowers the entry block at `addr` and extends it member by member into
/// a merged [`MBlock`]: along the recorded successor `path` (one entry
/// per junction) when there is one, along the static prediction
/// otherwise. See [`translate_region`] and [`translate_region_along`]
/// for the stop rules.
fn form_region<S: CodeSource + ?Sized>(
    src: &S,
    addr: u32,
    limits: &RegionLimits,
    path: Option<&[u32]>,
) -> Result<FormedRegion, TranslateError> {
    let mut region = lower_block(src, addr, MAX_BLOCK_INSNS)?;
    let mut ranges = vec![(region.guest_addr, region.guest_len)];
    let mut member_insns = vec![region.guest_insns];
    let mut pages: Vec<u32> = pages_of(region.guest_addr, region.guest_len).collect();
    let mut path = path.map(|p| p.iter().copied());
    while (ranges.len() as u32) < limits.max_blocks && region.guest_insns < limits.max_insns {
        let chosen = match &mut path {
            Some(path) => path.next().and_then(|next| recorded(&region.term, next)),
            None => predicted(&region.term, &ranges),
        };
        let Some((next, junction)) = chosen else {
            break;
        };
        // Never re-enter a member: loops close through dispatch (which
        // chains back to the region entry), not by unrolling — a
        // recording ends at the loop-closing backedge for the same reason.
        if ranges.iter().any(|&(a, _)| a == next) {
            break;
        }
        // A decode failure on the chosen path is not an error — the
        // region just stops before it. Whether the member joins or not,
        // the decision was read off its bytes.
        let Ok(member) = lower_member(src, next, MAX_BLOCK_INSNS, &mut region.reads) else {
            note_read(&mut region.reads, next, MAX_INSN_LEN);
            break;
        };
        if region.guest_insns + member.guest_insns > limits.max_insns {
            break;
        }
        let mut new_pages = pages.clone();
        for p in pages_of(member.guest_addr, member.guest_len) {
            if !new_pages.contains(&p) {
                new_pages.push(p);
            }
        }
        if new_pages.len() as u32 > limits.max_pages {
            break;
        }
        pages = new_pages;
        match junction {
            Junction::Plain => {}
            Junction::Side(cond, target) => region.insns.push(MInsn::SideExit { cond, target }),
            Junction::Guard(reg) => region.insns.push(MInsn::IndirectGuard {
                reg,
                expected: next,
            }),
        }
        region.insns.push(MInsn::Boundary { resume: next });
        ranges.push((member.guest_addr, member.guest_len));
        member_insns.push(member.guest_insns);
        append_member(&mut region, member);
    }
    Ok((region, ranges, member_insns))
}

/// Appends `member`'s body to `region`, renumbering the member's
/// temporaries above the region's current high-water mark.
fn append_member(region: &mut MBlock, mut member: MBlock) {
    let offset = region.next_temp - VReg::FIRST_TEMP;
    for insn in &mut member.insns {
        shift_temps(insn, offset);
    }
    if let Term::Indirect(r) = &mut member.term {
        if r.0 >= VReg::FIRST_TEMP {
            r.0 += offset;
        }
    }
    region.insns.append(&mut member.insns);
    region.guest_insns += member.guest_insns;
    region.term = member.term;
    region.is_call = member.is_call;
    region.next_temp = member.next_temp + offset;
}

/// Adds `offset` to every temporary register in `insn` (guest state is
/// shared across members and stays fixed).
fn shift_temps(insn: &mut MInsn, offset: u32) {
    fn sh(r: &mut VReg, offset: u32) {
        if r.0 >= VReg::FIRST_TEMP {
            r.0 += offset;
        }
    }
    fn shv(v: &mut Val, offset: u32) {
        if let Val::Reg(r) = v {
            sh(r, offset);
        }
    }
    match insn {
        MInsn::Mov { dst, src } => {
            sh(dst, offset);
            shv(src, offset);
        }
        MInsn::Bin { dst, a, b, .. } => {
            sh(dst, offset);
            shv(a, offset);
            shv(b, offset);
        }
        MInsn::Load { dst, base, .. } => {
            sh(dst, offset);
            shv(base, offset);
        }
        MInsn::Store { src, base, .. } => {
            shv(src, offset);
            shv(base, offset);
        }
        MInsn::FlagDef { a, b, res, cin, .. } => {
            shv(a, offset);
            shv(b, offset);
            shv(res, offset);
            if let Some(c) = cin {
                shv(c, offset);
            }
        }
        MInsn::EvalCond { dst, .. } => sh(dst, offset),
        MInsn::IndirectGuard { reg, .. } => sh(reg, offset),
        MInsn::ShiftFx { dst, a, count, .. } => {
            sh(dst, offset);
            shv(a, offset);
            shv(count, offset);
        }
        MInsn::DivHelper { divisor, .. } => shv(divisor, offset),
        MInsn::RepString { .. }
        | MInsn::SetDf(_)
        | MInsn::SideExit { .. }
        | MInsn::Boundary { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::decode::SliceSource;
    use vta_x86::{Asm, Reg::*};

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
        // The dead-flags pass scans the jump target; its bytes are in the
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
        assert_eq!(b.ranges.len(), 3, "ranges: {:?}", b.ranges);
        assert_eq!(b.ranges[0].0, 0x1000);
        assert!(b.ranges[2].0 > b.ranges[1].0, "D after C: {:?}", b.ranges);
        assert_eq!(b.term, Term::Halt);
        assert_eq!(
            b.end_addr(),
            b.ranges[2].0 + b.ranges[2].1,
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
        assert_eq!(b.ranges.len(), 1);
        // A self-loop closes through dispatch, not by unrolling.
        let b = region(OptLevel::Full, &RegionLimits::default(), |a| {
            let top = a.label();
            a.bind(top);
            a.add_ri(EAX, 1);
            a.jmp(top);
        });
        assert_eq!(b.ranges.len(), 1);
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
        assert_eq!(single.ranges, vec![(p.base, single.guest_len)]);
        // With formation enabled the same code merges into one region.
        let merged =
            translate_region(&src, p.base, OptLevel::Full, &RegionLimits::default()).unwrap();
        assert_eq!(merged.ranges.len(), 2);
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
        assert_eq!(b.ranges.len(), 3);
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
        assert_eq!(stat.ranges[1].0, fall, "static prediction falls through");
        let rec = translate_region_along(
            &src,
            p.base,
            OptLevel::Full,
            &RegionLimits::default(),
            &[taken],
        )
        .unwrap();
        assert_eq!(rec.ranges.len(), 2, "ranges: {:?}", rec.ranges);
        assert_eq!(rec.ranges[1].0, taken, "recorded path takes the branch");
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
        assert_eq!(rec.ranges.len(), 2, "ranges: {:?}", rec.ranges);
        assert_eq!(rec.ranges[1].0, c);
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
        assert_eq!(stat.ranges.len(), 1);
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
        assert_eq!(bogus.ranges.len(), 1, "mismatch must stop formation");
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
        assert_eq!(stat.ranges.len(), 3);
        let path = [stat.ranges[1].0, stat.ranges[2].0];
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
        assert_eq!(rec.ranges.len(), 1, "loop closes through dispatch");
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
        let second = translate_block(&src, merged.ranges[1].0, OptLevel::Full).unwrap();
        assert!(
            merged.code.len() < first.code.len() + second.code.len(),
            "merged {} vs split {}+{}",
            merged.code.len(),
            first.code.len(),
            second.code.len()
        );
    }
}
