//! Mid-level IR optimization passes.
//!
//! The paper applies "many standard compiler optimizations" on the
//! translation slaves (§3.2), affordable because optimization runs off the
//! program's critical path (§2.1). The passes here:
//!
//! - `flags::eliminate_dead_flags` — per-flag dead-code elimination with
//!   an *interblock* liveness scan over the guest code (always run: the
//!   paper describes its "extensive dead flag elimination" as part of the
//!   base translator, §4.5);
//! - `valueprop::propagate` — constant folding plus copy/constant
//!   propagation;
//! - `dce::eliminate` — dead temporary elimination.
//!
//! `OptLevel::None` (Figure 8's "without optimization") runs only the flag
//! pass. Every pass works in buffers a [`Passes`] keeps across blocks.

pub mod dce;
pub mod flags;
pub mod valueprop;

use vta_x86::decode::CodeSource;

use crate::mir::MBlock;

/// The optimizer's share of a translator's context: every pass's
/// buffers, reset by the pass at first use in each block.
#[derive(Debug, Default)]
pub(crate) struct Passes {
    flags: flags::Scratch,
    facts: valueprop::Facts,
    dce: dce::Scratch,
}

/// Runs the full optimization pipeline in order.
pub(crate) fn optimize<S: CodeSource + ?Sized>(block: &mut MBlock, src: &S, passes: &mut Passes) {
    flags::eliminate_dead_flags(block, src, &mut passes.flags);
    valueprop::propagate(block, &mut passes.facts);
    dce::eliminate(block, &mut passes.dce);
}

/// Runs only the baseline *intrablock* flag elimination (Figure 8's
/// "no optimization"): flags overwritten inside the block still die, but
/// the block's live-out set is conservatively all-live, so the last
/// flag-writing operation materializes every flag.
pub(crate) fn baseline_only(block: &mut MBlock, passes: &mut Passes) {
    flags::eliminate_dead_flags_conservative(block, &mut passes.flags);
}
