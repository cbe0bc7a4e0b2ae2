//! Mid-level IR optimization passes.
//!
//! The paper applies "many standard compiler optimizations" on the
//! translation slaves (§3.2), affordable because optimization runs off the
//! program's critical path (§2.1). Its "extensive dead flag elimination",
//! which it counts as part of the base translator (§4.5), is not a pass
//! here: [`flags`] works out which flags a reader can see before the
//! region is lowered, and lowering emits only those, at every level. The
//! passes over the lowered MIR, run at `OptLevel::Full` only (Figure 8's
//! "without optimization" runs none):
//!
//! - `valueprop::propagate` — constant folding plus copy/constant
//!   propagation;
//! - `dce::eliminate` — dead temporary elimination.
//!
//! Every pass works in buffers a [`Passes`] keeps across blocks.

pub mod dce;
pub mod flags;
pub mod valueprop;

use crate::mir::MBlock;

/// The optimizer's share of a translator's context: every pass's
/// buffers, reset by the pass at first use in each block.
#[derive(Debug, Default)]
pub(crate) struct Passes {
    facts: valueprop::Facts,
    dce: dce::Scratch,
}

/// Runs the full optimization pipeline in order.
pub(crate) fn optimize(block: &mut MBlock, passes: &mut Passes) {
    valueprop::propagate(block, &mut passes.facts);
    dce::eliminate(block, &mut passes.dce);
}
