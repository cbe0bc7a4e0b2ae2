//! Mid-level IR optimization passes.
//!
//! The paper applies "many standard compiler optimizations" on the
//! translation slaves (§3.2), affordable because optimization runs off the
//! program's critical path (§2.1). Its "extensive dead flag elimination",
//! which it counts as part of the base translator (§4.5), is not a pass
//! here: [`flags`] works out which flags a reader can see before the
//! region is lowered, and lowering emits only those, at every level. The
//! one pass over the lowered MIR, run at `OptLevel::Full` only (Figure 8's
//! "without optimization" runs none), is `valueprop::propagate`: constant
//! folding plus copy/constant propagation. Dead temporaries are not a pass
//! either: codegen's one backward walk, which plans each temporary's
//! register lifetime, also finds the pure instructions nothing reads and
//! skips them at `Full`.

pub mod flags;
pub mod valueprop;
