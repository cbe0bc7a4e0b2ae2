//! # vta-ir — the x86 → RawIsa translation pipeline
//!
//! The translator that runs on the paper's *translation slave tiles*:
//! decoded IA-32 basic blocks are formed into regions, lowered to an
//! x86-like mid-level IR ([`mir`]) with only the flags an interblock
//! liveness analysis finds a reader for ([`opt::flags`]), optimized
//! ([`opt`]: constant folding/propagation, copy propagation), and then
//! code-generated ([`codegen`]) to the host tile ISA. Codegen's one
//! backward walk plans linear-scan register allocation and, at
//! `OptLevel::Full`, drops the pure instructions nothing reads (dead-code
//! elimination); guest state has a fixed mapping (`EAX..EDI` in host
//! `r1..r8`, the packed EFLAGS word in `r9` — the paper's "flags packed
//! in a register" design, §4.5).
//!
//! The entry point is [`translate_block`], which produces a [`TBlock`] of
//! host code plus the translation-occupancy estimate the DBT charges to a
//! slave tile. A caller that translates many blocks keeps one
//! [`Translator`], whose buffers live across blocks.
//!
//! # Examples
//!
//! ```
//! use vta_ir::{translate_block, OptLevel};
//! use vta_x86::{Asm, Reg};
//! use vta_x86::decode::SliceSource;
//!
//! let mut asm = Asm::new(0x0800_0000);
//! asm.mov_ri(Reg::EAX, 5);
//! asm.add_ri(Reg::EAX, 2);
//! asm.ret();
//! let prog = asm.finish();
//! let src = SliceSource::new(prog.base, &prog.code);
//! let block = translate_block(&src, prog.base, OptLevel::Full).unwrap();
//! assert_eq!(block.guest_addr, 0x0800_0000);
//! assert!(!block.code.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codegen;
pub mod fuzz;
pub mod helper;
pub mod lower;
pub mod mir;
pub mod opt;
pub mod record;
mod translate;

pub use helper::{apply_helper, proxy_syscall};
pub use mir::{FlagSet, MBlock, MInsn, Term, VReg, Val};
pub use translate::{
    translate_block, translate_region, translate_region_along, Footprint, Member, OptLevel,
    RegionLimits, RegionShape, TBlock, TranslateError, Translator,
};
