//! Differential fuzzing of the x86 front end.
//!
//! This module is the reusable core of the `vta_fuzz` subsystem: layered
//! deterministic generators ([`gen`]) produce guest test cases, a
//! differential oracle ([`oracle`]) runs each case through the reference
//! interpreter ([`vta_x86::Cpu`]) and the translated path
//! ([`crate::Translator`] + [`vta_raw::exec::run_block`]) at both
//! [`OptLevel`](crate::OptLevel)s — at `Full` with the regions the DBT's
//! own path-recording protocol ([`crate::record`]) forms — and compares
//! every architectural outcome, and a delta-debugging minimizer
//! ([`minimize`]) shrinks any divergence to a
//! small reproducer that can be persisted in the committed regression
//! corpus ([`corpus`]).
//!
//! Everything is deterministic: the only randomness source is the in-tree
//! [`vta_sim::Rng`], seeded explicitly, so the same seed always yields the
//! same case stream and the same verdicts. `vta fuzz` (the
//! `vta-bench` CLI) drives large sweeps; `crates/ir/tests/fuzz_corpus.rs`
//! replays the committed corpus as a tier-1 test and holds the seeded
//! loops over what the case stream does not draw;
//! `crates/ir/tests/differential.rs` feeds hand-written programs to the
//! same oracle through [`run_image`].

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod oracle;

pub use oracle::{run_case, run_image, Channel, Divergence, FaultKind, Outcome, Verdict};

use vta_x86::{GuestImage, Program};

/// Base address guest code is assembled/loaded at.
pub const CODE_BASE: u32 = 0x0800_0000;
/// Base address of the zero-initialised scratch data region.
pub const DATA_BASE: u32 = 0x0900_0000;
/// Size of the scratch data region in bytes.
pub(crate) const DATA_LEN: u32 = 0x1000;

/// One self-contained fuzz case: a guest code image plus synthetic
/// syscall input, runnable on both execution paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Case {
    /// Human-readable label (generator name, seed, index — or the corpus
    /// file stem for replayed cases).
    pub name: String,
    /// Raw guest code bytes, loaded at [`CODE_BASE`].
    pub code: Vec<u8>,
    /// Bytes served by the `read` syscall.
    pub input: Vec<u8>,
}

impl Case {
    /// Builds the guest image both execution paths run: `code` at
    /// [`CODE_BASE`], a zeroed scratch region at [`DATA_BASE`], and
    /// `input` wired to the synthetic `read` syscall.
    pub fn image(&self) -> GuestImage {
        GuestImage::from_code(Program {
            base: CODE_BASE,
            code: self.code.clone(),
        })
        .with_bss(DATA_BASE, DATA_LEN)
        .with_input(self.input.clone())
    }
}
