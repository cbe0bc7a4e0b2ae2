//! # vta — Virtual Tiled Architectures
//!
//! A full reproduction of *"Constructing Virtual Architectures on a Tiled
//! Processor"* (Wentzlaff & Agarwal, CGO 2006) as a pure-Rust workspace:
//! an all-software **parallel dynamic binary translation engine** that
//! runs IA-32 guest programs on a simulated Raw-like tiled processor,
//! spatially implementing a virtual superscalar across the tile grid.
//!
//! This facade crate re-exports the workspace members:
//!
//! - [`x86`] — the guest architecture: decoder, assembler, EFLAGS,
//!   reference interpreter, images and syscalls;
//! - [`raw`] — the host substrate: tile grid, RawIsa, caches, network,
//!   DRAM and the translated-block executor;
//! - [`ir`] — the translator: x86-like mid-level IR lowered with only the
//!   flags an interblock liveness analysis finds a reader for,
//!   constant/copy propagation, and RawIsa code generation that drops
//!   dead code in the same walk that plans register allocation;
//! - [`dbt`] — the paper's contribution: speculative parallel
//!   translation, the three-level code cache, the pipelined memory
//!   system, and static/dynamic virtual-architecture reconfiguration;
//! - [`pentium`] — the Pentium III baseline cost model the paper compares
//!   against clock-for-clock;
//! - [`workloads`] — eleven synthetic SpecInt 2000 stand-ins;
//! - [`sim`] — shared simulation infrastructure.
//!
//! # Quickstart
//!
//! ```
//! use vta::dbt::{System, VirtualArchConfig};
//! use vta::x86::{Asm, GuestImage, Reg};
//!
//! // Author a guest program (normally you'd load a binary).
//! let mut asm = Asm::new(0x0800_0000);
//! asm.mov_ri(Reg::EAX, 41);
//! asm.add_ri(Reg::EAX, 1);
//! asm.exit_with_eax();
//! let image = GuestImage::from_code(asm.finish());
//!
//! // Run it on the 16-tile virtual architecture.
//! let mut system = System::new(VirtualArchConfig::default(), &image);
//! let report = system.run(1_000_000)?;
//! assert_eq!(report.exit_code, Some(42));
//! println!("guest retired {} instructions in {} cycles",
//!          report.guest_insns, report.cycles);
//! # Ok::<(), vta::dbt::SystemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vta_dbt as dbt;
pub use vta_ir as ir;
pub use vta_pentium as pentium;
pub use vta_raw as raw;
pub use vta_sim as sim;
pub use vta_workloads as workloads;
pub use vta_x86 as x86;

/// Computes the paper's headline metric for one run:
/// `slowdown = cycles_on_translator / cycles_on_pentium_iii`.
///
/// # Examples
///
/// ```
/// assert_eq!(vta::slowdown(700, 100), 7.0);
/// ```
pub fn slowdown(translator_cycles: u64, pentium_cycles: u64) -> f64 {
    if pentium_cycles == 0 {
        f64::INFINITY
    } else {
        translator_cycles as f64 / pentium_cycles as f64
    }
}
