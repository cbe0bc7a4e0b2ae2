//! # vta-dbt — the parallel dynamic binary translation system
//!
//! The paper's primary contribution: an all-software parallel DBT engine
//! that spatially implements a virtual superscalar across a simulated Raw
//! tile grid. The pieces map one-to-one onto Figure 3 of the paper:
//!
//! - **runtime-execution tile** — dispatch loop, L1 code cache (in the
//!   tile's software-managed instruction memory, with *chaining* between
//!   resident blocks), L1 data cache ([`system`]);
//! - **banked L1.5 code cache tiles** ([`codecache`]);
//! - **manager / L2 code cache tile** — the 105 MB code cache in DRAM plus
//!   the speculative-translation work queues, behind one service ring
//!   (`manager`, [`codecache`], [`specq`]);
//! - **translation slave tiles** — run `vta-ir` off the critical path,
//!   speculatively walking the guest control-flow graph ([`slave`]);
//! - **MMU/TLB tile and L2 data-cache bank tiles** — the spatially
//!   pipelined memory system ([`memsys`]);
//! - **syscall proxy tile**;
//! - **morph manager** — dynamic virtual-architecture reconfiguration,
//!   trading L2 data-cache tiles against translation tiles on work-queue
//!   pressure with hysteresis ([`morph`]).
//!
//! # Examples
//!
//! ```
//! use vta_dbt::{System, VirtualArchConfig};
//! use vta_x86::{Asm, GuestImage, Reg};
//!
//! let mut asm = Asm::new(0x0800_0000);
//! asm.mov_ri(Reg::EAX, 6);
//! asm.mov_ri(Reg::ECX, 7);
//! asm.imul_rr(Reg::EAX, Reg::ECX);
//! asm.exit_with_eax();
//! let image = GuestImage::from_code(asm.finish());
//!
//! let config = VirtualArchConfig::default();
//! let mut system = System::new(config, &image);
//! let report = system.run(1_000_000).expect("guest fault");
//! assert_eq!(report.exit_code, Some(42));
//! assert!(report.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codecache;
pub mod config;
mod manager;
pub mod memsys;
pub mod morph;
mod regions;
pub mod shared;
pub mod slave;
pub mod specq;
pub mod system;
pub mod timing;

pub use config::{MorphConfig, Placement, VirtualArchConfig};
pub use shared::SharedTranslations;
pub use system::{RunReport, StopCause, System, SystemError};
pub use timing::Timing;
