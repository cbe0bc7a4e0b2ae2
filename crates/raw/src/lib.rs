//! # vta-raw — a Raw-like tiled processor substrate
//!
//! The host side of the CGO 2006 reproduction: a cycle-accounted model of
//! the MIT Raw prototype the paper runs on. Raw is a 4×4 grid of identical
//! MIPS-like 32-bit in-order tiles joined by register-mapped on-chip
//! networks; each tile has a 32 KiB hardware data cache and 32 KiB of
//! *software-managed* instruction memory, there is no MMU, no memory
//! protection, and no cache coherence — exactly the gaps the paper's
//! all-software translator has to bridge.
//!
//! This crate provides the mechanical pieces the DBT system in `vta-dbt`
//! assembles: the [`TileId`] grid geometry ([`grid`]), the host instruction
//! set [`RInsn`] ([`isa`]), a set-associative [`Cache`] model, a
//! dimension-ordered dynamic [`Network`] with per-hop wire delay, a
//! [`Dram`] controller model, and the translated-block executor
//! ([`exec::run_block`]).
//!
//! # Examples
//!
//! ```
//! use vta_raw::{grid::TileId, net::Network};
//! use vta_sim::Cycle;
//!
//! let mut net: Network<&str> = Network::new(4, 4);
//! let from = TileId::new(0, 0);
//! let to = TileId::new(3, 2);
//! assert_eq!(from.hops_to(to), 5);
//! let arrival = net.send(Cycle(100), from, to, 2, "request");
//! assert!(arrival > Cycle(100));
//! assert_eq!(net.recv(to, arrival), Some("request"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod exec;
pub mod grid;
pub mod isa;
pub mod net;

pub use cache::{Access, Cache, CacheConfig};
pub use dram::Dram;
pub use exec::{run_block, BlockExit, CoreState, DataPort, Fault};
pub use grid::TileId;
pub use isa::{AluIOp, AluOp, BrCond, BranchTarget, HelperKind, MemOp, RInsn, RReg, ShiftOp};
pub use net::Network;
