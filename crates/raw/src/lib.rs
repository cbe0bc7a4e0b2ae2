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
//! set [`RInsn`] ([`isa`]), a set-associative [`Cache`] model, the
//! dynamic network's per-message cost with per-hop wire delay ([`net`]),
//! a [`Dram`] controller model, and the translated-block executor
//! ([`exec::run_block`]).

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
