//! The dynamic on-chip network's cost model.
//!
//! Raw's dynamic networks are dimension-ordered wormhole-routed meshes with
//! one-cycle-per-hop wire delay. The model charges
//! `inject + hops + payload serialization + eject` per message. Queueing
//! is modelled where it happens — at the software service loop of the
//! tile a message is addressed to (the L2 code-cache manager's service
//! ring, the MMU, each cache bank), not on the wires.

use vta_sim::{Cycle, Tracer};

use crate::grid::TileId;

/// Cycles to inject a message header into the network.
pub const INJECT_COST: u64 = 1;
/// Cycles per network hop.
pub const HOP_COST: u64 = 1;
/// Cycles to eject a message at the destination.
pub const EJECT_COST: u64 = 1;

/// One-way cost in cycles of a `words`-word message from `from` to `to`.
///
/// # Examples
///
/// ```
/// use vta_raw::{net, TileId};
///
/// let (a, b) = (TileId::new(0, 0), TileId::new(3, 2));
/// assert_eq!(a.hops_to(b), 5);
/// assert_eq!(net::cost(a, b, 2), 1 + 5 + 2 + 1);
/// ```
pub fn cost(from: TileId, to: TileId, words: u32) -> u64 {
    INJECT_COST + from.hops_to(to) as u64 * HOP_COST + words as u64 + EJECT_COST
}

/// [`cost`] of a message injected at `at`, recorded in `tracer`.
pub fn message(tracer: &mut Tracer, at: Cycle, from: TileId, to: TileId, words: u32) -> u64 {
    let cost = cost(from, to, words);
    tracer.net_msg(
        at,
        cost,
        from.into(),
        to.into(),
        words,
        from.hops_to(to) as u8,
    );
    cost
}
