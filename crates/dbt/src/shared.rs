//! Cross-system translation sharing for sweeps.
//!
//! A parameter sweep (Figure 5) runs the same guest binary under dozens
//! of virtual-architecture configurations. The translator is a pure
//! function of `(code bytes, address, opt level, shape)` — where the
//! shape says whether the address was translated as a single basic block
//! or promoted to a superblock region — so every cell
//! re-deriving the same ~thousands of translations is wasted host work —
//! it dominated sweep wall-clock. [`SharedTranslations`] is an opt-in,
//! thread-safe memo attached to each [`System`](crate::System) in a
//! sweep: the first system to translate an address publishes the block,
//! later systems reuse it.
//!
//! **Soundness.** Reuse must not change any simulated outcome:
//!
//! - An entry records the exact guest bytes it was translated from —
//!   those of `TBlock::footprint`, which the translator reports: the
//!   members' bytes and the successor code its flag-liveness scan read.
//!   Publish copies them and a consult re-reads them, a page at a time
//!   ([`vta_ir::Footprint::windows`]), rejecting on any mismatch. A
//!   system whose guest has since written over that code (SMC) simply
//!   retranslates, so sharing is transparent even for self-modifying
//!   guests. A translation that read an unmapped byte is not published.
//! - The cache is fixed to one [`OptLevel`]; attaching it to a system
//!   with a different opt level is refused at the API boundary.
//! - Simulated translation cost travels with the block
//!   (`TBlock::translate_cycles`), so a memo hit charges the identical
//!   guest-visible latency as a fresh translation. Cycle counts are
//!   bit-identical with and without sharing.

use std::sync::{Arc, Mutex};

use vta_ir::{OptLevel, RegionLimits, RegionShape, TBlock};
use vta_x86::GuestMem;

use vta_sim::addrhash::AddrMap;

struct Entry {
    /// The guest code bytes the translation was derived from: those of
    /// each `block.footprint` span, concatenated in order (a block is
    /// only reusable while *every* byte its translation read matches).
    bytes: Vec<u8>,
    block: Arc<TBlock>,
}

/// A translation memo shared by every sweep cell running one binary.
///
/// Entries are `Arc`ed so a consult holds the map lock only for the
/// probe; the byte re-validation against the caller's live memory runs
/// outside it. Sweep cells on other host threads consult this memo
/// concurrently, and validation is the long part of a consult.
pub struct SharedTranslations {
    opt: OptLevel,
    limits: RegionLimits,
    /// Keyed by `(guest address, region shape)`: a promoted region and
    /// the plain single-block translation of the same address coexist,
    /// and a recorded-path region is keyed by its full recorded
    /// successor list — two cells whose recordings diverged never
    /// alias, so cross-cell reuse stays byte-validated *and*
    /// shape-exact.
    inner: Mutex<AddrMap<(u32, RegionShape), Arc<Entry>>>,
}

impl SharedTranslations {
    /// Creates an empty memo for translations at `opt`, with the region
    /// limits that opt level forms superblocks under.
    pub fn new(opt: OptLevel) -> Arc<SharedTranslations> {
        Self::with_limits(opt, RegionLimits::for_opt(opt))
    }

    /// Creates an empty memo for translations at `opt` under explicit
    /// region-formation `limits` (must match every attached system's).
    pub fn with_limits(opt: OptLevel, limits: RegionLimits) -> Arc<SharedTranslations> {
        Arc::new(SharedTranslations {
            opt,
            limits,
            inner: Mutex::new(AddrMap::default()),
        })
    }

    /// The opt level this memo holds translations for.
    pub(crate) fn opt(&self) -> OptLevel {
        self.opt
    }

    /// The region-formation limits this memo's translations were made
    /// under.
    pub(crate) fn limits(&self) -> RegionLimits {
        self.limits
    }

    /// Returns the memoized translation at `addr` if the caller's guest
    /// memory still holds the exact bytes it was derived from.
    pub(crate) fn consult(
        &self,
        mem: &GuestMem,
        addr: u32,
        shape: &RegionShape,
    ) -> Option<Arc<TBlock>> {
        // Probe under the lock, validate outside it.
        let e = Arc::clone(self.inner.lock().ok()?.get(&(addr, shape.clone()))?);
        let mut want = e.bytes.as_slice();
        for live in e.block.footprint.windows(mem) {
            let live = live.ok()?;
            let (head, rest) = want.split_at(live.len());
            if live != head {
                return None;
            }
            want = rest;
        }
        Some(Arc::clone(&e.block))
    }

    /// Publishes a freshly translated block (first writer wins).
    pub(crate) fn publish(&self, mem: &GuestMem, block: &Arc<TBlock>, shape: &RegionShape) {
        let mut bytes = Vec::new();
        for live in block.footprint.windows(mem) {
            let Ok(live) = live else {
                return;
            };
            bytes.extend_from_slice(live);
        }
        let entry = Arc::new(Entry {
            bytes,
            block: Arc::clone(block),
        });
        if let Ok(mut inner) = self.inner.lock() {
            inner
                .entry((block.guest_addr, shape.clone()))
                .or_insert(entry);
        }
    }

    /// Number of memoized translations.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().map(|m| m.len()).unwrap_or(0)
    }

    /// Whether the memo is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
