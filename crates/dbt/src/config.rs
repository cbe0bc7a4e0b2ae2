//! Virtual architecture configurations: how tile roles are laid out.
//!
//! This is the paper's central idea made concrete: the allocation of
//! silicon (tiles) to functions (translation, code caching, data caching)
//! is a *software* choice. [`VirtualArchConfig`] describes one such
//! allocation; [`Placement`] pins each role to grid coordinates with
//! communication distance in mind (the execution tile sits next to the
//! MMU, L2 data banks next to the MMU, L1.5 banks next to the execution
//! tile — "spatial pipelining takes into account wire delays", §2.2).

use vta_ir::{OptLevel, RegionLimits};
use vta_raw::TileId;

/// Dynamic-reconfiguration (morphing) parameters. The monitor's sampling
/// interval and hysteresis are fixed ([`morph::CHECK_INTERVAL`],
/// [`morph::HYSTERESIS`]).
///
/// [`morph::CHECK_INTERVAL`]: crate::morph::CHECK_INTERVAL
/// [`morph::HYSTERESIS`]: crate::morph::HYSTERESIS
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MorphConfig {
    /// Work-queue length at which cache tiles morph into translators.
    pub threshold: usize,
}

impl Default for MorphConfig {
    fn default() -> Self {
        MorphConfig { threshold: 15 }
    }
}

/// Side of the square tile grid — the Raw prototype's 4×4, on which
/// [`Placement::layout`] puts every role.
pub const GRID: u8 = 4;

/// Where each role lives on the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The runtime-execution tile.
    pub exec: TileId,
    /// The MMU/TLB tile (adjacent to exec).
    pub mmu: TileId,
    /// The manager / L2 code cache tile.
    pub manager: TileId,
    /// The syscall proxy tile.
    pub syscall: TileId,
    /// L1.5 code-cache bank tiles (0–2).
    pub l15_banks: Vec<TileId>,
    /// L2 data-cache bank tiles.
    pub l2_banks: Vec<TileId>,
    /// Translation slave tiles.
    pub slaves: Vec<TileId>,
}

impl Placement {
    /// Lays roles out on a 4×4 grid for the given resource counts.
    ///
    /// # Panics
    ///
    /// Panics if the roles do not fit on sixteen tiles.
    pub fn layout(l15_banks: usize, l2_banks: usize, slaves: usize) -> Placement {
        let exec = TileId::new(1, 1);
        let mmu = TileId::new(2, 1);
        let manager = TileId::new(2, 0);
        let syscall = TileId::new(0, 0);
        // Close to the execution tile:
        let l15_pool = [TileId::new(0, 1), TileId::new(1, 0)];
        // Close to the MMU (and the east-edge DRAM ports):
        let l2_pool = [
            TileId::new(2, 2),
            TileId::new(3, 1),
            TileId::new(3, 2),
            TileId::new(2, 3),
        ];
        // Remaining tiles, ordered by distance to the manager:
        let slave_pool = [
            TileId::new(3, 0),
            TileId::new(1, 2),
            TileId::new(0, 2),
            TileId::new(1, 3),
            TileId::new(0, 3),
            TileId::new(3, 3),
            TileId::new(2, 3),
            TileId::new(3, 2),
            TileId::new(3, 1),
        ];
        assert!(l15_banks <= l15_pool.len(), "at most 2 L1.5 banks");
        assert!(l2_banks <= l2_pool.len(), "at most 4 L2 data banks");

        let l2: Vec<TileId> = l2_pool[..l2_banks].to_vec();
        // Slaves take pool tiles not already used as L2 banks.
        let slaves_v: Vec<TileId> = slave_pool
            .iter()
            .copied()
            .filter(|t| !l2.contains(t))
            .take(slaves)
            .collect();
        assert_eq!(
            slaves_v.len(),
            slaves,
            "not enough tiles for {slaves} slaves"
        );

        Placement {
            exec,
            mmu,
            manager,
            syscall,
            l15_banks: l15_pool[..l15_banks].to_vec(),
            l2_banks: l2,
            slaves: slaves_v,
        }
    }
}

/// One complete virtual architecture configuration.
///
/// # Examples
///
/// ```
/// use vta_dbt::VirtualArchConfig;
///
/// // The paper's Figure 5 sweep point with four speculative translators.
/// let c = VirtualArchConfig::with_translators(4, true);
/// assert_eq!(c.placement.slaves.len(), 4);
///
/// // Figure 9's static 1-mem/9-translator configuration.
/// let c = VirtualArchConfig::mem_trans(1, 9);
/// assert_eq!(c.placement.l2_banks.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VirtualArchConfig {
    /// Role placement on the [`GRID`]×[`GRID`] tiles.
    pub placement: Placement,
    /// Translation optimization level (Figure 8's knob).
    pub opt: OptLevel,
    /// Whether hot code may be *promoted* to superblock regions: a
    /// taken loop backedge (or a capped region continuing into a known
    /// successor) marks its target, one pass of normal single-block
    /// execution *records* the successor actually taken at every block
    /// exit, a slave retranslates the target as a multi-block region
    /// along that recorded path in the background (crossing
    /// conditionals the way they actually went, and indirects under an
    /// inline target guard), and the commit swaps it in for the
    /// resident single-block translation. Ordinary (demand/speculative)
    /// translation always stays single-block; the triggers and the
    /// recording are purely architectural, so the knob never perturbs
    /// determinism. Only effective at [`OptLevel::Full`]; see
    /// [`Self::region_limits`].
    pub superblock: bool,
    /// Whether slaves translate ahead speculatively (`false` =
    /// the paper's "1 conservative translator" baseline), at most
    /// [`MAX_SPEC_DEPTH`](crate::specq::MAX_SPEC_DEPTH) edges from the
    /// last known-correct block.
    pub speculation: bool,
    /// Usable L1 code cache bytes in the execution tile's instruction
    /// memory (32 KiB minus the resident runtime).
    pub l1_code_bytes: u32,
    /// Per-bank L1.5 capacity in bytes (64 KiB: I-mem + switch memory).
    pub l15_bank_bytes: u32,
    /// L2 code cache capacity in bytes (105 MB in the paper).
    pub l2_code_bytes: u64,
    /// Per-bank L2 data cache bytes (one tile's 32 KiB SRAM).
    pub l2_bank_bytes: u32,
    /// Dynamic reconfiguration, if enabled.
    pub morph: Option<MorphConfig>,
}

impl VirtualArchConfig {
    /// The paper's main configuration: 2 L1.5 banks, 4 L2 data banks,
    /// 6 speculative translators, full optimization.
    pub fn paper_default() -> Self {
        VirtualArchConfig {
            placement: Placement::layout(2, 4, 6),
            opt: OptLevel::Full,
            superblock: true,
            speculation: true,
            l1_code_bytes: 24 * 1024,
            l15_bank_bytes: 64 * 1024,
            l2_code_bytes: 105 * 1024 * 1024,
            l2_bank_bytes: 32 * 1024,
            morph: None,
        }
    }

    /// `n` translators (speculative or conservative), 2 L1.5 banks, and
    /// L2 data banks filling the Figure 5 arrangement (4 banks up to six
    /// translators, then banks are traded away).
    pub fn with_translators(n: usize, speculative: bool) -> Self {
        let l2_banks = if n <= 6 { 4 } else { (10 - n).max(1) };
        let mut c = Self::paper_default();
        c.placement = Placement::layout(2, l2_banks, n);
        c.speculation = speculative;
        c
    }

    /// Figure 9's static points: `mem` L2 data bank tiles vs `trans`
    /// translator tiles.
    pub fn mem_trans(mem: usize, trans: usize) -> Self {
        let mut c = Self::paper_default();
        c.placement = Placement::layout(2, mem, trans);
        c
    }

    /// Figure 4's points: 0/1/2 L1.5 code-cache banks.
    pub fn with_l15_banks(banks: usize) -> Self {
        let mut c = Self::paper_default();
        c.placement = Placement::layout(banks, 4, 6);
        c
    }

    /// Enables dynamic reconfiguration between 4-mem/6-trans and
    /// 1-mem/9-trans with the given queue-length threshold (Figures 9/10).
    pub fn morphing(threshold: usize) -> Self {
        let mut c = Self::paper_default();
        c.morph = Some(MorphConfig { threshold });
        c
    }

    /// Number of translation slave tiles.
    pub fn translators(&self) -> usize {
        self.placement.slaves.len()
    }

    /// The region-formation limits all translation in this configuration
    /// uses (inline demand translation and the speculative slaves must
    /// agree, or the shape a block commits under would depend on who
    /// built it).
    pub fn region_limits(&self) -> RegionLimits {
        if self.superblock {
            RegionLimits::for_opt(self.opt)
        } else {
            RegionLimits::single()
        }
    }
}

impl Default for VirtualArchConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_uses_whole_chip() {
        let c = VirtualArchConfig::paper_default();
        let p = &c.placement;
        let used = 4 + p.l15_banks.len() + p.l2_banks.len() + p.slaves.len();
        assert_eq!(used, 16, "4 fixed roles + 2 + 4 + 6 fill the 4x4 grid");
    }

    #[test]
    fn roles_do_not_overlap() {
        for (l15, l2, s) in [(2, 4, 6), (2, 1, 9), (0, 4, 6), (1, 4, 6), (2, 4, 1)] {
            let p = Placement::layout(l15, l2, s);
            let mut all = vec![p.exec, p.mmu, p.manager, p.syscall];
            all.extend(&p.l15_banks);
            all.extend(&p.l2_banks);
            all.extend(&p.slaves);
            let n = all.len();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), n, "overlap in layout({l15},{l2},{s})");
        }
    }

    #[test]
    fn mmu_is_adjacent_to_exec() {
        let p = Placement::layout(2, 4, 6);
        assert_eq!(p.exec.hops_to(p.mmu), 1);
        for b in &p.l15_banks {
            assert_eq!(p.exec.hops_to(*b), 1, "L1.5 banks neighbor exec");
        }
    }

    #[test]
    fn figure5_sweep_configs() {
        for n in [1usize, 2, 4, 6, 9] {
            let c = VirtualArchConfig::with_translators(n, true);
            assert_eq!(c.translators(), n);
            if n == 9 {
                assert_eq!(c.placement.l2_banks.len(), 1, "9T trades L2 banks");
            }
        }
        let cons = VirtualArchConfig::with_translators(1, false);
        assert!(!cons.speculation);
    }

    #[test]
    fn morph_config_thresholds() {
        let c = VirtualArchConfig::morphing(0);
        assert_eq!(c.morph.unwrap().threshold, 0);
    }
}
