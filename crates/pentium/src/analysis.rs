//! The §4.5 performance-loss decomposition.
//!
//! The paper explains the low-end slowdown as the product of three
//! fixable architectural deficiencies:
//!
//! 1. **memory system** — the emulator's load occupancy is 4 cycles per
//!    L1 hit (software address translation) against the PIII's 1; a basic
//!    CPI calculation with SpecInt miss rates gives ≈ 3.9×;
//! 2. **realized ILP** — the PIII extracts ≈ 1.3 IPC from SpecInt, the
//!    single-issue in-order tile cannot: 1.3×;
//! 3. **condition codes** — every conditional branch needs a flag
//!    extract before the branch (two instructions instead of one): with a
//!    branch every ten instructions, 1.1×.
//!
//! Total expected floor: `3.9 × 1.3 × 1.1 ≈ 5.5×`.

/// Inputs to the paper's CPI formula (per-access probabilities ×1e6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpiInputs {
    /// Fraction of instructions that access memory.
    pub memory_access_rate: f64,
    /// L1 miss rate (per access).
    pub l1_miss_rate: f64,
    /// L2 miss rate (per L1 miss).
    pub l2_miss_rate: f64,
    /// CPI of non-memory instructions.
    pub non_memory_cpi: f64,
}

impl Default for CpiInputs {
    /// SpecInt-typical rates (Cantin & Hill's SPEC CPU2000 data, which
    /// the paper uses): ~35% memory instructions, ~6% L1 misses on the
    /// 32 KiB tile cache, ~20% of those missing L2.
    fn default() -> Self {
        CpiInputs {
            memory_access_rate: 0.35,
            l1_miss_rate: 0.062,
            l2_miss_rate: 0.2,
            non_memory_cpi: 1.0,
        }
    }
}

/// Occupancies of one machine's memory hierarchy (Figure 11 rows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct MemOccupancy {
    /// L1 hit occupancy.
    pub l1_hit: f64,
    /// L2 hit occupancy.
    pub l2_hit: f64,
    /// L2 miss occupancy.
    pub l2_miss: f64,
}

/// The Raw emulator's occupancies (Figure 11).
pub(crate) const RAW_EMULATOR: MemOccupancy = MemOccupancy {
    l1_hit: 4.0,
    l2_hit: 87.0,
    l2_miss: 87.0,
};

/// The Pentium III's occupancies (Figure 11).
pub(crate) const PENTIUM_III: MemOccupancy = MemOccupancy {
    l1_hit: 1.0,
    l2_hit: 1.0,
    l2_miss: 1.0,
};

/// The paper's CPI formula (§4.5), verbatim.
pub(crate) fn cpi(inputs: CpiInputs, mem: MemOccupancy) -> f64 {
    inputs.memory_access_rate
        * (((1.0 - inputs.l1_miss_rate) * mem.l1_hit)
            + (inputs.l1_miss_rate
                * (((1.0 - inputs.l2_miss_rate) * mem.l2_hit)
                    + (inputs.l2_miss_rate * mem.l2_miss))))
        + ((1.0 - inputs.memory_access_rate) * inputs.non_memory_cpi)
}

/// The three §4.5 slowdown factors and their product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossBreakdown {
    /// Memory-system factor (CPI ratio).
    pub memory: f64,
    /// Realized-ILP factor.
    pub ilp: f64,
    /// Condition-code (flag extract) factor.
    pub flags: f64,
}

impl LossBreakdown {
    /// The paper's decomposition with its own constants.
    pub fn paper(inputs: CpiInputs) -> LossBreakdown {
        LossBreakdown {
            memory: cpi(inputs, RAW_EMULATOR) / cpi(inputs, PENTIUM_III),
            ilp: 1.3,
            flags: 1.1,
        }
    }

    /// Product of the three factors — the "minimally expected" slowdown.
    pub fn expected_slowdown(&self) -> f64 {
        self.memory * self.ilp * self.flags
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_numbers_reproduce() {
        let b = LossBreakdown::paper(CpiInputs::default());
        // The paper computes ≈ 3.9 for memory and 5.5 overall.
        assert!(
            (3.0..=4.5).contains(&b.memory),
            "memory factor ≈ 3.9, got {}",
            b.memory
        );
        assert!(
            (4.5..=6.5).contains(&b.expected_slowdown()),
            "floor ≈ 5.5, got {}",
            b.expected_slowdown()
        );
    }

    #[test]
    fn pentium_cpi_is_one_by_construction() {
        let c = cpi(CpiInputs::default(), PENTIUM_III);
        assert!((c - 1.0).abs() < 1e-9);
    }

    #[test]
    fn formula_is_monotone_in_occupancy() {
        let i = CpiInputs::default();
        let slow = cpi(
            i,
            MemOccupancy {
                l1_hit: 12.0,
                l2_hit: 180.0,
                l2_miss: 320.0,
            },
        );
        assert!(slow > cpi(i, RAW_EMULATOR) * 1.5);
    }
}
