//! The simulated manager tile's busy cycles, attributed to its four
//! duties — the simulated-clock answer to "is the manager the
//! serialization point". Derived entirely from deterministic counters
//! (`manager.*` in [`vta_sim::Stats`]), so it is bit-identical from run
//! to run. Host wall time is not measured here: `benchmark/run.sh
//! --traced` owns that.

use std::fmt::Write as _;

use vta_sim::Stats;

/// The manager tile's busy cycles by duty, from the `manager.*` counters
/// of a finished run's [`Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerActivity {
    /// Cycles assigning translation jobs to translator tiles
    /// (`manager.assign_cycles`).
    pub assign_cycles: u64,
    /// Cycles committing finished translations into the code cache
    /// (`manager.commit_cycles`).
    pub commit_cycles: u64,
    /// Cycles servicing L2 code-cache lookups and SMC invalidations
    /// (`manager.service_cycles`).
    pub service_cycles: u64,
    /// Cycles applying fabric morphs (`manager.morph_cycles`).
    pub morph_cycles: u64,
    /// Cycles the manager sat blocked on the DRAM `l2meta` walk after
    /// its fixed service time (`manager.dram_wait_cycles`). Reported
    /// beside the duties but **excluded from busy time**: the tile is
    /// stalled on memory, not doing work, and folding it into service
    /// used to overstate the serialization point.
    pub dram_wait_cycles: u64,
    /// Total simulated cycles of the run (the denominator).
    pub total_cycles: u64,
}

impl ManagerActivity {
    /// Extracts the attribution counters from a finished run.
    pub fn from_stats(stats: &Stats, total_cycles: u64) -> Self {
        ManagerActivity {
            assign_cycles: stats.get("manager.assign_cycles"),
            commit_cycles: stats.get("manager.commit_cycles"),
            service_cycles: stats.get("manager.service_cycles"),
            morph_cycles: stats.get("manager.morph_cycles"),
            dram_wait_cycles: stats.get("manager.dram_wait_cycles"),
            total_cycles,
        }
    }

    /// Total attributed manager-busy cycles (DRAM wait excluded — see
    /// [`ManagerActivity::dram_wait_cycles`]).
    pub fn busy_cycles(&self) -> u64 {
        self.assign_cycles + self.commit_cycles + self.service_cycles + self.morph_cycles
    }

    /// Manager occupancy: attributed busy cycles over total cycles.
    pub(crate) fn occupancy(&self) -> f64 {
        self.busy_cycles() as f64 / self.total_cycles.max(1) as f64
    }

    /// The four duties as `(name, cycles)` rows, largest first.
    pub(crate) fn rows(&self) -> Vec<(&'static str, u64)> {
        let mut rows = vec![
            ("assign", self.assign_cycles),
            ("commit", self.commit_cycles),
            ("service", self.service_cycles),
            ("morph", self.morph_cycles),
        ];
        rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        rows
    }
}

/// Renders the manager-duty breakdown (simulated clock domain).
pub fn manager_report(m: &ManagerActivity) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== manager activity (simulated cycles) ==");
    for (name, cycles) in m.rows() {
        let _ = writeln!(
            out,
            "  {:<9} {:>12} cycles  {:>5.1}%",
            name,
            cycles,
            cycles as f64 * 100.0 / m.total_cycles.max(1) as f64
        );
    }
    let _ = writeln!(
        out,
        "  dram_wait {:>12} cycles  {:>5.1}%  (memory stall, not busy)",
        m.dram_wait_cycles,
        m.dram_wait_cycles as f64 * 100.0 / m.total_cycles.max(1) as f64
    );
    let _ = writeln!(
        out,
        "  busy      {:>12} cycles  {:>5.1}% of {} simulated cycles",
        m.busy_cycles(),
        m.occupancy() * 100.0,
        m.total_cycles
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::Ctr;

    fn sample() -> ManagerActivity {
        let mut stats = Stats::new();
        stats.add_ctr(Ctr::ManagerAssignCycles, 300);
        stats.add_ctr(Ctr::ManagerCommitCycles, 200);
        stats.add_ctr(Ctr::ManagerServiceCycles, 400);
        stats.add_ctr(Ctr::ManagerMorphCycles, 100);
        stats.add_ctr(Ctr::ManagerDramWaitCycles, 50);
        ManagerActivity::from_stats(&stats, 10_000)
    }

    #[test]
    fn manager_activity_math() {
        let m = sample();
        assert_eq!(m.assign_cycles, 300);
        assert_eq!(m.busy_cycles(), 1000);
        assert!((m.occupancy() - 0.1).abs() < 1e-9);
        // Rows come out largest-first.
        assert_eq!(m.rows()[0], ("service", 400));
        assert_eq!(m.rows()[3], ("morph", 100));
    }

    #[test]
    fn manager_report_mentions_all_duties() {
        let s = manager_report(&sample());
        for duty in ["assign", "commit", "service", "morph", "dram_wait", "busy"] {
            assert!(s.contains(duty), "{duty} missing from {s}");
        }
        // dram_wait (50 cycles here) must NOT count toward busy time.
        assert!(s.contains("10.0% of 10000 simulated cycles"), "{s}");
        assert!(s.contains("memory stall, not busy"), "{s}");
    }
}
