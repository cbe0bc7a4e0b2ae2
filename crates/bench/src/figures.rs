//! One function per figure/table of the paper's evaluation section. A
//! figure that simulates reads the cells of its own configurations (its
//! `*_configs` list), benchmark-major as [`crate::sweep_lists`] returns them.

use vta_dbt::VirtualArchConfig;
use vta_ir::OptLevel;

use crate::table::{Format, Table};
use crate::Measurement;

/// A slowdown table of `ms`.
fn slowdown_table(title: &str, ms: &[Measurement]) -> Table {
    let metric = "slowdown vs Pentium III (lower is better)";
    Table::from_measurements(title, metric, ms, Format::Fixed1, Measurement::slowdown)
}

/// The Figure 4 configuration set: 0, 1 and 2 L1.5 code-cache banks.
pub fn fig4_configs() -> Vec<(String, VirtualArchConfig)> {
    vec![
        ("no-L1.5".to_string(), VirtualArchConfig::with_l15_banks(0)),
        (
            "64K-1bank".to_string(),
            VirtualArchConfig::with_l15_banks(1),
        ),
        (
            "128K-2bank".to_string(),
            VirtualArchConfig::with_l15_banks(2),
        ),
    ]
}

/// Figure 4: slowdown under three L1.5 code-cache configurations.
pub fn fig4(ms: &[Measurement]) -> Table {
    slowdown_table("Figure 4: Comparison of L1.5 Code Cache Sizes", ms)
}

/// The Figure 5 configuration set (also reused by Figures 6 and 7).
pub fn fig5_configs() -> Vec<(String, VirtualArchConfig)> {
    let mut v = vec![(
        "1-conservative".to_string(),
        VirtualArchConfig::with_translators(1, false),
    )];
    for n in [1usize, 2, 4, 6, 9] {
        v.push((
            format!("{n}-speculative"),
            VirtualArchConfig::with_translators(n, true),
        ));
    }
    v
}

/// Figure 5: slowdown with differing numbers of translation tiles.
pub fn fig5(ms: &[Measurement]) -> Table {
    slowdown_table(
        "Figure 5: Comparison with Differing Numbers of Translation Tiles",
        ms,
    )
}

/// Figure 6: L2 code-cache accesses per cycle (log scale in the paper).
pub fn fig6(ms: &[Measurement]) -> Table {
    Table::from_measurements(
        "Figure 6: Number of L2 Code Cache Accesses per Cycle",
        "accesses / cycle (log scale)",
        ms,
        Format::Scientific,
        Measurement::l2code_access_rate,
    )
}

/// Figure 7: L2 code-cache misses per access.
pub fn fig7(ms: &[Measurement]) -> Table {
    Table::from_measurements(
        "Figure 7: Number of L2 Code Cache Misses per L2 Code Cache Access",
        "misses / access (log scale)",
        ms,
        Format::Scientific,
        Measurement::l2code_miss_rate,
    )
}

/// The Figure 8 configuration set: the morphing configuration without
/// and with code optimization.
pub fn fig8_configs() -> Vec<(String, VirtualArchConfig)> {
    let mut no_opt = VirtualArchConfig::morphing(15);
    no_opt.opt = OptLevel::None;
    vec![
        ("no-opt".to_string(), no_opt),
        ("opt".to_string(), VirtualArchConfig::morphing(15)),
    ]
}

/// Figure 8: with vs without code optimization (dynamic 6→9 config in
/// the paper; we use the same morphing configuration).
pub fn fig8(ms: &[Measurement]) -> Table {
    slowdown_table(
        "Figure 8: No Code Optimization versus Code Optimization",
        ms,
    )
}

/// The Figure 9 configuration set.
pub fn fig9_configs() -> Vec<(String, VirtualArchConfig)> {
    vec![
        (
            "1mem/9trans".to_string(),
            VirtualArchConfig::mem_trans(1, 9),
        ),
        (
            "4mem/6trans".to_string(),
            VirtualArchConfig::mem_trans(4, 6),
        ),
        ("morph-t15".to_string(), VirtualArchConfig::morphing(15)),
        ("morph-t0".to_string(), VirtualArchConfig::morphing(0)),
        ("morph-t5".to_string(), VirtualArchConfig::morphing(5)),
    ]
}

/// Figure 9: static vs morphing configurations (absolute slowdown).
pub fn fig9(ms: &[Measurement]) -> Table {
    slowdown_table(
        "Figure 9: Trading Silicon Between L2 Data Cache and Translation",
        ms,
    )
}

/// Figure 10: Figure 9 normalized to the 1mem/9trans configuration
/// (percent faster; higher is better).
pub fn fig10(ms: &[Measurement]) -> Table {
    let base = fig9(ms);
    let mut t = Table {
        title: "Figure 10: Relative Performance vs 1mem/9trans (higher is better)".to_string(),
        metric: "percent faster than the 1mem/9trans static configuration".to_string(),
        columns: base.columns[1..].to_vec(),
        rows: Vec::new(),
        format: Format::Percent,
    };
    for (bench, cells) in &base.rows {
        let reference = cells[0];
        let rel: Vec<f64> = cells[1..]
            .iter()
            .map(|&v| (reference / v - 1.0) * 100.0)
            .collect();
        t.rows.push((bench.clone(), rel));
    }
    t
}

/// Figure 11: architecture intrinsics (measured from the live models).
pub fn fig11() -> String {
    use vta_dbt::memsys::MemSys;
    use vta_dbt::Timing;
    use vta_raw::{Dram, TileId};
    use vta_sim::Cycle;

    let t = Timing::default();
    let exec = TileId::new(1, 1);
    let mmu = TileId::new(2, 1);
    let mut mem = MemSys::new(&[TileId::new(2, 2), TileId::new(3, 1)], 32 * 1024);
    let mut dram = Dram::new(t.dram_latency, t.dram_word);
    let tr = &mut vta_sim::Tracer::disabled();

    // Warm the TLB so the probes measure the memory path, not the walk.
    mem.access(Cycle(0), 0x0, false, exec, mmu, &mut dram, &t, tr);
    // DRAM miss with a warm TLB (same page, new line).
    let (miss, _) = mem.access(Cycle(10_000), 0x80, false, exec, mmu, &mut dram, &t, tr);
    // L1 hit.
    let (hit, _) = mem.access(Cycle(20_000), 0x80, false, exec, mmu, &mut dram, &t, tr);
    // Evict line 0 from the 2-way L1 set, leaving it in its L2 bank.
    mem.access(Cycle(30_000), 0x4000, false, exec, mmu, &mut dram, &t, tr);
    mem.access(Cycle(40_000), 0x8000, false, exec, mmu, &mut dram, &t, tr);
    let (l2hit, _) = mem.access(Cycle(50_000), 0x0, false, exec, mmu, &mut dram, &t, tr);

    let mut out = String::new();
    out.push_str("== Figure 11: Architecture Intrinsics ==\n");
    out.push_str("intrinsic        Raw emulator (measured)   PIII (model)   paper (emu/PIII)\n");
    out.push_str(&format!(
        "L1 cache hit     occ {hit:>3}                   lat {} occ 1    lat 6 occ 4 / lat 3 occ 1\n",
        vta_pentium::L1_LATENCY
    ));
    out.push_str(&format!(
        "L2 cache hit     occ {l2hit:>3}                   lat {} occ 1    lat/occ 87 / lat 7 occ 1\n",
        vta_pentium::L2_LATENCY
    ));
    out.push_str(&format!(
        "L2 cache miss    occ {miss:>3}                   lat {} occ 1   lat 151 occ 87 / lat 79 occ 1\n",
        vta_pentium::MEM_LATENCY
    ));
    out.push_str("exec units       1                         3              1 / 3\n");
    out
}

/// The §4.5 CPI decomposition.
pub fn cpi_analysis() -> String {
    use vta_pentium::analysis::{CpiInputs, LossBreakdown};
    let b = LossBreakdown::paper(CpiInputs::default());
    format!(
        "== Section 4.5: expected slowdown floor ==\n\
         memory system factor : {:.2}x (paper: 3.9x)\n\
         realized ILP factor  : {:.2}x (paper: 1.3x)\n\
         condition-code factor: {:.2}x (paper: 1.1x)\n\
         expected floor       : {:.2}x (paper: 5.5x)\n",
        b.memory,
        b.ilp,
        b.flags,
        b.expected_slowdown()
    )
}

/// The §1 headline's one configuration, the default machine.
pub fn headline_configs() -> Vec<(String, VirtualArchConfig)> {
    vec![(
        "6-speculative".to_string(),
        VirtualArchConfig::paper_default(),
    )]
}

/// The §1 headline: slowdown range across the suite at the default
/// configuration ("approximately a 7x-110x slowdown").
pub fn headline(ms: &[Measurement]) -> Table {
    Table::from_measurements(
        "Headline: slowdown vs Pentium III at the default configuration",
        "slowdown (paper reports 7x-110x across SpecInt)",
        ms,
        Format::Fixed1,
        Measurement::slowdown,
    )
}
