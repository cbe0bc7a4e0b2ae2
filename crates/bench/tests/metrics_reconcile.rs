//! The windowed-series self-check, as a property over the whole suite:
//! for every benchmark, the per-interval series must sum (counters) and
//! weighted-average (derived rates) back to the end-of-run `Stats`
//! totals exactly, and no counter's series may ever decrease.

use vta_bench::metrics::metrics_benchmark;
use vta_dbt::VirtualArchConfig;
use vta_sim::{Ctr, MetricsConfig, Window};
use vta_workloads::Scale;

const INTERVAL: u64 = 25_000;

fn series_reconciles(name: &str, cfg: VirtualArchConfig) {
    let (report, m) = metrics_benchmark(
        name,
        Scale::Test,
        cfg,
        MetricsConfig {
            interval: INTERVAL,
            ..MetricsConfig::default()
        },
    );
    let (cycles, insns) = (report.cycles, report.guest_insns);

    // Counter sums telescope to the totals for EVERY counter.
    m.reconcile_stats(&report.stats)
        .unwrap_or_else(|e| panic!("{name}: {e}"));

    // Every counter only grows: its running windowed sum never drops.
    for &c in Ctr::ALL.iter() {
        let mut total = m.dropped_totals()[c as usize];
        for w in m.windows() {
            let next = total.wrapping_add(w.delta(c));
            assert!(
                next >= total,
                "{name}: `{}` fell from {total} to {next} in window {}..{}",
                c.name(),
                w.start,
                w.end
            );
            total = next;
        }
    }

    // The two headline sums, spelled out: cycles and insns.
    let wsum = |c: Ctr| -> u64 {
        m.windows()
            .fold(m.dropped_totals()[c as usize], |acc, w| acc + w.delta(c))
    };
    assert_eq!(wsum(Ctr::Cycles), cycles, "{name}");
    assert_eq!(wsum(Ctr::GuestInsns), insns, "{name}");

    // The weighted average of per-window CPI (weights = retired
    // instructions) is exactly the end-of-run CPI.
    let weighted: f64 = m
        .windows()
        .filter_map(|w: &Window| w.cpi().map(|c| c * w.delta(Ctr::GuestInsns) as f64))
        .sum();
    let end_cpi = cycles as f64 / insns as f64;
    let avg = weighted / insns as f64;
    assert!(
        (avg - end_cpi).abs() < 1e-9 * end_cpi,
        "{name}: weighted window CPI {avg} vs end-of-run {end_cpi}"
    );

    // The final window closes exactly at the end of the run.
    let last = m.windows().last().expect("at least one window");
    assert_eq!(last.end, cycles, "{name}");
}

#[test]
fn every_benchmark_series_reconciles() {
    for name in vta_workloads::NAMES {
        series_reconciles(name, VirtualArchConfig::paper_default());
    }
}

/// Morphing retires translator tiles mid-run — parser's one of them
/// busy — and what a retired tile translated stays counted.
#[test]
fn morphing_series_reconcile_and_never_decrease() {
    for name in ["gzip", "parser"] {
        series_reconciles(name, VirtualArchConfig::morphing(0));
    }
}
