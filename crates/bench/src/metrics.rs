//! Metrics consumers: windowed-series export (CSV/JSON) and the phase
//! report.
//!
//! The simulator's [`Metrics`] recorder closes one window of counter
//! deltas + gauge samples every `interval` simulated cycles (see
//! `vta_sim::metrics`); this module turns a finished series into things a
//! human (or CI diff) can look at:
//!
//! - [`series_csv`] — one row per window, one column per counter delta,
//!   gauge, and derived rate. Byte-stable for a given (image, config,
//!   interval), so CI diffs it against a committed golden.
//! - [`series_json`] — the same series as a JSON document, for tooling.
//! - [`phase_summary`] — a plain-text phase report: warm-up vs
//!   steady-state CPI, peak queue depth, morph activity and lag.
//!
//! Like the trace exporters, everything is hand-rolled: the workspace has
//! a zero-external-dependency policy.

use std::fmt::Write as _;

use vta_dbt::{RunReport, System, VirtualArchConfig};
use vta_sim::{Ctr, GaugeId, Metrics, MetricsConfig, Window};
use vta_workloads::Scale;

/// Runs `bench` at `scale` under `cfg` with windowed metrics enabled;
/// returns the run report and the sealed series.
///
/// # Panics
///
/// Panics if the benchmark is unknown or the guest faults.
pub fn metrics_benchmark(
    bench: &str,
    scale: Scale,
    cfg: VirtualArchConfig,
    mcfg: MetricsConfig,
) -> (RunReport, Metrics) {
    let w =
        vta_workloads::by_name(bench, scale).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let mut system = System::new(cfg, &w.image);
    system.enable_metrics(mcfg);
    let report = system
        .run(crate::RUN_BUDGET)
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    (report, system.take_metrics())
}

/// D-cache miss rate over a window: data accesses NOT served by the L1
/// D-cache, over all data accesses.
fn dcache_miss_rate(w: &Window) -> Option<f64> {
    let l1 = w.delta(Ctr::MemL1Hit);
    let miss = w.delta(Ctr::MemL2Hit) + w.delta(Ctr::MemDram);
    let total = l1 + miss;
    (total != 0).then(|| miss as f64 / total as f64)
}

/// Appends a fixed-precision optional rate (empty cell when undefined).
fn push_rate(out: &mut String, r: Option<f64>) {
    match r {
        Some(v) => {
            let _ = write!(out, ",{v:.6}");
        }
        None => out.push(','),
    }
}

/// Renders the series as CSV: `start,end`, one column per interned
/// counter delta, one per
/// registered gauge, then the derived `cpi`, `l1code_miss_rate`, and
/// `dcache_miss_rate`. Undefined rates (no events in the window) are
/// empty cells. The output is byte-stable for a fixed (image, config,
/// interval), which is what the CI golden diff relies on.
pub fn series_csv(m: &Metrics) -> String {
    let mut out = String::from("start,end");
    for &c in Ctr::ALL.iter() {
        let _ = write!(out, ",{}", c.name());
    }
    for (_, name) in m.gauges() {
        let _ = write!(out, ",{name}");
    }
    out.push_str(",cpi,l1code_miss_rate,dcache_miss_rate\n");
    for w in m.windows() {
        let _ = write!(out, "{},{}", w.start, w.end);
        for &c in Ctr::ALL.iter() {
            let _ = write!(out, ",{}", w.delta(c));
        }
        // Gauges registered after a window closed are absent from it;
        // pad those cells so every row has the full column count.
        for i in 0..m.gauge_count() {
            match w.gauge(GaugeId(i as u16)) {
                Some(v) => {
                    let _ = write!(out, ",{v}");
                }
                None => out.push(','),
            }
        }
        push_rate(&mut out, w.cpi());
        push_rate(&mut out, w.miss_rate(Ctr::L1CodeMiss, Ctr::L1CodeHit));
        push_rate(&mut out, dcache_miss_rate(w));
        out.push('\n');
    }
    out
}

/// Renders the series as a JSON document: interval, gauge names, one
/// object per window (counter deltas keyed by name, gauge array, derived
/// rates as numbers or `null`), and the point annotations.
pub fn series_json(m: &Metrics) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"interval\": {},", m.interval());
    let _ = writeln!(out, "  \"dropped_windows\": {},", m.dropped());
    let names: Vec<&str> = m.gauges().map(|(_, n)| n).collect();
    let _ = write!(out, "  \"gauges\": [");
    for (i, n) in names.iter().enumerate() {
        let comma = if i + 1 == names.len() { "" } else { ", " };
        let _ = write!(out, "\"{n}\"{comma}");
    }
    let _ = writeln!(out, "],");
    let _ = writeln!(out, "  \"windows\": [");
    let nwin = m.len();
    for (i, w) in m.windows().enumerate() {
        let _ = write!(
            out,
            "    {{\"start\":{},\"end\":{},\"ctrs\":{{",
            w.start, w.end
        );
        let mut firstc = true;
        for &c in Ctr::ALL.iter() {
            let d = w.delta(c);
            if d == 0 {
                continue; // sparse: most counters are quiet most windows
            }
            if !firstc {
                out.push(',');
            }
            firstc = false;
            let _ = write!(out, "\"{}\":{}", c.name(), d);
        }
        let _ = write!(out, "}},\"gauges\":[");
        for i in 0..m.gauge_count() {
            if i > 0 {
                out.push(',');
            }
            match w.gauge(GaugeId(i as u16)) {
                Some(v) => {
                    let _ = write!(out, "{v}");
                }
                None => out.push_str("null"),
            }
        }
        let _ = write!(out, "],\"cpi\":");
        match w.cpi() {
            Some(v) => {
                let _ = write!(out, "{v:.6}");
            }
            None => out.push_str("null"),
        }
        let comma = if i + 1 == nwin { "" } else { "," };
        let _ = writeln!(out, "}}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"events\": [");
    let nev = m.events().count();
    for (i, e) in m.events().enumerate() {
        let comma = if i + 1 == nev { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"ts\":{},\"name\":\"{}\",\"value\":{}}}{comma}",
            e.ts, e.name, e.value
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"events_dropped\": {}", m.events_dropped());
    let _ = writeln!(out, "}}");
    out
}

/// CPI over a slice of windows (sum of cycle deltas over sum of retired
/// instructions), if any instructions retired.
fn slice_cpi(ws: &[&Window]) -> Option<f64> {
    let cycles: u64 = ws.iter().map(|w| w.delta(Ctr::Cycles)).sum();
    let insns: u64 = ws.iter().map(|w| w.delta(Ctr::GuestInsns)).sum();
    (insns > 0).then(|| cycles as f64 / insns as f64)
}

fn fmt_cpi(c: Option<f64>) -> String {
    c.map_or_else(|| "-".to_string(), |v| format!("{v:.3}"))
}

/// Renders the plain-text phase report for a finished run.
///
/// The warm-up phase is the window prefix holding 95% of all committed
/// translations (translation is front-loaded: once the code cache holds
/// the working set, commits stop); everything after is steady state. The
/// report compares the two phases' CPI, shows the peak speculation-queue
/// depth and translator occupancy span, and summarizes morph activity
/// with the decision lag recorded by the manager.
pub fn phase_summary(m: &Metrics, report: &RunReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Phase report: {} cycles, {} guest insns, CPI {:.3} ==",
        report.cycles,
        report.guest_insns,
        report.cycles as f64 / report.guest_insns.max(1) as f64
    );
    let ws: Vec<&Window> = m.windows().collect();
    if ws.is_empty() {
        let _ = writeln!(out, "  (no windows recorded; metrics disabled?)");
        return out;
    }
    let _ = writeln!(
        out,
        "  {} windows of {} cycles ({} evicted from the ring)",
        ws.len(),
        m.interval(),
        m.dropped()
    );

    // Warm-up boundary: smallest prefix with >= 95% of all commits.
    let total_commits: u64 = ws.iter().map(|w| w.delta(Ctr::TranslateCommitted)).sum();
    let mut cut = ws.len();
    let mut acc = 0;
    for (i, w) in ws.iter().enumerate() {
        acc += w.delta(Ctr::TranslateCommitted);
        if acc * 100 >= total_commits * 95 {
            cut = i + 1;
            break;
        }
    }
    let (warm, steady) = ws.split_at(cut.min(ws.len()));
    let warm_end = warm.last().map_or(0, |w| w.end);
    let _ = writeln!(
        out,
        "  warm-up    : cycles 0..{warm_end} ({} windows, {} commits) CPI {}",
        warm.len(),
        acc,
        fmt_cpi(slice_cpi(warm))
    );
    if steady.is_empty() {
        let _ = writeln!(out, "  steady     : (run ended inside warm-up)");
    } else {
        let _ = writeln!(
            out,
            "  steady     : cycles {warm_end}..{} ({} windows) CPI {}",
            steady.last().expect("nonempty").end,
            steady.len(),
            fmt_cpi(slice_cpi(steady))
        );
    }

    // Peak gauge readings, by registered name.
    let peak = |name: &str| -> Option<(u64, u64)> {
        let id = m.gauges().find(|(_, n)| *n == name)?.0;
        ws.iter()
            .filter_map(|w| w.gauge(id).map(|v| (v, w.end)))
            .max()
    };
    if let Some((v, at)) = peak("specq.len") {
        let _ = writeln!(out, "  spec queue : peak depth {v} (window ending {at})");
    }
    if let Some(id) = m
        .gauges()
        .find(|(_, n)| *n == "pool.translators")
        .map(|g| g.0)
    {
        let vals: Vec<u64> = ws.iter().filter_map(|w| w.gauge(id)).collect();
        if let (Some(&min), Some(&max)) = (vals.iter().min(), vals.iter().max()) {
            let _ = writeln!(out, "  translators: occupancy {min}..{max} tiles");
        }
    }

    // Morph activity: the events carry the manager's decision lag.
    let lags: Vec<u64> = m
        .events()
        .filter(|e| e.name.starts_with("morph."))
        .map(|e| e.value)
        .collect();
    if lags.is_empty() {
        let _ = writeln!(out, "  morphing   : no reconfigurations");
    } else {
        let max = lags.iter().max().copied().unwrap_or(0);
        let mean = lags.iter().sum::<u64>() as f64 / lags.len() as f64;
        let _ = writeln!(
            out,
            "  morphing   : {} reconfigurations, decision lag mean {mean:.0} max {max} cycles",
            lags.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::Cycle;

    fn sample_metrics() -> Metrics {
        let mut m = Metrics::new(MetricsConfig {
            interval: 100,
            max_windows: 16,
        });
        m.gauge("specq.len");
        m.gauge("pool.translators");
        let mut s = [0u64; Ctr::COUNT];
        s[Ctr::Cycles as usize] = 100;
        s[Ctr::GuestInsns as usize] = 50;
        s[Ctr::TranslateCommitted as usize] = 9;
        s[Ctr::MemL1Hit as usize] = 30;
        s[Ctr::MemDram as usize] = 10;
        m.sample(Cycle(100), &s, &[4, 6]);
        m.event(Cycle(120), "morph.to_translator", 40);
        let mut f = s;
        f[Ctr::Cycles as usize] = 180;
        f[Ctr::GuestInsns as usize] = 130;
        f[Ctr::TranslateCommitted as usize] = 9;
        m.finish(Cycle(180), &f, &[0, 9]);
        m
    }

    fn sample_report() -> RunReport {
        RunReport {
            stop: vta_dbt::StopCause::Exit,
            exit_code: Some(0),
            cycles: 180,
            guest_insns: 130,
            output: Vec::new(),
            stats: vta_sim::Stats::new(),
        }
    }

    #[test]
    fn csv_has_header_plus_one_row_per_window() {
        let m = sample_metrics();
        let csv = series_csv(&m);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + m.len());
        assert!(lines[0].starts_with("start,end,chain.taken,"));
        assert!(lines[0].contains(",specq.len,pool.translators,cpi,"));
        let cols = lines[0].split(',').count();
        for row in &lines[1..] {
            assert_eq!(row.split(',').count(), cols, "ragged row: {row}");
        }
        assert!(lines[1].starts_with("0,100,"));
        assert!(lines[1].ends_with(",2.000000,,0.250000"), "{}", lines[1]);
    }

    #[test]
    fn json_series_is_well_formed() {
        let m = sample_metrics();
        let s = series_json(&m);
        crate::json_lint::check(&s).expect("valid JSON");
        assert!(s.contains("\"gauges\": [\"specq.len\", \"pool.translators\"]"));
        assert!(s.contains("\"morph.to_translator\""));
        assert!(!s.contains("chain.taken"), "zero deltas stay sparse");
    }

    #[test]
    fn phase_report_splits_warmup_from_steady() {
        let m = sample_metrics();
        let r = phase_summary(&m, &sample_report());
        // All 9 commits land in window 1, so warm-up is exactly window 1.
        assert!(r.contains("warm-up    : cycles 0..100"), "{r}");
        assert!(r.contains("steady     : cycles 100..180"), "{r}");
        assert!(r.contains("peak depth 4"), "{r}");
        assert!(r.contains("1 reconfigurations"), "{r}");
        assert!(r.contains("lag mean 40 max 40"), "{r}");
    }

    #[test]
    fn empty_series_renders_without_panicking() {
        let m = Metrics::disabled();
        let csv = series_csv(&m);
        assert!(csv.starts_with("start,end"));
        crate::json_lint::check(&series_json(&m)).expect("valid JSON");
        let r = phase_summary(&m, &sample_report());
        assert!(r.contains("Phase report"));
    }
}
