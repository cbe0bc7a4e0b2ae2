//! The simulated-result gate: recomputes the frozen fingerprints and
//! maintains the `BENCH_*` artifacts. Host speed is not measured here —
//! `bash benchmark/run.sh` is the one instrument that times the host.
//!
//! ```text
//! cargo run --release -p vta-bench --bin perf                  # print the fingerprints
//! cargo run --release -p vta-bench --bin perf -- --check       # verify determinism
//! cargo run --release -p vta-bench --bin perf -- --check --threads 4   # sweep on 4 host threads
//! cargo run --release -p vta-bench --bin perf -- --metrics     # windowed time series
//! cargo run --release -p vta-bench --bin perf -- --superblock  # superblock A/B matrix
//! cargo run --release -p vta-bench --bin perf -- --profile     # host wall-time breakdown
//! ```
//!
//! Every mode only prints unless told otherwise: `--write` makes the
//! mode refresh its artifact (`BENCH_dispatch.json` for the plain
//! fingerprints, `BENCH_superblock.json` for `--superblock`,
//! `BENCH_profile.json` + `profile_B_trace.json` for
//! `--profile`, `metrics_B.{csv,json}` + `metrics_B_trace.json` for
//! `--metrics`), and `--metrics --bless` rewrites the metrics golden.
//!
//! `--check` recomputes the `paper_default` fingerprints (cycles and
//! stats digest), then runs the four figure sweeps (fig4, fig5, fig8,
//! fig9: 16 configs × 11 guests) on `--threads` host threads and folds
//! each into one digest over every cell's simulated numbers, and
//! compares all of it against the checked-in `BENCH_dispatch.json` —
//! nothing is rewritten, and any drift exits nonzero. `--threads N` is
//! the sweep's fan-out: how many `(benchmark, config)` cells run at once
//! (`vta_bench::sweep_threads`); one simulated machine always runs on
//! one host thread. The `--check` stdout is identical for every
//! `--threads` value, so ci.sh diffs it across sweep widths to enforce
//! determinism.
//!
//! `--superblock` runs the region-formation A/B matrix (gzip/mcf/crafty/
//! interp × both opt levels × off/static/recorded superblock modes),
//! asserts guest-instruction retirement reconciles across the modes,
//! checks the paper-default fingerprints against `BENCH_dispatch.json`,
//! and measures the `Scale::Large` wall highlights. `--superblock
//! --check` runs only the cell matrix and the retirement reconciliation
//! as a fast CI gate.
//!
//! `--metrics [--bench B] [--interval N]` runs one benchmark at
//! `Scale::Test` with the windowed metrics layer on and prints the phase
//! report; the exported counter tracks open directly in Perfetto.
//! `--metrics --check` instead re-derives the committed
//! `BENCH_metrics_vpr.csv` golden (vpr, fixed interval) and diffs
//! byte-for-byte — regenerate with `--metrics --bless` when a
//! simulated-behavior change is intentional.
//!
//! `--profile [--bench B] [--scale test|small|large]` runs one benchmark
//! (default: crafty at `Scale::Large`) with the host wall-clock span
//! profiler AND the cycle tracer enabled, and prints the top-phases
//! table plus the manager-duty breakdown (deterministic `manager.*`
//! cycle counters); the exported timeline merges both clocks
//! (simulated-cycle tracks as process 1, host wall tracks as process
//! 2). `--profile --overhead` measures the profiler's own cost on the
//! fingerprint benchmarks and fails if the fastest run is >5% slower
//! than with profiling off.

use vta_bench::metrics::{metrics_benchmark, phase_summary, series_csv, series_json};
use vta_bench::perf::{
    cycle_fingerprint, figure_sweep_digests, parse_figure_digests, parse_fingerprints, render_json,
    render_superblock_json, superblock_cells, superblock_highlights, superblock_reconciles,
    Fingerprint,
};
use vta_bench::profile::{
    manager_report, profile_benchmark, profile_overhead, render_profile_json, top_phases_report,
};
use vta_bench::trace::{chrome_trace_json_two_clock, chrome_trace_json_with_metrics};
use vta_bench::{out, outln};
use vta_dbt::VirtualArchConfig;
use vta_sim::{MetricsConfig, Tracer};
use vta_workloads::Scale;

/// Value of a `--flag N` argument, if present.
fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
    }
    None
}

fn threads_arg() -> usize {
    arg_value("--threads")
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

fn flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Writes the artifacts of a `--write` run, or says what was skipped.
fn write_artifacts(write: bool, files: &[(String, String)]) {
    if !write {
        let paths: Vec<&str> = files.iter().map(|(p, _)| p.as_str()).collect();
        outln!("(print only: --write refreshes {})", paths.join(", "));
        return;
    }
    for (path, content) in files {
        std::fs::write(path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
        outln!("wrote {path}");
    }
}

/// What `BENCH_dispatch.json` freezes: the fingerprints and the figure
/// sweep digests.
type Frozen = (Vec<Fingerprint>, Vec<(String, u64)>);

/// Reads the checked-in `BENCH_dispatch.json`.
fn frozen() -> Result<Frozen, String> {
    let json = std::fs::read_to_string("BENCH_dispatch.json")
        .map_err(|e| format!("cannot read BENCH_dispatch.json: {e}"))?;
    let parse_err = |e| format!("cannot parse BENCH_dispatch.json: {e}");
    Ok((
        parse_fingerprints(&json).map_err(parse_err)?,
        parse_figure_digests(&json).map_err(parse_err)?,
    ))
}

/// Prints one `ok` line per fingerprint whose cycles and stats digest
/// both match `expected`; returns whether any drifted or is missing.
fn fingerprints_drifted(mode: &str, actual: &[Fingerprint], expected: &[Fingerprint]) -> bool {
    let mut bad = false;
    for fp in actual {
        match expected.iter().find(|want| want.name == fp.name) {
            Some(want) if want == fp => {
                outln!(
                    "{mode}: {}: {} stats_fp {:016x} ok",
                    fp.name,
                    fp.cycles,
                    fp.stats_fp
                );
            }
            Some(want) => {
                eprintln!(
                    "{mode}: {}: drifted: expected cycles {} stats_fp {:016x}, got cycles {} \
                     stats_fp {:016x}",
                    fp.name, want.cycles, want.stats_fp, fp.cycles, fp.stats_fp
                );
                bad = true;
            }
            None => {
                eprintln!("{mode}: {}: missing from BENCH_dispatch.json", fp.name);
                bad = true;
            }
        }
    }
    bad
}

/// Recomputes the fingerprints and the four figure sweep digests (the
/// sweeps run on `threads` host threads) and diffs both against the
/// checked-in JSON. Returns the process exit code.
///
/// Everything printed to stdout here is independent of `threads`: ci.sh
/// diffs this output across sweep widths.
fn check(threads: usize) -> i32 {
    let (expected, expected_figures) = match frozen() {
        Ok(frozen) => frozen,
        Err(e) => {
            eprintln!("--check: {e}");
            return 2;
        }
    };
    let mut bad = fingerprints_drifted("--check", &cycle_fingerprint(), &expected);
    for (name, digest) in figure_sweep_digests(threads) {
        match expected_figures.iter().find(|(n, _)| *n == name) {
            Some(&(_, want)) if want == digest => {
                outln!("--check: {name} sweep: digest {digest:016x} ok");
            }
            want => {
                eprintln!("--check: {name} sweep: drifted: expected {want:x?}, got {digest:016x}");
                bad = true;
            }
        }
    }
    if bad {
        eprintln!(
            "--check: simulated behavior drifted; if intentional, refresh with \
             `perf -- --write` and explain the change"
        );
        1
    } else {
        0
    }
}

/// `--superblock` mode: check the fingerprints against the frozen
/// ones, run the region-formation A/B matrix, assert retirement
/// reconciles across modes, and measure the `Scale::Large` highlights
/// (`BENCH_superblock.json` with `--write`). With `check_only` the
/// matrix + reconciliation run alone (fast CI gate). Returns the
/// process exit code.
fn superblock_mode(check_only: bool, write: bool) -> i32 {
    if !check_only {
        let expected = match frozen() {
            Ok((fp, _)) => fp,
            Err(e) => {
                eprintln!("--superblock: {e}");
                return 2;
            }
        };
        if fingerprints_drifted("--superblock", &cycle_fingerprint(), &expected) {
            return 1;
        }
    }
    let cells = superblock_cells();
    for c in &cells {
        outln!(
            "--superblock: {:>7} opt={:<4} mode={:<8} cycles {:>12} block-exits/kinsn {:>8.3} \
             inline_hit {:>8} recorded {:>4} wall {:.3}s",
            c.bench,
            c.opt,
            c.mode,
            c.cycles,
            c.block_exits_per_kinsn(),
            c.inline_hit,
            c.sb_recorded,
            c.wall_seconds
        );
    }
    if let Err(e) = superblock_reconciles(&cells) {
        eprintln!("--superblock: guest retirement does not reconcile: {e}");
        return 1;
    }
    outln!("--superblock: guest_insns identical across off/static/recorded per bench x opt");
    if check_only {
        return 0;
    }
    let highlights = superblock_highlights();
    for h in &highlights {
        outln!(
            "--superblock: large {:>7} cycles {:>12} / {:>12} / {:>12} block-exits/kinsn \
             {:>8.3} / {:>8.3} / {:>8.3} wall {:.3}s / {:.3}s / {:.3}s (off/static/recorded)",
            h.bench,
            h.cycles_off,
            h.cycles_static,
            h.cycles_on,
            h.block_exits_off,
            h.block_exits_static,
            h.block_exits_on,
            h.wall_off,
            h.wall_static,
            h.wall_on
        );
    }
    let json = render_superblock_json(&cells, &highlights, true);
    write_artifacts(write, &[("BENCH_superblock.json".to_string(), json)]);
    0
}

/// `--profile` mode: run one benchmark with the host wall profiler and
/// the cycle tracer both on, print the two breakdowns (host wall
/// phases; manager duties in simulated cycles); with `--write` also
/// the trajectory JSON plus the merged two-clock Perfetto timeline.
/// Returns the process exit code.
fn profile_mode(write: bool) -> i32 {
    let bench = arg_value("--bench").unwrap_or_else(|| "crafty".to_string());
    let scale = match arg_value("--scale").as_deref() {
        None | Some("large") => Scale::Large,
        Some("small") => Scale::Small,
        Some("test") => Scale::Test,
        Some(other) => {
            eprintln!("--profile: unknown --scale {other} (want test|small|large)");
            return 2;
        }
    };
    let run = profile_benchmark(&bench, scale, 1 << 16);
    outln!(
        "--profile: {} @ Scale::{:?}: {} cycles, {} guest insns, wall {:.3}s",
        run.bench,
        scale,
        run.cycles,
        run.guest_insns,
        run.wall_seconds
    );
    out!("{}", top_phases_report(&run.profile));
    out!("{}", manager_report(&run.manager));
    write_artifacts(
        write,
        &[
            ("BENCH_profile.json".to_string(), render_profile_json(&run)),
            (
                format!("profile_{bench}_trace.json"),
                chrome_trace_json_two_clock(&run.tracer, None, Some(&run.profile)),
            ),
        ],
    );
    0
}

/// `--profile --overhead`: the profiler must be close to free. Runs
/// the fingerprint benchmarks with profiling off and on (interleaved,
/// min-of-N to shed scheduler noise) and fails if enabling it costs
/// more than 5% wall.
fn overhead_mode() -> i32 {
    let (off, on) = profile_overhead(9);
    let ratio = on / off.max(1e-9);
    outln!(
        "--profile --overhead: fingerprint benches min wall {off:.3}s off, {on:.3}s on \
         ({ratio:.3}x)"
    );
    if ratio > 1.05 {
        eprintln!(
            "--profile --overhead: FAIL: profiling costs {:.1}% (> 5% budget)",
            (ratio - 1.0) * 100.0
        );
        1
    } else {
        outln!("--profile --overhead: ok (within the 5% budget)");
        0
    }
}

/// The committed metrics golden: benchmark, interval, and file name.
const METRICS_GOLDEN: (&str, u64, &str) = ("vpr", 50_000, "BENCH_metrics_vpr.csv");

/// `--metrics` mode: run one benchmark with windowed sampling on and
/// inspect the series (exported with `--write`). Returns the process
/// exit code.
fn metrics_mode(write: bool) -> i32 {
    let bless = flag("--bless");
    if flag("--check") || bless {
        return metrics_check(bless);
    }
    let bench = arg_value("--bench").unwrap_or_else(|| "vpr".to_string());
    let interval = arg_value("--interval")
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(MetricsConfig::default().interval);
    let mcfg = MetricsConfig {
        interval,
        ..MetricsConfig::default()
    };
    let (report, m) = metrics_benchmark(
        &bench,
        Scale::Test,
        VirtualArchConfig::paper_default(),
        mcfg,
    );
    if let Err(e) = m.reconcile_stats(&report.stats) {
        eprintln!("--metrics: series does not reconcile with Stats: {e}");
        return 1;
    }
    outln!(
        "--metrics: {bench} @ Scale::Test, interval {interval}: {} windows reconcile with \
         end-of-run stats exactly",
        m.len()
    );
    out!("{}", phase_summary(&m, &report));
    write_artifacts(
        write,
        &[
            (format!("metrics_{bench}.csv"), series_csv(&m)),
            (format!("metrics_{bench}.json"), series_json(&m)),
            (
                format!("metrics_{bench}_trace.json"),
                chrome_trace_json_with_metrics(&Tracer::disabled(), Some(&m)),
            ),
        ],
    );
    0
}

/// `--metrics --check` / `--bless`: re-derive the golden series CSV
/// (at the fixed interval) and diff or rewrite it.
fn metrics_check(bless: bool) -> i32 {
    let (bench, interval, path) = METRICS_GOLDEN;
    let (report, m) = metrics_benchmark(
        bench,
        Scale::Test,
        VirtualArchConfig::paper_default(),
        MetricsConfig {
            interval,
            ..MetricsConfig::default()
        },
    );
    if let Err(e) = m.reconcile_stats(&report.stats) {
        eprintln!("--metrics --check: series does not reconcile with Stats: {e}");
        return 1;
    }
    let csv = series_csv(&m);
    if bless {
        std::fs::write(path, &csv).unwrap_or_else(|e| panic!("write {path}: {e}"));
        outln!("wrote {path} ({} windows)", m.len());
        return 0;
    }
    let golden = match std::fs::read_to_string(path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("--metrics --check: cannot read {path}: {e}");
            return 2;
        }
    };
    if golden == csv {
        outln!(
            "--metrics --check: {bench} series matches {path} ({} windows)",
            m.len()
        );
        return 0;
    }
    let mismatch = golden
        .lines()
        .zip(csv.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || {
                format!(
                    "line counts differ ({} vs {})",
                    golden.lines().count(),
                    csv.lines().count()
                )
            },
            |i| format!("first difference at line {}", i + 1),
        );
    eprintln!(
        "--metrics --check: {bench} series drifted from {path}: {mismatch}; if the simulated \
         behavior change is intentional, refresh with `perf -- --metrics --bless`"
    );
    1
}

fn main() {
    let threads = threads_arg();
    let write = flag("--write");
    let profiled = flag("--profile");
    let code = if flag("--metrics") {
        metrics_mode(write)
    } else if flag("--superblock") {
        superblock_mode(flag("--check"), write)
    } else if profiled && flag("--overhead") {
        overhead_mode()
    } else if flag("--check") {
        check(threads)
    } else if profiled {
        profile_mode(write)
    } else {
        fingerprints_mode(threads, write)
    };
    std::process::exit(code);
}

/// Plain `perf`: print the `paper_default` fingerprints and the figure
/// sweep digests (`BENCH_dispatch.json` with `--write`).
fn fingerprints_mode(threads: usize, write: bool) -> i32 {
    let fp = cycle_fingerprint();
    for f in &fp {
        outln!("paper_default cycles {}: {}", f.name, f.cycles);
        outln!("paper_default stats_fp {}: {:016x}", f.name, f.stats_fp);
    }
    let figures = figure_sweep_digests(threads);
    for (name, digest) in &figures {
        outln!("{name} sweep: digest {digest:016x}");
    }
    write_artifacts(
        write,
        &[(
            "BENCH_dispatch.json".to_string(),
            render_json(&fp, &figures),
        )],
    );
    0
}
