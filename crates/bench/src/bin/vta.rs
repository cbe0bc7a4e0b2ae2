//! The one CLI over the experiment harness. Every subcommand reports
//! simulated results only; host speed is `bash benchmark/run.sh`'s job.
//!
//! The command line is parsed in full before anything runs: an unknown
//! subcommand or flag, or a missing or unparsable value, prints the usage
//! on stderr and exits 2. All output goes through `out!`/`outln!`, so a
//! reader that closes the pipe early (`vta diag | head -1`) ends the
//! process quietly with status 0.
//!
//! `check` recomputes the `paper_default` fingerprints (cycles and stats
//! digest), then runs the four figure sweeps (fig4, fig5, fig8, fig9: 16
//! configs × 11 guests) on `--threads` host threads and folds each into
//! one digest over every cell's simulated numbers, and compares all of it
//! with the checked-in `BENCH_dispatch.json` — nothing is rewritten, and
//! any drift exits nonzero. Every cell must also reproduce the reference
//! interpreter's exit code, retired count and output. `--threads N` is
//! the sweep's fan-out: how many `(benchmark, config)` cells run at once;
//! one simulated machine always runs on one host thread. The stdout is
//! identical for every `--threads` value, so ci.sh diffs it across sweep
//! widths to enforce determinism. `fingerprints` prints the same numbers
//! without comparing; `bless` rewrites `BENCH_dispatch.json` from them —
//! only for an intended timing-model change.
//!
//! `superblock` runs the region-formation A/B matrix (gzip/mcf/crafty/
//! interp × both opt levels × off/static/recorded), each cell held to the
//! reference interpreter, after checking the paper-default fingerprints
//! against `BENCH_dispatch.json`; `superblock --check` runs the matrix
//! alone as a fast CI gate.
//!
//! `metrics` runs one benchmark at `Scale::Test` with the windowed
//! metrics layer on and prints the phase report; `--write` exports the
//! series (`metrics_B.{csv,json}`, and `metrics_B_trace.json` whose
//! counter tracks open directly in Perfetto). `metrics --check` instead
//! re-derives the committed `BENCH_metrics_vpr.csv` golden (vpr, fixed
//! interval) and diffs byte-for-byte — regenerate with `metrics --bless`
//! when a simulated-behavior change is intentional.
//!
//! `trace OUT.json` runs one benchmark under `paper_default` with
//! cycle-accurate tracing, writes a Chrome-trace-event JSON file (open it
//! at <https://ui.perfetto.dev>), and prints the utilization report and
//! the manager-duty breakdown.
//!
//! `diag` prints the cycle composition of a default-config run of every
//! benchmark next to the Pentium III baseline (the calibration table
//! behind EXPERIMENTS.md).
//!
//! `fuzz` streams deterministic cases from `vta_ir::fuzz::gen` through
//! the three-way oracle (reference interpreter vs translated path at both
//! optimization levels). Any divergence is minimized on the spot and
//! printed in the corpus file format, ready to commit under
//! `crates/ir/tests/corpus/`; the process then exits nonzero. `--corpus
//! DIR` replays committed reproducers instead. The same `--seed` produces
//! the same case stream and verdicts on every host, which is what lets CI
//! run a fixed-seed smoke sweep as a hard gate.

use vta_bench::figures as f;
use vta_bench::metrics::{metrics_benchmark, phase_summary, series_csv, series_json};
use vta_bench::perf::{
    cycle_fingerprint, figure_sweep_digests, parse_figure_digests, parse_fingerprints, render_json,
    superblock_cells, Fingerprint,
};
use vta_bench::profile::{manager_report, ManagerActivity};
use vta_bench::trace::{chrome_trace_json, trace_benchmark, utilization_report};
use vta_bench::{out, outln, RUN_BUDGET};
use vta_dbt::{RunReport, System, VirtualArchConfig};
use vta_ir::fuzz::{corpus, gen::CaseStream, minimize, run_case, Verdict};
use vta_pentium::PentiumModel;
use vta_sim::{Metrics, MetricsConfig, Tracer};
use vta_workloads::Scale;

const USAGE: &str = "\
usage: vta fingerprints [--threads N]     print the paper_default fingerprints and figure digests
       vta bless [--threads N]            ... and rewrite BENCH_dispatch.json from them
       vta check [--threads N]            ... and compare them with BENCH_dispatch.json
       vta metrics [--bench B] [--interval N] [--write]
       vta metrics --check | --bless      compare / rewrite BENCH_metrics_vpr.csv
       vta superblock [--check]           region-formation A/B matrix
       vta figures [--fig 4|5|6|7|8|9|10|11|cpi|headline|all] [--scale test|small|large] [--csv]
       vta trace OUT.json [--bench B] [--scale test|small|large]
       vta diag                           cycle composition next to the PIII baseline
       vta fuzz [--cases N] [--seed S] [--verbose]
       vta fuzz --corpus DIR [--verbose]";

const FIGS: [&str; 11] = [
    "4", "5", "6", "7", "8", "9", "10", "11", "cpi", "headline", "all",
];

/// A fully parsed command line.
#[derive(Debug, PartialEq)]
enum Cmd {
    Fingerprints {
        threads: usize,
        bless: bool,
    },
    Check {
        threads: usize,
    },
    Metrics {
        bench: String,
        interval: u64,
        write: bool,
    },
    MetricsGolden {
        bless: bool,
    },
    Superblock {
        check_only: bool,
    },
    Figures {
        fig: String,
        scale: Scale,
        csv: bool,
    },
    Trace {
        path: String,
        bench: String,
        scale: Scale,
    },
    Diag,
    Fuzz {
        cases: usize,
        seed: u64,
        verbose: bool,
    },
    FuzzCorpus {
        dir: String,
        verbose: bool,
    },
}

/// The arguments after the subcommand. Each subcommand takes out the
/// flags it knows; whatever is left when it is done is an error.
struct Args(Vec<String>);

impl Args {
    /// Takes the switch `name`, if present.
    fn switch(&mut self, name: &str) -> bool {
        let at = self.0.iter().position(|a| a == name);
        at.map(|i| self.0.remove(i)).is_some()
    }

    /// Takes `name VALUE`, if present, through `parse`.
    fn value<T>(
        &mut self,
        name: &str,
        parse: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else {
            return Ok(None);
        };
        self.0.remove(i);
        if i >= self.0.len() || self.0[i].starts_with("--") {
            return Err(format!("{name} needs a value"));
        }
        let raw = self.0.remove(i);
        match parse(&raw) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("bad value for {name}: {raw}")),
        }
    }

    fn threads(&mut self) -> Result<usize, String> {
        let n = self.value("--threads", |v| v.parse().ok().filter(|&n| n >= 1))?;
        Ok(n.unwrap_or(1))
    }

    fn bench(&mut self) -> Result<String, String> {
        let known = |v: &str| vta_workloads::by_name(v, Scale::Test).map(|_| v.to_string());
        Ok(self
            .value("--bench", known)?
            .unwrap_or_else(|| "vpr".to_string()))
    }

    fn scale(&mut self) -> Result<Scale, String> {
        let scale = self.value("--scale", |v| match v {
            "test" => Some(Scale::Test),
            "small" => Some(Scale::Small),
            "large" => Some(Scale::Large),
            _ => None,
        })?;
        Ok(scale.unwrap_or(Scale::Small))
    }

    /// Takes the one positional argument.
    fn positional(&mut self, what: &str) -> Result<String, String> {
        match self.0.iter().position(|a| !a.starts_with("--")) {
            Some(i) => Ok(self.0.remove(i)),
            None => Err(format!("missing {what}")),
        }
    }

    fn finish(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument {extra}")),
        }
    }
}

fn parse(args: Vec<String>) -> Result<Cmd, String> {
    let mut args = args.into_iter();
    let sub = args.next().ok_or("missing subcommand")?;
    let mut a = Args(args.collect());
    let cmd = match sub.as_str() {
        "fingerprints" | "bless" => Cmd::Fingerprints {
            threads: a.threads()?,
            bless: sub == "bless",
        },
        "check" => Cmd::Check {
            threads: a.threads()?,
        },
        "metrics" => {
            if a.switch("--check") {
                Cmd::MetricsGolden { bless: false }
            } else if a.switch("--bless") {
                Cmd::MetricsGolden { bless: true }
            } else {
                Cmd::Metrics {
                    bench: a.bench()?,
                    interval: a
                        .value("--interval", |v| v.parse().ok().filter(|&n| n >= 1))?
                        .unwrap_or(MetricsConfig::default().interval),
                    write: a.switch("--write"),
                }
            }
        }
        "superblock" => Cmd::Superblock {
            check_only: a.switch("--check"),
        },
        "figures" => Cmd::Figures {
            fig: a
                .value("--fig", |v| FIGS.contains(&v).then(|| v.to_string()))?
                .unwrap_or_else(|| "all".to_string()),
            scale: a.scale()?,
            csv: a.switch("--csv"),
        },
        // The flags and their values go first; what is left is the path.
        "trace" => Cmd::Trace {
            bench: a.bench()?,
            scale: a.scale()?,
            path: a.positional("OUT.json")?,
        },
        "diag" => Cmd::Diag,
        "fuzz" => match a.value("--corpus", |v| Some(v.to_string()))? {
            Some(dir) => Cmd::FuzzCorpus {
                dir,
                verbose: a.switch("--verbose"),
            },
            None => Cmd::Fuzz {
                cases: a.value("--cases", |v| v.parse().ok())?.unwrap_or(10_000),
                seed: a
                    .value("--seed", |v| match v.strip_prefix("0x") {
                        Some(hex) => u64::from_str_radix(hex, 16).ok(),
                        None => v.parse().ok(),
                    })?
                    .unwrap_or(0x5EED),
                verbose: a.switch("--verbose"),
            },
        },
        other => return Err(format!("unknown subcommand {other}")),
    };
    a.finish()?;
    Ok(cmd)
}

fn main() {
    let cmd = parse(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
        eprintln!("vta: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let code = match cmd {
        Cmd::Fingerprints { threads, bless } => fingerprints(threads, bless),
        Cmd::Check { threads } => check(threads),
        Cmd::Metrics {
            bench,
            interval,
            write,
        } => metrics(&bench, interval, write),
        Cmd::MetricsGolden { bless } => metrics_golden(bless),
        Cmd::Superblock { check_only } => superblock(check_only),
        Cmd::Figures { fig, scale, csv } => figures(&fig, scale, csv),
        Cmd::Trace { path, bench, scale } => trace(&path, &bench, scale),
        Cmd::Diag => diag(),
        Cmd::Fuzz {
            cases,
            seed,
            verbose,
        } => fuzz(cases, seed, verbose),
        Cmd::FuzzCorpus { dir, verbose } => fuzz_corpus(&dir, verbose),
    };
    std::process::exit(code);
}

fn write_file(path: &str, content: &str) {
    std::fs::write(path, content).unwrap_or_else(|e| panic!("write {path}: {e}"));
    outln!("wrote {path}");
}

/// `fingerprints` / `bless`: print the `paper_default` fingerprints and
/// the figure sweep digests; `bless` also freezes them.
fn fingerprints(threads: usize, bless: bool) -> i32 {
    let fp = cycle_fingerprint();
    for f in &fp {
        outln!("paper_default cycles {}: {}", f.name, f.cycles);
        outln!("paper_default stats_fp {}: {:016x}", f.name, f.stats_fp);
    }
    let figures = figure_sweep_digests(threads);
    for (name, digest) in &figures {
        outln!("{name} sweep: digest {digest:016x}");
    }
    if bless {
        write_file("BENCH_dispatch.json", &render_json(&fp, &figures));
    }
    0
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

/// `check`: recompute the fingerprints and the four figure sweep digests
/// (the sweeps run on `threads` host threads) and diff both against the
/// checked-in JSON.
///
/// Everything printed to stdout here is independent of `threads`: ci.sh
/// diffs this output across sweep widths.
fn check(threads: usize) -> i32 {
    let (expected, expected_figures) = match frozen() {
        Ok(frozen) => frozen,
        Err(e) => {
            eprintln!("check: {e}");
            return 2;
        }
    };
    let mut bad = fingerprints_drifted("check", &cycle_fingerprint(), &expected);
    for (name, digest) in figure_sweep_digests(threads) {
        match expected_figures.iter().find(|(n, _)| *n == name) {
            Some(&(_, want)) if want == digest => {
                outln!("check: {name} sweep: digest {digest:016x} ok");
            }
            want => {
                eprintln!("check: {name} sweep: drifted: expected {want:x?}, got {digest:016x}");
                bad = true;
            }
        }
    }
    if bad {
        eprintln!(
            "check: simulated behavior drifted; if intentional, refresh with `vta bless` and \
             explain the change"
        );
    }
    i32::from(bad)
}

/// `superblock`: check the fingerprints against the frozen ones, then
/// run the region-formation A/B matrix, whose every cell must match the
/// reference interpreter. With `check_only` the matrix runs alone.
fn superblock(check_only: bool) -> i32 {
    if !check_only {
        let expected = match frozen() {
            Ok((fp, _)) => fp,
            Err(e) => {
                eprintln!("superblock: {e}");
                return 2;
            }
        };
        if fingerprints_drifted("superblock", &cycle_fingerprint(), &expected) {
            return 1;
        }
    }
    let cells = superblock_cells();
    for c in &cells {
        outln!(
            "superblock: {:>7} opt={:<4} mode={:<8} cycles {:>12} block-exits/kinsn {:>8.3} \
             inline_hit {:>8} recorded {:>4}",
            c.bench,
            c.opt,
            c.mode,
            c.cycles,
            c.block_exits_per_kinsn,
            c.inline_hit,
            c.recorded
        );
    }
    outln!(
        "superblock: all {} cells match the reference interpreter (exit code, guest_insns, output)",
        cells.len()
    );
    0
}

/// The committed metrics golden: benchmark, interval, and file name.
const METRICS_GOLDEN: (&str, u64, &str) = ("vpr", 50_000, "BENCH_metrics_vpr.csv");

/// Runs `bench` at `Scale::Test` under `paper_default`, sampling every
/// `interval` cycles; the series must telescope to the end-of-run stats.
fn sampled(bench: &str, interval: u64) -> Result<(RunReport, Metrics), String> {
    let mcfg = MetricsConfig {
        interval,
        ..MetricsConfig::default()
    };
    let (report, m) =
        metrics_benchmark(bench, Scale::Test, VirtualArchConfig::paper_default(), mcfg);
    m.reconcile_stats(&report.stats)
        .map_err(|e| format!("series does not reconcile with Stats: {e}"))?;
    Ok((report, m))
}

/// `metrics`: run one benchmark with windowed sampling on and inspect
/// the series (exported with `write`).
fn metrics(bench: &str, interval: u64, write: bool) -> i32 {
    let (report, m) = match sampled(bench, interval) {
        Ok(run) => run,
        Err(e) => {
            eprintln!("metrics: {e}");
            return 1;
        }
    };
    outln!(
        "metrics: {bench} @ Scale::Test, interval {interval}: {} windows reconcile with \
         end-of-run stats exactly",
        m.len()
    );
    out!("{}", phase_summary(&m, &report));
    if write {
        write_file(&format!("metrics_{bench}.csv"), &series_csv(&m));
        write_file(&format!("metrics_{bench}.json"), &series_json(&m));
        write_file(
            &format!("metrics_{bench}_trace.json"),
            &chrome_trace_json(&Tracer::disabled(), &m),
        );
    }
    0
}

/// `metrics --check` / `--bless`: re-derive the golden series CSV (at
/// the fixed interval) and diff or rewrite it.
fn metrics_golden(bless: bool) -> i32 {
    let (bench, interval, path) = METRICS_GOLDEN;
    let m = match sampled(bench, interval) {
        Ok((_, m)) => m,
        Err(e) => {
            eprintln!("metrics --check: {e}");
            return 1;
        }
    };
    let csv = series_csv(&m);
    if bless {
        write_file(path, &csv);
        return 0;
    }
    let golden = match std::fs::read_to_string(path) {
        Ok(g) => g,
        Err(e) => {
            eprintln!("metrics --check: cannot read {path}: {e}");
            return 2;
        }
    };
    if golden == csv {
        outln!(
            "metrics --check: {bench} series matches {path} ({} windows)",
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
        "metrics --check: {bench} series drifted from {path}: {mismatch}; if the simulated \
         behavior change is intentional, refresh with `vta metrics --bless`"
    );
    1
}

/// `figures`: regenerate the paper's figures/tables.
fn figures(fig: &str, scale: Scale, csv: bool) -> i32 {
    let print = |t: &vta_bench::Table| {
        if csv {
            outln!("{}", t.to_csv());
        } else {
            outln!("{}", t.render());
        }
    };
    match fig {
        "4" => print(&f::fig4(scale)),
        "5" | "6" | "7" => {
            let ms = f::fig5_measurements(scale);
            match fig {
                "5" => print(&f::fig5(&ms)),
                "6" => print(&f::fig6(&ms)),
                _ => print(&f::fig7(&ms)),
            }
        }
        "8" => print(&f::fig8(scale)),
        "9" | "10" => {
            let ms = f::fig9_measurements(scale);
            if fig == "9" {
                print(&f::fig9(&ms));
            } else {
                print(&f::fig10(&ms));
            }
        }
        "11" => outln!("{}", f::fig11()),
        "cpi" => outln!("{}", f::cpi_analysis()),
        "headline" => print(&f::headline(scale)),
        "all" => {
            print(&f::headline(scale));
            print(&f::fig4(scale));
            let ms = f::fig5_measurements(scale);
            print(&f::fig5(&ms));
            print(&f::fig6(&ms));
            print(&f::fig7(&ms));
            print(&f::fig8(scale));
            let ms = f::fig9_measurements(scale);
            print(&f::fig9(&ms));
            print(&f::fig10(&ms));
            outln!("{}", f::fig11());
            outln!("{}", f::cpi_analysis());
        }
        other => unreachable!("parse admits only FIGS, not {other}"),
    }
    0
}

/// `trace`: one traced run, exported for Perfetto and summarized.
fn trace(path: &str, bench: &str, scale: Scale) -> i32 {
    let (report, tracer) =
        trace_benchmark(bench, scale, VirtualArchConfig::paper_default(), 1 << 18);
    std::fs::write(path, chrome_trace_json(&tracer, &Metrics::disabled()))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
    outln!(
        "{bench}: {} cycles, {} trace events ({} dropped) -> {path}",
        report.cycles,
        tracer.len(),
        tracer.dropped()
    );
    outln!("open the file at https://ui.perfetto.dev\n");
    out!("{}", utilization_report(&tracer, report.cycles));
    let manager = ManagerActivity::from_stats(&report.stats, report.cycles);
    out!("{}", manager_report(&manager));
    0
}

/// `diag`: per-benchmark cycle composition of a default-config run next
/// to the Pentium III baseline.
fn diag() -> i32 {
    outln!(
        "{:<12} {:>6} {:>11} {:>11} {:>7} {:>6} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
        "bench",
        "slow",
        "cycles",
        "piii",
        "piiiCPI",
        "emuCPI",
        "hostinsns",
        "l1c.miss",
        "l15.hit",
        "l2c.acc",
        "l2c.miss",
        "chains",
        "memdram"
    );
    for w in vta_workloads::all(Scale::Small) {
        let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
        let r = sys.run(RUN_BUDGET).expect("benchmark runs");
        let p = PentiumModel::new()
            .run(&w.image, RUN_BUDGET)
            .expect("baseline runs");
        let s = &r.stats;
        outln!(
            "{:<12} {:>6.1} {:>11} {:>11} {:>7.2} {:>6.2} {:>9} {:>9} {:>9} {:>9} {:>8} {:>8} {:>8}",
            w.name,
            r.cycles as f64 / p.cycles as f64,
            r.cycles,
            p.cycles,
            p.cpi(),
            r.cycles as f64 / r.guest_insns as f64,
            s.get("host_insns"),
            s.get("l1code.miss"),
            s.get("l15.hit"),
            s.get("l2code.access"),
            s.get("l2code.miss"),
            s.get("chain.taken"),
            s.get("mem.dram"),
        );
        outln!(
            "    piii: insns={} mem={} l1miss={} l2miss={} mispredicts={}",
            p.insns,
            p.mem_accesses,
            p.l1_misses,
            p.l2_misses,
            p.mispredicts
        );
    }
    0
}

/// `fuzz --corpus DIR`: every committed reproducer must pass.
fn fuzz_corpus(dir: &str, verbose: bool) -> i32 {
    let loaded = match corpus::load_dir(std::path::Path::new(dir)) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("fuzz: {e}");
            return 2;
        }
    };
    let mut failed = 0usize;
    for (path, case) in &loaded {
        match run_case(case) {
            Verdict::Pass => {
                if verbose {
                    outln!("PASS  {path}");
                }
            }
            Verdict::Skip(reason) => {
                // Committed cases must be comparable; a skip means
                // the corpus entry no longer tests anything.
                outln!("SKIP  {path} ({reason}) — corpus entries must not skip");
                failed += 1;
            }
            Verdict::Diverge(d) => {
                outln!("FAIL  {path}: {:?} at {:?}: {}", d.channel, d.opt, d.detail);
                failed += 1;
            }
        }
    }
    outln!("corpus: {} replayed, {failed} failed", loaded.len());
    i32::from(failed > 0)
}

/// `fuzz`: a generated batch; the first divergence is minimized, printed
/// as a corpus file, and fails the run.
fn fuzz(cases: usize, seed: u64, verbose: bool) -> i32 {
    let mut passes = 0u64;
    let mut skips = 0u64;
    for (i, case) in CaseStream::new(seed).take(cases).enumerate() {
        match run_case(&case) {
            Verdict::Pass => passes += 1,
            Verdict::Skip(reason) => {
                skips += 1;
                if verbose {
                    outln!("skip  {} ({reason})", case.name);
                }
            }
            Verdict::Diverge(d) => {
                outln!("DIVERGENCE in case {} (#{i}):", case.name);
                outln!("  channel {:?} at {:?}: {}", d.channel, d.opt, d.detail);
                outln!("minimizing…");
                let min = minimize::minimize(&case);
                match run_case(&min) {
                    Verdict::Diverge(md) => {
                        outln!(
                            "  minimized to {} bytes ({:?} at {:?}: {})",
                            min.code.len(),
                            md.channel,
                            md.opt,
                            md.detail
                        );
                    }
                    _ => outln!("  (minimizer lost the divergence; showing original)"),
                }
                outln!("--- corpus file (commit under crates/ir/tests/corpus/) ---");
                out!("{}", corpus::format(&min));
                outln!("-----------------------------------------------------------");
                return 1;
            }
        }
        if verbose && (i + 1) % 1000 == 0 {
            outln!("… {} cases ({passes} pass, {skips} skip)", i + 1);
        }
    }
    outln!(
        "fuzz: {cases} cases at seed {seed:#x}: {passes} passed, {skips} skipped, 0 divergences"
    );
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<Cmd, String> {
        parse(line.split_whitespace().map(str::to_string).collect())
    }

    /// A misspelt subcommand, an unparsable value and a misspelt flag
    /// are errors, never a silent default.
    #[test]
    fn typos_are_rejected_not_ignored() {
        assert!(parse_line("--chekc").unwrap_err().contains("--chekc"));
        assert!(parse_line("check --threads banana")
            .unwrap_err()
            .contains("banana"));
        assert!(parse_line("fuzz --case 5").unwrap_err().contains("--case"));
    }

    #[test]
    fn well_formed_lines_parse() {
        assert_eq!(
            parse_line("check --threads 4"),
            Ok(Cmd::Check { threads: 4 })
        );
        assert_eq!(
            parse_line("fuzz --seed 0xB10C --cases 5"),
            Ok(Cmd::Fuzz {
                cases: 5,
                seed: 0xB10C,
                verbose: false
            })
        );
        assert_eq!(
            parse_line("trace --scale test out.json --bench gzip"),
            Ok(Cmd::Trace {
                path: "out.json".to_string(),
                bench: "gzip".to_string(),
                scale: Scale::Test
            })
        );
        assert_eq!(
            parse_line("metrics --check"),
            Ok(Cmd::MetricsGolden { bless: false })
        );
    }
}
