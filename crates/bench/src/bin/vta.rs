//! The one CLI over the experiment harness. Every subcommand reports
//! simulated results only; host speed is `bash benchmark/run.sh`'s job.
//!
//! The command line is parsed in full before anything runs: an unknown
//! subcommand or flag, or a missing or unparsable value, prints the usage
//! on stderr and exits 2. All output goes through `out!`/`outln!`, so a
//! reader that closes the pipe early (`vta diag | head -1`) ends the
//! process quietly with status 0. A file that cannot be written prints
//! `vta: write PATH: ...` on stderr and exits 1; a file is written whole
//! or not at all.
//!
//! `check` is the one simulated-result gate. It recomputes every frozen
//! value of `BENCH_dispatch.json` (`vta_bench::perf::entries`: the
//! `paper_default` cycles and stats digests, one digest per figure sweep,
//! the single-block sweep digest, the vpr metrics-series digest and a
//! digest of every block the translator makes per guest and opt level)
//! and compares them row by row with the checked-in file — nothing is
//! rewritten, and a drifted, missing or extra row exits nonzero, naming
//! its section and row. Every simulated cell must also reproduce the
//! reference interpreter's exit code, retired count and output.
//! `--threads N` is the sweeps' fan-out: how many `(benchmark, config)`
//! cells run at once; one simulated machine always runs on one host
//! thread. The stdout is identical for every `--threads` value, so ci.sh
//! diffs it across sweep widths to enforce determinism. `bless` prints
//! the same rows and rewrites `BENCH_dispatch.json` from them — only for
//! an intended timing-model change.
//!
//! `metrics` runs one benchmark at `Scale::Test` with the windowed
//! metrics layer on and prints the phase report; `--write` exports the
//! series (`metrics_B.{csv,json}`, and `metrics_B_trace.json` whose
//! counter tracks open directly in Perfetto).
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
//! the differential oracle (reference interpreter vs translated path at both
//! optimization levels). Any divergence is minimized on the spot and
//! printed in the corpus file format, ready to commit under
//! `crates/ir/tests/corpus/`; the process then exits nonzero. `--corpus
//! DIR` replays committed reproducers instead. The same `--seed` produces
//! the same case stream and verdicts on every host, which is what lets CI
//! run a fixed-seed smoke sweep as a hard gate.

use vta_bench::figures as f;
use vta_bench::metrics::{metrics_benchmark, phase_summary, series_csv, series_json};
use vta_bench::perf::{compare, entries, parse_json, render_json};
use vta_bench::profile::{manager_report, ManagerActivity};
use vta_bench::trace::{chrome_trace_json, trace_benchmark, utilization_report};
use vta_bench::{out, outln, RUN_BUDGET};
use vta_dbt::{System, VirtualArchConfig};
use vta_ir::fuzz::{corpus, gen::CaseStream, minimize, run_case, Verdict};
use vta_pentium::PentiumModel;
use vta_sim::{Metrics, MetricsConfig, Tracer};
use vta_workloads::Scale;

const USAGE: &str = "\
usage: vta check [--threads N]            compare every simulated result with BENCH_dispatch.json
       vta bless [--threads N]            ... print them and rewrite BENCH_dispatch.json
       vta metrics [--bench B] [--interval N] [--write]
       vta figures [--fig 4|5|6|7|8|9|10|11|cpi|headline|all] [--scale test|small|large] [--csv]
       vta trace OUT.json [--bench B] [--scale test|small|large]
       vta diag                           cycle composition next to the PIII baseline
       vta fuzz [--cases N] [--seed S] [--verbose]
       vta fuzz --corpus DIR [--verbose]";

/// The file `check` compares with and `bless` writes.
const FROZEN: &str = "BENCH_dispatch.json";

const FIGS: [&str; 11] = [
    "4", "5", "6", "7", "8", "9", "10", "11", "cpi", "headline", "all",
];

/// A fully parsed command line.
#[derive(Debug, PartialEq)]
enum Cmd {
    Check {
        threads: usize,
    },
    Bless {
        threads: usize,
    },
    Metrics {
        bench: String,
        interval: u64,
        write: bool,
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
        "check" => Cmd::Check {
            threads: a.threads()?,
        },
        "bless" => Cmd::Bless {
            threads: a.threads()?,
        },
        "metrics" => Cmd::Metrics {
            bench: a.bench()?,
            interval: a
                .value("--interval", |v| v.parse().ok().filter(|&n| n >= 1))?
                .unwrap_or(MetricsConfig::default().interval),
            write: a.switch("--write"),
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
        Cmd::Check { threads } => check(threads),
        Cmd::Bless { threads } => bless(threads),
        Cmd::Metrics {
            bench,
            interval,
            write,
        } => metrics(&bench, interval, write),
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

/// Writes `content` to `path` whole or not at all: into a temporary file
/// beside it, renamed over `path` once complete.
///
/// # Errors
///
/// `write PATH: ...` if either step fails; the temporary file is removed.
fn write_file(path: &str, content: &str) -> Result<(), String> {
    let tmp = format!("{path}.tmp");
    if let Err(e) = std::fs::write(&tmp, content).and_then(|()| std::fs::rename(&tmp, path)) {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!("write {path}: {e}"));
    }
    outln!("wrote {path}");
    Ok(())
}

/// Reports a failed write; the exit status for it.
fn write_failed(e: &str) -> i32 {
    eprintln!("vta: {e}");
    1
}

/// `check`: recompute every frozen value (the sweeps on `threads` host
/// threads) and compare it with the checked-in `BENCH_dispatch.json`.
///
/// Everything printed to stdout here is independent of `threads`: ci.sh
/// diffs this output across sweep widths.
fn check(threads: usize) -> i32 {
    let frozen = std::fs::read_to_string(FROZEN)
        .map_err(|e| format!("cannot read {FROZEN}: {e}"))
        .and_then(|json| parse_json(&json).map_err(|e| format!("cannot parse {FROZEN}: {e}")));
    let frozen = match frozen {
        Ok(frozen) => frozen,
        Err(e) => {
            eprintln!("check: {e}");
            return 2;
        }
    };
    let mut drifted = false;
    for line in compare(&frozen, &entries(threads)) {
        match line {
            Ok(ok) => outln!("check: {ok}"),
            Err(bad) => {
                eprintln!("check: {bad}");
                drifted = true;
            }
        }
    }
    if drifted {
        eprintln!(
            "check: simulated behavior drifted; if intentional, refresh with `vta bless` and \
             explain the change"
        );
    }
    i32::from(drifted)
}

/// `bless`: recompute every frozen value, print it, and rewrite
/// `BENCH_dispatch.json` from them.
fn bless(threads: usize) -> i32 {
    let entries = entries(threads);
    for e in &entries {
        outln!("bless: {}: {}", e.name(), e.value);
    }
    match write_file(FROZEN, &render_json(&entries)) {
        Ok(()) => 0,
        Err(e) => write_failed(&e),
    }
}

/// `metrics`: run one benchmark at `Scale::Test` under `paper_default`
/// with windowed sampling every `interval` cycles, check that the series
/// telescopes to the end-of-run stats, and inspect it (exported with
/// `write`).
fn metrics(bench: &str, interval: u64, write: bool) -> i32 {
    let mcfg = MetricsConfig {
        interval,
        ..MetricsConfig::default()
    };
    let (report, m) =
        metrics_benchmark(bench, Scale::Test, VirtualArchConfig::paper_default(), mcfg);
    if let Err(e) = m.reconcile_stats(&report.stats) {
        eprintln!("metrics: series does not reconcile with Stats: {e}");
        return 1;
    }
    outln!(
        "metrics: {bench} @ Scale::Test, interval {interval}: {} windows reconcile with \
         end-of-run stats exactly",
        m.len()
    );
    out!("{}", phase_summary(&m, &report));
    if write {
        let files = [
            (format!("metrics_{bench}.csv"), series_csv(&m)),
            (format!("metrics_{bench}.json"), series_json(&m)),
            (
                format!("metrics_{bench}_trace.json"),
                chrome_trace_json(&Tracer::disabled(), &m),
            ),
        ];
        for (path, content) in files {
            if let Err(e) = write_file(&path, &content) {
                return write_failed(&e);
            }
        }
    }
    0
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
    if let Err(e) = write_file(path, &chrome_trace_json(&tracer, &Metrics::disabled())) {
        return write_failed(&e);
    }
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
        assert_eq!(parse_line("bless"), Ok(Cmd::Bless { threads: 1 }));
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
    }

    /// `check` and `bless` are the only gate: the retired ones are
    /// unknown, not aliases.
    #[test]
    fn retired_gates_are_rejected() {
        for line in [
            "fingerprints",
            "superblock --check",
            "metrics --check",
            "metrics --bless",
        ] {
            assert!(parse_line(line).is_err(), "{line}");
        }
    }

    #[test]
    fn a_write_into_a_missing_directory_is_an_error() {
        let dir = std::env::temp_dir().join(format!("vta-missing-{}", std::process::id()));
        let path = dir.join("x.json");
        let path = path.to_str().expect("utf-8 path");
        let err = write_file(path, "{}").expect_err("no such directory");
        assert!(err.starts_with(&format!("write {path}: ")), "{err}");
        assert!(!dir.exists(), "nothing created");
    }
}
