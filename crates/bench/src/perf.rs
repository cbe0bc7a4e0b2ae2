//! The simulated-result gate: frozen signatures of what the tree
//! simulates, and the digests `vta check` compares them with.
//!
//! [`cycle_fingerprint`] is each fingerprint benchmark's cycles and stats
//! digest under `paper_default`; [`figure_sweep_digests`] folds every
//! cell of the four figure sweeps (Figures 4, 5, 8 and 9: the bank
//! poles, both opt levels, every morph threshold) into one number per
//! figure. Both are frozen in `BENCH_dispatch.json`. A frozen number only
//! says a cell did not *move*; that it is *right* is the [`Reference`]'s
//! job — every cell these functions and the superblock A/B matrix
//! ([`superblock_cells`]) run must reproduce the reference interpreter's
//! exit code, retired-instruction count and output, or they panic naming
//! the cell. Host speed is not measured here — `benchmark/run.sh` owns
//! that.
//!
//! The JSON is written with a tiny hand-rolled emitter: the workspace has
//! a zero-external-dependency policy (see the root `Cargo.toml`), so no
//! serde.

use std::fmt::Write as _;

use vta_dbt::{RunReport, System, VirtualArchConfig};
use vta_pentium::PentiumModel;
use vta_workloads::Scale;
use vta_x86::{Cpu, GuestImage};

use crate::Measurement;

/// What the reference interpreter ([`vta_x86::Cpu`]) says a guest does:
/// the triple every run of the simulated machine must reproduce, under
/// any configuration, and the Pentium III cycles the same pass models
/// (the slowdown's denominator).
#[derive(Debug)]
pub struct Reference {
    /// The guest's `exit` status.
    pub exit_code: u32,
    /// Guest instructions retired.
    pub guest_insns: u64,
    /// Bytes the guest wrote through syscalls.
    pub output: Vec<u8>,
    /// Modelled Pentium III cycles.
    pub piii_cycles: u64,
}

impl Reference {
    /// Runs the reference interpreter on `image` once, with the Pentium
    /// III model observing it.
    ///
    /// # Panics
    ///
    /// Panics if the interpreter faults or stops without exiting — the
    /// bundled workloads all exit.
    pub fn of(image: &GuestImage) -> Reference {
        let mut cpu = Cpu::new(image);
        let piii = PentiumModel::new().run_cpu(&mut cpu, crate::RUN_BUDGET);
        match piii.map(|p| (p.exit_code, p.cycles)) {
            Ok((Some(exit_code), piii_cycles)) => Reference {
                exit_code,
                guest_insns: cpu.insn_count,
                output: cpu.sys.output,
                piii_cycles,
            },
            other => panic!("reference interpreter stopped with {other:?}"),
        }
    }

    /// Compares a run of the simulated machine with the reference.
    ///
    /// # Errors
    ///
    /// Names the first of exit code, retired count and output that
    /// differs.
    pub fn check(&self, report: &RunReport) -> Result<(), String> {
        if report.exit_code != Some(self.exit_code) {
            return Err(format!(
                "exit code {:?}, the reference interpreter exits with {}",
                report.exit_code, self.exit_code
            ));
        }
        if report.guest_insns != self.guest_insns {
            return Err(format!(
                "retired {} guest instructions, the reference interpreter {}",
                report.guest_insns, self.guest_insns
            ));
        }
        if report.output != self.output {
            return Err("syscall output differs from the reference interpreter's".to_string());
        }
        Ok(())
    }

    /// [`Reference::check`] for the gates and tests: a cell that is wrong
    /// must never be digested, printed or blessed.
    ///
    /// # Panics
    ///
    /// Panics, naming `cell`, if the run differs from the reference.
    pub fn require(&self, cell: &str, report: &RunReport) {
        if let Err(e) = self.check(report) {
            panic!("{cell}: {e}");
        }
    }
}

/// One benchmark's frozen determinism signature under `paper_default`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Benchmark name (`gzip`, ...).
    pub name: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// [`Stats::fingerprint`](vta_sim::Stats::fingerprint) of the run's
    /// full counter/histogram state.
    pub stats_fp: u64,
}

/// Simulated signatures that must stay bit-identical across host-side
/// optimizations: each benchmark's cycles and stats digest under
/// `paper_default` at `Scale::Test`.
pub fn cycle_fingerprint() -> Vec<Fingerprint> {
    // interp rides along beyond the paper's trio: its computed-goto
    // dispatch drives the indirect-target inline cache, so fingerprint
    // drift there catches cache-state nondeterminism the others can't.
    ["gzip", "mcf", "crafty", "interp"]
        .into_iter()
        .map(|name| {
            let w = vta_workloads::by_name(name, Scale::Test).expect("benchmark exists");
            let report = System::new(VirtualArchConfig::paper_default(), &w.image)
                .run(crate::RUN_BUDGET)
                .expect("benchmark runs");
            Reference::of(&w.image).require(&format!("{name} paper_default"), &report);
            Fingerprint {
                name: name.to_string(),
                cycles: report.cycles,
                stats_fp: report.stats.fingerprint(),
            }
        })
        .collect()
}

/// One digest over every simulated number of a sweep: each cell's
/// benchmark, configuration, cycles, modelled PIII cycles (the
/// slowdown's denominator), retired instructions and stats fingerprint,
/// in cell order. Equal for every `threads` value handed
/// to [`crate::sweep_threads`] — cells are independent deterministic
/// simulations placed by job index. FNV-1a, like
/// [`Stats::fingerprint`](vta_sim::Stats::fingerprint), so the value is
/// stable across builds and can be frozen in a file.
pub fn sweep_digest(ms: &[Measurement]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
    };
    for m in ms {
        let r = &m.report;
        eat(m.bench.as_bytes());
        eat(&[0]);
        eat(m.config.as_bytes());
        eat(&[0]);
        eat(&r.cycles.to_le_bytes());
        eat(&m.piii_cycles.to_le_bytes());
        eat(&r.guest_insns.to_le_bytes());
        eat(&r.stats.fingerprint().to_le_bytes());
    }
    h
}

/// Runs the four figure configuration sets — `fig4` (0/1/2 L1.5 banks),
/// `fig5` (translator counts), `fig8` (morphing at both opt levels) and
/// `fig9` (static splits and morph thresholds 15/0/5) — over every
/// benchmark at `Scale::Test` on `threads` host threads and folds each
/// to its [`sweep_digest`]. Together with [`cycle_fingerprint`] this is
/// the exact oracle for the simulated machine: the only frozen values
/// that cover the bank poles, `OptLevel::None` and morphing runs. Every
/// one of the 176 cells is held to its guest's [`Reference`] by the sweep
/// before it is digested.
pub fn figure_sweep_digests(threads: usize) -> Vec<(String, u64)> {
    use crate::figures::{fig4_configs, fig5_configs, fig8_configs, fig9_configs};
    [
        ("fig4", fig4_configs()),
        ("fig5", fig5_configs()),
        ("fig8", fig8_configs()),
        ("fig9", fig9_configs()),
    ]
    .into_iter()
    .map(|(name, configs)| {
        let ms = crate::sweep_threads(Scale::Test, &configs, threads);
        (name.to_string(), sweep_digest(&ms))
    })
    .collect()
}

/// Renders the frozen fingerprints and figure digests as
/// `BENCH_dispatch.json`.
pub fn render_json(fingerprint: &[Fingerprint], figures: &[(String, u64)]) -> String {
    let per_fp = |value: fn(&Fingerprint) -> u64| {
        let rows = fingerprint.iter().map(|fp| (fp.name.clone(), value(fp)));
        rows.collect::<Vec<_>>()
    };
    let sections = [
        ("paper_default_cycles", per_fp(|fp| fp.cycles)),
        ("paper_default_stats_fp", per_fp(|fp| fp.stats_fp)),
        ("figure_sweep_digests", figures.to_vec()),
    ];
    let mut out = String::from("{\n  \"scale\": \"test\"");
    for (key, rows) in sections {
        let rows: Vec<String> = rows
            .iter()
            .map(|(name, value)| format!("    \"{name}\": {value}"))
            .collect();
        let _ = write!(out, ",\n  \"{key}\": {{\n{}\n  }}", rows.join(",\n"));
    }
    out.push_str("\n}\n");
    out
}

/// One cell of the superblock A/B matrix: a benchmark run at one
/// `(opt level, region-formation mode)` point with the dispatch-exit
/// counters that motivate superblocks. The three modes are `off` (no
/// region formation), `static` (regions along the static through-path
/// predictor), and `recorded` (regions along runtime-recorded paths —
/// the paper-default configuration).
#[derive(Debug, Clone)]
pub struct SuperblockCell {
    /// Benchmark short name (`gzip`, ...).
    pub bench: &'static str,
    /// Optimization level label (`"none"` / `"full"`).
    pub opt: &'static str,
    /// Region-formation mode label (`"off"` / `"static"` / `"recorded"`).
    pub mode: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Block exits (chained hops + chain misses + indirect dispatches)
    /// per thousand guest instructions — every departure from translated
    /// code, including the "cheap" chained ones. This is the rate
    /// superblocks exist to reduce: a region runs straight through
    /// branches that single blocks exit on, chained or not.
    pub block_exits_per_kinsn: f64,
    /// Indirect branches resolved by the inline cache
    /// (`dispatch.inline_hit`).
    pub inline_hit: u64,
    /// Recording passes completed (`superblock.recorded`; zero unless
    /// the mode is `recorded`).
    pub recorded: u64,
}

/// Benchmarks the superblock A/B matrix measures: the paper trio plus
/// the computed-goto interpreter (the chain-hostile inline-cache bed).
pub const SUPERBLOCK_BENCHES: [&str; 4] = ["gzip", "mcf", "crafty", "interp"];

/// The three region-formation modes of the superblock matrix:
/// `(label, superblock, record_paths)`.
pub const SUPERBLOCK_MODES: [(&str, bool, bool); 3] = [
    ("off", false, false),
    ("static", true, false),
    ("recorded", true, true),
];

/// Runs the superblock matrix at `Scale::Test`:
/// `SUPERBLOCK_BENCHES` × `{OptLevel::None, Full}` ×
/// `{off, static, recorded}`. Region formation changes *where translated
/// code exits*, never *what the guest executes*: every cell is held to
/// its guest's [`Reference`].
pub fn superblock_cells() -> Vec<SuperblockCell> {
    use vta_ir::OptLevel;
    let mut out = Vec::new();
    for bench in SUPERBLOCK_BENCHES {
        let w = vta_workloads::by_name(bench, Scale::Test).expect("benchmark exists");
        let reference = Reference::of(&w.image);
        for (opt, opt_label) in [(OptLevel::None, "none"), (OptLevel::Full, "full")] {
            for (mode, superblock, record_paths) in SUPERBLOCK_MODES {
                let mut cfg = VirtualArchConfig::paper_default();
                cfg.opt = opt;
                cfg.superblock = superblock;
                cfg.record_paths = record_paths;
                let report = System::new(cfg, &w.image)
                    .run(crate::RUN_BUDGET)
                    .expect("benchmark runs");
                reference.require(&format!("{bench} opt={opt_label} mode={mode}"), &report);
                let g = |k: &str| report.stats.get(k);
                let exits = g("chain.taken") + g("dispatch.direct_miss") + g("dispatch.indirect");
                out.push(SuperblockCell {
                    bench,
                    opt: opt_label,
                    mode,
                    cycles: report.cycles,
                    block_exits_per_kinsn: exits as f64 * 1000.0 / report.guest_insns.max(1) as f64,
                    inline_hit: g("dispatch.inline_hit"),
                    recorded: g("superblock.recorded"),
                });
            }
        }
    }
    out
}

/// Extracts the `(benchmark, value)` pairs of one flat `"key": { ... }`
/// section of a `BENCH_dispatch.json` document.
fn parse_section(json: &str, key: &str) -> Result<Vec<(String, u64)>, String> {
    let quoted = format!("\"{key}\"");
    let start = json
        .find(&quoted)
        .ok_or_else(|| format!("{quoted} not found"))?;
    let rest = &json[start + quoted.len()..];
    let open = rest.find('{').ok_or("no '{' after key")?;
    let close = rest[open..].find('}').ok_or("no closing '}'")? + open;
    let body = &rest[open + 1..close];
    let mut out = Vec::new();
    for entry in body.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        let (name, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("bad entry {entry:?}"))?;
        let name = name.trim().trim_matches('"');
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad number in {entry:?}: {e}"))?;
        out.push((name.to_string(), value));
    }
    if out.is_empty() {
        return Err(format!("empty {key} section"));
    }
    Ok(out)
}

/// Reads the frozen fingerprints back out of a `BENCH_dispatch.json`
/// document: the `"paper_default_cycles"` and `"paper_default_stats_fp"`
/// sections, which must name the same benchmarks in the same order.
///
/// String-search based (no serde); tolerant of surrounding content but
/// strict about the sections' own shape.
///
/// # Errors
///
/// Returns a message if either section is missing or malformed, or if
/// the two disagree on the benchmarks they cover.
pub fn parse_fingerprints(json: &str) -> Result<Vec<Fingerprint>, String> {
    let cycles = parse_section(json, "paper_default_cycles")?;
    let stats_fp = parse_section(json, "paper_default_stats_fp")?;
    if !cycles
        .iter()
        .map(|(n, _)| n)
        .eq(stats_fp.iter().map(|(n, _)| n))
    {
        return Err(
            "paper_default_cycles and paper_default_stats_fp name different benchmarks".into(),
        );
    }
    Ok(cycles
        .into_iter()
        .zip(stats_fp)
        .map(|((name, cycles), (_, stats_fp))| Fingerprint {
            name,
            cycles,
            stats_fp,
        })
        .collect())
}

/// Reads the frozen `"figure_sweep_digests"` section of a
/// `BENCH_dispatch.json` document as `(figure, digest)` pairs.
///
/// # Errors
///
/// Returns a message if the section is missing or malformed.
pub fn parse_figure_digests(json: &str) -> Result<Vec<(String, u64)>, String> {
    parse_section(json, "figure_sweep_digests")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(name: &str, cycles: u64) -> Fingerprint {
        Fingerprint {
            name: name.to_string(),
            cycles,
            stats_fp: cycles.wrapping_mul(31),
        }
    }

    #[test]
    fn parses_fingerprints_back_out() {
        let fps = [fp("gzip", 123), fp("mcf", 456)];
        let figs = [("fig4".to_string(), u64::MAX)];
        let s = render_json(&fps, &figs);
        assert_eq!(parse_fingerprints(&s).unwrap(), fps);
        assert_eq!(parse_figure_digests(&s).unwrap(), figs);
        assert!(parse_figure_digests("{}").is_err());
        assert!(parse_fingerprints("{}").is_err());
        // A file without its stats_fp section is not a complete golden.
        let cycles_only = &s[..s.find("\"paper_default_stats_fp\"").unwrap()];
        assert!(parse_fingerprints(cycles_only).is_err());
        let renamed = s.replacen("\"mcf\": 456", "\"vpr\": 456", 1);
        assert!(parse_fingerprints(&renamed).is_err(), "sections disagree");
    }

    #[test]
    fn json_shape_is_sane() {
        let s = render_json(&[fp("gzip", 123)], &[]);
        crate::json_lint::check(&s).expect("valid JSON");
        assert!(s.contains("\"gzip\": 123"));
        assert!(s.contains("\"paper_default_stats_fp\""));
        assert!(s.starts_with('{') && s.trim_end().ends_with('}'));
    }

    /// A frozen digest cannot tell a wrong cell from a right one, and
    /// neither can comparing region modes with each other when all are
    /// wrong the same way; the reference can, field by field.
    #[test]
    fn reference_catches_each_wrong_field() {
        let w = vta_workloads::by_name("gzip", Scale::Test).unwrap();
        let reference = Reference::of(&w.image);
        let right = System::new(VirtualArchConfig::paper_default(), &w.image)
            .run(crate::RUN_BUDGET)
            .unwrap();
        reference.check(&right).expect("gzip matches its reference");

        let mut wrong = right.clone();
        wrong.exit_code = Some(reference.exit_code.wrapping_add(1));
        assert!(reference.check(&wrong).unwrap_err().contains("exit code"));
        let mut wrong = right.clone();
        wrong.guest_insns += 1;
        assert!(reference.check(&wrong).unwrap_err().contains("retired"));
        let mut wrong = right.clone();
        wrong.output.push(b'!');
        assert!(reference.check(&wrong).unwrap_err().contains("output"));
    }

    #[test]
    #[should_panic(expected = "gzip opt=full mode=static: retired")]
    fn a_wrong_gate_cell_panics_naming_the_cell() {
        let w = vta_workloads::by_name("gzip", Scale::Test).unwrap();
        let mut report = System::new(VirtualArchConfig::paper_default(), &w.image)
            .run(crate::RUN_BUDGET)
            .unwrap();
        report.guest_insns -= 1;
        Reference::of(&w.image).require("gzip opt=full mode=static", &report);
    }
}
