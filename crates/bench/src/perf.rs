//! The simulated-result gate: frozen signatures of what the tree
//! simulates, and the digests `perf --check` compares them with.
//!
//! [`cycle_fingerprint`] is each fingerprint benchmark's cycles and stats
//! digest under `paper_default`; [`figure_sweep_digests`] folds every
//! cell of the four figure sweeps (Figures 4, 5, 8 and 9: the bank
//! poles, both opt levels, every morph threshold) into one number per
//! figure. Both are frozen in `BENCH_dispatch.json`. Host speed
//! is not measured here — `benchmark/run.sh` owns that. This module also
//! owns the superblock A/B matrix ([`superblock_cells`] →
//! `BENCH_superblock.json`): the same benchmarks with region formation
//! toggled at both opt levels, recording the dispatch-exit counters
//! superblocks exist to reduce.
//!
//! The JSON is written with a tiny hand-rolled emitter: the workspace has
//! a zero-external-dependency policy (see the root `Cargo.toml`), so no
//! serde.

use std::fmt::Write as _;
use std::time::Instant;

use vta_dbt::{System, VirtualArchConfig};
use vta_workloads::Scale;

use crate::Measurement;

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
            Fingerprint {
                name: name.to_string(),
                cycles: report.cycles,
                stats_fp: report.stats.fingerprint(),
            }
        })
        .collect()
}

/// One digest over every simulated number of a sweep: each cell's
/// benchmark, configuration, cycles, retired instructions and stats
/// fingerprint, in cell order. Equal for every `threads` value handed
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
/// that cover the bank poles, `OptLevel::None` and morphing runs.
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

/// One cell of the superblock experiment (`BENCH_superblock.json`):
/// a benchmark run at one `(opt level, superblock mode)` point with the
/// dispatch-exit counters that motivate superblocks. The three modes
/// are `off` (no region formation), `static` (regions along the static
/// through-path predictor), and `recorded` (regions along runtime-
/// recorded paths — the paper-default configuration).
#[derive(Debug, Clone)]
pub struct SuperblockCell {
    /// Benchmark short name (`gzip`, ...).
    pub bench: String,
    /// Optimization level label (`"none"` / `"full"`).
    pub opt: &'static str,
    /// Region-formation mode label (`"off"` / `"static"` / `"recorded"`).
    pub mode: &'static str,
    /// Whether region formation was enabled.
    pub superblock: bool,
    /// Simulated cycles.
    pub cycles: u64,
    /// Guest instructions retired.
    pub guest_insns: u64,
    /// Translated blocks/regions executed (`exec.blocks`).
    pub exec_blocks: u64,
    /// Taken direct branches resolved by the 2-entry chain cache
    /// (`chain.taken`) — cheaper than a manager round trip, but still a
    /// block exit that a region would have run through inline.
    pub chain_taken: u64,
    /// Direct branches that missed the L1 chain (`dispatch.direct_miss`).
    pub direct_miss: u64,
    /// Indirect dispatches through the manager (`dispatch.indirect`).
    pub indirect: u64,
    /// Indirect branches resolved by the inline cache
    /// (`dispatch.inline_hit`).
    pub inline_hit: u64,
    /// Multi-member region entries (`superblock.entries`).
    pub sb_entries: u64,
    /// Mid-region side exits (`superblock.side_exits`).
    pub sb_side_exits: u64,
    /// SMC-guard exits (`superblock.smc_exits`).
    pub sb_smc_exits: u64,
    /// Recording passes completed (`superblock.recorded`; zero unless
    /// the mode is `recorded`).
    pub sb_recorded: u64,
    /// Host wall-clock seconds inside `System::run`.
    pub wall_seconds: f64,
}

impl SuperblockCell {
    /// Dispatch exits (chain misses + indirect dispatches) per thousand
    /// guest instructions — exits that pay a full manager round trip.
    pub fn dispatch_exits_per_kinsn(&self) -> f64 {
        (self.direct_miss + self.indirect) as f64 * 1000.0 / self.guest_insns.max(1) as f64
    }

    /// Block exits (chained hops + chain misses + indirect dispatches)
    /// per thousand guest instructions — every departure from translated
    /// code, including the "cheap" chained ones. This is the rate
    /// superblocks exist to reduce: a region runs straight through
    /// branches that single blocks exit on, chained or not.
    pub fn block_exits_per_kinsn(&self) -> f64 {
        (self.chain_taken + self.direct_miss + self.indirect) as f64 * 1000.0
            / self.guest_insns.max(1) as f64
    }
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
/// `{off, static, recorded}`, serially (cells are short; serial keeps
/// wall numbers comparable).
pub fn superblock_cells() -> Vec<SuperblockCell> {
    use vta_ir::OptLevel;
    let mut out = Vec::new();
    for name in SUPERBLOCK_BENCHES {
        let w = vta_workloads::by_name(name, Scale::Test).expect("benchmark exists");
        for (opt, opt_label) in [(OptLevel::None, "none"), (OptLevel::Full, "full")] {
            for (mode, superblock, record_paths) in SUPERBLOCK_MODES {
                let mut cfg = VirtualArchConfig::paper_default();
                cfg.opt = opt;
                cfg.superblock = superblock;
                cfg.record_paths = record_paths;
                let started = Instant::now();
                let mut sys = System::new(cfg, &w.image);
                let report = sys.run(crate::RUN_BUDGET).expect("benchmark runs");
                let wall_seconds = started.elapsed().as_secs_f64();
                let g = |k: &str| report.stats.get(k);
                out.push(SuperblockCell {
                    bench: name.to_string(),
                    opt: opt_label,
                    mode,
                    superblock,
                    cycles: report.cycles,
                    guest_insns: report.guest_insns,
                    exec_blocks: g("exec.blocks"),
                    chain_taken: g("chain.taken"),
                    direct_miss: g("dispatch.direct_miss"),
                    indirect: g("dispatch.indirect"),
                    inline_hit: g("dispatch.inline_hit"),
                    sb_entries: g("superblock.entries"),
                    sb_side_exits: g("superblock.side_exits"),
                    sb_smc_exits: g("superblock.smc_exits"),
                    sb_recorded: g("superblock.recorded"),
                    wall_seconds,
                });
            }
        }
    }
    out
}

/// Checks the retirement invariant across the matrix: region formation
/// (static or recorded) must never change how many guest instructions a
/// benchmark retires — regions change *where translated code exits*,
/// never *what the guest executes*. Returns the first violation.
pub fn superblock_reconciles(cells: &[SuperblockCell]) -> Result<(), String> {
    for c in cells {
        let off = cells
            .iter()
            .find(|o| o.bench == c.bench && o.opt == c.opt && o.mode == "off")
            .ok_or_else(|| format!("{} opt={}: no off-mode cell", c.bench, c.opt))?;
        if c.guest_insns != off.guest_insns {
            return Err(format!(
                "{} opt={}: guest_insns {} in mode {} but {} with superblocks off",
                c.bench, c.opt, c.guest_insns, c.mode, off.guest_insns
            ));
        }
    }
    Ok(())
}

/// One `Scale::Large` wall-clock highlight row of the superblock
/// experiment: full opt, superblocks off vs on. Simulated cycles and
/// exit rates are deterministic; the wall columns are the median of
/// `HIGHLIGHT_REPEATS` runs per configuration (alternating off/on
/// order) to damp host scheduling noise and slow frequency drift
/// (Test-scale cells finish in milliseconds, too short for a credible
/// wall comparison — this is where the measured host-time win is
/// recorded).
#[derive(Debug, Clone)]
pub struct SuperblockHighlight {
    /// Benchmark short name.
    pub bench: String,
    /// Simulated cycles with superblocks off.
    pub cycles_off: u64,
    /// Simulated cycles with static-predictor superblocks.
    pub cycles_static: u64,
    /// Simulated cycles with recorded-path superblocks (`on`).
    pub cycles_on: u64,
    /// Block exits per thousand guest instructions, superblocks off.
    pub block_exits_off: f64,
    /// Block exits per thousand guest instructions, static predictor.
    pub block_exits_static: f64,
    /// Block exits per thousand guest instructions, recorded paths.
    pub block_exits_on: f64,
    /// Median-of-`HIGHLIGHT_REPEATS` host wall seconds, superblocks off.
    pub wall_off: f64,
    /// Median host wall seconds, static-predictor superblocks.
    pub wall_static: f64,
    /// Median host wall seconds, recorded-path superblocks.
    pub wall_on: f64,
}

/// Chain-hostile benchmarks measured at `Scale::Large` for the
/// wall-clock highlight: gzip's inner loops hop between blocks on
/// taken branches, and crafty's branchy evaluation is the classic
/// chain-killer.
pub const SUPERBLOCK_HIGHLIGHT_BENCHES: [&str; 2] = ["gzip", "crafty"];

/// Runs per configuration for the highlight wall measurement (odd, so
/// the median is a single sample).
pub const HIGHLIGHT_REPEATS: usize = 9;

/// Runs the `Scale::Large` highlight triples (full opt,
/// off vs static vs recorded).
pub fn superblock_highlights() -> Vec<SuperblockHighlight> {
    use vta_ir::OptLevel;
    let mut out = Vec::new();
    for name in SUPERBLOCK_HIGHLIGHT_BENCHES {
        let w = vta_workloads::by_name(name, Scale::Large).expect("benchmark exists");
        let run_once = |mode: usize| {
            let (_, superblock, record_paths) = SUPERBLOCK_MODES[mode];
            let mut cfg = VirtualArchConfig::paper_default();
            cfg.opt = OptLevel::Full;
            cfg.superblock = superblock;
            cfg.record_paths = record_paths;
            let started = Instant::now();
            let mut sys = System::new(cfg, &w.image);
            let report = sys.run(crate::RUN_BUDGET).expect("benchmark runs");
            let wall = started.elapsed().as_secs_f64();
            let exits = report.stats.get("chain.taken")
                + report.stats.get("dispatch.direct_miss")
                + report.stats.get("dispatch.indirect");
            let exits_per_kinsn = exits as f64 * 1000.0 / report.guest_insns.max(1) as f64;
            (report.cycles, exits_per_kinsn, wall)
        };
        // Interleave the three modes and rotate which one runs first
        // each repeat: slow host-frequency or load drift then hits
        // every configuration equally, and no mode is systematically
        // the "last, slower" run of its triple. The medians below are
        // robust to the drift a min-of-N would still inherit.
        let mut cycles = [0u64; 3];
        let mut block_exits = [0f64; 3];
        let mut walls: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for rep in 0..HIGHLIGHT_REPEATS {
            for i in 0..3 {
                let mode = (rep + i) % 3;
                let (c, e, w) = run_once(mode);
                cycles[mode] = c;
                block_exits[mode] = e;
                walls[mode].push(w);
            }
        }
        let median = |mut v: Vec<f64>| {
            v.sort_by(|a, b| a.partial_cmp(b).expect("finite walls"));
            v[v.len() / 2]
        };
        let [w_off, w_static, w_on] = walls.map(median);
        out.push(SuperblockHighlight {
            bench: name.to_string(),
            cycles_off: cycles[0],
            cycles_static: cycles[1],
            cycles_on: cycles[2],
            block_exits_off: block_exits[0],
            block_exits_static: block_exits[1],
            block_exits_on: block_exits[2],
            wall_off: w_off,
            wall_static: w_static,
            wall_on: w_on,
        });
    }
    out
}

/// Renders the superblock A/B matrix as `BENCH_superblock.json`.
///
/// `fingerprints_unchanged` attests that the paper-default fingerprints
/// (superblocks on) were re-derived and still match the committed
/// `BENCH_dispatch.json` — the writer must have verified it.
pub fn render_superblock_json(
    cells: &[SuperblockCell],
    highlights: &[SuperblockHighlight],
    fingerprints_unchanged: bool,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"experiment\": \"superblock_ab\",");
    let _ = writeln!(out, "  \"scale\": \"test\",");
    let _ = writeln!(
        out,
        "  \"fingerprints_unchanged\": {fingerprints_unchanged},"
    );
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let comma = if i + 1 == cells.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"bench\": \"{}\",", c.bench);
        let _ = writeln!(out, "      \"opt\": \"{}\",", c.opt);
        let _ = writeln!(out, "      \"mode\": \"{}\",", c.mode);
        let _ = writeln!(out, "      \"superblock\": {},", c.superblock);
        let _ = writeln!(out, "      \"cycles\": {},", c.cycles);
        let _ = writeln!(out, "      \"guest_insns\": {},", c.guest_insns);
        let _ = writeln!(out, "      \"exec_blocks\": {},", c.exec_blocks);
        let _ = writeln!(out, "      \"chain_taken\": {},", c.chain_taken);
        let _ = writeln!(out, "      \"dispatch_direct_miss\": {},", c.direct_miss);
        let _ = writeln!(out, "      \"dispatch_indirect\": {},", c.indirect);
        let _ = writeln!(out, "      \"dispatch_inline_hit\": {},", c.inline_hit);
        let _ = writeln!(out, "      \"superblock_entries\": {},", c.sb_entries);
        let _ = writeln!(out, "      \"superblock_side_exits\": {},", c.sb_side_exits);
        let _ = writeln!(out, "      \"superblock_smc_exits\": {},", c.sb_smc_exits);
        let _ = writeln!(out, "      \"superblock_recorded\": {},", c.sb_recorded);
        let _ = writeln!(
            out,
            "      \"dispatch_exits_per_kinsn\": {:.3},",
            c.dispatch_exits_per_kinsn()
        );
        let _ = writeln!(
            out,
            "      \"block_exits_per_kinsn\": {:.3},",
            c.block_exits_per_kinsn()
        );
        let _ = writeln!(out, "      \"wall_seconds\": {:.4}", c.wall_seconds);
        let _ = write!(out, "    }}{comma}");
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "  ],");
    // Per-benchmark summary at OptLevel::Full: each region-formation
    // mode against superblocks off, plus recorded directly vs static.
    let _ = writeln!(out, "  \"full_opt_summary\": {{");
    let full: Vec<&SuperblockCell> = cells.iter().filter(|c| c.opt == "full").collect();
    let benches: Vec<&str> = SUPERBLOCK_BENCHES
        .iter()
        .copied()
        .filter(|b| full.iter().any(|c| c.bench == *b))
        .collect();
    for (i, b) in benches.iter().enumerate() {
        let comma = if i + 1 == benches.len() { "" } else { "," };
        let find = |mode: &str| full.iter().find(|c| c.bench == *b && c.mode == mode);
        if let (Some(off), Some(st), Some(rec)) = (find("off"), find("static"), find("recorded")) {
            let ratios = |on: &SuperblockCell| {
                format!(
                    "\"sim_cycles_ratio\": {:.4}, \"exit_rate_ratio\": {:.4}, \
                     \"wall_ratio\": {:.4}",
                    on.cycles as f64 / off.cycles.max(1) as f64,
                    on.block_exits_per_kinsn() / off.block_exits_per_kinsn().max(1e-9),
                    on.wall_seconds / off.wall_seconds.max(1e-9),
                )
            };
            let _ = writeln!(out, "    \"{b}\": {{");
            let _ = writeln!(out, "      \"static\": {{ {} }},", ratios(st));
            let _ = writeln!(
                out,
                "      \"recorded\": {{ {}, \"exit_rate_vs_static\": {:.4} }}",
                ratios(rec),
                rec.block_exits_per_kinsn() / st.block_exits_per_kinsn().max(1e-9),
            );
            let _ = writeln!(out, "    }}{comma}");
        }
    }
    let _ = writeln!(out, "  }},");
    // Scale::Large wall-clock highlight: full opt, best-of-N walls.
    let _ = writeln!(out, "  \"large_scale_highlight\": [");
    for (i, h) in highlights.iter().enumerate() {
        let comma = if i + 1 == highlights.len() { "" } else { "," };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"bench\": \"{}\",", h.bench);
        let _ = writeln!(out, "      \"cycles_off\": {},", h.cycles_off);
        let _ = writeln!(out, "      \"cycles_static\": {},", h.cycles_static);
        let _ = writeln!(out, "      \"cycles_on\": {},", h.cycles_on);
        let _ = writeln!(
            out,
            "      \"block_exits_per_kinsn_off\": {:.3},",
            h.block_exits_off
        );
        let _ = writeln!(
            out,
            "      \"block_exits_per_kinsn_static\": {:.3},",
            h.block_exits_static
        );
        let _ = writeln!(
            out,
            "      \"block_exits_per_kinsn_on\": {:.3},",
            h.block_exits_on
        );
        let _ = writeln!(out, "      \"wall_seconds_off\": {:.4},", h.wall_off);
        let _ = writeln!(out, "      \"wall_seconds_static\": {:.4},", h.wall_static);
        let _ = writeln!(out, "      \"wall_seconds_on\": {:.4},", h.wall_on);
        let _ = writeln!(
            out,
            "      \"sim_cycles_ratio\": {:.4},",
            h.cycles_on as f64 / h.cycles_off.max(1) as f64
        );
        let _ = writeln!(
            out,
            "      \"exit_rate_vs_static\": {:.4},",
            h.block_exits_on / h.block_exits_static.max(1e-9)
        );
        let _ = writeln!(
            out,
            "      \"wall_ratio\": {:.4}",
            h.wall_on / h.wall_off.max(1e-9)
        );
        let _ = write!(out, "    }}{comma}");
        let _ = writeln!(out);
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
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

    fn sb_cell(
        bench: &str,
        opt: &'static str,
        mode: &'static str,
        cycles: u64,
        guest_insns: u64,
    ) -> SuperblockCell {
        let superblock = mode != "off";
        SuperblockCell {
            bench: bench.to_string(),
            opt,
            mode,
            superblock,
            cycles,
            guest_insns,
            exec_blocks: 50,
            chain_taken: match mode {
                "off" => 25,
                "static" => 10,
                _ => 5,
            },
            direct_miss: 10,
            indirect: 5,
            inline_hit: if superblock { 4 } else { 0 },
            sb_entries: if superblock { 40 } else { 0 },
            sb_side_exits: if superblock { 3 } else { 0 },
            sb_smc_exits: 0,
            sb_recorded: if mode == "recorded" { 2 } else { 0 },
            wall_seconds: 0.01,
        }
    }

    #[test]
    fn superblock_json_shape_is_sane() {
        let cells = vec![
            sb_cell("gzip", "full", "off", 2000, 1000),
            sb_cell("gzip", "full", "static", 1900, 1000),
            sb_cell("gzip", "full", "recorded", 1800, 1000),
        ];
        let highlights = vec![SuperblockHighlight {
            bench: "crafty".to_string(),
            cycles_off: 4000,
            cycles_static: 3990,
            cycles_on: 3900,
            block_exits_off: 40.0,
            block_exits_static: 38.0,
            block_exits_on: 22.0,
            wall_off: 0.30,
            wall_static: 0.29,
            wall_on: 0.27,
        }];
        let s = render_superblock_json(&cells, &highlights, true);
        crate::json_lint::check(&s).expect("valid JSON");
        assert!(s.contains("\"experiment\": \"superblock_ab\""));
        assert!(s.contains("\"fingerprints_unchanged\": true"));
        assert!(s.contains("\"mode\": \"recorded\""));
        assert!(s.contains("\"superblock_entries\": 40"));
        assert!(s.contains("\"superblock_recorded\": 2"));
        assert!(s.contains("\"sim_cycles_ratio\": 0.9000"));
        assert!(s.contains("\"large_scale_highlight\""));
        assert!(s.contains("\"wall_ratio\": 0.9000"));
        // recorded (5+10+5=20 exits) vs static (10+10+5=25 exits).
        assert!(s.contains("\"exit_rate_vs_static\": 0.8000"));
        assert!((cells[0].dispatch_exits_per_kinsn() - 15.0).abs() < 1e-9);
        // Chained hops count as block exits: (25 + 10 + 5) / 1k insns.
        assert!((cells[0].block_exits_per_kinsn() - 40.0).abs() < 1e-9);
        assert!((cells[1].block_exits_per_kinsn() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn superblock_reconciliation_catches_retirement_drift() {
        let mut cells = vec![
            sb_cell("gzip", "full", "off", 2000, 1000),
            sb_cell("gzip", "full", "static", 1900, 1000),
            sb_cell("gzip", "full", "recorded", 1800, 1000),
        ];
        superblock_reconciles(&cells).expect("identical retirement reconciles");
        cells[2].guest_insns = 1001;
        let err = superblock_reconciles(&cells).expect_err("drift must be caught");
        assert!(err.contains("recorded"), "{err}");
    }
}
