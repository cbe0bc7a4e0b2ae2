//! The simulated-result gate: every frozen number of what the tree
//! simulates, and the one compare `vta check` runs over them.
//!
//! A frozen value is an [`Entry`], `(section, row) → u64`. [`entries`] is
//! the one producer: the `paper_default` cycles and stats digest of the
//! fingerprint guests, one `sweep_digest` per figure sweep (Figures 4,
//! 5, 8 and 9: the bank poles, both opt levels, every morph threshold),
//! the `gate_digests` rows (every guest run single-block, the vpr
//! metrics series, and what the decoder makes of every opcode and ModRM
//! byte under each prefix) and the `translation_digests` rows (every field of
//! every block the translator makes at each leader a guest reaches).
//! [`render_json`] writes them as `BENCH_dispatch.json`,
//! [`parse_json`] reads every section back, and [`compare`] names each
//! row that drifted, is missing from the file or is extra in it.
//!
//! A frozen number only says a cell did not *move*; that it is *right* is
//! the [`Reference`]'s job — every simulation the producer runs must
//! reproduce the reference interpreter's exit code, retired-instruction
//! count and output, or it panics naming the cell. Host speed is not
//! measured here — `benchmark/run.sh` owns that.
//!
//! The JSON is written and read by hand: the workspace has a
//! zero-external-dependency policy (see the root `Cargo.toml`), so no
//! serde.

use std::fmt::Write as _;

use vta_dbt::{RunReport, System, VirtualArchConfig};
use vta_ir::{translate_block, translate_region, OptLevel, RegionLimits, TBlock, TranslateError};
use vta_pentium::PentiumModel;
use vta_sim::{Fnv1a, MetricsConfig};
use vta_workloads::Scale;
use vta_x86::{Cpu, GuestImage, Leaders, StopReason};

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
    pub(crate) fn check(&self, report: &RunReport) -> Result<(), String> {
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

    /// `Reference::check` for the gates and tests: a cell that is wrong
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

/// One frozen simulated value: row `row` of section `section` in
/// `BENCH_dispatch.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry {
    /// Section name (`paper_default_cycles`, `gate_digests`, ...).
    pub section: String,
    /// Row name within the section (`gzip`, `fig4`, `single_block`, ...).
    pub row: String,
    /// The value.
    pub value: u64,
}

impl Entry {
    fn new(section: &str, row: &str, value: u64) -> Entry {
        Entry {
            section: section.to_string(),
            row: row.to_string(),
            value,
        }
    }

    /// `section.row`, how every gate message names the row.
    pub fn name(&self) -> String {
        format!("{}.{}", self.section, self.row)
    }

    fn same_row(&self, other: &Entry) -> bool {
        self.section == other.section && self.row == other.row
    }
}

/// The `paper_default_cycles` and `paper_default_stats_fp` sections: each
/// fingerprint guest's simulated cycles and
/// [`Stats::fingerprint`](vta_sim::Stats::fingerprint) under
/// `paper_default` at `Scale::Test`, read from its cell among `cells`
/// (`paper_default` cells at `Scale::Test`) or, with none there, from a
/// run of its own held to its [`Reference`].
pub fn paper_default_entries(cells: &[Measurement]) -> Vec<Entry> {
    // interp rides along beyond the paper's trio, from outside the sweep
    // suite: its computed-goto dispatch drives the indirect-target inline
    // cache, so fingerprint drift there catches cache-state
    // nondeterminism the others can't.
    let runs: Vec<(&str, RunReport)> = ["gzip", "mcf", "crafty", "interp"]
        .into_iter()
        .map(|name| {
            let w = vta_workloads::by_name(name, Scale::Test).expect("benchmark exists");
            if let Some(m) = cells.iter().find(|m| m.bench == w.name) {
                return (name, m.report.clone());
            }
            let report = System::new(VirtualArchConfig::paper_default(), &w.image)
                .run(crate::RUN_BUDGET)
                .expect("benchmark runs");
            Reference::of(&w.image).require(&format!("{name} paper_default"), &report);
            (name, report)
        })
        .collect();
    let cycles = runs
        .iter()
        .map(|(name, r)| Entry::new("paper_default_cycles", name, r.cycles));
    let stats_fp = runs
        .iter()
        .map(|(name, r)| Entry::new("paper_default_stats_fp", name, r.stats.fingerprint()));
    cycles.chain(stats_fp).collect()
}

/// One digest over every simulated number of a sweep: each cell's
/// benchmark, configuration, cycles, modelled PIII cycles (the
/// slowdown's denominator), retired instructions and stats fingerprint,
/// in cell order. Equal for every `threads` value handed
/// to [`crate::sweep_threads`] — cells are independent deterministic
/// simulations placed by job index.
pub(crate) fn sweep_digest(ms: &[Measurement]) -> u64 {
    let mut h = Fnv1a::default();
    for m in ms {
        let r = &m.report;
        h.eat(m.bench.as_bytes());
        h.eat(&[0]);
        h.eat(m.config.as_bytes());
        h.eat(&[0]);
        h.eat(&r.cycles.to_le_bytes());
        h.eat(&m.piii_cycles.to_le_bytes());
        h.eat(&r.guest_insns.to_le_bytes());
        h.eat(&r.stats.fingerprint().to_le_bytes());
    }
    h.finish()
}

/// The two configurations every guest runs single-block under: region
/// formation off at `OptLevel::Full`, and `OptLevel::None` (whose region
/// limits are single whether or not superblocks are on).
fn single_block_configs() -> Vec<(String, VirtualArchConfig)> {
    let mut off = VirtualArchConfig::paper_default();
    off.superblock = false;
    let mut none = VirtualArchConfig::paper_default();
    none.opt = OptLevel::None;
    vec![
        ("superblock-off".to_string(), off),
        ("opt-none".to_string(), none),
    ]
}

/// FNV-1a over vpr's windowed metrics series, as CSV, sampled every
/// 50,000 cycles under `paper_default` at `Scale::Test`.
///
/// # Panics
///
/// Panics if the series does not telescope to the run's end-of-run stats.
fn metrics_vpr_digest() -> u64 {
    let mcfg = MetricsConfig {
        interval: 50_000,
        ..MetricsConfig::default()
    };
    let (report, m) = crate::metrics::metrics_benchmark(
        "vpr",
        Scale::Test,
        VirtualArchConfig::paper_default(),
        mcfg,
    );
    m.reconcile_stats(&report.stats)
        .unwrap_or_else(|e| panic!("vpr metrics series: {e}"));
    let mut h = Fnv1a::default();
    h.eat(crate::metrics::series_csv(&m).as_bytes());
    h.finish()
}

/// FNV-1a over the `Debug` text of `decode` on every one-byte and `0F`
/// opcode × {no prefix, `66`, `F2`, `F3`} × 256 ModRM bytes × three
/// SIB / displacement / immediate tails and one page end right after the
/// ModRM byte: what every encoding decodes to, guests' or not.
fn decode_digest() -> u64 {
    use vta_x86::decode::{decode, SliceSource};
    const TAILS: [&[u8]; 4] = [
        &[0x24, 0x78, 0x56, 0x34, 0x12, 0xEF, 0xCD, 0xAB, 0x89, 0x10],
        &[0x8D, 0x80, 0x00, 0x00, 0x01, 0x7F, 0x02, 0x00, 0x00, 0x00],
        &[0xFF; 10],
        &[],
    ];
    let (mut h, mut bytes, mut text) = (Fnv1a::default(), Vec::new(), String::new());
    for prefix in [None, Some(0x66), Some(0xF2), Some(0xF3)] {
        for (opcode, modrm) in (0..0x200u32).flat_map(|op| (0..=0xFFu8).map(move |m| (op, m))) {
            for tail in TAILS {
                bytes.clear();
                bytes.extend(prefix);
                bytes.extend((opcode > 0xFF).then_some(0x0F));
                bytes.extend([opcode as u8, modrm]);
                bytes.extend_from_slice(tail);
                // The bytes end where the mapped page does.
                let at = 0x2000 - bytes.len() as u32;
                text.clear();
                let _ = write!(text, "{:?}", decode(&SliceSource::new(at, &bytes), at));
                h.eat(text.as_bytes());
            }
        }
    }
    h.finish()
}

/// Folds one translation into `h`: every field of the block, or the
/// error. Integers go in little-endian, the host code and terminator as
/// their `Debug` text.
fn eat_translation(h: &mut Fnv1a, at: u32, t: &Result<TBlock, TranslateError>) {
    h.eat(&at.to_le_bytes());
    let b = match t {
        Ok(b) => b,
        Err(e) => {
            h.eat(format!("err {e:?}").as_bytes());
            return;
        }
    };
    h.eat(format!("ok {:?} {:?}", b.term, b.code).as_bytes());
    for n in [
        b.guest_addr,
        b.guest_len,
        b.guest_insns,
        u32::from(b.is_call),
    ] {
        h.eat(&n.to_le_bytes());
    }
    h.eat(&u64::from(b.translate_cycles).to_le_bytes());
    // The member spans, the footprint spans, then the member counts: the
    // order the frozen `translation_digests` rows were hashed in.
    let ranges: Vec<(u32, u32)> = b.members().map(|m| (m.addr, m.len)).collect();
    for list in [&ranges[..], b.footprint.spans()] {
        h.eat(&(list.len() as u32).to_le_bytes());
        for &(addr, len) in list {
            h.eat(&addr.to_le_bytes());
            h.eat(&len.to_le_bytes());
        }
    }
    h.eat(&(b.members().len() as u32).to_le_bytes());
    for m in b.members() {
        h.eat(&m.insns.to_le_bytes());
    }
}

/// The `translation_digests` section: per guest at `Scale::Test`, FNV-1a
/// over the translation of every block leader its reference run reaches
/// (the entry and every [`Leaders`] pc, ascending), against the image's
/// initial memory. `<guest>-full` translates each leader single-block and as a
/// static region under [`RegionLimits::default`], both at `Full`;
/// `<guest>-none` single-block at `None`. Guests run on `threads` host
/// threads; the rows are the same for every `threads`.
pub(crate) fn translation_entries(threads: usize) -> Vec<Entry> {
    let suite = vta_workloads::all(Scale::Test);
    let digests = crate::bounded_map(threads, 0..suite.len(), |g| {
        let image = &suite[g].image;
        let mut leaders = Leaders::default();
        let stop = Cpu::new(image).run_observed(crate::RUN_BUDGET, &mut leaders);
        assert!(
            matches!(stop, Ok(StopReason::Exit(_))),
            "{}: reference run stopped with {stop:?}",
            suite[g].name
        );
        leaders.0.insert(image.entry);
        let mem = image.build_mem();
        let (mut full, mut none) = (Fnv1a::default(), Fnv1a::default());
        for pc in leaders.0 {
            eat_translation(&mut full, pc, &translate_block(&mem, pc, OptLevel::Full));
            let limits = RegionLimits::default();
            let region = translate_region(&mem, pc, OptLevel::Full, &limits);
            eat_translation(&mut full, pc, &region);
            eat_translation(&mut none, pc, &translate_block(&mem, pc, OptLevel::None));
        }
        [full.finish(), none.finish()]
    });
    vta_workloads::NAMES
        .iter()
        .zip(digests)
        .flat_map(|(name, [full, none])| {
            [
                Entry::new("translation_digests", &format!("{name}-full"), full),
                Entry::new("translation_digests", &format!("{name}-none"), none),
            ]
        })
        .collect()
}

/// Every frozen value, in `BENCH_dispatch.json` order:
/// [`paper_default_entries`], the `figure_sweep_digests` (one
/// `sweep_digest` per figure sweep, 16 configurations × 11 guests), the
/// `gate_digests` (`single_block`: the `sweep_digest` of every guest
/// with superblocks off and at `OptLevel::None`; `metrics_vpr`) and the
/// `translation_entries`. One sweep on `threads` host threads runs every
/// configuration they read, each distinct one once per guest; the result
/// is the same for every `threads`, and every cell is held to its
/// guest's [`Reference`] before it is digested.
pub fn entries(threads: usize) -> Vec<Entry> {
    use crate::figures::{fig4_configs, fig5_configs, fig8_configs, fig9_configs};
    let rows = [
        ("figure_sweep_digests", "fig4", fig4_configs()),
        ("figure_sweep_digests", "fig5", fig5_configs()),
        ("figure_sweep_digests", "fig8", fig8_configs()),
        ("figure_sweep_digests", "fig9", fig9_configs()),
        ("gate_digests", "single_block", single_block_configs()),
    ];
    let mut lists: Vec<_> = rows.iter().map(|(_, _, configs)| configs.clone()).collect();
    lists.push(vec![(
        "paper_default".to_string(),
        VirtualArchConfig::paper_default(),
    )]);
    let mut parts = crate::sweep_lists(Scale::Test, &lists, threads).into_iter();
    let digests: Vec<Entry> = rows
        .iter()
        .zip(parts.by_ref())
        .map(|((section, row, _), ms)| Entry::new(section, row, sweep_digest(&ms)))
        .collect();
    let defaults: Vec<Measurement> = parts.flatten().collect();
    let mut out = paper_default_entries(&defaults);
    out.extend(digests);
    out.push(Entry::new(
        "gate_digests",
        "metrics_vpr",
        metrics_vpr_digest(),
    ));
    out.push(Entry::new("gate_digests", "decode_digest", decode_digest()));
    out.extend(translation_entries(threads));
    out
}

/// Compares what the tree simulates with what `BENCH_dispatch.json`
/// froze, row by row: an `Ok` line for each simulated row that matches
/// its frozen value, and an `Err` line naming each row that drifted, is
/// simulated but missing from the file, or is in the file but no longer
/// simulated.
pub fn compare(frozen: &[Entry], simulated: &[Entry]) -> Vec<Result<String, String>> {
    let mut lines: Vec<Result<String, String>> = simulated
        .iter()
        .map(|s| {
            let name = s.name();
            match frozen.iter().find(|f| f.same_row(s)) {
                Some(f) if f.value == s.value => Ok(format!("{name}: {} ok", s.value)),
                Some(f) => Err(format!(
                    "{name}: drifted: frozen {}, simulated {}",
                    f.value, s.value
                )),
                None => Err(format!(
                    "{name}: missing from BENCH_dispatch.json (simulated {})",
                    s.value
                )),
            }
        })
        .collect();
    let extra = frozen
        .iter()
        .filter(|f| !simulated.iter().any(|s| s.same_row(f)));
    lines.extend(extra.map(|f| {
        Err(format!(
            "{}: extra row in BENCH_dispatch.json (frozen {}), not simulated",
            f.name(),
            f.value
        ))
    }));
    lines
}

/// Renders `entries` as `BENCH_dispatch.json`: one object per section,
/// in order of first appearance, each row on its own line.
pub fn render_json(entries: &[Entry]) -> String {
    let mut out = String::from("{\n  \"scale\": \"test\"");
    let mut section: Option<&str> = None;
    for e in entries {
        if section == Some(e.section.as_str()) {
            out.push_str(",\n");
        } else {
            if section.is_some() {
                out.push_str("\n  }");
            }
            let _ = write!(out, ",\n  \"{}\": {{\n", e.section);
            section = Some(&e.section);
        }
        let _ = write!(out, "    \"{}\": {}", e.row, e.value);
    }
    if section.is_some() {
        out.push_str("\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Whether `s` is a section or row name [`render_json`] can write
/// without escaping.
fn is_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

/// Reads every section of a `BENCH_dispatch.json` document back into
/// entries. Strict: the document must have exactly the layout
/// [`render_json`] writes — one section or row per line, `u64` values in
/// canonical decimal, no row twice.
///
/// # Errors
///
/// Names the first line that breaks the layout.
pub fn parse_json(json: &str) -> Result<Vec<Entry>, String> {
    let lines: Vec<&str> = json.lines().collect();
    let line = |i: usize| lines.get(i).copied();
    let bad = |i: usize, want: &str| match line(i) {
        Some(l) => format!("line {}: expected {want}, found {l:?}", i + 1),
        None => format!("line {}: expected {want}, found the end of the file", i + 1),
    };
    if line(0) != Some("{") {
        return Err(bad(0, "'{'"));
    }
    if line(1) != Some("  \"scale\": \"test\",") {
        return Err(bad(1, "the scale, \"test\""));
    }
    let mut entries: Vec<Entry> = Vec::new();
    let mut i = 2;
    loop {
        let section = line(i)
            .and_then(|l| l.strip_prefix("  \"")?.strip_suffix("\": {"))
            .filter(|s| is_name(s))
            .ok_or_else(|| bad(i, "a section"))?;
        i += 1;
        loop {
            let text = line(i).unwrap_or_default();
            let (row, more) = match text.strip_suffix(',') {
                Some(row) => (row, true),
                None => (text, false),
            };
            let entry = row
                .strip_prefix("    \"")
                .and_then(|r| r.split_once("\": "))
                .filter(|(name, _)| is_name(name))
                .and_then(|(name, v)| {
                    let value: u64 = v.parse().ok().filter(|n: &u64| n.to_string() == v)?;
                    Some(Entry::new(section, name, value))
                })
                .ok_or_else(|| bad(i, "a row, \"name\": value"))?;
            if entries.iter().any(|e| e.same_row(&entry)) {
                return Err(format!("line {}: {} appears twice", i + 1, entry.name()));
            }
            entries.push(entry);
            i += 1;
            if !more {
                break;
            }
        }
        match line(i) {
            Some("  },") => i += 1,
            Some("  }") => {
                i += 1;
                break;
            }
            _ => return Err(bad(i, "the end of the section")),
        }
    }
    if line(i) != Some("}") {
        return Err(bad(i, "'}'"));
    }
    if line(i + 1).is_some() {
        return Err(bad(i + 1, "the end of the file"));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Entry> {
        vec![
            Entry::new("paper_default_cycles", "gzip", 123),
            Entry::new("paper_default_cycles", "mcf", 456),
            Entry::new("paper_default_stats_fp", "gzip", u64::MAX),
            Entry::new("figure_sweep_digests", "fig4", 0),
            Entry::new("gate_digests", "single_block", 7),
            Entry::new("gate_digests", "metrics_vpr", 8),
        ]
    }

    #[test]
    fn every_section_round_trips() {
        let json = render_json(&sample());
        crate::json_lint::check(&json).expect("valid JSON");
        assert_eq!(parse_json(&json), Ok(sample()));
    }

    #[test]
    fn the_checked_in_file_is_what_the_renderer_writes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
        let json = std::fs::read_to_string(path).expect("BENCH_dispatch.json exists");
        let frozen = parse_json(&json).expect("parses");
        assert_eq!(render_json(&frozen), json);
    }

    #[test]
    fn malformed_documents_are_rejected_naming_the_line() {
        let good = render_json(&sample());
        for (from, to, line) in [
            ("\"gzip\": 123", "\"gzip\": +123", 4),
            ("\"gzip\": 123", "\"gzip\": 0123", 4),
            ("\"gzip\": 123", "\"gzip\": 12.3", 4),
            ("\"gzip\": 123", "\"gzip\": 18446744073709551616", 4),
            ("\"gzip\": 123", "\"gz ip\": 123", 4),
            ("\"gzip\": 123,", "\"gzip\": 123", 5),
            ("\"mcf\": 456\n", "\"mcf\": 456,\n", 6),
            ("\"mcf\": 456", "\"gzip\": 456", 5),
            ("\"scale\": \"test\"", "\"scale\": \"large\"", 2),
            ("{\n", "", 1),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from:?} is in the document");
            let err = parse_json(&bad).expect_err(to);
            assert!(err.starts_with(&format!("line {line}:")), "{to:?}: {err}");
        }
        let cut = &good[..good.rfind('}').expect("closing brace")];
        assert!(parse_json(cut).unwrap_err().contains("end of the file"));
        assert!(
            parse_json(&format!("{good}{good}")).is_err(),
            "trailing data"
        );
        assert!(parse_json("").is_err());
    }

    #[test]
    fn compare_names_every_drifted_missing_and_extra_row() {
        let frozen = sample();
        assert!(compare(&frozen, &frozen).iter().all(Result::is_ok));

        let mut simulated = sample();
        simulated[4].value += 1; // gate_digests.single_block drifts
        simulated.remove(1); // paper_default_cycles.mcf is no longer simulated
        simulated.push(Entry::new("gate_digests", "translation", 9)); // new, not frozen
        let errs: Vec<String> = compare(&frozen, &simulated)
            .into_iter()
            .filter_map(Result::err)
            .collect();
        assert_eq!(
            errs,
            [
                "gate_digests.single_block: drifted: frozen 7, simulated 8",
                "gate_digests.translation: missing from BENCH_dispatch.json (simulated 9)",
                "paper_default_cycles.mcf: extra row in BENCH_dispatch.json (frozen 456), \
                 not simulated",
            ]
        );
    }

    /// A frozen digest cannot tell a wrong cell from a right one, and
    /// neither can comparing configurations with each other when all are
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
    #[should_panic(expected = "gzip/superblock-off: retired")]
    fn a_wrong_gate_cell_panics_naming_the_cell() {
        let w = vta_workloads::by_name("gzip", Scale::Test).unwrap();
        let mut report = System::new(VirtualArchConfig::paper_default(), &w.image)
            .run(crate::RUN_BUDGET)
            .unwrap();
        report.guest_insns -= 1;
        Reference::of(&w.image).require("gzip/superblock-off", &report);
    }
}
