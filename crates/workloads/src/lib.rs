//! # vta-workloads — a synthetic SpecInt 2000 stand-in suite
//!
//! The paper evaluates on SpecInt 2000 with MinneSPEC inputs. Real SpecInt
//! binaries are unavailable here (and would need a far larger ISA
//! surface), so this crate provides **eleven synthetic guest programs,
//! one per benchmark the paper reports**, each engineered to the
//! characteristic that drives that benchmark's behaviour in the paper's
//! figures:
//!
//! | name      | distinctive behaviour | instruction working set |
//! |-----------|------------------------|------------------------|
//! | `gzip`    | LZ-style hash/match/copy over a 64 KiB window | small (fits L1 code) |
//! | `vpr`     | annealing sweep over many cost evaluators | ≫ L1, ≈ L1.5 capacity |
//! | `gcc`     | hundreds of distinct "functions" visited in passes | ≫ L1.5 |
//! | `mcf`     | serial pointer chasing over a 224 KiB arena | tiny |
//! | `crafty`  | 64-bit bitboard ops (carry chains) + attack tables | ≫ L1 |
//! | `parser`  | tokenizing + hash-dictionary string compares | medium |
//! | `perlbmk` | bytecode interpreter with an indirect dispatch table | large |
//! | `gap`     | multi-precision arithmetic (`adc` ripple chains) | medium-large |
//! | `vortex`  | object store: indirect calls, record copies | ≫ L1.5 |
//! | `bzip2`   | block sorting + histogram over a 16 KiB block | small |
//! | `twolf`   | cell placement with table-driven cost deltas | medium-large |
//!
//! A twelfth, non-SPEC workload — `interp`, a computed-goto bytecode
//! interpreter whose every handler ends in its own indirect dispatch —
//! is available through [`by_name`] as the indirect-branch inline-cache
//! test bed. It is not part of [`NAMES`] (the paper's reported suite)
//! but rides along in the perf harness.
//!
//! All programs are deterministic, self-checking (they exit with a
//! computed checksum, which the differential tests compare against the
//! reference interpreter), and parameterized by a [`Scale`].
//!
//! # Examples
//!
//! ```
//! use vta_workloads::{by_name, Scale};
//! use vta_x86::{Cpu, StopReason};
//!
//! let w = by_name("gzip", Scale::Test).expect("known benchmark");
//! let mut cpu = Cpu::new(&w.image);
//! let stop = cpu.run(50_000_000).expect("runs");
//! assert!(matches!(stop, StopReason::Exit(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod gen;
pub mod suite;

use vta_x86::GuestImage;

/// Problem scale (code working sets stay constant; iteration counts and
/// data sizes shrink at smaller scales).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Seconds-fast smoke scale for unit/integration tests.
    Test,
    /// Default experiment scale (used by the figure harness).
    #[default]
    Small,
    /// Long-running scale for stable measurements.
    Large,
}

impl Scale {
    /// A multiplier applied to each benchmark's iteration counts.
    pub(crate) fn iters(self, base: u32) -> u32 {
        match self {
            Scale::Test => (base / 16).max(1),
            Scale::Small => base,
            Scale::Large => base * 8,
        }
    }
}

/// One benchmark: a name and a bootable guest image.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Benchmark name (SpecInt-style, e.g. `"164.gzip"` shortened).
    pub name: &'static str,
    /// One-line description of the modelled behaviour.
    pub description: &'static str,
    /// The guest program.
    pub image: GuestImage,
}

/// Benchmark names in the paper's presentation order.
pub const NAMES: [&str; 11] = [
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "perlbmk", "gap", "vortex", "bzip2", "twolf",
];

/// Builds the full suite at `scale`, in the paper's order.
pub fn all(scale: Scale) -> Vec<Workload> {
    NAMES
        .iter()
        .map(|n| by_name(n, scale).expect("every listed name builds"))
        .collect()
}

/// Builds one benchmark by name.
pub fn by_name(name: &str, scale: Scale) -> Option<Workload> {
    let (build, description): (fn(Scale) -> GuestImage, &'static str) = match name {
        "gzip" => (suite::gzip, "LZ-style compression kernel (small code)"),
        "vpr" => (suite::vpr, "annealing placement sweep (code > L1)"),
        "gcc" => (
            suite::gcc,
            "many-function compilation passes (code >> L1.5)",
        ),
        "mcf" => (suite::mcf, "network-simplex pointer chasing (memory-bound)"),
        "crafty" => (suite::crafty, "bitboard move generation (code > L1)"),
        "parser" => (suite::parser, "dictionary tokenizer (string compares)"),
        "perlbmk" => (suite::perlbmk, "bytecode interpreter (indirect dispatch)"),
        "gap" => (suite::gap, "multi-precision arithmetic (carry chains)"),
        "vortex" => (
            suite::vortex,
            "object store with indirect calls (code >> L1.5)",
        ),
        "bzip2" => (suite::bzip2, "block sort + histogram (memory-heavy)"),
        "twolf" => (suite::twolf, "cell placement cost deltas"),
        "interp" => (
            suite::interp,
            "computed-goto bytecode interpreter (per-site indirect dispatch)",
        ),
        _ => return None,
    };
    Some(Workload {
        name: match name {
            "gzip" => "164.gzip",
            "vpr" => "175.vpr",
            "gcc" => "176.gcc",
            "mcf" => "181.mcf",
            "crafty" => "186.crafty",
            "parser" => "197.parser",
            "perlbmk" => "253.perlbmk",
            "gap" => "254.gap",
            "vortex" => "255.vortex",
            "bzip2" => "256.bzip2",
            "twolf" => "300.twolf",
            "interp" => "900.interp",
            _ => unreachable!(),
        },
        description,
        image: build(scale),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_x86::{Cpu, StopReason};

    #[test]
    fn every_benchmark_builds_and_exits() {
        for w in all(Scale::Test) {
            let mut cpu = Cpu::new(&w.image);
            let stop = cpu.run(100_000_000).unwrap_or_else(|e| {
                panic!("{} faulted: {e}", w.name);
            });
            assert!(
                matches!(stop, StopReason::Exit(_)),
                "{} must exit cleanly, got {stop:?}",
                w.name
            );
        }
    }

    #[test]
    fn deterministic_checksums() {
        for name in NAMES {
            let run = || {
                let w = by_name(name, Scale::Test).unwrap();
                let mut cpu = Cpu::new(&w.image);
                match cpu.run(100_000_000).unwrap() {
                    StopReason::Exit(c) => c,
                    other => panic!("{name}: {other:?}"),
                }
            };
            assert_eq!(run(), run(), "{name} must be deterministic");
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(by_name("eon", Scale::Test).is_none(), "252.eon is omitted");
    }

    #[test]
    fn interp_rides_along_outside_names() {
        assert!(!NAMES.contains(&"interp"), "not part of the reported suite");
        let w = by_name("interp", Scale::Test).expect("interp builds");
        assert_eq!(w.name, "900.interp");
        let mut cpu = Cpu::new(&w.image);
        assert!(matches!(
            cpu.run(100_000_000).expect("no fault"),
            StopReason::Exit(_)
        ));
    }

    #[test]
    fn scales_change_work() {
        let small = by_name("gzip", Scale::Test).unwrap();
        let big = by_name("gzip", Scale::Small).unwrap();
        let count = |img: &vta_x86::GuestImage| {
            let mut cpu = Cpu::new(img);
            cpu.run(200_000_000).unwrap();
            cpu.insn_count
        };
        assert!(count(&big.image) > count(&small.image) * 2);
    }
}
