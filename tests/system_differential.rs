//! End-to-end differential test: every synthetic benchmark must produce
//! the same architectural result on the full DBT-on-tiles system as on
//! the reference interpreter — across several virtual architecture
//! configurations.

use vta::dbt::{System, VirtualArchConfig};
use vta::ir::OptLevel;
use vta::workloads::{by_name, Scale, NAMES};
use vta_bench::perf::Reference;

/// Runs each guest on the reference interpreter and under `cfg`: exit
/// code, retired-instruction count and syscall output must all agree —
/// the same check `vta check` applies to every cell it digests.
fn matches_reference(cfg: VirtualArchConfig, guests: &[&str]) {
    for name in guests {
        let w = by_name(name, Scale::Test).expect("bundled workload");
        let report = System::new(cfg.clone(), &w.image)
            .run(600_000_000)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        Reference::of(&w.image).require(name, &report);
    }
}

/// The table: one test per configuration, each over its guests.
macro_rules! differential {
    ($($test:ident: $cfg:expr, $guests:expr;)*) => {$(
        #[test]
        fn $test() {
            matches_reference($cfg, $guests);
        }
    )*};
}

differential! {
    all_benchmarks_match_reference_on_default_config:
        VirtualArchConfig::paper_default(), &NAMES;
    conservative_single_translator_matches:
        VirtualArchConfig::with_translators(1, false), &NAMES[..4];
    no_l15_banks_matches:
        VirtualArchConfig::with_l15_banks(0), &NAMES[..3];
    morphing_config_matches:
        VirtualArchConfig::morphing(0), &["gzip", "gcc", "mcf"];
    unoptimized_translation_matches:
        VirtualArchConfig { opt: OptLevel::None, ..VirtualArchConfig::paper_default() },
        &["gzip", "gap", "perlbmk"];
    // Every level flushes: L1 and L1.5 skip blocks larger than
    // themselves, the L2 keeps the block it commits regardless.
    tiny_code_caches_match:
        VirtualArchConfig {
            l1_code_bytes: 512,
            l15_bank_bytes: 1024,
            l2_code_bytes: 4096,
            ..VirtualArchConfig::paper_default()
        },
        &["gzip", "mcf", "parser"];
}

#[test]
fn cycle_counts_are_deterministic_per_config() {
    let w = by_name("parser", Scale::Test).unwrap();
    let run = || {
        let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
        sys.run(600_000_000).expect("runs").cycles
    };
    assert_eq!(run(), run());
}

#[test]
fn elf_binary_runs_on_the_virtual_machine() {
    // The paper's pitch: unmodified statically-linked binaries. Wrap a
    // program in a real ELF container, load it, and run it end to end.
    let mut asm = vta::x86::Asm::new(0x0804_8000);
    asm.mov_ri(vta::x86::Reg::ECX, 10);
    asm.mov_ri(vta::x86::Reg::EAX, 0);
    let top = asm.here();
    asm.add_rr(vta::x86::Reg::EAX, vta::x86::Reg::ECX);
    asm.dec_r(vta::x86::Reg::ECX);
    asm.jcc(vta::x86::Cond::Ne, top);
    asm.exit_with_eax();
    let prog = asm.finish();
    let bytes = vta::x86::elf::write_minimal_exec(prog.base, &prog.code, prog.base);

    let image = vta::x86::elf::load(&bytes).expect("valid ELF");
    let mut sys = System::new(VirtualArchConfig::paper_default(), &image);
    let report = sys.run(1_000_000).expect("runs");
    assert_eq!(report.exit_code, Some(55));
}
