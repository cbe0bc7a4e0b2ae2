//! Tier-1 gates for the differential fuzzer (see `vta_ir::fuzz`).
//!
//! Cheap, deterministic checks run on every `cargo test`:
//!
//! * every committed corpus reproducer replays clean through the
//!   differential oracle (a regression here means a fixed front-end bug
//!   came back);
//! * a fixed-seed smoke batch of freshly generated cases finds no
//!   divergence;
//! * seeded loops over what the case stream does not draw: the
//!   `wide_arith` family, pure byte soup, and random `read` input;
//! * the case stream really is a pure function of its seed.
//!
//! `vta fuzz` (the vta-bench CLI) runs the big sweeps.

use vta_ir::fuzz::{corpus, gen, gen::CaseStream, run_case, Case, Verdict};
use vta_sim::Rng;

fn corpus_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus")
}

/// Every committed minimized reproducer must still pass — and must stay
/// comparable (a `Skip` would mean the entry no longer tests anything).
#[test]
fn corpus_replays_clean() {
    let cases = corpus::load_dir(&corpus_dir()).expect("corpus directory loads");
    assert!(!cases.is_empty(), "committed corpus must not be empty");
    for (path, case) in &cases {
        match run_case(case) {
            Verdict::Pass => {}
            Verdict::Skip(reason) => {
                panic!("{path}: corpus entry skipped ({reason}); entries must be comparable")
            }
            Verdict::Diverge(d) => panic!(
                "{path}: fixed bug regressed: {:?} at {:?}: {}",
                d.channel, d.opt, d.detail
            ),
        }
    }
}

/// A small fixed-seed batch from every generator family must agree on
/// both optimization levels. The CI `fuzz` stage and the bench binary
/// run much larger sweeps; this keeps a floor under plain `cargo test`.
#[test]
fn fixed_seed_smoke() {
    for case in CaseStream::new(0x5EED).take(250) {
        assert_no_divergence(&case);
    }
}

fn assert_no_divergence(case: &Case) {
    let verdict = run_case(case);
    assert!(
        !verdict.is_divergence(),
        "{} diverged: {verdict:?}\ncode: {:02x?}\ninput: {:02x?}",
        case.name,
        case.code,
        case.input
    );
}

fn random_bytes(rng: &mut Rng, len: u64) -> Vec<u8> {
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

/// One-operand `mul`/`imul`/`idiv`: the family kept out of the
/// `CaseStream` rotation, so this loop is its only driver.
#[test]
fn wide_arith_cases_agree() {
    let mut rng = Rng::seeded(0x71DE);
    for _ in 0..256 {
        assert_no_divergence(&gen::wide_arith(&mut rng));
    }
}

/// Arbitrary byte soup — no valid prologue, no trailing `hlt`, pure
/// decoder hostility — may fault or skip, but both paths have to agree.
#[test]
fn pure_byte_soup_never_diverges() {
    let mut rng = Rng::seeded(0x50FA);
    for i in 0..256 {
        let len = rng.range(1, 63);
        assert_no_divergence(&Case {
            name: format!("soup#{i}"),
            code: random_bytes(&mut rng, len),
            input: Vec::new(),
        });
    }
}

/// Whatever bytes `read` serves, both paths see the same ones.
#[test]
fn random_read_input_never_diverges() {
    let mut rng = Rng::seeded(0x1270);
    for _ in 0..256 {
        let mut case = gen::syscalls(&mut rng);
        let len = rng.below(32);
        case.input = random_bytes(&mut rng, len);
        assert_no_divergence(&case);
    }
}

/// Same seed ⇒ same case stream, byte for byte; different seed ⇒ a
/// different stream. This is what makes every fuzz run reproducible
/// from nothing but the `--seed` value printed in its report.
#[test]
fn case_stream_is_deterministic() {
    let a: Vec<Case> = CaseStream::new(42).take(64).collect();
    let b: Vec<Case> = CaseStream::new(42).take(64).collect();
    assert_eq!(a, b, "identical seeds must yield identical streams");
    let c: Vec<Case> = CaseStream::new(43).take(64).collect();
    assert_ne!(a, c, "distinct seeds should yield distinct streams");
}

/// The corpus text format round-trips through format → parse.
#[test]
fn corpus_format_round_trips() {
    let case = Case {
        name: String::from("round-trip"),
        code: vec![0xCD, 0x21, 0x90, 0xF4],
        input: vec![1, 2, 3],
    };
    let parsed = corpus::parse(&corpus::format(&case)).expect("formatted case parses");
    assert_eq!(parsed, case);
}
