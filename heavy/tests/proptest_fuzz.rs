// Property suite: requires the `proptest` feature (external dependency).
#![cfg(feature = "proptest")]

//! Property variants of the differential fuzzer (`vta_ir::fuzz`).
//!
//! The in-tree `vta fuzz` subcommand sweeps fixed seeds; these properties let
//! proptest drive the same three-way oracle from arbitrary seeds and
//! arbitrary raw byte programs, with shrinking on failure. The oracle's
//! own minimizer is still the better reducer for generated streams
//! (layout-preserving NOP-out), so a failure here is best replayed
//! through `target/release/vta fuzz --seed <seed>`.

use proptest::prelude::*;
use vta_ir::fuzz::{gen::CaseStream, run_case, Case, Verdict};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any seed's generated stream must agree on both optimization
    /// levels (a few cases per seed; the CLI covers depth per seed).
    #[test]
    fn generated_streams_never_diverge(seed in any::<u64>()) {
        for case in CaseStream::new(seed).take(6) {
            let v = run_case(&case);
            prop_assert!(!v.is_divergence(), "{}: {v:?}", case.name);
        }
    }

    /// Arbitrary byte soup — no valid prologue, no trailing hlt, pure
    /// decoder hostility — must still never diverge (it may fault or
    /// skip, but both paths have to agree).
    #[test]
    fn arbitrary_byte_soup_never_diverges(
        code in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let case = Case { name: String::from("soup"), code, input: Vec::new() };
        let v = run_case(&case);
        prop_assert!(!v.is_divergence(), "{:02x?}: {v:?}", case.code);
    }

    /// Synthetic syscall input must never cause disagreement either.
    #[test]
    fn input_bytes_never_diverge(
        seed in any::<u64>(),
        input in proptest::collection::vec(any::<u8>(), 0..32),
    ) {
        // Reuse the syscall-heavy part of the stream deterministically.
        let mut case = CaseStream::new(seed)
            .take(16)
            .find(|c| !c.input.is_empty())
            .unwrap_or_else(|| CaseStream::new(seed).next().expect("stream yields"));
        case.input = input;
        let v = run_case(&case);
        prop_assert!(!v.is_divergence(), "{}: {v:?}", case.name);
    }
}
