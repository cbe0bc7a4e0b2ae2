//! A [`Translator`] that has translated anything before translates the
//! next block exactly as a fresh one does.
//!
//! The context keeps its buffers across translations and clears each at
//! first use; a buffer left uncleared, or a region member formation
//! rejected but did not roll back, would leak one translation into the
//! next. One long-lived context translates the shared workload (every
//! guest leader and the fuzz generators' code, shuffled, mixing opt
//! levels, single / static-region / recorded-path shapes and decode
//! failures), and every result must equal the free function's, which
//! runs on a fresh context. Recorded paths are what the DBT and the fuzz
//! oracle run; static regions are what the `-full` translation digests
//! and the benchmark's region probe translate.

mod common;

use vta_ir::Translator;

#[test]
fn a_reused_translator_equals_a_fresh_one() {
    let (mems, jobs) = common::workload(0x7E05_E000);
    let mut translator = Translator::default();
    let (mut ok, mut regions, mut failed) = (0, 0, 0);
    for (i, job) in jobs.iter().enumerate() {
        let reused = job.on(&mut translator, &mems);
        assert_eq!(
            reused,
            job.fresh(&mems),
            "job {i} of {}: {job:x?}",
            jobs.len()
        );
        match reused {
            Ok(b) => {
                ok += 1;
                regions += usize::from(b.is_region());
            }
            Err(_) => failed += 1,
        }
    }
    // The mix is what the test claims it is.
    assert!(
        ok > 10_000 && regions > 5_000 && failed > 500,
        "{ok} translated, {regions} regions, {failed} failed"
    );
    println!(
        "{} jobs: {ok} translated ({regions} multi-member regions), {failed} failed",
        jobs.len()
    );
}
