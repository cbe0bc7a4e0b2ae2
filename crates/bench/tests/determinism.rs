//! Determinism regression: the simulator is a pure function of
//! `(guest image, configuration)`. Two runs must agree bit-for-bit on
//! every simulated number — cycles, instruction counts, and the entire
//! statistics set — and host-side accelerators (the cross-system
//! translation memo) must not perturb any of it.

use std::sync::Arc;

use vta_bench::RUN_BUDGET;
use vta_dbt::{SharedTranslations, System, VirtualArchConfig};
use vta_sim::{MetricsConfig, ProfConfig, TraceConfig};
use vta_workloads::Scale;

/// The tracer is an observer: running with tracing enabled must not
/// change a single simulated number relative to running without it.
#[test]
fn tracing_does_not_change_a_single_cycle() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let plain = System::new(VirtualArchConfig::paper_default(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    let mut traced_sys = System::new(VirtualArchConfig::paper_default(), &w.image);
    traced_sys.enable_tracing(TraceConfig { capacity: 1 << 14 });
    let traced = traced_sys.run(RUN_BUDGET).expect("gzip runs");
    assert_eq!(plain.cycles, traced.cycles, "cycles must be bit-identical");
    assert_eq!(plain.guest_insns, traced.guest_insns);
    assert_eq!(plain.output, traced.output);
    assert_eq!(plain.stats, traced.stats, "all counters identical");
    let tracer = traced_sys.take_tracer();
    assert!(tracer.is_enabled() && !tracer.is_empty(), "trace captured");
    assert!(tracer.events().count() > 0);
}

/// The metrics recorder is the same kind of observer as the tracer:
/// windowed sampling must not change a single simulated number relative
/// to running without it — at any sampling interval. Mirrors
/// [`tracing_does_not_change_a_single_cycle`].
#[test]
fn metrics_do_not_change_a_single_cycle() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let plain = System::new(VirtualArchConfig::paper_default(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    for interval in [1u64, 1000, 10_000] {
        let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
        sys.enable_metrics(MetricsConfig {
            interval,
            ..MetricsConfig::default()
        });
        let sampled = sys.run(RUN_BUDGET).expect("gzip runs");
        assert_eq!(plain.cycles, sampled.cycles, "interval {interval}");
        assert_eq!(plain.guest_insns, sampled.guest_insns);
        assert_eq!(plain.output, sampled.output);
        assert_eq!(plain.stats, sampled.stats, "all counters identical");
        assert_eq!(
            plain.stats.fingerprint(),
            sampled.stats.fingerprint(),
            "stats digest identical with metrics on"
        );
        let m = sys.take_metrics();
        assert!(m.is_enabled() && !m.is_empty(), "series captured");
        m.reconcile_stats(&sampled.stats)
            .expect("windowed sums telescope to the run totals");
    }
}

/// All three observers at once — what the benchmark ledger's traced mode
/// runs — on every fingerprint guest:
/// nothing simulated may move, and each recorder must have recorded.
#[test]
fn all_observers_on_do_not_change_a_single_cycle() {
    for name in ["gzip", "mcf", "crafty", "interp"] {
        let w = vta_workloads::by_name(name, Scale::Test).expect("benchmark exists");
        let plain = System::new(VirtualArchConfig::paper_default(), &w.image)
            .run(RUN_BUDGET)
            .expect("benchmark runs");
        let mut sys = System::new(VirtualArchConfig::paper_default(), &w.image);
        sys.enable_tracing(TraceConfig::default());
        sys.enable_metrics(MetricsConfig::default());
        sys.enable_profiling(ProfConfig::default());
        let observed = sys.run(RUN_BUDGET).expect("benchmark runs");
        assert_eq!(plain.cycles, observed.cycles, "{name}: cycles");
        assert_eq!(plain.guest_insns, observed.guest_insns, "{name}: insns");
        assert_eq!(plain.output, observed.output, "{name}: output");
        assert_eq!(plain.stats, observed.stats, "{name}: all counters");
        assert!(!sys.take_tracer().is_empty(), "{name}: trace captured");
        assert!(!sys.take_metrics().is_empty(), "{name}: series captured");
        let profile = sys.take_profile();
        assert!(
            profile.threads.iter().any(|t| !t.phases.is_empty()),
            "{name}: host phases captured"
        );
    }
}

/// The frozen `paper_default` fingerprints in `BENCH_dispatch.json` —
/// cycles and stats digest — must match what the tree actually
/// simulates. This is the regression net for the whole observability
/// subsystem (and any other change): simulated behavior cannot drift
/// silently.
#[test]
fn fingerprints_match_checked_in_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_dispatch.json");
    let json = std::fs::read_to_string(path).expect("BENCH_dispatch.json exists");
    let expected = vta_bench::perf::parse_fingerprints(&json).expect("parseable fingerprints");
    assert_eq!(
        vta_bench::perf::cycle_fingerprint(),
        expected,
        "simulated cycles or stats drifted from the checked-in fingerprints"
    );
}

#[test]
fn gzip_runs_are_bit_identical() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let run = || {
        System::new(VirtualArchConfig::paper_default(), &w.image)
            .run(RUN_BUDGET)
            .expect("gzip runs")
    };
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.guest_insns, b.guest_insns);
    assert_eq!(a.exit_code, b.exit_code);
    assert_eq!(a.output, b.output);
    assert_eq!(a.stats, b.stats, "every counter and histogram identical");
}

#[test]
fn shared_translations_preserve_sweep_cell_results() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let cfg = VirtualArchConfig::with_translators(4, true);
    let base = System::new(cfg.clone(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    let sh = SharedTranslations::new(cfg.opt);
    // Pass 0 fills the memo; pass 1 runs almost entirely from it.
    for pass in 0..2 {
        let mut sys = System::new(cfg.clone(), &w.image);
        sys.attach_shared(Arc::clone(&sh));
        let r = sys.run(RUN_BUDGET).expect("gzip runs");
        assert_eq!(r.cycles, base.cycles, "pass {pass}");
        assert_eq!(r.guest_insns, base.guest_insns, "pass {pass}");
        assert_eq!(r.stats, base.stats, "pass {pass}");
    }
    assert!(!sh.is_empty(), "memo was populated");
}

#[test]
fn opt_level_mismatch_refuses_shared_memo() {
    let w = vta_workloads::by_name("gzip", Scale::Test).expect("gzip exists");
    let cfg = VirtualArchConfig::paper_default();
    let base = System::new(cfg.clone(), &w.image)
        .run(RUN_BUDGET)
        .expect("gzip runs");
    // A memo at the wrong opt level is silently ignored at attach.
    let sh = SharedTranslations::new(vta_ir::OptLevel::None);
    assert_ne!(cfg.opt, vta_ir::OptLevel::None, "test needs a mismatch");
    let mut sys = System::new(cfg, &w.image);
    sys.attach_shared(Arc::clone(&sh));
    let r = sys.run(RUN_BUDGET).expect("gzip runs");
    assert_eq!(r.cycles, base.cycles);
    assert!(sh.is_empty(), "refused memo must stay untouched");
}
