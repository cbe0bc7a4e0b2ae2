//! End-to-end checks for the cycle-accurate observability subsystem:
//! traced runs of real benchmarks produce valid Chrome-trace JSON, and
//! the utilization report tells the paper's story — translation slaves
//! saturated, and the manager the busiest of the *shared service* tiles
//! (its software loop assigns work, looks up the L2 code cache, and
//! commits finished blocks; §2.2).

use vta_bench::json_lint;
use vta_bench::trace::{chrome_trace_json, trace_benchmark, utilization_report};
use vta_dbt::VirtualArchConfig;
use vta_sim::Metrics;
use vta_workloads::Scale;

/// Busy cycles per service-tile role, from a traced run.
fn service_busy(bench: &str) -> (u64, Vec<(String, u64)>) {
    let (report, tracer) = trace_benchmark(
        bench,
        Scale::Test,
        VirtualArchConfig::paper_default(),
        1 << 16,
    );
    let services: Vec<(String, u64)> = tracer
        .tracks()
        .filter(|(_, name)| {
            ["manager", "mmu", "l15", "l2bank", "syscall"]
                .iter()
                .any(|role| name.ends_with(role))
        })
        .map(|(id, name)| (name.to_string(), tracer.busy_cycles(id)))
        .collect();
    (report.cycles, services)
}

#[test]
fn manager_is_the_busiest_service_tile() {
    for bench in ["vpr", "gcc", "crafty"] {
        let (cycles, services) = service_busy(bench);
        assert!(cycles > 0);
        let (busiest, busy) = services
            .iter()
            .max_by_key(|(_, b)| *b)
            .expect("service tiles traced");
        assert!(
            busiest.ends_with("manager"),
            "{bench}: busiest service tile is {busiest} ({busy} cycles), \
             expected the manager: {services:?}"
        );
        assert!(*busy > 0, "{bench}: manager did work");
    }
}

#[test]
fn traced_run_exports_valid_chrome_json() {
    let (report, tracer) = trace_benchmark(
        "vpr",
        Scale::Test,
        VirtualArchConfig::paper_default(),
        1 << 16,
    );
    let json = chrome_trace_json(&tracer, &Metrics::disabled());
    json_lint::check(&json).expect("exporter emits syntactically valid JSON");
    assert!(json.contains("\"thread_name\""), "track metadata present");
    assert!(json.contains("exec"), "exec tile track named");
    assert!(json.contains("\"name\":\"network\""), "network track named");
    assert!(
        json.contains("\"hops\":"),
        "network messages carry hop counts"
    );

    let report_text = utilization_report(&tracer, report.cycles);
    assert!(report_text.contains("busy"), "busy table present");
    assert!(report_text.contains("top links"), "link table present");
    assert!(
        report_text.contains("specq.depth"),
        "queue-depth percentiles present"
    );
}

/// The ring drops oldest events under pressure, but the side-aggregates
/// (busy cycles, link traffic, counter percentiles) stay exact.
#[test]
fn tiny_ring_still_reports_exact_aggregates() {
    let (report, big) = trace_benchmark(
        "gzip",
        Scale::Test,
        VirtualArchConfig::paper_default(),
        1 << 20,
    );
    let (report2, small) =
        trace_benchmark("gzip", Scale::Test, VirtualArchConfig::paper_default(), 64);
    assert_eq!(
        report.cycles, report2.cycles,
        "capacity never affects timing"
    );
    assert!(small.dropped() > 0, "64-slot ring must overflow");
    assert_eq!(small.len(), 64);
    for (id, name) in big.tracks() {
        let (id2, _) = small
            .tracks()
            .find(|(_, n)| *n == name)
            .expect("same tracks registered");
        assert_eq!(
            big.busy_cycles(id),
            small.busy_cycles(id2),
            "busy cycles for {name} independent of ring capacity"
        );
    }
    let links_a: Vec<_> = big.links().collect();
    let links_b: Vec<_> = small.links().collect();
    assert_eq!(
        links_a, links_b,
        "link traffic independent of ring capacity"
    );
}
