//! Cycle-accurate tracing: watch every tile of the virtual architecture
//! work, then open the result in Perfetto.
//!
//! ```text
//! cargo run --release --example tracing
//! ```
//!
//! Writes `trace.json` in the Chrome trace-event format — drag it into
//! <https://ui.perfetto.dev> (or `chrome://tracing`) to see one timeline
//! row per tile: translation slaves churning through speculative work,
//! the manager's assign/lookup/commit loop, MMU and L2-bank service
//! spans, every network message, and the speculation-queue depth as a
//! counter track. Timestamps are simulated cycles (shown as µs).

use vta::dbt::{System, VirtualArchConfig};
use vta::sim::{Metrics, TraceConfig};
use vta::workloads::Scale;

fn main() {
    // Any guest works; the bundled gzip workload shows all the roles.
    let w = vta::workloads::by_name("gzip", Scale::Test).expect("bundled workload");

    let mut system = System::new(VirtualArchConfig::paper_default(), &w.image);
    // Tracing must be enabled before `run`; it is an observer and does
    // not change a single simulated cycle (see the determinism tests).
    system.enable_tracing(TraceConfig { capacity: 1 << 18 });
    let report = system.run(2_000_000_000).expect("guest ran");
    let tracer = system.take_tracer();

    println!(
        "gzip: {} cycles, {} events captured ({} dropped by the ring)",
        report.cycles,
        tracer.len(),
        tracer.dropped()
    );

    // Exact aggregates survive even when the ring overflows.
    let mut busiest: Vec<_> = tracer
        .tracks()
        .map(|(id, name)| (tracer.busy_cycles(id), name.to_string()))
        .collect();
    busiest.sort_unstable_by(|a, b| b.cmp(a));
    for (busy, name) in busiest.iter().take(5) {
        println!(
            "  {name:<18} {:5.1}% busy",
            *busy as f64 * 100.0 / report.cycles as f64
        );
    }

    let json = vta_bench::trace::chrome_trace_json(&tracer, &Metrics::disabled());
    std::fs::write("trace.json", json).expect("write trace.json");
    println!("wrote trace.json — open it at https://ui.perfetto.dev");
}
