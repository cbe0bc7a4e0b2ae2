//! Trace consumers: Chrome-trace-event export and utilization reports.
//!
//! The simulator's [`Tracer`] records what every tile was doing each
//! cycle; this module turns a finished trace into things a human can
//! look at:
//!
//! - [`chrome_trace_json`] emits the Chrome trace-event format (JSON
//!   array form), which both `chrome://tracing` and
//!   [Perfetto](https://ui.perfetto.dev) open directly. One track
//!   ("thread") per tile, plus a synthetic network track and counter
//!   tracks.
//! - [`utilization_report`] renders a plain-text summary: per-tile busy
//!   percentages, the busiest network links, and queue-depth
//!   percentiles.
//!
//! Both are hand-rolled (no serde): the workspace has a
//! zero-external-dependency policy.

use std::fmt::Write as _;

use vta_dbt::{RunReport, System, VirtualArchConfig};
use vta_sim::{Ctr, Metrics, TraceConfig, TraceEvent, Tracer};
use vta_workloads::Scale;

/// Runs `bench` at `scale` under `cfg` with tracing enabled; returns the
/// run report and the captured trace.
///
/// # Panics
///
/// Panics if the benchmark is unknown or the guest faults.
pub fn trace_benchmark(
    bench: &str,
    scale: Scale,
    cfg: VirtualArchConfig,
    capacity: usize,
) -> (RunReport, Tracer) {
    let w =
        vta_workloads::by_name(bench, scale).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let mut system = System::new(cfg, &w.image);
    system.enable_tracing(TraceConfig { capacity });
    let report = system
        .run(crate::RUN_BUDGET)
        .unwrap_or_else(|e| panic!("{bench}: {e}"));
    (report, system.take_tracer())
}

fn json_escape(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Renders the trace in Chrome trace-event JSON (array form).
///
/// Open the file at <https://ui.perfetto.dev> or `chrome://tracing`.
/// Cycles are mapped 1:1 onto the format's microsecond timestamps, so
/// Perfetto's time axis reads directly in simulated cycles. Each tracer
/// track becomes a named thread; network messages live on a synthetic
/// `network` thread with source/destination/hops/words as arguments.
///
/// An enabled `metrics` series is merged in as Perfetto **counter
/// tracks** (`"ph":"C"`): per-window guest-instruction throughput and
/// CPI, every registered gauge, and the series' point annotations as
/// instants on a synthetic `metrics` thread. A disabled one adds nothing.
pub fn chrome_trace_json(tracer: &Tracer, metrics: &Metrics) -> String {
    let mut out = String::from("[\n");
    let pid = 1u32;
    let mut first = true;
    let push = |out: &mut String, first: &mut bool, line: &str| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
        out.push_str(line);
    };

    // Thread-name metadata: one per track, plus the synthetic net track.
    let net_tid = tracer
        .tracks()
        .map(|(id, _)| id.0 as u32 + 1)
        .max()
        .unwrap_or(0)
        + 1;
    for (id, name) in tracer.tracks() {
        let mut line = format!(
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"args\":{{\"name\":\"",
            id.0 as u32 + 1
        );
        json_escape(&mut line, name);
        line.push_str("\"}}");
        push(&mut out, &mut first, &line);
    }
    push(
        &mut out,
        &mut first,
        &format!(
            "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{net_tid},\
             \"args\":{{\"name\":\"network\"}}}}"
        ),
    );

    for ev in tracer.events() {
        let line = match *ev {
            TraceEvent::Span {
                ts,
                dur,
                track,
                name,
            } => {
                let mut l = String::from("  {\"name\":\"");
                json_escape(&mut l, name);
                let _ = write!(
                    l,
                    "\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\"dur\":{dur}}}",
                    track.0 as u32 + 1
                );
                l
            }
            TraceEvent::Instant {
                ts,
                track,
                name,
                arg,
            } => {
                let mut l = String::from("  {\"name\":\"");
                json_escape(&mut l, name);
                let _ = write!(
                    l,
                    "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{},\"ts\":{ts},\
                     \"args\":{{\"value\":{arg}}}}}",
                    track.0 as u32 + 1
                );
                l
            }
            TraceEvent::Counter { ts, track, value } => {
                let name = tracer
                    .tracks()
                    .find(|(id, _)| *id == track)
                    .map(|(_, n)| n.to_string())
                    .unwrap_or_else(|| format!("counter{}", track.0));
                let mut l = String::from("  {\"name\":\"");
                json_escape(&mut l, &name);
                let _ = write!(
                    l,
                    "\",\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\
                     \"args\":{{\"value\":{value}}}}}"
                );
                l
            }
            TraceEvent::NetMsg {
                ts,
                dur,
                src,
                dst,
                words,
                hops,
            } => format!(
                "  {{\"name\":\"{src}->{dst}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{net_tid},\
                 \"ts\":{ts},\"dur\":{},\"args\":{{\"src\":\"{src}\",\"dst\":\"{dst}\",\
                 \"hops\":{hops},\"words\":{words}}}}}",
                dur.max(1)
            ),
        };
        push(&mut out, &mut first, &line);
    }

    // Windowed-metrics counter tracks: one "C" sample per window close.
    if metrics.is_enabled() {
        let met_tid = net_tid + 1;
        push(
            &mut out,
            &mut first,
            &format!(
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{met_tid},\
                 \"args\":{{\"name\":\"metrics\"}}}}"
            ),
        );
        let counter = |out: &mut String, first: &mut bool, name: &str, ts: u64, value: &str| {
            let mut l = String::from("  {\"name\":\"");
            json_escape(&mut l, name);
            let _ = write!(
                l,
                "\",\"ph\":\"C\",\"pid\":{pid},\"ts\":{ts},\"args\":{{\"value\":{value}}}}}"
            );
            push(out, first, &l);
        };
        for w in metrics.windows() {
            counter(
                &mut out,
                &mut first,
                "metric.guest_insns",
                w.end,
                &w.delta(Ctr::GuestInsns).to_string(),
            );
            if let Some(cpi) = w.cpi() {
                counter(
                    &mut out,
                    &mut first,
                    "metric.cpi",
                    w.end,
                    &format!("{cpi:.3}"),
                );
            }
            for (id, name) in metrics.gauges() {
                if let Some(v) = w.gauge(id) {
                    counter(
                        &mut out,
                        &mut first,
                        &format!("gauge.{name}"),
                        w.end,
                        &v.to_string(),
                    );
                }
            }
        }
        for e in metrics.events() {
            let mut l = String::from("  {\"name\":\"");
            json_escape(&mut l, e.name);
            let _ = write!(
                l,
                "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":{pid},\"tid\":{met_tid},\"ts\":{},\
                 \"args\":{{\"value\":{}}}}}",
                e.ts, e.value
            );
            push(&mut out, &mut first, &l);
        }
    }

    out.push_str("\n]\n");
    out
}

/// Renders a plain-text utilization summary of a traced run.
///
/// Shows each track's busy percentage of `total_cycles` (spans only —
/// service occupancy, not message transit), the top network links by
/// words moved, and percentiles for every counter track (e.g. the
/// speculation-queue depth).
pub fn utilization_report(tracer: &Tracer, total_cycles: u64) -> String {
    let mut out = String::new();
    let total = total_cycles.max(1);
    let _ = writeln!(out, "== Utilization over {total_cycles} cycles ==");

    let mut busy: Vec<(String, u64)> = tracer
        .tracks()
        .map(|(id, name)| (name.to_string(), tracer.busy_cycles(id)))
        .filter(|(_, b)| *b > 0)
        .collect();
    busy.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    for (name, cycles) in &busy {
        let _ = writeln!(
            out,
            "  {name:<18} busy {:>6.2}%  ({cycles} cycles)",
            *cycles as f64 * 100.0 / total as f64
        );
    }

    let mut links: Vec<_> = tracer.links().collect();
    links.sort_by(|a, b| {
        b.2.words
            .cmp(&a.2.words)
            .then_with(|| (a.0, a.1).cmp(&(b.0, b.1)))
    });
    if !links.is_empty() {
        let _ = writeln!(out, "-- top links by traffic --");
        for (src, dst, stats) in links.iter().take(10) {
            let _ = writeln!(
                out,
                "  {src}->{dst:<8} {:>10} words in {:>8} msgs",
                stats.words, stats.msgs
            );
        }
    }

    let mut counters: Vec<(String, &vta_sim::Histogram)> = tracer
        .tracks()
        .filter_map(|(id, name)| tracer.counter_histogram(id).map(|h| (name.to_string(), h)))
        .collect();
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    for (name, h) in counters {
        let _ = writeln!(
            out,
            "  {name:<18} p50 {} p90 {} p99 {} max {} ({} samples)",
            h.percentile(0.50),
            h.percentile(0.90),
            h.percentile(0.99),
            h.max(),
            h.count()
        );
    }

    if tracer.dropped() > 0 {
        let _ = writeln!(
            out,
            "  note: ring dropped {} oldest events (capacity {}); busy%/links/percentiles \
             are exact side-aggregates and unaffected",
            tracer.dropped(),
            tracer.capacity()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::Cycle;

    fn sample_tracer() -> Tracer {
        let mut tr = Tracer::new(TraceConfig { capacity: 64 });
        let a = tr.track("tile(0,0) exec");
        let q = tr.track("specq.depth");
        tr.span(Cycle(10), 5, a, "block");
        tr.instant(Cycle(12), a, "l1code.flush \"quoted\"", 7);
        tr.counter(Cycle(15), q, 3);
        tr.net_msg(
            Cycle(16),
            4,
            vta_sim::Coord { x: 0, y: 0 },
            vta_sim::Coord { x: 1, y: 0 },
            2,
            1,
        );
        tr
    }

    #[test]
    fn chrome_json_is_well_formed() {
        let s = chrome_trace_json(&sample_tracer(), &Metrics::disabled());
        crate::json_lint::check(&s).expect("valid JSON");
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"C\""));
        assert!(s.contains("thread_name"));
        assert!(s.contains("\\\"quoted\\\""));
        assert!(s.contains("(0,0)->(1,0)"));
    }

    #[test]
    fn disabled_tracer_exports_empty_but_valid() {
        let s = chrome_trace_json(&Tracer::disabled(), &Metrics::disabled());
        crate::json_lint::check(&s).expect("valid JSON");
        let r = utilization_report(&Tracer::disabled(), 100);
        assert!(r.contains("Utilization"));
    }

    #[test]
    fn metrics_merge_adds_counter_tracks() {
        use vta_sim::MetricsConfig;
        let mut m = Metrics::new(MetricsConfig {
            interval: 50,
            max_windows: 8,
        });
        m.gauge("specq.len");
        let mut snap = [0u64; Ctr::COUNT];
        snap[Ctr::Cycles as usize] = 50;
        snap[Ctr::GuestInsns as usize] = 25;
        m.sample(vta_sim::Cycle(50), &snap, &[3]);
        m.event(vta_sim::Cycle(60), "morph.to_translator", 40);
        m.finish(vta_sim::Cycle(70), &snap, &[1]);
        let s = chrome_trace_json(&Tracer::disabled(), &m);
        crate::json_lint::check(&s).expect("valid JSON");
        assert!(s.contains("\"name\":\"metric.cpi\""));
        assert!(s.contains("\"name\":\"gauge.specq.len\""));
        assert!(s.contains("\"name\":\"morph.to_translator\""));
        assert!(s.contains("\"args\":{\"name\":\"metrics\"}"));
        assert!(!chrome_trace_json(&Tracer::disabled(), &Metrics::disabled()).contains("metric"));
    }

    #[test]
    fn report_mentions_busy_tracks_and_links() {
        let r = utilization_report(&sample_tracer(), 100);
        assert!(r.contains("tile(0,0) exec"));
        assert!(r.contains("5.00%"), "5 busy cycles of 100: {r}");
        assert!(r.contains("top links"));
        assert!(r.contains("specq.depth"));
        assert!(r.contains("p50 3"));
    }
}
