//! Every metric the benchmark reports, declared once. `BENCHMARK.json`
//! lists the same names, units and directions; a unit test keeps the two
//! in step, and [`result_line`] refuses to print a set of values that
//! does not match its table exactly.

use std::collections::BTreeMap;

use crate::json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Decl {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Derived only from simulated state, so it must repeat bit for bit
    /// on the same code; the A/A tool fails on any difference at all.
    pub exact: bool,
}

const fn timed(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees, measured with every observer off.
pub const END_TO_END: &[Decl] = &[
    timed("setup_s", "s", Lower),
    timed("wall_s", "s", Lower),
    timed("guest_mips", "Minsn/s", Higher),
    exact("sim_slowdown", "ratio", Lower),
    timed("peak_rss_mb", "MiB", Lower),
];

/// One ledger line per layer (crate.module), from the traced run.
pub const PER_LAYER: &[Decl] = &[
    // harness
    timed("harness.reps", "count", Higher),
    timed("harness.noise_ratio", "ratio", Lower),
    timed("harness.host_speed", "ratio", Higher),
    timed("harness.trace_overhead_ratio", "ratio", Lower),
    // vta-workloads
    timed("workloads.image_build_us", "us", Lower),
    // vta-x86
    timed("x86.decode_ns_per_insn", "ns", Lower),
    timed("x86.ref_interp_mips", "Minsn/s", Higher),
    exact("x86.guest_insns", "count", Lower),
    // vta-pentium
    timed("pentium.model_mips", "Minsn/s", Higher),
    // vta-ir
    timed("ir.translate_ns_per_insn.none", "ns", Lower),
    timed("ir.translate_ns_per_insn.full", "ns", Lower),
    timed("ir.region_ns_per_insn", "ns", Lower),
    timed("ir.opt_share", "ratio", Lower),
    exact("ir.rinsn_per_guest_insn", "ratio", Lower),
    exact("ir.host_bytes_per_guest_insn", "B/insn", Lower),
    exact("ir.blocks_translated", "count", Lower),
    exact("ir.blocks_committed", "count", Lower),
    exact("ir.commit_ratio", "ratio", Higher),
    // vta-raw
    timed("raw.run_block_ns_per_rinsn", "ns", Lower),
    timed("raw.cache_access_ns.hit", "ns", Lower),
    timed("raw.cache_access_ns.miss", "ns", Lower),
    exact("raw.host_insns", "count", Lower),
    exact("raw.exec_blocks", "count", Lower),
    // vta-dbt system
    timed("dbt.system.new_us", "us", Lower),
    timed("dbt.system.dispatch_ns", "ns", Lower),
    timed("dbt.system.dispatch_ns_per_miss", "ns", Lower),
    timed("dbt.system.translate_ns", "ns", Lower),
    timed("dbt.system.translate_ns_per_block", "ns", Lower),
    timed("dbt.system.commit_ns", "ns", Lower),
    timed("dbt.system.morph_ns", "ns", Lower),
    timed("dbt.system.exec_residual_ns", "ns", Lower),
    timed("dbt.system.exec_residual_ns_per_rinsn", "ns", Lower),
    timed("dbt.system.span_coverage", "ratio", Higher),
    timed("dbt.system.prof_events_dropped", "count", Lower),
    exact("dbt.system.chain_taken", "count", Higher),
    exact("dbt.system.inline_hit", "count", Higher),
    exact("dbt.system.block_exits_per_kinsn", "1/kinsn", Lower),
    exact("dbt.system.superblock_entries", "count", Higher),
    exact("dbt.system.superblock_side_exit_ratio", "ratio", Lower),
    // vta-dbt codecache
    timed("dbt.codecache.l1_lookup_ns", "ns", Lower),
    timed("dbt.codecache.l15_get_ns", "ns", Lower),
    timed("dbt.codecache.l2_get_ns", "ns", Lower),
    timed("dbt.codecache.l1_insert_ns", "ns", Lower),
    timed("dbt.codecache.l15_insert_ns", "ns", Lower),
    timed("dbt.codecache.l2_commit_ns", "ns", Lower),
    timed("dbt.codecache.l1_invalidate_ns", "ns", Lower),
    exact("dbt.codecache.l1_miss", "count", Lower),
    exact("dbt.codecache.l15_hit_ratio", "ratio", Higher),
    exact("dbt.codecache.l2_access", "count", Lower),
    exact("dbt.codecache.l2_miss_ratio", "ratio", Lower),
    exact("dbt.codecache.l1_flushes", "count", Lower),
    // vta-dbt memsys
    timed("dbt.memsys.access_ns.hit", "ns", Lower),
    timed("dbt.memsys.access_ns.miss", "ns", Lower),
    exact("dbt.memsys.l1_hit", "count", Higher),
    exact("dbt.memsys.dram", "count", Lower),
    exact("dbt.memsys.exec_stall_cycles", "cycles", Lower),
    // vta-dbt manager and slaves (simulated cycles)
    exact("dbt.manager.busy_share", "ratio", Lower),
    exact("dbt.manager.service_cycles", "cycles", Lower),
    exact("dbt.manager.dram_wait_cycles", "cycles", Lower),
    exact("dbt.slave.busy_cycles", "cycles", Lower),
    exact("dbt.specq.pushes", "count", Lower),
    // vta-sim observers
    timed("sim.stats_bump_ns", "ns", Lower),
    timed("sim.stats_fingerprint_us", "us", Lower),
    timed("sim.trace_on_ratio", "ratio", Lower),
    timed("sim.metrics_on_ratio", "ratio", Lower),
    timed("sim.prof_on_ratio", "ratio", Lower),
    // vta-bench
    exact("bench.sweep_cells", "count", Lower),
    timed("bench.sweep_cell_ms", "ms", Lower),
    timed("bench.sweep_thread_speedup", "ratio", Higher),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Operations attempted and failed, as the result line reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
}

/// The machine-readable last line of a run: exactly the metrics of
/// `decls`, each with its unit.
pub fn result_line(decls: &[Decl], values: &Values, outcome: Outcome) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !decls.iter().any(|d| d.name == **k)) {
        return Err(format!("metric {extra} is measured but not declared"));
    }
    let mut fields = Vec::with_capacity(decls.len());
    for d in decls {
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} is declared but not measured", d.name))?;
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json::quote(d.name),
            json::number(*v),
            json::quote(d.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    ))
}

/// The same values for people: one `name value unit` line each.
pub fn print_table(decls: &[Decl], values: &Values) {
    for d in decls {
        if let Some(v) = values.get(d.name) {
            println!(
                "  {:<44} {:>16} {:<8} ({} is better)",
                d.name,
                format_value(*v),
                d.unit,
                d.better.as_str()
            );
        }
    }
}

fn format_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.5}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        doc.get(section)
            .and_then(Value::as_arr)
            .expect("section is an array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(decls: &[Decl]) -> Vec<(String, String, String)> {
        decls
            .iter()
            .map(|d| {
                (
                    d.name.to_string(),
                    d.unit.to_string(),
                    d.better.as_str().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn tables_and_benchmark_json_declare_the_same_metrics() {
        assert_eq!(table(END_TO_END), declared("end_to_end"));
        assert_eq!(table(PER_LAYER), declared("per_layer"));
    }

    #[test]
    fn names_and_units_stay_inside_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} is declared twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(PER_LAYER.len() <= 128);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    #[test]
    fn bounds_in_benchmark_json_give_setup_the_largest() {
        let doc = json::parse(BENCHMARK_JSON).expect("parses");
        let bounds: Vec<(String, f64)> = doc
            .get("end_to_end")
            .and_then(Value::as_arr)
            .expect("array")
            .iter()
            .map(|m| {
                (
                    m.get("name")
                        .and_then(Value::as_str)
                        .expect("name")
                        .to_string(),
                    m.get("bound").and_then(Value::as_f64).expect("bound"),
                )
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s")
            .1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.25, "{name}");
            assert!(*b <= setup, "{name} has a larger bound than setup_s");
        }
    }

    #[test]
    fn result_line_parses_and_carries_exactly_the_declared_metrics() {
        let values: Values = END_TO_END
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name, 1.5 + i as f64))
            .collect();
        let line = result_line(
            END_TO_END,
            &values,
            Outcome {
                attempted: 10,
                failed: 0,
            },
        )
        .expect("complete");
        assert!(!line.contains('\n'));
        let doc = json::parse(&line).expect("result line is JSON");
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(Value::as_f64), Some(10.0));
        let metrics = doc.get("metrics").and_then(Value::as_obj).expect("object");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>());
        assert_eq!(
            metrics[1].1.get("unit").and_then(Value::as_str),
            Some("s"),
            "wall_s carries its unit"
        );
        assert_eq!(metrics[1].1.get("value").and_then(Value::as_f64), Some(2.5));
    }

    #[test]
    fn result_line_refuses_missing_and_undeclared_metrics() {
        let mut values: Values = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        let ok = Outcome {
            attempted: 1,
            failed: 0,
        };
        values.remove("wall_s");
        assert!(result_line(END_TO_END, &values, ok)
            .unwrap_err()
            .contains("wall_s"));
        values.insert("wall_s", 1.0);
        values.insert("made_up", 1.0);
        assert!(result_line(END_TO_END, &values, ok)
            .unwrap_err()
            .contains("made_up"));
    }

    #[test]
    fn a_failure_makes_the_line_incorrect() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 1.0)).collect();
        let line = result_line(
            END_TO_END,
            &values,
            Outcome {
                attempted: 5,
                failed: 1,
            },
        )
        .unwrap();
        let doc = json::parse(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(Value::as_bool), Some(false));
        assert_eq!(doc.get("failed").and_then(Value::as_f64), Some(1.0));
    }
}
