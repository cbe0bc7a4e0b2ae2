//! Running the benchmark from the outside: one child process per
//! workload (so `peak_rss_mb` is per workload), and the A/A tool that
//! runs the same code as two alternating sets and checks that the sets
//! agree within the benchmark's own bounds.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::estimate::{quantile, spread};
use crate::json::{self, Value};
use crate::metrics::{Decl, END_TO_END, PER_LAYER};
use crate::workload;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Runs every workload in its own process, passing `args` through;
/// returns the exit code (non-zero if any workload failed).
pub fn run_all(exe: &Path, args: &[String]) -> i32 {
    let mut code = 0;
    for name in workload::names() {
        let status = Command::new(exe)
            .args(["--workload", name])
            .args(args)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {name} failed: {s}");
                code = 1;
            }
            Err(e) => {
                eprintln!("workload {name} did not start: {e}");
                code = 1;
            }
        }
        println!();
    }
    code
}

/// The result line of one child run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub correct: bool,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Parses the last line a run printed.
pub fn parse_result(stdout: &str) -> Result<ChildResult, String> {
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("the run printed nothing")?;
    let doc = json::parse(line).map_err(|e| format!("the last line is not a result: {e}"))?;
    let correct = doc
        .get("correct")
        .and_then(Value::as_bool)
        .ok_or("no `correct`")?;
    let failed = doc
        .get("failed")
        .and_then(Value::as_f64)
        .ok_or("no `failed`")? as u64;
    let mut metrics = BTreeMap::new();
    for (name, m) in doc
        .get("metrics")
        .and_then(Value::as_obj)
        .ok_or("no `metrics`")?
    {
        let v = m
            .get("value")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{name} has no value"))?;
        metrics.insert(name.clone(), v);
    }
    Ok(ChildResult {
        correct,
        failed,
        metrics,
    })
}

fn run_child(
    exe: &Path,
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Result<ChildResult, String> {
    let out = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{name} did not start: {e}"))?;
    let result = parse_result(&String::from_utf8_lossy(&out.stdout))?;
    if !out.status.success() || !result.correct {
        return Err(format!(
            "{name} (seed {seed}) failed {} operations: {}",
            result.failed, out.status
        ));
    }
    Ok(result)
}

/// The regression bound of every end-to-end metric, from `BENCHMARK.json`.
pub fn bounds() -> BTreeMap<String, f64> {
    let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses (a unit test checks it)");
    doc.get("end_to_end")
        .and_then(Value::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// One line of the A/A table.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub median_a: f64,
    pub median_b: f64,
    /// `|b - a| / a`.
    pub difference: f64,
    pub spread_a: Option<f64>,
    pub spread_b: Option<f64>,
    pub passes: bool,
}

/// Compares the two sets' values of one metric. A metric with a `bound`
/// passes when the set medians differ by no more than it; an `exact` one
/// only when every value of both sets is the same.
pub fn compare(decl: &Decl, bound: Option<f64>, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (quantile(a, 0.5), quantile(b, 0.5));
    let difference = if median_a == median_b {
        0.0
    } else {
        (median_b - median_a).abs() / median_a.abs()
    };
    let identical = a.iter().chain(b).all(|v| *v == a[0]);
    let passes = if decl.exact {
        identical
    } else {
        bound.is_none_or(|bound| difference <= bound)
    };
    Row {
        median_a,
        median_b,
        difference,
        spread_a: spread(a),
        spread_b: spread(b),
        passes,
    }
}

/// Two sets of `runs` runs each, alternating A B A B ..., same seeds in
/// both. Every run measures the end-to-end metrics of all four
/// workloads; the first run of each set also does the traced run, whose
/// exact (simulated-state) metrics must not differ at all.
pub fn aa(exe: &Path, runs: usize, seed: u64, seconds: f64) -> i32 {
    type Series = BTreeMap<(String, String), Vec<f64>>;
    let mut sets: [Series; 2] = [Series::new(), Series::new()];
    for run in 0..runs {
        for (s, set) in sets.iter_mut().enumerate() {
            for name in workload::names() {
                for trace in [false, true] {
                    if trace && run > 0 {
                        continue;
                    }
                    eprintln!(
                        "a/a: set {} run {}/{runs} {name}{}",
                        ["A", "B"][s],
                        run + 1,
                        if trace { " (traced)" } else { "" }
                    );
                    match run_child(exe, name, seed + run as u64, seconds, trace) {
                        Ok(r) => {
                            for (metric, v) in r.metrics {
                                set.entry((name.to_string(), metric)).or_default().push(v);
                            }
                        }
                        Err(e) => {
                            eprintln!("a/a: {e}");
                            return 1;
                        }
                    }
                }
            }
        }
    }

    let bounds = bounds();
    let mut failures = 0;
    println!(
        "| workload | metric | unit | set A median | set B median | difference | bound | spread A | spread B | verdict |"
    );
    println!("|---|---|---|---|---|---|---|---|---|---|");
    let pct = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{:.2}%", v * 100.0));
    for name in workload::names() {
        for d in END_TO_END.iter().chain(PER_LAYER) {
            let key = (name.to_string(), d.name.to_string());
            let (Some(a), Some(b)) = (sets[0].get(&key), sets[1].get(&key)) else {
                continue;
            };
            let bound = bounds.get(d.name).copied();
            let row = compare(d, bound, a, b);
            failures += usize::from(!row.passes);
            // The ledger has its own tables; here only what is gated.
            if bound.is_none() && row.passes {
                continue;
            }
            println!(
                "| {name} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
                d.name,
                d.unit,
                json::number(row.median_a),
                json::number(row.median_b),
                pct(Some(row.difference)),
                if d.exact {
                    "exact".to_string()
                } else {
                    pct(bound)
                },
                pct(row.spread_a),
                pct(row.spread_b),
                if row.passes { "ok" } else { "FAIL" }
            );
        }
    }
    let exact = PER_LAYER.iter().filter(|d| d.exact).count();
    println!();
    if failures == 0 {
        println!("a/a: the two sets agree; all {exact} exact per-layer metrics are identical on every workload");
        0
    } else {
        println!("a/a: {failures} metric(s) differ by more than their bound");
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{result_line, Outcome, Values};

    fn decl(name: &str) -> &'static Decl {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == name)
            .expect(name)
    }

    #[test]
    fn parses_the_line_the_benchmark_prints() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 2.25)).collect();
        let line = result_line(
            END_TO_END,
            &values,
            Outcome {
                attempted: 9,
                failed: 0,
            },
        )
        .unwrap();
        let r = parse_result(&format!("some table\n{line}\n\n")).expect("parses");
        assert!(r.correct);
        assert_eq!(r.failed, 0);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.metrics["wall_s"], 2.25);
        assert!(parse_result("").is_err());
        assert!(parse_result("not json").is_err());
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound() {
        let b = bounds();
        for d in END_TO_END {
            assert!(b.contains_key(d.name), "{}", d.name);
        }
        assert_eq!(b.len(), END_TO_END.len());
    }

    #[test]
    fn a_timed_metric_passes_within_its_bound_and_fails_beyond() {
        let wall = decl("wall_s");
        let near = compare(wall, Some(0.08), &[1.00, 1.02, 1.01], &[1.05, 1.04, 1.06]);
        assert!(near.passes);
        assert_eq!(near.median_a, 1.01);
        assert!((near.difference - 0.04 / 1.01).abs() < 1e-12);
        assert!(near.spread_a.is_some());
        let far = compare(wall, Some(0.08), &[1.00, 1.02, 1.01], &[1.15, 1.14, 1.16]);
        assert!(!far.passes);
        assert!(
            compare(decl("harness.reps"), None, &[40.0], &[55.0]).passes,
            "no bound, no gate"
        );
    }

    #[test]
    fn an_exact_metric_fails_on_any_difference_at_all() {
        let slow = decl("sim_slowdown");
        assert!(compare(slow, Some(0.001), &[7.5, 7.5], &[7.5, 7.5]).passes);
        let off = compare(slow, Some(0.001), &[7.5, 7.5], &[7.5, 7.500001]);
        assert!(!off.passes, "inside the bound but not identical");
        let count = decl("dbt.codecache.l1_miss");
        assert!(!compare(count, None, &[291_139.0], &[291_140.0]).passes);
    }
}
