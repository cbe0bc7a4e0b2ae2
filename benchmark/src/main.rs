//! The repo benchmark: host speed of the simulator on four long
//! workloads by best-of-reps, the paper's simulated slowdown exactly, and
//! a per-layer ledger measured from outside the crates. See `README.md`
//! beside this package and `BENCHMARK.json` at the repo root.

#![forbid(unsafe_code)]

mod aa;
mod calibrate;
mod estimate;
mod json;
mod metrics;
mod oracle;
mod probes;
mod run;
mod spans;
mod timed;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use metrics::{print_table, result_line, END_TO_END, PER_LAYER};

/// `run_seconds` of `BENCHMARK.json`: the window `T` of every timed loop.
const DEFAULT_SECONDS: f64 = 30.0;
const DEFAULT_SEED: u64 = 1;
/// Runs per set of the A/A tool when `--aa` is given no number.
const DEFAULT_AA_RUNS: usize = 3;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    aa: Option<usize>,
    /// Internal: do the workload's job once and print this process's
    /// peak resident set (see `run::one_pass`).
    rss_probe: bool,
}

fn usage() -> String {
    format!(
        "usage: benchmark/run.sh [--workload W] [--seed S] [--seconds T] [--trace 0|1 | --traced] [--aa [N]]\n\
         workloads: {}\n\
         Without --workload every workload runs, each in its own process.\n\
         --traced (or --trace 1) does the traced run that yields the per-layer metrics.\n\
         --aa N runs two alternating sets of N runs of the whole suite and compares them.\n\
         (--workload W --rss-probe is what a run starts to measure peak_rss_mb: W's job once.)",
        workload::names().join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        aa: None,
        rss_probe: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?.clone()),
            "--seed" => {
                let v = value("a number")?;
                args.seed = v
                    .parse()
                    .map_err(|_| format!("--seed {v}: not a whole number"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                args.seconds = match v.parse::<f64>() {
                    Ok(s) if s.is_finite() && s >= 0.0 => s,
                    _ => return Err(format!("--seconds {v}: not a number of seconds")),
                };
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace {v}: expected 0 or 1")),
                };
            }
            "--traced" => args.traced = true,
            "--rss-probe" => args.rss_probe = true,
            "--aa" => {
                let runs = match it.peek().and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) => {
                        it.next();
                        n
                    }
                    None => DEFAULT_AA_RUNS,
                };
                if runs == 0 {
                    return Err("--aa 0: a set needs at least one run".to_string());
                }
                args.aa = Some(runs);
            }
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

/// Arguments to hand each per-workload child process.
fn passthrough(args: &Args) -> Vec<String> {
    vec![
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
        "--trace".to_string(),
        u8::from(args.traced).to_string(),
    ]
}

fn run_workload(name: &str, args: &Args) -> Result<i32, String> {
    let spec = workload::spec(name).ok_or_else(|| {
        format!(
            "unknown workload {name}; the workloads are: {}",
            workload::names().join(", ")
        )
    })?;
    if args.rss_probe {
        println!("{}", run::one_pass(spec)?);
        return Ok(0);
    }
    println!("isolates: {}", spec.isolates);
    let (decls, finished) = if args.traced {
        let path = PathBuf::from(format!("benchmark/out/trace_{name}.json"));
        (
            PER_LAYER,
            run::per_layer(spec, args.seed, args.seconds, &path)?,
        )
    } else {
        (END_TO_END, run::end_to_end(spec, args.seed, args.seconds)?)
    };
    println!("metrics of {name}:");
    print_table(decls, &finished.values);
    let outcome = finished.outcome();
    println!(
        "operations: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    for m in finished.tally.messages() {
        println!("  FAILED {m}");
    }
    println!("{}", result_line(decls, &finished.values, outcome)?);
    Ok(finished.tally.exit_code())
}

fn real_main() -> Result<i32, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let exe = || std::env::current_exe().map_err(|e| format!("finding this executable: {e}"));
    if let Some(runs) = args.aa {
        return Ok(aa::aa(&exe()?, runs, args.seed, args.seconds));
    }
    match &args.workload {
        Some(name) => run_workload(name, &args),
        None => Ok(aa::run_all(&exe()?, &passthrough(&args))),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(|w| w.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "exec_hot",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("exec_hot"));
        assert_eq!((a.seed, a.seconds, a.traced, a.aa), (7, 10.0, true, None));
        assert!(!parse(&["--trace", "0"]).unwrap().traced);
        assert!(parse(&["--traced"]).unwrap().traced);
    }

    #[test]
    fn defaults_match_benchmark_json() {
        let a = parse(&[]).unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.traced),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        let doc = json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(json::Value::as_f64),
            Some(DEFAULT_SECONDS)
        );
        let declared: Vec<&str> = doc
            .get("workloads")
            .and_then(json::Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(json::Value::as_str).unwrap())
            .collect();
        assert_eq!(declared, workload::names());
    }

    #[test]
    fn aa_takes_an_optional_count() {
        assert_eq!(parse(&["--aa"]).unwrap().aa, Some(DEFAULT_AA_RUNS));
        assert_eq!(parse(&["--aa", "5", "--seconds", "2"]).unwrap().aa, Some(5));
        assert_eq!(parse(&["--aa", "--seed", "3"]).unwrap().seed, 3);
        assert!(parse(&["--aa", "0"]).is_err());
    }

    #[test]
    fn bad_arguments_are_refused() {
        for bad in [
            &["--seed"][..],
            &["--seed", "x"],
            &["--seconds", "-1"],
            &["--seconds", "nan"],
            &["--trace", "2"],
            &["--frobnicate"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn an_unknown_workload_lists_the_four_names() {
        let args = parse(&["--workload", "nope"]).unwrap();
        let e = run_workload("nope", &args).unwrap_err();
        for name in workload::names() {
            assert!(e.contains(name), "{e}");
        }
    }
}
