//! Regenerates the paper's figures/tables from the simulated system.
//!
//! ```text
//! figures [--fig 4|5|6|7|8|9|10|11|cpi|headline|all] [--scale test|small|large] [--csv]
//! figures --trace out.json [--bench vpr] [--scale test|small|large]
//! ```
//!
//! `--trace` runs one benchmark under `paper_default` with cycle-accurate
//! tracing, writes a Chrome-trace-event JSON file (open it at
//! <https://ui.perfetto.dev>), and prints a utilization report.

use vta_bench::figures as f;
use vta_bench::{out, outln};
use vta_workloads::Scale;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut fig = "all".to_string();
    let mut scale = Scale::Small;
    let mut csv = false;
    let mut trace_out: Option<String> = None;
    let mut bench = "vpr".to_string();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                i += 1;
                fig = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--trace" => {
                i += 1;
                trace_out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--bench" => {
                i += 1;
                bench = args.get(i).cloned().unwrap_or_else(|| usage());
            }
            "--scale" => {
                i += 1;
                scale = match args.get(i).map(String::as_str) {
                    Some("test") => Scale::Test,
                    Some("small") => Scale::Small,
                    Some("large") => Scale::Large,
                    _ => usage(),
                };
            }
            "--csv" => csv = true,
            _ => {
                usage();
            }
        }
        i += 1;
    }

    if let Some(path) = trace_out {
        run_trace(&bench, scale, &path);
        return;
    }

    let print = |t: &vta_bench::Table| {
        if csv {
            outln!("{}", t.to_csv());
        } else {
            outln!("{}", t.render());
        }
    };

    match fig.as_str() {
        "4" => print(&f::fig4(scale)),
        "5" | "6" | "7" => {
            let ms = f::fig5_measurements(scale);
            match fig.as_str() {
                "5" => print(&f::fig5(&ms)),
                "6" => print(&f::fig6(&ms)),
                _ => print(&f::fig7(&ms)),
            }
        }
        "8" => print(&f::fig8(scale)),
        "9" | "10" => {
            let ms = f::fig9_measurements(scale);
            if fig == "9" {
                print(&f::fig9(&ms));
            } else {
                print(&f::fig10(&ms));
            }
        }
        "11" => outln!("{}", f::fig11()),
        "cpi" => outln!("{}", f::cpi_analysis()),
        "headline" => print(&f::headline(scale)),
        "all" => {
            print(&f::headline(scale));
            print(&f::fig4(scale));
            let ms = f::fig5_measurements(scale);
            print(&f::fig5(&ms));
            print(&f::fig6(&ms));
            print(&f::fig7(&ms));
            print(&f::fig8(scale));
            let ms = f::fig9_measurements(scale);
            print(&f::fig9(&ms));
            print(&f::fig10(&ms));
            outln!("{}", f::fig11());
            outln!("{}", f::cpi_analysis());
        }
        _ => usage(),
    }
}

fn run_trace(bench: &str, scale: Scale, path: &str) {
    use vta_bench::trace::{chrome_trace_json, trace_benchmark, utilization_report};
    use vta_dbt::VirtualArchConfig;

    let (report, tracer) =
        trace_benchmark(bench, scale, VirtualArchConfig::paper_default(), 1 << 18);
    let json = chrome_trace_json(&tracer);
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    outln!(
        "{bench}: {} cycles, {} trace events ({} dropped) -> {path}",
        report.cycles,
        tracer.len(),
        tracer.dropped()
    );
    outln!("open the file at https://ui.perfetto.dev\n");
    out!("{}", utilization_report(&tracer, report.cycles));
}

fn usage() -> ! {
    eprintln!(
        "usage: figures [--fig 4|5|6|7|8|9|10|11|cpi|headline|all] \
         [--scale test|small|large] [--csv]\n       \
         figures --trace out.json [--bench vpr] [--scale test|small|large]"
    );
    std::process::exit(2);
}
