//! # vta-bench — the experiment harness
//!
//! Regenerates every figure and table of the paper's evaluation (§4) from
//! the simulated system. Each figure is a function of the cells of its own
//! configurations, and returns a [`Table`] whose rows are the eleven
//! benchmarks and whose columns are the paper's machine configurations;
//! `vta figures` prints them. The `vta` binary (`src/bin/vta.rs`) is the
//! one CLI over everything in this crate.
//!
//! Runs are embarrassingly parallel (each `(benchmark, config)` pair is
//! an independent simulation), so a sweep fans out across host threads
//! with `std::thread::scope`. Figures and gate rows that compare the same
//! machine read one sweep ([`sweep_lists`]), which simulates each
//! distinct configuration once per benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod json_lint;
pub mod metrics;
pub mod perf;
pub mod profile;
pub mod table;
pub mod trace;

use std::sync::{Arc, Mutex};
use std::time::Instant;

use vta_dbt::{RunReport, SharedTranslations, StopCause, System, VirtualArchConfig};
use vta_pentium::PentiumModel;
use vta_workloads::{Scale, Workload};
use vta_x86::GuestImage;

use crate::perf::Reference;

pub use table::Table;

/// `print!` for the CLI: a reader that closes the pipe early
/// (`vta diag | head -1`) ends the process quietly with status 0, where
/// `print!` would panic on the `EPIPE`.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*)) };
}

/// `println!` counterpart of [`out!`].
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*))) };
}

/// Implementation of [`out!`] / [`outln!`].
///
/// # Panics
///
/// Panics on any stdout error other than a closed pipe, like `print!`.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// Instruction budget for experiment runs (workloads terminate long
/// before this; the cap only guards against regressions).
pub const RUN_BUDGET: u64 = 2_000_000_000;

/// One measured `(benchmark, configuration)` cell.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Benchmark name (`164.gzip`, ...).
    pub bench: String,
    /// Configuration label.
    pub config: String,
    /// The DBT run report.
    pub report: RunReport,
    /// Modelled Pentium III cycles for the same program.
    pub piii_cycles: u64,
    /// Host wall-clock seconds [`measure_cell`] spent building and running
    /// the system. Nothing in this workspace reads it: it is the number
    /// `benchmark/`, the one instrument that times the host, takes per
    /// sweep cell.
    pub wall_seconds: f64,
}

impl Measurement {
    /// The paper's slowdown metric.
    pub(crate) fn slowdown(&self) -> f64 {
        self.report.cycles as f64 / self.piii_cycles as f64
    }

    /// L2 code-cache accesses per cycle (Figure 6's y-axis).
    pub(crate) fn l2code_access_rate(&self) -> f64 {
        self.report.stats.get("l2code.access") as f64 / self.report.cycles as f64
    }

    /// L2 code-cache misses per access (Figure 7's y-axis).
    pub(crate) fn l2code_miss_rate(&self) -> f64 {
        let acc = self.report.stats.get("l2code.access");
        if acc == 0 {
            0.0
        } else {
            self.report.stats.get("l2code.miss") as f64 / acc as f64
        }
    }
}

/// Runs one benchmark image under `cfg` and, unless given its cycle
/// count, under the PIII model. A sweep supplies both cross-cell
/// accelerators: a [`SharedTranslations`] memo (cells of one benchmark
/// retranslate the same blocks) and the PIII cycles (identical for every
/// configuration of one benchmark). Neither changes any simulated number.
///
/// # Panics
///
/// Panics if either machine faults — the differential tests guarantee
/// they do not.
pub fn measure_cell(
    bench: &str,
    image: &GuestImage,
    config_label: &str,
    cfg: VirtualArchConfig,
    shared: Option<&Arc<SharedTranslations>>,
    piii_cycles: Option<u64>,
) -> Measurement {
    let (report, wall_seconds) = run_cell(bench, image, config_label, cfg, shared);
    let piii_cycles = piii_cycles.unwrap_or_else(|| piii_cycles_for(bench, image));
    Measurement {
        bench: bench.to_string(),
        config: config_label.to_string(),
        report,
        piii_cycles,
        wall_seconds,
    }
}

/// The simulated half of [`measure_cell`]: the run's report and the host
/// seconds spent building and running the system.
fn run_cell(
    bench: &str,
    image: &GuestImage,
    config_label: &str,
    cfg: VirtualArchConfig,
    shared: Option<&Arc<SharedTranslations>>,
) -> (RunReport, f64) {
    let started = Instant::now();
    let mut system = System::new(cfg, image);
    if let Some(sh) = shared {
        system.attach_shared(Arc::clone(sh));
    }
    let report = system
        .run(RUN_BUDGET)
        .unwrap_or_else(|e| panic!("{bench}/{config_label}: {e}"));
    let wall_seconds = started.elapsed().as_secs_f64();
    assert_eq!(
        report.stop,
        StopCause::Exit,
        "{bench}/{config_label} must run to completion"
    );
    (report, wall_seconds)
}

/// Models the PIII baseline once for `image`.
///
/// # Panics
///
/// Panics if the model faults (the differential tests guarantee it
/// does not).
pub fn piii_cycles_for(bench: &str, image: &GuestImage) -> u64 {
    PentiumModel::new()
        .run(image, RUN_BUDGET)
        .unwrap_or_else(|e| panic!("{bench}: pentium model: {e}"))
        .cycles
}

/// Runs `f` over `jobs` on at most `threads` scoped host threads,
/// returning the results in job order.
///
/// Each worker takes the next job from one shared queue (no
/// pre-partitioning, so slow jobs don't strand a thread's whole share)
/// and owns it: what a job holds is dropped by the worker that ran it,
/// as soon as `f` returns. Each result is tagged with its index, so the
/// output is deterministic — identical to a serial
/// `jobs.into_iter().map(f)` — for any thread count.
pub(crate) fn bounded_map<I, T, F>(threads: usize, jobs: I, f: F) -> Vec<T>
where
    I: IntoIterator,
    I::IntoIter: ExactSizeIterator + Send,
    T: Send,
    F: Fn(I::Item) -> T + Sync,
{
    let jobs = jobs.into_iter();
    let workers = threads.clamp(1, jobs.len().max(1));
    let queue = Mutex::new(jobs.enumerate());
    let parts: Vec<Vec<(usize, T)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let next = queue
                            .lock()
                            .expect("no worker panics holding the queue")
                            .next();
                        let Some((i, job)) = next else {
                            break;
                        };
                        out.push((i, f(job)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("bounded_map worker panicked"))
            .collect()
    });
    let mut all: Vec<(usize, T)> = parts.into_iter().flatten().collect();
    all.sort_by_key(|&(i, _)| i);
    all.into_iter().map(|(_, t)| t).collect()
}

/// A unit of [`sweep_threads`]' work: one guest's reference pass, or one
/// cell with its own handle on its guest's translation memo.
enum Job {
    Reference(usize),
    Cell {
        bench: usize,
        config: usize,
        memo: Arc<SharedTranslations>,
    },
}

/// What a [`Job`] leaves behind once its memo handle is gone.
enum Done {
    Reference(Reference),
    Cell {
        bench: usize,
        config: usize,
        report: Box<RunReport>,
        wall_seconds: f64,
    },
}

/// Runs every `(benchmark, config)` cell on at most `threads` host
/// threads and returns them benchmark-major, in `configs` order.
///
/// A configuration `==` to an earlier one in `configs` is not simulated
/// again: its cells are the earlier one's run under its own label,
/// `wall_seconds` included (the last label to read a run takes its
/// report, any other a copy).
///
/// The cells of one benchmark share a [`SharedTranslations`] memo per
/// opt level and superblock setting (a system refuses a memo whose region
/// limits differ from its own), and are queued setting by setting, the
/// setting with the fewest configurations first. Each cell owns a handle
/// on its memo and the sweep keeps none, so the worker that finishes a
/// setting's last cell frees its memo before the next setting's cells
/// start, and the small memos are gone before the largest grows. Jobs
/// are taken in benchmark order, so at most about `threads` benchmarks'
/// memos are alive at once.
///
/// One [`Reference`] pass per benchmark, a job in the same pool placed
/// before that benchmark's cells, gives the cells their PIII cycles;
/// once the pool drains, a cell that differs from it panics, naming the
/// cell under each of its labels.
///
/// The result vector is identical (order and content) for every
/// `threads` value: cells are placed by configuration index and each cell
/// is an independent deterministic simulation.
pub fn sweep_threads(
    scale: Scale,
    configs: &[(String, VirtualArchConfig)],
    threads: usize,
) -> Vec<Measurement> {
    let suite: Vec<Workload> = vta_workloads::all(scale);
    let same = |i: usize, j: usize| configs[i].1 == configs[j].1;
    let setting = |i: usize| (configs[i].1.opt, configs[i].1.superblock);
    let alike = |i: usize| (0..configs.len()).filter(move |&j| setting(j) == setting(i));
    // Only a configuration equal to none before it runs.
    let mut runs: Vec<_> = (0..configs.len())
        .filter(|&i| (0..i).all(|j| !same(i, j)))
        .collect();
    runs.sort_by_key(|&i| (alike(i).count(), alike(i).next()));

    let mut jobs = Vec::with_capacity(suite.len() * (runs.len() + 1));
    for bench in 0..suite.len() {
        jobs.push(Job::Reference(bench));
        for group in runs.chunk_by(|&a, &b| setting(a) == setting(b)) {
            let cfg = &configs[group[0]].1;
            let memo = SharedTranslations::with_limits(cfg.opt, cfg.region_limits());
            jobs.extend(group.iter().map(|&config| Job::Cell {
                bench,
                config,
                memo: Arc::clone(&memo),
            }));
        }
    }

    let done = bounded_map(threads, jobs, |job| match job {
        Job::Reference(bench) => Done::Reference(Reference::of(&suite[bench].image)),
        Job::Cell {
            bench,
            config,
            memo,
        } => {
            let w = &suite[bench];
            let (label, cfg) = &configs[config];
            let (report, wall_seconds) =
                run_cell(w.name, &w.image, label, cfg.clone(), Some(&memo));
            Done::Cell {
                bench,
                config,
                report: Box::new(report),
                wall_seconds,
            }
        }
    });

    let mut references = Vec::with_capacity(suite.len());
    let mut out = Vec::with_capacity(suite.len() * configs.len());
    for d in done {
        match d {
            Done::Reference(r) => references.push(r),
            // `done` is in job order: a benchmark's reference precedes its
            // cells. Every label of the configuration reads the one run.
            Done::Cell {
                bench,
                config,
                report,
                wall_seconds,
            } => {
                let (name, r) = (suite[bench].name, &references[bench]);
                let labels: Vec<usize> = (0..configs.len()).filter(|&i| same(i, config)).collect();
                let reports = std::iter::repeat_n(report, labels.len());
                for (&i, report) in labels.iter().zip(reports) {
                    let label = &configs[i].0;
                    r.require(&format!("{name}/{label}"), &report);
                    let m = Measurement {
                        bench: name.to_string(),
                        config: label.clone(),
                        report: *report,
                        piii_cycles: r.piii_cycles,
                        wall_seconds,
                    };
                    out.push((bench * configs.len() + i, m));
                }
            }
        }
    }
    out.sort_by_key(|&(at, _)| at);
    out.into_iter().map(|(_, m)| m).collect()
}

/// [`sweep_threads`] over the concatenation of `lists`, once, split back
/// into each list's cells: benchmark-major in that list's order, what a
/// sweep of the list alone returns. A configuration several lists name
/// is simulated once.
pub fn sweep_lists(
    scale: Scale,
    lists: &[Vec<(String, VirtualArchConfig)>],
    threads: usize,
) -> Vec<Vec<Measurement>> {
    let mut cells = sweep_threads(scale, &lists.concat(), threads).into_iter();
    let mut parts: Vec<Vec<Measurement>> = lists.iter().map(|_| Vec::new()).collect();
    while cells.len() > 0 {
        for (part, list) in parts.iter_mut().zip(lists) {
            part.extend(cells.by_ref().take(list.len()));
        }
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_sane_slowdown() {
        let w = vta_workloads::by_name("gzip", Scale::Test).unwrap();
        let cfg = VirtualArchConfig::paper_default();
        let m = measure_cell(w.name, &w.image, "default", cfg, None, None);
        assert!(m.slowdown() > 1.0, "the emulator cannot beat the PIII");
        assert!(m.slowdown() < 500.0, "slowdown out of plausible range");
    }

    #[test]
    fn sweep_lists_splits_one_sweep_into_each_lists_cells() {
        let cfg = VirtualArchConfig::paper_default();
        let named = |label: &str| (label.to_string(), cfg.clone());
        let lists = [vec![named("a")], vec![], vec![named("b"), named("c")]];
        let parts = sweep_lists(Scale::Test, &lists, 2);
        let labels: Vec<Vec<&str>> = parts
            .iter()
            .map(|p| p.iter().map(|m| m.config.as_str()).collect())
            .collect();
        assert_eq!(labels, [vec!["a"; 11], vec![], ["b", "c"].repeat(11)]);
        for (i, m) in parts[0].iter().enumerate() {
            assert_eq!(m.bench, parts[2][2 * i].bench, "benchmark-major");
            assert_eq!(m.report.cycles, parts[2][2 * i + 1].report.cycles);
        }
    }

    /// The result is the same at every width, and a configuration equal to
    /// an earlier one is the earlier one's run under its own label.
    #[test]
    fn bounded_sweep_is_thread_count_invariant() {
        let a = VirtualArchConfig::paper_default();
        let configs = vec![
            ("a".to_string(), a.clone()),
            (
                "b".to_string(),
                VirtualArchConfig::with_translators(2, true),
            ),
            ("a-again".to_string(), a),
        ];
        // The two sweeps are independent: run them side by side.
        let (serial, bounded) = std::thread::scope(|s| {
            let serial = s.spawn(|| sweep_threads(Scale::Test, &configs, 1));
            let bounded = sweep_threads(Scale::Test, &configs, 3);
            (serial.join().expect("the serial sweep completes"), bounded)
        });
        assert_eq!(serial.len(), 11 * 3);
        assert_eq!(serial.len(), bounded.len());
        for (s, b) in serial.iter().zip(&bounded) {
            assert_eq!(s.bench, b.bench, "canonical job order");
            assert_eq!(s.config, b.config, "canonical job order");
            assert_eq!(s.report.cycles, b.report.cycles, "{}", s.bench);
            assert_eq!(
                s.report.stats.first_difference(&b.report.stats),
                None,
                "{}",
                s.bench
            );
        }
        for ms in [&serial, &bounded] {
            for guest in ms.chunks(3) {
                let labels: Vec<&str> = guest.iter().map(|m| m.config.as_str()).collect();
                assert_eq!(labels, ["a", "b", "a-again"], "requested order");
                let (a, again) = (&guest[0], &guest[2]);
                assert_eq!(a.bench, again.bench);
                assert_eq!(a.report.cycles, again.report.cycles, "{}", a.bench);
                assert_eq!(a.report.stats, again.report.stats, "{}", a.bench);
                assert_eq!(a.piii_cycles, again.piii_cycles, "{}", a.bench);
                assert_eq!(
                    a.wall_seconds.to_bits(),
                    again.wall_seconds.to_bits(),
                    "{}: one run serves both labels",
                    a.bench
                );
            }
        }
    }

    #[test]
    fn bounded_map_matches_serial_for_any_width() {
        let serial: Vec<usize> = (0..97).map(|i| i * 3).collect();
        for threads in [1, 2, 5, 200] {
            assert_eq!(bounded_map(threads, 0..97, |i| i * 3), serial);
        }
        assert!(bounded_map(4, 0..0, |i| i).is_empty());
    }

    #[test]
    fn bounded_map_keeps_no_job_past_its_run() {
        let shared = Arc::new(());
        let jobs: Vec<Arc<()>> = (0..3).map(|_| Arc::clone(&shared)).collect();
        // Each run sees its own job, the jobs still queued and `shared`:
        // every job run before it is gone.
        let seen = bounded_map(1, jobs, |_job| Arc::strong_count(&shared));
        assert_eq!(seen, [4, 3, 2]);
        assert_eq!(Arc::strong_count(&shared), 1);
    }
}
