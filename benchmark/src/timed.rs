//! The measuring loops.
//!
//! A *rep* of a cell is one fresh `by_name` + `System::new` (timed as
//! set-up) followed by `System::run` (timed as wall). A *pass* visits
//! every cell once, in an order reshuffled from `--seed`; passes repeat
//! until the window's seconds have elapsed **and** its rep floor is met.
//! For `paper_sweep` the rep is one whole `sweep_threads` call. After
//! every pass the loop may sample the host's speed (see `calibrate`); each
//! end-to-end time is then the quiet quarter of its reps (see `estimate`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use vta_bench::figures::fig5_configs;
use vta_bench::{piii_cycles_for, sweep_threads, RUN_BUDGET};
use vta_dbt::{SharedTranslations, System};
use vta_ir::OptLevel;
use vta_sim::{ProfConfig, ProfileReport};
use vta_workloads::{by_name, Workload};

use crate::calibrate::Calibrator;
use crate::estimate::{GuestOrder, Samples};
use crate::oracle::Tally;
use crate::spans::{Recorder, SpanId};
use crate::workload::Plan;

/// How long a loop measures: at least `seconds`, and at least
/// `min_passes` reps of everything.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub seconds: f64,
    pub min_passes: usize,
}

/// What `System::take_profile()` attributed inside one traced run.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Exclusive nanoseconds per phase of the run-loop thread.
    pub phases: Vec<(&'static str, u64)>,
    /// Timeline events the profiler dropped (totals stay exact).
    pub dropped: u64,
}

impl Profile {
    fn from_report(report: &ProfileReport) -> Profile {
        let mut p = Profile::default();
        for t in &report.threads {
            p.dropped += t.dropped;
            // Worker threads run beside the run loop, not inside it; only
            // the coordinator's phases are children of the `run` span.
            if t.name == "run" {
                p.phases
                    .extend(t.phases.iter().map(|ph| (ph.phase, ph.nanos)));
            }
        }
        p
    }

    pub fn nanos(&self, phase: &str) -> u64 {
        self.phases
            .iter()
            .filter(|(n, _)| *n == phase)
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// Timings of the per-cell loop, indexed like [`Plan::guests`] and
/// [`Plan::cells`].
#[derive(Debug, Default)]
pub struct CellLoop {
    /// `vta_workloads::by_name`, per guest.
    pub build: Vec<Samples>,
    /// `System::new` (+ `attach_shared`), per cell.
    pub new: Vec<Samples>,
    /// `System::run`, per cell.
    pub wall: Vec<Samples>,
    /// Per cell, per rep, with the rep's `run` span; filled only by a
    /// profiled loop.
    pub profiles: Vec<Vec<(Profile, SpanId)>>,
    pub passes: usize,
}

impl CellLoop {
    /// Sum over cells (or guests) of each one's fastest rep.
    pub fn sum_fastest(samples: &[Samples]) -> f64 {
        samples.iter().map(Samples::fastest).sum()
    }

    pub fn sum_median(samples: &[Samples]) -> f64 {
        samples.iter().map(Samples::median).sum()
    }

    /// Sum over cells (or guests) of each one's quiet time.
    pub fn sum_quiet(samples: &[Samples]) -> f64 {
        samples.iter().map(Samples::quiet).sum()
    }

    /// Set-up a user pays before `run`: image builds plus constructions.
    pub fn setup_seconds(&self) -> f64 {
        Self::sum_quiet(&self.build) + Self::sum_quiet(&self.new)
    }

    /// Per cell, `System::new` + `System::run` of its fastest run — the
    /// interval `vta_bench::measure_cell` reports as `wall_seconds`.
    pub fn cell_seconds(&self) -> Vec<f64> {
        self.new
            .iter()
            .zip(&self.wall)
            .map(|(n, w)| n.fastest() + w.fastest())
            .collect()
    }
}

/// Runs passes over the plan's cells. With `profiled` (which needs the
/// recorder on), every run has `System::enable_profiling` on and its
/// phase totals become children of the run's span. With `cal`, the host's
/// speed is sampled after every pass.
pub fn cell_loop(
    plan: &mut Plan,
    order: &mut GuestOrder,
    window: Window,
    profiled: bool,
    mut cal: Option<&mut Calibrator>,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> CellLoop {
    let mut out = CellLoop {
        build: vec![Samples::default(); plan.guests.len()],
        new: vec![Samples::default(); plan.cells.len()],
        wall: vec![Samples::default(); plan.cells.len()],
        profiles: vec![Vec::new(); plan.cells.len()],
        passes: 0,
    };
    let started = Instant::now();
    while out.passes < window.min_passes || started.elapsed().as_secs_f64() < window.seconds {
        let rep = out.passes as u32;
        let pass_started = Instant::now();
        // A sweep shares translations between a guest's cells, so its
        // cells keep `sweep_threads`' order: which cell pays for a
        // translation must not change from pass to pass.
        let visit: Vec<usize> = if plan.spec.sweep {
            (0..plan.cells.len()).collect()
        } else {
            order.next_rep().to_vec()
        };
        let mut images: Vec<Option<Workload>> = plan.guests.iter().map(|_| None).collect();
        let mut memos: HashMap<(usize, OptLevel, bool), Arc<SharedTranslations>> = HashMap::new();
        for c in visit {
            let g = plan.cells[c].guest;
            let cfg = plan.cells[c].cfg.clone();
            let what = plan.cell_name(c);
            let scale = plan.spec.scale;
            let short = plan.guests[g].short;
            let memo = plan.spec.sweep.then(|| {
                Arc::clone(
                    memos
                        .entry((g, cfg.opt, cfg.superblock))
                        .or_insert_with(|| {
                            SharedTranslations::with_limits(cfg.opt, cfg.region_limits())
                        }),
                )
            });
            let (run, _, _) = rec.time(&format!("rep {what}"), rep, |rec| {
                if images[g].is_none() {
                    let (w, took, _) = rec.time("workloads.by_name", rep, |_| {
                        by_name(short, scale).expect("the plan built this guest before")
                    });
                    out.build[g].push(took.as_secs_f64());
                    images[g] = Some(w);
                }
                let image = &images[g].as_ref().expect("just built").image;
                let (mut system, took, _) = rec.time("dbt.System::new", rep, |_| {
                    let mut system = System::new(cfg, image);
                    if let Some(memo) = memo {
                        system.attach_shared(memo);
                    }
                    system
                });
                out.new[c].push(took.as_secs_f64());
                if profiled {
                    system.enable_profiling(ProfConfig::default());
                }
                let (run, took, span) =
                    rec.time("dbt.System::run", rep, |_| system.run(RUN_BUDGET));
                out.wall[c].push(took.as_secs_f64());
                if profiled {
                    let profile = Profile::from_report(&system.take_profile());
                    let span = span.expect("a profiled loop runs with the recorder on");
                    rec.add_phase_children(span, &profile.phases);
                    out.profiles[c].push((profile, span));
                }
                run
            });
            let Plan { guests, cells, .. } = plan;
            tally.check(&what, &guests[g].reference, &mut cells[c].pinned, &run);
            if cells[c].first.is_none() {
                cells[c].first = run.ok();
            }
        }
        if let Some(cal) = cal.as_deref_mut() {
            cal.sample_after(pass_started.elapsed());
        }
        out.passes += 1;
    }
    out
}

/// Timings of the `paper_sweep` loop.
#[derive(Debug, Default)]
pub struct SweepLoop {
    /// `vta_workloads::all` alone.
    pub image_build: Samples,
    /// `all` + `fig5_configs` + the PIII model over the suite: what a
    /// user of `sweep_threads` would otherwise pay before the sweep.
    pub setup: Samples,
    /// Whole `sweep_threads` calls, one entry per requested thread count.
    pub wall: Vec<(usize, Samples)>,
    /// `Measurement::wall_seconds` per cell, from one-thread passes only
    /// (two concurrent cells disturb each other's time).
    pub cell: Vec<Samples>,
    pub passes: usize,
}

impl SweepLoop {
    pub fn wall_at(&self, threads: usize) -> Option<&Samples> {
        self.wall
            .iter()
            .find(|(t, _)| *t == threads)
            .map(|(_, s)| s)
    }
}

/// Runs whole sweeps, cycling through `thread_counts`, until the window
/// is met for every count. `order`, when given, reshuffles the
/// configuration order handed to `sweep_threads` for every pass. With
/// `cal`, the host's speed is sampled after every pass.
pub fn sweep_loop(
    plan: &mut Plan,
    mut order: Option<&mut GuestOrder>,
    thread_counts: &[usize],
    window: Window,
    mut cal: Option<&mut Calibrator>,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> SweepLoop {
    let mut out = SweepLoop {
        wall: thread_counts
            .iter()
            .map(|&t| (t, Samples::default()))
            .collect(),
        cell: vec![Samples::default(); plan.cells.len()],
        ..SweepLoop::default()
    };
    let scale = plan.spec.scale;
    let started = Instant::now();
    while out.passes < window.min_passes * thread_counts.len()
        || started.elapsed().as_secs_f64() < window.seconds
    {
        let rep = out.passes as u32;
        let pass_started = Instant::now();
        let slot = out.passes % thread_counts.len();
        let threads = thread_counts[slot];

        let (mut configs, took, _) = rec.time("bench.sweep_setup", rep, |rec| {
            let (suite, took, _) = rec.time("workloads.all", rep, |_| vta_workloads::all(scale));
            out.image_build.push(took.as_secs_f64());
            let configs = fig5_configs();
            for w in &suite {
                std::hint::black_box(piii_cycles_for(w.name, &w.image));
            }
            configs
        });
        out.setup.push(took.as_secs_f64());
        if let Some(order) = order.as_deref_mut() {
            let shuffled: Vec<_> = order
                .next_rep()
                .iter()
                .map(|&i| configs[i].clone())
                .collect();
            configs = shuffled;
        }

        let (cells, took, _) = rec.time(&format!("bench.sweep_threads x{threads}"), rep, |_| {
            sweep_threads(scale, &configs, threads)
        });
        out.wall[slot].1.push(took.as_secs_f64());

        let mut seen = 0usize;
        for m in cells {
            let what = format!("{}/{}", m.bench, m.config);
            let Some(c) = plan.find_cell(&m.bench, &m.config) else {
                tally.record(&what, Err("a cell the plan does not have".to_string()));
                continue;
            };
            seen += 1;
            if threads == 1 {
                out.cell[c].push(m.wall_seconds);
            }
            let Plan { guests, cells, .. } = plan;
            let reference = &guests[cells[c].guest].reference;
            if m.piii_cycles != reference.piii_cycles {
                tally.record(
                    &what,
                    Err("PIII cycles differ from the oracle's".to_string()),
                );
                continue;
            }
            let run = Ok(m.report);
            tally.check(&what, reference, &mut cells[c].pinned, &run);
            if cells[c].first.is_none() {
                cells[c].first = run.ok();
            }
        }
        if seen != plan.cells.len() {
            tally.record(
                "sweep",
                Err(format!("{seen} of {} cells came back", plan.cells.len())),
            );
        }
        if let Some(cal) = cal.as_deref_mut() {
            cal.sample_after(pass_started.elapsed());
        }
        out.passes += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    const ONE_PASS: Window = Window {
        seconds: 0.0,
        min_passes: 1,
    };

    #[test]
    fn cell_loop_times_checks_and_pins_every_cell() {
        let mut plan = Plan::build(spec("cold_translate").unwrap(), &mut Recorder::off()).unwrap();
        let mut tally = Tally::default();
        let mut order = GuestOrder::new(1, plan.cells.len());
        let window = Window {
            seconds: 0.0,
            min_passes: 2,
        };
        let mut cal = Calibrator::new(1);
        let l = cell_loop(
            &mut plan,
            &mut order,
            window,
            false,
            Some(&mut cal),
            &mut Recorder::off(),
            &mut tally,
        );
        assert_eq!(l.passes, 2);
        assert!(cal.samples().len() >= 2, "calibrated after each pass");
        assert_eq!(
            (tally.attempted, tally.failed),
            (8, 0),
            "{:?}",
            tally.messages()
        );
        assert!(l.wall.iter().all(|s| s.len() == 2 && s.fastest() > 0.0));
        assert!(l.build.iter().chain(&l.new).all(|s| s.len() == 2));
        assert!(l.setup_seconds() > 0.0);
        assert!(plan
            .cells
            .iter()
            .all(|c| c.pinned.is_some() && c.first.is_some()));
        assert!(
            l.profiles.iter().all(Vec::is_empty),
            "no profile without profiling"
        );
    }

    #[test]
    fn a_profiled_loop_hangs_phase_totals_under_the_run_span() {
        let mut plan = Plan::build(spec("cold_translate").unwrap(), &mut Recorder::off()).unwrap();
        let mut tally = Tally::default();
        let mut order = GuestOrder::new(1, plan.cells.len());
        let mut rec = Recorder::on();
        let l = cell_loop(
            &mut plan, &mut order, ONE_PASS, true, None, &mut rec, &mut tally,
        );
        assert_eq!(tally.failed, 0, "{:?}", tally.messages());
        for (c, profiles) in l.profiles.iter().enumerate() {
            assert_eq!(profiles.len(), 1);
            let (p, span) = &profiles[0];
            assert_eq!(rec.spans()[*span].name, "dbt.System::run");
            assert!(
                p.nanos("run.translate") > 0,
                "cell {c} translated something"
            );
            let attributed: u64 = p.phases.iter().map(|(_, ns)| ns).sum();
            assert!(attributed as f64 <= l.wall[c].fastest() * 1e9 * 1.05);
        }
        let spans = rec.spans();
        let run = spans
            .iter()
            .position(|s| s.name == "dbt.System::run")
            .expect("a run span");
        assert!(spans[spans[run].parent.expect("inside a rep")]
            .name
            .starts_with("rep "));
        assert!(spans
            .iter()
            .any(|s| s.name == "run.translate" && s.parent == Some(run)));
    }

    #[test]
    fn sweep_loop_checks_all_66_cells_in_any_config_order() {
        let mut plan = Plan::build(spec("paper_sweep").unwrap(), &mut Recorder::off()).unwrap();
        assert_eq!(plan.cells.len(), 66);
        let mut tally = Tally::default();
        let mut order = GuestOrder::new(3, 6);
        let l = sweep_loop(
            &mut plan,
            Some(&mut order),
            &[2, 1],
            ONE_PASS,
            None,
            &mut Recorder::off(),
            &mut tally,
        );
        assert_eq!(l.passes, 2);
        assert_eq!(
            (tally.attempted, tally.failed),
            (132, 0),
            "{:?}",
            tally.messages()
        );
        assert_eq!(l.wall_at(2).map(Samples::len), Some(1));
        assert_eq!(l.wall_at(1).map(Samples::len), Some(1));
        assert!(
            l.cell.iter().all(|s| s.len() == 1),
            "cell times come from the 1-thread pass"
        );
        assert_eq!(l.setup.len(), 2);
        assert!(plan.cells.iter().all(|c| c.first.is_some()));
    }
}
