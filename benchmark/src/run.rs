//! One workload, start to finish: the untraced run that yields the
//! end-to-end metrics, and the traced run that yields the per-layer
//! ledger. No end-to-end number ever comes from a traced or profiled rep.

use std::fmt::Write as _;
use std::process::{Command, Stdio};

use vta_bench::figures::fig5_configs;
use vta_bench::profile::ManagerActivity;
use vta_bench::{sweep_threads, RUN_BUDGET};
use vta_dbt::{StopCause, System, VirtualArchConfig};
use vta_workloads::by_name;

use crate::calibrate::Calibrator;
use crate::estimate::{geometric_mean, GuestOrder, Samples};
use crate::json;
use crate::metrics::{Outcome, Values, PER_LAYER};
use crate::oracle::Tally;
use crate::probes;
use crate::spans::Recorder;
use crate::timed::{cell_loop, sweep_loop, CellLoop, Window};
use crate::workload::{Plan, Spec};

/// Every guest gets at least this many timed reps, however slow the host.
pub const REP_FLOOR: usize = 12;

/// Floors of the traced run, whose window is split four ways.
const TRACED_FLOOR: usize = 5;
const OBSERVER_ROUNDS: usize = 2;

/// How a traced run divides `--seconds`: an untraced loop (the base of
/// `harness.trace_overhead_ratio`), the profiled loop, the observer
/// probe, and the direct probes (twenty of them share the last part).
const SHARE_UNTRACED: f64 = 0.22;
const SHARE_PROFILED: f64 = 0.22;
const SHARE_OBSERVERS: f64 = 0.28;
const SHARE_PROBES: f64 = 0.20;
const TIMED_PROBES: f64 = 20.0;

const ONE_PASS: Window = Window {
    seconds: 0.0,
    min_passes: 1,
};

/// What a run hands back to `main`.
pub struct Finished {
    pub values: Values,
    pub tally: Tally,
}

impl Finished {
    pub fn outcome(&self) -> Outcome {
        Outcome {
            attempted: self.tally.attempted,
            failed: self.tally.failed,
        }
    }
}

fn print_row(name: &str, s: &Samples) {
    println!(
        "  {name:<28} reps {:>4}  fastest {:>10.6} s  quiet {:>10.6} s  median {:>10.6} s  p90 {:>10.6} s",
        s.len(),
        s.fastest(),
        s.quiet(),
        s.median(),
        s.p90()
    );
}

fn print_cell_rows(plan: &Plan, l: &CellLoop) {
    if plan.spec.sweep {
        println!(
            "  {} cells, {} passes: sum of fastest {:.6} s, sum of medians {:.6} s",
            l.wall.len(),
            l.passes,
            CellLoop::sum_fastest(&l.wall),
            CellLoop::sum_median(&l.wall)
        );
        return;
    }
    for (c, s) in l.wall.iter().enumerate() {
        print_row(&plan.cell_name(c), s);
    }
}

/// Sum over the plan's cells of one `Stats` counter of the first run.
fn count(plan: &Plan, name: &str) -> u64 {
    plan.cells
        .iter()
        .map(|c| c.first.as_ref().map_or(0, |r| r.stats.get(name)))
        .sum()
}

fn guest_insns(plan: &Plan) -> u64 {
    plan.cells
        .iter()
        .map(|c| c.first.as_ref().map_or(0, |r| r.guest_insns))
        .sum()
}

/// The paper's Figure 5 y-axis, averaged the way ratios are: geometric
/// mean over the cells of simulated cycles over modelled PIII cycles.
pub fn sim_slowdown(plan: &Plan) -> Result<f64, String> {
    let mut ratios = Vec::with_capacity(plan.cells.len());
    for (c, cell) in plan.cells.iter().enumerate() {
        let first = cell
            .first
            .as_ref()
            .ok_or_else(|| format!("{} never ran to completion", plan.cell_name(c)))?;
        let piii = plan.guests[cell.guest].reference.piii_cycles;
        ratios.push(first.cycles as f64 / piii as f64);
    }
    Ok(geometric_mean(&ratios))
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The job a user of the workload runs, once, and nothing else: build
/// each image and run it under `paper_default`, or make one sweep.
/// Returns this process's peak resident set in MiB. `--rss-probe` runs it
/// in a process of its own, because the peak of the measuring process
/// also holds the oracle and the harness, and creeps up with the number
/// of passes (two threads: 104-130 MiB for one seed), whereas one job in
/// a fresh process repeats to 0.5%.
pub fn one_pass(spec: &Spec) -> Result<f64, String> {
    let exited = |what: &str, stop: StopCause| match stop {
        StopCause::Exit => Ok(()),
        other => Err(format!("{what} stopped with {other:?}, not Exit")),
    };
    if spec.sweep {
        for m in sweep_threads(spec.scale, &fig5_configs(), spec.threads()) {
            exited(&format!("{}/{}", m.bench, m.config), m.report.stop)?;
        }
    } else {
        for short in spec.guests {
            let w = by_name(short, spec.scale).ok_or_else(|| format!("no guest named {short}"))?;
            let report = System::new(VirtualArchConfig::paper_default(), &w.image)
                .run(RUN_BUDGET)
                .map_err(|e| format!("{short}: {e}"))?;
            exited(short, report.stop)?;
        }
    }
    peak_rss_mib()
}

/// Runs [`one_pass`] in a fresh process of this executable and reads the
/// number it prints.
fn one_pass_rss(spec: &Spec) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("finding this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", spec.name, "--rss-probe"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("the one-pass process did not start: {e}"))?;
    if !out.status.success() {
        return Err(format!("the one-pass process failed: {}", out.status));
    }
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .map_err(|_| "the one-pass process printed no number".to_string())
}

/// The untraced run: every observer off, nothing recorded.
pub fn end_to_end(spec: &'static Spec, seed: u64, seconds: f64) -> Result<Finished, String> {
    let mut rec = Recorder::off();
    let mut tally = Tally::default();
    let mut plan = Plan::build(spec, &mut rec)?;
    let window = Window {
        seconds,
        min_passes: REP_FLOOR,
    };
    let threads = spec.threads();
    let rss = one_pass_rss(spec);
    tally.record("one-pass process", rss.clone().map(drop));
    println!(
        "workload {}: {} guests at {:?}, {} cells, {} host thread(s), seed {seed}, \
         window {seconds} s and at least {REP_FLOOR} reps",
        spec.name,
        plan.guests.len(),
        spec.scale,
        plan.cells.len(),
        threads
    );

    // Raw seconds of this host; the calibrator turns them into seconds
    // of the reference host.
    let mut cal = Calibrator::new(threads);
    let (setup_raw, wall_raw, reps, noise);
    if spec.sweep {
        let mut order = GuestOrder::new(seed, 6);
        sweep_loop(
            &mut plan,
            None,
            &[threads],
            ONE_PASS,
            None,
            &mut rec,
            &mut tally,
        );
        let l = sweep_loop(
            &mut plan,
            Some(&mut order),
            &[threads],
            window,
            Some(&mut cal),
            &mut rec,
            &mut tally,
        );
        let wall = l.wall_at(threads).expect("the loop ran this thread count");
        print_row("sweep_threads", wall);
        print_row("sweep set-up", &l.setup);
        (setup_raw, wall_raw) = (l.setup.quiet(), wall.quiet());
        (reps, noise) = (l.passes, wall.median() / wall.quiet());
    } else {
        let mut order = GuestOrder::new(seed, plan.cells.len());
        cell_loop(
            &mut plan, &mut order, ONE_PASS, false, None, &mut rec, &mut tally,
        );
        let l = cell_loop(
            &mut plan,
            &mut order,
            window,
            false,
            Some(&mut cal),
            &mut rec,
            &mut tally,
        );
        print_cell_rows(&plan, &l);
        (setup_raw, wall_raw) = (l.setup_seconds(), CellLoop::sum_quiet(&l.wall));
        (reps, noise) = (l.passes, CellLoop::sum_median(&l.wall) / wall_raw);
    }
    print_row("calibration kernel", cal.samples());
    let speed = cal.host_speed();
    println!(
        "  harness: {reps} timed reps per guest, noise ratio (median / quiet) {noise:.3}, \
         host speed {speed:.4} of the reference host"
    );
    println!(
        "  raw seconds of this host: set-up {setup_raw:.6}, wall {wall_raw:.6}; \
         the metrics below are in reference-host seconds (raw x host speed)"
    );
    let (setup_s, wall_s) = (setup_raw * speed, wall_raw * speed);

    let mut values = Values::new();
    values.insert("setup_s", setup_s);
    values.insert("wall_s", wall_s);
    values.insert("guest_mips", guest_insns(&plan) as f64 / wall_s / 1e6);
    values.insert("sim_slowdown", sim_slowdown(&plan)?);
    values.insert("peak_rss_mb", rss?);
    Ok(Finished { values, tally })
}

/// `a / b`, or zero when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The traced run: a short untraced loop, the profiled loop with the span
/// recorder on, the observer probe and the direct probes. Writes spans
/// and counts to `trace_path` before returning.
pub fn per_layer(
    spec: &'static Spec,
    seed: u64,
    seconds: f64,
    trace_path: &std::path::Path,
) -> Result<Finished, String> {
    let mut rec = Recorder::on();
    let mut tally = Tally::default();
    let mut plan = Plan::build(spec, &mut rec)?;
    let mut order = GuestOrder::new(seed, plan.cells.len());
    let mut v = Values::new();
    println!(
        "workload {} (traced): {} guests at {:?}, {} cells, seed {seed}, window {seconds} s",
        spec.name,
        plan.guests.len(),
        spec.scale,
        plan.cells.len()
    );

    // Untraced base. The recorder is off here: these reps must cost what
    // the end-to-end reps cost.
    let untraced = Window {
        seconds: seconds * SHARE_UNTRACED,
        min_passes: TRACED_FLOOR,
    };
    let mut off = Recorder::off();
    let mut cal = Calibrator::new(spec.threads());
    let (base_cells, image_build, reps, noise): (Vec<f64>, f64, usize, f64);
    if spec.sweep {
        let threads = spec.threads();
        let l = sweep_loop(
            &mut plan,
            None,
            &[threads, 1],
            untraced,
            Some(&mut cal),
            &mut off,
            &mut tally,
        );
        let (many, one) = (
            l.wall_at(threads).expect("ran").clone(),
            l.wall_at(1).expect("ran").clone(),
        );
        print_row(&format!("sweep_threads x{threads}"), &many);
        print_row("sweep_threads x1", &one);
        base_cells = l.cell.iter().map(Samples::fastest).collect();
        image_build = l.image_build.fastest();
        (reps, noise) = (l.passes, many.median() / many.quiet());
        v.insert("bench.sweep_cells", plan.cells.len() as f64);
        v.insert(
            "bench.sweep_cell_ms",
            base_cells.iter().sum::<f64>() * 1e3 / base_cells.len() as f64,
        );
        v.insert("bench.sweep_thread_speedup", one.fastest() / many.fastest());
    } else {
        cell_loop(
            &mut plan, &mut order, ONE_PASS, false, None, &mut off, &mut tally,
        );
        let l = cell_loop(
            &mut plan,
            &mut order,
            untraced,
            false,
            Some(&mut cal),
            &mut off,
            &mut tally,
        );
        print_cell_rows(&plan, &l);
        base_cells = l.cell_seconds();
        image_build = CellLoop::sum_fastest(&l.build);
        (reps, noise) = (
            l.passes,
            CellLoop::sum_median(&l.wall) / CellLoop::sum_quiet(&l.wall),
        );
        // This workload makes no sweep call: there is nothing to report.
        v.insert("bench.sweep_cells", 0.0);
        v.insert("bench.sweep_cell_ms", 0.0);
        v.insert("bench.sweep_thread_speedup", 0.0);
    }
    v.insert("harness.reps", reps as f64);
    v.insert("harness.noise_ratio", noise);
    v.insert("harness.host_speed", cal.host_speed());

    // The profiled loop, spans on.
    let profiled = Window {
        seconds: seconds * SHARE_PROFILED,
        min_passes: TRACED_FLOOR,
    };
    let traced = cell_loop(
        &mut plan, &mut order, profiled, true, None, &mut rec, &mut tally,
    );
    println!("  profiled reps:");
    print_cell_rows(&plan, &traced);
    v.insert(
        "harness.trace_overhead_ratio",
        traced.cell_seconds().iter().sum::<f64>() / base_cells.iter().sum::<f64>(),
    );
    v.insert(
        "workloads.image_build_us",
        image_build.min(CellLoop::sum_fastest(&traced.build)) * 1e6,
    );
    v.insert(
        "dbt.system.new_us",
        CellLoop::sum_fastest(&traced.new) * 1e6,
    );

    // Phase totals of each cell's fastest profiled rep; the run span's
    // self time is what the phases leave unexplained.
    let selfs = rec.self_times_ns();
    let (mut wall_ns, mut residual_ns, mut dropped) = (0.0, 0.0, 0u64);
    let mut phase_ns = [0u64; 4];
    const PHASES: [&str; 4] = ["run.dispatch", "run.translate", "run.commit", "run.morph"];
    for (c, profiles) in traced.profiles.iter().enumerate() {
        let fastest = traced.wall[c]
            .fastest_index()
            .expect("the floor is above zero");
        let (profile, span) = &profiles[fastest];
        wall_ns += traced.wall[c].fastest() * 1e9;
        residual_ns += selfs[*span] as f64;
        dropped += profile.dropped;
        for (total, phase) in phase_ns.iter_mut().zip(PHASES) {
            *total += profile.nanos(phase);
        }
    }
    let [dispatch, translate, commit, morph] = phase_ns.map(|ns| ns as f64);
    let host_insns = count(&plan, "host_insns") as f64;
    let l1_miss = count(&plan, "l1code.miss") as f64;
    let translated = count(&plan, "translate.blocks") as f64;
    v.insert("dbt.system.dispatch_ns", dispatch);
    v.insert("dbt.system.dispatch_ns_per_miss", ratio(dispatch, l1_miss));
    v.insert("dbt.system.translate_ns", translate);
    v.insert(
        "dbt.system.translate_ns_per_block",
        ratio(translate, translated),
    );
    v.insert("dbt.system.commit_ns", commit);
    v.insert("dbt.system.morph_ns", morph);
    v.insert("dbt.system.exec_residual_ns", residual_ns);
    v.insert(
        "dbt.system.exec_residual_ns_per_rinsn",
        ratio(residual_ns, host_insns),
    );
    v.insert(
        "dbt.system.span_coverage",
        ratio(wall_ns - residual_ns, wall_ns),
    );
    v.insert("dbt.system.prof_events_dropped", dropped as f64);
    println!(
        "  host time of the fastest profiled reps: dispatch {:.1}%  translate {:.1}%  \
         commit {:.1}%  morph {:.1}%  unattributed (block execution) {:.1}%",
        100.0 * ratio(dispatch, wall_ns),
        100.0 * ratio(translate, wall_ns),
        100.0 * ratio(commit, wall_ns),
        100.0 * ratio(morph, wall_ns),
        100.0 * ratio(residual_ns, wall_ns)
    );

    // Counts: simulated state of each cell's first run; they repeat exactly.
    let insns = guest_insns(&plan) as f64;
    let committed = count(&plan, "translate.committed") as f64;
    let sb_entries = count(&plan, "superblock.entries") as f64;
    let l2_access = count(&plan, "l2code.access") as f64;
    let exits = count(&plan, "chain.taken")
        + count(&plan, "dispatch.direct_miss")
        + count(&plan, "dispatch.indirect");
    v.insert("x86.guest_insns", insns);
    v.insert("ir.blocks_translated", translated);
    v.insert("ir.blocks_committed", committed);
    v.insert("ir.commit_ratio", ratio(committed, translated));
    v.insert("raw.host_insns", host_insns);
    v.insert("raw.exec_blocks", count(&plan, "exec.blocks") as f64);
    v.insert("dbt.system.chain_taken", count(&plan, "chain.taken") as f64);
    v.insert(
        "dbt.system.inline_hit",
        count(&plan, "dispatch.inline_hit") as f64,
    );
    v.insert(
        "dbt.system.block_exits_per_kinsn",
        ratio(exits as f64 * 1000.0, insns),
    );
    v.insert("dbt.system.superblock_entries", sb_entries);
    v.insert(
        "dbt.system.superblock_side_exit_ratio",
        ratio(count(&plan, "superblock.side_exits") as f64, sb_entries),
    );
    v.insert("dbt.codecache.l1_miss", l1_miss);
    v.insert(
        "dbt.codecache.l15_hit_ratio",
        ratio(count(&plan, "l15.hit") as f64, l1_miss),
    );
    v.insert("dbt.codecache.l2_access", l2_access);
    v.insert(
        "dbt.codecache.l2_miss_ratio",
        ratio(count(&plan, "l2code.miss") as f64, l2_access),
    );
    v.insert(
        "dbt.codecache.l1_flushes",
        count(&plan, "l1code.flushes") as f64,
    );
    v.insert("dbt.memsys.l1_hit", count(&plan, "mem.l1_hit") as f64);
    v.insert("dbt.memsys.dram", count(&plan, "mem.dram") as f64);
    v.insert(
        "dbt.memsys.exec_stall_cycles",
        count(&plan, "exec.stall_cycles") as f64,
    );
    let (mut busy, mut service, mut dram_wait, mut cycles) = (0u64, 0u64, 0u64, 0u64);
    for first in plan.cells.iter().filter_map(|c| c.first.as_ref()) {
        let m = ManagerActivity::from_stats(&first.stats, first.cycles);
        busy += m.busy_cycles();
        service += m.service_cycles;
        dram_wait += m.dram_wait_cycles;
        cycles += first.cycles;
    }
    v.insert("dbt.manager.busy_share", ratio(busy as f64, cycles as f64));
    v.insert("dbt.manager.service_cycles", service as f64);
    v.insert("dbt.manager.dram_wait_cycles", dram_wait as f64);
    v.insert(
        "dbt.slave.busy_cycles",
        count(&plan, "translate.busy_cycles") as f64,
    );
    v.insert("dbt.specq.pushes", count(&plan, "spec.pushes") as f64);

    // The oracle's own speed, from its one run per guest.
    let ref_insns: f64 = plan.guests.iter().map(|g| g.reference.insns as f64).sum();
    let interp: f64 = plan.guests.iter().map(|g| g.reference.interp_seconds).sum();
    let piii: f64 = plan.guests.iter().map(|g| g.reference.piii_seconds).sum();
    v.insert("x86.ref_interp_mips", ref_insns / interp / 1e6);
    v.insert("pentium.model_mips", ref_insns / piii / 1e6);

    let o = probes::observers(
        &plan,
        seconds * SHARE_OBSERVERS,
        OBSERVER_ROUNDS,
        &mut rec,
        &mut tally,
    )?;
    v.insert("sim.trace_on_ratio", o.trace);
    v.insert("sim.metrics_on_ratio", o.metrics);
    v.insert("sim.prof_on_ratio", o.prof);

    let slice = seconds * SHARE_PROBES / TIMED_PROBES;
    let p = probes::run(&plan, seed, slice, &mut rec, &mut tally)?;
    v.insert("x86.decode_ns_per_insn", p.decode_ns_per_insn);
    v.insert(
        "ir.translate_ns_per_insn.none",
        p.translate_none_ns_per_insn,
    );
    v.insert(
        "ir.translate_ns_per_insn.full",
        p.translate_full_ns_per_insn,
    );
    v.insert("ir.region_ns_per_insn", p.region_ns_per_insn);
    v.insert(
        "ir.opt_share",
        ratio(
            p.translate_full_ns_per_insn - p.translate_none_ns_per_insn,
            p.translate_full_ns_per_insn,
        ),
    );
    v.insert("ir.rinsn_per_guest_insn", p.rinsn_per_guest_insn);
    v.insert("ir.host_bytes_per_guest_insn", p.host_bytes_per_guest_insn);
    v.insert("raw.run_block_ns_per_rinsn", p.run_block_ns_per_rinsn);
    v.insert("raw.cache_access_ns.hit", p.cache_hit_ns);
    v.insert("raw.cache_access_ns.miss", p.cache_miss_ns);
    v.insert("dbt.codecache.l1_lookup_ns", p.l1_lookup_ns);
    v.insert("dbt.codecache.l15_get_ns", p.l15_get_ns);
    v.insert("dbt.codecache.l2_get_ns", p.l2_get_ns);
    v.insert("dbt.codecache.l1_insert_ns", p.l1_insert_ns);
    v.insert("dbt.codecache.l15_insert_ns", p.l15_insert_ns);
    v.insert("dbt.codecache.l2_commit_ns", p.l2_commit_ns);
    v.insert("dbt.codecache.l1_invalidate_ns", p.l1_invalidate_ns);
    v.insert("dbt.memsys.access_ns.hit", p.memsys_hit_ns);
    v.insert("dbt.memsys.access_ns.miss", p.memsys_miss_ns);
    v.insert("sim.stats_bump_ns", p.stats_bump_ns);
    v.insert("sim.stats_fingerprint_us", p.stats_fingerprint_us);

    write_trace(trace_path, spec, seed, seconds, &plan, &v, &rec)?;
    Ok(Finished { values: v, tally })
}

/// Spans, per-cell counters and the per-layer values of a traced run.
fn write_trace(
    path: &std::path::Path,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    plan: &Plan,
    values: &Values,
    rec: &Recorder,
) -> Result<(), String> {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"workload\": {},", json::quote(spec.name));
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"seconds\": {},", json::number(seconds));
    let metrics: Vec<String> = PER_LAYER
        .iter()
        .filter_map(|d| values.get(d.name).map(|v| (d, v)))
        .map(|(d, v)| format!("    {}: {}", json::quote(d.name), json::number(*v)))
        .collect();
    let _ = writeln!(out, "  \"per_layer\": {{\n{}\n  }},", metrics.join(",\n"));
    let cells: Vec<String> = plan
        .cells
        .iter()
        .enumerate()
        .filter_map(|(c, cell)| cell.first.as_ref().map(|r| (c, r)))
        .map(|(c, r)| {
            let counters: Vec<String> = r
                .stats
                .iter()
                .map(|(name, n)| format!("{}: {n}", json::quote(name)))
                .collect();
            format!(
                "    {}: {{\"cycles\": {}, \"guest_insns\": {}, \"fingerprint\": {}, \"stats\": {{{}}}}}",
                json::quote(&plan.cell_name(c)),
                r.cycles,
                r.guest_insns,
                json::quote(&format!("{:016x}", r.stats.fingerprint())),
                counters.join(", ")
            )
        })
        .collect();
    let _ = writeln!(out, "  \"counts\": {{\n{}\n  }},", cells.join(",\n"));
    let _ = writeln!(out, "  \"spans\": {}", rec.to_json());
    let _ = writeln!(out, "}}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("  spans and counts written to {}", path.display());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    #[test]
    fn sim_slowdown_is_the_geometric_mean_of_cycles_over_piii() {
        let mut plan = Plan::build(spec("cold_translate").unwrap(), &mut Recorder::off()).unwrap();
        assert!(sim_slowdown(&plan).is_err(), "nothing has run yet");
        let mut order = GuestOrder::new(0, plan.cells.len());
        let mut tally = Tally::default();
        cell_loop(
            &mut plan,
            &mut order,
            ONE_PASS,
            false,
            None,
            &mut Recorder::off(),
            &mut tally,
        );
        // A fixed fixture: pin what the four cells report.
        let fixture = [(200u64, 100u64), (800, 100), (300, 100), (300, 100)];
        for (cell, (cycles, piii)) in plan.cells.iter_mut().zip(fixture) {
            cell.first.as_mut().unwrap().cycles = cycles;
            plan.guests[cell.guest].reference.piii_cycles = piii;
        }
        let expected = (2.0f64 * 8.0 * 3.0 * 3.0).powf(0.25);
        assert!((sim_slowdown(&plan).unwrap() - expected).abs() < 1e-12);
    }

    #[test]
    fn one_pass_runs_every_guest_and_reads_the_peak_rss() {
        assert!(one_pass(spec("cold_translate").unwrap()).expect("linux") > 1.0);
    }

    #[test]
    fn the_traced_run_splits_its_window() {
        let total = SHARE_UNTRACED + SHARE_PROFILED + SHARE_OBSERVERS + SHARE_PROBES;
        assert!(total <= 1.0, "{total}");
    }
}
