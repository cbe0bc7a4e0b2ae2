//! Direct probes: each layer timed from outside, through its public
//! functions, on inputs taken from the workload's own guests (translated
//! blocks, reachable instructions) or generated from `--seed` (address
//! streams, which blocks are sampled). Every probe reports the fastest
//! of its repetitions, like the end-to-end loops do.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use vta_bench::RUN_BUDGET;
use vta_dbt::codecache::{L15Bank, L1Code, L2Code};
use vta_dbt::memsys::MemSys;
use vta_dbt::{System, Timing, VirtualArchConfig};
use vta_ir::{apply_helper, translate_block, translate_region, OptLevel, RegionLimits, TBlock};
use vta_raw::{
    run_block, BlockExit, Cache, CacheConfig, CoreState, DataPort, Dram, Fault, HelperKind, MemOp,
    RReg,
};
use vta_sim::{Ctr, Cycle, MetricsConfig, ProfConfig, Rng, Stats, TraceConfig, Tracer};
use vta_workloads::{by_name, Scale};
use vta_x86::decode::decode;
use vta_x86::{GuestImage, GuestMem, SysState, SyscallResult};

use crate::estimate::Samples;
use crate::oracle::{Pinned, Reference, Tally};
use crate::spans::Recorder;
use crate::workload::Plan;

/// Guest registers as the translator maps them onto host registers
/// (`vta_ir::helper`, `vta_ir::codegen::SYS_RESUME_REG`).
const R_EAX: RReg = RReg(1);
const R_ECX: RReg = RReg(2);
const R_EDX: RReg = RReg(3);
const R_EBX: RReg = RReg(4);
const R_ESP: RReg = RReg(5);
const R_RESUME: RReg = vta_ir::codegen::SYS_RESUME_REG;

/// Per-block instruction cap, the value `System::run` passes.
const BLOCK_FUEL: u64 = 50_000_000;

/// Blocks sampled per guest for the decode and translate probes.
const SAMPLED_BLOCKS: usize = 256;

/// No probe repeats more often than this, however short it is.
const MAX_REPS: usize = 400;

/// Fastest of the repetitions of `f` (which returns the seconds it
/// measured): at least `min_reps` of them, and more until `seconds` have
/// passed. Each repetition is a span under one span named `name`.
fn best_of(
    rec: &mut Recorder,
    name: &str,
    min_reps: usize,
    seconds: f64,
    mut f: impl FnMut() -> f64,
) -> f64 {
    let (samples, _, _) = rec.time(name, 0, |rec| {
        let started = Instant::now();
        let mut samples = Samples::default();
        while samples.len() < min_reps
            || (started.elapsed().as_secs_f64() < seconds && samples.len() < MAX_REPS)
        {
            let rep = samples.len() as u32;
            let (took, _, _) = rec.time("probe rep", rep, |_| f());
            samples.push(took);
        }
        samples
    });
    samples.fastest()
}

/// Seconds `f` takes.
fn seconds(f: impl FnOnce()) -> f64 {
    let started = Instant::now();
    f();
    started.elapsed().as_secs_f64()
}

/// A flat, zero-stall window onto guest memory: what `run_block` costs
/// when the memory system costs nothing.
struct FlatPort<'a> {
    mem: &'a mut GuestMem,
}

impl DataPort for FlatPort<'_> {
    fn load(&mut self, addr: u32, op: MemOp) -> Result<(u32, u64), Fault> {
        self.mem
            .read_sized(addr, op.bytes())
            .map(|v| (v, 0))
            .map_err(|e| Fault::Unmapped { addr: e.addr })
    }

    fn store(&mut self, addr: u32, value: u32, op: MemOp) -> Result<u64, Fault> {
        self.mem
            .write_sized(addr, value, op.bytes())
            .map(|()| 0)
            .map_err(|e| Fault::Unmapped { addr: e.addr })
    }

    fn helper(&mut self, kind: HelperKind, state: &mut CoreState) -> Result<(), Fault> {
        apply_helper(kind, state)
    }
}

/// What one bare run of a guest produced.
struct BareRun {
    exit_code: u32,
    output: Vec<u8>,
    /// Host instructions `run_block` retired.
    rinsns: u64,
    /// Seconds inside the loop, guest memory already built.
    seconds: f64,
}

/// The bare loop: translate on demand into `blocks`, `run_block` against
/// a [`FlatPort`], follow the successor, hand syscalls to
/// `vta_x86::syscall`. No code-cache hierarchy, no manager, no timing
/// model — the floor the safe interpreter sets under `System::run`.
fn bare_run(image: &GuestImage, blocks: &mut HashMap<u32, Arc<TBlock>>) -> Result<BareRun, String> {
    let mut mem = image.build_mem();
    let mut sys = SysState::new(image.brk_base);
    sys.set_input(image.input.clone());
    let mut state = CoreState::new();
    state.set(R_ESP, image.initial_esp());
    let limits = RegionLimits::default();
    let mut pc = image.entry;
    let mut rinsns = 0u64;
    let started = Instant::now();
    loop {
        let block = match blocks.get(&pc) {
            Some(b) => b,
            None => {
                let b = translate_region(&mem, pc, OptLevel::Full, &limits)
                    .map_err(|e| format!("bare loop: translating {pc:#x}: {e}"))?;
                &*blocks.entry(pc).or_insert(Arc::new(b))
            }
        };
        let out = run_block(
            &mut state,
            &block.code,
            &mut FlatPort { mem: &mut mem },
            BLOCK_FUEL,
        );
        rinsns += out.insns;
        match out.exit {
            BlockExit::Goto(t) | BlockExit::Indirect(t) => pc = t,
            BlockExit::Sys => {
                let args = [state.get(R_EBX), state.get(R_ECX), state.get(R_EDX)];
                match sys.dispatch(&mut mem, state.get(R_EAX), args) {
                    SyscallResult::Continue(ret) => {
                        state.set(R_EAX, ret);
                        pc = state.get(R_RESUME);
                    }
                    SyscallResult::Exit(exit_code) => {
                        return Ok(BareRun {
                            exit_code,
                            output: sys.output,
                            rinsns,
                            seconds: started.elapsed().as_secs_f64(),
                        })
                    }
                }
            }
            BlockExit::Halt => return Err("bare loop: the guest halted".to_string()),
            BlockExit::Fault(f) => return Err(format!("bare loop: fault {f:?} in block {pc:#x}")),
        }
        if rinsns > RUN_BUDGET * 16 {
            return Err("bare loop: ran past the budget".to_string());
        }
    }
}

/// One guest as the probes see it: the blocks its execution reaches.
struct ProbeGuest {
    mem: GuestMem,
    /// Every block the bare loop executed, by guest address.
    blocks: Vec<Arc<TBlock>>,
    /// A seeded sample of basic blocks: entry address, length in bytes.
    sampled: Vec<(u32, u32)>,
    /// A seeded stream of block addresses to look up.
    lookups: Vec<u32>,
}

/// The per-layer numbers the direct probes produce.
#[derive(Debug, Default)]
pub struct ProbeValues {
    pub decode_ns_per_insn: f64,
    pub translate_none_ns_per_insn: f64,
    pub translate_full_ns_per_insn: f64,
    pub region_ns_per_insn: f64,
    pub rinsn_per_guest_insn: f64,
    pub host_bytes_per_guest_insn: f64,
    pub run_block_ns_per_rinsn: f64,
    pub cache_hit_ns: f64,
    pub cache_miss_ns: f64,
    pub l1_lookup_ns: f64,
    pub l15_get_ns: f64,
    pub l2_get_ns: f64,
    pub l1_insert_ns: f64,
    pub l15_insert_ns: f64,
    pub l2_commit_ns: f64,
    pub l1_invalidate_ns: f64,
    pub memsys_hit_ns: f64,
    pub memsys_miss_ns: f64,
    pub stats_bump_ns: f64,
    pub stats_fingerprint_us: f64,
}

/// Runs every direct probe on the plan's guests. `slice` is the seconds
/// each timed probe may keep repeating for beyond its minimum.
pub fn run(
    plan: &Plan,
    seed: u64,
    slice: f64,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<ProbeValues, String> {
    let mut rng = Rng::seeded(seed ^ 0x70_72_6f_62_65);
    let mut v = ProbeValues::default();

    // vta-raw: the bare loop. Its first run per guest also discovers the
    // blocks every other probe works on, and is checked like any run.
    let mut guests = Vec::new();
    let mut maps = Vec::new();
    let mut rinsns = 0u64;
    let mut decoded = 0u64;
    for g in &plan.guests {
        let mut blocks = HashMap::new();
        let (run, _, _) = rec.time(
            &format!("probe raw.bare_loop discover {}", g.name),
            0,
            |_| bare_run(&g.image, &mut blocks),
        );
        let verdict = run.and_then(|r| {
            rinsns += r.rinsns;
            if r.exit_code == g.reference.exit_code && r.output == g.reference.output {
                Ok(())
            } else {
                Err(format!(
                    "bare loop exited with {}, the interpreter says {}",
                    r.exit_code, g.reference.exit_code
                ))
            }
        });
        if !tally.record(&format!("{}/bare_loop", g.name), verdict) {
            return Err(format!("the bare loop does not run {}", g.name));
        }
        let mut sorted: Vec<Arc<TBlock>> = blocks.values().cloned().collect();
        sorted.sort_by_key(|b| b.guest_addr);
        let mut addrs: Vec<u32> = sorted.iter().map(|b| b.guest_addr).collect();
        let lookups = (0..4096)
            .map(|_| addrs[rng.below(addrs.len() as u64) as usize])
            .collect();
        rng.shuffle(&mut addrs);
        addrs.truncate(SAMPLED_BLOCKS);
        addrs.sort_unstable();
        let mem = g.image.build_mem();
        let mut sampled = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let b = translate_block(&mem, addr, OptLevel::Full)
                .map_err(|e| format!("translating sampled block {addr:#x}: {e}"))?;
            decoded += u64::from(b.guest_insns);
            sampled.push((addr, b.guest_len));
        }
        guests.push(ProbeGuest {
            mem,
            blocks: sorted,
            sampled,
            lookups,
        });
        maps.push(blocks);
    }
    let bare = best_of(rec, "probe raw.bare_loop", 3, slice, || {
        plan.guests
            .iter()
            .zip(&mut maps)
            .map(|(g, blocks)| bare_run(&g.image, blocks).map_or(f64::INFINITY, |r| r.seconds))
            .sum()
    });
    v.run_block_ns_per_rinsn = bare * 1e9 / rinsns as f64;
    drop(maps);

    // vta-x86: decode every instruction of the sampled blocks.
    let t = best_of(rec, "probe x86.decode", 20, slice, || {
        seconds(|| {
            for g in &guests {
                for &(entry, len) in &g.sampled {
                    let mut at = entry;
                    while at < entry + len {
                        let Ok(insn) = decode(&g.mem, at) else { break };
                        at += u32::from(black_box(&insn).len);
                    }
                }
            }
        })
    });
    v.decode_ns_per_insn = t * 1e9 / decoded as f64;

    // vta-ir: translation with and without the optimiser, and region
    // formation, over the same sampled entries.
    let limits = RegionLimits::default();
    let translate =
        |rec: &mut Recorder, name: &str, f: &dyn Fn(&GuestMem, u32) -> Option<TBlock>| {
            let mut insns = 0u64;
            let t = best_of(rec, name, 20, slice, || {
                insns = 0;
                seconds(|| {
                    for g in &guests {
                        for &(addr, _) in &g.sampled {
                            if let Some(b) = f(&g.mem, addr) {
                                insns += u64::from(black_box(&b).guest_insns);
                            }
                        }
                    }
                })
            });
            t * 1e9 / insns as f64
        };
    v.translate_none_ns_per_insn = translate(rec, "probe ir.translate_block none", &|m, a| {
        translate_block(m, a, OptLevel::None).ok()
    });
    v.translate_full_ns_per_insn = translate(rec, "probe ir.translate_block full", &|m, a| {
        translate_block(m, a, OptLevel::Full).ok()
    });
    v.region_ns_per_insn = translate(rec, "probe ir.translate_region", &|m, a| {
        translate_region(m, a, OptLevel::Full, &limits).ok()
    });

    // Code quality of the full pipeline over *every* reached block, so
    // the ratios do not depend on the sample.
    let (mut code, mut bytes, mut insns) = (0u64, 0u64, 0u64);
    for g in &guests {
        for b in &g.blocks {
            let single = translate_block(&g.mem, b.guest_addr, OptLevel::Full)
                .map_err(|e| format!("translating {:#x}: {e}", b.guest_addr))?;
            code += single.code.len() as u64;
            bytes += u64::from(single.host_bytes());
            insns += u64::from(single.guest_insns);
        }
    }
    v.rinsn_per_guest_insn = code as f64 / insns as f64;
    v.host_bytes_per_guest_insn = bytes as f64 / insns as f64;

    codecache(&guests, slice, rec, &mut v);
    memory(&mut rng, slice, rec, &mut v);

    // vta-sim: what one counter bump and one fingerprint cost.
    const BUMPS: u32 = 1 << 20;
    let mut stats = Stats::new();
    let t = best_of(rec, "probe sim.Stats::bump_ctr", 20, slice, || {
        seconds(|| {
            for _ in 0..BUMPS {
                black_box(&mut stats).bump_ctr(Ctr::ExecBlocks);
            }
        })
    });
    v.stats_bump_ns = t * 1e9 / f64::from(BUMPS);
    let report = plan.cells[0]
        .first
        .as_ref()
        .ok_or("no run to fingerprint yet")?;
    let t = best_of(rec, "probe sim.Stats::fingerprint", 20, slice, || {
        seconds(|| {
            black_box(report.stats.fingerprint());
        })
    });
    v.stats_fingerprint_us = t * 1e6;
    Ok(v)
}

/// vta-dbt codecache: the three levels filled with the workload's own
/// translated blocks; reads walk a seeded stream of block addresses.
fn codecache(guests: &[ProbeGuest], slice: f64, rec: &mut Recorder, v: &mut ProbeValues) {
    let cfg = VirtualArchConfig::paper_default();
    let blocks: u64 = guests.iter().map(|g| g.blocks.len() as u64).sum();
    let lookups: u64 = guests.iter().map(|g| g.lookups.len() as u64).sum();
    let per = |t: f64, n: u64| t * 1e9 / n.max(1) as f64;

    let filled_l1 = |g: &ProbeGuest| {
        let mut l1 = L1Code::new(cfg.l1_code_bytes);
        for b in &g.blocks {
            l1.insert(Arc::clone(b));
        }
        l1
    };

    let l1s: Vec<L1Code> = guests.iter().map(filled_l1).collect();
    let t = best_of(rec, "probe dbt.L1Code::lookup", 20, slice, || {
        seconds(|| {
            for (g, l1) in guests.iter().zip(&l1s) {
                for &a in &g.lookups {
                    black_box(l1.lookup(a));
                }
            }
        })
    });
    v.l1_lookup_ns = per(t, lookups);

    let t = best_of(rec, "probe dbt.L1Code::insert", 20, slice, || {
        guests
            .iter()
            .map(|g| {
                let mut l1 = L1Code::new(cfg.l1_code_bytes);
                seconds(|| {
                    for b in &g.blocks {
                        black_box(l1.insert(Arc::clone(b)));
                    }
                })
            })
            .sum()
    });
    v.l1_insert_ns = per(t, blocks);

    let mut resident = 0u64;
    let t = best_of(rec, "probe dbt.L1Code::invalidate", 20, slice, || {
        resident = 0;
        guests
            .iter()
            .map(|g| {
                let mut l1 = filled_l1(g);
                let live: Vec<u32> = g
                    .blocks
                    .iter()
                    .map(|b| b.guest_addr)
                    .filter(|&a| l1.contains(a))
                    .collect();
                resident += live.len() as u64;
                seconds(|| {
                    for &a in &live {
                        l1.invalidate(a);
                    }
                })
            })
            .sum()
    });
    v.l1_invalidate_ns = per(t, resident);

    let t = best_of(rec, "probe dbt.L15Bank::insert", 20, slice, || {
        guests
            .iter()
            .map(|g| {
                let mut bank = L15Bank::new(cfg.l15_bank_bytes);
                seconds(|| {
                    for b in &g.blocks {
                        bank.insert(Arc::clone(b));
                    }
                })
            })
            .sum()
    });
    v.l15_insert_ns = per(t, blocks);

    let mut banks: Vec<L15Bank> = guests
        .iter()
        .map(|g| {
            let mut bank = L15Bank::new(cfg.l15_bank_bytes);
            for b in &g.blocks {
                bank.insert(Arc::clone(b));
            }
            bank
        })
        .collect();
    let t = best_of(rec, "probe dbt.L15Bank::get", 20, slice, || {
        seconds(|| {
            for (g, bank) in guests.iter().zip(&mut banks) {
                for &a in &g.lookups {
                    black_box(bank.get(a));
                }
            }
        })
    });
    v.l15_get_ns = per(t, lookups);

    let t = best_of(rec, "probe dbt.L2Code::commit", 20, slice, || {
        guests
            .iter()
            .map(|g| {
                let mut l2 = L2Code::new(cfg.l2_code_bytes);
                seconds(|| {
                    for b in &g.blocks {
                        l2.commit(Arc::clone(b));
                    }
                })
            })
            .sum()
    });
    v.l2_commit_ns = per(t, blocks);

    let l2s: Vec<L2Code> = guests
        .iter()
        .map(|g| {
            let mut l2 = L2Code::new(cfg.l2_code_bytes);
            for b in &g.blocks {
                l2.commit(Arc::clone(b));
            }
            l2
        })
        .collect();
    let t = best_of(rec, "probe dbt.L2Code::get", 20, slice, || {
        seconds(|| {
            for (g, l2) in guests.iter().zip(&l2s) {
                for &a in &g.lookups {
                    black_box(l2.get(a));
                }
            }
        })
    });
    v.l2_get_ns = per(t, lookups);
}

/// vta-raw `Cache::access` and vta-dbt `MemSys::access` on seeded word
/// addresses: a *hit* stream that stays inside half the L1 D$, and a
/// *miss* stream spread over 256 MiB.
fn memory(rng: &mut Rng, slice: f64, rec: &mut Recorder, v: &mut ProbeValues) {
    const ACCESSES: usize = 1 << 15;
    const BASE: u32 = 0x1000_0000;
    let hit_window = u64::from(CacheConfig::RAW_L1D.size_bytes / 2);
    let hits: Vec<u32> = (0..ACCESSES)
        .map(|_| BASE + (rng.below(hit_window) as u32 & !3))
        .collect();
    let misses: Vec<u32> = (0..ACCESSES)
        .map(|_| BASE + (rng.below(256 << 20) as u32 & !3))
        .collect();
    let per = |t: f64| t * 1e9 / ACCESSES as f64;

    let mut cache = Cache::new(CacheConfig::RAW_L1D);
    let mut stream = |rec: &mut Recorder, name: &str, addrs: &[u32]| {
        per(best_of(rec, name, 20, slice, || {
            seconds(|| {
                for (i, &a) in addrs.iter().enumerate() {
                    black_box(cache.access(u64::from(a), i % 4 == 0));
                }
            })
        }))
    };
    v.cache_hit_ns = stream(rec, "probe raw.Cache::access hit", &hits);
    v.cache_miss_ns = stream(rec, "probe raw.Cache::access miss", &misses);

    let cfg = VirtualArchConfig::paper_default();
    let timing = Timing::default();
    let mut memsys = MemSys::new(&cfg.placement.l2_banks, cfg.l2_bank_bytes);
    let mut dram = Dram::new(timing.dram_latency, timing.dram_word);
    let mut tracer = Tracer::disabled();
    let mut now = Cycle::ZERO;
    let mut stream = |rec: &mut Recorder, name: &str, addrs: &[u32]| {
        per(best_of(rec, name, 20, slice, || {
            seconds(|| {
                for (i, &a) in addrs.iter().enumerate() {
                    let (stall, level) = memsys.access(
                        now,
                        a,
                        i % 4 == 0,
                        cfg.placement.exec,
                        cfg.placement.mmu,
                        &mut dram,
                        &timing,
                        &mut tracer,
                    );
                    now += stall + 1;
                    black_box(level);
                }
            })
        }))
    };
    v.memsys_hit_ns = stream(rec, "probe dbt.MemSys::access hit", &hits);
    v.memsys_miss_ns = stream(rec, "probe dbt.MemSys::access miss", &misses);
}

/// Which observer a run of the observer probe switches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Observer {
    Off,
    Trace,
    Metrics,
    Prof,
}

/// Fastest `gzip` + `crafty` Large run with one observer on, over the
/// fastest with all of them off.
#[derive(Debug, Default)]
pub struct ObserverRatios {
    pub trace: f64,
    pub metrics: f64,
    pub prof: f64,
}

/// vta-sim observers: the same two Large guests on every workload, so
/// the ratios compare across workloads. Runs at least `min_rounds`
/// rounds of the four variants, and more until `seconds` have passed.
pub fn observers(
    plan: &Plan,
    seconds_budget: f64,
    min_rounds: usize,
    rec: &mut Recorder,
    tally: &mut Tally,
) -> Result<ObserverRatios, String> {
    const VARIANTS: [Observer; 4] = [
        Observer::Off,
        Observer::Trace,
        Observer::Metrics,
        Observer::Prof,
    ];
    let mut guests = Vec::new();
    for name in ["gzip", "crafty"] {
        let w = by_name(name, Scale::Large).ok_or_else(|| format!("no guest named {name}"))?;
        // A workload that already runs this guest at Large has its reference.
        let known = plan
            .guests
            .iter()
            .find(|g| g.name == w.name && plan.spec.scale == Scale::Large)
            .map(|g| g.reference.clone());
        let reference = match known {
            Some(r) => r,
            None => Reference::of(w.name, &w.image, rec)?,
        };
        guests.push((w, reference, Pinned::None));
    }
    let mut walls = vec![vec![Samples::default(); guests.len()]; VARIANTS.len()];
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds < min_rounds || started.elapsed().as_secs_f64() < seconds_budget {
        for (vi, variant) in VARIANTS.iter().enumerate() {
            for (gi, (w, reference, pinned)) in guests.iter_mut().enumerate() {
                let mut system = System::new(VirtualArchConfig::paper_default(), &w.image);
                match variant {
                    Observer::Off => {}
                    Observer::Trace => system.enable_tracing(TraceConfig::default()),
                    Observer::Metrics => system.enable_metrics(MetricsConfig::default()),
                    Observer::Prof => system.enable_profiling(ProfConfig::default()),
                }
                let what = format!("probe sim.observers {variant:?} {}", w.name);
                let (run, took, _) = rec.time(&what, rounds as u32, |_| system.run(RUN_BUDGET));
                walls[vi][gi].push(took.as_secs_f64());
                tally.check(&what, reference, pinned, &run);
            }
        }
        rounds += 1;
    }
    let fastest = |vi: usize| walls[vi].iter().map(Samples::fastest).sum::<f64>();
    let off = fastest(0);
    Ok(ObserverRatios {
        trace: fastest(1) / off,
        metrics: fastest(2) / off,
        prof: fastest(3) / off,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::spec;

    #[test]
    fn the_bare_loop_agrees_with_the_reference_interpreter() {
        let plan = Plan::build(spec("cold_translate").unwrap(), &mut Recorder::off()).unwrap();
        for g in &plan.guests {
            let mut blocks = HashMap::new();
            let run = bare_run(&g.image, &mut blocks).expect("runs");
            assert_eq!(run.exit_code, g.reference.exit_code, "{}", g.name);
            assert_eq!(run.output, g.reference.output, "{}", g.name);
            assert!(run.rinsns >= g.reference.insns, "{}", g.name);
            let translated = blocks.len();
            let again = bare_run(&g.image, &mut blocks).expect("runs warm");
            assert_eq!(again.rinsns, run.rinsns);
            assert_eq!(
                blocks.len(),
                translated,
                "a warm run translates nothing new"
            );
        }
    }

    #[test]
    fn probes_produce_positive_numbers_and_repeat_exact_ratios() {
        let mut plan = Plan::build(spec("cold_translate").unwrap(), &mut Recorder::off()).unwrap();
        let mut tally = Tally::default();
        let mut order = crate::estimate::GuestOrder::new(0, plan.cells.len());
        let once = crate::timed::Window {
            seconds: 0.0,
            min_passes: 1,
        };
        crate::timed::cell_loop(
            &mut plan,
            &mut order,
            once,
            false,
            None,
            &mut Recorder::off(),
            &mut tally,
        );
        let mut rec = Recorder::on();
        let a = run(&plan, 1, 0.0, &mut rec, &mut tally).expect("probes run");
        let b = run(&plan, 2, 0.0, &mut Recorder::off(), &mut tally).expect("probes run");
        assert_eq!(tally.failed, 0, "{:?}", tally.messages());
        for x in [
            a.decode_ns_per_insn,
            a.translate_none_ns_per_insn,
            a.translate_full_ns_per_insn,
            a.region_ns_per_insn,
            a.run_block_ns_per_rinsn,
            a.cache_hit_ns,
            a.cache_miss_ns,
            a.l1_lookup_ns,
            a.l15_get_ns,
            a.l2_get_ns,
            a.l1_insert_ns,
            a.l15_insert_ns,
            a.l2_commit_ns,
            a.l1_invalidate_ns,
            a.memsys_hit_ns,
            a.memsys_miss_ns,
            a.stats_bump_ns,
            a.stats_fingerprint_us,
        ] {
            assert!(x.is_finite() && x > 0.0, "{a:?}");
        }
        assert!(a.rinsn_per_guest_insn > 1.0);
        assert_eq!(
            a.rinsn_per_guest_insn, b.rinsn_per_guest_insn,
            "independent of the seed"
        );
        assert_eq!(a.host_bytes_per_guest_insn, b.host_bytes_per_guest_insn);
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.name == "probe dbt.L2Code::get"));
        assert!(rec
            .spans()
            .iter()
            .any(|s| s.name == "probe rep" && s.parent.is_some()));
    }
}
