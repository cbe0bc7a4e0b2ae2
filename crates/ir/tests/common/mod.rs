//! The translation workload the translator-context tests share.
//!
//! Every block leader of the 11 `workloads` guests at `Scale::Test` (the
//! entry and the pc after every block-ending instruction the reference
//! interpreter executes, the leader set `vta check`'s translation digests
//! cover) and every code address of seeded cases from the fuzz
//! generators, each under a seeded mix of opt levels and shapes: single
//! block, static region, and a region along a path drawn from the decoded
//! successors (indirect junctions draw another leader, so some guards
//! hold and some formations stop at a gap). Most generator addresses
//! start mid-instruction, so decode failures and garbage blocks are in
//! the mix. The jobs come shuffled, so consecutive translations share
//! nothing.

use vta_ir::fuzz::gen;
use vta_ir::{
    translate_block, translate_region, translate_region_along, OptLevel, RegionLimits, TBlock,
    TranslateError, Translator,
};
use vta_sim::Rng;
use vta_workloads::Scale;
use vta_x86::{Cpu, GuestMem, Leaders};

/// How a job shapes its translation.
#[derive(Debug)]
pub enum Shape {
    /// [`translate_block`].
    Single,
    /// [`translate_region`] under [`RegionLimits::default`].
    Static,
    /// [`translate_region_along`] the path under
    /// [`RegionLimits::default`].
    Along(Vec<u32>),
}

/// One translation to make.
#[derive(Debug)]
pub struct Job {
    /// Index of the guest memory to translate from.
    pub src: usize,
    /// Where.
    pub addr: u32,
    /// At which level.
    pub opt: OptLevel,
    /// Under which shape.
    pub shape: Shape,
}

impl Job {
    /// The translation on a fresh context.
    pub fn fresh(&self, mems: &[GuestMem]) -> Result<TBlock, TranslateError> {
        let (mem, limits) = (&mems[self.src], RegionLimits::default());
        match &self.shape {
            Shape::Single => translate_block(mem, self.addr, self.opt),
            Shape::Static => translate_region(mem, self.addr, self.opt, &limits),
            Shape::Along(path) => translate_region_along(mem, self.addr, self.opt, &limits, path),
        }
    }

    /// The translation on `t`.
    pub fn on(&self, t: &mut Translator, mems: &[GuestMem]) -> Result<TBlock, TranslateError> {
        let (mem, limits) = (&mems[self.src], RegionLimits::default());
        match &self.shape {
            Shape::Single => t.translate_block(mem, self.addr, self.opt),
            Shape::Static => t.translate_region(mem, self.addr, self.opt, &limits),
            Shape::Along(path) => t.translate_region_along(mem, self.addr, self.opt, &limits, path),
        }
    }
}

/// A path of up to 7 junctions from `addr`, each step one of the
/// decoded successors of the single block there (or, at an indirect
/// exit, one of `leaders`), drawn by `rng`.
fn draw_path(mem: &GuestMem, addr: u32, leaders: &[u32], rng: &mut Rng) -> Vec<u32> {
    let mut path = Vec::new();
    let mut at = addr;
    while path.len() < 7 {
        let Ok(b) = translate_block(mem, at, OptLevel::None) else {
            break;
        };
        let mut next: Vec<u32> = b.term.successors().into_iter().flatten().collect();
        if next.is_empty() {
            next.extend(leaders.get(rng.below(leaders.len() as u64) as usize));
        }
        let Some(&step) = next.get(rng.below(next.len().max(1) as u64) as usize) else {
            break;
        };
        path.push(step);
        at = step;
    }
    path
}

/// The guests' memories and generator cases' memories, and the jobs over
/// them in a shuffled order drawn from `seed`.
pub fn workload(seed: u64) -> (Vec<GuestMem>, Vec<Job>) {
    let mut rng = Rng::seeded(seed);
    let mut sources: Vec<(GuestMem, Vec<u32>)> = Vec::new();
    for w in vta_workloads::all(Scale::Test) {
        let mut leaders = Leaders::default();
        leaders.0.insert(w.image.entry);
        Cpu::new(&w.image)
            .run_observed(u64::MAX, &mut leaders)
            .expect("the guest runs");
        sources.push((w.image.build_mem(), leaders.0.into_iter().collect()));
    }
    type Gen = fn(&mut Rng) -> vta_ir::fuzz::Case;
    let gens: [Gen; 6] = [
        gen::linear,
        gen::branchy,
        gen::smc,
        gen::region_smc,
        gen::recorded_path,
        gen::raw_bytes,
    ];
    for gen in gens {
        for _ in 0..8 {
            let image = gen(&mut rng).image();
            sources.push((
                image.build_mem(),
                (image.code_base..image.code_end()).collect(),
            ));
        }
    }
    let mut jobs = Vec::new();
    for (src, (mem, addrs)) in sources.iter().enumerate() {
        for &addr in addrs {
            let opt = if rng.chance(1, 2) {
                OptLevel::Full
            } else {
                OptLevel::None
            };
            let shape = match rng.below(3) {
                0 => Shape::Single,
                1 => Shape::Static,
                _ => Shape::Along(draw_path(mem, addr, addrs, &mut rng)),
            };
            jobs.push(Job {
                src,
                addr,
                opt,
                shape,
            });
        }
    }
    rng.shuffle(&mut jobs);
    (sources.into_iter().map(|(mem, _)| mem).collect(), jobs)
}
