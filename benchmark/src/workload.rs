//! The four workloads and what each one isolates.
//!
//! A workload is a set of *cells*: one guest program from the fixed
//! `vta_workloads` suite under one `VirtualArchConfig`. The guest images
//! do not depend on `--seed`; the seed permutes the order cells are
//! visited in (and seeds the address streams of the direct probes).

use vta_bench::figures::fig5_configs;
use vta_dbt::{RunReport, VirtualArchConfig};
use vta_workloads::{by_name, Scale, NAMES};
use vta_x86::GuestImage;

use crate::oracle::{Pinned, Reference};
use crate::spans::Recorder;

/// Host threads `paper_sweep` asks `sweep_threads` for (capped by the
/// cores the host has); every other workload runs on one thread.
pub const SWEEP_THREADS: usize = 2;

pub struct Spec {
    pub name: &'static str,
    pub guests: &'static [&'static str],
    pub scale: Scale,
    /// Whether the workload is the whole `vta_bench::sweep_threads` job
    /// (every guest under every Figure 5 configuration, translations
    /// shared between a guest's cells) and not one run per guest under
    /// `paper_default`.
    pub sweep: bool,
    /// Which layers do the work, and why the workload is there.
    pub isolates: &'static str,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "exec_hot",
        guests: &["gzip", "bzip2", "parser", "mcf"],
        scale: Scale::Large,
        sweep: false,
        isolates: "code fits the L1 code cache and blocks chain, so host time is \
                   vta_raw::run_block plus the inline MemSys hit path; mcf adds the \
                   DRAM-bound miss path",
    },
    Spec {
        name: "code_churn",
        guests: &["crafty", "vpr"],
        scale: Scale::Large,
        sweep: false,
        isolates: "code far larger than L1: hundreds of thousands of L1 code misses served \
                   from L2 (crafty) and L1.5 (vpr), no chaining; the code-cache read path \
                   and the manager service ring do the work",
    },
    Spec {
        name: "cold_translate",
        guests: &["gcc", "vpr", "crafty", "vortex"],
        scale: Scale::Test,
        sweep: false,
        isolates: "runs too short to reuse code: decode, translate, optimise, codegen and \
                   the code-cache fill/commit path do the work",
    },
    Spec {
        name: "paper_sweep",
        guests: &NAMES,
        scale: Scale::Test,
        sweep: true,
        isolates: "the job users run (figures): 11 guests x 6 Figure 5 configurations on \
                   two host threads, translations shared through SharedTranslations, PIII \
                   model per guest, non-default configurations",
    },
];

impl Spec {
    /// Host threads the workload's end-to-end loop uses.
    pub fn threads(&self) -> usize {
        if self.sweep {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            SWEEP_THREADS.min(cores)
        } else {
            1
        }
    }
}

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

pub struct Guest {
    /// The name `vta_workloads::by_name` takes (`gzip`).
    pub short: &'static str,
    /// The name the suite reports (`164.gzip`).
    pub name: &'static str,
    pub image: GuestImage,
    pub reference: Reference,
}

pub struct Cell {
    /// Index into [`Plan::guests`].
    pub guest: usize,
    pub label: String,
    pub cfg: VirtualArchConfig,
    /// Cycles and fingerprint of the first run, which later runs must match.
    pub pinned: Pinned,
    /// The first run's report: counts come from here (they repeat exactly).
    pub first: Option<RunReport>,
}

/// A workload made concrete: images built, references run, cells laid out
/// guest-major in the order `sweep_threads` uses.
pub struct Plan {
    pub spec: &'static Spec,
    pub guests: Vec<Guest>,
    pub cells: Vec<Cell>,
}

impl Plan {
    pub fn build(spec: &'static Spec, rec: &mut Recorder) -> Result<Plan, String> {
        let configs = if spec.sweep {
            fig5_configs()
        } else {
            vec![(
                "paper_default".to_string(),
                VirtualArchConfig::paper_default(),
            )]
        };
        let mut guests = Vec::new();
        let mut cells = Vec::new();
        for (g, &short) in spec.guests.iter().enumerate() {
            let w = by_name(short, spec.scale).ok_or_else(|| format!("no guest named {short}"))?;
            let reference = Reference::of(w.name, &w.image, rec)?;
            guests.push(Guest {
                short,
                name: w.name,
                image: w.image,
                reference,
            });
            for (label, cfg) in &configs {
                cells.push(Cell {
                    guest: g,
                    label: label.clone(),
                    cfg: cfg.clone(),
                    pinned: None,
                    first: None,
                });
            }
        }
        Ok(Plan {
            spec,
            guests,
            cells,
        })
    }

    pub fn cell_name(&self, cell: usize) -> String {
        let c = &self.cells[cell];
        format!("{}/{}", self.guests[c.guest].name, c.label)
    }

    /// The cell of guest `bench` under configuration `label`.
    pub fn find_cell(&self, bench: &str, label: &str) -> Option<usize> {
        self.cells
            .iter()
            .position(|c| self.guests[c.guest].name == bench && c.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_workloads_with_contract_names() {
        assert_eq!(
            names(),
            ["exec_hot", "code_churn", "cold_translate", "paper_sweep"]
        );
        assert!(spec("exec_hot").is_some() && spec("nope").is_none());
        for w in &WORKLOADS {
            assert!(!w.guests.is_empty() && !w.isolates.is_empty());
            for g in w.guests {
                assert!(NAMES.contains(g), "{g} is in the suite");
            }
        }
    }

    #[test]
    fn a_plan_lays_cells_out_guest_major() {
        let plan =
            Plan::build(spec("cold_translate").unwrap(), &mut Recorder::off()).expect("builds");
        assert_eq!(plan.guests.len(), 4);
        assert_eq!(plan.cells.len(), 4);
        assert_eq!(plan.spec.threads(), 1);
        assert_eq!(plan.cell_name(1), "175.vpr/paper_default");
        assert_eq!(plan.find_cell("186.crafty", "paper_default"), Some(2));
        assert_eq!(plan.find_cell("186.crafty", "9-speculative"), None);
        assert!(plan
            .guests
            .iter()
            .all(|g| g.reference.insns > 0 && g.reference.piii_cycles > 0));
    }
}
