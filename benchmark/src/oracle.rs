//! The correctness oracle. Each guest is run once on the reference
//! interpreter (`vta_x86::Cpu`) and once on the PIII model before any
//! timing; every run of the simulated machine is then one *operation*
//! that fails if it did not reach `exit`, if exit code, instruction count
//! or output differ from the interpreter's, or if its simulated cycles or
//! `Stats` fingerprint differ from the first run of the same cell.

use vta_bench::RUN_BUDGET;
use vta_dbt::{RunReport, StopCause, SystemError};
use vta_pentium::PentiumModel;
use vta_x86::{Cpu, GuestImage, StopReason};

use crate::spans::Recorder;

/// What the reference interpreter and the PIII model say about a guest.
#[derive(Debug, Clone)]
pub struct Reference {
    pub exit_code: u32,
    pub insns: u64,
    pub output: Vec<u8>,
    pub piii_cycles: u64,
    /// Host seconds the interpreter took (feeds `x86.ref_interp_mips`).
    pub interp_seconds: f64,
    /// Host seconds the PIII model took (feeds `pentium.model_mips`).
    pub piii_seconds: f64,
}

impl Reference {
    /// Runs both reference machines on `image`.
    pub fn of(guest: &str, image: &GuestImage, rec: &mut Recorder) -> Result<Reference, String> {
        let mut cpu = Cpu::new(image);
        let (stop, interp, _) = rec.time("x86.Cpu::run", 0, |_| cpu.run(RUN_BUDGET));
        let exit_code = match stop {
            Ok(StopReason::Exit(code)) => code,
            other => {
                return Err(format!(
                    "{guest}: reference interpreter stopped with {other:?}"
                ))
            }
        };

        let (piii, piii_time, _) = rec.time("pentium.PentiumModel::run", 0, |_| {
            PentiumModel::new().run(image, RUN_BUDGET)
        });
        let piii = piii.map_err(|e| format!("{guest}: PIII model: {e}"))?;
        if piii.exit_code != Some(exit_code) || piii.insns != cpu.insn_count {
            return Err(format!(
                "{guest}: PIII model disagrees with the interpreter: exit {:?} after {} insns, \
                 expected {exit_code} after {}",
                piii.exit_code, piii.insns, cpu.insn_count
            ));
        }
        Ok(Reference {
            exit_code,
            insns: cpu.insn_count,
            output: cpu.sys.output,
            piii_cycles: piii.cycles,
            interp_seconds: interp.as_secs_f64(),
            piii_seconds: piii_time.as_secs_f64(),
        })
    }
}

/// Simulated cycles and `Stats` fingerprint of a cell's first run; every
/// later run of the cell must reproduce them bit for bit.
pub type Pinned = Option<(u64, u64)>;

/// Counts operations and keeps the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Tally {
    /// Checks one run of the simulated machine; returns whether it passed.
    pub fn check(
        &mut self,
        what: &str,
        reference: &Reference,
        pinned: &mut Pinned,
        run: &Result<RunReport, SystemError>,
    ) -> bool {
        let verdict = match run {
            Err(e) => Err(format!("run failed: {e}")),
            Ok(r) => verify(reference, pinned, r),
        };
        self.record(what, verdict)
    }

    /// Counts one operation whose verdict the caller worked out.
    pub fn record(&mut self, what: &str, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        match verdict {
            Ok(()) => true,
            Err(why) => {
                self.failed += 1;
                if self.messages.len() < 8 {
                    self.messages.push(format!("{what}: {why}"));
                }
                false
            }
        }
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }

    /// The process exit code: any failed operation makes it non-zero.
    pub fn exit_code(&self) -> i32 {
        i32::from(self.failed > 0)
    }
}

fn verify(reference: &Reference, pinned: &mut Pinned, r: &RunReport) -> Result<(), String> {
    if r.stop != StopCause::Exit {
        return Err(format!("stopped with {:?}, not Exit", r.stop));
    }
    if r.exit_code != Some(reference.exit_code) {
        return Err(format!(
            "exit code {:?}, the interpreter says {}",
            r.exit_code, reference.exit_code
        ));
    }
    if r.guest_insns != reference.insns {
        return Err(format!(
            "{} guest insns, the interpreter says {}",
            r.guest_insns, reference.insns
        ));
    }
    if r.output != reference.output {
        return Err(format!(
            "{} output bytes differ from the interpreter's {}",
            r.output.len(),
            reference.output.len()
        ));
    }
    let now = (r.cycles, r.stats.fingerprint());
    match *pinned {
        None => *pinned = Some(now),
        Some(first) if first != now => {
            return Err(format!(
                "cycles/fingerprint {now:?} differ from the first run's {first:?}"
            ));
        }
        Some(_) => {}
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_dbt::{System, VirtualArchConfig};
    use vta_workloads::{by_name, Scale};

    fn gzip() -> (GuestImage, Reference) {
        let w = by_name("gzip", Scale::Test).expect("gzip builds");
        let reference =
            Reference::of("gzip", &w.image, &mut Recorder::off()).expect("reference runs");
        (w.image, reference)
    }

    fn run(image: &GuestImage) -> Result<RunReport, SystemError> {
        System::new(VirtualArchConfig::paper_default(), image).run(RUN_BUDGET)
    }

    #[test]
    fn a_correct_run_passes_and_pins_its_cycles() {
        let (image, reference) = gzip();
        let mut tally = Tally::default();
        let mut pinned = None;
        assert!(tally.check("gzip", &reference, &mut pinned, &run(&image)));
        assert!(pinned.is_some());
        assert!(tally.check("gzip", &reference, &mut pinned, &run(&image)));
        assert_eq!(
            (tally.attempted, tally.failed, tally.exit_code()),
            (2, 0, 0)
        );
    }

    #[test]
    fn a_wrong_expectation_is_a_counted_failure_and_a_nonzero_exit() {
        let (image, mut reference) = gzip();
        reference.exit_code ^= 1;
        let mut tally = Tally::default();
        assert!(!tally.check("gzip", &reference, &mut None, &run(&image)));
        assert_eq!((tally.attempted, tally.failed), (1, 1));
        assert_ne!(tally.exit_code(), 0);
        assert!(
            tally.messages()[0].contains("exit code"),
            "{:?}",
            tally.messages()
        );
    }

    #[test]
    fn each_compared_field_is_checked() {
        let (image, reference) = gzip();
        let report = run(&image);

        let mut wrong = reference.clone();
        wrong.insns += 1;
        let mut tally = Tally::default();
        assert!(!tally.check("insns", &wrong, &mut None, &report));

        let mut wrong = reference.clone();
        wrong.output.push(b'!');
        assert!(!tally.check("output", &wrong, &mut None, &report));

        let r = report.as_ref().expect("runs");
        let mut drifted = Some((r.cycles + 1, r.stats.fingerprint()));
        assert!(!tally.check("cycles", &reference, &mut drifted, &report));
        let mut drifted = Some((r.cycles, r.stats.fingerprint() ^ 1));
        assert!(!tally.check("fingerprint", &reference, &mut drifted, &report));

        let mut budget = System::new(VirtualArchConfig::paper_default(), &image).run(1_000);
        assert!(!tally.check("budget", &reference, &mut None, &budget));
        budget = Err(SystemError::GuestFault {
            block: 0,
            fault: vta_raw::Fault::DivZero,
        });
        assert!(!tally.check("fault", &reference, &mut None, &budget));
        assert_eq!((tally.attempted, tally.failed), (6, 6));
    }
}
