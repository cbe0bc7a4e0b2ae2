//! Host-speed calibration: a fixed kernel the harness runs between reps.
//!
//! The shared reference host slows the simulator by 20-60% for seconds to
//! ten minutes at a time (neighbours on the same physical cores), and no
//! quantile of raw rep times escapes an episode longer than the window.
//! A small bytecode interpreter — unpredictable dispatch branches over
//! cache-resident tables, the simulator's own instruction mix — slows
//! with it. Over twenty minutes, half of them inside such episodes, the
//! mean of the fastest quarter of the rep times per 28 s window spread
//! 4.7% with a range of 22% (`gzip`) and 3.6% / 22% (`crafty`) raw, and
//! 2.0% / 8% and 1.7% / 8% once divided by the same statistic of this
//! kernel's times from the same window. Pointer chasing and a multiply
//! chain tracked far worse. Every end-to-end time is therefore reported
//! in *reference-host seconds*: raw seconds x [`Calibrator::host_speed`].
//!
//! The kernel uses nothing from the workspace crates (not even their
//! random numbers), so a change to the simulator cannot move it.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::estimate::Samples;

/// The kernel's quiet time (see [`Samples::quiet`]) on the undisturbed
/// reference host; it defines the reference-host second.
pub const NOMINAL_SECONDS: f64 = 0.0100;

/// Share of the measured time the harness spends on calibration.
const SHARE: f64 = 0.10;
/// No pass is followed by more samples than this, however long it was.
const MAX_SAMPLES: usize = 16;

const STEPS: usize = 1_000_000;
const PROGRAM_BYTES: usize = 4096;
/// 1 MiB: resident in the L2 cache, like the simulator's own tables.
const DATA_WORDS: usize = 1 << 18;

/// One thread's copy of the kernel: a fixed random program and its data.
struct Kernel {
    program: Vec<u8>,
    data: Vec<u32>,
}

impl Kernel {
    fn new() -> Kernel {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let program = (0..PROGRAM_BYTES)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect();
        Kernel {
            program,
            data: vec![0; DATA_WORDS],
        }
    }

    /// Interprets [`STEPS`] operations; returns the seconds it took.
    #[inline(never)]
    fn run(&mut self) -> f64 {
        let (program, data) = (&self.program[..], &mut self.data[..]);
        // Bring the tables back into the cache first: how much of them the
        // simulator evicted since the last sample is not the host's speed.
        black_box(data.iter().step_by(16).fold(0, |x, w| x ^ w));
        let started = Instant::now();
        let mut acc = [1u32, 2, 3, 4];
        let mut pc = 0usize;
        for _ in 0..STEPS {
            let op = program[pc];
            let a = usize::from(op >> 2) & 3;
            let b = usize::from(op >> 4) & 3;
            match op & 3 {
                0 => acc[a] = acc[a].wrapping_add(acc[b]).rotate_left(5),
                1 => acc[a] ^= data[acc[b] as usize % DATA_WORDS],
                2 => data[acc[a] as usize % DATA_WORDS] = acc[b].wrapping_mul(2_654_435_761),
                _ => {
                    if acc[a] & 1 == 0 {
                        pc = (pc + usize::from(op >> 4)) % PROGRAM_BYTES;
                    }
                }
            }
            pc = (pc + 1) % PROGRAM_BYTES;
        }
        black_box(acc);
        started.elapsed().as_secs_f64()
    }
}

/// Samples the host's speed on as many threads as the workload uses.
pub struct Calibrator {
    kernels: Vec<Kernel>,
    samples: Samples,
}

impl Calibrator {
    pub fn new(threads: usize) -> Calibrator {
        Calibrator {
            kernels: (0..threads.max(1)).map(|_| Kernel::new()).collect(),
            samples: Samples::default(),
        }
    }

    /// Runs the kernel once on every thread at the same time and keeps
    /// the mean of their times: a workload spread over two cores slows
    /// with the mean of the two.
    fn sample(&mut self) {
        let took: f64 = match &mut self.kernels[..] {
            [one] => one.run(),
            many => std::thread::scope(|s| {
                let handles: Vec<_> = many.iter_mut().map(|k| s.spawn(|| k.run())).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("the kernel does not panic"))
                    .sum()
            }),
        };
        self.samples.push(took / self.kernels.len() as f64);
    }

    /// Samples after a pass that kept the host busy for `busy`: about a
    /// tenth of that time again, and at least once.
    pub fn sample_after(&mut self, busy: Duration) {
        let wanted = (busy.as_secs_f64() * SHARE / NOMINAL_SECONDS).round() as usize;
        for _ in 0..wanted.clamp(1, MAX_SAMPLES) {
            self.sample();
        }
    }

    pub fn samples(&self) -> &Samples {
        &self.samples
    }

    /// How fast the host ran next to the reference host while the
    /// samples were taken: 1.0 at the reference speed, below it when
    /// slower. Raw seconds times this are reference-host seconds.
    pub fn host_speed(&self) -> f64 {
        NOMINAL_SECONDS / self.samples.quiet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic_work_of_measurable_length() {
        let (mut a, mut b) = (Kernel::new(), Kernel::new());
        let took = a.run();
        b.run();
        assert_eq!(a.data, b.data, "same program, same effect");
        assert!(a.data.iter().any(|&w| w != 0), "the program stores");
        assert!(took > 1e-4 && took < 1.0, "{took}");
    }

    #[test]
    fn host_speed_is_nominal_over_the_quiet_sample() {
        let mut c = Calibrator::new(1);
        for s in [0.020, 0.025, 0.020, 0.020, 0.040] {
            c.samples.push(s);
        }
        assert!((c.host_speed() - NOMINAL_SECONDS / 0.020).abs() < 1e-12);
    }

    #[test]
    fn a_longer_pass_is_followed_by_more_samples() {
        let mut c = Calibrator::new(1);
        c.sample_after(Duration::from_millis(1));
        assert_eq!(c.samples().len(), 1, "at least one");
        c.sample_after(Duration::from_millis(300));
        assert_eq!(
            c.samples().len(),
            1 + 3,
            "a tenth of 0.3 s is three kernels"
        );
        c.sample_after(Duration::from_secs(60));
        assert_eq!(c.samples().len(), 4 + MAX_SAMPLES);
    }

    #[test]
    fn two_threads_yield_one_sample_per_call() {
        let mut c = Calibrator::new(2);
        c.sample();
        c.sample();
        assert_eq!(c.samples().len(), 2);
        assert!(c.host_speed() > 0.0);
    }
}
