//! Host wall-clock span profiling: the simulator's *second* clock domain.
//!
//! The [`crate::Tracer`] records what the **simulated machine** did, in
//! simulated cycles; this module records what the **host** did to produce
//! those cycles, in wall-clock nanoseconds. The two domains never mix:
//! nothing recorded here may feed [`crate::Stats`], metrics windows, or
//! any fingerprinted output, because host wall time depends on the host
//! scheduler and would break the bit-identical determinism the whole
//! workspace is built on.
//!
//! One simulated machine runs on one host thread, so a [`Profiler`] is one
//! recorder the run loop owns: a span stack and a table of totals. It
//! keeps no timeline, so there is nothing to drop — every span that
//! closes is counted, exactly.
//!
//! 1. **Profiling never changes simulated behavior.** Instrumented code
//!    only reads the host clock; it never branches on what was read.
//! 2. **Disabled profiling costs (almost) nothing.** A disabled recorder
//!    is one branch per call.
//!
//! Spans nest: [`Profiler::enter`]/[`Profiler::exit`] maintain a stack,
//! and phase totals are **exclusive** (self) time — a parent's total
//! excludes the time its children accounted for, so the phase totals sum
//! to at most the wall time and read as a true breakdown.
//!
//! # Examples
//!
//! ```
//! use vta_sim::Profiler;
//!
//! let mut p = Profiler::new();
//! p.enter("translate");
//! p.enter("snapshot");
//! p.exit();
//! p.exit();
//! let report = p.report();
//! assert_eq!(report.threads.len(), 1);
//! assert_eq!(report.threads[0].name, "run");
//! assert_eq!(report.threads[0].phases.len(), 2);
//! ```

use std::time::Instant;

/// What `System::enable_profiling` takes. Nothing is configurable; the
/// type stays only because `benchmark/` passes `ProfConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfConfig {}

/// Exclusive (self) wall time spent in one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseTotal {
    /// Phase name as passed to [`Profiler::enter`].
    pub phase: &'static str,
    /// Exclusive nanoseconds: time inside this phase minus time inside
    /// nested child phases.
    pub nanos: u64,
    /// Number of times the phase was entered.
    pub count: u64,
}

/// Everything the run loop recorded.
#[derive(Debug, Clone, Default)]
pub struct ThreadProfile {
    /// Always `"run"`: the run loop is the only host thread of a run.
    pub name: String,
    /// Exclusive per-phase totals, largest first.
    pub phases: Vec<PhaseTotal>,
    /// Always 0: no timeline is kept, so no span is ever dropped. The
    /// field stays only until `benchmark/` stops reading it.
    pub dropped: u64,
}

/// A host wall-time profile, plus the wall time the profiler has been
/// alive (the denominator for "% of wall" columns).
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    /// Nanoseconds from profiler creation to [`Profiler::report`].
    pub wall_nanos: u64,
    /// The run loop's profile; empty for a disabled profiler.
    pub threads: Vec<ThreadProfile>,
}

#[derive(Debug)]
struct Frame {
    phase: &'static str,
    start: Instant,
    /// Inclusive nanoseconds already attributed to nested children.
    child_nanos: u64,
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    stack: Vec<Frame>,
    /// Linear-scan map: phase name -> (exclusive nanos, count). Phase
    /// vocabularies are tiny, so a scan beats hashing.
    totals: Vec<(&'static str, u64, u64)>,
}

/// The run loop's span recorder; see the [module docs](self).
///
/// Calls on a disabled recorder are one branch each.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Option<Box<Recorder>>,
}

impl Profiler {
    /// A recording profiler; its creation instant starts the wall clock.
    pub fn new() -> Self {
        Profiler {
            inner: Some(Box::new(Recorder {
                epoch: Instant::now(),
                stack: Vec::with_capacity(8),
                totals: Vec::new(),
            })),
        }
    }

    /// A profiler that records nothing.
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// Opens a span for `phase`, nested inside the current span if one
    /// is open. Must be balanced by [`Profiler::exit`].
    #[inline]
    pub fn enter(&mut self, phase: &'static str) {
        if let Some(r) = self.inner.as_deref_mut() {
            r.stack.push(Frame {
                phase,
                start: Instant::now(),
                child_nanos: 0,
            });
        }
    }

    /// Closes the innermost open span, attributing its exclusive time
    /// to its phase total and its inclusive time to the parent's child
    /// accounting. No-op if nothing is open.
    #[inline]
    pub fn exit(&mut self) {
        let Some(r) = self.inner.as_deref_mut() else {
            return;
        };
        let Some(frame) = r.stack.pop() else {
            return;
        };
        let inclusive = frame.start.elapsed().as_nanos() as u64;
        let exclusive = inclusive.saturating_sub(frame.child_nanos);
        if let Some(parent) = r.stack.last_mut() {
            parent.child_nanos += inclusive;
        }
        match r.totals.iter_mut().find(|(p, _, _)| *p == frame.phase) {
            Some((_, nanos, count)) => {
                *nanos += exclusive;
                *count += 1;
            }
            None => r.totals.push((frame.phase, exclusive, 1)),
        }
    }

    /// The totals of every span closed so far (a span still open — a run
    /// that returned an error mid-phase — is not counted).
    pub fn report(&self) -> ProfileReport {
        let Some(r) = self.inner.as_deref() else {
            return ProfileReport::default();
        };
        let mut phases: Vec<PhaseTotal> = r
            .totals
            .iter()
            .map(|&(phase, nanos, count)| PhaseTotal {
                phase,
                nanos,
                count,
            })
            .collect();
        phases.sort_by(|a, b| b.nanos.cmp(&a.nanos).then(a.phase.cmp(b.phase)));
        ProfileReport {
            wall_nanos: r.epoch.elapsed().as_nanos() as u64,
            threads: vec![ThreadProfile {
                name: "run".to_string(),
                phases,
                dropped: 0,
            }],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_are_exclusive_and_counted() {
        let mut p = Profiler::new();
        p.enter("outer");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.exit();
        p.exit();
        let r = p.report();
        assert_eq!(r.threads.len(), 1);
        let th = &r.threads[0];
        assert_eq!((th.name.as_str(), th.dropped), ("run", 0));
        let get = |name: &str| {
            th.phases
                .iter()
                .find(|p| p.phase == name)
                .expect("phase recorded")
                .clone()
        };
        let outer = get("outer");
        let inner = get("inner");
        assert_eq!((outer.count, inner.count), (1, 1));
        assert!(inner.nanos >= 1_000_000, "inner slept ~2ms");
        // Exclusive: outer's total must not include inner's sleep
        // twice — the sum of phases can't exceed the wall time.
        let busy: u64 = th.phases.iter().map(|p| p.nanos).sum();
        assert!(busy <= r.wall_nanos);
    }

    #[test]
    fn every_closed_span_is_counted() {
        let mut p = Profiler::new();
        for _ in 0..20_000 {
            p.enter("tick");
            p.exit();
        }
        let r = p.report();
        assert_eq!(r.threads[0].phases[0].count, 20_000);
        assert_eq!(r.threads[0].dropped, 0);
    }

    #[test]
    fn open_and_unbalanced_spans_are_harmless() {
        let mut p = Profiler::new();
        p.exit();
        p.enter("x");
        p.exit();
        p.exit();
        p.enter("left open");
        let phases = &p.report().threads[0].phases;
        assert_eq!(phases.len(), 1, "only the closed span is counted");
        assert_eq!(phases[0].phase, "x");
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        assert!(p.inner.is_none());
        p.enter("x");
        p.exit();
        let r = p.report();
        assert_eq!(r.wall_nanos, 0);
        assert!(r.threads.is_empty());
    }
}
