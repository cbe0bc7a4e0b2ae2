//! Windowed metrics: deterministic, cycle-triggered sampling of counters
//! and gauges into a ring-buffered time series.
//!
//! [`Stats`] only reports end-of-run totals; the dynamics the paper cares
//! about — translation-queue pressure driving the morph manager, code-cache
//! warm-up, the manager tile saturating — are *phase* behaviors. The
//! [`Metrics`] recorder closes one [`Window`] every `interval` simulated
//! cycles, storing the **delta** of every interned [`Ctr`] counter over the
//! window plus a point-in-time sample of each registered gauge (queue
//! depths, role occupancy).
//!
//! The design constraints mirror [`crate::trace`]:
//!
//! 1. **Sampling never changes simulated time.** The simulator decides when
//!    a window boundary has passed ([`Metrics::due`]) using only the
//!    simulated clock, and hands in snapshots it already computed. Nothing
//!    a simulator could branch on is returned, so a run with metrics on is
//!    bit-identical to a run with metrics off.
//! 2. **Disabled metrics cost (almost) nothing.** A disabled recorder is
//!    one branch per call.
//! 3. **The series is self-checking.** Every counter only grows, so every
//!    delta is non-negative, and deltas telescope: the sum of all retained
//!    deltas plus [`Metrics::dropped_totals`] equals the final counter
//!    snapshot exactly (`Metrics::reconcile`).
//!
//! Sampling is **cycle-triggered on a fixed grid**: boundaries are at
//! `interval`, `2*interval`, … of simulated time, independent of when the
//! simulator happens to check. A check that arrives late closes one window
//! spanning every missed boundary (the same anti-drift arithmetic as the
//! morph manager), so the series is a pure function of (guest image,
//! config, interval).
//!
//! # Examples
//!
//! ```
//! use vta_sim::{Ctr, Cycle, Metrics, MetricsConfig};
//!
//! let mut m = Metrics::new(MetricsConfig {
//!     interval: 100,
//!     ..MetricsConfig::default()
//! });
//! let depth = m.gauge("specq.depth");
//! let mut snap = [0u64; Ctr::COUNT];
//! snap[Ctr::Cycles as usize] = 130;
//! snap[Ctr::GuestInsns as usize] = 65;
//! m.sample(Cycle(130), &snap, &[7]);
//! assert!(m.due(Cycle(230)));
//! let w = m.windows().next().expect("one window closed");
//! assert_eq!((w.start, w.end), (0, 100));
//! assert_eq!(w.delta(Ctr::GuestInsns), 65);
//! assert_eq!(w.gauge(depth), Some(7));
//! ```

use crate::{Ctr, Cycle, Stats};
use std::collections::BTreeMap;
use std::collections::VecDeque;

/// Configuration for a [`Metrics`] recorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Window length in simulated cycles; boundaries sit on the fixed grid
    /// `interval, 2*interval, …`. Clamped to at least 1.
    pub interval: u64,
    /// Ring capacity in windows. When full the *oldest* window is folded
    /// into [`Metrics::dropped_totals`] so reconciliation stays exact.
    pub max_windows: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            interval: 10_000,
            max_windows: 1 << 12,
        }
    }
}

/// Opaque handle for one registered gauge (a point-sampled value column in
/// the series, e.g. a queue depth or the live translator-tile count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GaugeId(pub u16);

/// One closed sampling window: counter deltas over `[start, end)` plus the
/// gauge values observed when the window closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Window {
    /// Grid cycle the window opened at.
    pub start: u64,
    /// Grid cycle the window closed at (the final window of a run may
    /// close off-grid, at the cycle the run ended).
    pub end: u64,
    /// Per-counter deltas over the window, indexed by `Ctr as usize`.
    pub ctrs: [u64; Ctr::COUNT],
    /// Gauge samples at window close, indexed by [`GaugeId`]. Gauges
    /// registered after this window closed are absent.
    pub gauges: Vec<u64>,
}

impl Window {
    /// The delta of counter `c` over this window.
    #[inline]
    pub fn delta(&self, c: Ctr) -> u64 {
        self.ctrs[c as usize]
    }

    /// The gauge sample for `g`, if `g` was registered when this window
    /// closed.
    #[inline]
    pub fn gauge(&self, g: GaugeId) -> Option<u64> {
        self.gauges.get(g.0 as usize).copied()
    }

    /// Cycles per guest instruction over this window, if any instructions
    /// retired.
    pub fn cpi(&self) -> Option<f64> {
        let insns = self.delta(Ctr::GuestInsns);
        (insns != 0).then(|| self.delta(Ctr::Cycles) as f64 / insns as f64)
    }

    /// `miss / (hit + miss)` over this window, if there were any accesses.
    pub fn miss_rate(&self, miss: Ctr, hit: Ctr) -> Option<f64> {
        let m = self.delta(miss);
        let total = m + self.delta(hit);
        (total != 0).then(|| m as f64 / total as f64)
    }
}

/// A point-in-time annotation in the series (e.g. a morph role switch),
/// recorded at its exact simulated cycle rather than at window resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricEvent {
    /// Cycle the event happened at.
    pub ts: u64,
    /// Event name.
    pub name: &'static str,
    /// Free-form numeric argument (e.g. morph lag in cycles).
    pub value: u64,
}

#[derive(Debug)]
struct MBuf {
    interval: u64,
    capacity: usize,
    windows: VecDeque<Window>,
    /// Windows evicted from the ring.
    dropped: u64,
    /// Counter deltas of evicted windows, accumulated so the
    /// telescoping invariant survives drops.
    dropped_ctrs: [u64; Ctr::COUNT],
    /// Counter snapshot at the last window close (the delta baseline).
    last: [u64; Ctr::COUNT],
    /// Grid cycle the currently open window started at.
    open_start: u64,
    /// First grid boundary not yet closed.
    next_due: u64,
    gauges: Vec<String>,
    by_name: BTreeMap<String, GaugeId>,
    events: Vec<MetricEvent>,
    events_dropped: u64,
    finished: bool,
}

impl MBuf {
    fn new(cfg: MetricsConfig) -> Self {
        let interval = cfg.interval.max(1);
        MBuf {
            interval,
            capacity: cfg.max_windows.max(1),
            windows: VecDeque::new(),
            dropped: 0,
            dropped_ctrs: [0; Ctr::COUNT],
            last: [0; Ctr::COUNT],
            open_start: 0,
            next_due: interval,
            gauges: Vec::new(),
            by_name: BTreeMap::new(),
            events: Vec::new(),
            events_dropped: 0,
            finished: false,
        }
    }

    fn close(&mut self, end: u64, ctrs: &[u64; Ctr::COUNT], gauges: &[u64]) {
        debug_assert_eq!(
            gauges.len(),
            self.gauges.len(),
            "gauge sample vector must match registration order"
        );
        let mut deltas = [0u64; Ctr::COUNT];
        for (d, (cur, last)) in deltas.iter_mut().zip(ctrs.iter().zip(self.last.iter())) {
            *d = cur - last;
        }
        let w = Window {
            start: self.open_start,
            end,
            ctrs: deltas,
            gauges: gauges.to_vec(),
        };
        if self.windows.len() >= self.capacity {
            if let Some(old) = self.windows.pop_front() {
                for (acc, d) in self.dropped_ctrs.iter_mut().zip(old.ctrs.iter()) {
                    *acc += d;
                }
                self.dropped += 1;
            }
        }
        self.windows.push_back(w);
        self.last = *ctrs;
        self.open_start = end;
    }
}

/// Records windowed counter/gauge time series; see the
/// [module docs](self) for the design constraints.
///
/// Obtain one with [`Metrics::new`] (recording) or [`Metrics::disabled`]
/// (every call is a cheap no-op).
#[derive(Debug, Default)]
pub struct Metrics {
    buf: Option<Box<MBuf>>,
}

impl Metrics {
    /// A recording metrics layer sampling every `cfg.interval` cycles.
    pub fn new(cfg: MetricsConfig) -> Self {
        Metrics {
            buf: Some(Box::new(MBuf::new(cfg))),
        }
    }

    /// A recorder that records nothing; every call is one branch.
    pub fn disabled() -> Self {
        Metrics::default()
    }

    /// True when windows are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// The sampling interval in cycles (0 when disabled).
    pub fn interval(&self) -> u64 {
        self.buf.as_deref().map_or(0, |b| b.interval)
    }

    /// Registers (or looks up) the gauge named `name` and returns its id.
    ///
    /// Names are deduplicated like tracer tracks. Register every gauge
    /// before the first [`Metrics::sample`]: windows only carry the gauges
    /// known when they close. On a disabled recorder this returns
    /// `GaugeId::default()`.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(b) = self.buf.as_deref_mut() {
            if let Some(&id) = b.by_name.get(name) {
                return id;
            }
            let id = GaugeId(b.gauges.len() as u16);
            b.gauges.push(name.to_string());
            b.by_name.insert(name.to_string(), id);
            return id;
        }
        GaugeId::default()
    }

    /// All registered gauges as `(id, name)`, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (GaugeId, &str)> {
        self.buf.as_deref().into_iter().flat_map(|b| {
            b.gauges
                .iter()
                .enumerate()
                .map(|(i, n)| (GaugeId(i as u16), n.as_str()))
        })
    }

    /// Number of registered gauges.
    pub fn gauge_count(&self) -> usize {
        self.buf.as_deref().map_or(0, |b| b.gauges.len())
    }

    /// True when at least one grid boundary at or before `now` has not been
    /// closed yet — i.e. the caller should take a snapshot and
    /// [`Metrics::sample`]. Always false when disabled or finished, so the
    /// simulator's hot path pays one branch.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        self.buf
            .as_deref()
            .is_some_and(|b| !b.finished && now.0 >= b.next_due)
    }

    /// Closes the window whose grid boundary passed at or before `now`.
    ///
    /// `ctrs` is the caller's full counter snapshot (cumulative values
    /// since run start); `gauges` holds one sample per registered gauge in
    /// registration order. If the caller skipped several boundaries (a
    /// long block, a demand-translation stall), one window spanning all of
    /// them is closed — same anti-drift grid arithmetic as the morph
    /// manager. No-op unless [`Metrics::due`].
    pub fn sample(&mut self, now: Cycle, ctrs: &[u64; Ctr::COUNT], gauges: &[u64]) {
        if let Some(b) = self.buf.as_deref_mut() {
            if b.finished || now.0 < b.next_due {
                return;
            }
            let missed = (now.0 - b.next_due) / b.interval;
            let end = b.next_due + missed * b.interval;
            b.next_due = end + b.interval;
            b.close(end, ctrs, gauges);
        }
    }

    /// Closes the final (usually partial, off-grid) window at end of run
    /// and seals the series; later `sample`/`event` calls are ignored.
    /// The windowed sums now telescope to `ctrs` exactly
    /// (`Metrics::reconcile`).
    pub fn finish(&mut self, now: Cycle, ctrs: &[u64; Ctr::COUNT], gauges: &[u64]) {
        if let Some(b) = self.buf.as_deref_mut() {
            if b.finished {
                return;
            }
            if now.0 > b.open_start || ctrs != &b.last {
                b.close(now.0.max(b.open_start), ctrs, gauges);
            }
            b.finished = true;
        }
    }

    /// Records a point-in-time annotation at its exact cycle (bounded by
    /// the window capacity; overflow is counted in
    /// [`Metrics::events_dropped`]).
    #[inline]
    pub fn event(&mut self, ts: Cycle, name: &'static str, value: u64) {
        if let Some(b) = self.buf.as_deref_mut() {
            if b.finished {
                return;
            }
            if b.events.len() < b.capacity {
                b.events.push(MetricEvent {
                    ts: ts.0,
                    name,
                    value,
                });
            } else {
                b.events_dropped += 1;
            }
        }
    }

    /// The retained windows, oldest first.
    pub fn windows(&self) -> impl Iterator<Item = &Window> {
        self.buf
            .as_deref()
            .into_iter()
            .flat_map(|b| b.windows.iter())
    }

    /// Number of retained windows.
    pub fn len(&self) -> usize {
        self.buf.as_deref().map_or(0, |b| b.windows.len())
    }

    /// True when no windows have been closed (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Windows evicted from the ring since creation.
    pub fn dropped(&self) -> u64 {
        self.buf.as_deref().map_or(0, |b| b.dropped)
    }

    /// Accumulated counter deltas of evicted windows (all zero when
    /// nothing was dropped), so `dropped_totals + Σ retained = final`.
    pub fn dropped_totals(&self) -> [u64; Ctr::COUNT] {
        self.buf
            .as_deref()
            .map_or([0; Ctr::COUNT], |b| b.dropped_ctrs)
    }

    /// Recorded annotations, in emission (cycle) order.
    pub fn events(&self) -> impl Iterator<Item = &MetricEvent> {
        self.buf
            .as_deref()
            .into_iter()
            .flat_map(|b| b.events.iter())
    }

    /// Annotations lost to the event cap.
    pub fn events_dropped(&self) -> u64 {
        self.buf.as_deref().map_or(0, |b| b.events_dropped)
    }

    /// The series' own view of counter `c`'s run total: dropped deltas
    /// plus every retained window's delta.
    pub(crate) fn total(&self, c: Ctr) -> u64 {
        self.buf.as_deref().map_or(0, |b| {
            let i = c as usize;
            b.windows
                .iter()
                .fold(b.dropped_ctrs[i], |acc, w| acc + w.ctrs[i])
        })
    }

    /// The self-check invariant: every counter's windowed sum (plus the
    /// dropped-window base) must equal the caller's end-of-run total.
    /// Vacuously `Ok` when disabled. Call after [`Metrics::finish`].
    pub(crate) fn reconcile(&self, totals: &[u64; Ctr::COUNT]) -> Result<(), String> {
        if self.buf.is_none() {
            return Ok(());
        }
        for &c in Ctr::ALL.iter() {
            let got = self.total(c);
            let want = totals[c as usize];
            if got != want {
                return Err(format!(
                    "windowed sum of `{}` is {} but the run total is {}",
                    c.name(),
                    got,
                    want
                ));
            }
        }
        Ok(())
    }

    /// `Metrics::reconcile` against an end-of-run [`Stats`]: every
    /// interned counter's windowed sum must match the stats total.
    pub fn reconcile_stats(&self, stats: &Stats) -> Result<(), String> {
        let mut totals = [0u64; Ctr::COUNT];
        for &c in Ctr::ALL.iter() {
            totals[c as usize] = stats.get_ctr(c);
        }
        self.reconcile(&totals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(cycles: u64, insns: u64) -> [u64; Ctr::COUNT] {
        let mut s = [0u64; Ctr::COUNT];
        s[Ctr::Cycles as usize] = cycles;
        s[Ctr::GuestInsns as usize] = insns;
        s
    }

    #[test]
    fn windows_close_on_the_fixed_grid() {
        let mut m = Metrics::new(MetricsConfig {
            interval: 100,
            max_windows: 16,
        });
        assert!(!m.due(Cycle(99)));
        assert!(m.due(Cycle(100)));
        m.sample(Cycle(130), &snap(130, 60), &[]);
        // A late check spanning several boundaries closes ONE window.
        m.sample(Cycle(450), &snap(450, 200), &[]);
        m.finish(Cycle(470), &snap(470, 210), &[]);
        let w: Vec<_> = m.windows().collect();
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].start, w[0].end), (0, 100));
        assert_eq!((w[1].start, w[1].end), (100, 400));
        assert_eq!((w[2].start, w[2].end), (400, 470));
        assert_eq!(w[0].delta(Ctr::Cycles), 130, "delta is to the sample point");
        assert_eq!(w[1].delta(Ctr::Cycles), 320);
        assert_eq!(w[2].delta(Ctr::Cycles), 20);
        assert_eq!(m.total(Ctr::Cycles), 470);
        assert_eq!(m.total(Ctr::GuestInsns), 210);
        assert!(m.reconcile(&snap(470, 210)).is_ok());
        assert!(m.reconcile(&snap(470, 211)).is_err());
    }

    #[test]
    fn ring_drop_folds_into_dropped_totals() {
        let mut m = Metrics::new(MetricsConfig {
            interval: 10,
            max_windows: 3,
        });
        for i in 1..=8u64 {
            m.sample(Cycle(i * 10), &snap(i * 10, i * 5), &[]);
        }
        m.finish(Cycle(80), &snap(80, 40), &[]);
        assert_eq!(m.len(), 3);
        assert_eq!(m.dropped(), 5);
        assert_eq!(m.dropped_totals()[Ctr::Cycles as usize], 50);
        assert!(m.reconcile(&snap(80, 40)).is_ok(), "exact despite drops");
    }

    #[test]
    fn gauges_register_in_order_and_sample_by_id() {
        let mut m = Metrics::new(MetricsConfig {
            interval: 10,
            max_windows: 4,
        });
        let a = m.gauge("specq.depth");
        let b = m.gauge("pool.translators");
        assert_eq!(m.gauge("specq.depth"), a, "dedup by name");
        assert_eq!(m.gauge_count(), 2);
        m.sample(Cycle(10), &snap(10, 1), &[3, 2]);
        let w = m.windows().next().unwrap();
        assert_eq!(w.gauge(a), Some(3));
        assert_eq!(w.gauge(b), Some(2));
        assert_eq!(w.gauge(GaugeId(9)), None);
        let names: Vec<_> = m.gauges().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, ["specq.depth", "pool.translators"]);
    }

    #[test]
    fn finish_seals_the_series() {
        let mut m = Metrics::new(MetricsConfig {
            interval: 10,
            max_windows: 4,
        });
        m.event(Cycle(5), "morph.to_translator", 40);
        m.finish(Cycle(12), &snap(12, 6), &[]);
        let n = m.len();
        m.sample(Cycle(30), &snap(30, 15), &[]);
        m.event(Cycle(31), "late", 1);
        m.finish(Cycle(32), &snap(32, 16), &[]);
        assert_eq!(m.len(), n, "sealed: no new windows");
        assert_eq!(m.events().count(), 1, "sealed: no new events");
        assert!(!m.due(Cycle(1000)));
    }

    #[test]
    fn zero_length_finish_emits_no_empty_window() {
        let mut m = Metrics::new(MetricsConfig {
            interval: 10,
            max_windows: 4,
        });
        m.sample(Cycle(10), &snap(10, 5), &[]);
        m.finish(Cycle(10), &snap(10, 5), &[]);
        assert_eq!(m.len(), 1, "nothing happened after the last boundary");
        assert!(m.reconcile(&snap(10, 5)).is_ok());
    }

    #[test]
    fn window_derived_rates() {
        let mut w = Window {
            start: 0,
            end: 100,
            ctrs: [0; Ctr::COUNT],
            gauges: Vec::new(),
        };
        assert_eq!(w.cpi(), None);
        assert_eq!(w.miss_rate(Ctr::L1CodeMiss, Ctr::L1CodeHit), None);
        w.ctrs[Ctr::Cycles as usize] = 300;
        w.ctrs[Ctr::GuestInsns as usize] = 100;
        w.ctrs[Ctr::L1CodeMiss as usize] = 1;
        w.ctrs[Ctr::L1CodeHit as usize] = 3;
        assert_eq!(w.cpi(), Some(3.0));
        assert_eq!(w.miss_rate(Ctr::L1CodeMiss, Ctr::L1CodeHit), Some(0.25));
    }

    #[test]
    fn events_are_capped() {
        let mut m = Metrics::new(MetricsConfig {
            interval: 10,
            max_windows: 2,
        });
        for i in 0..5u64 {
            m.event(Cycle(i), "x", i);
        }
        assert_eq!(m.events().count(), 2);
        assert_eq!(m.events_dropped(), 3);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut m = Metrics::disabled();
        assert!(!m.is_enabled());
        let g = m.gauge("x");
        assert!(!m.due(Cycle(1_000_000)));
        m.sample(Cycle(100), &snap(100, 50), &[0]);
        m.event(Cycle(1), "e", 2);
        m.finish(Cycle(200), &snap(200, 100), &[0]);
        assert!(m.is_empty());
        assert_eq!(m.gauge_count(), 0);
        assert_eq!(g, GaugeId::default());
        assert_eq!(m.interval(), 0);
        assert!(
            m.reconcile(&snap(200, 100)).is_ok(),
            "vacuous when disabled"
        );
    }
}
