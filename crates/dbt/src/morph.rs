//! Dynamic virtual-architecture reconfiguration ("morphing", §2.3, §4.4).
//!
//! The morph manager introspects the translation work queues at a fixed
//! sampling interval and trades L2 data-cache tiles for translation tiles
//! when translation pressure is high, and back when the queues drain.
//! Reconfiguration has real costs (cache flush write-backs, role reload)
//! and hysteresis prevents thrashing, exactly as the paper prescribes.
//!
//! The implementation morphs between the paper's two poles:
//! 4 mem / 6 translators ↔ 1 mem / 9 translators.

use vta_sim::{Cycle, Tracer, TrackId};

use crate::config::MorphConfig;

/// Cycles between monitor samples (keeps monitoring cost negligible).
pub const CHECK_INTERVAL: u64 = 5_000;

/// Minimum cycles between reconfigurations (hysteresis).
pub const HYSTERESIS: u64 = 50_000;

/// Which way to reconfigure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MorphAction {
    /// Convert one L2 data bank tile into a translation slave.
    CacheToTranslator,
    /// Convert one translation slave back into an L2 data bank tile.
    TranslatorToCache,
}

/// The reconfiguration decision engine.
#[derive(Debug, Clone)]
pub struct MorphManager {
    cfg: MorphConfig,
    next_check: Cycle,
    last_reconfig: Cycle,
    /// Number of reconfigurations performed.
    pub reconfigs: u64,
    /// Bank-tile budget limits (min mem tiles, max translators added).
    min_banks: usize,
    max_banks: usize,
    /// First grid sample (since the last calm one) that saw the queue over
    /// threshold; measures how long pressure persisted before a switch.
    pressure_since: Option<Cycle>,
    /// First grid sample (since the last busy one) that saw the queue
    /// empty; the analogue for the switch back.
    calm_since: Option<Cycle>,
    /// Cycles between the triggering condition first being observed and
    /// the most recent reconfiguration ("morph lag": hysteresis holds plus
    /// sampling-grid latency).
    last_lag: u64,
}

impl MorphManager {
    /// Creates a manager morphing between `min_banks` and `max_banks`
    /// L2 data tiles.
    pub fn new(cfg: MorphConfig, min_banks: usize, max_banks: usize) -> MorphManager {
        MorphManager {
            cfg,
            next_check: Cycle(CHECK_INTERVAL),
            last_reconfig: Cycle::ZERO,
            reconfigs: 0,
            min_banks,
            max_banks,
            pressure_since: None,
            calm_since: None,
            last_lag: 0,
        }
    }

    /// Lag of the most recent decision: cycles between the first grid
    /// sample that observed the triggering condition (queue over threshold
    /// for a to-translator switch, queue empty for a to-cache switch) and
    /// the switch itself. Zero when the first observation triggered
    /// immediately, or before any decision was made.
    pub fn last_lag(&self) -> u64 {
        self.last_lag
    }

    /// Samples the queue length; returns a reconfiguration decision.
    /// Decisions are recorded as instants on `track` in `tracer`.
    ///
    /// Sampling only happens every [`CHECK_INTERVAL`] cycles, so the
    /// monitoring cost is negligible (§2.3); [`HYSTERESIS`] enforces a
    /// minimum gap between reconfigurations. Sample points sit on a fixed
    /// grid (multiples of [`CHECK_INTERVAL`]): the run loop only polls
    /// between blocks, so calls arrive late, and advancing from `now`
    /// instead of the grid would let caller cadence drift every later
    /// sample point.
    pub fn decide(
        &mut self,
        now: Cycle,
        queue_len: usize,
        cur_banks: usize,
        tracer: &mut Tracer,
        track: TrackId,
    ) -> Option<MorphAction> {
        if now < self.next_check {
            return None;
        }
        let missed = now.saturating_since(self.next_check) / CHECK_INTERVAL;
        self.next_check += CHECK_INTERVAL * (missed + 1);
        // Track when the triggering conditions were FIRST observed, before
        // the hysteresis gate: the lag being measured is precisely the
        // time a condition persists while hysteresis (or a bank budget)
        // holds the switch back.
        if queue_len > self.cfg.threshold {
            self.pressure_since.get_or_insert(now);
        } else {
            self.pressure_since = None;
        }
        if queue_len == 0 {
            self.calm_since.get_or_insert(now);
        } else {
            self.calm_since = None;
        }
        if now.saturating_since(self.last_reconfig) < HYSTERESIS {
            return None;
        }
        if queue_len > self.cfg.threshold && cur_banks > self.min_banks {
            self.last_reconfig = now;
            self.reconfigs += 1;
            self.last_lag = now.saturating_since(self.pressure_since.take().unwrap_or(now));
            tracer.instant(now, track, "morph.to_translator", queue_len as u64);
            return Some(MorphAction::CacheToTranslator);
        }
        if queue_len == 0 && cur_banks < self.max_banks {
            self.last_reconfig = now;
            self.reconfigs += 1;
            self.last_lag = now.saturating_since(self.calm_since.take().unwrap_or(now));
            tracer.instant(now, track, "morph.to_cache", cur_banks as u64);
            return Some(MorphAction::TranslatorToCache);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vta_sim::{TraceConfig, TraceEvent};

    /// Shorthands for the fixed sampling interval and hysteresis.
    const I: u64 = CHECK_INTERVAL;
    const H: u64 = HYSTERESIS;
    /// The first grid sample at which hysteresis lets a run's first
    /// reconfiguration through.
    const T0: u64 = H + I;

    fn mgr(threshold: usize) -> MorphManager {
        MorphManager::new(MorphConfig { threshold }, 1, 4)
    }

    /// `decide` with an inert tracer, to keep the timing tests readable.
    fn decide(m: &mut MorphManager, now: u64, q: usize, banks: usize) -> Option<MorphAction> {
        m.decide(
            Cycle(now),
            q,
            banks,
            &mut Tracer::disabled(),
            TrackId::default(),
        )
    }

    #[test]
    fn no_decision_between_samples() {
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, 10, 100, 4), None, "before first sample");
        assert_eq!(
            decide(&mut m, T0, 100, 4),
            Some(MorphAction::CacheToTranslator)
        );
    }

    #[test]
    fn no_reconfiguration_before_the_hysteresis_from_the_start() {
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, H - I, 100, 4), None, "one sample short");
        assert_eq!(
            decide(&mut m, H, 100, 4),
            Some(MorphAction::CacheToTranslator)
        );
    }

    #[test]
    fn hysteresis_blocks_rapid_flapping() {
        let mut m = mgr(5);
        assert!(decide(&mut m, T0, 100, 4).is_some());
        // Queue drains immediately, but hysteresis holds until exactly
        // `H` after the last switch.
        assert_eq!(decide(&mut m, T0 + I, 0, 3), None);
        assert_eq!(decide(&mut m, T0 + H - I, 0, 3), None);
        assert_eq!(
            decide(&mut m, T0 + H, 0, 3),
            Some(MorphAction::TranslatorToCache)
        );
    }

    #[test]
    fn respects_bank_budget() {
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, T0, 100, 1), None, "min banks reached");
        let mut m = mgr(5);
        assert_eq!(decide(&mut m, T0, 0, 4), None, "max banks reached");
    }

    /// On any sample stream, consecutive decisions are at least the
    /// hysteresis apart and never leave the bank budget.
    #[test]
    fn random_samples_respect_hysteresis_and_bank_budget() {
        let mut rng = vta_sim::Rng::seeded(0x3027);
        let mut both_ways = [false; 2];
        for _ in 0..256 {
            let mut m = mgr(5);
            let (mut now, mut banks) = (0u64, 4usize);
            let mut last_reconfig = None;
            for _ in 0..rng.range(1, 199) {
                now += rng.below(2 * I);
                let Some(action) = decide(&mut m, now, rng.below(40) as usize, banks) else {
                    continue;
                };
                if let Some(prev) = last_reconfig.replace(now) {
                    assert!(now - prev >= H, "hysteresis violated");
                }
                match action {
                    MorphAction::CacheToTranslator => banks -= 1,
                    MorphAction::TranslatorToCache => banks += 1,
                }
                assert!((1..=4).contains(&banks), "bank budget violated");
                both_ways[usize::from(action == MorphAction::TranslatorToCache)] = true;
            }
        }
        assert_eq!(both_ways, [true; 2], "the streams morph in both directions");
    }

    #[test]
    fn threshold_zero_morphs_on_any_queue() {
        let mut m = mgr(0);
        assert_eq!(
            decide(&mut m, T0, 1, 4),
            Some(MorphAction::CacheToTranslator)
        );
    }

    #[test]
    fn counts_reconfigs() {
        let mut m = mgr(0);
        decide(&mut m, T0, 1, 4);
        decide(&mut m, T0 + 2 * H, 0, 3);
        assert_eq!(m.reconfigs, 2);
    }

    /// Regression test for sampling-grid drift: `next_check` used to be
    /// set to `now + CHECK_INTERVAL`, so a call that arrived late (the run
    /// loop only polls between blocks) pushed every subsequent sample
    /// point later by the lateness.
    #[test]
    fn late_sample_does_not_shift_the_grid() {
        let mut m = mgr(5);
        // The sample due at T0 is taken late, at T0 + I/2. Queue is calm
        // so nothing reconfigures (and hysteresis state is untouched).
        assert_eq!(decide(&mut m, T0 + I / 2, 0, 4), None);
        // The next sample point is still T0 + I on the fixed grid. The old
        // code had moved it to T0 + 3I/2 and returned None here.
        assert_eq!(
            decide(&mut m, T0 + I, 100, 4),
            Some(MorphAction::CacheToTranslator),
            "sample due at T0 + I must fire despite the previous late call"
        );
    }

    #[test]
    fn skips_entirely_missed_sample_points() {
        let mut m = mgr(5);
        // First poll ever arrives at 2H + 300: the grid points up to 2H
        // are all in the past; one sample fires, and the next is 2H + I.
        assert!(decide(&mut m, 2 * H + 300, 100, 4).is_some());
        assert_eq!(
            decide(&mut m, 2 * H + I - 100, 100, 3),
            None,
            "before 2H + I"
        );
        // Sample at 2H + I happens (hysteresis silently holds the action).
        assert_eq!(decide(&mut m, 2 * H + I, 100, 3), None);
    }

    #[test]
    fn lag_measures_hysteresis_hold() {
        let mut m = mgr(5);
        assert!(decide(&mut m, T0, 100, 4).is_some());
        assert_eq!(m.last_lag(), 0, "first observation triggered immediately");
        // Pressure returns at T0 + I but hysteresis (H from T0) holds
        // until the T0 + H grid sample.
        assert_eq!(decide(&mut m, T0 + I, 100, 3), None);
        assert_eq!(decide(&mut m, T0 + 2 * I, 100, 3), None);
        assert!(decide(&mut m, T0 + H, 100, 3).is_some());
        assert_eq!(m.last_lag(), H - I, "pressure first seen at T0 + I");
    }

    #[test]
    fn lag_resets_when_pressure_clears() {
        let mut m = mgr(5);
        assert!(decide(&mut m, T0, 100, 4).is_some());
        assert_eq!(decide(&mut m, T0 + I, 100, 3), None, "hysteresis holds");
        assert_eq!(decide(&mut m, T0 + 2 * I, 2, 3), None, "pressure cleared");
        assert_eq!(decide(&mut m, T0 + H - I, 100, 3), None, "re-crossed");
        assert!(decide(&mut m, T0 + H, 100, 3).is_some());
        assert_eq!(m.last_lag(), I, "measured from the re-crossing");
    }

    #[test]
    fn lag_for_the_switch_back_uses_calm_time() {
        let mut m = mgr(5);
        assert!(decide(&mut m, T0, 100, 4).is_some());
        assert_eq!(decide(&mut m, T0 + I, 0, 3), None, "calm but hysteresis");
        assert!(decide(&mut m, T0 + H, 0, 3).is_some());
        assert_eq!(m.last_lag(), H - I, "queue first seen empty at T0 + I");
    }

    #[test]
    fn decisions_emit_trace_instants() {
        let mut m = mgr(0);
        let mut tr = Tracer::new(TraceConfig::default());
        let track = tr.track("morph");
        m.decide(Cycle(T0), 3, 4, &mut tr, track);
        m.decide(Cycle(T0 + 2 * H), 0, 3, &mut tr, track);
        let evs: Vec<_> = tr.events().collect();
        assert_eq!(evs.len(), 2);
        match *evs[0] {
            TraceEvent::Instant { ts, name, arg, .. } => {
                assert_eq!((ts, name, arg), (T0, "morph.to_translator", 3));
            }
            ref other => panic!("expected Instant, got {other:?}"),
        }
        match *evs[1] {
            TraceEvent::Instant { name, .. } => assert_eq!(name, "morph.to_cache"),
            ref other => panic!("expected Instant, got {other:?}"),
        }
    }
}
