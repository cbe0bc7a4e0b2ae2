//! Cycle-accurate tracing: typed events in a preallocated ring buffer.
//!
//! The [`Tracer`] records *observations* of a running simulation — spans of
//! busy time on a track (one track per tile or shared resource), instant
//! markers, counter samples, and per-message network events. It is designed
//! around two hard requirements:
//!
//! 1. **Recording never changes simulated time.** The tracer is write-only
//!    from the simulator's point of view: every emit method takes the
//!    timestamps the caller already computed and stores them. No emit method
//!    returns anything a simulator could branch on.
//! 2. **Disabled tracing costs (almost) nothing.** A disabled tracer
//!    ([`Tracer::disabled`]) is one branch per emit.
//!
//! Event storage is a fixed-capacity ring: when full, the *oldest* events
//! are overwritten (and counted in [`Tracer::dropped`]) so the tail of a
//! long run is always available. Aggregates that feed utilization reports —
//! per-track busy cycles, per-link traffic, counter [`Histogram`]s — are
//! accumulated outside the ring and are exact regardless of drops.
//!
//! # Examples
//!
//! ```
//! use vta_sim::{Cycle, TraceConfig, Tracer};
//!
//! let mut t = Tracer::new(TraceConfig::default());
//! let track = t.track("tile(1,1) exec");
//! t.span(Cycle(10), 5, track, "block");
//! t.counter(Cycle(15), track, 3);
//! assert_eq!(t.busy_cycles(track), 5);
//! assert_eq!(t.events().count(), 2);
//!
//! // A disabled tracer accepts the same calls and records nothing.
//! let mut off = Tracer::disabled();
//! let tr = off.track("tile(1,1) exec");
//! off.span(Cycle(10), 5, tr, "block");
//! assert_eq!(off.events().count(), 0);
//! ```

use crate::{Cycle, Histogram};
use std::collections::BTreeMap;

/// Configuration for a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Ring capacity in events. When the ring is full the oldest events are
    /// overwritten; [`Tracer::dropped`] counts how many were lost.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig { capacity: 1 << 16 }
    }
}

/// Opaque handle for one registered track (a timeline row in the export:
/// one per tile, plus synthetic rows for counters and the network).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TrackId(pub u16);

/// Grid coordinate of a tile in a network event.
///
/// `vta-sim` sits below the crate that defines tile ids, so network
/// endpoints are recorded as bare (x, y) pairs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Coord {
    /// Column on the grid.
    pub x: u8,
    /// Row on the grid.
    pub y: u8,
}

impl std::fmt::Display for Coord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{})", self.x, self.y)
    }
}

/// Aggregate traffic over one directed network link (source, destination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Messages sent over the link.
    pub msgs: u64,
    /// Total payload words carried.
    pub words: u64,
}

/// One recorded trace event. Timestamps and durations are in simulated
/// cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A complete span: `track` was busy with `name` for `dur` cycles
    /// starting at `ts`.
    Span {
        /// Start cycle.
        ts: u64,
        /// Duration in cycles.
        dur: u64,
        /// Track the work ran on.
        track: TrackId,
        /// What the track was doing.
        name: &'static str,
    },
    /// A point-in-time marker with one numeric argument.
    Instant {
        /// Cycle the event happened at.
        ts: u64,
        /// Track to attach the marker to.
        track: TrackId,
        /// Marker name.
        name: &'static str,
        /// Free-form numeric argument (e.g. a queue length or word count).
        arg: u64,
    },
    /// A sampled counter value (e.g. speculation queue depth).
    Counter {
        /// Cycle the sample was taken at.
        ts: u64,
        /// Counter track the sample belongs to.
        track: TrackId,
        /// Sampled value.
        value: u64,
    },
    /// One network message: injected at `ts`, delivered `dur` cycles later.
    NetMsg {
        /// Injection cycle at the source tile.
        ts: u64,
        /// End-to-end latency in cycles (including queueing).
        dur: u64,
        /// Source tile.
        src: Coord,
        /// Destination tile.
        dst: Coord,
        /// Payload words.
        words: u32,
        /// Manhattan hop count.
        hops: u8,
    },
}

#[derive(Debug, Default)]
struct TrackMeta {
    name: String,
    /// Total cycles covered by spans on this track (exact even when the
    /// ring has dropped events).
    busy: u64,
    /// Distribution of `Counter` samples on this track, if any were taken.
    hist: Option<Histogram>,
}

#[derive(Debug)]
struct Buf {
    ring: Vec<TraceEvent>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
    tracks: Vec<TrackMeta>,
    by_name: BTreeMap<String, TrackId>,
    links: BTreeMap<(Coord, Coord), LinkStats>,
}

impl Buf {
    fn new(cfg: TraceConfig) -> Self {
        Buf {
            ring: Vec::with_capacity(cfg.capacity.max(1)),
            capacity: cfg.capacity.max(1),
            head: 0,
            dropped: 0,
            tracks: Vec::new(),
            by_name: BTreeMap::new(),
            links: BTreeMap::new(),
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.ring.len() < self.capacity {
            self.ring.push(ev);
        } else {
            self.ring[self.head] = ev;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let (wrapped, start) = self.ring.split_at(self.head);
        start.iter().chain(wrapped.iter())
    }
}

/// Records simulation trace events; see the [module docs](self) for the
/// design constraints.
///
/// Obtain one with [`Tracer::new`] (recording) or [`Tracer::disabled`]
/// (every call is a cheap no-op).
#[derive(Debug, Default)]
pub struct Tracer {
    buf: Option<Box<Buf>>,
}

impl Tracer {
    /// A recording tracer with a preallocated ring of `cfg.capacity` events.
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            buf: Some(Box::new(Buf::new(cfg))),
        }
    }

    /// A tracer that records nothing; every emit is one branch.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// True when events are actually being recorded.
    pub fn is_enabled(&self) -> bool {
        self.buf.is_some()
    }

    /// Registers (or looks up) the track named `name` and returns its id.
    ///
    /// Track names are deduplicated: registering the same name twice
    /// returns the same [`TrackId`], so idempotent setup code is safe.
    /// On a disabled tracer this returns `TrackId::default()`.
    pub fn track(&mut self, name: &str) -> TrackId {
        if let Some(b) = self.buf.as_deref_mut() {
            if let Some(&id) = b.by_name.get(name) {
                return id;
            }
            let id = TrackId(b.tracks.len() as u16);
            b.tracks.push(TrackMeta {
                name: name.to_string(),
                ..TrackMeta::default()
            });
            b.by_name.insert(name.to_string(), id);
            return id;
        }
        TrackId::default()
    }

    /// Records a complete span of `dur` busy cycles on `track`.
    #[inline]
    pub fn span(&mut self, ts: Cycle, dur: u64, track: TrackId, name: &'static str) {
        if let Some(b) = self.buf.as_deref_mut() {
            if let Some(m) = b.tracks.get_mut(track.0 as usize) {
                m.busy += dur;
            }
            b.push(TraceEvent::Span {
                ts: ts.0,
                dur,
                track,
                name,
            });
        }
    }

    /// Records a point-in-time marker on `track`.
    #[inline]
    pub fn instant(&mut self, ts: Cycle, track: TrackId, name: &'static str, arg: u64) {
        if let Some(b) = self.buf.as_deref_mut() {
            b.push(TraceEvent::Instant {
                ts: ts.0,
                track,
                name,
                arg,
            });
        }
    }

    /// Records a counter sample on `track`; samples also feed the track's
    /// [`Histogram`] (see [`Tracer::counter_histogram`]).
    #[inline]
    pub fn counter(&mut self, ts: Cycle, track: TrackId, value: u64) {
        if let Some(b) = self.buf.as_deref_mut() {
            if let Some(m) = b.tracks.get_mut(track.0 as usize) {
                m.hist.get_or_insert_with(Histogram::new).record(value);
            }
            b.push(TraceEvent::Counter {
                ts: ts.0,
                track,
                value,
            });
        }
    }

    /// Records one network message and accumulates its link traffic.
    #[inline]
    pub fn net_msg(&mut self, ts: Cycle, dur: u64, src: Coord, dst: Coord, words: u32, hops: u8) {
        if let Some(b) = self.buf.as_deref_mut() {
            let link = b.links.entry((src, dst)).or_default();
            link.msgs += 1;
            link.words += u64::from(words);
            b.push(TraceEvent::NetMsg {
                ts: ts.0,
                dur,
                src,
                dst,
                words,
                hops,
            });
        }
    }

    /// The recorded events, oldest first. When the ring has wrapped, only
    /// the newest [`Tracer::capacity`] events remain.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.as_deref().into_iter().flat_map(Buf::iter)
    }

    /// All registered tracks as `(id, name)`, in registration order.
    pub fn tracks(&self) -> impl Iterator<Item = (TrackId, &str)> {
        self.buf.as_deref().into_iter().flat_map(|b| {
            b.tracks
                .iter()
                .enumerate()
                .map(|(i, m)| (TrackId(i as u16), m.name.as_str()))
        })
    }

    /// Total span cycles accumulated on `track` (exact even when the ring
    /// has dropped events).
    pub fn busy_cycles(&self, track: TrackId) -> u64 {
        self.buf
            .as_deref()
            .and_then(|b| b.tracks.get(track.0 as usize))
            .map_or(0, |m| m.busy)
    }

    /// Distribution of [`Tracer::counter`] samples taken on `track`, if any.
    pub fn counter_histogram(&self, track: TrackId) -> Option<&Histogram> {
        self.buf
            .as_deref()
            .and_then(|b| b.tracks.get(track.0 as usize))
            .and_then(|m| m.hist.as_ref())
    }

    /// Aggregate traffic per directed link, in deterministic (src, dst)
    /// order. Exact even when the ring has dropped events.
    pub fn links(&self) -> impl Iterator<Item = (Coord, Coord, LinkStats)> + '_ {
        self.buf
            .as_deref()
            .into_iter()
            .flat_map(|b| b.links.iter().map(|(&(s, d), &st)| (s, d, st)))
    }

    /// Number of events currently held in the ring.
    pub fn len(&self) -> usize {
        self.buf.as_deref().map_or(0, |b| b.ring.len())
    }

    /// True when no events have been recorded (always true when disabled).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Ring capacity in events (0 when disabled).
    pub fn capacity(&self) -> usize {
        self.buf.as_deref().map_or(0, |b| b.capacity)
    }

    /// Events lost to ring overwrite since creation.
    pub fn dropped(&self) -> u64 {
        self.buf.as_deref().map_or(0, |b| b.dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(x: u8, y: u8) -> Coord {
        Coord { x, y }
    }

    #[test]
    fn track_registration_dedups_by_name() {
        let mut t = Tracer::new(TraceConfig::default());
        let a = t.track("tile(0,0) exec");
        let b = t.track("tile(1,0) mmu");
        let a2 = t.track("tile(0,0) exec");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        let names: Vec<_> = t.tracks().map(|(_, n)| n.to_string()).collect();
        assert_eq!(names, ["tile(0,0) exec", "tile(1,0) mmu"]);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut t = Tracer::new(TraceConfig { capacity: 4 });
        let tr = t.track("x");
        for i in 0..6u64 {
            t.instant(Cycle(i), tr, "tick", i);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.dropped(), 2);
        let ts: Vec<u64> = t
            .events()
            .map(|e| match *e {
                TraceEvent::Span { ts, .. }
                | TraceEvent::Instant { ts, .. }
                | TraceEvent::Counter { ts, .. }
                | TraceEvent::NetMsg { ts, .. } => ts,
            })
            .collect();
        assert_eq!(ts, [2, 3, 4, 5], "oldest events were evicted first");
    }

    #[test]
    fn busy_cycles_survive_ring_overwrite() {
        let mut t = Tracer::new(TraceConfig { capacity: 2 });
        let tr = t.track("svc");
        for i in 0..10u64 {
            t.span(Cycle(i * 10), 3, tr, "work");
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.busy_cycles(tr), 30, "aggregate is exact despite drops");
    }

    #[test]
    fn counters_feed_histogram() {
        let mut t = Tracer::new(TraceConfig::default());
        let tr = t.track("specq.depth");
        for v in [1u64, 2, 4, 8] {
            t.counter(Cycle(v), tr, v);
        }
        let h = t.counter_histogram(tr).expect("samples were taken");
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 8);
        assert!(t.counter_histogram(TrackId(99)).is_none());
    }

    #[test]
    fn links_aggregate_traffic() {
        let mut t = Tracer::new(TraceConfig { capacity: 2 });
        for i in 0..5u64 {
            t.net_msg(Cycle(i), 6, c(0, 0), c(2, 1), 4, 3);
        }
        t.net_msg(Cycle(9), 4, c(2, 1), c(0, 0), 1, 3);
        let links: Vec<_> = t.links().collect();
        assert_eq!(links.len(), 2);
        let (s, d, st) = links[0];
        assert_eq!((s, d), (c(0, 0), c(2, 1)));
        assert_eq!((st.msgs, st.words), (5, 20), "exact despite ring drops");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert!(!t.is_enabled());
        let tr = t.track("x");
        t.span(Cycle(0), 5, tr, "a");
        t.counter(Cycle(1), tr, 2);
        t.net_msg(Cycle(2), 3, c(0, 0), c(1, 1), 1, 2);
        assert!(t.is_empty());
        assert_eq!(t.busy_cycles(tr), 0);
        assert_eq!(t.tracks().count(), 0);
        assert_eq!(t.links().count(), 0);
    }
}
