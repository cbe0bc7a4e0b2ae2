//! # vta-sim — simulation kernel for the VTA tiled-processor reproduction
//!
//! Shared infrastructure used by every simulated component in this
//! workspace: a [`Cycle`] clock newtype, a deterministic [`Rng`]
//! (xoshiro256\*\*), a [`Stats`] registry of named counters and
//! histograms, and the three observers ([`Tracer`], [`Metrics`],
//! [`Profiler`]).
//!
//! The simulators built on top of this crate charge work in whole cycles
//! on per-component timelines: each serially reusable resource keeps the
//! cycle it is next free, and a request is served from
//! `max(arrival, next_free)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addrhash;
mod cycle;
mod fnv;
pub mod metrics;
pub mod prof;
mod rng;
mod stats;
pub mod trace;

pub use cycle::Cycle;
pub use fnv::Fnv1a;
pub use metrics::{GaugeId, MetricEvent, Metrics, MetricsConfig, Window};
pub use prof::{PhaseTotal, ProfConfig, ProfileReport, Profiler, ThreadProfile};
pub use rng::Rng;
pub use stats::{Ctr, Histogram, Stats};
pub use trace::{Coord, LinkStats, TraceConfig, TraceEvent, Tracer, TrackId};
