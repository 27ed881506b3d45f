//! # cim-sim — simulation substrate for the CIM reproduction
//!
//! Picosecond time and femtojoule energy accounting, statistics,
//! deterministic random-number streams, telemetry, the analytic
//! (closed-form) tier, and the calibration constants every platform
//! model (crossbar, NoC, CPU, GPU, cluster) is built on.
//!
//! This crate is the bottom of the dependency graph for the reproduction of
//! *Computing In-Memory, Revisited* (Milojicic et al., ICDCS 2018). The
//! models above it advance their own [`time::SimTime`] clocks — the CIM
//! engine schedules by per-unit busy horizons — and charge energy to
//! [`energy::EnergyMeter`]s, drawing every stochastic choice from a
//! [`rng::SeedTree`] so whole experiments replay bit-identically.
//!
//! ## Example
//!
//! ```
//! use cim_sim::energy::{Energy, EnergyMeter};
//! use cim_sim::rng::{Rng, SeedTree};
//! use cim_sim::time::{SimDuration, SimTime};
//!
//! // A toy three-stage pipeline: each stage takes 10 ns and 1 pJ, and
//! // a seeded stream picks which stage is slow.
//! let seeds = SeedTree::new(7);
//! let slow = seeds.rng("stall").gen_range(0..3u64);
//! let mut meter = EnergyMeter::new();
//! let mut now = SimTime::ZERO;
//! for stage in 0..3u64 {
//!     let extra = if stage == slow { 5 } else { 0 };
//!     now += SimDuration::from_ns(10 + extra);
//!     meter.charge("stage", Energy::from_pj(1.0));
//! }
//! assert_eq!(now, SimTime::from_ns(35));
//! assert_eq!(meter.total(), Energy::from_pj(3.0));
//! assert_eq!(seeds.rng("stall").gen_range(0..3u64), slow, "streams replay");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod calib;
pub mod energy;
pub mod json;
pub mod num;
pub mod pool;
pub mod prop;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;

pub use analytic::SimMode;
pub use energy::{Energy, EnergyMeter, Power};
pub use rng::SeedTree;
pub use stats::{Log2Histogram, Samples};
pub use telemetry::{ComponentId, MetricsRegistry, SpanId, SpanTracer, Telemetry, TelemetryLevel};
pub use time::{SimDuration, SimTime};
