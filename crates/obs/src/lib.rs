//! # cim-obs — observability pipeline for the CIM serving stack
//!
//! The rest of the workspace *measures* (every component feeds the
//! [`cim_sim::telemetry`] registry and span tracer); this crate *watches*.
//! It turns the cumulative end-of-run snapshot into three live views:
//!
//! 1. **Windowed time-series** — [`series::TimeSeriesRecorder`] samples
//!    selected counters/gauges/histogram quantiles on a fixed sim-time
//!    cadence into ring-buffered series with a deterministic JSON-lines
//!    export (`kind:"series"` records alongside the snapshot schema).
//! 2. **SLO engine** — [`slo::SloEngine`] evaluates per-tenant SLO specs
//!    (latency target, availability, zero-loss) over sliding windows with
//!    multi-window burn-rate rules, emitting sim-time-stamped
//!    [`slo::AlertEvent`]s (`kind:"alert"` records).
//! 3. **Profiling** — [`profile::Profile`] folds the span tree into
//!    flamegraph-style weighted stacks (time *and* energy) plus a
//!    per-component busy/idle utilization timeline (`kind:"profile"`
//!    records and a folded-stacks file for standard flamegraph tooling).
//!
//! Everything here is deterministic: given the same seed the exports are
//! byte-identical across `CIM_THREADS` settings and across double runs —
//! the same contract the rest of the workspace holds (see DESIGN.md
//! "Observability pipeline").
//!
//! ## Example
//!
//! ```
//! use cim_obs::slo::{BurnRateRule, SloEngine, SloSpec};
//! use cim_sim::time::{SimDuration, SimTime};
//!
//! let mut engine = SloEngine::new(
//!     vec![SloSpec::for_tenant("interactive", SimDuration::from_us(20))],
//!     BurnRateRule::default_rules(),
//! );
//! // A healthy stream: on-target requests never burn the error budget.
//! for i in 0..100u64 {
//!     engine.observe(0, SimTime::from_ns(i * 10_000), true, false);
//! }
//! assert!(engine.alerts().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod export;
pub mod profile;
pub mod series;
pub mod slo;

pub use export::{split_telemetry_arg, validate_file, write_export};
pub use profile::Profile;
pub use series::{Probe, TimeSeriesRecorder, TrackSpec};
pub use slo::{AlertEvent, AlertSeverity, BurnRateRule, SloEngine, SloSpec};

use cim_sim::analytic::QueueModel;
use cim_sim::telemetry::{ComponentId, MetricsRegistry, Telemetry};
use cim_sim::time::{SimDuration, SimTime};

/// Sim-time sampling cadence of the time-series recorder.
const CADENCE: SimDuration = SimDuration::from_us(10);

/// Ring capacity per tracked series; the oldest points are dropped (and
/// counted) once a series exceeds it.
const CAPACITY: usize = 4096;

/// Configuration for the observability pipeline a serving run attaches.
///
/// The pipeline samples on a fixed 10 µs sim-time cadence into rings of
/// 4096 points per series, applies the Google-SRE-style multi-window
/// burn-rate rules from [`BurnRateRule::default_rules`], and holds each
/// registered service class to one [`SloSpec::for_tenant`] spec
/// (latency target = the class deadline). The default tracks the
/// serving stack's load-bearing signals (service dispositions and queue
/// depth, engine dispatch counters, NoC traffic).
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// Metrics to sample each cadence tick. Empty means
    /// [`TrackSpec::serving_defaults`].
    pub tracks: Vec<TrackSpec>,
}

/// What one finished request looked like to the SLO engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Observed {
    /// The request completed; goodness depends on the tenant's latency
    /// target.
    Done {
        /// End-to-end latency (arrival to finish).
        latency: SimDuration,
    },
    /// The request missed its deadline (bad, but not lost).
    TimedOut,
    /// Admission control shed the request (bad, but not lost).
    Shed,
    /// The request failed outright — bad *and* lost, which trips
    /// zero-loss SLOs immediately.
    Failed,
}

/// The live observability pipeline for one serving run: a time-series
/// recorder plus an SLO engine, fed by the serving loop and drained into
/// an [`ObsReport`] at the end.
#[derive(Debug)]
pub struct Observability {
    recorder: TimeSeriesRecorder,
    engine: SloEngine,
    /// Resolved (component id, metric, probe) per track, in track order.
    resolved: Vec<(ComponentId, &'static str, Probe)>,
}

impl Observability {
    /// Builds the pipeline from a config and the run's tenants
    /// (`(name, deadline)` per registered service class). Component ids
    /// for the tracked series are interned up front through `tel` so the
    /// per-tick sampling path is a pair of map reads, not string hashing.
    pub fn new(cfg: &ObsConfig, tenants: &[(String, SimDuration)], tel: &Telemetry) -> Self {
        let tracks = if cfg.tracks.is_empty() {
            TrackSpec::serving_defaults()
        } else {
            cfg.tracks.clone()
        };
        let slos = tenants
            .iter()
            .map(|(name, deadline)| SloSpec::for_tenant(name, *deadline))
            .collect();
        let mut recorder = TimeSeriesRecorder::new(CADENCE, CAPACITY);
        let mut resolved = Vec::with_capacity(tracks.len());
        for t in &tracks {
            recorder.track(&t.component, t.label);
            resolved.push((tel.component(&t.component), t.metric, t.probe));
        }
        Observability {
            recorder,
            engine: SloEngine::new(slos, BurnRateRule::default_rules()),
            resolved,
        }
    }

    /// Feeds one finished request into the SLO engine. `tenant` indexes
    /// the spec list (class registration order); `at` is the sim time the
    /// disposition became known.
    pub fn observe_request(&mut self, tenant: usize, at: SimTime, outcome: Observed) {
        let (good, lost) = match outcome {
            Observed::Done { latency } => (self.engine.within_target(tenant, latency), false),
            Observed::TimedOut | Observed::Shed => (false, false),
            Observed::Failed => (false, true),
        };
        self.engine.observe(tenant, at, good, lost);
    }

    /// Samples every cadence tick up to (and including) `now` from the
    /// live registry. Call with the monotone arrival clock; re-calls with
    /// the same `now` are no-ops, so this is safe once per request.
    pub fn sample_to(&mut self, now: SimTime, reg: &MetricsRegistry) {
        let resolved = &self.resolved;
        self.recorder.sample_to(now, |series_idx| {
            let (comp, metric, probe) = resolved[series_idx];
            probe.read(reg, comp, metric)
        });
    }

    /// Takes one final forced sample at `now` (so the series always end
    /// at the run's end time) and closes the recorder clock.
    pub fn finalize(&mut self, now: SimTime, reg: &MetricsRegistry) {
        self.sample_to(now, reg);
        let resolved = &self.resolved;
        self.recorder.sample_at(now, |series_idx| {
            let (comp, metric, probe) = resolved[series_idx];
            probe.read(reg, comp, metric)
        });
    }

    /// Drains the pipeline into its end-of-run report. In
    /// [`cim_sim::SimMode::Analytic`] runs pass the operating point so
    /// the report carries the synthesized coarse series (the fast tier
    /// has no event-by-event samples to record).
    pub fn finish(self, synthetic: Option<(&QueueModel, SimTime)>) -> ObsReport {
        let mut series_jsonl = self.recorder.export_jsonl();
        if let Some((model, horizon)) = synthetic {
            series_jsonl.push_str(&series::synthesize_queue_series(
                model,
                horizon,
                self.recorder.cadence(),
            ));
        }
        ObsReport {
            alerts: self.engine.into_alerts(),
            series_jsonl,
        }
    }
}

/// End-of-run output of the observability pipeline, surfaced on
/// `cim_fabric::fleet::FleetReport`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ObsReport {
    /// Burn-rate and zero-loss alerts in firing order (sim time, then
    /// tenant/rule declaration order for simultaneous alerts).
    pub alerts: Vec<AlertEvent>,
    /// `kind:"series"` JSON-lines export of every tracked series.
    pub series_jsonl: String,
}

/// Renders a slice of alerts as `kind:"alert"` JSON lines (the schema
/// [`cim_sim::telemetry::validate_jsonl_line`] checks).
pub fn alerts_jsonl(alerts: &[AlertEvent]) -> String {
    let mut out = String::new();
    for a in alerts {
        out.push_str(&a.to_jsonl_line());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::telemetry::{validate_jsonl_line, TelemetryLevel};

    #[test]
    fn pipeline_samples_and_exports_deterministically() {
        let run = || {
            let tel = Telemetry::new(TelemetryLevel::Metrics);
            let svc = tel.component("service");
            let cfg = ObsConfig::default();
            let tenants = vec![("t0".to_owned(), SimDuration::from_us(20))];
            let mut obs = Observability::new(&cfg, &tenants, &tel);
            for i in 0..50u64 {
                let now = SimTime::from_ns(i * 5_000);
                tel.counter_add(svc, "offered", 1);
                tel.counter_add(svc, "completed", 1);
                tel.record(svc, "latency_ns", 4_000 + i * 10);
                obs.observe_request(
                    0,
                    now,
                    Observed::Done {
                        latency: SimDuration::from_ns(4_000 + i * 10),
                    },
                );
                tel.with_registry(|r| obs.sample_to(now, r));
            }
            tel.with_registry(|r| obs.finalize(SimTime::from_ns(49 * 5_000), r));
            obs.finish(None)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "double runs are bit-identical");
        assert!(a.alerts.is_empty(), "healthy stream fires no alerts");
        assert!(!a.series_jsonl.is_empty());
        for line in a.series_jsonl.lines() {
            validate_jsonl_line(line).expect("series lines validate");
        }
        assert!(
            a.series_jsonl.contains("\"metric\":\"series/completed\""),
            "tracked counter appears in the export"
        );
    }

    #[test]
    fn failed_requests_trip_zero_loss_alerts() {
        let tel = Telemetry::new(TelemetryLevel::Metrics);
        let cfg = ObsConfig::default();
        let tenants = vec![("t0".to_owned(), SimDuration::from_us(20))];
        let mut obs = Observability::new(&cfg, &tenants, &tel);
        obs.observe_request(0, SimTime::from_ns(100), Observed::Failed);
        let rep = obs.finish(None);
        assert_eq!(rep.alerts.len(), 1);
        assert_eq!(rep.alerts[0].severity, AlertSeverity::Page);
        assert_eq!(rep.alerts[0].rule, "zero_loss");
        let line = alerts_jsonl(&rep.alerts);
        validate_jsonl_line(line.trim_end()).expect("alert line validates");
    }
}
