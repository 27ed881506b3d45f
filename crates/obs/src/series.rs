//! Windowed time-series: cadence-sampled ring buffers over the metrics
//! registry.
//!
//! The registry accumulates for the whole run; the recorder turns it
//! into *time-resolved* signals by reading a chosen set of probes every
//! `cadence` of sim time. Sampling is driven by the serving loop's
//! monotone arrival clock, so the tick times — and therefore the JSONL
//! export — are a pure function of the workload, never of host threads
//! or wall clock.

use cim_sim::analytic::QueueModel;
use cim_sim::telemetry::{json_string, write_json_f64, ComponentId, MetricsRegistry};
use cim_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// How to read one tracked metric out of the registry each tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Probe {
    /// A monotone counter, read as `f64`.
    Counter,
    /// A gauge; missing gauges read as `0.0`.
    Gauge,
    /// A bucket-interpolated quantile of a histogram (see
    /// [`cim_sim::stats::Log2Histogram::quantile`]); empty histograms
    /// read as `0.0`.
    HistogramQuantile(
        /// The quantile in `[0, 1]`, e.g. `0.99`.
        f64,
    ),
    /// The sample count of a histogram.
    HistogramCount,
}

impl Probe {
    /// Reads this probe's current value from the registry.
    pub fn read(&self, reg: &MetricsRegistry, comp: ComponentId, metric: &'static str) -> f64 {
        match *self {
            Probe::Counter => reg.counter(comp, metric) as f64,
            Probe::Gauge => reg.gauge(comp, metric).unwrap_or(0.0),
            Probe::HistogramQuantile(q) => reg
                .histogram(comp, metric)
                .and_then(|h| h.quantile(q))
                .unwrap_or(0.0),
            Probe::HistogramCount => reg
                .histogram(comp, metric)
                .map(|h| h.count() as f64)
                .unwrap_or(0.0),
        }
    }
}

/// One metric the recorder samples each tick: where it lives in the
/// registry, how to read it, and the label it exports under
/// (`metric:"series/<label>"`).
#[derive(Debug, Clone, PartialEq)]
pub struct TrackSpec {
    /// Registry component path (e.g. `"service"`, `"noc"`).
    pub component: String,
    /// Registry metric name.
    pub metric: &'static str,
    /// How to read it.
    pub probe: Probe,
    /// Export label; must be unique within the component.
    pub label: &'static str,
}

impl TrackSpec {
    /// Shorthand constructor.
    pub fn new(component: &str, metric: &'static str, probe: Probe, label: &'static str) -> Self {
        TrackSpec {
            component: component.to_owned(),
            metric,
            probe,
            label,
        }
    }

    /// The default probe set for a serving run: request dispositions and
    /// queue depth at the service layer, latency quantiles from the
    /// service histogram, dispatch/completion counters at the engine, and
    /// packet/occupancy counters at the NoC.
    pub fn serving_defaults() -> Vec<TrackSpec> {
        vec![
            TrackSpec::new("service", "offered", Probe::Counter, "offered"),
            TrackSpec::new("service", "admitted", Probe::Counter, "admitted"),
            TrackSpec::new("service", "completed", Probe::Counter, "completed"),
            TrackSpec::new("service", "shed", Probe::Counter, "shed"),
            TrackSpec::new("service", "timed_out", Probe::Counter, "timed_out"),
            TrackSpec::new("service", "failed", Probe::Counter, "failed"),
            TrackSpec::new("service", "queue_depth", Probe::Gauge, "queue_depth"),
            TrackSpec::new(
                "service",
                "latency_ns",
                Probe::HistogramQuantile(0.5),
                "latency_ns_p50",
            ),
            TrackSpec::new(
                "service",
                "latency_ns",
                Probe::HistogramQuantile(0.99),
                "latency_ns_p99",
            ),
            TrackSpec::new("engine", "dispatched", Probe::Counter, "dispatched"),
            TrackSpec::new("engine", "items", Probe::Counter, "items"),
            TrackSpec::new("noc", "packets", Probe::Counter, "packets"),
            TrackSpec::new("noc", "busy_ps", Probe::Counter, "busy_ps"),
        ]
    }

    /// The default probe set for a fleet run: request dispositions,
    /// failover count and aggregate queue depth at the router, latency
    /// quantiles from the fleet histogram, plus per-device dispatch and
    /// occupancy series scoped to `fleet/dev<i>` components.
    pub fn fleet_defaults(devices: usize) -> Vec<TrackSpec> {
        let mut tracks = vec![
            TrackSpec::new("fleet", "offered", Probe::Counter, "offered"),
            TrackSpec::new("fleet", "admitted", Probe::Counter, "admitted"),
            TrackSpec::new("fleet", "completed", Probe::Counter, "completed"),
            TrackSpec::new("fleet", "shed", Probe::Counter, "shed"),
            TrackSpec::new("fleet", "timed_out", Probe::Counter, "timed_out"),
            TrackSpec::new("fleet", "failed", Probe::Counter, "failed"),
            TrackSpec::new("fleet", "retries", Probe::Counter, "retries"),
            TrackSpec::new("fleet", "queue_depth", Probe::Gauge, "queue_depth"),
            TrackSpec::new(
                "fleet",
                "latency_ns",
                Probe::HistogramQuantile(0.5),
                "latency_ns_p50",
            ),
            TrackSpec::new(
                "fleet",
                "latency_ns",
                Probe::HistogramQuantile(0.99),
                "latency_ns_p99",
            ),
        ];
        for i in 0..devices {
            let comp = format!("fleet/dev{i}");
            tracks.push(TrackSpec::new(
                &comp,
                "dispatched",
                Probe::Counter,
                "dispatched",
            ));
            tracks.push(TrackSpec::new(&comp, "served", Probe::Counter, "served"));
            tracks.push(TrackSpec::new(
                &comp,
                "in_flight",
                Probe::Gauge,
                "in_flight",
            ));
        }
        tracks
    }
}

/// One recorded point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeriesPoint {
    /// Sim time of the sample (a cadence tick, or the forced final tick).
    pub at: SimTime,
    /// Probe value at that time.
    pub value: f64,
}

/// Samples registered probes on a fixed sim-time cadence into per-series
/// ring buffers.
///
/// The recorder holds its own tick clock: [`TimeSeriesRecorder::sample_to`]
/// fires every tick in `(last, now]`, so irregular request arrivals still
/// produce a regular grid. Rings are bounded by `capacity`; once full the
/// oldest points are dropped and counted, so long soaks degrade to a
/// trailing window instead of growing without bound.
#[derive(Debug)]
pub struct TimeSeriesRecorder {
    cadence: SimDuration,
    capacity: usize,
    /// Per-series export identity, in registration order.
    tracks: Vec<(String, &'static str)>,
    points: Vec<VecDeque<SeriesPoint>>,
    dropped: Vec<u64>,
    next_tick: u64,
}

impl TimeSeriesRecorder {
    /// A recorder with the given cadence and per-series ring capacity.
    ///
    /// # Panics
    ///
    /// Panics if the cadence is zero or the capacity is zero.
    pub fn new(cadence: SimDuration, capacity: usize) -> Self {
        assert!(!cadence.is_zero(), "cadence must be positive");
        assert!(capacity > 0, "capacity must be positive");
        TimeSeriesRecorder {
            cadence,
            capacity,
            tracks: Vec::new(),
            points: Vec::new(),
            dropped: Vec::new(),
            next_tick: 0,
        }
    }

    /// The sampling cadence.
    pub fn cadence(&self) -> SimDuration {
        self.cadence
    }

    /// Registers a series and returns its index (the argument passed to
    /// the read closure of [`TimeSeriesRecorder::sample_to`]).
    pub fn track(&mut self, component: &str, label: &'static str) -> usize {
        self.tracks.push((component.to_owned(), label));
        self.points.push(VecDeque::new());
        self.dropped.push(0);
        self.tracks.len() - 1
    }

    /// Number of points dropped from series `i`'s ring so far.
    pub fn dropped(&self, i: usize) -> u64 {
        self.dropped[i]
    }

    /// Fires every pending cadence tick up to and including `now`,
    /// reading each series through `read(series_index)`. Ticks land on
    /// exact multiples of the cadence, so the grid is identical no matter
    /// how arrivals bunch between calls.
    pub fn sample_to(&mut self, now: SimTime, mut read: impl FnMut(usize) -> f64) {
        while let Some(at) = self.next_at().filter(|&at| at <= now) {
            self.next_tick += 1;
            self.push_sample(at, &mut read);
        }
    }

    /// Whether [`TimeSeriesRecorder::sample_to`] at `now` would fire a
    /// tick.
    pub fn due(&self, now: SimTime) -> bool {
        self.next_at().is_some_and(|at| at <= now)
    }

    /// The time of the next cadence tick; `None` once past the clock.
    fn next_at(&self) -> Option<SimTime> {
        self.next_tick
            .checked_mul(self.cadence.as_ps())
            .map(SimTime::from_ps)
    }

    /// Takes one forced sample at exactly `now`, regardless of the tick
    /// grid (used for the run's final instant). Skipped if `now` already
    /// has a grid sample.
    pub fn sample_at(&mut self, now: SimTime, mut read: impl FnMut(usize) -> f64) {
        let on_grid = self
            .next_tick
            .checked_sub(1)
            .and_then(|t| t.checked_mul(self.cadence.as_ps()))
            .map(|ps| ps == now.as_ps())
            .unwrap_or(false);
        if !on_grid {
            self.push_sample(now, &mut read);
        }
    }

    fn push_sample(&mut self, at: SimTime, read: &mut impl FnMut(usize) -> f64) {
        for i in 0..self.tracks.len() {
            let value = read(i);
            if self.points[i].len() == self.capacity {
                self.points[i].pop_front();
                self.dropped[i] += 1;
            }
            self.points[i].push_back(SeriesPoint { at, value });
        }
    }

    /// The recorded points of series `i`, oldest first.
    pub fn series(&self, i: usize) -> impl Iterator<Item = &SeriesPoint> {
        self.points[i].iter()
    }

    /// Deterministic JSON-lines export: series in registration order,
    /// points in time order, one `kind:"series"` object per point.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        for ((component, label), points) in self.tracks.iter().zip(&self.points) {
            let head = series_head(component, label);
            for p in points {
                push_point(&mut out, &head, p.value, p.at.as_ps());
            }
        }
        out
    }
}

/// The constant start of every `kind:"series"` line of one track, up to
/// and including `"value":`. Rendered once per track.
fn series_head(component: &str, label: &str) -> String {
    format!(
        "{{\"component\":{},\"metric\":{},\"kind\":\"series\",\"value\":",
        json_string(component),
        json_string(&format!("series/{label}")),
    )
}

/// Appends one series line: the track's `head`, the value, then the
/// sim-time stamp.
fn push_point(out: &mut String, head: &str, value: f64, t_ps: u64) {
    out.push_str(head);
    write_json_f64(out, value);
    out.push_str(",\"t_ps\":");
    let _ = write!(out, "{t_ps}");
    out.push_str("}\n");
}

/// Synthesizes the coarse series contract for the analytic fast tier.
///
/// `SimMode::Analytic` has no event-by-event registry evolution to
/// sample, but SLO dashboards still need *series-shaped* signals, so the
/// queue operating point is expanded into flat lines over the horizon:
/// utilization, predicted wait and predicted end-to-end latency, at up to
/// 32 evenly spaced ticks (never finer than `cadence`). Detailed and
/// analytic runs thereby export the same record kinds and the analytic
/// tier's SLO maths stay meaningful.
pub fn synthesize_queue_series(
    model: &QueueModel,
    horizon: SimTime,
    cadence: SimDuration,
) -> String {
    let span_ps = horizon.as_ps();
    let step_ps = (span_ps / 32).max(cadence.as_ps()).max(1);
    let series: [(&str, f64); 3] = [
        ("utilization", model.utilization()),
        ("predicted_wait_ns", model.predicted_wait().as_ns_f64()),
        (
            "predicted_latency_ns",
            model.predicted_latency().as_ns_f64(),
        ),
    ];
    let mut out = String::new();
    for (label, value) in series {
        let head = series_head("obs/analytic", label);
        let mut t = 0u64;
        loop {
            push_point(&mut out, &head, value, t);
            if t >= span_ps {
                break;
            }
            t = (t + step_ps).min(span_ps);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_sim::telemetry::validate_jsonl_line;

    #[test]
    fn ticks_land_on_the_cadence_grid_regardless_of_arrival_bunching() {
        let sample = |arrivals: &[u64]| {
            let mut rec = TimeSeriesRecorder::new(SimDuration::from_ns(10), 64);
            rec.track("svc", "x");
            let mut v = 0.0;
            for &ns in arrivals {
                v += 1.0;
                let val = v;
                rec.sample_to(SimTime::from_ns(ns), |_| val);
            }
            rec.series(0).map(|p| p.at.as_ps()).collect::<Vec<_>>()
        };
        // Bunched and spread arrivals covering the same span produce the
        // same tick times.
        let a = sample(&[5, 12, 13, 14, 35, 50]);
        let b = sample(&[50]);
        assert_eq!(a, b);
        assert_eq!(a, vec![0, 10_000, 20_000, 30_000, 40_000, 50_000]);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let mut rec = TimeSeriesRecorder::new(SimDuration::from_ns(1), 4);
        rec.track("svc", "x");
        rec.sample_to(SimTime::from_ns(9), |_| 7.0);
        assert_eq!(rec.series(0).count(), 4);
        assert_eq!(rec.dropped(0), 6);
        assert_eq!(rec.series(0).next().unwrap().at, SimTime::from_ns(6));
    }

    #[test]
    fn forced_final_sample_is_skipped_on_grid() {
        let mut rec = TimeSeriesRecorder::new(SimDuration::from_ns(10), 64);
        rec.track("svc", "x");
        rec.sample_to(SimTime::from_ns(20), |_| 1.0);
        rec.sample_at(SimTime::from_ns(20), |_| 1.0);
        assert_eq!(rec.series(0).count(), 3, "no duplicate at t=20ns");
        rec.sample_at(SimTime::from_ns(25), |_| 2.0);
        assert_eq!(rec.series(0).count(), 4, "off-grid final tick recorded");
    }

    #[test]
    fn export_validates_and_synthesis_covers_the_horizon() {
        let mut rec = TimeSeriesRecorder::new(SimDuration::from_ns(10), 64);
        rec.track("svc", "depth");
        rec.sample_to(SimTime::from_ns(30), |_| 2.5);
        let out = rec.export_jsonl();
        assert_eq!(out.lines().count(), 4);
        for line in out.lines() {
            validate_jsonl_line(line).expect("series schema");
        }
        let model = QueueModel::new(100_000.0, SimDuration::from_us(4));
        let syn =
            synthesize_queue_series(&model, SimTime::from_ns(400_000), SimDuration::from_us(10));
        for line in syn.lines() {
            validate_jsonl_line(line).expect("synthetic series schema");
        }
        assert!(syn.contains("\"metric\":\"series/utilization\""));
        assert!(
            syn.contains(&format!("\"t_ps\":{}", 400_000_000u64)),
            "synthesis reaches the horizon"
        );
        assert_eq!(
            syn,
            synthesize_queue_series(&model, SimTime::from_ns(400_000), SimDuration::from_us(10))
        );
    }
}
