//! Serving load sweep: offered load through saturation (§III.E + §V.A).
//!
//! Boots one single-device [`FleetScenario`] per offered-load point —
//! standard three-tenant request mix resident in crossbars — and drives
//! an open-loop arrival stream through each. Light load completes within
//! SLO; past saturation the bounded admission queue sheds load and
//! deadline misses appear, while p99 of *admitted* requests stays
//! bounded by the queue depth. Points run in parallel on up to
//! `CIM_THREADS` host threads; every number is bit-identical at any
//! thread count.

use super::fleet::{boot, FleetScenario};
use crate::harness::{parallel_points, parallel_points_threads};
use crate::table::TextTable;
use cim_fabric::fleet::CimFleet;
use cim_fabric::service::LatencyStats;
use cim_sim::telemetry::TelemetryLevel;

/// One offered-load operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingPoint {
    /// Offered load, requests per second.
    pub rate_hz: f64,
    /// Requests offered by the arrival process.
    pub offered: usize,
    /// Requests past admission.
    pub admitted: usize,
    /// Requests shed at the full queue.
    pub shed: usize,
    /// Requests completed within deadline.
    pub completed: usize,
    /// Deadline misses.
    pub timed_out: usize,
    /// Requests whose retry budget ran out.
    pub failed: usize,
    /// §V.A mid-stream recoveries underneath requests.
    pub recoveries: usize,
    /// Latency distribution of admitted requests that finished.
    pub latency: LatencyStats,
    /// Full telemetry export of the point's device (byte-stable).
    pub telemetry_jsonl: String,
    /// SLO burn-rate alerts the point's observability pipeline fired,
    /// in firing order (empty at healthy operating points).
    pub alerts: Vec<cim_obs::AlertEvent>,
    /// Windowed time-series export (`kind: "series"` JSONL, byte-stable).
    pub series_jsonl: String,
}

/// The default sweep: light load through ~8× saturation.
pub const DEFAULT_RATES: [f64; 6] = [
    20_000.0,
    100_000.0,
    400_000.0,
    800_000.0,
    1_600_000.0,
    3_200_000.0,
];

/// Boots `s` with device 0's telemetry at `level` and the
/// observability pipeline attached, both before the mix is placed: the
/// sweep's points record at [`TelemetryLevel::Metrics`], the SLO
/// artifact run at [`TelemetryLevel::Full`].
pub fn boot_observed(s: &FleetScenario, level: TelemetryLevel) -> CimFleet {
    boot(s, |fleet| {
        fleet.runtime_mut(0).device_mut().enable_telemetry(level);
        fleet.enable_observability(cim_obs::ObsConfig::default());
    })
}

fn run_point(rate_hz: f64, n: usize, seed: u64) -> ServingPoint {
    // Same resident models at every point; only the arrival seed and
    // rate vary, so the sweep isolates the load axis.
    let s = FleetScenario::single(rate_hz, n, seed);
    let mut fleet = boot_observed(&s, TelemetryLevel::Metrics);
    let r = fleet.run_open_loop(rate_hz, n, &[]).expect("stream serves");
    ServingPoint {
        rate_hz,
        offered: r.offered,
        admitted: r.admitted,
        shed: r.shed,
        completed: r.completed,
        timed_out: r.timed_out,
        failed: r.failed,
        recoveries: r.recoveries,
        latency: r.latency,
        telemetry_jsonl: fleet.runtime(0).device().telemetry().export_jsonl(),
        alerts: r.alerts,
        series_jsonl: r.series_jsonl,
    }
}

/// Sweeps the offered-load axis, `n` requests per point, on up to
/// `CIM_THREADS` host threads.
pub fn run(rates: &[f64], n: usize, seed: u64) -> Vec<ServingPoint> {
    parallel_points(rates, |i, &rate| run_point(rate, n, seed ^ (i as u64)))
}

/// [`run`] with an explicit thread count (determinism tests).
pub fn run_threads(rates: &[f64], n: usize, seed: u64, threads: usize) -> Vec<ServingPoint> {
    parallel_points_threads(threads, rates, |i, &rate| {
        run_point(rate, n, seed ^ (i as u64))
    })
}

/// Renders the sweep as a text table.
pub fn render(points: &[ServingPoint]) -> String {
    let mut t = TextTable::new([
        "rate(req/s)",
        "admitted",
        "shed",
        "timed-out",
        "failed",
        "recovered",
        "p50(us)",
        "p99(us)",
        "goodput",
    ]);
    for p in points {
        t.row([
            format!("{:.0}", p.rate_hz),
            p.admitted.to_string(),
            p.shed.to_string(),
            p.timed_out.to_string(),
            p.failed.to_string(),
            p.recoveries.to_string(),
            format!("{:.1}", p.latency.p50_us),
            format!("{:.1}", p.latency.p99_us),
            format!("{:.3}", p.completed as f64 / p.offered.max(1) as f64),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_covers_light_load_and_overload() {
        let pts = run(&[50_000.0, 3_200_000.0], 200, 0xCAFE);
        assert_eq!(pts.len(), 2);
        let light = &pts[0];
        assert_eq!(light.shed, 0, "light load must not shed");
        assert_eq!(light.completed, light.offered);
        let heavy = &pts[1];
        assert!(heavy.shed > 0, "overload must shed: {heavy:?}");
        assert!(!light.telemetry_jsonl.is_empty());
        assert!(light.alerts.is_empty(), "healthy load must not page");
        assert!(!heavy.alerts.is_empty(), "overload must fire SLO alerts");
        assert!(!light.series_jsonl.is_empty(), "series export present");
        let rendered = render(&pts);
        assert!(rendered.contains("p99"));
    }
}
