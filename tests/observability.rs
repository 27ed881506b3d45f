//! Integration tests for the observability pipeline (`cim_obs`): SLO
//! burn-rate alerting polarity on the serving stack, interpolated
//! histogram quantiles on a real workload, and span-profile totals
//! reconciling with the end-to-end run.

use cim::fabric::fleet::FleetReport;
use cim::fabric::service::{CimService, ServiceConfig};
use cim::fabric::FabricConfig;
use cim::obs::profile::Profile;
use cim::obs::{AlertSeverity, ObsConfig};
use cim::sim::telemetry::{Telemetry, TelemetryLevel};
use cim::sim::SeedTree;
use cim::workloads::serving::standard_request_mix;

fn serve(rate_hz: f64, n: usize, level: TelemetryLevel) -> (FleetReport, Telemetry) {
    let mut svc = CimService::new(
        FabricConfig::default(),
        ServiceConfig::default(),
        SeedTree::new(0x0B5),
    )
    .expect("service boots");
    svc.runtime_mut().device_mut().enable_telemetry(level);
    svc.enable_observability(ObsConfig::default());
    for spec in standard_request_mix() {
        let (g, src, sink) = spec.build_graph(SeedTree::new(0x0B5 ^ 0x7E4A47));
        svc.register_class(spec.name, g, src, sink, spec.deadline, spec.weight)
            .expect("mix is resident");
    }
    let r = svc.run_open_loop(rate_hz, n, &[]).expect("stream serves");
    let tel = svc.runtime().device().telemetry().clone();
    (r, tel)
}

#[test]
fn healthy_load_fires_no_alerts_and_overload_pages_deterministically() {
    let (healthy, _) = serve(100_000.0, 300, TelemetryLevel::Metrics);
    assert_eq!(healthy.shed, 0, "healthy point must not shed");
    assert!(
        healthy.alerts.is_empty(),
        "healthy point must not alert: {:?}",
        healthy.alerts
    );
    assert!(!healthy.series_jsonl.is_empty(), "series export present");

    let (overload, _) = serve(3_200_000.0, 300, TelemetryLevel::Metrics);
    assert!(overload.shed > 0, "overload must shed");
    let pages: Vec<_> = overload
        .alerts
        .iter()
        .filter(|a| a.severity == AlertSeverity::Page)
        .collect();
    assert!(
        !pages.is_empty(),
        "overload must page: {:?}",
        overload.alerts
    );
    // The alert timeline is a pure function of seed + workload: a second
    // run must reproduce every alert — rule, tenant, burn and sim time —
    // exactly, and the timeline is sorted by sim time.
    let (again, _) = serve(3_200_000.0, 300, TelemetryLevel::Metrics);
    assert_eq!(
        again.alerts, overload.alerts,
        "alert timeline is deterministic"
    );
    assert!(
        overload.alerts.windows(2).all(|w| w[0].at <= w[1].at),
        "alerts are time-sorted"
    );
    assert_eq!(
        again.series_jsonl, overload.series_jsonl,
        "series bytes stable"
    );
}

#[test]
fn interpolated_quantiles_track_exact_percentiles_on_a_serving_run() {
    // Latencies from a real serving run land in the registry's log2
    // histogram; the interpolated quantile must agree with the exact
    // sample percentile to within one histogram bucket width.
    let (r, tel) = serve(400_000.0, 300, TelemetryLevel::Metrics);
    assert!(r.completed > 50, "enough completions to compare quantiles");
    let service = tel.component("service");
    let hist = tel
        .with_registry(|reg| reg.histogram(service, "latency_ns").cloned())
        .flatten()
        .expect("service latency histogram exists");
    for q in [0.5, 0.95, 0.99] {
        let interp = hist.quantile(q).expect("non-empty histogram");
        assert!(interp.is_finite() && interp > 0.0, "q{q}: {interp}");
    }
    // p50 from the interpolated histogram vs the report's exact p50:
    // same histogram bucket (factor-of-2 bracket).
    let p50_ns = r.latency.p50_us * 1000.0;
    let interp50 = hist.quantile(0.5).unwrap();
    assert!(
        interp50 <= p50_ns * 2.0 && interp50 >= p50_ns / 2.0,
        "interpolated p50 {interp50} ns vs exact {p50_ns} ns"
    );
}

#[test]
fn span_profile_totals_reconcile_with_the_end_to_end_run() {
    let (r, tel) = serve(100_000.0, 100, TelemetryLevel::Full);
    assert_eq!(r.failed, 0, "healthy run");
    let profile = Profile::from_telemetry(&tel, 32);
    assert!(profile.span_count > 0, "full tracing records spans");
    // Self-time decomposition is exact: summed flamegraph self weights
    // equal the root spans' total duration and energy.
    assert_eq!(
        profile.total_self_ps, profile.root_ps,
        "self-time shares must sum to the end-to-end total"
    );
    assert_eq!(
        profile.total_self_fj, profile.root_fj,
        "self-energy shares must sum to the end-to-end total"
    );
    // Folded stacks parse as `frames weight` lines with positive weights
    // summing to the same totals.
    let folded = profile.folded_time();
    let mut sum: u64 = 0;
    for line in folded.lines() {
        let (stack, w) = line.rsplit_once(' ').expect("folded line");
        assert!(!stack.is_empty());
        sum += w.parse::<u64>().expect("weight parses");
    }
    assert_eq!(sum, profile.total_self_ps, "folded weights sum to total");
    // Profile JSONL validates and double-folding is byte-stable.
    for line in profile.export_jsonl().lines() {
        cim::sim::telemetry::validate_jsonl_line(line).expect("profile line valid");
    }
    let again = Profile::from_telemetry(&tel, 32);
    assert_eq!(again.folded_time(), folded, "folded stacks byte-stable");
}
