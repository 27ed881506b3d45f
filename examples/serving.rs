//! Serving: a CIM device as a multi-tenant inference service.
//!
//! Boots a [`CimService`], registers the standard three-tenant request
//! mix as resident programs, then drives an open-loop arrival stream
//! through three regimes:
//!
//! 1. light load — every request meets its SLO;
//! 2. saturation — the bounded admission queue sheds load and p99 of
//!    *admitted* requests stays bounded;
//! 3. faults — units die under the stream mid-flight; §V.A spare
//!    recovery plus service-level retry keep every request accounted.
//!
//! Every run carries the observability pipeline: per-tenant SLO
//! burn-rate tracking prints an alert timeline (healthy points stay
//! silent, overload pages), and a final span-traced run folds the
//! service's spans into a flamegraph + per-component utilization
//! walkthrough.
//!
//! Run with `cargo run --release --example serving`. Pass
//! `--telemetry out.jsonl` to export the full observability stream
//! (metrics + series + alerts + profile) as validated JSON lines.

use cim::fabric::fleet::FleetReport;
use cim::fabric::service::{CimService, ServiceConfig, ServiceEvent};
use cim::fabric::FabricConfig;
use cim::obs::profile::Profile;
use cim::obs::{alerts_jsonl, ObsConfig};
use cim::sim::telemetry::TelemetryLevel;
use cim::sim::time::SimTime;
use cim::sim::SeedTree;
use cim::workloads::serving::standard_request_mix;
use std::error::Error;

fn boot(seed: u64, level: TelemetryLevel) -> Result<CimService, Box<dyn Error>> {
    let mut svc = CimService::new(
        FabricConfig::default(),
        ServiceConfig::default(),
        SeedTree::new(seed),
    )?;
    svc.runtime_mut().device_mut().enable_telemetry(level);
    svc.enable_observability(ObsConfig::default());
    for spec in standard_request_mix() {
        let (g, src, sink) = spec.build_graph(SeedTree::new(seed ^ 0xC1A55));
        svc.register_class(spec.name, g, src, sink, spec.deadline, spec.weight)?;
    }
    Ok(svc)
}

fn print_alerts(r: &FleetReport) {
    for a in &r.alerts {
        println!(
            "      ALERT t={:>9} ns [{}] {} tenant={} burn={:.2}",
            a.at.as_ps() / 1000,
            a.severity.name(),
            a.rule,
            a.tenant,
            a.burn_rate
        );
    }
}

fn main() -> Result<(), Box<dyn Error>> {
    let (_, tel_path) = cim::obs::export::split_telemetry_arg(std::env::args().skip(1));

    println!("== CIM serving: open-loop request stream ==\n");
    println!(
        "{:>12} {:>8} {:>6} {:>6} {:>8} {:>8} {:>9} {:>9} {:>7}",
        "rate(req/s)", "admitted", "shed", "t/o", "failed", "recov", "p50(us)", "p99(us)", "alerts"
    );
    for rate in [20_000.0, 100_000.0, 400_000.0, 1_600_000.0] {
        let mut svc = boot(0x5E21, TelemetryLevel::Metrics)?;
        let r = svc.run_open_loop(rate, 400, &[])?;
        println!(
            "{:>12} {:>8} {:>6} {:>6} {:>8} {:>8} {:>9.1} {:>9.1} {:>7}",
            rate as u64,
            r.admitted,
            r.shed,
            r.timed_out,
            r.failed,
            r.recoveries,
            r.latency.p50_us,
            r.latency.p99_us,
            r.alerts.len()
        );
        print_alerts(&r);
    }

    println!("\n== same stream, three unit failures injected ==\n");
    let mut svc = boot(0x5E21, TelemetryLevel::Metrics)?;
    // Kill three units that host nodes of the interactive tenant while
    // the stream is in flight.
    let job = svc.class_job(0).expect("registered");
    let prog = svc.runtime().program(job).expect("resident").clone();
    let victims: Vec<usize> = prog.placement().node_to_unit[1..4].to_vec();
    let events: Vec<ServiceEvent> = victims
        .iter()
        .enumerate()
        .map(|(i, &unit)| ServiceEvent::FailUnit {
            at: SimTime::from_ns(((i + 1) * 300_000) as u64),
            unit,
        })
        .collect();
    let r = svc.run_open_loop(100_000.0, 400, &events)?;
    println!(
        "failed units {:?}: admitted {}, shed {}, timed-out {}, failed {}, recoveries {}, \
         p99 {:.1} us, zero lost = {}",
        victims,
        r.admitted,
        r.shed,
        r.timed_out,
        r.failed,
        r.recoveries,
        r.latency.p99_us,
        r.zero_lost()
    );
    print_alerts(&r);
    assert!(r.zero_lost(), "no request may be lost under unit failures");

    // Span-traced run: fold the service's span tree into a flamegraph
    // and per-component utilization. Full tracing is heavier, so this
    // uses a shorter stream at a healthy rate.
    println!("\n== span-derived profile (flamegraph + utilization) ==\n");
    let mut svc = boot(0x5E21, TelemetryLevel::Full)?;
    let r = svc.run_open_loop(100_000.0, 100, &[])?;
    let tel = svc.runtime().device().telemetry();
    let profile = Profile::from_telemetry(tel, 32);
    print!("{}", profile.render_text(12));

    if let Some(path) = tel_path {
        let extra = [
            r.series_jsonl.as_str(),
            &alerts_jsonl(&r.alerts),
            &profile.export_jsonl(),
        ];
        let lines = cim::obs::export::write_export_with(tel, &extra, &path)
            .map_err(|e| format!("telemetry export failed: {e}"))?;
        println!(
            "\ntelemetry: {lines} validated lines (metrics + series + alerts + profile) \
             written to {}",
            path.display()
        );
    }
    Ok(())
}
