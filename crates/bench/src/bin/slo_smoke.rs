//! SLO burn-rate smoke check for CI.
//!
//! ```text
//! slo_smoke [--requests N] [--artifacts DIR]
//! ```
//!
//! Runs the standard three-tenant serving mix at two operating points
//! and checks the observability pipeline's alerting polarity:
//!
//! - **healthy** (100 kreq/s): every request meets its SLO, so the SLO
//!   engine must fire **zero** alerts;
//! - **overload** (3.2 Mreq/s): the admission queue sheds and deadlines
//!   blow, so the engine must fire at least one **page**-severity alert
//!   at a deterministic sim time (printed, and identical at every
//!   `CIM_THREADS`).
//!
//! Exit 0 when both polarities hold, 1 otherwise.
//!
//! `--artifacts DIR` additionally runs the overload point once with
//! full span tracing and writes the CI artifact set: `serving_obs.jsonl`
//! (metrics + series + alert + profile records, schema-validated),
//! `serving_time.folded` / `serving_energy.folded` (flamegraph folded
//! stacks, time and energy weighted), and `serving_utilization.txt`
//! (per-component busy/idle timeline).

use cim_bench::experiments::fleet::FleetScenario;
use cim_bench::experiments::serving;
use cim_obs::profile::Profile;
use cim_obs::{alerts_jsonl, AlertSeverity};
use cim_sim::telemetry::TelemetryLevel;
use std::path::Path;
use std::process::ExitCode;

const HEALTHY_HZ: f64 = 100_000.0;
const OVERLOAD_HZ: f64 = 3_200_000.0;
const SEED: u64 = 0x0005_1057;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut requests = 400usize;
    let mut artifacts: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--requests" => match args.get(i + 1).and_then(|v| v.parse().ok()) {
                Some(n) => requests = n,
                None => return usage("--requests needs a positive count"),
            },
            "--artifacts" => match args.get(i + 1) {
                Some(d) => artifacts = Some(d.clone()),
                None => return usage("--artifacts needs a directory"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
        i += 2;
    }

    let pts = serving::run(&[HEALTHY_HZ, OVERLOAD_HZ], requests, SEED);
    let healthy = &pts[0];
    let overload = &pts[1];

    println!(
        "healthy  {:>9} req/s: {} completed, {} shed, {} alert(s)",
        HEALTHY_HZ as u64,
        healthy.completed,
        healthy.shed,
        healthy.alerts.len()
    );
    println!(
        "overload {:>9} req/s: {} completed, {} shed, {} alert(s)",
        OVERLOAD_HZ as u64,
        overload.completed,
        overload.shed,
        overload.alerts.len()
    );
    for a in &overload.alerts {
        println!(
            "  ALERT t={:>12} ps [{}] {} tenant={} burn={:.2}",
            a.at.as_ps(),
            a.severity.name(),
            a.rule,
            a.tenant,
            a.burn_rate
        );
    }

    let mut ok = true;
    if !healthy.alerts.is_empty() {
        eprintln!(
            "FAIL: healthy point fired {} alert(s); expected zero",
            healthy.alerts.len()
        );
        ok = false;
    }
    let pages = overload
        .alerts
        .iter()
        .filter(|a| a.severity == AlertSeverity::Page)
        .count();
    if pages == 0 {
        eprintln!("FAIL: overload point fired no page-severity alert");
        ok = false;
    }

    if let Some(dir) = artifacts {
        if let Err(e) = write_artifacts(Path::new(&dir), requests) {
            eprintln!("FAIL: artifacts: {e}");
            ok = false;
        }
    }

    if ok {
        println!("slo_smoke: OK (healthy silent, overload pages)");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the overload point once with full span tracing and writes the
/// observability artifact set. Overload (not healthy) so the export
/// carries all three record families — `series`, `alert` *and*
/// `profile` — which CI pins with `telemetry_check --require-kinds`.
fn write_artifacts(dir: &Path, requests: usize) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Span tracing is heavy; a shorter stream keeps the artifact run fast
    // while still exercising every tenant.
    let s = FleetScenario::single(OVERLOAD_HZ, requests.min(100), SEED);
    let mut fleet = serving::boot_observed(&s, TelemetryLevel::Full);
    let r = fleet
        .run_open_loop(s.rate_hz, s.requests, &[])
        .map_err(|e| format!("run: {e}"))?;
    let tel = fleet.runtime(0).device().telemetry();
    let profile = Profile::from_telemetry(tel, 32);

    let obs_path = dir.join("serving_obs.jsonl");
    let extra = [
        r.series_jsonl.as_str(),
        &alerts_jsonl(&r.alerts),
        &profile.export_jsonl(),
    ];
    let lines = cim_obs::export::write_export_with(tel, &extra, &obs_path)
        .map_err(|e| format!("write {}: {e}", obs_path.display()))?;

    let write = |name: &str, text: String| -> Result<(), String> {
        let p = dir.join(name);
        std::fs::write(&p, text).map_err(|e| format!("write {}: {e}", p.display()))
    };
    write("serving_time.folded", profile.folded_time())?;
    write("serving_energy.folded", profile.folded_energy())?;
    write("serving_utilization.txt", profile.render_text(16))?;
    println!(
        "artifacts: {} obs lines + folded stacks + utilization in {}",
        lines,
        dir.display()
    );
    Ok(())
}

fn usage(err: &str) -> ExitCode {
    eprintln!("slo_smoke: {err}");
    eprintln!("usage: slo_smoke [--requests N] [--artifacts DIR]");
    ExitCode::FAILURE
}
