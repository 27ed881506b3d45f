//! CI gate: cross-validate the analytic fast path against the DES.
//!
//! ```text
//! analytic_check [--sample small|wide] [--seeds N] [--out FILE.jsonl]
//! ```
//!
//! Replays the sampled serving scenarios — single devices and
//! multi-device fleets — through both simulation tiers and holds them
//! to the declared agreement bounds (mean latency ±10%, energy ±5%,
//! throughput ordering preserved — see
//! `cim_bench::experiments::analytic`). On any disagreement the
//! offending bounds are written to `--out` in the telemetry JSON-lines
//! schema (so `telemetry_check` can validate the artifact CI uploads)
//! and the process exits 1.
//!
//! `--sample small` (default) is the four-point per-push gate;
//! `--sample wide` sweeps rates × `--seeds` seeds (× encryption on a
//! single device) for the full gate. The median analytic-over-detailed
//! wall-clock speedup is printed for the record; the recorded baseline
//! lives in `BENCH_analytic.json`.

use cim_bench::experiments::analytic::{
    self, check, compare, median_speedup, ENERGY_TOLERANCE, LATENCY_TOLERANCE,
};
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("analytic_check: {err}");
    eprintln!("usage: analytic_check [--sample small|wide] [--seeds N] [--out FILE.jsonl]");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut sample = "small".to_owned();
    let mut seeds = 2u64;
    let mut out: Option<String> = None;

    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).map(String::as_str);
        match args[i].as_str() {
            "--sample" => match value {
                Some(s @ ("small" | "wide")) => sample = s.to_owned(),
                _ => return usage("--sample needs small or wide"),
            },
            "--seeds" => match value.and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => seeds = n,
                _ => return usage("--seeds needs a positive integer"),
            },
            "--out" => match value {
                Some(p) => out = Some(p.to_owned()),
                None => return usage("--out needs a file path"),
            },
            other => return usage(&format!("unknown flag {other:?}")),
        }
        i += 2;
    }

    let points = if sample == "wide" {
        analytic::wide_sample(seeds)
    } else {
        analytic::small_sample()
    };
    println!(
        "analytic_check: {} point(s), bounds latency ±{:.0}% energy ±{:.0}%",
        points.len(),
        LATENCY_TOLERANCE * 100.0,
        ENERGY_TOLERANCE * 100.0
    );

    let cmps = compare(&points);
    for c in &cmps {
        println!(
            "  {}: latency {:+.2}% energy {:+.2}% (DES {:.1} us / {} fJ) speedup {:.1}x",
            c.scenario.label(),
            c.latency_rel_err() * 100.0,
            c.energy_rel_err() * 100.0,
            c.detailed.mean_latency_us,
            c.detailed.energy_fj,
            c.speedup()
        );
    }
    println!(
        "analytic_check: median analytic speedup {:.1}x (host wall-clock, informational)",
        median_speedup(&cmps)
    );

    let disagreements = check(&cmps);
    if disagreements.is_empty() {
        println!("analytic_check: tiers agree on all {} point(s)", cmps.len());
        return ExitCode::SUCCESS;
    }
    for line in &disagreements {
        eprintln!("FAIL: {line}");
    }
    if let Some(path) = out {
        let mut text = disagreements.join("\n");
        text.push('\n');
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!(
                "analytic_check: {} disagreement line(s) written to {path}",
                disagreements.len()
            ),
            Err(e) => eprintln!("analytic_check: cannot write {path}: {e}"),
        }
    }
    ExitCode::FAILURE
}
