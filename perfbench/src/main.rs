//! Host-cost benchmark of the CIM serving simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload detailed_light --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Untraced (`--trace 0`): boots a fresh target per sample, times boot
//! and the serving call separately, and prints every end-to-end metric
//! (see `BENCHMARK.json`). Traced (`--trace 1`): alternates untraced
//! samples with traced ones whose cost is attributed to each layer by
//! timing the benchmark's own calls into that layer's public entry
//! points, and prints the per-layer metrics. The last stdout line is one
//! JSON object. `--brief` runs a handful of requests per workload (the
//! self-check in `tests/`).

mod alloc;
mod probe;
mod report;
mod trace;
mod workload;

use report::Report;
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Parsed command line.
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of the timed streams.
    pub seed: u64,
    /// Length of the timed loop.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
    /// A handful of requests only.
    pub brief: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut brief = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| e.to_string())?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v}")),
                }
            }
            "--brief" => brief = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        brief,
    })
}

fn main() {
    // Serving runs are single-threaded and thread-invariant; pin the
    // simulator's host pool so runs compare on any core count.
    std::env::set_var("CIM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--brief]",
                workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let report: Report = if args.trace {
        trace::run(&args)
    } else {
        report::untraced(&args)
    };
    report.print();
}
