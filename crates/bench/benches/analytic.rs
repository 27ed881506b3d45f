//! Two-tier serving wall-clock — the recorded baseline for the
//! analytic fast path (`BENCH_analytic.json`).
//!
//! Times the same open-loop serving run (standard three-tenant mix,
//! saturating sample of the load axis) in both simulation tiers, with
//! service boot — class registration and crossbar programming, which
//! the analytic tier does not accelerate — excluded via untimed setup.
//! The analytic/detailed median ratio is the tier's recorded speedup;
//! ci.sh asserts it stays ≥ 10× and `analytic_check` separately gates
//! that the two tiers still agree on the modeled numbers.
//!
//! ```text
//! cargo bench --bench analytic > BENCH_analytic.json
//! ```

use cim_bench::experiments::fleet::{boot, FleetScenario};
use cim_bench::harness::Group;
use cim_fabric::fleet::CimFleet;
use cim_sim::SimMode;

const N_REQUESTS: usize = 150;
const RATE_HZ: f64 = 100_000.0;
const SEED: u64 = 0x5E21;

fn boot_in(mode: SimMode) -> CimFleet {
    boot(
        &FleetScenario::single(RATE_HZ, N_REQUESTS, SEED).in_mode(mode),
        |_| {},
    )
}

fn main() {
    cim_bench::harness::emit_calibration();
    let mut g = Group::new("analytic");
    for (name, mode) in [
        ("serving_detailed", SimMode::Detailed),
        ("serving_analytic", SimMode::Analytic),
    ] {
        // The modeled completed-count is deterministic; record it as the
        // throughput denominator so any functional change to either tier
        // trips bench_compare's exact check, not just the timing window.
        let completed = boot_in(mode)
            .run_open_loop(RATE_HZ, N_REQUESTS, &[])
            .expect("serves")
            .completed;
        g.throughput(completed as u64);
        g.bench_with_setup(
            name,
            || boot_in(mode),
            |fleet| {
                fleet
                    .run_open_loop(RATE_HZ, N_REQUESTS, &[])
                    .expect("serves")
                    .completed
            },
        );
    }
    let reports = g.finish();
    let median = |suffix: &str| {
        reports
            .iter()
            .find(|r| r.name.ends_with(suffix))
            .expect("both tiers benched")
            .median_ns
    };
    // Informational on stdout-captured runs: stderr, so JSONL stays clean.
    eprintln!(
        "analytic: serving speedup {:.1}x (detailed {:.3} ms, analytic {:.3} ms)",
        median("serving_detailed") / median("serving_analytic"),
        median("serving_detailed") / 1e6,
        median("serving_analytic") / 1e6
    );
}
