//! Serving-layer throughput — the recorded baseline for the request
//! front-end (`BENCH_serving.json`).
//!
//! Times a full open-loop serving run (boot, admission, dispatch, SLO
//! accounting) at a light-load and an overload operating point, and the
//! boot those runs include on its own: one standard-mix service built
//! and its crossbars programmed, dropped untimed. Wall clock is the only
//! thing that varies between machines; the modeled serving numbers are
//! bit-identical everywhere.
//!
//! ```text
//! cargo bench --bench serving > BENCH_serving.json
//! ```

use cim_bench::experiments::fleet::FleetScenario;
use cim_bench::experiments::serving::{boot_observed, run_threads};
use cim_bench::harness::Group;
use cim_sim::telemetry::TelemetryLevel;

const N_REQUESTS: usize = 150;

fn main() {
    cim_bench::harness::emit_calibration();
    let mut g = Group::new("serving");
    for (name, rate) in [("light_100k", 100_000.0), ("overload_3200k", 3_200_000.0)] {
        // The run is deterministic, so one untimed pre-run gives the
        // point's actual completed-request count; recording that (rather
        // than the offered N_REQUESTS, which overstates the overloaded
        // point) makes elems_per_sec honest and lets bench_compare's
        // exact-throughput check catch functional serving changes.
        let completed = run_threads(&[rate], N_REQUESTS, 0x5E21, 1)
            .pop()
            .expect("one point")
            .completed;
        g.throughput(completed as u64);
        g.bench(&format!("open_loop_{name}"), || {
            // Single-threaded inside the timer: one point, one service.
            run_threads(&[rate], N_REQUESTS, 0x5E21, 1)
                .pop()
                .expect("one point")
                .admitted
        });
    }
    // The boot each point above pays, as `run_threads` performs it.
    let scenario = FleetScenario::single(100_000.0, N_REQUESTS, 0x5E21);
    g.throughput(1);
    g.bench_with_setup(
        "boot_standard_mix",
        || (),
        |_| boot_observed(&scenario, TelemetryLevel::Metrics),
    );
    g.finish();
}
