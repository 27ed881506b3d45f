//! Fleet serving wall-clock — the recorded baseline for the
//! multi-device router tier (`BENCH_fleet.json`).
//!
//! Times one fleet failover comparison (CIM fleet with the standard
//! two-outage campaign, then the cluster baseline replaying the same
//! arrival record) at a bench-sized request count. Fleet boot — device
//! construction, class registration and crossbar programming — runs
//! in untimed setup, so the fleet record is the serving run alone. Wall
//! clock is the only thing that varies between machines; the modeled
//! fleet numbers are bit-identical everywhere.
//!
//! ```text
//! cargo bench --bench fleet > BENCH_fleet.json
//! ```

use cim_bench::experiments::fleet::{
    boot, cluster_classes, cluster_state_bytes, default_scenario, machine_events, outage_events,
    run_fleet, FleetScenario,
};
use cim_bench::harness::Group;
use cim_fabric::service::ServiceConfig;

const N_REQUESTS: usize = 600;

fn main() {
    cim_bench::harness::emit_calibration();
    let scenario = FleetScenario {
        requests: N_REQUESTS,
        ..default_scenario()
    };
    let mut g = Group::new("fleet");

    // Deterministic pre-run for the honest throughput denominator (the
    // completed count, not the offered count).
    let pre = run_fleet(&scenario);
    g.throughput(pre.completed as u64);
    let outages = outage_events(&scenario);
    g.bench_with_setup(
        "failover_analytic_4dev",
        || boot(&scenario, |_| {}),
        |fleet| {
            fleet
                .run_open_loop(scenario.rate_hz, scenario.requests, &outages)
                .expect("fleet serves")
                .completed
        },
    );

    // The cluster side replays a fixed arrival record; time just the
    // replay so the record reflects the baseline model, not the fleet.
    let arrivals = pre.arrivals;
    let cfg = cim_baseline::serving::ClusterServeConfig::like_fleet(
        scenario.devices,
        scenario.replicas,
        ServiceConfig::default().queue_capacity,
        cluster_state_bytes(),
    );
    let classes = cluster_classes();
    let events = machine_events(&outages);
    let cluster_completed =
        cim_baseline::serving::serve(&cfg, &classes, &arrivals, &events).completed;
    g.throughput(cluster_completed as u64);
    g.bench("cluster_replay_4dev", || {
        cim_baseline::serving::serve(&cfg, &classes, &arrivals, &events).completed
    });
    g.finish();
}
