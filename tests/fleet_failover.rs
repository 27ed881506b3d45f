//! Fleet failover soak: whole-device outages across a multi-device
//! CIM fleet, end to end through the public API — the acceptance gates
//! for the router tier.
//!
//! Run at `CIM_THREADS=1` and `=4` by `ci.sh`; every number asserted
//! here is modeled (sim-time), so thread count cannot move it. The
//! release-scale (one-million-request) version of the same gates is
//! `fleet_smoke`.

use cim::fabric::fleet::{CimFleet, FleetConfig, FleetEvent};
use cim::fabric::FabricConfig;
use cim::sim::time::{SimDuration, SimTime};
use cim::sim::{SeedTree, SimMode};
use cim::workloads::serving::standard_request_mix;
use cim_bench::experiments::fleet::{
    self, compare_with, engineered_outage, run_fleet_with, FleetScenario,
};

fn soak_scenario() -> FleetScenario {
    FleetScenario {
        requests: 20_000,
        ..fleet::default_scenario()
    }
}

/// The tentpole acceptance gate at test scale: a mid-soak whole-device
/// outage voids the requests it catches, re-routes them to surviving
/// replicas, and loses nothing — no double execution, every failover
/// accounted against exactly one voided attempt.
#[test]
fn device_outage_mid_soak_loses_nothing() {
    let s = soak_scenario();
    let r = run_fleet_with(&s, &engineered_outage(&s));
    assert_eq!(r.offered, s.requests);
    assert!(r.failovers >= 1, "outage must catch a request in flight");
    assert!(r.zero_lost(), "zero-loss contract: {r:?}");
    assert_eq!(r.failed, 0);
    assert_eq!(
        r.served_total() as usize,
        r.completed + r.timed_out,
        "no double execution"
    );
    assert_eq!(
        r.voided_total() as usize,
        r.failovers,
        "each failover voids exactly one attempt"
    );
    // The fenced device rejoined routing after DeviceUp.
    assert!(r.per_device[0].served > 0, "device 0 serves after repair");
}

/// Same soak, both platforms: the cluster baseline replays the
/// identical arrival record under mirrored machine outages and must
/// not out-serve the resident-replica fleet.
#[test]
fn cluster_baseline_replays_the_same_workload() {
    let s = FleetScenario {
        requests: 4_000,
        ..soak_scenario()
    };
    let c = compare_with(&s, &engineered_outage(&s));
    assert_eq!(c.cluster.offered, c.fleet.offered, "same arrivals");
    assert!(c.cluster.zero_lost(), "cluster accounts everything");
    assert!(
        c.fleet.goodput() >= c.cluster.goodput(),
        "fleet {:.5} vs cluster {:.5}",
        c.fleet.goodput(),
        c.cluster.goodput()
    );
    // The cluster pays the network on every request; the fleet does not.
    assert!(c.cluster.p50_us >= 2.0, "cluster p50 under the RTT floor");
}

/// Double-run determinism: the full report (fingerprint included) is
/// bit-identical run to run, and the streaming fingerprint covers
/// outcome storage being off.
#[test]
fn soak_reports_are_bit_identical() {
    let s = soak_scenario();
    let events = engineered_outage(&s);
    let a = run_fleet_with(&s, &events);
    let b = run_fleet_with(&s, &events);
    assert_eq!(a, b, "double runs diverge");
    let kept = run_fleet_with(
        &FleetScenario {
            keep_outcomes: true,
            ..s
        },
        &events,
    );
    assert_eq!(kept.fingerprint, a.fingerprint, "storage-independent");
    assert_eq!(kept.outcomes.len(), kept.offered);
}

/// Thread-count invariance: the comparison harness run on one host
/// thread and on four must produce bit-identical modeled results
/// (wall-clock excluded).
#[test]
fn fleet_comparisons_are_thread_invariant() {
    let s = FleetScenario {
        requests: 1_500,
        ..soak_scenario()
    };
    let scenarios = vec![s.clone(), s.seeded(0xF1EE8)];
    let a = fleet::run_threads(&scenarios, 1);
    let b = fleet::run_threads(&scenarios, 4);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.fleet, y.fleet, "fleet side moved with thread count");
        assert_eq!(x.cluster, y.cluster, "cluster side moved with thread count");
    }
}

/// A fresh 4-device fleet with the standard mix resident, for the
/// unmatched-event and flap-semantics pins below.
fn boot() -> CimFleet {
    let mut fleet = CimFleet::new(
        FleetConfig {
            devices: 4,
            replicas: 2,
            fabric: FabricConfig {
                sim_mode: SimMode::Analytic,
                ..FabricConfig::default()
            },
            keep_outcomes: false,
            ..FleetConfig::default()
        },
        SeedTree::new(0xD0E),
    )
    .expect("fleet boots");
    for spec in standard_request_mix() {
        let (g, src, sink) = spec.build_graph(SeedTree::new(0xD0E ^ 0xC1A55));
        fleet
            .register_class(spec.name, g, src, sink, spec.deadline, spec.weight)
            .expect("mix fits");
    }
    fleet
}

/// A DeviceUp with no preceding outage and an outage that never ends
/// both behave: the former is a no-op, the latter fences the device for
/// the rest of the run while its replica partner carries the class.
#[test]
fn unmatched_device_events_behave() {
    // Up with no outage: identical to no events at all.
    let clean = boot().run_open_loop(100_000.0, 500, &[]).expect("serves");
    let noop_up = boot()
        .run_open_loop(
            100_000.0,
            500,
            &[FleetEvent::DeviceUp {
                at: SimTime::from_ns(1_000),
                device: 2,
            }],
        )
        .expect("serves");
    assert_eq!(clean.fingerprint, noop_up.fingerprint);
    // Down forever: still zero-loss, the partner replica carries it.
    let fenced = boot()
        .run_open_loop(
            100_000.0,
            500,
            &[FleetEvent::DeviceDown {
                at: SimTime::from_ns(1_000),
                device: 0,
            }],
        )
        .expect("serves");
    assert!(fenced.zero_lost(), "{fenced:?}");
    assert!(
        fenced.per_device[1].served > 0,
        "replica partner carries the fenced device's class"
    );
}

/// Flapping and shadowed events are no-ops and failover accounting
/// stays exact: a second DeviceDown inside the detection window, a
/// crash while the device is already dark, and a second DeviceUp after
/// the repair all leave the run identical to the clean down/up pair —
/// and `voided_total() == failovers` throughout.
#[test]
fn flapping_and_shadowed_events_keep_failover_accounting_exact() {
    let down = SimTime::from_ns(1_000);
    let up = SimTime::from_ns(50_000);
    let clean = boot()
        .run_open_loop(
            100_000.0,
            500,
            &[
                FleetEvent::DeviceDown {
                    at: down,
                    device: 0,
                },
                FleetEvent::DeviceUp { at: up, device: 0 },
            ],
        )
        .expect("serves");
    let flapped = boot()
        .run_open_loop(
            100_000.0,
            500,
            &[
                FleetEvent::DeviceDown {
                    at: down,
                    device: 0,
                },
                // Inside the 2 µs detection window: shadowed.
                FleetEvent::DeviceDown {
                    at: down + SimDuration::from_ns(500),
                    device: 0,
                },
                // Crash while the device is already dark: shadowed too —
                // a device with no power cannot lose power again.
                FleetEvent::PowerLoss {
                    at: SimTime::from_ns(10_000),
                    device: 0,
                    restart_after: SimDuration::from_us(5),
                },
                FleetEvent::DeviceUp { at: up, device: 0 },
                // Second repair with nothing to repair: no-op.
                FleetEvent::DeviceUp {
                    at: up + SimDuration::from_us(10),
                    device: 0,
                },
            ],
        )
        .expect("serves");
    assert_eq!(
        clean.fingerprint, flapped.fingerprint,
        "shadowed/unmatched events must not perturb the run"
    );
    assert_eq!(flapped.crashes, 0, "a shadowed crash never fires");
    for r in [&clean, &flapped] {
        assert!(r.zero_lost(), "{r:?}");
        assert_eq!(
            r.voided_total() as usize,
            r.failovers,
            "each failover voids exactly one attempt"
        );
    }
}
