//! Power-loss soak: every device in the fleet crashes once mid-stream
//! and the detectable-recovery contract holds end to end through the
//! public API:
//!
//! - no completed request is lost across a crash,
//! - no request executes twice (exact served/voided accounting, every
//!   restore pristine),
//! - double-run determinism — reports *and* telemetry exports are
//!   byte-identical, at 1 and 4 host threads.
//!
//! Run at `CIM_THREADS=1` and `=4` by `ci.sh`; the release-scale
//! version of the same gates is `fleet_smoke powerloss`.

use cim::fabric::fleet::{CimFleet, FleetConfig, FleetEvent, FleetReport};
use cim::fabric::FabricConfig;
use cim::sim::telemetry::TelemetryLevel;
use cim::sim::time::{SimDuration, SimTime};
use cim::sim::{SeedTree, SimMode};
use cim::workloads::serving::standard_request_mix;

const DEVICES: usize = 4;
const REQUESTS: usize = 4_000;
// Hot enough that every device has work in flight essentially always,
// so each crash's dark window catches a live execution.
const RATE_HZ: f64 = 1_000_000.0;

/// One crash per device, staggered across the middle of the stream so
/// every dark window catches arrivals in flight and no two devices are
/// ever dark at once (each restart is 20 µs, the stagger is ~2.5 ms).
fn crash_events() -> Vec<FleetEvent> {
    let span_ps = (REQUESTS as f64 / RATE_HZ * 1e12) as u64;
    (0..DEVICES)
        .map(|d| FleetEvent::PowerLoss {
            at: SimTime::from_ps(span_ps * (2 * d as u64 + 1) / (2 * DEVICES as u64)),
            device: d,
            restart_after: SimDuration::from_us(20),
        })
        .collect()
}

/// Boots a fresh fleet with telemetry on every device, runs the crash
/// campaign, and returns the report plus the concatenated telemetry
/// export.
fn soak() -> (FleetReport, String) {
    let mut fleet = CimFleet::new(
        FleetConfig {
            devices: DEVICES,
            replicas: 2,
            fabric: FabricConfig {
                sim_mode: SimMode::Analytic,
                ..FabricConfig::default()
            },
            keep_outcomes: false,
            ..FleetConfig::default()
        },
        SeedTree::new(0x9055),
    )
    .expect("fleet boots");
    let tels: Vec<_> = (0..DEVICES)
        .map(|d| {
            fleet
                .runtime_mut(d)
                .device_mut()
                .enable_telemetry(TelemetryLevel::Full)
        })
        .collect();
    for spec in standard_request_mix() {
        let (g, src, sink) = spec.build_graph(SeedTree::new(0x9055 ^ 0xC1A55));
        fleet
            .register_class(spec.name, g, src, sink, spec.deadline, spec.weight)
            .expect("mix fits");
    }
    let report = fleet
        .run_open_loop(RATE_HZ, REQUESTS, &crash_events())
        .expect("serves");
    let telemetry: String = tels.iter().map(|t| t.export_jsonl()).collect();
    (report, telemetry)
}

/// The contract's first two clauses at soak scale: crashing every
/// device once loses nothing, double-counts nothing, and every restart
/// restores a pristine volatile image.
#[test]
fn crashing_every_device_once_recovers_everything() {
    let (r, telemetry) = soak();
    assert_eq!(r.offered, REQUESTS);
    assert!(r.zero_lost(), "no completed request lost: {r:?}");
    assert_eq!(r.failed, 0, "crashes are recoverable, not hard faults");
    assert_eq!(r.crashes, DEVICES, "every device crashed exactly once");
    assert_eq!(r.dirty_restores, 0, "every restore pristine");
    assert!(r.failovers >= 1, "the crashes must catch work in flight");
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
    // Every device served after its restart (the campaign spans the
    // whole stream, so a device that never came back would starve).
    for (d, per) in r.per_device.iter().enumerate() {
        assert!(per.served > 0, "device {d} never served: {r:?}");
    }
    assert!(!telemetry.is_empty());
}

/// The contract's third clause: double runs are bit-identical, report
/// and telemetry export alike, at 1 and at 4 host threads.
#[test]
fn crash_soaks_are_byte_identical_across_runs_and_threads() {
    let serial = cim::sim::pool::parallel_map_threads(1, &[0u8, 1], |_, _| soak());
    let parallel = cim::sim::pool::parallel_map_threads(4, &[0u8, 1], |_, _| soak());
    let (first_report, first_tel) = &serial[0];
    for (r, t) in serial.iter().chain(&parallel) {
        assert_eq!(r, first_report, "crash recovery must be deterministic");
        assert_eq!(
            t, first_tel,
            "telemetry must be byte-identical across double runs"
        );
    }
}
