//! Serving oracle: golden outputs of the request-serving tier.
//!
//! One scenario table drives every case. A row boots a target (one
//! [`CimService`] or a multi-device [`CimFleet`]), serves one open-loop
//! stream and pins what the run exported:
//!
//! - an FNV-1a digest of the outcomes, in [`FleetReport::fingerprint`]'s
//!   byte layout;
//! - every count, and the fleet's failover accounting on fleet rows;
//! - the bits of every latency statistic;
//! - the alert timeline (count and digest of its JSON lines);
//! - digests of the series export and of the device telemetry export.
//!
//! A change to the serving path that claims to be a pure refactor must
//! keep every row byte-identical. On a mismatch the test prints each
//! failing row's observed values as a replacement literal.
//!
//! The second test pins an equivalence the fleet claims: a [`CimFleet`]
//! with one device and one replica, built from a service's
//! configuration, returns the same report and the same telemetry as the
//! service on every service row.

use cim::fabric::fleet::{CimFleet, FleetConfig, FleetEvent, FleetReport};
use cim::fabric::service::{CimService, RequestOutcome, ServiceConfig, ServiceEvent};
use cim::fabric::{engine::InjectionKind, FabricConfig};
use cim::sim::telemetry::{Telemetry, TelemetryLevel};
use cim::sim::time::{SimDuration, SimTime};
use cim::sim::{SeedTree, SimMode};
use cim::workloads::serving::standard_request_mix;
use cim_crossbar::dpe::DpeConfig;
use cim_dataflow::graph::{DataflowGraph, GraphBuilder, NodeRef};
use cim_dataflow::ops::{Elementwise, Operation};
use cim_fabric::service::Disposition;
use cim_noc::packet::NodeId;

/// Root seed of every target in the table.
const SEED: u64 = 0x5EED;

/// FNV-1a over bytes (the same parameters as the fleet fingerprint).
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// FNV-1a over the outcomes as little-endian words, in
/// [`FleetReport::fingerprint`]'s layout.
fn outcome_digest(outcomes: &[RequestOutcome]) -> u64 {
    let mut words = Vec::new();
    for o in outcomes {
        words.extend([o.id, o.class as u64, o.arrival.as_ps()]);
        match &o.disposition {
            Disposition::Completed {
                finished,
                attempts,
                recovered,
                output,
            } => {
                words.extend([1, finished.as_ps(), u64::from(*attempts)]);
                words.push(u64::from(*recovered));
                words.extend(output.iter().map(|v| v.to_bits()));
            }
            Disposition::TimedOut { finished, attempts } => {
                words.extend([2, finished.as_ps(), u64::from(*attempts)]);
            }
            Disposition::Shed => words.push(3),
            Disposition::Failed { attempts } => words.extend([4, u64::from(*attempts)]),
        }
    }
    let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    fnv(&bytes)
}

/// What one run exported, condensed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observed {
    /// [`outcome_digest`] of the report's outcomes.
    outcomes: u64,
    /// offered, admitted, shed, completed, timed_out, failed,
    /// recoveries, retries, crashes, dirty_restores.
    counts: [usize; 10],
    /// p50, p95, p99, mean and max latency, as `f64` bits.
    latency: [u64; 5],
    /// Alert count and the FNV-1a of their JSON-lines rendering.
    alerts: (usize, u64),
    /// FNV-1a of the series export.
    series: u64,
    /// FNV-1a of the device telemetry export (every device, in order).
    telemetry: u64,
    /// Fleet rows only: failovers, served total, voided total.
    fleet: [u64; 3],
}

impl Observed {
    /// The row literal that would make this observation the golden.
    fn literal(&self) -> String {
        let hex = |v: &[u64]| {
            v.iter()
                .map(|x| format!("{x:#018x}"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        format!(
            "Observed {{ outcomes: {:#018x}, counts: {:?}, latency: [{}], alerts: ({}, {:#018x}), \
             series: {:#018x}, telemetry: {:#018x}, fleet: {:?} }}",
            self.outcomes,
            self.counts,
            hex(&self.latency),
            self.alerts.0,
            self.alerts.1,
            self.series,
            self.telemetry,
            self.fleet
        )
    }
}

/// Condenses any serving report with the service's field set.
macro_rules! observe {
    ($report:expr, $telemetry:expr) => {{
        let r = &$report;
        Observed {
            outcomes: outcome_digest(&r.outcomes),
            counts: [
                r.offered,
                r.admitted,
                r.shed,
                r.completed,
                r.timed_out,
                r.failed,
                r.recoveries,
                r.retries,
                r.crashes,
                r.dirty_restores,
            ],
            latency: [
                r.latency.p50_us.to_bits(),
                r.latency.p95_us.to_bits(),
                r.latency.p99_us.to_bits(),
                r.latency.mean_us.to_bits(),
                r.latency.max_us.to_bits(),
            ],
            alerts: (
                r.alerts.len(),
                fnv(cim_obs::alerts_jsonl(&r.alerts).as_bytes()),
            ),
            series: fnv(r.series_jsonl.as_bytes()),
            telemetry: fnv($telemetry.as_bytes()),
            fleet: [0; 3],
        }
    }};
}

/// The tenant classes a row registers.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// One source → relu → sink class on four lanes, deadline in µs.
    Relu(u64),
    /// The standard three-tenant MLP mix.
    Standard,
}

type Class = (
    &'static str,
    DataflowGraph,
    NodeRef,
    NodeRef,
    SimDuration,
    u32,
);

fn classes(mix: Mix) -> Vec<Class> {
    match mix {
        Mix::Relu(deadline_us) => {
            let mut b = GraphBuilder::new();
            let s = b.add("s", Operation::Source { width: 4 });
            let m = b.add(
                "m",
                Operation::Map {
                    func: Elementwise::Relu,
                    width: 4,
                },
            );
            let k = b.add("k", Operation::Sink { width: 4 });
            b.chain(&[s, m, k]).expect("chain");
            let g = b.build().expect("valid");
            vec![("tiny", g, s, k, SimDuration::from_us(deadline_us), 1)]
        }
        Mix::Standard => standard_request_mix()
            .into_iter()
            .map(|spec| {
                let (g, s, k) = spec.build_graph(SeedTree::new(0xC1A55));
                (spec.name, g, s, k, spec.deadline, spec.weight)
            })
            .collect(),
    }
}

/// What a row serves on.
enum Target {
    /// One service with service-level events.
    Service {
        fabric: FabricConfig,
        cfg: ServiceConfig,
        events: Vec<ServiceEvent>,
    },
    /// A multi-device fleet with fleet-level events.
    Fleet {
        cfg: FleetConfig,
        events: Vec<FleetEvent>,
    },
}

struct Row {
    name: &'static str,
    target: Target,
    mix: Mix,
    rate_hz: f64,
    requests: usize,
    /// Attach the observability pipeline.
    obs: bool,
    /// Turn device telemetry on at `Metrics` (exported and digested).
    telemetry: bool,
    golden: Observed,
}

/// A `units × 1` mesh of ideal single-unit tiles.
fn line(units: usize) -> FabricConfig {
    FabricConfig {
        mesh_width: units,
        mesh_height: 1,
        units_per_tile: 1,
        dpe: DpeConfig::ideal(),
        ..FabricConfig::default()
    }
}

fn tier(mode: SimMode) -> FabricConfig {
    FabricConfig {
        sim_mode: mode,
        ..FabricConfig::default()
    }
}

fn service(fabric: FabricConfig, cfg: ServiceConfig, events: Vec<ServiceEvent>) -> Target {
    Target::Service {
        fabric,
        cfg,
        events,
    }
}

/// The four-device, two-replica analytic fleet of the fleet rows.
fn fleet(devices: usize, replicas: usize, events: Vec<FleetEvent>) -> Target {
    Target::Fleet {
        cfg: FleetConfig {
            devices,
            replicas,
            fabric: tier(SimMode::Analytic),
            ..FleetConfig::default()
        },
        events,
    }
}

fn us(v: u64) -> SimTime {
    SimTime::from_ns(v * 1_000)
}

fn fail(at: SimTime, unit: usize) -> ServiceEvent {
    ServiceEvent::FailUnit { at, unit }
}

fn repair(at: SimTime, unit: usize) -> ServiceEvent {
    ServiceEvent::RepairUnit { at, unit }
}

fn crash(at: SimTime, restart_us: u64) -> ServiceEvent {
    ServiceEvent::PowerLoss {
        at,
        restart_after: SimDuration::from_us(restart_us),
    }
}

fn inject(at: SimTime, kind: InjectionKind) -> ServiceEvent {
    ServiceEvent::Inject { at, kind }
}

fn link(ax: u16, bx: u16) -> (NodeId, NodeId) {
    (NodeId::new(ax, 0), NodeId::new(bx, 0))
}

fn down(at: SimTime, device: usize) -> FleetEvent {
    FleetEvent::DeviceDown { at, device }
}

fn up(at: SimTime, device: usize) -> FleetEvent {
    FleetEvent::DeviceUp { at, device }
}

fn fleet_crash(at: SimTime, device: usize, restart_us: u64) -> FleetEvent {
    FleetEvent::PowerLoss {
        at,
        device,
        restart_after: SimDuration::from_us(restart_us),
    }
}

/// Mid-point (+1 ps) of the first request's execution on a `line(4)`
/// relu service at 100k req/s: a crash here straddles that request.
const MID_FIRST_REQUEST: u64 = 56_138_887;

fn link_cut_and_congestion() -> Vec<ServiceEvent> {
    let (a, b) = link(1, 2);
    vec![
        inject(
            SimTime::ZERO,
            InjectionKind::Congestion {
                from: NodeId::new(0, 0),
                to: NodeId::new(3, 0),
                packets: 4,
                bytes: 256,
            },
        ),
        inject(
            SimTime::from_ns(1_000),
            InjectionKind::CellFaults {
                unit: 1,
                rate_ppm: 1000,
                stuck_on_ppm: 500_000,
                seed: 9,
            },
        ),
        inject(SimTime::from_ns(2_000), InjectionKind::FailLink { a, b }),
        inject(SimTime::from_ns(5_000), InjectionKind::RepairLink { a, b }),
    ]
}

/// Fail/repair of a matvec unit of every standard class, a link cut,
/// congestion and a power loss, inside a 620 µs overload stream.
fn overload_faults() -> Vec<ServiceEvent> {
    let (a, b) = (NodeId::new(0, 0), NodeId::new(1, 0));
    vec![
        fail(us(100), 1),
        repair(us(150), 1),
        fail(us(200), 6),
        repair(us(250), 6),
        fail(us(300), 11),
        repair(us(350), 11),
        inject(us(400), InjectionKind::FailLink { a, b }),
        inject(us(420), InjectionKind::RepairLink { a, b }),
        inject(
            us(430),
            InjectionKind::Congestion {
                from: a,
                to: NodeId::new(3, 3),
                packets: 16,
                bytes: 128,
            },
        ),
        crash(us(450), 20),
    ]
}

fn rows() -> Vec<Row> {
    let cfg = ServiceConfig::default;
    let slow_backoff = |max_attempts| ServiceConfig {
        max_attempts,
        backoff_base: SimDuration::from_us(100),
        ..ServiceConfig::default()
    };
    let queue = |queue_capacity| ServiceConfig {
        queue_capacity,
        ..ServiceConfig::default()
    };
    let mid = SimTime::from_ps(MID_FIRST_REQUEST);
    let relu = |name, target, deadline_us, rate_hz, requests, telemetry, golden| Row {
        name,
        target,
        mix: Mix::Relu(deadline_us),
        rate_hz,
        requests,
        obs: false,
        telemetry,
        golden,
    };
    let standard = |name, target, rate_hz, requests, obs, golden| Row {
        name,
        target,
        mix: Mix::Standard,
        rate_hz,
        requests,
        obs,
        telemetry: true,
        golden,
    };
    vec![
        relu(
            "light_load",
            service(line(4), cfg(), vec![]),
            100,
            10_000.0,
            50,
            false,
            Observed {
                outcomes: 0x61e8e2365682154b,
                counts: [50, 50, 0, 50, 0, 0, 0, 0, 0, 0],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851ebf,
                    0x3f8eb851eb851eb8,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xcbf29ce484222325,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "overload",
            service(line(4), queue(4), vec![]),
            100,
            500_000_000.0,
            300,
            false,
            Observed {
                outcomes: 0xc6b3d1b8a80b8f01,
                counts: [300, 102, 198, 102, 0, 0, 0, 0, 0, 0],
                latency: [
                    0x3f96ea854477ff15,
                    0x3f987ad080b673c5,
                    0x3f99f05ea24cc682,
                    0x3f96860ad5ab26ee,
                    0x3f9d7cf5f4e4430b,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xcbf29ce484222325,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "retry_after_repair",
            service(
                line(3),
                slow_backoff(3),
                vec![fail(SimTime::ZERO, 1), repair(us(50), 1)],
            ),
            5_000,
            1_000_000.0,
            20,
            true,
            Observed {
                outcomes: 0x72e437e3e0275b10,
                counts: [20, 16, 4, 16, 0, 0, 0, 1, 0, 0],
                latency: [
                    0x4056ce5393250b52,
                    0x405900f5c28f5c29,
                    0x405900f5c28f5c29,
                    0x405762f52977c88e,
                    0x405900f5c28f5c29,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x13ad1a0d9640c59b,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "retries_exhausted",
            service(line(3), slow_backoff(3), vec![fail(SimTime::ZERO, 1)]),
            5_000,
            1_000_000.0,
            5,
            true,
            Observed {
                outcomes: 0x3aeb303be68d3c9d,
                counts: [5, 5, 0, 0, 0, 5, 0, 10, 0, 0],
                latency: [
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                    0x0000000000000000,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xffef9213b542e37d,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "deadline_cut",
            service(line(3), slow_backoff(5), vec![fail(SimTime::ZERO, 1)]),
            20,
            1_000_000.0,
            5,
            false,
            Observed {
                outcomes: 0x66140a9b431eca09,
                counts: [5, 5, 0, 0, 5, 0, 0, 0, 0, 0],
                latency: [
                    0x4059000000000000,
                    0x4059000000000000,
                    0x4059000000000000,
                    0x4059000000000000,
                    0x4059000000000000,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xcbf29ce484222325,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "mid_stream_recovery",
            service(line(6), cfg(), vec![fail(SimTime::ZERO, 1)]),
            1_000,
            100_000.0,
            10,
            false,
            Observed {
                outcomes: 0x2eb398eb5504dd75,
                counts: [10, 10, 0, 10, 0, 0, 1, 0, 0, 0],
                latency: [
                    0x3f9ba5e353f7ced9,
                    0x3ff0666666666666,
                    0x3ff0666666666666,
                    0x3fc03afb7e90ff96,
                    0x3ff0666666666666,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xcbf29ce484222325,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "arrival_burst",
            service(
                line(4),
                queue(2),
                vec![ServiceEvent::ArrivalBurst {
                    at: SimTime::ZERO,
                    extra: 20,
                }],
            ),
            100,
            10_000.0,
            40,
            false,
            Observed {
                outcomes: 0xf9a5971b20cadd40,
                counts: [40, 21, 19, 21, 0, 0, 0, 0, 0, 0],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f95810624dd2f1b,
                    0x3f8f4e1dd7a00962,
                    0x3f95810624dd2f1b,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xcbf29ce484222325,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "link_cut_and_congestion",
            service(line(4), cfg(), link_cut_and_congestion()),
            500,
            100_000.0,
            20,
            true,
            Observed {
                outcomes: 0xbf31499f92293cdb,
                counts: [20, 20, 0, 20, 0, 0, 0, 0, 0, 0],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851ebd,
                    0x3f8eb851eb851eb8,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xb0eb74f53d71aa31,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "power_loss_mid_request",
            service(line(4), cfg(), vec![crash(mid, 5)]),
            1_000,
            100_000.0,
            5,
            true,
            Observed {
                outcomes: 0xdc8bd9a14eb8fd9b,
                counts: [5, 5, 0, 5, 0, 0, 0, 0, 1, 0],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x4014170a808c825a,
                    0x4014170a808c825a,
                    0x3ffa539c94f69caa,
                    0x4014170a808c825a,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x543ea56b5c94ed9d,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "power_loss_past_deadline",
            service(line(4), cfg(), vec![crash(mid, 50)]),
            20,
            100_000.0,
            5,
            true,
            Observed {
                outcomes: 0xf533fc1a645090b1,
                counts: [5, 5, 0, 0, 5, 0, 0, 0, 1, 0],
                latency: [
                    0x4044d74e3369b9d8,
                    0x404900f5caf2d7f9,
                    0x404900f5caf2d7f9,
                    0x40439357074dd21b,
                    0x404900f5caf2d7f9,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xb2a869447033c1d8,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "shadowed_crash",
            service(
                line(4),
                cfg(),
                vec![
                    crash(SimTime::from_ns(1_000), 10),
                    crash(SimTime::from_ns(4_000), 10),
                ],
            ),
            1_000,
            100_000.0,
            10,
            true,
            Observed {
                outcomes: 0x96d3c120ea5e28ab,
                counts: [10, 10, 0, 10, 0, 0, 0, 0, 1, 0],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eba,
                    0x3f8eb851eb851eb8,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xffadaa504598a04c,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "retry_backoff_into_outage",
            service(
                line(3),
                slow_backoff(3),
                vec![
                    fail(SimTime::ZERO, 1),
                    repair(us(57), 1),
                    crash(SimTime::from_ns(57_500), 100),
                ],
            ),
            5_000,
            100_000.0,
            10,
            true,
            Observed {
                outcomes: 0xcb9c6eff1f159239,
                counts: [10, 10, 0, 10, 0, 0, 0, 1, 1, 0],
                latency: [
                    0x4052035ab7dc7ac0,
                    0x4059588d21bc126a,
                    0x4059588d21bc126a,
                    0x40503ad8df29c6a3,
                    0x4059588d21bc126a,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xaa80718bd1247f15,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "dirty_restore",
            service(
                line(4),
                ServiceConfig {
                    restore_clears_volatile: false,
                    ..ServiceConfig::default()
                },
                vec![crash(mid, 5)],
            ),
            1_000,
            100_000.0,
            5,
            true,
            Observed {
                outcomes: 0xdc8bd9a14eb8fd9b,
                counts: [5, 5, 0, 5, 0, 0, 0, 0, 1, 1],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x4014170a808c825a,
                    0x4014170a808c825a,
                    0x3ffa539c94f69caa,
                    0x4014170a808c825a,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xf1292ef437c3af5f,
                fleet: [0, 0, 0],
            },
        ),
        relu(
            "telemetry_metrics",
            service(line(4), cfg(), vec![]),
            100,
            10_000.0,
            30,
            true,
            Observed {
                outcomes: 0x93de5f9acd7d2df1,
                counts: [30, 30, 0, 30, 0, 0, 0, 0, 0, 0],
                latency: [
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851eb8,
                    0x3f8eb851eb851ebe,
                    0x3f8eb851eb851eb8,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x04493185d3a3c7bc,
                fleet: [0, 0, 0],
            },
        ),
        standard(
            "analytic_overload_faults",
            service(tier(SimMode::Analytic), cfg(), overload_faults()),
            3_200_000.0,
            2_000,
            false,
            Observed {
                outcomes: 0x9f7ac0e7d69cc092,
                counts: [2000, 740, 1260, 480, 260, 0, 3, 0, 1, 0],
                latency: [
                    0x40318b6ea4228998,
                    0x403778258d5842b7,
                    0x403bddfc3b4f6167,
                    0x402a6c1fcee3ca00,
                    0x404363a0e8427419,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xb5049caac6e20883,
                fleet: [0, 0, 0],
            },
        ),
        standard(
            "detailed_unit_fault",
            service(
                tier(SimMode::Detailed),
                cfg(),
                vec![fail(us(500), 3), repair(us(1_500), 3)],
            ),
            100_000.0,
            250,
            false,
            Observed {
                outcomes: 0x88da0f6e3446fc00,
                counts: [250, 250, 0, 250, 0, 0, 1, 0, 0, 0],
                latency: [
                    0x40029c304ccee5ac,
                    0x4005249dbec2480f,
                    0x400ca43675ddd2af,
                    0x400351494f3a8bf3,
                    0x40301e468cac4b4d,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x59e47fab47dc9f93,
                fleet: [0, 0, 0],
            },
        ),
        standard(
            "observability_overload",
            service(tier(SimMode::Analytic), cfg(), overload_faults()),
            3_200_000.0,
            2_000,
            true,
            Observed {
                outcomes: 0x9f7ac0e7d69cc092,
                counts: [2000, 740, 1260, 480, 260, 0, 3, 0, 1, 0],
                latency: [
                    0x40318b6ea4228998,
                    0x403778258d5842b7,
                    0x403bddfc3b4f6167,
                    0x402a6c1fcee3ca00,
                    0x404363a0e8427419,
                ],
                alerts: (14, 0x9bdd53fc21a1d715),
                series: 0x01d37b19a31b7c3e,
                telemetry: 0xb5049caac6e20883,
                fleet: [0, 0, 0],
            },
        ),
        standard(
            "fleet_device_failover",
            fleet(4, 2, vec![down(us(512), 0), up(us(700), 0)]),
            1_600_000.0,
            2_000,
            false,
            Observed {
                outcomes: 0x431c1f4e76e70114,
                counts: [2000, 1926, 74, 1817, 109, 0, 0, 0, 0, 0],
                latency: [
                    0x40033b5e95b78cca,
                    0x4035555d80e496ee,
                    0x4037778b26394fad,
                    0x40113c207c269016,
                    0x4037c58f0c77dd87,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0xf6e92295158e960f,
                fleet: [5, 1926, 5],
            },
        ),
        standard(
            "fleet_power_loss",
            fleet(
                4,
                2,
                vec![fleet_crash(us(300), 0, 20), fleet_crash(us(600), 1, 20)],
            ),
            1_600_000.0,
            2_000,
            false,
            Observed {
                outcomes: 0x2fd37a6516197c20,
                counts: [2000, 2000, 0, 1997, 3, 0, 0, 0, 2, 0],
                latency: [
                    0x4002c31d712a0ec7,
                    0x401701361dc93ea3,
                    0x40261fd5454152b1,
                    0x4009b7d651b0ccae,
                    0x40368168b5cbff47,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x65c57bf190d47b61,
                fleet: [3, 2000, 3],
            },
        ),
        standard(
            "fleet_flapping_and_shadowed",
            fleet(
                4,
                2,
                vec![
                    down(us(401), 0),
                    down(us(402), 0),
                    fleet_crash(us(410), 0, 5),
                    up(us(700), 0),
                    up(us(701), 0),
                ],
            ),
            1_600_000.0,
            2_000,
            false,
            Observed {
                outcomes: 0x3ad87ef4c136e82f,
                counts: [2000, 1903, 97, 1740, 163, 0, 0, 0, 0, 0],
                latency: [
                    0x4005160e0eb67c28,
                    0x403697cc2938de6e,
                    0x4037941ebc83a96d,
                    0x40149b0c9831bf55,
                    0x4037f10fb65668c2,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x50822463e210c6e8,
                fleet: [5, 1903, 5],
            },
        ),
        standard(
            "fleet_all_replicas_down",
            fleet(2, 1, vec![down(SimTime::ZERO, 0)]),
            1_600_000.0,
            500,
            false,
            Observed {
                outcomes: 0xa6a1aeae0fa6ff89,
                counts: [500, 152, 348, 152, 0, 0, 0, 0, 0, 0],
                latency: [
                    0x400ac39799e518f4,
                    0x401cb5771001d5c3,
                    0x40217d742dcf4624,
                    0x400d3b0e143b4da2,
                    0x40225236199780bb,
                ],
                alerts: (0, 0xcbf29ce484222325),
                series: 0xcbf29ce484222325,
                telemetry: 0x574540814c49c93d,
                fleet: [0, 152, 0],
            },
        ),
        standard(
            "fleet_observed",
            fleet(
                4,
                2,
                vec![
                    down(us(300), 0),
                    up(us(700), 0),
                    fleet_crash(us(500), 2, 20),
                ],
            ),
            1_600_000.0,
            2_000,
            true,
            Observed {
                outcomes: 0x9c62fcef1641452b,
                counts: [2000, 1878, 122, 1677, 201, 0, 0, 0, 1, 0],
                latency: [
                    0x40061caf2d7f950c,
                    0x4036d49fb6134ce4,
                    0x4037a9f1f14983d8,
                    0x4016a65f8babd0fb,
                    0x4037f7268d32830a,
                ],
                alerts: (9, 0x30428253400086b0),
                series: 0x63226ae1661118d2,
                telemetry: 0x0dc8ae817e55967e,
                fleet: [5, 1878, 5],
            },
        ),
    ]
}

/// Lowers a service event onto device 0 of a fleet.
fn lower(ev: ServiceEvent) -> FleetEvent {
    match ev {
        ServiceEvent::ArrivalBurst { at, extra } => FleetEvent::ArrivalBurst { at, extra },
        ServiceEvent::PowerLoss { at, restart_after } => FleetEvent::PowerLoss {
            at,
            device: 0,
            restart_after,
        },
        event => FleetEvent::Device { device: 0, event },
    }
}

/// Serves `row` on a one-service target.
fn run_service(
    row: &Row,
    fabric: &FabricConfig,
    cfg: &ServiceConfig,
    events: &[ServiceEvent],
) -> (Observed, Vec<RequestOutcome>, String) {
    let mut svc = CimService::new(fabric.clone(), cfg.clone(), SeedTree::new(SEED)).expect("boots");
    let tel = row.telemetry.then(|| {
        svc.runtime_mut()
            .device_mut()
            .enable_telemetry(TelemetryLevel::Metrics)
    });
    for (name, g, s, k, deadline, weight) in classes(row.mix) {
        svc.register_class(name, g, s, k, deadline, weight)
            .expect("resident");
    }
    if row.obs {
        svc.enable_observability(cim_obs::ObsConfig::default());
    }
    let r = svc
        .run_open_loop(row.rate_hz, row.requests, events)
        .expect("serves");
    let export = tel.map(|t| t.export_jsonl()).unwrap_or_default();
    (observe!(r, export), r.outcomes, export)
}

/// Serves `row` on a fleet built from `cfg`.
fn run_fleet(row: &Row, cfg: &FleetConfig, events: &[FleetEvent]) -> (FleetReport, String) {
    let mut f = CimFleet::new(cfg.clone(), SeedTree::new(SEED)).expect("boots");
    let tels: Vec<Telemetry> = if row.telemetry {
        (0..f.device_count())
            .map(|d| {
                f.runtime_mut(d)
                    .device_mut()
                    .enable_telemetry(TelemetryLevel::Metrics)
            })
            .collect()
    } else {
        Vec::new()
    };
    for (name, g, s, k, deadline, weight) in classes(row.mix) {
        f.register_class(name, g, s, k, deadline, weight)
            .expect("resident");
    }
    if row.obs {
        f.enable_observability(cim_obs::ObsConfig::default());
    }
    let r = f
        .run_open_loop(row.rate_hz, row.requests, events)
        .expect("serves");
    (r, tels.iter().map(Telemetry::export_jsonl).collect())
}

fn run(row: &Row) -> Observed {
    match &row.target {
        Target::Service {
            fabric,
            cfg,
            events,
        } => run_service(row, fabric, cfg, events).0,
        Target::Fleet { cfg, events } => {
            let (r, export) = run_fleet(row, cfg, events);
            let observed = Observed {
                fleet: [r.failovers as u64, r.served_total(), r.voided_total()],
                ..observe!(r, export)
            };
            assert_eq!(
                r.fingerprint, observed.outcomes,
                "{}: the fleet fingerprint digests the outcomes",
                row.name
            );
            observed
        }
    }
}

#[test]
fn every_row_matches_its_golden() {
    let mut mismatches = Vec::new();
    for row in rows() {
        let got = run(&row);
        if got != row.golden {
            mismatches.push(format!("{}: {}", row.name, got.literal()));
        }
    }
    assert!(
        mismatches.is_empty(),
        "rows differ from their goldens:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn a_fleet_of_one_serves_like_a_service() {
    for row in rows() {
        let Target::Service {
            fabric,
            cfg,
            events,
        } = &row.target
        else {
            continue;
        };
        let (want, want_outcomes, want_export) = run_service(&row, fabric, cfg, events);
        let one = FleetConfig {
            devices: 1,
            replicas: 1,
            fabric: fabric.clone(),
            service: cfg.clone(),
            failover_detect: SimDuration::ZERO,
            ..FleetConfig::default()
        };
        let lowered: Vec<FleetEvent> = events.iter().map(|&e| lower(e)).collect();
        let (r, export) = run_fleet(&row, &one, &lowered);
        assert_eq!(observe!(r, export), want, "{}: report", row.name);
        assert_eq!(r.outcomes, want_outcomes, "{}: outcomes", row.name);
        assert_eq!(export, want_export, "{}: telemetry export", row.name);
    }
}
