//! Fleet resilience comparison — Table 1 made live (§III.E + §IV.B at
//! fleet scale).
//!
//! One harness, two platforms: each scenario boots a [`CimFleet`]
//! (standard three-tenant mix sharded across N devices, whole-device
//! outages mid-stream), then replays the *identical* extracted workload
//! — the `(arrival, class)` record the fleet report keeps — through
//! [`cim_baseline::serving`]'s conventional cluster under the same
//! machine outages. The two sides differ only in physics: CIM replicas
//! hold resident conductances (microsecond failover detection, no state
//! transfer), the cluster pays the 50 ms heartbeat floor plus shipping
//! the class state to the standby. Because both serve the same
//! arrivals, every delta in the rendered table is platform, not
//! workload.
//!
//! [`FleetScenario`] is the only serving scenario in this crate: a
//! single device is a `devices: 1, replicas: 1` scenario, and [`boot`]
//! is the one boot path every standard-mix target goes through — the
//! serving sweep, both tiers of the `analytic_check` gate, the
//! fleet-vs-cluster comparison, the armed runs, the SLO artifact run
//! and the two-tier bench.

use crate::harness::{parallel_points, parallel_points_threads};
use crate::table::TextTable;
use cim_baseline::serving::{
    serve, ClusterServeConfig, ClusterServeReport, MachineEvent, ServeClass,
};
use cim_fabric::fleet::{CimFleet, FleetConfig, FleetEvent, FleetReport};
use cim_fabric::service::ServiceConfig;
use cim_fabric::FabricConfig;
use cim_sim::time::SimTime;
use cim_sim::{SeedTree, SimMode};
use cim_workloads::serving::{standard_request_mix, RequestClassSpec};
use std::time::Instant;

/// One serving scenario: target shape, offered load, the per-device
/// fabric template, and whether a whole-device outage campaign runs
/// mid-stream.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    /// Devices in the fleet (= machines in the cluster baseline).
    pub devices: usize,
    /// Replicas per tenant class, both platforms.
    pub replicas: usize,
    /// Offered load, requests per second.
    pub rate_hz: f64,
    /// Requests offered by the arrival process.
    pub requests: usize,
    /// Root seed (arrivals, classes, inputs, model weights).
    pub seed: u64,
    /// Per-device fabric template: simulation tier, link encryption and
    /// fabric seed. A single device keeps [`FabricConfig::default`]'s
    /// seed; a fleet's fabric is seeded with the root seed (see
    /// [`FleetScenario::seeded`]).
    pub fabric: FabricConfig,
    /// Schedule the standard two-outage campaign (device 0 then
    /// device 1, each down for ~20% of the run).
    pub outage: bool,
    /// Keep per-request outcomes on the fleet report (off for soaks;
    /// the fingerprint still covers every request).
    pub keep_outcomes: bool,
}

impl FleetScenario {
    /// A single device (one device, one replica) on the default fabric,
    /// no outages.
    pub fn single(rate_hz: f64, requests: usize, seed: u64) -> FleetScenario {
        FleetScenario {
            devices: 1,
            replicas: 1,
            rate_hz,
            requests,
            seed,
            fabric: FabricConfig::default(),
            outage: false,
            keep_outcomes: false,
        }
    }

    /// This scenario at root seed `seed`, with the fabric template
    /// seeded by the same root — the fleet convention.
    pub fn seeded(&self, seed: u64) -> FleetScenario {
        FleetScenario {
            seed,
            fabric: FabricConfig {
                seed,
                ..self.fabric.clone()
            },
            ..self.clone()
        }
    }

    /// This scenario with its fabric template in simulation tier `mode`.
    pub fn in_mode(&self, mode: SimMode) -> FleetScenario {
        FleetScenario {
            fabric: FabricConfig {
                sim_mode: mode,
                ..self.fabric.clone()
            },
            ..self.clone()
        }
    }

    /// Stable identifier for log lines and telemetry components.
    pub fn label(&self) -> String {
        format!(
            "fleet{}x{}_rate{:.0}_seed{:#x}{}{}",
            self.devices,
            self.replicas,
            self.rate_hz,
            self.seed,
            if self.fabric.encryption { "_enc" } else { "" },
            if self.outage { "_outage" } else { "" }
        )
    }
}

/// The default comparison scenario: a 4-device analytic fleet at a
/// moderate operating point with the two-outage campaign.
pub fn default_scenario() -> FleetScenario {
    FleetScenario {
        devices: 4,
        replicas: 2,
        rate_hz: 200_000.0,
        requests: 2_000,
        seed: 0xF1EE7,
        fabric: FabricConfig {
            seed: 0xF1EE7,
            sim_mode: SimMode::Analytic,
            ..FabricConfig::default()
        },
        outage: true,
        keep_outcomes: false,
    }
}

/// The standard outage campaign for a scenario: device 0 down for
/// 25–45% of the expected run span, device 1 down for 60–80%. The
/// windows never overlap, so every class keeps a live replica
/// throughout. Empty when outages are off or the fleet cannot fail
/// over (fewer than two devices).
pub fn outage_events(s: &FleetScenario) -> Vec<FleetEvent> {
    if !s.outage || s.devices < 2 {
        return Vec::new();
    }
    // Expected span of the open-loop stream; outage placement only
    // needs to land mid-run, not at an exact arrival.
    let span_ps = (s.requests as f64 / s.rate_hz * 1e12) as u64;
    let frac = |num: u64, den: u64| SimTime::from_ps(span_ps / den * num);
    vec![
        FleetEvent::DeviceDown {
            at: frac(5, 20),
            device: 0,
        },
        FleetEvent::DeviceUp {
            at: frac(9, 20),
            device: 0,
        },
        FleetEvent::DeviceDown {
            at: frac(12, 20),
            device: 1,
        },
        FleetEvent::DeviceUp {
            at: frac(16, 20),
            device: 1,
        },
    ]
}

/// The cluster-side mirror of a fleet outage schedule: machine `i`
/// fails exactly when device `i` does. A fleet power loss mirrors as a
/// down/up pair — the cluster has no notion of lost volatile state, it
/// just loses the machine for the dark window.
pub fn machine_events(events: &[FleetEvent]) -> Vec<MachineEvent> {
    events
        .iter()
        .flat_map(|ev| match *ev {
            FleetEvent::DeviceDown { at, device } => vec![MachineEvent::Down {
                at,
                machine: device,
            }],
            FleetEvent::DeviceUp { at, device } => vec![MachineEvent::Up {
                at,
                machine: device,
            }],
            FleetEvent::PowerLoss {
                at,
                device,
                restart_after,
            } => vec![
                MachineEvent::Down {
                    at,
                    machine: device,
                },
                MachineEvent::Up {
                    at: at + restart_after,
                    machine: device,
                },
            ],
            _ => Vec::new(),
        })
        .collect()
}

/// The standard request mix translated to cluster arithmetic: FLOPs per
/// request, request + response bytes over the network, same deadlines.
pub fn cluster_classes() -> Vec<ServeClass> {
    standard_request_mix()
        .iter()
        .map(|spec| ServeClass {
            name: spec.name.to_string(),
            flops: spec.flops_per_request(),
            req_bytes: 8
                * (spec.input_width() + spec.layer_dims.last().copied().unwrap_or(0)) as u64,
            deadline: spec.deadline,
        })
        .collect()
}

/// Resident state a cluster standby must receive before taking over: the
/// largest class's weight matrices at f64 precision. The CIM fleet
/// ships nothing — its replicas are already programmed.
pub fn cluster_state_bytes() -> u64 {
    standard_request_mix()
        .iter()
        .map(RequestClassSpec::weights_bytes)
        .max()
        .unwrap_or(0)
}

/// [`outage_events`] with a *guaranteed* mid-execution catch. A probe
/// run (outage-free, outcomes kept, at most the first 100 000 arrivals
/// — an identical prefix of the full run, since events only perturb
/// the stream after they fire) locates two overlapping single-attempt
/// interactive-class executions with nothing else in flight on their
/// replica pair; the least-outstanding router necessarily placed them
/// on the two distinct replica devices, so a device-0 outage inside
/// the overlap voids exactly one of them. The device-1 window stays at
/// the heuristic 60–80% placement. Falls back to [`outage_events`]
/// when no qualifying pair exists.
pub fn engineered_outage(s: &FleetScenario) -> Vec<FleetEvent> {
    use cim_fabric::service::Disposition;
    if s.devices < 2 || s.replicas < 2 {
        return outage_events(s);
    }
    let probe_n = s.requests.min(100_000);
    let probe = run_fleet_with(
        &FleetScenario {
            requests: probe_n,
            outage: false,
            keep_outcomes: true,
            ..s.clone()
        },
        &[],
    );
    let span_ps = (s.requests as f64 / s.rate_hz * 1e12) as u64;
    // Keep the engineered window clear of the device-1 outage so the
    // interactive class never loses both replicas at once.
    let latest = span_ps * 11 / 20;
    // Execution windows of requests that can occupy devices 0/1:
    // interactive (replica devices {0, 1}) and standard ({1, 2}).
    let windows: Vec<(u64, u64, usize, u32)> = probe
        .outcomes
        .iter()
        .filter(|o| o.class <= 1)
        .filter_map(|o| match o.disposition {
            Disposition::Completed {
                finished, attempts, ..
            }
            | Disposition::TimedOut { finished, attempts } => {
                Some((o.arrival.as_ps(), finished.as_ps(), o.class, attempts))
            }
            _ => None,
        })
        .collect();
    let quarter = probe
        .outcomes
        .get(probe_n / 4)
        .map(|o| o.arrival.as_ps())
        .unwrap_or(0);
    let mut down_ps = None;
    'search: for (wj, &(aj, fj, cj, att_j)) in windows.iter().enumerate() {
        if cj != 0 || att_j != 1 || aj < quarter || aj >= latest {
            continue;
        }
        // Exactly one other request in flight over this pair's replica
        // devices at `aj`, and it must itself be a clean single-attempt
        // interactive execution (continuously resident on its device).
        let mut carrier = None;
        for (wi, &(ai, fi, ci, att_i)) in windows.iter().enumerate() {
            if wi == wj || !(ai <= aj && aj < fi) {
                continue;
            }
            if ci != 0 || att_i != 1 || carrier.is_some() {
                continue 'search;
            }
            carrier = Some(fi);
        }
        let Some(fi) = carrier else { continue };
        let overlap_end = fi.min(fj);
        if overlap_end <= aj + 1 {
            continue;
        }
        down_ps = Some(aj + (overlap_end - aj) / 2);
        break;
    }
    let Some(down_ps) = down_ps else {
        return outage_events(s);
    };
    let frac = |num: u64, den: u64| SimTime::from_ps(span_ps / den * num);
    let up_ps = (down_ps + span_ps / 20)
        .min(span_ps * 12 / 20 - 1)
        .max(down_ps + 1);
    vec![
        FleetEvent::DeviceDown {
            at: SimTime::from_ps(down_ps),
            device: 0,
        },
        FleetEvent::DeviceUp {
            at: SimTime::from_ps(up_ps),
            device: 0,
        },
        FleetEvent::DeviceDown {
            at: frac(12, 20),
            device: 1,
        },
        FleetEvent::DeviceUp {
            at: frac(16, 20),
            device: 1,
        },
    ]
}

/// [`engineered_outage`] with every outage turned into a crash: the
/// same probe-placed windows, but each down/up pair becomes one
/// [`FleetEvent::PowerLoss`] whose dark interval is the pair's window.
/// The caught-in-flight guarantee carries over (a crash fences the
/// device exactly like an outage), and the restart additionally
/// exercises the nonvolatile restore + volatile wipe recovery pass.
pub fn engineered_powerloss(s: &FleetScenario) -> Vec<FleetEvent> {
    let outages = engineered_outage(s);
    let mut events = Vec::with_capacity(outages.len() / 2);
    let mut pending: Vec<(usize, SimTime)> = Vec::new();
    for ev in &outages {
        match *ev {
            FleetEvent::DeviceDown { at, device } => pending.push((device, at)),
            FleetEvent::DeviceUp { at, device } => {
                if let Some(pos) = pending.iter().position(|&(d, _)| d == device) {
                    let (_, down_at) = pending.swap_remove(pos);
                    events.push(FleetEvent::PowerLoss {
                        at: down_at,
                        device,
                        restart_after: at - down_at,
                    });
                }
            }
            _ => {}
        }
    }
    events.sort_by_key(FleetEvent::at);
    events
}

/// The engineered isolation-attack campaign: one of each attack
/// archetype per device — a forged-token presentation, a stale replayed
/// token (aged past the 50 µs TTL), a cross-partition scan of tile
/// (0, 0), a hostile self-programming patch and a hostile dataflow
/// scanner — staggered through the middle half of the run span so
/// probes land while the stream is live.
pub fn engineered_adversarial(s: &FleetScenario) -> Vec<FleetEvent> {
    use cim_fabric::engine::InjectionKind;
    use cim_fabric::service::ServiceEvent;
    let span_ps = (s.requests as f64 / s.rate_hz * 1e12) as u64;
    let devices = s.devices.max(1) as u64;
    let mut events = Vec::new();
    for d in 0..s.devices {
        // Each device's five probes occupy its own slice of the middle
        // half of the span.
        let slice = span_ps / 2 / devices;
        let base = span_ps / 4 + d as u64 * slice;
        let at = |i: u64| SimTime::from_ps(base + i * slice / 5);
        let kinds = [
            InjectionKind::TokenForge { unit: d % 4 },
            InjectionKind::TokenReplay {
                unit: (d + 1) % 4,
                age_ps: 80_000_000, // 80 µs: stale beyond the 50 µs TTL
            },
            InjectionKind::CrossPartitionScan {
                victim: cim_noc::packet::NodeId::new(0, 0),
                packets: 4,
                bytes: 96,
            },
            InjectionKind::HostileSelfProg {
                seed: 0xBAD_5EED + d as u64,
            },
            InjectionKind::HostileDataflow {
                seed: 0xDEAD_BEEF + d as u64,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            events.push(FleetEvent::Device {
                device: d,
                event: ServiceEvent::Inject {
                    at: at(i as u64),
                    kind,
                },
            });
        }
    }
    events.sort_by_key(FleetEvent::at);
    events
}

/// Boots the scenario's target: `devices` devices from the fabric
/// template, a [`SeedTree`] rooted at the scenario seed, and the
/// standard three-tenant mix resident on rotating shards (model weights
/// drawn from `seed ^ 0x7E4A47`). `prepare` runs after boot and before
/// class registration — arming, telemetry and observability go there,
/// so placement sees them.
pub fn boot(s: &FleetScenario, prepare: impl FnOnce(&mut CimFleet)) -> CimFleet {
    let cfg = FleetConfig {
        devices: s.devices,
        replicas: s.replicas,
        fabric: s.fabric.clone(),
        keep_outcomes: s.keep_outcomes,
        ..FleetConfig::default()
    };
    let mut fleet = CimFleet::new(cfg, SeedTree::new(s.seed)).expect("fleet boots");
    prepare(&mut fleet);
    for spec in standard_request_mix() {
        let (g, src, sink) = spec.build_graph(SeedTree::new(s.seed ^ 0x7E4A47));
        fleet
            .register_class(spec.name, g, src, sink, spec.deadline, spec.weight)
            .expect("mix is resident on the default fabric");
    }
    fleet
}

/// [`run_fleet_with`] on an adversary-armed fleet: link encryption on
/// and the far-corner tile of every device fenced into its own NoC
/// isolation domain *before* tenant classes place, exactly like the
/// chaos runner's adversarial harness. `leak` additionally skips the
/// NoC boundary check — the negative control proving the attack log's
/// detectors are not vacuous. Returns the fleet report plus the attack
/// log aggregated across devices.
pub fn run_fleet_armed(
    s: &FleetScenario,
    events: &[FleetEvent],
    leak: bool,
) -> (FleetReport, cim_fabric::security::AttackLog) {
    let fabric = FabricConfig {
        encryption: true,
        ..s.fabric.clone()
    };
    let tile = cim_noc::packet::NodeId::new(
        fabric.mesh_width.saturating_sub(1) as u16,
        fabric.mesh_height.saturating_sub(1) as u16,
    );
    let units_per_device = fabric.total_units();
    let armed = FleetScenario {
        fabric,
        ..s.clone()
    };
    let mut fleet = boot(&armed, |fleet| {
        for d in 0..fleet.device_count() {
            let dev = fleet.runtime_mut(d).device_mut();
            dev.arm_adversary(tile);
            if leak {
                dev.noc_mut().set_leak_cross_partition(true);
            }
        }
    });
    let report = fleet
        .run_open_loop(s.rate_hz, s.requests, events)
        .expect("fleet serves");
    let mut log = cim_fabric::security::AttackLog::default();
    for d in 0..fleet.device_count() {
        if let Some(l) = fleet.runtime(d).device().attack_log() {
            log.absorb(l, d * units_per_device);
        }
    }
    (report, log)
}

/// Boots the scenario's target and serves the open-loop stream under
/// the scenario's outages.
pub fn run_fleet(s: &FleetScenario) -> FleetReport {
    run_fleet_with(s, &outage_events(s))
}

/// [`run_fleet`] with an explicit event schedule (e.g.
/// [`engineered_outage`]).
pub fn run_fleet_with(s: &FleetScenario, events: &[FleetEvent]) -> FleetReport {
    boot(s, |_| {})
        .run_open_loop(s.rate_hz, s.requests, events)
        .expect("fleet serves")
}

/// Both platforms' results for one scenario, same workload.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetComparison {
    /// The scenario served.
    pub scenario: FleetScenario,
    /// The CIM fleet side.
    pub fleet: FleetReport,
    /// The cluster baseline side, replaying the fleet's arrival record.
    pub cluster: ClusterServeReport,
    /// Host wall-clock inside the fleet run, ns (informational).
    pub fleet_wall_ns: u64,
    /// Host wall-clock inside the cluster replay, ns (informational).
    pub cluster_wall_ns: u64,
}

/// Runs one scenario through both platforms: the fleet first, then the
/// cluster baseline on the extracted arrival record under mirrored
/// machine outages.
pub fn compare(s: &FleetScenario) -> FleetComparison {
    compare_with(s, &outage_events(s))
}

/// [`compare`] with an explicit outage schedule applied to both sides.
pub fn compare_with(s: &FleetScenario, events: &[FleetEvent]) -> FleetComparison {
    let started = Instant::now();
    let fleet = run_fleet_with(s, events);
    let fleet_wall_ns = started.elapsed().as_nanos() as u64;
    let cfg = ClusterServeConfig::like_fleet(
        s.devices,
        s.replicas,
        ServiceConfig::default().queue_capacity,
        cluster_state_bytes(),
    );
    let started = Instant::now();
    let cluster = serve(
        &cfg,
        &cluster_classes(),
        &fleet.arrivals,
        &machine_events(events),
    );
    let cluster_wall_ns = started.elapsed().as_nanos() as u64;
    FleetComparison {
        scenario: s.clone(),
        fleet,
        cluster,
        fleet_wall_ns,
        cluster_wall_ns,
    }
}

/// Compares every scenario, points in parallel on up to `CIM_THREADS`
/// host threads. Modeled numbers are bit-identical at any thread count.
pub fn run(scenarios: &[FleetScenario]) -> Vec<FleetComparison> {
    parallel_points(scenarios, |_, s| compare(s))
}

/// [`run`] with an explicit thread count (determinism tests).
pub fn run_threads(scenarios: &[FleetScenario], threads: usize) -> Vec<FleetComparison> {
    parallel_points_threads(threads, scenarios, |_, s| compare(s))
}

/// Renders the comparison as a Table-1-style text table: one CIM row
/// and one cluster row per scenario, same arrivals on both.
pub fn render(cmps: &[FleetComparison]) -> String {
    let mut t = TextTable::new([
        "scenario",
        "platform",
        "goodput",
        "p50(us)",
        "p99(us)",
        "shed",
        "failovers",
        "energy(uJ)",
    ]);
    for c in cmps {
        let label = c.scenario.label();
        t.row([
            label.clone(),
            "cim-fleet".to_owned(),
            format!("{:.4}", c.fleet.goodput()),
            format!("{:.1}", c.fleet.latency.p50_us),
            format!("{:.1}", c.fleet.latency.p99_us),
            c.fleet.shed.to_string(),
            c.fleet.failovers.to_string(),
            format!("{:.2}", c.fleet.energy.as_fj() as f64 / 1e9),
        ]);
        t.row([
            label,
            "cluster".to_owned(),
            format!("{:.4}", c.cluster.goodput()),
            format!("{:.1}", c.cluster.p50_us),
            format!("{:.1}", c.cluster.p99_us),
            c.cluster.shed.to_string(),
            c.cluster.failovers.to_string(),
            format!("{:.2}", c.cluster.energy.as_fj() as f64 / 1e9),
        ]);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::analytic::small_sample;
    use crate::experiments::analytic::tests::{assert_points_agree, assert_violations_flagged};

    #[test]
    fn fleet_beats_cluster_under_the_same_outages() {
        let s = FleetScenario {
            requests: 400,
            ..default_scenario()
        };
        let c = compare_with(&s, &engineered_outage(&s));
        assert!(c.fleet.zero_lost(), "fleet loses nothing: {:?}", c.fleet);
        assert!(c.cluster.zero_lost(), "cluster accounts everything");
        assert_eq!(c.cluster.offered, c.fleet.offered, "same workload");
        assert!(
            c.fleet.failovers > 0,
            "the outage campaign must catch requests in flight"
        );
        // The whole point of Table 1: resident replicas beat
        // state-shipping failover on goodput, and every request on the
        // cluster pays at least the network RTT.
        assert!(
            c.fleet.goodput() > c.cluster.goodput(),
            "fleet {:.4} vs cluster {:.4}",
            c.fleet.goodput(),
            c.cluster.goodput()
        );
        assert!(c.cluster.p50_us >= 2.0, "cluster p50 under the RTT floor");
        let rendered = render(&[c]);
        assert!(rendered.contains("cim-fleet") && rendered.contains("cluster"));
    }

    #[test]
    fn comparisons_are_deterministic_across_threads() {
        let s = FleetScenario {
            requests: 200,
            ..default_scenario()
        };
        let scenarios = vec![s.clone(), s.seeded(0xF1EE8)];
        let a = run_threads(&scenarios, 1);
        let b = run_threads(&scenarios, 4);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fleet, y.fleet, "fleet side thread-invariant");
            assert_eq!(x.cluster, y.cluster, "cluster side thread-invariant");
        }
    }

    #[test]
    fn engineered_outage_guarantees_a_failover() {
        // The probe-placed device-0 window must catch a request
        // mid-execution regardless of how the heuristic placement
        // would have fared.
        let s = FleetScenario {
            requests: 1_000,
            ..default_scenario()
        };
        let events = engineered_outage(&s);
        assert_eq!(events.len(), 4, "engineered pair plus device-1 window");
        let r = run_fleet_with(&s, &events);
        assert!(r.failovers > 0, "no request caught in flight: {r:?}");
        assert!(r.zero_lost(), "failover must not lose requests: {r:?}");
        assert_eq!(r.voided_total() as usize, r.failovers);
    }

    #[test]
    fn engineered_powerloss_crashes_without_loss() {
        let s = FleetScenario {
            requests: 1_000,
            ..default_scenario()
        };
        let events = engineered_powerloss(&s);
        assert_eq!(events.len(), 2, "one crash per outage window: {events:?}");
        let r = run_fleet_with(&s, &events);
        assert!(
            r.zero_lost(),
            "crash recovery must not lose requests: {r:?}"
        );
        assert!(r.failovers > 0, "crashes must catch requests in flight");
        assert!(r.crashes >= 1, "restarts must run the recovery pass: {r:?}");
        assert_eq!(r.dirty_restores, 0, "every restore must be pristine");
        assert_eq!(r.voided_total() as usize, r.failovers);
    }

    #[test]
    fn mode_sample_agrees_within_bounds() {
        // The small sample's fleet rows, through the one two-tier gate.
        assert_points_agree(&small_sample()[2..]);
    }

    #[test]
    fn check_modes_flags_violations_in_telemetry_schema() {
        assert_violations_flagged(&small_sample()[2..], "analytic_check/fleet4x2_rate50000");
    }

    #[test]
    fn outage_windows_never_overlap() {
        let evs = outage_events(&default_scenario());
        assert_eq!(evs.len(), 4);
        // device 0 back up before device 1 goes down.
        assert!(evs[1].at() < evs[2].at());
        let machines = machine_events(&evs);
        assert_eq!(machines.len(), 4);
        assert!(outage_events(&FleetScenario {
            devices: 1,
            replicas: 1,
            ..default_scenario()
        })
        .is_empty());
    }
}
