//! Request serving on one device: a single service is a one-device
//! fleet (§III.E, §V.A).
//!
//! The paper's deployment story starts with CIM parts attached "as slave
//! devices" that a host hands work to. A [`CimService`] is that front
//! door for one device: a [`CimFleet`] of one device and one replica,
//! so it shares the fleet's one request path — admission against a
//! bounded queue, load shedding, per-request deadlines, bounded
//! exponential-backoff retry of recoverable faults on top of the
//! engine's §V.A mid-stream spare recovery, and power-loss recovery.
//! With one device there is no router: the device keeps the template
//! seed, a crash re-dispatches the attempt it voided at the restart
//! with no detection delay, and arrivals while the device is dark wait
//! for the restart. Metrics land on the device's own telemetry under
//! `service/*`.
//!
//! This module also holds the request vocabulary the fleet speaks:
//! [`ServiceConfig`], [`Disposition`], [`RequestOutcome`] and
//! [`LatencyStats`]. A service's events are [`ServiceEvent`]s, its
//! one-device spelling of a [`FleetEvent`]; [`ServiceEvent::to_fleet_event`]
//! lowers each one onto device 0.
//!
//! ```text
//! arrivals ──► admission (queue bound) ──► dispatch ──► engine
//!                  │ full                     │ fault        │ fault,
//!                  ▼                          ▼ (no spare)   ▼ spare left
//!                shed                  backoff + retry   §V.A recovery
//! ```

use crate::config::FabricConfig;
use crate::engine::InjectionKind;
use crate::error::Result;
use crate::fleet::{CimFleet, FleetConfig, FleetEvent, FleetReport};
use crate::runtime::{CimRuntime, JobId};
use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_sim::time::{SimDuration, SimTime};
use cim_sim::SeedTree;

/// Serving-policy knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Maximum requests in flight (admitted but not yet departed);
    /// arrivals beyond this are shed.
    pub queue_capacity: usize,
    /// Total attempts per request, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before retry `k` is `backoff_base · 2^min(k-1, 32)` —
    /// exponential, saturating at the cap.
    pub backoff_base: SimDuration,
    /// Whether a power-loss restore wipes volatile device state before
    /// reloading the persisted image (the correct recovery pass). Only
    /// chaos campaigns turn this off, to prove the recovery contract
    /// *detects* a restart that inherits stale state.
    pub restore_clears_volatile: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_capacity: 16,
            max_attempts: 3,
            backoff_base: SimDuration::from_us(10),
            restore_clears_volatile: true,
        }
    }
}

/// A scheduled event on a [`CimService`]: its one-device spelling of a
/// [`FleetEvent`]. [`ServiceEvent::to_fleet_event`] lowers it, and
/// [`FleetEvent::Inject`] documents how an injection lands exactly once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceEvent {
    /// Hard-fail a unit (detected by the engine on next dispatch).
    FailUnit {
        /// Simulated time at which the unit dies.
        at: SimTime,
        /// The unit index.
        unit: usize,
    },
    /// Return a failed unit to service (field replacement / reboot).
    RepairUnit {
        /// Simulated time at which the unit is healthy again.
        at: SimTime,
        /// The unit index.
        unit: usize,
    },
    /// Any engine-level injection (link failure/repair, congestion
    /// burst, crossbar cell faults, drift spike) at a precise sim-time
    /// point.
    Inject {
        /// Simulated time at which the injection lands.
        at: SimTime,
        /// What it does.
        kind: InjectionKind,
    },
    /// An arrival burst at the service front door: the next `extra`
    /// open-loop arrivals after this point land back-to-back at the
    /// same instant, hammering the admission queue.
    ArrivalBurst {
        /// Simulated time at which the burst begins.
        at: SimTime,
        /// Arrivals beyond the first that land simultaneously.
        extra: u16,
    },
    /// Power loss: the device goes dark at `at`, loses all volatile
    /// state, and comes back `restart_after` later through the
    /// [`crate::runtime::CimRuntime::power_cycle`] recovery pass.
    /// Programmed conductances, resident programs and drift state
    /// survive (memristor nonvolatility); any attempt executing across
    /// the crash is voided and re-dispatched after the restart, exactly
    /// the way fleet failover voids in-flight work.
    PowerLoss {
        /// Simulated time at which power is lost.
        at: SimTime,
        /// Outage duration: the device restarts at `at + restart_after`.
        restart_after: SimDuration,
    },
}

impl ServiceEvent {
    /// The simulated time this event fires.
    pub fn at(&self) -> SimTime {
        match *self {
            ServiceEvent::FailUnit { at, .. }
            | ServiceEvent::RepairUnit { at, .. }
            | ServiceEvent::Inject { at, .. }
            | ServiceEvent::ArrivalBurst { at, .. }
            | ServiceEvent::PowerLoss { at, .. } => at,
        }
    }

    /// This event on fleet device `device`: unit faults and repairs
    /// become [`FleetEvent::Inject`] with the matching [`InjectionKind`],
    /// and a burst or a power loss keeps its top-level spelling.
    pub fn to_fleet_event(self, device: usize) -> FleetEvent {
        let inject = |at, kind| FleetEvent::Inject { at, device, kind };
        match self {
            ServiceEvent::FailUnit { at, unit } => inject(at, InjectionKind::FailUnit { unit }),
            ServiceEvent::RepairUnit { at, unit } => inject(at, InjectionKind::RepairUnit { unit }),
            ServiceEvent::Inject { at, kind } => inject(at, kind),
            ServiceEvent::ArrivalBurst { at, extra } => FleetEvent::ArrivalBurst { at, extra },
            ServiceEvent::PowerLoss { at, restart_after } => FleetEvent::PowerLoss {
                at,
                device,
                restart_after,
            },
        }
    }
}

/// Terminal state of one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// Finished within its deadline.
    Completed {
        /// Completion time.
        finished: SimTime,
        /// Attempts made (1 = no retries).
        attempts: u32,
        /// Whether a §V.A mid-stream recovery happened underneath it.
        recovered: bool,
        /// Sink output vector.
        output: Vec<f64>,
    },
    /// Finished, but past its deadline (SLO miss; result discarded).
    TimedOut {
        /// Time the request left the system.
        finished: SimTime,
        /// Attempts made before giving up or finishing late.
        attempts: u32,
    },
    /// Rejected at admission: the queue was full.
    Shed,
    /// Every attempt hit a fault and the retry budget ran out.
    Failed {
        /// Attempts made.
        attempts: u32,
    },
}

/// One request's journey through the service.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestOutcome {
    /// Arrival-order request id.
    pub id: u64,
    /// Index of the request's class (registration order).
    pub class: usize,
    /// Open-loop arrival time.
    pub arrival: SimTime,
    /// How the request ended.
    pub disposition: Disposition,
}

/// Latency percentiles over requests that ran to completion (including
/// SLO misses), in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// Median latency.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Mean.
    pub mean_us: f64,
    /// Worst admitted request.
    pub max_us: f64,
}

/// The request-serving front door over one [`CimRuntime`]: a
/// [`CimFleet`] of one device and one replica.
///
/// # Examples
///
/// ```
/// use cim_fabric::service::{CimService, ServiceConfig};
/// use cim_fabric::FabricConfig;
/// use cim_sim::time::SimDuration;
/// use cim_sim::SeedTree;
/// use cim_dataflow::graph::GraphBuilder;
/// use cim_dataflow::ops::Operation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut svc = CimService::new(
///     FabricConfig::default(),
///     ServiceConfig::default(),
///     SeedTree::new(1),
/// )?;
/// let mut b = GraphBuilder::new();
/// let s = b.add("in", Operation::Source { width: 4 });
/// let k = b.add("out", Operation::Sink { width: 4 });
/// b.connect(s, k, 0)?;
/// svc.register_class("echo", b.build()?, s, k, SimDuration::from_us(500), 1)?;
/// let report = svc.run_open_loop(50_000.0, 20, &[])?;
/// assert_eq!(report.offered, 20);
/// assert!(report.zero_lost());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CimService {
    fleet: CimFleet,
}

impl CimService {
    /// Boots a service on a fresh device.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FabricError::InvalidConfig`] for zero attempts
    /// per request or a zero queue capacity; propagates
    /// device-construction failures.
    pub fn new(fabric: FabricConfig, cfg: ServiceConfig, seeds: SeedTree) -> Result<Self> {
        let cfg = FleetConfig {
            devices: 1,
            replicas: 1,
            fabric,
            service: cfg,
            ..FleetConfig::default()
        };
        Ok(CimService {
            fleet: CimFleet::new(cfg, seeds)?,
        })
    }

    /// Attaches the observability pipeline to subsequent
    /// [`CimService::run_open_loop`] calls (see
    /// [`CimFleet::enable_observability`]).
    pub fn enable_observability(&mut self, cfg: cim_obs::ObsConfig) {
        self.fleet.enable_observability(cfg);
    }

    /// The underlying runtime (telemetry, fault injection, placement).
    pub fn runtime(&self) -> &CimRuntime {
        self.fleet.runtime(0)
    }

    /// The underlying runtime, mutable.
    pub fn runtime_mut(&mut self) -> &mut CimRuntime {
        self.fleet.runtime_mut(0)
    }

    /// Registered class names, in registration order.
    pub fn class_names(&self) -> Vec<&str> {
        self.fleet.class_names()
    }

    /// The resident job serving a class (placement inspection / fault
    /// targeting). `None` for out-of-range indices.
    pub fn class_job(&self, class: usize) -> Option<JobId> {
        self.fleet.class_job(class)
    }

    /// Registers a tenant class as a resident program (see
    /// [`CimFleet::register_class`]).
    ///
    /// # Errors
    ///
    /// As [`CimFleet::register_class`].
    pub fn register_class(
        &mut self,
        name: &str,
        graph: DataflowGraph,
        src: NodeRef,
        sink: NodeRef,
        deadline: SimDuration,
        weight: u32,
    ) -> Result<usize> {
        self.fleet
            .register_class(name, graph, src, sink, deadline, weight)
    }

    /// Serves an open-loop stream under a service-level event schedule
    /// (see [`CimFleet::run_open_loop`]).
    ///
    /// # Errors
    ///
    /// As [`CimFleet::run_open_loop`].
    pub fn run_open_loop(
        &mut self,
        rate_hz: f64,
        n: usize,
        events: &[ServiceEvent],
    ) -> Result<FleetReport> {
        let events: Vec<FleetEvent> = events.iter().map(|e| e.to_fleet_event(0)).collect();
        self.fleet.run_open_loop(rate_hz, n, &events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Injection;
    use crate::error::FabricError;
    use crate::fleet::backoff_delay;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::GraphBuilder;
    use cim_dataflow::ops::{Elementwise, Operation};

    /// source → relu → sink on `width` lanes.
    fn tiny_graph(width: usize) -> (DataflowGraph, NodeRef, NodeRef) {
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width });
        let m = b.add(
            "m",
            Operation::Map {
                func: Elementwise::Relu,
                width,
            },
        );
        let k = b.add("k", Operation::Sink { width });
        b.chain(&[s, m, k]).expect("chain");
        (b.build().expect("valid"), s, k)
    }

    fn fabric(units: usize) -> FabricConfig {
        FabricConfig {
            mesh_width: units,
            mesh_height: 1,
            units_per_tile: 1,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        }
    }

    fn service(units: usize, cfg: ServiceConfig, deadline: SimDuration) -> CimService {
        let mut svc = CimService::new(fabric(units), cfg, SeedTree::new(0x5EED)).expect("boots");
        let (g, s, k) = tiny_graph(4);
        svc.register_class("tiny", g, s, k, deadline, 1)
            .expect("resident");
        svc
    }

    #[test]
    fn light_load_meets_every_slo() {
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(100));
        let r = svc.run_open_loop(10_000.0, 50, &[]).expect("serves");
        assert_eq!(r.offered, 50);
        assert_eq!(r.completed, 50);
        assert_eq!((r.shed, r.timed_out, r.failed), (0, 0, 0));
        assert!(r.zero_lost());
        assert!((r.goodput() - 1.0).abs() < 1e-12);
        assert!(r.latency.p99_us <= 100.0, "p99 {}", r.latency.p99_us);
        for o in &r.outcomes {
            assert!(matches!(
                o.disposition,
                Disposition::Completed {
                    attempts: 1,
                    recovered: false,
                    ..
                }
            ));
        }
    }

    #[test]
    fn overload_sheds_and_bounds_p99() {
        let cfg = ServiceConfig {
            queue_capacity: 4,
            ..ServiceConfig::default()
        };
        let mut svc = service(4, cfg, SimDuration::from_us(100));
        // Far past saturation: the relu pipeline serves an item in
        // ~15 ns, so 500 M req/s offers ~7× its capacity.
        let r = svc.run_open_loop(500_000_000.0, 300, &[]).expect("serves");
        assert!(r.shed > 0, "overload must shed: {r:?}");
        assert!(r.admitted > 0, "some requests still get in");
        assert!(r.zero_lost(), "shedding loses nothing that was admitted");
        // Bounded queue ⇒ bounded wait: p99 of admitted requests stays
        // within (capacity + 1) service times, not open-ended.
        let unloaded = {
            let mut probe = service(4, ServiceConfig::default(), SimDuration::from_us(100));
            let p = probe.run_open_loop(1_000.0, 20, &[]).expect("probe");
            p.latency.max_us
        };
        let bound = unloaded * 5.0 + 10.0;
        assert!(
            r.latency.p99_us <= bound,
            "p99 {} must stay under {bound}",
            r.latency.p99_us
        );
    }

    #[test]
    fn service_level_retry_succeeds_after_repair() {
        // 3 units, 3 nodes: no spare exists, so the engine's §V.A path
        // cannot help — only the service-level backoff retry can.
        let cfg = ServiceConfig {
            backoff_base: SimDuration::from_us(100),
            ..ServiceConfig::default()
        };
        let mut svc = service(3, cfg, SimDuration::from_ms(5));
        let job = svc.class_job(0).expect("registered");
        let victim = svc
            .runtime()
            .program(job)
            .expect("resident")
            .placement()
            .node_to_unit[1];
        let events = [
            ServiceEvent::FailUnit {
                at: SimTime::ZERO,
                unit: victim,
            },
            // Repaired before the first backoff expires.
            ServiceEvent::RepairUnit {
                at: SimTime::from_ns(50_000),
                unit: victim,
            },
        ];
        let r = svc.run_open_loop(1_000_000.0, 1, &events).expect("serves");
        assert_eq!(r.completed, 1);
        assert_eq!(r.retries, 1, "exactly one backoff retry");
        assert!(r.zero_lost());
        assert!(matches!(
            r.outcomes[0].disposition,
            Disposition::Completed { attempts: 2, .. }
        ));
    }

    #[test]
    fn retries_exhaust_into_failed_disposition() {
        let cfg = ServiceConfig {
            max_attempts: 3,
            backoff_base: SimDuration::from_us(100),
            ..ServiceConfig::default()
        };
        let mut svc = service(3, cfg, SimDuration::from_ms(5));
        let job = svc.class_job(0).expect("registered");
        let victim = svc
            .runtime()
            .program(job)
            .expect("resident")
            .placement()
            .node_to_unit[1];
        let events = [ServiceEvent::FailUnit {
            at: SimTime::ZERO,
            unit: victim,
        }];
        let r = svc.run_open_loop(1_000_000.0, 1, &events).expect("serves");
        assert_eq!(r.failed, 1);
        assert_eq!(r.retries, 2);
        assert!(!r.zero_lost());
        assert!(matches!(
            r.outcomes[0].disposition,
            Disposition::Failed { attempts: 3 }
        ));
    }

    #[test]
    fn deadline_cuts_the_retry_budget_short() {
        // Backoff alone (100 µs) exceeds the 20 µs SLO: the service must
        // stop after one attempt instead of burning the remaining budget.
        let cfg = ServiceConfig {
            max_attempts: 5,
            backoff_base: SimDuration::from_us(100),
            ..ServiceConfig::default()
        };
        let mut svc = service(3, cfg, SimDuration::from_us(20));
        let job = svc.class_job(0).expect("registered");
        let victim = svc
            .runtime()
            .program(job)
            .expect("resident")
            .placement()
            .node_to_unit[1];
        let events = [ServiceEvent::FailUnit {
            at: SimTime::ZERO,
            unit: victim,
        }];
        let r = svc.run_open_loop(1_000_000.0, 1, &events).expect("serves");
        assert_eq!(r.timed_out, 1);
        assert!(matches!(
            r.outcomes[0].disposition,
            Disposition::TimedOut { attempts: 1, .. }
        ));
    }

    #[test]
    fn mid_stream_failure_recovers_transparently() {
        // 6 units, 3 nodes: spares exist, so the engine's §V.A recovery
        // absorbs the fault without any service-level retry.
        let mut svc = service(6, ServiceConfig::default(), SimDuration::from_ms(1));
        let job = svc.class_job(0).expect("registered");
        let victim = svc
            .runtime()
            .program(job)
            .expect("resident")
            .placement()
            .node_to_unit[1];
        let events = [ServiceEvent::FailUnit {
            at: SimTime::ZERO,
            unit: victim,
        }];
        let r = svc.run_open_loop(100_000.0, 10, &events).expect("serves");
        assert_eq!(r.completed, 10);
        assert_eq!(r.recoveries, 1, "one mid-stream recovery");
        assert_eq!(r.retries, 0, "no service-level retry needed");
        assert!(r.zero_lost());
        assert!(r.outcomes.iter().any(|o| matches!(
            o.disposition,
            Disposition::Completed {
                recovered: true,
                ..
            }
        )));
    }

    #[test]
    fn arrival_burst_hammers_the_admission_queue() {
        let cfg = ServiceConfig {
            queue_capacity: 2,
            ..ServiceConfig::default()
        };
        // Light offered rate: without the burst nothing is ever shed.
        let clean = {
            let mut svc = service(4, cfg.clone(), SimDuration::from_us(100));
            svc.run_open_loop(10_000.0, 40, &[]).expect("serves")
        };
        assert_eq!(clean.shed, 0);
        let mut svc = service(4, cfg, SimDuration::from_us(100));
        let events = [ServiceEvent::ArrivalBurst {
            at: SimTime::ZERO,
            extra: 20,
        }];
        let r = svc.run_open_loop(10_000.0, 40, &events).expect("serves");
        assert_eq!(r.offered, 40, "bursts compress arrivals, not add them");
        assert!(r.shed > 0, "21 simultaneous arrivals must overrun cap 2");
        assert!(r.zero_lost(), "shedding loses nothing admitted");
        // The burst lands back-to-back: 21 outcomes share one arrival time.
        let first_burst_arrival = r.outcomes[0].arrival;
        let simultaneous = r
            .outcomes
            .iter()
            .filter(|o| o.arrival == first_burst_arrival)
            .count();
        assert_eq!(simultaneous, 21);
    }

    #[test]
    fn inject_events_land_through_the_service() {
        use cim_noc::packet::NodeId;
        // Link + congestion + cell-fault events flow through the same
        // schedule; the run completes and stays accounted.
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(500));
        let events = [
            ServiceEvent::Inject {
                at: SimTime::ZERO,
                kind: InjectionKind::Congestion {
                    from: NodeId::new(0, 0),
                    to: NodeId::new(3, 0),
                    packets: 4,
                    bytes: 256,
                },
            },
            ServiceEvent::Inject {
                at: SimTime::from_ns(1000),
                kind: InjectionKind::CellFaults {
                    unit: 1,
                    rate_ppm: 1000,
                    stuck_on_ppm: 500_000,
                    seed: 9,
                },
            },
            // Sever the only route between fc's tiles (1-D mesh): any
            // request in the window fails its attempt with NoRoute and
            // must be rescued by backoff retry after the repair below.
            ServiceEvent::Inject {
                at: SimTime::from_ns(2000),
                kind: InjectionKind::FailLink {
                    a: NodeId::new(1, 0),
                    b: NodeId::new(2, 0),
                },
            },
            ServiceEvent::Inject {
                at: SimTime::from_ns(5000),
                kind: InjectionKind::RepairLink {
                    a: NodeId::new(1, 0),
                    b: NodeId::new(2, 0),
                },
            },
        ];
        let r = svc.run_open_loop(100_000.0, 20, &events).expect("serves");
        assert_eq!(r.offered, 20);
        assert!(r.zero_lost(), "injections must not lose requests: {r:?}");
        assert!(!svc
            .runtime_mut()
            .device_mut()
            .noc_mut()
            .mesh_mut()
            .link_failed(NodeId::new(1, 0), NodeId::new(2, 0)));
    }

    /// A service whose one class is source → 4×4 matvec → sink, the
    /// stages on three tiles.
    fn matvec_service() -> (CimService, NodeRef, NodeRef) {
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width: 4 });
        let fc = b.add(
            "fc",
            Operation::MatVec {
                rows: 4,
                cols: 4,
                weights: (0..16).map(|i| f64::from(i % 5) / 5.0 - 0.4).collect(),
            },
        );
        let k = b.add("k", Operation::Sink { width: 4 });
        b.chain(&[s, fc, k]).expect("chain");
        let mut svc = CimService::new(fabric(4), ServiceConfig::default(), SeedTree::new(0x5EED))
            .expect("boots");
        svc.register_class(
            "mv",
            b.build().expect("valid"),
            s,
            k,
            SimDuration::from_ms(1),
            1,
        )
        .expect("resident");
        (svc, s, k)
    }

    /// The output bits of one probe request straight through the
    /// runtime, after a run.
    fn probe_bits(svc: &mut CimService, s: NodeRef, k: NodeRef) -> Vec<u64> {
        let job = svc.class_job(0).expect("registered");
        let item = std::collections::HashMap::from([(s, vec![0.9, -0.3, 0.6, 0.2])]);
        let report = svc
            .runtime_mut()
            .run(job, &[item], &crate::engine::StreamOptions::default())
            .expect("probe runs");
        report.outputs[0][&k].iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn a_mid_request_drift_spike_lands_exactly_once() {
        // The first request's window, from an unperturbed run.
        let (mut svc, s, k) = matvec_service();
        let probe = svc.run_open_loop(100_000.0, 5, &[]).expect("probe");
        let Disposition::Completed { finished, .. } = probe.outcomes[0].disposition else {
            panic!("probe request must complete");
        };
        let arrival = probe.outcomes[0].arrival;
        let mid = SimTime::from_ps((arrival.as_ps() + finished.as_ps()) / 2 + 1);
        let job = svc.class_job(0).expect("registered");
        let unit = svc
            .runtime()
            .program(job)
            .expect("resident")
            .placement()
            .unit_of(1);
        let spike = InjectionKind::DriftSpike {
            unit,
            drift_ppm: 100_000,
        };

        // The spike lands inside the first request; later requests
        // dispatch to the same device after it.
        let (mut svc, s2, k2) = matvec_service();
        let r = svc
            .run_open_loop(
                100_000.0,
                5,
                &[ServiceEvent::Inject {
                    at: mid,
                    kind: spike,
                }],
            )
            .expect("serves");
        assert_eq!(r.completed, 5);
        // A twin serves the same stream unperturbed, then takes the
        // spike once.
        let (mut twin, _, _) = matvec_service();
        twin.run_open_loop(100_000.0, 5, &[]).expect("serves");
        twin.runtime_mut().device_mut().apply_injection(&Injection {
            at: mid,
            kind: spike,
        });
        assert_eq!(
            probe_bits(&mut svc, s2, k2),
            probe_bits(&mut twin, s, k),
            "a 10 % spike applied twice drifts the crossbar by 0.9²"
        );
    }

    #[test]
    fn an_injection_after_a_crash_lands_once_after_the_power_cycle() {
        use cim_noc::packet::NodeId;
        let (arrival, finished) = first_request_window();
        let third = (finished.as_ps() - arrival.as_ps()) / 3;
        // The crash and then a congestion burst both fall inside the
        // first request, which the crash voids.
        let crash = SimTime::from_ps(arrival.as_ps() + third);
        let burst = ServiceEvent::Inject {
            at: SimTime::from_ps(arrival.as_ps() + 2 * third),
            kind: InjectionKind::Congestion {
                from: NodeId::new(0, 0),
                to: NodeId::new(3, 0),
                packets: 4,
                bytes: 256,
            },
        };
        let power_loss = ServiceEvent::PowerLoss {
            at: crash,
            restart_after: SimDuration::from_us(5),
        };
        let run = |events: &[ServiceEvent]| {
            let mut svc = service(4, ServiceConfig::default(), SimDuration::from_ms(1));
            let tel = svc
                .runtime_mut()
                .device_mut()
                .enable_telemetry(cim_sim::telemetry::TelemetryLevel::Metrics);
            let r = svc.run_open_loop(100_000.0, 5, events).expect("serves");
            assert_eq!((r.crashes, r.completed), (1, 5));
            let noc = tel.component("noc");
            let packets = tel
                .with_registry(|reg| reg.counter(noc, "packets"))
                .expect("telemetry on");
            let load: Vec<_> = svc.runtime().device().noc().link_load();
            (packets, load)
        };
        let (quiet_packets, quiet_load) = run(&[power_loss]);
        let (packets, load) = run(&[power_loss, burst]);
        // Sent once: four packets more than the run without it.
        assert_eq!(packets, quiet_packets + 4);
        // And after the power cycle, whose wipe would have erased the
        // burst's link reservations.
        assert_ne!(load, quiet_load);
    }

    #[test]
    fn event_schedules_are_deterministic() {
        use cim_noc::packet::NodeId;
        let run = || {
            let mut svc = service(6, ServiceConfig::default(), SimDuration::from_us(200));
            let events = [
                ServiceEvent::ArrivalBurst {
                    at: SimTime::ZERO,
                    extra: 5,
                },
                ServiceEvent::FailUnit {
                    at: SimTime::from_ns(500),
                    unit: 1,
                },
                ServiceEvent::Inject {
                    at: SimTime::from_ns(800),
                    kind: InjectionKind::FailLink {
                        a: NodeId::new(0, 0),
                        b: NodeId::new(1, 0),
                    },
                },
                ServiceEvent::RepairUnit {
                    at: SimTime::from_ns(50_000),
                    unit: 1,
                },
            ];
            svc.run_open_loop(200_000.0, 60, &events).expect("serves")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn backoff_is_monotone_then_saturates() {
        let base = SimDuration::from_us(10);
        // Monotone non-decreasing over the whole climb and past the cap.
        let mut prev = SimDuration::ZERO;
        for attempts in 1..=80u32 {
            let d = backoff_delay(base, attempts);
            assert!(d >= prev, "backoff must be monotone at attempt {attempts}");
            prev = d;
        }
        // Constant once the exponent saturates: attempt counts near 64
        // (the old shift's overflow cliff) and beyond all cap out.
        let cap = backoff_delay(base, 33);
        assert_eq!(cap, base * (1u64 << 32));
        for attempts in [33u32, 34, 63, 64, 65, 1_000, u32::MAX] {
            assert_eq!(
                backoff_delay(base, attempts),
                cap,
                "backoff must be constant at attempt {attempts}"
            );
        }
        // First retry waits exactly the base gap.
        assert_eq!(backoff_delay(base, 1), base);
    }

    /// Probes an unperturbed run and returns the first request's
    /// execution window, so a crash can be planted strictly inside it.
    fn first_request_window() -> (SimTime, SimTime) {
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_ms(1));
        let probe = svc.run_open_loop(100_000.0, 5, &[]).expect("probe");
        match &probe.outcomes[0].disposition {
            Disposition::Completed { finished, .. } => (probe.outcomes[0].arrival, *finished),
            other => panic!("probe request must complete, got {other:?}"),
        }
    }

    #[test]
    fn power_loss_mid_request_voids_and_recovers() {
        let (arrival, finished) = first_request_window();
        assert!(finished > arrival, "execution takes time");
        let mid = SimTime::from_ps((arrival.as_ps() + finished.as_ps()) / 2 + 1);
        let events = [ServiceEvent::PowerLoss {
            at: mid,
            restart_after: SimDuration::from_us(5),
        }];
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_ms(1));
        let r = svc.run_open_loop(100_000.0, 5, &events).expect("serves");
        assert_eq!(r.crashes, 1, "the crash was applied exactly once");
        assert_eq!(r.dirty_restores, 0, "the recovery pass restores clean");
        assert_eq!(r.completed, 5, "no completed request is lost");
        assert!(r.zero_lost());
        // The straddled attempt was voided, not retried: the request
        // re-dispatched after the restart on its original budget.
        match &r.outcomes[0].disposition {
            Disposition::Completed {
                finished: after,
                attempts,
                ..
            } => {
                assert_eq!(*attempts, 1, "a voided attempt burns no retry budget");
                assert!(
                    *after >= mid + SimDuration::from_us(5),
                    "the request finishes after the restart"
                );
            }
            other => panic!("straddled request must still complete, got {other:?}"),
        }
    }

    #[test]
    fn weakened_restore_is_a_detected_dirty_restore() {
        let (arrival, finished) = first_request_window();
        let mid = SimTime::from_ps((arrival.as_ps() + finished.as_ps()) / 2 + 1);
        let events = [ServiceEvent::PowerLoss {
            at: mid,
            restart_after: SimDuration::from_us(5),
        }];
        let cfg = ServiceConfig {
            restore_clears_volatile: false,
            ..ServiceConfig::default()
        };
        let mut svc = service(4, cfg, SimDuration::from_ms(1));
        let r = svc.run_open_loop(100_000.0, 5, &events).expect("serves");
        assert_eq!(r.crashes, 1);
        assert_eq!(
            r.dirty_restores, 1,
            "skipping the volatile wipe must be detected"
        );
    }

    #[test]
    fn crash_inside_an_outage_window_is_shadowed() {
        // The second crash lands while the device is already dark: it is
        // dropped (nothing left to kill), so exactly one recovery runs.
        let events = [
            ServiceEvent::PowerLoss {
                at: SimTime::from_ns(1_000),
                restart_after: SimDuration::from_us(10),
            },
            ServiceEvent::PowerLoss {
                at: SimTime::from_ns(4_000),
                restart_after: SimDuration::from_us(10),
            },
        ];
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_ms(1));
        let r = svc.run_open_loop(100_000.0, 10, &events).expect("serves");
        assert_eq!(r.crashes, 1, "the shadowed crash is a no-op");
        assert!(r.zero_lost());
    }

    #[test]
    fn crash_schedules_are_deterministic() {
        let run = || {
            let events = [ServiceEvent::PowerLoss {
                at: SimTime::from_ns(3_000),
                restart_after: SimDuration::from_us(20),
            }];
            let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(200));
            svc.run_open_loop(200_000.0, 60, &events).expect("serves")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_model_reflects_the_operating_point() {
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(100));
        let r = svc.run_open_loop(10_000.0, 50, &[]).expect("serves");
        // Light load: far from saturation and adding almost no wait.
        let light = r.queue_model(10_000.0);
        assert!(light.is_stable(), "10 k req/s on a ~15 ns pipeline");
        assert!(light.utilization() < 0.01);
        assert!(light.predicted_latency() >= light.service());
        // The same service time at an absurd offered rate is unstable.
        let heavy = r.queue_model(1.0e12);
        assert!(!heavy.is_stable());
    }

    #[test]
    fn analytic_mode_serves_like_detailed_at_light_load() {
        let run = |mode: cim_sim::SimMode| {
            let mut svc = CimService::new(
                FabricConfig {
                    sim_mode: mode,
                    ..fabric(4)
                },
                ServiceConfig::default(),
                SeedTree::new(0x5EED),
            )
            .expect("boots");
            let (g, s, k) = tiny_graph(4);
            svc.register_class("tiny", g, s, k, SimDuration::from_us(100), 1)
                .expect("resident");
            svc.run_open_loop(10_000.0, 50, &[]).expect("serves")
        };
        let det = run(cim_sim::SimMode::Detailed);
        let ana = run(cim_sim::SimMode::Analytic);
        // Contention-free operating point: the analytic tier's zero-load
        // floor is exact, so the two tiers agree request by request.
        assert_eq!(det.completed, ana.completed);
        assert_eq!(det.outcomes, ana.outcomes);
    }

    #[test]
    fn classes_must_be_resident() {
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(100));
        // 3 of 4 units are taken by the first class; another 3-node
        // class cannot be resident.
        let (g, s, k) = tiny_graph(4);
        let err = svc.register_class("late", g, s, k, SimDuration::from_us(100), 1);
        assert!(matches!(err, Err(FabricError::CapacityExceeded { .. })));
    }

    #[test]
    fn serving_without_classes_errors() {
        let mut svc =
            CimService::new(fabric(4), ServiceConfig::default(), SeedTree::new(1)).expect("boots");
        assert!(matches!(
            svc.run_open_loop(1_000.0, 1, &[]),
            Err(FabricError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn reports_are_deterministic() {
        let run = || {
            let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(30));
            svc.run_open_loop(2_000_000.0, 200, &[]).expect("serves")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn telemetry_counters_match_the_report() {
        let mut svc = service(4, ServiceConfig::default(), SimDuration::from_us(100));
        let tel = svc
            .runtime_mut()
            .device_mut()
            .enable_telemetry(cim_sim::telemetry::TelemetryLevel::Metrics);
        let r = svc.run_open_loop(10_000.0, 30, &[]).expect("serves");
        let c = tel.component("service");
        tel.with_registry(|reg| {
            assert_eq!(reg.counter(c, "offered"), 30);
            assert_eq!(reg.counter(c, "completed"), r.completed as u64);
            assert_eq!(reg.counter(c, "shed"), r.shed as u64);
            let h = reg.histogram(c, "latency_ns").expect("latency histogram");
            assert_eq!(h.count(), (r.completed + r.timed_out) as u64);
        })
        .expect("registry");
    }
}
