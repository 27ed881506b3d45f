//! Request serving: the one request path, from a single device's front
//! door (§III.E) to a multi-device fleet with whole-device failover
//! (§IV.B/C at fleet scale, Table 1 made live).
//!
//! The paper's deployment story starts with CIM parts attached "as slave
//! devices" that a host hands work to, and composes them into systems
//! that fail over. [`CimFleet`] is that front door at every scale. It
//! owns N simulated [`CimRuntime`] devices, keeps one resident program
//! per tenant class on each of a class's replica devices (stationary
//! weights), admits an open-loop arrival stream against a bounded queue
//! per device, sheds load once the routed queue is full, enforces
//! per-request deadlines, and retries recoverable faults with bounded
//! exponential backoff — riding on the engine's §V.A mid-stream spare
//! recovery for faults that surface while a request is executing.
//!
//! Arrivals are routed to the least-outstanding live replica. A
//! whole-device outage ([`FleetEvent::DeviceDown`]) fences the device:
//! requests caught mid-execution are *voided* (their work discarded,
//! never double-counted) and re-dispatched to a surviving replica after
//! a short detection delay. [`FleetEvent::DeviceUp`] re-admits the
//! repaired device. A [`FleetEvent::PowerLoss`] fences the device until
//! a known restart; when no replica of a class is live and one of them
//! is dark from a power loss, the request waits for the earliest
//! restart, and its deadline is checked after that wait.
//!
//! A fleet of one device and one replica is a single service, and
//! [`crate::service::CimService`] is exactly that: the lone device keeps
//! the template seed, has nothing to route between and no router to
//! detect a crash (zero detection delay), and records `service/*`
//! metrics on its own telemetry (nothing while that is off). A fleet of
//! two or more devices records `fleet/*` and `fleet/dev{i}/*` on a
//! private, always-on registry.
//!
//! The contrast with a conventional cluster is the failover currency:
//! CIM replicas hold *resident* programmed conductances, so recovery
//! pays only detection plus re-execution, not the
//! checkpoint-shipping/state-transfer penalty `baseline::cluster`
//! charges (50 ms detection + state over the network). The report keeps
//! the full arrival record so `baseline::serving` can replay the
//! identical workload through the cluster model — one harness, two
//! platforms, same chaos schedule.
//!
//! ```text
//!            ┌─ router: shard + replica set per class ─┐
//! arrivals ──┤  admission (queue bound) ─► dispatch     ├──► device 0..N
//!            │  full: shed   fault: backoff + retry     │
//!            └─ DeviceDown: void + re-route + detect ───┘
//! ```
//!
//! Everything runs in simulated time on the in-tree RNG: reports are
//! bit-identical at every `CIM_THREADS` setting, and
//! [`FleetReport::fingerprint`] condenses the whole run (outcomes,
//! dispositions, output bits) into one comparable word even when
//! outcome storage is turned off for soaks.

use crate::config::FabricConfig;
use crate::engine::{Injection, InjectionKind, Served};
use crate::error::{FabricError, Result};
use crate::mapper::MappingPolicy;
use crate::runtime::{CimRuntime, JobId, JobStatus};
use crate::service::{Disposition, LatencyStats, RequestOutcome, ServiceConfig};
use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_dataflow::ops::Operation;
use cim_sim::energy::Energy;
use cim_sim::rng::{exponential, splitmix64, Fnv1a, Rng};
use cim_sim::stats::Samples;
use cim_sim::telemetry::{ComponentId, Telemetry, TelemetryLevel};
use cim_sim::time::{SimDuration, SimTime};
use cim_sim::SeedTree;

/// Fleet-level knobs on top of the per-device [`ServiceConfig`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Devices in the fleet. One device is a single service (see the
    /// module docs).
    pub devices: usize,
    /// Replicas per tenant class (resident copies on distinct devices).
    pub replicas: usize,
    /// Per-device fabric template. With two or more devices, device `i`
    /// gets a distinct derived seed so stochastic models decorrelate
    /// across the fleet; a lone device keeps the template seed.
    pub fabric: FabricConfig,
    /// Admission/retry policy, applied per device queue.
    pub service: ServiceConfig,
    /// Delay between a device dying under a request and the router
    /// re-dispatching it to a replica — the CIM failover currency:
    /// replicas are already resident, so this is detection, not state
    /// transfer. A lone device has no router to detect anything: it
    /// re-dispatches a voided attempt at the restart, with no delay.
    pub failover_detect: SimDuration,
    /// Keep per-request outcomes on the report. Turn off for multi-
    /// million-request soaks; the fingerprint and counters still cover
    /// every request.
    pub keep_outcomes: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            devices: 4,
            replicas: 2,
            fabric: FabricConfig::default(),
            service: ServiceConfig::default(),
            failover_detect: SimDuration::from_us(2),
            keep_outcomes: true,
        }
    }
}

/// A scheduled fleet-level event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEvent {
    /// Whole-device outage: the device is fenced from routing and every
    /// request caught mid-execution on it is voided and re-routed.
    DeviceDown {
        /// Simulated time the device dies.
        at: SimTime,
        /// Fleet device index.
        device: usize,
    },
    /// The device returns to service and rejoins routing.
    DeviceUp {
        /// Simulated time the device is healthy again.
        at: SimTime,
        /// Fleet device index.
        device: usize,
    },
    /// An engine injection on one device (unit or link fault, repair,
    /// congestion burst, cell faults, drift spike, attack probe), with
    /// unit and tile coordinates local to that device.
    ///
    /// Each injection lands exactly once. Injections due by a dispatch
    /// are applied by the device's event cursor before the attempt runs;
    /// the still-future ones, up to the device's next power loss, are
    /// handed to the engine as a borrowed tail, so an injection whose
    /// time falls *inside* a request's execution lands at that precise
    /// sim-time point instead of waiting for the next dispatch boundary.
    /// The engine reports how many it applied, also when the attempt
    /// fails, and the cursor moves past them. This matters beyond
    /// bookkeeping: health and link events are absolute state-sets, but
    /// [`InjectionKind::DriftSpike`] compounds,
    /// [`InjectionKind::Congestion`] sends its burst again and an attack
    /// logs its probes again when applied twice. An injection scheduled
    /// after a power loss lands after that crash's recovery pass.
    Inject {
        /// Simulated time the injection lands.
        at: SimTime,
        /// Fleet device index.
        device: usize,
        /// What it does.
        kind: InjectionKind,
    },
    /// An arrival burst at the fleet front door: the next `extra`
    /// open-loop arrivals after `at` land back-to-back at the same
    /// instant, hammering the admission queue.
    ArrivalBurst {
        /// Simulated time the burst begins.
        at: SimTime,
        /// Arrivals beyond the first that land simultaneously.
        extra: u16,
    },
    /// Power loss on one device: it is fenced like a
    /// [`FleetEvent::DeviceDown`] with a known end, its volatile state
    /// is lost, and the [`crate::runtime::CimRuntime::power_cycle`]
    /// recovery pass restores the nonvolatile image when it rejoins
    /// routing at `at + restart_after`. In-flight work is voided and
    /// re-routed exactly like any whole-device failover.
    PowerLoss {
        /// Simulated time power is lost.
        at: SimTime,
        /// Fleet device index.
        device: usize,
        /// Outage duration: the device rejoins at `at + restart_after`.
        restart_after: SimDuration,
    },
}

impl FleetEvent {
    /// The simulated time this event fires.
    pub fn at(&self) -> SimTime {
        match *self {
            FleetEvent::DeviceDown { at, .. }
            | FleetEvent::DeviceUp { at, .. }
            | FleetEvent::Inject { at, .. }
            | FleetEvent::ArrivalBurst { at, .. }
            | FleetEvent::PowerLoss { at, .. } => at,
        }
    }
}

/// Per-device accounting on the fleet report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceLoad {
    /// Execution attempts dispatched to this device.
    pub dispatched: u64,
    /// Attempts that completed here and counted (the request's final
    /// execution).
    pub served: u64,
    /// Attempts whose work was discarded because the device died before
    /// the result could leave it (re-routed elsewhere; never counted
    /// twice).
    pub voided: u64,
    /// Energy charged on this device's meter.
    pub energy: Energy,
}

/// SLO accounting for one serving run (a fleet, or a single service).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-request outcomes in arrival order; empty when
    /// [`FleetConfig::keep_outcomes`] is off (the fingerprint still
    /// covers them).
    pub outcomes: Vec<RequestOutcome>,
    /// `(arrival, class)` for every offered request, in order — the
    /// extracted workload `baseline::serving` replays through the
    /// cluster model for the like-for-like Table 1 comparison. Always
    /// recorded.
    pub arrivals: Vec<(SimTime, usize)>,
    /// Requests offered by the arrival process.
    pub offered: usize,
    /// Requests that passed admission on some device.
    pub admitted: usize,
    /// Requests shed at admission (queue full, or no live replica).
    pub shed: usize,
    /// Requests completed within deadline.
    pub completed: usize,
    /// Requests that finished or gave up past deadline.
    pub timed_out: usize,
    /// Requests whose retry budget ran out.
    pub failed: usize,
    /// §V.A mid-stream spare recoveries under successful attempts.
    pub recoveries: usize,
    /// Retry attempts beyond each request's first (not counting
    /// failover re-routes).
    pub retries: usize,
    /// Attempts voided because their device died under them, each one
    /// re-dispatched (to a replica, or after the restart).
    pub failovers: usize,
    /// Power-loss crashes recovered by devices (each one a
    /// [`crate::runtime::CimRuntime::power_cycle`] pass).
    pub crashes: usize,
    /// Crashes whose restore left non-pristine volatile state. Always 0
    /// under the shipped recovery pass; nonzero only when
    /// [`ServiceConfig::restore_clears_volatile`] is deliberately
    /// weakened — the detectable half of the recovery contract.
    pub dirty_restores: usize,
    /// Latency distribution of requests that ran to completion.
    pub latency: LatencyStats,
    /// Per-device dispatch/void/energy accounting.
    pub per_device: Vec<DeviceLoad>,
    /// Total energy across every device meter.
    pub energy: Energy,
    /// FNV-1a digest of every outcome (id, class, arrival, disposition,
    /// output bits) — order-sensitive, collected streamingly so soaks
    /// with `keep_outcomes: false` still get an exact equality check.
    pub fingerprint: u64,
    /// SLO alert timeline in firing order (empty unless observability
    /// is enabled).
    pub alerts: Vec<cim_obs::AlertEvent>,
    /// `kind:"series"` JSON-lines export of the windowed time-series
    /// (empty unless observability is enabled; analytic-mode runs carry
    /// the coarse series synthesized from the queue operating point).
    pub series_jsonl: String,
}

impl FleetReport {
    /// No admitted request was lost: every one completed or is a
    /// deliberate, accounted SLO miss.
    pub fn zero_lost(&self) -> bool {
        self.failed == 0 && self.completed + self.timed_out == self.admitted
    }

    /// Fraction of offered requests completed within deadline.
    pub fn goodput(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.completed as f64 / self.offered as f64
    }

    /// Total requests whose final execution each device served — must
    /// equal `completed + timed_out` when nothing double-executes.
    pub fn served_total(&self) -> u64 {
        self.per_device.iter().map(|d| d.served).sum()
    }

    /// Total voided (discarded, re-routed) executions — must equal
    /// `failovers` when every failover voids exactly one attempt.
    pub fn voided_total(&self) -> u64 {
        self.per_device.iter().map(|d| d.voided).sum()
    }

    /// The analytic tier's queueing view of this run: an M/D/1-style
    /// model built from the offered arrival rate and the observed mean
    /// service time of requests that ran to completion. Use it to ask
    /// closed-form questions — is this operating point stable, what
    /// wait does the queue add — without re-running the stream;
    /// `analytic_check` cross-validates it against full runs.
    pub fn queue_model(&self, rate_hz: f64) -> cim_sim::analytic::QueueModel {
        cim_sim::analytic::QueueModel::new(
            rate_hz,
            SimDuration::from_ns_f64(self.latency.mean_us * 1_000.0),
        )
    }
}

/// Backoff before the next attempt after `attempts` attempts have been
/// made: `base · 2^(attempts-1)`, with the exponent saturated at 32 so
/// attempt counts near 64 (or beyond) cap the delay instead of
/// overflowing the shift. Monotone non-decreasing in `attempts`, then
/// constant at the cap.
pub(crate) fn backoff_delay(base: SimDuration, attempts: u32) -> SimDuration {
    base * (1u64 << attempts.saturating_sub(1).min(32))
}

/// Draws an index from `weights` proportionally to each entry, consuming
/// exactly one `gen_range` from the RNG.
///
/// # Panics
///
/// Panics (in `gen_range`) if every weight is zero; callers validate.
fn weighted_pick(rng: &mut impl Rng, weights: &[u32]) -> usize {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut pick = rng.gen_range(0..total);
    let mut idx = weights.len() - 1;
    for (i, &w) in weights.iter().enumerate() {
        let w = u64::from(w);
        if pick < w {
            idx = i;
            break;
        }
        pick -= w;
    }
    idx
}

struct FleetClass {
    name: String,
    src: NodeRef,
    sink: NodeRef,
    input_width: usize,
    deadline: SimDuration,
    weight: u32,
    /// `(device, resident job)` per replica, preference order.
    replicas: Vec<(usize, JobId)>,
}

struct FleetDevice {
    rt: CimRuntime,
    /// Departure times of requests whose final execution ran here.
    in_flight: Vec<SimTime>,
    /// Per-run accounting, reset at the start of every run.
    dispatched: u64,
    served: u64,
    voided: u64,
    crashes: u64,
    dirty_restores: u64,
}

/// One fenced interval `[start, end)` of a device. A power loss knows
/// its restart; a [`FleetEvent::DeviceDown`] stays open (`end ==
/// SimTime::MAX`) until its [`FleetEvent::DeviceUp`].
#[derive(Debug, Clone, Copy)]
struct Outage {
    start: SimTime,
    end: SimTime,
    power_loss: bool,
}

/// One run's event schedule, split into its three consumers: fenced
/// intervals per device (routing), each device's feed of engine
/// injections and power cycles, and front-door bursts.
struct Schedule {
    outages: Vec<Vec<Outage>>,
    feeds: Vec<DeviceFeed>,
    bursts: Vec<(SimTime, u16)>,
}

/// One device's injections and power losses, lowered once per run, with
/// cursors over what has been applied. Together the two lists keep the
/// schedule's time order: a power loss lands after the injections
/// scheduled before it.
#[derive(Default)]
struct DeviceFeed {
    /// Engine injections, sorted by `at`.
    injections: Vec<Injection>,
    /// Power losses, sorted by time, each with the number of injections
    /// scheduled before it.
    power_losses: Vec<(SimTime, usize)>,
    /// Injections applied so far.
    next_injection: usize,
    /// Power losses whose recovery pass has run.
    next_power_loss: usize,
}

impl DeviceFeed {
    /// The tail an attempt hands the engine: the injections not applied
    /// yet, in time order, up to the next power loss. An injection
    /// scheduled after a crash must land after its recovery pass, which
    /// only [`CimFleet::apply_due`] runs.
    fn tail(&self) -> &[Injection] {
        let end = self
            .power_losses
            .get(self.next_power_loss)
            .map_or(self.injections.len(), |&(_, before)| before);
        &self.injections[self.next_injection..end]
    }
}

impl Schedule {
    /// Sorts `events` by time and splits them across `n` devices. A
    /// down or a crash landing inside an open outage, or inside the
    /// detection window `detect` of the previous one's start, is
    /// shadowed: the router has not re-admitted the device yet, so a
    /// flap is one outage, not two, and a crash while dark kills nothing
    /// new.
    ///
    /// # Errors
    ///
    /// [`FabricError::InvalidConfig`] for an event naming a device
    /// outside the fleet.
    fn new(events: &[FleetEvent], n: usize, detect: SimDuration) -> Result<Schedule> {
        let mut events = events.to_vec();
        events.sort_by_key(FleetEvent::at);
        let mut s = Schedule {
            outages: vec![Vec::new(); n],
            feeds: (0..n).map(|_| DeviceFeed::default()).collect(),
            bursts: Vec::new(),
        };
        for ev in events {
            match ev {
                FleetEvent::DeviceDown { at, device } => {
                    check_device(device, n)?;
                    if !s.shadowed(device, at, detect) {
                        s.outages[device].push(Outage {
                            start: at,
                            end: SimTime::MAX,
                            power_loss: false,
                        });
                    }
                }
                FleetEvent::DeviceUp { at, device } => {
                    check_device(device, n)?;
                    // An up with no matching open down (the down was
                    // shadowed, or never happened) is a no-op.
                    if let Some(last) = s.outages[device].last_mut() {
                        if last.end == SimTime::MAX && last.start <= at {
                            last.end = at;
                        }
                    }
                }
                FleetEvent::PowerLoss {
                    at,
                    device,
                    restart_after,
                } => {
                    check_device(device, n)?;
                    if !s.shadowed(device, at, detect) {
                        // Fence like an outage with a known end, and
                        // queue the recovery pass on the device's feed
                        // so the power cycle applies exactly once,
                        // before the next attempt touches state.
                        s.outages[device].push(Outage {
                            start: at,
                            end: at + restart_after,
                            power_loss: true,
                        });
                        let feed = &mut s.feeds[device];
                        feed.power_losses.push((at, feed.injections.len()));
                    }
                }
                FleetEvent::Inject { at, device, kind } => {
                    check_device(device, n)?;
                    s.feeds[device].injections.push(Injection { at, kind });
                }
                FleetEvent::ArrivalBurst { at, extra } => s.bursts.push((at, extra)),
            }
        }
        Ok(s)
    }

    fn shadowed(&self, device: usize, at: SimTime, detect: SimDuration) -> bool {
        let outages = &self.outages[device];
        down_at(outages, at) || outages.last().is_some_and(|o| at < o.start + detect)
    }
}

/// Where one run's serving metrics land: `service/*` on a lone device's
/// own telemetry (nothing while that is off), or `fleet/*` plus
/// per-device `fleet/dev{i}/*` on the fleet's private registry.
struct Sink {
    tel: Telemetry,
    /// `service` or `fleet`; `None` while a lone device records nothing.
    run: Option<ComponentId>,
    /// `fleet/dev{i}` per device; empty for a lone device.
    dev: Vec<ComponentId>,
}

impl Sink {
    fn add(&self, metric: &'static str, n: u64) {
        if let Some(c) = self.run {
            self.tel.counter_add(c, metric, n);
        }
    }

    fn gauge(&self, metric: &'static str, v: f64) {
        if let Some(c) = self.run {
            self.tel.gauge_set(c, metric, v);
        }
    }

    fn record(&self, metric: &'static str, v: u64) {
        if let Some(c) = self.run {
            self.tel.record(c, metric, v);
        }
    }

    /// A per-device counter; fleets only.
    fn add_dev(&self, device: usize, metric: &'static str) {
        if let Some(&c) = self.dev.get(device) {
            self.tel.counter_add(c, metric, 1);
        }
    }

    /// A crash counter: per device in a fleet, on the run component of
    /// a lone device.
    fn add_crash(&self, device: usize, metric: &'static str) {
        if let Some(c) = self.dev.get(device).copied().or(self.run) {
            self.tel.counter_add(c, metric, 1);
        }
    }
}

/// What one dispatch attempt on a device came back with.
enum Attempt {
    /// The device survived to deliver.
    Delivered(Served),
    /// The device died at the contained time before the result left it.
    DeviceLost(SimTime),
    /// Recoverable fault (no spare / no route): back off and retry.
    Recoverable,
}

/// How an admitted request left the dispatch loop.
enum Exit {
    /// Ran until `finished`; an empty `output` means it gave up past
    /// its deadline.
    Finished {
        finished: SimTime,
        attempts: u32,
        recovered: bool,
        output: Vec<f64>,
    },
    /// Every attempt hit a recoverable fault and the budget ran out.
    Exhausted { attempts: u32 },
}

impl Exit {
    fn gave_up(finished: SimTime, attempts: u32) -> Exit {
        Exit::Finished {
            finished,
            attempts,
            recovered: false,
            output: Vec::new(),
        }
    }
}

/// The request-serving front door over N CIM devices.
///
/// # Examples
///
/// ```
/// use cim_fabric::fleet::{CimFleet, FleetConfig};
/// use cim_sim::time::SimDuration;
/// use cim_sim::SeedTree;
/// use cim_dataflow::graph::GraphBuilder;
/// use cim_dataflow::ops::Operation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut fleet = CimFleet::new(FleetConfig::default(), SeedTree::new(1))?;
/// let mut b = GraphBuilder::new();
/// let s = b.add("in", Operation::Source { width: 4 });
/// let k = b.add("out", Operation::Sink { width: 4 });
/// b.connect(s, k, 0)?;
/// fleet.register_class("echo", b.build()?, s, k, SimDuration::from_us(500), 1)?;
/// let report = fleet.run_open_loop(50_000.0, 20, &[])?;
/// assert_eq!(report.offered, 20);
/// assert!(report.zero_lost());
/// # Ok(())
/// # }
/// ```
pub struct CimFleet {
    cfg: FleetConfig,
    devices: Vec<FleetDevice>,
    classes: Vec<FleetClass>,
    seeds: SeedTree,
    /// Rotating shard anchor: consecutive classes start their replica
    /// sets on consecutive devices, spreading tenants across the fleet.
    next_shard: usize,
    /// Id of the next arrival; every run numbers its requests from 0.
    next_request: u64,
    /// The fleet's private metrics registry; `None` for a lone device,
    /// which records on its own telemetry instead.
    tel: Option<Telemetry>,
    obs: Option<cim_obs::ObsConfig>,
}

impl std::fmt::Debug for CimFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CimFleet")
            .field("devices", &self.devices.len())
            .field("classes", &self.classes.len())
            .field("config", &self.cfg)
            .finish_non_exhaustive()
    }
}

impl CimFleet {
    /// Boots `cfg.devices` fresh devices. With two or more, device `i`
    /// derives its fabric seed from the template seed, so the fleet's
    /// stochastic models (noise, drift, cell faults) decorrelate across
    /// devices while the whole fleet stays a pure function of one root
    /// seed; a lone device keeps the template seed.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] for zero devices, a
    /// replica count outside `1..=devices`, zero attempts per request
    /// or a zero queue capacity; propagates device construction
    /// failures.
    pub fn new(cfg: FleetConfig, seeds: SeedTree) -> Result<Self> {
        let invalid = |reason: String| Err(FabricError::InvalidConfig { reason });
        if cfg.devices == 0 {
            return invalid("fleet needs at least one device".into());
        }
        if cfg.replicas == 0 || cfg.replicas > cfg.devices {
            return invalid(format!(
                "replica count {} must be in 1..={} (device count)",
                cfg.replicas, cfg.devices
            ));
        }
        if cfg.service.max_attempts == 0 {
            return invalid("need at least one attempt per request".into());
        }
        if cfg.service.queue_capacity == 0 {
            return invalid("queue capacity must be positive".into());
        }
        let lone = cfg.devices == 1;
        let mut devices = Vec::with_capacity(cfg.devices);
        for i in 0..cfg.devices {
            let seed = if lone {
                cfg.fabric.seed
            } else {
                splitmix64(cfg.fabric.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            };
            devices.push(FleetDevice {
                rt: CimRuntime::new(FabricConfig {
                    seed,
                    ..cfg.fabric.clone()
                })?,
                in_flight: Vec::new(),
                dispatched: 0,
                served: 0,
                voided: 0,
                crashes: 0,
                dirty_restores: 0,
            });
        }
        Ok(CimFleet {
            cfg,
            devices,
            classes: Vec::new(),
            seeds,
            next_shard: 0,
            next_request: 0,
            tel: (!lone).then(|| Telemetry::new(TelemetryLevel::Metrics)),
            obs: None,
        })
    }

    /// Attaches the observability pipeline to subsequent
    /// [`CimFleet::run_open_loop`] calls: windowed time-series sampled
    /// on a fixed 10 µs sim-time cadence, per-tenant SLO burn-rate
    /// alerting (one spec per registered class), and the series/alert
    /// exports on [`FleetReport`]. Empty [`cim_obs::ObsConfig::tracks`]
    /// default to
    /// [`cim_obs::TrackSpec::fleet_defaults`] scoped to this fleet's
    /// device count, or to [`cim_obs::TrackSpec::serving_defaults`] on a
    /// lone device.
    pub fn enable_observability(&mut self, cfg: cim_obs::ObsConfig) {
        self.obs = Some(cfg);
    }

    /// Number of devices in the fleet.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Device `i`'s runtime, read-only (placement/telemetry inspection).
    pub fn runtime(&self, device: usize) -> &CimRuntime {
        &self.devices[device].rt
    }

    /// Device `i`'s runtime, mutable (fault targeting).
    pub fn runtime_mut(&mut self, device: usize) -> &mut CimRuntime {
        &mut self.devices[device].rt
    }

    /// The devices hosting a class's replicas, preference order.
    pub fn replica_devices(&self, class: usize) -> Vec<usize> {
        self.classes
            .get(class)
            .map(|c| c.replicas.iter().map(|&(d, _)| d).collect())
            .unwrap_or_default()
    }

    /// The resident job of a class's first replica. `None` for
    /// out-of-range indices.
    pub(crate) fn class_job(&self, class: usize) -> Option<JobId> {
        self.classes.get(class).map(|c| c.replicas[0].1)
    }

    /// Registered class names, in registration order.
    pub fn class_names(&self) -> Vec<&str> {
        self.classes.iter().map(|c| c.name.as_str()).collect()
    }

    /// Registers a tenant class: loads its graph as a resident program,
    /// placed [`MappingPolicy::LocalityAware`], on
    /// [`FleetConfig::replicas`] distinct devices (the replica set,
    /// anchored at a rotating shard cursor) and returns the class index.
    /// `weight` is the class's share of the open-loop traffic mix.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] unless `src` is a source
    /// node and `sink` a sink node of `graph`;
    /// [`FabricError::CapacityExceeded`] if any replica cannot be
    /// resident (residency is the point: serving never waits for
    /// reprogramming; the placements made so far are rolled back); or
    /// propagates programming failures.
    pub fn register_class(
        &mut self,
        name: &str,
        graph: DataflowGraph,
        src: NodeRef,
        sink: NodeRef,
        deadline: SimDuration,
        weight: u32,
    ) -> Result<usize> {
        let op = |r: NodeRef| (r.index() < graph.node_count()).then(|| &graph.node(r).op);
        if !matches!(op(src), Some(Operation::Source { .. }))
            || !matches!(op(sink), Some(Operation::Sink { .. }))
        {
            return Err(FabricError::InvalidConfig {
                reason: format!("class '{name}' must name a source node and a sink node"),
            });
        }
        let input_width = graph.node(src).op.output_width();
        let anchor = self.next_shard;
        let mut replicas = Vec::with_capacity(self.cfg.replicas);
        for k in 0..self.cfg.replicas {
            let d = (anchor + k) % self.devices.len();
            let nodes = graph.node_count();
            let free = self.devices[d].rt.free_units();
            let status = match self.devices[d]
                .rt
                .submit(graph.clone(), MappingPolicy::LocalityAware)
            {
                Ok(s) => s,
                Err(e) => {
                    self.rollback(&replicas);
                    return Err(e);
                }
            };
            match status {
                JobStatus::Running(id) => replicas.push((d, id)),
                // Resident or bust, on every replica: a queued copy
                // could never serve and would wedge that device's FIFO.
                JobStatus::Queued(_) => {
                    self.rollback(&replicas);
                    return Err(FabricError::CapacityExceeded {
                        needed: nodes,
                        available: free,
                    });
                }
            }
        }
        self.next_shard = (self.next_shard + 1) % self.devices.len();
        self.classes.push(FleetClass {
            name: name.to_string(),
            src,
            sink,
            input_width,
            deadline,
            weight,
            replicas,
        });
        Ok(self.classes.len() - 1)
    }

    fn rollback(&mut self, placed: &[(usize, JobId)]) {
        for &(d, job) in placed {
            // Freshly submitted and never run; finish cannot fail.
            let _ = self.devices[d].rt.finish(job);
        }
    }

    /// Routes one request to a live replica index, or `None` if every
    /// replica is fenced: the replica with the fewest requests still in
    /// flight, ties rotating on the request id so equally idle replicas
    /// share load instead of funnelling everything to the first.
    fn route(
        &mut self,
        class: usize,
        id: u64,
        when: SimTime,
        outages: &[Vec<Outage>],
    ) -> Option<usize> {
        // A lone device has nothing to route between: like a single
        // service, its queue is purged only at admission.
        if self.lone() {
            return (!down_at(&outages[0], when)).then_some(0);
        }
        let replicas = &self.classes[class].replicas;
        let devices = &mut self.devices;
        let k = replicas.len();
        (0..k)
            .filter(|&r| !down_at(&outages[replicas[r].0], when))
            .min_by_key(|&r| {
                // Purge departed requests so the count reflects `when`.
                let dev = &mut devices[replicas[r].0];
                dev.in_flight.retain(|&dep| dep > when);
                (dev.in_flight.len(), (k + r - id as usize % k) % k)
            })
    }

    /// [`CimFleet::route`], or else the replica dark from a power loss
    /// that restarts first: the request waits for it. `None` when every
    /// replica is fenced with no known end.
    fn pick(
        &mut self,
        class: usize,
        id: u64,
        when: SimTime,
        outages: &[Vec<Outage>],
    ) -> Option<usize> {
        self.route(class, id, when, outages)
            .or_else(|| self.first_restart(class, when, outages).map(|(_, r)| r))
    }

    /// `when`, or the earliest restart if no replica of `class` is live
    /// at `when` and one is dark from a power loss.
    fn restart_wait(&self, class: usize, when: SimTime, outages: &[Vec<Outage>]) -> SimTime {
        let live = self.classes[class]
            .replicas
            .iter()
            .any(|&(d, _)| !down_at(&outages[d], when));
        match self.first_restart(class, when, outages) {
            Some((restart, _)) if !live => restart,
            _ => when,
        }
    }

    /// The replica of `class` dark from a power loss at `when` that
    /// restarts first, with its restart time.
    fn first_restart(
        &self,
        class: usize,
        when: SimTime,
        outages: &[Vec<Outage>],
    ) -> Option<(SimTime, usize)> {
        let replicas = &self.classes[class].replicas;
        (0..replicas.len())
            .filter_map(|r| restart_at(&outages[replicas[r].0], when).map(|t| (t, r)))
            .min()
    }

    /// Applies device `d`'s events due by `when`, exactly once each, in
    /// schedule order. The crash of a due power loss is in the past (its
    /// outage already fenced routing and voided straddled work); its
    /// recovery pass runs now, before the next attempt touches state.
    fn apply_due(&mut self, d: usize, when: SimTime, sched: &mut Schedule, sink: &Sink) {
        let feed = &mut sched.feeds[d];
        loop {
            let power_loss = feed
                .power_losses
                .get(feed.next_power_loss)
                .filter(|&&(_, before)| before <= feed.next_injection);
            if let Some(&(at, _)) = power_loss {
                if at > when {
                    break;
                }
                let dev = &mut self.devices[d];
                let pristine = dev.rt.power_cycle(self.cfg.service.restore_clears_volatile);
                dev.crashes += 1;
                sink.add_crash(d, "crashes");
                if !pristine {
                    dev.dirty_restores += 1;
                    sink.add_crash(d, "dirty_restores");
                }
                feed.next_power_loss += 1;
            } else if let Some(inj) = feed.injections.get(feed.next_injection) {
                if inj.at > when {
                    break;
                }
                self.devices[d].rt.device_mut().apply_injection(inj);
                feed.next_injection += 1;
            } else {
                break;
            }
        }
    }

    /// One execution attempt on replica `r` of `class`, honouring the
    /// device's scheduled outages: a result that would land after the
    /// device dies is voided, not delivered.
    fn attempt(
        &mut self,
        class: usize,
        r: usize,
        when: SimTime,
        input: &[f64],
        sched: &mut Schedule,
        sink: &Sink,
    ) -> Result<Attempt> {
        let (d, job) = self.classes[class].replicas[r];
        let (src, class_sink) = (self.classes[class].src, self.classes[class].sink);
        sink.add_dev(d, "dispatched");
        self.apply_due(d, when, sched, sink);
        self.devices[d].dispatched += 1;
        // The still-future injection tail rides into the engine so that
        // an event falling inside this request's execution lands at its
        // precise sim-time point (§V.A mid-item detection). What the
        // engine applied has landed, even if the attempt then fails or
        // is voided: the cursor moves past it, so no later dispatch
        // applies it again.
        let feed = &mut sched.feeds[d];
        let (served, applied) =
            self.devices[d]
                .rt
                .serve(job, src, input, class_sink, when, feed.tail());
        feed.next_injection += applied;
        match served {
            Ok(served) => {
                // Did the device die while this request was on it? The
                // schedule is known up front, so the check covers every
                // outage, not just ones already applied.
                if let Some(died) = first_down_start_in(&sched.outages[d], when, served.finished) {
                    self.devices[d].voided += 1;
                    return Ok(Attempt::DeviceLost(died));
                }
                Ok(Attempt::Delivered(served))
            }
            // Recoverable: the engine ran out of spares, or the mesh
            // lost the route (a severed link partition) — in both cases
            // a later attempt can succeed after a repair.
            Err(
                FabricError::NoSpareAvailable { .. }
                | FabricError::Noc(cim_noc::NocError::NoRoute { .. }),
            ) => Ok(Attempt::Recoverable),
            Err(e) => Err(e),
        }
    }

    /// Dispatches one admitted request, first to replica `first`, with
    /// whole-device failover and deadline-aware bounded retry. Returns
    /// how the request left, and the replica it ended on.
    #[allow(clippy::too_many_arguments)]
    fn dispatch(
        &mut self,
        class: usize,
        first: usize,
        arrival: SimTime,
        input: &[f64],
        sched: &mut Schedule,
        sink: &Sink,
        failovers: &mut usize,
    ) -> Result<(Exit, usize)> {
        let deadline = arrival + self.classes[class].deadline;
        let (base, max_attempts) = (self.cfg.service.backoff_base, self.cfg.service.max_attempts);
        let id = self.next_request - 1;
        let mut when = arrival;
        let mut attempts = 0u32;
        let mut replica = Some(first);
        loop {
            let Some(r) = replica else {
                // Every replica fenced with no restart in sight: burn a
                // retry waiting for a repair, like any recoverable fault.
                attempts += 1;
                if attempts >= max_attempts {
                    return Ok((Exit::Exhausted { attempts }, first));
                }
                when += backoff_delay(base, attempts);
                if when > deadline {
                    return Ok((Exit::gave_up(when, attempts), first));
                }
                replica = self.pick(class, id, when, &sched.outages);
                continue;
            };
            // A replica dark from a power loss serves again at its
            // restart: no attempt can start while it is dark.
            if let Some(restart) =
                restart_at(&sched.outages[self.classes[class].replicas[r].0], when)
            {
                when = restart;
            }
            attempts += 1;
            match self.attempt(class, r, when, input, sched, sink)? {
                Attempt::Delivered(Served {
                    finished,
                    recovered,
                    output,
                }) => {
                    let exit = Exit::Finished {
                        finished,
                        attempts,
                        recovered,
                        output,
                    };
                    return Ok((exit, r));
                }
                Attempt::DeviceLost(died) => {
                    // Whole-device failover: the voided attempt never
                    // counts, and the request re-dispatches after the
                    // detection delay, or at the first restart when no
                    // replica is live. Not charged against the retry
                    // budget — the device died, the request did nothing
                    // wrong — but the deadline, checked after that
                    // wait, still applies.
                    *failovers += 1;
                    attempts -= 1;
                    when = self.restart_wait(class, died + self.failover_detect(), &sched.outages);
                    if when > deadline {
                        return Ok((Exit::gave_up(when, attempts.max(1)), r));
                    }
                    replica = self.pick(class, id, when, &sched.outages);
                }
                Attempt::Recoverable => {
                    if attempts >= max_attempts {
                        return Ok((Exit::Exhausted { attempts }, r));
                    }
                    // Exponential backoff: 1×, 2×, 4×… the base gap.
                    when += backoff_delay(base, attempts);
                    if when > deadline {
                        // The budget outlives the SLO; stop burning spares.
                        return Ok((Exit::gave_up(when, attempts), r));
                    }
                    replica = self.pick(class, id, when, &sched.outages);
                }
            }
        }
    }

    /// A fleet of one device: a single service (see the module docs).
    fn lone(&self) -> bool {
        self.devices.len() == 1
    }

    /// The router's detection delay; zero on a lone device.
    fn failover_detect(&self) -> SimDuration {
        if self.lone() {
            SimDuration::ZERO
        } else {
            self.cfg.failover_detect
        }
    }

    /// The metrics sink of one run (see [`Sink`]).
    fn sink(&self) -> Sink {
        match &self.tel {
            None => {
                let tel = self.devices[0].rt.device().telemetry().clone();
                let run = tel.is_enabled().then(|| tel.component("service"));
                Sink {
                    tel,
                    run,
                    dev: Vec::new(),
                }
            }
            Some(tel) => Sink {
                tel: tel.clone(),
                run: Some(tel.component("fleet")),
                dev: (0..self.devices.len())
                    .map(|i| tel.component(&format!("fleet/dev{i}")))
                    .collect(),
            },
        }
    }

    /// Serves an open-loop Poisson-like arrival stream of `n` requests
    /// at `rate_hz` offered requests per second, classes drawn from the
    /// registered traffic weights. `events` is the fault/outage schedule,
    /// applied in time order as the stream passes each event's time.
    ///
    /// Deterministic in the fleet's seed: bit-identical outcomes and
    /// telemetry at every `CIM_THREADS` setting. Every call is a fresh
    /// run: requests left in flight, unit occupancy and NoC reservations
    /// from an earlier run are cleared first, while energy meters and
    /// telemetry keep running totals.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] for no classes, all-zero
    /// weights, a rate that is not finite and positive, or an event
    /// naming a device outside the fleet; propagates non-recoverable
    /// execution errors (recoverable faults become dispositions, not
    /// errors).
    pub fn run_open_loop(
        &mut self,
        rate_hz: f64,
        n: usize,
        events: &[FleetEvent],
    ) -> Result<FleetReport> {
        let invalid = |reason: String| Err(FabricError::InvalidConfig { reason });
        if self.classes.is_empty() {
            return invalid("no request class registered".into());
        }
        let weights: Vec<u32> = self.classes.iter().map(|c| c.weight).collect();
        if weights.iter().all(|&w| w == 0) {
            return invalid("all class weights are zero".into());
        }
        if !(rate_hz.is_finite() && rate_hz > 0.0) {
            return invalid(format!(
                "offered rate {rate_hz} Hz must be finite and positive"
            ));
        }
        let n_devices = self.devices.len();
        let mut sched = Schedule::new(events, n_devices, self.failover_detect())?;
        // The arrival clock restarts at zero, so no departure, busy
        // horizon or link reservation of an earlier run may outlive it.
        self.next_request = 0;
        for dev in &mut self.devices {
            dev.in_flight.clear();
            dev.rt.device_mut().clear_occupancy();
            (dev.dispatched, dev.served, dev.voided) = (0, 0, 0);
            (dev.crashes, dev.dirty_restores) = (0, 0);
        }
        // Arrival bursts are a front-door effect: once the open-loop
        // clock passes a burst's time, its `extra` follow-on arrivals
        // land at the same instant as the triggering arrival. The RNG is
        // only consumed for non-burst arrivals, so schedules without
        // bursts draw the exact same arrival sequence.
        let mut burst_idx = 0usize;
        let mut burst_left = 0u32;

        let mut arrivals_rng = self.seeds.rng("arrivals");
        let mut class_rng = self.seeds.rng("classes");
        let mut input_rng = self.seeds.rng("inputs");

        let sink = self.sink();
        let mut obs = self.obs.as_ref().map(|cfg| {
            let mut cfg = cfg.clone();
            if cfg.tracks.is_empty() && !self.lone() {
                cfg.tracks = cim_obs::TrackSpec::fleet_defaults(n_devices);
            }
            let tenants: Vec<(String, SimDuration)> = self
                .classes
                .iter()
                .map(|c| (c.name.clone(), c.deadline))
                .collect();
            cim_obs::Observability::new(&cfg, &tenants, &sink.tel)
        });

        let keep = self.cfg.keep_outcomes;
        let mut outcomes = Vec::with_capacity(if keep { n } else { 0 });
        let mut arrivals = Vec::with_capacity(n);
        let mut fnv = Fnv1a::new();
        let mut now = SimTime::ZERO;
        let mut latencies = Samples::new();
        let (mut admitted, mut shed, mut completed, mut timed_out, mut failed) = (0, 0, 0, 0, 0);
        let (mut recoveries, mut retries, mut failovers) = (0usize, 0usize, 0usize);

        for _ in 0..n {
            if burst_left > 0 {
                burst_left -= 1; // simultaneous with the previous arrival
            } else {
                now += SimDuration::from_secs_f64(exponential(&mut arrivals_rng, rate_hz));
                while burst_idx < sched.bursts.len() && sched.bursts[burst_idx].0 <= now {
                    burst_left += u32::from(sched.bursts[burst_idx].1);
                    burst_idx += 1;
                }
            }
            let class = weighted_pick(&mut class_rng, &weights);
            let width = self.classes[class].input_width;
            let input: Vec<f64> = (0..width).map(|_| input_rng.gen_range(-1.0..1.0)).collect();

            let id = self.next_request;
            self.next_request += 1;
            arrivals.push((now, class));
            // Counters are bumped as each disposition lands (not batched
            // after the run) so the time-series recorder sees live
            // values.
            sink.add("offered", 1);

            // Admission: route to a replica and check its queue. "No
            // replica to route to" and "the routed queue is full" both
            // shed — fail fast at the front door rather than letting
            // doomed work occupy the fleet.
            let capacity = self.cfg.service.queue_capacity;
            let routed = self.pick(class, id, now, &sched.outages).filter(|&r| {
                let dev = &mut self.devices[self.classes[class].replicas[r].0];
                dev.in_flight.retain(|&dep| dep > now);
                dev.in_flight.len() < capacity
            });
            let disposition = match routed {
                None => {
                    shed += 1;
                    sink.add("shed", 1);
                    Disposition::Shed
                }
                Some(r) => {
                    admitted += 1;
                    sink.add("admitted", 1);
                    let (exit, r) =
                        self.dispatch(class, r, now, &input, &mut sched, &sink, &mut failovers)?;
                    let d = self.classes[class].replicas[r].0;
                    match exit {
                        Exit::Finished {
                            finished,
                            attempts,
                            recovered,
                            output,
                        } => {
                            retries += (attempts - 1) as usize;
                            recoveries += usize::from(recovered);
                            sink.add("retries", u64::from(attempts - 1));
                            sink.add("recoveries", u64::from(recovered));
                            self.devices[d].in_flight.push(finished);
                            self.devices[d].served += 1;
                            sink.add_dev(d, "served");
                            let lat = finished.saturating_since(now);
                            sink.record("latency_ns", lat.as_ps() / 1000);
                            latencies.record(lat.as_us_f64());
                            if lat <= self.classes[class].deadline && !output.is_empty() {
                                completed += 1;
                                sink.add("completed", 1);
                                Disposition::Completed {
                                    finished,
                                    attempts,
                                    recovered,
                                    output,
                                }
                            } else {
                                timed_out += 1;
                                sink.add("timed_out", 1);
                                Disposition::TimedOut { finished, attempts }
                            }
                        }
                        Exit::Exhausted { attempts } => {
                            retries += (attempts - 1) as usize;
                            failed += 1;
                            sink.add("retries", u64::from(attempts - 1));
                            sink.add("failed", 1);
                            // Leaves at its arrival: it holds no queue
                            // slot past this instant.
                            self.devices[d].in_flight.push(now);
                            Disposition::Failed { attempts }
                        }
                    }
                }
            };
            let depth: usize = self.devices.iter().map(|d| d.in_flight.len()).sum();
            sink.gauge("queue_depth", depth as f64);
            for (dev, &c) in self.devices.iter().zip(&sink.dev) {
                sink.tel
                    .gauge_set(c, "in_flight", dev.in_flight.len() as f64);
            }
            if let Some(o) = obs.as_mut() {
                let (at, observed) = match &disposition {
                    Disposition::Completed { finished, .. } => (
                        *finished,
                        cim_obs::Observed::Done {
                            latency: finished.saturating_since(now),
                        },
                    ),
                    Disposition::TimedOut { finished, .. } => {
                        (*finished, cim_obs::Observed::TimedOut)
                    }
                    Disposition::Shed => (now, cim_obs::Observed::Shed),
                    Disposition::Failed { .. } => (now, cim_obs::Observed::Failed),
                };
                o.observe_request(class, at, observed);
                // Sampling rides the monotone arrival clock; finish times
                // may run slightly ahead but the tick grid stays regular.
                sink.tel.with_registry(|r| o.sample_to(now, r));
            }
            // Fingerprint every outcome, storage or not.
            fnv.write_u64(id);
            fnv.write_u64(class as u64);
            fnv.write_u64(now.as_ps());
            match &disposition {
                Disposition::Completed {
                    finished,
                    attempts,
                    recovered,
                    output,
                } => {
                    fnv.write_u64(1);
                    fnv.write_u64(finished.as_ps());
                    fnv.write_u64(u64::from(*attempts));
                    fnv.write_u64(u64::from(*recovered));
                    for v in output {
                        fnv.write_u64(v.to_bits());
                    }
                }
                Disposition::TimedOut { finished, attempts } => {
                    fnv.write_u64(2);
                    fnv.write_u64(finished.as_ps());
                    fnv.write_u64(u64::from(*attempts));
                }
                Disposition::Shed => fnv.write_u64(3),
                Disposition::Failed { attempts } => {
                    fnv.write_u64(4);
                    fnv.write_u64(u64::from(*attempts));
                }
            }
            if keep {
                outcomes.push(RequestOutcome {
                    id,
                    class,
                    arrival: now,
                    disposition,
                });
            }
        }

        let latency = match latencies.percentiles(&[50.0, 95.0, 99.0]) {
            Some(ps) => LatencyStats {
                p50_us: ps[0],
                p95_us: ps[1],
                p99_us: ps[2],
                mean_us: latencies.mean(),
                max_us: latencies.percentile(100.0).unwrap_or(0.0),
            },
            None => LatencyStats::default(),
        };
        if !self.lone() {
            sink.add("failovers", failovers as u64);
        }
        sink.gauge("p99_us", latency.p99_us);
        sink.gauge("goodput", completed as f64 / n.max(1) as f64);

        let per_device: Vec<DeviceLoad> = self
            .devices
            .iter()
            .map(|d| DeviceLoad {
                dispatched: d.dispatched,
                served: d.served,
                voided: d.voided,
                energy: d.rt.device().meter().total(),
            })
            .collect();
        let energy = per_device
            .iter()
            .fold(Energy::ZERO, |acc, d| acc + d.energy);

        let (alerts, series_jsonl) = match obs {
            Some(mut o) => {
                sink.tel.with_registry(|r| o.finalize(now, r));
                // The analytic tier records no event-by-event registry
                // evolution; hand the operating point to `finish` so the
                // report still carries series-shaped signals.
                let qm = cim_sim::analytic::QueueModel::new(
                    rate_hz,
                    SimDuration::from_ns_f64(latency.mean_us * 1_000.0),
                );
                let synthetic =
                    (self.cfg.fabric.sim_mode == cim_sim::SimMode::Analytic).then_some((&qm, now));
                let rep = o.finish(synthetic);
                (rep.alerts, rep.series_jsonl)
            }
            None => (Vec::new(), String::new()),
        };

        Ok(FleetReport {
            outcomes,
            arrivals,
            offered: n,
            admitted,
            shed,
            completed,
            timed_out,
            failed,
            recoveries,
            retries,
            failovers,
            crashes: self.devices.iter().map(|d| d.crashes).sum::<u64>() as usize,
            dirty_restores: self.devices.iter().map(|d| d.dirty_restores).sum::<u64>() as usize,
            latency,
            per_device,
            energy,
            fingerprint: fnv.finish(),
            alerts,
            series_jsonl,
        })
    }
}

fn check_device(device: usize, n: usize) -> Result<()> {
    if device >= n {
        return Err(FabricError::InvalidConfig {
            reason: format!("event names device {device}, fleet has {n}"),
        });
    }
    Ok(())
}

/// Whether `t` falls inside any outage.
fn down_at(outages: &[Outage], t: SimTime) -> bool {
    outages.iter().any(|o| o.start <= t && t < o.end)
}

/// The restart of the power loss `t` falls inside, if any.
fn restart_at(outages: &[Outage], t: SimTime) -> Option<SimTime> {
    outages
        .iter()
        .find(|o| o.power_loss && o.start <= t && t < o.end)
        .map(|o| o.end)
}

/// The earliest outage starting in `(after, until]`, if any — a request
/// executing over that window loses its device.
fn first_down_start_in(outages: &[Outage], after: SimTime, until: SimTime) -> Option<SimTime> {
    outages
        .iter()
        .map(|o| o.start)
        .filter(|&s| after < s && s <= until)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceEvent;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::GraphBuilder;
    use cim_dataflow::ops::{Elementwise, Operation};

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

    fn small_fleet_config(devices: usize, replicas: usize) -> FleetConfig {
        FleetConfig {
            devices,
            replicas,
            fabric: FabricConfig {
                mesh_width: 2,
                mesh_height: 2,
                units_per_tile: 1,
                dpe: DpeConfig::ideal(),
                ..FabricConfig::default()
            },
            ..FleetConfig::default()
        }
    }

    fn fleet(devices: usize, replicas: usize) -> CimFleet {
        let mut f =
            CimFleet::new(small_fleet_config(devices, replicas), SeedTree::new(0x5EED)).unwrap();
        let (g, s, k) = tiny_graph(4);
        f.register_class("tiny", g, s, k, SimDuration::from_us(100), 1)
            .expect("resident");
        f
    }

    #[test]
    fn fleet_serves_and_spreads_load() {
        let mut f = fleet(4, 2);
        let r = f.run_open_loop(10_000.0, 100, &[]).expect("serves");
        assert_eq!(r.offered, 100);
        assert_eq!(r.completed, 100);
        assert!(r.zero_lost());
        assert_eq!(r.failovers, 0);
        assert_eq!(r.served_total(), 100);
        assert_eq!(r.voided_total(), 0);
        // Least-outstanding with rotating ties: both replicas serve.
        let dispatched: Vec<u64> = r.per_device.iter().map(|d| d.dispatched).collect();
        let active = dispatched.iter().filter(|&&d| d > 0).count();
        assert_eq!(active, 2, "both replica devices serve: {dispatched:?}");
        assert!(r.energy > Energy::ZERO);
    }

    #[test]
    fn classes_shard_across_the_fleet() {
        // 8 units per device: two resident 3-node classes fit on each.
        let mut cfg = small_fleet_config(4, 2);
        cfg.fabric.units_per_tile = 2;
        let mut f = CimFleet::new(cfg, SeedTree::new(7)).unwrap();
        for i in 0..4 {
            let (g, s, k) = tiny_graph(4);
            f.register_class(&format!("c{i}"), g, s, k, SimDuration::from_us(100), 1)
                .expect("resident");
        }
        // Rotating shard anchor: class i anchors at device i.
        for i in 0..4 {
            assert_eq!(f.replica_devices(i), vec![i, (i + 1) % 4]);
        }
    }

    #[test]
    fn device_down_fails_over_without_loss() {
        let mut f = fleet(4, 2);
        // Probe the span of the run so the outage lands mid-stream.
        let span = {
            let mut probe = fleet(4, 2);
            let r = probe.run_open_loop(10_000.0, 200, &[]).expect("probe");
            r.arrivals.last().unwrap().0
        };
        let down_at = SimTime::from_ps(span.as_ps() / 4);
        let up_at = SimTime::from_ps(span.as_ps() / 2);
        let events = [
            FleetEvent::DeviceDown {
                at: down_at,
                device: 0,
            },
            FleetEvent::DeviceUp {
                at: up_at,
                device: 0,
            },
        ];
        let r = f.run_open_loop(10_000.0, 200, &events).expect("serves");
        assert!(r.zero_lost(), "whole-device failover loses nothing: {r:?}");
        assert_eq!(r.failed, 0);
        // No double-execution: each surviving request served exactly
        // once, each failover voided exactly one attempt.
        assert_eq!(r.served_total() as usize, r.completed + r.timed_out);
        assert_eq!(r.voided_total() as usize, r.failovers);
        // The fenced window routed around device 0 and recovered after.
        assert!(
            r.per_device[0].dispatched > 0,
            "device 0 serves before and after the outage"
        );
    }

    #[test]
    fn power_loss_fails_over_and_recovers_without_loss() {
        let mut f = fleet(4, 2);
        let span = {
            let mut probe = fleet(4, 2);
            let r = probe.run_open_loop(10_000.0, 200, &[]).expect("probe");
            r.arrivals.last().unwrap().0
        };
        // Crash each replica of the class once, at staggered points.
        let events = [
            FleetEvent::PowerLoss {
                at: SimTime::from_ps(span.as_ps() / 4),
                device: 0,
                restart_after: SimDuration::from_us(20),
            },
            FleetEvent::PowerLoss {
                at: SimTime::from_ps(span.as_ps() / 2),
                device: 1,
                restart_after: SimDuration::from_us(20),
            },
        ];
        let r = f.run_open_loop(10_000.0, 200, &events).expect("serves");
        assert!(r.zero_lost(), "power loss loses nothing: {r:?}");
        assert_eq!(r.served_total() as usize, r.completed + r.timed_out);
        assert_eq!(r.voided_total() as usize, r.failovers);
        assert!(r.crashes >= 1, "a recovery pass ran: {r:?}");
        assert_eq!(r.dirty_restores, 0, "the shipped recovery restores clean");
    }

    #[test]
    fn shadowed_crash_and_flapping_down_are_no_ops() {
        // A second DeviceDown inside the 2 µs detection window of the
        // first, and a PowerLoss inside the open outage, must both be
        // no-ops: one outage, one failover currency, accounts intact.
        let mut f = fleet(4, 2);
        let span = {
            let mut probe = fleet(4, 2);
            let r = probe.run_open_loop(10_000.0, 200, &[]).expect("probe");
            r.arrivals.last().unwrap().0
        };
        let down = SimTime::from_ps(span.as_ps() / 4);
        let events = [
            FleetEvent::DeviceDown {
                at: down,
                device: 0,
            },
            // Flap: inside the detection window of the first down.
            FleetEvent::DeviceDown {
                at: down + SimDuration::from_us(1),
                device: 0,
            },
            // Crash while already dark: nothing left to kill.
            FleetEvent::PowerLoss {
                at: down + SimDuration::from_us(10),
                device: 0,
                restart_after: SimDuration::from_us(5),
            },
            FleetEvent::DeviceUp {
                at: SimTime::from_ps(span.as_ps() / 2),
                device: 0,
            },
            // Up with no matching open down: a no-op too.
            FleetEvent::DeviceUp {
                at: SimTime::from_ps(span.as_ps() / 2 + 1_000_000),
                device: 0,
            },
        ];
        let r = f.run_open_loop(10_000.0, 200, &events).expect("serves");
        assert!(r.zero_lost(), "{r:?}");
        assert_eq!(
            r.voided_total() as usize,
            r.failovers,
            "unmatched events must not skew the voided accounting: {r:?}"
        );
        assert_eq!(r.crashes, 0, "the shadowed crash never fires");
        assert_eq!(r.served_total() as usize, r.completed + r.timed_out);
    }

    #[test]
    fn service_event_lowering_runs_like_the_top_level_spelling() {
        // A crash halfway through the first request on the class's only
        // replica, and a burst at the front door.
        let probe = fleet(2, 1).run_open_loop(10_000.0, 50, &[]).expect("probe");
        let first = &probe.outcomes[0];
        let Disposition::Completed { finished, .. } = first.disposition else {
            panic!("first request must complete: {first:?}");
        };
        let at = first.arrival + finished.saturating_since(first.arrival) / 2;
        let device = fleet(2, 1).replica_devices(0)[0];
        let restart_after = SimDuration::from_us(20);
        let cases = [
            (
                FleetEvent::PowerLoss {
                    at,
                    device,
                    restart_after,
                },
                ServiceEvent::PowerLoss { at, restart_after },
            ),
            (
                FleetEvent::ArrivalBurst {
                    at: SimTime::ZERO,
                    extra: 10,
                },
                ServiceEvent::ArrivalBurst {
                    at: SimTime::ZERO,
                    extra: 10,
                },
            ),
        ];
        let mut reports = Vec::new();
        for (top, event) in cases {
            let want = fleet(2, 1)
                .run_open_loop(10_000.0, 50, &[top])
                .expect("top-level spelling");
            let got = fleet(2, 1)
                .run_open_loop(10_000.0, 50, &[event.to_fleet_event(device)])
                .expect("lowered spelling");
            assert_eq!(got, want, "{event:?} lowered vs top-level");
            reports.push(want);
        }
        let (crash, burst) = (&reports[0], &reports[1]);
        assert_eq!((crash.crashes, crash.failovers), (1, 1), "{crash:?}");
        assert_eq!(crash.voided_total(), 1);
        let first_at = burst.arrivals[0].0;
        let together = burst.arrivals.iter().filter(|a| a.0 == first_at).count();
        assert_eq!(together, 11, "the burst lands with the first arrival");
    }

    #[test]
    fn all_replicas_down_sheds_at_the_door() {
        let mut f = fleet(2, 1);
        // The only replica of the class is down for the entire run.
        let events = [FleetEvent::DeviceDown {
            at: SimTime::ZERO,
            device: 0,
        }];
        let r = f.run_open_loop(10_000.0, 50, &events).expect("serves");
        assert_eq!(r.shed, 50, "no live replica: everything sheds");
        assert_eq!(r.admitted, 0);
        assert!(r.zero_lost(), "shed is accounted, not lost");
    }

    #[test]
    fn reports_and_fingerprints_are_deterministic() {
        let run = |keep: bool| {
            let mut cfg = small_fleet_config(4, 2);
            cfg.keep_outcomes = keep;
            let mut f = CimFleet::new(cfg, SeedTree::new(0x5EED)).unwrap();
            let (g, s, k) = tiny_graph(4);
            f.register_class("tiny", g, s, k, SimDuration::from_us(100), 1)
                .expect("resident");
            let events = [
                FleetEvent::DeviceDown {
                    at: SimTime::from_ns(500_000),
                    device: 1,
                },
                FleetEvent::DeviceUp {
                    at: SimTime::from_ns(2_000_000),
                    device: 1,
                },
            ];
            f.run_open_loop(50_000.0, 120, &events).expect("serves")
        };
        let a = run(true);
        let b = run(true);
        assert_eq!(a, b, "double runs are bit-identical");
        let slim = run(false);
        assert!(slim.outcomes.is_empty(), "soak mode stores no outcomes");
        assert_eq!(
            slim.fingerprint, a.fingerprint,
            "fingerprint is storage-independent"
        );
        assert_eq!(slim.arrivals, a.arrivals);
    }

    #[test]
    fn analytic_mode_serves_like_detailed_at_light_load() {
        let run = |mode: cim_sim::SimMode| {
            let mut cfg = small_fleet_config(4, 2);
            cfg.fabric.sim_mode = mode;
            let mut f = CimFleet::new(cfg, SeedTree::new(0x5EED)).unwrap();
            let (g, s, k) = tiny_graph(4);
            f.register_class("tiny", g, s, k, SimDuration::from_us(100), 1)
                .expect("resident");
            f.run_open_loop(10_000.0, 50, &[]).expect("serves")
        };
        let det = run(cim_sim::SimMode::Detailed);
        let ana = run(cim_sim::SimMode::Analytic);
        assert_eq!(det.completed, ana.completed);
        assert_eq!(det.outcomes, ana.outcomes);
    }

    #[test]
    fn invalid_configs_and_events_error() {
        assert!(CimFleet::new(
            FleetConfig {
                devices: 0,
                ..small_fleet_config(4, 2)
            },
            SeedTree::new(1)
        )
        .is_err());
        assert!(CimFleet::new(small_fleet_config(2, 3), SeedTree::new(1)).is_err());
        let mut f = fleet(2, 1);
        let events = [FleetEvent::DeviceDown {
            at: SimTime::ZERO,
            device: 9,
        }];
        assert!(matches!(
            f.run_open_loop(1_000.0, 1, &events),
            Err(FabricError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn classes_must_name_a_source_and_a_sink() {
        let mut f = fleet(2, 1);
        let (g, s, k) = tiny_graph(4);
        let relu = NodeRef::from_index(1);
        let far = NodeRef::from_index(99);
        for (src, sink) in [(k, s), (s, relu), (relu, k), (far, k), (s, far)] {
            let err = f.register_class("bad", g.clone(), src, sink, SimDuration::from_us(100), 1);
            assert!(
                matches!(err, Err(FabricError::InvalidConfig { .. })),
                "{src:?} -> {sink:?}: {err:?}"
            );
        }
        assert_eq!(f.class_names(), ["tiny"], "nothing was placed");
    }

    #[test]
    fn observability_rides_the_fleet() {
        let mut f = fleet(4, 2);
        f.enable_observability(cim_obs::ObsConfig::default());
        let r = f.run_open_loop(10_000.0, 60, &[]).expect("serves");
        assert!(!r.series_jsonl.is_empty(), "fleet series exported");
        assert!(
            r.series_jsonl.contains("\"component\":\"fleet\""),
            "fleet-scoped series present"
        );
        assert!(
            r.series_jsonl.contains("\"component\":\"fleet/dev0\""),
            "per-device series present"
        );
        for line in r.series_jsonl.lines() {
            cim_sim::telemetry::validate_jsonl_line(line).expect("series schema");
        }
        assert!(r.alerts.is_empty(), "healthy fleet fires no alerts");
    }

    #[test]
    fn accounting_resets_between_runs() {
        // Regression: per-device counters used to accumulate across
        // runs, so a second run reported twice the served executions.
        let mut f = fleet(4, 2);
        let events = [
            FleetEvent::PowerLoss {
                at: SimTime::from_ns(2_000_000),
                device: 0,
                restart_after: SimDuration::from_us(20),
            },
            FleetEvent::DeviceDown {
                at: SimTime::from_ns(3_000_000),
                device: 1,
            },
            FleetEvent::DeviceUp {
                at: SimTime::from_ns(6_000_000),
                device: 1,
            },
        ];
        let first = f.run_open_loop(10_000.0, 100, &events).expect("serves");
        let second = f.run_open_loop(10_000.0, 100, &events).expect("serves");
        for r in [&first, &second] {
            assert_eq!(
                r.served_total() as usize,
                r.completed + r.timed_out,
                "{r:?}"
            );
            assert_eq!(r.voided_total() as usize, r.failovers, "{r:?}");
        }
        assert_eq!(second.crashes, first.crashes, "crashes are per run");
    }

    #[test]
    fn a_second_run_on_one_fleet_replays_the_first() {
        // Regression: in-flight departures, unit busy horizons and NoC
        // reservations used to outlive a run while the arrival clock
        // restarted at zero, so a second overloaded run shed every
        // request.
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width: 8 });
        let mv = b.add(
            "mv",
            Operation::MatVec {
                rows: 8,
                cols: 4,
                weights: (0..32).map(|i| f64::from(i % 7) / 7.0 - 0.4).collect(),
            },
        );
        let k = b.add("k", Operation::Sink { width: 4 });
        b.chain(&[s, mv, k]).expect("chain");
        let matvec = b.build().expect("valid");
        for devices in [1, 4] {
            let mut cfg = small_fleet_config(devices, devices.min(2));
            cfg.fabric.units_per_tile = 4;
            let mut f = CimFleet::new(cfg, SeedTree::new(0x5EED)).unwrap();
            let deadline = SimDuration::from_us(100);
            let (g, gs, gk) = tiny_graph(4);
            f.register_class("relu", g, gs, gk, deadline, 1).unwrap();
            f.register_class("mv", matvec.clone(), s, k, deadline, 1)
                .unwrap();
            let first = f.run_open_loop(2e6, 300, &[]).expect("serves");
            assert!(first.completed > 0 && first.shed > 0, "{first:?}");
            let second = f.run_open_loop(2e6, 300, &[]).expect("serves");
            assert_eq!(second.outcomes, first.outcomes, "{devices} device(s)");
            assert_eq!(second.fingerprint, first.fingerprint);
        }
    }

    #[test]
    fn bad_rates_and_budgets_are_typed_errors() {
        let mut f = fleet(2, 1);
        for rate in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    f.run_open_loop(rate, 1, &[]),
                    Err(FabricError::InvalidConfig { .. })
                ),
                "rate {rate} must be rejected"
            );
        }
        for service in [
            ServiceConfig {
                max_attempts: 0,
                ..ServiceConfig::default()
            },
            ServiceConfig {
                queue_capacity: 0,
                ..ServiceConfig::default()
            },
        ] {
            let cfg = FleetConfig {
                service,
                ..small_fleet_config(2, 1)
            };
            assert!(matches!(
                CimFleet::new(cfg, SeedTree::new(1)),
                Err(FabricError::InvalidConfig { .. })
            ));
        }
    }
}
