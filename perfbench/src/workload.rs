//! The three benchmark workloads: how each boots, what it is fed, and
//! how one sample of it runs and is checked.
//!
//! A sample is one freshly booted target (a `CimService` or a
//! `CimFleet`) serving one open-loop Poisson stream of a fixed length.
//! Device seeds and class weights are part of a workload's definition,
//! so booting is the same work on every sample; the stream seed picks
//! the arrivals, the class mix, the request inputs and the fault
//! timing.

use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_dataflow::ops::Operation;
use cim_fabric::engine::InjectionKind;
use cim_fabric::fleet::{CimFleet, FleetConfig, FleetEvent};
use cim_fabric::service::{CimService, Disposition, RequestOutcome, ServiceConfig, ServiceEvent};
use cim_fabric::FabricConfig;
use cim_noc::packet::NodeId;
use cim_sim::rng::{splitmix64, Rng};
use cim_sim::telemetry::{Telemetry, TelemetryLevel};
use cim_sim::time::{SimDuration, SimTime};
use cim_sim::{SeedTree, SimMode};
use cim_workloads::serving::{sample_class, standard_request_mix, RequestClassSpec};
use std::time::Instant;

/// Seed of every class's resident weights (the value the repository's
/// serving benches use).
const WEIGHTS_SEED: u64 = 0x7E4A47;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Detailed tier, one service, standard mix at 100k req/s, no
    /// faults, observability off: the crossbar's analog read loop and
    /// the NoC packet path do nearly all the work.
    DetailedLight,
    /// Analytic tier, a 4-device fleet with 2 replicas just under its
    /// knee, a device outage plus one power loss, observability on: the
    /// only workload where the router and obs do work.
    FleetObserved,
    /// Analytic tier, one service at 4x saturation with a dense fault
    /// schedule: mostly the shed path, plus spare reprogramming, a link
    /// cut and a power-cycle restore in the request path.
    OverloadFaults,
}

/// Every workload, in reporting order.
pub const ALL: [Workload; 3] = [
    Workload::DetailedLight,
    Workload::FleetObserved,
    Workload::OverloadFaults,
];

impl Workload {
    /// The name the command line uses.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DetailedLight => "detailed_light",
            Workload::FleetObserved => "fleet_observed",
            Workload::OverloadFaults => "overload_faults",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        ALL.into_iter().find(|w| w.name() == s)
    }

    /// The simulation tier the workload runs in.
    pub fn tier(self) -> SimMode {
        match self {
            Workload::DetailedLight => SimMode::Detailed,
            Workload::FleetObserved | Workload::OverloadFaults => SimMode::Analytic,
        }
    }

    /// Offered simulated rate, requests per second. The single device
    /// saturates near 0.8M req/s and the 4-device fleet near 2M req/s.
    pub fn rate_hz(self) -> f64 {
        match self {
            Workload::DetailedLight => 100_000.0,
            Workload::FleetObserved => 1_600_000.0,
            Workload::OverloadFaults => 3_200_000.0,
        }
    }

    /// Requests per sample stream. Run length is part of the workload:
    /// obs cost per request grows with the stream.
    pub fn requests(self, brief: bool) -> usize {
        match (self, brief) {
            (_, true) => 40,
            (Workload::DetailedLight, false) => 250,
            (Workload::FleetObserved, false) => 20_000,
            (Workload::OverloadFaults, false) => 20_000,
        }
    }

    /// Character counters each run's timed streams must show nonzero
    /// (`+name`) or zero (`-name`); checked on every full run, and on
    /// the held-out seed recorded in `perfbench/README.md`.
    pub fn character(self) -> &'static [&'static str] {
        match self {
            Workload::DetailedLight => &["-shed", "-timed_out"],
            Workload::FleetObserved => &["+failovers", "+crashes"],
            Workload::OverloadFaults => &["+shed", "+timed_out", "+recoveries", "+crashes"],
        }
    }

    /// Fixed-seed reference streams per run: the simulated outcomes
    /// pool over these so every run reports identical `sim_*` figures,
    /// with at least 1000 requests run to completion.
    pub fn reference_streams(self, brief: bool) -> usize {
        match self {
            Workload::DetailedLight if !brief => 5,
            _ => 1,
        }
    }

    /// Length of the fixed-seed streams both tiers replay for
    /// `analytic_err_pct`.
    pub fn xcheck_requests(self, brief: bool) -> usize {
        match (self, brief) {
            (_, true) => 40,
            (Workload::DetailedLight, false) => 1_000,
            (Workload::FleetObserved, false) => 1_200,
            (Workload::OverloadFaults, false) => 4_000,
        }
    }
}

/// Seed of reference stream `j`; independent of the command-line seed.
pub fn reference_seed(j: usize) -> u64 {
    0x5EED_0000 + j as u64
}

/// Seed of the `i`-th timed stream of a run with command-line `seed`.
pub fn stream_seed(seed: u64, i: usize) -> u64 {
    splitmix64(seed ^ splitmix64(i as u64 + 1))
}

/// One tenant class's resident graph.
#[derive(Debug, Clone)]
pub struct ClassGraph {
    /// Name, deadline and weight.
    pub spec: RequestClassSpec,
    /// The resident MLP.
    pub graph: DataflowGraph,
    /// Input node.
    pub src: NodeRef,
    /// Output node.
    pub sink: NodeRef,
}

/// The standard three-tenant mix with the workload-fixed weights.
pub fn class_graphs() -> Vec<ClassGraph> {
    standard_request_mix()
        .into_iter()
        .map(|spec| {
            let (graph, src, sink) = spec.build_graph(SeedTree::new(WEIGHTS_SEED));
            ClassGraph {
                spec,
                graph,
                src,
                sink,
            }
        })
        .collect()
}

/// The fabric every device of a workload boots with.
pub fn fabric(tier: SimMode) -> FabricConfig {
    FabricConfig {
        sim_mode: tier,
        ..FabricConfig::default()
    }
}

/// A booted workload target. One exists per sample, so the size gap
/// between the variants costs nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub enum Target {
    /// One device behind a service front door.
    Service(CimService),
    /// A fleet of devices behind a router.
    Fleet(CimFleet),
}

/// Fault and outage schedule for one stream.
pub enum Events {
    /// Service-level events.
    Service(Vec<ServiceEvent>),
    /// Fleet-level events.
    Fleet(Vec<FleetEvent>),
}

impl Events {
    /// Power losses in the schedule.
    pub fn power_losses(&self) -> usize {
        match self {
            Events::Service(v) => v
                .iter()
                .filter(|e| matches!(e, ServiceEvent::PowerLoss { .. }))
                .count(),
            Events::Fleet(v) => v
                .iter()
                .filter(|e| matches!(e, FleetEvent::PowerLoss { .. }))
                .count(),
        }
    }
}

/// What one stream produced.
pub struct Outcome {
    /// Requests offered.
    pub offered: usize,
    /// Requests admitted.
    pub admitted: usize,
    /// Requests shed.
    pub shed: usize,
    /// Requests completed within deadline.
    pub completed: usize,
    /// Requests past deadline.
    pub timed_out: usize,
    /// Requests whose retry budget ran out.
    pub failed: usize,
    /// Mid-stream spare recoveries.
    pub recoveries: usize,
    /// Retries beyond each request's first attempt.
    pub retries: usize,
    /// Fleet failover re-routes (0 on a service).
    pub failovers: usize,
    /// Power-loss crashes recovered.
    pub crashes: usize,
    /// Crashes whose restore was not pristine.
    pub dirty_restores: usize,
    /// Fleet only: final executions served, and voided executions.
    pub fleet_counts: Option<(u64, u64)>,
    /// Fleet only: execution attempts dispatched to devices.
    pub dispatched: u64,
    /// Per-request outcomes, arrival order.
    pub outcomes: Vec<RequestOutcome>,
}

impl Target {
    /// Boots the workload's device(s) with telemetry off; classes are
    /// registered separately by [`Target::register`].
    pub fn new(w: Workload, tier: SimMode, stream_seed: u64) -> Target {
        match w {
            Workload::FleetObserved => Target::Fleet(
                CimFleet::new(
                    FleetConfig {
                        fabric: fabric(tier),
                        ..FleetConfig::default()
                    },
                    SeedTree::new(stream_seed),
                )
                .expect("fleet boots"),
            ),
            _ => Target::service(tier, stream_seed),
        }
    }

    /// One service on one device (also the traced run's replay device).
    pub fn service(tier: SimMode, stream_seed: u64) -> Target {
        Target::Service(
            CimService::new(
                fabric(tier),
                ServiceConfig::default(),
                SeedTree::new(stream_seed),
            )
            .expect("service boots"),
        )
    }

    /// Registers one class: mapping plus crossbar programming.
    pub fn register(&mut self, c: ClassGraph) {
        let s = &c.spec;
        match self {
            Target::Service(svc) => {
                svc.register_class(s.name, c.graph, c.src, c.sink, s.deadline, s.weight)
            }
            Target::Fleet(f) => {
                f.register_class(s.name, c.graph, c.src, c.sink, s.deadline, s.weight)
            }
        }
        .expect("standard mix is resident");
    }

    /// Attaches the observability pipeline where the workload uses it.
    pub fn finish_boot(&mut self, w: Workload) {
        if let (Workload::FleetObserved, Target::Fleet(f)) = (w, self) {
            f.enable_observability(cim_obs::ObsConfig::default());
        }
    }

    /// Turns the program's own telemetry on at `Metrics` level, one
    /// shared registry for every device; returns the handle.
    pub fn enable_telemetry(&mut self) -> Telemetry {
        let t = Telemetry::new(TelemetryLevel::Metrics);
        match self {
            Target::Service(svc) => svc.runtime_mut().device_mut().install_telemetry(&t),
            Target::Fleet(f) => {
                for d in 0..f.device_count() {
                    f.runtime_mut(d).device_mut().install_telemetry(&t);
                }
            }
        }
        t
    }

    /// Total energy on every device meter, femtojoules.
    pub fn energy_fj(&self) -> u64 {
        match self {
            Target::Service(svc) => svc.runtime().device().meter().total().as_fj(),
            Target::Fleet(f) => (0..f.device_count())
                .map(|d| f.runtime(d).device().meter().total().as_fj())
                .sum(),
        }
    }

    /// Serves one stream.
    pub fn run(&mut self, rate_hz: f64, n: usize, events: &Events) -> Outcome {
        match (self, events) {
            (Target::Service(svc), Events::Service(ev)) => {
                let r = svc.run_open_loop(rate_hz, n, ev).expect("stream serves");
                Outcome {
                    offered: r.offered,
                    admitted: r.admitted,
                    shed: r.shed,
                    completed: r.completed,
                    timed_out: r.timed_out,
                    failed: r.failed,
                    recoveries: r.recoveries,
                    retries: r.retries,
                    failovers: 0,
                    crashes: r.crashes,
                    dirty_restores: r.dirty_restores,
                    fleet_counts: None,
                    dispatched: 0,
                    outcomes: r.outcomes,
                }
            }
            (Target::Fleet(f), Events::Fleet(ev)) => {
                let r = f.run_open_loop(rate_hz, n, ev).expect("stream serves");
                Outcome {
                    offered: r.offered,
                    admitted: r.admitted,
                    shed: r.shed,
                    completed: r.completed,
                    timed_out: r.timed_out,
                    failed: r.failed,
                    recoveries: r.recoveries,
                    retries: r.retries,
                    failovers: r.failovers,
                    crashes: r.crashes,
                    dirty_restores: r.dirty_restores,
                    fleet_counts: Some((r.served_total(), r.voided_total())),
                    dispatched: r.per_device.iter().map(|d| d.dispatched).sum(),
                    outcomes: r.outcomes,
                }
            }
            _ => unreachable!("schedule kind matches the target kind"),
        }
    }
}

/// The stream's fault/outage schedule, drawn from the stream seed. The
/// overload schedule targets the units that host each class's matvec
/// layers, so every unit failure forces a spare to be programmed.
pub fn schedule(w: Workload, target: &Target, n: usize, stream_seed: u64) -> Events {
    let span_ps = (n as f64 / w.rate_hz() * 1e12) as u64;
    let mut rng = SeedTree::new(stream_seed).rng("schedule");
    let mut frac = |lo: f64, hi: f64| -> SimTime {
        SimTime::from_ps((span_ps as f64 * rng.gen_range(lo..hi)) as u64)
    };
    match (w, target) {
        (Workload::DetailedLight, _) => Events::Service(Vec::new()),
        (Workload::FleetObserved, Target::Fleet(f)) => {
            let devices = f.device_count();
            let down_at = frac(0.15, 0.30);
            let up_at = down_at + SimDuration::from_ps(span_ps / 8);
            let crash_at = frac(0.55, 0.70);
            let mut pick = SeedTree::new(stream_seed).rng("devices");
            let down = pick.gen_range(0..devices);
            let crashed = (down + 1 + pick.gen_range(0..devices - 1)) % devices;
            Events::Fleet(vec![
                FleetEvent::DeviceDown {
                    at: down_at,
                    device: down,
                },
                FleetEvent::DeviceUp {
                    at: up_at,
                    device: down,
                },
                FleetEvent::PowerLoss {
                    at: crash_at,
                    device: crashed,
                    restart_after: SimDuration::from_ps(span_ps / 16),
                },
            ])
        }
        (Workload::OverloadFaults, Target::Service(svc)) => {
            let rt = svc.runtime();
            let mut hosts = Vec::new();
            for c in 0..svc.class_names().len() {
                let job = svc.class_job(c).expect("registered class");
                let prog = rt.program(job).expect("resident class");
                for (r, node) in prog.graph().nodes() {
                    if matches!(node.op, Operation::MatVec { .. }) {
                        hosts.push(prog.placement().unit_of(r.index()));
                    }
                }
            }
            let mut events = Vec::new();
            let slot = 0.7 / hosts.len() as f64;
            for (k, &unit) in hosts.iter().enumerate() {
                let at = frac(0.05 + slot * k as f64, 0.05 + slot * (k as f64 + 0.5));
                events.push(ServiceEvent::FailUnit { at, unit });
                events.push(ServiceEvent::RepairUnit {
                    at: at + SimDuration::from_ps(span_ps / 20),
                    unit,
                });
            }
            // Cut the mesh link next to the largest class's first layer.
            let a = rt
                .device()
                .unit(*hosts.last().expect("classes have layers"))
                .tile();
            let b = if a.x > 0 {
                NodeId::new(a.x - 1, a.y)
            } else {
                NodeId::new(a.x + 1, a.y)
            };
            let cut = frac(0.25, 0.35);
            events.push(ServiceEvent::Inject {
                at: cut,
                kind: InjectionKind::FailLink { a, b },
            });
            events.push(ServiceEvent::Inject {
                at: cut + SimDuration::from_ps(span_ps / 5),
                kind: InjectionKind::RepairLink { a, b },
            });
            events.push(ServiceEvent::PowerLoss {
                at: frac(0.80, 0.88),
                restart_after: SimDuration::from_ps(span_ps / 40),
            });
            events.sort_by_key(ServiceEvent::at);
            Events::Service(events)
        }
        _ => unreachable!("workload boots its own target kind"),
    }
}

/// The accounting identities every stream must satisfy, as breach
/// descriptions (empty when the stream is consistent).
pub fn breaches(o: &Outcome) -> Vec<String> {
    let mut out = Vec::new();
    if o.admitted + o.shed != o.offered {
        out.push(format!(
            "admitted {} + shed {} != offered {}",
            o.admitted, o.shed, o.offered
        ));
    }
    if o.completed + o.timed_out + o.failed != o.admitted {
        out.push(format!(
            "completed {} + timed_out {} + failed {} != admitted {}",
            o.completed, o.timed_out, o.failed, o.admitted
        ));
    }
    if let Some((served, voided)) = o.fleet_counts {
        if served != (o.completed + o.timed_out) as u64 {
            out.push(format!(
                "served_total {served} != completed + timed_out {}",
                o.completed + o.timed_out
            ));
        }
        if voided != o.failovers as u64 {
            out.push(format!(
                "voided_total {voided} != failovers {}",
                o.failovers
            ));
        }
    }
    if o.dirty_restores != 0 {
        out.push(format!("dirty_restores {}", o.dirty_restores));
    }
    if o.outcomes.len() != o.offered {
        out.push(format!(
            "{} outcomes for {} offered",
            o.outcomes.len(),
            o.offered
        ));
    }
    out
}

/// FNV-1a digest of a stream's outcomes and the energy it added.
pub fn digest(o: &Outcome, energy_added_fj: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut put = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    put(energy_added_fj);
    for r in &o.outcomes {
        put(r.id);
        put(r.class as u64);
        put(r.arrival.as_ps());
        match &r.disposition {
            Disposition::Completed {
                finished,
                attempts,
                recovered,
                output,
            } => {
                put(1);
                put(finished.as_ps());
                put(u64::from(*attempts));
                put(u64::from(*recovered));
                output.iter().for_each(|v| put(v.to_bits()));
            }
            Disposition::TimedOut { finished, attempts } => {
                put(2);
                put(finished.as_ps());
                put(u64::from(*attempts));
            }
            Disposition::Shed => put(3),
            Disposition::Failed { attempts } => {
                put(4);
                put(u64::from(*attempts));
            }
        }
    }
    h
}

/// Simulated latency (µs) of every request that ran to completion.
pub fn latencies_us(o: &Outcome) -> impl Iterator<Item = f64> + '_ {
    o.outcomes.iter().filter_map(|r| match r.disposition {
        Disposition::Completed { finished, .. } | Disposition::TimedOut { finished, .. } => {
            Some(finished.saturating_since(r.arrival).as_us_f64())
        }
        _ => None,
    })
}

/// One booted, scheduled stream ready to run.
pub struct Prepared {
    /// The booted target.
    pub target: Target,
    /// Its schedule.
    pub events: Events,
    /// Host seconds spent booting and registering classes.
    pub setup_s: f64,
}

/// Boots a target (timed as set-up) and draws its schedule.
pub fn prepare(w: Workload, tier: SimMode, seed: u64, n: usize, graphs: &[ClassGraph]) -> Prepared {
    let inputs: Vec<ClassGraph> = graphs.to_vec();
    let t = Instant::now();
    let mut target = Target::new(w, tier, seed);
    for c in inputs {
        target.register(c);
    }
    target.finish_boot(w);
    let setup_s = t.elapsed().as_secs_f64();
    let events = schedule(w, &target, n, seed);
    Prepared {
        target,
        events,
        setup_s,
    }
}

/// A finished untraced sample.
pub struct Sample {
    /// Host seconds of boot + class registration.
    pub setup_s: f64,
    /// Host seconds inside the serving call.
    pub run_s: f64,
    /// Energy the stream added to the device meters, femtojoules.
    pub energy_fj: u64,
    /// Outcome digest.
    pub digest: u64,
    /// The stream's outcome.
    pub outcome: Outcome,
}

/// Boots, runs and checks one stream; boot and the serving call are
/// timed separately.
pub fn run_sample(
    w: Workload,
    tier: SimMode,
    seed: u64,
    n: usize,
    graphs: &[ClassGraph],
) -> Sample {
    let Prepared {
        mut target,
        events,
        setup_s,
    } = prepare(w, tier, seed, n, graphs);
    let before = target.energy_fj();
    let t = Instant::now();
    let outcome = target.run(w.rate_hz(), n, &events);
    let run_s = t.elapsed().as_secs_f64();
    let energy_fj = target.energy_fj() - before;
    Sample {
        setup_s,
        run_s,
        energy_fj,
        digest: digest(&outcome, energy_fj),
        outcome,
    }
}

/// Regenerates a stream's `(class, input)` per request from its seed,
/// drawing exactly as the serving front doors do (one weighted class
/// pick from the `classes` stream, then the input lanes from `inputs`).
pub fn request_inputs(seed: u64, n: usize, graphs: &[ClassGraph]) -> Vec<(usize, Vec<f64>)> {
    let seeds = SeedTree::new(seed);
    let mut class_rng = seeds.rng("classes");
    let mut input_rng = seeds.rng("inputs");
    let mix: Vec<RequestClassSpec> = graphs.iter().map(|g| g.spec.clone()).collect();
    (0..n)
        .map(|_| {
            let class = sample_class(&mut class_rng, &mix);
            let x = (0..mix[class].input_width())
                .map(|_| input_rng.gen_range(-1.0..1.0))
                .collect();
            (class, x)
        })
        .collect()
}
