//! Runs one chaos schedule against a serving fabric and checks the
//! declared invariants.
//!
//! The runner boots a fresh [`CimFleet`] for every run — one device
//! unless [`ChaosConfig::fleet_devices`] asks for more; chaos state must
//! never leak between schedules — registers two resident request
//! classes (an 8→8 MLP and an elementwise-ReLU pipeline), lowers the
//! schedule onto the fleet's event machinery and serves an open-loop
//! arrival stream under the schedule's pressure knobs. Afterwards it
//! checks, in order:
//!
//! 1. **conservation** — `admitted + shed == offered` and
//!    `completed + timed_out + failed == admitted`;
//! 2. **no_unexpected_failures** — schedules without unit/link failures
//!    must not fail any request;
//! 3. **recovery_bound** — every §V.A recovery latency is under
//!    [`ChaosConfig::recovery_bound`];
//! 4. **telemetry_valid** — the JSONL export is non-empty and every
//!    line passes [`cim_sim::telemetry::validate_jsonl_line`];
//! 5. **determinism** — a second fresh run of the same schedule yields
//!    a bit-identical [`RunRecord::fingerprint`].
//!
//! Schedules containing a power-loss crash are additionally held to the
//! **detectable-recovery contract**, reported under three crash-scoped
//! invariant names so a reproducer says which recovery guarantee broke:
//!
//! - **crash_conservation** — no completed request is lost across a
//!   crash (the conservation equations, under crash schedules);
//! - **crash_no_double_execution** — no request executes twice: fleet
//!   served/voided accounting stays exact *and* every restore reports a
//!   pristine volatile image (a dirty restore means pre-crash state bled
//!   into post-crash accounting);
//! - **crash_determinism** — double-run determinism holds for any
//!   (config, schedule) containing crashes.
//!
//! Adversarial schedules (generated under [`ChaosConfig::adversarial`])
//! boot every device with an **armed adversary**: one mesh tile is
//! fenced off, assigned to its own NoC isolation domain, and driven by
//! the schedule's attack actions — forged and replayed capability
//! tokens, cross-partition packet scans, hostile self-programming
//! patches and hostile dataflow scanners. Three containment invariants
//! join the check order:
//!
//! - **iso_no_cross_tenant_read** — no victim byte reaches the
//!   adversary's observation point, no forged/replayed/expired token is
//!   accepted, and no cross-partition packet is delivered;
//! - **iso_bounded_blast_radius** — every unit the attack touched lies
//!   inside the compromised domain's own fenced tile;
//! - **iso_innocent_qos** — an attack-free replay of the same seed
//!   (identical armed boot, adversarial events stripped) produces
//!   identical request accounting and an identical alert timeline:
//!   blocked attacks must cost innocent tenants nothing.
//!
//! [`Weaken`] deliberately sabotages one invariant so tests (and CI
//! self-checks) can confirm the campaign catches, shrinks and replays a
//! real violation end to end.

use crate::schedule::{ChaosAction, ChaosSchedule};
use cim_crossbar::dpe::DpeConfig;
use cim_dataflow::graph::{DataflowGraph, GraphBuilder, NodeRef};
use cim_dataflow::ops::{Elementwise, Operation};
use cim_fabric::config::FabricConfig;
use cim_fabric::fleet::{CimFleet, FleetConfig};
use cim_fabric::security::AttackLog;
use cim_fabric::service::{Disposition, RequestOutcome, ServiceConfig};
use cim_noc::packet::NodeId;
use cim_obs::{AlertEvent, AlertSeverity, ObsConfig};
use cim_sim::rng::Fnv1a;
use cim_sim::telemetry::{validate_jsonl_line, TelemetryLevel};
use cim_sim::time::{SimDuration, SimTime};
use cim_sim::SeedTree;

/// Fixed-parameter harness a campaign runs every schedule against.
///
/// The schedule carries all the randomness; the config (fabric shape,
/// workload classes, request count, bounds) is held constant so that a
/// replay file plus its config fields fully determines the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Mesh width (nodes). Two-dimensional by default so single link
    /// failures degrade routes instead of partitioning the fabric.
    pub mesh_width: usize,
    /// Mesh height (nodes).
    pub mesh_height: usize,
    /// Micro-units per mesh node.
    pub units_per_tile: usize,
    /// Open-loop requests offered per run.
    pub requests: usize,
    /// Base offered arrival rate, Hz (scaled by the schedule's
    /// [`crate::schedule::Pressure::rate_x1000`]).
    pub base_rate_hz: f64,
    /// Admission queue bound.
    pub queue_capacity: usize,
    /// Retry budget per request, including the first attempt.
    pub max_attempts: u32,
    /// Base per-request deadline (tightened by the schedule's
    /// [`crate::schedule::Pressure::deadline_div`]).
    pub base_deadline: SimDuration,
    /// Upper bound every observed §V.A recovery latency must satisfy.
    pub recovery_bound: SimDuration,
    /// Horizon chaos events are generated inside, picoseconds.
    pub horizon_ps: u64,
    /// Maximum events per generated schedule.
    pub max_events: usize,
    /// Devices in the harness fleet. `0`/`1` boots one device, a single
    /// service; `>= 2` adds whole-device outages to the action mix and
    /// routes every class across [`ChaosConfig::fleet_replicas`]
    /// devices.
    pub fleet_devices: usize,
    /// Replicas per tenant class when the harness has two or more
    /// devices.
    pub fleet_replicas: usize,
    /// Admit [`crate::schedule::ChaosAction::PowerLoss`] crashes into
    /// generated schedules. Off by default so existing configs keep
    /// their bit-identical seed → schedule expansion; crash schedules
    /// additionally pin the crash-recovery contract (see
    /// [`run_schedule`]).
    pub power_loss: bool,
    /// Admit adversarial isolation attacks
    /// ([`crate::schedule::ChaosAction::is_adversarial`]) into generated
    /// schedules, and boot every device with one armed adversary tile.
    /// Off by default so existing configs keep their bit-identical
    /// seed → schedule expansion; adversarial schedules are additionally
    /// held to the three `iso_*` containment invariants (see
    /// [`run_schedule`]).
    pub adversarial: bool,
    /// Test-only invariant sabotage; [`Weaken::None`] in CI configs.
    pub weaken: Weaken,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            mesh_width: 4,
            mesh_height: 2,
            units_per_tile: 2,
            requests: 40,
            base_rate_hz: 200_000.0,
            queue_capacity: 8,
            max_attempts: 4,
            base_deadline: SimDuration::from_us(2_000),
            recovery_bound: SimDuration::from_us(5_000),
            horizon_ps: 300_000_000, // 300 µs: covers the arrival stream
            max_events: 12,
            fleet_devices: 0,
            fleet_replicas: 2,
            power_loss: false,
            adversarial: false,
            weaken: Weaken::None,
        }
    }
}

impl ChaosConfig {
    /// Total micro-units on the configured fabric (per device, in fleet
    /// mode).
    pub fn total_units(&self) -> usize {
        self.mesh_width * self.mesh_height * self.units_per_tile
    }

    /// Whether schedules run against a multi-device fleet.
    pub fn is_fleet(&self) -> bool {
        self.fleet_devices >= 2
    }
}

/// Test-only invariant sabotage, used to prove the pipeline catches
/// violations (detection → shrink → replay file → reproduction).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Weaken {
    /// Ship configuration: all invariants at full strength.
    #[default]
    None,
    /// Pretend the recovery bound is zero, so any schedule that causes
    /// a §V.A recovery violates invariant 3.
    RecoveryBoundZero,
    /// Pretend request conservation requires `failed == 0` even under
    /// hard faults, so exhausted retry budgets violate invariant 2.
    NoFailuresEver,
    /// Skip the volatile-state wipe in the power-loss recovery pass, so
    /// a restart inherits stale occupancy — the dirty restore the
    /// crash-recovery contract must detect.
    SkipVolatileClear,
    /// Skip the NoC isolation-domain boundary check, so cross-partition
    /// attack packets deliver and victim bytes reach the adversary —
    /// the leak `iso_no_cross_tenant_read` must catch, shrink and
    /// replay.
    LeakCrossPartition,
}

impl Weaken {
    /// Stable name used in replay files and CLI flags.
    pub fn name(&self) -> &'static str {
        match self {
            Weaken::None => "none",
            Weaken::RecoveryBoundZero => "recovery_bound_zero",
            Weaken::NoFailuresEver => "no_failures_ever",
            Weaken::SkipVolatileClear => "skip_volatile_clear",
            Weaken::LeakCrossPartition => "leak_cross_partition",
        }
    }

    /// Parses a CLI/replay-file name.
    pub fn from_name(name: &str) -> Option<Weaken> {
        match name {
            "none" => Some(Weaken::None),
            "recovery_bound_zero" => Some(Weaken::RecoveryBoundZero),
            "no_failures_ever" => Some(Weaken::NoFailuresEver),
            "skip_volatile_clear" => Some(Weaken::SkipVolatileClear),
            "leak_cross_partition" => Some(Weaken::LeakCrossPartition),
            _ => None,
        }
    }
}

/// What one schedule run produced, summarized for reporting and replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunRecord {
    /// FNV-1a fingerprint over every request outcome (ids, classes,
    /// arrival times, dispositions, attempt counts, output bits) and the
    /// full telemetry export. Bit-identical across replays.
    pub fingerprint: u64,
    /// Requests offered / admitted / shed / completed / timed out /
    /// failed, in that order.
    pub counts: [usize; 6],
    /// §V.A mid-stream recoveries observed.
    pub recoveries: usize,
    /// Retry attempts beyond first attempts.
    pub retries: usize,
    /// Power-loss crashes recovered during the run.
    pub crashes: usize,
    /// Lines in the telemetry export.
    pub telemetry_lines: usize,
    /// Largest observed recovery latency (zero when none).
    pub max_recovery: SimDuration,
    /// Adversarial probe attempts observed across every armed device
    /// (zero on non-adversarial runs).
    pub attack_attempts: u64,
    /// Probe attempts blocked at the isolation boundary; on a passing
    /// run this equals [`RunRecord::attack_attempts`].
    pub attack_blocked: u64,
}

/// One violated invariant: which one, what happened, and (when the run
/// itself completed) the fingerprint a replay must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Stable invariant name (`conservation`, `no_unexpected_failures`,
    /// `recovery_bound`, `telemetry_valid`, `determinism`, `run_error`;
    /// crash schedules report `crash_conservation`,
    /// `crash_no_double_execution`, `crash_determinism`; adversarial
    /// schedules report `iso_no_cross_tenant_read`,
    /// `iso_bounded_blast_radius`, `iso_innocent_qos`).
    pub invariant: &'static str,
    /// Human-readable description of the observed violation.
    pub detail: String,
    /// Fingerprint of the violating run, when one was produced.
    pub fingerprint: Option<u64>,
    /// Triage timeline: the violating run's SLO alerts, capped with a
    /// synthetic page-severity `invariant/<name>` alert stamped at the
    /// run's last observed sim time. Replay files carry this timeline so
    /// a reproducer shows *when* the run went bad, not just that it did.
    pub alerts: Vec<AlertEvent>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invariant '{}' violated: {}",
            self.invariant, self.detail
        )
    }
}

/// source → relu → sink on `width` lanes: the low-latency second tenant.
fn relu_graph(width: usize) -> (DataflowGraph, NodeRef, NodeRef) {
    let mut b = GraphBuilder::new();
    let s = b.add("src", Operation::Source { width });
    let m = b.add(
        "relu",
        Operation::Map {
            func: Elementwise::Relu,
            width,
        },
    );
    let k = b.add("sink", Operation::Sink { width });
    b.chain(&[s, m, k]).expect("chain is well-formed");
    (b.build().expect("graph is valid"), s, k)
}

/// Attack-containment accounting the `iso_*` invariants check,
/// aggregated across every armed device of the run.
struct AttackSummary {
    /// Per-device [`AttackLog`]s absorbed with fleet-global unit ids.
    log: AttackLog,
    /// Units the attack touched outside any armed tile, summed across
    /// devices (blast radius beyond the compromised domain).
    out_of_domain_touches: usize,
}

/// The tile the runner arms on every device of an adversarial run: the
/// far mesh corner, away from the (0,0)-anchored tenant placement.
fn adversary_tile(cfg: &ChaosConfig) -> NodeId {
    NodeId::new(
        cfg.mesh_width.saturating_sub(1) as u16,
        cfg.mesh_height.saturating_sub(1) as u16,
    )
}

struct RunOnce {
    /// offered / admitted / shed / completed / timed out / failed.
    counts: [usize; 6],
    recoveries: usize,
    retries: usize,
    crashes: usize,
    dirty_restores: usize,
    /// Final executions served and attempts voided across devices, and
    /// the failovers that voided them.
    served_total: u64,
    voided_total: u64,
    failovers: usize,
    fingerprint: u64,
    telemetry: String,
    series_jsonl: String,
    alerts: Vec<AlertEvent>,
    recovery_latencies: Vec<SimDuration>,
    /// Last simulated instant any request was observed at (triage
    /// timestamp for synthetic invariant alerts).
    end_time: SimTime,
    /// Present only on adversarial runs (armed devices).
    attack: Option<AttackSummary>,
}

/// The last simulated instant the outcome list touches.
fn last_observed(outcomes: &[RequestOutcome]) -> SimTime {
    outcomes
        .iter()
        .map(|o| match &o.disposition {
            Disposition::Completed { finished, .. } | Disposition::TimedOut { finished, .. } => {
                *finished
            }
            _ => o.arrival,
        })
        .max()
        .unwrap_or(SimTime::ZERO)
}

/// Boots a fresh harness — a [`CimFleet`] of
/// [`ChaosConfig::fleet_devices`] devices, one device being a single
/// service — and runs the schedule once. The schedule lowers through
/// [`crate::schedule::ChaosSchedule::to_fleet_events`], so device
/// outages fence whole devices and unit faults land on
/// `unit / units_per_device`.
fn run_once(cfg: &ChaosConfig, schedule: &ChaosSchedule) -> Result<RunOnce, String> {
    let devices = cfg.fleet_devices.max(1);
    let fleet_cfg = FleetConfig {
        devices,
        replicas: if cfg.is_fleet() {
            cfg.fleet_replicas
        } else {
            1
        },
        fabric: FabricConfig {
            mesh_width: cfg.mesh_width,
            mesh_height: cfg.mesh_height,
            units_per_tile: cfg.units_per_tile,
            dpe: DpeConfig::ideal(),
            encryption: cfg.adversarial,
            ..FabricConfig::default()
        },
        service: ServiceConfig {
            queue_capacity: cfg.queue_capacity,
            max_attempts: cfg.max_attempts,
            restore_clears_volatile: cfg.weaken != Weaken::SkipVolatileClear,
            ..ServiceConfig::default()
        },
        ..FleetConfig::default()
    };
    // The fleet seed is FIXED: all chaos randomness lives in the
    // schedule, so (config, schedule) alone determines the run.
    let mut fleet = CimFleet::new(fleet_cfg, SeedTree::new(0xC1A0_5EED))
        .map_err(|e| format!("fleet boot failed: {e}"))?;
    let tels: Vec<_> = (0..devices)
        .map(|d| {
            fleet
                .runtime_mut(d)
                .device_mut()
                .enable_telemetry(TelemetryLevel::Full)
        })
        .collect();
    // The observability pipeline rides every chaos run: SLO burn-rate
    // alerts become part of the fingerprint and the triage timeline.
    fleet.enable_observability(ObsConfig::default());

    // Adversarial runs arm one tile on every device BEFORE tenant
    // classes place: its units are fenced (so placement avoids them)
    // and the tile joins its own NoC isolation domain. The
    // victim/attacker split is part of the boot image, so an
    // attack-free replay boots identically.
    let mut armed_units: Vec<usize> = Vec::new();
    if cfg.adversarial {
        for d in 0..devices {
            let dev = fleet.runtime_mut(d).device_mut();
            armed_units = dev.arm_adversary(adversary_tile(cfg));
            if cfg.weaken == Weaken::LeakCrossPartition {
                dev.noc_mut().set_leak_cross_partition(true);
            }
        }
    }

    let deadline = schedule.pressure.deadline(cfg.base_deadline);
    let (mlp, mlp_src, mlp_sink) =
        cim_workloads::nn::mlp_graph(&[8, 8], SeedTree::new(0xC1A55).child("mlp"));
    fleet
        .register_class("mlp", mlp, mlp_src, mlp_sink, deadline, 2)
        .map_err(|e| format!("mlp class registration failed: {e}"))?;
    let (relu, relu_src, relu_sink) = relu_graph(8);
    fleet
        .register_class("relu", relu, relu_src, relu_sink, deadline, 1)
        .map_err(|e| format!("relu class registration failed: {e}"))?;

    let rate_hz = schedule.pressure.rate_hz(cfg.base_rate_hz);
    let events = schedule.to_fleet_events(devices, cfg.total_units());
    let report = fleet
        .run_open_loop(rate_hz, cfg.requests, &events)
        .map_err(|e| format!("serving run aborted: {e}"))?;

    let telemetry: String = tels.iter().map(|t| t.export_jsonl()).collect();
    let recovery_latencies: Vec<SimDuration> = (0..devices)
        .flat_map(|d| fleet.runtime(d).device().recovery_latencies())
        .collect();
    let attack = cfg.adversarial.then(|| {
        let mut summary = AttackSummary {
            log: AttackLog::default(),
            out_of_domain_touches: 0,
        };
        for d in 0..devices {
            if let Some(log) = fleet.runtime(d).device().attack_log() {
                summary.out_of_domain_touches += log.touched_outside(&armed_units);
                summary.log.absorb(log, d * cfg.total_units());
            }
        }
        summary
    });
    // The fleet's streaming fingerprint covers every outcome; fold in
    // the telemetry, series and alert exports: the equality witness
    // replay and thread-invariance checks compare.
    let mut h = Fnv1a::new();
    h.write_u64(report.fingerprint);
    h.write(telemetry.as_bytes());
    h.write(report.series_jsonl.as_bytes());
    for a in &report.alerts {
        h.write_u64(a.at.as_ps());
        h.write(a.tenant.as_bytes());
        h.write(a.rule.as_bytes());
        h.write(&[u8::from(a.severity == AlertSeverity::Page)]);
        h.write_u64(a.burn_rate.to_bits());
        h.write_u64(a.window.as_ps());
    }
    Ok(RunOnce {
        counts: [
            report.offered,
            report.admitted,
            report.shed,
            report.completed,
            report.timed_out,
            report.failed,
        ],
        recoveries: report.recoveries,
        retries: report.retries,
        crashes: report.crashes,
        dirty_restores: report.dirty_restores,
        served_total: report.served_total(),
        voided_total: report.voided_total(),
        failovers: report.failovers,
        fingerprint: h.finish(),
        telemetry,
        series_jsonl: report.series_jsonl,
        alerts: report.alerts,
        recovery_latencies,
        end_time: last_observed(&report.outcomes),
        attack,
    })
}

/// The violating run's triage timeline: its SLO alerts, a ticket per
/// scheduled power loss (the recovery timeline — when each device went
/// dark, and for how long), and a synthetic page for the broken
/// invariant, stamped at the run's last observed sim time.
fn triage_alerts(
    invariant: &'static str,
    run: Option<&RunOnce>,
    schedule: &ChaosSchedule,
) -> Vec<AlertEvent> {
    let mut alerts = run.map(|r| r.alerts.clone()).unwrap_or_default();
    for ev in &schedule.events {
        if let ChaosAction::PowerLoss {
            device,
            restart_after_ps,
        } = ev.action
        {
            alerts.push(AlertEvent {
                at: SimTime::from_ps(ev.at_ps),
                tenant: format!("dev{device}"),
                rule: "power_loss".to_owned(),
                severity: AlertSeverity::Ticket,
                burn_rate: 0.0,
                window: SimDuration::from_ps(u64::from(restart_after_ps)),
            });
        } else if ev.action.is_adversarial() {
            // Attack timeline: one ticket per adversarial action, so a
            // reproducer shows which probes fired before the invariant
            // broke.
            alerts.push(AlertEvent {
                at: SimTime::from_ps(ev.at_ps),
                tenant: "adversary".to_owned(),
                rule: format!("attack/{}", ev.action.kind_name()),
                severity: AlertSeverity::Ticket,
                burn_rate: 0.0,
                window: SimDuration::ZERO,
            });
        }
    }
    alerts.sort_by_key(|a| a.at);
    let detected_at = run.map(|r| r.end_time).unwrap_or(SimTime::ZERO);
    alerts.push(AlertEvent {
        at: detected_at,
        tenant: "chaos".to_owned(),
        rule: format!("invariant/{invariant}"),
        severity: AlertSeverity::Page,
        burn_rate: 1.0,
        window: SimDuration::ZERO,
    });
    alerts
}

/// Runs the schedule once and renders its full observability export:
/// the telemetry snapshot, the windowed series, and the alert timeline,
/// as one validated JSON-lines string (what the chaos bins write for
/// `--telemetry`).
///
/// # Errors
///
/// Propagates run failures as strings.
pub fn export_run(cfg: &ChaosConfig, schedule: &ChaosSchedule) -> Result<String, String> {
    let once = run_once(cfg, schedule)?;
    Ok(format!(
        "{}{}{}",
        once.telemetry,
        once.series_jsonl,
        cim_obs::alerts_jsonl(&once.alerts)
    ))
}

/// Runs `schedule` under `cfg` and checks every invariant.
///
/// # Errors
///
/// Returns the **first** violated invariant (the check order above), so
/// shrinking minimizes against a stable failure signature.
pub fn run_schedule(cfg: &ChaosConfig, schedule: &ChaosSchedule) -> Result<RunRecord, Violation> {
    // Crash schedules are held to the detectable-recovery contract: the
    // same conservation/uniqueness/determinism checks run, but under
    // contract names so a crash reproducer reports *which* recovery
    // guarantee broke, and a dirty-restore check joins them.
    let crash = schedule.has_power_loss();
    let first = run_once(cfg, schedule).map_err(|detail| Violation {
        invariant: "run_error",
        detail,
        fingerprint: None,
        alerts: triage_alerts("run_error", None, schedule),
    })?;
    let [offered, admitted, shed, completed, timed_out, failed] = first.counts;

    // 1. Conservation: nothing vanishes at admission or dispatch. For
    // crash schedules this is the contract's first clause — no
    // completed request is lost across a crash.
    if admitted + shed != offered || completed + timed_out + failed != admitted {
        let invariant = if crash {
            "crash_conservation"
        } else {
            "conservation"
        };
        return Err(Violation {
            invariant,
            detail: format!(
                "offered {offered} != admitted {admitted} + shed {shed}, or admitted != \
                 completed {completed} + timed_out {timed_out} + failed {failed}"
            ),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts(invariant, Some(&first), schedule),
        });
    }

    // 1b. No execution counts twice. A restart that inherits stale
    // volatile state is the crash-layer version of double-counting —
    // pre-crash occupancy, meters and queues bleed into post-crash
    // accounting — so a dirty restore violates the contract directly.
    if first.dirty_restores > 0 {
        return Err(Violation {
            invariant: "crash_no_double_execution",
            detail: format!(
                "{} of {} crash restore(s) left non-pristine volatile state",
                first.dirty_restores, first.crashes
            ),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts("crash_no_double_execution", Some(&first), schedule),
        });
    }

    // 1c. Failover must never double-count an execution — each
    // request's final run is served exactly once, and every failover
    // voids exactly one in-flight attempt.
    if first.served_total != (completed + timed_out) as u64
        || first.voided_total != first.failovers as u64
    {
        let invariant = if crash {
            "crash_no_double_execution"
        } else {
            "no_double_execution"
        };
        return Err(Violation {
            invariant,
            detail: format!(
                "devices served {} (completed + timed_out is {}), voided {} across {} failovers",
                first.served_total,
                completed + timed_out,
                first.voided_total,
                first.failovers
            ),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts(invariant, Some(&first), schedule),
        });
    }

    // 1d. Containment: every adversarial probe must be stopped at the
    // isolation boundary — no victim byte observed by the adversary, no
    // forged/replayed/expired token accepted, no cross-partition packet
    // delivered.
    if let Some(attack) = &first.attack {
        if !attack.log.contained() {
            return Err(Violation {
                invariant: "iso_no_cross_tenant_read",
                detail: format!(
                    "adversary observed {} victim byte(s), {} cross-partition delivery(ies), \
                     {} accepted token(s) across {} probe attempt(s) ({} blocked)",
                    attack.log.leaked_bytes,
                    attack.log.cross_deliveries,
                    attack.log.tokens_accepted,
                    attack.log.attempts,
                    attack.log.blocked,
                ),
                fingerprint: Some(first.fingerprint),
                alerts: triage_alerts("iso_no_cross_tenant_read", Some(&first), schedule),
            });
        }
        // 1e. Blast radius: everything the attack touched stays inside
        // the compromised domain's own fenced units.
        if attack.out_of_domain_touches > 0 {
            return Err(Violation {
                invariant: "iso_bounded_blast_radius",
                detail: format!(
                    "attack touched {} unit(s) outside the adversary's fenced tile; touched set: {:?}",
                    attack.out_of_domain_touches, attack.log.touched_units,
                ),
                fingerprint: Some(first.fingerprint),
                alerts: triage_alerts("iso_bounded_blast_radius", Some(&first), schedule),
            });
        }
    }

    // 2. Hard failures need a hard fault in the schedule to explain them.
    let failures_allowed = schedule.has_hard_faults() && cfg.weaken != Weaken::NoFailuresEver;
    if failed > 0 && !failures_allowed {
        return Err(Violation {
            invariant: "no_unexpected_failures",
            detail: format!(
                "{failed} request(s) failed under a schedule with no unit/link failures"
            ),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts("no_unexpected_failures", Some(&first), schedule),
        });
    }

    // 3. Every §V.A recovery completes inside the bound.
    let bound = match cfg.weaken {
        Weaken::RecoveryBoundZero => SimDuration::ZERO,
        _ => cfg.recovery_bound,
    };
    let max_recovery = first
        .recovery_latencies
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max);
    if max_recovery > bound {
        return Err(Violation {
            invariant: "recovery_bound",
            detail: format!(
                "recovery took {:.3} µs, bound is {:.3} µs",
                max_recovery.as_us_f64(),
                bound.as_us_f64()
            ),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts("recovery_bound", Some(&first), schedule),
        });
    }

    // 4. Telemetry must export, and every line must be schema-valid.
    if first.telemetry.is_empty() {
        return Err(Violation {
            invariant: "telemetry_valid",
            detail: "telemetry export is empty".to_owned(),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts("telemetry_valid", Some(&first), schedule),
        });
    }
    for (i, line) in first.telemetry.lines().enumerate() {
        if let Err(e) = validate_jsonl_line(line) {
            return Err(Violation {
                invariant: "telemetry_valid",
                detail: format!("telemetry line {} invalid: {e}", i + 1),
                fingerprint: Some(first.fingerprint),
                alerts: triage_alerts("telemetry_valid", Some(&first), schedule),
            });
        }
    }

    // 4b. Innocent tenants pay nothing for blocked attacks: replay the
    // run with every adversarial event stripped (the boot image — armed
    // tile included — is identical) and require bit-equal request
    // accounting and an identical SLO alert timeline. Fingerprints are
    // deliberately NOT compared: probes legitimately consume packet ids
    // and bump NoC counters, which telemetry may see but no innocent
    // tenant's outcomes or burn rates ever may.
    if cfg.adversarial && schedule.has_adversarial() {
        let stripped = ChaosSchedule {
            pressure: schedule.pressure,
            events: schedule
                .events
                .iter()
                .filter(|e| !e.action.is_adversarial())
                .copied()
                .collect(),
        };
        let baseline = run_once(cfg, &stripped).map_err(|detail| Violation {
            invariant: "run_error",
            detail: format!("attack-free baseline run aborted: {detail}"),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts("run_error", Some(&first), schedule),
        })?;
        if baseline.counts != first.counts || baseline.alerts != first.alerts {
            return Err(Violation {
                invariant: "iso_innocent_qos",
                detail: format!(
                    "attacked run counts {:?} with {} alert(s) vs attack-free baseline {:?} \
                     with {} alert(s): blocked attacks must not change innocent outcomes",
                    first.counts,
                    first.alerts.len(),
                    baseline.counts,
                    baseline.alerts.len(),
                ),
                fingerprint: Some(first.fingerprint),
                alerts: triage_alerts("iso_innocent_qos", Some(&first), schedule),
            });
        }
    }

    // 5. A second fresh run must be bit-identical. For crash schedules
    // this is the contract's third clause — recovery itself must be
    // deterministic, or a crash reproducer stops reproducing.
    let second = run_once(cfg, schedule).map_err(|detail| Violation {
        invariant: "run_error",
        detail: format!("replay run aborted: {detail}"),
        fingerprint: Some(first.fingerprint),
        alerts: triage_alerts("run_error", Some(&first), schedule),
    })?;
    if second.fingerprint != first.fingerprint {
        let invariant = if crash {
            "crash_determinism"
        } else {
            "determinism"
        };
        return Err(Violation {
            invariant,
            detail: format!(
                "fresh re-run fingerprint {:#018x} != first run {:#018x}",
                second.fingerprint, first.fingerprint
            ),
            fingerprint: Some(first.fingerprint),
            alerts: triage_alerts(invariant, Some(&second), schedule),
        });
    }

    Ok(RunRecord {
        fingerprint: first.fingerprint,
        counts: first.counts,
        recoveries: first.recoveries,
        retries: first.retries,
        crashes: first.crashes,
        telemetry_lines: first.telemetry.lines().count(),
        max_recovery,
        attack_attempts: first.attack.as_ref().map_or(0, |a| a.log.attempts),
        attack_blocked: first.attack.as_ref().map_or(0, |a| a.log.blocked),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{ChaosAction, ChaosEvent, Pressure};

    fn quick_cfg() -> ChaosConfig {
        ChaosConfig {
            requests: 12,
            ..ChaosConfig::default()
        }
    }

    #[test]
    fn empty_schedule_satisfies_all_invariants() {
        let rec = run_schedule(&quick_cfg(), &ChaosSchedule::empty()).expect("clean run");
        assert_eq!(rec.counts[0], 12);
        assert!(rec.telemetry_lines > 0);
    }

    #[test]
    fn runs_are_fingerprint_stable() {
        let cfg = quick_cfg();
        let sched = ChaosSchedule {
            pressure: Pressure {
                rate_x1000: 3000,
                deadline_div: 2,
            },
            events: vec![
                ChaosEvent {
                    at_ps: 5_000_000,
                    action: ChaosAction::FailUnit { unit: 3 },
                },
                ChaosEvent {
                    at_ps: 40_000_000,
                    action: ChaosAction::RepairUnit { unit: 3 },
                },
                ChaosEvent {
                    at_ps: 10_000_000,
                    action: ChaosAction::ArrivalBurst { extra: 6 },
                },
            ],
        };
        let a = run_schedule(&cfg, &sched).expect("chaos absorbed");
        let b = run_schedule(&cfg, &sched).expect("chaos absorbed");
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a, b);
    }

    #[test]
    fn weakened_recovery_bound_flags_a_violation() {
        let cfg = ChaosConfig {
            weaken: Weaken::RecoveryBoundZero,
            ..quick_cfg()
        };
        // A unit failure mid-stream forces a §V.A recovery, whose
        // latency cannot be ≤ 0.
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![ChaosEvent {
                at_ps: 1_000_000,
                action: ChaosAction::FailUnit { unit: 0 },
            }],
        };
        let v = run_schedule(&cfg, &sched).expect_err("weakened invariant must trip");
        assert_eq!(v.invariant, "recovery_bound");
        assert!(v.fingerprint.is_some());
    }

    #[test]
    fn fleet_mode_absorbs_a_device_outage() {
        let cfg = ChaosConfig {
            fleet_devices: 3,
            requests: 16,
            ..ChaosConfig::default()
        };
        // Device 0 dies early and returns after most arrivals: every
        // request it was serving fails over to the replica device. The
        // run passes conservation, no-double-execution and determinism
        // (all checked inside run_schedule).
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![
                ChaosEvent {
                    at_ps: 2_000_000,
                    action: ChaosAction::DeviceDown { device: 0 },
                },
                ChaosEvent {
                    at_ps: 100_000_000,
                    action: ChaosAction::DeviceUp { device: 0 },
                },
            ],
        };
        let rec = run_schedule(&cfg, &sched).expect("fleet absorbs the outage");
        assert_eq!(rec.counts[0], 16);
        assert_eq!(rec.counts[5], 0, "no requests lost: {:?}", rec.counts);
        assert!(rec.telemetry_lines > 0);
    }

    /// One crash mid-stream, single-device and fleet: the recovery
    /// contract (crash_conservation, crash_no_double_execution,
    /// crash_determinism — all checked inside run_schedule) holds.
    #[test]
    fn power_loss_schedules_satisfy_the_recovery_contract() {
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![ChaosEvent {
                at_ps: 20_000_000,
                action: ChaosAction::PowerLoss {
                    device: 0,
                    restart_after_ps: 10_000_000,
                },
            }],
        };
        let single = run_schedule(&quick_cfg(), &sched).expect("single-device crash recovered");
        assert!(single.crashes >= 1, "the crash must actually land");

        let fleet_cfg = ChaosConfig {
            fleet_devices: 3,
            requests: 16,
            ..ChaosConfig::default()
        };
        let fleet = run_schedule(&fleet_cfg, &sched).expect("fleet crash recovered");
        assert!(fleet.crashes >= 1);
    }

    #[test]
    fn weakened_volatile_clear_trips_the_crash_contract() {
        let cfg = ChaosConfig {
            weaken: Weaken::SkipVolatileClear,
            ..quick_cfg()
        };
        // Crash while a request is in flight so the restart inherits
        // real stale occupancy; the dirty restore must be detected and
        // attributed to the crash contract.
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![ChaosEvent {
                at_ps: 20_000_000,
                action: ChaosAction::PowerLoss {
                    device: 0,
                    restart_after_ps: 10_000_000,
                },
            }],
        };
        let v = run_schedule(&cfg, &sched).expect_err("dirty restore must be detected");
        assert_eq!(v.invariant, "crash_no_double_execution");
        assert!(v.fingerprint.is_some());
        assert!(
            v.alerts.iter().any(|a| a.rule == "power_loss"),
            "triage timeline carries the recovery timeline"
        );
    }

    /// One of every adversarial action kind, spread through the run.
    fn adversarial_sched() -> ChaosSchedule {
        ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![
                ChaosEvent {
                    at_ps: 5_000_000,
                    action: ChaosAction::ForgeToken { unit: 3 },
                },
                ChaosEvent {
                    at_ps: 10_000_000,
                    action: ChaosAction::ReplayToken {
                        unit: 1,
                        age_ps: 80_000_000,
                    },
                },
                ChaosEvent {
                    at_ps: 15_000_000,
                    action: ChaosAction::CrossPartitionScan {
                        vx: 0,
                        vy: 0,
                        packets: 3,
                        bytes: 64,
                    },
                },
                ChaosEvent {
                    at_ps: 20_000_000,
                    action: ChaosAction::HostileSelfProg { seed: 7 },
                },
                ChaosEvent {
                    at_ps: 25_000_000,
                    action: ChaosAction::HostileDataflow { seed: 11 },
                },
            ],
        }
    }

    /// Every attack kind fires against single-device and fleet
    /// harnesses; all three iso invariants (checked inside
    /// run_schedule, including the stripped-schedule QoS replay) hold,
    /// and every probe is blocked at the boundary.
    #[test]
    fn adversarial_schedule_is_contained_single_and_fleet() {
        let cfg = ChaosConfig {
            adversarial: true,
            ..quick_cfg()
        };
        let rec = run_schedule(&cfg, &adversarial_sched()).expect("attacks contained");
        assert!(rec.attack_attempts > 0, "attacks must actually fire");
        assert_eq!(
            rec.attack_blocked, rec.attack_attempts,
            "every probe is blocked at the isolation boundary"
        );

        let fleet_cfg = ChaosConfig {
            adversarial: true,
            fleet_devices: 3,
            requests: 16,
            ..ChaosConfig::default()
        };
        let fleet = run_schedule(&fleet_cfg, &adversarial_sched()).expect("fleet contains attacks");
        assert!(fleet.attack_attempts > 0);
        assert_eq!(fleet.attack_blocked, fleet.attack_attempts);
    }

    /// The catch→shrink→replay self-check's seed violation: skipping
    /// the NoC boundary check leaks victim bytes, and the containment
    /// invariant must name it.
    #[test]
    fn weakened_noc_boundary_trips_cross_tenant_read() {
        let cfg = ChaosConfig {
            adversarial: true,
            weaken: Weaken::LeakCrossPartition,
            ..quick_cfg()
        };
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![ChaosEvent {
                at_ps: 5_000_000,
                action: ChaosAction::CrossPartitionScan {
                    vx: 0,
                    vy: 0,
                    packets: 4,
                    bytes: 96,
                },
            }],
        };
        let v = run_schedule(&cfg, &sched).expect_err("leak must be detected");
        assert_eq!(v.invariant, "iso_no_cross_tenant_read");
        assert!(v.fingerprint.is_some());
        assert!(
            v.alerts
                .iter()
                .any(|a| a.rule == "attack/cross_partition_scan"),
            "triage timeline carries the attack timeline"
        );
    }
}
