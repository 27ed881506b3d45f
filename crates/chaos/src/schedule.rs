//! Chaos schedules: the shrinkable fault-event grammar.
//!
//! A schedule is plain data — flat `Copy` events with picosecond
//! timestamps plus two pressure knobs — deliberately decoupled from
//! `cim_fabric`'s [`ServiceEvent`] so it can implement the in-tree
//! [`Shrink`] trait (the orphan rule forbids implementing `cim_sim`'s
//! trait for `cim_fabric`'s type) and serialize to one JSON line per
//! event. [`ChaosSchedule::to_fleet_events`] lowers a schedule onto the
//! fabric's event machinery at run time, device-local actions through
//! [`ChaosEvent::to_service_event`].

use cim_fabric::engine::InjectionKind;
use cim_fabric::fleet::FleetEvent;
use cim_fabric::service::ServiceEvent;
use cim_noc::packet::NodeId;
use cim_sim::prop::Shrink;
use cim_sim::time::SimTime;

/// One layer-spanning fault action, with all coordinates flattened to
/// integers so the whole event is `Copy + Eq` and trivially shrinkable
/// and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Hard-fail micro-unit `unit` (out-of-range indices are ignored by
    /// the fabric — shrinking stays safe).
    FailUnit {
        /// Linear unit index.
        unit: u16,
    },
    /// Return micro-unit `unit` to service.
    RepairUnit {
        /// Linear unit index.
        unit: u16,
    },
    /// Sever the mesh link between `(ax, ay)` and `(bx, by)`. Arbitrary
    /// pairs are accepted (non-adjacent pairs are no-ops in the mesh's
    /// failed-link set), so shrunken coordinates never panic.
    FailLink {
        /// Endpoint A, x coordinate.
        ax: u16,
        /// Endpoint A, y coordinate.
        ay: u16,
        /// Endpoint B, x coordinate.
        bx: u16,
        /// Endpoint B, y coordinate.
        by: u16,
    },
    /// Restore the link between `(ax, ay)` and `(bx, by)`.
    RepairLink {
        /// Endpoint A, x coordinate.
        ax: u16,
        /// Endpoint A, y coordinate.
        ay: u16,
        /// Endpoint B, x coordinate.
        bx: u16,
        /// Endpoint B, y coordinate.
        by: u16,
    },
    /// Inject stuck-at cell faults into unit `unit`'s crossbars at
    /// `rate_ppm` parts-per-million, `stuck_on_ppm` of them stuck-on,
    /// seeded by `seed` (kept in `u32` so every serialized value is an
    /// exact JSON number).
    CellFaults {
        /// Linear unit index.
        unit: u16,
        /// Cell fault rate, parts per million.
        rate_ppm: u32,
        /// Stuck-on fraction of faulty cells, parts per million.
        stuck_on_ppm: u32,
        /// Seed for the deterministic fault pattern.
        seed: u32,
    },
    /// Age unit `unit`'s crossbars by a sudden conductance drift of
    /// `drift_ppm` parts-per-million.
    DriftSpike {
        /// Linear unit index.
        unit: u16,
        /// Drift magnitude, parts per million.
        drift_ppm: u32,
    },
    /// Flood the route `(ax, ay) → (bx, by)` with `packets` best-effort
    /// packets of `bytes` bytes each, congesting shared links.
    Congestion {
        /// Source node, x coordinate.
        ax: u16,
        /// Source node, y coordinate.
        ay: u16,
        /// Destination node, x coordinate.
        bx: u16,
        /// Destination node, y coordinate.
        by: u16,
        /// Number of flood packets.
        packets: u16,
        /// Payload size per packet, bytes.
        bytes: u16,
    },
    /// Service-layer arrival burst: the next `extra` open-loop arrivals
    /// after this instant land back-to-back, hammering admission.
    ArrivalBurst {
        /// Simultaneous arrivals beyond the first.
        extra: u16,
    },
    /// Whole-device outage (fleet runs only): device `device` is fenced
    /// from routing and every request caught on it fails over. On a
    /// single-device harness this action does not lower (no service
    /// event), so shrunk single-device schedules stay runnable.
    DeviceDown {
        /// Fleet device index.
        device: u16,
    },
    /// The device returns to service and rejoins routing.
    DeviceUp {
        /// Fleet device index.
        device: u16,
    },
    /// Power loss: device `device` crashes, losing all volatile state;
    /// `restart_after_ps` later it reboots through the persistence
    /// layer's recovery pass (nonvolatile conductances and resident
    /// programs survive). On a single-device harness the device index
    /// is ignored — the one device crashes.
    PowerLoss {
        /// Fleet device index (ignored on single-device runs).
        device: u16,
        /// Outage duration, picoseconds.
        restart_after_ps: u32,
    },
    /// Adversarial (armed runs only): the compromised tile fabricates a
    /// capability token for `unit` and presents a stolen one
    /// cross-domain. The authority must refuse both.
    ForgeToken {
        /// Linear unit index the forged capability claims.
        unit: u16,
    },
    /// Adversarial: a captured capability token for `unit` is replayed
    /// `age_ps` after issue — refused as replayed or (past the TTL)
    /// expired.
    ReplayToken {
        /// Linear unit index the token covers.
        unit: u16,
        /// Capture-to-replay delay, picoseconds.
        age_ps: u32,
    },
    /// Adversarial: cross-partition packet injection plus exfiltration
    /// against victim tile `(vx, vy)` — `packets` rounds of `bytes`-byte
    /// probes in each direction across the domain boundary.
    CrossPartitionScan {
        /// Victim tile, x coordinate.
        vx: u16,
        /// Victim tile, y coordinate.
        vy: u16,
        /// Rounds of inject + exfiltrate probes.
        packets: u16,
        /// Probe payload size, bytes.
        bytes: u16,
    },
    /// Adversarial: a hostile self-programming patch assembled on the
    /// compromised tile and launched at a victim tile as a code packet.
    HostileSelfProg {
        /// Seed for the patch parameters and target tile.
        seed: u32,
    },
    /// Adversarial: a hostile dataflow scanner program run on the
    /// compromised tile, probing every mesh neighbour partition.
    HostileDataflow {
        /// Seed for the scanner program parameters.
        seed: u32,
    },
}

impl ChaosAction {
    /// Short stable identifier used in replay files and labels.
    pub fn kind_name(&self) -> &'static str {
        match self {
            ChaosAction::FailUnit { .. } => "fail_unit",
            ChaosAction::RepairUnit { .. } => "repair_unit",
            ChaosAction::FailLink { .. } => "fail_link",
            ChaosAction::RepairLink { .. } => "repair_link",
            ChaosAction::CellFaults { .. } => "cell_faults",
            ChaosAction::DriftSpike { .. } => "drift_spike",
            ChaosAction::Congestion { .. } => "congestion",
            ChaosAction::ArrivalBurst { .. } => "arrival_burst",
            ChaosAction::DeviceDown { .. } => "device_down",
            ChaosAction::DeviceUp { .. } => "device_up",
            ChaosAction::PowerLoss { .. } => "power_loss",
            ChaosAction::ForgeToken { .. } => "forge_token",
            ChaosAction::ReplayToken { .. } => "replay_token",
            ChaosAction::CrossPartitionScan { .. } => "cross_partition_scan",
            ChaosAction::HostileSelfProg { .. } => "hostile_self_prog",
            ChaosAction::HostileDataflow { .. } => "hostile_dataflow",
        }
    }

    /// Whether this action can make requests *fail* outright (as opposed
    /// to merely degrading latency or accuracy). Used by the
    /// no-hard-fault conservation invariant. Adversarial actions are
    /// deliberately *not* hard faults: a contained attack must not fail
    /// a single innocent request.
    pub fn is_hard_fault(&self) -> bool {
        matches!(
            self,
            ChaosAction::FailUnit { .. }
                | ChaosAction::FailLink { .. }
                | ChaosAction::DeviceDown { .. }
                | ChaosAction::PowerLoss { .. }
        )
    }

    /// Whether this is one of the adversarial attack actions — such
    /// schedules are held to the `iso_*` containment invariants.
    pub fn is_adversarial(&self) -> bool {
        matches!(
            self,
            ChaosAction::ForgeToken { .. }
                | ChaosAction::ReplayToken { .. }
                | ChaosAction::CrossPartitionScan { .. }
                | ChaosAction::HostileSelfProg { .. }
                | ChaosAction::HostileDataflow { .. }
        )
    }
}

/// Shrinking an action reduces its numeric fields toward zero but never
/// changes its kind: a minimal reproducer should keep the *shape* of
/// the failure while shedding incidental magnitude.
impl Shrink for ChaosAction {
    fn shrink_candidates(&self) -> Vec<Self> {
        match *self {
            ChaosAction::FailUnit { unit } => unit
                .shrink_candidates()
                .into_iter()
                .map(|unit| ChaosAction::FailUnit { unit })
                .collect(),
            ChaosAction::RepairUnit { unit } => unit
                .shrink_candidates()
                .into_iter()
                .map(|unit| ChaosAction::RepairUnit { unit })
                .collect(),
            ChaosAction::FailLink { ax, ay, bx, by } => shrink4(ax, ay, bx, by)
                .into_iter()
                .map(|(ax, ay, bx, by)| ChaosAction::FailLink { ax, ay, bx, by })
                .collect(),
            ChaosAction::RepairLink { ax, ay, bx, by } => shrink4(ax, ay, bx, by)
                .into_iter()
                .map(|(ax, ay, bx, by)| ChaosAction::RepairLink { ax, ay, bx, by })
                .collect(),
            ChaosAction::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            } => {
                let mut out = Vec::new();
                for u in unit.shrink_candidates() {
                    out.push(ChaosAction::CellFaults {
                        unit: u,
                        rate_ppm,
                        stuck_on_ppm,
                        seed,
                    });
                }
                for r in rate_ppm.shrink_candidates() {
                    out.push(ChaosAction::CellFaults {
                        unit,
                        rate_ppm: r,
                        stuck_on_ppm,
                        seed,
                    });
                }
                for s in stuck_on_ppm.shrink_candidates() {
                    out.push(ChaosAction::CellFaults {
                        unit,
                        rate_ppm,
                        stuck_on_ppm: s,
                        seed,
                    });
                }
                out
            }
            ChaosAction::DriftSpike { unit, drift_ppm } => {
                let mut out = Vec::new();
                for u in unit.shrink_candidates() {
                    out.push(ChaosAction::DriftSpike { unit: u, drift_ppm });
                }
                for d in drift_ppm.shrink_candidates() {
                    out.push(ChaosAction::DriftSpike { unit, drift_ppm: d });
                }
                out
            }
            ChaosAction::Congestion {
                ax,
                ay,
                bx,
                by,
                packets,
                bytes,
            } => {
                let mut out = Vec::new();
                for p in packets.shrink_candidates() {
                    out.push(ChaosAction::Congestion {
                        ax,
                        ay,
                        bx,
                        by,
                        packets: p,
                        bytes,
                    });
                }
                for b in bytes.shrink_candidates() {
                    out.push(ChaosAction::Congestion {
                        ax,
                        ay,
                        bx,
                        by,
                        packets,
                        bytes: b,
                    });
                }
                for (ax, ay, bx, by) in shrink4(ax, ay, bx, by) {
                    out.push(ChaosAction::Congestion {
                        ax,
                        ay,
                        bx,
                        by,
                        packets,
                        bytes,
                    });
                }
                out
            }
            ChaosAction::ArrivalBurst { extra } => extra
                .shrink_candidates()
                .into_iter()
                .map(|extra| ChaosAction::ArrivalBurst { extra })
                .collect(),
            ChaosAction::DeviceDown { device } => device
                .shrink_candidates()
                .into_iter()
                .map(|device| ChaosAction::DeviceDown { device })
                .collect(),
            ChaosAction::DeviceUp { device } => device
                .shrink_candidates()
                .into_iter()
                .map(|device| ChaosAction::DeviceUp { device })
                .collect(),
            ChaosAction::PowerLoss {
                device,
                restart_after_ps,
            } => {
                let mut out = Vec::new();
                for d in device.shrink_candidates() {
                    out.push(ChaosAction::PowerLoss {
                        device: d,
                        restart_after_ps,
                    });
                }
                for r in restart_after_ps.shrink_candidates() {
                    out.push(ChaosAction::PowerLoss {
                        device,
                        restart_after_ps: r,
                    });
                }
                out
            }
            ChaosAction::ForgeToken { unit } => unit
                .shrink_candidates()
                .into_iter()
                .map(|unit| ChaosAction::ForgeToken { unit })
                .collect(),
            ChaosAction::ReplayToken { unit, age_ps } => {
                let mut out = Vec::new();
                for u in unit.shrink_candidates() {
                    out.push(ChaosAction::ReplayToken { unit: u, age_ps });
                }
                for a in age_ps.shrink_candidates() {
                    out.push(ChaosAction::ReplayToken { unit, age_ps: a });
                }
                out
            }
            ChaosAction::CrossPartitionScan {
                vx,
                vy,
                packets,
                bytes,
            } => {
                let mut out = Vec::new();
                for v in vx.shrink_candidates() {
                    out.push(ChaosAction::CrossPartitionScan {
                        vx: v,
                        vy,
                        packets,
                        bytes,
                    });
                }
                for v in vy.shrink_candidates() {
                    out.push(ChaosAction::CrossPartitionScan {
                        vx,
                        vy: v,
                        packets,
                        bytes,
                    });
                }
                for p in packets.shrink_candidates() {
                    out.push(ChaosAction::CrossPartitionScan {
                        vx,
                        vy,
                        packets: p,
                        bytes,
                    });
                }
                for b in bytes.shrink_candidates() {
                    out.push(ChaosAction::CrossPartitionScan {
                        vx,
                        vy,
                        packets,
                        bytes: b,
                    });
                }
                out
            }
            ChaosAction::HostileSelfProg { seed } => seed
                .shrink_candidates()
                .into_iter()
                .map(|seed| ChaosAction::HostileSelfProg { seed })
                .collect(),
            ChaosAction::HostileDataflow { seed } => seed
                .shrink_candidates()
                .into_iter()
                .map(|seed| ChaosAction::HostileDataflow { seed })
                .collect(),
        }
    }
}

/// Shrink one coordinate of a 4-tuple at a time.
fn shrink4(ax: u16, ay: u16, bx: u16, by: u16) -> Vec<(u16, u16, u16, u16)> {
    let mut out = Vec::new();
    for a in ax.shrink_candidates() {
        out.push((a, ay, bx, by));
    }
    for a in ay.shrink_candidates() {
        out.push((ax, a, bx, by));
    }
    for b in bx.shrink_candidates() {
        out.push((ax, ay, b, by));
    }
    for b in by.shrink_candidates() {
        out.push((ax, ay, bx, b));
    }
    out
}

/// One timed chaos event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Fire time, picoseconds of simulated time.
    pub at_ps: u64,
    /// What happens.
    pub action: ChaosAction,
}

impl ChaosEvent {
    /// Lowers this event to the service layer's event type. Fleet-only
    /// actions ([`ChaosAction::DeviceDown`]/[`ChaosAction::DeviceUp`])
    /// have no single-device equivalent and return `None`.
    pub fn to_service_event(&self) -> Option<ServiceEvent> {
        let at = SimTime::from_ps(self.at_ps);
        Some(match self.action {
            ChaosAction::FailUnit { unit } => ServiceEvent::FailUnit {
                at,
                unit: usize::from(unit),
            },
            ChaosAction::RepairUnit { unit } => ServiceEvent::RepairUnit {
                at,
                unit: usize::from(unit),
            },
            ChaosAction::FailLink { ax, ay, bx, by } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::FailLink {
                    a: NodeId { x: ax, y: ay },
                    b: NodeId { x: bx, y: by },
                },
            },
            ChaosAction::RepairLink { ax, ay, bx, by } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::RepairLink {
                    a: NodeId { x: ax, y: ay },
                    b: NodeId { x: bx, y: by },
                },
            },
            ChaosAction::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::CellFaults {
                    unit: usize::from(unit),
                    rate_ppm,
                    stuck_on_ppm,
                    seed: u64::from(seed),
                },
            },
            ChaosAction::DriftSpike { unit, drift_ppm } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::DriftSpike {
                    unit: usize::from(unit),
                    drift_ppm,
                },
            },
            ChaosAction::Congestion {
                ax,
                ay,
                bx,
                by,
                packets,
                bytes,
            } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::Congestion {
                    from: NodeId { x: ax, y: ay },
                    to: NodeId { x: bx, y: by },
                    packets,
                    bytes,
                },
            },
            ChaosAction::ArrivalBurst { extra } => ServiceEvent::ArrivalBurst { at, extra },
            ChaosAction::ForgeToken { unit } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::TokenForge {
                    unit: usize::from(unit),
                },
            },
            ChaosAction::ReplayToken { unit, age_ps } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::TokenReplay {
                    unit: usize::from(unit),
                    age_ps: u64::from(age_ps),
                },
            },
            ChaosAction::CrossPartitionScan {
                vx,
                vy,
                packets,
                bytes,
            } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::CrossPartitionScan {
                    victim: NodeId { x: vx, y: vy },
                    packets,
                    bytes,
                },
            },
            ChaosAction::HostileSelfProg { seed } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::HostileSelfProg {
                    seed: u64::from(seed),
                },
            },
            ChaosAction::HostileDataflow { seed } => ServiceEvent::Inject {
                at,
                kind: InjectionKind::HostileDataflow {
                    seed: u64::from(seed),
                },
            },
            // Device-local: the device index is already spent (fleet
            // lowering turns a crash into a `FleetEvent::PowerLoss`).
            ChaosAction::PowerLoss {
                restart_after_ps, ..
            } => ServiceEvent::PowerLoss {
                at,
                restart_after: cim_sim::time::SimDuration::from_ps(u64::from(restart_after_ps)),
            },
            ChaosAction::DeviceDown { .. } | ChaosAction::DeviceUp { .. } => return None,
        })
    }

    /// Lowers this event onto an `n_devices`-device fleet with
    /// `units_per_device` micro-units per device. Unit-indexed actions
    /// address the fleet's units linearly (`unit / units_per_device`
    /// picks the device, the remainder is the device-local unit), mesh
    /// coordinate actions hash their coordinates onto a device, and
    /// device actions clamp the index modulo the fleet — so arbitrary
    /// shrunk values always lower to something runnable.
    pub fn to_fleet_event(&self, n_devices: usize, units_per_device: usize) -> FleetEvent {
        let at = SimTime::from_ps(self.at_ps);
        let n = n_devices.max(1);
        let per = units_per_device.max(1);
        let coord_device = |ax: u16, ay: u16, bx: u16, by: u16| {
            (usize::from(ax) + usize::from(ay) + usize::from(bx) + usize::from(by)) % n
        };
        // Unit-indexed actions: split the linear fleet index into a
        // device and a device-local unit, then reuse the single-device
        // lowering on the localized action.
        let localize = |unit: u16, rewrite: &dyn Fn(u16) -> ChaosAction| -> FleetEvent {
            let device = (usize::from(unit) / per) % n;
            let local = (usize::from(unit) % per) as u16;
            let event = ChaosEvent {
                at_ps: self.at_ps,
                action: rewrite(local),
            }
            .to_service_event()
            .expect("unit-indexed actions always lower");
            FleetEvent::Device { device, event }
        };
        match self.action {
            ChaosAction::DeviceDown { device } => FleetEvent::DeviceDown {
                at,
                device: usize::from(device) % n,
            },
            ChaosAction::DeviceUp { device } => FleetEvent::DeviceUp {
                at,
                device: usize::from(device) % n,
            },
            ChaosAction::PowerLoss {
                device,
                restart_after_ps,
            } => FleetEvent::PowerLoss {
                at,
                device: usize::from(device) % n,
                restart_after: cim_sim::time::SimDuration::from_ps(u64::from(restart_after_ps)),
            },
            ChaosAction::FailUnit { unit } => {
                localize(unit, &|unit| ChaosAction::FailUnit { unit })
            }
            ChaosAction::RepairUnit { unit } => {
                localize(unit, &|unit| ChaosAction::RepairUnit { unit })
            }
            ChaosAction::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            } => localize(unit, &|unit| ChaosAction::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            }),
            ChaosAction::DriftSpike { unit, drift_ppm } => {
                localize(unit, &|unit| ChaosAction::DriftSpike { unit, drift_ppm })
            }
            ChaosAction::FailLink { ax, ay, bx, by }
            | ChaosAction::RepairLink { ax, ay, bx, by } => FleetEvent::Device {
                device: coord_device(ax, ay, bx, by),
                event: self.to_service_event().expect("link actions lower"),
            },
            ChaosAction::Congestion { ax, ay, bx, by, .. } => FleetEvent::Device {
                device: coord_device(ax, ay, bx, by),
                event: self.to_service_event().expect("congestion lowers"),
            },
            ChaosAction::ArrivalBurst { extra } => FleetEvent::ArrivalBurst { at, extra },
            ChaosAction::ForgeToken { unit } => {
                localize(unit, &|unit| ChaosAction::ForgeToken { unit })
            }
            ChaosAction::ReplayToken { unit, age_ps } => {
                localize(unit, &|unit| ChaosAction::ReplayToken { unit, age_ps })
            }
            ChaosAction::CrossPartitionScan { vx, vy, .. } => FleetEvent::Device {
                device: coord_device(vx, vy, 0, 0),
                event: self.to_service_event().expect("scan actions lower"),
            },
            ChaosAction::HostileSelfProg { seed } | ChaosAction::HostileDataflow { seed } => {
                FleetEvent::Device {
                    device: seed as usize % n,
                    event: self.to_service_event().expect("hostile programs lower"),
                }
            }
        }
    }
}

/// Shrink an event by pulling its time toward zero or simplifying its
/// action — one axis at a time, so each candidate is strictly smaller.
impl Shrink for ChaosEvent {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for at_ps in self.at_ps.shrink_candidates() {
            out.push(ChaosEvent {
                at_ps,
                action: self.action,
            });
        }
        for action in self.action.shrink_candidates() {
            out.push(ChaosEvent {
                at_ps: self.at_ps,
                action,
            });
        }
        out
    }
}

/// Service-pressure knobs generated alongside the fault events.
///
/// Integers (not floats) so the schedule stays `Eq` and exactly
/// serializable: `rate_x1000` is the offered arrival rate in
/// milli-hertz-per-hertz units (`rate_hz = rate_x1000 / 1000 × base`),
/// `deadline_div` divides the configured base deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pressure {
    /// Offered-rate multiplier, thousandths (1000 = the config's base
    /// rate; 4000 = 4× overload).
    pub rate_x1000: u32,
    /// Deadline divisor (1 = the config's base deadline; 4 = 4× tighter).
    pub deadline_div: u32,
}

impl Default for Pressure {
    fn default() -> Self {
        Pressure {
            rate_x1000: 1000,
            deadline_div: 1,
        }
    }
}

impl Pressure {
    /// Effective offered rate for a configured base rate.
    pub fn rate_hz(&self, base_hz: f64) -> f64 {
        let x = self.rate_x1000.max(1);
        base_hz * f64::from(x) / 1000.0
    }

    /// Effective deadline for a configured base deadline.
    pub fn deadline(&self, base: cim_sim::time::SimDuration) -> cim_sim::time::SimDuration {
        base / u64::from(self.deadline_div.max(1))
    }
}

/// Shrinking pressure relaxes it toward the defaults (rate down to
/// 1000, divisor down to 1) — a minimal reproducer should need as
/// little overload as possible.
impl Shrink for Pressure {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out = Vec::new();
        if self.rate_x1000 > 1000 {
            out.push(Pressure {
                rate_x1000: 1000,
                ..*self
            });
            let half = (self.rate_x1000 / 2).max(1000);
            if half != 1000 {
                out.push(Pressure {
                    rate_x1000: half,
                    ..*self
                });
            }
        }
        if self.deadline_div > 1 {
            out.push(Pressure {
                deadline_div: 1,
                ..*self
            });
            let half = (self.deadline_div / 2).max(1);
            if half != 1 {
                out.push(Pressure {
                    deadline_div: half,
                    ..*self
                });
            }
        }
        out
    }
}

/// A complete chaos schedule: what to inject, when, and under how much
/// service pressure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosSchedule {
    /// Load/deadline pressure for the serving run.
    pub pressure: Pressure,
    /// Fault events, kept sorted by [`ChaosEvent::at_ps`].
    pub events: Vec<ChaosEvent>,
}

impl ChaosSchedule {
    /// An empty schedule at default pressure (the shrinker's floor).
    pub fn empty() -> Self {
        ChaosSchedule {
            pressure: Pressure::default(),
            events: Vec::new(),
        }
    }

    /// Lowers the whole schedule onto an `n_devices` fleet, sorted by
    /// time (see [`ChaosEvent::to_fleet_event`]).
    pub fn to_fleet_events(&self, n_devices: usize, units_per_device: usize) -> Vec<FleetEvent> {
        let mut evs: Vec<FleetEvent> = self
            .events
            .iter()
            .map(|e| e.to_fleet_event(n_devices, units_per_device))
            .collect();
        evs.sort_by_key(FleetEvent::at);
        evs
    }

    /// Whether any event can hard-fail requests (unit/link failures).
    pub fn has_hard_faults(&self) -> bool {
        self.events.iter().any(|e| e.action.is_hard_fault())
    }

    /// Whether any event is a power loss — such schedules are held to
    /// the crash-recovery contract's invariants.
    pub fn has_power_loss(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.action, ChaosAction::PowerLoss { .. }))
    }

    /// Whether any event is an adversarial attack — such schedules are
    /// held to the `iso_*` containment invariants.
    pub fn has_adversarial(&self) -> bool {
        self.events.iter().any(|e| e.action.is_adversarial())
    }
}

/// Shrink the event list (dropping/halving/simplifying events via the
/// `Vec` impl) and the pressure, one axis at a time. Event order within
/// the vector is preserved by every candidate, so lowering stays
/// deterministic.
impl Shrink for ChaosSchedule {
    fn shrink_candidates(&self) -> Vec<Self> {
        let mut out: Vec<ChaosSchedule> = self
            .events
            .shrink_candidates()
            .into_iter()
            .map(|events| ChaosSchedule {
                pressure: self.pressure,
                events,
            })
            .collect();
        for pressure in self.pressure.shrink_candidates() {
            out.push(ChaosSchedule {
                pressure,
                events: self.events.clone(),
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_candidates_preserve_action_kind() {
        let ev = ChaosEvent {
            at_ps: 1_000_000,
            action: ChaosAction::CellFaults {
                unit: 3,
                rate_ppm: 500,
                stuck_on_ppm: 250,
                seed: 42,
            },
        };
        for cand in ev.shrink_candidates() {
            assert_eq!(cand.action.kind_name(), "cell_faults");
        }
    }

    #[test]
    fn power_loss_shrinks_kind_preserving_and_lowers_everywhere() {
        let ev = ChaosEvent {
            at_ps: 2_000_000,
            action: ChaosAction::PowerLoss {
                device: 3,
                restart_after_ps: 5_000_000,
            },
        };
        for cand in ev.shrink_candidates() {
            assert_eq!(cand.action.kind_name(), "power_loss");
        }
        assert!(ev.action.is_hard_fault());
        // Crashes lower on both harnesses: the single device crashes
        // (index ignored), the fleet clamps the index.
        match ev.to_service_event() {
            Some(ServiceEvent::PowerLoss { restart_after, .. }) => {
                assert_eq!(restart_after.as_ps(), 5_000_000);
            }
            other => panic!("unexpected lowering: {other:?}"),
        }
        assert!(matches!(
            ev.to_fleet_event(2, 16),
            FleetEvent::PowerLoss { device: 1, .. }
        ));
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![ev],
        };
        assert!(sched.has_power_loss());
        assert!(!ChaosSchedule::empty().has_power_loss());
    }

    #[test]
    fn adversarial_actions_shrink_kind_preserving_and_lower_everywhere() {
        let actions = [
            ChaosAction::ForgeToken { unit: 9 },
            ChaosAction::ReplayToken {
                unit: 9,
                age_ps: 60_000_000,
            },
            ChaosAction::CrossPartitionScan {
                vx: 3,
                vy: 1,
                packets: 4,
                bytes: 64,
            },
            ChaosAction::HostileSelfProg { seed: 7 },
            ChaosAction::HostileDataflow { seed: 7 },
        ];
        for action in actions {
            assert!(action.is_adversarial());
            assert!(
                !action.is_hard_fault(),
                "contained attacks never fail innocent requests"
            );
            let ev = ChaosEvent { at_ps: 5, action };
            for cand in ev.shrink_candidates() {
                assert_eq!(cand.action.kind_name(), action.kind_name());
            }
            assert!(ev.to_service_event().is_some(), "attacks lower everywhere");
            let _ = ev.to_fleet_event(4, 16);
        }
        // Unit-indexed attacks localize like any other unit action.
        let ev = ChaosEvent {
            at_ps: 5,
            action: ChaosAction::ForgeToken { unit: 21 },
        };
        match ev.to_fleet_event(4, 16) {
            FleetEvent::Device { device, .. } => assert_eq!(device, 1),
            other => panic!("unexpected lowering: {other:?}"),
        }
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![ChaosEvent {
                at_ps: 5,
                action: ChaosAction::ForgeToken { unit: 0 },
            }],
        };
        assert!(sched.has_adversarial());
        assert!(!sched.has_hard_faults());
        assert!(!ChaosSchedule::empty().has_adversarial());
    }

    #[test]
    fn schedule_shrinks_toward_empty() {
        let sched = ChaosSchedule {
            pressure: Pressure {
                rate_x1000: 4000,
                deadline_div: 2,
            },
            events: vec![
                ChaosEvent {
                    at_ps: 10,
                    action: ChaosAction::FailUnit { unit: 1 },
                },
                ChaosEvent {
                    at_ps: 20,
                    action: ChaosAction::ArrivalBurst { extra: 8 },
                },
            ],
        };
        let cands = sched.shrink_candidates();
        assert!(cands.iter().any(|c| c.events.is_empty()));
        assert!(cands.iter().any(|c| c.pressure == Pressure::default()
            || c.pressure.rate_x1000 == 1000
            || c.pressure.deadline_div == 1));
    }

    #[test]
    fn lowering_is_sorted_and_total() {
        let sched = ChaosSchedule {
            pressure: Pressure::default(),
            events: vec![
                ChaosEvent {
                    at_ps: 500,
                    action: ChaosAction::Congestion {
                        ax: 0,
                        ay: 0,
                        bx: 1,
                        by: 0,
                        packets: 4,
                        bytes: 64,
                    },
                },
                ChaosEvent {
                    at_ps: 100,
                    action: ChaosAction::FailLink {
                        ax: 0,
                        ay: 0,
                        bx: 0,
                        by: 1,
                    },
                },
            ],
        };
        let evs = sched.to_fleet_events(1, 16);
        assert_eq!(evs.len(), 2);
        assert!(evs.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn fleet_lowering_splits_units_and_clamps_devices() {
        // Linear unit 21 on 16-unit devices → device 1, local unit 5.
        let ev = ChaosEvent {
            at_ps: 7,
            action: ChaosAction::FailUnit { unit: 21 },
        };
        match ev.to_fleet_event(4, 16) {
            FleetEvent::Device {
                device,
                event: ServiceEvent::FailUnit { unit, .. },
            } => {
                assert_eq!(device, 1);
                assert_eq!(unit, 5);
            }
            other => panic!("unexpected lowering: {other:?}"),
        }
        // Shrunk/arbitrary device indices clamp onto the fleet.
        let down = ChaosEvent {
            at_ps: 7,
            action: ChaosAction::DeviceDown { device: 9 },
        };
        assert!(matches!(
            down.to_fleet_event(4, 16),
            FleetEvent::DeviceDown { device: 1, .. }
        ));
        // Device outages have no single-device lowering.
        assert!(down.to_service_event().is_none());
        assert!(down.action.is_hard_fault());
    }
}
