//! Chaos schedules: the shrinkable fault-event grammar.
//!
//! A schedule is plain data — flat `Copy` events with picosecond
//! timestamps plus two pressure knobs — deliberately decoupled from
//! `cim_fabric`'s [`FleetEvent`] so it can implement the in-tree
//! [`Shrink`] trait (the orphan rule forbids implementing `cim_sim`'s
//! trait for `cim_fabric`'s type) and serialize to one JSON line per
//! event. Each action's fields are listed once, by
//! [`ChaosAction::fields`] and [`ChaosAction::from_fields`]; shrinking
//! and the replay file both go through that list.
//! [`ChaosSchedule::to_fleet_events`] lowers a schedule onto the
//! fabric's event machinery at run time, building each [`FleetEvent`]
//! directly (device-local actions as [`FleetEvent::Inject`]); a
//! single-device harness is a fleet of one.

use cim_fabric::engine::InjectionKind;
use cim_fabric::fleet::FleetEvent;
use cim_noc::packet::NodeId;
use cim_sim::prop::Shrink;
use cim_sim::time::{SimDuration, SimTime};

/// One layer-spanning fault action, with all coordinates flattened to
/// integers so the whole event is `Copy + Eq` and trivially shrinkable
/// and serializable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Hard-fail micro-unit `unit` (indices past the fleet's units wrap
    /// onto it when lowered — shrinking stays safe).
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
    /// Whole-device outage (generated for fleet runs only): device
    /// `device` is fenced from routing and every request caught on it
    /// fails over. On a single-device harness it lowers to an outage of
    /// device 0.
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
    /// programs survive). On a single-device harness the one device
    /// crashes, whatever the index.
    PowerLoss {
        /// Fleet device index, modulo the fleet.
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

    /// The action's fields in replay-file order, each widened to `u64`.
    /// This list and [`ChaosAction::from_fields`] are the one place an
    /// action's fields are spelled: the replay file renders this list,
    /// and shrinking rebuilds the action from it one field at a time.
    pub fn fields(&self) -> Vec<(&'static str, u64)> {
        match *self {
            ChaosAction::FailUnit { unit }
            | ChaosAction::RepairUnit { unit }
            | ChaosAction::ForgeToken { unit } => vec![("unit", unit.into())],
            ChaosAction::FailLink { ax, ay, bx, by }
            | ChaosAction::RepairLink { ax, ay, bx, by } => {
                vec![
                    ("ax", ax.into()),
                    ("ay", ay.into()),
                    ("bx", bx.into()),
                    ("by", by.into()),
                ]
            }
            ChaosAction::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            } => vec![
                ("unit", unit.into()),
                ("rate_ppm", rate_ppm.into()),
                ("stuck_on_ppm", stuck_on_ppm.into()),
                ("seed", seed.into()),
            ],
            ChaosAction::DriftSpike { unit, drift_ppm } => {
                vec![("unit", unit.into()), ("drift_ppm", drift_ppm.into())]
            }
            ChaosAction::Congestion {
                ax,
                ay,
                bx,
                by,
                packets,
                bytes,
            } => vec![
                ("ax", ax.into()),
                ("ay", ay.into()),
                ("bx", bx.into()),
                ("by", by.into()),
                ("packets", packets.into()),
                ("bytes", bytes.into()),
            ],
            ChaosAction::ArrivalBurst { extra } => vec![("extra", extra.into())],
            ChaosAction::DeviceDown { device } | ChaosAction::DeviceUp { device } => {
                vec![("device", device.into())]
            }
            ChaosAction::PowerLoss {
                device,
                restart_after_ps,
            } => vec![
                ("device", device.into()),
                ("restart_after_ps", restart_after_ps.into()),
            ],
            ChaosAction::ReplayToken { unit, age_ps } => {
                vec![("unit", unit.into()), ("age_ps", age_ps.into())]
            }
            ChaosAction::CrossPartitionScan {
                vx,
                vy,
                packets,
                bytes,
            } => vec![
                ("vx", vx.into()),
                ("vy", vy.into()),
                ("packets", packets.into()),
                ("bytes", bytes.into()),
            ],
            ChaosAction::HostileSelfProg { seed } | ChaosAction::HostileDataflow { seed } => {
                vec![("seed", seed.into())]
            }
        }
    }

    /// Builds the action named `kind` (a [`ChaosAction::kind_name`]),
    /// reading each of its fields through `field`.
    ///
    /// # Errors
    ///
    /// An unknown kind, the first error `field` returns, or a value too
    /// wide for its field (`field "x" exceeds u16`).
    pub fn from_fields(
        kind: &str,
        mut field: impl FnMut(&str) -> Result<u64, String>,
    ) -> Result<ChaosAction, String> {
        let f = &mut field;
        Ok(match kind {
            "fail_unit" => ChaosAction::FailUnit {
                unit: narrow(f, "unit")?,
            },
            "repair_unit" => ChaosAction::RepairUnit {
                unit: narrow(f, "unit")?,
            },
            "fail_link" => ChaosAction::FailLink {
                ax: narrow(f, "ax")?,
                ay: narrow(f, "ay")?,
                bx: narrow(f, "bx")?,
                by: narrow(f, "by")?,
            },
            "repair_link" => ChaosAction::RepairLink {
                ax: narrow(f, "ax")?,
                ay: narrow(f, "ay")?,
                bx: narrow(f, "bx")?,
                by: narrow(f, "by")?,
            },
            "cell_faults" => ChaosAction::CellFaults {
                unit: narrow(f, "unit")?,
                rate_ppm: narrow(f, "rate_ppm")?,
                stuck_on_ppm: narrow(f, "stuck_on_ppm")?,
                seed: narrow(f, "seed")?,
            },
            "drift_spike" => ChaosAction::DriftSpike {
                unit: narrow(f, "unit")?,
                drift_ppm: narrow(f, "drift_ppm")?,
            },
            "congestion" => ChaosAction::Congestion {
                ax: narrow(f, "ax")?,
                ay: narrow(f, "ay")?,
                bx: narrow(f, "bx")?,
                by: narrow(f, "by")?,
                packets: narrow(f, "packets")?,
                bytes: narrow(f, "bytes")?,
            },
            "arrival_burst" => ChaosAction::ArrivalBurst {
                extra: narrow(f, "extra")?,
            },
            "device_down" => ChaosAction::DeviceDown {
                device: narrow(f, "device")?,
            },
            "device_up" => ChaosAction::DeviceUp {
                device: narrow(f, "device")?,
            },
            "power_loss" => ChaosAction::PowerLoss {
                device: narrow(f, "device")?,
                restart_after_ps: narrow(f, "restart_after_ps")?,
            },
            "forge_token" => ChaosAction::ForgeToken {
                unit: narrow(f, "unit")?,
            },
            "replay_token" => ChaosAction::ReplayToken {
                unit: narrow(f, "unit")?,
                age_ps: narrow(f, "age_ps")?,
            },
            "cross_partition_scan" => ChaosAction::CrossPartitionScan {
                vx: narrow(f, "vx")?,
                vy: narrow(f, "vy")?,
                packets: narrow(f, "packets")?,
                bytes: narrow(f, "bytes")?,
            },
            "hostile_self_prog" => ChaosAction::HostileSelfProg {
                seed: narrow(f, "seed")?,
            },
            "hostile_dataflow" => ChaosAction::HostileDataflow {
                seed: narrow(f, "seed")?,
            },
            other => return Err(format!("unknown event kind {other:?}")),
        })
    }
}

/// Reads field `key` through `field` and narrows it to the field's
/// integer type, refusing a value past that type's width.
fn narrow<T: TryFrom<u64>>(
    field: &mut impl FnMut(&str) -> Result<u64, String>,
    key: &str,
) -> Result<T, String> {
    T::try_from(field(key)?)
        .map_err(|_| format!("field \"{key}\" exceeds u{}", 8 * std::mem::size_of::<T>()))
}

/// Shrinking an action reduces its numeric fields toward zero but never
/// changes its kind: a minimal reproducer should keep the *shape* of
/// the failure while shedding incidental magnitude. Fields shrink one
/// at a time, in [`ChaosAction::fields`] order.
impl Shrink for ChaosAction {
    fn shrink_candidates(&self) -> Vec<Self> {
        let fields = self.fields();
        let mut out = Vec::new();
        for (i, &(_, value)) in fields.iter().enumerate() {
            for smaller in value.shrink_candidates() {
                let mut shrunk = fields.clone();
                shrunk[i].1 = smaller;
                let action = ChaosAction::from_fields(self.kind_name(), |key| {
                    shrunk
                        .iter()
                        .find(|&&(name, _)| name == key)
                        .map(|&(_, v)| v)
                        .ok_or_else(|| format!("no field \"{key}\""))
                });
                out.push(action.expect("a smaller field value fits its width"));
            }
        }
        out
    }
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
    /// Lowers this event onto an `n_devices`-device fleet with
    /// `units_per_device` micro-units per device. Unit-indexed actions
    /// address the fleet's units linearly (`unit / units_per_device`
    /// picks the device, the remainder is the device-local unit), mesh
    /// coordinate actions hash their coordinates onto a device, and
    /// device actions clamp the index modulo the fleet — so arbitrary
    /// shrunk values always lower to something runnable. A
    /// single-device harness is a fleet of one: everything lands on
    /// device 0.
    pub fn to_fleet_event(&self, n_devices: usize, units_per_device: usize) -> FleetEvent {
        let at = SimTime::from_ps(self.at_ps);
        let n = n_devices.max(1);
        let per = units_per_device.max(1);
        let node = |x: u16, y: u16| NodeId { x, y };
        let unit_device = |unit: u16| (usize::from(unit) / per) % n;
        let local = |unit: u16| usize::from(unit) % per;
        let coord_device =
            |coords: [u16; 4]| coords.into_iter().map(usize::from).sum::<usize>() % n;
        let inject = |device: usize, kind: InjectionKind| FleetEvent::Inject { at, device, kind };
        match self.action {
            ChaosAction::FailUnit { unit } => inject(
                unit_device(unit),
                InjectionKind::FailUnit { unit: local(unit) },
            ),
            ChaosAction::RepairUnit { unit } => inject(
                unit_device(unit),
                InjectionKind::RepairUnit { unit: local(unit) },
            ),
            ChaosAction::FailLink { ax, ay, bx, by } => inject(
                coord_device([ax, ay, bx, by]),
                InjectionKind::FailLink {
                    a: node(ax, ay),
                    b: node(bx, by),
                },
            ),
            ChaosAction::RepairLink { ax, ay, bx, by } => inject(
                coord_device([ax, ay, bx, by]),
                InjectionKind::RepairLink {
                    a: node(ax, ay),
                    b: node(bx, by),
                },
            ),
            ChaosAction::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            } => inject(
                unit_device(unit),
                InjectionKind::CellFaults {
                    unit: local(unit),
                    rate_ppm,
                    stuck_on_ppm,
                    seed: u64::from(seed),
                },
            ),
            ChaosAction::DriftSpike { unit, drift_ppm } => inject(
                unit_device(unit),
                InjectionKind::DriftSpike {
                    unit: local(unit),
                    drift_ppm,
                },
            ),
            ChaosAction::Congestion {
                ax,
                ay,
                bx,
                by,
                packets,
                bytes,
            } => inject(
                coord_device([ax, ay, bx, by]),
                InjectionKind::Congestion {
                    from: node(ax, ay),
                    to: node(bx, by),
                    packets,
                    bytes,
                },
            ),
            ChaosAction::ArrivalBurst { extra } => FleetEvent::ArrivalBurst { at, extra },
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
                restart_after: SimDuration::from_ps(u64::from(restart_after_ps)),
            },
            ChaosAction::ForgeToken { unit } => inject(
                unit_device(unit),
                InjectionKind::TokenForge { unit: local(unit) },
            ),
            ChaosAction::ReplayToken { unit, age_ps } => inject(
                unit_device(unit),
                InjectionKind::TokenReplay {
                    unit: local(unit),
                    age_ps: u64::from(age_ps),
                },
            ),
            ChaosAction::CrossPartitionScan {
                vx,
                vy,
                packets,
                bytes,
            } => inject(
                coord_device([vx, vy, 0, 0]),
                InjectionKind::CrossPartitionScan {
                    victim: node(vx, vy),
                    packets,
                    bytes,
                },
            ),
            ChaosAction::HostileSelfProg { seed } => inject(
                seed as usize % n,
                InjectionKind::HostileSelfProg {
                    seed: u64::from(seed),
                },
            ),
            ChaosAction::HostileDataflow { seed } => inject(
                seed as usize % n,
                InjectionKind::HostileDataflow {
                    seed: u64::from(seed),
                },
            ),
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
    use cim_sim::prop::{check, PropConfig};
    use cim_sim::rng::Rng;
    use cim_sim::{prop_assert, prop_assert_eq};

    /// A random action, its kind uniform over all 16 and every field
    /// drawn over its whole width.
    fn random_action(rng: &mut impl Rng) -> ChaosAction {
        match rng.gen_range(0u32..16) {
            0 => ChaosAction::FailUnit { unit: rng.gen() },
            1 => ChaosAction::RepairUnit { unit: rng.gen() },
            2 => ChaosAction::FailLink {
                ax: rng.gen(),
                ay: rng.gen(),
                bx: rng.gen(),
                by: rng.gen(),
            },
            3 => ChaosAction::RepairLink {
                ax: rng.gen(),
                ay: rng.gen(),
                bx: rng.gen(),
                by: rng.gen(),
            },
            4 => ChaosAction::CellFaults {
                unit: rng.gen(),
                rate_ppm: rng.gen(),
                stuck_on_ppm: rng.gen(),
                seed: rng.gen(),
            },
            5 => ChaosAction::DriftSpike {
                unit: rng.gen(),
                drift_ppm: rng.gen(),
            },
            6 => ChaosAction::Congestion {
                ax: rng.gen(),
                ay: rng.gen(),
                bx: rng.gen(),
                by: rng.gen(),
                packets: rng.gen(),
                bytes: rng.gen(),
            },
            7 => ChaosAction::ArrivalBurst { extra: rng.gen() },
            8 => ChaosAction::DeviceDown { device: rng.gen() },
            9 => ChaosAction::DeviceUp { device: rng.gen() },
            10 => ChaosAction::PowerLoss {
                device: rng.gen(),
                restart_after_ps: rng.gen(),
            },
            11 => ChaosAction::ForgeToken { unit: rng.gen() },
            12 => ChaosAction::ReplayToken {
                unit: rng.gen(),
                age_ps: rng.gen(),
            },
            13 => ChaosAction::CrossPartitionScan {
                vx: rng.gen(),
                vy: rng.gen(),
                packets: rng.gen(),
                bytes: rng.gen(),
            },
            14 => ChaosAction::HostileSelfProg { seed: rng.gen() },
            _ => ChaosAction::HostileDataflow { seed: rng.gen() },
        }
    }

    #[test]
    fn field_lists_rebuild_every_action_and_shrink_one_field_at_a_time() {
        check(
            "fields rebuild the action; a shrink lowers one field",
            &PropConfig::cases(512),
            random_action,
            |action| {
                let fields = action.fields();
                let rebuilt = ChaosAction::from_fields(action.kind_name(), |key| {
                    fields
                        .iter()
                        .find(|&&(name, _)| name == key)
                        .map(|&(_, v)| v)
                        .ok_or_else(|| format!("no field {key:?}"))
                })?;
                prop_assert_eq!(rebuilt, *action);
                for cand in action.shrink_candidates() {
                    prop_assert_eq!(cand.kind_name(), action.kind_name());
                    let shrunk = cand.fields();
                    let changed: Vec<usize> = (0..fields.len())
                        .filter(|&i| shrunk[i] != fields[i])
                        .collect();
                    prop_assert!(
                        changed.len() == 1 && shrunk[changed[0]].1 < fields[changed[0]].1,
                        "{cand:?} must lower exactly one field of {action:?}"
                    );
                }
                Ok(())
            },
        );
        // A value one past its field's width is refused, naming the
        // field and the width; the widest value that fits is accepted.
        let one_field = |kind: &str, key: &'static str, v: u64| {
            ChaosAction::from_fields(kind, |k| Ok(if k == key { v } else { 0 }))
        };
        assert_eq!(
            one_field("fail_unit", "unit", 65_536),
            Err("field \"unit\" exceeds u16".to_owned())
        );
        assert_eq!(
            one_field("fail_unit", "unit", 65_535),
            Ok(ChaosAction::FailUnit { unit: u16::MAX })
        );
        assert_eq!(
            one_field("drift_spike", "drift_ppm", 1 << 32),
            Err("field \"drift_ppm\" exceeds u32".to_owned())
        );
        assert_eq!(
            one_field("drift_spike", "drift_ppm", u64::from(u32::MAX)),
            Ok(ChaosAction::DriftSpike {
                unit: 0,
                drift_ppm: u32::MAX,
            })
        );
        assert_eq!(
            ChaosAction::from_fields("meteor_strike", |_| Ok(0)),
            Err("unknown event kind \"meteor_strike\"".to_owned())
        );
    }

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
        match ev.to_fleet_event(1, 16) {
            FleetEvent::PowerLoss {
                device: 0,
                restart_after,
                ..
            } => {
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
            assert!(
                matches!(
                    ev.to_fleet_event(1, 16),
                    FleetEvent::Inject { device: 0, .. }
                ),
                "attacks lower everywhere"
            );
            let _ = ev.to_fleet_event(4, 16);
        }
        // Unit-indexed attacks localize like any other unit action.
        let ev = ChaosEvent {
            at_ps: 5,
            action: ChaosAction::ForgeToken { unit: 21 },
        };
        match ev.to_fleet_event(4, 16) {
            FleetEvent::Inject { device, .. } => assert_eq!(device, 1),
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
            FleetEvent::Inject {
                device,
                kind: InjectionKind::FailUnit { unit },
                ..
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
        // On a single device, an outage fences device 0.
        assert!(matches!(
            down.to_fleet_event(1, 16),
            FleetEvent::DeviceDown { device: 0, .. }
        ));
        assert!(down.action.is_hard_fault());
    }

    #[test]
    fn lowering_pins_every_kind_on_one_and_four_devices() {
        use cim_sim::time::SimDuration;
        let at = SimTime::from_ps(7);
        let max = u16::MAX;
        let node = |x: u16, y: u16| NodeId { x, y };
        let inject = |device: usize, kind: InjectionKind| FleetEvent::Inject { at, device, kind };
        // (action, lowering on 1 device, lowering on 4 devices), 16
        // units per device; one row per action kind. Linear unit u
        // lands on device (u / 16) % n as local unit u % 16; mesh
        // coordinates pick device (sum of coordinates) % n; device
        // indices wrap modulo n.
        let cases = [
            (
                ChaosAction::FailUnit { unit: 21 },
                inject(0, InjectionKind::FailUnit { unit: 5 }),
                inject(1, InjectionKind::FailUnit { unit: 5 }),
            ),
            (
                ChaosAction::RepairUnit { unit: max },
                inject(0, InjectionKind::RepairUnit { unit: 15 }),
                inject(3, InjectionKind::RepairUnit { unit: 15 }),
            ),
            (
                ChaosAction::FailLink {
                    ax: 7,
                    ay: 0,
                    bx: 300,
                    by: max,
                },
                inject(
                    0,
                    InjectionKind::FailLink {
                        a: node(7, 0),
                        b: node(300, max),
                    },
                ),
                inject(
                    2,
                    InjectionKind::FailLink {
                        a: node(7, 0),
                        b: node(300, max),
                    },
                ),
            ),
            (
                ChaosAction::RepairLink {
                    ax: 4,
                    ay: 3,
                    bx: 5,
                    by: 3,
                },
                inject(
                    0,
                    InjectionKind::RepairLink {
                        a: node(4, 3),
                        b: node(5, 3),
                    },
                ),
                inject(
                    3,
                    InjectionKind::RepairLink {
                        a: node(4, 3),
                        b: node(5, 3),
                    },
                ),
            ),
            (
                ChaosAction::CellFaults {
                    unit: 0,
                    rate_ppm: u32::MAX,
                    stuck_on_ppm: 1,
                    seed: u32::MAX,
                },
                inject(
                    0,
                    InjectionKind::CellFaults {
                        unit: 0,
                        rate_ppm: u32::MAX,
                        stuck_on_ppm: 1,
                        seed: u64::from(u32::MAX),
                    },
                ),
                inject(
                    0,
                    InjectionKind::CellFaults {
                        unit: 0,
                        rate_ppm: u32::MAX,
                        stuck_on_ppm: 1,
                        seed: u64::from(u32::MAX),
                    },
                ),
            ),
            (
                ChaosAction::DriftSpike {
                    unit: max,
                    drift_ppm: 250,
                },
                inject(
                    0,
                    InjectionKind::DriftSpike {
                        unit: 15,
                        drift_ppm: 250,
                    },
                ),
                inject(
                    3,
                    InjectionKind::DriftSpike {
                        unit: 15,
                        drift_ppm: 250,
                    },
                ),
            ),
            (
                ChaosAction::Congestion {
                    ax: 9,
                    ay: 9,
                    bx: max,
                    by: 0,
                    packets: max,
                    bytes: 0,
                },
                inject(
                    0,
                    InjectionKind::Congestion {
                        from: node(9, 9),
                        to: node(max, 0),
                        packets: max,
                        bytes: 0,
                    },
                ),
                inject(
                    1,
                    InjectionKind::Congestion {
                        from: node(9, 9),
                        to: node(max, 0),
                        packets: max,
                        bytes: 0,
                    },
                ),
            ),
            (
                ChaosAction::ArrivalBurst { extra: max },
                FleetEvent::ArrivalBurst { at, extra: max },
                FleetEvent::ArrivalBurst { at, extra: max },
            ),
            (
                ChaosAction::DeviceDown { device: 9 },
                FleetEvent::DeviceDown { at, device: 0 },
                FleetEvent::DeviceDown { at, device: 1 },
            ),
            (
                ChaosAction::DeviceUp { device: 9 },
                FleetEvent::DeviceUp { at, device: 0 },
                FleetEvent::DeviceUp { at, device: 1 },
            ),
            (
                ChaosAction::PowerLoss {
                    device: 9,
                    restart_after_ps: u32::MAX,
                },
                FleetEvent::PowerLoss {
                    at,
                    device: 0,
                    restart_after: SimDuration::from_ps(u64::from(u32::MAX)),
                },
                FleetEvent::PowerLoss {
                    at,
                    device: 1,
                    restart_after: SimDuration::from_ps(u64::from(u32::MAX)),
                },
            ),
            (
                ChaosAction::ForgeToken { unit: 21 },
                inject(0, InjectionKind::TokenForge { unit: 5 }),
                inject(1, InjectionKind::TokenForge { unit: 5 }),
            ),
            (
                ChaosAction::ReplayToken {
                    unit: 0,
                    age_ps: u32::MAX,
                },
                inject(
                    0,
                    InjectionKind::TokenReplay {
                        unit: 0,
                        age_ps: u64::from(u32::MAX),
                    },
                ),
                inject(
                    0,
                    InjectionKind::TokenReplay {
                        unit: 0,
                        age_ps: u64::from(u32::MAX),
                    },
                ),
            ),
            (
                ChaosAction::CrossPartitionScan {
                    vx: 6,
                    vy: max,
                    packets: 3,
                    bytes: 64,
                },
                inject(
                    0,
                    InjectionKind::CrossPartitionScan {
                        victim: node(6, max),
                        packets: 3,
                        bytes: 64,
                    },
                ),
                inject(
                    1,
                    InjectionKind::CrossPartitionScan {
                        victim: node(6, max),
                        packets: 3,
                        bytes: 64,
                    },
                ),
            ),
            (
                ChaosAction::HostileSelfProg { seed: u32::MAX },
                inject(
                    0,
                    InjectionKind::HostileSelfProg {
                        seed: u64::from(u32::MAX),
                    },
                ),
                inject(
                    3,
                    InjectionKind::HostileSelfProg {
                        seed: u64::from(u32::MAX),
                    },
                ),
            ),
            (
                ChaosAction::HostileDataflow { seed: 6 },
                inject(0, InjectionKind::HostileDataflow { seed: 6 }),
                inject(2, InjectionKind::HostileDataflow { seed: 6 }),
            ),
        ];
        let mut kinds: Vec<&str> = cases.iter().map(|(a, ..)| a.kind_name()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 16, "one row per action kind");
        for (action, one, four) in cases {
            let ev = ChaosEvent { at_ps: 7, action };
            assert_eq!(ev.to_fleet_event(1, 16), one, "{action:?} on 1 device");
            assert_eq!(ev.to_fleet_event(4, 16), four, "{action:?} on 4 devices");
        }
    }
}
