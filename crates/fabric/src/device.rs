//! The CIM device: a mesh of tiles of micro-units plus the interconnect.
//!
//! This is the paper's Fig 5 hierarchy made concrete: micro-units grouped
//! into tiles, tiles arranged in a 2-D mesh, packets between them carried
//! by [`cim_noc::NocNetwork`]. The device owns the global energy meter
//! every experiment reads.

use crate::config::FabricConfig;
use crate::error::{FabricError, Result};
use crate::security::{AdversaryState, AttackLog, ADVERSARY_DOMAIN};
use crate::unit::{MicroUnit, UnitHealth};
use cim_noc::network::NocNetwork;
use cim_noc::packet::NodeId;
use cim_sim::energy::EnergyMeter;
use cim_sim::rng::splitmix64;
use cim_sim::telemetry::{ComponentId, Telemetry, TelemetryLevel};
use cim_sim::time::SimDuration;
use cim_sim::SeedTree;

/// A complete CIM device.
///
/// # Examples
///
/// ```
/// use cim_fabric::config::FabricConfig;
/// use cim_fabric::device::CimDevice;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let device = CimDevice::new(FabricConfig::default())?;
/// assert_eq!(device.units().len(), 64);
/// assert_eq!(device.healthy_unit_count(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CimDevice {
    config: FabricConfig,
    noc: NocNetwork,
    units: Vec<MicroUnit>,
    seeds: SeedTree,
    meter: EnergyMeter,
    next_packet_id: u64,
    telemetry: Telemetry,
    tel_engine: ComponentId,
    tel_runtime: ComponentId,
    tel_noc: ComponentId,
    /// Armed-adversary state (compromised tile, token authority, attack
    /// ledger) — `None` unless a chaos harness armed the device.
    adversary: Option<AdversaryState>,
}

impl CimDevice {
    /// Builds a device from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] (or a wrapped layer error)
    /// if the configuration is unusable.
    pub fn new(config: FabricConfig) -> Result<Self> {
        config.validate()?;
        let mut noc = NocNetwork::new(config.mesh_width, config.mesh_height, config.seed)
            .map_err(FabricError::from)?;
        noc.set_encryption(config.encryption);
        noc.set_mode(config.sim_mode);
        let mut units = Vec::with_capacity(config.total_units());
        for y in 0..config.mesh_height {
            for x in 0..config.mesh_width {
                for _ in 0..config.units_per_tile {
                    let index = units.len();
                    units.push(MicroUnit::new(index, NodeId::new(x as u16, y as u16)));
                }
            }
        }
        Ok(CimDevice {
            seeds: SeedTree::new(config.seed),
            config,
            noc,
            units,
            meter: EnergyMeter::new(),
            next_packet_id: 0,
            telemetry: Telemetry::disabled(),
            tel_engine: ComponentId::NONE,
            tel_runtime: ComponentId::NONE,
            tel_noc: ComponentId::NONE,
            adversary: None,
        })
    }

    /// Enables telemetry at `level` for the whole device: the stream
    /// engine, the runtime, the NoC (under `noc/…`) and every micro-unit
    /// (under `tile(x,y)/mu{i}/…`). Returns the shared handle, which stays
    /// live after the device is dropped.
    pub fn enable_telemetry(&mut self, level: TelemetryLevel) -> Telemetry {
        let t = Telemetry::new(level);
        self.install_telemetry(&t);
        t
    }

    /// Installs an existing telemetry handle (e.g. one sink shared across
    /// devices). All component ids are interned up front so the hot paths
    /// do no string work.
    pub fn install_telemetry(&mut self, t: &Telemetry) {
        self.telemetry = t.clone();
        self.tel_engine = t.component("engine");
        self.tel_runtime = t.component("runtime");
        self.tel_noc = t.component("noc");
        self.noc.attach_telemetry(t, "noc");
        for u in &mut self.units {
            u.attach_telemetry(t);
        }
    }

    /// The device telemetry handle (disabled unless
    /// [`enable_telemetry`](Self::enable_telemetry) was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub(crate) fn engine_component(&self) -> ComponentId {
        self.tel_engine
    }

    pub(crate) fn runtime_component(&self) -> ComponentId {
        self.tel_runtime
    }

    pub(crate) fn noc_component(&self) -> ComponentId {
        self.tel_noc
    }

    /// Fault→recovery latencies, one per recovery, oldest first: each
    /// `recovery` span runs from the fault's detection window to replay
    /// readiness. Spans are recorded only at [`TelemetryLevel::Full`];
    /// below that this is empty. The spans live on the host-side
    /// telemetry, so recoveries before a power loss are still reported
    /// after it.
    pub fn recovery_latencies(&self) -> Vec<SimDuration> {
        self.telemetry
            .completed_spans("recovery")
            .iter()
            .filter_map(|s| s.duration())
            .collect()
    }

    /// The device configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// All micro-units, device-index order.
    pub fn units(&self) -> &[MicroUnit] {
        &self.units
    }

    /// One micro-unit.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn unit(&self, index: usize) -> &MicroUnit {
        &self.units[index]
    }

    /// One micro-unit, mutable.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn unit_mut(&mut self, index: usize) -> &mut MicroUnit {
        &mut self.units[index]
    }

    /// Units and NoC together (the executor needs both mutably).
    pub(crate) fn units_and_noc_mut(&mut self) -> (&mut Vec<MicroUnit>, &mut NocNetwork) {
        (&mut self.units, &mut self.noc)
    }

    /// Number of units currently healthy.
    pub fn healthy_unit_count(&self) -> usize {
        self.units
            .iter()
            .filter(|u| u.health() == UnitHealth::Healthy)
            .count()
    }

    /// The interconnect, read-only.
    pub fn noc(&self) -> &NocNetwork {
        &self.noc
    }

    /// The interconnect, mutable (link faults, isolation policy).
    pub fn noc_mut(&mut self) -> &mut NocNetwork {
        &mut self.noc
    }

    /// The device seed tree (deriving per-component streams).
    pub fn seeds(&self) -> SeedTree {
        self.seeds
    }

    /// Energy accounting across all subsystems.
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Energy accounting, mutable (executors charge here).
    pub fn meter_mut(&mut self) -> &mut EnergyMeter {
        &mut self.meter
    }

    /// Allocates a unique packet id.
    pub fn next_packet_id(&mut self) -> u64 {
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        id
    }

    /// Injects a hard fault into a unit (§V.A fault injection).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn fail_unit(&mut self, unit: usize) {
        self.units[unit].set_health(UnitHealth::Failed);
    }

    /// Administratively fences a unit (containment, §V.A).
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn disable_unit(&mut self, unit: usize) {
        self.units[unit].set_health(UnitHealth::Disabled);
    }

    /// Arms a compromised tile for the adversarial chaos campaigns, at
    /// boot: every unit on `tile` is fenced (the mapper never places an
    /// innocent tenant there) and the tile is assigned to
    /// [`ADVERSARY_DOMAIN`] on the NoC isolation policy, so every packet
    /// it originates or attracts crosses a domain boundary. Returns the
    /// fenced unit indices — the only units inside the adversary's
    /// legitimate blast radius.
    ///
    /// Arming is nonvolatile: `NocNetwork::reset` keeps the policy and
    /// fenced health survives the persist/restore pass, so a power cycle
    /// neither frees the tile nor clears the [`AttackLog`].
    pub fn arm_adversary(&mut self, tile: NodeId) -> Vec<usize> {
        let fenced = self.units_on_tile(tile);
        for &u in &fenced {
            self.disable_unit(u);
        }
        self.noc.policy_mut().assign(tile, ADVERSARY_DOMAIN);
        let secret = splitmix64(self.config.seed ^ 0xAD5E_C0DE);
        self.adversary = Some(AdversaryState::new(tile, secret));
        fenced
    }

    /// The compromised tile, if the device is armed.
    pub fn adversary_tile(&self) -> Option<NodeId> {
        self.adversary.as_ref().map(|a| a.tile)
    }

    /// The attack verdict ledger, if the device is armed.
    pub fn attack_log(&self) -> Option<&AttackLog> {
        self.adversary.as_ref().map(|a| &a.log)
    }

    /// Detaches the adversary state so a probe can mutate it while using
    /// the rest of the device; pair with
    /// [`put_adversary`](Self::put_adversary).
    pub(crate) fn take_adversary(&mut self) -> Option<AdversaryState> {
        self.adversary.take()
    }

    /// Re-attaches state taken by [`take_adversary`](Self::take_adversary).
    pub(crate) fn put_adversary(&mut self, adv: AdversaryState) {
        self.adversary = Some(adv);
    }

    /// Units on a given tile, device-index order.
    pub fn units_on_tile(&self, tile: NodeId) -> Vec<usize> {
        self.units
            .iter()
            .filter(|u| u.tile() == tile)
            .map(|u| u.index())
            .collect()
    }

    /// Resets all unit occupancy, NoC reservations, meter and telemetry
    /// values — health and assignments (including programmed engines)
    /// are kept, as is the telemetry component interning.
    /// Call between independent experiments on the same loaded device.
    pub fn reset_occupancy(&mut self) {
        for u in &mut self.units {
            u.clear_occupancy();
        }
        self.noc.reset();
        self.meter.reset();
        self.telemetry.reset_values();
    }

    /// Power-loss amnesia: wipes every piece of device state that does
    /// *not* survive a crash — unit control state (occupancy, node
    /// assignments, programmed-engine handles; [`MicroUnit::reset`]),
    /// NoC reservations and gauges, and the energy meter. Unlike
    /// [`reset_occupancy`](Self::reset_occupancy) this deliberately
    /// does **not** touch the telemetry registry values:
    /// the registry is the *host-side* observer of the device and its
    /// counters (service accounting, alert history) must survive a
    /// device crash. Callers restore the nonvolatile slice afterwards
    /// from a [`crate::persist::PersistentImage`].
    pub fn wipe_volatile(&mut self) {
        for u in &mut self.units {
            u.reset();
        }
        self.noc.reset();
        self.meter.reset();
    }

    /// Whether the device's volatile state equals a fresh boot's: every
    /// unit idle with zero accumulated load, no NoC link reservations,
    /// an empty energy meter. This is the post-restore half of the
    /// recovery contract — after
    /// [`wipe_volatile`](Self::wipe_volatile) + image restore it must
    /// hold, or the restart inherited stale run-time state.
    pub fn volatile_pristine(&self) -> bool {
        self.units.iter().all(MicroUnit::volatile_pristine)
            && self.noc.link_load().is_empty()
            && self.meter.total().as_fj() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_lays_out_tiles_row_major() {
        let d = CimDevice::new(FabricConfig::default()).unwrap();
        assert_eq!(d.unit(0).tile(), NodeId::new(0, 0));
        assert_eq!(d.unit(3).tile(), NodeId::new(0, 0));
        assert_eq!(d.unit(4).tile(), NodeId::new(1, 0));
        let last = d.units().len() - 1;
        assert_eq!(d.unit(last).tile(), NodeId::new(3, 3));
    }

    #[test]
    fn invalid_config_rejected() {
        let c = FabricConfig {
            mesh_width: 0,
            ..FabricConfig::default()
        };
        assert!(CimDevice::new(c).is_err());
    }

    #[test]
    fn fault_injection_changes_health_counts() {
        let mut d = CimDevice::new(FabricConfig::default()).unwrap();
        d.fail_unit(0);
        d.disable_unit(1);
        assert_eq!(d.healthy_unit_count(), 62);
        assert_eq!(d.unit(0).health(), UnitHealth::Failed);
        assert_eq!(d.unit(1).health(), UnitHealth::Disabled);
    }

    #[test]
    fn units_on_tile_groups_correctly() {
        let d = CimDevice::new(FabricConfig::default()).unwrap();
        let units = d.units_on_tile(NodeId::new(2, 1));
        assert_eq!(units.len(), 4);
        for &u in &units {
            assert_eq!(d.unit(u).tile(), NodeId::new(2, 1));
        }
    }

    #[test]
    fn packet_ids_are_unique() {
        let mut d = CimDevice::new(FabricConfig::default()).unwrap();
        let a = d.next_packet_id();
        let b = d.next_packet_id();
        assert_ne!(a, b);
    }

    #[test]
    fn encryption_follows_config() {
        let c = FabricConfig {
            encryption: true,
            ..FabricConfig::default()
        };
        let d = CimDevice::new(c).unwrap();
        assert!(d.noc().encryption());
    }
}
