//! The CIM micro-unit: control + data + processing (paper Fig 5).
//!
//! A micro-unit is the smallest replaceable component. It holds stationary
//! data (an analog crossbar engine programmed with weights, for matvec
//! operators) and a small digital ALU (for elementwise/reduce operators),
//! executes one assigned dataflow node, and keeps the occupancy telemetry
//! the resource manager (§IV.C) and reliability machinery (§V.A) read.

use crate::config::FabricConfig;
use crate::error::{FabricError, Result};
use cim_crossbar::array::OpCost;
use cim_crossbar::dpe::DotProductEngine;
use cim_crossbar::matrix::DenseMatrix;
use cim_dataflow::ops::Operation;
use cim_noc::packet::NodeId;
use cim_sim::calib::alu;
use cim_sim::energy::Energy;
use cim_sim::telemetry::{ComponentId, Telemetry};
use cim_sim::time::{SimDuration, SimTime};
use cim_sim::SeedTree;

/// Health state of a micro-unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnitHealth {
    /// Operating normally.
    #[default]
    Healthy,
    /// Hard-failed (fault injected or worn out); produces no results.
    Failed,
    /// Administratively fenced off (containment boundary, §V.A).
    Disabled,
}

/// One micro-unit.
#[derive(Debug)]
pub struct MicroUnit {
    index: usize,
    tile: NodeId,
    health: UnitHealth,
    busy_until: SimTime,
    busy_accum: SimDuration,
    items: u64,
    dpe: Option<DotProductEngine>,
    assigned_node: Option<usize>,
    tel: Telemetry,
    tel_unit: ComponentId,
    tel_alu: ComponentId,
    tel_path: String,
}

impl MicroUnit {
    /// Creates an idle, healthy micro-unit at `tile`.
    pub fn new(index: usize, tile: NodeId) -> Self {
        MicroUnit {
            index,
            tile,
            health: UnitHealth::Healthy,
            busy_until: SimTime::ZERO,
            busy_accum: SimDuration::ZERO,
            items: 0,
            dpe: None,
            assigned_node: None,
            tel: Telemetry::disabled(),
            tel_unit: ComponentId::NONE,
            tel_alu: ComponentId::NONE,
            tel_path: String::new(),
        }
    }

    /// Attaches a telemetry sink. The unit reports under
    /// `tile(x,y)/mu{index}` with its digital ALU under `…/alu`; a
    /// programmed analog engine (current or future) reports under
    /// `…/array`, `…/dac`, `…/adc` and `…/digital`.
    pub fn attach_telemetry(&mut self, t: &Telemetry) {
        self.tel = t.clone();
        self.tel_path = format!("tile({},{})/mu{}", self.tile.x, self.tile.y, self.index);
        self.tel_unit = t.component(&self.tel_path);
        self.tel_alu = t.component(&format!("{}/alu", self.tel_path));
        if let Some(dpe) = &mut self.dpe {
            dpe.attach_telemetry(t, &self.tel_path);
        }
    }

    /// This unit's interned telemetry component (for span attribution).
    pub fn telemetry_component(&self) -> ComponentId {
        self.tel_unit
    }

    /// Device-wide unit index.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The tile (mesh node) this unit lives in.
    pub fn tile(&self) -> NodeId {
        self.tile
    }

    /// Current health.
    pub fn health(&self) -> UnitHealth {
        self.health
    }

    /// Sets health (fault injection / containment / repair).
    pub fn set_health(&mut self, health: UnitHealth) {
        self.health = health;
    }

    /// The graph node currently assigned, if any.
    pub fn assigned_node(&self) -> Option<usize> {
        self.assigned_node
    }

    /// Earliest time the unit can start new work.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated (load telemetry, §IV.C).
    pub fn busy_accum(&self) -> SimDuration {
        self.busy_accum
    }

    /// Work items processed.
    pub fn items_processed(&self) -> u64 {
        self.items
    }

    /// Clears timing/occupancy telemetry only — assignment, programmed
    /// engine and health survive. Used between independent experiments on
    /// the same loaded device.
    pub fn clear_occupancy(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.busy_accum = SimDuration::ZERO;
        self.items = 0;
    }

    /// Clears the node assignment and drops the programmed engine, keeping
    /// health and occupancy telemetry. Used when a unit is fenced after its
    /// node was remapped elsewhere: without this, a later-repaired unit
    /// would look permanently occupied and never rejoin the spare pool.
    pub fn clear_assignment(&mut self) {
        self.assigned_node = None;
        self.dpe = None;
    }

    /// Clears assignment and occupancy (not health).
    pub fn reset(&mut self) {
        self.busy_until = SimTime::ZERO;
        self.busy_accum = SimDuration::ZERO;
        self.items = 0;
        self.dpe = None;
        self.assigned_node = None;
    }

    /// Assigns a dataflow node. For `MatVec` nodes this builds and
    /// programs the analog engine — the slow, energy-hungry configuration
    /// step of static dataflow (§III.B). Other operators configure the
    /// digital ALU at negligible cost.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NoSpareAvailable`] if the unit is not
    /// healthy, or propagates crossbar errors.
    pub fn assign(
        &mut self,
        node_index: usize,
        op: &Operation,
        config: &FabricConfig,
        seeds: SeedTree,
    ) -> Result<OpCost> {
        if self.health != UnitHealth::Healthy {
            return Err(FabricError::NoSpareAvailable { unit: self.index });
        }
        self.assigned_node = Some(node_index);
        match op {
            Operation::MatVec {
                rows,
                cols,
                weights,
            } => {
                let m = DenseMatrix::new(*rows, *cols, weights.clone())?;
                let mut dpe =
                    DotProductEngine::new(config.dpe.clone(), seeds.child_idx(self.index as u64));
                dpe.set_mode(config.sim_mode);
                if self.tel.is_enabled() {
                    dpe.attach_telemetry(&self.tel, &self.tel_path);
                }
                let cost = dpe.program(&m)?;
                self.dpe = Some(dpe);
                Ok(cost)
            }
            _ => {
                self.dpe = None;
                // Loading a digital micro-program: one control packet's
                // worth of work.
                Ok(OpCost {
                    latency: SimDuration::from_ns(10),
                    energy: Energy::from_pj(1.0),
                })
            }
        }
    }

    /// Executes the assigned operator on `inputs`, starting no earlier
    /// than `ready`. Returns the outputs, the completion time, and the
    /// energy consumed. Advances the unit's busy horizon.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::NoSpareAvailable`] if the unit is not
    /// healthy (callers treat this as a detected fault), or propagates
    /// crossbar errors.
    pub fn execute(
        &mut self,
        op: &Operation,
        inputs: &[&[f64]],
        ready: SimTime,
    ) -> Result<(Vec<f64>, SimTime, Energy)> {
        if self.health != UnitHealth::Healthy {
            return Err(FabricError::NoSpareAvailable { unit: self.index });
        }
        let start = ready.max(self.busy_until);
        let (values, cost) = match op {
            Operation::MatVec { .. } => {
                let dpe = self
                    .dpe
                    .as_mut()
                    .ok_or_else(|| FabricError::InvalidConfig {
                        reason: format!(
                            "unit {} executes matvec without a programmed engine",
                            self.index
                        ),
                    })?;
                let out = dpe.matvec(inputs[0])?;
                (out.values, out.cost)
            }
            op => {
                let values = match op {
                    // Sources inject externally supplied data; evaluate()
                    // has no semantics for them (arity 0).
                    Operation::Source { .. } => inputs[0].to_vec(),
                    _ => op.evaluate(inputs),
                };
                let ops = op.flops().max(values.len() as u64).max(1);
                let latency = SimDuration::from_secs_f64(ops as f64 / alu::OPS_PER_SEC);
                let energy = Energy::from_fj(ops * alu::ENERGY_PER_OP_FJ);
                if self.tel.is_enabled() {
                    self.tel
                        .counter_add(self.tel_alu, "energy_fj", energy.as_fj());
                    self.tel
                        .counter_add(self.tel_alu, "busy_ps", latency.as_ps());
                    self.tel.counter_add(self.tel_alu, "ops", ops);
                }
                (values, OpCost { latency, energy })
            }
        };
        let done = start + cost.latency;
        self.busy_until = done;
        self.busy_accum += cost.latency;
        self.items += 1;
        if self.tel.is_enabled() {
            self.tel.counter_add(self.tel_unit, "items", 1);
            self.tel
                .counter_add(self.tel_unit, "busy_ps", cost.latency.as_ps());
        }
        Ok((values, done, cost.energy))
    }

    /// Restores the nonvolatile slice of this unit from a persisted
    /// image: health, node assignment, and the programmed analog engine
    /// (conductances plus accumulated drift/aging — a memristor keeps
    /// those across power loss). Occupancy state is deliberately *not*
    /// part of the image; callers wipe it separately.
    pub(crate) fn restore_nv(
        &mut self,
        health: UnitHealth,
        assigned_node: Option<usize>,
        dpe: Option<DotProductEngine>,
    ) {
        self.health = health;
        self.assigned_node = assigned_node;
        self.dpe = dpe;
    }

    /// Moves the programmed analog engine out, leaving the unit without
    /// one; the power-cycle pass carries it across the wipe this way.
    pub(crate) fn take_dpe(&mut self) -> Option<DotProductEngine> {
        self.dpe.take()
    }

    /// Whether this unit's volatile (run-time) state matches a fresh
    /// boot: no busy horizon, no accumulated load, no processed items.
    pub(crate) fn volatile_pristine(&self) -> bool {
        self.busy_until == SimTime::ZERO && self.busy_accum == SimDuration::ZERO && self.items == 0
    }

    /// Read-only access to the analog engine (test and telemetry use).
    pub fn dpe(&self) -> Option<&DotProductEngine> {
        self.dpe.as_ref()
    }

    /// Mutable access to the analog engine (fault-injection campaigns).
    pub fn dpe_mut(&mut self) -> Option<&mut DotProductEngine> {
        self.dpe.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_dataflow::ops::Elementwise;

    fn cfg() -> FabricConfig {
        FabricConfig {
            dpe: cim_crossbar::dpe::DpeConfig::ideal(),
            ..FabricConfig::default()
        }
    }

    fn seeds() -> SeedTree {
        SeedTree::new(7)
    }

    #[test]
    fn assign_matvec_programs_engine() {
        let mut u = MicroUnit::new(0, NodeId::new(0, 0));
        let op = Operation::MatVec {
            rows: 8,
            cols: 4,
            weights: vec![0.25; 32],
        };
        let cost = u.assign(3, &op, &cfg(), seeds()).unwrap();
        assert!(cost.latency.as_ps() > 0, "programming takes time");
        assert_eq!(u.assigned_node(), Some(3));
        assert!(u.dpe().is_some());
    }

    #[test]
    fn execute_matvec_approximates_reference() {
        let mut u = MicroUnit::new(0, NodeId::new(0, 0));
        let op = Operation::MatVec {
            rows: 4,
            cols: 2,
            weights: vec![0.5, -0.5, 0.25, 0.25, -0.125, 0.125, 1.0, 0.0],
        };
        u.assign(0, &op, &cfg(), seeds()).unwrap();
        let x = [1.0, 0.5, -0.5, 0.25];
        let (vals, done, energy) = u.execute(&op, &[&x], SimTime::ZERO).unwrap();
        let exact = op.evaluate(&[&x]);
        for (a, b) in vals.iter().zip(&exact) {
            assert!((a - b).abs() < 0.05, "got {a}, want {b}");
        }
        assert!(done > SimTime::ZERO);
        assert!(energy.as_fj() > 0);
    }

    #[test]
    fn digital_ops_compute_exactly() {
        let mut u = MicroUnit::new(1, NodeId::new(0, 0));
        let op = Operation::Map {
            func: Elementwise::Relu,
            width: 4,
        };
        u.assign(0, &op, &cfg(), seeds()).unwrap();
        let (vals, _, _) = u
            .execute(&op, &[&[-1.0, 2.0, -3.0, 4.0]], SimTime::ZERO)
            .unwrap();
        assert_eq!(vals, vec![0.0, 2.0, 0.0, 4.0]);
    }

    #[test]
    fn busy_horizon_serializes_work() {
        let mut u = MicroUnit::new(0, NodeId::new(0, 0));
        let op = Operation::Map {
            func: Elementwise::Identity,
            width: 1024,
        };
        u.assign(0, &op, &cfg(), seeds()).unwrap();
        let x = vec![1.0; 1024];
        let (_, t1, _) = u.execute(&op, &[&x], SimTime::ZERO).unwrap();
        let (_, t2, _) = u.execute(&op, &[&x], SimTime::ZERO).unwrap();
        assert!(t2 > t1, "second item queues behind the first");
        assert_eq!(u.items_processed(), 2);
        assert!(u.busy_accum().as_ps() > 0);
    }

    #[test]
    fn failed_unit_refuses_work() {
        let mut u = MicroUnit::new(5, NodeId::new(1, 1));
        let op = Operation::Map {
            func: Elementwise::Identity,
            width: 1,
        };
        u.assign(0, &op, &cfg(), seeds()).unwrap();
        u.set_health(UnitHealth::Failed);
        let res = u.execute(&op, &[&[1.0]], SimTime::ZERO);
        assert_eq!(res.unwrap_err(), FabricError::NoSpareAvailable { unit: 5 });
        u.set_health(UnitHealth::Disabled);
        assert!(u.assign(0, &op, &cfg(), seeds()).is_err());
    }

    #[test]
    fn matvec_on_a_unit_without_an_engine_names_the_unit() {
        let mut u = MicroUnit::new(6, NodeId::new(0, 1));
        let map = Operation::Map {
            func: Elementwise::Identity,
            width: 4,
        };
        u.assign(0, &map, &cfg(), seeds()).unwrap();
        let matvec = Operation::MatVec {
            rows: 4,
            cols: 2,
            weights: vec![0.5; 8],
        };
        let err = u.execute(&matvec, &[&[1.0; 4]], SimTime::ZERO).unwrap_err();
        assert_eq!(
            err,
            FabricError::InvalidConfig {
                reason: "unit 6 executes matvec without a programmed engine".into(),
            }
        );
    }

    #[test]
    fn reset_clears_assignment_not_health() {
        let mut u = MicroUnit::new(0, NodeId::new(0, 0));
        let op = Operation::Map {
            func: Elementwise::Identity,
            width: 1,
        };
        u.assign(2, &op, &cfg(), seeds()).unwrap();
        u.set_health(UnitHealth::Disabled);
        u.reset();
        assert_eq!(u.assigned_node(), None);
        assert_eq!(u.health(), UnitHealth::Disabled);
    }
}
