//! Resource management: load information, balancing, pinning and closed
//! loops (paper §IV.C).
//!
//! The farm executor demonstrates *dynamic dataflow* (§III.B): one
//! operator replicated across several micro-units, with each incoming item
//! routed by a [`RoutePolicy`] — explicitly (hash of the packet tag),
//! implicitly (least-loaded, read from fabric state), or pinned. The
//! [`SlaController`] closes the loop: it widens the replica set until the
//! stream meets its latency target.

use crate::device::CimDevice;
use crate::error::{FabricError, Result};
use crate::unit::UnitHealth;
use cim_dataflow::ops::Operation;
use cim_dataflow::program::{RoutePolicy, RouteState};
use cim_sim::time::{SimDuration, SimTime};

/// Per-unit load telemetry (§IV.C "load information management").
#[derive(Debug, Clone, PartialEq)]
pub struct LoadReport {
    /// Busy time accumulated per unit.
    pub busy: Vec<SimDuration>,
    /// Items processed per unit.
    pub items: Vec<u64>,
}

impl LoadReport {
    /// Snapshot of the whole device.
    pub fn capture(device: &CimDevice) -> LoadReport {
        LoadReport {
            busy: device.units().iter().map(|u| u.busy_accum()).collect(),
            items: device.units().iter().map(|u| u.items_processed()).collect(),
        }
    }

    /// Load imbalance across a unit subset: max/mean of items processed.
    /// 1.0 is perfectly balanced; `None` if nothing was processed.
    pub fn imbalance(&self, units: &[usize]) -> Option<f64> {
        let counts: Vec<u64> = units.iter().map(|&u| self.items[u]).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let mean = total as f64 / counts.len() as f64;
        let max = *counts.iter().max().expect("non-empty") as f64;
        Some(max / mean)
    }
}

/// Result of a farm run.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Output of each item, in input order.
    pub outputs: Vec<Vec<f64>>,
    /// Completion time of each item.
    pub completed: Vec<SimTime>,
    /// Injection time of each item (`inter_arrival` apart).
    pub injected: Vec<SimTime>,
    /// Which replica processed each item.
    pub assignments: Vec<usize>,
    /// Device unit index hosting each replica, replica-index order.
    pub replica_units: Vec<usize>,
}

impl FarmReport {
    /// Latency of each item relative to its injection time.
    pub fn latencies(&self, injected: &[SimTime]) -> Vec<SimDuration> {
        self.completed
            .iter()
            .zip(injected)
            .map(|(&c, &i)| c.saturating_since(i))
            .collect()
    }

    /// The `p`-quantile per-item latency, measured from each item's own
    /// injection time — the same per-item latencies
    /// [`FarmReport::latencies`] reports, not wall-clock completion
    /// times (items arrive `inter_arrival` apart, so measuring from
    /// time zero would overstate late items' latency).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]` or the report is empty.
    pub fn latency_quantile(&self, p: f64) -> SimDuration {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0,1]");
        assert!(!self.completed.is_empty(), "empty farm report");
        let mut lats = self.latencies(&self.injected);
        lats.sort_unstable();
        let rank = ((p * lats.len() as f64).ceil().max(1.0) as usize).min(lats.len());
        lats[rank - 1]
    }
}

/// Replicates `op` on `replica_count` free units and routes `items`
/// through them per `policy`. Items are injected `inter_arrival` apart.
///
/// # Errors
///
/// Returns [`FabricError::CapacityExceeded`] if not enough free units
/// exist, or propagates execution errors.
pub fn run_farm(
    device: &mut CimDevice,
    op: &Operation,
    replica_count: usize,
    items: &[Vec<f64>],
    inter_arrival: SimDuration,
    policy: &dyn RoutePolicy,
) -> Result<FarmReport> {
    if replica_count == 0 {
        return Err(FabricError::InvalidConfig {
            reason: "farm needs at least one replica".to_owned(),
        });
    }
    // Spread replicas across distinct tiles (round-robin, tile order)
    // before doubling up on any one tile: replicas exist for parallel
    // service and independent failure, so packing them into one tile
    // neighbourhood — what a first-N scan does — defeats both. This is
    // the farm-side counterpart of [`MappingPolicy::LocalityAware`],
    // which clusters *chained* nodes; sibling replicas want the
    // opposite: maximal spread.
    let mut tiles: Vec<cim_noc::packet::NodeId> = Vec::new();
    let mut per_tile: Vec<Vec<usize>> = Vec::new();
    let mut available = 0usize;
    for u in device
        .units()
        .iter()
        .filter(|u| u.health() == UnitHealth::Healthy && u.assigned_node().is_none())
    {
        available += 1;
        match tiles.iter().position(|&t| t == u.tile()) {
            Some(i) => per_tile[i].push(u.index()),
            None => {
                tiles.push(u.tile());
                per_tile.push(vec![u.index()]);
            }
        }
    }
    if available < replica_count {
        return Err(FabricError::CapacityExceeded {
            needed: replica_count,
            available,
        });
    }
    let mut free = Vec::with_capacity(replica_count);
    let mut depth = 0usize;
    while free.len() < replica_count {
        for column in &per_tile {
            if let Some(&u) = column.get(depth) {
                free.push(u);
                if free.len() == replica_count {
                    break;
                }
            }
        }
        depth += 1;
    }
    let seeds = device.seeds().child("farm");
    let config = device.config().clone();
    for &u in &free {
        device.unit_mut(u).assign(usize::MAX, op, &config, seeds)?;
    }

    let mut report = FarmReport {
        outputs: Vec::with_capacity(items.len()),
        completed: Vec::with_capacity(items.len()),
        injected: Vec::with_capacity(items.len()),
        assignments: Vec::with_capacity(items.len()),
        replica_units: free.clone(),
    };
    for (i, item) in items.iter().enumerate() {
        let release = SimTime::ZERO + inter_arrival * i as u64;
        // Queue depth = pending time at each replica, in microseconds.
        let state = RouteState {
            queue_depths: free
                .iter()
                .map(|&u| {
                    let backlog = device.unit(u).busy_until().saturating_since(release);
                    backlog.as_us_f64().ceil() as usize
                })
                .collect(),
        };
        let choice = policy.select(i as u64, &state)?;
        let unit = free[choice];
        let (values, done, energy) =
            device
                .unit_mut(unit)
                .execute(op, &[item.as_slice()], release)?;
        device.meter_mut().charge("compute", energy);
        report.outputs.push(values);
        report.completed.push(done);
        report.injected.push(release);
        report.assignments.push(choice);
    }
    Ok(report)
}

/// A closed-loop controller (§IV.C "enabling closed loops"): grows the
/// replica set until the stream's p99 latency meets the SLA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlaController {
    /// Latency target for the 99th percentile.
    pub p99_target: SimDuration,
    /// Replica ceiling (resource budget).
    pub max_replicas: usize,
}

impl SlaController {
    /// Runs the loop: tries 1, 2, 4, ... replicas until the target is met
    /// or the budget is exhausted. Returns `(replicas, achieved_p99)`.
    ///
    /// The device is reset between probes via fresh assignment of spare
    /// units, so each probe needs `replicas` free units.
    ///
    /// # Errors
    ///
    /// Propagates farm errors (including capacity exhaustion).
    pub fn autoscale(
        &self,
        device: &mut CimDevice,
        op: &Operation,
        items: &[Vec<f64>],
        inter_arrival: SimDuration,
        policy: &dyn RoutePolicy,
    ) -> Result<(usize, SimDuration)> {
        let mut replicas = 1;
        loop {
            let report = run_farm(device, op, replicas, items, inter_arrival, policy)?;
            let p99 = report.latency_quantile(0.99);
            if p99 <= self.p99_target || replicas >= self.max_replicas {
                return Ok((replicas, p99));
            }
            replicas = (replicas * 2).min(self.max_replicas);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use cim_dataflow::ops::Elementwise;
    use cim_dataflow::program::{HashRoute, LeastLoadedRoute};

    fn device() -> CimDevice {
        CimDevice::new(FabricConfig::default()).unwrap()
    }

    fn heavy_op() -> Operation {
        Operation::Map {
            func: Elementwise::Sigmoid,
            width: 4096,
        }
    }

    fn items(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64; 4096]).collect()
    }

    #[test]
    fn farm_computes_correct_outputs() {
        let mut d = device();
        let op = Operation::Map {
            func: Elementwise::Scale(3.0),
            width: 4,
        };
        let report = run_farm(
            &mut d,
            &op,
            2,
            &[vec![1.0; 4], vec![2.0; 4]],
            SimDuration::ZERO,
            &HashRoute,
        )
        .unwrap();
        assert_eq!(report.outputs[0], vec![3.0; 4]);
        assert_eq!(report.outputs[1], vec![6.0; 4]);
    }

    #[test]
    fn more_replicas_cut_latency_under_saturation() {
        let mut d1 = device();
        let r1 = run_farm(
            &mut d1,
            &heavy_op(),
            1,
            &items(16),
            SimDuration::ZERO,
            &LeastLoadedRoute,
        )
        .unwrap();
        let mut d4 = device();
        let r4 = run_farm(
            &mut d4,
            &heavy_op(),
            4,
            &items(16),
            SimDuration::ZERO,
            &LeastLoadedRoute,
        )
        .unwrap();
        assert!(
            r4.latency_quantile(0.99) < r1.latency_quantile(0.99) / 2,
            "4 replicas should cut p99 substantially"
        );
    }

    #[test]
    fn least_loaded_balances_items() {
        let mut d = device();
        let report = run_farm(
            &mut d,
            &heavy_op(),
            4,
            &items(64),
            SimDuration::ZERO,
            &LeastLoadedRoute,
        )
        .unwrap();
        let mut counts = [0u64; 4];
        for &a in &report.assignments {
            counts[a] += 1;
        }
        for &c in &counts {
            assert_eq!(c, 16, "round-robin-like balance expected: {counts:?}");
        }
        let load = LoadReport::capture(&d);
        let used: Vec<usize> = d
            .units()
            .iter()
            .filter(|u| u.items_processed() > 0)
            .map(|u| u.index())
            .collect();
        let imb = load.imbalance(&used).unwrap();
        assert!(imb < 1.1, "imbalance {imb}");
    }

    #[test]
    fn pinning_via_explicit_policy() {
        // A policy that pins every item to replica 0 (§IV.C pinning).
        #[derive(Debug)]
        struct Pin;
        impl RoutePolicy for Pin {
            fn select(&self, _tag: u64, state: &RouteState) -> cim_dataflow::Result<usize> {
                if state.queue_depths.is_empty() {
                    Err(cim_dataflow::DataflowError::InvalidOperation {
                        reason: "no candidates".into(),
                    })
                } else {
                    Ok(0)
                }
            }
        }
        let mut d = device();
        let report = run_farm(&mut d, &heavy_op(), 3, &items(9), SimDuration::ZERO, &Pin).unwrap();
        assert!(report.assignments.iter().all(|&a| a == 0));
    }

    #[test]
    fn sla_controller_scales_until_target() {
        let mut d = device();
        // A strict target that one replica cannot meet under saturation.
        let one_replica_p99 = {
            let mut probe = device();
            run_farm(
                &mut probe,
                &heavy_op(),
                1,
                &items(16),
                SimDuration::ZERO,
                &LeastLoadedRoute,
            )
            .unwrap()
            .latency_quantile(0.99)
        };
        let ctl = SlaController {
            p99_target: one_replica_p99 / 4,
            max_replicas: 16,
        };
        let (replicas, achieved) = ctl
            .autoscale(
                &mut d,
                &heavy_op(),
                &items(16),
                SimDuration::ZERO,
                &LeastLoadedRoute,
            )
            .unwrap();
        assert!(replicas > 1, "controller must scale out");
        assert!(achieved <= ctl.p99_target, "target met: {achieved}");
    }

    #[test]
    fn quantile_measured_from_injection_times() {
        // Regression: `latency_quantile` used to rank completion times
        // measured from `SimTime::ZERO`, overstating late items' latency
        // whenever `inter_arrival > 0`. Both latency paths must agree.
        let mut d = device();
        let gap = SimDuration::from_us(50);
        let report = run_farm(&mut d, &heavy_op(), 2, &items(16), gap, &LeastLoadedRoute).unwrap();
        let mut lats = report.latencies(&report.injected);
        lats.sort_unstable();
        for (p, rank) in [(0.5, 8usize), (0.99, 16), (1.0, 16)] {
            assert_eq!(report.latency_quantile(p), lats[rank - 1], "p={p}");
        }
        // With a wide gap each item's own latency stays bounded even
        // though the last item *completes* far from time zero.
        let wall_clock_last = report.completed[15].saturating_since(SimTime::ZERO);
        assert!(
            report.latency_quantile(1.0) < wall_clock_last,
            "quantile must not be measured from time zero"
        );
    }

    #[test]
    fn replicas_spread_across_tiles() {
        // Regression: a first-N scan packed all replicas onto the first
        // tile neighbourhood; sibling replicas must land on distinct
        // tiles while distinct tiles remain.
        let mut d = device();
        let per_tile = d.units_on_tile(d.units()[0].tile()).len();
        let replicas = per_tile * 2; // a first-N scan would span only 2 tiles
        let report = run_farm(
            &mut d,
            &heavy_op(),
            replicas,
            &items(replicas),
            SimDuration::ZERO,
            &LeastLoadedRoute,
        )
        .unwrap();
        assert_eq!(report.replica_units.len(), replicas);
        let mut tiles: Vec<_> = report
            .replica_units
            .iter()
            .map(|&u| d.unit(u).tile())
            .collect();
        tiles.sort_unstable();
        tiles.dedup();
        assert!(
            tiles.len() >= replicas.min(8),
            "replicas packed onto {} tiles, expected spread: {:?}",
            tiles.len(),
            report.replica_units
        );
    }

    #[test]
    fn farm_capacity_errors() {
        let mut d = device();
        assert!(matches!(
            run_farm(
                &mut d,
                &heavy_op(),
                0,
                &items(1),
                SimDuration::ZERO,
                &HashRoute
            ),
            Err(FabricError::InvalidConfig { .. })
        ));
        assert!(matches!(
            run_farm(
                &mut d,
                &heavy_op(),
                1000,
                &items(1),
                SimDuration::ZERO,
                &HashRoute
            ),
            Err(FabricError::CapacityExceeded { .. })
        ));
    }
}
