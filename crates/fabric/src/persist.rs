//! Crash persistence: the nonvolatile / volatile partition of device
//! state, and the power-cycle recovery pass (Memento-style).
//!
//! Memristive CIM state is nonvolatile — programmed conductances survive
//! power loss (the paper's central premise). This module makes the
//! partition explicit:
//!
//! - **Nonvolatile** (captured in a [`PersistentImage`], survives a
//!   crash): per-unit health, node assignments, and the programmed
//!   analog engines — conductances *including* accumulated drift and
//!   aging state — plus the runtime's resident programs (the jobs map)
//!   and its id allocator.
//! - **Volatile** (lost on power loss): unit occupancy and busy
//!   horizons, NoC reservations and backlog gauges, the energy meter,
//!   and the runtime's admission queue. In-flight
//!   requests are re-fenced by the service/fleet layers exactly the way
//!   whole-device failover voids them.
//!
//! [`CimRuntime::power_cycle`] is the crash: move the NV state out of
//! the runtime into an image, wipe everything volatile
//! ([`crate::device::CimDevice::wipe_volatile`]), move the image back,
//! and report whether the post-restore volatile state equals a fresh
//! boot's ([`crate::device::CimDevice::volatile_pristine`]). The
//! programmed engines and resident programs are moved, not copied:
//! memristors keep their state through power loss, so the model pays
//! nothing per programmed cell to carry it across. A `false` return is
//! a *dirty restore* — the detectable half of the recovery contract the
//! chaos invariants pin.

use crate::engine::MappedProgram;
use crate::error::{FabricError, Result};
use crate::runtime::{CimRuntime, JobId};
use crate::unit::{MicroUnit, UnitHealth};
use cim_crossbar::dpe::DotProductEngine;

/// The nonvolatile slice of one micro-unit.
#[derive(Debug, Clone)]
struct UnitImage {
    health: UnitHealth,
    assigned_node: Option<usize>,
    dpe: Option<DotProductEngine>,
}

impl UnitImage {
    /// The unit's nonvolatile slice, holding `dpe` as its engine.
    fn of(unit: &MicroUnit, dpe: Option<DotProductEngine>) -> Self {
        UnitImage {
            health: unit.health(),
            assigned_node: unit.assigned_node(),
            dpe,
        }
    }
}

/// Everything that survives power loss, taken from a [`CimRuntime`].
///
/// Jobs are stored sorted by id so the image is deterministic regardless
/// of the runtime's hash-map iteration order.
#[derive(Debug, Clone)]
pub struct PersistentImage {
    units: Vec<UnitImage>,
    jobs: Vec<(JobId, MappedProgram)>,
    next_id: u64,
}

impl PersistentImage {
    fn new(
        units: Vec<UnitImage>,
        jobs: impl IntoIterator<Item = (JobId, MappedProgram)>,
        next_id: u64,
    ) -> Self {
        let mut jobs: Vec<(JobId, MappedProgram)> = jobs.into_iter().collect();
        jobs.sort_by_key(|(id, _)| *id);
        PersistentImage {
            units,
            jobs,
            next_id,
        }
    }

    /// Snapshots the nonvolatile state of a runtime: per-unit health,
    /// assignment and programmed engine (conductances + drift/aging),
    /// the resident programs, and the job-id allocator. The runtime is
    /// untouched; engines and programs are copied.
    pub fn capture(rt: &CimRuntime) -> Self {
        let units = rt
            .device
            .units()
            .iter()
            .map(|u| UnitImage::of(u, u.dpe().cloned()))
            .collect();
        let jobs = rt.jobs.iter().map(|(id, prog)| (*id, prog.clone()));
        PersistentImage::new(units, jobs, rt.next_id)
    }

    /// [`capture`](Self::capture) by move: every programmed engine and
    /// the jobs map leave the runtime for the image, so the runtime is
    /// whole again only once the image is restored into it.
    fn take(rt: &mut CimRuntime) -> Self {
        let units = (0..rt.device.units().len())
            .map(|i| {
                let unit = rt.device.unit_mut(i);
                let dpe = unit.take_dpe();
                UnitImage::of(unit, dpe)
            })
            .collect();
        let jobs = std::mem::take(&mut rt.jobs);
        PersistentImage::new(units, jobs, rt.next_id)
    }

    /// Moves the image into a runtime: every unit's nonvolatile slice,
    /// the jobs map, and the id allocator. Volatile state is left
    /// exactly as the caller prepared it (a recovery pass wipes it
    /// first; a weakened one does not — that is what the chaos
    /// invariants detect).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] if the runtime's device
    /// has a different unit count than the image was taken from.
    pub fn restore(self, rt: &mut CimRuntime) -> Result<()> {
        if rt.device.units().len() != self.units.len() {
            return Err(FabricError::InvalidConfig {
                reason: format!(
                    "persistent image holds {} units but the device has {}",
                    self.units.len(),
                    rt.device.units().len()
                ),
            });
        }
        for (i, img) in self.units.into_iter().enumerate() {
            rt.device
                .unit_mut(i)
                .restore_nv(img.health, img.assigned_node, img.dpe);
        }
        rt.jobs = self.jobs.into_iter().collect();
        rt.next_id = self.next_id;
        Ok(())
    }

    /// Resident programs held by the image.
    pub fn resident_jobs(&self) -> usize {
        self.jobs.len()
    }

    /// Units whose analog engine (programmed conductances) the image
    /// carries.
    pub fn programmed_units(&self) -> usize {
        self.units.iter().filter(|u| u.dpe.is_some()).count()
    }
}

impl CimRuntime {
    /// Simulates a power cycle: move the NV state out into an image,
    /// wipe volatile state (unit occupancy + assignments, NoC
    /// reservations, energy meter, admission queue — the
    /// device reboots with total run-time amnesia), then move the image
    /// back: health, placements and programmed conductances (with each
    /// array's read-noise stream where it left off) return without
    /// reprogramming and without a copy, because memristors keep them.
    ///
    /// Returns whether the post-restore volatile state equals a fresh
    /// boot's. With `clear_volatile` (the correct recovery pass) this
    /// is always `true` and additionally `debug_assert`ed; passing
    /// `false` models a buggy restore that skips the wipe — the restart
    /// then inherits stale occupancy and the return value (a *dirty
    /// restore*) is how the chaos invariants detect it.
    pub fn power_cycle(&mut self, clear_volatile: bool) -> bool {
        let image = PersistentImage::take(self);
        if clear_volatile {
            self.device.wipe_volatile();
            self.queue.clear();
        }
        image
            .restore(self)
            .expect("an image taken from this runtime matches its shape");
        let pristine = self.device.volatile_pristine();
        if clear_volatile {
            debug_assert!(
                pristine,
                "post-restore volatile state must equal a fresh boot's"
            );
        }
        // Re-publish scheduler gauges so the registry cannot carry a
        // stale queue depth or utilization across the restart.
        self.publish_sched_state("power_cycles");
        pristine
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::engine::StreamOptions;
    use crate::mapper::MappingPolicy;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::{DataflowGraph, GraphBuilder, NodeRef};
    use cim_dataflow::ops::Operation;
    use std::collections::HashMap;

    fn runtime() -> CimRuntime {
        runtime_with(DpeConfig::ideal())
    }

    fn runtime_with(dpe: DpeConfig) -> CimRuntime {
        CimRuntime::new(FabricConfig {
            mesh_width: 4,
            mesh_height: 1,
            units_per_tile: 1,
            dpe,
            ..FabricConfig::default()
        })
        .expect("runtime boots")
    }

    fn matvec_graph() -> (DataflowGraph, NodeRef, NodeRef) {
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width: 4 });
        let mv = b.add(
            "mv",
            Operation::MatVec {
                rows: 4,
                cols: 4,
                weights: (0..16).map(|i| ((i % 5) as f64 - 2.0) / 4.0).collect(),
            },
        );
        let k = b.add("k", Operation::Sink { width: 4 });
        b.chain(&[s, mv, k]).expect("chain");
        (b.build().expect("valid"), s, k)
    }

    #[test]
    fn power_cycle_keeps_programs_and_wipes_occupancy() {
        // The default config reads with noise: the cycled engine must
        // carry its arrays' noise streams across exactly where they left
        // off, so every output matches a twin that never lost power. Its
        // 8-bit ADC can hide that noise on a 4×4 layer; a lossless ADC
        // on the same noisy cells makes it show in every output.
        let lossless_adc = DpeConfig {
            adc_bits: 16,
            ..DpeConfig::default()
        };
        for (dpe, noise_shows) in [
            (DpeConfig::ideal(), false),
            (DpeConfig::default(), false),
            (lossless_adc, true),
        ] {
            let mut rt = runtime_with(dpe.clone());
            let mut twin = runtime_with(dpe);
            let (g, s, k) = matvec_graph();
            let job = rt
                .submit(g.clone(), MappingPolicy::LocalityAware)
                .expect("fits")
                .id();
            assert_eq!(
                twin.submit(g, MappingPolicy::LocalityAware)
                    .expect("fits")
                    .id(),
                job
            );
            let input = HashMap::from([(s, vec![1.0, -0.5, 0.25, 2.0])]);
            let output = |rt: &mut CimRuntime| {
                rt.run(job, std::slice::from_ref(&input), &StreamOptions::default())
                    .expect("runs")
                    .outputs[0][&k]
                    .clone()
            };
            assert_eq!(output(&mut rt), output(&mut twin));
            assert!(!rt.device().volatile_pristine(), "the run left occupancy");

            let image = PersistentImage::capture(&rt);
            assert_eq!(image.resident_jobs(), 1);
            assert_eq!(image.programmed_units(), 1, "one matvec engine persists");

            assert!(rt.power_cycle(true), "clean restore is pristine");
            assert!(rt.device().volatile_pristine());
            assert_eq!(rt.running_jobs(), vec![job], "resident program survives");
            assert_eq!(PersistentImage::capture(&rt).programmed_units(), 1);

            // The programmed conductances came back without
            // reprogramming: outputs after the crash equal the uncycled
            // twin's, bit for bit.
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let mut seen = Vec::new();
            for _ in 0..3 {
                let (after, uncycled) = (output(&mut rt), output(&mut twin));
                assert_eq!(bits(&after), bits(&uncycled), "NV state survives the crash");
                seen.push(bits(&after));
            }
            seen.dedup();
            if noise_shows {
                assert_eq!(seen.len(), 3, "read noise shows in every output");
            }
        }
    }

    #[test]
    fn skipping_the_volatile_wipe_is_a_detectable_dirty_restore() {
        let mut rt = runtime();
        let (g, s, _) = matvec_graph();
        let job = rt
            .submit(g, MappingPolicy::LocalityAware)
            .expect("fits")
            .id();
        rt.run(
            job,
            &[HashMap::from([(s, vec![1.0; 4])])],
            &StreamOptions::default(),
        )
        .expect("runs");
        assert!(
            !rt.power_cycle(false),
            "a restore that skips the wipe must report dirty"
        );
    }

    #[test]
    fn power_cycle_drops_the_admission_queue() {
        let mut rt = CimRuntime::new(FabricConfig {
            mesh_width: 8,
            mesh_height: 1,
            units_per_tile: 1,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .expect("runtime boots");
        let (g1, _, _) = matvec_graph();
        let (g2, _, _) = matvec_graph();
        let (g3, _, _) = matvec_graph();
        rt.submit(g1, MappingPolicy::LocalityAware).expect("fits");
        rt.submit(g2, MappingPolicy::LocalityAware).expect("fits");
        let queued = rt.submit(g3, MappingPolicy::LocalityAware).expect("queues");
        assert_eq!(rt.queued_jobs(), vec![queued.id()]);
        rt.power_cycle(true);
        assert!(
            rt.queued_jobs().is_empty(),
            "the admission queue is volatile"
        );
        assert_eq!(rt.running_jobs().len(), 2, "resident programs are not");
    }

    #[test]
    fn restore_rejects_a_mismatched_device() {
        let rt = runtime();
        let image = PersistentImage::capture(&rt);
        let mut other = CimRuntime::new(FabricConfig {
            mesh_width: 2,
            mesh_height: 1,
            units_per_tile: 1,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .expect("boots");
        assert!(image.restore(&mut other).is_err());
    }
}
