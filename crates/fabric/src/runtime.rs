//! A minimal CIM runtime (paper §III.E).
//!
//! "Initially CIM components will be used as slave devices… over time …
//! CIM computers can start running natively requiring full run time and
//! operating system support." This module is that runtime's kernel: it
//! owns the device, admits programs while free micro-units last, queues
//! the rest, and reclaims units when jobs finish — the resource-manager
//! role an OS plays for CPUs, at micro-unit granularity.

use crate::device::CimDevice;
use crate::engine::{Injection, MappedProgram, Served, StreamOptions, StreamReport};
use crate::error::{FabricError, Result};
use crate::mapper::MappingPolicy;
use crate::unit::UnitHealth;
use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_sim::time::SimTime;
use std::collections::{HashMap, VecDeque};

/// Identifies a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Raw id (diagnostics).
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// Admission outcome of a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Loaded onto the fabric and ready to run.
    Running(JobId),
    /// Waiting for micro-units to free up.
    Queued(JobId),
}

impl JobStatus {
    /// The job id regardless of state.
    pub fn id(self) -> JobId {
        match self {
            JobStatus::Running(id) | JobStatus::Queued(id) => id,
        }
    }
}

/// The error for running a job that is queued or unknown.
fn not_loaded(job: JobId) -> FabricError {
    FabricError::InvalidConfig {
        reason: format!("job {} is not loaded (queued or unknown)", job.0),
    }
}

/// The multi-program device manager.
///
/// # Examples
///
/// ```
/// use cim_fabric::runtime::CimRuntime;
/// use cim_fabric::{FabricConfig, MappingPolicy};
/// use cim_dataflow::graph::GraphBuilder;
/// use cim_dataflow::ops::Operation;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rt = CimRuntime::new(FabricConfig::default())?;
/// let mut b = GraphBuilder::new();
/// let s = b.add("s", Operation::Source { width: 2 });
/// let k = b.add("k", Operation::Sink { width: 2 });
/// b.connect(s, k, 0)?;
/// let status = rt.submit(b.build()?, MappingPolicy::LocalityAware)?;
/// assert!(matches!(status, cim_fabric::runtime::JobStatus::Running(_)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CimRuntime {
    pub(crate) device: CimDevice,
    pub(crate) jobs: HashMap<JobId, MappedProgram>,
    pub(crate) queue: VecDeque<(JobId, DataflowGraph, MappingPolicy)>,
    pub(crate) rejected: Vec<JobId>,
    pub(crate) next_id: u64,
}

impl CimRuntime {
    /// Boots a runtime on a fresh device.
    ///
    /// # Errors
    ///
    /// Propagates device-construction failures.
    pub fn new(config: crate::config::FabricConfig) -> Result<Self> {
        Ok(CimRuntime {
            device: CimDevice::new(config)?,
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            rejected: Vec::new(),
            next_id: 0,
        })
    }

    /// The device, read-only (telemetry).
    pub fn device(&self) -> &CimDevice {
        &self.device
    }

    /// The device, mutable (fault injection, telemetry setup).
    pub fn device_mut(&mut self) -> &mut CimDevice {
        &mut self.device
    }

    /// Publishes admission counters and scheduler gauges under the
    /// `runtime` component. No-ops (one branch) when telemetry is off.
    pub(crate) fn publish_sched_state(&mut self, counter: &'static str) {
        let tel = self.device.telemetry().clone();
        if !tel.is_enabled() {
            return;
        }
        let c = self.device.runtime_component();
        tel.counter_add(c, counter, 1);
        tel.gauge_set(c, "queue_depth", self.queue.len() as f64);
        tel.gauge_set(c, "utilization", self.utilization());
    }

    /// Free healthy micro-units right now.
    pub fn free_units(&self) -> usize {
        self.device
            .units()
            .iter()
            .filter(|u| u.health() == UnitHealth::Healthy && u.assigned_node().is_none())
            .count()
    }

    /// Fraction of healthy units currently assigned to jobs.
    pub fn utilization(&self) -> f64 {
        let healthy = self.device.healthy_unit_count();
        if healthy == 0 {
            return 0.0;
        }
        let busy = self
            .device
            .units()
            .iter()
            .filter(|u| u.health() == UnitHealth::Healthy && u.assigned_node().is_some())
            .count();
        busy as f64 / healthy as f64
    }

    /// Jobs currently loaded.
    pub fn running_jobs(&self) -> Vec<JobId> {
        let mut ids: Vec<JobId> = self.jobs.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Jobs waiting for capacity, in arrival order.
    pub fn queued_jobs(&self) -> Vec<JobId> {
        self.queue.iter().map(|(id, _, _)| *id).collect()
    }

    /// Queued jobs dropped because permanent unit failures shrank the
    /// device below their footprint (they could never be admitted).
    pub fn rejected_jobs(&self) -> &[JobId] {
        &self.rejected
    }

    /// A loaded job's program (placement inspection, fault targeting).
    pub fn program(&self, job: JobId) -> Option<&MappedProgram> {
        self.jobs.get(&job)
    }

    fn fresh_id(&mut self) -> JobId {
        let id = JobId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Submits a graph: loads it if enough units are free, queues it
    /// otherwise (FIFO admission — no overtaking).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::CapacityExceeded`] if the graph can *never*
    /// fit — more nodes than the device has *healthy* units (a job
    /// admitted against the total count would wedge the FIFO forever once
    /// permanent failures shrink the device) — or propagates programming
    /// failures.
    pub fn submit(&mut self, graph: DataflowGraph, policy: MappingPolicy) -> Result<JobStatus> {
        let healthy = self.device.healthy_unit_count();
        if graph.node_count() > healthy {
            return Err(FabricError::CapacityExceeded {
                needed: graph.node_count(),
                available: healthy,
            });
        }
        let id = self.fresh_id();
        // FIFO: if anything is already queued, join the queue.
        if !self.queue.is_empty() || graph.node_count() > self.free_units() {
            self.queue.push_back((id, graph, policy));
            self.publish_sched_state("jobs_queued");
            return Ok(JobStatus::Queued(id));
        }
        let prog = self.device.load_program(&graph, policy)?;
        self.jobs.insert(id, prog);
        self.publish_sched_state("jobs_admitted");
        Ok(JobStatus::Running(id))
    }

    /// Runs a stream of inputs through a loaded job.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] for unknown or queued jobs;
    /// propagates execution errors.
    pub fn run(
        &mut self,
        job: JobId,
        inputs: &[HashMap<NodeRef, Vec<f64>>],
        opts: &StreamOptions,
    ) -> Result<StreamReport> {
        let prog = self.jobs.get_mut(&job).ok_or_else(|| not_loaded(job))?;
        self.device.execute_stream(prog, inputs, opts)
    }

    /// Serves one request on a loaded job: the request-shaped twin of a
    /// one-item [`run`](Self::run) that borrows the resident program,
    /// the input and the injection tail instead of copying them. See
    /// [`CimDevice::serve`] for the arguments and the applied-injection
    /// count it returns.
    pub(crate) fn serve(
        &mut self,
        job: JobId,
        src: NodeRef,
        input: &[f64],
        sink: NodeRef,
        start: SimTime,
        tail: &[Injection],
    ) -> (Result<Served>, usize) {
        match self.jobs.get_mut(&job) {
            Some(prog) => self.device.serve(prog, src, input, sink, start, tail),
            None => (Err(not_loaded(job)), 0),
        }
    }

    /// Finishes a job: releases its units and admits queued jobs that now
    /// fit (FIFO). Returns the newly admitted job ids.
    ///
    /// Queued jobs that can *never* fit any more — permanent unit failures
    /// shrank the healthy pool below their footprint while they waited —
    /// are dropped into [`rejected_jobs`](Self::rejected_jobs) rather than
    /// left to wedge the FIFO in front of admissible work.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::InvalidConfig`] for unknown jobs; propagates
    /// programming failures during admission.
    pub fn finish(&mut self, job: JobId) -> Result<Vec<JobId>> {
        let prog = self.jobs.remove(&job).ok_or(FabricError::InvalidConfig {
            reason: format!("job {} is not loaded", job.0),
        })?;
        for &unit in &prog.placement().node_to_unit {
            self.device.unit_mut(unit).reset();
        }
        // FIFO admission: stop at the first job that does not fit *yet*;
        // drop jobs that cannot fit ever.
        let mut admitted = Vec::new();
        while let Some((id, graph, policy)) = self.queue.front().cloned() {
            if graph.node_count() > self.device.healthy_unit_count() {
                self.queue.pop_front();
                self.rejected.push(id);
                self.publish_sched_state("jobs_rejected");
                continue;
            }
            if graph.node_count() > self.free_units() {
                break;
            }
            self.queue.pop_front();
            let prog = self.device.load_program(&graph, policy)?;
            self.jobs.insert(id, prog);
            self.publish_sched_state("jobs_admitted");
            admitted.push(id);
        }
        self.publish_sched_state("jobs_finished");
        Ok(admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use crate::engine::InjectionKind;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::GraphBuilder;
    use cim_dataflow::ops::{Elementwise, Operation};
    use cim_noc::packet::NodeId;
    use cim_sim::prop::{check, PropConfig};
    use cim_sim::rng::Rng;
    use cim_sim::telemetry::TelemetryLevel;
    use cim_sim::time::SimDuration;
    use cim_sim::{prop_assert, prop_assert_eq, SimMode};

    fn small_runtime(units: usize) -> CimRuntime {
        CimRuntime::new(FabricConfig {
            mesh_width: units,
            mesh_height: 1,
            units_per_tile: 1,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .expect("runtime boots")
    }

    fn chain(nodes: usize) -> (DataflowGraph, NodeRef, NodeRef) {
        let mut b = GraphBuilder::new();
        let s = b.add("s", Operation::Source { width: 4 });
        let mut prev = s;
        for i in 0..nodes.saturating_sub(2) {
            let n = b.add(
                format!("m{i}"),
                Operation::Map {
                    func: Elementwise::Relu,
                    width: 4,
                },
            );
            b.connect(prev, n, 0).expect("chain");
            prev = n;
        }
        let k = b.add("k", Operation::Sink { width: 4 });
        b.connect(prev, k, 0).expect("chain");
        (b.build().expect("valid"), s, k)
    }

    #[test]
    fn admits_until_full_then_queues_fifo() {
        let mut rt = small_runtime(8);
        let (g1, _, _) = chain(4);
        let (g2, _, _) = chain(4);
        let (g3, _, _) = chain(3);
        let a = rt.submit(g1, MappingPolicy::RoundRobin).expect("fits");
        let b = rt.submit(g2, MappingPolicy::RoundRobin).expect("fits");
        let c = rt.submit(g3, MappingPolicy::RoundRobin).expect("queues");
        assert!(matches!(a, JobStatus::Running(_)));
        assert!(matches!(b, JobStatus::Running(_)));
        assert!(matches!(c, JobStatus::Queued(_)));
        assert_eq!(rt.running_jobs().len(), 2);
        assert_eq!(rt.queued_jobs(), vec![c.id()]);
        assert!((rt.utilization() - 1.0).abs() < 1e-12);

        // Finishing one job admits the queued one.
        let admitted = rt.finish(a.id()).expect("finish");
        assert_eq!(admitted, vec![c.id()]);
        assert_eq!(rt.running_jobs().len(), 2);
        assert!(rt.queued_jobs().is_empty());
    }

    #[test]
    fn fifo_prevents_overtaking() {
        let mut rt = small_runtime(8);
        let (g1, _, _) = chain(8);
        let (big, _, _) = chain(6);
        let (small, _, _) = chain(2);
        let a = rt.submit(g1, MappingPolicy::RoundRobin).expect("fits");
        let b = rt.submit(big, MappingPolicy::RoundRobin).expect("queues");
        let c = rt.submit(small, MappingPolicy::RoundRobin).expect("queues");
        assert!(matches!(b, JobStatus::Queued(_)));
        assert!(
            matches!(c, JobStatus::Queued(_)),
            "small job must not overtake the queued big one"
        );
        let admitted = rt.finish(a.id()).expect("finish");
        assert_eq!(admitted, vec![b.id(), c.id()], "admitted in order");
    }

    #[test]
    fn running_jobs_compute_queued_jobs_do_not() {
        let mut rt = small_runtime(4);
        let (g1, s1, k1) = chain(4);
        let (g2, _, _) = chain(4);
        let a = rt.submit(g1, MappingPolicy::RoundRobin).expect("fits");
        let b = rt.submit(g2, MappingPolicy::RoundRobin).expect("queues");

        let report = rt
            .run(
                a.id(),
                &[HashMap::from([(s1, vec![-1.0, 2.0, -3.0, 4.0])])],
                &StreamOptions::default(),
            )
            .expect("runs");
        assert_eq!(report.outputs[0][&k1], vec![0.0, 2.0, 0.0, 4.0]);

        let err = rt.run(b.id(), &[], &StreamOptions::default());
        assert!(matches!(err, Err(FabricError::InvalidConfig { .. })));
    }

    #[test]
    fn impossible_jobs_rejected_immediately() {
        let mut rt = small_runtime(4);
        let (g, _, _) = chain(10);
        assert!(matches!(
            rt.submit(g, MappingPolicy::RoundRobin),
            Err(FabricError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn admission_checks_healthy_units_not_total() {
        let mut rt = small_runtime(4);
        rt.device_mut().fail_unit(0);
        // 4 total units but only 3 healthy: a 4-node job can never fit.
        let (g, _, _) = chain(4);
        assert!(matches!(
            rt.submit(g, MappingPolicy::RoundRobin),
            Err(FabricError::CapacityExceeded {
                needed: 4,
                available: 3,
            })
        ));
        // A 3-node job still goes straight to Running.
        let (g3, _, _) = chain(3);
        let s = rt.submit(g3, MappingPolicy::RoundRobin).expect("fits");
        assert!(matches!(s, JobStatus::Running(_)));
    }

    #[test]
    fn permanently_unfittable_queued_job_is_dropped_not_wedged() {
        let mut rt = small_runtime(4);
        let (g1, _, _) = chain(4);
        let (g2, _, _) = chain(4);
        let (g3, _, _) = chain(2);
        let a = rt.submit(g1, MappingPolicy::RoundRobin).expect("fits");
        let b = rt.submit(g2, MappingPolicy::RoundRobin).expect("queues");
        let c = rt.submit(g3, MappingPolicy::RoundRobin).expect("queues");
        assert!(matches!(b, JobStatus::Queued(_)));

        // A permanent failure shrinks the device to 3 healthy units while
        // the 4-node job waits: it can never run again.
        rt.device_mut().fail_unit(0);
        let admitted = rt.finish(a.id()).expect("finish");
        // The dead job is dropped instead of blocking the FIFO, and the
        // 2-node job behind it is admitted.
        assert_eq!(admitted, vec![c.id()]);
        assert_eq!(rt.rejected_jobs(), &[b.id()]);
        assert!(rt.queued_jobs().is_empty());
        assert_eq!(rt.running_jobs(), vec![c.id()]);
    }

    #[test]
    fn finish_unknown_job_errors() {
        let mut rt = small_runtime(4);
        assert!(rt.finish(JobId(42)).is_err());
    }

    /// A runtime with `graph` resident and telemetry on at `Metrics`.
    fn twin(mode: SimMode, graph: &DataflowGraph) -> (CimRuntime, JobId) {
        let mut rt = CimRuntime::new(FabricConfig {
            sim_mode: mode,
            ..FabricConfig::default()
        })
        .expect("runtime boots");
        rt.device_mut().enable_telemetry(TelemetryLevel::Metrics);
        let job = rt
            .submit(graph.clone(), MappingPolicy::LocalityAware)
            .expect("fits")
            .id();
        (rt, job)
    }

    /// A one-item [`CimRuntime::run`] of `input` into `src`, reduced to
    /// what [`CimRuntime::serve`] returns.
    fn run_one(
        rt: &mut CimRuntime,
        job: JobId,
        (src, input, sink): (NodeRef, &[f64], NodeRef),
        start: SimTime,
        tail: &[Injection],
    ) -> Result<(SimTime, bool, Vec<f64>)> {
        let opts = StreamOptions {
            start,
            injections: tail.to_vec(),
            ..StreamOptions::default()
        };
        let mut report = rt.run(job, &[HashMap::from([(src, input.to_vec())])], &opts)?;
        let output = report.outputs[0].remove(&sink).expect("sink output");
        Ok((report.completed[0], !report.recoveries.is_empty(), output))
    }

    #[test]
    fn serve_matches_a_one_item_run_on_both_tiers() {
        let mix = cim_workloads::serving::standard_request_mix();
        check(
            "serve == one-item run",
            &PropConfig::cases(24),
            |rng| {
                let class = rng.gen_range(0..mix.len());
                let input: Vec<f64> = (0..mix[class].input_width())
                    .map(|_| rng.gen_range(-1.0..1.0))
                    .collect();
                // Extra injections: (offset from the start in ps, kind).
                let extras: Vec<(u64, u8)> = (0..rng.gen_range(0..4))
                    .map(|_| (rng.gen_range(0..40_000_000), rng.gen_range(0..3)))
                    .collect();
                (
                    rng.gen_range(0..2) == 1,
                    class,
                    rng.gen::<u64>(),
                    input,
                    (rng.gen_range(0..8usize), rng.gen_range(0..2_000u64)),
                    extras,
                )
            },
            |(analytic, class, seed, input, (victim, fail_ps), extras)| {
                let mode = if *analytic {
                    SimMode::Analytic
                } else {
                    SimMode::Detailed
                };
                let spec = &mix[*class % mix.len()];
                let (graph, src, sink) = spec.build_graph(cim_sim::SeedTree::new(*seed));
                let (mut a, job_a) = twin(mode, &graph);
                let (mut b, job_b) = twin(mode, &graph);
                let start = SimTime::from_ps(1_000_000 + seed % 1_000_000);
                // A non-source node's unit fails 1–2000 ps in: after the
                // source ran, before its own node runs, so recovery runs.
                let node = 1 + victim % (graph.node_count() - 1);
                let unit = a
                    .program(job_a)
                    .expect("resident")
                    .placement()
                    .unit_of(node);
                let mut tail = vec![Injection {
                    at: start + SimDuration::from_ps(1 + fail_ps),
                    kind: InjectionKind::FailUnit { unit },
                }];
                for &(offset, kind) in extras {
                    let kind = match kind {
                        0 => InjectionKind::Congestion {
                            from: NodeId::new(0, 0),
                            to: NodeId::new(3, 3),
                            packets: 8,
                            bytes: 256,
                        },
                        1 => InjectionKind::DriftSpike {
                            unit: (offset % 64) as usize,
                            drift_ppm: 50_000,
                        },
                        _ => InjectionKind::FailLink {
                            a: NodeId::new(1, 1),
                            b: NodeId::new(2, 1),
                        },
                    };
                    let at = start + SimDuration::from_ps(offset);
                    tail.push(Injection { at, kind });
                }
                tail.sort_by_key(|i| i.at);

                let (served, applied) = a.serve(job_a, src, input, sink, start, &tail);
                let ran = run_one(&mut b, job_b, (src, input, sink), start, &tail);
                let served = served.map(|s| (s.finished, s.recovered, s.output));
                let bits = |r: &Result<(SimTime, bool, Vec<f64>)>| {
                    r.clone()
                        .map(|(t, rec, out)| (t, rec, out.iter().map(|v| v.to_bits()).collect()))
                };
                let served_bits: Result<(SimTime, bool, Vec<u64>)> = bits(&served);
                prop_assert_eq!(served_bits, bits(&ran));
                if let Ok((finished, recovered, _)) = served {
                    prop_assert!(recovered, "the mid-request failure must recover");
                    let landed = tail.partition_point(|i| i.at <= finished);
                    prop_assert!(
                        (1..=landed).contains(&applied),
                        "applied {applied} of {landed} landed injections"
                    );
                }
                let meter = |rt: &CimRuntime| {
                    let m = rt.device().meter();
                    let accounts: Vec<(String, u64)> =
                        m.iter().map(|(k, e)| (k.to_owned(), e.as_fj())).collect();
                    (accounts, m.total().as_fj())
                };
                prop_assert_eq!(meter(&a), meter(&b));
                prop_assert!(
                    a.device().telemetry().export_jsonl() == b.device().telemetry().export_jsonl(),
                    "telemetry exports differ"
                );
                Ok(())
            },
        );
    }

    #[test]
    fn serve_and_run_reject_an_unfed_source_alike() {
        // Two sources feed an `Add`; a request feeds only the first.
        let mut b = GraphBuilder::new();
        let x = b.add("x", Operation::Source { width: 4 });
        let y = b.add("y", Operation::Source { width: 4 });
        let add = b.add("add", Operation::Add { width: 4 });
        let k = b.add("k", Operation::Sink { width: 4 });
        b.connect(x, add, 0).expect("port 0");
        b.connect(y, add, 1).expect("port 1");
        b.connect(add, k, 0).expect("sink");
        let graph = b.build().expect("valid");
        for mode in [SimMode::Analytic, SimMode::Detailed] {
            let (mut a, job_a) = twin(mode, &graph);
            let (mut b, job_b) = twin(mode, &graph);
            let input = [0.5; 4];
            let (served, applied) = a.serve(job_a, x, &input, k, SimTime::ZERO, &[]);
            let ran = run_one(&mut b, job_b, (x, &input, k), SimTime::ZERO, &[]);
            let err = served.expect_err("source y is unfed");
            assert_eq!(Err(err.clone()), ran);
            assert!(
                err.to_string().contains("missing input for source 'y'"),
                "{err}"
            );
            assert_eq!(applied, 0);
            // An unknown job is refused alike, too.
            let (served, _) = a.serve(JobId(9), x, &input, k, SimTime::ZERO, &[]);
            let ran = b.run(JobId(9), &[], &StreamOptions::default());
            assert_eq!(
                served.expect_err("not loaded"),
                ran.expect_err("not loaded")
            );
        }
    }
}
