//! The streaming execution engine.
//!
//! Executes a mapped dataflow program on the device: operators run on
//! their micro-units (analog matvec, digital everything else), results
//! travel between tiles as real packets over the NoC (encrypted if
//! configured), and pipelining emerges from per-unit and per-link busy
//! horizons — item *i+1* starts flowing while item *i* is still in the
//! back of the pipeline, exactly the dataflow behaviour the paper's §II.B
//! banks on.
//!
//! The engine also implements §V.A recovery: when a unit fails mid-stream,
//! the failure is detected, a spare is programmed (paying the full
//! crossbar write cost — CIM's recovery currency), the placement is
//! updated, and the in-flight item is replayed from its upstream-buffered
//! inputs.

use crate::device::CimDevice;
use crate::error::{FabricError, Result};
use crate::mapper::{map_graph, MappingPolicy, Placement};
use crate::security::CapabilityTable;
use crate::unit::UnitHealth;
use cim_crossbar::array::OpCost;
use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_dataflow::ops::Operation;
use cim_noc::packet::{NodeId, Packet, TrafficClass};
use cim_sim::analytic::SimMode;
use cim_sim::energy::Energy;
use cim_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Detection latency for a failed unit: a missed control heartbeat plus
/// fabric-manager notification (control-class packets, ~1 µs).
const FAULT_DETECTION: SimDuration = SimDuration::from_us(1);

/// A program loaded onto the device.
#[derive(Debug, Clone)]
pub struct MappedProgram {
    pub(crate) graph: DataflowGraph,
    pub(crate) placement: Placement,
    /// Cost of the initial configuration (crossbar programming).
    pub config_cost: OpCost,
    /// Stream identifier used for packets and capabilities.
    pub stream_id: u64,
}

impl MappedProgram {
    /// The program's graph.
    pub fn graph(&self) -> &DataflowGraph {
        &self.graph
    }

    /// The current placement (updated by recoveries).
    pub fn placement(&self) -> &Placement {
        &self.placement
    }
}

/// Options controlling stream execution.
#[derive(Debug, Clone, Default)]
pub struct StreamOptions {
    /// Gap between item injections; `ZERO` saturates the pipeline.
    pub inter_arrival: SimDuration,
    /// Injection time of the first item.
    pub start: SimTime,
    /// Capability policy; `None` disables checks.
    pub capabilities: Option<CapabilityTable>,
    /// Fault injections to land at precise sim-time points *during* the
    /// stream (chaos instrumentation). Each injection is applied once,
    /// the first time the stream's simulated clock passes its `at`, i.e.
    /// between two node executions of the item in flight — not merely
    /// between stream items. A caller that also drives
    /// [`CimDevice::apply_injection`] between streams must not hand the
    /// engine an injection it applied itself, or one the engine already
    /// applied: a drift spike or congestion burst applied twice lands
    /// twice (see [`CimDevice::apply_injection`]).
    pub injections: Vec<Injection>,
}

/// What a scheduled fault injection does to the device.
///
/// Variants are plain `Copy` data (rates in parts-per-million rather
/// than `f64` so schedules stay `Eq`-comparable for shrinking and
/// replay round-trips).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectionKind {
    /// Hard-fail a micro-unit (§V.A fault).
    FailUnit {
        /// Device-wide unit index.
        unit: usize,
    },
    /// Return a failed/fenced unit to the healthy spare pool.
    RepairUnit {
        /// Device-wide unit index.
        unit: usize,
    },
    /// Sever a bidirectional mesh link; traffic reroutes around it.
    FailLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Restore a previously severed mesh link.
    RepairLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Inject stuck-at cell faults into a unit's programmed crossbars
    /// (`cim_crossbar::faults::FaultCampaign`); a no-op on units without
    /// an analog engine.
    CellFaults {
        /// Device-wide unit index.
        unit: usize,
        /// Cell fault rate in parts-per-million; values past 1 000 000
        /// saturate there.
        rate_ppm: u32,
        /// Fraction of faults stuck ON (vs OFF), in parts-per-million;
        /// values past 1 000 000 saturate there.
        stuck_on_ppm: u32,
        /// Seed for the fault-placement RNG stream.
        seed: u64,
    },
    /// Apply a retention-drift spike to a unit's crossbars
    /// (`drift_fraction` in parts-per-million); a no-op on units
    /// without an analog engine.
    DriftSpike {
        /// Device-wide unit index.
        unit: usize,
        /// Drift fraction in parts-per-million.
        drift_ppm: u32,
    },
    /// A burst of best-effort background packets between two tiles,
    /// contending with stream traffic for link bandwidth.
    Congestion {
        /// Source tile.
        from: NodeId,
        /// Destination tile.
        to: NodeId,
        /// Number of packets in the burst.
        packets: u16,
        /// Payload size of each packet in bytes.
        bytes: u16,
    },
    /// Adversarial: the armed tile fabricates a capability token for
    /// `unit` and presents a stolen one cross-domain
    /// ([`crate::security::attack_forge_token`]); a no-op on unarmed
    /// devices.
    TokenForge {
        /// Victim unit the forged capability claims.
        unit: usize,
    },
    /// Adversarial: a captured token is replayed `age_ps` after issue —
    /// the authority must refuse it as replayed or expired
    /// ([`crate::security::attack_replay_token`]).
    TokenReplay {
        /// Victim unit the token covers.
        unit: usize,
        /// Capture-to-replay delay in picoseconds.
        age_ps: u64,
    },
    /// Adversarial: cross-partition packet injection plus exfiltration
    /// against a victim tile
    /// ([`crate::security::attack_cross_partition`]). The victim
    /// coordinate is folded into the mesh, so shrunk schedules stay
    /// applicable on any device size.
    CrossPartitionScan {
        /// Victim tile.
        victim: NodeId,
        /// Rounds of inject + exfiltrate probes.
        packets: u16,
        /// Probe payload size in bytes.
        bytes: u16,
    },
    /// Adversarial: a hostile self-programming patch built on the armed
    /// tile and launched at a victim tile as a control packet
    /// ([`crate::security::attack_hostile_self_prog`]).
    HostileSelfProg {
        /// Seed for the hostile patch parameters and target.
        seed: u64,
    },
    /// Adversarial: a hostile dataflow scanner program run on the armed
    /// tile, probing and exfiltrating from every mesh neighbour
    /// ([`crate::security::attack_hostile_dataflow`]).
    HostileDataflow {
        /// Seed for the scanner program parameters.
        seed: u64,
    },
}

/// A fault injection scheduled at an absolute sim-time point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// When the injection lands (applied the first time the stream
    /// clock passes this point).
    pub at: SimTime,
    /// What it does.
    pub kind: InjectionKind,
}

/// One recovery performed during a stream (§V.A).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Index of the item being processed when the fault surfaced.
    pub item: usize,
    /// The failed unit.
    pub failed_unit: usize,
    /// The spare that took over.
    pub replacement: usize,
    /// Detection + reprogramming overhead added to the item.
    pub overhead: SimDuration,
}

/// Results and telemetry of one stream execution.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Sink outputs per item.
    pub outputs: Vec<HashMap<NodeRef, Vec<f64>>>,
    /// Injection time per item.
    pub injected: Vec<SimTime>,
    /// Completion time per item.
    pub completed: Vec<SimTime>,
    /// Total energy of the stream (compute + interconnect).
    pub energy: Energy,
    /// Recoveries performed.
    pub recoveries: Vec<RecoveryEvent>,
}

impl StreamReport {
    /// Per-item end-to-end latencies.
    pub fn latencies(&self) -> Vec<SimDuration> {
        self.injected
            .iter()
            .zip(&self.completed)
            .map(|(&i, &c)| c.saturating_since(i))
            .collect()
    }

    /// Mean end-to-end latency; zero for empty streams.
    pub fn mean_latency(&self) -> SimDuration {
        let lats = self.latencies();
        if lats.is_empty() {
            SimDuration::ZERO
        } else {
            lats.iter().copied().sum::<SimDuration>() / lats.len() as u64
        }
    }

    /// First-injection to last-completion span.
    pub fn makespan(&self) -> SimDuration {
        match (self.injected.first(), self.completed.iter().max()) {
            (Some(&first), Some(&last)) => last.saturating_since(first),
            _ => SimDuration::ZERO,
        }
    }

    /// Sustained throughput in items/s; `None` for degenerate streams.
    pub fn throughput(&self) -> Option<f64> {
        let span = self.makespan().as_secs_f64();
        (span > 0.0).then(|| self.outputs.len() as f64 / span)
    }
}

fn encode_f64s(values: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 8);
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

fn decode_f64s(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect()
}

/// One item's input as the per-item core reads it.
#[derive(Clone, Copy)]
enum ItemInput<'a> {
    /// Every source's vector, keyed by node
    /// ([`CimDevice::execute_stream`]).
    Keyed(&'a HashMap<NodeRef, Vec<f64>>),
    /// The one source a request feeds ([`CimDevice::serve`]).
    One(NodeRef, &'a [f64]),
}

impl<'a> ItemInput<'a> {
    /// The vector fed to `source`, if any.
    fn get(self, source: NodeRef) -> Option<&'a [f64]> {
        match self {
            ItemInput::Keyed(item) => item.get(&source).map(Vec::as_slice),
            ItemInput::One(src, input) => (src == source).then_some(input),
        }
    }
}

/// What a stream carries from one item to the next.
struct StreamState<'a> {
    capabilities: Option<&'a CapabilityTable>,
    /// Injections sorted by `at`; the first `applied` have landed.
    injections: &'a [Injection],
    applied: usize,
    /// High-water mark of the stream clock (see
    /// [`CimDevice::apply_due_injections`]).
    water: SimTime,
    /// Compute and interconnect energy so far.
    energy: Energy,
    recoveries: Vec<RecoveryEvent>,
}

impl<'a> StreamState<'a> {
    fn new(
        start: SimTime,
        capabilities: Option<&'a CapabilityTable>,
        injections: &'a [Injection],
    ) -> Self {
        StreamState {
            capabilities,
            injections,
            applied: 0,
            water: start,
            energy: Energy::ZERO,
            recoveries: Vec::new(),
        }
    }
}

/// One item's run: every node's output, and when its last sink
/// finished.
struct ItemRun {
    values: Vec<Option<Vec<f64>>>,
    completed: SimTime,
}

/// One request served by [`CimDevice::serve`].
#[derive(Debug)]
pub(crate) struct Served {
    /// When the request's last sink finished.
    pub(crate) finished: SimTime,
    /// Whether a §V.A recovery ran underneath it.
    pub(crate) recovered: bool,
    /// The requested sink's output.
    pub(crate) output: Vec<f64>,
}

impl CimDevice {
    /// Loads a program: maps the graph and programs every assigned unit.
    ///
    /// The configuration latency is the *max* across units (they program
    /// in parallel); the energy is the sum. This is the static-dataflow
    /// configuration step of §III.B, dominated by memristor writes.
    ///
    /// # Errors
    ///
    /// Propagates mapping and programming failures.
    pub fn load_program(
        &mut self,
        graph: &DataflowGraph,
        policy: MappingPolicy,
    ) -> Result<MappedProgram> {
        let placement = map_graph(self, graph, policy)?;
        self.finish_load(graph, placement)
    }

    /// Programs every unit of `placement` with its node (in parallel);
    /// returns the configuration cost. Shared by initial load, partition
    /// failover and recovery paths.
    pub(crate) fn reprogram_placement(
        &mut self,
        graph: &DataflowGraph,
        placement: &Placement,
    ) -> Result<OpCost> {
        let seeds = self.seeds().child("program");
        let mut config_cost = OpCost::default();
        for (r, node) in graph.nodes() {
            let unit_idx = placement.unit_of(r.index());
            let config = self.config().clone();
            let cost = self
                .unit_mut(unit_idx)
                .assign(r.index(), &node.op, &config, seeds)?;
            config_cost = config_cost.par(cost);
        }
        self.meter_mut().charge("config", config_cost.energy);
        Ok(config_cost)
    }

    /// Completes a load from an externally computed placement (used by
    /// the partition manager).
    pub(crate) fn finish_load(
        &mut self,
        graph: &DataflowGraph,
        placement: Placement,
    ) -> Result<MappedProgram> {
        let config_cost = self.reprogram_placement(graph, &placement)?;
        let stream_id = self.next_packet_id();
        Ok(MappedProgram {
            graph: graph.clone(),
            placement,
            config_cost,
            stream_id,
        })
    }

    /// Finds a healthy spare for a node previously on `failed_unit`,
    /// preferring the same tile (cheapest recovery route).
    pub(crate) fn find_spare(&self, failed_unit: usize) -> Option<usize> {
        let tile = self.unit(failed_unit).tile();
        let mut candidates: Vec<usize> = self
            .units()
            .iter()
            .filter(|u| u.health() == UnitHealth::Healthy && u.assigned_node().is_none())
            .map(|u| u.index())
            .collect();
        candidates.sort_by_key(|&u| (self.unit(u).tile().manhattan(tile), u));
        candidates.first().copied()
    }

    /// Applies one fault injection to the device, immediately.
    ///
    /// Out-of-range unit indices and unknown links are ignored rather
    /// than panicking: replay files are external input, and a shrunk
    /// schedule must stay applicable on any device size.
    ///
    /// Apply each scheduled injection once. Health and link events are
    /// absolute state-sets and cell faults are seed-deterministic, so
    /// re-applying those changes nothing; but a drift spike compounds (a
    /// 10 % spike applied twice scales conductances by 0.9²), a
    /// congestion burst is sent again and an attack's probes are logged
    /// again.
    pub fn apply_injection(&mut self, inj: &Injection) {
        match inj.kind {
            InjectionKind::FailUnit { unit } => {
                if unit < self.units().len() {
                    self.fail_unit(unit);
                }
            }
            InjectionKind::RepairUnit { unit } => {
                if unit < self.units().len() {
                    self.unit_mut(unit).set_health(UnitHealth::Healthy);
                }
            }
            InjectionKind::FailLink { a, b } => {
                self.noc_mut().mesh_mut().fail_link(a, b);
            }
            InjectionKind::RepairLink { a, b } => {
                self.noc_mut().mesh_mut().repair_link(a, b);
            }
            InjectionKind::CellFaults {
                unit,
                rate_ppm,
                stuck_on_ppm,
                seed,
            } => {
                if unit < self.units().len() {
                    if let Some(dpe) = self.unit_mut(unit).dpe_mut() {
                        // Both are probabilities: any rate past 1 000 000
                        // ppm faults exactly the cells 1 000 000 does.
                        let campaign = cim_crossbar::faults::FaultCampaign::new(
                            f64::from(rate_ppm.min(1_000_000)) / 1e6,
                            f64::from(stuck_on_ppm.min(1_000_000)) / 1e6,
                        );
                        campaign.inject(dpe, cim_sim::SeedTree::new(seed));
                    }
                }
            }
            InjectionKind::DriftSpike { unit, drift_ppm } => {
                if unit < self.units().len() {
                    if let Some(dpe) = self.unit_mut(unit).dpe_mut() {
                        let frac = f64::from(drift_ppm) / 1e6;
                        dpe.for_each_array(|_, _, _, _, xbar| xbar.drift_all(1.0, frac));
                    }
                }
            }
            InjectionKind::Congestion {
                from,
                to,
                packets,
                bytes,
            } => {
                for _ in 0..packets {
                    let id = self.next_packet_id();
                    let pkt = Packet::new(id, from, to, vec![0u8; bytes as usize])
                        .with_class(TrafficClass::BestEffort);
                    let (_, noc) = self.units_and_noc_mut();
                    // Background traffic: a burst on a partitioned mesh
                    // simply doesn't arrive; that is not a stream error.
                    let _ = noc.transmit(&pkt, inj.at);
                }
            }
            InjectionKind::TokenForge { unit } => {
                crate::security::attack_forge_token(self, unit, inj.at);
            }
            InjectionKind::TokenReplay { unit, age_ps } => {
                crate::security::attack_replay_token(self, unit, age_ps, inj.at);
            }
            InjectionKind::CrossPartitionScan {
                victim,
                packets,
                bytes,
            } => {
                let w = self.config().mesh_width.max(1) as u16;
                let h = self.config().mesh_height.max(1) as u16;
                let victim = NodeId::new(victim.x % w, victim.y % h);
                crate::security::attack_cross_partition(self, victim, packets, bytes, inj.at);
            }
            InjectionKind::HostileSelfProg { seed } => {
                crate::security::attack_hostile_self_prog(self, seed, inj.at);
            }
            InjectionKind::HostileDataflow { seed } => {
                crate::security::attack_hostile_dataflow(self, seed, inj.at);
            }
        }
    }

    /// Applies every not-yet-applied injection whose `at` the stream
    /// clock has passed. `st.applied` counts the landed prefix of
    /// `st.injections` (sorted by `at`); `st.water` is the high-water
    /// mark of the stream's clock, which keeps the application order
    /// deterministic even though per-node ready times are not globally
    /// monotone across parallel branches.
    fn apply_due_injections(&mut self, st: &mut StreamState<'_>) {
        while let Some(&inj) = st.injections.get(st.applied) {
            if inj.at > st.water {
                break;
            }
            self.apply_injection(&inj);
            st.applied += 1;
        }
    }

    /// Executes a stream of inputs through a loaded program.
    ///
    /// Each element of `inputs` maps every source node to its input
    /// vector for that item. Items are injected `opts.inter_arrival`
    /// apart (back to back when zero) and pipeline through the fabric.
    ///
    /// When `opts.injections` is non-empty, each injection is applied
    /// the first time the stream's simulated clock reaches its `at` —
    /// between node executions of the in-flight item, so a mid-item
    /// unit failure takes the full §V.A detection/recovery path.
    ///
    /// # Errors
    ///
    /// Propagates interpreter-style input mismatches, interconnect
    /// failures, capability denials, and unrecoverable unit faults.
    pub fn execute_stream(
        &mut self,
        prog: &mut MappedProgram,
        inputs: &[HashMap<NodeRef, Vec<f64>>],
        opts: &StreamOptions,
    ) -> Result<StreamReport> {
        // A stable sort: injections sharing an `at` land in the
        // caller's order.
        let mut injections = opts.injections.clone();
        injections.sort_by_key(|i| i.at);
        let mut st = StreamState::new(opts.start, opts.capabilities.as_ref(), &injections);
        let sinks = prog.graph.sinks();
        let mut report = StreamReport {
            outputs: Vec::with_capacity(inputs.len()),
            injected: Vec::with_capacity(inputs.len()),
            completed: Vec::with_capacity(inputs.len()),
            energy: Energy::ZERO,
            recoveries: Vec::new(),
        };
        for (item_idx, item) in inputs.iter().enumerate() {
            let release = opts.start + opts.inter_arrival * item_idx as u64;
            let mut run =
                self.run_item(prog, &mut st, item_idx, ItemInput::Keyed(item), release)?;
            report.injected.push(release);
            report.completed.push(run.completed);
            report.outputs.push(
                sinks
                    .iter()
                    .map(|&s| (s, run.values[s.index()].take().expect("sink evaluated")))
                    .collect(),
            );
        }
        report.energy = st.energy;
        report.recoveries = st.recoveries;
        Ok(report)
    }

    /// Serves one request through a loaded program: `input` feeds
    /// source `src` at `start`, and the result is `sink`'s output.
    /// `tail` holds the injections, sorted by `at`, that may land while
    /// the request runs; it is read in place.
    ///
    /// Returns the outcome and how many of `tail`'s leading injections
    /// were applied, also when the outcome is an error: those have
    /// landed on the device.
    pub(crate) fn serve(
        &mut self,
        prog: &mut MappedProgram,
        src: NodeRef,
        input: &[f64],
        sink: NodeRef,
        start: SimTime,
        tail: &[Injection],
    ) -> (Result<Served>, usize) {
        let mut st = StreamState::new(start, None, tail);
        let served = self
            .run_item(prog, &mut st, 0, ItemInput::One(src, input), start)
            .map(|mut run| Served {
                finished: run.completed,
                recovered: !st.recoveries.is_empty(),
                output: run.values[sink.index()].take().expect("every node ran"),
            });
        (served, st.applied)
    }

    /// Runs one item through a loaded program: the per-node loop of
    /// both [`execute_stream`](Self::execute_stream) and
    /// [`serve`](Self::serve).
    ///
    /// It borrows the program's graph, reads the item's input and every
    /// producer's output in place, and takes each node's producers from
    /// the lists the graph computed when it was built. Per node it
    /// allocates only the node's output, plus the decoded payload of a
    /// packet that crossed the mesh on the detailed tier.
    fn run_item(
        &mut self,
        prog: &mut MappedProgram,
        st: &mut StreamState<'_>,
        item_idx: usize,
        item: ItemInput<'_>,
        release: SimTime,
    ) -> Result<ItemRun> {
        let graph = &prog.graph;
        for (r, node) in graph.nodes() {
            if matches!(node.op, Operation::Source { .. }) && item.get(r).is_none() {
                return Err(FabricError::Dataflow(
                    cim_dataflow::DataflowError::InputMismatch {
                        reason: format!("item {item_idx} missing input for source '{}'", node.name),
                    },
                ));
            }
        }
        // Recoveries and injections never rewrite the device
        // configuration, so one copy serves the whole item.
        let config = self.config().clone();
        let mode = config.sim_mode;
        let tel = self.telemetry().clone();
        let tel_engine = self.engine_component();
        let tel_noc = self.noc_component();
        st.water = st.water.max(release);
        self.apply_due_injections(st);
        let item_span = tel.span_enter(tel_engine, "item", release);
        // `dispatched` leads `items` by the in-flight count, so a
        // time-series recorder can watch work enter as well as leave.
        tel.counter_add(tel_engine, "dispatched", 1);
        let item_energy_start = st.energy;

        let n = graph.node_count();
        let mut values: Vec<Option<Vec<f64>>> = vec![None; n];
        let mut done: Vec<SimTime> = vec![release; n];
        let mut completed = release;

        for &node_idx in graph.topo_order() {
            let r = NodeRef::from_index(node_idx);
            let node = graph.node(r);
            let unit_idx = prog.placement.unit_of(node_idx);

            if let Some(caps) = st.capabilities {
                if !caps.allows(prog.stream_id, unit_idx) {
                    return Err(FabricError::CapabilityDenied {
                        stream: prog.stream_id,
                        unit: unit_idx,
                    });
                }
            }

            // Gather inputs: same-tile data is handed over locally,
            // cross-tile data rides the NoC as real packets. Values are
            // read where they lie; only a payload that crossed the mesh
            // as a packet is decoded into a vector of its own.
            let my_tile = self.unit(unit_idx).tile();
            let mut ready = release;
            let producers = graph.producers(r);
            let mut decoded: [Option<Vec<f64>>; Operation::MAX_ARITY] = Default::default();
            for (port, prod) in producers.iter().enumerate() {
                let pv = values[prod.index()]
                    .as_deref()
                    .expect("topological order guarantees producer ran");
                let p_done = done[prod.index()];
                let p_unit = prog.placement.unit_of(prod.index());
                let p_tile = self.unit(p_unit).tile();
                if p_tile == my_tile {
                    ready = ready.max(p_done);
                } else if mode == SimMode::Analytic {
                    // Analytic tier: cost the transfer in closed form
                    // from its byte size and hand the values over
                    // directly — no packet materialization, no
                    // encode/decode round-trip, no cipher work.
                    let (_, noc) = self.units_and_noc_mut();
                    let est = noc
                        .estimate(
                            p_tile,
                            my_tile,
                            pv.len() * 8,
                            TrafficClass::Guaranteed,
                            p_done,
                        )
                        .map_err(FabricError::from)?;
                    st.energy += est.energy;
                    self.meter_mut().charge("noc", est.energy);
                    let route = tel.span_enter_child(item_span, tel_noc, "route", p_done);
                    tel.span_exit(route, est.arrival, est.energy);
                    ready = ready.max(est.arrival);
                } else {
                    let id = self.next_packet_id();
                    let packet = Packet::new(id, p_tile, my_tile, encode_f64s(pv))
                        .with_stream(prog.stream_id)
                        .with_class(TrafficClass::Guaranteed);
                    let (_, noc) = self.units_and_noc_mut();
                    let delivery = noc.transmit(&packet, p_done).map_err(FabricError::from)?;
                    st.energy += delivery.energy;
                    self.meter_mut().charge("noc", delivery.energy);
                    let route = tel.span_enter_child(item_span, tel_noc, "route", p_done);
                    tel.span_exit(route, delivery.arrival, delivery.energy);
                    ready = ready.max(delivery.arrival);
                    decoded[port] = Some(decode_f64s(&delivery.payload));
                }
            }
            let is_source = matches!(node.op, Operation::Source { .. });
            let mut ins: [&[f64]; Operation::MAX_ARITY] = [&[]; Operation::MAX_ARITY];
            let arity = if is_source {
                // Sources inject: charge a digital pass-through.
                ins[0] = item.get(r).expect("sources checked at item start");
                1
            } else {
                for (port, prod) in producers.iter().enumerate() {
                    ins[port] = match &decoded[port] {
                        Some(v) => v,
                        None => values[prod.index()].as_deref().expect("producer ran"),
                    };
                }
                producers.len()
            };
            let ins = &ins[..arity];

            // Execute, with §V.A fenced-retry recovery on unit failure.
            // The loop survives *repeated* failures on one node: every
            // failed attempt fences one unit (clearing its stale
            // assignment so a later repair returns it to the spare
            // pool) and remaps to a fresh spare, so it is bounded by
            // the device's spare supply — `find_spare` draws from a
            // finite healthy pool and errors when it runs dry.
            let mut exec_unit = unit_idx;
            let mut when = ready;
            let (vals, t_done, energy) = loop {
                st.water = st.water.max(when);
                self.apply_due_injections(st);
                let exec = self
                    .unit_mut(exec_unit)
                    .execute(&node.op, ins, when, &config);
                match exec {
                    Ok(ok) => break ok,
                    Err(FabricError::NoSpareAvailable { unit: failed }) => {
                        // §V.A recovery: detect, fence, re-map,
                        // reprogram, replay from buffered inputs.
                        let spare = self
                            .find_spare(failed)
                            .ok_or(FabricError::NoSpareAvailable { unit: failed })?;
                        // The spare must itself be authorized: recovery
                        // is not a capability bypass (secure default —
                        // the orchestrator re-grants after a remap).
                        if let Some(caps) = st.capabilities {
                            if !caps.allows(prog.stream_id, spare) {
                                return Err(FabricError::CapabilityDenied {
                                    stream: prog.stream_id,
                                    unit: spare,
                                });
                            }
                        }
                        let seeds = self.seeds().child("recovery");
                        let program_cost = self
                            .unit_mut(spare)
                            .assign(node_idx, &node.op, &config, seeds)?;
                        self.meter_mut().charge("config", program_cost.energy);
                        // Fence: the node has moved, so the failed unit
                        // must not keep claiming it — a stale assignment
                        // would exclude the unit from the spare pool
                        // forever, even after repair.
                        self.unit_mut(failed).clear_assignment();
                        prog.placement.node_to_unit[node_idx] = spare;
                        let overhead = FAULT_DETECTION + program_cost.latency;
                        st.recoveries.push(RecoveryEvent {
                            item: item_idx,
                            failed_unit: failed,
                            replacement: spare,
                            overhead,
                        });
                        let detected = when;
                        when += overhead;
                        // Fault-to-recovery is a first-class span: the
                        // detection window plus the spare's programming,
                        // attributed to the failed unit with the write
                        // energy it cost.
                        let recovery_span = tel.span_enter_child(
                            item_span,
                            self.unit(failed).telemetry_component(),
                            "recovery",
                            detected,
                        );
                        tel.span_exit(recovery_span, when, program_cost.energy);
                        tel.counter_add(tel_engine, "recoveries", 1);
                        exec_unit = spare;
                    }
                    Err(e) => return Err(e),
                }
            };
            st.energy += energy;
            self.meter_mut().charge("compute", energy);
            if tel.is_enabled() {
                // `exec_unit` and `when` reflect any recovery remaps.
                let node_span = tel.span_enter_child(
                    item_span,
                    self.unit(exec_unit).telemetry_component(),
                    node.op.kind(),
                    when,
                );
                tel.span_exit(node_span, t_done, energy);
                tel.record(
                    tel_engine,
                    "dispatch_ns",
                    when.saturating_since(release).as_ps() / 1000,
                );
            }
            if matches!(node.op, Operation::Sink { .. }) {
                completed = completed.max(t_done);
            }
            values[node_idx] = Some(vals);
            done[node_idx] = t_done;
        }

        tel.span_exit(item_span, completed, st.energy - item_energy_start);
        if tel.is_enabled() {
            tel.counter_add(tel_engine, "items", 1);
            tel.record(
                tel_engine,
                "item_latency_ns",
                completed.saturating_since(release).as_ps() / 1000,
            );
        }
        Ok(ItemRun { values, completed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FabricConfig;
    use cim_crossbar::dpe::DpeConfig;
    use cim_dataflow::graph::GraphBuilder;
    use cim_dataflow::interpreter;
    use cim_dataflow::ops::{Elementwise, Operation, Reduction};

    fn device() -> CimDevice {
        CimDevice::new(FabricConfig {
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .unwrap()
    }

    fn mlp_graph() -> (DataflowGraph, NodeRef, NodeRef) {
        let mut b = GraphBuilder::new();
        let src = b.add("in", Operation::Source { width: 16 });
        let fc1 = b.add(
            "fc1",
            Operation::MatVec {
                rows: 16,
                cols: 8,
                weights: (0..128).map(|i| ((i % 7) as f64 - 3.0) / 10.0).collect(),
            },
        );
        let act = b.add(
            "relu",
            Operation::Map {
                func: Elementwise::Relu,
                width: 8,
            },
        );
        let fc2 = b.add(
            "fc2",
            Operation::MatVec {
                rows: 8,
                cols: 4,
                weights: (0..32).map(|i| ((i % 5) as f64 - 2.0) / 8.0).collect(),
            },
        );
        let arg = b.add(
            "argmax",
            Operation::Reduce {
                kind: Reduction::ArgMax,
                width: 4,
            },
        );
        let out = b.add("out", Operation::Sink { width: 1 });
        b.chain(&[src, fc1, act, fc2, arg, out]).unwrap();
        (b.build().unwrap(), src, out)
    }

    fn input_for(src: NodeRef, v: Vec<f64>) -> HashMap<NodeRef, Vec<f64>> {
        HashMap::from([(src, v)])
    }

    #[test]
    fn end_to_end_matches_reference_interpreter() {
        let mut d = device();
        let (g, src, out) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let x: Vec<f64> = (0..16).map(|i| ((i % 5) as f64) / 5.0).collect();
        let report = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();
        let reference = interpreter::execute(&g, &HashMap::from([(src, x)])).unwrap();
        // ArgMax class prediction should agree between analog and exact.
        assert_eq!(report.outputs[0][&out], reference[&out]);
        assert!(report.energy.as_fj() > 0);
        assert!(report.completed[0] > report.injected[0]);
    }

    #[test]
    fn pipelining_beats_serial_latency_sum() {
        let mut d = device();
        let (g, src, _) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let items: Vec<_> = (0..16)
            .map(|i| input_for(src, vec![(i % 4) as f64 / 4.0; 16]))
            .collect();
        let report = d
            .execute_stream(&mut prog, &items, &StreamOptions::default())
            .unwrap();
        let mean = report.mean_latency();
        let makespan = report.makespan();
        // With a 6-stage pipeline, 16 items should take far less than
        // 16 × mean latency.
        assert!(
            makespan.as_secs_f64() < 16.0 * mean.as_secs_f64() * 0.9,
            "pipelining expected: makespan {makespan} vs mean {mean}"
        );
        assert!(report.throughput().unwrap() > 0.0);
    }

    #[test]
    fn programming_cost_dominates_single_inference() {
        let mut d = device();
        let (g, src, _) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let report = d
            .execute_stream(
                &mut prog,
                &[input_for(src, vec![0.5; 16])],
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(
            prog.config_cost.latency > report.mean_latency(),
            "write asymmetry: config {} vs inference {}",
            prog.config_cost.latency,
            report.mean_latency()
        );
    }

    #[test]
    fn recovery_remaps_and_replays() {
        let mut d = device();
        let (g, src, out) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        // Process one clean item.
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let clean = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();
        // Fail the unit hosting fc1 (node index 1), then run again.
        let victim = prog.placement().unit_of(1);
        d.fail_unit(victim);
        let recovered = d
            .execute_stream(&mut prog, &[input_for(src, x)], &StreamOptions::default())
            .unwrap();
        assert_eq!(recovered.recoveries.len(), 1);
        let ev = recovered.recoveries[0];
        assert_eq!(ev.failed_unit, victim);
        assert_ne!(ev.replacement, victim);
        assert!(ev.overhead > FAULT_DETECTION, "reprogramming is the bulk");
        // Same answer after recovery.
        assert_eq!(recovered.outputs[0][&out], clean.outputs[0][&out]);
        // Placement updated: subsequent runs use the spare without events.
        let after = d
            .execute_stream(
                &mut prog,
                &[input_for(src, vec![0.25; 16])],
                &StreamOptions::default(),
            )
            .unwrap();
        assert!(after.recoveries.is_empty());
    }

    #[test]
    fn recovery_latency_measured_from_spans() {
        use cim_sim::telemetry::TelemetryLevel;
        let mut d = device();
        let tel = d.enable_telemetry(TelemetryLevel::Full);
        let (g, src, _) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let victim = prog.placement().unit_of(1);
        d.fail_unit(victim);
        let report = d
            .execute_stream(
                &mut prog,
                &[input_for(src, vec![0.5; 16])],
                &StreamOptions::default(),
            )
            .unwrap();
        assert_eq!(report.recoveries.len(), 1);
        let overhead = report.recoveries[0].overhead;
        // Span-based measurement agrees with the engine's own accounting.
        assert_eq!(d.recovery_latencies(), vec![overhead]);
        let spans = tel.completed_spans("recovery");
        assert_eq!(spans.len(), 1);
        assert_eq!(
            spans[0].component,
            d.unit(victim).telemetry_component(),
            "recovery attributed to the failed unit"
        );
        assert!(spans[0].energy.as_fj() > 0, "carries the reprogram energy");
        // The causal timeline exists: items, node ops and routes as spans.
        assert!(!tel.completed_spans("item").is_empty());
        assert!(!tel.completed_spans("matvec").is_empty());
        assert!(!tel.completed_spans("route").is_empty());
    }

    #[test]
    fn recovery_latency_survives_power_loss() {
        use cim_sim::telemetry::TelemetryLevel;
        let recover = |level: TelemetryLevel| {
            let mut d = device();
            d.enable_telemetry(level);
            let (g, src, _) = mlp_graph();
            let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
            d.fail_unit(prog.placement().unit_of(1));
            let report = d
                .execute_stream(
                    &mut prog,
                    &[input_for(src, vec![0.5; 16])],
                    &StreamOptions::default(),
                )
                .unwrap();
            assert_eq!(report.recoveries.len(), 1);
            // The crash's amnesia half: every piece of volatile device
            // state goes, the host-side telemetry stays.
            d.wipe_volatile();
            assert!(d.volatile_pristine());
            (d, report.recoveries[0].overhead)
        };
        let (d, overhead) = recover(TelemetryLevel::Full);
        assert_eq!(d.recovery_latencies(), vec![overhead]);
        // Spans are the only measurement: below `Full` there is none.
        let (d, _) = recover(TelemetryLevel::Metrics);
        assert!(d.recovery_latencies().is_empty());
    }

    #[test]
    fn fencing_clears_the_failed_units_assignment() {
        let mut d = device();
        let (g, src, _) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let victim = prog.placement().unit_of(1);
        d.fail_unit(victim);
        d.execute_stream(
            &mut prog,
            &[input_for(src, vec![0.5; 16])],
            &StreamOptions::default(),
        )
        .unwrap();
        assert_eq!(
            d.unit(victim).assigned_node(),
            None,
            "fenced unit must not keep a stale claim on its remapped node"
        );
    }

    #[test]
    fn repaired_unit_rejoins_the_spare_pool() {
        // 7 units, 6-node graph: exactly one spare at a time, so the
        // second recovery only succeeds if the first fenced unit rejoined
        // the pool after repair.
        let mut d = CimDevice::new(FabricConfig {
            mesh_width: 1,
            mesh_height: 1,
            units_per_tile: 7,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .unwrap();
        let (g, src, out) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::RoundRobin).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let clean = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();

        let victim = prog.placement().unit_of(1);
        d.fail_unit(victim);
        let first = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();
        assert_eq!(first.recoveries.len(), 1);

        // Repair the fenced unit; it must become a spare candidate again.
        d.unit_mut(victim).set_health(UnitHealth::Healthy);
        assert_eq!(
            d.find_spare(victim),
            Some(victim),
            "repaired unit must rejoin the spare pool"
        );

        // Fail node 1's new host: the only remaining spare is the repaired
        // victim, so this recovery exercises the fix end to end.
        let second_host = prog.placement().unit_of(1);
        d.fail_unit(second_host);
        let second = d
            .execute_stream(&mut prog, &[input_for(src, x)], &StreamOptions::default())
            .unwrap();
        assert_eq!(second.recoveries.len(), 1);
        assert_eq!(second.recoveries[0].replacement, victim);
        assert_eq!(second.outputs[0][&out], clean.outputs[0][&out]);
    }

    #[test]
    fn stream_survives_multiple_unit_failures() {
        let mut d = device();
        let (g, src, out) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let clean = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();
        // Three distinct units fail before one stream; every node recovers
        // within the same execute_stream call and no item is lost.
        let victims: Vec<usize> = (1..=3).map(|n| prog.placement().unit_of(n)).collect();
        for &v in &victims {
            d.fail_unit(v);
        }
        let items: Vec<_> = (0..4).map(|_| input_for(src, x.clone())).collect();
        let report = d
            .execute_stream(&mut prog, &items, &StreamOptions::default())
            .unwrap();
        assert_eq!(report.outputs.len(), 4, "no item lost");
        assert_eq!(report.recoveries.len(), 3);
        let failed: Vec<usize> = report.recoveries.iter().map(|r| r.failed_unit).collect();
        assert_eq!(failed, victims);
        for o in &report.outputs {
            assert_eq!(o[&out], clean.outputs[0][&out]);
        }
    }

    #[test]
    fn unrecoverable_when_no_spares() {
        let mut d = CimDevice::new(FabricConfig {
            mesh_width: 1,
            mesh_height: 1,
            units_per_tile: 6,
            dpe: DpeConfig::ideal(),
            ..FabricConfig::default()
        })
        .unwrap();
        let (g, src, _) = mlp_graph(); // exactly 6 nodes
        let mut prog = d.load_program(&g, MappingPolicy::RoundRobin).unwrap();
        d.fail_unit(prog.placement().unit_of(2));
        let res = d.execute_stream(
            &mut prog,
            &[input_for(src, vec![0.1; 16])],
            &StreamOptions::default(),
        );
        assert!(matches!(res, Err(FabricError::NoSpareAvailable { .. })));
    }

    #[test]
    fn missing_input_is_reported() {
        let mut d = device();
        let (g, _, _) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::RoundRobin).unwrap();
        let res = d.execute_stream(&mut prog, &[HashMap::new()], &StreamOptions::default());
        assert!(matches!(res, Err(FabricError::Dataflow(_))));
    }

    #[test]
    fn scheduled_injection_lands_mid_item_and_recovers() {
        let mut d = device();
        let (g, src, out) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let clean = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();
        // Schedule fc2's host to fail 1 ps into the item: the source node
        // executes first (injection not yet due at its attempt), then the
        // clock passes 1 ps and the failure lands mid-item, forcing the
        // §V.A recovery path when the stream reaches fc2.
        let victim = prog.placement().unit_of(3);
        let opts = StreamOptions {
            injections: vec![Injection {
                at: clean.injected[0] + SimDuration::from_ps(1),
                kind: InjectionKind::FailUnit { unit: victim },
            }],
            ..StreamOptions::default()
        };
        let report = d
            .execute_stream(&mut prog, &[input_for(src, x)], &opts)
            .unwrap();
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].failed_unit, victim);
        assert_eq!(report.outputs[0][&out], clean.outputs[0][&out]);
    }

    #[test]
    fn scheduled_link_failure_reroutes_without_error() {
        use cim_noc::packet::NodeId;
        let mut d = device();
        let (g, src, out) = mlp_graph();
        // RoundRobin spreads nodes across tiles so results ride the NoC.
        let mut prog = d.load_program(&g, MappingPolicy::RoundRobin).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64) / 16.0).collect();
        let clean = d
            .execute_stream(
                &mut prog,
                &[input_for(src, x.clone())],
                &StreamOptions::default(),
            )
            .unwrap();
        let opts = StreamOptions {
            injections: vec![Injection {
                at: clean.injected[0] + SimDuration::from_ps(1),
                kind: InjectionKind::FailLink {
                    a: NodeId::new(0, 0),
                    b: NodeId::new(1, 0),
                },
            }],
            ..StreamOptions::default()
        };
        let report = d
            .execute_stream(&mut prog, &[input_for(src, x)], &opts)
            .unwrap();
        // Values are routing-independent; only timing may change.
        assert_eq!(report.outputs[0][&out], clean.outputs[0][&out]);
        assert!(d.noc_mut().mesh_mut().link_failed(
            cim_noc::packet::NodeId::new(0, 0),
            cim_noc::packet::NodeId::new(1, 0)
        ));
    }

    #[test]
    fn injections_are_idempotent_state_sets() {
        let mut d = device();
        let inj = Injection {
            at: SimTime::ZERO,
            kind: InjectionKind::FailUnit { unit: 0 },
        };
        d.apply_injection(&inj);
        d.apply_injection(&inj); // a health state-set: re-application changes nothing
        assert_eq!(d.unit(0).health(), UnitHealth::Failed);
        let repair = Injection {
            at: SimTime::ZERO,
            kind: InjectionKind::RepairUnit { unit: 0 },
        };
        d.apply_injection(&repair);
        assert_eq!(d.unit(0).health(), UnitHealth::Healthy);
        // Out-of-range targets are ignored, not panics: shrunk replay
        // schedules must stay applicable on any device size.
        d.apply_injection(&Injection {
            at: SimTime::ZERO,
            kind: InjectionKind::CellFaults {
                unit: 10_000,
                rate_ppm: 1000,
                stuck_on_ppm: 500_000,
                seed: 1,
            },
        });
    }

    #[test]
    fn cell_fault_rates_past_one_saturate() {
        // Replay files carry raw ppm values; one past 1 000 000 used to
        // panic in the campaign mid-run instead of faulting every cell.
        let faulted = |rate_ppm, stuck_on_ppm| {
            let mut d = device();
            let (g, _, _) = mlp_graph();
            let prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
            let unit = prog.placement().unit_of(1);
            d.apply_injection(&Injection {
                at: SimTime::ZERO,
                kind: InjectionKind::CellFaults {
                    unit,
                    rate_ppm,
                    stuck_on_ppm,
                    seed: 3,
                },
            });
            let dpe = d
                .unit_mut(unit)
                .dpe_mut()
                .expect("fc1 sits on an analog unit");
            let mut faults = Vec::new();
            dpe.for_each_array(|_, _, _, _, xbar| faults.push(xbar.fault_count()));
            faults
        };
        let saturated = faulted(2_000_000, 3_000_000);
        assert_eq!(saturated, faulted(1_000_000, 1_000_000));
        assert!(saturated.iter().all(|&n| n == 128 * 128), "{saturated:?}");
    }

    /// Two sources meet in a two-input `Add`; the sum reaches one sink
    /// through a ReLU and, concatenated with one branch, a second sink.
    fn fan_in_graph() -> (DataflowGraph, [NodeRef; 2], [NodeRef; 2], NodeRef) {
        let mut b = GraphBuilder::new();
        let a = b.add("a", Operation::Source { width: 8 });
        let c = b.add("c", Operation::Source { width: 8 });
        let weights = |k: usize| {
            (0..32)
                .map(|i| (((i * k) % 9) as f64 - 4.0) / 9.0)
                .collect()
        };
        let fa = b.add(
            "fa",
            Operation::MatVec {
                rows: 8,
                cols: 4,
                weights: weights(5),
            },
        );
        let fc = b.add(
            "fc",
            Operation::MatVec {
                rows: 8,
                cols: 4,
                weights: weights(7),
            },
        );
        let sum = b.add("sum", Operation::Add { width: 4 });
        let relu = b.add(
            "relu",
            Operation::Map {
                func: Elementwise::Relu,
                width: 4,
            },
        );
        let cat = b.add("cat", Operation::Concat { left: 4, right: 4 });
        let k1 = b.add("k1", Operation::Sink { width: 4 });
        let k2 = b.add("k2", Operation::Sink { width: 8 });
        b.chain(&[a, fa]).unwrap();
        b.chain(&[c, fc]).unwrap();
        b.connect(fa, sum, 0).unwrap();
        b.connect(fc, sum, 1).unwrap();
        b.chain(&[sum, relu, k1]).unwrap();
        b.connect(fa, cat, 0).unwrap();
        b.connect(sum, cat, 1).unwrap();
        b.connect(cat, k2, 0).unwrap();
        (b.build().unwrap(), [a, c], [k1, k2], fc)
    }

    /// Pins every output of a multi-item stream on the detailed tier:
    /// encrypted cross-tile packets, a two-input node, two sinks, an
    /// unsorted injection list whose unit failure lands mid-item, and
    /// `Full` telemetry with spans.
    #[test]
    fn detailed_encrypted_fan_in_stream_is_pinned() {
        use cim_noc::packet::NodeId;
        use cim_sim::rng::Fnv1a;
        use cim_sim::telemetry::TelemetryLevel;
        let mut d = CimDevice::new(FabricConfig {
            encryption: true,
            ..FabricConfig::default()
        })
        .unwrap();
        let tel = d.enable_telemetry(TelemetryLevel::Full);
        let (g, [a, c], [k1, k2], fc) = fan_in_graph();
        // Round-robin puts the two branches and the sinks on different
        // tiles, so results cross the mesh as encrypted packets.
        let mut prog = d.load_program(&g, MappingPolicy::RoundRobin).unwrap();
        let items: Vec<HashMap<NodeRef, Vec<f64>>> = (0..3)
            .map(|i| {
                let x = |k: usize| -> Vec<f64> {
                    (0..8)
                        .map(|j| (((i + j * k) % 11) as f64 - 5.0) / 6.0)
                        .collect()
                };
                HashMap::from([(a, x(3)), (c, x(5))])
            })
            .collect();
        let start = SimTime::from_ps(5_000_000);
        let opts = StreamOptions {
            inter_arrival: SimDuration::from_us(2),
            start,
            capabilities: None,
            // Out of time order on purpose: the engine sorts them.
            injections: vec![
                Injection {
                    // 1 ps into item 1: after its sources, before `fc`.
                    at: start + SimDuration::from_us(2) + SimDuration::from_ps(1),
                    kind: InjectionKind::FailUnit {
                        unit: prog.placement().unit_of(fc.index()),
                    },
                },
                Injection {
                    at: start + SimDuration::from_ns(100),
                    kind: InjectionKind::Congestion {
                        from: NodeId::new(0, 0),
                        to: NodeId::new(3, 1),
                        packets: 12,
                        bytes: 512,
                    },
                },
            ],
        };
        let report = d.execute_stream(&mut prog, &items, &opts).unwrap();

        let mut bits = Fnv1a::new();
        for out in &report.outputs {
            assert_eq!(out.len(), 2);
            for k in [k1, k2] {
                for v in &out[&k] {
                    bits.write_u64(v.to_bits());
                }
            }
        }
        assert_eq!(bits.finish(), 0xe566_190b_1903_cb9c);
        let ps = |ts: &[SimTime]| ts.iter().map(|t| t.as_ps()).collect::<Vec<_>>();
        assert_eq!(ps(&report.injected), [5_000_000, 7_000_000, 9_000_000]);
        assert_eq!(ps(&report.completed), [6_547_520, 22_340_520, 23_840_040]);
        let recoveries: Vec<_> = report
            .recoveries
            .iter()
            .map(|r| (r.item, r.failed_unit, r.replacement, r.overhead.as_ps()))
            .collect();
        assert_eq!(recoveries, [(1, 3, 16, 13_800_000)]);
        assert_eq!(report.energy.as_fj(), 648_270_112);
        assert_eq!(d.meter().total().as_fj(), 8_512_597_112);
        assert_eq!(tel.spans().len(), 44);
        let mut export = Fnv1a::new();
        export.write(tel.export_jsonl().as_bytes());
        assert_eq!(export.finish(), 0x25ae_63b6_9b0f_d174);
    }

    #[test]
    fn inter_arrival_paces_injection() {
        let mut d = device();
        let (g, src, _) = mlp_graph();
        let mut prog = d.load_program(&g, MappingPolicy::LocalityAware).unwrap();
        let items: Vec<_> = (0..4).map(|_| input_for(src, vec![0.5; 16])).collect();
        let opts = StreamOptions {
            inter_arrival: SimDuration::from_us(100),
            ..StreamOptions::default()
        };
        let report = d.execute_stream(&mut prog, &items, &opts).unwrap();
        assert_eq!(
            report.injected[3].saturating_since(report.injected[0]),
            SimDuration::from_us(300)
        );
    }
}
