//! The traced run: per-layer host cost, measured from outside.
//!
//! Untraced and traced samples of the same stream seed alternate. A
//! traced sample boots with the program's telemetry on at `Metrics`
//! level and counts heap allocations, times boot, each
//! `register_class` and the serving call, then replays each layer on
//! the stream's own inputs through that layer's public entry points:
//!
//! - `CimRuntime::run` once per admitted request (engine), on a fresh
//!   single-device replay target;
//! - `DotProductEngine::program` per class layer at boot, and `matvec`
//!   through each admitted request's layers (crossbar);
//! - `NocNetwork::transmit` (detailed) or `estimate` (analytic) along
//!   each cross-tile edge of the request's class placement (noc);
//! - `Observability::observe_request` + `sample_to` over the recorded
//!   outcome stream, where the workload has obs on (obs);
//! - `CimRuntime::power_cycle` once per scheduled power loss (persist).
//!
//! Spans (name, start, end, parent, request id, allocations) stay in
//! memory until the end. Replay spans are parented to the serving call
//! (engine, obs, persist) or to their request's engine span (crossbar,
//! noc), so a span's self time is its duration minus its children's:
//! the serving call's self time is the front door (service) or router
//! (fleet) cost, and the engine's self time excludes its DPE and NoC
//! work. Exact counts (read phases, ADC conversions, flit-hops,
//! recoveries, sheds, retries) come from the program's own telemetry;
//! they and the allocation counts cover the first `COUNTED_SAMPLES`
//! traced streams, so they repeat exactly for a given seed.

use crate::alloc;
use crate::report::{median, Ledger, Metric, Report};
use crate::workload::{
    class_graphs, fabric, reference_seed, request_inputs, run_sample, stream_seed, ClassGraph,
    Events, Outcome, Target, Workload,
};
use crate::Args;
use cim_crossbar::dpe::DotProductEngine;
use cim_crossbar::matrix::DenseMatrix;
use cim_dataflow::graph::NodeRef;
use cim_dataflow::ops::{Elementwise, Operation};
use cim_fabric::engine::StreamOptions;
use cim_fabric::fleet::FleetConfig;
use cim_fabric::service::{CimService, Disposition, RequestOutcome};
use cim_noc::network::NocNetwork;
use cim_noc::packet::{NodeId, Packet, TrafficClass};
use cim_obs::{ObsConfig, Observability, Observed, TrackSpec};
use cim_sim::telemetry::{MetricValue, Telemetry};
use cim_sim::time::SimTime;
use cim_sim::{SeedTree, SimMode};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One recorded span.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: Option<u64>,
    allocs: u64,
}

/// In-memory span recorder.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open_allocs: Vec<u64>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open_allocs: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str, parent: Option<usize>, request: Option<u64>) -> usize {
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
            allocs: 0,
        });
        self.open_allocs.push(0);
        // Snapshot after the recorder's own pushes, so their occasional
        // reallocation is never charged to the span.
        *self.open_allocs.last_mut().expect("just pushed") = alloc::allocs();
        let id = self.spans.len() - 1;
        self.spans[id].start_ns = self.now_ns();
        id
    }

    /// Closes the most recently entered open span, which must be `id`.
    fn exit(&mut self, id: usize) {
        let end = self.now_ns();
        let start_allocs = self.open_allocs.pop().expect("span was entered");
        let s = &mut self.spans[id];
        s.end_ns = end;
        s.allocs = alloc::allocs() - start_allocs;
    }

    fn dur_s(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }
}

/// Per-name totals over every span: (count, seconds, self seconds,
/// allocations).
fn totals(t: &Tracer) -> HashMap<&'static str, (u64, f64, f64, u64)> {
    let mut child_s = vec![0.0f64; t.spans.len()];
    for (i, s) in t.spans.iter().enumerate() {
        if let Some(p) = s.parent {
            child_s[p] += t.dur_s(i);
        }
    }
    let mut out: HashMap<&'static str, (u64, f64, f64, u64)> = HashMap::new();
    for (i, s) in t.spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t.dur_s(i);
        e.2 += t.dur_s(i) - child_s[i];
        e.3 += s.allocs;
    }
    out
}

/// A standalone DPE per matvec node of each class, programmed like the
/// device programs its units (same config, same tier).
struct CrossbarReplay {
    /// `engines[class]` maps node index → engine.
    engines: Vec<HashMap<usize, DotProductEngine>>,
}

/// What a traced sample hands its layer replays.
struct Replay<'a> {
    seed: u64,
    outcome: &'a Outcome,
    events: &'a Events,
    /// The serving call's span, parent of the replay spans.
    run: usize,
    tel: &'a Telemetry,
    /// Whether allocations are counted for this sample.
    counted: bool,
}

/// A standalone NoC shaped like the device's.
fn noc_replay(tier: SimMode) -> NocNetwork {
    let f = fabric(tier);
    let mut noc = NocNetwork::new(f.mesh_width, f.mesh_height, f.seed).expect("default mesh");
    noc.set_encryption(f.encryption);
    noc.set_mode(tier);
    noc
}

/// Cross-tile edges of each class on the replay device:
/// `(producer node, producer tile, consumer tile)`.
type Edges = Vec<Vec<(usize, NodeId, NodeId)>>;

fn cross_tile_edges(svc: &CimService, graphs: &[ClassGraph]) -> Edges {
    (0..graphs.len())
        .map(|c| {
            let job = svc.class_job(c).expect("registered");
            let rt = svc.runtime();
            let prog = rt.program(job).expect("resident");
            let tile = |node: usize| rt.device().unit(prog.placement().unit_of(node)).tile();
            let g = &graphs[c].graph;
            let mut edges = Vec::new();
            for &node in g.topo_order() {
                for p in g.inputs_of(NodeRef::from_index(node)) {
                    let (a, b) = (tile(p.index()), tile(node));
                    if a != b {
                        edges.push((p.index(), a, b));
                    }
                }
            }
            edges
        })
        .collect()
}

/// Traced samples whose exact counts (allocations, telemetry
/// counters) are reported. A fixed number, so the counts repeat exactly
/// for a given seed however fast the host runs the time-bounded loop.
const COUNTED_SAMPLES: u64 = 2;

/// Traced-run state across samples.
struct Traced {
    tracer: Tracer,
    /// Telemetry counters over the counted samples.
    tel_counts: HashMap<&'static str, u64>,
    offered: u64,
    admitted: u64,
    /// Offered requests of the counted samples.
    counted_offered: u64,
    dispatched: u64,
    voided: u64,
    boots: u64,
    power_cycles: u64,
    run_us: Vec<f64>,
    untraced_run_us: Vec<f64>,
}

/// Counter totals by metric name over the whole registry.
fn counter_totals(t: &Telemetry) -> HashMap<&'static str, u64> {
    let mut out = HashMap::new();
    for s in t.snapshot() {
        if let MetricValue::Counter(v) = s.value {
            let key = match (s.component.as_str(), s.metric) {
                (_, "read_phases") => "read_phases",
                (_, "conversions") => "conversions",
                ("noc", "flit_hops") => "flit_hops",
                ("engine", "recoveries") => "recoveries",
                ("service", m @ ("offered" | "admitted" | "shed" | "retries")) => m,
                _ => continue,
            };
            *out.entry(key).or_insert(0) += v;
        }
    }
    out
}

fn observed(r: &RequestOutcome) -> (SimTime, Observed) {
    match r.disposition {
        Disposition::Completed { finished, .. } => (
            finished,
            Observed::Done {
                latency: finished.saturating_since(r.arrival),
            },
        ),
        Disposition::TimedOut { finished, .. } => (finished, Observed::TimedOut),
        Disposition::Shed => (r.arrival, Observed::Shed),
        Disposition::Failed { .. } => (r.arrival, Observed::Failed),
    }
}

impl Traced {
    /// One traced sample of stream `seed`.
    fn sample(
        &mut self,
        w: Workload,
        seed: u64,
        n: usize,
        graphs: &[ClassGraph],
        ledger: &mut Ledger,
    ) {
        let tier = w.tier();
        let inputs: Vec<ClassGraph> = graphs.to_vec();
        let counted = self.boots < COUNTED_SAMPLES;
        let t = &mut self.tracer;
        alloc::set_counting(counted);
        let root = t.enter("sample", None, None);
        let boot = t.enter("runtime.boot", Some(root), None);
        let mut target = Target::new(w, tier, seed);
        t.exit(boot);
        let tel = target.enable_telemetry();
        // (register span, class, replicas) per class.
        let mut registered = Vec::with_capacity(inputs.len());
        for (c, class) in inputs.into_iter().enumerate() {
            let reg = t.enter("mapper.register", Some(root), None);
            target.register(class);
            t.exit(reg);
            let replicas = match &target {
                Target::Fleet(f) => f.replica_devices(c).len(),
                Target::Service(_) => 1,
            };
            registered.push((reg, c, replicas));
        }
        target.finish_boot(w);
        self.boots += 1;
        let events = crate::workload::schedule(w, &target, n, seed);
        let run = t.enter("run", Some(root), None);
        let outcome = target.run(w.rate_hz(), n, &events);
        t.exit(run);
        alloc::set_counting(false);
        drop(target);
        t.exit(root);
        self.run_us.push(t.dur_s(run) * 1e6 / n as f64);
        // Replay each class's crossbar writes, once per replica, under its
        // registration span.
        let mut xbar = CrossbarReplay {
            engines: Vec::new(),
        };
        alloc::set_counting(counted);
        for (reg, c, replicas) in registered {
            let mut engines = HashMap::new();
            for _ in 0..replicas {
                for (r, node) in graphs[c].graph.nodes() {
                    if let Operation::MatVec {
                        rows,
                        cols,
                        weights,
                    } = &node.op
                    {
                        let m = DenseMatrix::new(*rows, *cols, weights.clone()).expect("valid");
                        let f = fabric(tier);
                        let mut dpe = DotProductEngine::new(
                            f.dpe.clone(),
                            SeedTree::new(f.seed).child_idx(r.index() as u64),
                        );
                        dpe.set_mode(tier);
                        let sp = t.enter("crossbar.program", Some(reg), None);
                        dpe.program(&m).expect("programs");
                        t.exit(sp);
                        engines.insert(r.index(), dpe);
                    }
                }
            }
            xbar.engines.push(engines);
        }
        alloc::set_counting(false);
        ledger.book("traced", &outcome);
        self.offered += outcome.offered as u64;
        self.admitted += outcome.admitted as u64;
        if counted {
            for (k, v) in counter_totals(&tel) {
                *self.tel_counts.entry(k).or_insert(0) += v;
            }
            self.counted_offered += outcome.offered as u64;
            if let Some((_, voided)) = outcome.fleet_counts {
                self.dispatched += outcome.dispatched;
                self.voided += voided;
            }
        }
        let replay = Replay {
            seed,
            outcome: &outcome,
            events: &events,
            run,
            tel: &tel,
            counted,
        };
        self.replay(w, graphs, &mut xbar, replay);
    }

    /// Replays the stream's layers; spans hang under the serving call.
    fn replay(
        &mut self,
        w: Workload,
        graphs: &[ClassGraph],
        xbar: &mut CrossbarReplay,
        r: Replay<'_>,
    ) {
        let Replay {
            seed,
            outcome,
            events,
            run,
            tel,
            counted,
        } = r;
        let tier = w.tier();
        // A fresh single-device replay target (untimed boot).
        let mut target = Target::service(tier, seed);
        for c in graphs {
            target.register(c.clone());
        }
        let Target::Service(mut svc) = target else {
            unreachable!("Target::service boots a service")
        };
        let edges = cross_tile_edges(&svc, graphs);
        let mut noc = noc_replay(tier);
        let jobs: Vec<_> = (0..graphs.len())
            .map(|c| svc.class_job(c).expect("registered"))
            .collect();
        let inputs = request_inputs(seed, outcome.offered, graphs);
        let t = &mut self.tracer;
        alloc::set_counting(counted);
        // One pass per layer, so each pass's working set stays as warm as
        // it is inside the real call. Shed requests never reach the engine.
        let admitted: Vec<(&RequestOutcome, usize, &Vec<f64>)> = outcome
            .outcomes
            .iter()
            .zip(&inputs)
            .filter(|(r, _)| !matches!(r.disposition, Disposition::Shed))
            .map(|(r, (class, x))| (r, *class, x))
            .collect();
        // Engine: the whole request on the replay device.
        let mut engine_spans = Vec::with_capacity(admitted.len());
        for &(r, class, x) in &admitted {
            let item = HashMap::from([(graphs[class].src, x.clone())]);
            let opts = StreamOptions {
                start: r.arrival,
                ..StreamOptions::default()
            };
            let rt = svc.runtime_mut();
            let eng = t.enter("engine.run", Some(run), Some(r.id));
            black_box(rt.run(jobs[class], std::slice::from_ref(&item), &opts).ok());
            t.exit(eng);
            engine_spans.push(eng);
        }
        // Crossbar: the request's own activations through each layer.
        for (&(r, class, x), &eng) in admitted.iter().zip(&engine_spans) {
            let g = &graphs[class].graph;
            let mut values: HashMap<usize, Vec<f64>> = HashMap::new();
            for &node in g.topo_order() {
                let op = &g.node(NodeRef::from_index(node)).op;
                let input = match op {
                    Operation::Source { .. } => x.clone(),
                    _ => values[&g.inputs_of(NodeRef::from_index(node))[0].index()].clone(),
                };
                let out = match op {
                    Operation::MatVec { .. } => {
                        let dpe = xbar.engines[class].get_mut(&node).expect("programmed");
                        let sp = t.enter("crossbar.matvec", Some(eng), Some(r.id));
                        let y = dpe.matvec(&input).expect("matvec").values;
                        t.exit(sp);
                        y
                    }
                    Operation::Map {
                        func: Elementwise::Relu,
                        ..
                    } => input.iter().map(|v| v.max(0.0)).collect(),
                    _ => input,
                };
                values.insert(node, out);
            }
        }
        // NoC: each cross-tile edge of the class placement.
        let mut packet_id = 0u64;
        for (&(r, class, _), &eng) in admitted.iter().zip(&engine_spans) {
            let g = &graphs[class].graph;
            for &(p, from, to) in &edges[class] {
                let bytes = g.node(NodeRef::from_index(p)).op.output_width() * 8;
                packet_id += 1;
                if tier == SimMode::Analytic {
                    let sp = t.enter("noc.xfer", Some(eng), Some(r.id));
                    black_box(
                        noc.estimate(from, to, bytes, TrafficClass::Guaranteed, r.arrival)
                            .ok(),
                    );
                    t.exit(sp);
                } else {
                    let packet = Packet::new(packet_id, from, to, vec![0u8; bytes])
                        .with_stream(class as u64)
                        .with_class(TrafficClass::Guaranteed);
                    let sp = t.enter("noc.xfer", Some(eng), Some(r.id));
                    black_box(noc.transmit(&packet, r.arrival).ok());
                    t.exit(sp);
                }
            }
        }
        // Obs over the recorded outcome stream.
        if w == Workload::FleetObserved {
            let cfg = ObsConfig {
                tracks: TrackSpec::fleet_defaults(FleetConfig::default().devices),
                ..ObsConfig::default()
            };
            let tenants: Vec<_> = graphs
                .iter()
                .map(|g| (g.spec.name.to_string(), g.spec.deadline))
                .collect();
            let mut obs = Observability::new(&cfg, &tenants, tel);
            for r in &outcome.outcomes {
                let (at, what) = observed(r);
                let sp = t.enter("obs", Some(run), Some(r.id));
                obs.observe_request(r.class, at, what);
                tel.with_registry(|reg| obs.sample_to(r.arrival, reg));
                t.exit(sp);
            }
        }
        // Persist: the scheduled power cycles.
        for _ in 0..events.power_losses() {
            let sp = t.enter("persist.power_cycle", Some(run), None);
            black_box(svc.runtime_mut().power_cycle(true));
            t.exit(sp);
            self.power_cycles += 1;
        }
        alloc::set_counting(false);
    }
}

/// The traced run: every per-layer metric.
pub fn run(a: &Args) -> Report {
    let w = a.workload;
    let n = w.requests(a.brief);
    let graphs = class_graphs();
    let mut ledger = Ledger::default();
    let mut st = Traced {
        tracer: Tracer::new(),
        tel_counts: HashMap::new(),
        offered: 0,
        admitted: 0,
        counted_offered: 0,
        dispatched: 0,
        voided: 0,
        boots: 0,
        power_cycles: 0,
        run_us: Vec::new(),
        untraced_run_us: Vec::new(),
    };
    // Warm-up, untimed.
    let s = run_sample(w, w.tier(), reference_seed(0), n, &graphs);
    ledger.book("warm-up", &s.outcome);
    drop(s);
    let start = Instant::now();
    let mut i = 0;
    while if a.brief {
        i < 1
    } else {
        i < 2 || start.elapsed().as_secs_f64() < a.seconds
    } {
        let seed = stream_seed(a.seed, i);
        let s = run_sample(w, w.tier(), seed, n, &graphs);
        ledger.book("untraced", &s.outcome);
        ledger.character(&s.outcome);
        st.untraced_run_us.push(s.run_s * 1e6 / n as f64);
        drop(s);
        st.sample(w, seed, n, &graphs, &mut ledger);
        i += 1;
    }
    metrics(w, n, &st, ledger)
}

/// Obs cost per request in the stream's last tenth over its first
/// tenth (request ids restart at 0 on every fresh boot); 0 without obs.
fn obs_growth(t: &Tracer, n: usize) -> f64 {
    let tenth = (n / 10) as u64;
    let (mut first, mut last) = (0.0f64, 0.0f64);
    for (i, s) in t.spans.iter().enumerate() {
        match (s.name, s.request) {
            ("obs", Some(r)) if r < tenth => first += t.dur_s(i),
            ("obs", Some(r)) if r >= n as u64 - tenth => last += t.dur_s(i),
            _ => {}
        }
    }
    if first > 0.0 {
        last / first
    } else {
        0.0
    }
}

fn metrics(w: Workload, n: usize, st: &Traced, ledger: Ledger) -> Report {
    let tot = totals(&st.tracer);
    let get = |name: &str| tot.get(name).copied().unwrap_or_default();
    let offered = st.offered.max(1) as f64;
    let per_req_us = |s: f64| s * 1e6 / offered;
    let count = |k: &str| st.tel_counts.get(k).copied().unwrap_or(0) as f64;
    let boots = st.boots.max(1) as f64;
    // Exact counts cover the counted samples only.
    let per_counted = |v: f64| v / st.counted_offered.max(1) as f64;
    let counted_streams = st.boots.clamp(1, COUNTED_SAMPLES) as f64;

    let (_, run_s, run_self_s, run_allocs) = get("run");
    let (_, sample_s, sample_self_s, _) = get("sample");
    let (_, engine_s, engine_self_s, engine_allocs) = get("engine.run");
    let (_, matvec_s, _, _) = get("crossbar.matvec");
    let (_, noc_s, _, _) = get("noc.xfer");
    let (_, obs_s, _, obs_allocs) = get("obs");
    let (_, persist_s, _, persist_allocs) = get("persist.power_cycle");
    let (_, program_s, _, _) = get("crossbar.program");
    let (_, boot_s, _, _) = get("runtime.boot");
    let (_, register_s, _, _) = get("mapper.register");
    let is_fleet = w == Workload::FleetObserved;
    let front = |v: f64, fleet: bool| if fleet == is_fleet { v } else { 0.0 };
    let self_allocs = run_allocs as f64 - (engine_allocs + obs_allocs + persist_allocs) as f64;

    let growth = obs_growth(&st.tracer, n);
    let untraced = median(&st.untraced_run_us);
    let traced = median(&st.run_us);
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("crossbar.matvec_us_per_req", per_req_us(matvec_s), "us"),
        m(
            "crossbar.read_phases_per_req",
            per_counted(count("read_phases")),
            "count",
        ),
        m(
            "crossbar.adc_conversions_per_req",
            per_counted(count("conversions")),
            "count",
        ),
        m("crossbar.program_ms", program_s * 1e3 / boots, "ms"),
        m("runtime.boot_ms", boot_s * 1e3 / boots, "ms"),
        m("mapper.register_ms", register_s * 1e3 / boots, "ms"),
        m("noc.xfer_us_per_req", per_req_us(noc_s), "us"),
        m(
            "noc.flit_hops_per_req",
            per_counted(count("flit_hops")),
            "count",
        ),
        m("engine.run_us_per_req", per_req_us(engine_s), "us"),
        m("engine.self_us_per_req", per_req_us(engine_self_s), "us"),
        m(
            "engine.allocs_per_req",
            per_counted(engine_allocs as f64),
            "count",
        ),
        m(
            "engine.recoveries",
            count("recoveries") / counted_streams,
            "count/stream",
        ),
        m(
            "service.self_us_per_req",
            front(per_req_us(run_self_s), false),
            "us",
        ),
        m(
            "service.allocs_per_req",
            front(per_counted(self_allocs), false),
            "count",
        ),
        m(
            "service.shed_share",
            front(count("shed") / count("offered").max(1.0), false),
            "share",
        ),
        m(
            "service.retries_per_admitted",
            front(count("retries") / count("admitted").max(1.0), false),
            "ratio",
        ),
        m(
            "fleet.self_us_per_req",
            front(per_req_us(run_self_s), true),
            "us",
        ),
        m(
            "fleet.voided_per_dispatch",
            front(st.voided as f64 / st.dispatched.max(1) as f64, true),
            "ratio",
        ),
        m("obs.us_per_req", per_req_us(obs_s), "us"),
        m("obs.growth", growth, "ratio"),
        m(
            "persist.power_cycle_ms",
            if st.power_cycles == 0 {
                0.0
            } else {
                persist_s * 1e3 / st.power_cycles as f64
            },
            "ms",
        ),
        m(
            "run.allocs_per_req",
            per_counted(run_allocs as f64),
            "count",
        ),
        m(
            "run.unattributed_us_per_req",
            per_req_us(sample_self_s),
            "us",
        ),
        m("trace.overhead_pct", 100.0 * (traced / untraced - 1.0), "%"),
    ];
    let mut lines = vec![
        format!(
            "workload {} traced: {} samples, {} requests offered, {} admitted",
            w.name(),
            st.boots,
            st.offered,
            st.admitted
        ),
        format!(
            "run: {:.3} us/req traced (median {:.3}), untraced median {:.3} us/req",
            per_req_us(run_s),
            traced,
            untraced
        ),
        format!(
            "unattributed remainder: {:.3} us/req of {:.3} us/req per sample (outside boot, register and run)",
            per_req_us(sample_self_s),
            per_req_us(sample_s)
        ),
    ];
    lines.extend(ledger.lines());
    lines.push(ledger.character_check(w));
    Report {
        correct: ledger.breaches.is_empty(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
        lines,
    }
}
