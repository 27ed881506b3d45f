//! Micro-benchmarks of the simulator's hot paths: the analog crossbar
//! read, the DPE matvec, NoC transmission, cache replay, the dataflow
//! interpreter, the observability pipeline, TCAM search and stateful
//! logic.
//!
//! Runs on the in-tree harness ([`cim_bench::harness`]); one JSON line per
//! benchmark on stdout: `cargo bench --bench hotpaths > BENCH_hotpaths.json`.

use std::hint::black_box;

use cim_baseline::CpuModel;
use cim_bench::harness::Group;
use cim_crossbar::array::CrossbarArray;
use cim_crossbar::device::DeviceParams;
use cim_crossbar::dpe::{DotProductEngine, DpeConfig};
use cim_crossbar::logic::StatefulLogicEngine;
use cim_crossbar::matrix::DenseMatrix;
use cim_crossbar::tcam::{Tcam, TernaryPattern};
use cim_dataflow::interpreter::execute;
use cim_fabric::{CimDevice, FabricConfig, MappingPolicy, StreamOptions};
use cim_noc::network::NocNetwork;
use cim_noc::packet::{NodeId, Packet, TrafficClass};
use cim_sim::analytic::SimMode;
use cim_sim::time::{SimDuration, SimTime};
use cim_sim::SeedTree;
use cim_workloads::nn::mlp_graph;
use std::collections::HashMap;

fn bench_crossbar() {
    let mut g = Group::new("crossbar");
    let seeds = SeedTree::new(1);

    let mut ideal = CrossbarArray::new(128, 128, DeviceParams::ideal(2), seeds);
    ideal.program_levels(&vec![2u16; 128 * 128]).unwrap();
    let mask = vec![true; 128];
    g.throughput(128 * 128);
    g.bench("read_phase_128x128_ideal", || {
        black_box(ideal.read_phase(black_box(&mask)).unwrap())
    });

    let mut noisy = CrossbarArray::new(128, 128, DeviceParams::default(), seeds);
    noisy.program_levels(&vec![2u16; 128 * 128]).unwrap();
    g.bench("read_phase_128x128_noisy", || {
        black_box(noisy.read_phase(black_box(&mask)).unwrap())
    });

    let w = DenseMatrix::from_fn(128, 128, |r, cc| (((r + cc) % 17) as f64 / 17.0) - 0.5);
    let mut dpe = DotProductEngine::new(DpeConfig::noise_free(), seeds);
    dpe.program(&w).unwrap();
    let x = vec![0.3; 128];
    g.bench("dpe_matvec_128", || {
        black_box(dpe.matvec(black_box(&x)).unwrap())
    });

    // The serving mix's largest layer on the calibrated engine, on both
    // tiers, with a mixed-sign input.
    let w = DenseMatrix::from_fn(64, 32, |r, cc| (((r * 3 + cc) % 23) as f64 / 23.0) - 0.5);
    let x: Vec<f64> = (0..64)
        .map(|i| ((i * 7 % 19) as f64 / 19.0) - 0.45)
        .collect();
    g.throughput(64 * 32);
    for (name, mode) in [
        ("dpe_matvec_64x32_noisy", SimMode::Detailed),
        ("dpe_matvec_64x32_analytic", SimMode::Analytic),
    ] {
        let mut dpe = DotProductEngine::new(DpeConfig::default(), seeds);
        dpe.set_mode(mode);
        dpe.program(&w).unwrap();
        g.bench(name, || black_box(dpe.matvec(black_box(&x)).unwrap()));
    }
    g.finish();
}

fn bench_noc() {
    let mut g = Group::new("noc");
    g.bench_with_setup(
        "transmit_8hops_plain",
        || NocNetwork::new(8, 8, 7).unwrap(),
        |noc| {
            let p = Packet::new(1, NodeId::new(0, 0), NodeId::new(7, 7), vec![0u8; 64]);
            black_box(noc.transmit(&p, SimTime::ZERO).unwrap())
        },
    );
    g.bench_with_setup(
        "transmit_8hops_encrypted",
        || {
            let mut noc = NocNetwork::new(8, 8, 7).unwrap();
            noc.set_encryption(true);
            noc
        },
        |noc| {
            let p = Packet::new(1, NodeId::new(0, 0), NodeId::new(7, 7), vec![0u8; 64]);
            black_box(noc.transmit(&p, SimTime::ZERO).unwrap())
        },
    );

    // A fixed stream over one warm 4×4 network (the default device's
    // mesh): 0- to 4-hop routes, all three classes, 16–512 byte payloads,
    // one departure every 40 ns. Each pass replays the stream one stream
    // length later, so link utilisation stays put while every link's
    // state is already populated.
    const STREAM: u64 = 256;
    let node = |i: u64| NodeId::new((i % 4) as u16, (i / 4 % 4) as u16);
    let packets: Vec<Packet> = (0..STREAM)
        .map(|i| {
            Packet::new(i, node(i * 5), node(i * 3 + 2), vec![0u8; 16 << (i % 6)])
                .with_class(TrafficClass::ALL[(i % 3) as usize])
        })
        .collect();
    let gap = SimDuration::from_ns(40);
    g.throughput(STREAM);
    for (name, mode) in [
        ("estimate_stream_4x4", SimMode::Analytic),
        ("transmit_stream_4x4", SimMode::Detailed),
    ] {
        let mut noc = NocNetwork::new(4, 4, 7).unwrap();
        let mut epoch = SimTime::ZERO;
        let mut pass = |noc: &mut NocNetwork| {
            for (p, i) in packets.iter().zip(0..) {
                let at = epoch + gap * i;
                if mode == SimMode::Analytic {
                    black_box(noc.estimate(p.src, p.dst, p.len(), p.class, at).unwrap());
                } else {
                    black_box(noc.transmit(p, at).unwrap());
                }
            }
            epoch += gap * STREAM;
        };
        pass(&mut noc);
        g.bench(name, || pass(&mut noc));
    }
    g.finish();
}

fn bench_cache() {
    let mut g = Group::new("cache");
    let cpu = CpuModel::new(1).unwrap();
    let hot: Vec<u64> = (0..4096u64).map(|i| (i % 512) * 8).collect();
    let cold: Vec<u64> = (0..4096u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % (64 << 20))
        .collect();
    g.throughput(4096);
    g.bench("trace_replay_hot", || {
        black_box(cpu.run_trace(black_box(&hot)))
    });
    g.bench("trace_replay_cold", || {
        black_box(cpu.run_trace(black_box(&cold)))
    });
    g.finish();
}

fn bench_dataflow() {
    let mut g = Group::new("dataflow");
    let (graph, src, _) = mlp_graph(&[128, 64, 16], SeedTree::new(3));
    let inputs = HashMap::from([(src, vec![0.5; 128])]);
    g.bench("interpreter_mlp_128_64_16", || {
        black_box(execute(black_box(&graph), black_box(&inputs)).unwrap())
    });
    g.bench("graph_metrics", || black_box(graph.metrics()));
    g.finish();
}

fn bench_fabric() {
    let mut g = Group::new("fabric");
    g.sample_size(20);
    let (graph, src, _) = mlp_graph(&[128, 64, 16], SeedTree::new(5));
    let mut device = CimDevice::new(FabricConfig {
        dpe: DpeConfig::noise_free(),
        ..FabricConfig::default()
    })
    .unwrap();
    let mut prog = device
        .load_program(&graph, MappingPolicy::LocalityAware)
        .unwrap();
    let items = vec![HashMap::from([(src, vec![0.5; 128])])];
    g.bench("execute_stream_1_item", || {
        device.reset_occupancy();
        black_box(
            device
                .execute_stream(&mut prog, black_box(&items), &StreamOptions::default())
                .unwrap(),
        )
    });
    g.finish();
}

/// The telemetry tentpole's overhead contract: with the handle disabled
/// the instrumented matvec path must stay within noise (≤5%) of its
/// pre-instrumentation cost, and enabling metrics must stay cheap enough
/// to leave on under load. Compare the disabled/enabled lines directly —
/// the pair shares one programmed engine and input.
fn bench_telemetry() {
    use cim_sim::telemetry::{Telemetry, TelemetryLevel};
    let mut g = Group::new("telemetry");
    let seeds = SeedTree::new(9);
    let w = DenseMatrix::from_fn(128, 128, |r, cc| (((r + cc) % 17) as f64 / 17.0) - 0.5);
    let x = vec![0.3; 128];

    let mut off = DotProductEngine::new(DpeConfig::noise_free(), seeds);
    off.program(&w).unwrap();
    g.bench("dpe_matvec_128_telemetry_off", || {
        black_box(off.matvec(black_box(&x)).unwrap())
    });

    let mut on = DotProductEngine::new(DpeConfig::noise_free(), seeds);
    let tel = Telemetry::new(TelemetryLevel::Metrics);
    on.attach_telemetry(&tel, "tile(0,0)/mu0");
    on.program(&w).unwrap();
    g.bench("dpe_matvec_128_telemetry_metrics", || {
        black_box(on.matvec(black_box(&x)).unwrap())
    });
    g.finish();
}

/// The observability pipeline at one `fleet_observed` stream's scale:
/// the SLO engine over 20 000 near-ordered finishes of the standard
/// three-tenant mix, and the series export of 22 fleet tracks × 1 250
/// ticks.
fn bench_obs() {
    use cim_obs::slo::{BurnRateRule, SloEngine, SloSpec};
    use cim_obs::{TimeSeriesRecorder, TrackSpec};
    use cim_sim::rng::Rng;
    use cim_sim::time::SimDuration;
    let mut g = Group::new("obs");

    let specs: Vec<SloSpec> = cim_workloads::serving::standard_request_mix()
        .iter()
        .map(|c| SloSpec::for_tenant(c.name, c.deadline))
        .collect();
    // Arrivals 625 ns apart on average (1.6 M req/s), each finishing
    // 2–30 µs later, so finish times arrive nearly in order; one in 20
    // is bad.
    let mut rng = SeedTree::new(11).rng("obs");
    let mut arrival = 0u64;
    let finishes: Vec<(usize, SimTime, bool)> = (0..20_000)
        .map(|_| {
            arrival += rng.gen_range(1u64..1_250_000);
            let finish = arrival + rng.gen_range(2_000_000u64..30_000_000);
            let tenant = rng.gen_range(0..specs.len());
            (tenant, SimTime::from_ps(finish), !rng.gen_bool(0.05))
        })
        .collect();
    g.bench("slo_observe_20k", || {
        let mut engine = SloEngine::new(specs.clone(), BurnRateRule::default_rules());
        for &(tenant, at, good) in &finishes {
            engine.observe(tenant, at, good, false);
        }
        engine.alerts().len()
    });

    let mut rec = TimeSeriesRecorder::new(SimDuration::from_us(10), 4096);
    for t in TrackSpec::fleet_defaults(4) {
        rec.track(&t.component, t.label);
    }
    // Ticks at 0, 10, …, 12 490 µs: counts, with every third track a
    // fraction like a latency quantile.
    let mut n = 0u64;
    rec.sample_to(SimTime::from_ns(12_490_000), |track| {
        n += 7;
        if track % 3 == 0 {
            n as f64 * 1.37
        } else {
            n as f64
        }
    });
    g.bench("series_export_fleet", || rec.export_jsonl());
    g.finish();
}

fn bench_associative() {
    let mut g = Group::new("associative");
    let mut cam = Tcam::new(1024, 32);
    for i in 0..1024u64 {
        cam.insert(TernaryPattern::exact(i, 32).unwrap()).unwrap();
    }
    g.bench("tcam_search_1024", || black_box(cam.search(black_box(512))));

    let mut logic = StatefulLogicEngine::new(8);
    logic.write(0, 0xDEAD_BEEF_CAFE_F00D);
    logic.write(1, 0x0123_4567_89AB_CDEF);
    g.bench("stateful_logic_add64", || {
        black_box(logic.add(0, 1, 2, [3, 4, 5]))
    });
    g.finish();
}

fn main() {
    cim_bench::harness::emit_calibration();
    bench_crossbar();
    bench_noc();
    bench_cache();
    bench_dataflow();
    bench_fabric();
    bench_telemetry();
    bench_obs();
    bench_associative();
}
