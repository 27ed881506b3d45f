//! Micro-benchmarks of the simulator's hot paths: the analog crossbar
//! read, the DPE matvec, NoC transmission, cache replay, the dataflow
//! interpreter, TCAM search and stateful logic.
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
use cim_noc::packet::{NodeId, Packet};
use cim_sim::time::SimTime;
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
    bench_associative();
}
