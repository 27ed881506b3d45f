//! Cross-crate determinism contract for the host-parallel layer.
//!
//! Running the simulator on more host threads must change wall-clock
//! time only — every modeled number (outputs, costs) and every
//! telemetry export must be bit-identical to the serial run. These
//! tests pin that contract end to end: crossbar batch matvec under a
//! noisy device model, multi-point bench sweeps, and the serving
//! observability exports, each at explicit thread counts 1, 2 and 8
//! (explicit so the tests cannot race on the `CIM_THREADS` environment
//! variable).

use cim_bench::experiments::sec6;
use cim_crossbar::dpe::{DotProductEngine, DpeConfig};
use cim_crossbar::matrix::DenseMatrix;
use cim_fabric::FabricConfig;
use cim_sim::telemetry::{Telemetry, TelemetryLevel};
use cim_sim::SeedTree;

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

#[test]
fn noisy_matvec_batch_is_bit_identical_across_thread_counts() {
    let w = DenseMatrix::from_fn(48, 24, |r, c| (((r * 7 + c) % 19) as f64 / 19.0) - 0.5);
    let xs: Vec<Vec<f64>> = (0..11)
        .map(|i| {
            (0..48)
                .map(|j| (((i + 2 * j) % 9) as f64 / 9.0) - 0.4)
                .collect()
        })
        .collect();
    let run = |threads: usize| {
        // Default config keeps programming/read noise on, so per-item
        // RNG reseeding is actually load-bearing here.
        let mut dpe = DotProductEngine::new(DpeConfig::default(), SeedTree::new(0xD373));
        let tel = Telemetry::new(TelemetryLevel::Metrics);
        dpe.attach_telemetry(&tel, "dpe0");
        dpe.program(&w).expect("programs");
        let (outs, cost) = dpe.matvec_batch_threads(&xs, threads).expect("runs");
        (outs, cost, tel.export_jsonl())
    };
    let (outs1, cost1, jsonl1) = run(1);
    assert!(!jsonl1.is_empty(), "telemetry export must not be empty");
    for threads in &THREAD_COUNTS[1..] {
        let (outs, cost, jsonl) = run(*threads);
        assert_eq!(outs, outs1, "outputs differ at threads={threads}");
        assert_eq!(cost, cost1, "cost differs at threads={threads}");
        assert_eq!(jsonl, jsonl1, "telemetry differs at threads={threads}");
    }
}

#[test]
fn bench_batch_curve_sweep_is_bit_identical_across_thread_counts() {
    let run = |threads: usize| sec6::run_batch_curve_threads(48, &[1, 3, 8], threads);
    let serial = run(1);
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(run(*threads), serial, "sweep differs at threads={threads}");
    }
}

#[test]
fn observability_exports_are_bit_identical_across_thread_counts() {
    use cim_bench::harness::parallel_points_threads;
    use cim_fabric::service::{CimService, ServiceConfig};
    use cim_obs::profile::Profile;
    use cim_obs::{alerts_jsonl, ObsConfig};
    use cim_workloads::serving::standard_request_mix;

    // One healthy and one overloaded point, each with full span tracing;
    // every observability artifact — time series, alert timeline, folded
    // flamegraph stacks (time and energy) — must be byte-identical no
    // matter how the points are scheduled on host threads.
    let rates = [100_000.0_f64, 3_200_000.0];
    let run = |threads: usize| {
        parallel_points_threads(threads, &rates, |i, &rate| {
            let seed = 0x0B5D ^ (i as u64);
            let mut svc = CimService::new(
                FabricConfig::default(),
                ServiceConfig::default(),
                SeedTree::new(seed),
            )
            .expect("boots");
            svc.runtime_mut()
                .device_mut()
                .enable_telemetry(TelemetryLevel::Full);
            svc.enable_observability(ObsConfig::default());
            for spec in standard_request_mix() {
                let (g, src, sink) = spec.build_graph(SeedTree::new(seed ^ 0x7E4A47));
                svc.register_class(spec.name, g, src, sink, spec.deadline, spec.weight)
                    .expect("resident");
            }
            let r = svc.run_open_loop(rate, 60, &[]).expect("serves");
            let tel = svc.runtime().device().telemetry().clone();
            let profile = Profile::from_telemetry(&tel, 16);
            (
                r.series_jsonl,
                alerts_jsonl(&r.alerts),
                profile.folded_time(),
                profile.folded_energy(),
            )
        })
    };
    let serial = run(1);
    assert!(!serial[0].0.is_empty(), "series export present");
    assert!(!serial[0].2.is_empty(), "folded stacks present");
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            run(*threads),
            serial,
            "obs exports differ at threads={threads}"
        );
    }
}

#[test]
fn serving_sweep_is_bit_identical_across_thread_counts() {
    use cim_bench::experiments::serving;

    // Two points spanning light load and overload; every field of a
    // ServingPoint — counters, percentiles, telemetry export — must be
    // byte-stable regardless of how the sweep is scheduled on host
    // threads.
    let run = |threads: usize| serving::run_threads(&[100_000.0, 3_200_000.0], 120, 0xA11, threads);
    let serial = run(1);
    assert_eq!(serial.len(), 2);
    assert!(
        !serial[0].telemetry_jsonl.is_empty(),
        "telemetry export must not be empty"
    );
    assert!(serial[1].shed > 0, "second point must be past saturation");
    for threads in &THREAD_COUNTS[1..] {
        assert_eq!(run(*threads), serial, "sweep differs at threads={threads}");
    }
}
