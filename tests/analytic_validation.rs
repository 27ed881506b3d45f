//! Cross-tier validation of the analytic fast path against the DES.
//!
//! Exactness where the math is exact: on contention-free streams the
//! analytic tier's closed-form crossbar/NoC costs are the *same
//! integers* the detailed flow-level simulation produces — not merely
//! close.
//!
//! The statistical agreement bounds (latency ±10%, energy ±5% under
//! contention) are enforced by the `analytic_check` CI gate; this file
//! holds only the exact, always-true invariants.

use cim_fabric::{CimDevice, FabricConfig, MappingPolicy, StreamOptions};
use cim_sim::{SeedTree, SimMode};
use cim_workloads::nn::{mlp_graph, random_inputs};
use std::collections::HashMap;

fn config(mode: SimMode) -> FabricConfig {
    FabricConfig {
        dpe: cim_crossbar::dpe::DpeConfig::ideal(),
        sim_mode: mode,
        ..FabricConfig::default()
    }
}

#[test]
fn analytic_stream_is_exactly_detailed_when_contention_free() {
    // One item through a cross-tile MLP: no queueing anywhere, so the
    // analytic tier's zero-load floor and closed-form crossbar costs
    // must reproduce the DES integers bit for bit.
    let (graph, src, sink) = mlp_graph(&[24, 16, 8], SeedTree::new(7));
    let input = random_inputs(1, 24, SeedTree::new(11)).remove(0);
    let run = |mode: SimMode| {
        let mut d = CimDevice::new(config(mode)).expect("device");
        let mut prog = d
            .load_program(&graph, MappingPolicy::RoundRobin)
            .expect("loads");
        d.execute_stream(
            &mut prog,
            &[HashMap::from([(src, input.clone())])],
            &StreamOptions::default(),
        )
        .expect("runs")
    };
    let det = run(SimMode::Detailed);
    let ana = run(SimMode::Analytic);
    // Values: the analytic tier returns the exact quantized product,
    // the detailed tier adds a 16-bit ADC round-trip — near-equal, not
    // bitwise (the cost integers below *are* bitwise).
    for (d, a) in det.outputs[0][&sink].iter().zip(&ana.outputs[0][&sink]) {
        assert!((d - a).abs() < 1e-3, "value drift: {d} vs {a}");
    }
    assert_eq!(det.completed, ana.completed, "latency must match exactly");
    assert_eq!(det.energy, ana.energy, "energy must match exactly");
}

#[test]
fn analytic_stream_stays_exact_under_load_free_pacing() {
    // Items spaced far apart: the pipeline never overlaps, links stay
    // effectively idle, and every per-item latency must equal the
    // detailed number even though utilisation telemetry accumulates.
    let (graph, src, _) = mlp_graph(&[16, 8], SeedTree::new(9));
    let items: Vec<_> = random_inputs(6, 16, SeedTree::new(13))
        .into_iter()
        .map(|x| HashMap::from([(src, x)]))
        .collect();
    let opts = StreamOptions {
        inter_arrival: cim_sim::time::SimDuration::from_ms(1),
        ..StreamOptions::default()
    };
    let run = |mode: SimMode| {
        let mut d = CimDevice::new(config(mode)).expect("device");
        let mut prog = d
            .load_program(&graph, MappingPolicy::RoundRobin)
            .expect("loads");
        d.execute_stream(&mut prog, &items, &opts).expect("runs")
    };
    let det = run(SimMode::Detailed);
    let ana = run(SimMode::Analytic);
    assert_eq!(det.latencies(), ana.latencies());
    assert_eq!(det.energy, ana.energy);
}
