//! Property-based tests (on the in-tree `cim::sim::prop` harness) over the
//! core data structures and invariants: quantization bounds, analog-engine
//! fidelity, routing validity under random link failures,
//! histogram/percentile agreement, crypto round-trips, graph-builder
//! invariants, and in-memory logic against its boolean semantics.
//!
//! Each test draws its inputs from a seeded generator; failures report a
//! case seed replayable with `PROP_CASE_SEED=<seed>`. Shrunk inputs can
//! fall outside a generator's range, so every property re-checks its own
//! preconditions and vacuously passes when they do.

use cim::crossbar::dpe::{DotProductEngine, DpeConfig};
use cim::crossbar::logic::StatefulLogicEngine;
use cim::crossbar::matrix::DenseMatrix;
use cim::crossbar::quant::{join_slices, split_slices, Quantizer};
use cim::crossbar::tcam::TernaryPattern;
use cim::dataflow::graph::GraphBuilder;
use cim::dataflow::ops::{Elementwise, Operation};
use cim::noc::crypto::{auth_tag, decrypt, encrypt, LinkKey};
use cim::noc::packet::NodeId;
use cim::noc::topology::Mesh;
use cim::sim::prop::{check, PropConfig};
use cim::sim::rng::Rng;
use cim::sim::stats::{Log2Histogram, Samples};
use cim::sim::SeedTree;
use cim::sim::{prop_assert, prop_assert_eq, prop_assert_ne};

#[test]
fn quantizer_roundtrip_error_is_bounded() {
    check(
        "quantizer roundtrip error is bounded",
        &PropConfig::cases(64),
        |rng| {
            (
                rng.gen_range(2u32..12),
                rng.gen_range(0.1f64..100.0),
                rng.gen_range(-200.0f64..200.0),
            )
        },
        |&(bits, max_abs, x)| {
            if !(2..12).contains(&bits) || !(0.1..100.0).contains(&max_abs) {
                return Ok(());
            }
            let q = Quantizer::new(bits, max_abs).expect("valid params");
            let back = q.dequantize(q.quantize(x));
            let clamped = x.clamp(-max_abs, max_abs);
            prop_assert!(
                (back - clamped).abs() <= q.step() / 2.0 + 1e-9,
                "roundtrip {back} vs clamped {clamped} at step {}",
                q.step()
            );
            Ok(())
        },
    );
}

#[test]
fn slice_split_join_roundtrip() {
    check(
        "slice split/join roundtrip",
        &PropConfig::cases(64),
        |rng| {
            (
                rng.gen_range(0u64..u64::from(u32::MAX)),
                rng.gen_range(1u32..8),
            )
        },
        |&(value, bits)| {
            if !(1..8).contains(&bits) {
                return Ok(());
            }
            let n = (40 / bits as usize) + 1;
            let slices = split_slices(value, bits, n);
            prop_assert_eq!(join_slices(&slices, bits), value);
            for s in slices {
                prop_assert!(u32::from(s) < (1u32 << bits));
            }
            Ok(())
        },
    );
}

#[test]
fn ideal_dpe_tracks_exact_matvec() {
    check(
        "ideal DPE tracks exact matvec",
        &PropConfig::cases(64),
        |rng| {
            (
                rng.gen_range(1usize..40),
                rng.gen_range(1usize..20),
                rng.gen_range(0u64..1000),
            )
        },
        |&(rows, cols, seed)| {
            if rows == 0 || cols == 0 {
                return Ok(());
            }
            let seeds = SeedTree::new(seed);
            let mut rng = seeds.rng("prop-w");
            let w = DenseMatrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0));
            let x: Vec<f64> = (0..rows).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let mut dpe = DotProductEngine::new(DpeConfig::ideal(), seeds);
            dpe.program(&w).expect("valid matrix");
            let got = dpe.matvec(&x).expect("programmed").values;
            let want = w.matvec(&x).expect("dims match");
            let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            for (g, w) in got.iter().zip(&want) {
                prop_assert!(
                    (g - w).abs() / scale < 0.05,
                    "dpe {g} vs exact {w} (scale {scale})"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn mesh_routes_are_valid_walks_under_failures() {
    check(
        "mesh routes are valid walks under failures",
        &PropConfig::cases(64),
        |rng| {
            let dims = (rng.gen_range(2usize..9), rng.gen_range(2usize..9));
            let n_fails = rng.gen_range(0usize..6);
            let fails: Vec<(u16, u16, bool)> = (0..n_fails)
                .map(|_| {
                    (
                        rng.gen_range(0u16..8),
                        rng.gen_range(0u16..8),
                        rng.gen::<bool>(),
                    )
                })
                .collect();
            let ends = (
                rng.gen_range(0u16..8),
                rng.gen_range(0u16..8),
                rng.gen_range(0u16..8),
                rng.gen_range(0u16..8),
            );
            (dims, fails, ends)
        },
        |&((w, h), ref fails, (sx, sy, dx, dy))| {
            if !(2..9).contains(&w) || !(2..9).contains(&h) {
                return Ok(());
            }
            let mut mesh = Mesh::new(w, h).expect("non-degenerate");
            let src = NodeId::new(sx.min(w as u16 - 1), sy.min(h as u16 - 1));
            let dst = NodeId::new(dx.min(w as u16 - 1), dy.min(h as u16 - 1));
            for &(fx, fy, horizontal) in fails {
                let a = NodeId::new(fx.min(w as u16 - 1), fy.min(h as u16 - 1));
                let b = if horizontal && (a.x as usize) + 1 < w {
                    NodeId::new(a.x + 1, a.y)
                } else if (a.y as usize) + 1 < h {
                    NodeId::new(a.x, a.y + 1)
                } else {
                    continue;
                };
                mesh.fail_link(a, b);
            }
            match mesh.route(src, dst) {
                Ok(path) => {
                    prop_assert_eq!(*path.first().expect("non-empty"), src);
                    prop_assert_eq!(*path.last().expect("non-empty"), dst);
                    for pair in path.windows(2) {
                        prop_assert_eq!(pair[0].manhattan(pair[1]), 1);
                        prop_assert!(!mesh.link_failed(pair[0], pair[1]));
                    }
                }
                Err(_) => {
                    // Acceptable only if the destination is genuinely cut
                    // off, which BFS would have found; routing to self
                    // never fails.
                    prop_assert!(src != dst, "route to self cannot fail");
                }
            }
            Ok(())
        },
    );
}

#[test]
fn histogram_quantile_bounds_exact_percentile() {
    check(
        "log2 histogram quantile bounds exact percentile",
        &PropConfig::cases(64),
        |rng| {
            let n = rng.gen_range(1usize..300);
            let values: Vec<u64> = (0..n).map(|_| rng.gen_range(0u64..1_000_000)).collect();
            let q = rng.gen_range(0.01f64..1.0);
            (values, q)
        },
        |&(ref values, q)| {
            if values.is_empty() || !(0.01..1.0).contains(&q) {
                return Ok(());
            }
            let mut hist = Log2Histogram::new();
            let mut samples = Samples::new();
            for &v in values {
                hist.record(v);
                samples.record(v as f64);
            }
            let bound = hist.quantile_upper_bound(q).expect("non-empty");
            let exact = samples.percentile(q * 100.0).expect("non-empty");
            prop_assert!(
                bound as f64 >= exact,
                "log-histogram bound {bound} must dominate exact {exact}"
            );
            Ok(())
        },
    );
}

#[test]
fn histogram_merge_equals_sequential_for_arbitrary_splits() {
    check(
        "log2 histogram merge equals sequential for arbitrary splits",
        &PropConfig::cases(64),
        |rng| {
            let n = rng.gen_range(0usize..200);
            let split = rng.gen_range(0usize..201);
            // Spread across many buckets, including the top one.
            let values: Vec<u64> = (0..n)
                .map(|_| {
                    let shift = rng.gen_range(0u32..64);
                    rng.gen::<u64>() >> shift
                })
                .collect();
            (values, split)
        },
        |&(ref values, split)| {
            let split = split.min(values.len());
            let (first, second) = values.split_at(split);
            let mut left = Log2Histogram::new();
            let mut right = Log2Histogram::new();
            let mut sequential = Log2Histogram::new();
            for &v in first {
                left.record(v);
            }
            for &v in second {
                right.record(v);
            }
            for &v in values {
                sequential.record(v);
            }
            left.merge(&right);
            // Integer bucket counts: merged must equal sequential exactly.
            prop_assert_eq!(left.count(), sequential.count());
            prop_assert_eq!(left.sum(), sequential.sum());
            for i in 0..=64 {
                prop_assert_eq!(
                    left.bucket_count(i),
                    sequential.bucket_count(i),
                    "bucket {} diverged",
                    i
                );
            }
            if !values.is_empty() {
                for q in [0.25, 0.5, 0.99] {
                    prop_assert_eq!(
                        left.quantile_upper_bound(q),
                        sequential.quantile_upper_bound(q)
                    );
                }
            }
            Ok(())
        },
    );
}

#[test]
fn crypto_roundtrips_and_tags_differ() {
    check(
        "crypto roundtrips and tags differ",
        &PropConfig::cases(64),
        |rng| {
            let n = rng.gen_range(0usize..200);
            let payload: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
            (
                payload,
                rng.gen::<u64>(),
                rng.gen::<u32>(),
                rng.gen::<u64>(),
            )
        },
        |&(ref payload, master, domain, nonce)| {
            let key = LinkKey::derive(master, domain);
            let (cipher, _) = encrypt(payload, key, nonce);
            let (back, _) = decrypt(&cipher, key, nonce);
            prop_assert_eq!(&back[..], &payload[..]);
            if payload.len() >= 8 {
                let tag = auth_tag(&cipher, key, nonce);
                let mut tampered = cipher.clone();
                tampered[0] ^= 1;
                prop_assert_ne!(auth_tag(&tampered, key, nonce), tag);
            }
            Ok(())
        },
    );
}

#[test]
fn graph_topo_order_respects_every_edge() {
    check(
        "graph topo order respects every edge",
        &PropConfig::cases(64),
        |rng| (rng.gen_range(1usize..30), rng.gen_range(1usize..16)),
        |&(chain_len, width)| {
            if chain_len == 0 || width == 0 {
                return Ok(());
            }
            let mut b = GraphBuilder::new();
            let mut nodes = vec![b.add("src", Operation::Source { width })];
            for i in 0..chain_len {
                nodes.push(b.add(
                    format!("n{i}"),
                    Operation::Map {
                        func: Elementwise::Relu,
                        width,
                    },
                ));
            }
            nodes.push(b.add("sink", Operation::Sink { width }));
            b.chain(&nodes).expect("valid chain");
            let g = b.build().expect("valid graph");
            let order = g.topo_order();
            let pos = |i: usize| order.iter().position(|&x| x == i).expect("present");
            for e in g.edges() {
                prop_assert!(pos(e.from) < pos(e.to));
            }
            Ok(())
        },
    );
}

#[test]
fn stateful_logic_matches_boolean_semantics() {
    check(
        "stateful logic matches boolean semantics",
        &PropConfig::cases(64),
        |rng| (rng.gen::<u64>(), rng.gen::<u64>()),
        |&(a, b_in)| {
            let mut e = StatefulLogicEngine::new(8);
            e.write(0, a);
            e.write(1, b_in);
            e.bulk_and(0, 1, 2);
            e.bulk_or(0, 1, 3);
            e.bulk_xor(0, 1, 4);
            prop_assert_eq!(e.read(2), a & b_in);
            prop_assert_eq!(e.read(3), a | b_in);
            prop_assert_eq!(e.read(4), a ^ b_in);
            e.nand(0, 1, 5);
            prop_assert_eq!(e.read(5), !(a & b_in));
            let pulses_before = e.pulse_count();
            e.add(0, 1, 6, [2, 3, 4]);
            prop_assert_eq!(e.read(6), a.wrapping_add(b_in));
            prop_assert!(e.pulse_count() > pulses_before);
            Ok(())
        },
    );
}

#[test]
fn ternary_patterns_parse_consistently() {
    check(
        "ternary patterns parse consistently",
        &PropConfig::cases(64),
        |rng| {
            let n = rng.gen_range(1usize..32);
            (0..n).map(|_| rng.gen_range(0u8..3)).collect::<Vec<u8>>()
        },
        |bits| {
            if bits.is_empty() || bits.len() >= 64 || bits.iter().any(|&b| b > 2) {
                return Ok(());
            }
            let s: String = bits
                .iter()
                .map(|&b| match b {
                    0 => '0',
                    1 => '1',
                    _ => 'X',
                })
                .collect();
            let p = TernaryPattern::parse(&s).expect("valid pattern string");
            prop_assert_eq!(p.width() as usize, s.len());
            // A key built from the pattern's fixed bits always matches.
            let mut key = 0u64;
            for (i, &b) in bits.iter().enumerate() {
                let shift = (bits.len() - 1 - i) as u32;
                if b == 1 {
                    key |= 1 << shift;
                }
            }
            prop_assert!(p.matches(key));
            // Flipping a fixed (non-X) bit breaks the match.
            if let Some(pos) = bits.iter().position(|&b| b != 2) {
                let shift = (bits.len() - 1 - pos) as u32;
                prop_assert!(!p.matches(key ^ (1 << shift)));
            }
            Ok(())
        },
    );
}

// ---------------------------------------------------------------------------
// Fabric-level properties (heavier: fewer cases)
// ---------------------------------------------------------------------------

use cim::fabric::{CimDevice, FabricConfig, MappingPolicy, StreamOptions};
use std::collections::HashMap;

fn ideal_device() -> CimDevice {
    CimDevice::new(FabricConfig {
        dpe: DpeConfig::ideal(),
        ..FabricConfig::default()
    })
    .expect("fabric")
}

/// For arbitrary small pipelines, the fabric computes the same function as
/// the exact interpreter (up to analog quantization).
#[test]
fn fabric_equals_interpreter_on_random_pipelines() {
    check(
        "fabric equals interpreter on random pipelines",
        &PropConfig::cases(16),
        |rng| {
            let width = rng.gen_range(2usize..12);
            let n_stages = rng.gen_range(1usize..5);
            let stages: Vec<u8> = (0..n_stages).map(|_| rng.gen_range(0u8..4)).collect();
            let seed = rng.gen_range(0u64..500);
            let x_scale = rng.gen_range(0.1f64..1.0);
            (width, stages, seed, x_scale)
        },
        |&(width, ref stages, seed, x_scale)| {
            if !(2..12).contains(&width) || stages.is_empty() || x_scale <= 0.0 {
                return Ok(());
            }
            use cim::dataflow::ops::Reduction;
            let seeds = SeedTree::new(seed);
            let mut rng = seeds.rng("prop-fabric");
            let mut b = GraphBuilder::new();
            let src = b.add("src", Operation::Source { width });
            let mut prev = src;
            for (i, kind) in stages.iter().enumerate() {
                let op = match kind {
                    0 => Operation::Map {
                        func: Elementwise::Relu,
                        width,
                    },
                    1 => Operation::Map {
                        func: Elementwise::Tanh,
                        width,
                    },
                    2 => Operation::Map {
                        func: Elementwise::Scale(rng.gen_range(-1.5..1.5)),
                        width,
                    },
                    _ => Operation::MatVec {
                        rows: width,
                        cols: width,
                        weights: (0..width * width)
                            .map(|_| rng.gen_range(-0.5..0.5))
                            .collect(),
                    },
                };
                let n = b.add(format!("s{i}"), op);
                b.connect(prev, n, 0).expect("chain");
                prev = n;
            }
            let red = b.add(
                "sum",
                Operation::Reduce {
                    kind: Reduction::Sum,
                    width,
                },
            );
            let sink = b.add("out", Operation::Sink { width: 1 });
            b.connect(prev, red, 0).expect("tail");
            b.connect(red, sink, 0).expect("tail");
            let graph = b.build().expect("valid");

            let x: Vec<f64> = (0..width)
                .map(|_| rng.gen_range(-x_scale..x_scale))
                .collect();
            let mut device = ideal_device();
            let mut prog = device
                .load_program(&graph, MappingPolicy::LocalityAware)
                .expect("fits");
            let report = device
                .execute_stream(
                    &mut prog,
                    &[HashMap::from([(src, x.clone())])],
                    &StreamOptions::default(),
                )
                .expect("runs");
            let reference = cim::dataflow::interpreter::execute(&graph, &HashMap::from([(src, x)]))
                .expect("reference runs");
            let sink_ref = graph.sinks()[0];
            let got = report.outputs[0][&sink_ref][0];
            let want = reference[&sink_ref][0];
            // Tolerance scales with magnitude and pipeline depth (analog
            // quantization compounds per matvec stage).
            let tol = 0.02 * (1.0 + want.abs()) * (1 + stages.len()) as f64;
            prop_assert!(
                (got - want).abs() < tol,
                "fabric {got} vs interpreter {want} (tol {tol})"
            );
            Ok(())
        },
    );
}

/// Placements never double-book a unit and stay within the device,
/// whichever policy is used.
#[test]
fn placements_are_injective_and_in_bounds() {
    check(
        "placements are injective and in bounds",
        &PropConfig::cases(16),
        |rng| (rng.gen_range(1usize..30), rng.gen::<bool>()),
        |&(nodes, policy_bit)| {
            if nodes == 0 {
                return Ok(());
            }
            let mut b = GraphBuilder::new();
            let mut prev = b.add("src", Operation::Source { width: 2 });
            for i in 0..nodes {
                let n = b.add(
                    format!("m{i}"),
                    Operation::Map {
                        func: Elementwise::Identity,
                        width: 2,
                    },
                );
                b.connect(prev, n, 0).expect("chain");
                prev = n;
            }
            let sink = b.add("sink", Operation::Sink { width: 2 });
            b.connect(prev, sink, 0).expect("tail");
            let graph = b.build().expect("valid");

            let device = ideal_device();
            let policy = if policy_bit {
                MappingPolicy::LocalityAware
            } else {
                MappingPolicy::RoundRobin
            };
            let placement = cim::fabric::map_graph(&device, &graph, policy).expect("fits");
            let mut seen = placement.node_to_unit.clone();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(seen.len(), before, "no unit hosts two nodes");
            prop_assert!(seen.iter().all(|&u| u < device.units().len()));
            Ok(())
        },
    );
}

/// Farm results are independent of the replica count and routing policy —
/// parallelism must not change answers.
#[test]
fn farm_results_independent_of_replicas() {
    check(
        "farm results independent of replicas",
        &PropConfig::cases(16),
        |rng| {
            (
                rng.gen_range(1usize..8),
                rng.gen_range(1usize..12),
                rng.gen::<bool>(),
            )
        },
        |&(replicas, items, hash_route)| {
            if replicas == 0 || items == 0 {
                return Ok(());
            }
            use cim::dataflow::program::{HashRoute, LeastLoadedRoute, RoutePolicy};
            use cim::fabric::resman::run_farm;
            use cim::sim::SimDuration;

            let op = Operation::Map {
                func: Elementwise::Sigmoid,
                width: 16,
            };
            let inputs: Vec<Vec<f64>> =
                (0..items).map(|i| vec![i as f64 / 3.0 - 1.0; 16]).collect();
            let policy: &dyn RoutePolicy = if hash_route {
                &HashRoute
            } else {
                &LeastLoadedRoute
            };

            let mut device = ideal_device();
            let parallel = run_farm(
                &mut device,
                &op,
                replicas,
                &inputs,
                SimDuration::ZERO,
                policy,
            )
            .expect("farm runs");

            let mut reference_device = ideal_device();
            let serial = run_farm(
                &mut reference_device,
                &op,
                1,
                &inputs,
                SimDuration::ZERO,
                &LeastLoadedRoute,
            )
            .expect("serial runs");

            prop_assert_eq!(&parallel.outputs, &serial.outputs);
            Ok(())
        },
    );
}
