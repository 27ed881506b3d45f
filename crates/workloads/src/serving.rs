//! Per-tenant request classes for the serving experiments (§VI).
//!
//! A CIM device deployed "as a slave device" (§III.E) serves inference
//! requests from several tenants at once: each tenant keeps an MLP
//! resident in crossbars (stationary weights) and sends requests against
//! a latency SLO. This module defines the request-class vocabulary —
//! model shape, deadline, traffic weight — that `cim_fabric::service`
//! turns into an open-loop serving workload.

use cim_dataflow::graph::{DataflowGraph, NodeRef};
use cim_sim::rng::Rng;
use cim_sim::time::SimDuration;
use cim_sim::SeedTree;

use crate::nn::mlp_graph;

/// One tenant's request class: the resident model, its latency SLO and
/// its share of the offered traffic.
#[derive(Debug, Clone)]
pub struct RequestClassSpec {
    /// Tenant/class name (reporting).
    pub name: &'static str,
    /// MLP layer dimensions, `input → … → output`.
    pub layer_dims: Vec<usize>,
    /// End-to-end latency SLO for a request of this class.
    pub deadline: SimDuration,
    /// Relative traffic weight in the offered mix.
    pub weight: u32,
}

impl RequestClassSpec {
    /// Input vector width for requests of this class.
    pub fn input_width(&self) -> usize {
        self.layer_dims[0]
    }

    /// Builds the tenant's resident dataflow graph (random Gaussian
    /// weights, deterministic in `seeds`). Returns graph, source, sink.
    pub fn build_graph(&self, seeds: SeedTree) -> (DataflowGraph, NodeRef, NodeRef) {
        mlp_graph(&self.layer_dims, seeds)
    }

    /// Floating-point operations one request of this class costs a
    /// conventional machine: 2·rows·cols per matvec layer (multiply +
    /// accumulate) plus the activation pass between layers. The cluster
    /// baseline charges this against its FLOPS budget so CIM-vs-cluster
    /// comparisons serve the same arithmetic.
    pub fn flops_per_request(&self) -> u64 {
        let mut flops = 0u64;
        for w in self.layer_dims.windows(2) {
            flops += 2 * (w[0] as u64) * (w[1] as u64);
        }
        // ReLU between layers (not after the last).
        for &d in &self.layer_dims[1..self.layer_dims.len() - 1] {
            flops += d as u64;
        }
        flops
    }

    /// Bytes of model state this class keeps resident: its weight
    /// matrices at f64 precision. This is what a conventional cluster
    /// ships to a standby on machine failover — and what a CIM device
    /// would have to reprogram after power loss if memristor
    /// conductances were not nonvolatile. The fleet ships (and
    /// reprograms) nothing; the cluster baseline charges this against
    /// its link on every failover.
    pub fn weights_bytes(&self) -> u64 {
        self.layer_dims
            .windows(2)
            .map(|w| 8 * (w[0] as u64) * (w[1] as u64))
            .sum()
    }
}

/// The standard three-tenant mix the serving experiments use.
///
/// Deadlines are calibrated against the default `cim_fabric` device
/// model: generous enough that an unloaded device meets every SLO, tight
/// enough that saturation queueing blows through them (so overload shows
/// up as timeouts and shed load rather than unbounded latency).
///
/// # Examples
///
/// ```
/// use cim_workloads::serving::standard_request_mix;
///
/// let mix = standard_request_mix();
/// assert_eq!(mix.len(), 3);
/// assert!(mix.iter().all(|c| c.weight > 0));
/// ```
pub fn standard_request_mix() -> Vec<RequestClassSpec> {
    vec![
        RequestClassSpec {
            name: "interactive",
            layer_dims: vec![16, 8, 4],
            deadline: SimDuration::from_us(20),
            weight: 6,
        },
        RequestClassSpec {
            name: "standard",
            layer_dims: vec![32, 16, 8],
            deadline: SimDuration::from_us(40),
            weight: 3,
        },
        RequestClassSpec {
            name: "batch",
            layer_dims: vec![64, 32, 8],
            deadline: SimDuration::from_us(80),
            weight: 1,
        },
    ]
}

/// Samples a class index from the mix's traffic weights.
///
/// # Panics
///
/// Panics if the mix is empty or all weights are zero.
pub fn sample_class<R: Rng + ?Sized>(rng: &mut R, mix: &[RequestClassSpec]) -> usize {
    let total: u64 = mix.iter().map(|c| u64::from(c.weight)).sum();
    assert!(total > 0, "request mix needs at least one positive weight");
    let mut pick = rng.gen_range(0..total);
    for (i, c) in mix.iter().enumerate() {
        let w = u64::from(c.weight);
        if pick < w {
            return i;
        }
        pick -= w;
    }
    mix.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_classes_build_runnable_graphs() {
        for spec in standard_request_mix() {
            let (g, src, sink) = spec.build_graph(SeedTree::new(7));
            assert!(g.node_count() >= 3, "{}", spec.name);
            let out = cim_dataflow::interpreter::execute(
                &g,
                &std::collections::HashMap::from([(src, vec![0.1; spec.input_width()])]),
            )
            .expect("runs");
            assert_eq!(out[&sink].len(), *spec.layer_dims.last().unwrap());
        }
    }

    #[test]
    fn flops_count_layers_and_activations() {
        let spec = RequestClassSpec {
            name: "t",
            layer_dims: vec![16, 8, 4],
            deadline: SimDuration::from_us(20),
            weight: 1,
        };
        // 2·16·8 + 2·8·4 matvec flops + 8 hidden-layer relu ops.
        assert_eq!(spec.flops_per_request(), 256 + 64 + 8);
        // (16·8 + 8·4) f64 weights resident in crossbars.
        assert_eq!(spec.weights_bytes(), 8 * (128 + 32));
    }

    #[test]
    fn class_sampling_follows_weights() {
        let mix = standard_request_mix();
        let mut rng = SeedTree::new(11).rng("classes");
        let mut counts = vec![0usize; mix.len()];
        for _ in 0..10_000 {
            counts[sample_class(&mut rng, &mix)] += 1;
        }
        // 6:3:1 mix — order must hold with a wide margin at n=10k.
        assert!(counts[0] > counts[1] && counts[1] > counts[2], "{counts:?}");
        let share0 = counts[0] as f64 / 10_000.0;
        assert!((share0 - 0.6).abs() < 0.05, "interactive share {share0}");
    }

    #[test]
    fn sampling_is_deterministic() {
        let mix = standard_request_mix();
        let draw = |seed| {
            let mut rng = SeedTree::new(seed).rng("classes");
            (0..64)
                .map(|_| sample_class(&mut rng, &mix))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4), "different seeds should differ");
    }
}
