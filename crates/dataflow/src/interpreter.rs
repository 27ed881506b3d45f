//! Reference interpreter for dataflow graphs.
//!
//! Executes a graph with exact `f64` semantics. Every hardware model
//! (the CIM fabric, the CPU/GPU baselines) is validated against this
//! interpreter: same graph, same inputs, approximately the same outputs.

use crate::error::{DataflowError, Result};
use crate::graph::{DataflowGraph, NodeRef};
use crate::ops::Operation;
use cim_sim::energy::Energy;
use cim_sim::telemetry::Telemetry;
use cim_sim::time::{SimDuration, SimTime};
use std::collections::HashMap;

/// Validates `inputs` against the graph's sources (shared by
/// [`execute`] and [`execute_traced`]).
fn validate_inputs(graph: &DataflowGraph, inputs: &HashMap<NodeRef, Vec<f64>>) -> Result<()> {
    for (&r, v) in inputs {
        let node = graph
            .nodes()
            .find(|(nr, _)| *nr == r)
            .ok_or(DataflowError::InputMismatch {
                reason: format!("input for unknown node {}", r.index()),
            })?
            .1;
        match &node.op {
            Operation::Source { width } => {
                if v.len() != *width {
                    return Err(DataflowError::InputMismatch {
                        reason: format!(
                            "source '{}' expects width {width}, got {}",
                            node.name,
                            v.len()
                        ),
                    });
                }
            }
            _ => {
                return Err(DataflowError::InputMismatch {
                    reason: format!("node '{}' is not a source", node.name),
                })
            }
        }
    }
    for s in &graph.sources() {
        if !inputs.contains_key(s) {
            return Err(DataflowError::InputMismatch {
                reason: format!("missing input for source '{}'", graph.node(*s).name),
            });
        }
    }
    Ok(())
}

/// Executes `graph` once with the given source inputs; returns the vector
/// delivered to each sink.
///
/// # Errors
///
/// Returns [`DataflowError::InputMismatch`] when `inputs` is missing a
/// source, contains an unknown or non-source node, or a vector has the
/// wrong width.
///
/// # Examples
///
/// ```
/// use cim_dataflow::graph::GraphBuilder;
/// use cim_dataflow::interpreter::execute;
/// use cim_dataflow::ops::{Elementwise, Operation};
/// use std::collections::HashMap;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// let src = b.add("in", Operation::Source { width: 3 });
/// let relu = b.add("relu", Operation::Map { func: Elementwise::Relu, width: 3 });
/// let out = b.add("out", Operation::Sink { width: 3 });
/// b.chain(&[src, relu, out])?;
/// let g = b.build()?;
/// let results = execute(&g, &HashMap::from([(src, vec![-1.0, 0.5, 2.0])]))?;
/// assert_eq!(results[&out], vec![0.0, 0.5, 2.0]);
/// # Ok(())
/// # }
/// ```
pub fn execute(
    graph: &DataflowGraph,
    inputs: &HashMap<NodeRef, Vec<f64>>,
) -> Result<HashMap<NodeRef, Vec<f64>>> {
    validate_inputs(graph, inputs)?;

    let mut values: Vec<Option<Vec<f64>>> = vec![None; graph.node_count()];
    for &i in graph.topo_order() {
        let r = NodeRef(i);
        let node = graph.node(r);
        let out = match &node.op {
            Operation::Source { .. } => inputs[&r].clone(),
            op => {
                let in_vals: Vec<&[f64]> = graph
                    .producers(r)
                    .iter()
                    .map(|ir| {
                        values[ir.index()]
                            .as_deref()
                            .expect("topological order guarantees inputs are ready")
                    })
                    .collect();
                op.evaluate(&in_vals)
            }
        };
        values[i] = Some(out);
    }

    Ok(graph
        .sinks()
        .into_iter()
        .map(|s| (s, values[s.index()].clone().expect("sink evaluated")))
        .collect())
}

/// Like [`execute`], but reports per-node timing into `tel`.
///
/// The interpreter has no hardware model, so it runs a *virtual* clock:
/// each node costs `flops().max(1)` picoseconds and starts when all of
/// its producers have finished, yielding the graph's critical-path
/// timeline. Per op kind (component `interp/{kind}`) it counts `nodes`
/// and `flops`; on `interp` it records a `node_flops` histogram and, at
/// [`Full`](cim_sim::telemetry::TelemetryLevel::Full) level, one
/// `execute` span with a child span per node named by
/// [`Operation::kind`].
///
/// With a disabled handle this is exactly [`execute`] — same results,
/// no extra work.
///
/// # Errors
///
/// Same contract as [`execute`].
pub fn execute_traced(
    graph: &DataflowGraph,
    inputs: &HashMap<NodeRef, Vec<f64>>,
    tel: &Telemetry,
) -> Result<HashMap<NodeRef, Vec<f64>>> {
    if !tel.is_enabled() {
        return execute(graph, inputs);
    }
    validate_inputs(graph, inputs)?;

    let root = tel.component("interp");
    let mut kind_comp: HashMap<&'static str, cim_sim::telemetry::ComponentId> = HashMap::new();

    let n = graph.node_count();
    let mut values: Vec<Option<Vec<f64>>> = vec![None; n];
    let mut done: Vec<SimTime> = vec![SimTime::ZERO; n];
    let run_span = tel.span_enter(root, "execute", SimTime::ZERO);
    let mut finish = SimTime::ZERO;
    for &i in graph.topo_order() {
        let r = NodeRef(i);
        let node = graph.node(r);
        let in_refs = graph.producers(r);
        let ready = in_refs
            .iter()
            .map(|ir| done[ir.index()])
            .max()
            .unwrap_or(SimTime::ZERO);
        let out = match &node.op {
            Operation::Source { .. } => inputs[&r].clone(),
            op => {
                let in_vals: Vec<&[f64]> = in_refs
                    .iter()
                    .map(|ir| {
                        values[ir.index()]
                            .as_deref()
                            .expect("topological order guarantees inputs are ready")
                    })
                    .collect();
                op.evaluate(&in_vals)
            }
        };
        let flops = node.op.flops();
        let t_done = ready + SimDuration::from_ps(flops.max(1));
        let kind = node.op.kind();
        let comp = *kind_comp
            .entry(kind)
            .or_insert_with(|| tel.component(&format!("interp/{kind}")));
        tel.counter_add(comp, "nodes", 1);
        tel.counter_add(comp, "flops", flops);
        tel.record(root, "node_flops", flops);
        let span = tel.span_enter_child(run_span, comp, kind, ready);
        tel.span_exit(span, t_done, Energy::ZERO);
        finish = finish.max(t_done);
        values[i] = Some(out);
        done[i] = t_done;
    }
    tel.span_exit(run_span, finish, Energy::ZERO);

    Ok(graph
        .sinks()
        .into_iter()
        .map(|s| (s, values[s.index()].clone().expect("sink evaluated")))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::ops::{Elementwise, Reduction};

    #[test]
    fn executes_mlp_layer() {
        let mut b = GraphBuilder::new();
        let src = b.add("in", Operation::Source { width: 2 });
        let mv = b.add(
            "fc",
            Operation::MatVec {
                rows: 2,
                cols: 2,
                weights: vec![1.0, -1.0, 0.5, 2.0],
            },
        );
        let relu = b.add(
            "relu",
            Operation::Map {
                func: Elementwise::Relu,
                width: 2,
            },
        );
        let out = b.add("out", Operation::Sink { width: 2 });
        b.chain(&[src, mv, relu, out]).unwrap();
        let g = b.build().unwrap();
        let res = execute(&g, &HashMap::from([(src, vec![2.0, 4.0])])).unwrap();
        // y = [2*1 + 4*0.5, 2*-1 + 4*2] = [4, 6]; relu no-op
        assert_eq!(res[&out], vec![4.0, 6.0]);
    }

    #[test]
    fn diamond_with_two_sinks() {
        let mut b = GraphBuilder::new();
        let src = b.add("in", Operation::Source { width: 2 });
        let dbl = b.add(
            "x2",
            Operation::Map {
                func: Elementwise::Scale(2.0),
                width: 2,
            },
        );
        let sum = b.add(
            "sum",
            Operation::Reduce {
                kind: Reduction::Sum,
                width: 2,
            },
        );
        let s1 = b.add("o1", Operation::Sink { width: 2 });
        let s2 = b.add("o2", Operation::Sink { width: 1 });
        b.connect(src, dbl, 0).unwrap();
        b.connect(dbl, s1, 0).unwrap();
        b.connect(src, sum, 0).unwrap();
        b.connect(sum, s2, 0).unwrap();
        let g = b.build().unwrap();
        let res = execute(&g, &HashMap::from([(src, vec![1.0, 3.0])])).unwrap();
        assert_eq!(res[&s1], vec![2.0, 6.0]);
        assert_eq!(res[&s2], vec![4.0]);
    }

    #[test]
    fn traced_execution_matches_plain_and_reports_timing() {
        use cim_sim::telemetry::{Telemetry, TelemetryLevel};
        let mut b = GraphBuilder::new();
        let src = b.add("in", Operation::Source { width: 2 });
        let mv = b.add(
            "fc",
            Operation::MatVec {
                rows: 2,
                cols: 2,
                weights: vec![1.0, -1.0, 0.5, 2.0],
            },
        );
        let out = b.add("out", Operation::Sink { width: 2 });
        b.chain(&[src, mv, out]).unwrap();
        let g = b.build().unwrap();
        let inputs = HashMap::from([(src, vec![2.0, 4.0])]);

        let plain = execute(&g, &inputs).unwrap();
        let tel = Telemetry::new(TelemetryLevel::Full);
        let traced = execute_traced(&g, &inputs, &tel).unwrap();
        assert_eq!(plain, traced, "tracing must not change results");

        let snap = tel.snapshot();
        let counter = |comp: &str, metric: &str| {
            snap.iter()
                .find(|s| s.component == comp && s.metric == metric)
                .and_then(|s| s.as_counter())
        };
        assert_eq!(counter("interp/matvec", "nodes"), Some(1));
        assert_eq!(counter("interp/matvec", "flops"), Some(8));
        // One span per node plus the root `execute` span.
        assert_eq!(tel.completed_spans("execute").len(), 1);
        assert_eq!(tel.completed_spans("matvec").len(), 1);
        // Critical path: source (1 ps floor) + matvec (8 ps) + sink (1 ps).
        let span = &tel.completed_spans("execute")[0];
        assert_eq!(span.duration().unwrap().as_ps(), 10);

        // Disabled handle: identical results, nothing recorded.
        let off = Telemetry::disabled();
        assert_eq!(execute_traced(&g, &inputs, &off).unwrap(), plain);
        assert!(off.snapshot().is_empty());
    }

    #[test]
    fn missing_source_input_rejected() {
        let mut b = GraphBuilder::new();
        let s1 = b.add("a", Operation::Source { width: 1 });
        let s2 = b.add("b", Operation::Source { width: 1 });
        let add = b.add("add", Operation::Add { width: 1 });
        let out = b.add("out", Operation::Sink { width: 1 });
        b.connect(s1, add, 0).unwrap();
        b.connect(s2, add, 1).unwrap();
        b.connect(add, out, 0).unwrap();
        let g = b.build().unwrap();
        let res = execute(&g, &HashMap::from([(s1, vec![1.0])]));
        assert!(matches!(res, Err(DataflowError::InputMismatch { .. })));
    }

    #[test]
    fn wrong_width_input_rejected() {
        let mut b = GraphBuilder::new();
        let s = b.add("a", Operation::Source { width: 3 });
        let out = b.add("out", Operation::Sink { width: 3 });
        b.connect(s, out, 0).unwrap();
        let g = b.build().unwrap();
        let res = execute(&g, &HashMap::from([(s, vec![1.0])]));
        assert!(matches!(res, Err(DataflowError::InputMismatch { .. })));
    }

    #[test]
    fn input_for_non_source_rejected() {
        let mut b = GraphBuilder::new();
        let s = b.add("a", Operation::Source { width: 1 });
        let m = b.add(
            "m",
            Operation::Map {
                func: Elementwise::Identity,
                width: 1,
            },
        );
        let out = b.add("out", Operation::Sink { width: 1 });
        b.chain(&[s, m, out]).unwrap();
        let g = b.build().unwrap();
        let res = execute(&g, &HashMap::from([(s, vec![1.0]), (m, vec![2.0])]));
        assert!(matches!(res, Err(DataflowError::InputMismatch { .. })));
    }
}
