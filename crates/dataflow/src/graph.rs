//! The dataflow graph IR.
//!
//! A validated directed acyclic graph of [`Operation`]s. Graphs are built
//! with [`GraphBuilder`], which checks arity, port widths, and acyclicity
//! at [`build`](GraphBuilder::build) time so every downstream consumer
//! (interpreter, fabric mapper, characterizer) can assume a well-formed
//! graph.

use crate::error::{DataflowError, Result};
use crate::ops::Operation;

/// Identifies a node within one graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeRef(pub(crate) usize);

impl NodeRef {
    /// The node's index in the graph.
    pub fn index(self) -> usize {
        self.0
    }

    /// Reconstructs a reference from an index previously obtained via
    /// [`index`](Self::index). The caller is responsible for using it only
    /// with the graph it came from; methods panic on out-of-range indices.
    pub fn from_index(index: usize) -> NodeRef {
        NodeRef(index)
    }
}

/// One node: an operation plus its display name.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Human-readable name (unique names are recommended, not enforced).
    pub name: String,
    /// The operation.
    pub op: Operation,
}

/// A directed edge `from.output -> to.input[port]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer node index.
    pub from: usize,
    /// Consumer node index.
    pub to: usize,
    /// Consumer input port.
    pub port: usize,
}

/// Incrementally builds a [`DataflowGraph`].
///
/// # Examples
///
/// ```
/// use cim_dataflow::graph::GraphBuilder;
/// use cim_dataflow::ops::{Elementwise, Operation};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = GraphBuilder::new();
/// let src = b.add("in", Operation::Source { width: 4 });
/// let relu = b.add("relu", Operation::Map { func: Elementwise::Relu, width: 4 });
/// let out = b.add("out", Operation::Sink { width: 4 });
/// b.connect(src, relu, 0)?;
/// b.connect(relu, out, 0)?;
/// let graph = b.build()?;
/// assert_eq!(graph.node_count(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node and returns its reference.
    pub fn add(&mut self, name: impl Into<String>, op: Operation) -> NodeRef {
        self.nodes.push(Node {
            name: name.into(),
            op,
        });
        NodeRef(self.nodes.len() - 1)
    }

    /// Connects `from`'s output to input `port` of `to`.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown nodes, out-of-range ports, width
    /// mismatches, or a port that is already connected.
    pub fn connect(&mut self, from: NodeRef, to: NodeRef, port: usize) -> Result<()> {
        let get = |r: NodeRef| -> Result<&Node> {
            self.nodes
                .get(r.0)
                .ok_or(DataflowError::UnknownNode { node: r.0 })
        };
        let from_node = get(from)?;
        let to_node = get(to)?;
        if port >= to_node.op.arity() {
            return Err(DataflowError::ArityMismatch {
                node: to.0,
                required: to_node.op.arity(),
                connected: port + 1,
            });
        }
        let produced = from_node.op.output_width();
        let expected = to_node.op.input_width(port);
        if produced != expected {
            return Err(DataflowError::WidthMismatch {
                from: from.0,
                to: to.0,
                produced,
                expected,
            });
        }
        if self.edges.iter().any(|e| e.to == to.0 && e.port == port) {
            return Err(DataflowError::InvalidOperation {
                reason: format!("input port {port} of node {} already connected", to.0),
            });
        }
        self.edges.push(Edge {
            from: from.0,
            to: to.0,
            port,
        });
        Ok(())
    }

    /// Convenience: chains nodes through port 0.
    ///
    /// # Errors
    ///
    /// See [`connect`](Self::connect).
    pub fn chain(&mut self, nodes: &[NodeRef]) -> Result<()> {
        for pair in nodes.windows(2) {
            self.connect(pair[0], pair[1], 0)?;
        }
        Ok(())
    }

    /// Validates everything and produces the immutable graph.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure: invalid operations, unbound
    /// input ports, or a cycle.
    pub fn build(self) -> Result<DataflowGraph> {
        for node in &self.nodes {
            node.op.validate()?;
        }
        // Every input port must be bound.
        for (i, node) in self.nodes.iter().enumerate() {
            let connected = self.edges.iter().filter(|e| e.to == i).count();
            if connected != node.op.arity() {
                return Err(DataflowError::ArityMismatch {
                    node: i,
                    required: node.op.arity(),
                    connected,
                });
            }
        }
        let order = topo_order(self.nodes.len(), &self.edges)?;
        let (producers, producer_start) = producer_lists(self.nodes.len(), &self.edges);
        Ok(DataflowGraph {
            nodes: self.nodes,
            edges: self.edges,
            topo: order,
            producers,
            producer_start,
        })
    }
}

/// Every node's producers ordered by node, then by input port, with
/// each node's start offset into that list (plus a closing offset).
/// `build` has checked that each node's ports `0..arity` are bound
/// exactly once, so a producer's slot is its node's start plus its port.
fn producer_lists(n: usize, edges: &[Edge]) -> (Vec<NodeRef>, Vec<usize>) {
    let mut start = vec![0; n + 1];
    for e in edges {
        start[e.to + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut producers = vec![NodeRef(0); edges.len()];
    for e in edges {
        producers[start[e.to] + e.port] = NodeRef(e.from);
    }
    (producers, start)
}

fn topo_order(n: usize, edges: &[Edge]) -> Result<Vec<usize>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut indegree = vec![0usize; n];
    let mut out: Vec<Vec<usize>> = vec![Vec::new(); n];
    for e in edges {
        indegree[e.to] += 1;
        out[e.from].push(e.to);
    }
    // Kahn's algorithm; the min-heap makes the order deterministic
    // (smallest ready index first).
    let mut ready: BinaryHeap<Reverse<usize>> =
        (0..n).filter(|&i| indegree[i] == 0).map(Reverse).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(Reverse(node)) = ready.pop() {
        order.push(node);
        for &next in &out[node] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push(Reverse(next));
            }
        }
    }
    if order.len() != n {
        return Err(DataflowError::CyclicGraph);
    }
    Ok(order)
}

/// Static work/communication metrics of a graph — the raw ingredients of
/// the Table 2 characterization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphMetrics {
    /// Total FLOPs per end-to-end activation.
    pub total_flops: u64,
    /// FLOPs on the longest (critical) path.
    pub critical_path_flops: u64,
    /// Available parallelism: total work / critical path work.
    pub parallelism: f64,
    /// Bytes moved across edges per activation (8 bytes/element).
    pub edge_bytes: u64,
    /// Bytes of stationary state (weights) held in the graph.
    pub state_bytes: u64,
    /// Operational intensity: FLOPs per byte moved.
    pub operational_intensity: f64,
}

/// A validated, immutable dataflow graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DataflowGraph {
    nodes: Vec<Node>,
    edges: Vec<Edge>,
    topo: Vec<usize>,
    /// Producers of every node, computed once at build: node `i`'s
    /// are `producers[producer_start[i]..producer_start[i + 1]]`.
    producers: Vec<NodeRef>,
    producer_start: Vec<usize>,
}

impl DataflowGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The node behind a reference.
    ///
    /// # Panics
    ///
    /// Panics if the reference came from a different graph and is out of
    /// range.
    pub fn node(&self, r: NodeRef) -> &Node {
        &self.nodes[r.0]
    }

    /// Iterates over `(NodeRef, &Node)` pairs in index order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeRef, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeRef(i), n))
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Node indices in a deterministic topological order.
    pub fn topo_order(&self) -> &[usize] {
        &self.topo
    }

    /// References to all source nodes, in index order.
    pub fn sources(&self) -> Vec<NodeRef> {
        self.nodes()
            .filter(|(_, n)| matches!(n.op, Operation::Source { .. }))
            .map(|(r, _)| r)
            .collect()
    }

    /// References to all sink nodes, in index order.
    pub fn sinks(&self) -> Vec<NodeRef> {
        self.nodes()
            .filter(|(_, n)| matches!(n.op, Operation::Sink { .. }))
            .map(|(r, _)| r)
            .collect()
    }

    /// Producers feeding each input port of `node`, ordered by port.
    pub fn inputs_of(&self, node: NodeRef) -> Vec<NodeRef> {
        self.producers(node).to_vec()
    }

    /// [`inputs_of`](Self::inputs_of) without the copy: a slice of
    /// lists computed once when the graph was built.
    ///
    /// # Panics
    ///
    /// Panics if the reference came from a different graph and is out of
    /// range.
    pub fn producers(&self, node: NodeRef) -> &[NodeRef] {
        &self.producers[self.producer_start[node.0]..self.producer_start[node.0 + 1]]
    }

    /// Consumers of `node`'s output.
    pub fn consumers_of(&self, node: NodeRef) -> Vec<NodeRef> {
        self.edges
            .iter()
            .filter(|e| e.from == node.0)
            .map(|e| NodeRef(e.to))
            .collect()
    }

    /// Replaces a node's operation with a *structure-preserving* one:
    /// identical arity, input widths and output width. This is the
    /// mutation surface of self-programmable dataflow (§III.B) — patches
    /// can retune a node (new map function, new weights) but cannot
    /// rewire the graph, so placements and routes stay valid.
    ///
    /// # Errors
    ///
    /// Returns [`DataflowError::InvalidOperation`] if the new operation
    /// is invalid or changes the node's shape.
    pub fn replace_op(&mut self, node: NodeRef, op: Operation) -> Result<()> {
        op.validate()?;
        let old = &self
            .nodes
            .get(node.0)
            .ok_or(DataflowError::UnknownNode { node: node.0 })?
            .op;
        let same_shape = old.arity() == op.arity()
            && old.output_width() == op.output_width()
            && (0..old.arity()).all(|p| old.input_width(p) == op.input_width(p));
        if !same_shape {
            return Err(DataflowError::InvalidOperation {
                reason: format!(
                    "patch changes the shape of node {} ('{}')",
                    node.0, self.nodes[node.0].name
                ),
            });
        }
        self.nodes[node.0].op = op;
        Ok(())
    }

    /// Computes static work/communication metrics.
    pub fn metrics(&self) -> GraphMetrics {
        let total_flops: u64 = self.nodes.iter().map(|n| n.op.flops()).sum();
        let state_bytes: u64 = self.nodes.iter().map(|n| n.op.state_bytes()).sum();
        let edge_bytes: u64 = self
            .edges
            .iter()
            .map(|e| (self.nodes[e.from].op.output_width() * 8) as u64)
            .sum();
        // Critical path over FLOPs, via the topological order.
        let mut path = vec![0u64; self.nodes.len()];
        for &i in &self.topo {
            let own = self.nodes[i].op.flops();
            let best_in = self
                .edges
                .iter()
                .filter(|e| e.to == i)
                .map(|e| path[e.from])
                .max()
                .unwrap_or(0);
            path[i] = best_in + own;
        }
        let critical = path.iter().copied().max().unwrap_or(0);
        GraphMetrics {
            total_flops,
            critical_path_flops: critical,
            parallelism: if critical == 0 {
                1.0
            } else {
                total_flops as f64 / critical as f64
            },
            edge_bytes,
            state_bytes,
            operational_intensity: if edge_bytes == 0 {
                0.0
            } else {
                total_flops as f64 / edge_bytes as f64
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Elementwise;

    fn diamond() -> DataflowGraph {
        // src -> a, src -> b, (a,b) -> add -> sink
        let mut g = GraphBuilder::new();
        let src = g.add("src", Operation::Source { width: 4 });
        let a = g.add(
            "a",
            Operation::Map {
                func: Elementwise::Relu,
                width: 4,
            },
        );
        let b = g.add(
            "b",
            Operation::Map {
                func: Elementwise::Scale(2.0),
                width: 4,
            },
        );
        let add = g.add("add", Operation::Add { width: 4 });
        let sink = g.add("out", Operation::Sink { width: 4 });
        g.connect(src, a, 0).unwrap();
        g.connect(src, b, 0).unwrap();
        g.connect(a, add, 0).unwrap();
        g.connect(b, add, 1).unwrap();
        g.connect(add, sink, 0).unwrap();
        g.build().unwrap()
    }

    #[test]
    fn builds_and_orders_topologically() {
        let g = diamond();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 5);
        let order = g.topo_order();
        let pos = |i: usize| order.iter().position(|&x| x == i).expect("node in order");
        assert!(pos(0) < pos(1));
        assert!(pos(0) < pos(2));
        assert!(pos(1) < pos(3));
        assert!(pos(2) < pos(3));
        assert!(pos(3) < pos(4));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut g = GraphBuilder::new();
        let src = g.add("src", Operation::Source { width: 4 });
        let sink = g.add("out", Operation::Sink { width: 8 });
        assert!(matches!(
            g.connect(src, sink, 0),
            Err(DataflowError::WidthMismatch { .. })
        ));
    }

    #[test]
    fn unbound_port_rejected_at_build() {
        let mut g = GraphBuilder::new();
        let src = g.add("src", Operation::Source { width: 4 });
        let add = g.add("add", Operation::Add { width: 4 });
        let sink = g.add("out", Operation::Sink { width: 4 });
        g.connect(src, add, 0).unwrap();
        g.connect(add, sink, 0).unwrap();
        // add's port 1 left unbound
        assert!(matches!(
            g.build(),
            Err(DataflowError::ArityMismatch { node: 1, .. })
        ));
    }

    #[test]
    fn double_connection_rejected() {
        let mut g = GraphBuilder::new();
        let s1 = g.add("s1", Operation::Source { width: 4 });
        let s2 = g.add("s2", Operation::Source { width: 4 });
        let sink = g.add("out", Operation::Sink { width: 4 });
        g.connect(s1, sink, 0).unwrap();
        assert!(g.connect(s2, sink, 0).is_err());
    }

    #[test]
    fn sources_and_sinks_found() {
        let g = diamond();
        assert_eq!(g.sources().len(), 1);
        assert_eq!(g.sinks().len(), 1);
        assert_eq!(g.node(g.sources()[0]).name, "src");
    }

    #[test]
    fn inputs_ordered_by_port() {
        let g = diamond();
        let add = NodeRef(3);
        let ins = g.inputs_of(add);
        assert_eq!(g.node(ins[0]).name, "a");
        assert_eq!(g.node(ins[1]).name, "b");
        assert_eq!(g.consumers_of(NodeRef(0)).len(), 2);
    }

    #[test]
    fn producer_lists_match_the_edges() {
        // Ports connected out of order: the list still follows ports.
        let mut b = GraphBuilder::new();
        let x = b.add("x", Operation::Source { width: 2 });
        let y = b.add("y", Operation::Source { width: 2 });
        let add = b.add("add", Operation::Add { width: 2 });
        let out = b.add("out", Operation::Sink { width: 2 });
        b.connect(add, out, 0).unwrap();
        b.connect(y, add, 1).unwrap();
        b.connect(x, add, 0).unwrap();
        let g = b.build().unwrap();
        assert_eq!(g.producers(add), [x, y]);
        assert_eq!(g.producers(out), [add]);
        assert!(g.producers(x).is_empty() && g.producers(y).is_empty());
        for d in [g.clone(), diamond()] {
            for (r, _) in d.nodes() {
                let mut want: Vec<(usize, NodeRef)> = d
                    .edges()
                    .iter()
                    .filter(|e| e.to == r.index())
                    .map(|e| (e.port, NodeRef(e.from)))
                    .collect();
                want.sort_unstable();
                let want: Vec<NodeRef> = want.into_iter().map(|(_, f)| f).collect();
                assert_eq!(d.producers(r), want.as_slice());
                assert_eq!(d.inputs_of(r), want);
            }
        }
    }

    #[test]
    fn metrics_reflect_structure() {
        let g = diamond();
        let m = g.metrics();
        // a: 4 flops, b: 4, add: 4
        assert_eq!(m.total_flops, 12);
        // Critical path: src(0) -> a(4) -> add(4) = 8
        assert_eq!(m.critical_path_flops, 8);
        assert!((m.parallelism - 1.5).abs() < 1e-12);
        // 5 edges × 4 elements × 8 bytes
        assert_eq!(m.edge_bytes, 160);
        assert_eq!(m.state_bytes, 0);
        assert!(m.operational_intensity > 0.0);
    }

    #[test]
    fn chain_helper() {
        let mut g = GraphBuilder::new();
        let a = g.add("a", Operation::Source { width: 2 });
        let b = g.add(
            "b",
            Operation::Map {
                func: Elementwise::Identity,
                width: 2,
            },
        );
        let c = g.add("c", Operation::Sink { width: 2 });
        g.chain(&[a, b, c]).unwrap();
        assert_eq!(g.build().unwrap().edge_count(), 2);
    }

    #[test]
    fn matvec_state_bytes_counted() {
        let mut g = GraphBuilder::new();
        let s = g.add("s", Operation::Source { width: 2 });
        let mv = g.add(
            "mv",
            Operation::MatVec {
                rows: 2,
                cols: 3,
                weights: vec![0.5; 6],
            },
        );
        let k = g.add("k", Operation::Sink { width: 3 });
        g.chain(&[s, mv, k]).unwrap();
        let m = g.build().unwrap().metrics();
        assert_eq!(m.state_bytes, 48);
        assert_eq!(m.total_flops, 12);
    }
}
