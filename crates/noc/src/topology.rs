//! 2-D mesh topology and routing.
//!
//! The CIM device organizes tiles in a 2-D mesh (paper Fig 5). Routing is
//! dimension-ordered (XY) by default — deadlock-free on a mesh — with a
//! YX fallback used when a link on the XY path has failed (§IV.B
//! failover, §V.A recovery).

use crate::error::{NocError, Result};
use crate::packet::NodeId;

/// A directed link between two adjacent mesh nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Link {
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node (always a mesh neighbour of `from`).
    pub to: NodeId,
}

impl Link {
    /// Creates a link; the caller asserts adjacency.
    pub fn new(from: NodeId, to: NodeId) -> Self {
        Link { from, to }
    }
}

/// A rectangular 2-D mesh.
///
/// # Examples
///
/// ```
/// use cim_noc::packet::NodeId;
/// use cim_noc::topology::Mesh;
///
/// let mesh = Mesh::new(4, 4).unwrap();
/// let path = mesh.route_xy(NodeId::new(0, 0), NodeId::new(2, 1)).unwrap();
/// // XY: travel X first, then Y.
/// assert_eq!(path, vec![
///     NodeId::new(0, 0),
///     NodeId::new(1, 0),
///     NodeId::new(2, 0),
///     NodeId::new(2, 1),
/// ]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mesh {
    width: usize,
    height: usize,
    /// Failed directed links, sorted and without duplicates. A mesh has
    /// few, and every route checks its hops against them.
    failed_links: Vec<Link>,
}

impl Mesh {
    /// Creates a mesh of `width × height` nodes.
    ///
    /// Returns `None` if either dimension is zero or exceeds `u16::MAX`.
    pub fn new(width: usize, height: usize) -> Option<Self> {
        if width == 0 || height == 0 || width > u16::MAX as usize || height > u16::MAX as usize {
            return None;
        }
        Some(Mesh {
            width,
            height,
            failed_links: Vec::new(),
        })
    }

    /// Mesh width.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Mesh height.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total node count.
    pub fn node_count(&self) -> usize {
        self.width * self.height
    }

    /// Whether `node` is inside the mesh.
    pub fn contains(&self, node: NodeId) -> bool {
        (node.x as usize) < self.width && (node.y as usize) < self.height
    }

    /// Validates that a node is inside the mesh.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownNode`] otherwise.
    pub fn check(&self, node: NodeId) -> Result<()> {
        if self.contains(node) {
            Ok(())
        } else {
            Err(NocError::UnknownNode {
                node,
                width: self.width,
                height: self.height,
            })
        }
    }

    /// Iterates over all node ids in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.height)
            .flat_map(move |y| (0..self.width).map(move |x| NodeId::new(x as u16, y as u16)))
    }

    /// Marks a directed link as failed (and its reverse, matching how a
    /// physical link fault takes out both directions).
    pub fn fail_link(&mut self, a: NodeId, b: NodeId) {
        for link in [Link::new(a, b), Link::new(b, a)] {
            if let Err(at) = self.failed_links.binary_search(&link) {
                self.failed_links.insert(at, link);
            }
        }
    }

    /// Restores a previously failed link (both directions).
    pub fn repair_link(&mut self, a: NodeId, b: NodeId) {
        for link in [Link::new(a, b), Link::new(b, a)] {
            if let Ok(at) = self.failed_links.binary_search(&link) {
                self.failed_links.remove(at);
            }
        }
    }

    /// Whether the directed link is currently failed.
    pub fn link_failed(&self, from: NodeId, to: NodeId) -> bool {
        self.failed_links
            .binary_search(&Link::new(from, to))
            .is_ok()
    }

    /// Number of failed (undirected) links.
    pub fn failed_link_count(&self) -> usize {
        self.failed_links.len() / 2
    }

    /// The nodes after `src` on the dimension-ordered walk to `dst`: X
    /// first, then Y, or the reverse.
    fn walk(src: NodeId, dst: NodeId, x_first: bool) -> impl Iterator<Item = NodeId> {
        let step = |from: u16, to: u16| if to > from { from + 1 } else { from - 1 };
        let mut cur = src;
        std::iter::from_fn(move || {
            if cur.x != dst.x && (x_first || cur.y == dst.y) {
                cur.x = step(cur.x, dst.x);
            } else if cur.y != dst.y {
                cur.y = step(cur.y, dst.y);
            } else {
                return None;
            }
            Some(cur)
        })
    }

    /// Whether every link of the dimension-ordered walk is alive, checked
    /// hop by hop without building the path.
    fn walk_alive(&self, src: NodeId, dst: NodeId, x_first: bool) -> bool {
        let mut from = src;
        self.failed_links.is_empty()
            || Self::walk(src, dst, x_first)
                .all(|to| !self.link_failed(std::mem::replace(&mut from, to), to))
    }

    /// Dimension-ordered XY route, ignoring link failures.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::UnknownNode`] for out-of-mesh endpoints.
    pub fn route_xy(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>> {
        self.check(src)?;
        self.check(dst)?;
        Ok(std::iter::once(src)
            .chain(Self::walk(src, dst, true))
            .collect())
    }

    /// Fault-aware route: XY if alive, else YX, else a breadth-first
    /// search over live links.
    ///
    /// # Errors
    ///
    /// Returns [`NocError::NoRoute`] when the destination is unreachable
    /// over live links, or [`NocError::UnknownNode`] for bad endpoints.
    pub fn route(&self, src: NodeId, dst: NodeId) -> Result<Vec<NodeId>> {
        let mut path = Vec::new();
        self.route_into(src, dst, &mut path)?;
        Ok(path)
    }

    /// [`route`](Self::route) into a caller's buffer, which is cleared
    /// first: the network reuses one, so a transfer's route allocates
    /// nothing once the buffer has grown.
    ///
    /// # Errors
    ///
    /// As [`route`](Self::route); the buffer's contents are then
    /// unspecified.
    pub fn route_into(&self, src: NodeId, dst: NodeId, path: &mut Vec<NodeId>) -> Result<()> {
        self.check(src)?;
        self.check(dst)?;
        path.clear();
        let x_first = if self.walk_alive(src, dst, true) {
            true
        } else if self.walk_alive(src, dst, false) {
            false
        } else {
            let bfs = self.bfs(src, dst).ok_or(NocError::NoRoute { src, dst })?;
            path.extend(bfs);
            return Ok(());
        };
        path.push(src);
        path.extend(Self::walk(src, dst, x_first));
        Ok(())
    }

    fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(4);
        if n.x > 0 {
            out.push(NodeId::new(n.x - 1, n.y));
        }
        if (n.x as usize) + 1 < self.width {
            out.push(NodeId::new(n.x + 1, n.y));
        }
        if n.y > 0 {
            out.push(NodeId::new(n.x, n.y - 1));
        }
        if (n.y as usize) + 1 < self.height {
            out.push(NodeId::new(n.x, n.y + 1));
        }
        out
    }

    fn bfs(&self, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        use std::collections::{HashMap, VecDeque};
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut queue = VecDeque::from([src]);
        let mut seen = std::collections::HashSet::from([src]);
        while let Some(n) = queue.pop_front() {
            if n == dst {
                let mut path = vec![dst];
                let mut cur = dst;
                while cur != src {
                    cur = prev[&cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for nb in self.neighbors(n) {
                if !seen.contains(&nb) && !self.link_failed(n, nb) {
                    seen.insert(nb);
                    prev.insert(nb, n);
                    queue.push_back(nb);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(x: u16, y: u16) -> NodeId {
        NodeId::new(x, y)
    }

    #[test]
    fn new_rejects_degenerate_meshes() {
        assert!(Mesh::new(0, 4).is_none());
        assert!(Mesh::new(4, 0).is_none());
        assert!(Mesh::new(4, 4).is_some());
    }

    #[test]
    fn xy_route_is_minimal() {
        let mesh = Mesh::new(8, 8).unwrap();
        let path = mesh.route_xy(n(1, 1), n(5, 6)).unwrap();
        assert_eq!(path.len() as u32 - 1, n(1, 1).manhattan(n(5, 6)));
        assert_eq!(*path.first().unwrap(), n(1, 1));
        assert_eq!(*path.last().unwrap(), n(5, 6));
        // Adjacent steps only.
        for w in path.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1);
        }
    }

    #[test]
    fn route_to_self_is_trivial() {
        let mesh = Mesh::new(4, 4).unwrap();
        assert_eq!(mesh.route(n(2, 2), n(2, 2)).unwrap(), vec![n(2, 2)]);
    }

    #[test]
    fn out_of_mesh_is_an_error() {
        let mesh = Mesh::new(2, 2).unwrap();
        assert!(matches!(
            mesh.route(n(0, 0), n(5, 5)),
            Err(NocError::UnknownNode { .. })
        ));
    }

    #[test]
    fn failed_link_falls_back_to_yx() {
        let mut mesh = Mesh::new(4, 4).unwrap();
        // Break the first hop of the XY path (0,0)->(1,0).
        mesh.fail_link(n(0, 0), n(1, 0));
        let path = mesh.route(n(0, 0), n(2, 2)).unwrap();
        assert_eq!(path[1], n(0, 1), "YX goes vertical first");
        assert_eq!(*path.last().unwrap(), n(2, 2));
        assert!(mesh.link_failed(n(0, 0), n(1, 0)));
        assert!(mesh.link_failed(n(1, 0), n(0, 0)), "both directions fail");
    }

    #[test]
    fn bfs_finds_detour_when_both_dimension_orders_fail() {
        let mut mesh = Mesh::new(3, 3).unwrap();
        // Cut the straight corridor between (0,0) and (2,0):
        mesh.fail_link(n(1, 0), n(2, 0)); // breaks XY
        mesh.fail_link(n(0, 0), n(0, 1)); // breaks YX's first hop? YX for (2,0) is x-only... same row
                                          // For a same-row destination XY == YX; cut forces a detour.
        let path = mesh.route(n(0, 0), n(2, 0)).unwrap();
        assert_eq!(*path.last().unwrap(), n(2, 0));
        assert!(path.len() > 3, "detour is longer than the direct path");
        assert!(path.windows(2).all(|w| !mesh.link_failed(w[0], w[1])));
    }

    #[test]
    fn unreachable_destination_reports_no_route() {
        let mut mesh = Mesh::new(2, 1).unwrap();
        mesh.fail_link(n(0, 0), n(1, 0));
        assert_eq!(
            mesh.route(n(0, 0), n(1, 0)),
            Err(NocError::NoRoute {
                src: n(0, 0),
                dst: n(1, 0)
            })
        );
    }

    #[test]
    fn repair_restores_routing() {
        let mut mesh = Mesh::new(2, 1).unwrap();
        mesh.fail_link(n(0, 0), n(1, 0));
        assert!(mesh.route(n(0, 0), n(1, 0)).is_err());
        mesh.repair_link(n(0, 0), n(1, 0));
        assert!(mesh.route(n(0, 0), n(1, 0)).is_ok());
        assert_eq!(mesh.failed_link_count(), 0);
    }

    #[test]
    fn route_into_overwrites_the_buffer_with_the_route() {
        let mut mesh = Mesh::new(4, 4).unwrap();
        let mut path = vec![n(3, 3); 9];
        for fail in [None, Some((n(1, 0), n(2, 0))), Some((n(0, 2), n(0, 3)))] {
            if let Some((a, b)) = fail {
                mesh.fail_link(a, b);
            }
            for (src, dst) in [(n(0, 0), n(3, 3)), (n(0, 0), n(3, 0)), (n(2, 1), n(2, 1))] {
                mesh.route_into(src, dst, &mut path).unwrap();
                assert_eq!(path, mesh.route(src, dst).unwrap());
            }
        }
        // A same-row route's XY and YX walks coincide, so the cut sends
        // it to the breadth-first detour.
        assert_eq!(mesh.failed_link_count(), 2);
        assert_eq!(
            mesh.route(n(0, 0), n(3, 0)).unwrap(),
            [n(0, 0), n(1, 0), n(1, 1), n(2, 1), n(3, 1), n(3, 0)]
        );
        mesh.repair_link(n(2, 0), n(1, 0));
        assert_eq!(mesh.failed_link_count(), 1);
        assert!(!mesh.link_failed(n(1, 0), n(2, 0)));
        assert!(mesh.link_failed(n(0, 3), n(0, 2)));
    }

    #[test]
    fn nodes_enumerates_all() {
        let mesh = Mesh::new(3, 2).unwrap();
        let all: Vec<NodeId> = mesh.nodes().collect();
        assert_eq!(all.len(), 6);
        assert_eq!(all[0], n(0, 0));
        assert_eq!(all[5], n(2, 1));
    }
}
