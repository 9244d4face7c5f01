//! Undirected, positively weighted dynamic graph with adjacency-list storage.
//!
//! The [`Graph`] type is the substrate for every index in this repository.
//! It supports:
//!
//! * O(1) amortized edge insertion through [`GraphBuilder`],
//! * O(deg) neighbor iteration and edge-weight lookup,
//! * in-place edge-weight mutation (the "dynamicity" of §II: weights only
//!   increase or decrease, the topology never changes),
//! * cheap cloning (used by index-construction algorithms that contract a
//!   working copy of the graph).

use crate::types::{Dist, EdgeId, VertexId, Weight};
use crate::updates::UpdateBatch;
use rustc_hash::FxHashMap;
use std::fmt;

/// One directed arc stored in the adjacency list (each undirected edge is
/// stored twice, once per endpoint).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arc {
    /// The neighbor this arc points to.
    pub to: VertexId,
    /// Current weight of the underlying undirected edge.
    pub weight: Weight,
    /// Identifier of the underlying undirected edge (shared by both arcs).
    pub edge: EdgeId,
}

/// An undirected weighted graph with mutable edge weights.
///
/// Invariants:
/// * every undirected edge `{u, v}` appears exactly once in `edges` and as two
///   arcs, one in `adj[u]` and one in `adj[v]`, which always carry the same
///   weight;
/// * there are no self-loops and no parallel edges;
/// * all weights are strictly positive.
#[derive(Clone)]
pub struct Graph {
    /// Adjacency lists: `adj[v]` holds one [`Arc`] per incident edge.
    adj: Vec<Vec<Arc>>,
    /// Endpoints of every undirected edge, `edges[e] = (u, v)` with `u < v`.
    edges: Vec<(VertexId, VertexId)>,
    /// Current weight of every undirected edge.
    weights: Vec<Weight>,
}

impl Graph {
    /// Creates an empty graph with `n` isolated vertices.
    pub fn with_vertices(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edges: Vec::new(),
            weights: Vec::new(),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Iterator over all vertex ids, `v0..v(n-1)`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.adj.len()).map(VertexId::from_index)
    }

    /// Degree (number of incident edges) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.adj[v.index()].len()
    }

    /// Iterator over the arcs leaving `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> NeighborIter<'_> {
        NeighborIter {
            inner: self.adj[v.index()].iter(),
        }
    }

    /// Slice of the arcs leaving `v` (useful for index-based hot loops).
    #[inline]
    pub fn arcs(&self, v: VertexId) -> &[Arc] {
        &self.adj[v.index()]
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// Current weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> Weight {
        self.weights[e.index()]
    }

    /// Iterator over `(EdgeId, u, v, weight)` for every undirected edge.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, Weight)> + '_ {
        self.edges
            .iter()
            .zip(self.weights.iter())
            .enumerate()
            .map(|(i, (&(u, v), &w))| (EdgeId::from_index(i), u, v, w))
    }

    /// Looks up the edge between `u` and `v`, if any, returning its id and
    /// current weight. O(min(deg(u), deg(v))).
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<(EdgeId, Weight)> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a.index()]
            .iter()
            .find(|arc| arc.to == b)
            .map(|arc| (arc.edge, arc.weight))
    }

    /// Returns the weight of the edge between `u` and `v` as a [`Dist`], or
    /// `INF` if the edge does not exist.
    pub fn edge_dist(&self, u: VertexId, v: VertexId) -> Dist {
        match self.find_edge(u, v) {
            Some((_, w)) => Dist(w),
            None => crate::types::INF,
        }
    }

    /// Sets the weight of edge `e` to `w` (must be positive), updating both
    /// adjacency copies. Returns the previous weight.
    pub fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> Weight {
        assert!(w > 0, "edge weights must be strictly positive");
        let old = self.weights[e.index()];
        if old == w {
            return old;
        }
        self.weights[e.index()] = w;
        let (u, v) = self.edges[e.index()];
        for arc in self.adj[u.index()].iter_mut() {
            if arc.edge == e {
                arc.weight = w;
                break;
            }
        }
        for arc in self.adj[v.index()].iter_mut() {
            if arc.edge == e {
                arc.weight = w;
                break;
            }
        }
        old
    }

    /// Applies every update of a batch in order, returning the list of
    /// `(EdgeId, old_weight, new_weight)` changes actually performed (no-op
    /// updates whose new weight equals the current weight are skipped).
    ///
    /// This is "U-Stage 1: on-spot edge update" of the PMHL/PostMHL pipelines
    /// (§V-D, §VI-C): the graph is refreshed immediately so that index-free
    /// BiDijkstra can already answer queries correctly.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Vec<(EdgeId, Weight, Weight)> {
        let mut applied = Vec::with_capacity(batch.len());
        for upd in batch.iter() {
            let old = self.edge_weight(upd.edge);
            if old != upd.new_weight {
                self.set_edge_weight(upd.edge, upd.new_weight);
                applied.push((upd.edge, old, upd.new_weight));
            }
        }
        applied
    }

    /// Reverses a previously applied batch (used by experiments that replay
    /// the same batch against several indexes).
    pub fn revert(&mut self, applied: &[(EdgeId, Weight, Weight)]) {
        for &(e, old, _new) in applied.iter().rev() {
            self.set_edge_weight(e, old);
        }
    }

    /// Total weight of all edges (useful as a sanity statistic).
    pub fn total_weight(&self) -> u64 {
        self.weights.iter().map(|&w| w as u64).sum()
    }

    /// Returns the maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(|a| a.len()).max().unwrap_or(0)
    }

    /// Checks the structural invariants; intended for tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_vertices();
        if self.edges.len() != self.weights.len() {
            return Err("edges / weights length mismatch".into());
        }
        let mut seen: FxHashMap<(u32, u32), EdgeId> = FxHashMap::default();
        for (i, (&(u, v), &w)) in self.edges.iter().zip(self.weights.iter()).enumerate() {
            let e = EdgeId::from_index(i);
            if u == v {
                return Err(format!("self loop at {u}"));
            }
            if u.index() >= n || v.index() >= n {
                return Err(format!("edge {e:?} endpoint out of range"));
            }
            if u > v {
                return Err(format!("edge {e:?} endpoints not normalized"));
            }
            if w == 0 {
                return Err(format!("edge {e:?} has zero weight"));
            }
            if seen.insert((u.0, v.0), e).is_some() {
                return Err(format!("parallel edge {u}-{v}"));
            }
            let arc_u = self.adj[u.index()].iter().find(|a| a.edge == e);
            let arc_v = self.adj[v.index()].iter().find(|a| a.edge == e);
            match (arc_u, arc_v) {
                (Some(au), Some(av)) => {
                    if au.to != v || av.to != u || au.weight != w || av.weight != w {
                        return Err(format!("arc mismatch for edge {e:?}"));
                    }
                }
                _ => return Err(format!("missing arc for edge {e:?}")),
            }
        }
        let arc_count: usize = self.adj.iter().map(|a| a.len()).sum();
        if arc_count != 2 * self.edges.len() {
            return Err("arc count is not twice the edge count".into());
        }
        Ok(())
    }

    /// Returns `true` if the graph is connected (empty graphs count as
    /// connected). Uses an iterative BFS over the adjacency lists.
    pub fn is_connected(&self) -> bool {
        let n = self.num_vertices();
        if n == 0 {
            return true;
        }
        let mut visited = vec![false; n];
        let mut stack = vec![VertexId(0)];
        visited[0] = true;
        let mut count = 1usize;
        while let Some(v) = stack.pop() {
            for arc in self.arcs(v) {
                if !visited[arc.to.index()] {
                    visited[arc.to.index()] = true;
                    count += 1;
                    stack.push(arc.to);
                }
            }
        }
        count == n
    }

    /// Heap bytes held by the adjacency lists and edge arrays (the
    /// pointer-chasing representation the flat [`crate::storage::CsrGraph`]
    /// is compared against).
    pub fn heap_bytes(&self) -> usize {
        let arcs: usize = self.adj.iter().map(|a| a.capacity()).sum();
        self.adj.capacity() * std::mem::size_of::<Vec<Arc>>()
            + arcs * std::mem::size_of::<Arc>()
            + self.edges.capacity() * std::mem::size_of::<(VertexId, VertexId)>()
            + self.weights.capacity() * std::mem::size_of::<Weight>()
    }

    /// Builds a graph from an already-normalized edge list: `u < v`, no
    /// self-loops, no duplicates. Edge ids are positions in `edges`. Callers
    /// (the CSR converter and the snapshot decoder) validate beforehand;
    /// this constructor only asserts in debug builds.
    pub(crate) fn from_normalized_edges(
        n: usize,
        edges: Vec<(VertexId, VertexId)>,
        weights: Vec<Weight>,
    ) -> Graph {
        debug_assert_eq!(edges.len(), weights.len());
        let mut degree = vec![0u32; n];
        for &(u, v) in &edges {
            degree[u.index()] += 1;
            degree[v.index()] += 1;
        }
        let mut adj: Vec<Vec<Arc>> = degree
            .into_iter()
            .map(|d| Vec::with_capacity(d as usize))
            .collect();
        for (i, &(u, v)) in edges.iter().enumerate() {
            debug_assert!(u < v && v.index() < n && weights[i] > 0);
            let e = EdgeId::from_index(i);
            let w = weights[i];
            adj[u.index()].push(Arc {
                to: v,
                weight: w,
                edge: e,
            });
            adj[v.index()].push(Arc {
                to: u,
                weight: w,
                edge: e,
            });
        }
        Graph {
            adj,
            edges,
            weights,
        }
    }

    /// Extracts the vertex-induced subgraph on `vertices`, relabelling the
    /// vertices to `0..k`. Returns the subgraph together with the mapping
    /// `local -> global`.
    ///
    /// Only edges with *both* endpoints inside `vertices` are retained
    /// (intra-partition edges `E_intra` in the PSP terminology of §III-C).
    pub fn induced_subgraph(&self, vertices: &[VertexId]) -> (Graph, Vec<VertexId>) {
        let mut global_to_local: FxHashMap<VertexId, u32> = FxHashMap::default();
        global_to_local.reserve(vertices.len());
        for (i, &v) in vertices.iter().enumerate() {
            global_to_local.insert(v, i as u32);
        }
        let mut builder = GraphBuilder::new(vertices.len());
        for (_, u, v, w) in self.edges() {
            if let (Some(&lu), Some(&lv)) = (global_to_local.get(&u), global_to_local.get(&v)) {
                builder.add_edge(VertexId(lu), VertexId(lv), w);
            }
        }
        (builder.build(), vertices.to_vec())
    }
}

/// Lets views read a graph through its owner (a plain graph, or a structure
/// that embeds one).
impl AsRef<Graph> for Graph {
    fn as_ref(&self) -> &Graph {
        self
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph {{ n: {}, m: {} }}",
            self.num_vertices(),
            self.num_edges()
        )
    }
}

/// Incremental builder for [`Graph`]; deduplicates parallel edges by keeping
/// the minimum weight (the standard convention for road-network multigraphs).
pub struct GraphBuilder {
    n: usize,
    /// Map from normalized endpoint pair to (position in `edge_list`).
    index: FxHashMap<(u32, u32), usize>,
    edge_list: Vec<(VertexId, VertexId, Weight)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            index: FxHashMap::default(),
            edge_list: Vec::new(),
        }
    }

    /// Adds (or merges) the undirected edge `{u, v}` with weight `w`.
    ///
    /// Self-loops are ignored. If the edge already exists the minimum of the
    /// old and new weights is kept. Returns `true` if a new edge was created.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: Weight) -> bool {
        assert!(w > 0, "edge weights must be strictly positive");
        assert!(
            u.index() < self.n && v.index() < self.n,
            "edge endpoint out of range"
        );
        if u == v {
            return false;
        }
        let key = if u < v { (u.0, v.0) } else { (v.0, u.0) };
        match self.index.get(&key) {
            Some(&pos) => {
                if w < self.edge_list[pos].2 {
                    self.edge_list[pos].2 = w;
                }
                false
            }
            None => {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                self.index.insert(key, self.edge_list.len());
                self.edge_list.push((a, b, w));
                true
            }
        }
    }

    /// Number of distinct edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edge_list.len()
    }

    /// Finalizes the builder into an immutable-topology [`Graph`].
    pub fn build(self) -> Graph {
        let mut g = Graph::with_vertices(self.n);
        g.edges.reserve(self.edge_list.len());
        g.weights.reserve(self.edge_list.len());
        for (u, v, w) in self.edge_list {
            let e = EdgeId::from_index(g.edges.len());
            g.edges.push((u, v));
            g.weights.push(w);
            g.adj[u.index()].push(Arc {
                to: v,
                weight: w,
                edge: e,
            });
            g.adj[v.index()].push(Arc {
                to: u,
                weight: w,
                edge: e,
            });
        }
        g
    }
}

/// Iterator over the arcs incident to one vertex.
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, Arc>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = &'a Arc;

    #[inline]
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::INF;
    use crate::updates::EdgeUpdate;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(VertexId(0), VertexId(1), 3);
        b.add_edge(VertexId(1), VertexId(2), 4);
        b.add_edge(VertexId(0), VertexId(2), 10);
        b.build()
    }

    #[test]
    fn build_and_validate_triangle() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        g.validate().expect("triangle should be valid");
        assert!(g.is_connected());
    }

    #[test]
    fn degree_and_neighbors() {
        let g = triangle();
        assert_eq!(g.degree(VertexId(0)), 2);
        let nbrs: Vec<_> = g.neighbors(VertexId(0)).map(|a| a.to).collect();
        assert!(nbrs.contains(&VertexId(1)));
        assert!(nbrs.contains(&VertexId(2)));
    }

    #[test]
    fn find_edge_and_edge_dist() {
        let g = triangle();
        let (_, w) = g.find_edge(VertexId(0), VertexId(1)).unwrap();
        assert_eq!(w, 3);
        let (_, w) = g.find_edge(VertexId(1), VertexId(0)).unwrap();
        assert_eq!(w, 3);
        assert_eq!(g.edge_dist(VertexId(0), VertexId(2)), Dist(10));
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        let g2 = b.build();
        assert_eq!(g2.edge_dist(VertexId(0), VertexId(3)), INF);
        assert!(g2.find_edge(VertexId(2), VertexId(3)).is_none());
    }

    #[test]
    fn set_edge_weight_updates_both_arcs() {
        let mut g = triangle();
        let (e, _) = g.find_edge(VertexId(0), VertexId(1)).unwrap();
        let old = g.set_edge_weight(e, 7);
        assert_eq!(old, 3);
        assert_eq!(g.edge_weight(e), 7);
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(7));
        assert_eq!(g.edge_dist(VertexId(1), VertexId(0)), Dist(7));
        g.validate().expect("still valid after weight change");
    }

    #[test]
    fn parallel_edges_keep_minimum_weight() {
        let mut b = GraphBuilder::new(2);
        assert!(b.add_edge(VertexId(0), VertexId(1), 9));
        assert!(!b.add_edge(VertexId(1), VertexId(0), 4));
        assert!(!b.add_edge(VertexId(0), VertexId(1), 6));
        let g = b.build();
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edge_dist(VertexId(0), VertexId(1)), Dist(4));
    }

    #[test]
    fn self_loops_are_ignored() {
        let mut b = GraphBuilder::new(2);
        assert!(!b.add_edge(VertexId(1), VertexId(1), 5));
        assert_eq!(b.num_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_weight_edge_panics() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId(0), VertexId(1), 0);
    }

    #[test]
    fn apply_and_revert_batch() {
        let mut g = triangle();
        let (e01, _) = g.find_edge(VertexId(0), VertexId(1)).unwrap();
        let (e12, _) = g.find_edge(VertexId(1), VertexId(2)).unwrap();
        let batch =
            UpdateBatch::from_updates(vec![EdgeUpdate::new(e01, 3, 6), EdgeUpdate::new(e12, 4, 2)]);
        let applied = g.apply_batch(&batch);
        assert_eq!(applied.len(), 2);
        assert_eq!(g.edge_weight(e01), 6);
        assert_eq!(g.edge_weight(e12), 2);
        g.revert(&applied);
        assert_eq!(g.edge_weight(e01), 3);
        assert_eq!(g.edge_weight(e12), 4);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = triangle();
        let (sub, mapping) = g.induced_subgraph(&[VertexId(0), VertexId(1)]);
        assert_eq!(sub.num_vertices(), 2);
        assert_eq!(sub.num_edges(), 1);
        assert_eq!(mapping, vec![VertexId(0), VertexId(1)]);
        assert_eq!(sub.edge_dist(VertexId(0), VertexId(1)), Dist(3));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        assert!(!g.is_connected());
    }

    #[test]
    fn vertices_iterator_covers_all() {
        let g = triangle();
        let vs: Vec<_> = g.vertices().collect();
        assert_eq!(vs, vec![VertexId(0), VertexId(1), VertexId(2)]);
    }

    #[test]
    fn total_weight_and_max_degree() {
        let g = triangle();
        assert_eq!(g.total_weight(), 17);
        assert_eq!(g.max_degree(), 2);
    }
}
