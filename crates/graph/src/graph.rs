//! Undirected, positively weighted dynamic graph.
//!
//! [`Graph`] is the one graph type of this repository. Every index is built
//! on it, every published view answers on it, and the server, the update
//! feed and the maintainers all hold clones of the same version. It
//! supports:
//!
//! * edge insertion with parallel-edge merging through [`GraphBuilder`]
//!   (edge ids are insertion order),
//! * O(deg) neighbor iteration in edge-id order and O(1) edge-weight
//!   lookup,
//! * edge-weight mutation (the "dynamicity" of §II: weights only increase
//!   or decrease, the topology never changes),
//! * O(chunks) cloning: the CSR topology is shared by every clone and the
//!   weights are copy-on-write (see [`crate::storage`]).

use crate::cow::CowVec;
use crate::storage::{Arcs, GraphBytes, Neighbors, Topology, WEIGHT_CHUNK};
use crate::types::{Dist, EdgeId, VertexId, Weight};
use crate::updates::UpdateBatch;
use rustc_hash::FxHashMap;
use std::fmt;

/// One directed arc leaving a vertex (each undirected edge has two, one per
/// endpoint).
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
/// * every undirected edge `{u, v}` (`u < v`) has exactly two arcs, one at
///   each endpoint, which always carry the same weight;
/// * there are no self-loops and no parallel edges;
/// * all weights are strictly positive.
#[derive(Clone)]
pub struct Graph {
    pub(crate) topology: std::sync::Arc<Topology>,
    /// Current weight per arc.
    pub(crate) weights: CowVec<Weight>,
}

impl Graph {
    /// Builds a graph from a normalized edge list: `u < v`, no self-loops,
    /// no duplicates, positive weights. Edge ids are positions in `edges`.
    /// Callers (the builder, the DIMACS streamer and the snapshot decoder)
    /// validate beforehand; this constructor only asserts in debug builds.
    pub(crate) fn from_normalized_edges(
        n: usize,
        edges: &[(VertexId, VertexId)],
        weights: &[Weight],
    ) -> Graph {
        let (topology, arc_weights) = Topology::build(n, edges, weights);
        Graph {
            topology: std::sync::Arc::new(topology),
            weights: CowVec::from_vec(arc_weights, WEIGHT_CHUNK),
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.topology.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.topology.edge_arcs.len()
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Iterator over all vertex ids, `v0..v(n-1)`.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.num_vertices()).map(VertexId::from_index)
    }

    /// Degree (number of incident edges) of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        self.topology.arc_range(v).len()
    }

    /// The arcs leaving `v`, in edge-id order.
    #[inline]
    pub fn arcs(&self, v: VertexId) -> Arcs<'_> {
        Arcs::new(&self.topology, &self.weights, v)
    }

    /// The `(neighbor, weight)` pairs of the arcs leaving `v`, in edge-id
    /// order: [`Graph::arcs`] without the edge ids.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> Neighbors<'_> {
        Neighbors::new(&self.topology, &self.weights, v)
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        let [at_u, at_v] = self.topology.edge_arcs[e.index()];
        let t = &self.topology.targets;
        (t[at_v as usize], t[at_u as usize])
    }

    /// Current weight of edge `e`.
    #[inline]
    pub fn edge_weight(&self, e: EdgeId) -> Weight {
        self.weights[self.topology.edge_arcs[e.index()][0] as usize]
    }

    /// Iterator over `(EdgeId, u, v, weight)` for every undirected edge, in
    /// edge-id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, VertexId, VertexId, Weight)> + '_ {
        (0..self.num_edges()).map(|i| {
            let e = EdgeId::from_index(i);
            let (u, v) = self.edge_endpoints(e);
            (e, u, v, self.edge_weight(e))
        })
    }

    /// Looks up the edge between `u` and `v`, if any, returning its id and
    /// current weight. O(min(deg(u), deg(v))).
    pub fn find_edge(&self, u: VertexId, v: VertexId) -> Option<(EdgeId, Weight)> {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.arcs(a)
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

    /// Sets the weight of edge `e` to `w` (must be positive) on both of its
    /// arcs. Returns the previous weight.
    pub fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> Weight {
        assert!(w > 0, "edge weights must be strictly positive");
        let [at_u, at_v] = self.topology.edge_arcs[e.index()];
        let old = self.weights[at_u as usize];
        if old != w {
            *self.weights.make_mut(at_u as usize) = w;
            *self.weights.make_mut(at_v as usize) = w;
        }
        old
    }

    /// Applies every update of a batch in order, returning the list of
    /// `(EdgeId, old_weight, new_weight)` changes actually performed (no-op
    /// updates whose new weight equals the current weight are skipped).
    ///
    /// This is "U-Stage 1: on-spot edge update" of the PMHL/PostMHL pipelines
    /// (§V-D, §VI-C): the graph is refreshed immediately so that index-free
    /// BiDijkstra can already answer queries correctly. Only the weight
    /// chunks written here are copied, once each, and only if a clone still
    /// shares them.
    pub fn apply_batch(&mut self, batch: &UpdateBatch) -> Vec<(EdgeId, Weight, Weight)> {
        let mut applied = Vec::with_capacity(batch.len());
        for upd in batch {
            let old = self.set_edge_weight(upd.edge, upd.new_weight);
            if old != upd.new_weight {
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
        self.edges().map(|(_, _, _, w)| w as u64).sum()
    }

    /// Returns the maximum vertex degree.
    pub fn max_degree(&self) -> usize {
        self.vertices().map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// Checks the structural invariants; intended for tests and debug builds.
    pub fn validate(&self) -> Result<(), String> {
        let t = &self.topology;
        let n = self.num_vertices();
        if t.targets.len() != 2 * self.num_edges() || self.weights.len() != t.targets.len() {
            return Err("arc count is not twice the edge count".into());
        }
        let mut seen: FxHashMap<(u32, u32), EdgeId> = FxHashMap::default();
        for (e, u, v, w) in self.edges() {
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
            let [at_u, at_v] = t.edge_arcs[e.index()].map(|a| a as usize);
            if !self.topology.arc_range(u).contains(&at_u)
                || !self.topology.arc_range(v).contains(&at_v)
                || t.arc_edge[at_u] != e
                || t.arc_edge[at_v] != e
                || self.weights[at_v] != w
            {
                return Err(format!("arc mismatch for edge {e:?}"));
            }
        }
        for v in self.vertices() {
            if !t.arc_edge[self.topology.arc_range(v)].is_sorted() {
                return Err(format!("arcs of {v} are not in edge-id order"));
            }
        }
        Ok(())
    }

    /// Returns `true` if the graph is connected (empty graphs count as
    /// connected). Uses an iterative depth-first walk over the arcs.
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

    /// Heap bytes of the topology and of the weights. Both are counted in
    /// full by every clone, which shares them.
    pub fn heap_size_bytes(&self) -> usize {
        self.topology.heap_bytes() + self.weights.heap_bytes()
    }

    /// [`Graph::heap_size_bytes`] under the name the streaming DIMACS
    /// loader's result once had it (see [`crate::storage::CsrGraph`]).
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> GraphBytes {
        GraphBytes(self.heap_size_bytes())
    }

    /// A clone: the conversion the streaming DIMACS loader's result once
    /// needed (see [`crate::storage::CsrGraph`]).
    #[doc(hidden)]
    pub fn to_graph(&self) -> Graph {
        self.clone()
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
    /// Map from normalized endpoint pair to its position in `edges`.
    index: FxHashMap<(u32, u32), usize>,
    edges: Vec<(VertexId, VertexId)>,
    weights: Vec<Weight>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices.
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            index: FxHashMap::default(),
            edges: Vec::new(),
            weights: Vec::new(),
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
        let (a, b) = if u < v { (u, v) } else { (v, u) };
        match self.index.get(&(a.0, b.0)) {
            Some(&pos) => {
                self.weights[pos] = self.weights[pos].min(w);
                false
            }
            None => {
                self.index.insert((a.0, b.0), self.edges.len());
                self.edges.push((a, b));
                self.weights.push(w);
                true
            }
        }
    }

    /// Number of distinct edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Finalizes the builder into a [`Graph`]; edge ids are insertion order.
    pub fn build(self) -> Graph {
        Graph::from_normalized_edges(self.n, &self.edges, &self.weights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::INF;
    use crate::updates::{EdgeUpdate, UpdateGenerator};

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
        let nbrs: Vec<_> = g.arcs(VertexId(0)).map(|a| a.to).collect();
        assert!(nbrs.contains(&VertexId(1)));
        assert!(nbrs.contains(&VertexId(2)));
    }

    #[test]
    fn arcs_are_in_edge_id_order_and_ids_in_insertion_order() {
        let mut b = GraphBuilder::new(4);
        for (u, v) in [(3, 0), (0, 2), (1, 0), (2, 3)] {
            b.add_edge(VertexId(u), VertexId(v), 1 + u + v);
        }
        let g = b.build();
        let at0: Vec<_> = g.arcs(VertexId(0)).map(|a| (a.to.0, a.edge.0)).collect();
        assert_eq!(at0, vec![(3, 0), (2, 1), (1, 2)]);
        assert_eq!(g.edge_endpoints(EdgeId(0)), (VertexId(0), VertexId(3)));
        assert_eq!(g.edge_endpoints(EdgeId(3)), (VertexId(2), VertexId(3)));
        g.validate().unwrap();
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
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::new(e01, 3, 6),
            EdgeUpdate::new(e12, 4, 2),
            EdgeUpdate::new(e12, 2, 2),
        ]);
        let applied = g.apply_batch(&batch);
        assert_eq!(
            applied,
            vec![(e01, 3, 6), (e12, 4, 2)],
            "no-ops are skipped"
        );
        assert_eq!(g.edge_weight(e01), 6);
        assert_eq!(g.edge_weight(e12), 2);
        g.revert(&applied);
        assert_eq!(g.edge_weight(e01), 3);
        assert_eq!(g.edge_weight(e12), 4);
    }

    #[test]
    fn repeated_updates_of_one_edge_apply_in_order() {
        let g = triangle();
        let (e, w) = g.find_edge(VertexId(1), VertexId(2)).unwrap();
        let mut next = g.clone();
        let batch = UpdateBatch::from_updates(vec![
            EdgeUpdate::new(e, w, 9),
            EdgeUpdate::new(e, 9, w),
            EdgeUpdate::new(e, w, w),
            EdgeUpdate::new(e, w, 11),
        ]);
        let applied = next.apply_batch(&batch);
        assert_eq!(applied, vec![(e, w, 9), (e, 9, w), (e, w, 11)]);
        assert_eq!(next.edge_dist(VertexId(2), VertexId(1)), Dist(11));
        assert_eq!(g.edge_weight(e), w);
        next.validate().unwrap();
    }

    #[test]
    fn a_clone_shares_the_topology_and_copies_only_written_chunks() {
        let g = crate::gen::grid(60, 60, crate::gen::WeightRange::new(1, 50), 3);
        assert!(g.weights.num_chunks() > 8);
        let batch = UpdateGenerator::new(7).generate(&g, 5);
        let mut next = g.clone();
        assert!(std::sync::Arc::ptr_eq(&next.topology, &g.topology));
        next.apply_batch(&batch);
        assert!(std::sync::Arc::ptr_eq(&next.topology, &g.topology));
        // Each edge writes its two arcs; only their chunks are copied.
        let written: std::collections::BTreeSet<usize> = batch
            .iter()
            .filter(|u| u.new_weight != u.old_weight)
            .flat_map(|u| g.topology.edge_arcs[u.edge.index()])
            .map(|a| a as usize / WEIGHT_CHUNK)
            .collect();
        let cloned = next.weights.stats().chunks_cloned;
        assert_eq!(cloned, written.len() as u64);
        assert!(cloned <= 2 * batch.len() as u64);
        for upd in &batch {
            assert_eq!(g.edge_weight(upd.edge), upd.old_weight);
            assert_eq!(next.edge_weight(upd.edge), upd.new_weight);
        }
        next.validate().unwrap();
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
        let (topology, weights) = (g.topology.heap_bytes(), g.weights.heap_bytes());
        assert!(topology > 0 && weights > 0);
        assert_eq!(g.heap_size_bytes(), topology + weights);
        assert_eq!(g.heap_bytes().total(), g.heap_size_bytes());
    }
}
