//! The storage layer under [`Graph`]: one CSR topology shared by every
//! clone, and exact per-arc weights in a chunked [`CowVec`].
//!
//! ```text
//! offsets:   [0 .. n]    u32        arcs of v = offsets[v]..offsets[v + 1]
//! targets:   [0 .. 2m)   VertexId   neighbor per arc
//! arc_edge:  [0 .. 2m)   EdgeId     undirected edge per arc
//! edge_arcs: [0 .. m)    [u32; 2]   the arcs of edge e = {u, v}: at u, at v
//! weights:   [0 .. 2m)   Weight     per arc, WEIGHT_CHUNK arcs per chunk
//! ```
//!
//! The first four arrays are the topology. The topology never changes
//! (§II), so it is built once, counting-sorted from the edge list, and held
//! behind one `Arc` that every clone of the graph shares. Each vertex's
//! arcs are in edge-id order, the order the edges were inserted in.
//!
//! Weights are exact `u32`s, one per arc: both arcs of an edge carry its
//! weight. A search therefore reads a vertex's targets and weights from two
//! contiguous runs ([`Neighbors`]; [`Arcs`] adds the edge ids), and a
//! weight write touches the two arcs of its edge. The weights live in a
//! [`CowVec`] of 1,024 arcs per chunk, so
//! cloning a graph copies one topology pointer and the chunk spine, and a
//! batch of |U| edge updates copies at most 2|U| chunks, each once, and
//! only those a clone (a published view, the server's graph) still shares.
//!
//! Per edge that is 32 bytes (two targets, two arc edge ids, the two arc
//! positions, two weights) plus 4 bytes per vertex of offsets.

use crate::cow::CowVec;
use crate::graph::{Arc, Graph};
use crate::types::{EdgeId, VertexId, Weight};
use std::iter::Zip;
use std::slice::Iter;

/// Arcs per weight chunk: a batch of |U| edges copies at most 2|U| chunks
/// of 4 KiB, and a clone copies one pointer per 1024 arcs.
pub(crate) const WEIGHT_CHUNK: usize = 1024;

/// The immutable half of a graph, shared by every clone.
pub(crate) struct Topology {
    /// `offsets[v]..offsets[v + 1]` are the arcs of `v`; length n + 1.
    pub(crate) offsets: Vec<u32>,
    /// Neighbor per arc.
    pub(crate) targets: Vec<VertexId>,
    /// Undirected edge per arc.
    pub(crate) arc_edge: Vec<EdgeId>,
    /// Arcs of edge `e = {u, v}` (`u < v`): `[arc at u, arc at v]`. The arc
    /// at `u` points to `v` and the arc at `v` to `u`, so the endpoints are
    /// `(targets[at_v], targets[at_u])`.
    pub(crate) edge_arcs: Vec<[u32; 2]>,
}

impl Topology {
    /// Counting-sorts a normalized edge list (`u < v`, deduplicated, no
    /// self-loops, positive weights; `edges[e]` defines edge id `e`) into
    /// CSR, and returns it with the weight of every arc.
    pub(crate) fn build(
        n: usize,
        edges: &[(VertexId, VertexId)],
        weights: &[Weight],
    ) -> (Topology, Vec<Weight>) {
        debug_assert_eq!(edges.len(), weights.len());
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Arcs are placed in edge-id order, so each vertex's arcs are too.
        let mut cursor = offsets[..n].to_vec();
        let num_arcs = 2 * edges.len();
        let mut targets = vec![VertexId(0); num_arcs];
        let mut arc_edge = vec![EdgeId(0); num_arcs];
        let mut arc_weights = vec![0; num_arcs];
        let mut edge_arcs = Vec::with_capacity(edges.len());
        for (i, (&(u, v), &w)) in edges.iter().zip(weights).enumerate() {
            debug_assert!(u < v && v.index() < n && w > 0);
            let mut place = |from: VertexId, to: VertexId| {
                let a = cursor[from.index()];
                cursor[from.index()] += 1;
                targets[a as usize] = to;
                arc_edge[a as usize] = EdgeId::from_index(i);
                arc_weights[a as usize] = w;
                a
            };
            edge_arcs.push([place(u, v), place(v, u)]);
        }
        let topology = Topology {
            offsets,
            targets,
            arc_edge,
            edge_arcs,
        };
        (topology, arc_weights)
    }

    /// Arc range of `v`.
    #[inline]
    pub(crate) fn arc_range(&self, v: VertexId) -> std::ops::Range<usize> {
        let o = &self.offsets[v.index()..v.index() + 2];
        o[0] as usize..o[1] as usize
    }

    /// Heap bytes of the four arrays.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.offsets.capacity() * size_of::<u32>()
            + self.targets.capacity() * size_of::<VertexId>()
            + self.arc_edge.capacity() * size_of::<EdgeId>()
            + self.edge_arcs.capacity() * size_of::<[u32; 2]>()
    }
}

/// Targets and weights of consecutive arcs, zipped.
type Run<'a> = Zip<Iter<'a, VertexId>, Iter<'a, Weight>>;

/// Iterator over the `(neighbor, weight)` pairs of the arcs leaving one
/// vertex, in edge-id order (see [`Graph::neighbors`]): what a search
/// relaxes.
///
/// It walks one run of arcs at a time: targets and weights as two
/// equal-length slices. A vertex whose arcs cross a weight-chunk boundary
/// continues with the next chunk's run.
pub struct Neighbors<'a> {
    run: Run<'a>,
    /// The first arc after the current run, and one past the vertex's last.
    next: usize,
    end: usize,
    topology: &'a Topology,
    weights: &'a CowVec<Weight>,
}

impl<'a> Neighbors<'a> {
    #[inline]
    pub(crate) fn new(topology: &'a Topology, weights: &'a CowVec<Weight>, v: VertexId) -> Self {
        let range = topology.arc_range(v);
        let (run, next) = Self::run(topology, weights, range.clone());
        Neighbors {
            run,
            next,
            end: range.end,
            topology,
            weights,
        }
    }

    /// The run of `arcs`' first arc: up to the end of `arcs` or of its
    /// weight chunk, whichever comes first; and the arc after the run.
    #[inline]
    fn run(
        topology: &'a Topology,
        weights: &'a CowVec<Weight>,
        arcs: std::ops::Range<usize>,
    ) -> (Run<'a>, usize) {
        let chunk = weights.chunk(arcs.start / WEIGHT_CHUNK);
        let chunk = chunk.get(arcs.start % WEIGHT_CHUNK..).unwrap_or_default();
        let end = arcs.start + chunk.len().min(arcs.len());
        // The zip stops at the shorter slice: the targets up to `end`.
        (topology.targets[arcs.start..end].iter().zip(chunk), end)
    }
}

impl Iterator for Neighbors<'_> {
    type Item = (VertexId, Weight);

    #[inline]
    fn next(&mut self) -> Option<(VertexId, Weight)> {
        loop {
            if let Some((&to, &weight)) = self.run.next() {
                return Some((to, weight));
            }
            if self.next == self.end {
                return None;
            }
            (self.run, self.next) = Self::run(self.topology, self.weights, self.next..self.end);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = self.run.len() + (self.end - self.next);
        (len, Some(len))
    }
}

impl ExactSizeIterator for Neighbors<'_> {}

/// Iterator over the arcs leaving one vertex, in edge-id order (see
/// [`Graph::arcs`]): its [`Neighbors`] with their edge ids.
pub struct Arcs<'a> {
    neighbors: Neighbors<'a>,
    edges: Iter<'a, EdgeId>,
}

impl<'a> Arcs<'a> {
    #[inline]
    pub(crate) fn new(topology: &'a Topology, weights: &'a CowVec<Weight>, v: VertexId) -> Self {
        Arcs {
            neighbors: Neighbors::new(topology, weights, v),
            edges: topology.arc_edge[topology.arc_range(v)].iter(),
        }
    }
}

impl Iterator for Arcs<'_> {
    type Item = Arc;

    #[inline]
    fn next(&mut self) -> Option<Arc> {
        let (to, weight) = self.neighbors.next()?;
        let edge = *self.edges.next()?;
        Some(Arc { to, weight, edge })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.neighbors.size_hint()
    }
}

impl ExactSizeIterator for Arcs<'_> {}

/// The name the streaming DIMACS loader's result once had. It is a
/// [`Graph`]; `to_graph` is a clone.
#[doc(hidden)]
pub type CsrGraph = Graph;

/// What `CsrGraph::heap_bytes` once returned: read it with `total()`, which
/// is [`Graph::heap_size_bytes`].
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct GraphBytes(pub(crate) usize);

impl GraphBytes {
    /// Total heap bytes.
    pub fn total(&self) -> usize {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::graph::GraphBuilder;

    fn grid(side: usize, seed: u64) -> Graph {
        gen::grid(side, side, gen::WeightRange::default(), seed)
    }

    #[test]
    fn csr_matches_adjacency_lists() {
        // Each vertex's arcs are exactly its incident edges, in edge-id
        // order, each carrying its edge's weight.
        let g = grid(9, 42);
        let mut expect: Vec<Vec<Arc>> = vec![Vec::new(); g.num_vertices()];
        for (edge, u, v, weight) in g.edges() {
            expect[u.index()].push(Arc {
                to: v,
                weight,
                edge,
            });
            expect[v.index()].push(Arc {
                to: u,
                weight,
                edge,
            });
        }
        assert_eq!(g.topology.targets.len(), 2 * g.num_edges());
        for v in g.vertices() {
            assert_eq!(g.degree(v), expect[v.index()].len());
            assert_eq!(g.arcs(v).collect::<Vec<_>>(), expect[v.index()]);
            let neighbors: Vec<_> = expect[v.index()].iter().map(|a| (a.to, a.weight)).collect();
            assert_eq!(g.neighbors(v).collect::<Vec<_>>(), neighbors);
        }
        g.validate().unwrap();
    }

    #[test]
    fn round_trip_through_graph_preserves_edge_ids() {
        let g = grid(7, 7);
        let csr: CsrGraph = g.clone();
        let back = csr.to_graph();
        back.validate().expect("round-tripped graph is valid");
        assert!(std::sync::Arc::ptr_eq(&back.topology, &g.topology));
        assert_eq!(back.num_edges(), g.num_edges());
        for (e, u, v, w) in g.edges() {
            assert_eq!(back.edge_endpoints(e), (u, v));
            assert_eq!(back.edge_weight(e), w);
        }
    }

    #[test]
    fn set_edge_weight_updates_both_arcs_and_survives_off_grid() {
        let mut g = grid(5, 3);
        let (e, u, v, w0) = g.edges().next().unwrap();
        assert_eq!(g.set_edge_weight(e, w0), w0);
        // Any positive weight is stored exactly, far below or above the
        // generator's range.
        for w in [1, u32::MAX, w0] {
            g.set_edge_weight(e, w);
            assert_eq!(g.edge_weight(e), w);
            let seen: Vec<Weight> = g
                .arcs(u)
                .filter(|a| a.to == v)
                .chain(g.arcs(v).filter(|a| a.to == u))
                .map(|a| a.weight)
                .collect();
            assert_eq!(seen, vec![w, w], "both arc copies observe the new weight");
        }
    }

    #[test]
    fn arcs_crossing_a_weight_chunk_read_every_weight() {
        // A star whose centre has more arcs than one weight chunk holds.
        let leaves = WEIGHT_CHUNK + 37;
        let mut b = GraphBuilder::new(leaves + 2);
        b.add_edge(VertexId(0), VertexId(1), 5);
        for i in 0..leaves {
            b.add_edge(VertexId(1), VertexId::from_index(i + 2), 1 + i as Weight);
        }
        let mut g = b.build();
        let (e, _) = g
            .find_edge(VertexId(1), VertexId::from_index(leaves + 1))
            .unwrap();
        g.set_edge_weight(e, 99_999);
        let got: Vec<Weight> = g.arcs(VertexId(1)).map(|a| a.weight).collect();
        let mut expect: Vec<Weight> = std::iter::once(5).chain(1..=leaves as Weight).collect();
        *expect.last_mut().unwrap() = 99_999;
        assert_eq!(got, expect);
        assert_eq!(g.arcs(VertexId(1)).len(), leaves + 1);
        let neighbors: Vec<_> = g.neighbors(VertexId(1)).collect();
        let arcs: Vec<_> = g.arcs(VertexId(1)).map(|a| (a.to, a.weight)).collect();
        assert_eq!(neighbors, arcs);
        assert_eq!(g.neighbors(VertexId(1)).len(), leaves + 1);
        g.validate().unwrap();
    }

    /// Builds a path graph (vertex i — i+1) over `weights`, one edge per
    /// weight, so a weight *stream* maps 1:1 onto edge ids.
    fn path_graph(weights: &[Weight]) -> Graph {
        let mut b = GraphBuilder::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            b.add_edge(VertexId(i as u32), VertexId(i as u32 + 1), w);
        }
        b.build()
    }

    /// Property core: the stream must round-trip exactly through the arc
    /// weights, and every edge must survive a rewrite to a permuted weight
    /// of the same stream and back, on both of its arcs.
    fn assert_stream_round_trips(weights: &[Weight]) {
        let mut g = path_graph(weights);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(g.edge_weight(EdgeId::from_index(i)), w, "edge {i}");
        }
        let pinned = g.clone();
        for (i, &w) in weights.iter().enumerate() {
            let rotated = weights[(i + 1) % weights.len()];
            let e = EdgeId::from_index(i);
            assert_eq!(g.set_edge_weight(e, rotated), w);
            assert_eq!(g.edge_weight(e), rotated);
            assert_eq!(g.set_edge_weight(e, w), rotated);
            assert_eq!(g.edge_weight(e), w);
        }
        g.validate().unwrap();
        // Arc weights agree with edge weights, and the clone taken before
        // the rewrites still reads the stream.
        for v in g.vertices() {
            for arc in g.arcs(v) {
                assert_eq!(arc.weight, weights[arc.edge.index()]);
            }
        }
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(pinned.edge_weight(EdgeId::from_index(i)), w);
        }
    }

    #[test]
    fn scale_one_streams_round_trip_exactly() {
        use rand::{Rng, SeedableRng};
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let weights: Vec<Weight> = (0..300).map(|_| rng.gen_range(1..=60_000)).collect();
            assert_stream_round_trips(&weights);
        }
    }

    #[test]
    fn all_equal_streams_round_trip_exactly() {
        for w in [1, 7, 1_000_000, u32::MAX - 1] {
            assert_stream_round_trips(&[w; 64]);
        }
    }

    #[test]
    fn overflow_heavy_streams_round_trip_exactly() {
        use rand::{Rng, SeedableRng};
        // Weights spread across the whole u32 range, longer than a chunk.
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(100 + seed);
            let mut weights: Vec<Weight> = (0..700).map(|_| rng.gen_range(1..u32::MAX)).collect();
            weights.push(1);
            assert_stream_round_trips(&weights);
        }
    }

    #[test]
    fn max_adjacent_weights_round_trip_exactly() {
        // Weights hugging the top of the Weight domain, alone and mixed with
        // tiny ones.
        let top = u32::MAX;
        let weights: Vec<Weight> = (0..40).map(|i| top - (i % 5)).collect();
        assert_stream_round_trips(&weights);
        let mut mixed = weights.clone();
        mixed.push(1);
        mixed.push(2);
        assert_stream_round_trips(&mixed);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        for n in [0, 1, 3] {
            let g = GraphBuilder::new(n).build();
            assert_eq!(g.num_vertices(), n);
            assert_eq!(g.num_edges(), 0);
            assert!(g
                .vertices()
                .all(|v| g.degree(v) == 0 && g.arcs(v).next().is_none()));
            g.validate().unwrap();
            assert!(g.heap_size_bytes() > 0);
        }
    }
}
