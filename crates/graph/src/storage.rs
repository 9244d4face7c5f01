//! Flat CSR storage for large road networks.
//!
//! The adjacency-list [`Graph`] is the mutable substrate every index in this
//! repository is built on, but its pointer-chasing layout (one heap `Vec`
//! per vertex) is the wrong shape for graphs at the 10M+ edge scale the
//! paper's throughput claims live at: neighbor walks take a cache miss per
//! vertex, and each arc costs 12 bytes plus per-`Vec` overhead.
//!
//! [`CsrGraph`] is the frozen struct-of-arrays counterpart:
//!
//! ```text
//! offsets:  [0 .. n]     u32   arc range of vertex v = offsets[v]..offsets[v+1]
//! targets:  [0 .. 2m)    u32   neighbor per arc, sorted per vertex
//! arc_edge: [0 .. 2m)    u32   undirected edge id per arc
//! ticks:    [0 .. 2m)    u16   quantized weight per arc (see below)
//! blocks:   per 131072 arcs   (base, scale) dequantization pair
//! overflow: arc -> Weight      exact weights the block encoding cannot hold
//! edges:    [0 .. m)           endpoints per edge id (u < v)
//! ```
//!
//! # Per-block weight quantization
//!
//! Road-network travel times cluster tightly, so storing every arc weight at
//! full width wastes most of its bits. Arcs are cut into blocks of
//! [`QUANT_BLOCK_ARCS`] = 131072; each block stores a `base` (the block's
//! minimum weight) and a `scale` (the gcd of all weight deltas in the
//! block), and each arc stores the `u16` tick `(w - base) / scale`. The
//! encoding is **lossless** by construction — `base + tick * scale`
//! reproduces the exact weight — so CSR-backed searches return bit-identical
//! distances. Weights a block cannot represent (tick ≥ `u16::MAX`, or
//! off-grid values installed later by [`CsrGraph::set_edge_weight`]) get the
//! sentinel tick [`OVERFLOW_TICK`] and live exactly in the `overflow` map.
//! Weight storage is 2 bytes/arc plus 8 bytes per 131072-arc block — a 4×
//! reduction against `u64` weights and 2× against this repo's native `u32`.
//!
//! # The [`Adjacency`] trait
//!
//! The hot searches in `htsp-search` are generic over [`Adjacency`], which
//! both [`Graph`] and [`CsrGraph`] implement, so the same monomorphized
//! Dijkstra runs on either representation and exactness can be asserted by
//! comparing the two.

use crate::graph::Graph;
use crate::types::{EdgeId, VertexId, Weight};
use rustc_hash::FxHashMap;

/// Arcs per quantization block (131072: large enough that block metadata is
/// noise, small enough that one outlier weight only widens one block).
pub const QUANT_BLOCK_ARCS: usize = 131_072;

/// Sentinel tick marking an arc whose exact weight lives in the overflow
/// table.
pub const OVERFLOW_TICK: u16 = u16::MAX;

/// Dequantization pair of one weight block: `w = base + tick * scale`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct WeightBlock {
    base: u32,
    scale: u32,
}

/// Uniform read access to an undirected graph's adjacency structure.
///
/// Implemented by the mutable adjacency-list [`Graph`] and the frozen
/// [`CsrGraph`]; the index-free searches in `htsp-search` are generic over
/// it, so they monomorphize to a direct loop for either layout.
pub trait Adjacency {
    /// Number of vertices.
    fn num_vertices(&self) -> usize;

    /// Calls `f(neighbor, weight)` for every arc leaving `v`.
    fn for_each_arc<F: FnMut(VertexId, Weight)>(&self, v: VertexId, f: F);
}

impl<A: Adjacency + ?Sized> Adjacency for std::sync::Arc<A> {
    #[inline]
    fn num_vertices(&self) -> usize {
        (**self).num_vertices()
    }

    #[inline]
    fn for_each_arc<F: FnMut(VertexId, Weight)>(&self, v: VertexId, f: F) {
        (**self).for_each_arc(v, f)
    }
}

impl Adjacency for Graph {
    #[inline]
    fn num_vertices(&self) -> usize {
        Graph::num_vertices(self)
    }

    #[inline]
    fn for_each_arc<F: FnMut(VertexId, Weight)>(&self, v: VertexId, mut f: F) {
        for arc in self.arcs(v) {
            f(arc.to, arc.weight);
        }
    }
}

/// Heap-byte breakdown of a [`CsrGraph`] (see [`CsrGraph::heap_bytes`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct CsrFootprint {
    /// `offsets` + `targets` + `arc_edge`: the topology arrays.
    pub topology_bytes: usize,
    /// `ticks` + `blocks`: the quantized weight storage.
    pub weight_bytes: usize,
    /// Overflow-table entries (exact weights off the block grid).
    pub overflow_bytes: usize,
    /// The edge-id → endpoints list.
    pub edge_list_bytes: usize,
}

impl CsrFootprint {
    /// Total heap bytes.
    pub fn total(&self) -> usize {
        self.topology_bytes + self.weight_bytes + self.overflow_bytes + self.edge_list_bytes
    }
}

/// A frozen compressed-sparse-row graph with per-block quantized weights.
///
/// Built from an adjacency-list [`Graph`] ([`CsrGraph::from_graph`]) or
/// directly from a normalized edge list (the streaming DIMACS loader,
/// [`crate::dimacs::load_dimacs_streaming`]). Topology is immutable; edge
/// weights can still be updated in place ([`CsrGraph::set_edge_weight`]),
/// which keeps the representation usable behind the update pipeline.
#[derive(Clone, Debug)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v + 1]` = arc indices of vertex `v`; length n+1.
    offsets: Vec<u32>,
    /// Neighbor per arc, sorted ascending within each vertex's range.
    targets: Vec<u32>,
    /// Undirected edge id per arc.
    arc_edge: Vec<u32>,
    /// Quantized weight per arc ([`OVERFLOW_TICK`] = see `overflow`).
    ticks: Vec<u16>,
    /// Dequantization pair per [`QUANT_BLOCK_ARCS`] arcs.
    blocks: Vec<WeightBlock>,
    /// Exact weights of arcs the block encoding cannot hold.
    overflow: FxHashMap<u32, Weight>,
    /// Endpoints per edge id, `u < v`.
    edges: Vec<(VertexId, VertexId)>,
}

fn gcd(mut a: u32, mut b: u32) -> u32 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl CsrGraph {
    /// Converts an adjacency-list graph, preserving edge ids.
    pub fn from_graph(g: &Graph) -> Self {
        let mut edges = Vec::with_capacity(g.num_edges());
        let mut weights = Vec::with_capacity(g.num_edges());
        for (_, u, v, w) in g.edges() {
            edges.push((u, v));
            weights.push(w);
        }
        Self::from_normalized_edges(g.num_vertices(), edges, &weights)
    }

    /// Builds the CSR from a normalized edge list (`u < v`, deduplicated, no
    /// self-loops, positive weights; `edges[e]` defines edge id `e`).
    ///
    /// Callers validate — the streaming loader checks every token against
    /// the header, and [`CsrGraph::from_graph`] starts from an
    /// already-valid graph.
    pub(crate) fn from_normalized_edges(
        n: usize,
        edges: Vec<(VertexId, VertexId)>,
        weights: &[Weight],
    ) -> Self {
        debug_assert_eq!(edges.len(), weights.len());
        let num_arcs = edges.len() * 2;
        // Counting sort: degrees, then prefix sums, then fill.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &edges {
            offsets[u.index() + 1] += 1;
            offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursor = offsets.clone();
        let mut targets = vec![0u32; num_arcs];
        let mut arc_edge = vec![0u32; num_arcs];
        for (e, &(u, v)) in edges.iter().enumerate() {
            let a = cursor[u.index()] as usize;
            targets[a] = v.0;
            arc_edge[a] = e as u32;
            cursor[u.index()] += 1;
            let b = cursor[v.index()] as usize;
            targets[b] = u.0;
            arc_edge[b] = e as u32;
            cursor[v.index()] += 1;
        }
        // Sort each vertex's range by target so lookups can binary-search.
        let mut scratch: Vec<(u32, u32)> = Vec::new();
        for v in 0..n {
            let range = offsets[v] as usize..offsets[v + 1] as usize;
            if range.len() > 1 {
                scratch.clear();
                scratch.extend(
                    targets[range.clone()]
                        .iter()
                        .copied()
                        .zip(arc_edge[range.clone()].iter().copied()),
                );
                scratch.sort_unstable();
                for (i, &(t, e)) in scratch.iter().enumerate() {
                    targets[range.start + i] = t;
                    arc_edge[range.start + i] = e;
                }
            }
        }
        // Quantize per block of QUANT_BLOCK_ARCS arcs.
        let mut ticks = vec![0u16; num_arcs];
        let mut blocks = Vec::with_capacity(num_arcs.div_ceil(QUANT_BLOCK_ARCS));
        let mut overflow = FxHashMap::default();
        for (b, chunk) in arc_edge.chunks(QUANT_BLOCK_ARCS).enumerate() {
            let start = b * QUANT_BLOCK_ARCS;
            let base = chunk
                .iter()
                .map(|&e| weights[e as usize])
                .min()
                .unwrap_or(0);
            let mut scale = 0u32;
            for &e in chunk {
                scale = gcd(scale, weights[e as usize] - base);
            }
            let scale = scale.max(1);
            blocks.push(WeightBlock { base, scale });
            for (i, &e) in chunk.iter().enumerate() {
                let delta = (weights[e as usize] - base) / scale;
                if delta >= OVERFLOW_TICK as u32 {
                    ticks[start + i] = OVERFLOW_TICK;
                    overflow.insert((start + i) as u32, weights[e as usize]);
                } else {
                    ticks[start + i] = delta as u16;
                }
            }
        }
        CsrGraph {
            offsets,
            targets,
            arc_edge,
            ticks,
            blocks,
            overflow,
            edges,
        }
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of directed arcs (`2 * num_edges`).
    #[inline]
    pub fn num_arcs(&self) -> usize {
        self.targets.len()
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Endpoints `(u, v)` of edge `e`, with `u < v`.
    #[inline]
    pub fn edge_endpoints(&self, e: EdgeId) -> (VertexId, VertexId) {
        self.edges[e.index()]
    }

    /// Exact weight of the arc at flat index `a`.
    #[inline]
    fn arc_weight(&self, a: usize) -> Weight {
        let tick = self.ticks[a];
        if tick == OVERFLOW_TICK {
            self.overflow[&(a as u32)]
        } else {
            let blk = self.blocks[a / QUANT_BLOCK_ARCS];
            blk.base + tick as u32 * blk.scale
        }
    }

    /// Flat arc index of edge `e` as seen from endpoint `from` (the
    /// neighbor ranges are target-sorted, so this is a binary search plus a
    /// short scan over equal targets — which is a single arc, since the
    /// graph has no parallel edges).
    fn arc_index(&self, from: VertexId, to: VertexId) -> Option<usize> {
        let range = self.offsets[from.index()] as usize..self.offsets[from.index() + 1] as usize;
        let slice = &self.targets[range.clone()];
        slice.binary_search(&to.0).ok().map(|pos| range.start + pos)
    }

    /// Current weight of edge `e`.
    pub fn edge_weight(&self, e: EdgeId) -> Weight {
        let (u, v) = self.edges[e.index()];
        let a = self
            .arc_index(u, v)
            .expect("CSR invariant: every edge has an arc at its first endpoint");
        self.arc_weight(a)
    }

    /// Sets the weight of edge `e` to `w` (strictly positive), updating both
    /// arc copies. Weights on the block grid stay quantized; off-grid
    /// weights fall back to the exact overflow table, so the update is
    /// always lossless. Returns the previous weight.
    pub fn set_edge_weight(&mut self, e: EdgeId, w: Weight) -> Weight {
        assert!(w > 0, "edge weights must be strictly positive");
        let (u, v) = self.edges[e.index()];
        let a = self
            .arc_index(u, v)
            .expect("CSR invariant: edge arc at first endpoint");
        let b = self
            .arc_index(v, u)
            .expect("CSR invariant: edge arc at second endpoint");
        let old = self.arc_weight(a);
        for idx in [a, b] {
            let blk = self.blocks[idx / QUANT_BLOCK_ARCS];
            let representable = w >= blk.base
                && (w - blk.base).is_multiple_of(blk.scale)
                && (w - blk.base) / blk.scale < OVERFLOW_TICK as u32;
            if representable {
                if self.ticks[idx] == OVERFLOW_TICK {
                    self.overflow.remove(&(idx as u32));
                }
                self.ticks[idx] = ((w - blk.base) / blk.scale) as u16;
            } else {
                self.ticks[idx] = OVERFLOW_TICK;
                self.overflow.insert(idx as u32, w);
            }
        }
        old
    }

    /// Converts back to the adjacency-list [`Graph`], preserving edge ids.
    pub fn to_graph(&self) -> Graph {
        let weights: Vec<Weight> = (0..self.edges.len())
            .map(|e| self.edge_weight(EdgeId::from_index(e)))
            .collect();
        Graph::from_normalized_edges(self.num_vertices(), self.edges.clone(), weights)
    }

    /// Heap bytes per component (topology / quantized weights / overflow /
    /// edge list). The quantized `weight_bytes` is what to compare against
    /// the `8 * num_arcs` a `u64`-weighted layout would pay (the benchmark's
    /// `graph.csr_bytes_per_edge`).
    pub fn heap_bytes(&self) -> CsrFootprint {
        use std::mem::size_of;
        CsrFootprint {
            topology_bytes: self.offsets.capacity() * size_of::<u32>()
                + self.targets.capacity() * size_of::<u32>()
                + self.arc_edge.capacity() * size_of::<u32>(),
            weight_bytes: self.ticks.capacity() * size_of::<u16>()
                + self.blocks.capacity() * size_of::<WeightBlock>(),
            overflow_bytes: self.overflow.len() * (size_of::<u32>() + size_of::<Weight>()),
            edge_list_bytes: self.edges.capacity() * size_of::<(VertexId, VertexId)>(),
        }
    }

    /// Number of arcs stored exactly in the overflow table.
    pub fn overflow_len(&self) -> usize {
        self.overflow.len()
    }
}

impl Adjacency for CsrGraph {
    #[inline]
    fn num_vertices(&self) -> usize {
        CsrGraph::num_vertices(self)
    }

    #[inline]
    fn for_each_arc<F: FnMut(VertexId, Weight)>(&self, v: VertexId, mut f: F) {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        for a in lo..hi {
            f(VertexId(self.targets[a]), self.arc_weight(a));
        }
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

    /// Collects `(neighbor, weight)` pairs for `v`, sorted, via the trait.
    fn arcs_of<A: Adjacency>(g: &A, v: VertexId) -> Vec<(VertexId, Weight)> {
        let mut out = Vec::new();
        g.for_each_arc(v, |t, w| out.push((t, w)));
        out.sort_unstable();
        out
    }

    #[test]
    fn csr_matches_adjacency_lists() {
        let g = grid(9, 42);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.num_vertices(), g.num_vertices());
        assert_eq!(csr.num_edges(), g.num_edges());
        assert_eq!(csr.num_arcs(), 2 * g.num_edges());
        for v in g.vertices() {
            assert_eq!(csr.degree(v), g.degree(v));
            assert_eq!(arcs_of(&csr, v), arcs_of(&g, v));
        }
        for (e, u, v, w) in g.edges() {
            assert_eq!(csr.edge_endpoints(e), (u, v));
            assert_eq!(csr.edge_weight(e), w, "quantization must be lossless");
        }
    }

    #[test]
    fn round_trip_through_graph_preserves_edge_ids() {
        let g = grid(7, 7);
        let csr = CsrGraph::from_graph(&g);
        let back = csr.to_graph();
        back.validate().expect("round-tripped graph is valid");
        assert_eq!(back.num_edges(), g.num_edges());
        for (e, u, v, w) in g.edges() {
            assert_eq!(back.edge_endpoints(e), (u, v));
            assert_eq!(back.edge_weight(e), w);
        }
    }

    #[test]
    fn wide_weight_spread_lands_in_overflow_and_stays_exact() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 2);
        // gcd(1, 2_000_000_000 - 1) = 1, so this tick overflows u16.
        b.add_edge(VertexId(2), VertexId(3), 2_000_000_000);
        let g = b.build();
        let csr = CsrGraph::from_graph(&g);
        assert!(csr.overflow_len() > 0);
        for (e, _, _, w) in g.edges() {
            assert_eq!(csr.edge_weight(e), w);
        }
    }

    #[test]
    fn set_edge_weight_updates_both_arcs_and_survives_off_grid() {
        let g = grid(5, 3);
        let mut csr = CsrGraph::from_graph(&g);
        let (e, u, v, w0) = g.edges().next().unwrap();
        // An off-grid weight (below every base) must go exact.
        assert_eq!(csr.set_edge_weight(e, w0), w0);
        let old = csr.set_edge_weight(e, 1);
        assert_eq!(old, w0);
        assert_eq!(csr.edge_weight(e), 1);
        let mut seen = Vec::new();
        csr.for_each_arc(u, |t, w| {
            if t == v {
                seen.push(w);
            }
        });
        csr.for_each_arc(v, |t, w| {
            if t == u {
                seen.push(w);
            }
        });
        assert_eq!(seen, vec![1, 1], "both arc copies observe the new weight");
        // Back onto the grid: the overflow entry must be retired.
        let before = csr.overflow_len();
        csr.set_edge_weight(e, w0);
        assert!(csr.overflow_len() <= before);
        assert_eq!(csr.edge_weight(e), w0);
    }

    #[test]
    fn quantized_weights_beat_u64_storage_by_2x() {
        let g = grid(24, 11);
        let csr = CsrGraph::from_graph(&g);
        let fp = csr.heap_bytes();
        let u64_bytes = csr.num_arcs() * std::mem::size_of::<u64>();
        assert!(
            (fp.weight_bytes + fp.overflow_bytes) * 2 <= u64_bytes,
            "quantized weights ({} + {} B) must be ≤ half of u64 storage ({u64_bytes} B)",
            fp.weight_bytes,
            fp.overflow_bytes,
        );
        assert!(fp.total() > 0 && fp.topology_bytes > 0);
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

    /// Property core: the stream must round-trip exactly through the CSR,
    /// and every edge must survive a `set_edge_weight` re-quantization to a
    /// permuted weight of the same stream (both the on-grid and the off-grid
    /// path of the update).
    fn assert_stream_round_trips(weights: &[Weight]) {
        let g = path_graph(weights);
        let mut csr = CsrGraph::from_graph(&g);
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(
                csr.edge_weight(EdgeId::from_index(i)),
                w,
                "edge {i} lost weight {w} in quantization"
            );
        }
        // Re-quantization: rotate the stream by one, then restore. Each set
        // must be lossless regardless of whether the new weight lands on the
        // block grid or in the overflow table.
        for (i, &w) in weights.iter().enumerate() {
            let rotated = weights[(i + 1) % weights.len()];
            let e = EdgeId::from_index(i);
            assert_eq!(csr.set_edge_weight(e, rotated), w);
            assert_eq!(csr.edge_weight(e), rotated);
            assert_eq!(csr.set_edge_weight(e, w), rotated);
            assert_eq!(csr.edge_weight(e), w);
        }
        // The round trip also survives conversion back to adjacency lists.
        let back = csr.to_graph();
        for (i, &w) in weights.iter().enumerate() {
            assert_eq!(back.edge_weight(EdgeId::from_index(i)), w);
        }
    }

    #[test]
    fn scale_one_streams_round_trip_exactly() {
        use rand::{Rng, SeedableRng};
        // Random small weights: deltas have gcd 1 (scale-1 blocks) and every
        // tick fits, so nothing may reach the overflow table.
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let weights: Vec<Weight> = (0..300).map(|_| rng.gen_range(1..=60_000)).collect();
            let csr = CsrGraph::from_graph(&path_graph(&weights));
            assert_eq!(csr.overflow_len(), 0, "seed {seed}: scale-1 overflowed");
            assert_stream_round_trips(&weights);
        }
    }

    #[test]
    fn all_equal_streams_round_trip_exactly() {
        // All deltas are 0: the gcd collapses to the scale.max(1) floor and
        // every tick is 0.
        for w in [1, 7, 1_000_000, u32::MAX - 1] {
            let weights = vec![w; 64];
            let csr = CsrGraph::from_graph(&path_graph(&weights));
            assert_eq!(csr.overflow_len(), 0, "constant stream {w} overflowed");
            assert_stream_round_trips(&weights);
        }
    }

    #[test]
    fn overflow_heavy_streams_round_trip_exactly() {
        use rand::{Rng, SeedableRng};
        // Weights spread across the whole u32 range with gcd-1 deltas: most
        // ticks exceed u16, so the overflow table carries the block.
        for seed in 0..4u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(100 + seed);
            let mut weights: Vec<Weight> = (0..200).map(|_| rng.gen_range(1..u32::MAX)).collect();
            weights.push(1); // pin the base low so large weights must overflow
            let csr = CsrGraph::from_graph(&path_graph(&weights));
            assert!(
                csr.overflow_len() * 2 >= weights.len(),
                "seed {seed}: expected an overflow-heavy block, got {} of {}",
                csr.overflow_len(),
                weights.len()
            );
            assert_stream_round_trips(&weights);
        }
    }

    #[test]
    fn max_adjacent_weights_round_trip_exactly() {
        // Weights hugging the top of the Weight domain: base is itself huge,
        // deltas are tiny, and re-quantization to/from u32::MAX must not
        // wrap anywhere in `base + tick * scale`.
        let top = u32::MAX;
        let weights: Vec<Weight> = (0..40).map(|i| top - (i % 5)).collect();
        assert_stream_round_trips(&weights);
        // A mixed stream: one tiny weight forces a scale-1 block whose huge
        // members can only live in the overflow table.
        let mut mixed = weights.clone();
        mixed.push(1);
        mixed.push(2);
        let csr = CsrGraph::from_graph(&path_graph(&mixed));
        assert!(csr.overflow_len() > 0);
        assert_stream_round_trips(&mixed);
    }

    #[test]
    fn empty_and_single_vertex_graphs() {
        let g = Graph::with_vertices(0);
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.num_vertices(), 0);
        assert_eq!(csr.num_arcs(), 0);
        let g1 = Graph::with_vertices(3);
        let csr1 = CsrGraph::from_graph(&g1);
        assert_eq!(csr1.num_vertices(), 3);
        assert_eq!(csr1.degree(VertexId(1)), 0);
        let _ = csr1.heap_bytes();
    }
}
