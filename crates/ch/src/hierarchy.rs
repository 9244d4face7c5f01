//! The contraction hierarchy: the upward shortcut graph one elimination of
//! the graph leaves behind, and what queries and repairs read of it.
//!
//! Construction is `elimination.rs`: one sequential pass over plain
//! per-vertex rows that yields the order and the shortcut rows together, so a
//! [`OrderingStrategy::MinDegree`] build eliminates the graph once. This
//! module wraps the result for serving: chunked copy-on-write shortcut
//! weights, the immutable arc topology (`ArcIndex`) and the shared repair
//! scratch.

use crate::dch::RepairScratch;
use crate::elimination::{eliminate, Elimination};
use crate::ordering::{OrderingStrategy, VertexOrder};
use htsp_graph::cow::{CowStats, CowTable};
use htsp_graph::par::WorkerPool;
use htsp_graph::{Dist, Graph, ScratchPool, VertexId, Weight, INF};
use std::sync::Arc;

/// Controls which shortcuts are materialized during contraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShortcutMode {
    /// Insert a shortcut for every pair of higher-ranked neighbors (MDE-style;
    /// required for dynamic maintenance and shared with the tree
    /// decomposition — Lemma 4).
    AllPairs,
    /// Classic CH witness pruning: skip the shortcut if a path avoiding the
    /// contracted vertex is at most as short. `hop_limit` bounds the witness
    /// search (number of settled vertices); use `usize::MAX` for exact.
    WitnessPruned {
        /// Maximum settled vertices per witness search.
        hop_limit: usize,
    },
}

/// A contraction hierarchy: for every vertex, its *upward* neighbors (all
/// ranked higher) and the shortcut weight to each.
///
/// With [`ShortcutMode::AllPairs`] the upward neighbor set of `v` is exactly
/// the tree-decomposition neighbor set `X(v).N` of the paper, and the shortcut
/// weights are the `X(v).sc` array (Fig. 8).
///
/// Only the shortcut *weights* ever change after construction (weight-only
/// update batches preserve the arc topology), so the mutable `up` table uses
/// chunked copy-on-write storage while the order and the arc topology are
/// plain shared `Arc`s: cloning a hierarchy — which every snapshot
/// publication does transitively — costs chunk-pointer copies, and a repair
/// that rewrites `k` shortcut arrays clones `O(k / chunk)` chunks rather than
/// the whole table.
#[derive(Clone, Debug)]
pub struct ContractionHierarchy {
    order: Arc<VertexOrder>,
    /// `up[v]` = (higher-ranked neighbor, shortcut weight), sorted by rank
    /// ascending. Chunk-granular copy-on-write (the only mutable component).
    up: CowTable<(VertexId, Weight)>,
    /// Dense arc ids and the downward adjacency, derived from `up`'s shape.
    /// Immutable after construction.
    arcs: Arc<ArcIndex>,
    /// Per-arc working memory of the repair ([`crate::dch`]), shared by the
    /// whole clone lineage: a clone copies one pointer, and the maintainer's
    /// copy finds the buffers its previous batch left.
    pub(crate) repair_scratch: Arc<ScratchPool<RepairScratch>>,
    mode: ShortcutMode,
    /// Number of shortcuts that do not correspond to an original edge.
    extra_shortcuts: usize,
}

/// The arc topology of a hierarchy: the shape of the upward rows, inverted.
#[derive(Debug)]
pub(crate) struct ArcIndex {
    /// `row_start[v] + i` is the dense id of the arc `up[v][i]`
    /// (`n + 1` entries; the last is the arc count).
    pub(crate) row_start: Vec<u32>,
    /// CSR offsets into `down_from` / `down_pos` (`n + 1` entries).
    down_start: Vec<u32>,
    /// Vertices that list `v` among their upward neighbors (`v`'s
    /// *supporters*), for all `v` back to back.
    down_from: Vec<VertexId>,
    /// Position of `v` in the upward row of the matching `down_from` entry.
    down_pos: Vec<u32>,
}

impl ArcIndex {
    fn build(up: &[Vec<(VertexId, Weight)>]) -> Self {
        let n = up.len();
        let mut row_start = Vec::with_capacity(n + 1);
        let mut down_start = vec![0u32; n + 1];
        let mut arcs = 0u32;
        for row in up {
            row_start.push(arcs);
            arcs += row.len() as u32;
            for &(u, _) in row {
                down_start[u.index() + 1] += 1;
            }
        }
        row_start.push(arcs);
        for v in 0..n {
            down_start[v + 1] += down_start[v];
        }
        let mut next = down_start.clone();
        let mut down_from = vec![VertexId(0); arcs as usize];
        let mut down_pos = vec![0u32; arcs as usize];
        for (x, row) in up.iter().enumerate() {
            for (i, &(u, _)) in row.iter().enumerate() {
                let slot = &mut next[u.index()];
                down_from[*slot as usize] = VertexId::from_index(x);
                down_pos[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        ArcIndex {
            row_start,
            down_start,
            down_from,
            down_pos,
        }
    }

    fn down_range(&self, v: VertexId) -> std::ops::Range<usize> {
        self.down_start[v.index()] as usize..self.down_start[v.index() + 1] as usize
    }

    /// The supporters of `v`, each with `v`'s position in its upward row.
    #[inline]
    pub(crate) fn supporters(&self, v: VertexId) -> impl Iterator<Item = (VertexId, usize)> + '_ {
        let range = self.down_range(v);
        self.down_from[range.clone()]
            .iter()
            .zip(&self.down_pos[range])
            .map(|(&x, &pos)| (x, pos as usize))
    }

    fn heap_bytes(&self) -> usize {
        (self.row_start.capacity() + self.down_start.capacity() + self.down_pos.capacity())
            * std::mem::size_of::<u32>()
            + self.down_from.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// A two-hop shortcut candidate `sc(x, v) + sc(x, u)`, saturating one below
/// "unreachable" — an arc that exists is never unreachable. The build and the
/// repair both take their sums from here, so a repaired hierarchy equals a
/// fresh build with the same order even when weights saturate.
#[inline]
pub(crate) fn shortcut_sum(a: Weight, b: Weight) -> Weight {
    (a as u64 + b as u64).min(INF.0 as u64 - 1) as Weight
}

impl AsRef<ContractionHierarchy> for ContractionHierarchy {
    fn as_ref(&self) -> &ContractionHierarchy {
        self
    }
}

impl ContractionHierarchy {
    /// Builds a CH over `graph` using the given ordering strategy and shortcut
    /// mode: one elimination of the graph (`elimination.rs`).
    ///
    /// With [`ShortcutMode::WitnessPruned`] the witness searches of a vertex
    /// run on the live contraction graph before any of its shortcuts is
    /// written — the classic one-vertex-at-a-time semantics.
    pub fn build(graph: &Graph, strategy: OrderingStrategy, mode: ShortcutMode) -> Self {
        let Elimination {
            order,
            up,
            extra_shortcuts,
        } = eliminate(graph, strategy, mode);
        Self::from_parts(order, up, mode, extra_shortcuts)
    }

    /// [`Self::build`] behind the signature of the pooled builders. The
    /// elimination is sequential (measured faster than the windowed
    /// contraction it replaced at every thread count), so `pool` is not used
    /// and the result trivially does not depend on its size.
    pub fn build_pooled(
        graph: &Graph,
        strategy: OrderingStrategy,
        mode: ShortcutMode,
        _pool: &WorkerPool,
    ) -> Self {
        Self::build(graph, strategy, mode)
    }

    /// Builds a CH with an explicit [`VertexOrder`].
    pub fn build_with_order(graph: &Graph, order: VertexOrder, mode: ShortcutMode) -> Self {
        Self::build(graph, OrderingStrategy::Given(order), mode)
    }

    /// Reassembles a hierarchy from its constituent parts without contracting
    /// anything — the warm-restart path used by the snapshot decoder
    /// ([`crate::persist`]). `up[v]` must contain only higher-ranked
    /// neighbors sorted by rank ascending (exactly what [`Self::up_arcs`]
    /// yields); the arc topology is rebuilt by inversion, so a round-tripped
    /// hierarchy is structurally identical to a freshly built one.
    pub fn from_parts(
        order: VertexOrder,
        up: Vec<Vec<(VertexId, Weight)>>,
        mode: ShortcutMode,
        extra_shortcuts: usize,
    ) -> Self {
        let n = order.len();
        assert_eq!(up.len(), n, "up table does not cover the order");
        let arcs = ArcIndex::build(&up);
        let num_arcs = *arcs.row_start.last().expect("n + 1 entries") as usize;
        ContractionHierarchy {
            order: Arc::new(order),
            up: CowTable::from_rows(up),
            arcs: Arc::new(arcs),
            repair_scratch: Arc::new(ScratchPool::new(move || RepairScratch::new(n, num_arcs))),
            mode,
            extra_shortcuts,
        }
    }

    /// The contraction order.
    pub fn order(&self) -> &VertexOrder {
        &self.order
    }

    /// Cumulative copy-on-write clone effort of the shortcut arrays (shared
    /// across all clones of this hierarchy's lineage).
    pub fn cow_stats(&self) -> CowStats {
        self.up.stats()
    }

    /// The shortcut mode used at construction time.
    pub fn mode(&self) -> ShortcutMode {
        self.mode
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.up.len()
    }

    /// Upward arcs of `v`: higher-ranked neighbors and shortcut weights,
    /// sorted by rank ascending. This is the `X(v).N` / `X(v).sc` pair of the
    /// tree decomposition when built with [`ShortcutMode::AllPairs`].
    #[inline]
    pub fn up_arcs(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.up.row(v.index())
    }

    /// Vertices whose upward arcs include `v` (the "supporters" used by the
    /// bottom-up shortcut update).
    #[inline]
    pub fn down_neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.arcs.down_from[self.arcs.down_range(v)]
    }

    /// Current weight of the upward shortcut from `v` to `u`, if present.
    pub fn shortcut_weight(&self, v: VertexId, u: VertexId) -> Option<Weight> {
        let row = self.up_arcs(v);
        arc_position(&self.order, row, u).map(|i| row[i].1)
    }

    /// Everything the repair works on, borrowed apart: the order, the arc
    /// topology and the (copy-on-write) shortcut table.
    pub(crate) fn repair_parts(
        &mut self,
    ) -> (&VertexOrder, &ArcIndex, &mut CowTable<(VertexId, Weight)>) {
        (&self.order, &self.arcs, &mut self.up)
    }

    /// Total number of upward arcs (original edges + shortcuts).
    pub fn num_arcs(&self) -> usize {
        self.up.num_entries()
    }

    /// Number of shortcut arcs that are not original edges (approximate for
    /// witness-pruned mode).
    pub fn num_extra_shortcuts(&self) -> usize {
        self.extra_shortcuts
    }

    /// Approximate index size in bytes (arcs dominate).
    pub fn index_size_bytes(&self) -> usize {
        self.num_arcs() * std::mem::size_of::<(VertexId, Weight)>()
            + self.num_vertices() * std::mem::size_of::<u32>()
    }

    /// Measured heap footprint: shortcut-table chunks, arc topology (arc ids
    /// and downward adjacency), and both rank arrays of the order. The
    /// repair's working memory belongs to the lineage, not to this handle.
    pub fn heap_bytes(&self) -> usize {
        self.up.heap_bytes()
            + self.arcs.heap_bytes()
            + self.order.len() * (std::mem::size_of::<u32>() + std::mem::size_of::<VertexId>())
    }

    /// Computes the shortest distance between `s` and `t` with a bidirectional
    /// upward search. Convenience wrapper around [`crate::query::ChQuery`].
    pub fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        crate::query::ChQuery::new(self.num_vertices()).distance(self, s, t)
    }
}

/// Position of `u` in a rank-sorted upward row (or a tail of one), by binary
/// search on the rank.
#[inline]
pub(crate) fn arc_position(
    order: &VertexOrder,
    row: &[(VertexId, Weight)],
    u: VertexId,
) -> Option<usize> {
    let rank_u = order.rank(u);
    row.binary_search_by_key(&rank_u, |&(y, _)| order.rank(y))
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, random_geometric, WeightRange};
    use htsp_graph::QuerySet;
    use htsp_search::dijkstra_distance;

    fn check_all_queries(g: &Graph, ch: &ContractionHierarchy, n_queries: usize, seed: u64) {
        let qs = QuerySet::random(g, n_queries, seed);
        let mut query = crate::query::ChQuery::new(g.num_vertices());
        for q in &qs {
            let expect = dijkstra_distance(g, q.source, q.target);
            let got = query.distance(ch, q.source, q.target);
            assert_eq!(got, expect, "CH distance mismatch for {:?}", q);
        }
    }

    #[test]
    fn all_pairs_ch_exact_on_grid() {
        let g = grid(8, 8, WeightRange::new(1, 20), 5);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        check_all_queries(&g, &ch, 150, 11);
    }

    #[test]
    fn witness_pruned_ch_exact_on_grid() {
        let g = grid(8, 8, WeightRange::new(1, 20), 5);
        let ch = ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::WitnessPruned {
                hop_limit: usize::MAX,
            },
        );
        check_all_queries(&g, &ch, 150, 12);
    }

    #[test]
    fn witness_pruning_never_adds_more_arcs() {
        let g = grid(10, 10, WeightRange::new(1, 9), 3);
        let all =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let pruned = ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::WitnessPruned {
                hop_limit: usize::MAX,
            },
        );
        assert!(pruned.num_arcs() <= all.num_arcs());
    }

    #[test]
    fn all_pairs_ch_exact_on_geometric() {
        let g = random_geometric(220, 3, WeightRange::new(1, 50), 19);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        check_all_queries(&g, &ch, 100, 23);
    }

    #[test]
    fn up_arcs_point_to_higher_ranks() {
        let g = grid(6, 6, WeightRange::new(1, 7), 2);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        for v in g.vertices() {
            for &(u, _) in ch.up_arcs(v) {
                assert!(ch.order().higher(u, v), "{u} should outrank {v}");
            }
            // Sorted ascending by rank.
            let ranks: Vec<u32> = ch
                .up_arcs(v)
                .iter()
                .map(|&(u, _)| ch.order().rank(u))
                .collect();
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            assert_eq!(ranks, sorted);
        }
    }

    #[test]
    fn down_neighbors_are_inverse_of_up() {
        let g = grid(5, 5, WeightRange::new(1, 7), 2);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        for v in g.vertices() {
            for &(u, _) in ch.up_arcs(v) {
                assert!(ch.down_neighbors(u).contains(&v));
            }
        }
    }

    #[test]
    fn given_order_is_respected() {
        let g = grid(4, 4, WeightRange::new(1, 9), 2);
        // Reverse-id order.
        let n = g.num_vertices();
        let ranks: Vec<u32> = (0..n).map(|v| (n - 1 - v) as u32).collect();
        let order = VertexOrder::from_ranks(ranks);
        let ch = ContractionHierarchy::build(
            &g,
            OrderingStrategy::Given(order.clone()),
            ShortcutMode::AllPairs,
        );
        assert_eq!(ch.order(), &order);
        check_all_queries(&g, &ch, 60, 9);
    }

    #[test]
    fn shortcut_weight_lookup() {
        let g = grid(4, 4, WeightRange::new(2, 2), 2);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        // Every original edge (u, v) must appear as an upward arc of the
        // lower-ranked endpoint with weight <= original.
        for (_, u, v, w) in g.edges() {
            let (lo, hi) = if ch.order().higher(u, v) {
                (v, u)
            } else {
                (u, v)
            };
            let sc = ch
                .shortcut_weight(lo, hi)
                .expect("edge must be an upward arc");
            assert!(sc <= w);
        }
    }

    #[test]
    fn shortcut_weight_agrees_with_a_row_scan() {
        let g = random_geometric(150, 3, WeightRange::new(1, 50), 29);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        for v in g.vertices() {
            for &(u, w) in ch.up_arcs(v) {
                assert_eq!(ch.shortcut_weight(v, u), Some(w));
                // The arc is stored at the lower endpoint only.
                assert_eq!(ch.shortcut_weight(u, v), None);
            }
            for u in g.vertices() {
                let scanned = ch.up_arcs(v).iter().find(|a| a.0 == u).map(|a| a.1);
                assert_eq!(ch.shortcut_weight(v, u), scanned, "{v} -> {u}");
            }
        }
    }

    #[test]
    fn pooled_builds_are_bit_identical_across_thread_counts() {
        let g = random_geometric(300, 3, WeightRange::new(1, 60), 77);
        for mode in [
            ShortcutMode::AllPairs,
            ShortcutMode::WitnessPruned { hop_limit: 32 },
        ] {
            let base = ContractionHierarchy::build_pooled(
                &g,
                OrderingStrategy::MinDegree,
                mode,
                &WorkerPool::sequential(),
            );
            for threads in [2usize, 3, 8] {
                let ch = ContractionHierarchy::build_pooled(
                    &g,
                    OrderingStrategy::MinDegree,
                    mode,
                    &WorkerPool::new(threads),
                );
                assert_eq!(ch.order(), base.order());
                assert_eq!(ch.num_extra_shortcuts(), base.num_extra_shortcuts());
                for v in g.vertices() {
                    assert_eq!(ch.up_arcs(v), base.up_arcs(v), "{mode:?} row of {v}");
                    assert_eq!(ch.down_neighbors(v), base.down_neighbors(v));
                }
            }
        }
    }

    #[test]
    fn pooled_all_pairs_build_is_exact() {
        let g = grid(9, 9, WeightRange::new(1, 30), 21);
        let ch = ContractionHierarchy::build_pooled(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
            &WorkerPool::new(4),
        );
        check_all_queries(&g, &ch, 150, 33);
    }

    #[test]
    fn index_size_is_positive() {
        let g = grid(5, 5, WeightRange::new(1, 9), 2);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        assert!(ch.index_size_bytes() > 0);
        assert!(ch.num_arcs() >= g.num_edges());
    }
}
