//! The contraction hierarchy: the upward shortcut graph of an elimination
//! order, and what queries and repairs read of it.
//!
//! An all-pairs build is the split of Customizable Contraction Hierarchies
//! (Dibbelt, Strasser, Wagner): the hierarchy's shape depends on the
//! topology and the order alone, its weights on the weights alone.
//!
//! 1. **Order.** [`OrderingStrategy::Given`] is used as it is;
//!    [`OrderingStrategy::MinDegree`] runs the elimination
//!    (`elimination.rs`) for the order only, and
//!    [`OrderingStrategy::NestedDissection`] orders each group of the
//!    dissection on its own live graph (`dissection.rs`).
//! 2. **Fill (symbolic).** `N_up(v)` is `v`'s higher neighbours plus each of
//!    its elimination-tree children's `N_up` minus `v`, built in rank order
//!    with one stamp array, stored as CSR and sorted by rank (`symbolic_fill`).
//! 3. **Customize (numeric).** Every row, in ascending rank, is derived by
//!    the pull of the repair ([`crate::dch`]): the build and the repair run
//!    one row kernel over one `ArcIndex`.
//!
//! A warm restart that stores its order therefore eliminates nothing.
//! Against the weighted elimination this replaced, timed in one process
//! (2-vCPU Xeon, medians of 41 interleaved runs on `grid64`, of 5 on
//! `random_geometric(65536, 3)`, ms):
//!
//! | build             | `grid64` before | after | rg65k before | after |
//! |-------------------|-----------------|-------|--------------|-------|
//! | given order       | 13.8            | 5.7   | 61–66        | 44–49 |
//! | MinDegree         | 17.4            | 14.2  | 85–90        | 103–115 |
//! | nested dissection | 20.8            | 18.7  | 238–247      | 269–283 |
//!
//! On the road-like graph a MinDegree build pays its elimination (60 ms)
//! and then the fill (10 ms) and the customization (≈ 35 ms) where one
//! weighted pass did both. A nested-dissection build then still eliminated
//! the whole graph for its order; ordering each group on its own live graph
//! instead took it, on another day's host (medians of 31 on `grid64`, of 7
//! on the others), from 13.1 to 8.8 ms on `grid64` (the order 8.9 → 5.0:
//! dissection 3.1, the groups' orders 1.8), 120 → 60 ms on
//! `grid_with_diagonals(128, 128)` and 215 → 167 ms on rg65k.
//! `given_order_and_nd_builds_on_grid64` below is the ruler. Witness-pruned
//! builds (TOAIN) keep their weighted elimination: a witness search reads
//! the live weights; a nested-dissection order is given to them whole.
//!
//! This module wraps the result for serving: chunked copy-on-write shortcut
//! weights, the immutable arc topology (`ArcIndex`) and the shared repair
//! scratch.

use crate::dch::{Pull, RepairScratch};
use crate::dissection::nested_dissection_order;
use crate::elimination::{eliminate_pruned, min_degree_order, Elimination};
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
    /// The downward adjacency, derived from `up`'s shape.
    /// Immutable after construction.
    arcs: Arc<ArcIndex>,
    /// Working memory of the repair ([`crate::dch`]), shared by the
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
        let mut down_start = vec![0u32; n + 1];
        for row in up {
            for &(u, _) in row {
                down_start[u.index() + 1] += 1;
            }
        }
        for v in 0..n {
            down_start[v + 1] += down_start[v];
        }
        let mut next = down_start.clone();
        let arcs = down_start[n] as usize;
        let mut down_from = vec![VertexId(0); arcs];
        let mut down_pos = vec![0u32; arcs];
        for (x, row) in up.iter().enumerate() {
            for (i, &(u, _)) in row.iter().enumerate() {
                let slot = &mut next[u.index()];
                down_from[*slot as usize] = VertexId::from_index(x);
                down_pos[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
        ArcIndex {
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
        (self.down_start.capacity() + self.down_pos.capacity()) * std::mem::size_of::<u32>()
            + self.down_from.capacity() * std::mem::size_of::<VertexId>()
    }
}

/// The upward rows of every vertex under an order, by rank, as the ranks of
/// their targets, ascending: row `r` is `ranks[start[r]..start[r + 1]]`.
struct Fill {
    start: Vec<u32>,
    ranks: Vec<u32>,
}

/// The symbolic fill: `N_up(v)` is `v`'s higher neighbours plus each of its
/// elimination-tree children's `N_up` minus `v`, and `v`'s parent is the
/// lowest-ranked vertex of `N_up(v)`. Rows are built in rank order, so every
/// child's row is complete when its parent's is, and one stamp per rank keeps
/// a row's targets apart.
fn symbolic_fill(graph: &Graph, order: &VertexOrder) -> Fill {
    const NONE: u32 = u32::MAX;
    let n = order.len();
    let mut start = Vec::with_capacity(n + 1);
    start.push(0u32);
    let mut ranks: Vec<u32> = Vec::with_capacity(graph.num_edges());
    // `stamp[u] == r` while `u` is in row `r`.
    let mut stamp = vec![NONE; n];
    // The elimination tree's children of every rank, as linked lists.
    let mut first_child = vec![NONE; n];
    let mut next_sibling = vec![NONE; n];
    for r in 0..n as u32 {
        let begin = ranks.len();
        // Keeps `v` out of its children's rows.
        stamp[r as usize] = r;
        for (u, _) in graph.neighbors(order.vertex_at(r)) {
            let u = order.rank(u);
            if u > r {
                stamp[u as usize] = r;
                ranks.push(u);
            }
        }
        let mut child = first_child[r as usize];
        while child != NONE {
            for i in start[child as usize] as usize..start[child as usize + 1] as usize {
                let u = ranks[i];
                if stamp[u as usize] != r {
                    stamp[u as usize] = r;
                    ranks.push(u);
                }
            }
            child = next_sibling[child as usize];
        }
        ranks[begin..].sort_unstable();
        if let Some(&parent) = ranks.get(begin) {
            next_sibling[r as usize] = std::mem::replace(&mut first_child[parent as usize], r);
        }
        start.push(ranks.len() as u32);
    }
    Fill { start, ranks }
}

/// The order `strategy` fixes before anything is eliminated: a given one, or
/// the nested dissection's. `None` for MinDegree, whose order is popped by
/// an elimination (on the pruned rows, under witness pruning).
fn fixed_order(graph: &Graph, strategy: OrderingStrategy) -> Option<VertexOrder> {
    match strategy {
        OrderingStrategy::MinDegree => None,
        OrderingStrategy::NestedDissection => Some(nested_dissection_order(graph)),
        OrderingStrategy::Given(order) => {
            assert_eq!(
                order.len(),
                graph.num_vertices(),
                "given order does not cover the graph"
            );
            Some(order)
        }
    }
}

/// A two-hop shortcut candidate `sc(x, v) + sc(x, u)`, saturating one below
/// "unreachable" — an arc that exists is never unreachable. The build and the
/// repair both take their sums from here, so a repaired hierarchy equals a
/// fresh build with the same order even when weights saturate.
#[inline]
pub(crate) fn shortcut_sum(a: Weight, b: Weight) -> Weight {
    a.saturating_add(b).min(INF.0 - 1)
}

impl AsRef<ContractionHierarchy> for ContractionHierarchy {
    fn as_ref(&self) -> &ContractionHierarchy {
        self
    }
}

impl ContractionHierarchy {
    /// Builds a CH over `graph` using the given ordering strategy and shortcut
    /// mode.
    ///
    /// An all-pairs build orders (`elimination.rs`; a given order is taken
    /// as is), fills the rows symbolically and customizes them: every row, in
    /// ascending rank, is derived by the pull the repair runs
    /// ([`crate::dch`]).
    ///
    /// With [`ShortcutMode::WitnessPruned`] the witness searches of a vertex
    /// run on the live contraction graph before any of its shortcuts is
    /// written — the classic one-vertex-at-a-time semantics.
    pub fn build(graph: &Graph, strategy: OrderingStrategy, mode: ShortcutMode) -> Self {
        let fixed = fixed_order(graph, strategy);
        let ShortcutMode::WitnessPruned { hop_limit } = mode else {
            let order = fixed.unwrap_or_else(|| min_degree_order(graph));
            let fill = symbolic_fill(graph, &order);
            return Self::customize(graph, order, &fill);
        };
        let Elimination {
            order,
            up,
            extra_shortcuts,
        } = eliminate_pruned(graph, fixed, hop_limit);
        Self::from_parts(order, up, mode, extra_shortcuts)
    }

    /// The all-pairs hierarchy of `graph` on `order`: the rows of `order`'s
    /// fill, each weighed by the pull once its supporters are.
    fn customize(graph: &Graph, order: VertexOrder, fill: &Fill) -> Self {
        let n = order.len();
        // Rows are allocated in rank order, the order the pull and the
        // repair walk them in.
        let mut up: Vec<Vec<(VertexId, Weight)>> = vec![Vec::new(); n];
        for (x, ends) in order.sequence().iter().zip(fill.start.windows(2)) {
            let row = &fill.ranks[ends[0] as usize..ends[1] as usize];
            up[x.index()] = row.iter().map(|&u| (order.vertex_at(u), INF.0)).collect();
        }
        let arcs = ArcIndex::build(&up);
        let mut pull = Pull::new(n);
        for &x in order.sequence() {
            let best = pull.row(graph, &arcs, x, &up[x.index()], |y| &up[y.index()]);
            for (arc, &w) in up[x.index()].iter_mut().zip(best) {
                arc.1 = w;
            }
        }
        // A graph has no parallel edges: each is the arc of its lower end.
        let extra_shortcuts = fill.ranks.len() - graph.num_edges();
        Self::assemble(order, up, arcs, ShortcutMode::AllPairs, extra_shortcuts)
    }

    /// [`Self::build`] under the name the benchmark adapter calls; `pool` is
    /// not used (the elimination is sequential).
    #[doc(hidden)]
    pub fn build_pooled(
        graph: &Graph,
        strategy: OrderingStrategy,
        mode: ShortcutMode,
        _pool: &WorkerPool,
    ) -> Self {
        Self::build(graph, strategy, mode)
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
        assert_eq!(up.len(), order.len(), "up table does not cover the order");
        let arcs = ArcIndex::build(&up);
        Self::assemble(order, up, arcs, mode, extra_shortcuts)
    }

    fn assemble(
        order: VertexOrder,
        up: Vec<Vec<(VertexId, Weight)>>,
        arcs: ArcIndex,
        mode: ShortcutMode,
        extra_shortcuts: usize,
    ) -> Self {
        let n = order.len();
        ContractionHierarchy {
            order: Arc::new(order),
            arcs: Arc::new(arcs),
            up: CowTable::from_rows(up),
            repair_scratch: Arc::new(ScratchPool::new(move || RepairScratch::new(n))),
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

    /// Measured heap footprint: shortcut-table chunks, arc topology (the
    /// downward adjacency), and both rank arrays of the order. The
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

    /// A clone: the packed read-only copy a query once ran on is the
    /// hierarchy itself.
    #[doc(hidden)]
    pub fn flatten(&self) -> FlatHierarchy {
        self.clone()
    }
}

/// The name of the packed read-only copy a query once ran on; it is the
/// hierarchy itself.
#[doc(hidden)]
pub type FlatHierarchy = ContractionHierarchy;

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
    fn index_size_is_positive() {
        let g = grid(5, 5, WeightRange::new(1, 9), 2);
        let ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        assert!(ch.index_size_bytes() > 0);
        assert!(ch.num_arcs() >= g.num_edges());
    }

    /// The all-pairs build's ruler on the benchmark's dataset: the
    /// nested-dissection build beside a build on its order, the order split
    /// into the dissection and the groups' local orders, and the fill and
    /// customize steps, interleaved.
    ///
    /// `cargo test --release -p htsp-ch -- --ignored --nocapture grid64`
    #[test]
    #[ignore = "a timing ruler: seconds, and only meaningful in a release build"]
    fn given_order_and_nd_builds_on_grid64() {
        use crate::dissection::Dissection;
        use htsp_graph::gen::grid_with_diagonals;
        use std::time::Instant;
        let g = grid_with_diagonals(64, 64, WeightRange::new(1, 100), 0.1, 42);
        let nd = OrderingStrategy::NestedDissection;
        let order = nested_dissection_order(&g);
        let fill = symbolic_fill(&g, &order);
        let dissection = Dissection::new(&g);
        let ms = |f: &mut dyn FnMut()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        };
        let mut runs: [(&str, Vec<f64>); 7] = [
            ("ND build", Vec::new()),
            ("given build", Vec::new()),
            ("ND order", Vec::new()),
            ("  dissection", Vec::new()),
            ("  local orders", Vec::new()),
            ("fill", Vec::new()),
            ("customize", Vec::new()),
        ];
        for _ in 0..31 {
            runs[0].1.push(ms(&mut || {
                ContractionHierarchy::build(&g, nd.clone(), ShortcutMode::AllPairs);
            }));
            runs[1].1.push(ms(&mut || {
                let given = OrderingStrategy::Given(order.clone());
                ContractionHierarchy::build(&g, given, ShortcutMode::AllPairs);
            }));
            runs[2].1.push(ms(&mut || {
                nested_dissection_order(&g);
            }));
            runs[3].1.push(ms(&mut || {
                Dissection::new(&g);
            }));
            runs[4].1.push(ms(&mut || {
                dissection.order();
            }));
            runs[5].1.push(ms(&mut || {
                symbolic_fill(&g, &order);
            }));
            runs[6].1.push(ms(&mut || {
                ContractionHierarchy::customize(&g, order.clone(), &fill);
            }));
        }
        println!("grid64, ms (median of 31; quartiles):");
        for (name, v) in &mut runs {
            v.sort_by(f64::total_cmp);
            println!("    {name:<14} {:6.2} ({:.2}-{:.2})", v[15], v[7], v[23]);
        }
    }
}
