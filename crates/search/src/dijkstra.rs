//! Dijkstra's algorithm and its bounded / multi-target variants.
//!
//! Besides the textbook single-pair search, index construction needs two
//! specialized forms:
//!
//! * [`dijkstra_to_targets`] — one-to-many search that stops once every
//!   requested target is settled (used to precompute all-pair boundary
//!   shortcuts in the *pre-boundary* PSP strategy, §III-C);
//! * [`dijkstra_bounded`] — a search limited by both a distance budget and an
//!   excluded vertex, the classic *witness search* used when contracting a
//!   vertex in CH / MDE (a shortcut `(u, w)` through `v` is only needed if no
//!   witness path avoiding `v` is at most as short).
//!
//! [`DijkstraWorkspace`] keeps the distance, visited-flag, and heap buffers
//! alive across calls so repeated searches (millions during CH construction)
//! do not reallocate; it resets in O(touched) rather than O(n).

use crate::heap::MinHeap;
use htsp_graph::{Dist, Graph, VertexId, INF};
use rustc_hash::FxHashSet;

/// Reusable buffers for Dijkstra-style searches over one graph size.
#[derive(Clone, Debug)]
pub struct DijkstraWorkspace {
    dist: Vec<Dist>,
    visited: Vec<bool>,
    touched: Vec<VertexId>,
    heap: MinHeap,
}

impl DijkstraWorkspace {
    /// Creates a workspace for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        DijkstraWorkspace {
            dist: vec![INF; n],
            visited: vec![false; n],
            touched: Vec::new(),
            heap: MinHeap::new(),
        }
    }

    /// Grows the workspace if the graph has gained vertices (never shrinks).
    pub fn ensure_capacity(&mut self, n: usize) {
        if self.dist.len() < n {
            self.dist.resize(n, INF);
            self.visited.resize(n, false);
        }
    }

    /// Resets only the entries touched by the previous search.
    fn reset(&mut self) {
        for v in self.touched.drain(..) {
            self.dist[v.index()] = INF;
            self.visited[v.index()] = false;
        }
        self.heap.clear();
    }

    #[inline]
    fn relax(&mut self, v: VertexId, d: Dist) {
        let slot = &mut self.dist[v.index()];
        if d < *slot {
            if slot.is_inf() {
                self.touched.push(v);
            }
            *slot = d;
            self.heap.push(d, v);
        }
    }

    /// Distance of `v` computed by the most recent search (INF if untouched).
    pub fn distance(&self, v: VertexId) -> Dist {
        self.dist[v.index()]
    }
}

/// Computes the shortest distance from `s` to `t`, or `INF` if unreachable.
///
pub fn dijkstra_distance(graph: &Graph, s: VertexId, t: VertexId) -> Dist {
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    dijkstra_distance_ws(graph, s, t, &mut ws)
}

/// [`dijkstra_distance`] reusing a caller-provided workspace.
pub fn dijkstra_distance_ws(
    graph: &Graph,
    s: VertexId,
    t: VertexId,
    ws: &mut DijkstraWorkspace,
) -> Dist {
    ws.ensure_capacity(graph.num_vertices());
    ws.reset();
    ws.relax(s, Dist::ZERO);
    while let Some((d, v)) = ws.heap.pop() {
        if ws.visited[v.index()] {
            continue;
        }
        ws.visited[v.index()] = true;
        if v == t {
            return d;
        }
        for (to, weight) in graph.neighbors(v) {
            if !ws.visited[to.index()] {
                ws.relax(to, d.saturating_add_weight(weight));
            }
        }
    }
    ws.distance(t)
}

/// Multi-source Dijkstra with *seeded* start distances: vertex `v` ends up
/// at `min_i (seed_dist_i + d(seed_i, v))`.
///
/// This is the overlay-hop primitive of the sharded serving tier: seeding the
/// source partition's boundary vertices with their in-partition distances and
/// running one search over the overlay graph yields, in a single pass, the
/// best `source → boundary → boundary'` distance to *every* overlay vertex —
/// no per-boundary-pair search. Seeds may repeat; `INF` seeds are ignored.
pub fn dijkstra_multi_source(graph: &Graph, seeds: &[(VertexId, Dist)]) -> Vec<Dist> {
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    dijkstra_multi_source_ws(graph, seeds, &mut ws);
    ws.dist.clone()
}

/// [`dijkstra_multi_source`] reusing a caller-provided workspace; distances
/// are read back through [`DijkstraWorkspace::distance`].
pub fn dijkstra_multi_source_ws(
    graph: &Graph,
    seeds: &[(VertexId, Dist)],
    ws: &mut DijkstraWorkspace,
) {
    ws.ensure_capacity(graph.num_vertices());
    ws.reset();
    for &(v, d) in seeds {
        if !d.is_inf() {
            ws.relax(v, d);
        }
    }
    while let Some((d, v)) = ws.heap.pop() {
        if ws.visited[v.index()] {
            continue;
        }
        ws.visited[v.index()] = true;
        for (to, weight) in graph.neighbors(v) {
            if !ws.visited[to.index()] {
                ws.relax(to, d.saturating_add_weight(weight));
            }
        }
    }
}

/// Computes the full single-source shortest-distance vector from `s`.
pub fn dijkstra_all(graph: &Graph, s: VertexId) -> Vec<Dist> {
    let n = graph.num_vertices();
    let mut ws = DijkstraWorkspace::new(n);
    ws.reset();
    ws.relax(s, Dist::ZERO);
    while let Some((d, v)) = ws.heap.pop() {
        if ws.visited[v.index()] {
            continue;
        }
        ws.visited[v.index()] = true;
        for (to, weight) in graph.neighbors(v) {
            if !ws.visited[to.index()] {
                ws.relax(to, d.saturating_add_weight(weight));
            }
        }
    }
    ws.dist.clone()
}

/// One-to-many Dijkstra: returns the distance from `s` to every vertex in
/// `targets` (in the same order), stopping as soon as all targets are settled.
pub fn dijkstra_to_targets(graph: &Graph, s: VertexId, targets: &[VertexId]) -> Vec<Dist> {
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    dijkstra_to_targets_ws(graph, s, targets, &mut ws)
}

/// [`dijkstra_to_targets`] reusing a caller-provided workspace.
pub fn dijkstra_to_targets_ws(
    graph: &Graph,
    s: VertexId,
    targets: &[VertexId],
    ws: &mut DijkstraWorkspace,
) -> Vec<Dist> {
    ws.ensure_capacity(graph.num_vertices());
    ws.reset();
    let mut pending: FxHashSet<VertexId> = targets.iter().copied().collect();
    ws.relax(s, Dist::ZERO);
    while let Some((d, v)) = ws.heap.pop() {
        if ws.visited[v.index()] {
            continue;
        }
        ws.visited[v.index()] = true;
        pending.remove(&v);
        if pending.is_empty() {
            break;
        }
        for (to, weight) in graph.neighbors(v) {
            if !ws.visited[to.index()] {
                ws.relax(to, d.saturating_add_weight(weight));
            }
        }
    }
    targets.iter().map(|&t| ws.distance(t)).collect()
}

/// Bounded witness search: computes the shortest distance from `s` to `t`
/// *ignoring vertex `skip`*, abandoning the search once all frontier
/// distances exceed `limit`. Returns `INF` if no path within the budget
/// avoids `skip`.
///
/// `hop_limit` additionally caps the number of settled vertices, the standard
/// CH trick to keep contraction fast on dense intermediate graphs; pass
/// `usize::MAX` for an exact witness search.
pub fn dijkstra_bounded(
    graph: &Graph,
    s: VertexId,
    t: VertexId,
    skip: VertexId,
    limit: Dist,
    hop_limit: usize,
) -> Dist {
    let mut ws = DijkstraWorkspace::new(graph.num_vertices());
    dijkstra_bounded_ws(graph, s, t, skip, limit, hop_limit, &mut ws)
}

/// [`dijkstra_bounded`] reusing a caller-provided workspace.
#[allow(clippy::too_many_arguments)]
pub fn dijkstra_bounded_ws(
    graph: &Graph,
    s: VertexId,
    t: VertexId,
    skip: VertexId,
    limit: Dist,
    hop_limit: usize,
    ws: &mut DijkstraWorkspace,
) -> Dist {
    ws.ensure_capacity(graph.num_vertices());
    ws.reset();
    if s == skip || t == skip {
        return INF;
    }
    ws.relax(s, Dist::ZERO);
    let mut settled = 0usize;
    while let Some((d, v)) = ws.heap.pop() {
        if ws.visited[v.index()] {
            continue;
        }
        if d > limit {
            break;
        }
        ws.visited[v.index()] = true;
        settled += 1;
        if v == t {
            return d;
        }
        if settled >= hop_limit {
            break;
        }
        for (to, weight) in graph.neighbors(v) {
            if to == skip || ws.visited[to.index()] {
                continue;
            }
            let nd = d.saturating_add_weight(weight);
            if nd <= limit {
                ws.relax(to, nd);
            }
        }
    }
    let d = ws.distance(t);
    if d <= limit {
        d
    } else {
        INF
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::GraphBuilder;

    fn line_graph(weights: &[u32]) -> Graph {
        let mut b = GraphBuilder::new(weights.len() + 1);
        for (i, &w) in weights.iter().enumerate() {
            b.add_edge(VertexId::from_index(i), VertexId::from_index(i + 1), w);
        }
        b.build()
    }

    #[test]
    fn line_graph_distances() {
        let g = line_graph(&[2, 3, 4]);
        assert_eq!(dijkstra_distance(&g, VertexId(0), VertexId(3)), Dist(9));
        assert_eq!(dijkstra_distance(&g, VertexId(3), VertexId(0)), Dist(9));
        assert_eq!(dijkstra_distance(&g, VertexId(1), VertexId(1)), Dist(0));
    }

    #[test]
    fn unreachable_returns_inf() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        assert_eq!(dijkstra_distance(&g, VertexId(0), VertexId(3)), INF);
    }

    #[test]
    fn all_distances_match_single_pair() {
        let g = grid(7, 7, WeightRange::new(1, 9), 13);
        let dists = dijkstra_all(&g, VertexId(0));
        for (t, &d) in dists.iter().enumerate() {
            assert_eq!(
                d,
                dijkstra_distance(&g, VertexId(0), VertexId::from_index(t))
            );
        }
    }

    #[test]
    fn paper_example_graph_distances() {
        // A 14-vertex fixture modeled after the Figure 2-(a) example network.
        let g = paper_example_graph();
        assert!(g.is_connected());
        g.validate().unwrap();
        // Distances must be symmetric and satisfy the triangle inequality
        // through any intermediate vertex.
        let d_74 = dijkstra_distance(&g, VertexId(6), VertexId(3));
        assert_eq!(d_74, dijkstra_distance(&g, VertexId(3), VertexId(6)));
        let d_7_11 = dijkstra_distance(&g, VertexId(6), VertexId(10));
        let d_11_4 = dijkstra_distance(&g, VertexId(10), VertexId(3));
        assert!(d_74 <= d_7_11.saturating_add(d_11_4));
    }

    /// A 14-vertex fixture modeled after the Figure 2-(a) example network
    /// (vertex `v_i` in the paper is `VertexId(i-1)`); weights are
    /// approximate since the figure is only partially legible.
    pub(crate) fn paper_example_graph() -> Graph {
        let mut b = GraphBuilder::new(14);
        let e = |b: &mut GraphBuilder, u: usize, v: usize, w: u32| {
            b.add_edge(VertexId::from_index(u - 1), VertexId::from_index(v - 1), w);
        };
        e(&mut b, 1, 9, 2);
        e(&mut b, 1, 10, 3);
        e(&mut b, 9, 10, 5);
        e(&mut b, 9, 12, 4);
        e(&mut b, 10, 12, 7);
        e(&mut b, 10, 13, 2);
        e(&mut b, 12, 14, 2);
        e(&mut b, 13, 14, 6);
        e(&mut b, 2, 3, 6);
        e(&mut b, 2, 11, 2);
        e(&mut b, 3, 11, 3);
        e(&mut b, 3, 12, 5);
        e(&mut b, 11, 12, 2);
        e(&mut b, 4, 5, 2);
        e(&mut b, 4, 11, 3);
        e(&mut b, 5, 11, 6);
        e(&mut b, 5, 6, 3);
        e(&mut b, 6, 13, 2);
        e(&mut b, 7, 8, 2);
        e(&mut b, 7, 13, 5);
        e(&mut b, 8, 13, 3);
        e(&mut b, 6, 7, 4);
        b.build()
    }

    #[test]
    fn to_targets_matches_individual_queries() {
        let g = grid(6, 6, WeightRange::new(1, 5), 3);
        let targets = vec![VertexId(5), VertexId(17), VertexId(35), VertexId(0)];
        let got = dijkstra_to_targets(&g, VertexId(10), &targets);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(got[i], dijkstra_distance(&g, VertexId(10), t));
        }
    }

    #[test]
    fn bounded_search_respects_skip_vertex() {
        // 0 -1- 1 -1- 2  and a detour 0 -5- 3 -5- 2
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(0), VertexId(3), 5);
        b.add_edge(VertexId(3), VertexId(2), 5);
        let g = b.build();
        // Avoiding v1 the best path costs 10.
        assert_eq!(
            dijkstra_bounded(
                &g,
                VertexId(0),
                VertexId(2),
                VertexId(1),
                Dist(100),
                usize::MAX
            ),
            Dist(10)
        );
        // With a limit of 9, no witness is found.
        assert_eq!(
            dijkstra_bounded(
                &g,
                VertexId(0),
                VertexId(2),
                VertexId(1),
                Dist(9),
                usize::MAX
            ),
            INF
        );
    }

    #[test]
    fn bounded_search_with_endpoint_as_skip_is_inf() {
        let g = line_graph(&[1, 1]);
        assert_eq!(
            dijkstra_bounded(
                &g,
                VertexId(0),
                VertexId(2),
                VertexId(0),
                Dist(10),
                usize::MAX
            ),
            INF
        );
    }

    /// All-pairs distances by Bellman-Ford over the edge list: a reference
    /// that never reads the CSR arcs.
    fn reference_all(g: &Graph, s: VertexId) -> Vec<Dist> {
        let mut dist = vec![INF; g.num_vertices()];
        dist[s.index()] = Dist::ZERO;
        for _ in 0..g.num_vertices() {
            for (_, u, v, w) in g.edges() {
                let (du, dv) = (dist[u.index()], dist[v.index()]);
                dist[v.index()] = dv.min(du.saturating_add_weight(w));
                dist[u.index()] = dist[u.index()].min(dv.saturating_add_weight(w));
            }
        }
        dist
    }

    #[test]
    fn csr_backed_search_is_exact() {
        let mut g = grid(9, 8, WeightRange::new(1, 40), 17);
        // A pinned clone keeps its weights while the next batch lands.
        let pinned = g.clone();
        let batch = htsp_graph::UpdateGenerator::new(3).generate(&g, 30);
        g.apply_batch(&batch);
        for graph in [&pinned, &g] {
            for s in [0usize, 3, 20, 71] {
                let s = VertexId::from_index(s);
                let expect = reference_all(graph, s);
                assert_eq!(dijkstra_all(graph, s), expect);
                for t in [0usize, 50, 71] {
                    let t = VertexId::from_index(t);
                    assert_eq!(dijkstra_distance(graph, s, t), expect[t.index()]);
                }
                let targets = [VertexId(1), VertexId(60), VertexId(33)];
                assert_eq!(
                    dijkstra_to_targets(graph, s, &targets),
                    targets.map(|t| expect[t.index()])
                );
            }
        }
    }

    #[test]
    fn workspace_reuse_gives_same_answers() {
        let g = grid(8, 8, WeightRange::new(1, 7), 21);
        let mut ws = DijkstraWorkspace::new(g.num_vertices());
        for (s, t) in [(0usize, 63usize), (5, 40), (63, 0), (17, 17)] {
            let a = dijkstra_distance_ws(
                &g,
                VertexId::from_index(s),
                VertexId::from_index(t),
                &mut ws,
            );
            let b = dijkstra_distance(&g, VertexId::from_index(s), VertexId::from_index(t));
            assert_eq!(a, b);
        }
    }
}
