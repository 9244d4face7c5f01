//! A* search with a caller-supplied admissible heuristic.
//!
//! The paper lists A* among the index-free algorithms (§VIII). On pure
//! distance queries without coordinates the zero heuristic degenerates to
//! Dijkstra, but the examples use a landmark (ALT-style) heuristic to show
//! the API.

use crate::heap::MinHeap;
use htsp_graph::{Dist, Graph, VertexId, INF};

/// Computes the shortest distance from `s` to `t` using A* with heuristic
/// `h(v)` = estimated distance from `v` to `t`.
///
/// The heuristic must be *admissible* (never overestimate) for the result to
/// be exact; it should also be consistent for the search to settle each vertex
/// once. The zero heuristic `|_| Dist::ZERO` is always valid.
pub fn astar_distance<H>(graph: &Graph, s: VertexId, t: VertexId, heuristic: H) -> Dist
where
    H: Fn(VertexId) -> Dist,
{
    if s == t {
        return Dist::ZERO;
    }
    let n = graph.num_vertices();
    let mut dist = vec![INF; n];
    let mut closed = vec![false; n];
    let mut heap = MinHeap::with_capacity(64);
    dist[s.index()] = Dist::ZERO;
    heap.push(heuristic(s), s);
    while let Some((_f, v)) = heap.pop() {
        if closed[v.index()] {
            continue;
        }
        closed[v.index()] = true;
        if v == t {
            return dist[v.index()];
        }
        let dv = dist[v.index()];
        for (to, weight) in graph.neighbors(v) {
            if closed[to.index()] {
                continue;
            }
            let nd = dv.saturating_add_weight(weight);
            if nd < dist[to.index()] {
                dist[to.index()] = nd;
                heap.push(nd.saturating_add(heuristic(to)), to);
            }
        }
    }
    dist[t.index()]
}

/// A simple ALT-style landmark heuristic: `h(v) = max_L |d(L, t) - d(L, v)|`
/// over a set of landmarks with precomputed single-source distances.
///
/// Built once per graph, reused for many queries. Admissible and consistent by
/// the triangle inequality.
#[derive(Clone, Debug)]
pub struct LandmarkHeuristic {
    /// `dists[i][v]` = distance from landmark `i` to vertex `v`.
    dists: Vec<Vec<Dist>>,
}

impl LandmarkHeuristic {
    /// Precomputes single-source distances from each landmark.
    pub fn new(graph: &Graph, landmarks: &[VertexId]) -> Self {
        let dists = landmarks
            .iter()
            .map(|&l| crate::dijkstra::dijkstra_all(graph, l))
            .collect();
        LandmarkHeuristic { dists }
    }

    /// Lower bound on `d(v, t)`.
    pub fn estimate(&self, v: VertexId, t: VertexId) -> Dist {
        let mut best = 0u32;
        for d in &self.dists {
            let dv = d[v.index()];
            let dt = d[t.index()];
            if dv.is_finite() && dt.is_finite() {
                best = best.max(dv.0.abs_diff(dt.0));
            }
        }
        Dist(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_distance;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::QuerySet;

    #[test]
    fn zero_heuristic_matches_dijkstra() {
        let g = grid(8, 8, WeightRange::new(1, 9), 4);
        let qs = QuerySet::random(&g, 100, 8);
        for q in &qs {
            assert_eq!(
                astar_distance(&g, q.source, q.target, |_| Dist::ZERO),
                dijkstra_distance(&g, q.source, q.target)
            );
        }
    }

    #[test]
    fn landmark_heuristic_is_admissible_and_exact() {
        let g = grid(10, 10, WeightRange::new(1, 9), 6);
        let landmarks = [VertexId(0), VertexId(99), VertexId(9), VertexId(90)];
        let h = LandmarkHeuristic::new(&g, &landmarks);
        let qs = QuerySet::random(&g, 150, 12);
        for q in &qs {
            let exact = dijkstra_distance(&g, q.source, q.target);
            // Admissibility: the estimate never exceeds the true distance.
            assert!(h.estimate(q.source, q.target) <= exact);
            // A* with this heuristic is exact.
            let got = astar_distance(&g, q.source, q.target, |v| h.estimate(v, q.target));
            assert_eq!(got, exact);
        }
    }

    #[test]
    fn same_vertex_zero() {
        let g = grid(3, 3, WeightRange::default(), 1);
        assert_eq!(
            astar_distance(&g, VertexId(2), VertexId(2), |_| Dist::ZERO),
            Dist(0)
        );
    }
}
