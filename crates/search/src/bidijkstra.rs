//! Bidirectional Dijkstra — the paper's index-free baseline (*BiDijkstra*).
//!
//! The search grows a forward ball from `s` and a backward ball from `t`
//! (identical on undirected graphs) and stops when the sum of the two frontier
//! minima can no longer improve the best meeting distance found so far. This
//! is Q-Stage 1 of both PMHL and PostMHL: it needs no index at all, so it is
//! available the instant U-Stage 1 has refreshed the edge weights.

use crate::heap::MinHeap;
use htsp_graph::{Dist, Graph, QuerySession, ScratchGuard, VertexId, INF};

/// Reusable bidirectional-Dijkstra searcher (keeps its buffers across calls).
#[derive(Clone, Debug)]
pub struct BiDijkstra {
    dist_f: Vec<Dist>,
    dist_b: Vec<Dist>,
    visited_f: Vec<bool>,
    visited_b: Vec<bool>,
    touched: Vec<VertexId>,
    heap_f: MinHeap,
    heap_b: MinHeap,
}

impl BiDijkstra {
    /// Creates a searcher for graphs with `n` vertices.
    pub fn new(n: usize) -> Self {
        BiDijkstra {
            dist_f: vec![INF; n],
            dist_b: vec![INF; n],
            visited_f: vec![false; n],
            visited_b: vec![false; n],
            touched: Vec::new(),
            heap_f: MinHeap::new(),
            heap_b: MinHeap::new(),
        }
    }

    fn reset(&mut self, n: usize) {
        if self.dist_f.len() < n {
            self.dist_f.resize(n, INF);
            self.dist_b.resize(n, INF);
            self.visited_f.resize(n, false);
            self.visited_b.resize(n, false);
        }
        for v in self.touched.drain(..) {
            self.dist_f[v.index()] = INF;
            self.dist_b[v.index()] = INF;
            self.visited_f[v.index()] = false;
            self.visited_b[v.index()] = false;
        }
        self.heap_f.clear();
        self.heap_b.clear();
    }

    /// Computes the shortest distance between `s` and `t` on the current
    /// weights of `graph`, or `INF` if they are disconnected.
    pub fn distance(&mut self, graph: &Graph, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        let n = graph.num_vertices();
        self.reset(n);

        self.dist_f[s.index()] = Dist::ZERO;
        self.dist_b[t.index()] = Dist::ZERO;
        self.touched.push(s);
        self.touched.push(t);
        self.heap_f.push(Dist::ZERO, s);
        self.heap_b.push(Dist::ZERO, t);

        let mut best = INF;
        loop {
            let top_f = self.heap_f.peek().map(|(d, _)| d).unwrap_or(INF);
            let top_b = self.heap_b.peek().map(|(d, _)| d).unwrap_or(INF);
            if top_f.is_inf() && top_b.is_inf() {
                break;
            }
            // Standard stopping criterion: no meeting path can beat `best`.
            if top_f.saturating_add(top_b) >= best {
                break;
            }
            // Expand the smaller frontier.
            let forward = top_f <= top_b;
            let (heap, dist_this, visited_this, dist_other) = if forward {
                (
                    &mut self.heap_f,
                    &mut self.dist_f,
                    &mut self.visited_f,
                    &self.dist_b,
                )
            } else {
                (
                    &mut self.heap_b,
                    &mut self.dist_b,
                    &mut self.visited_b,
                    &self.dist_f,
                )
            };
            let (d, v) = match heap.pop() {
                Some(x) => x,
                None => break,
            };
            if visited_this[v.index()] {
                continue;
            }
            visited_this[v.index()] = true;
            // Meeting check.
            let other = dist_other[v.index()];
            if other.is_finite() {
                let cand = d.saturating_add(other);
                if cand < best {
                    best = cand;
                }
            }
            for (to, weight) in graph.neighbors(v) {
                let nd = d.saturating_add_weight(weight);
                let slot = &mut dist_this[to.index()];
                if nd < *slot {
                    if slot.is_inf() && dist_other[to.index()].is_inf() {
                        self.touched.push(to);
                    } else if slot.is_inf() {
                        // Already touched by the other direction; still record
                        // once so reset clears this side too.
                        self.touched.push(to);
                    }
                    *slot = nd;
                    heap.push(nd, to);
                }
            }
        }
        best
    }
}

impl BiDijkstra {
    /// One-to-many: distances from `s` to every vertex of `targets` (same
    /// order), computed with a *single* truncated forward Dijkstra that
    /// stops as soon as the last pending target settles — one search for
    /// the whole target set instead of one bidirectional search per pair.
    ///
    /// Reuses the searcher's forward buffers, so a session-held searcher
    /// serves interleaved `distance` and `one_to_many` calls without
    /// reallocation.
    pub fn one_to_many(&mut self, graph: &Graph, s: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        if targets.is_empty() {
            // Without this guard the search below would settle the whole
            // graph before noticing it has nothing to answer.
            return Vec::new();
        }
        let n = graph.num_vertices();
        self.reset(n);
        // Count distinct unsettled targets via the backward-visited flags,
        // which this forward-only search repurposes as target markers (they
        // are cleared by `touched` exactly like the search state).
        let mut pending = 0usize;
        for &t in targets {
            if !self.visited_b[t.index()] {
                self.visited_b[t.index()] = true;
                self.touched.push(t);
                pending += 1;
            }
        }
        self.dist_f[s.index()] = Dist::ZERO;
        if !self.visited_b[s.index()] {
            // Not already recorded as a target: record `s` for reset().
            self.touched.push(s);
        }
        self.heap_f.push(Dist::ZERO, s);
        while let Some((d, v)) = self.heap_f.pop() {
            if self.visited_f[v.index()] {
                continue;
            }
            self.visited_f[v.index()] = true;
            if self.visited_b[v.index()] {
                pending -= 1;
                if pending == 0 {
                    break;
                }
            }
            for (to, weight) in graph.neighbors(v) {
                if self.visited_f[to.index()] {
                    continue;
                }
                let nd = d.saturating_add_weight(weight);
                let slot = &mut self.dist_f[to.index()];
                if nd < *slot {
                    if slot.is_inf() && !self.visited_b[to.index()] {
                        self.touched.push(to);
                    }
                    *slot = nd;
                    self.heap_f.push(nd, to);
                }
            }
        }
        targets.iter().map(|&t| self.dist_f[t.index()]).collect()
    }
}

/// A [`QuerySession`] over a frozen graph, answering with bidirectional
/// Dijkstra (point-to-point) and truncated forward Dijkstra (one-to-many).
///
/// This is the session type behind every BiDijkstra-stage view in the
/// repository (the index-free baseline and the Q-Stage-1 fallbacks of MHL,
/// PMHL, and PostMHL): it owns one pooled searcher for its whole lifetime.
pub struct BiDijkstraSession<'a> {
    graph: &'a Graph,
    scratch: ScratchGuard<'a, BiDijkstra>,
}

impl<'a> BiDijkstraSession<'a> {
    /// Opens a session over `graph` holding `scratch` until dropped.
    pub fn new(graph: &'a Graph, scratch: ScratchGuard<'a, BiDijkstra>) -> Self {
        BiDijkstraSession { graph, scratch }
    }
}

impl QuerySession for BiDijkstraSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.scratch.distance(self.graph, s, t)
    }

    fn one_to_many(&mut self, source: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        self.scratch.one_to_many(self.graph, source, targets)
    }
}

/// Convenience wrapper allocating a fresh searcher for one query.
pub fn bidijkstra_distance(graph: &Graph, s: VertexId, t: VertexId) -> Dist {
    BiDijkstra::new(graph.num_vertices()).distance(graph, s, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dijkstra::dijkstra_distance;
    use htsp_graph::gen::{grid, random_geometric, WeightRange};
    use htsp_graph::{GraphBuilder, QuerySet};

    #[test]
    fn same_vertex_is_zero() {
        let g = grid(3, 3, WeightRange::default(), 1);
        assert_eq!(bidijkstra_distance(&g, VertexId(4), VertexId(4)), Dist(0));
    }

    #[test]
    fn disconnected_is_inf() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(2), VertexId(3), 1);
        let g = b.build();
        assert_eq!(bidijkstra_distance(&g, VertexId(0), VertexId(2)), INF);
    }

    #[test]
    fn matches_dijkstra_on_grid() {
        let g = grid(9, 9, WeightRange::new(1, 20), 5);
        let qs = QuerySet::random(&g, 200, 17);
        let mut bd = BiDijkstra::new(g.num_vertices());
        for q in &qs {
            assert_eq!(
                bd.distance(&g, q.source, q.target),
                dijkstra_distance(&g, q.source, q.target),
                "mismatch for {:?}",
                q
            );
        }
    }

    #[test]
    fn matches_dijkstra_on_geometric_graph() {
        let g = random_geometric(250, 3, WeightRange::new(1, 100), 9);
        let qs = QuerySet::random(&g, 100, 23);
        let mut bd = BiDijkstra::new(g.num_vertices());
        for q in &qs {
            assert_eq!(
                bd.distance(&g, q.source, q.target),
                dijkstra_distance(&g, q.source, q.target)
            );
        }
    }

    #[test]
    fn one_to_many_matches_individual_searches() {
        let g = random_geometric(200, 3, WeightRange::new(1, 50), 11);
        let mut bd = BiDijkstra::new(g.num_vertices());
        let targets: Vec<VertexId> = (0..40).map(|i| VertexId(i * 5)).collect();
        for s in [VertexId(0), VertexId(7), VertexId(199)] {
            let batch = bd.one_to_many(&g, s, &targets);
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    dijkstra_distance(&g, s, t),
                    "one_to_many({s}, {t}) diverged"
                );
            }
            // Interleave a point-to-point query: buffers must reset cleanly.
            assert_eq!(
                bd.distance(&g, s, VertexId(100)),
                dijkstra_distance(&g, s, VertexId(100))
            );
        }
    }

    #[test]
    fn one_to_many_handles_duplicates_source_and_unreachable() {
        let mut b = GraphBuilder::new(5);
        b.add_edge(VertexId(0), VertexId(1), 2);
        b.add_edge(VertexId(1), VertexId(2), 3);
        b.add_edge(VertexId(3), VertexId(4), 1); // disconnected component
        let g = b.build();
        let mut bd = BiDijkstra::new(5);
        let targets = [
            VertexId(2),
            VertexId(2), // duplicate
            VertexId(0), // the source itself
            VertexId(4), // unreachable
        ];
        let got = bd.one_to_many(&g, VertexId(0), &targets);
        assert_eq!(got, vec![Dist(5), Dist(5), Dist(0), INF]);
        assert!(bd.one_to_many(&g, VertexId(0), &[]).is_empty());
        // And again, to prove the target markers were fully cleared.
        let got = bd.one_to_many(&g, VertexId(1), &[VertexId(0), VertexId(3)]);
        assert_eq!(got, vec![Dist(2), INF]);
    }

    #[test]
    fn session_owns_scratch_and_matches_dijkstra() {
        use htsp_graph::{QuerySession, ScratchPool};
        let g = grid(7, 7, WeightRange::new(1, 9), 8);
        let n = g.num_vertices();
        let pool = ScratchPool::new(move || BiDijkstra::new(n));
        {
            let mut session = BiDijkstraSession::new(&g, pool.checkout());
            assert_eq!(pool.idle(), 0, "session holds the scratch");
            assert_eq!(
                session.distance(VertexId(0), VertexId(48)),
                dijkstra_distance(&g, VertexId(0), VertexId(48))
            );
            let targets = [VertexId(3), VertexId(30), VertexId(48)];
            let batch = session.one_to_many(VertexId(5), &targets);
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(batch[i], dijkstra_distance(&g, VertexId(5), t));
            }
            let m = session.matrix(&[VertexId(0), VertexId(10)], &targets);
            assert_eq!(m[1][2], dijkstra_distance(&g, VertexId(10), VertexId(48)));
        }
        assert_eq!(pool.idle(), 1, "scratch returned on session drop");
    }

    #[test]
    fn correct_after_weight_updates() {
        let mut g = grid(6, 6, WeightRange::new(5, 15), 2);
        let mut bd = BiDijkstra::new(g.num_vertices());
        let before = bd.distance(&g, VertexId(0), VertexId(35));
        // Double every edge weight: distances must exactly double.
        let updates: Vec<_> = g.edges().map(|(e, _, _, w)| (e, w * 2)).collect();
        for (e, w) in updates {
            g.set_edge_weight(e, w);
        }
        let after = bd.distance(&g, VertexId(0), VertexId(35));
        assert_eq!(after.0, before.0 * 2);
    }
}
