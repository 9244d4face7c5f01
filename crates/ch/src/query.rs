//! CH query processing: bidirectional upward search on the shortcut graph.
//!
//! The search only follows arcs from lower-ranked to higher-ranked vertices
//! (§III-A). On an undirected graph both directions use the same upward arcs.
//! A direction stops expanding once its frontier minimum can no longer improve
//! the best meeting distance; the query finishes when both directions stop.

use crate::hierarchy::ContractionHierarchy;
use htsp_graph::{Dist, QuerySession, ScratchGuard, VertexId, INF};
use htsp_search::MinHeap;

/// Reusable CH query state (buffers survive across queries).
#[derive(Clone, Debug)]
pub struct ChQuery {
    dist_f: Vec<Dist>,
    dist_b: Vec<Dist>,
    touched_f: Vec<VertexId>,
    touched_b: Vec<VertexId>,
    heap_f: MinHeap,
    heap_b: MinHeap,
}

impl ChQuery {
    /// Creates query state for hierarchies over `n` vertices.
    pub fn new(n: usize) -> Self {
        ChQuery {
            dist_f: vec![INF; n],
            dist_b: vec![INF; n],
            touched_f: Vec::new(),
            touched_b: Vec::new(),
            heap_f: MinHeap::new(),
            heap_b: MinHeap::new(),
        }
    }

    fn reset(&mut self, n: usize) {
        if self.dist_f.len() < n {
            self.dist_f.resize(n, INF);
            self.dist_b.resize(n, INF);
        }
        for v in self.touched_f.drain(..) {
            self.dist_f[v.index()] = INF;
        }
        self.heap_f.clear();
        self.reset_backward();
    }

    /// Clears only the backward half — the one-to-many path resets this
    /// between targets while keeping the forward search intact.
    fn reset_backward(&mut self) {
        for v in self.touched_b.drain(..) {
            self.dist_b[v.index()] = INF;
        }
        self.heap_b.clear();
    }

    /// Shortest distance between `s` and `t` on the hierarchy `ch`.
    pub fn distance(&mut self, ch: &ContractionHierarchy, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        let n = ch.num_vertices();
        self.reset(n);
        self.dist_f[s.index()] = Dist::ZERO;
        self.dist_b[t.index()] = Dist::ZERO;
        self.touched_f.push(s);
        self.touched_b.push(t);
        self.heap_f.push(Dist::ZERO, s);
        self.heap_b.push(Dist::ZERO, t);
        let mut best = INF;

        loop {
            let top_f = self.heap_f.peek().map(|(d, _)| d).unwrap_or(INF);
            let top_b = self.heap_b.peek().map(|(d, _)| d).unwrap_or(INF);
            let forward_active = top_f < best;
            let backward_active = top_b < best;
            if !forward_active && !backward_active {
                break;
            }
            // Expand the direction with the smaller frontier minimum among the
            // still-active ones.
            let forward = if forward_active && backward_active {
                top_f <= top_b
            } else {
                forward_active
            };
            let (heap, dist_this, touched_this, dist_other) = if forward {
                (
                    &mut self.heap_f,
                    &mut self.dist_f,
                    &mut self.touched_f,
                    &self.dist_b,
                )
            } else {
                (
                    &mut self.heap_b,
                    &mut self.dist_b,
                    &mut self.touched_b,
                    &self.dist_f,
                )
            };
            let (d, v) = match heap.pop() {
                Some(x) => x,
                None => break,
            };
            if d > dist_this[v.index()] {
                continue; // stale
            }
            // Meeting point check.
            let other = dist_other[v.index()];
            if other.is_finite() {
                let cand = d.saturating_add(other);
                if cand < best {
                    best = cand;
                }
            }
            for &(u, w) in ch.up_arcs(v) {
                let nd = d.saturating_add_weight(w);
                if nd < dist_this[u.index()] {
                    if dist_this[u.index()].is_inf() {
                        touched_this.push(u);
                    }
                    dist_this[u.index()] = nd;
                    heap.push(nd, u);
                }
            }
        }
        best
    }

    /// One-to-many on the hierarchy: the *complete* forward upward search
    /// from `s` runs once (settling the exact upward distance of every
    /// upward-reachable vertex), then each target runs only its backward
    /// upward search against the cached forward ball — `1 + |targets|`
    /// half-searches instead of `2·|targets|`, with the expensive forward
    /// half amortized across the whole target set.
    pub fn one_to_many(
        &mut self,
        ch: &ContractionHierarchy,
        s: VertexId,
        targets: &[VertexId],
    ) -> Vec<Dist> {
        if targets.is_empty() {
            // Skip the full forward search when there is nothing to answer.
            return Vec::new();
        }
        let n = ch.num_vertices();
        self.reset(n);
        // Full forward upward search (no pruning: every settled distance is
        // the exact upward distance from s).
        self.dist_f[s.index()] = Dist::ZERO;
        self.touched_f.push(s);
        self.heap_f.push(Dist::ZERO, s);
        while let Some((d, v)) = self.heap_f.pop() {
            if d > self.dist_f[v.index()] {
                continue; // stale
            }
            for &(u, w) in ch.up_arcs(v) {
                let nd = d.saturating_add_weight(w);
                if nd < self.dist_f[u.index()] {
                    if self.dist_f[u.index()].is_inf() {
                        self.touched_f.push(u);
                    }
                    self.dist_f[u.index()] = nd;
                    self.heap_f.push(nd, u);
                }
            }
        }
        targets
            .iter()
            .map(|&t| {
                if t == s {
                    return Dist::ZERO;
                }
                self.reset_backward();
                self.dist_b[t.index()] = Dist::ZERO;
                self.touched_b.push(t);
                self.heap_b.push(Dist::ZERO, t);
                let mut best = INF;
                while let Some((d, v)) = self.heap_b.pop() {
                    if d >= best {
                        break; // no remaining meeting can improve
                    }
                    if d > self.dist_b[v.index()] {
                        continue; // stale
                    }
                    let df = self.dist_f[v.index()];
                    if df.is_finite() {
                        let cand = d.saturating_add(df);
                        if cand < best {
                            best = cand;
                        }
                    }
                    for &(u, w) in ch.up_arcs(v) {
                        let nd = d.saturating_add_weight(w);
                        if nd < self.dist_b[u.index()] {
                            if self.dist_b[u.index()].is_inf() {
                                self.touched_b.push(u);
                            }
                            self.dist_b[u.index()] = nd;
                            self.heap_b.push(nd, u);
                        }
                    }
                }
                best
            })
            .collect()
    }
}

/// A [`QuerySession`] over one frozen [`ContractionHierarchy`].
///
/// Owns one pooled [`ChQuery`] for its whole lifetime and overrides
/// `one_to_many` with the shared-forward-search algorithm
/// ([`ChQuery::one_to_many`]). Used by the DCH/TOAIN views and by the CH
/// query stages of MHL and PostMHL.
pub struct ChQuerySession<'a> {
    ch: &'a ContractionHierarchy,
    scratch: ScratchGuard<'a, ChQuery>,
}

impl<'a> ChQuerySession<'a> {
    /// Opens a session over `ch` holding `scratch` until dropped.
    pub fn new(ch: &'a ContractionHierarchy, scratch: ScratchGuard<'a, ChQuery>) -> Self {
        ChQuerySession { ch, scratch }
    }
}

impl QuerySession for ChQuerySession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.scratch.distance(self.ch, s, t)
    }

    fn one_to_many(&mut self, source: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        self.scratch.one_to_many(self.ch, source, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::ShortcutMode;
    use crate::ordering::OrderingStrategy;
    use htsp_graph::gen::{grid_with_diagonals, WeightRange};
    use htsp_graph::{GraphBuilder, QuerySet};
    use htsp_search::dijkstra_distance;

    #[test]
    fn query_reuse_is_consistent() {
        let g = grid_with_diagonals(7, 7, WeightRange::new(1, 15), 0.2, 4);
        let ch = crate::ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let qs = QuerySet::random(&g, 120, 3);
        let mut q = ChQuery::new(g.num_vertices());
        for query in &qs {
            assert_eq!(
                q.distance(&ch, query.source, query.target),
                dijkstra_distance(&g, query.source, query.target)
            );
        }
    }

    #[test]
    fn one_to_many_matches_pairwise_queries() {
        let g = grid_with_diagonals(8, 8, WeightRange::new(1, 12), 0.25, 7);
        let ch = crate::ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let mut q = ChQuery::new(g.num_vertices());
        assert!(q.one_to_many(&ch, VertexId(0), &[]).is_empty());
        let targets: Vec<VertexId> = (0..g.num_vertices() as u32)
            .step_by(3)
            .map(VertexId)
            .collect();
        for s in [VertexId(0), VertexId(20), VertexId(63)] {
            let batch = q.one_to_many(&ch, s, &targets);
            for (i, &t) in targets.iter().enumerate() {
                assert_eq!(
                    batch[i],
                    dijkstra_distance(&g, s, t),
                    "one_to_many({s}, {t}) diverged"
                );
            }
            // Interleaved point-to-point queries stay exact.
            assert_eq!(
                q.distance(&ch, s, VertexId(33)),
                dijkstra_distance(&g, s, VertexId(33))
            );
        }
    }

    #[test]
    fn session_checks_out_scratch_once() {
        use htsp_graph::{QuerySession, ScratchPool};
        let g = grid_with_diagonals(6, 6, WeightRange::new(1, 9), 0.2, 9);
        let ch = crate::ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let n = g.num_vertices();
        let pool = ScratchPool::new(move || ChQuery::new(n));
        {
            let mut session = ChQuerySession::new(&ch, pool.checkout());
            assert_eq!(pool.idle(), 0);
            let m = session.matrix(&[VertexId(0), VertexId(35)], &[VertexId(5), VertexId(30)]);
            for (i, &s) in [VertexId(0), VertexId(35)].iter().enumerate() {
                for (j, &t) in [VertexId(5), VertexId(30)].iter().enumerate() {
                    assert_eq!(m[i][j], dijkstra_distance(&g, s, t));
                }
            }
        }
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn disconnected_pair_is_inf() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 2);
        b.add_edge(VertexId(2), VertexId(3), 2);
        let g = b.build();
        let ch = crate::ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let mut q = ChQuery::new(4);
        assert_eq!(q.distance(&ch, VertexId(0), VertexId(3)), INF);
        assert_eq!(q.distance(&ch, VertexId(0), VertexId(1)), Dist(2));
    }

    #[test]
    fn same_vertex_is_zero() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(VertexId(0), VertexId(1), 2);
        let g = b.build();
        let ch = crate::ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let mut q = ChQuery::new(2);
        assert_eq!(q.distance(&ch, VertexId(1), VertexId(1)), Dist(0));
    }
}
