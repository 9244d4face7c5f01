//! The Partitioned-CH (PCH) query: a bidirectional upward search over the
//! union of the partition shortcut arrays and the overlay shortcut arrays.
//!
//! This is the query engine of N-CH-P \[35\] and of PMHL's Q-Stage 2: it only
//! needs the shortcut arrays, which become consistent right after the
//! no-boundary shortcut update (U-Stage 2), long before any label is repaired.
//!
//! The search works in *global* vertex ids. For an interior vertex the upward
//! arcs are its partition hierarchy's arcs (translated to global ids); for a
//! boundary vertex they are its overlay hierarchy arcs. Because partition
//! orders are boundary-first and the overlay preserves global boundary
//! distances (Theorem 2), the standard CH meeting argument applies to the
//! union graph.
//!
//! [`PchView`] is the snapshot of both: N-CH-P publishes it over its
//! partition hierarchies and overlay hierarchy, PMHL (Q-Stage 2) over the
//! shortcut arrays of its partition and overlay MHLs.

use crate::overlay::OverlayGraph;
use crate::partitioned::Partitioned;
use htsp_ch::ContractionHierarchy;
use htsp_graph::cow::CowVec;
use htsp_graph::{Dist, Graph, QuerySession, QueryView, ScratchGuard, ScratchPool, VertexId, INF};
use htsp_search::MinHeap;
use std::sync::Arc;

/// Reusable PCH query state.
#[derive(Clone, Debug)]
pub struct PchSearcher {
    dist_f: Vec<Dist>,
    dist_b: Vec<Dist>,
    touched: Vec<VertexId>,
    heap_f: MinHeap,
    heap_b: MinHeap,
}

impl PchSearcher {
    /// Creates query state for graphs with `n` (global) vertices.
    pub fn new(n: usize) -> Self {
        PchSearcher {
            dist_f: vec![INF; n],
            dist_b: vec![INF; n],
            touched: Vec::new(),
            heap_f: MinHeap::new(),
            heap_b: MinHeap::new(),
        }
    }

    fn reset(&mut self, n: usize) {
        if self.dist_f.len() < n {
            self.dist_f.resize(n, INF);
            self.dist_b.resize(n, INF);
        }
        for v in self.touched.drain(..) {
            self.dist_f[v.index()] = INF;
            self.dist_b[v.index()] = INF;
        }
        self.heap_f.clear();
        self.heap_b.clear();
    }

    /// Shortest distance between global vertices `s` and `t` over the union of
    /// the partition hierarchies (`partition_chs[i]` indexes partition `i`)
    /// and the overlay hierarchy.
    ///
    /// Generic over the hierarchy container (`P`): plain slices/vectors work,
    /// and so does the chunk-granular [`CowVec`] the views keep their
    /// partition hierarchies in.
    pub fn distance<P, C>(
        &mut self,
        partitioned: &Partitioned,
        partition_chs: &P,
        overlay: &OverlayGraph,
        overlay_ch: &ContractionHierarchy,
        s: VertexId,
        t: VertexId,
    ) -> Dist
    where
        P: std::ops::Index<usize, Output = C> + ?Sized,
        C: AsRef<ContractionHierarchy>,
    {
        if s == t {
            return Dist::ZERO;
        }
        let n = partitioned.graph.num_vertices();
        self.reset(n);
        self.dist_f[s.index()] = Dist::ZERO;
        self.dist_b[t.index()] = Dist::ZERO;
        self.touched.push(s);
        self.touched.push(t);
        self.heap_f.push(Dist::ZERO, s);
        self.heap_b.push(Dist::ZERO, t);
        let mut best = INF;

        // Enumerate the upward arcs of a global vertex into `out`.
        let expand = |v: VertexId, out: &mut Vec<(VertexId, u32)>| {
            out.clear();
            if let Some(lv) = overlay.to_local(v) {
                for &(u, w) in overlay_ch.up_arcs(lv) {
                    out.push((overlay.to_global(u), w));
                }
            } else {
                let pi = partitioned.partition.partition_of(v);
                let sub = &partitioned.subgraphs[pi];
                let lv = sub.to_local(v).expect("vertex must be in its partition");
                for &(u, w) in partition_chs[pi].as_ref().up_arcs(lv) {
                    out.push((sub.to_global(u), w));
                }
            }
        };

        let mut arcs: Vec<(VertexId, u32)> = Vec::new();
        loop {
            let top_f = self.heap_f.peek().map(|(d, _)| d).unwrap_or(INF);
            let top_b = self.heap_b.peek().map(|(d, _)| d).unwrap_or(INF);
            let forward_active = top_f < best;
            let backward_active = top_b < best;
            if !forward_active && !backward_active {
                break;
            }
            let forward = if forward_active && backward_active {
                top_f <= top_b
            } else {
                forward_active
            };
            let (heap, dist_this, dist_other) = if forward {
                (&mut self.heap_f, &mut self.dist_f, &self.dist_b)
            } else {
                (&mut self.heap_b, &mut self.dist_b, &self.dist_f)
            };
            let (d, v) = match heap.pop() {
                Some(x) => x,
                None => break,
            };
            if d > dist_this[v.index()] {
                continue;
            }
            let other = dist_other[v.index()];
            if other.is_finite() {
                let cand = d.saturating_add(other);
                if cand < best {
                    best = cand;
                }
            }
            expand(v, &mut arcs);
            for &(u, w) in &arcs {
                let nd = d.saturating_add_weight(w);
                if nd < dist_this[u.index()] {
                    if dist_this[u.index()].is_inf() {
                        self.touched.push(u);
                    }
                    dist_this[u.index()] = nd;
                    heap.push(nd, u);
                }
            }
        }
        best
    }
}

/// Partitioned-CH snapshot: N-CH-P, and PMHL's Q-Stage 2.
///
/// The partition hierarchies are read through their owners `C` (a bare
/// hierarchy, or a partition MHL), one per chunk of a [`CowVec`], and the
/// overlay hierarchy through its owner `O` (a bare hierarchy, or the overlay
/// MHL's decomposition).
pub struct PchView<C, O> {
    /// The algorithm that publishes the view.
    pub algorithm: &'static str,
    /// The query stage it is published as.
    pub stage: usize,
    /// The partition layout and the graph snapshot.
    pub partitioned: Arc<Partitioned>,
    /// The partition hierarchies, through their owners, one per chunk.
    pub partition_chs: CowVec<C>,
    /// The overlay graph and its id maps.
    pub overlay: Arc<OverlayGraph>,
    /// The overlay hierarchy, through its owner.
    pub overlay_ch: Arc<O>,
    /// Searchers shared by every view of the index.
    pub searcher: Arc<ScratchPool<PchSearcher>>,
}

impl<C, O> QueryView for PchView<C, O>
where
    C: AsRef<ContractionHierarchy> + Clone + Send + Sync,
    O: AsRef<ContractionHierarchy> + Send + Sync,
{
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn stage(&self) -> usize {
        self.stage
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.searcher.with(|p| {
            p.distance(
                &self.partitioned,
                &self.partition_chs,
                &self.overlay,
                (*self.overlay_ch).as_ref(),
                s,
                t,
            )
        })
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(PchSession {
            partitioned: &self.partitioned,
            partition_chs: &self.partition_chs,
            overlay: &self.overlay,
            overlay_ch: (*self.overlay_ch).as_ref(),
            scratch: self.searcher.checkout(),
        })
    }

    fn graph(&self) -> &Graph {
        &self.partitioned.graph
    }
}

/// Per-thread Partitioned-CH session: owns one pooled [`PchSearcher`] for
/// its lifetime.
struct PchSession<'a, C> {
    partitioned: &'a Partitioned,
    partition_chs: &'a CowVec<C>,
    overlay: &'a OverlayGraph,
    overlay_ch: &'a ContractionHierarchy,
    scratch: ScratchGuard<'a, PchSearcher>,
}

impl<C: AsRef<ContractionHierarchy> + Clone> QuerySession for PchSession<'_, C> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.scratch.distance(
            self.partitioned,
            self.partition_chs,
            self.overlay,
            self.overlay_ch,
            s,
            t,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_index::build_partition_ch;
    use htsp_ch::{OrderingStrategy, ShortcutMode};
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;

    fn setup(
        k: usize,
    ) -> (
        Partitioned,
        Vec<ContractionHierarchy>,
        OverlayGraph,
        ContractionHierarchy,
    ) {
        let g = grid(10, 10, WeightRange::new(1, 20), 9);
        let pr = partition_region_growing(&g, k, 2);
        let p = Partitioned::build(g, pr);
        let chs: Vec<ContractionHierarchy> = p.subgraphs.iter().map(build_partition_ch).collect();
        let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
        let overlay = OverlayGraph::build(&p, &refs);
        let overlay_ch = ContractionHierarchy::build(
            &overlay.graph,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        (p, chs, overlay, overlay_ch)
    }

    #[test]
    fn pch_matches_dijkstra() {
        let (p, chs, overlay, overlay_ch) = setup(4);
        let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
        let mut pch = PchSearcher::new(p.graph.num_vertices());
        let qs = QuerySet::random(&p.graph, 200, 31);
        for q in &qs {
            let expect = dijkstra_distance(&p.graph, q.source, q.target);
            let got = pch.distance(&p, &refs, &overlay, &overlay_ch, q.source, q.target);
            assert_eq!(got, expect, "PCH mismatch for {:?}", q);
        }
    }

    #[test]
    fn pch_stays_exact_after_updates() {
        let (mut p, mut chs, mut overlay, mut overlay_ch) = setup(4);
        let mut gen = UpdateGenerator::new(17);
        for round in 0..3 {
            let batch = gen.generate(&p.graph, 20);
            let mut next = p.graph.clone();
            next.apply_batch(&batch);
            let routed = p.apply_batch(&next, &batch);
            let mut per_part = Vec::new();
            for (i, ch) in chs.iter_mut().enumerate() {
                let changes = ch.apply_batch(&p.subgraphs[i].graph, routed.intra[i].as_slice());
                per_part.push((i, changes));
            }
            let overlay_batch = overlay.apply_changes(&p, &routed.inter, &per_part);
            overlay_ch.apply_batch(&overlay.graph, overlay_batch.as_slice());
            let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
            let mut pch = PchSearcher::new(p.graph.num_vertices());
            let qs = QuerySet::random(&p.graph, 80, 40 + round);
            for q in &qs {
                let expect = dijkstra_distance(&p.graph, q.source, q.target);
                let got = pch.distance(&p, &refs, &overlay, &overlay_ch, q.source, q.target);
                assert_eq!(got, expect, "PCH mismatch after update for {:?}", q);
            }
        }
    }
}
