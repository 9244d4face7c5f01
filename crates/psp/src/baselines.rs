//! The PSP baselines of the paper's evaluation (§VII-A):
//!
//! * [`NChP`] — *N-CH-P* \[35\]: the update-oriented no-boundary PSP index with
//!   DCH as the underlying index. Maintenance only repairs shortcut arrays;
//!   queries run the Partitioned-CH upward search.
//! * [`PTdP`] — *P-TD-P* \[35\]: the query-oriented post-boundary PSP index with
//!   DH2H as the underlying index. Same-partition queries use the corrected
//!   partition labels `L'_i`; cross-partition queries concatenate
//!   `L'_i`, `L̃`, and `L'_j` through the boundary vertices.
//!
//! Both are single-stage: one snapshot is published per batch, when the
//! repair completes.

use crate::overlay::{OverlayGraph, OverlayMaintainer};
use crate::partitioned::Partitioned;
use crate::pch::PchSearcher;
use crate::post_boundary::PostBoundaryIndexes;
use htsp_ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode};
use htsp_graph::{
    Dist, Graph, IndexMaintainer, QuerySession, QueryView, ScratchGuard, ScratchPool,
    SnapshotPublisher, UpdateBatch, UpdateTimeline, VertexId, WorkerPool, INF,
};
use htsp_partition::partition_region_growing;
use htsp_td::H2HIndex;
use std::sync::Arc;
use std::time::Instant;

/// Immutable N-CH-P snapshot.
pub struct NChPView {
    partitioned: Arc<Partitioned>,
    partition_chs: Arc<Vec<ContractionHierarchy>>,
    overlay: Arc<OverlayGraph>,
    overlay_ch: Arc<ContractionHierarchy>,
    searcher: Arc<ScratchPool<PchSearcher>>,
}

impl QueryView for NChPView {
    fn algorithm(&self) -> &'static str {
        "N-CH-P"
    }

    fn stage(&self) -> usize {
        0
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.searcher.with(|p| {
            p.distance(
                &self.partitioned,
                &*self.partition_chs,
                &self.overlay,
                &self.overlay_ch,
                s,
                t,
            )
        })
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(NChPSession {
            view: self,
            scratch: self.searcher.checkout(),
        })
    }

    fn graph(&self) -> &Graph {
        &self.partitioned.graph
    }

    fn index_size_bytes(&self) -> usize {
        self.partition_chs
            .iter()
            .map(|c| c.index_size_bytes())
            .sum::<usize>()
            + self.overlay_ch.index_size_bytes()
    }
}

/// Per-thread N-CH-P session: owns one pooled [`PchSearcher`].
struct NChPSession<'a> {
    view: &'a NChPView,
    scratch: ScratchGuard<'a, PchSearcher>,
}

impl QuerySession for NChPSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.scratch.distance(
            &self.view.partitioned,
            &*self.view.partition_chs,
            &self.view.overlay,
            &self.view.overlay_ch,
            s,
            t,
        )
    }
}

/// N-CH-P: no-boundary PSP index over DCH (write half).
pub struct NChP {
    partitioned: Arc<Partitioned>,
    partition_chs: Arc<Vec<ContractionHierarchy>>,
    overlay: Arc<OverlayGraph>,
    overlay_ch: Arc<ContractionHierarchy>,
    searcher: Arc<ScratchPool<PchSearcher>>,
}

impl NChP {
    /// Builds N-CH-P over `graph` with `k` partitions, the per-partition
    /// hierarchies constructed concurrently on `pool`. Identical result at
    /// any thread count.
    pub fn build(graph: &Graph, k: usize, seed: u64, pool: &WorkerPool) -> Self {
        let OverlayMaintainer {
            partitioned,
            hierarchies: partition_chs,
            overlay,
        } = OverlayMaintainer::build(
            graph.clone(),
            partition_region_growing(graph, k, seed),
            pool,
        );
        let overlay_ch = ContractionHierarchy::build(
            &overlay.graph,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let n = graph.num_vertices();
        NChP {
            partitioned: Arc::new(partitioned),
            partition_chs: Arc::new(partition_chs),
            overlay: Arc::new(overlay),
            overlay_ch: Arc::new(overlay_ch),
            searcher: Arc::new(ScratchPool::new(move || PchSearcher::new(n))),
        }
    }

    /// The partitioned view (for tests and experiments).
    pub fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }
}

impl IndexMaintainer for NChP {
    fn name(&self) -> &'static str {
        "N-CH-P"
    }

    fn apply_batch(
        &mut self,
        _graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let mut timeline = UpdateTimeline::default();
        let t0 = Instant::now();
        let routed = Arc::make_mut(&mut self.partitioned).apply_batch(batch);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        let t1 = Instant::now();
        let mut per_part = Vec::new();
        {
            let chs = Arc::make_mut(&mut self.partition_chs);
            for (i, ch) in chs.iter_mut().enumerate() {
                if routed.intra[i].is_empty() {
                    continue;
                }
                let changes = ch.apply_batch(
                    &self.partitioned.subgraphs[i].graph,
                    routed.intra[i].as_slice(),
                );
                per_part.push((i, changes));
            }
        }
        let overlay_batch = Arc::make_mut(&mut self.overlay).apply_changes(
            &self.partitioned,
            &routed.inter,
            &per_part,
        );
        Arc::make_mut(&mut self.overlay_ch)
            .apply_batch(&self.overlay.graph, overlay_batch.as_slice());
        publisher.publish(self.current_view());
        timeline.push("U2: no-boundary shortcut update", t1.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(NChPView {
            partitioned: Arc::clone(&self.partitioned),
            partition_chs: Arc::clone(&self.partition_chs),
            overlay: Arc::clone(&self.overlay),
            overlay_ch: Arc::clone(&self.overlay_ch),
            searcher: Arc::clone(&self.searcher),
        })
    }

    fn index_size_bytes(&self) -> usize {
        self.partition_chs
            .iter()
            .map(|c| c.index_size_bytes())
            .sum::<usize>()
            + self.overlay_ch.index_size_bytes()
    }
}

/// Immutable P-TD-P snapshot.
pub struct PTdPView {
    partitioned: Arc<Partitioned>,
    partition_chs: Arc<Vec<ContractionHierarchy>>,
    overlay: Arc<OverlayGraph>,
    overlay_index: Arc<H2HIndex>,
    post: Arc<PostBoundaryIndexes>,
}

impl PTdPView {
    /// Distance from a vertex to a boundary vertex of its own partition using
    /// `L'_i` (both global ids).
    fn to_boundary(&self, v: VertexId) -> Vec<(VertexId, Dist)> {
        if self.partitioned.partition.is_boundary(v) {
            return vec![(v, Dist::ZERO)];
        }
        let pi = self.partitioned.partition.partition_of(v);
        let sub = &self.partitioned.subgraphs[pi];
        let lv = sub.to_local(v).expect("vertex must be in its partition");
        sub.boundary_local
            .iter()
            .map(|&lb| {
                (
                    sub.to_global(lb),
                    self.post.distance_to_boundary(pi, lv, lb),
                )
            })
            .collect()
    }

    /// Cross-partition distance to `t` given the precomputed boundary labels
    /// `from_s` of the source — the `L'_i` ∘ `L̃` ∘ `L'_j` concatenation.
    /// Sessions compute `from_s` once per source and reuse it across a whole
    /// target set.
    fn cross_distance(&self, from_s: &[(VertexId, Dist)], t: VertexId) -> Dist {
        let from_t = self.to_boundary(t);
        let mut best = INF;
        for &(bp, dp) in from_s {
            if dp.is_inf() {
                continue;
            }
            let lbp = match self.overlay.to_local(bp) {
                Some(l) => l,
                None => continue,
            };
            for &(bq, dq) in &from_t {
                if dq.is_inf() {
                    continue;
                }
                let mid = if bp == bq {
                    Dist::ZERO
                } else {
                    match self.overlay.to_local(bq) {
                        Some(lbq) => self.overlay_index.distance(lbp, lbq),
                        None => INF,
                    }
                };
                let cand = dp.saturating_add(mid).saturating_add(dq);
                if cand < best {
                    best = cand;
                }
            }
        }
        best
    }
}

/// Per-thread P-TD-P session: label lookups need no scratch, but the session
/// caches the source-side boundary labels (`L'_i(s)`) so a one-to-many or
/// matrix row computes them once instead of once per target.
struct PTdPSession<'a> {
    view: &'a PTdPView,
    /// `(source, its boundary labels)` of the most recent cross-partition
    /// source, reused while the source stays the same.
    source: Option<(VertexId, Vec<(VertexId, Dist)>)>,
}

impl PTdPSession<'_> {
    fn boundary_of(&mut self, s: VertexId) -> &[(VertexId, Dist)] {
        if self.source.as_ref().map(|(v, _)| *v) != Some(s) {
            self.source = Some((s, self.view.to_boundary(s)));
        }
        &self.source.as_ref().expect("just set").1
    }
}

impl QuerySession for PTdPSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        if self.view.partitioned.partition.same_partition(s, t) {
            let pi = self.view.partitioned.partition.partition_of(s);
            return self
                .view
                .post
                .same_partition_distance(&self.view.partitioned, pi, s, t);
        }
        let view = self.view;
        view.cross_distance(self.boundary_of(s), t)
    }
}

impl QueryView for PTdPView {
    fn algorithm(&self) -> &'static str {
        "P-TD-P"
    }

    fn stage(&self) -> usize {
        0
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        if self.partitioned.partition.same_partition(s, t) {
            let pi = self.partitioned.partition.partition_of(s);
            return self
                .post
                .same_partition_distance(&self.partitioned, pi, s, t);
        }
        // Cross-partition: concatenate L'_i, L̃, L'_j.
        self.cross_distance(&self.to_boundary(s), t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(PTdPSession {
            view: self,
            source: None,
        })
    }

    fn graph(&self) -> &Graph {
        &self.partitioned.graph
    }

    fn index_size_bytes(&self) -> usize {
        self.partition_chs
            .iter()
            .map(|c| c.index_size_bytes())
            .sum::<usize>()
            + self.overlay_index.index_size_bytes()
            + self.post.index_size_bytes()
    }
}

/// P-TD-P: post-boundary PSP index over DH2H (write half).
pub struct PTdP {
    partitioned: Arc<Partitioned>,
    partition_chs: Arc<Vec<ContractionHierarchy>>,
    overlay: Arc<OverlayGraph>,
    overlay_index: Arc<H2HIndex>,
    post: Arc<PostBoundaryIndexes>,
}

impl PTdP {
    /// Builds P-TD-P over `graph` with `k` partitions, the per-partition
    /// hierarchies and extended-partition indexes constructed concurrently on
    /// `pool`. Identical result at any thread count.
    pub fn build(graph: &Graph, k: usize, seed: u64, pool: &WorkerPool) -> Self {
        let OverlayMaintainer {
            partitioned,
            hierarchies: partition_chs,
            overlay,
        } = OverlayMaintainer::build(
            graph.clone(),
            partition_region_growing(graph, k, seed),
            pool,
        );
        let overlay_index = H2HIndex::build(&overlay.graph);
        let post = PostBoundaryIndexes::build(&partitioned, &overlay, &overlay_index, pool);
        PTdP {
            partitioned: Arc::new(partitioned),
            partition_chs: Arc::new(partition_chs),
            overlay: Arc::new(overlay),
            overlay_index: Arc::new(overlay_index),
            post: Arc::new(post),
        }
    }

    /// The partitioned view (for tests and experiments).
    pub fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }
}

impl IndexMaintainer for PTdP {
    fn name(&self) -> &'static str {
        "P-TD-P"
    }

    fn apply_batch(
        &mut self,
        _graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let mut timeline = UpdateTimeline::default();
        let t0 = Instant::now();
        let routed = Arc::make_mut(&mut self.partitioned).apply_batch(batch);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        // No-boundary shortcut + overlay label update (steps 1-3 of the
        // post-boundary update procedure, Fig. 16).
        let t1 = Instant::now();
        let mut per_part = Vec::new();
        {
            let chs = Arc::make_mut(&mut self.partition_chs);
            for (i, ch) in chs.iter_mut().enumerate() {
                if routed.intra[i].is_empty() {
                    continue;
                }
                let changes = ch.apply_batch(
                    &self.partitioned.subgraphs[i].graph,
                    routed.intra[i].as_slice(),
                );
                per_part.push((i, changes));
            }
        }
        let overlay_batch = Arc::make_mut(&mut self.overlay).apply_changes(
            &self.partitioned,
            &routed.inter,
            &per_part,
        );
        Arc::make_mut(&mut self.overlay_index)
            .apply_batch(&self.overlay.graph, overlay_batch.as_slice());
        timeline.push("U2-3: overlay update", t1.elapsed());

        // Post-boundary index update (steps 4-5).
        let t2 = Instant::now();
        Arc::make_mut(&mut self.post).update(
            &self.partitioned,
            &self.overlay,
            &self.overlay_index,
            &routed.intra,
        );
        publisher.publish(self.current_view());
        timeline.push("U4: post-boundary index update", t2.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(PTdPView {
            partitioned: Arc::clone(&self.partitioned),
            partition_chs: Arc::clone(&self.partition_chs),
            overlay: Arc::clone(&self.overlay),
            overlay_index: Arc::clone(&self.overlay_index),
            post: Arc::clone(&self.post),
        })
    }

    fn index_size_bytes(&self) -> usize {
        self.partition_chs
            .iter()
            .map(|c| c.index_size_bytes())
            .sum::<usize>()
            + self.overlay_index.index_size_bytes()
            + self.post.index_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    fn check<I: IndexMaintainer>(idx: &I, g: &Graph, count: usize, seed: u64) {
        let qs = QuerySet::random(g, count, seed);
        let view = idx.current_view();
        for q in &qs {
            assert_eq!(
                view.distance(q.source, q.target),
                dijkstra_distance(g, q.source, q.target),
                "{} mismatch for {:?}",
                idx.name(),
                q
            );
        }
    }

    #[test]
    fn nchp_exact_before_and_after_updates() {
        let mut g = grid(9, 9, WeightRange::new(1, 20), 31);
        let mut idx = NChP::build(&g, 4, 1, &WorkerPool::sequential());
        check(&idx, &g, 120, 3);
        let mut gen = UpdateGenerator::new(5);
        for round in 0..2 {
            let batch = gen.generate(&g, 20);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(idx.current_view());
            let timeline = idx.apply_batch(&g, &batch, &publisher);
            assert!(timeline.stages.len() >= 2);
            assert_eq!(publisher.version(), 1);
            check(&idx, &g, 80, 10 + round);
        }
    }

    #[test]
    fn ptdp_exact_before_and_after_updates() {
        let mut g = grid(9, 9, WeightRange::new(1, 20), 37);
        let mut idx = PTdP::build(&g, 4, 2, &WorkerPool::sequential());
        check(&idx, &g, 120, 4);
        let mut gen = UpdateGenerator::new(6);
        for round in 0..2 {
            let batch = gen.generate(&g, 20);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(idx.current_view());
            let timeline = idx.apply_batch(&g, &batch, &publisher);
            assert!(timeline.total().as_nanos() > 0);
            assert_eq!(publisher.version(), 1);
            check(&idx, &g, 80, 20 + round);
        }
    }

    #[test]
    fn index_sizes_reported() {
        let g = grid(8, 8, WeightRange::new(1, 9), 3);
        let nchp = NChP::build(&g, 4, 1, &WorkerPool::sequential());
        let ptdp = PTdP::build(&g, 4, 1, &WorkerPool::sequential());
        assert!(IndexMaintainer::index_size_bytes(&nchp) > 0);
        // P-TD-P additionally stores labels, so it is the larger index.
        assert!(
            IndexMaintainer::index_size_bytes(&ptdp) > IndexMaintainer::index_size_bytes(&nchp)
        );
    }
}
