//! The PSP baselines of the paper's evaluation (§VII-A):
//!
//! * [`NChP`] — *N-CH-P* \[35\]: the update-oriented no-boundary PSP index with
//!   DCH as the underlying index. Maintenance only repairs shortcut arrays;
//!   queries run the Partitioned-CH upward search ([`PchView`]).
//! * [`PTdP`] — *P-TD-P* \[35\]: the query-oriented post-boundary PSP index with
//!   DH2H as the underlying index. Same-partition queries use the corrected
//!   partition labels `L'_i`; cross-partition queries concatenate
//!   `L'_i`, `L̃`, and `L'_j` through the boundary vertices
//!   ([`PostBoundaryView`]).
//!
//! Both keep their partitions, partition hierarchies and overlay in one
//! [`OverlayMaintainer`], and both are single-stage: one snapshot is
//! published per batch, when the repair completes.

use crate::overlay::OverlayMaintainer;
use crate::partitioned::Partitioned;
use crate::pch::{PchSearcher, PchView};
use crate::post_boundary::{PostBoundaryIndexes, PostBoundaryView};
use htsp_ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode};
use htsp_graph::cow::CowStats;
use htsp_graph::{
    Graph, IndexMaintainer, QueryView, ScratchPool, SnapshotPublisher, UpdateBatch, UpdateTimeline,
    WorkerPool,
};
use htsp_partition::partition_region_growing;
use htsp_td::H2HIndex;
use std::sync::Arc;
use std::time::Instant;

/// Total index bytes of the partition hierarchies.
fn hierarchy_bytes(core: &OverlayMaintainer) -> usize {
    core.hierarchies.iter().map(|c| c.index_size_bytes()).sum()
}

/// N-CH-P: no-boundary PSP index over DCH (write half).
pub struct NChP {
    core: OverlayMaintainer,
    overlay_ch: Arc<ContractionHierarchy>,
    searcher: Arc<ScratchPool<PchSearcher>>,
}

impl NChP {
    /// Builds N-CH-P over `graph` with `k` partitions, the per-partition
    /// hierarchies constructed concurrently on `pool`. Identical result at
    /// any thread count.
    pub fn build(graph: &Graph, k: usize, seed: u64, pool: &WorkerPool) -> Self {
        let core = OverlayMaintainer::build(
            graph.clone(),
            partition_region_growing(graph, k, seed),
            pool,
        );
        let overlay_ch = ContractionHierarchy::build(
            &core.overlay.graph,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
        );
        let n = graph.num_vertices();
        NChP {
            core,
            overlay_ch: Arc::new(overlay_ch),
            searcher: Arc::new(ScratchPool::new(move || PchSearcher::new(n))),
        }
    }

    /// The partitioned view (for tests and experiments).
    pub fn partitioned(&self) -> &Partitioned {
        &self.core.partitioned
    }

    /// Cumulative copy-on-write clone effort of the partition hierarchies
    /// and the overlay hierarchy. Each publication carries its delta.
    pub fn cow_stats(&self) -> CowStats {
        self.core.cow_stats().plus(self.overlay_ch.cow_stats())
    }
}

impl IndexMaintainer for NChP {
    fn name(&self) -> &'static str {
        "N-CH-P"
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let mut timeline = UpdateTimeline::default();
        let cow_mark = self.cow_stats();
        let t0 = Instant::now();
        let routed = self.core.route(graph, batch);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        let t1 = Instant::now();
        let overlay_batch = self.core.repair(&routed);
        Arc::make_mut(&mut self.overlay_ch)
            .apply_batch(&self.core.overlay.graph, overlay_batch.as_slice());
        publisher.publish_with_cow(self.current_view(), self.cow_stats().since(cow_mark));
        timeline.push("U2: no-boundary shortcut update", t1.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(PchView {
            algorithm: "N-CH-P",
            stage: 0,
            partitioned: Arc::clone(&self.core.partitioned),
            partition_chs: self.core.hierarchies.clone(),
            overlay: Arc::clone(&self.core.overlay),
            overlay_ch: Arc::clone(&self.overlay_ch),
            searcher: Arc::clone(&self.searcher),
        })
    }

    fn index_size_bytes(&self) -> usize {
        hierarchy_bytes(&self.core) + self.overlay_ch.index_size_bytes()
    }
}

/// P-TD-P: post-boundary PSP index over DH2H (write half).
pub struct PTdP {
    core: OverlayMaintainer,
    overlay_index: Arc<H2HIndex>,
    post: Arc<PostBoundaryIndexes>,
}

impl PTdP {
    /// Builds P-TD-P over `graph` with `k` partitions, the per-partition
    /// hierarchies and extended-partition indexes constructed concurrently on
    /// `pool`. Identical result at any thread count.
    pub fn build(graph: &Graph, k: usize, seed: u64, pool: &WorkerPool) -> Self {
        let core = OverlayMaintainer::build(
            graph.clone(),
            partition_region_growing(graph, k, seed),
            pool,
        );
        let overlay_index = H2HIndex::build(&core.overlay.graph);
        let post =
            PostBoundaryIndexes::build(&core.partitioned, &core.overlay, &overlay_index, pool);
        PTdP {
            core,
            overlay_index: Arc::new(overlay_index),
            post: Arc::new(post),
        }
    }

    /// The partitioned view (for tests and experiments).
    pub fn partitioned(&self) -> &Partitioned {
        &self.core.partitioned
    }

    /// Cumulative copy-on-write clone effort of the partition hierarchies,
    /// the overlay labels and the post-boundary indexes. Each publication
    /// carries its delta.
    pub fn cow_stats(&self) -> CowStats {
        self.core
            .cow_stats()
            .plus(self.overlay_index.cow_stats())
            .plus(self.post.cow_stats())
    }
}

impl IndexMaintainer for PTdP {
    fn name(&self) -> &'static str {
        "P-TD-P"
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let mut timeline = UpdateTimeline::default();
        let cow_mark = self.cow_stats();
        let t0 = Instant::now();
        let routed = self.core.route(graph, batch);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        // No-boundary shortcut + overlay label update (steps 1-3 of the
        // post-boundary update procedure, Fig. 16).
        let t1 = Instant::now();
        let overlay_batch = self.core.repair(&routed);
        Arc::make_mut(&mut self.overlay_index)
            .apply_batch(&self.core.overlay.graph, overlay_batch.as_slice());
        timeline.push("U2-3: overlay update", t1.elapsed());

        // Post-boundary index update (steps 4-5).
        let t2 = Instant::now();
        Arc::make_mut(&mut self.post).update(
            &self.core.partitioned,
            &self.core.overlay,
            &self.overlay_index,
            &routed.intra,
        );
        publisher.publish_with_cow(self.current_view(), self.cow_stats().since(cow_mark));
        timeline.push("U4: post-boundary index update", t2.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(PostBoundaryView {
            algorithm: "P-TD-P",
            stage: 0,
            partitioned: Arc::clone(&self.core.partitioned),
            overlay: Arc::clone(&self.core.overlay),
            overlay_index: Arc::clone(&self.overlay_index),
            post: Arc::clone(&self.post),
        })
    }

    fn index_size_bytes(&self) -> usize {
        hierarchy_bytes(&self.core)
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
