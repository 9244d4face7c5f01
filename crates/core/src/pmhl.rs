//! PMHL: Partitioned Multi-stage Hub Labeling (§V).
//!
//! PMHL maintains, over a planar partition of the road network:
//!
//! * the **no-boundary** indexes `{L_i}` (one MHL per partition, boundary-first
//!   local order) and the overlay MHL `L̃`;
//! * the **post-boundary** indexes `{L'_i}` over the extended partitions;
//! * the **cross-boundary** index `L*`.
//!
//! After every update batch the five update stages of Figure 7 run in order,
//! each publishing a faster query-stage snapshot: BiDijkstra → partitioned CH
//! → no-boundary → post-boundary → cross-boundary. Per-partition work inside
//! U-Stages 2 and 3 runs on a configurable number of threads, which is the
//! lever behind the thread-scaling experiment (Fig. 15).
//!
//! Every stage is a query the repository already has, so every snapshot is
//! an existing view type: [`BiDijkstraView`] from `htsp-baselines`, then
//! N-CH-P's [`PchView`], the [`NoBoundaryView`], P-TD-P's
//! [`PostBoundaryView`] and the [`CrossBoundaryView`] from `htsp-psp`.

use htsp_baselines::{bidijkstra_pool, BiDijkstraView};
use htsp_ch::ContractionHierarchy;
use htsp_graph::cow::{CowStats, CowVec};
use htsp_graph::{
    Graph, IndexMaintainer, QueryView, ScratchPool, SnapshotPublisher, UpdateBatch, UpdateTimeline,
    VertexId, WorkerPool,
};
use htsp_partition::partition_region_growing;
use htsp_psp::{
    CrossBoundaryIndex, CrossBoundaryView, NoBoundaryView, OverlayGraph, PartitionIndex,
    Partitioned, PchSearcher, PchView, PostBoundaryIndexes, PostBoundaryView,
};
use htsp_search::BiDijkstra;
use htsp_td::H2HIndex;
use std::sync::Arc;
use std::time::Instant;

/// PMHL construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct PmhlConfig {
    /// Number of partitions `k` (Exp. 1 sweeps this).
    pub num_partitions: usize,
    /// Number of worker threads for partition-parallel maintenance.
    pub num_threads: usize,
    /// Partitioner seed.
    pub seed: u64,
}

impl Default for PmhlConfig {
    fn default() -> Self {
        PmhlConfig {
            num_partitions: 8,
            num_threads: 4,
            seed: 1,
        }
    }
}

/// The query stage currently available (fastest machinery consistent with the
/// latest batch).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PmhlStage {
    /// Q-Stage 1: index-free BiDijkstra.
    BiDijkstra,
    /// Q-Stage 2: partitioned CH search on the union shortcut arrays.
    Pch,
    /// Q-Stage 3: no-boundary query (concatenation).
    NoBoundary,
    /// Q-Stage 4: post-boundary query (same-partition via `L'_i`).
    PostBoundary,
    /// Q-Stage 5: cross-boundary query (2-hop, no concatenation).
    CrossBoundary,
}

impl PmhlStage {
    fn index(self) -> usize {
        match self {
            PmhlStage::BiDijkstra => 0,
            PmhlStage::Pch => 1,
            PmhlStage::NoBoundary => 2,
            PmhlStage::PostBoundary => 3,
            PmhlStage::CrossBoundary => 4,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => PmhlStage::BiDijkstra,
            1 => PmhlStage::Pch,
            2 => PmhlStage::NoBoundary,
            3 => PmhlStage::PostBoundary,
            _ => PmhlStage::CrossBoundary,
        }
    }
}

/// The Partitioned Multi-stage Hub Labeling index (write half).
pub struct Pmhl {
    config: PmhlConfig,
    partitioned: Arc<Partitioned>,
    /// One chunk per partition: snapshots share untouched partitions, and a
    /// maintenance round clones only the partitions its batch actually
    /// routes updates into (each clone itself shallow — the partition's
    /// label/shortcut tables are chunked copy-on-write inside `H2HIndex`).
    partition_indexes: CowVec<PartitionIndex>,
    overlay: Arc<OverlayGraph>,
    overlay_index: Arc<H2HIndex>,
    post: Arc<PostBoundaryIndexes>,
    cross: Arc<CrossBoundaryIndex>,
    bidij: Arc<ScratchPool<BiDijkstra>>,
    pch: Arc<ScratchPool<PchSearcher>>,
    stage: PmhlStage,
}

impl Pmhl {
    /// Builds PMHL over `graph` (Algorithm 3: partition, boundary-first order,
    /// no-boundary → post-boundary → cross-boundary construction), with the
    /// per-partition and post-boundary stages fanned out over `pool`.
    /// Identical result at any thread count.
    pub fn build(graph: &Graph, config: PmhlConfig, pool: &WorkerPool) -> Self {
        let pr = partition_region_growing(graph, config.num_partitions, config.seed);
        let partitioned = Partitioned::build(graph.clone(), pr);
        // Steps 1-3: no-boundary index {L_i} and overlay index L̃. Each L_i
        // depends only on its own subgraph, so partitions build concurrently.
        let partition_indexes: Vec<PartitionIndex> =
            pool.run("pmhl_partition_index", partitioned.subgraphs.len(), |i| {
                PartitionIndex::build(&partitioned.subgraphs[i])
            });
        let chs: Vec<&ContractionHierarchy> =
            partition_indexes.iter().map(|p| p.hierarchy()).collect();
        let overlay = OverlayGraph::build(&partitioned, &chs);
        let overlay_index = H2HIndex::build(&overlay.graph);
        // Steps 4-5: post-boundary indexes {L'_i}.
        let post = PostBoundaryIndexes::build(&partitioned, &overlay, &overlay_index, pool);
        // Step 6: cross-boundary index L*.
        let cross = CrossBoundaryIndex::build(&partitioned, &overlay, &overlay_index, &post);
        let n = graph.num_vertices();
        Pmhl {
            config,
            partitioned: Arc::new(partitioned),
            partition_indexes: CowVec::from_vec(partition_indexes, 1),
            overlay: Arc::new(overlay),
            overlay_index: Arc::new(overlay_index),
            post: Arc::new(post),
            cross: Arc::new(cross),
            bidij: bidijkstra_pool(n),
            pch: Arc::new(ScratchPool::new(move || PchSearcher::new(n))),
            stage: PmhlStage::CrossBoundary,
        }
    }

    /// The currently available query stage.
    pub fn stage(&self) -> PmhlStage {
        self.stage
    }

    /// Number of boundary vertices `|B|` (reported by Exp. 1).
    pub fn num_boundary(&self) -> usize {
        self.partitioned.partition.num_boundary()
    }

    /// The partition layout.
    pub fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }

    /// Cumulative copy-on-write clone effort across every mutable component
    /// (partition indexes and their tables, overlay labels, post-boundary
    /// partitions, cross-boundary labels). Per-stage deltas of this figure
    /// are published with every snapshot.
    pub fn cow_stats(&self) -> CowStats {
        let per_partition = self
            .partition_indexes
            .iter()
            .fold(self.partition_indexes.stats(), |acc, p| {
                acc.plus(p.cow_stats())
            });
        per_partition
            .plus(self.overlay_index.cow_stats())
            .plus(self.post.cow_stats())
            .plus(self.cross.cow_stats())
    }

    fn view_with(&self, at: PmhlStage) -> Arc<dyn QueryView> {
        let (algorithm, stage) = ("PMHL", at.index());
        let partitioned = Arc::clone(&self.partitioned);
        match at {
            PmhlStage::BiDijkstra => Arc::new(BiDijkstraView {
                algorithm,
                stage,
                graph: partitioned,
                scratch: Arc::clone(&self.bidij),
            }),
            // The overlay's shortcut arrays are its decomposition's: the view
            // pins those, not the overlay labels U3 repairs.
            PmhlStage::Pch => Arc::new(PchView {
                algorithm,
                stage,
                partitioned,
                partition_chs: self.partition_indexes.clone(),
                overlay: Arc::clone(&self.overlay),
                overlay_ch: Arc::new(self.overlay_index.decomposition().clone()),
                searcher: Arc::clone(&self.pch),
            }),
            PmhlStage::NoBoundary => Arc::new(NoBoundaryView {
                algorithm,
                stage,
                partitioned,
                partition_indexes: self.partition_indexes.clone(),
                overlay: Arc::clone(&self.overlay),
                overlay_index: Arc::clone(&self.overlay_index),
            }),
            PmhlStage::PostBoundary => Arc::new(PostBoundaryView {
                algorithm,
                stage,
                partitioned,
                overlay: Arc::clone(&self.overlay),
                overlay_index: Arc::clone(&self.overlay_index),
                post: Arc::clone(&self.post),
            }),
            PmhlStage::CrossBoundary => Arc::new(CrossBoundaryView {
                algorithm,
                stage,
                partitioned,
                post: Arc::clone(&self.post),
                cross: Arc::clone(&self.cross),
            }),
        }
    }
}

impl IndexMaintainer for Pmhl {
    fn name(&self) -> &'static str {
        "PMHL"
    }

    fn num_query_stages(&self) -> usize {
        5
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let pool = WorkerPool::new(self.config.num_threads);
        let mut timeline = UpdateTimeline::default();
        // Per-stage clone telemetry: every publication carries the chunks /
        // bytes this stage actually copy-on-wrote.
        let mut cow_mark = self.cow_stats();
        let mut publish = |this: &Pmhl, stage: PmhlStage, publisher: &SnapshotPublisher| {
            let now = this.cow_stats();
            publisher.publish_with_cow(this.view_with(stage), now.since(cow_mark));
            cow_mark = now;
        };

        // U-Stage 1: on-spot edge update: the feed's graph becomes the
        // global graph and the batch goes into the per-partition copies.
        let t0 = Instant::now();
        let routed = Arc::make_mut(&mut self.partitioned).apply_batch(graph, batch);
        self.stage = PmhlStage::BiDijkstra;
        publish(self, PmhlStage::BiDijkstra, publisher);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        // U-Stage 2: no-boundary shortcut update — the affected partitions
        // shared out over the worker threads, then the overlay shortcut
        // arrays. Each task repairs its own copy of a partition index (a
        // chunk-spine clone) and the copies go back in partition order; the
        // untouched partitions stay shared with the outstanding snapshots.
        let t1 = Instant::now();
        let affected = routed.affected_partitions();
        let repaired = pool.run("pmhl_u2", affected.len(), |k| {
            let i = affected[k];
            let mut index = self.partition_indexes[i].clone();
            let changes = index.h2h.update_shortcuts(
                &self.partitioned.subgraphs[i].graph,
                routed.intra[i].as_slice(),
            );
            (index, changes)
        });
        let mut per_part = Vec::with_capacity(affected.len());
        for (&i, (index, changes)) in affected.iter().zip(repaired) {
            *self.partition_indexes.make_mut(i) = index;
            per_part.push((i, changes));
        }
        let overlay_batch = Arc::make_mut(&mut self.overlay).apply_changes(
            &self.partitioned,
            &routed.inter,
            &per_part,
        );
        let overlay_sc_changes = Arc::make_mut(&mut self.overlay_index)
            .update_shortcuts(&self.overlay.graph, overlay_batch.as_slice());
        self.stage = PmhlStage::Pch;
        publish(self, PmhlStage::Pch, publisher);
        timeline.push("U2: no-boundary shortcut update", t1.elapsed());

        // U-Stage 3: no-boundary label update — the partitions with shortcut
        // changes in parallel, the same way, then the overlay labels.
        let t2 = Instant::now();
        let relabel: Vec<(usize, Vec<VertexId>)> = per_part
            .iter()
            .filter(|(_, changes)| !changes.is_empty())
            .map(|(i, changes)| (*i, changes.iter().map(|c| c.from).collect()))
            .collect();
        let relabeled = pool.run("pmhl_u3", relabel.len(), |k| {
            let (i, changed) = &relabel[k];
            let mut index = self.partition_indexes[*i].clone();
            index.h2h.update_labels_for(changed);
            index
        });
        for ((i, _), index) in relabel.iter().zip(relabeled) {
            *self.partition_indexes.make_mut(*i) = index;
        }
        let overlay_changed_sc: Vec<VertexId> = overlay_sc_changes.iter().map(|c| c.from).collect();
        let (overlay_label_changed, _) =
            Arc::make_mut(&mut self.overlay_index).update_labels_for(&overlay_changed_sc);
        self.stage = PmhlStage::NoBoundary;
        publish(self, PmhlStage::NoBoundary, publisher);
        timeline.push("U3: no-boundary label update", t2.elapsed());

        // U-Stage 4: post-boundary index update.
        let t3 = Instant::now();
        let (post_changed, _) = Arc::make_mut(&mut self.post).update(
            &self.partitioned,
            &self.overlay,
            &self.overlay_index,
            &routed.intra,
        );
        self.stage = PmhlStage::PostBoundary;
        publish(self, PmhlStage::PostBoundary, publisher);
        timeline.push("U4: post-boundary index update", t3.elapsed());

        // U-Stage 5: cross-boundary index update.
        let t4 = Instant::now();
        Arc::make_mut(&mut self.cross).update(
            &self.partitioned,
            &self.overlay,
            &self.overlay_index,
            &self.post,
            &overlay_label_changed,
            &post_changed,
        );
        self.stage = PmhlStage::CrossBoundary;
        publish(self, PmhlStage::CrossBoundary, publisher);
        timeline.push("U5: cross-boundary index update", t4.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        self.view_with(self.stage)
    }

    fn view_at_stage(&self, stage: usize) -> Arc<dyn QueryView> {
        self.view_with(PmhlStage::from_index(stage))
    }

    fn index_size_bytes(&self) -> usize {
        self.partition_indexes
            .iter()
            .map(|p| p.index_size_bytes())
            .sum::<usize>()
            + self.overlay_index.index_size_bytes()
            + self.post.index_size_bytes()
            + self.cross.index_size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    fn check_all_stages(pmhl: &Pmhl, g: &Graph, count: usize, seed: u64) {
        let qs = QuerySet::random(g, count, seed);
        for q in &qs {
            let expect = dijkstra_distance(g, q.source, q.target);
            for stage in 0..5 {
                assert_eq!(
                    pmhl.view_at_stage(stage).distance(q.source, q.target),
                    expect,
                    "PMHL stage {stage} mismatch for {:?}",
                    q
                );
            }
        }
    }

    #[test]
    fn freshly_built_pmhl_is_exact_at_every_stage() {
        let g = grid(9, 9, WeightRange::new(1, 20), 41);
        let pmhl = Pmhl::build(
            &g,
            PmhlConfig {
                num_partitions: 4,
                num_threads: 2,
                seed: 3,
            },
            &WorkerPool::sequential(),
        );
        assert_eq!(pmhl.stage(), PmhlStage::CrossBoundary);
        assert_eq!(pmhl.num_query_stages(), 5);
        assert!(IndexMaintainer::index_size_bytes(&pmhl) > 0);
        assert!(pmhl.num_boundary() > 0);
        check_all_stages(&pmhl, &g, 60, 5);
    }

    #[test]
    fn pmhl_stays_exact_across_update_batches() {
        let mut g = grid(9, 9, WeightRange::new(5, 40), 43);
        let mut pmhl = Pmhl::build(
            &g,
            PmhlConfig {
                num_partitions: 4,
                num_threads: 2,
                seed: 7,
            },
            &WorkerPool::sequential(),
        );
        let mut gen = UpdateGenerator::new(11);
        for round in 0..3 {
            let batch = gen.generate(&g, 20);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(pmhl.current_view());
            let timeline = pmhl.apply_batch(&g, &batch, &publisher);
            assert_eq!(timeline.stages.len(), 5, "five update stages expected");
            assert_eq!(pmhl.stage(), PmhlStage::CrossBoundary);
            // Each of the five stages published its snapshot.
            let log = publisher.take_log();
            assert_eq!(log.len(), 5);
            assert_eq!(log.last().unwrap().stage, 4);
            check_all_stages(&pmhl, &g, 40, 100 + round);
        }
    }

    #[test]
    fn single_threaded_and_multi_threaded_agree() {
        let mut g1 = grid(8, 8, WeightRange::new(5, 30), 47);
        let mut g2 = g1.clone();
        let mut a = Pmhl::build(
            &g1,
            PmhlConfig {
                num_partitions: 4,
                num_threads: 1,
                seed: 5,
            },
            &WorkerPool::sequential(),
        );
        let mut b = Pmhl::build(
            &g2,
            PmhlConfig {
                num_partitions: 4,
                num_threads: 4,
                seed: 5,
            },
            &WorkerPool::sequential(),
        );
        let mut gen1 = UpdateGenerator::new(13);
        let mut gen2 = UpdateGenerator::new(13);
        let batch1 = gen1.generate(&g1, 15);
        let batch2 = gen2.generate(&g2, 15);
        g1.apply_batch(&batch1);
        g2.apply_batch(&batch2);
        let pub_a = SnapshotPublisher::new(a.current_view());
        let pub_b = SnapshotPublisher::new(b.current_view());
        a.apply_batch(&g1, &batch1, &pub_a);
        b.apply_batch(&g2, &batch2, &pub_b);
        let va = a.current_view();
        let vb = b.current_view();
        let qs = QuerySet::random(&g1, 50, 9);
        for q in &qs {
            assert_eq!(
                va.distance(q.source, q.target),
                vb.distance(q.source, q.target)
            );
        }
    }
}
