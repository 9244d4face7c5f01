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

use htsp_ch::{ContractionHierarchy, ShortcutChange};
use htsp_graph::cow::{CowStats, CowVec};
use htsp_graph::{
    Dist, FallbackSession, Graph, IndexMaintainer, QuerySession, QueryView, ScratchGuard,
    ScratchPool, SnapshotPublisher, UpdateBatch, UpdateTimeline, VertexId, WorkerPool, INF,
};
use htsp_partition::partition_region_growing;
use htsp_psp::{
    no_boundary::no_boundary_distance, CrossBoundaryIndex, OverlayGraph, PartitionIndex,
    Partitioned, PchSearcher, PostBoundaryIndexes,
};
use htsp_search::{BiDijkstra, BiDijkstraSession};
use htsp_td::H2HIndex;
use std::sync::{Arc, Mutex};
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

/// Immutable PMHL snapshot: the index components frozen at one graph version,
/// answering with the machinery of one query stage.
pub struct PmhlView {
    partitioned: Arc<Partitioned>,
    stage: PmhlStage,
    /// Only the components this view's stage actually reads are pinned —
    /// anything else would force the maintainer's next `Arc::make_mut` into
    /// a needless deep clone while this snapshot is current.
    parts: StageParts,
}

/// The per-stage component set of a [`PmhlView`].
enum StageParts {
    BiDijkstra {
        bidij: Arc<ScratchPool<BiDijkstra>>,
    },
    Pch {
        partition_indexes: CowVec<PartitionIndex>,
        overlay: Arc<OverlayGraph>,
        overlay_index: Arc<H2HIndex>,
        pch: Arc<ScratchPool<PchSearcher>>,
    },
    NoBoundary {
        partition_indexes: CowVec<PartitionIndex>,
        overlay: Arc<OverlayGraph>,
        overlay_index: Arc<H2HIndex>,
    },
    PostBoundary {
        post: Arc<PostBoundaryIndexes>,
        overlay: Arc<OverlayGraph>,
        overlay_index: Arc<H2HIndex>,
    },
    CrossBoundary {
        post: Arc<PostBoundaryIndexes>,
        cross: Arc<CrossBoundaryIndex>,
    },
}

/// The source-side boundary labels `L'_i(v)`: distance from `v` to each
/// boundary vertex of its partition (global ids). A session computes this
/// once per source and reuses it across a whole target set.
fn boundary_labels(
    partitioned: &Partitioned,
    post: &PostBoundaryIndexes,
    v: VertexId,
) -> Vec<(VertexId, Dist)> {
    if partitioned.partition.is_boundary(v) {
        return vec![(v, Dist::ZERO)];
    }
    let pi = partitioned.partition.partition_of(v);
    let sub = &partitioned.subgraphs[pi];
    let lv = sub.to_local(v).expect("vertex in its partition");
    sub.boundary_local
        .iter()
        .map(|&lb| (sub.to_global(lb), post.distance_to_boundary(pi, lv, lb)))
        .collect()
}

/// Cross-partition query by `L'_i`/`L\u0303`/`L'_j` concatenation (the
/// post-boundary cross-partition path, Q-Stage 4), with the source side
/// (`from_s`) precomputed by [`boundary_labels`].
fn cross_by_concatenation(
    partitioned: &Partitioned,
    post: &PostBoundaryIndexes,
    overlay: &OverlayGraph,
    overlay_index: &H2HIndex,
    from_s: &[(VertexId, Dist)],
    t: VertexId,
) -> Dist {
    let from_t = boundary_labels(partitioned, post, t);
    let mut best = INF;
    for &(bp, dp) in from_s {
        if dp.is_inf() {
            continue;
        }
        let lbp = match overlay.to_local(bp) {
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
                match overlay.to_local(bq) {
                    Some(lbq) => overlay_index.distance(lbp, lbq),
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

impl QueryView for PmhlView {
    fn algorithm(&self) -> &'static str {
        "PMHL"
    }

    fn stage(&self) -> usize {
        self.stage.index()
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        match &self.parts {
            StageParts::BiDijkstra { bidij } => {
                bidij.with(|b| b.distance(&self.partitioned.graph, s, t))
            }
            StageParts::Pch {
                partition_indexes,
                overlay,
                overlay_index,
                pch,
            } => {
                let overlay_h = overlay_index.decomposition().hierarchy();
                pch.with(|p| {
                    p.distance(
                        &self.partitioned,
                        partition_indexes,
                        overlay,
                        overlay_h,
                        s,
                        t,
                    )
                })
            }
            StageParts::NoBoundary {
                partition_indexes,
                overlay,
                overlay_index,
            } => no_boundary_distance(
                &self.partitioned,
                partition_indexes,
                overlay,
                overlay_index,
                s,
                t,
            ),
            StageParts::PostBoundary {
                post,
                overlay,
                overlay_index,
            } => {
                if self.partitioned.partition.same_partition(s, t) {
                    let pi = self.partitioned.partition.partition_of(s);
                    post.same_partition_distance(&self.partitioned, pi, s, t)
                } else {
                    let from_s = boundary_labels(&self.partitioned, post, s);
                    cross_by_concatenation(
                        &self.partitioned,
                        post,
                        overlay,
                        overlay_index,
                        &from_s,
                        t,
                    )
                }
            }
            StageParts::CrossBoundary { post, cross } => {
                if self.partitioned.partition.same_partition(s, t) {
                    let pi = self.partitioned.partition.partition_of(s);
                    post.same_partition_distance(&self.partitioned, pi, s, t)
                } else {
                    cross.cross_distance(s, t)
                }
            }
        }
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        match &self.parts {
            StageParts::BiDijkstra { bidij } => Box::new(BiDijkstraSession::new(
                &self.partitioned.graph,
                bidij.checkout(),
            )),
            StageParts::Pch {
                partition_indexes,
                overlay,
                overlay_index,
                pch,
            } => Box::new(PmhlPchSession {
                partitioned: &self.partitioned,
                partition_indexes,
                overlay,
                overlay_h: overlay_index.decomposition().hierarchy(),
                scratch: pch.checkout(),
            }),
            // Post-/cross-boundary stages answer from shared references
            // without scratch, but their sessions cache the source-side
            // work (partition lookup, `L'_i(s)` boundary labels) across a
            // one-to-many target set.
            StageParts::PostBoundary { .. } | StageParts::CrossBoundary { .. } => {
                Box::new(PmhlLabelSession {
                    view: self,
                    source: None,
                })
            }
            // The no-boundary stage is a pure concatenation lookup with no
            // hoistable source side.
            StageParts::NoBoundary { .. } => Box::new(FallbackSession::new(self)),
        }
    }

    fn graph(&self) -> &Graph {
        &self.partitioned.graph
    }

    fn index_size_bytes(&self) -> usize {
        // Footprint of the components this stage's machinery reads.
        match &self.parts {
            StageParts::BiDijkstra { .. } => 0,
            StageParts::Pch {
                partition_indexes,
                overlay_index,
                ..
            }
            | StageParts::NoBoundary {
                partition_indexes,
                overlay_index,
                ..
            } => {
                partition_indexes
                    .iter()
                    .map(|p| p.index_size_bytes())
                    .sum::<usize>()
                    + overlay_index.index_size_bytes()
            }
            StageParts::PostBoundary {
                post,
                overlay_index,
                ..
            } => post.index_size_bytes() + overlay_index.index_size_bytes(),
            StageParts::CrossBoundary { post, cross } => {
                post.index_size_bytes() + cross.index_size_bytes()
            }
        }
    }
}

/// Per-thread Q-Stage-2 (partitioned CH) session: owns one pooled
/// [`PchSearcher`] for its lifetime.
struct PmhlPchSession<'a> {
    partitioned: &'a Partitioned,
    partition_indexes: &'a CowVec<PartitionIndex>,
    overlay: &'a OverlayGraph,
    overlay_h: &'a ContractionHierarchy,
    scratch: ScratchGuard<'a, PchSearcher>,
}

impl QuerySession for PmhlPchSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.scratch.distance(
            self.partitioned,
            self.partition_indexes,
            self.overlay,
            self.overlay_h,
            s,
            t,
        )
    }
}

/// Cached source-side state of a [`PmhlLabelSession`]: the source vertex,
/// its partition, and (computed lazily — only cross-partition targets need
/// them) its `L'_i(source)` boundary labels.
struct SourceState {
    source: VertexId,
    partition: usize,
    labels: Option<Vec<(VertexId, Dist)>>,
}

/// Per-thread session for the post-/cross-boundary label stages: caches the
/// source's partition id and (for the post-boundary concatenation path) its
/// `L'_i(s)` boundary labels, so a one-to-many or matrix row pays the
/// source-side work once instead of once per target.
struct PmhlLabelSession<'a> {
    view: &'a PmhlView,
    /// State of the most recent source, reused while the source repeats.
    source: Option<SourceState>,
}

impl PmhlLabelSession<'_> {
    fn source_state(&mut self, s: VertexId) -> &mut SourceState {
        if self.source.as_ref().map(|st| st.source) != Some(s) {
            self.source = Some(SourceState {
                source: s,
                partition: self.view.partitioned.partition.partition_of(s),
                labels: None,
            });
        }
        self.source.as_mut().expect("just set")
    }
}

impl QuerySession for PmhlLabelSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        let view = self.view;
        let state = self.source_state(s);
        if view.partitioned.partition.partition_of(t) == state.partition {
            return match &view.parts {
                StageParts::PostBoundary { post, .. } | StageParts::CrossBoundary { post, .. } => {
                    post.same_partition_distance(&view.partitioned, state.partition, s, t)
                }
                _ => unreachable!("label session only wraps label stages"),
            };
        }
        match &view.parts {
            StageParts::PostBoundary {
                post,
                overlay,
                overlay_index,
            } => {
                let labels = state
                    .labels
                    .get_or_insert_with(|| boundary_labels(&view.partitioned, post, s));
                cross_by_concatenation(&view.partitioned, post, overlay, overlay_index, labels, t)
            }
            StageParts::CrossBoundary { cross, .. } => cross.cross_distance(s, t),
            _ => unreachable!("label session only wraps label stages"),
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
            bidij: Arc::new(ScratchPool::new(move || BiDijkstra::new(n))),
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

    fn view_with(&self, stage: PmhlStage) -> Arc<dyn QueryView> {
        let parts = match stage {
            PmhlStage::BiDijkstra => StageParts::BiDijkstra {
                bidij: Arc::clone(&self.bidij),
            },
            PmhlStage::Pch => StageParts::Pch {
                partition_indexes: self.partition_indexes.clone(),
                overlay: Arc::clone(&self.overlay),
                overlay_index: Arc::clone(&self.overlay_index),
                pch: Arc::clone(&self.pch),
            },
            PmhlStage::NoBoundary => StageParts::NoBoundary {
                partition_indexes: self.partition_indexes.clone(),
                overlay: Arc::clone(&self.overlay),
                overlay_index: Arc::clone(&self.overlay_index),
            },
            PmhlStage::PostBoundary => StageParts::PostBoundary {
                post: Arc::clone(&self.post),
                overlay: Arc::clone(&self.overlay),
                overlay_index: Arc::clone(&self.overlay_index),
            },
            PmhlStage::CrossBoundary => StageParts::CrossBoundary {
                post: Arc::clone(&self.post),
                cross: Arc::clone(&self.cross),
            },
        };
        Arc::new(PmhlView {
            partitioned: Arc::clone(&self.partitioned),
            stage,
            parts,
        })
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
        _graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let threads = self.config.num_threads.max(1);
        let mut timeline = UpdateTimeline::default();
        // Per-stage clone telemetry: every publication carries the chunks /
        // bytes this stage actually copy-on-wrote.
        let mut cow_mark = self.cow_stats();
        let mut publish = |this: &Pmhl, stage: PmhlStage, publisher: &SnapshotPublisher| {
            let now = this.cow_stats();
            publisher.publish_with_cow(this.view_with(stage), now.since(cow_mark));
            cow_mark = now;
        };

        // U-Stage 1: on-spot edge update of the global graph and the
        // per-partition copies.
        let t0 = Instant::now();
        let routed = Arc::make_mut(&mut self.partitioned).apply_batch(batch);
        self.stage = PmhlStage::BiDijkstra;
        publish(self, PmhlStage::BiDijkstra, publisher);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        // U-Stage 2: no-boundary shortcut update — each affected partition on
        // its own thread, then the overlay shortcut arrays. Only the affected
        // partitions are cloned out from under the outstanding snapshots
        // (`make_mut_where`, one chunk per partition); the rest stay shared.
        let t1 = Instant::now();
        let per_part: Mutex<Vec<(usize, Vec<ShortcutChange>)>> = Mutex::new(Vec::new());
        {
            let partitioned = Arc::clone(&self.partitioned);
            let routed_ref = &routed;
            let per_part_ref = &per_part;
            let mut jobs: Vec<(usize, &mut PartitionIndex)> = self
                .partition_indexes
                .make_mut_where(|i| !routed_ref.intra[i].is_empty());
            let chunk = jobs.len().div_ceil(threads).max(1);
            let partitioned = &partitioned;
            std::thread::scope(|scope| {
                for chunk_jobs in jobs.chunks_mut(chunk) {
                    scope.spawn(move || {
                        let mut local = Vec::new();
                        for (i, idx) in chunk_jobs.iter_mut() {
                            let changes = idx.h2h.update_shortcuts(
                                &partitioned.subgraphs[*i].graph,
                                routed_ref.intra[*i].as_slice(),
                            );
                            local.push((*i, changes));
                        }
                        per_part_ref.lock().unwrap().extend(local);
                    });
                }
            });
        }
        let per_part = per_part.into_inner().unwrap();
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

        // U-Stage 3: no-boundary label update — partitions in parallel, then
        // the overlay labels. Again only partitions with shortcut changes are
        // cloned (the U2 snapshot re-shared every chunk it pinned).
        let t2 = Instant::now();
        {
            let mut changed_by_partition: rustc_hash::FxHashMap<usize, Vec<VertexId>> =
                rustc_hash::FxHashMap::default();
            for (i, changes) in &per_part {
                let changed: Vec<VertexId> = changes.iter().map(|c| c.from).collect();
                if !changed.is_empty() {
                    changed_by_partition.insert(*i, changed);
                }
            }
            let mut jobs: Vec<(&mut PartitionIndex, Vec<VertexId>)> = self
                .partition_indexes
                .make_mut_where(|i| changed_by_partition.contains_key(&i))
                .into_iter()
                .filter_map(|(i, idx)| changed_by_partition.remove(&i).map(|c| (idx, c)))
                .collect();
            let chunk = jobs.len().div_ceil(threads).max(1);
            std::thread::scope(|scope| {
                for chunk_jobs in jobs.chunks_mut(chunk) {
                    scope.spawn(move || {
                        for (idx, changed) in chunk_jobs.iter_mut() {
                            idx.h2h.update_labels_for(changed);
                        }
                    });
                }
            });
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
