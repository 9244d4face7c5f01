//! Post-boundary strategy: extended partitions `{G'_i}` and their corrected
//! indexes `{L'_i}` (§III-C, Steps 4-5).
//!
//! The extended partition `G'_i` adds, for every pair of boundary vertices of
//! `G_i`, a shortcut edge carrying the *global* shortest distance between them
//! (obtained by querying the overlay index `L̃`). An H2H index built on `G'_i`
//! therefore answers same-partition queries with global correctness, without
//! any concatenation — the property PMHL's Q-Stage 4 and P-TD-P rely on.
//! Cross-partition pairs concatenate `L'_i`, `L̃` and `L'_j` through the
//! boundary ([`PostBoundaryView`]).

use crate::concat::{boundary_fan, concatenate, FromSource, Source, SourceSession};
use crate::overlay::OverlayGraph;
use crate::partitioned::Partitioned;
use htsp_ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode};
use htsp_graph::cow::{CowStats, CowVec};
use htsp_graph::{
    Dist, EdgeId, EdgeUpdate, Graph, GraphBuilder, QuerySession, QueryView, UpdateBatch, VertexId,
    Weight, WorkerPool,
};
use htsp_td::{H2HIndex, TreeDecomposition};
use std::sync::Arc;
use std::time::Duration;

/// One extended partition: the graph `G'_i`, the bookkeeping of its boundary
/// pair edges, and the corrected index `L'_i`.
#[derive(Clone, Debug)]
pub struct ExtendedPartition {
    /// The extended graph `G'_i` in the partition's local vertex ids. Edge ids
    /// `0..m_i` coincide with the original subgraph's edge ids; boundary-pair
    /// shortcut edges follow.
    pub graph: Graph,
    /// For every boundary pair that received an edge: `(edge id in the
    /// extended graph, local b1, local b2, whether the edge also exists as an
    /// original intra edge)`.
    pair_edges: Vec<(EdgeId, VertexId, VertexId, bool)>,
    /// The ids of the pair edges that are also original intra edges, sorted:
    /// an intra update on one of them is replaced by the pair pass.
    intra_pair_edges: Vec<EdgeId>,
    /// The corrected partition index `L'_i`.
    pub index: H2HIndex,
}

/// The post-boundary indexes of all partitions.
///
/// The extended partitions live in a [`CowVec`] with one partition per
/// chunk: cloning the whole structure (what snapshot publication does) bumps
/// one `Arc` per partition, and an update round that repairs `k` partitions
/// clones exactly those `k` — untouched partitions stay shared with every
/// outstanding snapshot.
#[derive(Clone, Debug)]
pub struct PostBoundaryIndexes {
    /// One extended partition per partition id (chunk size 1).
    pub partitions: CowVec<ExtendedPartition>,
}

/// Queries the global distance between two boundary vertices through the
/// overlay index.
fn overlay_boundary_distance(
    overlay: &OverlayGraph,
    overlay_index: &H2HIndex,
    a: VertexId,
    b: VertexId,
) -> Dist {
    match (overlay.to_local(a), overlay.to_local(b)) {
        (Some(la), Some(lb)) => overlay_index.distance(la, lb),
        _ => htsp_graph::INF,
    }
}

impl PostBoundaryIndexes {
    /// Builds `{G'_i}` and `{L'_i}` (Steps 4-5 of the post-boundary strategy)
    /// concurrently on `pool`, one task per partition. Each partition's
    /// `G'_i`/`L'_i` depends only on the shared overlay index, so the result
    /// is identical at any thread count.
    pub fn build(
        partitioned: &Partitioned,
        overlay: &OverlayGraph,
        overlay_index: &H2HIndex,
        pool: &WorkerPool,
    ) -> Self {
        let partitions = pool.run("post_boundary", partitioned.subgraphs.len(), |pi| {
            let sub = &partitioned.subgraphs[pi];
            let n = sub.graph.num_vertices();
            let mut builder = GraphBuilder::new(n);
            for (_, u, v, w) in sub.graph.edges() {
                builder.add_edge(u, v, w);
            }
            let mut pair_edges = Vec::new();
            let nb = sub.boundary_local.len();
            for i in 0..nb {
                for j in (i + 1)..nb {
                    let (b1, b2) = (sub.boundary_local[i], sub.boundary_local[j]);
                    let d = overlay_boundary_distance(
                        overlay,
                        overlay_index,
                        sub.to_global(b1),
                        sub.to_global(b2),
                    );
                    if d.is_inf() {
                        continue;
                    }
                    match sub.graph.find_edge(b1, b2) {
                        Some((e, _)) => {
                            // Merge with the existing intra edge (min weight).
                            builder.add_edge(b1, b2, d.0.max(1));
                            pair_edges.push((e, b1, b2, true));
                        }
                        None => {
                            let next = EdgeId::from_index(builder.num_edges());
                            if builder.add_edge(b1, b2, d.0.max(1)) {
                                pair_edges.push((next, b1, b2, false));
                            }
                        }
                    }
                }
            }
            let graph = builder.build();
            // A partition index, so on MinDegree like the other kinds'
            // partition hierarchies.
            let index = H2HIndex::from_decomposition(TreeDecomposition::from_hierarchy(
                ContractionHierarchy::build(
                    &graph,
                    OrderingStrategy::MinDegree,
                    ShortcutMode::AllPairs,
                ),
            ));
            let mut intra_pair_edges: Vec<EdgeId> = pair_edges
                .iter()
                .filter(|&&(_, _, _, is_intra)| is_intra)
                .map(|&(e, ..)| e)
                .collect();
            intra_pair_edges.sort_unstable();
            ExtendedPartition {
                graph,
                pair_edges,
                intra_pair_edges,
                index,
            }
        });
        PostBoundaryIndexes {
            partitions: CowVec::from_vec(partitions, 1),
        }
    }

    /// Cumulative copy-on-write clone effort: partition-granular clones of
    /// the extended partitions plus the chunk clones inside each `L'_i`.
    pub fn cow_stats(&self) -> CowStats {
        self.partitions
            .iter()
            .fold(self.partitions.stats(), |acc, ext| {
                acc.plus(ext.index.cow_stats())
            })
    }

    /// Same-partition distance for two global vertices in partition `pi`,
    /// answered solely by `L'_i` (globally correct).
    pub fn same_partition_distance(
        &self,
        partitioned: &Partitioned,
        pi: usize,
        s: VertexId,
        t: VertexId,
    ) -> Dist {
        let sub = &partitioned.subgraphs[pi];
        match (sub.to_local(s), sub.to_local(t)) {
            (Some(ls), Some(lt)) => self.partitions[pi].index.distance(ls, lt),
            _ => htsp_graph::INF,
        }
    }

    /// Distance from an in-partition vertex (local id) to one of its
    /// partition's boundary vertices (local id), via `L'_i`.
    pub fn distance_to_boundary(&self, pi: usize, v_local: VertexId, b_local: VertexId) -> Dist {
        self.partitions[pi].index.distance(v_local, b_local)
    }

    /// Repairs the extended partitions and `{L'_i}` after the overlay index
    /// has been updated (U-Stage 4). `intra` carries the routed local updates
    /// of this batch. Returns the partitions whose `L'_i` labels changed and
    /// the total time spent.
    pub fn update(
        &mut self,
        partitioned: &Partitioned,
        overlay: &OverlayGraph,
        overlay_index: &H2HIndex,
        intra: &[UpdateBatch],
    ) -> (Vec<usize>, Duration) {
        let start = std::time::Instant::now();
        let mut changed_partitions = Vec::new();
        // An index loop rather than an iterator: the read pass borrows the
        // shared partition, and only a non-empty batch upgrades `pi` to a
        // `make_mut` (which would conflict with any live iterator borrow).
        #[allow(clippy::needless_range_loop)]
        for pi in 0..self.partitions.len() {
            // Read-only pass over the shared partition: decide what changed.
            let ext = &self.partitions[pi];
            let sub = &partitioned.subgraphs[pi];
            let mut batch = UpdateBatch::new();
            // Plain intra updates first (skip boundary-pair edges; those are
            // recomputed below from the overlay).
            for upd in intra[pi].iter() {
                if ext.intra_pair_edges.binary_search(&upd.edge).is_ok() {
                    continue;
                }
                let old = ext.graph.edge_weight(upd.edge);
                if old != upd.new_weight {
                    batch.push(EdgeUpdate::new(upd.edge, old, upd.new_weight));
                }
            }
            // Boundary-pair pass: the desired weight is the global boundary
            // distance, merged with the current intra edge weight if one exists.
            for &(e, b1, b2, is_intra) in &ext.pair_edges {
                let d = overlay_boundary_distance(
                    overlay,
                    overlay_index,
                    sub.to_global(b1),
                    sub.to_global(b2),
                );
                let mut desired: Weight = if d.is_inf() { u32::MAX - 1 } else { d.0.max(1) };
                if is_intra {
                    desired = desired.min(sub.graph.edge_dist(b1, b2).0.max(1));
                }
                let old = ext.graph.edge_weight(e);
                if old != desired {
                    batch.push(EdgeUpdate::new(e, old, desired));
                }
            }
            if batch.is_empty() {
                continue;
            }
            // Only now clone the partition out from under outstanding
            // snapshots (one chunk = one partition).
            let ext = self.partitions.make_mut(pi);
            ext.graph.apply_batch(&batch);
            let report = ext.index.apply_batch(&ext.graph, batch.as_slice());
            if !report.affected_labels.is_empty() || !report.shortcut_changes.is_empty() {
                changed_partitions.push(pi);
            }
        }
        (changed_partitions, start.elapsed())
    }

    /// Total label entries across all `L'_i`.
    pub fn index_size_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(|p| p.index.index_size_bytes())
            .sum()
    }
}

/// Post-boundary snapshot (P-TD-P; PMHL's Q-Stage 4): same-partition pairs
/// from `L'_i` alone, cross-partition pairs by the `L'_i` ∘ `L̃` ∘ `L'_j`
/// concatenation.
pub struct PostBoundaryView {
    /// The algorithm that publishes the view.
    pub algorithm: &'static str,
    /// The query stage it is published as.
    pub stage: usize,
    /// The partition layout and the graph snapshot.
    pub partitioned: Arc<Partitioned>,
    /// The overlay graph and its id maps.
    pub overlay: Arc<OverlayGraph>,
    /// The overlay labels `L̃`.
    pub overlay_index: Arc<H2HIndex>,
    /// The post-boundary partition indexes `{L'_i}`.
    pub post: Arc<PostBoundaryIndexes>,
}

impl FromSource for PostBoundaryView {
    fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }

    fn distance_from(&self, source: &mut Source, t: VertexId) -> Dist {
        let (partitioned, post) = (&*self.partitioned, &*self.post);
        let ps = source.partition;
        if partitioned.partition.partition_of(t) == ps {
            return post.same_partition_distance(partitioned, ps, source.vertex, t);
        }
        let fan = |v| {
            boundary_fan(partitioned, v, |pi, lv, lb| {
                post.distance_to_boundary(pi, lv, lb)
            })
        };
        let from_t = fan(t);
        concatenate(&self.overlay, &self.overlay_index, source.fan(fan), &from_t)
    }
}

impl QueryView for PostBoundaryView {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn stage(&self) -> usize {
        self.stage
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.distance_once(s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(SourceSession::new(self))
    }

    fn graph(&self) -> &Graph {
        &self.partitioned.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_index::build_partition_ch;
    use htsp_ch::ContractionHierarchy;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::UpdateGenerator;
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;

    fn setup() -> (
        Partitioned,
        Vec<ContractionHierarchy>,
        OverlayGraph,
        H2HIndex,
        PostBoundaryIndexes,
    ) {
        let g = grid(9, 9, WeightRange::new(1, 20), 17);
        let pr = partition_region_growing(&g, 4, 3);
        let p = Partitioned::build(g, pr);
        let chs: Vec<ContractionHierarchy> = p.subgraphs.iter().map(build_partition_ch).collect();
        let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
        let overlay = OverlayGraph::build(&p, &refs);
        let overlay_index = H2HIndex::build(&overlay.graph);
        let post =
            PostBoundaryIndexes::build(&p, &overlay, &overlay_index, &WorkerPool::sequential());
        (p, chs, overlay, overlay_index, post)
    }

    #[test]
    fn same_partition_queries_are_globally_correct() {
        let (p, _chs, _overlay, _oi, post) = setup();
        for pi in 0..p.num_partitions() {
            let members = p.partition.vertices(pi);
            for i in (0..members.len().saturating_sub(1)).step_by(2) {
                let (s, t) = (members[i], members[i + 1]);
                let expect = dijkstra_distance(&p.graph, s, t);
                let got = post.same_partition_distance(&p, pi, s, t);
                assert_eq!(got, expect, "post-boundary mismatch {s}->{t}");
            }
        }
    }

    #[test]
    fn update_keeps_same_partition_queries_correct() {
        let (mut p, mut chs, mut overlay, mut overlay_index, mut post) = setup();
        let mut gen = UpdateGenerator::new(23);
        for _round in 0..2 {
            let batch = gen.generate(&p.graph, 25);
            let mut next = p.graph.clone();
            next.apply_batch(&batch);
            let routed = p.apply_batch(&next, &batch);
            let mut per_part = Vec::new();
            for (i, ch) in chs.iter_mut().enumerate() {
                let changes = ch.apply_batch(&p.subgraphs[i].graph, routed.intra[i].as_slice());
                per_part.push((i, changes));
            }
            let overlay_batch = overlay.apply_changes(&p, &routed.inter, &per_part);
            overlay_index.apply_batch(&overlay.graph, overlay_batch.as_slice());
            post.update(&p, &overlay, &overlay_index, &routed.intra);
            for pi in 0..p.num_partitions() {
                let members = p.partition.vertices(pi);
                for i in (0..members.len().saturating_sub(1)).step_by(5) {
                    let (s, t) = (members[i], members[i + 1]);
                    let expect = dijkstra_distance(&p.graph, s, t);
                    let got = post.same_partition_distance(&p, pi, s, t);
                    assert_eq!(got, expect, "post-boundary mismatch {s}->{t} after update");
                }
            }
        }
    }
}
