//! The overlay graph `G̃` over all boundary vertices.
//!
//! `G̃`'s vertex set is `B = ∪ B_i`; its edges are the inter-partition edges
//! plus, per partition, the boundary shortcuts generated by contracting the
//! partition interior (the optimized no-boundary strategy of §V-C, proved
//! distance-preserving by Theorem 2). Every overlay edge therefore has exactly
//! one *source* — either a global inter-partition edge or a partition
//! shortcut — and maintenance simply maps source-weight changes onto overlay
//! edge updates.

use crate::partitioned::{Partitioned, RoutedUpdates};
use htsp_ch::{ContractionHierarchy, ShortcutChange};
use htsp_graph::cow::{CowStats, CowVec};
use htsp_graph::{
    EdgeId, EdgeUpdate, Graph, GraphBuilder, UpdateBatch, VertexId, Weight, WorkerPool,
};
use rustc_hash::{FxHashMap, FxHashSet};
use std::sync::Arc;

/// Where an overlay edge's weight comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OverlayEdgeSource {
    /// A global inter-partition edge.
    InterEdge(EdgeId),
    /// A contraction shortcut of partition `partition` between two of its
    /// boundary vertices (in that partition's local ids, lower rank first).
    PartitionShortcut {
        /// The owning partition.
        partition: u32,
        /// Lower-ranked endpoint (local id).
        from_local: VertexId,
        /// Higher-ranked endpoint (local id).
        to_local: VertexId,
    },
}

/// The overlay graph and its id mappings. The mappings never change, so a
/// clone shares them and the graph's topology: it copies pointers.
#[derive(Clone, Debug)]
pub struct OverlayGraph {
    /// The overlay graph in overlay-local vertex ids.
    pub graph: Graph,
    /// Overlay-local id → global id.
    pub global_of: Arc<[VertexId]>,
    /// Global id → overlay-local id (only boundary vertices appear).
    pub local_of: Arc<FxHashMap<VertexId, VertexId>>,
    /// Source of each overlay edge (indexed by overlay edge id).
    sources: Arc<[OverlayEdgeSource]>,
    /// Global inter edge id → overlay edge id.
    inter_edge_of: Arc<FxHashMap<EdgeId, EdgeId>>,
    /// (partition, local lo, local hi) → overlay edge id.
    shortcut_edge_of: Arc<FxHashMap<(u32, u32, u32), EdgeId>>,
}

impl OverlayGraph {
    /// Builds the overlay graph from the partition hierarchies (one per
    /// partition, in partition order, each built with a boundary-first local
    /// order).
    pub fn build(
        partitioned: &Partitioned,
        partition_hierarchies: &[&ContractionHierarchy],
    ) -> Self {
        assert_eq!(partition_hierarchies.len(), partitioned.num_partitions());
        let mut boundary: Vec<VertexId> = partitioned.partition.all_boundary().collect();
        boundary.sort_unstable();
        let mut local_of = FxHashMap::default();
        local_of.reserve(boundary.len());
        for (i, &b) in boundary.iter().enumerate() {
            local_of.insert(b, VertexId::from_index(i));
        }
        let mut builder = GraphBuilder::new(boundary.len());
        let mut sources: Vec<OverlayEdgeSource> = Vec::new();
        let mut inter_edge_of = FxHashMap::default();
        let mut shortcut_edge_of = FxHashMap::default();

        // Inter-partition edges.
        for &e in partitioned.partition.inter_edges() {
            let (u, v) = partitioned.graph.edge_endpoints(e);
            let w = partitioned.graph.edge_weight(e);
            let lu = local_of[&u];
            let lv = local_of[&v];
            if builder.add_edge(lu, lv, w) {
                let overlay_e = EdgeId::from_index(sources.len());
                sources.push(OverlayEdgeSource::InterEdge(e));
                inter_edge_of.insert(e, overlay_e);
            }
        }
        // Per-partition contraction shortcuts between boundary vertices.
        for (pi, (sub, ch)) in partitioned
            .subgraphs
            .iter()
            .zip(partition_hierarchies.iter())
            .enumerate()
        {
            let is_b: FxHashSet<VertexId> = sub.boundary_local.iter().copied().collect();
            for &b in sub.boundary_local.iter() {
                for &(u, w) in ch.up_arcs(b) {
                    if !is_b.contains(&u) {
                        continue;
                    }
                    let gb = sub.to_global(b);
                    let gu = sub.to_global(u);
                    let lb = local_of[&gb];
                    let lu = local_of[&gu];
                    if builder.add_edge(lb, lu, w) {
                        let overlay_e = EdgeId::from_index(sources.len());
                        sources.push(OverlayEdgeSource::PartitionShortcut {
                            partition: pi as u32,
                            from_local: b,
                            to_local: u,
                        });
                        shortcut_edge_of.insert((pi as u32, b.0, u.0), overlay_e);
                    }
                }
            }
        }
        let graph = builder.build();
        debug_assert_eq!(graph.num_edges(), sources.len());
        OverlayGraph {
            graph,
            global_of: boundary.into(),
            local_of: Arc::new(local_of),
            sources: sources.into(),
            inter_edge_of: Arc::new(inter_edge_of),
            shortcut_edge_of: Arc::new(shortcut_edge_of),
        }
    }

    /// Overlay-local id of a global boundary vertex.
    #[inline]
    pub fn to_local(&self, v: VertexId) -> Option<VertexId> {
        self.local_of.get(&v).copied()
    }

    /// Global id of an overlay-local vertex.
    #[inline]
    pub fn to_global(&self, v: VertexId) -> VertexId {
        self.global_of[v.index()]
    }

    /// Number of overlay vertices (`|B|`).
    pub fn num_vertices(&self) -> usize {
        self.global_of.len()
    }

    /// The source feeding each overlay edge.
    pub fn source(&self, e: EdgeId) -> OverlayEdgeSource {
        self.sources[e.index()]
    }

    /// Maps the outcome of U-Stage 2 (inter-edge weight changes plus each
    /// partition's shortcut changes) onto overlay edge updates, applies them
    /// to the overlay graph, and returns the update batch for the overlay
    /// index maintenance.
    pub fn apply_changes(
        &mut self,
        partitioned: &Partitioned,
        inter: &UpdateBatch,
        partition_shortcut_changes: &[(usize, Vec<ShortcutChange>)],
    ) -> UpdateBatch {
        let mut batch = UpdateBatch::new();
        for upd in inter.iter() {
            if let Some(&oe) = self.inter_edge_of.get(&upd.edge) {
                let old = self.graph.edge_weight(oe);
                let new = partitioned.graph.edge_weight(upd.edge);
                if old != new {
                    self.graph.set_edge_weight(oe, new);
                    batch.push(EdgeUpdate::new(oe, old, new));
                }
            }
        }
        for (pi, changes) in partition_shortcut_changes {
            for c in changes {
                let key = (*pi as u32, c.from.0, c.to.0);
                if let Some(&oe) = self.shortcut_edge_of.get(&key) {
                    let old = self.graph.edge_weight(oe);
                    let new: Weight = c.new;
                    if old != new {
                        self.graph.set_edge_weight(oe, new);
                        batch.push(EdgeUpdate::new(oe, old, new));
                    }
                }
            }
        }
        batch
    }
}

/// The self-maintaining boundary overlay: the [`Partitioned`] view, one
/// boundary-first [`ContractionHierarchy`] per partition, and the
/// [`OverlayGraph`] they feed, kept mutually consistent across update
/// batches.
///
/// This bundles the maintenance recipe (route the batch into the subgraph
/// copies, repair each affected partition hierarchy, map the shortcut
/// changes onto overlay edges), so its holders — N-CH-P, P-TD-P and the
/// sharded serving tier's fleet maintainer — keep one object whose overlay
/// graph always preserves the *global* boundary-to-boundary distances of
/// the current weights (Theorem 2).
///
/// The components are shared the way snapshots share them: the partitioned
/// view and the overlay behind `Arc`s, the hierarchies one per chunk of a
/// [`CowVec`]. A repair copies only what a published view still pins.
#[derive(Clone, Debug)]
pub struct OverlayMaintainer {
    /// The partitioned view (global graph + per-partition subgraph copies),
    /// kept at current weights.
    pub partitioned: Arc<Partitioned>,
    /// Per-partition boundary-first hierarchies generating the overlay's
    /// partition shortcuts.
    pub hierarchies: CowVec<ContractionHierarchy>,
    /// The maintained overlay graph.
    pub overlay: Arc<OverlayGraph>,
}

impl OverlayMaintainer {
    /// Cumulative copy-on-write clone effort of the per-partition
    /// hierarchies: partition-granular clones plus the chunk clones inside
    /// each one's shortcut table.
    pub fn cow_stats(&self) -> CowStats {
        self.hierarchies
            .iter()
            .fold(self.hierarchies.stats(), |acc, ch| acc.plus(ch.cow_stats()))
    }

    /// Builds the partitioned view, the per-partition hierarchies, and the
    /// overlay from a graph and a partition assignment. The per-partition
    /// boundary-first hierarchies build concurrently on `pool`, one task per
    /// partition. Identical result at any thread count.
    pub fn build(
        graph: Graph,
        partition: htsp_partition::PartitionResult,
        pool: &WorkerPool,
    ) -> Self {
        let partitioned = Partitioned::build(graph, partition);
        let hierarchies: Vec<ContractionHierarchy> =
            pool.run("overlay_partition_ch", partitioned.subgraphs.len(), |i| {
                crate::partition_index::build_partition_ch(&partitioned.subgraphs[i])
            });
        let refs: Vec<&ContractionHierarchy> = hierarchies.iter().collect();
        let overlay = OverlayGraph::build(&partitioned, &refs);
        OverlayMaintainer {
            partitioned: Arc::new(partitioned),
            hierarchies: CowVec::from_vec(hierarchies, 1),
            overlay: Arc::new(overlay),
        }
    }

    /// U-Stage 1: takes `graph`, the global graph `batch` (global edge ids)
    /// was already applied to, writes the batch into the subgraph copies,
    /// and routes it into intra- and inter-partition updates.
    pub fn route(&mut self, graph: &Graph, batch: &UpdateBatch) -> RoutedUpdates {
        Arc::make_mut(&mut self.partitioned).apply_batch(graph, batch)
    }

    /// U-Stage 2 of a [`Self::route`]d batch: the DCH repair of every affected
    /// partition hierarchy, and the overlay edge updates those changes imply.
    /// Returns the overlay's own update batch (empty when no
    /// boundary-incident weight changed).
    pub fn repair(&mut self, routed: &RoutedUpdates) -> UpdateBatch {
        let mut per_part = Vec::new();
        for i in routed.affected_partitions() {
            let changes = self.hierarchies.make_mut(i).apply_batch(
                &self.partitioned.subgraphs[i].graph,
                routed.intra[i].as_slice(),
            );
            per_part.push((i, changes));
        }
        Arc::make_mut(&mut self.overlay).apply_changes(&self.partitioned, &routed.inter, &per_part)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_index::build_partition_ch;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::UpdateGenerator;
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;

    fn setup(k: usize) -> (Partitioned, Vec<ContractionHierarchy>, OverlayGraph) {
        let g = grid(10, 10, WeightRange::new(1, 20), 5);
        let pr = partition_region_growing(&g, k, 2);
        let p = Partitioned::build(g, pr);
        let chs: Vec<ContractionHierarchy> = p.subgraphs.iter().map(build_partition_ch).collect();
        let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
        let overlay = OverlayGraph::build(&p, &refs);
        (p, chs, overlay)
    }

    #[test]
    fn overlay_vertices_are_exactly_the_boundary() {
        let (p, _chs, overlay) = setup(4);
        assert_eq!(overlay.num_vertices(), p.partition.num_boundary());
        for &g in overlay.global_of.iter() {
            assert!(p.partition.is_boundary(g));
        }
    }

    #[test]
    fn overlay_preserves_global_boundary_distances() {
        // The key PSP invariant (§III-C): the overlay graph preserves the
        // global shortest distances between boundary vertices.
        let (p, _chs, overlay) = setup(4);
        let b: Vec<VertexId> = overlay.global_of.to_vec();
        // Check a sample of boundary pairs.
        for (i, &b1) in b.iter().enumerate().step_by(3) {
            for &b2 in b.iter().skip(i + 1).step_by(5) {
                let expect = dijkstra_distance(&p.graph, b1, b2);
                let got = dijkstra_distance(
                    &overlay.graph,
                    overlay.to_local(b1).unwrap(),
                    overlay.to_local(b2).unwrap(),
                );
                assert_eq!(got, expect, "overlay distance {b1}-{b2}");
            }
        }
    }

    #[test]
    fn overlay_updates_follow_source_changes() {
        let (mut p, mut chs, mut overlay) = setup(4);
        let mut gen = UpdateGenerator::new(11);
        let batch = gen.generate(&p.graph, 30);
        let mut next = p.graph.clone();
        next.apply_batch(&batch);
        let routed = p.apply_batch(&next, &batch);
        // Partition shortcut phase.
        let mut per_part = Vec::new();
        for (i, ch) in chs.iter_mut().enumerate() {
            let changes = ch.apply_batch(&p.subgraphs[i].graph, routed.intra[i].as_slice());
            per_part.push((i, changes));
        }
        let overlay_batch = overlay.apply_changes(&p, &routed.inter, &per_part);
        // After applying, overlay boundary distances must again equal global.
        let b = overlay.global_of.clone();
        for (i, &b1) in b.iter().enumerate().step_by(4) {
            for &b2 in b.iter().skip(i + 1).step_by(6) {
                let expect = dijkstra_distance(&p.graph, b1, b2);
                let got = dijkstra_distance(
                    &overlay.graph,
                    overlay.to_local(b1).unwrap(),
                    overlay.to_local(b2).unwrap(),
                );
                assert_eq!(got, expect, "overlay distance {b1}-{b2} after update");
            }
        }
        // The overlay batch only touches existing overlay edges.
        for upd in overlay_batch.iter() {
            assert!(upd.edge.index() < overlay.graph.num_edges());
        }
    }

    #[test]
    fn single_partition_overlay_is_empty() {
        let g = grid(6, 6, WeightRange::new(1, 9), 5);
        let pr = partition_region_growing(&g, 1, 2);
        let p = Partitioned::build(g, pr);
        let chs: Vec<ContractionHierarchy> = p.subgraphs.iter().map(build_partition_ch).collect();
        let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
        let overlay = OverlayGraph::build(&p, &refs);
        assert_eq!(overlay.num_vertices(), 0);
        assert_eq!(overlay.graph.num_edges(), 0);
    }
}
