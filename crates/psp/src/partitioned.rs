//! The partitioned view of a road network.
//!
//! Only the weights change from batch to batch, so everything else — the
//! partition, every subgraph's id maps, and the graphs' topologies — is
//! shared by every clone: a clone of [`Partitioned`] copies pointers.

use htsp_graph::{EdgeId, Graph, GraphBuilder, UpdateBatch, VertexId, Weight};
use htsp_partition::PartitionResult;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// One partition's induced subgraph together with its id mappings.
#[derive(Clone, Debug)]
pub struct Subgraph {
    /// The induced subgraph over intra-partition edges, in local vertex ids.
    pub graph: Graph,
    /// Local id → global id.
    pub global_of: Arc<[VertexId]>,
    /// Global id → local id.
    pub local_of: Arc<FxHashMap<VertexId, VertexId>>,
    /// Local ids of this partition's boundary vertices.
    pub boundary_local: Arc<[VertexId]>,
    /// For each local edge, the corresponding global edge id.
    pub global_edge_of: Arc<[EdgeId]>,
    /// Global edge id → local edge id.
    local_edge_of: Arc<FxHashMap<EdgeId, EdgeId>>,
}

impl Subgraph {
    /// Translates a global vertex id to this partition's local id.
    #[inline]
    pub fn to_local(&self, v: VertexId) -> Option<VertexId> {
        self.local_of.get(&v).copied()
    }

    /// Translates a local vertex id back to the global id.
    #[inline]
    pub fn to_global(&self, v: VertexId) -> VertexId {
        self.global_of[v.index()]
    }

    /// Local edge id of a global edge fully inside this partition.
    pub fn local_edge(&self, e: EdgeId) -> Option<EdgeId> {
        self.local_edge_of.get(&e).copied()
    }
}

/// A routed update batch: intra-partition updates translated to each
/// partition's local edge ids, plus the untranslated inter-partition updates.
#[derive(Clone, Debug, Default)]
pub struct RoutedUpdates {
    /// `intra[i]` — updates on edges inside partition `i`, with **local** edge
    /// ids.
    pub intra: Vec<UpdateBatch>,
    /// Updates on inter-partition edges (global edge ids).
    pub inter: UpdateBatch,
}

impl RoutedUpdates {
    /// Partitions whose subgraphs received at least one update.
    pub fn affected_partitions(&self) -> Vec<usize> {
        self.intra
            .iter()
            .enumerate()
            .filter(|(_, b)| !b.is_empty())
            .map(|(i, _)| i)
            .collect()
    }
}

/// The partitioned road network: global graph + per-partition subgraphs.
#[derive(Clone, Debug)]
pub struct Partitioned {
    /// The global graph with current weights.
    pub graph: Graph,
    /// The planar partition.
    pub partition: Arc<PartitionResult>,
    /// Per-partition subgraph views.
    pub subgraphs: Vec<Subgraph>,
}

/// The global graph is what an index-free search over the partitioned
/// network reads.
impl AsRef<Graph> for Partitioned {
    fn as_ref(&self) -> &Graph {
        &self.graph
    }
}

impl Partitioned {
    /// Builds the partitioned view. The subgraphs copy the current weights of
    /// `graph`.
    pub fn build(graph: Graph, partition: PartitionResult) -> Self {
        let k = partition.num_partitions();
        let mut subgraphs = Vec::with_capacity(k);
        for i in 0..k {
            let members = partition.vertices(i);
            let mut local_of: FxHashMap<VertexId, VertexId> = FxHashMap::default();
            local_of.reserve(members.len());
            for (li, &v) in members.iter().enumerate() {
                local_of.insert(v, VertexId::from_index(li));
            }
            let mut builder = GraphBuilder::new(members.len());
            let mut global_edge_of = Vec::new();
            // Collect intra edges in a deterministic order.
            for &v in members {
                for arc in graph.arcs(v) {
                    let u = arc.to;
                    if v < u {
                        if let (Some(&lv), Some(&lu)) = (local_of.get(&v), local_of.get(&u)) {
                            if builder.add_edge(lv, lu, arc.weight) {
                                global_edge_of.push(arc.edge);
                            }
                        }
                    }
                }
            }
            let sub = builder.build();
            let mut local_edge_of = FxHashMap::default();
            for (li, &ge) in global_edge_of.iter().enumerate() {
                local_edge_of.insert(ge, EdgeId::from_index(li));
            }
            let boundary_local = partition.boundary(i).iter().map(|b| local_of[b]).collect();
            subgraphs.push(Subgraph {
                graph: sub,
                global_of: members.into(),
                local_of: Arc::new(local_of),
                boundary_local,
                global_edge_of: global_edge_of.into(),
                local_edge_of: Arc::new(local_edge_of),
            });
        }
        Partitioned {
            graph,
            partition: Arc::new(partition),
            subgraphs,
        }
    }

    /// Number of partitions.
    pub fn num_partitions(&self) -> usize {
        self.subgraphs.len()
    }

    /// Routes a batch of updates: classifies each update as intra- or
    /// inter-partition and translates intra updates into local edge ids
    /// (§III-C / Appendix A scenarios).
    pub fn route_updates(&self, batch: &UpdateBatch) -> RoutedUpdates {
        let mut routed = RoutedUpdates {
            intra: vec![UpdateBatch::new(); self.num_partitions()],
            inter: UpdateBatch::new(),
        };
        for upd in batch.iter() {
            let (u, v) = self.graph.edge_endpoints(upd.edge);
            if self.partition.same_partition(u, v) {
                let i = self.partition.partition_of(u);
                let sub = &self.subgraphs[i];
                if let Some(le) = sub.local_edge(upd.edge) {
                    routed.intra[i].push(htsp_graph::EdgeUpdate::new(
                        le,
                        upd.old_weight,
                        upd.new_weight,
                    ));
                }
            } else {
                routed.inter.push(*upd);
            }
        }
        routed
    }

    /// U-Stage 1: takes `graph`, the global graph `batch` was already
    /// applied to, as the new global graph (a clone shares its topology and
    /// weight chunks), writes the batch into the affected subgraph copies,
    /// and returns the routed updates for the later stages. Only the weight
    /// chunks it writes are copied, and only where a clone (a published
    /// view) still shares them.
    pub fn apply_batch(&mut self, graph: &Graph, batch: &UpdateBatch) -> RoutedUpdates {
        self.graph = graph.clone();
        let routed = self.route_updates(batch);
        for (i, local_batch) in routed.intra.iter().enumerate() {
            if !local_batch.is_empty() {
                self.subgraphs[i].graph.apply_batch(local_batch);
            }
        }
        routed
    }

    /// Current weight of an inter-partition edge.
    pub fn inter_edge_weight(&self, e: EdgeId) -> Weight {
        self.graph.edge_weight(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::UpdateGenerator;
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;

    fn setup(w: usize, h: usize, k: usize) -> Partitioned {
        let g = grid(w, h, WeightRange::new(1, 20), 7);
        let pr = partition_region_growing(&g, k, 3);
        Partitioned::build(g, pr)
    }

    #[test]
    fn subgraphs_cover_intra_edges_only() {
        let p = setup(10, 10, 4);
        let total_sub_edges: usize = p.subgraphs.iter().map(|s| s.graph.num_edges()).sum();
        assert_eq!(
            total_sub_edges + p.partition.inter_edges().len(),
            p.graph.num_edges()
        );
        for (i, sub) in p.subgraphs.iter().enumerate() {
            assert_eq!(sub.graph.num_vertices(), p.partition.vertices(i).len());
            sub.graph.validate().unwrap();
            // Id round trip.
            for v in sub.graph.vertices() {
                let g = sub.to_global(v);
                assert_eq!(sub.to_local(g), Some(v));
                assert_eq!(p.partition.partition_of(g), i);
            }
        }
    }

    #[test]
    fn subgraph_distances_upper_bound_global() {
        let p = setup(8, 8, 4);
        for sub in &p.subgraphs {
            let n = sub.graph.num_vertices();
            if n < 2 {
                continue;
            }
            let a = VertexId(0);
            let b = VertexId::from_index(n - 1);
            let local = dijkstra_distance(&sub.graph, a, b);
            let global = dijkstra_distance(&p.graph, sub.to_global(a), sub.to_global(b));
            assert!(global <= local, "global distance must not exceed local");
        }
    }

    #[test]
    fn route_updates_splits_intra_and_inter() {
        let p = setup(10, 10, 4);
        let mut gen = UpdateGenerator::new(5);
        let batch = gen.generate(&p.graph, 40);
        let routed = p.route_updates(&batch);
        let intra_total: usize = routed.intra.iter().map(|b| b.len()).sum();
        assert_eq!(intra_total + routed.inter.len(), batch.len());
        for upd in routed.inter.iter() {
            let (u, v) = p.graph.edge_endpoints(upd.edge);
            assert!(!p.partition.same_partition(u, v));
        }
    }

    #[test]
    fn apply_batch_keeps_subgraphs_in_sync() {
        let mut p = setup(8, 8, 4);
        let mut gen = UpdateGenerator::new(9);
        let batch = gen.generate(&p.graph, 30);
        let mut next = p.graph.clone();
        next.apply_batch(&batch);
        p.apply_batch(&next, &batch);
        // Every intra edge's weight must agree between global and local copies.
        for sub in &p.subgraphs {
            for (le, lu, lv, lw) in sub.graph.edges() {
                let ge = sub.global_edge_of[le.index()];
                assert_eq!(p.graph.edge_weight(ge), lw, "edge {lu}-{lv} out of sync");
            }
        }
    }

    #[test]
    fn affected_partitions_listed() {
        let p = setup(8, 8, 4);
        // Craft a batch touching exactly one intra edge.
        let sub0_edge = p.subgraphs[0].global_edge_of[0];
        let w = p.graph.edge_weight(sub0_edge);
        let batch =
            UpdateBatch::from_updates(vec![htsp_graph::EdgeUpdate::new(sub0_edge, w, w + 1)]);
        let routed = p.route_updates(&batch);
        assert_eq!(routed.affected_partitions(), vec![0]);
        assert!(routed.inter.is_empty());
    }
}
