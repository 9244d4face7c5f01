//! Per-partition index construction helpers.
//!
//! Each partition `G_i` receives its own MHL-style index built with a
//! *boundary-first* local vertex order (§IV-B): all boundary vertices of the
//! partition rank above every interior vertex, so the shortcuts generated
//! while contracting the interior preserve the within-partition distances
//! between boundary vertices (Theorem 2 — the *optimized no-boundary
//! strategy*). Those contraction-generated boundary shortcuts feed the overlay
//! graph without any Dijkstra or index query.

use crate::partitioned::Subgraph;
use htsp_ch::{
    boundary_first_order, ContractionHierarchy, OrderingStrategy, ShortcutMode, VertexOrder,
};
use htsp_graph::{VertexId, Weight};
use htsp_td::{H2HIndex, TreeDecomposition};
use rustc_hash::FxHashSet;

/// Computes the boundary-first local vertex order for one partition subgraph.
pub fn partition_order(sub: &Subgraph) -> VertexOrder {
    let bset: FxHashSet<VertexId> = sub.boundary_local.iter().copied().collect();
    boundary_first_order(&sub.graph, &bset)
}

/// Builds the partition's contraction hierarchy (the shortcut part of its MHL)
/// with the boundary-first order.
pub fn build_partition_ch(sub: &Subgraph) -> ContractionHierarchy {
    ContractionHierarchy::build(
        &sub.graph,
        OrderingStrategy::Given(partition_order(sub)),
        ShortcutMode::AllPairs,
    )
}

/// Builds the partition's full MHL (shortcut arrays + H2H labels) with the
/// boundary-first order. This is the no-boundary partition index `L_i` of
/// PMHL.
pub fn build_partition_h2h(sub: &Subgraph) -> H2HIndex {
    H2HIndex::from_decomposition(TreeDecomposition::from_hierarchy(build_partition_ch(sub)))
}

/// A per-partition MHL index (`L_i`): H2H labels plus the shortcut arrays of
/// the shared contraction, in the partition's *local* vertex ids.
#[derive(Clone, Debug)]
pub struct PartitionIndex {
    /// The MHL over the partition subgraph (boundary-first local order).
    pub h2h: H2HIndex,
    /// Local ids of the partition's boundary vertices.
    pub boundary_local: Vec<VertexId>,
}

impl AsRef<htsp_ch::ContractionHierarchy> for PartitionIndex {
    fn as_ref(&self) -> &htsp_ch::ContractionHierarchy {
        self.hierarchy()
    }
}

impl PartitionIndex {
    /// Builds the index for one partition subgraph.
    pub fn build(sub: &Subgraph) -> Self {
        PartitionIndex {
            h2h: build_partition_h2h(sub),
            boundary_local: sub.boundary_local.to_vec(),
        }
    }

    /// The underlying contraction hierarchy (shortcut arrays).
    pub fn hierarchy(&self) -> &ContractionHierarchy {
        self.h2h.decomposition().hierarchy()
    }

    /// Within-partition distance between two local vertices using the H2H
    /// labels.
    pub fn distance_local(&self, s: VertexId, t: VertexId) -> htsp_graph::Dist {
        self.h2h.distance(s, t)
    }

    /// The boundary shortcuts generated by contraction (Theorem 2): every
    /// upward arc whose endpoints are both boundary vertices, as
    /// `(local_from, local_to, weight)` triples. Together with the
    /// inter-partition edges they define the overlay graph.
    pub fn boundary_shortcuts(&self) -> Vec<(VertexId, VertexId, Weight)> {
        boundary_shortcuts(self.hierarchy(), &self.boundary_local)
    }

    /// Approximate index size in bytes.
    pub fn index_size_bytes(&self) -> usize {
        self.h2h.index_size_bytes()
    }

    /// Cumulative copy-on-write clone effort of the partition's label table
    /// and shortcut arrays.
    pub fn cow_stats(&self) -> htsp_graph::cow::CowStats {
        self.h2h.cow_stats()
    }
}

/// Extracts the contraction-generated shortcuts between boundary vertices from
/// a partition hierarchy built with a boundary-first order.
pub fn boundary_shortcuts(
    ch: &ContractionHierarchy,
    boundary_local: &[VertexId],
) -> Vec<(VertexId, VertexId, Weight)> {
    let is_boundary: FxHashSet<VertexId> = boundary_local.iter().copied().collect();
    let mut out = Vec::new();
    for &b in boundary_local {
        for &(u, w) in ch.up_arcs(b) {
            if is_boundary.contains(&u) {
                out.push((b, u, w));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partitioned::Partitioned;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::Graph;
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;

    fn setup() -> Partitioned {
        let g = grid(10, 10, WeightRange::new(1, 20), 3);
        let pr = partition_region_growing(&g, 4, 1);
        Partitioned::build(g, pr)
    }

    #[test]
    fn partition_order_is_boundary_first() {
        let p = setup();
        for sub in &p.subgraphs {
            let order = partition_order(sub);
            let nb = sub.boundary_local.len();
            let n = sub.graph.num_vertices();
            for &b in sub.boundary_local.iter() {
                assert!(
                    order.rank(b) as usize >= n - nb,
                    "boundary vertex ranked below an interior vertex"
                );
            }
        }
    }

    #[test]
    fn partition_index_answers_local_distances() {
        let p = setup();
        for sub in &p.subgraphs {
            let idx = PartitionIndex::build(sub);
            let n = sub.graph.num_vertices();
            for (a, b) in [(0usize, n - 1), (0, n / 2), (n / 3, n - 1)] {
                let (a, b) = (VertexId::from_index(a), VertexId::from_index(b));
                assert_eq!(
                    idx.distance_local(a, b),
                    dijkstra_distance(&sub.graph, a, b),
                    "partition-local H2H mismatch"
                );
            }
        }
    }

    #[test]
    fn boundary_shortcuts_preserve_partition_distances() {
        // Theorem 2: the contraction-generated boundary shortcuts, viewed as a
        // graph over the boundary vertices, preserve within-partition
        // distances between boundary vertices.
        let p = setup();
        for sub in &p.subgraphs {
            if sub.boundary_local.len() < 2 {
                continue;
            }
            let idx = PartitionIndex::build(sub);
            let shortcuts = idx.boundary_shortcuts();
            // Build the shortcut-only graph over local ids.
            let mut b = htsp_graph::GraphBuilder::new(sub.graph.num_vertices());
            for &(x, y, w) in &shortcuts {
                b.add_edge(x, y, w);
            }
            let sc_graph: Graph = b.build();
            for (i, &b1) in sub.boundary_local.iter().enumerate() {
                for &b2 in sub.boundary_local.iter().skip(i + 1) {
                    let expect = dijkstra_distance(&sub.graph, b1, b2);
                    let got = dijkstra_distance(&sc_graph, b1, b2);
                    assert_eq!(got, expect, "boundary pair {b1}-{b2}");
                }
            }
        }
    }

    #[test]
    fn boundary_shortcut_endpoints_are_boundary() {
        let p = setup();
        for sub in &p.subgraphs {
            let idx = PartitionIndex::build(sub);
            let bset: FxHashSet<VertexId> = sub.boundary_local.iter().copied().collect();
            for (a, b, w) in idx.boundary_shortcuts() {
                assert!(bset.contains(&a) && bset.contains(&b));
                assert!(w > 0);
            }
        }
    }
}
