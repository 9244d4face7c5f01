//! No-boundary query processing (§III-C).
//!
//! Under the no-boundary strategy the partition indexes `{L_i}` only know
//! *within-partition* distances, so every query that may leave a partition
//! must concatenate partition labels with overlay labels through the boundary
//! vertices. This is exactly the distance concatenation whose cost the
//! cross-boundary strategy of §IV-A later removes.

use crate::concat::{boundary_fan, concatenate, FromSource, Source, SourceSession};
use crate::overlay::OverlayGraph;
use crate::partition_index::PartitionIndex;
use crate::partitioned::Partitioned;
use htsp_graph::cow::CowVec;
use htsp_graph::{Dist, Graph, QuerySession, QueryView, VertexId, INF};
use htsp_td::H2HIndex;
use std::sync::Arc;

/// No-boundary snapshot (PMHL's Q-Stage 3): `{L_i}` + `L̃` with distance
/// concatenation — the same-partition case and the four cross-partition
/// cases of §III-C.
pub struct NoBoundaryView {
    /// The algorithm that publishes the view.
    pub algorithm: &'static str,
    /// The query stage it is published as.
    pub stage: usize,
    /// The partition layout and the graph snapshot.
    pub partitioned: Arc<Partitioned>,
    /// The no-boundary partition indexes `{L_i}`, one per chunk.
    pub partition_indexes: CowVec<PartitionIndex>,
    /// The overlay graph and its id maps.
    pub overlay: Arc<OverlayGraph>,
    /// The overlay labels `L̃`.
    pub overlay_index: Arc<H2HIndex>,
}

impl FromSource for NoBoundaryView {
    fn partitioned(&self) -> &Partitioned {
        &self.partitioned
    }

    fn distance_from(&self, source: &mut Source, t: VertexId) -> Dist {
        let (partitioned, indexes) = (&*self.partitioned, &self.partition_indexes);
        let ps = source.partition;
        let mut best = INF;
        if partitioned.partition.partition_of(t) == ps {
            let sub = &partitioned.subgraphs[ps];
            let (ls, lt) = (sub.to_local(source.vertex), sub.to_local(t));
            best = indexes[ps].distance_local(ls.unwrap(), lt.unwrap());
        }
        // The route through the overlay: needed for cross-partition queries,
        // and possibly shorter than the in-partition route for
        // same-partition queries under the no-boundary strategy.
        let fan = |v| {
            boundary_fan(partitioned, v, |pi, lv, lb| {
                indexes[pi].distance_local(lv, lb)
            })
        };
        let from_t = fan(t);
        best.min(concatenate(
            &self.overlay,
            &self.overlay_index,
            source.fan(fan),
            &from_t,
        ))
    }
}

impl QueryView for NoBoundaryView {
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
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::QuerySet;
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;
    use htsp_td::TreeDecomposition;

    /// The no-boundary view over a `k`-partition of `g`.
    fn view(g: Graph, k: usize, seed: u64) -> NoBoundaryView {
        let pr = partition_region_growing(&g, k, seed);
        let p = Partitioned::build(g, pr);
        let indexes: Vec<PartitionIndex> = p.subgraphs.iter().map(PartitionIndex::build).collect();
        let chs: Vec<&htsp_ch::ContractionHierarchy> =
            indexes.iter().map(|i| i.hierarchy()).collect();
        let overlay = OverlayGraph::build(&p, &chs);
        let overlay_index = H2HIndex::from_decomposition(TreeDecomposition::build(&overlay.graph));
        NoBoundaryView {
            algorithm: "PMHL",
            stage: 2,
            partitioned: Arc::new(p),
            partition_indexes: CowVec::from_vec(indexes, 1),
            overlay: Arc::new(overlay),
            overlay_index: Arc::new(overlay_index),
        }
    }

    #[test]
    fn no_boundary_query_matches_dijkstra() {
        let view = view(grid(9, 9, WeightRange::new(1, 20), 13), 4, 2);
        let g = view.graph();
        let qs = QuerySet::random(g, 150, 21);
        let mut session = view.session();
        for q in &qs {
            let expect = dijkstra_distance(g, q.source, q.target);
            let got = view.distance(q.source, q.target);
            assert_eq!(got, expect, "no-boundary mismatch for {:?}", q);
            assert_eq!(session.query(q), expect, "session mismatch for {:?}", q);
        }
    }

    #[test]
    fn same_partition_queries_are_covered() {
        let view = view(grid(8, 8, WeightRange::new(1, 15), 5), 4, 7);
        let g = view.graph();
        // Pick pairs inside partition 0 explicitly.
        let members = view.partitioned.partition.vertices(0);
        for i in (0..members.len().saturating_sub(1)).step_by(3) {
            let (s, t) = (members[i], members[i + 1]);
            let expect = dijkstra_distance(g, s, t);
            assert_eq!(
                view.distance(s, t),
                expect,
                "same-partition mismatch {s}->{t}"
            );
        }
    }
}
