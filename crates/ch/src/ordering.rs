//! Vertex ordering for contraction.
//!
//! The paper uses Minimum Degree Elimination (MDE, §II) to produce both the
//! CH contraction order and the tree decomposition, so the two indexes share
//! shortcuts (Lemma 4). The order comes from the elimination in
//! `elimination.rs`, which tracks adjacency only: an all-pairs hierarchy
//! derives its shortcut rows from the order afterwards (`hierarchy.rs`), so
//! [`mde_order`] followed by a build on [`OrderingStrategy::Given`] costs
//! what a [`OrderingStrategy::MinDegree`] build costs. The PSP indexes
//! additionally need a *boundary-first* order (§IV-B), which is an MDE order
//! re-sorted and handed back as [`OrderingStrategy::Given`].
//!
//! The whole-graph all-pairs hierarchies (the tree decomposition under every
//! H2H-based index, and DCH) are ordered by
//! [`OrderingStrategy::NestedDissection`] instead: balanced minimum vertex
//! cuts from the topology alone, each leaf and separator ordered by the same
//! minimum-degree kernel on its own live graph (`dissection.rs`). MinDegree
//! stays the order of the witness-pruned TOAIN build, of the partition
//! hierarchies and of [`mde_order`].

use crate::elimination::min_degree_order;
use htsp_graph::{Graph, VertexId};
use rustc_hash::FxHashSet;

/// A total order over vertices: `rank[v]` is the contraction position of `v`
/// (0 = contracted first = least important).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VertexOrder {
    rank: Vec<u32>,
    by_rank: Vec<VertexId>,
}

impl VertexOrder {
    /// Builds an order from a rank vector (must be a permutation of `0..n`).
    ///
    /// # Panics
    /// Panics if it is not; [`Self::try_from_ranks`] says why instead.
    pub fn from_ranks(rank: Vec<u32>) -> Self {
        Self::try_from_ranks(rank).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds an order from a rank vector, or says why it is not a
    /// permutation of `0..n`.
    pub fn try_from_ranks(rank: Vec<u32>) -> Result<Self, String> {
        let n = rank.len();
        let mut by_rank = vec![VertexId(0); n];
        let mut seen = vec![false; n];
        for (v, &r) in rank.iter().enumerate() {
            if r as usize >= n {
                return Err(format!(
                    "rank {r} of vertex {v} out of range for {n} vertices"
                ));
            }
            if std::mem::replace(&mut seen[r as usize], true) {
                return Err(format!(
                    "duplicate rank {r} (vertex {v}); ranks must be a permutation"
                ));
            }
            by_rank[r as usize] = VertexId::from_index(v);
        }
        Ok(VertexOrder { rank, by_rank })
    }

    /// Builds an order from the contraction sequence (first element is
    /// contracted first).
    pub fn from_sequence(seq: Vec<VertexId>) -> Self {
        let n = seq.len();
        let mut rank = vec![u32::MAX; n];
        for (r, &v) in seq.iter().enumerate() {
            assert!(v.index() < n, "vertex {v} out of range");
            assert_eq!(rank[v.index()], u32::MAX, "vertex {v} appears twice");
            rank[v.index()] = r as u32;
        }
        VertexOrder { rank, by_rank: seq }
    }

    /// Number of vertices covered by the order.
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// Returns `true` if the order covers no vertices.
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// Rank of `v` (higher = more important = contracted later).
    #[inline]
    pub fn rank(&self, v: VertexId) -> u32 {
        self.rank[v.index()]
    }

    /// The vertex with rank `r`.
    #[inline]
    pub fn vertex_at(&self, r: u32) -> VertexId {
        self.by_rank[r as usize]
    }

    /// Returns `true` if `u` is ranked higher (more important) than `v`.
    #[inline]
    pub fn higher(&self, u: VertexId, v: VertexId) -> bool {
        self.rank(u) > self.rank(v)
    }

    /// Contraction sequence, least important first.
    pub fn sequence(&self) -> &[VertexId] {
        &self.by_rank
    }

    /// Raw rank vector.
    pub fn ranks(&self) -> &[u32] {
        &self.rank
    }
}

/// How to obtain the contraction order.
#[derive(Clone, Debug)]
pub enum OrderingStrategy {
    /// Minimum Degree Elimination on the contraction graph (the paper's
    /// default, §II).
    MinDegree,
    /// Nested dissection by minimum vertex cuts, computed from the topology
    /// alone, with MinDegree inside the parts too small to cut
    /// (`dissection.rs`). Its tree is shallower and narrower than
    /// MinDegree's on road-like graphs; the whole-graph all-pairs
    /// hierarchies (`TreeDecomposition::build`, DCH) are built on it. A
    /// witness-pruned build takes it as a given order.
    NestedDissection,
    /// A caller-supplied order (used for boundary-first PSP orders, §IV-B).
    Given(VertexOrder),
}

/// Computes an MDE order: repeatedly eliminates a vertex of minimum current
/// degree in the contraction graph (where elimination connects all remaining
/// neighbors of the removed vertex into a clique). Ties are broken by vertex
/// id, so the order is a pure function of the graph's topology.
///
/// A build on this order as [`OrderingStrategy::Given`] eliminates nothing
/// more: it fills and customizes, as a [`OrderingStrategy::MinDegree`]
/// build does after its own elimination.
pub fn mde_order(graph: &Graph) -> VertexOrder {
    min_degree_order(graph)
}

/// Computes a *boundary-first* MDE order: all vertices in `boundary` receive
/// higher ranks than every non-boundary vertex, and within each class the
/// relative order follows MDE on the full graph.
///
/// This is the ordering required by the PSP indexes (§IV-B, Boundary-first
/// Property) and used by PMHL construction (Algorithm 3, line 2).
pub fn boundary_first_order(graph: &Graph, boundary: &FxHashSet<VertexId>) -> VertexOrder {
    let base = mde_order(graph);
    let mut non_boundary: Vec<VertexId> = Vec::new();
    let mut bound: Vec<VertexId> = Vec::new();
    for &v in base.sequence() {
        if boundary.contains(&v) {
            bound.push(v);
        } else {
            non_boundary.push(v);
        }
    }
    non_boundary.extend(bound);
    VertexOrder::from_sequence(non_boundary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::GraphBuilder;

    #[test]
    fn from_ranks_roundtrip() {
        let order = VertexOrder::from_ranks(vec![2, 0, 1]);
        assert_eq!(order.rank(VertexId(0)), 2);
        assert_eq!(order.vertex_at(2), VertexId(0));
        assert_eq!(order.vertex_at(0), VertexId(1));
        assert!(order.higher(VertexId(0), VertexId(1)));
    }

    #[test]
    #[should_panic(expected = "duplicate rank")]
    fn duplicate_rank_rejected() {
        let _ = VertexOrder::from_ranks(vec![0, 0, 1]);
    }

    #[test]
    fn from_sequence_matches_from_ranks() {
        let a = VertexOrder::from_sequence(vec![VertexId(1), VertexId(2), VertexId(0)]);
        let b = VertexOrder::from_ranks(vec![2, 0, 1]);
        assert_eq!(a, b);
    }

    #[test]
    fn mde_order_is_a_permutation() {
        let g = grid(8, 8, WeightRange::default(), 3);
        let order = mde_order(&g);
        assert_eq!(order.len(), g.num_vertices());
        let mut ranks: Vec<u32> = order.ranks().to_vec();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..g.num_vertices() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn mde_contracts_low_degree_first() {
        // A star: the leaves (degree 1) must all be contracted before the hub.
        let mut b = GraphBuilder::new(6);
        for i in 1..6 {
            b.add_edge(VertexId(0), VertexId(i), 1);
        }
        let g = b.build();
        let order = mde_order(&g);
        // The hub can only become minimum-degree once most leaves are gone.
        assert!(
            order.rank(VertexId(0)) >= 4,
            "hub must be contracted after most leaves (rank {})",
            order.rank(VertexId(0))
        );
    }

    #[test]
    fn mde_is_deterministic() {
        let g = grid(10, 10, WeightRange::default(), 3);
        assert_eq!(mde_order(&g), mde_order(&g));
    }

    #[test]
    fn boundary_first_order_puts_boundary_on_top() {
        let g = grid(6, 6, WeightRange::default(), 3);
        let boundary: FxHashSet<VertexId> = [VertexId(0), VertexId(17), VertexId(35)]
            .into_iter()
            .collect();
        let order = boundary_first_order(&g, &boundary);
        let n = g.num_vertices() as u32;
        for v in g.vertices() {
            if boundary.contains(&v) {
                assert!(order.rank(v) >= n - 3, "boundary vertex {v} ranked too low");
            } else {
                assert!(order.rank(v) < n - 3, "interior vertex {v} ranked too high");
            }
        }
    }
}
