//! MDE tree decomposition built on top of the CH contraction.

use crate::h2h::scans_prefix;
use crate::lca::{LcaIndex, TourEntry};
use htsp_ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode, VertexOrder};
use htsp_graph::cow::CowStats;
use htsp_graph::{Graph, VertexId, Weight};
use std::sync::Arc;

/// The immutable tree shape of a decomposition: parents, children, depths,
/// orders and the LCA structure (whose tour also carries the H2H query
/// kernel's per-node scan-or-gather choice). Weight-only update batches
/// never change the shape (the bags are the CH's fixed arc sets; only
/// shortcut *weights* move), so all clones of a decomposition share one copy
/// behind an `Arc`.
#[derive(Debug)]
struct TreeShape {
    parent: Vec<Option<VertexId>>,
    children: Vec<Vec<VertexId>>,
    depth: Vec<u32>,
    roots: Vec<VertexId>,
    /// Vertices in a top-down order (every parent precedes its children).
    topdown: Vec<VertexId>,
    lca: LcaIndex,
}

/// A tree decomposition of a road network obtained by Minimum Degree
/// Elimination (Definition 1 of the paper).
///
/// Node `X(v)` corresponds to vertex `v`; its bag is `{v} ∪ X(v).N`, where
/// `X(v).N` — the neighbors of `v` in the contraction graph when `v` was
/// removed — is exactly the upward-arc set of the underlying
/// [`ContractionHierarchy`] (Lemma 4). The parent of `X(v)` is the
/// lowest-ranked vertex of `X(v).N`.
///
/// Cloning a decomposition is cheap: the tree shape is shared behind an
/// `Arc`, and the hierarchy's mutable shortcut table is chunked
/// copy-on-write — see [`ContractionHierarchy`].
#[derive(Clone, Debug)]
pub struct TreeDecomposition {
    ch: ContractionHierarchy,
    shape: Arc<TreeShape>,
}

impl TreeDecomposition {
    /// Builds the decomposition with the default MDE ordering.
    pub fn build(graph: &Graph) -> Self {
        Self::build_pooled(graph, &htsp_graph::WorkerPool::sequential())
    }

    /// [`Self::build`] behind the signature of the pooled builders; the
    /// elimination is sequential (see [`ContractionHierarchy::build_pooled`]).
    pub fn build_pooled(graph: &Graph, pool: &htsp_graph::WorkerPool) -> Self {
        let ch = ContractionHierarchy::build_pooled(
            graph,
            OrderingStrategy::MinDegree,
            ShortcutMode::AllPairs,
            pool,
        );
        Self::from_hierarchy(ch)
    }

    /// Builds the decomposition with an explicit vertex order (used for the
    /// boundary-first orders of the PSP indexes, §IV-B).
    pub fn build_with_order(graph: &Graph, order: VertexOrder) -> Self {
        let ch = ContractionHierarchy::build_with_order(graph, order, ShortcutMode::AllPairs);
        Self::from_hierarchy(ch)
    }

    /// Wraps an existing all-pairs contraction hierarchy.
    ///
    /// # Panics
    /// Panics if the hierarchy was built with witness pruning, since its
    /// upward arcs would not form valid tree-decomposition bags.
    pub fn from_hierarchy(ch: ContractionHierarchy) -> Self {
        assert!(
            matches!(ch.mode(), ShortcutMode::AllPairs),
            "tree decomposition requires all-pairs shortcuts"
        );
        let n = ch.num_vertices();
        let mut parent = vec![None; n];
        let mut children: Vec<Vec<VertexId>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (v, slot) in parent.iter_mut().enumerate() {
            let vid = VertexId::from_index(v);
            // Parent = lowest-ranked upward neighbor (arcs are sorted by rank).
            match ch.up_arcs(vid).first() {
                Some(&(p, _)) => {
                    *slot = Some(p);
                    children[p.index()].push(vid);
                }
                None => roots.push(vid),
            }
        }
        // Depths and a top-down order via BFS from the roots.
        let mut depth = vec![0u32; n];
        let mut topdown = Vec::with_capacity(n);
        let mut queue: std::collections::VecDeque<VertexId> = roots.iter().copied().collect();
        while let Some(v) = queue.pop_front() {
            topdown.push(v);
            for &c in &children[v.index()] {
                depth[c.index()] = depth[v.index()] + 1;
                queue.push_back(c);
            }
        }
        assert_eq!(
            topdown.len(),
            n,
            "tree decomposition must cover all vertices"
        );
        // The query kernel's scan-or-gather choice depends only on a node's
        // depth and bag size, which weight updates never change: made once
        // here, it rides in the node's tour entry.
        let lca = LcaIndex::build(n, &roots, &children, &depth, |v| {
            scans_prefix(depth[v.index()], ch.up_arcs(v).len())
        });
        TreeDecomposition {
            ch,
            shape: Arc::new(TreeShape {
                parent,
                children,
                depth,
                roots,
                topdown,
                lca,
            }),
        }
    }

    /// The underlying contraction hierarchy (shortcut arrays `X(v).sc`).
    pub fn hierarchy(&self) -> &ContractionHierarchy {
        &self.ch
    }

    /// Mutable access to the hierarchy, used by DH2H's shortcut-update phase.
    pub fn hierarchy_mut(&mut self) -> &mut ContractionHierarchy {
        &mut self.ch
    }

    /// The contraction order shared by CH and the decomposition.
    pub fn order(&self) -> &VertexOrder {
        self.ch.order()
    }

    /// Cumulative copy-on-write clone effort of the mutable shortcut arrays
    /// (the tree shape is immutable and never cloned).
    pub fn cow_stats(&self) -> CowStats {
        self.ch.cow_stats()
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.shape.parent.len()
    }

    /// The neighbor set `X(v).N` with shortcut weights `X(v).sc`.
    #[inline]
    pub fn bag(&self, v: VertexId) -> &[(VertexId, Weight)] {
        self.ch.up_arcs(v)
    }

    /// Parent node, `None` for roots.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        self.shape.parent[v.index()]
    }

    /// Children of `v`.
    #[inline]
    pub fn children(&self, v: VertexId) -> &[VertexId] {
        &self.shape.children[v.index()]
    }

    /// Depth of `v` (roots have depth 0); equals the number of ancestors.
    #[inline]
    pub fn depth(&self, v: VertexId) -> u32 {
        self.shape.depth[v.index()]
    }

    /// Roots of the forest (one per connected component).
    pub fn roots(&self) -> &[VertexId] {
        &self.shape.roots
    }

    /// Vertices in an order where every parent precedes its children.
    pub fn topdown_order(&self) -> &[VertexId] {
        &self.shape.topdown
    }

    /// The LCA structure over the decomposition tree.
    pub fn lca_index(&self) -> &LcaIndex {
        &self.shape.lca
    }

    /// LCA of two nodes (None if they are in different components).
    pub fn lca(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        self.shape.lca.lca(u, v)
    }

    /// [`Self::lca`] with the LCA's depth, marked when the H2H query kernel
    /// answers a pair with this LCA by the prefix scan rather than the bag
    /// gather ([`label_distance`](crate::label_distance)).
    #[inline]
    pub fn lca_entry(&self, u: VertexId, v: VertexId) -> Option<TourEntry> {
        self.shape.lca.lca_entry(u, v)
    }

    /// Returns the ancestors of `v` from the root down to its parent.
    pub fn ancestors(&self, v: VertexId) -> Vec<VertexId> {
        let mut path = Vec::with_capacity(self.depth(v) as usize);
        self.ancestors_into(v, &mut path);
        path
    }

    /// [`Self::ancestors`] into a caller-owned buffer (cleared first).
    pub fn ancestors_into(&self, v: VertexId, path: &mut Vec<VertexId>) {
        path.clear();
        let mut cur = self.parent(v);
        while let Some(p) = cur {
            path.push(p);
            cur = self.parent(p);
        }
        path.reverse();
    }

    /// Position of `v` in a depth-first preorder of the forest: every vertex
    /// sorts before its descendants, and a subtree is a contiguous run.
    #[inline]
    pub fn preorder(&self, v: VertexId) -> usize {
        self.shape.lca.first_visit(v)
    }

    /// Tree height: `max depth + 1` (the `h` of Theorem 5).
    pub fn height(&self) -> u32 {
        self.shape.depth.iter().copied().max().map_or(0, |d| d + 1)
    }

    /// Treewidth upper bound: the maximum bag size minus one (`w` of Theorem 5).
    pub fn treewidth(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.bag(VertexId::from_index(v)).len())
            .max()
            .unwrap_or(0)
    }

    /// Number of descendants of each vertex, itself included (the `cN` vector
    /// of TD-partitioning, Algorithm 2 lines 2-5).
    pub fn subtree_sizes(&self) -> Vec<u32> {
        let n = self.num_vertices();
        let mut sizes = vec![1u32; n];
        for &v in self.shape.topdown.iter().rev() {
            if let Some(p) = self.parent(v) {
                sizes[p.index()] += sizes[v.index()];
            }
        }
        sizes
    }

    /// Validates the tree-decomposition properties of Definition 1 against the
    /// original graph; intended for tests.
    pub fn validate(&self, graph: &Graph) -> Result<(), String> {
        let n = self.num_vertices();
        if n != graph.num_vertices() {
            return Err("vertex count mismatch".into());
        }
        // Property 2: every edge is contained in some bag. Since the bag of
        // the lower-ranked endpoint contains the higher endpoint, check that.
        for (_, u, v, _) in graph.edges() {
            let (lo, hi) = if self.order().higher(u, v) {
                (v, u)
            } else {
                (u, v)
            };
            if !self.bag(lo).iter().any(|&(x, _)| x == hi) {
                return Err(format!("edge {lo}-{hi} not covered by bag of {lo}"));
            }
        }
        // Parent must be the lowest-ranked bag member and deeper bags must be
        // connected upwards (property 3 follows from the MDE construction; we
        // check the parent choice here).
        for v in 0..n {
            let vid = VertexId::from_index(v);
            if let Some(p) = self.parent(vid) {
                let min_rank = self
                    .bag(vid)
                    .iter()
                    .map(|&(x, _)| self.order().rank(x))
                    .min()
                    .unwrap();
                if self.order().rank(p) != min_rank {
                    return Err(format!("parent of {vid} is not its lowest-ranked neighbor"));
                }
                if self.depth(p) + 1 != self.depth(vid) {
                    return Err(format!("depth of {vid} inconsistent with parent"));
                }
            }
            // Every bag member must be an ancestor of v in the tree.
            for &(u, _) in self.bag(vid) {
                if !self.shape.lca.is_ancestor(u, vid) {
                    return Err(format!("bag member {u} of {vid} is not an ancestor"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, random_geometric, WeightRange};

    #[test]
    fn grid_decomposition_is_valid() {
        let g = grid(8, 8, WeightRange::new(1, 9), 3);
        let td = TreeDecomposition::build(&g);
        td.validate(&g).unwrap();
        assert_eq!(td.roots().len(), 1);
        assert!(td.height() >= 2);
        assert!(td.treewidth() >= 2);
    }

    #[test]
    fn geometric_decomposition_is_valid() {
        let g = random_geometric(200, 3, WeightRange::new(1, 50), 7);
        let td = TreeDecomposition::build(&g);
        td.validate(&g).unwrap();
    }

    #[test]
    fn topdown_order_puts_parents_first() {
        let g = grid(6, 6, WeightRange::new(1, 9), 5);
        let td = TreeDecomposition::build(&g);
        let mut seen = vec![false; g.num_vertices()];
        for &v in td.topdown_order() {
            if let Some(p) = td.parent(v) {
                assert!(seen[p.index()], "parent of {v} not yet visited");
            }
            seen[v.index()] = true;
        }
    }

    #[test]
    fn ancestors_follow_parent_chain() {
        let g = grid(6, 6, WeightRange::new(1, 9), 5);
        let td = TreeDecomposition::build(&g);
        for v in g.vertices() {
            let anc = td.ancestors(v);
            assert_eq!(anc.len(), td.depth(v) as usize);
            for pair in anc.windows(2) {
                assert_eq!(td.parent(pair[1]), Some(pair[0]));
            }
            if let Some(&last) = anc.last() {
                assert_eq!(td.parent(v), Some(last));
            }
            // Ancestor depths are 0..depth(v).
            for (i, &a) in anc.iter().enumerate() {
                assert_eq!(td.depth(a) as usize, i);
            }
        }
    }

    #[test]
    fn subtree_sizes_sum_to_n_at_roots() {
        let g = grid(7, 5, WeightRange::new(1, 9), 5);
        let td = TreeDecomposition::build(&g);
        let sizes = td.subtree_sizes();
        let total: u32 = td.roots().iter().map(|&r| sizes[r.index()]).sum();
        assert_eq!(total as usize, g.num_vertices());
        for v in g.vertices() {
            let child_sum: u32 = td.children(v).iter().map(|&c| sizes[c.index()]).sum();
            assert_eq!(sizes[v.index()], child_sum + 1);
        }
    }

    #[test]
    fn bag_members_are_higher_ranked_ancestors() {
        let g = grid(6, 6, WeightRange::new(1, 9), 2);
        let td = TreeDecomposition::build(&g);
        for v in g.vertices() {
            for &(u, _) in td.bag(v) {
                assert!(td.order().higher(u, v));
                assert!(td.lca_index().is_ancestor(u, v));
            }
        }
    }

    #[test]
    fn disconnected_graph_yields_forest() {
        use htsp_graph::GraphBuilder;
        let mut b = GraphBuilder::new(6);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.add_edge(VertexId(1), VertexId(2), 1);
        b.add_edge(VertexId(3), VertexId(4), 1);
        b.add_edge(VertexId(4), VertexId(5), 1);
        let g = b.build();
        let td = TreeDecomposition::build(&g);
        assert_eq!(td.roots().len(), 2);
        td.validate(&g).unwrap();
    }
}
