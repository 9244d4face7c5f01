//! Lowest Common Ancestor queries via Euler tour + sparse-table RMQ.
//!
//! H2H answers a query through the LCA of the two endpoint tree nodes
//! (§III-B, \[55\]); the sparse table gives O(1) LCA after O(n log n)
//! preprocessing, negligible next to the label arrays.
//!
//! Each tour entry is one [`TourEntry`]: the node's depth in the high half,
//! the node in the low half, plus one caller-chosen mark bit. The sparse
//! table keeps `u32` tour indices; one comparison of the two entries they
//! name yields the LCA together with its depth and mark, so a query needs no
//! further per-node load to learn either.

use htsp_graph::VertexId;

/// One Euler-tour entry: `depth << 32 | mark << 31 | vertex`.
///
/// Entries order by depth first. Inside one tree, the shallowest entry of
/// any contiguous tour range is unique (moving between two nodes of equal
/// depth passes through a shallower ancestor), so the minimum of two entries
/// is the LCA whatever the lower bits hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TourEntry(u64);

impl TourEntry {
    const MARK: u64 = 1 << 31;

    fn new(v: VertexId, depth: u32, mark: bool) -> Self {
        TourEntry(u64::from(depth) << 32 | u64::from(mark) << 31 | u64::from(v.0))
    }

    /// The tree node.
    #[inline]
    pub fn vertex(self) -> VertexId {
        VertexId(self.0 as u32 & !(Self::MARK as u32))
    }

    /// The node's depth (roots have depth 0).
    #[inline]
    pub fn depth(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// The node's mark, as given to [`LcaIndex::build`].
    #[inline]
    pub fn marked(self) -> bool {
        self.0 & Self::MARK != 0
    }
}

/// Constant-time LCA structure over a rooted forest.
#[derive(Clone, Debug)]
pub struct LcaIndex {
    /// First occurrence of each vertex in the Euler tour (`usize::MAX` if the
    /// vertex is not part of the forest).
    first: Vec<usize>,
    /// Euler tour of nodes with their depths and marks.
    tour: Vec<TourEntry>,
    /// Sparse table: `table[k][i]` = index (into `tour`) of the minimum-depth
    /// entry in `tour[i .. i + 2^k]`.
    table: Vec<Vec<u32>>,
    /// Component id of each vertex (vertices in different trees have no LCA).
    component: Vec<u32>,
}

impl LcaIndex {
    /// Builds the LCA index from parent/children arrays.
    ///
    /// `roots` lists the roots of the forest; `children[v]` lists the children
    /// of `v`; `depth[v]` is the depth of `v` (roots have depth 0);
    /// `mark(v)` is the bit [`TourEntry::marked`] returns for `v`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `2^31` (the mark takes the vertex's top bit).
    pub fn build(
        n: usize,
        roots: &[VertexId],
        children: &[Vec<VertexId>],
        depth: &[u32],
        mark: impl Fn(VertexId) -> bool,
    ) -> Self {
        assert!(n <= 1 << 31, "LCA tour entries hold vertex ids below 2^31");
        let entry = |v: VertexId| TourEntry::new(v, depth[v.index()], mark(v));
        let mut first = vec![usize::MAX; n];
        let mut tour = Vec::with_capacity(2 * n);
        let mut component = vec![u32::MAX; n];

        for (comp, &root) in roots.iter().enumerate() {
            // Iterative Euler tour: (vertex, next-child-index).
            let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
            component[root.index()] = comp as u32;
            first[root.index()] = tour.len();
            tour.push(entry(root));
            while let Some((v, ci)) = stack.pop() {
                if ci < children[v.index()].len() {
                    stack.push((v, ci + 1));
                    let c = children[v.index()][ci];
                    component[c.index()] = comp as u32;
                    first[c.index()] = tour.len();
                    tour.push(entry(c));
                    stack.push((c, 0));
                } else if let Some(&(parent, _)) = stack.last() {
                    // Returning to the parent: record it again.
                    tour.push(entry(parent));
                }
            }
        }

        // Sparse table over the tour entries.
        let m = tour.len();
        let levels = if m <= 1 {
            1
        } else {
            (usize::BITS - (m - 1).leading_zeros()) as usize + 1
        };
        let mut table: Vec<Vec<u32>> = Vec::with_capacity(levels);
        table.push((0..m as u32).collect());
        let mut k = 1;
        while (1usize << k) <= m {
            let half = 1usize << (k - 1);
            let prev = &table[k - 1];
            let mut row = Vec::with_capacity(m - (1 << k) + 1);
            for i in 0..=(m - (1 << k)) {
                let a = prev[i];
                let b = prev[i + half];
                row.push(if tour[a as usize] <= tour[b as usize] {
                    a
                } else {
                    b
                });
            }
            table.push(row);
            k += 1;
        }

        LcaIndex {
            first,
            tour,
            table,
            component,
        }
    }

    /// Returns the LCA of `u` and `v`, or `None` if they lie in different
    /// trees of the forest.
    pub fn lca(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        self.lca_entry(u, v).map(TourEntry::vertex)
    }

    /// [`Self::lca`] as its tour entry: the LCA with its depth and mark.
    #[inline]
    pub fn lca_entry(&self, u: VertexId, v: VertexId) -> Option<TourEntry> {
        let cu = self.component[u.index()];
        if cu != self.component[v.index()] || cu == u32::MAX {
            return None;
        }
        let (mut a, mut b) = (self.first[u.index()], self.first[v.index()]);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let len = b - a + 1;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let level = &self.table[k];
        let x = self.tour[level[a] as usize];
        let y = self.tour[level[b + 1 - (1 << k)] as usize];
        Some(x.min(y))
    }

    /// Index of `v`'s first occurrence in the Euler tour, which orders the
    /// forest depth-first: ancestors before descendants, subtrees contiguous.
    #[inline]
    pub fn first_visit(&self, v: VertexId) -> usize {
        self.first[v.index()]
    }

    /// Returns `true` if `anc` is an ancestor of `v` (or equal to it).
    pub fn is_ancestor(&self, anc: VertexId, v: VertexId) -> bool {
        self.lca(anc, v) == Some(anc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a small hand-rolled tree:
    /// ```text
    ///        0
    ///      /   \
    ///     1     2
    ///    / \     \
    ///   3   4     5
    ///       |
    ///       6
    /// ```
    fn sample() -> LcaIndex {
        let children = vec![
            vec![VertexId(1), VertexId(2)],
            vec![VertexId(3), VertexId(4)],
            vec![VertexId(5)],
            vec![],
            vec![VertexId(6)],
            vec![],
            vec![],
        ];
        let depth = vec![0, 1, 1, 2, 2, 2, 3];
        LcaIndex::build(7, &[VertexId(0)], &children, &depth, |_| false)
    }

    /// Number of parent steps from `v` up to its root.
    fn depth_by_walk(parent: &[Option<VertexId>], mut v: VertexId) -> u32 {
        let mut steps = 0;
        while let Some(p) = parent[v.index()] {
            v = p;
            steps += 1;
        }
        steps
    }

    #[test]
    fn basic_lca_queries() {
        let lca = sample();
        assert_eq!(lca.lca(VertexId(3), VertexId(4)), Some(VertexId(1)));
        assert_eq!(lca.lca(VertexId(3), VertexId(6)), Some(VertexId(1)));
        assert_eq!(lca.lca(VertexId(3), VertexId(5)), Some(VertexId(0)));
        assert_eq!(lca.lca(VertexId(6), VertexId(5)), Some(VertexId(0)));
        assert_eq!(lca.lca(VertexId(1), VertexId(6)), Some(VertexId(1)));
        assert_eq!(lca.lca(VertexId(0), VertexId(6)), Some(VertexId(0)));
        assert_eq!(lca.lca(VertexId(2), VertexId(2)), Some(VertexId(2)));
    }

    #[test]
    fn ancestor_checks() {
        let lca = sample();
        assert!(lca.is_ancestor(VertexId(0), VertexId(6)));
        assert!(lca.is_ancestor(VertexId(4), VertexId(6)));
        assert!(lca.is_ancestor(VertexId(4), VertexId(4)));
        assert!(!lca.is_ancestor(VertexId(6), VertexId(4)));
        assert!(!lca.is_ancestor(VertexId(2), VertexId(3)));
    }

    #[test]
    fn forest_components_have_no_cross_lca() {
        // Two chains: 0 - 1 - 4 and 2 - 3.
        let children = vec![
            vec![VertexId(1)],
            vec![VertexId(4)],
            vec![VertexId(3)],
            vec![],
            vec![],
        ];
        let parent = [
            None,
            Some(VertexId(0)),
            None,
            Some(VertexId(2)),
            Some(VertexId(1)),
        ];
        let depth = vec![0, 1, 0, 1, 2];
        let lca = LcaIndex::build(5, &[VertexId(0), VertexId(2)], &children, &depth, |v| {
            v.0 % 2 == 1
        });
        assert_eq!(lca.lca(VertexId(1), VertexId(3)), None);
        assert_eq!(lca.lca_entry(VertexId(4), VertexId(2)), None);
        for (u, v, expect) in [(0, 1, 0), (2, 3, 2), (4, 1, 1), (4, 4, 4), (3, 3, 3)] {
            let (u, v, expect) = (VertexId(u), VertexId(v), VertexId(expect));
            assert_eq!(lca.lca(u, v), Some(expect));
            let entry = lca.lca_entry(u, v).unwrap();
            assert_eq!(entry.vertex(), expect);
            assert_eq!(entry.depth(), depth_by_walk(&parent, expect), "{u}-{v}");
            assert_eq!(entry.marked(), expect.0 % 2 == 1, "{u}-{v}");
        }
    }

    #[test]
    fn single_vertex_tree() {
        let lca = LcaIndex::build(1, &[VertexId(0)], &[vec![]], &[0], |_| true);
        assert_eq!(lca.lca(VertexId(0), VertexId(0)), Some(VertexId(0)));
        assert!(lca.lca_entry(VertexId(0), VertexId(0)).unwrap().marked());
    }

    #[test]
    fn brute_force_agreement_on_random_tree() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let n = 200usize;
        let mut parent = vec![None::<VertexId>; n];
        let mut children = vec![Vec::new(); n];
        let mut depth = vec![0u32; n];
        for v in 1..n {
            let p = rng.gen_range(0..v);
            parent[v] = Some(VertexId::from_index(p));
            children[p].push(VertexId::from_index(v));
            depth[v] = depth[p] + 1;
        }
        let mark = |v: VertexId| v.0.is_multiple_of(3);
        let lca = LcaIndex::build(n, &[VertexId(0)], &children, &depth, mark);
        let brute = |mut a: usize, mut b: usize| -> usize {
            while depth[a] > depth[b] {
                a = parent[a].unwrap().index();
            }
            while depth[b] > depth[a] {
                b = parent[b].unwrap().index();
            }
            while a != b {
                a = parent[a].unwrap().index();
                b = parent[b].unwrap().index();
            }
            a
        };
        for _ in 0..500 {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            let (u, v) = (VertexId::from_index(a), VertexId::from_index(b));
            let expect = VertexId::from_index(brute(a, b));
            assert_eq!(lca.lca(u, v), Some(expect));
            let entry = lca.lca_entry(u, v).unwrap();
            assert_eq!(entry.vertex(), expect);
            assert_eq!(entry.depth(), depth_by_walk(&parent, expect), "{u}-{v}");
            assert_eq!(entry.marked(), mark(expect), "{u}-{v}");
        }
    }
}
