//! Lowest Common Ancestor queries via Euler tour + sparse-table RMQ.
//!
//! H2H answers a query through the LCA of the two endpoint tree nodes
//! (§III-B, \[55\]); the sparse table gives O(1) LCA after O(n log n)
//! preprocessing, negligible next to the label arrays.

use htsp_graph::VertexId;

/// Constant-time LCA structure over a rooted forest.
#[derive(Clone, Debug)]
pub struct LcaIndex {
    /// First occurrence of each vertex in the Euler tour (`usize::MAX` if the
    /// vertex is not part of the forest).
    first: Vec<usize>,
    /// Euler tour of vertices.
    tour: Vec<VertexId>,
    /// Depth of each tour entry.
    tour_depth: Vec<u32>,
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
    /// of `v`; `depth[v]` is the depth of `v` (roots have depth 0).
    pub fn build(n: usize, roots: &[VertexId], children: &[Vec<VertexId>], depth: &[u32]) -> Self {
        let mut first = vec![usize::MAX; n];
        let mut tour = Vec::with_capacity(2 * n);
        let mut tour_depth = Vec::with_capacity(2 * n);
        let mut component = vec![u32::MAX; n];

        for (comp, &root) in roots.iter().enumerate() {
            // Iterative Euler tour: (vertex, next-child-index).
            let mut stack: Vec<(VertexId, usize)> = vec![(root, 0)];
            component[root.index()] = comp as u32;
            first[root.index()] = tour.len();
            tour.push(root);
            tour_depth.push(depth[root.index()]);
            while let Some((v, ci)) = stack.pop() {
                if ci < children[v.index()].len() {
                    stack.push((v, ci + 1));
                    let c = children[v.index()][ci];
                    component[c.index()] = comp as u32;
                    first[c.index()] = tour.len();
                    tour.push(c);
                    tour_depth.push(depth[c.index()]);
                    stack.push((c, 0));
                } else if let Some(&(parent, _)) = stack.last() {
                    // Returning to the parent: record it again.
                    tour.push(parent);
                    tour_depth.push(depth[parent.index()]);
                }
            }
        }

        // Sparse table over tour_depth.
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
                row.push(if tour_depth[a as usize] <= tour_depth[b as usize] {
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
            tour_depth,
            table,
            component,
        }
    }

    /// Returns the LCA of `u` and `v`, or `None` if they lie in different
    /// trees of the forest.
    pub fn lca(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        if self.component[u.index()] != self.component[v.index()]
            || self.component[u.index()] == u32::MAX
        {
            return None;
        }
        if u == v {
            return Some(u);
        }
        let (mut a, mut b) = (self.first[u.index()], self.first[v.index()]);
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let len = b - a + 1;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let x = self.table[k][a];
        let y = self.table[k][b + 1 - (1 << k)];
        let best = if self.tour_depth[x as usize] <= self.tour_depth[y as usize] {
            x
        } else {
            y
        };
        Some(self.tour[best as usize])
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
        LcaIndex::build(7, &[VertexId(0)], &children, &depth)
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
        let children = vec![vec![VertexId(1)], vec![], vec![VertexId(3)], vec![]];
        let depth = vec![0, 1, 0, 1];
        let lca = LcaIndex::build(4, &[VertexId(0), VertexId(2)], &children, &depth);
        assert_eq!(lca.lca(VertexId(1), VertexId(3)), None);
        assert_eq!(lca.lca(VertexId(0), VertexId(1)), Some(VertexId(0)));
        assert_eq!(lca.lca(VertexId(2), VertexId(3)), Some(VertexId(2)));
    }

    #[test]
    fn single_vertex_tree() {
        let lca = LcaIndex::build(1, &[VertexId(0)], &[vec![]], &[0]);
        assert_eq!(lca.lca(VertexId(0), VertexId(0)), Some(VertexId(0)));
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
        let lca = LcaIndex::build(n, &[VertexId(0)], &children, &depth);
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
            assert_eq!(
                lca.lca(VertexId::from_index(a), VertexId::from_index(b)),
                Some(VertexId::from_index(brute(a, b)))
            );
        }
    }
}
