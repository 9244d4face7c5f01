//! Lowest Common Ancestor queries via a sparse table over the DFS preorder.
//!
//! H2H answers a query through the LCA of the two endpoint tree nodes
//! (§III-B, \[55\]); the sparse table gives O(1) LCA after O(n log n)
//! preprocessing, negligible next to the label arrays.
//!
//! Position `i` of the forest's depth-first preorder holds one word for the
//! vertex `w` placed there: `depth(w) << 32 | parent(w)`. For `u ≠ v` with
//! `pre[u] < pre[v]`, the shallowest vertex of the preorder range
//! `(pre[u], pre[v]]` is a child of the LCA — the range lies inside the
//! LCA's subtree, below the LCA itself, and holds the LCA's child on the way
//! to `v` — so the minimum word of the range names the LCA and, one less,
//! its depth. Two vertices of different trees have a root between them, and
//! a root's word has depth 0. A query is one `pre` load per side followed by
//! one sparse-table load per side; there is no Euler tour and no component
//! array.

use htsp_graph::VertexId;

/// A tree node with its depth: `depth << 32 | vertex`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct LcaEntry(u64);

impl LcaEntry {
    /// The tree node.
    #[inline]
    pub fn vertex(self) -> VertexId {
        VertexId(self.0 as u32)
    }

    /// The node's depth (roots have depth 0).
    #[inline]
    pub fn depth(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One unit of depth in a table word.
const DEPTH_ONE: u64 = 1 << 32;

/// Constant-time LCA structure over a rooted forest.
#[derive(Clone, Debug)]
pub struct LcaIndex {
    /// Preorder position of each vertex.
    pre: Vec<u32>,
    /// The vertices in depth-first preorder (the inverse of `pre`): every
    /// parent precedes its children and every subtree is a contiguous run.
    order: Vec<VertexId>,
    /// Number of vertices in each vertex's subtree, itself included.
    size: Vec<u32>,
    /// Sparse table, level `k` at `table[k * n ..][..n]`: entry `i` is the
    /// minimum word of preorder positions `i .. i + 2^k` (level 0 is the
    /// words themselves, `depth(w) << 32 | parent(w)`; a root's depth is 0).
    table: Vec<u64>,
}

impl LcaIndex {
    /// Builds the LCA index from parent/children arrays.
    ///
    /// `roots` lists the roots of the forest; `children[v]` lists the children
    /// of `v`; `depth[v]` is the depth of `v` (roots have depth 0).
    ///
    /// # Panics
    /// Panics if the forest does not cover all `n` vertices.
    pub fn build(n: usize, roots: &[VertexId], children: &[Vec<VertexId>], depth: &[u32]) -> Self {
        let mut pre = vec![u32::MAX; n];
        let mut order = Vec::with_capacity(n);
        let levels = (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1) as usize;
        let mut table = Vec::with_capacity(levels * n);
        // Depth-first, children in order; each vertex's word names its
        // parent (a root names itself, at depth 0).
        let mut stack: Vec<(VertexId, VertexId)> = roots.iter().rev().map(|&r| (r, r)).collect();
        while let Some((v, p)) = stack.pop() {
            pre[v.index()] = order.len() as u32;
            order.push(v);
            table.push(u64::from(depth[v.index()]) << 32 | u64::from(p.0));
            stack.extend(children[v.index()].iter().rev().map(|&c| (c, v)));
        }
        assert_eq!(order.len(), n, "the forest must cover all vertices");
        let mut size = vec![1u32; n];
        for (&v, &word) in order.iter().zip(&table).rev() {
            if word >= DEPTH_ONE {
                size[word as u32 as usize] += size[v.index()];
            }
        }

        // The levels above: a query range spans at most n - 1 positions.
        for k in 1..levels {
            let half = 1usize << (k - 1);
            let prev = (k - 1) * n;
            for i in 0..n {
                // Past the last full window an entry is never read; it keeps
                // its shorter window's minimum.
                let right = (i + half).min(n - 1);
                table.push(table[prev + i].min(table[prev + right]));
            }
        }

        LcaIndex {
            pre,
            order,
            size,
            table,
        }
    }

    /// Returns the LCA of `u` and `v`, or `None` if they lie in different
    /// trees of the forest.
    pub fn lca(&self, u: VertexId, v: VertexId) -> Option<VertexId> {
        self.lca_entry(u, v).map(LcaEntry::vertex)
    }

    /// [`Self::lca`] with the LCA's depth.
    #[inline]
    pub fn lca_entry(&self, u: VertexId, v: VertexId) -> Option<LcaEntry> {
        let (a, b) = (self.pre[u.index()] as usize, self.pre[v.index()] as usize);
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        if lo == hi {
            // `u == v`: its own word carries its depth.
            return Some(LcaEntry(self.table[lo] & !(DEPTH_ONE - 1) | u64::from(u.0)));
        }
        let len = hi - lo;
        let k = (usize::BITS - 1 - len.leading_zeros()) as usize;
        let level = &self.table[k * self.pre.len()..];
        let word = level[lo + 1].min(level[hi + 1 - (1 << k)]);
        // The shallowest vertex in the range is the LCA's child, unless it is
        // a root (depth 0): then the two lie in different trees.
        word.checked_sub(DEPTH_ONE).map(LcaEntry)
    }

    /// Position of `v` in the forest's depth-first preorder, in `0..n`.
    #[inline]
    pub fn preorder(&self, v: VertexId) -> usize {
        self.pre[v.index()] as usize
    }

    /// The vertices in depth-first preorder: every parent precedes its
    /// children, and a subtree is a contiguous run.
    pub fn order(&self) -> &[VertexId] {
        &self.order
    }

    /// Number of vertices in each vertex's subtree, itself included.
    pub fn subtree_sizes(&self) -> &[u32] {
        &self.size
    }

    /// Returns `true` if `anc` is an ancestor of `v` (or equal to it): `v`
    /// lies in the preorder run of `anc`'s subtree.
    #[inline]
    pub fn is_ancestor(&self, anc: VertexId, v: VertexId) -> bool {
        let (a, x) = (self.pre[anc.index()], self.pre[v.index()]);
        a <= x && x - a < self.size[anc.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

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

    /// A forest given by its parent array, with everything `build` needs.
    struct Forest {
        parent: Vec<Option<VertexId>>,
        depth: Vec<u32>,
        lca: LcaIndex,
    }

    impl Forest {
        fn new(parent: Vec<Option<VertexId>>) -> Self {
            let n = parent.len();
            let mut children = vec![Vec::new(); n];
            let mut roots = Vec::new();
            for (v, p) in parent.iter().enumerate() {
                match p {
                    Some(p) => children[p.index()].push(VertexId::from_index(v)),
                    None => roots.push(VertexId::from_index(v)),
                }
            }
            let depth: Vec<u32> = (0..n)
                .map(|v| depth_by_walk(&parent, VertexId::from_index(v)))
                .collect();
            let lca = LcaIndex::build(n, &roots, &children, &depth);
            Forest { parent, depth, lca }
        }

        fn root(&self, mut v: VertexId) -> VertexId {
            while let Some(p) = self.parent[v.index()] {
                v = p;
            }
            v
        }

        /// The LCA by walking up, `None` across trees.
        fn brute(&self, mut a: VertexId, mut b: VertexId) -> Option<VertexId> {
            if self.root(a) != self.root(b) {
                return None;
            }
            while self.depth[a.index()] > self.depth[b.index()] {
                a = self.parent[a.index()].unwrap();
            }
            while self.depth[b.index()] > self.depth[a.index()] {
                b = self.parent[b.index()].unwrap();
            }
            while a != b {
                a = self.parent[a.index()].unwrap();
                b = self.parent[b.index()].unwrap();
            }
            Some(a)
        }

        /// `lca`, `lca_entry` and `is_ancestor` against the walk for `u, v`.
        fn check(&self, u: VertexId, v: VertexId) {
            let expect = self.brute(u, v);
            assert_eq!(self.lca.lca(u, v), expect, "{u}-{v}");
            let entry = self.lca.lca_entry(u, v);
            assert_eq!(entry.map(LcaEntry::vertex), expect, "{u}-{v}");
            if let (Some(entry), Some(x)) = (entry, expect) {
                assert_eq!(entry.depth(), self.depth[x.index()], "{u}-{v}");
            }
            assert_eq!(
                self.lca.is_ancestor(u, v),
                expect == Some(u),
                "{u} above {v}"
            );
        }

        /// `preorder` is a permutation of `0..n`, `order` its inverse, and
        /// every subtree is the contiguous run of its size from its root.
        fn check_preorder(&self) {
            let n = self.parent.len();
            let mut seen = vec![false; n];
            for v in 0..n {
                let vid = VertexId::from_index(v);
                let p = self.lca.preorder(vid);
                assert!(p < n && !seen[p], "preorder of {vid}");
                seen[p] = true;
                assert_eq!(self.lca.order()[p], vid);
            }
            let sizes = self.lca.subtree_sizes();
            for a in 0..n {
                let a = VertexId::from_index(a);
                let start = self.lca.preorder(a);
                let run = start..start + sizes[a.index()] as usize;
                for v in 0..n {
                    let v = VertexId::from_index(v);
                    let below = self.brute(a, v) == Some(a);
                    assert_eq!(run.contains(&self.lca.preorder(v)), below, "{v} under {a}");
                }
            }
        }
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

    /// A random forest of `n` vertices in `trees` trees: vertex `v` hangs
    /// below a random earlier vertex of its own tree, after shuffling ids.
    fn random_forest(rng: &mut rand_chacha::ChaCha8Rng, n: usize, trees: usize) -> Forest {
        let mut ids: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            ids.swap(i, rng.gen_range(0..=i));
        }
        let mut parent = vec![None; n];
        for (i, &v) in ids.iter().enumerate().skip(trees.min(n)) {
            // Positions `t, t + trees, t + 2·trees, ...` form tree `t`.
            let tree = i % trees;
            let below = rng.gen_range(0..=(i - tree) / trees - 1);
            parent[v] = Some(VertexId::from_index(ids[tree + below * trees]));
        }
        Forest::new(parent)
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
        let order: Vec<u32> = lca.order().iter().map(|v| v.0).collect();
        assert_eq!(order, [0, 1, 3, 4, 6, 2, 5]);
    }

    #[test]
    fn ancestor_checks() {
        let lca = sample();
        assert!(lca.is_ancestor(VertexId(0), VertexId(6)));
        assert!(lca.is_ancestor(VertexId(4), VertexId(6)));
        assert!(lca.is_ancestor(VertexId(4), VertexId(4)));
        assert!(!lca.is_ancestor(VertexId(6), VertexId(4)));
        assert!(!lca.is_ancestor(VertexId(2), VertexId(3)));
        assert!(!lca.is_ancestor(VertexId(3), VertexId(4)));
    }

    #[test]
    fn forest_components_have_no_cross_lca() {
        // Two chains: 0 - 1 - 4 and 2 - 3.
        let f = Forest::new(vec![
            None,
            Some(VertexId(0)),
            None,
            Some(VertexId(2)),
            Some(VertexId(1)),
        ]);
        assert_eq!(f.lca.lca(VertexId(1), VertexId(3)), None);
        assert_eq!(f.lca.lca_entry(VertexId(4), VertexId(2)), None);
        assert!(!f.lca.is_ancestor(VertexId(0), VertexId(3)));
        for u in 0..5 {
            for v in 0..5 {
                f.check(VertexId(u), VertexId(v));
            }
        }
        f.check_preorder();
    }

    #[test]
    fn single_vertex_tree() {
        let lca = LcaIndex::build(1, &[VertexId(0)], &[vec![]], &[0]);
        assert_eq!(lca.lca(VertexId(0), VertexId(0)), Some(VertexId(0)));
        assert_eq!(lca.lca_entry(VertexId(0), VertexId(0)).unwrap().depth(), 0);
        assert_eq!(lca.preorder(VertexId(0)), 0);
        // A forest of single vertices: every other pair is across trees.
        let f = Forest::new(vec![None; 6]);
        for u in 0..6 {
            for v in 0..6 {
                f.check(VertexId(u), VertexId(v));
            }
        }
        f.check_preorder();
    }

    #[test]
    fn deep_path_agrees_with_the_walk() {
        // 0 - 1 - ... - 299, rooted at 0: every pair is ancestor-descendant.
        let n = 300u32;
        let f = Forest::new((0..n).map(|v| v.checked_sub(1).map(VertexId)).collect());
        for u in 0..n {
            for v in (0..n).step_by(7) {
                f.check(VertexId(u), VertexId(v));
            }
        }
        f.check_preorder();
    }

    #[test]
    fn brute_force_agreement_on_random_tree() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        let f = random_forest(&mut rng, 200, 1);
        for _ in 0..500 {
            let a = VertexId::from_index(rng.gen_range(0..200));
            let b = VertexId::from_index(rng.gen_range(0..200));
            f.check(a, b);
        }
        f.check_preorder();
    }

    #[test]
    fn random_forests_agree_with_the_walk_on_every_pair() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for trees in 1..=5 {
            for n in [trees, trees + 1, 17, 64, 90] {
                let f = random_forest(&mut rng, n, trees);
                for u in 0..n {
                    let u = VertexId::from_index(u);
                    for v in 0..n {
                        f.check(u, VertexId::from_index(v));
                    }
                    // Every ancestor of `u` against `u`, both ways round.
                    let mut a = f.parent[u.index()];
                    while let Some(x) = a {
                        f.check(x, u);
                        f.check(u, x);
                        a = f.parent[x.index()];
                    }
                }
                f.check_preorder();
            }
        }
    }
}
