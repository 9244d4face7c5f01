//! The H2H (Hierarchical 2-Hop labeling) index.
//!
//! For every tree node `X(v)` the index stores the distance array `X(v).dis`:
//! the shortest distance from `v` to each of its ancestors (indexed by the
//! ancestor's depth), with the final entry `d(v, v) = 0`.
//!
//! A query `q(s, t)` goes through one kernel, [`label_distance`], which the
//! index, MHL's and PostMHL's final stages and PostMHL's overlay hop share;
//! the sessions of those views ([`LabelSession`]) call it directly. Its path
//! is one load per side, then one contiguous scan:
//!
//! 1. The LCA `X` with its depth ([`TreeDecomposition::lca_entry`]): per
//!    endpoint one load of its preorder position and one load from the
//!    sparse table over the preorder ([`LcaIndex`](crate::LcaIndex)).
//! 2. Both endpoint rows are found by a shift and a mask: every label table
//!    has the same power-of-two chunk ([`CowTable`]).
//! 3. When `X` is an endpoint the answer is the other endpoint's row entry at
//!    `depth(X)`. Otherwise the paper minimizes `X(s).dis[i] + X(t).dis[i]`
//!    over the positions `i` of `X` and its bag members (§III-B, Example 2).
//!    Every entry is an exact distance to an ancestor, so the minimum over
//!    the whole shared prefix `0..=depth(X)` is exact too: the kernel takes
//!    it in one branch-free saturating pass over both rows (`prefix_min`),
//!    which the compiler vectorizes.
//!
//! The scan reads the whole prefix where the paper reads only the bag
//! positions, so the paper's position array `X(v).pos` is not needed.
//! [`bag_min`], the paper's minimum, stays as PostMHL's post-boundary kernel,
//! whose rows may hold stale entries outside the bag positions. The kernel
//! used to choose per LCA between the two, by how dense the bag is in its
//! ancestor path (a mark bit in an Euler-tour LCA entry). On the benchmark
//! client's stream, which alternates far and near pairs, the per-LCA branch
//! and the gather's dependent `depth` loads cost more than the extra prefix
//! entries (the table below).
//!
//! The build fills the arrays top-down, every row through the label kernel
//! [`fold_label`] ([`H2HIndex::from_decomposition_pooled`]). On one thread
//! that is one depth-first preorder pass with the ancestor path on a stack.
//! On more, the tree is split once into a small upward-closed top (its
//! upper separators) and at least eight subtrees of at most a quarter of
//! the vertices each: the top is filled first, then each subtree is one
//! task that reads its ancestors' rows in the top and writes its own
//! preorder range. The rows, their allocation and so the index's bytes are
//! the same at every thread count. On `grid64` (2-vCPU Xeon, the ruler
//! `label_fill_on_one_and_two_threads_on_grid64`, medians of 41) the fill
//! takes 5.0 → 3.5 ms on the nested-dissection tree from one thread to
//! two, 6.3 → 4.3 ms on MinDegree's. An earlier fan-out by tree level —
//! one fork/join per level, a walk to the root per vertex — took 19 ms on
//! one thread and 26 ms on two on the same grid's MinDegree tree.
//!
//! # The two contiguous loops, at AVX2 speed where the CPU has it
//!
//! Both label kernels end in one contiguous loop over `u32` distances: the
//! prefix scan `prefix_min` (read path) and [`min_plus`], a bag member's row
//! folded into a label (the H2H build, DH2H's repair, PostMHL's U3–U5). The
//! x86-64 baseline (SSE2) has no unsigned 32-bit `min` and no saturating
//! add, so the compiler emulates both. Each loop body is therefore a scalar
//! `#[inline(always)]` function — the reference and the fallback — plus an
//! `avx2` clone that only calls it, so LLVM compiles the same code again with
//! 8 lanes, native `vpminud`, and the saturating add as `min(a, !b) + b`.
//!
//! * **Dispatch rule.** The public name picks the clone through
//!   `std::is_x86_feature_detected!("avx2")` (std caches the answer in a
//!   static) where the whole loop lives: once per query for the prefix scan,
//!   once per row for `min_plus`. On other targets it is the scalar body.
//! * **Safety.** The clone's one requirement is that the CPU has AVX2, which
//!   the dispatcher has just checked; the body is safe code that reads (and
//!   for `min_plus` writes) only the slices it is given, with bounds checks.
//!   Nothing else in the workspace steps outside safe Rust.
//!
//! Per query stream and path on `grid64`'s nested-dissection tree, with the
//! LCA lookup alone beside them: the ignored ruler
//! `query_time_per_stream_on_grid64` (nine rounds per run, median), five
//! runs alternated with the same ruler on the scan-or-gather kernel it
//! replaced; medians of the five, ns per query, 2-vCPU Xeon with AVX2:
//!
//! | stream              | AVX2       | scalar (SSE2) | LCA alone |
//! |---------------------|------------|---------------|-----------|
//! | far pairs           | 100 → 78   | 134 → 109     | 13 → 9    |
//! | near pairs          | 119 → 79   | 123 → 107     | 14 → 9    |
//! | far, near alternate | 123 → 77   | 144 → 117     | 13 → 8    |
//!
//! The label fill runs `min_plus` in 5.3 ms with AVX2 and 11.0 ms on the
//! scalar body on `grid64`, 64–72 ms and 124–127 ms on a 128×128 grid. Both
//! paths give bit-equal answers and label rows (the tests check every tail
//! length and every row of four graph families).

use crate::decomposition::TreeDecomposition;
use htsp_ch::{ContractionHierarchy, ShortcutMode};
use htsp_graph::cow::{CowStats, CowTable, RowRead};
use htsp_graph::par::WorkerPool;
use htsp_graph::{
    ByteReader, ByteWriter, Dist, Graph, QuerySession, SnapshotError, VertexId, Weight, INF,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Mutex;

/// The H2H index: a tree decomposition plus per-node distance arrays.
///
/// The distance arrays live in a chunked copy-on-write [`CowTable`], so
/// cloning the index (which every published snapshot does transitively) is a
/// chunk-pointer copy, and a label repair that rewrites `k` rows while a
/// snapshot is outstanding clones `O(k / chunk)` chunks instead of the whole
/// table.
#[derive(Clone, Debug)]
pub struct H2HIndex {
    td: TreeDecomposition,
    /// `dis[v][d]` = distance from `v` to its ancestor at depth `d`;
    /// `dis[v][depth(v)] = 0`.
    dis: CowTable<Dist>,
}

impl H2HIndex {
    /// Builds the index from scratch on [`TreeDecomposition::build`]'s
    /// nested-dissection order.
    pub fn build(graph: &Graph) -> Self {
        Self::from_decomposition(TreeDecomposition::build(graph))
    }

    /// [`Self::build`] with the label fill's subtrees on `pool`
    /// ([`Self::from_decomposition_pooled`]).
    pub fn build_pooled(graph: &Graph, pool: &WorkerPool) -> Self {
        Self::from_decomposition_pooled(TreeDecomposition::build(graph), pool)
    }

    /// Builds the distance arrays over an existing decomposition in one
    /// sequential depth-first preorder pass
    /// ([`Self::from_decomposition_pooled`] on one thread).
    pub fn from_decomposition(td: TreeDecomposition) -> Self {
        Self::from_decomposition_pooled(td, &WorkerPool::sequential())
    }

    /// Builds the distance arrays over an existing decomposition, the
    /// subtrees below a small top on `pool` (stage `h2h_label_fill`). The
    /// rows are the same at every thread count.
    ///
    /// A label reads only the labels of its ancestors. On one thread each
    /// tree is filled in depth-first preorder with the ancestor path on a
    /// stack: preorder has filled the ancestors already, and the path of the
    /// next vertex is the current one cut at its depth. On more, the tree is
    /// split once (`fork_split`): the top is filled first, in preorder,
    /// then every subtree below it is one task that reads its ancestors'
    /// rows in the top and writes only its own rows, a contiguous preorder
    /// range. Every row is allocated here, in preorder, before any is
    /// filled, so the rows lie in memory as the sequential pass leaves them.
    pub fn from_decomposition_pooled(td: TreeDecomposition, pool: &WorkerPool) -> Self {
        let preorder = td.topdown_order();
        // Sized as the sequential fill sized them, capacity included.
        let mut rows: Vec<Vec<Dist>> = (preorder.iter())
            .map(|&v| {
                let mut row = Vec::new();
                row.resize(td.depth(v) as usize + 1, Dist::ZERO);
                row
            })
            .collect();
        fill_labels(&td, &mut rows, pool);
        let mut dis: Vec<Vec<Dist>> = vec![Vec::new(); td.num_vertices()];
        for (&v, row) in preorder.iter().zip(rows) {
            dis[v.index()] = row;
        }
        H2HIndex {
            td,
            dis: CowTable::from_rows(dis),
        }
    }

    /// Reassembles an index from a decomposition and its label rows — the
    /// warm-restart path used by the snapshot decoder. `dis[v]` must be the
    /// ancestor-distance array of `v` (length `depth(v) + 1`, last entry 0).
    pub fn from_parts(td: TreeDecomposition, dis: Vec<Vec<Dist>>) -> Self {
        assert_eq!(
            dis.len(),
            td.num_vertices(),
            "label table does not cover the decomposition"
        );
        H2HIndex {
            td,
            dis: CowTable::from_rows(dis),
        }
    }

    /// The underlying tree decomposition.
    pub fn decomposition(&self) -> &TreeDecomposition {
        &self.td
    }

    /// The label table (`labels().row(v)` = [`Self::label`]`(v)`).
    pub fn labels(&self) -> &CowTable<Dist> {
        &self.dis
    }

    /// Mutable access to the decomposition and the label table, for DH2H's
    /// maintenance and for indexes (PostMHL) that stage their own label
    /// repair over the H2H construction.
    pub fn parts_mut(&mut self) -> (&mut TreeDecomposition, &mut CowTable<Dist>) {
        (&mut self.td, &mut self.dis)
    }

    /// Cumulative copy-on-write clone effort of the label table and the
    /// shortcut arrays (shared by all clones of this index's lineage).
    pub fn cow_stats(&self) -> CowStats {
        self.dis.stats().plus(self.td.cow_stats())
    }

    /// Distance array of `v` (`X(v).dis`).
    pub fn label(&self, v: VertexId) -> &[Dist] {
        self.dis.row(v.index())
    }

    /// Shortest distance between `s` and `t`, `INF` if disconnected.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        label_distance(&self.td, &self.dis, s, t)
    }

    /// A query session answering from this index's labels.
    pub fn session(&self) -> LabelSession<'_> {
        LabelSession::new(&self.td, &self.dis)
    }

    /// Number of label entries stored (the `|L|` statistic of Exp. 2).
    pub fn num_label_entries(&self) -> usize {
        self.dis.num_entries()
    }

    /// Approximate index size in bytes (labels + shortcut arrays).
    pub fn index_size_bytes(&self) -> usize {
        self.num_label_entries() * std::mem::size_of::<Dist>()
            + self.td.hierarchy().index_size_bytes()
    }

    /// Measured heap footprint of the label table alone (the hierarchy is
    /// reported separately by [`ContractionHierarchy::heap_bytes`]).
    pub fn label_heap_bytes(&self) -> usize {
        self.dis.heap_bytes()
    }

    /// Appends this index's snapshot section to `w`: the hierarchy section
    /// followed by each vertex's label row without its last entry, the
    /// self-distance 0. Neither the tree shape nor the row lengths are
    /// stored: the tree is a pure function of the hierarchy and is rebuilt
    /// on decode, and row `v` has `depth(v)` stored entries.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        self.td.hierarchy().encode_into(w);
        for v in 0..self.td.num_vertices() {
            let (_, row) = self
                .dis
                .row(v)
                .split_last()
                .expect("every row holds its self-distance");
            for &d in row {
                w.put_u32(d.0);
            }
        }
    }

    /// Serializes the index section to a standalone byte vector.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Reads an index section from `r`: the hierarchy, which must be
    /// all-pairs, then the label rows in the shapes of the tree rebuilt
    /// from it. Corrupt input surfaces as a typed [`SnapshotError`], never a
    /// panic. Each row's bytes are taken once and converted in one
    /// `chunks_exact` pass.
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, SnapshotError> {
        let ch = ContractionHierarchy::decode_from(r)?;
        if !matches!(ch.mode(), ShortcutMode::AllPairs) {
            return Err(SnapshotError::Malformed(
                "H2H snapshot requires an all-pairs hierarchy".to_string(),
            ));
        }
        let td = TreeDecomposition::from_hierarchy(ch);
        let n = td.num_vertices();
        let mut dis: Vec<Vec<Dist>> = Vec::with_capacity(n);
        for v in 0..n {
            let len = td.depth(VertexId::from_index(v)) as usize;
            // One bounds check for the whole row.
            let mut row = Vec::with_capacity(len + 1);
            row.extend(r.get_u32s(len, "h2h label row")?.map(Dist));
            row.push(Dist::ZERO);
            dis.push(row);
        }
        Ok(H2HIndex::from_parts(td, dis))
    }

    /// Deserializes an index section produced by [`Self::to_snapshot_bytes`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let h2h = Self::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after h2h section",
                r.remaining()
            )));
        }
        Ok(h2h)
    }
}

/// The fork of the label fill: at least this many subtrees below the top.
const FORK_TASKS: usize = 8;

/// Splits `td`'s forest for a fill on more than one thread: an upward-closed
/// top, and the subtrees hanging below it. Starting from the trees, the
/// largest subtree is moved into the top (its root, that is, its children
/// become subtrees) until at least [`FORK_TASKS`] subtrees remain and none
/// holds more than a quarter of the vertices. Returns the top's vertices and
/// the subtrees' roots, both in preorder. A nested-dissection tree's top is
/// its upper separators, a few hundred of `grid64`'s 4,096 vertices and
/// the shortest rows; a path's top is all of it.
fn fork_split(td: &TreeDecomposition) -> (Vec<VertexId>, Vec<VertexId>) {
    let sizes = td.subtree_sizes();
    let quarter = td.num_vertices() / 4;
    let subtree = |v: VertexId| (sizes[v.index()], Reverse(td.preorder(v)), v);
    let mut subtrees: BinaryHeap<_> = td.roots().iter().map(|&v| subtree(v)).collect();
    let mut top = Vec::new();
    while let Some(&(size, _, v)) = subtrees.peek() {
        if subtrees.len() >= FORK_TASKS && size as usize <= quarter {
            break;
        }
        subtrees.pop();
        top.push(v);
        subtrees.extend(td.children(v).iter().map(|&c| subtree(c)));
    }
    let mut roots: Vec<VertexId> = subtrees.into_iter().map(|(_, _, v)| v).collect();
    top.sort_unstable_by_key(|&v| td.preorder(v));
    roots.sort_unstable_by_key(|&v| td.preorder(v));
    (top, roots)
}

/// Fills every label row of `td`: `rows[p]` is the row of the vertex at
/// preorder position `p`, sized `depth + 1` and ending in its
/// self-distance 0. The subtrees are tasks on `pool`; on one thread they are
/// the trees, and nothing is filled beforehand.
fn fill_labels(td: &TreeDecomposition, rows: &mut [Vec<Dist>], pool: &WorkerPool) {
    let (top, roots) = if pool.threads() > 1 {
        fork_split(td)
    } else {
        let mut roots = td.roots().to_vec();
        roots.sort_unstable_by_key(|&v| td.preorder(v));
        (Vec::new(), roots)
    };
    let position = |v: &VertexId| td.preorder(*v);
    fill_rows(td, 0, rows, &[], top.iter().map(position));
    // Hand out every subtree's rows, and the top rows each one reads: the
    // path down to its root, back to back in `above`.
    let preorder = td.topdown_order();
    let mut rest = rows;
    let mut at = 0;
    let mut path: Vec<&[Dist]> = Vec::new();
    let mut above: Vec<&[Dist]> = Vec::new();
    let mut tasks = Vec::with_capacity(roots.len());
    for &root in &roots {
        while at < td.preorder(root) {
            let (row, tail) = std::mem::take(&mut rest)
                .split_first_mut()
                .expect("a top row");
            path.truncate(td.depth(preorder[at]) as usize);
            path.push(row);
            (rest, at) = (tail, at + 1);
        }
        let depth = td.depth(root) as usize;
        let size = td.subtree_sizes()[root.index()] as usize;
        let (subtree, tail) = std::mem::take(&mut rest).split_at_mut(size);
        tasks.push((root, above.len()..above.len() + depth, Mutex::new(subtree)));
        above.extend_from_slice(&path[..depth]);
        (rest, at) = (tail, at + size);
    }
    // The largest first, so that the last task out is a small one.
    tasks.sort_by_key(|task| Reverse(td.subtree_sizes()[task.0.index()]));
    pool.run("h2h_label_fill", tasks.len(), |k| {
        let (root, span, subtree) = &tasks[k];
        let mut subtree = subtree.lock().expect("each subtree is filled once");
        let positions = 0..subtree.len();
        fill_rows(
            td,
            td.preorder(*root),
            &mut subtree,
            &above[span.clone()],
            positions,
        );
    });
}

/// Fills the rows at `positions` (ascending) of `rows`, whose first row is
/// that of preorder position `first`: an upward-closed set of a subtree
/// rooted at `first`, or of the whole forest, visited in preorder with the
/// path down to each vertex on a stack. `above` holds the rows of the
/// ancestors outside `rows`, by depth.
fn fill_rows(
    td: &TreeDecomposition,
    first: usize,
    rows: &mut [Vec<Dist>],
    above: &[&[Dist]],
    positions: impl Iterator<Item = usize>,
) {
    let preorder = &td.topdown_order()[first..first + rows.len()];
    let base = above.len();
    let mut path: Vec<usize> = Vec::new();
    let mut bag = Vec::new();
    for i in positions {
        let v = preorder[i];
        let depth = td.depth(v) as usize;
        path.truncate(depth - base);
        bag_by_depth(td, v, &mut bag);
        let (done, rest) = rows.split_at_mut(i);
        let anc_row = |d: usize| match d.checked_sub(base) {
            Some(below) => &done[path[below]][..],
            None => above[d],
        };
        fold_label(&bag, 0, anc_row, &mut rest[0][..depth]);
        path.push(i);
    }
}

/// Shortest distance between `s` and `t` from the H2H label rows `dis` over
/// `td` (`dis.row(v)[d]` = distance from `v` to its ancestor at depth `d`),
/// `INF` if they lie in different trees. The one H2H query kernel: the H2H
/// index, MHL's and PostMHL's final stages and PostMHL's overlay hop all
/// answer through it.
///
/// Every entry of the two rows up to the LCA's depth must be an exact
/// distance: the kernel reads all of them, not only the bag positions.
#[inline]
pub fn label_distance<R: RowRead<Dist> + ?Sized>(
    td: &TreeDecomposition,
    dis: &R,
    s: VertexId,
    t: VertexId,
) -> Dist {
    label_distance_with(prefix_min, td, dis, s, t)
}

/// [`label_distance`] with `scan` in place of [`prefix_min`] (the tests and
/// the ruler run it with [`prefix_min_scalar`]).
#[inline(always)]
fn label_distance_with<R: RowRead<Dist> + ?Sized>(
    scan: impl Fn(&[Dist], &[Dist], usize) -> Dist,
    td: &TreeDecomposition,
    dis: &R,
    s: VertexId,
    t: VertexId,
) -> Dist {
    if s == t {
        return Dist::ZERO;
    }
    let Some(lca) = td.lca_entry(s, t) else {
        return INF;
    };
    let (x, depth) = (lca.vertex(), lca.depth() as usize);
    if x == s {
        return dis.row(t.index())[depth];
    }
    if x == t {
        return dis.row(s.index())[depth];
    }
    scan(dis.row(s.index()), dis.row(t.index()), depth + 1)
}

/// A query session over H2H label rows: every answer goes straight to
/// [`label_distance`]. The session of every view that answers from full
/// labels (DH2H, MHL's and PostMHL's final stages); a label lookup needs no
/// scratch, and the per-target loop is already the best one-to-many and
/// matrix algorithm for a 2-hop labeling.
pub struct LabelSession<'a> {
    td: &'a TreeDecomposition,
    dis: &'a CowTable<Dist>,
}

impl<'a> LabelSession<'a> {
    /// A session over the label rows `dis` of `td` (see [`label_distance`]).
    pub fn new(td: &'a TreeDecomposition, dis: &'a CowTable<Dist>) -> Self {
        LabelSession { td, dis }
    }
}

impl QuerySession for LabelSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        label_distance(self.td, self.dis, s, t)
    }
}

/// `min ds[i] + dt[i]` (saturating) over `i < k`, branch-free: the exact H2H
/// answer when both rows hold exact distances to the `k` shared ancestors
/// (every such sum is a path length, and the LCA's separator is among them).
/// Runs [`prefix_min_scalar`] compiled for AVX2 where the CPU has it.
#[inline]
pub(crate) fn prefix_min(ds: &[Dist], dt: &[Dist], k: usize) -> Dist {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was just detected on this CPU, and the callee reads
        // only the slices it is given, with bounds checks.
        return unsafe { prefix_min_avx2(ds, dt, k) };
    }
    prefix_min_scalar(ds, dt, k)
}

/// The body of [`prefix_min`]: its reference and its fallback.
#[inline(always)]
fn prefix_min_scalar(ds: &[Dist], dt: &[Dist], k: usize) -> Dist {
    let (ds, dt) = (&ds[..k], &dt[..k]);
    ds.iter()
        .zip(dt)
        .fold(INF, |best, (&a, &b)| best.min(a.saturating_add(b)))
}

/// [`prefix_min_scalar`] compiled for AVX2 (8 lanes, native unsigned `min`).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn prefix_min_avx2(ds: &[Dist], dt: &[Dist], k: usize) -> Dist {
    prefix_min_scalar(ds, dt, k)
}

/// The paper's H2H minimum (§III-B, Example 2): `ds[i] + dt[i]` over the
/// depths `i` of `x` and of its bag members, where `x` is the LCA of the
/// rows' owners. It reads no other entry: PostMHL's post-boundary stage
/// relies on that, because the other entries of its rows may be stale.
#[inline]
pub fn bag_min(td: &TreeDecomposition, ds: &[Dist], dt: &[Dist], x: VertexId) -> Dist {
    let xd = td.depth(x) as usize;
    let mut best = ds[xd].saturating_add(dt[xd]);
    for &(u, _) in td.bag(x) {
        let i = td.depth(u) as usize;
        best = best.min(ds[i].saturating_add(dt[i]));
    }
    best
}

/// `dst[i] = min(dst[i], src[i] + w)` over the common length: one bag member's
/// contribution to a label row, as two contiguous slices. Runs its scalar
/// loop compiled for AVX2 where the CPU has it.
#[inline]
pub fn min_plus(dst: &mut [Dist], src: &[Dist], w: Weight) {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: AVX2 was just detected on this CPU, and the callee touches
        // only the slices it is given, with bounds checks.
        return unsafe { min_plus_avx2(dst, src, w) };
    }
    min_plus_scalar(dst, src, w)
}

/// The body of [`min_plus`]: its reference and its fallback.
#[inline(always)]
fn min_plus_scalar(dst: &mut [Dist], src: &[Dist], w: Weight) {
    for (d, &s) in dst.iter_mut().zip(src) {
        let cand = s.saturating_add_weight(w);
        if cand < *d {
            *d = cand;
        }
    }
}

/// [`min_plus_scalar`] compiled for AVX2 (8 lanes, native unsigned `min`).
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn min_plus_avx2(dst: &mut [Dist], src: &[Dist], w: Weight) {
    min_plus_scalar(dst, src, w)
}

/// Gathers `(depth, shortcut weight)` of `v`'s bag members into `out`,
/// deepest first (bag members are ancestors in rank order).
pub fn bag_by_depth(td: &TreeDecomposition, v: VertexId, out: &mut Vec<(u32, Weight)>) {
    out.clear();
    out.extend(td.bag(v).iter().map(|&(u, w)| (td.depth(u), w)));
}

/// The H2H minimum-distance recurrence for one tree node, row by row:
///
/// ```text
/// label[d] = min over bag members (u, w) of  w + dist(u, ancestor at depth d)
/// ```
///
/// over the depth window `lo .. lo + label.len()`, which must end at or above
/// the node's own depth. `bag` holds `(depth, weight)` of the bag members at
/// depth `>= lo`, deepest first ([`bag_by_depth`]). `anc_row(d)` is the label
/// row of the node's ancestor at depth `d`, windowed like `label` (entry `i`
/// is the distance to the ancestor at depth `lo + i`, up to the row owner's
/// self-distance 0); it is asked for the bag members' depths and for every
/// window depth below the shallowest of them.
///
/// Each bag member `u` first contributes its own row (the entries towards
/// `u`'s ancestors and `u` itself); the entries towards an ancestor `a` below
/// `u` read `a`'s row at `u`'s depth, one row per `a`. This is the one label
/// kernel of the repository: the H2H build, DH2H's top-down repair and
/// PostMHL's overlay, post-boundary and cross-boundary stages all fold their
/// rows through it.
pub fn fold_label<'a>(
    bag: &[(u32, Weight)],
    lo: usize,
    anc_row: impl Fn(usize) -> &'a [Dist],
    label: &mut [Dist],
) {
    fold_label_with(min_plus, bag, lo, anc_row, label);
}

/// [`fold_label`] with `kernel` in place of [`min_plus`] for the bag
/// members' own rows (the tests fold through [`min_plus_scalar`]).
fn fold_label_with<'a>(
    kernel: impl Fn(&mut [Dist], &[Dist], Weight),
    bag: &[(u32, Weight)],
    lo: usize,
    anc_row: impl Fn(usize) -> &'a [Dist],
    label: &mut [Dist],
) {
    label.fill(INF);
    let hi = lo + label.len();
    for &(du, w) in bag {
        let du = du as usize;
        let len = (du + 1).min(hi) - lo;
        kernel(&mut label[..len], &anc_row(du)[..len], w);
    }
    let Some(&(shallowest, _)) = bag.last() else {
        return;
    };
    // Ancestors from the deepest up: the bag members above `d` are a
    // shrinking suffix of the bag.
    let mut above = 0;
    for d in (shallowest as usize + 1..hi).rev() {
        while bag[above].0 as usize >= d {
            above += 1;
        }
        let row = anc_row(d);
        let mut best = label[d - lo];
        for &(du, w) in &bag[above..] {
            let cand = row[du as usize - lo].saturating_add_weight(w);
            if cand < best {
                best = cand;
            }
        }
        label[d - lo] = best;
    }
}

/// The full distance array of `v` (`path[d]` is its ancestor at depth `d`)
/// from the labels of its ancestors in `dis`, into `label`; `bag` is scratch.
pub(crate) fn full_label<R: RowRead<Dist> + ?Sized>(
    td: &TreeDecomposition,
    dis: &R,
    v: VertexId,
    path: &[VertexId],
    bag: &mut Vec<(u32, Weight)>,
    label: &mut Vec<Dist>,
) {
    bag_by_depth(td, v, bag);
    label.clear();
    label.resize(path.len() + 1, Dist::ZERO);
    fold_label(
        bag,
        0,
        |d| dis.row(path[d].index()),
        &mut label[..path.len()],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, grid_with_diagonals, random_geometric, WeightRange};
    use htsp_graph::{GraphBuilder, QuerySet};
    use htsp_search::dijkstra_distance;

    fn check(g: &Graph, h2h: &H2HIndex, count: usize, seed: u64) {
        let qs = QuerySet::random(g, count, seed);
        for q in &qs {
            assert_eq!(
                h2h.distance(q.source, q.target),
                dijkstra_distance(g, q.source, q.target),
                "H2H mismatch for {:?}",
                q
            );
        }
    }

    #[test]
    fn h2h_exact_on_grid() {
        let g = grid(8, 8, WeightRange::new(1, 20), 3);
        let h2h = H2HIndex::build(&g);
        check(&g, &h2h, 200, 4);
    }

    #[test]
    fn h2h_exact_on_grid_with_diagonals() {
        let g = grid_with_diagonals(7, 9, WeightRange::new(1, 30), 0.25, 6);
        let h2h = H2HIndex::build(&g);
        check(&g, &h2h, 200, 5);
    }

    #[test]
    fn h2h_exact_on_geometric() {
        let g = random_geometric(250, 3, WeightRange::new(1, 100), 8);
        let h2h = H2HIndex::build(&g);
        check(&g, &h2h, 150, 6);
    }

    #[test]
    fn h2h_handles_ancestor_descendant_queries() {
        let g = grid(6, 6, WeightRange::new(1, 9), 2);
        let h2h = H2HIndex::build(&g);
        // Query every vertex against the tree root and its own parent.
        let td = h2h.decomposition();
        let root = td.roots()[0];
        for v in g.vertices() {
            assert_eq!(h2h.distance(v, root), dijkstra_distance(&g, v, root));
            if let Some(p) = td.parent(v) {
                assert_eq!(h2h.distance(v, p), dijkstra_distance(&g, v, p));
            }
            assert_eq!(h2h.distance(v, v), Dist::ZERO);
        }
    }

    #[test]
    fn h2h_disconnected_components_are_inf() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(VertexId(0), VertexId(1), 2);
        b.add_edge(VertexId(2), VertexId(3), 5);
        let g = b.build();
        let h2h = H2HIndex::build(&g);
        assert_eq!(h2h.distance(VertexId(0), VertexId(3)), INF);
        assert_eq!(h2h.distance(VertexId(0), VertexId(1)), Dist(2));
        assert_eq!(h2h.distance(VertexId(2), VertexId(3)), Dist(5));
    }

    /// Says on stderr when the dispatched label kernels run their scalar
    /// bodies on this host, so a pass there is not read as a check of the
    /// AVX2 path.
    fn note_missing_avx2() {
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        if !avx2 {
            eprintln!("no AVX2 on this host: only the scalar label kernels are checked");
        }
    }

    /// Every pair of `g` against Dijkstra: the kernel, and for every pair
    /// whose LCA is neither endpoint the dispatched prefix scan against its
    /// scalar body and the bag gather (PostMHL's stage-2 kernel). The LCA
    /// entry must carry the LCA's depth, every label row the build folded
    /// through the dispatched `min_plus` must equal the row folded through
    /// its scalar body, and `min_plus` over each such pair's prefixes must
    /// agree on both paths.
    fn check_kernels(g: &Graph) {
        note_missing_avx2();
        let h2h = H2HIndex::build(g);
        let td = h2h.decomposition();
        let mut bag = Vec::new();
        for v in g.vertices() {
            let path = td.ancestors(v);
            bag_by_depth(td, v, &mut bag);
            let mut label = vec![Dist::ZERO; path.len() + 1];
            let anc_row = |d: usize| h2h.label(path[d]);
            fold_label_with(min_plus_scalar, &bag, 0, anc_row, &mut label[..path.len()]);
            assert_eq!(label, h2h.label(v), "label row of {v}");
        }
        let (mut scalar, mut dispatched) = (Vec::new(), Vec::new());
        for s in g.vertices() {
            let expect = htsp_search::dijkstra_all(g, s);
            for t in g.vertices() {
                let d = expect[t.index()];
                assert_eq!(h2h.distance(s, t), d, "kernel {s}-{t}");
                let scalar_kernel = label_distance_with(prefix_min_scalar, td, h2h.labels(), s, t);
                assert_eq!(scalar_kernel, d, "scalar kernel {s}-{t}");
                let Some(x) = td.lca(s, t) else {
                    continue;
                };
                let lca = td.lca_entry(s, t).expect("the pair has an LCA");
                assert_eq!((lca.vertex(), lca.depth()), (x, td.depth(x)), "{s}-{t}");
                if x == s || x == t {
                    continue;
                }
                let (ds, dt) = (h2h.label(s), h2h.label(t));
                let k = td.depth(x) as usize + 1;
                assert_eq!(prefix_min(ds, dt, k), d, "prefix scan {s}-{t}");
                assert_eq!(prefix_min_scalar(ds, dt, k), d, "scalar scan {s}-{t}");
                assert_eq!(bag_min(td, ds, dt, x), d, "bag gather {s}-{t}");
                for out in [&mut scalar, &mut dispatched] {
                    out.clear();
                    out.extend_from_slice(&ds[..k]);
                }
                min_plus_scalar(&mut scalar, &dt[..k], d.0);
                min_plus(&mut dispatched, &dt[..k], d.0);
                assert_eq!(dispatched, scalar, "min_plus {s}-{t}");
            }
        }
    }

    #[test]
    fn label_kernels_equal_their_scalar_bodies_on_every_tail_length() {
        use rand::{Rng, SeedableRng};
        use rand_chacha::ChaCha8Rng;
        fn value(rng: &mut ChaCha8Rng) -> Dist {
            match rng.gen_range(0..5u32) {
                0 => Dist::ZERO,
                1 => Dist(1),
                2 => Dist(u32::MAX - 1),
                3 => INF,
                _ => Dist(rng.gen()),
            }
        }
        note_missing_avx2();
        let mut rng = ChaCha8Rng::seed_from_u64(26);
        // The saturating sum, computed wide.
        let sum = |a: Dist, w: u32| Dist((a.0 as u64 + w as u64).min(u32::MAX as u64) as u32);
        // Lengths across several 8-lane blocks and every tail.
        for len in 0..=67usize {
            for _ in 0..40 {
                let extra = rng.gen_range(0..3usize);
                let ds: Vec<Dist> = (0..len + extra).map(|_| value(&mut rng)).collect();
                let dt: Vec<Dist> = (0..len + extra).map(|_| value(&mut rng)).collect();
                let expect = (0..len).map(|i| sum(ds[i], dt[i].0)).min().unwrap_or(INF);
                assert_eq!(
                    prefix_min_scalar(&ds, &dt, len),
                    expect,
                    "scalar scan, {len}"
                );
                assert_eq!(prefix_min(&ds, &dt, len), expect, "prefix scan, {len}");

                let w = match rng.gen_range(0..4u32) {
                    0 => 1,
                    1 => u32::MAX - 1,
                    2 => u32::MAX,
                    _ => rng.gen(),
                };
                let (dst, src) = (&dt[..len], &ds[..len]);
                let expect: Vec<Dist> = dst
                    .iter()
                    .zip(src)
                    .map(|(&d, &s)| d.min(sum(s, w)))
                    .collect();
                let mut scalar = dst.to_vec();
                min_plus_scalar(&mut scalar, src, w);
                assert_eq!(scalar, expect, "scalar min_plus, {len}, w = {w}");
                let mut dispatched = dst.to_vec();
                min_plus(&mut dispatched, src, w);
                assert_eq!(dispatched, expect, "min_plus, {len}, w = {w}");
            }
        }
    }

    #[test]
    fn query_kernels_are_exact_on_a_grid() {
        check_kernels(&grid_with_diagonals(
            9,
            9,
            WeightRange::new(1, 30),
            0.25,
            21,
        ));
    }

    #[test]
    fn query_kernels_are_exact_on_geometric() {
        check_kernels(&random_geometric(120, 3, WeightRange::new(1, 100), 22));
    }

    #[test]
    fn query_kernels_are_exact_on_a_forest() {
        let left = grid(5, 5, WeightRange::new(1, 20), 23);
        let right = grid_with_diagonals(4, 6, WeightRange::new(1, 20), 0.3, 24);
        let offset = left.num_vertices() as u32;
        let mut b = GraphBuilder::new(left.num_vertices() + right.num_vertices());
        for (_, u, v, w) in left.edges() {
            b.add_edge(u, v, w);
        }
        for (_, u, v, w) in right.edges() {
            b.add_edge(VertexId(u.0 + offset), VertexId(v.0 + offset), w);
        }
        // Pairs across the components have no LCA: Dijkstra's INF.
        check_kernels(&b.build());
    }

    #[test]
    fn query_kernels_saturate_instead_of_wrapping() {
        // Every distance fits (at most 10 hops of u32::MAX / 11), but the sum
        // of two label entries can pass u32::MAX: a wrapping add would win
        // the minimum.
        let (lo, hi) = (u32::MAX / 12, u32::MAX / 11);
        let g = grid(6, 6, WeightRange::new(lo, hi), 25);
        check_kernels(&g);
        let h2h = H2HIndex::build(&g);
        let td = h2h.decomposition();
        let overflows = g.vertices().any(|s| {
            g.vertices().any(|t| {
                let k = td.lca(s, t).map_or(0, |x| td.depth(x) as usize + 1);
                (0..k).any(|i| h2h.label(s)[i].0.checked_add(h2h.label(t)[i].0).is_none())
            })
        });
        assert!(overflows, "no label sum passes u32::MAX");
    }

    /// The fill as one preorder pass over every tree, row by row through
    /// [`full_label`]: what the build did before it forked.
    fn sequential_fill(td: &TreeDecomposition) -> Vec<Vec<Dist>> {
        let mut dis: Vec<Vec<Dist>> = vec![Vec::new(); td.num_vertices()];
        let (mut path, mut bag) = (Vec::new(), Vec::new());
        for &v in td.topdown_order() {
            path.truncate(td.depth(v) as usize);
            let mut label = Vec::new();
            full_label(td, &dis[..], v, &path, &mut bag, &mut label);
            dis[v.index()] = label;
            path.push(v);
        }
        dis
    }

    #[test]
    fn the_fill_equals_the_sequential_fill_at_every_thread_count() {
        use htsp_ch::{ContractionHierarchy, OrderingStrategy};
        let min_degree = |g: &Graph| {
            let ch =
                ContractionHierarchy::build(g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
            TreeDecomposition::from_hierarchy(ch)
        };
        let rg = random_geometric(2000, 3, WeightRange::new(1, 90), 27);
        let mut forest = GraphBuilder::new(3 * 144 + 5);
        for (_, u, v, w) in grid(12, 12, WeightRange::new(1, 30), 28).edges() {
            for copy in 0..3 {
                let shift = copy * 144;
                forest.add_edge(VertexId(u.0 + shift), VertexId(v.0 + shift), w + copy);
            }
        }
        let mut path = GraphBuilder::new(300);
        for v in 1..300 {
            path.add_edge(VertexId(v - 1), VertexId(v), 1 + v % 13);
        }
        // Name, tree, whether it forks.
        let trees = [
            (
                "grid 40x40",
                TreeDecomposition::build(&grid(40, 40, WeightRange::new(1, 50), 29)),
                true,
            ),
            ("rg2000, dissection", TreeDecomposition::build(&rg), true),
            ("rg2000, MinDegree", min_degree(&rg), true),
            (
                "three grids and five isolated vertices",
                TreeDecomposition::build(&forest.build()),
                true,
            ),
            ("path", min_degree(&path.build()), false),
            (
                "one vertex",
                TreeDecomposition::build(&GraphBuilder::new(1).build()),
                false,
            ),
        ];
        for (name, td, forks) in trees {
            let expect = sequential_fill(&td);
            // A clone would trim the short rows' capacity.
            let bytes = H2HIndex::from_parts(td.clone(), sequential_fill(&td)).label_heap_bytes();
            for threads in [1, 2, 8] {
                let pool = WorkerPool::new(threads);
                let h2h = H2HIndex::from_decomposition_pooled(td.clone(), &pool);
                for v in 0..td.num_vertices() {
                    let v = VertexId::from_index(v);
                    assert_eq!(
                        h2h.label(v),
                        &expect[v.index()][..],
                        "{name}, {threads} threads, {v}"
                    );
                }
                assert_eq!(h2h.label_heap_bytes(), bytes, "{name}, {threads} threads");
                let stats = pool.stage_stats();
                assert_eq!(stats.len(), 1, "{name}: one stage");
                assert_eq!(stats[0].stage, "h2h_label_fill");
                let tasks = stats[0].tasks;
                if threads == 1 {
                    assert_eq!(tasks, td.roots().len(), "{name}: one task per tree");
                } else if forks {
                    assert!(tasks >= FORK_TASKS, "{name}: {tasks} tasks");
                    let (_, roots) = fork_split(&td);
                    let largest = roots.iter().map(|r| td.subtree_sizes()[r.index()]).max();
                    assert!(largest.unwrap() as usize <= td.num_vertices() / 4, "{name}");
                } else {
                    assert_eq!(tasks, 0, "{name}: nothing to fork");
                }
            }
        }
    }

    #[test]
    fn label_lengths_match_depth() {
        let g = grid(6, 6, WeightRange::new(1, 9), 7);
        let h2h = H2HIndex::build(&g);
        let td = h2h.decomposition();
        for v in g.vertices() {
            assert_eq!(h2h.label(v).len(), td.depth(v) as usize + 1);
            assert_eq!(*h2h.label(v).last().unwrap(), Dist::ZERO);
        }
    }

    #[test]
    fn labels_store_true_ancestor_distances() {
        let g = grid(5, 5, WeightRange::new(1, 9), 9);
        let h2h = H2HIndex::build(&g);
        let td = h2h.decomposition();
        for v in g.vertices() {
            for (d, &a) in td.ancestors(v).iter().enumerate() {
                assert_eq!(
                    h2h.label(v)[d],
                    dijkstra_distance(&g, v, a),
                    "label of {v} towards ancestor {a}"
                );
            }
        }
    }

    #[test]
    fn labels_are_exact_on_random_geometric() {
        let g = random_geometric(260, 3, WeightRange::new(1, 80), 41);
        check(&g, &H2HIndex::build(&g), 120, 43);
    }

    #[test]
    fn index_size_is_reported() {
        let g = grid(6, 6, WeightRange::new(1, 9), 7);
        let h2h = H2HIndex::build(&g);
        assert!(h2h.num_label_entries() >= g.num_vertices());
        assert!(h2h.index_size_bytes() > 0);
        assert!(h2h.label_heap_bytes() > 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_labels_and_answers() {
        let g = grid_with_diagonals(7, 7, WeightRange::new(1, 19), 0.2, 13);
        let h2h = H2HIndex::build(&g);
        let bytes = h2h.to_snapshot_bytes();
        let back = H2HIndex::from_snapshot_bytes(&bytes).expect("round trip");
        assert_eq!(back.num_label_entries(), h2h.num_label_entries());
        for v in g.vertices() {
            assert_eq!(back.label(v), h2h.label(v));
        }
        check(&g, &back, 150, 17);
    }

    #[test]
    fn snapshot_corruption_is_typed_never_a_panic() {
        use htsp_graph::SnapshotError;
        let g = grid(5, 5, WeightRange::new(1, 9), 3);
        let h2h = H2HIndex::build(&g);
        let clean = h2h.to_snapshot_bytes();
        // Every strict prefix fails with a typed error.
        for cut in 0..clean.len() {
            let err =
                H2HIndex::from_snapshot_bytes(&clean[..cut]).expect_err("strict prefix must fail");
            assert!(matches!(
                err,
                SnapshotError::Truncated { .. } | SnapshotError::Malformed(_)
            ));
        }
        // The rows are one entry per ancestor, no self-distance: an index
        // whose rows carry it is rejected.
        let mut long_rows = h2h.td.hierarchy().to_snapshot_bytes();
        for v in 0..h2h.td.num_vertices() {
            h2h.label(VertexId::from_index(v))
                .iter()
                .for_each(|d| long_rows.extend_from_slice(&d.0.to_le_bytes()));
        }
        assert!(matches!(
            H2HIndex::from_snapshot_bytes(&long_rows),
            Err(SnapshotError::Malformed(_))
        ));
        // A witness-pruned hierarchy has no tree to hang labels on.
        let pruned = ContractionHierarchy::build(
            &g,
            htsp_ch::OrderingStrategy::MinDegree,
            ShortcutMode::WitnessPruned { hop_limit: 8 },
        );
        assert!(matches!(
            H2HIndex::from_snapshot_bytes(&pruned.to_snapshot_bytes()),
            Err(SnapshotError::Malformed(_))
        ));
        // Trailing garbage is rejected.
        let mut bad = clean.clone();
        bad.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            H2HIndex::from_snapshot_bytes(&bad),
            Err(SnapshotError::Malformed(_))
        ));
    }

    /// The label fill on the benchmark's `grid64`, on its nested-dissection
    /// and its MinDegree tree, on one thread and on two, 41 interleaved
    /// runs each, medians with quartiles.
    ///
    /// `cargo test --release -p htsp-td -- --ignored --nocapture grid64`
    #[test]
    #[ignore = "a timing ruler: seconds, and only meaningful in a release build"]
    fn label_fill_on_one_and_two_threads_on_grid64() {
        use htsp_ch::{ContractionHierarchy, OrderingStrategy};
        use std::time::Instant;
        note_missing_avx2();
        let g = grid_with_diagonals(64, 64, WeightRange::new(1, 100), 0.1, 42);
        let md =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let trees = [
            ("ND", TreeDecomposition::build(&g)),
            ("MinDegree", TreeDecomposition::from_hierarchy(md)),
        ];
        let pools = [WorkerPool::new(1), WorkerPool::new(2)];
        let mut ms = vec![Vec::new(); trees.len() * pools.len()];
        for _ in 0..41 {
            for (t, (_, td)) in trees.iter().enumerate() {
                for (p, pool) in pools.iter().enumerate() {
                    let td = td.clone();
                    let start = Instant::now();
                    let h2h = H2HIndex::from_decomposition_pooled(td, pool);
                    ms[t * pools.len() + p].push(start.elapsed().as_secs_f64() * 1e3);
                    drop(h2h);
                }
            }
        }
        println!("grid64 label fill, ms (median of 41; quartiles):");
        for (t, (tree, _)) in trees.iter().enumerate() {
            for (p, pool) in pools.iter().enumerate() {
                let v = &mut ms[t * pools.len() + p];
                v.sort_by(f64::total_cmp);
                let threads = pool.threads();
                println!(
                    "    {tree:<9} {threads} thread(s) {:6.2} ({:.2}-{:.2})",
                    v[20], v[10], v[30]
                );
            }
        }
    }

    /// The query kernel's cost per query on the benchmark's `grid64` over the
    /// far pairs (uniform endpoints), the near pairs (an 8-hop walk) and the
    /// benchmark client's stream that alternates them, on the dispatched
    /// (AVX2 where the CPU has it) and the scalar prefix scan, next to the
    /// LCA lookup alone. Nine interleaved rounds, medians.
    ///
    /// `cargo test --release -p htsp-td -- --ignored --nocapture grid64`
    #[test]
    #[ignore = "a timing ruler: seconds, and only meaningful in a release build"]
    fn query_time_per_stream_on_grid64() {
        use rand::{Rng, SeedableRng};
        use std::hint::black_box;
        use std::time::Instant;
        note_missing_avx2();
        let g = grid_with_diagonals(64, 64, WeightRange::new(1, 100), 0.1, 42);
        let h2h = H2HIndex::build(&g);
        let (td, dis) = (h2h.decomposition(), h2h.labels());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(40);
        let n = g.num_vertices();
        let (mut far, mut near) = (Vec::new(), Vec::new());
        while far.len() < 1 << 15 {
            let (s, t) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if s != t {
                far.push((VertexId::from_index(s), VertexId::from_index(t)));
            }
            let s = VertexId::from_index(rng.gen_range(0..n));
            let mut t = s;
            for hop in 0.. {
                if hop >= 8 && t != s {
                    break;
                }
                let next: Vec<VertexId> = g.neighbors(t).map(|(x, _)| x).collect();
                t = next[rng.gen_range(0..next.len())];
            }
            near.push((s, t));
        }
        let mixed: Vec<_> = far.iter().zip(&near).flat_map(|(&a, &b)| [a, b]).collect();
        let streams = [("far", &far), ("near", &near), ("mixed", &mixed)];
        fn per_query(pairs: &[(VertexId, VertexId)], f: impl Fn(VertexId, VertexId) -> u32) -> f64 {
            let start = Instant::now();
            let mut sink = 0u32;
            for &(s, t) in pairs {
                sink ^= f(black_box(s), black_box(t));
            }
            black_box(sink);
            start.elapsed().as_secs_f64() * 1e9 / pairs.len() as f64
        }
        let paths = ["dispatched", "scalar", "lca only"];
        let run = |path: usize, pairs: &[(VertexId, VertexId)]| match path {
            0 => per_query(pairs, |s, t| label_distance(td, dis, s, t).0),
            1 => per_query(pairs, |s, t| {
                label_distance_with(prefix_min_scalar, td, dis, s, t).0
            }),
            _ => per_query(pairs, |s, t| td.lca_entry(s, t).map_or(0, |e| e.depth())),
        };
        let mut ns = vec![Vec::new(); paths.len() * streams.len()];
        for _ in 0..9 {
            for p in 0..paths.len() {
                for (c, (_, pairs)) in streams.iter().enumerate() {
                    ns[p * streams.len() + c].push(run(p, pairs));
                }
            }
        }
        println!("grid64, ns per query (median of 9; min-max):");
        for (p, path) in paths.iter().enumerate() {
            for (c, (class, _)) in streams.iter().enumerate() {
                let v = &mut ns[p * streams.len() + c];
                v.sort_by(f64::total_cmp);
                println!(
                    "    {path:<10} {class:<5} {:6.1} ({:.1}-{:.1})",
                    v[4], v[0], v[8]
                );
            }
        }
    }
}
