//! PostMHL: Post-partitioned Multi-stage Hub Labeling (§VI).
//!
//! PostMHL starts from a *global* tree decomposition (so the final query
//! stage reaches the H2H-equivalent optimum promised by Theorem 1) and derives
//! the partition structure from it with TD-partitioning (Algorithm 2). The
//! paper builds that tree by MDE; here it is [`TreeDecomposition::build`]'s
//! nested-dissection tree, whose smaller depth shortens every label and so
//! every stage of the repair (U2–U5) and the final-stage query. One tree and
//! one label table (`X(v).dis`, by ancestor depth) hold all three index
//! components of Figure 8:
//!
//! * the **overlay index** — the label rows of the overlay vertices (every
//!   vertex that is not inside a chosen partition subtree);
//! * the **post-boundary index** — for every in-partition vertex, the label
//!   entries towards its in-partition ancestors and towards its partition's
//!   boundary vertices. The paper keeps the latter as a separate boundary
//!   array `disB`; every boundary vertex is in the partition root's bag, so
//!   it is an ancestor, and `disB[v][k]` is the entry at `b_k`'s depth;
//! * the **cross-boundary index** — the remaining label entries, towards the
//!   overlay ancestors.
//!
//! The index is therefore DH2H's (labels plus shortcut arrays), byte for
//! byte. Maintenance (Figure 9) is staged: on-spot edge update →
//! shortcut-array update → overlay label update → post-boundary update (per
//! partition, in parallel) → cross-boundary update (per partition, in
//! parallel). Each stage that releases faster query machinery publishes an
//! immutable snapshot: BiDijkstra → PCH → post-boundary → cross-boundary
//! (plain H2H query).
//!
//! Three of the four are the baselines' views: the PCH stage runs on the
//! shared shortcut arrays, which form a full contraction hierarchy, so it is
//! a [`ChView`] over the decomposition; the final stage is an [`H2hView`].
//! Only the post-boundary stage, which reads the boundary and in-partition
//! entries before U5 has repaired the rest of each row, is PostMHL's own
//! ([`DisbView`]).

use htsp_baselines::{bidijkstra_pool, ch_query_pool, BiDijkstraView, ChView, H2hView};
use htsp_ch::{ChQuery, ContractionHierarchy, OrderingStrategy, ShortcutMode, VertexOrder};
use htsp_graph::cow::{CowStats, CowTable};
use htsp_graph::{
    Dist, FallbackSession, Graph, IndexMaintainer, QuerySession, QueryView, ScratchPool,
    SnapshotError, SnapshotPublisher, UpdateBatch, UpdateTimeline, VertexId, Weight, WorkerPool,
    INF,
};
use htsp_partition::{td_partition, TdPartition, TdPartitionConfig};
use htsp_search::BiDijkstra;
use htsp_td::{
    bag_by_depth, bag_min, fold_label, label_distance, min_plus, repair_labels, H2HIndex,
    TreeDecomposition,
};
use std::sync::Arc;
use std::time::Instant;

/// PostMHL construction parameters (the `τ`, `k_e`, `β_l`, `β_u` of
/// Algorithm 2 plus the maintenance thread count).
#[derive(Clone, Copy, Debug)]
pub struct PostMhlConfig {
    /// TD-partitioning parameters.
    pub partitioning: TdPartitionConfig,
    /// Number of worker threads for the partition-parallel label stages.
    pub num_threads: usize,
}

impl Default for PostMhlConfig {
    fn default() -> Self {
        PostMhlConfig {
            partitioning: TdPartitionConfig::default(),
            num_threads: 4,
        }
    }
}

/// The currently available query stage.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PostMhlStage {
    /// Q-Stage 1: index-free BiDijkstra.
    BiDijkstra,
    /// Q-Stage 2: partitioned CH search on the shared shortcut arrays.
    Pch,
    /// Q-Stage 3: post-boundary query (boundary and in-partition label
    /// entries + overlay labels).
    PostBoundary,
    /// Q-Stage 4: cross-boundary query (full H2H, the Theorem 1 optimum).
    CrossBoundary,
}

impl PostMhlStage {
    fn index(self) -> usize {
        match self {
            PostMhlStage::BiDijkstra => 0,
            PostMhlStage::Pch => 1,
            PostMhlStage::PostBoundary => 2,
            PostMhlStage::CrossBoundary => 3,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => PostMhlStage::BiDijkstra,
            1 => PostMhlStage::Pch,
            2 => PostMhlStage::PostBoundary,
            _ => PostMhlStage::CrossBoundary,
        }
    }
}

/// The ways out of `v`'s partition towards the overlay: each boundary vertex
/// of the partition with `v`'s label entry at its depth (the paper's
/// `disB`), or `(v, 0)` for an overlay vertex. `v` is borrowed so the overlay
/// case needs no allocation.
fn exits<'a>(
    td: &'a TreeDecomposition,
    dis: &'a CowTable<Dist>,
    tdp: &'a TdPartition,
    v: &'a VertexId,
) -> impl Iterator<Item = (VertexId, Dist)> + 'a {
    let (vertices, row) = match tdp.partition_of(*v) {
        None => (std::slice::from_ref(v), None),
        Some(pi) => (tdp.boundary(pi), Some(dis.row(v.index()))),
    };
    vertices
        .iter()
        .map(move |&b| (b, row.map_or(Dist::ZERO, |row| row[td.depth(b) as usize])))
}

/// Post-boundary query (Q-Stage 3). It reads only the entries U3 and U4 have
/// repaired: the overlay rows, and the boundary and in-partition entries of
/// the partitions' rows.
fn post_boundary_distance(
    td: &TreeDecomposition,
    dis: &CowTable<Dist>,
    tdp: &TdPartition,
    s: VertexId,
    t: VertexId,
) -> Dist {
    if s == t {
        return Dist::ZERO;
    }
    match (tdp.partition_of(s), tdp.partition_of(t)) {
        // Same partition: the H2H minimum over the LCA's bag. The LCA lies
        // in the partition's subtree, and its bag members above the
        // partition root are boundary vertices (the root's bag), so every
        // entry read is a boundary or an in-partition entry.
        (Some(pi), Some(pj)) if pi == pj => td.lca(s, t).map_or(INF, |x| {
            bag_min(td, dis.row(s.index()), dis.row(t.index()), x)
        }),
        _ => {
            // Cross-partition (or overlay endpoints): concatenate through
            // the boundary vertices' entries and the overlay labels.
            let mut best = INF;
            for (bp, dp) in exits(td, dis, tdp, &s).filter(|(_, d)| d.is_finite()) {
                for (bq, dq) in exits(td, dis, tdp, &t).filter(|(_, d)| d.is_finite()) {
                    // Overlay distance: a plain H2H query, exact as soon as
                    // the overlay labels are repaired at U3 (the overlay set
                    // is upward-closed, so every row it reads is an overlay
                    // row).
                    let mid = label_distance(td, dis, bp, bq);
                    best = best.min(dp.saturating_add(mid).saturating_add(dq));
                }
            }
            best
        }
    }
}

/// PostMHL's post-boundary snapshot (Q-Stage 3), published between U4 and
/// U5: same-partition pairs by the H2H minimum over the LCA's bag, all other
/// pairs by concatenating boundary entries through the overlay labels.
pub struct DisbView {
    graph: Arc<Graph>,
    h2h: Arc<H2HIndex>,
    tdp: Arc<TdPartition>,
}

impl QueryView for DisbView {
    fn algorithm(&self) -> &'static str {
        "PostMHL"
    }

    fn stage(&self) -> usize {
        PostMhlStage::PostBoundary.index()
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        let (td, dis) = (self.h2h.decomposition(), self.h2h.labels());
        post_boundary_distance(td, dis, &self.tdp, s, t)
    }

    /// Per-target lookups are the batch algorithm of a label stage.
    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(FallbackSession::new(self))
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// The Post-partitioned Multi-stage Hub Labeling index (write half).
pub struct PostMhl {
    config: PostMhlConfig,
    /// Own copy of the graph (kept in sync with update batches).
    graph: Arc<Graph>,
    /// The global tree decomposition (shared shortcut arrays) and the one
    /// label table (`X(v).dis`, the paper's `disB` included), indexed by
    /// vertex then ancestor depth. Both are chunk-granular copy-on-write:
    /// publishing a snapshot copies chunk spines; a stage that repairs `k`
    /// rows clones `O(k / chunk)` chunks, not the table. The stages stage
    /// their own repair through [`H2HIndex::parts_mut`].
    h2h: Arc<H2HIndex>,
    /// The TD-partitioning result.
    tdp: Arc<TdPartition>,
    bidij: Arc<ScratchPool<BiDijkstra>>,
    ch: Arc<ScratchPool<ChQuery>>,
    stage: PostMhlStage,
}

impl PostMhl {
    /// Builds PostMHL (Algorithm 4): the tree decomposition and its labels,
    /// which hold the overlay, post-boundary and cross-boundary indexes,
    /// then TD-partitioning. The label fill runs on a pool of
    /// `config.num_threads` ([`Self::build_pooled`]).
    pub fn build(graph: &Graph, config: PostMhlConfig) -> Self {
        Self::build_pooled(graph, config, &WorkerPool::new(config.num_threads))
    }

    /// [`Self::build`] with the label fill's subtrees on `pool`
    /// ([`H2HIndex::from_decomposition_pooled`]); the order, the
    /// customization and the TD-partitioning are sequential. Bit-identical
    /// at every thread count.
    pub fn build_pooled(graph: &Graph, config: PostMhlConfig, pool: &WorkerPool) -> Self {
        Self::build_ordered(graph, OrderingStrategy::NestedDissection, config, pool)
    }

    /// Warm restart: rebuilds the index from `graph` on the elimination
    /// order a `snapshot_state` stored, skipping the nested dissection (the
    /// order depends on the topology alone, so it holds for every weight
    /// change). The shortcut rows are the order's symbolic fill,
    /// customized; the label fill (on a pool of `config.num_threads`) and
    /// the TD-partitioning are still paid. The result is bit-identical to
    /// [`Self::build`] on `graph`. An order that is not a permutation of the
    /// graph's vertices is [`SnapshotError::Malformed`].
    pub fn from_state(
        graph: &Graph,
        state: &[u8],
        config: PostMhlConfig,
    ) -> Result<Self, SnapshotError> {
        Self::from_state_pooled(graph, state, config, &WorkerPool::new(config.num_threads))
    }

    /// [`Self::from_state`] with the label fill's subtrees on `pool`.
    pub fn from_state_pooled(
        graph: &Graph,
        state: &[u8],
        config: PostMhlConfig,
        pool: &WorkerPool,
    ) -> Result<Self, SnapshotError> {
        let order = VertexOrder::from_snapshot_bytes(state)?;
        if order.len() != graph.num_vertices() {
            return Err(SnapshotError::Malformed(format!(
                "order covers {} vertices but the graph has {}",
                order.len(),
                graph.num_vertices()
            )));
        }
        Ok(Self::build_ordered(
            graph,
            OrderingStrategy::Given(order),
            config,
            pool,
        ))
    }

    fn build_ordered(
        graph: &Graph,
        ordering: OrderingStrategy,
        config: PostMhlConfig,
        pool: &WorkerPool,
    ) -> Self {
        let ch = ContractionHierarchy::build(graph, ordering, ShortcutMode::AllPairs);
        let td = TreeDecomposition::from_hierarchy(ch);
        let h2h = H2HIndex::from_decomposition_pooled(td, pool);
        let tdp = td_partition(h2h.decomposition(), &config.partitioning);
        let n = graph.num_vertices();
        PostMhl {
            config,
            graph: Arc::new(graph.clone()),
            bidij: bidijkstra_pool(n),
            ch: ch_query_pool(n),
            h2h: Arc::new(h2h),
            tdp: Arc::new(tdp),
            stage: PostMhlStage::CrossBoundary,
        }
    }

    /// Cumulative copy-on-write clone effort of the index's mutable tables
    /// (labels and shortcut arrays). Per-stage deltas of this figure are
    /// published with every snapshot.
    pub fn cow_stats(&self) -> CowStats {
        self.h2h.cow_stats()
    }

    /// The global H2H index: the tree decomposition with its shortcut
    /// arrays, and the label rows that hold every component of the index.
    pub fn h2h(&self) -> &H2HIndex {
        &self.h2h
    }

    /// The currently available query stage.
    pub fn stage(&self) -> PostMhlStage {
        self.stage
    }

    /// Number of partitions produced by TD-partitioning.
    pub fn num_partitions(&self) -> usize {
        self.tdp.num_partitions()
    }

    /// Number of overlay vertices (Exp. 8 reports this against `τ`).
    pub fn num_overlay_vertices(&self) -> usize {
        self.tdp.overlay_vertices().len()
    }

    /// The TD-partitioning result.
    pub fn partitioning(&self) -> &TdPartition {
        &self.tdp
    }

    fn view_with(&self, at: PostMhlStage) -> Arc<dyn QueryView> {
        let (algorithm, stage, graph) = ("PostMHL", at.index(), Arc::clone(&self.graph));
        match at {
            PostMhlStage::BiDijkstra => Arc::new(BiDijkstraView {
                algorithm,
                stage,
                graph,
                scratch: Arc::clone(&self.bidij),
            }),
            // The CH view pins the decomposition only, not the labels the
            // next stages repair.
            PostMhlStage::Pch => Arc::new(ChView {
                algorithm,
                stage,
                graph,
                ch: Arc::new(self.h2h.decomposition().clone()),
                scratch: Arc::clone(&self.ch),
            }),
            PostMhlStage::PostBoundary => Arc::new(DisbView {
                graph,
                h2h: Arc::clone(&self.h2h),
                tdp: Arc::clone(&self.tdp),
            }),
            PostMhlStage::CrossBoundary => Arc::new(H2hView {
                algorithm,
                stage,
                graph,
                h2h: Arc::clone(&self.h2h),
            }),
        }
    }
}

/// Output of one partition's post-boundary pass, rows back to back in the
/// order of [`TdPartition::vertices`]: each member's new boundary entries
/// (the paper's `disB`, in the order of [`TdPartition::boundary`]) and new
/// in-partition segment (depth ≥ root depth) of its label row.
struct PostPassResult {
    boundary: Vec<Dist>,
    seg: Vec<Dist>,
    /// `seg[seg_start[i]..seg_start[i + 1]]` is member `i`'s segment.
    seg_start: Vec<usize>,
}

impl IndexMaintainer for PostMhl {
    fn name(&self) -> &'static str {
        "PostMHL"
    }

    fn num_query_stages(&self) -> usize {
        4
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let pool = WorkerPool::new(self.config.num_threads);
        let mut timeline = UpdateTimeline::default();
        // Per-stage clone telemetry: every publication carries the chunks /
        // bytes the stage actually copy-on-wrote (the `since` delta of the
        // shared component counters).
        let mut cow_mark = self.cow_stats();
        let mut publish = |this: &PostMhl, stage: PostMhlStage, publisher: &SnapshotPublisher| {
            let now = this.cow_stats();
            publisher.publish_with_cow(this.view_with(stage), now.since(cow_mark));
            cow_mark = now;
        };

        // U-Stage 1: take the new graph version, whose weights the caller
        // installed on the spot.
        let t0 = Instant::now();
        self.graph = Arc::new(graph.clone());
        self.stage = PostMhlStage::BiDijkstra;
        publish(self, PostMhlStage::BiDijkstra, publisher);
        timeline.push("U1: on-spot edge update", t0.elapsed());

        // U-Stage 2: shortcut-array update (shared by every component). The
        // decomposition's tree shape is behind a shared `Arc` and the arc
        // weights are chunked COW, so this `make_mut` is a spine copy, not a
        // deep clone of the decomposition.
        let t1 = Instant::now();
        let changes = Arc::make_mut(&mut self.h2h)
            .parts_mut()
            .0
            .hierarchy_mut()
            .apply_batch(&self.graph, batch.as_slice());
        self.stage = PostMhlStage::Pch;
        publish(self, PostMhlStage::Pch, publisher);
        timeline.push("U2: shortcut array update", t1.elapsed());

        // U-Stage 3: overlay label update. (No new query stage: the overlay
        // labels alone cannot answer arbitrary queries, so nothing is
        // published until the post-boundary stage completes.) A partition
        // must be repaired if a shortcut array of one of its members changed
        // or a label above its root did: the repair walks the overlay top
        // down and stops at the partition roots it reaches.
        let t2 = Instant::now();
        let mut is_affected = vec![false; self.tdp.num_partitions()];
        let mut overlay_changed = Vec::new();
        for c in &changes {
            match self.tdp.partition_of(c.from) {
                Some(pi) => is_affected[pi] = true,
                None => overlay_changed.push(c.from),
            }
        }
        let tdp = &self.tdp;
        let (td, dis) = Arc::make_mut(&mut self.h2h).parts_mut();
        repair_labels(td, dis, overlay_changed, |c| match tdp.partition_of(c) {
            Some(pi) => {
                is_affected[pi] = true;
                false
            }
            None => true,
        });
        timeline.push("U3: overlay index update", t2.elapsed());
        let affected: Vec<usize> = (0..is_affected.len())
            .filter(|&pi| is_affected[pi])
            .collect();

        // U-Stage 4: post-boundary update (the boundary and in-partition
        // label entries), the affected partitions shared out over the worker
        // threads.
        let t3 = Instant::now();
        let post_results = pool.run("postmhl_u4", affected.len(), |k| {
            self.post_boundary_pass(affected[k])
        });
        let (td, dis) = Arc::make_mut(&mut self.h2h).parts_mut();
        for (&pi, res) in affected.iter().zip(post_results) {
            let root_depth = td.depth(self.tdp.roots()[pi]) as usize;
            let boundary = self.tdp.boundary(pi);
            let depths: Vec<usize> = boundary.iter().map(|&b| td.depth(b) as usize).collect();
            let nb = depths.len();
            for (i, &v) in self.tdp.vertices(pi).iter().enumerate() {
                // The boundary entries go to their depths in the row, the
                // segment to its tail. Write only rows whose values actually
                // moved, so the copy-on-write clone volume tracks the
                // *changed* label set, not the recomputed one.
                let new_boundary = &res.boundary[i * nb..(i + 1) * nb];
                let new_seg = &res.seg[res.seg_start[i]..res.seg_start[i + 1]];
                let row = dis.row(v.index());
                let boundary_moved = depths.iter().zip(new_boundary).any(|(&d, &x)| row[d] != x);
                if boundary_moved || row[root_depth..] != *new_seg {
                    let row = dis.make_mut(v.index());
                    for (&d, &x) in depths.iter().zip(new_boundary) {
                        row[d] = x;
                    }
                    row[root_depth..].copy_from_slice(new_seg);
                }
            }
        }
        self.stage = PostMhlStage::PostBoundary;
        publish(self, PostMhlStage::PostBoundary, publisher);
        timeline.push("U4: post-boundary index update", t3.elapsed());

        // U-Stage 5: cross-boundary update (overlay-ancestor label entries),
        // shared out the same way.
        let t4 = Instant::now();
        let cross_results = pool.run("postmhl_u5", affected.len(), |k| {
            self.cross_boundary_pass(affected[k])
        });
        let (td, dis) = Arc::make_mut(&mut self.h2h).parts_mut();
        for (&pi, prefix) in affected.iter().zip(cross_results) {
            let root_depth = td.depth(self.tdp.roots()[pi]) as usize;
            for (i, &v) in self.tdp.vertices(pi).iter().enumerate() {
                // Same changed-rows-only policy as the post-boundary merge.
                let new_prefix = &prefix[i * root_depth..(i + 1) * root_depth];
                if dis.row(v.index())[..root_depth] != *new_prefix {
                    dis.make_mut(v.index())[..root_depth].copy_from_slice(new_prefix);
                }
            }
        }
        self.stage = PostMhlStage::CrossBoundary;
        publish(self, PostMhlStage::CrossBoundary, publisher);
        timeline.push("U5: cross-boundary index update", t4.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        self.view_with(self.stage)
    }

    fn view_at_stage(&self, stage: usize) -> Arc<dyn QueryView> {
        self.view_with(PostMhlStage::from_index(stage))
    }

    fn index_size_bytes(&self) -> usize {
        self.h2h.index_size_bytes()
    }

    /// The elimination order alone: labels and shortcuts are rebuilt from
    /// it by [`PostMhl::from_state`].
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.h2h.decomposition().order().to_snapshot_bytes())
    }
}

impl PostMhl {
    /// Post-boundary pass over one partition subtree (Algorithm 4 lines
    /// 13-31, restricted to the boundary and in-partition ancestor entries).
    /// Reads the *current* overlay labels and the rows it has itself produced;
    /// never reads another partition's rows. The boundary entries are
    /// computed in a buffer of their own, because the members' recurrences
    /// read them; the merge writes them into the label rows.
    fn post_boundary_pass(&self, pi: usize) -> PostPassResult {
        let (td, dis) = (self.h2h.decomposition(), self.h2h.labels());
        let root_depth = td.depth(self.tdp.roots()[pi]) as usize;
        let boundary = self.tdp.boundary(pi);
        let nb = boundary.len();
        // D: all-pair boundary distances from the (already updated) overlay.
        // The boundary vertices are the root's bag: ancestors of one another,
        // deepest first, so each distance is one label entry.
        let mut d_matrix = vec![Dist::ZERO; nb * nb];
        for (i, &b) in boundary.iter().enumerate() {
            let row = dis.row(b.index());
            for (j, &shallower) in boundary.iter().enumerate().skip(i + 1) {
                let d = row[td.depth(shallower) as usize];
                d_matrix[i * nb + j] = d;
                d_matrix[j * nb + i] = d;
            }
        }

        let members = self.tdp.vertices(pi);
        let mut disb = vec![INF; members.len() * nb]; // the paper's `disB`
        let mut seg: Vec<Dist> = Vec::new();
        let mut seg_start = Vec::with_capacity(members.len() + 1);
        // `path[d - root_depth]` = member index of the current vertex's
        // ancestor at depth `d` (the members come in depth-first preorder).
        let mut path: Vec<usize> = Vec::new();
        let mut bag_inside: Vec<(u32, Weight)> = Vec::new();
        let mut bag_boundary: Vec<(usize, Weight)> = Vec::new();
        for (i, &v) in members.iter().enumerate() {
            let depth_v = td.depth(v) as usize;
            path.truncate(depth_v - root_depth);
            debug_assert_eq!(
                path.last().map(|&p| members[p]),
                td.parent(v).filter(|_| i > 0)
            );
            // The bag, deepest first: in-partition ancestors, then boundary
            // vertices (a subsequence of the root's bag).
            bag_inside.clear();
            bag_boundary.clear();
            let mut k = 0;
            for &(u, w) in td.bag(v) {
                let du = td.depth(u);
                if du as usize >= root_depth {
                    bag_inside.push((du, w));
                } else {
                    while boundary[k] != u {
                        k += 1;
                    }
                    bag_boundary.push((k, w));
                }
            }

            // Boundary entries: through an in-partition neighbor's (new)
            // ones, or through a boundary neighbor's row of D.
            let (done, rest) = disb.split_at_mut(i * nb);
            let disb_row = &mut rest[..nb];
            for &(du, w) in &bag_inside {
                let p = path[du as usize - root_depth];
                min_plus(disb_row, &done[p * nb..(p + 1) * nb], w);
            }
            for &(k, w) in &bag_boundary {
                min_plus(disb_row, &d_matrix[k * nb..(k + 1) * nb], w);
            }

            // In-partition ancestor entries (depths root_depth .. depth_v):
            // the label recurrence over the in-partition neighbors, plus, for
            // a boundary neighbor, the ancestor's own (new) boundary entry.
            seg_start.push(seg.len());
            seg.resize(seg.len() + depth_v + 1 - root_depth, Dist::ZERO); // d(v, v) last
            let (done_seg, rest) = seg.split_at_mut(seg_start[i]);
            let label = &mut rest[..depth_v - root_depth];
            fold_label(
                &bag_inside,
                root_depth,
                |d| {
                    let p = path[d - root_depth];
                    &done_seg[seg_start[p]..seg_start[p + 1]]
                },
                label,
            );
            for (entry, &p) in label.iter_mut().zip(&path) {
                let via = &done[p * nb..(p + 1) * nb];
                for &(k, w) in &bag_boundary {
                    let cand = via[k].saturating_add_weight(w);
                    if cand < *entry {
                        *entry = cand;
                    }
                }
            }
            path.push(i);
        }
        seg_start.push(seg.len());
        PostPassResult {
            boundary: disb,
            seg,
            seg_start,
        }
    }

    /// Cross-boundary pass over one partition subtree: recomputes the label
    /// entries towards the overlay ancestors (depths `0 .. root_depth`, so
    /// root-depth entries per member), returned back to back in the order of
    /// [`TdPartition::vertices`].
    fn cross_boundary_pass(&self, pi: usize) -> Vec<Dist> {
        let (td, dis) = (self.h2h.decomposition(), self.h2h.labels());
        let root = self.tdp.roots()[pi];
        let root_depth = td.depth(root) as usize;
        // The (repaired) labels of the overlay ancestors by depth, shared by
        // every member.
        let above: Vec<&[Dist]> = td
            .ancestors(root)
            .iter()
            .map(|a| dis.row(a.index()))
            .collect();
        let members = self.tdp.vertices(pi);
        let mut prefix = vec![INF; members.len() * root_depth];
        // As in the post-boundary pass.
        let mut path: Vec<usize> = Vec::new();
        let mut bag = Vec::new();
        for (i, &v) in members.iter().enumerate() {
            path.truncate(td.depth(v) as usize - root_depth);
            bag_by_depth(td, v, &mut bag);
            let (done, rest) = prefix.split_at_mut(i * root_depth);
            // An in-partition ancestor's row is its (new) cross entries, an
            // overlay ancestor's its repaired label.
            fold_label(
                &bag,
                0,
                |d| match d.checked_sub(root_depth) {
                    Some(below) => {
                        let p = path[below];
                        &done[p * root_depth..(p + 1) * root_depth]
                    }
                    None => above[d],
                },
                &mut rest[..root_depth],
            );
            path.push(i);
        }
        prefix
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    fn config(ke: usize, tau: usize, threads: usize) -> PostMhlConfig {
        PostMhlConfig {
            partitioning: TdPartitionConfig {
                bandwidth: tau,
                expected_partitions: ke,
                beta_lower: 0.1,
                beta_upper: 2.0,
            },
            num_threads: threads,
        }
    }

    fn check_all_stages(idx: &PostMhl, g: &Graph, count: usize, seed: u64) {
        let qs = QuerySet::random(g, count, seed);
        for q in &qs {
            let expect = dijkstra_distance(g, q.source, q.target);
            for stage in 0..4 {
                assert_eq!(
                    idx.view_at_stage(stage).distance(q.source, q.target),
                    expect,
                    "PostMHL stage {stage} mismatch for {:?}",
                    q
                );
            }
        }
    }

    #[test]
    fn freshly_built_postmhl_is_exact_at_every_stage() {
        let g = grid(10, 10, WeightRange::new(1, 20), 51);
        let idx = PostMhl::build(&g, config(8, 12, 2));
        assert!(idx.num_partitions() >= 2);
        assert!(idx.num_overlay_vertices() > 0);
        assert_eq!(idx.num_query_stages(), 4);
        assert!(IndexMaintainer::index_size_bytes(&idx) > 0);
        check_all_stages(&idx, &g, 80, 3);
    }

    #[test]
    fn postmhl_stays_exact_across_update_batches() {
        let mut g = grid(10, 10, WeightRange::new(5, 40), 53);
        let mut idx = PostMhl::build(&g, config(8, 12, 2));
        let mut gen = UpdateGenerator::new(29);
        for round in 0..3 {
            let batch = gen.generate(&g, 25);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(idx.current_view());
            let timeline = idx.apply_batch(&g, &batch, &publisher);
            assert_eq!(timeline.stages.len(), 5);
            assert_eq!(idx.stage(), PostMhlStage::CrossBoundary);
            // Four query stages published (U3 releases no new machinery).
            let log = publisher.take_log();
            assert_eq!(log.len(), 4);
            assert_eq!(log.last().unwrap().stage, 3);
            check_all_stages(&idx, &g, 50, 200 + round);
        }
    }

    #[test]
    fn thread_count_does_not_change_answers() {
        let mut g1 = grid(9, 9, WeightRange::new(5, 30), 57);
        let mut g2 = g1.clone();
        let mut a = PostMhl::build(&g1, config(8, 12, 1));
        let mut b = PostMhl::build(&g2, config(8, 12, 4));
        let mut gen1 = UpdateGenerator::new(31);
        let mut gen2 = UpdateGenerator::new(31);
        let batch1 = gen1.generate(&g1, 20);
        let batch2 = gen2.generate(&g2, 20);
        g1.apply_batch(&batch1);
        g2.apply_batch(&batch2);
        let pub_a = SnapshotPublisher::new(a.current_view());
        let pub_b = SnapshotPublisher::new(b.current_view());
        a.apply_batch(&g1, &batch1, &pub_a);
        b.apply_batch(&g2, &batch2, &pub_b);
        let va = a.current_view();
        let vb = b.current_view();
        let qs = QuerySet::random(&g1, 60, 17);
        for q in &qs {
            assert_eq!(
                va.distance(q.source, q.target),
                vb.distance(q.source, q.target)
            );
        }
    }

    #[test]
    fn larger_bandwidth_means_smaller_overlay() {
        let g = grid(12, 12, WeightRange::new(1, 20), 59);
        let small = PostMhl::build(&g, config(16, 6, 1));
        let large = PostMhl::build(&g, config(16, 24, 1));
        assert!(large.num_overlay_vertices() <= small.num_overlay_vertices());
    }

    /// `cargo test --release -p htsp-core -- --ignored --nocapture grid128`
    #[test]
    #[ignore = "128x128 grid: minutes in a debug build"]
    fn repair_time_follows_the_batch_size_on_grid128() {
        use htsp_graph::gen::grid_with_diagonals;
        let mut g = grid_with_diagonals(128, 128, WeightRange::new(1, 100), 0.1, 42);
        // The benchmark's index: `BuildParams::new(8, 2)`.
        let mut idx = PostMhl::build(&g, config(32, 16, 2));
        for size in [10usize, 200] {
            let mut gen = UpdateGenerator::new(size as u64);
            let batch = gen.generate(&g, size);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(idx.current_view());
            let t = Instant::now();
            let timeline = idx.apply_batch(&g, &batch, &publisher);
            println!("grid128 |U| = {size}: PostMHL repair {:?}", t.elapsed());
            for stage in &timeline.stages {
                println!("    {:<34} {:?}", stage.name, stage.duration);
            }
            check_all_stages(&idx, &g, 40, size as u64);
        }
    }

    /// `cargo test --release -p htsp-core -- --ignored --nocapture grid128`
    #[test]
    #[ignore = "128x128 grid: minutes in a debug build"]
    fn build_time_on_grid128_is_the_h2h_build() {
        use htsp_ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode};
        use htsp_graph::gen::grid_with_diagonals;
        let g = grid_with_diagonals(128, 128, WeightRange::new(1, 100), 0.1, 42);
        // Best of three: the claim is about the code, not the host's worst moment.
        let best = |f: &dyn Fn()| {
            (0..3)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    t.elapsed()
                })
                .min()
                .expect("three runs")
        };
        let eliminate = best(&|| {
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        });
        let td = TreeDecomposition::build(&g);
        let fill = best(&|| {
            H2HIndex::from_decomposition(td.clone());
        });
        println!("grid128: order + contraction {eliminate:?}, label fill {fill:?}");
        // PostMHL's index is the H2H index; the build adds the partitioning.
        // Both fill on two threads. Interleaved, so neither side alone pays
        // for the first fresh pages.
        let pool = WorkerPool::new(2);
        let (mut h2h, mut post) = (std::time::Duration::MAX, std::time::Duration::MAX);
        for _ in 0..3 {
            let t = Instant::now();
            H2HIndex::build_pooled(&g, &pool);
            h2h = h2h.min(t.elapsed());
            let t = Instant::now();
            PostMhl::build(&g, config(32, 16, 2));
            post = post.min(t.elapsed());
        }
        println!("grid128: H2HIndex::build {h2h:?}, PostMhl::build {post:?}");
        assert!(
            post.as_secs_f64() <= h2h.as_secs_f64() * 1.1,
            "PostMHL build {post:?} against H2H build {h2h:?}"
        );
    }

    /// A cold [`PostMhl::build`] against [`PostMhl::from_state`] on its
    /// stored order, on the benchmark's `grid64` with its parameters
    /// (`BuildParams::new(8, 2)`): 31 interleaved runs of each, medians
    /// with quartiles. Both fill their labels on two threads; the restore
    /// skips the order (the dissection and its groups' orders), so the gap
    /// is the order's time.
    ///
    /// `cargo test --release -p htsp-core -- --ignored --nocapture grid64`
    #[test]
    #[ignore = "a timing ruler: seconds, and only meaningful in a release build"]
    fn postmhl_restart_vs_cold_build_on_grid64() {
        use htsp_graph::gen::grid_with_diagonals;
        let g = grid_with_diagonals(64, 64, WeightRange::new(1, 100), 0.1, 42);
        let config = config(32, 16, 2);
        let state = PostMhl::build(&g, config).snapshot_state().expect("state");
        let ms = |f: &dyn Fn()| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        };
        let (mut cold, mut restore) = (Vec::new(), Vec::new());
        for _ in 0..31 {
            cold.push(ms(&|| {
                PostMhl::build(&g, config);
            }));
            restore.push(ms(&|| {
                PostMhl::from_state(&g, &state, config).expect("restore");
            }));
        }
        println!("grid64, ms (median of 31; quartiles):");
        for (name, v) in [("cold build", &mut cold), ("order restore", &mut restore)] {
            v.sort_by(f64::total_cmp);
            println!("    {name:<14} {:6.2} ({:.2}-{:.2})", v[15], v[7], v[23]);
        }
        println!("    order state    {} B", state.len());
    }

    #[test]
    fn index_bytes_equal_dh2h_bytes() {
        use htsp_baselines::Dh2hBaseline;
        use htsp_graph::gen::random_geometric;
        for g in [
            grid(16, 16, WeightRange::new(1, 50), 61),
            random_geometric(600, 3, WeightRange::new(1, 80), 63),
        ] {
            let post = PostMhl::build(&g, config(8, 12, 1));
            assert!(post.num_partitions() >= 2, "the boundary entries exist");
            assert_eq!(
                IndexMaintainer::index_size_bytes(&post),
                IndexMaintainer::index_size_bytes(&Dh2hBaseline::build(&g))
            );
        }
    }
}
