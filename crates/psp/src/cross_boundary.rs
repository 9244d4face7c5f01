//! The cross-boundary strategy (§IV-A): a flat global 2-hop labeling `L*`
//! that eliminates distance concatenation for cross-partition queries.
//!
//! For a boundary vertex the label is inherited directly from the overlay
//! index `L̃`; for an interior vertex `v ∈ G_i \ B_i` the label towards every
//! overlay hub `c` is `min_{b ∈ B_i} d_{L'_i}(v, b) + L̃(b, c)` (Lemma 2).
//! Cross-partition queries then reduce to a single 2-hop join, cutting the
//! query cost by the `O(|B_max|²)` concatenation factor.
//!
//! This implementation stores the labels as sorted `(hub, distance)` vectors —
//! a flat representation of the index rather than the tree-aggregated layout
//! of Algorithm 1; the asymptotic query cost (one sorted-merge over the two
//! label sets) is the same, and DESIGN.md records the simplification.

use crate::overlay::OverlayGraph;
use crate::partitioned::Partitioned;
use crate::post_boundary::PostBoundaryIndexes;
use htsp_graph::cow::{CowStats, CowTable};
use htsp_graph::{Dist, VertexId, INF};
use htsp_td::H2HIndex;
use rustc_hash::{FxHashMap, FxHashSet};
use std::time::Duration;

/// The flat cross-boundary labeling `L*`.
///
/// The per-vertex labels live in a chunked copy-on-write [`CowTable`], so a
/// U-Stage 5 that relabels the interior of `k` affected partitions clones
/// the chunks those vertices fall in, not the whole labeling, even while a
/// snapshot pins the pre-update labels.
#[derive(Clone, Debug)]
pub struct CrossBoundaryIndex {
    /// `labels[v]` — sorted `(hub global id, distance)` pairs. Hubs are always
    /// overlay (boundary) vertices, which suffices for cross-partition queries
    /// (Lemma 2, cases 2-3).
    labels: CowTable<(u32, Dist)>,
}

/// Extracts the overlay 2-hop label of a boundary vertex as
/// `(hub global id, distance)` pairs (its overlay ancestors plus itself).
fn overlay_label(
    overlay: &OverlayGraph,
    overlay_index: &H2HIndex,
    b_global: VertexId,
) -> Vec<(u32, Dist)> {
    let lb = match overlay.to_local(b_global) {
        Some(l) => l,
        None => return Vec::new(),
    };
    let td = overlay_index.decomposition();
    let label = overlay_index.label(lb);
    let mut out: Vec<(u32, Dist)> = td
        .ancestors(lb)
        .iter()
        .enumerate()
        .map(|(d, &a)| (overlay.to_global(a).0, label[d]))
        .collect();
    out.push((b_global.0, Dist::ZERO));
    out.sort_unstable_by_key(|&(h, _)| h);
    out
}

impl CrossBoundaryIndex {
    /// Builds `L*` from the overlay index and the post-boundary partition
    /// indexes (Step 6 of PMHL construction).
    pub fn build(
        partitioned: &Partitioned,
        overlay: &OverlayGraph,
        overlay_index: &H2HIndex,
        post: &PostBoundaryIndexes,
    ) -> Self {
        let n = partitioned.graph.num_vertices();
        let mut labels = vec![Vec::new(); n];
        for (v, label) in labels.iter_mut().enumerate() {
            let vid = VertexId::from_index(v);
            *label = Self::compute_label(partitioned, overlay, overlay_index, post, vid);
        }
        CrossBoundaryIndex {
            labels: CowTable::from_rows(labels),
        }
    }

    /// Cumulative copy-on-write clone effort of the label table.
    pub fn cow_stats(&self) -> CowStats {
        self.labels.stats()
    }

    fn compute_label(
        partitioned: &Partitioned,
        overlay: &OverlayGraph,
        overlay_index: &H2HIndex,
        post: &PostBoundaryIndexes,
        v: VertexId,
    ) -> Vec<(u32, Dist)> {
        if partitioned.partition.is_boundary(v) {
            return overlay_label(overlay, overlay_index, v);
        }
        let pi = partitioned.partition.partition_of(v);
        let sub = &partitioned.subgraphs[pi];
        let lv = match sub.to_local(v) {
            Some(l) => l,
            None => return Vec::new(),
        };
        let mut acc: FxHashMap<u32, Dist> = FxHashMap::default();
        for &lb in &sub.boundary_local {
            let dvb = post.distance_to_boundary(pi, lv, lb);
            if dvb.is_inf() {
                continue;
            }
            let b_global = sub.to_global(lb);
            for (hub, d) in overlay_label(overlay, overlay_index, b_global) {
                let cand = dvb.saturating_add(d);
                acc.entry(hub)
                    .and_modify(|cur| {
                        if cand < *cur {
                            *cur = cand;
                        }
                    })
                    .or_insert(cand);
            }
        }
        let mut out: Vec<(u32, Dist)> = acc.into_iter().collect();
        out.sort_unstable_by_key(|&(h, _)| h);
        out
    }

    /// Label of `v` (sorted by hub id).
    pub fn label(&self, v: VertexId) -> &[(u32, Dist)] {
        self.labels.row(v.index())
    }

    /// Cross-partition distance by a sorted-merge 2-hop join over the two
    /// labels. Returns `INF` if the labels share no hub.
    pub fn cross_distance(&self, s: VertexId, t: VertexId) -> Dist {
        let (a, b) = (self.labels.row(s.index()), self.labels.row(t.index()));
        let (mut i, mut j) = (0usize, 0usize);
        let mut best = INF;
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let cand = a[i].1.saturating_add(b[j].1);
                    if cand < best {
                        best = cand;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        best
    }

    /// Repairs `L*` after the overlay and post-boundary indexes have been
    /// updated (U-Stage 5 of PMHL).
    ///
    /// `overlay_changed_boundary` lists boundary vertices whose overlay labels
    /// changed; `post_changed_partitions` lists partitions whose `L'_i` labels
    /// changed. Following §IV-A, the labels of every interior vertex of an
    /// affected partition are recomputed, and boundary labels are re-inherited
    /// where the overlay changed. Returns the number of recomputed labels and
    /// the time spent.
    pub fn update(
        &mut self,
        partitioned: &Partitioned,
        overlay: &OverlayGraph,
        overlay_index: &H2HIndex,
        post: &PostBoundaryIndexes,
        overlay_changed_boundary: &[VertexId],
        post_changed_partitions: &[usize],
    ) -> (usize, Duration) {
        let start = std::time::Instant::now();
        let mut affected_partitions: FxHashSet<usize> =
            post_changed_partitions.iter().copied().collect();
        let mut recomputed = 0usize;
        for &b in overlay_changed_boundary {
            let g = overlay.to_global(b);
            let new = overlay_label(overlay, overlay_index, g);
            // Write only labels whose values moved: the copy-on-write clone
            // volume then tracks the changed label set, not the recomputed
            // one.
            if *self.labels.row(g.index()) != new[..] {
                *self.labels.make_mut(g.index()) = new;
            }
            recomputed += 1;
            affected_partitions.insert(partitioned.partition.partition_of(g));
        }
        for &pi in &affected_partitions {
            for &v in partitioned.partition.vertices(pi) {
                if partitioned.partition.is_boundary(v) {
                    continue;
                }
                let new = Self::compute_label(partitioned, overlay, overlay_index, post, v);
                if *self.labels.row(v.index()) != new[..] {
                    *self.labels.make_mut(v.index()) = new;
                }
                recomputed += 1;
            }
        }
        (recomputed, start.elapsed())
    }

    /// Approximate size of `L*` in bytes.
    pub fn index_size_bytes(&self) -> usize {
        self.labels.num_entries() * std::mem::size_of::<(u32, Dist)>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition_index::build_partition_ch;
    use htsp_ch::ContractionHierarchy;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::QuerySet;
    use htsp_partition::partition_region_growing;
    use htsp_search::dijkstra_distance;
    use htsp_td::TreeDecomposition;

    fn setup() -> (
        Partitioned,
        OverlayGraph,
        H2HIndex,
        PostBoundaryIndexes,
        CrossBoundaryIndex,
    ) {
        let g = grid(9, 9, WeightRange::new(1, 20), 19);
        let pr = partition_region_growing(&g, 4, 5);
        let p = Partitioned::build(g, pr);
        let chs: Vec<ContractionHierarchy> = p.subgraphs.iter().map(build_partition_ch).collect();
        let refs: Vec<&ContractionHierarchy> = chs.iter().collect();
        let overlay = OverlayGraph::build(&p, &refs);
        let overlay_index = H2HIndex::from_decomposition(TreeDecomposition::build(&overlay.graph));
        let post = PostBoundaryIndexes::build(&p, &overlay, &overlay_index);
        let cross = CrossBoundaryIndex::build(&p, &overlay, &overlay_index, &post);
        (p, overlay, overlay_index, post, cross)
    }

    #[test]
    fn cross_partition_queries_are_exact() {
        let (p, _overlay, _oi, _post, cross) = setup();
        let qs = QuerySet::random(&p.graph, 300, 7);
        let mut checked = 0;
        for q in &qs {
            if p.partition.same_partition(q.source, q.target) {
                continue;
            }
            let expect = dijkstra_distance(&p.graph, q.source, q.target);
            let got = cross.cross_distance(q.source, q.target);
            assert_eq!(got, expect, "cross-boundary mismatch for {:?}", q);
            checked += 1;
        }
        assert!(checked > 20, "too few cross-partition queries exercised");
    }

    #[test]
    fn labels_satisfy_two_hop_cover_for_boundary_pairs() {
        let (p, overlay, _oi, _post, cross) = setup();
        // Lemma 2, case 1: boundary-boundary pairs.
        let b: Vec<VertexId> = overlay.global_of.clone();
        for (i, &b1) in b.iter().enumerate().step_by(3) {
            for &b2 in b.iter().skip(i + 1).step_by(4) {
                if p.partition.same_partition(b1, b2) {
                    continue;
                }
                assert_eq!(
                    cross.cross_distance(b1, b2),
                    dijkstra_distance(&p.graph, b1, b2)
                );
            }
        }
    }

    #[test]
    fn index_size_positive_and_labels_sorted() {
        let (p, _overlay, _oi, _post, cross) = setup();
        assert!(cross.index_size_bytes() > 0);
        for v in p.graph.vertices() {
            let l = cross.label(v);
            for w in l.windows(2) {
                assert!(w[0].0 < w[1].0, "labels of {v} not strictly sorted");
            }
        }
    }
}
