//! DH2H: dynamic maintenance of the H2H index.
//!
//! Maintenance proceeds in the two phases of \[33\] (and Figure 7's U-Stages 2-3
//! use exactly these phases per partition):
//!
//! 1. **Bottom-up shortcut update** — delegated to the DCH repair of the
//!    underlying contraction hierarchy
//!    ([`htsp_ch::ContractionHierarchy::apply_batch`]); it returns the set of
//!    tree nodes whose shortcut arrays changed.
//! 2. **Top-down label update** ([`repair_labels`]) — visits those nodes in
//!    depth-first preorder and recomputes a distance array when the node's
//!    own shortcuts changed or a label above it did; below a label that
//!    moved the whole subtree is recomputed, everything else is never
//!    looked at. Each array is one pass of the row-major label kernel
//!    ([`crate::fold_label`]) shared with the H2H build and PostMHL.
//!
//! The label phase dominates: on `grid64` with |U| = 200 the shortcut phase
//! takes 3–5 ms and the label phase 6–11 ms (4 082–4 091 of 4 096 arrays are
//! recomputed — a batch that size moves a label near the root, and what lies
//! below a moved label is recomputed wholesale). DH2H queries are fast, but
//! nothing can be answered from the labels until both phases are done; this
//! is the paper's motivation for PMHL/PostMHL, which publish intermediate
//! query stages. The returned [`H2HUpdateReport`] exposes both phase
//! durations, so the index-unavailable window can be modelled.
//!
//! How much of that label work is real change, on the nested-dissection tree
//! of `grid64` (613 745 label entries), over six batches per size of |U|
//! distinct edges from `UpdateGenerator` applied in sequence (2-vCPU Xeon):
//!
//! | \|U\| | entries that moved | rows recomputed | label phase | PostMHL repair |
//! |-------|--------------------|-----------------|-------------|----------------|
//! | 200   | 43.7–51.0 %        | 4 082–4 091     | 5.9–11.2 ms | 12.7–17.6 ms   |
//! | 50    | 17.2–25.2 %        | 4 061–4 087     | 5.9–7.3 ms  | 10.9–13.1 ms   |
//! | 10    | 0.7–5.0 %          | 2 210–4 070     | 4.0–7.5 ms  | 7.7–14.8 ms    |
//!
//! A per-column repair that recomputes only the entries that can move would
//! save at most about half of the label phase at |U| = 200, ≈3–6 ms of the
//! PostMHL repair, inside the run-to-run noise of a 2-vCPU host. At |U| = 10
//! it is most of the phase: 54–99 % of the rows are recomputed for at most
//! 5 % of the entries.

use crate::decomposition::TreeDecomposition;
use crate::h2h::{full_label, H2HIndex};
use htsp_ch::ShortcutChange;
use htsp_graph::cow::CowTable;
use htsp_graph::{Dist, EdgeUpdate, Graph, VertexId};
use std::time::{Duration, Instant};

/// Outcome of one DH2H maintenance round.
#[derive(Clone, Debug, Default)]
pub struct H2HUpdateReport {
    /// Shortcuts whose weight changed during the bottom-up phase.
    pub shortcut_changes: Vec<ShortcutChange>,
    /// Vertices whose distance arrays changed during the top-down phase
    /// (the affected vertex set `V_A` consumed by PMHL's U-Stage 5).
    pub affected_labels: Vec<VertexId>,
    /// Number of tree nodes whose labels were recomputed (even if unchanged).
    pub labels_recomputed: usize,
    /// Wall-clock duration of the bottom-up shortcut phase.
    pub shortcut_time: Duration,
    /// Wall-clock duration of the top-down label phase.
    pub label_time: Duration,
}

impl H2HUpdateReport {
    /// Total maintenance time.
    pub fn total_time(&self) -> Duration {
        self.shortcut_time + self.label_time
    }
}

impl H2HIndex {
    /// Repairs the index after the updates in `batch` have been applied to
    /// `graph` (the graph must already hold the new weights).
    pub fn apply_batch(&mut self, graph: &Graph, batch: &[EdgeUpdate]) -> H2HUpdateReport {
        let t0 = Instant::now();
        let shortcut_changes = self.update_shortcuts(graph, batch);
        let shortcut_time = t0.elapsed();

        let t1 = Instant::now();
        let changed = shortcut_changes.iter().map(|c| c.from).collect();
        let (td, dis) = self.parts_mut();
        let (affected_labels, labels_recomputed) = repair_labels(td, dis, changed, |_| true);
        let label_time = t1.elapsed();

        H2HUpdateReport {
            shortcut_changes,
            affected_labels,
            labels_recomputed,
            shortcut_time,
            label_time,
        }
    }

    /// Phase 1 only: bottom-up shortcut update (shared with DCH). The label
    /// arrays are *not* repaired; CH-style queries on the shortcut arrays are
    /// correct after this call, H2H queries are not until
    /// [`H2HIndex::update_labels_for`] runs. Used by the multi-stage indexes
    /// (PMHL U-Stage 2 / PostMHL U-Stage 2).
    pub fn update_shortcuts(&mut self, graph: &Graph, batch: &[EdgeUpdate]) -> Vec<ShortcutChange> {
        let (td, _) = self.parts_mut();
        td.hierarchy_mut().apply_batch(graph, batch)
    }

    /// Phase 2 only: top-down label update given the vertices whose shortcut
    /// arrays changed in phase 1. Returns `(vertices whose labels changed,
    /// number of labels recomputed)`.
    pub fn update_labels_for(&mut self, sc_changed: &[VertexId]) -> (Vec<VertexId>, usize) {
        let (td, dis) = self.parts_mut();
        repair_labels(td, dis, sc_changed.to_vec(), |_| true)
    }
}

/// Top-down label repair: recomputes the distance array of every node whose
/// shortcut array changed (`sc_changed`, duplicates allowed) and of every
/// node below a label that changed, and nothing else. Returns the vertices
/// whose labels actually changed and the number of recomputed nodes.
///
/// The changed nodes are visited in depth-first preorder, so a node is
/// reached after all of its ancestors. A node whose label comes out
/// unchanged costs its own recomputation only; below one whose label moved
/// the whole subtree is recomputed, and `descend(c)` is asked before each
/// node `c` of it — returning `false` leaves `c`'s subtree alone (PostMHL
/// stops at partition roots, which its later stages repair).
pub fn repair_labels(
    td: &TreeDecomposition,
    dis: &mut CowTable<Dist>,
    mut sc_changed: Vec<VertexId>,
    mut descend: impl FnMut(VertexId) -> bool,
) -> (Vec<VertexId>, usize) {
    // A shortcut repair emits a row's changes back to back: collapse those
    // runs before sorting. The second dedup is for callers that do not.
    sc_changed.dedup();
    sc_changed.sort_unstable_by_key(|&v| td.preorder(v));
    sc_changed.dedup();

    let mut affected = Vec::new();
    let mut recomputed = 0usize;
    let mut path: Vec<VertexId> = Vec::new();
    let mut bag = Vec::new();
    let mut label = Vec::new();
    // Recomputes `v` (its ancestors are `path`); `true` if the label moved.
    let mut recompute = |v: VertexId, path: &[VertexId], dis: &mut CowTable<Dist>| {
        full_label(td, &*dis, v, path, &mut bag, &mut label);
        recomputed += 1;
        let moved = label[..] != *dis.row(v.index());
        if moved {
            // Chunk-granular write: clones at most v's chunk.
            dis.make_mut(v.index()).copy_from_slice(&label);
            affected.push(v);
        }
        moved
    };

    let mut stack: Vec<(VertexId, usize)> = Vec::new();
    let mut next = 0;
    while next < sc_changed.len() {
        let v = sc_changed[next];
        next += 1;
        td.ancestors_into(v, &mut path);
        if !recompute(v, &path, dis) {
            continue;
        }
        // Everything below `v` is recomputed now, the changed nodes among
        // them (the next entries, subtrees being contiguous) included.
        while next < sc_changed.len() && td.lca_index().is_ancestor(v, sc_changed[next]) {
            next += 1;
        }
        path.push(v);
        stack.push((v, 0));
        while let Some((x, child)) = stack.last_mut() {
            let c = td.children(*x).get(*child).copied();
            *child += 1;
            match c {
                Some(c) => {
                    if descend(c) {
                        recompute(c, &path, dis);
                        path.push(c);
                        stack.push((c, 0));
                    }
                }
                None => {
                    stack.pop();
                    path.pop();
                }
            }
        }
    }
    (affected, recomputed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode};
    use htsp_graph::gen::{grid, grid_with_diagonals, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    fn check(g: &Graph, h2h: &H2HIndex, count: usize, seed: u64) {
        let qs = QuerySet::random(g, count, seed);
        for q in &qs {
            assert_eq!(
                h2h.distance(q.source, q.target),
                dijkstra_distance(g, q.source, q.target),
                "DH2H mismatch for {:?}",
                q
            );
        }
    }

    #[test]
    fn decrease_batch_keeps_h2h_exact() {
        let mut g = grid(8, 8, WeightRange::new(10, 40), 3);
        let mut h2h = H2HIndex::build(&g);
        let mut gen = UpdateGenerator::new(1);
        gen.decrease_fraction = 1.0;
        let batch = gen.generate(&g, 25);
        g.apply_batch(&batch);
        let report = h2h.apply_batch(&g, batch.as_slice());
        assert!(!report.shortcut_changes.is_empty());
        assert!(!report.affected_labels.is_empty());
        check(&g, &h2h, 200, 2);
    }

    #[test]
    fn increase_batch_keeps_h2h_exact() {
        let mut g = grid(8, 8, WeightRange::new(10, 40), 5);
        let mut h2h = H2HIndex::build(&g);
        let mut gen = UpdateGenerator::new(2);
        gen.decrease_fraction = 0.0;
        let batch = gen.generate(&g, 25);
        g.apply_batch(&batch);
        h2h.apply_batch(&g, batch.as_slice());
        check(&g, &h2h, 200, 3);
    }

    #[test]
    fn repeated_mixed_batches_keep_h2h_exact() {
        let mut g = grid_with_diagonals(7, 7, WeightRange::new(5, 60), 0.2, 4);
        let mut h2h = H2HIndex::build(&g);
        let mut gen = UpdateGenerator::new(3);
        for round in 0..4 {
            let batch = gen.generate(&g, 15);
            g.apply_batch(&batch);
            h2h.apply_batch(&g, batch.as_slice());
            check(&g, &h2h, 80, 50 + round);
        }
    }

    #[test]
    fn updated_index_matches_fresh_rebuild() {
        let mut g = grid(6, 6, WeightRange::new(5, 30), 7);
        let mut h2h = H2HIndex::build(&g);
        let mut gen = UpdateGenerator::new(4);
        let batch = gen.generate(&g, 12);
        g.apply_batch(&batch);
        h2h.apply_batch(&g, batch.as_slice());
        // A freshly built index with the same order must carry identical labels.
        let fresh = H2HIndex::from_decomposition(TreeDecomposition::from_hierarchy(
            ContractionHierarchy::build(
                &g,
                OrderingStrategy::Given(h2h.decomposition().order().clone()),
                ShortcutMode::AllPairs,
            ),
        ));
        for v in g.vertices() {
            assert_eq!(h2h.label(v), fresh.label(v), "labels of {v} diverge");
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let g = grid(5, 5, WeightRange::new(1, 9), 7);
        let mut h2h = H2HIndex::build(&g);
        let report = h2h.apply_batch(&g, &[]);
        assert!(report.shortcut_changes.is_empty());
        assert!(report.affected_labels.is_empty());
        assert_eq!(report.labels_recomputed, 0);
    }

    #[test]
    fn report_times_are_recorded() {
        let mut g = grid(6, 6, WeightRange::new(10, 30), 9);
        let mut h2h = H2HIndex::build(&g);
        let mut gen = UpdateGenerator::new(5);
        let batch = gen.generate(&g, 10);
        g.apply_batch(&batch);
        let report = h2h.apply_batch(&g, batch.as_slice());
        assert!(report.total_time() >= report.label_time);
    }
}
