//! Dynamic CH maintenance (DCH): the bottom-up shortcut update.
//!
//! When a batch of edge-weight changes arrives, the shortcut weights of the
//! hierarchy must be repaired so that the invariant
//!
//! ```text
//! sc(v, u) = min( |e(v, u)|, min over x with {v, u} ⊆ N_up(x) of sc(x, v) + sc(x, u) )
//! ```
//!
//! holds again for every upward arc. This is the shortcut-centric paradigm of
//! DCH \[32\], which is also the first phase of DH2H maintenance \[33\]
//! (Lemma 4). The repair visits vertices in ascending rank order from a
//! sparse worklist ("bottom-up"), and its work follows the changed set, not
//! the size of the hierarchy:
//!
//! * When a vertex `x` is reached, all of its supporters rank lower and are
//!   done, so its row is final. Each of its arcs `(x, v)` that changed pushes
//!   the new candidate `sc(x, v) + sc(x, u)` to the arc between `v` and every
//!   other `u ∈ N_up(x)`, which belongs to a vertex still to come.
//! * Increases and decreases are different problems. A candidate **below**
//!   the arc's current weight is written on the spot: decreases need no
//!   recomputation, because the final weight is the minimum of final
//!   candidates. A candidate that **grew** matters only if the old candidate
//!   attained the arc's weight; then the arc is marked as having lost a
//!   support. Anything else is dropped after two additions and two compares.
//! * Only marked arcs (and the batch's own edges) are recomputed from all of
//!   their supports, when their vertex is reached. The mark is the minimum;
//!   a per-arc count of attaining supports (the scheme of \[32\]) would
//!   recompute less again.
//!
//! Rows are rank-sorted, so the arcs a vertex pushes to are found by walking
//! the target's row once, and a recomputation reads each supporter's row from
//! the stored position of the vertex in it; nothing scans for a vertex. Per
//! arc state is dense, lives with the hierarchy's clone lineage, and is reset
//! through the list of touched arcs.
//!
//! Measured on `grid64` (4 096 vertices, 69.6 k arcs, |U| = 200 mixed, one
//! batch): ≈0.9 M pushes, 6–9 k recomputations and ≈20 k changed shortcuts,
//! in 8–15 ms, about two thirds of it pushes and one third recomputations;
//! invalidating and recomputing every pair a change touches took 185–260 ms
//! for the same changes. The shortcut repair is now 35–40 % of a PostMHL repair (U2 of
//! U1…U5) and of a DH2H one; the label stages are the rest.

use crate::hierarchy::{arc_position, shortcut_sum, ContractionHierarchy, ShortcutMode};
use htsp_graph::{EdgeUpdate, Graph, VertexId, Weight, INF};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A shortcut whose weight changed during maintenance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShortcutChange {
    /// Lower-ranked endpoint (the vertex that stores the shortcut).
    pub from: VertexId,
    /// Higher-ranked endpoint.
    pub to: VertexId,
    /// Weight before the repair.
    pub old: Weight,
    /// Weight after the repair.
    pub new: Weight,
}

/// The arc's pre-batch weight is saved and its vertex is queued.
const TOUCHED: u8 = 1;
/// The arc must be recomputed from all of its supports.
const LOST_SUPPORT: u8 = 2;

/// Working memory of one repair, kept between batches. Per-arc state is
/// dense (indexed by arc id) and is reset through `touched`, so a batch pays
/// for the arcs it reaches, never for the size of the hierarchy.
#[derive(Debug)]
pub(crate) struct RepairScratch {
    /// `TOUCHED` / `LOST_SUPPORT` bits per arc; zero outside a repair.
    flags: Vec<u8>,
    /// Pre-batch weight of every touched arc.
    pre: Vec<Weight>,
    /// Arc ids with a nonzero flag.
    touched: Vec<u32>,
    /// Ranks of the vertices that own a touched arc (may repeat).
    queue: BinaryHeap<Reverse<u32>>,
    /// The row of the vertex being processed: final and pre-batch weights.
    row: Vec<(VertexId, Weight)>,
    old: Vec<Weight>,
    /// Arcs of the row to recompute (position, target), and their running
    /// minima.
    lost: Vec<(usize, VertexId)>,
    best: Vec<Weight>,
    /// Per vertex: 1 + its index in `lost` while it is the target of an arc
    /// being recomputed, else 0.
    lost_slot: Vec<u32>,
}

impl RepairScratch {
    pub(crate) fn new(num_vertices: usize, num_arcs: usize) -> Self {
        RepairScratch {
            flags: vec![0; num_arcs],
            pre: vec![0; num_arcs],
            touched: Vec::new(),
            queue: BinaryHeap::new(),
            row: Vec::new(),
            old: Vec::new(),
            lost: Vec::new(),
            best: Vec::new(),
            lost_slot: vec![0; num_vertices],
        }
    }

    /// Clears whatever the previous repair left (a repair that panicked
    /// half-way returns its scratch to the pool as it was).
    fn reset(&mut self) {
        for &arc in &self.touched {
            self.flags[arc as usize] = 0;
        }
        self.touched.clear();
        self.queue.clear();
        for &(_, u) in &self.lost {
            self.lost_slot[u.index()] = 0;
        }
        self.lost.clear();
    }

    /// Sets `flag` on `arc`; the first flag an arc gets saves its pre-batch
    /// weight `current` and queues its vertex (of rank `rank`).
    #[inline]
    fn flag(&mut self, arc: usize, flag: u8, current: Weight, rank: u32) {
        if self.flags[arc] == 0 {
            self.pre[arc] = current;
            self.touched.push(arc as u32);
            self.queue.push(Reverse(rank));
        }
        self.flags[arc] |= TOUCHED | flag;
    }
}

impl ContractionHierarchy {
    /// Repairs the shortcut weights after the edge updates in `batch` have
    /// already been applied to `graph` (U-Stage 1). Returns every shortcut
    /// whose weight actually changed, which downstream consumers (DH2H label
    /// update, PSP overlay update) use to locate affected index regions.
    ///
    /// # Panics
    /// Panics if the hierarchy was built with [`ShortcutMode::WitnessPruned`];
    /// dynamic maintenance requires the all-pairs shortcut set.
    pub fn apply_batch(&mut self, graph: &Graph, batch: &[EdgeUpdate]) -> Vec<ShortcutChange> {
        self.repair(graph, batch).0
    }

    /// [`Self::apply_batch`], also returning how many arcs were recomputed
    /// from all of their supports (the expensive step; everything else is
    /// constant work per pushed candidate).
    pub(crate) fn repair(
        &mut self,
        graph: &Graph,
        batch: &[EdgeUpdate],
    ) -> (Vec<ShortcutChange>, usize) {
        assert!(
            matches!(self.mode(), ShortcutMode::AllPairs),
            "dynamic maintenance requires ShortcutMode::AllPairs"
        );
        let pool = Arc::clone(&self.repair_scratch);
        let mut scratch = pool.checkout();
        let s = &mut *scratch;
        s.reset();
        let (order, arcs, up) = self.repair_parts();

        // The batch's own arcs are always recomputed: the edge is one of
        // their supports and its old weight is not trusted.
        for upd in batch {
            let (a, b) = graph.edge_endpoints(upd.edge);
            let (lo, hi) = if order.higher(a, b) { (b, a) } else { (a, b) };
            let row = up.row(lo.index());
            if let Some(i) = arc_position(order, row, hi) {
                let arc = arcs.row_start[lo.index()] as usize + i;
                s.flag(arc, LOST_SUPPORT, row[i].1, order.rank(lo));
            }
        }

        let mut changes = Vec::new();
        let mut recomputed = 0usize;
        let mut last_rank = u32::MAX;
        while let Some(Reverse(rank)) = s.queue.pop() {
            if rank == last_rank {
                continue;
            }
            last_rank = rank;
            // Every supporter of `x` ranks lower and is done, so recomputing
            // the arcs that lost a support makes `x`'s row final.
            let x = order.vertex_at(rank);
            let base = arcs.row_start[x.index()] as usize;
            s.row.clear();
            s.row.extend_from_slice(up.row(x.index()));
            let m = s.row.len();

            s.lost.extend(
                (s.row.iter().enumerate())
                    .filter(|&(i, _)| s.flags[base + i] & LOST_SUPPORT != 0)
                    .map(|(i, &(u, _))| (i, u)),
            );
            if !s.lost.is_empty() {
                recomputed += s.lost.len();
                s.best.clear();
                for (k, &(_, u)) in s.lost.iter().enumerate() {
                    s.lost_slot[u.index()] = k as u32 + 1;
                    s.best.push(graph.find_edge(x, u).map_or(INF.0, |(_, w)| w));
                }
                for (y, pos) in arcs.supporters(x) {
                    // `y` supports the arcs towards its neighbors above `x`,
                    // which follow `x` in its row.
                    let row_y = up.row(y.index());
                    let w_yx = row_y[pos].1;
                    for &(u, w_yu) in &row_y[pos + 1..] {
                        if let Some(k) = s.lost_slot[u.index()].checked_sub(1) {
                            let best = &mut s.best[k as usize];
                            *best = (*best).min(shortcut_sum(w_yx, w_yu));
                        }
                    }
                }
                for (&best, &(i, u)) in s.best.iter().zip(&s.lost) {
                    s.lost_slot[u.index()] = 0;
                    if best != s.row[i].1 {
                        s.row[i].1 = best;
                        up.make_mut(x.index())[i].1 = best;
                    }
                }
                s.lost.clear();
            }

            // Pre-batch weights of the row; the arcs that differ are the
            // batch's changes at `x`.
            s.old.clear();
            let mut last_changed = None;
            for (i, &(u, new)) in s.row.iter().enumerate() {
                let old = if s.flags[base + i] != 0 {
                    s.pre[base + i]
                } else {
                    new
                };
                s.old.push(old);
                if old != new {
                    last_changed = Some(i);
                    changes.push(ShortcutChange {
                        from: x,
                        to: u,
                        old,
                        new,
                    });
                }
            }
            let Some(last_changed) = last_changed else {
                continue;
            };

            // Push `x`'s changed candidates to the arcs they support: the
            // pairs (i, j) of its row with a changed member. The arc of the
            // pair belongs to the lower-ranked `v = row[i]`; `row[i + 1..]`
            // is a subsequence of `v`'s own row, so one walk along that row
            // finds every arc.
            for i in 0..=last_changed {
                let (v, new_i) = s.row[i];
                let i_changed = s.old[i] != new_i;
                let end = if i_changed { m } else { last_changed + 1 };
                let v_base = arcs.row_start[v.index()] as usize;
                let mut row_v = up.row(v.index());
                let mut t = 0;
                for j in i + 1..end {
                    let (u, new_j) = s.row[j];
                    if !i_changed && s.old[j] == new_j {
                        continue;
                    }
                    while row_v[t].0 != u {
                        t += 1;
                    }
                    let current = row_v[t].1;
                    let candidate = shortcut_sum(new_i, new_j);
                    if candidate < current {
                        // A decrease needs no recomputation: the candidate
                        // is final, and so is the minimum of all of them.
                        s.flag(v_base + t, 0, current, order.rank(v));
                        up.make_mut(v.index())[t].1 = candidate;
                        row_v = up.row(v.index());
                    } else if candidate > current && shortcut_sum(s.old[i], s.old[j]) == current {
                        // The support that attained the arc's weight grew
                        // (the arc still has its pre-batch weight, or the
                        // old candidate would lie above it).
                        s.flag(v_base + t, LOST_SUPPORT, current, order.rank(v));
                    }
                }
            }
        }
        (changes, recomputed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::OrderingStrategy;
    use crate::query::ChQuery;
    use htsp_graph::gen::{grid, grid_with_diagonals, WeightRange};
    use htsp_graph::{EdgeId, QuerySet, UpdateBatch, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    fn check_queries(g: &Graph, ch: &ContractionHierarchy, count: usize, seed: u64) {
        let qs = QuerySet::random(g, count, seed);
        let mut q = ChQuery::new(g.num_vertices());
        for query in &qs {
            assert_eq!(
                q.distance(ch, query.source, query.target),
                dijkstra_distance(g, query.source, query.target),
                "mismatch for {:?}",
                query
            );
        }
    }

    #[test]
    fn decrease_updates_keep_ch_exact() {
        let mut g = grid(8, 8, WeightRange::new(10, 40), 7);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let mut gen = UpdateGenerator::new(3);
        gen.decrease_fraction = 1.0; // decreases only
        let batch = gen.generate(&g, 20);
        g.apply_batch(&batch);
        let changes = ch.apply_batch(&g, batch.as_slice());
        assert!(
            !changes.is_empty(),
            "weight decreases should change shortcuts"
        );
        check_queries(&g, &ch, 120, 5);
    }

    #[test]
    fn increase_updates_keep_ch_exact() {
        let mut g = grid(8, 8, WeightRange::new(10, 40), 9);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let mut gen = UpdateGenerator::new(4);
        gen.decrease_fraction = 0.0; // increases only
        let batch = gen.generate(&g, 20);
        g.apply_batch(&batch);
        ch.apply_batch(&g, batch.as_slice());
        check_queries(&g, &ch, 120, 6);
    }

    #[test]
    fn mixed_update_batches_over_multiple_rounds() {
        let mut g = grid_with_diagonals(7, 7, WeightRange::new(5, 50), 0.15, 2);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let mut gen = UpdateGenerator::new(11);
        for round in 0..4 {
            let batch = gen.generate(&g, 15);
            g.apply_batch(&batch);
            ch.apply_batch(&g, batch.as_slice());
            check_queries(&g, &ch, 80, 100 + round);
        }
    }

    #[test]
    fn updated_ch_matches_freshly_built_ch() {
        let mut g = grid(6, 6, WeightRange::new(5, 25), 13);
        let order = crate::ordering::mde_order(&g);
        let mut ch = ContractionHierarchy::build(
            &g,
            OrderingStrategy::Given(order.clone()),
            ShortcutMode::AllPairs,
        );
        let mut gen = UpdateGenerator::new(8);
        let batch = gen.generate(&g, 12);
        g.apply_batch(&batch);
        ch.apply_batch(&g, batch.as_slice());
        // Rebuild from scratch with the same order: shortcut weights must agree.
        let fresh =
            ContractionHierarchy::build(&g, OrderingStrategy::Given(order), ShortcutMode::AllPairs);
        for v in g.vertices() {
            let mut a: Vec<_> = ch.up_arcs(v).to_vec();
            let mut b: Vec<_> = fresh.up_arcs(v).to_vec();
            a.sort_by_key(|&(u, _)| u.0);
            b.sort_by_key(|&(u, _)| u.0);
            assert_eq!(a, b, "shortcut arrays of {v} diverge after update");
        }
    }

    #[test]
    fn empty_batch_changes_nothing() {
        let g = grid(5, 5, WeightRange::new(1, 9), 1);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let changes = ch.apply_batch(&g, &[]);
        assert!(changes.is_empty());
    }

    #[test]
    fn noop_update_reports_no_changes() {
        let g = grid(5, 5, WeightRange::new(4, 4), 1);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        // An "update" that sets the same weight.
        let (e, _, _, w) = g.edges().next().unwrap();
        let upd = EdgeUpdate::new(e, w, w);
        let changes = ch.apply_batch(&g, &[upd]);
        assert!(changes.is_empty());
    }

    #[test]
    #[should_panic(expected = "requires ShortcutMode::AllPairs")]
    fn witness_pruned_mode_rejects_updates() {
        let g = grid(4, 4, WeightRange::new(1, 9), 1);
        let mut ch = ContractionHierarchy::build(
            &g,
            OrderingStrategy::MinDegree,
            ShortcutMode::WitnessPruned { hop_limit: 16 },
        );
        let (e, _, _, w) = g.edges().next().unwrap();
        let _ = ch.apply_batch(&g, &[EdgeUpdate::new(e, w, w + 1)]);
    }

    #[test]
    fn shortcut_change_records_old_and_new() {
        let mut g = grid(5, 5, WeightRange::new(10, 10), 1);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let (e, a, b, w) = g.edges().next().unwrap();
        g.set_edge_weight(e, 3);
        let changes = ch.apply_batch(&g, &[EdgeUpdate::new(e, w, 3)]);
        let direct = changes
            .iter()
            .find(|c| (c.from == a || c.from == b) && (c.to == a || c.to == b))
            .expect("the updated edge's own shortcut must change");
        assert_eq!(direct.old, 10);
        assert_eq!(direct.new, 3);
    }

    /// The benchmark's batch shape: `size` distinct edges, alternately halved
    /// and doubled (`decrease_only`: all halved), from a small LCG.
    fn halve_double_batch(g: &Graph, size: usize, decrease_only: bool, seed: u64) -> UpdateBatch {
        let mut state = seed;
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < size {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            picked.insert((state >> 33) as usize % g.num_edges());
        }
        let updates = picked.into_iter().enumerate().map(|(i, e)| {
            let e = EdgeId(e as u32);
            let w = g.edge_weight(e);
            let new = if decrease_only || i % 2 == 0 {
                (w / 2).max(1)
            } else {
                w * 2
            };
            EdgeUpdate::new(e, w, new)
        });
        UpdateBatch::from_updates(updates.collect())
    }

    fn assert_matches_fresh_build(g: &Graph, ch: &ContractionHierarchy) {
        let fresh = ContractionHierarchy::build(
            g,
            OrderingStrategy::Given(ch.order().clone()),
            ShortcutMode::AllPairs,
        );
        for v in g.vertices() {
            assert_eq!(ch.up_arcs(v), fresh.up_arcs(v), "shortcut array of {v}");
        }
    }

    #[test]
    fn saturating_sums_repair_to_the_fresh_build() {
        // Two-hop sums of weights around u32::MAX / 2 straddle the clamp.
        let half = u32::MAX / 2;
        let mut g = grid(5, 5, WeightRange::new(half - 3, half + 3), 17);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        for round in 0..6u32 {
            let updates = (0..8u32).map(|k| {
                let e = EdgeId((round * 7 + k * 5) % g.num_edges() as u32);
                let new = half - 3 + (round * 3 + k) % 7;
                EdgeUpdate::new(e, g.edge_weight(e), new)
            });
            let batch = UpdateBatch::from_updates(updates.collect());
            g.apply_batch(&batch);
            ch.apply_batch(&g, batch.as_slice());
            assert_matches_fresh_build(&g, &ch);
        }
    }

    #[test]
    fn recomputations_follow_the_changed_set() {
        // grid32, the benchmark's smoke dataset.
        let mut g = grid_with_diagonals(32, 32, WeightRange::new(1, 100), 0.1, 42);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let size = 50;
        for round in 0..6 {
            // No-op batch: nothing changes, only the batch's arcs are looked at.
            let batch = halve_double_batch(&g, size, false, 100 + round);
            let noop: Vec<EdgeUpdate> = batch
                .iter()
                .map(|u| EdgeUpdate::new(u.edge, u.old_weight, u.old_weight))
                .collect();
            let (changes, recomputed) = ch.repair(&g, &noop);
            assert!(changes.is_empty());
            assert!(recomputed <= size, "no-op batch recomputed {recomputed}");

            // Decrease-only: no arc can lose a support, so again only the
            // batch's own arcs are recomputed, however far the change spreads.
            let batch = halve_double_batch(&g, size, true, 200 + round);
            g.apply_batch(&batch);
            let (changes, recomputed) = ch.repair(&g, batch.as_slice());
            assert!(changes.len() > size);
            assert!(
                recomputed <= size,
                "decrease-only batch recomputed {recomputed}"
            );

            // Mixed: between a third and a half of the changed shortcuts were
            // recomputed on grid32 and grid64 (6.3-8.6 k of 18-21 k on
            // grid64); never more than all of them.
            let batch = halve_double_batch(&g, size, false, 300 + round);
            g.apply_batch(&batch);
            let (changes, recomputed) = ch.repair(&g, batch.as_slice());
            assert!(
                recomputed <= changes.len(),
                "mixed batch: {recomputed} recomputations for {} changes",
                changes.len()
            );
            assert_matches_fresh_build(&g, &ch);
        }
    }

    /// `cargo test --release -p htsp-ch -- --ignored --nocapture repair_scales`
    #[test]
    #[ignore = "128x128 grid: seconds in a debug build"]
    fn repair_scales_with_the_batch_on_grid128() {
        let mut g = grid_with_diagonals(128, 128, WeightRange::new(1, 100), 0.1, 42);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let mut counts = Vec::new();
        for size in [10usize, 200] {
            let batch = halve_double_batch(&g, size, false, size as u64);
            g.apply_batch(&batch);
            let t = std::time::Instant::now();
            let (changes, recomputed) = ch.repair(&g, batch.as_slice());
            println!(
                "grid128 |U| = {size}: shortcut repair {:?}, {} shortcuts changed, {recomputed} recomputed",
                t.elapsed(),
                changes.len()
            );
            counts.push(recomputed);
        }
        assert!(counts[0] * 5 < counts[1], "recomputations {counts:?}");
    }
}
