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
//! (Lemma 4). The repair pulls: it is the lower-triangle customization of
//! Customizable Contraction Hierarchies (Dibbelt, Strasser, Wagner), run only
//! on the rows whose triangles changed.
//!
//! * A row is *dirty* when one of its inputs may have moved. The lower
//!   endpoint of every batch edge starts dirty.
//! * Dirty vertices are taken in ascending rank. When `x` is reached, all of
//!   its supporters rank lower and are final, so its whole row is re-derived
//!   from the invariant: the edges of `x`, and for every supporter `y` the
//!   sums `sc(y, x) + sc(y, u)` over the tail of `y`'s row after `x`. That
//!   tail is a subsequence of `x`'s row, so each sum lands through a
//!   per-vertex slot table; nothing scans or searches.
//! * A row that moved is written once and its changes are emitted in row
//!   order. A changed arc `(x, row[j])` supports the arcs between `row[j]`
//!   and the rest of the row, which belong to `row[..=j]`; so
//!   `row[..=last_changed]` becomes dirty.
//!
//! Increases and decreases are one case, and a row's old weights are its
//! stored ones until it is written, so nothing per arc is kept: the state is
//! a bitset of dirty ranks, the slot table and one row (4 B per vertex),
//! shared by the hierarchy's clone lineage.
//!
//! The build runs the same pull (`Pull`) on every row, in ascending rank,
//! over the rows of the order's symbolic fill (`hierarchy.rs`): an all-pairs
//! build is this repair with every row dirty. When a supporter's tail after
//! `x` is as long as `x`'s row, it *is* `x`'s row, entry for entry, and its
//! sums skip the slot table: a contiguous loop the optimizer vectorizes. On
//! `grid64`'s nested-dissection order 415,645 of the build's 1,151,613
//! two-hop sums take it.
//!
//! Measured on `grid64` (4 096 vertices, 69.6 k arcs, |U| = 200 mixed, a
//! view pinned): ≈1.7 k rows re-derived (≈66 k supporter rows read, ≈1.5 M
//! two-hop sums) for ≈19 k changed shortcuts, in ≈6 ms. The push repair this
//! replaced (each changed arc pushed its candidates to the arcs it supports;
//! only arcs that lost the support attaining their weight were recomputed)
//! took 17–20 ms for that batch; the pull is 1.5× faster at |U| = 50 and
//! 4.5× at |U| = 1 000. It loses where few rows change but each has a large
//! lower triangle: a 10-edge batch on `grid64` costs ≈4 ms against ≈2 ms,
//! and on `random_geometric(524288, 3)` |U| = 200 costs 48–55 ms against
//! 41–46 ms, a small share of a repair at that size.

use crate::hierarchy::{shortcut_sum, ArcIndex, ContractionHierarchy, ShortcutMode};
use htsp_graph::{EdgeUpdate, Graph, VertexId, Weight, INF};
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

/// Working memory of one repair, kept between batches.
#[derive(Debug)]
pub(crate) struct RepairScratch {
    /// Bit `r` is set while the row of the vertex of rank `r` is dirty.
    dirty: Vec<u64>,
    pull: Pull,
}

impl RepairScratch {
    pub(crate) fn new(num_vertices: usize) -> Self {
        RepairScratch {
            dirty: vec![0; num_vertices.div_ceil(64)],
            pull: Pull::new(num_vertices),
        }
    }
}

/// The row kernel of the repair and of the build's customization: re-derives
/// one row from the invariant.
#[derive(Debug)]
pub(crate) struct Pull {
    /// Per vertex: its index in `best` while the row being re-derived holds
    /// it, else 0.
    slot: Vec<u32>,
    /// A spare entry, then the running minima of the row being re-derived,
    /// in row order.
    best: Vec<Weight>,
    /// Set while `slot` holds a row: a pull that panicked half-way leaves it
    /// set, and the next one clears the whole table.
    holding: bool,
}

impl Pull {
    pub(crate) fn new(num_vertices: usize) -> Self {
        Pull {
            slot: vec![0; num_vertices],
            best: Vec::new(),
            holding: false,
        }
    }

    /// The weights of `x`'s row (`row_x`, whose weights are not read) from
    /// the invariant, in row order: the edges of `x`, and for every
    /// supporter `y` the sums `sc(y, x) + sc(y, u)` over the tail of `y`'s
    /// row after `x`. `row_of` reads the rows of the supporters, which must
    /// be final.
    pub(crate) fn row<'r>(
        &mut self,
        graph: &Graph,
        arcs: &ArcIndex,
        x: VertexId,
        row_x: &[(VertexId, Weight)],
        row_of: impl Fn(VertexId) -> &'r [(VertexId, Weight)],
    ) -> &[Weight] {
        if std::mem::replace(&mut self.holding, true) {
            self.slot.fill(0);
        }
        let (slot, best) = (&mut self.slot[..], &mut self.best);
        // `best[0]` absorbs what lands outside the row: the edges to lower
        // neighbors.
        best.clear();
        best.resize(row_x.len() + 1, INF.0);
        for (i, &(u, _)) in row_x.iter().enumerate() {
            slot[u.index()] = i as u32 + 1;
        }
        for (u, w) in graph.neighbors(x) {
            let b = &mut best[slot[u.index()] as usize];
            *b = (*b).min(w);
        }
        for (y, pos) in arcs.supporters(x) {
            // `y`'s neighbors above `x` follow `x` in its row, and every one
            // of them is in `x`'s row.
            let row_y = row_of(y);
            let w_yx = row_y[pos].1;
            let tail = &row_y[pos + 1..];
            if tail.len() == row_x.len() {
                // Both are sorted by rank: the tail is `x`'s row.
                for (b, &(_, w_yu)) in best[1..].iter_mut().zip(tail) {
                    *b = (*b).min(shortcut_sum(w_yx, w_yu));
                }
            } else {
                for &(u, w_yu) in tail {
                    let b = &mut best[slot[u.index()] as usize];
                    *b = (*b).min(shortcut_sum(w_yx, w_yu));
                }
            }
        }
        for &(u, _) in row_x {
            slot[u.index()] = 0;
        }
        self.holding = false;
        &self.best[1..]
    }
}

/// Marks the row of the vertex of rank `rank` dirty.
#[inline]
fn mark(dirty: &mut [u64], rank: u32) {
    dirty[rank as usize / 64] |= 1 << (rank % 64);
}

impl ContractionHierarchy {
    /// Repairs the shortcut weights after the edge updates in `batch` have
    /// already been applied to `graph` (U-Stage 1). Returns every shortcut
    /// whose weight actually changed, which downstream consumers (DH2H label
    /// update, PSP overlay update) use to locate affected index regions.
    /// The changes of one row come back to back, rows in ascending rank.
    ///
    /// # Panics
    /// Panics if the hierarchy was built with [`ShortcutMode::WitnessPruned`];
    /// dynamic maintenance requires the all-pairs shortcut set.
    pub fn apply_batch(&mut self, graph: &Graph, batch: &[EdgeUpdate]) -> Vec<ShortcutChange> {
        self.repair(graph, batch).0
    }

    /// [`Self::apply_batch`], also returning how many rows were re-derived.
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
        // A repair that panicked half-way returns its scratch as it was.
        s.dirty.fill(0);
        let (order, arcs, up) = self.repair_parts();

        // A batch edge is an arc of its lower endpoint's row.
        for upd in batch {
            let (a, b) = graph.edge_endpoints(upd.edge);
            mark(&mut s.dirty, order.rank(a).min(order.rank(b)));
        }

        let mut changes = Vec::new();
        let mut rederived = 0usize;
        for word in 0..s.dirty.len() {
            // Marks only go to higher ranks, so the word is re-read until
            // it is empty.
            while s.dirty[word] != 0 {
                let bit = s.dirty[word].trailing_zeros();
                s.dirty[word] &= s.dirty[word] - 1;
                let x = order.vertex_at(word as u32 * 64 + bit);
                rederived += 1;

                let row = up.row(x.index());
                let best = s.pull.row(graph, arcs, x, row, |y| up.row(y.index()));
                if let Some(last_changed) = row.iter().zip(best).rposition(|(a, &b)| a.1 != b) {
                    for (&(u, old), &new) in row[..=last_changed].iter().zip(best) {
                        if old != new {
                            changes.push(ShortcutChange {
                                from: x,
                                to: u,
                                old,
                                new,
                            });
                        }
                        mark(&mut s.dirty, order.rank(u));
                    }
                    for (arc, &new) in up.make_mut(x.index()).iter_mut().zip(best) {
                        arc.1 = new;
                    }
                }
            }
        }
        (changes, rederived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::OrderingStrategy;
    use crate::query::ChQuery;
    use htsp_graph::gen::{grid, grid_with_diagonals, random_geometric, WeightRange};
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

    /// The rows the pull may re-derive: the owners of the batch's arcs and,
    /// in each changed row, every target at or before its last change.
    fn rows_named(
        g: &Graph,
        ch: &ContractionHierarchy,
        batch: &[EdgeUpdate],
        changes: &[ShortcutChange],
    ) -> std::collections::BTreeSet<VertexId> {
        let order = ch.order();
        let mut named: std::collections::BTreeSet<_> = (batch.iter())
            .map(|u| {
                let (a, b) = g.edge_endpoints(u.edge);
                if order.higher(a, b) {
                    b
                } else {
                    a
                }
            })
            .collect();
        for c in changes {
            let row = ch.up_arcs(c.from);
            let at = row.iter().position(|&(u, _)| u == c.to).unwrap();
            named.extend(row[..=at].iter().map(|&(u, _)| u));
        }
        named
    }

    #[test]
    fn recomputations_follow_the_changed_set() {
        // grid32, the benchmark's smoke dataset.
        let mut g = grid_with_diagonals(32, 32, WeightRange::new(1, 100), 0.1, 42);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let size = 50;
        for round in 0..6 {
            // No-op batch: nothing changes, only the batch's rows are looked at.
            let batch = halve_double_batch(&g, size, false, 100 + round);
            let noop: Vec<EdgeUpdate> = batch
                .iter()
                .map(|u| EdgeUpdate::new(u.edge, u.old_weight, u.old_weight))
                .collect();
            let (changes, rederived) = ch.repair(&g, &noop);
            assert!(changes.is_empty());
            assert!(rederived <= size, "no-op batch re-derived {rederived} rows");

            // Decrease-only and mixed: a row is re-derived only if it owns a
            // batch edge or a changed row names it at or before its last
            // change.
            for (decrease_only, seed) in [(true, 200), (false, 300)] {
                let batch = halve_double_batch(&g, size, decrease_only, seed + round);
                g.apply_batch(&batch);
                let (changes, rederived) = ch.repair(&g, batch.as_slice());
                assert!(changes.len() > size);
                let named = rows_named(&g, &ch, batch.as_slice(), &changes);
                assert!(
                    rederived <= named.len(),
                    "{rederived} rows re-derived, {} named",
                    named.len()
                );
                assert_matches_fresh_build(&g, &ch);
            }
        }
    }

    #[test]
    fn road_like_rounds_repair_to_the_fresh_build() {
        let mut g = random_geometric(1500, 3, WeightRange::new(1, 100), 5);
        let mut ch =
            ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
        let mut gen = UpdateGenerator::new(21);
        for round in 0..9 {
            // Mixed, increase-only and decrease-only in turn.
            gen.decrease_fraction = [0.5, 0.0, 1.0][round % 3];
            let batch = gen.generate(&g, 10 + 20 * round);
            g.apply_batch(&batch);
            ch.apply_batch(&g, batch.as_slice());
            assert_matches_fresh_build(&g, &ch);
        }
    }

    /// The shortcut repair's ruler:
    /// `cargo test --release -p htsp-ch -- --ignored --nocapture repair_scales`
    #[test]
    #[ignore = "65k-vertex graphs: seconds in a debug build"]
    fn repair_scales_with_the_batch_on_grid128() {
        let graphs = [
            (
                "grid128",
                grid_with_diagonals(128, 128, WeightRange::new(1, 100), 0.1, 42),
            ),
            (
                "random_geometric(65536, 3)",
                random_geometric(65536, 3, WeightRange::new(1, 100), 42),
            ),
        ];
        for (name, mut g) in graphs {
            let mut ch = ContractionHierarchy::build(
                &g,
                OrderingStrategy::MinDegree,
                ShortcutMode::AllPairs,
            );
            let mut rows = Vec::new();
            for size in [10usize, 200, 1000] {
                let batch = halve_double_batch(&g, size, false, size as u64);
                g.apply_batch(&batch);
                let t = std::time::Instant::now();
                let (changes, rederived) = ch.repair(&g, batch.as_slice());
                println!(
                    "{name} |U| = {size}: shortcut repair {:?}, {rederived} rows re-derived, {} shortcuts changed",
                    t.elapsed(),
                    changes.len()
                );
                rows.push(rederived);
            }
            assert!(
                rows[0] * 3 < rows[1] && rows[1] < rows[2],
                "{name}: rows re-derived {rows:?}"
            );
        }
    }
}
