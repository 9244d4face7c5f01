//! Differential test of the write path of the tree-decomposition family.
//!
//! The reference below is the repair this repository shipped before the
//! pull-based one: every changed arc `(x, v)` invalidates every pair
//! `(v, u)`, `u ∈ up(x)`, and every invalidated pair is re-derived from the
//! edge and all of its supports. It is slow and obviously right. Over seeded
//! rounds of mixed, increase-only and decrease-only batches (edges may repeat
//! within a batch, some updates are no-ops) on four graph families, after
//! every batch:
//!
//! * the repair's `(from, to, old, new)` set equals the reference's;
//! * every upward row equals a fresh build with the same order;
//! * the H2H labels equal a fresh `from_decomposition`, and PostMHL's
//!   label rows (its boundary entries included) equal a fresh
//!   `PostMhl::build`'s on the updated graph;
//! * DH2H, every PostMHL view as it was published during the repair, and
//!   the repaired index's stages 2 and 3 answer a seeded set of far and near
//!   pairs like Dijkstra;
//! * on the three families with exact Dijkstra answers, N-CH-P, P-TD-P and
//!   PMHL answer the same pairs like Dijkstra through every view published
//!   during the repair and through `view_at_stage(s)` for every stage, both
//!   by `distance` and by a `session()`.
//!
//! No timers: everything asserted is a value.

use htsp::ch::{ContractionHierarchy, OrderingStrategy, ShortcutChange, ShortcutMode};
use htsp::core::{PostMhl, PostMhlConfig};
use htsp::graph::{
    gen, EdgeId, EdgeUpdate, Graph, GraphBuilder, IndexMaintainer, QueryView, SnapshotPublisher,
    UpdateBatch, VertexId, Weight,
};
use htsp::partition::TdPartitionConfig;
use htsp::search::dijkstra_distance;
use htsp::td::{H2HIndex, TreeDecomposition};
use htsp::{AlgorithmKind, BuildParams};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

type Rows = Vec<Vec<(VertexId, Weight)>>;

/// "Recompute every invalidated pair": the reference repair, on a plain copy
/// of the upward rows. Returns the changes; `rows` ends up repaired.
fn reference_repair(
    ch: &ContractionHierarchy,
    rows: &mut Rows,
    graph: &Graph,
    batch: &[EdgeUpdate],
) -> Vec<ShortcutChange> {
    let order = ch.order();
    let n = rows.len();
    let lower_first = |a: VertexId, b: VertexId| if order.higher(a, b) { (b, a) } else { (a, b) };
    let mut invalid: Vec<BTreeSet<VertexId>> = vec![BTreeSet::new(); n];
    for upd in batch {
        let (a, b) = graph.edge_endpoints(upd.edge);
        let (lo, hi) = lower_first(a, b);
        invalid[lo.index()].insert(hi);
    }
    let weight = |rows: &Rows, v: VertexId, u: VertexId| {
        rows[v.index()].iter().find(|a| a.0 == u).map(|a| a.1)
    };
    let mut changes = Vec::new();
    for rank in 0..n as u32 {
        let v = order.vertex_at(rank);
        for u in std::mem::take(&mut invalid[v.index()]) {
            let old = weight(rows, v, u).expect("an edge or a shortcut pair is an upward arc");
            let mut new = graph.find_edge(v, u).map_or(Weight::MAX, |(_, w)| w);
            for &x in ch.down_neighbors(v) {
                if let (Some(a), Some(b)) = (weight(rows, x, v), weight(rows, x, u)) {
                    // The build's clamp: an existing arc is never "unreachable".
                    new = new.min((a as u64 + b as u64).min(u32::MAX as u64 - 1) as Weight);
                }
            }
            if new == old {
                continue;
            }
            for arc in rows[v.index()].iter_mut().filter(|a| a.0 == u) {
                arc.1 = new;
            }
            changes.push(ShortcutChange {
                from: v,
                to: u,
                old,
                new,
            });
            let ups: Vec<VertexId> = rows[v.index()].iter().map(|a| a.0).collect();
            for w in ups.into_iter().filter(|&w| w != u) {
                let (lo, hi) = lower_first(w, u);
                invalid[lo.index()].insert(hi);
            }
        }
    }
    changes
}

#[derive(Clone, Copy, Debug)]
enum Direction {
    Mixed,
    IncreaseOnly,
    DecreaseOnly,
}

/// A tiny deterministic generator (the test owns its randomness).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound
    }
}

/// `size` updates of edges drawn *with* replacement (so an edge may appear
/// twice; the later update wins), about one in six a no-op, weights moved
/// towards `hi` or `lo`.
fn draw_batch(
    g: &Graph,
    rng: &mut Lcg,
    size: usize,
    direction: Direction,
    (lo, hi): (Weight, Weight),
) -> UpdateBatch {
    let mut current: Vec<Weight> = g.edges().map(|(_, _, _, w)| w).collect();
    let mut updates = Vec::with_capacity(size);
    for _ in 0..size {
        let e = rng.below(current.len() as u64) as usize;
        let w = current[e];
        let up = w + rng.below(hi.saturating_sub(w) as u64 + 1) as Weight;
        let down = w - rng.below(w.saturating_sub(lo) as u64 + 1) as Weight;
        let new = if rng.below(6) == 0 {
            w
        } else {
            match direction {
                Direction::IncreaseOnly => up,
                Direction::DecreaseOnly => down,
                Direction::Mixed if rng.below(2) == 0 => up,
                Direction::Mixed => down,
            }
        };
        updates.push(EdgeUpdate::new(EdgeId(e as u32), w, new));
        current[e] = new;
    }
    UpdateBatch::from_updates(updates)
}

fn change_set(changes: &[ShortcutChange]) -> BTreeSet<(u32, u32, Weight, Weight)> {
    let set: BTreeSet<_> = changes
        .iter()
        .map(|c| (c.from.0, c.to.0, c.old, c.new))
        .collect();
    assert_eq!(set.len(), changes.len(), "a shortcut is reported once");
    set
}

fn postmhl_config() -> PostMhlConfig {
    PostMhlConfig {
        partitioning: TdPartitionConfig {
            bandwidth: 12,
            expected_partitions: 8,
            beta_lower: 0.1,
            beta_upper: 2.0,
        },
        num_threads: 2,
    }
}

type PublishedViews = Arc<Mutex<Vec<Arc<dyn QueryView>>>>;

/// A publisher that also keeps every view published through it.
fn recording_publisher(initial: Arc<dyn QueryView>) -> (Arc<SnapshotPublisher>, PublishedViews) {
    let publisher = Arc::new(SnapshotPublisher::new(initial));
    let published = PublishedViews::default();
    let (weak, log) = (Arc::downgrade(&publisher), Arc::clone(&published));
    publisher.on_publish(move |_| {
        if let Some(publisher) = weak.upgrade() {
            log.lock().unwrap().push(publisher.snapshot());
        }
    });
    (publisher, published)
}

/// `count` query pairs: half drawn uniformly (mostly far pairs with a shallow
/// LCA), half near pairs — `t` a random descent from an ancestor one to four
/// levels above `s`, so the LCA is deep and the H2H kernel reads a long
/// label prefix (or `t` is an ancestor or descendant of `s`).
fn seeded_pairs(
    g: &Graph,
    td: &TreeDecomposition,
    rng: &mut Lcg,
    count: usize,
) -> Vec<(VertexId, VertexId)> {
    let n = g.num_vertices() as u64;
    let mut pairs = Vec::with_capacity(count);
    for i in 0..count {
        let s = VertexId(rng.below(n) as u32);
        let t = if i % 2 == 0 {
            VertexId(rng.below(n) as u32)
        } else {
            let mut t = s;
            for _ in 0..1 + rng.below(4) {
                t = td.parent(t).unwrap_or(t);
            }
            for _ in 0..rng.below(6) {
                let children = td.children(t);
                if children.is_empty() {
                    break;
                }
                t = children[rng.below(children.len() as u64) as usize];
            }
            t
        };
        pairs.push((s, t));
    }
    pairs
}

/// Drives one graph family through `rounds` batches of each direction.
/// `weights` bounds the generated weights; `dijkstra` is off for the family
/// whose path sums saturate (a saturated shortcut is finite, a saturated
/// Dijkstra label is "unreachable": there the fresh build is the oracle).
fn drive(name: &str, mut g: Graph, weights: (Weight, Weight), dijkstra: bool, seed: u64) {
    let rounds = 20;
    let mut ch =
        ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
    let mut h2h = H2HIndex::from_decomposition(TreeDecomposition::from_hierarchy(ch.clone()));
    let mut post = dijkstra.then(|| PostMhl::build(&g, postmhl_config()));
    if let Some(post) = &post {
        assert!(
            post.num_partitions() >= 2,
            "{name}: the partition stages need work"
        );
    }
    // The partitioned kinds, each in the shape the server builds it.
    let mut psp: Vec<Box<dyn IndexMaintainer>> = if dijkstra {
        [
            AlgorithmKind::NChP,
            AlgorithmKind::PTdP,
            AlgorithmKind::Pmhl,
        ]
        .iter()
        .map(|kind| kind.build(&g, &BuildParams::new(4, 2)))
        .collect()
    } else {
        Vec::new()
    };
    let mut rng = Lcg(seed);
    // Its own stream, so the pairs do not shift the batches.
    let mut pair_rng = Lcg(!seed);
    for direction in [
        Direction::Mixed,
        Direction::IncreaseOnly,
        Direction::DecreaseOnly,
    ] {
        for round in 0..rounds {
            let at = format!("{name}, {direction:?} round {round}");
            let size = 1 + rng.below(12) as usize;
            let batch = draw_batch(&g, &mut rng, size, direction, weights);
            g.apply_batch(&batch);

            // Shortcut repair against the reference.
            let mut rows: Rows = g.vertices().map(|v| ch.up_arcs(v).to_vec()).collect();
            let expect = reference_repair(&ch, &mut rows, &g, batch.as_slice());
            let got = ch.apply_batch(&g, batch.as_slice());
            assert_eq!(change_set(&got), change_set(&expect), "changes, {at}");

            // ... and against a fresh build with the same order.
            let fresh = ContractionHierarchy::build(
                &g,
                OrderingStrategy::Given(ch.order().clone()),
                ShortcutMode::AllPairs,
            );
            for v in g.vertices() {
                assert_eq!(ch.up_arcs(v), fresh.up_arcs(v), "row of {v}, {at}");
                assert_eq!(
                    ch.up_arcs(v),
                    &rows[v.index()][..],
                    "reference row of {v}, {at}"
                );
            }

            // Labels against a fresh fill over the fresh hierarchy.
            let report = h2h.apply_batch(&g, batch.as_slice());
            assert_eq!(change_set(&report.shortcut_changes), change_set(&expect));
            let fresh_labels =
                H2HIndex::from_decomposition(TreeDecomposition::from_hierarchy(fresh));
            for v in g.vertices() {
                assert_eq!(h2h.label(v), fresh_labels.label(v), "label of {v}, {at}");
            }

            // DH2H and every PostMHL view against Dijkstra: each view as it
            // was published mid-repair (stage 2 before U5 has repaired the
            // cross-boundary entries), then stages 2 and 3 of the repaired
            // index. The H2H kernel may read every label entry up to the
            // LCA's depth, so any entry a repair left stale is a wrong
            // answer here.
            if let Some(post) = post.as_mut() {
                let (publisher, published) = recording_publisher(post.current_view());
                post.apply_batch(&g, &batch, &publisher);
                let mut views = std::mem::take(&mut *published.lock().unwrap());
                let stages: Vec<usize> = views.iter().map(|v| v.stage()).collect();
                assert_eq!(stages, [0, 1, 2, 3], "published stages, {at}");
                // The dissection order is weight-independent, so a fresh
                // build has the same tree and must have the same rows.
                let fresh_post = PostMhl::build(&g, postmhl_config());
                for v in g.vertices() {
                    assert_eq!(
                        post.h2h().label(v),
                        fresh_post.h2h().label(v),
                        "PostMHL label of {v}, {at}"
                    );
                }
                views.extend([post.view_at_stage(2), post.view_at_stage(3)]);
                let pairs = seeded_pairs(&g, h2h.decomposition(), &mut pair_rng, 30);
                let expected: Vec<_> = pairs
                    .iter()
                    .map(|&(s, t)| dijkstra_distance(&g, s, t))
                    .collect();
                for (&(s, t), &expect) in pairs.iter().zip(&expected) {
                    assert_eq!(h2h.distance(s, t), expect, "DH2H {s}-{t}, {at}");
                    for (i, view) in views.iter().enumerate() {
                        assert_eq!(
                            view.distance(s, t),
                            expect,
                            "PostMHL view {i} (stage {}) {s}-{t}, {at}",
                            view.stage()
                        );
                    }
                }

                // The partitioned kinds: every view published mid-repair and
                // every stage of the repaired index, by both query paths.
                for idx in psp.iter_mut() {
                    let (publisher, published) = recording_publisher(idx.current_view());
                    idx.apply_batch(&g, &batch, &publisher);
                    let mut views = std::mem::take(&mut *published.lock().unwrap());
                    assert!(!views.is_empty(), "{} published nothing, {at}", idx.name());
                    views.extend((0..idx.num_query_stages()).map(|s| idx.view_at_stage(s)));
                    for (i, view) in views.iter().enumerate() {
                        let mut session = view.session();
                        for (&(s, t), &expect) in pairs.iter().zip(&expected) {
                            let tag = format!(
                                "{} view {i} (stage {}) {s}-{t}, {at}",
                                idx.name(),
                                view.stage()
                            );
                            assert_eq!(view.distance(s, t), expect, "{tag}");
                            assert_eq!(session.distance(s, t), expect, "session, {tag}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn grid_with_diagonals_repairs_like_the_reference() {
    let g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(5, 60), 0.15, 3);
    drive("grid_with_diagonals", g, (1, 120), true, 11);
}

#[test]
fn random_geometric_repairs_like_the_reference() {
    let g = gen::random_geometric(140, 3, gen::WeightRange::new(1, 80), 5);
    drive("random_geometric", g, (1, 200), true, 12);
}

#[test]
fn two_components_repair_like_the_reference() {
    // Two grids side by side with no edge between them: a forest.
    let left = gen::grid(7, 7, gen::WeightRange::new(2, 30), 7);
    let right = gen::grid_with_diagonals(6, 6, gen::WeightRange::new(2, 30), 0.2, 9);
    let offset = left.num_vertices() as u32;
    let mut b = GraphBuilder::new(left.num_vertices() + right.num_vertices());
    for (_, u, v, w) in left.edges() {
        b.add_edge(u, v, w);
    }
    for (_, u, v, w) in right.edges() {
        b.add_edge(VertexId(u.0 + offset), VertexId(v.0 + offset), w);
    }
    drive("two components", b.build(), (1, 60), true, 13);
}

#[test]
fn saturating_weights_repair_like_the_reference() {
    // Two-hop sums straddle u32::MAX - 1, the shortcut clamp.
    let half = u32::MAX / 2;
    let g = gen::grid_with_diagonals(8, 8, gen::WeightRange::new(half - 40, half + 40), 0.15, 15);
    drive("saturating weights", g, (half - 50, half + 50), false, 14);
}
