//! Differential test of index construction.
//!
//! The references below are what this repository built with before the
//! one-pass elimination kernel: the hash-set minimum-degree ordering, and a
//! plain one-vertex-at-a-time hash-map contraction in rank order. They are
//! slow and obviously right. The shipped all-pairs build takes its order
//! from an elimination (or as given), its rows from a symbolic fill and its
//! weights from the repair's pull. For `MinDegree`, for a boundary-first
//! `Given` order, for `NestedDissection` and for its order `Given` back, on
//! eight graph families, it must produce the same `VertexOrder` (the
//! reference ordering's, or the one it was given; the dissection's has no
//! reference), the same upward row for every vertex, the same
//! `num_extra_shortcuts` and the same `down_neighbors` as the reference
//! contraction on that order. Six families are smaller than the shipped
//! elimination's dense tail, so they are ordered on its adjacency bits
//! alone; the 40×40 grid and the 2,000-vertex random geometric graph are
//! larger and cross the sparse→dense hand-off. Witness pruning has no
//! reference (which shortcuts it keeps is its own business): its answers
//! must equal Dijkstra's and it may not keep more arcs than the all-pairs
//! build.
//!
//! No timers: everything asserted is a value.

use htsp::ch::{
    boundary_first_order, mde_order, ChQuery, ContractionHierarchy, OrderingStrategy, ShortcutMode,
    VertexOrder,
};
use htsp::graph::{gen, Graph, GraphBuilder, QuerySet, VertexId, Weight};
use htsp::search::dijkstra_distance;
use std::collections::{BinaryHeap, HashMap, HashSet};

type Rows = Vec<Vec<(VertexId, Weight)>>;

/// The ordering pass as it was: contraction adjacency as hash sets, a lazy
/// min-heap of `(degree, id)` whose stale entries are re-pushed when popped.
fn reference_mde_order(graph: &Graph) -> VertexOrder {
    let n = graph.num_vertices();
    let mut adj: Vec<HashSet<u32>> = vec![HashSet::new(); n];
    for (_, u, v, _) in graph.edges() {
        adj[u.index()].insert(v.0);
        adj[v.index()].insert(u.0);
    }
    let mut heap: BinaryHeap<std::cmp::Reverse<(usize, u32)>> = BinaryHeap::with_capacity(n);
    for (v, a) in adj.iter().enumerate() {
        heap.push(std::cmp::Reverse((a.len(), v as u32)));
    }
    let mut contracted = vec![false; n];
    let mut seq = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse((deg, v))) = heap.pop() {
        let vi = v as usize;
        if contracted[vi] {
            continue;
        }
        if adj[vi].len() != deg {
            heap.push(std::cmp::Reverse((adj[vi].len(), v)));
            continue;
        }
        contracted[vi] = true;
        seq.push(VertexId(v));
        let nbrs: Vec<u32> = adj[vi].iter().copied().collect();
        for (i, &a) in nbrs.iter().enumerate() {
            adj[a as usize].remove(&v);
            for &b in &nbrs[i + 1..] {
                if adj[a as usize].insert(b) {
                    adj[b as usize].insert(a);
                }
            }
        }
        for &a in &nbrs {
            heap.push(std::cmp::Reverse((adj[a as usize].len(), a)));
        }
        adj[vi].clear();
    }
    VertexOrder::from_sequence(seq)
}

/// Boundary vertices on top, MDE order within each class.
fn reference_boundary_first(graph: &Graph, boundary: &HashSet<VertexId>) -> VertexOrder {
    let base = reference_mde_order(graph);
    let (bound, mut seq): (Vec<VertexId>, Vec<VertexId>) =
        base.sequence().iter().partition(|&v| boundary.contains(v));
    seq.extend(bound);
    VertexOrder::from_sequence(seq)
}

/// All-pairs contraction, one vertex at a time in rank order, on hash maps.
/// Returns the rank-sorted upward rows and the number of shortcuts created
/// between vertices that were not adjacent.
fn reference_contraction(graph: &Graph, order: &VertexOrder) -> (Rows, usize) {
    let n = graph.num_vertices();
    let mut adj: Vec<HashMap<VertexId, Weight>> = vec![HashMap::new(); n];
    for (_, u, v, w) in graph.edges() {
        adj[u.index()].insert(v, w);
        adj[v.index()].insert(u, w);
    }
    let mut up: Rows = vec![Vec::new(); n];
    let mut extra = 0usize;
    for rank in 0..n as u32 {
        let v = order.vertex_at(rank);
        let mut nbrs: Vec<(VertexId, Weight)> = adj[v.index()].drain().collect();
        nbrs.sort_by_key(|&(u, _)| order.rank(u));
        for (i, &(a, wa)) in nbrs.iter().enumerate() {
            adj[a.index()].remove(&v);
            for &(b, wb) in &nbrs[i + 1..] {
                // The build's clamp: an existing arc is never "unreachable".
                let via = (wa as u64 + wb as u64).min(u32::MAX as u64 - 1) as Weight;
                match adj[a.index()].get(&b).copied() {
                    None => extra += 1,
                    Some(w) if w <= via => continue,
                    Some(_) => {}
                }
                adj[a.index()].insert(b, via);
                adj[b.index()].insert(a, via);
            }
        }
        up[v.index()] = nbrs;
    }
    (up, extra)
}

fn assert_equals_reference(name: &str, g: &Graph, ch: &ContractionHierarchy, order: &VertexOrder) {
    assert_eq!(ch.order(), order, "{name}: order");
    let (rows, extra) = reference_contraction(g, order);
    assert_eq!(ch.num_extra_shortcuts(), extra, "{name}: extra shortcuts");
    let mut down: Vec<Vec<VertexId>> = vec![Vec::new(); g.num_vertices()];
    for v in g.vertices() {
        assert_eq!(ch.up_arcs(v), &rows[v.index()][..], "{name}: row of {v}");
        for &(u, _) in &rows[v.index()] {
            down[u.index()].push(v);
        }
    }
    for v in g.vertices() {
        assert_eq!(ch.down_neighbors(v), &down[v.index()][..], "{name}: {v}");
    }
}

/// `dijkstra` is off for the family whose path sums saturate (a saturated
/// shortcut is finite, a saturated Dijkstra label is "unreachable").
fn drive(name: &str, g: Graph, dijkstra: bool) {
    // MinDegree: the elimination yields the order, the fill the rows.
    let order = reference_mde_order(&g);
    assert_eq!(mde_order(&g), order, "{name}: mde_order");
    let all_pairs =
        ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
    assert_equals_reference(name, &g, &all_pairs, &order);

    // A boundary-first order, given.
    let boundary: HashSet<VertexId> = g.vertices().filter(|v| v.0 % 4 == 0).collect();
    let given = reference_boundary_first(&g, &boundary);
    assert_eq!(
        boundary_first_order(&g, &boundary.iter().copied().collect()),
        given,
        "{name}: boundary-first order"
    );
    let ch = ContractionHierarchy::build(
        &g,
        OrderingStrategy::Given(given.clone()),
        ShortcutMode::AllPairs,
    );
    assert_equals_reference(&format!("{name}, boundary first"), &g, &ch, &given);

    // Nested dissection, and a build on its order as given.
    let nested = ContractionHierarchy::build(
        &g,
        OrderingStrategy::NestedDissection,
        ShortcutMode::AllPairs,
    );
    let order = nested.order().clone();
    assert_equals_reference(&format!("{name}, nested dissection"), &g, &nested, &order);
    let ch_nd = ContractionHierarchy::build(
        &g,
        OrderingStrategy::Given(order.clone()),
        ShortcutMode::AllPairs,
    );
    assert_equals_reference(
        &format!("{name}, dissection order given"),
        &g,
        &ch_nd,
        &order,
    );

    // Witness pruning under both orders.
    for (strategy, all_pairs) in [
        (OrderingStrategy::MinDegree, &all_pairs),
        (OrderingStrategy::Given(given), &ch),
    ] {
        let pruned = ContractionHierarchy::build(
            &g,
            strategy,
            ShortcutMode::WitnessPruned {
                hop_limit: usize::MAX,
            },
        );
        assert!(
            pruned.num_arcs() <= all_pairs.num_arcs(),
            "{name}: pruning added arcs"
        );
        if dijkstra {
            let mut query = ChQuery::new(g.num_vertices());
            for q in &QuerySet::random(&g, 120, 7) {
                assert_eq!(
                    query.distance(&pruned, q.source, q.target),
                    dijkstra_distance(&g, q.source, q.target),
                    "{name}: witness-pruned {q:?}"
                );
            }
        }
    }
}

#[test]
fn grid_with_diagonals_builds_like_the_reference() {
    let g = gen::grid_with_diagonals(14, 12, gen::WeightRange::new(1, 60), 0.15, 3);
    drive("grid_with_diagonals", g, true);
}

#[test]
fn a_grid_larger_than_the_dense_tail_builds_like_the_reference() {
    // 1,600 vertices: the shipped elimination hands off from sparse rows to
    // its adjacency bits part way, which no smaller family but the next
    // reaches.
    let g = gen::grid_with_diagonals(40, 40, gen::WeightRange::new(1, 60), 0.15, 21);
    drive("40x40 grid with diagonals", g, true);
}

#[test]
fn a_road_like_graph_larger_than_the_dense_tail_builds_like_the_reference() {
    let g = gen::random_geometric(2000, 3, gen::WeightRange::new(1, 80), 17);
    drive("random_geometric(2000)", g, true);
}

#[test]
fn random_geometric_builds_like_the_reference() {
    let g = gen::random_geometric(260, 3, gen::WeightRange::new(1, 80), 5);
    drive("random_geometric", g, true);
}

#[test]
fn two_components_build_like_the_reference() {
    // Two grids side by side with no edge between them, and three isolated
    // vertices after them: a forest.
    let left = gen::grid(7, 7, gen::WeightRange::new(2, 30), 7);
    let right = gen::grid_with_diagonals(6, 6, gen::WeightRange::new(2, 30), 0.2, 9);
    let offset = left.num_vertices() as u32;
    let mut b = GraphBuilder::new(left.num_vertices() + right.num_vertices() + 3);
    for (_, u, v, w) in left.edges() {
        b.add_edge(u, v, w);
    }
    for (_, u, v, w) in right.edges() {
        b.add_edge(VertexId(u.0 + offset), VertexId(v.0 + offset), w);
    }
    drive("two components", b.build(), true);
}

#[test]
fn star_builds_like_the_reference() {
    // The hub's degree only falls; every leaf ties on (1, id).
    let mut b = GraphBuilder::new(40);
    for leaf in 1..40 {
        b.add_edge(VertexId(0), VertexId(leaf), leaf);
    }
    drive("star", b.build(), true);
}

#[test]
fn path_builds_like_the_reference() {
    let mut b = GraphBuilder::new(50);
    for v in 0..49 {
        b.add_edge(VertexId(v), VertexId(v + 1), 1 + v % 7);
    }
    drive("path", b.build(), true);
}

#[test]
fn saturating_weights_build_like_the_reference() {
    // Two-hop sums straddle u32::MAX - 1, the shortcut clamp, and one
    // corner-to-corner arc weighs exactly u32::MAX: a real arc, whatever its
    // weight.
    let half = u32::MAX / 2;
    let grid =
        gen::grid_with_diagonals(8, 8, gen::WeightRange::new(half - 40, half + 40), 0.15, 15);
    let n = grid.num_vertices() as u32;
    let mut b = GraphBuilder::new(grid.num_vertices());
    for (_, u, v, w) in grid.edges() {
        b.add_edge(u, v, w);
    }
    assert!(b.add_edge(VertexId(0), VertexId(n - 1), u32::MAX));
    drive("saturating weights", b.build(), false);
}
