//! Property-based tests over the core invariants, spanning several crates:
//!
//! * index answers equal Dijkstra on arbitrary generated road networks and
//!   arbitrary update batches (no staleness, no drift);
//! * distances are symmetric and satisfy the triangle inequality;
//! * the tree decomposition and partitioning invariants hold for arbitrary
//!   generator parameters.
//!
//! The cases are drawn from a seeded generator (a hand-rolled stand-in for
//! `proptest`, which is unavailable offline): each test replays `CASES`
//! pseudo-random parameter tuples and reports the failing tuple on panic.

use htsp::core::{PostMhl, PostMhlConfig};
use htsp::graph::{
    gen, Graph, GraphBuilder, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator,
    VertexId,
};
use htsp::partition::{partition_region_growing, td_partition, TdPartitionConfig};
use htsp::search::{bidijkstra_distance, dijkstra_distance};
use htsp::td::TreeDecomposition;

const CASES: u64 = 24;

/// Cheap deterministic parameter stream (SplitMix64).
struct Params(u64);

impl Params {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

/// A road-like graph of modest size plus the tuple that made it: a small
/// grid with diagonals, a random geometric graph, or two components (a grid
/// and a random geometric graph, no edge between them). The last two are
/// larger than a dissection leaf, so the whole-graph hierarchies cut them.
fn road_network(p: &mut Params) -> (Graph, String) {
    let family = p.range(0, 3);
    let w = p.range(4, 9) as usize;
    let h = p.range(4, 9) as usize;
    let n = p.range(150, 400) as usize;
    let seed = p.range(1, 1000);
    let maxw = p.range(2, 50) as u32;
    let weights = gen::WeightRange::new(1, maxw);
    let grid = gen::grid_with_diagonals(w, h, weights, 0.2, seed);
    let desc = format!("family={family} w={w} h={h} n={n} seed={seed} maxw={maxw}");
    let g = match family {
        0 => grid,
        1 => gen::random_geometric(n, 3, weights, seed),
        _ => {
            let geometric = gen::random_geometric(n, 3, weights, seed);
            let shift = grid.num_vertices() as u32;
            let mut b = GraphBuilder::new(grid.num_vertices() + n);
            for (_, u, v, w) in grid.edges() {
                b.add_edge(u, v, w);
            }
            for (_, u, v, w) in geometric.edges() {
                b.add_edge(VertexId(u.0 + shift), VertexId(v.0 + shift), w);
            }
            b.build()
        }
    };
    (g, desc)
}

#[test]
fn bidijkstra_matches_dijkstra() {
    let mut p = Params(1);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let seed = p.range(0, 1000);
        let qs = QuerySet::random(&g, 10, seed);
        for q in &qs {
            assert_eq!(
                bidijkstra_distance(&g, q.source, q.target),
                dijkstra_distance(&g, q.source, q.target),
                "case {case} ({desc}, qseed={seed}): mismatch for {q:?}"
            );
        }
    }
}

#[test]
fn distances_are_symmetric_and_triangular() {
    let mut p = Params(2);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let seed = p.range(0, 1000);
        let qs = QuerySet::random(&g, 6, seed);
        for q in &qs {
            let d_st = dijkstra_distance(&g, q.source, q.target);
            let d_ts = dijkstra_distance(&g, q.target, q.source);
            assert_eq!(d_st, d_ts, "case {case} ({desc}): asymmetric distance");
            // Triangle inequality through an arbitrary intermediate vertex.
            let mid = VertexId((q.source.0 + q.target.0) / 2);
            let via = dijkstra_distance(&g, q.source, mid)
                .saturating_add(dijkstra_distance(&g, mid, q.target));
            assert!(
                d_st <= via,
                "case {case} ({desc}): triangle inequality violated for {q:?}"
            );
        }
    }
}

#[test]
fn h2h_is_exact_on_arbitrary_networks() {
    let mut p = Params(3);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let seed = p.range(0, 1000);
        let h2h = htsp::td::H2HIndex::build(&g);
        let qs = QuerySet::random(&g, 10, seed);
        for q in &qs {
            assert_eq!(
                h2h.distance(q.source, q.target),
                dijkstra_distance(&g, q.source, q.target),
                "case {case} ({desc}, qseed={seed}): H2H mismatch for {q:?}"
            );
        }
    }
}

#[test]
fn postmhl_survives_arbitrary_update_batches() {
    let mut p = Params(4);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let volume = p.range(1, 40) as usize;
        let seed = p.range(0, 1000);
        let mut graph = g;
        let mut idx = PostMhl::build(&graph, PostMhlConfig::default());
        let mut gen_upd = UpdateGenerator::new(seed);
        let batch = gen_upd.generate(&graph, volume);
        graph.apply_batch(&batch);
        let publisher = SnapshotPublisher::new(idx.current_view());
        idx.apply_batch(&graph, &batch, &publisher);
        let view = publisher.snapshot();
        let mut session = view.session();
        let qs = QuerySet::random(&graph, 10, seed ^ 0xff);
        for q in &qs {
            assert_eq!(
                session.distance(q.source, q.target),
                dijkstra_distance(&graph, q.source, q.target),
                "case {case} ({desc}, volume={volume}, seed={seed}): stale answer for {q:?}"
            );
        }
    }
}

#[test]
fn tree_decomposition_is_valid_for_arbitrary_networks() {
    let mut p = Params(5);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let td = TreeDecomposition::build(&g);
        assert!(td.validate(&g).is_ok(), "case {case} ({desc}): invalid TD");
        assert!(td.height() >= 1, "case {case} ({desc}): degenerate TD");
    }
}

#[test]
fn partitions_cover_all_vertices() {
    let mut p = Params(6);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let k = p.range(2, 8) as usize;
        let seed = p.range(0, 100);
        let pr = partition_region_growing(&g, k, seed);
        assert!(pr.validate(&g).is_ok(), "case {case} ({desc}, k={k})");
        let covered: usize = (0..pr.num_partitions()).map(|i| pr.vertices(i).len()).sum();
        assert_eq!(covered, g.num_vertices(), "case {case} ({desc}, k={k})");
    }
}

#[test]
fn td_partitioning_respects_bandwidth() {
    let mut p = Params(7);
    for case in 0..CASES {
        let (g, desc) = road_network(&mut p);
        let tau = p.range(3, 20) as usize;
        let td = TreeDecomposition::build(&g);
        let cfg = TdPartitionConfig {
            bandwidth: tau,
            expected_partitions: 8,
            beta_lower: 0.1,
            beta_upper: 2.0,
        };
        let tp = td_partition(&td, &cfg);
        for i in 0..tp.num_partitions() {
            assert!(
                tp.boundary(i).len() <= tau,
                "case {case} ({desc}, tau={tau}): boundary exceeds bandwidth"
            );
        }
        let covered: usize = (0..tp.num_partitions()).map(|i| tp.vertices(i).len()).sum();
        assert_eq!(
            covered + tp.overlay_vertices().len(),
            g.num_vertices(),
            "case {case} ({desc}, tau={tau}): vertices not covered"
        );
    }
}
