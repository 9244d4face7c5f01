//! Snapshot isolation under chunked copy-on-write storage.
//!
//! The storage migration (PR 3) replaced whole-component `Arc::make_mut`
//! clones with chunk-granular [`CowVec`](htsp::graph::CowVec) /
//! [`CowTable`](htsp::graph::CowTable) copy-on-write. These tests pin
//! [`QueryView`](htsp::graph::QueryView) snapshots *before* a maintenance
//! round and check, across every algorithm in the repository and several
//! randomized rounds, that
//!
//! 1. a pinned view keeps answering exactly on its own (old) graph version
//!    while the maintainer mutates chunks underneath it — no torn reads, no
//!    staleness leaking forward;
//! 2. the freshly published view answers exactly on the new graph;
//! 3. the maintainers really do clone chunks while a snapshot is pinned
//!    (the telemetry in the publication log is non-zero), and the clone
//!    volume is bounded by the component sizes.

use htsp::core::{Pmhl, PmhlConfig, PostMhl, PostMhlConfig, WorkerPool};
use htsp::graph::{
    gen, Dist, IndexMaintainer, QuerySet, QueryView, SnapshotPublisher, UpdateGenerator, VertexId,
    Weight,
};
use htsp::search::dijkstra_distance;
use htsp::{AlgorithmKind, BuildParams, CoalescePolicy, RoadNetworkServer};
use std::sync::Arc;

/// All nine registry algorithms, built with small-test parameters.
fn algorithms(g: &htsp::graph::Graph) -> Vec<Box<dyn IndexMaintainer>> {
    let params = BuildParams::new(4, 2);
    AlgorithmKind::ALL
        .iter()
        .map(|kind| kind.build(g, &params))
        .collect()
}

/// Every answer of `view` must be exact on `view`'s *own* graph snapshot.
fn assert_frozen(view: &Arc<dyn QueryView>, queries: &QuerySet, context: &str) {
    for q in queries {
        let expect = dijkstra_distance(view.graph(), q.source, q.target);
        assert_eq!(
            view.distance(q.source, q.target),
            expect,
            "{context}: {} stage {} diverged from its own graph snapshot on {:?}",
            view.algorithm(),
            view.stage(),
            q
        );
    }
}

/// The property, randomized over rounds: views pinned before (and published
/// during) a maintenance round stay frozen at their graph version while the
/// maintainer mutates chunks, for every algorithm.
#[test]
fn pinned_views_stay_frozen_while_chunks_mutate() {
    let mut g = gen::grid_with_diagonals(11, 11, gen::WeightRange::new(2, 60), 0.15, 91);
    let mut algorithms = algorithms(&g);
    let mut gen_upd = UpdateGenerator::new(17);
    for round in 0..3u64 {
        let queries = QuerySet::random(&g, 30, 500 + round);
        // Pin the final-stage view of every algorithm, plus every per-stage
        // view of the multi-stage indexes, all on the current graph.
        let pins: Vec<Vec<Arc<dyn QueryView>>> = algorithms
            .iter()
            .map(|alg| {
                (0..alg.num_query_stages())
                    .map(|s| alg.view_at_stage(s))
                    .collect()
            })
            .collect();
        // Old-graph ground truth must hold before the batch...
        for views in &pins {
            for view in views {
                assert_frozen(view, &queries, "pre-batch");
            }
        }

        let batch = gen_upd.generate(&g, 20);
        g.apply_batch(&batch);
        for alg in algorithms.iter_mut() {
            let publisher = SnapshotPublisher::new(alg.current_view());
            alg.apply_batch(&g, &batch, &publisher);
            // ...and the newest published snapshot must be exact on the new
            // graph.
            assert_frozen(&publisher.snapshot(), &queries, "post-batch");
        }

        // The pinned views answer on the *old* graph even though the
        // maintainers just mutated (and cloned) the chunks they share.
        for views in &pins {
            for view in views {
                assert_frozen(view, &queries, "pinned across batch");
            }
        }
    }
}

/// The graph half of the contract: a view pinned before a batch still
/// reports, through `graph()`, the pre-batch weight of every edge that batch
/// and the two after it change — for every kind and every query stage.
#[test]
fn pinned_views_keep_their_edge_weights_across_later_batches() {
    let mut g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 60), 0.15, 43);
    let mut algorithms = algorithms(&g);
    let mut gen_upd = UpdateGenerator::new(47);
    // Every pinned view, with the round it was pinned in and a copy of the
    // graph it was pinned on.
    let mut pinned: Vec<(usize, Arc<dyn QueryView>, htsp::graph::Graph)> = Vec::new();
    for round in 0..5 {
        // A view is checked against the batch after its pin and the next two.
        pinned.retain(|(at_round, _, _)| round - at_round < 3);
        for alg in &algorithms {
            for s in 0..alg.num_query_stages() {
                pinned.push((round, alg.view_at_stage(s), g.clone()));
            }
        }
        let batch = gen_upd.generate(&g, 25);
        g.apply_batch(&batch);
        for alg in algorithms.iter_mut() {
            let publisher = SnapshotPublisher::new(alg.current_view());
            alg.apply_batch(&g, &batch, &publisher);
            assert_eq!(
                publisher
                    .snapshot()
                    .graph()
                    .edge_weight(batch.as_slice()[0].edge),
                batch.as_slice()[0].new_weight,
                "{}: the new view answers on the new weights",
                alg.name()
            );
        }
        for (_, view, at) in &pinned {
            for upd in &batch {
                assert_eq!(
                    view.graph().edge_weight(upd.edge),
                    at.edge_weight(upd.edge),
                    "round {round}: {} stage {} sees edge {:?} move under its pin",
                    view.algorithm(),
                    view.stage(),
                    upd.edge
                );
            }
        }
    }
}

/// One full copy of PostMHL's copy-on-write tables in the units
/// `bytes_cloned` counts: every label row and every shortcut row, header
/// plus payload (`index_size_bytes` counts the payload alone).
fn postmhl_full_copy_bytes(post: &PostMhl) -> u64 {
    let h2h = post.h2h();
    let ch = h2h.decomposition().hierarchy();
    let row = |len: usize, entry: usize| (std::mem::size_of::<Vec<u32>>() + len * entry) as u64;
    (0..ch.num_vertices())
        .map(VertexId::from_index)
        .map(|v| {
            row(h2h.label(v).len(), std::mem::size_of::<Dist>())
                + row(
                    ch.up_arcs(v).len(),
                    std::mem::size_of::<(VertexId, Weight)>(),
                )
        })
        .sum()
}

/// The maintainers report real, bounded clone telemetry: pinning a snapshot
/// across a batch forces chunk clones; the deltas reach the publication log;
/// and the volume stays below the component sizes (it would equal them under
/// the old whole-component cloning).
#[test]
fn publication_log_carries_bounded_clone_telemetry() {
    let mut g = gen::grid(12, 12, gen::WeightRange::new(5, 50), 23);
    let mut postmhl = PostMhl::build(&g, PostMhlConfig::default());
    let mut pmhl = Pmhl::build(
        &g,
        PmhlConfig {
            num_partitions: 4,
            num_threads: 2,
            seed: 5,
        },
        &WorkerPool::sequential(),
    );
    // Row lengths never change, so this is fixed for the whole test.
    let post_full_copy = postmhl_full_copy_bytes(&postmhl);
    let mut gen_upd = UpdateGenerator::new(29);
    let mut post_cloned = 0u64;
    let mut pmhl_cloned = 0u64;
    for _round in 0..2 {
        let batch = gen_upd.generate(&g, 15);
        g.apply_batch(&batch);
        for (maintainer, cloned, stage_cap) in [
            (
                &mut postmhl as &mut dyn IndexMaintainer,
                &mut post_cloned,
                post_full_copy,
            ),
            (
                &mut pmhl as &mut dyn IndexMaintainer,
                &mut pmhl_cloned,
                u64::MAX,
            ),
        ] {
            let publisher = SnapshotPublisher::new(maintainer.current_view());
            let pin = maintainer.current_view(); // held across the repair
            maintainer.apply_batch(&g, &batch, &publisher);
            drop(pin);
            let log = publisher.take_log();
            assert!(!log.is_empty());
            // A stage clones each chunk at most once: never more than one
            // full copy of the tables.
            for e in &log {
                assert!(
                    e.cow.bytes_cloned <= stage_cap,
                    "{} stage {} cloned {} bytes, one full copy is {stage_cap}",
                    maintainer.name(),
                    e.stage,
                    e.cow.bytes_cloned
                );
            }
            let round_bytes: u64 = log.iter().map(|e| e.cow.bytes_cloned).sum();
            let round_chunks: u64 = log.iter().map(|e| e.cow.chunks_cloned).sum();
            assert!(
                round_chunks > 0 && round_bytes > 0,
                "{}: a pinned snapshot across a batch must force chunk clones",
                maintainer.name()
            );
            *cloned += round_bytes;
        }
    }
    // Bounded: chunk-granular clones can round up to at most a few copies
    // of the mutable tables; the old per-stage whole-component clone paid
    // ~1 full copy per stage per round (4-5 stages x 2 rounds here).
    let post_bound = 4 * post_full_copy;
    let pmhl_bound = 4 * IndexMaintainer::index_size_bytes(&pmhl) as u64;
    assert!(
        post_cloned < post_bound,
        "PostMHL cloned {post_cloned} bytes over two rounds, bound {post_bound}"
    );
    assert!(
        pmhl_cloned < pmhl_bound,
        "PMHL cloned {pmhl_cloned} bytes over two rounds, bound {pmhl_bound}"
    );
    // And the maintainers' own cumulative counters agree in spirit: they
    // include everything the log saw.
    assert!(postmhl.cow_stats().bytes_cloned >= post_cloned);
    assert!(pmhl.cow_stats().bytes_cloned >= pmhl_cloned);
}

/// An untouched maintainer publishing snapshots clones nothing: replaying an
/// *empty* batch with a pinned snapshot must report zero cloned chunks.
#[test]
fn empty_batches_clone_nothing() {
    let g = gen::grid(10, 10, gen::WeightRange::new(1, 30), 31);
    let mut postmhl = PostMhl::build(&g, PostMhlConfig::default());
    let publisher = SnapshotPublisher::new(postmhl.current_view());
    let pin = postmhl.current_view();
    let empty = htsp::graph::UpdateBatch::new();
    postmhl.apply_batch(&g, &empty, &publisher);
    drop(pin);
    let log = publisher.take_log();
    assert!(
        log.iter().all(|e| e.cow.is_zero()),
        "empty batch cloned chunks"
    );
    assert!(postmhl.cow_stats().is_zero());
}

/// Every kind that repairs its index in place publishes what each stage
/// copy-on-wrote, so one batch with a view pinned reports nonzero cloned
/// chunks and bytes in its feed outcome and in the server's
/// `htsp_publish_cow_bytes_total`. Two kinds copy nothing themselves, so
/// their 0 is correct: BiDijkstra has no index (its U1 takes the graph
/// version the feed already wrote), and TOAIN rebuilds its hierarchy from
/// the graph on every batch instead of repairing one.
#[test]
fn every_repairing_kind_reports_its_copy_on_write_through_the_feed() {
    for kind in AlgorithmKind::ALL {
        let g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 60), 0.15, 43);
        // Manual coalescing: the 20 updates are one batch, cut by the flush.
        let server = RoadNetworkServer::builder()
            .algorithm(kind)
            .build_params(BuildParams::new(4, 2))
            .coalesce(CoalescePolicy::manual())
            .start(&g);
        let pin = server.snapshot();
        let batch = UpdateGenerator::new(11).generate(&g, 20);
        server.feed().submit_all(batch.iter().copied());
        let outcome = server.feed().flush().wait_applied();
        drop(pin);
        let counted = server
            .telemetry()
            .counter_value("htsp_publish_cow_bytes_total")
            .unwrap_or(0);
        let name = format!("{kind:?}");
        if matches!(kind, AlgorithmKind::BiDijkstra | AlgorithmKind::Toain) {
            assert!(outcome.cow.is_zero(), "{name} copied on write");
            assert_eq!(counted, 0, "{name}");
        } else {
            assert!(
                outcome.cow.chunks_cloned > 0 && outcome.cow.bytes_cloned > 0,
                "{name}: a pinned view across a batch must force chunk clones"
            );
            assert_eq!(counted, outcome.cow.bytes_cloned, "{name}");
        }
    }
}
