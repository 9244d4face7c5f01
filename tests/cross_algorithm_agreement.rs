//! Cross-crate integration test: every algorithm in the repository must agree
//! with Dijkstra (and therefore with each other) on the same dynamic workload,
//! across several update batches — the paper's implicit no-staleness
//! correctness requirement.
//!
//! The first test drives all nine algorithms of the [`AlgorithmKind`]
//! registry through the session API (one
//! [`QuerySession`](htsp::graph::QuerySession) per published snapshot); the
//! second exercises the per-stage snapshot views of the multi-stage indexes.
//! (The legacy `DynamicSpIndex` shim was removed in PR 3; snapshot isolation
//! under concurrent maintenance is covered by `tests/cow_snapshot_isolation.rs`;
//! read-your-writes through the server facade by `tests/server_visibility.rs`.)

use htsp::core::{Mhl, Pmhl, PmhlConfig, PostMhl, PostMhlConfig, WorkerPool};
use htsp::graph::{gen, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator};
use htsp::search::dijkstra_distance;
use htsp::{AlgorithmKind, BuildParams};

#[test]
fn all_algorithms_agree_on_a_dynamic_workload() {
    let mut g = gen::grid_with_diagonals(12, 12, gen::WeightRange::new(2, 60), 0.15, 77);
    let params = BuildParams::new(4, 2);
    let mut algorithms: Vec<Box<dyn IndexMaintainer>> = AlgorithmKind::ALL
        .iter()
        .map(|kind| kind.build(&g, &params))
        .collect();
    assert_eq!(algorithms.len(), 9);

    let mut gen_upd = UpdateGenerator::new(9);
    for round in 0..3u64 {
        let queries = QuerySet::random(&g, 40, 1000 + round);
        for alg in algorithms.iter() {
            let view = alg.current_view();
            let mut session = view.session();
            for q in &queries {
                let expect = dijkstra_distance(&g, q.source, q.target);
                assert_eq!(
                    session.distance(q.source, q.target),
                    expect,
                    "round {round}: {} disagrees with Dijkstra on {:?}",
                    alg.name(),
                    q
                );
            }
        }
        // Next traffic batch.
        let batch = gen_upd.generate(&g, 25);
        g.apply_batch(&batch);
        for alg in algorithms.iter_mut() {
            let publisher = SnapshotPublisher::new(alg.current_view());
            let timeline = alg.apply_batch(&g, &batch, &publisher);
            assert!(!timeline.stages.is_empty());
            assert!(publisher.version() >= 1, "{} published nothing", alg.name());
        }
    }
}

#[test]
fn multi_stage_indexes_are_exact_at_every_stage_after_updates() {
    let mut g = gen::grid(10, 10, gen::WeightRange::new(5, 50), 13);
    let mut pmhl = Pmhl::build(
        &g,
        PmhlConfig {
            num_partitions: 4,
            num_threads: 2,
            seed: 1,
        },
        &WorkerPool::sequential(),
    );
    let mut postmhl = PostMhl::build(&g, PostMhlConfig::default());
    let mut mhl = Mhl::build(&g);

    let mut gen_upd = UpdateGenerator::new(21);
    let batch = gen_upd.generate(&g, 30);
    g.apply_batch(&batch);
    for maintainer in [
        &mut pmhl as &mut dyn IndexMaintainer,
        &mut postmhl as &mut dyn IndexMaintainer,
        &mut mhl as &mut dyn IndexMaintainer,
    ] {
        let publisher = htsp::graph::SnapshotPublisher::new(maintainer.current_view());
        maintainer.apply_batch(&g, &batch, &publisher);
    }

    let queries = QuerySet::random(&g, 60, 5);
    for q in &queries {
        let expect = dijkstra_distance(&g, q.source, q.target);
        for maintainer in [
            &pmhl as &dyn IndexMaintainer,
            &postmhl as &dyn IndexMaintainer,
            &mhl as &dyn IndexMaintainer,
        ] {
            for stage in 0..maintainer.num_query_stages() {
                assert_eq!(
                    maintainer.view_at_stage(stage).distance(q.source, q.target),
                    expect,
                    "{} stage {stage} mismatch for {q:?}",
                    maintainer.name()
                );
            }
        }
    }
}
