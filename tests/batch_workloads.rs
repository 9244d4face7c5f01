//! Cross-algorithm integration test for the session batch workloads: for
//! every algorithm in the repository, `one_to_many` and `matrix` answers
//! must equal fresh Dijkstra runs on the answering view's *own* graph
//! snapshot — before updates, after updates, and on every per-stage
//! (mid-maintenance) snapshot of the multi-stage indexes.
//!
//! This pins down the two ways a batch implementation can go wrong: sharing
//! the wrong state across targets (e.g. a stale forward ball after an
//! update) and disagreeing with the per-call `distance` path.

use htsp::baselines::{BiDijkstraBaseline, DchBaseline, Dh2hBaseline, ToainBaseline};
use htsp::core::{Mhl, Pmhl, PmhlConfig, PostMhl, PostMhlConfig, WorkerPool};
use htsp::graph::{gen, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator, VertexId};
use htsp::search::dijkstra_distance;

fn nine_algorithms(g: &htsp::graph::Graph) -> Vec<Box<dyn IndexMaintainer>> {
    vec![
        Box::new(BiDijkstraBaseline::new(g)),
        Box::new(DchBaseline::build(g)),
        Box::new(Dh2hBaseline::build(g)),
        Box::new(ToainBaseline::build(g, 64)),
        Box::new(htsp::psp::NChP::build(g, 4, 1, &WorkerPool::sequential())),
        Box::new(htsp::psp::PTdP::build(g, 4, 1, &WorkerPool::sequential())),
        Box::new(Mhl::build(g)),
        Box::new(Pmhl::build(
            g,
            PmhlConfig {
                num_partitions: 4,
                num_threads: 2,
                seed: 3,
            },
            &WorkerPool::sequential(),
        )),
        Box::new(PostMhl::build(g, PostMhlConfig::default())),
    ]
}

/// Checks every query stage of `alg`: the per-stage views answer with the
/// machinery that is live mid-maintenance, so verifying batches on each of
/// them covers the mid-repair snapshots workers would observe.
fn check_batches_at_every_stage(alg: &dyn IndexMaintainer, seed: u64) {
    for stage in 0..alg.num_query_stages() {
        let view = alg.view_at_stage(stage);
        let graph = view.graph();
        let n = graph.num_vertices() as u32;
        let qs = QuerySet::random(graph, 8, seed + stage as u64);
        let sources: Vec<VertexId> = qs.iter().map(|q| q.source).collect();
        let targets: Vec<VertexId> = qs
            .iter()
            .map(|q| q.target)
            // Exercise the edge cases: a duplicate target and a target that
            // collides with a source.
            .chain([qs.as_slice()[0].target, sources[0]])
            .chain([VertexId(0), VertexId(n - 1)])
            .collect();

        let mut session = view.session();
        for &s in &sources {
            let fan = session.one_to_many(s, &targets);
            assert_eq!(fan.len(), targets.len());
            for (&t, &d) in targets.iter().zip(&fan) {
                assert_eq!(
                    d,
                    dijkstra_distance(graph, s, t),
                    "{} stage {stage}: one_to_many({s}, {t}) diverged",
                    alg.name()
                );
            }
        }
        let m = session.matrix(&sources, &targets);
        assert_eq!(m.len(), sources.len());
        for (&s, row) in sources.iter().zip(&m) {
            for (&t, &d) in targets.iter().zip(row) {
                assert_eq!(
                    d,
                    dijkstra_distance(graph, s, t),
                    "{} stage {stage}: matrix({s}, {t}) diverged",
                    alg.name()
                );
            }
        }
        // The batch paths agree with the per-call path on the same session.
        let q = &qs.as_slice()[0];
        assert_eq!(
            session.distance(q.source, q.target),
            view.distance(q.source, q.target),
            "{} stage {stage}: session and view disagree",
            alg.name()
        );
    }
}

#[test]
fn one_to_many_and_matrix_match_dijkstra_for_all_nine_algorithms() {
    let mut g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 50), 0.2, 41);
    let mut algorithms = nine_algorithms(&g);
    assert_eq!(algorithms.len(), 9);

    // Freshly built.
    for alg in algorithms.iter() {
        check_batches_at_every_stage(alg.as_ref(), 100);
    }

    // After two update batches, re-check every (mid-maintenance) stage view.
    let mut gen_upd = UpdateGenerator::new(23);
    for round in 0..2u64 {
        let batch = gen_upd.generate(&g, 20);
        g.apply_batch(&batch);
        for alg in algorithms.iter_mut() {
            let publisher = SnapshotPublisher::new(alg.current_view());
            alg.apply_batch(&g, &batch, &publisher);
        }
        for alg in algorithms.iter() {
            check_batches_at_every_stage(alg.as_ref(), 200 + 10 * round);
        }
    }
}

#[test]
fn sessions_stay_pinned_to_their_snapshot_across_updates() {
    // A session opened before a batch keeps answering on the old weights
    // even while newer snapshots exist — the snapshot contract extended to
    // batch queries.
    let mut g = gen::grid(8, 8, gen::WeightRange::new(5, 25), 13);
    let mut idx = DchBaseline::build(&g);
    let old_graph = g.clone();
    let old_view = idx.current_view();
    let mut old_session = old_view.session();

    let batch = UpdateGenerator::new(7).generate(&g, 25);
    g.apply_batch(&batch);
    let publisher = SnapshotPublisher::new(idx.current_view());
    idx.apply_batch(&g, &batch, &publisher);

    let targets: Vec<VertexId> = (0..16).map(|i| VertexId(i * 4)).collect();
    let old_fan = old_session.one_to_many(VertexId(9), &targets);
    let new_view = publisher.snapshot();
    let mut new_session = new_view.session();
    let new_fan = new_session.one_to_many(VertexId(9), &targets);
    for (i, &t) in targets.iter().enumerate() {
        assert_eq!(
            old_fan[i],
            dijkstra_distance(&old_graph, VertexId(9), t),
            "pinned session drifted for target {t}"
        );
        assert_eq!(
            new_fan[i],
            dijkstra_distance(&g, VertexId(9), t),
            "fresh session wrong for target {t}"
        );
    }
}
