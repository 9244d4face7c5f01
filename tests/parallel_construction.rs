//! Construction-equivalence suite for the parallel-construction subsystem:
//! every algorithm of the [`AlgorithmKind`] registry must build the *same
//! index* at every thread count.
//!
//! The contract under test (see `htsp::graph::par`): the worker pool only
//! changes how many construction tasks run concurrently, never which tasks
//! exist or how their outputs combine. Concretely,
//!
//! * kinds with a native snapshot codec (DCH, TOAIN, DH2H, MHL) must produce
//!   **bit-identical** `snapshot_state` bytes at 1, 2, and 8 threads;
//! * every kind's sampled answers must equal the sequential build's answers
//!   and Dijkstra ground truth, at every query stage, and its per-component
//!   storage footprint must match. Only N-CH-P, P-TD-P, PMHL and PostMHL
//!   fork per partition; the stage and size checks are what observe their
//!   intermediate structures beyond the final stage;
//! * the equivalence must survive post-build drift: applying the same update
//!   batches to indexes built at different thread counts keeps them in
//!   agreement (repair starts from identical state, so it stays identical).

use htsp::graph::{gen, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator};
use htsp::search::dijkstra_distance;
use htsp::{AlgorithmKind, BuildParams};

/// Thread counts the suite compares: sequential, small, oversubscribed.
const THREADS: [usize; 3] = [1, 2, 8];

/// The kinds whose maintainers serialize a native index state; for these the
/// suite demands byte equality, not just answer equality.
const NATIVE_CODEC: [AlgorithmKind; 4] = [
    AlgorithmKind::Dch,
    AlgorithmKind::Toain,
    AlgorithmKind::Dh2h,
    AlgorithmKind::Mhl,
];

fn params_with_threads(threads: usize) -> BuildParams {
    BuildParams {
        num_threads: threads,
        ..BuildParams::new(4, 1)
    }
}

#[test]
fn all_kinds_build_identically_at_every_thread_count() {
    let g = gen::random_geometric(200, 4, gen::WeightRange::new(2, 60), 91);
    let queries = QuerySet::random(&g, 35, 17);
    for kind in AlgorithmKind::ALL {
        let sequential = kind.build(&g, &params_with_threads(1));
        let seq_state = sequential.snapshot_state();
        if NATIVE_CODEC.contains(&kind) {
            assert!(
                seq_state.is_some(),
                "{kind} is expected to carry a native snapshot codec"
            );
        }
        let seq_view = sequential.current_view();
        for q in &queries {
            assert_eq!(
                seq_view.distance(q.source, q.target),
                dijkstra_distance(&g, q.source, q.target),
                "{kind} sequential build wrong for {q:?}"
            );
        }
        for threads in [2, 8] {
            let built = kind.build(&g, &params_with_threads(threads));
            assert_eq!(
                built.snapshot_state(),
                seq_state,
                "{kind} snapshot bytes diverge at {threads} threads"
            );
            assert_eq!(
                built.storage_bytes(),
                sequential.storage_bytes(),
                "{kind} storage footprint diverges at {threads} threads"
            );
            let view = built.current_view();
            for q in &queries {
                assert_eq!(
                    view.distance(q.source, q.target),
                    seq_view.distance(q.source, q.target),
                    "{kind} answers diverge at {threads} threads for {q:?}"
                );
            }
            assert_eq!(built.num_query_stages(), sequential.num_query_stages());
            for stage in 0..sequential.num_query_stages() {
                let (view, seq_view) =
                    (built.view_at_stage(stage), sequential.view_at_stage(stage));
                assert_eq!(view.stage(), stage, "{kind} view_at_stage({stage}).stage()");
                assert_eq!(
                    view.algorithm(),
                    kind.name(),
                    "{kind} view_at_stage({stage}).algorithm()"
                );
                for q in &queries {
                    assert_eq!(
                        view.distance(q.source, q.target),
                        seq_view.distance(q.source, q.target),
                        "{kind} stage {stage} answers diverge at {threads} threads for {q:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn drift_updates_preserve_agreement_across_thread_counts() {
    let g = gen::grid_with_diagonals(11, 11, gen::WeightRange::new(2, 50), 0.2, 33);
    // One build per thread count, all fed the identical drift stream.
    for kind in AlgorithmKind::ALL {
        let mut builds: Vec<Box<dyn IndexMaintainer>> = THREADS
            .iter()
            .map(|&t| kind.build(&g, &params_with_threads(t)))
            .collect();
        let mut gen_upd = UpdateGenerator::new(57);
        let mut working = g.clone();
        for round in 0..2u64 {
            let batch = gen_upd.generate(&working, 18);
            working.apply_batch(&batch);
            for built in builds.iter_mut() {
                let publisher = SnapshotPublisher::new(built.current_view());
                let timeline = built.apply_batch(&working, &batch, &publisher);
                assert!(!timeline.stages.is_empty());
            }
            let queries = QuerySet::random(&working, 25, 400 + round);
            let reference = builds[0].current_view();
            for q in &queries {
                let expect = dijkstra_distance(&working, q.source, q.target);
                assert_eq!(
                    reference.distance(q.source, q.target),
                    expect,
                    "{kind} sequential build drifted for {q:?}"
                );
                for (built, &threads) in builds.iter().skip(1).zip(&THREADS[1..]) {
                    assert_eq!(
                        built.current_view().distance(q.source, q.target),
                        expect,
                        "{kind} at {threads} threads disagrees after round {round} for {q:?}"
                    );
                }
            }
            // Repair of bit-identical native state is deterministic, so the
            // serialized states must still match after every round.
            let reference_state = builds[0].snapshot_state();
            for built in builds.iter().skip(1) {
                assert_eq!(
                    built.snapshot_state(),
                    reference_state,
                    "{kind} native state diverges after drift round {round}"
                );
            }
        }
    }
}
