//! Read-your-writes through the `RoadNetworkServer` facade, for all nine
//! registry algorithms: updates submitted through the `UpdateFeed` while
//! query threads keep serving must become visible exactly when their
//! tickets say so, and post-visibility answers must match Dijkstra on the
//! mutated graph.
//!
//! Also covered here: queries never block on maintenance (a session pinned
//! before the ingest keeps answering on its frozen snapshot — the
//! cow_snapshot_isolation guarantee, restated under the server), and the
//! coalescing behaviour surfaced to tickets (one feed batch = one shared
//! outcome).

use htsp::graph::{gen, EdgeUpdate, Graph, QuerySet, UpdateBatch, UpdateGenerator};
use htsp::search::dijkstra_distance;
use htsp::throughput::QueryBatch;
use htsp::{AlgorithmKind, BuildParams, CoalescePolicy, RoadNetworkServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Duration;

fn road(seed: u64) -> Graph {
    gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 60), 0.15, seed)
}

/// Generates `volume` updates consistent with `g` and applies them locally,
/// returning the batch (the server applies the same updates through its
/// feed).
fn updates(g: &mut Graph, seed: u64, volume: usize) -> UpdateBatch {
    let batch = UpdateGenerator::new(seed).generate(g, volume);
    g.apply_batch(&batch);
    batch
}

#[test]
fn all_nine_algorithms_give_read_your_writes_under_concurrent_queries() {
    for kind in AlgorithmKind::ALL {
        let mut g = road(77);
        let server = RoadNetworkServer::builder()
            .algorithm(kind)
            .build_params(BuildParams::new(4, 2))
            .coalesce(CoalescePolicy::by_size(8))
            .query_workers(2)
            .start(&g);

        let queries = QuerySet::random(&g, 15, 42);
        let stop = AtomicBool::new(false);
        // How many query threads have answered one full pass.
        let answering = (Mutex::new(0usize), Condvar::new());
        // If any assertion in the scope body unwinds, the raced query
        // threads must still be told to stop — otherwise thread::scope
        // joins threads that spin forever and the test hangs instead of
        // failing.
        struct StopGuard<'a>(&'a AtomicBool);
        impl Drop for StopGuard<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Relaxed);
            }
        }
        std::thread::scope(|scope| {
            let _stop_on_unwind = StopGuard(&stop);
            // Query threads hammer the published snapshots (and the batched
            // service front-end) for the whole ingest; they must never
            // observe a half-repaired index — every answer is checked
            // against Dijkstra on the answering snapshot's own graph.
            let raced: Vec<_> = (0..2)
                .map(|_| {
                    let stop = &stop;
                    let answering = &answering;
                    let queries = &queries;
                    let server = &server;
                    scope.spawn(move || {
                        let mut answered = 0u64;
                        while !stop.load(Ordering::Relaxed) {
                            let view = server.snapshot();
                            let mut session = view.session();
                            for q in queries {
                                assert_eq!(
                                    session.distance(q.source, q.target),
                                    dijkstra_distance(view.graph(), q.source, q.target),
                                    "{}: torn read while ingesting",
                                    view.algorithm()
                                );
                                answered += 1;
                            }
                            if answered == queries.len() as u64 {
                                *answering.0.lock().expect("counter poisoned") += 1;
                                answering.1.notify_all();
                            }
                        }
                        answered
                    })
                })
                .collect();

            // The ingest starts once both query threads answer: on a
            // saturated host both rounds could otherwise finish before a
            // query thread is ever scheduled, and nothing would race.
            let started = *answering
                .1
                .wait_timeout_while(
                    answering.0.lock().expect("counter poisoned"),
                    Duration::from_secs(60),
                    |n| *n < raced.len(),
                )
                .expect("counter poisoned")
                .0;
            assert_eq!(
                started,
                raced.len(),
                "{kind}: query threads never answered before the ingest"
            );

            for round in 0..2u64 {
                // Exactly max_batch updates per round: the size trigger
                // flushes without an explicit boundary.
                let batch = updates(&mut g, 100 + round, 8);
                let tickets = server.feed().submit_all(batch.as_slice().iter().copied());
                assert_eq!(tickets.len(), 8);
                // Every ticket resolves, and read-your-writes holds at
                // wait_visible: the newest snapshot contains each update.
                for (ticket, update) in tickets.iter().zip(batch.as_slice()) {
                    let vis = ticket.wait_visible();
                    assert!(vis.version >= 1);
                    let view = server.snapshot();
                    assert_eq!(
                        view.graph().edge_weight(update.edge),
                        update.new_weight,
                        "{kind}: update not visible after wait_visible()"
                    );
                }
                let outcome = tickets[0].wait_applied();
                assert_eq!(outcome.batch_len, 8, "{kind}: batch was split");
                for t in &tickets {
                    assert_eq!(t.wait_applied().batch_seq, outcome.batch_seq);
                }
                // Post-visibility answers match Dijkstra on the mutated
                // graph — both directly and through the query service.
                let view = server.snapshot();
                let answer = server
                    .submit_queries(QueryBatch::PointToPoint(queries.as_slice().to_vec()))
                    .wait();
                for (q, &d) in queries.iter().zip(&answer.distances) {
                    let expect = dijkstra_distance(&g, q.source, q.target);
                    assert_eq!(
                        view.distance(q.source, q.target),
                        expect,
                        "{kind}: stale answer after visibility"
                    );
                    assert_eq!(d, expect, "{kind}: service answer stale after visibility");
                }
            }
            stop.store(true, Ordering::Relaxed);
            for handle in raced {
                assert!(
                    handle.join().expect("query thread panicked") > 0,
                    "{kind}: query thread never answered — blocked on maintenance?"
                );
            }
        });
        server.shutdown();
    }
}

#[test]
fn pinned_sessions_survive_ingest_unchanged() {
    // The cow_snapshot_isolation guarantee restated on the server: a session
    // pinned before updates stream in keeps answering on its frozen graph.
    let mut g = road(31);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::PostMhl)
        .build_params(BuildParams::new(4, 2))
        .coalesce(CoalescePolicy::by_size(4))
        .start(&g);
    let pinned = server.snapshot();
    let frozen = pinned.graph().clone();
    let queries = QuerySet::random(&g, 20, 9);

    let batch = updates(&mut g, 5, 4);
    let tickets = server.feed().submit_all(batch.as_slice().iter().copied());
    tickets.last().expect("tickets").wait_applied();

    // The new snapshot answers on the new graph...
    let fresh = server.snapshot();
    for q in &queries {
        assert_eq!(
            fresh.distance(q.source, q.target),
            dijkstra_distance(&g, q.source, q.target)
        );
    }
    // ...while the pinned view still answers on the old one.
    let mut session = pinned.session();
    for q in &queries {
        assert_eq!(
            session.distance(q.source, q.target),
            dijkstra_distance(&frozen, q.source, q.target),
            "pinned session observed the ingest"
        );
    }
    server.shutdown();
}

#[test]
fn visibility_precedes_full_application_for_multi_stage_indexes() {
    // wait_visible() must fire at the *first* staged publication, not at
    // the end of the repair: for a multi-stage index the visible version of
    // a ticket is strictly older than the final version of its outcome.
    let mut g = road(63);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::PostMhl)
        .build_params(BuildParams::new(4, 2))
        .coalesce(CoalescePolicy::manual())
        .start(&g);
    let batch = updates(&mut g, 17, 30);
    let tickets = server.feed().submit_all(batch.as_slice().iter().copied());
    let barrier = server.feed().flush();
    let vis = tickets[0].wait_visible();
    let outcome = barrier.wait_applied();
    assert_eq!(vis.version, outcome.first_version);
    assert!(
        outcome.final_version > outcome.first_version,
        "multi-stage repair must publish more than one stage"
    );
    assert!(outcome.timeline.stages.len() > 1);
    assert_eq!(outcome.final_version, server.publisher().version());
    server.shutdown();

    // Sanity: a single EdgeUpdate submitted alone still resolves under a
    // delay policy (Δt-triggered flush).
    let g2 = road(64);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::Dch)
        .coalesce(CoalescePolicy::by_delay(Duration::from_millis(10)))
        .start(&g2);
    let e = htsp::graph::EdgeId::from_index(5);
    let w = g2.edge_weight(e);
    let ticket = server.submit(EdgeUpdate::new(e, w, w + 9));
    assert_eq!(ticket.wait_applied().batch_len, 1);
    assert_eq!(server.snapshot().graph().edge_weight(e), w + 9);
    server.shutdown();
}
