//! Concurrency integration test for the read/write index API: client threads
//! race a maintenance thread through [`run_load`], and every answer must be
//! exact on the graph snapshot that was current when the query was answered
//! — no torn reads, no staleness beyond the published stage.
//!
//! The driver's `verify` mode re-derives every answer with a fresh Dijkstra
//! run on the answering view's own graph ([`QueryView::graph`]), which is
//! exactly that assertion: a client may observe an older published stage
//! (fine — that view carries the older graph and is exact on it), but it may
//! never observe a half-repaired index.

use htsp::core::{Pmhl, PmhlConfig, PostMhl, PostMhlConfig, WorkerPool};
use htsp::graph::{
    gen, Graph, IndexMaintainer, Query, QuerySet, SnapshotPublisher, UpdateGenerator, VertexId,
};
use htsp::search::dijkstra_distance;
use htsp::throughput::{
    AdmissionPolicy, DistanceService, QueryBatch, RequestClass, RequestMix, TelemetryHub,
};
use htsp::{run_load, AlgorithmKind, LoadProfile, RoadNetworkServer};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn road() -> Graph {
    gen::grid_with_diagonals(12, 12, gen::WeightRange::new(2, 60), 0.15, 23)
}

fn postmhl(g: &Graph) -> Box<dyn IndexMaintainer> {
    Box::new(PostMhl::build(g, PostMhlConfig::default()))
}

fn pool(g: &Graph) -> Vec<Query> {
    QuerySet::random(g, 256, 91).as_slice().to_vec()
}

fn race(maintainer: Box<dyn IndexMaintainer>, clients: usize) {
    let g = road();
    let server = RoadNetworkServer::host(&g, maintainer);
    let profile = LoadProfile {
        clients,
        update_rounds: 4,
        update_volume: 30,
        verify: true,
        seed: 91,
        ..LoadProfile::closed_loop(Duration::from_millis(160))
    };
    let report = run_load(&server, &profile, &pool(&g));
    server.shutdown();
    assert_eq!(
        report.verify_failures,
        0,
        "{} returned answers that disagree with Dijkstra on the answering \
         snapshot's graph; first failure: {}",
        report.target,
        report.first_failure.as_deref().unwrap_or("<missing>")
    );
    assert!(
        report.answered_pairs > 0,
        "{}: clients answered no queries",
        report.target
    );
    assert_eq!(report.timelines.len(), 4);
    // Every batch published at least one snapshot.
    assert!(
        report.publications.len() >= 4,
        "{}: expected ≥4 publications, saw {:?}",
        report.target,
        report.publications
    );
    // The per-stage tally is consistent with the total.
    assert_eq!(
        report.per_stage_pairs.iter().sum::<u64>(),
        report.answered_pairs
    );
}

#[test]
fn postmhl_serves_exact_answers_while_maintenance_races() {
    let g = road();
    race(postmhl(&g), 4);
}

#[test]
fn pmhl_serves_exact_answers_while_maintenance_races() {
    let g = road();
    race(
        Box::new(Pmhl::build(
            &g,
            PmhlConfig {
                num_partitions: 4,
                num_threads: 2,
                seed: 3,
            },
            &WorkerPool::sequential(),
        )),
        4,
    );
}

#[test]
fn dch_baseline_serves_exact_answers_while_maintenance_races() {
    let g = road();
    race(AlgorithmKind::Dch.build(&g, &Default::default()), 4);
}

#[test]
fn bidijkstra_baseline_serves_exact_answers_while_maintenance_races() {
    let g = road();
    race(AlgorithmKind::BiDijkstra.build(&g, &Default::default()), 6);
}

#[test]
fn batched_sessions_race_maintenance_without_staleness() {
    // The batch shapes (point-to-point bundles, one-to-many fans, matrix
    // blocks) race the maintenance thread with per-answer Dijkstra
    // verification: every pair must be exact on the answering session's own
    // graph snapshot, across re-pins.
    let g = road();
    for class in [
        RequestClass::PointToPoint { bundle: 16 },
        RequestClass::OneToMany { fanout: 8 },
        RequestClass::Matrix { side: 3 },
    ] {
        let server = RoadNetworkServer::host(&g, postmhl(&g));
        let profile = LoadProfile {
            mix: RequestMix::single(class),
            update_rounds: 3,
            update_volume: 30,
            verify: true,
            seed: 37,
            ..LoadProfile::closed_loop(Duration::from_millis(90))
        };
        let report = run_load(&server, &profile, &pool(&g));
        server.shutdown();
        assert_eq!(
            report.verify_failures,
            0,
            "{} under {class:?}: first failure: {}",
            report.target,
            report.first_failure.as_deref().unwrap_or("<missing>")
        );
        assert!(report.answered_pairs > 0);
        assert_eq!(report.per_class[0].class, class);
    }
}

#[test]
fn per_call_snapshot_queries_race_maintenance_without_staleness() {
    // The path `RoadNetworkServer::distance` uses: a fresh
    // `server.snapshot()` and one `QueryView::distance` per query, no
    // session. Threads hammer it while the feed applies 4 rounds; every
    // answer must be exact on the graph of the very view that gave it.
    let g = road();
    let server = RoadNetworkServer::host(&g, postmhl(&g));
    let queries = pool(&g);
    // Readers must be released even if the update loop below panics.
    struct StopOnDrop<'a>(&'a AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    let answered: u64 = std::thread::scope(|scope| {
        let _release = StopOnDrop(&stop);
        let readers: Vec<_> = (0..3)
            .map(|r| {
                let (server, queries, stop) = (&server, &queries, &stop);
                scope.spawn(move || {
                    let mut answered = 0u64;
                    for q in queries.iter().cycle().skip(r * 7) {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let view = server.snapshot();
                        assert_eq!(
                            view.distance(q.source, q.target),
                            dijkstra_distance(view.graph(), q.source, q.target),
                            "per-call answer for ({}, {}) is not exact on stage {}'s own graph",
                            q.source,
                            q.target,
                            view.stage()
                        );
                        answered += 1;
                    }
                    answered
                })
            })
            .collect();
        let mut gen_upd = UpdateGenerator::new(7);
        for _ in 0..4 {
            let batch = server.with_graph(|g| gen_upd.generate(g, 30));
            server.feed().submit_all(batch.as_slice().iter().copied());
            server.feed().flush().wait_applied();
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        readers
            .into_iter()
            .map(|h| h.join().expect("reader panicked"))
            .sum()
    });
    assert!(answered > 0, "readers answered nothing");
    assert!(server.publisher().version() >= 4);
    server.shutdown();
}

#[test]
fn distance_service_reaches_fresh_snapshots_during_maintenance() {
    // A DistanceService keeps answering batches while the maintainer
    // repairs; after each repair, newly submitted batches must observe a
    // version at least as new as the published one and answer exactly on
    // the *current* graph.
    let mut g = road();
    let mut idx = Pmhl::build(
        &g,
        PmhlConfig {
            num_partitions: 4,
            num_threads: 2,
            seed: 5,
        },
        &WorkerPool::sequential(),
    );
    let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
    let service = DistanceService::start(
        Arc::clone(&publisher),
        3,
        None,
        AdmissionPolicy::Block,
        Arc::new(TelemetryHub::new()),
    );
    assert_eq!(service.num_workers(), 3);

    let targets: Vec<VertexId> = (0..24).map(|i| VertexId(i * 6)).collect();
    let mut gen_upd = UpdateGenerator::new(3);
    for round in 0..3u64 {
        // Keep traffic in flight while the repair runs on this thread.
        let inflight: Vec<_> = (0..8)
            .map(|i| {
                service.submit(QueryBatch::OneToMany {
                    source: VertexId((round as u32 * 31 + i * 7) % 144),
                    targets: targets.clone(),
                })
            })
            .collect();
        let batch = gen_upd.generate(&g, 40);
        g.apply_batch(&batch);
        idx.apply_batch(&g, &batch, &publisher);
        for ticket in inflight {
            // In-flight answers may come from any published stage; exactness
            // per snapshot is covered by the verify tests above.
            let answer = ticket.wait();
            assert_eq!(answer.distances.len(), targets.len());
        }
        // A post-repair batch must see the final published version and be
        // exact on the current weights.
        let version = publisher.version();
        let answer = service.answer(QueryBatch::Matrix {
            sources: vec![VertexId(0), VertexId(77)],
            targets: targets.clone(),
        });
        assert!(answer.snapshot_version >= version);
        for (i, &s) in [VertexId(0), VertexId(77)].iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    answer.distances[i * targets.len() + j],
                    dijkstra_distance(&g, s, t),
                    "round {round}: service answer for ({s}, {t}) is stale"
                );
            }
        }
    }
    service.shutdown();
}

#[test]
fn multi_stage_snapshots_are_observed_during_maintenance() {
    // With enough batches and slow-ish repairs, the clients must observe at
    // least two distinct stages of PostMHL: an early (BiDijkstra/PCH)
    // snapshot that is current during the multi-millisecond repair, and the
    // final cross-boundary one that serves between batches.
    let g = gen::grid_with_diagonals(24, 24, gen::WeightRange::new(2, 60), 0.1, 29);
    let server = RoadNetworkServer::host(&g, postmhl(&g));
    let profile = LoadProfile {
        update_rounds: 6,
        update_volume: 150,
        seed: 17,
        ..LoadProfile::closed_loop(Duration::from_millis(300))
    };
    let pool: Vec<Query> = QuerySet::random(&g, 256, 17).as_slice().to_vec();
    let report = run_load(&server, &profile, &pool);
    let stages_hit = report.per_stage_pairs.iter().filter(|&&c| c > 0).count();
    assert!(
        stages_hit >= 2,
        "clients never observed an intermediate snapshot - staged publication is broken: {:?}",
        report.per_stage_pairs
    );
    // The publication log must show the staged release pattern: every batch
    // publishes intermediate stages before ending at the final stage.
    let final_stage = server.num_query_stages() - 1;
    server.shutdown();
    assert_eq!(
        report.publications.last().map(|&(_, s)| s),
        Some(final_stage)
    );
    assert!(
        report.publications.iter().any(|&(_, s)| s < final_stage),
        "no intermediate stage was ever published: {:?}",
        report.publications
    );
}
