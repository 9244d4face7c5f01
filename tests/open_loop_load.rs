//! End-to-end tests of scheduled (open-loop) arrivals through the one load
//! driver: the deterministic generator drives a real `DistanceService`
//! (single-server and fleet-backed), every answer is exact, the books
//! balance, the SLO verdict machinery sees the measured tail, and shedding
//! holds the tail where an unbounded queue does not.

use htsp::graph::{gen, Graph, Query, QuerySet};
use htsp::search::dijkstra_distance;
use htsp::throughput::{
    AdmissionPolicy, AlgorithmKind, ArrivalProcess, QueryBatch, RequestClass, RequestMix,
    RequestStream, SloTarget,
};
use htsp::{run_load, LoadProfile, RoadNetworkServer, ServerBuilder};
use std::time::Duration;

fn mixed_profile(rate: f64, duration: Duration) -> LoadProfile {
    LoadProfile {
        clients: 2,
        seed: 99,
        mix: RequestMix::new(vec![
            (RequestClass::PointToPoint { bundle: 2 }, 4.0),
            (RequestClass::OneToMany { fanout: 3 }, 1.0),
            (RequestClass::Matrix { side: 2 }, 1.0),
            (
                RequestClass::HotPairs {
                    universe: 8,
                    zipf_s: 1.0,
                },
                2.0,
            ),
        ]),
        ..LoadProfile::poisson(rate, duration, SloTarget::p95(Duration::from_millis(250)))
    }
}

fn start_server(g: &Graph, kind: AlgorithmKind, policy: AdmissionPolicy) -> RoadNetworkServer {
    ServerBuilder::default()
        .algorithm(kind)
        .query_workers(2)
        .admission(policy)
        .start(g)
}

#[test]
fn open_loop_run_answers_exactly_and_balances_the_books() {
    let g = gen::grid(8, 8, gen::WeightRange::new(1, 20), 5);
    let pool: Vec<Query> = QuerySet::random(&g, 32, 7).as_slice().to_vec();
    let server = start_server(&g, AlgorithmKind::Dch, AdmissionPolicy::Block);

    // A backlog from before the run: 64 batches queued at once drive the
    // service's *lifetime* queue high-water mark far above anything the
    // paced run below can reach.
    let service = server.query_service().expect("query workers enabled");
    let backlog: Vec<_> = (0..64)
        .map(|_| service.submit(QueryBatch::PointToPoint(pool.clone())))
        .collect();
    for ticket in backlog {
        ticket.wait();
    }
    let lifetime_max = service.stats().max_queue_depth;

    let profile = LoadProfile {
        verify: true,
        ..mixed_profile(400.0, Duration::from_millis(300))
    };
    let report = run_load(&server, &profile, &pool);

    assert!(report.offered > 0, "a 400 req/s run must offer something");
    assert_eq!(report.answered, report.offered, "Block answers everything");
    assert_eq!(report.shed + report.expired + report.abandoned, 0);
    assert_eq!(report.verify_failures, 0, "{:?}", report.first_failure);
    assert_eq!(report.latency.count(), report.answered);
    assert_eq!(report.per_class.len(), 4);
    let per_class_offered: u64 = report.per_class.iter().map(|c| c.offered).sum();
    assert_eq!(per_class_offered, report.offered);
    assert!(
        report.answered_pairs >= report.answered,
        "batches hold >= 1 pair"
    );
    assert!(!report.latency.is_empty());
    // The queue depth is this run's, not the service's lifetime maximum.
    assert!(report.max_queue_depth >= 1);
    assert!(
        report.max_queue_depth < lifetime_max,
        "run saw depth {} but the earlier backlog reached {lifetime_max}",
        report.max_queue_depth
    );
    assert!(service.stats().max_queue_depth >= lifetime_max);
    // The verdict is wired to the measured histogram: its achieved p95
    // matches what the histogram reports.
    let p95 = report.latency.quantile(0.95);
    let check = report
        .verdict
        .checks
        .iter()
        .find(|c| c.quantile == 0.95)
        .expect("profile carries a p95 target");
    assert_eq!(check.achieved, p95);
}

#[test]
fn open_loop_answers_are_exact_against_dijkstra() {
    // Replay the same stream the driver would generate and check every
    // batch shape answers exactly: submit each batch synchronously and
    // compare to Dijkstra on the (static) graph.
    let g = gen::grid(7, 7, gen::WeightRange::new(1, 15), 9);
    let pool: Vec<Query> = QuerySet::random(&g, 24, 3).as_slice().to_vec();
    let server = start_server(&g, AlgorithmKind::Dch, AdmissionPolicy::Block);
    let service = server.query_service().expect("query workers enabled");

    let profile = mixed_profile(1000.0, Duration::from_millis(50));
    let mut stream = RequestStream::new(profile.mix.clone(), &pool, profile.seed, 0);
    for _ in 0..40 {
        let (class, batch) = stream.next_request();
        let expected: Vec<_> = batch
            .pairs()
            .into_iter()
            .map(|(s, t)| dijkstra_distance(&g, s, t))
            .collect();
        let answer = service.answer(batch);
        assert_eq!(answer.distances, expected, "mix entry {class}");
    }
}

#[test]
fn shed_holds_the_tail_where_block_does_not() {
    // A slow kind, so that capacity is low enough to overload in a test.
    let g = gen::grid(24, 24, gen::WeightRange::new(1, 50), 13);
    let pool: Vec<Query> = QuerySet::random(&g, 64, 17).as_slice().to_vec();
    let kind = AlgorithmKind::BiDijkstra;

    // Closed-loop capacity in requests/s, measured here: two clients (the
    // service below has two workers) on their own sessions.
    let mix = RequestMix::single(RequestClass::PointToPoint { bundle: 32 });
    let server = start_server(&g, kind, AdmissionPolicy::Block);
    let calibration = LoadProfile {
        mix: mix.clone(),
        clients: 2,
        ..LoadProfile::closed_loop(Duration::from_millis(300))
    };
    let calibrated = run_load(&server, &calibration, &pool);
    server.shutdown();
    let capacity = calibrated.answered as f64 / calibrated.elapsed.as_secs_f64();
    assert!(capacity > 0.0);

    // Offer 4× that for a second, once to an unbounded queue and once to a
    // bounded one, each on a fresh service.
    let overload = LoadProfile {
        arrivals: ArrivalProcess::Constant {
            rate: 4.0 * capacity,
        },
        mix,
        clients: 2,
        verify: true,
        ..LoadProfile::closed_loop(Duration::from_secs(1))
    };
    let offer = |policy| {
        let server = start_server(&g, kind, policy);
        let report = run_load(&server, &overload, &pool);
        server.shutdown();
        assert_eq!(report.verify_failures, 0, "{:?}", report.first_failure);
        report
    };
    let block = offer(AdmissionPolicy::Block);
    let shed = offer(AdmissionPolicy::Shed { max_depth: 8 });

    assert!(block.offered > 0);
    assert_eq!(block.answered, block.offered, "Block answers everything");
    assert_eq!(block.shed, 0);
    assert!(shed.shed > 0, "a 4× overload must overflow a queue of 8");
    assert_eq!(shed.answered + shed.shed, shed.offered);
    assert!(shed.max_queue_depth <= 8);
    let (block_p95, shed_p95) = (block.latency.quantile(0.95), shed.latency.quantile(0.95));
    assert!(
        shed_p95 < block_p95,
        "Shed p95 {shed_p95:?} must stay below Block p95 {block_p95:?}"
    );
}

#[test]
fn fleet_backed_service_serves_open_loop_traffic() {
    let g = gen::grid(10, 10, gen::WeightRange::new(1, 30), 11);
    let pool: Vec<Query> = QuerySet::random(&g, 24, 13).as_slice().to_vec();
    let fleet = RoadNetworkServer::builder()
        .shards(4)
        .algorithm(AlgorithmKind::Dch)
        .query_workers(2)
        .admission(AdmissionPolicy::Shed { max_depth: 256 })
        .start(&g);
    let service = fleet.query_service().expect("query workers started");

    // Two update rounds go through the fleet's feed beside the arrivals.
    let profile = LoadProfile {
        clients: 2,
        seed: 5,
        update_rounds: 2,
        update_volume: 10,
        ..LoadProfile::poisson(
            300.0,
            Duration::from_millis(250),
            SloTarget::p95(Duration::from_millis(500)),
        )
    };
    let report = run_load(&fleet, &profile, &pool);
    assert!(report.offered > 0);
    assert_eq!(report.answered + report.shed, report.offered);
    assert!(report.answered > 0, "fleet service must answer traffic");
    assert_eq!(report.timelines.len(), 2);
    assert!(fleet.publisher().version() >= 2);

    // Fleet answers are exact on the updated weights: spot-check
    // synchronously against the current view's graph.
    let current = fleet.snapshot().graph().clone();
    for q in &pool[..8] {
        let answer = service.answer(QueryBatch::PointToPoint(vec![*q]));
        assert_eq!(
            answer.distances,
            vec![dijkstra_distance(&current, q.source, q.target)]
        );
    }
    let stats = service.stats();
    assert_eq!(stats.answered, report.answered + 8);
    fleet.shutdown();
}
