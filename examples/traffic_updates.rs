//! Traffic-update scenario on the `RoadNetworkServer` facade: a stream of
//! edge-weight updates is *submitted* to a running server while queries keep
//! arriving (the Figure 1 situation, driven through the public ingest API).
//!
//! Two phases:
//!
//! 1. **Measured next to modeled** — `run_load` races four closed-loop
//!    clients against the published snapshots of DCH (fast repair, slow
//!    queries), DH2H (fast queries, slow repair) and PostMHL (multi-stage)
//!    while three update batches are applied, under several request shapes.
//!    Each report also carries the inputs of Lemma 1 (final-stage `t_q`,
//!    `V_q`, mean `t_u`), so the modeled bound `λ*_q` is printed beside the
//!    measured rate.
//! 2. **Live ingest** — updates stream into the server's `UpdateFeed` under
//!    a delay-based `CoalescePolicy` while a `DistanceService` answers
//!    query batches; every update ticket reports its submit-to-visible
//!    latency (read-your-writes lag).
//!
//! Run with `cargo run --release --example traffic_updates`.

use htsp::graph::{gen, EdgeId, EdgeUpdate, Query, QuerySet, VertexId};
use htsp::throughput::{lemma1_bound, QueryBatch, RequestClass, RequestMix};
use htsp::{run_load, AlgorithmKind, CoalescePolicy, LoadProfile, RoadNetworkServer};
use std::time::Duration;

const KINDS: [AlgorithmKind; 3] = [
    AlgorithmKind::Dch,
    AlgorithmKind::Dh2h,
    AlgorithmKind::PostMhl,
];

fn main() {
    let road = gen::grid_with_diagonals(48, 48, gen::WeightRange::new(1, 100), 0.1, 21);
    println!(
        "network: {} vertices / {} edges; 3 update batches of 300 edges per run",
        road.num_vertices(),
        road.num_edges()
    );
    let pool: Vec<Query> = QuerySet::random(&road, 512, 9).as_slice().to_vec();

    // Four clients hammer the published snapshots while the server's
    // maintenance thread repairs the submitted batches. Clients are never
    // blocked; each answer is exact on the snapshot's own graph version.
    // The modeled column is Lemma 1 at the paper's δt = 120 s, R*_q = 1 s.
    for (label, class) in [
        ("single queries", RequestClass::PointToPoint { bundle: 1 }),
        ("bundles of 64", RequestClass::PointToPoint { bundle: 64 }),
        ("8x8 matrices", RequestClass::Matrix { side: 8 }),
    ] {
        println!("\n-- {label} (4 closed-loop clients racing the maintenance thread) --");
        let profile = LoadProfile {
            mix: RequestMix::single(class),
            update_rounds: 3,
            update_volume: 300,
            seed: 9,
            ..LoadProfile::closed_loop(Duration::from_millis(600))
        };
        for kind in KINDS {
            let server = RoadNetworkServer::builder()
                .algorithm(kind)
                .coalesce(CoalescePolicy::manual())
                .start(&road);
            let report = run_load(&server, &profile, &pool);
            server.shutdown();
            let modeled = lemma1_bound(
                report.final_stage_query,
                report.mean_update_time(),
                120.0,
                1.0,
            );
            println!(
                "{:<10} {:>10.0} pairs/s measured | t_u = {:>7.4} s | t_q = {:>7.2} µs | \
                 λ*_q ≈ {:>10.0}/s modeled | stages hit: {:?}",
                report.target,
                report.pairs_per_second(),
                report.mean_update_time(),
                report.final_stage_query.mean * 1e6,
                modeled,
                report.per_stage_pairs,
            );
            let pubs: Vec<String> = report
                .publications
                .iter()
                .map(|(t, s)| format!("{:.3}s→stage {s}", t.as_secs_f64()))
                .collect();
            println!("            snapshots: {}", pubs.join("  "));
        }
    }

    // Live ingest: the deployment shape. Updates stream in one by one and
    // are coalesced by the Δt policy; a DistanceService answers query
    // batches concurrently; tickets report the submit-to-visible lag.
    println!("\n-- live ingest (PostMHL server, Δt = 50 ms coalescing, 2 query workers) --");
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::PostMhl)
        .coalesce(CoalescePolicy::new(64, Duration::from_millis(50)))
        .query_workers(2)
        .start(&road);

    let n = road.num_vertices() as u32;
    let mut query_tickets = Vec::new();
    let mut update_tickets = Vec::new();
    for i in 0..40u32 {
        // A query batch and an update submission, interleaved — neither
        // waits for the other.
        query_tickets.push(
            server.submit_queries(QueryBatch::PointToPoint(vec![Query::new(
                VertexId((i * 97) % n),
                VertexId((i * 53 + 11) % n),
            )])),
        );
        let update = server.with_graph(|g| {
            let e = EdgeId::from_index((i as usize * 131) % g.num_edges());
            let w = g.edge_weight(e);
            EdgeUpdate::new(e, w, w + 5)
        });
        update_tickets.push(server.submit(update));
        std::thread::sleep(Duration::from_millis(2));
    }
    let mut lags: Vec<f64> = update_tickets
        .iter()
        .map(|t| t.wait_visible().latency.as_secs_f64() * 1e3)
        .collect();
    let answered = query_tickets
        .into_iter()
        .map(|t| t.wait())
        .filter(|a| !a.distances.is_empty())
        .count();
    lags.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let stats = server.feed().stats();
    println!(
        "{} updates coalesced into {} batches while {} query batches were answered",
        stats.updates_applied, stats.batches_applied, answered
    );
    println!(
        "submit-to-visible lag: min {:.1} ms | median {:.1} ms | max {:.1} ms",
        lags.first().expect("lags"),
        lags[lags.len() / 2],
        lags.last().expect("lags")
    );
    server.shutdown();
}
