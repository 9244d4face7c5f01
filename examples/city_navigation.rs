//! City navigation scenario on the `RoadNetworkServer` facade: a ring-radial
//! (European-style) city where most queries are local (same district) and a
//! few are cross-city, served by a PMHL server while rush-hour traffic
//! updates stream in concurrently.
//!
//! This exercises the query classes the paper distinguishes —
//! *same-partition* queries (post-boundary index) vs *cross-partition*
//! queries (cross-boundary index) — through the server's batched
//! `DistanceService` front-end, a dispatch-style one-to-many workload (one
//! rider, many candidate drivers), and then a rush-hour phase: edge
//! slowdowns are submitted through the `UpdateFeed` while dispatch queries
//! keep flowing, and each update ticket prints its submit-to-visible lag.
//! Run with `cargo run --release --example city_navigation`.

use htsp::core::{Pmhl, PmhlConfig, WorkerPool};
use htsp::graph::{gen, EdgeId, EdgeUpdate, IndexMaintainer, QuerySet, VertexId};
use htsp::throughput::QueryBatch;
use htsp::{CoalescePolicy, RoadNetworkServer};
use std::time::Duration;

fn main() {
    // A ring-radial city: 40 concentric rings with 64 spokes.
    let road = gen::ring_radial(40, 64, gen::WeightRange::new(1, 30), 11);
    println!(
        "city network: {} intersections, {} segments",
        road.num_vertices(),
        road.num_edges()
    );

    let index = Pmhl::build(
        &road,
        PmhlConfig {
            num_partitions: 8,
            num_threads: 4,
            seed: 3,
        },
        &WorkerPool::sequential(),
    );
    println!(
        "PMHL built: {} boundary vertices, {:.1} MB",
        index.num_boundary(),
        IndexMaintainer::index_size_bytes(&index) as f64 / (1024.0 * 1024.0)
    );
    // Keep the partition map for workload classification, then hand the
    // index machinery to the server.
    let partition = index.partitioned().partition.clone();
    let server = RoadNetworkServer::builder()
        .maintainer(Box::new(index))
        .coalesce(CoalescePolicy::new(32, Duration::from_millis(20)))
        .query_workers(3)
        .start(&road);

    // Local trips: endpoints close to each other (mostly same partition).
    let local = QuerySet::random_local(&road, 2000, 50, 5);
    // Cross-city trips: uniformly random endpoints.
    let global = QuerySet::random(&road, 2000, 6);

    for (name, set) in [("local (district)", &local), ("cross-city", &global)] {
        let same_partition = set
            .iter()
            .filter(|q| partition.same_partition(q.source, q.target))
            .count();
        let t = std::time::Instant::now();
        let answer = server
            .submit_queries(QueryBatch::PointToPoint(set.as_slice().to_vec()))
            .wait();
        println!(
            "{name:<18}: {} queries, {:.1} µs/query (batched, snapshot v{}), {:.0}% same-partition",
            set.len(),
            t.elapsed().as_secs_f64() * 1e6 / set.len() as f64,
            answer.snapshot_version,
            100.0 * same_partition as f64 / set.len() as f64
        );
    }

    // Dispatch: one rider, 256 candidate drivers — a single one-to-many
    // batch instead of 256 independent queries.
    let rider = VertexId(road.num_vertices() as u32 / 2);
    let drivers: Vec<VertexId> = global.iter().take(256).map(|q| q.target).collect();
    let t = std::time::Instant::now();
    let fan = server
        .submit_queries(QueryBatch::OneToMany {
            source: rider,
            targets: drivers.clone(),
        })
        .wait();
    let (best, d) = drivers
        .iter()
        .zip(&fan.distances)
        .min_by_key(|(_, &d)| d)
        .expect("at least one driver");
    println!(
        "dispatch          : nearest of {} drivers to {} is {} (distance {}), {:.1} µs/pair",
        drivers.len(),
        rider,
        best,
        d,
        t.elapsed().as_secs_f64() * 1e6 / drivers.len() as f64
    );

    // Rush hour: segment slowdowns stream in while dispatch keeps running.
    // Updates and queries are concurrent; the tickets' wait_visible() shows
    // how long a reported slowdown takes to reach the answers.
    println!("rush hour         : 48 segment slowdowns streaming in (Δt = 20 ms)...");
    let mut update_tickets = Vec::new();
    let mut inflight = Vec::new();
    for i in 0..48usize {
        let slowdown = server.with_graph(|g| {
            let e = EdgeId::from_index((i * 211) % g.num_edges());
            let w = g.edge_weight(e);
            EdgeUpdate::new(e, w, w * 2)
        });
        update_tickets.push(server.submit(slowdown));
        inflight.push(server.submit_queries(QueryBatch::OneToMany {
            source: rider,
            targets: drivers.clone(),
        }));
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut lags_ms: Vec<f64> = update_tickets
        .iter()
        .map(|t| t.wait_visible().latency.as_secs_f64() * 1e3)
        .collect();
    lags_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    for t in inflight {
        let _ = t.wait();
    }
    // Let the last batch finish its staged repair so the summary counts
    // every slowdown (visibility already happened above, at stage 1).
    update_tickets.last().expect("tickets").wait_applied();
    let stats = server.feed().stats();
    println!(
        "rush hour         : {} updates in {} coalesced batches; visibility lag median {:.1} ms / p90 {:.1} ms",
        stats.updates_applied,
        stats.batches_applied,
        lags_ms[lags_ms.len() / 2],
        lags_ms[(lags_ms.len() * 9) / 10]
    );

    // Post-rush dispatch answers on the updated city.
    let after = server
        .submit_queries(QueryBatch::OneToMany {
            source: rider,
            targets: drivers.clone(),
        })
        .wait();
    let (best_after, d_after) = drivers
        .iter()
        .zip(&after.distances)
        .min_by_key(|(_, &d)| d)
        .expect("at least one driver");
    println!(
        "post-rush dispatch: nearest driver now {best_after} (distance {d_after}), snapshot v{}",
        after.snapshot_version
    );
    server.shutdown();
}
