//! Throughput tuning: sweep PostMHL's TD-partitioning knobs (`k_e` and the
//! bandwidth `τ`) on one network and report the resulting update time and
//! Lemma 1 throughput, mirroring Exp. 7 / Exp. 8 of the paper — then sweep
//! the serving-side knob the paper leaves implicit: the snapshot-versioned
//! result cache under skewed hot-pair traffic, on one server and on a
//! sharded fleet. Every row is one `run_load` run.
//!
//! Run with `cargo run --release --example throughput_tuning`.

use htsp::core::{PostMhl, PostMhlConfig};
use htsp::graph::{gen, Graph, Query, QuerySet};
use htsp::partition::TdPartitionConfig;
use htsp::throughput::{lemma1_bound, RequestClass, RequestMix};
use htsp::{
    run_load, AlgorithmKind, BuildParams, CacheConfig, CoalescePolicy, LoadProfile, LoadReport,
    RoadNetworkServer,
};
use std::time::Duration;

/// Two update batches of 200 edges beside two closed-loop clients.
fn updates_profile() -> LoadProfile {
    LoadProfile {
        clients: 2,
        update_rounds: 2,
        update_volume: 200,
        seed: 5,
        ..LoadProfile::closed_loop(Duration::from_millis(400))
    }
}

/// Builds PostMHL with the given partitioning, drives it, and returns
/// `(partitions, overlay vertices, report)`.
fn tune(road: &Graph, pool: &[Query], bandwidth: usize, ke: usize) -> (usize, usize, LoadReport) {
    let idx = PostMhl::build(
        road,
        PostMhlConfig {
            partitioning: TdPartitionConfig {
                bandwidth,
                expected_partitions: ke,
                beta_lower: 0.1,
                beta_upper: 2.0,
            },
            num_threads: 4,
        },
    );
    let (parts, overlay) = (idx.num_partitions(), idx.num_overlay_vertices());
    let server = RoadNetworkServer::host(road, Box::new(idx));
    let report = run_load(&server, &updates_profile(), pool);
    server.shutdown();
    (parts, overlay, report)
}

/// Lemma 1 on the run's measured inputs at the paper's δt = 120 s, R*_q = 1 s.
fn modeled(report: &LoadReport) -> f64 {
    lemma1_bound(
        report.final_stage_query,
        report.mean_update_time(),
        120.0,
        1.0,
    )
}

fn main() {
    let road = gen::grid_with_diagonals(48, 48, gen::WeightRange::new(1, 100), 0.08, 33);
    let pool: Vec<Query> = QuerySet::random(&road, 1024, 5).as_slice().to_vec();

    println!("-- sweeping expected partition number k_e (τ = 16) --");
    println!(
        "{:>6} {:>12} {:>12} {:>14}",
        "k_e", "partitions", "t_u (s)", "λ*_q (q/s)"
    );
    for ke in [8usize, 16, 32, 64] {
        let (parts, _, r) = tune(&road, &pool, 16, ke);
        println!(
            "{:>6} {:>12} {:>12.4} {:>14.1}",
            ke,
            parts,
            r.mean_update_time(),
            modeled(&r)
        );
    }

    println!("-- sweeping bandwidth τ (k_e = 32) --");
    println!(
        "{:>6} {:>14} {:>12} {:>14}",
        "τ", "|V(overlay)|", "t_u (s)", "λ*_q (q/s)"
    );
    for tau in [8usize, 16, 24, 32] {
        let (_, overlay, r) = tune(&road, &pool, tau, 32);
        println!(
            "{:>6} {:>14} {:>12.4} {:>14.1}",
            tau,
            overlay,
            r.mean_update_time(),
            modeled(&r)
        );
    }

    // Serving-side tuning: the result cache under Zipf hot-pair traffic.
    // The same DCH machinery is reused across configurations (handed back
    // by shutdown()), so the cache is the only difference per row.
    let hot = |zipf_s: f64| LoadProfile {
        mix: RequestMix::single(RequestClass::HotPairs {
            universe: 1024,
            zipf_s,
        }),
        update_volume: 20,
        ..updates_profile()
    };
    println!("-- result cache under Zipf hot-pair traffic (DCH, universe 1024) --");
    println!(
        "{:>8} {:>12} {:>14} {:>10}",
        "zipf s", "cache", "pairs/s", "hit rate"
    );
    let mut maintainer = AlgorithmKind::Dch.build(&road, &BuildParams::default());
    let mut current = road.clone();
    for s in [0.0, 1.2] {
        for capacity in [None, Some(256)] {
            let mut builder = RoadNetworkServer::builder()
                .maintainer(maintainer)
                .coalesce(CoalescePolicy::manual());
            if let Some(capacity) = capacity {
                builder = builder.result_cache(CacheConfig::with_capacity(capacity));
            }
            let server = builder.start(&current);
            let report = run_load(&server, &hot(s), &pool);
            current = server.with_graph(|g| g.clone());
            maintainer = server.shutdown();
            println!(
                "{:>8.1} {:>12} {:>14.0} {:>9.1}%",
                s,
                capacity
                    .map(|c| c.to_string())
                    .unwrap_or_else(|| "off".into()),
                report.pairs_per_second(),
                report.cache.map(|c| c.hit_rate() * 100.0).unwrap_or(0.0),
            );
        }
    }

    // Sharded serving tier: the same profile against a fleet — a server
    // built with `shards(k)`, so `run_load` drives it unchanged — with the
    // server's one result cache in front of every shard.
    println!("-- sharded fleet under Zipf hot-pair traffic (DCH shards, cache 256) --");
    println!(
        "{:>8} {:>12} {:>14} {:>10}",
        "shards", "bdry %", "pairs/s", "hit rate"
    );
    for shards in [2usize, 4] {
        let fleet = RoadNetworkServer::builder()
            .shards(shards)
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::manual())
            .result_cache(CacheConfig::with_capacity(256))
            .start(&road);
        let report = run_load(&fleet, &hot(1.2), &pool);
        let boundary = fleet
            .telemetry()
            .gauge("htsp_fleet_boundary_vertices")
            .get();
        let boundary_fraction = boundary as f64 / road.num_vertices() as f64;
        fleet.shutdown();
        println!(
            "{:>8} {:>12.1} {:>14.0} {:>9.1}%",
            shards,
            boundary_fraction * 100.0,
            report.pairs_per_second(),
            report.cache.map(|c| c.hit_rate() * 100.0).unwrap_or(0.0),
        );
    }
}
