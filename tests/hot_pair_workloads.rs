//! Determinism of the skewed hot-pair workload: the Zipf sampler behind
//! `RequestClass::HotPairs` is pinned, so two `RequestStream`s built from the
//! same `(mix, pool, seed, client)` produce identical query sequences — and a
//! cache driven by that stream produces identical (reproducible) hit-rate
//! telemetry. The stream does not depend on the arrival process, so the
//! sequences checked here are exactly what two same-seed `run_load` runs
//! replay, closed-loop and scheduled alike.

use htsp::graph::{gen, Query, QuerySet};
use htsp::throughput::{
    AdmissionPolicy, ArrivalProcess, CacheStats, QueryBatch, RequestClass, RequestMix,
    RequestStream,
};
use htsp::{run_load, AlgorithmKind, CacheConfig, DistanceCache, LoadProfile, RoadNetworkServer};
use std::time::Duration;

const SEED: u64 = 42;

fn road() -> htsp::graph::Graph {
    gen::grid(12, 12, gen::WeightRange::new(1, 30), 7)
}

fn pool() -> Vec<Query> {
    QuerySet::random(&road(), 256, SEED).as_slice().to_vec()
}

fn hot(zipf_s: f64, universe: usize) -> RequestMix {
    RequestMix::single(RequestClass::HotPairs { universe, zipf_s })
}

/// Replays the per-client streams of one run: `draws` queries per client,
/// round-robin interleaved (any fixed schedule works — the streams are
/// independent).
fn replay(mix: RequestMix, seed: u64, clients: usize, draws: usize) -> Vec<Query> {
    let pool = pool();
    let mut streams: Vec<RequestStream> = (0..clients)
        .map(|c| RequestStream::new(mix.clone(), &pool, seed, c))
        .collect();
    (0..clients * draws)
        .map(|i| match streams[i % clients].next_request().1 {
            QueryBatch::PointToPoint(qs) => qs[0],
            other => unreachable!("hot pairs are single point-to-point queries: {other:?}"),
        })
        .collect()
}

#[test]
fn two_same_seed_runs_produce_identical_query_streams() {
    let a = replay(hot(1.2, 128), SEED, 3, 2000);
    let b = replay(hot(1.2, 128), SEED, 3, 2000);
    assert_eq!(a, b, "same seed must replay the same hot-pair stream");
    // A different seed decorrelates.
    let c = replay(hot(1.2, 128), SEED + 1, 3, 2000);
    assert_ne!(a, c, "different seeds must not collide");
    // Clients are decorrelated substreams of one seed.
    let client = |c| {
        let mut s = RequestStream::new(hot(1.2, 128), &pool(), SEED, c);
        (0..500)
            .map(|_| format!("{:?}", s.next_request()))
            .collect::<Vec<_>>()
    };
    assert_ne!(
        client(0),
        client(1),
        "clients must draw decorrelated substreams"
    );
}

#[test]
fn closed_and_scheduled_runs_replay_the_same_stream() {
    // One client, a cache larger than the universe, no updates: the run's
    // cache misses are the distinct pairs of the stream's first
    // `answered` draws — under either arrival process.
    let g = road();
    let pool = pool();
    let mix = hot(1.1, 64);
    let expected_misses = |n: u64| {
        let mut s = RequestStream::new(mix.clone(), &pool, SEED, 0);
        let distinct: std::collections::HashSet<_> =
            (0..n).map(|_| s.next_request().1.pairs()[0]).collect();
        distinct.len() as u64
    };
    for arrivals in [
        ArrivalProcess::ClosedLoop,
        ArrivalProcess::Constant { rate: 2000.0 },
    ] {
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .result_cache(CacheConfig::with_capacity(4096))
            .query_workers(1)
            .admission(AdmissionPolicy::Block)
            .start(&g);
        let profile = LoadProfile {
            arrivals,
            mix: mix.clone(),
            clients: 1,
            seed: SEED,
            ..LoadProfile::closed_loop(Duration::from_millis(60))
        };
        let report = run_load(&server, &profile, &pool);
        server.shutdown();
        assert!(report.answered > 0, "{arrivals:?} answered nothing");
        assert_eq!(report.answered, report.offered);
        let cache = report.cache.expect("cache enabled");
        assert_eq!(cache.lookups(), report.answered);
        assert_eq!(
            cache.lookups() - cache.hits,
            expected_misses(report.answered),
            "{arrivals:?} did not replay the seeded stream"
        );
    }
}

/// Drives a fresh cache with the replayed stream the way a serving loop
/// would (lookup, fill on miss) and returns the telemetry.
fn drive_cache(stream: &[Query], capacity: usize) -> CacheStats {
    let cache = DistanceCache::new(CacheConfig {
        capacity,
        shards: 4,
    });
    for q in stream {
        if cache.get(q.source, q.target, 3).is_none() {
            cache.insert(q.source, q.target, 3, htsp::graph::Dist(17));
        }
    }
    cache.stats()
}

#[test]
fn hit_rate_telemetry_is_reproducible() {
    let stream = replay(hot(1.1, 128), SEED, 2, 3000);
    let a = drive_cache(&stream, 32);
    let b = drive_cache(&stream, 32);
    assert_eq!(a, b, "same stream, same cache → same telemetry");
    assert!(a.hits > 0);
    assert_eq!(a.lookups(), stream.len() as u64);
}

#[test]
fn hit_rate_grows_with_skew() {
    // Pinned deterministically: at a capacity below the universe, more skew
    // → more of the mass fits → a higher hit rate.
    let mut last = -1.0f64;
    for zipf_s in [0.0, 0.8, 1.4] {
        let stream = replay(hot(zipf_s, 192), SEED, 2, 4000);
        let rate = drive_cache(&stream, 24).hit_rate();
        assert!(
            rate > last,
            "hit rate must grow with skew: s={zipf_s} gave {rate} after {last}"
        );
        last = rate;
    }
}
