//! Correctness contract of the partition-sharded serving tier: every fleet
//! answer — local or cross-shard, for every algorithm of the registry —
//! must equal a global Dijkstra run on the serving view's own graph,
//! including while racing update batches are mid-maintenance, and a
//! ticket's `wait_visible` must give read-your-writes through the fleet.
//!
//! This is the sharded analogue of `tests/cross_algorithm_agreement.rs`:
//! the pinned unit is a fleet view (shard views + overlay + global graph),
//! and exactness additionally covers the boundary-detour concatenation of
//! the cross-shard query path (Theorem 2's overlay distance preservation).

use htsp::graph::{gen, EdgeUpdate, Graph, QuerySet, QueryView, UpdateGenerator};
use htsp::partition::partition_region_growing;
use htsp::search::dijkstra_distance;
use htsp::throughput::{RequestClass, RequestMix};
use htsp::{
    run_load, AlgorithmKind, BuildParams, CoalescePolicy, LoadProfile, RoadNetworkServer,
    ServerBuilder,
};
use std::time::Duration;

/// A `k`-shard fleet of `kind` under `policy`.
fn fleet(k: usize, kind: AlgorithmKind, policy: CoalescePolicy) -> ServerBuilder {
    RoadNetworkServer::builder()
        .shards(k)
        .algorithm(kind)
        .coalesce(policy)
}

/// Checks a sample of local and cross-shard pairs of `view` against
/// Dijkstra on the view's own graph.
fn assert_view_exact(view: &dyn QueryView, queries: &QuerySet, label: &str) {
    let mut session = view.session();
    for q in queries {
        let got = session.distance(q.source, q.target);
        let expect = dijkstra_distance(view.graph(), q.source, q.target);
        assert_eq!(
            got, expect,
            "{label}: d({:?}, {:?}) mismatch",
            q.source, q.target
        );
    }
}

#[test]
fn every_algorithm_is_exact_across_shards_and_updates() {
    let g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 60), 0.15, 77);
    for kind in AlgorithmKind::ALL {
        let server = fleet(3, kind, CoalescePolicy::manual()).start(&g);
        assert_eq!(server.algorithm(), format!("fleet(3x {})", kind.name()));
        assert_eq!(server.num_query_stages(), 1);
        let mut gen_upd = UpdateGenerator::new(9);
        for round in 0..3u64 {
            let view = server.snapshot();
            let queries = QuerySet::random(view.graph(), 25, 1000 + round);
            assert_view_exact(&*view, &queries, server.algorithm());

            let batch = gen_upd.generate(view.graph(), 15);
            server.feed().submit_all(batch.as_slice().iter().copied());
            server.feed().flush().wait_applied();
        }
        server.shutdown();
    }
}

#[test]
fn one_to_many_and_matrix_match_global_dijkstra() {
    let g = gen::grid(9, 9, gen::WeightRange::new(1, 30), 5);
    let server = fleet(4, AlgorithmKind::Dch, CoalescePolicy::default()).start(&g);
    let view = server.snapshot();
    let mut session = view.session();
    let queries = QuerySet::random(view.graph(), 12, 42);
    let sources: Vec<_> = queries.iter().map(|q| q.source).collect();
    let targets: Vec<_> = queries.iter().map(|q| q.target).collect();

    let fan = session.one_to_many(sources[0], &targets);
    for (&t, &d) in targets.iter().zip(&fan) {
        assert_eq!(d, dijkstra_distance(view.graph(), sources[0], t));
    }
    let m = session.matrix(&sources[..3], &targets);
    for (&s, row) in sources[..3].iter().zip(&m) {
        for (&t, &d) in targets.iter().zip(row) {
            assert_eq!(d, dijkstra_distance(view.graph(), s, t));
        }
    }
    drop(session);
    server.shutdown();
}

/// Smoke path for serving a DIMACS network: write a grid as `.gr`, load it
/// through the streaming loader, start a fleet on it, and check exactness +
/// an update round.
#[test]
fn fleet_from_dimacs_serves_exactly() {
    use htsp::graph::dimacs::{load_dimacs_streaming_file, write_gr_file};
    let g = gen::grid(6, 6, gen::WeightRange::new(1, 20), 17);
    let dir = std::env::temp_dir().join("htsp_fleet_dimacs_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("grid.gr");
    write_gr_file(&g, &path).unwrap();

    let loaded = load_dimacs_streaming_file(&path).expect("readable fixture");
    std::fs::remove_file(&path).ok();
    let server = fleet(2, AlgorithmKind::Dch, CoalescePolicy::default()).start(&loaded);
    assert_eq!(server.algorithm(), "fleet(2x DCH)");
    let view = server.snapshot();
    assert_eq!(view.graph().num_vertices(), g.num_vertices());
    let queries = QuerySet::random(view.graph(), 15, 3);
    assert_view_exact(&*view, &queries, "from_dimacs");

    let batch = UpdateGenerator::new(1).generate(view.graph(), 10);
    server.feed().submit_all(batch.as_slice().iter().copied());
    server.feed().flush().wait_applied();
    let after = server.snapshot();
    let queries = QuerySet::random(after.graph(), 15, 4);
    assert_view_exact(&*after, &queries, "from_dimacs after updates");
    server.shutdown();

    // The error path surfaces cleanly too.
    assert!(load_dimacs_streaming_file(dir.join("missing.gr")).is_err());
}

/// A pinned view must stay exact on *its* graph even while racing batches
/// are being repaired underneath it, and every ticket's `wait_visible` must
/// mean a fresh view carries the update.
#[test]
fn pinned_epochs_stay_exact_under_racing_updates() {
    let g = gen::grid(12, 12, gen::WeightRange::new(2, 50), 21);
    let server = fleet(4, AlgorithmKind::Dch, CoalescePolicy::by_size(8)).start(&g);

    let mut gen_upd = UpdateGenerator::new(3);
    // Pin a view on the pre-update state, then submit while querying.
    let pinned = server.snapshot();
    let pinned_version = server.publisher().version();
    let batch = gen_upd.generate(pinned.graph(), 64);
    let tickets = server.feed().submit_all(batch.as_slice().iter().copied());
    let queries = QuerySet::random(pinned.graph(), 30, 7);
    assert_view_exact(&*pinned, &queries, "pinned mid-maintenance");

    for (ticket, update) in tickets.iter().zip(batch.iter()) {
        let vis = ticket.wait_visible();
        assert!(vis.version > pinned_version);
        assert_eq!(
            server.snapshot().graph().edge_weight(update.edge),
            update.new_weight,
            "update on edge {:?} not visible after wait_visible",
            update.edge
        );
    }
    server.feed().flush().wait_applied();
    // The pinned view still answers on its own, older weights.
    assert_view_exact(&*pinned, &queries, "pinned after maintenance");

    // A fresh view sees the fully updated weights.
    let fresh = server.snapshot();
    let queries = QuerySet::random(fresh.graph(), 30, 8);
    assert_view_exact(&*fresh, &queries, "post-update view");
    server.shutdown();
}

/// Updating *every* edge of the graph exercises both routing classes:
/// intra-partition updates (owned by one shard) and inter-partition updates
/// (owned by the overlay alone) — and the fleet must stay exact afterwards.
#[test]
fn intra_and_inter_partition_updates_are_served_exactly() {
    let g = gen::grid(8, 8, gen::WeightRange::new(2, 20), 11);
    let (k, params) = (4, BuildParams::default());
    let server = fleet(k, AlgorithmKind::BiDijkstra, CoalescePolicy::manual())
        .build_params(params)
        .start(&g);
    // The fleet partitions with region growing under the build seed; the
    // same call classifies every edge as intra- or inter-partition.
    let partition = partition_region_growing(&g, k, params.seed);
    let updates: Vec<EdgeUpdate> = g
        .edges()
        .map(|(e, _, _, w)| EdgeUpdate::new(e, w, w + 5))
        .collect();
    let (intra, inter): (Vec<&EdgeUpdate>, Vec<&EdgeUpdate>) = updates.iter().partition(|u| {
        let (a, b) = g.edge_endpoints(u.edge);
        partition.same_partition(a, b)
    });
    assert!(
        !intra.is_empty(),
        "a 4-shard grid has intra-partition edges"
    );
    assert!(
        !inter.is_empty(),
        "a 4-shard grid has inter-partition edges"
    );

    let tickets = server.feed().submit_all(updates.iter().copied());
    server.feed().flush();
    for (ticket, u) in tickets.iter().zip(&updates) {
        ticket.wait_visible();
        assert_eq!(server.snapshot().graph().edge_weight(u.edge), u.new_weight);
    }
    server.feed().wait_idle();

    let after = server.snapshot();
    let queries = QuerySet::random(after.graph(), 20, 13);
    assert_view_exact(&*after, &queries, "after full-graph update");
    server.shutdown();
}

/// Read-your-writes through the fleet: after a ticket's `wait_visible`
/// returns, a fresh snapshot carries the update's new weight and answers
/// exactly on it — for shard-only updates too, which are visible on their
/// shard before the overlay and the other shards are repaired.
#[test]
fn wait_visible_gives_read_your_writes_through_the_fleet() {
    let g = gen::grid_with_diagonals(16, 16, gen::WeightRange::new(2, 60), 0.15, 5);
    let server = fleet(4, AlgorithmKind::PostMhl, CoalescePolicy::by_size(64)).start(&g);
    let mut gen_upd = UpdateGenerator::new(17);
    for round in 0..2u64 {
        let current: Graph = server.with_graph(|g| g.clone());
        let batch = gen_upd.generate(&current, 200);
        let tickets = server.feed().submit_all(batch.as_slice().iter().copied());
        server.feed().flush();
        let probes = QuerySet::random(&current, tickets.len(), 50 + round);
        for ((ticket, update), probe) in tickets.iter().zip(batch.iter()).zip(&probes) {
            ticket.wait_visible();
            let view = server.snapshot();
            assert_eq!(
                view.graph().edge_weight(update.edge),
                update.new_weight,
                "round {round}: edge {:?} not visible after wait_visible",
                update.edge
            );
            let (a, _) = view.graph().edge_endpoints(update.edge);
            let mut session = view.session();
            for (s, t) in [(a, probe.target), (probe.source, probe.target)] {
                assert_eq!(
                    session.distance(s, t),
                    dijkstra_distance(view.graph(), s, t),
                    "round {round}: d({s:?}, {t:?}) after wait_visible"
                );
            }
        }
        server.feed().wait_idle();
    }
    server.shutdown();
}

/// A fleet's snapshot file names the fleet as its algorithm, which no
/// single server can restart: the restart is a typed error, not a panic.
#[test]
fn a_fleet_snapshot_does_not_restart_as_a_single_server() {
    let g = gen::grid(6, 6, gen::WeightRange::new(1, 20), 3);
    let server = fleet(2, AlgorithmKind::Dch, CoalescePolicy::manual()).start(&g);
    let path =
        std::env::temp_dir().join(format!("htsp_fleet_snapshot_{}.snap", std::process::id()));
    server
        .save_snapshot(&path)
        .expect("a fleet writes its snapshot");
    server.shutdown();
    let restarted = RoadNetworkServer::builder().start_from_snapshot(&path);
    std::fs::remove_file(&path).ok();
    assert!(
        restarted.is_err(),
        "a fleet snapshot restarted as one server"
    );
}

#[test]
fn closed_loop_clients_race_fleet_epochs_without_torn_answers() {
    // The load driver on a fleet: clients pin fleet views exactly as they
    // pin a single server's snapshots, and every answer of every batch
    // shape is re-derived on the pinned view's own global graph while three
    // update rounds go through the fleet's feed.
    let g = gen::grid_with_diagonals(10, 10, gen::WeightRange::new(2, 60), 0.15, 31);
    let pool = QuerySet::random(&g, 64, 5);
    let server = fleet(3, AlgorithmKind::Dch, CoalescePolicy::manual()).start(&g);
    let profile = LoadProfile {
        mix: RequestMix::new(vec![
            (RequestClass::PointToPoint { bundle: 4 }, 2.0),
            (RequestClass::OneToMany { fanout: 5 }, 1.0),
            (RequestClass::Matrix { side: 2 }, 1.0),
        ]),
        clients: 2,
        update_rounds: 3,
        update_volume: 12,
        verify: true,
        ..LoadProfile::closed_loop(Duration::from_millis(150))
    };
    let report = run_load(&server, &profile, pool.as_slice());
    assert_eq!(
        report.verify_failures, 0,
        "first failure: {:?}",
        report.first_failure
    );
    assert!(report.answered_pairs > 0);
    assert_eq!(report.target, "fleet(3x DCH)");
    assert_eq!(report.timelines.len(), 3);
    assert_eq!(report.per_stage_pairs, vec![report.answered_pairs]);
    assert!(server.publisher().version() >= 3);
    server.shutdown();
}

#[test]
#[should_panic(expected = "cannot host a custom maintainer")]
fn shards_with_a_custom_maintainer_panic_at_start() {
    let g = gen::grid(4, 4, gen::WeightRange::new(1, 9), 1);
    let maintainer = AlgorithmKind::Dch.build(&g, &BuildParams::default());
    let _ = RoadNetworkServer::builder()
        .shards(2)
        .maintainer(maintainer)
        .start(&g);
}
