//! Integration test for the qualitative experimental claims ("shapes") of
//! the paper — small-scale versions of its headline results that must keep
//! holding as the code evolves.

use htsp::baselines::{BiDijkstraBaseline, Dh2hBaseline};
use htsp::core::{PostMhl, PostMhlConfig};
use htsp::graph::{gen, IndexMaintainer, Query, QuerySet, QueryView};
use htsp::throughput::{lemma1_bound, staged_throughput, QueryStats};
use htsp::{run_load, LoadProfile, RoadNetworkServer};
use std::time::{Duration, Instant};

fn sample_graph() -> htsp::graph::Graph {
    gen::grid_with_diagonals(24, 24, gen::WeightRange::new(1, 80), 0.1, 5)
}

#[test]
fn indexed_queries_are_much_faster_than_bidijkstra() {
    let g = sample_graph();
    let queries = QuerySet::random(&g, 200, 3);
    let bd = BiDijkstraBaseline::new(&g);
    let h2h = Dh2hBaseline::build(&g);
    let time = |view: &dyn QueryView| {
        let t = Instant::now();
        for q in &queries {
            let _ = view.distance(q.source, q.target);
        }
        t.elapsed().as_secs_f64()
    };
    let t_bd = time(&*bd.current_view());
    let t_h2h = time(&*h2h.current_view());
    assert!(
        t_h2h < t_bd,
        "H2H queries ({t_h2h:.6}s) should beat BiDijkstra ({t_bd:.6}s)"
    );
}

#[test]
fn postmhl_final_stage_matches_h2h_speed_class() {
    // Theorem 1 / Remark 2: PostMHL's final query stage uses the same LCA
    // machinery as DH2H, so its per-query time must be in the same order of
    // magnitude (allow a generous 5x factor for measurement noise).
    let g = sample_graph();
    let queries = QuerySet::random(&g, 400, 9);
    let h2h = Dh2hBaseline::build(&g);
    let postmhl = PostMhl::build(&g, PostMhlConfig::default());
    let time = |view: &dyn QueryView| {
        let t = Instant::now();
        for q in &queries {
            let _ = view.distance(q.source, q.target);
        }
        t.elapsed().as_secs_f64() / queries.len() as f64
    };
    let t_h2h = time(&*h2h.current_view());
    let t_post = time(&*postmhl.current_view());
    assert!(
        t_post < t_h2h * 5.0,
        "PostMHL final stage ({t_post:.2e}s) should be within 5x of DH2H ({t_h2h:.2e}s)"
    );
}

#[test]
fn multi_stage_availability_increases_staged_throughput() {
    // The Figure 1 argument in model form: with identical total update time,
    // an index that can serve (even slow) queries during maintenance has a
    // strictly higher staged throughput than one that is blocked throughout.
    let staged = staged_throughput(&[(0.0, 1e-3), (2.0, 1e-5), (8.0, 1e-6)], 1e-6, 120.0);
    let blocked = staged_throughput(&[(10.0, 1e-6)], 1e-6, 120.0);
    assert!(staged > blocked);
}

#[test]
fn lemma1_on_measured_inputs_ranks_postmhl_above_bidijkstra() {
    // The paper's comparison in one line per index: Lemma 1 evaluated on
    // what a load run measured (final-stage t_q and V_q, mean t_u), at the
    // paper's defaults δt = 120 s and R*_q = 1 s.
    let g = sample_graph();
    let pool: Vec<Query> = QuerySet::random(&g, 128, 3).as_slice().to_vec();
    let profile = LoadProfile {
        clients: 2,
        update_rounds: 2,
        update_volume: 100,
        seed: 3,
        ..LoadProfile::closed_loop(Duration::from_millis(400))
    };
    let bound = |maintainer: Box<dyn IndexMaintainer>| {
        let server = RoadNetworkServer::host(&g, maintainer);
        let report = run_load(&server, &profile, &pool);
        server.shutdown();
        assert!(report.final_stage_query.mean > 0.0);
        assert!(report.mean_update_time() > 0.0);
        lemma1_bound(
            report.final_stage_query,
            report.mean_update_time(),
            120.0,
            1.0,
        )
    };
    let bd = bound(Box::new(BiDijkstraBaseline::new(&g)));
    let post = bound(Box::new(PostMhl::build(&g, PostMhlConfig::default())));
    assert!(
        post > bd,
        "PostMHL's bound {post} should exceed BiDijkstra's {bd}"
    );
}

#[test]
fn query_stats_are_finite_and_positive() {
    let stats = QueryStats::from_samples(&[1e-5, 2e-5, 3e-5]);
    assert!(stats.mean > 0.0 && stats.mean.is_finite());
    assert!(stats.variance >= 0.0);
}
