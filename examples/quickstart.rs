//! Quickstart: build a road network, index it with PostMHL, answer queries
//! through an immutable snapshot, apply a traffic update batch, and watch the
//! staged snapshots get published while the repair runs.
//!
//! Run with `cargo run --release --example quickstart`.

use htsp::core::{PostMhl, PostMhlConfig};
use htsp::graph::{gen, IndexMaintainer, QuerySet, SnapshotPublisher, UpdateGenerator};
use htsp::search::dijkstra_distance;

fn main() {
    // 1. A synthetic city: a 64x64 grid with perturbed travel times.
    let mut road = gen::grid_with_diagonals(64, 64, gen::WeightRange::new(1, 100), 0.1, 42);
    println!(
        "road network: {} intersections, {} segments",
        road.num_vertices(),
        road.num_edges()
    );

    // 2. Build the PostMHL index (the paper's best-performing method).
    let t = std::time::Instant::now();
    let mut index = PostMhl::build(&road, PostMhlConfig::default());
    println!(
        "PostMHL built in {:.2?} ({} partitions, {} overlay vertices, {:.1} MB)",
        t.elapsed(),
        index.num_partitions(),
        index.num_overlay_vertices(),
        IndexMaintainer::index_size_bytes(&index) as f64 / (1024.0 * 1024.0)
    );

    // 3. Take an immutable snapshot, open a per-thread query session on it,
    //    and answer shortest-distance queries (any number of threads could
    //    share this view, each with its own session; see the
    //    `traffic_updates` example for the concurrent engine).
    let view = index.current_view();
    let mut session = view.session();
    let queries = QuerySet::random(&road, 1000, 7);
    let t = std::time::Instant::now();
    for q in &queries {
        let d = session.query(q);
        debug_assert_eq!(d, dijkstra_distance(&road, q.source, q.target));
    }
    println!(
        "answered {} queries in {:.2?} ({:.1} µs/query)",
        queries.len(),
        t.elapsed(),
        t.elapsed().as_secs_f64() * 1e6 / queries.len() as f64
    );

    // 3b. Batch workloads on the same session: one origin against many
    //     candidate destinations, and a small distance matrix.
    let origin = queries.as_slice()[0].source;
    let destinations: Vec<_> = queries.as_slice()[..64].iter().map(|q| q.target).collect();
    let t = std::time::Instant::now();
    let fan = session.one_to_many(origin, &destinations);
    println!(
        "one-to-many: {} destinations from {} in {:.2?} (nearest at distance {})",
        destinations.len(),
        origin,
        t.elapsed(),
        fan.iter().min().unwrap()
    );
    let depots: Vec<_> = queries.as_slice()[..8].iter().map(|q| q.source).collect();
    let matrix = session.matrix(&depots, &destinations[..8]);
    println!(
        "matrix: {}x{} pairs, corner d({}, {}) = {}",
        matrix.len(),
        matrix[0].len(),
        depots[0],
        destinations[0],
        matrix[0][0]
    );
    drop(session);

    // 4. A batch of traffic updates arrives: apply it and repair the index.
    //    The publisher receives a fresh snapshot at the end of each completed
    //    update stage (Figure 1's staged availability).
    let batch = UpdateGenerator::new(1).generate(&road, 500);
    road.apply_batch(&batch);
    let publisher = SnapshotPublisher::new(index.current_view());
    let timeline = index.apply_batch(&road, &batch, &publisher);
    println!("update batch of {} edges repaired:", batch.len());
    for stage in &timeline.stages {
        println!("  {:<35} {:?}", stage.name, stage.duration);
    }
    for event in publisher.take_log() {
        println!("  snapshot published for query stage {}", event.stage);
    }

    // 5. Queries remain exact at every stage of the repair.
    let q = &queries.as_slice()[0];
    for stage in 0..index.num_query_stages() {
        let d = index.view_at_stage(stage).distance(q.source, q.target);
        println!("stage {stage}: d({}, {}) = {}", q.source, q.target, d);
    }
}
