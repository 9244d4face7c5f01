//! The per-layer table: the same generated pairs and batches replayed
//! directly against each layer's public functions, each call timed from
//! outside by the benchmark's own clock.
//!
//! A layer is a crate of the program. Each figure names the call it times
//! (see `spec::LAYERS`); the README lists which end-to-end metric each one
//! should move, and on which workload.

use crate::api::{self, Graph, Update};
use crate::drive;
use crate::inputs::{Inputs, Preset};
use crate::spec;
use crate::stats;
use crate::trace::Lane;
use crate::workloads::{build_params, build_threads};
use std::path::Path;
use std::time::{Duration, Instant};

/// Batches replayed against every updatable layer (median of the three).
pub const REPLAY_BATCHES: usize = 3;
/// Time given to each per-call measurement.
const CALL_BUDGET: Duration = Duration::from_millis(40);
/// Calls per timed chunk; the per-call figure is the median chunk's.
const CHUNK: usize = 64;
/// Round trips per request shape.
const ROUND_TRIPS: usize = 200;
/// Seconds of the arrival schedule offered to the idle server.
pub const REPLAY_REQUEST_SECONDS: f64 = 2.0;

pub type Table = Vec<(String, f64)>;

/// Per-call seconds of `f` over `pairs`, as the median over chunks of
/// [`CHUNK`] calls within [`CALL_BUDGET`], plus every chunk's per-call time.
/// The pairs are walked as plain slices, so that a 10 ns call is not timed
/// together with an iterator adapter.
fn per_call(pairs: &[(u32, u32)], mut f: impl FnMut(u32, u32) -> u32) -> (f64, Vec<f64>) {
    let (mut chunks, mut sink) = (Vec::new(), 0u32);
    let begin = Instant::now();
    for chunk in pairs.chunks_exact(CHUNK).cycle() {
        let start = Instant::now();
        for &(s, t) in chunk {
            sink ^= f(s, t);
        }
        let end = Instant::now();
        chunks.push((end - start).as_secs_f64() / CHUNK as f64);
        if end - begin >= CALL_BUDGET {
            break;
        }
    }
    std::hint::black_box(sink);
    (stats::median(&chunks), chunks)
}

struct Replay<'a> {
    lane: Lane<'a>,
    table: Table,
}

impl Replay<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.table.push((name.to_string(), value));
    }

    /// Times one call as a span and returns its result and seconds.
    fn timed<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.lane.time(span, 0, 0, f)
    }
}

/// The graph after each of the first [`REPLAY_BATCHES`] batches.
fn graph_chain(initial: &Graph, batches: &[Vec<Update>]) -> Vec<Graph> {
    let mut chain = vec![initial.clone()];
    for batch in batches {
        let mut next = chain.last().expect("chain starts non-empty").clone();
        api::graph_apply_batch(&mut next, &api::prepare_batch(batch));
        chain.push(next);
    }
    chain
}

pub fn replay(
    preset: &Preset,
    initial: &Graph,
    inputs: &Inputs,
    out_dir: &Path,
    lane: Lane<'_>,
) -> Result<Table, String> {
    let mut r = Replay {
        lane,
        table: Vec::new(),
    };
    let n = api::num_vertices(initial) as f64;
    let threads = build_threads();
    let params = build_params();
    let batches = &inputs.batches[..REPLAY_BATCHES];
    let graphs = graph_chain(initial, batches);
    let (far, near) = (inputs.far_pairs(), inputs.near_pairs());

    // ---- graph
    let mut g = initial.clone();
    let apply: Vec<f64> = batches
        .iter()
        .map(|b| {
            let batch = api::prepare_batch(b);
            r.timed("graph.apply_batch", || {
                api::graph_apply_batch(&mut g, &batch)
            })
            .1 * 1e6
        })
        .collect();
    r.put("graph.apply_batch_us", stats::median(&apply));
    let gr = out_dir.join("replay.gr");
    api::write_dimacs(initial, &gr).map_err(|e| e.to_string())?;
    let (csr, load_s) = r.timed("graph.load_dimacs_streaming", || {
        api::load_dimacs_streaming(&gr)
    });
    let csr = csr?;
    r.put(
        "graph.dimacs_medges_per_s",
        api::num_edges(initial) as f64 / 1e6 / load_s,
    );
    let (_, to_graph_s) = r.timed("graph.csr_to_graph", || api::csr_to_graph(&csr));
    r.put("graph.csr_to_graph_ms", to_graph_s * 1e3);
    r.put(
        "graph.csr_bytes_per_edge",
        api::csr_heap_bytes(&csr) as f64 / api::num_edges(initial) as f64,
    );

    // ---- search
    let mut bi = api::bidijkstra_scratch(initial);
    r.put(
        "search.bidijkstra_far_us",
        per_call(&far, |s, t| api::bidijkstra(&mut bi, initial, s, t)).0 * 1e6,
    );
    r.put(
        "search.bidijkstra_near_us",
        per_call(&near, |s, t| api::bidijkstra(&mut bi, initial, s, t)).0 * 1e6,
    );
    r.put(
        "search.dijkstra_far_us",
        per_call(&far, |s, t| api::dijkstra(initial, s, t)).0 * 1e6,
    );

    // ---- ch
    let (order, order_s) = r.timed("ch.mde_order", || api::ch_order(initial));
    r.put("ch.order_ms", order_s * 1e3);
    let (_, t1_s) = r.timed("ch.contract_t1", || api::ch_contract(initial, &order, 1));
    r.put("ch.contract_t1_ms", t1_s * 1e3);
    let (ch, tn_s) = r.timed("ch.contract_tn", || {
        api::ch_contract(initial, &order, threads)
    });
    r.put("ch.contract_tn_ms", tn_s * 1e3);
    r.put("ch.arcs_per_vertex", api::ch_num_arcs(&ch) as f64 / n);
    let mut scratch = api::ch_scratch(&ch);
    r.put(
        "ch.query_far_us",
        per_call(&far, |s, t| api::ch_distance(&mut scratch, &ch, s, t)).0 * 1e6,
    );
    r.put(
        "ch.query_near_us",
        per_call(&near, |s, t| api::ch_distance(&mut scratch, &ch, s, t)).0 * 1e6,
    );
    let flat = api::ch_flatten(&ch);
    r.put(
        "ch.flat_query_far_us",
        per_call(&far, |s, t| {
            api::ch_flat_distance(&mut scratch, &flat, s, t)
        })
        .0 * 1e6,
    );
    let mut repaired = api::ch_clone(&ch);
    let (mut update_ms, mut changed) = (Vec::new(), Vec::new());
    for (batch, after) in batches.iter().zip(&graphs[1..]) {
        let (count, took) = r.timed("ch.apply_batch", || {
            api::ch_apply_batch(&mut repaired, after, batch)
        });
        update_ms.push(took * 1e3);
        changed.push(count as f64);
    }
    r.put("ch.shortcut_update_ms", stats::median(&update_ms));
    r.put("ch.shortcuts_changed_per_batch", stats::median(&changed));

    // ---- td
    let (td, decompose_s) = r.timed("td.from_hierarchy", || api::td_from_hierarchy(ch));
    r.put("td.decompose_ms", decompose_s * 1e3);
    r.put("td.height", f64::from(api::td_height(&td)));
    r.put("td.treewidth", api::td_treewidth(&td) as f64);
    r.put(
        "td.lca_ns",
        per_call(&far, |s, t| api::td_lca(&td, s, t)).0 * 1e9,
    );
    let td_again = api::td_clone(&td);
    let (_, fill1_s) = r.timed("td.label_fill_t1", || api::h2h_fill(td_again, 1));
    r.put("td.label_fill_t1_ms", fill1_s * 1e3);
    let (overlay, part_s) = r.timed("partition.td_partition", || {
        api::td_partition_overlay(&td, &params)
    });
    let (mut labels, filln_s) = r.timed("td.label_fill_tn", || api::h2h_fill(td, threads));
    r.put("td.label_fill_tn_ms", filln_s * 1e3);
    r.put(
        "td.label_bytes_per_vertex",
        api::h2h_label_bytes(&labels) as f64 / n,
    );
    r.put(
        "td.h2h_query_far_ns",
        per_call(&far, |s, t| api::h2h_distance(&labels, s, t)).0 * 1e9,
    );
    r.put(
        "td.h2h_query_near_ns",
        per_call(&near, |s, t| api::h2h_distance(&labels, s, t)).0 * 1e9,
    );
    let encoded = api::h2h_encode(&labels);
    let (decoded, decode_s) = r.timed("td.label_decode", || api::h2h_decode(&encoded));
    decoded?;
    r.put("td.label_decode_ms", decode_s * 1e3);
    let (mut label_ms, mut recomputed) = (Vec::new(), Vec::new());
    for (batch, after) in batches.iter().zip(&graphs[1..]) {
        let (report, _) = r.timed("td.h2h_apply_batch", || {
            api::h2h_apply_batch(&mut labels, after, batch)
        });
        label_ms.push(report.label_time.as_secs_f64() * 1e3);
        recomputed.push(report.labels_recomputed as f64);
    }
    r.put("td.label_update_ms", stats::median(&label_ms));
    r.put("td.labels_recomputed_per_batch", stats::median(&recomputed));

    // ---- partition
    let (boundary_share, grow_s) = r.timed("partition.region_growing", || {
        api::partition_boundary_share(initial, 8)
    });
    r.put("partition.region_growing_ms", grow_s * 1e3);
    r.put("partition.boundary_share", boundary_share);
    r.put("partition.td_partition_ms", part_s * 1e3);
    r.put("partition.td_overlay_vertices", overlay as f64);

    // ---- the ladder: every kind once; PostMHL in more detail
    let mut final_stage_times = Vec::new();
    let mut bare_update_ms = Vec::new();
    for (kind, (prefix, table_name)) in api::all_kinds().into_iter().zip(spec::LADDER) {
        assert_eq!(api::kind_name(kind), table_name, "ladder order");
        let (mut index, build_s) =
            r.timed("ladder.build", || api::build_index(kind, initial, &params));
        let pinned = api::current_view(&index);
        let mut session = api::open_session(&pinned);
        let (query_s, chunks) = per_call(&inputs.pairs, |s, t| session.distance(s, t));
        drop(session);
        let postmhl = kind == api::POSTMHL;
        if postmhl {
            final_stage_times = chunks;
            let stages = api::num_query_stages(&index);
            for (stage, name, scale) in [
                (0, "core.postmhl.q_stage0_us", 1e6),
                (1, "core.postmhl.q_stage1_us", 1e6),
                (2, "core.postmhl.q_stage2_ns", 1e9),
                (3, "core.postmhl.q_stage3_ns", 1e9),
            ] {
                let view = api::view_at_stage(&index, stage.min(stages - 1));
                let mut session = api::open_session(&view);
                r.put(
                    name,
                    per_call(&far, |s, t| session.distance(s, t)).0 * scale,
                );
            }
            let view = api::current_view(&index);
            let mut session = api::open_session(&view);
            r.put(
                "core.postmhl.q_final_near_ns",
                per_call(&near, |s, t| session.distance(s, t)).0 * 1e9,
            );
        }
        // One bare apply_batch for every kind; all three for PostMHL, whose
        // stages are the core layer's update metrics.
        let replayed = if postmhl { batches.len() } else { 1 };
        let mut stage_ms: Vec<Vec<f64>> = Vec::new();
        let mut outer_ms = Vec::new();
        for (batch, after) in batches.iter().zip(&graphs[1..]).take(replayed) {
            let prepared = api::prepare_batch(batch);
            let (stages, took) = r.timed("ladder.apply_batch", || {
                api::index_apply_batch(&mut index, after, &prepared)
            });
            outer_ms.push(took * 1e3);
            stage_ms.resize(stage_ms.len().max(stages.len()), Vec::new());
            for (slot, (_, d)) in stage_ms.iter_mut().zip(&stages) {
                slot.push(d.as_secs_f64() * 1e3);
            }
        }
        let update_ms = stats::median(&outer_ms);
        if postmhl {
            for (i, name) in ["u1_ms", "u2_ms", "u3_ms", "u4_ms", "u5_ms"]
                .iter()
                .enumerate()
            {
                let ms = stage_ms.get(i).map_or(0.0, |v| stats::median(v));
                r.put(&format!("core.postmhl.{name}"), ms);
            }
            // The stages the program reports must account for the time the
            // benchmark measured around the call: batch by batch, so that one
            // batch the host interrupted between the two clocks is outvoted.
            let gaps: Vec<f64> = outer_ms
                .iter()
                .enumerate()
                .map(|(b, outer)| {
                    let staged: f64 = stage_ms.iter().filter_map(|stage| stage.get(b)).sum();
                    (staged - outer).abs() / outer
                })
                .collect();
            if stats::median(&gaps) > 0.05 {
                return Err(format!(
                    "PostMHL stages do not sum to the time apply_batch took: off by {gaps:.3?} of it"
                ));
            }
            bare_update_ms = outer_ms;
        }
        let state = api::index_state_bytes(&index);
        let current = &graphs[replayed];
        let (restored, restart_s) = r.timed("ladder.restore", || {
            api::restore_index(kind, current, &params, state.as_deref())
        });
        let restored = restored?;
        for (suffix, value) in [
            ("build_ms", build_s * 1e3),
            ("query_us", query_s * 1e6),
            ("update_ms", update_ms),
            ("restart_ms", restart_s * 1e3),
            (
                "bytes_per_vertex",
                api::index_size_bytes(&restored) as f64 / n,
            ),
        ] {
            if spec::ladder_has(prefix, suffix) {
                r.put(&format!("{prefix}.{suffix}"), value);
            }
        }
    }

    // ---- throughput: the same batches through an otherwise idle server
    let server = api::start_server(initial, api::POSTMHL, &params, 1);
    let opened: Vec<f64> = (0..ROUND_TRIPS)
        .map(|_| {
            let start = Instant::now();
            let pinned = api::pin_snapshot(&server);
            let session = api::open_session(&pinned);
            let took = start.elapsed().as_secs_f64() * 1e6;
            drop(session);
            took
        })
        .collect();
    r.put("throughput.session_open_us", stats::median(&opened));
    let pool = &inputs.pairs;
    let shaped = |i: usize, shape: usize| -> api::Request {
        let at = |k: usize| pool[(i * 64 + k) % pool.len()];
        match shape {
            0 => api::Request::PointToPoint(vec![at(0)]),
            1 => api::Request::PointToPoint((0..16).map(at).collect()),
            2 => api::Request::OneToMany {
                source: at(0).0,
                targets: (0..64).map(|k| at(k).1).collect(),
            },
            _ => api::Request::Matrix {
                sources: (0..8).map(|k| at(k).0).collect(),
                targets: (0..8).map(|k| at(k).1).collect(),
            },
        }
    };
    for (shape, name) in [
        "throughput.service_roundtrip_us",
        "throughput.p2p_p50_us",
        "throughput.one_to_many_p50_us",
        "throughput.matrix_p50_us",
    ]
    .iter()
    .enumerate()
    {
        let mut trips = Vec::with_capacity(ROUND_TRIPS);
        for i in 0..ROUND_TRIPS {
            let request = api::prepare_request(&shaped(i, shape));
            let start = Instant::now();
            let answered = api::wait_answer(&api::submit_request(&server, request));
            let end = Instant::now();
            r.lane
                .record("throughput.round_trip", 0, i as u64, start, end);
            if answered.is_none() {
                return Err("an idle service discarded a request".to_string());
            }
            trips.push((end - start).as_secs_f64() * 1e6);
        }
        r.put(name, stats::median(&trips));
    }
    // The arrival schedule against the idle server: how deep the queue gets
    // and how late the generator runs with no repair in the way.
    let load = drive::open_loop_generator(
        &server,
        &inputs.requests,
        Instant::now(),
        preset.update_interval_s,
        &mut r.lane,
    );
    if !load.lost.is_empty() {
        return Err("an idle service discarded a request".to_string());
    }
    let mut lateness = load.lateness_us;
    stats::sort(&mut lateness);
    r.put(
        "throughput.queue_depth_max",
        api::service_max_queue_depth(&server) as f64,
    );
    r.put(
        "throughput.gen_lateness_p99_us",
        stats::percentile_sorted(&lateness, 0.99),
    );
    api::take_publication_log(&server);
    let final_stage = api::server_num_query_stages(&server) - 1;
    let mut slow_s = Vec::new();
    let records: Vec<drive::BatchRecord> = batches
        .iter()
        .enumerate()
        .map(|(k, b)| {
            let record = drive::run_batch(&server, b, k as u64, &mut r.lane);
            let log = api::take_publication_log(&server);
            let first = log.first().map(|e| e.0);
            let done = log.iter().find(|e| e.1 >= final_stage).map(|e| e.0);
            if let (Some(first), Some(done)) = (first, done) {
                slow_s.push((done - first).as_secs_f64());
            }
            record
        })
        .collect();
    let med = |f: fn(&drive::BatchRecord) -> f64| {
        stats::median(&records.iter().map(f).collect::<Vec<_>>())
    };
    let applied_ms = med(|b| b.applied_ms);
    r.put("graph.cow_bytes_per_batch", med(|b| b.cow_bytes as f64));
    r.put("throughput.submit_us", med(|b| b.submit_us));
    r.put("throughput.update_visible_ms", med(|b| b.visible_ms));
    r.put("throughput.flush_to_apply_ms", med(|b| b.flush_to_apply_ms));
    r.put(
        "throughput.server_update_overhead_ms",
        applied_ms - stats::median(&bare_update_ms),
    );
    r.put(
        "throughput.final_stage_share",
        (1.0 - stats::median(&slow_s) / preset.update_interval_s).max(0.0),
    );
    r.put(
        "throughput.lemma1_qps",
        api::lemma1_qps(
            &final_stage_times,
            applied_ms / 1e3,
            preset.update_interval_s,
            preset.slo_ms / 1e3,
        ),
    );
    api::shutdown(server);

    // ---- graph: reading a snapshot with a large state section
    let server = api::start_server(initial, api::DH2H, &params, 0);
    let snap = out_dir.join("replay-dh2h.snap");
    api::save_snapshot(&server, &snap)?;
    api::shutdown(server);
    let (read, read_s) = r.timed("graph.snapshot_read", || api::snapshot_read(&snap));
    read?;
    r.put("graph.snapshot_read_ms", read_s * 1e3);

    Ok(r.table)
}
