//! The benchmark's contract in one place: workloads, end-to-end metrics with
//! their bounds, and per-layer metrics with their layer. `BENCHMARK.json` at
//! the repository root is generated from these tables (`print-spec`), and a
//! unit test fails when the two drift apart.

use crate::json::Json;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        name: "steady_point",
        why: "No updates in the window: only the query layers (td label scan + LCA, core dispatch) work, so a maintenance or service change must show no change in qps here.",
    },
    WorkloadSpec {
        name: "serve_under_updates",
        why: "The paper's headline: the same client beside an open schedule of update batches; maintenance (ch, td, core U-stages, graph COW/publish) decides how long queries sit on slow stages.",
    },
    WorkloadSpec {
        name: "open_loop_mixed",
        why: "Poisson arrivals of mixed batch shapes through the service queue, timed from the scheduled arrival, beside the same updates: the backlog a waiting client never builds.",
    },
    WorkloadSpec {
        name: "build_restart",
        why: "Cold start, snapshot and warm restart of DCH, DH2H and PostMHL in cycles after a DIMACS ingest: construction, partitioning, storage and snapshot codecs do the work, serving little.",
    },
];

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
    /// What is measured and how it is estimated.
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound,
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: 0.0,
        what,
    }
}

use Better::{Higher, Lower};

/// Every workload reports every one of these (the contract's rule), each
/// under that workload's own conditions; see the README's table.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e("setup_s", "s", Lower, 0.25, "median of the run's set-ups (two per round): dataset (generated; a DIMACS ingest for build_restart) + PostMHL server cold start + input generation + warm-up"),
    e2e("qps", "queries/s", Higher, 0.25, "distance answers per second, per counted reporting interval (an update interval; a query slice of a build_restart cycle); median over the run's intervals"),
    e2e("slo_ok_share", "share", Higher, 0.25, "requests answered within the limit R* (1 ms on grid64) / requests offered, over all counted intervals of the run. A request is a block of 256 closed-loop queries, or one open-loop request timed from its scheduled arrival"),
    e2e("update_applied_ms", "ms", Lower, 0.25, "flush() to wait_applied() returning; median over the run's batches (build_restart: per kind, summed over DCH, DH2H, PostMHL)"),
    e2e("build_s", "s", Lower, 0.25, "PostMHL server cold start; median over the run's set-ups (build_restart: over cycles per kind, summed over the three kinds)"),
    e2e("restart_s", "s", Lower, 0.25, "start_from_snapshot; median over the run's restarts, two on either side of each window (build_restart: over cycles per kind, summed over the three kinds)"),
    e2e("index_bytes_per_vertex", "B", Lower, 0.01, "PostMHL index_size_bytes() / V; repeats exactly"),
    e2e("snapshot_bytes_per_vertex", "B", Lower, 0.01, "snapshot file bytes / V (build_restart: summed over the three kinds); repeats exactly"),
];

/// The nine kinds of the ladder, as `(metric prefix, table name)`.
pub const LADDER: [(&str, &str); 9] = [
    ("baselines.bidijkstra", "BiDijkstra"),
    ("baselines.dch", "DCH"),
    ("baselines.dh2h", "DH2H"),
    ("baselines.toain", "TOAIN"),
    ("psp.nchp", "N-CH-P"),
    ("psp.ptdp", "P-TD-P"),
    ("core.mhl", "MHL"),
    ("core.pmhl", "PMHL"),
    ("core.postmhl", "PostMHL"),
];

/// `(suffix, unit, better)` of the ladder's columns. BiDijkstra has no index,
/// so it reports only the query and update columns.
pub const LADDER_COLUMNS: [(&str, &str, Better); 5] = [
    ("build_ms", "ms", Lower),
    ("query_us", "us", Lower),
    ("update_ms", "ms", Lower),
    ("restart_ms", "ms", Lower),
    ("bytes_per_vertex", "B", Lower),
];

pub fn ladder_has(prefix: &str, suffix: &str) -> bool {
    prefix != "baselines.bidijkstra" || matches!(suffix, "query_us" | "update_ms")
}

/// Per-layer metrics outside the ladder; the layer is the name's prefix.
pub const LAYERS: [MetricSpec; 61] = [
    layer(
        "graph.apply_batch_us",
        "us",
        Lower,
        "Graph::apply_batch of one 200-edge batch",
    ),
    layer(
        "graph.cow_bytes_per_batch",
        "B",
        Lower,
        "UpdateOutcome.cow.bytes_cloned of a server batch",
    ),
    layer(
        "graph.dimacs_medges_per_s",
        "Medges/s",
        Higher,
        "load_dimacs_streaming_file rate",
    ),
    layer("graph.csr_to_graph_ms", "ms", Lower, "CsrGraph::to_graph"),
    layer(
        "graph.snapshot_read_ms",
        "ms",
        Lower,
        "IndexSnapshot::read_from of a DH2H snapshot",
    ),
    layer(
        "graph.csr_bytes_per_edge",
        "B",
        Lower,
        "CsrGraph::heap_bytes().total() / E",
    ),
    layer(
        "search.bidijkstra_far_us",
        "us",
        Lower,
        "BiDijkstra::distance, far pairs",
    ),
    layer(
        "search.bidijkstra_near_us",
        "us",
        Lower,
        "BiDijkstra::distance, near pairs",
    ),
    layer(
        "search.dijkstra_far_us",
        "us",
        Lower,
        "dijkstra_distance (the oracle's cost), far pairs",
    ),
    layer("ch.order_ms", "ms", Lower, "mde_order"),
    layer(
        "ch.contract_t1_ms",
        "ms",
        Lower,
        "ContractionHierarchy::build_pooled, pool of 1",
    ),
    layer("ch.contract_tn_ms", "ms", Lower, "the same, pool of T"),
    layer(
        "ch.query_far_us",
        "us",
        Lower,
        "ChQuery::distance, far pairs",
    ),
    layer(
        "ch.query_near_us",
        "us",
        Lower,
        "ChQuery::distance, near pairs",
    ),
    layer(
        "ch.flat_query_far_us",
        "us",
        Lower,
        "ChQuery::distance over FlatHierarchy, far pairs",
    ),
    layer(
        "ch.shortcut_update_ms",
        "ms",
        Lower,
        "ContractionHierarchy::apply_batch",
    ),
    layer(
        "ch.shortcuts_changed_per_batch",
        "count",
        Lower,
        "shortcuts whose weight changed",
    ),
    layer("ch.arcs_per_vertex", "count", Lower, "upward arcs / V"),
    layer(
        "td.decompose_ms",
        "ms",
        Lower,
        "TreeDecomposition::from_hierarchy",
    ),
    layer(
        "td.label_fill_t1_ms",
        "ms",
        Lower,
        "H2HIndex::from_decomposition_pooled, pool of 1",
    ),
    layer("td.label_fill_tn_ms", "ms", Lower, "the same, pool of T"),
    layer(
        "td.lca_ns",
        "ns",
        Lower,
        "TreeDecomposition::lca, far pairs",
    ),
    layer(
        "td.h2h_query_far_ns",
        "ns",
        Lower,
        "H2HIndex::distance, far pairs",
    ),
    layer(
        "td.h2h_query_near_ns",
        "ns",
        Lower,
        "H2HIndex::distance, near pairs",
    ),
    layer(
        "td.label_update_ms",
        "ms",
        Lower,
        "H2HUpdateReport.label_time",
    ),
    layer(
        "td.labels_recomputed_per_batch",
        "count",
        Lower,
        "H2HUpdateReport.labels_recomputed",
    ),
    layer("td.height", "count", Lower, "tree height"),
    layer("td.treewidth", "count", Lower, "largest bag"),
    layer(
        "td.label_bytes_per_vertex",
        "B",
        Lower,
        "label entries x 4 B / V",
    ),
    layer(
        "td.label_decode_ms",
        "ms",
        Lower,
        "H2HIndex::from_snapshot_bytes",
    ),
    layer(
        "partition.region_growing_ms",
        "ms",
        Lower,
        "partition_region_growing, k = 8",
    ),
    layer(
        "partition.boundary_share",
        "share",
        Lower,
        "boundary vertices / V, k = 8",
    ),
    layer(
        "partition.td_partition_ms",
        "ms",
        Lower,
        "td_partition with PostMHL's configuration",
    ),
    layer(
        "partition.td_overlay_vertices",
        "count",
        Lower,
        "vertices left in the overlay",
    ),
    layer(
        "core.postmhl.q_stage0_us",
        "us",
        Lower,
        "view_at_stage(0) session, far pairs",
    ),
    layer(
        "core.postmhl.q_stage1_us",
        "us",
        Lower,
        "view_at_stage(1) session, far pairs",
    ),
    layer(
        "core.postmhl.q_stage2_ns",
        "ns",
        Lower,
        "view_at_stage(2) session, far pairs",
    ),
    layer(
        "core.postmhl.q_stage3_ns",
        "ns",
        Lower,
        "view_at_stage(3) session, far pairs",
    ),
    layer(
        "core.postmhl.q_final_near_ns",
        "ns",
        Lower,
        "final-stage session, near pairs",
    ),
    layer(
        "core.postmhl.u1_ms",
        "ms",
        Lower,
        "UpdateTimeline stage 1 of a bare apply_batch",
    ),
    layer(
        "core.postmhl.u2_ms",
        "ms",
        Lower,
        "stage 2 (shortcut array update)",
    ),
    layer(
        "core.postmhl.u3_ms",
        "ms",
        Lower,
        "stage 3 (overlay index update)",
    ),
    layer(
        "core.postmhl.u4_ms",
        "ms",
        Lower,
        "stage 4 (post-boundary index update)",
    ),
    layer(
        "core.postmhl.u5_ms",
        "ms",
        Lower,
        "stage 5 (cross-boundary index update)",
    ),
    layer(
        "throughput.submit_us",
        "us",
        Lower,
        "UpdateFeed::submit, per call",
    ),
    layer(
        "throughput.update_visible_ms",
        "ms",
        Lower,
        "flush() to wait_visible() returning, idle server",
    ),
    layer(
        "throughput.flush_to_apply_ms",
        "ms",
        Lower,
        "flush() to UpdateOutcome.apply_start",
    ),
    layer(
        "throughput.server_update_overhead_ms",
        "ms",
        Lower,
        "server applied time minus a bare apply_batch of the same batch",
    ),
    layer(
        "throughput.session_open_us",
        "us",
        Lower,
        "server.snapshot().session()",
    ),
    layer(
        "throughput.final_stage_share",
        "share",
        Higher,
        "share of an update interval the published view is the final stage",
    ),
    layer(
        "throughput.service_roundtrip_us",
        "us",
        Lower,
        "1-pair submit_queries on an idle server",
    ),
    layer(
        "throughput.p2p_p50_us",
        "us",
        Lower,
        "PointToPoint x16 round trip on an idle server",
    ),
    layer(
        "throughput.one_to_many_p50_us",
        "us",
        Lower,
        "OneToMany 1x64 round trip on an idle server",
    ),
    layer(
        "throughput.matrix_p50_us",
        "us",
        Lower,
        "Matrix 8x8 round trip on an idle server",
    ),
    layer(
        "throughput.queue_depth_max",
        "count",
        Lower,
        "deepest the service queue got under 2 s of the arrival schedule, idle server",
    ),
    layer(
        "throughput.gen_lateness_p99_us",
        "us",
        Lower,
        "99th percentile of how late the generator submitted, same 2 s",
    ),
    layer(
        "throughput.lemma1_qps",
        "queries/s",
        Higher,
        "lemma1_bound fed the measured final-stage query times, applied time, interval and limit",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        "1 - traced / untraced rate of the workload's window",
    ),
    layer(
        "trace.spans",
        "count",
        Lower,
        "spans recorded by the traced half of the window",
    ),
    layer(
        "host.steal_share",
        "share",
        Lower,
        "steal jiffies / total jiffies over the run",
    ),
    layer(
        "host.ref_mops",
        "Mops/s",
        Higher,
        "reference kernel after the run",
    ),
];

/// Every per-layer metric name with its unit and direction, in report order.
pub fn per_layer() -> Vec<(String, &'static str, Better)> {
    let mut all: Vec<(String, &'static str, Better)> = LAYERS
        .iter()
        .map(|m| (m.name.to_string(), m.unit, m.better))
        .collect();
    for (prefix, _) in LADDER {
        for (suffix, unit, better) in LADDER_COLUMNS {
            if ladder_has(prefix, suffix) {
                all.push((format!("{prefix}.{suffix}"), unit, better));
            }
        }
    }
    all
}

/// Prints the glossary: every metric with its unit, direction, bound and
/// what it measures.
pub fn describe() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<22} {}", w.name, w.why);
    }
    println!("end-to-end metrics (every workload reports each):");
    for m in &END_TO_END {
        println!(
            "  {:<28} {:<10} {:<7} bound {:>3.0}%  {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.what
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &LAYERS {
        println!(
            "  {:<40} {:<10} {:<7} {}",
            m.name,
            m.unit,
            m.better.as_str(),
            m.what
        );
    }
    for (prefix, table_name) in LADDER {
        let columns: Vec<&str> = LADDER_COLUMNS
            .iter()
            .filter(|c| ladder_has(prefix, c.0))
            .map(|c| c.0)
            .collect();
        println!(
            "  {prefix}.{{{}}}  ({table_name}, once each)",
            columns.join(",")
        );
    }
}

/// How long one run measures; the driver passes it back as `--seconds`.
pub const RUN_SECONDS: u32 = 20;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--quiet",
        "--release",
        "--offline",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj(vec![
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(f64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::obj(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|(name, unit, better)| {
                        Json::obj(vec![
                            ("name", Json::Str(name)),
                            ("unit", Json::str(unit)),
                            ("better", Json::str(better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        assert!(END_TO_END.len() <= 16);
        for m in &END_TO_END {
            assert!(unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            names.push(m.name.to_string());
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && setup.better == Better::Lower);
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        for (name, unit, _) in &layers {
            assert!(unit_ok(unit), "{name}");
            names.push(name.clone());
        }
        assert!(names.iter().all(|n| name_ok(n)));
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json().encode_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_the_generated_one() {
        let on_disk = include_str!("../../BENCHMARK.json");
        assert_eq!(
            Json::parse(on_disk).expect("BENCHMARK.json parses"),
            benchmark_json(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- print-spec > BENCHMARK.json"
        );
    }
}
