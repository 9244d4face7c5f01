//! Index snapshots and warm restart, end to end: every algorithm of the
//! registry saves its state through [`RoadNetworkServer::save_snapshot`],
//! restarts through [`ServerBuilder::start_from_snapshot`], and answers
//! exactly as before; corrupt snapshot files are rejected with typed
//! errors, never panics.

use htsp::core::PostMhl;
use htsp::graph::gen::{grid, WeightRange};
use htsp::graph::{
    snapshot, ByteReader, ByteWriter, Graph, IndexMaintainer, IndexSnapshot, QuerySet,
    SnapshotError, SnapshotPublisher, UpdateGenerator, VertexId,
};
use htsp::search::dijkstra_distance;
use htsp::{AlgorithmKind, BuildParams, CoalescePolicy, RoadNetworkServer};
use std::path::PathBuf;

fn temp_snapshot_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("htsp_snap_{}_{name}.snap", std::process::id()))
}

/// Saves, restores, and cross-checks one algorithm end to end.
fn round_trip(kind: AlgorithmKind) {
    let g = grid(7, 7, WeightRange::new(1, 25), 31);
    let params = BuildParams::new(2, 1);
    let server = RoadNetworkServer::builder()
        .algorithm(kind)
        .build_params(params)
        .coalesce(CoalescePolicy::manual())
        .start(&g);

    // Drift a few weights so the snapshot captures a repaired index, not
    // the pristine build.
    let mut working = g.clone();
    for i in [3usize, 17, 40] {
        let e = htsp::graph::EdgeId::from_index(i % working.num_edges());
        let old = working.edge_weight(e);
        let update = htsp::graph::EdgeUpdate::new(e, old, old + 2);
        working.apply_batch(&htsp::graph::UpdateBatch::from_updates(vec![update]));
        server.submit(update);
    }
    server.feed().flush().wait_applied();

    let queries = QuerySet::random(&working, 40, 91);
    let view = server.snapshot();
    let before: Vec<_> = queries
        .iter()
        .map(|q| view.distance(q.source, q.target))
        .collect();

    let path = temp_snapshot_path(kind.name());
    server.save_snapshot(&path).expect("save snapshot");
    server.shutdown();

    let restored = RoadNetworkServer::builder()
        .start_from_snapshot(&path)
        .expect("warm restart");
    assert_eq!(restored.algorithm(), kind.name());
    let view = restored.snapshot();
    // The restored graph carries the drifted weights.
    restored.with_graph(|rg| {
        for e in (0..rg.num_edges()).map(htsp::graph::EdgeId::from_index) {
            assert_eq!(rg.edge_weight(e), working.edge_weight(e));
        }
    });
    for (q, &expect) in queries.iter().zip(&before) {
        let got = view.distance(q.source, q.target);
        assert_eq!(
            got,
            expect,
            "{} answer drifted across restart for {q:?}",
            kind.name()
        );
        assert_eq!(
            got,
            dijkstra_distance(&working, q.source, q.target),
            "{} restored answer disagrees with Dijkstra for {q:?}",
            kind.name()
        );
    }
    restored.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn baseline_algorithms_survive_warm_restart() {
    for kind in [
        AlgorithmKind::BiDijkstra,
        AlgorithmKind::Dch,
        AlgorithmKind::Dh2h,
        AlgorithmKind::Toain,
    ] {
        round_trip(kind);
    }
}

#[test]
fn partitioned_algorithms_survive_warm_restart() {
    for kind in [AlgorithmKind::NChP, AlgorithmKind::PTdP] {
        round_trip(kind);
    }
}

#[test]
fn mhl_family_survives_warm_restart() {
    for kind in [
        AlgorithmKind::Mhl,
        AlgorithmKind::Pmhl,
        AlgorithmKind::PostMhl,
    ] {
        round_trip(kind);
    }
}

#[test]
fn corrupt_snapshot_files_are_rejected_with_typed_errors() {
    let g = grid(6, 6, WeightRange::new(1, 9), 7);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::Dch)
        .coalesce(CoalescePolicy::manual())
        .start(&g);
    let path = temp_snapshot_path("corruption");
    server.save_snapshot(&path).expect("save snapshot");
    server.shutdown();
    let clean = std::fs::read(&path).expect("read snapshot back");

    let restart = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write corrupt file");
        match RoadNetworkServer::builder().start_from_snapshot(&path) {
            Ok(_) => panic!("corrupt snapshot must be rejected"),
            Err(err) => err,
        }
    };

    // Wrong magic.
    let mut bad = clean.clone();
    bad[0] = b'X';
    assert!(matches!(restart(&bad), SnapshotError::BadMagic));

    // Unsupported format version.
    let mut bad = clean.clone();
    bad[8] = 0xFF;
    assert!(matches!(
        restart(&bad),
        SnapshotError::UnsupportedVersion { found, .. } if found != 0
    ));

    // Bit rot in the payload trips the checksum.
    let mut bad = clean.clone();
    let mid = clean.len() / 2;
    bad[mid] ^= 0x40;
    assert!(matches!(
        restart(&bad),
        SnapshotError::ChecksumMismatch { .. }
    ));

    // Truncation at a few representative points (header, payload, tail).
    for cut in [4, 20, clean.len() / 2, clean.len() - 3] {
        let err = restart(&clean[..cut]);
        assert!(
            matches!(err, SnapshotError::Truncated { .. }),
            "truncation at {cut} gave {err:?}"
        );
    }

    // The pristine file still restores after all that.
    std::fs::write(&path, &clean).expect("restore clean file");
    let server = RoadNetworkServer::builder()
        .start_from_snapshot(&path)
        .expect("clean snapshot restores");
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn snapshot_state_with_wrong_algorithm_name_is_rejected() {
    let g = grid(5, 5, WeightRange::new(1, 9), 3);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::Dch)
        .coalesce(CoalescePolicy::manual())
        .start(&g);
    let path = temp_snapshot_path("bad_name");
    server.save_snapshot(&path).expect("save snapshot");
    server.shutdown();

    // Rewrite the algorithm name to something unknown; the checksum is
    // recomputed so only the registry lookup can fail.
    let mut snap = IndexSnapshot::read_from(&path).expect("reparse");
    snap.algorithm = "NotAnAlgorithm".to_string();
    snap.write_to(&path).expect("rewrite");
    let err = match RoadNetworkServer::builder().start_from_snapshot(&path) {
        Ok(_) => panic!("unknown algorithm must be rejected"),
        Err(err) => err,
    };
    assert!(matches!(err, SnapshotError::Malformed(_)), "got {err:?}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn storage_gauges_are_registered_and_refreshable() {
    let g = grid(6, 6, WeightRange::new(1, 9), 5);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::Dh2h)
        .coalesce(CoalescePolicy::manual())
        .start(&g);
    let parts = server.refresh_storage_gauges();
    assert!(parts.iter().any(|&(c, _)| c == "graph"));
    assert!(parts.iter().any(|&(c, _)| c == "h2h_labels"));
    assert!(parts.iter().all(|&(_, bytes)| bytes > 0));
    let prom = server.telemetry().export_prometheus();
    assert!(
        prom.contains("htsp_storage_bytes{component=\"graph\"}"),
        "missing graph storage gauge in:\n{prom}"
    );
    assert!(prom.contains("htsp_storage_bytes{component=\"h2h_labels\"}"));
    server.shutdown();
}

/// Extracts the value of `htsp_storage_bytes{component="<component>"}` from a
/// Prometheus export.
fn storage_gauge_value(prom: &str, component: &str) -> u64 {
    let needle = format!("htsp_storage_bytes{{component=\"{component}\"}}");
    prom.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("missing {needle} in:\n{prom}"))
        .trim()
        .parse()
        .expect("gauge value parses")
}

#[test]
fn storage_gauges_are_correct_immediately_after_warm_restart() {
    let g = grid(7, 7, WeightRange::new(1, 25), 9);
    let server = RoadNetworkServer::builder()
        .algorithm(AlgorithmKind::Dh2h)
        .coalesce(CoalescePolicy::manual())
        .start(&g);
    let path = temp_snapshot_path("gauge_gap");
    server.save_snapshot(&path).expect("save snapshot");
    server.shutdown();

    let restored = RoadNetworkServer::builder()
        .start_from_snapshot(&path)
        .expect("warm restart");
    // Regression: the gauges must already be correct *before* any explicit
    // refresh — start_from_snapshot re-measures the restored index itself.
    let prom = restored.telemetry().export_prometheus();
    let restored_graph_bytes = restored.with_graph(|rg| rg.heap_size_bytes()) as u64;
    assert_eq!(
        storage_gauge_value(&prom, "graph"),
        restored_graph_bytes,
        "graph gauge stale after warm restart"
    );
    // An independent re-measurement must agree with what the export showed.
    for (component, bytes) in restored.refresh_storage_gauges() {
        assert_eq!(
            storage_gauge_value(&prom, component),
            bytes as u64,
            "{component} gauge stale after warm restart"
        );
        assert!(bytes > 0, "{component} measured empty");
    }
    restored.shutdown();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_restart_that_rebuilt_exports_build_telemetry() {
    let g = grid(7, 7, WeightRange::new(1, 25), 9);
    for (kind, rebuilds) in [(AlgorithmKind::PostMhl, true), (AlgorithmKind::Dch, false)] {
        let server = RoadNetworkServer::builder()
            .algorithm(kind)
            .build_params(BuildParams::new(2, 1))
            .coalesce(CoalescePolicy::manual())
            .start(&g);
        let path = temp_snapshot_path(&format!("build_telemetry_{kind}"));
        server.save_snapshot(&path).expect("save snapshot");
        server.shutdown();

        let restored = RoadNetworkServer::builder()
            .start_from_snapshot(&path)
            .expect("warm restart");
        let prom = restored.telemetry().export_prometheus();
        // PostMHL stores only its elimination order, so its restart paid a
        // customization and a label fill, and reports the fill's stage from
        // the pool it ran on; DCH decoded its state and built nothing.
        assert_eq!(
            prom.contains("htsp_build_total_micros"),
            rebuilds,
            "{kind} restart, build telemetry in:\n{prom}"
        );
        let fill_stage = prom.lines().any(|line| {
            line.starts_with("htsp_build_stage_micros")
                && line.contains(&format!("algorithm=\"{kind}\""))
                && line.contains("stage=\"h2h_label_fill\"")
        });
        assert_eq!(
            fill_stage, rebuilds,
            "{kind} restart, fill stage in:\n{prom}"
        );
        restored.shutdown();
        let _ = std::fs::remove_file(&path);
    }
}

/// Every strict prefix of `bytes` fails, and every single-byte flip (three
/// masks per byte) either fails or decodes to a value that re-encodes to the
/// flipped bytes. A panic anywhere fails the test. Where `flips_can_decode`,
/// some flip must decode: the sweep reached the decoder's success path.
fn sweep_decoder<T>(
    name: &str,
    flips_can_decode: bool,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, SnapshotError>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    let back = decode(bytes).unwrap_or_else(|e| panic!("{name}: clean bytes fail: {e}"));
    assert_eq!(encode(&back), bytes, "{name}: round trip");
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "{name}: prefix of {cut} bytes decoded"
        );
    }
    let mut accepted = 0;
    for at in 0..bytes.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut flipped = bytes.to_vec();
            flipped[at] ^= mask;
            if let Ok(value) = decode(&flipped) {
                assert_eq!(
                    encode(&value),
                    flipped,
                    "{name}: flip {mask:#04x} at byte {at} decoded to something else"
                );
                accepted += 1;
            }
        }
    }
    assert_eq!(
        accepted > 0,
        flips_can_decode,
        "{name}: {accepted} flips decoded"
    );
}

#[test]
fn section_decoders_survive_truncation_and_byte_flip_sweeps() {
    use htsp::ch::{ContractionHierarchy, OrderingStrategy, ShortcutMode};
    use htsp::td::H2HIndex;
    let g = grid(4, 5, WeightRange::new(1, 25), 13);
    let ch = ContractionHierarchy::build(&g, OrderingStrategy::MinDegree, ShortcutMode::AllPairs);
    sweep_decoder(
        "hierarchy",
        true,
        &ch.to_snapshot_bytes(),
        ContractionHierarchy::from_snapshot_bytes,
        ContractionHierarchy::to_snapshot_bytes,
    );
    let pruned = ContractionHierarchy::build(
        &g,
        OrderingStrategy::MinDegree,
        ShortcutMode::WitnessPruned { hop_limit: 8 },
    );
    sweep_decoder(
        "witness-pruned hierarchy",
        true,
        &pruned.to_snapshot_bytes(),
        ContractionHierarchy::from_snapshot_bytes,
        ContractionHierarchy::to_snapshot_bytes,
    );
    sweep_decoder(
        "h2h",
        true,
        &H2HIndex::build(&g).to_snapshot_bytes(),
        H2HIndex::from_snapshot_bytes,
        H2HIndex::to_snapshot_bytes,
    );
    sweep_decoder(
        "build params",
        true,
        &BuildParams::new(3, 2).to_snapshot_bytes(),
        BuildParams::from_snapshot_bytes,
        BuildParams::to_snapshot_bytes,
    );
    sweep_decoder(
        "graph",
        true,
        &encode_graph_section(&g),
        decode_graph_section,
        encode_graph_section,
    );
    // Weights, label entries, parameters and vertex counts take any value,
    // so some flips of the sections above decode. PostMHL's state is its
    // order, and its decoder is the whole restore; no flip decodes, since a
    // changed delta moves every later vertex of the sequence, and a
    // permutation moved in part is not one.
    let config = BuildParams::new(2, 1).postmhl_config();
    sweep_decoder(
        "postmhl order",
        false,
        &PostMhl::build(&g, config)
            .snapshot_state()
            .expect("postmhl state"),
        |bytes| PostMhl::from_state(&g, bytes, config),
        |post| post.snapshot_state().expect("postmhl state"),
    );
}

fn encode_graph_section(g: &Graph) -> Vec<u8> {
    let mut w = ByteWriter::new();
    snapshot::encode_graph(g, &mut w);
    w.into_bytes()
}

/// [`snapshot::decode_graph`] over a whole buffer: trailing bytes are an
/// error, as they are after every other section decoder.
fn decode_graph_section(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let mut r = ByteReader::new(bytes);
    let g = snapshot::decode_graph(&mut r)?;
    match r.remaining() {
        0 => Ok(g),
        left => Err(SnapshotError::Malformed(format!(
            "{left} trailing bytes after graph section"
        ))),
    }
}

/// The zigzag-delta section of a contraction sequence, written by hand so
/// that it can say what no [`VertexOrder`] can.
fn order_section(seq: &[u32]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(seq.len() as u32);
    let mut prev = 0i64;
    for &v in seq {
        w.put_zigzag(i64::from(v) - prev);
        prev = i64::from(v);
    }
    w.into_bytes()
}

#[test]
fn a_postmhl_order_that_is_not_a_permutation_of_the_graph_is_malformed() {
    let g = grid(3, 4, WeightRange::new(1, 9), 5);
    let n = g.num_vertices() as u32;
    let config = BuildParams::new(2, 1).postmhl_config();
    let valid: Vec<u32> = (0..n).rev().collect();
    assert!(PostMhl::from_state(&g, &order_section(&valid), config).is_ok());
    let mut repeated = valid.clone();
    repeated[3] = repeated[4];
    let mut out_of_range = valid.clone();
    out_of_range[0] = n;
    for (case, seq) in [
        ("a repeated vertex", repeated),
        ("a vertex out of range", out_of_range),
        ("one vertex short", valid[1..].to_vec()),
        ("one vertex long", (0..=n).collect()),
        ("empty", Vec::new()),
    ] {
        match PostMhl::from_state(&g, &order_section(&seq), config) {
            Err(SnapshotError::Malformed(_)) => {}
            Err(other) => panic!("{case}: expected Malformed, got {other:?}"),
            Ok(_) => panic!("{case}: restored"),
        }
        // Through the registry as well, which must not fall back to a build.
        assert!(
            AlgorithmKind::PostMhl
                .restore(&g, &BuildParams::new(2, 1), Some(&order_section(&seq)))
                .is_err(),
            "{case}: the registry restored"
        );
    }
}

/// The label rows, bags and partitioning of two PostMHL indexes agree.
fn assert_same_postmhl(got: &PostMhl, expect: &PostMhl, what: &str) {
    let (td, expect_td) = (got.h2h().decomposition(), expect.h2h().decomposition());
    assert_eq!(td.order(), expect_td.order(), "{what}: order");
    for v in (0..td.num_vertices()).map(VertexId::from_index) {
        assert_eq!(td.bag(v), expect_td.bag(v), "{what}: bag of {v:?}");
        assert_eq!(
            got.h2h().label(v),
            expect.h2h().label(v),
            "{what}: label of {v:?}"
        );
    }
    let (tdp, expect_tdp) = (got.partitioning(), expect.partitioning());
    assert_eq!(tdp.roots(), expect_tdp.roots(), "{what}: partition roots");
    assert_eq!(
        tdp.overlay_vertices(),
        expect_tdp.overlay_vertices(),
        "{what}: overlay vertices"
    );
}

/// Every query stage of `index` answers as Dijkstra does on `g`.
fn assert_exact_at_every_stage(
    index: &dyn IndexMaintainer,
    g: &Graph,
    queries: &QuerySet,
    what: &str,
) {
    for stage in 0..index.num_query_stages() {
        let view = index.view_at_stage(stage);
        for q in queries {
            assert_eq!(
                view.distance(q.source, q.target),
                dijkstra_distance(g, q.source, q.target),
                "{what}, stage {stage}, {q:?}"
            );
        }
    }
}

#[test]
fn a_restart_after_repairs_equals_the_repaired_index_and_a_cold_build() {
    let mut g = grid(9, 9, WeightRange::new(2, 40), 71);
    let params = BuildParams::new(2, 1);
    let mut indexes: Vec<Box<dyn IndexMaintainer>> = AlgorithmKind::ALL
        .iter()
        .map(|kind| kind.build(&g, &params))
        .collect();
    let mut post = PostMhl::build(&g, params.postmhl_config());
    let mut updates = UpdateGenerator::new(23);
    for round in 0..3 {
        let batch = updates.generate(&g, 12);
        g.apply_batch(&batch);
        let queries = QuerySet::random(&g, 30, 100 + round);
        for index in &mut indexes {
            let publisher = SnapshotPublisher::new(index.current_view());
            index.apply_batch(&g, &batch, &publisher);
            let what = format!("{} after batch {round}", index.name());
            assert_exact_at_every_stage(index.as_ref(), &g, &queries, &what);
        }
        let publisher = SnapshotPublisher::new(post.current_view());
        post.apply_batch(&g, &batch, &publisher);
    }
    let queries = QuerySet::random(&g, 40, 7);
    let cold = PostMhl::build(&g, params.postmhl_config());
    for threads in [1, 4] {
        let params = BuildParams {
            num_threads: threads,
            ..params
        };
        for (kind, index) in AlgorithmKind::ALL.iter().zip(&indexes) {
            let state = index.snapshot_state();
            let restored = kind
                .restore(&g, &params, state.as_deref())
                .unwrap_or_else(|e| panic!("{kind} restore: {e}"));
            let what = format!("{kind} restored at {threads} threads");
            assert_exact_at_every_stage(restored.as_ref(), &g, &queries, &what);
            assert_eq!(restored.snapshot_state(), state, "{what}: state");
        }
        let state = post.snapshot_state().expect("postmhl state");
        let restored =
            PostMhl::from_state(&g, &state, params.postmhl_config()).expect("postmhl restore");
        let what = format!("PostMHL restored at {threads} threads");
        assert_same_postmhl(&restored, &post, &format!("{what} vs. the repaired index"));
        assert_same_postmhl(&restored, &cold, &format!("{what} vs. a cold build"));
    }
}
