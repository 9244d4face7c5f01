//! # htsp-baselines
//!
//! The non-partitioned baselines of the paper's evaluation (§VII-A), behind
//! the read/write index API ([`QueryView`] snapshots published by an
//! [`IndexMaintainer`]) so the server, the load driver and the benchmark
//! drive every algorithm identically:
//!
//! * [`BiDijkstraBaseline`] — index-free bidirectional Dijkstra; zero update
//!   cost, slow queries.
//! * [`DchBaseline`] — Dynamic Contraction Hierarchies \[32\]: fast shortcut
//!   repair, CH-speed queries.
//! * [`Dh2hBaseline`] — Dynamic H2H \[33\]: fastest queries, slow label repair.
//! * [`ToainBaseline`] — a simplified TOAIN/SCOB \[37\]: a throughput-adaptive
//!   CH whose *level cap* trades query speed against the cost of refreshing
//!   the index on every batch (the paper adapts TOAIN to dynamic networks by
//!   rebuilding its shortcuts per batch; we reproduce that behaviour).
//!
//! Their snapshots are three view types, one per query machinery, and the
//! multi-stage indexes of `htsp-core` publish the same types for their
//! stages instead of re-implementing them: [`BiDijkstraView`] (stage 0 of
//! MHL, PMHL and PostMHL), [`ChView`] (the CH stage of MHL and PostMHL —
//! Lemma 4: DH2H's shortcut phase yields exactly DCH's shortcuts) and
//! [`H2hView`] (the final stage of MHL and PostMHL). Every view carries the
//! algorithm name and query stage it is published as.
//!
//! The partitioned baselines N-CH-P and P-TD-P live in `htsp-psp`.

#![warn(missing_docs)]

use htsp_ch::{ChQuery, ChQuerySession, ContractionHierarchy, OrderingStrategy, ShortcutMode};
use htsp_graph::{
    ByteReader, ByteWriter, Dist, Graph, IndexMaintainer, QuerySession, QueryView, ScratchPool,
    SnapshotError, SnapshotPublisher, UpdateBatch, UpdateTimeline, VertexId,
};
use htsp_search::{BiDijkstra, BiDijkstraSession};
use htsp_td::H2HIndex;
use std::sync::Arc;
use std::time::Instant;

/// Snapshot answering with bidirectional Dijkstra on a frozen graph: the
/// BiDijkstra baseline, and stage 0 of MHL, PMHL and PostMHL.
///
/// The graph is read through its owner `G` (a plain [`Graph`], or PMHL's
/// partitioned view), so the view pins exactly what the maintainer already
/// shares.
pub struct BiDijkstraView<G = Graph> {
    /// The algorithm that publishes the view.
    pub algorithm: &'static str,
    /// The query stage it is published as.
    pub stage: usize,
    /// The graph snapshot, through its owner.
    pub graph: Arc<G>,
    /// Searchers shared by every view of the index.
    pub scratch: Arc<ScratchPool<BiDijkstra>>,
}

impl<G: AsRef<Graph> + Send + Sync> QueryView for BiDijkstraView<G> {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn stage(&self) -> usize {
        self.stage
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.scratch
            .with(|b| b.distance((*self.graph).as_ref(), s, t))
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(BiDijkstraSession::new(
            (*self.graph).as_ref(),
            self.scratch.checkout(),
        ))
    }

    fn graph(&self) -> &Graph {
        (*self.graph).as_ref()
    }
}

/// Creates a scratch pool of [`BiDijkstra`] searchers for `n`-vertex graphs.
pub fn bidijkstra_pool(n: usize) -> Arc<ScratchPool<BiDijkstra>> {
    Arc::new(ScratchPool::new(move || BiDijkstra::new(n)))
}

/// Snapshot answering with a bidirectional upward search over a frozen
/// contraction hierarchy: DCH and TOAIN, and the CH stage of MHL and
/// PostMHL.
///
/// The hierarchy is read through its owner `H` — the hierarchy itself, or
/// the tree decomposition whose shortcut arrays it is (Lemma 4) — and a
/// session borrows it once, so the per-query path is the same for every
/// owner.
pub struct ChView<H = ContractionHierarchy> {
    /// The algorithm that publishes the view.
    pub algorithm: &'static str,
    /// The query stage it is published as.
    pub stage: usize,
    /// The graph snapshot the hierarchy is consistent with.
    pub graph: Arc<Graph>,
    /// The hierarchy, through its owner.
    pub ch: Arc<H>,
    /// Query states shared by every view of the index.
    pub scratch: Arc<ScratchPool<ChQuery>>,
}

impl<H: AsRef<ContractionHierarchy> + Send + Sync> QueryView for ChView<H> {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn stage(&self) -> usize {
        self.stage
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.scratch.with(|q| q.distance((*self.ch).as_ref(), s, t))
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(ChQuerySession::new(
            (*self.ch).as_ref(),
            self.scratch.checkout(),
        ))
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// Creates a scratch pool of [`ChQuery`] states for `n`-vertex hierarchies.
pub fn ch_query_pool(n: usize) -> Arc<ScratchPool<ChQuery>> {
    Arc::new(ScratchPool::new(move || ChQuery::new(n)))
}

/// Snapshot answering from full H2H labels: DH2H, and the final stage of
/// MHL and PostMHL. Its session is [`htsp_td::LabelSession`].
pub struct H2hView {
    /// The algorithm that publishes the view.
    pub algorithm: &'static str,
    /// The query stage it is published as.
    pub stage: usize,
    /// The graph snapshot the labels are consistent with.
    pub graph: Arc<Graph>,
    /// The labels.
    pub h2h: Arc<H2HIndex>,
}

impl QueryView for H2hView {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn stage(&self) -> usize {
        self.stage
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.h2h.distance(s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(self.h2h.session())
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// Index-free baseline: bidirectional Dijkstra on the live graph.
pub struct BiDijkstraBaseline {
    graph: Arc<Graph>,
    scratch: Arc<ScratchPool<BiDijkstra>>,
}

impl BiDijkstraBaseline {
    /// Creates the baseline over `graph`.
    pub fn new(graph: &Graph) -> Self {
        BiDijkstraBaseline {
            graph: Arc::new(graph.clone()),
            scratch: bidijkstra_pool(graph.num_vertices()),
        }
    }
}

impl IndexMaintainer for BiDijkstraBaseline {
    fn name(&self) -> &'static str {
        "BiDijkstra"
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        _batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        // U-Stage 1 is the whole maintenance: take the new graph version and
        // republish; there is no index to repair.
        let t = Instant::now();
        self.graph = Arc::new(graph.clone());
        publisher.publish(self.current_view());
        UpdateTimeline::single("U1: on-spot edge update", t.elapsed())
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(BiDijkstraView {
            algorithm: "BiDijkstra",
            stage: 0,
            graph: Arc::clone(&self.graph),
            scratch: Arc::clone(&self.scratch),
        })
    }
}

/// Dynamic Contraction Hierarchies (DCH) baseline.
pub struct DchBaseline {
    graph: Arc<Graph>,
    ch: Arc<ContractionHierarchy>,
    scratch: Arc<ScratchPool<ChQuery>>,
}

impl DchBaseline {
    /// Builds the CH index over `graph` on a nested-dissection order, the
    /// one the H2H-based indexes share.
    pub fn build(graph: &Graph) -> Self {
        let ch = ContractionHierarchy::build(
            graph,
            OrderingStrategy::NestedDissection,
            ShortcutMode::AllPairs,
        );
        DchBaseline {
            graph: Arc::new(graph.clone()),
            ch: Arc::new(ch),
            scratch: ch_query_pool(graph.num_vertices()),
        }
    }

    /// Warm restart: reassembles the baseline from `graph` and a hierarchy
    /// section previously produced by `snapshot_state`, skipping contraction.
    pub fn from_state(graph: &Graph, state: &[u8]) -> Result<Self, SnapshotError> {
        let ch = ContractionHierarchy::from_snapshot_bytes(state)?;
        check_vertex_count(ch.num_vertices(), graph)?;
        Ok(DchBaseline {
            graph: Arc::new(graph.clone()),
            ch: Arc::new(ch),
            scratch: ch_query_pool(graph.num_vertices()),
        })
    }
}

/// Rejects an index state whose vertex count disagrees with the graph it is
/// being restored against.
fn check_vertex_count(index_n: usize, graph: &Graph) -> Result<(), SnapshotError> {
    if index_n != graph.num_vertices() {
        return Err(SnapshotError::Malformed(format!(
            "index state covers {index_n} vertices but the graph has {}",
            graph.num_vertices()
        )));
    }
    Ok(())
}

impl IndexMaintainer for DchBaseline {
    fn name(&self) -> &'static str {
        "DCH"
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let t = Instant::now();
        let cow_mark = self.ch.cow_stats();
        self.graph = Arc::new(graph.clone());
        Arc::make_mut(&mut self.ch).apply_batch(graph, batch.as_slice());
        publisher.publish_with_cow(self.current_view(), self.ch.cow_stats().since(cow_mark));
        UpdateTimeline::single("U2: shortcut update", t.elapsed())
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(ChView {
            algorithm: "DCH",
            stage: 0,
            graph: Arc::clone(&self.graph),
            ch: Arc::clone(&self.ch),
            scratch: Arc::clone(&self.scratch),
        })
    }

    fn index_size_bytes(&self) -> usize {
        self.ch.index_size_bytes()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.ch.to_snapshot_bytes())
    }

    fn storage_bytes(&self) -> Vec<(&'static str, usize)> {
        vec![("ch_shortcuts", self.ch.heap_bytes())]
    }
}

/// Dynamic H2H (DH2H) baseline.
pub struct Dh2hBaseline {
    graph: Arc<Graph>,
    h2h: Arc<H2HIndex>,
}

impl Dh2hBaseline {
    /// Builds the H2H index over `graph`.
    pub fn build(graph: &Graph) -> Self {
        Dh2hBaseline {
            graph: Arc::new(graph.clone()),
            h2h: Arc::new(H2HIndex::build(graph)),
        }
    }

    /// Warm restart: reassembles the baseline from `graph` and an H2H
    /// section previously produced by `snapshot_state`, skipping both
    /// contraction and label construction.
    pub fn from_state(graph: &Graph, state: &[u8]) -> Result<Self, SnapshotError> {
        let h2h = H2HIndex::from_snapshot_bytes(state)?;
        check_vertex_count(h2h.decomposition().num_vertices(), graph)?;
        Ok(Dh2hBaseline {
            graph: Arc::new(graph.clone()),
            h2h: Arc::new(h2h),
        })
    }
}

impl IndexMaintainer for Dh2hBaseline {
    fn name(&self) -> &'static str {
        "DH2H"
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let cow_mark = self.h2h.cow_stats();
        self.graph = Arc::new(graph.clone());
        let report = Arc::make_mut(&mut self.h2h).apply_batch(graph, batch.as_slice());
        let mut timeline = UpdateTimeline::default();
        timeline.push("U2: bottom-up shortcut update", report.shortcut_time);
        timeline.push("U3: top-down label update", report.label_time);
        // DH2H has a single query stage: the snapshot only becomes available
        // once the labels are fully repaired (the Figure 1 pain point).
        publisher.publish_with_cow(self.current_view(), self.h2h.cow_stats().since(cow_mark));
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(H2hView {
            algorithm: "DH2H",
            stage: 0,
            graph: Arc::clone(&self.graph),
            h2h: Arc::clone(&self.h2h),
        })
    }

    fn index_size_bytes(&self) -> usize {
        self.h2h.index_size_bytes()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        Some(self.h2h.to_snapshot_bytes())
    }

    fn storage_bytes(&self) -> Vec<(&'static str, usize)> {
        vec![
            ("h2h_labels", self.h2h.label_heap_bytes()),
            (
                "ch_shortcuts",
                self.h2h.decomposition().hierarchy().heap_bytes(),
            ),
        ]
    }
}

/// Simplified TOAIN baseline: a CH whose shortcut set is truncated at a level
/// cap (the SCOB "saturation" knob) and fully refreshed on every batch.
///
/// Queries run the CH bidirectional search but fall back to local Dijkstra
/// below the cap, so a small cap means cheaper refreshes and slower queries —
/// the adaptive trade-off TOAIN tunes for throughput. The refresh-per-batch
/// behaviour mirrors how the paper adapts TOAIN (designed for static networks)
/// to the dynamic setting (§VII-A).
pub struct ToainBaseline {
    graph: Arc<Graph>,
    ch: Arc<ContractionHierarchy>,
    scratch: Arc<ScratchPool<ChQuery>>,
    /// Number of contraction levels kept (cap on index size / refresh cost).
    pub level_cap: usize,
}

impl ToainBaseline {
    /// Builds the index; `level_cap` bounds how many vertices are contracted
    /// with shortcut insertion (the remainder keeps only original edges).
    pub fn build(graph: &Graph, level_cap: usize) -> Self {
        let ch = Self::build_capped(graph, level_cap);
        ToainBaseline {
            graph: Arc::new(graph.clone()),
            ch: Arc::new(ch),
            scratch: ch_query_pool(graph.num_vertices()),
            level_cap,
        }
    }

    fn build_capped(graph: &Graph, level_cap: usize) -> ContractionHierarchy {
        // A full hierarchy with witness pruning bounded by the cap: a small
        // cap prunes aggressively (cheap, weaker index), a large cap
        // approaches the exact CH.
        ContractionHierarchy::build(
            graph,
            OrderingStrategy::MinDegree,
            ShortcutMode::WitnessPruned {
                hop_limit: level_cap.max(1),
            },
        )
    }

    /// Warm restart: reassembles the baseline from `graph` and a state blob
    /// previously produced by `snapshot_state` (level cap + hierarchy).
    pub fn from_state(graph: &Graph, state: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(state);
        let level_cap = r.get_u64("toain level cap")? as usize;
        let ch = ContractionHierarchy::decode_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after toain state",
                r.remaining()
            )));
        }
        check_vertex_count(ch.num_vertices(), graph)?;
        Ok(ToainBaseline {
            graph: Arc::new(graph.clone()),
            ch: Arc::new(ch),
            scratch: ch_query_pool(graph.num_vertices()),
            level_cap,
        })
    }

    /// Approximate index size in bytes.
    pub fn index_size_bytes(&self) -> usize {
        self.ch.index_size_bytes()
    }
}

impl IndexMaintainer for ToainBaseline {
    fn name(&self) -> &'static str {
        "TOAIN"
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        _batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        // TOAIN is a static index: adapt it to dynamic networks by refreshing
        // its shortcuts against the updated graph.
        let t = Instant::now();
        self.graph = Arc::new(graph.clone());
        self.ch = Arc::new(Self::build_capped(graph, self.level_cap));
        publisher.publish(self.current_view());
        UpdateTimeline::single("refresh shortcuts", t.elapsed())
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(ChView {
            algorithm: "TOAIN",
            stage: 0,
            graph: Arc::clone(&self.graph),
            ch: Arc::clone(&self.ch),
            scratch: Arc::clone(&self.scratch),
        })
    }

    fn index_size_bytes(&self) -> usize {
        self.ch.index_size_bytes()
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        let mut w = ByteWriter::new();
        w.put_u64(self.level_cap as u64);
        self.ch.encode_into(&mut w);
        Some(w.into_bytes())
    }

    fn storage_bytes(&self) -> Vec<(&'static str, usize)> {
        vec![("ch_shortcuts", self.ch.heap_bytes())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    fn exercise(idx: &mut dyn IndexMaintainer, g: &mut Graph, seed: u64) {
        let mut gen = UpdateGenerator::new(seed);
        for round in 0..2 {
            let qs = QuerySet::random(g, 60, seed + 100 + round);
            let view = idx.current_view();
            for q in &qs {
                assert_eq!(
                    view.distance(q.source, q.target),
                    dijkstra_distance(g, q.source, q.target),
                    "{} mismatch for {:?}",
                    idx.name(),
                    q
                );
            }
            let batch = gen.generate(g, 15);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(idx.current_view());
            let timeline = idx.apply_batch(g, &batch, &publisher);
            assert!(!timeline.stages.is_empty());
            assert!(publisher.version() >= 1, "no snapshot published");
        }
    }

    #[test]
    fn bidijkstra_baseline_is_exact() {
        let mut g = grid(8, 8, WeightRange::new(1, 20), 1);
        let mut idx = BiDijkstraBaseline::new(&g);
        exercise(&mut idx, &mut g, 11);
        assert_eq!(IndexMaintainer::index_size_bytes(&idx), 0);
    }

    #[test]
    fn dch_baseline_is_exact() {
        let mut g = grid(8, 8, WeightRange::new(1, 20), 2);
        let mut idx = DchBaseline::build(&g);
        exercise(&mut idx, &mut g, 12);
        assert!(IndexMaintainer::index_size_bytes(&idx) > 0);
    }

    #[test]
    fn dh2h_baseline_is_exact() {
        let mut g = grid(8, 8, WeightRange::new(1, 20), 3);
        let mut idx = Dh2hBaseline::build(&g);
        exercise(&mut idx, &mut g, 13);
        assert!(IndexMaintainer::index_size_bytes(&idx) > 0);
    }

    #[test]
    fn toain_baseline_is_exact() {
        let mut g = grid(8, 8, WeightRange::new(1, 20), 4);
        let mut idx = ToainBaseline::build(&g, 64);
        exercise(&mut idx, &mut g, 14);
    }

    #[test]
    fn toain_cap_trades_witness_effort_for_index_size() {
        // A small cap bounds the witness searches, so contraction keeps more
        // (conservative) shortcuts; a large cap prunes harder and yields a
        // smaller index at higher refresh cost.
        let g = grid(10, 10, WeightRange::new(1, 20), 5);
        let small = ToainBaseline::build(&g, 2);
        let large = ToainBaseline::build(&g, 256);
        assert!(small.index_size_bytes() >= large.index_size_bytes());
    }

    #[test]
    fn warm_restart_round_trip_matches_cold_build() {
        let g = grid(8, 8, WeightRange::new(1, 20), 8);
        let qs = QuerySet::random(&g, 60, 44);
        let check = |idx: &dyn IndexMaintainer| {
            let view = idx.current_view();
            for q in &qs {
                assert_eq!(
                    view.distance(q.source, q.target),
                    dijkstra_distance(&g, q.source, q.target),
                    "{} warm restart mismatch for {q:?}",
                    idx.name()
                );
            }
        };
        let dch = DchBaseline::build(&g);
        let state = IndexMaintainer::snapshot_state(&dch).expect("dch state");
        check(&DchBaseline::from_state(&g, &state).expect("dch restore"));

        let dh2h = Dh2hBaseline::build(&g);
        let state = IndexMaintainer::snapshot_state(&dh2h).expect("dh2h state");
        check(&Dh2hBaseline::from_state(&g, &state).expect("dh2h restore"));

        let toain = ToainBaseline::build(&g, 64);
        let state = IndexMaintainer::snapshot_state(&toain).expect("toain state");
        let restored = ToainBaseline::from_state(&g, &state).expect("toain restore");
        assert_eq!(restored.level_cap, 64);
        check(&restored);

        // A state for the wrong graph is rejected, not applied.
        let other = grid(5, 5, WeightRange::new(1, 9), 1);
        let state = IndexMaintainer::snapshot_state(&dch).unwrap();
        assert!(matches!(
            DchBaseline::from_state(&other, &state),
            Err(SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn storage_bytes_reports_components() {
        let g = grid(6, 6, WeightRange::new(1, 9), 2);
        let dch = DchBaseline::build(&g);
        let parts = IndexMaintainer::storage_bytes(&dch);
        assert_eq!(parts[0].0, "ch_shortcuts");
        assert!(parts[0].1 > 0);
        let dh2h = Dh2hBaseline::build(&g);
        let parts = IndexMaintainer::storage_bytes(&dh2h);
        assert_eq!(parts.len(), 2);
        assert!(parts.iter().all(|&(_, b)| b > 0));
        // BiDijkstra keeps no index state to snapshot.
        let bidij = BiDijkstraBaseline::new(&g);
        assert!(IndexMaintainer::snapshot_state(&bidij).is_none());
    }

    #[test]
    fn published_snapshots_stay_frozen_while_maintainer_moves_on() {
        // Copy-on-write contract: a snapshot taken before a batch keeps
        // answering on the old weights even after the maintainer repairs.
        let mut g = grid(8, 8, WeightRange::new(5, 15), 6);
        let mut idx = DchBaseline::build(&g);
        let old_view = idx.current_view();
        let old_graph = g.clone();

        let mut gen = UpdateGenerator::new(21);
        let batch = gen.generate(&g, 20);
        g.apply_batch(&batch);
        let publisher = SnapshotPublisher::new(idx.current_view());
        idx.apply_batch(&g, &batch, &publisher);

        let new_view = publisher.snapshot();
        let qs = QuerySet::random(&g, 40, 9);
        for q in &qs {
            assert_eq!(
                old_view.distance(q.source, q.target),
                dijkstra_distance(&old_graph, q.source, q.target),
                "stale view drifted for {q:?}"
            );
            assert_eq!(
                new_view.distance(q.source, q.target),
                dijkstra_distance(&g, q.source, q.target),
                "fresh view wrong for {q:?}"
            );
        }
    }
}
