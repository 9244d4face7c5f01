//! MHL: Multi-stage Hierarchical 2-hop Labeling (§V-A).
//!
//! Lemma 4 observes that DH2H's bottom-up shortcut update produces exactly the
//! shortcuts DCH needs, so the CH-style query can be released as soon as the
//! shortcut phase finishes, long before the label phase completes. MHL
//! packages that observation for a non-partitioned index: it is an H2H index
//! whose maintenance is split into the two phases, publishing the query
//! machinery (BiDijkstra → CH → H2H) that is currently consistent with the
//! latest batch as an immutable snapshot after each phase.

use htsp_ch::{ChQuery, ChQuerySession};
use htsp_graph::{
    Dist, Graph, IndexMaintainer, QuerySession, QueryView, ScratchPool, SnapshotError,
    SnapshotPublisher, UpdateBatch, UpdateTimeline, VertexId,
};
use htsp_search::{BiDijkstra, BiDijkstraSession};
use htsp_td::H2HIndex;
use std::sync::Arc;
use std::time::Instant;

/// The query stages of MHL, fastest-available last.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MhlStage {
    /// Only the graph has the new weights; queries fall back to BiDijkstra.
    BiDijkstra,
    /// Shortcut arrays repaired; CH queries are correct.
    Ch,
    /// Labels repaired; full H2H query speed.
    H2h,
}

impl MhlStage {
    fn index(self) -> usize {
        match self {
            MhlStage::BiDijkstra => 0,
            MhlStage::Ch => 1,
            MhlStage::H2h => 2,
        }
    }

    fn from_index(i: usize) -> Self {
        match i {
            0 => MhlStage::BiDijkstra,
            1 => MhlStage::Ch,
            _ => MhlStage::H2h,
        }
    }
}

/// Immutable MHL snapshot: one graph version, one query stage.
pub struct MhlView {
    graph: Arc<Graph>,
    stage: MhlStage,
    /// Only the components this view's stage actually reads are pinned —
    /// anything else would force the maintainer's next `Arc::make_mut` into
    /// a needless deep clone while this snapshot is current.
    parts: StageParts,
}

/// The per-stage component set of an [`MhlView`].
enum StageParts {
    BiDijkstra {
        bidij: Arc<ScratchPool<BiDijkstra>>,
    },
    Ch {
        h2h: Arc<H2HIndex>,
        ch: Arc<ScratchPool<ChQuery>>,
    },
    H2h {
        h2h: Arc<H2HIndex>,
    },
}

impl QueryView for MhlView {
    fn algorithm(&self) -> &'static str {
        "MHL"
    }

    fn stage(&self) -> usize {
        self.stage.index()
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        match &self.parts {
            StageParts::BiDijkstra { bidij } => bidij.with(|b| b.distance(&self.graph, s, t)),
            StageParts::Ch { h2h, ch } => {
                ch.with(|q| q.distance(h2h.decomposition().hierarchy(), s, t))
            }
            StageParts::H2h { h2h } => h2h.distance(s, t),
        }
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        match &self.parts {
            StageParts::BiDijkstra { bidij } => {
                Box::new(BiDijkstraSession::new(&self.graph, bidij.checkout()))
            }
            StageParts::Ch { h2h, ch } => Box::new(ChQuerySession::new(
                h2h.decomposition().hierarchy(),
                ch.checkout(),
            )),
            StageParts::H2h { h2h } => Box::new(h2h.session()),
        }
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }

    fn index_size_bytes(&self) -> usize {
        match &self.parts {
            StageParts::BiDijkstra { .. } => 0,
            StageParts::Ch { h2h, .. } | StageParts::H2h { h2h } => h2h.index_size_bytes(),
        }
    }
}

/// The multi-stage (non-partitioned) hub labeling index.
pub struct Mhl {
    graph: Arc<Graph>,
    h2h: Arc<H2HIndex>,
    bidij: Arc<ScratchPool<BiDijkstra>>,
    ch: Arc<ScratchPool<ChQuery>>,
    stage: MhlStage,
}

impl Mhl {
    /// Builds the index from scratch.
    pub fn build(graph: &Graph) -> Self {
        Self::build_pooled(graph, &htsp_graph::WorkerPool::sequential())
    }

    /// [`Mhl::build`] behind the signature of the pooled builders: the H2H
    /// construction is sequential, so the index is the same at any thread
    /// count.
    pub fn build_pooled(graph: &Graph, pool: &htsp_graph::WorkerPool) -> Self {
        let h2h = H2HIndex::build_pooled(graph, pool);
        let n = graph.num_vertices();
        Mhl {
            graph: Arc::new(graph.clone()),
            h2h: Arc::new(h2h),
            bidij: Arc::new(ScratchPool::new(move || BiDijkstra::new(n))),
            ch: Arc::new(ScratchPool::new(move || ChQuery::new(n))),
            stage: MhlStage::H2h,
        }
    }

    /// Warm restart: reassembles the index from `graph` and an H2H section
    /// previously produced by `snapshot_state`, skipping both contraction and
    /// label construction. The restored index starts at the H2H stage.
    pub fn from_state(graph: &Graph, state: &[u8]) -> Result<Self, SnapshotError> {
        let h2h = H2HIndex::from_snapshot_bytes(state)?;
        if h2h.decomposition().num_vertices() != graph.num_vertices() {
            return Err(SnapshotError::Malformed(format!(
                "index state covers {} vertices but the graph has {}",
                h2h.decomposition().num_vertices(),
                graph.num_vertices()
            )));
        }
        let n = graph.num_vertices();
        Ok(Mhl {
            graph: Arc::new(graph.clone()),
            h2h: Arc::new(h2h),
            bidij: Arc::new(ScratchPool::new(move || BiDijkstra::new(n))),
            ch: Arc::new(ScratchPool::new(move || ChQuery::new(n))),
            stage: MhlStage::H2h,
        })
    }

    /// The stage whose query machinery is currently consistent.
    pub fn stage(&self) -> MhlStage {
        self.stage
    }

    /// The underlying H2H index.
    pub fn h2h(&self) -> &H2HIndex {
        &self.h2h
    }

    fn view_with(&self, stage: MhlStage) -> Arc<dyn QueryView> {
        let parts = match stage {
            MhlStage::BiDijkstra => StageParts::BiDijkstra {
                bidij: Arc::clone(&self.bidij),
            },
            MhlStage::Ch => StageParts::Ch {
                h2h: Arc::clone(&self.h2h),
                ch: Arc::clone(&self.ch),
            },
            MhlStage::H2h => StageParts::H2h {
                h2h: Arc::clone(&self.h2h),
            },
        };
        Arc::new(MhlView {
            graph: Arc::clone(&self.graph),
            stage,
            parts,
        })
    }
}

impl IndexMaintainer for Mhl {
    fn name(&self) -> &'static str {
        "MHL"
    }

    fn num_query_stages(&self) -> usize {
        3
    }

    fn apply_batch(
        &mut self,
        _graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let mut timeline = UpdateTimeline::default();
        // U-Stage 1: install the new weights; BiDijkstra on the fresh graph
        // is immediately available.
        let t = Instant::now();
        Arc::make_mut(&mut self.graph).apply_batch(batch);
        self.stage = MhlStage::BiDijkstra;
        publisher.publish(self.view_with(MhlStage::BiDijkstra));
        timeline.push("U1: on-spot edge update", t.elapsed());

        // U-Stage 2: bottom-up shortcut update → CH query available.
        let t = Instant::now();
        let changes = Arc::make_mut(&mut self.h2h).update_shortcuts(&self.graph, batch.as_slice());
        self.stage = MhlStage::Ch;
        publisher.publish(self.view_with(MhlStage::Ch));
        timeline.push("U2: shortcut update", t.elapsed());

        // U-Stage 3: top-down label update → H2H query available.
        let t = Instant::now();
        let changed: Vec<VertexId> = changes.iter().map(|c| c.from).collect();
        Arc::make_mut(&mut self.h2h).update_labels_for(&changed);
        self.stage = MhlStage::H2h;
        publisher.publish(self.view_with(MhlStage::H2h));
        timeline.push("U3: label update", t.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        self.view_with(self.stage)
    }

    fn view_at_stage(&self, stage: usize) -> Arc<dyn QueryView> {
        self.view_with(MhlStage::from_index(stage))
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

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    #[test]
    fn all_stages_answer_exactly_after_updates() {
        let mut g = grid(8, 8, WeightRange::new(5, 40), 3);
        let mut mhl = Mhl::build(&g);
        let mut gen = UpdateGenerator::new(7);
        for round in 0..2 {
            let batch = gen.generate(&g, 20);
            g.apply_batch(&batch);
            let publisher = SnapshotPublisher::new(mhl.current_view());
            let timeline = mhl.apply_batch(&g, &batch, &publisher);
            assert_eq!(timeline.stages.len(), 3);
            assert_eq!(mhl.stage(), MhlStage::H2h);
            // One snapshot per stage was published.
            assert_eq!(publisher.take_log().len(), 3);
            let qs = QuerySet::random(&g, 60, 11 + round);
            for q in &qs {
                let expect = dijkstra_distance(&g, q.source, q.target);
                for stage in 0..3 {
                    assert_eq!(
                        mhl.view_at_stage(stage).distance(q.source, q.target),
                        expect,
                        "stage {stage} mismatch for {:?}",
                        q
                    );
                }
            }
        }
    }

    #[test]
    fn final_stage_is_h2h_and_size_reported() {
        let g = grid(6, 6, WeightRange::new(1, 9), 5);
        let mhl = Mhl::build(&g);
        assert_eq!(mhl.num_query_stages(), 3);
        assert!(IndexMaintainer::index_size_bytes(&mhl) > 0);
        let view = mhl.current_view();
        assert_eq!(view.stage(), 2);
        assert_eq!(
            view.distance(VertexId(0), VertexId(35)),
            dijkstra_distance(&g, VertexId(0), VertexId(35))
        );
    }
}
