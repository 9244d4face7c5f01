//! MHL: Multi-stage Hierarchical 2-hop Labeling (§V-A).
//!
//! Lemma 4 observes that DH2H's bottom-up shortcut update produces exactly the
//! shortcuts DCH needs, so the CH-style query can be released as soon as the
//! shortcut phase finishes, long before the label phase completes. MHL
//! packages that observation for a non-partitioned index: it is an H2H index
//! whose maintenance is split into the two phases, publishing the query
//! machinery (BiDijkstra → CH → H2H) that is currently consistent with the
//! latest batch as an immutable snapshot after each phase. Each of the three
//! is a baseline's view: [`BiDijkstraView`], [`ChView`] over the
//! decomposition's shortcut arrays, and [`H2hView`].

use htsp_baselines::{bidijkstra_pool, ch_query_pool, BiDijkstraView, ChView, H2hView};
use htsp_ch::ChQuery;
use htsp_graph::{
    Graph, IndexMaintainer, QueryView, ScratchPool, SnapshotError, SnapshotPublisher, UpdateBatch,
    UpdateTimeline, VertexId,
};
use htsp_search::BiDijkstra;
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
        Self::from_index(graph, H2HIndex::build(graph))
    }

    fn from_index(graph: &Graph, h2h: H2HIndex) -> Self {
        let n = graph.num_vertices();
        Mhl {
            graph: Arc::new(graph.clone()),
            h2h: Arc::new(h2h),
            bidij: bidijkstra_pool(n),
            ch: ch_query_pool(n),
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
        Ok(Self::from_index(graph, h2h))
    }

    /// The stage whose query machinery is currently consistent.
    pub fn stage(&self) -> MhlStage {
        self.stage
    }

    /// The underlying H2H index.
    pub fn h2h(&self) -> &H2HIndex {
        &self.h2h
    }

    fn view_with(&self, at: MhlStage) -> Arc<dyn QueryView> {
        let (algorithm, stage, graph) = ("MHL", at.index(), Arc::clone(&self.graph));
        match at {
            MhlStage::BiDijkstra => Arc::new(BiDijkstraView {
                algorithm,
                stage,
                graph,
                scratch: Arc::clone(&self.bidij),
            }),
            // The CH view pins the decomposition only, not the labels U3
            // repairs.
            MhlStage::Ch => Arc::new(ChView {
                algorithm,
                stage,
                graph,
                ch: Arc::new(self.h2h.decomposition().clone()),
                scratch: Arc::clone(&self.ch),
            }),
            MhlStage::H2h => Arc::new(H2hView {
                algorithm,
                stage,
                graph,
                h2h: Arc::clone(&self.h2h),
            }),
        }
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
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let mut timeline = UpdateTimeline::default();
        // Every publication carries the chunks / bytes its stage
        // copy-on-wrote.
        let mut cow_mark = self.h2h.cow_stats();
        let mut publish = |this: &Mhl, stage: MhlStage| {
            let now = this.h2h.cow_stats();
            publisher.publish_with_cow(this.view_with(stage), now.since(cow_mark));
            cow_mark = now;
        };
        // U-Stage 1: take the new graph version (its weights are already
        // installed); BiDijkstra on it is immediately available.
        let t = Instant::now();
        self.graph = Arc::new(graph.clone());
        self.stage = MhlStage::BiDijkstra;
        publish(self, MhlStage::BiDijkstra);
        timeline.push("U1: on-spot edge update", t.elapsed());

        // U-Stage 2: bottom-up shortcut update → CH query available.
        let t = Instant::now();
        let changes = Arc::make_mut(&mut self.h2h).update_shortcuts(&self.graph, batch.as_slice());
        self.stage = MhlStage::Ch;
        publish(self, MhlStage::Ch);
        timeline.push("U2: shortcut update", t.elapsed());

        // U-Stage 3: top-down label update → H2H query available.
        let t = Instant::now();
        let changed: Vec<VertexId> = changes.iter().map(|c| c.from).collect();
        Arc::make_mut(&mut self.h2h).update_labels_for(&changed);
        self.stage = MhlStage::H2h;
        publish(self, MhlStage::H2h);
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
