//! The first-class algorithm registry: every dynamic shortest-distance index
//! in the repository, constructible by name through one factory.
//!
//! [`AlgorithmKind`] enumerates the nine algorithms of the paper's comparison
//! (§VII) and [`AlgorithmKind::build`] turns a kind plus [`BuildParams`] into
//! a boxed [`IndexMaintainer`]. This is the registry the
//! [`RoadNetworkServer`](crate::RoadNetworkServer) builder consumes, and it
//! replaces hand-rolled constructor lists in benches and integration tests:
//! one place decides how a name maps to index machinery, everywhere else
//! says *which* index it wants.

use htsp_baselines::{BiDijkstraBaseline, DchBaseline, Dh2hBaseline, ToainBaseline};
use htsp_core::{Mhl, Pmhl, PmhlConfig, PostMhl, PostMhlConfig};
use htsp_graph::{ByteReader, ByteWriter, Graph, IndexMaintainer, SnapshotError, WorkerPool};
use htsp_partition::TdPartitionConfig;
use htsp_psp::{NChP, PTdP};

/// One of the nine dynamic shortest-distance algorithms of the paper's
/// evaluation, identified independently of its construction parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AlgorithmKind {
    /// Index-free bidirectional Dijkstra (no repair cost, slow queries).
    BiDijkstra,
    /// Dynamic Contraction Hierarchies.
    Dch,
    /// Dynamic H2H labelling.
    Dh2h,
    /// TOAIN (SCOB-adapted capped CH).
    Toain,
    /// No-boundary partitioned CH (N-CH-P).
    NChP,
    /// Pre-boundary partitioned tree decomposition (P-TD-P).
    PTdP,
    /// Multi-stage Hierarchical Labelling (single-machine MHL).
    Mhl,
    /// Partitioned MHL — one of the paper's contributions.
    Pmhl,
    /// Post-boundary MHL — the paper's headline contribution.
    PostMhl,
}

/// Construction parameters shared by the whole registry.
///
/// Every algorithm reads the subset it needs: the partitioned indexes take
/// `num_partitions` / `seed`, the parallel maintainers take `num_threads`,
/// TOAIN takes its contraction `toain_level_cap`, and PostMHL derives its
/// TD-partitioning configuration from `num_partitions` and
/// `postmhl_bandwidth`.
#[derive(Clone, Copy, Debug)]
pub struct BuildParams {
    /// Partition count `k` for PMHL / N-CH-P / P-TD-P (PostMHL's expected
    /// partition count `k_e` is derived as `max(4k, 8)`).
    pub num_partitions: usize,
    /// Worker threads for partition-parallel maintenance stages.
    pub num_threads: usize,
    /// Partitioner seed.
    pub seed: u64,
    /// TOAIN contraction level cap.
    pub toain_level_cap: usize,
    /// PostMHL TD-partitioning bandwidth `τ`.
    pub postmhl_bandwidth: usize,
}

impl Default for BuildParams {
    fn default() -> Self {
        BuildParams {
            num_partitions: 8,
            num_threads: htsp_graph::available_parallelism(),
            seed: 1,
            toain_level_cap: 64,
            postmhl_bandwidth: 16,
        }
    }
}

impl BuildParams {
    /// Convenience constructor for the two knobs almost every caller sets.
    pub fn new(num_partitions: usize, num_threads: usize) -> Self {
        BuildParams {
            num_partitions,
            num_threads,
            ..BuildParams::default()
        }
    }

    /// Worker threads for construction and partition-parallel maintenance
    /// (≥ 1). This is the thread count [`AlgorithmKind::build`] sizes its
    /// [`WorkerPool`] with; the built index is identical at any value.
    pub fn threads(&self) -> usize {
        self.num_threads.max(1)
    }

    /// Scales the parameters down for one shard of a fleet
    /// ([`ServerBuilder::shards`](crate::ServerBuilder::shards)):
    /// partition-based shard indexes must not over-partition the (much
    /// smaller) shard subgraph, so the partition count is clamped to keep
    /// roughly 16 vertices per inner partition, and the per-shard thread
    /// count is capped at 2 since the fleet already runs one maintenance
    /// thread per shard.
    pub fn for_shard(&self, shard_vertices: usize) -> BuildParams {
        let cap = (shard_vertices / 16).clamp(2, self.num_partitions.max(2));
        BuildParams {
            num_partitions: self.num_partitions.min(cap),
            num_threads: self.num_threads.min(2),
            ..*self
        }
    }

    /// The PMHL configuration these parameters describe.
    pub fn pmhl_config(&self) -> PmhlConfig {
        PmhlConfig {
            num_partitions: self.num_partitions,
            num_threads: self.num_threads,
            seed: self.seed,
        }
    }

    /// Serializes the parameters into a snapshot payload section.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.put_u32(self.num_partitions as u32);
        w.put_u32(self.num_threads as u32);
        w.put_u64(self.seed);
        w.put_u32(self.toain_level_cap as u32);
        w.put_u32(self.postmhl_bandwidth as u32);
    }

    /// Serializes the parameters to a standalone byte vector (the `params`
    /// section of an [`htsp_graph::IndexSnapshot`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Deserializes parameters produced by [`Self::to_snapshot_bytes`].
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = ByteReader::new(bytes);
        let params = BuildParams {
            num_partitions: r.get_u32("build params partitions")? as usize,
            num_threads: r.get_u32("build params threads")? as usize,
            seed: r.get_u64("build params seed")?,
            toain_level_cap: r.get_u32("build params toain cap")? as usize,
            postmhl_bandwidth: r.get_u32("build params postmhl bandwidth")? as usize,
        };
        if r.remaining() != 0 {
            return Err(SnapshotError::Malformed(format!(
                "{} trailing bytes after build params",
                r.remaining()
            )));
        }
        Ok(params)
    }

    /// The PostMHL configuration these parameters describe.
    pub fn postmhl_config(&self) -> PostMhlConfig {
        PostMhlConfig {
            partitioning: TdPartitionConfig {
                bandwidth: self.postmhl_bandwidth,
                expected_partitions: (self.num_partitions * 4).max(8),
                beta_lower: 0.1,
                beta_upper: 2.0,
            },
            num_threads: self.num_threads,
        }
    }
}

impl AlgorithmKind {
    /// Every algorithm of the paper's comparison, in the canonical table
    /// order (baselines first, the paper's contributions last).
    pub const ALL: [AlgorithmKind; 9] = [
        AlgorithmKind::BiDijkstra,
        AlgorithmKind::Dch,
        AlgorithmKind::Dh2h,
        AlgorithmKind::Toain,
        AlgorithmKind::NChP,
        AlgorithmKind::PTdP,
        AlgorithmKind::Mhl,
        AlgorithmKind::Pmhl,
        AlgorithmKind::PostMhl,
    ];

    /// The paper's contributions only (PMHL + PostMHL).
    pub const OURS: [AlgorithmKind; 2] = [AlgorithmKind::Pmhl, AlgorithmKind::PostMhl];

    /// Everything except the slowest baselines (used on larger presets).
    pub const FAST: [AlgorithmKind; 6] = [
        AlgorithmKind::Dch,
        AlgorithmKind::Dh2h,
        AlgorithmKind::NChP,
        AlgorithmKind::PTdP,
        AlgorithmKind::Pmhl,
        AlgorithmKind::PostMhl,
    ];

    /// The table name of the algorithm; matches
    /// [`IndexMaintainer::name`] of the built maintainer.
    pub fn name(self) -> &'static str {
        match self {
            AlgorithmKind::BiDijkstra => "BiDijkstra",
            AlgorithmKind::Dch => "DCH",
            AlgorithmKind::Dh2h => "DH2H",
            AlgorithmKind::Toain => "TOAIN",
            AlgorithmKind::NChP => "N-CH-P",
            AlgorithmKind::PTdP => "P-TD-P",
            AlgorithmKind::Mhl => "MHL",
            AlgorithmKind::Pmhl => "PMHL",
            AlgorithmKind::PostMhl => "PostMHL",
        }
    }

    /// Resolves a table name (as produced by [`AlgorithmKind::name`],
    /// case-insensitively) back to its kind.
    pub fn from_name(name: &str) -> Option<AlgorithmKind> {
        AlgorithmKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
    }

    /// Builds the index machinery of this kind over `graph`.
    ///
    /// Construction is the expensive step (seconds at laptop scale for the
    /// labelled indexes); the returned maintainer is ready to serve through
    /// [`IndexMaintainer::current_view`] and to be repaired through
    /// `apply_batch`.
    pub fn build(self, graph: &Graph, params: &BuildParams) -> Box<dyn IndexMaintainer> {
        let pool = WorkerPool::new(params.threads());
        self.build_pooled(graph, params, &pool)
    }

    /// Builds the index machinery of this kind with its per-partition
    /// construction stages running on `pool` (N-CH-P, P-TD-P and PMHL;
    /// the other kinds build sequentially and ignore it).
    ///
    /// The determinism contract of the parallel-construction subsystem: the
    /// built index — its answers, and for the kinds that store a state its
    /// serialized state bytes — is identical at every thread count. The pool
    /// only changes how many construction tasks are in flight, never which
    /// tasks exist or how their outputs combine.
    pub fn build_pooled(
        self,
        graph: &Graph,
        params: &BuildParams,
        pool: &WorkerPool,
    ) -> Box<dyn IndexMaintainer> {
        match self {
            AlgorithmKind::BiDijkstra => Box::new(BiDijkstraBaseline::new(graph)),
            AlgorithmKind::Dch => Box::new(DchBaseline::build(graph)),
            AlgorithmKind::Dh2h => Box::new(Dh2hBaseline::build(graph)),
            AlgorithmKind::Toain => Box::new(ToainBaseline::build(graph, params.toain_level_cap)),
            AlgorithmKind::NChP => {
                Box::new(NChP::build(graph, params.num_partitions, params.seed, pool))
            }
            AlgorithmKind::PTdP => {
                Box::new(PTdP::build(graph, params.num_partitions, params.seed, pool))
            }
            AlgorithmKind::Mhl => Box::new(Mhl::build(graph)),
            AlgorithmKind::Pmhl => Box::new(Pmhl::build(graph, params.pmhl_config(), pool)),
            AlgorithmKind::PostMhl => Box::new(PostMhl::build(graph, params.postmhl_config())),
        }
    }

    /// Restores the index machinery of this kind from a snapshot.
    ///
    /// Kinds with a native serialized form (DCH, TOAIN, DH2H, MHL) decode
    /// `state` and skip construction entirely — the warm-restart fast path.
    /// PostMHL's `state` is its elimination order: its restore skips the
    /// nested dissection and the elimination but still customizes the
    /// shortcuts and fills the labels on that order, and gives the index a cold build on `graph` gives, bit
    /// for bit ([`PostMhl::from_state`]). For N-CH-P, P-TD-P and PMHL, and
    /// when there is no `state`, this **is a full build** from the
    /// snapshotted graph and `params`: their "restart" costs what a cold
    /// start costs. Corrupt `state` bytes surface as a typed
    /// [`SnapshotError`], never a panic.
    pub fn restore(
        self,
        graph: &Graph,
        params: &BuildParams,
        state: Option<&[u8]>,
    ) -> Result<Box<dyn IndexMaintainer>, SnapshotError> {
        match state.and_then(|bytes| self.decode(graph, params, bytes)) {
            Some(decoded) => decoded,
            None => Ok(self.build(graph, params)),
        }
    }

    /// Decodes `state` if this kind stores one; `None` means a restart of
    /// this kind is a rebuild (stored state is ignored). A decode of
    /// PostMHL's state is itself a construction on the stored order
    /// ([`Self::decode_builds`]).
    pub(crate) fn decode(
        self,
        graph: &Graph,
        params: &BuildParams,
        state: &[u8],
    ) -> Option<Result<Box<dyn IndexMaintainer>, SnapshotError>> {
        fn boxed<M: IndexMaintainer + 'static>(
            decoded: Result<M, SnapshotError>,
        ) -> Option<Result<Box<dyn IndexMaintainer>, SnapshotError>> {
            Some(decoded.map(|m| Box::new(m) as Box<dyn IndexMaintainer>))
        }
        match self {
            AlgorithmKind::Dch => boxed(DchBaseline::from_state(graph, state)),
            AlgorithmKind::Toain => boxed(ToainBaseline::from_state(graph, state)),
            AlgorithmKind::Dh2h => boxed(Dh2hBaseline::from_state(graph, state)),
            AlgorithmKind::Mhl => boxed(Mhl::from_state(graph, state)),
            AlgorithmKind::PostMhl => {
                boxed(PostMhl::from_state(graph, state, params.postmhl_config()))
            }
            _ => None,
        }
    }

    /// Whether [`Self::decode`] of this kind pays a construction: PostMHL's
    /// stored order saves the dissection and the elimination, not the
    /// shortcut customization or the label fill, so its restart reports
    /// build telemetry as a cold start does.
    pub(crate) fn decode_builds(self) -> bool {
        self == AlgorithmKind::PostMhl
    }
}

impl std::fmt::Display for AlgorithmKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, WeightRange};

    #[test]
    fn names_round_trip_and_match_the_maintainers() {
        let g = grid(6, 6, WeightRange::new(1, 10), 2);
        let params = BuildParams::new(2, 1);
        for kind in AlgorithmKind::ALL {
            assert_eq!(AlgorithmKind::from_name(kind.name()), Some(kind));
            let maintainer = kind.build(&g, &params);
            assert_eq!(maintainer.name(), kind.name(), "{kind:?} name mismatch");
            assert!(maintainer.num_query_stages() >= 1);
        }
        assert_eq!(
            AlgorithmKind::from_name("postmhl"),
            Some(AlgorithmKind::PostMhl)
        );
        assert_eq!(AlgorithmKind::from_name("nope"), None);
    }

    #[test]
    fn subsets_are_subsets_of_all() {
        for k in AlgorithmKind::OURS.iter().chain(AlgorithmKind::FAST.iter()) {
            assert!(AlgorithmKind::ALL.contains(k));
        }
    }
}
