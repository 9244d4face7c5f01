//! # htsp-graph
//!
//! Dynamic weighted road-network graph model used by every index in the HTSP
//! reproduction (PMHL, PostMHL, and all baselines).
//!
//! The crate provides:
//!
//! * [`Graph`] — the one graph type: an undirected, positively weighted
//!   graph whose CSR topology is frozen once behind an `Arc` and whose exact
//!   per-arc weights live in a chunked [`CowVec`], so a clone copies chunk
//!   pointers and a batch copies only the weight chunks it writes. Vertices
//!   are compact [`VertexId`]s (`u32`), distances are [`Dist`]s (`u32` with
//!   a saturating `INF` sentinel), matching the paper's model in §II.
//! * [`updates`] — edge-weight *increase* / *decrease* update batches
//!   ([`UpdateBatch`]) and a seeded random generator following the paper's
//!   protocol (§VII-A: pick edges uniformly, halve or double their weight).
//! * [`gen`] — synthetic road-like network generators (grid, ring-radial city
//!   model, random geometric graph) used as laptop-scale substitutes for the
//!   DIMACS / NavInfo datasets of Table I.
//! * [`dimacs`] — a reader/writer for the DIMACS `.gr` format so the real
//!   datasets can be dropped in when available, including a streaming loader
//!   that builds the CSR without the builder's hash map.
//! * [`storage`] — the layer under [`Graph`]: the CSR topology, the
//!   per-arc weights and their chunk size, the [`Neighbors`] iterator the
//!   searches read a vertex's targets and weights through, and [`Arcs`],
//!   the same walk with edge ids.
//! * [`snapshot`] — the versioned, checksummed index-snapshot wire format
//!   ([`IndexSnapshot`], [`ByteWriter`]/[`ByteReader`]) behind
//!   `save_snapshot`/`load_snapshot` warm restarts in `htsp-throughput`.
//! * [`queries`] — shortest-distance query sets: uniform random and local
//!   pairs.
//! * [`index_api`] — the read/write index API: immutable, thread-safe
//!   [`QueryView`] snapshots published by an [`IndexMaintainer`] through a
//!   [`SnapshotPublisher`] at the end of each completed update stage
//!   (Figure 1). Serving threads open a per-thread [`QuerySession`] on a
//!   view for point-to-point, one-to-many, and matrix workloads.
//! * [`cow`] — the chunked copy-on-write storage layer ([`CowVec`],
//!   [`CowTable`]) that snapshot isolation rides on: whole-structure clones
//!   are chunk-pointer copies, element writes clone at most one chunk, and
//!   per-lineage [`CowStats`] counters report the chunks/bytes each
//!   maintenance stage actually copied.
//! * [`obs`] — the observability contract ([`TraceId`], [`SpanSink`]): the
//!   trace-id and span-recording vocabulary pipeline hooks use to report
//!   where time went, implemented by the serving tier's telemetry hub.
//! * [`par`] — the scoped construction [`WorkerPool`]: deterministic
//!   fork/join parallelism (index-ordered results) with per-stage
//!   wall-clock accounting, used by every per-partition and per-shard
//!   fan-out of index construction.
//! * [`scratch`] — the [`ScratchPool`] that lets one immutable view serve
//!   many query threads, each with its own search working memory; sessions
//!   hold a [`ScratchGuard`] over it for their whole lifetime.
//!
//! # Quick example
//!
//! ```
//! use htsp_graph::{gen, Graph, VertexId};
//!
//! // An 8x8 grid road network with travel-time weights in [1, 10].
//! let g: Graph = gen::grid(8, 8, gen::WeightRange::new(1, 10), 42);
//! assert_eq!(g.num_vertices(), 64);
//! assert!(g.num_edges() > 0);
//! let v = VertexId(0);
//! assert!(g.degree(v) >= 2);
//! ```

#![warn(missing_docs)]

pub mod cow;
pub mod dimacs;
pub mod gen;
pub mod graph;
pub mod index_api;
pub mod obs;
pub mod par;
pub mod queries;
pub mod scratch;
pub mod snapshot;
pub mod storage;
pub mod types;
pub mod updates;

pub use cow::{CowStats, CowTable, CowVec, RowRead};
pub use graph::{Graph, GraphBuilder};
pub use index_api::{
    FallbackSession, IndexMaintainer, PublishEvent, PublishHook, QuerySession, QueryView,
    SnapshotPublisher, StageReport, UpdateTimeline,
};
pub use obs::{NullSink, SpanSink, TraceId};
pub use par::{available_parallelism, StageStats, WorkerPool};
pub use queries::{Query, QuerySet};
pub use scratch::{ScratchGuard, ScratchPool};
pub use snapshot::{le_u32, ByteReader, ByteWriter, IndexSnapshot, SnapshotError};
pub use storage::{Arcs, Neighbors};
#[doc(hidden)]
pub use storage::{CsrGraph, GraphBytes};
pub use types::{Dist, EdgeId, VertexId, Weight, INF};
pub use updates::{EdgeUpdate, UpdateBatch, UpdateGenerator, UpdateKind};
