//! # htsp-core
//!
//! The paper's primary contribution: multi-stage partitioned hub-labeling
//! indexes for high-throughput shortest-distance queries on large dynamic road
//! networks.
//!
//! * [`Mhl`] — Multi-stage Hierarchical 2-hop Labeling (§V-A): a single H2H
//!   index extended with its shortcut arrays so that, while the labels are
//!   being repaired after an update batch, queries can already be served by
//!   BiDijkstra (stage 1) and by a CH search on the repaired shortcut arrays
//!   (stage 2), before the full H2H query speed returns (stage 3).
//! * [`Pmhl`] — Partitioned MHL (§V): one MHL per partition plus an overlay
//!   MHL, maintained in parallel across partitions, with no-boundary,
//!   post-boundary and cross-boundary indexes released stage by stage
//!   (Figure 7: five update stages, five query stages).
//! * [`PostMhl`] — Post-partitioned MHL (§VI): a single tree decomposition
//!   partitioned by TD-partitioning (Algorithm 2), holding the overlay,
//!   post-boundary (label entries to in-partition ancestors and to the
//!   partition's boundary vertices, the paper's `disB`) and cross-boundary
//!   (entries to the other overlay ancestors) indexes in one label table
//!   (Figure 8), so its index is DH2H's, with H2H-equivalent final query
//!   speed (Theorem 1) and partition-parallel maintenance.
//!
//! All three implement [`htsp_graph::IndexMaintainer`] and publish
//! [`htsp_graph::QueryView`] snapshots (with per-thread
//! [`htsp_graph::QuerySession`]s for batched workloads), so the server, the
//! load driver, and the distance service treat them uniformly with the
//! baselines. Every stage is a query machinery the baselines already have,
//! so the snapshots *are* the baselines' views: `htsp-baselines`'
//! BiDijkstra, CH and H2H views for MHL and PostMHL, and `htsp-psp`'s PCH,
//! no-boundary, post-boundary and cross-boundary views for PMHL, each tagged
//! with the algorithm and stage it is published as. The only view of this
//! crate's own is PostMHL's post-boundary stage ([`postmhl::DisbView`]),
//! which answers from the boundary and in-partition label entries before
//! the rest of each row is repaired.

#![warn(missing_docs)]

pub mod mhl;
pub mod pmhl;
pub mod postmhl;

pub use mhl::Mhl;
pub use pmhl::{Pmhl, PmhlConfig};
pub use postmhl::{PostMhl, PostMhlConfig};
// The construction worker pool, re-exported so index consumers can call the
// builder that forks (PMHL) without depending on `htsp-graph`
// directly.
pub use htsp_graph::{available_parallelism, StageStats, WorkerPool};
