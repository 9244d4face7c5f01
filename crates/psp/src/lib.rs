//! # htsp-psp
//!
//! Partitioned Shortest Path (PSP) index machinery (§III-C, §IV of the paper).
//!
//! The crate provides the building blocks shared by the PSP baselines and by
//! PMHL in `htsp-core`:
//!
//! * [`Partitioned`] — the partitioned view of a road network: per-partition
//!   subgraphs with local↔global id maps, boundary bookkeeping, and routing of
//!   update batches into intra-/inter-partition changes.
//! * [`partition_index::PartitionIndex`] — a per-partition MHL (H2H + shortcut
//!   arrays) built with a boundary-first local order, exposing the
//!   contraction-generated boundary shortcuts of the *optimized no-boundary
//!   strategy* (Theorem 2).
//! * [`overlay::OverlayGraph`] — the overlay graph `G̃` over all boundary
//!   vertices and its MHL index `L̃`.
//! * [`pch::PchSearcher`] — the Partitioned-CH query: a bidirectional upward
//!   search over the union of the partition and overlay shortcut arrays
//!   (PMHL Q-Stage 2, and the query engine of N-CH-P).
//! * [`no_boundary`] / [`post_boundary`] — concatenation-based query
//!   processing of the no-boundary and post-boundary strategies, and the
//!   extended partitions `{G'_i}` with their corrected indexes `{L'_i}`;
//!   [`concat`](mod@concat) holds the one boundary concatenation both use.
//! * [`cross_boundary::CrossBoundaryIndex`] — the flat cross-boundary 2-hop
//!   labeling `L*` of §IV-A, eliminating distance concatenation for
//!   cross-partition queries.
//! * [`baselines`] — the PSP baselines of the evaluation: N-CH-P
//!   (update-oriented, no-boundary + CH) and P-TD-P (query-oriented,
//!   post-boundary + H2H).
//!
//! # One view per query machinery
//!
//! Each PSP query machinery has exactly one snapshot type, and every index
//! that serves it publishes that type, tagged with its own algorithm name
//! and stage:
//!
//! | view | published by |
//! |---|---|
//! | [`PchView`] | N-CH-P; PMHL Q-Stage 2 |
//! | [`NoBoundaryView`] | PMHL Q-Stage 3 |
//! | [`PostBoundaryView`] (`L'_i ∘ L̃ ∘ L'_j`) | P-TD-P; PMHL Q-Stage 4 |
//! | [`CrossBoundaryView`] (`L*`) | PMHL Q-Stage 5 |
//!
//! The three label views share one session, which keeps the source's
//! partition and boundary fan while the source repeats.

#![warn(missing_docs)]

pub mod baselines;
pub mod concat;
pub mod cross_boundary;
pub mod no_boundary;
pub mod overlay;
pub mod partition_index;
pub mod partitioned;
pub mod pch;
pub mod post_boundary;

pub use baselines::{NChP, PTdP};
pub use cross_boundary::{CrossBoundaryIndex, CrossBoundaryView};
pub use no_boundary::NoBoundaryView;
pub use overlay::{OverlayEdgeSource, OverlayGraph, OverlayMaintainer};
pub use partition_index::PartitionIndex;
pub use partitioned::{Partitioned, RoutedUpdates, Subgraph};
pub use pch::{PchSearcher, PchView};
pub use post_boundary::{ExtendedPartition, PostBoundaryIndexes, PostBoundaryView};
