//! # htsp-partition
//!
//! Graph partitioning for the PSP indexes.
//!
//! Two partitioners are provided:
//!
//! * [`planar::partition_region_growing`] — a balanced edge-cut partitioner
//!   (seeded region growing + boundary-reducing refinement) standing in for
//!   PUNCH \[61\], which the paper uses to build PMHL (§V-C). The
//!   substitution is safe because no PSP answer depends on which partition
//!   is chosen: the boundary vertices are the endpoints of cut edges, so
//!   every path between two partitions passes through them, and the overlay
//!   preserves boundary-to-boundary distances for any vertex partition
//!   (Theorem 2). The partition's quality — balance and boundary size —
//!   only sets the cost: balance bounds the per-thread share of the
//!   partition-parallel stages, and the boundary size bounds the overlay and
//!   every concatenation. Those are the two quantities this partitioner
//!   optimises.
//! * [`td_partition::td_partition`] — the paper's own Tree-Decomposition-based
//!   partitioning (Algorithm 2), which PostMHL uses so that the partition
//!   structure inherits the high-quality MDE vertex ordering (§VI-A).
//!
//! Both produce partition descriptions exposing, per partition, the vertex
//! set, the boundary vertex set `B_i`, and the classification of edges into
//! intra- and inter-partition edges (§III-C).

#![warn(missing_docs)]

pub mod planar;
pub mod result;
pub mod td_partition;

pub use planar::partition_region_growing;
pub use result::PartitionResult;
pub use td_partition::{td_partition, TdPartition, TdPartitionConfig};
