//! # htsp-ch
//!
//! Contraction Hierarchies (CH) and their dynamic maintenance (DCH).
//!
//! The CH index (§III-A of the paper) contracts vertices in ascending order of
//! importance; contracting `v` inserts shortcuts between the still-uncontracted
//! neighbors of `v` so that shortest distances are preserved. Queries run a
//! bidirectional *upward* search on the shortcut graph.
//!
//! Two construction modes are offered:
//!
//! * **All-pairs shortcuts** ([`ShortcutMode::AllPairs`]) — every pair of
//!   higher-ranked neighbors receives a shortcut, exactly the shortcut set
//!   of the tree decomposition eliminating in the same order. This is the
//!   mode used throughout the paper (Lemma 4: "DH2H can generate equivalent
//!   shortcuts required by DCH"), and the only mode that supports dynamic
//!   maintenance.
//! * **Witness-pruned** ([`ShortcutMode::WitnessPruned`]) — the classic CH
//!   optimization that skips a shortcut when a witness path not through `v` is
//!   at most as short; produces a smaller static index for baseline
//!   comparisons.
//!
//! Dynamic maintenance ([`ContractionHierarchy::apply_batch`]) implements the
//! *bottom-up shortcut update* shared by DCH and the first phase of DH2H
//! (§III, §V-D U-Stage 2): in ascending rank order, every row whose inputs
//! may have moved is re-derived whole from the invariant
//!
//! ```text
//! sc(v, u) = min( |e(v, u)|,  min over x with {v,u} ⊆ N_up(x) of sc(x, v) + sc(x, u) )
//! ```
//!
//! An all-pairs build re-derives every row the same way, in ascending rank,
//! over the rows of its order's symbolic fill (`hierarchy.rs`); only the
//! order comes from an elimination, and a given order needs none.

#![warn(missing_docs)]

pub mod dch;
mod dissection;
mod elimination;
pub mod hierarchy;
pub mod ordering;
pub mod persist;
pub mod query;

pub use dch::ShortcutChange;
#[doc(hidden)]
pub use hierarchy::FlatHierarchy;
pub use hierarchy::{ContractionHierarchy, ShortcutMode};
pub use ordering::{boundary_first_order, mde_order, OrderingStrategy, VertexOrder};
pub use query::{ChQuery, ChQuerySession};
