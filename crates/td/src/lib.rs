//! # htsp-td
//!
//! MDE tree decomposition, the H2H hierarchical 2-hop labeling index, and its
//! dynamic maintenance (DH2H).
//!
//! The tree decomposition (§II, Definition 1) is obtained by Minimum Degree
//! Elimination: contracting vertices in MDE order produces, for each vertex
//! `v`, a tree node `X(v) = {v} ∪ X(v).N` where `X(v).N` are `v`'s neighbors
//! in the contraction graph at the moment `v` is removed. The parent of `X(v)`
//! is the lowest-ranked vertex of `X(v).N`. Because this is exactly the CH
//! contraction with all-pairs shortcuts (Lemma 4), [`TreeDecomposition`] is a
//! thin layer over [`htsp_ch::ContractionHierarchy`]: the shortcut arrays
//! `X(v).sc` *are* the CH upward arcs.
//!
//! On top of the decomposition, [`H2HIndex`] stores for every node the
//! distance array `X(v).dis` (distances from `v` to each of its ancestors) and
//! answers queries through the LCA of the two endpoints (§III-B) with the
//! query kernel [`label_distance`], which PostMHL shares. Dynamic
//! maintenance ([`H2HIndex::apply_batch`]) runs the two phases of DH2H \[33\]:
//! bottom-up shortcut update (delegated to DCH) followed by top-down label
//! update over the affected subtrees.

#![warn(missing_docs)]

pub mod decomposition;
pub mod dh2h;
pub mod h2h;
pub mod lca;

pub use decomposition::TreeDecomposition;
pub use dh2h::{repair_labels, H2HUpdateReport};
pub use h2h::{
    bag_by_depth, bag_min, fold_label, label_distance, min_plus, H2HIndex, LabelSession,
};
pub use lca::{LcaIndex, TourEntry};
