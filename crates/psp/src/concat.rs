//! Distance concatenation through the boundary vertices (§III-C), and the
//! one session of every view that answers from a source-side state.
//!
//! A PSP query that may leave its partitions goes through the boundary:
//! `s`'s *fan* — its distance to each boundary vertex of its partition — is
//! joined with `t`'s fan through the overlay labels `L̃`. The no-boundary
//! stage fans with the partition labels `L_i`, the post-boundary stage
//! (P-TD-P, PMHL) with the corrected labels `L'_i`; both join through
//! [`concatenate`].
//!
//! The source side of a query — the source's partition and, once a target
//! needs it, its fan — does not depend on the target, so a session keeps it
//! while the source repeats and a one-to-many or matrix row pays for it once.

use crate::overlay::OverlayGraph;
use crate::partitioned::Partitioned;
use htsp_graph::{Dist, QuerySession, VertexId, INF};
use htsp_td::H2HIndex;

/// `v`'s fan: `(b, to_boundary(partition, v, b))` for every boundary vertex
/// `b` of `v`'s partition (global ids out, local ids into `to_boundary`), or
/// just `(v, 0)` when `v` is itself a boundary vertex.
pub fn boundary_fan(
    partitioned: &Partitioned,
    v: VertexId,
    to_boundary: impl Fn(usize, VertexId, VertexId) -> Dist,
) -> Vec<(VertexId, Dist)> {
    if partitioned.partition.is_boundary(v) {
        return vec![(v, Dist::ZERO)];
    }
    let pi = partitioned.partition.partition_of(v);
    let sub = &partitioned.subgraphs[pi];
    let lv = sub.to_local(v).expect("vertex must map into its partition");
    sub.boundary_local
        .iter()
        .map(|&lb| (sub.to_global(lb), to_boundary(pi, lv, lb)))
        .collect()
}

/// The concatenation `min d_s + L̃(b_s, b_t) + d_t` over every pair of the
/// two fans (`INF` if no pair connects).
pub fn concatenate(
    overlay: &OverlayGraph,
    overlay_index: &H2HIndex,
    from_s: &[(VertexId, Dist)],
    from_t: &[(VertexId, Dist)],
) -> Dist {
    // Every fan entry is a boundary vertex, and every boundary vertex is an
    // overlay vertex.
    let local = |b| overlay.to_local(b).expect("boundary vertex in the overlay");
    let mut best = INF;
    for &(bp, dp) in from_s.iter().filter(|(_, d)| d.is_finite()) {
        let lbp = local(bp);
        for &(bq, dq) in from_t.iter().filter(|(_, d)| d.is_finite()) {
            let mid = if bp == bq {
                Dist::ZERO
            } else {
                overlay_index.distance(lbp, local(bq))
            };
            best = best.min(dp.saturating_add(mid).saturating_add(dq));
        }
    }
    best
}

/// The source side of a query: the source, its partition and, computed the
/// first time a target needs it, its fan.
pub(crate) struct Source {
    pub(crate) vertex: VertexId,
    pub(crate) partition: usize,
    fan: Option<Vec<(VertexId, Dist)>>,
}

impl Source {
    fn new(partitioned: &Partitioned, s: VertexId) -> Self {
        Source {
            vertex: s,
            partition: partitioned.partition.partition_of(s),
            fan: None,
        }
    }

    /// The source's fan, computed by `fan` on first use.
    pub(crate) fn fan(
        &mut self,
        fan: impl FnOnce(VertexId) -> Vec<(VertexId, Dist)>,
    ) -> &[(VertexId, Dist)] {
        let s = self.vertex;
        self.fan.get_or_insert_with(|| fan(s))
    }
}

/// A view that answers `d(s, t)` from the source side of `s`.
pub(crate) trait FromSource {
    /// The partition layout the view answers over.
    fn partitioned(&self) -> &Partitioned;

    /// `d(source, t)` for `t != source`.
    fn distance_from(&self, source: &mut Source, t: VertexId) -> Dist;

    /// A one-off `d(s, t)`.
    fn distance_once(&self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        self.distance_from(&mut Source::new(self.partitioned(), s), t)
    }
}

/// The session of every [`FromSource`] view: keeps the source side while the
/// source repeats. Label lookups need no scratch.
pub(crate) struct SourceSession<'a, V> {
    view: &'a V,
    source: Option<Source>,
}

impl<'a, V> SourceSession<'a, V> {
    pub(crate) fn new(view: &'a V) -> Self {
        SourceSession { view, source: None }
    }
}

impl<V: FromSource> QuerySession for SourceSession<'_, V> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        let view = self.view;
        let source = match &mut self.source {
            Some(source) if source.vertex == s => source,
            slot => slot.insert(Source::new(view.partitioned(), s)),
        };
        view.distance_from(source, t)
    }
}
