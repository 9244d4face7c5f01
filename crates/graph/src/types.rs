//! Fundamental identifier and distance types shared by all HTSP crates.
//!
//! Vertex ids and distances are deliberately 32-bit: road networks with tens
//! of millions of vertices and travel-time weights fit comfortably, and the
//! hub-labeling indexes store hundreds of millions of distance entries, so
//! halving the memory footprint matters (see the type-size guidance in the
//! Rust performance guide).

use std::fmt;

/// A compact vertex identifier (index into the graph's vertex arrays).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VertexId(pub u32);

impl VertexId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `VertexId` from a `usize` index.
    ///
    /// # Panics
    /// Panics if `idx` does not fit in `u32`.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        debug_assert!(idx <= u32::MAX as usize, "vertex index overflows u32");
        VertexId(idx as u32)
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A compact edge identifier (index into the graph's edge arrays).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

impl EdgeId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds an `EdgeId` from a `usize` index.
    #[inline]
    pub fn from_index(idx: usize) -> Self {
        debug_assert!(idx <= u32::MAX as usize, "edge index overflows u32");
        EdgeId(idx as u32)
    }
}

/// Edge weight (positive travel time). Stored as `u32`.
pub type Weight = u32;

/// A shortest-path distance value.
///
/// `Dist` is a thin wrapper around `u32` whose addition saturates at
/// [`INF`], so `INF + w == INF` and unreachable vertices propagate correctly
/// through distance concatenation (the PSP query of §III-C chains up to three
/// distance values).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dist(pub u32);

/// The "unreachable" sentinel distance.
pub const INF: Dist = Dist(u32::MAX);

impl Dist {
    /// Zero distance.
    pub const ZERO: Dist = Dist(0);

    /// Returns `true` if this distance is the unreachable sentinel.
    #[inline]
    pub fn is_inf(self) -> bool {
        self.0 == u32::MAX
    }

    /// Returns `true` if this distance is finite (reachable).
    #[inline]
    pub fn is_finite(self) -> bool {
        !self.is_inf()
    }

    /// Saturating addition: `INF + x == INF`, and finite sums that would
    /// overflow also clamp to `INF`.
    #[inline]
    pub fn saturating_add(self, other: Dist) -> Dist {
        // `INF` is `u32::MAX`, so the integer saturation is the sentinel's.
        Dist(self.0.saturating_add(other.0))
    }

    /// Adds a raw weight with the same saturating semantics.
    #[inline]
    pub fn saturating_add_weight(self, w: Weight) -> Dist {
        self.saturating_add(Dist(w))
    }

    /// Returns the minimum of two distances.
    #[inline]
    pub fn min(self, other: Dist) -> Dist {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the inner value, panicking if it is the `INF` sentinel.
    #[inline]
    pub fn expect_finite(self) -> u32 {
        assert!(self.is_finite(), "distance is INF");
        self.0
    }
}

impl fmt::Debug for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_inf() {
            write!(f, "INF")
        } else {
            write!(f, "{}", self.0)
        }
    }
}

impl fmt::Display for Dist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Weight> for Dist {
    #[inline]
    fn from(w: Weight) -> Self {
        Dist(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::from_index(17);
        assert_eq!(v.index(), 17);
        assert_eq!(format!("{v}"), "v17");
        assert_eq!(format!("{v:?}"), "v17");
    }

    #[test]
    fn edge_id_roundtrip() {
        let e = EdgeId::from_index(3);
        assert_eq!(e.index(), 3);
    }

    #[test]
    fn dist_saturating_add_inf() {
        assert_eq!(INF.saturating_add(Dist(5)), INF);
        assert_eq!(Dist(5).saturating_add(INF), INF);
        assert_eq!(INF.saturating_add(INF), INF);
    }

    #[test]
    fn dist_saturating_add_finite() {
        assert_eq!(Dist(3).saturating_add(Dist(4)), Dist(7));
        assert_eq!(Dist(0).saturating_add(Dist(0)), Dist(0));
    }

    #[test]
    fn dist_saturating_add_overflow_clamps() {
        let big = Dist(u32::MAX - 1);
        assert_eq!(big.saturating_add(Dist(10)), INF);
        assert!(big.saturating_add(Dist(10)).is_inf());
    }

    #[test]
    fn dist_min() {
        assert_eq!(Dist(3).min(Dist(9)), Dist(3));
        assert_eq!(INF.min(Dist(9)), Dist(9));
        assert_eq!(Dist(2).min(INF), Dist(2));
    }

    #[test]
    fn dist_ordering_places_inf_last() {
        assert!(Dist(0) < Dist(1));
        assert!(Dist(1_000_000) < INF);
    }

    #[test]
    fn dist_display() {
        assert_eq!(format!("{}", Dist(12)), "12");
        assert_eq!(format!("{}", INF), "INF");
    }

    #[test]
    #[should_panic(expected = "distance is INF")]
    fn expect_finite_panics_on_inf() {
        let _ = INF.expect_finite();
    }
}
