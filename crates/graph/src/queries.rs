//! Shortest-distance query sets.
//!
//! Following the evaluation protocol of §VII-A, queries are uniformly random
//! `(s, t)` pairs. A [`QuerySet`] is just the pairs; arrival times belong to
//! the load driver in `htsp-throughput`, which draws them as it runs.

use crate::graph::Graph;
use crate::types::VertexId;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A single shortest-distance query `q(s, t)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Query {
    /// Source vertex.
    pub source: VertexId,
    /// Target vertex.
    pub target: VertexId,
}

impl Query {
    /// Creates a query.
    pub fn new(source: VertexId, target: VertexId) -> Self {
        Query { source, target }
    }
}

/// A set of queries without timing information.
#[derive(Clone, Debug, Default)]
pub struct QuerySet {
    queries: Vec<Query>,
}

impl QuerySet {
    /// Creates an empty query set.
    pub fn new() -> Self {
        QuerySet {
            queries: Vec::new(),
        }
    }

    /// Generates `count` uniformly random queries over the vertices of
    /// `graph`, excluding trivial `s == t` pairs.
    pub fn random(graph: &Graph, count: usize, seed: u64) -> Self {
        let n = graph.num_vertices();
        assert!(n >= 2, "need at least two vertices to generate queries");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut queries = Vec::with_capacity(count);
        while queries.len() < count {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            if s != t {
                queries.push(Query::new(VertexId::from_index(s), VertexId::from_index(t)));
            }
        }
        QuerySet { queries }
    }

    /// Generates `count` *local* queries: the target is drawn from vertices
    /// whose id is within `radius` of the source id. For grid-based synthetic
    /// networks this approximates same-city / same-partition queries (the
    /// query class the post-boundary strategy optimizes, §V-C).
    pub fn random_local(graph: &Graph, count: usize, radius: usize, seed: u64) -> Self {
        let n = graph.num_vertices();
        assert!(n >= 2, "need at least two vertices to generate queries");
        let radius = radius.max(1);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut queries = Vec::with_capacity(count);
        while queries.len() < count {
            let s = rng.gen_range(0..n);
            let lo = s.saturating_sub(radius);
            let hi = (s + radius).min(n - 1);
            let t = rng.gen_range(lo..=hi);
            if s != t {
                queries.push(Query::new(VertexId::from_index(s), VertexId::from_index(t)));
            }
        }
        QuerySet { queries }
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Iterator over the queries.
    pub fn iter(&self) -> impl Iterator<Item = &Query> {
        self.queries.iter()
    }

    /// Slice of the queries.
    pub fn as_slice(&self) -> &[Query] {
        &self.queries
    }

    /// Adds a query.
    pub fn push(&mut self, q: Query) {
        self.queries.push(q);
    }
}

impl<'a> IntoIterator for &'a QuerySet {
    type Item = &'a Query;
    type IntoIter = std::slice::Iter<'a, Query>;

    fn into_iter(self) -> Self::IntoIter {
        self.queries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{grid, WeightRange};

    #[test]
    fn random_queries_have_distinct_endpoints() {
        let g = grid(8, 8, WeightRange::default(), 1);
        let qs = QuerySet::random(&g, 100, 42);
        assert_eq!(qs.len(), 100);
        for q in &qs {
            assert_ne!(q.source, q.target);
            assert!(q.source.index() < g.num_vertices());
            assert!(q.target.index() < g.num_vertices());
        }
    }

    #[test]
    fn random_queries_deterministic() {
        let g = grid(8, 8, WeightRange::default(), 1);
        let a = QuerySet::random(&g, 50, 7);
        let b = QuerySet::random(&g, 50, 7);
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn local_queries_stay_close() {
        let g = grid(16, 16, WeightRange::default(), 1);
        let qs = QuerySet::random_local(&g, 200, 10, 3);
        for q in &qs {
            let d = q.source.index().abs_diff(q.target.index());
            assert!(d <= 10, "local query spans {d} ids");
        }
    }
}
