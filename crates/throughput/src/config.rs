//! Serving-side configuration: the result cache and the sharded fleet.

use crate::feed::CoalescePolicy;
use crate::registry::{AlgorithmKind, BuildParams};

/// Configuration of the snapshot-versioned
/// [`DistanceCache`](crate::DistanceCache).
///
/// The cache is **off by default** at the server level
/// ([`ServerBuilder`](crate::ServerBuilder) starts one only when
/// `result_cache(config)` is called): a result cache only pays for its
/// lookups under skewed traffic on search-based views — see the
/// [`cache`](crate::cache) module docs for the helps-vs-hurts analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total entries across all shards (each shard holds
    /// `ceil(capacity / shards)`, so the effective total rounds up to a
    /// multiple of `shards`).
    pub capacity: usize,
    /// Number of independently locked LRU shards (contention knob; one
    /// mutex each).
    pub shards: usize,
}

impl Default for CacheConfig {
    /// A serving-friendly laptop default: 64Ki entries over 16 shards
    /// (~1.5 MiB of slots).
    fn default() -> Self {
        CacheConfig {
            capacity: 64 * 1024,
            shards: 16,
        }
    }
}

impl CacheConfig {
    /// A cache with `capacity` total entries and the default shard count.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheConfig {
            capacity,
            ..CacheConfig::default()
        }
    }
}

/// Configuration of a [`ShardedFleet`](crate::fleet::ShardedFleet): the
/// partition-sharded serving tier of one road network.
///
/// Shard servers always run a **manual** coalesce policy — batching is the
/// router's job, so one fleet batch maps to exactly one batch on every
/// touched shard and the published fleet epochs stay mutually consistent.
/// The `coalesce` field therefore governs the *router's* batching.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Number of shards (partitions of the served graph); clamped to at
    /// least 1.
    pub num_shards: usize,
    /// Seed of the region-growing partitioner.
    pub seed: u64,
    /// The index every shard server runs on its induced subgraph.
    pub algorithm: AlgorithmKind,
    /// Construction parameters handed to each shard's index build (scaled
    /// per shard with [`BuildParams::for_shard`]).
    pub build_params: BuildParams,
    /// The *fleet-level* coalesce policy applied by the front-end router.
    pub coalesce: CoalescePolicy,
    /// Per-shard result cache; `None` disables caching fleet-wide.
    pub cache: Option<CacheConfig>,
    /// Bound of the router's ingest queue (pending updates):
    /// [`FleetRouter::submit`](crate::FleetRouter::submit) blocks at the
    /// bound (backpressure),
    /// [`FleetRouter::try_submit`](crate::FleetRouter::try_submit) sheds.
    /// Clamped to at least 1.
    pub ingest_bound: usize,
}

impl Default for FleetConfig {
    /// Four shards of the default DCH index under the paper-default
    /// coalesce policy, no result cache.
    fn default() -> Self {
        FleetConfig {
            num_shards: 4,
            seed: 1,
            algorithm: AlgorithmKind::Dch,
            build_params: BuildParams::default(),
            coalesce: CoalescePolicy::default(),
            cache: None,
            ingest_bound: FleetConfig::DEFAULT_INGEST_BOUND,
        }
    }
}

impl FleetConfig {
    /// A fleet of `num_shards` servers all running `algorithm`.
    pub fn new(num_shards: usize, algorithm: AlgorithmKind) -> Self {
        FleetConfig {
            num_shards,
            algorithm,
            ..FleetConfig::default()
        }
    }

    /// Replaces the router's coalesce policy.
    pub fn with_coalesce(mut self, policy: CoalescePolicy) -> Self {
        self.coalesce = policy;
        self
    }

    /// Enables the per-shard result cache.
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Default router ingest bound: deep enough that steady-state ingest
    /// never blocks, shallow enough that a stalled router surfaces as
    /// backpressure instead of unbounded memory growth.
    pub const DEFAULT_INGEST_BOUND: usize = 1 << 16;

    /// Replaces the router's ingest-queue bound.
    pub fn with_ingest_bound(mut self, bound: usize) -> Self {
        self.ingest_bound = bound;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_config_defaults() {
        let c = CacheConfig::default();
        assert_eq!(c.capacity, 65536);
        assert_eq!(c.shards, 16);
        assert_eq!(CacheConfig::with_capacity(100).capacity, 100);
        assert_eq!(CacheConfig::with_capacity(100).shards, 16);
    }
}
