//! Serving-side configuration: the result cache.

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
