//! The partition-sharded serving tier: a fleet of
//! [`RoadNetworkServer`]s over the partitions of
//! one road network, fronted by a [`FleetRouter`].
//!
//! [`ShardedFleet::start`] partitions the graph with region growing, builds
//! one server per shard on the shard's induced subgraph (each with its own
//! maintenance thread and optional result cache), builds the boundary
//! [`OverlayGraph`](htsp_psp::OverlayGraph) index, and spawns the router.
//! The router owns ingest batching (shard servers run a *manual* coalesce
//! policy), overlay maintenance, and the publication of mutually consistent
//! fleet epochs — see the [`router`](crate::router) module docs for the
//! full ingest and query data paths.
//!
//! Everything is simulated in-process: "shards" are threads, not machines,
//! which keeps the visibility semantics of a real deployment (per-shard
//! publication, fleet-wide epochs) while staying deterministic enough for
//! exactness tests.

use crate::admission::AdmissionPolicy;
use crate::cache::CacheStats;
use crate::config::FleetConfig;
use crate::feed::CoalescePolicy;
use crate::load::LoadTarget;
use crate::router::{FleetQueryHandle, FleetRouter, FleetSession, FleetTicket, RouterCtx};
use crate::server::RoadNetworkServer;
use crate::service::{DistanceService, SessionSource};
use crate::slo::LatencyHistogram;
use crate::telemetry::TelemetryHub;
use htsp_graph::cow::CowStats;
use htsp_graph::dimacs::{load_dimacs_streaming_file, DimacsError};
use htsp_graph::{Dist, EdgeUpdate, Graph, UpdateGenerator, UpdateTimeline, VertexId};
use htsp_partition::partition_region_growing;
use htsp_psp::OverlayMaintainer;
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A fleet of shard servers plus the front-end router over the boundary
/// overlay. See the [module docs](self).
pub struct ShardedFleet {
    // Declared first so its workers stop pinning epochs before the router
    // and the shards go away.
    service: OnceLock<DistanceService>,
    // Declared before `servers` so the router thread (which writes to the
    // shard feeds) stops before any shard server shuts down.
    router: FleetRouter,
    /// The query side of `router`: what sessions and the query service pin
    /// fleet epochs through.
    query: FleetQueryHandle,
    servers: Vec<RoadNetworkServer>,
    config: FleetConfig,
    hub: Arc<TelemetryHub>,
}

impl ShardedFleet {
    /// Partitions `graph` into `config.num_shards` shards, builds one
    /// server per shard plus the boundary overlay, and spawns the router.
    ///
    /// The shard count is clamped to the number of vertices.
    pub fn start(graph: &Graph, config: FleetConfig) -> ShardedFleet {
        ShardedFleet::start_with_telemetry(graph, config, Arc::new(TelemetryHub::new()))
    }

    /// Like [`ShardedFleet::start`], but registers the router tier's
    /// `htsp_fleet_*` metrics and batch-stage spans on `hub` — pass the
    /// deployment-wide hub so one snapshot covers routing next to the
    /// serving and ingest metrics. Each shard *server* keeps its own
    /// private hub (shards model separate machines); the fleet hub holds
    /// the per-shard routing series instead.
    pub fn start_with_telemetry(
        graph: &Graph,
        config: FleetConfig,
        hub: Arc<TelemetryHub>,
    ) -> ShardedFleet {
        let k = config.num_shards.clamp(1, graph.num_vertices().max(1));
        let partition = partition_region_growing(graph, k, config.seed);
        // One pool drives the whole fleet build: the overlay's per-partition
        // hierarchies, then the shard indexes (one task per shard). Each
        // shard's index depends only on its own subgraph, so concurrent
        // construction yields exactly the indexes the sequential loop built.
        let pool = htsp_graph::WorkerPool::new(config.build_params.threads());
        let t = std::time::Instant::now();
        let core = OverlayMaintainer::build(graph.clone(), partition, &pool);
        let maintainers = pool.run("fleet_shard_build", core.partitioned.subgraphs.len(), |i| {
            let sub = &core.partitioned.subgraphs[i];
            let params = config.build_params.for_shard(sub.graph.num_vertices());
            config.algorithm.build(&sub.graph, &params)
        });
        crate::server::register_build_telemetry(
            &hub,
            config.algorithm.name(),
            &pool,
            t.elapsed().as_micros() as u64,
        );
        let mut servers = Vec::with_capacity(k);
        for (maintainer, sub) in maintainers.into_iter().zip(&core.partitioned.subgraphs) {
            let mut builder = RoadNetworkServer::builder()
                .maintainer(maintainer)
                .coalesce(CoalescePolicy::manual());
            if let Some(cache) = config.cache {
                builder = builder.result_cache(cache);
            }
            servers.push(builder.start(&sub.graph));
        }
        let ctx = RouterCtx {
            feeds: servers.iter().map(|s| s.feed().clone()).collect(),
            publishers: servers.iter().map(|s| s.publisher().clone()).collect(),
            policy: config.coalesce,
            ingest_bound: config.ingest_bound,
            hub: Arc::clone(&hub),
        };
        let caches = servers.iter().map(|s| s.cache().cloned()).collect();
        let router = FleetRouter::spawn(core, ctx, caches);
        ShardedFleet {
            service: OnceLock::new(),
            query: router.query_handle(),
            router,
            servers,
            config,
            hub,
        }
    }

    /// The fleet's telemetry hub (router-tier metrics and spans).
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// Reads a DIMACS `.gr` network from `path` and starts a fleet over it.
    ///
    /// Ingest goes through the streaming loader, which tokenizes the file
    /// straight into the CSR [`Graph`] without the builder's hash map.
    pub fn from_dimacs<P: AsRef<Path>>(
        path: P,
        config: FleetConfig,
    ) -> Result<ShardedFleet, DimacsError> {
        Ok(ShardedFleet::start(
            &load_dimacs_streaming_file(path)?,
            config,
        ))
    }

    /// The front-end router (ingest + sessions).
    pub fn router(&self) -> &FleetRouter {
        &self.router
    }

    /// Number of shards actually running.
    pub fn num_shards(&self) -> usize {
        self.servers.len()
    }

    /// The configuration the fleet was started with.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Human-readable fleet label, e.g. `fleet(4x dch)`.
    pub fn algorithm(&self) -> String {
        format!(
            "fleet({}x {})",
            self.servers.len(),
            self.servers.first().map_or("?", |s| s.algorithm())
        )
    }

    /// Submits one edge-weight update (global edge ids) to the fleet;
    /// blocks while the router's ingest queue is at its bound
    /// ([`FleetConfig::ingest_bound`]).
    pub fn submit(&self, update: EdgeUpdate) -> FleetTicket {
        self.router.submit(update)
    }

    /// Non-blocking submission: `None` when the ingest queue is at its
    /// bound (the update is shed and counted in the report).
    pub fn try_submit(&self, update: EdgeUpdate) -> Option<FleetTicket> {
        self.router.try_submit(update)
    }

    /// A clonable handle to the fleet's query side; see
    /// [`FleetRouter::query_handle`].
    pub fn query_handle(&self) -> FleetQueryHandle {
        self.query.clone()
    }

    /// Starts the fleet's [`DistanceService`]: `num_workers` threads
    /// answering [`QueryBatch`](crate::QueryBatch)es through sessions pinned
    /// to this fleet's epochs, under `policy` — the fleet-level admission
    /// point, recording into the fleet's hub. The fleet owns the service
    /// (it is what [`ShardedFleet::query_service`] returns from then on) and
    /// shuts it down before its router.
    ///
    /// # Panics
    ///
    /// Panics if the service was already started.
    pub fn start_query_service(
        &self,
        num_workers: usize,
        policy: AdmissionPolicy,
    ) -> &DistanceService {
        assert!(
            self.service.get().is_none(),
            "the fleet's query service is already running"
        );
        self.service.get_or_init(|| {
            DistanceService::for_fleet(
                self.query_handle(),
                num_workers,
                policy,
                Arc::clone(&self.hub),
            )
        })
    }

    /// The batched query front-end, once
    /// [`ShardedFleet::start_query_service`] has started it.
    pub fn query_service(&self) -> Option<&DistanceService> {
        self.service.get()
    }

    /// Forces a fleet batch boundary now.
    pub fn flush(&self) -> FleetTicket {
        self.router.flush()
    }

    /// Blocks until everything submitted so far is visible fleet-wide.
    pub fn wait_idle(&self) {
        self.router.wait_idle();
    }

    /// Opens a query session pinned to the current fleet epoch.
    pub fn session(&self) -> FleetSession {
        self.router.session()
    }

    /// One-shot convenience: `d(s, t)` on the current epoch.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.router.distance(s, t)
    }

    /// The currently published fleet version (0 = initial build).
    pub fn epoch_version(&self) -> u64 {
        self.router.fleet_version()
    }

    /// Sum of the shard indexes' sizes in bytes.
    pub fn index_size_bytes(&self) -> usize {
        self.servers
            .iter()
            .map(|s| s.with_index(|i| i.index_size_bytes()))
            .sum()
    }

    /// Snapshots the fleet-wide telemetry into a [`FleetReport`].
    pub fn report(&self) -> FleetReport {
        let topo = self.router.topology();
        let tel = self.router.telemetry();
        let elapsed = tel.started.elapsed().as_secs_f64();
        let shards = self
            .servers
            .iter()
            .enumerate()
            .map(|(i, server)| {
                let st = &tel.shards[i];
                let (vertices, edges, boundary) = topo.shard_sizes[i];
                ShardReport {
                    shard: i,
                    vertices,
                    edges,
                    boundary,
                    local_queries: st.local_queries.get(),
                    cross_queries: st.cross_queries.get(),
                    updates_routed: st.updates_routed.get(),
                    batches: st.batches.get(),
                    visibility_lags: st.lags.snapshot(),
                    cow: CowStats {
                        chunks_cloned: st.cow_chunks.get(),
                        bytes_cloned: st.cow_bytes.get(),
                    },
                    cache: server.cache().map(|c| c.stats()),
                }
            })
            .collect();
        FleetReport {
            algorithm: self.algorithm(),
            num_shards: self.servers.len(),
            fleet_version: self.router.fleet_version(),
            fleet_batches: tel.fleet_batches.get(),
            boundary_updates: tel.boundary_updates.get(),
            overlay_vertices: topo.overlay_vertices,
            overlay_edges: topo.overlay_edges,
            balance: topo.balance,
            boundary_fraction: topo.boundary_fraction,
            ingest_depth: self.router.ingest_depth(),
            ingest_bound: self.router.ingest_bound(),
            max_ingest_depth: tel.ingest_depth.max(),
            updates_shed: tel.ingest_shed.get(),
            elapsed,
            shards,
        }
    }

    /// Stops the query service (if one was started), the router (draining
    /// pending updates) and every shard server.
    pub fn shutdown(mut self) {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        self.router.shutdown();
        for server in self.servers.drain(..) {
            server.shutdown();
        }
    }
}

impl LoadTarget for ShardedFleet {
    fn name(&self) -> String {
        self.algorithm()
    }

    /// Fleet sessions always serve the fully repaired epoch.
    fn num_query_stages(&self) -> usize {
        1
    }

    fn sessions(&self) -> &dyn SessionSource {
        &self.query
    }

    fn query_service(&self) -> Option<&DistanceService> {
        self.service.get()
    }

    fn telemetry(&self) -> &TelemetryHub {
        &self.hub
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.report().cache_total()
    }

    /// Epochs are not logged per publication; shard-level publication and
    /// lag telemetry lives in the [`FleetReport`].
    fn take_publications(&self) -> Vec<(Instant, usize)> {
        Vec::new()
    }

    /// The round goes through the router (shard fan-out plus overlay
    /// maintenance); its one stage is the full submit-to-epoch-published
    /// time, since a fleet exposes no intermediate stages.
    fn apply_round(&self, gen: &mut UpdateGenerator, volume: usize) -> UpdateTimeline {
        let batch = gen.generate(self.session().graph(), volume);
        let submitted = Instant::now();
        self.router.submit_all(batch.as_slice().iter().copied());
        self.router.flush().wait_applied();
        UpdateTimeline::single("fleet_epoch", submitted.elapsed())
    }
}

impl std::fmt::Debug for ShardedFleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFleet")
            .field("algorithm", &self.algorithm())
            .field("epoch_version", &self.epoch_version())
            .finish()
    }
}

/// Telemetry of one shard server inside a [`FleetReport`].
#[derive(Clone, Debug)]
pub struct ShardReport {
    /// Shard id (= partition id).
    pub shard: usize,
    /// Vertices of the shard's induced subgraph.
    pub vertices: usize,
    /// Edges of the shard's induced subgraph.
    pub edges: usize,
    /// Boundary vertices of the shard.
    pub boundary: usize,
    /// Point-to-point pairs answered with both endpoints in this shard.
    pub local_queries: u64,
    /// Point-to-point pairs answered with exactly one endpoint here.
    pub cross_queries: u64,
    /// Edge updates the router fanned out to this shard.
    pub updates_routed: u64,
    /// Update batches this shard repaired.
    pub batches: u64,
    /// Submit-to-visible lag of every update routed here.
    pub visibility_lags: LatencyHistogram,
    /// Copy-on-write chunks/bytes the shard's repairs cloned.
    pub cow: CowStats,
    /// Result-cache counters, when the fleet runs a cache.
    pub cache: Option<CacheStats>,
}

impl ShardReport {
    /// Total query pairs that touched this shard.
    pub fn queries(&self) -> u64 {
        self.local_queries + self.cross_queries
    }

    /// The `q`-th percentile (0..=1) of this shard's visibility lags, in
    /// seconds; 0.0 when no update was routed here.
    pub fn lag_percentile(&self, q: f64) -> f64 {
        self.visibility_lags.quantile_secs(q)
    }
}

/// Aggregated telemetry of a [`ShardedFleet`].
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Fleet label, e.g. `fleet(4x dch)`.
    pub algorithm: String,
    /// Number of shards.
    pub num_shards: usize,
    /// Published fleet version at report time.
    pub fleet_version: u64,
    /// Fleet batches processed by the router.
    pub fleet_batches: u64,
    /// Updates that were boundary-incident (touched the overlay).
    pub boundary_updates: u64,
    /// Overlay graph size: boundary vertices.
    pub overlay_vertices: usize,
    /// Overlay graph size: inter edges + partition shortcuts.
    pub overlay_edges: usize,
    /// Partition load-balance factor (1.0 = perfect).
    pub balance: f64,
    /// Fraction of vertices on a partition boundary.
    pub boundary_fraction: f64,
    /// Ingest-queue depth (pending updates) at report time.
    pub ingest_depth: usize,
    /// Configured bound of the ingest queue.
    pub ingest_bound: usize,
    /// High-water mark of the ingest-queue depth.
    pub max_ingest_depth: u64,
    /// Updates shed by [`ShardedFleet::try_submit`] at a full ingest queue.
    pub updates_shed: u64,
    /// Seconds since the fleet started.
    pub elapsed: f64,
    /// Per-shard telemetry.
    pub shards: Vec<ShardReport>,
}

impl FleetReport {
    /// Total query pairs across all shards (cross-shard pairs count once
    /// per touched shard).
    pub fn total_queries(&self) -> u64 {
        self.shards.iter().map(|s| s.queries()).sum()
    }

    /// Fleet-wide query pairs per second since start.
    pub fn fleet_qps(&self) -> f64 {
        if self.elapsed <= 0.0 {
            return 0.0;
        }
        self.total_queries() as f64 / self.elapsed
    }

    /// Total updates routed to shards.
    pub fn total_updates(&self) -> u64 {
        self.shards.iter().map(|s| s.updates_routed).sum()
    }

    /// The `q`-th percentile (0..=1) of submit-to-visible lag across every
    /// update routed to any shard, in seconds.
    pub fn lag_percentile(&self, q: f64) -> f64 {
        let mut merged = LatencyHistogram::new();
        for s in &self.shards {
            merged.merge(&s.visibility_lags);
        }
        merged.quantile_secs(q)
    }

    /// Result-cache counters summed over all shards
    /// (via [`CacheStats::merge`]); `None` when no shard runs a cache.
    pub fn cache_total(&self) -> Option<CacheStats> {
        let stats: Vec<CacheStats> = self.shards.iter().filter_map(|s| s.cache).collect();
        if stats.is_empty() {
            None
        } else {
            Some(CacheStats::merge(stats))
        }
    }
}
