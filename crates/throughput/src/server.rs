//! The server facade: one object that owns the whole serving stack of the
//! paper's system model — graph, index maintenance, snapshot publication,
//! and the batched query front-end.
//!
//! ```text
//!            submit(EdgeUpdate) ──► UpdateFeed ──┐ coalesce (CoalescePolicy)
//!                                                ▼
//!                               maintenance thread: apply_batch
//!                                    │ staged publications
//!                                    ▼
//!                             SnapshotPublisher ──► QueryView snapshots
//!                                    │                    ▲
//!                                    ▼                    │ sessions
//!                        ticket.wait_visible()      DistanceService /
//!                        (read-your-writes)         caller threads
//! ```
//!
//! A [`RoadNetworkServer`] is built from the [`AlgorithmKind`] registry (or
//! a custom [`IndexMaintainer`]) via [`RoadNetworkServer::builder`]. Once
//! started, queries and updates run *concurrently*: readers drain published
//! snapshots and are never blocked by maintenance; writers submit into the
//! [`UpdateFeed`] and use their [`UpdateTicket`]s for read-your-writes
//! acknowledgements. The load driver ([`run_load`](crate::run_load)) drives
//! this same facade.
//!
//! [`ServerBuilder::shards`] makes the same facade a partition-sharded
//! fleet: the hosted maintainer routes each batch over shard servers and
//! the boundary overlay and publishes one
//! [`FleetView`](crate::router::FleetView) per batch (see the
//! [`fleet`](crate::fleet) module docs). Nothing else about the server
//! changes.

use crate::admission::AdmissionPolicy;
use crate::cache::DistanceCache;
use crate::config::CacheConfig;
use crate::feed::{CoalescePolicy, UpdateFeed, UpdateTicket};
use crate::fleet::FleetMaintainer;
use crate::registry::{AlgorithmKind, BuildParams};
use crate::service::{BatchTicket, DistanceService, QueryBatch, SnapshotSource};
use crate::telemetry::{Gauge, TelemetryHub};
use htsp_graph::{
    Dist, EdgeUpdate, Graph, IndexMaintainer, IndexSnapshot, QueryView, SnapshotError,
    SnapshotPublisher, VertexId,
};
use std::path::Path;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;

/// Prometheus metric name of the per-component memory-footprint gauges
/// (`htsp_storage_bytes{component="..."}`), registered by every server at
/// start and refreshable via
/// [`RoadNetworkServer::refresh_storage_gauges`].
pub const STORAGE_BYTES_METRIC: &str = "htsp_storage_bytes";

/// Builder for [`RoadNetworkServer`]; obtained from
/// [`RoadNetworkServer::builder`].
pub struct ServerBuilder {
    algorithm: AlgorithmKind,
    params: BuildParams,
    maintainer: Option<Box<dyn IndexMaintainer>>,
    shards: usize,
    policy: CoalescePolicy,
    query_workers: usize,
    cache: Option<CacheConfig>,
    admission: AdmissionPolicy,
    telemetry: Option<Arc<TelemetryHub>>,
}

impl Default for ServerBuilder {
    fn default() -> Self {
        ServerBuilder {
            algorithm: AlgorithmKind::PostMhl,
            params: BuildParams::default(),
            maintainer: None,
            shards: 1,
            policy: CoalescePolicy::default(),
            query_workers: 0,
            cache: None,
            admission: AdmissionPolicy::Block,
            telemetry: None,
        }
    }
}

impl ServerBuilder {
    /// Selects the index algorithm from the registry (default:
    /// [`AlgorithmKind::PostMhl`], the paper's headline contribution).
    pub fn algorithm(mut self, kind: AlgorithmKind) -> Self {
        self.algorithm = kind;
        self
    }

    /// Sets the registry construction parameters.
    pub fn build_params(mut self, params: BuildParams) -> Self {
        self.params = params;
        self
    }

    /// Uses an already-built maintainer instead of the registry (custom
    /// index machinery, or a registry build whose internals the caller
    /// inspected before hosting it).
    pub fn maintainer(mut self, maintainer: Box<dyn IndexMaintainer>) -> Self {
        self.maintainer = Some(maintainer);
        self
    }

    /// Serves the graph as a fleet of `k` shards: the graph is partitioned
    /// with region growing (seeded by [`BuildParams::seed`]) and every
    /// shard runs its own server of the selected algorithm on its induced
    /// subgraph, with [`BuildParams::for_shard`] parameters, behind one
    /// boundary overlay. The fleet serves through this server's feed,
    /// publisher, cache and query workers, and its views are
    /// [`FleetView`](crate::router::FleetView)s named `fleet(kx KIND)`.
    ///
    /// `k` is clamped to the number of vertices; 1 (the default) is a
    /// plain server. A fleet does not restart from
    /// [`RoadNetworkServer::save_snapshot`]'s file:
    /// [`ServerBuilder::start_from_snapshot`] refuses its algorithm name.
    ///
    /// # Panics
    ///
    /// [`ServerBuilder::start`] panics when `k > 1` is combined with
    /// [`ServerBuilder::maintainer`]: a fleet builds its shard indexes
    /// itself.
    pub fn shards(mut self, k: usize) -> Self {
        self.shards = k;
        self
    }

    /// Sets the update-coalescing policy (batch size / Δt).
    pub fn coalesce(mut self, policy: CoalescePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Number of [`DistanceService`] worker threads answering
    /// [`QueryBatch`]es (0 — the default — starts no service; callers query
    /// snapshots directly).
    pub fn query_workers(mut self, n: usize) -> Self {
        self.query_workers = n;
        self
    }

    /// Sets the [`AdmissionPolicy`] of the [`DistanceService`] queue
    /// (default: [`AdmissionPolicy::Block`], the legacy unbounded queue).
    /// Only meaningful together with [`ServerBuilder::query_workers`].
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Enables the snapshot-versioned [`DistanceCache`]: the server's
    /// serving paths ([`RoadNetworkServer::distance`] and the
    /// [`DistanceService`] workers) consult it before running a search, and
    /// every snapshot publication invalidates it by epoch (see the
    /// [`cache`](crate::cache) module docs).
    ///
    /// **Off by default** — caching only pays under skewed (hot-pair)
    /// traffic on search-based views.
    pub fn result_cache(mut self, config: CacheConfig) -> Self {
        self.cache = Some(config);
        self
    }

    /// Records the server's ingest, maintenance, publish, admission, and
    /// cache telemetry into `hub` instead of a private hub — pass one hub to
    /// every component of a deployment so a single
    /// [`TelemetryHub::snapshot`] covers the whole pipeline.
    pub fn telemetry(mut self, hub: Arc<TelemetryHub>) -> Self {
        self.telemetry = Some(hub);
        self
    }

    /// Restores a server from an index snapshot file written by
    /// [`RoadNetworkServer::save_snapshot`]: the graph, algorithm, and build
    /// parameters all come from the file, and algorithms with a serialized
    /// index state skip construction entirely (the warm-restart fast path).
    /// PostMHL rebuilds on its stored elimination order, skipping the
    /// nested dissection; N-CH-P, P-TD-P and PMHL are rebuilt from the
    /// snapshotted graph. Both say so: the `htsp_build_*` telemetry family
    /// is registered exactly as on a cold start, stages included (PostMHL's
    /// label fill ran on the pool it reports).
    /// Any corruption — bad magic, version skew, checksum mismatch,
    /// truncation, malformed sections — surfaces as a typed
    /// [`SnapshotError`]; this never panics on untrusted input.
    pub fn start_from_snapshot(
        self,
        path: impl AsRef<Path>,
    ) -> Result<RoadNetworkServer, SnapshotError> {
        let snap = IndexSnapshot::read_from(path)?;
        let kind = AlgorithmKind::from_name(&snap.algorithm).ok_or_else(|| {
            SnapshotError::Malformed(format!("unknown algorithm '{}'", snap.algorithm))
        })?;
        let params = BuildParams::from_snapshot_bytes(&snap.params)?;
        let hub = self
            .telemetry
            .clone()
            .unwrap_or_else(|| Arc::new(TelemetryHub::new()));
        let builder = self
            .telemetry(Arc::clone(&hub))
            .algorithm(kind)
            .build_params(params);
        let t = std::time::Instant::now();
        let pool = htsp_graph::WorkerPool::new(params.threads());
        let decoded = snap
            .state
            .as_deref()
            .and_then(|state| kind.decode(&snap.graph, &params, state, &pool));
        let builder = match decoded {
            Some(maintainer) => {
                let maintainer = maintainer?;
                if kind.decode_builds() {
                    let total_micros = t.elapsed().as_micros() as u64;
                    register_build_telemetry(&hub, kind.name(), &pool, total_micros);
                }
                builder.maintainer(maintainer)
            }
            // No stored state (N-CH-P, P-TD-P, PMHL, or a file without
            // one): this restart is a full construction, and `start` accounts for it as one — the
            // `htsp_build_*` family appears exactly when a build was paid.
            None => ServerBuilder {
                maintainer: None,
                ..builder
            },
        };
        let server = builder.start(&snap.graph);
        // Re-measure through the maintenance thread so `htsp_storage_bytes`
        // (including components a restored index materializes lazily) is
        // correct immediately after a warm restart, not only after the next
        // explicit refresh.
        server.refresh_storage_gauges();
        Ok(server)
    }

    /// Builds the index over `graph` (the expensive step, unless a
    /// maintainer was supplied), spawns the maintenance thread and the
    /// optional query workers, and returns the running server.
    pub fn start(self, graph: &Graph) -> RoadNetworkServer {
        let hub = self
            .telemetry
            .unwrap_or_else(|| Arc::new(TelemetryHub::new()));
        let shards = self.shards.min(graph.num_vertices());
        let maintainer = match self.maintainer {
            Some(m) => {
                assert!(
                    self.shards <= 1,
                    "ServerBuilder::shards({}) builds its own shard indexes and cannot host \
                     a custom maintainer",
                    self.shards
                );
                m
            }
            None if shards > 1 => Box::new(FleetMaintainer::build(
                graph,
                shards,
                self.algorithm,
                &self.params,
                &hub,
            )),
            None => {
                // Registry build: run construction on a worker pool sized by
                // the build params and publish the `htsp_build_*` telemetry
                // family (per-stage wall time and task counts, thread count,
                // total build time).
                let pool = htsp_graph::WorkerPool::new(self.params.threads());
                let t = std::time::Instant::now();
                let maintainer = self.algorithm.build_pooled(graph, &self.params, &pool);
                let total_micros = t.elapsed().as_micros() as u64;
                register_build_telemetry(&hub, self.algorithm.name(), &pool, total_micros);
                maintainer
            }
        };
        let algorithm = maintainer.name();
        let num_query_stages = maintainer.num_query_stages();
        let publisher = Arc::new(SnapshotPublisher::new(maintainer.current_view()));
        // Per-component memory accounting: one labeled gauge per index
        // component plus the graph itself, refreshed on demand.
        let mut storage_gauges = Vec::new();
        let mut storage_parts = maintainer.storage_bytes();
        storage_parts.push(("graph", graph.heap_size_bytes()));
        for (component, bytes) in storage_parts {
            let gauge = Gauge::new();
            gauge.set(bytes as u64);
            hub.register_gauge(STORAGE_BYTES_METRIC, &[("component", component)], &gauge);
            storage_gauges.push((component, gauge));
        }
        // The result cache, when enabled, hears about every publication
        // through the publisher's hook: each event folds into the cache's
        // epoch (monotonically, so racing publishers are harmless), which
        // is how a batch publish becomes the cache-invalidation boundary.
        let cache = self.cache.map(|config| {
            let cache = Arc::new(DistanceCache::new(config));
            cache.register_metrics(&hub);
            let epoch_cache = Arc::clone(&cache);
            publisher.on_publish(move |event| epoch_cache.bump_epoch(event.version));
            cache
        });
        let shared_graph = Arc::new(RwLock::new(graph.clone()));
        let feed = UpdateFeed::new(
            Arc::clone(&publisher),
            Arc::clone(&shared_graph),
            Arc::clone(&hub),
        );
        let policy = self.policy;
        let maintenance = {
            let feed = feed.clone();
            std::thread::Builder::new()
                .name("htsp-maintenance".to_string())
                .spawn(move || feed.run_maintenance(maintainer, policy))
                .expect("spawn maintenance thread")
        };
        let service = (self.query_workers > 0).then(|| {
            DistanceService::start(
                Arc::clone(&publisher),
                self.query_workers,
                cache.clone(),
                self.admission,
                Arc::clone(&hub),
            )
        });
        let source = SnapshotSource { publisher, cache };
        RoadNetworkServer {
            graph: shared_graph,
            source,
            feed,
            maintenance: Some(maintenance),
            service,
            algorithm,
            num_query_stages,
            hub,
            params: self.params,
            storage_gauges: Mutex::new(storage_gauges),
        }
    }
}

/// Registers the `htsp_build_*` gauge family for one registry construction:
/// `htsp_build_threads` and `htsp_build_total_micros` per algorithm, plus
/// `htsp_build_stage_micros` / `htsp_build_stage_tasks` for every worker-pool
/// stage the build ran (the per-partition fan-outs and the H2H label fill,
/// `h2h_label_fill`; the whole-graph hierarchy is sequential and appears in
/// the total only).
pub(crate) fn register_build_telemetry(
    hub: &TelemetryHub,
    algorithm: &str,
    pool: &htsp_graph::WorkerPool,
    total_micros: u64,
) {
    let set = |name: &str, labels: &[(&str, &str)], value: u64| {
        let gauge = Gauge::new();
        gauge.set(value);
        hub.register_gauge(name, labels, &gauge);
    };
    set(
        "htsp_build_threads",
        &[("algorithm", algorithm)],
        pool.threads() as u64,
    );
    set(
        "htsp_build_total_micros",
        &[("algorithm", algorithm)],
        total_micros,
    );
    for stage in pool.stage_stats() {
        let labels = [("algorithm", algorithm), ("stage", stage.stage.as_str())];
        set("htsp_build_stage_micros", &labels, stage.micros);
        set("htsp_build_stage_tasks", &labels, stage.tasks as u64);
    }
}

/// A running dynamic road-network distance server; see the
/// [module docs](self) for the architecture.
///
/// Dropping the server shuts it down (pending updates are still applied and
/// queued query batches answered); [`RoadNetworkServer::shutdown`] does the
/// same but hands the index machinery back for reuse.
pub struct RoadNetworkServer {
    graph: Arc<RwLock<Graph>>,
    /// The read side (publisher + optional result cache) every serving path
    /// of this server pins through.
    source: SnapshotSource,
    feed: UpdateFeed,
    maintenance: Option<JoinHandle<Box<dyn IndexMaintainer>>>,
    service: Option<DistanceService>,
    algorithm: &'static str,
    num_query_stages: usize,
    hub: Arc<TelemetryHub>,
    params: BuildParams,
    storage_gauges: Mutex<Vec<(&'static str, Gauge)>>,
}

impl RoadNetworkServer {
    /// Starts building a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// Shorthand: hosts an already-built maintainer over `graph` with
    /// manual batching ([`CoalescePolicy::manual`]) and no query workers —
    /// the configuration under which every update round of
    /// [`run_load`](crate::run_load) is exactly one explicitly flushed batch.
    pub fn host(graph: &Graph, maintainer: Box<dyn IndexMaintainer>) -> RoadNetworkServer {
        RoadNetworkServer::builder()
            .maintainer(maintainer)
            .coalesce(CoalescePolicy::manual())
            .start(graph)
    }

    /// The algorithm name of the hosted index (e.g. `"PostMHL"`).
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// Number of query stages the hosted index exposes.
    pub fn num_query_stages(&self) -> usize {
        self.num_query_stages
    }

    /// The ingestion handle: submit edge-weight updates, get visibility
    /// tickets. Clone it freely into producer threads.
    pub fn feed(&self) -> &UpdateFeed {
        &self.feed
    }

    /// Convenience: [`UpdateFeed::submit`].
    pub fn submit(&self, update: EdgeUpdate) -> UpdateTicket {
        self.feed.submit(update)
    }

    /// The snapshot publisher queries read from (hand it to custom serving
    /// threads; its publication log records every staged release).
    pub fn publisher(&self) -> &Arc<SnapshotPublisher> {
        &self.source.publisher
    }

    /// An owned handle to the newest published snapshot.
    pub fn snapshot(&self) -> Arc<dyn QueryView> {
        self.source.publisher.snapshot()
    }

    /// Convenience single query on the newest snapshot, consulting the
    /// result cache first when one is enabled. Serving threads should open
    /// a session on [`RoadNetworkServer::snapshot`] (or use the
    /// [`DistanceService`]) instead.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        let (version, view) = self.source.publisher.versioned_snapshot();
        if let Some(cache) = &self.source.cache {
            if let Some(d) = cache.get(s, t, version) {
                return d;
            }
            let d = view.distance(s, t);
            cache.insert(s, t, version, d);
            return d;
        }
        view.distance(s, t)
    }

    /// The snapshot-versioned result cache, when the server was started
    /// with [`ServerBuilder::result_cache`].
    pub fn cache(&self) -> Option<&Arc<DistanceCache>> {
        self.source.cache.as_ref()
    }

    /// The read side closed-loop load clients pin their sessions through.
    pub(crate) fn source(&self) -> &SnapshotSource {
        &self.source
    }

    /// The telemetry hub every component of this server records into
    /// (snapshot it for the Prometheus / Chrome-trace exports).
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.hub
    }

    /// The batched query front-end, when the server was started with
    /// [`ServerBuilder::query_workers`] > 0.
    pub fn query_service(&self) -> Option<&DistanceService> {
        self.service.as_ref()
    }

    /// Submits a [`QueryBatch`] to the query front-end.
    ///
    /// # Panics
    ///
    /// Panics if the server was built with `query_workers(0)`.
    pub fn submit_queries(&self, batch: QueryBatch) -> BatchTicket {
        self.service
            .as_ref()
            .expect("server started without query workers")
            .submit(batch)
    }

    /// Runs `f` against the server's current graph (brief read lock; the
    /// graph only changes when a coalesced batch swaps in its new version).
    pub fn with_graph<R>(&self, f: impl FnOnce(&Graph) -> R) -> R {
        f(&self.graph.read().expect("server graph poisoned"))
    }

    /// Runs `f` on the maintenance thread with exclusive access to the
    /// index maintainer and returns its result.
    ///
    /// The job runs between batches, never mid-repair, so it may block for
    /// as long as the repair in front of it takes. This is the
    /// introspection escape hatch (per-stage views, index size); serving
    /// paths never need it.
    pub fn with_index<R, F>(&self, f: F) -> R
    where
        R: Send + 'static,
        F: FnOnce(&mut dyn IndexMaintainer) -> R + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.feed.enqueue_job(Box::new(move |maintainer| {
            let _ = tx.send(f(maintainer));
        }));
        rx.recv().expect("maintenance thread dropped the job")
    }

    /// Writes a versioned, checksummed index snapshot to `path`: the
    /// current graph, the build parameters, and — for algorithms with a
    /// native serialized form — the repaired index state, so a later
    /// [`ServerBuilder::start_from_snapshot`] republishes without
    /// rebuilding. Runs between batches (same rule as
    /// [`RoadNetworkServer::with_index`]), so the captured state is always a
    /// fully repaired index, never a mid-repair one, and the graph is the
    /// version that index was repaired for (a clone: no weight is copied).
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), SnapshotError> {
        let (graph, state) =
            self.with_index(|m| (m.current_view().graph().clone(), m.snapshot_state()));
        IndexSnapshot {
            algorithm: self.algorithm.to_string(),
            params: self.params.to_snapshot_bytes(),
            graph,
            state,
        }
        .write_to(path)
    }

    /// Re-measures the per-component memory footprint (index components via
    /// [`IndexMaintainer::storage_bytes`] plus the graph) and updates the
    /// `htsp_storage_bytes{component=...}` gauges. Components that appear
    /// for the first time (an index stage grew a new table) are registered
    /// on the fly. Returns the measured `(component, bytes)` pairs.
    pub fn refresh_storage_gauges(&self) -> Vec<(&'static str, usize)> {
        let mut parts = self.with_index(|m| m.storage_bytes());
        parts.push(("graph", self.with_graph(|g| g.heap_size_bytes())));
        let mut gauges = self.storage_gauges.lock().expect("storage gauges poisoned");
        for &(component, bytes) in &parts {
            match gauges.iter().find(|(c, _)| *c == component) {
                Some((_, gauge)) => gauge.set(bytes as u64),
                None => {
                    let gauge = Gauge::new();
                    gauge.set(bytes as u64);
                    self.hub.register_gauge(
                        STORAGE_BYTES_METRIC,
                        &[("component", component)],
                        &gauge,
                    );
                    gauges.push((component, gauge));
                }
            }
        }
        parts
    }

    /// Shuts the server down: stops the query workers (queued batches are
    /// answered first), applies any pending updates, joins the maintenance
    /// thread, and returns the index machinery.
    pub fn shutdown(mut self) -> Box<dyn IndexMaintainer> {
        self.shutdown_inner()
            .expect("maintenance thread panicked during shutdown")
    }

    fn shutdown_inner(&mut self) -> Option<Box<dyn IndexMaintainer>> {
        if let Some(service) = self.service.take() {
            service.shutdown();
        }
        let handle = self.maintenance.take()?;
        self.feed.begin_shutdown();
        match handle.join() {
            Ok(maintainer) => Some(maintainer),
            Err(panic) => {
                self.feed.poison_pending("maintenance thread panicked");
                std::panic::resume_unwind(panic);
            }
        }
    }
}

impl Drop for RoadNetworkServer {
    fn drop(&mut self) {
        if self.maintenance.is_some() && !std::thread::panicking() {
            let _ = self.shutdown_inner();
        } else if let Some(service) = self.service.take() {
            service.shutdown();
        }
    }
}

impl std::fmt::Debug for RoadNetworkServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RoadNetworkServer")
            .field("algorithm", &self.algorithm)
            .field("published_version", &self.source.publisher.version())
            .field("feed", &self.feed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feed::CoalescePolicy;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{EdgeId, QuerySet, UpdateBatch};
    use htsp_search::dijkstra_distance;
    use std::time::Duration;

    fn drift(g: &Graph, i: usize) -> EdgeUpdate {
        let e = EdgeId::from_index(i % g.num_edges());
        let old = g.edge_weight(e);
        EdgeUpdate::new(e, old, old + 1)
    }

    #[test]
    fn size_triggered_coalescing_flushes_exactly_at_max_batch() {
        let g = grid(8, 8, WeightRange::new(5, 30), 3);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::by_size(4))
            .start(&g);
        // Three updates: under the size trigger, nothing may flush.
        let mut working = g.clone();
        let tickets: Vec<_> = (0..3)
            .map(|i| {
                let u = drift(&working, i * 7);
                working.apply_batch(&UpdateBatch::from_updates(vec![u]));
                server.submit(u)
            })
            .collect();
        std::thread::sleep(Duration::from_millis(30));
        assert!(tickets.iter().all(|t| t.try_outcome().is_none()));
        assert_eq!(server.publisher().version(), 0, "batch flushed early");
        // The fourth trips the size trigger; all four tickets share the
        // outcome of one coalesced batch.
        let u = drift(&working, 91);
        working.apply_batch(&UpdateBatch::from_updates(vec![u]));
        let last = server.submit(u);
        let outcome = last.wait_applied();
        assert_eq!(outcome.batch_len, 4);
        for t in &tickets {
            assert_eq!(t.wait_applied().batch_seq, outcome.batch_seq);
        }
        assert!(server.publisher().version() >= outcome.first_version);
        server.shutdown();
    }

    #[test]
    fn delay_triggered_coalescing_flushes_after_delta_t() {
        let g = grid(8, 8, WeightRange::new(5, 30), 5);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::by_delay(Duration::from_millis(25)))
            .start(&g);
        let ticket = server.submit(drift(&g, 11));
        let visibility = ticket.wait_visible();
        assert!(
            visibility.latency >= Duration::from_millis(25),
            "delay-triggered flush fired before Δt: {:?}",
            visibility.latency
        );
        let outcome = ticket.wait_applied();
        assert_eq!(outcome.batch_len, 1);
        server.shutdown();
    }

    #[test]
    fn policy_flushes_cap_the_batch_size_but_barriers_drain_everything() {
        let g = grid(8, 8, WeightRange::new(5, 30), 17);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::by_size(2))
            .start(&g);
        let mut working = g.clone();
        let tickets: Vec<_> = (0..5)
            .map(|i| {
                let u = drift(&working, i * 13);
                working.apply_batch(&UpdateBatch::from_updates(vec![u]));
                server.submit(u)
            })
            .collect();
        // 5 updates under a cap of 2: the size trigger fires twice (2 + 2);
        // the leftover single update sits below the trigger until the
        // explicit barrier drains it.
        let outcomes: Vec<_> = tickets[..4].iter().map(|t| t.wait_applied()).collect();
        assert_eq!(outcomes[0].batch_len, 2);
        assert_eq!(outcomes[1].batch_seq, outcomes[0].batch_seq);
        assert_eq!(outcomes[2].batch_len, 2);
        assert_ne!(outcomes[2].batch_seq, outcomes[0].batch_seq);
        assert!(
            tickets[4].try_outcome().is_none(),
            "cap overflow flushed early"
        );
        let tail = server.feed().flush();
        assert_eq!(tail.wait_applied().batch_len, 1);
        assert_eq!(tickets[4].wait_applied().batch_len, 1);
        server.shutdown();
    }

    #[test]
    fn an_idle_feed_publishes_nothing() {
        let g = grid(6, 6, WeightRange::new(1, 9), 7);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::by_delay(Duration::from_millis(5)))
            .start(&g);
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(server.publisher().version(), 0);
        assert!(server.publisher().take_log().is_empty());
        assert_eq!(server.feed().stats().batches_applied, 0);
        server.shutdown();
    }

    #[test]
    fn forced_flush_applies_even_an_empty_batch() {
        let g = grid(6, 6, WeightRange::new(1, 9), 9);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::by_size(1_000_000))
            .start(&g);
        let ticket = server.feed().flush();
        let outcome = ticket.wait_applied();
        assert_eq!(outcome.batch_len, 0);
        assert!(
            server.publisher().version() >= 1,
            "an explicit flush must republish"
        );
        server.shutdown();
    }

    #[test]
    fn tickets_give_read_your_writes_and_shutdown_returns_the_index() {
        let g = grid(8, 8, WeightRange::new(5, 30), 11);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::by_size(2))
            .start(&g);
        let mut working = g.clone();
        let u0 = drift(&working, 3);
        working.apply_batch(&UpdateBatch::from_updates(vec![u0]));
        let u1 = drift(&working, 57);
        working.apply_batch(&UpdateBatch::from_updates(vec![u1]));
        let t0 = server.submit(u0);
        let _t1 = server.submit(u1);
        let vis = t0.wait_visible();
        // Read-your-writes: the newest snapshot answers on a graph that
        // contains the submitted weight.
        let view = server.snapshot();
        assert_eq!(view.graph().edge_weight(u0.edge), u0.new_weight);
        let qs = QuerySet::random(&working, 12, 5);
        t0.wait_applied();
        let view = server.snapshot();
        for q in &qs {
            assert_eq!(
                view.distance(q.source, q.target),
                dijkstra_distance(view.graph(), q.source, q.target)
            );
        }
        assert!(vis.version >= 1);
        let maintainer = server.shutdown();
        assert_eq!(maintainer.name(), "DCH");
    }

    #[test]
    fn result_cache_serves_hits_and_publications_bump_its_epoch() {
        let g = grid(8, 8, WeightRange::new(2, 20), 21);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::manual())
            .result_cache(crate::config::CacheConfig::with_capacity(1024))
            .start(&g);
        let cache = Arc::clone(server.cache().expect("cache enabled"));
        let (s, t) = (htsp_graph::VertexId(3), htsp_graph::VertexId(60));
        let expect = dijkstra_distance(&g, s, t);
        assert_eq!(server.distance(s, t), expect); // cold miss, fills
        assert_eq!(server.distance(s, t), expect); // hit
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.epoch(), 0);

        // A publication (even an empty forced flush republishes the final
        // stage) reaches the cache through the publisher hook.
        server.feed().flush().wait_applied();
        assert!(cache.epoch() >= 1, "publication did not bump the epoch");
        // The old entry is now from an older version: a stale miss, then a
        // refill at the new version.
        assert_eq!(server.distance(s, t), expect);
        assert!(cache.stats().stale_misses >= 1);
        assert_eq!(server.distance(s, t), expect);
        assert_eq!(cache.stats().hits, 2);
        server.shutdown();
    }

    #[test]
    fn with_index_runs_between_batches() {
        let g = grid(6, 6, WeightRange::new(1, 9), 13);
        let server = RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .start(&g);
        let (name, stages) = server.with_index(|m| (m.name(), m.num_query_stages()));
        assert_eq!(name, "DCH");
        assert_eq!(stages, server.num_query_stages());
        server.shutdown();
    }
}
