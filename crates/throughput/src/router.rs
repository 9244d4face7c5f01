//! The front-end router of the sharded serving tier: ingest routing over the
//! shard fleet, the boundary-overlay query path, and fleet-consistent
//! snapshots.
//!
//! # Ingest routing
//!
//! [`FleetRouter::submit`] enqueues one [`EdgeUpdate`] (global edge ids) and
//! returns a composite [`FleetTicket`]. A router maintenance thread coalesces
//! pending updates under the fleet's [`CoalescePolicy`] and, per batch:
//!
//! 1. **fans out** every intra-partition update to the one shard server
//!    owning it (translated to that shard's local edge id) and forces the
//!    shard's batch boundary, so all touched shards repair their small
//!    indexes *in parallel* on their own maintenance threads;
//! 2. **maintains the overlay** on the router thread meanwhile: the
//!    [`OverlayMaintainer`] applies the batch to the partitioned view,
//!    repairs each affected partition's boundary-first hierarchy, and maps
//!    the resulting shortcut changes (plus inter-partition edge changes) onto
//!    overlay edge weights;
//! 3. **waits** for every touched shard's publication, then publishes a new
//!    [fleet epoch](FleetSession) — an immutable, mutually consistent set of
//!    shard views + overlay graph + global graph that query sessions pin.
//!
//! [`FleetTicket::wait_visible`] means *visible on every touched shard*: the
//! owning shard's first publication for intra updates, plus the epoch
//! publication when the update is boundary-incident (inter-partition updates
//! live only in the overlay, so they wait on the epoch alone).
//!
//! # Query path
//!
//! A [`FleetSession`] pins one epoch. Point-to-point queries classify as
//! *local* (both endpoints in one shard) or *cross-shard*. Local queries go
//! straight to the owning shard's session — but a globally shortest path may
//! leave the shard and come back, so the session always also evaluates the
//! boundary detour and takes the minimum. Cross-shard queries concatenate
//! source-side boundary distances (the shard session's truncated one-to-many),
//! one seeded multi-source Dijkstra over the overlay graph (which preserves
//! global boundary-to-boundary distances), and target-side boundary
//! distances. One-to-many and matrix queries fan per-shard answers out of the
//! same three ingredients, sharing the source-side fan and the overlay pass
//! across all targets.

use crate::cache::{CachedSession, DistanceCache};
use crate::feed::CoalescePolicy;
use crate::feed::{UpdateFeed, UpdateTicket};
use crate::service::{Pinned, SessionSource};
use crate::telemetry::{Counter, Gauge, Histogram, TelemetryHub};
use htsp_graph::{
    Dist, EdgeUpdate, Graph, QuerySession, QueryView, SnapshotPublisher, TraceId, UpdateBatch,
    VertexId, INF,
};
use htsp_psp::OverlayMaintainer;
use htsp_search::{dijkstra_multi_source_ws, DijkstraWorkspace};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Immutable fleet topology fixed at build time: who owns which vertex, the
/// id translations, and the boundary alignment between shards and overlay.
pub(crate) struct FleetTopology {
    /// Global vertex → owning shard.
    pub shard_of: Vec<u32>,
    /// Global vertex → its local id inside the owning shard.
    pub local_id: Vec<VertexId>,
    /// Per shard: local ids of its boundary vertices.
    pub boundary_local: Vec<Vec<VertexId>>,
    /// Per shard: overlay-local ids of the same boundary vertices, aligned
    /// index-by-index with `boundary_local`.
    pub boundary_overlay: Vec<Vec<VertexId>>,
    /// Per shard: `(vertices, edges, boundary vertices)`.
    pub shard_sizes: Vec<(usize, usize, usize)>,
    /// Number of overlay vertices (`|B|`).
    pub overlay_vertices: usize,
    /// Number of overlay edges (inter edges + partition shortcuts).
    pub overlay_edges: usize,
    /// Partition load-balance factor (largest shard over ideal share).
    pub balance: f64,
    /// Fraction of vertices that are boundary vertices.
    pub boundary_fraction: f64,
}

impl FleetTopology {
    pub(crate) fn build(core: &OverlayMaintainer) -> Self {
        let p = &core.partitioned;
        let n = p.graph.num_vertices();
        let mut shard_of = vec![0u32; n];
        let mut local_id = vec![VertexId(0); n];
        for (i, sub) in p.subgraphs.iter().enumerate() {
            for (li, &g) in sub.global_of.iter().enumerate() {
                shard_of[g.index()] = i as u32;
                local_id[g.index()] = VertexId::from_index(li);
            }
        }
        let mut boundary_local = Vec::with_capacity(p.subgraphs.len());
        let mut boundary_overlay = Vec::with_capacity(p.subgraphs.len());
        let mut shard_sizes = Vec::with_capacity(p.subgraphs.len());
        for sub in &p.subgraphs {
            let bl = sub.boundary_local.to_vec();
            let bo: Vec<VertexId> = bl
                .iter()
                .map(|&b| {
                    core.overlay
                        .to_local(sub.to_global(b))
                        .expect("boundary vertex must be an overlay vertex")
                })
                .collect();
            shard_sizes.push((sub.graph.num_vertices(), sub.graph.num_edges(), bl.len()));
            boundary_local.push(bl);
            boundary_overlay.push(bo);
        }
        FleetTopology {
            shard_of,
            local_id,
            boundary_local,
            boundary_overlay,
            shard_sizes,
            overlay_vertices: core.overlay.num_vertices(),
            overlay_edges: core.overlay.graph.num_edges(),
            balance: p.partition.balance(),
            boundary_fraction: p.partition.boundary_fraction(),
        }
    }

    #[inline]
    pub(crate) fn shard(&self, v: VertexId) -> usize {
        self.shard_of[v.index()] as usize
    }

    pub(crate) fn num_shards(&self) -> usize {
        self.shard_sizes.len()
    }
}

/// Per-shard telemetry counters, written by sessions and the router thread.
/// The handles are [`TelemetryHub`] metric types so the fleet's hub and the
/// [`FleetReport`](crate::fleet::FleetReport) read the same atomics — one
/// source of truth for router-tier telemetry.
pub(crate) struct ShardTelemetry {
    pub local_queries: Counter,
    pub cross_queries: Counter,
    pub updates_routed: Counter,
    pub batches: Counter,
    /// Submit-to-visible lag of every update routed to this shard.
    pub lags: Histogram,
    pub cow_chunks: Counter,
    pub cow_bytes: Counter,
}

/// Fleet-wide telemetry shared by router, sessions, and the report.
pub(crate) struct FleetTelemetry {
    pub shards: Vec<ShardTelemetry>,
    pub boundary_updates: Counter,
    pub fleet_batches: Counter,
    /// Updates rejected by [`FleetRouter::try_submit`] at a full ingest
    /// queue.
    pub ingest_shed: Counter,
    /// Ingest queue depth; every `set` maintains the high-water mark, so
    /// the report's max is the same `fetch_max` path as the gauge's.
    pub ingest_depth: Gauge,
    pub started: Instant,
}

impl FleetTelemetry {
    fn new(k: usize) -> Self {
        FleetTelemetry {
            shards: (0..k)
                .map(|_| ShardTelemetry {
                    local_queries: Counter::new(),
                    cross_queries: Counter::new(),
                    updates_routed: Counter::new(),
                    batches: Counter::new(),
                    lags: Histogram::new(),
                    cow_chunks: Counter::new(),
                    cow_bytes: Counter::new(),
                })
                .collect(),
            boundary_updates: Counter::new(),
            fleet_batches: Counter::new(),
            ingest_shed: Counter::new(),
            ingest_depth: Gauge::new(),
            started: Instant::now(),
        }
    }

    /// Adopts every handle into `hub` as `htsp_fleet_*` series (per-shard
    /// series labeled `shard="i"`).
    fn register(&self, hub: &TelemetryHub) {
        for (i, s) in self.shards.iter().enumerate() {
            let shard = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard)];
            hub.register_counter("htsp_fleet_local_queries_total", labels, &s.local_queries);
            hub.register_counter("htsp_fleet_cross_queries_total", labels, &s.cross_queries);
            hub.register_counter("htsp_fleet_updates_routed_total", labels, &s.updates_routed);
            hub.register_counter("htsp_fleet_shard_batches_total", labels, &s.batches);
            hub.register_counter("htsp_fleet_cow_chunks_total", labels, &s.cow_chunks);
            hub.register_counter("htsp_fleet_cow_bytes_total", labels, &s.cow_bytes);
            hub.register_histogram("htsp_fleet_visibility_lag_seconds", labels, &s.lags);
        }
        let no_labels: &[(&str, &str)] = &[];
        hub.register_counter(
            "htsp_fleet_boundary_updates_total",
            no_labels,
            &self.boundary_updates,
        );
        hub.register_counter("htsp_fleet_epochs_total", no_labels, &self.fleet_batches);
        hub.register_counter("htsp_fleet_ingest_shed_total", no_labels, &self.ingest_shed);
        hub.register_gauge("htsp_fleet_ingest_depth", no_labels, &self.ingest_depth);
    }
}

/// One published fleet snapshot: shard views, overlay graph, and global
/// graph captured at the same fleet version, so any combination of them
/// answers exactly on one well-defined set of edge weights.
pub(crate) struct FleetEpoch {
    pub version: u64,
    pub global: Arc<Graph>,
    pub overlay: Arc<Graph>,
    pub shard_views: Vec<Arc<dyn QueryView>>,
    pub shard_versions: Vec<u64>,
}

/// Where a routed update currently is.
enum RoutedState {
    Pending,
    Routed {
        /// `(shard, per-update shard ticket)` for intra-partition updates;
        /// `None` for inter-partition updates and barriers.
        shard: Option<(usize, Arc<UpdateTicket>)>,
        /// The update is boundary-incident (touches the overlay), so
        /// visibility additionally waits on the epoch publication.
        boundary: bool,
    },
    Failed(&'static str),
}

struct FleetTicketCell {
    routed: Mutex<RoutedState>,
    routed_cv: Condvar,
    epoch: Mutex<Option<u64>>,
    epoch_cv: Condvar,
}

impl FleetTicketCell {
    fn new() -> Arc<Self> {
        Arc::new(FleetTicketCell {
            routed: Mutex::new(RoutedState::Pending),
            routed_cv: Condvar::new(),
            epoch: Mutex::new(None),
            epoch_cv: Condvar::new(),
        })
    }

    fn resolve_routed(&self, shard: Option<(usize, Arc<UpdateTicket>)>, boundary: bool) {
        *self.routed.lock().expect("ticket poisoned") = RoutedState::Routed { shard, boundary };
        self.routed_cv.notify_all();
    }

    fn resolve_epoch(&self, version: u64) {
        *self.epoch.lock().expect("ticket poisoned") = Some(version);
        self.epoch_cv.notify_all();
    }

    fn fail(&self, why: &'static str) {
        *self.routed.lock().expect("ticket poisoned") = RoutedState::Failed(why);
        self.routed_cv.notify_all();
        // Epoch waiters must not hang either; resolve with a sentinel after
        // flagging the failure (wait_visible checks the routed state first).
        self.resolve_epoch(u64::MAX);
    }
}

/// Where and when a fleet-submitted update became visible.
#[derive(Clone, Copy, Debug)]
pub struct FleetVisibility {
    /// Submit-to-visible latency across every touched component.
    pub latency: Duration,
    /// Publisher version of the owning shard's first snapshot containing
    /// the update (`None` for inter-partition updates and barriers, which
    /// no shard owns).
    pub shard_version: Option<u64>,
    /// Fleet epoch at which the overlay reflected the update (`None` for
    /// non-boundary updates, which never wait on the epoch).
    pub fleet_version: Option<u64>,
}

/// A composite acknowledgement for one update submitted to the fleet.
///
/// `wait_visible()` means *visible on every touched shard*: the owning
/// shard's publication for intra-partition updates, plus the fleet epoch
/// (overlay) publication when the update is boundary-incident.
pub struct FleetTicket {
    cell: Arc<FleetTicketCell>,
    submitted_at: Instant,
}

impl FleetTicket {
    /// Blocks until every component touched by this update published a
    /// snapshot containing it, and reports the submit-to-visible latency.
    ///
    /// # Panics
    ///
    /// Panics if the fleet shut down before the update was applied.
    pub fn wait_visible(&self) -> FleetVisibility {
        let (shard, boundary) = self.wait_routed();
        let mut shard_version = None;
        if let Some((_, ticket)) = &shard {
            shard_version = Some(ticket.wait_visible().version);
        }
        let mut fleet_version = None;
        if boundary || shard.is_none() {
            fleet_version = Some(self.wait_epoch());
        }
        FleetVisibility {
            latency: self.submitted_at.elapsed(),
            shard_version,
            fleet_version,
        }
    }

    /// Blocks until the fleet epoch covering this update's batch published
    /// (every touched shard fully repaired, overlay maintained) and returns
    /// that fleet version.
    pub fn wait_applied(&self) -> u64 {
        // The routed state is checked first so a shutdown failure panics
        // instead of hanging on the epoch sentinel.
        let _ = self.wait_routed();
        self.wait_epoch()
    }

    /// When the update was submitted to the fleet.
    pub fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    fn wait_routed(&self) -> (Option<(usize, Arc<UpdateTicket>)>, bool) {
        let mut routed = self.cell.routed.lock().expect("ticket poisoned");
        loop {
            match &*routed {
                RoutedState::Routed { shard, boundary } => return (shard.clone(), *boundary),
                RoutedState::Failed(why) => panic!("fleet ticket failed: {why}"),
                RoutedState::Pending => {
                    routed = self.cell.routed_cv.wait(routed).expect("ticket poisoned")
                }
            }
        }
    }

    fn wait_epoch(&self) -> u64 {
        let mut epoch = self.cell.epoch.lock().expect("ticket poisoned");
        loop {
            match *epoch {
                Some(v) => return v,
                None => epoch = self.cell.epoch_cv.wait(epoch).expect("ticket poisoned"),
            }
        }
    }
}

impl std::fmt::Debug for FleetTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetTicket")
            .field("submitted_at", &self.submitted_at)
            .finish()
    }
}

struct RouterEntry {
    /// `None` marks a barrier from [`FleetRouter::flush`].
    update: Option<EdgeUpdate>,
    cell: Arc<FleetTicketCell>,
    submitted_at: Instant,
}

struct RouterState {
    pending: Vec<RouterEntry>,
    /// Pending entries that are updates (barriers don't count against the
    /// ingest bound); kept as a counter so admission is O(1).
    pending_updates: usize,
    oldest: Option<Instant>,
    barrier: bool,
    shutdown: bool,
}

struct RouterShared {
    state: Mutex<RouterState>,
    wake: Condvar,
    /// Signalled when the router drains `pending`, releasing submitters
    /// blocked on the ingest bound.
    space: Condvar,
    /// Maximum pending updates before `submit` blocks / `try_submit` sheds.
    ingest_bound: usize,
    epoch: Mutex<Arc<FleetEpoch>>,
    epoch_cv: Condvar,
}

/// Everything the router maintenance thread needs besides the overlay core.
pub(crate) struct RouterCtx {
    pub feeds: Vec<UpdateFeed>,
    pub publishers: Vec<Arc<SnapshotPublisher>>,
    pub policy: CoalescePolicy,
    pub ingest_bound: usize,
    /// The fleet's telemetry hub: fleet metrics register here and the
    /// router thread records its batch-stage spans into it.
    pub hub: Arc<TelemetryHub>,
}

/// The ingest/query front-end of a
/// [`ShardedFleet`](crate::fleet::ShardedFleet). See the [module docs](self).
pub struct FleetRouter {
    shared: Arc<RouterShared>,
    topo: Arc<FleetTopology>,
    telemetry: Arc<FleetTelemetry>,
    caches: Arc<Vec<Option<Arc<DistanceCache>>>>,
    handle: Option<std::thread::JoinHandle<OverlayMaintainer>>,
}

impl FleetRouter {
    /// Spawns the router maintenance thread over an initial epoch. Crate
    /// internal: [`ShardedFleet::start`](crate::fleet::ShardedFleet::start)
    /// is the public constructor.
    pub(crate) fn spawn(
        core: OverlayMaintainer,
        ctx: RouterCtx,
        caches: Vec<Option<Arc<DistanceCache>>>,
    ) -> Self {
        let topo = Arc::new(FleetTopology::build(&core));
        let telemetry = Arc::new(FleetTelemetry::new(topo.num_shards()));
        telemetry.register(&ctx.hub);
        let initial = Arc::new(FleetEpoch {
            version: 0,
            global: Arc::new(core.partitioned.graph.clone()),
            overlay: Arc::new(core.overlay.graph.clone()),
            shard_views: ctx.publishers.iter().map(|p| p.snapshot()).collect(),
            shard_versions: ctx.publishers.iter().map(|p| p.version()).collect(),
        });
        let shared = Arc::new(RouterShared {
            state: Mutex::new(RouterState {
                pending: Vec::new(),
                pending_updates: 0,
                oldest: None,
                barrier: false,
                shutdown: false,
            }),
            wake: Condvar::new(),
            space: Condvar::new(),
            ingest_bound: ctx.ingest_bound.max(1),
            epoch: Mutex::new(initial),
            epoch_cv: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_telemetry = Arc::clone(&telemetry);
        let handle = std::thread::Builder::new()
            .name("htsp-fleet-router".into())
            .spawn(move || run_router(core, thread_shared, ctx, thread_telemetry))
            .expect("spawn fleet router thread");
        FleetRouter {
            shared,
            topo,
            telemetry,
            caches: Arc::new(caches),
            handle: Some(handle),
        }
    }

    /// Enqueues one edge-weight update (global edge ids); the composite
    /// ticket resolves per touched component.
    ///
    /// The ingest queue is bounded (see
    /// [`FleetConfig::ingest_bound`](crate::config::FleetConfig::ingest_bound)):
    /// when `pending` is at the bound this call **blocks** until the router
    /// drains a batch — backpressure, so a runaway producer cannot queue
    /// updates without limit. Use [`FleetRouter::try_submit`] to shed
    /// instead of blocking.
    pub fn submit(&self, update: EdgeUpdate) -> FleetTicket {
        let cell = FleetTicketCell::new();
        let submitted_at = Instant::now();
        {
            let mut state = self.shared.state.lock().expect("router poisoned");
            while !state.shutdown && state.pending_updates >= self.shared.ingest_bound {
                state = self.shared.space.wait(state).expect("router poisoned");
            }
            if state.shutdown {
                cell.fail("fleet is shut down");
            } else {
                self.push_update(&mut state, update, &cell, submitted_at);
            }
        }
        self.shared.wake.notify_all();
        FleetTicket { cell, submitted_at }
    }

    /// Non-blocking admission: like [`FleetRouter::submit`], but an ingest
    /// queue at its bound sheds the update (returns `None`, counted in the
    /// fleet report) instead of blocking the producer.
    pub fn try_submit(&self, update: EdgeUpdate) -> Option<FleetTicket> {
        let cell = FleetTicketCell::new();
        let submitted_at = Instant::now();
        {
            let mut state = self.shared.state.lock().expect("router poisoned");
            if !state.shutdown && state.pending_updates >= self.shared.ingest_bound {
                self.telemetry.ingest_shed.inc();
                return None;
            }
            if state.shutdown {
                cell.fail("fleet is shut down");
            } else {
                self.push_update(&mut state, update, &cell, submitted_at);
            }
        }
        self.shared.wake.notify_all();
        Some(FleetTicket { cell, submitted_at })
    }

    fn push_update(
        &self,
        state: &mut RouterState,
        update: EdgeUpdate,
        cell: &Arc<FleetTicketCell>,
        submitted_at: Instant,
    ) {
        state.oldest.get_or_insert(submitted_at);
        state.pending_updates += 1;
        // The gauge's `set` is the single high-water-mark path; the report's
        // `max_ingest_depth` reads it back.
        self.telemetry
            .ingest_depth
            .set(state.pending_updates as u64);
        state.pending.push(RouterEntry {
            update: Some(update),
            cell: Arc::clone(cell),
            submitted_at,
        });
    }

    /// Current depth of the ingest queue (pending updates, barriers
    /// excluded).
    pub fn ingest_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("router poisoned")
            .pending_updates
    }

    /// The configured ingest bound.
    pub fn ingest_bound(&self) -> usize {
        self.shared.ingest_bound
    }

    /// Submits every update of an iterator; tickets come back in order.
    pub fn submit_all(&self, updates: impl IntoIterator<Item = EdgeUpdate>) -> Vec<FleetTicket> {
        updates.into_iter().map(|u| self.submit(u)).collect()
    }

    /// Forces a fleet batch boundary now; the ticket resolves at the epoch
    /// that covers everything pending at the flush.
    pub fn flush(&self) -> FleetTicket {
        let cell = FleetTicketCell::new();
        let submitted_at = Instant::now();
        {
            let mut state = self.shared.state.lock().expect("router poisoned");
            if state.shutdown {
                cell.fail("fleet is shut down");
            } else {
                state.barrier = true;
                state.pending.push(RouterEntry {
                    update: None,
                    cell: Arc::clone(&cell),
                    submitted_at,
                });
            }
        }
        self.shared.wake.notify_all();
        FleetTicket { cell, submitted_at }
    }

    /// Blocks until everything submitted so far is repaired on every touched
    /// shard and reflected in the published epoch.
    pub fn wait_idle(&self) {
        self.flush().wait_applied();
    }

    /// The currently published fleet version.
    pub fn fleet_version(&self) -> u64 {
        self.shared.epoch.lock().expect("router poisoned").version
    }

    /// Opens a query session pinned to the current fleet epoch.
    pub fn session(&self) -> FleetSession {
        self.query_handle().session()
    }

    /// A cheap, clonable, `'static` handle to the fleet's query side
    /// (epoch, topology, caches), detached from the router's lifetime
    /// management — what a fleet-backed
    /// [`DistanceService`](crate::DistanceService) pins its worker
    /// sessions through.
    pub fn query_handle(&self) -> FleetQueryHandle {
        FleetQueryHandle {
            shared: Arc::clone(&self.shared),
            topo: Arc::clone(&self.topo),
            telemetry: Arc::clone(&self.telemetry),
            caches: Arc::clone(&self.caches),
        }
    }

    /// One-shot convenience: opens a session and answers `d(s, t)`.
    pub fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.session().distance(s, t)
    }

    pub(crate) fn topology(&self) -> &Arc<FleetTopology> {
        &self.topo
    }

    pub(crate) fn telemetry(&self) -> &Arc<FleetTelemetry> {
        &self.telemetry
    }

    /// Stops the router thread, draining pending updates first. Returns the
    /// overlay core for reuse; `None` if the thread panicked (pending
    /// tickets are failed loudly in that case).
    pub(crate) fn shutdown(&mut self) -> Option<OverlayMaintainer> {
        let handle = self.handle.take()?;
        {
            let mut state = self.shared.state.lock().expect("router poisoned");
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        // Submitters blocked on the ingest bound must observe the shutdown.
        self.shared.space.notify_all();
        match handle.join() {
            Ok(core) => Some(core),
            Err(_) => {
                let drained = {
                    let mut state = self.shared.state.lock().expect("router poisoned");
                    std::mem::take(&mut state.pending)
                };
                for e in drained {
                    e.cell.fail("fleet router thread panicked");
                }
                None
            }
        }
    }
}

impl Drop for FleetRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for FleetRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRouter")
            .field("shards", &self.topo.num_shards())
            .field("fleet_version", &self.fleet_version())
            .finish()
    }
}

/// The router maintenance loop: coalesce → fan out → maintain overlay →
/// wait for shard visibility → publish the next fleet epoch.
fn run_router(
    mut core: OverlayMaintainer,
    shared: Arc<RouterShared>,
    ctx: RouterCtx,
    telemetry: Arc<FleetTelemetry>,
) -> OverlayMaintainer {
    let k = ctx.feeds.len();
    let mut fleet_version = 0u64;
    loop {
        // Coalesce, mirroring the shard-level UpdateFeed policy loop.
        let drained: Vec<RouterEntry> = {
            let mut state = shared.state.lock().expect("router poisoned");
            loop {
                let deadline = state.oldest.map(|t| t + ctx.policy.max_delay);
                let flush_now = state.barrier
                    || (state.shutdown && !state.pending.is_empty())
                    || state.pending_updates >= ctx.policy.max_batch
                    || deadline.is_some_and(|d| Instant::now() >= d);
                if flush_now {
                    state.barrier = false;
                    state.oldest = None;
                    state.pending_updates = 0;
                    break std::mem::take(&mut state.pending);
                }
                if state.shutdown {
                    return core;
                }
                state = match deadline {
                    Some(d) => {
                        let timeout = d.saturating_duration_since(Instant::now());
                        shared
                            .wake
                            .wait_timeout(state, timeout)
                            .expect("router poisoned")
                            .0
                    }
                    None => shared.wake.wait(state).expect("router poisoned"),
                };
            }
        };
        // The ingest queue was just drained: release submitters blocked on
        // the bound.
        shared.space.notify_all();
        telemetry.ingest_depth.set(0);
        let batch_started = Instant::now();

        // Classify every update, translate intra updates to shard-local edge
        // ids, and resolve each ticket's routed component.
        let mut shard_updates: Vec<Vec<EdgeUpdate>> = vec![Vec::new(); k];
        let mut shard_entries: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut updates = Vec::new();
        for (idx, entry) in drained.iter().enumerate() {
            let Some(u) = entry.update else {
                // Barrier: no shard owns it; it resolves at the epoch.
                entry.cell.resolve_routed(None, false);
                continue;
            };
            updates.push(u);
            let p = &core.partitioned;
            let (a, b) = p.graph.edge_endpoints(u.edge);
            if p.partition.same_partition(a, b) {
                let i = p.partition.partition_of(a);
                let le = p.subgraphs[i]
                    .local_edge(u.edge)
                    .expect("intra-partition edge must have a local id");
                shard_updates[i].push(EdgeUpdate::new(le, u.old_weight, u.new_weight));
                shard_entries[i].push(idx);
                if p.partition.is_boundary(a) || p.partition.is_boundary(b) {
                    telemetry.boundary_updates.inc();
                }
            } else {
                // Inter-partition edge: no shard owns it; the overlay does.
                entry.cell.resolve_routed(None, true);
                telemetry.boundary_updates.inc();
            }
        }

        // Fan out to the touched shards first so their maintenance threads
        // repair in parallel with the overlay work below.
        let mut flush_tickets: Vec<Option<UpdateTicket>> = (0..k).map(|_| None).collect();
        for i in 0..k {
            if shard_updates[i].is_empty() {
                continue;
            }
            let p = &core.partitioned;
            let tickets = ctx.feeds[i].submit_all(shard_updates[i].drain(..));
            for (ticket, &idx) in tickets.into_iter().zip(&shard_entries[i]) {
                let u = drained[idx].update.expect("routed entry has an update");
                let (a, b) = p.graph.edge_endpoints(u.edge);
                let boundary = p.partition.is_boundary(a) || p.partition.is_boundary(b);
                drained[idx]
                    .cell
                    .resolve_routed(Some((i, Arc::new(ticket))), boundary);
            }
            flush_tickets[i] = Some(ctx.feeds[i].flush());
            telemetry.shards[i]
                .updates_routed
                .add(shard_entries[i].len() as u64);
        }

        // Overlay maintenance on this thread while the shards repair.
        let batch = UpdateBatch::from_updates(updates);
        if !batch.is_empty() {
            let overlay_started = Instant::now();
            core.apply(&batch);
            ctx.hub.record_span(
                TraceId::NONE,
                "fleet",
                "overlay_apply",
                overlay_started,
                Instant::now(),
            );
        }

        // Wait for each touched shard's first publication and record the
        // submit-to-visible lag of every update routed there.
        for i in 0..k {
            if let Some(ticket) = &flush_tickets[i] {
                ticket.wait_visible();
                let now = Instant::now();
                for &idx in &shard_entries[i] {
                    telemetry.shards[i]
                        .lags
                        .record(now.duration_since(drained[idx].submitted_at));
                }
            }
        }
        // Then for the full staged repair, so the epoch captures final-stage
        // views (all weight-consistent with the batch).
        for (i, ticket) in flush_tickets.iter().enumerate() {
            if let Some(ticket) = ticket {
                let outcome = ticket.wait_applied();
                telemetry.shards[i]
                    .cow_chunks
                    .add(outcome.cow.chunks_cloned);
                telemetry.shards[i].cow_bytes.add(outcome.cow.bytes_cloned);
                telemetry.shards[i].batches.inc();
            }
        }

        // Publish the next fleet epoch: a mutually consistent capture.
        fleet_version += 1;
        telemetry.fleet_batches.inc();
        let epoch = Arc::new(FleetEpoch {
            version: fleet_version,
            global: Arc::new(core.partitioned.graph.clone()),
            overlay: Arc::new(core.overlay.graph.clone()),
            shard_views: ctx.publishers.iter().map(|p| p.snapshot()).collect(),
            shard_versions: ctx.publishers.iter().map(|p| p.version()).collect(),
        });
        {
            let mut slot = shared.epoch.lock().expect("router poisoned");
            *slot = epoch;
        }
        shared.epoch_cv.notify_all();
        ctx.hub.record_span(
            TraceId::NONE,
            "fleet",
            "epoch",
            batch_started,
            Instant::now(),
        );
        for entry in &drained {
            entry.cell.resolve_epoch(fleet_version);
        }
    }
}

/// A clonable, `'static` handle to the query side of a fleet: opens
/// [`FleetSession`]s pinned to the current epoch without borrowing the
/// [`FleetRouter`]. This is what a fleet-backed
/// [`DistanceService`](crate::DistanceService) hands its worker threads;
/// obtained from [`FleetRouter::query_handle`] /
/// [`ShardedFleet::query_handle`](crate::ShardedFleet::query_handle).
#[derive(Clone)]
pub struct FleetQueryHandle {
    shared: Arc<RouterShared>,
    topo: Arc<FleetTopology>,
    telemetry: Arc<FleetTelemetry>,
    caches: Arc<Vec<Option<Arc<DistanceCache>>>>,
}

impl FleetQueryHandle {
    /// The currently published fleet version.
    pub fn fleet_version(&self) -> u64 {
        self.shared.epoch.lock().expect("router poisoned").version
    }

    /// Opens a query session pinned to the current fleet epoch.
    pub fn session(&self) -> FleetSession {
        let epoch = Arc::clone(&*self.shared.epoch.lock().expect("router poisoned"));
        let n = epoch.overlay.num_vertices();
        FleetSession {
            topo: Arc::clone(&self.topo),
            epoch,
            caches: Arc::clone(&self.caches),
            telemetry: Arc::clone(&self.telemetry),
            ws: DijkstraWorkspace::new(n),
        }
    }
}

impl SessionSource for FleetQueryHandle {
    fn version(&self) -> u64 {
        self.fleet_version()
    }

    /// One [`FleetSession`] — a mutually consistent set of shard views plus
    /// overlay — per fleet epoch; it always serves the fully repaired
    /// stage, so `stage` is 0.
    fn with_pinned(&self, drain: &mut dyn FnMut(Pinned<'_>)) {
        let mut session = self.session();
        let epoch = Arc::clone(&session.epoch);
        drain(Pinned {
            version: epoch.version,
            stage: 0,
            algorithm: "fleet",
            graph: &epoch.global,
            session: &mut session,
        });
    }
}

impl std::fmt::Debug for FleetQueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetQueryHandle")
            .field("shards", &self.topo.num_shards())
            .field("fleet_version", &self.fleet_version())
            .finish()
    }
}

/// A query session pinned to one fleet epoch: a consistent set of shard
/// views, overlay graph, and global graph. Implements [`QuerySession`] over
/// *global* vertex ids; see the [module docs](self) for the local vs
/// cross-shard query path.
pub struct FleetSession {
    topo: Arc<FleetTopology>,
    epoch: Arc<FleetEpoch>,
    caches: Arc<Vec<Option<Arc<DistanceCache>>>>,
    telemetry: Arc<FleetTelemetry>,
    ws: DijkstraWorkspace,
}

impl FleetSession {
    /// The fleet version this session is pinned to.
    pub fn fleet_version(&self) -> u64 {
        self.epoch.version
    }

    /// The global graph this session's answers are exact on (the served
    /// snapshot — what a verification Dijkstra should run against).
    pub fn graph(&self) -> &Graph {
        &self.epoch.global
    }

    /// Opens the (possibly cache-wrapped) session of one shard's pinned view.
    fn shard_session(&self, i: usize) -> Box<dyn QuerySession + '_> {
        let inner = self.epoch.shard_views[i].session();
        match self.caches[i].as_deref() {
            Some(cache) => Box::new(CachedSession::new(
                inner,
                cache,
                self.epoch.shard_versions[i],
            )),
            None => inner,
        }
    }

    /// Seeds the overlay with the source side's boundary distances and runs
    /// one multi-source Dijkstra; afterwards `ws.distance(overlay_v)` holds
    /// `min_b (d_src(s, b) + d_overlay(b, overlay_v))`.
    fn run_overlay(&mut self, src_shard: usize, ds: &[Dist]) {
        let seeds: Vec<(VertexId, Dist)> = self.topo.boundary_overlay[src_shard]
            .iter()
            .copied()
            .zip(ds.iter().copied())
            .collect();
        dijkstra_multi_source_ws(&self.epoch.overlay, &seeds, &mut self.ws);
    }

    /// Folds the target side's boundary distances over the overlay pass.
    fn fold_target(&self, tgt_shard: usize, dt: &[Dist]) -> Dist {
        let mut best = INF;
        for (&ob, &d) in self.topo.boundary_overlay[tgt_shard].iter().zip(dt) {
            best = best.min(self.ws.distance(ob).saturating_add(d));
        }
        best
    }

    fn count(&self, si: usize, ti: usize, pairs: u64) {
        if si == ti {
            self.telemetry.shards[si].local_queries.add(pairs);
        } else {
            self.telemetry.shards[si].cross_queries.add(pairs);
            self.telemetry.shards[ti].cross_queries.add(pairs);
        }
    }
}

impl QuerySession for FleetSession {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        let (si, ti) = (self.topo.shard(s), self.topo.shard(t));
        let (ls, lt) = (self.topo.local_id[s.index()], self.topo.local_id[t.index()]);
        self.count(si, ti, 1);
        if si == ti {
            // Local query — but the globally shortest path may leave the
            // shard and return, so the boundary detour is evaluated too.
            let (mut best, ds, dt) = {
                let mut sess = self.shard_session(si);
                let best = sess.distance(ls, lt);
                let bl = &self.topo.boundary_local[si];
                if bl.is_empty() {
                    return best;
                }
                (best, sess.one_to_many(ls, bl), sess.one_to_many(lt, bl))
            };
            self.run_overlay(si, &ds);
            best = best.min(self.fold_target(si, &dt));
            best
        } else {
            let ds = self
                .shard_session(si)
                .one_to_many(ls, &self.topo.boundary_local[si]);
            let dt = self
                .shard_session(ti)
                .one_to_many(lt, &self.topo.boundary_local[ti]);
            self.run_overlay(si, &ds);
            self.fold_target(ti, &dt)
        }
    }

    fn one_to_many(&mut self, source: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        let si = self.topo.shard(source);
        let ls = self.topo.local_id[source.index()];
        // Source side once: boundary fan + local answers for same-shard
        // targets, all through one shard session.
        let local_targets: Vec<VertexId> = targets
            .iter()
            .filter(|&&t| self.topo.shard(t) == si)
            .map(|&t| self.topo.local_id[t.index()])
            .collect();
        let (ds, local_answers) = {
            let mut sess = self.shard_session(si);
            let ds = sess.one_to_many(ls, &self.topo.boundary_local[si]);
            let local = sess.one_to_many(ls, &local_targets);
            (ds, local)
        };
        let mut local_iter = local_answers.into_iter();
        self.run_overlay(si, &ds);
        let mut out = Vec::with_capacity(targets.len());
        for &t in targets {
            let ti = self.topo.shard(t);
            let lt = self.topo.local_id[t.index()];
            self.count(si, ti, 1);
            let mut best = if ti == si {
                if t == source {
                    let _ = local_iter.next();
                    out.push(Dist::ZERO);
                    continue;
                }
                local_iter.next().expect("local answer per local target")
            } else {
                INF
            };
            if !self.topo.boundary_local[ti].is_empty() {
                let dt = self
                    .shard_session(ti)
                    .one_to_many(lt, &self.topo.boundary_local[ti]);
                best = best.min(self.fold_target(ti, &dt));
            }
            out.push(best);
        }
        out
    }
}
