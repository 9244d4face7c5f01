//! The read/write index API every dynamic shortest-distance index in this
//! repository implements (BiDijkstra, DCH, DH2H, N-CH-P, P-TD-P, TOAIN, MHL,
//! PMHL, PostMHL), and the contract the `RoadNetworkServer` facade in
//! `htsp-throughput` is built on.
//!
//! # Where this sits in the serving stack
//!
//! The deployed pipeline is **ingest → coalesce → staged maintenance →
//! publish → sessions**:
//!
//! 1. **Ingest** — applications submit single edge-weight updates to an
//!    `UpdateFeed` (in `htsp-throughput`) and hold an `UpdateTicket` per
//!    submission.
//! 2. **Coalesce** — a maintenance thread batches pending updates under a
//!    `CoalescePolicy` (max batch size `|U|`, max delay Δt). That Δt *is*
//!    the update interval `δt` of the paper's Lemma 1: with a saturated
//!    feed the maintainer receives one [`UpdateBatch`] per Δt.
//! 3. **Staged maintenance** — the batch is handed to an
//!    [`IndexMaintainer::apply_batch`], which repairs stage by stage.
//! 4. **Publish** — at the end of every completed stage the maintainer
//!    publishes an immutable [`QueryView`] through the
//!    [`SnapshotPublisher`]; tickets resolve against publisher versions
//!    ([`SnapshotPublisher::wait_for_version`] is the no-polling primitive
//!    behind `wait_visible()` read-your-writes).
//! 5. **Sessions** — serving threads open [`QuerySession`]s on published
//!    views and answer point-to-point / one-to-many / matrix workloads,
//!    re-pinning when the version advances.
//!
//! This module defines layers 3–5 (the graph-level contract); the server,
//! feed, and registry live in `htsp-throughput` so they can construct every
//! concrete index.
//!
//! # Sharded serving tier
//!
//! The pipeline above scales out by partitioning: `htsp-throughput`'s
//! `ShardedFleet` runs one complete server (feed + maintainer + publisher)
//! per partition shard on the shard's induced subgraph, with a front-end
//! `FleetRouter` over the boundary overlay. The router fans each update to
//! the shard owning its edge (boundary-incident updates also repair the
//! overlay), so shard maintainers repair **in parallel** and a non-boundary
//! update's visibility lag is bounded by its own shard's repair time.
//! After every routed batch the router publishes a *fleet epoch* — one
//! pinned [`QueryView`] per shard plus the post-apply global and overlay
//! graphs, all mutually weight-consistent — and fleet sessions answer
//! cross-shard pairs by concatenating boundary fans with an overlay run,
//! exactly (the overlay preserves boundary-to-boundary distances). The
//! two-trait split below is what makes this tier cheap: a shard server is
//! just another [`IndexMaintainer`] host, and an epoch is just a vector of
//! [`QueryView`]s.
//!
//! # Why two traits
//!
//! The paper's whole premise (Figure 1, §II) is that a road-network index
//! must keep serving queries *while* it is being repaired after a traffic
//! update batch. That requires the query side and the maintenance side to be
//! separate objects with separate ownership:
//!
//! * [`QueryView`] is the **read half**: an immutable, `Send + Sync`
//!   snapshot that answers `distance(s, t)` from shared references on any
//!   number of threads. A view is frozen at a specific graph version and a
//!   specific query stage; it never observes in-flight maintenance.
//!   For anything beyond a stray single query, a thread opens a
//!   [`QuerySession`] on the view ([`QueryView::session`]) and drives its
//!   point-to-point, one-to-many, and many-to-many workloads through it —
//!   see *Sessions and batch queries* below.
//! * [`IndexMaintainer`] is the **write half**: it owns the mutable index
//!   machinery, repairs it when a batch arrives, and *publishes* a fresh
//!   `Arc<dyn QueryView>` through a [`SnapshotPublisher`] at the end of each
//!   completed update stage — the staged availability of Figure 1. Query
//!   threads atomically pick up the newest snapshot and immediately run at
//!   that stage's speed.
//!
//! The contract mirrors the paper's system model: when a batch arrives the
//! maintainer first installs the new edge weights (U-Stage 1), after which a
//! view answering exactly on the *new* weights (via index-free search) is
//! published; each further update stage releases a faster view. Every
//! published view is internally consistent — it reports the graph snapshot
//! it answers on via [`QueryView::graph`], and its answers are exact w.r.t.
//! that snapshot (no staleness, no torn reads).
//!
//! Snapshot isolation is implemented by *chunked* copy-on-write
//! ([`crate::cow`]): the heavy maintainer state — label and distance
//! tables, shortcut arrays, per-partition indexes — lives in
//! [`CowVec`](crate::cow::CowVec) / [`CowTable`](crate::cow::CowTable)
//! containers whose data sits in fixed-size chunks, each behind its own
//! [`Arc`]. Publishing a view clones only the chunk-pointer spine; a stage
//! that then repairs `k` rows clones the O(k / chunk_size) chunks those
//! rows live in, not the whole component. The per-stage snapshot-isolation
//! cost therefore tracks the **change set**, not the index size, and it is
//! *measured*: every publication carries the [`CowStats`] delta (chunks and
//! bytes actually cloned during the stage) in its [`PublishEvent`], which
//! the update feed in `htsp-throughput` sums into each batch's outcome.
//! When no snapshot is outstanding, chunk writes
//! are in-place and free. (Small immutable component parts — tree shape,
//! vertex orders — are plain `Arc`s; they never clone after build.)
//!
//! # Sessions and batch queries
//!
//! `QueryView::distance(&self, s, t)` is deliberately stateless: it checks a
//! scratch object out of a shared [`ScratchPool`](crate::scratch::ScratchPool)
//! for every call, which makes one-off queries trivially safe from any
//! thread but pays one pool round-trip (a mutex lock) and one
//! snapshot-lookup per query. Real traffic is not one-off: a serving thread
//! answers thousands of queries against the *same* snapshot, and much of it
//! arrives as one-to-many (one origin, many candidate destinations) or
//! many-to-many (distance matrices for dispatch/assignment problems).
//!
//! [`QuerySession`] is the per-thread object for that shape of traffic. A
//! thread calls [`QueryView::session`] **once**, which checks out the view's
//! scratch a single time; the session then owns that working memory for its
//! whole lifetime (it returns to the pool on drop) and answers
//!
//! * [`QuerySession::distance`] — point-to-point, identical answers to
//!   `QueryView::distance` without the per-call checkout;
//! * [`QuerySession::one_to_many`] — one source, a slice of targets;
//! * [`QuerySession::matrix`] — a full `sources × targets` distance
//!   matrix (many-to-many).
//!
//! The batch methods have default implementations that loop over
//! `distance`, so a correct session is one method long; views whose
//! machinery can do better override them (a Dijkstra-based view answers
//! `one_to_many` with a single truncated forward search; a CH-based view
//! runs the forward upward search once and reuses it for every target;
//! label-based views are already a per-target lookup, for which the loop
//! *is* the optimal algorithm).
//!
//! A session is pinned to its view: it never observes a newer snapshot.
//! Long-lived serving threads therefore re-open a session when the
//! [`SnapshotPublisher`] version advances — see `DistanceService` in
//! `htsp-throughput` for the reference implementation of that loop.
//!
//! # Version watching and ticket plumbing
//!
//! The publisher is also the synchronization point between writers and
//! readers. Every publication bumps a monotone version;
//! [`SnapshotPublisher::wait_for_version`] parks a thread until a target
//! version is published (condvar wakeup, not polling), which is what gives
//! update tickets their read-your-writes `wait_visible()`: the feed knows
//! the batch's first publication will be `version + 1`, so a ticket holder
//! simply waits for that version and is then guaranteed that
//! [`SnapshotPublisher::snapshot`] contains its update. Each
//! [`PublishEvent`] additionally carries the ingest-batch tag installed via
//! [`SnapshotPublisher::set_batch_tag`], so the publication log attributes
//! every staged release to the coalesced batch that caused it, and
//! [`SnapshotPublisher::cow_since`] aggregates a batch's snapshot-isolation
//! clone cost without draining the log.
//!
//! # Throughput measurement
//!
//! The load driver in `htsp-throughput` (`run_load`) runs client threads
//! against a `RoadNetworkServer`'s published snapshots — closed loop on
//! pinned sessions, or Poisson arrivals through its query service — beside
//! rounds of update batches, and reports measured throughput, latency tails
//! and the inputs of the Lemma 1 bound. The repository's benchmark
//! (`benchmark/`) records the numbers, submit-to-visible latency included.
//!
//! (The legacy single-object `&mut self` trait `DynamicSpIndex`, deprecated
//! since 0.2.0, has been removed: it serialized queries against maintenance
//! and nothing in or out of tree used it beyond its own unit test.)

use crate::cow::CowStats;
use crate::graph::Graph;
use crate::queries::Query;
use crate::types::{Dist, VertexId};
use crate::updates::UpdateBatch;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// One completed update stage: after `elapsed_in_stage` of work the stage's
/// index became available and queries can run at that stage's speed.
#[derive(Clone, Debug, PartialEq)]
pub struct StageReport {
    /// Human-readable stage name (e.g. `"U2: no-boundary shortcut update"`).
    pub name: String,
    /// Time spent inside this stage.
    pub duration: Duration,
}

/// The timeline of one maintenance round: the stage list in completion order.
#[derive(Clone, Debug, Default)]
pub struct UpdateTimeline {
    /// Stages in the order they completed.
    pub stages: Vec<StageReport>,
}

impl UpdateTimeline {
    /// Creates a timeline with a single stage (for single-stage indexes).
    pub fn single(name: impl Into<String>, duration: Duration) -> Self {
        UpdateTimeline {
            stages: vec![StageReport {
                name: name.into(),
                duration,
            }],
        }
    }

    /// Adds a stage.
    pub fn push(&mut self, name: impl Into<String>, duration: Duration) {
        self.stages.push(StageReport {
            name: name.into(),
            duration,
        });
    }

    /// Total update time `t_u`.
    pub fn total(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }

    /// Cumulative time until the end of stage `i` (0-based).
    pub fn elapsed_until(&self, i: usize) -> Duration {
        self.stages.iter().take(i + 1).map(|s| s.duration).sum()
    }
}

/// An immutable, concurrently shareable snapshot of a shortest-distance
/// index: the **read half** of the API.
///
/// A view is pinned to one graph version and one query stage. All methods
/// take `&self`; implementations keep per-query working memory in a
/// [`ScratchPool`](crate::scratch::ScratchPool) so any number of threads can
/// query one view simultaneously. The trait is object-safe: maintainers
/// publish `Arc<dyn QueryView>` snapshots.
///
/// `distance(&self, ..)` is the convenience path for stray single queries;
/// serving threads open a [`QuerySession`] via [`QueryView::session`] and
/// run their (possibly batched) workload through it — same answers, scratch
/// checked out once instead of per call, plus one-to-many and matrix
/// queries.
pub trait QueryView: Send + Sync {
    /// Short algorithm name used in experiment tables (e.g. `"PostMHL"`).
    fn algorithm(&self) -> &'static str;

    /// The 0-based query stage this view serves
    /// (`IndexMaintainer::num_query_stages() - 1` = fully repaired).
    fn stage(&self) -> usize;

    /// Answers `q(s, t)` exactly on this view's graph snapshot.
    fn distance(&self, s: VertexId, t: VertexId) -> Dist;

    /// Opens a per-thread query session on this view.
    ///
    /// The session owns its search scratch (checked out of the view's pool
    /// once, returned when the session drops) and is pinned to this view's
    /// graph version and query stage for its whole lifetime. One session
    /// serves one thread; any number of sessions can be open on one view at
    /// the same time.
    fn session(&self) -> Box<dyn QuerySession + '_>;

    /// The graph snapshot this view answers on. Every answer of
    /// [`QueryView::distance`] equals a fresh Dijkstra run on this graph.
    fn graph(&self) -> &Graph;

    /// Approximate index size in bytes (0 for index-free views).
    fn index_size_bytes(&self) -> usize {
        0
    }

    /// Convenience: answers a [`Query`].
    fn query(&self, q: &Query) -> Dist {
        self.distance(q.source, q.target)
    }
}

/// A per-thread query session over one frozen [`QueryView`]: the hot path
/// for point-to-point, one-to-many, and many-to-many (matrix) workloads.
///
/// Methods take `&mut self` because the session *owns* its working memory:
/// the distance arrays, heaps, and visited flags a search needs live inside
/// the session instead of being checked out of a
/// [`ScratchPool`](crate::scratch::ScratchPool) per query. Every answer is
/// exact on the session's view (and therefore on that view's
/// [`QueryView::graph`] snapshot) — a session never observes maintenance
/// that happened after its view was published.
///
/// The batch methods default to looping over [`QuerySession::distance`],
/// so implementing `distance` alone yields a correct session;
/// implementations override them when the underlying machinery can share
/// work across targets.
pub trait QuerySession {
    /// Answers `q(s, t)` exactly on the session's graph snapshot.
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist;

    /// Answers `q(source, t)` for every `t` in `targets` (same order).
    ///
    /// Equivalent to calling [`QuerySession::distance`] per target;
    /// implementations override it when one source-side search can be
    /// shared across all targets.
    fn one_to_many(&mut self, source: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        targets.iter().map(|&t| self.distance(source, t)).collect()
    }

    /// Answers the full `sources × targets` distance matrix; row `i` holds
    /// the distances from `sources[i]` in target order.
    fn matrix(&mut self, sources: &[VertexId], targets: &[VertexId]) -> Vec<Vec<Dist>> {
        sources
            .iter()
            .map(|&s| self.one_to_many(s, targets))
            .collect()
    }

    /// Convenience: answers a [`Query`].
    fn query(&mut self, q: &Query) -> Dist {
        self.distance(q.source, q.target)
    }
}

/// The do-nothing-smarter session: forwards every `distance` to the view's
/// shared-reference path, through one dynamic call per answer.
///
/// For stages whose `distance` needs no scratch and that have no session of
/// their own (PMHL's no-boundary stage, PostMHL's post-boundary stage).
/// Views that *do* check scratch per call should implement a session that
/// owns the scratch instead; views answering from full H2H labels use
/// `htsp_td::LabelSession`, which calls the label kernel directly.
pub struct FallbackSession<'a> {
    view: &'a dyn QueryView,
}

impl<'a> FallbackSession<'a> {
    /// Wraps `view`.
    pub fn new(view: &'a dyn QueryView) -> Self {
        FallbackSession { view }
    }
}

impl QuerySession for FallbackSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.view.distance(s, t)
    }
}

/// A callback invoked after every publication (see
/// [`SnapshotPublisher::on_publish`]).
pub type PublishHook = Arc<dyn Fn(&PublishEvent) + Send + Sync>;

/// The channel through which a maintainer publishes snapshots and query
/// threads pick them up.
///
/// `publish` atomically replaces the current snapshot; `snapshot` hands any
/// thread an owned `Arc` of the newest view. A monotonically increasing
/// version and a publication log (instants + stages) let a load run
/// correlate observed throughput with stage availability.
pub struct SnapshotPublisher {
    slot: RwLock<Arc<dyn QueryView>>,
    version: AtomicU64,
    log: Mutex<Vec<PublishEvent>>,
    /// Ingest-batch tag stamped onto every publication (see
    /// [`SnapshotPublisher::set_batch_tag`]).
    batch_tag: AtomicU64,
    /// Version mirror + condvar backing [`SnapshotPublisher::wait_for_version`].
    watch: Mutex<u64>,
    watch_cv: Condvar,
    /// Subscribers notified after every publication (see
    /// [`SnapshotPublisher::on_publish`]).
    hooks: Mutex<Vec<PublishHook>>,
}

/// One publication: which stage became available, when, and what the stage's
/// repair cost in snapshot-isolation clones.
#[derive(Clone, Copy, Debug)]
pub struct PublishEvent {
    /// When the snapshot was published.
    pub at: Instant,
    /// The query stage of the published view.
    pub stage: usize,
    /// Publisher version right after this publication.
    pub version: u64,
    /// The ingest batch this publication belongs to: the tag installed by
    /// [`SnapshotPublisher::set_batch_tag`] before the maintainer ran (0 when
    /// no ingest pipeline tagged the publisher — e.g. a directly driven
    /// maintainer). Lets update tickets and benches attribute staged
    /// publications to the coalesced batch that caused them.
    pub batch: u64,
    /// Copy-on-write chunks/bytes the maintainer cloned while producing this
    /// stage (zero when published via [`SnapshotPublisher::publish`], which
    /// carries no telemetry).
    pub cow: CowStats,
}

impl SnapshotPublisher {
    /// Publication-log retention bound: the oldest events are dropped once
    /// the undrained log exceeds this many entries, so a publisher serving
    /// indefinitely (nobody calling [`SnapshotPublisher::take_log`])
    /// uses bounded memory. Load runs drain per run and stay far below
    /// this.
    pub const MAX_LOG_EVENTS: usize = 4096;

    /// Creates a publisher holding `initial` as the current snapshot.
    pub fn new(initial: Arc<dyn QueryView>) -> Self {
        SnapshotPublisher {
            slot: RwLock::new(initial),
            version: AtomicU64::new(0),
            log: Mutex::new(Vec::new()),
            batch_tag: AtomicU64::new(0),
            watch: Mutex::new(0),
            watch_cv: Condvar::new(),
            hooks: Mutex::new(Vec::new()),
        }
    }

    /// Registers a callback that runs after every publication, with the
    /// published [`PublishEvent`].
    ///
    /// This is the epoch plumbing for version-aware consumers (the
    /// `DistanceCache` in `htsp-throughput` invalidates its entries through
    /// it): a hook observes every version bump without polling or draining
    /// the log. Hooks run on the publishing (maintenance) thread *after* the
    /// snapshot slot and version watch have been updated, so a hook that
    /// reads [`SnapshotPublisher::snapshot`] sees a view at least as new as
    /// its event (the hook list is snapshotted before invocation, so a hook
    /// may even register further hooks or publish itself without
    /// deadlocking — though a self-publishing hook must terminate the
    /// recursion). Keep hooks cheap — they extend the publication path —
    /// and order-tolerant: two racing publishers may deliver their events
    /// to a hook in either order (consumers should fold events
    /// monotonically, e.g. with a `fetch_max` on the version).
    pub fn on_publish(&self, hook: impl Fn(&PublishEvent) + Send + Sync + 'static) {
        self.hooks
            .lock()
            .expect("publisher hooks poisoned")
            .push(Arc::new(hook));
    }

    /// Atomically replaces the current snapshot (called by the maintainer at
    /// the end of each completed update stage).
    ///
    /// The version bump, the event timestamp, and the log append all happen
    /// while the slot write lock is held, so concurrent publishers cannot
    /// produce log events whose `version` order disagrees with their `at`
    /// order (or with the log's own order).
    pub fn publish(&self, view: Arc<dyn QueryView>) {
        self.publish_with_cow(view, CowStats::default());
    }

    /// Like [`SnapshotPublisher::publish`], but records the copy-on-write
    /// clone effort (`cow`) the maintainer spent producing this stage — the
    /// [`CowStats::since`] delta of its component counters — in the
    /// publication log.
    pub fn publish_with_cow(&self, view: Arc<dyn QueryView>, cow: CowStats) {
        let stage = view.stage();
        let event;
        {
            let mut slot = self.slot.write().expect("publisher poisoned");
            *slot = view;
            let version = self.version.fetch_add(1, Ordering::AcqRel) + 1;
            event = PublishEvent {
                at: Instant::now(),
                stage,
                version,
                batch: self.batch_tag.load(Ordering::Acquire),
                cow,
            };
            {
                let mut log = self.log.lock().expect("publisher log poisoned");
                log.push(event);
                // Long-lived servers publish forever and may never drain the
                // log; cap it so memory (and `cow_since` scans) stay bounded.
                // Load runs drain far below the cap.
                if log.len() > Self::MAX_LOG_EVENTS {
                    let excess = log.len() - Self::MAX_LOG_EVENTS;
                    log.drain(..excess);
                }
            }
            // Wake version watchers. The mirror is updated while the slot
            // write lock is still held, so a waiter released by this
            // publication observes the new snapshot through `snapshot()`.
            *self.watch.lock().expect("publisher watch poisoned") = event.version;
            self.watch_cv.notify_all();
        }
        // Hooks run after the slot lock is released, on a snapshot of the
        // hook list (so a hook may read the publisher or register further
        // hooks without deadlocking); racing publishers may therefore
        // deliver events out of version order (see `on_publish`).
        let hooks: Vec<PublishHook> = self.hooks.lock().expect("publisher hooks poisoned").clone();
        for hook in &hooks {
            hook(&event);
        }
    }

    /// Returns an owned handle to the newest snapshot.
    pub fn snapshot(&self) -> Arc<dyn QueryView> {
        Arc::clone(&self.slot.read().expect("publisher poisoned"))
    }

    /// Returns the newest snapshot together with the version it was
    /// published under, read atomically (both under the slot read lock, and
    /// `publish` updates both under the write lock).
    ///
    /// Session-pinning loops need this pairing: reading `snapshot()` and
    /// `version()` separately can interleave with a publish and tag the old
    /// view with the new version, which would suppress the re-pin.
    pub fn versioned_snapshot(&self) -> (u64, Arc<dyn QueryView>) {
        let slot = self.slot.read().expect("publisher poisoned");
        (self.version.load(Ordering::Acquire), Arc::clone(&slot))
    }

    /// Number of publications so far.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Drains and returns the publication log (at most the newest
    /// [`SnapshotPublisher::MAX_LOG_EVENTS`] events — older ones are
    /// discarded at publish time if nobody drains).
    pub fn take_log(&self) -> Vec<PublishEvent> {
        std::mem::take(&mut self.log.lock().expect("publisher log poisoned"))
    }

    /// Blocks until at least `version` publications have happened.
    ///
    /// Returns immediately when the publisher is already at (or past)
    /// `version`. This is the primitive behind update tickets'
    /// `wait_visible()`: a waiter released by the publication of `version`
    /// is guaranteed to see a snapshot at least that new from
    /// [`SnapshotPublisher::snapshot`] — no polling loop required.
    pub fn wait_for_version(&self, version: u64) {
        let mut seen = self.watch.lock().expect("publisher watch poisoned");
        while *seen < version {
            seen = self.watch_cv.wait(seen).expect("publisher watch poisoned");
        }
    }

    /// Like [`SnapshotPublisher::wait_for_version`], but gives up after
    /// `timeout`. Returns `true` when the version was reached.
    pub fn wait_for_version_timeout(&self, version: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut seen = self.watch.lock().expect("publisher watch poisoned");
        while *seen < version {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .watch_cv
                .wait_timeout(seen, deadline - now)
                .expect("publisher watch poisoned");
            seen = guard;
        }
        true
    }

    /// Installs the ingest-batch tag stamped onto subsequent publications
    /// (see [`PublishEvent::batch`]). Called by the update feed's
    /// maintenance thread before it hands a coalesced batch to the
    /// maintainer, so every staged publication of that repair is
    /// attributable to the batch.
    pub fn set_batch_tag(&self, batch: u64) {
        self.batch_tag.store(batch, Ordering::Release);
    }

    /// Sums the copy-on-write clone telemetry of all logged publications
    /// newer than `version`, without draining the log. Used by the update
    /// feed to attach the snapshot-isolation price of one coalesced batch to
    /// its tickets while leaving the log for whoever drains it.
    pub fn cow_since(&self, version: u64) -> CowStats {
        self.log
            .lock()
            .expect("publisher log poisoned")
            .iter()
            .filter(|e| e.version > version)
            .fold(CowStats::default(), |acc, e| acc.plus(e.cow))
    }
}

impl std::fmt::Debug for SnapshotPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotPublisher")
            .field("version", &self.version())
            .finish()
    }
}

/// The **write half** of the API: owns the mutable index machinery and
/// repairs it after each update batch, publishing staged snapshots.
///
/// The contract (mirroring §II and Figure 1 of the paper):
///
/// 1. `apply_batch(graph, batch, publisher)` is called once per batch with
///    the already-updated global graph and the batch itself. The maintainer
///    installs the new weights in its own graph copy (U-Stage 1) and then
///    runs its repair stages in order.
/// 2. At the end of every completed stage that releases new (or faster)
///    query machinery, the maintainer calls [`SnapshotPublisher::publish`]
///    with a view that answers exactly on the new weights.
/// 3. Between publications the previously published snapshot stays valid —
///    query threads keep using it; they are never blocked and never observe
///    a half-repaired index.
pub trait IndexMaintainer: Send {
    /// Short algorithm name used in experiment tables (e.g. `"PostMHL"`).
    fn name(&self) -> &'static str;

    /// Number of query stages this index exposes (1 for single-stage
    /// indexes).
    fn num_query_stages(&self) -> usize {
        1
    }

    /// Repairs the index after `batch` has been applied to `graph`,
    /// publishing a snapshot at the end of each completed stage. Returns the
    /// staged availability timeline.
    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline;

    /// A snapshot of the fastest fully-repaired query machinery.
    fn current_view(&self) -> Arc<dyn QueryView>;

    /// A snapshot using the machinery of query stage `stage` (0-based) over
    /// the *current* (fully repaired) data — what the benchmark times each
    /// stage's query speed on. Single-stage indexes ignore `stage`.
    fn view_at_stage(&self, stage: usize) -> Arc<dyn QueryView> {
        let _ = stage;
        self.current_view()
    }

    /// Approximate index size in bytes (0 for index-free algorithms).
    fn index_size_bytes(&self) -> usize {
        0
    }

    /// Serializes the built index state for the snapshot file
    /// ([`crate::snapshot`]), or `None` when the index is cheap enough to
    /// rebuild deterministically from graph + build parameters (the default).
    ///
    /// The encoding is opaque to the snapshot container; the algorithm
    /// registry in `htsp-throughput` routes the bytes back to the matching
    /// restore constructor on warm restart.
    fn snapshot_state(&self) -> Option<Vec<u8>> {
        None
    }

    /// Per-component heap footprint `(component, bytes)` for the
    /// `htsp_storage_bytes{component=}` gauges. Defaults to a single
    /// `"index"` entry of [`IndexMaintainer::index_size_bytes`].
    fn storage_bytes(&self) -> Vec<(&'static str, usize)> {
        vec![("index", self.index_size_bytes())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_accumulates() {
        let mut t = UpdateTimeline::default();
        t.push("a", Duration::from_millis(5));
        t.push("b", Duration::from_millis(7));
        assert_eq!(t.total(), Duration::from_millis(12));
        assert_eq!(t.elapsed_until(0), Duration::from_millis(5));
        assert_eq!(t.elapsed_until(1), Duration::from_millis(12));
        assert_eq!(t.stages.len(), 2);
    }

    #[test]
    fn single_stage_timeline() {
        let t = UpdateTimeline::single("only", Duration::from_micros(3));
        assert_eq!(t.stages.len(), 1);
        assert_eq!(t.total(), Duration::from_micros(3));
    }

    /// A constant view for exercising the publisher.
    struct Fixed {
        stage: usize,
        graph: Graph,
    }

    impl QueryView for Fixed {
        fn algorithm(&self) -> &'static str {
            "fixed"
        }
        fn stage(&self) -> usize {
            self.stage
        }
        fn distance(&self, _s: VertexId, _t: VertexId) -> Dist {
            Dist(self.stage as u32)
        }
        fn session(&self) -> Box<dyn QuerySession + '_> {
            Box::new(FallbackSession::new(self))
        }
        fn graph(&self) -> &Graph {
            &self.graph
        }
    }

    fn tiny_graph() -> Graph {
        let mut b = crate::graph::GraphBuilder::new(2);
        b.add_edge(VertexId(0), VertexId(1), 1);
        b.build()
    }

    #[test]
    fn publisher_swaps_snapshots_and_logs() {
        let publisher = SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        }));
        assert_eq!(publisher.version(), 0);
        assert_eq!(publisher.snapshot().stage(), 0);

        publisher.publish(Arc::new(Fixed {
            stage: 1,
            graph: tiny_graph(),
        }));
        assert_eq!(publisher.version(), 1);
        assert_eq!(publisher.snapshot().stage(), 1);
        assert_eq!(
            publisher.snapshot().distance(VertexId(0), VertexId(1)),
            Dist(1)
        );

        let log = publisher.take_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].stage, 1);
        assert_eq!(log[0].version, 1);
        assert!(publisher.take_log().is_empty());
    }

    #[test]
    fn session_defaults_loop_over_distance() {
        let view = Fixed {
            stage: 3,
            graph: tiny_graph(),
        };
        let mut session = view.session();
        assert_eq!(session.distance(VertexId(0), VertexId(1)), Dist(3));
        assert_eq!(
            session.one_to_many(VertexId(0), &[VertexId(0), VertexId(1)]),
            vec![Dist(3), Dist(3)]
        );
        let m = session.matrix(&[VertexId(0), VertexId(1)], &[VertexId(0)]);
        assert_eq!(m, vec![vec![Dist(3)], vec![Dist(3)]]);
        assert_eq!(
            session.query(&Query::new(VertexId(0), VertexId(1))),
            Dist(3)
        );
    }

    #[test]
    fn racing_publishers_log_versions_in_timestamp_order() {
        // Two threads publish concurrently; the log must never show a higher
        // version with an earlier timestamp (the `at` is taken while the
        // slot write lock is held).
        let publisher = SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        }));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let publisher = &publisher;
                scope.spawn(move || {
                    for stage in 0..50 {
                        publisher.publish(Arc::new(Fixed {
                            stage,
                            graph: tiny_graph(),
                        }));
                    }
                });
            }
        });
        let log = publisher.take_log();
        assert_eq!(log.len(), 200);
        for pair in log.windows(2) {
            assert_eq!(pair[1].version, pair[0].version + 1, "log out of order");
            assert!(
                pair[0].at <= pair[1].at,
                "version {} logged at a later instant than version {}",
                pair[0].version,
                pair[1].version
            );
        }
    }

    #[test]
    fn publish_with_cow_lands_in_the_log() {
        let publisher = SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        }));
        publisher.publish(Arc::new(Fixed {
            stage: 1,
            graph: tiny_graph(),
        }));
        publisher.publish_with_cow(
            Arc::new(Fixed {
                stage: 2,
                graph: tiny_graph(),
            }),
            CowStats {
                chunks_cloned: 3,
                bytes_cloned: 4096,
            },
        );
        let log = publisher.take_log();
        assert_eq!(log.len(), 2);
        assert!(log[0].cow.is_zero(), "plain publish carries no telemetry");
        assert_eq!(log[1].cow.chunks_cloned, 3);
        assert_eq!(log[1].cow.bytes_cloned, 4096);
    }

    #[test]
    fn wait_for_version_wakes_watchers_without_polling() {
        let publisher = Arc::new(SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        })));
        // Already-satisfied waits return immediately.
        publisher.wait_for_version(0);
        assert!(publisher.wait_for_version_timeout(0, Duration::from_millis(1)));
        // A watcher parked on a future version is released by the publish
        // and observes a snapshot at least that new.
        let waiter = {
            let publisher = Arc::clone(&publisher);
            std::thread::spawn(move || {
                publisher.wait_for_version(2);
                publisher.snapshot().stage()
            })
        };
        publisher.publish(Arc::new(Fixed {
            stage: 1,
            graph: tiny_graph(),
        }));
        publisher.publish(Arc::new(Fixed {
            stage: 2,
            graph: tiny_graph(),
        }));
        assert!(waiter.join().expect("waiter panicked") >= 2);
        // A timeout on a version that never arrives reports false.
        assert!(!publisher.wait_for_version_timeout(99, Duration::from_millis(10)));
    }

    #[test]
    fn publications_carry_the_installed_batch_tag() {
        let publisher = SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        }));
        publisher.publish(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        }));
        publisher.set_batch_tag(7);
        publisher.publish_with_cow(
            Arc::new(Fixed {
                stage: 1,
                graph: tiny_graph(),
            }),
            CowStats {
                chunks_cloned: 1,
                bytes_cloned: 64,
            },
        );
        publisher.publish(Arc::new(Fixed {
            stage: 2,
            graph: tiny_graph(),
        }));
        // cow_since sums without draining.
        assert_eq!(publisher.cow_since(1).bytes_cloned, 64);
        assert_eq!(publisher.cow_since(2).bytes_cloned, 0);
        let log = publisher.take_log();
        assert_eq!(log[0].batch, 0, "pre-tag publication is untagged");
        assert_eq!(log[1].batch, 7);
        assert_eq!(log[2].batch, 7, "tag persists until replaced");
    }

    #[test]
    fn publish_hooks_observe_every_publication() {
        use std::sync::atomic::AtomicU64;
        let publisher = SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        }));
        let seen = Arc::new(AtomicU64::new(0));
        let max_version = Arc::new(AtomicU64::new(0));
        {
            let seen = Arc::clone(&seen);
            let max_version = Arc::clone(&max_version);
            publisher.on_publish(move |e| {
                seen.fetch_add(1, Ordering::Relaxed);
                max_version.fetch_max(e.version, Ordering::Relaxed);
            });
        }
        publisher.set_batch_tag(3);
        for stage in 0..5 {
            publisher.publish(Arc::new(Fixed {
                stage,
                graph: tiny_graph(),
            }));
        }
        assert_eq!(seen.load(Ordering::Relaxed), 5);
        assert_eq!(max_version.load(Ordering::Relaxed), publisher.version());
    }

    #[test]
    fn a_hook_may_register_further_hooks_without_deadlocking() {
        use std::sync::atomic::AtomicU64;
        let publisher = Arc::new(SnapshotPublisher::new(Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        })));
        let nested_fires = Arc::new(AtomicU64::new(0));
        {
            let publisher = Arc::clone(&publisher);
            let nested_fires = Arc::clone(&nested_fires);
            let registered = Arc::new(std::sync::atomic::AtomicBool::new(false));
            publisher.clone().on_publish(move |_| {
                // Re-entrant registration: the hook list is snapshotted
                // before invocation, so this must not deadlock.
                if !registered.swap(true, Ordering::Relaxed) {
                    let nested_fires = Arc::clone(&nested_fires);
                    publisher.on_publish(move |_| {
                        nested_fires.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        publisher.publish(Arc::new(Fixed {
            stage: 1,
            graph: tiny_graph(),
        }));
        publisher.publish(Arc::new(Fixed {
            stage: 2,
            graph: tiny_graph(),
        }));
        assert_eq!(
            nested_fires.load(Ordering::Relaxed),
            1,
            "the hook registered by the first publication must fire on the second"
        );
    }

    #[test]
    fn query_view_is_object_safe_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn QueryView>();
        // Snapshots can be shared across threads.
        let view: Arc<dyn QueryView> = Arc::new(Fixed {
            stage: 0,
            graph: tiny_graph(),
        });
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let v = Arc::clone(&view);
                scope.spawn(move || {
                    assert_eq!(v.distance(VertexId(0), VertexId(1)), Dist(0));
                });
            }
        });
    }
}
