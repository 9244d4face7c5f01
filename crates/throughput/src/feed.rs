//! The write half of the server facade: asynchronous update ingestion with
//! read-your-writes visibility tickets.
//!
//! Applications do not hand the index pre-formed [`UpdateBatch`]es — they see
//! a *stream* of edge-weight changes (every probe vehicle, every incident
//! report) and want each change acknowledged once queries can observe it.
//! [`UpdateFeed::submit`] enqueues one [`EdgeUpdate`] and returns an
//! [`UpdateTicket`]; a maintenance thread coalesces pending updates into
//! [`UpdateBatch`]es under a [`CoalescePolicy`] (flush at `max_batch`
//! updates, or once the oldest pending update is `max_delay` old — the Δt of
//! Lemma 1), applies each batch stage-by-stage through the owning
//! [`IndexMaintainer`], and resolves the tickets.
//!
//! A ticket exposes the two moments a writer cares about:
//!
//! * [`UpdateTicket::wait_visible`] — blocks until the *first* snapshot
//!   containing the update is published (U-Stage 1 installs the new weights,
//!   so the first staged publication of the batch already answers on them)
//!   and reports the submit-to-visible latency. This is read-your-writes:
//!   after it returns, [`SnapshotPublisher::snapshot`] reflects the update.
//!   It rides on [`SnapshotPublisher::wait_for_version`], not polling.
//! * [`UpdateTicket::wait_applied`] — blocks until the whole staged repair
//!   finished and yields the [`UpdateOutcome`]: publish versions, the
//!   [`UpdateTimeline`], and the [`CowStats`] snapshot-isolation price.
//!
//! The feed never blocks queries: readers keep draining published snapshots
//! while the maintenance thread repairs, exactly as before — the feed only
//! moves the *submission* side off the caller's thread.

use crate::telemetry::{Counter, Gauge, Histogram, TelemetryHub};
use htsp_graph::cow::CowStats;
use htsp_graph::{
    EdgeUpdate, Graph, IndexMaintainer, PublishEvent, SnapshotPublisher, TraceId, UpdateBatch,
    UpdateTimeline,
};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// When the maintenance thread turns pending updates into a batch.
///
/// The `max_delay` knob *is* the update interval Δt of the paper's system
/// model: with a saturated feed the maintainer receives one batch per
/// `max_delay`, which is the `δt` that enters
/// [`lemma1_bound`](crate::lemma1_bound) — a larger Δt amortises repair cost
/// over more updates (higher sustained QPS head-room) at the price of staler
/// answers, exactly the trade-off Lemma 1 formalises. `max_batch` bounds the
/// update volume `|U|` per batch regardless of timing.
#[derive(Clone, Copy, Debug)]
pub struct CoalescePolicy {
    /// Flush as soon as this many updates are pending.
    pub max_batch: usize,
    /// Flush once the oldest pending update has waited this long (Δt).
    pub max_delay: Duration,
}

impl CoalescePolicy {
    /// Flush on whichever of `max_batch` / `max_delay` trips first.
    pub fn new(max_batch: usize, max_delay: Duration) -> Self {
        CoalescePolicy {
            max_batch: max_batch.max(1),
            max_delay,
        }
    }

    /// Purely size-triggered coalescing (the delay never trips).
    pub fn by_size(max_batch: usize) -> Self {
        CoalescePolicy::new(max_batch, Duration::from_secs(u64::MAX / 4))
    }

    /// Manual batching: nothing auto-flushes; batches form only at explicit
    /// [`UpdateFeed::flush`] boundaries. The policy to host a server with so
    /// every update round of [`run_load`](crate::run_load) is exactly one
    /// batch.
    pub fn manual() -> Self {
        CoalescePolicy::by_size(usize::MAX)
    }

    /// Purely delay-triggered coalescing: one batch per Δt, like the paper's
    /// periodic update interval.
    pub fn by_delay(max_delay: Duration) -> Self {
        CoalescePolicy::new(usize::MAX, max_delay)
    }

    /// The paper's Table II defaults: `|U| = 1000` per batch, `δt = 120 s`.
    pub fn paper_default() -> Self {
        CoalescePolicy::new(1000, Duration::from_secs(120))
    }
}

impl Default for CoalescePolicy {
    /// A serving-friendly laptop default: small batches, tight Δt.
    fn default() -> Self {
        CoalescePolicy::new(256, Duration::from_millis(100))
    }
}

/// Where one submitted update currently is in the ingest pipeline.
#[derive(Clone)]
enum TicketPhase {
    /// Queued in the feed, not yet part of a batch.
    Pending,
    /// Part of batch `seq`; the batch's first publication will be
    /// `first_version`. The repair is running.
    Flushed { first_version: u64, seq: u64 },
    /// The batch's staged repair completed.
    Resolved(Arc<UpdateOutcome>),
    /// The feed shut down (or its maintenance thread panicked) before the
    /// batch completed.
    Failed(&'static str),
}

struct TicketCell {
    phase: Mutex<TicketPhase>,
    advanced: Condvar,
}

impl TicketCell {
    fn new() -> Arc<Self> {
        Arc::new(TicketCell {
            phase: Mutex::new(TicketPhase::Pending),
            advanced: Condvar::new(),
        })
    }

    fn advance(&self, phase: TicketPhase) {
        *self.phase.lock().expect("ticket poisoned") = phase;
        self.advanced.notify_all();
    }
}

/// The result of one coalesced batch, shared by every ticket in the batch.
#[derive(Clone, Debug)]
pub struct UpdateOutcome {
    /// Sequence number of the coalesced batch (1-based, per feed); also the
    /// [`PublishEvent::batch`](htsp_graph::PublishEvent::batch) tag of every
    /// publication the repair produced.
    pub batch_seq: u64,
    /// Number of edge updates coalesced into the batch.
    pub batch_len: usize,
    /// Publisher version of the batch's *first* staged publication — the
    /// version at which the update became visible to queries.
    pub first_version: u64,
    /// Publisher version after the final stage published.
    pub final_version: u64,
    /// Instant the maintainer started the repair.
    pub apply_start: Instant,
    /// The staged repair timeline (`t_u` = `timeline.total()`).
    pub timeline: UpdateTimeline,
    /// Copy-on-write chunks/bytes cloned across all stages of this repair.
    pub cow: CowStats,
}

/// Where and when a submitted update became visible to queries.
#[derive(Clone, Copy, Debug)]
pub struct Visibility {
    /// The publisher version whose snapshot first contained the update.
    pub version: u64,
    /// Sequence number of the coalesced batch the update rode in.
    pub batch_seq: u64,
    /// Submit-to-visible latency: coalescing delay + U-Stage 1 repair time.
    pub latency: Duration,
}

/// A pending acknowledgement for one submitted [`EdgeUpdate`].
///
/// Obtained from [`UpdateFeed::submit`]; see the [module docs](self) for the
/// `wait_visible` / `wait_applied` contract. Dropping a ticket is fine — the
/// update is applied regardless.
pub struct UpdateTicket {
    cell: Arc<TicketCell>,
    publisher: Arc<SnapshotPublisher>,
    submitted_at: Instant,
}

impl UpdateTicket {
    /// Blocks until the first snapshot containing this update is published
    /// and returns where/when it became visible.
    ///
    /// After this returns, [`SnapshotPublisher::snapshot`] (and therefore
    /// every newly opened session) answers on a graph that includes the
    /// update — read-your-writes.
    ///
    /// # Panics
    ///
    /// Panics if the feed shut down before the update's batch was applied.
    pub fn wait_visible(&self) -> Visibility {
        let (first_version, seq) = self.wait_flushed();
        self.publisher.wait_for_version(first_version);
        Visibility {
            version: first_version,
            batch_seq: seq,
            latency: self.submitted_at.elapsed(),
        }
    }

    /// Blocks until the whole staged repair of this update's batch finished
    /// and returns the shared [`UpdateOutcome`].
    ///
    /// # Panics
    ///
    /// Panics if the feed shut down before the update's batch was applied.
    pub fn wait_applied(&self) -> Arc<UpdateOutcome> {
        let mut phase = self.cell.phase.lock().expect("ticket poisoned");
        loop {
            match &*phase {
                TicketPhase::Resolved(outcome) => return Arc::clone(outcome),
                TicketPhase::Failed(why) => panic!("update ticket failed: {why}"),
                _ => phase = self.cell.advanced.wait(phase).expect("ticket poisoned"),
            }
        }
    }

    /// Non-blocking probe: the outcome if the batch already completed.
    pub fn try_outcome(&self) -> Option<Arc<UpdateOutcome>> {
        match &*self.cell.phase.lock().expect("ticket poisoned") {
            TicketPhase::Resolved(outcome) => Some(Arc::clone(outcome)),
            _ => None,
        }
    }

    /// When the update was submitted.
    pub fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    /// Blocks until the update was coalesced into a batch and the repair
    /// started; returns `(first_version, batch_seq)`.
    fn wait_flushed(&self) -> (u64, u64) {
        let mut phase = self.cell.phase.lock().expect("ticket poisoned");
        loop {
            match &*phase {
                TicketPhase::Flushed { first_version, seq } => return (*first_version, *seq),
                TicketPhase::Resolved(outcome) => {
                    return (outcome.first_version, outcome.batch_seq)
                }
                TicketPhase::Failed(why) => panic!("update ticket failed: {why}"),
                TicketPhase::Pending => {
                    phase = self.cell.advanced.wait(phase).expect("ticket poisoned")
                }
            }
        }
    }
}

impl std::fmt::Debug for UpdateTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("UpdateTicket")
            .field("submitted_at", &self.submitted_at)
            .finish()
    }
}

/// Cumulative ingest counters of one feed.
#[derive(Clone, Copy, Debug, Default)]
pub struct FeedStats {
    /// Updates submitted so far.
    pub submitted: u64,
    /// Coalesced batches applied so far (including forced empty ones).
    pub batches_applied: u64,
    /// Updates carried by those batches.
    pub updates_applied: u64,
}

struct PendingEntry {
    /// `None` marks a barrier entry from [`UpdateFeed::flush`]: it forces a
    /// batch boundary but contributes no edge update.
    update: Option<EdgeUpdate>,
    cell: Arc<TicketCell>,
    submitted_at: Instant,
    /// Trace id minted at submission (barrier entries carry
    /// [`TraceId::NONE`]); every span of this update's trip through
    /// coalescing, repair, and publication carries it.
    trace: TraceId,
}

/// The feed's registered metric handles; [`FeedStats`] reads from these.
struct FeedMetrics {
    submitted: Counter,
    batches_applied: Counter,
    updates_applied: Counter,
    publishes: Counter,
    cow_chunks: Counter,
    cow_bytes: Counter,
    version: Gauge,
    coalesce_wait: Histogram,
    apply: Histogram,
}

impl FeedMetrics {
    fn register(hub: &TelemetryHub) -> Self {
        FeedMetrics {
            submitted: hub.counter("htsp_ingest_submitted_total"),
            batches_applied: hub.counter("htsp_ingest_batches_total"),
            updates_applied: hub.counter("htsp_ingest_updates_applied_total"),
            publishes: hub.counter("htsp_publish_total"),
            cow_chunks: hub.counter("htsp_publish_cow_chunks_total"),
            cow_bytes: hub.counter("htsp_publish_cow_bytes_total"),
            version: hub.gauge("htsp_publish_version"),
            coalesce_wait: hub.histogram("htsp_ingest_coalesce_seconds"),
            apply: hub.histogram("htsp_ingest_apply_seconds"),
        }
    }
}

/// A job executed on the maintenance thread between batches, with exclusive
/// access to the maintainer.
type IndexJob = Box<dyn FnOnce(&mut dyn IndexMaintainer) + Send>;

struct FeedState {
    pending: Vec<PendingEntry>,
    /// Submission instant of the oldest pending *real* update.
    oldest: Option<Instant>,
    /// A barrier entry is pending: flush now, even if the batch is empty.
    barrier: bool,
    shutdown: bool,
    jobs: VecDeque<IndexJob>,
    /// The maintenance thread is between draining and resolving a batch.
    applying: bool,
}

struct FeedShared {
    publisher: Arc<SnapshotPublisher>,
    graph: Arc<RwLock<Graph>>,
    state: Mutex<FeedState>,
    /// Wakes the maintenance thread (new work / shutdown).
    wake: Condvar,
    /// Wakes `flush()` waiters (queue drained and batch resolved).
    drained: Condvar,
    hub: Arc<TelemetryHub>,
    metrics: FeedMetrics,
}

/// The ingestion handle of a [`RoadNetworkServer`](crate::RoadNetworkServer):
/// clonable, thread-safe, submit-only.
#[derive(Clone)]
pub struct UpdateFeed {
    shared: Arc<FeedShared>,
}

impl UpdateFeed {
    /// Enqueues one edge-weight update; the returned ticket resolves when
    /// the update's coalesced batch is (first visible, then fully) applied.
    pub fn submit(&self, update: EdgeUpdate) -> UpdateTicket {
        let cell = TicketCell::new();
        let submitted_at = Instant::now();
        let trace = TraceId::next();
        {
            let mut state = self.shared.state.lock().expect("feed poisoned");
            if state.shutdown {
                cell.advance(TicketPhase::Failed("feed is shut down"));
            } else {
                self.shared.metrics.submitted.inc();
                self.shared
                    .hub
                    .record_event(trace, "update", "submit", submitted_at);
                state.oldest.get_or_insert(submitted_at);
                state.pending.push(PendingEntry {
                    update: Some(update),
                    cell: Arc::clone(&cell),
                    submitted_at,
                    trace,
                });
            }
        }
        self.shared.wake.notify_all();
        UpdateTicket {
            cell,
            publisher: Arc::clone(&self.shared.publisher),
            submitted_at,
        }
    }

    /// Submits every update of an iterator; tickets come back in order.
    pub fn submit_all(&self, updates: impl IntoIterator<Item = EdgeUpdate>) -> Vec<UpdateTicket> {
        updates.into_iter().map(|u| self.submit(u)).collect()
    }

    /// Forces a batch boundary *now*: everything pending is coalesced and
    /// applied immediately, without waiting for the [`CoalescePolicy`] to
    /// trip. The returned ticket resolves when that batch's repair
    /// completes.
    ///
    /// Unlike the policy-triggered path, a forced flush applies even an
    /// *empty* batch (the maintainer republishes its final stage).
    pub fn flush(&self) -> UpdateTicket {
        let cell = TicketCell::new();
        let submitted_at = Instant::now();
        {
            let mut state = self.shared.state.lock().expect("feed poisoned");
            if state.shutdown {
                cell.advance(TicketPhase::Failed("feed is shut down"));
            } else {
                state.barrier = true;
                state.pending.push(PendingEntry {
                    update: None,
                    cell: Arc::clone(&cell),
                    submitted_at,
                    trace: TraceId::NONE,
                });
            }
        }
        self.shared.wake.notify_all();
        UpdateTicket {
            cell,
            publisher: Arc::clone(&self.shared.publisher),
            submitted_at,
        }
    }

    /// Blocks until the feed has nothing pending and no batch mid-repair.
    pub fn wait_idle(&self) {
        let mut state = self.shared.state.lock().expect("feed poisoned");
        while !state.pending.is_empty() || state.applying || !state.jobs.is_empty() {
            state = self.shared.drained.wait(state).expect("feed poisoned");
        }
    }

    /// Number of updates waiting to be coalesced.
    pub fn pending_len(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("feed poisoned")
            .pending
            .iter()
            .filter(|e| e.update.is_some())
            .count()
    }

    /// Cumulative ingest counters, read from the telemetry registry (the
    /// same series the Prometheus export renders).
    pub fn stats(&self) -> FeedStats {
        FeedStats {
            submitted: self.shared.metrics.submitted.get(),
            batches_applied: self.shared.metrics.batches_applied.get(),
            updates_applied: self.shared.metrics.updates_applied.get(),
        }
    }

    /// The telemetry hub this feed records into.
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.shared.hub
    }

    /// Enqueues a job that runs on the maintenance thread with exclusive
    /// access to the maintainer (between batches, never mid-repair).
    pub(crate) fn enqueue_job(&self, job: IndexJob) {
        {
            let mut state = self.shared.state.lock().expect("feed poisoned");
            assert!(!state.shutdown, "feed is shut down");
            state.jobs.push_back(job);
        }
        self.shared.wake.notify_all();
    }

    /// Flags shutdown and wakes the maintenance thread. Pending updates are
    /// still coalesced and applied before the thread exits.
    pub(crate) fn begin_shutdown(&self) {
        self.shared.state.lock().expect("feed poisoned").shutdown = true;
        self.shared.wake.notify_all();
    }

    pub(crate) fn new(
        publisher: Arc<SnapshotPublisher>,
        graph: Arc<RwLock<Graph>>,
        hub: Arc<TelemetryHub>,
    ) -> Self {
        let metrics = FeedMetrics::register(&hub);
        UpdateFeed {
            shared: Arc::new(FeedShared {
                publisher,
                graph,
                state: Mutex::new(FeedState {
                    pending: Vec::new(),
                    oldest: None,
                    barrier: false,
                    shutdown: false,
                    jobs: VecDeque::new(),
                    applying: false,
                }),
                wake: Condvar::new(),
                drained: Condvar::new(),
                hub,
                metrics,
            }),
        }
    }

    /// The maintenance loop: coalesce → apply → resolve, until shutdown.
    /// Runs on the server's maintenance thread and owns the maintainer.
    pub(crate) fn run_maintenance(
        &self,
        mut maintainer: Box<dyn IndexMaintainer>,
        policy: CoalescePolicy,
    ) -> Box<dyn IndexMaintainer> {
        let shared = &*self.shared;
        let mut batch_seq = 0u64;
        // Capture each publication so per-update publish/visible spans can
        // be attributed after the repair returns: publish hooks run
        // synchronously on this thread inside `apply_batch`, so once it
        // returns, every publication of the batch has been captured. The
        // same hook drives the publish counters/gauge, so publications are
        // counted exactly once no matter how many feeds or services share
        // the hub.
        let captured: Arc<Mutex<Vec<PublishEvent>>> = Arc::new(Mutex::new(Vec::new()));
        {
            let captured = Arc::clone(&captured);
            let hub = Arc::clone(&shared.hub);
            let publishes = shared.metrics.publishes.clone();
            let cow_chunks = shared.metrics.cow_chunks.clone();
            let cow_bytes = shared.metrics.cow_bytes.clone();
            let version = shared.metrics.version.clone();
            shared.publisher.on_publish(move |ev: &PublishEvent| {
                publishes.inc();
                cow_chunks.add(ev.cow.chunks_cloned);
                cow_bytes.add(ev.cow.bytes_cloned);
                version.set(ev.version);
                hub.record_event(TraceId::NONE, "update", "publish", ev.at);
                captured.lock().expect("publish capture poisoned").push(*ev);
            });
        }
        loop {
            // Phase 1 under the state lock: run jobs, decide whether to
            // flush, or sleep until something changes.
            let drained: Vec<PendingEntry> = {
                let mut state = shared.state.lock().expect("feed poisoned");
                loop {
                    if let Some(job) = state.jobs.pop_front() {
                        // Jobs get the maintainer outside the lock so
                        // submitters are never blocked on index work.
                        drop(state);
                        job(maintainer.as_mut());
                        shared.drained.notify_all();
                        state = shared.state.lock().expect("feed poisoned");
                        continue;
                    }
                    let pending_updates =
                        state.pending.iter().filter(|e| e.update.is_some()).count();
                    let deadline = state.oldest.map(|t| t + policy.max_delay);
                    let flush_now = state.barrier
                        || (state.shutdown && !state.pending.is_empty())
                        || pending_updates >= policy.max_batch
                        || deadline.is_some_and(|d| Instant::now() >= d);
                    if flush_now {
                        state.applying = true;
                        // A barrier (or shutdown) is an explicit batch
                        // boundary: everything pending goes into one batch.
                        // Policy-triggered flushes respect `max_batch` as a
                        // hard cap on |U|; the overflow stays queued (and
                        // immediately re-trips the size trigger).
                        let flush_all = state.barrier || state.shutdown;
                        state.barrier = false;
                        let drained = if flush_all || state.pending.len() <= policy.max_batch {
                            state.oldest = None;
                            std::mem::take(&mut state.pending)
                        } else {
                            let rest = state.pending.split_off(policy.max_batch);
                            let head = std::mem::replace(&mut state.pending, rest);
                            state.oldest = state.pending.first().map(|e| e.submitted_at);
                            head
                        };
                        break drained;
                    }
                    if state.shutdown {
                        // Nothing pending and no jobs: exit.
                        return maintainer;
                    }
                    state = match deadline {
                        Some(d) => {
                            let now = Instant::now();
                            let timeout = d.saturating_duration_since(now);
                            shared
                                .wake
                                .wait_timeout(state, timeout)
                                .expect("feed poisoned")
                                .0
                        }
                        None => shared.wake.wait(state).expect("feed poisoned"),
                    };
                }
            };

            // Phase 2, lock released: build and apply the batch. Submitters
            // keep enqueuing into the next batch meanwhile.
            batch_seq += 1;
            let drained_at = Instant::now();
            for entry in &drained {
                if entry.trace.is_real() {
                    shared
                        .metrics
                        .coalesce_wait
                        .record(drained_at.saturating_duration_since(entry.submitted_at));
                    shared.hub.record_span(
                        entry.trace,
                        "update",
                        "coalesce",
                        entry.submitted_at,
                        drained_at,
                    );
                }
            }
            let batch =
                UpdateBatch::from_updates(drained.iter().filter_map(|e| e.update).collect());
            let version_before = shared.publisher.version();
            let first_version = version_before + 1;
            for entry in &drained {
                entry.cell.advance(TicketPhase::Flushed {
                    first_version,
                    seq: batch_seq,
                });
            }
            // Write the batch into a clone of the server's graph outside any
            // lock (copying only the weight chunks it writes), then swap that
            // version in under a brief write lock and hand the maintainer the
            // same version: the server, the maintainer and its views share
            // one graph, and `with_graph` readers wait only for the swap.
            // This thread is the graph's only writer.
            let mut graph = shared.graph.read().expect("server graph poisoned").clone();
            graph.apply_batch(&batch);
            let installed = graph.clone();
            let previous = std::mem::replace(
                &mut *shared.graph.write().expect("server graph poisoned"),
                installed,
            );
            drop(previous);
            shared.publisher.set_batch_tag(batch_seq);
            let apply_start = Instant::now();
            let timeline = maintainer.apply_batch(&graph, &batch, &shared.publisher);
            drop(graph);
            self.record_batch_telemetry(&drained, &timeline, apply_start, first_version, &captured);
            let outcome = Arc::new(UpdateOutcome {
                batch_seq,
                batch_len: batch.len(),
                first_version,
                final_version: shared.publisher.version(),
                apply_start,
                timeline,
                cow: shared.publisher.cow_since(version_before),
            });
            // Stats before ticket resolution: a caller waking from
            // `wait_applied` must already see this batch counted.
            shared.metrics.batches_applied.inc();
            shared.metrics.updates_applied.add(batch.len() as u64);
            {
                let mut state = shared.state.lock().expect("feed poisoned");
                state.applying = false;
            }
            for entry in &drained {
                entry
                    .cell
                    .advance(TicketPhase::Resolved(Arc::clone(&outcome)));
            }
            shared.drained.notify_all();
        }
    }

    /// Records the per-batch repair telemetry: the apply-time histogram,
    /// one `htsp_stage_seconds{stage=...}` sample and one stage span per
    /// maintainer stage (stage spans are batch-scoped; they carry the trace
    /// of the batch's *first* update as the representative, so that update
    /// is reconstructable end-to-end by trace id), plus the per-update
    /// publish/visible spans against the first publication containing the
    /// batch.
    fn record_batch_telemetry(
        &self,
        drained: &[PendingEntry],
        timeline: &UpdateTimeline,
        apply_start: Instant,
        first_version: u64,
        captured: &Mutex<Vec<PublishEvent>>,
    ) {
        let shared = &*self.shared;
        shared.metrics.apply.record(timeline.total());
        let rep = drained
            .iter()
            .find(|e| e.trace.is_real())
            .map(|e| e.trace)
            .unwrap_or(TraceId::NONE);
        let mut cursor = apply_start;
        for stage in &timeline.stages {
            let end = cursor + stage.duration;
            shared
                .hub
                .labeled_histogram("htsp_stage_seconds", &[("stage", &stage.name)])
                .record(stage.duration);
            shared.hub.record_span(
                rep,
                "update",
                crate::telemetry::intern(&stage.name),
                cursor,
                end,
            );
            cursor = end;
        }
        let publications: Vec<PublishEvent> = captured
            .lock()
            .expect("publish capture poisoned")
            .drain(..)
            .collect();
        let visible_at = publications
            .iter()
            .find(|e| e.version >= first_version)
            .map(|e| e.at);
        if let Some(vis) = visible_at {
            for entry in drained {
                if entry.trace.is_real() {
                    shared
                        .hub
                        .record_span(entry.trace, "update", "publish", apply_start, vis);
                    shared.hub.record_span(
                        entry.trace,
                        "update",
                        "visible",
                        entry.submitted_at,
                        vis,
                    );
                }
            }
        }
    }

    /// Fails every ticket still unresolved (called if the maintenance
    /// thread is gone for good).
    pub(crate) fn poison_pending(&self, why: &'static str) {
        let drained = {
            let mut state = self.shared.state.lock().expect("feed poisoned");
            state.shutdown = true;
            std::mem::take(&mut state.pending)
        };
        for entry in drained {
            entry.cell.advance(TicketPhase::Failed(why));
        }
        self.shared.drained.notify_all();
    }
}

impl std::fmt::Debug for UpdateFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.state.lock().expect("feed poisoned");
        f.debug_struct("UpdateFeed")
            .field("pending", &state.pending.len())
            .field("stats", &self.stats())
            .finish()
    }
}
