//! The batched distance-serving front-end: clients submit [`QueryBatch`]
//! requests, worker threads answer them through per-thread
//! [`QuerySession`]s pinned to the currently published snapshot.
//!
//! This is the serving architecture the paper's system model implies but
//! never spells out. A [`DistanceService`] owns `N` worker threads and a
//! FIFO queue of batches. Each worker
//!
//! 1. pops a batch from the queue,
//! 2. **pins a session**: takes the newest snapshot from the shared
//!    [`SnapshotPublisher`] and opens one [`QuerySession`] on it (one
//!    scratch checkout, held for the whole pin),
//! 3. drains batches through that session for as long as the publisher
//!    version is unchanged, and
//! 4. **re-pins** — drops the session and takes a fresh snapshot — as soon
//!    as the maintenance thread publishes a newer stage, so freshly
//!    repaired (faster) machinery is picked up within one batch.
//!
//! Workers never block on maintenance and never observe a half-repaired
//! index: those guarantees come from the snapshot contract of
//! [`htsp_graph::index_api`]. What the service adds is the *batch* shape of
//! real traffic — point-to-point bundles, one-to-many fans (one origin,
//! many candidate destinations), and full distance matrices — answered by
//! machinery that shares work across a batch instead of re-entering the
//! index per pair.
//!
//! # Admission control
//!
//! The queue is governed by an [`AdmissionPolicy`] (see the
//! [`admission`](crate::admission) module docs for the policy matrix).
//! [`DistanceService::try_submit_at`] is the policy-aware entry point: it
//! timestamps the request at *generation* (so an open-loop load generator
//! charges queueing delay even when its submitting thread lags) and returns
//! a [`SubmitOutcome`] — accepted with a ticket, shed at a full queue, or
//! expired past its deadline. Workers discard queued jobs whose
//! [`Deadline`](AdmissionPolicy::Deadline) passed before execution, and
//! every admission/execution path is counted in [`ServiceStats`].
//!
//! A sharded server publishes [`FleetView`](crate::router::FleetView)s
//! through the same publisher, so the same queue, policies, telemetry and
//! pin/drain/re-pin loop serve a fleet unchanged.
//!
//! The maintenance side stays outside the service: whoever owns the
//! [`IndexMaintainer`](htsp_graph::IndexMaintainer) keeps calling
//! `apply_batch` with the same publisher the service was started with.

use crate::admission::{AdmissionPolicy, ServiceStats, ShutdownReport, SubmitOutcome};
use crate::cache::{CachedSession, DistanceCache};
use crate::telemetry::{Counter, Gauge, Histogram, TelemetryHub};
use htsp_graph::{Dist, Graph, Query, QuerySession, SnapshotPublisher, TraceId, VertexId};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One client request: a bundle of distance queries answered together by a
/// single session (and therefore by a single snapshot).
#[derive(Clone, Debug)]
pub enum QueryBatch {
    /// Independent `(s, t)` pairs, answered in order.
    PointToPoint(Vec<Query>),
    /// One origin, many destinations (e.g. "nearest k depots"): answered
    /// with the view's one-to-many machinery — a single truncated forward
    /// search on Dijkstra-like views, a shared forward upward search on CH
    /// views.
    OneToMany {
        /// The common source vertex.
        source: VertexId,
        /// The destination vertices.
        targets: Vec<VertexId>,
    },
    /// A full `sources × targets` distance matrix (dispatch / assignment
    /// workloads).
    Matrix {
        /// Row vertices.
        sources: Vec<VertexId>,
        /// Column vertices.
        targets: Vec<VertexId>,
    },
}

impl QueryBatch {
    /// Number of `(s, t)` distances this batch asks for.
    pub fn num_pairs(&self) -> usize {
        match self {
            QueryBatch::PointToPoint(qs) => qs.len(),
            QueryBatch::OneToMany { targets, .. } => targets.len(),
            QueryBatch::Matrix { sources, targets } => sources.len() * targets.len(),
        }
    }

    /// The `(s, t)` pairs in the order the answer lists their distances.
    pub fn pairs(&self) -> Vec<(VertexId, VertexId)> {
        match self {
            QueryBatch::PointToPoint(qs) => qs.iter().map(|q| (q.source, q.target)).collect(),
            QueryBatch::OneToMany { source, targets } => {
                targets.iter().map(|&t| (*source, t)).collect()
            }
            QueryBatch::Matrix { sources, targets } => sources
                .iter()
                .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
                .collect(),
        }
    }

    /// Answers the batch through `session`; the distances come back
    /// flattened in request order (row-major for a matrix).
    pub fn execute(&self, session: &mut dyn QuerySession) -> Vec<Dist> {
        match self {
            QueryBatch::PointToPoint(qs) => qs.iter().map(|q| session.query(q)).collect(),
            QueryBatch::OneToMany { source, targets } => session.one_to_many(*source, targets),
            QueryBatch::Matrix { sources, targets } => session
                .matrix(sources, targets)
                .into_iter()
                .flatten()
                .collect(),
        }
    }
}

/// One pinned read view of a [`SnapshotSource`]: a session opened on the
/// newest published snapshot, with what identifies that snapshot. Every
/// answer the session gives is exact on `graph`.
pub(crate) struct Pinned<'a> {
    /// The publisher version this pin was taken at.
    pub(crate) version: u64,
    /// Query stage of the pinned view.
    pub(crate) stage: usize,
    /// Algorithm name of the pinned view.
    pub(crate) algorithm: &'static str,
    /// The graph version the pinned view serves.
    pub(crate) graph: &'a Graph,
    /// The session, cache-wrapped where the source has a result cache.
    pub(crate) session: &'a mut dyn QuerySession,
}

/// Where serving threads pin their sessions: a server's publisher and, when
/// enabled, the snapshot-versioned result cache every session is wrapped in
/// (the wrapper carries the pinned version, so a cached answer never
/// crosses a publication). The protocol every serving loop follows: take a
/// pin, drain requests through its session while
/// [`SnapshotSource::version`] still equals the pinned version, then return
/// from the callback (dropping the session and its snapshot) and pin again.
pub(crate) struct SnapshotSource {
    pub(crate) publisher: Arc<SnapshotPublisher>,
    pub(crate) cache: Option<Arc<DistanceCache>>,
}

impl SnapshotSource {
    /// The currently published version.
    pub(crate) fn version(&self) -> u64 {
        self.publisher.version()
    }

    /// Pins the newest published snapshot and calls `drain` with a session
    /// on it. The `(version, view)` pair is read atomically, so a
    /// concurrent publication can neither tag the old view with the new
    /// version nor suppress the caller's re-pin.
    pub(crate) fn with_pinned<R>(&self, drain: impl FnOnce(Pinned<'_>) -> R) -> R {
        let (version, view) = self.publisher.versioned_snapshot();
        let mut session: Box<dyn QuerySession + '_> = match &self.cache {
            Some(cache) => Box::new(CachedSession::new(view.session(), cache, version)),
            None => view.session(),
        };
        drain(Pinned {
            version,
            stage: view.stage(),
            algorithm: view.algorithm(),
            graph: view.graph(),
            session: &mut *session,
        })
    }
}

/// The answer to one [`QueryBatch`], tagged with the snapshot that served it.
#[derive(Clone, Debug)]
pub struct BatchAnswer {
    /// The distances, flattened in request order. For
    /// [`QueryBatch::Matrix`] the layout is row-major:
    /// `distances[i * targets.len() + j] = d(sources[i], targets[j])`.
    pub distances: Vec<Dist>,
    /// Publisher version of the snapshot that answered.
    pub snapshot_version: u64,
    /// Query stage of the snapshot that answered.
    pub stage: usize,
    /// Algorithm name of the snapshot that answered.
    pub algorithm: &'static str,
    /// When the worker finished computing this answer; an open-loop load
    /// generator subtracts the generation timestamp from this for the
    /// submit-to-answer latency.
    pub answered_at: Instant,
}

/// How one *accepted* batch resolved. Every accepted ticket resolves exactly
/// once — answered, expired in the queue, or abandoned by a shutdown.
#[derive(Clone, Debug)]
pub enum BatchResult {
    /// The batch was executed; here is its answer.
    Answered(BatchAnswer),
    /// The batch's [`AdmissionPolicy::Deadline`] passed while it waited in
    /// the queue; a worker discarded it without executing it.
    Expired,
    /// The service shut down under a shedding policy while the batch was
    /// still queued; it was discarded without being executed.
    Abandoned,
}

impl BatchResult {
    /// The answer, when the batch was answered.
    pub fn answered(self) -> Option<BatchAnswer> {
        match self {
            BatchResult::Answered(a) => Some(a),
            _ => None,
        }
    }

    fn expect_answer(self) -> BatchAnswer {
        match self {
            BatchResult::Answered(a) => a,
            BatchResult::Expired => panic!("batch expired in the queue before execution"),
            BatchResult::Abandoned => panic!("batch abandoned by service shutdown"),
        }
    }
}

/// A pending [`BatchResult`]; returned by [`DistanceService::submit`] (and,
/// wrapped in a [`SubmitOutcome`], by [`DistanceService::try_submit`]).
///
/// A batch is **resolved exactly once** by the service; the ticket caches
/// the result on first receipt, so every subsequent wait variant — from any
/// thread, the ticket is `Sync` and can be shared by reference — yields the
/// *same* result. Polls before the result lands return `None` and leave the
/// ticket usable.
///
/// The `wait`/`try_wait`/`wait_timeout` family yields the [`BatchAnswer`]
/// directly and panics when the batch was discarded unexecuted; under a
/// [`Deadline`](AdmissionPolicy::Deadline) policy (or when shutting down a
/// shedding service with a non-empty queue) use the `*_result` variants,
/// which surface [`BatchResult::Expired`] / [`BatchResult::Abandoned`].
pub struct BatchTicket {
    rx: Mutex<mpsc::Receiver<BatchResult>>,
    result: Mutex<Option<BatchResult>>,
    depth_at_accept: usize,
}

impl BatchTicket {
    fn new(rx: mpsc::Receiver<BatchResult>, depth_at_accept: usize) -> Self {
        BatchTicket {
            rx: Mutex::new(rx),
            result: Mutex::new(None),
            depth_at_accept,
        }
    }

    /// The queue depth right after this batch was enqueued (itself
    /// included). The queue is deepest right after some push, so the
    /// maximum over a set of tickets is the exact high-water mark their
    /// submissions drove the queue to.
    pub fn depth_at_accept(&self) -> usize {
        self.depth_at_accept
    }

    fn cached(&self) -> Option<BatchResult> {
        self.result.lock().expect("ticket result poisoned").clone()
    }

    fn store(&self, result: BatchResult) -> BatchResult {
        *self.result.lock().expect("ticket result poisoned") = Some(result.clone());
        result
    }

    /// Blocks until the batch resolves (returns immediately once the result
    /// was ever received).
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the batch without resolving it.
    pub fn wait_result(&self) -> BatchResult {
        if let Some(result) = self.cached() {
            return result;
        }
        let rx = self.rx.lock().expect("ticket receiver poisoned");
        if let Some(result) = self.cached() {
            return result;
        }
        match rx.recv() {
            Ok(result) => self.store(result),
            Err(_) => panic!("distance service dropped the batch"),
        }
    }

    /// Blocks until the batch is answered.
    ///
    /// # Panics
    ///
    /// Panics if the batch was discarded unexecuted (deadline expiry or a
    /// shedding shutdown) — use [`BatchTicket::wait_result`] when the
    /// service runs a policy that can discard accepted batches.
    pub fn wait(self) -> BatchAnswer {
        self.wait_result().expect_answer()
    }

    /// Non-blocking poll: the result if it is (or ever was) in, `None`
    /// otherwise — the ticket stays usable either way, so callers can poll
    /// in a loop, and an already-resolved ticket keeps returning the same
    /// result. Genuinely non-blocking even when the ticket is shared: if
    /// another thread currently holds the receiver (a `wait_timeout` in
    /// progress), the result is simply not cached yet and this returns
    /// `None` instead of waiting for that thread.
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the batch without resolving it.
    pub fn try_wait_result(&self) -> Option<BatchResult> {
        if let Some(result) = self.cached() {
            return Some(result);
        }
        let rx = match self.rx.try_lock() {
            Ok(rx) => rx,
            Err(std::sync::TryLockError::WouldBlock) => return None,
            Err(std::sync::TryLockError::Poisoned(_)) => panic!("ticket receiver poisoned"),
        };
        if let Some(result) = self.cached() {
            return Some(result);
        }
        match rx.try_recv() {
            Ok(result) => Some(self.store(result)),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => {
                panic!("distance service dropped the batch")
            }
        }
    }

    /// Non-blocking poll for the answer; see [`BatchTicket::try_wait_result`].
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the batch, or if the batch was
    /// discarded unexecuted.
    pub fn try_wait(&self) -> Option<BatchAnswer> {
        self.try_wait_result().map(BatchResult::expect_answer)
    }

    /// Blocks for at most `timeout`; `None` means the batch was still
    /// unresolved when the timeout expired (the ticket stays usable). Once
    /// resolved, every further call returns that same result.
    ///
    /// Concurrent timed waiters on one shared ticket serialize on the
    /// receiver: a caller may first wait out the receive of the caller in
    /// front of it (worst case ~2× `timeout` with two callers) — the result
    /// whoever receives first caches is returned to everyone.
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the batch without resolving it.
    pub fn wait_result_timeout(&self, timeout: Duration) -> Option<BatchResult> {
        if let Some(result) = self.cached() {
            return Some(result);
        }
        let rx = self.rx.lock().expect("ticket receiver poisoned");
        // Re-check: the lock holder in front of us may have cached it.
        if let Some(result) = self.cached() {
            return Some(result);
        }
        match rx.recv_timeout(timeout) {
            Ok(result) => Some(self.store(result)),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                panic!("distance service dropped the batch")
            }
        }
    }

    /// Timed wait for the answer; see [`BatchTicket::wait_result_timeout`].
    ///
    /// # Panics
    ///
    /// Panics if the service dropped the batch, or if the batch was
    /// discarded unexecuted.
    pub fn wait_timeout(&self, timeout: Duration) -> Option<BatchAnswer> {
        self.wait_result_timeout(timeout)
            .map(BatchResult::expect_answer)
    }
}

impl std::fmt::Debug for BatchTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchTicket")
            .field("resolved", &self.cached().is_some())
            .finish()
    }
}

struct Job {
    batch: QueryBatch,
    reply: mpsc::Sender<BatchResult>,
    /// `generated_at + budget` under a [`AdmissionPolicy::Deadline`];
    /// `None` otherwise.
    deadline: Option<Instant>,
    /// The trace id minted at submission; every span of this batch's trip
    /// through queue and execution carries it.
    trace: TraceId,
    /// When the batch entered the queue (its `query.queue` span start).
    accepted_at: Instant,
}

/// The service's registered metric handles. [`ServiceStats`] is a read-out
/// of these registry series — the registry is the single source of truth.
struct ServiceMetrics {
    submitted: Counter,
    accepted: Counter,
    shed: Counter,
    expired_at_submit: Counter,
    expired_in_queue: Counter,
    abandoned: Counter,
    answered: Counter,
    answered_pairs: Counter,
    /// Queue depth after every push/pop; its high-water mark (folded by the
    /// gauge's single `fetch_max` path) is `ServiceStats::max_queue_depth`.
    queue_depth: Gauge,
    queue_wait: Histogram,
    execute: Histogram,
}

impl ServiceMetrics {
    fn register(hub: &TelemetryHub) -> Self {
        ServiceMetrics {
            submitted: hub.counter("htsp_admission_submitted_total"),
            accepted: hub.counter("htsp_admission_accepted_total"),
            shed: hub.counter("htsp_admission_shed_total"),
            expired_at_submit: hub.counter("htsp_admission_expired_at_submit_total"),
            expired_in_queue: hub.counter("htsp_admission_expired_in_queue_total"),
            abandoned: hub.counter("htsp_admission_abandoned_total"),
            answered: hub.counter("htsp_admission_answered_total"),
            answered_pairs: hub.counter("htsp_admission_answered_pairs_total"),
            queue_depth: hub.gauge("htsp_admission_queue_depth"),
            queue_wait: hub.histogram("htsp_query_queue_seconds"),
            execute: hub.histogram("htsp_query_execute_seconds"),
        }
    }
}

struct Shared {
    source: SnapshotSource,
    policy: AdmissionPolicy,
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
    hub: Arc<TelemetryHub>,
    stats: ServiceMetrics,
}

impl Shared {
    /// Blocks until a job is available or shutdown is flagged.
    fn pop_blocking(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("service queue poisoned");
        loop {
            if let Some(job) = queue.pop_front() {
                self.stats.queue_depth.set(queue.len() as u64);
                return Some(job);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            queue = self.available.wait(queue).expect("service queue poisoned");
        }
    }

    fn try_pop(&self) -> Option<Job> {
        let mut queue = self.queue.lock().expect("service queue poisoned");
        let job = queue.pop_front();
        if job.is_some() {
            self.stats.queue_depth.set(queue.len() as u64);
        }
        job
    }

    /// Serves one popped job: discards it unexecuted when its deadline has
    /// passed, answers it through `session` otherwise.
    fn serve(&self, pin: &mut Pinned<'_>, job: Job) {
        let popped_at = Instant::now();
        self.stats
            .queue_wait
            .record(popped_at.saturating_duration_since(job.accepted_at));
        self.hub
            .record_span(job.trace, "query", "queue", job.accepted_at, popped_at);
        if job.deadline.is_some_and(|d| popped_at >= d) {
            self.stats.expired_in_queue.inc();
            self.hub
                .record_event(job.trace, "query", "expired", popped_at);
            let _ = job.reply.send(BatchResult::Expired);
            return;
        }
        let pairs = job.batch.num_pairs() as u64;
        let reply = BatchAnswer {
            distances: job.batch.execute(pin.session),
            snapshot_version: pin.version,
            stage: pin.stage,
            algorithm: pin.algorithm,
            answered_at: Instant::now(),
        };
        self.stats
            .execute
            .record(reply.answered_at.saturating_duration_since(popped_at));
        self.hub
            .record_span(job.trace, "query", "execute", popped_at, reply.answered_at);
        self.stats.answered.inc();
        self.stats.answered_pairs.add(pairs);
        // A closed receiver just means the client lost interest.
        let _ = job.reply.send(BatchResult::Answered(reply));
    }
}

fn worker_loop(shared: &Shared) {
    // A job carried over from the previous pin because the published
    // version advanced mid-drain.
    let mut carried: Option<Job> = None;
    loop {
        let mut job = carried.take().or_else(|| shared.pop_blocking());
        if job.is_none() {
            return; // shutdown with an empty queue
        }
        // Pin: newest published state, one session, scratch checked out
        // once.
        let pin_start = Instant::now();
        shared.source.with_pinned(|mut pin| {
            shared
                .hub
                .record_span(TraceId::NONE, "query", "pin", pin_start, Instant::now());
            while let Some(next) = job.take() {
                shared.serve(&mut pin, next);
                match shared.try_pop() {
                    // Keep draining on the same session while the pinned
                    // state is still the newest one.
                    Some(next) if shared.source.version() == pin.version => job = Some(next),
                    // A newer stage was published: re-pin before answering.
                    Some(next) => carried = Some(next),
                    // Queue drained: drop the session (and its snapshot
                    // pin) so the maintainer can reclaim the COW memory,
                    // then park.
                    None => {}
                }
            }
        });
    }
}

/// A multi-threaded, batch-oriented shortest-distance serving front-end.
///
/// See the [module docs](self) for the worker/pinning architecture and the
/// admission-control section; the queue's overload behaviour is governed by
/// the [`AdmissionPolicy`] the service was started with. Dropping the
/// service shuts it down with the same drain-or-shed rule as
/// [`DistanceService::shutdown`].
pub struct DistanceService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl DistanceService {
    /// Starts `num_workers` serving threads (at least one) against
    /// `publisher`'s snapshots under `policy`. With a `cache`, every search
    /// consults it first and feeds it after, through a [`CachedSession`]
    /// pinned to the worker's snapshot version. Admission counters, queue
    /// gauges, latency histograms and query spans land in `hub` — the hub a
    /// deployment shares across its server, feed, cache and load generator
    /// so one [`TelemetryHub::snapshot`] covers the whole pipeline.
    pub fn start(
        publisher: Arc<SnapshotPublisher>,
        num_workers: usize,
        cache: Option<Arc<DistanceCache>>,
        policy: AdmissionPolicy,
        hub: Arc<TelemetryHub>,
    ) -> Self {
        let source = SnapshotSource { publisher, cache };
        let stats = ServiceMetrics::register(&hub);
        let shared = Arc::new(Shared {
            source,
            policy,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            hub,
            stats,
        });
        let workers = (0..num_workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("htsp-distance-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn distance worker")
            })
            .collect();
        DistanceService { shared, workers }
    }

    /// Enqueues a batch; the returned ticket yields the [`BatchAnswer`].
    ///
    /// # Panics
    ///
    /// Panics if the admission policy rejects the batch (a full
    /// [`Shed`](AdmissionPolicy::Shed) queue, or a deadline that already
    /// passed) — use [`DistanceService::try_submit`] under those policies.
    pub fn submit(&self, batch: QueryBatch) -> BatchTicket {
        match self.try_submit(batch) {
            SubmitOutcome::Accepted(ticket) => ticket,
            outcome => panic!("batch rejected by admission policy: {outcome:?}"),
        }
    }

    /// Policy-aware submission, timestamped now; see
    /// [`DistanceService::try_submit_at`].
    pub fn try_submit(&self, batch: QueryBatch) -> SubmitOutcome {
        self.try_submit_at(batch, Instant::now())
    }

    /// Policy-aware submission of a request *generated* at `generated_at`.
    ///
    /// The generation timestamp is what deadlines are measured from: under
    /// [`AdmissionPolicy::Deadline`] the batch's deadline is
    /// `generated_at + budget`, so a submitting thread that falls behind its
    /// arrival schedule cannot hide queueing delay — a request generated
    /// long ago may be `Expired` on arrival.
    pub fn try_submit_at(&self, batch: QueryBatch, generated_at: Instant) -> SubmitOutcome {
        let stats = &self.shared.stats;
        let hub = &self.shared.hub;
        let trace = TraceId::next();
        stats.submitted.inc();
        hub.record_event(trace, "query", "submit", generated_at);
        let deadline = match self.shared.policy {
            AdmissionPolicy::Deadline { budget } => {
                let deadline = generated_at + budget;
                if Instant::now() >= deadline {
                    stats.expired_at_submit.inc();
                    hub.record_event(trace, "query", "expired", Instant::now());
                    return SubmitOutcome::Expired;
                }
                Some(deadline)
            }
            _ => None,
        };
        let (tx, rx) = mpsc::channel();
        let depth = {
            let mut queue = self.shared.queue.lock().expect("service queue poisoned");
            if let AdmissionPolicy::Shed { max_depth } = self.shared.policy {
                if queue.len() >= max_depth {
                    stats.shed.inc();
                    hub.record_event(trace, "query", "shed", Instant::now());
                    return SubmitOutcome::Shed;
                }
            }
            queue.push_back(Job {
                batch,
                reply: tx,
                deadline,
                trace,
                accepted_at: generated_at,
            });
            // The gauge's `set` both stores the live depth and folds the
            // high-water mark through its single `fetch_max` path, so
            // racing submitters can never under-report the maximum.
            stats.queue_depth.set(queue.len() as u64);
            queue.len()
        };
        stats.accepted.inc();
        self.shared.available.notify_one();
        SubmitOutcome::Accepted(BatchTicket::new(rx, depth))
    }

    /// Convenience: submits and waits in one call.
    ///
    /// # Panics
    ///
    /// Panics if the policy rejects the batch or discards it unexecuted.
    pub fn answer(&self, batch: QueryBatch) -> BatchAnswer {
        self.submit(batch).wait()
    }

    /// The admission policy this service runs.
    pub fn policy(&self) -> AdmissionPolicy {
        self.shared.policy
    }

    /// Snapshot of the admission/execution counters and queue depth, read
    /// straight from the telemetry registry (the single source of truth —
    /// the same series the Prometheus export renders).
    pub fn stats(&self) -> ServiceStats {
        let stats = &self.shared.stats;
        ServiceStats {
            submitted: stats.submitted.get(),
            accepted: stats.accepted.get(),
            shed: stats.shed.get(),
            expired_at_submit: stats.expired_at_submit.get(),
            expired_in_queue: stats.expired_in_queue.get(),
            abandoned: stats.abandoned.get(),
            answered: stats.answered.get(),
            answered_pairs: stats.answered_pairs.get(),
            queue_depth: self
                .shared
                .queue
                .lock()
                .expect("service queue poisoned")
                .len(),
            max_queue_depth: stats.queue_depth.max() as usize,
        }
    }

    /// The telemetry hub this service records into.
    pub fn telemetry(&self) -> &Arc<TelemetryHub> {
        &self.shared.hub
    }

    /// Number of serving threads.
    pub fn num_workers(&self) -> usize {
        self.workers.len()
    }

    /// Flags shutdown, settles the remaining queue deterministically, and
    /// joins the workers.
    ///
    /// The fate of jobs still queued at shutdown follows the admission
    /// policy: under [`AdmissionPolicy::Block`] the workers **drain** them
    /// (every accepted batch is still answered, as before); under a
    /// shedding policy ([`Shed`](AdmissionPolicy::Shed) /
    /// [`Deadline`](AdmissionPolicy::Deadline)) the queue is **shed** —
    /// each leftover job resolves to [`BatchResult::Abandoned`] without
    /// being executed, so shutdown latency is one in-flight batch per
    /// worker instead of the whole backlog. Either way the report says how
    /// many jobs were drained or abandoned.
    pub fn shutdown(mut self) -> ShutdownReport {
        self.shutdown_inner()
    }

    fn shutdown_inner(&mut self) -> ShutdownReport {
        self.shared.shutdown.store(true, Ordering::Release);
        let drain = matches!(self.shared.policy, AdmissionPolicy::Block);
        let (drained, abandoned) = {
            let mut queue = self.shared.queue.lock().expect("service queue poisoned");
            if drain {
                (queue.len(), Vec::new())
            } else {
                let jobs: Vec<Job> = queue.drain(..).collect();
                self.shared.stats.queue_depth.set(0);
                (0, jobs)
            }
        };
        let abandoned_count = abandoned.len();
        let now = Instant::now();
        for job in abandoned {
            self.shared.stats.abandoned.inc();
            self.shared
                .hub
                .record_event(job.trace, "query", "abandoned", now);
            let _ = job.reply.send(BatchResult::Abandoned);
        }
        self.shared.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        ShutdownReport {
            drained,
            abandoned: abandoned_count,
        }
    }
}

impl Drop for DistanceService {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

impl std::fmt::Debug for DistanceService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceService")
            .field("num_workers", &self.workers.len())
            .field("policy", &self.shared.policy)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_baselines::DchBaseline;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{IndexMaintainer, QuerySet, UpdateGenerator};
    use htsp_search::dijkstra_distance;

    #[test]
    fn service_answers_all_batch_shapes_exactly() {
        let g = grid(9, 9, WeightRange::new(1, 20), 5);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            Arc::clone(&publisher),
            3,
            None,
            AdmissionPolicy::Block,
            Arc::new(TelemetryHub::new()),
        );

        let qs = QuerySet::random(&g, 30, 7);
        let p2p = service.answer(QueryBatch::PointToPoint(qs.as_slice().to_vec()));
        assert_eq!(p2p.algorithm, "DCH");
        assert_eq!(p2p.distances.len(), 30);
        for (q, &d) in qs.iter().zip(&p2p.distances) {
            assert_eq!(d, dijkstra_distance(&g, q.source, q.target));
        }

        let targets: Vec<VertexId> = (0..20).map(|i| VertexId(i * 4)).collect();
        let fan = service.answer(QueryBatch::OneToMany {
            source: VertexId(40),
            targets: targets.clone(),
        });
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(fan.distances[i], dijkstra_distance(&g, VertexId(40), t));
        }

        let sources = vec![VertexId(0), VertexId(13), VertexId(80)];
        let m = service.answer(QueryBatch::Matrix {
            sources: sources.clone(),
            targets: targets.clone(),
        });
        assert_eq!(m.distances.len(), sources.len() * targets.len());
        for (i, &s) in sources.iter().enumerate() {
            for (j, &t) in targets.iter().enumerate() {
                assert_eq!(
                    m.distances[i * targets.len() + j],
                    dijkstra_distance(&g, s, t),
                    "matrix({s}, {t}) diverged"
                );
            }
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 3);
        assert_eq!(stats.accepted, 3);
        assert_eq!(stats.answered, 3);
        assert_eq!(stats.answered_pairs, 30 + 20 + 60);
        assert_eq!(
            stats.shed + stats.expired_at_submit + stats.expired_in_queue,
            0
        );
        let report = service.shutdown();
        assert_eq!(report.drained + report.abandoned, 0);
    }

    #[test]
    fn workers_repin_when_a_new_snapshot_is_published() {
        let mut g = grid(8, 8, WeightRange::new(5, 30), 9);
        let mut idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            Arc::clone(&publisher),
            2,
            None,
            AdmissionPolicy::Block,
            Arc::new(TelemetryHub::new()),
        );

        let qs = QuerySet::random(&g, 10, 3);
        let before = service.answer(QueryBatch::PointToPoint(qs.as_slice().to_vec()));
        assert_eq!(before.snapshot_version, 0);

        // Maintenance publishes a new snapshot through the same publisher.
        let mut gen = UpdateGenerator::new(11);
        let batch = gen.generate(&g, 20);
        g.apply_batch(&batch);
        idx.apply_batch(&g, &batch, &publisher);
        assert!(publisher.version() >= 1);

        let after = service.answer(QueryBatch::PointToPoint(qs.as_slice().to_vec()));
        assert_eq!(after.snapshot_version, publisher.version());
        for (q, &d) in qs.iter().zip(&after.distances) {
            assert_eq!(d, dijkstra_distance(&g, q.source, q.target));
        }
        // The pre-update answers were exact on the *old* graph — snapshot
        // isolation end to end.
        drop(service);
    }

    #[test]
    fn tickets_poll_and_time_out_without_being_consumed() {
        let g = grid(5, 5, WeightRange::new(1, 5), 2);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            publisher,
            1,
            None,
            AdmissionPolicy::Block,
            Arc::new(TelemetryHub::new()),
        );
        let ticket = service.submit(QueryBatch::PointToPoint(vec![Query::new(
            VertexId(0),
            VertexId(24),
        )]));
        // Poll until the answer lands; the ticket survives misses.
        let answer = loop {
            if let Some(a) = ticket.try_wait() {
                break a;
            }
            std::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(
            answer.distances[0],
            dijkstra_distance(&g, VertexId(0), VertexId(24))
        );
        // An answered ticket caches: every further wait variant returns the
        // same answer instead of blocking or coming back empty.
        let again = service.submit(QueryBatch::PointToPoint(vec![Query::new(
            VertexId(1),
            VertexId(2),
        )]));
        let first = again
            .wait_timeout(Duration::from_secs(5))
            .expect("batch unanswered");
        let second = again
            .wait_timeout(Duration::from_millis(1))
            .expect("answered ticket must keep its answer");
        assert_eq!(first.distances, second.distances);
        assert_eq!(first.snapshot_version, second.snapshot_version);
        assert_eq!(again.try_wait().expect("cached").distances, first.distances);
        assert_eq!(again.wait().distances, first.distances);
        service.shutdown();
    }

    #[test]
    fn cached_workers_answer_repeats_from_the_cache_without_staleness() {
        use crate::config::CacheConfig;
        let mut g = grid(8, 8, WeightRange::new(2, 25), 3);
        let mut idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let cache = Arc::new(DistanceCache::new(CacheConfig::with_capacity(256)));
        let service = DistanceService::start(
            Arc::clone(&publisher),
            1,
            Some(Arc::clone(&cache)),
            AdmissionPolicy::Block,
            Arc::new(TelemetryHub::new()),
        );

        let qs = QuerySet::random(&g, 8, 11);
        let batch = QueryBatch::PointToPoint(qs.as_slice().to_vec());
        let first = service.answer(batch.clone());
        let second = service.answer(batch.clone());
        assert_eq!(first.distances, second.distances);
        assert!(
            cache.stats().hits >= qs.len() as u64,
            "the repeated batch must be served from the cache"
        );

        // A publication invalidates: the same pairs are recomputed on the
        // new snapshot, never served from version-0 entries.
        let mut gen = UpdateGenerator::new(5);
        let update = gen.generate(&g, 15);
        g.apply_batch(&update);
        idx.apply_batch(&g, &update, &publisher);
        cache.bump_epoch(publisher.version());
        let after = service.answer(batch);
        assert_eq!(after.snapshot_version, publisher.version());
        for (q, &d) in qs.iter().zip(&after.distances) {
            assert_eq!(
                d,
                dijkstra_distance(&g, q.source, q.target),
                "stale cached answer crossed the publication"
            );
        }
        assert!(cache.stats().stale_misses > 0);
        service.shutdown();
    }

    #[test]
    fn dropping_the_service_joins_workers() {
        let g = grid(4, 4, WeightRange::new(1, 5), 1);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            publisher,
            4,
            None,
            AdmissionPolicy::Block,
            Arc::new(TelemetryHub::new()),
        );
        let ticket = service.submit(QueryBatch::OneToMany {
            source: VertexId(0),
            targets: vec![VertexId(15)],
        });
        drop(service); // Block policy: the queued batch is still answered
        let answer = ticket.wait();
        assert_eq!(
            answer.distances[0],
            dijkstra_distance(&g, VertexId(0), VertexId(15))
        );
    }

    #[test]
    fn shed_policy_rejects_above_max_depth_and_reports_it() {
        let g = grid(5, 5, WeightRange::new(1, 5), 4);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            publisher,
            1,
            None,
            AdmissionPolicy::Shed { max_depth: 0 },
            Arc::new(TelemetryHub::new()),
        );
        // Depth bound 0: with the single worker parked on an empty queue,
        // the very first submission already finds the queue at its bound...
        // unless the worker pops it first. Quiesce by checking the outcome
        // kind only; determinism is covered in tests/service_concurrency.rs.
        let q = QueryBatch::PointToPoint(vec![Query::new(VertexId(0), VertexId(24))]);
        let outcome = service.try_submit(q.clone());
        match outcome {
            SubmitOutcome::Accepted(t) => {
                let _ = t.wait_result();
            }
            SubmitOutcome::Shed => {}
            SubmitOutcome::Expired => panic!("no deadline policy in force"),
        }
        let stats = service.stats();
        assert_eq!(stats.submitted, 1);
        assert_eq!(stats.accepted + stats.shed, 1);
        service.shutdown();
    }

    #[test]
    fn deadline_policy_expires_stale_requests_at_submit() {
        let g = grid(5, 5, WeightRange::new(1, 5), 4);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            publisher,
            1,
            None,
            AdmissionPolicy::Deadline {
                budget: Duration::from_millis(10),
            },
            Arc::new(TelemetryHub::new()),
        );
        let q = QueryBatch::PointToPoint(vec![Query::new(VertexId(0), VertexId(24))]);
        // Generated 50ms ago with a 10ms budget: expired on arrival.
        let stale = Instant::now() - Duration::from_millis(50);
        assert!(matches!(
            service.try_submit_at(q.clone(), stale),
            SubmitOutcome::Expired
        ));
        // A fresh request sails through.
        let fresh = service.try_submit(q).expect_accepted();
        assert!(fresh.wait_result().answered().is_some());
        let stats = service.stats();
        assert_eq!(stats.expired_at_submit, 1);
        assert_eq!(stats.answered, 1);
        service.shutdown();
    }

    #[test]
    fn shedding_shutdown_abandons_the_backlog_and_reports_it() {
        let g = grid(5, 5, WeightRange::new(1, 5), 4);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let service = DistanceService::start(
            publisher,
            1,
            None,
            AdmissionPolicy::Shed { max_depth: 1000 },
            Arc::new(TelemetryHub::new()),
        );
        let q = QueryBatch::PointToPoint(vec![Query::new(VertexId(0), VertexId(24))]);
        let tickets: Vec<BatchTicket> = (0..200)
            .filter_map(|_| service.try_submit(q.clone()).ticket())
            .collect();
        let report = service.shutdown();
        // Every ticket resolved exactly once: answered before the shutdown
        // took the queue, or abandoned by it — never dropped.
        let mut answered = 0usize;
        let mut abandoned = 0usize;
        for t in &tickets {
            match t.wait_result() {
                BatchResult::Answered(_) => answered += 1,
                BatchResult::Abandoned => abandoned += 1,
                BatchResult::Expired => panic!("no deadline policy in force"),
            }
        }
        assert_eq!(answered + abandoned, tickets.len());
        assert_eq!(report.abandoned, abandoned);
        assert_eq!(report.drained, 0);
    }

    #[test]
    fn spans_stay_balanced_under_concurrent_shed_and_expired_load() {
        use crate::telemetry::{validate_json, validate_prometheus, TelemetryHub};
        let g = grid(8, 8, WeightRange::new(1, 20), 9);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let hub = Arc::new(TelemetryHub::new());

        // Concurrent submitters against one worker and a depth bound of 1:
        // many batches shed, the rest are answered — every accepted batch
        // must close its queue and execute spans exactly once.
        let shedding = DistanceService::start(
            Arc::clone(&publisher),
            1,
            None,
            AdmissionPolicy::Shed { max_depth: 1 },
            Arc::clone(&hub),
        );
        let qs = QuerySet::random(&g, 32, 7);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50 {
                        let batch = QueryBatch::PointToPoint(qs.as_slice().to_vec());
                        if let SubmitOutcome::Accepted(t) = shedding.try_submit(batch) {
                            let _ = t.wait_result();
                        }
                    }
                });
            }
        });
        let shed_stats = shedding.stats();
        assert!(
            shed_stats.shed > 0,
            "the tight bound must shed under a 4-way burst"
        );
        shedding.shutdown();

        // The expired-at-submit path is deterministic: a request generated
        // well past its deadline budget is refused before it is enqueued.
        let deadline = DistanceService::start(
            Arc::clone(&publisher),
            1,
            None,
            AdmissionPolicy::Deadline {
                budget: Duration::from_millis(5),
            },
            Arc::clone(&hub),
        );
        let q = QueryBatch::PointToPoint(vec![Query::new(VertexId(0), VertexId(63))]);
        let stale = Instant::now()
            .checked_sub(Duration::from_millis(50))
            .expect("process uptime exceeds 50ms");
        for _ in 0..8 {
            match deadline.try_submit_at(q.clone(), stale) {
                SubmitOutcome::Expired => {}
                SubmitOutcome::Accepted(t) => {
                    let _ = t.wait_result();
                }
                SubmitOutcome::Shed => panic!("no shed policy in force"),
            }
        }
        // Best-effort exercise of the expired-in-queue path: a burst of
        // fresh requests whose budget may lapse while queued.
        let pending: Vec<BatchTicket> = (0..16)
            .filter_map(|_| deadline.try_submit(q.clone()).ticket())
            .collect();
        for t in pending {
            let _ = t.wait_result();
        }
        assert!(deadline.stats().expired_at_submit > 0);
        deadline.shutdown();

        let snap = hub.snapshot();
        assert!(snap.spans_opened > 0);
        assert!(
            snap.spans_balanced(),
            "{} spans opened vs {} closed",
            snap.spans_opened,
            snap.spans_closed
        );
        validate_prometheus(&snap.prometheus).expect("valid exposition");
        validate_json(&snap.chrome_trace).expect("valid trace JSON");
    }

    #[test]
    fn telemetry_overhead_stays_within_the_five_percent_qps_budget() {
        use crate::telemetry::TelemetryHub;
        let g = grid(16, 16, WeightRange::new(1, 40), 2);
        let idx = DchBaseline::build(&g);
        let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
        let pool: Vec<Query> = QuerySet::random(&g, 64, 3).as_slice().to_vec();

        let qps = |hub: Arc<TelemetryHub>| -> f64 {
            let service = DistanceService::start(
                Arc::clone(&publisher),
                1,
                None,
                AdmissionPolicy::Block,
                hub,
            );
            for chunk in pool.chunks(8).take(4) {
                service.answer(QueryBatch::PointToPoint(chunk.to_vec()));
            }
            let iters = 300usize;
            let start = Instant::now();
            for i in 0..iters {
                let off = (i * 8) % 56;
                let chunk = &pool[off..off + 8];
                service.answer(QueryBatch::PointToPoint(chunk.to_vec()));
            }
            let elapsed = start.elapsed().as_secs_f64();
            service.shutdown();
            (iters * 8) as f64 / elapsed
        };

        // Best-of-3 per side, with whole-comparison retries: shared CI
        // machines jitter far more than the budget being measured, so one
        // clean round is enough to show the instrumented path keeps pace.
        let mut ok = false;
        for _ in 0..5 {
            let disabled = (0..3)
                .map(|_| qps(Arc::new(TelemetryHub::disabled())))
                .fold(0.0f64, f64::max);
            let enabled = (0..3)
                .map(|_| qps(Arc::new(TelemetryHub::new())))
                .fold(0.0f64, f64::max);
            if enabled >= 0.95 * disabled {
                ok = true;
                break;
            }
        }
        assert!(
            ok,
            "telemetry overhead exceeded the 5% closed-loop QPS budget"
        );
    }
}
