//! The unified telemetry subsystem: one [`TelemetryHub`] per deployment
//! holding the metrics registry and the pipeline span recorder, exportable
//! as Prometheus text exposition and as Chrome trace-event JSON.
//!
//! # Why one hub
//!
//! Before this module, runtime accounting was a patchwork of ad-hoc structs
//! (`ServiceStats` counters inside the service, `CacheStats` inside each
//! cache shard's mutex, `FleetTelemetry` inside the router, lag vectors with
//! their own sort-based percentile code). Each answered one question and
//! none could attribute a single request's latency across pipeline stages.
//! The hub centralises both concerns:
//!
//! * **Metrics registry** — named [`Counter`]s, [`Gauge`]s (with a
//!   high-water mark folded by `fetch_max`, the single code path for every
//!   lifetime-maximum statistic), and labeled [`Histogram`]s backed by
//!   [`LatencyHistogram`] — the repo's one
//!   quantile implementation. Components resolve handles once at
//!   construction and update lock-free atomics on the hot path; the
//!   existing stats structs (`ServiceStats`, `CacheStats`, `FeedStats`)
//!   are *views over the registry*, not separate state.
//! * **Span recorder** — a bounded ring buffer of completed spans and
//!   instant events, each attributed to a
//!   [`TraceId`] minted at the pipeline entrance:
//!   one per edge update at [`UpdateFeed::submit`](crate::UpdateFeed) and
//!   one per query batch at
//!   [`DistanceService::try_submit`](crate::DistanceService::try_submit).
//!   The id rides along through coalescing, every maintainer stage,
//!   publication, and ticket visibility (updates), or through
//!   admit/queue/execute/answer (queries), so a flat export reconstructs
//!   any single request end-to-end.
//!
//! # Metric naming scheme
//!
//! All metrics are prefixed `htsp_` and grouped by pipeline section:
//!
//! | prefix | section |
//! |---|---|
//! | `htsp_ingest_*` | update feed: submissions, batches, coalesce wait |
//! | `htsp_stage_seconds{stage=...}` | per-maintainer-stage repair time |
//! | `htsp_publish_*` | snapshot publications, COW clone effort, version |
//! | `htsp_admission_*` | query service: submit/accept/shed/expire/answer, queue depth |
//! | `htsp_query_*_seconds` | query queueing and execution latency |
//! | `htsp_cache_*` | distance-cache lookups, inserts, evictions |
//! | `htsp_fleet_*{shard=...}` | sharded server: queries and updates per shard, shard visibility lag, overlay size |
//! | `htsp_loadgen_*{class=...}` | load driver ([`run_load`](crate::run_load)) per-class outcomes |
//!
//! Histograms record nanoseconds internally and export seconds, following
//! Prometheus base-unit convention (`*_seconds`).
//!
//! # Span vocabulary
//!
//! Updates (category `update`): `submit` (instant) → `coalesce` (submit to
//! batch drain) → one span per maintainer stage (named after the stage) →
//! `publish` (repair start to first containing publication) → `visible`
//! (submit to first containing publication). Queries (category `query`):
//! `submit` (instant) → `queue` (accept to worker pop) → `execute` (worker
//! answer time), with terminal instants `shed` / `expired` / `abandoned`
//! on the rejection paths. A sharded server's batches carry the fleet
//! maintainer's two stages (`U1: route + overlay repair`, `U2: shard
//! repair`) as their stage spans.
//!
//! # Exports
//!
//! [`TelemetryHub::snapshot`] renders both formats in one consistent cut:
//!
//! * **Prometheus text exposition** ([`TelemetryHub::export_prometheus`]) —
//!   `# TYPE` headers plus one sample line per series; histograms emit
//!   cumulative `_bucket{le=...}` series over the non-empty log buckets,
//!   `_sum`, and `_count`. [`validate_prometheus`] is the line-format
//!   checker CI runs against the export.
//! * **Chrome trace-event JSON** ([`TelemetryHub::export_chrome_trace`]) —
//!   an object with a `traceEvents` array of complete (`"ph":"X"`) and
//!   instant (`"ph":"i"`) events, timestamps in microseconds since the hub
//!   epoch, each carrying its trace id in `args.trace`. Load the file
//!   directly into `chrome://tracing` or <https://ui.perfetto.dev>; sort or
//!   filter by `trace` to reconstruct one request. [`validate_json`] is the
//!   dependency-free syntax checker CI runs against the export.
//!
//! A [`Reporter`] thread can snapshot the hub periodically
//! ([`TelemetryHub::start_reporter`]) for long-running deployments.
//!
//! # Overhead
//!
//! Metrics are always on (relaxed atomics; a shared histogram mutex per
//! series held for a few instructions). Span recording is gated by one
//! relaxed [`AtomicBool`] ([`TelemetryHub::set_tracing`]); the budget test
//! in this module asserts the fully-enabled hub costs ≤5% closed-loop QPS
//! against the same pipeline with tracing off.

use crate::slo::LatencyHistogram;
use htsp_graph::obs::{SpanSink, TraceId};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Default bound of the span ring buffer (events; oldest evicted first).
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// A monotonically increasing event counter (handle; cloning shares the
/// underlying atomic).
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh detached counter (attach it to a hub with
    /// [`TelemetryHub::register_counter`]).
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A settable value with a lifetime high-water mark.
///
/// [`Gauge::set`] is the **single** `fetch_max` path for every
/// lifetime-maximum statistic in the repo (queue depths, ingest depths):
/// the current value is stored and the high-water mark folded atomically in
/// one place, so concurrent setters can never under-report the maximum.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    high: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh detached gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the current value and folds it into the high-water mark.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
        self.high.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Lifetime high-water mark of [`set`](Self::set) values.
    pub fn max(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }
}

/// A shared latency histogram handle over the repo's single quantile
/// implementation ([`LatencyHistogram`]).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Arc<Mutex<LatencyHistogram>>);

impl Histogram {
    /// A fresh detached histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, latency: Duration) {
        self.lock().record(latency);
    }

    /// Records one sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.lock().record_ns(ns);
    }

    /// Records one sample in seconds.
    pub fn record_secs(&self, secs: f64) {
        self.lock().record_secs(secs);
    }

    /// Folds an already-aggregated histogram in (for per-thread or
    /// per-run aggregation).
    pub fn merge_from(&self, other: &LatencyHistogram) {
        self.lock().merge(other);
    }

    /// A point-in-time copy of the underlying histogram.
    pub fn snapshot(&self) -> LatencyHistogram {
        self.lock().clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LatencyHistogram> {
        self.0.lock().expect("histogram poisoned")
    }
}

/// One registered metric.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    /// Renders the high-water mark of a [`Gauge`] as its own gauge series.
    GaugeMax(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) | Metric::GaugeMax(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Clone, Debug)]
struct RegEntry {
    name: String,
    /// Rendered label set, `{k="v",...}` or empty.
    labels: String,
    metric: Metric,
}

/// One recorded span or instant event (ring-buffer entry).
#[derive(Clone, Copy, Debug)]
struct SpanRec {
    trace: u64,
    cat: &'static str,
    name: &'static str,
    /// Nanoseconds since the hub epoch.
    start_ns: u64,
    /// Zero for instant events.
    dur_ns: u64,
    tid: u64,
    instant: bool,
}

/// Per-process small-integer thread ids for the trace export (Chrome's
/// `tid` field); assigned on each thread's first recorded event.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static CHROME_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn current_tid() -> u64 {
    CHROME_TID.with(|t| *t)
}

/// The unified metrics registry + span recorder (see the
/// [module docs](self)).
#[derive(Debug)]
pub struct TelemetryHub {
    tracing: AtomicBool,
    registry: Mutex<BTreeMap<String, RegEntry>>,
    spans: Mutex<VecDeque<SpanRec>>,
    span_capacity: usize,
    epoch: Instant,
    spans_opened: AtomicU64,
    spans_closed: AtomicU64,
    spans_dropped: AtomicU64,
    events_recorded: AtomicU64,
}

impl Default for TelemetryHub {
    fn default() -> Self {
        TelemetryHub::new()
    }
}

impl TelemetryHub {
    /// A hub with span tracing **enabled** and the default ring capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY, true)
    }

    /// A hub with span tracing **disabled** (metrics still record); flip it
    /// on later with [`set_tracing`](Self::set_tracing).
    pub fn disabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY, false)
    }

    /// A hub with an explicit span ring capacity.
    pub fn with_capacity(span_capacity: usize, tracing: bool) -> Self {
        TelemetryHub {
            tracing: AtomicBool::new(tracing),
            registry: Mutex::new(BTreeMap::new()),
            spans: Mutex::new(VecDeque::new()),
            span_capacity: span_capacity.max(1),
            epoch: Instant::now(),
            spans_opened: AtomicU64::new(0),
            spans_closed: AtomicU64::new(0),
            spans_dropped: AtomicU64::new(0),
            events_recorded: AtomicU64::new(0),
        }
    }

    /// The instant all exported timestamps are relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Enables or disables span recording (metrics are unaffected). The
    /// open/close balance counters only advance while tracing is on, so
    /// toggle at quiescent points when asserting balance.
    pub fn set_tracing(&self, on: bool) {
        self.tracing.store(on, Ordering::Relaxed);
    }

    /// `true` while span recording is on.
    pub fn tracing_enabled(&self) -> bool {
        self.tracing.load(Ordering::Relaxed)
    }

    // ---- registry -------------------------------------------------------

    fn render_labels(labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return String::new();
        }
        let mut sorted: Vec<_> = labels.to_vec();
        sorted.sort();
        let body: Vec<String> = sorted
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }

    fn get_or_insert(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        make: impl FnOnce() -> Metric,
    ) -> Metric {
        let labels = Self::render_labels(labels);
        let key = format!("{name}{labels}");
        let mut reg = self.registry.lock().expect("registry poisoned");
        reg.entry(key)
            .or_insert_with(|| RegEntry {
                name: name.to_string(),
                labels,
                metric: make(),
            })
            .metric
            .clone()
    }

    /// The counter registered under `name` (created on first use).
    pub fn counter(&self, name: &str) -> Counter {
        self.labeled_counter(name, &[])
    }

    /// The counter registered under `name{labels}` (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if the series is already registered as a different metric
    /// type.
    pub fn labeled_counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.get_or_insert(name, labels, || Metric::Counter(Counter::new())) {
            Metric::Counter(c) => c,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// The gauge registered under `name` (created on first use); its
    /// high-water mark is exported alongside as `name_max`.
    ///
    /// # Panics
    ///
    /// Panics if the series is already registered as a different metric
    /// type.
    pub fn gauge(&self, name: &str) -> Gauge {
        let g = match self.get_or_insert(name, &[], || Metric::Gauge(Gauge::new())) {
            Metric::Gauge(g) => g,
            other => panic!("{name} already registered as {}", other.type_name()),
        };
        self.get_or_insert(&format!("{name}_max"), &[], || Metric::GaugeMax(g.clone()));
        g
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.labeled_histogram(name, &[])
    }

    /// The histogram registered under `name{labels}` (created on first
    /// use).
    ///
    /// # Panics
    ///
    /// Panics if the series is already registered as a different metric
    /// type.
    pub fn labeled_histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.get_or_insert(name, labels, || Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h,
            other => panic!("{name} already registered as {}", other.type_name()),
        }
    }

    /// Adopts an existing detached counter under `name{labels}`, replacing
    /// any previous registration of that series. This is how components
    /// that predate their hub wiring (e.g. a cache built before the server)
    /// surface their already-live atomics as registry series.
    pub fn register_counter(&self, name: &str, labels: &[(&str, &str)], counter: &Counter) {
        self.adopt(name, labels, Metric::Counter(counter.clone()));
    }

    /// Adopts an existing detached gauge under `name` (and its high-water
    /// mark under `name_max`).
    pub fn register_gauge(&self, name: &str, labels: &[(&str, &str)], gauge: &Gauge) {
        self.adopt(name, labels, Metric::Gauge(gauge.clone()));
        self.adopt(
            &format!("{name}_max"),
            labels,
            Metric::GaugeMax(gauge.clone()),
        );
    }

    /// Adopts an existing detached histogram under `name{labels}`.
    pub fn register_histogram(&self, name: &str, labels: &[(&str, &str)], histogram: &Histogram) {
        self.adopt(name, labels, Metric::Histogram(histogram.clone()));
    }

    fn adopt(&self, name: &str, labels: &[(&str, &str)], metric: Metric) {
        let labels = Self::render_labels(labels);
        let key = format!("{name}{labels}");
        let mut reg = self.registry.lock().expect("registry poisoned");
        reg.insert(
            key,
            RegEntry {
                name: name.to_string(),
                labels,
                metric,
            },
        );
    }

    /// The current value of the counter series `key` (full key including
    /// rendered labels), if registered.
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        let reg = self.registry.lock().expect("registry poisoned");
        match reg.get(key).map(|e| &e.metric) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Point-in-time copies of every registered histogram series as
    /// `(full series key, histogram)` pairs in key order.
    pub fn histogram_values(&self) -> Vec<(String, LatencyHistogram)> {
        let reg = self.registry.lock().expect("registry poisoned");
        reg.iter()
            .filter_map(|(k, e)| match &e.metric {
                Metric::Histogram(h) => Some((k.clone(), h.snapshot())),
                _ => None,
            })
            .collect()
    }

    // ---- spans ----------------------------------------------------------

    fn push_rec(&self, rec: SpanRec) {
        let mut ring = self.spans.lock().expect("span ring poisoned");
        if ring.len() >= self.span_capacity {
            ring.pop_front();
            self.spans_dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(rec);
    }

    fn rec_of(
        &self,
        trace: TraceId,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
        instant: bool,
    ) -> SpanRec {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = end.saturating_duration_since(start).as_nanos() as u64;
        SpanRec {
            trace: trace.0,
            cat,
            name,
            start_ns,
            dur_ns,
            tid: current_tid(),
            instant,
        }
    }

    /// Records a completed span (counted as opened **and** closed — a
    /// retroactively recorded interval is balanced by construction). No-op
    /// while tracing is off.
    pub fn record_span(
        &self,
        trace: TraceId,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.tracing_enabled() {
            return;
        }
        self.spans_opened.fetch_add(1, Ordering::Relaxed);
        self.spans_closed.fetch_add(1, Ordering::Relaxed);
        self.push_rec(self.rec_of(trace, cat, name, start, end, false));
    }

    /// Records an instant event. No-op while tracing is off.
    pub fn record_event(&self, trace: TraceId, cat: &'static str, name: &'static str, at: Instant) {
        if !self.tracing_enabled() {
            return;
        }
        self.events_recorded.fetch_add(1, Ordering::Relaxed);
        self.push_rec(self.rec_of(trace, cat, name, at, at, true));
    }

    /// Opens a scoped span, counted open immediately; it closes (exactly
    /// once) when the guard is [`end`](SpanGuard::end)ed or dropped.
    /// Returns a disarmed guard while tracing is off.
    pub fn begin_span<'a>(
        &'a self,
        trace: TraceId,
        cat: &'static str,
        name: &'static str,
    ) -> SpanGuard<'a> {
        let armed = self.tracing_enabled();
        if armed {
            self.spans_opened.fetch_add(1, Ordering::Relaxed);
        }
        SpanGuard {
            hub: self,
            trace,
            cat,
            name,
            start: Instant::now(),
            armed,
        }
    }

    /// Spans opened so far (scoped + retroactive), while tracing was on.
    pub fn spans_opened(&self) -> u64 {
        self.spans_opened.load(Ordering::Relaxed)
    }

    /// Spans closed so far; equals [`spans_opened`](Self::spans_opened)
    /// whenever no scoped span guard is live.
    pub fn spans_closed(&self) -> u64 {
        self.spans_closed.load(Ordering::Relaxed)
    }

    /// Ring-buffer evictions (oldest events discarded at capacity).
    pub fn spans_dropped(&self) -> u64 {
        self.spans_dropped.load(Ordering::Relaxed)
    }

    // ---- exports --------------------------------------------------------

    /// Renders every registered series as Prometheus text exposition
    /// (validated by [`validate_prometheus`]).
    pub fn export_prometheus(&self) -> String {
        let reg = self.registry.lock().expect("registry poisoned");
        let mut out = String::new();
        let mut last_type_header = String::new();
        for entry in reg.values() {
            let header = format!("# TYPE {} {}\n", entry.name, entry.metric.type_name());
            if header != last_type_header {
                out.push_str(&header);
                last_type_header = header;
            }
            let series = format!("{}{}", entry.name, entry.labels);
            match &entry.metric {
                Metric::Counter(c) => {
                    out.push_str(&format!("{series} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    out.push_str(&format!("{series} {}\n", g.get()));
                }
                Metric::GaugeMax(g) => {
                    out.push_str(&format!("{series} {}\n", g.max()));
                }
                Metric::Histogram(h) => {
                    let snap = h.snapshot();
                    let mut cum = 0u64;
                    for (upper_ns, count) in snap.nonzero_buckets() {
                        cum += count;
                        out.push_str(&format!(
                            "{}_bucket{} {cum}\n",
                            entry.name,
                            with_le(&entry.labels, &format_secs(upper_ns as f64 / 1e9)),
                        ));
                    }
                    out.push_str(&format!(
                        "{}_bucket{} {}\n",
                        entry.name,
                        with_le(&entry.labels, "+Inf"),
                        snap.count(),
                    ));
                    out.push_str(&format!(
                        "{}_sum{} {}\n",
                        entry.name,
                        entry.labels,
                        format_secs(snap.sum_ns() as f64 / 1e9),
                    ));
                    out.push_str(&format!(
                        "{}_count{} {}\n",
                        entry.name,
                        entry.labels,
                        snap.count(),
                    ));
                }
            }
        }
        out
    }

    /// Renders the span ring as Chrome trace-event JSON: an object with a
    /// `traceEvents` array of complete (`X`) and instant (`i`) events,
    /// microsecond timestamps relative to the hub epoch, and each event's
    /// trace id under `args.trace`. Loadable in `chrome://tracing` and
    /// Perfetto; validated by [`validate_json`].
    pub fn export_chrome_trace(&self) -> String {
        let ring = self.spans.lock().expect("span ring poisoned");
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, rec) in ring.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts = rec.start_ns as f64 / 1e3;
            if rec.instant {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts:.3},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":{}}}}}",
                    escape_json(rec.name),
                    escape_json(rec.cat),
                    rec.tid,
                    rec.trace,
                ));
            } else {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"trace\":{}}}}}",
                    escape_json(rec.name),
                    escape_json(rec.cat),
                    rec.dur_ns as f64 / 1e3,
                    rec.tid,
                    rec.trace,
                ));
            }
        }
        out.push_str("]}");
        out
    }

    /// One consistent cut of both export formats plus the span balance
    /// counters.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let prometheus = self.export_prometheus();
        let chrome_trace = self.export_chrome_trace();
        TelemetrySnapshot {
            prometheus,
            chrome_trace,
            spans_opened: self.spans_opened(),
            spans_closed: self.spans_closed(),
            spans_dropped: self.spans_dropped(),
            span_events: self.spans.lock().expect("span ring poisoned").len(),
        }
    }

    /// Spawns the periodic snapshot reporter: every `interval`, `report` is
    /// called with a fresh [`TelemetrySnapshot`] until the returned handle
    /// is stopped or dropped.
    pub fn start_reporter<F>(self: &Arc<Self>, interval: Duration, report: F) -> Reporter
    where
        F: FnMut(TelemetrySnapshot) + Send + 'static,
    {
        let hub = Arc::clone(self);
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_state = Arc::clone(&state);
        let mut report = report;
        let handle = std::thread::Builder::new()
            .name("htsp-telemetry".to_string())
            .spawn(move || {
                let (stop, cv) = &*thread_state;
                let mut stopped = stop.lock().expect("reporter state poisoned");
                loop {
                    let (guard, timeout) = cv
                        .wait_timeout(stopped, interval)
                        .expect("reporter state poisoned");
                    stopped = guard;
                    if *stopped {
                        return;
                    }
                    if timeout.timed_out() {
                        report(hub.snapshot());
                    }
                }
            })
            .expect("spawn telemetry reporter");
        Reporter {
            state,
            handle: Some(handle),
        }
    }
}

impl SpanSink for TelemetryHub {
    fn span(
        &self,
        trace: TraceId,
        cat: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.record_span(trace, cat, name, start, end);
    }

    fn event(&self, trace: TraceId, cat: &'static str, name: &'static str, at: Instant) {
        self.record_event(trace, cat, name, at);
    }

    fn is_recording(&self) -> bool {
        self.tracing_enabled()
    }
}

/// A scoped span opened by [`TelemetryHub::begin_span`]; closes exactly
/// once, on [`end`](Self::end) or drop (whichever comes first).
#[derive(Debug)]
pub struct SpanGuard<'a> {
    hub: &'a TelemetryHub,
    trace: TraceId,
    cat: &'static str,
    name: &'static str,
    start: Instant,
    armed: bool,
}

impl SpanGuard<'_> {
    /// Closes the span now.
    pub fn end(mut self) {
        self.finish();
    }

    fn finish(&mut self) {
        if !self.armed {
            return;
        }
        self.armed = false;
        self.hub.spans_closed.fetch_add(1, Ordering::Relaxed);
        self.hub.push_rec(self.hub.rec_of(
            self.trace,
            self.cat,
            self.name,
            self.start,
            Instant::now(),
            false,
        ));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.finish();
    }
}

/// Handle of the periodic reporter thread; stops it on
/// [`stop`](Self::stop) or drop.
#[derive(Debug)]
pub struct Reporter {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Reporter {
    /// Stops the reporter and joins its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if let Some(handle) = self.handle.take() {
            let (stop, cv) = &*self.state;
            *stop.lock().expect("reporter state poisoned") = true;
            cv.notify_all();
            let _ = handle.join();
        }
    }
}

impl Drop for Reporter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One consistent export of a [`TelemetryHub`]: both formats plus the span
/// balance counters.
#[derive(Clone, Debug)]
pub struct TelemetrySnapshot {
    /// Prometheus text exposition of every registered series.
    pub prometheus: String,
    /// Chrome trace-event JSON of the span ring.
    pub chrome_trace: String,
    /// Spans opened while tracing was on.
    pub spans_opened: u64,
    /// Spans closed while tracing was on.
    pub spans_closed: u64,
    /// Events evicted from the bounded ring.
    pub spans_dropped: u64,
    /// Events currently held in the ring.
    pub span_events: usize,
}

impl TelemetrySnapshot {
    /// `true` when every opened span has closed (no live span guards).
    pub fn spans_balanced(&self) -> bool {
        self.spans_opened == self.spans_closed
    }
}

/// Interns `name` into a `&'static str` (each unique string is leaked
/// exactly once). For span names that are computed at runtime — e.g.
/// maintainer stage names — where the set of distinct values is small and
/// closed; do **not** intern unbounded user input.
pub fn intern(name: &str) -> &'static str {
    static INTERNED: Mutex<BTreeMap<String, &'static str>> = Mutex::new(BTreeMap::new());
    let mut map = INTERNED.lock().expect("intern table poisoned");
    if let Some(&s) = map.get(name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.to_string().into_boxed_str());
    map.insert(name.to_string(), leaked);
    leaked
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Merges an `le` label into an already-rendered label set.
fn with_le(labels: &str, le: &str) -> String {
    if labels.is_empty() {
        format!("{{le=\"{le}\"}}")
    } else {
        format!("{},le=\"{le}\"}}", &labels[..labels.len() - 1])
    }
}

/// Formats a seconds value with enough precision for nanosecond bounds
/// while keeping exact integers readable.
fn format_secs(secs: f64) -> String {
    if secs == secs.trunc() && secs.abs() < 1e15 {
        format!("{secs:.1}")
    } else {
        format!("{secs:.9}")
    }
}

// ---- validators ---------------------------------------------------------

fn is_metric_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_' || c == ':'
}

fn is_metric_name_char(c: char) -> bool {
    is_metric_name_start(c) || c.is_ascii_digit()
}

fn is_label_name_start(c: char) -> bool {
    c.is_ascii_alphabetic() || c == '_'
}

fn is_label_name_char(c: char) -> bool {
    is_label_name_start(c) || c.is_ascii_digit()
}

/// Checks `text` against the Prometheus text exposition line format:
/// `# HELP` / `# TYPE` comments with valid metric names, and sample lines
/// `name{labels} value [timestamp]` with valid name/label syntax and a
/// parseable value. Returns the number of sample lines, or the first
/// offending line with a reason.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let err = |why: &str| Err(format!("line {}: {why}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            let (kw, tail) = match rest.split_once(' ') {
                Some(x) => x,
                None => continue, // bare comment
            };
            if kw != "HELP" && kw != "TYPE" {
                continue; // arbitrary comment, allowed
            }
            let mut parts = tail.splitn(2, ' ');
            let name = parts.next().unwrap_or("");
            if name.is_empty()
                || !name.chars().next().is_some_and(is_metric_name_start)
                || !name.chars().all(is_metric_name_char)
            {
                return err("invalid metric name in comment");
            }
            if kw == "TYPE" {
                let ty = parts.next().unwrap_or("").trim();
                if !matches!(
                    ty,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    return err("invalid TYPE");
                }
            }
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let chars: Vec<char> = line.chars().collect();
        let mut i = 0usize;
        if i >= chars.len() || !is_metric_name_start(chars[i]) {
            return err("sample must start with a metric name");
        }
        while i < chars.len() && is_metric_name_char(chars[i]) {
            i += 1;
        }
        if i < chars.len() && chars[i] == '{' {
            i += 1;
            loop {
                if i < chars.len() && chars[i] == '}' {
                    i += 1;
                    break;
                }
                if i >= chars.len() || !is_label_name_start(chars[i]) {
                    return err("invalid label name");
                }
                while i < chars.len() && is_label_name_char(chars[i]) {
                    i += 1;
                }
                if i >= chars.len() || chars[i] != '=' {
                    return err("label missing '='");
                }
                i += 1;
                if i >= chars.len() || chars[i] != '"' {
                    return err("label value must be quoted");
                }
                i += 1;
                while i < chars.len() && chars[i] != '"' {
                    if chars[i] == '\\' {
                        i += 1;
                        if i >= chars.len() || !matches!(chars[i], '\\' | '"' | 'n') {
                            return err("invalid escape in label value");
                        }
                    }
                    i += 1;
                }
                if i >= chars.len() {
                    return err("unterminated label value");
                }
                i += 1; // closing quote
                if i < chars.len() && chars[i] == ',' {
                    i += 1;
                }
            }
        }
        if i >= chars.len() || chars[i] != ' ' {
            return err("sample missing value separator");
        }
        i += 1;
        let rest: String = chars[i..].iter().collect();
        let mut fields = rest.split(' ');
        let value = fields.next().unwrap_or("");
        let value_ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
        if !value_ok {
            return err("unparseable sample value");
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return err("unparseable timestamp");
            }
        }
        if fields.next().is_some() {
            return err("trailing garbage after sample");
        }
        samples += 1;
    }
    Ok(samples)
}

/// A dependency-free JSON syntax checker (objects, arrays, strings with
/// escapes, numbers, literals; nesting capped at 128). Returns `Ok(())`
/// when `text` is exactly one valid JSON value, or the byte offset and
/// reason of the first error — what CI runs against the Chrome trace
/// export.
pub fn validate_json(text: &str) -> Result<(), String> {
    struct P<'a> {
        b: &'a [u8],
        i: usize,
    }
    impl P<'_> {
        fn err<T>(&self, why: &str) -> Result<T, String> {
            Err(format!("offset {}: {why}", self.i))
        }
        fn ws(&mut self) {
            while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
                self.i += 1;
            }
        }
        fn value(&mut self, depth: usize) -> Result<(), String> {
            if depth > 128 {
                return self.err("nesting too deep");
            }
            self.ws();
            match self.b.get(self.i) {
                None => self.err("unexpected end of input"),
                Some(b'{') => {
                    self.i += 1;
                    self.ws();
                    if self.b.get(self.i) == Some(&b'}') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.ws();
                        if self.b.get(self.i) != Some(&b'"') {
                            return self.err("expected object key");
                        }
                        self.string()?;
                        self.ws();
                        if self.b.get(self.i) != Some(&b':') {
                            return self.err("expected ':'");
                        }
                        self.i += 1;
                        self.value(depth + 1)?;
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b'}') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return self.err("expected ',' or '}'"),
                        }
                    }
                }
                Some(b'[') => {
                    self.i += 1;
                    self.ws();
                    if self.b.get(self.i) == Some(&b']') {
                        self.i += 1;
                        return Ok(());
                    }
                    loop {
                        self.value(depth + 1)?;
                        self.ws();
                        match self.b.get(self.i) {
                            Some(b',') => self.i += 1,
                            Some(b']') => {
                                self.i += 1;
                                return Ok(());
                            }
                            _ => return self.err("expected ',' or ']'"),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') => self.literal("true"),
                Some(b'f') => self.literal("false"),
                Some(b'n') => self.literal("null"),
                Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
                Some(_) => self.err("unexpected character"),
            }
        }
        fn literal(&mut self, lit: &str) -> Result<(), String> {
            if self.b[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                Ok(())
            } else {
                self.err("invalid literal")
            }
        }
        fn string(&mut self) -> Result<(), String> {
            self.i += 1; // opening quote
            while let Some(&c) = self.b.get(self.i) {
                match c {
                    b'"' => {
                        self.i += 1;
                        return Ok(());
                    }
                    b'\\' => {
                        self.i += 1;
                        match self.b.get(self.i) {
                            Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                                self.i += 1
                            }
                            Some(b'u') => {
                                self.i += 1;
                                for _ in 0..4 {
                                    if !self.b.get(self.i).is_some_and(u8::is_ascii_hexdigit) {
                                        return self.err("invalid \\u escape");
                                    }
                                    self.i += 1;
                                }
                            }
                            _ => return self.err("invalid escape"),
                        }
                    }
                    c if c < 0x20 => return self.err("unescaped control character"),
                    _ => self.i += 1,
                }
            }
            self.err("unterminated string")
        }
        fn number(&mut self) -> Result<(), String> {
            let start = self.i;
            if self.b.get(self.i) == Some(&b'-') {
                self.i += 1;
            }
            while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
                self.i += 1;
            }
            if self.b.get(self.i) == Some(&b'.') {
                self.i += 1;
                while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
                    self.i += 1;
                }
            }
            if matches!(self.b.get(self.i), Some(b'e' | b'E')) {
                self.i += 1;
                if matches!(self.b.get(self.i), Some(b'+' | b'-')) {
                    self.i += 1;
                }
                while self.b.get(self.i).is_some_and(u8::is_ascii_digit) {
                    self.i += 1;
                }
            }
            let text = std::str::from_utf8(&self.b[start..self.i]).unwrap_or("");
            if text.parse::<f64>().is_ok() {
                Ok(())
            } else {
                self.err("invalid number")
            }
        }
    }
    let mut p = P {
        b: text.as_bytes(),
        i: 0,
    };
    p.value(0)?;
    p.ws();
    if p.i != p.b.len() {
        return p.err("trailing garbage after JSON value");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_round_trip() {
        let hub = TelemetryHub::new();
        let c = hub.counter("htsp_test_total");
        c.inc();
        c.add(4);
        assert_eq!(hub.counter_value("htsp_test_total"), Some(5));
        // Same name returns the same underlying atomic.
        hub.counter("htsp_test_total").inc();
        assert_eq!(c.get(), 6);

        let g = hub.gauge("htsp_test_depth");
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
        assert_eq!(g.max(), 7);

        let h = hub.labeled_histogram("htsp_test_seconds", &[("stage", "x")]);
        h.record(Duration::from_millis(5));
        h.record_secs(0.010);
        let values = hub.histogram_values();
        let (key, snap) = values
            .iter()
            .find(|(k, _)| k.starts_with("htsp_test_seconds"))
            .expect("histogram registered");
        assert_eq!(key, "htsp_test_seconds{stage=\"x\"}");
        assert_eq!(snap.count(), 2);
    }

    #[test]
    fn gauge_high_water_survives_racing_setters() {
        let hub = Arc::new(TelemetryHub::new());
        let g = hub.gauge("htsp_race_depth");
        std::thread::scope(|s| {
            for t in 0..8 {
                let g = g.clone();
                s.spawn(move || {
                    for i in 0..5000u64 {
                        g.set(t * 5000 + i);
                    }
                });
            }
        });
        assert_eq!(g.max(), 8 * 5000 - 1, "fetch_max lost the true maximum");
    }

    #[test]
    fn prometheus_export_passes_own_validator_and_rejects_garbage() {
        let hub = TelemetryHub::new();
        hub.counter("htsp_a_total").add(3);
        hub.gauge("htsp_b_depth").set(9);
        let h = hub.labeled_histogram("htsp_c_seconds", &[("stage", "s\"1\"")]);
        h.record(Duration::from_micros(250));
        h.record(Duration::from_millis(30));
        let text = hub.export_prometheus();
        let samples = validate_prometheus(&text).expect("own export must validate");
        // counter + gauge + gauge_max + (2 buckets + Inf + sum + count).
        assert_eq!(samples, 8, "unexpected sample count in:\n{text}");
        assert!(text.contains("# TYPE htsp_a_total counter"));
        assert!(text.contains("# TYPE htsp_c_seconds histogram"));
        assert!(text.contains("htsp_b_depth_max 9"));
        assert!(text.contains("le=\"+Inf\"} 2"));

        assert!(validate_prometheus("0bad_name 1").is_err());
        assert!(validate_prometheus("name{l=unquoted} 1").is_err());
        assert!(validate_prometheus("name 1 2 3").is_err());
        assert!(validate_prometheus("name notanumber").is_err());
        assert!(validate_prometheus("# TYPE x flavor").is_err());
    }

    #[test]
    fn chrome_trace_export_is_valid_json_with_trace_args() {
        let hub = TelemetryHub::new();
        let t = TraceId::next();
        let start = Instant::now();
        hub.record_span(
            t,
            "query",
            "execute",
            start,
            start + Duration::from_micros(42),
        );
        hub.record_event(t, "query", "shed", start);
        let json = hub.export_chrome_trace();
        validate_json(&json).expect("trace export must be valid JSON");
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains(&format!("\"trace\":{}", t.0)));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
    }

    #[test]
    fn json_validator_accepts_and_rejects() {
        for good in [
            "{}",
            "[]",
            "null",
            "-1.5e-3",
            "\"a\\n\\u00e9\"",
            "{\"a\":[1,2,{\"b\":true}],\"c\":null}",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good}: {e}"));
        }
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"unterminated",
            "1 2",
            "{'a':1}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn span_ring_is_bounded_and_counts_drops() {
        let hub = TelemetryHub::with_capacity(8, true);
        let t0 = Instant::now();
        for _ in 0..20 {
            hub.record_span(TraceId::next(), "c", "n", t0, t0);
        }
        let snap = hub.snapshot();
        assert_eq!(snap.span_events, 8);
        assert_eq!(snap.spans_dropped, 12);
        assert!(snap.spans_balanced());
    }

    #[test]
    fn scoped_spans_close_exactly_once_via_end_or_drop() {
        let hub = TelemetryHub::new();
        let t = TraceId::next();
        hub.begin_span(t, "c", "explicit").end();
        {
            let _g = hub.begin_span(t, "c", "dropped");
        }
        assert_eq!(hub.spans_opened(), 2);
        assert_eq!(hub.spans_closed(), 2);
        // Disabled hub records nothing and stays balanced.
        let off = TelemetryHub::disabled();
        off.begin_span(t, "c", "ignored").end();
        off.record_span(t, "c", "ignored", Instant::now(), Instant::now());
        assert_eq!(off.spans_opened(), 0);
        assert_eq!(off.snapshot().span_events, 0);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let mut h = LatencyHistogram::new();
            for i in 0..n {
                h.record_ns((seed * 1_000_003 + i * 7919) % 10_000_000 + 1);
            }
            h
        };
        let (a, b, c) = (mk(1, 400), mk(2, 300), mk(3, 500));
        // (a ⊕ b) ⊕ c
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        // a ⊕ (b ⊕ c)
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");
        // b ⊕ a == a ⊕ b
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        // And identical to recording everything into one histogram.
        let mut all = LatencyHistogram::new();
        for h in [&a, &b, &c] {
            all.merge(h);
        }
        assert_eq!(left, all);
        for q in [0.5, 0.95, 0.99] {
            assert_eq!(left.quantile(q), all.quantile(q));
        }
    }

    #[test]
    fn reporter_fires_and_stops() {
        let hub = Arc::new(TelemetryHub::new());
        hub.counter("htsp_tick_total").inc();
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = Arc::clone(&seen);
        let reporter = hub.start_reporter(Duration::from_millis(5), move |snap| {
            assert!(snap.prometheus.contains("htsp_tick_total"));
            seen2.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = Instant::now() + Duration::from_secs(2);
        while seen.load(Ordering::Relaxed) < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        reporter.stop();
        let ticks = seen.load(Ordering::Relaxed);
        assert!(ticks >= 2, "reporter ticked only {ticks} times");
    }

    #[test]
    fn labeled_series_sort_and_escape() {
        let hub = TelemetryHub::new();
        hub.labeled_counter("htsp_l_total", &[("b", "2"), ("a", "1")])
            .inc();
        let text = hub.export_prometheus();
        assert!(text.contains("htsp_l_total{a=\"1\",b=\"2\"} 1"));
        validate_prometheus(&text).expect("labeled export validates");
    }
}
