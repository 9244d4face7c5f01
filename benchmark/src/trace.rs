//! In-memory spans recorded by the benchmark around the calls it makes.
//!
//! End-to-end runs record nothing: a disabled [`Lane`] drops every span at
//! one branch. A traced run keeps spans in per-thread lanes (no lock on the
//! hot path), merges them when the threads end, and writes them once, at
//! exit, in Chrome's trace-event format.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span; 0 means "no span" (tracing off, or no
/// parent).
pub type SpanId = u32;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The span that caused this one (0 for a root).
    pub parent: SpanId,
    /// Shared by all spans of one operation (a request, an update batch, a
    /// build/restart cycle).
    pub op_id: u64,
    pub lane: u32,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    next_lane: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            next_lane: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// A lane for one thread. `on` lets a traced run keep one part of itself
    /// (the untraced half of the window) span-free.
    pub fn lane(&self, on: bool) -> Lane<'_> {
        Lane {
            tracer: self,
            on: on && self.enabled,
            lane: self.next_lane.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("tracer poisoned").len()
    }

    /// Writes the recorded spans in Chrome's trace-event format, one event
    /// per line (a traced window holds a hundred thousand spans, so the file
    /// is streamed, not built in memory). `ts` and `dur` are microseconds
    /// with the nanoseconds as decimals; span names are fixed identifiers
    /// and need no escaping.
    pub fn write_chrome_trace(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("tracer poisoned");
        writeln!(out, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        for (i, s) in spans.iter().enumerate() {
            let comma = if i + 1 < spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}.{:03}, \"dur\": {}.{:03}, \"pid\": 1, \"tid\": {}, \
                 \"args\": {{\"id\": {}, \"parent\": {}, \"op_id\": {}}}}}{comma}",
                s.name,
                s.start_ns / 1000,
                s.start_ns % 1000,
                (s.end_ns - s.start_ns) / 1000,
                (s.end_ns - s.start_ns) % 1000,
                s.lane,
                s.id,
                s.parent,
                s.op_id,
            )?;
        }
        writeln!(out, "]}}")
    }
}

/// One thread's span buffer; merged into the tracer when dropped.
pub struct Lane<'a> {
    tracer: &'a Tracer,
    on: bool,
    lane: u32,
    spans: Vec<Span>,
}

impl Lane<'_> {
    /// Records a finished span and returns its id (0 when tracing is off).
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = self.reserve();
        self.record_reserved(id, name, parent, op_id, start, end);
        id
    }

    /// Reserves an id for a span whose children are recorded before it ends.
    pub fn reserve(&mut self) -> SpanId {
        if self.on {
            self.tracer.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records a span under an id obtained from [`Lane::reserve`].
    pub fn record_reserved(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        start: Instant,
        end: Instant,
    ) {
        if id == 0 {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.tracer.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            name,
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
            parent,
            op_id,
            lane: self.lane,
        });
    }

    /// Times `f` as one span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, parent, op_id, start, end);
        (out, (end - start).as_secs_f64())
    }
}

impl Drop for Lane<'_> {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            // A poisoned tracer only loses spans; never panic in drop.
            if let Ok(mut all) = self.tracer.spans.lock() {
                all.append(&mut self.spans);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let mut lane = tracer.lane(true);
        let now = Instant::now();
        assert_eq!(lane.record("x", 0, 1, now, now), 0);
        assert_eq!(lane.reserve(), 0);
        drop(lane);
        assert_eq!(tracer.span_count(), 0);
    }

    #[test]
    fn spans_keep_parent_and_operation_and_export_as_chrome_events() {
        let tracer = Tracer::new(true);
        {
            let mut lane = tracer.lane(true);
            let batch = lane.reserve();
            let t0 = Instant::now();
            let child = lane.record("stage", batch, 7, t0, Instant::now());
            lane.record_reserved(batch, "batch", 0, 7, t0, Instant::now());
            assert!(child > batch);
            let mut off = tracer.lane(false);
            assert_eq!(off.record("quiet", 0, 0, t0, t0), 0);
        }
        assert_eq!(tracer.span_count(), 2);
        let mut file = Vec::new();
        tracer.write_chrome_trace(&mut file).unwrap();
        let trace = Json::parse(std::str::from_utf8(&file).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Json::as_arr).unwrap();
        let (stage, batch) = (&events[0], &events[1]);
        assert_eq!(stage.get("name").and_then(Json::as_str), Some("stage"));
        let args = stage.get("args").unwrap();
        assert_eq!(args.get("op_id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            args.get("parent").and_then(Json::as_f64),
            batch.get("args").unwrap().get("id").and_then(Json::as_f64)
        );
        // The child lies inside its parent, to the nanosecond.
        let bounds = |e: &Json| {
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            (ts, ts + e.get("dur").and_then(Json::as_f64).unwrap())
        };
        assert!(bounds(batch).0 <= bounds(stage).0 && bounds(stage).1 <= bounds(batch).1 + 1e-3);
    }
}
