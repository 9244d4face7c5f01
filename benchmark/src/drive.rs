//! The load drivers the workloads are assembled from: the closed-loop
//! client, the update scheduler, the open-loop request generator and the
//! snapshot/restart step. Each opens its spans here, around the calls it
//! makes through `api`.

use crate::api::{self, Graph, Server, Update};
use crate::inputs::Arrival;
use crate::oracle::{LoggedUpdate, Sample};
use crate::trace::{Lane, SpanId};
use std::collections::VecDeque;
use std::path::Path;
use std::time::{Duration, Instant};

/// Queries per client block: the unit the closed-loop client times, and the
/// granularity at which it notices a new publication.
pub const BLOCK: usize = 256;
/// On a final-stage view one answer of every this many blocks is kept for
/// the oracle (1 in 16 384 answers); on a staged view, where blocks are
/// slow and few, one of every block.
const SAMPLE_BLOCKS: u64 = 64;
/// Every this many open-loop requests one is kept for the oracle...
const SAMPLE_REQUESTS: usize = 16;
/// ...and this many of its pairs are checked.
const SAMPLE_PAIRS: usize = 8;

// --------------------------------------------------------------- client ----

#[derive(Default)]
pub struct ClientResult {
    pub answers: u64,
    /// Latency of each block of [`BLOCK`] queries...
    pub block_ms: Vec<f64>,
    /// ...and the reporting interval (counted from `t0`) it ended in.
    pub block_interval: Vec<u32>,
    pub samples: Vec<Sample>,
    /// Time spent on views of each query stage.
    pub stage_s: Vec<f64>,
}

/// One closed-loop client: pins `server.snapshot().session()` and answers
/// `pairs` in blocks until `window` has passed. With `repin`, it opens a new
/// session whenever the published version has advanced. Blocks are assigned
/// to reporting intervals of `interval_s`.
pub fn closed_loop_client(
    server: &Server,
    pairs: &[(u32, u32)],
    t0: Instant,
    window: Duration,
    interval_s: f64,
    repin: bool,
    lane: &mut Lane<'_>,
) -> ClientResult {
    let deadline = t0 + window;
    let mut out = ClientResult {
        stage_s: vec![0.0; api::server_num_query_stages(server)],
        ..ClientResult::default()
    };
    let final_stage = out.stage_s.len() - 1;
    // The pairs are walked block by block as plain slices: an index modulo
    // the pool size per query would be a division inside a 0.2 us query.
    let mut next_block = pairs.chunks_exact(BLOCK).cycle();
    let (mut blocks, mut sink) = (0u64, 0u32);
    'window: loop {
        let open = Instant::now();
        let pinned = api::pin_snapshot(server);
        let stage = api::view_stage(&pinned).min(final_stage);
        let mut session = api::open_session(&pinned);
        lane.record(
            "client.open_session",
            0,
            pinned.version,
            open,
            Instant::now(),
        );
        let sample_every = if stage == final_stage {
            SAMPLE_BLOCKS
        } else {
            1
        };
        let mut start = Instant::now();
        loop {
            if start >= deadline {
                break 'window;
            }
            let block = next_block
                .next()
                .expect("the pair pool holds a whole block");
            let first = block[0];
            let first_d = session.distance(first.0, first.1);
            sink ^= first_d;
            for &(s, t) in &block[1..] {
                sink ^= session.distance(s, t);
            }
            let end = Instant::now();
            lane.record("client.block", 0, blocks, start, end);
            let took = (end - start).as_secs_f64();
            out.block_ms.push(took * 1e3);
            out.stage_s[stage] += took;
            out.answers += BLOCK as u64;
            out.block_interval
                .push(((end - t0).as_secs_f64() / interval_s) as u32);
            if blocks % sample_every == 0 {
                out.samples.push(Sample {
                    version: pinned.version,
                    s: first.0,
                    t: first.1,
                    d: first_d,
                });
            }
            blocks += 1;
            start = end;
            if repin && api::published_version(server) != pinned.version {
                break;
            }
        }
    }
    std::hint::black_box(sink);
    out
}

// -------------------------------------------------------------- updates ----

/// One update batch as the benchmark saw it.
pub struct BatchRecord {
    /// `flush()` → `wait_visible()` returns.
    pub visible_ms: f64,
    /// `flush()` → `wait_applied()` returns.
    pub applied_ms: f64,
    /// Per `UpdateFeed::submit` call.
    pub submit_us: f64,
    /// `flush()` → the maintainer starts the repair.
    pub flush_to_apply_ms: f64,
    pub cow_bytes: u64,
    /// When `wait_applied` returned.
    pub applied_at: Instant,
    pub log: Vec<LoggedUpdate>,
    /// Every update of the batch reported an outcome.
    pub complete: bool,
}

/// Submits one batch update by update, flushes, and waits for both moments
/// a writer cares about.
pub fn run_batch(
    server: &Server,
    updates: &[Update],
    op_id: u64,
    lane: &mut Lane<'_>,
) -> BatchRecord {
    let root = lane.reserve();
    let begin = Instant::now();
    let tickets: Vec<api::Ticket> = updates
        .iter()
        .map(|u| api::submit_update(server, u))
        .collect();
    let submitted = Instant::now();
    lane.record("update.submit", root, op_id, begin, submitted);
    let barrier = api::flush(server);
    let flushed = Instant::now();
    lane.record("update.flush", root, op_id, submitted, flushed);
    api::wait_visible(&barrier);
    let visible = Instant::now();
    lane.record("update.wait_visible", root, op_id, flushed, visible);
    let outcome = api::wait_applied(&barrier);
    let applied = Instant::now();
    let waited = lane.record("update.wait_applied", root, op_id, visible, applied);
    // The stages the server reports, laid end to end from the repair's start.
    let mut cursor = outcome.apply_start;
    for (name, duration) in &outcome.stages {
        lane.record(
            stage_span_name(name),
            waited,
            op_id,
            cursor,
            cursor + *duration,
        );
        cursor += *duration;
    }
    lane.record_reserved(root, "update.batch", 0, op_id, begin, applied);

    // The barrier drained everything pending, so every update has resolved.
    let mut log = Vec::with_capacity(updates.len());
    for (ticket, &update) in tickets.iter().zip(updates) {
        if let Some(o) = api::try_outcome(ticket) {
            log.push(LoggedUpdate {
                visible_at: o.first_version,
                update,
            });
        }
    }
    BatchRecord {
        visible_ms: (visible - submitted).as_secs_f64() * 1e3,
        applied_ms: (applied - submitted).as_secs_f64() * 1e3,
        submit_us: (submitted - begin).as_secs_f64() * 1e6 / updates.len().max(1) as f64,
        flush_to_apply_ms: outcome
            .apply_start
            .saturating_duration_since(submitted)
            .as_secs_f64()
            * 1e3,
        cow_bytes: outcome.cow_bytes,
        applied_at: applied,
        complete: log.len() == updates.len(),
        log,
    }
}

/// Stage names come from the program ("U2: shortcut array update"); spans
/// carry a fixed name per stage position.
fn stage_span_name(name: &str) -> &'static str {
    match name.as_bytes().get(1) {
        Some(b'1') => "update.stage.u1",
        Some(b'2') => "update.stage.u2",
        Some(b'3') => "update.stage.u3",
        Some(b'4') => "update.stage.u4",
        Some(b'5') => "update.stage.u5",
        _ => "update.stage",
    }
}

/// How many batches the open schedule holds in a window: batch `k` is due
/// at `(k + ½)·δt`, and the last one leaves a whole δt before the end.
pub fn scheduled_batches(window_s: f64, interval_s: f64) -> usize {
    let last = (window_s - 1.5 * interval_s) / interval_s;
    if last < 0.0 {
        0
    } else {
        last.floor() as usize + 1
    }
}

/// The update scheduler: batches are submitted one after the other, batch
/// `k` when it is due, or, if the previous one overran, as soon as that one
/// has been applied.
pub fn update_schedule(
    server: &Server,
    batches: &[Vec<Update>],
    t0: Instant,
    interval_s: f64,
    first_op: u64,
    lane: &mut Lane<'_>,
) -> Vec<BatchRecord> {
    let mut records = Vec::with_capacity(batches.len());
    for (k, batch) in batches.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64((k as f64 + 0.5) * interval_s);
        let wait = due.saturating_duration_since(Instant::now());
        if !wait.is_zero() {
            std::thread::sleep(wait);
        }
        records.push(run_batch(server, batch, first_op + k as u64, lane));
    }
    records
}

// ------------------------------------------------------------- requests ----

pub struct RequestRecord {
    /// The reporting interval the request was due in.
    pub interval: u32,
    /// From the scheduled arrival to the answer.
    pub latency_ms: f64,
    pub pairs: usize,
    pub shape: Shape,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    PointToPoint,
    OneToMany,
    Matrix,
}

fn shape(r: &api::Request) -> Shape {
    match r {
        api::Request::PointToPoint(_) => Shape::PointToPoint,
        api::Request::OneToMany { .. } => Shape::OneToMany,
        api::Request::Matrix { .. } => Shape::Matrix,
    }
}

#[derive(Default)]
pub struct OpenLoopResult {
    pub records: Vec<RequestRecord>,
    /// The reporting interval of each request the service discarded without
    /// an answer.
    pub lost: Vec<u32>,
    /// How late the generator submitted each request.
    pub lateness_us: Vec<f64>,
    pub samples: Vec<Sample>,
}

struct Outstanding {
    ticket: api::RequestTicket,
    due: Instant,
    index: usize,
    submitted: Instant,
}

/// One generator thread offering `arrivals` on their schedule, whatever the
/// server does; answered requests are collected between submissions.
/// Requests are assigned to reporting intervals of `interval_s` by the moment
/// they were due.
pub fn open_loop_generator(
    server: &Server,
    arrivals: &[Arrival],
    t0: Instant,
    interval_s: f64,
    lane: &mut Lane<'_>,
) -> OpenLoopResult {
    // Conversion to the program's request type happens before the clock
    // matters.
    let mut prepared: Vec<Option<api::PreparedRequest>> = arrivals
        .iter()
        .map(|a| Some(api::prepare_request(&a.request)))
        .collect();
    let mut out = OpenLoopResult::default();
    let mut outstanding: VecDeque<Outstanding> = VecDeque::new();
    let collect = |o: Outstanding,
                   answer: Option<api::Answer>,
                   out: &mut OpenLoopResult,
                   lane: &mut Lane<'_>| {
        let interval = (arrivals[o.index].due_s / interval_s) as u32;
        let Some(answer) = answer else {
            out.lost.push(interval);
            return;
        };
        let request = &arrivals[o.index].request;
        lane.record(
            "request",
            0,
            o.index as u64,
            o.submitted,
            answer.answered_at,
        );
        out.records.push(RequestRecord {
            interval,
            latency_ms: answer
                .answered_at
                .saturating_duration_since(o.due)
                .as_secs_f64()
                * 1e3,
            pairs: answer.distances.len(),
            shape: shape(request),
        });
        if o.index.is_multiple_of(SAMPLE_REQUESTS) {
            let pairs = request.pairs();
            let step = (pairs.len() / SAMPLE_PAIRS).max(1);
            for (i, &(s, t)) in pairs.iter().enumerate().step_by(step) {
                out.samples.push(Sample {
                    version: answer.version,
                    s,
                    t,
                    d: answer.distances.get(i).copied().unwrap_or(api::INF),
                });
            }
        }
    };
    for (index, arrival) in arrivals.iter().enumerate() {
        let due = t0 + Duration::from_secs_f64(arrival.due_s);
        loop {
            // Answers come back in submission order (one worker, one queue).
            while let Some(front) = outstanding.front() {
                match api::try_answer(&front.ticket) {
                    Some(answer) => {
                        let o = outstanding.pop_front().expect("front exists");
                        collect(o, answer, &mut out, lane);
                    }
                    None => break,
                }
            }
            let gap = due.saturating_duration_since(Instant::now());
            if gap.is_zero() {
                break;
            }
            if gap > Duration::from_micros(300) {
                std::thread::sleep(gap - Duration::from_micros(150));
            } else {
                std::thread::yield_now();
            }
        }
        let submitted = Instant::now();
        out.lateness_us
            .push(submitted.saturating_duration_since(due).as_secs_f64() * 1e6);
        let request = prepared[index]
            .take()
            .expect("each request is submitted once");
        let ticket = api::submit_request(server, request);
        outstanding.push_back(Outstanding {
            ticket,
            due,
            index,
            submitted,
        });
    }
    for o in outstanding.drain(..) {
        let answer = api::wait_answer(&o.ticket);
        collect(o, answer, &mut out, lane);
    }
    out
}

// -------------------------------------------------------------- restart ----

pub struct RestartRecord {
    pub restart_s: Vec<f64>,
    pub snapshot_bytes: u64,
    /// Probe answers that differ between the restored server, the server
    /// that wrote the snapshot, and Dijkstra on the benchmark's own graph.
    pub wrong: u64,
    pub checked: u64,
}

/// Pairs probed before the snapshot and after every restart.
const RESTART_PROBES: usize = 128;

/// `save_snapshot` → `start_from_snapshot` (`restarts` times), with restored
/// answers compared to pre-snapshot answers and to Dijkstra on `truth`, the
/// benchmark's own copy of the current graph.
#[allow(clippy::too_many_arguments)]
pub fn snapshot_and_restart(
    server: &Server,
    truth: &Graph,
    pairs: &[(u32, u32)],
    path: &Path,
    restarts: usize,
    query_workers: usize,
    op_id: u64,
    lane: &mut Lane<'_>,
) -> Result<RestartRecord, String> {
    let probes = &pairs[..RESTART_PROBES.min(pairs.len())];
    let answers = |server: &Server| -> Vec<u32> {
        let pinned = api::pin_snapshot(server);
        let mut session = api::open_session(&pinned);
        probes
            .iter()
            .map(|&(s, t)| session.distance(s, t))
            .collect()
    };
    let before = answers(server);
    let root: SpanId = lane.reserve();
    let begin = Instant::now();
    let (saved, _) = lane.time("restart.save_snapshot", root, op_id, || {
        api::save_snapshot(server, path)
    });
    saved?;
    let snapshot_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len();
    let mut record = RestartRecord {
        restart_s: Vec::new(),
        snapshot_bytes,
        wrong: 0,
        checked: 0,
    };
    for _ in 0..restarts {
        let (restored, took) = lane.time("restart.start_from_snapshot", root, op_id, || {
            api::start_from_snapshot(path, query_workers)
        });
        let restored = restored?;
        record.restart_s.push(took);
        let (after, _) = lane.time("restart.probe", root, op_id, || answers(&restored));
        for ((&b, &a), &(s, t)) in before.iter().zip(&after).zip(probes) {
            record.checked += 1;
            if a != b || a != api::dijkstra(truth, s, t) {
                record.wrong += 1;
            }
        }
        api::shutdown(restored);
    }
    lane.record_reserved(root, "restart", 0, op_id, begin, Instant::now());
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_leaves_a_whole_interval_before_the_window_ends() {
        // Due at 0.25, 0.75, ... ; the last must be at or before 10 - 0.5.
        assert_eq!(scheduled_batches(10.0, 0.5), 19);
        assert_eq!(scheduled_batches(3.0, 0.25), 11);
        assert_eq!(scheduled_batches(37.0, 12.0), 2);
        assert_eq!(scheduled_batches(0.3, 0.5), 0);
        assert_eq!(scheduled_batches(0.75, 0.5), 1);
    }
}
