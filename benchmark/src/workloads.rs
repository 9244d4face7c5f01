//! The four workloads. A run is a few rounds; a round is one whole life of a
//! server: set-up (cold start), a measured window, for the serving workloads
//! a snapshot/restart step, the oracle, shutdown. Together the rounds give
//! every end-to-end metric under that workload's own conditions, each from
//! samples taken evenly over the run.

use crate::api::{self, Graph, Kind, Params, Server, Update};
use crate::drive::{self, BatchRecord, ClientResult, OpenLoopResult, RestartRecord, Shape};
use crate::inputs::{self, Inputs, Plan, Preset};
use crate::oracle::{self, LoggedUpdate, Sample};
use crate::stats;
use crate::trace::{Lane, Tracer};
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    SteadyPoint,
    ServeUnderUpdates,
    OpenLoopMixed,
    BuildRestart,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SteadyPoint,
        Workload::ServeUnderUpdates,
        Workload::OpenLoopMixed,
        Workload::BuildRestart,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyPoint => "steady_point",
            Workload::ServeUnderUpdates => "serve_under_updates",
            Workload::OpenLoopMixed => "open_loop_mixed",
            Workload::BuildRestart => "build_restart",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads of the server's query service: only the open-loop
    /// workload goes through the service.
    fn query_workers(self) -> usize {
        usize::from(self == Workload::OpenLoopMixed)
    }
}

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub preset: Preset,
    pub out_dir: PathBuf,
    /// Test builds only: corrupt one sampled answer before the oracle runs,
    /// to show that a wrong answer fails the run.
    #[cfg(test)]
    pub flip_a_sample: bool,
}

/// Rounds per run, when `--seconds` is long enough for that many windows of
/// four update intervals. A shared host changes speed every few seconds (by
/// x1.45 on the runner this was written on), so every timing is sampled in
/// every round: set-ups, cold starts, restarts and batches taken side by side
/// would all see the same speed.
const ROUNDS: usize = 5;
/// Pairs answered before anything is timed, so that lazy allocation and
/// cold caches are not charged to the first slice.
const WARMUP_QUERIES: usize = 1 << 16;
const WARMUP_REQUESTS: usize = 64;
/// Batches `steady_point` sends to the idle server after each window.
const IDLE_BATCHES: usize = 2;
/// Restarts from each snapshot a serving round writes (one before its
/// window, one after).
const RESTARTS: usize = 2;
/// A batch still unapplied this long after its window ended has failed.
const APPLY_GRACE: Duration = Duration::from_secs(5);
/// Length of each closed-loop query slice of a `build_restart` cycle.
const CYCLE_SLICE: Duration = Duration::from_millis(100);
/// The kinds `build_restart` cycles through.
const CYCLE_KINDS: [Kind; 3] = [api::DCH, api::DH2H, api::POSTMHL];

/// `BuildParams::new(8, T)`, `T = min(cores, 4)`.
pub fn build_params() -> Params {
    api::build_params(8, build_threads())
}

pub fn build_threads() -> usize {
    crate::host::cores_available().min(4)
}

/// Everything a round holds between its set-up and its end.
struct Scenario {
    preset: Preset,
    initial: Graph,
    /// The benchmark's own copy of the current graph.
    truth: Graph,
    inputs: Inputs,
    /// The PostMHL server of the serving workloads.
    server: Option<Server>,
    next_batch: usize,
    next_op: u64,
    log: Vec<LoggedUpdate>,
    samples: Vec<Sample>,
    /// Seconds of the server's cold start within this set-up.
    build_s: f64,
    index_bytes: usize,
    /// Problems that make the run incorrect whatever the numbers say.
    faults: Vec<String>,
}

impl Scenario {
    fn server(&self) -> &Server {
        self.server
            .as_ref()
            .expect("serving workloads hold a server")
    }

    fn take_batches(&mut self, n: usize) -> Vec<Vec<Update>> {
        let end = (self.next_batch + n).min(self.inputs.batches.len());
        let taken = self.inputs.batches[self.next_batch..end].to_vec();
        self.next_batch = end;
        taken
    }

    fn take_ops(&mut self, n: usize) -> u64 {
        let first = self.next_op;
        self.next_op += n as u64;
        first
    }

    /// Folds finished batches into the log and the benchmark's own graph.
    fn absorb(&mut self, batches: &[Vec<Update>], records: &[BatchRecord]) {
        for (batch, record) in batches.iter().zip(records) {
            api::graph_apply_batch(&mut self.truth, &api::prepare_batch(batch));
            self.log.extend_from_slice(&record.log);
        }
    }
}

/// How many rounds a run is split into: [`ROUNDS`], fewer when `--seconds`
/// is short (the tests, `--smoke`), and at least two in a traced run, which
/// records spans in every other round.
pub fn rounds(cfg: &RunConfig, traced: bool) -> usize {
    let fit = (cfg.seconds / (4.0 * cfg.preset.update_interval_s)) as usize;
    fit.clamp(if traced { 2 } else { 1 }, ROUNDS)
}

/// What round `round` offers in a window of `seconds`.
pub fn plan(cfg: &RunConfig, round: usize, seconds: f64) -> Plan {
    Plan {
        seed: cfg.seed,
        round: round as u64,
        batches: match cfg.workload {
            Workload::SteadyPoint => IDLE_BATCHES,
            Workload::ServeUnderUpdates | Workload::OpenLoopMixed => {
                drive::scheduled_batches(seconds, cfg.preset.update_interval_s)
            }
            // Three per cycle, and a cycle holds six query slices.
            Workload::BuildRestart => {
                3 * ((seconds / (6.0 * CYCLE_SLICE.as_secs_f64())) as usize + 1)
            }
        },
        request_seconds: if cfg.workload == Workload::OpenLoopMixed {
            seconds
        } else {
            0.0
        },
    }
}

/// One complete set-up, for a window of `seconds`.
fn set_up(cfg: &RunConfig, round: usize, seconds: f64) -> Result<Scenario, String> {
    let mut faults = Vec::new();
    let initial = if cfg.workload == Workload::BuildRestart {
        // The way a deployment gets its graph: a DIMACS file streamed into
        // the flat CSR and expanded.
        let generated = inputs::dataset(&cfg.preset);
        let path = cfg.out_dir.join(format!("{}.gr", cfg.preset.name));
        api::write_dimacs(&generated, &path).map_err(|e| e.to_string())?;
        let loaded = api::csr_to_graph(&api::load_dimacs_streaming(&path)?);
        if api::edge_list(&loaded) != api::edge_list(&generated) {
            faults.push("DIMACS round trip changed the graph".to_string());
        }
        loaded
    } else {
        inputs::dataset(&cfg.preset)
    };
    let (server, build_s, index_bytes) = if cfg.workload == Workload::BuildRestart {
        (None, 0.0, 0)
    } else {
        let start = Instant::now();
        let server = api::start_server(
            &initial,
            api::POSTMHL,
            &build_params(),
            cfg.workload.query_workers(),
        );
        let build_s = start.elapsed().as_secs_f64();
        let index_bytes = api::server_index_size_bytes(&server);
        (Some(server), build_s, index_bytes)
    };
    let inputs = inputs::generate(&initial, &plan(cfg, round, seconds));
    if let Some(server) = &server {
        warm_up(server, &inputs, cfg.workload.query_workers() > 0);
    }
    Ok(Scenario {
        preset: cfg.preset,
        truth: initial.clone(),
        initial,
        inputs,
        server,
        next_batch: 0,
        // Operation ids tell the rounds apart in the trace.
        next_op: 1 + ((round as u64) << 20),
        log: Vec::new(),
        samples: Vec::new(),
        build_s,
        index_bytes,
        faults,
    })
}

fn warm_up(server: &Server, inputs: &Inputs, through_service: bool) {
    let pinned = api::pin_snapshot(server);
    let mut session = api::open_session(&pinned);
    let mut sink = 0;
    for &(s, t) in inputs.pairs.iter().cycle().take(WARMUP_QUERIES) {
        sink ^= session.distance(s, t);
    }
    std::hint::black_box(sink);
    if through_service {
        for &(s, t) in inputs.pairs.iter().take(WARMUP_REQUESTS) {
            let request = api::prepare_request(&api::Request::PointToPoint(vec![(s, t)]));
            api::wait_answer(&api::submit_request(server, request));
        }
    }
}

/// Per-kind samples of a `build_restart` window.
#[derive(Default)]
pub struct KindSamples {
    pub name: &'static str,
    pub build_s: Vec<f64>,
    pub restart_s: Vec<f64>,
    pub applied_ms: Vec<f64>,
    pub snapshot_bytes: u64,
    pub index_bytes: usize,
}

/// The requests of one reporting interval: one update interval δt of a
/// serving window, or one query slice of a `build_restart` cycle. Every
/// request metric is estimated per interval first and across intervals
/// second, so that a burst of host noise spoils one interval, not the run.
#[derive(Default, Clone)]
pub struct Interval {
    pub seconds: f64,
    /// Distance answers delivered to requests of this interval.
    pub answers: u64,
    pub offered: u64,
    /// Latency of every answered request.
    pub latency_ms: Vec<f64>,
}

/// What one round produced, whatever the workload; the rounds of a run are
/// pooled into one of these ([`Window::absorb`]).
#[derive(Default)]
pub struct Window {
    /// Seconds each set-up took, and within it the server's cold start.
    pub setup_s: Vec<f64>,
    pub build_s: Vec<f64>,
    pub index_bytes: usize,
    pub intervals: Vec<Interval>,
    /// Requests the service discarded unanswered.
    pub lost: u64,
    pub batches: Vec<BatchRecord>,
    /// Batches that were not applied within [`APPLY_GRACE`] of the window's
    /// end, or whose updates did not all report an outcome.
    pub failed_batches: u64,
    /// Seconds each `start_from_snapshot` took, and the snapshot's size.
    pub restart_s: Vec<f64>,
    pub snapshot_bytes: u64,
    pub kinds: Vec<KindSamples>,
    /// Answers the oracle checked.
    pub checked: u64,
    pub wrong: u64,
    /// Extra, workload-specific figures, one per round: `(name, value, unit)`.
    pub notes: Vec<(String, f64, &'static str)>,
    /// Problems that make the run incorrect whatever the numbers say.
    pub faults: Vec<String>,
    /// `input_hash` of each round's inputs.
    pub input_hashes: Vec<u64>,
}

impl Window {
    /// Pools another round into this one.
    pub fn absorb(&mut self, round: Window) {
        self.setup_s.extend(round.setup_s);
        self.build_s.extend(round.build_s);
        self.index_bytes = round.index_bytes;
        self.intervals.extend(round.intervals);
        self.lost += round.lost;
        self.batches.extend(round.batches);
        self.failed_batches += round.failed_batches;
        self.restart_s.extend(round.restart_s);
        self.snapshot_bytes = round.snapshot_bytes;
        if self.kinds.is_empty() {
            self.kinds = round.kinds;
        } else {
            for (pooled, kind) in self.kinds.iter_mut().zip(round.kinds) {
                pooled.build_s.extend(kind.build_s);
                pooled.restart_s.extend(kind.restart_s);
                pooled.applied_ms.extend(kind.applied_ms);
                pooled.snapshot_bytes = pooled.snapshot_bytes.max(kind.snapshot_bytes);
            }
        }
        self.checked += round.checked;
        self.wrong += round.wrong;
        self.notes.extend(round.notes);
        self.faults.extend(round.faults);
        self.input_hashes.extend(round.input_hashes);
    }

    fn note(&mut self, name: &str, value: f64, unit: &'static str) {
        self.notes.push((name.to_string(), value, unit));
    }

    pub fn offered(&self) -> u64 {
        self.intervals.iter().map(|i| i.offered).sum()
    }

    /// Answers per second, interval by interval.
    pub fn rates(&self) -> Vec<f64> {
        self.intervals
            .iter()
            .map(|i| i.answers as f64 / i.seconds)
            .collect()
    }

    /// The answer rate over the whole window: answers of all counted
    /// intervals over their seconds.
    pub fn qps(&self) -> f64 {
        let answers: u64 = self.intervals.iter().map(|i| i.answers).sum();
        let seconds: f64 = self.intervals.iter().map(|i| i.seconds).sum();
        answers as f64 / seconds
    }

    /// Folds a closed-loop client's blocks into the first `intervals`
    /// reporting intervals of `interval_s` (later blocks belong to an
    /// interval the window cut short, or one without its update batch).
    fn absorb_client(
        &mut self,
        client: ClientResult,
        intervals: usize,
        interval_s: f64,
        sc: &mut Scenario,
    ) {
        let first = self.intervals.len();
        self.intervals.extend((0..intervals).map(|_| Interval {
            seconds: interval_s,
            ..Interval::default()
        }));
        for (&ms, &at) in client.block_ms.iter().zip(&client.block_interval) {
            if let Some(interval) = self.intervals.get_mut(first + at as usize) {
                interval.answers += drive::BLOCK as u64;
                interval.offered += 1;
                interval.latency_ms.push(ms);
            }
        }
        let busy: f64 = client.stage_s.iter().sum();
        if busy > 0.0 && first == 0 {
            let last = client.stage_s.last().copied().unwrap_or(0.0);
            self.note("client.final_stage_time_share", last / busy, "share");
        }
        sc.samples.extend(client.samples);
    }

    fn absorb_batches(
        &mut self,
        sc: &mut Scenario,
        batches: &[Vec<Update>],
        records: Vec<BatchRecord>,
        window_end: Instant,
    ) {
        sc.absorb(batches, &records);
        self.failed_batches += (batches.len() - records.len()) as u64;
        self.failed_batches += records
            .iter()
            .filter(|r| !r.complete || r.applied_at > window_end + APPLY_GRACE)
            .count() as u64;
        self.batches.extend(records);
    }
}

/// Share of `[t0, t0 + window]` during which the newest published view was
/// the final stage, from the publisher's own log.
fn final_stage_share(server: &Server, t0: Instant, window: Duration) -> f64 {
    let final_stage = api::server_num_query_stages(server) - 1;
    let end = t0 + window;
    let (mut slow_since, mut slow) = (None::<Instant>, Duration::ZERO);
    for (at, stage) in api::take_publication_log(server) {
        let at = at.clamp(t0, end);
        match (stage >= final_stage, slow_since) {
            (false, None) => slow_since = Some(at),
            (true, Some(since)) => {
                slow += at - since;
                slow_since = None;
            }
            _ => {}
        }
    }
    if let Some(since) = slow_since {
        slow += end - since;
    }
    1.0 - slow.as_secs_f64() / window.as_secs_f64()
}

/// One round: set-up, the measured window of `seconds`, the oracle,
/// shutdown, and a second set-up that is timed and discarded. A serving
/// round also snapshots and restarts on either side of its window, so set-ups,
/// cold starts and restarts are all sampled before and after every window.
pub fn run_round(
    cfg: &RunConfig,
    round: usize,
    seconds: f64,
    traced: bool,
    tracer: &Tracer,
) -> Result<Window, String> {
    let start = Instant::now();
    let mut sc = set_up(cfg, round, seconds)?;
    let setup_s = start.elapsed().as_secs_f64();
    let serving = sc.server.is_some();
    let before = if serving {
        Some(snapshot_and_restart(cfg, &mut sc, traced, tracer)?)
    } else {
        None
    };
    let mut w = match cfg.workload {
        Workload::SteadyPoint => steady_point(&mut sc, seconds, traced, tracer),
        Workload::ServeUnderUpdates => serve_under_updates(&mut sc, seconds, traced, tracer),
        Workload::OpenLoopMixed => open_loop_mixed(&mut sc, seconds, traced, tracer),
        Workload::BuildRestart => build_restart(cfg, &mut sc, seconds, traced, tracer)?,
    };
    w.setup_s.push(setup_s);
    if let Some(before) = before {
        w.build_s.push(sc.build_s);
        w.index_bytes = sc.index_bytes;
        if cfg.workload == Workload::SteadyPoint {
            idle_batches(&mut sc, &mut w, traced, tracer);
        }
        // The closing snapshot holds the weights the window left.
        let after = snapshot_and_restart(cfg, &mut sc, traced, tracer)?;
        w.snapshot_bytes = after.snapshot_bytes;
        for step in [before, after] {
            w.restart_s.extend(step.restart_s);
            w.checked += step.checked;
            w.wrong += step.wrong;
        }
    }
    #[cfg(test)]
    if cfg.flip_a_sample && round == 0 {
        sc.samples[0].d ^= 1;
    }
    let verdict = oracle::verify(&sc.initial, &sc.log, &sc.samples);
    w.checked += verdict.checked;
    w.wrong += verdict.wrong;
    w.faults = std::mem::take(&mut sc.faults);
    w.input_hashes.push(sc.inputs.hash);
    if let Some(server) = sc.server.take() {
        api::shutdown(server);
    }

    let start = Instant::now();
    let again = set_up(cfg, round, seconds)?;
    w.setup_s.push(start.elapsed().as_secs_f64());
    if let Some(server) = again.server {
        w.build_s.push(again.build_s);
        api::shutdown(server);
    }
    Ok(w)
}

fn steady_point(sc: &mut Scenario, seconds: f64, traced: bool, tracer: &Tracer) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let interval = sc.preset.update_interval_s.min(seconds);
    let mut lane = tracer.lane(traced);
    let t0 = Instant::now();
    let client = drive::closed_loop_client(
        sc.server(),
        &sc.inputs.pairs,
        t0,
        window,
        interval,
        false,
        &mut lane,
    );
    let mut w = Window::default();
    w.absorb_client(client, (seconds / interval) as usize, interval, sc);
    w
}

fn serve_under_updates(sc: &mut Scenario, seconds: f64, traced: bool, tracer: &Tracer) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let interval = sc.preset.update_interval_s;
    let batches = sc.take_batches(drive::scheduled_batches(seconds, interval));
    let first_op = sc.take_ops(batches.len());
    let server = sc.server();
    api::take_publication_log(server);
    let t0 = Instant::now();
    let (client, records) = std::thread::scope(|scope| {
        let scheduler = scope.spawn(|| {
            let mut lane = tracer.lane(traced);
            drive::update_schedule(server, &batches, t0, interval, first_op, &mut lane)
        });
        let mut lane = tracer.lane(traced);
        let client = drive::closed_loop_client(
            server,
            &sc.inputs.pairs,
            t0,
            window,
            interval,
            true,
            &mut lane,
        );
        (client, scheduler.join().expect("update scheduler panicked"))
    });
    let mut w = Window::default();
    w.note(
        "publisher.final_stage_share",
        final_stage_share(server, t0, window),
        "share",
    );
    // Batch k is due in the middle of interval k: every counted interval
    // holds exactly one repair.
    w.absorb_client(client, batches.len(), interval, sc);
    w.absorb_batches(sc, &batches, records, t0 + window);
    w
}

fn open_loop_mixed(sc: &mut Scenario, seconds: f64, traced: bool, tracer: &Tracer) -> Window {
    let window = Duration::from_secs_f64(seconds);
    let interval = sc.preset.update_interval_s;
    let batches = sc.take_batches(drive::scheduled_batches(seconds, interval));
    let first_op = sc.take_ops(batches.len());
    let server = sc.server();
    let arrivals = &sc.inputs.requests;
    api::take_publication_log(server);
    let lost_before = api::service_lost_requests(server);
    let t0 = Instant::now();
    let (load, records): (OpenLoopResult, Vec<BatchRecord>) = std::thread::scope(|scope| {
        let scheduler = scope.spawn(|| {
            let mut lane = tracer.lane(traced);
            drive::update_schedule(server, &batches, t0, interval, first_op, &mut lane)
        });
        let mut lane = tracer.lane(traced);
        let load = drive::open_loop_generator(server, arrivals, t0, interval, &mut lane);
        (load, scheduler.join().expect("update scheduler panicked"))
    });
    let mut w = Window {
        intervals: vec![
            Interval {
                seconds: interval,
                ..Interval::default()
            };
            batches.len()
        ],
        lost: (load.lost.len() as u64).max(api::service_lost_requests(server) - lost_before),
        ..Window::default()
    };
    for arrival in arrivals {
        if let Some(i) = w.intervals.get_mut((arrival.due_s / interval) as usize) {
            i.offered += 1;
        }
    }
    for record in &load.records {
        if let Some(i) = w.intervals.get_mut(record.interval as usize) {
            i.answers += record.pairs as u64;
            i.latency_ms.push(record.latency_ms);
        }
    }
    w.note(
        "publisher.final_stage_share",
        final_stage_share(server, t0, window),
        "share",
    );
    w.note(
        "service.queue_depth_max",
        api::service_max_queue_depth(server) as f64,
        "count",
    );
    let mut lateness = load.lateness_us;
    stats::sort(&mut lateness);
    w.note(
        "generator.lateness_p99_us",
        stats::percentile_sorted(&lateness, 0.99),
        "us",
    );
    for (shape, name) in [
        (Shape::PointToPoint, "request.p2p_p50_ms"),
        (Shape::OneToMany, "request.one_to_many_p50_ms"),
        (Shape::Matrix, "request.matrix_p50_ms"),
    ] {
        let of_shape: Vec<f64> = load
            .records
            .iter()
            .filter(|r| r.shape == shape)
            .map(|r| r.latency_ms)
            .collect();
        w.note(name, stats::median(&of_shape), "ms");
    }
    sc.samples.extend(load.samples);
    w.absorb_batches(sc, &batches, records, t0 + window);
    w
}

/// Cycles of cold start → query slice → one batch → snapshot → warm restart
/// → query slice, over DCH, DH2H and PostMHL, each built on the graph the
/// previous batches left, until the window has passed.
fn build_restart(
    cfg: &RunConfig,
    sc: &mut Scenario,
    seconds: f64,
    traced: bool,
    tracer: &Tracer,
) -> Result<Window, String> {
    let mut lane = tracer.lane(traced);
    let params = build_params();
    let mut w = Window {
        kinds: CYCLE_KINDS
            .iter()
            .map(|&k| KindSamples {
                name: api::kind_name(k),
                ..KindSamples::default()
            })
            .collect(),
        ..Window::default()
    };
    let mut cycles = 0u64;
    let t0 = Instant::now();
    'window: while cycles == 0 || t0.elapsed().as_secs_f64() < seconds {
        for (k, &kind) in CYCLE_KINDS.iter().enumerate() {
            let Some(batch) = sc.take_batches(1).pop() else {
                break 'window;
            };
            let op = sc.take_ops(1);
            let cycle_start = Instant::now();
            let root = lane.reserve();
            let (server, build_s) = lane.time("cycle.cold_start", root, op, || {
                api::start_server(&sc.truth, kind, &params, 0)
            });
            w.kinds[k].build_s.push(build_s);
            if w.kinds[k].index_bytes == 0 {
                w.kinds[k].index_bytes = api::server_index_size_bytes(&server);
            }
            // Versions restart with every server, so this cycle's samples are
            // checked here, against the graph the server was built on.
            let built_on = sc.truth.clone();
            let samples_from = sc.samples.len();
            query_slice(&server, &mut w, sc, &mut lane);
            let record = drive::run_batch(&server, &batch, op, &mut lane);
            w.kinds[k].applied_ms.push(record.applied_ms);
            let batch_log = record.log.clone();
            w.absorb_batches(
                sc,
                std::slice::from_ref(&batch),
                vec![record],
                Instant::now(),
            );
            let path = cfg
                .out_dir
                .join(format!("cycle-{}.snap", api::kind_name(kind)));
            let restart = drive::snapshot_and_restart(
                &server,
                &sc.truth,
                &sc.inputs.pairs,
                &path,
                1,
                0,
                op,
                &mut lane,
            )?;
            w.kinds[k].restart_s.extend_from_slice(&restart.restart_s);
            w.kinds[k].snapshot_bytes = w.kinds[k].snapshot_bytes.max(restart.snapshot_bytes);
            query_slice(&server, &mut w, sc, &mut lane);
            let verdict = oracle::verify(&built_on, &batch_log, &sc.samples[samples_from..]);
            sc.samples.truncate(samples_from);
            sc.log.clear();
            w.checked += restart.checked + verdict.checked;
            w.wrong += restart.wrong + verdict.wrong;
            api::shutdown(server);
            lane.record_reserved(root, "cycle", 0, op, cycle_start, Instant::now());
        }
        cycles += 1;
    }
    Ok(w)
}

/// One closed-loop slice of a cycle: one more reporting interval.
fn query_slice(server: &Server, w: &mut Window, sc: &mut Scenario, lane: &mut Lane<'_>) {
    let slice_s = CYCLE_SLICE.as_secs_f64();
    let client = drive::closed_loop_client(
        server,
        &sc.inputs.pairs,
        Instant::now(),
        CYCLE_SLICE,
        slice_s,
        false,
        lane,
    );
    w.absorb_client(client, 1, slice_s, sc);
}

/// `steady_point` has no updates in its window, so its update metric comes
/// from batches sent to the idle server afterwards: the repair time with
/// nothing else running.
fn idle_batches(sc: &mut Scenario, w: &mut Window, traced: bool, tracer: &Tracer) {
    let mut lane = tracer.lane(traced);
    let batches = sc.take_batches(IDLE_BATCHES);
    let first_op = sc.take_ops(batches.len());
    let records: Vec<BatchRecord> = batches
        .iter()
        .enumerate()
        .map(|(k, b)| drive::run_batch(sc.server(), b, first_op + k as u64, &mut lane))
        .collect();
    w.absorb_batches(sc, &batches, records, Instant::now());
}

/// The snapshot/restart step on either side of a serving round's window.
fn snapshot_and_restart(
    cfg: &RunConfig,
    sc: &mut Scenario,
    traced: bool,
    tracer: &Tracer,
) -> Result<RestartRecord, String> {
    let mut lane = tracer.lane(traced);
    let op = sc.take_ops(1);
    drive::snapshot_and_restart(
        sc.server(),
        &sc.truth,
        &sc.inputs.pairs,
        &cfg.out_dir.join(format!("{}.snap", cfg.workload.name())),
        RESTARTS,
        cfg.workload.query_workers(),
        op,
        &mut lane,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_run_has_as_many_rounds_as_fit_and_a_traced_one_at_least_two() {
        let config = |preset: Preset, seconds: f64| RunConfig {
            workload: Workload::SteadyPoint,
            seed: 1,
            seconds,
            preset,
            out_dir: PathBuf::new(),
            flip_a_sample: false,
        };
        assert_eq!(rounds(&config(inputs::GRID64, 20.0), false), ROUNDS);
        assert_eq!(rounds(&config(inputs::GRID64, 60.0), true), ROUNDS);
        assert_eq!(rounds(&config(inputs::GRID64, 9.0), false), 2);
        assert_eq!(rounds(&config(inputs::GRID32, 3.0), false), 3);
        assert_eq!(rounds(&config(inputs::GRID32, 1.0), false), 1);
        assert_eq!(rounds(&config(inputs::GRID32, 1.0), true), 2);
        // Every round's window holds at least one scheduled batch.
        for (preset, seconds, traced) in [
            (inputs::GRID32, 1.0, true),
            (inputs::GRID32, 3.0, false),
            (inputs::GRID64, 20.0, false),
        ] {
            let cfg = config(preset, seconds);
            let window = seconds / rounds(&cfg, traced) as f64;
            assert!(drive::scheduled_batches(window, preset.update_interval_s) >= 1);
        }
    }
}
