//! The load driver: one way to put traffic on a serving target and read
//! back what happened.
//!
//! [`run_load`] drives a [`RoadNetworkServer`] — one index, or a
//! partition-sharded fleet built with
//! [`ServerBuilder::shards`](crate::ServerBuilder::shards) — with the
//! paper's protocol (§III, Exp. 3–5): clients issue shortest-distance
//! requests while batches of `|U|` edge updates arrive every `δt`, and the
//! answers are judged against a response-time target. A [`LoadProfile`] says what is offered:
//!
//! * **requests** — a [`RequestMix`] of [`RequestClass`]es (point-to-point
//!   bundles, one-to-many fans, matrices, Zipf-skewed hot pairs). Every
//!   client draws from its own seeded [`RequestStream`]: the same
//!   `(mix, pool, seed, client)` yields the same batches under every
//!   arrival process, so runs are replayable and comparable.
//! * **arrivals** — one [`ArrivalProcess`].
//!   [`ClosedLoop`](ArrivalProcess::ClosedLoop): each client executes its
//!   next request on its own pinned session as soon as the previous one
//!   returns, so offered load throttles itself to what the target sustains —
//!   this measures capacity and which query stage served. Poisson /
//!   constant: requests are *submitted on schedule* through the target's
//!   [`DistanceService`] whether or not it keeps up, and latency is counted
//!   from the **scheduled** arrival, so queueing delay, generator lateness
//!   and shed requests are charged to the run instead of silently forgiven
//!   (the coordinated-omission bug of closed loops).
//! * **updates** — `update_rounds` batches of `update_volume` random edge
//!   changes spread evenly over the run, one every
//!   [`LoadProfile::update_interval`] (the paper's `δt`), each submitted
//!   through the server's feed and waited on until applied.
//!
//! The one [`LoadReport`] carries the books (offered / answered / shed /
//! expired), latency histograms with the [`SloVerdict`], pairs per query
//! stage, the staged publications and update timelines of the run, and the
//! inputs of the Lemma 1 model ([`LoadReport::final_stage_query`],
//! [`LoadReport::mean_update_time`]) so the modeled bound is one call to
//! [`lemma1_bound`](crate::lemma1_bound) next to the measured rate.
//!
use crate::admission::SubmitOutcome;
use crate::cache::CacheStats;
use crate::model::QueryStats;
use crate::server::RoadNetworkServer;
use crate::service::{BatchResult, BatchTicket, DistanceService, QueryBatch};
use crate::slo::{LatencyHistogram, SloTarget, SloVerdict};
use htsp_graph::{Dist, Graph, Query, UpdateGenerator, UpdateTimeline};
use htsp_search::dijkstra_distance;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Golden-ratio multiplier decorrelating per-client PRNG seeds.
const SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

fn client_rng(seed: u64, client: usize) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ (client as u64).wrapping_mul(SEED_MIX))
}

/// A deterministic sampler of the Zipf distribution over ranks
/// `0..n`: `P(k) ∝ 1/(k+1)^s`.
///
/// Built once (O(n) cumulative table), sampled by binary search on a
/// uniform draw — no rejection, so one sample consumes exactly one RNG
/// output and two streams with the same seed stay in lock-step.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    cdf: Vec<f64>,
}

impl ZipfSampler {
    /// A sampler over ranks `0..n` with exponent `s` (`s = 0` is uniform).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf universe must be non-empty");
        assert!(s.is_finite() && s >= 0.0, "Zipf exponent must be >= 0");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        ZipfSampler { cdf }
    }

    /// Draws one rank in `0..n`.
    pub fn sample<R: RngCore>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The shape of one generated request, mapping to a [`QueryBatch`] variant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum RequestClass {
    /// A bundle of `bundle` independent `(s, t)` pairs drawn uniformly from
    /// the query pool ([`QueryBatch::PointToPoint`]).
    PointToPoint {
        /// Pairs per batch.
        bundle: usize,
    },
    /// One origin, `fanout` destinations ([`QueryBatch::OneToMany`]).
    OneToMany {
        /// Destinations per batch.
        fanout: usize,
    },
    /// A `side × side` distance matrix ([`QueryBatch::Matrix`]).
    Matrix {
        /// Rows and columns of the matrix.
        side: usize,
    },
    /// Single pairs drawn from the first `universe` pool entries under a
    /// Zipf(`zipf_s`) distribution (rank 1 is the hottest pair) — the
    /// workload a result cache feeds on.
    HotPairs {
        /// Number of distinct hot pairs (capped at the pool size).
        universe: usize,
        /// Zipf exponent `s` (0 = uniform over the universe; typical
        /// navigation traffic is ~0.8–1.2; larger = more skew).
        zipf_s: f64,
    },
}

impl RequestClass {
    /// Short label for per-class reports and telemetry.
    pub fn label(&self) -> &'static str {
        match self {
            RequestClass::PointToPoint { .. } => "point-to-point",
            RequestClass::OneToMany { .. } => "one-to-many",
            RequestClass::Matrix { .. } => "matrix",
            RequestClass::HotPairs { .. } => "hot-pairs",
        }
    }
}

/// A weighted mix of [`RequestClass`]es: each generated request samples a
/// class proportionally to its weight.
#[derive(Clone, Debug)]
pub struct RequestMix {
    entries: Vec<(RequestClass, f64)>,
    total_weight: f64,
}

impl RequestMix {
    /// A mix over `(class, weight)` entries. Weights must be positive; they
    /// need not sum to 1.
    pub fn new(entries: Vec<(RequestClass, f64)>) -> Self {
        assert!(
            !entries.is_empty(),
            "request mix must have at least one class"
        );
        assert!(
            entries.iter().all(|(_, w)| w.is_finite() && *w > 0.0),
            "request-mix weights must be positive and finite"
        );
        let total_weight = entries.iter().map(|(_, w)| w).sum();
        RequestMix {
            entries,
            total_weight,
        }
    }

    /// A mix of one class.
    pub fn single(class: RequestClass) -> Self {
        RequestMix::new(vec![(class, 1.0)])
    }

    /// The classes in this mix, in entry order.
    pub fn classes(&self) -> impl Iterator<Item = RequestClass> + '_ {
        self.entries.iter().map(|(c, _)| *c)
    }

    fn sample_index<R: Rng>(&self, rng: &mut R) -> usize {
        let mut x: f64 = rng.gen::<f64>() * self.total_weight;
        for (i, (_, w)) in self.entries.iter().enumerate() {
            x -= w;
            if x < 0.0 {
                return i;
            }
        }
        self.entries.len() - 1
    }
}

/// One client's deterministic request stream: a pure function of
/// `(mix, pool, seed, client)`, independent of the arrival process, so a
/// closed-loop run and a scheduled run of the same profile replay the same
/// batches and two clients never mirror each other.
#[derive(Debug)]
pub struct RequestStream {
    mix: RequestMix,
    pool: Vec<Query>,
    rng: ChaCha8Rng,
    /// One sampler per `HotPairs` mix entry, parallel to the mix.
    zipf: Vec<Option<ZipfSampler>>,
}

impl RequestStream {
    /// The stream of `client` drawing batches from `pool`.
    pub fn new(mix: RequestMix, pool: &[Query], seed: u64, client: usize) -> Self {
        assert!(!pool.is_empty(), "the query pool must be non-empty");
        let zipf = mix
            .classes()
            .map(|class| match class {
                RequestClass::HotPairs { universe, zipf_s } => {
                    Some(ZipfSampler::new(universe.clamp(1, pool.len()), zipf_s))
                }
                _ => None,
            })
            .collect();
        RequestStream {
            mix,
            pool: pool.to_vec(),
            rng: client_rng(seed, client),
            zipf,
        }
    }

    /// The next request: the index of the mix entry it was sampled from,
    /// and the batch.
    pub fn next_request(&mut self) -> (usize, QueryBatch) {
        let class = self.mix.sample_index(&mut self.rng);
        let batch = match self.mix.entries[class].0 {
            RequestClass::PointToPoint { bundle } => {
                QueryBatch::PointToPoint((0..bundle.max(1)).map(|_| self.pick()).collect())
            }
            RequestClass::OneToMany { fanout } => QueryBatch::OneToMany {
                source: self.pick().source,
                targets: (0..fanout.max(1)).map(|_| self.pick().target).collect(),
            },
            RequestClass::Matrix { side } => QueryBatch::Matrix {
                sources: (0..side.max(1)).map(|_| self.pick().source).collect(),
                targets: (0..side.max(1)).map(|_| self.pick().target).collect(),
            },
            RequestClass::HotPairs { .. } => {
                let zipf = self.zipf[class].as_ref().expect("sampler per hot entry");
                QueryBatch::PointToPoint(vec![self.pool[zipf.sample(&mut self.rng)]])
            }
        };
        (class, batch)
    }

    fn pick(&mut self) -> Query {
        self.pool[self.rng.gen_range(0..self.pool.len())]
    }
}

/// When a client issues its next request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Each client executes its next request on its own pinned session as
    /// soon as the previous one returns.
    ClosedLoop,
    /// Poisson arrivals at `rate` requests/second in aggregate: exponential
    /// inter-arrival gaps, the memoryless model of independent clients (and
    /// the arrival model of the paper's M/G/1 bound).
    Poisson {
        /// Mean offered rate in requests per second.
        rate: f64,
    },
    /// One request every `1/rate` seconds exactly — the burst-free control
    /// for the Poisson runs.
    Constant {
        /// Offered rate in requests per second.
        rate: f64,
    },
}

/// One scheduled client's arrival times: cumulative offsets from the run
/// start.
struct Schedule {
    /// Mean inter-arrival gap of this client, in seconds.
    mean_gap: f64,
    poisson: bool,
    rng: ChaCha8Rng,
    elapsed: Duration,
}

impl Schedule {
    /// The schedule of one of `clients` generators which together offer the
    /// aggregate rate of `arrivals`; `None` for a closed loop, which has no
    /// schedule.
    fn new(arrivals: ArrivalProcess, clients: usize, seed: u64, client: usize) -> Option<Self> {
        let (rate, poisson) = match arrivals {
            ArrivalProcess::ClosedLoop => return None,
            ArrivalProcess::Poisson { rate } => (rate, true),
            ArrivalProcess::Constant { rate } => (rate, false),
        };
        assert!(rate > 0.0, "the offered rate must be positive");
        Some(Schedule {
            mean_gap: clients as f64 / rate,
            poisson,
            // Decorrelated from the request stream of the same client.
            rng: client_rng(!seed, client),
            elapsed: Duration::ZERO,
        })
    }

    fn next_offset(&mut self) -> Duration {
        let gap = if self.poisson {
            // Inverse CDF of the exponential distribution; u ∈ [0, 1) so
            // 1 - u ∈ (0, 1] and the log is finite.
            let u: f64 = self.rng.gen();
            -(1.0 - u).ln() * self.mean_gap
        } else {
            self.mean_gap
        };
        self.elapsed += Duration::from_secs_f64(gap);
        self.elapsed
    }
}

/// How long before a deadline [`pace_until`] switches from sleeping to
/// spinning; must cover the platform's sleep overshoot.
const SPIN_WINDOW: Duration = Duration::from_micros(200);

/// Blocks until `due`: sleeps until [`SPIN_WINDOW`] before it, then spins.
/// Plain `thread::sleep` granularity (≈1 ms with timer coalescing) would cap
/// what one generator can offer and quietly turn it into a closed loop; the
/// bounded spin keeps 50k+ req/s schedules exact at ≪1% of a core per
/// 1k req/s.
fn pace_until(due: Instant) {
    let now = Instant::now();
    if due > now && due - now > SPIN_WINDOW {
        std::thread::sleep(due - now - SPIN_WINDOW);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Everything [`run_load`] offers a target. All fields are public: start
/// from [`LoadProfile::closed_loop`] or [`LoadProfile::poisson`] and
/// override with struct-update syntax.
#[derive(Clone, Debug)]
pub struct LoadProfile {
    /// When clients issue requests. Scheduled processes give the
    /// *aggregate* rate; each client runs at `rate / clients`.
    pub arrivals: ArrivalProcess,
    /// The request mix every client samples from.
    pub mix: RequestMix,
    /// Number of client threads (at least 1).
    pub clients: usize,
    /// Length of the run: closed-loop clients stop once it has passed (and
    /// the last update round is applied); scheduled clients offer no
    /// request due after it.
    pub duration: Duration,
    /// Base seed of the request streams, schedules, and update rounds.
    pub seed: u64,
    /// The latency target the run is judged against (the paper's `R*_q`).
    pub slo: SloTarget,
    /// Update batches applied during the run, one every
    /// [`update_interval`](Self::update_interval); 0 = a static network.
    pub update_rounds: usize,
    /// Edge updates per batch (`|U|`).
    pub update_volume: usize,
    /// Re-derive every answer with Dijkstra on the graph version that
    /// served it (orders of magnitude slower than serving). A closed-loop
    /// client checks against its pinned view's own graph. Scheduled answers
    /// come back through the service without their graph, so they are
    /// checked against the graph pinned at the start of the run, which
    /// requires `update_rounds == 0`.
    pub verify: bool,
}

impl LoadProfile {
    /// Four closed-loop clients issuing single point-to-point queries for
    /// `duration` on a static network, judged against a 1 s p95.
    pub fn closed_loop(duration: Duration) -> Self {
        LoadProfile {
            arrivals: ArrivalProcess::ClosedLoop,
            mix: RequestMix::single(RequestClass::PointToPoint { bundle: 1 }),
            clients: 4,
            duration,
            seed: 1,
            slo: SloTarget::p95(Duration::from_secs(1)),
            update_rounds: 0,
            update_volume: 100,
            verify: false,
        }
    }

    /// The same, offered as Poisson arrivals at `rate` requests/second and
    /// judged against `slo`.
    pub fn poisson(rate: f64, duration: Duration, slo: SloTarget) -> Self {
        LoadProfile {
            arrivals: ArrivalProcess::Poisson { rate },
            slo,
            ..LoadProfile::closed_loop(duration)
        }
    }

    /// The update interval `δt`: `duration / update_rounds` (the whole run
    /// when there are no rounds). Round `i` starts at `i · δt`, or as soon
    /// as the previous round is applied if that is later.
    pub fn update_interval(&self) -> Duration {
        self.duration / self.update_rounds.max(1) as u32
    }
}

/// Per-[`RequestClass`] slice of a [`LoadReport`], one per mix entry.
#[derive(Clone, Debug)]
pub struct ClassReport {
    /// The class.
    pub class: RequestClass,
    /// Latency of the answered requests of this class.
    pub latency: LatencyHistogram,
    /// Requests offered.
    pub offered: u64,
    /// Requests answered.
    pub answered: u64,
    /// Requests shed at submit by the admission policy.
    pub shed: u64,
    /// Requests expired (at submit or unexecuted in the queue).
    pub expired: u64,
}

/// The outcome of one [`run_load`] run.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Algorithm name of the driven server (`fleet(kx KIND)` for a
    /// fleet).
    pub target: String,
    /// Requests offered (closed loop: issued).
    pub offered: u64,
    /// Requests answered (each exactly once).
    pub answered: u64,
    /// `(s, t)` distances inside the answered requests.
    pub answered_pairs: u64,
    /// Requests shed at submit.
    pub shed: u64,
    /// Requests expired at submit or dropped unexecuted in the queue.
    pub expired: u64,
    /// Accepted requests abandoned by a service shutdown mid-run.
    pub abandoned: u64,
    /// Latency over all answered requests: execution time under
    /// [`ArrivalProcess::ClosedLoop`], *scheduled* arrival to answer
    /// otherwise.
    pub latency: LatencyHistogram,
    /// Per-mix-entry breakdown.
    pub per_class: Vec<ClassReport>,
    /// The verdict of `latency` against the profile's target.
    pub verdict: SloVerdict,
    /// Wall time from the start of the run to the last answer.
    pub elapsed: Duration,
    /// Deepest the service queue got on accepting one of **this run's**
    /// requests ([`BatchTicket::depth_at_accept`]; 0 under a closed loop,
    /// which bypasses the queue).
    pub max_queue_depth: usize,
    /// Pairs answered per query stage (index = stage).
    pub per_stage_pairs: Vec<u64>,
    /// `(time since run start, query stage)` of every snapshot the target
    /// published during the run.
    pub publications: Vec<(Duration, usize)>,
    /// Update timeline of every round, in order.
    pub timelines: Vec<UpdateTimeline>,
    /// Mean and variance of the per-pair execution time of closed-loop
    /// requests served by the final query stage — the `t_q`, `V_q` of
    /// Lemma 1 (zero for scheduled arrivals, whose latency includes
    /// queueing).
    pub final_stage_query: QueryStats,
    /// Answers that failed verification (0 unless [`LoadProfile::verify`]
    /// is on and the index is broken).
    pub verify_failures: u64,
    /// Description of the first verification failure, if any.
    pub first_failure: Option<String>,
    /// Result-cache counters of this run (`None` without a cache).
    pub cache: Option<CacheStats>,
}

impl LoadReport {
    /// Answered `(s, t)` pairs per second of wall time.
    pub fn pairs_per_second(&self) -> f64 {
        if self.elapsed.is_zero() {
            return 0.0;
        }
        self.answered_pairs as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean update time `t_u` over the run's rounds, in seconds.
    pub fn mean_update_time(&self) -> f64 {
        let total: Duration = self.timelines.iter().map(UpdateTimeline::total).sum();
        total.as_secs_f64() / self.timelines.len().max(1) as f64
    }
}

/// Running moments of the per-pair execution time, in seconds.
#[derive(Clone, Copy, Default)]
struct Moments {
    pairs: f64,
    sum: f64,
    sum_sq: f64,
}

impl Moments {
    /// One request of `pairs` pairs that took `took`: `pairs` samples of
    /// `took / pairs` each.
    fn record(&mut self, pairs: usize, took: Duration) {
        let secs = took.as_secs_f64();
        self.pairs += pairs as f64;
        self.sum += secs;
        self.sum_sq += secs * secs / pairs as f64;
    }

    fn stats(self) -> QueryStats {
        if self.pairs == 0.0 {
            return QueryStats::default();
        }
        let mean = self.sum / self.pairs;
        QueryStats {
            mean,
            variance: (self.sum_sq / self.pairs - mean * mean).max(0.0),
        }
    }
}

/// What one client thread saw; merged into the [`LoadReport`].
struct Tally {
    per_class: Vec<ClassReport>,
    answered_pairs: u64,
    abandoned: u64,
    max_queue_depth: usize,
    per_stage_pairs: Vec<u64>,
    /// Closed-loop requests served by the final query stage.
    final_stage: Moments,
    verify_failures: u64,
    first_failure: Option<String>,
    last_answer: Instant,
}

impl Tally {
    fn new(mix: &RequestMix, num_stages: usize, start: Instant) -> Self {
        Tally {
            per_class: mix
                .classes()
                .map(|class| ClassReport {
                    class,
                    latency: LatencyHistogram::new(),
                    offered: 0,
                    answered: 0,
                    shed: 0,
                    expired: 0,
                })
                .collect(),
            answered_pairs: 0,
            abandoned: 0,
            max_queue_depth: 0,
            per_stage_pairs: vec![0; num_stages.max(1)],
            final_stage: Moments::default(),
            verify_failures: 0,
            first_failure: None,
            last_answer: start,
        }
    }

    fn answered(&mut self, class: usize, pairs: usize, stage: usize, latency: Duration) {
        let c = &mut self.per_class[class];
        c.answered += 1;
        c.latency.record(latency);
        self.answered_pairs += pairs as u64;
        let last = self.per_stage_pairs.len() - 1;
        self.per_stage_pairs[stage.min(last)] += pairs as u64;
    }

    /// Checks `got` against Dijkstra on `graph`, the graph version that
    /// `algorithm`'s `stage` answered `batch` on.
    fn verify(
        &mut self,
        graph: &Graph,
        (algorithm, stage): (&str, usize),
        batch: &QueryBatch,
        got: &[Dist],
    ) {
        for ((s, t), &d) in batch.pairs().into_iter().zip(got) {
            let expect = dijkstra_distance(graph, s, t);
            if d != expect {
                self.verify_failures += 1;
                self.first_failure.get_or_insert_with(|| {
                    format!(
                        "{algorithm} stage {stage}: d({s}, {t}) = {d:?}, Dijkstra says {expect:?}"
                    )
                });
            }
        }
    }
}

/// A closed-loop client: pin a session, execute requests on it while the
/// pinned version is the published one, re-pin.
fn closed_loop_client(
    target: &RoadNetworkServer,
    profile: &LoadProfile,
    mut stream: RequestStream,
    mut tally: Tally,
    stop: &AtomicBool,
) -> Tally {
    let sessions = target.source();
    let final_stage = tally.per_stage_pairs.len() - 1;
    while !stop.load(Ordering::Relaxed) {
        sessions.with_pinned(|pin| {
            while !stop.load(Ordering::Relaxed) && sessions.version() == pin.version {
                let (class, batch) = stream.next_request();
                let pairs = batch.num_pairs();
                let issued = Instant::now();
                let distances = batch.execute(pin.session);
                let took = issued.elapsed();
                tally.per_class[class].offered += 1;
                tally.answered(class, pairs, pin.stage, took);
                if pin.stage >= final_stage {
                    tally.final_stage.record(pairs, took);
                }
                if profile.verify {
                    tally.verify(pin.graph, (pin.algorithm, pin.stage), &batch, &distances);
                }
            }
        });
    }
    tally.last_answer = Instant::now();
    tally
}

/// A scheduled client: submit each request when it is due, stamped with its
/// *scheduled* arrival; resolve the tickets after the horizon (answers are
/// timestamped by the workers at completion, so late collection does not
/// distort latencies).
fn scheduled_client(
    service: &DistanceService,
    profile: &LoadProfile,
    mut stream: RequestStream,
    mut schedule: Schedule,
    mut tally: Tally,
    start: Instant,
    static_graph: Option<&Graph>,
) -> Tally {
    let mut pending: Vec<(usize, Instant, BatchTicket, Option<QueryBatch>)> = Vec::new();
    loop {
        let offset = schedule.next_offset();
        if offset > profile.duration {
            break;
        }
        let (class, batch) = stream.next_request();
        let kept = static_graph.map(|_| batch.clone());
        let due = start + offset;
        pace_until(due);
        tally.per_class[class].offered += 1;
        match service.try_submit_at(batch, due) {
            SubmitOutcome::Accepted(ticket) => {
                tally.max_queue_depth = tally.max_queue_depth.max(ticket.depth_at_accept());
                pending.push((class, due, ticket, kept));
            }
            SubmitOutcome::Shed => tally.per_class[class].shed += 1,
            SubmitOutcome::Expired => tally.per_class[class].expired += 1,
        }
    }
    for (class, due, ticket, kept) in pending {
        match ticket.wait_result() {
            BatchResult::Answered(answer) => {
                let latency = answer.answered_at.saturating_duration_since(due);
                tally.answered(class, answer.distances.len(), answer.stage, latency);
                tally.last_answer = tally.last_answer.max(answer.answered_at);
                if let (Some(graph), Some(batch)) = (static_graph, kept) {
                    let served_by = (answer.algorithm, answer.stage);
                    tally.verify(graph, served_by, &batch, &answer.distances);
                }
            }
            BatchResult::Expired => tally.per_class[class].expired += 1,
            BatchResult::Abandoned => tally.abandoned += 1,
        }
    }
    tally
}

/// One update round: draws `volume` edge changes against the current
/// weights, submits them through the server's feed, forces a batch
/// boundary, and blocks until the round is applied.
///
/// Under a manual coalesce policy (what [`RoadNetworkServer::host`] sets)
/// the round is exactly one feed batch. Under an auto-flushing policy it
/// may split into several; the returned timeline then concatenates the
/// stages of every distinct batch, so its total still covers the whole
/// round.
fn apply_round(
    server: &RoadNetworkServer,
    gen: &mut UpdateGenerator,
    volume: usize,
) -> UpdateTimeline {
    let batch = server.with_graph(|g| gen.generate(g, volume));
    let mut tickets = server.feed().submit_all(batch.as_slice().iter().copied());
    tickets.push(server.feed().flush());
    let mut seen = HashSet::new();
    let mut round = UpdateTimeline::default();
    for ticket in &tickets {
        let outcome = ticket.wait_applied();
        if seen.insert(outcome.batch_seq) {
            for stage in &outcome.timeline.stages {
                round.push(stage.name.clone(), stage.duration);
            }
        }
    }
    round
}

/// Drives `profile` against `target` with requests drawn from `pool`, and
/// reports what happened; see the [module docs](self).
///
/// Spawns `profile.clients` client threads; the calling thread is the update
/// source. The target is left running and can be driven again: every count
/// in the report, including `publications` and `max_queue_depth`, covers
/// this run only. The per-class outcome is also folded into the target's
/// [`TelemetryHub`](crate::TelemetryHub) as
/// `htsp_loadgen_latency_seconds{class=...}` and
/// `htsp_loadgen_{offered,answered,shed,expired}_total{class=...}` (plus an
/// unlabeled `htsp_loadgen_abandoned_total`), which accumulate across runs.
///
/// # Panics
///
/// Panics if `pool` is empty, if a scheduled arrival process is asked of a
/// server without query workers, or if `verify` is combined with scheduled
/// arrivals and update rounds (see [`LoadProfile::verify`]).
pub fn run_load(target: &RoadNetworkServer, profile: &LoadProfile, pool: &[Query]) -> LoadReport {
    let clients = profile.clients.max(1);
    let num_stages = target.num_query_stages();
    let scheduled = profile.arrivals != ArrivalProcess::ClosedLoop;
    let static_graph = (profile.verify && scheduled).then(|| {
        assert_eq!(
            profile.update_rounds, 0,
            "scheduled answers are verified against one graph: no update rounds"
        );
        target.source().with_pinned(|pin| pin.graph.clone())
    });
    let cache_stats = || target.cache().map(|c| c.stats());
    let cache_before = cache_stats();
    // Publications from before the run are not this run's.
    target.publisher().take_log();

    // If the update source panics, closed-loop clients must still be told
    // to stop — otherwise `thread::scope` joins threads that spin forever.
    struct StopGuard<'a>(&'a AtomicBool);
    impl Drop for StopGuard<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    let mut timelines = Vec::with_capacity(profile.update_rounds);
    let tallies: Vec<Tally> = std::thread::scope(|scope| {
        let _stop_on_unwind = StopGuard(&stop);
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let stream = RequestStream::new(profile.mix.clone(), pool, profile.seed, client);
                let tally = Tally::new(&profile.mix, num_stages, start);
                let schedule = Schedule::new(profile.arrivals, clients, profile.seed, client);
                let (stop, static_graph) = (&stop, static_graph.as_ref());
                scope.spawn(move || match schedule {
                    None => closed_loop_client(target, profile, stream, tally, stop),
                    Some(schedule) => scheduled_client(
                        target
                            .query_service()
                            .expect("scheduled arrivals need a target with query workers"),
                        profile,
                        stream,
                        schedule,
                        tally,
                        start,
                        static_graph,
                    ),
                })
            })
            .collect();
        let sleep_until =
            |due: Instant| std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let mut gen = UpdateGenerator::new(profile.seed);
        for round in 0..profile.update_rounds {
            sleep_until(start + profile.update_interval() * round as u32);
            timelines.push(apply_round(target, &mut gen, profile.update_volume));
        }
        sleep_until(start + profile.duration);
        stop.store(true, Ordering::Relaxed);
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });

    let mut total = Tally::new(&profile.mix, num_stages, start);
    for tally in tallies {
        for (sum, c) in total.per_class.iter_mut().zip(&tally.per_class) {
            sum.offered += c.offered;
            sum.answered += c.answered;
            sum.shed += c.shed;
            sum.expired += c.expired;
            sum.latency.merge(&c.latency);
        }
        for (sum, pairs) in total.per_stage_pairs.iter_mut().zip(&tally.per_stage_pairs) {
            *sum += pairs;
        }
        total.answered_pairs += tally.answered_pairs;
        total.abandoned += tally.abandoned;
        total.max_queue_depth = total.max_queue_depth.max(tally.max_queue_depth);
        total.final_stage.pairs += tally.final_stage.pairs;
        total.final_stage.sum += tally.final_stage.sum;
        total.final_stage.sum_sq += tally.final_stage.sum_sq;
        total.verify_failures += tally.verify_failures;
        total.first_failure = total.first_failure.or(tally.first_failure);
        total.last_answer = total.last_answer.max(tally.last_answer);
    }

    let hub = target.telemetry();
    let mut latency = LatencyHistogram::new();
    for c in &total.per_class {
        latency.merge(&c.latency);
        let labels: &[(&str, &str)] = &[("class", c.class.label())];
        hub.labeled_histogram("htsp_loadgen_latency_seconds", labels)
            .merge_from(&c.latency);
        hub.labeled_counter("htsp_loadgen_offered_total", labels)
            .add(c.offered);
        hub.labeled_counter("htsp_loadgen_answered_total", labels)
            .add(c.answered);
        hub.labeled_counter("htsp_loadgen_shed_total", labels)
            .add(c.shed);
        hub.labeled_counter("htsp_loadgen_expired_total", labels)
            .add(c.expired);
    }
    hub.counter("htsp_loadgen_abandoned_total")
        .add(total.abandoned);

    let sum_of = |f: fn(&ClassReport) -> u64| total.per_class.iter().map(f).sum();
    LoadReport {
        target: target.algorithm().to_string(),
        offered: sum_of(|c| c.offered),
        answered: sum_of(|c| c.answered),
        answered_pairs: total.answered_pairs,
        shed: sum_of(|c| c.shed),
        expired: sum_of(|c| c.expired),
        abandoned: total.abandoned,
        verdict: profile.slo.evaluate(&latency),
        latency,
        elapsed: total.last_answer.saturating_duration_since(start),
        max_queue_depth: total.max_queue_depth,
        per_stage_pairs: total.per_stage_pairs,
        publications: target
            .publisher()
            .take_log()
            .into_iter()
            .map(|e| (e.at.saturating_duration_since(start), e.stage))
            .collect(),
        timelines,
        final_stage_query: total.final_stage.stats(),
        verify_failures: total.verify_failures,
        first_failure: total.first_failure,
        cache: cache_stats().map(|after| after.since(cache_before.unwrap_or_default())),
        per_class: total.per_class,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::feed::CoalescePolicy;
    use crate::registry::AlgorithmKind;
    use crate::server::RoadNetworkServer;
    use htsp_graph::gen::{grid, WeightRange};
    use htsp_graph::{QuerySet, VertexId};

    fn pool(n: usize) -> Vec<Query> {
        (0..n as u32)
            .map(|i| Query::new(VertexId(i), VertexId(n as u32 - 1 - i)))
            .collect()
    }

    #[test]
    fn same_seed_same_schedule_and_mix() {
        let mix = RequestMix::new(vec![
            (RequestClass::PointToPoint { bundle: 4 }, 3.0),
            (RequestClass::OneToMany { fanout: 8 }, 1.0),
            (
                RequestClass::HotPairs {
                    universe: 16,
                    zipf_s: 1.1,
                },
                1.0,
            ),
        ]);
        let p = pool(64);
        let arrivals = ArrivalProcess::Poisson { rate: 500.0 };
        let client = |seed, c| {
            (
                Schedule::new(arrivals, 4, seed, c).expect("scheduled"),
                RequestStream::new(mix.clone(), &p, seed, c),
            )
        };
        let (mut sa, mut a) = client(42, 3);
        let (mut sb, mut b) = client(42, 3);
        let (mut sc, mut c) = client(42, 4);
        let mut diverged = false;
        for _ in 0..200 {
            let (oa, ob, oc) = (sa.next_offset(), sb.next_offset(), sc.next_offset());
            let (ra, rb, rc) = (a.next_request(), b.next_request(), c.next_request());
            assert_eq!(oa, ob, "same (seed, client) must replay");
            assert_eq!(format!("{ra:?}"), format!("{rb:?}"));
            if oa != oc || ra.0 != rc.0 {
                diverged = true;
            }
        }
        assert!(diverged, "different clients must be decorrelated");
    }

    #[test]
    fn poisson_empirical_rate_tracks_lambda() {
        let rate = 1000.0;
        let mut s = Schedule::new(ArrivalProcess::Poisson { rate }, 1, 7, 0).expect("scheduled");
        let n = 20_000;
        let mut last = Duration::ZERO;
        for _ in 0..n {
            last = s.next_offset();
        }
        let empirical = n as f64 / last.as_secs_f64();
        let err = (empirical - rate).abs() / rate;
        // 20k exponential gaps: the sample mean is within a few percent of
        // 1/λ with overwhelming probability (std-err ≈ 0.7%).
        assert!(err < 0.05, "empirical rate {empirical:.1} vs λ {rate}");
    }

    #[test]
    fn constant_rate_is_exact() {
        // Two clients share 200 req/s: each fires every 10 ms exactly.
        let mut s =
            Schedule::new(ArrivalProcess::Constant { rate: 200.0 }, 2, 1, 0).expect("scheduled");
        assert!(Schedule::new(ArrivalProcess::ClosedLoop, 2, 1, 0).is_none());
        let mut stream = RequestStream::new(
            RequestMix::single(RequestClass::PointToPoint { bundle: 2 }),
            &pool(4),
            1,
            0,
        );
        for i in 1..=50u32 {
            assert_eq!(s.next_offset(), Duration::from_millis(10) * i);
            assert_eq!(stream.next_request().1.num_pairs(), 2);
        }
    }

    #[test]
    fn mix_weights_are_respected() {
        let mix = RequestMix::new(vec![
            (RequestClass::PointToPoint { bundle: 1 }, 9.0),
            (RequestClass::Matrix { side: 2 }, 1.0),
        ]);
        let mut s = RequestStream::new(mix, &pool(16), 11, 0);
        let mut counts = [0u32; 2];
        for _ in 0..2000 {
            counts[s.next_request().0] += 1;
        }
        let frac = counts[0] as f64 / 2000.0;
        assert!((frac - 0.9).abs() < 0.05, "90/10 mix came out {frac:.3}");
    }

    #[test]
    fn hybrid_pacer_sustains_50k_per_second() {
        // 20 µs inter-arrival gaps are far below sleep granularity; the
        // pacer must still track the schedule. Warm up once, then measure
        // 2500 arrivals (50 ms of schedule). Tolerance is generous for
        // loaded CI machines: at least half the configured rate, and never
        // faster than the schedule allows.
        let paced_rate = |n: u32| {
            let gap = Duration::from_secs_f64(1.0 / 50_000.0);
            let start = Instant::now();
            for i in 1..=n {
                pace_until(start + gap * i);
            }
            n as f64 / start.elapsed().as_secs_f64()
        };
        paced_rate(500);
        let achieved = paced_rate(2_500);
        assert!(
            achieved >= 25_000.0,
            "hybrid pacer achieved only {achieved:.0} req/s of 50k"
        );
        assert!(
            achieved <= 51_000.0,
            "pacer ran ahead of its schedule: {achieved:.0} req/s"
        );
        // A past deadline returns immediately.
        let t = Instant::now();
        pace_until(t - Duration::from_millis(1));
        assert!(t.elapsed() < Duration::from_millis(50));
    }

    #[test]
    fn zipf_sampler_is_deterministic_skewed_and_in_bounds() {
        let zipf = ZipfSampler::new(100, 1.2);
        let mut a = ChaCha8Rng::seed_from_u64(9);
        let mut b = ChaCha8Rng::seed_from_u64(9);
        let xs: Vec<usize> = (0..5000).map(|_| zipf.sample(&mut a)).collect();
        let ys: Vec<usize> = (0..5000).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(xs, ys, "same seed must give the same stream");
        assert!(xs.iter().all(|&x| x < 100));
        // Rank 0 dominates under skew: more mass than a uniform share.
        let zeros = xs.iter().filter(|&&x| x == 0).count();
        assert!(zeros > 5000 / 100, "rank 0 drew only {zeros} of 5000");
        // s = 0 degenerates to (roughly) uniform: rank 0 is no longer
        // an order of magnitude above its uniform share.
        let uniform = ZipfSampler::new(100, 0.0);
        let mut r = ChaCha8Rng::seed_from_u64(9);
        let uz = (0..5000).filter(|_| uniform.sample(&mut r) == 0).count();
        assert!(uz < zeros, "s=0 must be less skewed than s=1.2");
    }

    /// A DCH server (one publication per batch) under manual coalescing.
    fn host() -> crate::server::ServerBuilder {
        RoadNetworkServer::builder()
            .algorithm(AlgorithmKind::Dch)
            .coalesce(CoalescePolicy::manual())
    }

    fn query_pool(g: &Graph) -> Vec<Query> {
        QuerySet::random(g, 64, 5).as_slice().to_vec()
    }

    #[test]
    fn batched_workloads_count_pairs_and_verify() {
        let g = grid(6, 6, WeightRange::new(1, 9), 2);
        for (class, pairs) in [
            (RequestClass::PointToPoint { bundle: 16 }, 16),
            (RequestClass::OneToMany { fanout: 8 }, 8),
            (RequestClass::Matrix { side: 4 }, 16),
        ] {
            let server = host().start(&g);
            let profile = LoadProfile {
                mix: RequestMix::single(class),
                clients: 2,
                update_rounds: 2,
                update_volume: 5,
                verify: true,
                ..LoadProfile::closed_loop(Duration::from_millis(40))
            };
            let report = run_load(&server, &profile, &query_pool(&g));
            server.shutdown();
            assert!(report.answered > 0, "{class:?} answered nothing");
            assert_eq!(report.answered_pairs, report.answered * pairs);
            assert_eq!(
                report.per_stage_pairs.iter().sum::<u64>(),
                report.answered_pairs
            );
            assert_eq!(report.verify_failures, 0, "{:?}", report.first_failure);
        }
    }

    #[test]
    fn hot_pairs_workload_serves_and_reports_cache_hits() {
        let g = grid(6, 6, WeightRange::new(1, 9), 4);
        let server = host()
            .result_cache(CacheConfig::with_capacity(512))
            .start(&g);
        let profile = LoadProfile {
            mix: RequestMix::single(RequestClass::HotPairs {
                universe: 64,
                zipf_s: 1.2,
            }),
            clients: 2,
            update_rounds: 2,
            update_volume: 4,
            ..LoadProfile::closed_loop(Duration::from_millis(40))
        };
        let report = run_load(&server, &profile, &query_pool(&g));
        server.shutdown();
        assert!(report.answered_pairs > 0);
        let cache = report.cache.expect("cache-enabled server must report");
        assert_eq!(cache.lookups(), report.answered_pairs);
        assert!(
            cache.hits > 0,
            "skewed traffic against a cache must produce hits"
        );
        assert!(cache.hit_rate() > 0.0 && cache.hit_rate() <= 1.0);
    }

    #[test]
    fn closed_loop_run_counts_queries_rounds_and_publications() {
        let g = grid(6, 6, WeightRange::new(1, 9), 1);
        let server = host().start(&g);
        // A publication from before the run must not be counted as the
        // run's.
        server.feed().flush().wait_applied();
        let profile = LoadProfile {
            update_rounds: 2,
            update_volume: 5,
            ..LoadProfile::closed_loop(Duration::from_millis(50))
        };
        assert_eq!(profile.update_interval(), Duration::from_millis(25));
        let report = run_load(&server, &profile, &query_pool(&g));
        server.shutdown();
        assert_eq!(report.target, "DCH");
        assert!(report.answered > 0, "clients answered no queries");
        assert_eq!(report.offered, report.answered);
        assert!(report.pairs_per_second() > 0.0);
        assert!(report.elapsed >= profile.duration);
        assert_eq!(report.timelines.len(), 2);
        assert_eq!(report.publications.len(), 2);
        assert!(report.mean_update_time() > 0.0);
        assert!(report.final_stage_query.mean > 0.0);
        assert!(report.final_stage_query.variance >= 0.0);
        assert_eq!(report.latency.count(), report.answered);
        assert_eq!(report.max_queue_depth, 0);
        assert_eq!(report.verify_failures, 0);
    }
}
