//! Concurrency regression test for the `DistanceService` ticket contract:
//! `BatchTicket` is `Sync`, so N threads may hammer `try_wait` /
//! `wait_timeout` on one shared ticket while the snapshot publisher keeps
//! advancing under the workers. The service answers each batch **exactly
//! once**; the ticket caches that answer, so every poller — and every
//! later wait variant, including `wait_timeout` after an answered
//! `try_wait` — observes the *same* `BatchAnswer`.

use htsp::baselines::DchBaseline;
use htsp::graph::{
    gen, Dist, Graph, IndexMaintainer, Query, QuerySession, QuerySet, QueryView, SnapshotPublisher,
    VertexId,
};
use htsp::search::dijkstra_distance;
use htsp::throughput::{
    AdmissionPolicy, BatchAnswer, BatchResult, DistanceService, LatencyHistogram, QueryBatch,
    SubmitOutcome, TelemetryHub,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A `QueryView` decorator that makes every query take at least `delay`
/// and counts executed queries — the deterministic "overloaded server" for
/// the admission-policy tests below.
struct SlowView {
    inner: Arc<dyn QueryView>,
    delay: Duration,
    executed: Arc<AtomicU64>,
}

struct SlowSession<'a> {
    inner: Box<dyn QuerySession + 'a>,
    delay: Duration,
    executed: &'a AtomicU64,
}

impl QuerySession for SlowSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        self.executed.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        self.inner.distance(s, t)
    }
}

impl QueryView for SlowView {
    fn algorithm(&self) -> &'static str {
        "slow"
    }
    fn stage(&self) -> usize {
        self.inner.stage()
    }
    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.executed.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        self.inner.distance(s, t)
    }
    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(SlowSession {
            inner: self.inner.session(),
            delay: self.delay,
            executed: &self.executed,
        })
    }
    fn graph(&self) -> &Graph {
        self.inner.graph()
    }
}

/// One worker over a view where every query sleeps `delay`.
fn slow_service(
    g: &Graph,
    delay: Duration,
    policy: AdmissionPolicy,
) -> (DistanceService, Arc<AtomicU64>) {
    let idx = DchBaseline::build(g);
    let executed = Arc::new(AtomicU64::new(0));
    let view: Arc<dyn QueryView> = Arc::new(SlowView {
        inner: idx.current_view(),
        delay,
        executed: Arc::clone(&executed),
    });
    let publisher = Arc::new(SnapshotPublisher::new(view));
    let service = DistanceService::start(publisher, 1, None, policy, Arc::new(TelemetryHub::new()));
    (service, executed)
}

fn answers_equal(a: &BatchAnswer, b: &BatchAnswer) -> bool {
    a.distances == b.distances
        && a.snapshot_version == b.snapshot_version
        && a.stage == b.stage
        && a.algorithm == b.algorithm
}

#[test]
fn shared_tickets_are_answered_once_under_concurrent_polling() {
    let g = gen::grid(8, 8, gen::WeightRange::new(1, 20), 5);
    let idx = DchBaseline::build(&g);
    let view = idx.current_view();
    let publisher = Arc::new(SnapshotPublisher::new(Arc::clone(&view)));
    let service = DistanceService::start(
        Arc::clone(&publisher),
        2,
        None,
        AdmissionPolicy::Block,
        Arc::new(TelemetryHub::new()),
    );
    let queries = QuerySet::random(&g, 6, 13);

    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        // The publisher keeps advancing (same machinery republished, so
        // answers stay comparable against one graph) — workers re-pin
        // between batches the whole time.
        let publisher_thread = {
            let stop = &stop;
            let publisher = &publisher;
            let view = &view;
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    publisher.publish(Arc::clone(view));
                    std::thread::yield_now();
                }
            })
        };

        for round in 0..24 {
            let ticket = service.submit(QueryBatch::PointToPoint(queries.as_slice().to_vec()));
            // 4 threads race on the one shared ticket, mixing the two
            // polling variants; each returns the answer it observed.
            // An inner scope bounds the shared borrows so the consuming
            // `wait()` below can still move the ticket.
            let observed: Vec<BatchAnswer> = std::thread::scope(|polling| {
                let ticket = &ticket;
                let polls: Vec<_> = (0..4)
                    .map(|p| {
                        polling.spawn(move || loop {
                            let got = if (round + p) % 2 == 0 {
                                ticket.try_wait()
                            } else {
                                ticket.wait_timeout(Duration::from_micros(200))
                            };
                            if let Some(answer) = got {
                                return answer;
                            }
                        })
                    })
                    .collect();
                polls
                    .into_iter()
                    .map(|h| h.join().expect("poller panicked"))
                    .collect()
            });
            // One answer, observed identically by every poller.
            for other in &observed[1..] {
                assert!(
                    answers_equal(&observed[0], other),
                    "two pollers observed different answers for one ticket"
                );
            }
            // wait_timeout *after* the answered try_wait polls above must
            // return that same answer (the regression this test pins).
            let replay = ticket
                .wait_timeout(Duration::from_millis(1))
                .expect("answered ticket must keep its answer");
            assert!(answers_equal(&observed[0], &replay));
            let replay = ticket.try_wait().expect("cached answer");
            assert!(answers_equal(&observed[0], &replay));
            // And the consuming wait agrees too.
            let last = ticket.wait();
            assert!(answers_equal(&observed[0], &last));
            // The answer is correct (the graph never changes, only the
            // version advances) and tagged with a real version.
            for (q, &d) in queries.iter().zip(&last.distances) {
                assert_eq!(d, dijkstra_distance(&g, q.source, q.target));
            }
            assert!(last.snapshot_version <= publisher.version());
        }
        stop.store(true, Ordering::Relaxed);
        publisher_thread.join().expect("publisher thread panicked");
    });
    service.shutdown();
}

#[test]
fn many_threads_submit_and_poll_disjoint_tickets() {
    // Ticket independence under load: 8 submitter threads each fire 16
    // batches, polling each to completion; answers never leak between
    // tickets (each batch queries a distinct pair, so a crossed answer
    // would be visible as a wrong distance).
    let g = gen::grid(7, 7, gen::WeightRange::new(1, 15), 3);
    let idx = DchBaseline::build(&g);
    let publisher = Arc::new(SnapshotPublisher::new(idx.current_view()));
    let service = DistanceService::start(
        publisher,
        3,
        None,
        AdmissionPolicy::Block,
        Arc::new(TelemetryHub::new()),
    );
    let queries = QuerySet::random(&g, 8 * 16, 29);

    std::thread::scope(|scope| {
        for w in 0..8usize {
            let service = &service;
            let queries = queries.as_slice();
            let g = &g;
            scope.spawn(move || {
                for k in 0..16 {
                    let q: Query = queries[w * 16 + k];
                    let ticket = service.submit(QueryBatch::PointToPoint(vec![q]));
                    let answer = loop {
                        if let Some(a) = ticket.wait_timeout(Duration::from_millis(5)) {
                            break a;
                        }
                    };
                    assert_eq!(
                        answer.distances,
                        vec![dijkstra_distance(g, q.source, q.target)],
                        "ticket received another batch's answer"
                    );
                }
            });
        }
    });
    service.shutdown();
}

#[test]
fn shed_keeps_p95_bounded_where_block_lets_it_diverge() {
    // Deterministic overload: every query sleeps 1 ms on a single worker,
    // and a burst of 300 single-pair batches arrives at one instant. Under
    // Block the queue absorbs all 300 and the tail waits ~300 ms; under
    // Shed{max_depth: 4} at most ~5 requests are ever in flight, so every
    // *accepted* request answers within a few queue drains — the rest shed.
    let g = gen::grid(6, 6, gen::WeightRange::new(1, 10), 3);
    let queries = QuerySet::random(&g, 300, 17);
    let delay = Duration::from_millis(1);

    let run = |policy: AdmissionPolicy| {
        let (service, _executed) = slow_service(&g, delay, policy);
        let burst_at = Instant::now();
        let mut accepted = Vec::new();
        let mut shed = 0u64;
        for q in &queries {
            match service.try_submit_at(QueryBatch::PointToPoint(vec![*q]), burst_at) {
                SubmitOutcome::Accepted(t) => accepted.push(t),
                SubmitOutcome::Shed => shed += 1,
                SubmitOutcome::Expired => panic!("no deadline policy in this test"),
            }
        }
        let mut hist = LatencyHistogram::new();
        for t in accepted {
            let answer = t.wait();
            hist.record(answer.answered_at.saturating_duration_since(burst_at));
        }
        let report = service.shutdown();
        assert_eq!(report.drained + report.abandoned, 0, "all tickets resolved");
        (hist, shed)
    };

    let (block_hist, block_shed) = run(AdmissionPolicy::Block);
    let (shed_hist, shed_shed) = run(AdmissionPolicy::Shed { max_depth: 4 });

    assert_eq!(block_shed, 0, "Block never sheds");
    assert!(shed_shed > 0, "Shed must reject most of a 300-deep burst");
    assert_eq!(block_hist.count(), 300);
    assert_eq!(shed_hist.count() + shed_shed, 300);

    let block_p95 = block_hist.quantile(0.95);
    let shed_p95 = shed_hist.quantile(0.95);
    // Block charges the burst's queueing delay to the tail: with 300
    // requests at >= 1 ms each, p95 sits past the ~285th drain.
    assert!(
        block_p95 >= Duration::from_millis(100),
        "Block p95 {block_p95:?} should reflect the full backlog"
    );
    // Shed's p95 is bounded by (max_depth + 1) queue drains plus
    // scheduling noise — far below the Block tail.
    assert!(
        shed_p95 < block_p95 / 2,
        "Shed p95 {shed_p95:?} must stay well under Block p95 {block_p95:?}"
    );
}

#[test]
fn deadline_expired_jobs_are_never_executed() {
    let g = gen::grid(5, 5, gen::WeightRange::new(1, 10), 7);
    let queries = QuerySet::random(&g, 8, 23);
    // Every query holds the single worker 60 ms; budget is 20 ms.
    let (service, executed) = slow_service(
        &g,
        Duration::from_millis(60),
        AdmissionPolicy::Deadline {
            budget: Duration::from_millis(20),
        },
    );

    // Job A is accepted fresh and starts executing immediately.
    let a = service
        .try_submit(QueryBatch::PointToPoint(vec![queries.as_slice()[0]]))
        .expect_accepted();
    // While the worker is busy with A, submit fresh jobs: accepted (their
    // 20 ms deadlines are in the future) but doomed to expire in the queue
    // behind A's 60 ms execution.
    std::thread::sleep(Duration::from_millis(5));
    let doomed: Vec<_> = queries.as_slice()[1..]
        .iter()
        .map(|&q| {
            service
                .try_submit(QueryBatch::PointToPoint(vec![q]))
                .expect_accepted()
        })
        .collect();
    // And one already-stale job: expired at submit, never even enqueued.
    let stale = service.try_submit_at(
        QueryBatch::PointToPoint(vec![queries.as_slice()[1]]),
        Instant::now() - Duration::from_millis(50),
    );
    assert!(matches!(stale, SubmitOutcome::Expired));

    assert!(a.wait_result().answered().is_some(), "fresh job answers");
    for t in doomed {
        assert!(
            matches!(t.wait_result(), BatchResult::Expired),
            "jobs stuck behind a 60 ms execution must expire in the queue"
        );
    }
    let stats = service.stats();
    assert_eq!(stats.expired_at_submit, 1);
    assert_eq!(stats.expired_in_queue, 7);
    // The proof that expiry happens *before* execution: only job A's single
    // query ever reached the view.
    assert_eq!(executed.load(Ordering::Relaxed), 1);
    service.shutdown();
}

#[test]
fn every_accepted_ticket_resolves_exactly_once_under_shedding() {
    // 4 submitter threads race 50 batches each into a depth-8 queue; every
    // accepted ticket must resolve to exactly one Answered result, and the
    // books must balance: accepted = answered, submitted = accepted + shed.
    let g = gen::grid(6, 6, gen::WeightRange::new(1, 10), 11);
    let queries = QuerySet::random(&g, 200, 31);
    let (service, _executed) = slow_service(
        &g,
        Duration::from_micros(200),
        AdmissionPolicy::Shed { max_depth: 8 },
    );

    let answered: u64 = std::thread::scope(|scope| {
        (0..4usize)
            .map(|w| {
                let service = &service;
                let queries = queries.as_slice();
                let g = &g;
                scope.spawn(move || {
                    let mut answered = 0u64;
                    for k in 0..50 {
                        let q = queries[w * 50 + k];
                        match service.try_submit(QueryBatch::PointToPoint(vec![q])) {
                            SubmitOutcome::Accepted(t) => {
                                let answer = match t.wait_result() {
                                    BatchResult::Answered(a) => a,
                                    other => panic!("accepted ticket resolved as {other:?}"),
                                };
                                assert_eq!(
                                    answer.distances,
                                    vec![dijkstra_distance(g, q.source, q.target)]
                                );
                                // The ticket keeps its one answer.
                                assert!(t.try_wait_result().is_some());
                                answered += 1;
                            }
                            SubmitOutcome::Shed => {}
                            SubmitOutcome::Expired => panic!("no deadline policy here"),
                        }
                    }
                    answered
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("submitter panicked"))
            .sum()
    });

    let stats = service.stats();
    assert_eq!(stats.submitted, 200);
    assert_eq!(stats.accepted, answered);
    assert_eq!(stats.answered, answered);
    assert_eq!(stats.shed, 200 - answered);
    let report = service.shutdown();
    assert_eq!(report.drained + report.abandoned, 0);
}
