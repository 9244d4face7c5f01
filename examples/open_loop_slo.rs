//! Open-loop load & SLOs: measure a serving tier the way real traffic
//! arrives.
//!
//! Builds a DCH index over a synthetic grid, measures its closed-loop
//! capacity, then offers the same seeded request stream as Poisson arrivals
//! at two rates — comfortably below saturation and well above it — under
//! the three admission policies, and prints the latency tails side by side.
//! Closed loop and Poisson are two values of one `LoadProfile` field. The
//! point the numbers make: a closed-loop run can never show this cliff (it
//! self-throttles), and above saturation the unbounded Block queue grows
//! without limit while Shed keeps the tail flat by rejecting the excess
//! explicitly.
//!
//! Run with: `cargo run --release --example open_loop_slo`

use htsp::graph::{gen, Query, QuerySet};
use htsp::throughput::{AdmissionPolicy, AlgorithmKind, BuildParams, RequestClass, RequestMix};
use htsp::{run_load, CoalescePolicy, LoadProfile, RoadNetworkServer, SloTarget};
use std::time::Duration;

fn mix() -> RequestMix {
    RequestMix::new(vec![
        (RequestClass::PointToPoint { bundle: 512 }, 3.0),
        (RequestClass::OneToMany { fanout: 512 }, 1.0),
        (RequestClass::Matrix { side: 24 }, 1.0),
        (
            RequestClass::HotPairs {
                universe: 32,
                zipf_s: 1.1,
            },
            1.0,
        ),
    ])
}

fn main() {
    let road = gen::grid(24, 24, gen::WeightRange::new(1, 60), 7);
    let pool: Vec<Query> = QuerySet::random(&road, 128, 11).as_slice().to_vec();
    // The admission policy is fixed when a server starts, so each run hosts
    // the same index (handed back by `shutdown`) under a fresh service.
    let mut index = Some(AlgorithmKind::Dch.build(&road, &BuildParams::default()));
    let mut run = |profile: &LoadProfile, policy| {
        let server = RoadNetworkServer::builder()
            .maintainer(index.take().expect("handed back by the previous run"))
            .coalesce(CoalescePolicy::manual())
            .query_workers(2)
            .admission(policy)
            .start(&road);
        let report = run_load(&server, profile, &pool);
        index = Some(server.shutdown());
        report
    };

    // Closed-loop calibration: two clients on their own sessions for 200 ms
    // estimate the service rate; then offer half and triple it open-loop.
    let closed = LoadProfile {
        mix: mix(),
        clients: 2,
        seed: 7,
        ..LoadProfile::closed_loop(Duration::from_millis(200))
    };
    let calibration = run(&closed, AdmissionPolicy::Block);
    let capacity = calibration.answered as f64 / calibration.elapsed.as_secs_f64();
    println!("closed-loop capacity ~{capacity:.0} requests/s");
    let below = capacity * 0.5;
    let above = capacity * 3.0;

    println!("open-loop Poisson arrivals, p95 SLO = 50 ms, 2 workers\n");
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>8} {:>8}  SLO",
        "run", "offered/s", "p95 ms", "p99 ms", "shed", "queue"
    );
    for (label, rate, policy) in [
        ("below knee, Block", below, AdmissionPolicy::Block),
        (
            "below knee, Shed(16)",
            below,
            AdmissionPolicy::Shed { max_depth: 16 },
        ),
        ("above knee, Block", above, AdmissionPolicy::Block),
        (
            "above knee, Shed(16)",
            above,
            AdmissionPolicy::Shed { max_depth: 16 },
        ),
        (
            "above knee, Deadline(50ms)",
            above,
            AdmissionPolicy::Deadline {
                budget: Duration::from_millis(50),
            },
        ),
    ] {
        let profile = LoadProfile {
            mix: mix(),
            ..LoadProfile::poisson(
                rate,
                Duration::from_millis(400),
                SloTarget::p95(Duration::from_millis(50)),
            )
        };
        let r = run(&profile, policy);
        println!(
            "{label:<26} {rate:>10.0} {:>10.2} {:>10.2} {:>8} {:>8}  {}",
            r.latency.quantile(0.95).as_secs_f64() * 1e3,
            r.latency.quantile(0.99).as_secs_f64() * 1e3,
            r.shed + r.expired,
            r.max_queue_depth,
            if r.verdict.passed { "pass" } else { "FAIL" },
        );
    }
    println!(
        "\nAbove the knee the Block queue absorbs everything and the tail diverges;\n\
         Shed bounds the queue (tail stays near the SLO, excess is rejected at\n\
         submit), and Deadline drops stale work before wasting a worker on it."
    );
}
