//! # htsp-throughput
//!
//! The HTSP serving stack, the system model (§II), and the one load driver.
//!
//! The **model** ([`model`]) is two pure functions over measured inputs:
//!
//! * the **Lemma 1 bound** ([`lemma1_bound`]) on the maximum average
//!   throughput `λ*_q` (an M/G/1 response-time constraint combined with the
//!   update-installability constraint `t_u < δt`), and
//! * the **staged throughput** ([`staged_throughput`]): the number of queries
//!   the system can serve per second of the update interval when each
//!   maintenance stage releases a faster query stage (the yellow area of
//!   Figure 1), which is what the multi-stage indexes improve.
//!
//! The **load driver** ([`run_load`]) measures: client threads put requests
//! on a [`RoadNetworkServer`] (one index, or a sharded fleet) under one
//! [`ArrivalProcess`] — closed loop on pinned sessions, or
//! Poisson / constant arrivals through the target's [`DistanceService`] —
//! beside rounds of `|U|` updates every `δt`, and one [`LoadReport`] carries
//! the latency tails, the books, the stages that served, and the model's
//! inputs. See the [`load`] module docs.
//!
//! The **distance service** ([`DistanceService`]) is the batch-oriented
//! serving front-end: clients submit [`QueryBatch`] requests into a queue;
//! worker threads answer them through per-thread
//! [`QuerySession`](htsp_graph::QuerySession)s pinned to the currently
//! published snapshot, re-pinning whenever the maintainer publishes a
//! fresher stage.
//!
//! The **result cache** ([`DistanceCache`]) memoizes answers for skewed
//! (hot-pair) traffic without ever serving a stale one: entries are tagged
//! with the snapshot version they were computed against and every
//! publication invalidates by epoch. It is config-gated off by default
//! ([`ServerBuilder::result_cache`] enables it); [`RequestClass::HotPairs`]
//! is the Zipf-skewed request class that measures it.
//!
//! The **sharded serving tier** is a server too:
//! [`ServerBuilder::shards`] partitions the network, runs one
//! [`RoadNetworkServer`] per shard behind a boundary-overlay index the
//! server's own feed keeps repaired, and publishes one [`FleetView`] per
//! batch, whose sessions answer cross-shard queries exactly by
//! concatenating shard boundary fans through one multi-source overlay
//! search — see the [`fleet`] and [`router`] module docs.
//!
//! The **telemetry hub** ([`TelemetryHub`]) is the unified observability
//! layer over all of the above: a metrics registry (counters, gauges,
//! labeled latency histograms on the single [`LatencyHistogram`] quantile
//! type) plus a bounded span recorder that follows each update and each
//! query batch by trace id across every pipeline stage, exporting
//! Prometheus text exposition and Chrome trace-event JSON — see the
//! [`telemetry`] module docs.

#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod config;
pub mod feed;
pub mod fleet;
pub mod load;
pub mod model;
pub mod registry;
pub mod router;
pub mod server;
pub mod service;
pub mod slo;
pub mod telemetry;

pub use admission::{AdmissionPolicy, ServiceStats, ShutdownReport, SubmitOutcome};
pub use cache::{CacheStats, CachedSession, DistanceCache};
pub use config::CacheConfig;
pub use feed::{CoalescePolicy, FeedStats, UpdateFeed, UpdateOutcome, UpdateTicket, Visibility};
pub use load::{
    run_load, ArrivalProcess, ClassReport, LoadProfile, LoadReport, RequestClass, RequestMix,
    RequestStream, ZipfSampler,
};
pub use model::{lemma1_bound, staged_throughput, QueryStats};
pub use registry::{AlgorithmKind, BuildParams};
pub use router::FleetView;
pub use server::{RoadNetworkServer, ServerBuilder, STORAGE_BYTES_METRIC};
pub use service::{BatchAnswer, BatchResult, BatchTicket, DistanceService, QueryBatch};
pub use slo::{LatencyHistogram, SloCheck, SloTarget, SloVerdict};
pub use telemetry::{
    intern, validate_json, validate_prometheus, Counter, Gauge, Histogram, Reporter, SpanGuard,
    TelemetryHub, TelemetrySnapshot,
};
