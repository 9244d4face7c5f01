//! The partition-sharded server: a [`RoadNetworkServer`] built with
//! [`ServerBuilder::shards`](crate::ServerBuilder::shards) hosts a fleet
//! maintainer instead of one index.
//!
//! The build partitions the graph with region growing, builds the boundary
//! [`OverlayMaintainer`] and one shard server per partition on the
//! partition's induced subgraph (each with its own maintenance thread and a
//! manual coalesce policy). From then on the fleet is an ordinary server:
//! its one [`UpdateFeed`](crate::UpdateFeed) coalesces updates, its
//! [`UpdateTicket`](crate::UpdateTicket)s acknowledge them, and its
//! publisher, result cache, [`DistanceService`](crate::DistanceService) and
//! [`run_load`](crate::run_load) serve the [`FleetView`] it publishes.
//!
//! Per batch, the fleet maintainer's `apply_batch`:
//!
//! 1. **routes** the batch over the partitions, writing it into the
//!    overlay's subgraph copies, and hands every intra-partition update to
//!    the one shard owning it (translated to that shard's local edge id),
//!    forcing the shard's batch boundary, so all touched shards repair
//!    their small indexes *in parallel* on their own maintenance threads;
//! 2. **repairs the overlay** on the fleet's maintenance thread meanwhile:
//!    each affected partition's boundary-first hierarchy, then the overlay
//!    edge weights its shortcut changes (and the inter-partition edge
//!    changes) imply;
//! 3. **waits** for every touched shard's full repair, then publishes one
//!    [`FleetView`] over the graph the feed handed it.
//!
//! A ticket's `wait_visible` therefore returns once every shard and the
//! overlay serve the update. Everything is simulated in-process: "shards"
//! are threads, not machines.

use crate::registry::{AlgorithmKind, BuildParams};
use crate::router::{FleetTelemetry, FleetTopology, FleetView};
use crate::server::{register_build_telemetry, RoadNetworkServer};
use crate::telemetry::{intern, TelemetryHub};
use htsp_graph::{
    Graph, IndexMaintainer, QueryView, SnapshotPublisher, UpdateBatch, UpdateTimeline, WorkerPool,
};
use htsp_partition::partition_region_growing;
use htsp_psp::OverlayMaintainer;
use std::sync::Arc;
use std::time::Instant;

/// The index machinery of a sharded server: the boundary overlay plus one
/// shard server per partition. See the [module docs](self).
pub(crate) struct FleetMaintainer {
    name: &'static str,
    core: OverlayMaintainer,
    shards: Vec<RoadNetworkServer>,
    topo: Arc<FleetTopology>,
    telemetry: Arc<FleetTelemetry>,
}

impl FleetMaintainer {
    /// Partitions `graph` into `k` shards and builds the overlay and one
    /// `kind` server per shard (its parameters scaled by
    /// [`BuildParams::for_shard`]), registering the `htsp_build_*` and
    /// `htsp_fleet_*` series in `hub`.
    pub(crate) fn build(
        graph: &Graph,
        k: usize,
        kind: AlgorithmKind,
        params: &BuildParams,
        hub: &TelemetryHub,
    ) -> Self {
        let partition = partition_region_growing(graph, k, params.seed);
        // One pool drives the whole fleet build: the overlay's per-partition
        // hierarchies, then the shard indexes (one task per shard). Each
        // shard's index depends only on its own subgraph, so concurrent
        // construction yields exactly the indexes a sequential loop builds.
        let pool = WorkerPool::new(params.threads());
        let t = Instant::now();
        let core = OverlayMaintainer::build(graph.clone(), partition, &pool);
        let subgraphs = &core.partitioned.subgraphs;
        let maintainers = pool.run("fleet_shard_build", subgraphs.len(), |i| {
            let sub = &subgraphs[i];
            kind.build(&sub.graph, &params.for_shard(sub.graph.num_vertices()))
        });
        register_build_telemetry(hub, kind.name(), &pool, t.elapsed().as_micros() as u64);
        let shards: Vec<RoadNetworkServer> = maintainers
            .into_iter()
            .zip(subgraphs)
            .map(|(m, sub)| RoadNetworkServer::host(&sub.graph, m))
            .collect();
        FleetMaintainer {
            name: intern(&format!("fleet({}x {})", shards.len(), kind.name())),
            topo: Arc::new(FleetTopology::build(&core)),
            telemetry: Arc::new(FleetTelemetry::register(hub, &core)),
            core,
            shards,
        }
    }
}

impl IndexMaintainer for FleetMaintainer {
    /// `fleet(kx KIND)`, e.g. `fleet(4x DCH)`.
    fn name(&self) -> &'static str {
        self.name
    }

    fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: &UpdateBatch,
        publisher: &SnapshotPublisher,
    ) -> UpdateTimeline {
        let t0 = Instant::now();
        let partition = &self.core.partitioned.partition;
        for u in batch.iter() {
            let (a, b) = graph.edge_endpoints(u.edge);
            if partition.is_boundary(a) || partition.is_boundary(b) {
                self.telemetry.boundary_updates.inc();
            }
        }
        // Fan out to the touched shards first so their maintenance threads
        // repair in parallel with the overlay work below.
        let routed = self.core.route(graph, batch);
        let flushes: Vec<_> = routed
            .affected_partitions()
            .into_iter()
            .map(|i| {
                let feed = self.shards[i].feed();
                let updates = routed.intra[i].as_slice();
                feed.submit_all(updates.iter().copied());
                self.telemetry.shards[i]
                    .updates_routed
                    .add(updates.len() as u64);
                (i, updates.len(), Instant::now(), feed.flush())
            })
            .collect();
        self.core.repair(&routed);
        let mut timeline = UpdateTimeline::default();
        timeline.push("U1: route + overlay repair", t0.elapsed());

        let t1 = Instant::now();
        for (i, routed_updates, routed_at, flush) in flushes {
            let shard = &self.telemetry.shards[i];
            flush.wait_visible();
            let lag = routed_at.elapsed();
            for _ in 0..routed_updates {
                shard.lags.record(lag);
            }
            let outcome = flush.wait_applied();
            shard.cow_chunks.add(outcome.cow.chunks_cloned);
            shard.cow_bytes.add(outcome.cow.bytes_cloned);
            shard.batches.inc();
        }
        self.telemetry.fleet_batches.inc();
        publisher.publish(self.current_view());
        timeline.push("U2: shard repair", t1.elapsed());
        timeline
    }

    fn current_view(&self) -> Arc<dyn QueryView> {
        Arc::new(FleetView {
            algorithm: self.name,
            graph: self.core.partitioned.graph.clone(),
            overlay: Arc::clone(&self.core.overlay),
            shards: self.shards.iter().map(|s| s.snapshot()).collect(),
            topo: Arc::clone(&self.topo),
            telemetry: Arc::clone(&self.telemetry),
        })
    }

    /// Sum of the shard indexes' sizes.
    fn index_size_bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.with_index(|m| m.index_size_bytes()))
            .sum()
    }
}
