//! The query side of a sharded server: the [`FleetView`] a fleet publishes
//! once per batch, and the fleet session that routes each query over the
//! shards and the boundary overlay.
//!
//! A [`FleetView`] holds the global graph the batch was applied to, the
//! overlay graph repaired for it, and one pinned view per shard, all at the
//! same weights, so any combination of them answers exactly on one set of
//! edge weights. The [`fleet`](crate::fleet) module docs describe how a
//! batch produces one.
//!
//! # Query path
//!
//! A fleet session serves one view. Point-to-point queries classify as
//! *local* (both endpoints in one shard) or *cross-shard*. Local queries go
//! straight to the owning shard's session — but a globally shortest path may
//! leave the shard and come back, so the session always also evaluates the
//! boundary detour and takes the minimum. Cross-shard queries concatenate
//! source-side boundary distances (the shard session's truncated one-to-many),
//! one seeded multi-source Dijkstra over the overlay graph (which preserves
//! global boundary-to-boundary distances), and target-side boundary
//! distances. One-to-many and matrix queries fan per-shard answers out of the
//! same three ingredients, sharing the source-side fan and the overlay pass
//! across all targets.

use crate::telemetry::{Counter, Gauge, Histogram, TelemetryHub};
use htsp_graph::{Dist, Graph, QuerySession, QueryView, VertexId, INF};
use htsp_psp::{OverlayGraph, OverlayMaintainer};
use htsp_search::{dijkstra_multi_source_ws, DijkstraWorkspace};
use std::sync::Arc;

/// Immutable fleet topology fixed at build time: who owns which vertex, the
/// id translations, and the boundary alignment between shards and overlay.
pub(crate) struct FleetTopology {
    /// Global vertex → owning shard.
    shard_of: Vec<u32>,
    /// Global vertex → its local id inside the owning shard.
    local_id: Vec<VertexId>,
    /// Per shard: local ids of its boundary vertices.
    boundary_local: Vec<Arc<[VertexId]>>,
    /// Per shard: overlay-local ids of the same boundary vertices, aligned
    /// index-by-index with `boundary_local`.
    boundary_overlay: Vec<Vec<VertexId>>,
}

impl FleetTopology {
    pub(crate) fn build(core: &OverlayMaintainer) -> Self {
        let p = &core.partitioned;
        let n = p.graph.num_vertices();
        let mut shard_of = vec![0u32; n];
        let mut local_id = vec![VertexId(0); n];
        for (i, sub) in p.subgraphs.iter().enumerate() {
            for (li, &g) in sub.global_of.iter().enumerate() {
                shard_of[g.index()] = i as u32;
                local_id[g.index()] = VertexId::from_index(li);
            }
        }
        let boundary_overlay = p
            .subgraphs
            .iter()
            .map(|sub| {
                sub.boundary_local
                    .iter()
                    .map(|&b| {
                        core.overlay
                            .to_local(sub.to_global(b))
                            .expect("boundary vertex must be an overlay vertex")
                    })
                    .collect()
            })
            .collect();
        FleetTopology {
            shard_of,
            local_id,
            boundary_local: p
                .subgraphs
                .iter()
                .map(|s| s.boundary_local.clone())
                .collect(),
            boundary_overlay,
        }
    }

    #[inline]
    fn shard(&self, v: VertexId) -> usize {
        self.shard_of[v.index()] as usize
    }
}

/// Per-shard telemetry counters, written by sessions and the fleet
/// maintainer.
pub(crate) struct ShardTelemetry {
    pub local_queries: Counter,
    pub cross_queries: Counter,
    pub updates_routed: Counter,
    pub batches: Counter,
    /// Routing-to-visible lag of every update routed to this shard.
    pub lags: Histogram,
    pub cow_chunks: Counter,
    pub cow_bytes: Counter,
}

/// Fleet-wide telemetry, registered in the server's hub as the
/// `htsp_fleet_*` series (per-shard series labeled `shard="i"`).
pub(crate) struct FleetTelemetry {
    pub shards: Vec<ShardTelemetry>,
    pub boundary_updates: Counter,
    pub fleet_batches: Counter,
}

impl FleetTelemetry {
    /// Creates the handles of a `core.partitioned`-shaped fleet and
    /// registers them in `hub`, with the overlay's edge count and the
    /// boundary vertex count as gauges set once.
    pub(crate) fn register(hub: &TelemetryHub, core: &OverlayMaintainer) -> Self {
        let telemetry = FleetTelemetry {
            shards: core
                .partitioned
                .subgraphs
                .iter()
                .map(|_| ShardTelemetry {
                    local_queries: Counter::new(),
                    cross_queries: Counter::new(),
                    updates_routed: Counter::new(),
                    batches: Counter::new(),
                    lags: Histogram::new(),
                    cow_chunks: Counter::new(),
                    cow_bytes: Counter::new(),
                })
                .collect(),
            boundary_updates: Counter::new(),
            fleet_batches: Counter::new(),
        };
        for (i, s) in telemetry.shards.iter().enumerate() {
            let shard = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", &shard)];
            hub.register_counter("htsp_fleet_local_queries_total", labels, &s.local_queries);
            hub.register_counter("htsp_fleet_cross_queries_total", labels, &s.cross_queries);
            hub.register_counter("htsp_fleet_updates_routed_total", labels, &s.updates_routed);
            hub.register_counter("htsp_fleet_shard_batches_total", labels, &s.batches);
            hub.register_counter("htsp_fleet_cow_chunks_total", labels, &s.cow_chunks);
            hub.register_counter("htsp_fleet_cow_bytes_total", labels, &s.cow_bytes);
            hub.register_histogram("htsp_fleet_visibility_lag_seconds", labels, &s.lags);
        }
        let no_labels: &[(&str, &str)] = &[];
        hub.register_counter(
            "htsp_fleet_boundary_updates_total",
            no_labels,
            &telemetry.boundary_updates,
        );
        hub.register_counter(
            "htsp_fleet_epochs_total",
            no_labels,
            &telemetry.fleet_batches,
        );
        for (name, value) in [
            ("htsp_fleet_overlay_edges", core.overlay.graph.num_edges()),
            ("htsp_fleet_boundary_vertices", core.overlay.num_vertices()),
        ] {
            let gauge = Gauge::new();
            gauge.set(value as u64);
            hub.register_gauge(name, no_labels, &gauge);
        }
        telemetry
    }
}

/// One published fleet snapshot: the global graph, the overlay and one
/// pinned view per shard, all at the weights of the same batch. Its
/// sessions answer over *global* vertex ids; see the [module docs](self)
/// for how they route a query.
pub struct FleetView {
    pub(crate) algorithm: &'static str,
    pub(crate) graph: Graph,
    pub(crate) overlay: Arc<OverlayGraph>,
    pub(crate) shards: Vec<Arc<dyn QueryView>>,
    pub(crate) topo: Arc<FleetTopology>,
    pub(crate) telemetry: Arc<FleetTelemetry>,
}

impl QueryView for FleetView {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// A fleet publishes only fully repaired shard views.
    fn stage(&self) -> usize {
        0
    }

    fn distance(&self, s: VertexId, t: VertexId) -> Dist {
        self.session().distance(s, t)
    }

    fn session(&self) -> Box<dyn QuerySession + '_> {
        Box::new(FleetSession {
            view: self,
            ws: DijkstraWorkspace::new(self.overlay.num_vertices()),
        })
    }

    fn graph(&self) -> &Graph {
        &self.graph
    }
}

/// A query session on one [`FleetView`]; see the [module docs](self) for the
/// local vs cross-shard query path.
pub(crate) struct FleetSession<'a> {
    view: &'a FleetView,
    ws: DijkstraWorkspace,
}

impl<'a> FleetSession<'a> {
    fn shard_session(&self, i: usize) -> Box<dyn QuerySession + 'a> {
        self.view.shards[i].session()
    }

    fn boundary(&self, i: usize) -> &'a [VertexId] {
        &self.view.topo.boundary_local[i]
    }

    /// Seeds the overlay with the source side's boundary distances and runs
    /// one multi-source Dijkstra; afterwards `ws.distance(overlay_v)` holds
    /// `min_b (d_src(s, b) + d_overlay(b, overlay_v))`.
    fn run_overlay(&mut self, src_shard: usize, ds: &[Dist]) {
        let seeds: Vec<(VertexId, Dist)> = self.view.topo.boundary_overlay[src_shard]
            .iter()
            .copied()
            .zip(ds.iter().copied())
            .collect();
        dijkstra_multi_source_ws(&self.view.overlay.graph, &seeds, &mut self.ws);
    }

    /// Folds the target side's boundary distances over the overlay pass.
    fn fold_target(&self, tgt_shard: usize, dt: &[Dist]) -> Dist {
        let mut best = INF;
        for (&ob, &d) in self.view.topo.boundary_overlay[tgt_shard].iter().zip(dt) {
            best = best.min(self.ws.distance(ob).saturating_add(d));
        }
        best
    }

    /// Counts one pair from shard `si` to shard `ti`.
    fn count(&self, si: usize, ti: usize) {
        let shards = &self.view.telemetry.shards;
        if si == ti {
            shards[si].local_queries.inc();
        } else {
            shards[si].cross_queries.inc();
            shards[ti].cross_queries.inc();
        }
    }
}

impl QuerySession for FleetSession<'_> {
    fn distance(&mut self, s: VertexId, t: VertexId) -> Dist {
        if s == t {
            return Dist::ZERO;
        }
        let topo = &*self.view.topo;
        let (si, ti) = (topo.shard(s), topo.shard(t));
        let (ls, lt) = (topo.local_id[s.index()], topo.local_id[t.index()]);
        self.count(si, ti);
        if si == ti {
            // Local query — but the globally shortest path may leave the
            // shard and return, so the boundary detour is evaluated too.
            let mut sess = self.shard_session(si);
            let best = sess.distance(ls, lt);
            let bl = self.boundary(si);
            if bl.is_empty() {
                return best;
            }
            let (ds, dt) = (sess.one_to_many(ls, bl), sess.one_to_many(lt, bl));
            self.run_overlay(si, &ds);
            best.min(self.fold_target(si, &dt))
        } else {
            let ds = self.shard_session(si).one_to_many(ls, self.boundary(si));
            let dt = self.shard_session(ti).one_to_many(lt, self.boundary(ti));
            self.run_overlay(si, &ds);
            self.fold_target(ti, &dt)
        }
    }

    fn one_to_many(&mut self, source: VertexId, targets: &[VertexId]) -> Vec<Dist> {
        let topo = &*self.view.topo;
        let si = topo.shard(source);
        let ls = topo.local_id[source.index()];
        // Source side once: boundary fan + local answers for same-shard
        // targets, all through one shard session.
        let local_targets: Vec<VertexId> = targets
            .iter()
            .filter(|&&t| topo.shard(t) == si)
            .map(|&t| topo.local_id[t.index()])
            .collect();
        let (ds, local_answers) = {
            let mut sess = self.shard_session(si);
            let ds = sess.one_to_many(ls, self.boundary(si));
            (ds, sess.one_to_many(ls, &local_targets))
        };
        let mut local_iter = local_answers.into_iter();
        self.run_overlay(si, &ds);
        let mut out = Vec::with_capacity(targets.len());
        for &t in targets {
            let ti = topo.shard(t);
            let lt = topo.local_id[t.index()];
            self.count(si, ti);
            let mut best = if ti == si {
                if t == source {
                    let _ = local_iter.next();
                    out.push(Dist::ZERO);
                    continue;
                }
                local_iter.next().expect("local answer per local target")
            } else {
                INF
            };
            if !self.boundary(ti).is_empty() {
                let dt = self.shard_session(ti).one_to_many(lt, self.boundary(ti));
                best = best.min(self.fold_target(ti, &dt));
            }
            out.push(best);
        }
        out
    }
}
