//! The one adapter between the benchmark and the program under test.
//!
//! Every call into `htsp` is made in this file; no other file of the
//! benchmark names an `htsp` item. The benchmark's own types are plain
//! numbers (`u32` vertex / edge ids, `u32` weights and distances) and the
//! opaque handles below, whose fields are private so that no other file can
//! reach through them. When an `htsp` signature changes (for instance a
//! ticket that starts returning `Result`), the fix is a few lines here.
//!
//! Nothing in this file measures anything: the callers put their own timers
//! and spans around these functions.

use htsp::ch::{ChQuery, ContractionHierarchy, FlatHierarchy, OrderingStrategy, ShortcutMode};
use htsp::graph::{
    gen, Dist, EdgeId, EdgeUpdate, IndexMaintainer, IndexSnapshot, QuerySession, QueryView,
    SnapshotPublisher, UpdateBatch, VertexId, WorkerPool,
};
use htsp::partition::{partition_region_growing, td_partition};
use htsp::search::{dijkstra_distance, BiDijkstra};
use htsp::td::{H2HIndex, TreeDecomposition};
use htsp::throughput::{lemma1_bound, BatchResult, BatchTicket, QueryBatch, QueryStats};
use htsp::{AlgorithmKind, BuildParams, RoadNetworkServer, UpdateTicket};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// "No path" as the program reports it.
pub const INF: u32 = u32::MAX;

fn vid(v: u32) -> VertexId {
    VertexId(v)
}

// ---------------------------------------------------------------- graph ----

/// A road network (adjacency-list representation).
#[derive(Clone)]
pub struct Graph(htsp::graph::Graph);

/// The fixed synthetic dataset: a `side × side` grid with diagonals.
pub fn grid_graph(side: usize, diagonal_share: f64, dataset_seed: u64) -> Graph {
    Graph(gen::grid_with_diagonals(
        side,
        side,
        gen::WeightRange::new(1, 100),
        diagonal_share,
        dataset_seed,
    ))
}

pub fn num_vertices(g: &Graph) -> usize {
    g.0.num_vertices()
}

pub fn num_edges(g: &Graph) -> usize {
    g.0.num_edges()
}

/// `(u, v, weight)` of every edge, indexed by edge id.
pub fn edge_list(g: &Graph) -> Vec<(u32, u32, u32)> {
    g.0.edges().map(|(_, u, v, w)| (u.0, v.0, w)).collect()
}

/// One edge-weight change, in the benchmark's own terms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Update {
    pub edge: u32,
    pub old: u32,
    pub new: u32,
}

fn edge_update(u: &Update) -> EdgeUpdate {
    EdgeUpdate::new(EdgeId(u.edge), u.old, u.new)
}

/// A batch in the program's own representation, built outside any timer.
pub struct Batch(UpdateBatch);

pub fn prepare_batch(updates: &[Update]) -> Batch {
    Batch(UpdateBatch::from_updates(
        updates.iter().map(edge_update).collect(),
    ))
}

/// `Graph::apply_batch`: installs the new weights.
pub fn graph_apply_batch(g: &mut Graph, batch: &Batch) {
    g.0.apply_batch(&batch.0);
}

pub fn write_dimacs(g: &Graph, path: &Path) -> std::io::Result<()> {
    htsp::graph::dimacs::write_gr_file(&g.0, path)
}

/// The flat CSR graph the streaming loader produces.
pub struct Csr(htsp::graph::CsrGraph);

pub fn load_dimacs_streaming(path: &Path) -> Result<Csr, String> {
    htsp::graph::dimacs::load_dimacs_streaming_file(path)
        .map(Csr)
        .map_err(|e| e.to_string())
}

pub fn csr_to_graph(csr: &Csr) -> Graph {
    Graph(csr.0.to_graph())
}

pub fn csr_heap_bytes(csr: &Csr) -> usize {
    csr.0.heap_bytes().total()
}

pub fn snapshot_read(path: &Path) -> Result<usize, String> {
    IndexSnapshot::read_from(path)
        .map(|s| s.state.map_or(0, |b| b.len()))
        .map_err(|e| e.to_string())
}

// --------------------------------------------------------------- search ----

pub fn dijkstra(g: &Graph, s: u32, t: u32) -> u32 {
    dijkstra_distance(&g.0, vid(s), vid(t)).0
}

pub struct BiDijkstraScratch(BiDijkstra);

pub fn bidijkstra_scratch(g: &Graph) -> BiDijkstraScratch {
    BiDijkstraScratch(BiDijkstra::new(g.0.num_vertices()))
}

pub fn bidijkstra(scratch: &mut BiDijkstraScratch, g: &Graph, s: u32, t: u32) -> u32 {
    scratch.0.distance(&g.0, vid(s), vid(t)).0
}

// ------------------------------------------------------------------- ch ----

pub struct Order(htsp::ch::VertexOrder);
pub struct Hierarchy(ContractionHierarchy);
pub struct Flat(FlatHierarchy);
pub struct ChScratch(ChQuery);

pub fn ch_order(g: &Graph) -> Order {
    Order(htsp::ch::mde_order(&g.0))
}

/// `ContractionHierarchy::build_pooled` with a given order (all-pairs
/// shortcuts, the mode dynamic maintenance needs).
pub fn ch_contract(g: &Graph, order: &Order, threads: usize) -> Hierarchy {
    Hierarchy(ContractionHierarchy::build_pooled(
        &g.0,
        OrderingStrategy::Given(order.0.clone()),
        ShortcutMode::AllPairs,
        &WorkerPool::new(threads),
    ))
}

pub fn ch_clone(h: &Hierarchy) -> Hierarchy {
    Hierarchy(h.0.clone())
}

pub fn ch_num_arcs(h: &Hierarchy) -> usize {
    h.0.num_arcs()
}

pub fn ch_scratch(h: &Hierarchy) -> ChScratch {
    ChScratch(ChQuery::new(h.0.num_vertices()))
}

pub fn ch_distance(scratch: &mut ChScratch, h: &Hierarchy, s: u32, t: u32) -> u32 {
    scratch.0.distance(&h.0, vid(s), vid(t)).0
}

pub fn ch_flatten(h: &Hierarchy) -> Flat {
    Flat(h.0.flatten())
}

pub fn ch_flat_distance(scratch: &mut ChScratch, f: &Flat, s: u32, t: u32) -> u32 {
    scratch.0.distance(&f.0, vid(s), vid(t)).0
}

/// `ContractionHierarchy::apply_batch`; returns the number of shortcuts
/// whose weight changed. `g` already holds the new weights.
pub fn ch_apply_batch(h: &mut Hierarchy, g: &Graph, updates: &[Update]) -> usize {
    let batch: Vec<EdgeUpdate> = updates.iter().map(edge_update).collect();
    h.0.apply_batch(&g.0, &batch).len()
}

// ------------------------------------------------------------------- td ----

pub struct Decomposition(TreeDecomposition);
pub struct Labels(H2HIndex);

pub fn td_from_hierarchy(h: Hierarchy) -> Decomposition {
    Decomposition(TreeDecomposition::from_hierarchy(h.0))
}

pub fn td_clone(td: &Decomposition) -> Decomposition {
    Decomposition(td.0.clone())
}

pub fn td_height(td: &Decomposition) -> u32 {
    td.0.height()
}

pub fn td_treewidth(td: &Decomposition) -> usize {
    td.0.treewidth()
}

pub fn td_lca(td: &Decomposition, u: u32, v: u32) -> u32 {
    td.0.lca(vid(u), vid(v)).map_or(INF, |x| x.0)
}

pub fn h2h_fill(td: Decomposition, threads: usize) -> Labels {
    Labels(H2HIndex::from_decomposition_pooled(
        td.0,
        &WorkerPool::new(threads),
    ))
}

pub fn h2h_distance(l: &Labels, s: u32, t: u32) -> u32 {
    l.0.distance(vid(s), vid(t)).0
}

pub fn h2h_label_bytes(l: &Labels) -> usize {
    l.0.num_label_entries() * std::mem::size_of::<Dist>()
}

/// What one `H2HIndex::apply_batch` reports about itself.
pub struct LabelUpdate {
    pub label_time: Duration,
    pub labels_recomputed: usize,
}

pub fn h2h_apply_batch(l: &mut Labels, g: &Graph, updates: &[Update]) -> LabelUpdate {
    let batch: Vec<EdgeUpdate> = updates.iter().map(edge_update).collect();
    let r = l.0.apply_batch(&g.0, &batch);
    LabelUpdate {
        label_time: r.label_time,
        labels_recomputed: r.labels_recomputed,
    }
}

pub fn h2h_encode(l: &Labels) -> Vec<u8> {
    l.0.to_snapshot_bytes()
}

pub fn h2h_decode(bytes: &[u8]) -> Result<Labels, String> {
    H2HIndex::from_snapshot_bytes(bytes)
        .map(Labels)
        .map_err(|e| e.to_string())
}

// ------------------------------------------------------------ partition ----

/// Region growing into `k` parts; returns the share of boundary vertices.
pub fn partition_boundary_share(g: &Graph, k: usize) -> f64 {
    partition_region_growing(&g.0, k, 1).boundary_fraction()
}

/// TD-partitioning with the configuration PostMHL derives from `params`;
/// returns the number of overlay vertices.
pub fn td_partition_overlay(td: &Decomposition, params: &Params) -> usize {
    let config = params.0.postmhl_config().partitioning;
    td_partition(&td.0, &config).overlay_vertices().len()
}

// ------------------------------------------------- index kinds and views ----

/// One of the nine algorithms, by its table name.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Kind(AlgorithmKind);

pub const DCH: Kind = Kind(AlgorithmKind::Dch);
pub const DH2H: Kind = Kind(AlgorithmKind::Dh2h);
pub const POSTMHL: Kind = Kind(AlgorithmKind::PostMhl);

pub fn all_kinds() -> Vec<Kind> {
    AlgorithmKind::ALL.into_iter().map(Kind).collect()
}

pub fn kind_name(k: Kind) -> &'static str {
    k.0.name()
}

#[derive(Clone, Copy)]
pub struct Params(BuildParams);

/// `BuildParams::new(partitions, threads)`, everything else default.
pub fn build_params(partitions: usize, threads: usize) -> Params {
    Params(BuildParams::new(partitions, threads))
}

/// The write half of an index, driven directly (no server around it).
pub struct Maintainer {
    index: Box<dyn IndexMaintainer>,
    publisher: SnapshotPublisher,
}

pub fn build_index(kind: Kind, g: &Graph, params: &Params) -> Maintainer {
    let index = kind.0.build(&g.0, &params.0);
    let publisher = SnapshotPublisher::new(index.current_view());
    Maintainer { index, publisher }
}

pub fn index_size_bytes(m: &Maintainer) -> usize {
    m.index.index_size_bytes()
}

pub fn num_query_stages(m: &Maintainer) -> usize {
    m.index.num_query_stages()
}

/// A bare `IndexMaintainer::apply_batch`; returns `(stage name, duration)`
/// for every stage of its `UpdateTimeline`. `g` already holds the new
/// weights.
pub fn index_apply_batch(m: &mut Maintainer, g: &Graph, batch: &Batch) -> Vec<(String, Duration)> {
    let timeline = m.index.apply_batch(&g.0, &batch.0, &m.publisher);
    timeline
        .stages
        .into_iter()
        .map(|s| (s.name, s.duration))
        .collect()
}

pub fn index_state_bytes(m: &Maintainer) -> Option<Vec<u8>> {
    m.index.snapshot_state()
}

/// `AlgorithmKind::restore`: decode the state, or rebuild where the kind has
/// no codec.
pub fn restore_index(
    kind: Kind,
    g: &Graph,
    params: &Params,
    state: Option<&[u8]>,
) -> Result<Maintainer, String> {
    let index = kind
        .0
        .restore(&g.0, &params.0, state)
        .map_err(|e| e.to_string())?;
    let publisher = SnapshotPublisher::new(index.current_view());
    Ok(Maintainer { index, publisher })
}

/// An immutable published view together with the version it was published
/// at.
pub struct Pinned {
    pub version: u64,
    view: Arc<dyn QueryView>,
}

pub fn current_view(m: &Maintainer) -> Pinned {
    Pinned {
        version: 0,
        view: m.index.current_view(),
    }
}

pub fn view_at_stage(m: &Maintainer, stage: usize) -> Pinned {
    Pinned {
        version: 0,
        view: m.index.view_at_stage(stage),
    }
}

pub fn view_stage(p: &Pinned) -> usize {
    p.view.stage()
}

/// A per-thread query session on a pinned view.
pub struct Session<'a>(Box<dyn QuerySession + 'a>);

pub fn open_session(p: &Pinned) -> Session<'_> {
    Session(p.view.session())
}

impl Session<'_> {
    #[inline]
    pub fn distance(&mut self, s: u32, t: u32) -> u32 {
        self.0.distance(vid(s), vid(t)).0
    }
}

// --------------------------------------------------------------- server ----

pub struct Server(RoadNetworkServer);

/// `ServerBuilder::start`: builds the index and starts the server with its
/// defaults (cache off, default coalescing and admission).
pub fn start_server(g: &Graph, kind: Kind, params: &Params, query_workers: usize) -> Server {
    Server(
        RoadNetworkServer::builder()
            .algorithm(kind.0)
            .build_params(params.0)
            .query_workers(query_workers)
            .start(&g.0),
    )
}

pub fn save_snapshot(server: &Server, path: &Path) -> Result<(), String> {
    server.0.save_snapshot(path).map_err(|e| e.to_string())
}

pub fn start_from_snapshot(path: &Path, query_workers: usize) -> Result<Server, String> {
    RoadNetworkServer::builder()
        .query_workers(query_workers)
        .start_from_snapshot(path)
        .map(Server)
        .map_err(|e| e.to_string())
}

pub fn published_version(server: &Server) -> u64 {
    server.0.publisher().version()
}

/// `server.snapshot()` with its version.
pub fn pin_snapshot(server: &Server) -> Pinned {
    let (version, view) = server.0.publisher().versioned_snapshot();
    Pinned { version, view }
}

pub fn server_index_size_bytes(server: &Server) -> usize {
    server.0.with_index(|m| m.index_size_bytes())
}

/// `(instant, stage)` of every publication since the last call.
pub fn take_publication_log(server: &Server) -> Vec<(Instant, usize)> {
    server
        .0
        .publisher()
        .take_log()
        .into_iter()
        .map(|e| (e.at, e.stage))
        .collect()
}

pub fn server_num_query_stages(server: &Server) -> usize {
    server.0.num_query_stages()
}

pub fn service_max_queue_depth(server: &Server) -> usize {
    server
        .0
        .query_service()
        .map_or(0, |s| s.stats().max_queue_depth)
}

/// Requests the service refused, let expire or abandoned.
pub fn service_lost_requests(server: &Server) -> u64 {
    server.0.query_service().map_or(0, |s| {
        let st = s.stats();
        st.shed + st.expired_at_submit + st.expired_in_queue + st.abandoned
    })
}

pub fn shutdown(server: Server) {
    drop(server.0.shutdown());
}

// ---- updates through the feed

pub struct Ticket(UpdateTicket);

/// What the server reports about one coalesced batch.
pub struct Outcome {
    pub first_version: u64,
    pub apply_start: Instant,
    pub stages: Vec<(String, Duration)>,
    pub cow_bytes: u64,
}

/// `UpdateFeed::submit`.
pub fn submit_update(server: &Server, u: &Update) -> Ticket {
    Ticket(server.0.submit(edge_update(u)))
}

/// `UpdateFeed::flush`.
pub fn flush(server: &Server) -> Ticket {
    Ticket(server.0.feed().flush())
}

/// `UpdateTicket::wait_visible`; returns the version the update became
/// visible at.
pub fn wait_visible(ticket: &Ticket) -> u64 {
    ticket.0.wait_visible().version
}

/// `UpdateTicket::wait_applied`.
pub fn wait_applied(ticket: &Ticket) -> Outcome {
    outcome(&ticket.0.wait_applied())
}

/// `UpdateTicket::try_outcome`.
pub fn try_outcome(ticket: &Ticket) -> Option<Outcome> {
    ticket.0.try_outcome().map(|o| outcome(&o))
}

fn outcome(o: &htsp::UpdateOutcome) -> Outcome {
    Outcome {
        first_version: o.first_version,
        apply_start: o.apply_start,
        stages: o
            .timeline
            .stages
            .iter()
            .map(|s| (s.name.clone(), s.duration))
            .collect(),
        cow_bytes: o.cow.bytes_cloned,
    }
}

// ---- requests through the query service

/// One client request, in the benchmark's own terms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    PointToPoint(Vec<(u32, u32)>),
    OneToMany {
        source: u32,
        targets: Vec<u32>,
    },
    Matrix {
        sources: Vec<u32>,
        targets: Vec<u32>,
    },
}

impl Request {
    /// The `(s, t)` pairs in the order the answer lists their distances.
    pub fn pairs(&self) -> Vec<(u32, u32)> {
        match self {
            Request::PointToPoint(p) => p.clone(),
            Request::OneToMany { source, targets } => {
                targets.iter().map(|&t| (*source, t)).collect()
            }
            Request::Matrix { sources, targets } => sources
                .iter()
                .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
                .collect(),
        }
    }
}

/// A request converted to the program's type ahead of time, so that the
/// conversion is not part of any measured latency.
pub struct PreparedRequest(QueryBatch);

pub fn prepare_request(r: &Request) -> PreparedRequest {
    let ids = |v: &[u32]| v.iter().map(|&x| vid(x)).collect::<Vec<_>>();
    PreparedRequest(match r {
        Request::PointToPoint(p) => QueryBatch::PointToPoint(
            p.iter()
                .map(|&(s, t)| htsp::graph::Query::new(vid(s), vid(t)))
                .collect(),
        ),
        Request::OneToMany { source, targets } => QueryBatch::OneToMany {
            source: vid(*source),
            targets: ids(targets),
        },
        Request::Matrix { sources, targets } => QueryBatch::Matrix {
            sources: ids(sources),
            targets: ids(targets),
        },
    })
}

pub struct RequestTicket(BatchTicket);

pub struct Answer {
    pub distances: Vec<u32>,
    pub version: u64,
    pub answered_at: Instant,
}

/// `RoadNetworkServer::submit_queries`.
pub fn submit_request(server: &Server, r: PreparedRequest) -> RequestTicket {
    RequestTicket(server.0.submit_queries(r.0))
}

fn answer(r: BatchResult) -> Option<Answer> {
    r.answered().map(|a| Answer {
        distances: a.distances.iter().map(|d| d.0).collect(),
        version: a.snapshot_version,
        answered_at: a.answered_at,
    })
}

/// `BatchTicket::try_wait_result`: `None` while pending, `Some(None)` when
/// the request was discarded unanswered.
pub fn try_answer(t: &RequestTicket) -> Option<Option<Answer>> {
    t.0.try_wait_result().map(answer)
}

/// `BatchTicket::wait_result`.
pub fn wait_answer(t: &RequestTicket) -> Option<Answer> {
    answer(t.0.wait_result())
}

// ---------------------------------------------------------------- model ----

/// Lemma 1 of the paper: the highest average query rate a single-stage
/// index supports, given query time samples (seconds), update time,
/// update interval and the response-time limit.
pub fn lemma1_qps(query_time_s: &[f64], t_u: f64, delta_t: f64, r_star: f64) -> f64 {
    lemma1_bound(QueryStats::from_samples(query_time_s), t_u, delta_t, r_star)
}
