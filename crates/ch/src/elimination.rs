//! The elimination kernel: the contraction order of the paper's MDE (§II and
//! line 1 of Algorithm 4), and the rows of TOAIN's witness-pruned hierarchy.
//!
//! An all-pairs hierarchy takes only its order from here
//! ([`min_degree_order`]; [`crate::ordering::mde_order`] is one call of it):
//! its rows are the order's symbolic fill, weighed by the repair's pull
//! (`hierarchy.rs`). The kernel ([`min_degree_sequence`]) orders a *live
//! graph* by popping its live vertex of least `(degree, id)`, so the order
//! depends on the topology alone and the kernel tracks only who is adjacent
//! to whom; there is no hash container. Under MinDegree the live graph is
//! the whole graph. A nested dissection never passes through here as a
//! whole: it orders each leaf and separator on its own live graph with this
//! kernel (`dissection.rs`). The live graph is held in two representations,
//! one after the other.
//!
//! **Sparse head: one row of neighbours per live vertex.** Eliminating `v`
//! marks its neighbours in a dense slot table and then scans each
//! neighbour's row **once**: the scan drops `v` and meets the pairs already
//! adjacent, and only the pairs it did not meet are appended (the new
//! shortcuts, counted once per pair). `v`'s own row is frozen where it lies
//! — nothing live points at it any more.
//!
//! **Dense tail: one bit row per vertex for the last `DENSE_TAIL` (1,536)
//! vertices**, or for all of them when there are fewer (every PSP partition
//! and overlay, and every dissection group but a huge leaf such as a star),
//! with a column per live vertex. Eliminating `v` ORs its bits into each
//! neighbour's, which gains the neighbours it lacked (one popcount gives its
//! new degree) and loses `v`. Under MinDegree the tail is where the work is:
//! it holds the top separators, whose degrees approach the treewidth.
//! Counted on `grid64` (4,096 vertices) with the head alone, the last 1,024
//! vertices did 93 % of the row-scan work (the last 512, 75 %); on
//! `grid128` (16,384) the last 1,024 did 67 %. The bits take at most
//! `DENSE_TAIL` rows of as many columns plus one per live vertex that stays,
//! allocated per live graph.
//!
//! Both representations pop the same order, bit for bit; the unit tests
//! below hand off at every interesting step. Witness-pruned builds (TOAIN's
//! `ShortcutMode::WitnessPruned`, [`eliminate_pruned`]) keep their rows,
//! weights included, and stay sparse throughout: whether a pair gets a
//! shortcut is decided by a bounded Dijkstra over the live rows, which on a
//! matrix would scan `r` cells per settled vertex. Their rows are sorted by
//! rank once the order is complete.
//!
//! The pass is sequential on purpose. It replaced a hash-set ordering pass
//! followed by a hash-map contraction in rank windows with two fork/joins per
//! window; on the benchmark's `grid64` (2 cores) that pair took 27 + 40 ms
//! on one thread and 27 + 94 ms on two, against 22 ms for this kernel before
//! it had a dense tail. Construction parallelism lives where the work is
//! independent: per partition, per fleet shard and per subtree of the label
//! fill.

use crate::hierarchy::shortcut_sum;
use crate::ordering::VertexOrder;
use htsp_graph::{Dist, Graph, VertexId, Weight, INF};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What a witness-pruned elimination leaves behind.
pub(crate) struct Elimination {
    /// The order the vertices were eliminated in.
    pub(crate) order: VertexOrder,
    /// `up[v]`: the neighbours of `v` at its elimination (all ranked higher)
    /// with the shortcut weight to each, sorted by rank ascending.
    pub(crate) up: Vec<Vec<(VertexId, Weight)>>,
    /// Shortcuts created between vertices that were not adjacent before.
    pub(crate) extra_shortcuts: usize,
}

const NO_SLOT: u32 = u32::MAX;

/// How many vertices are eliminated on the adjacency bits at the end: the
/// whole graph when it is smaller. Whole MinDegree orders of the
/// benchmark's graphs (`grid_with_diagonals`, 10 % diagonals, seed 42;
/// `random_geometric(65536, 3)`, "rg65k") on a 2-vCPU Xeon, medians of 61
/// interleaved runs on `grid64`, of 5 on the others (quartiles ±10–30 %
/// there), ms:
///
/// | tail  | `grid64` | `grid128` | rg65k |
/// |-------|----------|-----------|-------|
/// | 768   | 8.0      | 109.9     | 50.9  |
/// | 1,024 | 6.7      | 108.1     | 51.5  |
/// | 1,536 | 5.5      |  94.0     | 46.3  |
/// | 2,048 | 5.6      |  80.8     | 45.9  |
///
/// The grids gain past 1,536, rg65k does not.
pub(crate) const DENSE_TAIL: usize = 1536;

/// The MinDegree order of `graph`: one elimination of the whole graph.
pub(crate) fn min_degree_order(graph: &Graph) -> VertexOrder {
    let n = graph.num_vertices();
    VertexOrder::from_sequence(min_degree_sequence(&mut adjacency(graph), n, n, DENSE_TAIL))
}

/// `graph`'s adjacency as the rows of a live graph.
fn adjacency(graph: &Graph) -> Vec<Vec<VertexId>> {
    // A graph has no self-loops and no parallel edges, so its adjacency is
    // the initial set of rows as it stands.
    (graph.vertices())
        .map(|v| graph.neighbors(v).map(|(u, _)| u).collect())
        .collect()
}

/// The order in which the minimum-`(degree, id)` elimination pops the
/// `members` of a live graph, the last `tail` of them on the dense bits
/// (the order does not depend on `tail`). `rows[i]` holds the live
/// neighbours of member `i`, ids below `width`; the ids from `members` up
/// are live vertices that stay (they count in a degree and gain fill, but
/// keep no row), such as the separators above a nested-dissection group
/// (`dissection.rs`). The rows are left in `rows`, and the rows past
/// `members` are not read, so one set of buffers serves many live graphs.
pub(crate) fn min_degree_sequence(
    rows: &mut Vec<Vec<VertexId>>,
    members: usize,
    width: usize,
    tail: usize,
) -> Vec<VertexId> {
    let tail = tail.min(members);
    let mut schedule = Schedule::new(None, &rows[..members]);
    let mut head = SparseRows::new(std::mem::take(rows), members, width);
    for step in 0..members - tail {
        let v = schedule.next(step);
        head.eliminate(v, &mut schedule, None);
    }
    if tail > 0 {
        // Every slot is free again; the dense tail reuses them as local ids.
        let live = &head.rows[..members];
        eliminate_dense(live, &mut schedule, members - tail, &mut head.slot);
    }
    *rows = head.rows;
    match schedule {
        Schedule::Queue { sequence, .. } => sequence,
        Schedule::Given(_) => unreachable!("nothing was given"),
    }
}

/// Eliminates every vertex of `graph` in the order `given`, or by minimum
/// `(degree, id)` on the pruned rows when there is none, keeping only the
/// shortcuts no witness path of at most `hop_limit` settled vertices makes
/// redundant.
pub(crate) fn eliminate_pruned(
    graph: &Graph,
    given: Option<VertexOrder>,
    hop_limit: usize,
) -> Elimination {
    let arcs = graph.vertices().map(|v| graph.neighbors(v).collect());
    let arcs: Vec<Vec<(VertexId, Weight)>> = arcs.collect();
    let mut schedule = Schedule::new(given, &arcs);
    let n = graph.num_vertices();
    let mut rows = SparseRows::new(arcs, n, n);
    let mut redundant = Vec::new();
    let mut extra_shortcuts = 0;
    for step in 0..n {
        let v = schedule.next(step);
        // All of `v`'s witness searches run before any of its shortcuts is
        // written: the classic one-vertex-at-a-time semantics.
        let nbrs = &rows.rows[v.index()];
        let deg = nbrs.len();
        redundant.clear();
        redundant.resize(deg * deg, false);
        for (i, &(a, wa)) in nbrs.iter().enumerate() {
            for (k, &(b, wb)) in nbrs.iter().enumerate().skip(i + 1) {
                let via = Dist(shortcut_sum(wa, wb));
                if has_witness(&rows.rows, v, a, b, via, hop_limit) {
                    redundant[i * deg + k] = true;
                    redundant[k * deg + i] = true;
                }
            }
        }
        extra_shortcuts += rows.eliminate(v, &mut schedule, Some(&redundant));
    }
    let order = match schedule {
        Schedule::Queue { sequence, .. } => VertexOrder::from_sequence(sequence),
        Schedule::Given(order) => order,
    };
    let mut up = rows.rows;
    for row in &mut up {
        row.sort_unstable_by_key(|&(u, _)| order.rank(u));
    }
    Elimination {
        order,
        up,
        extra_shortcuts,
    }
}

/// An entry of a live row: a neighbour, with the weight of the pair when
/// the elimination keeps weights (only witness searches read them).
trait Entry: Copy {
    fn vertex(self) -> VertexId;
    /// The entry of a vertex's row for the neighbour `b` it gains through
    /// the eliminated vertex, which its entry `via` reaches.
    fn through(via: Self, b: Self) -> Self;
    /// `self` is met again through the eliminated vertex, which `via`
    /// reaches; `b` is the eliminated vertex's entry for it.
    fn meet(&mut self, via: Self, b: Self);
}

impl Entry for VertexId {
    fn vertex(self) -> VertexId {
        self
    }
    fn through(_: Self, b: Self) -> Self {
        b
    }
    fn meet(&mut self, _: Self, _: Self) {}
}

impl Entry for (VertexId, Weight) {
    fn vertex(self) -> VertexId {
        self.0
    }
    fn through(via: Self, b: Self) -> Self {
        (b.0, shortcut_sum(via.1, b.1))
    }
    fn meet(&mut self, via: Self, b: Self) {
        self.1 = self.1.min(shortcut_sum(via.1, b.1));
    }
}

/// The live graph as one row per member, and the scratch of a step.
struct SparseRows<E> {
    /// The members' rows first.
    rows: Vec<Vec<E>>,
    members: usize,
    /// `slot[u]` = position of `u` in the row of the vertex being
    /// eliminated; one entry per id of the live graph.
    slot: Vec<u32>,
    /// Per neighbour `a`: the positions whose pair with `a` needs no
    /// (further) write — `a` itself, pairs the scan met, pairs a witness
    /// made redundant.
    done: Vec<bool>,
}

impl<E: Entry> SparseRows<E> {
    /// The rows of the first `members` of a live graph of `width` ids.
    fn new(rows: Vec<Vec<E>>, members: usize, width: usize) -> Self {
        SparseRows {
            rows,
            members,
            slot: vec![NO_SLOT; width],
            done: Vec::new(),
        }
    }

    /// Eliminates `v`, whose row is frozen where it lies. `redundant`, when
    /// there is one, says which pairs of `v`'s neighbours (row by row) a
    /// witness made redundant. Returns the number of shortcuts created
    /// between vertices that were not adjacent.
    fn eliminate(
        &mut self,
        v: VertexId,
        schedule: &mut Schedule,
        redundant: Option<&[bool]>,
    ) -> usize {
        let SparseRows {
            rows,
            members,
            slot,
            done,
        } = self;
        let nbrs = std::mem::take(&mut rows[v.index()]);
        let deg = nbrs.len();
        for (i, &a) in nbrs.iter().enumerate() {
            slot[a.vertex().index()] = i as u32;
        }
        let mut extra_shortcuts = 0;
        for (i, &a) in nbrs.iter().enumerate() {
            // A live vertex that is not a member keeps no row.
            if a.vertex().index() >= *members {
                continue;
            }
            let row = &mut rows[a.vertex().index()];
            done.clear();
            match redundant {
                None => done.resize(deg, false),
                Some(redundant) => done.extend_from_slice(&redundant[i * deg..(i + 1) * deg]),
            }
            done[i] = true;
            let mut at_v = 0;
            for (j, e) in row.iter_mut().enumerate() {
                let k = slot[e.vertex().index()] as usize;
                if k == NO_SLOT as usize {
                    if e.vertex() == v {
                        at_v = j;
                    }
                } else if !done[k] {
                    e.meet(a, nbrs[k]);
                    done[k] = true;
                }
            }
            debug_assert_eq!(row[at_v].vertex(), v);
            // Row order carries no meaning until the final sort by rank.
            row.swap_remove(at_v);
            for (k, &b) in nbrs.iter().enumerate() {
                if !done[k] {
                    row.push(E::through(a, b));
                    // The pair is appended to both rows; count it once.
                    extra_shortcuts += usize::from(i < k);
                }
            }
            schedule.set_degree(a.vertex(), row.len());
        }
        for &a in &nbrs {
            slot[a.vertex().index()] = NO_SLOT;
        }
        rows[v.index()] = nbrs;
        extra_shortcuts
    }
}

/// Eliminates the members still live after `first` steps on one bit row
/// per member, with a column per live id (members first, then the ids that
/// are not members). `local` is scratch of one entry per id.
fn eliminate_dense(
    rows: &[Vec<VertexId>],
    schedule: &mut Schedule,
    first: usize,
    local: &mut [u32],
) {
    let live = schedule.live();
    let r = live.len();
    let members = rows.len();
    let words = (r + local.len() - members).div_ceil(64);
    let mut adj: Vec<u64> = vec![0; r * words];
    let mut degree: Vec<u32> = Vec::with_capacity(r);
    for (i, &u) in live.iter().enumerate() {
        local[u.index()] = i as u32;
    }
    for (i, id) in local[members..].iter_mut().enumerate() {
        *id = (r + i) as u32;
    }
    for (i, &u) in live.iter().enumerate() {
        let row = &rows[u.index()];
        degree.push(row.len() as u32);
        for &b in row {
            let j = local[b.index()] as usize;
            adj[i * words + j / 64] |= 1 << (j % 64);
        }
    }

    let mut x_adj: Vec<u64> = vec![0; words];
    for step in first..first + r {
        let v = schedule.next(step);
        let x = local[v.index()] as usize;
        x_adj.copy_from_slice(&adj[x * words..(x + 1) * words]);
        // Only the members' columns come first; the others keep no row.
        for (k, &word) in x_adj.iter().enumerate().take(r.div_ceil(64)) {
            let mut word = word;
            while word != 0 {
                let a = k * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                if a >= r {
                    break;
                }
                // `a` gains the neighbours of `x` it lacked (itself among
                // them, not kept) and loses `x`.
                let a_adj = &mut adj[a * words..(a + 1) * words];
                let mut fresh = 0;
                for (aw, &xw) in a_adj.iter_mut().zip(&x_adj) {
                    fresh += (xw & !*aw).count_ones();
                    *aw |= xw;
                }
                a_adj[a / 64] &= !(1 << (a % 64));
                a_adj[x / 64] &= !(1 << (x % 64));
                degree[a] = degree[a] + fresh - 2;
                schedule.set_degree(live[a], degree[a] as usize);
            }
        }
    }
}

/// Where the next vertex to eliminate comes from.
enum Schedule {
    /// The live member of minimum `(degree, id)`.
    Queue {
        queue: DegreeQueue,
        /// The pops, in order.
        sequence: Vec<VertexId>,
    },
    /// The next vertex of a given order.
    Given(VertexOrder),
}

impl Schedule {
    /// The given order, or a queue of every member of `rows` keyed by its
    /// row's length.
    fn new<E>(given: Option<VertexOrder>, rows: &[Vec<E>]) -> Self {
        let n = rows.len();
        if let Some(order) = given {
            assert_eq!(order.len(), n, "given order does not cover the graph");
            return Schedule::Given(order);
        }
        let mut queue = DegreeQueue::new(n);
        queue.fill(
            rows.iter()
                .enumerate()
                .map(|(v, row)| (row.len() as u32, VertexId::from_index(v))),
        );
        Schedule::Queue {
            queue,
            sequence: Vec::with_capacity(n),
        }
    }

    /// The vertex eliminated at `step`.
    fn next(&mut self, step: usize) -> VertexId {
        match self {
            Schedule::Queue { queue, sequence } => {
                let v = queue.pop().expect("a live member");
                sequence.push(v);
                v
            }
            Schedule::Given(order) => order.vertex_at(step as u32),
        }
    }

    /// Live member `v` now has `degree` neighbours.
    fn set_degree(&mut self, v: VertexId, new: usize) {
        if let Schedule::Queue { queue, .. } = self {
            queue.set_degree(v, new);
        }
    }

    /// The members still live, by id, which keeps a step's bit rows close
    /// together (on a grid or a road network nearby ids are mostly nearby
    /// vertices). A given order is never eliminated on the bits.
    fn live(&self) -> Vec<VertexId> {
        match self {
            Schedule::Queue { queue, .. } => {
                let mut live: Vec<VertexId> = queue.heap.iter().map(|&(_, v)| v).collect();
                live.sort_unstable();
                live
            }
            Schedule::Given(_) => unreachable!("a given order is taken as it is"),
        }
    }
}

/// Min-queue of live vertices keyed by `(degree, id)`: a binary heap with
/// exactly one entry per vertex, repositioned in place when a degree changes.
struct DegreeQueue {
    heap: Vec<(u32, VertexId)>,
    /// Position of each queued vertex in `heap` (indexed by vertex id).
    pos: Vec<u32>,
}

impl DegreeQueue {
    /// An empty queue for vertices `0..n`.
    fn new(n: usize) -> Self {
        DegreeQueue {
            heap: Vec::new(),
            pos: vec![0; n],
        }
    }

    /// Queues `entries` (an empty queue's).
    fn fill(&mut self, entries: impl Iterator<Item = (u32, VertexId)>) {
        debug_assert!(self.heap.is_empty());
        self.heap.extend(entries);
        // A sorted array is a heap.
        self.heap.sort_unstable();
        for (i, &(_, v)) in self.heap.iter().enumerate() {
            self.pos[v.index()] = i as u32;
        }
    }

    fn pop(&mut self) -> Option<VertexId> {
        let last = self.heap.pop()?;
        let Some(&(_, min)) = self.heap.first() else {
            return Some(last.1);
        };
        self.heap[0] = last;
        self.sift_down(0);
        Some(min)
    }

    fn set_degree(&mut self, v: VertexId, degree: usize) {
        let i = self.pos[v.index()] as usize;
        let degree = degree as u32;
        let old = std::mem::replace(&mut self.heap[i].0, degree);
        match degree.cmp(&old) {
            std::cmp::Ordering::Less => self.sift_up(i),
            std::cmp::Ordering::Greater => self.sift_down(i),
            std::cmp::Ordering::Equal => {}
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let item = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] <= item {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, item);
    }

    fn sift_down(&mut self, mut i: usize) {
        let item = self.heap[i];
        loop {
            let mut child = 2 * i + 1;
            if child >= self.heap.len() {
                break;
            }
            if child + 1 < self.heap.len() && self.heap[child + 1] < self.heap[child] {
                child += 1;
            }
            if item <= self.heap[child] {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, item);
    }

    fn place(&mut self, i: usize, item: (u32, VertexId)) {
        self.heap[i] = item;
        self.pos[item.1.index()] = i as u32;
    }
}

/// Bounded Dijkstra on the live rows, avoiding `skip`, to decide whether the
/// shortcut `a — b` (length `limit`) is redundant.
fn has_witness(
    rows: &[Vec<(VertexId, Weight)>],
    skip: VertexId,
    a: VertexId,
    b: VertexId,
    limit: Dist,
    hop_limit: usize,
) -> bool {
    let mut dist: FxHashMap<VertexId, Dist> = FxHashMap::default();
    let mut heap = BinaryHeap::new();
    dist.insert(a, Dist::ZERO);
    heap.push(Reverse((Dist::ZERO, a)));
    let mut settled = 0usize;
    while let Some(Reverse((d, v))) = heap.pop() {
        if d > *dist.get(&v).unwrap_or(&INF) {
            continue;
        }
        if d > limit {
            break;
        }
        if v == b {
            // Found a path at most as long as the candidate shortcut; note the
            // comparison is <= because ties make the shortcut redundant.
            return d <= limit;
        }
        settled += 1;
        if settled >= hop_limit {
            break;
        }
        for &(u, w) in &rows[v.index()] {
            if u == skip {
                continue;
            }
            let nd = d.saturating_add_weight(w);
            if nd <= limit && nd < *dist.get(&u).unwrap_or(&INF) {
                dist.insert(u, nd);
                heap.push(Reverse((nd, u)));
            }
        }
    }
    dist.get(&b).is_some_and(|&d| d <= limit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use htsp_graph::gen::{grid, grid_with_diagonals, random_geometric, WeightRange};
    use htsp_graph::GraphBuilder;

    /// The sparse→dense hand-off at every interesting step: the last member
    /// (1), the last two (2), half way and all of them must pop the
    /// all-sparse order (0): the order is all the tail decides.
    fn assert_tail_invariant(name: &str, rows: Vec<Vec<VertexId>>, width: usize) {
        let k = rows.len();
        let sparse = min_degree_sequence(&mut rows.clone(), k, width, 0);
        for tail in [1, 2, k / 2, k] {
            // A spare row past the members is never read.
            let mut rows = rows.clone();
            rows.push(vec![VertexId(0); 3]);
            let sequence = min_degree_sequence(&mut rows, k, width, tail);
            assert_eq!(sequence, sparse, "{name}, tail {tail}");
        }
    }

    /// MinDegree on the whole of `g`.
    fn assert_whole_graph_invariant(name: &str, g: &Graph) {
        assert_tail_invariant(name, adjacency(g), g.num_vertices());
    }

    /// A builder over `n` vertices holding `g`'s edges.
    fn builder_with(g: &Graph, n: usize) -> GraphBuilder {
        let mut b = GraphBuilder::new(n);
        for (_, u, v, w) in g.edges() {
            b.add_edge(u, v, w);
        }
        b
    }

    #[test]
    fn a_grid_larger_than_the_tail_eliminates_alike_at_every_hand_off() {
        let g = grid_with_diagonals(40, 40, WeightRange::new(1, 60), 0.15, 3);
        assert!(g.num_vertices() > DENSE_TAIL);
        assert_whole_graph_invariant("40x40 grid with diagonals", &g);
    }

    #[test]
    fn random_geometric_eliminates_alike_at_every_hand_off() {
        let g = random_geometric(260, 3, WeightRange::new(1, 80), 5);
        assert_whole_graph_invariant("random geometric", &g);
    }

    #[test]
    fn a_two_tree_forest_eliminates_alike_at_every_hand_off() {
        // Two binary trees, no edge between them.
        let mut b = GraphBuilder::new(70);
        for v in 1..40u32 {
            b.add_edge(VertexId(v), VertexId((v - 1) / 2), 1 + v % 9);
        }
        for v in 1..30u32 {
            b.add_edge(VertexId(40 + v), VertexId(40 + (v - 1) / 2), 2 + v % 5);
        }
        assert_whole_graph_invariant("two-tree forest", &b.build());
    }

    #[test]
    fn a_star_eliminates_alike_at_every_hand_off() {
        let mut b = GraphBuilder::new(40);
        for leaf in 1..40 {
            b.add_edge(VertexId(0), VertexId(leaf), leaf);
        }
        assert_whole_graph_invariant("star", &b.build());
    }

    #[test]
    fn an_isolated_vertex_eliminates_alike_at_every_hand_off() {
        let base = grid(6, 6, WeightRange::new(1, 20), 4);
        let g = builder_with(&base, base.num_vertices() + 1).build();
        assert_whole_graph_invariant("grid plus an isolated vertex", &g);
    }

    #[test]
    fn max_weight_arcs_beside_saturating_sums_eliminate_alike_at_every_hand_off() {
        // Two-hop sums straddle the clamp at u32::MAX - 1; one pendant arc
        // and one corner-to-corner arc weigh exactly u32::MAX. The order
        // reads no weight, at either end of the hand-off.
        let half = u32::MAX / 2;
        let base = grid_with_diagonals(8, 8, WeightRange::new(half - 40, half + 40), 0.15, 15);
        let n = base.num_vertices();
        let mut b = builder_with(&base, n + 1);
        b.add_edge(VertexId(0), VertexId(n as u32 - 1), u32::MAX);
        b.add_edge(VertexId(n as u32), VertexId(27), u32::MAX);
        let g = b.build();
        assert!(g.edges().filter(|e| e.3 == u32::MAX).count() >= 2);
        assert_whole_graph_invariant("max-weight arcs, saturating sums", &g);
    }

    #[test]
    fn live_neighbours_without_rows_count_but_are_never_popped() {
        // A group's live graph: the members are the first ids of a grid, the
        // rest are live vertices above it that keep no row, and a clique
        // over six ids stands in for a part eliminated below.
        let g = grid_with_diagonals(12, 12, WeightRange::new(1, 9), 0.2, 8);
        let n = g.num_vertices();
        for members in [1, 30, 100, n - 1] {
            let mut rows = adjacency(&g);
            rows.truncate(members);
            let clique = members / 2..members / 2 + 6;
            for x in clique.clone().filter(|&x| x < members) {
                let row = &mut rows[x];
                row.extend(clique.clone().filter(|&y| y != x).map(VertexId::from_index));
                row.sort_unstable();
                row.dedup();
            }
            assert_tail_invariant(&format!("{members} members of a grid"), rows, n);
        }
    }

    #[test]
    fn a_given_order_is_taken_as_it_is() {
        let g = grid(6, 6, WeightRange::new(1, 20), 4);
        let mut sequence: Vec<VertexId> = g.vertices().collect();
        sequence.reverse();
        let descending = VertexOrder::from_sequence(sequence);
        let pruned = eliminate_pruned(&g, Some(descending.clone()), 16);
        assert_eq!(pruned.order, descending);
    }

    #[test]
    fn witness_pruning_ignores_the_tail() {
        // A pruned elimination stays on sparse rows throughout. On a tree
        // no pair has a witness, so it keeps every pair the all-pairs
        // elimination does, and pops that one's order at every hand-off.
        let n = DENSE_TAIL as u32 + 300;
        let mut b = GraphBuilder::new(n as usize);
        for v in 1..n {
            b.add_edge(VertexId(v), VertexId((v - 1) / 3), 1 + v % 7);
        }
        let g = b.build();
        let pruned = eliminate_pruned(&g, None, 16);
        for tail in [0, DENSE_TAIL, n as usize] {
            let n = n as usize;
            let sequence = min_degree_sequence(&mut adjacency(&g), n, n, tail);
            assert_eq!(pruned.order.sequence(), &sequence[..], "tail {tail}");
        }
        assert_eq!(pruned.extra_shortcuts, 0);
    }
}
