//! The elimination kernel: one pass that produces the contraction order *and*
//! the upward shortcut rows (the paper's MDE, §II and line 1 of Algorithm 4).
//!
//! [`crate::ordering::mde_order`] and `ContractionHierarchy::build` are thin
//! calls of [`eliminate`]. There is no hash container in the all-pairs
//! build. The live graph is held in two representations, one after
//! the other.
//!
//! **Sparse head: one `Vec<(VertexId, Weight)>` row per live vertex.**
//! Eliminating `v` marks its neighbours in a dense slot table and then scans
//! each neighbour's row **once**: the scan drops `v`, min-updates the pairs
//! it meets with [`shortcut_sum`](crate::hierarchy::shortcut_sum), and only
//! the pairs it did not meet are appended (these are the new shortcuts,
//! counted once per pair). `v`'s own row is frozen where it lies — nothing
//! live points at it any more.
//!
//! **Dense tail: a matrix for the last `DENSE_TAIL` (1,024) vertices**, or for
//! the whole graph when it is smaller (every partition and overlay of the
//! PSP indexes). The live rows move into the strict lower triangle of one
//! symmetric `r × r` weight matrix and one `r`-bit adjacency row per vertex.
//! Eliminating `v` reads its neighbours off its bits and freezes its row;
//! each neighbour pair is then one indexed `min`, written once, where the
//! head pays a slot lookup and two data-dependent branches per scanned entry
//! (≈5 ns) from each end of the pair, and each neighbour's new degree is one
//! popcount. Under MinDegree the tail is where the work is: it holds the
//! top separators, whose degrees approach the treewidth. Counted on
//! `grid64` (4,096 vertices) with the head alone, the last 1,024 vertices
//! did 93 % of the row-scan work (the last 512, 75 %); on `grid128`
//! (16,384) the last 1,024 did 67 %.
//! Extra memory is at most 2 MB of cells (`r (r - 1) / 2` of them) and
//! 128 KB of bits, allocated once and zeroed, so a tail with few arcs (a
//! path, a small partition) touches few of its pages. On `grid64` (2-vCPU
//! Xeon, fastest run of each of three rounds of 15) the head takes
//! 3.2–3.5 ms, the tail 3.3–3.7 ms and the final sort by rank 0.35 ms; the
//! tail took 5.0–5.8 ms when it kept the whole square (4 MB) and wrote every
//! pair from both ends.
//!
//! Both representations give the same elimination, bit for bit: the same
//! order (the next vertex is the exact minimum `(degree, id)` of a queue
//! holding a key per live vertex of the current group — one group of every
//! vertex under [`OrderingStrategy::MinDegree`], the nested dissection's
//! leaves and separators, deepest first, under
//! [`OrderingStrategy::NestedDissection`] (`dissection.rs`) — or the next
//! of a given sequence, [`OrderingStrategy::Given`], the boundary-first
//! orders of the PSP indexes), the same rows (sorted by rank once the order
//! is complete) and the same shortcut count; the unit tests below hand off at
//! every interesting step. Witness-pruned builds (TOAIN's
//! [`ShortcutMode::WitnessPruned`]) stay sparse throughout: whether a pair
//! gets a shortcut is decided by a bounded Dijkstra over the live rows, which
//! on a matrix would scan `r` cells per settled vertex.
//!
//! The pass is sequential on purpose. It replaced a hash-set ordering pass
//! followed by a hash-map contraction in rank windows with two fork/joins per
//! window; on the benchmark's `grid64` (2 cores) that pair took 27 + 40 ms
//! on one thread and 27 + 94 ms on two, against 22 ms for this kernel before
//! it had a dense tail — the old ordering pass alone cost more than the whole
//! build did then, so no thread count let the windowed pair tie it.
//! Construction parallelism lives where the work is independent: per
//! partition and per fleet shard.

use crate::dissection::dissection_groups;
use crate::hierarchy::{shortcut_sum, ShortcutMode};
use crate::ordering::{OrderingStrategy, VertexOrder};
use htsp_graph::{Dist, Graph, VertexId, Weight, INF};
use rustc_hash::FxHashMap;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// What one elimination of a graph leaves behind.
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

/// How many vertices are eliminated on the dense matrix at the end: the
/// whole graph when it is smaller. Whole eliminations of the benchmark's
/// graphs (`grid_with_diagonals`, 10 % diagonals, seed 42) on a 2-vCPU Xeon
/// with the triangle, fastest of 27 runs (three interleaved sweeps) on
/// `grid64`, of 15 on `grid128`, ms:
///
/// | tail  | `grid64` MinDegree | `grid64` Given | `grid128` MinDegree | `grid128` Given |
/// |-------|------|------|-------|-------|
/// | 0     | 24.3 | 22.9 | 263.6 | 250.1 |
/// | 512   | 12.9 | 11.2 | 152.1 | 148.3 |
/// | 768   |  9.8 |  8.0 | 127.9 | 124.7 |
/// | 1,024 |  8.5 |  6.6 | 110.9 | 105.8 |
/// | 1,536 |  8.0 |  5.8 |  91.2 |  82.8 |
/// | 2,048 |  8.1 |  6.0 |  80.6 |  72.8 |
///
/// (the row for 0 is one sweep). The grids gain up to 1,536 and `grid128`
/// past it, but a `random_geometric(262144, 3)` road-like graph did not:
/// `mde_order` took 389–436 ms at 1,024 and 469–497 ms at 1,536, its tail
/// alone 9 ms against 32–34 ms. 1,024 stays, with its triangle at 2 MB
/// (one core's L2 on that host) + 128 KB of bits.
///
/// Under [`OrderingStrategy::NestedDissection`] the tail holds the top
/// separators of the dissection, which carry less fill than MinDegree's
/// last vertices (on `grid64` its tail takes ≈ 5 ms where MinDegree's takes
/// ≈ 7.6, wall time, medians of 21), and no size does better. Whole
/// `NestedDissection` builds (dissection included), thread CPU time,
/// medians of 21 runs interleaved in one process (two processes) on
/// `grid64`, of 3 on `random_geometric(65536, 3)`, ms:
///
/// | tail  | `grid64`    | rg65k |
/// |-------|-------------|-------|
/// | 512   | 22.3 / 23.5 | 223   |
/// | 1,024 | 16.4 / 19.7 | 229   |
/// | 1,536 | 17.1 / 19.2 | 228   |
/// | 2,048 | 16.4 / 19.8 | 225   |
const DENSE_TAIL: usize = 1024;

/// Eliminates every vertex of `graph`, in the order `strategy` dictates.
pub(crate) fn eliminate(
    graph: &Graph,
    strategy: OrderingStrategy,
    mode: ShortcutMode,
) -> Elimination {
    eliminate_with_tail(graph, strategy, mode, DENSE_TAIL)
}

/// [`eliminate`] with the last `tail` vertices on a dense matrix (all-pairs
/// builds only). The result does not depend on `tail`.
fn eliminate_with_tail(
    graph: &Graph,
    strategy: OrderingStrategy,
    mode: ShortcutMode,
    tail: usize,
) -> Elimination {
    let n = graph.num_vertices();
    // A graph has no self-loops and no parallel edges, so its adjacency is
    // the initial set of rows as it stands.
    let mut rows: Vec<Vec<(VertexId, Weight)>> = graph
        .vertices()
        .map(|v| graph.neighbors(v).collect())
        .collect();
    let mut schedule = Schedule::new(strategy, graph, &rows);
    // Witness searches walk the live rows, so a pruned build stays sparse.
    let tail = match mode {
        ShortcutMode::AllPairs => tail.min(n),
        ShortcutMode::WitnessPruned { .. } => 0,
    };

    // `slot[u]` = position of `u` in the row of the vertex being eliminated.
    let mut slot = vec![NO_SLOT; n];
    // Per neighbour `a`: the positions whose pair with `a` needs no (further)
    // write — `a` itself, pairs the scan met, pairs a witness made redundant.
    let mut done: Vec<bool> = Vec::new();
    let mut redundant: Vec<bool> = Vec::new();
    let mut extra_shortcuts = 0usize;

    for step in 0..n - tail {
        let v = schedule.next(step);
        let nbrs = std::mem::take(&mut rows[v.index()]);
        let deg = nbrs.len();
        for (i, &(a, _)) in nbrs.iter().enumerate() {
            slot[a.index()] = i as u32;
        }
        if let ShortcutMode::WitnessPruned { hop_limit } = mode {
            // All of `v`'s witness searches run before any of its shortcuts
            // is written: the classic one-vertex-at-a-time semantics.
            redundant.clear();
            redundant.resize(deg * deg, false);
            for (i, &(a, wa)) in nbrs.iter().enumerate() {
                for (k, &(b, wb)) in nbrs.iter().enumerate().skip(i + 1) {
                    let via = Dist(shortcut_sum(wa, wb));
                    if has_witness(&rows, v, a, b, via, hop_limit) {
                        redundant[i * deg + k] = true;
                        redundant[k * deg + i] = true;
                    }
                }
            }
        }
        for (i, &(a, wa)) in nbrs.iter().enumerate() {
            done.clear();
            match mode {
                ShortcutMode::AllPairs => done.resize(deg, false),
                ShortcutMode::WitnessPruned { .. } => {
                    done.extend_from_slice(&redundant[i * deg..(i + 1) * deg])
                }
            }
            done[i] = true;
            let row = &mut rows[a.index()];
            let mut at_v = 0;
            for (j, (b, w)) in row.iter_mut().enumerate() {
                let k = slot[b.index()] as usize;
                if k == NO_SLOT as usize {
                    if *b == v {
                        at_v = j;
                    }
                } else if !done[k] {
                    *w = (*w).min(shortcut_sum(wa, nbrs[k].1));
                    done[k] = true;
                }
            }
            debug_assert_eq!(row[at_v].0, v);
            // Row order carries no meaning until the final sort by rank.
            row.swap_remove(at_v);
            for (k, &(b, wb)) in nbrs.iter().enumerate() {
                if !done[k] {
                    row.push((b, shortcut_sum(wa, wb)));
                    // The pair is appended to both rows; count it once.
                    extra_shortcuts += usize::from(i < k);
                }
            }
            schedule.set_degree(a, row.len());
        }
        for &(a, _) in &nbrs {
            slot[a.index()] = NO_SLOT;
        }
        rows[v.index()] = nbrs;
    }
    if tail > 0 {
        // Every slot is free again; the dense tail reuses them as local ids.
        extra_shortcuts += eliminate_dense(&mut rows, &mut schedule, n - tail, &mut slot);
    }

    let order = schedule.into_order();
    for row in &mut rows {
        row.sort_unstable_by_key(|&(u, _)| order.rank(u));
    }
    Elimination {
        order,
        up: rows,
        extra_shortcuts,
    }
}

/// Where row `i` of the strict lower triangle starts: the pair `{i, j}`,
/// `j < i`, is cell `tri(i) + j`.
fn tri(i: usize) -> usize {
    i * i.saturating_sub(1) / 2
}

/// Eliminates the vertices still live after `first` steps on the strict
/// lower triangle of a symmetric `r × r` weight matrix and one `r`-bit
/// adjacency row per vertex, leaving each one's frozen row (global ids,
/// unsorted) in `rows`. `local` is scratch of one entry per vertex of the
/// graph. Returns the number of shortcuts created between vertices that were
/// not adjacent.
fn eliminate_dense(
    rows: &mut [Vec<(VertexId, Weight)>],
    schedule: &mut Schedule,
    first: usize,
    local: &mut [u32],
) -> usize {
    let live = schedule.live(first);
    let r = live.len();
    let words = r.div_ceil(64);
    // Cells hold `!weight`. A zeroed cell then reads as `Weight::MAX`, the
    // identity of `min`, so a pair's first shortcut and every later one are
    // the same branch-free write: `max` of cells is `min` of weights. Whether
    // the pair is an arc is only ever read from `adj` — a real arc may weigh
    // `Weight::MAX` too. And zeroed memory can come from pages the allocator
    // maps on first touch, so a tail with few arcs (a path, a small
    // partition) touches few of them. A pair's weight is the same from both
    // ends, so only the triangle below the diagonal is stored: each pair is
    // one cell, written once per step.
    let mut cells: Vec<Weight> = vec![0; tri(r)];
    let mut adj: Vec<u64> = vec![0; r * words];
    let mut degree: Vec<u32> = Vec::with_capacity(r);
    for (i, &u) in live.iter().enumerate() {
        local[u.index()] = i as u32;
    }
    for (i, &u) in live.iter().enumerate() {
        let row = std::mem::take(&mut rows[u.index()]);
        degree.push(row.len() as u32);
        for (b, w) in row {
            let j = local[b.index()] as usize;
            if j < i {
                cells[tri(i) + j] = !w;
            }
            adj[i * words + j / 64] |= 1 << (j % 64);
        }
    }

    let mut x_adj: Vec<u64> = vec![0; words];
    let mut nbrs: Vec<usize> = Vec::with_capacity(r);
    let mut weights: Vec<Weight> = Vec::with_capacity(r);
    // Every new pair is counted from both of its ends.
    let mut added = 0usize;
    for step in first..first + r {
        let v = schedule.next(step);
        let x = local[v.index()] as usize;
        x_adj.copy_from_slice(&adj[x * words..(x + 1) * words]);
        nbrs.clear();
        for (k, &word) in x_adj.iter().enumerate() {
            let mut word = word;
            while word != 0 {
                nbrs.push(k * 64 + word.trailing_zeros() as usize);
                word &= word - 1;
            }
        }
        weights.clear();
        weights.extend(nbrs.iter().map(|&a| {
            let (hi, lo) = if a < x { (x, a) } else { (a, x) };
            !cells[tri(hi) + lo]
        }));
        rows[v.index()] = nbrs
            .iter()
            .zip(&weights)
            .map(|(&a, &w)| (live[a], w))
            .collect();

        for (p, (&a, &wa)) in nbrs.iter().zip(&weights).enumerate() {
            // `nbrs` ascends, so the pairs of `a` with the neighbours before
            // it all lie in `a`'s triangle row.
            let a_cells = &mut cells[tri(a)..tri(a) + a];
            for (&b, &wb) in nbrs[..p].iter().zip(&weights[..p]) {
                a_cells[b] = a_cells[b].max(!shortcut_sum(wa, wb));
            }
            // `a` gains the neighbours of `x` it lacked (itself among them,
            // not kept) and loses `x`.
            let a_adj = &mut adj[a * words..(a + 1) * words];
            let mut fresh = 0;
            for (aw, &xw) in a_adj.iter_mut().zip(&x_adj) {
                fresh += (xw & !*aw).count_ones();
                *aw |= xw;
            }
            a_adj[a / 64] &= !(1 << (a % 64));
            a_adj[x / 64] &= !(1 << (x % 64));
            added += fresh as usize - 1;
            degree[a] = degree[a] + fresh - 2;
            schedule.set_degree(live[a], degree[a] as usize);
        }
    }
    added / 2
}

/// Where the next vertex to eliminate comes from.
enum Schedule {
    /// The live vertex of minimum `(degree, id)` in the current group; the
    /// groups go one after the other. MinDegree is one group of every
    /// vertex; a nested dissection's groups are its leaves and separators,
    /// deepest first (`dissection.rs`). A degree change outside the current
    /// group is one store: only the current group is in the queue.
    Queue {
        groups: Vec<Vec<VertexId>>,
        /// The group in the queue is `groups[next_group - 1]`.
        next_group: usize,
        group_of: Vec<u32>,
        degree: Vec<u32>,
        queue: DegreeQueue,
        /// The pops, in order.
        sequence: Vec<VertexId>,
    },
    /// The next vertex of a given order.
    Given(VertexOrder),
}

impl Schedule {
    fn new(strategy: OrderingStrategy, graph: &Graph, rows: &[Vec<(VertexId, Weight)>]) -> Self {
        let n = rows.len();
        let groups = match strategy {
            OrderingStrategy::MinDegree => vec![(0..n).map(VertexId::from_index).collect()],
            OrderingStrategy::NestedDissection => dissection_groups(graph),
            OrderingStrategy::Given(order) => {
                assert_eq!(order.len(), n, "given order does not cover the graph");
                return Schedule::Given(order);
            }
        };
        let mut group_of = vec![0u32; n];
        for (g, group) in groups.iter().enumerate() {
            for &v in group {
                group_of[v.index()] = g as u32;
            }
        }
        Schedule::Queue {
            groups,
            next_group: 0,
            group_of,
            degree: rows.iter().map(|row| row.len() as u32).collect(),
            queue: DegreeQueue::new(n),
            sequence: Vec::with_capacity(n),
        }
    }

    /// The vertex eliminated at `step`.
    fn next(&mut self, step: usize) -> VertexId {
        match self {
            Schedule::Queue {
                groups,
                next_group,
                degree,
                queue,
                sequence,
                ..
            } => {
                while queue.is_empty() {
                    let group = &groups[*next_group];
                    queue.fill(group.iter().map(|&v| (degree[v.index()], v)));
                    *next_group += 1;
                }
                let v = queue.pop().expect("a nonempty group");
                sequence.push(v);
                v
            }
            Schedule::Given(order) => order.vertex_at(step as u32),
        }
    }

    /// Live vertex `v` now has `degree` neighbours.
    fn set_degree(&mut self, v: VertexId, new: usize) {
        if let Schedule::Queue {
            next_group,
            group_of,
            degree,
            queue,
            ..
        } = self
        {
            degree[v.index()] = new as u32;
            if group_of[v.index()] as usize + 1 == *next_group {
                queue.set_degree(v, new);
            }
        }
    }

    /// The vertices still live after `step` steps, about in the order they
    /// will go, which keeps a step's cells close together: a given order's
    /// rest; the current group's live vertices by id (on a grid or a road
    /// network nearby ids are mostly nearby vertices) and the later groups.
    fn live(&self, step: usize) -> Vec<VertexId> {
        match self {
            Schedule::Queue {
                groups,
                next_group,
                queue,
                ..
            } => {
                let mut live: Vec<VertexId> = queue.heap.iter().map(|&(_, v)| v).collect();
                live.sort_unstable();
                live.extend(groups[*next_group..].iter().flatten());
                live
            }
            Schedule::Given(order) => order.sequence()[step..].to_vec(),
        }
    }

    fn into_order(self) -> VertexOrder {
        match self {
            Schedule::Queue { sequence, .. } => VertexOrder::from_sequence(sequence),
            Schedule::Given(order) => order,
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

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
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

    /// The sparse→dense hand-off at every interesting step: none (0), the
    /// last vertex (1), the last two (2), half way (n/2) and the whole graph
    /// (n) must all give the all-sparse elimination, under `MinDegree`,
    /// under `NestedDissection` and under a given order (ids ascending).
    fn assert_tail_invariant(name: &str, g: &Graph) {
        let n = g.num_vertices();
        let ascending = VertexOrder::from_sequence(g.vertices().collect());
        for strategy in [
            OrderingStrategy::MinDegree,
            OrderingStrategy::NestedDissection,
            OrderingStrategy::Given(ascending),
        ] {
            let sparse = eliminate_with_tail(g, strategy.clone(), ShortcutMode::AllPairs, 0);
            for tail in [1, 2, n / 2, n] {
                let e = eliminate_with_tail(g, strategy.clone(), ShortcutMode::AllPairs, tail);
                let at = format!("{name}, {strategy:?}, tail {tail}");
                assert_eq!(e.order, sparse.order, "{at}: order");
                for v in g.vertices() {
                    assert_eq!(e.up[v.index()], sparse.up[v.index()], "{at}: row of {v}");
                }
                assert_eq!(e.extra_shortcuts, sparse.extra_shortcuts, "{at}: extra");
            }
        }
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
        assert_tail_invariant("40x40 grid with diagonals", &g);
    }

    #[test]
    fn random_geometric_eliminates_alike_at_every_hand_off() {
        let g = random_geometric(260, 3, WeightRange::new(1, 80), 5);
        assert_tail_invariant("random geometric", &g);
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
        assert_tail_invariant("two-tree forest", &b.build());
    }

    #[test]
    fn a_star_eliminates_alike_at_every_hand_off() {
        let mut b = GraphBuilder::new(40);
        for leaf in 1..40 {
            b.add_edge(VertexId(0), VertexId(leaf), leaf);
        }
        assert_tail_invariant("star", &b.build());
    }

    #[test]
    fn an_isolated_vertex_eliminates_alike_at_every_hand_off() {
        let base = grid(6, 6, WeightRange::new(1, 20), 4);
        let g = builder_with(&base, base.num_vertices() + 1).build();
        assert_tail_invariant("grid plus an isolated vertex", &g);
    }

    #[test]
    fn max_weight_arcs_beside_saturating_sums_eliminate_alike_at_every_hand_off() {
        // Two-hop sums straddle the clamp at u32::MAX - 1; one pendant arc
        // and one corner-to-corner arc weigh exactly u32::MAX, which a dense
        // cell must hold as a real arc.
        let half = u32::MAX / 2;
        let base = grid_with_diagonals(8, 8, WeightRange::new(half - 40, half + 40), 0.15, 15);
        let n = base.num_vertices();
        let mut b = builder_with(&base, n + 1);
        b.add_edge(VertexId(0), VertexId(n as u32 - 1), u32::MAX);
        b.add_edge(VertexId(n as u32), VertexId(27), u32::MAX);
        let g = b.build();
        assert!(g.edges().filter(|e| e.3 == u32::MAX).count() >= 2);
        assert_tail_invariant("max-weight arcs, saturating sums", &g);
    }

    #[test]
    fn witness_pruning_ignores_the_tail() {
        let g = random_geometric(120, 3, WeightRange::new(1, 80), 9);
        let mode = ShortcutMode::WitnessPruned { hop_limit: 16 };
        let sparse = eliminate_with_tail(&g, OrderingStrategy::MinDegree, mode, 0);
        let tail = eliminate_with_tail(&g, OrderingStrategy::MinDegree, mode, g.num_vertices());
        assert_eq!(tail.order, sparse.order);
        assert_eq!(tail.up, sparse.up);
        assert_eq!(tail.extra_shortcuts, sparse.extra_shortcuts);
    }
}
