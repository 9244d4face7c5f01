//! The elimination kernel: one pass that produces the contraction order *and*
//! the upward shortcut rows (the paper's MDE, §II and line 1 of Algorithm 4).
//!
//! [`crate::ordering::mde_order`] and every `ContractionHierarchy::build*`
//! are thin calls of [`eliminate`]. The live graph is one
//! `Vec<(VertexId, Weight)>` row per uncontracted vertex; there is no hash
//! container in the all-pairs build. Eliminating `v` marks its neighbours in
//! a dense slot table and then scans each neighbour's row **once**: the scan
//! drops `v`, min-updates the pairs it meets with
//! [`shortcut_sum`](crate::hierarchy::shortcut_sum), and only the pairs it did
//! not meet are appended (these are the new shortcuts, counted once per
//! pair). `v`'s own row is frozen where it lies — nothing live points at it
//! any more — and all rows are sorted by rank once the order is complete.
//!
//! The next vertex is either the minimum `(degree, id)` of a queue holding
//! one key per live vertex ([`OrderingStrategy::MinDegree`]) or the next of a
//! given sequence ([`OrderingStrategy::Given`], the boundary-first orders of
//! the PSP indexes).
//!
//! The pass is sequential on purpose. It replaced a hash-set ordering pass
//! followed by a hash-map contraction in rank windows with two fork/joins per
//! window; on the benchmark's `grid64` (2 cores) that pair took 27 + 40 ms
//! on one thread and 27 + 94 ms on two, against 22 ms for this kernel — the
//! old ordering pass alone cost more than the whole build does now, so no
//! thread count let the windowed pair tie it. Construction parallelism lives
//! where the work is independent: per partition and per fleet shard.

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

/// Eliminates every vertex of `graph`, in the order `strategy` dictates.
pub(crate) fn eliminate(
    graph: &Graph,
    strategy: OrderingStrategy,
    mode: ShortcutMode,
) -> Elimination {
    let n = graph.num_vertices();
    // A graph has no self-loops and no parallel edges, so its adjacency is
    // the initial set of rows as it stands.
    let mut rows: Vec<Vec<(VertexId, Weight)>> = graph
        .vertices()
        .map(|v| graph.arcs(v).iter().map(|a| (a.to, a.weight)).collect())
        .collect();
    let given = match strategy {
        OrderingStrategy::MinDegree => None,
        OrderingStrategy::Given(order) => {
            assert_eq!(order.len(), n, "given order does not cover the graph");
            Some(order)
        }
    };
    let mut queue = given.is_none().then(|| DegreeQueue::new(&rows));
    let mut sequence = Vec::with_capacity(if given.is_none() { n } else { 0 });

    // `slot[u]` = position of `u` in the row of the vertex being eliminated.
    let mut slot = vec![NO_SLOT; n];
    // Per neighbour `a`: the positions whose pair with `a` needs no (further)
    // write — `a` itself, pairs the scan met, pairs a witness made redundant.
    let mut done: Vec<bool> = Vec::new();
    let mut redundant: Vec<bool> = Vec::new();
    let mut extra_shortcuts = 0usize;

    for step in 0..n {
        let v = match &mut queue {
            Some(queue) => {
                let v = queue.pop().expect("one key per live vertex");
                sequence.push(v);
                v
            }
            None => given
                .as_ref()
                .expect("no queue means a given order")
                .vertex_at(step as u32),
        };
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
            if let Some(queue) = &mut queue {
                queue.set_degree(a, row.len());
            }
        }
        for &(a, _) in &nbrs {
            slot[a.index()] = NO_SLOT;
        }
        rows[v.index()] = nbrs;
    }

    let order = given.unwrap_or_else(|| VertexOrder::from_sequence(sequence));
    for row in &mut rows {
        row.sort_unstable_by_key(|&(u, _)| order.rank(u));
    }
    Elimination {
        order,
        up: rows,
        extra_shortcuts,
    }
}

/// Min-queue of the live vertices keyed by `(degree, id)`: a binary heap with
/// exactly one entry per vertex, repositioned in place when a degree changes.
struct DegreeQueue {
    heap: Vec<(u32, VertexId)>,
    /// Position of each live vertex in `heap`.
    pos: Vec<u32>,
}

impl DegreeQueue {
    fn new(rows: &[Vec<(VertexId, Weight)>]) -> Self {
        let mut heap: Vec<(u32, VertexId)> = rows
            .iter()
            .enumerate()
            .map(|(v, row)| (row.len() as u32, VertexId::from_index(v)))
            .collect();
        // A sorted array is a heap.
        heap.sort_unstable();
        let mut pos = vec![0u32; heap.len()];
        for (i, &(_, v)) in heap.iter().enumerate() {
            pos[v.index()] = i as u32;
        }
        DegreeQueue { heap, pos }
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
