//! Nested dissection: the order of [`OrderingStrategy::NestedDissection`],
//! computed from the graph's topology alone.
//!
//! A part of the graph is cut by a minimum vertex separator, the separator is
//! ranked above everything it separates, and the components left behind are
//! cut in turn. Parts of at most [`LEAF`] vertices are not cut. Every leaf
//! and every separator is a *group*; the groups go deepest first, and each
//! group is ordered by the minimum-`(degree, id)` elimination of
//! `elimination.rs` on its own live graph ([`Dissection::order`]): its
//! members' neighbours that are not eliminated yet, a clique over the
//! boundary of each part below it (eliminating a connected part leaves
//! exactly that), and the fill of its own steps. That is the order one
//! elimination of the whole graph, group by group, would pop, without the
//! whole-graph elimination.
//!
//! **One cut.** Every part is connected and holds its vertices in BFS order
//! from its first one (the split that made it is that BFS), so its last
//! vertex `p` is far from the first: the double sweep's first half comes for
//! free. A second BFS, from `p`, orders the part. Its first and its last
//! `TERMINAL_SHARE` of vertices are the source and the sink sets; sink
//! vertices adjacent to a source vertex stay in the middle, so the cut is
//! finite. A minimum vertex cut between the two sets comes from unit vertex
//! capacities and Dinic's max flow on the split graph: `v` is an in-node
//! and an out-node joined by one unit arc, every edge `{u, v}` is two
//! uncapacitated arcs `out(u) → in(v)` and `out(v) → in(u)`, and each
//! terminal set is contracted into one node. The split graph is never
//! materialized. One CSR of neighbour ids is built per graph, on local ids
//! in BFS order so that a part's vertices sit close together in memory. At
//! most one unit enters an in-node (its unit arc is its only way out), so
//! the whole flow is one `pred` entry per vertex: where its unit comes
//! from. An in-node then has exactly one residual arc out, so the BFS and
//! the blocking-flow search step from out-node to out-node. A tag per vertex
//! holds its part's stamp and its role in the cut; stamps, not clearing,
//! keep parts apart.
//!
//! The separator is the set of middle vertices whose in-node the last
//! (failing) BFS reaches and whose out-node it does not: the minimum cut
//! nearest the source set. Every path from the source set to the sink set
//! crosses it, so removing it splits the part, and each side keeps at least
//! `TERMINAL_SHARE` of it. Each component is dissected next, one level
//! deeper. A disconnected graph is split into its components first. A part
//! whose sink set is empty after the move (a clique, a star, any part of
//! small diameter) is ordered as a leaf.
//!
//! The result is a pure function of the topology: no weight is read, no
//! random number is drawn, and a restart that rebuilds the index rebuilds
//! the same order.
//!
//! **Why these constants.** The benchmark's `grid64`
//! (`grid_with_diagonals(64, 64, 1..=100, 0.1, 42)`) and
//! `random_geometric(65536, 3, 1..=100, 42)` ("rg65k"), 2-vCPU Xeon; the
//! dissection's own time (median of 9 runs on `grid64`, of 3 on rg65k),
//! then the tree decomposition it gives (height, treewidth, H2H label
//! bytes per vertex at 4 B an entry). First the terminal share, at
//! `LEAF` = 128:
//!
//! | share     | `grid64` ms | height | width | B/V   | rg65k ms | height | width | B/V   |
//! |-----------|-------------|--------|-------|-------|----------|--------|-------|-------|
//! | MinDegree | –           | 265    | 117   | 793.7 | –        | 223    | 63    | 566.1 |
//! | 1/4       | 10.2        | 237    | 94    | 607.4 | 234      | 141    | 51    | 391.7 |
//! | 1/3       | 4.2         | 207    | 91    | 601.6 | 151      | 135    | 56    | 401.1 |
//! | 3/8       | 3.2         | 202    | 91    | 601.2 | 122      | 140    | 59    | 408.9 |
//! | 2/5       | 2.8         | 191    | 94    | 607.7 | 117      | 142    | 62    | 429.6 |
//!
//! Wider terminal sets leave less middle to cut through, so Dinic runs
//! fewer and shorter phases: 1/4 is three times slower than 3/8 on `grid64`
//! for no smaller labels there (4 % smaller on rg65k), and 2/5 starts to
//! cost label bytes on rg65k. Then the leaf size, at 3/8, with the whole
//! `H2HIndex::build` (order, elimination, label fill) against MinDegree's
//! in the same process (thread CPU time, medians of 31 interleaved runs,
//! the range over two to four such processes), taken while the order was
//! still one whole-graph elimination over the groups:
//!
//! | `LEAF` | `grid64` ms | H2H build | height | width | B/V   | rg65k ms | height | width | B/V   |
//! |--------|-------------|-----------|--------|-------|-------|----------|--------|-------|-------|
//! | 16     | 4.4         | +8 %      | 195    | 91    | 599.8 | –        | –      | –     | –     |
//! | 32     | 3.3         | +0–6 %    | 194    | 91    | 599.4 | 154      | 141    | 59    | 407.6 |
//! | 64     | 3.3         | +3–9 %    | 195    | 91    | 599.5 | 133      | 139    | 59    | 408.5 |
//! | 128    | 3.5         | +4–10 %   | 202    | 91    | 601.2 | 130      | 140    | 59    | 408.9 |
//! | 256    | 3.1         | +14–16 %  | 198    | 91    | 604.5 | 116      | 144    | 59    | 409.0 |
//! | 512    | 2.5         | +24–25 %  | 208    | 91    | 612.2 | 130      | 144    | 59    | 408.6 |
//!
//! The dissection costs about the same from 32 to 256, but MinDegree
//! inside a large leaf eliminates more fill on sparse rows: the smaller the
//! leaves, the cheaper the elimination after the order, down to 32. Below
//! that the cuts cost more than they save.
//!
//! **Ordering the groups on their live graphs** instead of eliminating the
//! whole graph once more gives the same order (the unit tests pin its hash
//! on seven graphs, computed while the whole graph was still eliminated)
//! for less: the whole order (dissection plus orders) went from 8.9 to 5.0
//! ms on `grid64`, of which the dissection is 3.1 and the groups' orders
//! 1.8 (the ruler `given_order_and_nd_builds_on_grid64`, medians of 31),
//! on `grid_with_diagonals(128, 128)` from ≈ 82 to ≈ 33 ms, and on rg65k
//! from ≈ 172 to ≈ 131 ms, where the dissection is most of it (2-vCPU
//! Xeon; order = build − given-order build, medians of 7). The buffers of
//! a group's rows and the boundaries are kept from group to group:
//! allocating them per group left the heap so scattered that the
//! customization after the order ran ≈ 45 % slower.
//!
//! [`OrderingStrategy::NestedDissection`]: crate::OrderingStrategy::NestedDissection

use crate::elimination::{min_degree_sequence, DENSE_TAIL};
use crate::ordering::VertexOrder;
use htsp_graph::{Graph, VertexId};

/// Parts of at most this many vertices are leaves, ordered by MinDegree.
/// See the module docs for the sweep.
const LEAF: usize = 32;

/// The source and the sink sets are each this share (3/8) of a part's BFS
/// order from its pseudo-peripheral vertex, so each side of a cut keeps at
/// least that share of the part. See the module docs for the sweep.
const TERMINAL_SHARE: (usize, usize) = (3, 8);

/// The nested-dissection order of `graph`: every leaf and every separator
/// of the dissection is a group, the groups go deepest first, so that a
/// separator comes after every group of the parts it separates, and each
/// group is ordered by minimum `(degree, id)` on its own live graph.
pub(crate) fn nested_dissection_order(graph: &Graph) -> VertexOrder {
    Dissection::new(graph).order()
}

/// A graph's dissection: its groups, and the neighbour lists they are
/// ordered on.
pub(crate) struct Dissection {
    dissector: Dissector,
    groups: Vec<Group>,
}

impl Dissection {
    /// Dissects `graph` into its groups.
    pub(crate) fn new(graph: &Graph) -> Self {
        let mut dissector = Dissector::new(graph);
        let groups = dissector.run();
        Dissection { dissector, groups }
    }

    /// The elimination order of the groups: deepest first, which puts every
    /// part before the separator above it (two groups of one depth lie in
    /// different parts, so they are never adjacent while both are live),
    /// each group ordered on its live graph ([`Dissector::order_group`]).
    pub(crate) fn order(&self) -> VertexOrder {
        let (dissector, groups) = (&self.dissector, &self.groups);
        let n = dissector.global.len();
        let mut by_depth: Vec<usize> = (0..groups.len()).collect();
        by_depth.sort_by_key(|&g| std::cmp::Reverse(groups[g].depth));
        // Each ordered part's boundary, back to back, and the parts just
        // below each group as a linked list.
        let mut boundaries: Vec<u32> = Vec::new();
        let mut span = vec![0..0; groups.len()];
        let mut first_below = vec![NO_PARENT; groups.len()];
        let mut next_below = vec![NO_PARENT; groups.len()];
        let mut scratch = GroupScratch::default();
        let mut slot = vec![FREE; n];
        let mut sequence = Vec::with_capacity(n);
        for g in by_depth {
            let linked = |c: u32| (c != NO_PARENT).then_some(c as usize);
            let below = std::iter::successors(linked(first_below[g]), |&c| linked(next_below[c]));
            let cliques = below.map(|c| &boundaries[span[c].clone()]);
            let members = &groups[g].members;
            dissector.order_group(members, cliques, &mut slot, &mut scratch, &mut sequence);
            let parent = groups[g].parent;
            if parent != NO_PARENT {
                span[g] = boundaries.len()..boundaries.len() + scratch.boundary.len();
                boundaries.extend_from_slice(&scratch.boundary);
                next_below[g] = std::mem::replace(&mut first_below[parent as usize], g as u32);
            }
        }
        VertexOrder::from_sequence(sequence)
    }
}

/// The buffers one group is ordered in, kept for the next.
#[derive(Default)]
struct GroupScratch {
    /// The members by vertex id.
    members: Vec<u32>,
    /// The members' rows (and spare ones).
    rows: Vec<Vec<VertexId>>,
    /// Per member: whether a clique reached its row.
    grown: Vec<bool>,
    clique: Vec<VertexId>,
    /// The boundary of the group's part.
    boundary: Vec<u32>,
}

/// A leaf or a separator of the dissection.
struct Group {
    /// 0 for the top separator of each component (or the whole component,
    /// when it is not cut), one more below each separator.
    depth: u32,
    /// The separator of the part this group's part was split from, or
    /// [`NO_PARENT`].
    parent: u32,
    /// Local ids.
    members: Vec<u32>,
}

/// The parent of a component's top group.
const NO_PARENT: u32 = u32::MAX;
/// `slot` of a vertex that is in no group being ordered.
const FREE: u32 = u32::MAX;
/// `slot` of a vertex whose group is ordered.
const ELIMINATED: u32 = u32::MAX - 1;

/// What the blocking-flow search finds at a node's cursor.
enum Step {
    /// An admissible arc to this node.
    To(u32),
    /// An arc into the sink set.
    Sink,
    /// Nothing left: the node is a dead end for this phase.
    Dead,
}

/// Roles, in the low two bits of a vertex's tag.
const SOURCE: u32 = 0;
const MIDDLE: u32 = 1;
const SINK: u32 = 2;
/// The tag of a vertex that is in no part any more (a separator's).
const DONE: u32 = u32::MAX;
/// `pred` of a vertex no unit flows through.
const NO_UNIT: u32 = u32::MAX;
/// `pred` of a vertex whose unit comes straight from the source set.
const FROM_SOURCE: u32 = u32::MAX - 1;

/// One graph's neighbour lists and the scratch of its cuts.
struct Dissector {
    /// The graph's id of each local id.
    global: Vec<VertexId>,
    /// CSR of neighbour ids: the arcs of `v` are `off[v]..off[v + 1]`.
    off: Vec<u32>,
    adj: Vec<u32>,
    /// Per vertex: `stamp << 2 | role`, the part it is in and its role in
    /// that part's cut, or [`DONE`].
    tag: Vec<u32>,
    /// Per vertex: the vertex whose out-node sends it its unit of flow,
    /// [`FROM_SOURCE`], or [`NO_UNIT`]. At most one unit enters an in-node
    /// (the unit arc is its only way out), so this one entry is the whole
    /// flow: `v`'s unit arc is saturated iff it is not `NO_UNIT`.
    pred: Vec<u32>,
    /// Per vertex, of its out-node: `epoch << 32 | level` of the BFS that
    /// last reached it (level `u32::MAX` once it is a dead end), and the
    /// blocking-flow search's candidate arc.
    mark: Vec<u64>,
    cursor: Vec<u32>,
    epoch: u32,
    /// The level of the sink terminal in the current phase.
    sink_level: u32,
    queue: Vec<u32>,
    arranged: Vec<u32>,
    /// Middle vertices adjacent to the source set.
    entries: Vec<u32>,
    separator: Vec<u32>,
    /// The blocking-flow search's path of out-nodes.
    path: Vec<u32>,
    /// The leaves and separators found so far.
    groups: Vec<Group>,
    /// The vertices, arranged so that every part is a contiguous range.
    vertices: Vec<u32>,
    /// Parts still to dissect: range in `vertices`, depth, stamp, parent.
    stack: Vec<(usize, usize, u32, u32, u32)>,
    stamps: u32,
}

impl Dissector {
    fn new(graph: &Graph) -> Self {
        // The dissection runs on local ids in BFS order, so that a part's
        // vertices sit close together in every per-vertex array whatever
        // the graph's own numbering.
        let n = graph.num_vertices();
        let mut local = vec![NO_UNIT; n];
        let mut global = Vec::with_capacity(n);
        for root in graph.vertices() {
            if local[root.index()] != NO_UNIT {
                continue;
            }
            let mut head = global.len();
            local[root.index()] = head as u32;
            global.push(root);
            while let Some(&v) = global.get(head) {
                head += 1;
                for (w, _) in graph.neighbors(v) {
                    if local[w.index()] == NO_UNIT {
                        local[w.index()] = global.len() as u32;
                        global.push(w);
                    }
                }
            }
        }
        let mut off = Vec::with_capacity(n + 1);
        let mut adj = Vec::with_capacity(2 * graph.num_edges());
        off.push(0u32);
        for &v in &global {
            adj.extend(graph.neighbors(v).map(|(w, _)| local[w.index()]));
            off.push(adj.len() as u32);
        }
        Dissector {
            global,
            off,
            adj,
            tag: vec![MIDDLE; n],
            pred: vec![NO_UNIT; n],
            mark: vec![0; n],
            cursor: vec![0; n],
            epoch: 0,
            sink_level: NO_UNIT,
            queue: Vec::with_capacity(n),
            arranged: Vec::with_capacity(n),
            entries: Vec::new(),
            separator: Vec::new(),
            path: Vec::new(),
            groups: Vec::new(),
            vertices: (0..n as u32).collect(),
            stack: Vec::new(),
            stamps: 0,
        }
    }

    /// Dissects the graph into its groups.
    fn run(&mut self) -> Vec<Group> {
        // Every vertex starts in part 0, the whole graph.
        self.split(0, self.vertices.len(), 0, 0, NO_PARENT);
        while let Some((lo, hi, depth, stamp, parent)) = self.stack.pop() {
            if hi - lo > LEAF && self.cut(lo, hi, stamp) {
                let separator = std::mem::take(&mut self.separator);
                self.groups.push(Group {
                    depth,
                    parent,
                    members: separator,
                });
                let parent = self.groups.len() as u32 - 1;
                self.split(lo, hi, depth + 1, stamp, parent);
                continue;
            }
            self.groups.push(Group {
                depth,
                parent,
                members: self.vertices[lo..hi].to_vec(),
            });
        }
        std::mem::take(&mut self.groups)
    }

    /// Makes each component of the vertices of `vertices[lo..hi]` still
    /// tagged `stamp` a part of its own at `depth` below the separator
    /// `parent`, with a fresh stamp and its vertices in BFS order from its
    /// first one (so the last is far from it), packed from `lo` on.
    fn split(&mut self, lo: usize, hi: usize, depth: u32, stamp: u32, parent: u32) {
        self.arranged.clear();
        let mut at = lo;
        for i in lo..hi {
            let root = self.vertices[i];
            if self.tag[root as usize] >> 2 != stamp {
                continue;
            }
            self.stamps += 1;
            let fresh = self.stamps << 2 | MIDDLE;
            let start = self.arranged.len();
            self.tag[root as usize] = fresh;
            self.arranged.push(root);
            let mut head = start;
            while let Some(&v) = self.arranged.get(head) {
                head += 1;
                for a in self.arcs(v as usize) {
                    let w = self.adj[a] as usize;
                    if self.tag[w] >> 2 == stamp {
                        self.tag[w] = fresh;
                        self.arranged.push(w as u32);
                    }
                }
            }
            let len = self.arranged.len() - start;
            self.stack.push((at, at + len, depth, self.stamps, parent));
            at += len;
        }
        self.vertices[lo..at].copy_from_slice(&self.arranged);
    }

    /// Cuts the connected part `vertices[lo..hi]`, tagged `stamp`: leaves
    /// its separator in `separator` and tags it [`DONE`], or returns `false`
    /// when the part has no sink set to cut it from.
    fn cut(&mut self, lo: usize, hi: usize, stamp: u32) -> bool {
        let len = hi - lo;
        let k = len * TERMINAL_SHARE.0 / TERMINAL_SHARE.1;
        // The second sweep, from the far end of the first; `frontier` is how
        // many vertices it had reached when the source set was done, so the
        // vertices in `k..frontier` are those adjacent to the source set.
        self.epoch += 1;
        let seen = u64::from(self.epoch) << 32;
        let root = self.vertices[hi - 1];
        self.queue.clear();
        self.queue.push(root);
        self.mark[root as usize] = seen;
        let mut frontier = 1;
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            for a in self.arcs(v as usize) {
                let w = self.adj[a] as usize;
                if self.tag[w] >> 2 == stamp && self.mark[w] != seen {
                    self.mark[w] = seen;
                    self.queue.push(w as u32);
                }
            }
            if head == k {
                frontier = self.queue.len();
            }
        }
        debug_assert_eq!(self.queue.len(), len);
        // Sink vertices adjacent to the source set stay in the middle.
        let sink_from = (len - k).max(frontier);
        if k == 0 || sink_from >= len {
            return false;
        }
        let order = std::mem::take(&mut self.queue);
        let base = stamp << 2;
        for &v in &order[..k] {
            self.tag[v as usize] = base | SOURCE;
        }
        for &v in &order[sink_from..] {
            self.tag[v as usize] = base | SINK;
        }
        self.entries.clear();
        self.entries.extend_from_slice(&order[k..frontier]);

        while self.level_graph(stamp) {
            self.blocking_flow(stamp);
        }
        // The last BFS reached the source side of a minimum cut: the
        // separator is the middle vertices whose in-node it reached (an
        // entry, or a neighbour's out-node sends to it) and whose out-node
        // it did not.
        let middle = stamp << 2 | MIDDLE;
        for (i, &v) in order[k..sink_from].iter().enumerate() {
            let v = v as usize;
            if !self.reached(v)
                && (k + i < frontier
                    || self.arcs(v).any(|a| {
                        let u = self.adj[a] as usize;
                        self.tag[u] == middle && self.reached(u)
                    }))
            {
                self.separator.push(v as u32);
            }
        }
        for &v in &order[k..sink_from] {
            self.pred[v as usize] = NO_UNIT;
        }
        for &v in &self.separator {
            self.tag[v as usize] = DONE;
        }
        self.queue = order;
        true
    }

    /// Appends the group `members` to `sequence` in the order the
    /// minimum-`(degree, id)` elimination pops them, and leaves the boundary
    /// of the group's part in `scratch.boundary`: the live vertices outside
    /// it that are adjacent to it, all in separators above.
    ///
    /// Every part below the group is eliminated by now, and eliminating a
    /// connected part leaves exactly a clique over its boundary (`cliques`:
    /// the boundaries of the parts split off below this group). So the
    /// group's live graph is its members' neighbours that are not
    /// eliminated, those cliques, and the fill of the group's own steps. The
    /// members' rows are built on group-local ids (members first, by vertex
    /// id, so that ties go as they would in one whole-graph elimination; the
    /// boundary after them) and eliminated by the kernel of `elimination.rs`.
    /// `slot` is [`FREE`] or [`ELIMINATED`] for every vertex, before and
    /// after.
    fn order_group<'a>(
        &self,
        members: &[u32],
        cliques: impl Iterator<Item = &'a [u32]>,
        slot: &mut [u32],
        scratch: &mut GroupScratch,
        sequence: &mut Vec<VertexId>,
    ) {
        let GroupScratch {
            members: sorted,
            rows,
            grown,
            clique,
            boundary,
        } = scratch;
        sorted.clear();
        sorted.extend_from_slice(members);
        sorted.sort_unstable_by_key(|&v| self.global[v as usize]);
        let k = sorted.len();
        for (i, &v) in sorted.iter().enumerate() {
            slot[v as usize] = i as u32;
        }
        boundary.clear();
        let mut local = |w: u32, slot: &mut [u32]| -> VertexId {
            if slot[w as usize] == FREE {
                slot[w as usize] = (k + boundary.len()) as u32;
                boundary.push(w);
            }
            VertexId(slot[w as usize])
        };
        if rows.len() < k {
            rows.resize_with(k, Vec::new);
        }
        for (row, &v) in rows.iter_mut().zip(sorted.iter()) {
            row.clear();
            for a in self.arcs(v as usize) {
                let w = self.adj[a];
                if slot[w as usize] != ELIMINATED {
                    row.push(local(w, slot));
                }
            }
        }
        grown.clear();
        grown.resize(k, false);
        for members in cliques {
            clique.clear();
            clique.extend(members.iter().map(|&w| local(w, slot)));
            for &x in clique.iter().filter(|x| x.index() < k) {
                rows[x.index()].extend_from_slice(clique);
                grown[x.index()] = true;
            }
        }
        for (x, row) in rows[..k].iter_mut().enumerate() {
            if grown[x] {
                row.sort_unstable();
                row.dedup();
                row.retain(|&u| u.index() != x);
            }
        }
        let width = k + boundary.len();
        for x in min_degree_sequence(rows, k, width, DENSE_TAIL) {
            sequence.push(self.global[sorted[x.index()] as usize]);
        }
        for &v in sorted.iter() {
            slot[v as usize] = ELIMINATED;
        }
        for &w in boundary.iter() {
            slot[w as usize] = FREE;
        }
    }

    #[inline]
    fn arcs(&self, v: usize) -> std::ops::Range<usize> {
        self.off[v] as usize..self.off[v + 1] as usize
    }

    /// Whether the current phase's BFS reached the out-node of `v`.
    #[inline]
    fn reached(&self, v: usize) -> bool {
        self.mark[v] >> 32 == u64::from(self.epoch)
    }

    /// The out-node an in-node leads on to (its only way out): its own
    /// while its unit arc is free, else that of the vertex its unit comes
    /// from; `None` when that is the source terminal.
    #[inline]
    fn onward(&self, w: usize) -> Option<usize> {
        match self.pred[w] {
            NO_UNIT => Some(w),
            FROM_SOURCE => None,
            u => Some(u as usize),
        }
    }

    /// One Dinic phase's BFS from the source terminal over the residual
    /// split graph of the part. Returns whether it reached the sink
    /// terminal; it stops at the first node that does.
    ///
    /// Only out-nodes are visited: an in-node has one way out
    /// ([`Self::onward`]), so a move `out(v) → in(w) → out(y)` is one step,
    /// and `v`'s own saturated unit arc is the step `out(v) → in(v) →
    /// out(pred[v])`. A node's level counts these steps.
    fn level_graph(&mut self, stamp: u32) -> bool {
        self.epoch += 1;
        let seen = u64::from(self.epoch) << 32;
        let (middle, sink) = (stamp << 2 | MIDDLE, stamp << 2 | SINK);
        self.sink_level = NO_UNIT;
        self.queue.clear();
        let visit = |this: &mut Self, y: Option<usize>, level: u64| {
            if let Some(y) = y {
                if this.mark[y] >> 32 != seen >> 32 {
                    this.mark[y] = seen | level;
                    this.cursor[y] = 0;
                    this.queue.push(y as u32);
                }
            }
        };
        for e in 0..self.entries.len() {
            let m = self.entries[e] as usize;
            visit(self, self.onward(m), 0);
        }
        let mut head = 0;
        while let Some(&v) = self.queue.get(head) {
            head += 1;
            let v = v as usize;
            let next = (self.mark[v] as u32 + 1) as u64;
            if let u @ 0..FROM_SOURCE = self.pred[v] {
                visit(self, Some(u as usize), next);
            }
            for a in self.arcs(v) {
                let w = self.adj[a] as usize;
                let t = self.tag[w];
                if t == middle {
                    visit(self, self.onward(w), next);
                } else if t == sink {
                    self.sink_level = next as u32;
                }
            }
            if self.sink_level != NO_UNIT {
                return true;
            }
        }
        false
    }

    /// The next admissible step out of `v`'s out-node at or after its
    /// cursor (a neighbour's in-node, or `v`'s own unit arc back), leaving
    /// the cursor on it.
    fn advance(&mut self, v: usize, stamp: u32) -> Step {
        // Nodes at the sink's level or beyond lead nowhere.
        let level = self.mark[v] as u32 + 1;
        let want = if level < self.sink_level {
            (self.mark[v] >> 32 << 32) | level as u64
        } else {
            u64::MAX
        };
        let (middle, sink) = (stamp << 2 | MIDDLE, stamp << 2 | SINK);
        let arcs = self.arcs(v);
        loop {
            let a = arcs.start + self.cursor[v] as usize;
            if a < arcs.end {
                let w = self.adj[a] as usize;
                let t = self.tag[w];
                if t == middle {
                    if let Some(y) = self.onward(w) {
                        if self.mark[y] == want {
                            return Step::To(y as u32);
                        }
                    }
                } else if t == sink && level == self.sink_level {
                    return Step::Sink;
                }
            } else if a == arcs.end {
                if let u @ 0..FROM_SOURCE = self.pred[v] {
                    if self.mark[u as usize] == want {
                        return Step::To(u);
                    }
                }
            } else {
                return Step::Dead;
            }
            self.cursor[v] += 1;
        }
    }

    /// One Dinic phase's blocking flow: unit paths from the source terminal
    /// to the sink terminal along the levels `level_graph` set. An entry's
    /// in-node forwards at most one unit, so each entry is tried once.
    fn blocking_flow(&mut self, stamp: u32) {
        for e in 0..self.entries.len() {
            let m = self.entries[e] as usize;
            let Some(first) = self.onward(m) else {
                continue;
            };
            if self.mark[first] >> 32 != u64::from(self.epoch) || self.mark[first] as u32 != 0 {
                continue;
            }
            self.path.clear();
            self.path.push(first as u32);
            while let Some(&v) = self.path.last() {
                match self.advance(v as usize, stamp) {
                    Step::To(y) => self.path.push(y),
                    Step::Sink => {
                        self.augment(m);
                        break;
                    }
                    Step::Dead => {
                        self.mark[v as usize] |= u32::MAX as u64;
                        self.path.pop();
                        if let Some(&p) = self.path.last() {
                            self.cursor[p as usize] += 1;
                        }
                    }
                }
            }
        }
    }

    /// Pushes one unit from the source terminal through the in-node of
    /// entry `m` and along `path` to the sink terminal.
    fn augment(&mut self, m: usize) {
        self.pred[m] = FROM_SOURCE;
        for i in 0..self.path.len() - 1 {
            let u = self.path[i] as usize;
            let a = self.off[u] as usize + self.cursor[u] as usize;
            if a < self.off[u + 1] as usize {
                // `out(u) → in(w)`: `w`'s unit now comes from `u` (and the
                // unit it had, if any, is cancelled by the step on).
                self.pred[self.adj[a] as usize] = u as u32;
            } else {
                // Back along `u`'s unit arc and the unit's arc into `u`.
                self.pred[u] = NO_UNIT;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChQuery, ContractionHierarchy, OrderingStrategy, ShortcutMode};
    use htsp_graph::gen::{grid, grid_with_diagonals, random_geometric, WeightRange};
    use htsp_graph::{GraphBuilder, QuerySet, UpdateGenerator, VertexId};
    use htsp_search::dijkstra_distance;

    /// The groups, deepest first, as `(depth, vertices)`.
    fn dissection_groups(g: &Graph) -> Vec<(u32, Vec<VertexId>)> {
        let Dissection {
            dissector,
            mut groups,
        } = Dissection::new(g);
        groups.sort_by_key(|group| std::cmp::Reverse(group.depth));
        let global = |v: &u32| dissector.global[*v as usize];
        let groups = groups.iter();
        groups
            .map(|group| (group.depth, group.members.iter().map(global).collect()))
            .collect()
    }

    /// Per vertex, the depth of its group in the dissection tree.
    fn dissect(g: &Graph) -> Vec<u32> {
        let mut depth = vec![u32::MAX; g.num_vertices()];
        for (d, group) in dissection_groups(g) {
            for v in group {
                assert_eq!(depth[v.index()], u32::MAX, "{v} in two groups");
                depth[v.index()] = d;
            }
        }
        assert!(depth.iter().all(|&d| d != u32::MAX), "a vertex in no group");
        depth
    }

    /// The parts of the dissection tree at depth `d` are the components of
    /// the subgraph of the vertices at depth `d` or deeper; each one's
    /// vertices at depth exactly `d` are its separator, or the whole part
    /// when it was not cut. Returns `(part size, separator size)` for every
    /// part, after checking that every separator splits its part.
    fn parts(g: &Graph, depth: &[u32]) -> Vec<(usize, usize)> {
        let n = g.num_vertices();
        assert_eq!(depth.len(), n);
        let components = |keep: &dyn Fn(usize) -> bool| {
            let mut label = vec![usize::MAX; n];
            let mut count = 0;
            for s in (0..n).filter(|&v| keep(v)) {
                if label[s] != usize::MAX {
                    continue;
                }
                let mut stack = vec![s];
                label[s] = count;
                while let Some(u) = stack.pop() {
                    for (w, _) in g.neighbors(VertexId::from_index(u)) {
                        if keep(w.index()) && label[w.index()] == usize::MAX {
                            label[w.index()] = count;
                            stack.push(w.index());
                        }
                    }
                }
                count += 1;
            }
            (label, count)
        };
        let mut found = Vec::new();
        for d in 0..=depth.iter().copied().max().unwrap_or(0) {
            let (label, count) = components(&|v| depth[v] >= d);
            for c in 0..count {
                let part = |v: usize| label[v] == c;
                let size = (0..n).filter(|&v| part(v)).count();
                let separator = (0..n).filter(|&v| part(v) && depth[v] == d).count();
                assert!(separator > 0, "a part at depth {d} has no vertex there");
                if separator < size {
                    let (_, pieces) = components(&|v| part(v) && depth[v] > d);
                    assert!(
                        pieces >= 2,
                        "a separator of {separator} left its part whole"
                    );
                }
                found.push((size, separator));
            }
        }
        found
    }

    /// Parts that were cut.
    fn cuts(g: &Graph, depth: &[u32]) -> Vec<(usize, usize)> {
        parts(g, depth)
            .into_iter()
            .filter(|&(size, separator)| separator < size)
            .collect()
    }

    #[test]
    fn grids_and_road_like_graphs_are_cut_and_every_cut_splits() {
        for g in [
            grid(40, 40, WeightRange::new(1, 50), 1),
            grid_with_diagonals(48, 48, WeightRange::new(1, 50), 0.1, 2),
            random_geometric(3000, 3, WeightRange::new(1, 50), 3),
        ] {
            let depth = dissect(&g);
            let cuts = cuts(&g, &depth);
            assert!(cuts.len() >= 3, "{} cuts", cuts.len());
            // Balanced: the top separator is small beside its part.
            let (size, separator) = cuts[0];
            assert!(separator * 8 < size, "top cut {separator} of {size}");
        }
    }

    #[test]
    fn the_groups_depend_on_the_topology_alone() {
        let a = grid_with_diagonals(30, 30, WeightRange::new(1, 9), 0.2, 7);
        let mut b = GraphBuilder::new(a.num_vertices());
        for (_, u, v, w) in a.edges() {
            b.add_edge(u, v, w * 7 + 1);
        }
        let b = b.build();
        assert_eq!(dissection_groups(&a), dissection_groups(&a));
        assert_eq!(dissection_groups(&a), dissection_groups(&b));
    }

    #[test]
    fn small_and_uncuttable_graphs_are_one_leaf() {
        // Below a leaf, a path, a star and a clique: nothing is cut.
        let mut path = GraphBuilder::new(LEAF);
        for v in 1..LEAF as u32 {
            path.add_edge(VertexId(v - 1), VertexId(v), 1);
        }
        let mut star = GraphBuilder::new(3 * LEAF);
        for leaf in 1..3 * LEAF as u32 {
            star.add_edge(VertexId(0), VertexId(leaf), leaf);
        }
        let k = LEAF + 20;
        let mut clique = GraphBuilder::new(k);
        for u in 0..k as u32 {
            for v in u + 1..k as u32 {
                clique.add_edge(VertexId(u), VertexId(v), 1 + (u + v) % 5);
            }
        }
        for g in [path.build(), star.build(), clique.build()] {
            let depth = dissect(&g);
            assert!(depth.iter().all(|&d| d == 0));
            let n = g.num_vertices();
            assert_eq!(parts(&g, &depth), vec![(n, n)]);
            assert_eq!(dissection_groups(&g).len(), 1);
        }
        assert!(dissect(&GraphBuilder::new(0).build()).is_empty());
    }

    #[test]
    fn a_long_path_is_halved_down_to_leaves() {
        let n = 8 * LEAF;
        let mut b = GraphBuilder::new(n);
        for v in 1..n as u32 {
            b.add_edge(VertexId(v - 1), VertexId(v), 1);
        }
        let g = b.build();
        let parts = parts(&g, &dissect(&g));
        // A path's minimum cut is one vertex, and it is cut down to leaves.
        for &(size, separator) in &parts {
            assert!(separator == 1 || (separator == size && size <= LEAF));
        }
        assert!(parts.iter().filter(|p| p.1 == 1).count() >= n / LEAF - 1);
    }

    #[test]
    fn components_are_dissected_apart() {
        // Two grids and an isolated vertex, no edge between them.
        let a = grid(30, 30, WeightRange::new(1, 9), 1);
        let na = a.num_vertices();
        let mut b = GraphBuilder::new(2 * na + 1);
        for (_, u, v, w) in a.edges() {
            b.add_edge(u, v, w);
            b.add_edge(VertexId(u.0 + na as u32), VertexId(v.0 + na as u32), w);
        }
        let g = b.build();
        let depth = dissect(&g);
        // Each grid is dissected as it is alone (its ids shifted), and the
        // isolated vertex is a leaf at the top.
        let alone = dissect(&a);
        assert_eq!(depth[..na], alone[..]);
        assert_eq!(depth[na..2 * na], alone[..]);
        assert_eq!(depth[2 * na], 0);
        assert!(cuts(&g, &depth).len() >= 6);
    }

    /// The graphs the order-level tests run on: cut ones of each family,
    /// two components with an isolated vertex, and uncuttable ones.
    fn families() -> Vec<(&'static str, Graph)> {
        let a = grid(24, 24, WeightRange::new(1, 30), 5);
        let na = a.num_vertices() as u32;
        let mut split = GraphBuilder::new(2 * na as usize + 1);
        for (_, u, v, w) in a.edges() {
            split.add_edge(u, v, w);
            split.add_edge(VertexId(u.0 + na), VertexId(v.0 + na), w + 3);
        }
        let mut star = GraphBuilder::new(2 * LEAF);
        for leaf in 1..2 * LEAF as u32 {
            star.add_edge(VertexId(0), VertexId(leaf), leaf);
        }
        let mut clique = GraphBuilder::new(LEAF + 10);
        for u in 0..LEAF as u32 + 10 {
            for v in u + 1..LEAF as u32 + 10 {
                clique.add_edge(VertexId(u), VertexId(v), 1 + (u * v) % 7);
            }
        }
        let mut path = GraphBuilder::new(5 * LEAF);
        for v in 1..5 * LEAF as u32 {
            path.add_edge(VertexId(v - 1), VertexId(v), 1 + v % 4);
        }
        vec![
            ("grid", grid(30, 30, WeightRange::new(1, 40), 1)),
            (
                "grid with diagonals",
                grid_with_diagonals(36, 36, WeightRange::new(1, 40), 0.1, 2),
            ),
            (
                "random geometric",
                random_geometric(2000, 3, WeightRange::new(1, 40), 3),
            ),
            ("two grids and an isolated vertex", split.build()),
            ("star", star.build()),
            ("clique", clique.build()),
            ("path", path.build()),
            ("below a leaf", grid(8, 8, WeightRange::new(1, 9), 4)),
        ]
    }

    /// XXH64 of an order's sequence, little-endian `u32` ids.
    fn sequence_hash(order: &VertexOrder) -> u64 {
        let bytes: Vec<u8> = order
            .sequence()
            .iter()
            .flat_map(|v| v.0.to_le_bytes())
            .collect();
        htsp_graph::snapshot::checksum64(&bytes)
    }

    #[test]
    fn nested_dissection_orders_are_pinned() {
        let w = WeightRange::new(1, 100);
        let a = grid(24, 24, WeightRange::new(1, 30), 5);
        let na = a.num_vertices() as u32;
        let mut split = GraphBuilder::new(2 * na as usize + 3);
        for (_, u, v, w) in a.edges() {
            split.add_edge(u, v, w);
            split.add_edge(VertexId(u.0 + na), VertexId(v.0 + na), w + 3);
        }
        let mut star = GraphBuilder::new(96);
        for leaf in 1..96 {
            star.add_edge(VertexId(0), VertexId(leaf), leaf);
        }
        let mut clique = GraphBuilder::new(52);
        for u in 0..52 {
            for v in u + 1..52 {
                clique.add_edge(VertexId(u), VertexId(v), 1 + (u * v) % 7);
            }
        }
        let mut path = GraphBuilder::new(160);
        for v in 1..160 {
            path.add_edge(VertexId(v - 1), VertexId(v), 1 + v % 4);
        }
        for (name, g, pin) in [
            (
                "grid64",
                grid_with_diagonals(64, 64, w, 0.1, 42),
                0xa42fdb00cb30c004,
            ),
            (
                "grid128",
                grid_with_diagonals(128, 128, w, 0.1, 42),
                0xf2a8ae7485a41194,
            ),
            (
                "rg2000",
                random_geometric(2000, 3, w, 3),
                0x661392e2cac1c3b4,
            ),
            (
                "two grids and two isolated vertices",
                split.build(),
                0x86b0e1a77f4c1c84,
            ),
            ("95-leaf star", star.build(), 0x5a81a5ecdd0817a3),
            ("52-clique", clique.build(), 0x01a79051dece6fce),
            ("160-path", path.build(), 0x5452c6efe5088d5e),
        ] {
            assert_eq!(sequence_hash(&nested_dissection_order(&g)), pin, "{name}");
        }
    }

    #[test]
    fn a_star_wider_than_the_dense_tail_is_ordered_leaf_by_leaf() {
        // A star is never cut: one leaf group. Every leaf has degree 1 and
        // goes first by id, until the hub (id 0) ties the last leaf.
        let n = DENSE_TAIL as u32 + 500;
        let mut star = GraphBuilder::new(n as usize);
        for leaf in 1..n {
            star.add_edge(VertexId(0), VertexId(leaf), leaf);
        }
        let mut expect: Vec<VertexId> = (1..n - 1).map(VertexId).collect();
        expect.extend([VertexId(0), VertexId(n - 1)]);
        assert_eq!(
            nested_dissection_order(&star.build()).sequence(),
            &expect[..]
        );
    }

    fn nested(g: &Graph) -> ContractionHierarchy {
        ContractionHierarchy::build(
            g,
            OrderingStrategy::NestedDissection,
            ShortcutMode::AllPairs,
        )
    }

    #[test]
    fn the_order_is_a_permutation_and_a_function_of_the_topology() {
        for (name, g) in families() {
            let ch = nested(&g);
            let mut ranks = ch.order().ranks().to_vec();
            ranks.sort_unstable();
            assert_eq!(
                ranks,
                (0..g.num_vertices() as u32).collect::<Vec<_>>(),
                "{name}"
            );
            assert_eq!(nested(&g).order(), ch.order(), "{name}: a second run");
            // New weights, same topology: the same order.
            let mut b = GraphBuilder::new(g.num_vertices());
            for (_, u, v, w) in g.edges() {
                b.add_edge(u, v, w % 5 * 1000 + 1);
            }
            assert_eq!(nested(&b.build()).order(), ch.order(), "{name}: reweighted");
        }
    }

    #[test]
    fn a_hierarchy_on_the_dissection_answers_like_dijkstra_before_and_after_a_batch() {
        for (name, mut g) in families() {
            let mut ch = nested(&g);
            let mut query = ChQuery::new(g.num_vertices());
            let mut updates = UpdateGenerator::new(7);
            for round in 0..2 {
                for q in &QuerySet::random(&g, 120, 11 + round) {
                    assert_eq!(
                        query.distance(&ch, q.source, q.target),
                        dijkstra_distance(&g, q.source, q.target),
                        "{name}, round {round}: {q:?}"
                    );
                }
                let batch = updates.generate(&g, 40);
                g.apply_batch(&batch);
                ch.apply_batch(&g, batch.as_slice());
            }
        }
    }
}
