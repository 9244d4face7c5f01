//! Synthetic road-like network generators.
//!
//! The paper evaluates on eight real road networks (Table I) ranging from
//! 264k to 24M vertices. Those datasets (and the NavInfo China networks) are
//! not redistributable here, so this module provides laptop-scale synthetic
//! substitutes that preserve the structural properties the algorithms depend
//! on: near-planar topology, low average degree (~2.5), strong locality,
//! small separators and low treewidth.
//!
//! Three families are provided:
//!
//! * [`grid`] — an `w × h` lattice with 4-neighborhood and randomly perturbed
//!   weights, optionally with random "diagonal shortcuts" ([`grid_with_diagonals`]);
//!   the classic Manhattan-style city model.
//! * [`ring_radial`] — concentric rings connected by radial avenues, a
//!   European-city model with a denser core (produces a natural
//!   core-periphery structure).
//! * [`random_geometric`] — points scattered uniformly in the unit square and
//!   connected to their nearest neighbors (Delaunay-like sparse connectivity),
//!   which mimics rural/inter-city road topology.
//!
//! All generators are deterministic given their seed and always return a
//! connected graph.

use crate::graph::{Graph, GraphBuilder};
use crate::types::{VertexId, Weight};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Inclusive range of edge weights used by the generators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WeightRange {
    /// Minimum weight (must be ≥ 1).
    pub min: Weight,
    /// Maximum weight (must be ≥ `min`).
    pub max: Weight,
}

impl WeightRange {
    /// Creates a new weight range, panicking if `min == 0` or `min > max`.
    pub fn new(min: Weight, max: Weight) -> Self {
        assert!(min >= 1, "weights must be strictly positive");
        assert!(min <= max, "min must not exceed max");
        WeightRange { min, max }
    }

    fn sample(&self, rng: &mut impl Rng) -> Weight {
        rng.gen_range(self.min..=self.max)
    }
}

impl Default for WeightRange {
    fn default() -> Self {
        WeightRange { min: 1, max: 100 }
    }
}

/// Generates a `width × height` grid road network.
///
/// Vertex `(x, y)` has index `y * width + x`; horizontal and vertical
/// neighbors are connected with weights sampled from `weights`.
pub fn grid(width: usize, height: usize, weights: WeightRange, seed: u64) -> Graph {
    assert!(width >= 1 && height >= 1, "grid dimensions must be >= 1");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = width * height;
    let mut b = GraphBuilder::new(n);
    let id = |x: usize, y: usize| VertexId::from_index(y * width + x);
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                b.add_edge(id(x, y), id(x + 1, y), weights.sample(&mut rng));
            }
            if y + 1 < height {
                b.add_edge(id(x, y), id(x, y + 1), weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// Grid network with an extra fraction of diagonal shortcut edges, which adds
/// triangles (slightly higher treewidth) and more route diversity.
pub fn grid_with_diagonals(
    width: usize,
    height: usize,
    weights: WeightRange,
    diagonal_fraction: f64,
    seed: u64,
) -> Graph {
    assert!(
        (0.0..=1.0).contains(&diagonal_fraction),
        "diagonal_fraction must be in [0, 1]"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = width * height;
    let mut b = GraphBuilder::new(n);
    let id = |x: usize, y: usize| VertexId::from_index(y * width + x);
    for y in 0..height {
        for x in 0..width {
            if x + 1 < width {
                b.add_edge(id(x, y), id(x + 1, y), weights.sample(&mut rng));
            }
            if y + 1 < height {
                b.add_edge(id(x, y), id(x, y + 1), weights.sample(&mut rng));
            }
            if x + 1 < width && y + 1 < height && rng.gen_bool(diagonal_fraction) {
                // Diagonals are a bit longer than axis edges on average.
                let w = weights.sample(&mut rng).saturating_add(weights.min).max(1);
                b.add_edge(id(x, y), id(x + 1, y + 1), w);
            }
        }
    }
    b.build()
}

/// Generates a ring-radial ("spider-web") city network.
///
/// `rings` concentric rings each hold `spokes` vertices; consecutive vertices
/// on a ring are connected, and each vertex is connected to the corresponding
/// vertex on the next ring. A central vertex connects to the innermost ring.
pub fn ring_radial(rings: usize, spokes: usize, weights: WeightRange, seed: u64) -> Graph {
    assert!(rings >= 1 && spokes >= 3, "need >=1 ring and >=3 spokes");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n = rings * spokes + 1;
    let mut b = GraphBuilder::new(n);
    let center = VertexId(0);
    let id = |ring: usize, spoke: usize| VertexId::from_index(1 + ring * spokes + (spoke % spokes));
    for s in 0..spokes {
        b.add_edge(center, id(0, s), weights.sample(&mut rng));
    }
    for r in 0..rings {
        for s in 0..spokes {
            // Ring edge; outer rings are longer (scaled by ring index).
            let scale = (r + 1) as Weight;
            let w = weights.sample(&mut rng).saturating_mul(scale).max(1);
            b.add_edge(id(r, s), id(r, s + 1), w);
            // Radial edge to the next ring.
            if r + 1 < rings {
                b.add_edge(id(r, s), id(r + 1, s), weights.sample(&mut rng));
            }
        }
    }
    b.build()
}

/// Generates a random geometric road network: `n` points are scattered
/// uniformly in the unit square, each point is connected to its `k` nearest
/// neighbors, and the weight of an edge is its Euclidean length scaled to
/// the weight range. A spanning pass guarantees connectivity.
pub fn random_geometric(n: usize, k: usize, weights: WeightRange, seed: u64) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    assert!(k >= 1, "need at least one neighbor per vertex");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pts: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect();

    let span = (weights.max - weights.min) as f64;
    let weight_of = |a: (f64, f64), b: (f64, f64)| -> Weight {
        let d = ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt();
        // Normalize by the diagonal of the unit square.
        let t = (d / std::f64::consts::SQRT_2).clamp(0.0, 1.0);
        (weights.min as f64 + t * span).round().max(1.0) as Weight
    };

    // Sort vertices on a coarse grid to find near neighbors cheaply (avoids
    // the O(n^2) all-pairs scan for larger n).
    let cells = (n as f64).sqrt().ceil() as usize;
    let cell_of = |p: (f64, f64)| -> (usize, usize) {
        let cx = ((p.0 * cells as f64) as usize).min(cells - 1);
        let cy = ((p.1 * cells as f64) as usize).min(cells - 1);
        (cx, cy)
    };
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); cells * cells];
    for (i, &p) in pts.iter().enumerate() {
        let (cx, cy) = cell_of(p);
        buckets[cy * cells + cx].push(i);
    }

    let mut b = GraphBuilder::new(n);
    let mut cand: Vec<(f64, usize)> = Vec::new();
    for i in 0..n {
        let (cx, cy) = cell_of(pts[i]);
        cand.clear();
        // Expand the search ring until we have enough candidates.
        let mut radius = 1usize;
        loop {
            cand.clear();
            let x0 = cx.saturating_sub(radius);
            let x1 = (cx + radius).min(cells - 1);
            let y0 = cy.saturating_sub(radius);
            let y1 = (cy + radius).min(cells - 1);
            for gy in y0..=y1 {
                for gx in x0..=x1 {
                    for &j in &buckets[gy * cells + gx] {
                        if j != i {
                            let d = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                            cand.push((d, j));
                        }
                    }
                }
            }
            if cand.len() >= k || (x0 == 0 && y0 == 0 && x1 == cells - 1 && y1 == cells - 1) {
                break;
            }
            radius += 1;
        }
        cand.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for &(_, j) in cand.iter().take(k) {
            b.add_edge(
                VertexId::from_index(i),
                VertexId::from_index(j),
                weight_of(pts[i], pts[j]),
            );
        }
    }
    let mut g = b.build();
    g = connect_components(g, &pts, weights);
    g
}

/// Connects any remaining components by adding an edge between the closest
/// pair of vertices in different components (repeatedly, component by
/// component). Preserves determinism because it only depends on `pts`.
fn connect_components(g: Graph, pts: &[(f64, f64)], weights: WeightRange) -> Graph {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut num_comp = 0usize;
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![VertexId::from_index(start)];
        comp[start] = num_comp;
        while let Some(v) = stack.pop() {
            for arc in g.arcs(v) {
                if comp[arc.to.index()] == usize::MAX {
                    comp[arc.to.index()] = num_comp;
                    stack.push(arc.to);
                }
            }
        }
        num_comp += 1;
    }
    if num_comp <= 1 {
        return g;
    }
    let span = (weights.max - weights.min) as f64;
    let mut b = GraphBuilder::new(n);
    for (_, u, v, w) in g.edges() {
        b.add_edge(u, v, w);
    }
    // Greedily merge components 1..k into component 0 by the closest pair.
    let mut comp_of = comp;
    for target in 1..num_comp {
        let mut best: Option<(f64, usize, usize)> = None;
        for i in 0..n {
            if comp_of[i] != target {
                continue;
            }
            for j in 0..n {
                if comp_of[j] == target {
                    continue;
                }
                let d = (pts[i].0 - pts[j].0).powi(2) + (pts[i].1 - pts[j].1).powi(2);
                if best.is_none_or(|(bd, _, _)| d < bd) {
                    best = Some((d, i, j));
                }
            }
        }
        if let Some((d, i, j)) = best {
            let t = (d.sqrt() / std::f64::consts::SQRT_2).clamp(0.0, 1.0);
            let w = (weights.min as f64 + t * span).round().max(1.0) as Weight;
            b.add_edge(VertexId::from_index(i), VertexId::from_index(j), w);
            // Relabel the merged component.
            let absorbed: Vec<usize> = (0..n).filter(|&x| comp_of[x] == target).collect();
            let new_label = comp_of[j];
            for x in absorbed {
                comp_of[x] = new_label;
            }
        }
    }
    b.build()
}

/// Named synthetic dataset presets mirroring the *roles* of Table I (small
/// city → national network) at laptop scale.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Preset {
    /// ~1k vertices; stand-in for a district network (quick tests).
    Tiny,
    /// ~4k vertices; stand-in for NY (small city).
    Small,
    /// ~16k vertices; stand-in for FLA/GD (state / province).
    Medium,
    /// ~64k vertices; stand-in for W/EC (multi-state region).
    Large,
}

impl Preset {
    /// Human-readable dataset name used in experiment output tables.
    pub fn name(self) -> &'static str {
        match self {
            Preset::Tiny => "TINY-grid1k",
            Preset::Small => "SMALL-grid4k",
            Preset::Medium => "MEDIUM-grid16k",
            Preset::Large => "LARGE-grid64k",
        }
    }

    /// Builds the preset graph deterministically.
    pub fn build(self, seed: u64) -> Graph {
        let w = WeightRange::new(1, 100);
        match self {
            Preset::Tiny => grid_with_diagonals(32, 32, w, 0.1, seed),
            Preset::Small => grid_with_diagonals(64, 64, w, 0.1, seed),
            Preset::Medium => grid_with_diagonals(128, 128, w, 0.08, seed),
            Preset::Large => grid_with_diagonals(256, 256, w, 0.05, seed),
        }
    }

    /// All presets, smallest first.
    pub fn all() -> [Preset; 4] {
        [Preset::Tiny, Preset::Small, Preset::Medium, Preset::Large]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape_and_connectivity() {
        let g = grid(5, 4, WeightRange::new(1, 9), 1);
        assert_eq!(g.num_vertices(), 20);
        // 4*(5-1) horizontal + 5*(4-1) vertical = 16 + 15 = 31
        assert_eq!(g.num_edges(), 31);
        assert!(g.is_connected());
        g.validate().unwrap();
    }

    #[test]
    fn grid_is_deterministic() {
        let a = grid(6, 6, WeightRange::new(1, 50), 7);
        let b = grid(6, 6, WeightRange::new(1, 50), 7);
        assert_eq!(a.total_weight(), b.total_weight());
        let c = grid(6, 6, WeightRange::new(1, 50), 8);
        // Different seed will almost surely differ in total weight.
        assert_ne!(a.total_weight(), c.total_weight());
    }

    #[test]
    fn grid_with_diagonals_adds_edges() {
        let plain = grid(10, 10, WeightRange::new(1, 10), 3);
        let diag = grid_with_diagonals(10, 10, WeightRange::new(1, 10), 1.0, 3);
        assert!(diag.num_edges() > plain.num_edges());
        assert!(diag.is_connected());
        diag.validate().unwrap();
    }

    #[test]
    fn ring_radial_connectivity() {
        let g = ring_radial(4, 8, WeightRange::new(1, 20), 5);
        assert_eq!(g.num_vertices(), 4 * 8 + 1);
        assert!(g.is_connected());
        g.validate().unwrap();
        // Center has degree == spokes.
        assert_eq!(g.degree(VertexId(0)), 8);
    }

    #[test]
    fn random_geometric_connected_and_sparse() {
        let g = random_geometric(300, 3, WeightRange::new(1, 100), 11);
        assert_eq!(g.num_vertices(), 300);
        assert!(g.is_connected());
        g.validate().unwrap();
        // Road-like sparsity: average degree stays small.
        let avg_deg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(avg_deg < 10.0, "average degree {avg_deg} too high");
    }

    #[test]
    fn random_geometric_deterministic() {
        let a = random_geometric(200, 3, WeightRange::new(1, 100), 2);
        let b = random_geometric(200, 3, WeightRange::new(1, 100), 2);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.total_weight(), b.total_weight());
    }

    #[test]
    fn presets_build_connected_graphs() {
        for p in [Preset::Tiny, Preset::Small] {
            let g = p.build(1);
            assert!(g.is_connected(), "{} should be connected", p.name());
            assert!(g.num_vertices() >= 1000);
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_min_weight_rejected() {
        let _ = WeightRange::new(0, 5);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn inverted_weight_range_rejected() {
        let _ = WeightRange::new(10, 5);
    }
}
