//! The load generator: fixed datasets, and seeded query pairs, update
//! batches and request arrivals.
//!
//! Graph topology and initial weights are a fixed dataset (they do not
//! depend on `--seed`); the seed drives everything that is offered to the
//! program. The program only ever receives what is generated here.

use crate::api::{self, Request, Update};
use crate::rng::Rng;

/// A fixed dataset plus the schedule and limit that fit its size.
#[derive(Clone, Copy, Debug)]
pub struct Preset {
    pub name: &'static str,
    pub side: usize,
    pub diagonal_share: f64,
    /// Update interval δt: one batch is due every `update_interval_s`.
    pub update_interval_s: f64,
    /// The response-time limit R*. It sits between what a request costs on
    /// the final stage and what a PointToPoint x16 request costs on the
    /// BiDijkstra fallback, with a wide margin on both sides, so that
    /// `slo_ok_share` says how many requests met a repaired index.
    pub slo_ms: f64,
}

/// The dataset every measured run uses: the contract gives 92 runs 57
/// minutes, and on the issue's 128 x 128 grid one PostMHL repair alone takes
/// 4.4 s on a calm 2-core runner.
pub const GRID64: Preset = Preset {
    name: "grid64",
    side: 64,
    diagonal_share: 0.1,
    update_interval_s: 1.0,
    slo_ms: 1.0,
};

/// The size of `--smoke` and of the package's tests.
pub const GRID32: Preset = Preset {
    name: "grid32",
    side: 32,
    diagonal_share: 0.1,
    update_interval_s: 0.25,
    slo_ms: 0.25,
};

/// Offered request rate of the open-loop workload, requests per second: well
/// under what one worker serves even on the fallback stage, so that latency
/// is service time plus a short queue, not a backlog whose length depends on
/// which thread the host happened to slow.
pub const OPEN_LOOP_RATE: f64 = 200.0;

pub const DATASET_SEED: u64 = 42;

pub fn dataset(p: &Preset) -> api::Graph {
    api::grid_graph(p.side, p.diagonal_share, DATASET_SEED)
}

/// Size of the pair pool the closed-loop clients cycle through.
pub const PAIR_POOL: usize = 1 << 16;
/// Edge updates per batch, |U|.
pub const BATCH_SIZE: usize = 200;
/// Hops of the random walk that picks a *near* target.
const NEAR_HOPS: usize = 8;
/// No weight is doubled past this, so repeated doubling cannot overflow.
const MAX_WEIGHT: u32 = 1_000_000;

/// One open-loop request and the moment it is due, in seconds from the
/// start of its window.
#[derive(Clone, Debug)]
pub struct Arrival {
    pub due_s: f64,
    pub request: Request,
}

/// What one round of a run needs generated. Every round draws from its own
/// streams of the run's seed.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub round: u64,
    /// Update batches, in submission order.
    pub batches: usize,
    /// Length of the arrival schedule in seconds (0 when the workload offers
    /// no requests).
    pub request_seconds: f64,
}

pub struct Inputs {
    /// Even positions hold *far* pairs (uniform s, t), odd positions *near*
    /// pairs (t an 8-hop random walk from s): 50 % each.
    pub pairs: Vec<(u32, u32)>,
    pub batches: Vec<Vec<Update>>,
    pub requests: Vec<Arrival>,
    /// FNV-1a over everything above: equal hashes mean equal inputs.
    pub hash: u64,
}

impl Inputs {
    pub fn far_pairs(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().copied().step_by(2).collect()
    }

    pub fn near_pairs(&self) -> Vec<(u32, u32)> {
        self.pairs.iter().copied().skip(1).step_by(2).collect()
    }
}

struct Walker {
    adjacency: Vec<Vec<u32>>,
}

impl Walker {
    fn new(n: usize, edges: &[(u32, u32, u32)]) -> Self {
        let mut adjacency = vec![Vec::new(); n];
        for &(u, v, _) in edges {
            adjacency[u as usize].push(v);
            adjacency[v as usize].push(u);
        }
        Walker { adjacency }
    }

    fn near(&self, rng: &mut Rng, s: u32) -> u32 {
        let mut at = s;
        let mut hops = 0;
        // Keep walking past the 8th hop only if the walk came back to s.
        while hops < NEAR_HOPS || at == s {
            let next = &self.adjacency[at as usize];
            if next.is_empty() {
                break;
            }
            at = next[rng.below(next.len() as u64) as usize];
            hops += 1;
        }
        at
    }
}

fn far_pair(rng: &mut Rng, n: u64) -> (u32, u32) {
    loop {
        let (s, t) = (rng.below(n) as u32, rng.below(n) as u32);
        if s != t {
            return (s, t);
        }
    }
}

pub fn generate(graph: &api::Graph, plan: &Plan) -> Inputs {
    let n = api::num_vertices(graph);
    let edges = api::edge_list(graph);
    let walker = Walker::new(n, &edges);

    // Streams 1 to 3 of round 0, 5 to 7 of round 1, and so on.
    let stream = |kind: u64| 4 * plan.round + kind;
    let mut rng = Rng::new(plan.seed, stream(1));
    let pair = |rng: &mut Rng, near: bool| {
        let (s, t) = far_pair(rng, n as u64);
        if near {
            (s, walker.near(rng, s))
        } else {
            (s, t)
        }
    };
    let pairs: Vec<(u32, u32)> = (0..PAIR_POOL).map(|i| pair(&mut rng, i % 2 == 1)).collect();

    // Batches: |U| distinct uniform edges, half halved and half doubled,
    // mixed in one batch. Each batch starts from the weights the previous
    // one left, which the generator tracks itself.
    let mut rng = Rng::new(plan.seed, stream(2));
    let mut weights: Vec<u32> = edges.iter().map(|e| e.2).collect();
    let batch_size = BATCH_SIZE.min(weights.len());
    let mut edge_ids: Vec<u32> = (0..weights.len() as u32).collect();
    let batches: Vec<Vec<Update>> = (0..plan.batches)
        .map(|_| {
            // A partial Fisher-Yates draw of `batch_size` distinct edges.
            for i in 0..batch_size {
                let j = i + rng.below((edge_ids.len() - i) as u64) as usize;
                edge_ids.swap(i, j);
            }
            let mut batch: Vec<Update> = edge_ids[..batch_size]
                .iter()
                .enumerate()
                .map(|(i, &edge)| {
                    let old = weights[edge as usize];
                    let new = if i % 2 == 0 {
                        (old / 2).max(1)
                    } else {
                        (old * 2).min(MAX_WEIGHT)
                    };
                    weights[edge as usize] = new;
                    Update { edge, old, new }
                })
                .collect();
            rng.shuffle(&mut batch);
            batch
        })
        .collect();

    // Requests: Poisson arrivals; 70 % PointToPoint x16, 20 % OneToMany
    // 1x64, 10 % Matrix 8x8.
    let mut rng = Rng::new(plan.seed, stream(3));
    let vertex = |rng: &mut Rng| rng.below(n as u64) as u32;
    let mut requests = Vec::new();
    let mut due_s = rng.exponential(OPEN_LOOP_RATE);
    while due_s < plan.request_seconds {
        let shape = rng.unit();
        let request = if shape < 0.7 {
            Request::PointToPoint((0..16).map(|i| pair(&mut rng, i % 2 == 1)).collect())
        } else if shape < 0.9 {
            Request::OneToMany {
                source: vertex(&mut rng),
                targets: (0..64).map(|_| vertex(&mut rng)).collect(),
            }
        } else {
            Request::Matrix {
                sources: (0..8).map(|_| vertex(&mut rng)).collect(),
                targets: (0..8).map(|_| vertex(&mut rng)).collect(),
            }
        };
        requests.push(Arrival { due_s, request });
        due_s += rng.exponential(OPEN_LOOP_RATE);
    }

    let hash = input_hash(n, &edges, &pairs, &batches, &requests);
    Inputs {
        pairs,
        batches,
        requests,
        hash,
    }
}

fn input_hash(
    n: usize,
    edges: &[(u32, u32, u32)],
    pairs: &[(u32, u32)],
    batches: &[Vec<Update>],
    requests: &[Arrival],
) -> u64 {
    let mut h = Fnv::default();
    h.word(n as u64);
    for &(u, v, w) in edges {
        h.word3(u, v, w);
    }
    for &(s, t) in pairs {
        h.word3(s, t, 0);
    }
    for batch in batches {
        h.word(batch.len() as u64);
        for u in batch {
            h.word3(u.edge, u.old, u.new);
        }
    }
    h.word(requests.len() as u64);
    for a in requests {
        h.word(a.due_s.to_bits());
        for (s, t) in a.request.pairs() {
            h.word3(s, t, 1);
        }
    }
    h.0
}

/// One hash for a run out of the hashes of its rounds' inputs.
pub fn combined_hash(rounds: &[u64]) -> u64 {
    let mut h = Fnv::default();
    rounds.iter().for_each(|&round| h.word(round));
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    fn word(&mut self, x: u64) {
        for byte in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn word3(&mut self, a: u32, b: u32, c: u32) {
        self.word(u64::from(a) << 32 | u64::from(b));
        self.word(u64::from(c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> Plan {
        Plan {
            seed,
            round: 0,
            batches: 3,
            request_seconds: 0.4,
        }
    }

    #[test]
    fn same_seed_same_hash_and_another_seed_another_hash() {
        let g = dataset(&GRID32);
        let (a, b, c) = (
            generate(&g, &plan(5)),
            generate(&g, &plan(5)),
            generate(&g, &plan(6)),
        );
        assert_eq!(a.hash, b.hash);
        assert_eq!(a.pairs, b.pairs);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.hash, c.hash);
        assert_ne!(a.pairs, c.pairs);
        // Another round of the same seed is another draw.
        let d = generate(
            &g,
            &Plan {
                round: 1,
                ..plan(5)
            },
        );
        assert_ne!(a.hash, d.hash);
        assert_ne!(a.batches, d.batches);
        assert_ne!(
            combined_hash(&[a.hash, d.hash]),
            combined_hash(&[d.hash, a.hash])
        );
    }

    #[test]
    fn pairs_are_half_far_half_near_and_never_trivial() {
        let g = dataset(&GRID32);
        let inputs = generate(&g, &plan(1));
        assert_eq!(inputs.pairs.len(), PAIR_POOL);
        assert!(inputs.pairs.iter().all(|&(s, t)| s != t));
        // Near pairs sit within a few grid cells of each other; far pairs
        // are on average a third of the side apart.
        let side = 32i64;
        let hops = |(s, t): (u32, u32)| {
            let (s, t) = (i64::from(s), i64::from(t));
            ((s % side - t % side).abs() + (s / side - t / side).abs()) as f64
        };
        let mean = |it: &mut dyn Iterator<Item = (u32, u32)>| {
            let v: Vec<f64> = it.map(hops).collect();
            v.iter().sum::<f64>() / v.len() as f64
        };
        let (far, near) = (
            mean(&mut inputs.far_pairs().into_iter()),
            mean(&mut inputs.near_pairs().into_iter()),
        );
        assert!(near <= NEAR_HOPS as f64 && near * 3.0 < far, "{near} {far}");
    }

    #[test]
    fn batches_mix_halvings_and_doublings_of_distinct_edges_and_chain() {
        let g = dataset(&GRID32);
        let inputs = generate(&g, &plan(9));
        let mut weights: Vec<u32> = api::edge_list(&g).iter().map(|e| e.2).collect();
        for batch in &inputs.batches {
            assert_eq!(batch.len(), BATCH_SIZE);
            let mut edges: Vec<u32> = batch.iter().map(|u| u.edge).collect();
            edges.sort_unstable();
            edges.dedup();
            assert_eq!(edges.len(), BATCH_SIZE, "edges repeat within a batch");
            let down = batch.iter().filter(|u| u.new <= u.old).count();
            assert!((BATCH_SIZE / 2..=BATCH_SIZE / 2 + 5).contains(&down));
            for u in batch {
                assert_eq!(weights[u.edge as usize], u.old, "batches do not chain");
                weights[u.edge as usize] = u.new;
            }
        }
    }

    #[test]
    fn arrivals_are_ordered_and_follow_the_rate_and_mix() {
        let g = dataset(&GRID32);
        let inputs = generate(
            &g,
            &Plan {
                request_seconds: 10.0,
                ..plan(2)
            },
        );
        let arrivals = &inputs.requests;
        assert!(arrivals.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert!((1800..2200).contains(&arrivals.len()), "{}", arrivals.len());
        let p2p = arrivals
            .iter()
            .filter(|a| matches!(a.request, Request::PointToPoint(_)))
            .count() as f64;
        assert!((0.65..0.75).contains(&(p2p / arrivals.len() as f64)));
        assert!(arrivals
            .iter()
            .all(|a| matches!(a.request.pairs().len(), 16 | 64)));
    }
}
