//! Randomized forest generation for streaming experiments (paper §6.1).
//!
//! The generator connects chunks of contiguous vertices into linked-list
//! *chains*; chain lengths follow a configurable distribution (constant,
//! uniform, geometric, exponential) around a mean. The leftmost
//! (*connector*) edge of each chain attaches either to the chain
//! immediately to its left (probability `ln`) or to a uniformly random
//! earlier chain — `ln` near 1 produces very deep trees, near 0 shallow
//! bushy ones (Fig. 5). Deleting/re-inserting only connector edges yields
//! the paper's update streams while "some structure of distinct forests is
//! maintained". All vertex ids are finally shuffled through a random
//! bijection.

use rc_parlay::rng::SplitMix64;
use rc_parlay::shuffle::random_permutation;

mod crash;
mod replay;
mod stream;
pub use crash::truncation_offsets;
pub use replay::{apply_op, assert_backends_agree, DifferentialReport, OpResponse};
pub use stream::{
    Arrival, OpMix, RequestStream, RequestStreamConfig, StreamOp, Zipf, DEFAULT_CPT_TERMINALS,
};

/// Chain-length distributions of §6.1.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ChainDist {
    /// Every chain has exactly `mean` vertices.
    Constant,
    /// Uniform on `[1, 2·mean)`.
    Uniform,
    /// Geometric with success probability `1/mean`.
    Geometric,
    /// Exponential with rate `1/mean` (rounded up).
    Exponential,
}

/// Generator parameters.
#[derive(Copy, Clone, Debug)]
pub struct ForestGenConfig {
    /// Number of vertices.
    pub n: usize,
    /// Mean chain length (≥ 1; the paper uses 1.1, 10, 1000, …).
    pub mean_chain: f64,
    /// Length distribution.
    pub dist: ChainDist,
    /// Probability a connector attaches to the immediately preceding
    /// chain (deep trees when close to 1).
    pub ln_prob: f64,
    /// Largest edge weight (exclusive); weights are `1..max_weight`.
    pub max_weight: u64,
    /// PRNG seed — generation is fully deterministic.
    pub seed: u64,
}

impl Default for ForestGenConfig {
    fn default() -> Self {
        ForestGenConfig {
            n: 1000,
            mean_chain: 10.0,
            dist: ChainDist::Geometric,
            ln_prob: 0.5,
            max_weight: 1_000,
            seed: 42,
        }
    }
}

/// The four named configurations used across the evaluation: shallow and
/// deep trees of short chains, long chains, and tiny trees.
pub fn paper_configs(n: usize, seed: u64) -> Vec<(&'static str, ForestGenConfig)> {
    vec![
        (
            "C1 shallow-short",
            ForestGenConfig {
                n,
                mean_chain: 10.0,
                dist: ChainDist::Geometric,
                ln_prob: 0.05,
                seed,
                ..Default::default()
            },
        ),
        (
            "C2 deep-short",
            ForestGenConfig {
                n,
                mean_chain: 10.0,
                dist: ChainDist::Geometric,
                ln_prob: 0.95,
                seed,
                ..Default::default()
            },
        ),
        (
            "C3 long-chains",
            ForestGenConfig {
                n,
                mean_chain: 1000.0,
                dist: ChainDist::Uniform,
                ln_prob: 0.5,
                seed,
                ..Default::default()
            },
        ),
        (
            "C4 tiny-trees",
            ForestGenConfig {
                n,
                mean_chain: 1.1,
                dist: ChainDist::Geometric,
                ln_prob: 0.5,
                seed,
                ..Default::default()
            },
        ),
    ]
}

/// A generated forest plus the machinery for connector update streams.
pub struct GeneratedForest {
    cfg: ForestGenConfig,
    rng: SplitMix64,
    /// Shuffling bijection applied to all emitted vertex ids.
    perm: Vec<u32>,
    /// `(start, len)` of each chain in unshuffled id space.
    pub chains: Vec<(u32, u32)>,
    /// Chain-internal edges (shuffled ids).
    pub chain_edges: Vec<(u32, u32, u64)>,
    /// Current connector edge per chain (shuffled ids; `None` = detached).
    connectors: Vec<Option<(u32, u32, u64)>>,
}

impl GeneratedForest {
    /// Generate a forest according to `cfg`.
    pub fn generate(cfg: ForestGenConfig) -> Self {
        assert!(cfg.n >= 1);
        assert!(cfg.mean_chain >= 1.0);
        let mut rng = SplitMix64::new(cfg.seed);
        let perm = random_permutation(cfg.n, cfg.seed ^ 0xBEEF);

        // Carve [0, n) into chains.
        let mut chains: Vec<(u32, u32)> = Vec::new();
        let mut at = 0u32;
        while (at as usize) < cfg.n {
            let len = sample_len(&mut rng, &cfg).min(cfg.n as u64 - at as u64) as u32;
            chains.push((at, len));
            at += len;
        }

        let mut g = GeneratedForest {
            cfg,
            rng,
            perm,
            chains,
            chain_edges: Vec::new(),
            connectors: Vec::new(),
        };
        // Chain-internal edges.
        for &(start, len) in &g.chains {
            for i in 0..len.saturating_sub(1) {
                let w = g.rng.next_below(g.cfg.max_weight.max(2) - 1) + 1;
                let e = (g.map(start + i), g.map(start + i + 1), w);
                g.chain_edges.push(e);
            }
        }
        // Connectors.
        g.connectors = vec![None; g.chains.len()];
        for c in 1..g.chains.len() {
            g.connectors[c] = Some(g.fresh_connector(c));
        }
        g
    }

    #[inline]
    fn map(&self, v: u32) -> u32 {
        self.perm[v as usize]
    }

    /// The shuffled (emitted) id of unshuffled vertex `v` — lets layered
    /// generators (the request stream) place their own edges on the chain
    /// structure while speaking the same id space as [`Self::edges`].
    pub fn shuffled_id(&self, v: u32) -> u32 {
        self.map(v)
    }

    /// Draw a new connector for chain `c`: its head attaches to a random
    /// vertex of the previous chain (probability `ln`) or of a uniformly
    /// random earlier chain.
    fn fresh_connector(&mut self, c: usize) -> (u32, u32, u64) {
        let (start, _) = self.chains[c];
        let target_chain = if self.rng.next_f64() < self.cfg.ln_prob || c == 1 {
            c - 1
        } else {
            self.rng.next_below((c - 1) as u64) as usize
        };
        let (tstart, tlen) = self.chains[target_chain];
        let attach = tstart + self.rng.next_below(tlen as u64) as u32;
        let w = self.rng.next_below(self.cfg.max_weight.max(2) - 1) + 1;
        (self.map(start), self.map(attach), w)
    }

    /// All current edges (chain edges + attached connectors), shuffled ids.
    pub fn edges(&self) -> Vec<(u32, u32, u64)> {
        let mut out = self.chain_edges.clone();
        out.extend(self.connectors.iter().flatten().copied());
        out
    }

    /// Detach `k` random currently-attached connectors, returning the
    /// batch of delete edges.
    pub fn delete_batch(&mut self, k: usize) -> Vec<(u32, u32)> {
        let attached: Vec<usize> = (0..self.connectors.len())
            .filter(|&c| self.connectors[c].is_some())
            .collect();
        let mut out = Vec::new();
        let mut pool = attached;
        for _ in 0..k.min(pool.len()) {
            let i = self.rng.next_below(pool.len() as u64) as usize;
            let c = pool.swap_remove(i);
            let (u, v, _) = self.connectors[c].take().unwrap();
            out.push((u, v));
        }
        out
    }

    /// Re-attach `k` random detached chains with freshly drawn connectors,
    /// returning the batch of weighted insert edges.
    pub fn insert_batch(&mut self, k: usize) -> Vec<(u32, u32, u64)> {
        let detached: Vec<usize> = (1..self.connectors.len())
            .filter(|&c| self.connectors[c].is_none())
            .collect();
        let mut out = Vec::new();
        let mut pool = detached;
        for _ in 0..k.min(pool.len()) {
            let i = self.rng.next_below(pool.len() as u64) as usize;
            let c = pool.swap_remove(i);
            let e = self.fresh_connector(c);
            self.connectors[c] = Some(e);
            out.push(e);
        }
        out
    }

    /// Number of chains (= upper bound on detachable connectors + 1).
    pub fn num_chains(&self) -> usize {
        self.chains.len()
    }

    /// `k` uniformly random vertex pairs (path / connectivity queries).
    pub fn query_pairs(&mut self, k: usize) -> Vec<(u32, u32)> {
        (0..k)
            .map(|_| {
                (
                    self.rng.next_below(self.cfg.n as u64) as u32,
                    self.rng.next_below(self.cfg.n as u64) as u32,
                )
            })
            .collect()
    }

    /// `k` random `(vertex, neighbor)` pairs for subtree queries, drawn
    /// from the current edge set.
    pub fn query_subtrees(&mut self, k: usize) -> Vec<(u32, u32)> {
        let edges = self.edges();
        if edges.is_empty() {
            return Vec::new();
        }
        (0..k)
            .map(|_| {
                let (u, v, _) = edges[self.rng.next_below(edges.len() as u64) as usize];
                if self.rng.next_f64() < 0.5 {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect()
    }

    /// `k` random triples for LCA queries.
    pub fn query_triples(&mut self, k: usize) -> Vec<(u32, u32, u32)> {
        (0..k)
            .map(|_| {
                (
                    self.rng.next_below(self.cfg.n as u64) as u32,
                    self.rng.next_below(self.cfg.n as u64) as u32,
                    self.rng.next_below(self.cfg.n as u64) as u32,
                )
            })
            .collect()
    }

    /// The configuration used.
    pub fn config(&self) -> &ForestGenConfig {
        &self.cfg
    }
}

fn sample_len(rng: &mut SplitMix64, cfg: &ForestGenConfig) -> u64 {
    let m = cfg.mean_chain;
    let len = match cfg.dist {
        ChainDist::Constant => m.round(),
        ChainDist::Uniform => 1.0 + rng.next_f64() * (2.0 * m - 1.0),
        ChainDist::Geometric => {
            // Support {1, 2, ...} with mean ~m: success prob 1/m.
            let p = (1.0 / m).clamp(1e-9, 1.0);
            let u = rng.next_f64().max(1e-15);
            1.0 + (u.ln() / (1.0 - p).max(1e-15).ln()).floor()
        }
        ChainDist::Exponential => {
            let u = rng.next_f64().max(1e-15);
            (-u.ln() * m).ceil()
        }
    };
    (len.max(1.0)) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn acyclic_and_valid(edges: &[(u32, u32, u64)], n: usize) {
        let mut uf = rc_parlay::UnionFind::new(n);
        for &(u, v, w) in edges {
            assert!(u != v && (u as usize) < n && (v as usize) < n);
            assert!(w >= 1);
            assert!(uf.union(u, v), "cycle at edge ({u},{v})");
        }
    }

    #[test]
    fn all_paper_configs_generate_valid_forests() {
        for (name, cfg) in paper_configs(5_000, 7) {
            let g = GeneratedForest::generate(cfg);
            let edges = g.edges();
            acyclic_and_valid(&edges, cfg.n);
            assert!(edges.len() < cfg.n, "{name}: too many edges");
        }
    }

    #[test]
    fn deterministic_by_seed() {
        let cfg = ForestGenConfig {
            n: 2000,
            seed: 99,
            ..Default::default()
        };
        let a = GeneratedForest::generate(cfg).edges();
        let b = GeneratedForest::generate(cfg).edges();
        assert_eq!(a, b);
        let c = GeneratedForest::generate(ForestGenConfig { seed: 100, ..cfg }).edges();
        assert_ne!(a, c);
    }

    #[test]
    fn chain_lengths_hit_the_mean() {
        for dist in [
            ChainDist::Constant,
            ChainDist::Uniform,
            ChainDist::Geometric,
            ChainDist::Exponential,
        ] {
            let cfg = ForestGenConfig {
                n: 100_000,
                mean_chain: 10.0,
                dist,
                ..Default::default()
            };
            let g = GeneratedForest::generate(cfg);
            let mean = cfg.n as f64 / g.num_chains() as f64;
            assert!(
                (5.0..20.0).contains(&mean),
                "{dist:?}: empirical mean chain length {mean}"
            );
        }
    }

    #[test]
    fn tiny_mean_gives_many_components_when_detached() {
        let cfg = ForestGenConfig {
            n: 10_000,
            mean_chain: 1.1,
            ..Default::default()
        };
        let mut g = GeneratedForest::generate(cfg);
        let dels = g.delete_batch(g.num_chains());
        assert!(
            dels.len() > 5_000,
            "mean-1.1 forests are connector-dominated"
        );
    }

    #[test]
    fn delete_insert_roundtrip_preserves_validity() {
        let cfg = ForestGenConfig {
            n: 20_000,
            mean_chain: 10.0,
            ..Default::default()
        };
        let mut g = GeneratedForest::generate(cfg);
        let e0 = g.edges().len();
        let dels = g.delete_batch(500);
        assert_eq!(dels.len(), 500);
        assert_eq!(g.edges().len(), e0 - 500);
        let ins = g.insert_batch(500);
        assert_eq!(ins.len(), 500);
        acyclic_and_valid(&g.edges(), cfg.n);
        // Deleted edges must have existed; inserted ones must be fresh.
        let edgeset: HashSet<(u32, u32)> = g
            .edges()
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        for (u, v, _) in ins {
            assert!(edgeset.contains(&(u.min(v), u.max(v))));
        }
    }

    #[test]
    fn deep_vs_shallow_structure() {
        // ln close to 1 chains the chains together: the maximum tree is
        // larger than with ln close to 0... both remain valid forests;
        // check connector targets differ statistically by comparing how
        // many connectors attach to the immediately preceding chain.
        let n = 30_000;
        let deep = GeneratedForest::generate(ForestGenConfig {
            n,
            ln_prob: 0.95,
            seed: 3,
            ..Default::default()
        });
        let shallow = GeneratedForest::generate(ForestGenConfig {
            n,
            ln_prob: 0.05,
            seed: 3,
            ..Default::default()
        });
        acyclic_and_valid(&deep.edges(), n);
        acyclic_and_valid(&shallow.edges(), n);
    }

    #[test]
    fn query_generators_in_range() {
        let cfg = ForestGenConfig {
            n: 1000,
            ..Default::default()
        };
        let mut g = GeneratedForest::generate(cfg);
        for (u, v) in g.query_pairs(100) {
            assert!((u as usize) < 1000 && (v as usize) < 1000);
        }
        let edges: HashSet<(u32, u32)> = g
            .edges()
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        for (u, p) in g.query_subtrees(100) {
            assert!(
                edges.contains(&(u.min(p), u.max(p))),
                "subtree query not an edge"
            );
        }
        assert_eq!(g.query_triples(5).len(), 5);
    }
}
