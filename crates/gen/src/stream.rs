//! Seeded request-stream generation for the `rc-serve` coalescer and its
//! load drivers.
//!
//! A [`RequestStream`] turns the §6.1 chain forest into an endless,
//! deterministic stream of single-shot operations ([`StreamOp`]): structural
//! updates (link/cut of *connector* edges, weight updates), mark churn, and
//! the seven query families, drawn from a configurable [`OpMix`] with
//! Zipf-skewed vertex choice and steady or bursty arrival pacing.
//!
//! # Partitioning (conflict-free concurrency)
//!
//! Load drivers run one stream per client thread via
//! [`RequestStream::new_partitioned`]. Every partition derives the *same*
//! initial forest (chains + one fixed, degree-capped attachment target per
//! connector, all deterministic from the seed), but only toggles the
//! connectors it owns (`chain % parts == part`). Because a connector's
//! endpoints are fixed at generation time and each vertex's total degree —
//! chain edges plus every connector that can ever attach to it — is capped
//! at 3, re-inserting any subset of connectors is always valid on a
//! degree-≤3 forest regardless of how concurrent partitions interleave.
//! This mirrors the paper's update streams ("deleting and re-inserting
//! only connector edges") while keeping error responses out of throughput
//! measurements. Set `invalid_frac > 0` to deliberately mix in malformed
//! operations and exercise the error paths instead.

use crate::{ForestGenConfig, GeneratedForest};
use rc_parlay::rng::SplitMix64;

/// Default number of terminals per compressed-path-tree operation.
pub const DEFAULT_CPT_TERMINALS: usize = 8;

/// One single-shot operation of a request stream, in the shuffled vertex
/// id space of the generated forest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamOp {
    /// Insert edge `{u, v}` with weight `w`.
    Link { u: u32, v: u32, w: u64 },
    /// Delete edge `{u, v}`.
    Cut { u: u32, v: u32 },
    /// Set the weight of existing edge `{u, v}` to `w`.
    UpdateEdgeWeight { u: u32, v: u32, w: u64 },
    /// Set the weight of vertex `v` to `w`.
    UpdateVertexWeight { v: u32, w: u64 },
    /// Mark vertex `v` (nearest-marked queries).
    Mark { v: u32 },
    /// Unmark vertex `v`.
    Unmark { v: u32 },
    /// Are `u` and `v` in the same tree?
    Connected { u: u32, v: u32 },
    /// Component representative of `v`.
    Representative { v: u32 },
    /// Sum of edge + vertex weights on the `u..v` path (edge weights only).
    PathSum { u: u32, v: u32 },
    /// Subtree total at `v` away from neighbor `parent`.
    SubtreeSum { v: u32, parent: u32 },
    /// LCA of `u` and `v` with respect to root `r`.
    Lca { u: u32, v: u32, r: u32 },
    /// Lightest/heaviest edge on the `u..v` path.
    Bottleneck { u: u32, v: u32 },
    /// Nearest marked vertex to `v`.
    NearestMarked { v: u32 },
    /// Compressed path tree over `terminals`.
    Cpt { terminals: Vec<u32> },
}

impl StreamOp {
    /// Is this a structural or weight update (vs a read-only query)?
    pub fn is_update(&self) -> bool {
        matches!(
            self,
            StreamOp::Link { .. }
                | StreamOp::Cut { .. }
                | StreamOp::UpdateEdgeWeight { .. }
                | StreamOp::UpdateVertexWeight { .. }
                | StreamOp::Mark { .. }
                | StreamOp::Unmark { .. }
        )
    }
}

/// Relative weights of each operation kind. Weights need not sum to 1;
/// zero disables a kind.
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    pub link: f64,
    pub cut: f64,
    pub update_edge_weight: f64,
    pub update_vertex_weight: f64,
    pub mark: f64,
    pub unmark: f64,
    pub connected: f64,
    pub representative: f64,
    pub path_sum: f64,
    pub subtree_sum: f64,
    pub lca: f64,
    pub bottleneck: f64,
    pub nearest_marked: f64,
    pub cpt: f64,
}

impl OpMix {
    /// Mostly queries with a trickle of updates — the serving sweet spot.
    pub fn query_heavy() -> Self {
        OpMix {
            link: 2.0,
            cut: 2.0,
            update_edge_weight: 2.0,
            update_vertex_weight: 2.0,
            mark: 1.0,
            unmark: 1.0,
            connected: 25.0,
            representative: 10.0,
            path_sum: 25.0,
            subtree_sum: 10.0,
            lca: 10.0,
            bottleneck: 5.0,
            nearest_marked: 5.0,
            cpt: 0.0,
        }
    }

    /// Heavy structural churn, queries in the minority.
    pub fn update_heavy() -> Self {
        OpMix {
            link: 20.0,
            cut: 20.0,
            update_edge_weight: 10.0,
            update_vertex_weight: 10.0,
            mark: 5.0,
            unmark: 5.0,
            connected: 10.0,
            representative: 2.0,
            path_sum: 10.0,
            subtree_sum: 3.0,
            lca: 2.0,
            bottleneck: 2.0,
            nearest_marked: 1.0,
            cpt: 0.0,
        }
    }

    /// Every family represented, updates ≈ 1/3 of traffic.
    pub fn balanced() -> Self {
        OpMix {
            link: 6.0,
            cut: 6.0,
            update_edge_weight: 4.0,
            update_vertex_weight: 4.0,
            mark: 2.0,
            unmark: 2.0,
            connected: 12.0,
            representative: 6.0,
            path_sum: 12.0,
            subtree_sum: 8.0,
            lca: 8.0,
            bottleneck: 6.0,
            nearest_marked: 4.0,
            cpt: 1.0,
        }
    }

    fn weights(&self) -> [f64; 14] {
        [
            self.link,
            self.cut,
            self.update_edge_weight,
            self.update_vertex_weight,
            self.mark,
            self.unmark,
            self.connected,
            self.representative,
            self.path_sum,
            self.subtree_sum,
            self.lca,
            self.bottleneck,
            self.nearest_marked,
            self.cpt,
        ]
    }
}

impl Default for OpMix {
    fn default() -> Self {
        Self::balanced()
    }
}

/// Arrival pacing of an open-loop driver (ignored by closed-loop ones).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Submit as fast as responses come back (delays are all zero).
    Closed,
    /// Poisson arrivals with the given mean inter-arrival gap.
    Steady { mean_gap_ns: u64 },
    /// `burst` back-to-back operations, then one long gap.
    Bursty { burst: usize, gap_ns: u64 },
}

/// Request-stream parameters.
#[derive(Clone, Debug)]
pub struct RequestStreamConfig {
    /// Underlying chain forest (n, chain distribution, seed, ...).
    pub forest: ForestGenConfig,
    /// Operation mix.
    pub mix: OpMix,
    /// Zipf exponent for query-vertex choice: 0 = uniform, ~1 = classic
    /// web-like skew.
    pub zipf_exponent: f64,
    /// Arrival pacing for open-loop drivers.
    pub arrival: Arrival,
    /// Probability of emitting a deliberately unvalidated random op
    /// (possibly out of range / missing edge) to exercise error paths.
    pub invalid_frac: f64,
    /// Terminals per `Cpt` operation.
    pub cpt_terminals: usize,
}

impl Default for RequestStreamConfig {
    fn default() -> Self {
        RequestStreamConfig {
            forest: ForestGenConfig::default(),
            mix: OpMix::default(),
            zipf_exponent: 0.8,
            arrival: Arrival::Closed,
            invalid_frac: 0.0,
            cpt_terminals: DEFAULT_CPT_TERMINALS,
        }
    }
}

/// Zipf sampler over `1..=n` by rejection inversion (Hörmann), `O(1)` per
/// sample and table-free. Exponent 0 degenerates to the uniform
/// distribution.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    e: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
}

impl Zipf {
    /// Sampler over `1..=n` with exponent `e >= 0`.
    pub fn new(n: u64, e: f64) -> Self {
        assert!(n >= 1);
        assert!(e >= 0.0);
        let h = |x: f64| Self::h_integral(x, e);
        let h_x1 = h(1.5) - 1.0;
        let h_n = h(n as f64 + 0.5);
        let s = 2.0 - Self::h_integral_inv(h(2.5) - Self::h(2.0, e), e);
        Zipf { n, e, h_x1, h_n, s }
    }

    fn h(x: f64, e: f64) -> f64 {
        x.powf(-e)
    }

    fn h_integral(x: f64, e: f64) -> f64 {
        let log_x = x.ln();
        helper1((1.0 - e) * log_x) * log_x
    }

    fn h_integral_inv(x: f64, e: f64) -> f64 {
        let mut t = x * (1.0 - e);
        if t < -1.0 {
            t = -1.0; // guard against floating-point round-off
        }
        (helper2(t) * x).exp()
    }

    /// Draw one rank in `1..=n`.
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        loop {
            let u = self.h_n + rng.next_f64() * (self.h_x1 - self.h_n);
            let x = Self::h_integral_inv(u, self.e);
            let k = x.clamp(1.0, self.n as f64).round() as u64;
            let kf = k as f64;
            if kf - x <= self.s || u >= Self::h_integral(kf + 0.5, self.e) - Self::h(kf, self.e) {
                return k;
            }
        }
    }
}

/// `(exp(x) - 1) / x`, stable near 0.
fn helper1(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.exp_m1() / x
    } else {
        1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))
    }
}

/// `log(1 + x) / x`, stable near 0.
fn helper2(x: f64) -> f64 {
    if x.abs() > 1e-8 {
        x.ln_1p() / x
    } else {
        1.0 - x * (0.5 - x * (1.0 / 3.0 - 0.25 * x))
    }
}

/// One connector edge with a fixed, degree-capped target.
#[derive(Clone, Copy, Debug)]
struct Connector {
    /// Shuffled id of the chain head.
    head: u32,
    /// Shuffled id of the fixed attachment vertex (earlier chain).
    target: u32,
}

/// A deterministic, endless stream of [`StreamOp`]s over one generated
/// forest; see the module docs for the partitioning contract.
pub struct RequestStream {
    cfg: RequestStreamConfig,
    rng: SplitMix64,
    zipf: Zipf,
    cum_mix: [f64; 14],
    /// All connectors (index = chain id; 0 is a placeholder).
    connectors: Vec<Option<Connector>>,
    /// Chain-internal edges, for subtree / edge-weight targets.
    chain_edges: Vec<(u32, u32, u64)>,
    /// Owned connector ids currently attached / detached.
    attached: Vec<u32>,
    detached: Vec<u32>,
    burst_left: usize,
}

impl RequestStream {
    /// A single unpartitioned stream (owns every connector).
    pub fn new(cfg: RequestStreamConfig) -> Self {
        Self::new_partitioned(cfg, 0, 1)
    }

    /// Partition `part` of `parts`: identical initial forest, updates
    /// restricted to connectors of chains `c % parts == part`.
    pub fn new_partitioned(cfg: RequestStreamConfig, part: usize, parts: usize) -> Self {
        assert!(parts >= 1 && part < parts);
        let g = GeneratedForest::generate(cfg.forest);
        // Deterministic connector targets with a global degree cap of 3:
        // every partition replays this exact loop, so all partitions agree
        // on each connector's endpoints and on which connectors exist.
        let mut init_rng = SplitMix64::new(cfg.forest.seed ^ 0x5EED_57EE);
        let n = cfg.forest.n;
        let mut deg = vec![0u8; n];
        let mut chain_edges: Vec<(u32, u32, u64)> = Vec::new();
        for &(start, len) in &g.chains {
            for i in 0..len.saturating_sub(1) {
                let (a, b) = (g.shuffled_id(start + i), g.shuffled_id(start + i + 1));
                deg[a as usize] += 1;
                deg[b as usize] += 1;
                let w = 1 + init_rng.next_below(cfg.forest.max_weight.max(2) - 1);
                chain_edges.push((a, b, w));
            }
        }
        let mut connectors: Vec<Option<Connector>> = vec![None];
        for c in 1..g.chains.len() {
            let head = g.shuffled_id(g.chains[c].0);
            let mut placed = None;
            for _ in 0..8 {
                let tc = if init_rng.next_f64() < cfg.forest.ln_prob || c == 1 {
                    c - 1
                } else {
                    init_rng.next_below((c - 1) as u64) as usize
                };
                let (tstart, tlen) = g.chains[tc];
                let target = g.shuffled_id(tstart + init_rng.next_below(tlen as u64) as u32);
                if deg[head as usize] < 3 && deg[target as usize] < 3 {
                    deg[head as usize] += 1;
                    deg[target as usize] += 1;
                    placed = Some(Connector { head, target });
                    break;
                }
            }
            connectors.push(placed);
        }
        let attached: Vec<u32> = (1..connectors.len())
            .filter(|&c| c % parts == part && connectors[c].is_some())
            .map(|c| c as u32)
            .collect();
        let cum_mix = {
            let w = cfg.mix.weights();
            let mut cum = [0.0f64; 14];
            let mut acc = 0.0;
            for (i, &x) in w.iter().enumerate() {
                assert!(x >= 0.0, "negative op-mix weight");
                acc += x;
                cum[i] = acc;
            }
            assert!(acc > 0.0, "op mix must have at least one positive weight");
            cum
        };
        let zipf = Zipf::new(n as u64, cfg.zipf_exponent);
        // Per-partition op randomness diverges; initialization above is
        // shared.
        let rng = SplitMix64::new(cfg.forest.seed ^ (0x9E37_79B9 * (part as u64 + 1)));
        RequestStream {
            cfg,
            rng,
            zipf,
            cum_mix,
            connectors,
            chain_edges,
            attached,
            detached: Vec::new(),
            burst_left: 0,
        }
    }

    /// The initial edge set (chain edges + every placed connector),
    /// identical across partitions — build the served forest from this.
    pub fn initial_edges(&self) -> Vec<(u32, u32, u64)> {
        let mut out = self.chain_edges.clone();
        let mut rng = SplitMix64::new(self.cfg.forest.seed ^ 0xC0_FFEE);
        for conn in self.connectors.iter().flatten() {
            let w = 1 + rng.next_below(self.cfg.forest.max_weight.max(2) - 1);
            out.push((conn.head, conn.target, w));
        }
        out
    }

    /// Number of vertices of the underlying forest.
    pub fn num_vertices(&self) -> usize {
        self.cfg.forest.n
    }

    /// The configuration in effect.
    pub fn config(&self) -> &RequestStreamConfig {
        &self.cfg
    }

    /// A Zipf-skewed vertex id.
    pub fn skewed_vertex(&mut self) -> u32 {
        (self.zipf.sample(&mut self.rng) - 1) as u32
    }

    fn weight(&mut self) -> u64 {
        1 + self.rng.next_below(self.cfg.forest.max_weight.max(2) - 1)
    }

    /// Draw the next operation. Never returns structurally invalid updates
    /// unless `invalid_frac` fires (link/cut toggle owned connectors with
    /// fixed endpoints; weight/mark targets always exist).
    pub fn next_op(&mut self) -> StreamOp {
        if self.cfg.invalid_frac > 0.0 && self.rng.next_f64() < self.cfg.invalid_frac {
            return self.invalid_op();
        }
        let total = self.cum_mix[13];
        let mut pick = self.rng.next_f64() * total;
        if pick >= total {
            pick = 0.0;
        }
        let kind = self.cum_mix.iter().position(|&c| pick < c).unwrap_or(13);
        match kind {
            0 => self.link_op(),
            1 => self.cut_op(),
            2 => self.edge_weight_op(),
            3 => StreamOp::UpdateVertexWeight {
                v: self.skewed_vertex(),
                w: self.weight(),
            },
            4 => StreamOp::Mark {
                v: self.skewed_vertex(),
            },
            5 => StreamOp::Unmark {
                v: self.skewed_vertex(),
            },
            6 => StreamOp::Connected {
                u: self.skewed_vertex(),
                v: self.skewed_vertex(),
            },
            7 => StreamOp::Representative {
                v: self.skewed_vertex(),
            },
            8 => StreamOp::PathSum {
                u: self.skewed_vertex(),
                v: self.skewed_vertex(),
            },
            9 => self.subtree_op(),
            10 => StreamOp::Lca {
                u: self.skewed_vertex(),
                v: self.skewed_vertex(),
                r: self.skewed_vertex(),
            },
            11 => StreamOp::Bottleneck {
                u: self.skewed_vertex(),
                v: self.skewed_vertex(),
            },
            12 => StreamOp::NearestMarked {
                v: self.skewed_vertex(),
            },
            _ => {
                let k = self.cfg.cpt_terminals.max(2);
                let terminals = (0..k).map(|_| self.skewed_vertex()).collect();
                StreamOp::Cpt { terminals }
            }
        }
    }

    /// Draw `k` operations.
    pub fn ops(&mut self, k: usize) -> Vec<StreamOp> {
        (0..k).map(|_| self.next_op()).collect()
    }

    /// Inter-arrival delay preceding the next op, per the configured
    /// [`Arrival`] process (0 for closed-loop).
    pub fn next_delay_ns(&mut self) -> u64 {
        match self.cfg.arrival {
            Arrival::Closed => 0,
            Arrival::Steady { mean_gap_ns } => {
                // Exponential inter-arrival (Poisson process).
                let u = self.rng.next_f64().max(1e-12);
                (-u.ln() * mean_gap_ns as f64) as u64
            }
            Arrival::Bursty { burst, gap_ns } => {
                if self.burst_left == 0 {
                    self.burst_left = burst.max(1);
                    gap_ns
                } else {
                    self.burst_left -= 1;
                    0
                }
            }
        }
    }

    fn link_op(&mut self) -> StreamOp {
        if self.detached.is_empty() {
            return self.cut_op();
        }
        let i = self.rng.next_below(self.detached.len() as u64) as usize;
        let c = self.detached.swap_remove(i);
        self.attached.push(c);
        let conn = self.connectors[c as usize].expect("owned connectors exist");
        StreamOp::Link {
            u: conn.head,
            v: conn.target,
            w: self.weight(),
        }
    }

    fn cut_op(&mut self) -> StreamOp {
        if self.attached.is_empty() {
            if self.detached.is_empty() {
                // No owned connectors at all: degrade to a weight update.
                return StreamOp::UpdateVertexWeight {
                    v: self.skewed_vertex(),
                    w: self.weight(),
                };
            }
            return self.link_op();
        }
        let i = self.rng.next_below(self.attached.len() as u64) as usize;
        let c = self.attached.swap_remove(i);
        self.detached.push(c);
        let conn = self.connectors[c as usize].expect("owned connectors exist");
        StreamOp::Cut {
            u: conn.head,
            v: conn.target,
        }
    }

    fn edge_weight_op(&mut self) -> StreamOp {
        if self.chain_edges.is_empty() {
            return StreamOp::UpdateVertexWeight {
                v: self.skewed_vertex(),
                w: self.weight(),
            };
        }
        let i = self.rng.next_below(self.chain_edges.len() as u64) as usize;
        let (u, v, _) = self.chain_edges[i];
        StreamOp::UpdateEdgeWeight {
            u,
            v,
            w: self.weight(),
        }
    }

    fn subtree_op(&mut self) -> StreamOp {
        if self.chain_edges.is_empty() {
            return StreamOp::Representative {
                v: self.skewed_vertex(),
            };
        }
        let i = self.rng.next_below(self.chain_edges.len() as u64) as usize;
        let (u, v, _) = self.chain_edges[i];
        if self.rng.next_f64() < 0.5 {
            StreamOp::SubtreeSum { v: u, parent: v }
        } else {
            StreamOp::SubtreeSum { v, parent: u }
        }
    }

    /// A deliberately unvalidated op: random ids, possibly out of range.
    fn invalid_op(&mut self) -> StreamOp {
        let n = self.cfg.forest.n as u64;
        let w = self.weight();
        // ~20% out of range.
        let any = |rng: &mut SplitMix64| rng.next_below(n + n / 4 + 2) as u32;
        match self.rng.next_below(6) {
            0 => StreamOp::Link {
                u: any(&mut self.rng),
                v: any(&mut self.rng),
                w,
            },
            1 => StreamOp::Cut {
                u: any(&mut self.rng),
                v: any(&mut self.rng),
            },
            2 => StreamOp::UpdateEdgeWeight {
                u: any(&mut self.rng),
                v: any(&mut self.rng),
                w,
            },
            3 => StreamOp::PathSum {
                u: any(&mut self.rng),
                v: any(&mut self.rng),
            },
            4 => StreamOp::SubtreeSum {
                v: any(&mut self.rng),
                parent: any(&mut self.rng),
            },
            _ => StreamOp::Mark {
                v: any(&mut self.rng),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg(seed: u64) -> RequestStreamConfig {
        RequestStreamConfig {
            forest: ForestGenConfig {
                n: 2_000,
                seed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn initial_forest_is_valid_and_degree_capped() {
        let s = RequestStream::new(small_cfg(11));
        let edges = s.initial_edges();
        let n = s.num_vertices();
        let mut deg = vec![0u32; n];
        let mut uf = rc_parlay::UnionFind::new(n);
        for &(u, v, w) in &edges {
            assert!(u != v && (u as usize) < n && (v as usize) < n && w >= 1);
            deg[u as usize] += 1;
            deg[v as usize] += 1;
            assert!(uf.union(u, v), "cycle at ({u},{v})");
        }
        assert!(deg.iter().all(|&d| d <= 3), "degree cap violated");
    }

    #[test]
    fn partitions_agree_on_initial_edges_and_disjoint_updates() {
        let parts = 4;
        let mut streams: Vec<RequestStream> = (0..parts)
            .map(|p| RequestStream::new_partitioned(small_cfg(23), p, parts))
            .collect();
        let e0 = streams[0].initial_edges();
        for s in &streams[1..] {
            assert_eq!(s.initial_edges(), e0, "partitions see one forest");
        }
        // Collect each partition's touched structural edges; they must be
        // pairwise disjoint.
        let mut seen: std::collections::HashMap<(u32, u32), usize> = Default::default();
        for (p, s) in streams.iter_mut().enumerate() {
            for op in s.ops(2_000) {
                let e = match op {
                    StreamOp::Link { u, v, .. } | StreamOp::Cut { u, v } => (u.min(v), u.max(v)),
                    _ => continue,
                };
                let owner = *seen.entry(e).or_insert(p);
                assert_eq!(owner, p, "edge {e:?} touched by two partitions");
            }
        }
        assert!(!seen.is_empty());
    }

    #[test]
    fn stream_is_deterministic_by_seed() {
        let mut a = RequestStream::new(small_cfg(5));
        let mut b = RequestStream::new(small_cfg(5));
        assert_eq!(a.ops(500), b.ops(500));
        let mut c = RequestStream::new(small_cfg(6));
        assert_ne!(a.ops(500), c.ops(500));
    }

    #[test]
    fn link_cut_toggle_is_consistent() {
        // Replaying the stream's links/cuts against a set never double-adds
        // or double-removes.
        let mut s = RequestStream::new(RequestStreamConfig {
            mix: OpMix::update_heavy(),
            ..small_cfg(77)
        });
        let mut present: std::collections::HashSet<(u32, u32)> = s
            .initial_edges()
            .iter()
            .map(|&(u, v, _)| (u.min(v), u.max(v)))
            .collect();
        for op in s.ops(5_000) {
            match op {
                StreamOp::Link { u, v, .. } => {
                    assert!(present.insert((u.min(v), u.max(v))), "double link")
                }
                StreamOp::Cut { u, v } => {
                    assert!(present.remove(&(u.min(v), u.max(v))), "cut of absent edge")
                }
                StreamOp::UpdateEdgeWeight { u, v, .. } => {
                    assert!(present.contains(&(u.min(v), u.max(v))), "update of absent")
                }
                _ => {}
            }
        }
    }

    #[test]
    fn zipf_skews_and_uniform_covers() {
        let mut rng = SplitMix64::new(3);
        let z = Zipf::new(1_000, 1.0);
        let mut counts = vec![0u32; 1_000];
        for _ in 0..20_000 {
            counts[(z.sample(&mut rng) - 1) as usize] += 1;
        }
        assert!(
            counts[0] > counts[99] && counts[0] > 500,
            "rank 1 dominates"
        );
        let u = Zipf::new(1_000, 0.0);
        let mut lo = 0u32;
        for _ in 0..20_000 {
            if u.sample(&mut rng) <= 500 {
                lo += 1;
            }
        }
        let frac = lo as f64 / 20_000.0;
        assert!((0.45..0.55).contains(&frac), "uniform split, got {frac}");
    }

    #[test]
    fn arrival_processes() {
        let mut s = RequestStream::new(RequestStreamConfig {
            arrival: Arrival::Bursty {
                burst: 10,
                gap_ns: 1_000,
            },
            ..small_cfg(1)
        });
        let delays: Vec<u64> = (0..44).map(|_| s.next_delay_ns()).collect();
        assert_eq!(
            delays.iter().filter(|&&d| d > 0).count(),
            4,
            "one gap per burst"
        );
        let mut st = RequestStream::new(RequestStreamConfig {
            arrival: Arrival::Steady { mean_gap_ns: 500 },
            ..small_cfg(2)
        });
        let mean: f64 = (0..5_000).map(|_| st.next_delay_ns() as f64).sum::<f64>() / 5_000.0;
        assert!((250.0..1_000.0).contains(&mean), "mean gap {mean}");
    }

    #[test]
    fn zipf_samples_in_range_across_parameter_grid() {
        // Property: every sample lands in 1..=n for any (n, exponent),
        // including the degenerate n = 1 and uniform e = 0 corners.
        let mut rng = SplitMix64::new(0x21FF);
        for n in [1u64, 2, 3, 10, 1_000, 1_000_000] {
            for e in [0.0, 0.2, 0.5, 0.99, 1.0, 1.5, 3.0] {
                let z = Zipf::new(n, e);
                for _ in 0..2_000 {
                    let s = z.sample(&mut rng);
                    assert!(
                        (1..=n).contains(&s),
                        "Zipf(n={n}, e={e}) emitted {s} out of range"
                    );
                }
            }
        }
    }

    #[test]
    fn zipf_skew_is_monotone_in_the_exponent() {
        // Property: the mass of the top ranks grows with the exponent.
        let n = 1_000u64;
        let trials = 30_000;
        let mut head_mass = Vec::new();
        for (i, e) in [0.0, 0.5, 1.0, 1.5, 2.0].into_iter().enumerate() {
            // Independent deterministic streams per exponent.
            let mut rng = SplitMix64::new(0xABC0 + i as u64);
            let z = Zipf::new(n, e);
            let hits = (0..trials).filter(|_| z.sample(&mut rng) <= 10).count();
            head_mass.push(hits as f64 / trials as f64);
        }
        for w in head_mass.windows(2) {
            assert!(
                w[1] > w[0] * 1.05,
                "top-10 mass must grow with the exponent: {head_mass:?}"
            );
        }
        // And the uniform corner is calibrated: P(rank <= 10) = 1%.
        assert!(
            (0.005..0.02).contains(&head_mass[0]),
            "uniform head mass {}",
            head_mass[0]
        );
    }

    #[test]
    fn invalid_frac_accounting_matches_configuration() {
        // The invalid path draws ids uniformly over [0, n + n/4 + 2), so
        // ~1/5 of drawn ids are out of range; 5 of its 6 op shapes name
        // two ids, one names one. Expected out-of-range op rate:
        //   frac * (5 * (1 - 0.8^2) + 1 * 0.2) / 6 ≈ frac * 0.333.
        // Valid ops never name out-of-range ids, so the observed rate
        // accounts for the configured fraction.
        let n = 4_000usize;
        let total = 6_000usize;
        for (seed, frac) in [(1u64, 0.0f64), (2, 0.3), (3, 0.8)] {
            let mut s = RequestStream::new(RequestStreamConfig {
                invalid_frac: frac,
                forest: ForestGenConfig {
                    n,
                    seed,
                    ..Default::default()
                },
                ..Default::default()
            });
            let mut oor = 0usize;
            for op in s.ops(total) {
                let ids: Vec<u32> = match op {
                    StreamOp::Link { u, v, .. }
                    | StreamOp::Cut { u, v }
                    | StreamOp::UpdateEdgeWeight { u, v, .. }
                    | StreamOp::Connected { u, v }
                    | StreamOp::PathSum { u, v }
                    | StreamOp::Bottleneck { u, v } => vec![u, v],
                    StreamOp::SubtreeSum { v, parent } => vec![v, parent],
                    StreamOp::Lca { u, v, r } => vec![u, v, r],
                    StreamOp::UpdateVertexWeight { v, .. }
                    | StreamOp::Mark { v }
                    | StreamOp::Unmark { v }
                    | StreamOp::Representative { v }
                    | StreamOp::NearestMarked { v } => vec![v],
                    StreamOp::Cpt { terminals } => terminals,
                };
                if ids.iter().any(|&x| x as usize >= n) {
                    oor += 1;
                }
            }
            let expect = frac * 0.333;
            let got = oor as f64 / total as f64;
            if frac == 0.0 {
                assert_eq!(oor, 0, "valid streams never leave the id range");
            } else {
                assert!(
                    (expect * 0.6..expect * 1.5).contains(&got),
                    "invalid_frac {frac}: out-of-range rate {got:.4}, expected ≈{expect:.4}"
                );
            }
        }
    }

    #[test]
    fn invalid_frac_produces_out_of_range_ops() {
        let mut s = RequestStream::new(RequestStreamConfig {
            invalid_frac: 0.5,
            ..small_cfg(9)
        });
        let n = s.num_vertices() as u32;
        let mut oor = 0;
        for op in s.ops(2_000) {
            let ids: Vec<u32> = match op {
                StreamOp::Link { u, v, .. }
                | StreamOp::Cut { u, v }
                | StreamOp::UpdateEdgeWeight { u, v, .. } => vec![u, v],
                StreamOp::Mark { v } => vec![v],
                _ => vec![],
            };
            if ids.iter().any(|&x| x >= n) {
                oor += 1;
            }
        }
        assert!(oor > 20, "expected some out-of-range ops, got {oor}");
    }
}
