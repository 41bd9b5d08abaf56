//! Seeded inputs. Everything the program sees is generated here from the
//! run's `--seed`: the initial forest (rc-gen's request-stream forest
//! over the §6.1 chain generator, degree ≤ 3, 1% of vertices marked), the
//! edges each library round toggles, the query sets, and the serve
//! request streams.

use rc_core::{ForestState, PathSummary};
use rc_gen::{Arrival, ForestGenConfig, OpMix, RequestStream, RequestStreamConfig, StreamOp};
use rc_parlay::rng::SplitMix64;

/// Vertices in every workload's forest.
pub const N: usize = 200_000;
/// Zipf exponent of query-vertex choice.
pub const ZIPF: f64 = 0.8;
/// Distinct edge/query sets the library rounds cycle through.
const ROUND_SETS: usize = 8;

/// The stream configuration every workload derives its forest from.
pub fn stream_config(seed: u64, mix: OpMix) -> RequestStreamConfig {
    RequestStreamConfig {
        forest: ForestGenConfig {
            n: N,
            seed,
            ..Default::default()
        },
        mix,
        zipf_exponent: ZIPF,
        arrival: Arrival::Closed,
        invalid_frac: 0.0,
        cpt_terminals: rc_gen::DEFAULT_CPT_TERMINALS,
    }
}

/// The initial forest: the stream's chain and connector edges with their
/// generated weights, vertex weights 0, and `N / 100` distinct marked
/// vertices. The edge set does not depend on the mix.
pub fn initial_state(seed: u64) -> ForestState {
    let stream = RequestStream::new(stream_config(seed, OpMix::query_heavy()));
    let mut state = ForestState::from_edges(N, &stream.initial_edges());
    let mut rng = SplitMix64::new(seed ^ 0x4D41_524B);
    let mut marked = vec![false; N];
    while state.marks.len() < N / 100 {
        let v = rng.next_below(N as u64) as usize;
        if !marked[v] {
            marked[v] = true;
            state.marks.push(v as u32);
        }
    }
    state.marks.sort_unstable();
    state
}

/// The six query families the library workloads time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    Connected,
    PathSum,
    PathExtrema,
    Lca,
    SubtreeSum,
    NearestMarked,
}

pub const FAMILIES: [Family; 6] = [
    Family::Connected,
    Family::PathSum,
    Family::PathExtrema,
    Family::Lca,
    Family::SubtreeSum,
    Family::NearestMarked,
];

/// One answer of any family, comparable across backends.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    Bool(bool),
    Sum(Option<u64>),
    Extrema(Option<PathSummary>),
    Vertex(Option<u32>),
    Near(Option<(u64, u32)>),
}

/// `k` queries of every family.
#[derive(Clone, Default)]
pub struct QuerySet {
    pub connected: Vec<(u32, u32)>,
    pub path_sum: Vec<(u32, u32)>,
    pub path_extrema: Vec<(u32, u32)>,
    pub lca: Vec<(u32, u32, u32)>,
    pub subtree_sum: Vec<(u32, u32)>,
    pub nearest_marked: Vec<u32>,
}

impl QuerySet {
    /// The first `n` queries of every family.
    pub fn prefix(&self, n: usize) -> QuerySet {
        fn head<T: Clone>(v: &[T], n: usize) -> Vec<T> {
            v[..n.min(v.len())].to_vec()
        }
        QuerySet {
            connected: head(&self.connected, n),
            path_sum: head(&self.path_sum, n),
            path_extrema: head(&self.path_extrema, n),
            lca: head(&self.lca, n),
            subtree_sum: head(&self.subtree_sum, n),
            nearest_marked: head(&self.nearest_marked, n),
        }
    }

    fn is_full(&self, k: usize) -> bool {
        [
            self.connected.len(),
            self.path_sum.len(),
            self.path_extrema.len(),
            self.lca.len(),
            self.subtree_sum.len(),
            self.nearest_marked.len(),
        ]
        .iter()
        .all(|&len| len >= k)
    }

    /// File `op` under its family unless that family already has `k`.
    fn push(&mut self, op: StreamOp, k: usize) {
        match op {
            StreamOp::Connected { u, v } if self.connected.len() < k => self.connected.push((u, v)),
            StreamOp::PathSum { u, v } if self.path_sum.len() < k => self.path_sum.push((u, v)),
            StreamOp::Bottleneck { u, v } if self.path_extrema.len() < k => {
                self.path_extrema.push((u, v))
            }
            StreamOp::Lca { u, v, r } if self.lca.len() < k => self.lca.push((u, v, r)),
            StreamOp::SubtreeSum { v, parent } if self.subtree_sum.len() < k => {
                self.subtree_sum.push((v, parent))
            }
            StreamOp::NearestMarked { v } if self.nearest_marked.len() < k => {
                self.nearest_marked.push(v)
            }
            _ => {}
        }
    }
}

/// One library round's inputs: `k` present edges to cut and link back
/// with their original weights, and `k` queries per family.
pub struct RoundSet {
    pub links: Vec<(u32, u32, u64)>,
    pub cuts: Vec<(u32, u32)>,
    pub queries: QuerySet,
}

/// `ROUND_SETS` round inputs of size `k`, cycled by the library rounds.
/// The toggled edges are the stream's connector edges (what its cut
/// operations produce), `k` distinct ones per round.
pub fn round_sets(seed: u64, k: usize) -> Vec<RoundSet> {
    let cut_only = OpMix {
        cut: 1.0,
        ..zero_mix()
    };
    let mut stream = RequestStream::new(stream_config(seed, cut_only));
    let weights: std::collections::HashMap<(u32, u32), u64> = stream
        .initial_edges()
        .into_iter()
        .map(|(u, v, w)| ((u, v), w))
        .collect();
    // Cutting every connector once enumerates them; the first `Link` means
    // none is left attached.
    let mut connectors = Vec::new();
    while let StreamOp::Cut { u, v } = stream.next_op() {
        connectors.push((u, v, weights[&(u, v)]));
    }
    assert!(connectors.len() >= k, "forest has fewer connectors than k");
    let query_mix = OpMix {
        connected: 1.0,
        path_sum: 1.0,
        bottleneck: 1.0,
        lca: 1.0,
        subtree_sum: 1.0,
        nearest_marked: 1.0,
        ..zero_mix()
    };
    let mut queries = RequestStream::new(stream_config(seed ^ 0x5155_4552, query_mix));
    let mut rng = SplitMix64::new(seed ^ 0x524F_554E);
    (0..ROUND_SETS)
        .map(|_| {
            // Partial Fisher–Yates: the first k slots become a uniform
            // k-subset of the connectors.
            for i in 0..k {
                let j = i + rng.next_below((connectors.len() - i) as u64) as usize;
                connectors.swap(i, j);
            }
            let links = connectors[..k].to_vec();
            let cuts = links.iter().map(|&(u, v, _)| (u, v)).collect();
            let mut qs = QuerySet::default();
            while !qs.is_full(k) {
                qs.push(queries.next_op(), k);
            }
            RoundSet {
                links,
                cuts,
                queries: qs,
            }
        })
        .collect()
}

fn zero_mix() -> OpMix {
    OpMix {
        link: 0.0,
        cut: 0.0,
        update_edge_weight: 0.0,
        update_vertex_weight: 0.0,
        mark: 0.0,
        unmark: 0.0,
        connected: 0.0,
        representative: 0.0,
        path_sum: 0.0,
        subtree_sum: 0.0,
        lca: 0.0,
        bottleneck: 0.0,
        nearest_marked: 0.0,
        cpt: 0.0,
    }
}

/// Partition `part` of `parts` of the serve request stream over `mix`:
/// each client toggles only its own connectors, so no request fails.
pub fn serve_stream(seed: u64, mix: OpMix, part: usize, parts: usize) -> RequestStream {
    RequestStream::new_partitioned(stream_config(seed, mix), part, parts)
}
