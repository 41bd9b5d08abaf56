//! Batch-incremental minimum spanning forests (paper §5.8).
//!
//! Maintains the MSF of a growing weighted graph under *batches* of new
//! edges. Per batch: build the compressed path tree of the new edges'
//! endpoints over the current MSF (it preserves path maxima and carries,
//! per compressed edge, the identity of the heaviest underlying tree
//! edge), append the new edges, run Kruskal on the `O(k)`-size graph, and
//! translate the result into batch cut/link operations on the dynamic
//! forest. As in the paper, Kruskal's `O(k log k)` is noise next to the
//! compressed-tree generation and the dynamic insertion (Fig. 10).

use rc_core::{EdgeRef, MaxEdgeAgg, Vertex};
use rc_ternary::TernaryForest;
use std::collections::HashMap;

/// The workspace's dense union–find (path compression, union by rank),
/// re-exported from `rc-parlay`; [`kruskal`] runs on it.
pub use rc_parlay::UnionFind;

/// Offline Kruskal — the test oracle and the paper's inner MSF subroutine.
/// Returns the selected edges (indices into `edges`).
pub fn kruskal(n: usize, edges: &[(u32, u32, u64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..edges.len()).collect();
    order.sort_by_key(|&i| (edges[i].2, edges[i].0, edges[i].1));
    let mut uf = UnionFind::new(n);
    let mut out = Vec::new();
    for i in order {
        let (u, v, _) = edges[i];
        if u != v && uf.union(u, v) {
            out.push(i);
        }
    }
    out
}

/// Statistics of one incremental batch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// New edges accepted into the MSF.
    pub inserted: usize,
    /// Old MSF edges evicted by the cycle rule.
    pub evicted: usize,
    /// New edges rejected outright.
    pub rejected: usize,
    /// Vertices in the compressed path tree.
    pub cpt_vertices: usize,
}

/// A batch-incremental MSF over `n` vertices (arbitrary degree — the
/// forest is ternarized internally).
///
/// ```
/// use rc_msf::IncrementalMsf;
/// let mut msf = IncrementalMsf::new(4);
/// msf.insert_batch(&[(0, 1, 10), (1, 2, 20), (0, 2, 5)]);
/// // The triangle keeps its two lightest edges.
/// assert_eq!(msf.total_weight(), 15);
/// ```
pub struct IncrementalMsf {
    forest: TernaryForest<MaxEdgeAgg<u64>>,
    weights: HashMap<(u32, u32), u64>,
    total: u64,
}

impl IncrementalMsf {
    /// Empty MSF on `n` vertices.
    pub fn new(n: usize) -> Self {
        IncrementalMsf {
            // Chain weight 0: dummy edges never win a path-max query.
            forest: TernaryForest::new(n, 0),
            weights: HashMap::new(),
            total: 0,
        }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.forest.num_vertices()
    }

    /// Current number of MSF edges.
    pub fn num_edges(&self) -> usize {
        self.forest.num_edges()
    }

    /// Sum of the weights of the current MSF edges.
    pub fn total_weight(&self) -> u64 {
        self.total
    }

    /// Current MSF edge list `(u, v, w)` with `u < v`.
    pub fn edges(&self) -> Vec<(u32, u32, u64)> {
        self.weights.iter().map(|(&(u, v), &w)| (u, v, w)).collect()
    }

    /// The underlying dynamic forest (for benchmarking internals).
    pub fn forest(&self) -> &TernaryForest<MaxEdgeAgg<u64>> {
        &self.forest
    }

    /// Insert a batch of weighted edges, maintaining the MSF. Duplicate
    /// pairs within a batch keep only the lightest copy. Edges between
    /// already-connected vertices may evict the heaviest tree edge on
    /// their path (the cycle rule).
    pub fn insert_batch(&mut self, new_edges: &[(u32, u32, u64)]) -> BatchStats {
        self.insert_batch_timed(new_edges).0
    }

    /// [`IncrementalMsf::insert_batch`] with per-phase wall times —
    /// the breakdown the paper plots in Fig. 10.
    pub fn insert_batch_timed(
        &mut self,
        new_edges: &[(u32, u32, u64)],
    ) -> (BatchStats, BatchTimings) {
        let mut timings = BatchTimings::default();
        let t_all = std::time::Instant::now();
        let stats = self.insert_batch_inner(new_edges, &mut timings);
        timings.total = t_all.elapsed();
        (stats, timings)
    }

    fn insert_batch_inner(
        &mut self,
        new_edges: &[(u32, u32, u64)],
        timings: &mut BatchTimings,
    ) -> BatchStats {
        let mut stats = BatchStats::default();
        // Normalize + intra-batch dedup (keep lightest).
        let mut best: HashMap<(u32, u32), u64> = HashMap::new();
        for &(u, v, w) in new_edges {
            if u == v {
                stats.rejected += 1;
                continue;
            }
            let k = (u.min(v), u.max(v));
            let e = best.entry(k).or_insert(w);
            if w < *e {
                *e = w;
            }
        }
        let batch: Vec<(u32, u32, u64)> = best.into_iter().map(|((u, v), w)| (u, v, w)).collect();
        if batch.is_empty() {
            return stats;
        }

        // 1. Compressed path tree over the endpoints.
        let t0 = std::time::Instant::now();
        let endpoints: Vec<Vertex> = batch.iter().flat_map(|&(u, v, _)| [u, v]).collect();
        let cpt = self.forest.compressed_path_tree(&endpoints);
        stats.cpt_vertices = cpt.vertices.len();
        timings.cpt = t0.elapsed();

        // 2. Kruskal over compressed old edges + new edges, on the cpt's
        //    compact vertex space.
        let t1 = std::time::Instant::now();
        let mut index: HashMap<u32, u32> = HashMap::new();
        let id_of = |x: u32, index: &mut HashMap<u32, u32>| -> u32 {
            let next = index.len() as u32;
            *index.entry(x).or_insert(next)
        };
        enum Tag {
            Old(Option<EdgeRef<u64>>),
            New(u32, u32, u64),
        }
        let mut karcs: Vec<(u32, u32, u64, Tag)> = Vec::new();
        for (a, b, agg) in &cpt.edges {
            let ia = id_of(*a, &mut index);
            let ib = id_of(*b, &mut index);
            let w = agg.map_or(0, |e| e.w); // all-dummy paths are weightless
            karcs.push((ia, ib, w, Tag::Old(*agg)));
        }
        for &(u, v, w) in &batch {
            let iu = id_of(u, &mut index);
            let iv = id_of(v, &mut index);
            karcs.push((iu, iv, w, Tag::New(u, v, w)));
        }
        // Stable preference: on ties keep old edges (fewer updates).
        let mut order: Vec<usize> = (0..karcs.len()).collect();
        order.sort_by_key(|&i| {
            let tie = match karcs[i].3 {
                Tag::Old(_) => 0u8,
                Tag::New(..) => 1,
            };
            (karcs[i].2, tie, i)
        });
        let mut uf = UnionFind::new(index.len());
        let mut cuts: Vec<(u32, u32)> = Vec::new();
        let mut links: Vec<(u32, u32, u64)> = Vec::new();
        for i in order {
            let (a, b, _, ref tag) = karcs[i];
            let joined = uf.union(a, b);
            match tag {
                Tag::Old(agg) => {
                    if !joined {
                        // Evict the heaviest real edge under this
                        // compressed edge.
                        let e = agg.expect("evictable compressed edge has a real max edge");
                        let (u, v) = (self.forest.owner_of(e.u), self.forest.owner_of(e.v));
                        cuts.push((u, v));
                    }
                }
                Tag::New(u, v, w) => {
                    if joined {
                        links.push((*u, *v, *w));
                    } else {
                        stats.rejected += 1;
                    }
                }
            }
        }

        timings.kruskal = t1.elapsed();

        // 3. Apply to the dynamic forest.
        let t2 = std::time::Instant::now();
        stats.evicted = cuts.len();
        stats.inserted = links.len();
        for &(u, v) in &cuts {
            let k = (u.min(v), u.max(v));
            let w = self.weights.remove(&k).expect("evicted edge tracked");
            self.total -= w;
        }
        self.forest
            .batch_cut(&cuts)
            .expect("evicted edges exist in the forest");
        self.forest
            .batch_link(&links)
            .expect("accepted edges are acyclic");
        for &(u, v, w) in &links {
            self.weights.insert((u.min(v), u.max(v)), w);
            self.total += w;
        }
        timings.forest_update = t2.elapsed();
        stats
    }
}

/// Per-phase wall times of one incremental batch (Fig. 10's breakdown).
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchTimings {
    /// Compressed-path-tree generation.
    pub cpt: std::time::Duration,
    /// Kruskal on the O(k) compressed graph.
    pub kruskal: std::time::Duration,
    /// Batch cut + link on the dynamic forest.
    pub forest_update: std::time::Duration,
    /// Whole batch.
    pub total: std::time::Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_parlay::rng::SplitMix64;

    fn msf_weight_oracle(n: usize, edges: &[(u32, u32, u64)]) -> u64 {
        kruskal(n, edges).into_iter().map(|i| edges[i].2).sum()
    }

    #[test]
    fn triangle_keeps_two_lightest() {
        let mut m = IncrementalMsf::new(3);
        let s = m.insert_batch(&[(0, 1, 10), (1, 2, 20), (0, 2, 5)]);
        assert_eq!(m.total_weight(), 15);
        assert_eq!(s.inserted + s.rejected, 3);
        assert_eq!(m.num_edges(), 2);
    }

    #[test]
    fn eviction_across_batches() {
        let mut m = IncrementalMsf::new(4);
        m.insert_batch(&[(0, 1, 10), (1, 2, 20), (2, 3, 30)]);
        assert_eq!(m.total_weight(), 60);
        // A lighter shortcut evicts the heaviest path edge (2,3).
        let s = m.insert_batch(&[(0, 3, 5)]);
        assert_eq!(s.inserted, 1);
        assert_eq!(s.evicted, 1);
        assert_eq!(m.total_weight(), 35);
        assert!(m.edges().iter().all(|&(u, v, _)| (u, v) != (2, 3)));
    }

    #[test]
    fn duplicate_edges_keep_lightest() {
        let mut m = IncrementalMsf::new(2);
        m.insert_batch(&[(0, 1, 9), (1, 0, 4), (0, 1, 7)]);
        assert_eq!(m.total_weight(), 4);
        assert_eq!(m.num_edges(), 1);
    }

    #[test]
    fn matches_offline_kruskal_on_random_graphs() {
        let mut rng = SplitMix64::new(2025);
        for trial in 0..5 {
            let n = 120usize;
            let mut all: Vec<(u32, u32, u64)> = Vec::new();
            let mut m = IncrementalMsf::new(n);
            for _batch in 0..8 {
                let k = 1 + rng.next_below(40) as usize;
                let mut batch = Vec::with_capacity(k);
                for _ in 0..k {
                    let u = rng.next_below(n as u64) as u32;
                    let v = rng.next_below(n as u64) as u32;
                    if u == v {
                        continue;
                    }
                    let w = 1 + rng.next_below(10_000);
                    batch.push((u, v, w));
                }
                all.extend(batch.iter().copied());
                m.insert_batch(&batch);
                assert_eq!(
                    m.total_weight(),
                    msf_weight_oracle(n, &all),
                    "trial {trial}: weight diverged after batch {_batch}"
                );
            }
            m.forest().validate().unwrap();
        }
    }

    #[test]
    fn disconnected_components_merge() {
        let mut m = IncrementalMsf::new(6);
        m.insert_batch(&[(0, 1, 1), (2, 3, 1), (4, 5, 1)]);
        assert_eq!(m.num_edges(), 3);
        let s = m.insert_batch(&[(1, 2, 2), (3, 4, 2)]);
        assert_eq!(s.inserted, 2);
        assert_eq!(s.evicted, 0);
        assert_eq!(m.total_weight(), 7);
    }

    #[test]
    fn kruskal_baseline_sanity() {
        let edges = vec![(0u32, 1u32, 4u64), (1, 2, 2), (2, 0, 3), (2, 3, 9)];
        let chosen = kruskal(4, &edges);
        let w: u64 = chosen.iter().map(|&i| edges[i].2).sum();
        assert_eq!(w, 2 + 3 + 9);
    }
}
