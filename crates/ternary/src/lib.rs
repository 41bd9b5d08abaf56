//! Ternarization (paper §4, §5.9): arbitrary-degree dynamic forests layered
//! over degree-≤3 RC forests.
//!
//! Every real vertex owns a chain of *dummy* vertices connected by
//! identity-weight edges; each real edge `{u, v}` becomes a *cross edge*
//! between a dummy on `u`'s chain and a dummy on `v`'s chain, carrying the
//! original weight (Fig. 1). An insertion therefore contributes 3 inner
//! edges (Thm 4.2); a deletion removes the cross edge and splices the two
//! chains (<= 5 deletions + 2 insertions). Path sums, subtree sums, LCA
//! (after mapping dummies to owners) and nearest-marked queries are all
//! preserved (Thms 4.3-4.7).
//!
//! The layer is a black box, as in the paper: it accepts batches of real
//! add/delete edges, translates them (edge map + chain splicing), and
//! forwards one batch update to the inner [`RcForest`]. The translation
//! runs on one thread: the edge map is a `std` `HashMap` from
//! [`edge_key`] to the edge's two dummies, and `batch_cut` splices the
//! chains itself. Only the inner update is parallel.

use rc_core::aggregate::{ClusterAggregate, PathAggregate, SubtreeAggregate};
use rc_core::{CompressedPathTree, ForestError, MarkedSweep, RcForest, Vertex};
use rc_parlay::{edge_key, first_cycle};
use std::collections::{HashMap, HashSet};

mod backend;
pub use backend::{TernAgg, TernaryStdForest};

/// Sentinel for "no vertex".
const NONE32: u32 = u32::MAX;

/// An arbitrary-degree batch-dynamic forest over `n` real vertices.
///
/// Inner vertex ids: `0..n` are the real vertices (chain heads), `n..3n`
/// is the dummy pool. A forest on `n` vertices has at most `n - 1` edges,
/// each consuming exactly two dummies, so the pool can never overflow.
///
/// ```
/// use rc_ternary::TernaryForest;
/// use rc_core::SumAgg;
/// let mut f = TernaryForest::<SumAgg<i64>>::new(5, 0);
/// // A degree-4 star — impossible for the raw RC forest.
/// f.batch_link(&[(0, 1, 10), (0, 2, 20), (0, 3, 30), (0, 4, 40)]).unwrap();
/// assert_eq!(f.path_aggregate(1, 4), Some(50));
/// ```
pub struct TernaryForest<A: ClusterAggregate> {
    inner: RcForest<A>,
    n: usize,
    chain_weight: A::EdgeWeight,
    /// Owner of every inner vertex (identity for reals).
    owner: Vec<Vertex>,
    /// Chain links between inner vertices (NONE32-terminated).
    next: Vec<u32>,
    prev: Vec<u32>,
    /// Last vertex of each real vertex's chain (the real vertex itself
    /// when the chain is empty).
    tail: Vec<u32>,
    /// Free dummy ids.
    free: Vec<u32>,
    /// `edge_key(u, v)` -> packed `(d_min << 32) | d_max` where `d_min`
    /// lies on `min(u,v)`'s chain.
    edge_map: HashMap<u64, u64>,
    num_edges: usize,
}

impl<A: ClusterAggregate> TernaryForest<A> {
    /// Create an empty forest on `n` real vertices. `chain_weight` is the
    /// identity weight carried by dummy chain edges (`0` for sums,
    /// `u64::MAX` for path-minimum aggregates, ...).
    pub fn new(n: usize, chain_weight: A::EdgeWeight) -> Self {
        let cap = 3 * n.max(1);
        let inner = RcForest::new(cap);
        let mut owner: Vec<Vertex> = (0..n as u32).collect();
        owner.resize(cap, NONE32);
        TernaryForest {
            inner,
            n,
            chain_weight,
            owner,
            next: vec![NONE32; cap],
            prev: vec![NONE32; cap],
            tail: (0..n as u32).collect(),
            free: (n as u32..cap as u32).rev().collect(),
            edge_map: HashMap::new(),
            num_edges: 0,
        }
    }

    /// Number of real vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of real edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// The inner degree-<=3 forest (read access for diagnostics/benches).
    pub fn inner(&self) -> &RcForest<A> {
        &self.inner
    }

    /// Map an inner vertex to its owning real vertex.
    pub fn owner_of(&self, inner_vertex: Vertex) -> Vertex {
        self.owner[inner_vertex as usize]
    }

    /// Current degree of real vertex `v` (number of real incident edges).
    pub fn degree(&self, v: Vertex) -> usize {
        let mut d = 0;
        let mut cur = self.next[v as usize];
        while cur != NONE32 {
            d += 1;
            cur = self.next[cur as usize];
        }
        d
    }

    /// Does edge `{u, v}` exist?
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        u != v && self.edge_map.contains_key(&edge_key(u, v))
    }

    /// The two dummies realizing real edge `{u, v}`: `(on u's chain, on
    /// v's chain)`.
    pub fn dummies_of(&self, u: Vertex, v: Vertex) -> Option<(u32, u32)> {
        let packed = *self.edge_map.get(&edge_key(u, v))?;
        let lo_side = (packed >> 32) as u32;
        let hi_side = packed as u32;
        if u <= v {
            Some((lo_side, hi_side))
        } else {
            Some((hi_side, lo_side))
        }
    }

    /// Insert a batch of weighted real edges of arbitrary degree.
    /// Each add contributes 3 inner edges (Thm 4.2). Cycles and
    /// duplicates are rejected (the batch is applied atomically:
    /// validation happens against the *real* forest first).
    pub fn batch_link(
        &mut self,
        links: &[(Vertex, Vertex, A::EdgeWeight)],
    ) -> Result<(), ForestError> {
        // Validation against the real forest, including cycles among the
        // new edges (union-find over current components).
        let mut seen = HashSet::new();
        for &(u, v, _) in links {
            if u as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v: u, n: self.n });
            }
            if v as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v, n: self.n });
            }
            if u == v {
                return Err(ForestError::SelfLoop { v });
            }
            if !seen.insert(edge_key(u, v)) || self.has_edge(u, v) {
                return Err(ForestError::DuplicateEdge { u, v });
            }
        }
        {
            let starts: Vec<Vertex> = links.iter().flat_map(|&(u, v, _)| [u, v]).collect();
            let reprs = self.inner.batch_find_representatives(&starts);
            let pairs: Vec<(Vertex, Vertex)> =
                reprs.chunks_exact(2).map(|r| (r[0], r[1])).collect();
            if let Some(i) = first_cycle(&pairs) {
                let (u, v) = (links[i].0, links[i].1);
                return Err(ForestError::WouldCreateCycle { u, v });
            }
        }
        // Translate: allocate dummies, extend chains, cross-link.
        let mut inner_links: Vec<(u32, u32, A::EdgeWeight)> = Vec::with_capacity(links.len() * 3);
        for &(u, v, ref w) in links {
            let du = self.extend_chain(u, &mut inner_links);
            let dv = self.extend_chain(v, &mut inner_links);
            inner_links.push((du, dv, w.clone()));
            let (a, b) = if u <= v { (du, dv) } else { (dv, du) };
            self.edge_map
                .insert(edge_key(u, v), ((a as u64) << 32) | b as u64);
        }
        self.inner
            .batch_update_unchecked(&inner_links, &[])
            .expect("pre-validated ternary link must succeed");
        self.num_edges += links.len();
        Ok(())
    }

    fn extend_chain(&mut self, u: Vertex, inner_links: &mut Vec<(u32, u32, A::EdgeWeight)>) -> u32 {
        let d = self
            .free
            .pop()
            .expect("dummy pool exhausted (impossible for forests)");
        let t = self.tail[u as usize];
        self.next[t as usize] = d;
        self.prev[d as usize] = t;
        self.next[d as usize] = NONE32;
        self.tail[u as usize] = d;
        self.owner[d as usize] = u;
        inner_links.push((t, d, self.chain_weight.clone()));
        d
    }

    /// Delete a batch of existing real edges. Each delete contributes at
    /// most 5 inner deletions and 2 inner insertions (Thm 4.2).
    pub fn batch_cut(&mut self, cuts: &[(Vertex, Vertex)]) -> Result<(), ForestError> {
        let mut seen = HashSet::new();
        for &(u, v) in cuts {
            if u as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v: u, n: self.n });
            }
            if v as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v, n: self.n });
            }
            if !seen.insert(edge_key(u, v)) || !self.has_edge(u, v) {
                return Err(ForestError::MissingEdge { u, v });
            }
        }
        let mut inner_cuts: Vec<(u32, u32)> = Vec::with_capacity(cuts.len() * 3);
        let mut inner_links: Vec<(u32, u32, A::EdgeWeight)> = Vec::with_capacity(cuts.len());
        // Cross edges + the set of dummies leaving their chains.
        let mut removed: HashSet<u32> = HashSet::new();
        for &(u, v) in cuts {
            let (du, dv) = self.dummies_of(u, v).expect("validated");
            inner_cuts.push((du, dv));
            self.edge_map.remove(&edge_key(u, v));
            removed.insert(du);
            removed.insert(dv);
        }
        // Chains splice whole *runs* of removed dummies at once (adjacent
        // removals must not stage cuts of edges staged as links within the
        // same batch). This is the net-diff form of the paper's list
        // contraction: per run, cut the boundary + interior chain edges
        // and add one bridging edge.
        let run_starts: Vec<u32> = removed
            .iter()
            .copied()
            .filter(|&d| !removed.contains(&self.prev[d as usize]))
            .collect();
        for start in run_starts {
            let p = self.prev[start as usize];
            debug_assert_ne!(p, NONE32, "dummies always have a predecessor");
            inner_cuts.push((p, start));
            let mut end = start;
            loop {
                let nx = self.next[end as usize];
                if nx != NONE32 && removed.contains(&nx) {
                    inner_cuts.push((end, nx));
                    end = nx;
                } else {
                    break;
                }
            }
            let after = self.next[end as usize];
            // Release the run.
            let owner = self.owner[start as usize];
            let mut d = start;
            loop {
                let dn = self.next[d as usize];
                self.next[d as usize] = NONE32;
                self.prev[d as usize] = NONE32;
                self.owner[d as usize] = NONE32;
                self.free.push(d);
                if d == end {
                    break;
                }
                d = dn;
            }
            // Bridge or truncate the chain.
            if after != NONE32 {
                inner_cuts.push((end, after));
                inner_links.push((p, after, self.chain_weight.clone()));
                self.next[p as usize] = after;
                self.prev[after as usize] = p;
            } else {
                self.next[p as usize] = NONE32;
                self.tail[owner as usize] = p;
            }
        }
        self.inner
            .batch_update_unchecked(&inner_links, &inner_cuts)
            .expect("ternary splice produced an invalid inner update");
        self.num_edges -= cuts.len();
        Ok(())
    }

    /// Are `u` and `v` connected? (ternarization preserves connectivity;
    /// `false` when either vertex is out of the *real* range, which is
    /// narrower than the inner forest's.)
    pub fn connected(&self, u: Vertex, v: Vertex) -> bool {
        (u as usize) < self.n && (v as usize) < self.n && self.inner.connected(u, v)
    }

    /// Batch connectivity over real vertex pairs (out-of-range → `false`).
    pub fn batch_connected(&self, pairs: &[(Vertex, Vertex)]) -> Vec<bool> {
        self.inner.batch_connected(&self.bound_pairs(pairs))
    }

    /// Map ids past the real range to an id the inner forest also rejects
    /// (real ids are inner ids, but the inner forest is 3× larger — a raw
    /// pass-through would alias dummy vertices).
    fn bound_real(&self, v: Vertex) -> Vertex {
        if (v as usize) < self.n {
            v
        } else {
            NONE32
        }
    }

    /// [`Self::bound_real`] over a pair batch — every batch entry point
    /// over pairs must route through this (or its vertex/triple siblings)
    /// so out-of-range ids can never alias dummies.
    fn bound_pairs(&self, pairs: &[(Vertex, Vertex)]) -> Vec<(Vertex, Vertex)> {
        pairs
            .iter()
            .map(|&(u, v)| (self.bound_real(u), self.bound_real(v)))
            .collect()
    }

    /// [`Self::bound_real`] over a vertex batch.
    fn bound_vertices(&self, vs: &[Vertex]) -> Vec<Vertex> {
        vs.iter().map(|&v| self.bound_real(v)).collect()
    }

    /// Component representatives for a batch of real vertices (real
    /// vertices are chain heads of the inner forest, so representatives
    /// are comparable across calls). Out-of-range vertices map to
    /// `u32::MAX`.
    pub fn batch_find_representatives(&self, vs: &[Vertex]) -> Vec<Vertex> {
        self.inner
            .batch_find_representatives(&self.bound_vertices(vs))
    }

    /// A marked-subtree engine sweep of the inner forest over real start
    /// vertices — the extension point for custom batch queries through
    /// the ternarization layer (real vertex ids are valid inner ids; map
    /// Steiner/dummy representatives back with
    /// [`TernaryForest::owner_of`]).
    pub fn marked_sweep<I: IntoIterator<Item = Vertex>>(&self, starts: I) -> MarkedSweep<'_, A> {
        let n = self.n;
        self.inner
            .marked_sweep(starts.into_iter().filter(move |&v| (v as usize) < n))
    }

    /// Set real vertex weights (dummies keep the default weight).
    pub fn update_vertex_weights(
        &mut self,
        updates: &[(Vertex, A::VertexWeight)],
    ) -> Result<(), ForestError> {
        for &(v, _) in updates {
            if v as usize >= self.n {
                return Err(ForestError::VertexOutOfRange { v, n: self.n });
            }
        }
        self.inner.update_vertex_weights(updates)
    }

    /// Update the weight of existing real edges.
    pub fn update_edge_weights(
        &mut self,
        updates: &[(Vertex, Vertex, A::EdgeWeight)],
    ) -> Result<(), ForestError> {
        let mut inner: Vec<(u32, u32, A::EdgeWeight)> = Vec::with_capacity(updates.len());
        for &(u, v, ref w) in updates {
            let (du, dv) = self
                .dummies_of(u, v)
                .ok_or(ForestError::MissingEdge { u, v })?;
            inner.push((du, dv, w.clone()));
        }
        self.inner.update_edge_weights(&inner)
    }

    /// LCA over real vertices with respect to root `r` (Thm 4.7: the
    /// owner of the inner LCA equals the real LCA). `None` when a vertex
    /// is out of the real range.
    pub fn lca(&self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        if [u, v, r].iter().any(|&x| x as usize >= self.n) {
            return None;
        }
        self.inner.lca(u, v, r).map(|x| self.owner[x as usize])
    }

    /// Batch LCA over real triples (entries naming out-of-range vertices
    /// answer `None`).
    pub fn batch_lca(&self, queries: &[(Vertex, Vertex, Vertex)]) -> Vec<Option<Vertex>> {
        let bounded: Vec<(Vertex, Vertex, Vertex)> = queries
            .iter()
            .map(|&(u, v, r)| (self.bound_real(u), self.bound_real(v), self.bound_real(r)))
            .collect();
        self.inner
            .batch_lca(&bounded)
            .into_iter()
            .map(|o| o.map(|x| self.owner[x as usize]))
            .collect()
    }

    /// Check chain invariants plus the inner forest's invariants.
    pub fn validate(&self) -> Result<(), String> {
        self.inner.validate()?;
        for v in 0..self.n as u32 {
            let mut cur = v;
            let mut steps = 0;
            while self.next[cur as usize] != NONE32 {
                let nx = self.next[cur as usize];
                if self.prev[nx as usize] != cur {
                    return Err(format!("chain of {v}: prev broken at {nx}"));
                }
                if self.owner[nx as usize] != v {
                    return Err(format!("chain of {v}: owner broken at {nx}"));
                }
                cur = nx;
                steps += 1;
                if steps > 3 * self.n {
                    return Err(format!("chain of {v}: cycle"));
                }
            }
            if self.tail[v as usize] != cur {
                return Err(format!("chain of {v}: tail mismatch"));
            }
        }
        Ok(())
    }
}

impl<P: PathAggregate> TernaryForest<P> {
    /// Path aggregate between real vertices (Thm 4.3: preserved because
    /// chain edges carry the identity weight). `None` out of real range.
    pub fn path_aggregate(&self, u: Vertex, v: Vertex) -> Option<P::PathVal> {
        self.inner
            .path_aggregate(self.bound_real(u), self.bound_real(v))
    }

    /// Compressed path tree over real terminals (out-of-range terminals
    /// ignored, as in the core). Steiner vertices may be dummies; map
    /// them with [`TernaryForest::owner_of`] if needed.
    pub fn compressed_path_tree(&self, terminals: &[Vertex]) -> CompressedPathTree<P> {
        let real: Vec<Vertex> = terminals
            .iter()
            .copied()
            .filter(|&v| (v as usize) < self.n)
            .collect();
        self.inner.compressed_path_tree(&real)
    }

    /// Batch path minima/maxima over real pairs (out-of-range → `None`).
    pub fn batch_path_extrema(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<P::PathVal>> {
        self.inner.batch_path_extrema(&self.bound_pairs(pairs))
    }
}

impl<P: rc_core::aggregate::GroupPathAggregate> TernaryForest<P> {
    /// Batch path sums over real pairs (commutative group weights;
    /// out-of-range → `None`).
    pub fn batch_path_aggregate(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<P::PathVal>> {
        self.inner.batch_path_aggregate(&self.bound_pairs(pairs))
    }
}

impl<S: SubtreeAggregate> TernaryForest<S> {
    /// Subtree aggregate rooted at `u` away from its real neighbor `p`
    /// (Thm 4.4: query the dummy pair of edge `{u, p}`).
    pub fn subtree_aggregate(&self, u: Vertex, p: Vertex) -> Option<S::SubtreeVal> {
        let (du, dp) = self.dummies_of(u, p)?;
        self.inner.subtree_aggregate(du, dp)
    }

    /// Batched subtree aggregates over `(root, direction-giver)` pairs.
    pub fn batch_subtree_aggregate(
        &self,
        queries: &[(Vertex, Vertex)],
    ) -> Vec<Option<S::SubtreeVal>> {
        let mapped: Vec<(u32, u32)> = queries
            .iter()
            .map(|&(u, p)| self.dummies_of(u, p).unwrap_or((NONE32, NONE32)))
            .collect();
        let valid: Vec<(u32, u32)> = mapped
            .iter()
            .copied()
            .filter(|&(a, _)| a != NONE32)
            .collect();
        let answers = self.inner.batch_subtree_aggregate(&valid);
        let mut it = answers.into_iter();
        mapped
            .into_iter()
            .map(|(a, _)| {
                if a == NONE32 {
                    None
                } else {
                    it.next().unwrap()
                }
            })
            .collect()
    }
}

impl TernaryForest<rc_core::NearestMarkedAgg> {
    /// Create a nearest-marked ternary forest (chain weight 0).
    pub fn new_nearest_marked(n: usize) -> Self {
        Self::new(n, 0)
    }
}

/// Nearest-marked queries through ternarization: marks live on real
/// vertices; chain edges carry distance 0 (the identity edge weight), so
/// distances are preserved. Available for any aggregate carrying a
/// nearest-marked record — the plain [`rc_core::NearestMarkedAgg`] or
/// composites such as the backend's `TernAgg`.
impl<A: rc_core::NearestMarkedAggregate> TernaryForest<A> {
    /// Mark real vertices (out-of-range ids ignored — dummies must never
    /// carry marks).
    pub fn batch_mark(&mut self, vs: &[Vertex]) {
        let real: Vec<Vertex> = vs
            .iter()
            .copied()
            .filter(|&v| (v as usize) < self.n)
            .collect();
        self.inner
            .batch_mark(&real)
            .expect("real ids are valid inner ids");
    }

    /// Unmark real vertices (out-of-range ids ignored).
    pub fn batch_unmark(&mut self, vs: &[Vertex]) {
        let real: Vec<Vertex> = vs
            .iter()
            .copied()
            .filter(|&v| (v as usize) < self.n)
            .collect();
        self.inner
            .batch_unmark(&real)
            .expect("real ids are valid inner ids");
    }

    /// Nearest marked vertex for each query (distance, witness);
    /// out-of-range queries answer `None`.
    pub fn batch_nearest_marked(&self, queries: &[Vertex]) -> Vec<Option<(u64, Vertex)>> {
        self.inner
            .batch_nearest_marked(&self.bound_vertices(queries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_core::SumAgg;
    use rc_parlay::rng::SplitMix64;

    type TF = TernaryForest<SumAgg<i64>>;

    #[test]
    fn star_of_high_degree() {
        let n = 20;
        let mut f = TF::new(n, 0);
        let links: Vec<(u32, u32, i64)> = (1..n as u32).map(|v| (0, v, v as i64)).collect();
        f.batch_link(&links).unwrap();
        f.validate().unwrap();
        assert_eq!(f.degree(0), n - 1);
        for v in 1..n as u32 {
            assert_eq!(f.path_aggregate(0, v), Some(v as i64));
        }
        assert_eq!(f.path_aggregate(1, 19), Some(20));
    }

    #[test]
    fn cut_and_relink_high_degree() {
        let mut f = TF::new(10, 0);
        let links: Vec<(u32, u32, i64)> = (1..10u32).map(|v| (0, v, 1)).collect();
        f.batch_link(&links).unwrap();
        f.batch_cut(&[(0, 5), (0, 7)]).unwrap();
        f.validate().unwrap();
        assert!(!f.connected(0, 5));
        assert!(!f.connected(5, 7));
        assert_eq!(f.degree(0), 7);
        f.batch_link(&[(5, 7, 2), (1, 5, 3)]).unwrap();
        f.validate().unwrap();
        assert_eq!(f.path_aggregate(0, 7), Some(1 + 3 + 2));
        assert_eq!(f.num_edges(), 9);
    }

    #[test]
    fn rejects_cycles_and_duplicates() {
        let mut f = TF::new(4, 0);
        f.batch_link(&[(0, 1, 1), (1, 2, 1)]).unwrap();
        assert!(f.batch_link(&[(0, 1, 5)]).is_err());
        assert!(
            f.batch_link(&[(0, 2, 5)]).is_err(),
            "cycle via existing edges"
        );
        assert!(
            f.batch_link(&[(2, 3, 1), (3, 0, 1)]).is_err(),
            "cycle among new"
        );
        assert!(f.batch_cut(&[(0, 2)]).is_err());
        f.validate().unwrap();
    }

    #[test]
    fn subtree_queries_via_dummies() {
        // Star with center 0, leaves 1..=4, edge weight 1; vertex weights 10*id.
        let mut f = TF::new(5, 0);
        f.batch_link(&(1..5u32).map(|v| (0, v, 1i64)).collect::<Vec<_>>())
            .unwrap();
        f.update_vertex_weights(&(0..5u32).map(|v| (v, v as i64 * 10)).collect::<Vec<_>>())
            .unwrap();
        // Subtree of 0 away from 1: everything except leaf 1 and edge (0,1).
        assert_eq!(f.subtree_aggregate(0, 1), Some(20 + 30 + 40 + 3));
        assert_eq!(f.subtree_aggregate(3, 0), Some(30));
        let batch = f.batch_subtree_aggregate(&[(0, 1), (3, 0), (1, 2)]);
        assert_eq!(batch[0], Some(93));
        assert_eq!(batch[1], Some(30));
        assert_eq!(batch[2], None, "1 and 2 not adjacent");
    }

    #[test]
    fn lca_maps_owners() {
        let mut f = TF::new(7, 0);
        f.batch_link(&(1..7u32).map(|v| (0, v, 1i64)).collect::<Vec<_>>())
            .unwrap();
        assert_eq!(f.lca(1, 2, 3), Some(0));
        assert_eq!(f.lca(1, 0, 3), Some(0));
        assert_eq!(f.lca(4, 4, 5), Some(4));
        let batch = f.batch_lca(&[(1, 2, 3), (5, 6, 1)]);
        assert_eq!(batch, vec![Some(0), Some(0)]);
    }

    #[test]
    fn stress_against_naive() {
        let n = 60usize;
        let mut f = TF::new(n, 0);
        let mut naive = rc_core::naive::NaiveForest::<i64>::new(n);
        let mut rng = SplitMix64::new(555);
        for round in 0..30 {
            let mut links: Vec<(u32, u32, i64)> = Vec::new();
            let mut cuts: Vec<(u32, u32)> = Vec::new();
            for _ in 0..5 {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                if u == v {
                    continue;
                }
                if naive.edge_weight(u, v).is_some() {
                    if !cuts.contains(&(u, v)) && !cuts.contains(&(v, u)) {
                        cuts.push((u, v));
                    }
                } else if !naive.connected(u, v)
                    && !links
                        .iter()
                        .any(|&(a, b, _)| (a, b) == (u, v) || (b, a) == (u, v))
                {
                    links.push((u, v, rng.next_below(50) as i64));
                }
            }
            let mut ok_links = Vec::new();
            for &(u, v, w) in &links {
                let mut trial = naive.clone();
                for &(a, b, ww) in &ok_links {
                    let _ = trial.link(a, b, ww);
                }
                if trial.link(u, v, w).is_ok() {
                    ok_links.push((u, v, w));
                }
            }
            for &(u, v) in &cuts {
                naive.cut(u, v).unwrap();
            }
            for &(u, v, w) in &ok_links {
                naive.link(u, v, w).unwrap();
            }
            f.batch_cut(&cuts).unwrap();
            f.batch_link(&ok_links).unwrap();
            f.validate()
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
            for _ in 0..20 {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                let expect = naive.path_edges(u, v).map(|es| es.iter().sum::<i64>());
                assert_eq!(
                    f.path_aggregate(u, v),
                    expect,
                    "round {round}: path {u}..{v}"
                );
            }
        }
    }

    #[test]
    fn nearest_marked_through_chains() {
        let mut f = TernaryForest::<rc_core::NearestMarkedAgg>::new_nearest_marked(6);
        f.batch_link(&[(0, 1, 5), (0, 2, 3), (0, 3, 2), (3, 4, 7), (3, 5, 1)])
            .unwrap();
        f.batch_mark(&[1, 5]);
        let got = f.batch_nearest_marked(&[4, 2, 0]);
        assert_eq!(got[0].unwrap(), (8, 5), "4 -> 3 -> 5");
        assert_eq!(got[1].unwrap(), (6, 5), "2 -> 0 -> 3 -> 5");
        assert_eq!(got[2].unwrap(), (3, 5));
    }
}
