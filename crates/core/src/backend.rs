//! The [`DynamicForest`] backend trait: one op surface, many structures.
//!
//! The paper's headline experiment is a backend-vs-backend shootout:
//! batch-parallel RC-tree queries against independent sequential
//! dynamic-tree operations, crossing over once the batch size is large
//! enough. This module extracts that common surface so RC trees
//! ([`RcForest<StdAgg>`]), ternarized RC trees (`rc-ternary`), link-cut
//! trees (`rc-lct`) and the naive oracle ([`NaiveStdForest`]) are
//! interchangeable behind one trait — for differential testing, stream
//! replay (`rc-gen`), and crossover benchmarks (`rc-bench`).
//!
//! The trait is concrete over the *standard weight model* ([`StdAgg`]):
//! `u64` edge weights, `u64` additive vertex weights with a mark bit,
//! wrapping sums, and extreme edges reported as [`EdgeRef`] witnesses with
//! the deterministic `(weight, u, v)` tie-break. Fixing the model is what
//! makes responses comparable *bit-for-bit* across backends.

use crate::aggregates::{EdgeRef, PathSummary, StdAgg, StdVertexWeight};
use crate::forest::RcForest;
use crate::naive::NaiveForest;
use crate::state::ForestState;
use crate::types::{ForestError, Vertex};

/// A dynamic forest over `n` fixed vertices supporting edge insertion and
/// deletion plus the seven query families of the paper, under one uniform
/// response contract.
///
/// # Update contract (`ForestError`, validate-then-apply)
///
/// Single-op updates either apply fully or return a [`ForestError`]
/// without changing anything. Backends agree on the exact error *and* the
/// order checks are performed in, so two backends driven by the same op
/// sequence produce identical `Result`s:
///
/// * [`link`](Self::link): range of `u`, range of `v`, self-loop,
///   duplicate edge, degree of `u`, degree of `v` (only when the backend
///   enforces a cap — see [`max_degree`](Self::max_degree)), cycle.
/// * [`cut`](Self::cut): range of `u`, range of `v`, missing edge.
/// * [`set_edge_weight`](Self::set_edge_weight): missing edge (an
///   out-of-range endpoint also reports [`ForestError::MissingEdge`],
///   matching `RcForest::update_edge_weights`).
/// * [`set_vertex_weight`](Self::set_vertex_weight) /
///   [`set_mark`](Self::set_mark): vertex range.
///
/// The default batch implementations ([`batch_link`](Self::batch_link),
/// [`batch_cut`](Self::batch_cut)) apply ops sequentially and stop at the
/// first error — a *prefix* may have been applied. Batch-native backends
/// (RC trees) override them with atomic validate-then-apply semantics;
/// differential tests therefore compare backends over single ops, where
/// the contracts coincide exactly.
///
/// # Query contract (uniform `None`)
///
/// Queries accept arbitrary vertex ids and never panic:
///
/// * any out-of-range id → `None` (`false` for [`connected`](Self::connected));
/// * self-pairs are well-defined: `path_sum(u, u)` / `path_extrema(u, u)`
///   answer the empty-path identity, `lca(u, u, r)` answers `u` when
///   connected to `r`, `subtree_sum(u, u)` answers `None` (`u` is not its
///   own neighbor);
/// * disconnected pairs → `None`;
/// * [`subtree_sum`](Self::subtree_sum) requires `parent` to currently be
///   a neighbor of `v`, else `None`;
/// * [`nearest_marked`](Self::nearest_marked) answers the nearest marked
///   vertex in `v`'s tree as `(distance, vertex)`, ties broken toward the
///   lexicographically smaller pair, `None` when the component has no
///   marks.
///
/// [`representative`](Self::representative) is the one family compared
/// *structurally* rather than literally: the contract is only that two
/// vertices map to the same representative iff they are connected (and
/// out-of-range ids map to `None`). Which vertex represents a component —
/// and whether it is stable across queries — is backend-defined (link-cut
/// trees re-root on every query). Differential harnesses compare the
/// induced partition, not the ids.
pub trait DynamicForest {
    /// Short stable name for reports and benchmark output.
    fn backend_name(&self) -> &'static str;

    /// Number of vertices (fixed at construction).
    fn num_vertices(&self) -> usize;

    /// Number of live edges.
    fn num_edges(&self) -> usize;

    /// The degree cap this backend enforces on [`link`](Self::link)
    /// (`Some(3)` for raw RC forests, `None` for ternarized/pointer
    /// structures). Workload generators use it to shape valid streams.
    fn max_degree(&self) -> Option<usize>;

    /// Cheap monotone version stamp: advances at least once per
    /// successful state-changing operation and never otherwise, so two
    /// equal reads bracket an unchanged forest without hashing state.
    /// Backends that do not track versions return `0`; consumers must
    /// treat `0` as "no information", never as "unchanged".
    fn version(&self) -> u64 {
        0
    }

    // ---- updates ----

    /// Insert edge `{u, v}` with weight `w`.
    fn link(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError>;

    /// Delete edge `{u, v}`.
    fn cut(&mut self, u: Vertex, v: Vertex) -> Result<(), ForestError>;

    /// Set the weight of existing edge `{u, v}`.
    fn set_edge_weight(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError>;

    /// Set the additive weight of vertex `v` (mark bit unchanged).
    fn set_vertex_weight(&mut self, v: Vertex, w: u64) -> Result<(), ForestError>;

    /// Set the mark bit of vertex `v` (additive weight unchanged).
    fn set_mark(&mut self, v: Vertex, marked: bool) -> Result<(), ForestError>;

    /// Insert a batch of edges. Default: sequential, stops at the first
    /// error (prefix applied). Batch-native backends override with atomic
    /// semantics.
    fn batch_link(&mut self, links: &[(Vertex, Vertex, u64)]) -> Result<(), ForestError> {
        for &(u, v, w) in links {
            self.link(u, v, w)?;
        }
        Ok(())
    }

    /// Delete a batch of edges. Default: sequential, stops at the first
    /// error (prefix applied).
    fn batch_cut(&mut self, cuts: &[(Vertex, Vertex)]) -> Result<(), ForestError> {
        for &(u, v) in cuts {
            self.cut(u, v)?;
        }
        Ok(())
    }

    // ---- the seven query families ----

    /// Are `u` and `v` in the same tree?
    fn connected(&mut self, u: Vertex, v: Vertex) -> bool;

    /// Component representative (see the trait docs for the structural
    /// comparison contract).
    fn representative(&mut self, v: Vertex) -> Option<Vertex>;

    /// Sum of edge weights on the `u..v` path (wrapping).
    fn path_sum(&mut self, u: Vertex, v: Vertex) -> Option<u64>;

    /// Sum + lightest + heaviest edge on the `u..v` path.
    fn path_extrema(&mut self, u: Vertex, v: Vertex) -> Option<PathSummary>;

    /// LCA of `u` and `v` in the tree rooted at `r`.
    fn lca(&mut self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex>;

    /// Sum of edge + vertex weights in the subtree at `v` away from its
    /// neighbor `parent` (excluding the edge `{v, parent}`).
    fn subtree_sum(&mut self, v: Vertex, parent: Vertex) -> Option<u64>;

    /// Nearest marked vertex to `v` as `(distance, vertex)`.
    fn nearest_marked(&mut self, v: Vertex) -> Option<(u64, Vertex)>;

    // ---- batch queries (default: loop singles; RC overrides natively) ----

    /// Batched [`connected`](Self::connected).
    fn batch_connected(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<bool> {
        pairs.iter().map(|&(u, v)| self.connected(u, v)).collect()
    }

    /// Batched [`representative`](Self::representative).
    fn batch_representatives(&mut self, vs: &[Vertex]) -> Vec<Option<Vertex>> {
        vs.iter().map(|&v| self.representative(v)).collect()
    }

    /// Batched [`path_sum`](Self::path_sum).
    fn batch_path_sum(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<u64>> {
        pairs.iter().map(|&(u, v)| self.path_sum(u, v)).collect()
    }

    /// Batched [`path_extrema`](Self::path_extrema).
    fn batch_path_extrema(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<PathSummary>> {
        pairs
            .iter()
            .map(|&(u, v)| self.path_extrema(u, v))
            .collect()
    }

    /// Batched [`lca`](Self::lca).
    fn batch_lca(&mut self, queries: &[(Vertex, Vertex, Vertex)]) -> Vec<Option<Vertex>> {
        queries.iter().map(|&(u, v, r)| self.lca(u, v, r)).collect()
    }

    /// Batched [`subtree_sum`](Self::subtree_sum).
    fn batch_subtree_sum(&mut self, queries: &[(Vertex, Vertex)]) -> Vec<Option<u64>> {
        queries
            .iter()
            .map(|&(v, p)| self.subtree_sum(v, p))
            .collect()
    }

    /// Batched [`nearest_marked`](Self::nearest_marked).
    fn batch_nearest_marked(&mut self, vs: &[Vertex]) -> Vec<Option<(u64, Vertex)>> {
        vs.iter().map(|&v| self.nearest_marked(v)).collect()
    }

    // ---- state export / import (snapshots, cross-backend equality) ----

    /// Export the complete logical state — edges with weights, vertex
    /// weights, marks — as a canonical [`ForestState`].
    ///
    /// Canonical form means two backends hold the same forest iff their
    /// exports are `==`, regardless of internal representation. This is
    /// the extraction side of the durability layer's snapshots; the
    /// restore side is [`ForestState::build_std_forest`] (batch build)
    /// or [`import_state`](Self::import_state).
    fn export_state(&self) -> ForestState;

    /// Load `state` into this (empty, same-`n`) forest. Default: one
    /// [`batch_link`](Self::batch_link) over the edge list (batch-native
    /// backends take their parallel path) plus weight/mark updates.
    fn import_state(&mut self, state: &ForestState) -> Result<(), ForestError> {
        assert_eq!(self.num_vertices(), state.n, "import into same-n forest");
        assert_eq!(self.num_edges(), 0, "import into an empty forest");
        self.batch_link(&state.edges)?;
        for (v, &w) in state.weights.iter().enumerate() {
            if w != 0 {
                self.set_vertex_weight(v as Vertex, w)?;
            }
        }
        for &m in &state.marks {
            self.set_mark(m, true)?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// RC forest backend
// ---------------------------------------------------------------------

impl DynamicForest for RcForest<StdAgg> {
    fn backend_name(&self) -> &'static str {
        "rc"
    }

    fn num_vertices(&self) -> usize {
        RcForest::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        RcForest::num_edges(self)
    }

    fn max_degree(&self) -> Option<usize> {
        Some(crate::types::MAX_DEGREE)
    }

    fn version(&self) -> u64 {
        RcForest::version(self)
    }

    fn link(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError> {
        RcForest::batch_link(self, &[(u, v, w)])
    }

    fn cut(&mut self, u: Vertex, v: Vertex) -> Result<(), ForestError> {
        RcForest::batch_cut(self, &[(u, v)])
    }

    fn set_edge_weight(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError> {
        self.update_edge_weights(&[(u, v, w)])
    }

    fn set_vertex_weight(&mut self, v: Vertex, w: u64) -> Result<(), ForestError> {
        if !self.in_range(v) {
            return Err(ForestError::VertexOutOfRange {
                v,
                n: RcForest::num_vertices(self),
            });
        }
        let marked = self.vertex_weight(v).marked;
        self.update_vertex_weights(&[(v, StdVertexWeight { weight: w, marked })])
    }

    fn set_mark(&mut self, v: Vertex, marked: bool) -> Result<(), ForestError> {
        if marked {
            self.batch_mark(&[v])
        } else {
            self.batch_unmark(&[v])
        }
    }

    fn batch_link(&mut self, links: &[(Vertex, Vertex, u64)]) -> Result<(), ForestError> {
        RcForest::batch_link(self, links)
    }

    fn batch_cut(&mut self, cuts: &[(Vertex, Vertex)]) -> Result<(), ForestError> {
        RcForest::batch_cut(self, cuts)
    }

    fn connected(&mut self, u: Vertex, v: Vertex) -> bool {
        RcForest::connected(self, u, v)
    }

    fn representative(&mut self, v: Vertex) -> Option<Vertex> {
        if self.in_range(v) {
            Some(self.find_representative(v))
        } else {
            None
        }
    }

    fn path_sum(&mut self, u: Vertex, v: Vertex) -> Option<u64> {
        self.path_aggregate(u, v).map(|p| p.sum)
    }

    fn path_extrema(&mut self, u: Vertex, v: Vertex) -> Option<PathSummary> {
        // One walk: min/max over a total order, like the sum, does not
        // depend on evaluation order, so the walk's summary is exact.
        self.path_aggregate(u, v)
    }

    fn lca(&mut self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        RcForest::lca(self, u, v, r)
    }

    fn subtree_sum(&mut self, v: Vertex, parent: Vertex) -> Option<u64> {
        self.subtree_aggregate(v, parent)
    }

    fn nearest_marked(&mut self, v: Vertex) -> Option<(u64, Vertex)> {
        RcForest::nearest_marked(self, v)
    }

    fn batch_connected(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<bool> {
        RcForest::batch_connected(self, pairs)
    }

    fn batch_representatives(&mut self, vs: &[Vertex]) -> Vec<Option<Vertex>> {
        self.batch_find_representatives(vs)
            .into_iter()
            .map(|r| (r != crate::types::NO_VERTEX).then_some(r))
            .collect()
    }

    fn batch_path_sum(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<u64>> {
        self.batch_path_aggregate(pairs)
            .into_iter()
            .map(|o| o.map(|p| p.sum))
            .collect()
    }

    fn batch_path_extrema(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<PathSummary>> {
        RcForest::batch_path_extrema(self, pairs)
    }

    fn batch_lca(&mut self, queries: &[(Vertex, Vertex, Vertex)]) -> Vec<Option<Vertex>> {
        RcForest::batch_lca(self, queries)
    }

    fn batch_subtree_sum(&mut self, queries: &[(Vertex, Vertex)]) -> Vec<Option<u64>> {
        self.batch_subtree_aggregate(queries)
    }

    fn batch_nearest_marked(&mut self, vs: &[Vertex]) -> Vec<Option<(u64, Vertex)>> {
        RcForest::batch_nearest_marked(self, vs)
    }

    fn export_state(&self) -> ForestState {
        let n = RcForest::num_vertices(self);
        let mut state = ForestState {
            n,
            edges: self.edge_list(),
            weights: (0..n as Vertex)
                .map(|v| self.vertex_weight(v).weight)
                .collect(),
            marks: (0..n as Vertex)
                .filter(|&v| self.vertex_weight(v).marked)
                .collect(),
        };
        state.canonicalize();
        state
    }
}

// ---------------------------------------------------------------------
// Naive oracle backend
// ---------------------------------------------------------------------

/// The naive reference forest lifted to the full backend surface:
/// [`NaiveForest`] plus shadow vertex weights and marks, with an optional
/// degree cap so it can mirror the raw RC forest's error contract exactly.
///
/// Everything is `O(component)` per operation — unmistakably correct, and
/// the ground truth both differential tests and the serve oracle replay
/// against.
#[derive(Clone, Debug)]
pub struct NaiveStdForest {
    forest: NaiveForest<u64>,
    vweights: Vec<u64>,
    marked: Vec<bool>,
    cap: Option<usize>,
    version: u64,
}

impl NaiveStdForest {
    /// An edgeless forest on `n` vertices with no degree cap.
    pub fn new(n: usize) -> Self {
        Self::with_max_degree(n, None)
    }

    /// An edgeless forest enforcing `cap` on [`DynamicForest::link`]
    /// (use `Some(3)` to mirror `RcForest`).
    pub fn with_max_degree(n: usize, cap: Option<usize>) -> Self {
        NaiveStdForest {
            forest: NaiveForest::new(n),
            vweights: vec![0; n],
            marked: vec![false; n],
            cap,
            version: 0,
        }
    }

    /// Read access to the wrapped adjacency forest.
    pub fn forest(&self) -> &NaiveForest<u64> {
        &self.forest
    }

    fn in_range(&self, v: Vertex) -> bool {
        (v as usize) < self.vweights.len()
    }

    fn range_check(&self, v: Vertex) -> Result<(), ForestError> {
        if self.in_range(v) {
            Ok(())
        } else {
            Err(ForestError::VertexOutOfRange {
                v,
                n: self.vweights.len(),
            })
        }
    }

    /// Path edges as deterministic refs, for extrema.
    fn path_edge_refs(&self, u: Vertex, v: Vertex) -> Option<Vec<EdgeRef<u64>>> {
        let p = self.forest.path_vertices(u, v)?;
        Some(
            p.windows(2)
                .map(|w| {
                    let (a, b) = (w[0].min(w[1]), w[0].max(w[1]));
                    EdgeRef {
                        u: a,
                        v: b,
                        w: *self.forest.edge_weight(a, b).expect("path edge"),
                    }
                })
                .collect(),
        )
    }
}

impl DynamicForest for NaiveStdForest {
    fn backend_name(&self) -> &'static str {
        "naive"
    }

    fn num_vertices(&self) -> usize {
        self.vweights.len()
    }

    fn num_edges(&self) -> usize {
        (0..self.vweights.len() as Vertex)
            .map(|v| self.forest.degree(v))
            .sum::<usize>()
            / 2
    }

    fn max_degree(&self) -> Option<usize> {
        self.cap
    }

    fn version(&self) -> u64 {
        self.version
    }

    fn link(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError> {
        self.range_check(u)?;
        self.range_check(v)?;
        if u == v {
            return Err(ForestError::SelfLoop { v });
        }
        if self.forest.edge_weight(u, v).is_some() {
            return Err(ForestError::DuplicateEdge { u, v });
        }
        if let Some(cap) = self.cap {
            for x in [u, v] {
                if self.forest.degree(x) >= cap {
                    return Err(ForestError::DegreeOverflow { v: x });
                }
            }
        }
        if self.forest.connected(u, v) {
            return Err(ForestError::WouldCreateCycle { u, v });
        }
        self.forest.link(u, v, w).expect("checked link");
        self.version += 1;
        Ok(())
    }

    fn cut(&mut self, u: Vertex, v: Vertex) -> Result<(), ForestError> {
        self.range_check(u)?;
        self.range_check(v)?;
        if self.forest.edge_weight(u, v).is_none() {
            return Err(ForestError::MissingEdge { u, v });
        }
        self.forest.cut(u, v).expect("checked cut");
        self.version += 1;
        Ok(())
    }

    fn set_edge_weight(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError> {
        if !self.in_range(u) || !self.in_range(v) || self.forest.edge_weight(u, v).is_none() {
            return Err(ForestError::MissingEdge { u, v });
        }
        self.forest.cut(u, v).expect("exists");
        self.forest.link(u, v, w).expect("relink");
        self.version += 1;
        Ok(())
    }

    fn set_vertex_weight(&mut self, v: Vertex, w: u64) -> Result<(), ForestError> {
        self.range_check(v)?;
        self.vweights[v as usize] = w;
        self.version += 1;
        Ok(())
    }

    fn set_mark(&mut self, v: Vertex, marked: bool) -> Result<(), ForestError> {
        self.range_check(v)?;
        self.marked[v as usize] = marked;
        self.version += 1;
        Ok(())
    }

    fn connected(&mut self, u: Vertex, v: Vertex) -> bool {
        self.in_range(u) && self.in_range(v) && self.forest.connected(u, v)
    }

    fn representative(&mut self, v: Vertex) -> Option<Vertex> {
        if !self.in_range(v) {
            return None;
        }
        // Deterministic: the smallest vertex id in the component.
        self.forest.component(v).into_iter().min()
    }

    fn path_sum(&mut self, u: Vertex, v: Vertex) -> Option<u64> {
        if !self.in_range(u) || !self.in_range(v) {
            return None;
        }
        self.forest
            .path_edges(u, v)
            .map(|es| es.iter().fold(0u64, |a, &w| a.wrapping_add(w)))
    }

    fn path_extrema(&mut self, u: Vertex, v: Vertex) -> Option<PathSummary> {
        if !self.in_range(u) || !self.in_range(v) {
            return None;
        }
        let edges = self.path_edge_refs(u, v)?;
        let key = |e: &EdgeRef<u64>| (e.w, e.u, e.v);
        Some(PathSummary {
            sum: edges.iter().fold(0u64, |a, e| a.wrapping_add(e.w)),
            min: edges.iter().min_by_key(|e| key(e)).copied(),
            max: edges.iter().max_by_key(|e| key(e)).copied(),
        })
    }

    fn lca(&mut self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        if [u, v, r].iter().any(|&x| !self.in_range(x)) {
            return None;
        }
        self.forest.lca(u, v, r)
    }

    fn subtree_sum(&mut self, v: Vertex, parent: Vertex) -> Option<u64> {
        if !self.in_range(v)
            || !self.in_range(parent)
            || self.forest.edge_weight(v, parent).is_none()
        {
            return None;
        }
        let (vs, es) = self.forest.subtree(v, parent);
        let mut total = es.iter().fold(0u64, |a, &w| a.wrapping_add(w));
        for x in vs {
            total = total.wrapping_add(self.vweights[x as usize]);
        }
        Some(total)
    }

    fn nearest_marked(&mut self, v: Vertex) -> Option<(u64, Vertex)> {
        if !self.in_range(v) {
            return None;
        }
        self.forest.nearest_marked(v, &self.marked)
    }

    fn export_state(&self) -> ForestState {
        let n = self.vweights.len();
        let mut edges = Vec::new();
        for u in 0..n as Vertex {
            for v in self.forest.neighbors(u) {
                if u < v {
                    edges.push((u, v, *self.forest.edge_weight(u, v).expect("live edge")));
                }
            }
        }
        let mut state = ForestState {
            n,
            edges,
            weights: self.vweights.clone(),
            marks: (0..n as Vertex)
                .filter(|&v| self.marked[v as usize])
                .collect(),
        };
        state.canonicalize();
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::BuildOptions;

    /// The same small scenario through both built-in backends must answer
    /// identically (the cross-backend harness lives in `rc-gen`).
    #[test]
    fn rc_and_naive_agree_on_a_small_scenario() {
        let n = 8usize;
        let edges: Vec<(u32, u32, u64)> = (0..n as u32 - 1)
            .map(|i| (i, i + 1, i as u64 + 1))
            .collect();
        let mut rc = RcForest::<StdAgg>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let mut nv = NaiveStdForest::with_max_degree(n, Some(3));
        for &(u, v, w) in &edges {
            nv.link(u, v, w).unwrap();
        }
        for f in [
            (&mut rc as &mut dyn DynamicForest),
            (&mut nv as &mut dyn DynamicForest),
        ] {
            f.set_vertex_weight(3, 50).unwrap();
            f.set_mark(0, true).unwrap();
        }
        let probes: Vec<(u32, u32)> = vec![(0, 7), (2, 2), (9, 1), (3, 4)];
        for &(u, v) in &probes {
            assert_eq!(rc.connected(u, v), nv.connected(u, v), "connected {u},{v}");
            assert_eq!(rc.path_sum(u, v), nv.path_sum(u, v), "path_sum {u},{v}");
            assert_eq!(
                rc.path_extrema(u, v),
                nv.path_extrema(u, v),
                "extrema {u},{v}"
            );
            assert_eq!(
                rc.subtree_sum(u, v),
                nv.subtree_sum(u, v),
                "subtree {u},{v}"
            );
        }
        assert_eq!(rc.lca(1, 5, 7), nv.lca(1, 5, 7));
        assert_eq!(rc.nearest_marked(6), nv.nearest_marked(6));
        // Identical error outcomes, including order-sensitive ones.
        for f in [
            (&mut rc as &mut dyn DynamicForest),
            (&mut nv as &mut dyn DynamicForest),
        ] {
            assert_eq!(f.link(0, 0, 1), Err(ForestError::SelfLoop { v: 0 }));
            assert_eq!(
                f.link(0, 1, 9),
                Err(ForestError::DuplicateEdge { u: 0, v: 1 })
            );
            assert_eq!(
                f.link(2, 7, 1),
                Err(ForestError::WouldCreateCycle { u: 2, v: 7 })
            );
            assert_eq!(f.cut(0, 5), Err(ForestError::MissingEdge { u: 0, v: 5 }));
            assert_eq!(
                f.link(99, 0, 1),
                Err(ForestError::VertexOutOfRange { v: 99, n: 8 })
            );
            assert_eq!(
                f.set_edge_weight(0, 99, 1),
                Err(ForestError::MissingEdge { u: 0, v: 99 })
            );
        }
    }

    #[test]
    fn naive_degree_cap_matches_rc_order() {
        // Degree check fires before the cycle check, u before v.
        let mut nv = NaiveStdForest::with_max_degree(6, Some(3));
        for v in 1..=3 {
            nv.link(0, v, 1).unwrap();
        }
        nv.link(1, 4, 1).unwrap();
        assert_eq!(nv.link(0, 4, 1), Err(ForestError::DegreeOverflow { v: 0 }));
        let mut rc = RcForest::<StdAgg>::new(6);
        for v in 1..=3 {
            DynamicForest::link(&mut rc, 0, v, 1).unwrap();
        }
        DynamicForest::link(&mut rc, 1, 4, 1).unwrap();
        assert_eq!(
            DynamicForest::link(&mut rc, 0, 4, 1),
            Err(ForestError::DegreeOverflow { v: 0 })
        );
    }

    #[test]
    fn naive_representative_is_component_minimum() {
        let mut nv = NaiveStdForest::new(5);
        nv.link(3, 4, 1).unwrap();
        assert_eq!(nv.representative(4), Some(3));
        assert_eq!(nv.representative(0), Some(0));
        assert_eq!(nv.representative(9), None);
    }
}
