//! [`DynamicForest`] backend over the ternarization layer.
//!
//! The standard weight model needs chain (dummy) edges to be *invisible*:
//! identity for path sums (0), absent from min/max extrema, and distance
//! 0 for nearest-marked. No single `u64` chain weight satisfies all three
//! at once, so the backend aggregate [`TernAgg`] carries
//! `Option<u64>` edge weights — `None` marks a chain edge, which
//! contributes sum 0, no extreme-edge candidate, and path length 0.
//!
//! Extreme-edge witnesses computed inside the inner forest name *dummy*
//! endpoints (cross edges connect chain dummies); the backend maps them
//! back through [`TernaryForest::owner_of`]. One caveat follows: the
//! deterministic `(weight, u, v)` tie-break is applied to *inner* ids
//! before mapping, so when two path edges tie on weight the reported
//! witness may differ from backends that tie-break on real ids.
//! Differential tests against this backend draw weights from a large
//! space to keep ties out of the comparison.

use crate::TernaryForest;
use rc_core::aggregate::{ClusterAggregate, GroupPathAggregate, PathAggregate, SubtreeAggregate};
use rc_core::aggregates::std_agg::parts;
use rc_core::{
    DynamicForest, EdgeRef, ForestError, ForestState, NearestMarkedAgg, NearestMarkedAggregate,
    PathSummary, StdAgg, StdVertexWeight, Vertex,
};

/// The ternary backend forest: arbitrary degree, every query family.
pub type TernaryStdForest = TernaryForest<TernAgg>;

impl TernaryStdForest {
    /// An edgeless arbitrary-degree backend forest on `n` real vertices.
    pub fn new_std(n: usize) -> Self {
        TernaryForest::new(n, None)
    }
}

/// [`StdAgg`] lifted to `Option<u64>` edge weights (`None` = chain
/// edge, combining as [`StdAgg::invisible_edge`]); everything else
/// delegates to the one implementation in `rc-core`, so combine and
/// tie-break semantics cannot drift between the backends.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct TernAgg(StdAgg);

impl ClusterAggregate for TernAgg {
    type VertexWeight = StdVertexWeight;
    type EdgeWeight = Option<u64>;

    fn base_edge(u: Vertex, v: Vertex, w: &Option<u64>) -> Self {
        TernAgg(match *w {
            Some(w) => StdAgg::base_edge(u, v, &w),
            None => StdAgg::invisible_edge(),
        })
    }

    fn compress(
        v: Vertex,
        vw: &StdVertexWeight,
        a: Vertex,
        left: &Self,
        b: Vertex,
        right: &Self,
        rakes: &[&Self],
    ) -> Self {
        let rs = parts(rakes, &left.0, |r| &r.0);
        TernAgg(StdAgg::compress(
            v,
            vw,
            a,
            &left.0,
            b,
            &right.0,
            &rs[..rakes.len()],
        ))
    }

    fn rake(v: Vertex, vw: &StdVertexWeight, u: Vertex, edge: &Self, rakes: &[&Self]) -> Self {
        let rs = parts(rakes, &edge.0, |r| &r.0);
        TernAgg(StdAgg::rake(v, vw, u, &edge.0, &rs[..rakes.len()]))
    }

    fn finalize(v: Vertex, vw: &StdVertexWeight, rakes: &[&Self]) -> Self {
        let Some(first) = rakes.first() else {
            return TernAgg(StdAgg::finalize(v, vw, &[]));
        };
        let rs = parts(rakes, &first.0, |r| &r.0);
        TernAgg(StdAgg::finalize(v, vw, &rs[..rakes.len()]))
    }
}

impl PathAggregate for TernAgg {
    type PathVal = PathSummary;

    fn path_identity() -> PathSummary {
        StdAgg::path_identity()
    }

    fn path_combine(a: &PathSummary, b: &PathSummary) -> PathSummary {
        StdAgg::path_combine(a, b)
    }

    fn cluster_path(&self) -> PathSummary {
        self.0.cluster_path()
    }

    fn edge_path_value(w: &Option<u64>) -> PathSummary {
        match *w {
            Some(w) => StdAgg::edge_path_value(&w),
            None => PathSummary::identity(),
        }
    }
}

impl GroupPathAggregate for TernAgg {
    /// Exact on `sum` only (see [`StdAgg`]).
    fn path_inverse(a: &PathSummary) -> PathSummary {
        StdAgg::path_inverse(a)
    }
}

impl SubtreeAggregate for TernAgg {
    type SubtreeVal = u64;

    fn subtree_identity() -> u64 {
        StdAgg::subtree_identity()
    }

    fn subtree_combine(a: &u64, b: &u64) -> u64 {
        StdAgg::subtree_combine(a, b)
    }

    fn cluster_total(&self) -> u64 {
        self.0.cluster_total()
    }

    fn vertex_value(v: Vertex, vw: &StdVertexWeight) -> u64 {
        StdAgg::vertex_value(v, vw)
    }
}

impl NearestMarkedAggregate for TernAgg {
    fn nearest(&self) -> &NearestMarkedAgg {
        self.0.nearest()
    }

    fn is_marked_weight(vw: &StdVertexWeight) -> bool {
        StdAgg::is_marked_weight(vw)
    }

    fn with_mark(vw: &StdVertexWeight, marked: bool) -> StdVertexWeight {
        StdAgg::with_mark(vw, marked)
    }
}

impl TernaryStdForest {
    /// Map an inner extreme-edge witness back to real endpoints.
    fn map_edge(&self, e: EdgeRef<u64>) -> EdgeRef<u64> {
        let (a, b) = (self.owner_of(e.u), self.owner_of(e.v));
        let (u, v) = if a <= b { (a, b) } else { (b, a) };
        EdgeRef { u, v, w: e.w }
    }

    fn map_summary(&self, p: PathSummary) -> PathSummary {
        PathSummary {
            sum: p.sum,
            min: p.min.map(|e| self.map_edge(e)),
            max: p.max.map(|e| self.map_edge(e)),
        }
    }
}

impl DynamicForest for TernaryStdForest {
    fn backend_name(&self) -> &'static str {
        "ternary"
    }

    fn num_vertices(&self) -> usize {
        TernaryForest::num_vertices(self)
    }

    fn num_edges(&self) -> usize {
        TernaryForest::num_edges(self)
    }

    fn max_degree(&self) -> Option<usize> {
        None
    }

    fn version(&self) -> u64 {
        self.inner().version()
    }

    fn link(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError> {
        TernaryForest::batch_link(self, &[(u, v, Some(w))])
    }

    fn cut(&mut self, u: Vertex, v: Vertex) -> Result<(), ForestError> {
        TernaryForest::batch_cut(self, &[(u, v)])
    }

    fn set_edge_weight(&mut self, u: Vertex, v: Vertex, w: u64) -> Result<(), ForestError> {
        self.update_edge_weights(&[(u, v, Some(w))])
    }

    fn set_vertex_weight(&mut self, v: Vertex, w: u64) -> Result<(), ForestError> {
        if v as usize >= TernaryForest::num_vertices(self) {
            return Err(ForestError::VertexOutOfRange {
                v,
                n: TernaryForest::num_vertices(self),
            });
        }
        let marked = self.inner().vertex_weight(v).marked;
        self.update_vertex_weights(&[(v, StdVertexWeight { weight: w, marked })])
    }

    fn set_mark(&mut self, v: Vertex, marked: bool) -> Result<(), ForestError> {
        if v as usize >= TernaryForest::num_vertices(self) {
            return Err(ForestError::VertexOutOfRange {
                v,
                n: TernaryForest::num_vertices(self),
            });
        }
        if marked {
            self.batch_mark(&[v]);
        } else {
            self.batch_unmark(&[v]);
        }
        Ok(())
    }

    fn batch_link(&mut self, links: &[(Vertex, Vertex, u64)]) -> Result<(), ForestError> {
        let mapped: Vec<(Vertex, Vertex, Option<u64>)> =
            links.iter().map(|&(u, v, w)| (u, v, Some(w))).collect();
        TernaryForest::batch_link(self, &mapped)
    }

    fn batch_cut(&mut self, cuts: &[(Vertex, Vertex)]) -> Result<(), ForestError> {
        TernaryForest::batch_cut(self, cuts)
    }

    fn connected(&mut self, u: Vertex, v: Vertex) -> bool {
        TernaryForest::connected(self, u, v)
    }

    fn representative(&mut self, v: Vertex) -> Option<Vertex> {
        let r = self.batch_find_representatives(&[v])[0];
        (r != u32::MAX).then_some(r)
    }

    fn path_sum(&mut self, u: Vertex, v: Vertex) -> Option<u64> {
        self.path_aggregate(u, v).map(|p| p.sum)
    }

    fn path_extrema(&mut self, u: Vertex, v: Vertex) -> Option<PathSummary> {
        TernaryForest::batch_path_extrema(self, &[(u, v)])
            .pop()
            .flatten()
            .map(|p| self.map_summary(p))
    }

    fn lca(&mut self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        TernaryForest::lca(self, u, v, r)
    }

    fn subtree_sum(&mut self, v: Vertex, parent: Vertex) -> Option<u64> {
        self.subtree_aggregate(v, parent)
    }

    fn nearest_marked(&mut self, v: Vertex) -> Option<(u64, Vertex)> {
        TernaryForest::batch_nearest_marked(self, &[v])[0]
    }

    fn batch_connected(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<bool> {
        TernaryForest::batch_connected(self, pairs)
    }

    fn batch_representatives(&mut self, vs: &[Vertex]) -> Vec<Option<Vertex>> {
        self.batch_find_representatives(vs)
            .into_iter()
            .map(|r| (r != u32::MAX).then_some(r))
            .collect()
    }

    fn batch_path_sum(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<u64>> {
        self.batch_path_aggregate(pairs)
            .into_iter()
            .map(|o| o.map(|p| p.sum))
            .collect()
    }

    fn batch_path_extrema(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<PathSummary>> {
        TernaryForest::batch_path_extrema(self, pairs)
            .into_iter()
            .map(|o| o.map(|p| self.map_summary(p)))
            .collect()
    }

    fn batch_lca(&mut self, queries: &[(Vertex, Vertex, Vertex)]) -> Vec<Option<Vertex>> {
        TernaryForest::batch_lca(self, queries)
    }

    fn batch_subtree_sum(&mut self, queries: &[(Vertex, Vertex)]) -> Vec<Option<u64>> {
        self.batch_subtree_aggregate(queries)
    }

    fn batch_nearest_marked(&mut self, vs: &[Vertex]) -> Vec<Option<(u64, Vertex)>> {
        TernaryForest::batch_nearest_marked(self, vs)
    }

    fn export_state(&self) -> ForestState {
        let n = TernaryForest::num_vertices(self);
        // Real edges are the inner edges carrying `Some` weights (chain
        // edges are `None`); cross-edge endpoints are dummies, mapped back
        // to their owning real vertices. Weights and marks live on the
        // real inner ids directly.
        let edges = self
            .inner()
            .edge_list()
            .into_iter()
            .filter_map(|(u, v, w)| w.map(|w| (self.owner_of(u), self.owner_of(v), w)))
            .collect();
        let inner = self.inner();
        let mut state = ForestState {
            n,
            edges,
            weights: (0..n as Vertex)
                .map(|v| inner.vertex_weight(v).weight)
                .collect(),
            marks: (0..n as Vertex)
                .filter(|&v| inner.vertex_weight(v).marked)
                .collect(),
        };
        state.canonicalize();
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_edges_are_invisible_to_every_family() {
        // Degree-5 star, impossible without ternarization.
        let mut f = TernaryStdForest::new_std(6);
        for v in 1..6u32 {
            DynamicForest::link(&mut f, 0, v, 10 * v as u64).unwrap();
        }
        assert_eq!(f.path_sum(1, 5), Some(10 + 50));
        let p = f.path_extrema(1, 5).unwrap();
        assert_eq!(p.sum, 60);
        assert_eq!(
            (p.min.unwrap().u, p.min.unwrap().v, p.min.unwrap().w),
            (0, 1, 10)
        );
        assert_eq!(
            (p.max.unwrap().u, p.max.unwrap().v, p.max.unwrap().w),
            (0, 5, 50)
        );
        assert_eq!(f.path_extrema(2, 2), Some(PathSummary::identity()));
        f.set_vertex_weight(3, 7).unwrap();
        assert_eq!(f.subtree_sum(0, 1), Some(20 + 30 + 40 + 50 + 7));
        f.set_mark(4, true).unwrap();
        assert_eq!(f.nearest_marked(2), Some((20 + 40, 4)));
        assert_eq!(f.lca(1, 2, 5), Some(0));
        f.validate().unwrap();
    }

    #[test]
    fn error_contract_without_degree_cap() {
        let mut f = TernaryStdForest::new_std(4);
        DynamicForest::link(&mut f, 0, 1, 1).unwrap();
        assert_eq!(
            DynamicForest::link(&mut f, 0, 0, 1),
            Err(ForestError::SelfLoop { v: 0 })
        );
        assert_eq!(
            DynamicForest::link(&mut f, 1, 0, 2),
            Err(ForestError::DuplicateEdge { u: 1, v: 0 })
        );
        assert_eq!(
            DynamicForest::link(&mut f, 9, 0, 1),
            Err(ForestError::VertexOutOfRange { v: 9, n: 4 })
        );
        assert_eq!(
            DynamicForest::cut(&mut f, 0, 2),
            Err(ForestError::MissingEdge { u: 0, v: 2 })
        );
        assert_eq!(
            f.set_edge_weight(0, 2, 5),
            Err(ForestError::MissingEdge { u: 0, v: 2 })
        );
        assert_eq!(
            f.set_vertex_weight(9, 1),
            Err(ForestError::VertexOutOfRange { v: 9, n: 4 })
        );
        assert_eq!(f.max_degree(), None);
    }
}
