//! Aggregate composition: `(A, B)` maintains two aggregates side by side.
//!
//! Convention for capability traits: *path* behavior comes from the left
//! component, *subtree* behavior from the right. `(MinEdgeAgg<u64>,
//! MaxEdgeAgg<u64>)` thus answers bottleneck (lightest-edge) path
//! queries and heaviest-edge subtree queries from one forest. Both
//! components must agree on the weight types.

use crate::aggregate::{ClusterAggregate, GroupPathAggregate, PathAggregate, SubtreeAggregate};
use crate::aggregates::std_agg::parts;
use crate::types::Vertex;

impl<A, B> ClusterAggregate for (A, B)
where
    A: ClusterAggregate,
    B: ClusterAggregate<VertexWeight = A::VertexWeight, EdgeWeight = A::EdgeWeight>,
{
    type VertexWeight = A::VertexWeight;
    type EdgeWeight = A::EdgeWeight;

    fn base_edge(u: Vertex, v: Vertex, w: &Self::EdgeWeight) -> Self {
        (A::base_edge(u, v, w), B::base_edge(u, v, w))
    }

    fn compress(
        v: Vertex,
        vw: &Self::VertexWeight,
        a: Vertex,
        left: &Self,
        b: Vertex,
        right: &Self,
        rakes: &[&Self],
    ) -> Self {
        let k = rakes.len();
        let ra = parts(rakes, &left.0, |r| &r.0);
        let rb = parts(rakes, &left.1, |r| &r.1);
        (
            A::compress(v, vw, a, &left.0, b, &right.0, &ra[..k]),
            B::compress(v, vw, a, &left.1, b, &right.1, &rb[..k]),
        )
    }

    fn rake(v: Vertex, vw: &Self::VertexWeight, u: Vertex, edge: &Self, rakes: &[&Self]) -> Self {
        let k = rakes.len();
        let ra = parts(rakes, &edge.0, |r| &r.0);
        let rb = parts(rakes, &edge.1, |r| &r.1);
        (
            A::rake(v, vw, u, &edge.0, &ra[..k]),
            B::rake(v, vw, u, &edge.1, &rb[..k]),
        )
    }

    fn finalize(v: Vertex, vw: &Self::VertexWeight, rakes: &[&Self]) -> Self {
        let Some(first) = rakes.first() else {
            return (A::finalize(v, vw, &[]), B::finalize(v, vw, &[]));
        };
        let k = rakes.len();
        let ra = parts(rakes, &first.0, |r| &r.0);
        let rb = parts(rakes, &first.1, |r| &r.1);
        (A::finalize(v, vw, &ra[..k]), B::finalize(v, vw, &rb[..k]))
    }
}

impl<A, B> PathAggregate for (A, B)
where
    A: PathAggregate,
    B: ClusterAggregate<VertexWeight = A::VertexWeight, EdgeWeight = A::EdgeWeight>,
{
    type PathVal = A::PathVal;
    fn path_identity() -> Self::PathVal {
        A::path_identity()
    }
    fn path_combine(a: &Self::PathVal, b: &Self::PathVal) -> Self::PathVal {
        A::path_combine(a, b)
    }
    fn cluster_path(&self) -> Self::PathVal {
        self.0.cluster_path()
    }
    fn edge_path_value(w: &Self::EdgeWeight) -> Self::PathVal {
        A::edge_path_value(w)
    }
}

impl<A, B> GroupPathAggregate for (A, B)
where
    A: GroupPathAggregate,
    B: ClusterAggregate<VertexWeight = A::VertexWeight, EdgeWeight = A::EdgeWeight>,
{
    fn path_inverse(a: &Self::PathVal) -> Self::PathVal {
        A::path_inverse(a)
    }
}

impl<A, B> SubtreeAggregate for (A, B)
where
    A: ClusterAggregate,
    B: SubtreeAggregate<VertexWeight = A::VertexWeight, EdgeWeight = A::EdgeWeight>,
{
    type SubtreeVal = B::SubtreeVal;
    fn subtree_identity() -> Self::SubtreeVal {
        B::subtree_identity()
    }
    fn subtree_combine(a: &Self::SubtreeVal, b: &Self::SubtreeVal) -> Self::SubtreeVal {
        B::subtree_combine(a, b)
    }
    fn cluster_total(&self) -> Self::SubtreeVal {
        self.1.cluster_total()
    }
    fn vertex_value(v: Vertex, vw: &Self::VertexWeight) -> Self::SubtreeVal {
        B::vertex_value(v, vw)
    }
}

#[cfg(test)]
mod tests {
    use super::super::SumAgg;
    use super::*;

    type P = (SumAgg<i64>, SumAgg<i64>);

    #[test]
    fn pair_tracks_both_components() {
        let e = P::base_edge(0, 1, &5);
        assert_eq!(e.0.path, 5);
        assert_eq!(e.1.total, 5);
        let e2 = P::base_edge(1, 2, &7);
        let c = P::compress(1, &1, 0, &e, 2, &e2, &[]);
        assert_eq!(c.0.path, 12);
        assert_eq!(c.1.total, 13);
    }

    #[test]
    fn pair_forest_answers_like_its_components() {
        // Degree-3 trees make rake children, so the pair's rake, compress
        // and finalize split nonempty rake slices.
        use crate::aggregates::{MaxEdgeAgg, MinEdgeAgg};
        use crate::{BuildOptions, RcForest};
        let mut state = 0x9a1_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for n in [2usize, 5, 17, 64, 200] {
            // Each vertex hangs off an earlier one with a free slot.
            let mut deg = vec![0u8; n];
            let mut edges = Vec::new();
            for v in 1..n as u32 {
                let u = loop {
                    let u = next(u64::from(v)) as u32;
                    if deg[u as usize] < 3 {
                        break u;
                    }
                };
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                edges.push((u, v, next(1 << 40)));
            }
            let pair = RcForest::<(MinEdgeAgg<u64>, MaxEdgeAgg<u64>)>::build_edges(
                n,
                &edges,
                BuildOptions::default(),
            )
            .unwrap();
            let min = RcForest::<MinEdgeAgg<u64>>::build_edges(n, &edges, BuildOptions::default())
                .unwrap();
            let max = RcForest::<MaxEdgeAgg<u64>>::build_edges(n, &edges, BuildOptions::default())
                .unwrap();
            assert!(n < 17 || deg.contains(&3), "n={n}: no vertex of degree 3");
            for u in 0..n as u32 {
                // Every cluster, finalized roots included, holds both
                // components' aggregates.
                let (a, b) = &pair.cluster(u).agg;
                assert_eq!((a, b), (&min.cluster(u).agg, &max.cluster(u).agg));
                for v in 0..n as u32 {
                    assert_eq!(pair.path_aggregate(u, v), min.path_aggregate(u, v));
                    assert_eq!(pair.subtree_aggregate(u, v), max.subtree_aggregate(u, v));
                }
            }
        }
    }

    #[test]
    fn pair_capability_delegation() {
        assert_eq!(<P as PathAggregate>::path_identity(), 0);
        assert_eq!(<P as SubtreeAggregate>::subtree_combine(&3, &4), 7);
        assert_eq!(<P as GroupPathAggregate>::path_inverse(&5), -5);
    }
}
