//! The standard combined aggregate: one forest answering every family.
//!
//! The core query families are gated by capability traits that a single
//! aggregate type must implement simultaneously; [`StdAgg`] composes the
//! four building blocks — [`SumAgg`] (path/subtree sums), [`MinEdgeAgg`] /
//! [`MaxEdgeAgg`] (bottlenecks, compressed path trees) and
//! [`NearestMarkedAgg`] (nearest-marked) — over one shared vertex weight
//! ([`StdVertexWeight`]: a `u64` weight plus the mark bit) and `u64` edge
//! weights. It is the weight model of the [`crate::backend::DynamicForest`]
//! backend trait and of the `rc-serve` service layer (which re-exports it
//! as `ServeAgg`).
//!
//! # The product path monoid
//!
//! [`PathSummary`] is the componentwise product of the sum and min/max
//! path monoids. The group operations ([`GroupPathAggregate`]) are exact
//! on the `sum` component only — extrema have no inverses, so their
//! components of `batch_path_aggregate` answers are meaningless and
//! callers never read them there. `batch_path_extrema` and compressed
//! path trees use only `path_combine` over genuine cluster paths, where
//! every component is exact.

use crate::aggregate::{ClusterAggregate, GroupPathAggregate, PathAggregate, SubtreeAggregate};
use crate::aggregates::{
    EdgeRef, MaxEdgeAgg, MinEdgeAgg, NearestMarkedAgg, NearestMarkedAggregate, SumAgg,
};
use crate::types::{Vertex, MAX_DEGREE};

/// Vertex payload: an additive weight (subtree sums) plus the mark bit
/// (nearest-marked queries).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct StdVertexWeight {
    /// Additive vertex weight, counted by subtree sums.
    pub weight: u64,
    /// Mark for nearest-marked queries.
    pub marked: bool,
}

/// Product path value: exact `sum`, `min` and `max` over a path's edges.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PathSummary {
    /// Sum of edge weights (wrapping group).
    pub sum: u64,
    /// Lightest edge with endpoints (`None` on an empty path).
    pub min: Option<EdgeRef<u64>>,
    /// Heaviest edge with endpoints (`None` on an empty path).
    pub max: Option<EdgeRef<u64>>,
}

impl PathSummary {
    /// The empty-path value (`sum` 0, no extreme edges).
    pub fn identity() -> Self {
        PathSummary {
            sum: 0,
            min: None,
            max: None,
        }
    }
}

/// Augmented value combining sums, extrema and nearest-marked records.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct StdAgg {
    sum: SumAgg<u64>,
    min: MinEdgeAgg<u64>,
    max: MaxEdgeAgg<u64>,
    nm: NearestMarkedAgg,
}

impl StdAgg {
    /// Base value of an *invisible* edge: identity for path and subtree
    /// sums, absent from the extrema, distance 0 for nearest-marked.
    /// Layered backends (ternarization chains) use it for auxiliary
    /// edges that must not be observable in any query family.
    pub fn invisible_edge() -> Self {
        StdAgg {
            sum: SumAgg { path: 0, total: 0 },
            min: MinEdgeAgg {
                path: None,
                total: None,
            },
            max: MaxEdgeAgg {
                path: None,
                total: None,
            },
            nm: NearestMarkedAgg::base_edge(0, 1, &0),
        }
    }
}

/// Component `part` of each rake, in a stack array: the first
/// `rakes.len()` slots hold the rakes' components, the rest `pad`. A
/// composite aggregate passes `&out[..rakes.len()]` to its component's
/// `rake`/`compress`/`finalize` without allocating (rakes are at most
/// `MAX_DEGREE` long).
pub fn parts<'a, R, T>(
    rakes: &[&'a R],
    pad: &'a T,
    part: impl Fn(&'a R) -> &'a T,
) -> [&'a T; MAX_DEGREE] {
    let mut out = [pad; MAX_DEGREE];
    for (slot, r) in out.iter_mut().zip(rakes) {
        *slot = part(r);
    }
    out
}

/// Split the rake references into one slice per component, held in stack
/// arrays (rakes are at most `MAX_DEGREE` long, so this never allocates).
/// `$pad` fills the unused array slots.
macro_rules! split_rakes {
    ($rakes:expr, $pad:expr => $sum:ident, $min:ident, $max:ident, $nm:ident) => {
        let (rakes, pad): (&[&StdAgg], &StdAgg) = ($rakes, $pad);
        let sums = parts(rakes, &pad.sum, |r| &r.sum);
        let mins = parts(rakes, &pad.min, |r| &r.min);
        let maxs = parts(rakes, &pad.max, |r| &r.max);
        let nms = parts(rakes, &pad.nm, |r| &r.nm);
        let $sum = &sums[..rakes.len()];
        let $min = &mins[..rakes.len()];
        let $max = &maxs[..rakes.len()];
        let $nm = &nms[..rakes.len()];
    };
}

impl ClusterAggregate for StdAgg {
    type VertexWeight = StdVertexWeight;
    type EdgeWeight = u64;

    fn base_edge(u: Vertex, v: Vertex, w: &u64) -> Self {
        StdAgg {
            sum: SumAgg::base_edge(u, v, w),
            min: MinEdgeAgg::base_edge(u, v, w),
            max: MaxEdgeAgg::base_edge(u, v, w),
            nm: NearestMarkedAgg::base_edge(u, v, w),
        }
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
        split_rakes!(rakes, left => rs, rmin, rmax, rnm);
        StdAgg {
            sum: SumAgg::compress(v, &vw.weight, a, &left.sum, b, &right.sum, rs),
            min: MinEdgeAgg::compress(v, &(), a, &left.min, b, &right.min, rmin),
            max: MaxEdgeAgg::compress(v, &(), a, &left.max, b, &right.max, rmax),
            nm: NearestMarkedAgg::compress(v, &vw.marked, a, &left.nm, b, &right.nm, rnm),
        }
    }

    fn rake(v: Vertex, vw: &StdVertexWeight, u: Vertex, edge: &Self, rakes: &[&Self]) -> Self {
        split_rakes!(rakes, edge => rs, rmin, rmax, rnm);
        StdAgg {
            sum: SumAgg::rake(v, &vw.weight, u, &edge.sum, rs),
            min: MinEdgeAgg::rake(v, &(), u, &edge.min, rmin),
            max: MaxEdgeAgg::rake(v, &(), u, &edge.max, rmax),
            nm: NearestMarkedAgg::rake(v, &vw.marked, u, &edge.nm, rnm),
        }
    }

    fn finalize(v: Vertex, vw: &StdVertexWeight, rakes: &[&Self]) -> Self {
        let pad = StdAgg::invisible_edge();
        split_rakes!(rakes, &pad => rs, rmin, rmax, rnm);
        StdAgg {
            sum: SumAgg::finalize(v, &vw.weight, rs),
            min: MinEdgeAgg::finalize(v, &(), rmin),
            max: MaxEdgeAgg::finalize(v, &(), rmax),
            nm: NearestMarkedAgg::finalize(v, &vw.marked, rnm),
        }
    }
}

impl PathAggregate for StdAgg {
    type PathVal = PathSummary;

    fn path_identity() -> PathSummary {
        PathSummary::identity()
    }

    fn path_combine(a: &PathSummary, b: &PathSummary) -> PathSummary {
        PathSummary {
            sum: <SumAgg<u64> as PathAggregate>::path_combine(&a.sum, &b.sum),
            min: <MinEdgeAgg<u64> as PathAggregate>::path_combine(&a.min, &b.min),
            max: <MaxEdgeAgg<u64> as PathAggregate>::path_combine(&a.max, &b.max),
        }
    }

    fn cluster_path(&self) -> PathSummary {
        PathSummary {
            sum: self.sum.cluster_path(),
            min: self.min.cluster_path(),
            max: self.max.cluster_path(),
        }
    }

    fn edge_path_value(w: &u64) -> PathSummary {
        PathSummary {
            sum: *w,
            min: None,
            max: None,
        }
    }
}

impl GroupPathAggregate for StdAgg {
    /// Exact on `sum` only; `min`/`max` have no inverses and answer the
    /// identity (their components of root-path-trick results are
    /// meaningless — read extrema via `batch_path_extrema` instead).
    fn path_inverse(a: &PathSummary) -> PathSummary {
        PathSummary {
            sum: <SumAgg<u64> as GroupPathAggregate>::path_inverse(&a.sum),
            min: None,
            max: None,
        }
    }
}

impl SubtreeAggregate for StdAgg {
    type SubtreeVal = u64;

    fn subtree_identity() -> u64 {
        0
    }

    fn subtree_combine(a: &u64, b: &u64) -> u64 {
        a.wrapping_add(*b)
    }

    fn cluster_total(&self) -> u64 {
        <SumAgg<u64> as SubtreeAggregate>::cluster_total(&self.sum)
    }

    fn vertex_value(_v: Vertex, vw: &StdVertexWeight) -> u64 {
        vw.weight
    }
}

impl NearestMarkedAggregate for StdAgg {
    fn nearest(&self) -> &NearestMarkedAgg {
        &self.nm
    }

    fn is_marked_weight(vw: &StdVertexWeight) -> bool {
        vw.marked
    }

    fn with_mark(vw: &StdVertexWeight, marked: bool) -> StdVertexWeight {
        StdVertexWeight {
            weight: vw.weight,
            marked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::{BuildOptions, RcForest};

    fn path_forest(n: u32) -> RcForest<StdAgg> {
        let edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i, i + 1, (i + 1) as u64)).collect();
        RcForest::build_edges(n as usize, &edges, BuildOptions::default()).unwrap()
    }

    #[test]
    fn one_forest_answers_every_family() {
        let mut f = path_forest(10);
        assert_eq!(
            f.batch_path_aggregate(&[(0, 9)])[0].map(|p| p.sum),
            Some(45)
        );
        let ex = f.batch_path_extrema(&[(2, 7)]);
        let p = ex[0].unwrap();
        assert_eq!(p.min.unwrap().w, 3);
        assert_eq!(p.max.unwrap().w, 7);
        assert_eq!(p.sum, 3 + 4 + 5 + 6 + 7);
        assert!(f.batch_connected(&[(0, 9)])[0]);
        assert_eq!(f.batch_lca(&[(2, 5, 9)]), vec![Some(5)]);
        f.update_vertex_weights(&[(
            9,
            StdVertexWeight {
                weight: 100,
                marked: false,
            },
        )])
        .unwrap();
        assert_eq!(f.batch_subtree_aggregate(&[(9, 8)]), vec![Some(100)]);
        assert_eq!(f.batch_subtree_aggregate(&[(8, 7)]), vec![Some(100 + 9)]);
        f.batch_mark(&[0]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[3]), vec![Some((1 + 2 + 3, 0))]);
        assert_eq!(
            f.batch_path_aggregate(&[(0, 9)])[0].map(|p| p.sum),
            Some(45)
        );
    }

    #[test]
    fn structure_updates_keep_all_components_consistent() {
        let mut f = path_forest(16);
        f.batch_mark(&[15]).unwrap();
        f.batch_cut(&[(7, 8)]).unwrap();
        assert_eq!(f.batch_path_aggregate(&[(0, 15)]), vec![None]);
        assert_eq!(f.batch_nearest_marked(&[0]), vec![None]);
        f.batch_link(&[(0, 15, 2)]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[0]), vec![Some((2, 15))]);
        let ex = f.batch_path_extrema(&[(0, 8)]);
        assert_eq!(ex[0].unwrap().min.unwrap().w, 2, "new edge is lightest");
    }
}
