//! Batch path queries over a commutative group (§3.6, supplementary A.6).
//!
//! Semigroup batch path queries have a superlinear lower bound (Tarjan's
//! MST-verification argument), but with inverses the classic root-path
//! trick applies: `path(u,v) = W(u) + W(v) − 2·W(lca(u,v))` where `W(x)`
//! is the weight of the path from the component root to `x`.
//!
//! One marked sweep over the endpoints answers everything: its
//! `root_labels` pass gives connectivity, its `root_boundary` pass the
//! orientation, a [`top_down`](crate::MarkedSweep::top_down) visitor the
//! `W` values, and the fixed-root LCA of each pair is an ascent over the
//! sweep's slots. That LCA is `u`, `v`, the representative of the RC-LCA
//! or a boundary of a marked cluster, so its `W` is already in the sweep.
//! `O(k log(1 + n/k))` work for the sweep plus `O(k log n)` for the
//! ascents.

use crate::aggregate::GroupPathAggregate;
use crate::forest::RcForest;
use crate::types::{ClusterKind, Vertex, NO_VERTEX};
use rayon::prelude::*;

impl<P: GroupPathAggregate> RcForest<P> {
    /// Batch path sums: for each pair `(u, v)`, the group aggregate of the
    /// edge weights on the `u..v` path (`None` when disconnected or out of
    /// range).
    pub fn batch_path_aggregate(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<P::PathVal>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let sweep = self.marked_sweep(pairs.iter().flat_map(|&(u, v)| [u, v]));
        if sweep.is_empty() {
            return vec![None; pairs.len()];
        }
        let labels = sweep.root_labels();
        let rb = sweep.root_boundary();

        // Top-down: W[slot] = aggregate from the component root's
        // representative down to this cluster's representative.
        let w = sweep.top_down(None as Option<P::PathVal>, |s, vals| {
            let c = self.cluster(sweep.rep(s));
            let val = match c.kind {
                ClusterKind::Nullary => P::path_identity(),
                ClusterKind::Unary => {
                    let b = c.boundary[0];
                    let wb = vals.get(sweep.slot(b)).clone().expect("ancestor W ready");
                    P::path_combine(&wb, &self.agg_of(c.bin_children[0]).cluster_path())
                }
                ClusterKind::Binary => {
                    // Enter from the boundary on the root side.
                    let q = rb[s as usize];
                    debug_assert_ne!(q, NO_VERTEX);
                    let i = if c.boundary[0] == q { 0 } else { 1 };
                    let wq = vals.get(sweep.slot(q)).clone().expect("ancestor W ready");
                    P::path_combine(&wq, &self.agg_of(c.bin_children[i]).cluster_path())
                }
                ClusterKind::Invalid => unreachable!(),
            };
            Some(val)
        });
        let w_at = |s: u32| w[s as usize].as_ref().expect("W computed");

        pairs
            .par_iter()
            .map(|&(u, v)| {
                if !self.in_range(u) || !self.in_range(v) {
                    return None;
                }
                let (su, sv) = (sweep.slot(u), sweep.slot(v));
                let root = labels[su as usize];
                if labels[sv as usize] != root {
                    return None;
                }
                if u == v {
                    return Some(P::path_identity());
                }
                let l = self.sweep_fixed_lca(&sweep, &rb, su, sv, root);
                let inv = P::path_inverse(w_at(sweep.slot(l)));
                Some(P::path_combine(
                    &P::path_combine(w_at(su), w_at(sv)),
                    &P::path_combine(&inv, &inv),
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::SumAgg;
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    #[test]
    fn batch_path_sums_on_path() {
        let edges: Vec<(u32, u32, i64)> = (0..9).map(|i| (i, i + 1, (i + 1) as i64)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(10, &edges, BuildOptions::default()).unwrap();
        let pairs = vec![(0u32, 9u32), (3, 6), (4, 4), (9, 0)];
        let got = f.batch_path_aggregate(&pairs);
        assert_eq!(got, vec![Some(45), Some(15), Some(0), Some(45)]);
    }

    #[test]
    fn batch_path_out_of_range_is_none() {
        let edges: Vec<(u32, u32, i64)> = (0..4).map(|i| (i, i + 1, 1)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(5, &edges, BuildOptions::default()).unwrap();
        let got = f.batch_path_aggregate(&[(0, 4), (0, 5), (9, 9), (u32::MAX, 0)]);
        assert_eq!(got, vec![Some(4), None, None, None]);
    }

    #[test]
    fn batch_path_matches_single_on_random_forest() {
        let n = 400usize;
        let mut rng = SplitMix64::new(314);
        let mut naive = crate::naive::NaiveForest::<i64>::new(n);
        let mut edges: Vec<(u32, u32, i64)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.06 {
                continue;
            }
            let u = if rng.next_f64() < 0.6 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = rng.next_below(100) as i64;
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let f = RcForest::<SumAgg<i64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let pairs: Vec<(u32, u32)> = (0..400)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        let got = f.batch_path_aggregate(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            assert_eq!(got[i], f.path_aggregate(u, v), "pair ({u},{v})");
        }
    }

    #[test]
    fn batch_path_after_updates() {
        let edges: Vec<(u32, u32, i64)> = (0..7).map(|i| (i, i + 1, 2)).collect();
        let mut f =
            RcForest::<SumAgg<i64>>::build_edges(8, &edges, BuildOptions::default()).unwrap();
        f.batch_cut(&[(3, 4)]).unwrap();
        let got = f.batch_path_aggregate(&[(0, 7), (0, 3), (4, 7)]);
        assert_eq!(got, vec![None, Some(6), Some(6)]);
    }
}
