//! Batch nearest-marked-vertex queries (§3.8, supplementary A.7.1).
//!
//! The forest's augmented values ([`crate::NearestMarkedAgg`], or any
//! composite implementing [`NearestMarkedAggregate`]) maintain, per
//! cluster, the *locally* nearest marked vertices (to the representative
//! and to each boundary). `BatchMark`/`BatchUnmark` are vertex-weight
//! updates propagating in `O(k log(1 + n/k))` work. A query batch runs one
//! [`top_down`](crate::MarkedSweep::top_down) visitor over the marked
//! sweep computing the *globally* nearest marked vertex per marked cluster
//! representative: either the local value, or through a boundary vertex —
//! whose global value is already available because boundaries represent
//! ancestors.

use crate::aggregates::marked::{Near, NearestMarkedAggregate};
use crate::forest::RcForest;
use crate::types::{ClusterKind, ForestError, Vertex, NO_VERTEX};
use rayon::prelude::*;

fn best(a: Near, b: Near) -> Near {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some(x), Some(y)) => Some(x.min(y)),
    }
}

impl<A: NearestMarkedAggregate> RcForest<A> {
    /// Mark vertices (idempotent); `O(k log(1 + n/k))`. Out-of-range
    /// vertices are rejected up front (nothing is applied).
    pub fn batch_mark(&mut self, vs: &[Vertex]) -> Result<(), ForestError> {
        self.set_marks(vs, true)
    }

    /// Unmark vertices; `O(k log(1 + n/k))`.
    pub fn batch_unmark(&mut self, vs: &[Vertex]) -> Result<(), ForestError> {
        self.set_marks(vs, false)
    }

    fn set_marks(&mut self, vs: &[Vertex], marked: bool) -> Result<(), ForestError> {
        for &v in vs {
            if !self.in_range(v) {
                return Err(ForestError::VertexOutOfRange {
                    v,
                    n: self.num_vertices(),
                });
            }
        }
        let updates: Vec<(Vertex, A::VertexWeight)> = vs
            .iter()
            .map(|&v| (v, A::with_mark(self.vertex_weight(v), marked)))
            .collect();
        self.update_vertex_weights(&updates)
    }

    /// Is `v` currently marked? (`false` when out of range.)
    pub fn is_marked_vertex(&self, v: Vertex) -> bool {
        self.in_range(v) && A::is_marked_weight(self.vertex_weight(v))
    }

    /// `BatchNearestMarked`: for each query vertex, the nearest marked
    /// vertex in its tree as `(distance, vertex)`; `None` when its
    /// component has no marks or the query vertex is out of range. Ties
    /// break toward the smaller vertex id.
    pub fn batch_nearest_marked(&self, queries: &[Vertex]) -> Vec<Option<(u64, Vertex)>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let sweep = self.marked_sweep(queries.iter().copied());
        if sweep.is_empty() {
            return vec![None; queries.len()];
        }

        // Top-down: global[slot] = nearest marked vertex anywhere in the
        // tree to this cluster's representative.
        let global = sweep.top_down(None as Near, |s, vals| {
            let c = self.cluster(sweep.rep(s));
            let mut cand = c.agg.nearest().near_rep; // nearest inside
            match c.kind {
                ClusterKind::Nullary => {}
                ClusterKind::Unary => {
                    let b = c.boundary[0];
                    let d = self.agg_of(c.bin_children[0]).nearest().path_len;
                    let gb = *vals.get(sweep.slot(b));
                    cand = best(cand, gb.map(|(dist, x)| (dist + d, x)));
                }
                ClusterKind::Binary => {
                    for i in 0..2 {
                        let b = c.boundary[i];
                        debug_assert_ne!(b, NO_VERTEX);
                        let d = self.agg_of(c.bin_children[i]).nearest().path_len;
                        let gb = *vals.get(sweep.slot(b));
                        cand = best(cand, gb.map(|(dist, x)| (dist + d, x)));
                    }
                }
                ClusterKind::Invalid => unreachable!(),
            }
            cand
        });

        queries
            .par_iter()
            .map(|&v| {
                if !self.in_range(v) {
                    return None;
                }
                global[sweep.slot(v) as usize]
            })
            .collect()
    }

    /// Single-query form of [`batch_nearest_marked`]: the nearest marked
    /// vertex to `v` as `(distance, vertex)`, with the same `None` and
    /// tie-break contract. It is a batch of one, so k calls cost k
    /// sweeps; the serve tier's independent engine and the
    /// `DynamicForest` impl call it.
    ///
    /// [`batch_nearest_marked`]: Self::batch_nearest_marked
    pub fn nearest_marked(&self, v: Vertex) -> Option<(u64, Vertex)> {
        self.batch_nearest_marked(&[v]).pop().flatten()
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::marked::NearestMarkedAgg;
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    fn build_path(n: u32, w: u64) -> RcForest<NearestMarkedAgg> {
        let edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i, i + 1, w)).collect();
        RcForest::build_edges(n as usize, &edges, BuildOptions::default()).unwrap()
    }

    #[test]
    fn nearest_on_path() {
        let mut f = build_path(10, 1);
        assert_eq!(f.batch_nearest_marked(&[4]), vec![None]);
        f.batch_mark(&[0, 9]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[4]), vec![Some((4, 0))]);
        assert_eq!(f.batch_nearest_marked(&[6]), vec![Some((3, 9))]);
        assert_eq!(f.batch_nearest_marked(&[0]), vec![Some((0, 0))]);
        f.batch_unmark(&[0]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[4]), vec![Some((5, 9))]);
    }

    #[test]
    fn single_matches_batch_of_one() {
        let mut f = build_path(10, 1);
        assert_eq!(f.nearest_marked(4), None);
        f.batch_mark(&[0, 9]).unwrap();
        for v in 0..10u32 {
            assert_eq!(
                Some(f.nearest_marked(v)),
                f.batch_nearest_marked(&[v]).pop()
            );
        }
        assert_eq!(f.nearest_marked(99), None, "out of range => None");
    }

    #[test]
    fn nearest_respects_weights() {
        // 0 -10- 1 -1- 2: vertex 0 and 2 marked; from 1 nearest is 2.
        let edges = vec![(0u32, 1u32, 10u64), (1, 2, 1)];
        let mut f =
            RcForest::<NearestMarkedAgg>::build_edges(3, &edges, BuildOptions::default()).unwrap();
        f.batch_mark(&[0, 2]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[1]), vec![Some((1, 2))]);
    }

    #[test]
    fn nearest_matches_naive_random() {
        let n = 250usize;
        let mut rng = SplitMix64::new(7171);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.07 {
                continue;
            }
            let u = if rng.next_f64() < 0.6 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = rng.next_below(20);
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let mut f =
            RcForest::<NearestMarkedAgg>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let mut marked = vec![false; n];
        let marks: Vec<u32> = (0..15).map(|_| rng.next_below(n as u64) as u32).collect();
        for &m in &marks {
            marked[m as usize] = true;
        }
        f.batch_mark(&marks).unwrap();
        f.validate().unwrap();

        let queries: Vec<u32> = (0..300).map(|_| rng.next_below(n as u64) as u32).collect();
        let got = f.batch_nearest_marked(&queries);
        for (i, &q) in queries.iter().enumerate() {
            let expect = naive.nearest_marked(q, &marked);
            // Distances must agree; the witness vertex may differ only on
            // exact ties, which the deterministic tie-break also fixes.
            assert_eq!(
                got[i].map(|x| x.0),
                expect.map(|x| x.0),
                "query {q}: {:?} vs {:?}",
                got[i],
                expect
            );
        }
    }

    #[test]
    fn nearest_after_structure_updates() {
        let mut f = build_path(8, 1);
        f.batch_mark(&[0]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[7]), vec![Some((7, 0))]);
        f.batch_cut(&[(3, 4)]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[7]), vec![None]);
        assert_eq!(f.batch_nearest_marked(&[2]), vec![Some((2, 0))]);
        f.batch_link(&[(3, 4, 100)]).unwrap();
        assert_eq!(f.batch_nearest_marked(&[7]), vec![Some((106, 0))]);
    }
}
