//! Batch path-minima/maxima ("bottleneck") queries (§3.7).
//!
//! Semigroup path queries can't be batched below the MST-verification
//! lower bound, but extrema can: shrink the tree to the compressed path
//! tree of the `O(k)` query endpoints (which preserves pairwise extrema),
//! then solve the static offline problem on the small tree. The paper uses
//! King et al.'s `O(n + k)` MST-verification subroutine; this module roots
//! the compressed tree by BFS and answers each pair by binary lifting over
//! flat level-major tables instead. That costs `O(k log k)`, one log
//! factor above the paper, for a far simpler static solver.
//!
//! One marked sweep serves the whole batch: the compressed tree is built
//! on its slots, and each endpoint maps to its tree vertex through its
//! slot.

use crate::aggregate::PathAggregate;
use crate::forest::RcForest;
use crate::queries::cpt::incidence;
use crate::types::Vertex;
use rayon::prelude::*;
use rc_parlay::NONE_U32;

impl<P: PathAggregate> RcForest<P> {
    /// For each pair `(u, v)`, the path-monoid aggregate of the `u..v`
    /// path, computed through a compressed path tree shared across the
    /// batch. With [`crate::MinEdgeAgg`] / [`crate::MaxEdgeAgg`] this is
    /// `BatchPathMin` / `BatchPathMax` — the lightest/heaviest edge with
    /// its endpoints.
    pub fn batch_path_extrema(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<P::PathVal>> {
        if pairs.is_empty() {
            return Vec::new();
        }
        let mut terms = Vec::with_capacity(pairs.len() * 2);
        for &(u, v) in pairs {
            if self.in_range(u) && self.in_range(v) {
                terms.push(u);
                terms.push(v);
            }
        }
        let sweep = self.marked_sweep(terms.iter().copied());
        let tree = self.slot_tree(&sweep, &terms);
        let solver = Lifting::<P>::build(tree.slots.len(), &tree.edges);
        let at = |x: Vertex| tree.pos[sweep.slot(x) as usize];
        pairs
            .par_iter()
            .map(|&(u, v)| {
                if !self.in_range(u) || !self.in_range(v) {
                    return None;
                }
                if u == v {
                    return Some(P::path_identity());
                }
                solver.query(at(u), at(v))
            })
            .collect()
    }
}

/// Offline static path aggregates over a small forest on vertices
/// `0..n`: BFS rooting per component, then binary lifting carrying the
/// aggregate toward each ancestor, in flat level-major tables.
struct Lifting<P: PathAggregate> {
    n: usize,
    depth: Vec<u32>,
    /// BFS root of each vertex's component.
    comp: Vec<u32>,
    /// `up[j * n + x]` = 2^j-th ancestor of `x` (the root past the root).
    up: Vec<u32>,
    /// `agg[j * n + x]` = aggregate from `x` up to `up[j * n + x]`.
    agg: Vec<P::PathVal>,
}

impl<P: PathAggregate> Lifting<P> {
    fn build(n: usize, edges: &[(u32, u32, P::PathVal)]) -> Self {
        let (off, adj) = incidence(n, edges);
        // BFS rooting per component; `order` doubles as the queue.
        let mut up = vec![NONE_U32; n];
        let mut agg: Vec<P::PathVal> = vec![P::path_identity(); n];
        let mut depth = vec![0u32; n];
        let mut comp = vec![NONE_U32; n];
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for r in 0..n as u32 {
            if comp[r as usize] != NONE_U32 {
                continue;
            }
            comp[r as usize] = r;
            up[r as usize] = r;
            let mut head = order.len();
            order.push(r);
            while head < order.len() {
                let x = order[head];
                head += 1;
                for &e in &adj[off[x as usize] as usize..off[x as usize + 1] as usize] {
                    let (a, b, w) = &edges[e as usize];
                    let y = if *a == x { *b } else { *a };
                    if comp[y as usize] == NONE_U32 {
                        comp[y as usize] = r;
                        up[y as usize] = x;
                        agg[y as usize] = w.clone();
                        depth[y as usize] = depth[x as usize] + 1;
                        order.push(y);
                    }
                }
            }
        }
        // Level j from level j - 1; roots point at themselves with the
        // identity, so lifts past a root are no-ops.
        let max_depth = depth.iter().copied().max().unwrap_or(0);
        let levels = (u32::BITS - max_depth.leading_zeros()).max(1) as usize;
        up.reserve((levels - 1) * n);
        agg.reserve((levels - 1) * n);
        for j in 1..levels {
            let prev = (j - 1) * n;
            for x in 0..n {
                let h = up[prev + x] as usize;
                up.push(up[prev + h]);
                let a = P::path_combine(&agg[prev + x], &agg[prev + h]);
                agg.push(a);
            }
        }
        Lifting {
            n,
            depth,
            comp,
            up,
            agg,
        }
    }

    /// Aggregate of the path between vertices `x` and `y`; `None` when
    /// they lie in different components.
    fn query(&self, mut x: u32, mut y: u32) -> Option<P::PathVal> {
        if self.comp[x as usize] != self.comp[y as usize] {
            return None;
        }
        let n = self.n;
        let at = |j: usize, x: u32| j * n + x as usize;
        let mut acc = P::path_identity();
        // Lift the deeper endpoint to equal depth.
        if self.depth[x as usize] < self.depth[y as usize] {
            std::mem::swap(&mut x, &mut y);
        }
        let mut delta = self.depth[x as usize] - self.depth[y as usize];
        let mut j = 0;
        while delta > 0 {
            if delta & 1 == 1 {
                acc = P::path_combine(&acc, &self.agg[at(j, x)]);
                x = self.up[at(j, x)];
            }
            delta >>= 1;
            j += 1;
        }
        if x == y {
            return Some(acc);
        }
        // Lift both to just below their LCA.
        for j in (0..self.up.len() / n).rev() {
            if self.up[at(j, x)] != self.up[at(j, y)] {
                acc = P::path_combine(&acc, &self.agg[at(j, x)]);
                acc = P::path_combine(&acc, &self.agg[at(j, y)]);
                x = self.up[at(j, x)];
                y = self.up[at(j, y)];
            }
        }
        acc = P::path_combine(&acc, &self.agg[at(0, x)]);
        Some(P::path_combine(&acc, &self.agg[at(0, y)]))
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::{MaxEdgeAgg, MinEdgeAgg};
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    #[test]
    fn batch_extrema_on_path() {
        let edges: Vec<(u32, u32, u64)> = vec![(0, 1, 5), (1, 2, 9), (2, 3, 2), (3, 4, 7)];
        let f =
            RcForest::<MinEdgeAgg<u64>>::build_edges(5, &edges, BuildOptions::default()).unwrap();
        let got = f.batch_path_extrema(&[(0, 4), (0, 1), (1, 3), (2, 2)]);
        assert_eq!(got[0].unwrap().unwrap().w, 2);
        assert_eq!(got[1].unwrap().unwrap().w, 5);
        assert_eq!(got[2].unwrap().unwrap().w, 2);
        assert_eq!(got[3].unwrap(), None, "empty path has no edges");
    }

    #[test]
    fn batch_extrema_matches_naive() {
        let n = 300usize;
        let mut rng = SplitMix64::new(606);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.05 {
                continue;
            }
            let u = if rng.next_f64() < 0.6 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = 1 + rng.next_below(10_000);
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let f =
            RcForest::<MaxEdgeAgg<u64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let pairs: Vec<(u32, u32)> = (0..300)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        let got = f.batch_path_extrema(&pairs);
        for (i, &(u, v)) in pairs.iter().enumerate() {
            let expect = naive.path_edges(u, v);
            match (&got[i], expect) {
                (None, None) => {}
                (Some(opt), Some(es)) => {
                    if es.is_empty() {
                        assert!(opt.is_none(), "({u},{v})");
                    } else {
                        assert_eq!(
                            opt.unwrap().w,
                            es.iter().copied().max().unwrap(),
                            "({u},{v})"
                        );
                    }
                }
                (g, e) => panic!("({u},{v}): {g:?} vs {e:?}"),
            }
        }
    }
}
