//! Batched subtree queries (§3.4, §5.6, supplementary A.5).
//!
//! Naively running `k` subtree queries repeats work on shared ancestor
//! paths. The batch algorithm runs one [`RcForest::marked_sweep`] over all
//! query endpoints, then a [`top_down`](crate::MarkedSweep::top_down)
//! visitor computing the contribution of the *subtree growing out of* each
//! boundary vertex of each marked cluster. Each query is then assembled in
//! `O(1)` lookups (plus the `O(log n)` direction-giver resolution the
//! paper's implementation also performs). Total: `O(k log(1 + n/k))` work,
//! `O(log n)` span.

use crate::aggregate::SubtreeAggregate;
use crate::forest::RcForest;
use crate::types::{ClusterId, Vertex, NO_VERTEX};
use rayon::prelude::*;

impl<S: SubtreeAggregate> RcForest<S> {
    /// Answer a batch of subtree queries `(u_i, p_i)` — the aggregate of
    /// the subtree rooted at `u_i` with neighbor `p_i` as its parent.
    /// Entries with an out-of-range vertex or a non-adjacent `(u, p)`
    /// yield `None`.
    pub fn batch_subtree_aggregate(
        &self,
        queries: &[(Vertex, Vertex)],
    ) -> Vec<Option<S::SubtreeVal>> {
        if queries.is_empty() {
            return Vec::new();
        }
        // Reject before marking, as the single query does: entries with an
        // out-of-range vertex or a non-adjacent `(u, p)` mark nothing.
        let valid: Vec<bool> = queries
            .iter()
            .map(|&(u, p)| self.in_range(u) && self.in_range(p) && self.has_edge(u, p))
            .collect();
        // Only `u`'s ancestors carry OUT values the assembly reads; the
        // direction-giver climb from `p` walks the forest itself.
        let sweep = self.marked_sweep(
            queries
                .iter()
                .zip(&valid)
                .filter(|&(_, &ok)| ok)
                .map(|(&(u, _), _)| u),
        );

        // Top-down: OUT values per marked cluster per boundary slot.
        // out[slot][i] = aggregate of the subtree growing out of
        // boundary[i] of that cluster (including the boundary vertex).
        let out = sweep.top_down([None, None] as [Option<S::SubtreeVal>; 2], |s, vals| {
            let ps = match sweep.parent(s) {
                None => return [None, None], // root cluster: no boundaries
                Some(ps) => ps,
            };
            let c = self.cluster(sweep.rep(s));
            let p_rep = sweep.rep(ps);
            let pc = self.cluster(p_rep);
            let parent_out = vals.get(ps);
            let mut vals_here: [Option<S::SubtreeVal>; 2] = [None, None];
            for (i, val_here) in vals_here.iter_mut().enumerate() {
                let b = c.boundary[i];
                if b == NO_VERTEX {
                    continue;
                }
                if b == p_rep {
                    // Everything beyond p from this cluster's side.
                    let mut acc = S::vertex_value(p_rep, self.vertex_weight(p_rep));
                    let child_id = ClusterId::vertex(sweep.rep(s));
                    for k in pc.children() {
                        if k != child_id {
                            acc = S::subtree_combine(&acc, &self.agg_of(k).cluster_total());
                        }
                    }
                    for (j, &pb) in pc.boundary.iter().enumerate() {
                        if pb == NO_VERTEX {
                            continue;
                        }
                        // P's boundaries shared with C are on C's side.
                        if pb != c.boundary[0] && pb != c.boundary[1] {
                            acc = S::subtree_combine(
                                &acc,
                                parent_out[j].as_ref().expect("parent OUT ready"),
                            );
                        }
                    }
                    *val_here = Some(acc);
                } else {
                    // Shared with the parent: same OUT value.
                    let j = pc
                        .boundary
                        .iter()
                        .position(|&pb| pb == b)
                        .expect("boundary shared with parent");
                    *val_here = Some(parent_out[j].clone().expect("parent OUT ready"));
                }
            }
            vals_here
        });

        // Assemble answers in parallel.
        queries
            .par_iter()
            .enumerate()
            .map(|(i, &(u, p))| {
                if !valid[i] {
                    return None;
                }
                let (toward, excluded_boundary) = self.child_toward(u, p);
                let uc = self.cluster(u);
                let slot = sweep.slot(u) as usize;
                let mut acc = S::vertex_value(u, self.vertex_weight(u));
                for k in uc.children() {
                    if k != toward {
                        acc = S::subtree_combine(&acc, &self.agg_of(k).cluster_total());
                    }
                }
                for (i, &b) in uc.boundary.iter().enumerate() {
                    if b == NO_VERTEX || Some(b) == excluded_boundary {
                        continue;
                    }
                    acc = S::subtree_combine(&acc, out[slot][i].as_ref().expect("OUT ready"));
                }
                Some(acc)
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
    fn batch_matches_single_on_path() {
        let edges: Vec<(u32, u32, i64)> = (0..19).map(|i| (i, i + 1, (i % 5) as i64)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(20, &edges, BuildOptions::default()).unwrap();
        let queries: Vec<(u32, u32)> = (0..19)
            .map(|i| (i, i + 1))
            .chain((0..19).map(|i| (i + 1, i)))
            .collect();
        let batch = f.batch_subtree_aggregate(&queries);
        for (i, &(u, p)) in queries.iter().enumerate() {
            assert_eq!(batch[i], f.subtree_aggregate(u, p), "query ({u},{p})");
        }
    }

    #[test]
    fn batch_matches_single_on_random_forest() {
        let n = 500usize;
        let mut rng = SplitMix64::new(123);
        let mut naive = crate::naive::NaiveForest::<i64>::new(n);
        let mut edges: Vec<(u32, u32, i64)> = Vec::new();
        for v in 1..n as u32 {
            let u = if rng.next_f64() < 0.5 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = rng.next_below(20) as i64;
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let f = RcForest::<SumAgg<i64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let mut queries: Vec<(u32, u32)> = Vec::new();
        for _ in 0..200 {
            let u = rng.next_below(n as u64) as u32;
            let nbrs: Vec<u32> = naive.neighbors(u).collect();
            if nbrs.is_empty() {
                continue;
            }
            queries.push((u, nbrs[rng.next_below(nbrs.len() as u64) as usize]));
        }
        let batch = f.batch_subtree_aggregate(&queries);
        for (i, &(u, p)) in queries.iter().enumerate() {
            assert_eq!(batch[i], f.subtree_aggregate(u, p), "query ({u},{p})");
        }
    }

    #[test]
    fn batch_handles_invalid_pairs() {
        let f =
            RcForest::<SumAgg<i64>>::build_edges(4, &[(0, 1, 1)], BuildOptions::default()).unwrap();
        let res = f.batch_subtree_aggregate(&[(0, 1), (0, 2), (2, 3), (0, 77), (77, 0)]);
        assert!(res[0].is_some());
        assert_eq!(res[1], None);
        assert_eq!(res[2], None);
        assert_eq!(res[3], None, "out-of-range direction giver");
        assert_eq!(res[4], None, "out-of-range root");
    }

    #[test]
    fn batch_empty() {
        let f = RcForest::<SumAgg<i64>>::new(3);
        assert!(f.batch_subtree_aggregate(&[]).is_empty());
    }
}
