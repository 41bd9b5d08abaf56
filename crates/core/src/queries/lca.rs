//! LCA queries on dynamic trees (§3.5, §5.7, supplementary A.8).
//!
//! A fixed-root LCA (rooted at the component's root representative) is
//! one synchronized ascent from the clusters of `u` and `v` to their
//! RC-LCA `M`, remembering the arrival children, followed by the casework
//! of A.8:
//!
//! * the *common boundary* `c = rep(M)` is the answer unless the walk to
//!   the root departs into one of the arrival children's cluster paths,
//! * in which case the answer is the vertex on that cluster path closest
//!   to the query vertex — found via the highest unary ancestor.
//!
//! Arbitrary roots reduce to three fixed-root queries XOR-ed together
//! (Lemma A.10).
//!
//! The batch algorithm makes one marked sweep over all query vertices,
//! reads connectivity from its `root_labels` pass and each `M`'s
//! orientation from one `root_boundary` pass, and runs every ascent over
//! the sweep's compact parent/round slots: `O(k log n)` work. The paper's
//! implementation likewise spends a log factor over `O(k log(1 + n/k))`
//! rather than build the Berkman–Vishkin structure, which "has a 2^228
//! constant factor" (§5.7). The single-query entry point makes the same
//! ascent over the forest and orients `M` with an `O(log n)` walk to its
//! root.

use crate::aggregate::ClusterAggregate;
use crate::forest::RcForest;
use crate::queries::engine::MarkedSweep;
use crate::types::{ClusterId, ClusterKind, Vertex, NO_VERTEX};
use rayon::prelude::*;

/// Synchronized ascent from `a` and `b` to their RC-LCA, always climbing
/// the side whose cluster contracted first. Returns `(meet, arrival child
/// of the a-side, arrival child of the b-side)`; an arrival child is
/// `None` when that side's start *is* the meet. `a` and `b` must lie in
/// one RC tree.
fn rc_meet<T: Copy + Eq>(
    mut a: T,
    mut b: T,
    round: impl Fn(T) -> u32,
    parent: impl Fn(T) -> T,
) -> (T, Option<T>, Option<T>) {
    let (mut arr_a, mut arr_b) = (None, None);
    while a != b {
        if round(a) <= round(b) {
            arr_a = Some(a);
            a = parent(a);
        } else {
            arr_b = Some(b);
            b = parent(b);
        }
    }
    (a, arr_a, arr_b)
}

impl<A: ClusterAggregate> RcForest<A> {
    /// LCA of `u` and `v` in the tree rooted at `r`; `None` when the three
    /// vertices are not in one tree. `O(log n)`.
    pub fn lca(&self, u: Vertex, v: Vertex, r: Vertex) -> Option<Vertex> {
        if u as usize >= self.n || v as usize >= self.n || r as usize >= self.n {
            return None;
        }
        let root = self.find_representative(u);
        if self.find_representative(v) != root || self.find_representative(r) != root {
            return None;
        }
        if u == v || u == r {
            return Some(u);
        }
        if v == r {
            return Some(v);
        }
        let l1 = self.fixed_lca(u, v, root);
        let l2 = self.fixed_lca(u, r, root);
        let l3 = self.fixed_lca(v, r, root);
        // Lemma A.10: two of the three coincide; XOR extracts the answer.
        Some(l1 ^ l2 ^ l3)
    }

    /// LCA of `u`, `v` with respect to the component root representative
    /// `root` (the vertex that contracted last — rep of the root cluster).
    fn fixed_lca(&self, u: Vertex, v: Vertex, root: Vertex) -> Vertex {
        if u == v {
            return u;
        }
        if u == root || v == root {
            return root;
        }
        let (m, arr_u, arr_v) = rc_meet(
            u,
            v,
            |x| self.cluster(x).round,
            |x| {
                let p = self.cluster(x).parent;
                assert!(!p.is_none(), "rc_meet on disconnected vertices");
                p.as_vertex()
            },
        );
        // Orientation: which boundary of M leads to the root (none when
        // M is the root cluster — that also covers D_{u,v,r} ties).
        let rb_m = if m == root {
            NO_VERTEX
        } else {
            self.root_boundary_single(m)
        };
        self.meet_answer(u, v, m, arr_u, arr_v, rb_m)
    }

    /// [`Self::fixed_lca`] of the vertices at sweep slots `su` and `sv`:
    /// the ascent walks the sweep's compact slots and `rb` is the sweep's
    /// [`root_boundary`](MarkedSweep::root_boundary) pass. The answer is
    /// `u`, `v`, the RC-LCA's representative or a boundary of a marked
    /// cluster, so it is marked too.
    pub(crate) fn sweep_fixed_lca(
        &self,
        sweep: &MarkedSweep<'_, A>,
        rb: &[Vertex],
        su: u32,
        sv: u32,
        root: Vertex,
    ) -> Vertex {
        let (u, v) = (sweep.rep(su), sweep.rep(sv));
        if u == v {
            return u;
        }
        if u == root || v == root {
            return root;
        }
        let (sm, arr_u, arr_v) = rc_meet(
            su,
            sv,
            |s| sweep.round(s),
            |s| sweep.parent(s).expect("rc_meet on disconnected vertices"),
        );
        let rep = |s: u32| sweep.rep(s);
        self.meet_answer(
            u,
            v,
            rep(sm),
            arr_u.map(rep),
            arr_v.map(rep),
            rb[sm as usize],
        )
    }

    /// Shared fixed-root casework, given the meet cluster rep `m`, the
    /// arrival children (`None` when the respective endpoint *is* `m`),
    /// and `rb_m` = the boundary of `M` toward the root (`NO_VERTEX` when
    /// `M` is the root cluster).
    fn meet_answer(
        &self,
        u: Vertex,
        v: Vertex,
        m: Vertex,
        arr_u: Option<Vertex>,
        arr_v: Option<Vertex>,
        rb_m: Vertex,
    ) -> Vertex {
        let c = m;
        match (arr_u, arr_v) {
            (None, None) => c, // u == v == m (excluded earlier), defensive
            (Some(x), None) => {
                // c == v: is the root on the same side of v as x?
                self.one_sided_answer(u, x, c, rb_m)
            }
            (None, Some(y)) => self.one_sided_answer(v, y, c, rb_m),
            (Some(x), Some(y)) => {
                let between_x = self.c_between(x, rb_m);
                let between_y = self.c_between(y, rb_m);
                if between_x && between_y {
                    c
                } else if !between_x {
                    self.closest_on_cluster_path(x, u)
                } else {
                    self.closest_on_cluster_path(y, v)
                }
            }
        }
    }

    /// Case `c ∈ {u, v}` (A.8): `x` is the child of `C` toward the other
    /// endpoint `w`. If `X` is unary, or the root lies on the opposite
    /// side of `c` from `X`'s cluster path, the LCA is `c`; otherwise it
    /// is the vertex on `X`'s cluster path closest to `w`.
    fn one_sided_answer(&self, w: Vertex, x: Vertex, c: Vertex, rb_m: Vertex) -> Vertex {
        let xc = self.cluster(x);
        if xc.kind != ClusterKind::Binary {
            return c;
        }
        let far = if xc.boundary[0] == c {
            xc.boundary[1]
        } else {
            xc.boundary[0]
        };
        if far != rb_m {
            c
        } else {
            self.closest_on_cluster_path(x, w)
        }
    }

    /// Is `c = rep(M)` on the path from `X`'s contents to the root?
    /// True when `X` is unary (its only exit is `c`) or its far boundary
    /// is not the root boundary of `M`.
    fn c_between(&self, x: Vertex, rb_m: Vertex) -> bool {
        let xc = self.cluster(x);
        if xc.kind != ClusterKind::Binary {
            return true;
        }
        let c_parent = xc.parent;
        debug_assert!(c_parent.is_vertex());
        let c = c_parent.as_vertex();
        let far = if xc.boundary[0] == c {
            xc.boundary[1]
        } else {
            xc.boundary[0]
        };
        far != rb_m
    }

    /// `root_boundary` of a single cluster: walk to the root collecting
    /// the chain, then orient downward (`O(log n)`).
    fn root_boundary_single(&self, m: Vertex) -> Vertex {
        let chain = self.chain_to_root(m);
        // chain[last] is the root; compute rb downward.
        let mut rb = NO_VERTEX;
        for i in (0..chain.len() - 1).rev() {
            let p_rep = chain[i + 1];
            let c = self.cluster(chain[i]);
            rb = if rb != NO_VERTEX && (c.boundary[0] == rb || c.boundary[1] == rb) {
                rb
            } else {
                p_rep
            };
        }
        rb
    }

    fn chain_to_root(&self, m: Vertex) -> Vec<Vertex> {
        let mut chain = vec![m];
        let mut c = ClusterId::vertex(m);
        loop {
            let p = self.parent_of(c);
            if p.is_none() {
                return chain;
            }
            chain.push(p.as_vertex());
            c = p;
        }
    }

    /// The vertex on the cluster path of binary cluster `X` closest to the
    /// contained vertex `w` (Lemma A.14): `w` itself if it lies on the
    /// cluster path (no unary cluster on the chain `[W, X)`), else the
    /// boundary of the highest unary cluster on that chain.
    fn closest_on_cluster_path(&self, x: Vertex, w: Vertex) -> Vertex {
        let mut cur = w;
        let mut highest_unary: Option<Vertex> = None;
        while cur != x {
            if self.cluster(cur).kind == ClusterKind::Unary {
                highest_unary = Some(cur);
            }
            let p = self.cluster(cur).parent;
            debug_assert!(p.is_vertex(), "w must be inside X");
            cur = p.as_vertex();
        }
        match highest_unary {
            None => w,
            Some(wu) => self.cluster(wu).boundary[0],
        }
    }

    /// `BatchLCA`: answer `k` arbitrary-root LCA queries `(u, v, r)`,
    /// sharing one marked sweep and its orientation pass across the whole
    /// batch (§3.5). Queries naming an out-of-range vertex answer `None`.
    pub fn batch_lca(&self, queries: &[(Vertex, Vertex, Vertex)]) -> Vec<Option<Vertex>> {
        if queries.is_empty() {
            return Vec::new();
        }
        let sweep = self.marked_sweep(queries.iter().flat_map(|&(u, v, r)| [u, v, r]));
        if sweep.is_empty() {
            return vec![None; queries.len()];
        }
        let labels = sweep.root_labels();
        let rb = sweep.root_boundary();
        queries
            .par_iter()
            .map(|&(u, v, r)| {
                if [u, v, r].iter().any(|&x| !self.in_range(x)) {
                    return None;
                }
                let (su, sv, sr) = (sweep.slot(u), sweep.slot(v), sweep.slot(r));
                let root = labels[su as usize];
                if labels[sv as usize] != root || labels[sr as usize] != root {
                    return None;
                }
                if u == v || u == r {
                    return Some(u);
                }
                if v == r {
                    return Some(v);
                }
                let fixed = |a, b| self.sweep_fixed_lca(&sweep, &rb, a, b, root);
                Some(fixed(su, sv) ^ fixed(su, sr) ^ fixed(sv, sr))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::UnitAgg;
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    type F = RcForest<UnitAgg>;

    fn build(n: usize, edges: &[(u32, u32)]) -> F {
        let e: Vec<(u32, u32, ())> = edges.iter().map(|&(u, v)| (u, v, ())).collect();
        F::build_edges(n, &e, BuildOptions::default()).unwrap()
    }

    #[test]
    fn lca_on_small_star() {
        // 1 - 0 - 2, 0 - 3 - 4.
        let f = build(5, &[(0, 1), (0, 2), (0, 3), (3, 4)]);
        assert_eq!(f.lca(1, 2, 4), Some(0));
        assert_eq!(f.lca(1, 4, 2), Some(0));
        assert_eq!(f.lca(4, 0, 1), Some(0));
        assert_eq!(f.lca(4, 3, 3), Some(3));
        assert_eq!(f.lca(1, 1, 4), Some(1));
        assert_eq!(f.lca(2, 4, 4), Some(4));
    }

    #[test]
    fn lca_on_path_all_triples() {
        let n = 10u32;
        let f = build(
            n as usize,
            &(0..n - 1).map(|i| (i, i + 1)).collect::<Vec<_>>(),
        );
        // On a path, LCA(u,v,r) is the median of the three positions.
        for u in 0..n {
            for v in 0..n {
                for r in 0..n {
                    let mut t = [u, v, r];
                    t.sort_unstable();
                    assert_eq!(f.lca(u, v, r), Some(t[1]), "lca({u},{v},{r})");
                }
            }
        }
    }

    #[test]
    fn lca_disconnected() {
        let f = build(4, &[(0, 1), (2, 3)]);
        assert_eq!(f.lca(0, 1, 2), None);
        assert_eq!(f.lca(0, 2, 1), None);
        assert_eq!(f.lca(0, 1, 1), Some(1));
    }

    #[test]
    fn lca_matches_naive_on_random_trees() {
        let n = 200usize;
        let mut rng = SplitMix64::new(99);
        for trial in 0..5 {
            let mut naive = crate::naive::NaiveForest::<u64>::new(n);
            let mut edges: Vec<(u32, u32)> = Vec::new();
            for v in 1..n as u32 {
                let mut u = rng.next_below(v as u64) as u32;
                let mut guard = 0;
                while naive.degree(u) >= 3 && guard < 50 {
                    u = rng.next_below(v as u64) as u32;
                    guard += 1;
                }
                if naive.degree(u) < 3 {
                    naive.link(u, v, 1).unwrap();
                    edges.push((u, v));
                }
            }
            let f = build(n, &edges);
            for _ in 0..400 {
                let u = rng.next_below(n as u64) as u32;
                let v = rng.next_below(n as u64) as u32;
                let r = rng.next_below(n as u64) as u32;
                assert_eq!(
                    f.lca(u, v, r),
                    naive.lca(u, v, r),
                    "trial {trial}: lca({u},{v},{r})"
                );
            }
        }
    }

    #[test]
    fn batch_lca_matches_single() {
        let n = 300usize;
        let mut rng = SplitMix64::new(4242);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32)> = Vec::new();
        for v in 1..n as u32 {
            if rng.next_f64() < 0.05 {
                continue; // some disconnection
            }
            let u = if rng.next_f64() < 0.7 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            if naive.degree(u) < 3 && naive.link(u, v, 1).is_ok() {
                edges.push((u, v));
            }
        }
        let f = build(n, &edges);
        let queries: Vec<(u32, u32, u32)> = (0..500)
            .map(|_| {
                (
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                    rng.next_below(n as u64) as u32,
                )
            })
            .collect();
        let batch = f.batch_lca(&queries);
        for (i, &(u, v, r)) in queries.iter().enumerate() {
            assert_eq!(batch[i], naive.lca(u, v, r), "batch lca({u},{v},{r})");
        }
    }

    #[test]
    fn lca_after_updates() {
        let mut f = build(8, &[(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]);
        assert_eq!(f.lca(0, 3, 2), Some(2));
        f.batch_link(&[(3, 4, ())]).unwrap();
        assert_eq!(f.lca(0, 7, 3), Some(3));
        assert_eq!(f.lca(0, 7, 5), Some(5));
        f.batch_cut(&[(2, 3)]).unwrap();
        assert_eq!(f.lca(0, 7, 3), None);
    }
}
