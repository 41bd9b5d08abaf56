//! Compressed path trees (§5.8, Anderson–Blelloch–Tangwongsan).
//!
//! Given `k` marked *terminal* vertices, produce a forest on the terminals
//! plus `O(k)` Steiner vertices such that the path aggregate between every
//! pair of terminals is preserved exactly (Fig. 4: "the max between any
//! pair of nodes is maintained in the compressed tree").
//!
//! Construction is one [`bottom_up`](crate::MarkedSweep::bottom_up)
//! visitor over the marked sweep of the terminals. Each marked cluster
//! summarizes its terminals' partial Steiner tree by at most two
//! *exposures* — the nearest structure node toward each boundary with the
//! exact path aggregate from that boundary. Junctions materialize eagerly
//! (possibly as provisional degree-2 nodes), so every structure node is
//! the representative of a marked cluster and everything is indexed by
//! sweep slot: a per-slot terminal bitmap, and flat degree and CSR
//! adjacency arrays for the final compaction, which prunes non-terminal
//! leaves and then splices chains of non-terminal degree-2 nodes,
//! combining edge aggregates — which keeps every pairwise aggregate exact.
//! `O(k log(1 + n/k))` expected work, `O(k)` output.
//!
//! Out-of-range terminals are ignored — the compressed tree is a set
//! construction, so there is no per-terminal `None` slot to fill; queries
//! against [`CompressedPathTree::path_value`] answer `None` for vertices
//! absent from the tree.

use crate::aggregate::PathAggregate;
use crate::forest::RcForest;
use crate::queries::engine::MarkedSweep;
use crate::types::{ClusterId, ClusterKind, Vertex, MAX_DEGREE, NO_VERTEX};
use rc_parlay::NONE_U32;
use std::collections::{HashMap, VecDeque};

/// A tree over `O(k)` vertices preserving pairwise path aggregates
/// between the `terminals` of the original forest.
#[derive(Clone, Debug)]
pub struct CompressedPathTree<P: PathAggregate> {
    /// Original vertex ids present in the compressed tree, ascending.
    pub vertices: Vec<Vertex>,
    /// Edges `(a, b, aggregate)` with `a < b`, sorted, each carrying the
    /// aggregate of the original path it contracts.
    pub edges: Vec<(Vertex, Vertex, P::PathVal)>,
}

/// The compressed path tree over sweep slots.
pub(crate) struct SlotTree<T> {
    /// Sweep slots of the tree's vertices, ascending.
    pub(crate) slots: Vec<u32>,
    /// Edges between positions in `slots`, each carrying the aggregate of
    /// the original path it contracts.
    pub(crate) edges: Vec<(u32, u32, T)>,
    /// Position in `slots` of every sweep slot (`NONE_U32` when absent).
    pub(crate) pos: Vec<u32>,
}

/// Exposure of a partial Steiner structure toward a boundary: the slot of
/// the nearest structure node and the exact aggregate from the boundary
/// to it.
type Expose<T> = Option<(u32, T)>;

/// A marked cluster's exposures, each tagged with the boundary vertex it
/// is measured from, so a parent picks a child's exposure toward a vertex
/// without reading the child cluster.
type Exposures<T> = [(Vertex, Expose<T>); 2];

/// The exposure of `exp` measured from boundary `b`.
fn toward<T: Clone>(exp: Option<&Exposures<T>>, b: Vertex) -> Expose<T> {
    exp?.iter().find(|(t, _)| *t == b)?.1.clone()
}

impl<P: PathAggregate> RcForest<P> {
    /// Build the compressed path tree of `terminals` (duplicates allowed).
    pub fn compressed_path_tree(&self, terminals: &[Vertex]) -> CompressedPathTree<P> {
        let sweep = self.marked_sweep(terminals.iter().copied());
        let tree = self.slot_tree(&sweep, terminals);
        let rep = |i: u32| sweep.rep(tree.slots[i as usize]);
        let mut vertices: Vec<Vertex> = tree.slots.iter().map(|&s| sweep.rep(s)).collect();
        vertices.sort_unstable();
        let mut edges: Vec<(Vertex, Vertex, P::PathVal)> = tree
            .edges
            .into_iter()
            .map(|(a, b, w)| {
                let (a, b) = (rep(a), rep(b));
                (a.min(b), a.max(b), w)
            })
            .collect();
        edges.sort_unstable_by_key(|e| (e.0, e.1));
        CompressedPathTree { vertices, edges }
    }

    /// The compressed path tree of `terminals` over `sweep`, which must
    /// have been marked from (at least) the in-range terminals.
    pub(crate) fn slot_tree(
        &self,
        sweep: &MarkedSweep<'_, P>,
        terminals: &[Vertex],
    ) -> SlotTree<P::PathVal> {
        let mut is_term = vec![false; sweep.len()];
        for &t in terminals {
            if let Some(s) = sweep.try_slot(t) {
                is_term[s as usize] = true;
            }
        }
        let emitted = self.steiner_edges(sweep, &is_term);
        compact::<P>(&is_term, emitted)
    }

    /// The bottom-up pass: summarizes each marked cluster by its
    /// exposures and returns the junction edges it materializes.
    fn steiner_edges(
        &self,
        sweep: &MarkedSweep<'_, P>,
        is_term: &[bool],
    ) -> Vec<(u32, u32, P::PathVal)> {
        let mut emitted: Vec<(u32, u32, P::PathVal)> = Vec::new();
        let empty: Exposures<P::PathVal> = [(NO_VERTEX, None), (NO_VERTEX, None)];
        sweep.bottom_up(empty.clone(), |s, partial| {
            let v = sweep.rep(s);
            let c = self.cluster(v);
            // Exposures of a child cluster; base edges and unmarked
            // children hold no terminals.
            let exp_of = |child: ClusterId| {
                if !child.is_vertex() {
                    return None;
                }
                Some(&partial[sweep.try_slot(child.as_vertex())? as usize])
            };
            let path_of = |child: ClusterId| self.agg_of(child).cluster_path();
            let [b0, b1] = c.boundary;

            // Parts attached directly at v: rake children + v itself.
            let mut parts: [Expose<P::PathVal>; MAX_DEGREE + 1] = std::array::from_fn(|_| None);
            let mut np = 0;
            for rk in c.rake_children.iter() {
                if let Some(p) = toward(exp_of(rk), v) {
                    parts[np] = Some(p);
                    np += 1;
                }
            }
            if is_term[s as usize] {
                parts[np] = Some((s, P::path_identity()));
                np += 1;
            }
            // Every part except v itself becomes an edge at junction v.
            let mut emit_parts = |emitted: &mut Vec<_>| {
                for (t, d) in parts.iter_mut().filter_map(Option::take) {
                    if t != s {
                        emitted.push((s, t, d));
                    }
                }
            };

            match c.kind {
                ClusterKind::Unary => {
                    let e = c.bin_children[0];
                    let ex = exp_of(e);
                    let e_near = toward(ex, v);
                    let out = match np + usize::from(e_near.is_some()) {
                        0 => None,
                        1 => match parts[0].take() {
                            Some((t, d)) => Some((t, P::path_combine(&path_of(e), &d))),
                            None => toward(ex, b0),
                        },
                        _ => {
                            emit_parts(&mut emitted);
                            if let Some((te, de)) = e_near {
                                emitted.push((s, te, de));
                                toward(ex, b0)
                            } else {
                                Some((s, path_of(e)))
                            }
                        }
                    };
                    [(b0, out), (NO_VERTEX, None)]
                }
                ClusterKind::Binary => {
                    let (l, r) = (c.bin_children[0], c.bin_children[1]);
                    let (lx, rx) = (exp_of(l), exp_of(r));
                    let l_near = toward(lx, v);
                    let r_near = toward(rx, v);
                    let (e0, e1) =
                        match np + usize::from(l_near.is_some()) + usize::from(r_near.is_some()) {
                            0 => (None, None),
                            1 if np == 0 => match (l_near, r_near) {
                                (Some((tl, dl)), _) => (
                                    toward(lx, b0),
                                    Some((tl, P::path_combine(&path_of(r), &dl))),
                                ),
                                (_, Some((tr, dr))) => (
                                    Some((tr, P::path_combine(&path_of(l), &dr))),
                                    toward(rx, b1),
                                ),
                                (None, None) => unreachable!("one direction"),
                            },
                            // Two or more directions, or one part alone:
                            // v becomes a structure node.
                            _ => {
                                emit_parts(&mut emitted);
                                let e0 = if let Some((tl, dl)) = l_near {
                                    emitted.push((s, tl, dl));
                                    toward(lx, b0)
                                } else {
                                    Some((s, path_of(l)))
                                };
                                let e1 = if let Some((tr, dr)) = r_near {
                                    emitted.push((s, tr, dr));
                                    toward(rx, b1)
                                } else {
                                    Some((s, path_of(r)))
                                };
                                (e0, e1)
                            }
                        };
                    [(b0, e0), (b1, e1)]
                }
                ClusterKind::Nullary => {
                    // With 0 or 1 directions the structure is complete.
                    if np >= 2 {
                        emit_parts(&mut emitted);
                    }
                    empty.clone()
                }
                ClusterKind::Invalid => unreachable!(),
            }
        });
        emitted
    }
}

/// CSR incidence of a graph on vertices `0..n`: the edges at `x` are
/// `adj[off[x]..off[x + 1]]`, as indices into `edges`.
pub(crate) fn incidence<T>(n: usize, edges: &[(u32, u32, T)]) -> (Vec<u32>, Vec<u32>) {
    let mut off = vec![0u32; n + 1];
    for &(a, b, _) in edges {
        off[a as usize + 1] += 1;
        off[b as usize + 1] += 1;
    }
    for x in 0..n {
        off[x + 1] += off[x];
    }
    let mut adj = vec![0u32; off[n] as usize];
    let mut fill = off[..n].to_vec();
    for (i, &(a, b, _)) in edges.iter().enumerate() {
        for x in [a, b] {
            adj[fill[x as usize] as usize] = i as u32;
            fill[x as usize] += 1;
        }
    }
    (off, adj)
}

/// Remove non-terminal leaves, then splice chains of non-terminal
/// degree-2 vertices into single edges, combining their aggregates.
/// Vertices are sweep slots; `is_term` is the per-slot terminal bitmap.
fn compact<P: PathAggregate>(
    is_term: &[bool],
    edges: Vec<(u32, u32, P::PathVal)>,
) -> SlotTree<P::PathVal> {
    let m = is_term.len();
    let (off, adj) = incidence(m, &edges);
    let incident = |x: u32| &adj[off[x as usize] as usize..off[x as usize + 1] as usize];
    // Live degree per slot.
    let mut deg: Vec<u32> = off.windows(2).map(|w| w[1] - w[0]).collect();
    let other = |e: u32, x: u32| {
        let (a, b, _) = &edges[e as usize];
        if *a == x {
            *b
        } else {
            *a
        }
    };
    let mut alive = vec![true; edges.len()];

    // Prune: a non-terminal leaf's edge dies, which may expose another.
    let mut leaves: Vec<u32> = (0..m as u32)
        .filter(|&x| !is_term[x as usize] && deg[x as usize] == 1)
        .collect();
    while let Some(x) = leaves.pop() {
        if deg[x as usize] != 1 {
            continue; // its last edge went with the neighbor's pruning
        }
        let e = *incident(x)
            .iter()
            .find(|&&e| alive[e as usize])
            .expect("live edge");
        alive[e as usize] = false;
        deg[x as usize] = 0;
        let y = other(e, x);
        deg[y as usize] -= 1;
        if !is_term[y as usize] && deg[y as usize] == 1 {
            leaves.push(y);
        }
    }

    // Splice: every surviving non-terminal has degree 0 (dropped), 2
    // (spliced) or ≥ 3 (kept as a Steiner branch point). Walk each chain
    // from a kept end, consuming its edges, to the kept vertex beyond.
    let keep = |x: u32| is_term[x as usize] || deg[x as usize] >= 3;
    let mut pos = vec![NONE_U32; m];
    let mut slots = Vec::new();
    for x in (0..m as u32).filter(|&x| keep(x)) {
        pos[x as usize] = slots.len() as u32;
        slots.push(x);
    }
    let mut out = Vec::with_capacity(slots.len());
    for &x in &slots {
        for &e in incident(x) {
            if !alive[e as usize] {
                continue;
            }
            alive[e as usize] = false;
            let mut w = edges[e as usize].2.clone();
            let mut at = other(e, x);
            while !keep(at) {
                let f = *incident(at)
                    .iter()
                    .find(|&&f| alive[f as usize])
                    .expect("chain continues");
                alive[f as usize] = false;
                w = P::path_combine(&w, &edges[f as usize].2);
                at = other(f, at);
            }
            out.push((pos[x as usize], pos[at as usize], w));
        }
    }
    SlotTree {
        slots,
        edges: out,
        pos,
    }
}

impl<P: PathAggregate> CompressedPathTree<P> {
    /// Path aggregate between two vertices of the compressed tree
    /// (BFS over the `O(k)` structure — test/verification helper).
    pub fn path_value(&self, u: Vertex, v: Vertex) -> Option<P::PathVal> {
        if u == v {
            return Some(P::path_identity());
        }
        let mut adj: HashMap<Vertex, Vec<(Vertex, &P::PathVal)>> = HashMap::new();
        for (a, b, w) in &self.edges {
            adj.entry(*a).or_default().push((*b, w));
            adj.entry(*b).or_default().push((*a, w));
        }
        let mut q = VecDeque::from([u]);
        let mut val: HashMap<Vertex, P::PathVal> = HashMap::new();
        val.insert(u, P::path_identity());
        while let Some(x) = q.pop_front() {
            let xv = val[&x].clone();
            if x == v {
                return Some(xv);
            }
            if let Some(nbrs) = adj.get(&x) {
                for (y, w) in nbrs {
                    if !val.contains_key(y) {
                        val.insert(*y, P::path_combine(&xv, w));
                        q.push_back(*y);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::{MaxEdgeAgg, SumAgg};
    use crate::forest::{BuildOptions, RcForest};
    use rc_parlay::rng::SplitMix64;

    #[test]
    fn cpt_of_path_endpoints() {
        let edges: Vec<(u32, u32, i64)> = (0..9).map(|i| (i, i + 1, (i + 1) as i64)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(10, &edges, BuildOptions::default()).unwrap();
        let cpt = f.compressed_path_tree(&[0, 9]);
        assert_eq!(
            cpt.edges.len(),
            1,
            "two terminals on a path compress to one edge"
        );
        assert_eq!(cpt.path_value(0, 9), Some(45));
    }

    #[test]
    fn cpt_star_center_branches() {
        // Terminals at three leaves of a star: center becomes Steiner.
        let edges = vec![(0u32, 1u32, 1i64), (0, 2, 2), (0, 3, 4)];
        let f = RcForest::<SumAgg<i64>>::build_edges(4, &edges, BuildOptions::default()).unwrap();
        let cpt = f.compressed_path_tree(&[1, 2, 3]);
        assert_eq!(cpt.edges.len(), 3);
        assert!(cpt.vertices.contains(&0), "center kept as branch point");
        assert_eq!(cpt.path_value(1, 2), Some(3));
        assert_eq!(cpt.path_value(1, 3), Some(5));
        assert_eq!(cpt.path_value(2, 3), Some(6));
    }

    #[test]
    fn cpt_single_terminal() {
        let edges: Vec<(u32, u32, i64)> = (0..4).map(|i| (i, i + 1, 1)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(5, &edges, BuildOptions::default()).unwrap();
        let cpt = f.compressed_path_tree(&[2]);
        assert_eq!(cpt.vertices, vec![2]);
        assert!(cpt.edges.is_empty());
    }

    #[test]
    fn cpt_is_a_forest_with_sorted_edges() {
        // All vertices of a path as terminals: the root representative is
        // a terminal with two directions, and must not become a self-loop.
        for n in 2..40u32 {
            let edges: Vec<(u32, u32, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
            let f =
                RcForest::<SumAgg<i64>>::build_edges(n as usize, &edges, BuildOptions::default())
                    .unwrap();
            let cpt = f.compressed_path_tree(&(0..n).collect::<Vec<_>>());
            assert_eq!(cpt.vertices, (0..n).collect::<Vec<_>>());
            assert_eq!(
                cpt.edges.len(),
                n as usize - 1,
                "n={n}: a tree on n vertices"
            );
            assert!(
                cpt.edges
                    .windows(2)
                    .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
                "n={n}: edges sorted and distinct"
            );
            assert!(cpt.edges.iter().all(|e| e.0 < e.1), "n={n}: no self-loops");
        }
    }

    #[test]
    fn cpt_disconnected_terminals() {
        let f = RcForest::<SumAgg<i64>>::build_edges(
            4,
            &[(0, 1, 3), (2, 3, 4)],
            BuildOptions::default(),
        )
        .unwrap();
        let cpt = f.compressed_path_tree(&[0, 1, 2, 3]);
        assert_eq!(cpt.path_value(0, 1), Some(3));
        assert_eq!(cpt.path_value(2, 3), Some(4));
        assert_eq!(cpt.path_value(0, 3), None);
    }

    #[test]
    fn cpt_preserves_all_pairwise_sums_on_random_trees() {
        let n = 250usize;
        let mut rng = SplitMix64::new(808);
        for trial in 0..5 {
            let mut naive = crate::naive::NaiveForest::<i64>::new(n);
            let mut edges: Vec<(u32, u32, i64)> = Vec::new();
            for v in 1..n as u32 {
                let u = if rng.next_f64() < 0.5 {
                    v - 1
                } else {
                    rng.next_below(v as u64) as u32
                };
                let w = 1 + rng.next_below(40) as i64;
                if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                    edges.push((u, v, w));
                }
            }
            let f =
                RcForest::<SumAgg<i64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
            let terms: Vec<u32> = (0..12).map(|_| rng.next_below(n as u64) as u32).collect();
            let cpt = f.compressed_path_tree(&terms);
            assert!(
                cpt.vertices.len() <= 2 * terms.len(),
                "trial {trial}: compressed tree too large: {} vertices for {} terminals",
                cpt.vertices.len(),
                terms.len()
            );
            for &a in &terms {
                for &b in &terms {
                    let expect = naive.path_edges(a, b).map(|es| es.iter().sum::<i64>());
                    assert_eq!(
                        cpt.path_value(a, b),
                        expect,
                        "trial {trial}: pair ({a},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn cpt_preserves_path_maxima() {
        let n = 150usize;
        let mut rng = SplitMix64::new(99);
        let mut naive = crate::naive::NaiveForest::<u64>::new(n);
        let mut edges: Vec<(u32, u32, u64)> = Vec::new();
        for v in 1..n as u32 {
            let u = if rng.next_f64() < 0.5 {
                v - 1
            } else {
                rng.next_below(v as u64) as u32
            };
            let w = 1 + rng.next_below(1000);
            if naive.degree(u) < 3 && naive.link(u, v, w).is_ok() {
                edges.push((u, v, w));
            }
        }
        let f =
            RcForest::<MaxEdgeAgg<u64>>::build_edges(n, &edges, BuildOptions::default()).unwrap();
        let terms: Vec<u32> = (0..10).map(|_| rng.next_below(n as u64) as u32).collect();
        let cpt = f.compressed_path_tree(&terms);
        for &a in &terms {
            for &b in &terms {
                if a == b {
                    continue;
                }
                let expect = naive
                    .path_edges(a, b)
                    .map(|es| es.iter().copied().max().unwrap());
                let got = cpt.path_value(a, b).map(|o| o.map(|e| e.w));
                assert_eq!(
                    got.map(|x| x.unwrap_or(0)),
                    expect.or(Some(0)).filter(|_| got.is_some()).or(expect),
                    "pair ({a},{b})"
                );
                match (cpt.path_value(a, b), naive.path_edges(a, b)) {
                    (Some(Some(e)), Some(es)) => {
                        assert_eq!(e.w, es.iter().copied().max().unwrap(), "max ({a},{b})")
                    }
                    (None, None) => {}
                    (Some(None), Some(es)) => assert!(es.is_empty()),
                    (x, y) => panic!("shape mismatch ({a},{b}): {x:?} vs {y:?}"),
                }
            }
        }
    }
}
