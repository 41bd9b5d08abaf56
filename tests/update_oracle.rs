//! Oracles for batch link and cut (change propagation).
//!
//! * `every_small_forest_takes_every_update` is bounded-exhaustive: on
//!   every degree-≤3 forest on at most 6 labelled vertices it applies
//!   every single cut and every single link attempt (out-of-range ids,
//!   self-loops, duplicates, degree 4 and cycles included). On forests of
//!   at most 5 vertices it also applies every pair of valid cuts as one
//!   `batch_cut`, every pair of valid links as one `batch_link` (closing
//!   cycles, duplicates and degree overflows among the batch's own links)
//!   and every valid cut with every link that is valid after it as one
//!   `batch_update_unchecked`. Each call must return what the naive
//!   forest returns for the same updates applied one at a time; an
//!   accepted call must leave a forest that validates, equals a fresh
//!   rebuild and exports the naive forest's state, and a rejected one
//!   must leave the state unchanged.
//! * `release_scale_update_rounds_agree_across_pools` runs rounds of
//!   `k = 4096` cuts and links on a 20k-vertex forest under 1-, 2- and
//!   4-thread pools, so the update path's parallel maps run (frontiers
//!   of at most 64 vertices run inline), and checks the same properties
//!   and the planned state after every round.

mod common;

use common::{degree3_trees, random_state, state_of};
use rcforest::parlay::rng::SplitMix64;
use rcforest::{
    BuildOptions, DynamicForest, ForestError, ForestState, NaiveStdForest, RcForest, StdAgg,
    UnionFind, Vertex,
};
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every degree-≤3 forest on `n` labelled vertices, as sorted `u < v`
/// edge lists: the edge subsets of every degree-≤3 tree. Every such
/// forest is one, since joining two components at vertices of degree at
/// most 1 keeps every degree at most 3.
fn degree3_forests(n: usize) -> Vec<Vec<(Vertex, Vertex)>> {
    let mut forests: HashSet<Vec<(Vertex, Vertex)>> = HashSet::new();
    for tree in degree3_trees(n) {
        for mask in 0u32..1 << tree.len() {
            let mut f: Vec<(Vertex, Vertex)> = tree
                .iter()
                .enumerate()
                .filter(|&(i, _)| mask >> i & 1 == 1)
                .map(|(_, &(a, b))| (a.min(b), a.max(b)))
                .collect();
            f.sort_unstable();
            forests.insert(f);
        }
    }
    let mut forests: Vec<_> = forests.into_iter().collect();
    forests.sort_unstable();
    forests
}

/// Weight of a linked edge: differs from every [`state_of`] weight, so a
/// re-linked edge changes the aggregates.
fn link_weight(u: Vertex, v: Vertex) -> u64 {
    100 + common::pair_weight(u, v)
}

/// One forest and its naive twin, with the state both hold.
struct Case {
    rc: RcForest<StdAgg>,
    naive: NaiveStdForest,
    state: ForestState,
    name: String,
}

impl Case {
    fn new(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let state = state_of(n, edges);
        let rc = state.build_std_forest(BuildOptions::default()).unwrap();
        let mut naive = NaiveStdForest::with_max_degree(n, Some(3));
        naive.import_state(&state).unwrap();
        assert_eq!(rc.export_state(), state);
        Case {
            rc,
            naive,
            state,
            name: format!("n={n} edges={edges:?}"),
        }
    }

    /// Apply `ops` to a copy of the naive forest one at a time, stopping at
    /// the first error; returns the copy and the outcome.
    fn naive_after(
        &self,
        ops: impl FnOnce(&mut NaiveStdForest) -> Result<(), ForestError>,
    ) -> (NaiveStdForest, Result<(), ForestError>) {
        let mut naive = self.naive.clone();
        let got = ops(&mut naive);
        (naive, got)
    }

    /// Run `update` on the RC forest and hold it to `want`, the naive
    /// forest's outcome, and to `naive`, its state afterwards. A call the
    /// naive forest rejects must change nothing, so it runs on the case's
    /// own forest; an accepted one runs on a copy.
    fn check(
        &mut self,
        what: &str,
        want: Result<(), ForestError>,
        naive: &NaiveStdForest,
        update: impl FnOnce(&mut RcForest<StdAgg>) -> Result<(), ForestError>,
    ) {
        let ctx = format!("{what} on {}", self.name);
        if want.is_err() {
            assert_eq!(update(&mut self.rc), want, "{ctx}");
            assert_eq!(
                self.rc.export_state(),
                self.state,
                "{ctx}: rejected call changed the state"
            );
            return;
        }
        let mut rc = self.rc.clone();
        assert_eq!(update(&mut rc), want, "{ctx}");
        assert_sound(&rc, &ctx);
        assert_eq!(rc.export_state(), naive.export_state(), "{ctx}");
    }
}

/// `rc` validates and equals a fresh rebuild of its edge set.
fn assert_sound(rc: &RcForest<StdAgg>, ctx: &str) {
    rc.validate().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    if catch_unwind(AssertUnwindSafe(|| rc.assert_matches_fresh_rebuild())).is_err() {
        panic!("{ctx}: repaired forest differs from a fresh rebuild");
    }
}

/// `"{what} {error variant}"` for a rejected call, `"{what} Ok"` otherwise.
fn outcome(what: &str, got: &Result<(), ForestError>) -> String {
    match got {
        Ok(()) => format!("{what} Ok"),
        Err(e) => {
            let debug = format!("{e:?}");
            format!("{what} {}", debug.split(' ').next().unwrap_or_default())
        }
    }
}

#[test]
fn every_small_forest_takes_every_update() {
    let mut forests = 0usize;
    let mut seen: HashSet<String> = HashSet::new();
    for n in 1..=6usize {
        // Ids 0..=n: `n` is out of range.
        let ids = 0..=n as Vertex;
        for edges in degree3_forests(n) {
            let mut case = Case::new(n, &edges);
            forests += 1;
            // Every rejected call is tried in both orientations; an
            // accepted one only as `(u, v)` with `u < v`, since `(v, u)`
            // is the same update.
            let mut cuts = Vec::new();
            for u in ids.clone() {
                for v in ids.clone() {
                    let (naive, want) = case.naive_after(|f| f.cut(u, v));
                    seen.insert(outcome("cut", &want));
                    if want.is_ok() {
                        if u > v {
                            continue;
                        }
                        cuts.push((u, v));
                    }
                    case.check(&format!("cut ({u},{v})"), want, &naive, |f| {
                        f.batch_cut(&[(u, v)])
                    });
                }
            }
            let mut links = Vec::new();
            for u in ids.clone() {
                for v in ids.clone() {
                    let w = link_weight(u, v);
                    let (naive, want) = case.naive_after(|f| f.link(u, v, w));
                    seen.insert(outcome("link", &want));
                    if want.is_ok() {
                        if u > v {
                            continue;
                        }
                        links.push((u, v, w));
                    }
                    case.check(&format!("link ({u},{v})"), want, &naive, |f| {
                        f.batch_link(&[(u, v, w)])
                    });
                }
            }
            if n > 5 {
                continue;
            }
            for &a in &cuts {
                for &b in &cuts {
                    let (naive, want) = case.naive_after(|f| f.batch_cut(&[a, b]));
                    seen.insert(outcome("cut pair", &want));
                    case.check(&format!("cuts {a:?} {b:?}"), want, &naive, |f| {
                        f.batch_cut(&[a, b])
                    });
                }
            }
            for &a in &links {
                for &b in &links {
                    let (naive, want) = case.naive_after(|f| f.batch_link(&[a, b]));
                    seen.insert(outcome("link pair", &want));
                    case.check(&format!("links {a:?} {b:?}"), want, &naive, |f| {
                        f.batch_link(&[a, b])
                    });
                }
            }
            // One cut plus one link, the link checked against the forest
            // after the cut (re-linking the cut edge included). A link that
            // would close a cycle there is skipped: the unchecked call
            // leaves acyclicity to the caller.
            for &c in &cuts {
                for u in 0..n as Vertex {
                    for v in u + 1..n as Vertex {
                        let l = (u, v, link_weight(u, v));
                        let (naive, want) = case.naive_after(|f| {
                            f.cut(c.0, c.1)?;
                            f.link(l.0, l.1, l.2)
                        });
                        if matches!(want, Err(ForestError::WouldCreateCycle { .. })) {
                            continue;
                        }
                        seen.insert(outcome("cut+link", &want));
                        case.check(&format!("cut {c:?} + link {l:?}"), want, &naive, |f| {
                            f.batch_update_unchecked(&[l], &[c])
                        });
                    }
                }
            }
        }
    }
    // 1, 2, 7, 38, 286 and 2776 forests on 1..=6 vertices, counted by
    // brute force over edge subsets of the complete graph.
    assert_eq!(forests, 3110, "degree-≤3 forests on 1..=6 vertices");
    let mut seen: Vec<String> = seen.into_iter().collect();
    seen.sort_unstable();
    assert_eq!(
        seen,
        [
            "cut MissingEdge",
            "cut Ok",
            "cut VertexOutOfRange",
            "cut pair MissingEdge",
            "cut pair Ok",
            "cut+link DegreeOverflow",
            "cut+link DuplicateEdge",
            "cut+link Ok",
            "link DegreeOverflow",
            "link DuplicateEdge",
            "link Ok",
            "link SelfLoop",
            "link VertexOutOfRange",
            "link WouldCreateCycle",
            "link pair DegreeOverflow",
            "link pair DuplicateEdge",
            "link pair Ok",
            "link pair WouldCreateCycle",
        ],
        "outcomes covered"
    );
}

/// One round of updates: `batch_cut(cuts)` then `batch_link(links)`, or
/// one `batch_update_unchecked(links, cuts)` call.
struct Round {
    cuts: Vec<(Vertex, Vertex)>,
    links: Vec<(Vertex, Vertex, u64)>,
    unchecked: bool,
    /// The forest's state after the round.
    want: ForestState,
}

/// `checked` rounds each cutting `k` random edges and then linking up to
/// `k` random vertex pairs that keep the forest acyclic and of degree at
/// most 3, then one unchecked round that cuts and links `k / 2` each.
fn plan_rounds(state: &ForestState, checked: usize, k: usize, seed: u64) -> Vec<Round> {
    let n = state.n;
    let mut rng = SplitMix64::new(seed);
    let mut edges = state.edges.clone();
    (0..=checked)
        .map(|r| {
            let unchecked = r == checked;
            let k = if unchecked { k / 2 } else { k };
            for i in 0..k {
                let j = i + rng.next_below((edges.len() - i) as u64) as usize;
                edges.swap(i, j);
            }
            let cuts: Vec<(Vertex, Vertex)> = edges.drain(..k).map(|(u, v, _)| (u, v)).collect();
            let mut deg = vec![0u8; n];
            let mut comps = UnionFind::new(n);
            for &(u, v, _) in &edges {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                comps.union(u, v);
            }
            let mut links = Vec::with_capacity(k);
            for _ in 0..50 * k {
                if links.len() == k {
                    break;
                }
                let u = rng.next_below(n as u64) as Vertex;
                let v = rng.next_below(n as u64) as Vertex;
                if u == v || deg[u as usize] >= 3 || deg[v as usize] >= 3 || !comps.union(u, v) {
                    continue;
                }
                deg[u as usize] += 1;
                deg[v as usize] += 1;
                links.push((u, v, 1 + rng.next_below(1 << 20)));
            }
            assert!(links.len() > k / 2, "round {r}: too few links found");
            edges.extend_from_slice(&links);
            let mut want = state.clone();
            want.edges = edges.clone();
            want.canonicalize();
            Round {
                cuts,
                links,
                unchecked,
                want,
            }
        })
        .collect()
}

#[test]
fn release_scale_update_rounds_agree_across_pools() {
    const N: usize = 20_000;
    const K: usize = 4096;
    let state = random_state(N, 0x0DD_5EED);
    let rounds = plan_rounds(&state, 2, K, 0x5EED_0019);
    // Every pool's export must equal the planned state, so the 2- and
    // 4-thread runs equal the 1-thread run.
    for threads in [1, 2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut rc = state.build_std_forest(BuildOptions::default()).unwrap();
            for (i, round) in rounds.iter().enumerate() {
                let ctx = format!("{threads} threads, round {i}");
                if round.unchecked {
                    rc.batch_update_unchecked(&round.links, &round.cuts)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                } else {
                    rc.batch_cut(&round.cuts)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                    rc.batch_link(&round.links)
                        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
                assert_sound(&rc, &ctx);
                assert_eq!(rc.export_state(), round.want, "{ctx}");
            }
        });
    }
}
