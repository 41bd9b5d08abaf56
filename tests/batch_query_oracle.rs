//! Oracles for the batch query kernels (connectivity, path sums, path
//! extrema, LCA, subtree sums, nearest marked vertex, compressed path
//! trees).
//!
//! * `every_small_forest_answers_every_query` is bounded-exhaustive: every
//!   labelled tree on at most 6 vertices with maximum degree 3 (Prüfer
//!   enumeration), and every forest made by deleting one of its edges,
//!   answers one batch per family holding every `(u, v)` pair, every
//!   `(u, v, r)` triple, every `(u, p)` pair and every vertex —
//!   out-of-range ids included. Each batch must equal the naive oracle
//!   and the single-query entry points answer for answer.
//! * `release_scale_batches_match_lct` runs one `k = 4096` batch per family
//!   on a 20k-vertex forest under dedicated 2- and 4-thread pools, so the
//!   parallel marking and multi-chunk sweep rounds run, and compares every
//!   answer against the link-cut tree.

mod common;

use common::{degree3_trees, random_state, state_of};
use rcforest::parlay::rng::SplitMix64;
use rcforest::{BuildOptions, DynamicForest, LctForest, NaiveStdForest, RcForest, StdAgg, Vertex};
use std::collections::HashSet;

/// Check every family on one forest: RC batch == naive == RC single.
fn check_forest(n: usize, edges: &[(Vertex, Vertex)]) {
    let state = state_of(n, edges);
    let mut rc = state.build_std_forest(BuildOptions::default()).unwrap();
    let mut naive = NaiveStdForest::new(n);
    naive.import_state(&state).unwrap();
    let ctx = |family: &str| format!("{family} on n={n} edges={edges:?}");

    // Ids 0..=n (n is out of range) plus the all-ones id.
    let ids: Vec<Vertex> = (0..=n as Vertex).chain([u32::MAX]).collect();
    let pairs: Vec<(Vertex, Vertex)> = ids
        .iter()
        .flat_map(|&u| ids.iter().map(move |&v| (u, v)))
        .collect();
    let triples: Vec<(Vertex, Vertex, Vertex)> = pairs
        .iter()
        .flat_map(|&(u, v)| (0..=n as Vertex).map(move |r| (u, v, r)))
        .collect();

    let batch = rc.batch_connected(&pairs);
    assert_eq!(batch, naive.batch_connected(&pairs), "{}", ctx("connected"));
    let single: Vec<bool> = pairs.iter().map(|&(u, v)| rc.connected(u, v)).collect();
    assert_eq!(batch, single, "{}", ctx("connected single"));

    // Representatives agree structurally: same id iff connected.
    let reps = rc.batch_representatives(&ids);
    for (i, &u) in ids.iter().enumerate() {
        assert_eq!(
            reps[i].is_some(),
            (u as usize) < n,
            "{}",
            ctx("representative")
        );
        for (j, &v) in ids.iter().enumerate() {
            if reps[i].is_some() && reps[j].is_some() {
                assert_eq!(
                    reps[i] == reps[j],
                    naive.connected(u, v),
                    "{} ({u},{v})",
                    ctx("representative")
                );
            }
        }
    }

    let batch = rc.batch_path_sum(&pairs);
    assert_eq!(batch, naive.batch_path_sum(&pairs), "{}", ctx("path_sum"));
    let single: Vec<_> = pairs.iter().map(|&(u, v)| rc.path_sum(u, v)).collect();
    assert_eq!(batch, single, "{}", ctx("path_sum single"));

    let batch = rc.batch_path_extrema(&pairs);
    assert_eq!(
        batch,
        naive.batch_path_extrema(&pairs),
        "{}",
        ctx("path_extrema")
    );
    let single: Vec<_> = pairs.iter().map(|&(u, v)| rc.path_extrema(u, v)).collect();
    assert_eq!(batch, single, "{}", ctx("path_extrema single"));

    let batch = rc.batch_lca(&triples);
    assert_eq!(batch, naive.batch_lca(&triples), "{}", ctx("lca"));
    let single: Vec<_> = triples.iter().map(|&(u, v, r)| rc.lca(u, v, r)).collect();
    assert_eq!(batch, single, "{}", ctx("lca single"));

    // Every (u, p) pair: adjacent, non-adjacent and out-of-range.
    let batch = rc.batch_subtree_sum(&pairs);
    assert_eq!(
        batch,
        naive.batch_subtree_sum(&pairs),
        "{}",
        ctx("subtree_sum")
    );
    let single: Vec<_> = pairs.iter().map(|&(u, p)| rc.subtree_sum(u, p)).collect();
    assert_eq!(batch, single, "{}", ctx("subtree_sum single"));

    let batch = rc.batch_nearest_marked(&ids);
    assert_eq!(
        batch,
        naive.batch_nearest_marked(&ids),
        "{}",
        ctx("nearest_marked")
    );
    let single: Vec<_> = ids.iter().map(|&v| rc.nearest_marked(v)).collect();
    assert_eq!(batch, single, "{}", ctx("nearest_marked single"));

    // Compressed path trees over all vertices and over a sparse terminal
    // set (forcing Steiner vertices) keep every pairwise path aggregate.
    let sparse: Vec<Vertex> = vec![0, (n / 2) as Vertex, n as Vertex - 1, n as Vertex];
    for terms in [ids.clone(), sparse] {
        let cpt = rc.compressed_path_tree(&terms);
        let inside: Vec<Vertex> = terms
            .iter()
            .copied()
            .filter(|&t| (t as usize) < n)
            .collect();
        assert!(
            inside.iter().all(|t| cpt.vertices.contains(t)),
            "{}",
            ctx("cpt")
        );
        for &a in &inside {
            for &b in &inside {
                assert_eq!(
                    cpt.path_value(a, b),
                    naive.path_extrema(a, b),
                    "{} terminals={terms:?} ({a},{b})",
                    ctx("cpt")
                );
            }
        }
    }
}

#[test]
fn every_small_forest_answers_every_query() {
    let mut checked = 0usize;
    for n in 1..=6usize {
        let mut forests: HashSet<Vec<(Vertex, Vertex)>> = HashSet::new();
        for tree in degree3_trees(n) {
            for skip in 0..=tree.len() {
                // `skip == tree.len()` keeps the whole tree.
                let mut f: Vec<(Vertex, Vertex)> = tree
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != skip)
                    .map(|(_, &(a, b))| (a.min(b), a.max(b)))
                    .collect();
                f.sort_unstable();
                forests.insert(f);
            }
        }
        let mut forests: Vec<_> = forests.into_iter().collect();
        forests.sort_unstable();
        for edges in &forests {
            check_forest(n, edges);
        }
        checked += forests.len();
    }
    // Distinct trees and one-edge deletions over n = 1..=6.
    assert_eq!(checked, 2490, "forests enumerated");
}

#[test]
fn prufer_enumeration_counts() {
    // Cayley: n^(n-2) labelled trees; degree ≤ 3 removes the stars
    // (n = 5: 5 trees with a degree-4 vertex; n = 6: 126 with degree ≥ 4).
    assert_eq!(degree3_trees(4).len(), 16);
    assert_eq!(degree3_trees(5).len(), 125 - 5);
    assert_eq!(degree3_trees(6).len(), 1296 - 126);
    for tree in degree3_trees(6) {
        let mut deg = [0; 6];
        for &(a, b) in &tree {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        assert!(deg.iter().all(|&d| (1..=3).contains(&d)), "{tree:?}");
    }
}

#[test]
fn release_scale_batches_match_lct() {
    const N: usize = 20_000;
    const K: usize = 4096;
    let state = random_state(N, 0xBA7C_4096);
    let mut lct = LctForest::with_max_degree(N, Some(3));
    lct.import_state(&state).unwrap();

    let mut rng = SplitMix64::new(0x5EED);
    let mut vertex = || rng.next_below(N as u64) as Vertex;
    let pairs: Vec<(Vertex, Vertex)> = (0..K).map(|_| (vertex(), vertex())).collect();
    let triples: Vec<(Vertex, Vertex, Vertex)> =
        (0..K).map(|_| (vertex(), vertex(), vertex())).collect();
    let vs: Vec<Vertex> = (0..K).map(|_| vertex()).collect();
    // Mostly adjacent (u, p) pairs; every eighth is an arbitrary pair.
    let subtrees: Vec<(Vertex, Vertex)> = (0..K)
        .map(|i| {
            let (a, b, _) = state.edges[(i * 7919) % state.edges.len()];
            match i % 8 {
                0 => pairs[i],
                1..=3 => (b, a),
                _ => (a, b),
            }
        })
        .collect();

    let want_conn = lct.batch_connected(&pairs);
    let want_sum = lct.batch_path_sum(&pairs);
    let want_ext = lct.batch_path_extrema(&pairs);
    let want_lca = lct.batch_lca(&triples);
    let want_sub = lct.batch_subtree_sum(&subtrees);
    let want_near = lct.batch_nearest_marked(&vs);
    assert!(want_sub.iter().filter(|a| a.is_some()).count() > K / 2);
    assert!(want_lca.iter().filter(|a| a.is_some()).count() > K / 4);

    for threads in [2, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        pool.install(|| {
            let mut rc: RcForest<StdAgg> = state.build_std_forest(BuildOptions::default()).unwrap();
            assert_eq!(rc.batch_connected(&pairs), want_conn, "{threads} threads");
            assert_eq!(rc.batch_path_sum(&pairs), want_sum, "{threads} threads");
            assert_eq!(rc.batch_path_extrema(&pairs), want_ext, "{threads} threads");
            assert_eq!(rc.batch_lca(&triples), want_lca, "{threads} threads");
            assert_eq!(
                rc.batch_subtree_sum(&subtrees),
                want_sub,
                "{threads} threads"
            );
            assert_eq!(rc.batch_nearest_marked(&vs), want_near, "{threads} threads");
            let reps = rc.batch_representatives(&vs);
            for i in 0..K.min(512) {
                for j in 0..8 {
                    let (a, b) = (i, (i * 31 + j * 977) % K);
                    assert_eq!(
                        reps[a] == reps[b],
                        lct.connected(vs[a], vs[b]),
                        "{threads} threads: representatives of {} and {}",
                        vs[a],
                        vs[b]
                    );
                }
            }
        });
    }
}
