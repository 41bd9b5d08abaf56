//! Differential oracle across [`DynamicForest`] backends.
//!
//! Every pair of backends is driven through the same seeded request
//! stream — structural churn, weight/mark updates, deliberately invalid
//! ops, and all query families — and must agree on *every* response,
//! including exact [`rcforest::ForestError`] outcomes. The headline test
//! is `lct_vs_rc_100k`: the sequential link-cut baseline against the
//! batch-parallel RC forest over ≥ 100k ops (the full count runs in
//! release; debug builds run a reduced stream so `cargo test` stays
//! quick — CI runs the release version explicitly).

use rcforest::{
    assert_backends_agree, DynamicForest, ForestGenConfig, LctForest, NaiveStdForest, OpMix,
    RcForest, RequestStreamConfig, StdAgg, TernaryStdForest,
};

fn stream_cfg(n: usize, seed: u64, max_weight: u64) -> RequestStreamConfig {
    RequestStreamConfig {
        forest: ForestGenConfig {
            n,
            seed,
            max_weight,
            ..Default::default()
        },
        mix: OpMix::balanced(),
        // Exercise the error paths: out-of-range ids, missing edges,
        // duplicate links, degree overflows, cycles.
        invalid_frac: 0.08,
        ..Default::default()
    }
}

/// Acceptance test: LCT vs RC agree on every response over >= 100k ops.
#[test]
fn lct_vs_rc_100k() {
    let (n, ops) = if cfg!(debug_assertions) {
        (1_200, 12_000)
    } else {
        (2_000, 100_000)
    };
    let mut rc = RcForest::<StdAgg>::new(n);
    let mut lct = LctForest::with_max_degree(n, Some(3));
    let report = assert_backends_agree(&mut rc, &mut lct, stream_cfg(n, 0xD1F_001, 64), ops);
    assert_eq!(report.ops, ops);
    assert!(report.rejected > 0, "error paths must be exercised");
    assert!(report.updates > ops / 10 && report.queries > ops / 3);
}

/// Ground truth: LCT vs the naive oracle.
#[test]
fn lct_vs_naive() {
    let n = 700;
    let ops = if cfg!(debug_assertions) {
        6_000
    } else {
        25_000
    };
    let mut lct = LctForest::with_max_degree(n, Some(3));
    let mut naive = NaiveStdForest::with_max_degree(n, Some(3));
    let report = assert_backends_agree(&mut lct, &mut naive, stream_cfg(n, 0xD1F_002, 64), ops);
    assert!(report.rejected > 0);
}

/// Ternarized RC vs LCT, both uncapped. Weights are drawn from a large
/// space: the ternary backend tie-breaks extreme-edge witnesses on inner
/// (dummy) ids before mapping them back, so equal-weight edges could
/// legitimately surface different witnesses.
#[test]
fn ternary_vs_lct_uncapped() {
    let n = 500;
    let ops = if cfg!(debug_assertions) {
        4_000
    } else {
        20_000
    };
    let mut tern = TernaryStdForest::new_std(n);
    let mut lct = LctForest::new(n);
    let report = assert_backends_agree(&mut tern, &mut lct, stream_cfg(n, 0xD1F_003, 1 << 40), ops);
    assert!(report.rejected > 0);
}

/// Ternarized RC vs the uncapped naive oracle under churn of fresh
/// edges: each pair cuts a random edge and links a random pair across
/// the two components it leaves, so almost every edge key the ternary
/// edge map sees is new, and over the run it sees many times more keys
/// than the forest has edges at once.
#[test]
fn ternary_vs_naive_fresh_edge_churn() {
    use rcforest::parlay::rng::SplitMix64;
    let n = 256;
    let pairs = if cfg!(debug_assertions) {
        4_000
    } else {
        20_000
    };
    let mut rng = SplitMix64::new(0xD1F_005);
    let mut tern = TernaryStdForest::new_std(n);
    let mut naive = NaiveStdForest::new(n);
    let mut edges: Vec<(u32, u32)> = (1..n as u32)
        .map(|v| (rng.next_below(v as u64) as u32, v))
        .collect();
    let initial: Vec<(u32, u32, u64)> = edges.iter().map(|&(u, v)| (u, v, 1)).collect();
    assert_eq!(
        DynamicForest::batch_link(&mut tern, &initial),
        naive.batch_link(&initial)
    );
    for pair in 0..pairs {
        let i = rng.next_below(edges.len() as u64) as usize;
        let (u, v) = edges[i];
        assert_eq!(
            DynamicForest::batch_cut(&mut tern, &[(u, v)]),
            naive.batch_cut(&[(u, v)]),
            "pair {pair}: cut {u},{v}"
        );
        let (side_u, side_v) = (naive.forest().component(u), naive.forest().component(v));
        let x = side_u[rng.next_below(side_u.len() as u64) as usize];
        let y = side_v[rng.next_below(side_v.len() as u64) as usize];
        let w = 1 + rng.next_below(1 << 40);
        assert_eq!(
            DynamicForest::batch_link(&mut tern, &[(x, y, w)]),
            naive.batch_link(&[(x, y, w)]),
            "pair {pair}: link {x},{y}"
        );
        for (a, b) in [(u, v), (x, y)] {
            assert_eq!(
                tern.has_edge(a, b),
                naive.forest().edge_weight(a, b).is_some(),
                "pair {pair}: has_edge {a},{b}"
            );
        }
        edges[i] = (x, y);
        if pair % 1_000 == 999 {
            assert_eq!(tern.export_state(), naive.export_state(), "pair {pair}");
        }
    }
}

/// RC vs naive under an update-heavy mix (structural churn dominates).
#[test]
fn rc_vs_naive_update_heavy() {
    let n = 600;
    let ops = if cfg!(debug_assertions) {
        5_000
    } else {
        20_000
    };
    let mut rc = RcForest::<StdAgg>::new(n);
    let mut naive = NaiveStdForest::with_max_degree(n, Some(3));
    let cfg = RequestStreamConfig {
        mix: OpMix::update_heavy(),
        ..stream_cfg(n, 0xD1F_004, 64)
    };
    let report = assert_backends_agree(&mut rc, &mut naive, cfg, ops);
    assert!(report.updates > report.queries / 2);
}

/// Degree-overflow parity: capped backends reject the same link with the
/// same error while an uncapped pair accepts it.
#[test]
fn degree_cap_parity() {
    let mut rc = RcForest::<StdAgg>::new(8);
    let mut lct3 = LctForest::with_max_degree(8, Some(3));
    let mut lct = LctForest::new(8);
    for f in [&mut lct3 as &mut dyn DynamicForest, &mut lct, &mut rc] {
        for v in 1..=3 {
            f.link(0, v, 1).unwrap();
        }
    }
    assert_eq!(
        DynamicForest::link(&mut rc, 0, 4, 1),
        DynamicForest::link(&mut lct3, 0, 4, 1),
    );
    assert!(DynamicForest::link(&mut lct, 0, 4, 1).is_ok());
}

/// Executor stress: the pool must never change an answer. The LCT-vs-RC
/// differential stream re-runs under dedicated 2- and 4-thread pools —
/// every batch entry point in the RC forest then executes with real
/// worker threads claiming chunks concurrently (on a 1-core host the pool
/// is oversubscribed, which still exercises cross-thread handoff and the
/// engine's atomic ancestor claims).
#[test]
fn lct_vs_rc_under_multithreaded_pools() {
    for threads in [2usize, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("dedicated pool");
        let (n, ops) = if cfg!(debug_assertions) {
            (800, 6_000)
        } else {
            (2_000, 40_000)
        };
        let report = pool.install(|| {
            let mut rc = RcForest::<StdAgg>::new(n);
            let mut lct = LctForest::with_max_degree(n, Some(3));
            assert_backends_agree(
                &mut rc,
                &mut lct,
                stream_cfg(n, 0xD1F_9B0 + threads as u64, 64),
                ops,
            )
        });
        assert_eq!(report.ops, ops, "threads = {threads}");
        assert!(report.queries > ops / 3, "threads = {threads}");
    }
}

/// Same stress against the ground-truth naive oracle at 4 threads, with a
/// larger weight space so aggregate paths (extrema witnesses, subtree
/// sums) see non-trivial values.
#[test]
fn rc_vs_naive_under_multithreaded_pool() {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(4)
        .build()
        .expect("dedicated pool");
    let (n, ops) = if cfg!(debug_assertions) {
        (500, 4_000)
    } else {
        (900, 25_000)
    };
    let report = pool.install(|| {
        let mut rc = RcForest::<StdAgg>::new(n);
        let mut naive = NaiveStdForest::with_max_degree(n, Some(3));
        assert_backends_agree(&mut rc, &mut naive, stream_cfg(n, 0xD1F_9B4, 100_000), ops)
    });
    assert_eq!(report.ops, ops);
    assert!(report.rejected > 0, "error paths exercised under the pool");
}

/// State export round-trips on every backend: drive a backend through a
/// seeded stream, `export_state`, load the export into a fresh instance
/// of the same backend, and demand (a) the re-export is identical and
/// (b) both answer a probe battery across the query families alike.
/// Exports are canonical, so (a) is plain `==`.
#[test]
fn export_state_round_trips_on_every_backend() {
    use rcforest::{apply_op, RequestStream};

    fn churn<B: DynamicForest>(f: &mut B, n: usize, seed: u64) {
        let mut stream = RequestStream::new(stream_cfg(n, seed, 1 << 20));
        f.batch_link(&stream.initial_edges())
            .expect("initial build");
        for op in stream.ops(1_500) {
            apply_op(f, &op);
        }
    }

    fn probe<A: DynamicForest, B: DynamicForest>(a: &mut A, b: &mut B, n: u32) {
        for i in 0..64u32 {
            let (u, v, r) = (i * 7 % n, (i * 13 + 1) % n, (i * 29 + 3) % n);
            assert_eq!(a.connected(u, v), b.connected(u, v), "connected {u},{v}");
            assert_eq!(a.path_sum(u, v), b.path_sum(u, v), "path_sum {u},{v}");
            assert_eq!(
                a.path_extrema(u, v),
                b.path_extrema(u, v),
                "extrema {u},{v}"
            );
            assert_eq!(a.lca(u, v, r), b.lca(u, v, r), "lca {u},{v},{r}");
            assert_eq!(a.subtree_sum(u, v), b.subtree_sum(u, v), "subtree {u},{v}");
            assert_eq!(a.nearest_marked(u), b.nearest_marked(u), "near {u}");
        }
    }

    fn round_trip<B: DynamicForest>(original: &mut B, fresh: &mut B, n: usize) {
        let state = original.export_state();
        state.validate().expect("canonical export");
        fresh.import_state(&state).expect("import of valid state");
        assert_eq!(
            fresh.export_state(),
            state,
            "{}: import → export not identity",
            original.backend_name()
        );
        probe(original, fresh, n as u32);
    }

    let n = 300;
    let seed = 0x57A7E;

    let mut rc = RcForest::<StdAgg>::new(n);
    churn(&mut rc, n, seed);
    round_trip(&mut rc, &mut RcForest::<StdAgg>::new(n), n);

    let mut nv = NaiveStdForest::with_max_degree(n, Some(3));
    churn(&mut nv, n, seed);
    round_trip(&mut nv, &mut NaiveStdForest::with_max_degree(n, Some(3)), n);

    let mut lct = LctForest::with_max_degree(n, Some(3));
    churn(&mut lct, n, seed);
    round_trip(&mut lct, &mut LctForest::with_max_degree(n, Some(3)), n);

    let mut tern = TernaryStdForest::new_std(n);
    churn(&mut tern, n, seed);
    round_trip(&mut tern, &mut TernaryStdForest::new_std(n), n);

    // The same stream produced the same logical state everywhere except
    // the uncapped ternary backend (it accepts degree-overflow links the
    // capped ones reject) — canonical exports make that comparable too.
    assert_eq!(rc.export_state(), nv.export_state(), "rc vs naive state");
    assert_eq!(rc.export_state(), lct.export_state(), "rc vs lct state");

    // And a cross-backend restore: an RC export imports into a fresh LCT
    // (caps are compatible: RC states are degree-≤3 by construction).
    let mut lct2 = LctForest::with_max_degree(n, Some(3));
    lct2.import_state(&rc.export_state()).expect("cross import");
    assert_eq!(lct2.export_state(), rc.export_state());

    // ForestState::build_std_forest is the snapshot-restore path.
    let rebuilt = rc
        .export_state()
        .build_std_forest(rcforest::BuildOptions::default())
        .expect("state is a valid forest");
    assert_eq!(DynamicForest::export_state(&rebuilt), rc.export_state());
}
