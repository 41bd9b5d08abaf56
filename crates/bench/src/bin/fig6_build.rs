//! Figure 6: static RC-tree construction.
//!
//! Series: build time vs n for the four forest configurations; randomized
//! IS vs deterministic chain-coloring MIS; and the depth-insensitivity
//! observation ("the depth of the tree does not affect the generation
//! time"). `fig9b_speedup` sweeps build time across thread counts.

use rc_bench::*;
use rc_core::{BuildOptions, ContractionMode, RcForest, SumAgg};
use rc_gen::{paper_configs, GeneratedForest};
use rc_ternary::TernaryForest;

/// Time a ternarized build of `edges`.
fn build_once(n: usize, edges: &[(u32, u32, u64)]) -> std::time::Duration {
    let e64: Vec<(u32, u32, i64)> = edges.iter().map(|&(u, v, w)| (u, v, w as i64)).collect();
    let (_f, d) = time_once(|| {
        let mut t = TernaryForest::<SumAgg<i64>>::new(n, 0);
        t.batch_link(&e64).unwrap();
        t
    });
    d
}

fn main() {
    println!("# Figure 6 — static tree construction");
    let t = Table::new(
        "Build time vs n (ternarized pipeline, all configs)",
        &["config", "n", "edges", "build ms", "ms per 100k vertices"],
    );
    for n in build_sizes() {
        for (name, cfg) in paper_configs(n, 1) {
            let g = GeneratedForest::generate(cfg);
            let edges = g.edges();
            let d = build_once(n, &edges);
            t.row(&[
                name.into(),
                n.to_string(),
                edges.len().to_string(),
                ms(d),
                format!("{:.3}", d.as_secs_f64() * 1e3 / (n as f64 / 1e5)),
            ]);
        }
    }

    let n = fixed_n();
    let t2 = Table::new(
        "Randomized IS vs deterministic chain-coloring MIS (core forest, degree-capped chains)",
        &["mode", "n", "build ms", "levels"],
    );
    // Pure chains are degree <= 2: buildable without ternarization in both modes.
    let edges: Vec<(u32, u32, i64)> = (0..n as u32 - 1).map(|i| (i, i + 1, 1)).collect();
    for (label, mode) in [
        ("randomized", ContractionMode::Randomized),
        ("deterministic MIS", ContractionMode::Deterministic),
    ] {
        let (f, d) = time_once(|| {
            RcForest::<SumAgg<i64>>::build_edges(
                n,
                &edges,
                BuildOptions {
                    mode,
                    ..Default::default()
                },
            )
            .unwrap()
        });
        t2.row(&[
            label.into(),
            n.to_string(),
            ms(d),
            f.num_levels().to_string(),
        ]);
    }

    let t3 = Table::new(
        "Depth insensitivity (ln sweep, n fixed)",
        &["ln", "build ms"],
    );
    for lnp in [0.05, 0.5, 0.95] {
        let cfg = rc_gen::ForestGenConfig {
            n,
            ln_prob: lnp,
            seed: 3,
            ..Default::default()
        };
        let edges = GeneratedForest::generate(cfg).edges();
        let d = build_once(n, &edges);
        t3.row(&[format!("{lnp}"), ms(d)]);
    }
}
