//! Figure 9b — speedup vs thread count on the persistent pool (the
//! paper's fig. 9).
//!
//! Sweeps **threads × {build, updates, each query family}** on the RC
//! forest and the ternary forest, over the workload `fig11b_backends`
//! sweeps k on, plus three `parlay` rows timing the rc-parlay primitives
//! the forest runs on: pack (the build's live set), counting sort (the
//! deterministic MIS) and the shuffle (rc-gen's relabelling).
//!
//! Per (backend, family, threads) cell the JSON records the median and
//! quartiles of cache-cold calls and the speedup of the median against
//! the 1-thread cell. `machine_parallelism` is recorded too: on hosts
//! with fewer cores than the sweep's thread counts the pool is
//! oversubscribed and speedups flatten at the hardware limit — the field
//! is what makes those numbers interpretable.
//!
//! Output: `BENCH_speedup.json` (override with `RC_SPEEDUP_OUT`); scale
//! via `RC_BENCH_SCALE` (`tiny` for the CI smoke).

use rc_bench::{
    machine_parallelism, ms, scale, speedup_thread_counts, with_threads, Table, Timer, Timing,
    Workload,
};
use rc_core::{BuildOptions, DynamicForest, RcForest, StdAgg};
use rc_parlay::rng::SplitMix64;
use rc_ternary::TernaryStdForest;
use std::fmt::Write as _;

const FOREST_FAMILIES: [&str; 6] = [
    "build",
    "updates",
    "connected",
    "path_sum",
    "lca",
    "subtree_sum",
];

const PARLAY_FAMILIES: [&str; 3] = [
    "pack_index_1M",
    "counting_sort_200k_64",
    "random_permutation_1M",
];

struct Sample {
    backend: &'static str,
    family: &'static str,
    threads: usize,
    t: Timing,
}

/// Time every forest family at `threads` threads on one backend; `build`
/// constructs a fresh forest from the workload's edges (timed as the
/// "build" family, each forest dropped outside the timed call).
fn run_backend<B: DynamicForest>(
    w: &Workload,
    timer: &mut Timer,
    threads: usize,
    build: impl Fn() -> B + Sync + Send,
) -> Vec<Timing> {
    with_threads(threads, || {
        let mut out = vec![timer.time(1, |_| build())[0]];
        let mut f = build();
        // Updates: cut a batch of forest edges, then relink them (the
        // forest is restored, so the query families below see the same
        // structure).
        let cuts: Vec<(u32, u32)> = w.updates.iter().map(|&(u, v, _)| (u, v)).collect();
        out.push(
            timer.time(1, |_| {
                f.batch_cut(&cuts).expect("cut forest edges");
                f.batch_link(&w.updates).expect("relink them");
            })[0],
        );
        out.push(timer.time(1, |_| f.batch_connected(&w.pairs))[0]);
        out.push(timer.time(1, |_| f.batch_path_sum(&w.pairs))[0]);
        out.push(timer.time(1, |_| f.batch_lca(&w.triples))[0]);
        out.push(timer.time(1, |_| f.batch_subtree_sum(&w.subtrees))[0]);
        out
    })
}

/// Time the rc-parlay primitives at `threads` threads.
fn run_parlay(keys: &[(u32, u32)], timer: &mut Timer, threads: usize) -> Vec<Timing> {
    with_threads(threads, || {
        vec![
            timer.time(1, |_| {
                rc_parlay::pack::pack_index(1_000_000, |i| i % 3 == 0)
            })[0],
            timer.time(1, |_| {
                rc_parlay::sort::counting_sort_by(keys, 64, |&(k, _)| k as usize)
            })[0],
            timer.time(1, |_| rc_parlay::shuffle::random_permutation(1_000_000, 7))[0],
        ]
    })
}

fn main() {
    let k = match scale() {
        "large" => 100_000,
        "tiny" => 1_000,
        _ => 10_000,
    };
    let threads = speedup_thread_counts();
    let machine = machine_parallelism();
    let w = Workload::generate(k);
    let n = w.state.n;
    println!(
        "# Figure 9b — speedup vs threads (n = {n}, k = {k}, machine parallelism = {machine})"
    );
    let mut rng = SplitMix64::new(1);
    let keys: Vec<(u32, u32)> = (0..200_000u32)
        .map(|i| (rng.next_below(64) as u32, i))
        .collect();
    let build_rc = || {
        RcForest::<StdAgg>::build_edges(n, &w.state.edges, BuildOptions::default())
            .expect("valid workload forest")
    };
    let build_ternary = || {
        let mut f = TernaryStdForest::new_std(n);
        DynamicForest::batch_link(&mut f, &w.state.edges).expect("valid workload forest");
        f
    };
    // Untimed warmup: the first-ever build in the process pays the
    // allocator's page faults, which would otherwise be billed to the
    // 1-thread cells and fake a "speedup" at higher thread counts.
    drop((build_rc(), build_ternary()));

    let mut timer = Timer::default();
    let mut samples: Vec<Sample> = Vec::new();
    for backend in ["rc", "ternary", "parlay"] {
        let (families, title): (&[&'static str], _) = if backend == "parlay" {
            (&PARLAY_FAMILIES, backend.to_string())
        } else {
            (&FOREST_FAMILIES, format!("{backend} (n = {n}, k = {k})"))
        };
        let mut cols = vec!["threads".to_string()];
        cols.extend(families.iter().map(|f| format!("{f} ms")));
        let cols: Vec<&str> = cols.iter().map(String::as_str).collect();
        let t = Table::new(&title, &cols);
        for &threads in &threads {
            let ts = match backend {
                "rc" => run_backend(&w, &mut timer, threads, build_rc),
                "ternary" => run_backend(&w, &mut timer, threads, build_ternary),
                _ => run_parlay(&keys, &mut timer, threads),
            };
            let mut row = vec![threads.to_string()];
            for (&family, t) in families.iter().zip(ts) {
                row.push(ms(t.median));
                samples.push(Sample {
                    backend,
                    family,
                    threads,
                    t,
                });
            }
            t.row(&row);
        }
    }

    // ---- BENCH_speedup.json ----
    let base = |backend: &str, family: &str| {
        samples
            .iter()
            .find(|s| s.backend == backend && s.family == family && s.threads == 1)
            .map_or(0.0, |s| s.t.median.as_secs_f64())
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig9b_speedup\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"k\": {k},");
    let _ = writeln!(json, "  \"machine_parallelism\": {machine},");
    let _ = writeln!(
        json,
        "  \"threads\": [{}],",
        threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"series\": [");
    for (i, s) in samples.iter().enumerate() {
        let comma = if i + 1 == samples.len() { "" } else { "," };
        let speedup = base(s.backend, s.family) / s.t.median.as_secs_f64().max(1e-12);
        let _ = writeln!(
            json,
            "    {{\"backend\": \"{}\", \"family\": \"{}\", \"threads\": {}, {}, \
             \"speedup_vs_1t\": {:.3}}}{comma}",
            s.backend,
            s.family,
            s.threads,
            s.t.json_fields(),
            speedup,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let out = std::env::var("RC_SPEEDUP_OUT").unwrap_or_else(|_| "BENCH_speedup.json".into());
    std::fs::write(&out, json).expect("write BENCH_speedup.json");
    println!("\nwrote {out}");
}
