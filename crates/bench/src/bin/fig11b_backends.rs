//! Figure 11b — the batch-size sweep (the paper's figs. 7, 8 and 11),
//! and the measurement behind the serve tier's `BATCH_MIN_K` table.
//!
//! The paper frames its headline claim around this experiment: answering
//! k queries with one `O(k log(1 + n/k))` marked sweep beats k
//! independent `O(log n)` operations once k is large enough. Per family
//! and k, three series:
//!
//! * `rc_batched` — one batch call on the RC forest;
//! * `rc_independent` — the serve tier's independent engine: the same
//!   single-query calls under `parallel_for`, which runs them inline
//!   below `SEQ_THRESHOLD` queries (for updates: k single cuts, then k
//!   single links);
//! * `lct_sequential` — k single operations on the splay link-cut tree,
//!   for every family but near, which LCT answers by a marked-set scan.
//!
//! Before timing a (family, k) cell it checks that both RC engines give
//! identical answers, and that RC and LCT agree on every family whose
//! answers are backend-independent (all but repr, whose representative
//! ids differ by design); a mismatch exits non-zero. The updates family
//! cuts k distinct forest edges and relinks them, so every family runs
//! on the same forest, which is checked once the updates are done.
//!
//! Writes `BENCH_crossover.json` (override with `RC_CROSSOVER_OUT`);
//! scale via `RC_BENCH_SCALE` (`tiny` for the CI smoke).

use rc_bench::{machine_parallelism, ms, scale, Table, Timer, Timing, Workload, ZIPF};
use rc_core::{BuildOptions, DynamicForest, NO_VERTEX};
use rc_lct::LctForest;
use rc_parlay::parallel_for;
use rc_parlay::slice::ParSlice;
use std::fmt::Write as _;

const SERIES: [&str; 3] = ["rc_batched", "rc_independent", "lct_sequential"];

struct Cell {
    family: &'static str,
    series: &'static str,
    k: usize,
    t: Timing,
}

/// The serve tier's independent engine (`exec::run_family`): one single
/// call per query under `parallel_for`, answers in query order.
fn independent<A: Sync, R: Send + Sync>(args: &[A], single: &(impl Fn(&A) -> R + Sync)) -> Vec<R> {
    let mut out: Vec<Option<R>> = (0..args.len()).map(|_| None).collect();
    let po = ParSlice::new(&mut out);
    // SAFETY: `parallel_for` hands each index in `0..args.len()` to
    // exactly one call, so every slot of `out` is written once and never
    // read until the loop has returned.
    parallel_for(args.len(), |j| unsafe {
        po.write(j, Some(single(&args[j])));
    });
    out.into_iter()
        .map(|r| r.expect("independent slot filled"))
        .collect()
}

/// k single cuts, then k single links.
fn singles(f: &mut impl DynamicForest, cuts: &[(u32, u32)], links: &[(u32, u32, u64)]) {
    for &(u, v) in cuts {
        f.cut(u, v).expect("cut a forest edge");
    }
    for &(u, v, w) in links {
        f.link(u, v, w).expect("relink it");
    }
}

/// Exit non-zero unless `ok`.
fn check(family: &str, k: usize, what: &str, ok: bool) {
    if !ok {
        eprintln!("fig11b: {family} at k = {k}: {what} differ");
        std::process::exit(1);
    }
}

struct Sweep {
    ks: Vec<usize>,
    timer: Timer,
    cells: Vec<Cell>,
}

impl Sweep {
    /// Time `series` of one family at every k and print its table;
    /// `run(s, k)` makes one call of series `s` on the first k inputs.
    fn family<T>(
        &mut self,
        family: &'static str,
        series: &[&'static str],
        mut run: impl FnMut(usize, usize) -> T,
    ) {
        let t = Table::new(
            family,
            &[
                "k",
                "rc batched ms",
                "rc independent ms",
                "lct ms",
                "batched/independent",
            ],
        );
        for &k in &self.ks {
            let timings = self.timer.time(series.len(), |s| run(s, k));
            let mut row = vec![k.to_string()];
            row.extend(timings.iter().map(|t| ms(t.median)));
            row.resize(SERIES.len() + 1, "-".into());
            let ratio = timings[0].median.as_secs_f64() / timings[1].median.as_secs_f64();
            row.push(format!("{ratio:.2}"));
            t.row(&row);
            for (&series, t) in series.iter().zip(timings) {
                self.cells.push(Cell {
                    family,
                    series,
                    k,
                    t,
                });
            }
        }
    }

    /// A query family: check the answers at every k, then time them.
    /// `lct` is `None` for near; `lct_checked` is false for repr.
    fn queries<A: Sync, R: PartialEq + Send + Sync>(
        &mut self,
        family: &'static str,
        args: &[A],
        batch: impl Fn(&[A]) -> Vec<R>,
        single: impl Fn(&A) -> R + Sync,
        mut lct: Option<&mut dyn FnMut(&A) -> R>,
        lct_checked: bool,
    ) {
        for &k in &self.ks {
            let q = &args[..k];
            let batched = batch(q);
            check(
                family,
                k,
                "rc_batched and rc_independent answers",
                batched == independent(q, &single),
            );
            if let (Some(lct), true) = (lct.as_mut(), lct_checked) {
                let seq: Vec<R> = q.iter().map(lct).collect();
                check(family, k, "RC and LCT answers", batched == seq);
            }
        }
        let series = if lct.is_some() {
            &SERIES[..]
        } else {
            &SERIES[..2]
        };
        self.family(family, series, |s, k| {
            let q = &args[..k];
            match s {
                0 => batch(q),
                1 => independent(q, &single),
                _ => {
                    let lct = lct.as_mut().expect("series 2 is lct");
                    q.iter().map(lct).collect()
                }
            }
        });
    }
}

fn main() {
    let all = [1, 16, 64, 256, 1_024, 4_096, 16_384, 32_768, 65_536];
    let ks = match scale() {
        "tiny" => all[..6].to_vec(),
        _ => all.to_vec(),
    };
    let w = Workload::generate(*ks.last().unwrap());
    let n = w.state.n;
    let threads = rayon::current_num_threads();
    let machine = machine_parallelism();
    println!(
        "# Figure 11b — RC batched vs RC independent vs LCT sequential \
         (n = {n}, {} marked, {threads} pool threads, machine parallelism {machine})",
        w.state.marks.len()
    );

    let mut rc = w
        .state
        .build_std_forest(BuildOptions::default())
        .expect("generated forest is valid");
    let mut lct = LctForest::with_max_degree(n, Some(3));
    lct.import_state(&w.state)
        .expect("generated forest is valid");
    let mut sweep = Sweep {
        ks,
        timer: Timer::default(),
        cells: Vec::new(),
    };

    // Updates: cut k distinct forest edges, then relink them, which
    // restores the forest for the query families.
    let links = &w.updates;
    let cuts: Vec<(u32, u32)> = links.iter().map(|&(u, v, _)| (u, v)).collect();
    sweep.family("updates", &SERIES, |s, k| {
        let (cuts, links) = (&cuts[..k], &links[..k]);
        match s {
            0 => {
                rc.batch_cut(cuts).expect("cut forest edges");
                rc.batch_link(links).expect("relink them");
            }
            1 => singles(&mut rc, cuts, links),
            _ => singles(&mut lct, cuts, links),
        }
    });
    check(
        "updates",
        *sweep.ks.last().unwrap(),
        "the relinked forests and the workload's",
        rc.export_state() == w.state && lct.export_state() == w.state,
    );

    // The query families, in `BATCH_MIN_K` order, each through the calls
    // the serve tier's `exec` makes.
    let rc = &rc;
    sweep.queries(
        "conn",
        &w.pairs,
        |q| rc.batch_connected(q),
        |&(u, v)| rc.connected(u, v),
        Some(&mut |&(u, v)| lct.connected(u, v)),
        true,
    );
    sweep.queries(
        "repr",
        &w.vertices,
        |q| {
            rc.batch_find_representatives(q)
                .into_iter()
                .map(|r| (r != NO_VERTEX).then_some(r))
                .collect()
        },
        |&v| rc.in_range(v).then(|| rc.find_representative(v)),
        Some(&mut |&v| lct.representative(v)),
        false,
    );
    sweep.queries(
        "path",
        &w.pairs,
        |q| {
            rc.batch_path_aggregate(q)
                .into_iter()
                .map(|p| p.map(|p| p.sum))
                .collect()
        },
        |&(u, v)| rc.path_aggregate(u, v).map(|p| p.sum),
        Some(&mut |&(u, v)| lct.path_sum(u, v)),
        true,
    );
    sweep.queries(
        "subtree",
        &w.subtrees,
        |q| rc.batch_subtree_aggregate(q),
        |&(v, p)| rc.subtree_aggregate(v, p),
        Some(&mut |&(v, p)| lct.subtree_sum(v, p)),
        true,
    );
    sweep.queries(
        "lca",
        &w.triples,
        |q| rc.batch_lca(q),
        |&(u, v, r)| rc.lca(u, v, r),
        Some(&mut |&(u, v, r)| lct.lca(u, v, r)),
        true,
    );
    sweep.queries(
        "bottleneck",
        &w.pairs,
        |q| rc.batch_path_extrema(q),
        |&(u, v)| rc.path_aggregate(u, v),
        Some(&mut |&(u, v)| lct.path_extrema(u, v)),
        true,
    );
    sweep.queries(
        "near",
        &w.vertices,
        |q| rc.batch_nearest_marked(q),
        |&v| rc.nearest_marked(v),
        None,
        false,
    );

    // ---- BENCH_crossover.json ----
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig11b_backends\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"marked\": {},", w.state.marks.len());
    let _ = writeln!(json, "  \"zipf_exponent\": {ZIPF},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"machine_parallelism\": {machine},");
    let _ = writeln!(json, "  \"series\": [");
    for (i, c) in sweep.cells.iter().enumerate() {
        let comma = if i + 1 == sweep.cells.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"family\": \"{}\", \"backend\": \"{}\", \"k\": {}, {}}}{comma}",
            c.family,
            c.series,
            c.k,
            c.t.json_fields(),
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");
    let out = std::env::var("RC_CROSSOVER_OUT").unwrap_or_else(|_| "BENCH_crossover.json".into());
    std::fs::write(&out, json).expect("write BENCH_crossover.json");
    println!("\nwrote {out}");
}
