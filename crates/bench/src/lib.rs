//! Benchmark harness regenerating the paper's evaluation (Figs 6–11)
//! plus the workspace's own experiments.
//!
//! - `fig6_build` … `fig11_crossover` print the series the paper's
//!   figures plot as a markdown/CSV table; `fig12_ternary` adds the
//!   ternarization overhead. `all_figures` runs these seven in turn.
//! - `fig9b_speedup` (thread scaling), `fig11b_backends` (RC vs link-cut
//!   crossover), `fig_persist` (durability), `repl_load` (replication)
//!   and `serve_load` (serving) write the committed `BENCH_*.json` files.
//!
//! Scale defaults target a laptop-class machine; set
//! `RC_BENCH_SCALE=tiny` for a seconds-long smoke run or `large` for
//! bigger inputs.

pub mod serve_driver;

use std::time::{Duration, Instant};

/// Median wall time of `reps` runs of `f` (re-preparing state via `setup`).
pub fn time_median<S, F: FnMut(&mut S), P: FnMut() -> S>(
    mut setup: P,
    mut f: F,
    reps: usize,
) -> Duration {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let mut s = setup();
        let t0 = Instant::now();
        f(&mut s);
        times.push(t0.elapsed());
    }
    times.sort_unstable();
    times[times.len() / 2]
}

/// Wall time of a single run.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Run `f` on a scoped rayon pool with `threads` workers.
pub fn with_threads<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool")
        .install(f)
}

/// Scale selector for the figure binaries.
pub fn scale() -> &'static str {
    match std::env::var("RC_BENCH_SCALE").as_deref() {
        Ok("large") => "large",
        Ok("tiny") => "tiny",
        _ => "default",
    }
}

/// `n` values for build-time sweeps (Fig 6).
pub fn build_sizes() -> Vec<usize> {
    match scale() {
        "large" => vec![100_000, 300_000, 1_000_000, 3_000_000],
        "tiny" => vec![5_000, 10_000],
        _ => vec![20_000, 50_000, 100_000, 200_000],
    }
}

/// Fixed `n` for update/query sweeps (Figs 7–9).
pub fn fixed_n() -> usize {
    match scale() {
        "large" => 1_000_000,
        "tiny" => 20_000,
        _ => 100_000,
    }
}

/// Batch sizes `k` for update/query sweeps.
pub fn batch_sizes() -> Vec<usize> {
    match scale() {
        "large" => vec![100, 1_000, 10_000, 100_000],
        "tiny" => vec![10, 100, 1_000],
        _ => vec![10, 100, 1_000, 10_000],
    }
}

/// Threads to sweep (the machine's cores, plus 1 for speedup baselines).
pub fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(2, |x| x.get());
    let mut out = vec![1];
    let mut t = 2;
    while t <= max {
        out.push(t);
        t *= 2;
    }
    if *out.last().unwrap() != max {
        out.push(max);
    }
    out
}

/// Threads to sweep for the `fig9b_speedup` scaling trajectory: always
/// 1, 2 and 4 (so `BENCH_speedup.json` records comparable points across
/// machines — on hosts with fewer cores the pool is oversubscribed, which
/// the file's `machine_parallelism` field makes visible), plus higher
/// powers of two and the machine size on larger hosts.
pub fn speedup_thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, |x| x.get());
    let mut out = vec![1, 2, 4];
    let mut t = 8;
    while t <= max {
        out.push(t);
        t *= 2;
    }
    if max > 4 && *out.last().unwrap() != max {
        out.push(max);
    }
    out
}

/// Markdown table printer.
pub struct Table {
    cols: Vec<String>,
}

impl Table {
    /// Start a table; prints the header immediately.
    pub fn new(title: &str, cols: &[&str]) -> Self {
        println!("\n### {title}\n");
        println!("| {} |", cols.join(" | "));
        println!(
            "|{}|",
            cols.iter().map(|_| "---").collect::<Vec<_>>().join("|")
        );
        Table {
            cols: cols.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// Print one row.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.cols.len());
        println!("| {} |", cells.join(" | "));
    }
}

/// Milliseconds with 3 digits.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}
