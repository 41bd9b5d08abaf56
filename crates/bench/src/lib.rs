//! Benchmark harness regenerating the paper's evaluation (§6) plus the
//! workspace's own experiments.
//!
//! - The paper's evaluation is two sweeps over one forest, and each has
//!   one binary: `fig11b_backends` varies the batch size k (figs. 7, 8
//!   and 11) and `fig9b_speedup` the thread count (fig. 9). Both run on
//!   [`Workload`], time with [`Timer`], and write `BENCH_crossover.json`
//!   and `BENCH_speedup.json`.
//! - `fig6_build`, `fig10_msf` and `fig12_ternary` print the build, MSF
//!   and ternarization tables. `all_figures` runs these five in turn.
//! - `fig_persist` (durability), `repl_load` (replication) and
//!   `serve_load` (serving) write the other committed `BENCH_*.json`
//!   files.
//!
//! Scale defaults target a laptop-class machine; set
//! `RC_BENCH_SCALE=tiny` for a seconds-long smoke run or `large` for
//! bigger inputs.

pub mod serve_driver;

use rc_core::ForestState;
use rc_gen::{ForestGenConfig, RequestStream, RequestStreamConfig};
use rc_parlay::rng::SplitMix64;
use std::time::{Duration, Instant};

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

/// The host's available parallelism, recorded next to every result that
/// depends on threads.
pub fn machine_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |x| x.get())
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

/// Fixed `n` for the build, MSF and ternarization tables (figs. 6, 10
/// and 12).
pub fn fixed_n() -> usize {
    match scale() {
        "large" => 1_000_000,
        "tiny" => 20_000,
        _ => 100_000,
    }
}

/// Batch sizes `k` for the MSF and ternarization tables.
pub fn batch_sizes() -> Vec<usize> {
    match scale() {
        "large" => vec![100, 1_000, 10_000, 100_000],
        "tiny" => vec![10, 100, 1_000],
        _ => vec![10, 100, 1_000, 10_000],
    }
}

/// Threads to sweep for the `fig9b_speedup` scaling trajectory: always
/// 1, 2 and 4 (so `BENCH_speedup.json` records comparable points across
/// machines — on hosts with fewer cores the pool is oversubscribed, which
/// the file's `machine_parallelism` field makes visible), plus higher
/// powers of two and the machine size on larger hosts.
pub fn speedup_thread_counts() -> Vec<usize> {
    let max = machine_parallelism();
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

/// The inputs both sweeps run on, the recipe behind README "Query
/// dispatch": rc-gen's request-stream forest (seed 1, default
/// [`ForestGenConfig`], degree ≤ 3) with 1% of its vertices marked,
/// Zipf-skewed query vertices, subtree queries on forest edges, and a
/// batch of distinct forest edges to cut and relink. Every list holds
/// `k` entries; a sweep cell of size `k' ≤ k` takes a prefix.
pub struct Workload {
    /// The forest: edges, zero vertex weights, sorted marks.
    pub state: ForestState,
    /// `(u, v)` pairs for conn, path and bottleneck.
    pub pairs: Vec<(u32, u32)>,
    /// Single vertices for repr and near.
    pub vertices: Vec<u32>,
    /// `(u, v, r)` triples for lca.
    pub triples: Vec<(u32, u32, u32)>,
    /// `(v, parent)` forest edges, randomly oriented, for subtree.
    pub subtrees: Vec<(u32, u32)>,
    /// Distinct forest edges with their weights.
    pub updates: Vec<(u32, u32, u64)>,
}

/// Zipf exponent of the workload's query vertices.
pub const ZIPF: f64 = 0.8;
/// Seed of the workload's forest and marks: perfbench's seed-1 forest.
const SEED: u64 = 1;

impl Workload {
    /// The workload at the current [`scale`] (200k vertices by default)
    /// with `k` entries per list.
    pub fn generate(k: usize) -> Workload {
        let n = match scale() {
            "large" => 1_000_000,
            "tiny" => 20_000,
            _ => 200_000,
        };
        let mut stream = RequestStream::new(RequestStreamConfig {
            forest: ForestGenConfig {
                n,
                seed: SEED,
                ..Default::default()
            },
            zipf_exponent: ZIPF,
            ..Default::default()
        });
        let mut state = ForestState::from_edges(n, &stream.initial_edges());
        let mut rng = SplitMix64::new(SEED ^ 0x4D41_524B);
        let mut marked = vec![false; n];
        while state.marks.len() < n / 100 {
            let v = rng.next_below(n as u64) as usize;
            if !marked[v] {
                marked[v] = true;
                state.marks.push(v as u32);
            }
        }
        state.marks.sort_unstable();

        let pairs = (0..k)
            .map(|_| (stream.skewed_vertex(), stream.skewed_vertex()))
            .collect();
        let vertices = (0..k).map(|_| stream.skewed_vertex()).collect();
        let triples = (0..k)
            .map(|_| {
                let (u, v) = (stream.skewed_vertex(), stream.skewed_vertex());
                (u, v, stream.skewed_vertex())
            })
            .collect();
        let edges = &state.edges;
        let subtrees = (0..k)
            .map(|_| {
                let (u, v, _) = edges[rng.next_below(edges.len() as u64) as usize];
                if rng.next_f64() < 0.5 {
                    (u, v)
                } else {
                    (v, u)
                }
            })
            .collect();
        // Partial Fisher–Yates: the first k slots become a uniform
        // k-subset of the edges.
        let mut updates = edges.clone();
        let k_edges = k.min(updates.len());
        for i in 0..k_edges {
            let j = i + rng.next_below((updates.len() - i) as u64) as usize;
            updates.swap(i, j);
        }
        updates.truncate(k_edges);
        Workload {
            state,
            pairs,
            vertices,
            triples,
            subtrees,
            updates,
        }
    }
}

/// Median and quartiles of one cell's calls.
#[derive(Clone, Copy, Debug)]
pub struct Timing {
    pub median: Duration,
    pub q1: Duration,
    pub q3: Duration,
    pub calls: usize,
}

impl Timing {
    /// The cell's JSON fields, in milliseconds.
    pub fn json_fields(&self) -> String {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        format!(
            "\"median_ms\": {:.4}, \"q1_ms\": {:.4}, \"q3_ms\": {:.4}, \"calls\": {}",
            ms(self.median),
            ms(self.q1),
            ms(self.q3),
            self.calls
        )
    }
}

/// Bytes rewritten before every timed call: larger than the last-level
/// cache of the machines these sweeps target.
const COLD_BYTES: usize = 64 << 20;
/// Fewest calls per cell.
const MIN_CALLS: usize = 5;
/// Most calls per cell at default and large scale.
const MAX_CALLS: usize = 41;
/// Timed total of a cell's slowest series after which the cell stops
/// adding calls beyond [`MIN_CALLS`].
const CELL_BUDGET: Duration = Duration::from_millis(250);

/// Times calls cache-cold: before every call it rewrites a 64 MiB
/// buffer, one word per cache line, which pushes the forest out of
/// cache, so a cell's calls start from the same state however many
/// precede it.
pub struct Timer {
    buf: Vec<u64>,
    pass: u64,
    max_calls: usize,
}

impl Default for Timer {
    /// A timer whose cells make 5 calls per series at tiny scale (the
    /// buffer rewrites dominate there) and 5 to 41 otherwise.
    fn default() -> Self {
        Timer {
            buf: vec![0; COLD_BYTES / 8],
            pass: 0,
            max_calls: if scale() == "tiny" {
                MIN_CALLS
            } else {
                MAX_CALLS
            },
        }
    }
}

impl Timer {
    /// Time `series` series of one cell: each round calls `run(0)`, …,
    /// `run(series - 1)` once, so a change in host speed lands on every
    /// series alike. At least 5 rounds, then more while the slowest
    /// series' timed total is under 250 ms, up to the timer's maximum.
    /// Each result is dropped after its time is taken.
    pub fn time<T>(&mut self, series: usize, mut run: impl FnMut(usize) -> T) -> Vec<Timing> {
        let mut times = vec![Vec::new(); series];
        let mut spent = vec![Duration::ZERO; series];
        let mut rounds = 0;
        while rounds < MIN_CALLS
            || (rounds < self.max_calls && spent.iter().max() < Some(&CELL_BUDGET))
        {
            for s in 0..series {
                self.pass += 1;
                for line in self.buf.chunks_exact_mut(8) {
                    line[0] = self.pass;
                }
                std::hint::black_box(&mut self.buf);
                let t0 = Instant::now();
                let out = std::hint::black_box(run(s));
                let d = t0.elapsed();
                drop(out);
                spent[s] += d;
                times[s].push(d.as_secs_f64());
            }
            rounds += 1;
        }
        times
            .iter()
            .map(|ts| {
                let (q1, median, q3) = quartiles(ts);
                Timing {
                    median: Duration::from_secs_f64(median),
                    q1: Duration::from_secs_f64(q1),
                    q3: Duration::from_secs_f64(q3),
                    calls: rounds,
                }
            })
            .collect()
    }
}

/// `(q1, median, q3)` of `xs`, interpolating between order statistics.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |p: f64| {
        let i = p * (v.len() - 1) as f64;
        let (lo, hi) = (i.floor() as usize, i.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (i - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
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
