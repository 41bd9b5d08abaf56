//! `perfbench`: runs one workload of the repository's benchmark and
//! prints what it measured as one JSON object on the last line of
//! standard output. `run.py` builds it, runs it, and turns that object
//! into the benchmark's result.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --out <dir> [--trace]
//! ```
//!
//! Workloads: `lib-single`, `lib-bulk`, `serve-mixed`, `serve-wal`.
//! `--trace` reports the per-layer metrics and writes the run's spans to
//! `<dir>/spans-<workload>.csv`; end-to-end metrics are reported either
//! way, but only untraced runs are meant to be quoted for them.

mod inputs;
mod json;
mod library;
mod serving;
mod spans;

use json::Json;
use std::path::PathBuf;
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Directory for span files and the serve-wal store.
    pub out: PathBuf,
}

/// One output check; any failed check makes the run incorrect.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Workload parameters beyond seed and n (k or window, clients, mix)
    /// and facts of the run (rounds or slices timed), for the record.
    pub record: Vec<(&'static str, Json)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics by name.
    pub metrics: Vec<(String, f64)>,
    /// Per-layer metrics by name (traced runs).
    pub layers: Vec<(String, f64)>,
    /// Registry metric names this commit does not publish.
    pub absent: Vec<String>,
    /// The run's spans, written out after a traced run.
    pub spans: Option<spans::Spans>,
}

impl Outcome {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        self.layers.push((name.to_string(), value));
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from("perfbench-out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--trace" {
            args.trace = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The process's peak resident set (`VmHWM`) in MiB; NaN where
/// unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2)
    });
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2)
    }
    let started = Instant::now();
    let steal0 = spans::steal_ticks();
    let mut out = match args.workload.as_str() {
        "lib-single" => library::run(&args, library::SINGLE_K, true),
        "lib-bulk" => library::run(&args, library::BULK_K, false),
        "serve-mixed" => serving::run(&args, false),
        "serve-wal" => serving::run(&args, true),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2)
        }
    };
    let steal_s = spans::steal_ticks().saturating_sub(steal0) as f64 / 100.0;

    let mut spans_file = String::new();
    if let Some(spans) = out.spans.take() {
        let path = args.out.join(format!("spans-{}.csv", args.workload));
        if let Err(e) = spans.write_csv(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            std::process::exit(1)
        }
        spans_file = path.display().to_string();
    }

    let pairs = |v: Vec<(String, f64)>| Json::obj(v.into_iter().map(|(k, x)| (k, Json::from(x))));
    let result = Json::obj([
        ("workload", Json::str(&args.workload)),
        ("seed", Json::from(args.seed)),
        ("n", Json::from(inputs::N)),
        ("params", Json::obj(out.record)),
        ("seconds", Json::from(args.seconds)),
        ("trace", Json::from(args.trace)),
        (
            "machine_parallelism",
            Json::from(std::thread::available_parallelism().map_or(0, |p| p.get())),
        ),
        ("pool_threads", Json::from(rayon::current_num_threads())),
        ("pool_metrics", Json::from(rayon::pool_metrics_enabled())),
        ("steal_s", Json::from(steal_s)),
        ("wall_s", Json::from(started.elapsed().as_secs_f64())),
        (
            "checks",
            Json::Arr(
                out.checks
                    .into_iter()
                    .map(|c| {
                        Json::obj([
                            ("name", Json::str(c.name)),
                            ("ok", Json::from(c.ok)),
                            ("detail", Json::str(c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", pairs(out.metrics)),
        ("layers", pairs(out.layers)),
        (
            "absent",
            Json::Arr(out.absent.into_iter().map(Json::Str).collect()),
        ),
        ("spans_file", Json::Str(spans_file)),
    ]);
    println!("{result}");
}
