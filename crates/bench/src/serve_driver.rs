//! Shared load-driving machinery for the `rc-serve` benchmarks: the
//! `serve_load` binary (BENCH_serve.json trajectory) and `fig_persist`'s
//! WAL table drive the coalescer through this module.

use rc_gen::{Arrival, OpMix, RequestStream, RequestStreamConfig};
use rc_serve::{
    Durability, MetricsSnapshot, ObsServerConfig, PhaseTotals, RcServe, Request, Response,
    ServeConfig, ServeForest, SyncPolicy,
};
use std::io::{Read as _, Write as _};
use std::time::{Duration, Instant};

/// One load run's parameters.
#[derive(Clone)]
pub struct LoadSpec {
    /// Client threads.
    pub threads: usize,
    /// Requests per client thread.
    pub ops_per_thread: usize,
    /// Closed-loop pipeline window per thread (in-flight requests).
    pub window: usize,
    /// Open loop (pace by the stream's arrival process, fire-and-forget)
    /// vs closed loop (windowed pipelining).
    pub open_loop: bool,
    /// Stream configuration (forest, mix, skew, arrivals).
    pub stream: RequestStreamConfig,
    /// Server batching policy.
    pub server: ServeConfig,
    /// Run with a WAL under the given sync policy (a fresh store
    /// directory per run, removed afterwards). `None` = in-memory.
    pub durability: Option<SyncPolicy>,
    /// Start the live observability endpoint on an ephemeral port and
    /// scrape `/metrics` + `/health` over TCP while the load runs,
    /// asserting both answer 200 — the endpoint-under-load smoke.
    pub obs_scrape: bool,
}

/// Measured outcome of one load run.
#[derive(Clone, Debug)]
pub struct LoadResult {
    pub threads: usize,
    pub ops: usize,
    pub error_responses: usize,
    pub elapsed: Duration,
    pub ops_per_sec: f64,
    pub epochs: u64,
    pub mean_batch: f64,
    pub max_batch: usize,
    pub flushes: u64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub mean_us: f64,
    /// Full registry snapshot taken after shutdown: serve phase
    /// histograms, store/WAL counters when durable, pool counters when
    /// the `pool-metrics` feature is on.
    pub snapshot: MetricsSnapshot,
    /// Per-phase wall-time totals summed over every flight-recorder
    /// trace the run retained (the last `flight_capacity` epochs).
    pub phase: PhaseTotals,
    /// [`PhaseTotals::coverage`]: fraction of recorded epoch wall time
    /// the phase spans account for.
    pub phase_coverage: f64,
}

/// The default serving workload: a query-heavy mix over a Zipf-skewed
/// vertex population — the traffic shape the coalescer exists for.
pub fn default_stream(n: usize, seed: u64) -> RequestStreamConfig {
    RequestStreamConfig {
        forest: rc_gen::ForestGenConfig {
            n,
            seed,
            ..Default::default()
        },
        mix: OpMix::query_heavy(),
        zipf_exponent: 0.8,
        arrival: Arrival::Closed,
        invalid_frac: 0.0,
        cpt_terminals: 8,
    }
}

/// A coalescing policy tuned for windowed closed-loop load: drain the
/// moment the whole aggregate window is queued (every client blocked).
/// The linger allows 2 µs per request of that window, so one round of
/// window submissions fits inside it and every epoch holds whole
/// windows; a closed-loop run waits it out only once, on its final
/// partial window.
pub fn coalescing_policy(threads: usize, window: usize) -> ServeConfig {
    let aggregate = (threads * window).max(1);
    ServeConfig {
        max_epoch_ops: aggregate.max(1024),
        drain_threshold: aggregate,
        max_linger: Duration::from_micros(2 * aggregate as u64),
        ..ServeConfig::default()
    }
}

/// Issue one blocking HTTP/1.0 GET against the observability endpoint
/// and return the status line.
fn obs_get(addr: std::net::SocketAddr, path: &str) -> std::io::Result<String> {
    let mut conn = std::net::TcpStream::connect_timeout(&addr, Duration::from_secs(2))?;
    conn.set_read_timeout(Some(Duration::from_secs(2)))?;
    conn.set_write_timeout(Some(Duration::from_secs(2)))?;
    conn.write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())?;
    let mut body = String::new();
    conn.read_to_string(&mut body)?;
    Ok(body.lines().next().unwrap_or("").to_string())
}

/// Execute one load run: build the forest from the stream, start a fresh
/// server, drive it from `threads` clients, shut down, report.
pub fn run_load(spec: &LoadSpec) -> LoadResult {
    let probe = RequestStream::new_partitioned(spec.stream.clone(), 0, spec.threads);
    // With durability, the initial forest is installed as the bootstrap
    // snapshot of a fresh store directory (start_durable builds it from
    // the snapshot, so no separate throwaway build) — the timed section
    // measures pure WAL overhead, not the initial snapshot write.
    let store_dir = spec.durability.map(|sync| {
        static RUN: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "rc-bench-wal-{}-{}",
            std::process::id(),
            RUN.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        (dir, sync)
    });
    let server = match &store_dir {
        None => {
            let forest = ServeForest::build_edges(
                probe.num_vertices(),
                &probe.initial_edges(),
                rc_core::BuildOptions::default(),
            )
            .expect("generated forest is valid");
            RcServe::start(forest, spec.server.clone())
        }
        Some((dir, sync)) => {
            let boot =
                rc_core::ForestState::from_edges(probe.num_vertices(), &probe.initial_edges());
            let durability = Durability::new(dir, boot.n).sync_policy(*sync);
            RcServe::start_durable(spec.server.clone(), durability, Some(&boot))
                .expect("fresh durable store")
                .0
        }
    };

    // The live endpoint binds before the timed section so scrapes land
    // mid-load; the listener thread is torn down before shutdown.
    let obs = spec
        .obs_scrape
        .then(|| {
            server
                .serve_obs(ObsServerConfig::default())
                .expect("bind observability endpoint")
        })
        .map(|srv| {
            let addr = srv.local_addr();
            (srv, addr)
        });

    // Pre-generate every thread's request tape (and open-loop arrival
    // schedule) outside the timed section, so the measurement is the
    // serving path, not the generator's Zipf sampling.
    let tapes: Vec<(Vec<Request>, Vec<u64>)> = (0..spec.threads)
        .map(|t| {
            let mut stream = RequestStream::new_partitioned(spec.stream.clone(), t, spec.threads);
            let ops: Vec<Request> = (0..spec.ops_per_thread)
                .map(|_| Request::from_stream(stream.next_op()))
                .collect();
            let delays: Vec<u64> = if spec.open_loop {
                (0..spec.ops_per_thread)
                    .map(|_| stream.next_delay_ns())
                    .collect()
            } else {
                Vec::new()
            };
            (ops, delays)
        })
        .collect();

    let t0 = Instant::now();
    let workers: Vec<_> = tapes
        .into_iter()
        .map(|(ops, delays)| {
            let client = server.client();
            let spec = spec.clone();
            std::thread::spawn(move || {
                let mut errors = 0usize;
                if spec.open_loop {
                    // Open loop: pace submissions, collect handles, wait at
                    // the end so latency includes queueing delay.
                    let mut handles = Vec::with_capacity(ops.len());
                    let mut next_at = Instant::now();
                    for (req, gap) in ops.into_iter().zip(delays) {
                        next_at += Duration::from_nanos(gap);
                        let now = Instant::now();
                        if next_at > now {
                            std::thread::sleep(next_at - now);
                        }
                        handles.push(client.submit(req));
                    }
                    for h in handles {
                        if matches!(h.wait(), Response::Updated(Err(_))) {
                            errors += 1;
                        }
                    }
                } else {
                    let mut ops = ops.into_iter();
                    loop {
                        let chunk: Vec<Request> = ops.by_ref().take(spec.window.max(1)).collect();
                        if chunk.is_empty() {
                            break;
                        }
                        let handles: Vec<_> =
                            chunk.into_iter().map(|req| client.submit(req)).collect();
                        for h in handles {
                            if matches!(h.wait(), Response::Updated(Err(_))) {
                                errors += 1;
                            }
                        }
                    }
                }
                errors
            })
        })
        .collect();
    // Scrape the endpoint while the client threads are still driving
    // load: the worker threads above run concurrently with these GETs.
    if let Some((_, addr)) = &obs {
        for path in ["/metrics", "/health"] {
            let status = obs_get(*addr, path).expect("scrape observability endpoint");
            assert!(
                status.contains("200"),
                "GET {path} under load answered {status:?}, expected 200"
            );
        }
    }
    let error_responses: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = t0.elapsed();

    let audit = server.client();
    if let Some((mut srv, _)) = obs {
        srv.stop();
    }
    server.shutdown();
    if let Some((dir, _)) = &store_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    let stats = audit.stats();
    // Telemetry reads are direct shared-state accessors, valid after
    // shutdown — by which point every epoch's trace has been published.
    let snapshot = audit.metrics_snapshot();
    let flight = audit.flight_dump();
    let phase = PhaseTotals::from_traces(&flight);
    let phase_coverage = phase.coverage();
    let ops = spec.threads * spec.ops_per_thread;
    LoadResult {
        threads: spec.threads,
        ops,
        error_responses,
        elapsed,
        ops_per_sec: ops as f64 / elapsed.as_secs_f64().max(1e-9),
        epochs: stats.epochs,
        mean_batch: stats.mean_batch,
        max_batch: stats.max_batch,
        flushes: stats.flushes,
        p50_us: stats.latency.p50_ns as f64 / 1e3,
        p95_us: stats.latency.p95_ns as f64 / 1e3,
        p99_us: stats.latency.p99_ns as f64 / 1e3,
        mean_us: stats.latency.mean_ns as f64 / 1e3,
        snapshot,
        phase,
        phase_coverage,
    }
}
