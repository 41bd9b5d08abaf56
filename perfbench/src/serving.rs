//! The serve workloads: `RcServe` under closed-loop clients. Each client
//! owns a partition of a seeded request stream, submits a window of
//! requests, reads the window's update acks and then its query answers,
//! and repeats. Latencies are exact client-side samples, from submit to
//! the response being observed. An untimed warm-up runs first, so the
//! first publishes' full-forest clones finish before timing starts.
//!
//! Only `RcServe::{start, start_durable, client, metrics, shutdown}`,
//! `ServeClient::submit`, `ResponseHandle::wait`, `Durability::new` and
//! `ServeConfig::default()` are called, and every server number is read
//! from the metrics snapshot by name, so removing an option or accessor
//! elsewhere does not touch this file. A name the snapshot lacks is
//! reported absent.

use crate::inputs;
use crate::json::Json;
use crate::spans::{at_zero_steal, median, quantile, Slices, Spans, SLICE};
use crate::{Args, Outcome};
use rc_core::{BuildOptions, DynamicForest};
use rc_gen::{OpMix, RequestStream};
use rc_serve::{Durability, MetricsSnapshot, RcServe, Request, Response, ServeClient, ServeConfig};
use std::path::Path;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Untimed load before the timed phase.
const WARMUP: Duration = Duration::from_millis(1500);
/// Query families as the serve registry names them (`cpt` is not in
/// either mix).
const FAMILIES: [&str; 7] = [
    "conn",
    "repr",
    "path",
    "subtree",
    "lca",
    "bottleneck",
    "near",
];
const ENGINES: [&str; 3] = ["batched", "independent", "sequential"];

/// What one client saw.
#[derive(Default)]
struct Client {
    submitted: u64,
    failed: u64,
    mismatched: u64,
    first_mismatch: Option<String>,
    /// `(completed, latency)` in ns of timed update and query requests,
    /// completion measured from the run's origin.
    updates: Vec<(u64, u64)>,
    queries: Vec<(u64, u64)>,
}

pub fn run(args: &Args, durable: bool) -> Outcome {
    // serve-mixed: two writers over the query-heavy mix, so consecutive
    // epochs overlap. serve-wal: one writer keeps each window in one
    // epoch, over an update-heavy mix that makes the WAL work.
    let (mix, mix_name, clients, window) = if durable {
        (wal_mix(), "update_heavy_no_link_cut", 1, 512)
    } else {
        (OpMix::query_heavy(), "query_heavy", 2, 256)
    };
    let mut out = Outcome {
        record: vec![
            ("clients", clients.into()),
            ("window", window.into()),
            ("mix", Json::str(mix_name)),
            ("zipf", inputs::ZIPF.into()),
            ("warmup_s", WARMUP.as_secs_f64().into()),
            ("durable", durable.into()),
        ],
        ..Outcome::default()
    };
    let state = inputs::initial_state(args.seed);
    let mut spans = Spans::new(Instant::now());

    // Set-up: build + start, or the durable bootstrap (snapshot write and
    // recovery) + start in a fresh store.
    let mut setup_s = Vec::new();
    let mut set_up = |spans: &mut Spans, dir: &Path| {
        let _ = std::fs::remove_dir_all(dir);
        let start = Instant::now();
        let server = if durable {
            RcServe::start_durable(
                ServeConfig::default(),
                Durability::new(dir, state.n),
                Some(&state),
            )
            .expect("fresh durable store")
            .0
        } else {
            let forest = spans.time("core.build", 0, state.edges.len(), || {
                state.build_std_forest(BuildOptions::default())
            });
            RcServe::start(
                forest.expect("generated forest is valid"),
                ServeConfig::default(),
            )
        };
        setup_s.push(start.elapsed().as_secs_f64());
        server
    };
    let dir = args.out.join(format!("wal-{}", std::process::id()));
    let server = set_up(&mut spans, &dir);
    if durable && args.trace {
        // The bootstrap builds inside the store; time the same build here.
        let f = spans.time("core.build", 0, state.edges.len(), || {
            state.build_std_forest(BuildOptions::default())
        });
        drop(f);
    }

    let barrier = Barrier::new(clients + 1);
    let seconds = Duration::from_secs_f64(args.seconds);
    let origin = Instant::now();
    let (results, before, after, slices) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|part| {
                let client = server.client();
                let mut stream = inputs::serve_stream(args.seed, mix, part, clients);
                let mut cspans = args.trace.then(|| spans.child());
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut c = Client::default();
                    let warm_end = Instant::now() + WARMUP;
                    while Instant::now() < warm_end {
                        run_window(&client, &mut stream, window, &mut c, None, None);
                    }
                    barrier.wait(); // the registry is read here
                    barrier.wait();
                    let end = Instant::now() + seconds;
                    while Instant::now() < end {
                        let (origin, spans) = (Some(origin), cspans.as_mut());
                        run_window(&client, &mut stream, window, &mut c, origin, spans);
                    }
                    (c, cspans)
                })
            })
            .collect();
        barrier.wait();
        let before = server.metrics();
        barrier.wait();
        let start = Instant::now();
        let mut slices = Slices::start();
        for i in 1..=(args.seconds / SLICE.as_secs_f64()).ceil() as u32 {
            std::thread::sleep((start + SLICE * i).saturating_duration_since(Instant::now()));
            slices.close();
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, before, server.metrics(), slices)
    });

    let forest = RcServe::shutdown(server);
    let final_state = forest.export_state();
    let levels = forest.num_levels();
    drop(forest);
    if durable {
        let recovered =
            RcServe::start_durable(ServeConfig::default(), Durability::new(&dir, state.n), None)
                .map(|(s, _)| RcServe::shutdown(s).export_state());
        let (ok, detail) = match recovered {
            Ok(s) if s == final_state => (
                true,
                "reopened store recovers the shut-down forest".to_string(),
            ),
            Ok(_) => (
                false,
                "reopened store recovers a different forest".to_string(),
            ),
            Err(e) => (false, format!("reopening the store failed: {e:?}")),
        };
        out.check("recovery", ok, detail);
    }

    let mut updates = Vec::new();
    let mut queries = Vec::new();
    let (mut mismatched, mut first_mismatch) = (0, None);
    for (c, cspans) in results {
        out.attempted += c.submitted;
        out.failed += c.failed;
        mismatched += c.mismatched;
        first_mismatch = first_mismatch.or(c.first_mismatch);
        updates.extend(c.updates);
        queries.extend(c.queries);
        if let Some(s) = cspans {
            spans.append(s);
        }
    }
    out.check(
        "response_kinds",
        mismatched == 0,
        match first_mismatch {
            Some(m) => format!("{mismatched} responses of the wrong kind, first {m}"),
            None => "every response kind matches its request".to_string(),
        },
    );
    out.check(
        "no_failures",
        out.failed == 0,
        format!("{} failed requests", out.failed),
    );
    out.metric("peak_rss_mb", crate::peak_rss_mb());

    // Two more set-ups only for timing; setup_s is the median of three.
    // They come after the peak is read, which they would otherwise raise
    // by however much of the freed memory they happen not to reuse.
    for _ in 0..2 {
        RcServe::shutdown(set_up(&mut spans, &dir));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // End-to-end figures: each slice's throughput and median latencies
    // against its steal rate, read at zero steal. A response belongs to
    // the slice it completed in.
    let bounds = slices.bounds(origin);
    let steal_rates = slices.steal_rates();
    let slice_s: Vec<f64> = bounds
        .windows(2)
        .map(|w| (w[1] - w[0]) as f64 / 1e9)
        .collect();
    let per_slice = |samples: &[(u64, u64)]| {
        let mut v = vec![Vec::new(); slice_s.len()];
        for &(done, ns) in samples {
            let i = bounds.partition_point(|&b| b <= done);
            if i > 0 && i <= slice_s.len() {
                v[i - 1].push(ns as f64 / 1e6);
            }
        }
        v
    };
    let (slice_updates, slice_queries) = (per_slice(&updates), per_slice(&queries));
    let per_second = |count: &dyn Fn(usize) -> usize| {
        let y: Vec<f64> = (0..slice_s.len())
            .map(|i| count(i) as f64 / slice_s[i])
            .collect();
        at_zero_steal(&steal_rates, &y)
    };
    let p50_ms = |per: &[Vec<f64>]| {
        let (x, y): (Vec<f64>, Vec<f64>) = per
            .iter()
            .zip(&steal_rates)
            .filter(|(v, _)| !v.is_empty())
            .map(|(v, &rate)| (rate, median(v)))
            .unzip();
        at_zero_steal(&x, &y)
    };
    out.record.push(("steal_slices", slice_s.len().into()));
    out.metric("setup_s", median(&setup_s));
    out.metric("update_per_s", per_second(&|i| slice_updates[i].len()));
    out.metric("query_per_s", per_second(&|i| slice_queries[i].len()));
    out.metric(
        "ops_per_s",
        per_second(&|i| slice_updates[i].len() + slice_queries[i].len()),
    );
    out.metric("update_p50_ms", p50_ms(&slice_updates));
    out.metric("query_p50_ms", p50_ms(&slice_queries));

    if args.trace {
        let build: Vec<f64> = spans
            .named("core.build")
            .map(|s| s.ns() as f64 / 1e6)
            .collect();
        out.layer("core.build_ms", median(&build));
        out.layer("core.levels", levels as f64);
        // Tails over every timed sample, as measured.
        let all =
            |samples: &[(u64, u64)]| samples.iter().map(|&(_, ns)| ns as f64).collect::<Vec<_>>();
        let (all_updates, all_queries) = (all(&updates), all(&queries));
        out.layer("serve.update_p99_ms", quantile(&all_updates, 0.99) / 1e6);
        out.layer("serve.query_p99_ms", quantile(&all_queries, 0.99) / 1e6);
        out.layer("serve.update_samples", all_updates.len() as f64);
        out.layer("serve.query_samples", all_queries.len() as f64);
        registry_layers(&mut out, &before, &after, durable);
        out.spans = Some(spans);
    }
    out
}

/// `OpMix::update_heavy()` with its link and cut weight moved onto the
/// other updates in proportion, so updates stay 70% of requests. A
/// stream's links pick among its detached connectors and its cuts among
/// the attached ones, so with one writer owning every connector the
/// detached count is a random walk reflected at 0, and the commit cost
/// depends on where the walk is: throughput differed 2x between seeds on
/// a 2-vCPU VM. Without link and cut the seeds agree within the machine's
/// noise. Structural updates through the serve tier stay in serve-mixed.
fn wal_mix() -> OpMix {
    let m = OpMix::update_heavy();
    let rest = m.update_edge_weight + m.update_vertex_weight + m.mark + m.unmark;
    let scale = (rest + m.link + m.cut) / rest;
    OpMix {
        link: 0.0,
        cut: 0.0,
        update_edge_weight: m.update_edge_weight * scale,
        update_vertex_weight: m.update_vertex_weight * scale,
        mark: m.mark * scale,
        unmark: m.unmark * scale,
        ..m
    }
}

/// Submit one window, then wait for its update acks and then its query
/// answers, so neither class is billed for the other's wait. In the timed
/// phase `origin` is given and each response is recorded as a sample,
/// its completion measured from `origin`.
fn run_window(
    client: &ServeClient,
    stream: &mut RequestStream,
    window: usize,
    c: &mut Client,
    origin: Option<Instant>,
    mut spans: Option<&mut Spans>,
) {
    // Generate first, then submit back to back: the window reaches the
    // server as one burst, as a client with the requests in hand sends it.
    let reqs: Vec<Request> = (0..window)
        .map(|_| Request::from_stream(stream.next_op()))
        .collect();
    let span = spans.as_mut().map_or(0, |s| s.open("serve.window", 0));
    let mut updates = Vec::with_capacity(window);
    let mut queries = Vec::with_capacity(window);
    for req in reqs {
        let submitted = Instant::now();
        let handle = client.submit(req.clone());
        if req.is_update() {
            updates.push((req, submitted, handle));
        } else {
            queries.push((req, submitted, handle));
        }
    }
    c.submitted += window as u64;
    for (is_update, pending) in [(true, updates), (false, queries)] {
        for (req, submitted, handle) in pending {
            let resp = handle.wait();
            let seen = Instant::now();
            if matches!(
                resp,
                Response::Updated(Err(_)) | Response::Rejected | Response::TimedOut
            ) {
                c.failed += 1;
            } else if !answers(&req, &resp) {
                c.mismatched += 1;
                if c.first_mismatch.is_none() {
                    c.first_mismatch = Some(format!("{req:?} -> {resp:?}"));
                }
            }
            let Some(origin) = origin else {
                continue;
            };
            let sample = (
                (seen - origin).as_nanos() as u64,
                (seen - submitted).as_nanos() as u64,
            );
            if is_update {
                c.updates.push(sample);
            } else {
                c.queries.push(sample);
            }
            if let Some(s) = spans.as_mut() {
                s.push(req.kind_name(), span, submitted, seen, 1);
            }
        }
    }
    if let Some(s) = spans {
        s.close(span, window as u32);
    }
}

/// Is `resp` the kind of response `req` must get?
fn answers(req: &Request, resp: &Response) -> bool {
    match resp {
        Response::Updated(_) => req.is_update(),
        Response::Bool(_) => matches!(req, Request::Connected { .. }),
        Response::Vertex(_) => matches!(req, Request::Representative { .. } | Request::Lca { .. }),
        Response::Sum(_) => matches!(req, Request::PathSum { .. } | Request::SubtreeSum { .. }),
        Response::Extrema(_) => matches!(req, Request::Bottleneck { .. }),
        Response::Near(_) => matches!(req, Request::NearestMarked { .. }),
        Response::Cpt(_) => matches!(req, Request::Cpt { .. }),
        _ => false,
    }
}

/// Differences between two metrics snapshots, read by name; names either
/// snapshot lacks are collected as absent.
struct Delta<'a> {
    before: &'a MetricsSnapshot,
    after: &'a MetricsSnapshot,
    absent: Vec<String>,
}

impl Delta<'_> {
    fn counter(&mut self, name: &str) -> Option<f64> {
        match (self.before.counter(name), self.after.counter(name)) {
            (Some(a), Some(b)) => Some(b.saturating_sub(a) as f64),
            _ => {
                self.absent.push(name.to_string());
                None
            }
        }
    }

    /// `(count, sum_ns)` recorded into a histogram between the snapshots.
    fn histogram(&mut self, name: &str) -> Option<(f64, f64)> {
        match (self.before.histogram(name), self.after.histogram(name)) {
            (Some(a), Some(b)) => Some((
                b.count.saturating_sub(a.count) as f64,
                b.sum_ns.saturating_sub(a.sum_ns) as f64,
            )),
            _ => {
                self.absent.push(name.to_string());
                None
            }
        }
    }
}

/// The serve, store and pool layers, as registry deltas over the timed
/// phase. Per-epoch means divide a histogram's summed time by the number
/// of epochs the epoch-wall histogram recorded.
fn registry_layers(
    out: &mut Outcome,
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    durable: bool,
) {
    let mut d = Delta {
        before,
        after,
        absent: Vec::new(),
    };
    let epoch = d.histogram("serve_epoch_wall_ns").filter(|&(n, _)| n > 0.0);
    if let Some((epochs, wall_ns)) = epoch {
        let per_epoch_ms = |sum_ns: f64| sum_ns / epochs / 1e6;
        out.layer("serve.epoch_ms", per_epoch_ms(wall_ns));
        if let Some(r) = d.counter("serve_requests_total") {
            out.layer("serve.epoch_requests", r / epochs);
        }
        if let Some(n) = d.counter("serve_flushes_total") {
            out.layer("serve.epoch_flushes", n / epochs);
        }
        // Phases in epoch order; back-pressure is reported but, as in
        // `PhaseTotals::coverage`, not summed: handoff covers its window.
        let mut phase_sum = 0.0;
        let mut phases_seen = 0;
        for (metric, name, summed) in [
            ("serve.drain_ms", "serve_phase_drain_ns", true),
            ("serve.admit_ms", "serve_phase_admit_ns", true),
            ("serve.commit_ms", "serve_phase_commit_ns", true),
            ("store.wal_ms", "serve_phase_wal_ns", true),
            ("serve.publish_ms", "serve_phase_publish_ns", true),
            ("serve.backpressure_ms", "serve_backpressure_ns", false),
            ("serve.handoff_ms", "serve_handoff_ns", true),
            ("serve.query_ms", "serve_phase_query_ns", true),
            ("serve.respond_ms", "serve_phase_respond_ns", true),
        ] {
            let Some((_, sum_ns)) = d.histogram(name) else {
                continue;
            };
            if summed {
                phase_sum += sum_ns;
                phases_seen += 1;
            }
            if metric != "store.wal_ms" || durable {
                out.layer(metric, per_epoch_ms(sum_ns));
            }
        }
        if phases_seen > 0 {
            let coverage = phase_sum / wall_ns;
            out.layer("serve.phase_coverage", coverage);
            out.check(
                "phase_coverage",
                coverage >= 0.9,
                format!(
                    "epoch phases cover {:.1}% of epoch wall time (must be at least 90%)",
                    coverage * 100.0
                ),
            );
        }
        for (metric, name) in [
            ("pool.jobs", "pool_jobs_published_total"),
            ("pool.chunks", "pool_chunks_claimed_total"),
            ("pool.steals", "pool_join_tasks_stolen_total"),
            ("pool.parks", "pool_parks_total"),
        ] {
            if let Some(n) = d.counter(name) {
                out.layer(metric, n / epochs);
            }
        }
        if durable {
            if let Some(n) = d.counter("wal_fsyncs_total") {
                out.layer("store.fsyncs_per_epoch", n / epochs);
            }
        }
    }
    for (metric, name) in [
        ("serve.recycle_cloned", "serve_recycle_cloned_total"),
        ("serve.recycle_caught_up", "serve_recycle_caught_up_total"),
    ] {
        if let Some(n) = d.counter(name) {
            out.layer(metric, n);
        }
    }

    let mut per_engine = [0.0; ENGINES.len()];
    for family in FAMILIES {
        let (mut count, mut sum_ns) = (0.0, 0.0);
        for (e, engine) in ENGINES.iter().enumerate() {
            let labels = format!("{{family=\"{family}\",engine=\"{engine}\"}}");
            if let Some(n) = d.counter(&format!("serve_dispatch_total{labels}")) {
                per_engine[e] += n;
            }
            if let Some((n, s)) = d.histogram(&format!("serve_family_query_ns{labels}")) {
                count += n;
                sum_ns += s;
            }
        }
        if count > 0.0 {
            out.layer(&format!("serve.query.{family}_ms"), sum_ns / count / 1e6);
        }
    }
    let decisions: f64 = per_engine.iter().sum();
    if decisions > 0.0 {
        for (engine, n) in ENGINES.iter().zip(per_engine) {
            out.layer(&format!("serve.dispatch.{engine}_frac"), n / decisions);
        }
    }

    if durable {
        for (metric, name) in [
            ("store.append_ms", "store_append_ns"),
            ("store.fsync_ms", "wal_fsync_ns"),
        ] {
            if let Some((n, sum_ns)) = d.histogram(name).filter(|&(n, _)| n > 0.0) {
                out.layer(metric, sum_ns / n / 1e6);
            }
        }
        if let (Some(bytes), Some(updates)) = (
            d.counter("store_append_bytes_total"),
            d.counter("serve_updates_total"),
        ) {
            if updates > 0.0 {
                out.layer("store.bytes_per_update", bytes / updates);
            }
        }
    }
    out.absent = d.absent;
}
