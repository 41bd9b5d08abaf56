//! Observability smoke oracle for the `rc-obs` + `rc-serve` telemetry
//! path: drives a server under multi-threaded load, then checks that
//!
//! 1. `Request::DumpTelemetry` round-trips a consistent dump through the
//!    normal request path,
//! 2. the Prometheus text exposition and JSON export parse and contain
//!    the serve metric families,
//! 3. the flight recorder's phase breakdown accounts for (almost) all of
//!    recorded epoch wall time — the "no unattributed time" invariant
//!    (`RC_OBS_SMOKE_STRICT=1` tightens the bar to 90%, the release
//!    acceptance threshold; default is 75% so debug builds with their
//!    heavier constant factors stay green), and
//! 4. a WAL append failure freezes a postmortem flight dump containing
//!    the failing epoch, and
//! 5. `ServeStats` reads the registry's counters.

use rcforest::serve::{
    PhaseTotals, RcServe, Request, Response, ServeClient, ServeConfig, ServeForest, SyncPolicy,
};
use std::time::Duration;

/// Path forest 0-1-2-…-(n-1) with weight-1 edges.
fn path_server(n: usize, cfg: ServeConfig) -> RcServe {
    let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (v - 1, v, 1)).collect();
    let forest = ServeForest::build_edges(n, &edges, rcforest::BuildOptions::default())
        .expect("path forest is valid");
    RcServe::start(forest, cfg)
}

fn load_cfg(flight: usize) -> ServeConfig {
    ServeConfig {
        drain_threshold: 64,
        max_linger: Duration::from_micros(200),
        flight_recorder: flight,
        ..ServeConfig::default()
    }
}

/// Drive `threads` clients × `ops_per_thread` mixed requests (edge-weight
/// churn on the path plus the cheap query families) and wait for all.
fn drive(client: &ServeClient, n: usize, threads: usize, ops_per_thread: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let c = client.clone();
            s.spawn(move || {
                let mut handles = Vec::with_capacity(ops_per_thread);
                for i in 0..ops_per_thread {
                    let v = ((t * ops_per_thread + i) % (n - 1)) as u32;
                    let req = match i % 4 {
                        0 => Request::UpdateEdgeWeight {
                            u: v,
                            v: v + 1,
                            w: i as u64,
                        },
                        1 => Request::Connected { u: 0, v },
                        2 => Request::PathSum { u: v, v: v + 1 },
                        _ => Request::Representative { v },
                    };
                    handles.push(c.submit(req));
                }
                for h in handles {
                    assert_ne!(
                        h.wait(),
                        Response::Rejected,
                        "healthy server rejects nothing"
                    );
                }
            });
        }
    });
}

/// Minimal Prometheus text-format check: every line is either a
/// `# TYPE <name> <kind>` header or a `<name>[{labels}] <integer>`
/// sample, and every header is followed by at least one sample of its
/// metric. Returns the set of metric names seen.
fn parse_prometheus(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut pending_header: Option<String> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let name = it.next().expect("TYPE line has a name");
            let kind = it.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "summary"),
                "unknown exposition kind {kind:?} in {line:?}"
            );
            assert!(it.next().is_none(), "trailing tokens in {line:?}");
            pending_header = Some(name.to_string());
            names.push(name.to_string());
            continue;
        }
        let (series, value) = line.rsplit_once(' ').expect("sample is `name value`");
        let base = series.split('{').next().unwrap();
        value.parse::<i128>().unwrap_or_else(|_| {
            panic!("sample value must be an integer, got {value:?} in {line:?}")
        });
        if let Some(header) = &pending_header {
            assert!(
                base.starts_with(header.as_str()),
                "sample {base:?} does not belong to preceding header {header:?}"
            );
        }
    }
    names
}

#[test]
fn dump_telemetry_round_trips_and_exports_parse() {
    let n = 512;
    let server = path_server(n, load_cfg(128));
    let client = server.client();
    let (threads, ops) = (4, 400);
    drive(&client, n, threads, ops);

    let dump = match client.call(Request::DumpTelemetry) {
        Response::Telemetry(d) => d,
        other => panic!("DumpTelemetry answered {other:?}"),
    };
    server.shutdown();

    let total = (threads * ops) as u64;
    assert!(
        dump.snapshot.counter("serve_epochs_total").unwrap() >= 1,
        "at least one epoch served"
    );
    assert_eq!(
        dump.snapshot.counter("serve_requests_total").unwrap(),
        total,
        "every driven request counted (the dump itself is not an epoch op)"
    );
    assert!(!dump.traces.is_empty(), "flight recorder retained traces");

    // Prometheus exposition parses and carries the serve families.
    let names = parse_prometheus(&dump.snapshot.to_prometheus());
    for required in [
        "serve_request_latency_ns",
        "serve_epochs_total",
        "serve_requests_total",
        "serve_phase_query_ns",
        "serve_epoch_wall_ns",
        "serve_queue_depth",
    ] {
        assert!(names.iter().any(|n| n == required), "missing {required}");
    }

    // JSON export: structurally sane without a JSON parser dependency.
    let json = dump.snapshot.to_json();
    assert!(json.starts_with('{') && json.ends_with('}'));
    assert_eq!(
        json.matches('{').count(),
        json.matches('}').count(),
        "balanced braces"
    );
    assert!(json.contains("\"serve_epochs_total\":"));
    assert!(json.contains("\"p99_ns\":"));

    // Pool counters surface exactly when the feature is compiled in.
    let pool = dump.snapshot.counter("pool_jobs_published_total");
    if cfg!(feature = "pool-metrics") {
        assert!(pool.is_some(), "pool counters registered under the feature");
    } else {
        assert!(pool.is_none(), "no pool counters without the feature");
    }

    // `stats()` reads the same registry: after shutdown it matches the
    // dump's counters (the dump request itself is no epoch op).
    let stats = client.stats();
    let counter = |name| dump.snapshot.counter(name).unwrap();
    assert_eq!(stats.epochs, counter("serve_epochs_total"));
    assert_eq!(stats.ops, counter("serve_requests_total"));
    assert_eq!(stats.updates, counter("serve_updates_total"));
    assert_eq!(stats.queries, counter("serve_queries_total"));
    assert_eq!(stats.flushes, counter("serve_flushes_total"));
    assert_eq!(stats.traces_sampled, counter("serve_traces_sampled_total"));
    assert_eq!(stats.traces_slow, counter("serve_traces_slow_total"));
    assert_eq!(
        stats.max_batch as i64,
        dump.snapshot.gauge("serve_max_batch").unwrap()
    );
    assert!(stats.max_batch >= 1 && stats.max_batch as u64 <= total);
    assert_eq!(
        Some(stats.latency),
        dump.snapshot.histogram("serve_request_latency_ns")
    );
    assert_eq!(stats.latency.count, total + 1, "the dump's own latency too");
}

#[test]
fn phase_breakdown_covers_epoch_wall_time() {
    // The acceptance bar: phase spans must account for >= 90% of epoch
    // wall time in release (strict); 75% otherwise — unattributed time
    // means a phase is missing from the instrumentation.
    let threshold = if std::env::var("RC_OBS_SMOKE_STRICT").is_ok() {
        0.90
    } else {
        0.75
    };
    let n = 512;
    let server = path_server(n, load_cfg(256));
    let client = server.client();
    drive(&client, n, 4, 500);
    server.shutdown();

    let traces = client.flight_dump();
    assert!(!traces.is_empty());
    let totals = PhaseTotals::from_traces(&traces);
    assert!(
        totals.coverage() >= threshold,
        "phase coverage {:.3} below {threshold} \
         (phase sum {} ns vs wall {} ns over {} epochs)",
        totals.coverage(),
        totals.phase_sum_ns(),
        totals.wall_ns,
        totals.epochs,
    );
    // The breakdown must also never over-account: each phase span is
    // measured inside the epoch's wall interval, so the sum can only
    // exceed the wall by timer jitter (10% + 100us slack).
    for t in &traces {
        assert!(
            t.phase_sum_ns() <= t.epoch_wall_ns + t.epoch_wall_ns / 10 + 100_000,
            "phase sum {} ns over-accounts wall {} ns: {t:?}",
            t.phase_sum_ns(),
            t.epoch_wall_ns,
        );
    }
}

#[test]
fn wal_failure_freezes_postmortem_flight_dump() {
    use rcforest::serve::Durability;
    let dir = std::env::temp_dir().join(format!("rc-telemetry-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut durability = Durability::new(&dir, 8).sync_policy(SyncPolicy::Never);
    durability.fail_appends_after = 2;
    let (server, _) = RcServe::start_durable(ServeConfig::unbatched(), durability, None).unwrap();
    let client = server.client();

    assert_eq!(
        client.call(Request::Link { u: 0, v: 1, w: 1 }),
        Response::Updated(Ok(()))
    );
    assert_eq!(
        client.call(Request::Link { u: 1, v: 2, w: 1 }),
        Response::Updated(Ok(()))
    );
    assert!(
        client.failure_dump().is_none(),
        "no postmortem before the failure"
    );
    // Third append hits the injected failure.
    assert_eq!(
        client.call(Request::Link { u: 2, v: 3, w: 1 }),
        Response::Rejected
    );
    server.shutdown();

    let dump = client
        .failure_dump()
        .expect("worker failure freezes a flight dump");
    let failing = dump
        .iter()
        .find(|t| t.failed)
        .expect("postmortem contains the failing epoch's trace");
    assert_eq!(
        failing.epoch, 3,
        "the third epoch is the one that hit the injected append failure"
    );
    assert!(
        dump.iter().filter(|t| !t.failed).count() >= 2,
        "the successful epochs' traces are retained for context"
    );
    // The failure is also visible in the metrics, and `stats()` counts
    // the failed epoch and its rejected request like the registry does.
    let snap = client.metrics_snapshot();
    assert_eq!(snap.counter("serve_failed_epochs_total"), Some(1));
    let stats = client.stats();
    assert_eq!((stats.epochs, stats.ops), (3, 3));
    let _ = std::fs::remove_dir_all(&dir);
}
