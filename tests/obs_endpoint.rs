//! Endpoint + tracing + watchdog oracle for the live observability
//! stack: a real `rc-serve` server under multi-threaded load answering
//! HTTP over TCP, per-request causal traces with contiguous spans that
//! account for the measured end-to-end latency, deterministic 1-in-N
//! sampling, the always-on slow-request capture, the epoch-stall
//! watchdog flipping `/ready`, and responses (refusals of hostile
//! requests included) that reach the peer before the close.

use rcforest::serve::{
    Durability, ObsServerConfig, RcServe, Request, Response, ServeClient, ServeConfig, ServeForest,
    SyncPolicy,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Path forest 0-1-2-…-(n-1) with weight-1 edges.
fn path_server(n: usize, cfg: ServeConfig) -> RcServe {
    let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (v - 1, v, 1)).collect();
    let forest = ServeForest::build_edges(n, &edges, rcforest::BuildOptions::default())
        .expect("path forest is valid");
    RcServe::start(forest, cfg)
}

/// The request tape both sampling runs replay: edge-weight churn plus
/// the cheap query families, one submission sequence.
fn tape_request(i: usize, n: usize) -> Request {
    let v = (i % (n - 1)) as u32;
    match i % 4 {
        0 => Request::UpdateEdgeWeight {
            u: v,
            v: v + 1,
            w: i as u64,
        },
        1 => Request::Connected { u: 0, v },
        2 => Request::PathSum { u: v, v: v + 1 },
        _ => Request::Representative { v },
    }
}

/// Drive `threads` clients × `ops_per_thread` requests and wait for all.
fn drive(client: &ServeClient, n: usize, threads: usize, ops_per_thread: usize) {
    std::thread::scope(|s| {
        for t in 0..threads {
            let c = client.clone();
            s.spawn(move || {
                let mut handles = Vec::with_capacity(ops_per_thread);
                for i in 0..ops_per_thread {
                    handles.push(c.submit(tape_request(t * ops_per_thread + i, n)));
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

/// One blocking HTTP/1.0 GET; returns (status line, body).
fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.set_write_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(format!("GET {path} HTTP/1.0\r\nHost: t\r\n\r\n").as_bytes())
        .expect("send request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let (head, body) = buf.split_once("\r\n\r\n").expect("complete response");
    let status = head.lines().next().unwrap_or("").to_string();
    (status, body.to_string())
}

/// Send `request`, half-closing the write side when `half_close`, and
/// read until the endpoint closes. `Err` means the read ended in a reset
/// (or another error), not a clean close. A refusal may close before the
/// peer finishes sending, so a failed send is not an error: what counts
/// is what the peer can read.
fn exchange(addr: SocketAddr, request: &[u8], half_close: bool) -> std::io::Result<Vec<u8>> {
    let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
    s.set_read_timeout(Some(Duration::from_secs(10)))?;
    if s.write_all(request).is_ok() && half_close {
        let _ = s.shutdown(Shutdown::Write);
    }
    let mut resp = Vec::new();
    s.read_to_end(&mut resp)?;
    Ok(resp)
}

/// Minimal Prometheus text-format check (mirrors `telemetry_smoke`):
/// headers parse, samples are integers, returns the metric names seen.
fn parse_prometheus(text: &str) -> Vec<String> {
    let mut names = Vec::new();
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
            names.push(name.to_string());
            continue;
        }
        let (_, value) = line.rsplit_once(' ').expect("sample is `name value`");
        value.parse::<i128>().unwrap_or_else(|_| {
            panic!("sample value must be an integer, got {value:?} in {line:?}")
        });
    }
    names
}

#[test]
fn endpoint_answers_over_tcp_under_durable_load() {
    let dir = std::env::temp_dir().join(format!("rc-obs-endpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let n = 256;
    let boot = {
        let edges: Vec<(u32, u32, u64)> = (1..n as u32).map(|v| (v - 1, v, 1)).collect();
        rcforest::ForestState::from_edges(n, &edges)
    };
    let durability = Durability::new(&dir, n).sync_policy(SyncPolicy::Never);
    let cfg = ServeConfig {
        drain_threshold: 64,
        max_linger: Duration::from_micros(200),
        ..ServeConfig::default()
    };
    let (server, _) = RcServe::start_durable(cfg, durability, Some(&boot)).expect("durable start");
    let obs = server
        .serve_obs(ObsServerConfig::default())
        .expect("bind endpoint");
    let addr = obs.local_addr();
    let client = server.client();

    // Scrape from a side thread while the load runs, so at least one GET
    // of every route lands mid-epoch rather than on an idle server.
    let scraper = std::thread::spawn(move || {
        let mut statuses = Vec::new();
        for _ in 0..3 {
            for path in ["/metrics", "/health", "/traces", "/flight", "/ready"] {
                statuses.push((path, http_get(addr, path).0));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        statuses
    });
    drive(&client, n, 4, 400);
    for (path, status) in scraper.join().expect("scraper thread") {
        assert!(status.contains("200"), "GET {path} answered {status:?}");
    }

    // Post-load scrapes assert on content.
    let (status, metrics) = http_get(addr, "/metrics");
    assert!(status.contains("200"), "{status}");
    let names = parse_prometheus(&metrics);
    for required in [
        "serve_epochs_total",
        "serve_requests_total",
        "serve_request_latency_ns",
        "serve_worker_heartbeat",
        "serve_traces_sampled_total",
    ] {
        assert!(names.iter().any(|m| m == required), "missing {required}");
    }

    let (_, health) = http_get(addr, "/health");
    assert!(health.contains("\"healthy\":true"), "{health}");
    let (_, traces) = http_get(addr, "/traces");
    assert_eq!(traces.matches('{').count(), traces.matches('}').count());
    assert!(traces.contains("\"recent\":["), "{traces}");
    // 1600 requests through the default 1-in-64 sampler: the trace rings
    // and exemplars are populated with high probability (the sampled id
    // set for seed 0 over 1..=1600 is fixed, and non-empty).
    assert!(
        traces.contains("\"trace_id\":"),
        "no trace captured: {traces}"
    );
    let (status, _) = http_get(addr, "/costmodel");
    assert!(status.contains("404"), "{status}");
    let (_, flight) = http_get(addr, "/flight");
    assert!(flight.starts_with('[') && flight.contains("\"epoch\":"));
    // Queried epochs record which engine ran each family.
    assert!(flight.contains("\"engine\":\""), "{flight}");
    // The per-engine family series made it into the exposition.
    assert!(
        names.iter().any(|m| m == "serve_dispatch_total"),
        "labeled dispatch counters missing: {names:?}"
    );
    assert!(
        metrics.contains("serve_family_query_ns{family=\"conn\",engine=\""),
        "labeled family histograms missing"
    );

    drop(obs);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sampled_trace_spans_are_causally_ordered_and_account_for_e2e() {
    let n = 256;
    // Capture everything: the span-structure invariants must hold for
    // every request, so check them on all of them.
    let server = path_server(
        n,
        ServeConfig {
            drain_threshold: 32,
            max_linger: Duration::from_micros(200),
            trace_sample: 1,
            trace_ring: 2048,
            ..ServeConfig::default()
        },
    );
    let client = server.client();
    drive(&client, n, 2, 300);
    server.shutdown();

    let dump = client.request_traces();
    assert!(dump.sampled_total >= 600, "everything sampled: {dump:?}");
    let mut saw_deep_query = false;
    for t in &dump.recent {
        assert!(
            t.nspans >= 5,
            "update/query traces carry the epoch phases: {t:?}"
        );
        // Spans are laid end to end starting at submit: contiguous and
        // causally ordered.
        let mut cursor = 0u64;
        for s in t.spans() {
            assert_eq!(
                s.start_ns, cursor,
                "span {} starts where the previous ended in {t:?}",
                s.name
            );
            cursor += s.dur_ns;
        }
        assert_eq!(t.spans().first().unwrap().name, "queue");
        assert_eq!(t.spans().last().unwrap().name, "respond");
        // The spans partition the measured lifetime: the respond tail is
        // computed as the remainder, so the sum matches e2e exactly
        // unless racing phase timers overshoot by nanoseconds — far
        // inside the 10% acceptance bar either way.
        let (sum, e2e) = (t.span_sum_ns() as i128, t.e2e_ns as i128);
        assert!(
            (sum - e2e).abs() <= e2e / 10 + 10_000,
            "span sum {sum} ns vs e2e {e2e} ns in {t:?}"
        );
        if t.nspans >= 6 && t.spans().iter().any(|s| s.name.starts_with("query:")) {
            saw_deep_query = true;
        }
    }
    assert!(
        saw_deep_query,
        "some query trace carries >= 6 spans incl. its family span"
    );
    // Exemplars point the latency histogram's octaves back at trace ids.
    assert!(
        dump.exemplars
            .iter()
            .any(|e| e.metric == "serve_request_latency_ns" && e.trace_id > 0),
        "latency exemplars populated: {:?}",
        dump.exemplars
    );
}

#[test]
fn sampling_is_deterministic_and_near_one_in_n() {
    let n = 128;
    let ops = 400;
    let sample = 8u64;
    let run = || {
        let server = path_server(
            n,
            ServeConfig {
                trace_sample: sample,
                trace_seed: 7,
                trace_ring: 1024,
                slow_request_threshold: Duration::ZERO,
                ..ServeConfig::unbatched()
            },
        );
        let client = server.client();
        // Single-threaded sequential submission: request i gets global
        // sequence i, so trace ids are 1..=ops in tape order.
        for i in 0..ops {
            assert_ne!(client.call(tape_request(i, n)), Response::Rejected);
        }
        server.shutdown();
        let ids: Vec<u64> = client
            .request_traces()
            .recent
            .iter()
            .map(|t| t.trace_id)
            .collect();
        ids
    };
    let first = run();
    let second = run();
    assert_eq!(first, second, "same seed + stream => identical sampled set");
    // And it matches the pure sampling function on the same ids.
    let expect: Vec<u64> = (1..=ops as u64)
        .filter(|&id| rcforest::obs::trace_sampled(7, id, sample))
        .collect();
    assert_eq!(first, expect, "captured set is exactly the 1-in-N decision");
    let target = ops as f64 / sample as f64;
    assert!(
        (first.len() as f64) > target * 0.5 && (first.len() as f64) < target * 2.0,
        "{} sampled of {ops}, expected about {target}",
        first.len()
    );
}

#[test]
fn slow_requests_are_captured_without_sampling() {
    // Sampling off entirely; the injected wedge delays epoch 1 past the
    // slow threshold, so its request must land in the slow ring anyway.
    let server = path_server(
        8,
        ServeConfig {
            trace_sample: 0,
            slow_request_threshold: Duration::from_millis(10),
            wedge_epochs: vec![1],
            wedge_for: Duration::from_millis(50),
            ..ServeConfig::unbatched()
        },
    );
    let client = server.client();
    assert_eq!(
        client.call(Request::UpdateEdgeWeight { u: 0, v: 1, w: 9 }),
        Response::Updated(Ok(()))
    );
    server.shutdown();
    let dump = client.request_traces();
    assert_eq!(dump.sampled_total, 0, "sampling disabled");
    assert!(dump.slow_total >= 1, "wedged request captured as slow");
    let t = dump
        .slow
        .first()
        .expect("slow ring holds the delayed request");
    assert!(t.slow && !t.sampled);
    assert!(
        t.e2e_ns >= 10_000_000,
        "captured trace shows the delay: {} ns",
        t.e2e_ns
    );
    assert_eq!(t.kind, "update_edge_weight");
}

#[test]
fn watchdog_flips_ready_on_injected_stall_and_recovers() {
    let server = path_server(
        8,
        ServeConfig {
            stall_deadline: Some(Duration::from_millis(100)),
            wedge_epochs: vec![1],
            wedge_for: Duration::from_millis(900),
            ..ServeConfig::unbatched()
        },
    );
    let obs = server
        .serve_obs(ObsServerConfig::default())
        .expect("bind endpoint");
    let addr = obs.local_addr();
    let client = server.client();

    let (status, _) = http_get(addr, "/ready");
    assert!(status.contains("200"), "ready before the stall: {status}");

    // The first epoch wedges for 900ms with a 100ms deadline: the
    // watchdog must flip /ready (and /health) to 503 while the request
    // is still in flight.
    let h = client.submit(Request::UpdateEdgeWeight { u: 0, v: 1, w: 1 });
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut flipped = false;
    while Instant::now() < deadline {
        let (status, body) = http_get(addr, "/ready");
        if status.contains("503") {
            assert!(body.contains("\"healthy\":false"), "{body}");
            assert!(
                body.contains("stalled in"),
                "detail names the phase: {body}"
            );
            flipped = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        flipped,
        "watchdog never flipped /ready during a 900ms wedge"
    );
    let (status, _) = http_get(addr, "/health");
    assert!(status.contains("503"), "liveness flips too: {status}");

    // The wedge ends, the epoch commits, the response arrives, and the
    // next watchdog poll observes progress and re-arms.
    assert_eq!(h.wait(), Response::Updated(Ok(())));
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut recovered = false;
    while Instant::now() < deadline {
        let (status, _) = http_get(addr, "/ready");
        if status.contains("200") {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(recovered, "watchdog re-arms after the stall clears");

    // The postmortem froze the stalling phase and the stall counter.
    let report = client.stall_report().expect("stall postmortem frozen");
    assert_eq!(report.info.phase, "admit", "wedge sits in the admit phase");
    assert!(report.info.stalled_for >= Duration::from_millis(100));
    let view = client.health_view();
    assert!(view.healthy && view.ready, "healthy again after recovery");
    assert_eq!(view.stalls, 1, "exactly one stall episode declared");
    assert_eq!(
        client.metrics_snapshot().counter("serve_stalls_total"),
        Some(1)
    );
    drop(obs);
    server.shutdown();
}

#[test]
fn client_deadline_times_out_during_injected_wedge_but_the_update_still_lands() {
    let server = path_server(
        8,
        ServeConfig {
            wedge_epochs: vec![1],
            wedge_for: Duration::from_millis(400),
            ..ServeConfig::unbatched()
        },
    );
    let client = server.client();

    // Epoch 1 wedges for 400ms; a 30ms deadline must surface as
    // `TimedOut` long before the epoch commits.
    let t0 = Instant::now();
    let resp = client
        .with_deadline(Duration::from_millis(30))
        .submit(Request::UpdateEdgeWeight { u: 0, v: 1, w: 7 })
        .wait();
    assert_eq!(resp, Response::TimedOut, "deadline fires inside the wedge");
    assert!(
        t0.elapsed() < Duration::from_millis(350),
        "TimedOut returned before the wedge cleared ({:?})",
        t0.elapsed()
    );

    // The deadline bounds *waiting*, not execution: the wedged epoch
    // still commits the update, and a later (deadlined) read sees it.
    let resp = client
        .with_deadline(Duration::from_secs(10))
        .submit(Request::PathSum { u: 0, v: 1 })
        .wait();
    assert_eq!(
        resp,
        Response::Sum(Some(7)),
        "timed-out update committed anyway"
    );
    server.shutdown();
}

#[test]
fn watchdog_rearms_across_repeated_wedge_episodes() {
    // Epochs 1 and 3 wedge (unbatched: epoch ordinal == submission
    // ordinal). The watchdog must declare a stall, recover, and then
    // declare the *second* stall too — stall count strictly monotone,
    // /ready flipping 503 → 200 → 503 → 200.
    let server = path_server(
        8,
        ServeConfig {
            stall_deadline: Some(Duration::from_millis(80)),
            wedge_epochs: vec![1, 3],
            wedge_for: Duration::from_millis(700),
            ..ServeConfig::unbatched()
        },
    );
    let obs = server
        .serve_obs(ObsServerConfig::default())
        .expect("bind endpoint");
    let addr = obs.local_addr();
    let client = server.client();

    let wait_ready = |want_503: bool, what: &str| {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let (status, _) = http_get(addr, "/ready");
            if status.contains(if want_503 { "503" } else { "200" }) {
                return;
            }
            assert!(Instant::now() < deadline, "{what}: last status {status}");
            std::thread::sleep(Duration::from_millis(10));
        }
    };

    // Episode one: epoch 1 wedges.
    let h = client.submit(Request::UpdateEdgeWeight { u: 0, v: 1, w: 1 });
    wait_ready(true, "first wedge never flipped /ready");
    assert_eq!(h.wait(), Response::Updated(Ok(())));
    wait_ready(false, "watchdog never re-armed after the first stall");
    assert_eq!(client.health_view().stalls, 1, "one episode declared");

    // Epoch 2 passes clean — progress between episodes.
    assert_eq!(
        client.submit(Request::Connected { u: 0, v: 1 }).wait(),
        Response::Bool(true)
    );

    // Episode two: epoch 3 wedges. The re-armed watchdog must catch it
    // as a *new* stall, not a continuation.
    let h = client.submit(Request::UpdateEdgeWeight { u: 1, v: 2, w: 2 });
    wait_ready(true, "second wedge never flipped /ready");
    assert_eq!(h.wait(), Response::Updated(Ok(())));
    wait_ready(false, "watchdog never re-armed after the second stall");

    let view = client.health_view();
    assert!(view.healthy && view.ready);
    assert_eq!(view.stalls, 2, "stall count is strictly monotone: 1 then 2");
    assert_eq!(
        client.metrics_snapshot().counter("serve_stalls_total"),
        Some(2)
    );
    drop(obs);
    server.shutdown();
}

#[test]
fn refusals_reach_the_peer_before_the_close() {
    // Each refusal leaves request bytes unread. Closing over them would
    // reset the connection and destroy the status line. The busy
    // endpoint has no connection slot; the other has enough that a
    // refused connection's thread, still draining, never makes it busy.
    let server = path_server(8, ServeConfig::default());
    let endpoint = |max_connections| {
        let cfg = ObsServerConfig {
            max_connections,
            ..ObsServerConfig::default()
        };
        server.serve_obs(cfg).expect("bind endpoint")
    };
    let (obs, busy) = (endpoint(64), endpoint(0));
    let oversized = format!(
        "GET /metrics HTTP/1.0\r\nX-Pad: {}\r\n\r\n",
        "a".repeat(8 << 10)
    );
    let cases: [(SocketAddr, &[u8], &str); 3] = [
        (
            busy.local_addr(),
            b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n",
            "HTTP/1.0 503 ",
        ),
        (
            obs.local_addr(),
            b"POST /metrics HTTP/1.0\r\nHost: t\r\n\r\n",
            "HTTP/1.0 405 ",
        ),
        (obs.local_addr(), oversized.as_bytes(), "HTTP/1.0 431 "),
    ];
    for (addr, request, status) in cases {
        for i in 0..20 {
            let resp = exchange(addr, request, false)
                .unwrap_or_else(|e| panic!("{status:?} connection {i} ended in {e}"));
            assert!(
                resp.starts_with(status.as_bytes()),
                "{status:?} connection {i} read {:?}",
                String::from_utf8_lossy(&resp)
            );
        }
    }
    drop((obs, busy));
    server.shutdown();
}

#[test]
fn a_get_with_a_body_reads_its_response_not_a_reset() {
    // The head read stops at the blank line and leaves the body unread.
    // Closing over it would reset the connection and destroy the 200.
    let server = path_server(8, ServeConfig::default());
    let obs = server
        .serve_obs(ObsServerConfig::default())
        .expect("bind endpoint");
    let mut request = b"GET /health HTTP/1.0\r\nContent-Length: 2000\r\n\r\n".to_vec();
    request.extend_from_slice(&[b'x'; 2000]);
    for i in 0..20 {
        let resp = exchange(obs.local_addr(), &request, false)
            .unwrap_or_else(|e| panic!("connection {i} ended in {e}"));
        assert!(
            resp.starts_with(b"HTTP/1.0 200 "),
            "connection {i} read {:?}",
            String::from_utf8_lossy(&resp)
        );
    }
    drop(obs);
    server.shutdown();
}

#[test]
fn refused_peers_that_stay_open_leave_the_endpoint_available() {
    // As many peers as the default endpoint has slots send a refused
    // request, read the refusal to the endpoint's half-close, and keep
    // their sockets open. Their connections' threads are still
    // discarding, but a written response frees its slot, so a scraper
    // gets its answer instead of a 503.
    let server = path_server(8, ServeConfig::default());
    let cfg = ObsServerConfig::default();
    let slots = cfg.max_connections;
    let obs = server.serve_obs(cfg).expect("bind endpoint");
    let addr = obs.local_addr();
    let held: Vec<TcpStream> = (0..slots)
        .map(|i| {
            let mut s = TcpStream::connect_timeout(&addr, Duration::from_secs(5)).expect("connect");
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            s.write_all(b"POST /metrics HTTP/1.0\r\n\r\n")
                .expect("send request");
            let mut resp = Vec::new();
            s.read_to_end(&mut resp).expect("read the refusal");
            assert!(
                resp.starts_with(b"HTTP/1.0 405 "),
                "peer {i} read {:?}",
                String::from_utf8_lossy(&resp)
            );
            s
        })
        .collect();
    let (status, body) = http_get(addr, "/health");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"healthy\":true"), "{body}");
    drop(held);
    drop(obs);
    server.shutdown();
}

#[test]
fn hostile_requests_end_in_a_status_line_or_a_clean_close() {
    let server = path_server(8, ServeConfig::default());
    let obs = server
        .serve_obs(ObsServerConfig::default())
        .expect("bind endpoint");
    let addr = obs.local_addr();
    let mut state = 0x5eed_u64;
    let mut next = |bound: usize| {
        state = rcforest::obs::splitmix64(state);
        (state % bound as u64) as usize
    };
    let valid = b"GET /metrics HTTP/1.0\r\nHost: t\r\n\r\n";
    for case in 0..200 {
        let request: Vec<u8> = match case % 4 {
            // Random bytes.
            0 => (0..1 + next(600)).map(|_| next(256) as u8).collect(),
            // A head cut short; the peer then half-closes.
            1 => valid[..next(valid.len())].to_vec(),
            // A head over the 4 KiB cap.
            2 => {
                let mut r = b"GET /".to_vec();
                r.extend((0..4_097 + next(12_000)).map(|_| b'a' + next(26) as u8));
                r
            }
            // Any method but GET and HEAD.
            _ => {
                let m = ["POST", "PUT", "DELETE", "OPTIONS", "TRACE", "get"][next(6)];
                format!("{m} /metrics HTTP/1.0\r\n\r\n").into_bytes()
            }
        };
        let half_close = case % 4 == 1 || next(2) == 0;
        match exchange(addr, &request, half_close) {
            Ok(resp) => assert!(
                resp.is_empty() || resp.starts_with(b"HTTP/1.0 "),
                "case {case} read {:?}",
                String::from_utf8_lossy(&resp)
            ),
            Err(e) => panic!("case {case} ({} bytes) ended in {e}", request.len()),
        }
    }
    let (status, body) = http_get(addr, "/health");
    assert!(status.contains("200"), "{status}");
    assert!(body.contains("\"healthy\":true"), "{body}");
    drop(obs);
    server.shutdown();
}
