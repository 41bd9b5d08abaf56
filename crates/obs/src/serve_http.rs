//! Live observability endpoint: a zero-dependency blocking
//! `std::net::TcpListener` server speaking HTTP/1.0.
//!
//! Routes (all `GET`, `Connection: close`):
//!
//! | route           | body                                              |
//! |-----------------|---------------------------------------------------|
//! | `/metrics`      | Prometheus text exposition (version 0.0.4)        |
//! | `/metrics.json` | the same snapshot as JSON                         |
//! | `/health`       | liveness JSON; `503` while stalled or failed      |
//! | `/ready`        | readiness JSON; `503` while stalled/shutting down |
//! | `/flight`       | flight-recorder dump ([`EpochTrace`] array)       |
//! | `/traces`       | sampled + slow request traces ([`TraceDump`])     |
//!
//! Everything else is refused with a status line: `405` for any method
//! but `GET`/`HEAD` (bytes that are not HTTP included), `431` for a
//! request head over 4 KiB, and `503` when every connection slot is
//! busy. Every response, routes and refusals alike, goes through one
//! writer that answers before the close: it half-closes and discards
//! what the peer still sends, because closing a socket with unread input
//! (a refused request, or a body after a `GET` head) makes the kernel
//! send a reset, which destroys the response before the peer reads it.
//!
//! The server is deliberately boring: opt-in, one accept thread, one
//! short-lived thread per connection, at most
//! [`ObsServerConfig::max_connections`] of them preparing a response
//! (excess connections get an immediate `503`; a connection's slot frees
//! once its response is written, before the discard), and read/write
//! deadlines on every socket so a stuck scraper cannot pin a thread.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::registry::MetricsSnapshot;
use crate::reqtrace::TraceDump;
use crate::trace::{EpochTrace, ENGINE_NAMES, FAMILY_NAMES};

/// Most bytes a response discards from the peer before closing anyway.
const DRAIN_LIMIT: usize = 64 << 10;

/// Configuration for [`ObsServer::start`]. The endpoint is opt-in; the
/// defaults bind an ephemeral loopback port with tight deadlines.
#[derive(Clone, Debug)]
pub struct ObsServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; use
    /// [`ObsServer::local_addr`] to discover it).
    pub bind: String,
    /// Connections answered at once (a connection's slot frees once its
    /// response is written); excess get an immediate `503`.
    pub max_connections: usize,
    /// Per-connection socket read deadline.
    pub read_timeout: Duration,
    /// Per-connection socket write deadline.
    pub write_timeout: Duration,
}

impl Default for ObsServerConfig {
    fn default() -> Self {
        ObsServerConfig {
            bind: "127.0.0.1:0".to_string(),
            max_connections: 4,
            read_timeout: Duration::from_secs(2),
            write_timeout: Duration::from_secs(2),
        }
    }
}

/// Liveness/readiness view rendered by `/health` and `/ready`.
#[derive(Clone, Debug)]
pub struct HealthView {
    /// No active stall or permanent failure.
    pub healthy: bool,
    /// Healthy *and* accepting requests (false during shutdown).
    pub ready: bool,
    /// Stalls declared since startup.
    pub stalls: u64,
    /// Human-readable detail (stall phase, queue depth, …).
    pub detail: String,
}

impl HealthView {
    fn to_json(&self) -> String {
        format!(
            "{{\"healthy\":{},\"ready\":{},\"stalls\":{},\"detail\":\"{}\"}}",
            self.healthy,
            self.ready,
            self.stalls,
            crate::registry::escape_json(&self.detail)
        )
    }
}

/// What the endpoint serves — implemented by the serve tier (and by
/// test stubs). Every method is a point-in-time snapshot; the endpoint
/// calls them per request on its own threads, so implementations must
/// be cheap and never block on the epoch loop.
pub trait ObsSource: Send + Sync {
    /// Current metrics snapshot.
    fn metrics(&self) -> MetricsSnapshot;
    /// Flight-recorder dump (newest epochs, oldest first).
    fn flight(&self) -> Vec<EpochTrace>;
    /// Sampled + slow request traces.
    fn traces(&self) -> TraceDump;
    /// Liveness view.
    fn health(&self) -> HealthView;
}

/// Render one [`EpochTrace`] as a JSON object (used by `/flight`).
pub fn epoch_trace_json(t: &EpochTrace) -> String {
    let mut out = format!(
        "{{\"epoch\":{},\"batch\":{},\"updates\":{},\"queries\":{},\"flushes\":{},\
         \"queue_depth\":{},\"drain_ns\":{},\"admit_ns\":{},\"commit_ns\":{},\
         \"wal_ns\":{},\"query_ns\":{},\"respond_ns\":{},\"epoch_wall_ns\":{},\"failed\":{},\
         \"families\":{{",
        t.epoch,
        t.batch,
        t.updates,
        t.queries,
        t.flushes,
        t.queue_depth,
        t.drain_ns,
        t.admit_ns,
        t.commit_ns,
        t.wal_ns,
        t.query_ns,
        t.respond_ns,
        t.epoch_wall_ns,
        t.failed,
    );
    let mut first = true;
    for (i, name) in FAMILY_NAMES.iter().enumerate() {
        if t.family_counts[i] == 0 && t.family_ns[i] == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"count\":{},\"ns\":{}",
            name, t.family_counts[i], t.family_ns[i]
        ));
        // The engine appears only when the serve tier recorded one,
        // keeping pre-dispatch traces byte-stable.
        if t.family_engine[i] > 0 {
            let engine = ENGINE_NAMES
                .get(t.family_engine[i] as usize - 1)
                .unwrap_or(&"unknown");
            out.push_str(&format!(",\"engine\":\"{engine}\""));
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn flight_json(traces: &[EpochTrace]) -> String {
    let mut out = String::from("[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&epoch_trace_json(t));
    }
    out.push(']');
    out
}

/// Handle to the running endpoint. Dropping it stops the accept loop
/// and joins the accept thread (in-flight connections finish on their
/// own deadlines).
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl ObsServer {
    /// Bind `cfg.bind` and start serving `source`.
    pub fn start(cfg: ObsServerConfig, source: Arc<dyn ObsSource>) -> std::io::Result<ObsServer> {
        let listener = TcpListener::bind(&cfg.bind)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let inflight = Arc::new(AtomicUsize::new(0));
        let accept_thread = thread::Builder::new()
            .name("rc-obs-endpoint".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop2.load(Ordering::Relaxed) {
                        break;
                    }
                    let stream = match conn {
                        Ok(s) => s,
                        Err(_) => continue,
                    };
                    let _ = stream.set_read_timeout(Some(cfg.read_timeout));
                    let _ = stream.set_write_timeout(Some(cfg.write_timeout));
                    if inflight.load(Ordering::Relaxed) >= cfg.max_connections {
                        // No slot: the accept thread never waits on a peer.
                        let _ = respond(
                            stream,
                            None,
                            "503 Service Unavailable",
                            "text/plain",
                            "busy\n",
                            true,
                        );
                        continue;
                    }
                    inflight.fetch_add(1, Ordering::Relaxed);
                    let slot = Slot(Arc::clone(&inflight));
                    let source2 = Arc::clone(&source);
                    let _ = thread::Builder::new()
                        .name("rc-obs-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, slot, &*source2);
                        });
                }
            })?;
        Ok(ObsServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves `:0` ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread (idempotent).
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::Relaxed) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One of the endpoint's [`ObsServerConfig::max_connections`] slots,
/// held by a connection's thread; dropping it frees the slot.
struct Slot(Arc<AtomicUsize>);

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn handle_connection(
    mut stream: TcpStream,
    slot: Slot,
    source: &dyn ObsSource,
) -> std::io::Result<()> {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    match &head {
        b"GET " => handle_http(stream, slot, source, true),
        b"HEAD" => handle_http(stream, slot, source, false),
        _ => respond(
            stream,
            Some(slot),
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n",
            true,
        ),
    }
}

fn handle_http(
    mut stream: TcpStream,
    slot: Slot,
    source: &dyn ObsSource,
    with_body: bool,
) -> std::io::Result<()> {
    // Read until the end of the request head (we ignore headers), with a
    // hard cap so a hostile peer cannot grow the buffer.
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !buf.windows(2).any(|w| w == b"\n\n") && !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 4096 {
            return respond(
                stream,
                Some(slot),
                "431 Request Header Fields Too Large",
                "text/plain",
                "header too large\n",
                with_body,
            );
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let line = String::from_utf8_lossy(&buf);
    let path = line.split_whitespace().next().unwrap_or("");
    let health = source.health();
    let (status, ctype, body): (&str, &str, String) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            source.metrics().to_prometheus(),
        ),
        "/metrics.json" => ("200 OK", "application/json", source.metrics().to_json()),
        "/health" => (
            if health.healthy {
                "200 OK"
            } else {
                "503 Service Unavailable"
            },
            "application/json",
            health.to_json(),
        ),
        "/ready" => (
            if health.ready {
                "200 OK"
            } else {
                "503 Service Unavailable"
            },
            "application/json",
            health.to_json(),
        ),
        "/flight" => ("200 OK", "application/json", flight_json(&source.flight())),
        "/traces" => ("200 OK", "application/json", source.traces().to_json()),
        _ => (
            "404 Not Found",
            "text/plain",
            format!("no route {path}; try /metrics /metrics.json /health /ready /flight /traces\n"),
        ),
    };
    respond(stream, Some(slot), status, ctype, &body, with_body)
}

/// Write one response, then close without losing it to a reset: free
/// the connection's `slot`, half-close, and discard what the peer still
/// sends (at most [`DRAIN_LIMIT`] bytes) until it closes its side. A
/// connection thread waits for the peer up to the socket's read
/// deadline; the accept thread, which holds no slot, takes only what has
/// already arrived.
fn respond(
    mut stream: TcpStream,
    slot: Option<Slot>,
    status: &str,
    ctype: &str,
    body: &str,
    with_body: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    if with_body {
        stream.write_all(body.as_bytes())?;
    }
    stream.flush()?;
    let wait = slot.is_some();
    drop(slot);
    stream.shutdown(Shutdown::Write)?;
    let until = match stream.read_timeout()? {
        Some(t) if wait => Some(Instant::now() + t),
        _ => {
            stream.set_nonblocking(true)?;
            None
        }
    };
    let mut sink = [0u8; 1024];
    let mut drained = 0;
    while drained < DRAIN_LIMIT {
        if let Some(until) = until {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break;
            }
            stream.set_read_timeout(Some(left))?;
        }
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;
    use crate::reqtrace::{RequestTrace, TraceSink};

    struct StubSource {
        healthy: AtomicBool,
    }

    impl ObsSource for StubSource {
        fn metrics(&self) -> MetricsSnapshot {
            let reg = MetricsRegistry::new();
            reg.counter("serve_epochs_total").add(7);
            reg.gauge("serve_worker_heartbeat").set(3);
            reg.snapshot()
        }
        fn flight(&self) -> Vec<EpochTrace> {
            vec![EpochTrace {
                epoch: 1,
                batch: 2,
                queries: 1,
                epoch_wall_ns: 500,
                family_counts: [1, 0, 0, 0, 0, 0, 0, 0],
                family_ns: [100, 0, 0, 0, 0, 0, 0, 0],
                ..EpochTrace::default()
            }]
        }
        fn traces(&self) -> TraceDump {
            let sink = TraceSink::new(4, 4);
            sink.push(RequestTrace {
                trace_id: 11,
                sampled: true,
                e2e_ns: 900,
                ..RequestTrace::default()
            });
            sink.dump()
        }
        fn health(&self) -> HealthView {
            let healthy = self.healthy.load(Ordering::Relaxed);
            HealthView {
                healthy,
                ready: healthy,
                stalls: u64::from(!healthy),
                detail: if healthy {
                    String::new()
                } else {
                    "stalled in \"wal\"".into()
                },
            }
        }
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(format!("GET {path} HTTP/1.0\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut buf = String::new();
        s.read_to_string(&mut buf).unwrap();
        let (head, body) = buf.split_once("\r\n\r\n").expect("full response");
        (head.to_string(), body.to_string())
    }

    fn start_stub() -> (ObsServer, Arc<StubSource>) {
        let src = Arc::new(StubSource {
            healthy: AtomicBool::new(true),
        });
        let server = ObsServer::start(ObsServerConfig::default(), src.clone()).unwrap();
        (server, src)
    }

    #[test]
    fn routes_answer_over_tcp() {
        let (server, src) = start_stub();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.0 200"), "{head}");
        assert!(head.contains("Content-Type: text/plain"));
        assert!(body.contains("# TYPE serve_epochs_total counter"));
        assert!(body.contains("serve_worker_heartbeat 3"));

        let (_, json) = get(addr, "/metrics.json");
        assert!(json.contains("\"serve_epochs_total\":7"));

        let (head, body) = get(addr, "/health");
        assert!(head.starts_with("HTTP/1.0 200"));
        assert!(body.contains("\"healthy\":true"));

        let (_, flight) = get(addr, "/flight");
        assert!(flight.starts_with('['));
        assert!(flight.contains("\"epoch\":1"));
        assert!(flight.contains("\"conn\":{\"count\":1,\"ns\":100}"));

        let (_, traces) = get(addr, "/traces");
        assert!(traces.contains("\"trace_id\":11"));
        assert_eq!(traces.matches('{').count(), traces.matches('}').count());

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.0 404"), "{head}");

        // Unhealthy flips /health and /ready to 503.
        src.healthy.store(false, Ordering::Relaxed);
        let (head, body) = get(addr, "/ready");
        assert!(head.starts_with("HTTP/1.0 503"), "{head}");
        assert!(body.contains("stalled in \\\"wal\\\""));
        drop(server);
    }

    #[test]
    fn stop_is_idempotent_and_drop_joins() {
        let (mut server, _src) = start_stub();
        let addr = server.local_addr();
        server.stop();
        server.stop();
        assert!(
            TcpStream::connect(addr)
                .map(|mut s| {
                    let _ = s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n");
                    let mut b = String::new();
                    let _ = s.read_to_string(&mut b);
                    b.is_empty()
                })
                .unwrap_or(true),
            "stopped server no longer answers"
        );
    }
}
