//! Live observability endpoint: a zero-dependency blocking
//! `std::net::TcpListener` server speaking HTTP/1.0 **and** the
//! rc-store binary frame discipline on the same port.
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
//! A connection whose first bytes are not an HTTP method is treated as a
//! binary peer: one length-prefixed CRC-checked frame (byte-compatible
//! with the rc-store WAL codec — see [`frame`]) carrying the command
//! `DUMP_TELEMETRY`, answered with one frame whose payload is the full
//! telemetry JSON. This is the seed of the ROADMAP's sharded-serve
//! front door: the first real socket in the codebase, with the frame
//! codec the future request protocol will inherit.
//!
//! The server is deliberately boring: opt-in, one accept thread, one
//! short-lived thread per connection bounded by
//! [`ObsServerConfig::max_connections`] (excess connections get an
//! immediate `503`), and read/write deadlines on every socket so a
//! stuck scraper cannot pin a thread.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use crate::registry::MetricsSnapshot;
use crate::reqtrace::TraceDump;
use crate::trace::{EpochTrace, ENGINE_NAMES, FAMILY_NAMES};

/// Length-prefixed, CRC-checksummed frames — byte-compatible with the
/// rc-store WAL codec (`len: u32 LE | crc32(payload): u32 LE | payload`)
/// so the future network front door and the durability layer share one
/// wire discipline. Re-implemented here (rather than imported) because
/// rc-store depends on rc-obs, not the other way around; a root-crate
/// test pins the two codecs byte-for-byte.
pub mod frame {
    /// Upper bound on one frame's payload accepted by the endpoint
    /// (1 MiB — telemetry dumps are small; the WAL's 64 MiB bound does
    /// not apply to the observability socket).
    pub const MAX_FRAME_LEN: u32 = 1 << 20;

    /// Bytes of frame header (`len` + `crc`).
    pub const FRAME_HEADER: usize = 8;

    /// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) —
    /// identical to the rc-store WAL checksum.
    pub fn crc32(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut k = 0;
                while k < 8 {
                    c = if c & 1 != 0 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    k += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        };
        let mut crc = !0u32;
        for &b in bytes {
            crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    /// Append one frame (header + payload) to `out`.
    pub fn encode_frame(out: &mut Vec<u8>, payload: &[u8]) {
        assert!(
            payload.len() as u64 <= MAX_FRAME_LEN as u64,
            "oversized frame"
        );
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    /// Decode the frame starting at `buf[at..]`. Returns the payload and
    /// the offset just past the frame, or `None` if the bytes do not
    /// form a complete checksum-valid frame.
    pub fn decode_frame(buf: &[u8], at: usize) -> Option<(&[u8], usize)> {
        let header = buf.get(at..at + FRAME_HEADER)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return None;
        }
        let start = at + FRAME_HEADER;
        let payload = buf.get(start..start + len as usize)?;
        if crc32(payload) != crc {
            return None;
        }
        Some((payload, start + len as usize))
    }
}

/// The binary command a frame peer sends to fetch the full telemetry
/// dump (mirrors the serve tier's `Request::DumpTelemetry`).
pub const DUMP_TELEMETRY_CMD: &[u8] = b"DUMP_TELEMETRY";

/// Configuration for [`ObsServer::start`]. The endpoint is opt-in; the
/// defaults bind an ephemeral loopback port with tight deadlines.
#[derive(Clone, Debug)]
pub struct ObsServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks an ephemeral port; use
    /// [`ObsServer::local_addr`] to discover it).
    pub bind: String,
    /// Connections served concurrently; excess get an immediate `503`.
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

/// The full telemetry dump a binary `DUMP_TELEMETRY` frame receives.
fn full_dump_json(source: &dyn ObsSource) -> String {
    format!(
        "{{\"health\":{},\"metrics\":{},\"flight\":{},\"traces\":{}}}",
        source.health().to_json(),
        source.metrics().to_json(),
        flight_json(&source.flight()),
        source.traces().to_json()
    )
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
                        let mut s = stream;
                        let _ = s.write_all(
                            b"HTTP/1.0 503 Service Unavailable\r\nConnection: close\r\n\
                              Content-Length: 9\r\n\r\nbusy\ntry\n",
                        );
                        continue;
                    }
                    inflight.fetch_add(1, Ordering::Relaxed);
                    let inflight2 = Arc::clone(&inflight);
                    let source2 = Arc::clone(&source);
                    let _ = thread::Builder::new()
                        .name("rc-obs-conn".into())
                        .spawn(move || {
                            let _ = handle_connection(stream, &*source2);
                            inflight2.fetch_sub(1, Ordering::Relaxed);
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

fn handle_connection(mut stream: TcpStream, source: &dyn ObsSource) -> std::io::Result<()> {
    let mut head = [0u8; 4];
    stream.read_exact(&mut head)?;
    if &head == b"GET " || &head == b"HEAD" {
        handle_http(stream, source, &head == b"GET ")
    } else if head.iter().all(|b| b.is_ascii_uppercase()) {
        // Some other HTTP method (POST, PUT, …): refuse politely.
        write_http(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain",
            "only GET is served\n",
            true,
        )
    } else {
        handle_binary(stream, source, head)
    }
}

fn handle_http(
    mut stream: TcpStream,
    source: &dyn ObsSource,
    with_body: bool,
) -> std::io::Result<()> {
    // Read until the end of the request head (we ignore headers), with a
    // hard cap so a hostile peer cannot grow the buffer.
    let mut buf = Vec::with_capacity(256);
    let mut chunk = [0u8; 256];
    while !buf.windows(2).any(|w| w == b"\n\n") && !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > 4096 {
            return write_http(
                &mut stream,
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
    write_http_full(&mut stream, status, ctype, &body, with_body)
}

fn write_http(
    stream: &mut TcpStream,
    status: &str,
    ctype: &str,
    body: &str,
    with_body: bool,
) -> std::io::Result<()> {
    write_http_full(stream, status, ctype, body, with_body)
}

fn write_http_full(
    stream: &mut TcpStream,
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
    stream.flush()
}

/// Binary peer: `head` already holds the first 4 bytes of the frame
/// header (the little-endian length word). Read the rest, verify the
/// CRC, answer known commands with one response frame.
fn handle_binary(
    mut stream: TcpStream,
    source: &dyn ObsSource,
    head: [u8; 4],
) -> std::io::Result<()> {
    let len = u32::from_le_bytes(head);
    if len > frame::MAX_FRAME_LEN {
        return Ok(()); // garbage length word: drop the connection
    }
    let mut rest = vec![0u8; 4 + len as usize];
    stream.read_exact(&mut rest)?;
    let mut full = Vec::with_capacity(frame::FRAME_HEADER + len as usize);
    full.extend_from_slice(&head);
    full.extend_from_slice(&rest);
    let Some((payload, _)) = frame::decode_frame(&full, 0) else {
        let mut out = Vec::new();
        frame::encode_frame(&mut out, b"ERR bad checksum");
        return stream.write_all(&out);
    };
    let mut out = Vec::new();
    if payload == DUMP_TELEMETRY_CMD {
        frame::encode_frame(&mut out, full_dump_json(source).as_bytes());
    } else {
        frame::encode_frame(&mut out, b"ERR unknown command");
    }
    stream.write_all(&out)?;
    stream.flush()
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
    fn binary_frame_round_trips_telemetry() {
        let (server, _src) = start_stub();
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let mut req = Vec::new();
        frame::encode_frame(&mut req, DUMP_TELEMETRY_CMD);
        s.write_all(&req).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (payload, consumed) = frame::decode_frame(&resp, 0).expect("valid response frame");
        assert_eq!(consumed, resp.len(), "exactly one frame");
        let json = std::str::from_utf8(payload).unwrap();
        assert!(json.contains("\"metrics\":"));
        assert!(json.contains("\"flight\":"));
        assert!(json.contains("\"traces\":"));
        assert!(json.contains("\"healthy\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn binary_unknown_command_and_bad_crc() {
        let (server, _src) = start_stub();
        // Unknown command.
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let mut req = Vec::new();
        frame::encode_frame(&mut req, b"WHAT");
        s.write_all(&req).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (payload, _) = frame::decode_frame(&resp, 0).unwrap();
        assert!(payload.starts_with(b"ERR unknown"));

        // Corrupted checksum.
        let mut s = TcpStream::connect(server.local_addr()).unwrap();
        let mut req = Vec::new();
        frame::encode_frame(&mut req, DUMP_TELEMETRY_CMD);
        let last = req.len() - 1;
        req[last] ^= 0x40;
        s.write_all(&req).unwrap();
        let mut resp = Vec::new();
        s.read_to_end(&mut resp).unwrap();
        let (payload, _) = frame::decode_frame(&resp, 0).unwrap();
        assert!(payload.starts_with(b"ERR bad checksum"));
    }

    #[test]
    fn crc_matches_known_vectors() {
        assert_eq!(frame::crc32(b""), 0);
        assert_eq!(frame::crc32(b"123456789"), 0xCBF4_3926);
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
