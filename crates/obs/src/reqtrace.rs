//! Per-request causal tracing: spans, deterministic sampling, the
//! sampled/slow trace rings, and latency exemplars.
//!
//! A [`RequestTrace`] attributes one request's end-to-end latency to a
//! causally ordered sequence of [`Span`]s — queue wait, then the epoch
//! phases the request rode through (drain, admit, commit, WAL append,
//! query fan-out), then respond. Traces are captured
//! for a deterministic 1-in-N sample of requests ([`trace_sampled`])
//! plus *every* request that exceeds a slow threshold, and retained in
//! the fixed-capacity rings of a [`TraceSink`]. Each captured trace also
//! registers a latency [`Exemplars`] entry, so a p99 spike in the
//! latency histogram links back to concrete trace ids.
//!
//! Everything is `std`-only; a capture is one short `Mutex` push of a
//! `Copy` record, and the sampling decision is a single 64-bit mix.

use crate::trace::Ring;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maximum spans one [`RequestTrace`] can carry (the deepest request
/// path — queue, drain, admit, commit, wal, query, respond — uses 7).
pub const MAX_SPANS: usize = 10;

/// One contiguous interval of a request's life, relative to its submit
/// instant. Spans are laid end to end: `start_ns` is non-decreasing and
/// each span begins where the previous one ended, so their durations sum
/// to the request's end-to-end latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Span {
    /// Phase name (`"queue"`, `"drain"`, …, `"query:path"`, `"respond"`).
    pub name: &'static str,
    /// Offset from the request's submit instant.
    pub start_ns: u64,
    /// Span duration.
    pub dur_ns: u64,
}

/// One captured request trace. `Copy` (fixed span array, `&'static`
/// names) so rings and dumps never allocate per record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RequestTrace {
    /// Trace id — stable across runs for the same submission stream
    /// (rc-serve uses the global submission sequence number + 1, so `0`
    /// never occurs and can mean "no trace context").
    pub trace_id: u64,
    /// The epoch that served the request.
    pub epoch: u64,
    /// Request kind (`"link"`, `"path_sum"`, …).
    pub kind: &'static str,
    /// Captured by the deterministic 1-in-N sampler.
    pub sampled: bool,
    /// Captured because end-to-end latency exceeded the slow threshold.
    pub slow: bool,
    /// Measured end-to-end latency (submit to response slot fill).
    pub e2e_ns: u64,
    /// The spans, causally ordered; only the first `nspans` are valid.
    pub spans: [Span; MAX_SPANS],
    /// Number of valid entries in `spans`.
    pub nspans: usize,
}

impl Default for RequestTrace {
    fn default() -> Self {
        RequestTrace {
            trace_id: 0,
            epoch: 0,
            kind: "",
            sampled: false,
            slow: false,
            e2e_ns: 0,
            spans: [Span::default(); MAX_SPANS],
            nspans: 0,
        }
    }
}

impl RequestTrace {
    /// The valid spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans[..self.nspans]
    }

    /// Append a span; silently drops past [`MAX_SPANS`] (a wiring bug —
    /// the serve layer never emits that many).
    pub fn push_span(&mut self, name: &'static str, start_ns: u64, dur_ns: u64) {
        if self.nspans < MAX_SPANS {
            self.spans[self.nspans] = Span {
                name,
                start_ns,
                dur_ns,
            };
            self.nspans += 1;
        }
    }

    /// Sum of all span durations (equals `e2e_ns` for a well-formed
    /// trace, since spans partition the request's lifetime).
    pub fn span_sum_ns(&self) -> u64 {
        self.spans().iter().map(|s| s.dur_ns).sum()
    }

    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"trace_id\":{},\"epoch\":{},\"kind\":\"{}\",\"sampled\":{},\
             \"slow\":{},\"e2e_ns\":{},\"spans\":[",
            self.trace_id, self.epoch, self.kind, self.sampled, self.slow, self.e2e_ns
        );
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.name, s.start_ns, s.dur_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// SplitMix64 — the mixing function behind [`trace_sampled`]. Public so
/// tests (and future sharded routers) can reproduce the decision.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic 1-in-`sample` trace sampling: pure function of
/// `(seed, trace_id)`, so the same seed and submission stream select the
/// same trace-id set on every run. `sample == 0` disables sampling,
/// `sample == 1` captures everything.
pub fn trace_sampled(seed: u64, trace_id: u64, sample: u64) -> bool {
    match sample {
        0 => false,
        1 => true,
        n => splitmix64(seed ^ trace_id).is_multiple_of(n),
    }
}

/// Number of latency octaves [`Exemplars`] distinguishes (covers 1 ns to
/// ~584 years; bucket `i` holds latencies in `[2^i, 2^(i+1))`).
pub const EXEMPLAR_BUCKETS: usize = 64;

/// One exemplar: the most recent trace id observed in a latency bucket.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExemplarEntry {
    /// Metric the exemplar belongs to (e.g. `"serve_request_latency_ns"`).
    pub metric: &'static str,
    /// Inclusive upper bound of the latency octave, in ns.
    pub bucket_ns: u64,
    /// Trace id of the last request observed in the bucket.
    pub trace_id: u64,
    /// That request's exact recorded latency.
    pub latency_ns: u64,
}

/// Last-write-wins trace-id exemplars per latency octave: two relaxed
/// atomic stores per observation, so attaching exemplars to a histogram
/// path costs nothing measurable. A reader pairing `(trace_id, ns)` may
/// observe a torn pair across a racing write — both halves are still
/// valid recent observations of the bucket, which is all an exemplar
/// promises.
#[derive(Debug)]
pub struct Exemplars {
    ids: [AtomicU64; EXEMPLAR_BUCKETS],
    ns: [AtomicU64; EXEMPLAR_BUCKETS],
}

impl Default for Exemplars {
    fn default() -> Self {
        Exemplars {
            ids: std::array::from_fn(|_| AtomicU64::new(0)),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Exemplars {
    fn bucket_of(latency_ns: u64) -> usize {
        (63 - latency_ns.max(1).leading_zeros()) as usize
    }

    /// Record `trace_id` as the current exemplar for `latency_ns`'s
    /// octave. `trace_id == 0` (no trace context) is ignored.
    pub fn observe(&self, latency_ns: u64, trace_id: u64) {
        if trace_id == 0 {
            return;
        }
        let b = Self::bucket_of(latency_ns);
        self.ids[b].store(trace_id, Ordering::Relaxed);
        self.ns[b].store(latency_ns, Ordering::Relaxed);
    }

    /// Every populated bucket, smallest latency first, labelled with
    /// `metric`.
    pub fn dump(&self, metric: &'static str) -> Vec<ExemplarEntry> {
        (0..EXEMPLAR_BUCKETS)
            .filter_map(|b| {
                let trace_id = self.ids[b].load(Ordering::Relaxed);
                (trace_id != 0).then(|| ExemplarEntry {
                    metric,
                    bucket_ns: if b >= 63 { u64::MAX } else { (2u64 << b) - 1 },
                    trace_id,
                    latency_ns: self.ns[b].load(Ordering::Relaxed),
                })
            })
            .collect()
    }
}

/// Point-in-time dump of a [`TraceSink`]: the sampled ring, the slow
/// ring, exemplars, and the capture totals its owner counts. Serialized
/// by the `/traces` route of [`crate::ObsServer`].
#[derive(Clone, Debug, Default)]
pub struct TraceDump {
    /// Recently captured sampled traces, oldest first.
    pub recent: Vec<RequestTrace>,
    /// Recently captured slow traces, oldest first.
    pub slow: Vec<RequestTrace>,
    /// Latency exemplars (possibly from several metrics).
    pub exemplars: Vec<ExemplarEntry>,
    /// Sampled traces captured since startup (ring overflow included).
    pub sampled_total: u64,
    /// Slow traces captured since startup.
    pub slow_total: u64,
}

impl TraceDump {
    /// Render as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"sampled_total\":{},\"slow_total\":{},\"recent\":[",
            self.sampled_total, self.slow_total
        );
        for (i, t) in self.recent.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"slow\":[");
        for (i, t) in self.slow.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&t.to_json());
        }
        out.push_str("],\"exemplars\":[");
        for (i, e) in self.exemplars.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"metric\":\"{}\",\"bucket_ns\":{},\"trace_id\":{},\"latency_ns\":{}}}",
                e.metric, e.bucket_ns, e.trace_id, e.latency_ns
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Bounded rings of captured request traces: one for the deterministic
/// sample, one for slow requests (always captured, independent of
/// sampling), plus the latency exemplars every capture feeds. The sink
/// keeps no capture totals; its owner counts those in its metrics
/// registry.
#[derive(Debug)]
pub struct TraceSink {
    recent: Ring<RequestTrace>,
    slow: Ring<RequestTrace>,
    /// Exemplars fed by every capture (sampled or slow).
    pub exemplars: Exemplars,
}

impl TraceSink {
    /// Sink with `cap` sampled slots and `slow_cap` slow slots (min 1
    /// each).
    pub fn new(cap: usize, slow_cap: usize) -> Self {
        TraceSink {
            recent: Ring::new(cap),
            slow: Ring::new(slow_cap),
            exemplars: Exemplars::default(),
        }
    }

    /// Retain `t` in the ring(s) its flags select and feed the latency
    /// exemplars. A trace that is neither sampled nor slow only feeds
    /// the exemplars.
    pub fn push(&self, t: RequestTrace) {
        self.exemplars.observe(t.e2e_ns, t.trace_id);
        if t.sampled {
            self.recent.push(t);
        }
        if t.slow {
            self.slow.push(t);
        }
    }

    /// Copy out both rings + the exemplars (labelled
    /// `"serve_request_latency_ns"` — the metric every capture feeds).
    /// The capture totals read zero: the owner fills them from its
    /// registry.
    pub fn dump(&self) -> TraceDump {
        TraceDump {
            recent: self.recent.to_vec(),
            slow: self.slow.to_vec(),
            exemplars: self.exemplars.dump("serve_request_latency_ns"),
            ..TraceDump::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_seed_sensitive() {
        let picked: Vec<u64> = (1..=10_000)
            .filter(|&id| trace_sampled(7, id, 64))
            .collect();
        let again: Vec<u64> = (1..=10_000)
            .filter(|&id| trace_sampled(7, id, 64))
            .collect();
        assert_eq!(picked, again, "same seed + ids => same sample set");
        let other: Vec<u64> = (1..=10_000)
            .filter(|&id| trace_sampled(8, id, 64))
            .collect();
        assert_ne!(picked, other, "a different seed selects differently");
    }

    #[test]
    fn sampled_fraction_tracks_one_in_n() {
        for n in [4u64, 16, 64] {
            let hits = (1..=100_000u64)
                .filter(|&id| trace_sampled(42, id, n))
                .count() as f64;
            let expect = 100_000.0 / n as f64;
            assert!(
                (hits - expect).abs() < expect * 0.15,
                "1-in-{n}: {hits} hits vs expected {expect}"
            );
        }
    }

    #[test]
    fn sample_edge_rates() {
        assert!(!trace_sampled(1, 5, 0), "0 disables");
        assert!(trace_sampled(1, 5, 1), "1 captures all");
    }

    #[test]
    fn trace_spans_and_json() {
        let mut t = RequestTrace {
            trace_id: 9,
            epoch: 2,
            kind: "path_sum",
            sampled: true,
            e2e_ns: 100,
            ..RequestTrace::default()
        };
        t.push_span("queue", 0, 40);
        t.push_span("drain", 40, 10);
        t.push_span("respond", 50, 50);
        assert_eq!(t.span_sum_ns(), 100);
        assert_eq!(t.spans().len(), 3);
        let json = t.to_json();
        assert!(json.contains("\"trace_id\":9"));
        assert!(json.contains("\"name\":\"drain\",\"start_ns\":40,\"dur_ns\":10"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn span_overflow_is_dropped_not_panicked() {
        let mut t = RequestTrace::default();
        for i in 0..MAX_SPANS + 3 {
            t.push_span("x", i as u64, 1);
        }
        assert_eq!(t.nspans, MAX_SPANS);
    }

    #[test]
    fn sink_rings_are_bounded_and_totaled() {
        let sink = TraceSink::new(4, 2);
        for i in 1..=10u64 {
            sink.push(RequestTrace {
                trace_id: i,
                sampled: true,
                slow: i % 2 == 0,
                e2e_ns: i * 1000,
                ..RequestTrace::default()
            });
        }
        let d = sink.dump();
        assert_eq!(d.recent.len(), 4, "sampled ring keeps the newest 4");
        assert_eq!(d.recent.last().unwrap().trace_id, 10);
        assert_eq!(d.slow.len(), 2);
        assert!(!d.exemplars.is_empty());
        let json = d.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn exemplars_bucket_by_octave() {
        let ex = Exemplars::default();
        ex.observe(600, 3);
        ex.observe(1_000, 4); // same octave [512, 1024): overwrites
        ex.observe(1_000_000, 5);
        ex.observe(123, 0); // no trace context: ignored
        let dump = ex.dump("m");
        assert_eq!(dump.len(), 2);
        assert_eq!(dump[0].trace_id, 4);
        assert_eq!(dump[0].latency_ns, 1_000);
        assert!(dump[0].bucket_ns >= 1_000);
        assert_eq!(dump[1].trace_id, 5);
    }
}
