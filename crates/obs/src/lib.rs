//! # rc-obs — observability for the rcforest stack
//!
//! Zero-dependency metrics and tracing shared by rc-serve, rc-store,
//! the bench harness, and the work-stealing pool shim:
//!
//! - [`Histogram`] — the concurrent quarter-octave latency histogram
//!   (promoted from rc-serve), with [`Histogram::merge`] for
//!   aggregating per-thread or per-family histograms.
//! - [`MetricsRegistry`] — named counters/gauges/histograms with
//!   lock-free recording, point-in-time [`MetricsSnapshot`]s, and
//!   Prometheus-text / JSON exports.
//! - [`FlightRecorder`] — a bounded ring of [`EpochTrace`] records
//!   attributing each epoch's wall time to its phases (drain, admission,
//!   commit, WAL, query fan-out per family, respond), dumpable on demand
//!   and on worker failure.
//! - [`RequestTrace`] / [`TraceSink`] — per-request causal span traces
//!   with deterministic 1-in-N sampling ([`trace_sampled`]), an
//!   always-capture slow-request ring, and latency [`Exemplars`]
//!   linking histogram buckets back to trace ids.
//! - [`ObsServer`] — an opt-in, zero-dep blocking TCP endpoint serving
//!   `/metrics`, `/metrics.json`, `/health`, `/ready`, `/flight`, and
//!   `/traces` over HTTP/1.0. Other requests are refused with a status
//!   line; every response, refusals included, reaches the peer before
//!   the close.
//! - [`Watchdog`] — an epoch-stall detector that flips a shared
//!   [`HealthState`] (and thus `/health` + `/ready`) when a watched
//!   component stays busy without progress past a deadline.
//!
//! Everything here is `std`-only and allocation-free on the record
//! paths; see the README "Observability" section for the metric-name
//! table and measured overhead.

mod histogram;
mod registry;
mod reqtrace;
mod serve_http;
mod trace;
mod watchdog;

pub use histogram::{Histogram, HistogramSummary};
pub use registry::{Counter, Gauge, MetricValue, MetricsRegistry, MetricsSnapshot};
pub use reqtrace::{
    splitmix64, trace_sampled, ExemplarEntry, Exemplars, RequestTrace, Span, TraceDump, TraceSink,
    EXEMPLAR_BUCKETS, MAX_SPANS,
};
pub use serve_http::{epoch_trace_json, HealthView, ObsServer, ObsServerConfig, ObsSource};
pub use trace::{Engine, EpochTrace, FlightRecorder, PhaseTotals, ENGINE_NAMES, FAMILY_NAMES};
pub use watchdog::{HealthState, Probe, StallInfo, Watchdog, WatchdogConfig};
