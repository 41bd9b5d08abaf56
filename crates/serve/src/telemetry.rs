//! The server's telemetry hub: one [`MetricsRegistry`] + one
//! [`FlightRecorder`] per [`RcServe`](crate::RcServe), fed by the epoch
//! worker and (when durable) the store. The worker runs every phase of
//! an epoch, so it records each [`EpochTrace`] whole. The flight
//! recorder is the only per-epoch record and the registry holds the only
//! running totals: [`ServeStats`] is read from the registry's handles.

use crate::coalescer::ServeConfig;
use rc_obs::{
    Counter, EpochTrace, FlightRecorder, Gauge, HealthState, HealthView, Histogram,
    HistogramSummary, MetricsRegistry, MetricsSnapshot, RequestTrace, StallInfo, TraceDump,
    TraceSink, ENGINE_NAMES, FAMILY_NAMES,
};
use rc_store::StoreMetrics;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Phase indices published by the worker thread for the watchdog probe
/// (index into [`PHASE_NAMES`]).
pub(crate) const PHASE_IDLE: usize = 0;
pub(crate) const PHASE_DRAIN: usize = 1;
pub(crate) const PHASE_ADMIT: usize = 2;
pub(crate) const PHASE_WAL: usize = 3;
pub(crate) const PHASE_QUERY: usize = 4;
pub(crate) const PHASE_RESPOND: usize = 5;
pub(crate) const PHASE_NAMES: [&str; 6] = ["idle", "drain", "admit", "wal", "query", "respond"];

/// Per-epoch phase durations a request's trace spans are cut from,
/// filled in by the worker as the epoch's phases finish.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SpanLayout {
    pub(crate) epoch: u64,
    pub(crate) epoch_start: Instant,
    pub(crate) drain_ns: u64,
    pub(crate) admit_ns: u64,
    pub(crate) commit_ns: u64,
    pub(crate) wal_ns: u64,
    pub(crate) query_ns: u64,
}

impl SpanLayout {
    pub(crate) fn new(epoch: u64, epoch_start: Instant) -> Self {
        SpanLayout {
            epoch,
            epoch_start,
            drain_ns: 0,
            admit_ns: 0,
            commit_ns: 0,
            wal_ns: 0,
            query_ns: 0,
        }
    }
}

/// Aggregate server statistics, read from the metrics registry (the
/// counter each field names in its doc), so they always agree with
/// [`ServeClient::metrics_snapshot`](crate::ServeClient::metrics_snapshot).
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Epochs committed (`serve_epochs_total`). An epoch whose WAL
    /// append failed counts too, although its requests were all
    /// answered `Rejected`.
    pub epochs: u64,
    /// Requests drained into epochs (`serve_requests_total`), including
    /// the requests of a failed epoch.
    pub ops: u64,
    /// Update requests among `ops` (`serve_updates_total`).
    pub updates: u64,
    /// Query requests among `ops` (`serve_queries_total`).
    pub queries: u64,
    /// Total sub-batch flushes across all epochs (`serve_flushes_total`).
    pub flushes: u64,
    /// Mean epoch batch size: `ops / epochs`.
    pub mean_batch: f64,
    /// Largest epoch batch (`serve_max_batch`).
    pub max_batch: usize,
    /// End-to-end request latency, submit → response
    /// (`serve_request_latency_ns`).
    pub latency: HistogramSummary,
    /// Request traces captured by the deterministic 1-in-N sampler
    /// (`serve_traces_sampled_total`).
    pub traces_sampled: u64,
    /// Request traces captured because end-to-end latency exceeded the
    /// slow threshold, independent of sampling
    /// (`serve_traces_slow_total`).
    pub traces_slow: u64,
}

/// Postmortem frozen by the epoch-stall watchdog: what the watchdog saw,
/// the flight recorder's epochs at declaration time, and the most recent
/// captured request trace (slow ring preferred). Retrieved via
/// [`ServeClient::stall_report`](crate::ServeClient::stall_report).
#[derive(Clone, Debug)]
pub struct StallReport {
    /// The watchdog's observation (stuck phase, queue depth, duration).
    pub info: StallInfo,
    /// Flight-recorder epochs retained when the stall was declared.
    pub flight: Vec<EpochTrace>,
    /// The most recently captured request trace, if any — often the last
    /// request that completed before the wedge.
    pub last_trace: Option<RequestTrace>,
}

/// On-demand dump of the server's telemetry: the metrics snapshot plus
/// the flight recorder's retained epoch traces. Returned by
/// [`Request::DumpTelemetry`](crate::Request::DumpTelemetry); the direct
/// [`ServeClient::metrics_snapshot`](crate::ServeClient::metrics_snapshot)
/// / [`flight_dump`](crate::ServeClient::flight_dump) readers return the
/// same two parts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TelemetryDump {
    /// Point-in-time value of every registered metric.
    pub snapshot: MetricsSnapshot,
    /// The newest retained epoch traces, oldest first.
    pub traces: Vec<EpochTrace>,
}

/// Per-server telemetry state shared by the worker thread and every
/// reader (via `Shared`).
pub(crate) struct ServeTelemetry {
    pub(crate) registry: MetricsRegistry,
    pub(crate) flight: FlightRecorder,
    /// The flight-recorder dump taken when the worker failed (WAL append
    /// or compaction error) — the postmortem for the rollback/poison
    /// paths.
    failure: Mutex<Option<Vec<EpochTrace>>>,
    /// Captured request traces (sampled ring + slow ring + exemplars).
    pub(crate) sink: TraceSink,
    /// Slow-capture threshold from [`ServeConfig::slow_request_threshold`].
    slow_threshold_ns: u64,
    /// Liveness state consulted by `/health` + `/ready` and flipped by
    /// the watchdog / failure paths.
    pub(crate) health: Arc<HealthState>,
    /// Stall postmortem frozen by the watchdog's one-shot callback.
    stall: Mutex<Option<StallReport>>,
    /// Current worker phase (index into [`PHASE_NAMES`]) for the
    /// watchdog probe.
    worker_phase: AtomicUsize,
    /// Store metric handles when durable — lets `/traces` append the
    /// WAL append/fsync exemplars.
    store_metrics: OnceLock<StoreMetrics>,
    /// Epochs completed by the worker thread (monotone heartbeat).
    worker_heartbeat: Arc<Gauge>,
    stalls_total: Arc<Counter>,
    traces_sampled_total: Arc<Counter>,
    traces_slow_total: Arc<Counter>,
    /// End-to-end request latency (`serve_request_latency_ns`).
    pub(crate) latency: Arc<Histogram>,
    /// Largest epoch batch so far; the worker is its only writer.
    max_batch: Arc<Gauge>,
    epochs_total: Arc<Counter>,
    failed_epochs_total: Arc<Counter>,
    requests_total: Arc<Counter>,
    updates_total: Arc<Counter>,
    queries_total: Arc<Counter>,
    flushes_total: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    drain_ns: Arc<Histogram>,
    admit_ns: Arc<Histogram>,
    commit_ns: Arc<Histogram>,
    wal_ns: Arc<Histogram>,
    query_ns: Arc<Histogram>,
    respond_ns: Arc<Histogram>,
    epoch_wall_ns: Arc<Histogram>,
    /// Per-(family, engine) fan-out wall time — the per-family timings
    /// split by which dispatch engine ran them
    /// (`serve_family_query_ns{family=...,engine=...}`).
    family_engine_ns: [[Arc<Histogram>; 2]; 8],
    /// Fan-outs per (family, engine).
    dispatch_total: [[Arc<Counter>; 2]; 8],
}

impl ServeTelemetry {
    /// Fresh registry + flight recorder + trace sink.
    pub(crate) fn new(cfg: &ServeConfig) -> Self {
        let registry = MetricsRegistry::new();
        ServeTelemetry {
            flight: FlightRecorder::new(cfg.flight_recorder),
            failure: Mutex::new(None),
            sink: TraceSink::new(cfg.trace_ring, cfg.trace_ring),
            slow_threshold_ns: cfg.slow_request_threshold.as_nanos() as u64,
            health: Arc::new(HealthState::default()),
            stall: Mutex::new(None),
            worker_phase: AtomicUsize::new(PHASE_IDLE),
            store_metrics: OnceLock::new(),
            worker_heartbeat: registry.gauge("serve_worker_heartbeat"),
            stalls_total: registry.counter("serve_stalls_total"),
            traces_sampled_total: registry.counter("serve_traces_sampled_total"),
            traces_slow_total: registry.counter("serve_traces_slow_total"),
            latency: registry.histogram("serve_request_latency_ns"),
            max_batch: registry.gauge("serve_max_batch"),
            epochs_total: registry.counter("serve_epochs_total"),
            failed_epochs_total: registry.counter("serve_failed_epochs_total"),
            requests_total: registry.counter("serve_requests_total"),
            updates_total: registry.counter("serve_updates_total"),
            queries_total: registry.counter("serve_queries_total"),
            flushes_total: registry.counter("serve_flushes_total"),
            queue_depth: registry.gauge("serve_queue_depth"),
            drain_ns: registry.histogram("serve_phase_drain_ns"),
            admit_ns: registry.histogram("serve_phase_admit_ns"),
            commit_ns: registry.histogram("serve_phase_commit_ns"),
            wal_ns: registry.histogram("serve_phase_wal_ns"),
            query_ns: registry.histogram("serve_phase_query_ns"),
            respond_ns: registry.histogram("serve_phase_respond_ns"),
            epoch_wall_ns: registry.histogram("serve_epoch_wall_ns"),
            family_engine_ns: std::array::from_fn(|f| {
                std::array::from_fn(|e| {
                    registry.histogram(&format!(
                        "serve_family_query_ns{{family=\"{}\",engine=\"{}\"}}",
                        FAMILY_NAMES[f], ENGINE_NAMES[e]
                    ))
                })
            }),
            dispatch_total: std::array::from_fn(|f| {
                std::array::from_fn(|e| {
                    registry.counter(&format!(
                        "serve_dispatch_total{{family=\"{}\",engine=\"{}\"}}",
                        FAMILY_NAMES[f], ENGINE_NAMES[e]
                    ))
                })
            }),
            registry,
        }
    }

    /// Observe the queue depth seen at drain time.
    pub(crate) fn observe_queue_depth(&self, depth: usize) {
        self.queue_depth.set(depth as i64);
    }

    /// Durable servers hand over the store's metric handles so `/traces`
    /// can include the WAL append/fsync exemplars.
    pub(crate) fn set_store_metrics(&self, m: StoreMetrics) {
        let _ = self.store_metrics.set(m);
    }

    pub(crate) fn set_worker_phase(&self, phase: usize) {
        self.worker_phase.store(phase, Ordering::Relaxed);
    }

    /// One epoch finished on the worker thread.
    pub(crate) fn worker_tick(&self) {
        self.worker_heartbeat.add(1);
    }

    /// Monotone progress counter for the watchdog probe: every completed
    /// epoch advances it.
    pub(crate) fn progress(&self) -> u64 {
        self.worker_heartbeat.get() as u64
    }

    /// Is the worker mid-phase? (An idle server never stalls.)
    pub(crate) fn phase_active(&self) -> bool {
        self.worker_phase.load(Ordering::Relaxed) != PHASE_IDLE
    }

    /// The phase to blame in a stall report: the worker's current one.
    pub(crate) fn current_phase(&self) -> &'static str {
        PHASE_NAMES[self
            .worker_phase
            .load(Ordering::Relaxed)
            .min(PHASE_NAMES.len() - 1)]
    }

    /// Capture one request's trace if it is sampled or slow; every call
    /// also feeds the latency exemplars. `layout` carries the epoch's
    /// phase durations; the spans are laid end to end from the submit
    /// instant (queue wait, then each phase the request rode through,
    /// then a respond remainder) so they partition `e2e_ns` exactly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn maybe_capture(
        &self,
        layout: &SpanLayout,
        seq: u64,
        submitted: Instant,
        kind: &'static str,
        family: Option<usize>,
        sampled: bool,
        e2e_ns: u64,
    ) {
        let trace_id = seq + 1; // 0 is reserved for "no trace context"
        let slow = self.slow_threshold_ns > 0 && e2e_ns >= self.slow_threshold_ns;
        if !sampled && !slow {
            self.sink.exemplars.observe(e2e_ns, trace_id);
            return;
        }
        let mut t = RequestTrace {
            trace_id,
            epoch: layout.epoch,
            kind,
            sampled,
            slow,
            e2e_ns,
            ..RequestTrace::default()
        };
        let queue_ns = layout
            .epoch_start
            .saturating_duration_since(submitted)
            .as_nanos() as u64;
        // A request submitted after the drain's clock started, but before
        // the drain took the queue lock, queued for no time and rode only
        // the rest of the drain.
        let joined_ns = submitted
            .saturating_duration_since(layout.epoch_start)
            .as_nanos() as u64;
        let mut cursor = 0u64;
        let mut push = |t: &mut RequestTrace, name: &'static str, dur: u64| {
            t.push_span(name, cursor, dur);
            cursor += dur;
        };
        push(&mut t, "queue", queue_ns);
        push(&mut t, "drain", layout.drain_ns.saturating_sub(joined_ns));
        push(&mut t, "admit", layout.admit_ns);
        push(&mut t, "commit", layout.commit_ns);
        if layout.wal_ns > 0 {
            push(&mut t, "wal", layout.wal_ns);
        }
        if let Some(f) = family {
            push(&mut t, crate::exec::QUERY_SPAN_NAMES[f], layout.query_ns);
        }
        // Whatever remains of the measured end-to-end latency is the
        // respond tail; phase timings racing the fill can overshoot by
        // nanoseconds, so saturate rather than wrap.
        t.push_span("respond", cursor, e2e_ns.saturating_sub(cursor));
        if sampled {
            self.traces_sampled_total.inc();
        }
        if slow {
            self.traces_slow_total.inc();
        }
        self.sink.push(t);
    }

    /// Dump the captured request traces with the registry's capture
    /// totals, appending the store's WAL append/fsync exemplars when
    /// durable.
    pub(crate) fn traces(&self) -> TraceDump {
        let mut d = self.sink.dump();
        d.sampled_total = self.traces_sampled_total.get();
        d.slow_total = self.traces_slow_total.get();
        if let Some(sm) = self.store_metrics.get() {
            d.exemplars
                .extend(sm.append_exemplars.dump("store_append_ns"));
            d.exemplars.extend(sm.fsync_exemplars.dump("wal_fsync_ns"));
        }
        d
    }

    /// Liveness view for `/health` + `/ready`: `ready` additionally
    /// requires the server to still be accepting requests.
    pub(crate) fn health_view(&self, accepting: bool) -> HealthView {
        let detail = match self.health.last_stall() {
            Some(info) if !self.health.healthy() => format!(
                "stalled in \"{}\" for {:?} with {} queued",
                info.phase, info.stalled_for, info.queued
            ),
            _ if !accepting => "not accepting (shut down or failed)".to_string(),
            _ => String::new(),
        };
        HealthView {
            healthy: self.health.healthy(),
            ready: self.health.ready() && accepting,
            stalls: self.health.stall_count(),
            detail,
        }
    }

    /// The watchdog declared a stall: count it and freeze a postmortem
    /// (flight recorder + the newest captured request trace). One-shot
    /// per episode — the watchdog only fires the callback once.
    pub(crate) fn note_stall(&self, info: &StallInfo) {
        self.stalls_total.inc();
        let dump = self.sink.dump();
        let last_trace = dump.slow.last().or(dump.recent.last()).copied();
        let report = StallReport {
            info: info.clone(),
            flight: self.flight.dump(),
            last_trace,
        };
        *self.stall.lock().unwrap_or_else(|e| e.into_inner()) = Some(report);
    }

    /// The postmortem frozen by the most recent stall, if any.
    pub(crate) fn stall_report(&self) -> Option<StallReport> {
        self.stall.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// The aggregate statistics, read from the registry's handles.
    pub(crate) fn stats(&self) -> ServeStats {
        let epochs = self.epochs_total.get();
        let ops = self.requests_total.get();
        ServeStats {
            epochs,
            ops,
            updates: self.updates_total.get(),
            queries: self.queries_total.get(),
            flushes: self.flushes_total.get(),
            mean_batch: if epochs == 0 {
                0.0
            } else {
                ops as f64 / epochs as f64
            },
            max_batch: self.max_batch.get() as usize,
            latency: self.latency.summary(),
            traces_sampled: self.traces_sampled_total.get(),
            traces_slow: self.traces_slow_total.get(),
        }
    }

    /// Publish one epoch trace: counters, phase histograms, and the
    /// flight-recorder ring.
    pub(crate) fn record_trace(&self, t: EpochTrace) {
        self.epochs_total.inc();
        if t.failed {
            self.failed_epochs_total.inc();
        }
        self.requests_total.add(t.batch as u64);
        if i64::from(t.batch) > self.max_batch.get() {
            // The worker is the only writer, so read-then-set is exact.
            self.max_batch.set(i64::from(t.batch));
        }
        self.updates_total.add(t.updates as u64);
        self.queries_total.add(t.queries as u64);
        self.flushes_total.add(t.flushes as u64);
        self.drain_ns.record(t.drain_ns);
        self.admit_ns.record(t.admit_ns);
        self.commit_ns.record(t.commit_ns);
        if t.wal_ns > 0 {
            self.wal_ns.record(t.wal_ns);
        }
        self.query_ns.record(t.query_ns);
        self.respond_ns.record(t.respond_ns);
        self.epoch_wall_ns.record(t.epoch_wall_ns);
        for i in 0..8 {
            // 0 = family did not run (or a pre-dispatch trace); else the
            // recorded engine splits the family's timing series.
            if t.family_engine[i] == 0 {
                continue;
            }
            let e = (t.family_engine[i] as usize - 1).min(1);
            self.family_engine_ns[i][e].record(t.family_ns[i]);
            self.dispatch_total[i][e].inc();
        }
        self.flight.record(t);
    }

    /// The worker failed (WAL append error): record the failing epoch's
    /// partial trace, then freeze a dump for postmortems.
    pub(crate) fn note_failure(&self, failing: EpochTrace) {
        self.record_trace(failing);
        self.health.mark_failed();
        self.freeze(failing.epoch);
    }

    /// Freeze the current flight-recorder contents as the failure dump
    /// (the poisoned-compaction path calls this once the failing epoch's
    /// trace is recorded) and summarize on stderr.
    pub(crate) fn freeze(&self, failing_epoch: u64) {
        let dump = self.flight.dump();
        eprintln!(
            "rc-serve: flight recorder: froze {} trace(s) after failure at epoch {}; \
             dump available via failure_dump()",
            dump.len(),
            failing_epoch,
        );
        *self.failure.lock().unwrap_or_else(|e| e.into_inner()) = Some(dump);
    }

    /// The dump frozen by [`note_failure`](Self::note_failure), if the
    /// worker has failed.
    pub(crate) fn failure_dump(&self) -> Option<Vec<EpochTrace>> {
        self.failure
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Snapshot every registered metric, appending the work-stealing
    /// pool's counters when the `pool-metrics` feature is enabled.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        #[allow(unused_mut)]
        let mut snap = self.registry.snapshot();
        #[cfg(feature = "pool-metrics")]
        {
            let pm = rayon::pool_metrics();
            for (name, v) in [
                ("pool_jobs_published_total", pm.jobs_published),
                ("pool_chunks_claimed_total", pm.chunks_claimed),
                ("pool_join_tasks_stolen_total", pm.join_tasks_stolen),
                ("pool_join_tasks_reclaimed_total", pm.join_tasks_reclaimed),
                ("pool_parks_total", pm.parks),
                ("pool_unparks_total", pm.unparks),
            ] {
                snap.metrics
                    .push((name.to_string(), rc_obs::MetricValue::Counter(v)));
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tel_with_flight(flight_recorder: usize) -> ServeTelemetry {
        let cfg = ServeConfig {
            flight_recorder,
            ..ServeConfig::default()
        };
        ServeTelemetry::new(&cfg)
    }

    #[test]
    fn failure_freezes_a_dump() {
        let tel = tel_with_flight(8);
        tel.record_trace(EpochTrace {
            epoch: 1,
            ..EpochTrace::default()
        });
        assert!(tel.failure_dump().is_none());
        tel.note_failure(EpochTrace {
            epoch: 2,
            failed: true,
            wal_ns: 77,
            ..EpochTrace::default()
        });
        let dump = tel.failure_dump().expect("frozen dump");
        assert_eq!(dump.len(), 2);
        assert!(dump.iter().any(|t| t.epoch == 2 && t.failed));
        assert_eq!(tel.snapshot().counter("serve_failed_epochs_total"), Some(1));
    }

    #[test]
    fn late_joiner_spans_partition_its_lifetime() {
        // Submitted 3 ms into a 5 ms drain: no queue time, 2 ms of drain,
        // and the spans still add up to the request's own lifetime.
        let tel = tel_with_flight(8);
        let epoch_start = Instant::now();
        let mut layout = SpanLayout::new(1, epoch_start);
        layout.drain_ns = 5_000_000;
        layout.admit_ns = 1_000_000;
        layout.commit_ns = 1_000_000;
        let submitted = epoch_start + std::time::Duration::from_millis(3);
        tel.maybe_capture(&layout, 0, submitted, "cut", None, true, 4_500_000);
        let trace = tel.traces().recent[0];
        let spans: Vec<(&str, u64)> = trace.spans().iter().map(|s| (s.name, s.dur_ns)).collect();
        assert_eq!(
            spans,
            [
                ("queue", 0),
                ("drain", 2_000_000),
                ("admit", 1_000_000),
                ("commit", 1_000_000),
                ("respond", 500_000),
            ]
        );
    }
}
