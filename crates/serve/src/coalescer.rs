//! The epoch-based request coalescer.
//!
//! # Epoch lifecycle
//!
//! 1. **Accumulate** — client threads stamp each request with a global
//!    submission sequence number and append it to one locked queue, so
//!    the queue is in submission order. The worker sleeps until the
//!    queue is non-empty, then *lingers* up to
//!    [`ServeConfig::max_linger`] or until [`ServeConfig::drain_threshold`]
//!    requests are waiting, whichever comes first.
//! 2. **Drain** — up to [`ServeConfig::max_epoch_ops`] requests leave the
//!    front of the queue. This prefix of submission order *is* the
//!    epoch's serialization: the commit order equals (all updates in
//!    submission order, then all queries).
//! 3. **Update phase** — updates are admitted one by one against an
//!    overlay of the forest (pending links/cuts/weights + a union–find
//!    over component representatives), which decides each request's exact
//!    sequential outcome without touching the forest. Contradictory pairs
//!    (cut of an edge linked earlier in the epoch, links whose acyclicity
//!    depends on an earlier cut) force a *flush* — the overlay commits via
//!    `batch_cut` / `batch_link` / weight updates — and admission resumes
//!    against the fresh forest. Conflict-free traffic commits as one flush.
//! 4. **Query phase** — on the same worker thread, against the live
//!    forest, queries group by family. A family with enough queries in
//!    the epoch fans into one batch call (`batch_connected`,
//!    `batch_path_aggregate`, ...), sharing the `O(k log(1 + n/k))`
//!    marked-sweep work; a smaller one runs independent single walks
//!    (the per-family thresholds are in `exec.rs`). The phases
//!    strictly alternate: epoch E+1 drains only after epoch E's queries
//!    have answered, so every query observes exactly its own epoch's
//!    committed state and is stamped with that epoch.
//! 5. **Respond** — per-request oneshot slots fill (updates right after
//!    the final flush + WAL append, queries right after their fan-out),
//!    latencies are recorded, and the epoch's [`EpochTrace`] enters the
//!    flight recorder and the metrics registry.
//!
//! Durability ordering rule: the epoch's WAL append returns before any of
//! its response slots fill, so no client ever observes state that is not
//! at least written (and, under per-epoch sync, fsynced).

use crate::agg::{ServeForest, ServeVertexWeight};
use crate::exec::{answer_requests_timed, family_index, BATCH_MIN_K};
use crate::request::{Request, Response, ResponseHandle, Slot};
use crate::telemetry::{
    ServeStats, ServeTelemetry, SpanLayout, StallReport, TelemetryDump, PHASE_ADMIT, PHASE_DRAIN,
    PHASE_IDLE, PHASE_QUERY, PHASE_RESPOND, PHASE_WAL,
};
use rc_core::{DynamicForest, ForestError, ForestState};
use rc_obs::{
    trace_sampled, EpochTrace, HealthView, MetricsSnapshot, ObsServer, ObsServerConfig, ObsSource,
    Probe, TraceDump, Watchdog, WatchdogConfig,
};
use rc_parlay::edge_key;
use rc_store::{EpochRecord, FlushRecord, RecoveryReport, Store, StoreConfig, StoreError};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Batching policy and instrumentation knobs.
///
/// The policy trades latency for throughput: larger epochs amortize the
/// `O(k log(1 + n/k))` batch work over more requests (throughput up,
/// per-request latency up to `max_linger` higher); `drain_threshold`
/// bounds how long a hot queue waits, and `max_epoch_ops` caps per-epoch
/// work so one epoch cannot starve later arrivals.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Hard cap on requests drained into one epoch.
    pub max_epoch_ops: usize,
    /// Drain immediately once this many requests are queued ("drain when
    /// the queue exceeds N" — the adaptive part of the policy).
    pub drain_threshold: usize,
    /// Longest time the worker lingers waiting for more requests after
    /// the first one arrives.
    pub max_linger: Duration,
    /// Record every request + response in commit order (tests/audits).
    pub record_commit_log: bool,
    /// [`EpochTrace`] records retained in the flight-recorder ring
    /// (newest win once full). Dump them via [`ServeClient::flight_dump`]
    /// or a [`Request::DumpTelemetry`].
    pub flight_recorder: usize,
    /// Per-request trace sampling: capture a full causal span trace for
    /// a deterministic 1-in-N subset of requests (`0` disables, `1`
    /// captures everything). The decision is a pure function of
    /// `(trace_seed, submission seq)` — see [`rc_obs::trace_sampled`] —
    /// so the same seed and submission stream pick the same requests on
    /// every run.
    pub trace_sample: u64,
    /// Seed for the sampling decision.
    pub trace_seed: u64,
    /// End-to-end latency at/above which a request's trace is *always*
    /// captured into the slow ring, independent of sampling.
    /// `Duration::ZERO` disables slow capture.
    pub slow_request_threshold: Duration,
    /// Capacity of each captured-trace ring (sampled and slow).
    pub trace_ring: usize,
    /// Spawn the epoch-stall watchdog with this deadline: if the server
    /// stays busy (queued work or a thread mid-phase) with no completed
    /// epoch for longer than the deadline, `/health` and `/ready` flip
    /// unhealthy and a [`StallReport`] postmortem freezes. `None`
    /// disables the watchdog.
    pub stall_deadline: Option<Duration>,
    /// Fault injection for the watchdog tests: wedge the worker for
    /// [`Self::wedge_for`] at the start of each listed epoch ordinal
    /// (multiple entries exercise repeated stall/recover episodes).
    #[doc(hidden)]
    pub wedge_epochs: Vec<u64>,
    /// How long the injected wedge sleeps.
    #[doc(hidden)]
    pub wedge_for: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_epoch_ops: 8_192,
            drain_threshold: 1_024,
            max_linger: Duration::from_micros(200),
            record_commit_log: false,
            flight_recorder: 256,
            trace_sample: 64,
            trace_seed: 0,
            slow_request_threshold: Duration::from_millis(100),
            trace_ring: 128,
            stall_deadline: None,
            wedge_epochs: Vec::new(),
            wedge_for: Duration::ZERO,
        }
    }
}

impl ServeConfig {
    /// Degenerate size-1 epochs — every request is its own batch. The
    /// throughput baseline the coalescer is measured against.
    pub fn unbatched() -> Self {
        ServeConfig {
            max_epoch_ops: 1,
            drain_threshold: 1,
            max_linger: Duration::ZERO,
            ..Self::default()
        }
    }
}

/// One committed, WAL-ordered epoch as delivered to commit-tap
/// subscribers ([`RcServe::subscribe_commits`]): the epoch ordinal and
/// the exact batch groups it committed — the same [`EpochRecord`] the
/// durability WAL appends. Replication leaders stream these to
/// followers; events are sent *after* the epoch's durability barrier
/// (WAL append, when durable) and *before* its responses are released,
/// so a tapped record is never ahead of what the store acknowledged.
#[derive(Clone, Debug)]
pub struct CommitEvent {
    /// Epoch ordinal (1-based, monotone).
    pub epoch: u64,
    /// The committed batch groups, shared with every subscriber.
    pub record: Arc<EpochRecord>,
}

/// One committed request with its response, in commit order.
#[derive(Clone, Debug)]
pub struct LogEntry {
    /// Epoch that committed the request (1-based).
    pub epoch: u64,
    /// Global submission sequence number.
    pub seq: u64,
    /// The request.
    pub request: Request,
    /// Its response.
    pub response: Response,
    /// Version stamp: the epoch whose committed state this response
    /// observed. Queries answer right after their own epoch's updates
    /// commit, so the stamp equals `epoch` for updates and queries alike.
    pub version: u64,
}

struct Pending {
    seq: u64,
    submitted: Instant,
    request: Request,
    slot: Arc<Slot>,
    /// Selected by the deterministic trace sampler at submit time.
    sampled: bool,
}

/// The submission queue. One lock guards the queue, the seq counter and
/// the accepting flag, so a submit either enqueues before the worker's
/// final look at an empty, closed queue or is rejected.
struct Intake {
    /// Queued requests, in seq order by construction.
    pending: VecDeque<Pending>,
    next_seq: u64,
    accepting: bool,
}

struct Shared {
    cfg: ServeConfig,
    intake: Mutex<Intake>,
    /// Wakes the worker: on the queue's empty→non-empty edge, when it
    /// reaches the drain threshold, and at shutdown.
    wake: Condvar,
    log: Mutex<Vec<LogEntry>>,
    /// Metrics registry + flight recorder (see [`crate::telemetry`]).
    tel: ServeTelemetry,
    /// Commit-tap subscribers ([`RcServe::subscribe_commits`]); senders
    /// whose receiver hung up are pruned at the next notification.
    taps: Mutex<Vec<mpsc::Sender<CommitEvent>>>,
    /// Fast path: set once the first tap subscribes, read per epoch
    /// without taking the `taps` lock.
    tapped: AtomicBool,
}

impl Shared {
    fn intake(&self) -> MutexGuard<'_, Intake> {
        self.intake.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// A running coalescer: owns the forest on a dedicated worker thread.
///
/// Create with [`RcServe::start`], hand [`ServeClient`]s to client
/// threads, stop with [`RcServe::shutdown`] (drains the queue and returns
/// the forest). Dropping without `shutdown` also stops the worker.
/// Telemetry and the commit log are read through a [`ServeClient`],
/// which stays usable after shutdown.
pub struct RcServe {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<ServeForest>>,
    watchdog: Option<Watchdog>,
}

/// Cloneable submission handle; safe to share across client threads.
/// It is also the server's one telemetry reader, and it implements
/// [`ObsSource`] for the live endpoint ([`RcServe::serve_obs`]).
#[derive(Clone)]
pub struct ServeClient {
    shared: Arc<Shared>,
    /// Per-request deadline stamped onto every handle this client
    /// submits (see [`ServeClient::with_deadline`]).
    deadline: Option<Duration>,
}

impl RcServe {
    /// Start serving `forest` under `cfg` on a dedicated worker thread.
    /// State lives (and dies) in RAM; see [`RcServe::start_durable`] for
    /// the crash-safe variant.
    pub fn start(forest: ServeForest, cfg: ServeConfig) -> RcServe {
        Self::start_inner(forest, cfg, None, 0)
    }

    /// Start a **durable** server: open (or create) the store at
    /// `durability`, recover the forest — newest valid snapshot + WAL
    /// suffix replayed in epoch batches — and serve it with every
    /// committed epoch appended to the WAL *before* its responses are
    /// released. `bootstrap` seeds an empty store directory with an
    /// initial forest (ignored once the directory has history).
    ///
    /// Durability level follows the store's [`rc_store::SyncPolicy`]:
    /// per-epoch fsync makes every acknowledged update survive power
    /// loss; interval/never trade that for latency. Clean
    /// [`RcServe::shutdown`] always flushes and fsyncs the WAL tail,
    /// whatever the policy.
    pub fn start_durable(
        cfg: ServeConfig,
        durability: StoreConfig,
        bootstrap: Option<&ForestState>,
    ) -> Result<(RcServe, RecoveryReport), StoreError> {
        let recovered = Store::open_with_bootstrap(durability, bootstrap)?;
        let first_epoch = recovered.report.last_epoch;
        Ok((
            Self::start_inner(recovered.forest, cfg, Some(recovered.store), first_epoch),
            recovered.report,
        ))
    }

    fn start_inner(
        forest: ServeForest,
        cfg: ServeConfig,
        store: Option<Store>,
        first_epoch: u64,
    ) -> RcServe {
        let tel = ServeTelemetry::new(&cfg);
        if let Some(store) = &store {
            // The store created its metric handles at open; attach them
            // so snapshots carry WAL/snapshot/recovery series too, and
            // hand the handles over so `/traces` can include the WAL
            // append/fsync exemplars.
            store.metrics().register_into(&tel.registry);
            tel.set_store_metrics(store.metrics().clone());
        }
        let shared = Arc::new(Shared {
            intake: Mutex::new(Intake {
                pending: VecDeque::new(),
                next_seq: 0,
                accepting: true,
            }),
            wake: Condvar::new(),
            log: Mutex::new(Vec::new()),
            tel,
            taps: Mutex::new(Vec::new()),
            tapped: AtomicBool::new(false),
            cfg,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("rc-serve-epoch".into())
            .spawn(move || {
                Worker {
                    shared: worker_shared,
                    epoch: first_epoch,
                    store,
                }
                .run(forest)
            })
            .expect("spawn rc-serve worker");
        let watchdog = shared.cfg.stall_deadline.map(|deadline| {
            let probe_shared = Arc::clone(&shared);
            let stall_shared = Arc::clone(&shared);
            Watchdog::spawn(
                WatchdogConfig::new(deadline),
                Arc::clone(&shared.tel.health),
                move || {
                    let queued = probe_shared.intake().pending.len();
                    Probe {
                        progress: probe_shared.tel.progress(),
                        busy: queued > 0 || probe_shared.tel.phase_active(),
                        phase: probe_shared.tel.current_phase(),
                        queued: queued as u64,
                    }
                },
                move |info| stall_shared.tel.note_stall(info),
            )
        });
        RcServe {
            shared,
            worker: Some(worker),
            watchdog,
        }
    }

    /// A new submission handle.
    pub fn client(&self) -> ServeClient {
        ServeClient {
            shared: Arc::clone(&self.shared),
            deadline: None,
        }
    }

    /// Subscribe to committed epochs: every state-changing epoch from
    /// here on is delivered as a [`CommitEvent`] — after its durability
    /// barrier, before its responses release — in strict epoch order.
    /// The replication leader feeds followers from this tap. Dropping
    /// the receiver unsubscribes (the dead sender is pruned at the next
    /// commit); the channel is unbounded, so a slow subscriber buffers
    /// rather than back-pressuring the epoch loop.
    pub fn subscribe_commits(&self) -> Receiver<CommitEvent> {
        let (tx, rx) = mpsc::channel();
        self.shared
            .taps
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(tx);
        self.shared.tapped.store(true, Ordering::SeqCst);
        rx
    }

    /// Point-in-time snapshot of every registered metric — serve phase
    /// histograms, request counters, store/WAL series when durable, and
    /// (with the `pool-metrics` feature) the work-stealing pool's
    /// counters. Callable at any time, including after shutdown.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.tel.snapshot()
    }

    /// Start the live observability endpoint for this server: a
    /// zero-dependency blocking HTTP/1.0 listener answering `/metrics`
    /// (Prometheus text), `/metrics.json`, `/health`, `/ready`,
    /// `/flight`, and `/traces`. The endpoint reads through a
    /// [`ServeClient`], so it keeps answering (unready) after shutdown
    /// until dropped.
    pub fn serve_obs(&self, cfg: ObsServerConfig) -> std::io::Result<ObsServer> {
        ObsServer::start(cfg, Arc::new(self.client()))
    }

    /// Stop accepting, drain every queued request, join the worker and
    /// return the (fully committed) forest.
    pub fn shutdown(mut self) -> ServeForest {
        // Stop the watchdog first: the shutdown drain makes progress,
        // but a wedged-looking final epoch must not flip health while
        // the server is deliberately going away.
        if let Some(mut dog) = self.watchdog.take() {
            dog.stop();
        }
        self.signal_shutdown();
        self.worker
            .take()
            .expect("worker present until shutdown")
            .join()
            .expect("rc-serve worker panicked")
    }

    fn signal_shutdown(&self) {
        self.shared.intake().accepting = false;
        self.shared.wake.notify_one();
    }
}

impl Drop for RcServe {
    fn drop(&mut self) {
        if let Some(mut dog) = self.watchdog.take() {
            dog.stop();
        }
        if let Some(w) = self.worker.take() {
            self.signal_shutdown();
            let _ = w.join();
        }
    }
}

impl ObsSource for ServeClient {
    fn metrics(&self) -> MetricsSnapshot {
        self.metrics_snapshot()
    }

    fn flight(&self) -> Vec<EpochTrace> {
        self.flight_dump()
    }

    fn traces(&self) -> TraceDump {
        self.request_traces()
    }

    fn health(&self) -> HealthView {
        self.health_view()
    }
}

impl ServeClient {
    /// A clone of this client whose every submission carries a
    /// per-request deadline: a [`ResponseHandle::wait`] that has not
    /// been answered within `deadline` resolves to
    /// [`Response::TimedOut`] instead of blocking forever — the bounded
    /// wait a caller needs against a wedged worker or a stalled
    /// follower. The deadline bounds *waiting only*: the request may
    /// still commit server-side after the client gave up.
    pub fn with_deadline(&self, deadline: Duration) -> ServeClient {
        ServeClient {
            shared: Arc::clone(&self.shared),
            deadline: Some(deadline),
        }
    }

    /// Submit a request; returns immediately with a oneshot handle.
    pub fn submit(&self, request: Request) -> ResponseHandle {
        let slot = Arc::new(Slot::default());
        let handle = ResponseHandle {
            slot: Arc::clone(&slot),
            deadline: self.deadline,
        };
        let submitted = Instant::now();
        let len = {
            let mut q = self.shared.intake();
            if !q.accepting {
                drop(q);
                handle.slot.fill(Response::Rejected);
                return handle;
            }
            let seq = q.next_seq;
            q.next_seq += 1;
            q.pending.push_back(Pending {
                seq,
                submitted,
                request,
                slot,
                // Trace id = seq + 1 (0 means "no trace context"): the
                // sampling decision is sealed here, at submit, so the
                // same seed + submission stream capture the same set.
                sampled: trace_sampled(
                    self.shared.cfg.trace_seed,
                    seq + 1,
                    self.shared.cfg.trace_sample,
                ),
            });
            q.pending.len()
        };
        // Wake the worker on the empty→non-empty edge and once the drain
        // threshold is reached. The push happened under the lock the
        // worker checks the queue under before it waits, so notifying
        // after unlocking loses no wakeup.
        if len == 1 || len == self.shared.cfg.drain_threshold {
            self.shared.wake.notify_one();
        }
        handle
    }

    /// Submit and block for the response.
    pub fn call(&self, request: Request) -> Response {
        self.submit(request).wait()
    }

    /// Aggregate statistics so far, read from the metrics registry. An
    /// epoch is counted once its trace is recorded, after its responses
    /// fill, so a caller racing the worker may observe the previous
    /// epoch; read after [`RcServe::shutdown`] for exact totals.
    pub fn stats(&self) -> ServeStats {
        self.shared.tel.stats()
    }

    /// Point-in-time snapshot of every registered metric (see
    /// [`RcServe::metrics`]); works after shutdown, which makes a
    /// retained client the way to read final totals.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.tel.snapshot()
    }

    /// The flight recorder's retained [`EpochTrace`]s, oldest first.
    pub fn flight_dump(&self) -> Vec<EpochTrace> {
        self.shared.tel.flight.dump()
    }

    /// The flight-recorder dump frozen when the worker failed (WAL
    /// append error or poisoned compaction); `None` while healthy. The
    /// failing epoch's partial trace is the last entry with
    /// [`EpochTrace::failed`] set.
    pub fn failure_dump(&self) -> Option<Vec<EpochTrace>> {
        self.shared.tel.failure_dump()
    }

    /// The captured request traces: the deterministic 1-in-N sampled
    /// ring, the always-captured slow ring, and the latency exemplars
    /// (request end-to-end plus, when durable, WAL append/fsync).
    pub fn request_traces(&self) -> TraceDump {
        self.shared.tel.traces()
    }

    /// The postmortem frozen by the epoch-stall watchdog, if a stall has
    /// ever been declared (requires [`ServeConfig::stall_deadline`]).
    pub fn stall_report(&self) -> Option<StallReport> {
        self.shared.tel.stall_report()
    }

    /// Liveness as `/health` reports it: healthy/ready flags, stall
    /// count, and a human-readable detail line.
    pub fn health_view(&self) -> HealthView {
        let accepting = self.shared.intake().accepting;
        self.shared.tel.health_view(accepting)
    }

    /// Drain the commit log recorded so far (`record_commit_log` only),
    /// in commit order: by epoch, updates (in submission order) before
    /// queries (in submission order). Like [`ServeClient::stats`], exact
    /// once the server has shut down.
    pub fn take_commit_log(&self) -> Vec<LogEntry> {
        std::mem::take(&mut *self.shared.log.lock().unwrap_or_else(|e| e.into_inner()))
    }
}

// ---------------------------------------------------------------------
// worker
// ---------------------------------------------------------------------

struct Worker {
    shared: Arc<Shared>,
    epoch: u64,
    /// The durability store, when this server was started with
    /// [`RcServe::start_durable`].
    store: Option<Store>,
}

impl Worker {
    fn run(mut self, mut forest: ServeForest) -> ServeForest {
        loop {
            self.shared.tel.set_worker_phase(PHASE_IDLE);
            if self.shared.intake().pending.is_empty() {
                // About to sleep: under interval sync, fsync the dirty
                // tail now — otherwise an idle lull after a burst would
                // leave it volatile far past the configured interval.
                if let Some(store) = &mut self.store {
                    let _ = store.idle_sync();
                }
            }
            if !self.wait_for_epoch() {
                break; // shutdown with an empty queue
            }
            self.shared.tel.set_worker_phase(PHASE_DRAIN);
            let epoch_start = Instant::now();
            let (batch, queue_depth) = self.drain();
            self.shared.tel.observe_queue_depth(queue_depth);
            let ok = self.process_epoch(&mut forest, batch, queue_depth, epoch_start);
            // Heartbeat: the watchdog's progress counter. Failed epochs
            // tick too — the worker is stopping deliberately, which the
            // health state reports as failed, not stalled.
            self.shared.tel.worker_tick();
            if !ok {
                // Durability failed: every queued request is answered
                // Rejected (never left hanging), then the worker stops.
                self.reject_drain();
                break;
            }
        }
        self.shared.tel.set_worker_phase(PHASE_IDLE);
        if let Some(store) = self.store.take() {
            // Clean shutdown must not lose an acknowledged epoch: flush
            // and fsync whatever tail the sync policy left pending.
            store.close().expect("flush + fsync WAL on shutdown");
        }
        forest
    }

    /// After a durability failure: stop accepting and resolve every
    /// queued request as `Rejected`, so no client blocks forever on a
    /// slot the dead worker would never fill. The flag flips under the
    /// queue lock, so every later submit is rejected at submit.
    fn reject_drain(&self) {
        let rejected = {
            let mut q = self.shared.intake();
            q.accepting = false;
            std::mem::take(&mut q.pending)
        };
        for p in rejected {
            p.slot.fill(Response::Rejected);
        }
    }

    /// Sleep until there is work, then linger per policy. Returns `false`
    /// once shutdown is signalled and the queue is empty.
    fn wait_for_epoch(&self) -> bool {
        let cfg = &self.shared.cfg;
        let mut q = self.shared.intake();
        // Phase 1: wait for any work.
        while q.pending.is_empty() {
            if !q.accepting {
                return false;
            }
            q = self.shared.wake.wait(q).unwrap_or_else(|e| e.into_inner());
        }
        // Phase 2: linger for coalescing; shutdown drains without it.
        let t0 = Instant::now();
        while q.accepting && q.pending.len() < cfg.drain_threshold {
            let elapsed = t0.elapsed();
            if elapsed >= cfg.max_linger {
                break;
            }
            q = self
                .shared
                .wake
                .wait_timeout(q, cfg.max_linger - elapsed)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
        true
    }

    /// Take up to `max_epoch_ops` requests off the front of the queue —
    /// a prefix of submission order — with the queue length it saw.
    fn drain(&self) -> (Vec<Pending>, usize) {
        let mut q = self.shared.intake();
        let depth = q.pending.len();
        let take = depth.min(self.shared.cfg.max_epoch_ops.max(1));
        (q.pending.drain(..take).collect(), depth)
    }

    /// Serve one epoch. Returns `false` when durability failed — the
    /// epoch's requests have then all been answered `Rejected` and the
    /// caller must stop the loop (the in-memory forest may be ahead of
    /// the durable state, so continuing to serve would acknowledge reads
    /// of updates that were never persisted).
    fn process_epoch(
        &mut self,
        forest: &mut ServeForest,
        batch: Vec<Pending>,
        queue_depth: usize,
        epoch_start: Instant,
    ) -> bool {
        // One pass splits the batch. Telemetry dumps answer here, at the
        // drain boundary, before this epoch commits anything: the dump
        // reflects exactly the committed prefix, never a half-applied
        // epoch.
        let (mut updates, mut queries) = (Vec::new(), Vec::new());
        for p in batch {
            if matches!(p.request, Request::DumpTelemetry) {
                self.shared
                    .tel
                    .latency
                    .record(p.submitted.elapsed().as_nanos() as u64);
                p.slot.fill(Response::Telemetry(Box::new(TelemetryDump {
                    snapshot: self.shared.tel.snapshot(),
                    traces: self.shared.tel.flight.dump(),
                })));
            } else if p.request.is_update() {
                updates.push(p);
            } else {
                queries.push(p);
            }
        }
        // The split belongs to the drain phase: stopping the drain timer
        // before it would leave its time in no phase.
        let drain_ns = epoch_start.elapsed().as_nanos() as u64;
        if updates.is_empty() && queries.is_empty() {
            return true;
        }
        self.epoch += 1;
        let mut trace = EpochTrace {
            epoch: self.epoch,
            batch: (updates.len() + queries.len()) as u32,
            updates: updates.len() as u32,
            queries: queries.len() as u32,
            queue_depth: queue_depth as u32,
            drain_ns,
            ..EpochTrace::default()
        };

        // ---- update phase ----
        self.shared.tel.set_worker_phase(PHASE_ADMIT);
        if self.shared.cfg.wedge_epochs.contains(&self.epoch) {
            // Fault injection for the stall-watchdog tests: wedge the
            // worker mid-epoch with its phase published and the batch
            // undrained-looking (queued work keeps arriving), so the
            // watchdog sees busy-with-no-progress.
            std::thread::sleep(self.shared.cfg.wedge_for);
        }
        let t0 = Instant::now();
        // The journal feeds the WAL and any commit-tap subscribers (the
        // same batch groups, reused for both); with neither, nothing is
        // journaled.
        let tapped = self.shared.tapped.load(Ordering::SeqCst);
        let mut phase = UpdatePhase::with_journal(self.store.is_some() || tapped);
        let mut update_results: Vec<Result<(), ForestError>> = Vec::with_capacity(updates.len());
        for p in &updates {
            update_results.push(phase.admit(forest, &p.request));
        }
        phase.flush(forest);
        // Commit propagation is the overlay flushes (forced + final);
        // admission is the rest of the loop.
        trace.commit_ns = phase.flush_ns;
        trace.admit_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(phase.flush_ns);
        let mut journal = phase.take_journal();
        self.shared.tel.set_worker_phase(PHASE_WAL);
        let t_wal = Instant::now();
        // Durability barrier: the epoch's committed batches reach the WAL
        // *before* any response slot fills, so an acknowledged update — or
        // a query answer that observed it — is always backed by at least
        // a written (and, under per-epoch sync, fsynced) record.
        let mut store_failed = false;
        if let Some(store) = &mut self.store {
            if !journal.is_empty() {
                // Exemplar context for the append/fsync latency octaves:
                // the epoch's first sampled update, else its first
                // update, links a slow WAL bucket back to a trace.
                let ctx = updates
                    .iter()
                    .find(|p| p.sampled)
                    .or_else(|| updates.first())
                    .map_or(0, |p| p.seq + 1);
                store.note_trace_context(ctx);
                let rec = EpochRecord {
                    epoch: self.epoch,
                    flushes: std::mem::take(&mut journal),
                };
                if let Err(e) = store.append_epoch(&rec) {
                    // An environmental I/O failure (disk full, dir gone)
                    // must not panic the worker with response slots
                    // unfilled — that would hang every blocked client.
                    // The failed append was rolled back, so nothing of
                    // this epoch is durable: reject it and signal stop.
                    eprintln!(
                        "rc-serve: epoch {}: WAL append failed: {e}; \
                         rejecting requests and stopping",
                        self.epoch
                    );
                    drop(self.store.take()); // best-effort flush of the consistent prefix
                    for p in updates.iter().chain(queries.iter()) {
                        p.slot.fill(Response::Rejected);
                    }
                    // Postmortem: the failing epoch's partial trace
                    // (phases up to the failed append) enters the ring,
                    // and the dump freezes for `failure_dump()`.
                    trace.wal_ns = t_wal.elapsed().as_nanos() as u64;
                    trace.flushes = phase.flushes as u32;
                    trace.failed = true;
                    trace.epoch_wall_ns = epoch_start.elapsed().as_nanos() as u64;
                    self.shared.tel.note_failure(trace);
                    return false;
                }
                if store.wants_compaction() {
                    // Unlike a failed append, a failed compaction is not
                    // a loss for *this* epoch — it is already durable in
                    // the WAL, so its responses go out normally. But the
                    // store may now be half-truncated (the WAL poisons
                    // itself in that case), so serving further epochs
                    // could acknowledge updates that can never persist:
                    // finish this epoch, then stop.
                    if let Err(e) = store.compact(&forest.export_state()) {
                        eprintln!(
                            "rc-serve: epoch {}: WAL compaction failed: {e}; \
                             finishing this epoch, then stopping",
                            self.epoch
                        );
                        store_failed = true;
                        drop(self.store.take()); // poison-aware Drop: no stray writes
                    }
                }
                journal = rec.flushes;
            }
        }
        trace.wal_ns = t_wal.elapsed().as_nanos() as u64;
        // The epoch committed (its WAL append succeeded), but a poisoned
        // store marks its trace failed; the dump freezes once the trace
        // is complete, below.
        trace.failed = store_failed;
        if tapped && !journal.is_empty() {
            // Notify commit-tap subscribers after the durability barrier,
            // before any response slot fills: a shipped record is never
            // ahead of the leader's own store.
            let event = CommitEvent {
                epoch: self.epoch,
                record: Arc::new(EpochRecord {
                    epoch: self.epoch,
                    flushes: journal,
                }),
            };
            let mut taps = self.shared.taps.lock().unwrap_or_else(|e| e.into_inner());
            taps.retain(|tx| tx.send(event.clone()).is_ok());
        }
        trace.flushes = phase.flushes as u32;
        // Span layout for this epoch's request traces: the update-side
        // phases every request rode through; the query phase adds its
        // fan-out duration below.
        let mut layout = SpanLayout::new(self.epoch, epoch_start);
        layout.drain_ns = drain_ns;
        layout.admit_ns = trace.admit_ns;
        layout.commit_ns = trace.commit_ns;
        // In-memory servers still time the (empty) durability-barrier
        // section; don't surface those few ns as a "wal" span.
        if self.store.is_some() {
            layout.wal_ns = trace.wal_ns;
        }
        self.shared.tel.set_worker_phase(PHASE_RESPOND);
        let t_respond = Instant::now();
        for (p, r) in updates.iter().zip(&update_results) {
            let e2e = p.submitted.elapsed().as_nanos() as u64;
            self.shared.tel.latency.record(e2e);
            p.slot.fill(Response::Updated(r.clone()));
            self.shared.tel.maybe_capture(
                &layout,
                p.seq,
                p.submitted,
                p.request.kind_name(),
                None,
                p.sampled,
                e2e,
            );
        }
        trace.respond_ns = t_respond.elapsed().as_nanos() as u64;

        // ---- query phase: the live forest, as this epoch committed it ----
        self.shared.tel.set_worker_phase(PHASE_QUERY);
        let t1 = Instant::now();
        let refs: Vec<&Request> = queries.iter().map(|p| &p.request).collect();
        let (query_responses, fam) = answer_requests_timed(forest, &refs, &BATCH_MIN_K);
        let query_ns = t1.elapsed().as_nanos() as u64;
        trace.query_ns = query_ns;
        trace.family_ns = fam.ns;
        trace.family_counts = fam.counts;
        trace.family_engine = fam.engine;
        layout.query_ns = query_ns;
        self.shared.tel.set_worker_phase(PHASE_RESPOND);
        let t_respond = Instant::now();
        for (p, r) in queries.iter().zip(&query_responses) {
            let e2e = p.submitted.elapsed().as_nanos() as u64;
            self.shared.tel.latency.record(e2e);
            p.slot.fill(r.clone());
            self.shared.tel.maybe_capture(
                &layout,
                p.seq,
                p.submitted,
                p.request.kind_name(),
                family_index(&p.request),
                p.sampled,
                e2e,
            );
        }
        trace.respond_ns += t_respond.elapsed().as_nanos() as u64;
        trace.epoch_wall_ns = epoch_start.elapsed().as_nanos() as u64;
        self.shared.tel.record_trace(trace);
        if self.shared.cfg.record_commit_log {
            // One thread appends every entry, epoch by epoch: the log is
            // in commit order as written.
            let epoch = self.epoch;
            let responses = update_results
                .into_iter()
                .map(Response::Updated)
                .chain(query_responses);
            let mut log = self.shared.log.lock().unwrap_or_else(|e| e.into_inner());
            log.extend(
                updates
                    .into_iter()
                    .chain(queries)
                    .zip(responses)
                    .map(|(p, response)| LogEntry {
                        epoch,
                        seq: p.seq,
                        request: p.request,
                        response,
                        version: epoch,
                    }),
            );
        }
        if store_failed {
            self.shared.tel.freeze(self.epoch);
        }
        !store_failed
    }
}

// ---------------------------------------------------------------------
// update phase: exact in-epoch conflict resolution
// ---------------------------------------------------------------------

/// Overlay of pending updates over the forest. Admission answers each
/// update's exact sequential outcome; `flush` commits the overlay in at
/// most four batch calls (cuts, links, edge weights, vertex weights —
/// an ordering equivalent to submission order for every *admitted* op,
/// because conflicting admissions force an early flush).
#[derive(Default)]
struct UpdatePhase {
    links: Vec<(u32, u32, u64)>,
    link_idx: HashMap<u64, usize>,
    cuts: Vec<(u32, u32)>,
    cut_keys: HashMap<u64, ()>,
    eweights: HashMap<u64, (u32, u32, u64)>,
    vweights: HashMap<u32, ServeVertexWeight>,
    deg: HashMap<u32, i32>,
    /// Union–find over component representatives (forest + pending links).
    uf: HashMap<u32, u32>,
    /// A pending link was cancelled after its union was recorded: the
    /// union–find now over-connects, so "connected" verdicts need a flush
    /// to confirm (exactly like pending cuts do).
    uf_stale: bool,
    flushes: usize,
    /// Total wall time spent inside [`flush`](Self::flush) — the commit-
    /// propagation share of the update phase, for the flight recorder.
    flush_ns: u64,
    /// When durable: every committed flush's batch groups, in commit
    /// order — exactly what the WAL persists for batch replay.
    journal: Option<Vec<FlushRecord>>,
}

impl UpdatePhase {
    /// An empty phase, journaling committed flushes iff `durable`.
    fn with_journal(durable: bool) -> Self {
        UpdatePhase {
            journal: durable.then(Vec::new),
            ..Default::default()
        }
    }

    /// The journaled flush records (empty unless journaling was on).
    fn take_journal(&mut self) -> Vec<FlushRecord> {
        self.journal.take().unwrap_or_default()
    }
    fn find(&mut self, x: u32) -> u32 {
        let p = *self.uf.get(&x).unwrap_or(&x);
        if p == x {
            x
        } else {
            let r = self.find(p);
            self.uf.insert(x, r);
            r
        }
    }

    /// Effective edge presence under the overlay.
    fn edge_present(&self, forest: &ServeForest, key: u64, u: u32, v: u32) -> bool {
        if self.link_idx.contains_key(&key) {
            return true;
        }
        forest.has_edge(u, v) && !self.cut_keys.contains_key(&key)
    }

    fn eff_degree(&self, forest: &ServeForest, v: u32) -> i32 {
        forest.degree(v) as i32 + self.deg.get(&v).copied().unwrap_or(0)
    }

    fn eff_vweight(&self, forest: &ServeForest, v: u32) -> ServeVertexWeight {
        self.vweights
            .get(&v)
            .copied()
            .unwrap_or_else(|| *forest.vertex_weight(v))
    }

    fn check_range(forest: &ServeForest, v: u32) -> Result<(), ForestError> {
        if (v as usize) < forest.num_vertices() {
            Ok(())
        } else {
            Err(ForestError::VertexOutOfRange {
                v,
                n: forest.num_vertices(),
            })
        }
    }

    fn admit(&mut self, forest: &mut ServeForest, req: &Request) -> Result<(), ForestError> {
        match *req {
            Request::Link { u, v, w } => self.admit_link(forest, u, v, w),
            Request::Cut { u, v } => self.admit_cut(forest, u, v),
            Request::UpdateEdgeWeight { u, v, w } => {
                Self::check_range(forest, u)?;
                Self::check_range(forest, v)?;
                let key = edge_key(u, v);
                if let Some(&i) = self.link_idx.get(&key) {
                    self.links[i].2 = w; // retarget the pending link's weight
                    return Ok(());
                }
                if forest.has_edge(u, v) && !self.cut_keys.contains_key(&key) {
                    self.eweights.insert(key, (u, v, w));
                    Ok(())
                } else {
                    Err(ForestError::MissingEdge { u, v })
                }
            }
            Request::UpdateVertexWeight { v, w } => {
                Self::check_range(forest, v)?;
                let mut vw = self.eff_vweight(forest, v);
                vw.weight = w;
                self.vweights.insert(v, vw);
                Ok(())
            }
            Request::Mark { v } => self.set_mark(forest, v, true),
            Request::Unmark { v } => self.set_mark(forest, v, false),
            _ => unreachable!("queries never enter the update phase"),
        }
    }

    fn set_mark(&mut self, forest: &ServeForest, v: u32, marked: bool) -> Result<(), ForestError> {
        Self::check_range(forest, v)?;
        let mut vw = self.eff_vweight(forest, v);
        vw.marked = marked;
        self.vweights.insert(v, vw);
        Ok(())
    }

    fn admit_link(
        &mut self,
        forest: &mut ServeForest,
        u: u32,
        v: u32,
        w: u64,
    ) -> Result<(), ForestError> {
        Self::check_range(forest, u)?;
        Self::check_range(forest, v)?;
        if u == v {
            return Err(ForestError::SelfLoop { v });
        }
        // One retry after a forced flush resolves every cut-dependence.
        for attempt in 0..2 {
            let key = edge_key(u, v);
            if self.edge_present(forest, key, u, v) {
                return Err(ForestError::DuplicateEdge { u, v });
            }
            for x in [u, v] {
                if self.eff_degree(forest, x) >= 3 {
                    return Err(ForestError::DegreeOverflow { v: x });
                }
            }
            // Cut→relink of one edge inside an epoch cancels: while {u,v}
            // is pending-cut, no admitted link can have bridged its two
            // sides (such a link would have seen them uf-connected and
            // forced a flush, clearing the cut) — so the relink is provably
            // acyclic and the pair collapses to an edge-weight update.
            if self.cut_keys.remove(&key).is_some() {
                let at = self
                    .cuts
                    .iter()
                    .position(|&(a, b)| edge_key(a, b) == key)
                    .expect("cut list and key set agree");
                self.cuts.swap_remove(at);
                *self.deg.entry(u).or_insert(0) += 1;
                *self.deg.entry(v).or_insert(0) += 1;
                self.eweights.insert(key, (u, v, w));
                return Ok(());
            }
            let ru = self.find(forest.find_representative(u));
            let rv = self.find(forest.find_representative(v));
            if ru != rv {
                self.uf.insert(ru, rv);
                self.link_idx.insert(key, self.links.len());
                self.links.push((u, v, w));
                *self.deg.entry(u).or_insert(0) += 1;
                *self.deg.entry(v).or_insert(0) += 1;
                return Ok(());
            }
            // Connected under the overlay. That verdict is exact unless a
            // pending cut (or a cancelled link) means the union–find
            // over-connects — then flush and re-examine against the real
            // forest.
            if (self.cuts.is_empty() && !self.uf_stale) || attempt == 1 {
                return Err(ForestError::WouldCreateCycle { u, v });
            }
            self.flush(forest);
        }
        unreachable!("second attempt always returns")
    }

    fn admit_cut(&mut self, forest: &mut ServeForest, u: u32, v: u32) -> Result<(), ForestError> {
        Self::check_range(forest, u)?;
        Self::check_range(forest, v)?;
        let key = edge_key(u, v);
        if let Some(at) = self.link_idx.remove(&key) {
            // Link→cut of the same edge inside one epoch cancels. The
            // union recorded at link admission cannot be unwound, so the
            // union–find becomes an over-approximation — flag it.
            self.links.swap_remove(at);
            if let Some(moved) = self.links.get(at) {
                let moved_key = edge_key(moved.0, moved.1);
                self.link_idx.insert(moved_key, at);
            }
            *self.deg.entry(u).or_insert(0) -= 1;
            *self.deg.entry(v).or_insert(0) -= 1;
            self.uf_stale = true;
            return Ok(());
        }
        if forest.has_edge(u, v) && !self.cut_keys.contains_key(&key) {
            self.cut_keys.insert(key, ());
            self.cuts.push((u, v));
            self.eweights.remove(&key); // a pending reweight dies with the edge
            *self.deg.entry(u).or_insert(0) -= 1;
            *self.deg.entry(v).or_insert(0) -= 1;
            Ok(())
        } else {
            Err(ForestError::MissingEdge { u, v })
        }
    }

    /// Commit the overlay. Every admitted op was validated exactly, so the
    /// batch calls cannot fail; a failure here is an engine bug worth a
    /// loud crash rather than silent divergence from the responses already
    /// promised.
    fn flush(&mut self, forest: &mut ServeForest) {
        let t_flush = Instant::now();
        let any = !self.cuts.is_empty()
            || !self.links.is_empty()
            || !self.eweights.is_empty()
            || !self.vweights.is_empty();
        if !any {
            // Cancellations may have annihilated every pending op while
            // still leaving recorded unions behind — the overlay (in
            // particular the stale union–find) must reset regardless, or
            // the caller's post-flush retry would trust it.
            self.deg.clear();
            self.uf.clear();
            self.uf_stale = false;
            return;
        }
        if !self.cuts.is_empty() || !self.links.is_empty() {
            // One combined change-propagation (the paper's mixed update).
            // Admission validated every link against the overlay *without*
            // relying on any pending cut (cut-dependent links forced an
            // earlier flush), so acyclicity holds even before the cuts.
            forest
                .batch_update_unchecked(&self.links, &self.cuts)
                .expect("pre-validated epoch links+cuts");
        }
        let ew: Vec<(u32, u32, u64)> = self.eweights.values().copied().collect();
        if !ew.is_empty() {
            forest
                .update_edge_weights(&ew)
                .expect("pre-validated edge weights");
        }
        let vw: Vec<(u32, ServeVertexWeight)> =
            self.vweights.iter().map(|(&v, &w)| (v, w)).collect();
        if !vw.is_empty() {
            forest
                .update_vertex_weights(&vw)
                .expect("in-range vertex weights");
        }
        if let Some(journal) = &mut self.journal {
            // The committed batches move into the journal instead of
            // being re-collected/cloned — the clears below then only
            // reset the already-emptied vectors.
            journal.push(FlushRecord {
                cuts: std::mem::take(&mut self.cuts),
                links: std::mem::take(&mut self.links),
                eweights: ew,
                vweights: vw
                    .into_iter()
                    .map(|(v, w)| (v, w.weight, w.marked))
                    .collect(),
            });
        }
        self.links.clear();
        self.link_idx.clear();
        self.cuts.clear();
        self.cut_keys.clear();
        self.eweights.clear();
        self.vweights.clear();
        self.deg.clear();
        self.uf.clear();
        self.uf_stale = false;
        self.flushes += 1;
        self.flush_ns += t_flush.elapsed().as_nanos() as u64;
    }
}
