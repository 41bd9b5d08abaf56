//! Epoch flight recorder: a bounded ring of [`EpochTrace`] records.
//!
//! The serve worker records one trace per epoch, once the epoch's last
//! response has filled. Recording and dumping hold the ring's lock only
//! to copy `Copy` records in or out, so a dump is safe from any thread at
//! any time, including from failure paths, and never sees a torn record.
//! A dump returns the newest `capacity` traces, oldest first.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Query families timed individually during the fan-out phase. Indexes
/// [`EpochTrace::family_ns`] / [`EpochTrace::family_counts`].
pub const FAMILY_NAMES: [&str; 8] = [
    "conn",
    "repr",
    "path",
    "subtree",
    "lca",
    "bottleneck",
    "near",
    "cpt",
];

/// Engine names, indexed by [`Engine::index`]: the `engine` label of the
/// per-family serve series and the `engine` key in `/flight`.
pub const ENGINE_NAMES: [&str; 2] = ["batched", "independent"];

/// How a family's query fan-out ran over the committed forest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// One batch call for the whole family (shared marked sweep).
    Batched,
    /// One independent `O(log n)` single-query walk per query, under
    /// `parallel_for`.
    Independent,
}

impl Engine {
    /// Index into [`ENGINE_NAMES`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Per-epoch phase timings and sizes. `Copy` with no heap, so the flight
/// recorder stores it by value.
///
/// The phases partition an epoch's wall time in the order the worker
/// runs them: drain → admission → commit propagation (flushes) → WAL
/// append → query fan-out → respond.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochTrace {
    /// Epoch number (unique per serve worker lifetime).
    pub epoch: u64,
    /// Requests drained into this epoch.
    pub batch: u32,
    /// Update requests admitted.
    pub updates: u32,
    /// Query requests answered.
    pub queries: u32,
    /// Overlay flushes during admission.
    pub flushes: u32,
    /// Queue length observed at drain time.
    pub queue_depth: u32,
    /// Time draining the submission queue and splitting the batch.
    pub drain_ns: u64,
    /// Admission/cancellation overlay time (excluding flushes).
    pub admit_ns: u64,
    /// Commit propagation: overlay flushes into the forest.
    pub commit_ns: u64,
    /// WAL append + fsync (zero when durability is off).
    pub wal_ns: u64,
    /// Query fan-out wall time.
    pub query_ns: u64,
    /// Filling response slots + recording request latencies.
    pub respond_ns: u64,
    /// Drain start to last response of this epoch.
    pub epoch_wall_ns: u64,
    /// Per-family fan-out time, indexed by [`FAMILY_NAMES`].
    pub family_ns: [u64; 8],
    /// Per-family query counts, indexed by [`FAMILY_NAMES`].
    pub family_counts: [u32; 8],
    /// Per-family dispatch engine this epoch: 0 = family did not run,
    /// else `1 + Engine::index()` (1 batched, 2 independent).
    pub family_engine: [u8; 8],
    /// True if the epoch failed (WAL append error, compaction error);
    /// phase fields before the failure point are still valid.
    pub failed: bool,
}

impl EpochTrace {
    /// Sum of the phase timings that partition the epoch's wall time.
    pub fn phase_sum_ns(&self) -> u64 {
        self.drain_ns
            + self.admit_ns
            + self.commit_ns
            + self.wal_ns
            + self.query_ns
            + self.respond_ns
    }
}

/// A bounded FIFO of `Copy` records behind one lock, allocated up front:
/// once it holds `capacity` records, each push drops the oldest. The
/// flight recorder and both request-trace rings are one of these.
#[derive(Debug)]
pub(crate) struct Ring<T> {
    capacity: usize,
    items: Mutex<VecDeque<T>>,
}

impl<T: Copy> Ring<T> {
    /// Ring with room for `capacity` records (min 1).
    pub(crate) fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Ring {
            capacity,
            items: Mutex::new(VecDeque::with_capacity(capacity)),
        }
    }

    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    pub(crate) fn push(&self, item: T) {
        let mut items = self.items.lock().unwrap_or_else(|e| e.into_inner());
        if items.len() == self.capacity {
            items.pop_front();
        }
        items.push_back(item);
    }

    /// Every retained record, oldest first.
    pub(crate) fn to_vec(&self) -> Vec<T> {
        let items = self.items.lock().unwrap_or_else(|e| e.into_inner());
        items.iter().copied().collect()
    }
}

/// Bounded ring of [`EpochTrace`] records: keeps the newest `capacity`
/// traces, dropping the oldest once full.
#[derive(Debug)]
pub struct FlightRecorder {
    ring: Ring<EpochTrace>,
}

impl FlightRecorder {
    /// Ring with room for `capacity` traces (min 1).
    pub fn new(capacity: usize) -> Self {
        FlightRecorder {
            ring: Ring::new(capacity),
        }
    }

    /// Number of traces the ring retains.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Record one finished trace, dropping the oldest if the ring is full.
    pub fn record(&self, trace: EpochTrace) {
        self.ring.push(trace);
    }

    /// Copy out every retained trace, oldest first.
    pub fn dump(&self) -> Vec<EpochTrace> {
        self.ring.to_vec()
    }
}

/// Aggregate of a set of [`EpochTrace`]s: total time per phase plus
/// coverage (phase sum vs wall sum) — the flight-recorder view that
/// `serve_load` embeds in `BENCH_serve.json`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseTotals {
    /// Epochs aggregated.
    pub epochs: u64,
    /// Total drain time.
    pub drain_ns: u64,
    /// Total admission time.
    pub admit_ns: u64,
    /// Total commit-propagation time.
    pub commit_ns: u64,
    /// Total WAL append+fsync time.
    pub wal_ns: u64,
    /// Total query fan-out time.
    pub query_ns: u64,
    /// Total respond time.
    pub respond_ns: u64,
    /// Total epoch wall time.
    pub wall_ns: u64,
    /// Per-family totals, indexed by [`FAMILY_NAMES`].
    pub family_ns: [u64; 8],
}

impl PhaseTotals {
    /// Aggregate `traces` (typically a [`FlightRecorder::dump`]).
    pub fn from_traces(traces: &[EpochTrace]) -> Self {
        let mut t = PhaseTotals::default();
        for tr in traces {
            t.epochs += 1;
            t.drain_ns += tr.drain_ns;
            t.admit_ns += tr.admit_ns;
            t.commit_ns += tr.commit_ns;
            t.wal_ns += tr.wal_ns;
            t.query_ns += tr.query_ns;
            t.respond_ns += tr.respond_ns;
            t.wall_ns += tr.epoch_wall_ns;
            for i in 0..8 {
                t.family_ns[i] += tr.family_ns[i];
            }
        }
        t
    }

    /// Sum of all phase totals (the numerator of coverage).
    pub fn phase_sum_ns(&self) -> u64 {
        self.drain_ns
            + self.admit_ns
            + self.commit_ns
            + self.wal_ns
            + self.query_ns
            + self.respond_ns
    }

    /// Fraction of epoch wall time the phases account for (1.0 = every
    /// nanosecond attributed). The acceptance bar for this repo is
    /// ≥ 0.9 on a release run under concurrent load.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            return 1.0;
        }
        self.phase_sum_ns() as f64 / self.wall_ns as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Trace where every field is derived from `epoch`, so a torn
    /// (mixed-epoch) record is detectable field-by-field.
    fn patterned(epoch: u64) -> EpochTrace {
        let mut t = EpochTrace {
            epoch,
            batch: epoch as u32,
            updates: epoch as u32 + 1,
            queries: epoch as u32 + 2,
            flushes: epoch as u32 + 3,
            queue_depth: epoch as u32 + 4,
            drain_ns: epoch * 10,
            admit_ns: epoch * 11,
            commit_ns: epoch * 12,
            wal_ns: epoch * 13,
            query_ns: epoch * 17,
            respond_ns: epoch * 18,
            epoch_wall_ns: epoch * 19,
            ..EpochTrace::default()
        };
        for i in 0..8 {
            t.family_ns[i] = epoch * (20 + i as u64);
            t.family_counts[i] = epoch as u32 + i as u32;
        }
        t
    }

    fn assert_untorn(t: &EpochTrace) {
        let e = t.epoch;
        let want = patterned(e);
        assert_eq!(*t, want, "torn record at epoch {e}");
    }

    #[test]
    fn ring_keeps_newest_at_capacity() {
        let ring = FlightRecorder::new(8);
        for e in 1..=3_000u64 {
            ring.record(patterned(e));
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 8);
        let epochs: Vec<u64> = dump.iter().map(|t| t.epoch).collect();
        assert_eq!(epochs, (2_993..=3_000).collect::<Vec<_>>());
        for t in &dump {
            assert_untorn(t);
        }
    }

    #[test]
    fn dump_before_fill_returns_prefix() {
        let ring = FlightRecorder::new(16);
        for e in 1..=5u64 {
            ring.record(patterned(e));
        }
        let dump = ring.dump();
        assert_eq!(dump.len(), 5);
        assert_eq!(dump[0].epoch, 1);
        assert_eq!(dump[4].epoch, 5);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let ring = FlightRecorder::new(0);
        assert_eq!(ring.capacity(), 1);
        ring.record(patterned(7));
        assert_eq!(ring.dump().len(), 1);
    }

    #[test]
    fn concurrent_writers_and_readers_no_torn_records() {
        // Two writer threads (the ring's contract allows concurrent
        // writers) hammer a small ring while two readers dump
        // continuously. Every dumped record must be internally
        // consistent — all fields derived from the same epoch.
        let ring = Arc::new(FlightRecorder::new(32));
        let writers: Vec<_> = (0..2)
            .map(|w| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    for i in 0..20_000u64 {
                        ring.record(patterned(w * 1_000_000 + i));
                    }
                })
            })
            .collect();
        let readers: Vec<_> = (0..2)
            .map(|_| {
                let ring = ring.clone();
                std::thread::spawn(move || {
                    let mut seen = 0usize;
                    for _ in 0..200 {
                        let dump = ring.dump();
                        for t in &dump {
                            assert_untorn(t);
                        }
                        seen += dump.len();
                        std::thread::yield_now();
                    }
                    seen
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        let mut total = 0;
        for r in readers {
            total += r.join().unwrap();
        }
        assert!(total > 0, "readers observed records");
        for t in &ring.dump() {
            assert_untorn(t);
        }
    }

    #[test]
    fn coverage_is_finite_for_degenerate_epochs() {
        // Zero-wall-time epochs (pure-dump batches, sub-tick epochs on a
        // coarse clock) must never yield NaN/inf coverage.
        let empty = PhaseTotals::default();
        assert!(empty.coverage().is_finite());
        assert!((empty.coverage() - 1.0).abs() < 1e-9);

        let zero_wall = PhaseTotals::from_traces(&[EpochTrace {
            epoch: 1,
            drain_ns: 50,
            respond_ns: 10,
            epoch_wall_ns: 0,
            ..EpochTrace::default()
        }]);
        assert_eq!(zero_wall.wall_ns, 0);
        assert!(zero_wall.coverage().is_finite(), "no div-by-zero");
        assert!((zero_wall.coverage() - 1.0).abs() < 1e-9);

        // And the all-zero trace (a dump-only epoch records no phases).
        let dump_only = PhaseTotals::from_traces(&[EpochTrace::default()]);
        assert!(dump_only.coverage().is_finite());
    }

    #[test]
    fn phase_totals_and_coverage() {
        let t = EpochTrace {
            epoch: 1,
            drain_ns: 10,
            admit_ns: 20,
            commit_ns: 30,
            wal_ns: 40,
            query_ns: 70,
            respond_ns: 30,
            epoch_wall_ns: 200,
            ..EpochTrace::default()
        };
        assert_eq!(t.phase_sum_ns(), 200);
        let totals = PhaseTotals::from_traces(&[t, t]);
        assert_eq!(totals.epochs, 2);
        assert_eq!(totals.phase_sum_ns(), 400);
        assert_eq!(totals.wall_ns, 400);
        assert!((totals.coverage() - 1.0).abs() < 1e-9);
        let empty = PhaseTotals::default();
        assert!((empty.coverage() - 1.0).abs() < 1e-9);
    }
}
