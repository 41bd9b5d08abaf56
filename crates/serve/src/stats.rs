//! Per-epoch and aggregate serving statistics.
//!
//! The latency histogram itself now lives in `rc-obs` (it is shared by
//! the store and the flight recorder); this module re-exports it under
//! the historical serve names and keeps the serve-specific stats types.

/// The shared quarter-octave histogram, re-exported under the name this
/// crate has always used.
pub use rc_obs::Histogram as LatencyHistogram;
/// Percentile snapshot of a [`LatencyHistogram`].
pub use rc_obs::HistogramSummary as LatencySummary;

/// Instrumentation of one drained epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochStats {
    /// Epoch ordinal (1-based).
    pub epoch: u64,
    /// Requests drained into this epoch.
    pub batch: usize,
    /// Queue depth observed at drain time (before capping).
    pub queue_depth: usize,
    /// Update requests (including rejected ones).
    pub updates: usize,
    /// Query requests.
    pub queries: usize,
    /// Sub-batch flushes forced by in-epoch conflicts (1 = fully
    /// coalesced update phase).
    pub flushes: usize,
    /// Wall time of the update phase (admission + commit + WAL append).
    pub update_ns: u64,
    /// Wall time of the query fan-out, which runs on the worker right
    /// after the update phase, against the state this epoch committed.
    pub query_ns: u64,
    /// Forest version stamp after the epoch committed.
    pub version_after: u64,
}

/// Aggregate server statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServeStats {
    /// Epochs committed.
    pub epochs: u64,
    /// Requests served.
    pub ops: u64,
    /// Update requests served.
    pub updates: u64,
    /// Query requests served.
    pub queries: u64,
    /// Total sub-batch flushes across all epochs.
    pub flushes: u64,
    /// Mean epoch batch size.
    pub mean_batch: f64,
    /// Largest epoch batch.
    pub max_batch: usize,
    /// End-to-end request latency (submit → response).
    pub latency: LatencySummary,
    /// Request traces captured by the deterministic 1-in-N sampler.
    pub traces_sampled: u64,
    /// Request traces captured because end-to-end latency exceeded the
    /// slow threshold (independent of sampling).
    pub traces_slow: u64,
}
