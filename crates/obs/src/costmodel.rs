//! Online cost model for adaptive query dispatch: per-(family, engine,
//! k-octave) streaming ns/op statistics, epsilon-greedy exploration, a
//! crossover estimator, and a CRC-framed calibration table for warm
//! restarts.
//!
//! The paper's central experimental finding (fig. 11; BENCH_crossover.json)
//! is that no single query engine wins everywhere: running each query
//! independently wins at small per-family batch sizes, the batch-parallel
//! path wins 2–8x at k ≥ 1k, and the crossover point differs per query
//! family and per machine. This module turns the serve tier's existing
//! per-family query-phase timings into a live model of that tradeoff:
//!
//! - [`CostModel::observe`] feeds one measured fan-out (family, engine,
//!   batch size, wall ns) into a lock-free EWMA cell keyed by the batch
//!   size's octave (`⌊log2 k⌋`), so the table adapts to workload drift
//!   and thread-count changes without locks on the epoch loop.
//! - [`CostModel::choose`] picks the engine for the next fan-out:
//!   epsilon-greedy — with probability `explore_frac` it samples the
//!   least-observed engine at that octave (keeping the table current),
//!   otherwise it exploits the cheapest predicted total cost, falling
//!   back to the batched path when nothing is known yet. The explore
//!   roll is a pure function of `(seed, decision index)` (the same
//!   splitmix64 discipline as [`crate::trace_sampled`]), so a fixed seed
//!   replays the same explore/exploit sequence.
//! - [`CostModel::crossover_k`] fits the per-family switch point the
//!   ROADMAP asks for: the smallest batch size from which the batched
//!   engine stays the predicted winner.
//! - [`CalibrationTable`] snapshots the learned cells into the rc-store
//!   frame discipline ([`crate::frame`]: length + CRC-32 header) so a
//!   restarted server can start warm ([`CostModel::load_table`]).
//!
//! Everything is `&self` and allocation-free on the observe/choose hot
//! paths; the serve tier's epoch worker feeds and consults one model
//! while the observability endpoint reads it live.

use crate::frame;
use crate::registry::escape_json;
use crate::reqtrace::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Query families the model tracks — indexed like
/// [`crate::FAMILY_NAMES`].
pub const NUM_FAMILIES: usize = 8;

/// Execution engines the serve tier can route a family's fan-out to.
pub const NUM_ENGINES: usize = 3;

/// Batch-size octaves per (family, engine): octave `o` covers
/// `k ∈ [2^o, 2^(o+1))`, with the last octave open-ended.
pub const NUM_OCTAVES: usize = 18;

/// Engine names, indexed by [`Engine::index`].
pub const ENGINE_NAMES: [&str; NUM_ENGINES] = ["batched", "independent", "sequential"];

/// How a family's query fan-out is executed over the committed forest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Engine {
    /// One batch call for the whole family (shared sweeps; wins at
    /// large k).
    #[default]
    Batched,
    /// One parallel task per query, each an independent `O(log n)`
    /// root-to-leaf walk (wins at small k: no sweep setup).
    Independent,
    /// A sequential loop of single-query walks (wins when k is tiny and
    /// spawning parallel tasks costs more than the queries).
    Sequential,
}

impl Engine {
    /// Index into [`ENGINE_NAMES`] and the model's tables.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Inverse of [`index`](Self::index); `None` when out of range.
    pub fn from_index(i: usize) -> Option<Engine> {
        match i {
            0 => Some(Engine::Batched),
            1 => Some(Engine::Independent),
            2 => Some(Engine::Sequential),
            _ => None,
        }
    }

    /// The engine's name in metrics labels and JSON.
    pub fn name(self) -> &'static str {
        ENGINE_NAMES[self.index()]
    }
}

/// Per-epoch dispatch policy for the serve tier's query phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DispatchMode {
    /// Consult the cost model per family per epoch (the default).
    #[default]
    Adaptive,
    /// Always run the one-batch-call-per-family path (the pre-dispatch
    /// behavior; the baseline `serve_load` compares against).
    AlwaysBatched,
    /// Always run independent parallel single-query walks.
    AlwaysIndependent,
    /// Always run a sequential loop of single-query walks.
    AlwaysSequential,
}

impl DispatchMode {
    /// Mode name for JSON/bench output.
    pub fn name(self) -> &'static str {
        match self {
            DispatchMode::Adaptive => "adaptive",
            DispatchMode::AlwaysBatched => "always_batched",
            DispatchMode::AlwaysIndependent => "always_independent",
            DispatchMode::AlwaysSequential => "always_sequential",
        }
    }
}

/// One engine choice for one family's fan-out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Decision {
    /// The engine to run.
    pub engine: Engine,
    /// Predicted total cost of running the fan-out on `engine`, in ns
    /// (0 when the model has no data to predict from).
    pub predicted_ns: u64,
    /// True when this was an exploration sample rather than the
    /// predicted-cheapest engine.
    pub explored: bool,
}

/// Cumulative dispatch counters: how often each (family, engine) was
/// chosen and how many queries rode each choice.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DispatchStats {
    /// Fan-out decisions per (family, engine).
    pub decisions: [[u64; NUM_ENGINES]; NUM_FAMILIES],
    /// Queries executed per (family, engine).
    pub queries: [[u64; NUM_ENGINES]; NUM_FAMILIES],
    /// Decisions that were exploration samples.
    pub explored: u64,
    /// Total fan-out decisions.
    pub total: u64,
}

/// The EWMA smoothing factor: new observations get 25% weight, so the
/// table tracks drift within ~a dozen epochs per cell without jittering
/// on one noisy measurement.
const ALPHA: f64 = 0.25;

/// One streaming cell: observation count + EWMA ns/op (f64 bits), both
/// updated lock-free.
#[derive(Default)]
struct Cell {
    count: AtomicU64,
    ns_per_op_bits: AtomicU64,
}

impl Cell {
    fn observe(&self, ns_per_op: f64) {
        let n = self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.ns_per_op_bits.load(Ordering::Relaxed);
        loop {
            let next = if n == 0 {
                ns_per_op
            } else {
                f64::from_bits(cur) * (1.0 - ALPHA) + ns_per_op * ALPHA
            };
            match self.ns_per_op_bits.compare_exchange_weak(
                cur,
                next.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    fn get(&self) -> (u64, f64) {
        (
            self.count.load(Ordering::Relaxed),
            f64::from_bits(self.ns_per_op_bits.load(Ordering::Relaxed)),
        )
    }

    fn set(&self, count: u64, ns_per_op: f64) {
        self.count.store(count, Ordering::Relaxed);
        self.ns_per_op_bits
            .store(ns_per_op.to_bits(), Ordering::Relaxed);
    }
}

/// The octave of a batch size: `⌊log2 k⌋`, clamped to the table.
#[inline]
pub fn k_octave(k: u32) -> usize {
    ((31 - k.max(1).leading_zeros()) as usize).min(NUM_OCTAVES - 1)
}

#[inline]
fn cell_index(family: usize, engine: usize, octave: usize) -> usize {
    (family * NUM_ENGINES + engine) * NUM_OCTAVES + octave
}

/// The online profiler + decision policy. Shared (`Arc`) between the
/// serve worker and the observability endpoint; all methods are `&self`.
pub struct CostModel {
    cells: Box<[Cell]>,
    /// Probability a decision explores rather than exploits, in units of
    /// 2^-32 (0 disables exploration).
    explore_bits: u32,
    seed: u64,
    /// Monotone decision ordinal — the explore roll's deterministic
    /// input.
    decisions: AtomicU64,
    explored_total: AtomicU64,
    chosen: Box<[AtomicU64]>,
    chosen_queries: Box<[AtomicU64]>,
}

impl CostModel {
    /// Model exploring with probability `explore_frac` (clamped to
    /// `[0, 1]`), rolled deterministically from `seed`.
    pub fn new(explore_frac: f64, seed: u64) -> Self {
        let explore_bits = (explore_frac.clamp(0.0, 1.0) * (1u64 << 32) as f64) as u64;
        CostModel {
            cells: (0..NUM_FAMILIES * NUM_ENGINES * NUM_OCTAVES)
                .map(|_| Cell::default())
                .collect(),
            explore_bits: explore_bits.min(u32::MAX as u64) as u32,
            seed,
            decisions: AtomicU64::new(0),
            explored_total: AtomicU64::new(0),
            chosen: (0..NUM_FAMILIES * NUM_ENGINES)
                .map(|_| AtomicU64::new(0))
                .collect(),
            chosen_queries: (0..NUM_FAMILIES * NUM_ENGINES)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// The configured exploration fraction.
    pub fn explore_frac(&self) -> f64 {
        self.explore_bits as f64 / (1u64 << 32) as f64
    }

    /// Feed one measured fan-out: `family` ran `k` queries on `engine`
    /// in `total_ns`. Lock-free; called from the epoch worker after
    /// every timed family batch.
    pub fn observe(&self, family: usize, engine: Engine, k: u32, total_ns: u64) {
        if family >= NUM_FAMILIES || k == 0 {
            return;
        }
        let ns_per_op = total_ns as f64 / k as f64;
        self.cells[cell_index(family, engine.index(), k_octave(k))].observe(ns_per_op);
    }

    /// Predicted total cost (ns) of running `k` queries of `family` on
    /// `engine`. Uses the octave cell when populated, else the nearest
    /// populated octave's ns/op; `None` when the engine has never been
    /// observed for this family.
    pub fn predict(&self, family: usize, engine: Engine, k: u32) -> Option<u64> {
        if family >= NUM_FAMILIES || k == 0 {
            return None;
        }
        let want = k_octave(k);
        let e = engine.index();
        let mut best: Option<(usize, f64)> = None; // (octave distance, ns/op)
        for o in 0..NUM_OCTAVES {
            let (count, ns) = self.cells[cell_index(family, e, o)].get();
            if count == 0 {
                continue;
            }
            let dist = want.abs_diff(o);
            if best.is_none_or(|(d, _)| dist < d) {
                best = Some((dist, ns));
            }
            if dist == 0 {
                break;
            }
        }
        best.map(|(_, ns)| (ns * k as f64) as u64)
    }

    /// Choose the engine for `k` queries of `family`. Epsilon-greedy:
    /// explore the least-observed engine at this octave with probability
    /// `explore_frac` (ties break toward the lowest engine index),
    /// otherwise exploit the cheapest prediction (ties likewise), and
    /// default to [`Engine::Batched`] when nothing is known.
    ///
    /// The explore roll consumes one decision ordinal, so with a fixed
    /// seed the same call sequence yields the same decision sequence.
    pub fn choose(&self, family: usize, k: u32) -> Decision {
        let ordinal = self.decisions.fetch_add(1, Ordering::Relaxed);
        if family >= NUM_FAMILIES || k == 0 {
            return Decision {
                engine: Engine::Batched,
                predicted_ns: 0,
                explored: false,
            };
        }
        let roll = splitmix64(self.seed ^ ordinal.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 32;
        if self.explore_bits > 0 && (roll as u32) < self.explore_bits {
            // Explore: the engine with the fewest observations at this
            // octave still has the most to teach the table.
            let o = k_octave(k);
            let engine = (0..NUM_ENGINES)
                .min_by_key(|&e| self.cells[cell_index(family, e, o)].get().0)
                .and_then(Engine::from_index)
                .unwrap_or(Engine::Batched);
            return Decision {
                engine,
                predicted_ns: self.predict(family, engine, k).unwrap_or(0),
                explored: true,
            };
        }
        let best = (0..NUM_ENGINES)
            .filter_map(|e| {
                let engine = Engine::from_index(e)?;
                Some((self.predict(family, engine, k)?, e))
            })
            .min();
        match best {
            Some((predicted_ns, e)) => Decision {
                engine: Engine::from_index(e).unwrap_or(Engine::Batched),
                predicted_ns,
                explored: false,
            },
            None => Decision {
                engine: Engine::Batched,
                predicted_ns: 0,
                explored: false,
            },
        }
    }

    /// Count one executed dispatch (chosen engine, batch size, whether
    /// it was an exploration) — the serve tier calls this when it
    /// actually runs the fan-out, in every dispatch mode.
    pub fn note_dispatch(&self, family: usize, engine: Engine, k: u32, explored: bool) {
        if family >= NUM_FAMILIES {
            return;
        }
        let i = family * NUM_ENGINES + engine.index();
        self.chosen[i].fetch_add(1, Ordering::Relaxed);
        self.chosen_queries[i].fetch_add(k as u64, Ordering::Relaxed);
        if explored {
            self.explored_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Cumulative dispatch counters.
    pub fn dispatch_stats(&self) -> DispatchStats {
        let mut s = DispatchStats::default();
        for f in 0..NUM_FAMILIES {
            for e in 0..NUM_ENGINES {
                let i = f * NUM_ENGINES + e;
                s.decisions[f][e] = self.chosen[i].load(Ordering::Relaxed);
                s.queries[f][e] = self.chosen_queries[i].load(Ordering::Relaxed);
                s.total += s.decisions[f][e];
            }
        }
        s.explored = self.explored_total.load(Ordering::Relaxed);
        s
    }

    /// The fitted per-family switch point: the smallest batch size
    /// `2^o` from which the batched engine is the predicted winner at
    /// every higher octave where both sides have data. `None` when the
    /// table cannot compare the engines anywhere (or the batched path
    /// never wins).
    pub fn crossover_k(&self, family: usize) -> Option<u64> {
        if family >= NUM_FAMILIES {
            return None;
        }
        let mut crossover = None;
        // Scan from the largest octave down: extend the batched-winning
        // suffix while it holds, reset it when a single-query engine wins.
        for o in (0..NUM_OCTAVES).rev() {
            let (bc, bns) = self.cells[cell_index(family, Engine::Batched.index(), o)].get();
            let single = (1..NUM_ENGINES)
                .filter_map(|e| {
                    let (c, ns) = self.cells[cell_index(family, e, o)].get();
                    (c > 0).then_some(ns)
                })
                .fold(None::<f64>, |acc, ns| Some(acc.map_or(ns, |a| a.min(ns))));
            let (Some(sns), true) = (single, bc > 0) else {
                continue; // octave not comparable; the suffix stands
            };
            if bns <= sns {
                crossover = Some(1u64 << o);
            } else if crossover.is_some() {
                break; // a single engine wins here: the suffix ends above
            }
        }
        crossover
    }

    /// The learned table + decision counters as a JSON object — the
    /// `/costmodel` endpoint body.
    pub fn to_json(&self, mode: &str) -> String {
        let stats = self.dispatch_stats();
        let mut out = format!(
            "{{\"mode\":\"{}\",\"explore_frac\":{:.4},\"decisions\":{},\"explored\":{},\
             \"engines\":[\"batched\",\"independent\",\"sequential\"],\"families\":{{",
            escape_json(mode),
            self.explore_frac(),
            stats.total,
            stats.explored,
        );
        for (f, name) in crate::trace::FAMILY_NAMES.iter().enumerate() {
            if f > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{{"));
            match self.crossover_k(f) {
                Some(k) => out.push_str(&format!("\"crossover_k\":{k},")),
                None => out.push_str("\"crossover_k\":null,"),
            }
            out.push_str(&format!(
                "\"decisions\":[{},{},{}],\"queries\":[{},{},{}],\"table\":{{",
                stats.decisions[f][0],
                stats.decisions[f][1],
                stats.decisions[f][2],
                stats.queries[f][0],
                stats.queries[f][1],
                stats.queries[f][2],
            ));
            let mut first_engine = true;
            for (e, ename) in ENGINE_NAMES.iter().enumerate() {
                let populated: Vec<(usize, u64, f64)> = (0..NUM_OCTAVES)
                    .filter_map(|o| {
                        let (c, ns) = self.cells[cell_index(f, e, o)].get();
                        (c > 0).then_some((o, c, ns))
                    })
                    .collect();
                if populated.is_empty() {
                    continue;
                }
                if !first_engine {
                    out.push(',');
                }
                first_engine = false;
                out.push_str(&format!("\"{ename}\":["));
                for (i, (o, c, ns)) in populated.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!(
                        "{{\"k_min\":{},\"count\":{},\"ns_per_op\":{:.1}}}",
                        1u64 << o,
                        c,
                        ns
                    ));
                }
                out.push(']');
            }
            out.push_str("}}");
        }
        out.push_str("}}");
        out
    }

    /// Snapshot the learned cells for persistence.
    pub fn table(&self) -> CalibrationTable {
        CalibrationTable {
            cells: self.cells.iter().map(|c| c.get()).collect(),
        }
    }

    /// Warm-start from a persisted table: cells with observations
    /// overwrite this model's (normally empty) cells.
    pub fn load_table(&self, table: &CalibrationTable) {
        for (cell, &(count, ns)) in self.cells.iter().zip(&table.cells) {
            if count > 0 && ns.is_finite() && ns >= 0.0 {
                cell.set(count, ns);
            }
        }
    }
}

impl std::fmt::Debug for CostModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CostModel")
            .field("explore_frac", &self.explore_frac())
            .field("decisions", &self.decisions.load(Ordering::Relaxed))
            .finish()
    }
}

/// Magic bytes opening a calibration-table payload.
const TABLE_MAGIC: &[u8; 4] = b"RCCM";
/// Payload format version.
const TABLE_VERSION: u32 = 1;

/// A point-in-time copy of the model's learned cells —
/// `(count, ns_per_op)` per (family, engine, octave) — encodable into
/// one CRC-framed record ([`crate::frame`], the rc-store WAL wire
/// discipline) for on-disk persistence.
#[derive(Clone, Debug, PartialEq)]
pub struct CalibrationTable {
    /// `NUM_FAMILIES * NUM_ENGINES * NUM_OCTAVES` cells in
    /// `cell_index` order.
    pub cells: Vec<(u64, f64)>,
}

impl CalibrationTable {
    /// Encode as one CRC-framed record: `magic | version | dims |
    /// cells`, wrapped in the length + CRC-32 frame header.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(20 + self.cells.len() * 16);
        payload.extend_from_slice(TABLE_MAGIC);
        payload.extend_from_slice(&TABLE_VERSION.to_le_bytes());
        payload.extend_from_slice(&(NUM_FAMILIES as u32).to_le_bytes());
        payload.extend_from_slice(&(NUM_ENGINES as u32).to_le_bytes());
        payload.extend_from_slice(&(NUM_OCTAVES as u32).to_le_bytes());
        for &(count, ns) in &self.cells {
            payload.extend_from_slice(&count.to_le_bytes());
            payload.extend_from_slice(&ns.to_bits().to_le_bytes());
        }
        let mut out = Vec::with_capacity(frame::FRAME_HEADER + payload.len());
        frame::encode_frame(&mut out, &payload);
        out
    }

    /// Decode a buffer produced by [`encode`](Self::encode). `None` on
    /// any torn, truncated, bit-flipped, or dimension-mismatched input —
    /// never panics and never over-allocates (the cell count is bounded
    /// by the checksummed dims, which must match this build's).
    pub fn decode(bytes: &[u8]) -> Option<CalibrationTable> {
        let (payload, consumed) = frame::decode_frame(bytes, 0)?;
        if consumed != bytes.len() || payload.len() < 20 || &payload[0..4] != TABLE_MAGIC {
            return None;
        }
        let word = |at: usize| u32::from_le_bytes(payload[at..at + 4].try_into().unwrap());
        if word(4) != TABLE_VERSION
            || word(8) as usize != NUM_FAMILIES
            || word(12) as usize != NUM_ENGINES
            || word(16) as usize != NUM_OCTAVES
        {
            return None;
        }
        let n = NUM_FAMILIES * NUM_ENGINES * NUM_OCTAVES;
        if payload.len() != 20 + n * 16 {
            return None;
        }
        let mut cells = Vec::with_capacity(n);
        for i in 0..n {
            let at = 20 + i * 16;
            let count = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap());
            let ns = f64::from_bits(u64::from_le_bytes(
                payload[at + 8..at + 16].try_into().unwrap(),
            ));
            cells.push((count, ns));
        }
        Some(CalibrationTable { cells })
    }

    /// Write the encoded table to `path` (best-effort durable: written
    /// to a sibling temp file, then renamed over).
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.encode())?;
        std::fs::rename(&tmp, path)
    }

    /// Read and decode a table from `path`. `None` when the file is
    /// missing, unreadable, or fails [`decode`](Self::decode) — a cold
    /// start, never an error.
    pub fn load(path: &std::path::Path) -> Option<CalibrationTable> {
        CalibrationTable::decode(&std::fs::read(path).ok()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octaves_cover_the_k_range() {
        assert_eq!(k_octave(1), 0);
        assert_eq!(k_octave(2), 1);
        assert_eq!(k_octave(3), 1);
        assert_eq!(k_octave(1024), 10);
        assert_eq!(k_octave(u32::MAX), NUM_OCTAVES - 1);
        assert_eq!(k_octave(0), 0, "degenerate k clamps, not panics");
    }

    #[test]
    fn cold_model_defaults_to_batched() {
        let m = CostModel::new(0.0, 7);
        let d = m.choose(0, 100);
        assert_eq!(d.engine, Engine::Batched);
        assert!(!d.explored);
        assert_eq!(d.predicted_ns, 0);
        assert_eq!(m.crossover_k(0), None);
    }

    #[test]
    fn exploit_picks_the_cheapest_observed_engine() {
        let m = CostModel::new(0.0, 7);
        // At k≈8: independent 10 ns/op, batched 100 ns/op.
        for _ in 0..4 {
            m.observe(2, Engine::Independent, 8, 80);
            m.observe(2, Engine::Batched, 8, 800);
        }
        let d = m.choose(2, 8);
        assert_eq!(d.engine, Engine::Independent);
        assert!(!d.explored);
        assert_eq!(d.predicted_ns, 80);
        // At k≈4096 the batched path is cheaper per op.
        m.observe(2, Engine::Batched, 4096, 4096 * 2);
        m.observe(2, Engine::Independent, 4096, 4096 * 30);
        assert_eq!(m.choose(2, 4096).engine, Engine::Batched);
    }

    #[test]
    fn prediction_falls_back_to_nearest_octave() {
        let m = CostModel::new(0.0, 7);
        m.observe(0, Engine::Sequential, 16, 16 * 50);
        // No cell at octave 0, so k=2 borrows octave 4's ns/op.
        assert_eq!(m.predict(0, Engine::Sequential, 2), Some(100));
        assert_eq!(m.predict(0, Engine::Batched, 2), None);
    }

    #[test]
    fn explore_targets_the_least_observed_engine() {
        let m = CostModel::new(1.0, 7); // always explore
        m.observe(1, Engine::Batched, 8, 100);
        m.observe(1, Engine::Independent, 8, 100);
        let d = m.choose(1, 8);
        assert!(d.explored);
        assert_eq!(
            d.engine,
            Engine::Sequential,
            "the unobserved engine is sampled first"
        );
        m.observe(1, Engine::Sequential, 8, 100);
        m.observe(1, Engine::Sequential, 8, 100);
        assert_eq!(
            m.choose(1, 8).engine,
            Engine::Batched,
            "ties break toward the lowest engine index"
        );
    }

    #[test]
    fn explore_sequence_is_seed_deterministic() {
        let run = |seed: u64| -> Vec<Decision> {
            let m = CostModel::new(0.3, seed);
            (0..400)
                .map(|i| {
                    let fam = (i % 7) as usize;
                    let k = 1 + (i % 40) as u32;
                    let d = m.choose(fam, k);
                    // Observations feed back, as in the live loop.
                    m.observe(fam, d.engine, k, 1_000 + i * 13);
                    d
                })
                .collect()
        };
        let a = run(42);
        let b = run(42);
        assert_eq!(a, b, "same seed => same decision sequence");
        assert!(
            a.iter().any(|d| d.explored) && a.iter().any(|d| !d.explored),
            "a 30% explore rate mixes both kinds in 400 decisions"
        );
        let c = run(43);
        assert_ne!(
            a.iter().map(|d| d.explored).collect::<Vec<_>>(),
            c.iter().map(|d| d.explored).collect::<Vec<_>>(),
            "different seed => different explore schedule"
        );
    }

    #[test]
    fn crossover_fits_the_switch_point() {
        let m = CostModel::new(0.0, 7);
        // Independent: flat 50 ns/op. Batched: 6400/k ns/op (sweep cost
        // amortizes) — crosses at k = 128.
        for o in 0..12 {
            let k = 1u32 << o;
            m.observe(5, Engine::Independent, k, 50 * k as u64);
            m.observe(5, Engine::Batched, k, 6_400);
        }
        assert_eq!(m.crossover_k(5), Some(128));
        // A family where batched always wins crosses at k = 1.
        m.observe(4, Engine::Batched, 1, 10);
        m.observe(4, Engine::Independent, 1, 100);
        assert_eq!(m.crossover_k(4), Some(1));
        // A family where the single path always wins never crosses.
        m.observe(3, Engine::Batched, 8, 8_000);
        m.observe(3, Engine::Sequential, 8, 80);
        assert_eq!(m.crossover_k(3), None);
    }

    #[test]
    fn dispatch_stats_accumulate() {
        let m = CostModel::new(0.0, 7);
        m.note_dispatch(0, Engine::Batched, 10, false);
        m.note_dispatch(0, Engine::Independent, 3, true);
        m.note_dispatch(0, Engine::Independent, 4, true);
        let s = m.dispatch_stats();
        assert_eq!(s.decisions[0][0], 1);
        assert_eq!(s.decisions[0][1], 2);
        assert_eq!(s.queries[0][1], 7);
        assert_eq!(s.explored, 2);
        assert_eq!(s.total, 3);
    }

    #[test]
    fn json_is_wellformed_and_carries_the_table() {
        let m = CostModel::new(0.1, 7);
        m.observe(0, Engine::Batched, 100, 5_000);
        m.observe(0, Engine::Independent, 4, 100);
        m.note_dispatch(0, Engine::Batched, 100, false);
        let json = m.to_json("adaptive");
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"mode\":\"adaptive\""));
        assert!(json.contains("\"conn\":{"));
        assert!(json.contains("\"batched\":[{\"k_min\":64,"));
        assert!(json.contains("\"independent\":[{\"k_min\":4,"));
    }

    #[test]
    fn table_roundtrips_and_warm_starts() {
        let m = CostModel::new(0.0, 7);
        m.observe(2, Engine::Independent, 8, 240);
        m.observe(6, Engine::Batched, 512, 51_200);
        let table = m.table();
        let bytes = table.encode();
        let back = CalibrationTable::decode(&bytes).expect("round trip");
        assert_eq!(back, table);

        let warm = CostModel::new(0.0, 9);
        warm.load_table(&back);
        assert_eq!(warm.predict(2, Engine::Independent, 8), Some(240));
        assert_eq!(warm.predict(6, Engine::Batched, 512), Some(51_200));
        assert_eq!(warm.predict(2, Engine::Batched, 8), None);
    }

    #[test]
    fn torn_and_bitflipped_tables_are_rejected_without_panic() {
        let m = CostModel::new(0.0, 7);
        m.observe(0, Engine::Batched, 64, 1_000);
        let valid = m.table().encode();
        assert!(CalibrationTable::decode(&valid).is_some(), "control");
        for cut in 0..valid.len() {
            assert!(
                CalibrationTable::decode(&valid[..cut]).is_none(),
                "truncation at {cut} must be rejected"
            );
        }
        for bit in 0..64 {
            let h = splitmix64(bit ^ 0xD15_7AB1E);
            let mut mutated = valid.clone();
            let at = (h % mutated.len() as u64) as usize;
            mutated[at] ^= 1 << ((h >> 32) % 8);
            assert!(
                CalibrationTable::decode(&mutated).is_none(),
                "bit flip at byte {at} must be rejected"
            );
        }
    }

    #[test]
    fn save_and_load_via_files() {
        let dir = std::env::temp_dir().join(format!("rc-costmodel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("calibration.rccm");
        assert!(CalibrationTable::load(&path).is_none(), "missing => cold");
        let m = CostModel::new(0.0, 7);
        m.observe(1, Engine::Sequential, 2, 90);
        m.table().save(&path).expect("save");
        let loaded = CalibrationTable::load(&path).expect("load");
        assert_eq!(loaded, m.table());
        std::fs::write(&path, b"garbage").unwrap();
        assert!(CalibrationTable::load(&path).is_none(), "garbage => cold");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
