//! Parallel algorithm substrate for `rcforest`.
//!
//! The parallel primitives the workspace runs, in the style of ParlayLib
//! (Blelloch, Anderson, Dhulipala 2020), which the paper's C++
//! implementation builds on: `parallel_for` loops with adaptive grain
//! sizes, index pack and gather, stable counting sort, random shuffles,
//! deterministic pseudo-random priorities, disjoint-write slices, inline
//! small vectors, the undirected [`edge_key`], and the dense
//! [`UnionFind`] with its [`first_cycle`] check. Everything parallel runs on [`rayon`]'s fork-join
//! scheduler, the Rust equivalent of Parlay's work-stealing scheduler.
//!
//! All primitives are deterministic given their seed arguments, which the
//! RC-tree change-propagation algorithm relies on (see `rc-core`).
//!
//! # Quick example
//!
//! ```
//! use rc_parlay::{edge_key, pack, UnionFind};
//! let evens = pack::pack_index(8, |i| i % 2 == 0);
//! assert_eq!(evens, vec![0, 2, 4, 6]);
//! assert_eq!(edge_key(3, 9), edge_key(9, 3));
//! let mut uf = UnionFind::new(3);
//! assert!(uf.union(0, 1));
//! assert!(!uf.union(1, 0));
//! assert_eq!(uf.find(0), uf.find(1));
//! ```

pub mod inline;
pub mod pack;
pub mod rng;
mod scan;
pub mod shuffle;
pub mod slice;
pub mod sort;
mod union_find;

pub use union_find::{first_cycle, UnionFind};

/// Sentinel "null" value used for `u32` indices throughout the workspace.
pub const NONE_U32: u32 = u32::MAX;

/// Granularity below which parallel loops fall back to sequential execution.
///
/// Matches ParlayLib's default granularity philosophy: dispatching to the
/// pool for fewer than ~2k elements costs more than it saves.
pub const SEQ_THRESHOLD: usize = 2048;

/// Smallest chunk [`adaptive_grain`] will hand to a pool thread. Below
/// this, per-chunk scheduling overhead (an atomic claim plus cache
/// traffic) rivals the work in the chunk.
const MIN_GRAIN: usize = 256;

/// Grain size adapted to the current pool and input length.
///
/// Returns `n` (one sequential chunk) when the pool is single-threaded or
/// the input is below [`SEQ_THRESHOLD`] — parallel machinery would be pure
/// overhead. Otherwise targets ~8 chunks per pool thread, clamped to
/// `[MIN_GRAIN, SEQ_THRESHOLD]`, so the pool's dynamic chunk claiming can
/// rebalance stragglers while chunks stay big enough to amortize their
/// scheduling cost. Replaces the one-size-fits-all [`SEQ_THRESHOLD`]
/// blocking used before the persistent pool existed: with many threads the
/// old fixed 2048-element blocks left most of the pool idle on mid-sized
/// inputs, and with one thread they still paid the dispatch tax.
pub fn adaptive_grain(n: usize) -> usize {
    let t = rayon::current_num_threads();
    if t <= 1 || n <= SEQ_THRESHOLD {
        return n.max(1);
    }
    (n / (t * 8)).clamp(MIN_GRAIN, SEQ_THRESHOLD)
}

/// Pack an unordered pair of `u32` vertex ids into a `u64` key.
///
/// Used for undirected-edge maps: `edge_key(u, v) == edge_key(v, u)`.
#[inline]
pub fn edge_key(u: u32, v: u32) -> u64 {
    let (a, b) = if u <= v { (u, v) } else { (v, u) };
    ((a as u64) << 32) | b as u64
}

/// Run `f(i)` for every `i in 0..n`, in parallel when `n` is large enough.
///
/// `f` must be safe to run concurrently for distinct indices.
pub fn parallel_for<F: Fn(usize) + Sync>(n: usize, f: F) {
    parallel_for_grain(n, adaptive_grain(n), f)
}

/// Like [`parallel_for`] but with an explicit grain size.
pub fn parallel_for_grain<F: Fn(usize) + Sync>(n: usize, grain: usize, f: F) {
    if n <= grain.max(1) {
        for i in 0..n {
            f(i);
        }
    } else {
        use rayon::prelude::*;
        let grain = grain.max(1);
        let nblocks = n.div_ceil(grain);
        (0..nblocks).into_par_iter().for_each(|b| {
            let lo = b * grain;
            let hi = (lo + grain).min(n);
            for i in lo..hi {
                f(i);
            }
        });
    }
}

/// Map `f` over `0..n` collecting per-thread outputs into one `Vec`,
/// in no particular order. Used to gather marked nodes without scanning
/// the whole structure.
pub fn parallel_collect<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Vec<T>) + Sync,
{
    let grain = adaptive_grain(n);
    if n <= grain {
        let mut out = Vec::new();
        for i in 0..n {
            f(i, &mut out);
        }
        return out;
    }
    use rayon::prelude::*;
    let nblocks = n.div_ceil(grain);
    (0..nblocks)
        .into_par_iter()
        .fold(Vec::new, |mut acc, b| {
            let lo = b * grain;
            let hi = (lo + grain).min(n);
            for i in lo..hi {
                f(i, &mut acc);
            }
            acc
        })
        .reduce(Vec::new, |mut a, mut b| {
            if a.len() < b.len() {
                std::mem::swap(&mut a, &mut b);
            }
            a.append(&mut b);
            a
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn parallel_for_covers_all_indices() {
        let hits: Vec<AtomicUsize> = (0..10_000).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_small_is_sequential() {
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(hits.len(), |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_collect_gathers_everything() {
        let mut out = parallel_collect(50_000, |i, acc| {
            if i % 7 == 0 {
                acc.push(i);
            }
        });
        out.sort_unstable();
        let expect: Vec<usize> = (0..50_000).filter(|i| i % 7 == 0).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn edge_key_symmetric() {
        assert_eq!(edge_key(3, 9), edge_key(9, 3));
        assert_ne!(edge_key(3, 9), edge_key(3, 10));
    }

    #[test]
    fn parallel_for_zero_and_one() {
        parallel_for(0, |_| panic!("must not run"));
        let hit = AtomicUsize::new(0);
        parallel_for(1, |i| {
            assert_eq!(i, 0);
            hit.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hit.load(Ordering::Relaxed), 1);
    }
}
