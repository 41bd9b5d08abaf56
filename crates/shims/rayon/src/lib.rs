//! Workspace-local stand-in for [rayon](https://crates.io/crates/rayon).
//!
//! The build environment for this repository has no access to a crates.io
//! registry, so the workspace ships the *subset* of rayon's API that the
//! rcforest crates actually use, backed by a **persistent work-stealing
//! thread pool** (the `pool` module). The surface and semantics
//! match rayon closely enough that pointing the workspace `rayon`
//! dependency back at crates.io is a one-line change and requires no
//! source edits.
//!
//! What is provided:
//!
//! * `prelude::*` with [`ParallelIterator`] driving `map`, `enumerate`,
//!   `with_min_len`, `for_each`, `collect` (order-preserving), `sum`,
//!   `reduce`, and `fold(..).reduce(..)`;
//! * `par_iter()` on slices, `into_par_iter()` on `Range<usize>`,
//!   `par_chunks(..)` and a parallel-merge-sort
//!   `par_sort_unstable_by_key(..)` on slices;
//! * [`join`] executing its second branch on a pool worker (or inline if
//!   nobody steals it), with help-first stealing while blocked;
//! * [`ThreadPoolBuilder`] / [`ThreadPool::install`] routing parallel
//!   calls to a dedicated pool instance;
//! * `RAYON_NUM_THREADS` to size the global pool.
//!
//! # Execution model
//!
//! A pool's workers are spawned **once**, lazily on its first parallel
//! call, and then parked on a condvar whenever idle — a steady-state
//! parallel call costs one mutex push plus a wakeup, not a round of OS
//! thread spawns. Each consuming operation publishes a single chunked job;
//! every participating thread (the caller included) repeatedly claims a
//! grain-sized range of the index space from a shared atomic counter, so
//! load imbalance between chunks is absorbed dynamically rather than
//! baked into a static split. The grain is about an eighth of each
//! thread's share, with no floor: callers such as `rc_parlay` pass one
//! block per item and choose their block sizes themselves. A caller whose
//! items are too cheap to share in small numbers sets a floor on its own
//! iterator with [`ParallelIterator::with_min_len`]; an iterator no
//! longer than that floor runs inline and publishes no job. Panics in
//! user closures are caught on the executing worker, stashed, and
//! re-thrown on the calling thread after the operation completes; the
//! worker survives and keeps serving jobs.
//!
//! The global pool sizes itself from `RAYON_NUM_THREADS` (falling back to
//! the machine's available parallelism, resolved once). Pools built via
//! [`ThreadPoolBuilder`] own their workers; [`ThreadPool::install`] makes
//! a pool the routing target for parallel calls made by the closure (the
//! closure itself still runs on the calling thread — the one observable
//! difference from real rayon, which migrates it onto a worker).

mod metrics;
mod pool;
mod sort;

pub use metrics::{pool_metrics, pool_metrics_enabled, PoolMetrics};
pub use pool::{current_num_threads, join};

use std::mem::MaybeUninit;
use std::sync::Arc;

/// Builder mirroring `rayon::ThreadPoolBuilder` for the `num_threads` +
/// `build` + `install` pattern.
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type of [`ThreadPoolBuilder::build`] (infallible here).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// New builder with default (global pool) sizing.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the pool's thread count (0 = `RAYON_NUM_THREADS`, else the
    /// machine's available parallelism).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build a dedicated pool. Workers are spawned lazily on the pool's
    /// first parallel call and joined when the pool is dropped.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let size = if self.num_threads == 0 {
            pool::default_pool_size()
        } else {
            self.num_threads
        };
        Ok(ThreadPool {
            registry: pool::Registry::new(size),
        })
    }
}

/// A dedicated pool instance with its own persistent workers.
pub struct ThreadPool {
    registry: Arc<pool::Registry>,
}

impl ThreadPool {
    /// Run `f` with this pool as the target of every parallel operation it
    /// starts (nested operations on pool workers inherit it). `f` itself
    /// runs on the calling thread.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = pool::install_registry(Arc::clone(&self.registry));
        f()
    }

    /// The pool's thread count.
    pub fn current_num_threads(&self) -> usize {
        self.registry.size
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.registry.terminate_and_join();
    }
}

/// Raw-pointer wrapper for disjoint writes into a result buffer from
/// several pool threads.
struct OutPtr<T>(*mut T);
unsafe impl<T: Send> Send for OutPtr<T> {}
unsafe impl<T: Send> Sync for OutPtr<T> {}

impl<T> OutPtr<T> {
    /// Write `v` into slot `i`.
    ///
    /// # Safety
    /// Slot `i` must be within the allocation and written by exactly one
    /// thread during the parallel phase.
    unsafe fn write(&self, i: usize, v: T) {
        unsafe { self.0.add(i).write(v) }
    }
}

/// An indexed parallel source: a length plus random access. All shim
/// iterators are indexed, which is exactly the shape rayon's
/// `IndexedParallelIterator` guarantees for the combinators we cover.
pub trait ParallelIterator: Sized + Sync {
    /// Element type.
    type Item: Send;

    /// Exact number of elements.
    fn par_len(&self) -> usize;

    /// The `i`-th element. Must be safe to call concurrently for distinct
    /// indices.
    fn at(&self, i: usize) -> Self::Item;

    /// Map each element through `f`.
    fn map<R: Send, F: Fn(Self::Item) -> R + Sync>(self, f: F) -> Map<Self, F> {
        Map { base: self, f }
    }

    /// Pair each element with its index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Claim chunks of at least `min` elements (all but the last chunk),
    /// so an iterator of at most `min` elements runs inline on the calling
    /// thread. Rayon declares this on `IndexedParallelIterator`, which its
    /// prelude exports; every shim iterator is indexed.
    fn with_min_len(self, min: usize) -> MinLen<Self> {
        MinLen { base: self, min }
    }

    /// The smallest chunk this iterator may be split into (the shim's
    /// counterpart of rayon's `Producer::min_len`): 1 unless raised by
    /// [`with_min_len`](Self::with_min_len).
    fn min_len(&self) -> usize {
        1
    }

    /// Run `f` on every element, in dynamically scheduled parallel chunks.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        let n = self.par_len();
        pool::run_chunked_grain(n, grain_of(&self), |lo, hi| {
            for i in lo..hi {
                f(self.at(i));
            }
        });
    }

    /// Collect into a container (only `Vec<T>` is supported), preserving
    /// element order.
    fn collect<C: FromParallelIterator<Self::Item>>(self) -> C {
        C::from_par_iter(self)
    }

    /// Sum all elements.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        let partials = fold_chunks(&self, |lo, hi| (lo..hi).map(|i| self.at(i)).sum::<S>());
        partials.into_iter().sum()
    }

    /// Reduce with an associative operator; `identity()` seeds each chunk.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        let partials = fold_chunks(&self, |lo, hi| {
            let mut acc = identity();
            for i in lo..hi {
                acc = op(acc, self.at(i));
            }
            acc
        });
        partials.into_iter().fold(identity(), &op)
    }

    /// Fold each parallel chunk into an accumulator seeded by
    /// `identity()`. The per-chunk accumulators are consumed by
    /// [`Fold::reduce`], matching rayon's `fold(..).reduce(..)` idiom.
    fn fold<T, ID, F>(self, identity: ID, fold_op: F) -> Fold<T>
    where
        T: Send,
        ID: Fn() -> T + Sync,
        F: Fn(T, Self::Item) -> T + Sync,
    {
        let partials = fold_chunks(&self, |lo, hi| {
            let mut acc = identity();
            for i in lo..hi {
                acc = fold_op(acc, self.at(i));
            }
            acc
        });
        Fold { partials }
    }
}

/// Chunk grain for consuming `it`: the pool's default grain, raised to the
/// iterator's minimum length.
fn grain_of<I: ParallelIterator>(it: &I) -> usize {
    pool::default_grain(it.par_len()).max(it.min_len())
}

/// Run `chunk(lo, hi)` over dynamically claimed parallel chunks, returning
/// the per-chunk results in chunk (= index) order regardless of which
/// thread ran which chunk.
fn fold_chunks<I, T, F>(it: &I, chunk: F) -> Vec<T>
where
    I: ParallelIterator,
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let n = it.par_len();
    if n == 0 {
        return Vec::new();
    }
    let grain = grain_of(it);
    let nchunks = pool::chunk_count(n, grain);
    let mut out: Vec<MaybeUninit<T>> = (0..nchunks).map(|_| MaybeUninit::uninit()).collect();
    let ptr = OutPtr(out.as_mut_ptr());
    let ptr = &ptr;
    pool::run_chunked_grain(n, grain, |lo, hi| {
        // Chunk boundaries are grain-aligned, so the chunk id is lo/grain.
        // SAFETY: each chunk id is claimed (and its slot written) exactly
        // once.
        unsafe { ptr.write(lo / grain, MaybeUninit::new(chunk(lo, hi))) };
    });
    // SAFETY: every slot was written exactly once above.
    out.into_iter()
        .map(|s| unsafe { s.assume_init() })
        .collect()
}

/// Result of [`ParallelIterator::fold`]: per-chunk accumulators.
pub struct Fold<T> {
    partials: Vec<T>,
}

impl<T: Send> Fold<T> {
    /// Combine the per-chunk accumulators.
    pub fn reduce<ID, OP>(self, identity: ID, op: OP) -> T
    where
        ID: Fn() -> T,
        OP: Fn(T, T) -> T,
    {
        self.partials.into_iter().fold(identity(), op)
    }
}

/// Order-preserving parallel collection.
pub trait FromParallelIterator<T: Send>: Sized {
    /// Build the container from an indexed parallel iterator.
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self;
}

impl<T: Send> FromParallelIterator<T> for Vec<T> {
    fn from_par_iter<I: ParallelIterator<Item = T>>(it: I) -> Self {
        let n = it.par_len();
        let mut out: Vec<T> = Vec::with_capacity(n);
        let ptr = OutPtr(out.as_mut_ptr());
        let ptr = &ptr;
        pool::run_chunked_grain(n, grain_of(&it), |lo, hi| {
            for i in lo..hi {
                // SAFETY: chunks write disjoint index ranges into reserved
                // capacity; every index in 0..n is written exactly once.
                unsafe { ptr.write(i, it.at(i)) };
            }
        });
        // SAFETY: all n slots initialized by the loop above.
        unsafe { out.set_len(n) };
        out
    }
}

/// `map` adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;
    fn par_len(&self) -> usize {
        self.base.par_len()
    }
    fn at(&self, i: usize) -> R {
        (self.f)(self.base.at(i))
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// `enumerate` adapter.
pub struct Enumerate<B> {
    base: B,
}

impl<B: ParallelIterator> ParallelIterator for Enumerate<B> {
    type Item = (usize, B::Item);
    fn par_len(&self) -> usize {
        self.base.par_len()
    }
    fn at(&self, i: usize) -> (usize, B::Item) {
        (i, self.base.at(i))
    }
    fn min_len(&self) -> usize {
        self.base.min_len()
    }
}

/// `with_min_len` adapter.
pub struct MinLen<B> {
    base: B,
    min: usize,
}

impl<B: ParallelIterator> ParallelIterator for MinLen<B> {
    type Item = B::Item;
    fn par_len(&self) -> usize {
        self.base.par_len()
    }
    fn at(&self, i: usize) -> B::Item {
        self.base.at(i)
    }
    fn min_len(&self) -> usize {
        self.min.max(self.base.min_len())
    }
}

/// Parallel slice iterator (`par_iter`).
pub struct SliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;
    fn par_len(&self) -> usize {
        self.slice.len()
    }
    fn at(&self, i: usize) -> &'a T {
        &self.slice[i]
    }
}

/// Parallel chunk iterator (`par_chunks`).
pub struct ChunksIter<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ChunksIter<'a, T> {
    type Item = &'a [T];
    fn par_len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn at(&self, i: usize) -> &'a [T] {
        let lo = i * self.size;
        let hi = (lo + self.size).min(self.slice.len());
        &self.slice[lo..hi]
    }
}

/// Parallel range iterator (`(a..b).into_par_iter()`).
pub struct RangeIter {
    start: usize,
    len: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;
    fn par_len(&self) -> usize {
        self.len
    }
    fn at(&self, i: usize) -> usize {
        self.start + i
    }
}

/// `into_par_iter()` entry point.
pub trait IntoParallelIterator {
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type.
    type Item: Send;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = RangeIter;
    type Item = usize;
    fn into_par_iter(self) -> RangeIter {
        RangeIter {
            start: self.start,
            len: self.end.saturating_sub(self.start),
        }
    }
}

/// `par_iter()` on shared references (slices, `Vec`).
pub trait IntoParallelRefIterator<'a> {
    /// The resulting iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Element type.
    type Item: Send + 'a;
    /// Borrowing parallel iterator.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

impl<'a, T: Sync + 'a, const N: usize> IntoParallelRefIterator<'a> for [T; N] {
    type Iter = SliceIter<'a, T>;
    type Item = &'a T;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { slice: self }
    }
}

/// Slice-specific parallel views (`par_chunks`).
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `size`-element chunks.
    fn par_chunks(&self, size: usize) -> ChunksIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ChunksIter<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ChunksIter { slice: self, size }
    }
}

/// Mutable-slice parallel operations (`par_sort_unstable_by_key`).
pub trait ParallelSliceMut<T: Send> {
    /// Sort by key with a parallel merge sort on the current pool. Not
    /// stable, matching rayon.
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord + Send,
        F: Fn(&T) -> K + Sync;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_sort_unstable_by_key<K, F>(&mut self, key: F)
    where
        K: Ord + Send,
        F: Fn(&T) -> K + Sync,
    {
        sort::par_merge_sort_by(self, &|a: &T, b: &T| key(a).cmp(&key(b)));
    }
}

/// The prelude, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator, ParallelIterator,
        ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let xs: Vec<u64> = (0..100_000).collect();
        let got: Vec<u64> = xs.par_iter().map(|&x| x * 2).collect();
        let want: Vec<u64> = xs.iter().map(|&x| x * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn range_for_each_covers_all() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let hits: Vec<AtomicUsize> = (0..50_000).map(|_| AtomicUsize::new(0)).collect();
        let href = &hits;
        (0..hits.len()).into_par_iter().for_each(|i| {
            href[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn chunks_sum_and_reduce() {
        let xs: Vec<usize> = (0..10_000).collect();
        let total: usize = xs.par_chunks(128).map(|c| c.iter().sum::<usize>()).sum();
        assert_eq!(total, 10_000 * 9_999 / 2);
        let max = xs.par_iter().map(|&x| x).reduce(|| 0, |a, b| a.max(b));
        assert_eq!(max, 9_999);
    }

    #[test]
    fn fold_then_reduce() {
        let odd: Vec<usize> = (0..10_000)
            .into_par_iter()
            .fold(Vec::new, |mut acc, i| {
                if i % 2 == 1 {
                    acc.push(i);
                }
                acc
            })
            .reduce(Vec::new, |mut a, mut b| {
                a.append(&mut b);
                a
            });
        assert_eq!(odd.len(), 5_000);
        assert!(odd.windows(2).all(|w| w[0] < w[1]), "chunk order preserved");
    }

    #[test]
    fn enumerate_indices_match() {
        let xs = vec![7u32; 5_000];
        let got: Vec<(usize, u32)> = xs.par_iter().enumerate().map(|(i, &x)| (i, x)).collect();
        for (i, &(j, x)) in got.iter().enumerate() {
            assert_eq!((i, 7), (j, x));
        }
    }

    #[test]
    fn install_caps_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let seen = pool.install(current_num_threads);
        assert_eq!(seen, 2);
        assert!(current_num_threads() >= 1, "routing restored");
    }

    #[test]
    fn join_runs_both() {
        let (a, b) = join(|| 1 + 1, || "x".to_string() + "y");
        assert_eq!(a, 2);
        assert_eq!(b, "xy");
    }

    #[test]
    fn install_routes_nested_parallelism_to_the_pool() {
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        pool.install(|| {
            // Unlike the cap-splitting of the old scoped executor, a real
            // pool reports its full size everywhere inside it — workers
            // included — because nested operations share the same workers
            // rather than spawning their own.
            (0..64usize).into_par_iter().for_each(|_| {
                assert_eq!(current_num_threads(), 4, "workers inherit the pool");
            });
            let (a, b) = join(current_num_threads, current_num_threads);
            assert_eq!((a, b), (4, 4), "join branches run on the same pool");
        });
    }

    #[test]
    fn empty_inputs() {
        let xs: Vec<u32> = Vec::new();
        let got: Vec<u32> = xs.par_iter().map(|&x| x).collect();
        assert!(got.is_empty());
        let s: usize = (0..0).into_par_iter().map(|i| i).sum();
        assert_eq!(s, 0);
    }

    #[test]
    fn par_sort_matches_std() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 16
        };
        for n in [0usize, 1, 2, 1000, 50_000, 200_001] {
            let mut xs: Vec<u64> = (0..n).map(|_| next() % 10_000).collect();
            let mut want = xs.clone();
            let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
            pool.install(|| xs.par_sort_unstable_by_key(|&x| x));
            want.sort_unstable();
            assert_eq!(xs, want, "n = {n}");
        }
    }

    #[test]
    fn par_sort_presorted_and_reversed() {
        let pool = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let mut asc: Vec<u32> = (0..100_000).collect();
        pool.install(|| asc.par_sort_unstable_by_key(|&x| x));
        assert!(asc.windows(2).all(|w| w[0] <= w[1]));
        let mut desc: Vec<u32> = (0..100_000).rev().collect();
        pool.install(|| desc.par_sort_unstable_by_key(|&x| x));
        assert!(desc.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn par_sort_non_copy_payload() {
        // String payloads exercise the exactly-once-drop discipline of the
        // merge buffer.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let mut xs: Vec<String> = (0..20_000u32).rev().map(|i| format!("{i:08}")).collect();
        pool.install(|| xs.par_sort_unstable_by_key(|s| s.clone()));
        assert!(xs.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(xs.len(), 20_000);
    }
}
