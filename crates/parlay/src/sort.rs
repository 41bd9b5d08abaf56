//! Parallel counting sort and a parallel sort by `u64` key.
//!
//! Counting sort is used by the deterministic chain-coloring MIS (§5.10:
//! "Using a counting sort, we can then deterministically find the MIS");
//! the keyed sort backs the parallel shuffle.

use crate::scan::scan_exclusive_u32;
use crate::slice::{uninit_copy_vec, ParSlice};
use crate::{adaptive_grain, SEQ_THRESHOLD};
use rayon::prelude::*;

/// Stable parallel counting sort of `xs` by `key(x) in 0..num_buckets`.
///
/// Returns `(sorted, bucket_offsets)` where `bucket_offsets` has length
/// `num_buckets + 1` and bucket `b` occupies
/// `sorted[bucket_offsets[b]..bucket_offsets[b+1]]`.
pub fn counting_sort_by<T, F>(xs: &[T], num_buckets: usize, key: F) -> (Vec<T>, Vec<u32>)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> usize + Sync,
{
    let n = xs.len();
    assert!(num_buckets > 0);
    // Blocks hold at least `num_buckets` items so per-block histograms
    // amortize; the adaptive grain sizes them to the pool above that.
    let block = adaptive_grain(n).max(num_buckets);
    if n <= block || num_buckets > n {
        return counting_sort_seq(xs, num_buckets, key);
    }
    let nblocks = n.div_ceil(block);
    // Per-block histograms, laid out bucket-major so the prefix sum directly
    // yields scatter offsets: hist[b * nblocks + blk].
    let mut hist: Vec<u32> = vec![0; num_buckets * nblocks];
    {
        let ph = ParSlice::new(&mut hist);
        (0..nblocks).into_par_iter().for_each(|blk| {
            let lo = blk * block;
            let hi = (lo + block).min(n);
            for x in &xs[lo..hi] {
                let b = key(x);
                debug_assert!(b < num_buckets);
                // SAFETY: each (bucket, blk) cell is owned by block `blk`.
                unsafe {
                    let c = ph.get_mut(b * nblocks + blk);
                    *c += 1;
                }
            }
        });
    }
    let total = scan_exclusive_u32(&mut hist);
    debug_assert_eq!(total as usize, n);
    let mut offsets = Vec::with_capacity(num_buckets + 1);
    for b in 0..num_buckets {
        offsets.push(hist[b * nblocks]);
    }
    offsets.push(n as u32);

    let mut out: Vec<T> = uninit_copy_vec(n);
    {
        let po = ParSlice::new(&mut out);
        let hist = &hist;
        (0..nblocks).into_par_iter().for_each(|blk| {
            let lo = blk * block;
            let hi = (lo + block).min(n);
            let mut cursors: Vec<u32> = (0..num_buckets).map(|b| hist[b * nblocks + blk]).collect();
            for x in &xs[lo..hi] {
                let b = key(x);
                let dst = cursors[b] as usize;
                cursors[b] += 1;
                // SAFETY: destination slots are disjoint — each (bucket,
                // block) range comes from the global prefix sum.
                unsafe { po.write(dst, *x) };
            }
        });
    }
    (out, offsets)
}

fn counting_sort_seq<T, F>(xs: &[T], num_buckets: usize, key: F) -> (Vec<T>, Vec<u32>)
where
    T: Copy,
    F: Fn(&T) -> usize,
{
    let mut counts = vec![0u32; num_buckets + 1];
    for x in xs {
        counts[key(x) + 1] += 1;
    }
    for b in 0..num_buckets {
        counts[b + 1] += counts[b];
    }
    let offsets = counts.clone();
    let mut out: Vec<T> = uninit_copy_vec(xs.len());
    let mut cursors = counts;
    for x in xs {
        let b = key(x);
        out[cursors[b] as usize] = *x;
        cursors[b] += 1;
    }
    (out, offsets)
}

/// Parallel sort of items by a `u64` key. Not stable. Wraps rayon's
/// parallel unstable sort (a fork-join merge sort in the workspace shim).
pub(crate) fn sort_by_u64_key<T, F>(xs: &mut [T], key: F)
where
    T: Copy + Send + Sync,
    F: Fn(&T) -> u64 + Sync + Send,
{
    if xs.len() <= SEQ_THRESHOLD {
        xs.sort_unstable_by_key(|x| key(x));
    } else {
        xs.par_sort_unstable_by_key(|x| key(x));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn counting_sort_small() {
        let xs = [3u32, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let (sorted, offs) = counting_sort_by(&xs, 10, |&x| x as usize);
        let mut expect = xs.to_vec();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        assert_eq!(offs.len(), 11);
        assert_eq!(offs[0], 0);
        assert_eq!(offs[10], 10);
        // bucket 1 holds the two 1s
        assert_eq!(&sorted[offs[1] as usize..offs[2] as usize], &[1, 1]);
    }

    #[test]
    fn counting_sort_large_matches_std() {
        let mut rng = SplitMix64::new(77);
        let xs: Vec<u32> = (0..200_000).map(|_| rng.next_below(64) as u32).collect();
        let (sorted, offs) = counting_sort_by(&xs, 64, |&x| x as usize);
        let mut expect = xs.clone();
        expect.sort_unstable();
        assert_eq!(sorted, expect);
        for b in 0..64 {
            for &x in &sorted[offs[b] as usize..offs[b + 1] as usize] {
                assert_eq!(x as usize, b);
            }
        }
    }

    #[test]
    fn counting_sort_is_stable() {
        // items = (key, original index); stability keeps indices increasing per key.
        let mut rng = SplitMix64::new(3);
        let xs: Vec<(u32, u32)> = (0..100_000)
            .map(|i| (rng.next_below(8) as u32, i))
            .collect();
        let (sorted, _) = counting_sort_by(&xs, 8, |&(k, _)| k as usize);
        for w in sorted.windows(2) {
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "instability at key {}", w[0].0);
            }
        }
    }

    #[test]
    fn counting_sort_empty() {
        let xs: [u32; 0] = [];
        let (sorted, offs) = counting_sort_by(&xs, 4, |&x| x as usize);
        assert!(sorted.is_empty());
        assert_eq!(offs, vec![0, 0, 0, 0, 0]);
    }

    #[test]
    fn sort_by_key_large() {
        let mut rng = SplitMix64::new(9);
        let mut xs: Vec<u64> = (0..150_000).map(|_| rng.next_u64()).collect();
        let mut expect = xs.clone();
        sort_by_u64_key(&mut xs, |&x| x);
        expect.sort_unstable();
        assert_eq!(xs, expect);
    }
}
