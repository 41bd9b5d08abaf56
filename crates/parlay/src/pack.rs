//! Pack and gather — the scan-based primitives of §2.1 that `rc-core`'s
//! build uses to compact its live vertex set each round.

use crate::scan::scan_exclusive_u32;
use crate::slice::{uninit_copy_vec, ParSlice};
use crate::{adaptive_grain, parallel_for_grain};
use rayon::prelude::*;

/// Indices `i in 0..n` with `pred(i)`, in increasing order.
pub fn pack_index<F: Fn(usize) -> bool + Sync>(n: usize, pred: F) -> Vec<u32> {
    let block = adaptive_grain(n);
    if n <= block {
        return (0..n).filter(|&i| pred(i)).map(|i| i as u32).collect();
    }
    let nblocks = n.div_ceil(block);
    let mut counts: Vec<u32> = (0..nblocks)
        .into_par_iter()
        .map(|b| {
            let lo = b * block;
            let hi = (lo + block).min(n);
            (lo..hi).filter(|&i| pred(i)).count() as u32
        })
        .collect();
    let total = scan_exclusive_u32(&mut counts) as usize;
    let mut out: Vec<u32> = uninit_copy_vec(total);
    {
        let ps = ParSlice::new(&mut out);
        counts.par_iter().enumerate().for_each(|(b, &off)| {
            let lo = b * block;
            let hi = (lo + block).min(n);
            let mut k = off as usize;
            for i in lo..hi {
                if pred(i) {
                    // SAFETY: destination ranges are disjoint per block
                    // (offsets come from the prefix sum of block counts).
                    unsafe { ps.write(k, i as u32) };
                    k += 1;
                }
            }
        });
    }
    out
}

/// Gather `f(i)` for each index in `idx` (parallel map over an index list).
pub fn map_index<T, F>(idx: &[u32], f: F) -> Vec<T>
where
    T: Copy + Send + Sync,
    F: Fn(u32) -> T + Sync,
{
    let mut out: Vec<T> = uninit_copy_vec(idx.len());
    {
        let ps = ParSlice::new(&mut out);
        parallel_for_grain(idx.len(), adaptive_grain(idx.len()), |k| {
            // SAFETY: each k written exactly once.
            unsafe { ps.write(k, f(idx[k])) };
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_index_small_and_large_agree() {
        for n in [0usize, 1, 100, 70_000] {
            let got = pack_index(n, |i| i % 3 == 1);
            let expect: Vec<u32> = (0..n).filter(|i| i % 3 == 1).map(|i| i as u32).collect();
            assert_eq!(got, expect, "n={n}");
        }
    }

    #[test]
    fn map_index_gathers() {
        let idx = vec![5u32, 1, 3];
        let got = map_index(&idx, |i| i * 2);
        assert_eq!(got, vec![10, 2, 6]);
    }
}
