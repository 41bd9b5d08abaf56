//! Parallel prefix sums (scans).
//!
//! Two-pass blocked scan: per-block reductions in parallel, a sequential
//! scan over the (few) block sums, then parallel per-block exclusive scans
//! with the block offsets. `O(n)` work, `O(log n)` span — the offsets
//! behind `pack` and counting sort.

use crate::adaptive_grain;
use crate::slice::ParSlice;
use rayon::prelude::*;

/// Exclusive `+`-scan over `u32`s in place (sums must fit in `u32`);
/// returns the total.
pub(crate) fn scan_exclusive_u32(xs: &mut [u32]) -> u32 {
    let n = xs.len();
    let block = adaptive_grain(n);
    if n <= block {
        return scan_exclusive_seq(xs);
    }
    // Pass 1: block sums.
    let mut sums: Vec<u32> = xs.par_chunks(block).map(|c| c.iter().sum()).collect();
    // Sequential scan over block sums.
    let total = scan_exclusive_seq(&mut sums);
    // Pass 2: per-block exclusive scans with offsets.
    let ps = ParSlice::new(xs);
    sums.par_iter().enumerate().for_each(|(b, &offset)| {
        let lo = b * block;
        let hi = (lo + block).min(n);
        let mut acc = offset;
        for i in lo..hi {
            // SAFETY: block ranges are disjoint across iterations.
            unsafe {
                let x = ps.read(i);
                ps.write(i, acc);
                acc += x;
            }
        }
    });
    total
}

fn scan_exclusive_seq(xs: &mut [u32]) -> u32 {
    let mut acc = 0;
    for x in xs.iter_mut() {
        let v = *x;
        *x = acc;
        acc += v;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scan() {
        let mut xs: Vec<u32> = vec![];
        assert_eq!(scan_exclusive_u32(&mut xs), 0);
    }

    #[test]
    fn small_scan_matches_reference() {
        let mut xs = vec![3u32, 1, 4, 1, 5];
        let total = scan_exclusive_u32(&mut xs);
        assert_eq!(total, 14);
        assert_eq!(xs, vec![0, 3, 4, 8, 9]);
    }

    #[test]
    fn large_scan_matches_sequential() {
        let n = 100_003;
        let orig: Vec<u32> = (0..n)
            .map(|i| (i as u32).wrapping_mul(2654435761) % 97)
            .collect();
        let mut par = orig.clone();
        let total = scan_exclusive_u32(&mut par);

        let mut acc = 0u32;
        let mut seq = Vec::with_capacity(n);
        for &x in &orig {
            seq.push(acc);
            acc += x;
        }
        assert_eq!(total, acc);
        assert_eq!(par, seq);
    }

    #[test]
    fn scan_matches_sequential() {
        let mut rng = crate::rng::SplitMix64::new(0xA11CE);
        for _ in 0..24 {
            let len = rng.next_below(5_000) as usize;
            let xs: Vec<u32> = (0..len).map(|_| rng.next_below(1_000) as u32).collect();
            let mut par = xs.clone();
            let total = scan_exclusive_u32(&mut par);
            let mut acc = 0u32;
            let mut seq = Vec::with_capacity(len);
            for &x in &xs {
                seq.push(acc);
                acc += x;
            }
            assert_eq!(total, acc);
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn scan_u32() {
        let mut xs = vec![1u32; 10_000];
        let total = scan_exclusive_u32(&mut xs);
        assert_eq!(total, 10_000);
        assert_eq!(xs[9_999], 9_999);
    }
}
