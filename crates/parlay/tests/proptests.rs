//! Property-based tests for the parallel substrate.
//!
//! Seeded randomized trials (the workspace has no registry access, so no
//! `proptest`; `SplitMix64`-driven generation is the repo-wide idiom). Each
//! property runs many trials over randomized sizes and contents.

use rc_parlay::pack::{map_index, pack_index};
use rc_parlay::rng::SplitMix64;
use rc_parlay::shuffle::random_permutation;
use rc_parlay::sort::counting_sort_by;
use std::collections::HashSet;

const TRIALS: usize = 24;

#[test]
fn pack_and_filter_agree() {
    let mut rng = SplitMix64::new(0xD1CE);
    for _ in 0..TRIALS {
        let len = rng.next_below(3_000) as usize;
        let xs: Vec<u32> = (0..len).map(|_| rng.next_below(50) as u32).collect();
        let idx = pack_index(xs.len(), |i| xs[i].is_multiple_of(2));
        let manual: Vec<u32> = (0..xs.len() as u32)
            .filter(|&i| xs[i as usize].is_multiple_of(2))
            .collect();
        assert_eq!(idx, manual);
        // Filter as rc-core's build compacts its live set: pack, then gather.
        let kept = map_index(&pack_index(xs.len(), |i| xs[i] > 25), |i| xs[i as usize]);
        let manual2: Vec<u32> = xs.iter().copied().filter(|&x| x > 25).collect();
        assert_eq!(kept, manual2);
    }
}

#[test]
fn counting_sort_sorts_stably() {
    let mut rng = SplitMix64::new(0x5027);
    for _ in 0..TRIALS {
        let len = rng.next_below(3_000) as usize;
        let tagged: Vec<(u32, u32)> = (0..len)
            .map(|i| (rng.next_below(16) as u32, i as u32))
            .collect();
        let (sorted, offs) = counting_sort_by(&tagged, 16, |&(k, _)| k as usize);
        let mut expect = tagged.clone();
        expect.sort_by_key(|&(k, i)| (k, i));
        assert_eq!(sorted, expect);
        assert_eq!(offs[16] as usize, len);
    }
}

#[test]
fn permutation_is_bijective() {
    let mut rng = SplitMix64::new(0x9e37);
    for _ in 0..TRIALS {
        let n = rng.next_below(5_000) as usize;
        let seed = rng.next_below(1_000);
        let p = random_permutation(n, seed);
        let set: HashSet<u32> = p.iter().copied().collect();
        assert_eq!(set.len(), n);
        assert!(p.iter().all(|&x| (x as usize) < n));
    }
}
