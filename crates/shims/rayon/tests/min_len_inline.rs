//! An iterator no longer than its `with_min_len` minimum runs inline.
//!
//! A single test in its own integration binary: it asserts that the
//! process-global pool counters do not move, which holds only while no
//! other test in the process runs parallel work.

use rayon::prelude::*;
use rayon::{pool_metrics, ThreadPoolBuilder};

#[test]
fn below_min_len_runs_on_the_caller_and_publishes_no_job() {
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let caller = std::thread::current().id();
    let xs: Vec<u32> = (0..64).collect();
    let before = pool_metrics();
    pool.install(|| {
        for len in [0, 1, 33, 64] {
            let got: Vec<u32> = xs[..len]
                .par_iter()
                .with_min_len(64)
                .map(|&x| {
                    assert_eq!(std::thread::current().id(), caller, "len {len}");
                    x * 2
                })
                .collect();
            assert_eq!(got, xs[..len].iter().map(|&x| x * 2).collect::<Vec<_>>());
            (0..len).into_par_iter().with_min_len(64).for_each(|_| {
                assert_eq!(std::thread::current().id(), caller, "len {len}");
            });
            let sum: u32 = xs[..len].par_iter().with_min_len(64).map(|&x| x).sum();
            assert_eq!(sum, xs[..len].iter().sum::<u32>());
        }
    });
    // All zeros unless the `pool-metrics` feature is on.
    assert_eq!(pool_metrics().jobs_published, before.jobs_published);
}
