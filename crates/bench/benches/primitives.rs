//! Criterion micro-benchmarks for the parallel substrate: the rc-parlay
//! primitives the forest runs (pack for the build's live set, counting
//! sort for the deterministic MIS, the shuffle for rc-gen's relabelling).

use criterion::{criterion_group, criterion_main, Criterion};
use rc_parlay::rng::SplitMix64;

fn bench_pack(c: &mut Criterion) {
    c.bench_function("pack_index_1M", |b| {
        b.iter(|| rc_parlay::pack::pack_index(1_000_000, |i| i % 3 == 0));
    });
}

fn bench_counting_sort(c: &mut Criterion) {
    let mut rng = SplitMix64::new(1);
    let xs: Vec<(u32, u32)> = (0..200_000u32)
        .map(|i| (rng.next_below(64) as u32, i))
        .collect();
    c.bench_function("counting_sort_200k_64", |b| {
        b.iter(|| rc_parlay::sort::counting_sort_by(&xs, 64, |&(k, _)| k as usize));
    });
}

fn bench_shuffle(c: &mut Criterion) {
    c.bench_function("random_permutation_1M", |b| {
        b.iter(|| rc_parlay::shuffle::random_permutation(1_000_000, 7));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pack, bench_counting_sort, bench_shuffle
}
criterion_main!(benches);
