//! Criterion smoke for the `rc-serve` coalescer: end-to-end closed-loop
//! load, coalesced vs forced size-1 epochs. The full trajectory (thread
//! sweeps, open loop, BENCH_serve.json) lives in the `serve_load` binary;
//! this bench keeps the serving path on the CI radar.

use criterion::{criterion_group, criterion_main, Criterion};
use rc_bench::serve_driver::{coalescing_policy, default_stream, run_load, LoadSpec};
use rc_serve::ServeConfig;

fn bench_serve(c: &mut Criterion) {
    let tiny = rc_bench::scale() == "tiny";
    let (n, ops) = if tiny { (2_000, 150) } else { (20_000, 1_000) };
    let threads = 4;
    let window = 32;
    let mut g = c.benchmark_group("serve_throughput");
    g.bench_function("coalesced/closed-4t", |b| {
        b.iter(|| {
            run_load(&LoadSpec {
                threads,
                ops_per_thread: ops,
                window,
                open_loop: false,
                stream: default_stream(n, 7),
                server: coalescing_policy(threads, window),
                durability: None,
                obs_scrape: false,
            })
            .ops
        })
    });
    g.bench_function("size1/closed-4t", |b| {
        b.iter(|| {
            run_load(&LoadSpec {
                threads,
                ops_per_thread: ops,
                window,
                open_loop: false,
                stream: default_stream(n, 7),
                server: ServeConfig::unbatched(),
                durability: None,
                obs_scrape: false,
            })
            .ops
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(3);
    targets = bench_serve
}
criterion_main!(benches);
