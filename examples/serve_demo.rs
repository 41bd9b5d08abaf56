//! The request-coalescing service layer in action.
//!
//! Spins up an `rc-serve` coalescer over a generated forest, hammers it
//! from several client threads with mixed link/cut/query traffic, and
//! prints the epoch statistics: how many single-shot requests each epoch
//! coalesced into one batch, phase timings, and the end-to-end latency
//! percentiles.

use rcforest::serve::{RcServe, Request, Response, ServeConfig, ServeForest};
use rcforest::{BuildOptions, OpMix, RequestStream, RequestStreamConfig};
use std::time::{Duration, Instant};

fn main() {
    let threads = 4usize;
    let ops_per_thread = 5_000usize;
    let stream_cfg = RequestStreamConfig {
        forest: rcforest::ForestGenConfig {
            n: 50_000,
            seed: 42,
            ..Default::default()
        },
        mix: OpMix::balanced(),
        zipf_exponent: 0.8,
        ..Default::default()
    };

    let probe = RequestStream::new_partitioned(stream_cfg.clone(), 0, threads);
    let forest = ServeForest::build_edges(
        probe.num_vertices(),
        &probe.initial_edges(),
        BuildOptions::default(),
    )
    .expect("generated forest is valid");
    println!(
        "forest: n={}, {} edges; {threads} clients x {ops_per_thread} mixed ops",
        forest.num_vertices(),
        forest.num_edges(),
    );

    let server = RcServe::start(
        forest,
        ServeConfig {
            max_linger: Duration::from_micros(300),
            ..ServeConfig::default()
        },
    );

    let t0 = Instant::now();
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let client = server.client();
            let cfg = stream_cfg.clone();
            std::thread::spawn(move || {
                let mut stream = RequestStream::new_partitioned(cfg, t, threads);
                let mut errors = 0usize;
                let mut remaining = ops_per_thread;
                while remaining > 0 {
                    let chunk = remaining.min(64);
                    remaining -= chunk;
                    let handles: Vec<_> = (0..chunk)
                        .map(|_| client.submit(Request::from_stream(stream.next_op())))
                        .collect();
                    for h in handles {
                        if let Response::Updated(Err(_)) = h.wait() {
                            errors += 1;
                        }
                    }
                }
                errors
            })
        })
        .collect();
    let errors: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    let elapsed = t0.elapsed();

    let audit = server.client();
    let forest = server.shutdown();
    let stats = audit.stats();

    let total = threads * ops_per_thread;
    println!(
        "\nserved {total} requests in {:.1} ms  ({:.0} ops/sec), {errors} error responses",
        elapsed.as_secs_f64() * 1e3,
        total as f64 / elapsed.as_secs_f64(),
    );
    println!(
        "epochs: {} (mean batch {:.1}, max {}), update sub-batches: {}",
        stats.epochs, stats.mean_batch, stats.max_batch, stats.flushes,
    );
    println!(
        "latency: p50 {:.1} us, p95 {:.1} us, p99 {:.1} us (mean {:.1} us)",
        stats.latency.p50_ns as f64 / 1e3,
        stats.latency.p95_ns as f64 / 1e3,
        stats.latency.p99_ns as f64 / 1e3,
        stats.latency.mean_ns as f64 / 1e3,
    );

    println!("\nlast epochs (batch = coalesced requests):");
    println!("epoch    batch  updates  queries  flushes  update_ms  query_ms");
    for e in audit.flight_dump().iter().rev().take(10).rev() {
        println!(
            "{:>5} {:>8} {:>8} {:>8} {:>8} {:>10.3} {:>9.3}",
            e.epoch,
            e.batch,
            e.updates,
            e.queries,
            e.flushes,
            (e.admit_ns + e.commit_ns + e.wal_ns) as f64 / 1e6,
            e.query_ns as f64 / 1e6,
        );
    }
    println!(
        "\nfinal forest: {} edges, version {}",
        forest.num_edges(),
        forest.version()
    );
}
