//! `rc-serve` load driver: coalesced vs forced size-1 epochs across a
//! thread sweep (closed loop, in memory and with a per-epoch-fsync WAL),
//! plus an offered-load sweep (open loop) tracing the latency-vs-load
//! curve, writing `BENCH_serve.json` so the serving-throughput trajectory
//! is tracked across PRs.
//!
//! Scale via `RC_BENCH_SCALE` (`tiny` for CI smoke, `large` for a full
//! machine); `RC_SERVE_OUT` overrides the output path.

use rc_bench::serve_driver::{coalescing_policy, default_stream, run_load, LoadResult, LoadSpec};
use rc_bench::{machine_parallelism, quartiles, scale, Table};
use rc_gen::Arrival;
use rc_serve::{ServeConfig, SyncPolicy};
use std::fmt::Write as _;
use std::time::Duration;

/// Traced/untraced run pairs in the tracing-overhead check.
const OVERHEAD_PAIRS: usize = 11;
/// Target length of one tracing-overhead run, in seconds.
const OVERHEAD_RUN_S: f64 = 0.5;

struct Row {
    mode: &'static str,
    loop_kind: &'static str,
    durability: &'static str,
    /// Open-loop offered load in ops/sec (0 for closed loop).
    offered: f64,
    r: LoadResult,
}

fn main() {
    // Window sizes chosen so the top thread count keeps thousands of
    // requests in flight: on a single-core box the coalescing win is pure
    // amortization (shared marked sweeps + one propagation per epoch), so
    // the epochs must be large for the batch work bound to bite.
    let (n, ops_per_thread, window) = match scale() {
        "large" => (1_000_000, 6_000, 1_024),
        "tiny" => (5_000, 500, 256),
        _ => (20_000, 6_000, 1_024),
    };
    let threads_sweep: Vec<usize> = [1usize, 2, 4, 8].into_iter().filter(|&t| t <= 8).collect();
    let machine_parallelism = machine_parallelism();
    println!(
        "# serve_load — n={n}, {ops_per_thread} ops/thread, window {window}, \
         machine parallelism {machine_parallelism}"
    );
    let t = Table::new(
        "Coalesced vs size-1 epochs (closed loop) + WAL + offered-load sweep",
        &[
            "mode",
            "loop",
            "wal",
            "threads",
            "offered/s",
            "ops/sec",
            "mean batch",
            "max batch",
            "epochs",
            "p50 us",
            "p95 us",
            "p99 us",
            "errors",
        ],
    );
    let print_row = |t: &Table, row: &Row| {
        t.row(&[
            row.mode.into(),
            row.loop_kind.into(),
            row.durability.into(),
            row.r.threads.to_string(),
            if row.offered > 0.0 {
                format!("{:.0}", row.offered)
            } else {
                "-".into()
            },
            format!("{:.0}", row.r.ops_per_sec),
            format!("{:.1}", row.r.mean_batch),
            row.r.max_batch.to_string(),
            row.r.epochs.to_string(),
            format!("{:.1}", row.r.p50_us),
            format!("{:.1}", row.r.p95_us),
            format!("{:.1}", row.r.p99_us),
            row.r.error_responses.to_string(),
        ]);
    };

    let mut rows: Vec<Row> = Vec::new();
    for &threads in &threads_sweep {
        let stream = default_stream(n, 42 + threads as u64);
        // Coalesced epochs, closed loop.
        let coalesced = run_load(&LoadSpec {
            threads,
            ops_per_thread,
            window,
            open_loop: false,
            stream: stream.clone(),
            server: coalescing_policy(threads, window),
            durability: None,
            obs_scrape: false,
        });
        rows.push(Row {
            mode: "coalesced",
            loop_kind: "closed",
            durability: "none",
            offered: 0.0,
            r: coalesced,
        });
        // Coalesced + WAL (per-epoch fsync), closed loop: the durability
        // overhead at the same batching policy. This run also binds the
        // live observability endpoint and scrapes /metrics + /health over
        // TCP mid-load — the durable endpoint-under-load smoke.
        let walled = run_load(&LoadSpec {
            threads,
            ops_per_thread,
            window,
            open_loop: false,
            stream: stream.clone(),
            server: coalescing_policy(threads, window),
            durability: Some(SyncPolicy::PerEpoch),
            obs_scrape: true,
        });
        rows.push(Row {
            mode: "coalesced",
            loop_kind: "closed",
            durability: "wal_per_epoch",
            offered: 0.0,
            r: walled,
        });
        // Forced size-1 epochs, closed loop.
        let size1 = run_load(&LoadSpec {
            threads,
            ops_per_thread,
            window,
            open_loop: false,
            stream: stream.clone(),
            server: ServeConfig::unbatched(),
            durability: None,
            obs_scrape: false,
        });
        rows.push(Row {
            mode: "size1",
            loop_kind: "closed",
            durability: "none",
            offered: 0.0,
            r: size1,
        });
        for row in rows.iter().rev().take(3).rev() {
            print_row(&t, row);
        }
    }

    // Offered-load sweep at the top thread count: open-loop arrivals at
    // 30/60/90% of the coalesced closed-loop throughput — the
    // latency-vs-offered-load curve.
    let top = *threads_sweep.last().unwrap();
    let closed_rate = rows
        .iter()
        .find(|r| {
            r.mode == "coalesced"
                && r.loop_kind == "closed"
                && r.durability == "none"
                && r.r.threads == top
        })
        .map(|r| r.r.ops_per_sec)
        .unwrap_or(0.0);
    let stream = default_stream(n, 42 + top as u64);
    for &frac in &[0.3f64, 0.6, 0.9] {
        let offered = (closed_rate * frac).max(1_000.0);
        let per_thread = offered / top as f64;
        let mut open_stream = stream.clone();
        open_stream.arrival = Arrival::Steady {
            mean_gap_ns: (1e9 / per_thread) as u64,
        };
        let r = run_load(&LoadSpec {
            threads: top,
            ops_per_thread,
            window,
            open_loop: true,
            stream: open_stream,
            // A short linger: these rows measure latency against load,
            // and a request arriving alone waits out the whole linger.
            server: ServeConfig {
                max_linger: Duration::from_micros(50),
                ..coalescing_policy(top, window)
            },
            durability: None,
            obs_scrape: false,
        });
        rows.push(Row {
            mode: "coalesced",
            loop_kind: "open",
            durability: "none",
            offered,
            r,
        });
        print_row(&t, rows.last().unwrap());
    }

    // Tracing-overhead check at the top thread count: the same coalesced
    // closed-loop config with the default 1-in-64 sampler vs tracing
    // fully disabled (sample 0, slow capture off). The sampled path must
    // stay within 3% of the untraced path — per-request cost when a
    // request is not sampled is two relaxed atomic stores. Traced and
    // untraced runs alternate, the first side flipping every pair, so a
    // slow spell of the host lands on both sides. Each run is sized from
    // the closed-loop rate to last about OVERHEAD_RUN_S: the untraced
    // runs' own quartile spread must fit inside the 3% bound for the
    // comparison of the two medians to resolve it.
    let overhead_ops = ((closed_rate * OVERHEAD_RUN_S / top as f64) as usize).max(ops_per_thread);
    let traced_cfg = ServeConfig {
        trace_sample: 64,
        ..coalescing_policy(top, window)
    };
    let untraced_cfg = ServeConfig {
        trace_sample: 0,
        slow_request_threshold: Duration::ZERO,
        ..coalescing_policy(top, window)
    };
    let overhead_run = |server: &ServeConfig| {
        run_load(&LoadSpec {
            threads: top,
            ops_per_thread: overhead_ops,
            window,
            open_loop: false,
            stream: stream.clone(),
            server: server.clone(),
            durability: None,
            obs_scrape: false,
        })
        .ops_per_sec
    };
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for pair in 0..OVERHEAD_PAIRS {
        if pair % 2 == 0 {
            traced.push(overhead_run(&traced_cfg));
            untraced.push(overhead_run(&untraced_cfg));
        } else {
            untraced.push(overhead_run(&untraced_cfg));
            traced.push(overhead_run(&traced_cfg));
        }
    }
    let (traced_q1, traced_tput, traced_q3) = quartiles(&traced);
    let (untraced_q1, untraced_tput, untraced_q3) = quartiles(&untraced);
    let traced_spread = (traced_q3 - traced_q1) / traced_tput.max(1e-9);
    let untraced_spread = (untraced_q3 - untraced_q1) / untraced_tput.max(1e-9);
    let tracing_overhead_ratio = untraced_tput / traced_tput.max(1e-9);
    println!(
        "tracing overhead at {top} threads: 1-in-64 sampling costs {:.1}% \
         (medians of {OVERHEAD_PAIRS} alternating runs of {overhead_ops} ops/thread: \
         {traced_tput:.0} ops/s traced vs {untraced_tput:.0} untraced; quartile \
         spread {:.1}% traced, {:.1}% untraced{})",
        (tracing_overhead_ratio - 1.0) * 100.0,
        traced_spread * 100.0,
        untraced_spread * 100.0,
        if untraced_spread > 0.03 {
            ", wider than the 3% bound, so the check cannot resolve it"
        } else {
            ""
        },
    );
    // Debug builds are too noisy (and too slow) for a 3% bound; the CI
    // release run enforces it.
    if cfg!(not(debug_assertions)) {
        assert!(
            tracing_overhead_ratio <= 1.03,
            "1-in-64 request tracing cost more than 3% of throughput: \
             {traced_tput:.0} ops/s traced vs {untraced_tput:.0} untraced \
             (ratio of medians {tracing_overhead_ratio:.3}; untraced runs' \
             quartile spread {:.1}%)",
            untraced_spread * 100.0
        );
    }

    // Acceptance metrics: coalesced vs size-1 and the WAL tax, at the
    // top thread count.
    let tput = |mode: &str, loop_kind: &str, durability: &str| {
        rows.iter()
            .find(|r| {
                r.mode == mode
                    && r.loop_kind == loop_kind
                    && r.durability == durability
                    && r.r.threads == top
            })
            .map(|r| r.r.ops_per_sec)
            .unwrap_or(0.0)
    };
    let speedup = tput("coalesced", "closed", "none") / tput("size1", "closed", "none").max(1e-9);
    let wal_relative = tput("coalesced", "closed", "wal_per_epoch")
        / tput("coalesced", "closed", "none").max(1e-9);
    let max_batch_top = rows
        .iter()
        .find(|r| {
            r.mode == "coalesced"
                && r.loop_kind == "closed"
                && r.durability == "none"
                && r.r.threads == top
        })
        .map(|r| r.r.max_batch)
        .unwrap_or(0);
    println!(
        "\ncoalesced vs size-1 at {top} threads: {speedup:.2}x (max coalesced batch {max_batch_top}, \
         machine parallelism {machine_parallelism})"
    );
    println!(
        "WAL (per-epoch fsync) keeps {:.0}% of in-memory throughput",
        wal_relative * 100.0
    );

    // Telemetry acceptance: the coalesced run's flight-recorder phase
    // breakdown should account for >= 90% of recorded epoch wall time —
    // otherwise the instrumentation is missing a phase.
    let find_top = |mode: &str, durability: &str| {
        rows.iter().find(|r| {
            r.mode == mode
                && r.loop_kind == "closed"
                && r.durability == durability
                && r.r.threads == top
        })
    };
    let coalesced_top = find_top("coalesced", "none").expect("coalesced top row exists");
    let walled_top = find_top("coalesced", "wal_per_epoch").expect("walled top row exists");
    let fsync_p99_us = walled_top
        .r
        .snapshot
        .histogram("wal_fsync_ns")
        .map(|s| s.p99_ns as f64 / 1e3)
        .unwrap_or(0.0);
    println!(
        "phase coverage at {top} threads: {:.1}% over {} recorded epochs; \
         WAL fsync p99 {fsync_p99_us:.1} us",
        coalesced_top.r.phase_coverage * 100.0,
        coalesced_top.r.phase.epochs,
    );

    // ---- BENCH_serve.json ----
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"serve_load\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"ops_per_thread\": {ops_per_thread},");
    let _ = writeln!(json, "  \"window\": {window},");
    let _ = writeln!(json, "  \"mix\": \"query_heavy\",");
    let _ = writeln!(json, "  \"machine_parallelism\": {machine_parallelism},");
    let _ = writeln!(json, "  \"results\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"mode\": \"{}\", \"loop\": \"{}\", \"durability\": \"{}\", \
             \"threads\": {}, \"offered_ops_per_sec\": {:.1}, \"ops\": {}, \
             \"elapsed_s\": {:.4}, \"ops_per_sec\": {:.1}, \"epochs\": {}, \
             \"mean_batch\": {:.1}, \"max_batch\": {}, \"flushes\": {}, \
             \"p50_us\": {:.1}, \"p95_us\": {:.1}, \"p99_us\": {:.1}, \"mean_us\": {:.1}, \
             \"error_responses\": {}, \"phase_coverage\": {:.4}}}{comma}",
            row.mode,
            row.loop_kind,
            row.durability,
            row.r.threads,
            row.offered,
            row.r.ops,
            row.r.elapsed.as_secs_f64(),
            row.r.ops_per_sec,
            row.r.epochs,
            row.r.mean_batch,
            row.r.max_batch,
            row.r.flushes,
            row.r.p50_us,
            row.r.p95_us,
            row.r.p99_us,
            row.r.mean_us,
            row.r.error_responses,
            row.r.phase_coverage,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"speedup_coalesced_vs_size1_at_{top}_threads\": {speedup:.2},"
    );
    let _ = writeln!(
        json,
        "  \"wal_per_epoch_relative_throughput_at_{top}_threads\": {wal_relative:.3},"
    );
    let _ = writeln!(
        json,
        "  \"max_coalesced_batch_at_{top}_threads\": {max_batch_top},"
    );
    let _ = writeln!(
        json,
        "  \"tracing_overhead_ratio_at_{top}_threads\": {tracing_overhead_ratio:.4},"
    );
    // Every run behind that ratio of medians, with each side's quartile
    // spread relative to its median.
    let runs = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = writeln!(
        json,
        "  \"tracing_overhead\": {{\"threads\": {top}, \"ops_per_thread\": {overhead_ops}, \
         \"traced_ops_per_sec\": [{}], \"untraced_ops_per_sec\": [{}], \
         \"traced_median\": {traced_tput:.1}, \"untraced_median\": {untraced_tput:.1}, \
         \"traced_quartile_spread\": {traced_spread:.4}, \
         \"untraced_quartile_spread\": {untraced_spread:.4}}},",
        runs(&traced),
        runs(&untraced),
    );
    // Full telemetry for the coalesced closed-loop run at the top thread
    // count: the per-phase breakdown of where epoch wall time went, plus
    // the complete metrics snapshot (phase histograms, stall counters,
    // pool counters when compiled in). The fsync p99 comes from the WAL
    // run at the same thread count — the in-memory runs never fsync.
    let p = &coalesced_top.r.phase;
    let _ = writeln!(json, "  \"telemetry\": {{");
    let _ = writeln!(json, "    \"mode\": \"coalesced\",");
    let _ = writeln!(json, "    \"threads\": {top},");
    let _ = writeln!(json, "    \"recorded_epochs\": {},", p.epochs);
    let _ = writeln!(
        json,
        "    \"phase_coverage\": {:.4},",
        coalesced_top.r.phase_coverage
    );
    let _ = writeln!(json, "    \"phase_totals_ns\": {{");
    let _ = writeln!(json, "      \"drain\": {},", p.drain_ns);
    let _ = writeln!(json, "      \"admit\": {},", p.admit_ns);
    let _ = writeln!(json, "      \"commit\": {},", p.commit_ns);
    let _ = writeln!(json, "      \"wal\": {},", p.wal_ns);
    let _ = writeln!(json, "      \"query\": {},", p.query_ns);
    let _ = writeln!(json, "      \"respond\": {},", p.respond_ns);
    let _ = writeln!(json, "      \"wall\": {}", p.wall_ns);
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"family_ns\": {{");
    for (i, name) in rc_serve::FAMILY_NAMES.iter().enumerate() {
        let comma = if i + 1 == rc_serve::FAMILY_NAMES.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(json, "      \"{name}\": {}{comma}", p.family_ns[i]);
    }
    let _ = writeln!(json, "    }},");
    let _ = writeln!(json, "    \"wal_fsync_p99_us\": {fsync_p99_us:.3},");
    let _ = writeln!(
        json,
        "    \"snapshot\": {}",
        coalesced_top.r.snapshot.to_json()
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    let out = std::env::var("RC_SERVE_OUT").unwrap_or_else(|_| "BENCH_serve.json".into());
    std::fs::write(&out, json).expect("write BENCH_serve.json");
    println!("wrote {out}");
}
