//! Durability benchmarks for the `rc-store` layer, writing
//! `BENCH_persist.json`:
//!
//! 1. **WAL overhead** — coalesced serve throughput with the WAL off vs
//!    each [`SyncPolicy`] (per-epoch fsync / interval / never), same
//!    batching policy and workload.
//! 2. **Recovery vs log length** — a durable server commits streams of
//!    growing length (compaction disabled), then [`Store::open`] replays
//!    the whole WAL in epoch batches; recovery wall time is the metric.
//! 3. **Snapshot throughput** — `export_state` → encode → write
//!    (extract side) and read → decode → batch build (restore side) over
//!    a size sweep, in MB/s of snapshot bytes.
//!
//! Scale via `RC_BENCH_SCALE` (`tiny` for CI smoke); `RC_PERSIST_OUT`
//! overrides the output path.

use rc_bench::serve_driver::{coalescing_policy, run_load, LoadSpec};
use rc_bench::{scale, time_once, Table};
use rc_core::{BuildOptions, DynamicForest, ForestState};
use rc_gen::{ForestGenConfig, OpMix, RequestStream, RequestStreamConfig};
use rc_serve::{Durability, RcServe, Request, ServeConfig, SyncPolicy};
use rc_store::{snapshot, Store, StoreConfig};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

fn bench_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rc-fig-persist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn update_stream(n: usize, seed: u64) -> RequestStreamConfig {
    RequestStreamConfig {
        forest: ForestGenConfig {
            n,
            seed,
            ..Default::default()
        },
        mix: OpMix::update_heavy(),
        ..Default::default()
    }
}

struct WalRow {
    policy: &'static str,
    ops_per_sec: f64,
    p99_us: f64,
    /// `wal_fsync_ns` p99 from the run's metrics snapshot (0 when the
    /// policy never fsyncs inside the run).
    fsync_p99_us: f64,
    /// `store_append_ns` p99: serialize + buffered write per epoch.
    append_p99_us: f64,
    fsyncs: u64,
    append_bytes: u64,
}

/// §1: serve throughput with and without the WAL.
fn wal_overhead(n: usize, ops_per_thread: usize) -> Vec<WalRow> {
    let threads = 4;
    let window = 256;
    let policies: [(&'static str, Option<SyncPolicy>); 4] = [
        ("none", None),
        ("wal_per_epoch", Some(SyncPolicy::PerEpoch)),
        (
            "wal_interval_5ms",
            Some(SyncPolicy::Interval(Duration::from_millis(5))),
        ),
        ("wal_never", Some(SyncPolicy::Never)),
    ];
    let t = Table::new(
        "WAL overhead (coalesced, closed loop, update-heavy mix)",
        &[
            "durability",
            "ops/sec",
            "p99 us",
            "relative",
            "fsync p99 us",
            "append p99 us",
        ],
    );
    // Untimed warmup so the first measured row is not paying cold-cache /
    // first-allocation costs the later rows skip.
    let _ = run_load(&LoadSpec {
        threads,
        ops_per_thread: (ops_per_thread / 4).max(64),
        window,
        open_loop: false,
        stream: update_stream(n, 4242),
        server: coalescing_policy(threads, window),
        durability: None,
        obs_scrape: false,
    });
    let mut rows = Vec::new();
    let mut baseline = 0.0f64;
    for (name, durability) in policies {
        let r = run_load(&LoadSpec {
            threads,
            ops_per_thread,
            window,
            open_loop: false,
            stream: update_stream(n, 4242),
            server: coalescing_policy(threads, window),
            durability,
            obs_scrape: false,
        });
        if durability.is_none() {
            baseline = r.ops_per_sec;
        }
        let fsync_p99_us = r
            .snapshot
            .histogram("wal_fsync_ns")
            .map(|s| s.p99_ns as f64 / 1e3)
            .unwrap_or(0.0);
        let append_p99_us = r
            .snapshot
            .histogram("store_append_ns")
            .map(|s| s.p99_ns as f64 / 1e3)
            .unwrap_or(0.0);
        t.row(&[
            name.into(),
            format!("{:.0}", r.ops_per_sec),
            format!("{:.1}", r.p99_us),
            format!("{:.2}", r.ops_per_sec / baseline.max(1e-9)),
            format!("{:.1}", fsync_p99_us),
            format!("{:.1}", append_p99_us),
        ]);
        rows.push(WalRow {
            policy: name,
            ops_per_sec: r.ops_per_sec,
            p99_us: r.p99_us,
            fsync_p99_us,
            append_p99_us,
            fsyncs: r.snapshot.counter("wal_fsyncs_total").unwrap_or(0),
            append_bytes: r.snapshot.counter("store_append_bytes_total").unwrap_or(0),
        });
    }
    rows
}

struct RecoveryRow {
    ops: usize,
    epochs: u64,
    wal_bytes: u64,
    recover_ms: f64,
    replayed_ops: u64,
}

/// §2: build a WAL by serving `ops` updates, then time recovery.
fn recovery_sweep(n: usize, ops_sweep: &[usize]) -> Vec<RecoveryRow> {
    let t = Table::new(
        "Recovery time vs log length (snapshotless: full WAL replay)",
        &[
            "ops",
            "wal epochs",
            "wal KiB",
            "recover ms",
            "Kops/s replayed",
        ],
    );
    let mut rows = Vec::new();
    for &ops in ops_sweep {
        let dir = bench_dir(&format!("recovery-{ops}"));
        let durability = || {
            Durability::new(&dir, n)
                .sync_policy(SyncPolicy::Never)
                .compact_threshold(u64::MAX) // keep the whole log
        };
        let mut stream = RequestStream::new(update_stream(n, 77));
        let boot = ForestState::from_edges(n, &stream.initial_edges());
        {
            let (server, _) = RcServe::start_durable(
                ServeConfig {
                    drain_threshold: 256,
                    ..ServeConfig::default()
                },
                durability(),
                Some(&boot),
            )
            .expect("fresh durable store");
            let client = server.client();
            let mut pending = Vec::with_capacity(256);
            let mut submitted = 0usize;
            while submitted < ops {
                let burst = 256.min(ops - submitted);
                for _ in 0..burst {
                    // Only updates reach the WAL; queries would dilute the
                    // log-length axis.
                    let op = loop {
                        let op = stream.next_op();
                        if op.is_update() {
                            break op;
                        }
                    };
                    pending.push(client.submit(Request::from_stream(op)));
                }
                submitted += burst;
                for h in pending.drain(..) {
                    h.wait();
                }
            }
            server.shutdown();
        }
        let wal_bytes = std::fs::metadata(dir.join(rc_store::WAL_FILE))
            .map(|m| m.len())
            .unwrap_or(0);
        let (recovered, elapsed) = time_once(|| {
            Store::open(
                StoreConfig::new(&dir, n)
                    .sync_policy(SyncPolicy::Never)
                    .compact_threshold(u64::MAX),
            )
            .expect("recover")
        });
        let row = RecoveryRow {
            ops,
            epochs: recovered.report.replayed_epochs,
            wal_bytes,
            recover_ms: elapsed.as_secs_f64() * 1e3,
            replayed_ops: recovered.report.replayed_ops,
        };
        t.row(&[
            ops.to_string(),
            row.epochs.to_string(),
            format!("{:.1}", wal_bytes as f64 / 1024.0),
            format!("{:.2}", row.recover_ms),
            format!(
                "{:.0}",
                row.replayed_ops as f64 / elapsed.as_secs_f64().max(1e-9) / 1e3
            ),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(row);
    }
    rows
}

struct SnapshotRow {
    n: usize,
    bytes: u64,
    write_ms: f64,
    restore_ms: f64,
}

/// §3: snapshot write and restore throughput over a size sweep.
fn snapshot_sweep(sizes: &[usize]) -> Vec<SnapshotRow> {
    let t = Table::new(
        "Snapshot throughput (export+write vs read+batch-rebuild)",
        &[
            "n",
            "snap MiB",
            "write ms",
            "write MB/s",
            "restore ms",
            "restore MB/s",
        ],
    );
    let mut rows = Vec::new();
    for &n in sizes {
        let dir = bench_dir(&format!("snapshot-{n}"));
        std::fs::create_dir_all(&dir).unwrap();
        let stream = RequestStream::new(update_stream(n, 99));
        let mut state = ForestState::from_edges(n, &stream.initial_edges());
        for v in 0..n {
            state.weights[v] = (v as u64).wrapping_mul(0x9E37);
        }
        state.marks = (0..n as u32).step_by(64).collect();
        let forest = state
            .build_std_forest(BuildOptions::default())
            .expect("valid generated forest");

        let (path, write_t) = time_once(|| {
            let exported = forest.export_state();
            snapshot::write_snapshot(&dir, 1, &exported).expect("write snapshot")
        });
        let bytes = std::fs::metadata(&path).unwrap().len();
        let (restored, restore_t) = time_once(|| {
            let (_, s) = snapshot::read_snapshot(&path).expect("read snapshot");
            s.build_std_forest(BuildOptions::default())
                .expect("rebuild")
        });
        assert_eq!(restored.export_state(), state, "snapshot round trip");
        let mb = bytes as f64 / 1e6;
        let row = SnapshotRow {
            n,
            bytes,
            write_ms: write_t.as_secs_f64() * 1e3,
            restore_ms: restore_t.as_secs_f64() * 1e3,
        };
        t.row(&[
            n.to_string(),
            format!("{:.2}", bytes as f64 / (1 << 20) as f64),
            format!("{:.2}", row.write_ms),
            format!("{:.0}", mb / write_t.as_secs_f64().max(1e-9)),
            format!("{:.2}", row.restore_ms),
            format!("{:.0}", mb / restore_t.as_secs_f64().max(1e-9)),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
        rows.push(row);
    }
    rows
}

fn main() {
    let (n, wal_ops, recovery_sweep_ops, snap_sizes): (usize, usize, Vec<usize>, Vec<usize>) =
        match scale() {
            "large" => (
                200_000,
                8_000,
                vec![2_000, 8_000, 32_000, 128_000],
                vec![100_000, 400_000, 1_600_000],
            ),
            "tiny" => (4_000, 400, vec![200, 800], vec![5_000, 20_000]),
            _ => (
                50_000,
                4_000,
                vec![1_000, 4_000, 16_000, 64_000],
                vec![50_000, 200_000, 800_000],
            ),
        };
    println!("# fig_persist — n={n}, scale {}", scale());

    let wal_rows = wal_overhead(n, wal_ops / 4);
    let recovery_rows = recovery_sweep(n, &recovery_sweep_ops);
    let snap_rows = snapshot_sweep(&snap_sizes);

    // ---- BENCH_persist.json ----
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"fig_persist\",");
    let _ = writeln!(json, "  \"scale\": \"{}\",", scale());
    let _ = writeln!(json, "  \"n\": {n},");
    let _ = writeln!(json, "  \"wal_overhead\": [");
    for (i, r) in wal_rows.iter().enumerate() {
        let comma = if i + 1 == wal_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"durability\": \"{}\", \"ops_per_sec\": {:.1}, \"p99_us\": {:.1}, \
             \"relative\": {:.4}, \"fsync_p99_us\": {:.3}, \"append_p99_us\": {:.3}, \
             \"fsyncs\": {}, \"append_bytes\": {}}}{comma}",
            r.policy,
            r.ops_per_sec,
            r.p99_us,
            r.ops_per_sec / wal_rows[0].ops_per_sec.max(1e-9),
            r.fsync_p99_us,
            r.append_p99_us,
            r.fsyncs,
            r.append_bytes,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"recovery\": [");
    for (i, r) in recovery_rows.iter().enumerate() {
        let comma = if i + 1 == recovery_rows.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "    {{\"ops\": {}, \"wal_epochs\": {}, \"wal_bytes\": {}, \
             \"recover_ms\": {:.3}, \"replayed_ops\": {}}}{comma}",
            r.ops, r.epochs, r.wal_bytes, r.recover_ms, r.replayed_ops,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"snapshot\": [");
    for (i, r) in snap_rows.iter().enumerate() {
        let comma = if i + 1 == snap_rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{\"n\": {}, \"bytes\": {}, \"write_ms\": {:.3}, \"restore_ms\": {:.3}}}{comma}",
            r.n, r.bytes, r.write_ms, r.restore_ms,
        );
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let out = std::env::var("RC_PERSIST_OUT").unwrap_or_else(|_| "BENCH_persist.json".into());
    std::fs::write(&out, json).expect("write BENCH_persist.json");
    println!("wrote {out}");
}
