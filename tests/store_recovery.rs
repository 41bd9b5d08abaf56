//! Crash-injection differential harness for the durability layer.
//!
//! A durable [`RcServe`] serves seeded multi-client traffic with its
//! commit log recorded. Afterwards the WAL is **truncated at arbitrary
//! byte offsets** (file header, frame headers, mid-payload, clean
//! boundaries — [`rcforest::truncation_offsets`]), a fresh [`Store`]
//! recovers from each mutilated copy, and the recovered forest must agree
//! **exactly** with a [`NaiveStdForest`] oracle that replayed only the
//! acknowledged prefix — the committed updates of the epochs that
//! survived truncation. Agreement is checked two ways:
//!
//! * structurally — canonical [`DynamicForest::export_state`] equality,
//!   which covers every edge, weight and mark at once;
//! * behaviorally — a killed-and-recovered server answers a probe battery
//!   across all seven query families identically to the oracle.
//!
//! Frame atomicity is what makes "acknowledged prefix" well-defined: a
//! cut inside an epoch's frame drops that epoch *whole*, so recovery
//! never observes half an epoch.

use rcforest::serve::{Durability, LogEntry, RcServe, Request, Response, ServeConfig};
use rcforest::store::{Store, StoreConfig};
use rcforest::{
    truncation_offsets, DynamicForest, ForestGenConfig, ForestState, NaiveStdForest, OpMix,
    RequestStream, RequestStreamConfig,
};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

const MAX_DEGREE: usize = 3;

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("rc-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Copy a store directory (snapshots + WAL), truncating the WAL to `cut`.
fn copy_store_truncated(src: &Path, dst: &Path, cut: u64) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let name = entry.file_name();
        if name == rcforest::store::WAL_FILE {
            let raw = std::fs::read(entry.path()).unwrap();
            let keep = (cut as usize).min(raw.len());
            std::fs::write(dst.join(name), &raw[..keep]).unwrap();
        } else {
            std::fs::copy(entry.path(), dst.join(name)).unwrap();
        }
    }
}

/// Replay the acknowledged update prefix (committed epochs ≤ `last_epoch`)
/// into a fresh oracle over the bootstrap edges.
fn oracle_at_epoch(
    n: usize,
    initial: &[(u32, u32, u64)],
    log: &[LogEntry],
    last_epoch: u64,
) -> NaiveStdForest {
    let mut nv = NaiveStdForest::with_max_degree(n, Some(MAX_DEGREE));
    nv.batch_link(initial).expect("valid initial forest");
    for entry in log {
        if entry.epoch > last_epoch || !entry.request.is_update() {
            continue;
        }
        if entry.response != Response::Updated(Ok(())) {
            continue; // rejected updates never mutated state
        }
        let r = match entry.request {
            Request::Link { u, v, w } => nv.link(u, v, w),
            Request::Cut { u, v } => nv.cut(u, v),
            Request::UpdateEdgeWeight { u, v, w } => nv.set_edge_weight(u, v, w),
            Request::UpdateVertexWeight { v, w } => nv.set_vertex_weight(v, w),
            Request::Mark { v } => nv.set_mark(v, true),
            Request::Unmark { v } => nv.set_mark(v, false),
            _ => unreachable!("queries filtered above"),
        };
        assert_eq!(
            r,
            Ok(()),
            "acknowledged update must replay cleanly: epoch {} seq {} {:?}",
            entry.epoch,
            entry.seq,
            entry.request
        );
    }
    nv
}

/// Drive a recovered server through every query family and demand exact
/// agreement with the oracle (representatives structurally).
fn probe_all_families(server: &RcServe, oracle: &mut NaiveStdForest, n: u32, tag: &str) {
    let c = server.client();
    for i in 0..48u32 {
        let u = (i * 31 + 1) % n;
        let v = (i * 17 + 5) % n;
        let r = (i * 7 + 2) % n;
        assert_eq!(
            c.call(Request::Connected { u, v }),
            Response::Bool(oracle.connected(u, v)),
            "{tag}: connected({u},{v})"
        );
        assert_eq!(
            c.call(Request::PathSum { u, v }),
            Response::Sum(oracle.path_sum(u, v)),
            "{tag}: path_sum({u},{v})"
        );
        assert_eq!(
            c.call(Request::Bottleneck { u, v }),
            Response::Extrema(oracle.path_extrema(u, v)),
            "{tag}: bottleneck({u},{v})"
        );
        assert_eq!(
            c.call(Request::Lca { u, v, r }),
            Response::Vertex(oracle.lca(u, v, r)),
            "{tag}: lca({u},{v},{r})"
        );
        assert_eq!(
            c.call(Request::SubtreeSum { v: u, parent: v }),
            Response::Sum(oracle.subtree_sum(u, v)),
            "{tag}: subtree({u},{v})"
        );
        // Nearest-marked distances must match (witnesses only differ on
        // ties, which the mark/weight churn can produce).
        let near = c.call(Request::NearestMarked { v: u });
        let want = oracle.nearest_marked(u);
        match near {
            Response::Near(got) => assert_eq!(
                got.map(|x| x.0),
                want.map(|x| x.0),
                "{tag}: nearest_marked({u})"
            ),
            other => panic!("{tag}: wrong response kind {other:?}"),
        }
        // Representatives are compared structurally: in range ⇔ present,
        // and the id must lie in the probe's own component.
        match c.call(Request::Representative { v: u }) {
            Response::Vertex(Some(rep)) => {
                assert!(oracle.connected(u, rep), "{tag}: repr({u}) = {rep} foreign")
            }
            Response::Vertex(None) => panic!("{tag}: repr({u}) absent for in-range id"),
            other => panic!("{tag}: wrong response kind {other:?}"),
        }
    }
}

struct Scenario {
    tag: &'static str,
    seed: u64,
    threads: usize,
    ops_per_thread: usize,
    mix: OpMix,
    /// WAL compaction threshold — small values force snapshots mid-run,
    /// so truncation also exercises the snapshot + short-suffix path.
    compact_bytes: u64,
    /// Truncation points tried (beyond the deterministic boundary set).
    random_cuts: usize,
    /// Run the full seven-family probe battery on every k-th cut.
    probe_every: usize,
}

/// The harness: serve → kill (truncate) → recover → differential check.
/// Returns the total number of seeded ops served.
fn run_crash_scenario(sc: &Scenario) -> usize {
    let n = 1_500usize;
    let stream_cfg = RequestStreamConfig {
        forest: ForestGenConfig {
            n,
            seed: sc.seed,
            max_weight: 64,
            ..Default::default()
        },
        mix: sc.mix,
        invalid_frac: 0.04,
        ..Default::default()
    };
    let probe = RequestStream::new_partitioned(stream_cfg.clone(), 0, sc.threads);
    let initial = probe.initial_edges();
    let boot = ForestState::from_edges(n, &initial);

    // ---- serve the seeded traffic durably, recording the commit log ----
    let dir = fresh_dir(sc.tag);
    let (server, report) = RcServe::start_durable(
        ServeConfig {
            max_linger: Duration::from_micros(200),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        Durability::new(&dir, n).compact_threshold(sc.compact_bytes),
        Some(&boot),
    )
    .expect("fresh durable store");
    assert_eq!(report.replayed_epochs, 0);
    let threads = sc.threads;
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let client = server.client();
            let cfg = stream_cfg.clone();
            let ops = sc.ops_per_thread;
            std::thread::spawn(move || {
                let mut stream = RequestStream::new_partitioned(cfg, t, threads);
                let mut remaining = ops;
                while remaining > 0 {
                    let chunk = remaining.min(32);
                    remaining -= chunk;
                    let handles: Vec<_> = (0..chunk)
                        .map(|_| client.submit(Request::from_stream(stream.next_op())))
                        .collect();
                    for h in handles {
                        assert!(h.wait() != Response::Rejected);
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let auditor = server.client();
    server.shutdown();
    let log = auditor.take_commit_log();
    let total_ops = sc.threads * sc.ops_per_thread;
    assert_eq!(log.len(), total_ops, "every request committed exactly once");

    // ---- crash injection: truncate, recover, differentially verify ----
    let wal_path = dir.join(rcforest::store::WAL_FILE);
    let wal_len = std::fs::metadata(&wal_path).unwrap().len();
    let cuts = truncation_offsets(wal_len, 16, sc.random_cuts, sc.seed);
    assert!(cuts.len() >= sc.random_cuts / 2 + 4);
    let mut distinct_epochs = HashSet::new();
    let crash_dir = fresh_dir(&format!("{}-cut", sc.tag));
    for (i, &cut) in cuts.iter().enumerate() {
        copy_store_truncated(&dir, &crash_dir, cut);
        let recovered = Store::open(StoreConfig::new(&crash_dir, n))
            .unwrap_or_else(|e| panic!("{}: cut {cut}: recovery failed: {e}", sc.tag));
        let last_epoch = recovered.report.last_epoch;
        distinct_epochs.insert(last_epoch);
        let mut oracle = oracle_at_epoch(n, &initial, &log, last_epoch);
        assert_eq!(
            recovered.forest.export_state(),
            oracle.export_state(),
            "{}: cut {cut} (epoch {last_epoch}): recovered state diverges \
             from the acknowledged prefix",
            sc.tag
        );
        drop(recovered);
        if i % sc.probe_every == 0 {
            // Behavioral check: kill-and-recover a full server on the
            // truncated store and compare all seven families live.
            let (server, rep) = RcServe::start_durable(
                ServeConfig::default(),
                Durability::new(&crash_dir, n),
                None,
            )
            .expect("recovered server");
            assert_eq!(rep.last_epoch, last_epoch, "{}: cut {cut}", sc.tag);
            probe_all_families(&server, &mut oracle, n as u32, sc.tag);
            server.shutdown();
        }
    }
    assert!(
        distinct_epochs.len() > 3,
        "{}: cuts must land in several epochs, got {:?}",
        sc.tag,
        distinct_epochs
    );
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(crash_dir);
    total_ops
}

/// The durability-ordering test under concurrent load: an injected WAL
/// append failure mid-run must still leave a well-defined acknowledged
/// prefix — every handle resolves (served or rejected, never hung),
/// recovery reproduces exactly the logged updates, and no released query
/// ever observed state beyond the durable prefix (its version stamp
/// proves it).
#[test]
fn wal_failure_preserves_acknowledged_prefix_under_concurrent_load() {
    let n = 600usize;
    let threads = 6usize;
    let ops_per_thread = 400usize;
    let stream_cfg = RequestStreamConfig {
        forest: ForestGenConfig {
            n,
            seed: 0xC4A5_0003,
            max_weight: 64,
            ..Default::default()
        },
        mix: OpMix::balanced(),
        invalid_frac: 0.04,
        ..Default::default()
    };
    let probe = RequestStream::new_partitioned(stream_cfg.clone(), 0, threads);
    let initial = probe.initial_edges();
    let boot = ForestState::from_edges(n, &initial);
    let dir = fresh_dir("wal-fail-under-load");
    let mut durability = Durability::new(&dir, n);
    // Fail the WAL mid-run: the first 12 state-changing epochs append
    // durably, the 13th append errors while six clients keep submitting.
    durability.fail_appends_after = 12;
    let (server, report) = RcServe::start_durable(
        ServeConfig {
            max_linger: Duration::from_micros(100),
            drain_threshold: 64,
            max_epoch_ops: 128,
            record_commit_log: true,
            ..ServeConfig::default()
        },
        durability,
        Some(&boot),
    )
    .expect("fresh durable store");
    assert_eq!(report.replayed_epochs, 0);
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let client = server.client();
            let cfg = stream_cfg.clone();
            std::thread::spawn(move || {
                let mut stream = RequestStream::new_partitioned(cfg, t, threads);
                let mut rejected = 0usize;
                let mut remaining = ops_per_thread;
                while remaining > 0 {
                    let chunk = remaining.min(16);
                    remaining -= chunk;
                    let handles: Vec<_> = (0..chunk)
                        .map(|_| client.submit(Request::from_stream(stream.next_op())))
                        .collect();
                    for h in handles {
                        match h.wait_timeout(Duration::from_secs(60)) {
                            Some(Response::Rejected) => rejected += 1,
                            Some(_) => {}
                            None => panic!("request hung across the WAL failure"),
                        }
                    }
                }
                rejected
            })
        })
        .collect();
    let rejected: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert!(
        rejected > 0,
        "the injected WAL failure must reject requests"
    );
    let auditor = server.client();
    server.shutdown();
    let log = auditor.take_commit_log();
    assert_eq!(
        log.len() + rejected,
        threads * ops_per_thread,
        "every request either committed (and logged) or rejected"
    );
    assert!(!log.is_empty(), "some epochs committed before the failure");

    // Recovery reproduces exactly the acknowledged prefix: the full set
    // of logged (acknowledged) updates, nothing more, nothing less.
    let recovered =
        Store::open(StoreConfig::new(&dir, n)).expect("recovery after injected failure");
    let last = recovered.report.last_epoch;
    let oracle = oracle_at_epoch(n, &initial, &log, u64::MAX);
    assert_eq!(
        recovered.forest.export_state(),
        oracle.export_state(),
        "recovered state diverges from the acknowledged prefix"
    );
    // Release never outran durability: every query's stamp lies within
    // the durable prefix, and it is the query's own epoch.
    for e in log.iter().filter(|e| !e.request.is_update()) {
        assert!(
            e.version <= last,
            "query (epoch {} seq {}) stamped {} — past the durable prefix {last}",
            e.epoch,
            e.seq,
            e.version
        );
        assert_eq!(
            e.version, e.epoch,
            "query (seq {}) stamped with a foreign epoch",
            e.seq
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

/// Acceptance test: ≥100k seeded ops across crash scenarios in release
/// (reduced in debug so plain `cargo test` stays quick; CI runs the
/// release version explicitly).
#[test]
fn crash_truncation_recovers_exact_acknowledged_prefix() {
    let (ops_per_thread, random_cuts) = if cfg!(debug_assertions) {
        (250, 12)
    } else {
        (6_500, 28)
    };
    let mut total = 0usize;
    total += run_crash_scenario(&Scenario {
        tag: "balanced",
        seed: 0xC4A5_0001,
        threads: 8,
        ops_per_thread,
        mix: OpMix::balanced(),
        compact_bytes: u64::MAX,
        random_cuts,
        probe_every: 6,
    });
    total += run_crash_scenario(&Scenario {
        tag: "update-heavy-compacting",
        seed: 0xC4A5_0002,
        threads: 8,
        ops_per_thread,
        mix: OpMix::update_heavy(),
        // Small threshold: snapshots + WAL truncation happen mid-run, so
        // cuts exercise the snapshot + short-suffix recovery path.
        compact_bytes: 16 << 10,
        random_cuts,
        probe_every: 6,
    });
    if !cfg!(debug_assertions) {
        assert!(total >= 100_000, "acceptance floor: {total} ops");
    }
}
