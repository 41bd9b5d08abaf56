//! `rc-serve` — a concurrent request-coalescing service layer over the
//! batch-parallel RC forest.
//!
//! The paper's central result is that *batch* dynamic-tree operations
//! amortize far better than sequential single operations — but real
//! traffic arrives as millions of independent single-shot requests. This
//! crate is the piece in between: an **epoch-based coalescer** that owns a
//! [`ServeForest`], accepts asynchronous requests (`Link`, `Cut`, weight
//! updates, and the seven query families: connectivity, subtree, path,
//! LCA, compressed path trees, bottleneck, nearest-marked) from many
//! client threads, and drains them in epochs:
//!
//! ```text
//!  clients ──submit──▶ locked queue ──drain───▶ ┌───────── epoch ─────────┐
//!    │                 (seq-stamped)            │ update phase (overlay + │
//!    │◀─── oneshot ResponseHandle ──────────────│   batch_cut/batch_link) │
//!                                               │ query phase (batch call │
//!                                               │   or single walks)      │
//!                                               └─────────────────────────┘
//! ```
//!
//! Each epoch is serializable by construction: updates commit in global
//! submission order (in-epoch conflicts — duplicate or contradictory
//! link/cut pairs — are resolved exactly by that order via an overlay that
//! flushes sub-batches only when a later op depends on an earlier one),
//! then every query family answers over the post-update forest: one
//! `O(k log(1 + n/k))` marked-sweep batch call once the epoch holds
//! enough of that family's queries, independent single walks below that
//! measured per-family threshold.
//!
//! # Batching policy
//!
//! [`ServeConfig`] exposes three knobs that trade per-request latency for
//! throughput:
//!
//! * `max_linger` — how long the worker waits for more requests after the
//!   first arrival. Larger ⇒ bigger batches ⇒ more amortization, at up to
//!   that much extra latency for the epoch's first request.
//! * `drain_threshold` — adaptive early drain: a hot queue never waits
//!   for the linger timer once this many requests are pending.
//! * `max_epoch_ops` — cap on epoch size, bounding worst-case epoch
//!   latency under overload.
//!
//! [`ServeConfig::unbatched`] (size-1 epochs) is the degenerate baseline;
//! the `serve_load` driver in `rc-bench` measures the coalescing speedup
//! against it and records the trajectory in `BENCH_serve.json`.
//!
//! # Strict update→query alternation
//!
//! One worker thread runs every phase of every epoch: it commits epoch
//! E's updates (and appends them to the WAL when durable), then answers
//! E's queries against the live forest before it drains epoch E+1. No
//! copy of the forest is ever published or retained, and every query
//! observes exactly the epoch-E committed state — the commit log stamps
//! it with its own epoch ([`LogEntry::version`]). The epoch itself is
//! the batch: the larger it grows, the more the `O(k log(1 + n/k))`
//! bound amortizes.
//!
//! # Durability (optional)
//!
//! [`RcServe::start_durable`] puts an `rc-store` WAL + snapshot store
//! under the epoch loop: each committed epoch's update batches are
//! appended (and, per [`SyncPolicy`], fsynced) *before* the epoch's
//! responses are released, the log compacts into parallel snapshots once
//! it outgrows a threshold, and restart recovers by batch-replaying the
//! WAL suffix over the newest snapshot. Clean shutdown always flushes the
//! WAL tail. See the README's "Durability" section.
//!
//! # Quick start
//!
//! ```
//! use rc_serve::{Request, Response, RcServe, ServeConfig, ServeForest};
//! use rc_core::BuildOptions;
//!
//! let forest = ServeForest::build_edges(
//!     4, &[(0, 1, 5), (1, 2, 7), (2, 3, 2)], BuildOptions::default()).unwrap();
//! let server = RcServe::start(forest, ServeConfig::default());
//! let client = server.client();
//! assert_eq!(client.call(Request::PathSum { u: 0, v: 3 }), Response::Sum(Some(14)));
//! assert_eq!(
//!     client.call(Request::Cut { u: 1, v: 2 }),
//!     Response::Updated(Ok(())));
//! assert_eq!(client.call(Request::PathSum { u: 0, v: 3 }), Response::Sum(None));
//! let forest = server.shutdown();
//! assert_eq!(forest.num_edges(), 2);
//! ```

mod agg;
mod coalescer;
mod exec;
mod request;
mod telemetry;

pub use agg::{PathSummary, ServeAgg, ServeForest, ServeVertexWeight};
pub use coalescer::{CommitEvent, LogEntry, RcServe, ServeClient, ServeConfig};
pub use exec::answer_read_only;
/// Observability types, re-exported from `rc-obs`: every
/// [`RcServe::metrics`] snapshot and [`ServeClient::flight_dump`] trace
/// is made of these (see the "Observability" section of the README).
pub use rc_obs::{
    Engine, EpochTrace, ExemplarEntry, HealthView, HistogramSummary, MetricValue, MetricsSnapshot,
    ObsServer, ObsServerConfig, PhaseTotals, RequestTrace, Span, StallInfo, TraceDump,
    ENGINE_NAMES, FAMILY_NAMES,
};
/// Durability knobs, re-exported from `rc-store`: pass a [`Durability`]
/// to [`RcServe::start_durable`] to put a WAL + snapshot store under the
/// epoch loop (see the "Durability" section of the README).
pub use rc_store::{RecoveryReport, StoreConfig as Durability, StoreError, SyncPolicy};
pub use request::{CptResult, Request, Response, ResponseHandle};
pub use telemetry::{ServeStats, StallReport, TelemetryDump};

#[cfg(test)]
mod tests {
    use super::*;
    use rc_core::{BuildOptions, ForestError};
    use std::time::Duration;

    fn path_forest(n: u32) -> ServeForest {
        let edges: Vec<(u32, u32, u64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        ServeForest::build_edges(n as usize, &edges, BuildOptions::default()).unwrap()
    }

    fn quick_cfg() -> ServeConfig {
        ServeConfig {
            max_linger: Duration::from_micros(50),
            ..ServeConfig::default()
        }
    }

    #[test]
    fn serves_every_query_family() {
        let server = RcServe::start(path_forest(10), quick_cfg());
        let c = server.client();
        assert_eq!(
            c.call(Request::Connected { u: 0, v: 9 }),
            Response::Bool(true)
        );
        assert_eq!(
            c.call(Request::PathSum { u: 0, v: 9 }),
            Response::Sum(Some(9))
        );
        assert_eq!(
            c.call(Request::Lca { u: 2, v: 5, r: 9 }),
            Response::Vertex(Some(5))
        );
        assert_eq!(
            c.call(Request::SubtreeSum { v: 9, parent: 8 }),
            Response::Sum(Some(0))
        );
        match c.call(Request::Bottleneck { u: 0, v: 9 }) {
            Response::Extrema(Some(p)) => assert_eq!(p.min.unwrap().w, 1),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.call(Request::Mark { v: 0 }), Response::Updated(Ok(())));
        assert_eq!(
            c.call(Request::NearestMarked { v: 4 }),
            Response::Near(Some((4, 0)))
        );
        match c.call(Request::Cpt {
            terminals: vec![0, 4, 9],
        }) {
            Response::Cpt(cpt) => {
                assert!(cpt.vertices.contains(&0) && cpt.vertices.contains(&9));
                assert!(!cpt.edges.is_empty());
            }
            other => panic!("unexpected {other:?}"),
        }
        match c.call(Request::Representative { v: 3 }) {
            Response::Vertex(Some(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn malformed_requests_answer_errors_not_panics() {
        let server = RcServe::start(path_forest(4), quick_cfg());
        let c = server.client();
        assert_eq!(
            c.call(Request::Link { u: 0, v: 99, w: 1 }),
            Response::Updated(Err(ForestError::VertexOutOfRange { v: 99, n: 4 }))
        );
        assert_eq!(
            c.call(Request::Link { u: 0, v: 3, w: 1 }),
            Response::Updated(Err(ForestError::WouldCreateCycle { u: 0, v: 3 }))
        );
        assert_eq!(
            c.call(Request::Cut { u: 0, v: 2 }),
            Response::Updated(Err(ForestError::MissingEdge { u: 0, v: 2 }))
        );
        assert_eq!(
            c.call(Request::UpdateEdgeWeight { u: 0, v: 2, w: 9 }),
            Response::Updated(Err(ForestError::MissingEdge { u: 0, v: 2 }))
        );
        assert_eq!(
            c.call(Request::PathSum { u: 0, v: 77 }),
            Response::Sum(None)
        );
        assert_eq!(
            c.call(Request::NearestMarked { v: 77 }),
            Response::Near(None)
        );
        // The loop is still alive and correct after all that abuse.
        assert_eq!(
            c.call(Request::PathSum { u: 0, v: 3 }),
            Response::Sum(Some(3))
        );
        server.shutdown();
    }

    #[test]
    fn in_epoch_conflicts_resolve_by_submission_order() {
        // Submit a contradictory stream in one burst with a long linger so
        // it lands in a single epoch: cut an edge, relink it, cut again,
        // then a duplicate cut (must fail).
        let server = RcServe::start(
            path_forest(6),
            ServeConfig {
                max_linger: Duration::from_millis(200),
                drain_threshold: 1_000,
                record_commit_log: true,
                ..ServeConfig::default()
            },
        );
        let c = server.client();
        let handles = vec![
            c.submit(Request::Cut { u: 2, v: 3 }),
            c.submit(Request::Link { u: 2, v: 3, w: 9 }),
            c.submit(Request::Cut { u: 2, v: 3 }),
            c.submit(Request::Cut { u: 2, v: 3 }),
            c.submit(Request::Link { u: 0, v: 5, w: 1 }),
            c.submit(Request::Connected { u: 0, v: 5 }),
        ];
        let rs: Vec<Response> = handles.into_iter().map(|h| h.wait()).collect();
        assert_eq!(rs[0], Response::Updated(Ok(())));
        assert_eq!(rs[1], Response::Updated(Ok(())));
        assert_eq!(rs[2], Response::Updated(Ok(())));
        assert_eq!(
            rs[3],
            Response::Updated(Err(ForestError::MissingEdge { u: 2, v: 3 }))
        );
        // 0..2 and 3..5 were reconnected through the new (0,5) edge? No:
        // (2,3) ends cut, so 0-1-2 and 3-4-5 plus link (0,5) joins them.
        assert_eq!(rs[4], Response::Updated(Ok(())));
        assert_eq!(rs[5], Response::Bool(true));
        let forest = server.shutdown();
        let log = c.take_commit_log();
        assert_eq!(log.len(), 6);
        assert!(log.windows(2).all(
            |w| w[0].seq < w[1].seq || (w[0].request.is_update() && !w[1].request.is_update())
        ));
        assert!(!forest.has_edge(2, 3));
        assert!(forest.has_edge(0, 5));
    }

    #[test]
    fn cancelled_link_does_not_poison_later_links() {
        // Components {0}, {1}, {2,3}. In one epoch: Link(0,2) unions
        // comp(0) with comp(2,3); Cut(0,2) cancels it (nothing pending,
        // union-find stale); Link(0,3) must then succeed — the stale union
        // must not surface as a spurious WouldCreateCycle after the
        // empty-overlay flush.
        let forest =
            ServeForest::build_edges(4, &[(2, 3, 1)], rc_core::BuildOptions::default()).unwrap();
        let server = RcServe::start(
            forest,
            ServeConfig {
                max_linger: Duration::from_millis(200),
                drain_threshold: 1_000,
                ..ServeConfig::default()
            },
        );
        let c = server.client();
        let handles = vec![
            c.submit(Request::Link { u: 0, v: 2, w: 5 }),
            c.submit(Request::Cut { u: 0, v: 2 }),
            c.submit(Request::Link { u: 0, v: 3, w: 7 }),
        ];
        let rs: Vec<Response> = handles.into_iter().map(|h| h.wait()).collect();
        assert_eq!(rs[0], Response::Updated(Ok(())));
        assert_eq!(rs[1], Response::Updated(Ok(())));
        assert_eq!(rs[2], Response::Updated(Ok(())), "stale union leaked");
        let forest = server.shutdown();
        assert!(!forest.has_edge(0, 2));
        assert!(forest.has_edge(0, 3));
    }

    #[test]
    fn shutdown_racing_submissions_never_hang() {
        // Hammer shutdown against concurrent submitters; every handle must
        // resolve (served or rejected), never hang on an abandoned slot.
        for round in 0..20 {
            let server = RcServe::start(path_forest(8), ServeConfig::unbatched());
            let clients: Vec<_> = (0..3)
                .map(|t| {
                    let c = server.client();
                    std::thread::spawn(move || {
                        (0..50)
                            .map(|i| {
                                c.submit(Request::Connected {
                                    u: (t + i) % 8,
                                    v: i % 8,
                                })
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            if round % 2 == 0 {
                std::thread::yield_now();
            }
            server.shutdown();
            for handles in clients {
                for h in handles.join().unwrap() {
                    assert!(
                        h.wait_timeout(Duration::from_secs(10)).is_some(),
                        "request neither served nor rejected"
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_clients_coalesce_into_epochs() {
        let server = RcServe::start(path_forest(64), quick_cfg());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let c = server.client();
                std::thread::spawn(move || {
                    for i in 0..200u32 {
                        let (a, b) = ((t * 7 + i) % 64, (i * 13 + 1) % 64);
                        match c.call(Request::PathSum { u: a, v: b }) {
                            Response::Sum(Some(s)) => {
                                assert_eq!(s, (a as i64 - b as i64).unsigned_abs())
                            }
                            other => panic!("thread {t}: {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let c = server.client();
        server.shutdown();
        let stats = c.stats();
        assert_eq!(stats.ops, 8 * 200);
        assert!(stats.epochs < 1_600, "some coalescing happened");
        assert!(stats.latency.count == 1_600 && stats.latency.p50_ns > 0);
        assert!(!c.flight_dump().is_empty());
    }

    #[test]
    fn shutdown_drains_and_rejects_late_submissions() {
        let server = RcServe::start(path_forest(8), quick_cfg());
        let c = server.client();
        let pending: Vec<_> = (0..50)
            .map(|i| {
                c.submit(Request::Connected {
                    u: i % 8,
                    v: (i + 1) % 8,
                })
            })
            .collect();
        let forest = server.shutdown();
        assert_eq!(forest.num_vertices(), 8);
        for h in pending {
            assert!(matches!(h.wait(), Response::Bool(_)), "drained before exit");
        }
        assert_eq!(
            c.call(Request::Connected { u: 0, v: 1 }),
            Response::Rejected
        );
    }

    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("rc-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn durable_server_recovers_after_restart() {
        use rc_core::{DynamicForest, ForestState};
        let dir = durable_dir("restart");
        let boot = ForestState::from_edges(10, &[(0, 1, 1), (1, 2, 2), (2, 3, 3)]);
        let want = {
            let (server, report) =
                RcServe::start_durable(quick_cfg(), Durability::new(&dir, 10), Some(&boot))
                    .unwrap();
            assert_eq!(report.replayed_epochs, 0, "fresh store");
            let c = server.client();
            assert_eq!(
                c.call(Request::Cut { u: 1, v: 2 }),
                Response::Updated(Ok(()))
            );
            assert_eq!(
                c.call(Request::Link { u: 0, v: 9, w: 7 }),
                Response::Updated(Ok(()))
            );
            assert_eq!(c.call(Request::Mark { v: 3 }), Response::Updated(Ok(())));
            assert_eq!(
                c.call(Request::UpdateEdgeWeight { u: 0, v: 1, w: 50 }),
                Response::Updated(Ok(()))
            );
            server.shutdown().export_state()
        };
        // A new process: recover and serve the identical forest.
        let (server, report) =
            RcServe::start_durable(quick_cfg(), Durability::new(&dir, 10), Some(&boot)).unwrap();
        assert!(report.replayed_epochs > 0, "WAL suffix replayed");
        let c = server.client();
        assert_eq!(
            c.call(Request::PathSum { u: 9, v: 1 }),
            Response::Sum(Some(57))
        );
        assert_eq!(
            c.call(Request::Connected { u: 0, v: 3 }),
            Response::Bool(false)
        );
        assert_eq!(
            c.call(Request::NearestMarked { v: 2 }),
            Response::Near(Some((3, 3)))
        );
        assert_eq!(server.shutdown().export_state(), want);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn clean_shutdown_flushes_wal_tail_under_never_sync() {
        // Pins the shutdown fix: with SyncPolicy::Never the WAL tail sits
        // in a user-space buffer — shutdown must flush + fsync it, so a
        // cleanly stopped server never loses acknowledged epochs.
        use rc_core::DynamicForest;
        let dir = durable_dir("flush-tail");
        {
            let (server, _) = RcServe::start_durable(
                quick_cfg(),
                Durability::new(&dir, 6).sync_policy(SyncPolicy::Never),
                None,
            )
            .unwrap();
            let c = server.client();
            for v in 1..6u32 {
                // Chain links: small epochs, all buffered under Never.
                assert_eq!(
                    c.call(Request::Link {
                        u: v - 1,
                        v,
                        w: v as u64
                    }),
                    Response::Updated(Ok(()))
                );
            }
            server.shutdown();
        }
        let (server, report) = RcServe::start_durable(
            quick_cfg(),
            Durability::new(&dir, 6).sync_policy(SyncPolicy::Never),
            None,
        )
        .unwrap();
        assert!(report.replayed_epochs > 0);
        let forest = server.shutdown();
        assert_eq!(forest.num_edges(), 5, "every acknowledged link survived");
        assert_eq!(DynamicForest::path_sum(&mut { forest }, 0, 5), Some(15));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn durability_failure_rejects_instead_of_hanging() {
        // When a WAL append fails mid-service (injected ENOSPC), every
        // outstanding and subsequent request must resolve — as Rejected —
        // rather than hang on a dead worker, and recovery must see
        // exactly the epochs acknowledged before the failure.
        use rc_core::DynamicForest;
        let dir = durable_dir("wal-fail");
        let mut durability = Durability::new(&dir, 8);
        durability.fail_appends_after = 2;
        let (server, _) =
            RcServe::start_durable(ServeConfig::unbatched(), durability, None).unwrap();
        let c = server.client();
        // Two epochs append durably...
        assert_eq!(
            c.call(Request::Link { u: 0, v: 1, w: 5 }),
            Response::Updated(Ok(()))
        );
        assert_eq!(
            c.call(Request::Link { u: 1, v: 2, w: 6 }),
            Response::Updated(Ok(()))
        );
        // ...the third hits the injected failure: Rejected, not a hang.
        let h = c.submit(Request::Link { u: 2, v: 3, w: 7 });
        assert_eq!(
            h.wait_timeout(Duration::from_secs(30)),
            Some(Response::Rejected),
            "request must resolve, never hang"
        );
        // Everything after the failure is rejected too (queries included).
        assert_eq!(
            c.call(Request::Connected { u: 0, v: 1 }),
            Response::Rejected
        );
        server.shutdown();
        // Recovery sees exactly the two acknowledged epochs.
        let (server, report) =
            RcServe::start_durable(ServeConfig::default(), Durability::new(&dir, 8), None).unwrap();
        assert_eq!(report.replayed_epochs, 2);
        let forest = server.shutdown();
        assert_eq!(
            forest.export_state().edges,
            vec![(0, 1, 5), (1, 2, 6)],
            "acknowledged prefix, nothing more"
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn durable_compaction_bounds_the_log() {
        use rc_core::DynamicForest;
        let dir = durable_dir("compaction");
        let cfg = || Durability::new(&dir, 64).compact_threshold(512);
        let want = {
            let (server, _) = RcServe::start_durable(quick_cfg(), cfg(), None).unwrap();
            let c = server.client();
            for round in 0..40u32 {
                let v = round % 63;
                if round >= 63 || round % 2 == 0 {
                    let _ = c.call(Request::Link {
                        u: v,
                        v: v + 1,
                        w: round as u64 + 1,
                    });
                } else {
                    let _ = c.call(Request::UpdateVertexWeight { v, w: round as u64 });
                }
            }
            server.shutdown().export_state()
        };
        // The log was compacted (snapshot + truncate) at least once, and
        // recovery from snapshot + short suffix is exact.
        let wal = std::fs::metadata(dir.join(rc_store::WAL_FILE))
            .unwrap()
            .len();
        assert!(wal < 2_048, "wal stayed bounded, got {wal} bytes");
        let snaps = rc_store::snapshot::list_snapshots(&dir).unwrap();
        assert_eq!(snaps.len(), 1, "exactly the newest snapshot retained");
        let (server, _) = RcServe::start_durable(quick_cfg(), cfg(), None).unwrap();
        assert_eq!(server.shutdown().export_state(), want);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn unbatched_config_serves_size_one_epochs() {
        let server = RcServe::start(path_forest(8), ServeConfig::unbatched());
        let c = server.client();
        for _ in 0..32 {
            assert_eq!(
                c.call(Request::Connected { u: 0, v: 7 }),
                Response::Bool(true)
            );
        }
        server.shutdown();
        let stats = c.stats();
        assert_eq!(stats.ops, 32);
        assert_eq!(stats.max_batch, 1, "closed-loop single client, cap 1");
        assert_eq!(stats.epochs, 32);
    }
}
