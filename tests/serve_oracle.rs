//! Serializability oracle for the `rc-serve` coalescer.
//!
//! N client threads hammer one server with randomized, partly-invalid
//! request streams (`rc-gen`). The server records its commit log (updates
//! in submission order, then queries, per epoch). The oracle replays that
//! log sequentially against the [`DynamicForest`] backend trait's naive
//! reference implementation ([`NaiveStdForest`]) and asserts that
//! **every** response the server produced — update outcomes including
//! exact `ForestError`s, and all seven query families — matches the
//! sequential execution. Any lost update, phantom read, torn epoch or
//! conflict-resolution bug shows up as a response mismatch. The replay
//! also audits the log's order against the submission sequence numbers
//! stamped across all producers: each epoch follows every earlier one,
//! and commits its updates, then its queries, each in submission order.
//!
//! The only serve-layer semantics not inherited from the trait verbatim:
//! `UpdateEdgeWeight` range-checks its endpoints *before* probing edge
//! presence (the trait's `set_edge_weight` folds out-of-range ids into
//! `MissingEdge`, matching the raw core call).

use rcforest::serve::{
    CptResult, LogEntry, MetricsSnapshot, PathSummary, RcServe, Request, Response, ServeConfig,
    ServeForest,
};
use rcforest::{DynamicForest, ForestError, NaiveStdForest, RequestStream, RequestStreamConfig};
use std::collections::HashMap;
use std::time::Duration;

const MAX_DEGREE: usize = 3;

struct Oracle {
    nv: NaiveStdForest,
}

impl Oracle {
    fn new(n: usize, edges: &[(u32, u32, u64)]) -> Self {
        let mut nv = NaiveStdForest::with_max_degree(n, Some(MAX_DEGREE));
        nv.batch_link(edges).expect("valid initial forest");
        Oracle { nv }
    }

    fn in_range(&self, v: u32) -> bool {
        (v as usize) < self.nv.num_vertices()
    }

    fn range_check(&self, v: u32) -> Result<(), ForestError> {
        if self.in_range(v) {
            Ok(())
        } else {
            Err(ForestError::VertexOutOfRange {
                v,
                n: self.nv.num_vertices(),
            })
        }
    }

    /// Expected outcome of an update, in the serve layer's documented
    /// check order; applies the op on success.
    fn apply_update(&mut self, req: &Request) -> Result<(), ForestError> {
        match *req {
            Request::Link { u, v, w } => self.nv.link(u, v, w),
            Request::Cut { u, v } => self.nv.cut(u, v),
            Request::UpdateEdgeWeight { u, v, w } => {
                self.range_check(u)?;
                self.range_check(v)?;
                self.nv.set_edge_weight(u, v, w)
            }
            Request::UpdateVertexWeight { v, w } => self.nv.set_vertex_weight(v, w),
            Request::Mark { v } => self.nv.set_mark(v, true),
            Request::Unmark { v } => self.nv.set_mark(v, false),
            _ => unreachable!("query in update replay"),
        }
    }

    fn check_query(&mut self, entry: &LogEntry, repr_seen: &mut HashMap<u32, u32>) {
        let req = &entry.request;
        let resp = &entry.response;
        let ctx = || format!("epoch {} seq {} {:?}", entry.epoch, entry.seq, req);
        match *req {
            Request::Connected { u, v } => {
                assert_eq!(resp, &Response::Bool(self.nv.connected(u, v)), "{}", ctx());
            }
            Request::Representative { v } => {
                let Response::Vertex(got) = resp else {
                    panic!("{}: wrong response kind {resp:?}", ctx());
                };
                assert_eq!(got.is_some(), self.in_range(v), "{}", ctx());
                if let Some(r) = got {
                    assert!(
                        self.in_range(*r) && self.nv.connected(v, *r),
                        "{}: repr {r} outside component",
                        ctx()
                    );
                    // Same epoch + same repr => same component.
                    if let Some(&w) = repr_seen.get(r) {
                        assert!(self.nv.connected(v, w), "{}: repr collision", ctx());
                    } else {
                        repr_seen.insert(*r, v);
                    }
                }
            }
            Request::PathSum { u, v } => {
                assert_eq!(resp, &Response::Sum(self.nv.path_sum(u, v)), "{}", ctx());
            }
            Request::SubtreeSum { v, parent } => {
                assert_eq!(
                    resp,
                    &Response::Sum(self.nv.subtree_sum(v, parent)),
                    "{}",
                    ctx()
                );
            }
            Request::Lca { u, v, r } => {
                assert_eq!(resp, &Response::Vertex(self.nv.lca(u, v, r)), "{}", ctx());
            }
            Request::Bottleneck { u, v } => {
                assert_eq!(
                    resp,
                    &Response::Extrema(self.nv.path_extrema(u, v)),
                    "{}",
                    ctx()
                );
            }
            Request::NearestMarked { v } => {
                let want = self.nv.nearest_marked(v);
                let Response::Near(got) = resp else {
                    panic!("{}: wrong response kind {resp:?}", ctx());
                };
                // Distances must agree (witnesses only differ on ties).
                assert_eq!(got.map(|x| x.0), want.map(|x| x.0), "{}", ctx());
            }
            Request::Cpt { ref terminals } => {
                let Response::Cpt(cpt) = resp else {
                    panic!("{}: wrong response kind {resp:?}", ctx());
                };
                self.check_cpt(terminals, cpt, &ctx());
            }
            _ => unreachable!("update in query replay"),
        }
    }

    /// The compressed tree must preserve pairwise path summaries exactly.
    fn check_cpt(&mut self, terminals: &[u32], cpt: &CptResult, ctx: &str) {
        let index: HashMap<u32, usize> = cpt
            .vertices
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i))
            .collect();
        let mut adj: Vec<Vec<(usize, PathSummary)>> = vec![Vec::new(); cpt.vertices.len()];
        for &(a, b, p) in &cpt.edges {
            adj[index[&a]].push((index[&b], p));
            adj[index[&b]].push((index[&a], p));
        }
        let combine = |a: &PathSummary, b: &PathSummary| PathSummary {
            sum: a.sum.wrapping_add(b.sum),
            min: match (a.min, b.min) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(if (x.w, x.u, x.v) <= (y.w, y.u, y.v) {
                    x
                } else {
                    y
                }),
            },
            max: match (a.max, b.max) {
                (None, x) | (x, None) => x,
                (Some(x), Some(y)) => Some(if (x.w, x.u, x.v) >= (y.w, y.u, y.v) {
                    x
                } else {
                    y
                }),
            },
        };
        let in_range: Vec<u32> = terminals
            .iter()
            .copied()
            .filter(|&t| self.in_range(t))
            .collect();
        for &a in &in_range {
            for &b in &in_range {
                if a >= b {
                    continue;
                }
                let want = self.nv.path_extrema(a, b);
                // BFS in the compressed tree.
                let got = (|| {
                    let (sa, sb) = (*index.get(&a)?, *index.get(&b)?);
                    let mut val: Vec<Option<PathSummary>> = vec![None; adj.len()];
                    val[sa] = Some(PathSummary {
                        sum: 0,
                        min: None,
                        max: None,
                    });
                    let mut queue = std::collections::VecDeque::from([sa]);
                    let mut prev = vec![usize::MAX; adj.len()];
                    prev[sa] = sa;
                    while let Some(x) = queue.pop_front() {
                        let vx = val[x].unwrap();
                        for &(y, p) in &adj[x] {
                            if prev[y] == usize::MAX {
                                prev[y] = x;
                                val[y] = Some(combine(&vx, &p));
                                queue.push_back(y);
                            }
                        }
                    }
                    val[sb]
                })();
                assert_eq!(got, want, "{ctx}: cpt pair ({a},{b})");
            }
        }
    }
}

/// Drive `threads` clients over partitioned streams, then replay the
/// commit log against the oracle.
fn run_oracle(cfg: ServeConfig, threads: usize, ops_per_thread: usize, seed: u64) {
    run_oracle_mix(
        cfg,
        threads,
        ops_per_thread,
        seed,
        rcforest::OpMix::balanced(),
    );
}

/// [`run_oracle`] over `mix`. Returns the server's final metrics
/// snapshot, so a test can assert which engine ran each family's
/// fan-outs (every engine must produce identical answers — that is what
/// the replay checks).
fn run_oracle_mix(
    cfg: ServeConfig,
    threads: usize,
    ops_per_thread: usize,
    seed: u64,
    mix: rcforest::OpMix,
) -> MetricsSnapshot {
    let stream_cfg = RequestStreamConfig {
        forest: rcforest::ForestGenConfig {
            n: 1_500,
            seed,
            max_weight: 64,
            ..Default::default()
        },
        mix,
        invalid_frac: 0.05,
        cpt_terminals: 6,
        ..Default::default()
    };
    let probe = RequestStream::new_partitioned(stream_cfg.clone(), 0, threads);
    let initial = probe.initial_edges();
    let n = probe.num_vertices();
    let forest = ServeForest::build_edges(n, &initial, rcforest::BuildOptions::default()).unwrap();

    let server = RcServe::start(forest, cfg);
    let workers: Vec<_> = (0..threads)
        .map(|t| {
            let client = server.client();
            let scfg = stream_cfg.clone();
            std::thread::spawn(move || {
                let mut stream = RequestStream::new_partitioned(scfg, t, threads);
                let mut served = 0usize;
                // Chunked submission: bursts build big epochs, the waits
                // create cross-epoch dependencies.
                let mut remaining = ops_per_thread;
                while remaining > 0 {
                    let chunk = remaining.min(32);
                    remaining -= chunk;
                    let handles: Vec<_> = (0..chunk)
                        .map(|_| client.submit(Request::from_stream(stream.next_op())))
                        .collect();
                    for h in handles {
                        assert!(h.wait() != Response::Rejected);
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();
    let total: usize = workers.into_iter().map(|w| w.join().unwrap()).sum();
    assert_eq!(total, threads * ops_per_thread);

    // The log finishes booking after responses fill; join the worker
    // (shutdown) before draining it.
    let auditor = server.client();
    server.shutdown();
    let metrics = auditor.metrics_snapshot();
    let log = auditor.take_commit_log();
    assert_eq!(log.len(), total, "every request committed exactly once");

    // Replay: log order is commit order (updates then queries per epoch).
    let mut oracle = Oracle::new(n, &initial);
    let mut epoch = 0u64;
    let mut repr_seen: HashMap<u32, u32> = HashMap::new();
    let mut seen_seqs = std::collections::HashSet::new();
    // Submission-order audit: a drain takes a prefix of submission order
    // across all producers, so within an epoch the updates ascend by seq
    // and so do the queries, and every seq of an epoch is above every seq
    // of the epochs before it.
    let mut floor: Option<u64> = None; // highest seq of the earlier epochs
    let mut top: Option<u64> = None; // highest seq so far
    let mut last: [Option<u64>; 2] = [None; 2]; // last update, last query
    for entry in &log {
        assert!(seen_seqs.insert(entry.seq), "seq {} duplicated", entry.seq);
        if entry.epoch != epoch {
            epoch = entry.epoch;
            repr_seen.clear();
            floor = top;
            last = [None; 2];
        }
        assert!(
            floor < Some(entry.seq),
            "epoch {} seq {} was submitted before a request of an earlier epoch",
            entry.epoch,
            entry.seq
        );
        let phase = usize::from(!entry.request.is_update());
        assert!(
            last[phase] < Some(entry.seq),
            "epoch {} seq {} {:?} committed out of submission order",
            entry.epoch,
            entry.seq,
            entry.request
        );
        last[phase] = Some(entry.seq);
        top = top.max(Some(entry.seq));
        // Version-stamp audit: every response, update or query, observed
        // exactly its own epoch's committed state — the replay state at
        // this point of the log.
        assert_eq!(
            entry.version, entry.epoch,
            "seq {} {:?} stamped with a foreign epoch",
            entry.seq, entry.request
        );
        if entry.request.is_update() {
            let want = oracle.apply_update(&entry.request);
            assert_eq!(
                entry.response,
                Response::Updated(want.clone()),
                "epoch {} seq {} {:?}",
                entry.epoch,
                entry.seq,
                entry.request
            );
        } else {
            oracle.check_query(entry, &mut repr_seen);
        }
    }
    metrics
}

#[test]
fn serializability_oracle_eight_threads_coalesced() {
    run_oracle(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        2025,
    );
}

#[test]
fn serializability_oracle_query_heavy() {
    // Big query phases answered right after each epoch's commit. Every
    // response must match naive replay of exactly its stamped epoch.
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        31337,
        rcforest::OpMix::query_heavy(),
    );
}

#[test]
fn serializability_oracle_update_heavy_every_epoch() {
    // Update-heavy traffic with a 1 ms linger: state changes in almost
    // every epoch, and each epoch's queries must observe exactly it.
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_millis(1),
            drain_threshold: 2_048,
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        555,
        rcforest::OpMix::update_heavy(),
    );
}

#[test]
fn serializability_oracle_release_scale() {
    // The acceptance-scale run: 100k+ operations through the default
    // server in release builds (debug builds shrink it so plain
    // `cargo test` stays quick).
    let ops_per_thread = if cfg!(debug_assertions) { 500 } else { 13_000 };
    run_oracle(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        ops_per_thread,
        86_420,
    );
}

#[test]
fn serializability_oracle_tiny_epochs() {
    // Size-bounded epochs force constant drain/requeue traffic.
    run_oracle(
        ServeConfig {
            max_epoch_ops: 24,
            drain_threshold: 8,
            max_linger: Duration::from_micros(50),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        150,
        77,
    );
}

#[test]
fn serializability_oracle_update_heavy_toggles() {
    // Long linger + update-heavy mix: the same connector edge is routinely
    // cut and relinked (and linked and re-cut) inside one epoch, driving
    // the coalescer's cancellation paths and stale-union-find flushes.
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_millis(2),
            drain_threshold: 2_048,
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        400,
        4242,
        rcforest::OpMix::update_heavy(),
    );
}

#[test]
fn serializability_oracle_unbatched_baseline() {
    run_oracle(
        ServeConfig {
            record_commit_log: true,
            ..ServeConfig::unbatched()
        },
        4,
        80,
        9,
    );
}

#[test]
fn serializability_oracle_query_heavy_small_epochs() {
    // Epochs of at most 64 requests keep every family below the walk
    // families' batch thresholds and above subtree's and near's, so both
    // engines carry real traffic; the replay proves neither changed a
    // single answer.
    let metrics = run_oracle_mix(
        ServeConfig {
            max_epoch_ops: 64,
            drain_threshold: 32,
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        300,
        60_601,
        rcforest::OpMix::query_heavy(),
    );
    let fan_outs = |family: &str, engine: &str| {
        metrics
            .counter(&format!(
                "serve_dispatch_total{{family=\"{family}\",engine=\"{engine}\"}}"
            ))
            .expect("per-(family, engine) dispatch counter is registered")
    };
    for family in ["subtree", "near"] {
        assert!(fan_outs(family, "batched") > 0, "{family} never batched");
        assert_eq!(fan_outs(family, "independent"), 0, "{family} ran singles");
    }
    for family in ["conn", "repr", "path", "lca", "bottleneck"] {
        assert!(
            fan_outs(family, "independent") > 0,
            "{family} never ran singles"
        );
        assert_eq!(fan_outs(family, "batched"), 0, "{family} batched");
    }
}

#[test]
fn serializability_oracle_query_heavy_release_scale() {
    // The acceptance-scale query-heavy run: 100k+ operations in release
    // builds with the default policy, replayed exactly.
    let ops_per_thread = if cfg!(debug_assertions) { 500 } else { 13_000 };
    run_oracle_mix(
        ServeConfig {
            max_linger: Duration::from_micros(300),
            record_commit_log: true,
            ..ServeConfig::default()
        },
        8,
        ops_per_thread,
        90_210,
        rcforest::OpMix::query_heavy(),
    );
}
