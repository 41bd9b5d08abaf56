//! Read-only query execution, dispatched per family by batch size.
//!
//! The epoch worker runs each epoch's query phase through this module,
//! right after the epoch's updates commit, and replication followers
//! answer reads against their replica through [`answer_read_only`].
//! Everything here takes the forest by shared reference: the RC forest's
//! batch query entry points are `&self` (scratch comes from an internal
//! pool), so the independent engine can fan single queries out across
//! the pool over one forest.
//!
//! Each family's fan-out runs on one of two engines over the same forest
//! state:
//!
//! - **batched** — one batch call per family: the paper's shared
//!   marked-subtree sweep, `O(k log(1 + n/k))` work;
//! - **independent** — one `O(log n)` single-query walk per query under
//!   `parallel_for`, which runs them inline below
//!   [`rc_parlay::SEQ_THRESHOLD`] queries.
//!
//! [`BATCH_MIN_K`] picks between them: a family runs batched when the
//! epoch holds at least its entry's worth of that family's queries. The
//! leader's query phase and [`answer_read_only`] read the same table.
//! The engines are answer-invariant by construction: the single-query
//! entry points share the batch paths' out-of-range/`None` contract and
//! exact aggregate semantics, so the threshold decides only where the
//! time goes, never a response.

use crate::agg::ServeForest;
use crate::request::{CptResult, Request, Response};
use rc_core::NO_VERTEX;
use rc_obs::Engine;
use rc_parlay::parallel_for;
use rc_parlay::slice::ParSlice;
use std::time::Instant;

/// Smallest number of one family's queries in an epoch at which that
/// family runs as one batch call; smaller fan-outs run independent
/// single walks. Indexed like [`rc_obs::FAMILY_NAMES`] without `cpt`,
/// which has no single-query form: each CPT request is one batch call.
///
/// Each entry is the smallest k from which the batch call measured no
/// slower than the independent engine at every larger measured k, in a
/// k-sweep over k ∈ {16, 64, 256, 1k, 4k, 16k, 32k, 64k} on a 200k-vertex
/// forest with a 2-thread pool, the forest pushed out of cache before
/// every call; 1 means the batch call was ahead at every measured k.
/// The comments give the median batch/independent time per query over
/// three sweeps; README, "Query dispatch", has the method and the table.
/// The walk families' entries exceed the default `max_epoch_ops`, so a
/// default server batches only subtree and nearest-marked queries.
pub(crate) const BATCH_MIN_K: [u32; 7] = [
    16_384, // conn: 0.83 at 16k, 0.61 at 32k, 0.39 at 64k; 1.36 at 4k.
    32_768, // repr: 0.73 at 32k, 0.55 at 64k; 1.01 at 16k.
    16_384, // path: 0.73 at 16k, 0.56 at 32k, 0.47 at 64k; 1.16 at 4k.
    1,      // subtree: 0.85 at 16, falling to 0.22 at 64k.
    16_384, // lca: 0.91 at 16k, 0.80 at 32k, 0.73 at 64k; 1.33 at 4k.
    65_536, // bottleneck: 0.94 at 64k; 1.17 at 32k.
    1,      // near: 0.89 at 16, falling to 0.14 at 64k.
];

/// Per-family wall time, query counts, and engines of one query fan-out,
/// indexed like [`rc_obs::FAMILY_NAMES`] (conn, repr, path, subtree, lca,
/// bottleneck, near, cpt).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FamilyTimings {
    pub(crate) ns: [u64; 8],
    pub(crate) counts: [u32; 8],
    /// 0 = family did not run, else `1 + Engine::index()`.
    pub(crate) engine: [u8; 8],
}

/// Span names for the per-family query spans on request traces, indexed
/// like [`rc_obs::FAMILY_NAMES`].
pub(crate) const QUERY_SPAN_NAMES: [&str; 8] = [
    "query:conn",
    "query:repr",
    "query:path",
    "query:subtree",
    "query:lca",
    "query:bottleneck",
    "query:near",
    "query:cpt",
];

/// Family index of a query request (per [`rc_obs::FAMILY_NAMES`]);
/// `None` for updates and `DumpTelemetry`.
pub(crate) fn family_index(req: &Request) -> Option<usize> {
    match req {
        Request::Connected { .. } => Some(0),
        Request::Representative { .. } => Some(1),
        Request::PathSum { .. } => Some(2),
        Request::SubtreeSum { .. } => Some(3),
        Request::Lca { .. } => Some(4),
        Request::Bottleneck { .. } => Some(5),
        Request::NearestMarked { .. } => Some(6),
        Request::Cpt { .. } => Some(7),
        _ => None,
    }
}

/// Public read-only query fan-out over a caller-owned forest: the same
/// per-family execution the coalescer uses, for callers that hold a
/// forest outside any server — replication followers answer
/// staleness-bounded reads against their replica through this. Update
/// requests answer [`Response::Rejected`].
pub fn answer_read_only(forest: &ServeForest, requests: &[Request]) -> Vec<Response> {
    let refs: Vec<&Request> = requests.iter().collect();
    answer_requests_timed(forest, &refs, &BATCH_MIN_K).0
}

/// Run one family's fan-out — one batch call when it holds at least
/// `batch_min_k` queries, else independent single walks — record its
/// timing and engine in `fam`, and scatter the answers into their
/// request slots.
#[allow(clippy::too_many_arguments)]
fn run_family<A: Sync>(
    fam: &mut FamilyTimings,
    responses: &mut [Option<Response>],
    family: usize,
    args: &[A],
    idxs: &[usize],
    batch_min_k: u32,
    batch: impl FnOnce(&[A]) -> Vec<Response>,
    single: impl Fn(&A) -> Response + Sync,
) {
    if args.is_empty() {
        return;
    }
    let engine = if args.len() >= batch_min_k as usize {
        Engine::Batched
    } else {
        Engine::Independent
    };
    let t = Instant::now();
    let answers: Vec<Response> = match engine {
        Engine::Batched => batch(args),
        Engine::Independent => {
            let mut out: Vec<Option<Response>> = vec![None; args.len()];
            let po = ParSlice::new(&mut out);
            // SAFETY: `parallel_for` hands each index in `0..args.len()`
            // to exactly one call, so every slot of `out` is written once
            // and never read until the loop has returned.
            parallel_for(args.len(), |j| unsafe {
                po.write(j, Some(single(&args[j])));
            });
            out.into_iter()
                .map(|r| r.expect("independent slot filled"))
                .collect()
        }
    };
    fam.ns[family] = t.elapsed().as_nanos() as u64;
    fam.counts[family] = args.len() as u32;
    fam.engine[family] = 1 + engine.index() as u8;
    for (ans, &i) in answers.into_iter().zip(idxs) {
        responses[i] = Some(ans);
    }
}

/// Answer a slice of requests against `forest`, grouping queries by
/// family into one fan-out each, and report per-family timings and
/// engines for the flight recorder. Family `f` runs batched when it has
/// at least `batch_min_k[f]` queries; production callers pass
/// [`BATCH_MIN_K`]. Update requests answer [`Response::Rejected`]: this
/// path is read-only.
pub(crate) fn answer_requests_timed(
    forest: &ServeForest,
    requests: &[&Request],
    batch_min_k: &[u32; 7],
) -> (Vec<Response>, FamilyTimings) {
    let mut fam = FamilyTimings::default();
    let mut responses: Vec<Option<Response>> = vec![None; requests.len()];

    let mut conn: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut repr: (Vec<u32>, Vec<usize>) = Default::default();
    let mut path: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut subtree: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut lca: (Vec<(u32, u32, u32)>, Vec<usize>) = Default::default();
    let mut bottleneck: (Vec<(u32, u32)>, Vec<usize>) = Default::default();
    let mut near: (Vec<u32>, Vec<usize>) = Default::default();

    for (i, req) in requests.iter().enumerate() {
        match req {
            Request::Connected { u, v } => {
                conn.0.push((*u, *v));
                conn.1.push(i);
            }
            Request::Representative { v } => {
                repr.0.push(*v);
                repr.1.push(i);
            }
            Request::PathSum { u, v } => {
                path.0.push((*u, *v));
                path.1.push(i);
            }
            Request::SubtreeSum { v, parent } => {
                subtree.0.push((*v, *parent));
                subtree.1.push(i);
            }
            Request::Lca { u, v, r } => {
                lca.0.push((*u, *v, *r));
                lca.1.push(i);
            }
            Request::Bottleneck { u, v } => {
                bottleneck.0.push((*u, *v));
                bottleneck.1.push(i);
            }
            Request::NearestMarked { v } => {
                near.0.push(*v);
                near.1.push(i);
            }
            Request::Cpt { terminals } => {
                // CPT extraction has no single-query form — it is one
                // structured computation per request, always "batched".
                let t = Instant::now();
                let cpt = forest.compressed_path_tree(terminals);
                fam.ns[7] += t.elapsed().as_nanos() as u64;
                fam.counts[7] += 1;
                fam.engine[7] = 1 + Engine::Batched.index() as u8;
                responses[i] = Some(Response::Cpt(CptResult {
                    vertices: cpt.vertices,
                    edges: cpt.edges,
                }));
            }
            _ => responses[i] = Some(Response::Rejected),
        }
    }

    run_family(
        &mut fam,
        &mut responses,
        0,
        &conn.0,
        &conn.1,
        batch_min_k[0],
        |args| {
            forest
                .batch_connected(args)
                .into_iter()
                .map(Response::Bool)
                .collect()
        },
        |&(u, v)| Response::Bool(forest.connected(u, v)),
    );
    run_family(
        &mut fam,
        &mut responses,
        1,
        &repr.0,
        &repr.1,
        batch_min_k[1],
        |args| {
            forest
                .batch_find_representatives(args)
                .into_iter()
                .map(|ans| Response::Vertex((ans != NO_VERTEX).then_some(ans)))
                .collect()
        },
        |&v| Response::Vertex(forest.in_range(v).then(|| forest.find_representative(v))),
    );
    run_family(
        &mut fam,
        &mut responses,
        2,
        &path.0,
        &path.1,
        batch_min_k[2],
        |args| {
            forest
                .batch_path_aggregate(args)
                .into_iter()
                .map(|ans| Response::Sum(ans.map(|p| p.sum)))
                .collect()
        },
        |&(u, v)| Response::Sum(forest.path_aggregate(u, v).map(|p| p.sum)),
    );
    run_family(
        &mut fam,
        &mut responses,
        3,
        &subtree.0,
        &subtree.1,
        batch_min_k[3],
        |args| {
            forest
                .batch_subtree_aggregate(args)
                .into_iter()
                .map(Response::Sum)
                .collect()
        },
        |&(v, parent)| Response::Sum(forest.subtree_aggregate(v, parent)),
    );
    run_family(
        &mut fam,
        &mut responses,
        4,
        &lca.0,
        &lca.1,
        batch_min_k[4],
        |args| {
            forest
                .batch_lca(args)
                .into_iter()
                .map(Response::Vertex)
                .collect()
        },
        |&(u, v, r)| Response::Vertex(forest.lca(u, v, r)),
    );
    run_family(
        &mut fam,
        &mut responses,
        5,
        &bottleneck.0,
        &bottleneck.1,
        batch_min_k[5],
        |args| {
            forest
                .batch_path_extrema(args)
                .into_iter()
                .map(Response::Extrema)
                .collect()
        },
        // The single walk combines the full PathSummary monoid exactly
        // (min/max over a total order is evaluation-order independent),
        // with the same None / u==v identity contract as the CPT solver.
        |&(u, v)| Response::Extrema(forest.path_aggregate(u, v)),
    );
    run_family(
        &mut fam,
        &mut responses,
        6,
        &near.0,
        &near.1,
        batch_min_k[6],
        |args| {
            forest
                .batch_nearest_marked(args)
                .into_iter()
                .map(Response::Near)
                .collect()
        },
        |&v| Response::Near(forest.nearest_marked(v)),
    );

    (
        responses
            .into_iter()
            .map(|r| r.expect("every query family answered"))
            .collect(),
        fam,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rc_core::{BuildOptions, ForestState};
    use rc_parlay::rng::SplitMix64;

    /// Queries per family: above `rc_parlay::SEQ_THRESHOLD`, so the
    /// independent engine's `parallel_for` splits across pool threads.
    const K: usize = 2_500;

    #[test]
    fn engines_answer_identically_above_the_sequential_cutoff() {
        let n = 3_000u32;
        let mut rng = SplitMix64::new(0xE4EC);
        // Heap-shaped trees (degree ≤ 3), split into five components.
        let edges: Vec<(u32, u32, u64)> = (1..n)
            .filter(|v| v % 700 != 0)
            .map(|v| ((v - 1) / 2, v, 1 + rng.next_below(100)))
            .collect();
        let mut state = ForestState::from_edges(n as usize, &edges);
        state.marks = (0..n).step_by(97).collect();
        let forest = state
            .build_std_forest(BuildOptions::default())
            .expect("heap forest is valid");

        // Ids reach 64 past the last vertex, so some are out of range.
        let mut vertex = || rng.next_below(n as u64 + 64) as u32;
        let mut requests = Vec::with_capacity(7 * K + 2);
        for i in 0..K {
            let (u, v, r) = (vertex(), vertex(), vertex());
            // Every other subtree query names a tree edge (v, parent);
            // the rest are random, mostly non-adjacent, pairs.
            let child = 1 + u % (n - 1);
            let (sv, sp) = if i % 2 == 0 {
                (child, (child - 1) / 2)
            } else {
                (v, r)
            };
            requests.extend([
                Request::Connected { u, v },
                Request::Representative { v: u },
                Request::PathSum { u, v },
                Request::SubtreeSum { v: sv, parent: sp },
                Request::Lca { u, v, r },
                Request::Bottleneck { u: v, v: r },
                Request::NearestMarked { v: r },
            ]);
        }
        requests.push(Request::Cpt {
            terminals: vec![1, 40, 900, 2_999],
        });
        requests.push(Request::Cut { u: 0, v: 1 });
        let refs: Vec<&Request> = requests.iter().collect();

        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("4-thread pool");
        let (batched, fb) = pool.install(|| answer_requests_timed(&forest, &refs, &[0; 7]));
        let (independent, fi) =
            pool.install(|| answer_requests_timed(&forest, &refs, &[u32::MAX; 7]));
        for f in 0..7 {
            assert_eq!(fb.counts[f] as usize, K);
            assert_eq!(fb.engine[f], 1 + Engine::Batched.index() as u8);
            assert_eq!(fi.engine[f], 1 + Engine::Independent.index() as u8);
        }
        assert_eq!(batched, independent);
        // The inputs reach both sides of the `None` contract.
        for expected in [Response::Vertex(None), Response::Near(None)] {
            assert!(batched.contains(&expected), "no {expected:?} answer");
        }
        assert_eq!(batched.last(), Some(&Response::Rejected));
        let subtree: Vec<&Response> = batched[..7 * K].iter().skip(3).step_by(7).collect();
        assert!(subtree.contains(&&Response::Sum(None)));
        assert!(subtree.iter().any(|r| matches!(r, Response::Sum(Some(_)))));
    }
}
