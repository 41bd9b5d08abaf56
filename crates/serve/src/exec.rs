//! Read-only query execution with adaptive per-family dispatch.
//!
//! The epoch worker runs each epoch's query phase through this module,
//! right after the epoch's updates commit, and replication followers
//! answer reads against their replica through [`answer_read_only`].
//! Everything here takes the forest by shared reference: the RC forest's
//! batch query entry points are `&self` (scratch comes from an internal
//! pool), so the independent engine can fan single queries out across
//! the pool over one forest.
//!
//! Each family's fan-out can run on one of three engines over the same
//! forest state (the paper's fig. 11 regimes — see
//! [`rc_obs::CostModel`]):
//!
//! - **batched** — one batch call per family (shared marked-subtree
//!   sweep; wins 2–8x at large k),
//! - **independent** — one parallel task per query, each an independent
//!   `&self` walk (wins at small k, where the sweep setup dominates),
//! - **sequential** — a plain loop of single-query walks (wins at tiny
//!   k, where even task spawning costs more than the queries).
//!
//! The engines are answer-invariant by construction: the single-query
//! entry points share the batch paths' out-of-range/`None` contract and
//! exact aggregate semantics, so a [`Dispatcher`] may pick any engine
//! per family per epoch without changing any response (the
//! serializability oracle replays under every mode).

use crate::agg::ServeForest;
use crate::request::{CptResult, Request, Response};
use rc_core::NO_VERTEX;
use rc_obs::{CostModel, Decision, DispatchMode, Engine};
use rc_parlay::parallel_for;
use rc_parlay::slice::ParSlice;
use std::sync::Arc;
use std::time::Instant;

/// Per-family wall time, query counts, and dispatch decisions of one
/// query fan-out, indexed like [`rc_obs::FAMILY_NAMES`] (conn, repr,
/// path, subtree, lca, bottleneck, near, cpt).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct FamilyTimings {
    pub(crate) ns: [u64; 8],
    pub(crate) counts: [u32; 8],
    /// 0 = family did not run, else `1 + Engine::index()`.
    pub(crate) engine: [u8; 8],
    /// Cost-model prediction for the chosen engine, ns (0 = none).
    pub(crate) predicted_ns: [u64; 8],
    /// Bitmask of families whose engine choice was an exploration.
    pub(crate) explored: u8,
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

/// The per-epoch engine picker: a shared [`CostModel`] plus the
/// configured [`DispatchMode`]. The epoch worker consults it; the model
/// is shared (`Arc`) with the observability endpoint. Observations feed
/// the model in every mode, so even `AlwaysBatched` servers learn a
/// table they can export or persist.
#[derive(Debug)]
pub(crate) struct Dispatcher {
    pub(crate) model: Arc<CostModel>,
    pub(crate) mode: DispatchMode,
}

impl Dispatcher {
    pub(crate) fn new(model: Arc<CostModel>, mode: DispatchMode) -> Self {
        Dispatcher { model, mode }
    }

    /// Pick the engine for `k` queries of `family` and count the
    /// dispatch.
    fn decide(&self, family: usize, k: u32) -> Decision {
        let forced = match self.mode {
            DispatchMode::Adaptive => None,
            DispatchMode::AlwaysBatched => Some(Engine::Batched),
            DispatchMode::AlwaysIndependent => Some(Engine::Independent),
            DispatchMode::AlwaysSequential => Some(Engine::Sequential),
        };
        let d = match forced {
            None => self.model.choose(family, k),
            Some(engine) => Decision {
                engine,
                predicted_ns: self.model.predict(family, engine, k).unwrap_or(0),
                explored: false,
            },
        };
        self.model.note_dispatch(family, d.engine, k, d.explored);
        d
    }
}

/// Public read-only query fan-out over a caller-owned forest: the same
/// one-batch-call-per-family execution the coalescer uses, for callers
/// that hold a forest outside any server — replication followers answer
/// staleness-bounded reads against their replica through this. Update
/// requests answer [`Response::Rejected`].
pub fn answer_read_only(forest: &ServeForest, requests: &[Request]) -> Vec<Response> {
    let refs: Vec<&Request> = requests.iter().collect();
    answer_requests_timed(forest, &refs, None).0
}

/// Run one family's fan-out on the engine the dispatcher picks (batched
/// when there is no dispatcher), record its timing + decision in `fam`,
/// feed the observation back to the model, and scatter the answers into
/// their request slots.
#[allow(clippy::too_many_arguments)]
fn run_family<A: Sync>(
    fam: &mut FamilyTimings,
    responses: &mut [Option<Response>],
    family: usize,
    args: &[A],
    idxs: &[usize],
    dispatch: Option<&Dispatcher>,
    batch: impl FnOnce(&[A]) -> Vec<Response>,
    single: impl Fn(&A) -> Response + Sync,
) {
    if args.is_empty() {
        return;
    }
    let k = args.len() as u32;
    let decision = dispatch.map(|d| d.decide(family, k));
    let engine = decision.map_or(Engine::Batched, |d| d.engine);
    let t = Instant::now();
    let answers: Vec<Response> = match engine {
        Engine::Batched => batch(args),
        Engine::Independent => {
            let mut out: Vec<Option<Response>> = vec![None; args.len()];
            let po = ParSlice::new(&mut out);
            parallel_for(args.len(), |j| unsafe {
                po.write(j, Some(single(&args[j])));
            });
            out.into_iter()
                .map(|r| r.expect("independent slot filled"))
                .collect()
        }
        Engine::Sequential => args.iter().map(&single).collect(),
    };
    let ns = t.elapsed().as_nanos() as u64;
    fam.ns[family] = ns;
    fam.counts[family] = k;
    fam.engine[family] = 1 + engine.index() as u8;
    if let Some(d) = decision {
        fam.predicted_ns[family] = d.predicted_ns;
        if d.explored {
            fam.explored |= 1 << family;
        }
    }
    if let Some(d) = dispatch {
        d.model.observe(family, engine, k, ns);
    }
    for (ans, &i) in answers.into_iter().zip(idxs) {
        responses[i] = Some(ans);
    }
}

/// Answer a slice of requests against `forest`, grouping queries by
/// family into one fan-out each, and report per-family timings +
/// dispatch decisions for the flight recorder. With a [`Dispatcher`],
/// each family's fan-out routes to the engine the cost model picks;
/// without one, every family runs batched (follower reads). Update
/// requests answer [`Response::Rejected`]: this path is read-only.
pub(crate) fn answer_requests_timed(
    forest: &ServeForest,
    requests: &[&Request],
    dispatch: Option<&Dispatcher>,
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
        dispatch,
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
        dispatch,
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
        dispatch,
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
        dispatch,
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
        dispatch,
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
        dispatch,
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
        dispatch,
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
