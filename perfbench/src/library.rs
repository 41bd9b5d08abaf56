//! The library workloads: `RcForest<StdAgg>` driven through
//! `DynamicForest`, one round at a time. A round cuts `k` edges, links
//! the same edges back with their weights, then answers `k` queries of
//! each of six families. `lib-single` makes one call per edge or query;
//! `lib-bulk` makes one batch call per update kind and per family.

use crate::inputs::{self, Answer, Family, QuerySet, RoundSet, FAMILIES};
use crate::json::Json;
use crate::spans::{at_zero_steal, median, Slices, Span, Spans};
use crate::{Args, Outcome};
use rc_core::{BuildOptions, DynamicForest};
use rc_lct::LctForest;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Edges toggled and queries per family in one `lib-single` round.
pub const SINGLE_K: usize = 64;
/// Batch size of `lib-bulk`.
pub const BULK_K: usize = 4096;
/// Answers per family kept from the first and last rounds for the
/// oracle check.
const SAMPLE: usize = 64;
/// Timed rounds run even when `--seconds` is shorter.
const MIN_ROUNDS: usize = 5;

const CUT: &str = "core.cut";
const LINK: &str = "core.link";
/// Span names of the query calls, in `FAMILIES` order.
const QUERY: [&str; 6] = [
    "core.connected",
    "core.path_sum",
    "core.path_extrema",
    "core.lca",
    "core.subtree_sum",
    "core.nearest_marked",
];

pub fn run(args: &Args, k: usize, single: bool) -> Outcome {
    let mut out = Outcome {
        record: vec![
            ("k", k.into()),
            ("calls", Json::str(if single { "single" } else { "batch" })),
        ],
        ..Outcome::default()
    };
    let state = inputs::initial_state(args.seed);
    let sets = inputs::round_sets(args.seed, k);
    let mut spans = Spans::new(Instant::now());

    // Set-up is the build from the edge list.
    let build = |spans: &mut Spans| {
        spans.time("core.build", 0, state.edges.len(), || {
            state
                .build_std_forest(BuildOptions::default())
                .expect("generated forest is valid")
        })
    };
    let mut f = build(&mut spans);
    let levels = f.num_levels();

    let mut failed = 0u64;
    // One untimed round lets the query engine's scratch pools fill.
    round(
        &mut f,
        &sets[0],
        single,
        &mut Spans::new(Instant::now()),
        &mut failed,
    );
    let pool0 = rayon::pool_metrics();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut rounds = 0;
    let mut slices = Slices::start();
    // The slice each round ran in.
    let mut slice_of = Vec::new();
    let mut first = None;
    let mut last = None;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let set = rounds % sets.len();
        slice_of.push(slices.current());
        let answers = round(&mut f, &sets[set], single, &mut spans, &mut failed);
        slices.tick();
        if first.is_none() {
            first = Some((set, answers));
        } else {
            last = Some((set, answers));
        }
        rounds += 1;
    }
    if slice_of.last() == Some(&slices.current()) {
        slices.close();
    }
    let pool1 = rayon::pool_metrics();
    out.attempted = (rounds as u64 + 1) * 8 * k as u64;
    out.failed = failed;

    // End-to-end figures: each round's time in a span kind (the median
    // when the round has several) against the steal rate of the slice the
    // round ran in, read at zero steal.
    let steal_rates = slices.steal_rates();
    let x: Vec<f64> = slice_of.iter().map(|&s| steal_rates[s]).collect();
    let round_index: HashMap<u32, usize> = (1..=spans.spans.len() as u32)
        .filter(|&id| spans.spans[id as usize - 1].name == "round")
        .enumerate()
        .map(|(r, id)| (id, r))
        .collect();
    out.record.push(("timed_rounds", rounds.into()));
    out.record.push(("steal_slices", steal_rates.len().into()));
    let secs = |name: &str| {
        let mut per_round = vec![Vec::new(); rounds];
        for (i, s) in spans.spans.iter().enumerate() {
            if s.name == name {
                if let Some(&r) = round_index.get(&round_of(&spans.spans, i as u32 + 1)) {
                    per_round[r].push(s.ns() as f64 / 1e9);
                }
            }
        }
        let y: Vec<f64> = per_round.iter().map(|v| median(v)).collect();
        at_zero_steal(&x, &y)
    };
    // Call latencies cluster by kind (a lib-bulk round makes one call of
    // each), so one median over all calls lands between clusters; the p50
    // is the mean over kinds of each kind's median call latency.
    let p50_ms =
        |names: &[&str]| names.iter().map(|&n| secs(n)).sum::<f64>() / names.len() as f64 * 1e3;
    out.metric("update_per_s", (2 * k) as f64 / secs("round.update"));
    out.metric("query_per_s", (6 * k) as f64 / secs("round.query"));
    out.metric("ops_per_s", (8 * k) as f64 / secs("round"));
    out.metric("update_p50_ms", p50_ms(&[CUT, LINK]));
    out.metric("query_p50_ms", p50_ms(&QUERY));

    let restored = f.export_state() == state;
    out.check(
        "state_restored",
        restored,
        "export_state after the last round equals the initial state",
    );
    drop(f);
    let (agree, detail) = oracle_check(&state, &sets, single, [first, last]);
    out.check("lct_oracle", agree, detail);
    out.check(
        "no_failures",
        failed == 0,
        format!("{failed} library errors"),
    );
    out.metric("peak_rss_mb", crate::peak_rss_mb());

    // Two more builds only for timing; setup_s is the median of three, so
    // one slow build does not move it. They come after the peak is read:
    // how much of a dropped forest's memory the next build reuses varies
    // from run to run.
    for _ in 0..2 {
        drop(build(&mut spans));
    }
    let setup_s: Vec<f64> = spans
        .named("core.build")
        .map(|s| s.ns() as f64 / 1e9)
        .collect();
    out.metric("setup_s", median(&setup_s));

    if args.trace {
        let per_item_us = |name: &str| {
            let v: Vec<f64> = spans
                .named(name)
                .map(|s| s.ns() as f64 / s.items.max(1) as f64 / 1e3)
                .collect();
            median(&v)
        };
        out.layer("core.build_ms", median(&setup_s) * 1e3);
        for name in [CUT, LINK].into_iter().chain(QUERY) {
            out.layer(&format!("{name}_us"), per_item_us(name));
        }
        out.layer("core.levels", levels as f64);
        let per_round = |a: u64, b: u64| (b - a) as f64 / rounds as f64;
        out.layer(
            "pool.jobs",
            per_round(pool0.jobs_published, pool1.jobs_published),
        );
        out.layer(
            "pool.chunks",
            per_round(pool0.chunks_claimed, pool1.chunks_claimed),
        );
        out.layer(
            "pool.steals",
            per_round(pool0.join_tasks_stolen, pool1.join_tasks_stolen),
        );
        out.layer("pool.parks", per_round(pool0.parks, pool1.parks));
        let coverage = call_coverage(&spans.spans);
        out.layer("core.call_coverage", coverage);
        out.check(
            "layers_reconcile",
            (coverage - 1.0).abs() <= 0.1,
            format!(
                "per-call medians of a round sum to {:.1}% of the round median (must be within 10%)",
                coverage * 100.0
            ),
        );
        out.spans = Some(spans);
    }
    out
}

/// One round on `f`; returns the first `SAMPLE` answers of each family.
fn round<F: DynamicForest>(
    f: &mut F,
    set: &RoundSet,
    single: bool,
    spans: &mut Spans,
    failed: &mut u64,
) -> Vec<Vec<Answer>> {
    let k = set.cuts.len();
    let round = spans.open("round", 0);
    let update = spans.open("round.update", round);
    if single {
        for &(u, v) in &set.cuts {
            if spans.time(CUT, update, 1, || f.cut(u, v)).is_err() {
                *failed += 1;
            }
        }
        for &(u, v, w) in &set.links {
            if spans.time(LINK, update, 1, || f.link(u, v, w)).is_err() {
                *failed += 1;
            }
        }
    } else {
        if spans
            .time(CUT, update, k, || f.batch_cut(&set.cuts))
            .is_err()
        {
            *failed += k as u64;
        }
        if spans
            .time(LINK, update, k, || f.batch_link(&set.links))
            .is_err()
        {
            *failed += k as u64;
        }
    }
    spans.close(update, 2 * k as u32);
    let query = spans.open("round.query", round);
    let answers = FAMILIES
        .iter()
        .map(|&family| answer(f, family, &set.queries, single, spans, query))
        .collect();
    spans.close(query, 6 * k as u32);
    spans.close(round, 8 * k as u32);
    answers
}

/// Answer `family`'s queries in `qs`, one call each or in one batch call;
/// returns the first `SAMPLE` answers.
fn answer<F: DynamicForest>(
    f: &mut F,
    family: Family,
    qs: &QuerySet,
    single: bool,
    spans: &mut Spans,
    parent: u32,
) -> Vec<Answer> {
    let name = QUERY[family as usize];
    let mut c = Calls {
        f,
        spans,
        name,
        parent,
        single,
    };
    match family {
        Family::Connected => c.run(
            &qs.connected,
            |f, &(u, v)| f.connected(u, v),
            |f, q| f.batch_connected(q),
            Answer::Bool,
        ),
        Family::PathSum => c.run(
            &qs.path_sum,
            |f, &(u, v)| f.path_sum(u, v),
            |f, q| f.batch_path_sum(q),
            Answer::Sum,
        ),
        Family::PathExtrema => c.run(
            &qs.path_extrema,
            |f, &(u, v)| f.path_extrema(u, v),
            |f, q| f.batch_path_extrema(q),
            Answer::Extrema,
        ),
        Family::Lca => c.run(
            &qs.lca,
            |f, &(u, v, r)| f.lca(u, v, r),
            |f, q| f.batch_lca(q),
            Answer::Vertex,
        ),
        Family::SubtreeSum => c.run(
            &qs.subtree_sum,
            |f, &(v, p)| f.subtree_sum(v, p),
            |f, q| f.batch_subtree_sum(q),
            Answer::Sum,
        ),
        Family::NearestMarked => c.run(
            &qs.nearest_marked,
            |f, &v| f.nearest_marked(v),
            |f, q| f.batch_nearest_marked(q),
            Answer::Near,
        ),
    }
}

/// The calls of one family in one round, each timed as a span.
struct Calls<'a, F> {
    f: &'a mut F,
    spans: &'a mut Spans,
    name: &'static str,
    parent: u32,
    single: bool,
}

impl<F> Calls<'_, F> {
    fn run<Q, T>(
        &mut self,
        qs: &[Q],
        one: fn(&mut F, &Q) -> T,
        batch: fn(&mut F, &[Q]) -> Vec<T>,
        wrap: fn(T) -> Answer,
    ) -> Vec<Answer> {
        let (f, spans) = (&mut *self.f, &mut *self.spans);
        if self.single {
            let mut kept = Vec::with_capacity(SAMPLE);
            for (i, q) in qs.iter().enumerate() {
                let a = black_box(spans.time(self.name, self.parent, 1, || one(f, q)));
                if i < SAMPLE {
                    kept.push(wrap(a));
                }
            }
            kept
        } else {
            let all = black_box(spans.time(self.name, self.parent, qs.len(), || batch(f, qs)));
            all.into_iter().take(SAMPLE).map(wrap).collect()
        }
    }
}

/// Compare the sampled answers of the first and last timed rounds with
/// a link-cut forest holding the same edges and marks. Every round ends
/// with the initial edge set, so each round's queries see that forest.
fn oracle_check(
    state: &rc_core::ForestState,
    sets: &[RoundSet],
    single: bool,
    rounds: [Option<(usize, Vec<Vec<Answer>>)>; 2],
) -> (bool, String) {
    let mut lct = LctForest::new(state.n);
    if let Err(e) = lct.import_state(state) {
        return (
            false,
            format!("link-cut oracle rejected the initial state: {e:?}"),
        );
    }
    let mut compared = 0;
    for (set, got) in rounds.into_iter().flatten() {
        let qs = sets[set].queries.prefix(SAMPLE);
        for (i, &family) in FAMILIES.iter().enumerate() {
            let mut scratch = Spans::new(Instant::now());
            let want = answer(&mut lct, family, &qs, true, &mut scratch, 0);
            if got[i] != want {
                let at = got[i].iter().zip(&want).position(|(a, b)| a != b);
                return (
                    false,
                    format!("{family:?} answers differ from the link-cut oracle (single={single}, first at {at:?})"),
                );
            }
            compared += want.len();
        }
    }
    (
        true,
        format!("{compared} sampled answers equal the link-cut oracle's"),
    )
}

/// The id of the round span enclosing span `id` (0 for none).
fn round_of(spans: &[Span], mut id: u32) -> u32 {
    while id != 0 {
        let s = &spans[id as usize - 1];
        if s.name == "round" {
            return id;
        }
        id = s.parent;
    }
    0
}

/// Sum over call kinds of the median per-round time spent in that kind,
/// divided by the median round time: how much of a round the spans
/// around calls into `core` account for.
fn call_coverage(spans: &[Span]) -> f64 {
    let kinds: Vec<&str> = [CUT, LINK].into_iter().chain(QUERY).collect();
    // Round id -> time per kind. Calls sit under a phase span whose
    // parent is the round.
    let mut per_round: HashMap<u32, Vec<u64>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.name == "round" {
            per_round.insert(i as u32 + 1, vec![0; kinds.len()]);
        }
    }
    for s in spans {
        let Some(kind) = kinds.iter().position(|&k| k == s.name) else {
            continue;
        };
        let round = spans[s.parent as usize - 1].parent;
        if let Some(t) = per_round.get_mut(&round) {
            t[kind] += s.ns();
        }
    }
    let layers: f64 = (0..kinds.len())
        .map(|kind| {
            let v: Vec<f64> = per_round.values().map(|t| t[kind] as f64).collect();
            median(&v)
        })
        .sum();
    let rounds: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "round")
        .map(|s| s.ns() as f64)
        .collect();
    layers / median(&rounds)
}
