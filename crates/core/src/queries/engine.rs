//! The shared marked-subtree batch query engine.
//!
//! Every batch query in the paper (§3, §5.4–5.8) follows one skeleton:
//!
//! 1. collect the *start vertices* of the batch (dropping out-of-range
//!    ids — the per-query answer for those is uniformly `None`, see
//!    [`crate::queries`]);
//! 2. **mark** every RC-tree ancestor of the start vertices' clusters,
//!    atomically claiming each node so shared ancestor paths are walked
//!    once (§5.6); by Theorem A.2 the claimed set has `O(k log(1 + n/k))`
//!    nodes;
//! 3. run a **top-down** (or bottom-up) computation over the marked
//!    subtree, bucketed by contraction round;
//! 4. assemble per-query answers from the per-cluster values.
//!
//! [`MarkedSweep`] owns steps 1–3 behind a visitor interface, so a query
//! family is just a visitor plus an assembly step — and future query kinds
//! (diameter, centroid, heavy-path decompositions) are small visitors
//! instead of new modules of scaffolding. The compact subtree storage
//! (slot map, parent and round per slot, CSR round buckets) lives in a
//! `QueryScratch` checked out of a per-forest pool, so steady-state batch
//! queries reuse the same arenas instead of re-allocating per call.
//! Kernels keep their own per-call state in flat arrays indexed by slot;
//! each batch call makes exactly one sweep.

use crate::aggregate::ClusterAggregate;
use crate::forest::RcForest;
use crate::types::{Vertex, NO_VERTEX};
use rc_parlay::slice::ParSlice;
use rc_parlay::{adaptive_grain, parallel_collect, parallel_for_grain, NONE_U32, SEQ_THRESHOLD};
use std::sync::Mutex;

/// Reusable arenas backing one [`MarkedSweep`]: the compact marked-subtree
/// representation plus staging buffers. Pooled per forest; steady-state
/// batch queries allocate only when a batch outgrows every earlier one.
#[derive(Default)]
pub(crate) struct QueryScratch {
    /// Representative vertices of the marked clusters (compact slots).
    nodes: Vec<Vertex>,
    /// Vertex → compact slot; length `n`, `NONE_U32` when unmarked.
    /// Cleared sparsely (via `nodes`) when the sweep is released.
    slot_of: Vec<u32>,
    /// Compact parent slot (`NONE_U32` for roots).
    parent: Vec<u32>,
    /// Contraction round per slot.
    round: Vec<u32>,
    /// CSR round buckets: round `r`'s slots are
    /// `bucket_dat[bucket_off[r]..bucket_off[r + 1]]`.
    bucket_off: Vec<u32>,
    bucket_dat: Vec<u32>,
    /// Start-vertex staging buffer.
    starts: Vec<Vertex>,
    /// Scatter-cursor staging buffer for the bucket build.
    cursor: Vec<u32>,
}

/// Per-forest pool of [`QueryScratch`] arenas. Concurrent queries each
/// check one out; the pool retains at most [`ScratchPool::MAX_POOLED`]
/// arenas (each holds an `O(n)` slot map), so a transient burst of
/// concurrent queries cannot pin unbounded memory for the forest's
/// lifetime — arenas past the cap are simply dropped on release.
#[derive(Default)]
pub(crate) struct ScratchPool {
    pool: Mutex<Vec<QueryScratch>>,
}

impl ScratchPool {
    /// Upper bound on retained arenas: steady-state query concurrency is
    /// bounded by the machine's parallelism.
    const MAX_POOLED: usize = 16;

    fn take(&self) -> QueryScratch {
        self.pool
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop()
            .unwrap_or_default()
    }

    fn put(&self, scratch: QueryScratch) {
        // Resolved once: `available_parallelism` re-reads cgroup files per
        // call, which would tax every sweep release on hot query paths.
        static CAP: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let cap = *CAP.get_or_init(|| {
            Self::MAX_POOLED
                .min(std::thread::available_parallelism().map_or(Self::MAX_POOLED, |p| p.get()))
        });
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        if pool.len() < cap {
            pool.push(scratch);
        }
    }
}

impl<A: ClusterAggregate> RcForest<A> {
    /// Is `v` a valid vertex id of this forest? Batch queries answer
    /// `None` for entries naming out-of-range vertices.
    #[inline]
    pub fn in_range(&self, v: Vertex) -> bool {
        (v as usize) < self.n
    }

    /// Mark the RC-tree ancestors of every in-range vertex yielded by
    /// `starts` (duplicates welcome — they dedup against the atomic
    /// claims) and return the engine handle over the marked subtree.
    ///
    /// `O(k log(1 + n/k))` expected work for `k` starts, `O(log n)` span.
    pub fn marked_sweep<I>(&self, starts: I) -> MarkedSweep<'_, A>
    where
        I: IntoIterator<Item = Vertex>,
    {
        let mut scratch = self.scratch.take();
        scratch.starts.clear();
        scratch
            .starts
            .extend(starts.into_iter().filter(|&v| self.in_range(v)));
        self.mark_ancestors(&mut scratch);
        self.index_marked(&mut scratch);
        MarkedSweep {
            forest: self,
            scratch,
        }
    }

    /// Step 2: claim ancestor paths, collecting claimed representatives
    /// into `scratch.nodes`.
    fn mark_ancestors(&self, scratch: &mut QueryScratch) {
        let epoch = self.marks.new_epochs(1);
        let starts = &scratch.starts;
        scratch.nodes.clear();
        let walk = |start: Vertex, acc: &mut Vec<Vertex>| {
            let mut v = start;
            loop {
                if !self.marks.claim(v, epoch) {
                    break; // another start owns this ancestor path
                }
                acc.push(v);
                let p = self.clusters[v as usize].parent;
                if p.is_none() {
                    break;
                }
                v = p.as_vertex();
            }
        };
        if starts.len() <= SEQ_THRESHOLD {
            // Common case: walk into the pooled buffer, no allocation.
            let (starts, nodes) = (&scratch.starts, &mut scratch.nodes);
            for &s in starts {
                walk(s, nodes);
            }
        } else {
            let mut collected = parallel_collect(starts.len(), |i, acc| walk(starts[i], acc));
            scratch.nodes.append(&mut collected);
        }
    }

    /// Step 3 prep: build the compact slot map, parents and CSR round
    /// buckets over the marked nodes.
    fn index_marked(&self, scratch: &mut QueryScratch) {
        // The slot map is allocated once per forest and cleared sparsely.
        if scratch.slot_of.len() < self.n {
            scratch.slot_of.resize(self.n, NONE_U32);
        }
        // Defensive dedup: two sweeps running concurrently on one forest
        // can each re-claim a vertex the other just stamped (the epoch CAS
        // only rejects the *own* epoch), leaving duplicate path fragments
        // in `nodes`. The marked set is still a superset of the true one,
        // so dropping repeats restores a consistent subtree. Slots are
        // assigned in the same pass.
        let len = {
            let (nodes, slot_of) = (&mut scratch.nodes, &mut scratch.slot_of);
            let mut len = 0;
            for i in 0..nodes.len() {
                let v = nodes[i];
                if slot_of[v as usize] == NONE_U32 {
                    slot_of[v as usize] = len as u32;
                    nodes[len] = v;
                    len += 1;
                }
            }
            nodes.truncate(len);
            len
        };
        scratch.parent.clear();
        scratch.round.clear();
        let mut max_round = 0;
        for &v in scratch.nodes.iter() {
            let c = &self.clusters[v as usize];
            scratch.round.push(c.round);
            max_round = max_round.max(c.round);
            if c.parent.is_none() {
                scratch.parent.push(NONE_U32);
            } else {
                scratch
                    .parent
                    .push(scratch.slot_of[c.parent.as_vertex() as usize]);
            }
        }
        // CSR round buckets.
        let nrounds = if len == 0 { 0 } else { max_round as usize + 1 };
        scratch.bucket_off.clear();
        scratch.bucket_off.resize(nrounds + 1, 0);
        for &r in &scratch.round {
            scratch.bucket_off[r as usize + 1] += 1;
        }
        for r in 0..nrounds {
            scratch.bucket_off[r + 1] += scratch.bucket_off[r];
        }
        scratch.bucket_dat.clear();
        scratch.bucket_dat.resize(len, 0);
        {
            let QueryScratch {
                cursor,
                bucket_off,
                bucket_dat,
                round,
                ..
            } = scratch;
            cursor.clear();
            cursor.extend_from_slice(&bucket_off[..nrounds]);
            for (i, &r) in round.iter().enumerate() {
                let at = cursor[r as usize];
                bucket_dat[at as usize] = i as u32;
                cursor[r as usize] += 1;
            }
        }
    }
}

/// A marked subtree of the RC forest, ready to run visitor passes — the
/// engine handle shared by every batch query family.
///
/// Obtained from [`RcForest::marked_sweep`]; holds pooled scratch arenas
/// that return to the forest's pool on drop.
pub struct MarkedSweep<'f, A: ClusterAggregate> {
    forest: &'f RcForest<A>,
    scratch: QueryScratch,
}

impl<'f, A: ClusterAggregate> MarkedSweep<'f, A> {
    /// Number of marked clusters.
    pub fn len(&self) -> usize {
        self.scratch.nodes.len()
    }

    /// True when no in-range start vertices were provided.
    pub fn is_empty(&self) -> bool {
        self.scratch.nodes.is_empty()
    }

    /// Representative vertex of the cluster at `slot`.
    #[inline]
    pub fn rep(&self, slot: u32) -> Vertex {
        self.scratch.nodes[slot as usize]
    }

    /// Compact slot of `v`'s cluster, `None` when `v` is out of range or
    /// its cluster is unmarked.
    #[inline]
    pub fn try_slot(&self, v: Vertex) -> Option<u32> {
        let s = *self.scratch.slot_of.get(v as usize)?;
        (s != NONE_U32).then_some(s)
    }

    /// Compact slot of `v`'s cluster. Panics when unmarked — every vertex
    /// passed as a start, and every boundary vertex of a marked cluster,
    /// is marked; use [`MarkedSweep::try_slot`] for vertices that may not
    /// be.
    #[inline]
    pub fn slot(&self, v: Vertex) -> u32 {
        let s = self.scratch.slot_of[v as usize];
        assert_ne!(s, NONE_U32, "vertex {v} is not marked");
        s
    }

    /// Parent slot (`None` for component roots).
    #[inline]
    pub fn parent(&self, slot: u32) -> Option<u32> {
        let p = self.scratch.parent[slot as usize];
        (p != NONE_U32).then_some(p)
    }

    /// Contraction round of the cluster at `slot`.
    #[inline]
    pub fn round(&self, slot: u32) -> u32 {
        self.scratch.round[slot as usize]
    }

    /// Slots of round `r` (ascending rounds = bottom-up order).
    fn bucket(&self, r: usize) -> &[u32] {
        let lo = self.scratch.bucket_off[r] as usize;
        let hi = self.scratch.bucket_off[r + 1] as usize;
        &self.scratch.bucket_dat[lo..hi]
    }

    fn num_rounds(&self) -> usize {
        self.scratch.bucket_off.len().saturating_sub(1)
    }

    /// Top-down visitor pass: every slot's value is computed from the
    /// values of strictly-later-round slots (its parent and boundary
    /// clusters), processed root rounds first. Rounds with many clusters
    /// run in parallel. Returns the per-slot values.
    ///
    /// The visitor receives the slot and a [`SweepVals`] view of the
    /// values computed so far; reading a slot whose round is not strictly
    /// later than the current one panics (that value would be a data
    /// race).
    pub fn top_down<T, F>(&self, init: T, visit: F) -> Vec<T>
    where
        T: Clone + Send + Sync,
        F: Fn(u32, &SweepVals<'_, '_, T>) -> T + Sync,
    {
        let mut vals = vec![init; self.len()];
        {
            let pv = ParSlice::new(&mut vals);
            for r in (0..self.num_rounds()).rev() {
                let bucket = self.bucket(r);
                let view = SweepVals {
                    vals: &pv,
                    round: &self.scratch.round,
                    min_round: r as u32,
                };
                // Small batches take a sequential fast path through the
                // adaptive grain: for bucket sizes at or below
                // `SEQ_THRESHOLD` (always the case when the whole marked
                // set is — the tiny-k `rc_batched` rounds of the fig11b
                // sweep), the grain equals the bucket length and
                // `parallel_for_grain` runs the loop inline with no pool
                // dispatch.
                parallel_for_grain(bucket.len(), adaptive_grain(bucket.len()), |i| {
                    let s = bucket[i];
                    let v = visit(s, &view);
                    // SAFETY: slot `s` belongs to round `r` and is written
                    // by exactly one iteration; the view only reads rounds
                    // > `r`.
                    unsafe { pv.write(s as usize, v) };
                });
            }
        }
        vals
    }

    /// Bottom-up visitor pass: every slot's value is computed from
    /// strictly-earlier-round slots (its children), leaf rounds first.
    /// Sequential — bottom-up consumers (compressed path trees) thread
    /// mutable state through the visitor.
    pub fn bottom_up<T, F>(&self, init: T, mut visit: F) -> Vec<T>
    where
        T: Clone,
        F: FnMut(u32, &[T]) -> T,
    {
        let mut vals = vec![init; self.len()];
        for r in 0..self.num_rounds() {
            let lo = self.scratch.bucket_off[r] as usize;
            let hi = self.scratch.bucket_off[r + 1] as usize;
            for i in lo..hi {
                let s = self.scratch.bucket_dat[i];
                let v = visit(s, &vals);
                vals[s as usize] = v;
            }
        }
        vals
    }

    /// Top-down `root_boundary` orientation: for each marked cluster, the
    /// boundary vertex on the path to its component root (`NO_VERTEX` for
    /// root clusters). This is the orientation oracle shared by batch LCA,
    /// batch path sums and the Fig. 8 query family (supplementary A.6).
    pub fn root_boundary(&self) -> Vec<Vertex> {
        self.top_down(NO_VERTEX, |s, vals| match self.parent(s) {
            None => NO_VERTEX,
            Some(ps) => {
                let q = *vals.get(ps);
                let c = self.forest.cluster(self.rep(s));
                if q != NO_VERTEX && (c.boundary[0] == q || c.boundary[1] == q) {
                    q
                } else {
                    self.rep(ps)
                }
            }
        })
    }

    /// Top-down component-root labels: for each marked cluster, the
    /// representative vertex of its component's root cluster.
    pub fn root_labels(&self) -> Vec<Vertex> {
        self.top_down(NO_VERTEX, |s, vals| match self.parent(s) {
            None => self.rep(s),
            Some(ps) => *vals.get(ps),
        })
    }
}

impl<A: ClusterAggregate> Drop for MarkedSweep<'_, A> {
    fn drop(&mut self) {
        let mut scratch = std::mem::take(&mut self.scratch);
        // Sparse clear: only the marked entries of the slot map.
        for &v in &scratch.nodes {
            scratch.slot_of[v as usize] = NONE_U32;
        }
        scratch.nodes.clear();
        self.forest.scratch.put(scratch);
    }
}

/// Read view over the values of a running [`MarkedSweep::top_down`] pass.
pub struct SweepVals<'a, 'v, T> {
    vals: &'a ParSlice<'v, T>,
    round: &'a [u32],
    min_round: u32,
}

impl<T: Send + Sync> SweepVals<'_, '_, T> {
    /// Value of `slot`, which must belong to a strictly later contraction
    /// round than the slots currently being visited (parents and boundary
    /// clusters always do). Panics otherwise — such a read would race.
    #[inline]
    pub fn get(&self, slot: u32) -> &T {
        assert!(
            self.round[slot as usize] > self.min_round,
            "top_down visitor may only read strictly-later-round slots"
        );
        // SAFETY: later-round slots were finalized in earlier iterations
        // of the pass and are no longer written.
        unsafe { &*self.vals.get_mut(slot as usize) }
    }
}

#[cfg(test)]
mod tests {
    use super::MarkedSweep;
    use crate::aggregate::ClusterAggregate;
    use crate::aggregates::SumAgg;
    use crate::forest::{BuildOptions, RcForest};
    use crate::types::NO_VERTEX;

    fn path_forest(n: u32) -> RcForest<SumAgg<i64>> {
        let edges: Vec<(u32, u32, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        RcForest::build_edges(n as usize, &edges, BuildOptions::default()).unwrap()
    }

    /// Child lists and root slots rebuilt from `parent()`.
    fn children_and_roots<A: ClusterAggregate>(
        sweep: &MarkedSweep<'_, A>,
    ) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut children = vec![Vec::new(); sweep.len()];
        let mut roots = Vec::new();
        for s in 0..sweep.len() as u32 {
            match sweep.parent(s) {
                Some(p) => children[p as usize].push(s),
                None => roots.push(s),
            }
        }
        (children, roots)
    }

    #[test]
    fn sweep_structure_is_consistent() {
        let f = path_forest(64);
        let sweep = f.marked_sweep([0u32, 13, 40, 63]);
        assert!(!sweep.is_empty());
        let (children, roots) = children_and_roots(&sweep);
        for s in 0..sweep.len() as u32 {
            if let Some(p) = sweep.parent(s) {
                assert!(sweep.round(p) > sweep.round(s), "parents contract later");
                assert!(children[p as usize].contains(&s));
            } else {
                assert!(roots.contains(&s));
            }
            assert_eq!(sweep.slot(sweep.rep(s)), s);
        }
    }

    #[test]
    fn sweep_filters_out_of_range_starts() {
        let f = path_forest(8);
        let sweep = f.marked_sweep([2u32, 900, u32::MAX]);
        assert!(!sweep.is_empty());
        assert_eq!(sweep.try_slot(900), None);
        assert!(sweep.try_slot(2).is_some());
    }

    #[test]
    fn empty_sweep() {
        let f = path_forest(4);
        let sweep = f.marked_sweep(std::iter::empty());
        assert!(sweep.is_empty());
        assert!(children_and_roots(&sweep).1.is_empty());
        assert!(sweep.top_down(0u32, |_, _| unreachable!()).is_empty());
    }

    #[test]
    fn root_labels_constant_per_component() {
        // Two components: 0-1-2 and 3-4.
        let edges = vec![(0u32, 1u32, 1i64), (1, 2, 1), (3, 4, 1)];
        let f = RcForest::<SumAgg<i64>>::build_edges(5, &edges, BuildOptions::default()).unwrap();
        let sweep = f.marked_sweep([0u32, 2, 3, 4]);
        let labels = sweep.root_labels();
        let l0 = labels[sweep.slot(0) as usize];
        assert_eq!(labels[sweep.slot(2) as usize], l0);
        let l3 = labels[sweep.slot(3) as usize];
        assert_eq!(labels[sweep.slot(4) as usize], l3);
        assert_ne!(l0, l3);
        assert_ne!(l0, NO_VERTEX);
    }

    #[test]
    fn scratch_is_pooled_and_cleared() {
        let f = path_forest(32);
        for round in 0..10 {
            let sweep = f.marked_sweep([round as u32, 31 - round as u32]);
            // Stale slots from earlier rounds must not leak through.
            for v in 0..32u32 {
                if let Some(s) = sweep.try_slot(v) {
                    assert_eq!(sweep.rep(s), v, "round {round}: stale slot for {v}");
                }
            }
        }
    }

    #[test]
    fn index_marked_dedups_double_claimed_paths() {
        // Simulate the concurrent-sweep race: when two sweeps interleave,
        // a walk can re-claim vertices another sweep just stamped, leaving
        // duplicate path fragments in `nodes`. The indexer must drop them.
        let f = path_forest(16);
        let mut scratch = super::QueryScratch::default();
        scratch.starts.extend([0u32, 5, 11]);
        f.mark_ancestors(&mut scratch);
        let clean_len = scratch.nodes.len();
        let dup = scratch.nodes.clone();
        scratch.nodes.extend(dup);
        f.index_marked(&mut scratch);
        let sweep = super::MarkedSweep {
            forest: &f,
            scratch,
        };
        assert_eq!(sweep.len(), clean_len, "duplicates dropped");
        let (children, _) = children_and_roots(&sweep);
        let mut seen = std::collections::HashSet::new();
        for s in 0..sweep.len() as u32 {
            assert!(seen.insert(sweep.rep(s)), "rep {} duplicated", sweep.rep(s));
            assert_eq!(sweep.slot(sweep.rep(s)), s);
            if let Some(p) = sweep.parent(s) {
                assert_eq!(
                    children[p as usize].iter().filter(|&&c| c == s).count(),
                    1,
                    "child listed once"
                );
            }
        }
    }

    #[test]
    fn concurrent_sweeps_stay_consistent() {
        // Probabilistic exercise of the double-claim race: many threads run
        // overlapping multi-start batch queries against one forest.
        let f = std::sync::Arc::new(path_forest(128));
        let handles: Vec<_> = (0..8u32)
            .map(|t| {
                let f = std::sync::Arc::clone(&f);
                std::thread::spawn(move || {
                    for i in 0..300u32 {
                        let a = (t * 17 + i) % 128;
                        let b = (i * 31 + 5) % 128;
                        let got = f.batch_path_aggregate(&[(a, b), (b, a)]);
                        let want = Some((a as i64 - b as i64).abs());
                        assert_eq!(got, vec![want, want], "thread {t} iter {i} ({a},{b})");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn top_down_depth_matches_parent_walk() {
        let f = path_forest(100);
        let sweep = f.marked_sweep(0..100u32);
        let depth = sweep.top_down(0u32, |s, vals| match sweep.parent(s) {
            None => 0,
            Some(p) => *vals.get(p) + 1,
        });
        for s in 0..sweep.len() as u32 {
            let mut d = 0;
            let mut cur = s;
            while let Some(p) = sweep.parent(cur) {
                d += 1;
                cur = p;
            }
            assert_eq!(depth[s as usize], d, "slot {s}");
        }
    }

    #[test]
    fn bottom_up_counts_subtree_sizes() {
        let f = path_forest(50);
        let sweep = f.marked_sweep(0..50u32);
        let (children, roots) = children_and_roots(&sweep);
        let sizes = sweep.bottom_up(0u32, |s, vals| {
            1 + children[s as usize]
                .iter()
                .map(|&c| vals[c as usize])
                .sum::<u32>()
        });
        let total: u32 = roots.iter().map(|&r| sizes[r as usize]).sum();
        assert_eq!(total as usize, sweep.len());
    }
}
