//! The shared marked-subtree batch query engine.
//!
//! Every batch query in the paper (§3, §5.4–5.8) follows one skeleton:
//!
//! 1. collect the *start vertices* of the batch (dropping out-of-range
//!    ids — the per-query answer for those is uniformly `None`, see
//!    [`crate::queries`]);
//! 2. **mark** every RC-tree ancestor of the start vertices' clusters,
//!    claiming each node once in the sweep's own slot map so shared
//!    ancestor paths are walked once (§5.6); by Theorem A.2 the claimed
//!    set has `O(k log(1 + n/k))` nodes. Batches of at most
//!    `SEQ_THRESHOLD` starts claim sequentially, larger ones in parallel
//!    with a CAS per claim;
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
use std::sync::atomic::AtomicU32;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Mutex;

/// Slot-map value of a vertex claimed by a parallel walk but not yet
/// numbered. Vertex ids, and so slot indices, stay below `2^31`.
const CLAIMED: u32 = NONE_U32 - 1;

/// Reusable arenas backing one [`MarkedSweep`]: the compact marked-subtree
/// representation plus staging buffers. Pooled per forest; steady-state
/// batch queries allocate only when a batch outgrows every earlier one.
#[derive(Default)]
pub(crate) struct QueryScratch {
    /// Representative vertices of the marked clusters (compact slots).
    nodes: Vec<Vertex>,
    /// Vertex → compact slot; length `n`, `NONE_U32` when unmarked. The
    /// sweep's only claim on a vertex. Atomic so parallel walks can CAS;
    /// a `Relaxed` load or store is a plain move. Cleared sparsely (via
    /// `nodes`) when the sweep is released.
    slot_of: Vec<AtomicU32>,
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
    /// `starts` (duplicates welcome — a repeated start stops at its own
    /// claim) and return the engine handle over the marked subtree.
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

    /// Step 2: claim ancestor paths in the sweep's own slot map, collecting
    /// the claimed representatives into `scratch.nodes`. A walk stops at
    /// the first vertex already claimed, whose claimant walks on from it.
    fn mark_ancestors(&self, scratch: &mut QueryScratch) {
        // The slot map is allocated once per forest and cleared sparsely.
        if scratch.slot_of.len() < self.n {
            scratch
                .slot_of
                .resize_with(self.n, || AtomicU32::new(NONE_U32));
        }
        let QueryScratch {
            starts,
            nodes,
            slot_of,
            ..
        } = scratch;
        nodes.clear();
        if starts.len() <= SEQ_THRESHOLD {
            // Common case: claim and number in one pass, no allocation.
            for &s in starts.iter() {
                let mut v = s;
                while slot_of[v as usize].load(Relaxed) == NONE_U32 {
                    slot_of[v as usize].store(nodes.len() as u32, Relaxed);
                    nodes.push(v);
                    let p = self.clusters[v as usize].parent;
                    if p.is_none() {
                        break;
                    }
                    v = p.as_vertex();
                }
            }
        } else {
            // Walks race for shared ancestors, so a claim is a CAS to
            // `CLAIMED`, tried only after a load sees the vertex free: most
            // walks end at a claimed ancestor, and a failed CAS still takes
            // its cache line exclusively. Slots are numbered after the
            // join, which publishes every claim to this thread.
            let slot_of = &*slot_of;
            *nodes = parallel_collect(starts.len(), |i, acc| {
                let mut v = starts[i];
                while slot_of[v as usize].load(Relaxed) == NONE_U32
                    && slot_of[v as usize]
                        .compare_exchange(NONE_U32, CLAIMED, Relaxed, Relaxed)
                        .is_ok()
                {
                    acc.push(v);
                    let p = self.clusters[v as usize].parent;
                    if p.is_none() {
                        break;
                    }
                    v = p.as_vertex();
                }
            });
            for (i, &v) in nodes.iter().enumerate() {
                slot_of[v as usize].store(i as u32, Relaxed);
            }
        }
    }

    /// Step 3 prep: build the parents and CSR round buckets over the
    /// marked nodes.
    fn index_marked(&self, scratch: &mut QueryScratch) {
        let len = scratch.nodes.len();
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
                    .push(scratch.slot_of[c.parent.as_vertex() as usize].load(Relaxed));
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
        let s = self.scratch.slot_of.get(v as usize)?.load(Relaxed);
        (s != NONE_U32).then_some(s)
    }

    /// Compact slot of `v`'s cluster. Panics when unmarked — every vertex
    /// passed as a start, and every boundary vertex of a marked cluster,
    /// is marked; use [`MarkedSweep::try_slot`] for vertices that may not
    /// be.
    #[inline]
    pub fn slot(&self, v: Vertex) -> u32 {
        let s = self.scratch.slot_of[v as usize].load(Relaxed);
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
            *scratch.slot_of[v as usize].get_mut() = NONE_U32;
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
    use rc_parlay::rng::SplitMix64;
    use rc_parlay::SEQ_THRESHOLD;
    use std::sync::{Arc, Barrier};

    fn path_forest(n: u32) -> RcForest<SumAgg<i64>> {
        let edges: Vec<(u32, u32, i64)> = (0..n - 1).map(|i| (i, i + 1, 1)).collect();
        RcForest::build_edges(n as usize, &edges, BuildOptions::default()).unwrap()
    }

    /// Heap-shaped forest (`i`'s parent is `(i - 1) / 2`, so degree ≤ 3)
    /// without the edges above multiples of 1000: a few components.
    fn heap_forest(n: u32) -> RcForest<SumAgg<i64>> {
        let edges: Vec<(u32, u32, i64)> = (1..n)
            .filter(|i| i % 1000 != 0)
            .map(|i| ((i - 1) / 2, i, (i % 7) as i64 + 1))
            .collect();
        RcForest::build_edges(n as usize, &edges, BuildOptions::default()).unwrap()
    }

    fn four_thread_pool() -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .expect("4-thread pool")
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
        fn check(f: &RcForest<SumAgg<i64>>, starts: &[u32]) {
            let sweep = f.marked_sweep(starts.iter().copied());
            assert!(!sweep.is_empty());
            let mut reps = std::collections::HashSet::new();
            for s in 0..sweep.len() as u32 {
                let v = sweep.rep(s);
                assert!(reps.insert(v), "rep {v} appears twice");
                assert_eq!(sweep.slot(v), s);
                let up = f.cluster(v).parent;
                if let Some(p) = sweep.parent(s) {
                    assert!(sweep.round(p) > sweep.round(s), "parents contract later");
                    assert_eq!(sweep.rep(p), up.as_vertex());
                } else {
                    assert!(up.is_none(), "slot {s} lost its parent");
                }
            }
            for &v in starts.iter().filter(|&&v| f.in_range(v)) {
                assert!(sweep.try_slot(v).is_some(), "start {v} unmarked");
            }
        }
        check(&path_forest(64), &[0, 13, 40, 63]);
        // Above `SEQ_THRESHOLD` in-range starts, walks claim in parallel
        // and slots are numbered after the join.
        let heap = heap_forest(6000);
        let mut starts: Vec<u32> = (0..3000).map(|i| i * 7 % 6000).collect();
        starts.extend(0..3000);
        starts.extend([6000, 9999, u32::MAX]);
        assert!(starts.len() > SEQ_THRESHOLD + 3);
        four_thread_pool().install(|| check(&heap, &starts));
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
        // A parallel-branch sweep (duplicate and out-of-range starts past
        // `SEQ_THRESHOLD`) leaves its pooled scratch to the small ones.
        let big = (0..3000u32).map(|i| i % 32).chain([32, u32::MAX]);
        four_thread_pool().install(|| assert_eq!(f.marked_sweep(big).len(), 32));
        for round in 0..10 {
            let sweep = f.marked_sweep([round as u32, 31 - round as u32]);
            // Stale slots from earlier rounds must not leak through.
            let mut slotted = 0;
            for v in 0..32u32 {
                if let Some(s) = sweep.try_slot(v) {
                    assert_eq!(sweep.rep(s), v, "round {round}: stale slot for {v}");
                    slotted += 1;
                }
            }
            assert_eq!(slotted, sweep.len(), "round {round}: stale slots");
        }
    }

    #[test]
    fn concurrent_sweeps_stay_consistent() {
        // Many threads run overlapping batch queries against one forest;
        // each sweep claims in its own pooled scratch, so no sweep may see
        // another's claims. The path cases stay at or below
        // `SEQ_THRESHOLD` starts (sequential claims), the heap cases go
        // above it (CAS claims, racing when the pool has several threads).
        let f = Arc::new(path_forest(128));
        let mut handles: Vec<_> = (0..8u32)
            .map(|t| {
                let f = Arc::clone(&f);
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
        let heap = Arc::new(heap_forest(6000));
        let barrier = Arc::new(Barrier::new(4));
        handles.extend((0..4u64).map(|t| {
            let (f, barrier) = (Arc::clone(&heap), Arc::clone(&barrier));
            std::thread::spawn(move || {
                let mut rng = SplitMix64::new(t);
                // Start together; equal rounds keep the sweeps overlapping.
                barrier.wait();
                for round in 0..6 {
                    let pairs: Vec<(u32, u32)> = (0..2500)
                        .map(|_| (rng.next_below(6000) as u32, rng.next_below(6000) as u32))
                        .collect();
                    let sums = f.batch_path_aggregate(&pairs);
                    let conn = f.batch_connected(&pairs);
                    for (i, &(u, v)) in pairs.iter().enumerate() {
                        let at = format!("thread {t} round {round} ({u},{v})");
                        assert_eq!(sums[i], f.path_aggregate(u, v), "{at}");
                        assert_eq!(conn[i], f.connected(u, v), "{at}");
                    }
                }
            })
        }));
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
