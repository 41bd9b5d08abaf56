//! The batch-parallel RC forest: storage and shared contraction machinery.
//!
//! Layout follows §5.1 of the paper, translated from pointers to index
//! arenas: every vertex owns one *vertex cluster* slot and one *history*
//! (a vector of [`LevelRecord`]s — the linked-list-of-levels of Fig. 3
//! becomes a per-vertex `Vec` indexed by contraction round). Base edge
//! clusters live in a free-list arena that stores their endpoints, weight
//! and parent; an edge cluster's aggregate is computed from its endpoints
//! and weight when read, not stored.

use crate::aggregate::ClusterAggregate;
use crate::types::*;
use rc_parlay::inline::InlineVec;
use std::borrow::Cow;

/// How the contraction rounds choose their independent sets.
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub enum ContractionMode {
    /// Leaves always rake; degree-2 vertices compress when their
    /// pseudo-random priority is a strict local maximum (§2.2 / Miller–Reif
    /// style). Decisions are pure functions of the 1-hop level state, so
    /// batch updates reproduce a fresh build bit-for-bit.
    #[default]
    Randomized,
    /// Deterministic chain-coloring MIS (§5.10): Cole–Vishkin
    /// first-differing-bit colors + greedy selection by color. Static
    /// builds only are canonical; updates fall back to the randomized rule
    /// for re-decided regions (the structure stays valid).
    Deterministic,
}

/// Build-time options.
#[derive(Copy, Clone, Debug)]
pub struct BuildOptions {
    /// Seed for all pseudo-random decisions (reproducible).
    pub seed: u64,
    /// Independent-set selection rule.
    pub mode: ContractionMode,
}

impl Default for BuildOptions {
    fn default() -> Self {
        BuildOptions {
            seed: 0x5EED_C0DE,
            mode: ContractionMode::Randomized,
        }
    }
}

/// An internal (vertex) cluster: the cluster created when its
/// representative vertex contracted (§2.2: representatives and clusters
/// are in one-to-one correspondence).
#[derive(Clone, Debug)]
pub struct VertexCluster<A> {
    /// Unary (rake), Binary (compress), or Nullary (finalize).
    pub kind: ClusterKind,
    /// Contraction round of the representative.
    pub round: u32,
    /// The cluster this one merged into (`NONE` for component roots).
    pub parent: ClusterId,
    /// Boundary vertices in sorted order (`NO_VERTEX` padding).
    pub boundary: [Vertex; 2],
    /// Binary children aligned with `boundary`: `bin_children[i]`'s cluster
    /// path runs `boundary[i] .. v`. Unary clusters use slot 0 only.
    pub bin_children: [ClusterId; 2],
    /// Unary children (clusters that raked onto the representative).
    pub rake_children: InlineVec<ClusterId, MAX_DEGREE>,
    /// Augmented value.
    pub agg: A,
}

impl<A: ClusterAggregate> VertexCluster<A> {
    pub(crate) fn invalid(agg: A) -> Self {
        VertexCluster {
            kind: ClusterKind::Invalid,
            round: 0,
            parent: ClusterId::NONE,
            boundary: [NO_VERTEX; 2],
            bin_children: [ClusterId::NONE; 2],
            rake_children: InlineVec::new(),
            agg,
        }
    }

    /// Number of boundary vertices (0, 1, or 2).
    pub fn num_boundaries(&self) -> usize {
        self.boundary.iter().filter(|&&b| b != NO_VERTEX).count()
    }

    /// Iterate over all children (binary first, then rake).
    pub fn children(&self) -> impl Iterator<Item = ClusterId> + '_ {
        self.bin_children
            .iter()
            .copied()
            .filter(|c| !c.is_none())
            .chain(self.rake_children.iter())
    }
}

/// Free-list arena of base edge clusters: endpoints, weight and parent
/// per slot. The aggregate of edge cluster `e` is not stored;
/// [`RcForest::agg_of`] computes it as `A::base_edge(u, v, &weight)`.
#[derive(Clone, Debug)]
pub struct EdgeArena<A: ClusterAggregate> {
    pub(crate) ep: Vec<(Vertex, Vertex)>,
    pub(crate) weight: Vec<A::EdgeWeight>,
    pub(crate) parent: Vec<ClusterId>,
    pub(crate) alive: Vec<bool>,
    pub(crate) free: Vec<u32>,
    pub(crate) num_alive: usize,
}

impl<A: ClusterAggregate> EdgeArena<A> {
    pub(crate) fn new() -> Self {
        EdgeArena {
            ep: Vec::new(),
            weight: Vec::new(),
            parent: Vec::new(),
            alive: Vec::new(),
            free: Vec::new(),
            num_alive: 0,
        }
    }

    /// Allocate a base cluster for edge `{u, v}` (stored sorted).
    pub(crate) fn alloc(&mut self, u: Vertex, v: Vertex, w: A::EdgeWeight) -> u32 {
        let (u, v) = if u <= v { (u, v) } else { (v, u) };
        self.num_alive += 1;
        if let Some(idx) = self.free.pop() {
            let i = idx as usize;
            self.ep[i] = (u, v);
            self.weight[i] = w;
            self.parent[i] = ClusterId::NONE;
            self.alive[i] = true;
            idx
        } else {
            let idx = self.ep.len() as u32;
            self.ep.push((u, v));
            self.weight.push(w);
            self.parent.push(ClusterId::NONE);
            self.alive.push(true);
            idx
        }
    }

    pub(crate) fn release(&mut self, idx: u32) {
        debug_assert!(self.alive[idx as usize]);
        self.alive[idx as usize] = false;
        self.parent[idx as usize] = ClusterId::NONE;
        self.num_alive -= 1;
        self.free.push(idx);
    }

    /// Number of live edges.
    pub fn len(&self) -> usize {
        self.num_alive
    }

    /// True when the forest has no edges.
    #[allow(dead_code)]
    pub fn is_empty(&self) -> bool {
        self.num_alive == 0
    }
}

/// A batch-parallel dynamic forest over at most `n` vertices of degree ≤ 3,
/// maintained as an RC (rake–compress) tree with augmented values `A`.
///
/// Supports batch edge insertions/deletions in `O(k log(1 + n/k))` expected
/// work and the batch queries of the paper. For arbitrary-degree forests
/// wrap it in `rc_ternary::TernaryForest`.
///
/// ```
/// use rc_core::{RcForest, SumAgg, BuildOptions};
/// let f = RcForest::<SumAgg<i64>>::build_edges(
///     4, &[(0, 1, 10), (1, 2, 20), (2, 3, 30)], BuildOptions::default()).unwrap();
/// assert_eq!(f.path_aggregate(0, 3), Some(60));
/// ```
pub struct RcForest<A: ClusterAggregate> {
    pub(crate) n: usize,
    pub(crate) opts: BuildOptions,
    /// `histories[v][level]` — the state of `v` at each round it was live.
    pub(crate) histories: Vec<Vec<LevelRecord>>,
    /// `clusters[v]` — the cluster represented by `v`.
    pub(crate) clusters: Vec<VertexCluster<A>>,
    pub(crate) vertex_weights: Vec<A::VertexWeight>,
    pub(crate) edges: EdgeArena<A>,
    /// Total number of contraction rounds (max round + 1).
    pub(crate) levels: u32,
    /// Claim stamps of change propagation and the value pass:
    /// `stamps[v] == e` means `v` was claimed under epoch `e`. Only
    /// `&mut self` paths stamp, and epochs are never reused, so the array
    /// needs no atomics and is never cleared.
    pub(crate) stamps: Vec<u64>,
    /// Last stamp epoch handed out.
    pub(crate) stamp_epoch: u64,
    /// Monotone modification counter; see [`RcForest::version`].
    pub(crate) version: u64,
    /// Pooled arenas for the marked-subtree query engine
    /// (`queries::engine`), so steady-state batch queries reuse buffers.
    pub(crate) scratch: crate::queries::engine::ScratchPool,
}

impl<A: ClusterAggregate> RcForest<A> {
    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of (live) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of contraction rounds of the current clustering.
    pub fn num_levels(&self) -> u32 {
        self.levels
    }

    /// The build options in effect.
    pub fn options(&self) -> BuildOptions {
        self.opts
    }

    /// Cheap monotone version stamp: starts at 0 on build and increments
    /// once per mutating operation (batch link/cut/update, weight
    /// updates). Service layers use it to tag epochs and detect staleness
    /// without hashing any structure.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Record one mutation. Called by every mutating entry point.
    #[inline]
    pub(crate) fn bump_version(&mut self) {
        self.version += 1;
    }

    /// The contraction round at which `v` contracted.
    #[inline]
    pub fn contraction_round(&self, v: Vertex) -> u32 {
        (self.histories[v as usize].len() - 1) as u32
    }

    /// The record of `v` at `level` (must be live there).
    #[inline]
    pub(crate) fn record(&self, v: Vertex, level: u32) -> &LevelRecord {
        &self.histories[v as usize][level as usize]
    }

    /// The cluster represented by `v`.
    #[inline]
    pub fn cluster(&self, v: Vertex) -> &VertexCluster<A> {
        &self.clusters[v as usize]
    }

    /// Augmented value of any cluster: a vertex cluster's stored
    /// aggregate, borrowed, or for a base edge cluster
    /// `A::base_edge(u, v, &weight)`, computed on each call and returned
    /// owned.
    #[inline]
    pub fn agg_of(&self, c: ClusterId) -> Cow<'_, A> {
        if c.is_vertex() {
            Cow::Borrowed(&self.clusters[c.as_vertex() as usize].agg)
        } else {
            let e = c.as_edge() as usize;
            let (u, v) = self.edges.ep[e];
            Cow::Owned(A::base_edge(u, v, &self.edges.weight[e]))
        }
    }

    /// Parent of any cluster (`NONE` for component roots).
    #[inline]
    pub fn parent_of(&self, c: ClusterId) -> ClusterId {
        if c.is_vertex() {
            self.clusters[c.as_vertex() as usize].parent
        } else {
            self.edges.parent[c.as_edge() as usize]
        }
    }

    /// Boundary vertices of any cluster, sorted, `NO_VERTEX`-padded.
    pub fn boundaries_of(&self, c: ClusterId) -> [Vertex; 2] {
        if c.is_vertex() {
            self.clusters[c.as_vertex() as usize].boundary
        } else {
            let (u, v) = self.edges.ep[c.as_edge() as usize];
            [u, v]
        }
    }

    /// Current vertex weight.
    pub fn vertex_weight(&self, v: Vertex) -> &A::VertexWeight {
        &self.vertex_weights[v as usize]
    }

    /// Weight of edge `{u, v}` if present.
    pub fn edge_weight(&self, u: Vertex, v: Vertex) -> Option<&A::EdgeWeight> {
        let e = self.find_base_edge(u, v)?;
        Some(&self.edges.weight[e as usize])
    }

    /// Does the forest currently contain edge `{u, v}`?
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.find_base_edge(u, v).is_some()
    }

    /// Current degree of `v`.
    pub fn degree(&self, v: Vertex) -> usize {
        self.histories[v as usize][0].degree()
    }

    /// Neighbors of `v` in the current forest.
    pub fn neighbors(&self, v: Vertex) -> impl Iterator<Item = Vertex> + '_ {
        self.histories[v as usize][0].live().map(|e| e.nbr)
    }

    /// Locate the base cluster of edge `{u, v}` by scanning the (≤ 3)
    /// level-0 slots of `u`.
    pub(crate) fn find_base_edge(&self, u: Vertex, v: Vertex) -> Option<u32> {
        if u as usize >= self.n || v as usize >= self.n {
            return None;
        }
        self.histories[u as usize][0]
            .live()
            .find(|e| e.nbr == v)
            .map(|e| e.cluster.as_edge())
    }

    /// All live edges as `(u, v, weight)` with `u < v`.
    pub fn edge_list(&self) -> Vec<(Vertex, Vertex, A::EdgeWeight)> {
        (0..self.edges.ep.len())
            .filter(|&i| self.edges.alive[i])
            .map(|i| {
                let (u, v) = self.edges.ep[i];
                (u, v, self.edges.weight[i].clone())
            })
            .collect()
    }

    /// Build the final cluster data for `v` contracting at `level` with
    /// `event`, from its level record. Returns the assembled cluster
    /// (caller stores it and fixes children's parent pointers).
    pub(crate) fn make_cluster(&self, v: Vertex, level: u32, event: Event) -> VertexCluster<A> {
        let rec = self.record(v, level);
        let vw = &self.vertex_weights[v as usize];

        // Collect rake-children aggregates (≤ 3) without heap allocation.
        // Rake children are always vertex clusters.
        let mut rake_children: InlineVec<ClusterId, MAX_DEGREE> = InlineVec::new();
        let mut rake_refs: [std::mem::MaybeUninit<&A>; MAX_DEGREE] =
            [std::mem::MaybeUninit::uninit(); MAX_DEGREE];
        let mut nrakes = 0usize;
        for e in rec.rakes() {
            rake_children.push(e.cluster);
            rake_refs[nrakes].write(&self.clusters[e.cluster.as_vertex() as usize].agg);
            nrakes += 1;
        }
        // SAFETY: the first `nrakes` elements were just initialized.
        let rakes: &[&A] =
            unsafe { std::slice::from_raw_parts(rake_refs.as_ptr() as *const &A, nrakes) };

        match event {
            Event::Rake => {
                let e = rec.sole_neighbor();
                let agg = A::rake(v, vw, e.nbr, &self.agg_of(e.cluster), rakes);
                VertexCluster {
                    kind: ClusterKind::Unary,
                    round: level,
                    parent: ClusterId::NONE,
                    boundary: [e.nbr, NO_VERTEX],
                    bin_children: [e.cluster, ClusterId::NONE],
                    rake_children,
                    agg,
                }
            }
            Event::Compress => {
                let mut it = rec.live();
                let ea = it.next().expect("degree 2");
                let eb = it.next().expect("degree 2");
                debug_assert!(it.next().is_none());
                debug_assert!(ea.nbr < eb.nbr, "records are sorted");
                let agg = A::compress(
                    v,
                    vw,
                    ea.nbr,
                    &self.agg_of(ea.cluster),
                    eb.nbr,
                    &self.agg_of(eb.cluster),
                    rakes,
                );
                VertexCluster {
                    kind: ClusterKind::Binary,
                    round: level,
                    parent: ClusterId::NONE,
                    boundary: [ea.nbr, eb.nbr],
                    bin_children: [ea.cluster, eb.cluster],
                    rake_children,
                    agg,
                }
            }
            Event::Finalize => {
                let agg = A::finalize(v, vw, rakes);
                VertexCluster {
                    kind: ClusterKind::Nullary,
                    round: level,
                    parent: ClusterId::NONE,
                    boundary: [NO_VERTEX; 2],
                    bin_children: [ClusterId::NONE; 2],
                    rake_children,
                    agg,
                }
            }
            Event::Live => unreachable!("make_cluster on a live vertex"),
        }
    }

    /// Recompute only the aggregate of an existing cluster from its
    /// children (used by the value-propagation pass).
    pub(crate) fn recompute_agg(&self, v: Vertex) -> A {
        let c = &self.clusters[v as usize];
        let vw = &self.vertex_weights[v as usize];
        let mut rake_refs: [std::mem::MaybeUninit<&A>; MAX_DEGREE] =
            [std::mem::MaybeUninit::uninit(); MAX_DEGREE];
        let mut nrakes = 0usize;
        for rc in c.rake_children.iter() {
            rake_refs[nrakes].write(&self.clusters[rc.as_vertex() as usize].agg);
            nrakes += 1;
        }
        // SAFETY: first `nrakes` initialized above.
        let rakes: &[&A] =
            unsafe { std::slice::from_raw_parts(rake_refs.as_ptr() as *const &A, nrakes) };
        match c.kind {
            ClusterKind::Unary => {
                A::rake(v, vw, c.boundary[0], &self.agg_of(c.bin_children[0]), rakes)
            }
            ClusterKind::Binary => A::compress(
                v,
                vw,
                c.boundary[0],
                &self.agg_of(c.bin_children[0]),
                c.boundary[1],
                &self.agg_of(c.bin_children[1]),
                rakes,
            ),
            ClusterKind::Nullary => A::finalize(v, vw, rakes),
            ClusterKind::Invalid => unreachable!("recompute_agg on invalid cluster"),
        }
    }

    /// Compute the successor record of live vertex `v` from level `level`
    /// to `level + 1`, given each neighbor's event at `level` (via
    /// `event_of`).
    pub(crate) fn successor_record(
        &self,
        v: Vertex,
        level: u32,
        event_of: &impl Fn(Vertex) -> Event,
    ) -> LevelRecord {
        let rec = self.record(v, level);
        let mut out = LevelRecord::default();
        for e in rec.adj.iter() {
            if e.raked {
                out.insert_sorted(e);
                continue;
            }
            let u = e.nbr;
            match event_of(u) {
                Event::Live => out.insert_sorted(e),
                Event::Rake => {
                    // u (a leaf) raked onto v; its unary cluster hangs here.
                    out.insert_sorted(AdjEntry {
                        nbr: u,
                        cluster: ClusterId::vertex(u),
                        raked: true,
                    });
                }
                Event::Compress => {
                    // u compressed; this slot now holds the binary cluster
                    // C_u reaching u's other live neighbor.
                    let urec = self.record(u, level);
                    let far = urec
                        .live()
                        .map(|x| x.nbr)
                        .find(|&x| x != v)
                        .expect("compressed neighbor has another live neighbor");
                    out.insert_sorted(AdjEntry {
                        nbr: far,
                        cluster: ClusterId::vertex(u),
                        raked: false,
                    });
                }
                Event::Finalize => {
                    unreachable!("a finalizing vertex has no live neighbors")
                }
            }
        }
        out
    }

    /// Set the parent of every child of `cluster` to `Cv(v)`.
    ///
    /// # Safety-relevant invariant (callers)
    /// Each cluster is the child of exactly one contraction event, so
    /// parallel contractions write disjoint parent fields.
    pub(crate) fn assign_parents_seq(&mut self, v: Vertex) {
        let me = ClusterId::vertex(v);
        let cluster = &self.clusters[v as usize];
        let kids: Vec<ClusterId> = cluster.children().collect();
        for k in kids {
            if k.is_vertex() {
                self.clusters[k.as_vertex() as usize].parent = me;
            } else {
                self.edges.parent[k.as_edge() as usize] = me;
            }
        }
    }
}

impl<A: ClusterAggregate> Clone for RcForest<A> {
    fn clone(&self) -> Self {
        RcForest {
            n: self.n,
            opts: self.opts,
            histories: self.histories.clone(),
            clusters: self.clusters.clone(),
            vertex_weights: self.vertex_weights.clone(),
            edges: self.edges.clone(),
            levels: self.levels,
            stamps: self.stamps.clone(),
            stamp_epoch: self.stamp_epoch,
            version: self.version,
            scratch: Default::default(),
        }
    }
}

impl<A: ClusterAggregate> std::fmt::Debug for RcForest<A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RcForest(n={}, edges={}, levels={})",
            self.n,
            self.edges.len(),
            self.levels
        )
    }
}
