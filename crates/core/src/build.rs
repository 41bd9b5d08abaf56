//! Static parallel tree contraction (§5.2).
//!
//! Round-synchronous: each round decides an independent set of eligible
//! vertices, contracts them in place (building their RC clusters and
//! aggregates), and writes the survivors' next-level records. Expected
//! `O(n)` work and space, `O(log² n)` span.

use crate::aggregate::ClusterAggregate;
use crate::decide::{decide_deterministic, decide_randomized};
use crate::forest::{BuildOptions, ContractionMode, EdgeArena, RcForest, VertexCluster};
use crate::types::*;
use rc_parlay::pack::pack_index;
use rc_parlay::slice::ParSlice;
use rc_parlay::{parallel_for, UnionFind, NONE_U32};

impl<A: ClusterAggregate> RcForest<A> {
    /// An empty forest of `n` isolated vertices with default weights.
    pub fn new(n: usize) -> Self {
        Self::build(
            n,
            vec![A::VertexWeight::default(); n],
            &[],
            BuildOptions::default(),
        )
        .expect("empty build cannot fail")
    }

    /// Build from an edge list with default vertex weights.
    pub fn build_edges(
        n: usize,
        edges: &[(Vertex, Vertex, A::EdgeWeight)],
        opts: BuildOptions,
    ) -> Result<Self, ForestError> {
        Self::build(n, vec![A::VertexWeight::default(); n], edges, opts)
    }

    /// Build an RC forest over `n` vertices from `edges` (§5.2).
    ///
    /// Validates the input: ids in range, no self loops, no duplicate
    /// edges, degree ≤ 3 (ternarize for more), and acyclicity.
    pub fn build(
        n: usize,
        vertex_weights: Vec<A::VertexWeight>,
        edges: &[(Vertex, Vertex, A::EdgeWeight)],
        opts: BuildOptions,
    ) -> Result<Self, ForestError> {
        assert_eq!(vertex_weights.len(), n);
        // ---- validation ----
        let mut uf = UnionFind::new(n);
        let mut deg = vec![0u8; n];
        for &(u, v, _) in edges {
            if u as usize >= n {
                return Err(ForestError::VertexOutOfRange { v: u, n });
            }
            if v as usize >= n {
                return Err(ForestError::VertexOutOfRange { v, n });
            }
            if u == v {
                return Err(ForestError::SelfLoop { v });
            }
            for x in [u, v] {
                deg[x as usize] += 1;
                if deg[x as usize] as usize > MAX_DEGREE {
                    return Err(ForestError::DegreeOverflow { v: x });
                }
            }
            if !uf.union(u, v) {
                return Err(ForestError::WouldCreateCycle { u, v });
            }
        }

        // ---- arena + level-0 records ----
        let mut forest = RcForest {
            n,
            opts,
            histories: vec![vec![LevelRecord::default()]; n],
            clusters: Vec::with_capacity(n),
            vertex_weights,
            edges: EdgeArena::new(),
            levels: 0,
            stamps: vec![0; n],
            stamp_epoch: 0,
            version: 0,
            scratch: Default::default(),
        };
        // Cluster slots start invalid; a throwaway aggregate fills them.
        let dummy = A::finalize(
            0,
            &forest.vertex_weights.first().cloned().unwrap_or_default(),
            &[],
        );
        forest.clusters = vec![VertexCluster::invalid(dummy); n];

        let mut seen = std::collections::HashSet::with_capacity(edges.len() * 2);
        for &(u, v, ref w) in edges {
            let key = rc_parlay::edge_key(u, v);
            if !seen.insert(key) {
                return Err(ForestError::DuplicateEdge { u, v });
            }
            let e = forest.edges.alloc(u, v, w.clone());
            forest.histories[u as usize][0].insert_sorted(AdjEntry {
                nbr: v,
                cluster: ClusterId::edge(e),
                raked: false,
            });
            forest.histories[v as usize][0].insert_sorted(AdjEntry {
                nbr: u,
                cluster: ClusterId::edge(e),
                raked: false,
            });
        }

        // ---- contraction rounds ----
        let live: Vec<Vertex> = (0..n as u32).collect();
        forest.contract_all(live, 0);
        Ok(forest)
    }

    /// Run contraction rounds to completion starting from `live` at
    /// `start_level`, assuming records at `start_level` are in place.
    pub(crate) fn contract_all(&mut self, mut live: Vec<Vertex>, start_level: u32) {
        let n = self.n;
        let mut events: Vec<Event> = vec![Event::Live; n];
        let mut next: Vec<LevelRecord> = vec![LevelRecord::default(); n];
        let mut level = start_level;

        while !live.is_empty() {
            // Phase B: decide this round's independent set.
            match self.opts.mode {
                ContractionMode::Randomized => {
                    let pe = ParSlice::new(&mut events);
                    let me: &RcForest<A> = self;
                    parallel_for(live.len(), |i| {
                        let v = live[i];
                        let ev = decide_randomized(me, v, level, &|_| None);
                        // SAFETY: slot v written by exactly one live entry.
                        unsafe { pe.write(v as usize, ev) };
                    });
                }
                ContractionMode::Deterministic => {
                    // Pre-fill with Live, then let the MIS mark selections.
                    let pe = ParSlice::new(&mut events);
                    parallel_for(live.len(), |i| unsafe {
                        pe.write(live[i] as usize, Event::Live)
                    });
                    decide_deterministic(self, &live, level, &mut events);
                }
            }

            // Phase C: contractors build clusters; survivors compute their
            // next-level records. All writes are per-vertex disjoint;
            // cross-reads only touch level `level` records and aggregates
            // of earlier rounds.
            {
                let me: &RcForest<A> = self;
                let built: Vec<(Vertex, VertexCluster<A>)> =
                    rc_parlay::parallel_collect(live.len(), |i, acc| {
                        let v = live[i];
                        let ev = events[v as usize];
                        if ev.contracts() {
                            acc.push((v, me.make_cluster(v, level, ev)));
                        }
                    });
                let pn = ParSlice::new(&mut next);
                parallel_for(live.len(), |i| {
                    let v = live[i];
                    if !events[v as usize].contracts() {
                        let rec = me.successor_record(v, level, &|u| events[u as usize]);
                        // SAFETY: slot v written once.
                        unsafe { pn.write(v as usize, rec) };
                    }
                });
                // Commit clusters and parent pointers (sequentialized per
                // cluster; each child has a unique consumer).
                let _ = pn; // end the ParSlice borrow before committing
                for (v, cluster) in built {
                    self.clusters[v as usize] = cluster;
                    self.assign_parents_seq(v);
                }
            }

            // Phase D: persist events and survivor records.
            {
                let ph = ParSlice::new(&mut self.histories);
                let events_ro: &[Event] = &events;
                let next_ro: &[LevelRecord] = &next;
                parallel_for(live.len(), |i| {
                    let v = live[i] as usize;
                    // SAFETY: each task touches only histories[v].
                    let h = unsafe { ph.get_mut(v) };
                    h[level as usize].event = events_ro[v];
                    if !events_ro[v].contracts() {
                        if h.len() > level as usize + 1 {
                            h[level as usize + 1] = next_ro[v];
                        } else {
                            h.push(next_ro[v]);
                        }
                    }
                });
            }

            // Survivors continue.
            let idx = pack_index(live.len(), |i| !events[live[i] as usize].contracts());
            live = rc_parlay::pack::map_index(&idx, |i| live[i as usize]);
            level += 1;
            debug_assert!(
                level < 64 + 4 * (usize::BITS - n.leading_zeros()) + 64,
                "contraction failed to make progress by level {level}"
            );
        }
        self.levels = self.levels.max(level);
        let _ = NONE_U32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregates::{CountAgg, SumAgg};

    fn path_edges(n: usize) -> Vec<(u32, u32, i64)> {
        (0..n - 1).map(|i| (i as u32, i as u32 + 1, 1i64)).collect()
    }

    #[test]
    fn build_empty() {
        let f = RcForest::<SumAgg<i64>>::new(5);
        assert_eq!(f.num_vertices(), 5);
        assert_eq!(f.num_edges(), 0);
        for v in 0..5u32 {
            assert_eq!(f.cluster(v).kind, ClusterKind::Nullary);
            assert_eq!(f.contraction_round(v), 0);
        }
    }

    #[test]
    fn build_single_edge() {
        let f =
            RcForest::<SumAgg<i64>>::build_edges(2, &[(0, 1, 7)], BuildOptions::default()).unwrap();
        // Lower id rakes; higher finalizes next round.
        assert_eq!(f.cluster(0).kind, ClusterKind::Unary);
        assert_eq!(f.cluster(1).kind, ClusterKind::Nullary);
        assert_eq!(f.cluster(0).boundary[0], 1);
        assert_eq!(f.parent_of(ClusterId::vertex(0)), ClusterId::vertex(1));
        assert_eq!(f.cluster(1).agg.total, 7);
    }

    #[test]
    fn build_path_structure() {
        let f =
            RcForest::<SumAgg<i64>>::build_edges(100, &path_edges(100), BuildOptions::default())
                .unwrap();
        // Exactly one nullary cluster (one component).
        let roots = (0..100u32)
            .filter(|&v| f.cluster(v).kind == ClusterKind::Nullary)
            .count();
        assert_eq!(roots, 1);
        // Root aggregate covers all 99 edges.
        let root = (0..100u32)
            .find(|&v| f.cluster(v).kind == ClusterKind::Nullary)
            .unwrap();
        assert_eq!(f.cluster(root).agg.total, 99);
    }

    #[test]
    fn build_star_structure() {
        // Degree-3 star: 0 connected to 1,2,3.
        let edges = vec![(0u32, 1u32, 1i64), (0, 2, 1), (0, 3, 1)];
        let f = RcForest::<SumAgg<i64>>::build_edges(4, &edges, BuildOptions::default()).unwrap();
        let roots = (0..4u32)
            .filter(|&v| f.cluster(v).kind == ClusterKind::Nullary)
            .count();
        assert_eq!(roots, 1);
    }

    #[test]
    fn build_forest_components() {
        let edges = vec![(0u32, 1u32, 1i64), (2, 3, 1), (4, 5, 1)];
        let f = RcForest::<SumAgg<i64>>::build_edges(7, &edges, BuildOptions::default()).unwrap();
        let roots = (0..7u32)
            .filter(|&v| f.cluster(v).kind == ClusterKind::Nullary)
            .count();
        assert_eq!(roots, 4, "three pairs + one isolated vertex");
    }

    #[test]
    fn build_rejects_cycle() {
        let edges = vec![(0u32, 1u32, 1i64), (1, 2, 1), (2, 0, 1)];
        let err = RcForest::<SumAgg<i64>>::build_edges(3, &edges, BuildOptions::default());
        assert_eq!(
            err.unwrap_err(),
            ForestError::WouldCreateCycle { u: 2, v: 0 }
        );
    }

    #[test]
    fn build_rejects_degree_overflow() {
        let edges = vec![(0u32, 1u32, 1i64), (0, 2, 1), (0, 3, 1), (0, 4, 1)];
        let err = RcForest::<SumAgg<i64>>::build_edges(5, &edges, BuildOptions::default());
        assert_eq!(err.unwrap_err(), ForestError::DegreeOverflow { v: 0 });
    }

    #[test]
    fn build_rejects_self_loop_and_duplicates() {
        assert!(matches!(
            RcForest::<SumAgg<i64>>::build_edges(3, &[(1, 1, 1)], BuildOptions::default()),
            Err(ForestError::SelfLoop { .. })
        ));
        assert!(matches!(
            RcForest::<SumAgg<i64>>::build_edges(
                3,
                &[(0, 1, 1), (1, 0, 2)],
                BuildOptions::default()
            ),
            Err(ForestError::WouldCreateCycle { .. }) | Err(ForestError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn logarithmic_levels_on_long_path() {
        let n = 10_000;
        let f = RcForest::<CountAgg>::build_edges(
            n,
            &(0..n - 1)
                .map(|i| (i as u32, i as u32 + 1, ()))
                .collect::<Vec<_>>(),
            BuildOptions::default(),
        )
        .unwrap();
        assert!(
            f.num_levels() < 120,
            "path of {n} contracted in {} levels — expected O(log n)",
            f.num_levels()
        );
    }

    #[test]
    fn deterministic_mode_builds_paths() {
        let opts = BuildOptions {
            mode: ContractionMode::Deterministic,
            ..Default::default()
        };
        let f = RcForest::<SumAgg<i64>>::build_edges(1000, &path_edges(1000), opts).unwrap();
        let roots = (0..1000u32)
            .filter(|&v| f.cluster(v).kind == ClusterKind::Nullary)
            .count();
        assert_eq!(roots, 1);
        assert!(f.num_levels() < 200, "levels = {}", f.num_levels());
    }

    #[test]
    fn builds_are_reproducible() {
        let e = path_edges(500);
        let f1 = RcForest::<SumAgg<i64>>::build_edges(500, &e, BuildOptions::default()).unwrap();
        let f2 = RcForest::<SumAgg<i64>>::build_edges(500, &e, BuildOptions::default()).unwrap();
        for v in 0..500u32 {
            assert_eq!(f1.contraction_round(v), f2.contraction_round(v));
            assert_eq!(f1.cluster(v).kind, f2.cluster(v).kind);
        }
    }
}
