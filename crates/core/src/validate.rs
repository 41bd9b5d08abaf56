//! Structural invariant checking and canonical comparison.
//!
//! `validate()` checks every representation invariant of the RC forest —
//! used pervasively in tests and available to users behind a debug call.
//! `canonical_structure()` renders the clustering in an arena-independent
//! form so a repaired forest can be compared bit-for-bit against a fresh
//! rebuild. That is the change-propagation equality oracle: after any
//! batch update, the repaired clustering must equal the one a fresh build
//! of the same edge set produces.

use crate::aggregate::ClusterAggregate;
use crate::forest::RcForest;
use crate::types::*;

/// Arena-independent rendering of a cluster handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum CanonId {
    /// Base edge by endpoints (sorted).
    Edge(Vertex, Vertex),
    /// Vertex cluster by representative.
    Vertex(Vertex),
    /// Null.
    None,
}

/// One canonical level record: `(level, [(nbr, handle, raked)], event)`.
pub type CanonRecord = (u32, Vec<(Vertex, CanonId, bool)>, Event);

/// Canonical view of one vertex's full state (history + cluster).
#[derive(Clone, PartialEq, Debug)]
pub struct CanonVertex {
    /// `(level, [(nbr, handle, raked)], event)` per live level.
    pub records: Vec<CanonRecord>,
    /// How the vertex contracted.
    pub kind: ClusterKind,
    /// When it contracted.
    pub round: u32,
    /// Parent cluster.
    pub parent: CanonId,
    /// Boundary vertices.
    pub boundary: [Vertex; 2],
    /// Binary children.
    pub bin_children: [CanonId; 2],
    /// Rake children.
    pub rake_children: Vec<CanonId>,
}

impl<A: ClusterAggregate> RcForest<A> {
    fn canon_id(&self, c: ClusterId) -> CanonId {
        if c.is_none() {
            CanonId::None
        } else if c.is_vertex() {
            CanonId::Vertex(c.as_vertex())
        } else {
            let (u, v) = self.edges.ep[c.as_edge() as usize];
            CanonId::Edge(u, v)
        }
    }

    /// Render the whole structure in canonical (arena-independent) form.
    pub fn canonical_structure(&self) -> Vec<CanonVertex> {
        (0..self.n as u32)
            .map(|v| {
                let h = &self.histories[v as usize];
                let records = h
                    .iter()
                    .enumerate()
                    .map(|(lvl, r)| {
                        (
                            lvl as u32,
                            r.adj
                                .iter()
                                .map(|e| (e.nbr, self.canon_id(e.cluster), e.raked))
                                .collect(),
                            r.event,
                        )
                    })
                    .collect();
                let c = self.cluster(v);
                CanonVertex {
                    records,
                    kind: c.kind,
                    round: c.round,
                    parent: self.canon_id(c.parent),
                    boundary: c.boundary,
                    bin_children: [
                        self.canon_id(c.bin_children[0]),
                        self.canon_id(c.bin_children[1]),
                    ],
                    rake_children: c.rake_children.iter().map(|k| self.canon_id(k)).collect(),
                }
            })
            .collect()
    }

    /// Check every representation invariant; returns a description of the
    /// first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n;
        macro_rules! ensure {
            ($cond:expr, $($msg:tt)*) => {
                if !$cond { return Err(format!($($msg)*)); }
            };
        }

        for v in 0..n as u32 {
            let h = &self.histories[v as usize];
            ensure!(!h.is_empty(), "vertex {v} has no history");
            let last = h.len() - 1;
            for (lvl, rec) in h.iter().enumerate() {
                // Event placement.
                if lvl < last {
                    ensure!(
                        rec.event == Event::Live,
                        "v{v} level {lvl}: early non-live event"
                    );
                } else {
                    ensure!(
                        rec.event.contracts(),
                        "v{v} final level {lvl} did not contract"
                    );
                }
                // Degree bound + sortedness.
                ensure!(
                    rec.adj.len() <= MAX_DEGREE,
                    "v{v} level {lvl}: too many slots"
                );
                for w in rec.adj.as_slice().windows(2) {
                    ensure!(
                        w[0].nbr < w[1].nbr,
                        "v{v} level {lvl}: adjacency unsorted/dup"
                    );
                }
                // Entry invariants.
                for e in rec.adj.iter() {
                    let u = e.nbr;
                    ensure!((u as usize) < n, "v{v} level {lvl}: nbr {u} out of range");
                    if e.raked {
                        ensure!(
                            e.cluster == ClusterId::vertex(u),
                            "v{v} level {lvl}: raked slot holds {:?}",
                            e.cluster
                        );
                        let uc = self.cluster(u);
                        ensure!(
                            uc.kind == ClusterKind::Unary,
                            "v{v}: raked nbr {u} not unary"
                        );
                        ensure!((uc.round as usize) < lvl, "v{v}: rake round not earlier");
                        ensure!(
                            uc.boundary[0] == v,
                            "v{v}: raked {u} has boundary {:?}",
                            uc.boundary
                        );
                    } else {
                        // Live neighbor must be live at this level with a
                        // symmetric entry bearing the same handle.
                        let uh = &self.histories[u as usize];
                        ensure!(uh.len() > lvl, "v{v} level {lvl}: live nbr {u} not live");
                        let back = uh[lvl].live().find(|x| x.nbr == v);
                        match back {
                            None => return Err(format!("v{v} level {lvl}: no back-edge from {u}")),
                            Some(x) => ensure!(
                                x.cluster == e.cluster,
                                "v{v}/{u} level {lvl}: handle mismatch"
                            ),
                        }
                        // Handle correctness.
                        if e.cluster.is_edge() {
                            let idx = e.cluster.as_edge() as usize;
                            ensure!(self.edges.alive[idx], "v{v}: dead edge handle");
                            let (a, b) = self.edges.ep[idx];
                            let (x, y) = if v < u { (v, u) } else { (u, v) };
                            ensure!((a, b) == (x, y), "v{v}: edge endpoints mismatch");
                        } else {
                            let w = e.cluster.as_vertex();
                            let wc = self.cluster(w);
                            ensure!(
                                wc.kind == ClusterKind::Binary,
                                "v{v}: handle {w} not binary"
                            );
                            ensure!((wc.round as usize) < lvl, "v{v}: handle round too late");
                            let (x, y) = if v < u { (v, u) } else { (u, v) };
                            ensure!(
                                wc.boundary == [x, y],
                                "v{v}: binary {w} boundary {:?} != ({x},{y})",
                                wc.boundary
                            );
                        }
                    }
                }
                // Contraction arity.
                match rec.event {
                    Event::Rake => ensure!(rec.degree() == 1, "v{v}: rake at degree != 1"),
                    Event::Compress => {
                        ensure!(rec.degree() == 2, "v{v}: compress at degree != 2")
                    }
                    Event::Finalize => {
                        ensure!(rec.degree() == 0, "v{v}: finalize at degree != 0")
                    }
                    Event::Live => {}
                }
            }
            // Independence: no live neighbor contracts in the same round.
            let rec = &h[last];
            for e in rec.live() {
                let u = e.nbr;
                let ul = self.histories[u as usize].len() - 1;
                ensure!(ul != last, "v{v} and {u} both contract at level {last}");
            }

            // Cluster consistency with the final record.
            let c = self.cluster(v);
            ensure!(c.kind != ClusterKind::Invalid, "v{v}: invalid cluster");
            ensure!(c.round as usize == last, "v{v}: round mismatch");
            let expect_kind = match rec.event {
                Event::Rake => ClusterKind::Unary,
                Event::Compress => ClusterKind::Binary,
                Event::Finalize => ClusterKind::Nullary,
                Event::Live => unreachable!(),
            };
            ensure!(c.kind == expect_kind, "v{v}: kind mismatch");
            // Children parent pointers + boundary orientation.
            let me = ClusterId::vertex(v);
            for (i, &bc) in c.bin_children.iter().enumerate() {
                if bc.is_none() {
                    continue;
                }
                ensure!(self.parent_of(bc) == me, "v{v}: bin child parent broken");
                let bb = self.boundaries_of(bc);
                let (x, y) = if c.boundary[i] < v {
                    (c.boundary[i], v)
                } else {
                    (v, c.boundary[i])
                };
                ensure!(
                    bb == [x, y],
                    "v{v}: bin child {i} boundary {:?} != ({x},{y})",
                    bb
                );
            }
            for rk in c.rake_children.iter() {
                ensure!(self.parent_of(rk) == me, "v{v}: rake child parent broken");
                ensure!(rk.is_vertex(), "v{v}: rake child is an edge");
                let rc = self.cluster(rk.as_vertex());
                ensure!(rc.boundary[0] == v, "v{v}: rake child boundary broken");
            }
            // Aggregate fixpoint.
            let recomputed = self.recompute_agg(v);
            ensure!(
                recomputed == c.agg,
                "v{v}: stale aggregate {:?} != {:?}",
                c.agg,
                recomputed
            );

            ensure!((last as u32) < self.levels, "v{v}: round beyond levels");
        }

        // Edge arena: every live edge appears in its endpoints' level-0
        // records and has a parent.
        for i in 0..self.edges.ep.len() {
            if !self.edges.alive[i] {
                continue;
            }
            let (u, v) = self.edges.ep[i];
            let hu = &self.histories[u as usize][0];
            ensure!(
                hu.live()
                    .any(|e| e.nbr == v && e.cluster == ClusterId::edge(i as u32)),
                "edge {i} ({u},{v}) missing from level-0 record"
            );
            ensure!(!self.edges.parent[i].is_none(), "edge {i}: no parent");
        }
        Ok(())
    }

    /// Test-oriented assertion that this forest equals a fresh rebuild of
    /// the same edge set with the same options (canonical change
    /// propagation — randomized mode only).
    pub fn assert_matches_fresh_rebuild(&self) {
        assert_eq!(
            self.opts.mode,
            crate::forest::ContractionMode::Randomized,
            "canonical equality holds for the randomized rule only"
        );
        let edges = self.edge_list();
        let fresh = RcForest::<A>::build(self.n, self.vertex_weights.clone(), &edges, self.opts)
            .expect("edge list of a valid forest must rebuild");
        let a = self.canonical_structure();
        let b = fresh.canonical_structure();
        for v in 0..self.n {
            assert_eq!(
                a[v], b[v],
                "structure diverges from fresh rebuild at vertex {v}"
            );
        }
        for v in 0..self.n as u32 {
            assert_eq!(
                self.cluster(v).agg,
                fresh.cluster(v).agg,
                "aggregate diverges at vertex {v}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::aggregates::SumAgg;
    use crate::forest::{BuildOptions, ContractionMode, RcForest};

    fn opts() -> BuildOptions {
        BuildOptions::default()
    }

    #[test]
    fn fresh_builds_validate() {
        for n in [1usize, 2, 3, 10, 257] {
            let edges: Vec<(u32, u32, i64)> = (0..n.saturating_sub(1))
                .map(|i| (i as u32, i as u32 + 1, i as i64))
                .collect();
            let f = RcForest::<SumAgg<i64>>::build_edges(n, &edges, opts()).unwrap();
            f.validate().unwrap_or_else(|e| panic!("n={n}: {e}"));
        }
    }

    #[test]
    fn deterministic_builds_validate() {
        let edges: Vec<(u32, u32, i64)> = (0..99).map(|i| (i, i + 1, 1)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(
            100,
            &edges,
            BuildOptions {
                mode: ContractionMode::Deterministic,
                ..opts()
            },
        )
        .unwrap();
        f.validate().unwrap();
    }

    #[test]
    fn star_and_caterpillar_validate() {
        // Degree-3 caterpillar: spine + hairs.
        let mut edges: Vec<(u32, u32, i64)> = Vec::new();
        let spine = 50u32;
        for i in 0..spine - 1 {
            edges.push((i, i + 1, 1));
        }
        for i in 0..spine {
            edges.push((i, spine + i, 2)); // one hair per spine vertex
        }
        let f = RcForest::<SumAgg<i64>>::build_edges(2 * spine as usize, &edges, opts()).unwrap();
        f.validate().unwrap();
    }

    #[test]
    fn fresh_equals_itself_canonically() {
        let edges: Vec<(u32, u32, i64)> = (0..63).map(|i| (i, i + 1, 1)).collect();
        let f = RcForest::<SumAgg<i64>>::build_edges(64, &edges, opts()).unwrap();
        f.assert_matches_fresh_rebuild();
    }
}
