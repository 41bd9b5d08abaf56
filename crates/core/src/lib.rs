//! Batch-parallel dynamic trees via RC (rake–compress) trees.
//!
//! Rust implementation of *"Parallel Batch Queries on Dynamic Trees:
//! Algorithms and Experiments"* (Ikram, Brady, Anderson, Blelloch —
//! SPAA 2025): a forest of degree-≤3 trees maintained under batch edge
//! insertions and deletions in `O(k + k log(1 + n/k))` expected work and
//! polylog span, supporting batch connectivity, subtree, path, LCA,
//! path-extrema (via compressed path trees) and nearest-marked-vertex
//! queries in the same work bound.
//!
//! Arbitrary-degree forests are supported through the `rc-ternary` crate;
//! incremental minimum spanning forests through `rc-msf`.
//!
//! # Architecture: the marked-subtree engine
//!
//! All batch queries route through one engine ([`MarkedSweep`], obtained
//! from [`RcForest::marked_sweep`]): start-vertex filtering, the
//! ancestor-marking pass that claims each node once in the sweep's own
//! slot map, and generic `top_down` /
//! `bottom_up` visitor passes over the marked subtree, backed by pooled
//! per-forest scratch arenas. Each query family is a visitor plus an
//! `O(1)`-per-query assembly step; the [`queries`] module documents the
//! family table and the uniform `None` contract for invalid entries.
//! Downstream crates can build new batch query kinds on the same engine
//! via [`RcForest::marked_sweep`].
//!
//! # Architecture: the backend trait
//!
//! The [`backend::DynamicForest`] trait fixes one op surface — link/cut,
//! weight/mark updates, and the seven query families over the standard
//! `u64` weight model ([`StdAgg`]) — so RC forests, ternarized forests
//! (`rc-ternary`), link-cut trees (`rc-lct`) and the naive oracle
//! ([`NaiveStdForest`]) are interchangeable for differential testing,
//! stream replay and crossover benchmarks.
//!
//! # Quick start
//!
//! ```
//! use rc_core::{RcForest, SumAgg, BuildOptions};
//!
//! // A weighted path 0-1-2-3.
//! let mut f = RcForest::<SumAgg<i64>>::build_edges(
//!     4, &[(0, 1, 5), (1, 2, 7), (2, 3, 2)], BuildOptions::default()).unwrap();
//! assert_eq!(f.path_aggregate(0, 3), Some(14));
//!
//! // Batch-cut and batch-link.
//! f.batch_cut(&[(1, 2)]).unwrap();
//! assert_eq!(f.path_aggregate(0, 3), None);
//! f.batch_link(&[(0, 3, 1)]).unwrap();
//! assert_eq!(f.path_aggregate(1, 2), Some(8));
//! ```

pub mod aggregate;
pub mod aggregates;
pub mod backend;
mod build;
mod decide;
mod dynamic;
mod forest;
pub mod naive;
pub mod queries;
pub mod state;
pub mod types;
mod validate;

pub use aggregate::{
    AddWeight, ClusterAggregate, GroupPathAggregate, PathAggregate, SubtreeAggregate,
};
pub use aggregates::{
    CountAgg, EdgeRef, ExtremaAgg, MaxEdgeAgg, MinEdgeAgg, Near, NearestMarkedAgg,
    NearestMarkedAggregate, PathSummary, StdAgg, StdVertexWeight, SumAgg, UnitAgg,
};
pub use backend::{DynamicForest, NaiveStdForest};
pub use forest::{BuildOptions, ContractionMode, RcForest, VertexCluster};
pub use queries::cpt::CompressedPathTree;
pub use queries::engine::{MarkedSweep, SweepVals};
pub use state::ForestState;
pub use types::{ClusterId, ClusterKind, Event, ForestError, Vertex, MAX_DEGREE, NO_VERTEX};
