//! Query algorithms on RC forests (§3, §5.4–5.8).
//!
//! # The marked-subtree engine
//!
//! Every *batch* query family routes through one shared engine
//! ([`engine::MarkedSweep`], obtained from
//! [`RcForest::marked_sweep`](crate::RcForest::marked_sweep)): collect and
//! validate the batch's start vertices, mark their RC-tree
//! ancestors (`O(k log(1 + n/k))` marked clusters, Theorem A.2), then run
//! top-down / bottom-up visitor passes over the marked subtree. Each batch
//! call makes exactly one sweep; a query family contributes its visitors,
//! per-call state in flat arrays indexed by sweep slot, and a per-query
//! assembly step:
//!
//! | module | queries | engine passes | work (batch of k) |
//! |---|---|---|---|
//! | [`connectivity`] | `connected`, `batch_connected`, representatives | `root_labels` | `O(k log(1+n/k))` |
//! | [`subtree_batch`] | batch subtree aggregates | OUT-values top-down (valid entries only) | `O(k log(1+n/k))` + `O(log n)` per query |
//! | [`lca`] | single + batch LCA (arbitrary roots) | `root_labels`, `root_boundary`; per query three slot ascents | `O(k log n)` (the paper's log-factor concession) |
//! | [`path_batch`] | batch path sums (commutative group) | `root_labels`, `root_boundary`, root-path-W top-down; per pair one slot ascent | `O(k log(1+n/k))` + `O(k log n)` ascents |
//! | [`cpt`] | compressed path trees | exposure bottom-up, then flat compaction | `O(k log(1+n/k))` |
//! | [`bottleneck`] | batch path minima/maxima | via [`cpt`], then lifting on the `O(k)` tree | `O(k log(1+n/k) + k log k)` |
//! | [`marked`] | batch nearest-marked-vertex | nearest-global top-down | `O(k log(1+n/k))` |
//!
//! Single-vertex-pair variants ([`path`], [`subtree`]) walk one ancestor
//! chain in `O(log n)` and skip the engine.
//!
//! # Uniform `None` contract
//!
//! Batch entry points accept arbitrary vertex ids and never panic on bad
//! input; per-entry results are uniform across families:
//!
//! * **out-of-range vertex** anywhere in an entry → that entry answers
//!   `None` (`false` for `batch_connected`, [`crate::types::NO_VERTEX`]
//!   for `batch_find_representatives`);
//! * **self-pairs** are well-defined: a path query `(u, u)` answers the
//!   identity (empty path), `batch_lca (u, u, r)` answers `u` when
//!   connected to `r`, a subtree query `(u, u)` answers `None` (`u` is
//!   not its own neighbor);
//! * **duplicate entries** are answered independently (a repeated start
//!   stops at its own claim; results are per-entry);
//! * **disconnected pairs** answer `None`.
//!
//! `compressed_path_tree` is a set construction: out-of-range terminals
//! are ignored rather than reported per-entry.
//!
//! # Error-not-panic updates
//!
//! The mutating entry points (`batch_link`, `batch_cut`,
//! `update_vertex_weights`, `update_edge_weights`, `batch_mark`,
//! `batch_unmark`) validate their whole batch up front and return
//! [`crate::ForestError`] without applying anything on malformed input.
//! Together with the uniform `None` contract above this guarantees that
//! no request a client can phrase — out-of-range ids, self loops,
//! duplicate or missing edges, cycle-closing links — can panic a serving
//! loop built on top of the forest (see the `rc-serve` crate).

pub mod bottleneck;
pub mod connectivity;
pub mod cpt;
pub mod engine;
pub mod lca;
pub mod marked;
pub mod path;
pub mod path_batch;
pub mod subtree;
pub mod subtree_batch;
