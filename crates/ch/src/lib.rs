//! Contraction Hierarchies (CH), the vertex-importance-based index of
//! Geisberger et al. evaluated as the paper's §3.2 technique.
//!
//! Preprocessing imposes a total order on the vertices (heuristically, by
//! repeatedly contracting the least important remaining vertex), inserting
//! a *shortcut* edge between two neighbours of a contracted vertex
//! whenever the shortest path between them runs through it. Queries run a
//! bidirectional Dijkstra that only relaxes edges leading to higher-ranked
//! vertices; shortest-path queries additionally unpack shortcuts back into
//! original edges using the contracted-vertex tag each shortcut carries.
//!
//! The crate exposes five layers:
//!
//! * [`ContractionHierarchy`] — the preprocessed index
//!   ([`ContractionHierarchy::build`] / `build_with_report` /
//!   `build_with_order`): the flattened rank-renumbered [`SearchGraph`]
//!   — the hierarchy's only representation, in memory and in the `SPQC`
//!   container — plus the shortcut count.
//! * [`ChQuery`] — a reusable query workspace for distance and
//!   shortest-path queries, the one point kernel.
//! * [`UpwardSearch`] — the one upward search, driven by a visitor: the
//!   bucket tables below, and `spq_many`'s sweeps, range, POI buckets
//!   and kNN, and `spq_hl`'s label build all run on it.
//! * [`ManyToMany`] — bucket-based distance tables between node sets,
//!   the engine behind TNR's preprocessing (paper §4.1: "we employed CH
//!   to accelerate the shortest path computation required in the
//!   preprocessing steps of SILC, PCPD, and TNR").
//! * [`BatchDistances`] — the serving-path batch kernel: multi-source
//!   upward sweeps with structure-of-arrays distance lanes ([`LANES`]
//!   endpoints per sweep), budget-aware, bit-identical to pointwise
//!   queries.
//!
//! # Example
//!
//! ```
//! use spq_graph::toy::figure1;
//! use spq_ch::{ContractionHierarchy, ChQuery};
//!
//! let g = figure1();
//! let ch = ContractionHierarchy::build(&g);
//! let mut q = ChQuery::new(&ch);
//! assert_eq!(q.distance(2, 6), Some(6)); // dist(v3, v7), paper §3.2
//! let (d, path) = q.shortest_path(2, 6).unwrap();
//! assert_eq!(d, 6);
//! assert_eq!(g.path_length(&path), Some(6)); // unpacked to real edges
//! ```

pub mod batch;
pub mod contraction;
pub mod many2many;
pub mod ordering;
pub mod persist;
pub mod query;
pub mod search_graph;
pub mod upward;

pub use batch::{BatchDistances, LANES};
pub use contraction::{ContractionHierarchy, ContractionReport};
pub use many2many::{par_table, ManyToMany};
pub use query::ChQuery;
pub use search_graph::{SearchEdge, SearchGraph};
pub use upward::{Labels, UpwardSearch, Visit};

// Only until the benchmark-only follow-up drops its `ch.legacy.*` rows,
// which name this type (and now time the one kernel).
#[doc(hidden)]
pub type LegacyChQuery<'a> = ChQuery<'a>;
