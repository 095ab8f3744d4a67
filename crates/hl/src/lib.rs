//! Hub labeling (HL) — 2-hop labels derived from the CH contraction
//! order, the technique family that superseded every index in the
//! source paper for pure distance queries.
//!
//! The construction is the canonical "CH search spaces as labels" one
//! (Abraham et al., *Hierarchical Hub Labelings*): the label of a
//! vertex `v` is its pruned upward search space in the contraction
//! hierarchy — every vertex an upward Dijkstra from `v` reaches at its
//! exact distance, recorded as `(hub_rank, dist)`, and built top-down
//! from the finished labels of `v`'s upward neighbours rather than by
//! a search. For any pair `(s, t)`
//! the highest-ranked vertex of a shortest path appears in both labels
//! with its exact distance, so
//!
//! ```text
//! dist(s, t) = min over common hubs h of  L(s)[h] + L(t)[h]
//! ```
//!
//! Labels are sorted by hub rank and stored as 8-byte `(hub, distance)`
//! entries in one flat array addressed by vertex id, so a distance
//! query is a single linear merge-scan of two contiguous slices — no
//! heap, no hash lookups, no id translation, no per-query allocation.
//! That makes HL the distance-query speed ceiling of the workspace:
//! faster than the flat CH kernel (which still runs two Dijkstra
//! frontiers) on every bench network.
//!
//! The crate exposes three layers:
//!
//! * [`HubLabels`] — the label store, built deterministically in
//!   parallel from a [`ContractionHierarchy`]'s search graph, one
//!   upward-depth *wave* at a time so that each label is merged from,
//!   and pruned against, finished labels inside one worker
//!   (byte-identical at any thread count, like every other index in
//!   the workspace; see [`labels`]).
//! * [`Hl`] — the servable index: the labels plus the hierarchy they
//!   were derived from, so shortest-*path* queries (which need
//!   shortcut unpacking) are answered by the embedded CH while
//!   distance queries go through the labels.
//! * persistence — a checksummed `SPQH` container (version 2) holding
//!   the offsets, the entries and the embedded hierarchy
//!   ([`Hl::write_binary`]/[`Hl::read_binary`]; layout in [`persist`]).
//!
//! # Example
//!
//! ```
//! use spq_graph::toy::figure1;
//! use spq_hl::Hl;
//!
//! let g = figure1();
//! let hl = Hl::build(&g);
//! assert_eq!(hl.labels().distance(2, 6), Some(6)); // dist(v3, v7), paper §3.2
//! ```

pub mod backend;
pub mod labels;
pub mod persist;

pub use labels::{num_waves, BatchScan, Hl, HubLabels, LabelEntry};
