//! Batched query shapes over the flat CH search graph — the repo's
//! ninth subsystem, extending point-to-point serving with the three
//! shapes real road-network traffic is dominated by: one-to-many rows
//! and tables, k nearest neighbours, and network range.
//!
//! * [`OneToMany`] — target-restricted PHAST: a **selection** (the
//!   reverse-upward closure of a target set, compacted into its own
//!   descending-rank CSR) is swept linearly after one upward search
//!   from the source, so a query costs what its targets' closure costs,
//!   not `n`. Selections are memoised per workspace under the target
//!   *set* — order, rotation and duplicates of the request do not matter
//!   — in a small byte-capped LRU. One sweep per row answers whole
//!   tables; selecting every vertex is the classic full sweep.
//! * [`PoiIndex`] — bucket-CH k-nearest-neighbour over a registered
//!   [`PoiSet`]: per-vertex buckets precomputed from each POI's upward
//!   search space, sorted by distance, make a kNN query one upward
//!   search that stops as soon as the k-th best is beaten. The same
//!   merge without the bound ([`PoiIndex::row`]) is one source's row
//!   against the whole set, which [`ManySession`] serves any
//!   one-to-many or table with a side naming exactly that set.
//! * Network range ("all vertices within `d` of `s`") is not a
//!   hierarchy query: a ball has no target set to select in advance,
//!   and a bounded search over the network
//!   ([`Ball::range`](spq_dijkstra::Ball::range)) already costs the
//!   ball. [`ManySession`] answers it with the same function as the
//!   index-free baseline.
//!
//! Every upward search here is `spq_ch`'s one
//! [`UpwardSearch`](spq_ch::UpwardSearch): the selections' rows, the POI
//! bucket build, the kNN query and the whole-set row each drive it with
//! their own visitor.
//! [`phast`] derives the sweep and says why it is exact.
//!
//! [`ManyBackend`] packages all of it behind the serving `Backend` /
//! `Session` traits, so the TCP server answers these shapes under the
//! same budget/deadline/epoch machinery as the point queries; `spq
//! bench` times them in process, and the `served-many` benchmark
//! workload over TCP.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//!
//! use spq_ch::ContractionHierarchy;
//! use spq_graph::backend::Backend;
//! use spq_graph::toy::figure1;
//! use spq_many::{ManyBackend, OneToMany, PoiTable};
//!
//! let g = figure1();
//! let ch = Arc::new(ContractionHierarchy::build(&g));
//! let mut o2m = OneToMany::new(&ch);
//! let mut row = Vec::new();
//! assert!(o2m.table(&[2], &[6, 2], &mut row)); // sweeps only {v7, v3}'s closure
//! assert_eq!(row, [Some(6), Some(0)]); // dist(v3, v7), paper §3.2
//! let backend = ManyBackend::new(ch.clone(), PoiTable::empty());
//! let mut session = backend.session(&g);
//! let mut ball = Vec::new();
//! assert!(session.range(2, 6, &mut ball)); // every vertex within 6 of v3
//! assert!(ball.contains(&(6, 6)));
//! ```

pub mod backend;
pub mod phast;
pub mod poi;

pub use backend::{
    ManyBackend, ManySession, PoiEntry, PoiTable, O2M_SWEEP_CUTOFF, TABLE_SWEEP_SIDE,
};
pub use phast::OneToMany;
pub use poi::{KnnWorkspace, PoiIndex, PoiSet, MAX_POI_NAME};
