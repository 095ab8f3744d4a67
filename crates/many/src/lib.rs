//! Batched query shapes over the flat CH search graph — the repo's
//! ninth subsystem, extending point-to-point serving with the three
//! shapes real road-network traffic is dominated by:
//!
//! * [`OneToMany`] — target-restricted PHAST: a **selection** (the
//!   reverse-upward closure of a target set, compacted into its own
//!   descending-rank CSR) is swept linearly after one upward Dijkstra
//!   from the source, so a query costs what its targets' closure costs,
//!   not `n`. Selections are memoised per workspace under the target
//!   *set* — order, rotation and duplicates of the request do not matter
//!   — in a small byte-capped LRU. One sweep per row answers whole
//!   tables; "select everything" is the classic full sweep.
//! * [`PoiIndex`] — bucket-CH k-nearest-neighbour over a registered
//!   [`PoiSet`]: per-vertex buckets precomputed from each POI's upward
//!   search space, sorted by distance, make a kNN query one upward
//!   search that stops as soon as the k-th best is beaten.
//! * Network range ("all vertices within `d` of `s`") — a frontier over
//!   a rank bitset pushed *down* the hierarchy from the pruned upward
//!   search ([`OneToMany::range`]): work proportional to the ball.
//!
//! [`phast`] derives all three and says why pruning at the limit stays
//! exact.
//!
//! [`ManyBackend`] packages all of it behind the serving `Backend` /
//! `Session` traits so the TCP server, loadgen, and bench harness drive
//! the new shapes through the same budget/deadline/epoch machinery as
//! the original ops.
//!
//! # Example
//!
//! ```
//! use spq_ch::ContractionHierarchy;
//! use spq_graph::toy::figure1;
//! use spq_many::OneToMany;
//!
//! let g = figure1();
//! let ch = ContractionHierarchy::build(&g);
//! let mut o2m = OneToMany::new(&ch);
//! let mut row = Vec::new();
//! assert!(o2m.table(&[2], &[6, 2], &mut row)); // sweeps only {v7, v3}'s closure
//! assert_eq!(row, [Some(6), Some(0)]); // dist(v3, v7), paper §3.2
//! assert!(o2m.run(2)); // "select everything" answers every target
//! assert_eq!(o2m.distance(6), Some(6));
//! ```

pub mod backend;
pub mod phast;
pub mod poi;

pub use backend::{
    ManyBackend, ManySession, PoiEntry, PoiTable, O2M_SWEEP_CUTOFF, TABLE_SWEEP_SIDE,
};
pub use phast::OneToMany;
pub use poi::{KnnWorkspace, PoiIndex, PoiSet, MAX_POI_NAME};
