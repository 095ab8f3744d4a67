//! Spatially Induced Linkage Cognizance (SILC), the spatial-coherence
//! index of Samet et al. evaluated as the paper's §3.4 technique.
//!
//! SILC pre-computes all-pairs shortest paths and stores, for every
//! source vertex `v`, a *colouring* of the remaining vertices: each
//! vertex `u` is coloured by the neighbour of `v` that starts the
//! (canonical) shortest path from `v` to `u`. Because shortest paths are
//! spatially coherent, equally-coloured vertices cluster in space, so
//! each colouring compresses into O(√n) axis-aligned quadtree squares,
//! stored as intervals of the Morton (Z-order) curve (paper Appendix D).
//!
//! A shortest-path query walks first hops: look up `t`'s colour in `s`'s
//! table (a binary search, O(log n)), hop to that neighbour, repeat —
//! O(k log n) for a k-edge path. A distance query computes the path and
//! returns its length (§3.4: SILC has no faster distance routine, which
//! is exactly why CH/TNR beat it on distance queries in Figures 8–9).
//!
//! # Example
//!
//! ```
//! use spq_graph::toy::figure1;
//! use spq_silc::Silc;
//!
//! let g = figure1();
//! let silc = Silc::build(&g);
//! let mut q = silc.query(&g);
//! let (d, path) = q.shortest_path(2, 6).unwrap(); // v3 -> v7
//! assert_eq!(d, 6);
//! assert_eq!(g.path_length(&path), Some(6));
//! ```

pub mod index;
pub mod query;

pub use index::Silc;
pub use query::SilcQuery;
