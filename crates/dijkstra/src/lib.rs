//! Dijkstra's algorithm and the bidirectional Dijkstra baseline (§3.1).
//!
//! The paper uses bidirectional Dijkstra as the baseline technique and as
//! TNR's non-indexed fallback; plain one-to-all Dijkstra is the workhorse
//! inside SILC's and PCPD's preprocessing and TNR's access-node
//! computation. Both searches here keep their state in reusable,
//! version-stamped workspaces so repeated queries allocate nothing.
//! [`Ball`] serves the network range query of every backend from a
//! bounded search with no stamps, parents or first hops.
//!
//! # Example
//!
//! ```
//! use spq_graph::toy::figure1;
//! use spq_dijkstra::BiDijkstra;
//!
//! let g = figure1();
//! let mut search = BiDijkstra::new(g.num_nodes());
//! // v3 (id 2) to v7 (id 6): the paper's worked example, distance 6.
//! assert_eq!(search.distance(&g, 2, 6), Some(6));
//! let (d, path) = search.shortest_path(&g, 2, 6).unwrap();
//! assert_eq!(d, 6);
//! assert_eq!(g.path_length(&path), Some(6));
//! ```

pub mod backend;
pub mod ball;
pub mod bidirectional;
pub mod onetoall;

pub use backend::Baseline;
pub use ball::Ball;
pub use bidirectional::BiDijkstra;
pub use onetoall::{Dijkstra, SearchScope};

/// Counters describing the work one query performed; the paper's analyses
/// ("Dijkstra has to visit all vertices closer to s than t", §1) are
/// statements about these numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Vertices permanently settled (popped with final distance).
    pub settled: usize,
    /// Edge relaxations attempted.
    pub relaxed: usize,
}
