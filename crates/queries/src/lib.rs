//! Workload generation for the paper's experiments (§4.2 and App. E.2).
//!
//! Two families of query sets:
//!
//! * [`linf_query_sets`] — Q1..Q10: impose a 1024×1024 grid with cell
//!   side `l`; Qi holds random vertex pairs whose **L∞ distance** lies in
//!   `[2^(i-1)·l, 2^i·l)`. Used in §4.4–4.6.
//! * [`network_query_sets`] — R1..R10: estimate the maximum network
//!   distance `ld`; Ri holds random pairs whose **network distance**
//!   lies in `[2^(i-11)·ld, 2^(i-10)·ld)`. Used in Appendix E.2.

pub mod linf;
pub mod network;
pub mod stats;

pub use linf::linf_query_sets;
pub use network::{estimate_max_distance, network_query_sets};

use spq_graph::types::NodeId;

/// A labelled set of query pairs.
#[derive(Debug, Clone)]
pub struct QuerySet {
    /// "Q1".."Q10" or "R1".."R10".
    pub label: String,
    /// The (source, destination) pairs.
    pub pairs: Vec<(NodeId, NodeId)>,
}

impl QuerySet {
    /// Whether the generator found any pair in this distance band.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Generation parameters shared by both families.
#[derive(Debug, Clone, Copy)]
pub struct QueryGenParams {
    /// Pairs per set (the paper uses 10,000).
    pub per_set: usize,
    /// Resolution of the grid defining `l` (the paper uses 1024).
    pub grid: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryGenParams {
    fn default() -> Self {
        QueryGenParams {
            per_set: 10_000,
            grid: 1024,
            seed: 0x9e37_79b9,
        }
    }
}
