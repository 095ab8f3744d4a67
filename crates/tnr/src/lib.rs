//! Transit Node Routing (TNR), the grid-based vertex-importance index of
//! Bast et al. evaluated as the paper's §3.3 technique.
//!
//! TNR imposes a uniform grid on the network and pre-computes, for every
//! cell `C`, a set of *access nodes*: vertices near the boundary of `C`'s
//! inner shell (the 5×5 square of cells centred at `C`) that cover every
//! shortest path from inside `C` to beyond its outer shell (the 9×9
//! square). Two distance tables — vertex → own-cell access nodes, and
//! access node × access node — then answer any sufficiently non-local
//! distance query with a handful of table lookups (Equation 1). Local
//! queries fall back to an auxiliary method: CH or bidirectional Dijkstra
//! (the paper evaluates both, Appendix E.1).
//!
//! Two details follow the paper specifically:
//!
//! * **Corrected access-node computation.** Bast et al.'s fast
//!   access-node algorithm is flawed — it misses access nodes on edges
//!   that jump across the shells, yielding wrong query answers (paper
//!   Appendix B). This crate implements the paper's corrected method
//!   (shortest paths from each cell vertex to the endpoints of every
//!   outer-shell-crossing edge, accelerated by CH) as the default, and
//!   ships the flawed variant behind
//!   [`AccessNodeStrategy::FlawedBast`] purely to reproduce the
//!   incorrectness demonstration.
//! * **Hybrid grids.** Appendix E.1's two-level combination of a coarse
//!   and a fine grid is provided by [`hybrid::HybridTnr`].
//!
//! # Example
//!
//! ```
//! use spq_synth::SynthParams;
//! use spq_tnr::{Tnr, TnrParams};
//!
//! let net = spq_synth::generate(&SynthParams::with_target_vertices(600, 9));
//! let tnr = Tnr::build(&net, &TnrParams { grid: 16, ..TnrParams::default() });
//! let mut q = tnr.query();
//! let d = q.distance(0, (net.num_nodes() - 1) as u32);
//! assert!(d.is_some());
//! ```

pub mod access;
pub mod hybrid;
pub mod index;
pub mod query;

pub use access::AccessNodeStrategy;
pub use index::{Fallback, Tnr, TnrParams};
pub use query::TnrQuery;
