//! ALT — A* search with landmarks and the triangle inequality — the
//! goal-directed technique of Goldberg & Harrelson that the paper's
//! Appendix A surveys ("ALT preprocesses the road network by first
//! selecting a small set of vertices, called the landmarks... With the
//! pre-computed distances, we can efficiently derive a lower bound...
//! ALT incorporates such lower bounds with Dijkstra's algorithm").
//!
//! Appendix A reports that ALT (like the other surveyed methods except
//! HiTi/HEPV) was "previously shown to be inferior to CH in terms of
//! both space overhead and query performance"; the `appendix_a_alt`
//! experiment binary reproduces that relation on our networks.
//!
//! # Example
//!
//! ```
//! use spq_synth::SynthParams;
//! use spq_alt::{Alt, AltParams};
//!
//! let net = spq_synth::generate(&SynthParams::with_target_vertices(400, 4));
//! let alt = Alt::build(&net, &AltParams::default());
//! let mut q = alt.query(&net);
//! let t = (net.num_nodes() - 1) as u32;
//! assert!(q.distance(0, t).is_some());
//! ```

pub mod landmarks;
pub mod query;

pub use landmarks::{Alt, AltParams, LandmarkSelection};
pub use query::AltQuery;
