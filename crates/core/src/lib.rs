//! `spq` — shortest path and distance queries on road networks.
//!
//! A from-scratch Rust implementation of the experimental framework of
//! Wu et al., *"Shortest Path and Distance Queries on Road Networks: An
//! Experimental Evaluation"* (PVLDB 5(5), 2012): the five evaluated
//! techniques behind one registry, the synthetic road-network substrate,
//! and the workload generators driving every table and figure of the
//! paper.
//!
//! | Method | Category | Crate |
//! |---|---|---|
//! | bidirectional Dijkstra (baseline) | — | [`spq_dijkstra`] |
//! | Contraction Hierarchies (CH) | vertex importance | [`spq_ch`] |
//! | Transit Node Routing (TNR) | vertex importance | [`spq_tnr`] |
//! | SILC | spatial coherence | [`spq_silc`] |
//! | PCPD | spatial coherence | [`spq_pcpd`] |
//!
//! Every index is built by [`serve::BackendKind::build`] and answers
//! through a [`graph::backend::Session`]; [`serve::verify_session`]
//! checks any session against the Dijkstra oracle.
//!
//! # Quick start
//!
//! ```
//! use spq_core::serve::BackendKind;
//! use spq_synth::SynthParams;
//!
//! let net = spq_synth::generate(&SynthParams::with_target_vertices(500, 1));
//! let t = (net.num_nodes() - 1) as u32;
//! for kind in BackendKind::PAPER {
//!     let built = kind.build(&net);
//!     let mut q = built.backend.session(&net);
//!     let (d, path) = q.shortest_path(0, t).unwrap();
//!     assert_eq!(q.distance(0, t), Some(d));
//!     assert_eq!(net.path_length(&path), Some(d));
//! }
//! ```

pub mod bench;

// Re-export the component crates so downstream users depend on one crate.
pub use spq_ch as ch;
pub use spq_dijkstra as dijkstra;
pub use spq_graph as graph;
pub use spq_pcpd as pcpd;
pub use spq_queries as queries;
pub use spq_serve as serve;
pub use spq_silc as silc;
pub use spq_synth as synth;
pub use spq_tnr as tnr;
