//! `spq-benchmark` — the instrument later performance and simplicity
//! changes to `spq` are judged with.
//!
//! Four workloads over one fixed road network exercise the system end
//! to end (kernel → index → serve → wire) through public APIs only, and
//! report the same seven end-to-end metrics each; a traced repeat of any
//! workload reports the metrics of the layers on its path. See
//! `README.md` for how to run it and how layers map to metrics, and
//! [`manifest`] for the contract.

pub mod json;
pub mod loadgen;
pub mod manifest;
pub mod measure;
pub mod ops;
pub mod oracle;
pub mod probes;
pub mod reference;
pub mod replay;
pub mod run;
pub mod setup;
pub mod stability;
pub mod sys;
pub mod trace;
