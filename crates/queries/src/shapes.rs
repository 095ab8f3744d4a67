//! Seeded workload *shapes* for the one-to-many query family.
//!
//! The PR-7 serving surface added one-to-many, kNN, and range queries;
//! driving them reproducibly needs more than (s, t) pairs — it needs
//! the *shapes*: which target sets a one-to-many batch asks for, which
//! `k` values a kNN sweep walks, which radii a range query uses. This
//! module generates all three from one seed and persists them in a
//! checksummed `SPQW` container, so the torture harness and the load
//! generator replay byte-identical workloads across processes and CI
//! runs instead of re-deriving "roughly similar" ones.
//!
//! Radii are calibrated against the network's actual distance profile
//! (percentiles of a sampled one-to-all Dijkstra) — a fixed absolute
//! radius would select everything on a small synthetic network and
//! nothing on a continental one.

use std::io::{Read, Write};

use rand::{rngs::StdRng, Rng, SeedableRng};
use spq_dijkstra::Dijkstra;
use spq_graph::binio::{self, read_u64, write_u32s, write_u64, write_u64s, IndexLoadError};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;

const MAGIC: &[u8; 4] = b"SPQW";
const VERSION: u32 = 1;

/// Knobs for [`generate_workload`].
#[derive(Debug, Clone, Copy)]
pub struct ShapeGenParams {
    /// RNG seed; equal seeds on equal networks yield byte-identical
    /// workload files.
    pub seed: u64,
    /// Number of one-to-many target sets.
    pub o2m_sets: usize,
    /// Targets per one-to-many set.
    pub o2m_targets: usize,
    /// Length of the kNN k-sweep.
    pub knn_ks: usize,
    /// Number of range radii.
    pub range_radii: usize,
}

impl Default for ShapeGenParams {
    fn default() -> Self {
        ShapeGenParams {
            seed: 0x0058_47E5,
            o2m_sets: 16,
            o2m_targets: 64,
            knn_ks: 8,
            range_radii: 8,
        }
    }
}

/// A persisted workload: the query shapes one seed produced on one
/// network. Loaded by the load generator (`--workload`) and the torture
/// harness so both replay exactly the same requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Workload {
    /// The generating seed (recorded for provenance; reloading does not
    /// re-derive anything from it).
    pub seed: u64,
    /// One-to-many target sets, each a batch of distinct-ish vertices.
    pub o2m_sets: Vec<Vec<NodeId>>,
    /// kNN `k` sweep (sorted ascending, all ≥ 1).
    pub knn_ks: Vec<u32>,
    /// Range-query radii, drawn from the network's distance profile
    /// (sorted ascending).
    pub range_radii: Vec<Dist>,
}

impl Workload {
    /// Serialises into a checksummed `SPQW` container.
    pub fn write_binary(&self, w: &mut impl Write) -> std::io::Result<()> {
        binio::write_container(w, MAGIC, VERSION, |w| {
            write_u64(w, self.seed)?;
            write_u64(w, self.o2m_sets.len() as u64)?;
            for set in &self.o2m_sets {
                write_u32s(w, set)?;
            }
            write_u32s(w, &self.knn_ks)?;
            write_u64s(w, &self.range_radii)
        })
    }

    /// Reads and fully validates a `SPQW` container.
    pub fn read_binary(r: &mut impl Read) -> Result<Workload, IndexLoadError> {
        binio::read_container(r, MAGIC, VERSION, |body| {
            let seed = read_u64(body)?;
            let n_sets = read_u64(body)?;
            if n_sets > 1 << 20 {
                return Err(IndexLoadError::Corrupt(format!(
                    "implausible o2m set count {n_sets}"
                )));
            }
            // The count is not trusted with an allocation: the list
            // grows as sets actually arrive.
            let mut o2m_sets = Vec::new();
            for _ in 0..n_sets {
                o2m_sets.push(body.read_u32s()?);
            }
            let knn_ks = body.read_u32s()?;
            let range_radii = body.read_u64s()?;
            if body.remaining() > 0 {
                return Err(IndexLoadError::Corrupt(format!(
                    "{} trailing byte(s) after workload body",
                    body.remaining()
                )));
            }
            Ok(Workload {
                seed,
                o2m_sets,
                knn_ks,
                range_radii,
            })
        })
    }

    /// Sanity bounds against a network: every target in range, every k
    /// ≥ 1. Returns the first violation. A workload generated on one
    /// network and replayed against a smaller one fails here instead of
    /// producing wire errors mid-run.
    pub fn validate(&self, net: &RoadNetwork) -> Result<(), String> {
        let n = net.num_nodes() as NodeId;
        for (i, set) in self.o2m_sets.iter().enumerate() {
            if set.is_empty() {
                return Err(format!("o2m set {i} is empty"));
            }
            if let Some(&v) = set.iter().find(|&&v| v >= n) {
                return Err(format!("o2m set {i} targets vertex {v} >= |V| = {n}"));
            }
        }
        if self.knn_ks.contains(&0) {
            return Err("kNN sweep contains k = 0".into());
        }
        Ok(())
    }
}

/// Generates the workload shapes for `net` from one seed.
pub fn generate_workload(net: &RoadNetwork, params: &ShapeGenParams) -> Workload {
    let mut rng = StdRng::seed_from_u64(params.seed);
    let n = net.num_nodes() as NodeId;
    assert!(n > 0, "cannot generate a workload for an empty network");

    let o2m_sets: Vec<Vec<NodeId>> = (0..params.o2m_sets)
        .map(|_| {
            (0..params.o2m_targets.max(1))
                .map(|_| rng.random_range(0..n))
                .collect()
        })
        .collect();

    // k-sweep: geometric-ish spread from 1 toward a quarter of the
    // vertex count, deduplicated and sorted. Small networks simply get
    // a shorter sweep.
    let k_cap = (n / 4).clamp(1, 4096);
    let mut knn_ks: Vec<u32> = (0..params.knn_ks.max(1))
        .map(|i| (1u32 << i.min(12)).min(k_cap).max(1))
        .collect();
    knn_ks.sort_unstable();
    knn_ks.dedup();

    // Radii from the distance profile of a few sampled sources:
    // percentiles between the 5th and the 60th, so range answers stay
    // bounded but non-trivial.
    let mut profile: Vec<Dist> = Vec::new();
    let mut oracle = Dijkstra::new(net.num_nodes());
    for _ in 0..3 {
        let s = rng.random_range(0..n);
        oracle.run(net, s);
        profile.extend((0..n).filter_map(|v| oracle.distance(v)));
    }
    profile.sort_unstable();
    let mut range_radii: Vec<Dist> = (0..params.range_radii.max(1))
        .map(|i| {
            let frac = 0.05 + 0.55 * (i as f64 / params.range_radii.max(2) as f64);
            let idx = ((profile.len() as f64 * frac) as usize).min(profile.len().saturating_sub(1));
            profile.get(idx).copied().unwrap_or(0)
        })
        .collect();
    range_radii.sort_unstable();

    Workload {
        seed: params.seed,
        o2m_sets,
        knn_ks,
        range_radii,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_synth::SynthParams;

    fn net() -> RoadNetwork {
        spq_synth::generate(&SynthParams::with_target_vertices(96, 3))
    }

    #[test]
    fn generation_is_seed_deterministic() {
        let net = net();
        let a = generate_workload(&net, &ShapeGenParams::default());
        let b = generate_workload(&net, &ShapeGenParams::default());
        assert_eq!(a, b);
        let c = generate_workload(
            &net,
            &ShapeGenParams {
                seed: 99,
                ..ShapeGenParams::default()
            },
        );
        assert_ne!(a, c, "different seeds must produce different shapes");
        assert!(a.validate(&net).is_ok());
    }

    #[test]
    fn roundtrips_through_the_container() {
        let net = net();
        let w = generate_workload(&net, &ShapeGenParams::default());
        let mut buf = Vec::new();
        w.write_binary(&mut buf).unwrap();
        let back = Workload::read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(w, back);

        // Byte-identical across generations: the persistence layer is
        // what CI replays, so serialisation itself must be stable.
        let mut buf2 = Vec::new();
        generate_workload(&net, &ShapeGenParams::default())
            .write_binary(&mut buf2)
            .unwrap();
        assert_eq!(buf, buf2);
    }

    #[test]
    fn corruption_is_a_typed_error() {
        let net = net();
        let w = generate_workload(&net, &ShapeGenParams::default());
        let mut buf = Vec::new();
        w.write_binary(&mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        match Workload::read_binary(&mut buf.as_slice()) {
            Err(IndexLoadError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        buf[last] ^= 0x40;
        buf.truncate(buf.len() - 3);
        match Workload::read_binary(&mut buf.as_slice()) {
            Err(IndexLoadError::Truncated { .. }) => {}
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn shapes_respect_network_bounds() {
        let net = net();
        let w = generate_workload(&net, &ShapeGenParams::default());
        let n = net.num_nodes() as NodeId;
        assert!(w.o2m_sets.iter().flatten().all(|&v| v < n));
        assert!(w.knn_ks.windows(2).all(|p| p[0] < p[1]));
        assert!(w.knn_ks.iter().all(|&k| k >= 1));
        assert!(w.range_radii.windows(2).all(|p| p[0] <= p[1]));
        // A workload aimed at a bigger network fails validation here.
        let tiny = spq_synth::generate(&SynthParams::with_target_vertices(8, 2));
        assert!(w.validate(&tiny).is_err());
    }
}
