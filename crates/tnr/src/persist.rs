//! Binary persistence for TNR indexes.
//!
//! Stores the parameters, the embedded contraction hierarchy, the
//! access-node structure, and both distance tables (`I1`, `I2`). The
//! vertex grid is rebuilt deterministically from the network at load
//! time. The serialised bytes double as the determinism witness for
//! parallel builds (`tests/determinism.rs`).

use std::io::{self, Read, Write};

use spq_ch::ContractionHierarchy;
use spq_graph::binio::{self, IndexLoadError};
use spq_graph::grid::VertexGrid;
use spq_graph::RoadNetwork;

use crate::access::AccessNodeStrategy;
use crate::index::{AccessIndex, Fallback, Tnr, TnrParams};

const MAGIC: &[u8; 4] = b"SPQT";
/// Version 2 wraps the payload in the checksummed container; version-1
/// files predate it and are refused at load (rebuild to migrate).
const VERSION: u32 = 2;

fn bad(msg: String) -> IndexLoadError {
    IndexLoadError::Corrupt(msg)
}

impl Tnr {
    /// Serialises the full index: parameters, hierarchy, access-node
    /// structure, and both distance tables, inside a checksummed
    /// container (the embedded hierarchy carries its own container, so
    /// it is integrity-checked twice — once by the outer checksum, once
    /// by its own).
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        let fallback = match self.params.fallback {
            Fallback::Ch => 0u8,
            Fallback::BiDijkstra => 1,
        };
        let access = match self.params.access {
            AccessNodeStrategy::Correct => 0u8,
            AccessNodeStrategy::FlawedBast => 1,
        };
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u64(w, self.net_nodes as u64)?;
            binio::write_u64(w, self.params.grid as u64)?;
            binio::write_u64(w, self.params.inner_radius as u64)?;
            binio::write_u64(w, self.params.outer_radius as u64)?;
            binio::write_u8s(w, &[fallback, access])?;
            self.ch.write_binary(w)?;
            binio::write_u32s(w, &self.access.access_list)?;
            binio::write_u32s(w, &self.access.cell_first)?;
            binio::write_u32s(w, &self.access.cell_access)?;
            binio::write_u32s(w, &self.access.vertex_first)?;
            binio::write_u32s(w, &self.access.vertex_access_dist)?;
            binio::write_u32s(w, &self.table)
        })
    }

    /// Deserialises an index written by [`Tnr::write_binary`],
    /// rebuilding the vertex grid over `net` (the same network the index
    /// was built on). The checksum and every structural invariant are
    /// verified before the index is returned.
    pub fn read_binary(net: &RoadNetwork, r: &mut impl Read) -> Result<Tnr, IndexLoadError> {
        let embedded = |e: IndexLoadError| bad(format!("embedded hierarchy: {e}"));
        let (scalars, modes, ch, arrays) = binio::read_container(r, MAGIC, VERSION, |body| {
            let mut scalars = [0u64; 4];
            for x in &mut scalars {
                *x = binio::read_u64(body)?;
            }
            let modes = body.read_u8s()?;
            let ch = ContractionHierarchy::read_sections(body).map_err(embedded)?;
            let mut arrays: [Vec<u32>; 6] = Default::default();
            for a in &mut arrays {
                *a = body.read_u32s()?;
            }
            Ok((scalars, modes, ch, arrays))
        })?;
        let [net_nodes, grid_g, inner_radius, outer_radius] = scalars;
        let net_nodes = net_nodes as usize;
        if net_nodes != net.num_nodes() {
            return Err(bad(format!(
                "index built over {net_nodes} vertices, network has {}",
                net.num_nodes()
            )));
        }
        if grid_g == 0 || grid_g > u32::MAX as u64 || modes.len() != 2 {
            return Err(bad("malformed TNR parameter block".into()));
        }
        let params = TnrParams {
            grid: grid_g as u32,
            inner_radius: inner_radius as u32,
            outer_radius: outer_radius as u32,
            fallback: match modes[0] {
                0 => Fallback::Ch,
                1 => Fallback::BiDijkstra,
                m => return Err(bad(format!("unknown fallback mode {m}"))),
            },
            access: match modes[1] {
                0 => AccessNodeStrategy::Correct,
                1 => AccessNodeStrategy::FlawedBast,
                m => return Err(bad(format!("unknown access-node strategy {m}"))),
            },
        };
        let ch = ch.validate().map_err(embedded)?;
        if ch.num_nodes() != net_nodes {
            return Err(bad("embedded hierarchy does not match the network".into()));
        }
        let [access_list, cell_first, cell_access, vertex_first, vertex_access_dist, table] =
            arrays;

        let grid = VertexGrid::build(net, params.grid);
        let num_cells = grid.frame().num_cells();
        if cell_first.len() != num_cells + 1
            || cell_first[num_cells] as usize != cell_access.len()
            || vertex_first.len() != net_nodes + 1
            || vertex_first[net_nodes] as usize != vertex_access_dist.len()
            || table.len() != access_list.len() * access_list.len()
        {
            return Err(bad("TNR table shapes are inconsistent".into()));
        }
        if let Some(&a) = cell_access
            .iter()
            .find(|&&a| a as usize >= access_list.len())
        {
            return Err(bad(format!(
                "access index {a} out of range for {} access nodes",
                access_list.len()
            )));
        }
        Ok(Tnr {
            net_nodes,
            params,
            access: AccessIndex {
                grid,
                access_list,
                cell_first,
                cell_access,
                vertex_first,
                vertex_access_dist,
            },
            ch,
            table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::types::NodeId;
    use spq_synth::SynthParams;

    #[test]
    fn roundtrip_answers_identically() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(500, 77));
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 8,
                ..TnrParams::default()
            },
        );
        let mut buf = Vec::new();
        tnr.write_binary(&mut buf).unwrap();
        let tnr2 = Tnr::read_binary(&net, &mut &buf[..]).unwrap();
        assert_eq!(tnr2.num_access_nodes(), tnr.num_access_nodes());
        let mut q1 = tnr.query();
        let mut q2 = tnr2.query();
        for s in (0..net.num_nodes() as NodeId).step_by(29) {
            for t in (0..net.num_nodes() as NodeId).step_by(37) {
                assert_eq!(q1.distance(s, t), q2.distance(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn rejects_inconsistent_payloads() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(300, 78));
        let tnr = Tnr::build(
            &net,
            &TnrParams {
                grid: 8,
                ..TnrParams::default()
            },
        );
        let mut buf = Vec::new();
        tnr.write_binary(&mut buf).unwrap();
        buf[1] ^= 0xff;
        assert!(matches!(
            Tnr::read_binary(&net, &mut &buf[..]),
            Err(IndexLoadError::BadMagic { .. })
        ));
        // A bit flip deep in the body trips the outer checksum.
        let mut flipped = Vec::new();
        tnr.write_binary(&mut flipped).unwrap();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            Tnr::read_binary(&net, &mut &flipped[..]),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
        // A different network (vertex count) must be rejected.
        let other = spq_synth::generate(&SynthParams::with_target_vertices(400, 79));
        let mut buf2 = Vec::new();
        tnr.write_binary(&mut buf2).unwrap();
        if other.num_nodes() != net.num_nodes() {
            assert!(Tnr::read_binary(&other, &mut &buf2[..]).is_err());
        }
    }
}
