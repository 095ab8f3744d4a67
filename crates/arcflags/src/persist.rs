//! Binary persistence for Arc Flags indexes.
//!
//! Only the flag words and the grid resolution are stored; the vertex
//! grid is rebuilt deterministically from the network at load time. The
//! serialised bytes double as the determinism witness for parallel
//! builds (`tests/determinism.rs`).

use std::io::{self, Read, Write};

use spq_graph::binio::{self, IndexLoadError};
use spq_graph::grid::VertexGrid;
use spq_graph::RoadNetwork;

use crate::ArcFlags;

const MAGIC: &[u8; 4] = b"SPQF";
/// Version 2 wraps the payload in the checksummed container; version-1
/// files predate it and are refused at load (rebuild to migrate).
const VERSION: u32 = 2;

impl ArcFlags {
    /// Serialises the grid resolution and the per-arc flag words inside
    /// a checksummed container.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u64(w, self.grid.frame().g() as u64)?;
            binio::write_u64s(w, &self.flags)
        })
    }

    /// Deserialises an index written by [`ArcFlags::write_binary`],
    /// rebuilding the vertex grid over `net` (the same network the index
    /// was built on). The checksum and shape invariants are verified
    /// before the index is returned.
    pub fn read_binary(net: &RoadNetwork, r: &mut impl Read) -> Result<ArcFlags, IndexLoadError> {
        let (g, flags) = binio::read_container(r, MAGIC, VERSION, |body| {
            Ok((binio::read_u64(body)?, body.read_u64s()?))
        })?;
        if g == 0 || g.saturating_mul(g) > 64 {
            return Err(IndexLoadError::Corrupt(format!(
                "grid resolution {g} does not fit the 64-bit flag word"
            )));
        }
        if flags.len() != net.num_arcs() {
            return Err(IndexLoadError::Corrupt(format!(
                "{} flag words for a network with {} arcs",
                flags.len(),
                net.num_arcs()
            )));
        }
        Ok(ArcFlags {
            grid: VertexGrid::build(net, g as u32),
            flags,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArcFlagsParams;
    use spq_graph::toy::grid_graph;
    use spq_graph::types::NodeId;

    #[test]
    fn roundtrip_answers_identically() {
        let net = grid_graph(7, 5);
        let af = ArcFlags::build(&net, &ArcFlagsParams { grid: 4 });
        let mut buf = Vec::new();
        af.write_binary(&mut buf).unwrap();
        let af2 = ArcFlags::read_binary(&net, &mut &buf[..]).unwrap();
        assert_eq!(af.flags, af2.flags);
        let mut q1 = af.query(&net);
        let mut q2 = af2.query(&net);
        for s in 0..net.num_nodes() as NodeId {
            for t in 0..net.num_nodes() as NodeId {
                assert_eq!(q1.distance(s, t), q2.distance(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn rejects_inconsistent_payloads() {
        let net = grid_graph(4, 4);
        let af = ArcFlags::build(&net, &ArcFlagsParams::default());
        let mut buf = Vec::new();
        af.write_binary(&mut buf).unwrap();
        buf[3] ^= 0xff;
        assert!(ArcFlags::read_binary(&net, &mut &buf[..]).is_err());
        // Flag count must match the network's arc count.
        let other = grid_graph(5, 5);
        let mut buf2 = Vec::new();
        af.write_binary(&mut buf2).unwrap();
        assert!(ArcFlags::read_binary(&other, &mut &buf2[..]).is_err());
    }
}
