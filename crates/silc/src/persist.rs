//! Binary persistence for SILC indexes.
//!
//! SILC preprocessing is the most expensive in the suite (all-pairs
//! shortest paths, Figure 6(b)), so shipping the compressed colour maps
//! instead of recomputing them matters most here. The format dumps the
//! per-source CSR arrays directly; the serialised bytes double as the
//! determinism witness for parallel builds (`tests/determinism.rs`).

use std::io::{self, Read, Write};

use spq_graph::binio::{self, IndexLoadError};

use crate::index::Silc;

const MAGIC: &[u8; 4] = b"SPQS";
/// Version 2 wraps the payload in the checksummed container; version-1
/// files predate it and are refused at load (rebuild to migrate).
const VERSION: u32 = 2;

impl Silc {
    /// Serialises the Morton codes and the per-source block/exception
    /// CSR arrays inside a checksummed container.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u64s(w, &self.node_code)?;
            binio::write_u32s(w, &self.block_first)?;
            binio::write_u64s(w, &self.block_code)?;
            binio::write_u8s(w, &self.block_color)?;
            binio::write_u32s(w, &self.exc_first)?;
            binio::write_u32s(w, &self.exc_node)?;
            binio::write_u8s(w, &self.exc_color)
        })
    }

    /// Deserialises an index written by [`Silc::write_binary`],
    /// verifying the checksum and CSR invariants before returning it.
    pub fn read_binary(r: &mut impl Read) -> Result<Silc, IndexLoadError> {
        let silc = binio::read_container(r, MAGIC, VERSION, |body| {
            Ok(Silc {
                node_code: body.read_u64s()?,
                block_first: body.read_u32s()?,
                block_code: body.read_u64s()?,
                block_color: body.read_u8s()?,
                exc_first: body.read_u32s()?,
                exc_node: body.read_u32s()?,
                exc_color: body.read_u8s()?,
            })
        })?;
        let bad = |msg: &str| Err(IndexLoadError::Corrupt(msg.to_string()));
        let n = silc.node_code.len();
        if silc.block_first.len() != n + 1 || silc.exc_first.len() != n + 1 {
            return bad("CSR offsets do not match the vertex count");
        }
        if silc.block_first[n] as usize != silc.block_code.len()
            || silc.block_code.len() != silc.block_color.len()
            || silc.exc_first[n] as usize != silc.exc_node.len()
            || silc.exc_node.len() != silc.exc_color.len()
        {
            return bad("CSR payload lengths do not match their offsets");
        }
        Ok(silc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::grid_graph;
    use spq_graph::types::NodeId;

    #[test]
    fn roundtrip_answers_identically() {
        let g = grid_graph(6, 5);
        let silc = Silc::build(&g);
        let mut buf = Vec::new();
        silc.write_binary(&mut buf).unwrap();
        let silc2 = Silc::read_binary(&mut &buf[..]).unwrap();
        let mut q1 = silc.query(&g);
        let mut q2 = silc2.query(&g);
        for s in 0..g.num_nodes() as NodeId {
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(q1.shortest_path(s, t), q2.shortest_path(s, t), "({s},{t})");
            }
        }
    }

    #[test]
    fn rejects_inconsistent_payloads() {
        let g = grid_graph(4, 4);
        let silc = Silc::build(&g);
        let mut buf = Vec::new();
        silc.write_binary(&mut buf).unwrap();
        buf[2] ^= 0xff;
        assert!(Silc::read_binary(&mut &buf[..]).is_err());
        let mut buf2 = Vec::new();
        silc.write_binary(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 1); // drop one exception colour
        assert!(Silc::read_binary(&mut &buf2[..]).is_err());
    }
}
