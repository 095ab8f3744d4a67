//! Binary persistence for ALT indexes.
//!
//! The landmark table is the whole index (`k × n` u32 distances plus the
//! landmark ids), so the format is a direct dump of those arrays. The
//! serialised bytes double as the determinism witness for parallel
//! builds (`tests/determinism.rs`).

use std::io::{self, Read, Write};

use spq_graph::binio::{self, IndexLoadError};
use spq_graph::types::NodeId;

use crate::landmarks::Alt;

const MAGIC: &[u8; 4] = b"SPQA";
/// Version 2 wraps the payload in the checksummed container; version-1
/// files predate it and are refused at load (rebuild to migrate).
const VERSION: u32 = 2;

impl Alt {
    /// Serialises the landmark ids and the distance table inside a
    /// checksummed container.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u64(w, self.num_nodes() as u64)?;
            binio::write_u32s(w, self.landmarks())?;
            binio::write_u32s(w, self.dist_table())
        })
    }

    /// Deserialises an index written by [`Alt::write_binary`], verifying
    /// the checksum and structural invariants before returning it.
    pub fn read_binary(r: &mut impl Read) -> Result<Alt, IndexLoadError> {
        let (n, landmarks, dist) = binio::read_container(r, MAGIC, VERSION, |body| {
            let n = binio::read_u64(body)? as usize;
            let landmarks: Vec<NodeId> = body.read_u32s()?;
            Ok((n, landmarks, body.read_u32s()?))
        })?;
        Alt::from_raw_parts(landmarks, dist, n).map_err(IndexLoadError::Corrupt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::landmarks::AltParams;
    use spq_graph::toy::grid_graph;
    use spq_graph::types::NodeId;

    #[test]
    fn roundtrip_answers_identically() {
        let g = grid_graph(7, 6);
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 4,
                ..AltParams::default()
            },
        );
        let mut buf = Vec::new();
        alt.write_binary(&mut buf).unwrap();
        let alt2 = Alt::read_binary(&mut &buf[..]).unwrap();
        assert_eq!(alt2.landmarks(), alt.landmarks());
        for v in 0..g.num_nodes() as NodeId {
            for t in 0..g.num_nodes() as NodeId {
                assert_eq!(alt2.lower_bound(v, t), alt.lower_bound(v, t));
            }
        }
    }

    #[test]
    fn rejects_inconsistent_payloads() {
        let g = grid_graph(4, 4);
        let alt = Alt::build(
            &g,
            &AltParams {
                num_landmarks: 3,
                ..AltParams::default()
            },
        );
        let mut buf = Vec::new();
        alt.write_binary(&mut buf).unwrap();
        buf[0] ^= 0xff;
        assert!(matches!(
            Alt::read_binary(&mut &buf[..]),
            Err(IndexLoadError::BadMagic { .. })
        ));
        let mut buf2 = Vec::new();
        alt.write_binary(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 4); // table no longer k × n
        assert!(matches!(
            Alt::read_binary(&mut &buf2[..]),
            Err(IndexLoadError::Truncated { .. })
        ));
        // A flipped byte inside the table trips the checksum.
        let mut buf3 = Vec::new();
        alt.write_binary(&mut buf3).unwrap();
        let mid = buf3.len() / 2;
        buf3[mid] ^= 0x80;
        assert!(matches!(
            Alt::read_binary(&mut &buf3[..]),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
    }
}
