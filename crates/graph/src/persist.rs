//! Binary persistence for road networks.
//!
//! DIMACS text files are the interchange format; this compact binary
//! form is for fast reloads of generated or preprocessed data (a US-size
//! network parses from text in tens of seconds but loads from this
//! format in well under one).

use std::io::{self, Read, Write};

use crate::binio;
use crate::csr::RoadNetwork;
use crate::geo::Point;
use crate::types::NodeId;

const MAGIC: &[u8; 4] = b"SPQN";
const VERSION: u32 = 1;

impl RoadNetwork {
    /// Serialises the network (adjacency + coordinates).
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        binio::write_header(w, MAGIC, VERSION)?;
        binio::write_u64(w, self.num_nodes() as u64)?;
        let mut fo = Vec::with_capacity(self.num_nodes() + 1);
        fo.push(0u32);
        let mut heads = Vec::with_capacity(self.num_arcs());
        let mut weights = Vec::with_capacity(self.num_arcs());
        for v in 0..self.num_nodes() as NodeId {
            for (h, wt) in self.neighbors(v) {
                heads.push(h);
                weights.push(wt);
            }
            fo.push(heads.len() as u32);
        }
        binio::write_u32s(w, &fo)?;
        binio::write_u32s(w, &heads)?;
        binio::write_u32s(w, &weights)?;
        let xs: Vec<i32> = self.coords().iter().map(|p| p.x).collect();
        let ys: Vec<i32> = self.coords().iter().map(|p| p.y).collect();
        binio::write_i32s(w, &xs)?;
        binio::write_i32s(w, &ys)?;
        Ok(())
    }

    /// Deserialises a network written by [`RoadNetwork::write_binary`].
    pub fn read_binary(r: &mut impl Read) -> io::Result<RoadNetwork> {
        let version = binio::read_header(r, MAGIC)?;
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported network format version {version}"),
            ));
        }
        let n = binio::read_u64(r)? as usize;
        let first_out = binio::read_u32s(r)?;
        let heads = binio::read_u32s(r)?;
        let weights = binio::read_u32s(r)?;
        let xs = binio::read_i32s(r)?;
        let ys = binio::read_i32s(r)?;
        if first_out.len() != n + 1
            || xs.len() != n
            || ys.len() != n
            || heads.len() != weights.len()
            || first_out.last().copied().unwrap_or(1) as usize != heads.len()
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "inconsistent section lengths",
            ));
        }
        for &h in &heads {
            if h as usize >= n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("arc head {h} out of range"),
                ));
            }
        }
        let coords: Vec<Point> = xs
            .into_iter()
            .zip(ys)
            .map(|(x, y)| Point::new(x, y))
            .collect();
        Ok(RoadNetwork::from_parts(
            first_out.into_boxed_slice(),
            heads.into_boxed_slice(),
            weights.into_boxed_slice(),
            coords.into_boxed_slice(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toy::{figure1, grid_graph};

    #[test]
    fn roundtrip_preserves_everything() {
        for g in [figure1(), grid_graph(7, 9)] {
            let mut buf = Vec::new();
            g.write_binary(&mut buf).unwrap();
            let g2 = RoadNetwork::read_binary(&mut &buf[..]).unwrap();
            assert_eq!(g2.num_nodes(), g.num_nodes());
            assert_eq!(g2.num_arcs(), g.num_arcs());
            for v in 0..g.num_nodes() as NodeId {
                assert_eq!(g2.coord(v), g.coord(v));
                assert!(g2.neighbors(v).eq(g.neighbors(v)));
            }
        }
    }

    #[test]
    fn rejects_corruption() {
        let g = figure1();
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();
        // Flip a byte in the magic.
        buf[0] ^= 0xff;
        assert!(RoadNetwork::read_binary(&mut &buf[..]).is_err());
        // Truncation.
        let mut buf2 = Vec::new();
        g.write_binary(&mut buf2).unwrap();
        buf2.truncate(buf2.len() / 2);
        assert!(RoadNetwork::read_binary(&mut &buf2[..]).is_err());
    }

    /// The network file carries no checksum, so a damaged section length
    /// reaches the slice readers as written: it must come back as an
    /// error, not as an attempt to allocate what the prefix claims.
    #[test]
    fn tampered_section_length_is_an_error_not_an_abort() {
        let g = grid_graph(5, 5);
        let mut buf = Vec::new();
        g.write_binary(&mut buf).unwrap();
        // header(8) · n(8) · first_out prefix(8) …
        buf[16..24].copy_from_slice(&(1u64 << 33).to_le_bytes());
        let err = RoadNetwork::read_binary(&mut &buf[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }
}
