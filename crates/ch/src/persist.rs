//! Binary persistence for contraction hierarchies.
//!
//! CH preprocessing is cheap (minutes on the paper's largest dataset)
//! but still worth doing once: a routing service restarts with a
//! `read_binary` in milliseconds instead of re-contracting.

use std::io::{self, Read, Write};

use spq_graph::binio::{self, IndexLoadError};
use spq_graph::types::NodeId;

use crate::contraction::ContractionHierarchy;
use crate::search_graph::SearchEdge;

const MAGIC: &[u8; 4] = b"SPQC";
/// Version 3 appends the flattened rank-renumbered search graph to the
/// version-2 payload, so a load hands the query kernels the exact layout
/// that was built (and cross-checks it against a fresh derivation).
/// Version-2 files (base arrays only) still load — the search graph is
/// rebuilt on the fly. Version-1 files predate the checksummed container
/// ([`binio::write_checksummed`]) and are refused (rebuild to migrate).
const VERSION: u32 = 3;
const MIN_VERSION: u32 = 2;

/// Flattens interleaved edge records to the plain `u32` stream
/// [`binio::write_u32s`] speaks: `target, weight, middle` per record.
fn edges_to_u32s(edges: &[SearchEdge]) -> Vec<u32> {
    let mut out = Vec::with_capacity(edges.len() * 3);
    for e in edges {
        out.push(e.target);
        out.push(e.weight);
        out.push(e.middle);
    }
    out
}

fn u32s_to_edges(raw: &[u32]) -> Result<Vec<SearchEdge>, String> {
    if raw.len() % 3 != 0 {
        return Err("edge section length is not a multiple of 3".into());
    }
    Ok(raw
        .chunks_exact(3)
        .map(|c| SearchEdge {
            target: c[0],
            weight: c[1],
            middle: c[2],
        })
        .collect())
}

impl ContractionHierarchy {
    /// Serialises the hierarchy (ranks + upward graph + shortcut tags,
    /// followed by the flat search-graph sections) inside a checksummed
    /// container.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        let mut body = Vec::with_capacity(self.serialized_len() - binio::CONTAINER_HEADER_LEN);
        binio::write_u64(&mut body, self.num_shortcuts() as u64)?;
        let (rank, up_first, up_head, up_weight, up_middle) = self.raw_parts();
        binio::write_u32s(&mut body, rank)?;
        binio::write_u32s(&mut body, up_first)?;
        binio::write_u32s(&mut body, up_head)?;
        binio::write_u32s(&mut body, up_weight)?;
        binio::write_u32s(&mut body, up_middle)?;
        let (node, sg_up_first, sg_up, sg_down_first, sg_down) = self.search_graph().sections();
        binio::write_u32s(&mut body, node)?;
        binio::write_u32s(&mut body, sg_up_first)?;
        binio::write_u32s(&mut body, &edges_to_u32s(sg_up))?;
        binio::write_u32s(&mut body, sg_down_first)?;
        binio::write_u32s(&mut body, &edges_to_u32s(sg_down))?;
        binio::write_checksummed(w, MAGIC, VERSION, &body)
    }

    /// Exact length in bytes of what [`ContractionHierarchy::write_binary`]
    /// writes: the container header, the shortcut count, and ten
    /// length-prefixed `u32` sections.
    pub fn serialized_len(&self) -> usize {
        let (rank, up_first, up_head, up_weight, up_middle) = self.raw_parts();
        let (node, sg_up_first, sg_up, sg_down_first, sg_down) = self.search_graph().sections();
        let words = rank.len()
            + up_first.len()
            + up_head.len()
            + up_weight.len()
            + up_middle.len()
            + node.len()
            + sg_up_first.len()
            + 3 * sg_up.len()
            + sg_down_first.len()
            + 3 * sg_down.len();
        binio::CONTAINER_HEADER_LEN + 8 + 10 * 8 + 4 * words
    }

    /// Deserialises a hierarchy written by
    /// [`ContractionHierarchy::write_binary`], verifying the checksum
    /// and structural invariants before returning it. Accepts version-2
    /// files (pre-search-graph) as a migration path: their flat layout
    /// is rebuilt from the base arrays.
    pub fn read_binary(r: &mut impl Read) -> Result<ContractionHierarchy, IndexLoadError> {
        let (version, body) = binio::read_checksummed_versioned(r, MAGIC, MIN_VERSION, VERSION)?;
        let r = &mut &body[..];
        let num_shortcuts = binio::read_u64(r)? as usize;
        let rank = binio::read_u32s(r)?;
        let up_first = binio::read_u32s(r)?;
        let up_head = binio::read_u32s(r)?;
        let up_weight = binio::read_u32s(r)?;
        let up_middle = binio::read_u32s(r)?;
        let ch = ContractionHierarchy::from_raw_parts(
            rank,
            up_first,
            up_head,
            up_weight,
            up_middle,
            num_shortcuts,
        )
        .map_err(IndexLoadError::Corrupt)?;
        if version >= 3 {
            // The stored search graph must equal the one derived from the
            // base arrays — anything else means the two sections of the
            // file disagree, i.e. it was not produced by `write_binary`.
            let node: Vec<NodeId> = binio::read_u32s(r)?;
            let sg_up_first = binio::read_u32s(r)?;
            let sg_up = u32s_to_edges(&binio::read_u32s(r)?).map_err(IndexLoadError::Corrupt)?;
            let sg_down_first = binio::read_u32s(r)?;
            let sg_down = u32s_to_edges(&binio::read_u32s(r)?).map_err(IndexLoadError::Corrupt)?;
            let (enode, eup_first, eup, edown_first, edown) = ch.search_graph().sections();
            if node != enode
                || sg_up_first != eup_first
                || sg_up != eup
                || sg_down_first != edown_first
                || sg_down != edown
            {
                return Err(IndexLoadError::Corrupt(
                    "search-graph section disagrees with the base arrays".into(),
                ));
            }
        }
        Ok(ch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ChQuery;
    use spq_graph::toy::{figure1, grid_graph};
    use spq_graph::types::NodeId;

    #[test]
    fn roundtrip_answers_identically() {
        for g in [figure1(), grid_graph(6, 8)] {
            let ch = ContractionHierarchy::build(&g);
            let mut buf = Vec::new();
            ch.write_binary(&mut buf).unwrap();
            assert_eq!(buf.len(), ch.serialized_len());
            let ch2 = ContractionHierarchy::read_binary(&mut &buf[..]).unwrap();
            assert_eq!(ch2.num_nodes(), ch.num_nodes());
            assert_eq!(ch2.num_shortcuts(), ch.num_shortcuts());
            assert_eq!(ch2.search_graph(), ch.search_graph());
            let mut q1 = ChQuery::new(&ch);
            let mut q2 = ChQuery::new(&ch2);
            for s in 0..g.num_nodes() as NodeId {
                for t in 0..g.num_nodes() as NodeId {
                    assert_eq!(q1.distance(s, t), q2.distance(s, t));
                    assert_eq!(
                        q1.shortest_path(s, t).unwrap().1,
                        q2.shortest_path(s, t).unwrap().1
                    );
                }
            }
        }
    }

    /// A version-2 file (base arrays only, no search-graph sections)
    /// must still load, with the flat layout rebuilt on the fly.
    #[test]
    fn migrates_version_2_files() {
        let g = grid_graph(5, 6);
        let ch = ContractionHierarchy::build(&g);
        let mut body = Vec::new();
        binio::write_u64(&mut body, ch.num_shortcuts() as u64).unwrap();
        let (rank, up_first, up_head, up_weight, up_middle) = ch.raw_parts();
        binio::write_u32s(&mut body, rank).unwrap();
        binio::write_u32s(&mut body, up_first).unwrap();
        binio::write_u32s(&mut body, up_head).unwrap();
        binio::write_u32s(&mut body, up_weight).unwrap();
        binio::write_u32s(&mut body, up_middle).unwrap();
        let mut v2 = Vec::new();
        binio::write_checksummed(&mut v2, MAGIC, 2, &body).unwrap();

        let migrated = ContractionHierarchy::read_binary(&mut &v2[..]).unwrap();
        assert_eq!(migrated.search_graph(), ch.search_graph());
        // Re-serialising the migrated index produces a current-version
        // file, byte-identical to serialising the original.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        migrated.write_binary(&mut a).unwrap();
        ch.write_binary(&mut b).unwrap();
        assert_eq!(a, b);
    }

    /// A tampered search-graph section is rejected even though the base
    /// arrays parse (the checksum is recomputed to isolate the
    /// cross-section consistency check).
    #[test]
    fn rejects_inconsistent_search_graph_section() {
        let g = grid_graph(4, 4);
        let ch = ContractionHierarchy::build(&g);
        let mut buf = Vec::new();
        ch.write_binary(&mut buf).unwrap();
        // Re-pack the container with one weight flipped in the flat
        // upward section (the last-but-one array of the body).
        let body_start = 4 + 4 + 8 + 8;
        let mut body = buf[body_start..].to_vec();
        let n = ch.num_nodes();
        let m = ch.num_upward_edges();
        // Offsets: u64 + five base arrays (each u64 len + payload), the
        // node array, the up_first array, then the up edge records.
        let base = 8 + (8 + n * 4) + (8 + (n + 1) * 4) + 3 * (8 + m * 4);
        let up_records = base + (8 + n * 4) + (8 + (n + 1) * 4) + 8;
        body[up_records + 4] ^= 1; // weight of the first flat record
        let mut tampered = Vec::new();
        binio::write_checksummed(&mut tampered, MAGIC, VERSION, &body).unwrap();
        let err = ContractionHierarchy::read_binary(&mut &tampered[..]).unwrap_err();
        assert!(
            matches!(err, IndexLoadError::Corrupt(ref m) if m.contains("search-graph")),
            "got: {err}"
        );
    }

    #[test]
    fn rejects_invalid_payloads() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut buf = Vec::new();
        ch.write_binary(&mut buf).unwrap();
        buf[1] ^= 0xff;
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &buf[..]),
            Err(IndexLoadError::BadMagic { .. })
        ));
        // Truncation: drop the trailing section.
        let mut buf2 = Vec::new();
        ch.write_binary(&mut buf2).unwrap();
        buf2.truncate(buf2.len() - 9);
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &buf2[..]),
            Err(IndexLoadError::Truncated { .. })
        ));
        // A bit flip anywhere in the body trips the checksum.
        let mut buf3 = Vec::new();
        ch.write_binary(&mut buf3).unwrap();
        let mid = buf3.len() / 2;
        buf3[mid] ^= 0x04;
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &buf3[..]),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn rejects_legacy_version_with_clear_message() {
        // A pre-checksum (version 1) file: header + raw payload. It must
        // be refused outright, never half-parsed.
        let mut legacy = Vec::new();
        spq_graph::binio::write_header(&mut legacy, b"SPQC", 1).unwrap();
        spq_graph::binio::write_u64(&mut legacy, 0).unwrap();
        let err = ContractionHierarchy::read_binary(&mut &legacy[..]).unwrap_err();
        assert!(matches!(
            err,
            IndexLoadError::LegacyVersion { found: 1, .. }
        ));
        assert!(err.to_string().contains("rebuild"), "message: {err}");
    }
}
