//! Binary persistence for the hub-labeling index.
//!
//! Contraction and labelling are HL's cost (one merge and prune per
//! vertex), so serving restarts load a prebuilt `SPQH` container
//! instead of re-labeling. Version 2 of the container body is three
//! length-prefixed sections:
//!
//! ```text
//! first    u64 n+1      · (n+1) × u32          label starts, by vertex id
//! entries  u64 entries  · entries × (u32 hub, u32 dist)
//! SPQC     u64 bytes    · the embedded hierarchy's own container, verbatim
//! ```
//!
//! — the hierarchy keeps its format evolution (and its structural
//! cross-checks) without this crate re-encoding it. Version 1 (separate
//! `rank`/`hub` sections, 64-bit distances) is refused as
//! [`IndexLoadError::LegacyVersion`], and so is a version-2 file whose
//! embedded hierarchy is an `SPQC` older than the one `spq-ch` reads:
//! in both cases re-run `spq prep --kind hl`.

use std::io::{self, Read, Write};

use spq_ch::ContractionHierarchy;
use spq_graph::binio::{self, IndexLoadError};

use crate::labels::{Hl, HubLabels, LabelEntry};

const MAGIC: &[u8; 4] = b"SPQH";
const VERSION: u32 = 2;

impl Hl {
    /// Exact length in bytes of what [`Hl::write_binary`] writes.
    pub fn serialized_len(&self) -> usize {
        let (first, entries) = self.labels().sections();
        binio::CONTAINER_HEADER_LEN
            + (8 + 4 * first.len())
            + (8 + 8 * entries.len())
            + (8 + self.hierarchy().serialized_len())
    }

    /// Serialises the labels and the embedded hierarchy inside one
    /// checksummed container, one conversion chunk at a time; the
    /// hierarchy writes its own container into the body behind its
    /// length.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        let (first, entries) = self.labels().sections();
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u32s(w, first)?;
            binio::write_array(w, entries, LabelEntry::to_le)?;
            binio::write_u64(w, self.hierarchy().serialized_len() as u64)?;
            self.hierarchy().write_binary(w)
        })
    }

    /// Deserialises an index written by [`Hl::write_binary`]. The label
    /// sections and — through a nested reader over the tail of the body —
    /// the embedded hierarchy's sections are read straight into their
    /// final vectors while both checksums are computed; only a body that
    /// passes is then validated: the label store's structural
    /// invariants ([`HubLabels::from_raw`]), the hierarchy's, and their
    /// agreement ([`Hl::from_parts`]).
    pub fn read_binary(r: &mut impl Read) -> Result<Hl, IndexLoadError> {
        let (first, entries, ch) = binio::read_container(r, MAGIC, VERSION, |body| {
            let first = body.read_u32s()?;
            let entries = body.read_array(LabelEntry::from_le)?;
            let ch_len = binio::read_u64(body)?;
            if ch_len != body.remaining() {
                return Err(IndexLoadError::Corrupt(format!(
                    "embedded hierarchy declares {ch_len} bytes, {} follow",
                    body.remaining()
                )));
            }
            let ch = ContractionHierarchy::read_sections(body).map_err(embedded)?;
            Ok((first, entries, ch))
        })?;
        let labels = HubLabels::from_raw(first, entries).map_err(IndexLoadError::Corrupt)?;
        let ch = ch.validate().map_err(embedded)?;
        Hl::from_parts(ch, labels).map_err(IndexLoadError::Corrupt)
    }
}

/// Files a failure of the embedded `SPQC` under the `SPQH` that holds
/// it. An old embedded layout is an old file, not a damaged one: it
/// keeps its type, so the degrade chain reports it as such.
fn embedded(e: IndexLoadError) -> IndexLoadError {
    match e {
        IndexLoadError::LegacyVersion { .. } => e,
        e => IndexLoadError::Corrupt(format!("embedded hierarchy: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::toy::{figure1, grid_graph};
    use spq_graph::types::NodeId;

    fn container_of(hl: &Hl) -> Vec<u8> {
        let mut buf = Vec::new();
        hl.write_binary(&mut buf).unwrap();
        buf
    }

    /// A version-2 container with a valid checksum around arbitrary
    /// sections, to isolate the structural checks from the checksum.
    fn pack(first: &[u32], entries: &[LabelEntry], ch_bytes: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        binio::write_u32s(&mut body, first).unwrap();
        binio::write_array(&mut body, entries, LabelEntry::to_le).unwrap();
        binio::write_u8s(&mut body, ch_bytes).unwrap();
        container_around(MAGIC, VERSION, &body)
    }

    /// A container of any format and version around arbitrary bytes.
    fn container_around(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        binio::write_container(&mut out, magic, version, |w| w.write_all(body)).unwrap();
        out
    }

    fn ch_bytes_of(hl: &Hl) -> Vec<u8> {
        let mut buf = Vec::new();
        hl.hierarchy().write_binary(&mut buf).unwrap();
        buf
    }

    fn corrupt_reason(container: &[u8]) -> String {
        match Hl::read_binary(&mut &container[..]) {
            Err(IndexLoadError::Corrupt(reason)) => reason,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_answers_identically() {
        for g in [figure1(), grid_graph(6, 8)] {
            let hl = Hl::build(&g);
            let buf = container_of(&hl);
            let hl2 = Hl::read_binary(&mut &buf[..]).unwrap();
            assert_eq!(hl2.labels(), hl.labels());
            for s in 0..g.num_nodes() as NodeId {
                for t in 0..g.num_nodes() as NodeId {
                    assert_eq!(hl2.labels().distance(s, t), hl.labels().distance(s, t));
                }
            }
            // Write → read → write is byte-stable.
            assert_eq!(container_of(&hl2), buf);
        }
    }

    /// The footprint as a tested fact: 8 bytes per label entry, 4 per
    /// vertex (+1), three section prefixes, the hierarchy's container,
    /// one header — which `serialized_len` predicts without writing.
    #[test]
    fn container_size_follows_the_layout() {
        for g in [figure1(), grid_graph(9, 4)] {
            let hl = Hl::build(&g);
            let buf = container_of(&hl);
            let n = g.num_nodes();
            let expect = 24
                + (8 + 4 * (n + 1))
                + (8 + 8 * hl.labels().num_entries())
                + (8 + ch_bytes_of(&hl).len());
            assert_eq!(buf.len(), expect);
            assert_eq!(hl.serialized_len(), expect);
            let (first, entries) = hl.labels().sections();
            assert_eq!(pack(first, entries, &ch_bytes_of(&hl)), buf, "hand-packed");
        }
    }

    #[test]
    fn rejects_invalid_payloads() {
        let g = figure1();
        let hl = Hl::build(&g);
        let buf = container_of(&hl);

        let mut bad_magic = buf.clone();
        bad_magic[2] ^= 0xff;
        assert!(matches!(
            Hl::read_binary(&mut &bad_magic[..]),
            Err(IndexLoadError::BadMagic { .. })
        ));

        let mut truncated = buf.clone();
        truncated.truncate(truncated.len() - 11);
        assert!(matches!(
            Hl::read_binary(&mut &truncated[..]),
            Err(IndexLoadError::Truncated { .. })
        ));

        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(matches!(
            Hl::read_binary(&mut &flipped[..]),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
    }

    /// One format, one reader: the version-1 layout is refused by its
    /// version number (whatever its body), and so is anything newer.
    #[test]
    fn rejects_other_versions() {
        let v1 = container_around(MAGIC, 1, b"rank first hub dist SPQC");
        assert!(matches!(
            Hl::read_binary(&mut &v1[..]),
            Err(IndexLoadError::LegacyVersion {
                found: 1,
                supported: 2
            })
        ));

        let future = container_around(MAGIC, VERSION + 1, b"");
        assert!(matches!(
            Hl::read_binary(&mut &future[..]),
            Err(IndexLoadError::UnsupportedVersion { found: 3, .. })
        ));
    }

    /// An `SPQH` written before `SPQC` version 4 embeds a hierarchy the
    /// one reader refuses: the file as a whole is legacy (re-run
    /// `spq prep --kind hl`), not corrupt.
    #[test]
    fn rejects_a_legacy_embedded_hierarchy_as_legacy() {
        let hl = Hl::build(&figure1());
        let (first, entries) = hl.labels().sections();
        let old_ch = container_around(b"SPQC", 3, b"base arrays + flat halves");
        assert!(matches!(
            Hl::read_binary(&mut &pack(first, entries, &old_ch)[..]),
            Err(IndexLoadError::LegacyVersion {
                found: 3,
                supported: 4
            })
        ));
    }

    /// Structurally broken label sections are rejected as `Corrupt` even
    /// when the container checksum is valid.
    #[test]
    fn rejects_tampered_label_sections() {
        let g = grid_graph(4, 4);
        let hl = Hl::build(&g);
        let (first, entries) = hl.labels().sections();
        let ch_bytes = ch_bytes_of(&hl);

        // Two vertices claiming the same rank (the top vertex's label
        // is its head alone, so re-ranking it breaks nothing else).
        let mut bad = entries.to_vec();
        let top = g.num_nodes() as u32 - 1;
        bad.iter_mut()
            .find(|e| e.dist == 0 && e.hub == top)
            .unwrap()
            .hub = 0;
        assert!(corrupt_reason(&pack(first, &bad, &ch_bytes)).contains("permutation"));

        // A label out of order (swap the two entries after a head).
        let v = (0..g.num_nodes())
            .find(|&v| first[v + 1] - first[v] >= 3)
            .expect("some label has three entries");
        let mut bad = entries.to_vec();
        bad.swap(first[v] as usize + 1, first[v] as usize + 2);
        assert!(corrupt_reason(&pack(first, &bad, &ch_bytes)).contains("strictly ascending"));

        // A head entry at a non-zero distance.
        let mut bad = entries.to_vec();
        bad[first[3] as usize].dist = 1;
        assert!(corrupt_reason(&pack(first, &bad, &ch_bytes)).contains("(rank, 0)"));
    }

    /// A corrupted *embedded hierarchy* is surfaced with its own error
    /// context, not silently accepted; so is a hierarchy section that
    /// does not end where the body does.
    #[test]
    fn rejects_corrupt_embedded_hierarchy() {
        let g = figure1();
        let hl = Hl::build(&g);
        let (first, entries) = hl.labels().sections();
        let mut ch_bytes = ch_bytes_of(&hl);
        let mid = ch_bytes.len() / 2;
        ch_bytes[mid] ^= 0x40;
        assert!(corrupt_reason(&pack(first, entries, &ch_bytes)).contains("embedded hierarchy"));

        let mut body = container_of(&hl)[binio::CONTAINER_HEADER_LEN..].to_vec();
        body.extend_from_slice(b"tail");
        let trailing = container_around(MAGIC, VERSION, &body);
        assert!(corrupt_reason(&trailing).contains("bytes"));
    }
}
