//! Binary persistence for contraction hierarchies.
//!
//! CH preprocessing is cheap (minutes on the paper's largest dataset)
//! but still worth doing once: a routing service restarts with a
//! `read_binary` in milliseconds instead of re-contracting.
//!
//! The `SPQC` container (version 4) stores the hierarchy once — the
//! three sections `SearchGraph::from_sections` takes, 12 bytes per
//! upward edge:
//!
//! ```text
//! shortcuts  u64
//! rank       u64 n    · n × u32            original id → rank
//! up_first   u64 n+1  · (n+1) × u32        upward CSR offsets, by rank
//! up         u64 m    · m × (u32 target, u32 weight, u32 middle)
//! ```
//!
//! The inverse permutation is derived on load; in memory the hierarchy
//! is these sections plus that array.
//! Versions 2 and 3 (the upward graph stored in original ids, then a
//! second and third time flattened) are refused as
//! [`IndexLoadError::LegacyVersion`], like the pre-checksum version 1:
//! re-run `spq prep`.

use std::io::{self, Read, Write};

use spq_graph::binio::{self, IndexLoadError};

use crate::contraction::ContractionHierarchy;
use crate::search_graph::{SearchEdge, SearchGraph, NO_MIDDLE};

const MAGIC: &[u8; 4] = b"SPQC";
const VERSION: u32 = 4;

/// The sections of an `SPQC` container as read — checksummed, not yet
/// validated. Splitting the load here lets a format that embeds a
/// hierarchy (`SPQH`) pull the sections out of its own body, learn its
/// own checksum verdict, and only then have anything interpreted.
#[derive(Debug)]
pub struct ChSections {
    num_shortcuts: u64,
    rank: Vec<u32>,
    up_first: Vec<u32>,
    up: Vec<SearchEdge>,
}

impl ChSections {
    /// Checks every structural invariant searching and unpacking rely
    /// on (through `SearchGraph::from_sections`, which also derives the
    /// inverse permutation) and assembles the hierarchy.
    pub fn validate(self) -> Result<ContractionHierarchy, IndexLoadError> {
        let ChSections {
            num_shortcuts,
            rank,
            up_first,
            up,
        } = self;
        let tagged = up.iter().filter(|e| e.middle != NO_MIDDLE).count() as u64;
        if num_shortcuts < tagged {
            return Err(IndexLoadError::Corrupt(format!(
                "shortcut count {num_shortcuts} is below the {tagged} shortcuts stored"
            )));
        }
        let search =
            SearchGraph::from_sections(rank, up_first, up).map_err(IndexLoadError::Corrupt)?;
        Ok(ContractionHierarchy::from_parts(
            search,
            num_shortcuts as usize,
        ))
    }
}

impl ContractionHierarchy {
    /// Serialises the hierarchy inside a checksummed container, one
    /// conversion chunk at a time.
    pub fn write_binary(&self, w: &mut impl Write) -> io::Result<()> {
        let (rank, up_first, up) = self.search_graph().sections();
        binio::write_container(w, MAGIC, VERSION, |w| {
            binio::write_u64(w, self.num_shortcuts() as u64)?;
            binio::write_u32s(w, rank)?;
            binio::write_u32s(w, up_first)?;
            binio::write_array(w, up, SearchEdge::to_le)
        })
    }

    /// Exact length in bytes of what [`ContractionHierarchy::write_binary`]
    /// writes: the container header, the shortcut count, and three
    /// length-prefixed sections.
    pub fn serialized_len(&self) -> usize {
        let (rank, up_first, up) = self.search_graph().sections();
        binio::CONTAINER_HEADER_LEN
            + 8
            + (8 + 4 * rank.len())
            + (8 + 4 * up_first.len())
            + (8 + 12 * up.len())
    }

    /// Reads the sections of a container written by
    /// [`ContractionHierarchy::write_binary`] straight into their final
    /// vectors and verifies the checksum over them; nothing is
    /// interpreted yet.
    pub fn read_sections(r: &mut impl Read) -> Result<ChSections, IndexLoadError> {
        binio::read_container(r, MAGIC, VERSION, |body| {
            let sections = ChSections {
                num_shortcuts: binio::read_u64(body)?,
                rank: body.read_u32s()?,
                up_first: body.read_u32s()?,
                up: body.read_array(SearchEdge::from_le)?,
            };
            if body.remaining() > 0 {
                return Err(IndexLoadError::Corrupt(format!(
                    "{} bytes follow the last section",
                    body.remaining()
                )));
            }
            Ok(sections)
        })
    }

    /// Deserialises a hierarchy written by
    /// [`ContractionHierarchy::write_binary`]: sections and checksum
    /// first ([`ContractionHierarchy::read_sections`]), then every
    /// structural invariant ([`ChSections::validate`]).
    pub fn read_binary(r: &mut impl Read) -> Result<ContractionHierarchy, IndexLoadError> {
        Self::read_sections(r)?.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::ChQuery;
    use crate::search_graph::edge_to;
    use spq_graph::toy::{figure1, grid_graph};
    use spq_graph::types::NodeId;

    fn container_of(ch: &ContractionHierarchy) -> Vec<u8> {
        let mut buf = Vec::new();
        ch.write_binary(&mut buf).unwrap();
        buf
    }

    /// A version-4 container with a valid checksum around arbitrary
    /// sections, to isolate the structural checks from the checksum.
    fn pack(shortcuts: u64, rank: &[u32], up_first: &[u32], up: &[SearchEdge]) -> Vec<u8> {
        let mut body = Vec::new();
        binio::write_u64(&mut body, shortcuts).unwrap();
        binio::write_u32s(&mut body, rank).unwrap();
        binio::write_u32s(&mut body, up_first).unwrap();
        binio::write_array(&mut body, up, SearchEdge::to_le).unwrap();
        container_around(VERSION, &body)
    }

    /// An `SPQC` container of any version around arbitrary bytes.
    fn container_around(version: u32, body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        binio::write_container(&mut out, MAGIC, version, |w| w.write_all(body)).unwrap();
        out
    }

    fn corrupt_reason(container: &[u8]) -> String {
        match ContractionHierarchy::read_binary(&mut &container[..]) {
            Err(IndexLoadError::Corrupt(reason)) => reason,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// The loaded search graph — including the derived `node` array —
    /// equals the built one, the reloaded index answers
    /// identically, and write → read → write is byte-stable.
    #[test]
    fn roundtrip_restores_the_built_search_graph() {
        let synthetic = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(900, 4));
        for g in [figure1(), grid_graph(6, 8), grid_graph(11, 3), synthetic] {
            let ch = ContractionHierarchy::build(&g);
            let buf = container_of(&ch);
            let ch2 = ContractionHierarchy::read_binary(&mut &buf[..]).unwrap();
            assert_eq!(ch2.num_shortcuts(), ch.num_shortcuts());
            assert_eq!(ch2.search_graph(), ch.search_graph());
            assert_eq!(container_of(&ch2), buf);
            let mut q1 = ChQuery::new(&ch);
            let mut q2 = ChQuery::new(&ch2);
            let n = g.num_nodes() as NodeId;
            for (s, t) in (0..n)
                .step_by(7)
                .flat_map(|s| (0..n).step_by(5).map(move |t| (s, t)))
            {
                assert_eq!(q1.shortest_path(s, t), q2.shortest_path(s, t));
            }
        }
    }

    /// The footprint as a tested fact: one header, the shortcut count,
    /// 4 bytes per vertex twice (+1 offset), 12 per upward edge, three
    /// section prefixes — which `serialized_len` predicts without writing.
    #[test]
    fn container_size_follows_the_layout() {
        for g in [figure1(), grid_graph(9, 4)] {
            let ch = ContractionHierarchy::build(&g);
            let buf = container_of(&ch);
            let (n, m) = (g.num_nodes(), ch.num_upward_edges());
            let expect = 24 + 8 + (8 + 4 * n) + (8 + 4 * (n + 1)) + (8 + 12 * m);
            assert_eq!(buf.len(), expect);
            assert_eq!(ch.serialized_len(), expect);
            let (rank, up_first, up) = ch.search_graph().sections();
            assert_eq!(
                pack(ch.num_shortcuts() as u64, rank, up_first, up),
                buf,
                "hand-packed"
            );
        }
    }

    #[test]
    fn rejects_invalid_payloads() {
        let g = figure1();
        let ch = ContractionHierarchy::build(&g);
        let mut buf = container_of(&ch);
        buf[1] ^= 0xff;
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &buf[..]),
            Err(IndexLoadError::BadMagic { .. })
        ));
        // Truncation: drop the tail of the last section.
        let mut buf2 = container_of(&ch);
        buf2.truncate(buf2.len() - 9);
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &buf2[..]),
            Err(IndexLoadError::Truncated { .. })
        ));
        // A bit flip anywhere in the body trips the checksum.
        let mut buf3 = container_of(&ch);
        let mid = buf3.len() / 2;
        buf3[mid] ^= 0x04;
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &buf3[..]),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
    }

    /// One format, one reader: the pre-checksum version 1 and the
    /// original-id layouts of versions 2 and 3 are refused by their
    /// number (whatever their body), and so is anything newer.
    #[test]
    fn rejects_other_versions() {
        let mut v1 = Vec::new();
        binio::write_header(&mut v1, MAGIC, 1).unwrap();
        binio::write_u64(&mut v1, 0).unwrap();
        let err = ContractionHierarchy::read_binary(&mut &v1[..]).unwrap_err();
        assert!(matches!(
            err,
            IndexLoadError::LegacyVersion {
                found: 1,
                supported: 4
            }
        ));
        assert!(err.to_string().contains("rebuild"), "message: {err}");

        for old in [2, 3] {
            let file = container_around(old, b"rank up_first up_head ...");
            assert!(matches!(
                ContractionHierarchy::read_binary(&mut &file[..]),
                Err(IndexLoadError::LegacyVersion { found, supported: 4 }) if found == old
            ));
        }

        let future = container_around(VERSION + 1, b"");
        assert!(matches!(
            ContractionHierarchy::read_binary(&mut &future[..]),
            Err(IndexLoadError::UnsupportedVersion { found: 5, .. })
        ));
    }

    /// A forged container — valid checksum, sections that parse — whose
    /// hierarchy would make `PATH` panic or walk a wrong edge is refused
    /// at load, each way of forging it with its own reason.
    #[test]
    fn rejects_forged_hierarchies_with_a_valid_checksum() {
        let g = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(400, 9));
        let ch = ContractionHierarchy::build(&g);
        let shortcuts = ch.num_shortcuts() as u64;
        let (rank, up_first, up) = ch.search_graph().sections();
        let n = rank.len() as u32;
        assert!(
            ContractionHierarchy::read_binary(&mut &pack(shortcuts, rank, up_first, up)[..])
                .is_ok()
        );

        // Every tag shifted by one (mod n): in range, but the halves are
        // not where the tag says.
        let mut bad = up.to_vec();
        for e in bad.iter_mut().filter(|e| e.middle != NO_MIDDLE) {
            e.middle = (e.middle + 1) % n;
        }
        let reason = corrupt_reason(&pack(shortcuts, rank, up_first, &bad));
        assert!(reason.contains("tagged"), "{reason}");

        // A tag naming another vertex that really is joined to both
        // endpoints, by a longer way round: every lookup would succeed,
        // on the wrong edges.
        let sg = ch.search_graph();
        let (at, other) = (0..n)
            .flat_map(|a| {
                let base = up_first[a as usize] as usize;
                sg.up(a)
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (a, base + i, *e))
            })
            .filter(|(_, _, e)| e.middle != NO_MIDDLE)
            .find_map(|(a, at, e)| {
                (0..a)
                    .filter(|&m| m != e.middle)
                    .find(|&m| {
                        let to = |t| edge_to(sg.up(m), t).map(|h| h.weight as u64);
                        to(a)
                            .zip(to(e.target))
                            .is_some_and(|(x, y)| x + y != e.weight as u64)
                    })
                    .map(|m| (at, m))
            })
            .expect("some shortcut has a second common lower neighbour");
        let mut bad = up.to_vec();
        bad[at].middle = other;
        let reason = corrupt_reason(&pack(shortcuts, rank, up_first, &bad));
        assert!(reason.contains("halves weigh"), "{reason}");

        // Two records for one (source, target) pair; targets descending.
        let first = up_first
            .windows(2)
            .find(|w| w[1] - w[0] >= 2)
            .expect("some vertex has two upward edges")[0] as usize;
        let mut bad = up.to_vec();
        bad[first + 1].target = bad[first].target;
        let reason = corrupt_reason(&pack(shortcuts, rank, up_first, &bad));
        assert!(reason.contains("ascend strictly"), "{reason}");
        let mut bad = up.to_vec();
        bad.swap(first, first + 1);
        let reason = corrupt_reason(&pack(shortcuts, rank, up_first, &bad));
        assert!(reason.contains("ascend strictly"), "{reason}");

        // `rank` not a permutation; `up_first` not monotone.
        let mut bad = rank.to_vec();
        bad[0] = bad[1];
        let reason = corrupt_reason(&pack(shortcuts, &bad, up_first, up));
        assert!(reason.contains("permutation"), "{reason}");
        let mut bad = up_first.to_vec();
        bad[1] = bad[2] + 1;
        let reason = corrupt_reason(&pack(shortcuts, rank, &bad, up));
        assert!(reason.contains("non-decreasing"), "{reason}");

        // A shortcut count the stored shortcuts contradict; trailing bytes.
        let reason = corrupt_reason(&pack(0, rank, up_first, up));
        assert!(reason.contains("shortcut count"), "{reason}");
        let mut body = container_of(&ch)[binio::CONTAINER_HEADER_LEN..].to_vec();
        body.extend_from_slice(b"tail");
        assert!(corrupt_reason(&container_around(VERSION, &body)).contains("bytes follow"));
    }
}
