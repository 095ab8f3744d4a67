//! Golden byte identity of the checksummed index containers.
//!
//! Three formats hold an index a CLI writes: `SPQC` (CH, version 4),
//! `SPQH` (HL, version 2) and `SPQP` (POI sets). They are written as a
//! stream — the body closure runs once into a hasher and once into the
//! sink — and must stay the files they were when the body was
//! serialised into a buffer first, so an index written before a change
//! loads after it. The constants below were recorded from the commit
//! before streaming (85c6158) by this same test; a change to any of
//! these formats, their builders or the synthetic generator that moves
//! a byte shows up here as a length or digest mismatch.
//!
//! The hierarchy pins build CH and HL on the benchmark's networks, and
//! were recorded from the commit before contraction dropped dead overlay
//! edges and stopped witness searches early (35a374c): a faster
//! contraction must still emit the same hierarchy, bit for bit.

use spq_ch::ContractionHierarchy;
use spq_graph::binio::xxhash64;
use spq_graph::toy::figure1;
use spq_graph::{par, RoadNetwork};
use spq_hl::Hl;
use spq_many::PoiSet;
use spq_synth::SynthParams;

/// `(magic, length, XXH64 with seed 0)` of the three containers built
/// over one network, in a fixed order.
fn fingerprints(net: &RoadNetwork) -> Vec<(String, usize, u64)> {
    fn container(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
        let mut buf = Vec::new();
        write(&mut buf).expect("in-memory write cannot fail");
        buf
    }
    let ch = ContractionHierarchy::build(net);
    let hl = Hl::build(net);
    let pois = PoiSet::sample(net, "golden", net.num_nodes().min(5), 11).unwrap();
    [
        container(|b| ch.write_binary(b)),
        container(|b| hl.write_binary(b)),
        container(|b| pois.write_binary(b)),
    ]
    .into_iter()
    .map(|bytes| {
        let magic = String::from_utf8_lossy(&bytes[..4]).into_owned();
        (magic, bytes.len(), xxhash64(&bytes, 0))
    })
    .collect()
}

fn assert_golden(net: &RoadNetwork, golden: &[(&str, usize, u64)]) {
    let got = par::with_threads(1, || fingerprints(net));
    assert_eq!(got.len(), golden.len());
    for ((magic, len, digest), &(want_magic, want_len, want_digest)) in got.iter().zip(golden) {
        assert_eq!(magic, want_magic);
        assert_eq!(
            (*len, *digest),
            (want_len, want_digest),
            "{magic}: (length, XXH64) of the container moved; it is now ({len}, {digest:#018x})"
        );
    }
}

/// The shortcut count, then `(length, XXH64 with seed 0)` of the CH
/// container and of the HL container labelled from that same CH, built
/// on one thread over the benchmark's seed-1 network of `target`
/// vertices.
fn hierarchy_fingerprint(target: usize) -> (usize, (usize, u64), (usize, u64)) {
    let net = spq_synth::generate(&SynthParams::with_target_vertices(target, 1));
    par::with_threads(1, || {
        let ch = ContractionHierarchy::build(&net);
        let shortcuts = ch.num_shortcuts();
        let mut bytes = Vec::new();
        ch.write_binary(&mut bytes)
            .expect("in-memory write cannot fail");
        let ch_print = (bytes.len(), xxhash64(&bytes, 0));
        let hl = Hl::from_ch(ch);
        bytes.clear();
        hl.write_binary(&mut bytes)
            .expect("in-memory write cannot fail");
        (shortcuts, ch_print, (bytes.len(), xxhash64(&bytes, 0)))
    })
}

/// The benchmark's smoke network (21 493 vertices).
#[test]
fn smoke_network_hierarchy_is_the_bytes_the_parent_wrote() {
    assert_eq!(
        hierarchy_fingerprint(20_000),
        (
            22_652,
            (803_996, 0x8c7f9f0c4d21bf21),
            (5_350_124, 0xfdca3b90e7eaf26c)
        )
    );
}

/// The benchmark's full network (106 773 vertices), the scale its
/// `ch.build_s` is timed at.
#[test]
#[ignore = "benchmark scale; run in release with --ignored"]
fn full_network_hierarchy_is_the_bytes_the_parent_wrote() {
    assert_eq!(
        hierarchy_fingerprint(100_000),
        (
            113_733,
            (4_006_056, 0xbbe4b065b63dcd1c),
            (35_275_288, 0x2f150e85398db3d5)
        )
    );
}

#[test]
fn figure1_containers_are_the_bytes_the_parent_wrote() {
    assert_golden(&figure1(), FIGURE1);
}

#[test]
fn synthetic_900_containers_are_the_bytes_the_parent_wrote() {
    let net = spq_synth::generate(&SynthParams::with_target_vertices(900, 23));
    assert_golden(&net, SYNTHETIC_900);
}

const FIGURE1: &[(&str, usize, u64)] = &[
    ("SPQC", 256, 0x833be50c4e6fefd3),
    ("SPQH", 508, 0xabe7c6190e6d8169),
    ("SPQP", 74, 0x811b5848567b6649),
];

const SYNTHETIC_900: &[(&str, usize, u64)] = &[
    ("SPQC", 34796, 0xbaa0aab254ca5b30),
    ("SPQH", 128288, 0x72c350ec987f7d04),
    ("SPQP", 74, 0x4ef82a0b9cb3e86b),
];
