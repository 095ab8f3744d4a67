//! Persistence round-trip property tests for the four on-disk formats:
//! the CH and HL index containers, POI sets and road networks.
//!
//! Two properties per format, on arbitrary connected networks:
//!
//! 1. **Stability** — write → read → write reproduces the original
//!    bytes exactly (no drift, no nondeterminism in serialisation).
//! 2. **Fidelity** — the reloaded index answers every (s, t) distance
//!    query identically to the index it was written from (for a
//!    network: the same arcs and coordinates; for a POI set: an equal
//!    set).
//!
//! Each also pins its file size to its layout: `SPQC` version 4 and
//! `SPQH` version 2 (with the refusal of the versions before them),
//! `SPQP` version 1 and `SPQN` version 1.

use proptest::prelude::*;
use spq_ch::ContractionHierarchy;
use spq_graph::arbitrary::{connected_network, NetworkStrategyParams};
use spq_graph::binio::IndexLoadError;
use spq_graph::{NodeId, RoadNetwork};
use spq_hl::Hl;
use spq_many::PoiSet;

fn small_network() -> impl Strategy<Value = RoadNetwork> {
    connected_network(NetworkStrategyParams {
        min_nodes: 2,
        max_nodes: 24,
        ..NetworkStrategyParams::default()
    })
}

/// All (s, t) distances from an index's query object, as one flat
/// vector (small networks make exhaustive comparison affordable).
fn all_distances<Q>(net: &RoadNetwork, mut distance: Q) -> Vec<Option<u64>>
where
    Q: FnMut(NodeId, NodeId) -> Option<u64>,
{
    let n = net.num_nodes() as NodeId;
    let mut out = Vec::with_capacity((n as usize) * (n as usize));
    for s in 0..n {
        for t in 0..n {
            out.push(distance(s, t));
        }
    }
    out
}

fn write_to_vec(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf).expect("in-memory write cannot fail");
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn ch_roundtrip(net in small_network()) {
        let ch = ContractionHierarchy::build(&net);
        let bytes = write_to_vec(|b| ch.write_binary(b));
        let reloaded = ContractionHierarchy::read_binary(&mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "CH bytes drift across a round-trip");

        // The container stores the upward graph once; the reloaded
        // search graph — with the inverse permutation derived on load —
        // must be identical to the built one, and the reloaded index
        // must unpack identical paths.
        prop_assert_eq!(reloaded.search_graph(), ch.search_graph());
        prop_assert_eq!(reloaded.num_shortcuts(), ch.num_shortcuts());
        let mut q1 = spq_ch::ChQuery::new(&ch);
        let mut q2 = spq_ch::ChQuery::new(&reloaded);
        for s in 0..net.num_nodes() as NodeId {
            for t in 0..net.num_nodes() as NodeId {
                prop_assert_eq!(q1.shortest_path(s, t), q2.shortest_path(s, t));
            }
        }
        prop_assert_eq!(
            all_distances(&net, |s, t| q1.distance(s, t)),
            all_distances(&net, |s, t| q2.distance(s, t))
        );

        // The footprint is the layout: one header, the shortcut count,
        // three section prefixes, 4 bytes per vertex twice (+1 offset)
        // and 12 per upward edge.
        let (n, m) = (net.num_nodes(), ch.num_upward_edges());
        prop_assert_eq!(
            bytes.len(),
            24 + 8 + (8 + 4 * n) + (8 + 4 * (n + 1)) + (8 + 12 * m)
        );

        // One format, one reader: the same bytes under an older version
        // number are refused by that number, before the body is looked at.
        for old in [2u32, 3] {
            let mut relabelled = bytes.clone();
            relabelled[4..8].copy_from_slice(&old.to_le_bytes());
            prop_assert!(matches!(
                ContractionHierarchy::read_binary(&mut &relabelled[..]),
                Err(IndexLoadError::LegacyVersion { found, supported: 4 }) if found == old
            ));
        }
    }

    #[test]
    fn hl_roundtrip(net in small_network()) {
        let hl = Hl::build(&net);
        let bytes = write_to_vec(|b| hl.write_binary(b));
        let reloaded = Hl::read_binary(&mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "HL bytes drift across a round-trip");

        prop_assert_eq!(reloaded.labels(), hl.labels());
        prop_assert_eq!(
            all_distances(&net, |s, t| hl.labels().distance(s, t)),
            all_distances(&net, |s, t| reloaded.labels().distance(s, t))
        );

        // The footprint is the layout: one header, three section
        // prefixes, 4 bytes per offset, 8 per label entry, and the
        // embedded hierarchy's own container.
        let ch_bytes = write_to_vec(|b| hl.hierarchy().write_binary(b));
        prop_assert_eq!(
            bytes.len(),
            24 + (8 + 4 * (net.num_nodes() + 1))
                + (8 + 8 * hl.labels().num_entries())
                + (8 + ch_bytes.len())
        );
        prop_assert!(bytes.ends_with(&ch_bytes), "the hierarchy is embedded verbatim");

        // One format, one reader: the same bytes under the version-1
        // number are refused by that number, before the body is looked at.
        let mut v1 = bytes.clone();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        prop_assert!(matches!(
            Hl::read_binary(&mut &v1[..]),
            Err(IndexLoadError::LegacyVersion { found: 1, supported: 2 })
        ));
    }

    #[test]
    fn network_roundtrip(net in small_network()) {
        let bytes = write_to_vec(|b| net.write_binary(b));
        let reloaded = RoadNetwork::read_binary(&mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "network bytes drift across a round-trip");

        prop_assert_eq!(reloaded.num_nodes(), net.num_nodes());
        prop_assert_eq!(reloaded.coords(), net.coords());
        for v in 0..net.num_nodes() as NodeId {
            prop_assert!(reloaded.neighbors(v).eq(net.neighbors(v)), "arcs of {} differ", v);
        }

        // The footprint is the layout: magic and version, the vertex
        // count, then five length-prefixed sections of 4-byte elements
        // (first-out offsets, arc heads, arc weights, x, y).
        let (n, m) = (net.num_nodes(), net.num_arcs());
        prop_assert_eq!(
            bytes.len(),
            8 + 8 + (8 + 4 * (n + 1)) + 2 * (8 + 4 * m) + 2 * (8 + 4 * n)
        );

        // Any other version number is refused, before the body is read.
        let mut v2 = bytes.clone();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        prop_assert!(RoadNetwork::read_binary(&mut &v2[..]).is_err());
    }

    #[test]
    fn poi_set_roundtrip(net in small_network(), count in 1usize..8, seed in any::<u64>()) {
        let count = count.min(net.num_nodes());
        let set = PoiSet::sample(&net, "fuel.v2", count, seed).expect("sample");
        let bytes = write_to_vec(|b| set.write_binary(b));
        let reloaded = PoiSet::read_binary(&mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "POI set bytes drift across a round-trip");
        prop_assert_eq!(&reloaded, &set);
        prop_assert!(reloaded.validate_for(net.num_nodes()).is_ok());
        prop_assert!(reloaded.validate_for(net.num_nodes() + 1).is_err());

        // The footprint is the layout: one header, the length-prefixed
        // name, the network size and the length-prefixed vertex list.
        prop_assert_eq!(
            bytes.len(),
            24 + (8 + set.name().len()) + 8 + (8 + 4 * set.len())
        );

        // One format, one reader: version 2 is not one it knows.
        let mut v2 = bytes.clone();
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        prop_assert!(matches!(
            PoiSet::read_binary(&mut &v2[..]),
            Err(IndexLoadError::UnsupportedVersion { .. })
        ));
    }
}
