//! Persistence round-trip property tests covering every
//! `write_binary`/`read_binary` pair in the workspace: CH, HL, TNR,
//! SILC, ALT, and arc flags.
//!
//! Two properties per format, on arbitrary connected networks:
//!
//! 1. **Stability** — write → read → write reproduces the original
//!    bytes exactly (no drift, no nondeterminism in serialisation).
//! 2. **Fidelity** — the reloaded index answers every (s, t) distance
//!    query identically to the index it was written from.
//!
//! CH and HL additionally pin their container sizes to the `SPQC`
//! version-4 and `SPQH` version-2 layouts, and the refusal of the
//! versions before them.

use proptest::prelude::*;
use spq_alt::{Alt, AltParams};
use spq_arcflags::{ArcFlags, ArcFlagsParams};
use spq_ch::ContractionHierarchy;
use spq_graph::arbitrary::{connected_network, NetworkStrategyParams};
use spq_graph::binio::IndexLoadError;
use spq_graph::{NodeId, RoadNetwork};
use spq_hl::Hl;
use spq_silc::Silc;
use spq_tnr::{Tnr, TnrParams};

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
        // search graph — with the inverse permutation and the downward
        // half derived on load — must be identical to the built one, and
        // the reloaded index must unpack identical paths.
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
    fn tnr_roundtrip(net in small_network()) {
        let tnr = Tnr::build(&net, &TnrParams::default());
        let bytes = write_to_vec(|b| tnr.write_binary(b));
        let reloaded = Tnr::read_binary(&net, &mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "TNR bytes drift across a round-trip");

        let mut q1 = tnr.query().with_network(&net);
        let mut q2 = reloaded.query().with_network(&net);
        prop_assert_eq!(
            all_distances(&net, |s, t| q1.distance(s, t)),
            all_distances(&net, |s, t| q2.distance(s, t))
        );
    }

    #[test]
    fn silc_roundtrip(net in small_network()) {
        let silc = Silc::build(&net);
        let bytes = write_to_vec(|b| silc.write_binary(b));
        let reloaded = Silc::read_binary(&mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "SILC bytes drift across a round-trip");

        let mut q1 = silc.query(&net);
        let mut q2 = reloaded.query(&net);
        prop_assert_eq!(
            all_distances(&net, |s, t| q1.distance(s, t)),
            all_distances(&net, |s, t| q2.distance(s, t))
        );
    }

    #[test]
    fn alt_roundtrip(net in small_network()) {
        let alt = Alt::build(&net, &AltParams {
            num_landmarks: 4.min(net.num_nodes()),
            ..AltParams::default()
        });
        let bytes = write_to_vec(|b| alt.write_binary(b));
        let reloaded = Alt::read_binary(&mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "ALT bytes drift across a round-trip");

        let mut q1 = alt.query(&net);
        let mut q2 = reloaded.query(&net);
        prop_assert_eq!(
            all_distances(&net, |s, t| q1.distance(s, t)),
            all_distances(&net, |s, t| q2.distance(s, t))
        );
    }

    #[test]
    fn arcflags_roundtrip(net in small_network()) {
        let af = ArcFlags::build(&net, &ArcFlagsParams::default());
        let bytes = write_to_vec(|b| af.write_binary(b));
        let reloaded = ArcFlags::read_binary(&net, &mut &bytes[..]).expect("read back");
        let rewritten = write_to_vec(|b| reloaded.write_binary(b));
        prop_assert_eq!(&bytes, &rewritten, "arc-flag bytes drift across a round-trip");

        let mut q1 = af.query(&net);
        let mut q2 = reloaded.query(&net);
        prop_assert_eq!(
            all_distances(&net, |s, t| q1.distance(s, t)),
            all_distances(&net, |s, t| q2.distance(s, t))
        );
    }
}
