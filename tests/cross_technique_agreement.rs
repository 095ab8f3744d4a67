//! Integration: all five techniques must return identical distances and
//! optimal, edge-valid paths on the same networks — the property the
//! whole comparative evaluation rests on (the paper built all methods on
//! "common subroutines" to guarantee comparability, §4.1).

use spq_dijkstra::Dijkstra;
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;
use spq_serve::BackendKind;
use spq_synth::SynthParams;

fn random_pairs(n: usize, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
            let s = ((state >> 33) % n as u64) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(17);
            let t = ((state >> 33) % n as u64) as NodeId;
            (s, t)
        })
        .collect()
}

fn check(net: &RoadNetwork, pairs: &[(NodeId, NodeId)]) {
    let mut reference = Dijkstra::new(net.num_nodes());
    let built: Vec<_> = BackendKind::PAPER.iter().map(|k| k.build(net)).collect();
    let mut queries: Vec<_> = built.iter().map(|b| b.backend.session(net)).collect();
    for &(s, t) in pairs {
        reference.run_to_target(net, s, t);
        let expect = reference.distance(t);
        for q in &mut queries {
            let d = q.distance(s, t);
            assert_eq!(d, expect, "distance disagreement on ({s},{t})");
            let (pd, path) = q.shortest_path(s, t).expect("path exists");
            assert_eq!(Some(pd), expect, "path length disagreement on ({s},{t})");
            assert_eq!(path.first().copied(), Some(s));
            assert_eq!(path.last().copied(), Some(t));
            assert_eq!(
                net.path_length(&path),
                expect,
                "invalid path on ({s},{t}): {path:?}"
            );
        }
    }
}

#[test]
fn agreement_on_default_synthetic_network() {
    let net = spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(900),
        101,
    ));
    let pairs = random_pairs(net.num_nodes(), 50, 1);
    check(&net, &pairs);
}

#[test]
fn agreement_without_highways() {
    // No importance hierarchy: CH/TNR orderings degrade but must stay
    // exact.
    let net = spq_synth::generate(&SynthParams {
        highway_period: 0,
        ..SynthParams::with_target_vertices(spq_synth::test_vertices(700), 102)
    });
    let pairs = random_pairs(net.num_nodes(), 40, 2);
    check(&net, &pairs);
}

#[test]
fn agreement_on_dense_diagonal_network() {
    // Many diagonals create shell-jumping edges — the Appendix B hazard
    // that the corrected TNR must absorb.
    let net = spq_synth::generate(&SynthParams {
        diagonal_prob: 0.25,
        drop_edge_prob: 0.15,
        ..SynthParams::with_target_vertices(spq_synth::test_vertices(700), 103)
    });
    let pairs = random_pairs(net.num_nodes(), 40, 3);
    check(&net, &pairs);
}

#[test]
fn agreement_on_smoke_registry_datasets() {
    // The two smallest Table-1 datasets at smoke scale.
    for name in ["DE", "NH"] {
        let d = spq_synth::Dataset::by_name(name).unwrap();
        let net = d.build(spq_synth::Scale::Smoke);
        let pairs = random_pairs(net.num_nodes(), 30, 4);
        check(&net, &pairs);
    }
}
