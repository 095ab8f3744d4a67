//! Parallel preprocessing must be bit-for-bit deterministic.
//!
//! Every index whose build loops fan out over the worker pool
//! (`spq_graph::par`) promises that a parallel build is identical to a
//! sequential one. This test holds each of them to that promise on a
//! synthetic Table-1 proxy network: build with 1 thread and with 2 and
//! 4 threads, and compare. CH and HL compare their serialised
//! containers byte for byte; TNR, ALT, SILC and arc flags, which have
//! no on-disk format, compare the built index itself, and a second test
//! each checks that this comparison tells two different builds apart.

use spq_alt::{Alt, AltParams, LandmarkSelection};
use spq_arcflags::{ArcFlags, ArcFlagsParams};
use spq_ch::ContractionHierarchy;
use spq_graph::par;
use spq_graph::RoadNetwork;
use spq_hl::Hl;
use spq_silc::Silc;
use spq_synth::SynthParams;
use spq_tnr::{Tnr, TnrParams};

fn network() -> RoadNetwork {
    synthetic(0xdead_beef)
}

fn synthetic(seed: u64) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(600),
        seed,
    ))
}

/// Builds at 1, 2 and 4 threads and requires the three results to be
/// equal. Plain `assert!`: a failing comparison of two whole indexes
/// would print megabytes.
fn assert_thread_invariant<T: PartialEq>(name: &str, build: impl Fn() -> T) {
    let sequential = par::with_threads(1, &build);
    for threads in [2, 4] {
        let parallel = par::with_threads(threads, &build);
        assert!(
            parallel == sequential,
            "{name}: {threads}-thread build differs from sequential"
        );
    }
}

/// The comparison the in-memory tests rest on must see what was built:
/// the same build over two different networks compares unequal.
/// Otherwise a thread-invariance test would pass on any index at all.
fn assert_tells_networks_apart<T: PartialEq>(name: &str, build: impl Fn(&RoadNetwork) -> T) {
    let (a, b) = (network(), synthetic(0x5eed));
    assert!(build(&a) == build(&a), "{name}: one build, two answers");
    assert!(
        build(&a) != build(&b),
        "{name}: builds over different networks compare equal"
    );
}

/// A container's bytes, written into memory.
fn container(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf).expect("in-memory write cannot fail");
    assert!(!buf.is_empty(), "empty serialisation");
    buf
}

#[test]
fn ch_build_is_thread_invariant() {
    let net = network();
    assert_thread_invariant("CH", || {
        container(|b| ContractionHierarchy::build(&net).write_binary(b))
    });
}

#[test]
fn hl_build_is_thread_invariant() {
    let net = network();
    assert_thread_invariant("HL", || container(|b| Hl::build(&net).write_binary(b)));
}

#[test]
fn tnr_build_is_thread_invariant() {
    let net = network();
    let params = TnrParams {
        grid: 8,
        ..TnrParams::default()
    };
    assert_thread_invariant("TNR", || Tnr::build(&net, &params));
}

#[test]
fn alt_build_is_thread_invariant() {
    let net = network();
    for selection in [LandmarkSelection::Farthest, LandmarkSelection::Random] {
        let params = AltParams {
            num_landmarks: 6,
            selection,
            ..AltParams::default()
        };
        assert_thread_invariant("ALT", || Alt::build(&net, &params));
    }
}

#[test]
fn silc_build_is_thread_invariant() {
    let net = network();
    assert_thread_invariant("SILC", || Silc::build(&net));
}

#[test]
fn arcflags_build_is_thread_invariant() {
    let net = network();
    assert_thread_invariant("ArcFlags", || {
        ArcFlags::build(&net, &ArcFlagsParams::default())
    });
}

#[test]
fn tnr_comparison_tells_builds_apart() {
    let params = TnrParams {
        grid: 8,
        ..TnrParams::default()
    };
    assert_tells_networks_apart("TNR", |net| Tnr::build(net, &params));
}

#[test]
fn alt_comparison_tells_builds_apart() {
    let params = |selection| AltParams {
        num_landmarks: 6,
        selection,
        ..AltParams::default()
    };
    assert_tells_networks_apart("ALT", |net| {
        Alt::build(net, &params(LandmarkSelection::Farthest))
    });
    // Same network, other landmarks: the distance tables are compared
    // too, not only the network they cover.
    let net = network();
    assert!(
        Alt::build(&net, &params(LandmarkSelection::Farthest))
            != Alt::build(&net, &params(LandmarkSelection::Random)),
        "ALT: farthest and random landmarks compare equal"
    );
}

#[test]
fn silc_comparison_tells_builds_apart() {
    assert_tells_networks_apart("SILC", Silc::build);
}

#[test]
fn arcflags_comparison_tells_builds_apart() {
    assert_tells_networks_apart("ArcFlags", |net| {
        ArcFlags::build(net, &ArcFlagsParams::default())
    });
}
