//! Integration: the full experiment pipeline — dataset registry →
//! query-set generation → per-technique measurement — holds together the
//! way the harness binaries assume.

use spq_queries::{linf_query_sets, network_query_sets, QueryGenParams};
use spq_serve::BackendKind;
use spq_synth::{Dataset, Scale};

#[test]
fn q_sets_drive_all_techniques_on_smoke_de() {
    let net = Dataset::by_name("DE").unwrap().build(Scale::Smoke);
    let sets = linf_query_sets(
        &net,
        &QueryGenParams {
            per_set: 20,
            ..QueryGenParams::default()
        },
    );
    assert_eq!(sets.len(), 10);
    let built = BackendKind::Ch.build(&net);
    let mut q = built.backend.session(&net);
    let mut answered = 0;
    for set in &sets {
        for &(s, t) in &set.pairs {
            assert!(q.distance(s, t).is_some());
            answered += 1;
        }
    }
    assert!(answered > 0, "at least the far bands must be populated");
}

#[test]
fn r_sets_are_generated_and_answerable() {
    let net = Dataset::by_name("DE").unwrap().build(Scale::Smoke);
    let sets = network_query_sets(
        &net,
        &QueryGenParams {
            per_set: 15,
            ..QueryGenParams::default()
        },
    );
    assert_eq!(sets.len(), 10);
    let built = BackendKind::Tnr.build(&net);
    let mut q = built.backend.session(&net);
    for set in &sets {
        for &(s, t) in set.pairs.iter().take(5) {
            assert!(q.distance(s, t).is_some(), "{}", set.label);
        }
    }
}

#[test]
fn registry_scales_consistently() {
    let d = Dataset::by_name("CO").unwrap();
    // Target vertex counts shrink with the divisor.
    assert!(d.target_vertices(Scale::Smoke) < d.target_vertices(Scale::Paper));
    assert_eq!(
        d.target_vertices(Scale::Divisor(40.0)),
        d.target_vertices(Scale::Paper)
    );
}

#[test]
fn preprocessing_times_are_reported() {
    let net = Dataset::by_name("DE").unwrap().build(Scale::Smoke);
    let t_ch = BackendKind::Ch.build(&net).build_time;
    let t_silc = BackendKind::Silc.build(&net).build_time;
    // Both timers ran; SILC's all-pairs preprocessing must not be free.
    assert!(t_ch.as_nanos() > 0);
    assert!(t_silc.as_nanos() > 0);
}
