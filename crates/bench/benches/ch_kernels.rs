//! Criterion bench: the CH point kernel — distance and shortest-path
//! (shortcut unpacking) — and the bucket-based many-to-many, all over
//! the same single CH build.
//!
//! This is the microbench behind the `ch` rows of `spq bench --json`;
//! run it with `cargo bench -p spq-bench --bench ch_kernels`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spq_ch::{ChQuery, ContractionHierarchy, ManyToMany};
use spq_graph::types::NodeId;
use spq_queries::{linf_query_sets, QueryGenParams};
use spq_synth::SynthParams;

fn bench_kernels(c: &mut Criterion) {
    let target = spq_synth::test_vertices(4000);
    let net = spq_synth::generate(&SynthParams::with_target_vertices(target, 5));
    let sets = linf_query_sets(
        &net,
        &QueryGenParams {
            per_set: 256,
            ..QueryGenParams::default()
        },
    );
    let pairs: Vec<(NodeId, NodeId)> = sets[8].pairs.clone(); // far (Q9): deepest searches
    assert!(!pairs.is_empty());
    let ch = ContractionHierarchy::build(&net);

    let mut group = c.benchmark_group("ch_kernels");
    group.bench_with_input(BenchmarkId::new("flat", "distance"), &pairs, |b, pairs| {
        let mut q = ChQuery::new(&ch);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            q.distance(s, t)
        })
    });
    group.bench_with_input(BenchmarkId::new("flat", "path"), &pairs, |b, pairs| {
        let mut q = ChQuery::new(&ch);
        let mut i = 0;
        b.iter(|| {
            let (s, t) = pairs[i % pairs.len()];
            i += 1;
            q.shortest_path(s, t).map(|(_, p)| p.len())
        })
    });

    let side = 24.min(net.num_nodes());
    let sources: Vec<NodeId> = pairs.iter().take(side).map(|&(s, _)| s).collect();
    let targets: Vec<NodeId> = pairs.iter().take(side).map(|&(_, t)| t).collect();
    group.bench_function("m2m/table_24x24", |b| {
        let mut m2m = ManyToMany::new(&ch);
        b.iter(|| m2m.table(&sources, &targets))
    });
    group.finish();
}

criterion_group!(benches, bench_kernels);
criterion_main!(benches);
