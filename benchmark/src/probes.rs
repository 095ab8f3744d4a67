//! Layer probes: each layer's public calls, timed one at a time.
//!
//! A traced run probes the layers on its workload's path with the
//! workload's own inputs, so a per-layer number and the end-to-end
//! number it should move come from the same ops. Every probe times
//! single calls with `Instant` and reports percentiles of those; calls
//! too short for that (protocol, cache) are timed in blocks.

use std::hint::black_box;
use std::time::Instant;

use spq_ch::{BatchDistances, ChQuery, ContractionHierarchy, LegacyChQuery, ManyToMany};
use spq_dijkstra::BiDijkstra;
use spq_graph::backend::{PoiRef, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_serve::protocol::{self, Request};
use spq_serve::DistanceCache;

use crate::manifest::Metrics;
use crate::measure::{median, quantile_sorted};
use crate::ops::{many, Frames, Rng, POI_SET};

/// Calls per block when a single call is too short to time.
const BLOCK: usize = 256;

/// Per-call nanoseconds of `f`, in input order.
fn time_in_order<I: Copy>(inputs: &[I], mut f: impl FnMut(I)) -> Vec<u32> {
    inputs
        .iter()
        .map(|&input| {
            let t = Instant::now();
            f(input);
            t.elapsed().as_nanos().min(u32::MAX as u128) as u32
        })
        .collect()
}

fn sorted(mut ns: Vec<u32>) -> Vec<u32> {
    ns.sort_unstable();
    ns
}

/// Per-call nanoseconds of `f` over `inputs`, sorted.
fn time_each<I: Copy>(inputs: &[I], f: impl FnMut(I)) -> Vec<u32> {
    sorted(time_in_order(inputs, f))
}

/// Median nanoseconds per call of `f`, timed in blocks of [`BLOCK`].
fn time_blocks(blocks: usize, mut f: impl FnMut(usize)) -> f64 {
    let per_call: Vec<f64> = (0..blocks)
        .map(|b| {
            let t = Instant::now();
            for i in 0..BLOCK {
                f(b * BLOCK + i);
            }
            t.elapsed().as_nanos() as f64 / BLOCK as f64
        })
        .collect();
    median(&per_call)
}

/// `dijkstra.distance.p50_ns`: the normaliser.
pub fn dijkstra(net: &RoadNetwork, m: &mut Metrics) {
    let mut rng = Rng::new(0, 10);
    let pairs: Vec<_> = (0..48).map(|_| rng.pair(net.num_nodes())).collect();
    let mut bi = BiDijkstra::new(net.num_nodes());
    let ns = time_each(&pairs, |(s, t)| {
        black_box(bi.distance(net, s, t));
    });
    m.set("dijkstra.distance.p50_ns", quantile_sorted(&ns, 0.5));
}

/// Every pair of every Q-set, sets interleaved, tagged with its set.
fn interleave(sets: &[Vec<(NodeId, NodeId)>]) -> Vec<(usize, NodeId, NodeId)> {
    let rounds = sets.iter().map(Vec::len).max().unwrap_or(0);
    (0..rounds)
        .flat_map(|k| {
            sets.iter()
                .enumerate()
                .map(move |(i, set)| (i, set[k % set.len()].0, set[k % set.len()].1))
        })
        .collect()
}

/// Median over the calls of `ns` (unsorted, parallel to `inputs`) that
/// belong to Q-set `set` (0-based; clamped to the sets that exist).
fn set_p50(inputs: &[(usize, NodeId, NodeId)], ns: &[u32], set: usize, sets: usize) -> f64 {
    let set = set.min(sets - 1);
    let mut own: Vec<u32> = inputs
        .iter()
        .zip(ns)
        .filter(|(input, _)| input.0 == set)
        .map(|(_, &ns)| ns)
        .collect();
    own.sort_unstable();
    quantile_sorted(&own, 0.5)
}

/// CH point kernels over Q1–Q10: `ch.distance.*`, `ch.path.*`,
/// `ch.legacy.*`.
pub fn ch_point(ch: &ContractionHierarchy, sets: &[Vec<(NodeId, NodeId)>], m: &mut Metrics) {
    let inputs = interleave(sets);
    let mut query = ChQuery::new(ch);
    let raw = time_in_order(&inputs, |(_, s, t)| {
        black_box(query.distance(s, t));
    });
    m.set(
        "ch.distance.q1_p50_ns",
        set_p50(&inputs, &raw, 0, sets.len()),
    );
    m.set(
        "ch.distance.q5_p50_ns",
        set_p50(&inputs, &raw, 4, sets.len()),
    );
    m.set(
        "ch.distance.q10_p50_ns",
        set_p50(&inputs, &raw, 9, sets.len()),
    );
    let all = sorted(raw);
    m.set("ch.distance.p50_ns", quantile_sorted(&all, 0.50));
    m.set("ch.distance.p95_ns", quantile_sorted(&all, 0.95));
    m.set("ch.distance.p99_ns", quantile_sorted(&all, 0.99));

    let raw = time_in_order(&inputs, |(_, s, t)| {
        black_box(query.shortest_path(s, t));
    });
    m.set("ch.path.q10_p50_ns", set_p50(&inputs, &raw, 9, sets.len()));
    let all = sorted(raw);
    m.set("ch.path.p50_ns", quantile_sorted(&all, 0.50));
    m.set("ch.path.p95_ns", quantile_sorted(&all, 0.95));
    m.set("ch.path.p99_ns", quantile_sorted(&all, 0.99));

    let mut legacy = LegacyChQuery::new(ch);
    let ns = time_each(&inputs, |(_, s, t)| {
        black_box(legacy.distance(s, t));
    });
    m.set("ch.legacy.distance.p50_ns", quantile_sorted(&ns, 0.5));
    let ns = time_each(&inputs, |(_, s, t)| {
        black_box(legacy.shortest_path(s, t));
    });
    m.set("ch.legacy.path.p50_ns", quantile_sorted(&ns, 0.5));
}

/// The `DISTANCES` requests of `class` in `frames`, as
/// `(sources, targets)`.
fn tables_of(frames: &Frames, class: u8, limit: usize) -> Vec<(Vec<NodeId>, Vec<NodeId>)> {
    (0..frames.len())
        .filter(|&i| frames.class(i) == class)
        .take(limit)
        .filter_map(|i| match frames.request(i) {
            Request::Distances {
                sources, targets, ..
            } => Some((sources, targets)),
            _ => None,
        })
        .collect()
}

/// CH table kernels on the workload's own table shapes, nanoseconds per
/// entry: `ch.m2m.*` (bucket tables) and `ch.batch.*` (lane sweeps).
pub fn ch_tables(ch: &ContractionHierarchy, frames: &Frames, m: &mut Metrics) {
    let shapes: [(u8, &'static str, &'static str); 3] = [
        (
            many::SQUARE32,
            "ch.m2m.square32.entry_ns",
            "ch.batch.square32.entry_ns",
        ),
        (
            many::SKINNY,
            "ch.m2m.skinny1x1024.entry_ns",
            "ch.batch.skinny1x1024.entry_ns",
        ),
        (
            many::RAGGED,
            "ch.m2m.ragged8x128.entry_ns",
            "ch.batch.ragged8x128.entry_ns",
        ),
    ];
    let mut m2m = ManyToMany::new(ch);
    let mut batch = BatchDistances::new(ch);
    for (class, m2m_name, batch_name) in shapes {
        let tables = tables_of(frames, class, 24);
        let per_entry = |ns: Vec<u32>| -> f64 {
            let entries = tables.first().map_or(1, |(s, t)| s.len() * t.len());
            quantile_sorted(&ns, 0.5) / entries as f64
        };
        let refs: Vec<&(Vec<NodeId>, Vec<NodeId>)> = tables.iter().collect();
        let ns = time_each(&refs, |(s, t)| {
            black_box(m2m.table(s, t));
        });
        m.set(m2m_name, per_entry(ns));
        let ns = time_each(&refs, |(s, t)| {
            black_box(batch.table(s, t));
        });
        m.set(batch_name, per_entry(ns));
    }
}

/// HL distance through the serving session: `hl.distance.*`.
pub fn hl_point(session: &mut dyn Session, sets: &[Vec<(NodeId, NodeId)>], m: &mut Metrics) {
    let inputs = interleave(sets);
    let raw = time_in_order(&inputs, |(_, s, t)| {
        black_box(session.distance(s, t));
    });
    m.set(
        "hl.distance.q1_p50_ns",
        set_p50(&inputs, &raw, 0, sets.len()),
    );
    m.set(
        "hl.distance.q10_p50_ns",
        set_p50(&inputs, &raw, 9, sets.len()),
    );
    let all = sorted(raw);
    m.set("hl.distance.p50_ns", quantile_sorted(&all, 0.50));
    m.set("hl.distance.p99_ns", quantile_sorted(&all, 0.99));
}

/// One-to-many, kNN and range through the serving session, on the
/// workload's own requests: `many.*`.
pub fn many_kernels(session: &mut dyn Session, poi: &[NodeId], frames: &Frames, m: &mut Metrics) {
    let of_class = |class: u8| -> Vec<Request> {
        (0..frames.len())
            .filter(|&i| frames.class(i) == class)
            .take(48)
            .map(|i| frames.request(i))
            .collect()
    };
    let mut row: Vec<Option<Dist>> = Vec::new();
    let mut entries: Vec<(NodeId, Dist)> = Vec::new();
    let us = |reqs: &[Request], f: &mut dyn FnMut(&Request)| -> f64 {
        let refs: Vec<&Request> = reqs.iter().collect();
        quantile_sorted(&time_each(&refs, f), 0.5) / 1e3
    };
    for (class, name) in [
        (many::O2M64, "many.o2m64.p50_us"),
        (many::O2M1024, "many.o2m1024.p50_us"),
    ] {
        let p50 = us(&of_class(class), &mut |req| {
            if let Request::OneToMany { s, targets, .. } = req {
                session.one_to_many(*s, targets, &mut row);
                black_box(&row);
            }
        });
        m.set(name, p50);
    }
    let poi_ref = PoiRef {
        name: POI_SET,
        nodes: poi,
    };
    let p50 = us(&of_class(many::KNN8), &mut |req| {
        if let Request::Knn { s, k, .. } = req {
            session.knn(*s, *k as usize, poi_ref, &mut entries);
            black_box(&entries);
        }
    });
    m.set("many.knn8.p50_us", p50);
    let mut results = 0usize;
    let ranges = of_class(many::RANGE);
    let p50 = us(&ranges, &mut |req| {
        if let Request::Range { s, limit, .. } = req {
            session.range(*s, *limit, &mut entries);
            results += entries.len();
        }
    });
    m.set("many.range.p50_us", p50);
    m.set(
        "many.range.results_avg",
        results as f64 / ranges.len().max(1) as f64,
    );
}

/// Request and response codecs: `protocol.*`.
pub fn protocol_codecs(net: &RoadNetwork, poi_len: usize, path_nodes: &[NodeId], m: &mut Metrics) {
    let n = net.num_nodes();
    let mut rng = Rng::new(0, 11);
    let requests: Vec<Request> = (0..BLOCK * 16)
        .map(|_| {
            let (s, t) = rng.pair(n);
            Request::Distance {
                backend: 1,
                s,
                t,
                deadline_ms: 0,
            }
        })
        .collect();
    let payloads: Vec<Vec<u8>> = requests.iter().map(Request::encode).collect();
    m.set(
        "protocol.encode_distance_ns",
        time_blocks(16, |i| {
            black_box(requests[i].encode());
        }),
    );
    m.set(
        "protocol.decode_distance_ns",
        time_blocks(16, |i| {
            black_box(Request::decode(&payloads[i]).ok());
        }),
    );
    let targets: Vec<NodeId> = (0..poi_len.max(1))
        .map(|_| rng.below(n) as NodeId)
        .collect();
    let o2m = Request::OneToMany {
        backend: 1,
        s: 0,
        targets: targets.clone(),
        deadline_ms: 0,
    }
    .encode();
    m.set(
        "protocol.decode_o2m1024_ns",
        time_blocks(8, |_| {
            black_box(Request::decode(&o2m).ok());
        }),
    );
    let row: Vec<Option<Dist>> = targets.iter().map(|&t| Some(t as Dist * 7)).collect();
    m.set(
        "protocol.encode_resp_o2m1024_ns",
        time_blocks(8, |_| {
            black_box(protocol::encode_distances_response(&row));
        }),
    );
    m.set(
        "protocol.encode_resp_path_ns",
        time_blocks(8, |_| {
            // The encoder takes the path by value, as the server hands
            // it over; the copy is made outside the codec in real use
            // but cannot be here, so it is part of this number.
            black_box(protocol::encode_path_response(Some((
                1,
                path_nodes.to_vec(),
            ))));
        }),
    );
}

/// The distance cache at the server's default size: `cache.get_hit_ns`,
/// `cache.get_miss_ns`, `cache.insert_evict_ns`.
pub fn cache_ops(capacity: usize, shards: usize, m: &mut Metrics) {
    let cache = DistanceCache::new(capacity, shards);
    let (epoch, backend) = (1, 1);
    let mut rng = Rng::new(0, 12);
    // Fill to capacity (and past it, so every shard is full).
    let resident: Vec<(u32, u32)> = (0..capacity * 2)
        .map(|_| (rng.next_u64() as u32, rng.next_u64() as u32))
        .collect();
    for &(s, t) in &resident {
        cache.insert(epoch, backend, s, t, Some(1));
    }
    let recent = &resident[resident.len() - BLOCK * 16..];
    m.set(
        "cache.get_hit_ns",
        time_blocks(16, |i| {
            let (s, t) = recent[i];
            black_box(cache.get(epoch, backend, s, t));
        }),
    );
    m.set(
        "cache.get_miss_ns",
        time_blocks(16, |i| {
            black_box(cache.get(epoch, backend, i as u32, u32::MAX));
        }),
    );
    m.set(
        "cache.insert_evict_ns",
        time_blocks(16, |i| {
            cache.insert(epoch, backend, i as u32, u32::MAX - 1, Some(2));
        }),
    );
}
