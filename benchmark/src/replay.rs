//! In-process replay of traced requests.
//!
//! The server's handling of a request is a fixed sequence of public
//! calls — `Request::decode`, `DistanceCache::get`, a `Session` kernel,
//! `DistanceCache::insert`, a response encoder. The benchmark cannot
//! time them inside the server, so for each traced request it makes the
//! same calls itself, on the same op, and hangs the timings under the
//! request's root span. What the root has left is the server's own
//! cost plus queueing and the wire.

use std::hint::black_box;
use std::time::Instant;

use spq_graph::backend::{PoiRef, Session};
use spq_graph::types::{Dist, NodeId};
use spq_serve::protocol::{self, Request};
use spq_serve::DistanceCache;

use crate::ops::POI_SET;
use crate::trace::Trace;

fn nanos<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// The structures a replay runs against: the serving session of the
/// workload's backend and a cache of the server's size.
pub struct Replayer<'a> {
    session: Box<dyn Session + 'a>,
    cache: DistanceCache,
    poi: &'a [NodeId],
    row: Vec<Option<Dist>>,
    entries: Vec<(NodeId, Dist)>,
}

impl<'a> Replayer<'a> {
    /// A replayer over `session`, with a cache of `cache_capacity`
    /// entries (0: disabled, as on `served-point`).
    pub fn new(
        session: Box<dyn Session + 'a>,
        cache_capacity: usize,
        cache_shards: usize,
        poi: &'a [NodeId],
    ) -> Replayer<'a> {
        Replayer {
            session,
            cache: DistanceCache::new(cache_capacity, cache_shards),
            poi,
            row: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Replays the request in `payload` under `root`. `hit` says the
    /// original was served from the cache, so the replay is too.
    pub fn replay(&mut self, payload: &[u8], hit: bool, root: u32, trace: &mut Trace) {
        let (req, ns) = nanos(|| Request::decode(payload));
        trace.child(root, "protocol.decode", ns, true);
        let Ok(req) = req else { return };
        let (epoch, session) = (1, &mut self.session);
        let response = match req {
            Request::Distance { backend, s, t, .. } => {
                if hit {
                    self.cache
                        .insert(epoch, backend, s, t, session.distance(s, t));
                }
                let (cached, ns) = nanos(|| self.cache.get(epoch, backend, s, t));
                trace.child(root, "cache.get", ns, true);
                let d = match cached {
                    Some(d) => d,
                    None => {
                        let (d, ns) = nanos(|| session.distance(s, t));
                        trace.child(root, "kernel.distance", ns, true);
                        let ((), ns) = nanos(|| self.cache.insert(epoch, backend, s, t, d));
                        trace.child(root, "cache.insert", ns, true);
                        d
                    }
                };
                nanos(|| protocol::encode_distance_response(d))
            }
            Request::Path { s, t, .. } => {
                let (p, ns) = nanos(|| session.shortest_path(s, t));
                trace.child(root, "kernel.path", ns, true);
                nanos(|| protocol::encode_path_response(p))
            }
            Request::OneToMany { s, targets, .. } => {
                let ((), ns) = nanos(|| session.one_to_many(s, &targets, &mut self.row));
                trace.child(root, "kernel.one_to_many", ns, true);
                nanos(|| protocol::encode_distances_response(&self.row))
            }
            Request::Distances {
                sources, targets, ..
            } => {
                let ((), ns) = nanos(|| session.distances(&sources, &targets, &mut self.row));
                trace.child(root, "kernel.table", ns, true);
                nanos(|| protocol::encode_distances_response(&self.row))
            }
            Request::Knn { s, k, .. } => {
                let poi = PoiRef {
                    name: POI_SET,
                    nodes: self.poi,
                };
                let ((), ns) = nanos(|| session.knn(s, k as usize, poi, &mut self.entries));
                trace.child(root, "kernel.knn", ns, true);
                nanos(|| protocol::encode_nodes_dists_response(&self.entries))
            }
            Request::Range { s, limit, .. } => {
                let (_, ns) = nanos(|| session.range(s, limit, &mut self.entries));
                trace.child(root, "kernel.range", ns, true);
                nanos(|| protocol::encode_nodes_dists_response(&self.entries))
            }
            _ => return,
        };
        black_box(&response.0);
        trace.child(root, "protocol.encode", response.1, true);
    }
}
