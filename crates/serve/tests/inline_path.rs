//! Socket-level coverage for the shard's zero-hand-off path: `PING`,
//! cache hits and lookup-backend `DISTANCE`s are answered by the event
//! loop that parsed them, everything else by the worker pool, and a
//! client can tell the difference only from the `serve:` counters.
//!
//! Every answer is checked against the Dijkstra oracle. The invariants:
//!
//! * a pipelined burst that interleaves inline and pooled requests is
//!   answered in request order;
//! * once a `RELOAD` is acknowledged, inline answers come from the new
//!   epoch, and answers produced ahead of the reload's own response
//!   still leave behind it;
//! * a quarantined lookup slot is the pool's business (failover chain
//!   or typed `QUARANTINED`), never the shard's;
//! * every `DISTANCE` is counted by the cache exactly once, whichever
//!   thread looked;
//! * a panic in an inline request closes that connection only.

use std::sync::Arc;
use std::time::Duration;

use spq_dijkstra::Dijkstra;
use spq_graph::backend::{Backend, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_serve::protocol::{Cursor, Request, STATUS_OK, UNREACHABLE};
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{AuditConfig, BackendKind, ClientError, Engine, ReloadFactory, ServeClient};
use spq_synth::SynthParams;

fn synth(seed: u64) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(150),
        seed,
    ))
}

/// `count` distinct deterministic pairs.
fn sample_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as u64;
    let mut state = 0x1d1e_c0de_5eed_0001u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % n) as NodeId
    };
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        let pair = (next(), next());
        if !pairs.contains(&pair) {
            pairs.push(pair);
        }
    }
    pairs
}

fn oracle_distances(net: &RoadNetwork, pairs: &[(NodeId, NodeId)]) -> Vec<Option<Dist>> {
    let mut d = Dijkstra::new(net.num_nodes());
    pairs
        .iter()
        .map(|&(s, t)| {
            d.run_to_target(net, s, t);
            d.distance(t)
        })
        .collect()
}

fn field(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("stats missing {name}:\n{stats}"))
}

fn distance_frame(kind: BackendKind, (s, t): (NodeId, NodeId)) -> Vec<u8> {
    Request::Distance {
        backend: kind.wire_id(),
        s,
        t,
        deadline_ms: 0,
    }
    .encode()
}

/// The distance an OK `DISTANCE` or `PATH` response leads with.
fn leading_distance(response: &[u8]) -> Option<Dist> {
    assert_eq!(response.first(), Some(&STATUS_OK), "{response:?}");
    let d = Cursor::new(&response[1..]).u64().expect("distance");
    (d != UNREACHABLE).then_some(d)
}

/// One shard, so every connection of a test shares an event loop.
fn config() -> ServerConfig {
    ServerConfig {
        shards: 1,
        workers: 2,
        ..ServerConfig::default()
    }
}

#[test]
fn a_pipelined_burst_interleaves_inline_and_pooled_requests_in_order() {
    let net = synth(0x1e11);
    let kinds = [BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Hl];
    let engine = Arc::new(Engine::build(net.clone(), &kinds));
    let server = Server::start(engine, &config()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // Depth 32: hl DISTANCE (lookup: inline), ch PATH and dijkstra
    // DISTANCE (search: pooled), and a PING (inline) per group of four.
    let pairs = sample_pairs(net.num_nodes(), 32);
    let expected = oracle_distances(&net, &pairs);
    let frames: Vec<Vec<u8>> = pairs
        .iter()
        .enumerate()
        .map(|(i, &(s, t))| match i % 4 {
            0 => distance_frame(BackendKind::Hl, (s, t)),
            1 => Request::Path {
                backend: BackendKind::Ch.wire_id(),
                s,
                t,
                deadline_ms: 0,
            }
            .encode(),
            2 => distance_frame(BackendKind::Dijkstra, (s, t)),
            _ => Request::Ping.encode(),
        })
        .collect();
    let before = server.stats_text();
    let responses = client.pipeline_raw(&frames).expect("burst");
    for (i, response) in responses.iter().enumerate() {
        if i % 4 == 3 {
            assert_eq!(&response[..], b"\0pong", "slot {i} must be the PING's");
        } else {
            assert_eq!(
                leading_distance(response),
                expected[i],
                "slot {i} ({:?}) is not the answer to request {i}",
                pairs[i]
            );
        }
        if i % 4 == 1 {
            // A PATH body: distance, hop count, then s .. t.
            let mut c = Cursor::new(&response[9..]);
            let hops = c.u32().expect("len") as usize;
            let path: Vec<NodeId> = (0..hops).map(|_| c.u32().expect("vertex")).collect();
            if expected[i].is_some() {
                assert_eq!(path.first(), Some(&pairs[i].0));
                assert_eq!(path.last(), Some(&pairs[i].1));
            }
        }
    }
    let after = server.stats_text();
    assert_eq!(
        field(&after, "inline") - field(&before, "inline"),
        16,
        "8 hl distances + 8 pings ran on the shard:\n{after}"
    );
    assert_eq!(
        field(&after, "handoff") - field(&before, "handoff"),
        16,
        "8 ch paths + 8 dijkstra distances went to the pool:\n{after}"
    );
    assert_eq!(field(&after, "shed"), 0, "{after}");

    server.request_shutdown();
    server.join();
}

#[test]
fn inline_answers_follow_an_acknowledged_reload_to_the_new_epoch() {
    let net_a = synth(0xa11ce);
    let net_b = synth(0xa11ce ^ 0x5EED_CAFE);
    let kinds = [BackendKind::Dijkstra, BackendKind::Hl];
    let engine = Arc::new(Engine::build(net_a.clone(), &kinds));
    let factory_net = net_b.clone();
    let factory = ReloadFactory::new(move || {
        Ok(Arc::new(Engine::build(
            factory_net.clone(),
            &[BackendKind::Dijkstra, BackendKind::Hl],
        )))
    });
    let cfg = ServerConfig {
        reload_factory: Some(factory),
        ..config()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let pairs = sample_pairs(net_a.num_nodes().min(net_b.num_nodes()), 24);
    let d_a = oracle_distances(&net_a, &pairs);
    let d_b = oracle_distances(&net_b, &pairs);
    assert_ne!(d_a, d_b, "the epochs must be distinguishable");

    // One burst: 8 lookups, RELOAD, 8 more lookups. The trailing eight
    // are parsed — and answered, inline — long before the reload
    // finishes, yet must leave behind its acknowledgement.
    let mut frames: Vec<Vec<u8>> = pairs[..8]
        .iter()
        .map(|&p| distance_frame(BackendKind::Hl, p))
        .collect();
    frames.push(Request::Reload.encode());
    frames.extend(
        pairs[8..16]
            .iter()
            .map(|&p| distance_frame(BackendKind::Hl, p)),
    );
    let responses = client.pipeline_raw(&frames).expect("burst around RELOAD");
    for k in 0..8 {
        assert_eq!(
            leading_distance(&responses[k]),
            d_a[k],
            "pre-reload slot {k}"
        );
    }
    assert_eq!(&responses[8][..], b"\0epoch=1", "slot 8 is the RELOAD ack");
    for k in 8..16 {
        let got = leading_distance(&responses[k + 1]);
        assert!(
            got == d_a[k] || got == d_b[k],
            "slot {} answered from no epoch: {got:?}",
            k + 1
        );
    }

    // The acknowledgement has been read: from here on, every inline
    // answer is the new epoch's. Twice over, so the second round would
    // expose a stale cache entry.
    let before = server.stats_text();
    for round in 0..2 {
        let frames: Vec<Vec<u8>> = pairs
            .iter()
            .map(|&p| distance_frame(BackendKind::Hl, p))
            .collect();
        let responses = client.pipeline_raw(&frames).expect("post-reload burst");
        for (k, response) in responses.iter().enumerate() {
            assert_eq!(
                leading_distance(response),
                d_b[k],
                "round {round}: {:?} answered by the retired epoch",
                pairs[k]
            );
        }
    }
    let after = server.stats_text();
    assert_eq!(
        field(&after, "inline") - field(&before, "inline"),
        48,
        "the post-reload bursts never left the shard:\n{after}"
    );
    assert_eq!(
        field(&after, "handoff"),
        field(&before, "handoff"),
        "{after}"
    );

    server.request_shutdown();
    server.join();
}

#[test]
fn a_quarantined_lookup_slot_is_answered_by_the_pool() {
    let net = synth(0x9a7a);
    let kinds = [BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Hl];
    let pairs = sample_pairs(net.num_nodes(), 10);
    let expected = oracle_distances(&net, &pairs);

    // Failover on (the default): the hl wire id is served by the chain.
    let engine = Arc::new(Engine::build(net.clone(), &kinds));
    let hl_pos = engine
        .position_of_wire(BackendKind::Hl.wire_id())
        .expect("hl is served");
    let server = Server::start(engine, &config()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        client
            .distance(BackendKind::Hl, pairs[0].0, pairs[0].1)
            .expect("healthy"),
        expected[0]
    );
    assert_eq!(
        field(&server.stats_text(), "inline"),
        1,
        "healthy hl is inline"
    );
    assert!(server
        .registry()
        .current()
        .quarantine(hl_pos, "pulled by the test".into()));
    let before = server.stats_text();
    for (k, &(s, t)) in pairs.iter().enumerate().skip(1) {
        assert_eq!(
            client.distance(BackendKind::Hl, s, t).expect("failover"),
            expected[k],
            "quarantined hl must fail over to oracle answers ({s}, {t})"
        );
    }
    let after = server.stats_text();
    assert_eq!(field(&after, "inline"), field(&before, "inline"), "{after}");
    assert_eq!(
        field(&after, "handoff") - field(&before, "handoff"),
        9,
        "{after}"
    );
    assert_eq!(
        field(&after, "quarantine_failovers") - field(&before, "quarantine_failovers"),
        9,
        "{after}"
    );
    server.request_shutdown();
    server.join();

    // Failover off: the typed status, still from the pool.
    let engine = Arc::new(Engine::build(net.clone(), &kinds));
    let cfg = ServerConfig {
        audit: Some(AuditConfig {
            interval: Duration::from_secs(3600),
            failover: false,
            ..AuditConfig::default()
        }),
        ..config()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    assert!(server
        .registry()
        .current()
        .quarantine(hl_pos, "pulled by the test".into()));
    match client.distance(BackendKind::Hl, pairs[0].0, pairs[0].1) {
        Err(ClientError::Quarantined(msg)) => assert!(msg.contains("quarantined"), "{msg}"),
        other => panic!("expected QUARANTINED, got {other:?}"),
    }
    let stats = server.stats_text();
    assert_eq!(field(&stats, "inline"), 0, "{stats}");
    assert_eq!(field(&stats, "handoff"), 1, "{stats}");
    server.request_shutdown();
    server.join();
}

#[test]
fn every_distance_is_counted_by_the_cache_exactly_once() {
    let net = synth(0xcac4e);
    let kinds = [BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Hl];
    let engine = Arc::new(Engine::build(net.clone(), &kinds));
    let server = Server::start(engine, &config()).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let pairs = sample_pairs(net.num_nodes(), 20);
    let expected = oracle_distances(&net, &pairs);
    // Round 0 misses everywhere (ch and dijkstra: looked up on the
    // shard, computed in the pool; hl: both on the shard); rounds 1 and
    // 2 hit on the shard. PATHs and PINGs never touch the cache.
    let mut distances = 0u64;
    for round in 0..3 {
        let mut frames = Vec::new();
        for (k, &(s, t)) in pairs.iter().enumerate() {
            let kind = [BackendKind::Ch, BackendKind::Hl, BackendKind::Dijkstra][k % 3];
            frames.push(distance_frame(kind, (s, t)));
            if k % 5 == 0 {
                frames.push(
                    Request::Path {
                        backend: BackendKind::Ch.wire_id(),
                        s,
                        t,
                        deadline_ms: 0,
                    }
                    .encode(),
                );
                frames.push(Request::Ping.encode());
            }
        }
        let mut k = 0;
        for chunk in frames.chunks(32) {
            for (frame, response) in chunk.iter().zip(client.pipeline_raw(chunk).expect("burst")) {
                if frame[0] == spq_serve::protocol::op::DISTANCE {
                    assert_eq!(leading_distance(&response), expected[k], "round {round}");
                    distances += 1;
                    k += 1;
                }
            }
        }
    }
    let stats = server.stats_text();
    let (hits, misses) = (field(&stats, "hits"), field(&stats, "misses"));
    assert_eq!(distances, 60);
    assert_eq!(
        hits + misses,
        distances,
        "one lookup per DISTANCE:\n{stats}"
    );
    assert_eq!(misses, 20, "round 0 — and only round 0 — misses:\n{stats}");
    assert_eq!(field(&stats, "insertions"), 20, "{stats}");
    // Hits are inline whatever the backend; so are hl's misses.
    assert_eq!(
        field(&stats, "handoff"),
        13 + 3 * 4,
        "13 ch/dijkstra misses + 12 paths:\n{stats}"
    );
    server.request_shutdown();
    server.join();
}

/// A lookup backend with a defect: it panics on `(7, 7)`.
struct Tripwire;
struct TripwireSession;

impl Backend for Tripwire {
    fn backend_name(&self) -> &'static str {
        "Tripwire"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(TripwireSession)
    }
    fn point_lookup(&self) -> bool {
        true
    }
}

impl Session for TripwireSession {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        assert!((s, t) != (7, 7), "tripwire: a defect in a lookup backend");
        Some(s as Dist + t as Dist)
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        Some((s as Dist + t as Dist, vec![s, t]))
    }
}

#[test]
fn a_panic_in_an_inline_request_closes_only_its_connection() {
    let engine = Arc::new(
        Engine::build(synth(0x7817), &[BackendKind::Dijkstra])
            .with_backend(BackendKind::Hl, Box::new(Tripwire)),
    );
    let cfg = ServerConfig {
        // The panicking request must be the cache's first sight of it.
        cache_capacity: 0,
        ..config()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let mut bystander = ServeClient::connect(server.local_addr()).expect("connect");
    let mut victim = ServeClient::connect(server.local_addr()).expect("connect");
    assert_eq!(
        bystander.distance(BackendKind::Hl, 1, 2).expect("ok"),
        Some(3)
    );
    assert_eq!(victim.distance(BackendKind::Hl, 2, 3).expect("ok"), Some(5));

    match victim.distance(BackendKind::Hl, 7, 7) {
        Err(ClientError::Io(_)) => {}
        other => panic!("the panicking request's connection must die, got {other:?}"),
    }
    // Same shard, rebuilt sessions, still inline.
    assert_eq!(
        bystander.distance(BackendKind::Hl, 4, 5).expect("ok"),
        Some(9)
    );
    bystander.ping().expect("the shard keeps serving");
    let mut fresh = ServeClient::connect(server.local_addr()).expect("still accepting");
    assert_eq!(fresh.distance(BackendKind::Hl, 5, 6).expect("ok"), Some(11));

    let stats = server.stats_text();
    assert_eq!(field(&stats, "worker_restarts"), 1, "{stats}");
    assert_eq!(
        field(&stats, "handoff"),
        0,
        "nothing ever reached the pool:\n{stats}"
    );
    assert_eq!(field(&stats, "open_connections"), 2, "{stats}");
    server.request_shutdown();
    server.join();
}
