//! Socket-level coverage for the shard's zero-hand-off path: `PING`,
//! cache hits, and `DISTANCE` misses and `PATH` on a backend whose
//! point queries are bounded by its hierarchy (CH, hub labels) are
//! answered by the event loop that parsed them, everything else by the
//! worker pool, and a client can tell the difference only from the
//! `serve:` counters.
//!
//! Every answer is checked against the Dijkstra oracle. The invariants:
//!
//! * a pipelined burst that interleaves inline and pooled requests is
//!   answered in request order;
//! * once a `RELOAD` is acknowledged, inline answers come from the new
//!   epoch, and answers produced ahead of the reload's own response
//!   still leave behind it;
//! * a quarantined slot is the pool's business (failover chain or typed
//!   `QUARANTINED`), never the shard's;
//! * every `DISTANCE` is counted by the cache exactly once, whichever
//!   thread looked, and `inline + handoff + shed = requests`;
//! * an inline query runs under the request's budget: a deadline or the
//!   force-stop flag aborts it on the shard, and the aborted `None` is
//!   neither cached nor reported as unreachable;
//! * a panic in an inline request closes that connection only.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::backend::{Backend, QueryBudget, Session};
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

/// Every parsed frame took exactly one of the three routes.
fn assert_every_request_is_accounted_for(stats: &str) {
    assert_eq!(
        field(stats, "inline") + field(stats, "handoff") + field(stats, "shed"),
        field(stats, "requests"),
        "{stats}"
    );
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

fn path_frame(kind: BackendKind, (s, t): (NodeId, NodeId)) -> Vec<u8> {
    Request::Path {
        backend: kind.wire_id(),
        s,
        t,
        deadline_ms: 0,
    }
    .encode()
}

/// `DISTANCE` for even `k`, `PATH` for odd.
fn point_frame(kind: BackendKind, pair: (NodeId, NodeId), k: usize) -> Vec<u8> {
    if k % 2 == 0 {
        distance_frame(kind, pair)
    } else {
        path_frame(kind, pair)
    }
}

/// The distance an OK `DISTANCE`, `PATH` or one-target `ONE_TO_MANY`
/// response leads with.
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

    // Depth 32, four groups of eight. Inline: hl DISTANCE, ch DISTANCE
    // (a miss, and four slots later the hit on the same pair), ch PATH
    // and PING. Pooled: dijkstra DISTANCE (a search) and ch ONE_TO_MANY
    // (not a point query).
    let pairs = sample_pairs(net.num_nodes(), 32);
    let oracle = oracle_distances(&net, &pairs);
    let asked = |i: usize| if i % 8 == 6 { i - 4 } else { i };
    let frames: Vec<Vec<u8>> = (0..32)
        .map(|i| {
            let (s, t) = pairs[asked(i)];
            match i % 8 {
                0 => distance_frame(BackendKind::Hl, (s, t)),
                1 => distance_frame(BackendKind::Dijkstra, (s, t)),
                2 | 6 => distance_frame(BackendKind::Ch, (s, t)),
                3 | 7 => path_frame(BackendKind::Ch, (s, t)),
                4 => Request::OneToMany {
                    backend: BackendKind::Ch.wire_id(),
                    s,
                    targets: vec![t],
                    deadline_ms: 0,
                }
                .encode(),
                _ => Request::Ping.encode(),
            }
        })
        .collect();
    let before = server.stats_text();
    let responses = client.pipeline_raw(&frames).expect("burst");
    for (i, response) in responses.iter().enumerate() {
        if i % 8 == 5 {
            assert_eq!(&response[..], b"\0pong", "slot {i} must be the PING's");
            continue;
        }
        let (pair, expected) = (pairs[asked(i)], oracle[asked(i)]);
        assert_eq!(
            leading_distance(response),
            expected,
            "slot {i} ({pair:?}) is not the answer to request {i}"
        );
        if i % 4 == 3 {
            // A PATH body: distance, hop count, then s .. t.
            let mut c = Cursor::new(&response[9..]);
            let hops = c.u32().expect("len") as usize;
            let path: Vec<NodeId> = (0..hops).map(|_| c.u32().expect("vertex")).collect();
            if expected.is_some() {
                assert_eq!(path.first(), Some(&pair.0));
                assert_eq!(path.last(), Some(&pair.1));
            }
        }
    }
    let after = server.stats_text();
    assert_eq!(
        field(&after, "inline") - field(&before, "inline"),
        24,
        "4 hl + 8 ch distances, 8 ch paths and 4 pings ran on the shard:\n{after}"
    );
    assert_eq!(
        field(&after, "handoff") - field(&before, "handoff"),
        8,
        "4 dijkstra distances + 4 ch one-to-many went to the pool:\n{after}"
    );
    assert_eq!(field(&after, "hits"), 4, "slots 6, 14, 22, 30:\n{after}");
    assert_eq!(field(&after, "misses"), 12, "{after}");
    assert_eq!(field(&after, "shed"), 0, "{after}");
    assert_every_request_is_accounted_for(&after);

    server.request_shutdown();
    server.join();
}

#[test]
fn inline_answers_follow_an_acknowledged_reload_to_the_new_epoch() {
    for kind in [BackendKind::Hl, BackendKind::Ch] {
        let net_a = synth(0xa11ce);
        let net_b = synth(0xa11ce ^ 0x5EED_CAFE);
        let kinds = [BackendKind::Dijkstra, kind];
        let engine = Arc::new(Engine::build(net_a.clone(), &kinds));
        let factory_net = net_b.clone();
        let factory =
            ReloadFactory::new(move || Ok(Arc::new(Engine::build(factory_net.clone(), &kinds))));
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

        // One burst: 8 point queries, RELOAD, 8 more. The trailing
        // eight are parsed — and answered, inline — long before the
        // reload finishes, yet must leave behind its acknowledgement.
        let mut frames: Vec<Vec<u8>> = (0..8).map(|k| point_frame(kind, pairs[k], k)).collect();
        frames.push(Request::Reload.encode());
        frames.extend((8..16).map(|k| point_frame(kind, pairs[k], k)));
        let responses = client.pipeline_raw(&frames).expect("burst around RELOAD");
        for k in 0..8 {
            assert_eq!(
                leading_distance(&responses[k]),
                d_a[k],
                "{kind:?}: pre-reload slot {k}"
            );
        }
        assert_eq!(&responses[8][..], b"\0epoch=1", "slot 8 is the RELOAD ack");
        for k in 8..16 {
            let got = leading_distance(&responses[k + 1]);
            assert!(
                got == d_a[k] || got == d_b[k],
                "{kind:?}: slot {} answered from no epoch: {got:?}",
                k + 1
            );
        }

        // The acknowledgement has been read: from here on, every inline
        // answer is the new epoch's. Twice over, so the second round
        // would expose a stale cache entry.
        let before = server.stats_text();
        for round in 0..2 {
            let frames: Vec<Vec<u8>> = (0..24).map(|k| point_frame(kind, pairs[k], k)).collect();
            let responses = client.pipeline_raw(&frames).expect("post-reload burst");
            for (k, response) in responses.iter().enumerate() {
                assert_eq!(
                    leading_distance(response),
                    d_b[k],
                    "{kind:?} round {round}: {:?} answered by the retired epoch",
                    pairs[k]
                );
            }
        }
        let after = server.stats_text();
        assert_eq!(
            field(&after, "inline") - field(&before, "inline"),
            48,
            "{kind:?}: the post-reload bursts never left the shard:\n{after}"
        );
        assert_eq!(
            field(&after, "handoff"),
            field(&before, "handoff"),
            "{after}"
        );

        server.request_shutdown();
        server.join();
    }
}

#[test]
fn a_quarantined_slot_is_answered_by_the_pool() {
    let net = synth(0x9a7a);
    let kinds = [BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Hl];
    let pairs = sample_pairs(net.num_nodes(), 10);
    let expected = oracle_distances(&net, &pairs);

    for kind in [BackendKind::Hl, BackendKind::Ch] {
        // Failover on (the default): the wire id is served by the chain.
        let engine = Arc::new(Engine::build(net.clone(), &kinds));
        let pos = engine
            .position_of_wire(kind.wire_id())
            .expect("the slot is served");
        let server = Server::start(engine, &config()).expect("bind");
        let mut client = ServeClient::connect(server.local_addr()).expect("connect");
        assert_eq!(
            client
                .distance(kind, pairs[0].0, pairs[0].1)
                .expect("healthy"),
            expected[0]
        );
        assert_eq!(
            field(&server.stats_text(), "inline"),
            1,
            "a healthy {kind:?} slot is inline"
        );
        assert!(server
            .registry()
            .current()
            .quarantine(pos, "pulled by the test".into()));
        let before = server.stats_text();
        for (k, &(s, t)) in pairs.iter().enumerate().skip(1) {
            let got = if k % 2 == 0 {
                client.distance(kind, s, t).expect("failover")
            } else {
                let path = client.shortest_path(kind, s, t).expect("failover");
                path.map(|(d, _)| d)
            };
            assert_eq!(
                got, expected[k],
                "quarantined {kind:?} must fail over to oracle answers ({s}, {t})"
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
            .quarantine(pos, "pulled by the test".into()));
        match client.distance(kind, pairs[0].0, pairs[0].1) {
            Err(ClientError::Quarantined(msg)) => assert!(msg.contains("quarantined"), "{msg}"),
            other => panic!("expected QUARANTINED, got {other:?}"),
        }
        match client.shortest_path(kind, pairs[0].0, pairs[0].1) {
            Err(ClientError::Quarantined(msg)) => assert!(msg.contains("quarantined"), "{msg}"),
            other => panic!("expected QUARANTINED, got {other:?}"),
        }
        let stats = server.stats_text();
        assert_eq!(field(&stats, "inline"), 0, "{stats}");
        assert_eq!(field(&stats, "handoff"), 2, "{stats}");
        server.request_shutdown();
        server.join();
    }
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
    // Three rounds over the same pairs: round 0 misses everywhere,
    // rounds 1 and 2 hit on the shard. PATHs, PINGs and one-to-many
    // rows never touch the cache. Returns the DISTANCE frames sent.
    let mut rounds = |kinds: &[BackendKind], pooled_extra: bool| {
        let mut distances = 0u64;
        for round in 0..3 {
            let mut frames = Vec::new();
            for (k, &(s, t)) in pairs.iter().enumerate() {
                frames.push(distance_frame(kinds[k % kinds.len()], (s, t)));
                if k % 5 == 0 {
                    frames.push(path_frame(BackendKind::Ch, (s, t)));
                    frames.push(Request::Ping.encode());
                    if pooled_extra {
                        frames.push(
                            Request::OneToMany {
                                backend: BackendKind::Ch.wire_id(),
                                s,
                                targets: vec![t],
                                deadline_ms: 0,
                            }
                            .encode(),
                        );
                    }
                }
            }
            let mut k = 0;
            for chunk in frames.chunks(32) {
                let responses = client.pipeline_raw(chunk).expect("burst");
                for (frame, response) in chunk.iter().zip(responses) {
                    if frame[0] == spq_serve::protocol::op::DISTANCE {
                        assert_eq!(leading_distance(&response), expected[k], "round {round}");
                        distances += 1;
                        k += 1;
                    }
                }
            }
        }
        distances
    };

    // The served-mixed shape — PING, ch DISTANCE (a third of them
    // misses), ch PATH — never leaves the shard.
    let mut distances = rounds(&[BackendKind::Ch], false);
    let stats = server.stats_text();
    assert_eq!(field(&stats, "handoff"), 0, "{stats}");
    assert_eq!(
        field(&stats, "inline"),
        field(&stats, "requests"),
        "{stats}"
    );
    assert_eq!(field(&stats, "inline"), 3 * (20 + 2 * 4), "{stats}");
    assert_eq!((field(&stats, "hits"), field(&stats, "misses")), (40, 20));

    // With search and lookup backends mixed in: hl misses stay inline,
    // dijkstra misses are looked up on the shard and computed in the
    // pool (7 pairs, round 0 only), one-to-many rows are pooled.
    distances += rounds(
        &[BackendKind::Hl, BackendKind::Dijkstra, BackendKind::Ch],
        true,
    );
    let stats = server.stats_text();
    let (hits, misses) = (field(&stats, "hits"), field(&stats, "misses"));
    assert_eq!(distances, 120);
    assert_eq!(
        hits + misses,
        distances,
        "one lookup per DISTANCE:\n{stats}"
    );
    // The second phase's ch pairs (k % 3 == 2) were cached by the first.
    assert_eq!(misses, 20 + 14, "first rounds only:\n{stats}");
    assert_eq!(field(&stats, "insertions"), 20 + 14, "{stats}");
    assert_eq!(
        field(&stats, "handoff"),
        7 + 3 * 4,
        "7 dijkstra misses + 12 one-to-many rows:\n{stats}"
    );
    assert_every_request_is_accounted_for(&stats);
    server.request_shutdown();
    server.join();
}

/// A bounded-capability backend whose every query spins on its budget
/// until a deadline or the kill flag trips it — a query that would
/// never finish, running on the shard. A 10-second fuse keeps a server
/// that lost the budget from hanging the suite.
struct Spinner;
struct SpinnerSession {
    budget: QueryBudget,
}

impl Backend for Spinner {
    fn backend_name(&self) -> &'static str {
        "Spinner"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(SpinnerSession {
            budget: QueryBudget::unlimited(),
        })
    }
    fn bounded_point_queries(&self) -> bool {
        true
    }
}

impl Session for SpinnerSession {
    fn distance(&mut self, _s: NodeId, _t: NodeId) -> Option<Dist> {
        self.budget.reset();
        let fuse = Instant::now() + Duration::from_secs(10);
        while self.budget.charge() {
            assert!(Instant::now() < fuse, "the budget never tripped");
        }
        None
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.distance(s, t).map(|d| (d, vec![s, t]))
    }
    fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }
    fn interrupted(&self) -> bool {
        self.budget.exhausted()
    }
}

#[test]
fn an_inline_query_is_aborted_by_its_deadline_and_by_force_stop() {
    let engine = Arc::new(
        Engine::build(synth(0x5b1e), &[BackendKind::Dijkstra])
            .with_backend(BackendKind::Ch, Box::new(Spinner)),
    );
    let cfg = ServerConfig {
        grace: Duration::from_millis(100),
        ..config()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    // The deadline trips on the shard. Asked twice: an interrupted None
    // that had been cached would come back as an OK "unreachable".
    client.set_deadline_ms(30);
    for round in 0..2 {
        match client.distance(BackendKind::Ch, 1, 2) {
            Err(ClientError::DeadlineExceeded(msg)) => assert!(msg.contains("deadline"), "{msg}"),
            other => panic!("round {round}: expected DEADLINE_EXCEEDED, got {other:?}"),
        }
        match client.shortest_path(BackendKind::Ch, 1, 2) {
            Err(ClientError::DeadlineExceeded(_)) => {}
            other => panic!("round {round}: expected DEADLINE_EXCEEDED, got {other:?}"),
        }
    }
    client.ping().expect("the shard is free again");
    let stats = server.stats_text();
    assert_eq!(field(&stats, "deadlines_exceeded"), 4, "{stats}");
    assert_eq!(field(&stats, "inline"), 5, "{stats}");
    assert_eq!(field(&stats, "handoff"), 0, "{stats}");
    assert_eq!(field(&stats, "insertions"), 0, "an abort is not an answer");
    assert_eq!((field(&stats, "hits"), field(&stats, "misses")), (0, 2));

    // No deadline: only the force-stop flag can end this one. The shard
    // is busy spinning, so shutdown is requested from outside the wire.
    let stuck = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).expect("connect stuck");
        c.distance(BackendKind::Ch, 3, 4)
    });
    while field(&server.stats_text(), "misses") < 3 {
        std::thread::yield_now();
    }
    server.request_shutdown();
    let t0 = Instant::now();
    let stats = server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "join() hung on an inline query: {:?}",
        t0.elapsed()
    );
    assert_eq!(field(&stats, "force_closed"), 1, "{stats}");
    assert_eq!(field(&stats, "handoff"), 0, "{stats}");
    assert_eq!(field(&stats, "insertions"), 0, "{stats}");
    match stuck.join().expect("stuck client thread") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("shutting down"), "{msg}"),
        Err(ClientError::Io(_)) => {} // the abort may race the close
        other => panic!("a force-stopped query must error, got {other:?}"),
    }
}

/// A bounded-capability backend with a defect: it panics on `(7, 7)`.
/// Counts the sessions built from it.
struct Tripwire(Arc<AtomicUsize>);
struct TripwireSession;

impl Backend for Tripwire {
    fn backend_name(&self) -> &'static str {
        "Tripwire"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        self.0.fetch_add(1, Ordering::SeqCst);
        Box::new(TripwireSession)
    }
    fn bounded_point_queries(&self) -> bool {
        true
    }
}

impl Session for TripwireSession {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        assert!((s, t) != (7, 7), "tripwire: a defect in a point query");
        Some(s as Dist + t as Dist)
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.distance(s, t).map(|d| (d, vec![s, t]))
    }
}

#[test]
fn a_panic_in_an_inline_request_closes_only_its_connection() {
    for path in [false, true] {
        let sessions = Arc::new(AtomicUsize::new(0));
        let engine = Arc::new(
            Engine::build(synth(0x7817), &[BackendKind::Dijkstra])
                .with_backend(BackendKind::Ch, Box::new(Tripwire(Arc::clone(&sessions)))),
        );
        let cfg = ServerConfig {
            // The panicking request must be the cache's first sight of it.
            cache_capacity: 0,
            ..config()
        };
        let server = Server::start(engine, &cfg).expect("bind");
        let mut bystander = ServeClient::connect(server.local_addr()).expect("connect");
        let mut victim = ServeClient::connect(server.local_addr()).expect("connect");
        let ask = |client: &mut ServeClient, s, t| {
            if path {
                client
                    .shortest_path(BackendKind::Ch, s, t)
                    .map(|p| p.map(|(d, _)| d))
            } else {
                client.distance(BackendKind::Ch, s, t)
            }
        };
        assert_eq!(ask(&mut bystander, 1, 2).expect("ok"), Some(3));
        assert_eq!(ask(&mut victim, 2, 3).expect("ok"), Some(5));
        assert_eq!(sessions.load(Ordering::SeqCst), 1, "one shard, one session");

        match ask(&mut victim, 7, 7) {
            Err(ClientError::Io(_)) => {}
            other => panic!("the panicking request's connection must die, got {other:?}"),
        }
        // Same shard, rebuilt sessions, still inline.
        assert_eq!(ask(&mut bystander, 4, 5).expect("ok"), Some(9));
        bystander.ping().expect("the shard keeps serving");
        let mut fresh = ServeClient::connect(server.local_addr()).expect("still accepting");
        assert_eq!(ask(&mut fresh, 5, 6).expect("ok"), Some(11));
        assert_eq!(sessions.load(Ordering::SeqCst), 2, "rebuilt once");

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
}
