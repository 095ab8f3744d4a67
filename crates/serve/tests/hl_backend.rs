//! Socket-level coverage for the hub-labeling backend: `--backends hl`
//! answers DISTANCE and DISTANCES correctly over the wire, survives a
//! RELOAD epoch swap onto a different network, and participates in the
//! auditor's quarantine failover chain like every other wire id.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::backend::{Backend, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{AuditConfig, BackendKind, Engine, ReloadFactory, ServeClient};
use spq_synth::SynthParams;

fn synth(seed: u64) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(150),
        seed,
    ))
}

fn sample_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as u64;
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) % n
    };
    (0..count)
        .map(|_| (next() as NodeId, next() as NodeId))
        .collect()
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

/// A backend whose answers are always wrong — stands in for an HL index
/// silently gone bad after startup, so the audit has something to catch.
struct Lying;
struct LyingSession;

impl Backend for Lying {
    fn backend_name(&self) -> &'static str {
        "Lying"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(LyingSession)
    }
}

impl Session for LyingSession {
    fn distance(&mut self, _s: NodeId, _t: NodeId) -> Option<Dist> {
        Some(1)
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        Some((1, vec![s, t]))
    }
}

#[test]
fn hl_serves_reloads_and_fails_over_like_any_wire_id() {
    // ---- Phase 1: --backends hl answers DISTANCE and DISTANCES. ----
    let net_a = synth(0x0b5e55ed);
    let net_b = synth(0x0b5e55ed ^ 0x5EED_CAFE);
    let kinds = [BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Hl];
    let engine = Arc::new(Engine::build(net_a.clone(), &kinds));
    engine.self_check(16, 3).expect("clean HL engine");
    let factory_net = net_b.clone();
    let factory = ReloadFactory::new(move || {
        Ok(Arc::new(Engine::build(
            factory_net.clone(),
            &[BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Hl],
        )))
    });
    let cfg = ServerConfig {
        workers: 2,
        reload_factory: Some(factory),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    let pairs = sample_pairs(net_a.num_nodes().min(net_b.num_nodes()), 14);
    let d_a = oracle_distances(&net_a, &pairs);
    for (k, &(s, t)) in pairs.iter().enumerate() {
        assert_eq!(
            client.distance(BackendKind::Hl, s, t).expect("DISTANCE"),
            d_a[k],
            "hl DISTANCE disagrees with the oracle on ({s}, {t})"
        );
    }
    let sources: Vec<NodeId> = pairs.iter().take(4).map(|&(s, _)| s).collect();
    let targets: Vec<NodeId> = pairs.iter().take(5).map(|&(_, t)| t).collect();
    let table = client
        .distances(BackendKind::Hl, &sources, &targets)
        .expect("DISTANCES");
    assert_eq!(table.len(), sources.len() * targets.len());
    for (i, &s) in sources.iter().enumerate() {
        for (j, &t) in targets.iter().enumerate() {
            let single = client.distance(BackendKind::Hl, s, t).expect("single");
            assert_eq!(
                table[i * targets.len() + j],
                single,
                "hl batch disagrees with its own point answer on ({s}, {t})"
            );
        }
    }

    // ---- Phase 2: a RELOAD epoch swap re-labels the new network. ----
    let epoch = client.reload().expect("RELOAD");
    assert_eq!(epoch, 1);
    let d_b = oracle_distances(&net_b, &pairs);
    // Two rounds: the second is a cache hit by construction, so a stale
    // epoch-A label answer would surface here.
    for round in 0..2 {
        for (k, &(s, t)) in pairs.iter().enumerate() {
            assert_eq!(
                client.distance(BackendKind::Hl, s, t).expect("post-swap"),
                d_b[k],
                "post-swap hl answer for ({s}, {t}) in round {round} \
                 must come from the new epoch's labels"
            );
        }
    }
    client.shutdown_server().expect("shutdown frame");
    server.join();

    // ---- Phase 3: a rotten HL slot is quarantined and fails over. ----
    let engine = Arc::new(
        Engine::build(net_a.clone(), &[BackendKind::Dijkstra, BackendKind::Ch])
            .with_backend(BackendKind::Hl, Box::new(Lying)),
    );
    let cfg = ServerConfig {
        workers: 2,
        audit: Some(AuditConfig {
            interval: Duration::from_millis(100),
            ..AuditConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let s = client.stats().expect("stats");
        if s.contains("quarantined: Lying") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the audit failed to quarantine the rotten hl slot:\n{s}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // The hl wire id keeps answering — now via the failover chain (CH),
    // and correctly.
    for (k, &(s, t)) in pairs.iter().enumerate() {
        assert_eq!(
            client.distance(BackendKind::Hl, s, t).expect("failover"),
            d_a[k],
            "quarantined hl wire id must fail over to oracle answers ({s}, {t})"
        );
    }
    client.shutdown_server().expect("shutdown frame");
    server.join();
}
