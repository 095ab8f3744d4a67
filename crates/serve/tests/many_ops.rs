//! Socket-level coverage for the one-to-many / kNN / range wire ops.
//!
//! Everything here goes through a real TCP server — frame encoding,
//! dispatch, budget plumbing, and the epoch registry are all in the
//! loop. The invariants:
//!
//! 1. every answer served over the wire equals the Dijkstra oracle, on
//!    both the PHAST-backed CH engine and the brute-force default
//!    sessions (dijkstra), so the two implementations cross-check;
//! 2. malformed requests (unknown POI set, range on a backend without
//!    an enumeration kernel) come back as typed errors, not garbage;
//! 3. a request whose deadline expires mid-query surfaces as
//!    `ClientError::DeadlineExceeded` — for every one of the new ops —
//!    instead of an `UNREACHABLE` lie or a hang;
//! 4. a hot epoch swap mid-stream never yields a wrong answer and the
//!    POI registry survives the swap (kNN keeps serving).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::backend::{Backend, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_many::PoiSet;
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{
    BackendKind, ClientError, Engine, ReloadFactory, RetryPolicy, RetryingClient, ServeClient,
};
use spq_synth::SynthParams;

fn test_net(target: usize, seed: u64) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(target),
        seed,
    ))
}

/// All-targets oracle tables for a handful of sources, computed once.
struct Oracle {
    sources: Vec<NodeId>,
    rows: Vec<Vec<Option<Dist>>>,
}

impl Oracle {
    fn build(net: &RoadNetwork, sources: Vec<NodeId>) -> Oracle {
        let mut dij = Dijkstra::new(net.num_nodes());
        let n = net.num_nodes() as NodeId;
        let rows = sources
            .iter()
            .map(|&s| {
                dij.run(net, s);
                (0..n).map(|t| dij.distance(t)).collect()
            })
            .collect();
        Oracle { sources, rows }
    }

    fn row(&self, s: NodeId) -> &[Option<Dist>] {
        let i = self.sources.iter().position(|&x| x == s).expect("source");
        &self.rows[i]
    }

    /// Expected kNN answer: best `k` POIs by `(distance, vertex)`.
    fn knn(&self, s: NodeId, k: usize, poi: &[NodeId]) -> Vec<(NodeId, Dist)> {
        let row = self.row(s);
        let mut best: Vec<(Dist, NodeId)> = poi
            .iter()
            .filter_map(|&p| row[p as usize].map(|d| (d, p)))
            .collect();
        best.sort_unstable();
        best.truncate(k);
        best.into_iter().map(|(d, p)| (p, d)).collect()
    }

    /// Expected range answer: every vertex within `limit`, ascending.
    fn range(&self, s: NodeId, limit: Dist) -> Vec<(NodeId, Dist)> {
        self.row(s)
            .iter()
            .enumerate()
            .filter_map(|(v, d)| d.filter(|&d| d <= limit).map(|d| (v as NodeId, d)))
            .collect()
    }
}

/// A range limit that keeps a realistic fraction of the network in
/// scope: the ~30th percentile of finite distances from `s`.
fn range_limit(oracle: &Oracle, s: NodeId) -> Dist {
    let mut ds: Vec<Dist> = oracle.row(s).iter().filter_map(|&d| d).collect();
    ds.sort_unstable();
    ds[ds.len() * 3 / 10]
}

/// One-to-many / kNN / range served over the socket must equal the
/// Dijkstra oracle on both the PHAST-backed CH backend and the
/// brute-force default sessions, and bad requests must fail typed.
#[test]
fn many_ops_roundtrip_matches_oracle_over_the_socket() {
    let net = test_net(220, 0x00a1_10b5);
    let n = net.num_nodes() as NodeId;
    let engine = Arc::new(Engine::build(
        net.clone(),
        &[BackendKind::Dijkstra, BackendKind::Ch, BackendKind::Tnr],
    ));
    let poi = PoiSet::sample(&net, "cafes", 24, 0xcafe).expect("sample POI set");
    engine.register_pois(vec![poi.clone()]).expect("register");

    let sources: Vec<NodeId> = vec![0, n / 3, n / 2, n - 1];
    let oracle = Oracle::build(&net, sources.clone());

    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    // The dijkstra backend exercises the default (brute-force) Session
    // implementations; ch exercises the PHAST sweep and bucket index.
    // Both must agree with the oracle bit-for-bit.
    let targets: Vec<NodeId> = (0..n).step_by(7).collect();
    for &s in &sources {
        let row = oracle.row(s);
        for backend in [BackendKind::Dijkstra, BackendKind::Ch] {
            let got = client.one_to_many(backend, s, &targets).expect("o2m");
            let expect: Vec<Option<Dist>> = targets.iter().map(|&t| row[t as usize]).collect();
            assert_eq!(got, expect, "{backend:?} one_to_many({s})");

            for k in [0usize, 5, 1000] {
                let got = client.knn(backend, s, k as u32, "cafes").expect("knn");
                assert_eq!(
                    got,
                    oracle.knn(s, k, poi.nodes()),
                    "{backend:?} knn({s}, {k})"
                );
            }

            let limit = range_limit(&oracle, s);
            let got = client.range(backend, s, limit).expect("range");
            assert_eq!(
                got,
                oracle.range(s, limit),
                "{backend:?} range({s}, {limit})"
            );
        }
    }

    // Unknown POI set: a typed request-level error naming the set.
    match client.knn(BackendKind::Ch, 0, 3, "nope") {
        Err(ClientError::Remote(msg)) => {
            assert!(msg.contains("unknown POI set 'nope'"), "got: {msg}")
        }
        other => panic!("unknown POI set must fail typed, got {other:?}"),
    }

    // Range on a backend without an enumeration kernel (TNR uses the
    // default Session::range): a typed "not served" error.
    match client.range(BackendKind::Tnr, 0, 1_000_000) {
        Err(ClientError::Remote(msg)) => {
            assert!(msg.contains("does not serve range queries"), "got: {msg}")
        }
        other => panic!("unsupported range must fail typed, got {other:?}"),
    }

    drop(client);
    server.request_shutdown();
    server.join();
}

/// A backend whose every query spins until its budget trips — a stand-in
/// for a query too expensive to finish inside any reasonable deadline.
/// A 10-second fuse keeps a buggy budget from hanging the suite.
struct StallBackend;
struct StallSession {
    budget: QueryBudget,
    tripped: bool,
}

impl Backend for StallBackend {
    fn backend_name(&self) -> &'static str {
        "Stall"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(StallSession {
            budget: QueryBudget::unlimited(),
            tripped: false,
        })
    }
}

impl StallSession {
    /// Spins until the budget trips (sets `tripped`) or the fuse blows.
    fn stall(&mut self) {
        self.budget.reset();
        self.tripped = false;
        let fuse = Instant::now() + Duration::from_secs(10);
        while Instant::now() < fuse {
            if !self.budget.charge() {
                self.tripped = true;
                return;
            }
        }
    }
}

impl Session for StallSession {
    fn distance(&mut self, _s: NodeId, _t: NodeId) -> Option<Dist> {
        self.stall();
        None
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.distance(s, t).map(|d| (d, vec![s, t]))
    }
    // one_to_many and knn inherit the defaults, which route through
    // `distance` — exactly the path a budget-honoring engine takes.
    fn range(&mut self, _s: NodeId, _limit: Dist, _out: &mut Vec<(NodeId, Dist)>) -> bool {
        self.stall();
        true
    }
    fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }
    fn interrupted(&self) -> bool {
        self.tripped
    }
}

/// Every new op must surface an expired deadline as
/// `DeadlineExceeded` through the socket — never as an answer.
#[test]
fn deadline_expiry_surfaces_as_deadline_exceeded_on_many_ops() {
    let net = test_net(120, 0xdead);
    // A real CH slot so POI registration works; the stall backend rides
    // along under the TNR wire id and is the one we query.
    let engine = Arc::new(
        Engine::build(net.clone(), &[BackendKind::Ch])
            .with_backend(BackendKind::Tnr, Box::new(StallBackend)),
    );
    let poi = PoiSet::sample(&net, "cafes", 8, 0xcafe).expect("sample POI set");
    engine.register_pois(vec![poi]).expect("register");

    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");
    client.set_deadline_ms(1);

    let targets: Vec<NodeId> = (0..16).collect();
    match client.one_to_many(BackendKind::Tnr, 0, &targets) {
        Err(ClientError::DeadlineExceeded(_)) => {}
        other => panic!("one_to_many past deadline must trip, got {other:?}"),
    }
    match client.knn(BackendKind::Tnr, 0, 3, "cafes") {
        Err(ClientError::DeadlineExceeded(_)) => {}
        other => panic!("knn past deadline must trip, got {other:?}"),
    }
    match client.range(BackendKind::Tnr, 0, 1_000_000) {
        Err(ClientError::DeadlineExceeded(_)) => {}
        other => panic!("range past deadline must trip, got {other:?}"),
    }

    // The same connection, no deadline, real backend: still healthy —
    // an expired request must not poison the worker or the session.
    client.set_deadline_ms(0);
    let got = client
        .one_to_many(BackendKind::Ch, 0, &targets)
        .expect("ch o2m after deadline errors");
    let mut dij = Dijkstra::new(net.num_nodes());
    dij.run(&net, 0);
    let expect: Vec<Option<Dist>> = targets.iter().map(|&t| dij.distance(t)).collect();
    assert_eq!(got, expect);

    drop(client);
    server.request_shutdown();
    server.join();
}

/// Hot epoch swaps mid-stream: a client hammers the three new ops while
/// reloads publish fresh engines (same network, re-registered POI set).
/// Every answer must stay oracle-exact and kNN must keep serving across
/// the swap — the POI registry is per-epoch state.
#[test]
fn hot_swap_mid_stream_keeps_many_ops_exact() {
    let net = test_net(200, 0x5a97);
    let n = net.num_nodes() as NodeId;
    let poi = PoiSet::sample(&net, "cafes", 16, 0xcafe).expect("sample POI set");

    let engine = Arc::new(Engine::build(
        net.clone(),
        &[BackendKind::Dijkstra, BackendKind::Ch],
    ));
    engine.register_pois(vec![poi.clone()]).expect("register");

    // The factory rebuilds the same engine — the point is exercising the
    // swap under live many-op traffic, not changing the answers.
    let factory = {
        let net = net.clone();
        let poi = poi.clone();
        ReloadFactory::new(move || {
            let engine = Arc::new(Engine::build(
                net.clone(),
                &[BackendKind::Dijkstra, BackendKind::Ch],
            ));
            engine.register_pois(vec![poi.clone()])?;
            Ok(engine)
        })
    };
    let cfg = ServerConfig {
        workers: 3,
        reload_factory: Some(factory),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let sources: Vec<NodeId> = vec![1, n / 4, n / 2, n - 2];
    let oracle = Oracle::build(&net, sources.clone());
    let targets: Vec<NodeId> = (0..n).step_by(5).collect();

    let stop = AtomicBool::new(false);
    let swaps = std::thread::scope(|scope| {
        let hammer = scope.spawn(|| {
            let mut client = RetryingClient::new(
                addr,
                RetryPolicy {
                    max_retries: 10,
                    base: Duration::from_millis(1),
                    cap: Duration::from_millis(20),
                    seed: 0x7e57,
                    partial_retries: 10,
                },
            );
            let mut served = 0u64;
            for i in 0.. {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let s = sources[i % sources.len()];
                let backend = if i % 2 == 0 {
                    BackendKind::Ch
                } else {
                    BackendKind::Dijkstra
                };
                match i % 3 {
                    0 => {
                        let got = client.one_to_many(backend, s, &targets).expect("o2m");
                        let expect: Vec<Option<Dist>> =
                            targets.iter().map(|&t| oracle.row(s)[t as usize]).collect();
                        assert_eq!(got, expect, "o2m({s}) wrong mid-swap");
                    }
                    1 => {
                        let got = client.knn(backend, s, 4, "cafes").expect("knn");
                        assert_eq!(
                            got,
                            oracle.knn(s, 4, poi.nodes()),
                            "knn({s}) wrong mid-swap"
                        );
                    }
                    _ => {
                        let limit = range_limit(&oracle, s);
                        let got = client.range(backend, s, limit).expect("range");
                        assert_eq!(got, oracle.range(s, limit), "range({s}) wrong mid-swap");
                    }
                }
                served += 1;
            }
            served
        });

        // Drive reloads from the main thread while the hammer runs.
        let mut control = ServeClient::connect(addr).expect("connect control");
        let mut swaps = 0u64;
        let mut last_epoch = 0u64;
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(60));
            let epoch = control.reload().expect("reload");
            assert!(epoch > last_epoch, "epochs must advance");
            last_epoch = epoch;
            swaps += 1;
        }
        std::thread::sleep(Duration::from_millis(60));
        stop.store(true, Ordering::SeqCst);
        let served = hammer.join().expect("hammer thread");
        assert!(
            served >= 9,
            "hammer must exercise every op repeatedly, served only {served}"
        );
        swaps
    });
    assert!(swaps >= 1, "at least one hot swap must publish");

    server.request_shutdown();
    server.join();
}

/// A selection is cut from one hierarchy and memoised in the worker's
/// session. Swap in a *different* network over the same vertex ids and
/// the very same depot list — asked of the very same worker, in the
/// spellings that hit its memo — must be answered from the new
/// hierarchy: sessions, and their memos with them, are rebuilt at the
/// epoch boundary.
#[test]
fn hot_swap_never_reuses_a_selection_across_epochs() {
    let old_net = test_net(200, 0x5a97);
    let new_net = test_net(200, 0x0e90);
    let n = old_net.num_nodes().min(new_net.num_nodes()) as NodeId;
    let factory = {
        let new_net = new_net.clone();
        ReloadFactory::new(move || Ok(Arc::new(Engine::build(new_net.clone(), &[BackendKind::Ch]))))
    };
    let engine = Arc::new(Engine::build(old_net.clone(), &[BackendKind::Ch]));
    let cfg = ServerConfig {
        workers: 1,
        reload_factory: Some(factory),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let mut client = ServeClient::connect(server.local_addr()).expect("connect");

    let sources: Vec<NodeId> = vec![2, n / 3, n - 3];
    let depots: Vec<NodeId> = (0..n).step_by(7).collect();
    let mut rotated = depots.clone();
    rotated.rotate_left(5);
    let mut ask = |oracle: &Oracle, epoch: &str| {
        for &s in &sources {
            for list in [&depots, &rotated] {
                let expect: Vec<Option<Dist>> =
                    list.iter().map(|&t| oracle.row(s)[t as usize]).collect();
                let row = client.one_to_many(BackendKind::Ch, s, list).expect("o2m");
                assert_eq!(row, expect, "o2m({s}) on the {epoch} epoch");
                let table = client.distances(BackendKind::Ch, &[s], list).expect("1×N");
                assert_eq!(table, expect, "1×N({s}) on the {epoch} epoch");
                let column = client.distances(BackendKind::Ch, list, &[s]).expect("N×1");
                assert_eq!(column, expect, "N×1({s}) on the {epoch} epoch");
            }
        }
    };
    let old_oracle = Oracle::build(&old_net, sources.clone());
    let new_oracle = Oracle::build(&new_net, sources.clone());
    assert!(
        sources.iter().any(|&s| depots
            .iter()
            .any(|&t| old_oracle.row(s)[t as usize] != new_oracle.row(s)[t as usize])),
        "the two epochs must be distinguishable by their answers"
    );
    ask(&old_oracle, "old");
    ServeClient::connect(server.local_addr())
        .expect("connect control")
        .reload()
        .expect("reload");
    ask(&new_oracle, "new");

    server.request_shutdown();
    server.join();
}
