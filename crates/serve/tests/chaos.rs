//! Deterministic chaos suite for the serving subsystem.
//!
//! Every fault here flows from a fixed seed ([`FaultPlan`] for
//! server-side latency/drops, [`FaultInjector::corrupt`] for mangled
//! request frames and index files), so a failing run replays
//! identically — a chaos failure is a test case, not a flake. The
//! invariants under fault load:
//!
//! 1. availability: retrying clients always converge to an answer;
//! 2. correctness: every OK answer equals the Dijkstra oracle — faults
//!    may slow or kill a request, never falsify it;
//! 3. overload sheds (BUSY) instead of hanging;
//! 4. shutdown drains in-flight work within the grace window, then
//!    force-closes stragglers;
//! 5. damaged index files degrade the engine with typed reasons instead
//!    of serving garbage;
//! 6. every thread joins — a hang here is a test-timeout failure;
//! 7. a hot index swap under concurrent load never yields a wrong or
//!    stale answer, and a failed reload leaves the old epoch serving;
//! 8. an injected worker panic kills only its own connection — the
//!    supervised worker recovers (and a panic storm retires it);
//! 9. a backend that starts answering wrongly is quarantined by the
//!    continuous oracle audit and its traffic fails over;
//! 10. the load generator checks answers after its load, so a backend
//!     that turns under load fails the sweep.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::backend::{Backend, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_serve::loadgen::{self, LoadgenOptions};
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{
    AuditConfig, BackendKind, BackendSpec, ClientError, Engine, FaultInjector, FaultPlan,
    ReloadFactory, RetryPolicy, RetryingClient, ServeClient,
};
use spq_synth::SynthParams;

fn test_net(target: usize, seed: u64) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(target),
        seed,
    ))
}

/// Deterministic sample pairs spread over the vertex range.
fn sample_pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as u64;
    let mut state = 0xdead_beef_0042_4242u64;
    (0..count)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = ((state >> 33) % n) as NodeId;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = ((state >> 33) % n) as NodeId;
            (s, t)
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

/// A backend that sleeps a fixed time per query — makes queueing
/// observable. Not oracle-correct (constant answers), so tests using it
/// never claim answer correctness.
struct SlowBackend(Duration);
struct SlowSession(Duration);

impl Backend for SlowBackend {
    fn backend_name(&self) -> &'static str {
        "Slow"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(SlowSession(self.0))
    }
}

impl Session for SlowSession {
    fn distance(&mut self, _s: NodeId, _t: NodeId) -> Option<Dist> {
        std::thread::sleep(self.0);
        Some(1)
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        std::thread::sleep(self.0);
        Some((1, vec![s, t]))
    }
}

/// A backend that spins until its budget trips (deadline or kill flag)
/// — models a query too expensive to ever finish. A 10-second wall
/// fuse keeps a buggy server from hanging the whole suite.
struct StuckBackend;
struct StuckSession {
    budget: QueryBudget,
    tripped: bool,
}

impl Backend for StuckBackend {
    fn backend_name(&self) -> &'static str {
        "Stuck"
    }
    fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(StuckSession {
            budget: QueryBudget::unlimited(),
            tripped: false,
        })
    }
}

impl Session for StuckSession {
    fn distance(&mut self, _s: NodeId, _t: NodeId) -> Option<Dist> {
        self.budget.reset();
        self.tripped = false;
        let fuse = Instant::now() + Duration::from_secs(10);
        loop {
            if !self.budget.charge() {
                self.tripped = true;
                return None;
            }
            if Instant::now() >= fuse {
                return Some(1);
            }
        }
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        self.distance(s, t).map(|d| (d, vec![s, t]))
    }
    fn set_budget(&mut self, budget: &QueryBudget) {
        self.budget.clone_from(budget);
    }
    fn interrupted(&self) -> bool {
        self.tripped
    }
}

/// A backend that confidently answers every query with distance 1 — a
/// stand-in for an index silently gone bad *after* the startup
/// self-check (memory corruption, a bad mmap, a defect that only
/// manifests under load). The continuous audit must catch it.
struct LyingBackend;
struct LyingSession;

impl Backend for LyingBackend {
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

/// A backend that answers truthfully (one Dijkstra search per query)
/// for its first `honest` distance queries across all sessions, then
/// lies like [`LyingBackend`] — an index that goes bad under load.
struct TurncoatBackend {
    honest: usize,
    served: Arc<AtomicUsize>,
}
struct TurncoatSession<'a> {
    backend: &'a TurncoatBackend,
    net: &'a RoadNetwork,
    dijkstra: Dijkstra,
}

impl Backend for TurncoatBackend {
    fn backend_name(&self) -> &'static str {
        "Turncoat"
    }
    fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
        Box::new(TurncoatSession {
            backend: self,
            net,
            dijkstra: Dijkstra::new(net.num_nodes()),
        })
    }
}

impl Session for TurncoatSession<'_> {
    fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
        if self.backend.served.fetch_add(1, Ordering::SeqCst) >= self.backend.honest {
            return Some(1);
        }
        self.dijkstra.run_to_target(self.net, s, t);
        self.dijkstra.distance(t)
    }
    fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
        Some((1, vec![s, t]))
    }
}

/// The headline chaos run: injected latency, injected connection drops,
/// and client-side corrupted frames, all seeded. Retrying clients must
/// still converge on the oracle answer for every single pair.
#[test]
fn chaos_sweep_stays_available_and_never_wrong() {
    let net = test_net(300, 0xc4a05);
    let engine = Arc::new(Engine::build(
        net.clone(),
        &[BackendKind::Dijkstra, BackendKind::Ch],
    ));
    engine.self_check(16, 3).expect("clean engine");
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0xBAD5EED,
        latency_prob: 0.2,
        latency: Duration::from_millis(2),
        drop_prob: 0.15,
        panic_prob: 0.0,
        emfile_accepts: 0,
    }));
    let cfg = ServerConfig {
        workers: 2,
        fault: Some(Arc::clone(&injector)),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    // Phase 1: oracle-checked queries through a retrying client. The
    // injected drops force reconnects; the answers must never change.
    let pairs = sample_pairs(net.num_nodes(), 60);
    let mut oracle = Dijkstra::new(net.num_nodes());
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
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let kind = if i % 2 == 0 {
            BackendKind::Dijkstra
        } else {
            BackendKind::Ch
        };
        let got = client.distance(kind, s, t).expect("chaos must not starve");
        oracle.run_to_target(&net, s, t);
        assert_eq!(
            got,
            oracle.distance(t),
            "wrong answer under chaos ({s},{t})"
        );
    }
    assert!(injector.drops() > 0, "the drop fault must have fired");
    assert!(injector.delays() > 0, "the latency fault must have fired");
    assert!(client.retries > 0, "drops must have caused retries");
    // A connected client pins a worker; release it before the next
    // phase so the pool (2 workers) never fills up with idle pins.
    drop(client);

    // Phase 2: corrupted request frames. Each elicits an error frame,
    // a (possibly wrong-vertex but genuine) answer, or a drop — never
    // a crash. The connection is rebuilt on demand.
    let template = spq_serve::protocol::Request::Distance {
        backend: BackendKind::Ch.wire_id(),
        s: pairs[0].0,
        t: pairs[0].1,
        deadline_ms: 0,
    }
    .encode();
    let mut raw = ServeClient::connect(addr).expect("connect raw");
    for round in 0..40u64 {
        let mangled = FaultInjector::corrupt(&template, round);
        if mangled.first() == Some(&spq_serve::protocol::op::SHUTDOWN) {
            // The one opcode with side effects; a bit flip that forges
            // it would end the test early by design, not by bug.
            continue;
        }
        if raw.roundtrip_raw(&mangled).is_err() {
            raw = ServeClient::connect(addr).expect("reconnect after drop");
        }
    }
    drop(raw);

    // Phase 3: the server is still healthy and joins cleanly.
    let mut check = RetryingClient::new(addr, RetryPolicy::default());
    check.ping().expect("server alive after chaos");
    let (s0, t0) = pairs[0];
    oracle.run_to_target(&net, s0, t0);
    assert_eq!(
        check.distance(BackendKind::Ch, s0, t0).expect("post-chaos"),
        oracle.distance(t0)
    );
    let mut closer = ServeClient::connect(addr).expect("connect for shutdown");
    let _ = closer.shutdown_server(); // the shutdown ack itself may be dropped
    let stats = server.join();
    assert!(stats.contains("requests="), "{stats}");
}

/// Overload: one worker, a one-slot queue, and slow queries. Excess
/// connections must be turned away with BUSY immediately — not queued
/// forever, not hung.
#[test]
fn overload_sheds_with_busy_instead_of_hanging() {
    let engine = Arc::new(Engine::build(test_net(64, 1), &[]).with_backend(
        BackendKind::Dijkstra,
        Box::new(SlowBackend(Duration::from_millis(400))),
    ));
    let cfg = ServerConfig {
        workers: 1,
        max_pending: 1,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    const CLIENTS: usize = 6;
    let outcomes: Vec<Result<Option<Dist>, ClientError>> = std::thread::scope(|scope| {
        // Spawned eagerly so all clients contend at once; a lazy
        // iterator would serialise them behind each other's joins.
        let mut handles = Vec::with_capacity(CLIENTS);
        for _ in 0..CLIENTS {
            handles.push(scope.spawn(move || {
                let mut c = ServeClient::connect(addr)?;
                c.distance(BackendKind::Dijkstra, 0, 1)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let busy = outcomes
        .iter()
        .filter(|r| matches!(r, Err(ClientError::Busy(_))))
        .count();
    let served = outcomes.iter().filter(|r| r.is_ok()).count();
    assert!(busy > 0, "no connection was shed: {outcomes:?}");
    assert!(
        served > 0,
        "shedding must not starve everyone: {outcomes:?}"
    );
    // Drops (EOF before a response) can happen to connections accepted
    // into the queue when the run ends, but nothing may fail any other
    // way than Busy or transport loss.
    for r in &outcomes {
        match r {
            Ok(_) | Err(ClientError::Busy(_)) | Err(ClientError::Io(_)) => {}
            other => panic!("unexpected outcome under overload: {other:?}"),
        }
    }

    let mut closer = ServeClient::connect(addr).expect("connect for shutdown");
    closer.shutdown_server().expect("shutdown");
    let stats = server.join();
    // Every observed Busy was counted (a shed whose BUSY frame was lost
    // in flight surfaces client-side as Io, so shed can exceed busy).
    assert!(field(&stats, "shed") as usize >= busy, "{stats}");
}

/// A request-level deadline on a query that would never finish: the
/// client gets DEADLINE_EXCEEDED promptly, the worker survives, and a
/// deadline-free fast query still works afterwards.
#[test]
fn deadlines_abort_stuck_queries_with_a_typed_error() {
    let engine = Arc::new(
        Engine::build(test_net(64, 2), &[BackendKind::Dijkstra])
            .with_backend(BackendKind::Ch, Box::new(StuckBackend)),
    );
    let cfg = ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    client.set_deadline_ms(50);
    let t0 = Instant::now();
    match client.distance(BackendKind::Ch, 0, 1) {
        Err(ClientError::DeadlineExceeded(msg)) => {
            assert!(msg.contains("deadline"), "{msg}")
        }
        other => panic!("expected DEADLINE_EXCEEDED, got {other:?}"),
    }
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "deadline must fire promptly, took {:?}",
        t0.elapsed()
    );

    // The same connection keeps working for an honest backend, with and
    // without a deadline.
    let with_deadline = client
        .distance(BackendKind::Dijkstra, 0, 1)
        .expect("fast query fits any deadline");
    client.set_deadline_ms(0);
    let without = client
        .distance(BackendKind::Dijkstra, 0, 1)
        .expect("deadline-free query");
    assert_eq!(with_deadline, without);

    let stats = client.stats().expect("stats");
    assert_eq!(field(&stats, "deadlines_exceeded"), 1, "{stats}");

    let mut closer = ServeClient::connect(addr).expect("connect for shutdown");
    closer.shutdown_server().expect("shutdown");
    server.join();
}

/// Graceful drain: a long in-flight query finishes and is answered
/// after SHUTDOWN arrives, while the listener stops taking new
/// connections.
#[test]
fn shutdown_drains_inflight_queries_within_grace() {
    let engine = Arc::new(Engine::build(test_net(64, 3), &[]).with_backend(
        BackendKind::Dijkstra,
        Box::new(SlowBackend(Duration::from_millis(500))),
    ));
    let cfg = ServerConfig {
        workers: 2,
        grace: Duration::from_secs(5),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let slow = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).expect("connect slow");
        let t0 = Instant::now();
        let r = c.distance(BackendKind::Dijkstra, 0, 1);
        (r, t0.elapsed())
    });
    // Let the slow query get in flight, then shut down underneath it.
    std::thread::sleep(Duration::from_millis(150));
    let mut closer = ServeClient::connect(addr).expect("connect for shutdown");
    closer.shutdown_server().expect("shutdown ack");

    let (result, elapsed) = slow.join().expect("slow client thread");
    assert_eq!(
        result.expect("in-flight query must be drained, not cut"),
        Some(1)
    );
    assert!(
        elapsed >= Duration::from_millis(400),
        "the query really was in flight across the shutdown: {elapsed:?}"
    );
    let stats = server.join();
    assert_eq!(field(&stats, "force_closed"), 0, "{stats}");
    assert!(
        ServeClient::connect(addr).is_err(),
        "listener must refuse new connections after shutdown"
    );
}

/// Post-grace force-stop: a query that would never finish cannot hold
/// shutdown hostage. The budget's kill flag aborts it, the client gets
/// an error (never a fabricated answer), and join() returns promptly.
#[test]
fn force_stop_aborts_stuck_queries_after_grace() {
    let engine = Arc::new(
        Engine::build(test_net(64, 4), &[])
            .with_backend(BackendKind::Dijkstra, Box::new(StuckBackend)),
    );
    // Two workers: one gets wedged on the stuck query, the other must
    // stay free to receive the SHUTDOWN frame.
    let cfg = ServerConfig {
        workers: 2,
        grace: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let stuck = std::thread::spawn(move || {
        let mut c = ServeClient::connect(addr).expect("connect stuck");
        c.distance(BackendKind::Dijkstra, 0, 1)
    });
    std::thread::sleep(Duration::from_millis(150));
    let mut closer = ServeClient::connect(addr).expect("connect for shutdown");
    closer.shutdown_server().expect("shutdown ack");

    let t0 = Instant::now();
    let stats = server.join();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "join() hung past the grace window: {:?}",
        t0.elapsed()
    );
    assert_eq!(field(&stats, "force_closed"), 1, "{stats}");

    match stuck.join().expect("stuck client thread") {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("shutting down"), "{msg}"),
        Err(ClientError::Io(_)) => {} // the abort may race the close
        other => panic!("a force-stopped query must error, got {other:?}"),
    }
}

/// Damaged index files — bit-flipped, truncated, legacy-format — must
/// degrade the engine with precise typed reasons, and the degraded
/// engine must still answer correctly (it serves the fallback, never
/// the damaged bytes).
#[test]
fn damaged_index_files_degrade_with_typed_reasons() {
    let net = test_net(200, 5);
    let dir = std::env::temp_dir().join(format!("spq-chaos-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let ch_path = dir.join("net.ch");
    let ch = spq_ch::ContractionHierarchy::build(&net);
    let mut bytes = Vec::new();
    ch.write_binary(&mut bytes).expect("serialise CH");
    std::fs::write(&ch_path, &bytes).expect("write CH index");

    // Control: the intact file loads and serves correctly.
    let specs = [
        BackendSpec::built(BackendKind::Dijkstra),
        BackendSpec::from_file(BackendKind::Ch, &ch_path),
    ];
    let engine = Engine::build_with_indexes(net.clone(), &specs, true).expect("engine");
    assert!(engine.degradations().is_empty(), "intact file must load");
    engine
        .self_check(16, 3)
        .expect("loaded CH answers correctly");

    // Bit flip: checksum catches it, CH degrades to Dijkstra.
    let flipped_path = dir.join("net-flipped.ch");
    // Flip within the body (past the 24-byte container header) so the
    // failure is the checksum, not the magic.
    let mut flipped = bytes.clone();
    let tail = FaultInjector::corrupt(&bytes[24..], 11);
    flipped[24..].copy_from_slice(&tail);
    std::fs::write(&flipped_path, &flipped).expect("write flipped");
    let specs = [
        BackendSpec::built(BackendKind::Dijkstra),
        BackendSpec::from_file(BackendKind::Ch, &flipped_path),
    ];
    let engine = Engine::build_with_indexes(net.clone(), &specs, true).expect("degraded engine");
    let d = &engine.degradations()[0];
    assert_eq!(d.requested, BackendKind::Ch);
    assert_eq!(d.served_by, BackendKind::Dijkstra);
    assert!(d.reason.contains("checksum mismatch"), "{}", d.reason);
    engine.self_check(16, 3).expect("fallback still correct");

    // Truncation is reported as truncation.
    let short_path = dir.join("net-short.ch");
    std::fs::write(&short_path, FaultInjector::truncate(&bytes, 12)).expect("write short");
    let specs = [
        BackendSpec::built(BackendKind::Dijkstra),
        BackendSpec::from_file(BackendKind::Ch, &short_path),
    ];
    let engine = Engine::build_with_indexes(net.clone(), &specs, true).expect("degraded engine");
    let reason = &engine.degradations()[0].reason;
    assert!(
        reason.contains("truncated") || reason.contains("i/o error"),
        "{reason}"
    );

    // A legacy (pre-checksum) file is refused with migration advice.
    let legacy_path = dir.join("net-legacy.ch");
    let mut legacy = Vec::new();
    spq_graph::binio::write_header(&mut legacy, b"SPQC", 1).expect("legacy header");
    spq_graph::binio::write_u64(&mut legacy, 0).expect("legacy body");
    std::fs::write(&legacy_path, &legacy).expect("write legacy");
    let specs = [
        BackendSpec::built(BackendKind::Dijkstra),
        BackendSpec::from_file(BackendKind::Ch, &legacy_path),
    ];
    let engine = Engine::build_with_indexes(net.clone(), &specs, true).expect("degraded engine");
    let reason = &engine.degradations()[0].reason;
    assert!(reason.contains("legacy format version 1"), "{reason}");
    assert!(reason.contains("rebuild"), "{reason}");

    // Strict mode (--no-degrade) turns the same damage into a fatal
    // startup error. A fresh damaged file: the earlier degrade-mode
    // build already moved `net-flipped.ch` into quarantine.
    let strict_path = dir.join("net-strict.ch");
    std::fs::write(&strict_path, &flipped).expect("write strict-mode copy");
    let err = Engine::build_with_indexes(
        net,
        &[BackendSpec::from_file(BackendKind::Ch, &strict_path)],
        false,
    )
    .err()
    .expect("strict mode refuses damaged indexes");
    assert!(err.contains("checksum mismatch"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite 6: the load generator must survive the server dying
/// mid-run — exiting with the error recorded and the partial rows
/// preserved, not panicking or hanging.
#[test]
fn loadgen_reports_partial_results_when_the_server_dies() {
    let net = test_net(200, 6);
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    // Three workers: the two loadgen connections pin one each, and the
    // killer's SHUTDOWN frame needs a free one to be heard at all.
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    // Kill the server out from under the sweep.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        let mut c = ServeClient::connect(addr).expect("connect killer");
        let _ = c.shutdown_server();
    });

    let opts = LoadgenOptions {
        backends: vec![BackendKind::Dijkstra],
        concurrency: vec![2],
        duration: Duration::from_secs(10),
        per_set: 20,
        verify_samples: 4,
        retry: RetryPolicy {
            max_retries: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 3,
            partial_retries: 2,
        },
        ..LoadgenOptions::default()
    };
    let t0 = Instant::now();
    let report = loadgen::run(addr, &net, &opts);
    killer.join().expect("killer thread");
    server.join();

    assert!(
        t0.elapsed() < Duration::from_secs(8),
        "the sweep must abort early, not run its full duration"
    );
    let err = report
        .error
        .as_ref()
        .expect("server death must be reported");
    assert!(!err.is_empty());
    assert_eq!(report.rows.len(), 1, "the dying run still yields its row");
    assert!(
        report.rows[0].requests > 0,
        "partial progress before the kill is preserved: {:?}",
        report.rows[0]
    );
}

/// The sweep's oracle check follows the load it measured: a backend
/// that is honest for its first queries and lies once the timed run has
/// pushed it past them must show up as mismatches. With the cache off,
/// every checked answer comes from the backend itself.
#[test]
fn loadgen_checks_answers_after_the_load_and_catches_a_backend_that_turns() {
    let net = test_net(300, 27);
    let served = Arc::new(AtomicUsize::new(0));
    let honest = 400;
    let engine = Arc::new(Engine::build(net.clone(), &[]).with_backend(
        BackendKind::Tnr,
        Box::new(TurncoatBackend {
            honest,
            served: Arc::clone(&served),
        }),
    ));
    let cfg = ServerConfig {
        workers: 2,
        cache_capacity: 0,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    let opts = LoadgenOptions {
        backends: vec![BackendKind::Tnr],
        concurrency: vec![1],
        duration: Duration::from_millis(300),
        warmup: Duration::from_millis(20),
        per_set: 20,
        verify_samples: 16,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run(addr, &net, &opts);
    if let Ok(mut client) = ServeClient::connect(addr) {
        let _ = client.shutdown_server();
    }
    server.join();

    assert!(report.error.is_none(), "{:?}", report.error);
    assert!(
        served.load(Ordering::SeqCst) > honest + opts.verify_samples,
        "the timed run must outlast the honest stretch"
    );
    assert_eq!(report.rows.len(), 1);
    assert_eq!(report.rows[0].verified, opts.verify_samples);
    assert!(
        report.mismatches() > 0,
        "lies told after the load went unchecked: {:?}",
        report.rows[0]
    );
}

/// Acceptance (a): a hot index swap under concurrent load. Three
/// clients hammer oracle-checked queries while a fourth triggers three
/// RELOADs; every single answer must equal the oracle (the replacement
/// engines serve the same network, so a stale cache entry or a query
/// answered half-on-each-epoch would still surface as a correctness
/// violation in the epoch-keyed accounting below).
#[test]
fn hot_reload_under_concurrent_load_never_yields_wrong_or_stale_answers() {
    let net = test_net(300, 9);
    let kinds = [BackendKind::Dijkstra, BackendKind::Ch];
    let engine = Arc::new(Engine::build(net.clone(), &kinds));
    engine.self_check(16, 3).expect("clean engine");
    let factory_net = net.clone();
    let factory = ReloadFactory::new(move || {
        Ok(Arc::new(Engine::build(
            factory_net.clone(),
            &[BackendKind::Dijkstra, BackendKind::Ch],
        )))
    });
    let cfg = ServerConfig {
        workers: 4,
        reload_factory: Some(factory),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    let pairs = sample_pairs(net.num_nodes(), 30);
    let mut oracle = Dijkstra::new(net.num_nodes());
    let expected: Vec<Option<Dist>> = pairs
        .iter()
        .map(|&(s, t)| {
            oracle.run_to_target(&net, s, t);
            oracle.distance(t)
        })
        .collect();

    const RELOADS: u64 = 3;
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let stop = &stop;
        let pairs = &pairs;
        let expected = &expected;
        for worker in 0..3usize {
            scope.spawn(move || {
                let mut client = ServeClient::connect(addr).expect("connect");
                let mut i = worker;
                while !stop.load(Ordering::SeqCst) {
                    let (s, t) = pairs[i % pairs.len()];
                    let kind = if i % 2 == 0 {
                        BackendKind::Dijkstra
                    } else {
                        BackendKind::Ch
                    };
                    let got = client.distance(kind, s, t).expect("query across a swap");
                    assert_eq!(
                        got,
                        expected[i % pairs.len()],
                        "wrong answer across a hot swap ({s},{t})"
                    );
                    i += 1;
                }
            });
        }
        scope.spawn(move || {
            let mut rc = ServeClient::connect(addr).expect("connect reloader");
            for round in 1..=RELOADS {
                // Let queries (and cache fills) interleave each epoch.
                std::thread::sleep(Duration::from_millis(80));
                let epoch = rc.reload().expect("reload must succeed");
                assert_eq!(epoch, round, "each RELOAD publishes the next epoch");
            }
            stop.store(true, Ordering::SeqCst);
        });
    });

    assert_eq!(server.registry().epoch(), RELOADS);
    let mut c = ServeClient::connect(addr).expect("connect for stats");
    let stats = c.stats().expect("stats");
    assert!(stats.contains(&format!("epoch: {RELOADS}")), "{stats}");
    assert_eq!(field(&stats, "reloads_ok"), RELOADS, "{stats}");
    assert_eq!(field(&stats, "reloads_failed"), 0, "{stats}");
    assert!(
        field(&stats, "purged") > 0,
        "cache entries from superseded epochs must be purged:\n{stats}"
    );
    let _ = c.shutdown_server();
    server.join();
}

/// A reload whose replacement engine fails the pre-publication
/// self-check: the RELOAD frame gets the typed failure, the old epoch
/// keeps serving correct answers, and STATS carries the reason.
#[test]
fn a_failed_reload_keeps_the_old_epoch_serving_with_a_typed_reason() {
    let net = test_net(200, 11);
    let engine = Arc::new(Engine::build(
        net.clone(),
        &[BackendKind::Dijkstra, BackendKind::Ch],
    ));
    engine.self_check(16, 3).expect("clean engine");
    let factory_net = net.clone();
    let factory = ReloadFactory::new(move || {
        // The replacement lies; the self-check must refuse to publish.
        Ok(Arc::new(
            Engine::build(factory_net.clone(), &[BackendKind::Dijkstra])
                .with_backend(BackendKind::Ch, Box::new(LyingBackend)),
        ))
    });
    let cfg = ServerConfig {
        workers: 2,
        reload_factory: Some(factory),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    let mut client = ServeClient::connect(addr).expect("connect");
    match client.reload() {
        Err(ClientError::ReloadFailed(msg)) => {
            assert!(msg.contains("refusing to publish"), "{msg}")
        }
        other => panic!("expected RELOAD_FAILED, got {other:?}"),
    }
    assert_eq!(
        server.registry().epoch(),
        0,
        "a failed reload publishes nothing"
    );

    let mut oracle = Dijkstra::new(net.num_nodes());
    for &(s, t) in &sample_pairs(net.num_nodes(), 8) {
        let got = client
            .distance(BackendKind::Ch, s, t)
            .expect("the old epoch keeps serving");
        oracle.run_to_target(&net, s, t);
        assert_eq!(got, oracle.distance(t), "old epoch must stay correct");
    }
    let stats = client.stats().expect("stats");
    assert_eq!(field(&stats, "reloads_failed"), 1, "{stats}");
    assert_eq!(field(&stats, "reloads_ok"), 0, "{stats}");
    assert!(stats.contains("reload_error: RELOAD_FAILED"), "{stats}");
    let _ = client.shutdown_server();
    server.join();
}

/// Acceptance (b): an injected worker panic kills only its own
/// connection. Retrying clients converge on oracle answers throughout,
/// the server keeps accepting, and STATS records every supervised
/// restart.
#[test]
fn injected_worker_panics_kill_one_connection_each_and_the_worker_recovers() {
    let net = test_net(200, 12);
    let engine = Arc::new(Engine::build(
        net.clone(),
        &[BackendKind::Dijkstra, BackendKind::Ch],
    ));
    engine.self_check(16, 3).expect("clean engine");
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0x9A71C,
        panic_prob: 0.08,
        ..FaultPlan::default()
    }));
    let cfg = ServerConfig {
        workers: 2,
        fault: Some(Arc::clone(&injector)),
        // Generous cap: this test is about recovery, not retirement.
        restart_cap: 1000,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    let pairs = sample_pairs(net.num_nodes(), 60);
    let mut oracle = Dijkstra::new(net.num_nodes());
    let mut client = RetryingClient::new(
        addr,
        RetryPolicy {
            max_retries: 20,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(10),
            seed: 0x7e57,
            partial_retries: 20,
        },
    );
    for (i, &(s, t)) in pairs.iter().enumerate() {
        let kind = if i % 2 == 0 {
            BackendKind::Dijkstra
        } else {
            BackendKind::Ch
        };
        let got = client
            .distance(kind, s, t)
            .expect("panics must not starve clients");
        oracle.run_to_target(&net, s, t);
        assert_eq!(
            got,
            oracle.distance(t),
            "wrong answer amid panics ({s},{t})"
        );
    }
    assert!(injector.panics() > 0, "the panic fault must have fired");
    assert!(client.retries > 0, "each panic costs its connection");
    drop(client);

    // A RELOAD without a reload source is a typed failure, not a hang
    // (retried because the panic fault may hit this request too).
    let msg = loop {
        let mut c = ServeClient::connect(addr).expect("server still accepting");
        match c.reload() {
            Err(ClientError::ReloadFailed(m)) => break m,
            Err(ClientError::Io(_)) => continue,
            other => panic!("expected RELOAD_FAILED, got {other:?}"),
        }
    };
    assert!(msg.contains("no reload source"), "{msg}");

    server.request_shutdown();
    let stats = server.join();
    assert_eq!(
        field(&stats, "worker_restarts"),
        injector.panics(),
        "every injected panic is one supervised restart:\n{stats}"
    );
}

/// Past the restart cap a worker retires, and when the whole pool has
/// retired the last worker shuts the server down instead of leaving a
/// zombie acceptor.
#[test]
fn a_panic_storm_retires_workers_and_an_empty_pool_shuts_down() {
    let engine = Arc::new(Engine::build(test_net(64, 13), &[BackendKind::Dijkstra]));
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        seed: 0x57031,
        panic_prob: 1.0,
        ..FaultPlan::default()
    }));
    let cfg = ServerConfig {
        workers: 2,
        restart_cap: 2,
        restart_window: Duration::from_secs(60),
        fault: Some(injector),
        grace: Duration::from_millis(200),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    // Every request panics; keep poking until both workers hit the cap
    // and the last one to retire turns the lights off.
    let deadline = Instant::now() + Duration::from_secs(20);
    while !server.shutting_down() {
        assert!(
            Instant::now() < deadline,
            "a fully retired pool must shut the server down"
        );
        if let Ok(mut c) = ServeClient::connect(addr) {
            let _ = c.ping();
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = server.join();
    assert_eq!(
        field(&stats, "worker_restarts"),
        4,
        "2 workers x restart cap 2:\n{stats}"
    );
    assert!(
        ServeClient::connect(addr).is_err(),
        "the listener must be gone after the pool retired"
    );
}

/// Acceptance (c): a backend that starts answering wrongly after
/// startup is quarantined by the continuous audit within its window,
/// its cached lies are purged, and its wire id fails over to honest
/// backends.
#[test]
fn the_audit_quarantines_a_lying_backend_and_fails_over() {
    let net = test_net(200, 14);
    // CH and Dijkstra are honest; the TNR slot lies. The startup
    // self-check is deliberately not run — the lie models an index
    // silently gone bad after startup.
    let engine = Arc::new(
        Engine::build(net.clone(), &[BackendKind::Dijkstra, BackendKind::Ch])
            .with_backend(BackendKind::Tnr, Box::new(LyingBackend)),
    );
    let cfg = ServerConfig {
        workers: 2,
        audit: Some(AuditConfig {
            interval: Duration::from_millis(150),
            queries: 6,
            threshold: 3,
            ..AuditConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");
    let pairs = sample_pairs(net.num_nodes(), 12);

    // Cache one lie before the quarantine lands (racing the auditor is
    // fine: if it already landed, this is a correct failover answer).
    let (ps, pt) = pairs[0];
    let early = client
        .distance(BackendKind::Tnr, ps, pt)
        .expect("pre-quarantine");

    let deadline = Instant::now() + Duration::from_secs(20);
    let stats = loop {
        let s = client.stats().expect("stats");
        if s.contains("quarantined: Lying") {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "the audit failed to quarantine the lying backend:\n{s}"
        );
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(field(&stats, "audit_mismatches") >= 3, "{stats}");
    let mut oracle = Dijkstra::new(net.num_nodes());
    oracle.run_to_target(&net, ps, pt);
    if early == Some(1) && oracle.distance(pt) != Some(1) {
        // The lie really was cached pre-quarantine; it must be purged.
        assert!(
            field(&stats, "purged") >= 1,
            "cached lies must not survive the quarantine:\n{stats}"
        );
    }

    // Traffic for the quarantined wire id now fails over and matches
    // the oracle — including the pair whose lie was cached.
    for &(s, t) in &pairs {
        let got = client.distance(BackendKind::Tnr, s, t).expect("failover");
        oracle.run_to_target(&net, s, t);
        assert_eq!(
            got,
            oracle.distance(t),
            "failover must serve oracle answers ({s},{t})"
        );
    }
    let stats = client.stats().expect("stats");
    assert!(
        field(&stats, "quarantine_failovers") >= pairs.len() as u64,
        "{stats}"
    );
    let _ = client.shutdown_server();
    server.join();
}

/// With failover disabled, a quarantined wire id answers with the typed
/// QUARANTINED status while honest backends keep serving.
#[test]
fn quarantine_without_failover_returns_the_typed_status() {
    let net = test_net(128, 15);
    let engine = Arc::new(
        Engine::build(net.clone(), &[BackendKind::Dijkstra])
            .with_backend(BackendKind::Ch, Box::new(LyingBackend)),
    );
    let cfg = ServerConfig {
        workers: 2,
        audit: Some(AuditConfig {
            interval: Duration::from_millis(50),
            queries: 6,
            threshold: 3,
            failover: false,
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
        assert!(Instant::now() < deadline, "no quarantine:\n{s}");
        std::thread::sleep(Duration::from_millis(10));
    }
    match client.distance(BackendKind::Ch, 0, 1) {
        Err(ClientError::Quarantined(msg)) => {
            assert!(msg.contains("quarantined"), "{msg}")
        }
        other => panic!("expected QUARANTINED, got {other:?}"),
    }
    // The honest backend is unaffected.
    let mut oracle = Dijkstra::new(net.num_nodes());
    oracle.run_to_target(&net, 0, 1);
    assert_eq!(
        client
            .distance(BackendKind::Dijkstra, 0, 1)
            .expect("healthy backend"),
        oracle.distance(1)
    );
    let _ = client.shutdown_server();
    server.join();
}

/// The watched reload file: startup contents are the baseline (no
/// spurious reload), an atomic content change hot-adds a backend to the
/// serving set, and the swap is oracle-correct.
#[test]
fn a_reload_file_content_change_hot_swaps_the_engine() {
    let net = test_net(200, 16);
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    let dir = std::env::temp_dir().join(format!("spq-reload-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("reload.conf");
    std::fs::write(&path, "backends=dijkstra\n").expect("write reload file");
    let cfg = ServerConfig {
        workers: 2,
        reload_file: Some(path.clone()),
        reload_poll: Duration::from_millis(25),
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();
    let mut client = ServeClient::connect(addr).expect("connect");

    std::thread::sleep(Duration::from_millis(150));
    assert_eq!(
        server.registry().epoch(),
        0,
        "an unchanged reload file must not trigger a reload"
    );
    match client.distance(BackendKind::Ch, 0, 1) {
        Err(ClientError::Remote(msg)) => assert!(msg.contains("not served"), "{msg}"),
        other => panic!("CH must not be served yet: {other:?}"),
    }

    // Atomic replace (write + rename) so the watcher never reads a
    // half-written spec.
    let tmp = dir.join("reload.conf.tmp");
    std::fs::write(&tmp, "# hot-add the CH slot\nbackends=dijkstra,ch\n").expect("write tmp");
    std::fs::rename(&tmp, &path).expect("atomic replace");
    let deadline = Instant::now() + Duration::from_secs(30);
    while server.registry().epoch() == 0 {
        assert!(
            Instant::now() < deadline,
            "the file change never triggered a reload"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let mut oracle = Dijkstra::new(net.num_nodes());
    for &(s, t) in &sample_pairs(net.num_nodes(), 8) {
        let got = client
            .distance(BackendKind::Ch, s, t)
            .expect("hot-added backend");
        oracle.run_to_target(&net, s, t);
        assert_eq!(
            got,
            oracle.distance(t),
            "hot-added CH must be oracle-correct"
        );
    }
    let stats = client.stats().expect("stats");
    assert_eq!(field(&stats, "reloads_ok"), 1, "{stats}");
    let _ = client.shutdown_server();
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
