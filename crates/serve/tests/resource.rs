//! Resource-exhaustion suite: the server must survive slow readers,
//! file-descriptor exhaustion, admission overload, and memory-budget
//! pressure with *typed* shedding — bounded buffers, no hangs, and
//! never a wrong answer from a connection it chose to keep.
//!
//! The invariants under resource pressure:
//!
//! 1. a peer that stops reading its responses has its write backlog
//!    capped (backpressure: parsing and reading pause), and if it makes
//!    no progress for the peer timeout it is force-closed and counted
//!    as `slow_closed` — while well-behaved clients on the same shard
//!    keep getting oracle-correct answers;
//! 2. injected fd exhaustion at accept sheds peers with one typed BUSY
//!    frame instead of hanging them in the listen queue;
//! 3. past `--max-connections` new peers are shed at the door and
//!    capacity returns as soon as a connection closes;
//! 4. past `--mem-budget` reads pause until flushed responses free
//!    memory, and the accounting refunds on close — the gauge returns
//!    under the budget instead of ratcheting;
//! 5. a peer that stalls mid-frame for the peer timeout is reaped as a
//!    client timeout, while an idle peer at a frame boundary stays.
//!
//! These socket tests are the shell's timer-wiring smoke. The rules
//! themselves — when the mid-frame clock is held or runs, the byte
//! accounting, the refund on close — are proven without a socket by
//! the property suite of `crates/serve/src/conn.rs`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;
use spq_serve::protocol::Request;
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{BackendKind, ClientError, Engine, FaultInjector, FaultPlan, ServeClient};
use spq_synth::SynthParams;

fn test_net(target: usize, seed: u64) -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(target),
        seed,
    ))
}

fn field(stats: &str, name: &str) -> u64 {
    stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("stats missing {name}:\n{stats}"))
}

/// One length-prefixed DISTANCES frame whose response (n_sources ×
/// n_targets × 8 bytes) is far larger than the request — the
/// slow-reader amplification vector. Pick a backend with a native
/// many-to-many kernel (CH) when the batch is huge: the Dijkstra
/// fallback decomposes it into n_sources × n_targets point-to-point
/// runs, which would monopolise the worker pool instead of the write
/// path the amplification is meant to pressure.
fn big_distances_frame(
    net: &RoadNetwork,
    backend: BackendKind,
    n_sources: usize,
    n_targets: usize,
) -> Vec<u8> {
    let n = net.num_nodes() as NodeId;
    let sources: Vec<NodeId> = (0..n_sources as NodeId).map(|i| i % n).collect();
    let targets: Vec<NodeId> = (0..n_targets as NodeId).map(|i| (i * 7 + 1) % n).collect();
    let payload = spq_serve::protocol::Request::Distances {
        backend: backend.wire_id(),
        sources,
        targets,
        deadline_ms: 0,
    }
    .encode();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// Satellite (a): a never-reading peer pipelines responses worth
/// ~32MiB against a 32KiB write-backlog cap. Kernel socket buffers can
/// absorb a few MiB, never this much, so the server's own backlog must
/// fill, stay bounded (cap plus at most a pipeline's worth of
/// dispatched frames), and trip the typed `slow_closed` force-close —
/// while a concurrent well-behaved client keeps getting oracle answers.
#[test]
fn a_slow_reader_is_force_closed_while_the_shard_keeps_serving() {
    let net = test_net(300, 0x51033);
    let engine = Arc::new(Engine::build(
        net.clone(),
        &[BackendKind::Dijkstra, BackendKind::Ch],
    ));
    let cfg = ServerConfig {
        workers: 2,
        shards: 1, // one shard: the hoarder and the good client share it
        pipeline_depth: 2,
        wbuf_cap: 32 * 1024,
        peer_timeout: Duration::from_millis(300),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    // 8 pipelined 8×65536 batches ≈ 32MiB of responses from ~2MiB of
    // requests, computed by CH's many-to-many kernel in milliseconds so
    // the flood lands on the write path, not the worker pool the good
    // client shares. The backpressure may pause reads mid-stream (a
    // write error just means the server already stopped us — also fine).
    let frame = big_distances_frame(&net, BackendKind::Ch, 8, 65536);
    let mut hoarder = TcpStream::connect(addr).expect("connect hoarder");
    hoarder
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    for _ in 0..8 {
        if hoarder.write_all(&frame).is_err() {
            break;
        }
    }

    // The well-behaved client must not be starved by the hoarder.
    let mut good = ServeClient::connect(addr).expect("connect good client");
    good.set_io_timeout(Some(Duration::from_secs(10)))
        .expect("io timeout");
    let mut oracle = Dijkstra::new(net.num_nodes());
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        for &(s, t) in &[(0u32, 7u32), (3, 11), (5, 2)] {
            let got = good
                .distance(BackendKind::Dijkstra, s, t)
                .expect("good client must be served while the hoarder stalls");
            oracle.run_to_target(&net, s, t);
            assert_eq!(got, oracle.distance(t), "wrong answer beside a slow reader");
        }
        let stats = good.stats().expect("stats");
        if field(&stats, "slow_closed") >= 1 {
            // The backlog never grew past the cap plus the dispatched
            // pipeline (2 × 4MiB responses in flight past the cap check,
            // plus one being flushed) — far below the ~32MiB a peer
            // tried to park on us.
            assert!(
                field(&stats, "wbuf_peak") < 16 * 1024 * 1024,
                "write backlog must stay bounded:\n{stats}"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the slow reader was never force-closed:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    drop(hoarder);

    let _ = good.shutdown_server();
    server.join();
}

/// Satellite (d): injected EMFILE at accept. The first N peers are shed
/// with a typed BUSY frame (never hung, never crashed); the next peer is
/// served normally and STATS carries the `accept_emfile` count.
#[test]
fn injected_fd_exhaustion_sheds_accepts_with_typed_busy() {
    let net = test_net(200, 0xfd);
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    let injector = Arc::new(FaultInjector::new(FaultPlan {
        emfile_accepts: 3,
        ..FaultPlan::default()
    }));
    let cfg = ServerConfig {
        workers: 2,
        fault: Some(Arc::clone(&injector)),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let mut busy = 0usize;
    for i in 0..3 {
        let mut c = ServeClient::connect(addr).expect("TCP connect still succeeds");
        let _ = c.set_io_timeout(Some(Duration::from_secs(5)));
        match c.ping() {
            Err(ClientError::Busy(msg)) => {
                assert!(msg.contains("file descriptors"), "{msg}");
                busy += 1;
            }
            // The BUSY frame races the close; losing it surfaces as a
            // clean transport error, never a hang.
            Err(ClientError::Io(_)) => {}
            other => panic!("shed connection {i} got {other:?}"),
        }
    }
    assert!(busy >= 1, "no shed peer saw the typed BUSY frame");

    // Injection exhausted: the next peer is adopted and served.
    let mut c = ServeClient::connect(addr).expect("connect after injection");
    c.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    c.ping().expect("server serves once fds are back");
    let mut oracle = Dijkstra::new(net.num_nodes());
    oracle.run_to_target(&net, 1, 9);
    assert_eq!(
        c.distance(BackendKind::Dijkstra, 1, 9).expect("query"),
        oracle.distance(9)
    );
    let stats = c.stats().expect("stats");
    assert_eq!(field(&stats, "accept_emfile"), 3, "{stats}");
    let _ = c.shutdown_server();
    server.join();
}

/// `--max-connections`: the third peer is shed at the door with a typed
/// BUSY, and dropping one held connection returns capacity.
#[test]
fn the_connection_limit_sheds_at_the_door_and_recovers_capacity() {
    let net = test_net(128, 0xadd);
    let engine = Arc::new(Engine::build(net, &[BackendKind::Dijkstra]));
    let cfg = ServerConfig {
        workers: 2,
        max_connections: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let mut held1 = ServeClient::connect(addr).expect("conn 1");
    held1.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    held1.ping().expect("conn 1 adopted");
    let mut held2 = ServeClient::connect(addr).expect("conn 2");
    held2.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    held2.ping().expect("conn 2 adopted");

    let mut c3 = ServeClient::connect(addr).expect("TCP connect still succeeds");
    c3.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    match c3.ping() {
        Err(ClientError::Busy(msg)) => assert!(msg.contains("connection limit"), "{msg}"),
        Err(ClientError::Io(_)) => {} // BUSY frame lost to the close race
        other => panic!("over-limit peer got {other:?}"),
    }
    let stats_text = held1.stats().expect("stats");
    assert!(field(&stats_text, "accept_shed") >= 1, "{stats_text}");

    // Capacity returns once a held connection goes away (the shard has
    // to notice the close, so poll briefly).
    drop(held1);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = ServeClient::connect(addr).expect("reconnect");
        c.set_io_timeout(Some(Duration::from_secs(2))).unwrap();
        if c.ping().is_ok() {
            let _ = c.shutdown_server();
            break;
        }
        assert!(
            Instant::now() < deadline,
            "capacity never returned after a close"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    server.join();
}

/// `--mem-budget`: a hoarder drives the global gauge over the budget;
/// the server survives by pausing reads (never OOM, never a crash), a
/// well-behaved client still gets oracle answers, and once the hoarder
/// is reclaimed the refunds bring the gauge back under the budget.
#[test]
fn the_memory_budget_applies_backpressure_and_refunds_on_close() {
    const BUDGET: usize = 256 * 1024;
    let net = test_net(300, 0x3e3);
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    let cfg = ServerConfig {
        workers: 2,
        shards: 1,
        pipeline_depth: 4,
        mem_budget: BUDGET,
        peer_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();

    let frame = big_distances_frame(&net, BackendKind::Dijkstra, 128, 128);
    let mut hoarder = TcpStream::connect(addr).expect("connect hoarder");
    hoarder
        .set_write_timeout(Some(Duration::from_millis(200)))
        .expect("write timeout");
    for _ in 0..16 {
        if hoarder.write_all(&frame).is_err() {
            break;
        }
    }

    // The budget pauses reads while the hoarder's responses are owed;
    // the peer-timeout reaper then reclaims it and refunds its bytes.
    // A patient well-behaved client must get through either way.
    let mut good = ServeClient::connect(addr).expect("connect good client");
    good.set_io_timeout(Some(Duration::from_secs(15)))
        .expect("io timeout");
    let mut oracle = Dijkstra::new(net.num_nodes());
    for &(s, t) in &[(2u32, 9u32), (4, 17), (1, 5)] {
        let got = good
            .distance(BackendKind::Dijkstra, s, t)
            .expect("budget pressure must not starve a reading client");
        oracle.run_to_target(&net, s, t);
        assert_eq!(
            got,
            oracle.distance(t),
            "wrong answer under memory pressure"
        );
    }
    drop(hoarder);

    // The gauge must come back under the budget once the hoarder's
    // accounted bytes are refunded — pressure is transient, not a
    // ratchet.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let stats = good.stats().expect("stats");
        assert_eq!(field(&stats, "mem_budget"), BUDGET as u64, "{stats}");
        if field(&stats, "mem_used") <= BUDGET as u64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "mem_used never returned under the budget:\n{stats}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let _ = good.shutdown_server();
    server.join();
}

/// One length-prefixed frame.
fn frame(request: &Request) -> Vec<u8> {
    let payload = request.encode();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    frame
}

/// The peer timeout reaps a peer that stalls mid-frame — closed within
/// the timeout plus slack and counted once as a client timeout — while
/// a peer idle at a frame boundary for as long stays open and is
/// answered afterwards.
#[test]
fn a_mid_frame_stall_is_reaped_but_an_idle_peer_is_not() {
    const TIMEOUT: Duration = Duration::from_millis(300);
    let net = test_net(128, 0x57a11);
    let engine = Arc::new(Engine::build(net, &[BackendKind::Dijkstra]));
    let cfg = ServerConfig {
        workers: 2,
        shards: 1,
        peer_timeout: TIMEOUT,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    let mut idle = ServeClient::connect(addr).expect("connect idle peer");
    idle.set_io_timeout(Some(Duration::from_secs(5))).unwrap();
    idle.ping().expect("idle peer adopted");

    // Half a PING: the length header, then nothing.
    let ping = frame(&Request::Ping);
    let mut staller = TcpStream::connect(addr).expect("connect staller");
    staller
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let t0 = Instant::now();
    staller.write_all(&ping[..4]).expect("half a frame");
    let mut byte = [0u8; 1];
    match staller.read(&mut byte) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("a stalled peer must be closed, got {other:?}"),
    }
    let waited = t0.elapsed();
    assert!(
        waited >= TIMEOUT && waited < TIMEOUT + Duration::from_secs(2),
        "stalled peer closed after {waited:?} (timeout {TIMEOUT:?})"
    );

    // The idle peer has now sat at a frame boundary for longer than
    // the timeout too; it is still served.
    std::thread::sleep(TIMEOUT);
    idle.ping()
        .expect("an idle peer at a frame boundary is never reaped");
    let stats = idle.stats().expect("stats");
    assert_eq!(field(&stats, "client_timeouts"), 1, "{stats}");
    assert_eq!(field(&stats, "slow_closed"), 0, "{stats}");
    let _ = idle.shutdown_server();
    server.join();
}
