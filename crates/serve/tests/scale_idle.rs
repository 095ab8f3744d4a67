//! Connection-scale smoke: the event loop must hold ~10k idle
//! connections at a cost of one fd each — never reaping them for being
//! quiet — while staying responsive on an active connection, and drain
//! all of them cleanly at shutdown (force_closed stays zero).
//!
//! Marked `#[ignore]`: opening 20k+ file descriptors wants a raised
//! NOFILE limit, so CI runs it as its own step
//! (`cargo test -p spq-serve --test scale_idle -- --ignored`).

use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_serve::eventloop::raise_nofile_limit;
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{BackendKind, Engine, ServeClient};
use spq_synth::SynthParams;

#[test]
#[ignore = "opens ~10k sockets; run explicitly (CI does) with a raised NOFILE limit"]
fn ten_thousand_idle_connections_hold_and_drain_cleanly() {
    // Each held connection costs two fds in-process (client + server
    // end); leave headroom for the suite's own files.
    let limit = raise_nofile_limit(32 * 1024);
    let target = (((limit.saturating_sub(512)) / 2) as usize).min(10_000);
    assert!(
        target >= 1_000,
        "NOFILE limit {limit} leaves no room to test connection scale"
    );

    let net = spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(200),
        21,
    ));
    let engine = Arc::new(Engine::build(net, &[BackendKind::Dijkstra]));
    let cfg = ServerConfig {
        workers: 2,
        shards: 4,
        ..ServerConfig::default()
    };
    let server = Server::start(engine, &cfg).expect("bind");
    let addr = server.local_addr();

    let t0 = Instant::now();
    let mut idle: Vec<TcpStream> = Vec::with_capacity(target);
    while idle.len() < target {
        match TcpStream::connect(addr) {
            Ok(stream) => idle.push(stream),
            Err(e) => panic!("connect #{} failed: {e}", idle.len()),
        }
    }
    eprintln!(
        "[scale_idle] opened {} idle connections in {:.2?}",
        idle.len(),
        t0.elapsed()
    );

    // Let the idle herd sit past the peer timeout: a quiet connection
    // at a frame boundary must never be reaped.
    std::thread::sleep(cfg.peer_timeout + Duration::from_millis(300));

    // An active client still gets prompt answers over the same shards.
    let mut client = ServeClient::connect(addr).expect("active connect");
    client
        .set_io_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    for i in 0..32 {
        let t0 = Instant::now();
        client.ping().unwrap_or_else(|e| panic!("ping {i}: {e}"));
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "ping {i} took {:?} with {} idle connections",
            t0.elapsed(),
            idle.len()
        );
    }
    let stats = client.stats().expect("stats");
    let field = |name: &str| -> u64 {
        stats
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("stats missing {name}:\n{stats}"))
    };
    assert!(
        field("open_connections") >= target as u64,
        "idle connections were reaped:\n{stats}"
    );
    assert_eq!(field("client_timeouts"), 0, "{stats}");

    // Graceful shutdown drains the whole herd without force-closing.
    client.shutdown_server().expect("shutdown");
    let t0 = Instant::now();
    let stats = server.join();
    eprintln!(
        "[scale_idle] drained {} connections in {:.2?}",
        idle.len(),
        t0.elapsed()
    );
    assert!(
        stats.contains("force_closed=0"),
        "idle connections were force-closed, not drained:\n{stats}"
    );
    drop(idle);
}
