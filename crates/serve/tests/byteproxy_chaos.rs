//! Byte-level wire chaos against an in-process server.
//!
//! The [`ByteProxy`] sits between real TCP clients and a real
//! [`Server`], splitting frames at arbitrary offsets, stalling
//! mid-frame, flipping bits, duplicating windows, and severing
//! connections — every decision a pure function of (seed, connection,
//! direction, stream window), so a failing seed replays exactly.
//!
//! The server-side contract under arbitrary byte garbage:
//!
//! 1. every faulted request ends in a typed error, a clean close, or a
//!    correct answer — bounded by the client's socket timeout, never a
//!    hang;
//! 2. the server process never panics (worker restarts stay at the
//!    level the panic-free baseline shows: zero);
//! 3. after the chaos stops, a clean connection gets oracle-correct
//!    answers — garbage on old connections must not poison state;
//! 4. a pipelined burst comes back as an in-order, oracle-exact prefix —
//!    chaos may truncate a pipeline, never reorder or corrupt it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;
use spq_serve::server::{Server, ServerConfig};
use spq_serve::{BackendKind, ByteFaultPlan, ByteProxy, ClientError, Engine, ServeClient};
use spq_synth::SynthParams;

fn test_net() -> RoadNetwork {
    spq_synth::generate(&SynthParams::with_target_vertices(
        spq_synth::test_vertices(220),
        9,
    ))
}

/// Deterministic query pairs.
fn pairs(n: usize, count: usize) -> Vec<(NodeId, NodeId)> {
    let n = n as u64;
    let mut state = 0x0b5e_55ed_u64;
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

/// Per-request wall-clock bound: the client socket timeout plus the
/// proxy's worst-case stalls, with slack for CI scheduling.
const IO_TIMEOUT: Duration = Duration::from_secs(3);
const HANG_BOUND: Duration = Duration::from_secs(20);

/// Aggressive upstream chaos across several seeds: requests are split,
/// stalled, flipped, duplicated, and severed. The server must answer
/// (correctly or with a typed error) or close — never hang, never
/// panic, and never serve a wrong answer afterwards.
#[test]
fn server_survives_byte_chaos_on_requests() {
    let net = test_net();
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    let cfg = ServerConfig {
        workers: 3,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();
    let qs = pairs(net.num_nodes(), 64);
    let mut oracle = Dijkstra::new(net.num_nodes());

    for seed in [1u64, 0xfeed_f00d, 0x5eed_cafe] {
        let plan = ByteFaultPlan {
            seed,
            split_prob: 0.6,
            stall_prob: 0.25,
            stall: Duration::from_millis(30),
            flip_prob: 0.25,
            dup_prob: 0.15,
            kill_prob: 0.2,
            fault_upstream: true,
            fault_downstream: false,
        };
        let proxy = ByteProxy::start(addr, plan).expect("start proxy");
        let via = proxy.local_addr();
        let mut outcomes = [0usize; 3]; // ok / typed / transport
        for (i, &(s, t)) in qs.iter().enumerate() {
            let Ok(mut c) = ServeClient::connect(via) else {
                continue;
            };
            c.set_io_timeout(Some(IO_TIMEOUT)).expect("set timeout");
            let started = Instant::now();
            let out = c.distance(BackendKind::Dijkstra, s, t);
            let waited = started.elapsed();
            assert!(
                waited < HANG_BOUND,
                "seed {seed:#x} request {i} hung for {waited:?}"
            );
            match out {
                Ok(got) => {
                    // An OK answer on a faulted connection may answer a
                    // *mangled* query (flipped request bytes change s/t)
                    // — but when the bytes happened to arrive intact,
                    // it must match the oracle.
                    oracle.run_to_target(&net, s, t);
                    if got == oracle.distance(t) {
                        outcomes[0] += 1;
                    }
                }
                Err(ClientError::Io(_)) => outcomes[2] += 1,
                Err(_) => outcomes[1] += 1,
            }
        }
        let counters = proxy.counters();
        proxy.stop();
        assert!(
            counters.total_faults() > 0,
            "seed {seed:#x}: the chaos plan injected nothing"
        );

        // Clean connection after the storm: exact answers, no residue.
        let mut clean = ServeClient::connect(addr).expect("clean connect");
        clean.set_io_timeout(Some(IO_TIMEOUT)).expect("set timeout");
        for &(s, t) in qs.iter().take(16) {
            let got = clean
                .distance(BackendKind::Dijkstra, s, t)
                .expect("clean connection must answer");
            oracle.run_to_target(&net, s, t);
            assert_eq!(
                got,
                oracle.distance(t),
                "seed {seed:#x}: wrong answer after chaos"
            );
        }
        eprintln!(
            "[byteproxy_chaos] seed {seed:#x}: {} ok / {} typed / {} transport, faults {counters:?}",
            outcomes[0], outcomes[1], outcomes[2]
        );
    }

    let mut c = ServeClient::connect(addr).expect("connect for shutdown");
    c.shutdown_server().expect("shutdown");
    let stats = server.join();
    // Byte garbage must never panic a worker: restarts stay at zero.
    assert!(
        stats.contains("worker_restarts=0"),
        "a worker died to byte chaos:\n{stats}"
    );
}

/// Wire chaos against *pipelined* connections: each connection fires a
/// burst of distance frames before reading anything, while the proxy
/// splits writes, stalls mid-frame, and severs connections (no bit
/// flips or duplications, so every frame that arrives is intact and
/// response order is unambiguous). The contract: every response that
/// comes back before a kill is the in-order, oracle-exact answer to
/// the matching request — chaos may truncate a pipeline, never reorder
/// or corrupt it.
#[test]
fn pipelined_connections_survive_byte_chaos_in_order() {
    use spq_serve::protocol::{read_frame, write_frame, Request, STATUS_OK, UNREACHABLE};

    let net = test_net();
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    let cfg = ServerConfig {
        workers: 2,
        shards: 2,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).expect("bind");
    let addr = server.local_addr();
    let qs = pairs(net.num_nodes(), 96);
    let mut oracle = Dijkstra::new(net.num_nodes());

    let mut prefixes_verified = 0usize;
    for seed in [0x91be_11ed_u64, 7, 0x00ac_ce55] {
        let plan = ByteFaultPlan {
            seed,
            split_prob: 0.7,
            stall_prob: 0.3,
            stall: Duration::from_millis(30),
            flip_prob: 0.0,
            dup_prob: 0.0,
            kill_prob: 0.15,
            fault_upstream: true,
            fault_downstream: false,
        };
        let proxy = ByteProxy::start(addr, plan).expect("start proxy");
        let via = proxy.local_addr();
        for burst in qs.chunks(8) {
            let Ok(stream) = std::net::TcpStream::connect(via) else {
                continue;
            };
            stream.set_read_timeout(Some(IO_TIMEOUT)).expect("timeout");
            stream.set_write_timeout(Some(IO_TIMEOUT)).expect("timeout");
            let mut stream = stream;
            let started = Instant::now();
            // Fire the whole burst before reading a single byte.
            let mut sent = 0usize;
            for &(s, t) in burst {
                let frame = Request::Distance {
                    backend: BackendKind::Dijkstra.wire_id(),
                    s,
                    t,
                    deadline_ms: 0,
                }
                .encode();
                if write_frame(&mut stream, &frame).is_err() {
                    break; // the proxy severed the connection mid-burst
                }
                sent += 1;
            }
            // Read whatever prefix of the pipeline survives; each
            // response must be the exact in-order answer.
            let mut buf = Vec::new();
            for &(s, t) in &burst[..sent] {
                match read_frame(&mut stream, &mut buf) {
                    Ok(true) => {}
                    Ok(false) | Err(_) => break, // killed: the prefix ends here
                }
                assert!(
                    started.elapsed() < HANG_BOUND,
                    "seed {seed:#x}: pipelined burst hung"
                );
                assert_eq!(buf.first(), Some(&STATUS_OK), "seed {seed:#x}");
                let got = u64::from_le_bytes(buf[1..9].try_into().unwrap());
                oracle.run_to_target(&net, s, t);
                let expected = oracle.distance(t).unwrap_or(UNREACHABLE);
                assert_eq!(
                    got, expected,
                    "seed {seed:#x}: out-of-order or wrong pipelined response for ({s}, {t})"
                );
                prefixes_verified += 1;
            }
        }
        let counters = proxy.counters();
        proxy.stop();
        assert!(
            counters.total_faults() > 0,
            "seed {seed:#x}: the chaos plan injected nothing"
        );
    }
    assert!(
        prefixes_verified > 32,
        "chaos killed nearly everything; only {prefixes_verified} responses checked"
    );

    let mut c = ServeClient::connect(addr).expect("connect for shutdown");
    let stats = c.stats().expect("stats");
    let pipelined: u64 = stats
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix("pipelined_frames="))
        .and_then(|v| v.parse().ok())
        .expect("stats expose pipelined_frames");
    assert!(pipelined > 0, "bursts never pipelined:\n{stats}");
    c.shutdown_server().expect("shutdown");
    let stats = server.join();
    assert!(
        stats.contains("worker_restarts=0"),
        "a worker died to pipelined byte chaos:\n{stats}"
    );
}

/// Response-direction chaos: the *client* sees mangled bytes. The
/// client must fail typed/transport within its bounds — and the server
/// must shrug the aborted connections off.
#[test]
fn client_survives_byte_chaos_on_responses() {
    let net = test_net();
    let engine = Arc::new(Engine::build(net.clone(), &[BackendKind::Dijkstra]));
    let server = Server::start(Arc::clone(&engine), &ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let plan = ByteFaultPlan {
        seed: 0xd01_5eed,
        split_prob: 0.5,
        stall_prob: 0.2,
        stall: Duration::from_millis(25),
        flip_prob: 0.3,
        dup_prob: 0.2,
        kill_prob: 0.2,
        fault_upstream: false,
        fault_downstream: true,
    };
    let proxy = ByteProxy::start(addr, plan).expect("start proxy");
    let via = proxy.local_addr();
    let qs = pairs(net.num_nodes(), 32);
    for (i, &(s, t)) in qs.iter().enumerate() {
        let Ok(mut c) = ServeClient::connect(via) else {
            continue;
        };
        c.set_io_timeout(Some(IO_TIMEOUT)).expect("set timeout");
        let started = Instant::now();
        let _ = c.distance(BackendKind::Dijkstra, s, t);
        assert!(
            started.elapsed() < HANG_BOUND,
            "request {i} hung on response chaos"
        );
    }
    proxy.stop();
    // The server is unharmed: a clean client still gets exact answers.
    let mut clean = ServeClient::connect(addr).expect("clean connect");
    let mut oracle = Dijkstra::new(net.num_nodes());
    for &(s, t) in qs.iter().take(8) {
        let got = clean
            .distance(BackendKind::Dijkstra, s, t)
            .expect("clean connection must answer");
        oracle.run_to_target(&net, s, t);
        assert_eq!(got, oracle.distance(t));
    }
    clean.shutdown_server().expect("shutdown");
    server.join();
}
