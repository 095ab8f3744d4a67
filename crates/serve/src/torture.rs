//! The torture harness: randomized multi-fault schedules against real
//! `spq` child processes, all derived from one seed.
//!
//! Each round draws a schedule of fault events — prep torn mid-write
//! (via the [`atomic_io`](spq_graph::atomic_io) crash hook), index
//! bytes flipped or truncated on disk, orphaned temp debris, the
//! server SIGKILLed during startup / serving / reload / drain, byte
//! chaos on the wire through [`ByteProxy`] — executes them against a
//! scratch directory, then asserts the recovery property:
//!
//! 1. a fresh `spq serve` over the surviving state **must come up**
//!    within the startup budget (clean load, or typed quarantine plus
//!    the degradation chain — never a crash, never a hang);
//! 2. every oracle-checked answer it gives must be correct;
//! 3. no child may die of a panic, and every wait is bounded.
//!
//! Disk faults replay exactly from the seed. Kill timing is inherently
//! racy (the OS schedules the signal), so schedules pin kills to fixed
//! small delays — a replay exercises the same fault at approximately
//! the same point, which in practice re-trips the same bugs.
//!
//! On failure the harness re-runs a greedy delta-debugging minimizer so
//! CI reports the *smallest* schedule that still fails, plus the seed
//! that regenerates it.

use std::fmt;
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use spq_dijkstra::Dijkstra;
use spq_graph::atomic_io::{self, CrashStage, CRASH_ENV};
use spq_graph::types::NodeId;
use spq_graph::RoadNetwork;

use crate::byteproxy::{ByteFaultPlan, ByteProxy};
use crate::client::{ClientError, ServeClient};
use crate::BackendKind;

/// When during the server's life the SIGKILL lands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KillPoint {
    /// Right after spawn, racing index load and the self-check.
    Startup,
    /// After this many served requests, mid request stream.
    Serving(u32),
    /// Milliseconds after a RELOAD frame is sent, racing the rebuild.
    Reload(u64),
    /// Milliseconds after SHUTDOWN is sent, racing the graceful drain.
    Drain(u64),
}

/// One fault in a torture schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Run `spq prep` with the crash hook armed: the child aborts at
    /// `stage` of its `nth` atomic write, leaving whatever debris that
    /// stage leaves.
    TornPrep { stage: CrashStage, nth: u64 },
    /// XOR one byte of the index file at `pos_permille`/1000 of its
    /// length (no-op if the file is missing).
    FlipIndexByte { pos_permille: u32, xor: u8 },
    /// Truncate the index file to `keep_permille`/1000 of its length.
    TruncateIndex { keep_permille: u32 },
    /// Drop a stray `.tmp` file (simulated crash debris from an
    /// unrelated writer) into the index directory.
    OrphanTemp { bytes: u32 },
    /// Start a server over the current state and SIGKILL it.
    KillServe(KillPoint),
    /// Serve through a [`ByteProxy`] whose per-window faults derive
    /// from `plan_seed`, driving `requests` queries into the chaos.
    WireChaos { plan_seed: u64, requests: u32 },
    /// Start a server under a squeezed `RLIMIT_NOFILE` (via the
    /// `SPQ_FD_LIMIT` env hook) and open `conns` connections into it:
    /// past the limit the server must shed with typed BUSY or a clean
    /// refusal — never crash — and must recover once the herd leaves.
    FdSqueeze { limit: u32, conns: u32 },
    /// Run `spq prep` with ENOSPC injected from its `from_nth` atomic
    /// write (the `SPQ_FAULT_ENOSPC` env hook). The failed write must
    /// be typed and non-fatal; the post-schedule recovery server judges
    /// what the debris did.
    DiskFull { from_nth: u64 },
    /// Start a server under a `--mem-budget` of `kib` KiB and drive
    /// oracle-checked queries through it: budget pressure may slow
    /// serving, never corrupt an answer.
    MemSqueeze { kib: u32 },
    /// Start a server with a tight write-backlog cap and park `conns`
    /// never-reading peers each pipelining `frames` large DISTANCES
    /// batches; a well-behaved client must keep getting correct answers
    /// while the hoarders are force-closed.
    SlowReader { conns: u32, frames: u32 },
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultEvent::TornPrep { stage, nth } => {
                write!(f, "torn-prep(stage={}, nth={nth})", stage.as_str())
            }
            FaultEvent::FlipIndexByte { pos_permille, xor } => {
                write!(f, "flip-index(pos={pos_permille}‰, xor={xor:#04x})")
            }
            FaultEvent::TruncateIndex { keep_permille } => {
                write!(f, "truncate-index(keep={keep_permille}‰)")
            }
            FaultEvent::OrphanTemp { bytes } => write!(f, "orphan-temp({bytes}B)"),
            FaultEvent::KillServe(point) => match point {
                KillPoint::Startup => write!(f, "kill-serve(startup)"),
                KillPoint::Serving(n) => write!(f, "kill-serve(after {n} requests)"),
                KillPoint::Reload(ms) => write!(f, "kill-serve({ms}ms into reload)"),
                KillPoint::Drain(ms) => write!(f, "kill-serve({ms}ms into drain)"),
            },
            FaultEvent::WireChaos {
                plan_seed,
                requests,
            } => write!(f, "wire-chaos(seed={plan_seed:#x}, requests={requests})"),
            FaultEvent::FdSqueeze { limit, conns } => {
                write!(f, "fd-squeeze(limit={limit}, conns={conns})")
            }
            FaultEvent::DiskFull { from_nth } => write!(f, "disk-full(from-write={from_nth})"),
            FaultEvent::MemSqueeze { kib } => write!(f, "mem-squeeze({kib}KiB)"),
            FaultEvent::SlowReader { conns, frames } => {
                write!(f, "slow-reader(conns={conns}, frames={frames})")
            }
        }
    }
}

/// Torture-run knobs.
#[derive(Debug, Clone)]
pub struct TortureOptions {
    /// The `spq` binary to orchestrate (normally `current_exe()`).
    pub spq_bin: PathBuf,
    /// Scratch directory; each round gets its own subdirectory.
    pub dir: PathBuf,
    /// Master seed: the printed reproduction handle.
    pub seed: u64,
    /// Fault schedules to run.
    pub rounds: usize,
    /// Synthetic network size (vertices).
    pub target: usize,
    /// Run the schedule minimizer on the first failing round.
    pub minimize: bool,
    /// How long a fresh server may take to come up before the round is
    /// declared hung.
    pub startup_timeout: Duration,
    /// Socket read/write bound on every torture client.
    pub io_timeout: Duration,
    /// Where to write the failure artifact (seed + minimized schedule)
    /// when a round fails.
    pub artifact: Option<PathBuf>,
    /// Resource-exhaustion mode: every round runs a seeded shuffle of
    /// *all four* resource faults (fd squeeze, disk full, memory
    /// squeeze, slow readers) instead of the general schedule — the
    /// combined-pressure acceptance drill, still fully replayable from
    /// the master seed.
    pub resource: bool,
}

impl Default for TortureOptions {
    fn default() -> Self {
        TortureOptions {
            spq_bin: PathBuf::from("spq"),
            dir: PathBuf::from("torture-scratch"),
            seed: 0x0070_4742,
            rounds: 4,
            target: 400,
            minimize: true,
            startup_timeout: Duration::from_secs(60),
            io_timeout: Duration::from_secs(10),
            artifact: None,
            resource: false,
        }
    }
}

/// One round's verdict.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round index (its seed is `mix of (master seed, round)`).
    pub round: usize,
    /// The schedule that ran.
    pub schedule: Vec<FaultEvent>,
    /// The property violation, if the round failed.
    pub failure: Option<String>,
    /// The minimized still-failing schedule, when minimization ran.
    pub minimized: Option<Vec<FaultEvent>>,
}

/// The full run's verdict.
#[derive(Debug, Clone)]
pub struct TortureReport {
    /// The master seed (rerunning with it regenerates every schedule).
    pub seed: u64,
    /// Whether this campaign ran the resource-exhaustion schedules
    /// (the reproduction line must carry the flag to replay).
    pub resource: bool,
    /// Per-round outcomes.
    pub rounds: Vec<RoundOutcome>,
}

impl TortureReport {
    /// Number of failed rounds.
    pub fn failures(&self) -> usize {
        self.rounds.iter().filter(|r| r.failure.is_some()).count()
    }

    /// Human-readable summary, ending with the reproduction line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in &self.rounds {
            out.push_str(&format!("round {} seed={:#x}:\n", r.round, self.seed));
            for e in &r.schedule {
                out.push_str(&format!("  - {e}\n"));
            }
            match &r.failure {
                None => out.push_str("  PASS\n"),
                Some(f) => {
                    out.push_str(&format!("  FAIL: {f}\n"));
                    if let Some(min) = &r.minimized {
                        out.push_str(&format!("  minimized to {} event(s):\n", min.len()));
                        for e in min {
                            out.push_str(&format!("    - {e}\n"));
                        }
                    }
                }
            }
        }
        out.push_str(&format!(
            "torture: {} round(s), {} failure(s), seed={:#x}\n",
            self.rounds.len(),
            self.failures(),
            self.seed
        ));
        if self.failures() > 0 {
            out.push_str(&format!(
                "reproduce with: spq torture --seed {} --rounds {}{}\n",
                self.seed,
                self.rounds.len(),
                if self.resource { " --resource" } else { "" }
            ));
        }
        out
    }
}

/// SplitMix64 finalizer: decorrelates per-round seeds.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Draws one round's schedule (1..=4 events) from its seed.
pub fn gen_schedule(round_seed: u64) -> Vec<FaultEvent> {
    let mut rng = StdRng::seed_from_u64(round_seed);
    let len = rng.random_range(1..=4usize);
    (0..len)
        .map(|_| match rng.random_range(0..11u32) {
            0 => FaultEvent::TornPrep {
                stage: CrashStage::ALL[rng.random_range(0..CrashStage::ALL.len())],
                nth: rng.random_range(0..2),
            },
            1 => FaultEvent::FlipIndexByte {
                pos_permille: rng.random_range(0..1000),
                xor: rng.random_range(1..=255) as u8,
            },
            2 => FaultEvent::TruncateIndex {
                keep_permille: rng.random_range(0..1000),
            },
            3 => FaultEvent::OrphanTemp {
                bytes: rng.random_range(0..4096),
            },
            4 | 5 => FaultEvent::KillServe(match rng.random_range(0..4u32) {
                0 => KillPoint::Startup,
                1 => KillPoint::Serving(rng.random_range(1..24)),
                2 => KillPoint::Reload(rng.random_range(0..40)),
                _ => KillPoint::Drain(rng.random_range(0..30)),
            }),
            6 => FaultEvent::WireChaos {
                plan_seed: rng.random(),
                requests: rng.random_range(8..=24),
            },
            7 => FaultEvent::FdSqueeze {
                // The floor leaves the server its own baseline fds
                // (listener, epoll, eventfds, the emergency reserve);
                // everything above it is connection capacity to fight
                // over.
                limit: rng.random_range(20..=40),
                conns: rng.random_range(8..=24),
            },
            8 => FaultEvent::DiskFull {
                from_nth: rng.random_range(0..3),
            },
            9 => FaultEvent::MemSqueeze {
                kib: rng.random_range(64..=512),
            },
            _ => FaultEvent::SlowReader {
                conns: rng.random_range(2..=4),
                frames: rng.random_range(8..=16),
            },
        })
        .collect()
}

/// Draws one resource-mode round: a seeded shuffle of all four
/// resource faults, so every round combines fd squeeze + disk full +
/// memory squeeze + slow readers in a seed-determined order.
pub fn gen_resource_schedule(round_seed: u64) -> Vec<FaultEvent> {
    let mut rng = StdRng::seed_from_u64(round_seed ^ 0x5e50_4243);
    let mut events = vec![
        FaultEvent::FdSqueeze {
            limit: rng.random_range(20..=40),
            conns: rng.random_range(8..=24),
        },
        FaultEvent::DiskFull {
            from_nth: rng.random_range(0..3),
        },
        FaultEvent::MemSqueeze {
            kib: rng.random_range(64..=512),
        },
        FaultEvent::SlowReader {
            conns: rng.random_range(2..=4),
            frames: rng.random_range(8..=16),
        },
    ];
    // Fisher–Yates off the same stream: the order varies per round,
    // the coverage (all four modes) never does.
    for i in (1..events.len()).rev() {
        let j = rng.random_range(0..=i);
        events.swap(i, j);
    }
    events
}

/// Greedy delta-debugging: repeatedly drops single events while the
/// predicate still reports failure, within `budget` re-runs. Returns
/// the smallest still-failing schedule found.
pub fn minimize_schedule<F>(
    events: &[FaultEvent],
    mut still_fails: F,
    budget: usize,
) -> Vec<FaultEvent>
where
    F: FnMut(&[FaultEvent]) -> bool,
{
    let mut current = events.to_vec();
    let mut spent = 0usize;
    let mut progress = true;
    while progress && current.len() > 1 && spent < budget {
        progress = false;
        let mut i = 0;
        while i < current.len() && spent < budget {
            let mut candidate = current.clone();
            candidate.remove(i);
            spent += 1;
            if still_fails(&candidate) {
                current = candidate;
                progress = true;
                // Re-test from the start of the shrunk schedule.
                i = 0;
            } else {
                i += 1;
            }
        }
    }
    current
}

// ---------------------------------------------------------------------------
// Child-process plumbing
// ---------------------------------------------------------------------------

/// A spawned `spq serve` child with its stdout lines streamed through a
/// channel (for the `listening on ADDR` handshake) and stderr collected
/// for post-mortem (panic scan, failure context).
struct ChildServer {
    child: Child,
    stdout_rx: mpsc::Receiver<String>,
    stderr: Arc<Mutex<String>>,
}

/// Cap on collected child stderr, so a log-spamming child cannot OOM
/// the orchestrator.
const STDERR_CAP: usize = 64 * 1024;

impl ChildServer {
    fn spawn(
        opts: &TortureOptions,
        args: &[String],
        env: &[(String, String)],
    ) -> Result<ChildServer, String> {
        let mut cmd = Command::new(&opts.spq_bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {} {args:?}: {e}", opts.spq_bin.display()))?;
        let (tx, rx) = mpsc::channel();
        let stdout = child.stdout.take().expect("stdout was piped");
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let stderr = Arc::new(Mutex::new(String::new()));
        let sink = Arc::clone(&stderr);
        let err = child.stderr.take().expect("stderr was piped");
        std::thread::spawn(move || {
            for line in BufReader::new(err).lines().map_while(Result::ok) {
                let mut buf = sink.lock().unwrap_or_else(|p| p.into_inner());
                if buf.len() < STDERR_CAP {
                    buf.push_str(&line);
                    buf.push('\n');
                }
            }
        });
        Ok(ChildServer {
            child,
            stdout_rx: rx,
            stderr,
        })
    }

    /// Waits for the `listening on ADDR` line, bounded by `timeout`.
    fn wait_listening(&mut self, timeout: Duration) -> Result<SocketAddr, String> {
        let deadline = Instant::now() + timeout;
        loop {
            let now = Instant::now();
            if now >= deadline {
                return Err(format!(
                    "server did not report 'listening on' within {timeout:?} (hang)"
                ));
            }
            match self.stdout_rx.recv_timeout(deadline - now) {
                Ok(line) => {
                    if let Some(rest) = line.strip_prefix("listening on ") {
                        return rest
                            .trim()
                            .parse()
                            .map_err(|e| format!("cannot parse listen addr '{rest}': {e}"));
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "server did not report 'listening on' within {timeout:?} (hang)"
                    ))
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Child exited (or closed stdout) before listening.
                    let status = self.wait_bounded(Duration::from_secs(5))?;
                    return Err(format!(
                        "server exited before listening ({status}); stderr tail:\n{}",
                        self.stderr_tail()
                    ));
                }
            }
        }
    }

    /// Polls the child until it exits, bounded; kills it on timeout.
    fn wait_bounded(&mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) => {
                    if Instant::now() >= deadline {
                        let _ = self.child.kill();
                        let _ = self.child.wait();
                        return Err(format!("server did not exit within {timeout:?} (hang)"));
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(format!("wait: {e}")),
            }
        }
    }

    /// SIGKILLs the child and reaps it.
    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    fn stderr_tail(&self) -> String {
        let buf = self.stderr.lock().unwrap_or_else(|p| p.into_inner());
        let tail_at = buf.len().saturating_sub(2048);
        buf[tail_at..].to_string()
    }

    /// The recovery property forbids panics outright — a panicking
    /// worker is supervised in-process, but a panic that reaches a
    /// child's stderr means something escaped the blast shield.
    fn panic_check(&self) -> Result<(), String> {
        let buf = self.stderr.lock().unwrap_or_else(|p| p.into_inner());
        if buf.contains("panicked at") {
            let tail_at = buf.len().saturating_sub(2048);
            return Err(format!("child panicked; stderr tail:\n{}", &buf[tail_at..]));
        }
        Ok(())
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        // Never leak a serve child past its round.
        if matches!(self.child.try_wait(), Ok(None) | Err(_)) {
            self.kill();
        }
    }
}

/// Runs a short-lived `spq` subcommand (generate / prep) to completion,
/// bounded; returns its exit status.
fn run_spq(
    opts: &TortureOptions,
    args: &[String],
    env: &[(String, String)],
    timeout: Duration,
) -> Result<ExitStatus, String> {
    let mut child = ChildServer::spawn(opts, args, env)?;
    child.wait_bounded(timeout)
}

// ---------------------------------------------------------------------------
// The round executor
// ---------------------------------------------------------------------------

/// Everything shared across rounds: the network both the children and
/// the oracle load, the query pairs, and the one-to-many target list.
struct TortureEnv {
    net: RoadNetwork,
    net_base: String,
    pairs: Vec<(NodeId, NodeId)>,
    o2m_targets: Vec<NodeId>,
}

/// Targets of the recovery check's one-to-many batch.
const O2M_TARGETS: usize = 64;

/// The recovery check's one-to-many targets, drawn from the campaign
/// seed.
fn o2m_targets(net: &RoadNetwork, seed: u64) -> Vec<NodeId> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = net.num_nodes() as NodeId;
    (0..O2M_TARGETS).map(|_| rng.random_range(0..n)).collect()
}

fn serve_args(net_base: &str, index: &Path, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "serve".to_string(),
        "--net".to_string(),
        net_base.to_string(),
        "--backends".to_string(),
        "dijkstra,ch".to_string(),
        "--index".to_string(),
        format!("ch={}", index.display()),
        "--addr".to_string(),
        "127.0.0.1:0".to_string(),
        "--workers".to_string(),
        "2".to_string(),
        // Two event-loop shards: the torture rounds double as a
        // SIGKILL-under-load test of the sharded server.
        "--shards".to_string(),
        "2".to_string(),
    ];
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

/// Applies one fault event to the round's state.
fn apply_event(
    opts: &TortureOptions,
    env: &TortureEnv,
    round_dir: &Path,
    index: &Path,
    event: FaultEvent,
) -> Result<(), String> {
    match event {
        FaultEvent::TornPrep { stage, nth } => {
            // The child aborts at the armed stage (or completes if its
            // write count never reaches `nth`); both are valid outcomes
            // — the property under test is what the *next* server does
            // with the debris.
            let args: Vec<String> = ["prep", "--net", &env.net_base, "--kind", "ch", "--out"]
                .iter()
                .map(|s| s.to_string())
                .chain([index.display().to_string()])
                .collect();
            let hook = format!("{}:{nth}", stage.as_str());
            run_spq(
                opts,
                &args,
                &[(CRASH_ENV.to_string(), hook)],
                Duration::from_secs(120),
            )?;
            Ok(())
        }
        FaultEvent::FlipIndexByte { pos_permille, xor } => {
            let Ok(mut bytes) = fs::read(index) else {
                return Ok(()); // nothing to corrupt
            };
            if bytes.is_empty() {
                return Ok(());
            }
            let pos = ((bytes.len() as u64 * pos_permille as u64) / 1000) as usize;
            let pos = pos.min(bytes.len() - 1);
            bytes[pos] ^= xor;
            fs::write(index, bytes).map_err(|e| format!("flip {}: {e}", index.display()))
        }
        FaultEvent::TruncateIndex { keep_permille } => {
            let Ok(bytes) = fs::read(index) else {
                return Ok(());
            };
            let keep = ((bytes.len() as u64 * keep_permille as u64) / 1000) as usize;
            fs::write(index, &bytes[..keep])
                .map_err(|e| format!("truncate {}: {e}", index.display()))
        }
        FaultEvent::OrphanTemp { bytes } => {
            let debris = round_dir.join("ch.idx.9999.0.tmp");
            fs::write(&debris, vec![0xAB; bytes as usize])
                .map_err(|e| format!("orphan {}: {e}", debris.display()))
        }
        FaultEvent::KillServe(point) => kill_serve(opts, env, round_dir, index, point),
        FaultEvent::WireChaos {
            plan_seed,
            requests,
        } => wire_chaos(opts, env, index, plan_seed, requests),
        FaultEvent::FdSqueeze { limit, conns } => fd_squeeze(opts, env, index, limit, conns),
        FaultEvent::DiskFull { from_nth } => {
            // Re-run prep with ENOSPC injected from its from_nth-th
            // atomic write. The child may fail (typed) or complete if
            // it needs fewer writes; either way the failure must stay
            // non-fatal and the post-schedule recovery server judges
            // the debris.
            let args: Vec<String> = ["prep", "--net", &env.net_base, "--kind", "ch", "--out"]
                .iter()
                .map(|s| s.to_string())
                .chain([index.display().to_string()])
                .collect();
            run_spq(
                opts,
                &args,
                &[(atomic_io::ENOSPC_ENV.to_string(), from_nth.to_string())],
                Duration::from_secs(120),
            )?;
            Ok(())
        }
        FaultEvent::MemSqueeze { kib } => mem_squeeze(opts, env, index, kib),
        FaultEvent::SlowReader { conns, frames } => {
            slow_reader_event(opts, env, index, conns, frames)
        }
    }
}

/// Issues oracle-checked distance queries against a live server. A
/// typed error is tolerated only when `allow_typed` (mid-fault); a
/// wrong answer never is.
fn checked_distances(
    env: &TortureEnv,
    client: &mut ServeClient,
    backend: BackendKind,
    count: usize,
    offset: usize,
    allow_typed: bool,
) -> Result<(), String> {
    let mut oracle = Dijkstra::new(env.net.num_nodes());
    for i in 0..count {
        let (s, t) = env.pairs[(offset + i * 7) % env.pairs.len()];
        match client.distance(backend, s, t) {
            Ok(got) => {
                oracle.run_to_target(&env.net, s, t);
                let expected = oracle.distance(t);
                if got != expected {
                    return Err(format!(
                        "WRONG ANSWER: {} distance({s}, {t}) = {got:?}, oracle {expected:?}",
                        backend.name()
                    ));
                }
            }
            Err(ClientError::Io(_)) if allow_typed => return Ok(()), // connection died mid-fault
            Err(e) if allow_typed && !matches!(e, ClientError::Protocol(_)) => {}
            Err(e) => return Err(format!("{} query failed: {e}", backend.name())),
        }
    }
    Ok(())
}

fn kill_serve(
    opts: &TortureOptions,
    env: &TortureEnv,
    round_dir: &Path,
    index: &Path,
    point: KillPoint,
) -> Result<(), String> {
    let reload_spec = round_dir.join("reload.spec");
    let mut extra: Vec<String> = Vec::new();
    if matches!(point, KillPoint::Reload(_)) {
        fs::write(&reload_spec, format!("index=ch={}\n", index.display()))
            .map_err(|e| format!("write {}: {e}", reload_spec.display()))?;
        extra.push("--reload-file".into());
        extra.push(reload_spec.display().to_string());
    }
    let extra_refs: Vec<&str> = extra.iter().map(String::as_str).collect();
    let args = serve_args(&env.net_base, index, &extra_refs);
    let mut child = ChildServer::spawn(opts, &args, &[])?;
    match point {
        KillPoint::Startup => {
            // Race the index load / recovery scan / self-check.
            std::thread::sleep(Duration::from_millis(30));
            child.kill();
        }
        KillPoint::Serving(n) => {
            let addr = child.wait_listening(opts.startup_timeout)?;
            if let Ok(mut c) = ServeClient::connect(addr) {
                let _ = c.set_io_timeout(Some(opts.io_timeout));
                // Mid-fault traffic: answers must be correct or typed,
                // and must never hang; the connection dying under
                // SIGKILL is expected.
                checked_distances(env, &mut c, BackendKind::Dijkstra, n as usize, 0, true)?;
            }
            child.kill();
        }
        KillPoint::Reload(ms) => {
            let addr = child.wait_listening(opts.startup_timeout)?;
            let reloader = std::thread::spawn(move || {
                if let Ok(mut c) = ServeClient::connect(addr) {
                    let _ = c.set_io_timeout(Some(Duration::from_secs(5)));
                    let _ = c.reload(); // racing the SIGKILL: any outcome goes
                }
            });
            std::thread::sleep(Duration::from_millis(ms));
            child.kill();
            let _ = reloader.join();
        }
        KillPoint::Drain(ms) => {
            let addr = child.wait_listening(opts.startup_timeout)?;
            if let Ok(mut c) = ServeClient::connect(addr) {
                let _ = c.set_io_timeout(Some(opts.io_timeout));
                let _ = c.shutdown_server();
            }
            std::thread::sleep(Duration::from_millis(ms));
            child.kill();
        }
    }
    child.panic_check()
}

fn wire_chaos(
    opts: &TortureOptions,
    env: &TortureEnv,
    index: &Path,
    plan_seed: u64,
    requests: u32,
) -> Result<(), String> {
    let args = serve_args(&env.net_base, index, &[]);
    let mut child = ChildServer::spawn(opts, &args, &[])?;
    let addr = child.wait_listening(opts.startup_timeout)?;
    // Faults land on the request direction only: a flipped request byte
    // changes *which* query the server sees, so correctness can only be
    // judged on the clean connection afterwards. Response-direction
    // faults would corrupt answers in flight and blame the server.
    let plan = ByteFaultPlan {
        seed: plan_seed,
        split_prob: 0.5,
        stall_prob: 0.2,
        stall: Duration::from_millis(40),
        flip_prob: 0.15,
        dup_prob: 0.1,
        kill_prob: 0.15,
        fault_upstream: true,
        fault_downstream: false,
    };
    let stall = plan.stall;
    let proxy = ByteProxy::start(addr, plan).map_err(|e| format!("start proxy: {e}"))?;
    let via = proxy.local_addr();
    for i in 0..requests {
        // Fresh connection per request: each gets its own fault stream.
        let Ok(mut c) = ServeClient::connect(via) else {
            continue;
        };
        let _ = c.set_io_timeout(Some(opts.io_timeout));
        let (s, t) = env.pairs[i as usize % env.pairs.len()];
        let started = Instant::now();
        // Any result is legal here except a hang past the bound: the
        // request bytes may have been mangled arbitrarily.
        let _ = c.distance(BackendKind::Dijkstra, s, t);
        let waited = started.elapsed();
        if waited > opts.io_timeout + stall + Duration::from_secs(5) {
            proxy.stop();
            child.kill();
            return Err(format!(
                "request hung for {waited:?} under wire chaos (bound {:?})",
                opts.io_timeout
            ));
        }
    }
    let chaos_counters = proxy.counters();
    proxy.stop();
    // The server must still answer correctly on a clean connection.
    let mut clean =
        ServeClient::connect(addr).map_err(|e| format!("clean connect after chaos: {e}"))?;
    clean
        .set_io_timeout(Some(opts.io_timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    checked_distances(env, &mut clean, BackendKind::Dijkstra, 8, 3, false)
        .map_err(|e| format!("after wire chaos ({chaos_counters:?}): {e}"))?;
    let _ = clean.shutdown_server();
    let status = child.wait_bounded(Duration::from_secs(30))?;
    child.panic_check()?;
    if !status.success() {
        return Err(format!(
            "server exited {status} after wire chaos; stderr tail:\n{}",
            child.stderr_tail()
        ));
    }
    Ok(())
}

/// Starts a server whose `RLIMIT_NOFILE` is squeezed to `limit` (the
/// `SPQ_FD_LIMIT` env hook, honored at serve startup) and drives a herd
/// of `conns` connections into it. Every outcome must be typed: a
/// served PING, a BUSY shed, or a clean kernel-level refusal — never a
/// crash, never a hang. Once the herd leaves, the server must accept
/// and answer correctly again.
fn fd_squeeze(
    opts: &TortureOptions,
    env: &TortureEnv,
    index: &Path,
    limit: u32,
    conns: u32,
) -> Result<(), String> {
    let args = serve_args(&env.net_base, index, &[]);
    let fd_env = [(
        crate::eventloop::FD_LIMIT_ENV.to_string(),
        limit.to_string(),
    )];
    let mut child = ChildServer::spawn(opts, &args, &fd_env)?;
    let addr = child.wait_listening(opts.startup_timeout)?;
    let mut herd = Vec::new();
    let mut shed = 0u32;
    for _ in 0..conns {
        match ServeClient::connect(addr) {
            Ok(mut c) => {
                let _ = c.set_io_timeout(Some(opts.io_timeout));
                match c.ping() {
                    Ok(()) => herd.push(c),
                    Err(ClientError::Busy(_)) => shed += 1,
                    // Accept failing at the kernel surfaces to the peer
                    // as a reset/EOF — a clean refusal, not a protocol
                    // violation.
                    Err(ClientError::Io(_)) => shed += 1,
                    Err(e) => {
                        child.kill();
                        return Err(format!("fd-squeeze: untyped failure under fd limit: {e}"));
                    }
                }
            }
            Err(_) => shed += 1,
        }
    }
    eprintln!(
        "[torture]   fd-squeeze: {} served, {shed} shed at limit {limit}",
        herd.len()
    );
    drop(herd);
    // The herd's fds are back; accept capacity must recover (the accept
    // backoff caps at 500ms, so a few retries cover it).
    let mut clean = None;
    for _ in 0..50 {
        if let Ok(c) = ServeClient::connect(addr) {
            clean = Some(c);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let Some(mut clean) = clean else {
        child.kill();
        return Err(
            "fd-squeeze: server never recovered accept capacity after the herd left".into(),
        );
    };
    clean
        .set_io_timeout(Some(opts.io_timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    checked_distances(env, &mut clean, BackendKind::Dijkstra, 8, 2, false)
        .map_err(|e| format!("after fd squeeze: {e}"))?;
    let _ = clean.shutdown_server();
    let status = child.wait_bounded(Duration::from_secs(30))?;
    child.panic_check()?;
    if !status.success() {
        return Err(format!(
            "server exited {status} after fd squeeze; stderr tail:\n{}",
            child.stderr_tail()
        ));
    }
    Ok(())
}

/// Starts a server under a `--mem-budget` of `kib` KiB and drives
/// oracle-checked queries on both backends: budget pressure may pause
/// reads, it must never corrupt an answer or wedge the server.
fn mem_squeeze(
    opts: &TortureOptions,
    env: &TortureEnv,
    index: &Path,
    kib: u32,
) -> Result<(), String> {
    let bytes = (kib as u64 * 1024).to_string();
    let args = serve_args(&env.net_base, index, &["--mem-budget", &bytes]);
    let mut child = ChildServer::spawn(opts, &args, &[])?;
    let addr = child.wait_listening(opts.startup_timeout)?;
    let mut client = ServeClient::connect(addr).map_err(|e| format!("mem-squeeze connect: {e}"))?;
    client
        .set_io_timeout(Some(opts.io_timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    checked_distances(env, &mut client, BackendKind::Dijkstra, 10, 0, false)
        .map_err(|e| format!("under a {kib}KiB mem budget: {e}"))?;
    checked_distances(env, &mut client, BackendKind::Ch, 10, 4, false)
        .map_err(|e| format!("under a {kib}KiB mem budget: {e}"))?;
    let _ = client.shutdown_server();
    let status = child.wait_bounded(Duration::from_secs(30))?;
    child.panic_check()?;
    if !status.success() {
        return Err(format!(
            "server exited {status} under mem budget; stderr tail:\n{}",
            child.stderr_tail()
        ));
    }
    Ok(())
}

/// Starts a server with a tight write-backlog cap and a short peer
/// timeout, parks `conns` never-reading peers each pipelining `frames`
/// large DISTANCES requests, and requires a well-behaved client to keep
/// getting correct answers while the hoarders are force-closed.
fn slow_reader_event(
    opts: &TortureOptions,
    env: &TortureEnv,
    index: &Path,
    conns: u32,
    frames: u32,
) -> Result<(), String> {
    let args = serve_args(
        &env.net_base,
        index,
        &["--wbuf-cap", "65536", "--peer-timeout-ms", "300"],
    );
    let mut child = ChildServer::spawn(opts, &args, &[])?;
    let addr = child.wait_listening(opts.startup_timeout)?;

    // One 8×32768 DISTANCES request: a ~2MiB response from ~128KiB of
    // request, so a handful of pipelined frames outgrow the kernel's
    // socket buffers and force the server's own backlog cap to act.
    // CH's native many-to-many kernel produces that response in
    // milliseconds, so the flood saturates the write path without
    // monopolising the worker pool the well-behaved client shares.
    let sources: Vec<NodeId> = (0..8).map(|i| env.pairs[i % env.pairs.len()].0).collect();
    let targets: Vec<NodeId> = (0..32768)
        .map(|i| env.pairs[i % env.pairs.len()].1)
        .collect();
    let payload = crate::protocol::Request::Distances {
        backend: BackendKind::Ch.wire_id(),
        sources,
        targets,
        deadline_ms: 0,
    }
    .encode();
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);

    let mut hoarders = Vec::new();
    for _ in 0..conns {
        let Ok(mut s) = std::net::TcpStream::connect(addr) else {
            continue;
        };
        let _ = s.set_write_timeout(Some(Duration::from_millis(200)));
        for _ in 0..frames {
            use std::io::Write as _;
            // A write error means the server already reclaimed this
            // hoarder — which is exactly the behavior under test.
            if s.write_all(&frame).is_err() {
                break;
            }
        }
        hoarders.push(s);
    }

    // The well-behaved client must stay correct while the hoarders
    // pile their responses into capped write buffers.
    // Queue saturation may delay the answer; it must never falsify it —
    // so the correctness probe gets a generous timeout rather than a
    // pass for transport errors.
    let mut good = ServeClient::connect(addr).map_err(|e| format!("slow-reader connect: {e}"))?;
    good.set_io_timeout(Some(opts.io_timeout.max(Duration::from_secs(30))))
        .map_err(|e| format!("set timeout: {e}"))?;
    checked_distances(env, &mut good, BackendKind::Dijkstra, 6, 1, false)
        .map_err(|e| format!("while slow readers hoard: {e}"))?;
    // Give the stall reaper a cycle to force-close the herd, then log
    // the operator's evidence trail.
    std::thread::sleep(Duration::from_millis(700));
    if let Ok(stats) = good.stats() {
        for line in stats.lines() {
            if line.contains("slow_closed") || line.contains("wbuf_peak") {
                eprintln!("[torture]   slow-reader: {}", line.trim());
            }
        }
    }
    drop(hoarders);
    checked_distances(env, &mut good, BackendKind::Dijkstra, 6, 9, false)
        .map_err(|e| format!("after slow readers left: {e}"))?;
    let _ = good.shutdown_server();
    let status = child.wait_bounded(Duration::from_secs(30))?;
    child.panic_check()?;
    if !status.success() {
        return Err(format!(
            "server exited {status} after slow readers; stderr tail:\n{}",
            child.stderr_tail()
        ));
    }
    Ok(())
}

/// Runs one schedule in a fresh subdirectory and checks the recovery
/// property. `Ok(())` is a pass; `Err` describes the violation.
fn run_schedule(
    opts: &TortureOptions,
    env: &TortureEnv,
    round_dir: &Path,
    schedule: &[FaultEvent],
) -> Result<(), String> {
    if round_dir.exists() {
        fs::remove_dir_all(round_dir).map_err(|e| format!("clear {}: {e}", round_dir.display()))?;
    }
    fs::create_dir_all(round_dir).map_err(|e| format!("mkdir {}: {e}", round_dir.display()))?;
    let index = round_dir.join("ch.idx");

    // Baseline: a clean prep, so byte-level faults have a real
    // container to damage (a schedule may still tear it later).
    let prep_args: Vec<String> = ["prep", "--net", &env.net_base, "--kind", "ch", "--out"]
        .iter()
        .map(|s| s.to_string())
        .chain([index.display().to_string()])
        .collect();
    let status = run_spq(opts, &prep_args, &[], Duration::from_secs(120))?;
    if !status.success() {
        return Err(format!("baseline prep failed: {status}"));
    }

    for &event in schedule {
        apply_event(opts, env, round_dir, &index, event)?;
    }

    // The recovery property: a fresh server over whatever the schedule
    // left behind must come up (clean load or typed quarantine +
    // degradation) and answer correctly.
    let args = serve_args(&env.net_base, &index, &[]);
    let mut child = ChildServer::spawn(opts, &args, &[])?;
    let addr = child
        .wait_listening(opts.startup_timeout)
        .map_err(|e| format!("post-fault recovery failed: {e}"))?;
    let mut client =
        ServeClient::connect(addr).map_err(|e| format!("connect recovered server: {e}"))?;
    client
        .set_io_timeout(Some(opts.io_timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    // Both the baseline and the (possibly degraded) CH slot must agree
    // with the local oracle — a quarantined index must have fallen back,
    // never kept serving wrong bytes.
    checked_distances(env, &mut client, BackendKind::Dijkstra, 12, 0, false)?;
    checked_distances(env, &mut client, BackendKind::Ch, 12, 5, false)?;
    let targets = &env.o2m_targets;
    let (s, _) = env.pairs[0];
    let got = client
        .one_to_many(BackendKind::Dijkstra, s, targets)
        .map_err(|e| format!("one_to_many on recovered server: {e}"))?;
    let mut oracle = Dijkstra::new(env.net.num_nodes());
    oracle.run(&env.net, s);
    let expected: Vec<_> = targets.iter().map(|&t| oracle.distance(t)).collect();
    if got != expected {
        return Err(format!(
            "WRONG ANSWER: one_to_many({s}) on recovered server"
        ));
    }
    // STATS must be reachable; its degradation lines are the operator's
    // evidence trail (logged, not asserted — a before-rename tear leaves
    // a valid old file and degrades nothing).
    let stats = client
        .stats()
        .map_err(|e| format!("STATS on recovered server: {e}"))?;
    for line in stats.lines() {
        if line.contains("degraded") || line.contains("quarantined") {
            eprintln!("[torture] recovered server: {}", line.trim());
        }
    }
    let _ = client.shutdown_server();
    let status = child.wait_bounded(Duration::from_secs(30))?;
    child.panic_check()?;
    if !status.success() {
        return Err(format!(
            "recovered server exited {status}; stderr tail:\n{}",
            child.stderr_tail()
        ));
    }
    Ok(())
}

/// Budget for minimizer re-runs (each re-runs a full schedule).
const MINIMIZE_BUDGET: usize = 20;

/// Runs the whole torture campaign. `Err` is an orchestration failure
/// (cannot spawn, cannot generate); property violations land in the
/// report's per-round outcomes.
pub fn run_torture(opts: &TortureOptions) -> Result<TortureReport, String> {
    fs::create_dir_all(&opts.dir).map_err(|e| format!("mkdir {}: {e}", opts.dir.display()))?;
    let net_base = opts.dir.join("net").display().to_string();

    // One network for the whole campaign, generated by the child binary
    // (exercising its atomic write path) and loaded back for the oracle.
    if !Path::new(&format!("{net_base}.gr")).exists() {
        let args: Vec<String> = [
            "generate",
            "--target",
            &opts.target.to_string(),
            "--seed",
            &opts.seed.to_string(),
            "--out",
            &net_base,
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let status = run_spq(opts, &args, &[], Duration::from_secs(120))?;
        if !status.success() {
            return Err(format!("spq generate failed: {status}"));
        }
    }
    let gr =
        fs::File::open(format!("{net_base}.gr")).map_err(|e| format!("open {net_base}.gr: {e}"))?;
    let co =
        fs::File::open(format!("{net_base}.co")).map_err(|e| format!("open {net_base}.co: {e}"))?;
    let net = spq_graph::dimacs::read(BufReader::new(gr), BufReader::new(co))
        .map_err(|e| format!("parse {net_base}: {e}"))?;

    let pairs = crate::loadgen::workload_pairs(&net, 40, opts.seed);
    let env = TortureEnv {
        o2m_targets: o2m_targets(&net, opts.seed),
        net,
        net_base,
        pairs,
    };

    let mut report = TortureReport {
        seed: opts.seed,
        resource: opts.resource,
        rounds: Vec::new(),
    };
    for round in 0..opts.rounds {
        let round_seed = mix(opts.seed, round as u64 + 1);
        let schedule = if opts.resource {
            gen_resource_schedule(round_seed)
        } else {
            gen_schedule(round_seed)
        };
        eprintln!(
            "[torture] round {round}/{}: {} event(s), seed={:#x}",
            opts.rounds,
            schedule.len(),
            opts.seed
        );
        for e in &schedule {
            eprintln!("[torture]   - {e}");
        }
        let round_dir = opts.dir.join(format!("round-{round}"));
        let failure = run_schedule(opts, &env, &round_dir, &schedule).err();
        let minimized = match &failure {
            Some(first) if opts.minimize && schedule.len() > 1 => {
                eprintln!("[torture] round {round} FAILED ({first}); minimizing...");
                let min = minimize_schedule(
                    &schedule,
                    |candidate| run_schedule(opts, &env, &round_dir, candidate).is_err(),
                    MINIMIZE_BUDGET,
                );
                Some(min)
            }
            _ => None,
        };
        if let Some(f) = &failure {
            eprintln!("[torture] round {round} FAIL: {f}");
        } else {
            eprintln!("[torture] round {round} PASS");
        }
        report.rounds.push(RoundOutcome {
            round,
            schedule,
            failure,
            minimized,
        });
    }

    if report.failures() > 0 {
        if let Some(artifact) = &opts.artifact {
            let rendered = report.render();
            atomic_io::write_atomic(artifact, |w| {
                use std::io::Write;
                w.write_all(rendered.as_bytes())
            })
            .map_err(|e| format!("write artifact {}: {e}", artifact.display()))?;
            eprintln!(
                "[torture] failure artifact written to {}",
                artifact.display()
            );
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seed_deterministic() {
        let a = gen_schedule(42);
        let b = gen_schedule(42);
        assert_eq!(a, b);
        assert!(!a.is_empty() && a.len() <= 4);
        // Different seeds diverge somewhere in a small sample.
        let differs = (0..16u64).any(|s| gen_schedule(s) != gen_schedule(s + 1000));
        assert!(differs, "schedules never varied across seeds");
    }

    #[test]
    fn o2m_targets_are_seeded_and_in_range() {
        let net = spq_synth::generate(&spq_synth::SynthParams::with_target_vertices(96, 3));
        let a = o2m_targets(&net, 20260808);
        assert_eq!(a.len(), O2M_TARGETS);
        assert_eq!(a, o2m_targets(&net, 20260808));
        assert_ne!(a, o2m_targets(&net, 20260809));
        assert!(a.iter().all(|&v| (v as usize) < net.num_nodes()));
    }

    #[test]
    fn schedule_space_covers_every_event_kind() {
        let mut kinds = [false; 10];
        for seed in 0..400u64 {
            for e in gen_schedule(seed) {
                let k = match e {
                    FaultEvent::TornPrep { .. } => 0,
                    FaultEvent::FlipIndexByte { .. } => 1,
                    FaultEvent::TruncateIndex { .. } => 2,
                    FaultEvent::OrphanTemp { .. } => 3,
                    FaultEvent::KillServe(_) => 4,
                    FaultEvent::WireChaos { .. } => 5,
                    FaultEvent::FdSqueeze { .. } => 6,
                    FaultEvent::DiskFull { .. } => 7,
                    FaultEvent::MemSqueeze { .. } => 8,
                    FaultEvent::SlowReader { .. } => 9,
                };
                kinds[k] = true;
            }
        }
        assert!(kinds.iter().all(|&k| k), "unreached event kinds: {kinds:?}");
    }

    #[test]
    fn resource_schedules_cover_all_four_modes_in_seed_stable_order() {
        let a = gen_resource_schedule(7);
        assert_eq!(a, gen_resource_schedule(7), "not seed-deterministic");
        assert_eq!(a.len(), 4);
        assert!(a.iter().any(|e| matches!(e, FaultEvent::FdSqueeze { .. })));
        assert!(a.iter().any(|e| matches!(e, FaultEvent::DiskFull { .. })));
        assert!(a.iter().any(|e| matches!(e, FaultEvent::MemSqueeze { .. })));
        assert!(a.iter().any(|e| matches!(e, FaultEvent::SlowReader { .. })));
        // The shuffle must actually vary the order across seeds.
        let orders: std::collections::HashSet<String> = (0..32u64)
            .map(|s| {
                gen_resource_schedule(s)
                    .iter()
                    .map(|e| e.to_string().chars().take(4).collect::<String>())
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        assert!(orders.len() > 1, "resource schedules never reorder");
    }

    #[test]
    fn minimizer_shrinks_to_the_culprit() {
        let culprit = FaultEvent::TruncateIndex { keep_permille: 1 };
        let schedule = vec![
            FaultEvent::OrphanTemp { bytes: 64 },
            FaultEvent::KillServe(KillPoint::Startup),
            culprit,
            FaultEvent::FlipIndexByte {
                pos_permille: 1,
                xor: 1,
            },
        ];
        let mut runs = 0usize;
        let min = minimize_schedule(
            &schedule,
            |candidate| {
                runs += 1;
                candidate.contains(&culprit)
            },
            MINIMIZE_BUDGET,
        );
        assert_eq!(min, vec![culprit]);
        assert!(runs <= MINIMIZE_BUDGET, "minimizer blew its budget: {runs}");
    }

    #[test]
    fn minimizer_respects_its_budget_and_keeps_a_failing_schedule() {
        // A predicate that only fails for the full schedule: nothing can
        // be removed, and the minimizer must stop within budget.
        let schedule: Vec<FaultEvent> = (0..4)
            .map(|i| FaultEvent::OrphanTemp { bytes: i })
            .collect();
        let full = schedule.clone();
        let mut runs = 0usize;
        let min = minimize_schedule(
            &schedule,
            |candidate| {
                runs += 1;
                candidate == full.as_slice()
            },
            MINIMIZE_BUDGET,
        );
        assert_eq!(min, full, "must fall back to the full failing schedule");
        assert!(runs <= MINIMIZE_BUDGET);
    }

    #[test]
    fn report_renders_the_reproduction_line() {
        let report = TortureReport {
            seed: 0xBEEF,
            resource: false,
            rounds: vec![RoundOutcome {
                round: 0,
                schedule: vec![FaultEvent::KillServe(KillPoint::Serving(3))],
                failure: Some("WRONG ANSWER: something".into()),
                minimized: Some(vec![FaultEvent::KillServe(KillPoint::Serving(3))]),
            }],
        };
        let text = report.render();
        assert!(text.contains("seed=0xbeef"));
        assert!(text.contains("reproduce with: spq torture --seed 48879"));
        assert!(text.contains("minimized to 1 event(s)"));
        assert!(text.contains("kill-serve(after 3 requests)"));
    }

    #[test]
    fn event_display_is_greppable() {
        let shown = format!(
            "{} {} {}",
            FaultEvent::TornPrep {
                stage: CrashStage::BeforeRename,
                nth: 1
            },
            FaultEvent::FlipIndexByte {
                pos_permille: 500,
                xor: 0x40
            },
            FaultEvent::WireChaos {
                plan_seed: 7,
                requests: 9
            },
        );
        assert!(shown.contains("torn-prep(stage=before-rename, nth=1)"));
        assert!(shown.contains("flip-index(pos=500‰"));
        assert!(shown.contains("wire-chaos(seed=0x7, requests=9)"));
        let resources = format!(
            "{} {} {} {}",
            FaultEvent::FdSqueeze {
                limit: 24,
                conns: 10
            },
            FaultEvent::DiskFull { from_nth: 1 },
            FaultEvent::MemSqueeze { kib: 128 },
            FaultEvent::SlowReader {
                conns: 3,
                frames: 9
            },
        );
        assert!(resources.contains("fd-squeeze(limit=24, conns=10)"));
        assert!(resources.contains("disk-full(from-write=1)"));
        assert!(resources.contains("mem-squeeze(128KiB)"));
        assert!(resources.contains("slow-reader(conns=3, frames=9)"));
    }

    #[test]
    fn resource_reports_reproduce_with_the_resource_flag() {
        let report = TortureReport {
            seed: 1,
            resource: true,
            rounds: vec![RoundOutcome {
                round: 0,
                schedule: vec![FaultEvent::MemSqueeze { kib: 64 }],
                failure: Some("x".into()),
                minimized: None,
            }],
        };
        assert!(report
            .render()
            .contains("spq torture --seed 1 --rounds 1 --resource"));
    }
}
