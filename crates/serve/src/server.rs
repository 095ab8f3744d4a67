//! The TCP query server: sharded epoll event loops that answer
//! bounded point requests themselves, in front of a fixed worker pool
//! for everything else, with bounded worst-case behavior under
//! overload, slow clients, deadlines, forced shutdown, worker panics,
//! and live index swaps (std-only; epoll/eventfd in [`crate::eventloop`]).
//!
//! * An **acceptor** thread deals accepted connections round-robin to
//!   the shards; an idle connection costs one fd and a few hundred bytes.
//! * [`ServerConfig::shards`] **shard** threads each run an epoll loop,
//!   the socket shell around one [`crate::conn::Conn`] per connection —
//!   the state machine that frames, gates, sequences, accounts and
//!   reaps. Clients may **pipeline** up to
//!   [`ServerConfig::pipeline_depth`] requests; responses leave in
//!   request order. `PING`, cache hits, and `DISTANCE`/`PATH` on a
//!   backend whose point queries are bounded by its hierarchy
//!   ([`spq_graph::backend::Backend::bounded_point_queries`]: CH, HL)
//!   are answered on the spot, encoded straight into the write queue
//!   and written out every half pipeline window. Everything else —
//!   network searches, batch, one-to-many, kNN, range, `STATS`,
//!   `RELOAD`, `SHUTDOWN`, a quarantined slot, an injected fault — goes
//!   decoded to a **bounded** work queue; past
//!   [`ServerConfig::max_pending`] it is answered with one `BUSY` frame
//!   in its response slot. A peer that stalls mid-frame, or stops
//!   reading its responses, for [`ServerConfig::peer_timeout`] is
//!   disconnected; a quietly idle connection never is.
//! * `workers` **worker** threads pop requests from the work queue.
//!   Shards and workers execute through a [`crate::executor::Executor`]
//!   pinned to the current [`EpochState`](crate::epoch::EpochState),
//!   with one reusable session per backend, rebuilt on a new epoch or
//!   after a panic. A panicking query kills only its own connection;
//!   past [`ServerConfig::restart_cap`] panics within
//!   [`RESTART_WINDOW`] a worker retires, and when the last one does the
//!   server shuts down.
//! * A **reloader** thread (with a reload source) turns `RELOAD`
//!   frames, `SIGHUP` and reload-file changes into a replacement
//!   engine, self-checked against the Dijkstra oracle before it is
//!   published as a new epoch ([`crate::epoch`]). An **auditor** thread
//!   ([`crate::audit`]) replays a seeded trickle of queries against the
//!   oracle and quarantines backends that keep disagreeing.
//! * Every query runs under a
//!   [`QueryBudget`](spq_graph::backend::QueryBudget): its optional
//!   deadline plus the force-stop flag. A tripped budget yields a
//!   `DEADLINE_EXCEEDED` frame, never a cached or false "unreachable".
//! * **Resource exhaustion is survived.** Connection buffers are capped
//!   ([`ServerConfig::wbuf_cap`], one max frame of unparsed bytes); an
//!   optional byte budget ([`ServerConfig::mem_budget`]) pauses reads
//!   past it — TCP backpressure, never OOM. `EMFILE`/`ENFILE` at
//!   accept sheds one waiting peer with a typed BUSY through a reserved
//!   fd; [`ServerConfig::max_connections`] sheds at the door. Disk-full
//!   during index writes latches the sticky `disk_degraded` gauge
//!   (`spq_graph::atomic_io`) while serving continues.
//! * **Shutdown** drains: a `SHUTDOWN` frame or SIGTERM/SIGINT stops
//!   accepting and parsing; in-flight requests finish within
//!   [`ServerConfig::grace`] and are flushed, then the force-stop flag
//!   trips every budget, shards close what is left after a short
//!   linger, and [`Server::join`] returns with every thread joined.
//!
//! Per-request flow: framing and sequencing ([`crate::conn`]) → decode
//! → fault hook (tests only; a hit forces the pooled path) → shard
//! executor: resolve backend → distance cache (DISTANCE only) → answer,
//! or hand off to the pool, whose executor resolves again (with
//! quarantine failover), runs under the budget, caches, and sequences
//! the response back through the shard's ingress queue (one eventfd
//! write per burst). A CH-slot DISTANCES table is routed by
//! `spq_many::ManySession::distances`: target sweeps while its shorter
//! side is at most `TABLE_SWEEP_SIDE`, the multi-source kernel beyond.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::ControlFlow;
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::audit::{self, AuditConfig};
use crate::cache::DistanceCache;
use crate::conn::{CloseReason, Conn, Interest, Limits, Next, RBUF_CAP};
use crate::epoch::{EpochRegistry, ReloadFactory, ReloadSpec};
use crate::eventloop::{Event, Poller, Waker};
use crate::executor::{render_status, run_pinned, Decoded, ExecCtx, Executor, Role, Verdict};
use crate::fault::{FaultAction, FaultInjector};
use crate::protocol::{self, Request};
use crate::stats::{ServerStats, WIRE_SLOTS};
use crate::sync::lock_unpoisoned;
use crate::{Engine, SELFCHECK_QUERIES, SELFCHECK_SEED};

/// How often the reload file is polled for content changes.
pub const RELOAD_POLL: Duration = Duration::from_millis(500);

/// The sliding window [`ServerConfig::restart_cap`] counts worker
/// panics over.
pub const RESTART_WINDOW: Duration = Duration::from_secs(10);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads executing queries (CPU-bound concurrency).
    pub workers: usize,
    /// Event-loop shards owning connections (0 = auto: cores / 4,
    /// between 1 and 4). Connection capacity is not limited by this,
    /// but point-query capacity scales with it: a shard answers `PING`,
    /// cache hits and CH/HL `DISTANCE`/`PATH` itself, one request at a
    /// time. The auto formula predates that and has not been
    /// re-measured on more than one serving core (ROADMAP item 5's
    /// `--shards 1/2` run).
    pub shards: usize,
    /// Most requests one connection may have in flight (parsed but not
    /// yet responded). Parsing and reading pause at this, so a pipelining
    /// client is backpressured through TCP instead of ballooning memory.
    pub pipeline_depth: usize,
    /// Total distance-cache entries (0 disables the cache).
    pub cache_capacity: usize,
    /// Cache shards (rounded up to a power of two).
    pub cache_shards: usize,
    /// Parsed requests waiting for a worker beyond which new ones are
    /// answered with BUSY (pooled requests only: what a shard answers
    /// itself never queues).
    pub max_pending: usize,
    /// How long a peer given the chance to make progress may make none
    /// before it is disconnected: a started frame that stops arriving
    /// while the server is reading (`client_timeouts`), or responses
    /// the peer stops accepting (`client_timeouts`, or `slow_closed`
    /// past [`ServerConfig::wbuf_cap`]). A connection idle at a frame
    /// boundary with nothing owed is never disconnected, and the
    /// mid-frame clock is held while the server itself has paused
    /// reading to flush what it owes the peer.
    pub peer_timeout: Duration,
    /// Per-connection cap on buffered response bytes. A connection
    /// whose write backlog reaches the cap stops being parsed *and*
    /// read (backpressure through TCP); if it then makes no write
    /// progress for [`ServerConfig::peer_timeout`] it is force-closed
    /// and counted as `slow_closed`. Responses already dispatched may
    /// overshoot the cap by at most a pipeline's worth of frames.
    pub wbuf_cap: usize,
    /// Global byte budget for connection buffers, sequenced responses,
    /// and the distance cache's static reservation (0 = unlimited).
    /// Past the budget every connection's read interest is paused until
    /// flushed responses free memory — backpressure, never OOM. The
    /// cache is clamped so its reservation never exceeds half the
    /// budget.
    pub mem_budget: usize,
    /// Most concurrently open connections (0 = unlimited). Beyond the
    /// cap a new peer is answered with one typed BUSY frame at the door
    /// and closed instead of being adopted by a shard.
    pub max_connections: usize,
    /// Drain window after shutdown is requested: in-flight requests may
    /// finish within it, then the force-stop flag aborts the rest.
    pub grace: Duration,
    /// Fault-injection hook for chaos tests (None in production).
    pub fault: Option<Arc<FaultInjector>>,
    /// Programmatic reload source: invoked by the reloader to build the
    /// replacement engine (tests and embedders; the CLI uses
    /// [`ServerConfig::reload_file`]).
    pub reload_factory: Option<ReloadFactory>,
    /// Watched reload file (see [`ReloadSpec`]): a content change
    /// triggers a reload, and `RELOAD` frames / `SIGHUP` rebuild from
    /// its current contents.
    pub reload_file: Option<PathBuf>,
    /// Continuous oracle auditing (None disables the auditor thread).
    pub audit: Option<AuditConfig>,
    /// Worker panics tolerated within [`RESTART_WINDOW`] before the
    /// worker retires.
    pub restart_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
                .max(2),
            shards: 0,
            pipeline_depth: 32,
            cache_capacity: 1 << 16,
            cache_shards: 16,
            max_pending: 64,
            peer_timeout: Duration::from_secs(2),
            wbuf_cap: 4 << 20,
            mem_budget: 0,
            max_connections: 0,
            grace: Duration::from_secs(3),
            fault: None,
            reload_factory: None,
            reload_file: None,
            audit: None,
            restart_cap: 5,
        }
    }
}

/// Process-wide flag flipped by SIGTERM/SIGINT (see
/// [`install_signal_handlers`]); polled alongside each server's own
/// shutdown flag.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// Process-wide flag flipped by SIGHUP: the operator's "reload your
/// indexes" signal, consumed by the reloader thread.
static SIGHUP_RELOAD: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    SIGNALLED.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
extern "C" fn on_sighup(_signum: i32) {
    SIGHUP_RELOAD.store(true, Ordering::SeqCst);
}

/// Installs SIGTERM and SIGINT handlers that request a graceful
/// shutdown of every server in the process, and a SIGHUP handler that
/// requests an index reload. No-op off Unix.
pub fn install_signal_handlers() {
    #[cfg(unix)]
    {
        // libc is always linked on Unix; declaring `signal` directly
        // avoids a dependency for three syscalls.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGHUP: i32 = 1;
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGHUP, on_sighup as extern "C" fn(i32) as usize);
        }
    }
}

/// Whether a delivered signal has requested shutdown.
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::SeqCst)
}

/// Consumes a pending SIGHUP reload request, if any.
pub fn take_sighup() -> bool {
    SIGHUP_RELOAD.swap(false, Ordering::SeqCst)
}

/// One decoded request travelling from a shard to a worker.
struct WorkItem {
    /// Index of the shard that owns the connection.
    shard: usize,
    /// Generation-tagged connection token within that shard.
    token: u64,
    /// Position of this request in its connection's response order.
    seq: u64,
    /// The frame as the shard decoded it.
    request: Decoded,
    /// The injected fault, drawn by the shard when it parsed the frame.
    action: FaultAction,
    /// The shard already consulted the distance cache and counted the
    /// miss; the worker must not look (or count) again.
    cache_missed: bool,
}

/// Messages into a shard's ingress queue.
enum ShardMsg {
    /// A freshly accepted connection to adopt.
    Conn(TcpStream),
    /// A finished request for one of this shard's connections: its
    /// response payload, or why the connection must close without one
    /// (an injected drop, or a panic that killed the request).
    Done {
        token: u64,
        seq: u64,
        completion: Result<Vec<u8>, CloseReason>,
    },
}

/// The cross-thread face of a shard: a locked ingress queue plus the
/// eventfd that pulls the shard out of `epoll_wait`.
struct ShardHandle {
    ingress: Mutex<VecDeque<ShardMsg>>,
    waker: Waker,
}

impl ShardHandle {
    fn new() -> io::Result<ShardHandle> {
        Ok(ShardHandle {
            ingress: Mutex::new(VecDeque::new()),
            waker: Waker::new()?,
        })
    }

    /// Queues `msg`, writing the eventfd only when the queue goes from
    /// empty to non-empty: whoever finds it non-empty knows an earlier
    /// sender's wake is still ahead of the shard's next
    /// [`ShardHandle::take_into`], which will collect both messages.
    fn send(&self, msg: ShardMsg) {
        let was_empty = {
            let mut q = lock_unpoisoned(&self.ingress);
            let was_empty = q.is_empty();
            q.push_back(msg);
            was_empty
        };
        if was_empty {
            self.waker.wake();
        }
    }

    /// The shard's side: consumes pending wakes, then swaps everything
    /// queued into `inbox` (which must be empty). Returns the wakes
    /// consumed. Draining *before* taking is what makes the coalescing
    /// in [`ShardHandle::send`] safe: a sender that finds the queue
    /// empty after this take writes a wake this drain cannot have
    /// eaten.
    fn take_into(&self, inbox: &mut VecDeque<ShardMsg>) -> u64 {
        debug_assert!(inbox.is_empty());
        let wakes = self.waker.drain();
        std::mem::swap(&mut *lock_unpoisoned(&self.ingress), inbox);
        wakes
    }
}

/// The bounded queue of decoded requests awaiting a worker.
struct WorkQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    cap: usize,
}

struct QueueState {
    items: VecDeque<WorkItem>,
    /// Workers currently blocked in [`WorkQueue::pop`].
    parked: usize,
}

impl WorkQueue {
    fn new(cap: usize) -> Self {
        WorkQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                parked: 0,
            }),
            cv: Condvar::new(),
            cap: cap.max(1),
        }
    }

    /// Moves as many of `batch`'s items as fit under the high-water
    /// mark into the queue, in order and under one lock; what is left
    /// in `batch` is the caller's to shed with BUSY. Signals only
    /// workers that are actually parked (one per queued item, at most)
    /// and returns how many that was.
    fn push_batch(&self, batch: &mut Vec<WorkItem>) -> usize {
        let wake = {
            let mut st = lock_unpoisoned(&self.state);
            let room = self.cap.saturating_sub(st.items.len()).min(batch.len());
            st.items.extend(batch.drain(..room));
            room.min(st.parked)
        };
        for _ in 0..wake {
            self.cv.notify_one();
        }
        wake
    }

    fn pop(&self, timeout: Duration) -> Option<WorkItem> {
        let mut st = lock_unpoisoned(&self.state);
        if let Some(item) = st.items.pop_front() {
            return Some(item);
        }
        st.parked += 1;
        let (mut st, _timed_out) = self
            .cv
            .wait_timeout(st, timeout)
            .unwrap_or_else(|e| e.into_inner());
        st.parked -= 1;
        st.items.pop_front()
    }

    fn is_empty(&self) -> bool {
        lock_unpoisoned(&self.state).items.is_empty()
    }
}

/// A running server. Dropping it without [`Server::join`] detaches the
/// threads; the intended lifecycle is `start` → (traffic) →
/// `request_shutdown` (or SIGTERM / a SHUTDOWN frame) → `join`.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    force_stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    monitor: Option<JoinHandle<()>>,
    reloader: Option<JoinHandle<()>>,
    auditor: Option<JoinHandle<()>>,
    shards: Vec<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<EpochRegistry>,
    stats: Arc<ServerStats>,
    cache: Arc<DistanceCache>,
}

impl Server {
    /// Binds and starts accepting. The engine should already be
    /// self-checked (see [`Engine::self_check`]); engines published
    /// later by reloads are self-checked by the reloader before they
    /// serve.
    pub fn start(engine: Arc<Engine>, cfg: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let force_stop = Arc::new(AtomicBool::new(false));
        // Stats are sized by wire id, not by this engine's backend
        // count: a reload may publish an engine with a different set.
        let stats = Arc::new(ServerStats::new(WIRE_SLOTS));
        // Under a memory budget the distance cache is clamped so its
        // static reservation never eats more than half the budget; the
        // reservation is charged up front so `mem_used` reflects the
        // worst case, not the warm-up state.
        let mut cache_capacity = cfg.cache_capacity;
        if cfg.mem_budget > 0 {
            cache_capacity =
                cache_capacity.min((cfg.mem_budget / 2) / crate::cache::APPROX_ENTRY_BYTES);
        }
        let cache = Arc::new(DistanceCache::new(cache_capacity, cfg.cache_shards));
        stats
            .mem_budget
            .store(cfg.mem_budget as u64, Ordering::Relaxed);
        stats.mem_used.store(
            (cache_capacity * crate::cache::APPROX_ENTRY_BYTES) as u64,
            Ordering::Relaxed,
        );
        let registry = Arc::new(EpochRegistry::new(engine));
        let active = Arc::new(AtomicUsize::new(cfg.workers.max(1)));
        let has_reload_source = cfg.reload_factory.is_some() || cfg.reload_file.is_some();

        let num_shards = if cfg.shards == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get() / 4)
                .unwrap_or(1)
                .clamp(1, 4)
        } else {
            cfg.shards
        };
        stats.shards.store(num_shards as u64, Ordering::Relaxed);

        let handles: Arc<Vec<ShardHandle>> = Arc::new(
            (0..num_shards)
                .map(|_| ShardHandle::new())
                .collect::<io::Result<Vec<_>>>()?,
        );
        let work = Arc::new(WorkQueue::new(cfg.max_pending));
        let exec_ctx = Arc::new(ExecCtx {
            shutdown: Arc::clone(&shutdown),
            force_stop: Arc::clone(&force_stop),
            stats: Arc::clone(&stats),
            cache: Arc::clone(&cache),
            registry: Arc::clone(&registry),
            has_reload_source,
            failover: cfg.audit.as_ref().map_or(true, |a| a.failover),
        });

        let mut shard_threads = Vec::with_capacity(num_shards);
        for shard_id in 0..num_shards {
            let ctx = ShardCtx {
                id: shard_id,
                work: Arc::clone(&work),
                fault: cfg.fault.clone(),
                shutdown: Arc::clone(&shutdown),
                force_stop: Arc::clone(&force_stop),
                stats: Arc::clone(&stats),
                limits: Limits {
                    max_frame: protocol::MAX_FRAME,
                    rbuf_cap: RBUF_CAP,
                    pipeline_depth: cfg.pipeline_depth.max(1),
                    wbuf_cap: cfg.wbuf_cap.max(4096),
                    peer_timeout: cfg.peer_timeout,
                },
                mem_budget: cfg.mem_budget,
            };
            let handles = Arc::clone(&handles);
            let exec_ctx = Arc::clone(&exec_ctx);
            shard_threads.push(std::thread::spawn(move || match Shard::new(handles, ctx) {
                Ok(mut shard) => shard.run(&exec_ctx),
                Err(e) => eprintln!("[shard {shard_id}] failed to start epoll: {e}"),
            }));
        }

        let restart_cap = cfg.restart_cap.max(1);
        let mut workers = Vec::with_capacity(cfg.workers);
        for worker_id in 0..cfg.workers.max(1) {
            let work = Arc::clone(&work);
            let handles = Arc::clone(&handles);
            let active = Arc::clone(&active);
            let ctx = Arc::clone(&exec_ctx);
            workers.push(std::thread::spawn(move || {
                worker_loop(&work, &handles, &ctx, restart_cap, worker_id);
                // The last worker to leave — retirement or shutdown —
                // turns the lights off, so a fully retired pool shuts
                // the server down instead of leaving a zombie acceptor.
                if active.fetch_sub(1, Ordering::SeqCst) == 1 {
                    ctx.shutdown.store(true, Ordering::SeqCst);
                }
            }));
        }

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let stats = Arc::clone(&stats);
            let handles = Arc::clone(&handles);
            let fault = cfg.fault.clone();
            let max_connections = cfg.max_connections;
            std::thread::spawn(move || {
                accept_loop(
                    listener,
                    &handles,
                    &shutdown,
                    &stats,
                    fault.as_deref(),
                    max_connections,
                )
            })
        };

        // The grace monitor: once shutdown is requested, give in-flight
        // work `grace` to drain, then trip every budget's kill flag.
        let monitor = {
            let shutdown = Arc::clone(&shutdown);
            let force_stop = Arc::clone(&force_stop);
            let active = Arc::clone(&active);
            let grace = cfg.grace;
            std::thread::spawn(move || {
                while !stopping(&shutdown) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                let deadline = Instant::now() + grace;
                while Instant::now() < deadline && active.load(Ordering::SeqCst) > 0 {
                    std::thread::sleep(Duration::from_millis(5));
                }
                force_stop.store(true, Ordering::SeqCst);
            })
        };

        let reloader = has_reload_source.then(|| {
            let reloader = Reloader {
                registry: Arc::clone(&registry),
                cache: Arc::clone(&cache),
                stats: Arc::clone(&stats),
                factory: cfg.reload_factory.clone(),
                reload_file: cfg.reload_file.clone(),
                shutdown: Arc::clone(&shutdown),
            };
            std::thread::spawn(move || reloader.run())
        });

        let auditor = cfg.audit.clone().map(|audit_cfg| {
            let registry = Arc::clone(&registry);
            let cache = Arc::clone(&cache);
            let stats = Arc::clone(&stats);
            let shutdown = Arc::clone(&shutdown);
            let force_stop = Arc::clone(&force_stop);
            std::thread::spawn(move || {
                audit::auditor_loop(
                    &registry,
                    &cache,
                    &stats,
                    &audit_cfg,
                    &shutdown,
                    &force_stop,
                )
            })
        });

        Ok(Server {
            addr,
            shutdown,
            force_stop,
            acceptor: Some(acceptor),
            monitor: Some(monitor),
            reloader,
            auditor,
            shards: shard_threads,
            workers,
            registry,
            stats,
            cache,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The epoch registry (tests inspect and trigger swaps through it).
    pub fn registry(&self) -> &Arc<EpochRegistry> {
        &self.registry
    }

    /// Requests a graceful shutdown (idempotent): stop accepting, drain
    /// in-flight work within the configured grace, then force-close.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested (by any path).
    pub fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signalled()
    }

    /// Whether the post-grace force-stop has fired.
    pub fn force_stopped(&self) -> bool {
        self.force_stop.load(Ordering::SeqCst)
    }

    /// Renders the current observability snapshot.
    pub fn stats_text(&self) -> String {
        render_status(&self.registry.current(), &self.stats, &self.cache)
    }

    /// Waits for every thread to finish (requires shutdown to have been
    /// requested via flag, frame, or signal) and returns the final
    /// stats dump.
    pub fn join(mut self) -> String {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for s in self.shards.drain(..) {
            let _ = s.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(monitor) = self.monitor.take() {
            let _ = monitor.join();
        }
        if let Some(reloader) = self.reloader.take() {
            let _ = reloader.join();
        }
        if let Some(auditor) = self.auditor.take() {
            let _ = auditor.join();
        }
        self.stats_text()
    }
}

fn stopping(flag: &AtomicBool) -> bool {
    flag.load(Ordering::SeqCst) || signalled()
}

/// The reloader thread: waits for a trigger (RELOAD frame, SIGHUP, or
/// a content change to the watched reload file), builds and
/// self-checks the replacement engine, and publishes it as a new
/// epoch. Failure publishes nothing; the old epoch keeps serving.
struct Reloader {
    registry: Arc<EpochRegistry>,
    cache: Arc<DistanceCache>,
    stats: Arc<ServerStats>,
    factory: Option<ReloadFactory>,
    reload_file: Option<PathBuf>,
    shutdown: Arc<AtomicBool>,
}

impl Reloader {
    fn run(&self) {
        // The file's startup contents are the baseline: only a *change*
        // triggers, so restarting the server next to an existing reload
        // file does not immediately rebuild.
        let mut baseline: Option<Vec<u8>> = self
            .reload_file
            .as_ref()
            .and_then(|p| std::fs::read(p).ok());
        let mut next_file_check = Instant::now() + RELOAD_POLL;
        loop {
            if stopping(&self.shutdown) {
                return;
            }
            let mut triggered = self.registry.take_request();
            if take_sighup() {
                triggered = true;
            }
            if !triggered && Instant::now() >= next_file_check {
                next_file_check = Instant::now() + RELOAD_POLL;
                if let Some(path) = &self.reload_file {
                    if let Ok(bytes) = std::fs::read(path) {
                        if baseline.as_deref() != Some(&bytes[..]) {
                            baseline = Some(bytes);
                            triggered = true;
                        }
                    }
                }
            }
            if !triggered {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let outcome = self.perform();
            match &outcome {
                Ok(epoch) => {
                    self.stats.reloads_ok.fetch_add(1, Ordering::Relaxed);
                    self.stats.clear_reload_error();
                    eprintln!("[reload] epoch {epoch} published");
                }
                Err(reason) => {
                    self.stats.reloads_failed.fetch_add(1, Ordering::Relaxed);
                    self.stats.set_reload_error(reason.clone());
                    eprintln!("[reload] FAILED (old epoch keeps serving): {reason}");
                }
            }
            self.registry.complete(outcome);
        }
    }

    /// One reload attempt: build → self-check → publish → purge stale
    /// cache epochs. Every step before `publish` leaves serving state
    /// untouched.
    fn perform(&self) -> Result<u64, String> {
        let current = self.registry.current();
        let engine: Arc<Engine> = if let Some(factory) = &self.factory {
            (factory.0)()?
        } else if let Some(path) = &self.reload_file {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let spec = ReloadSpec::parse(&text)?;
            spec.build(&current.engine)?
        } else {
            return Err("no reload source configured".into());
        };
        engine
            .self_check(SELFCHECK_QUERIES, SELFCHECK_SEED)
            .map_err(|e| format!("refusing to publish: {e}"))?;
        let epoch = self.registry.publish(engine);
        let purged = self.cache.purge_stale_epochs(epoch);
        if purged > 0 {
            eprintln!("[reload] purged {purged} cached answers from superseded epochs");
        }
        Ok(epoch)
    }
}

/// Answers a peer the server cannot adopt with one typed BUSY frame,
/// best-effort, then closes. The socket is switched to blocking with a
/// short write timeout so a dead peer cannot stall the acceptor.
fn shed_at_door(stream: TcpStream, msg: &str) {
    let payload = protocol::encode_busy(msg);
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&payload);
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(100)));
    let mut stream = stream;
    let _ = stream.write_all(&frame);
    // Dropping the stream closes it.
}

/// The BUSY message of a peer shed because accept ran out of fds.
const OUT_OF_FDS: &str = "server out of file descriptors; retry with exponential backoff";

/// Accept ran out of file descriptors, really or by injection: counts
/// it and sheds the waiting peer, if one could be drained, with a typed
/// BUSY.
fn shed_out_of_fds(stats: &ServerStats, stream: Option<TcpStream>) {
    stats.accept_emfile.fetch_add(1, Ordering::Relaxed);
    if let Some(stream) = stream {
        shed_at_door(stream, OUT_OF_FDS);
    }
}

/// Whether an `accept` error means the process (or system) is out of
/// file descriptors. EMFILE = 24, ENFILE = 23 on Linux.
fn fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(24) | Some(23))
}

fn accept_loop(
    listener: TcpListener,
    handles: &[ShardHandle],
    shutdown: &AtomicBool,
    stats: &ServerStats,
    fault: Option<&FaultInjector>,
    max_connections: usize,
) {
    let mut next = 0usize;
    // One reserved fd: when accept hits EMFILE, dropping this lets the
    // acceptor accept exactly one waiting peer, answer it with a typed
    // BUSY, and close — the peer learns "back off" instead of hanging
    // in the listen queue until its own timeout.
    let mut emergency = std::fs::File::open("/dev/null").ok();
    const BACKOFF_FLOOR: Duration = Duration::from_millis(10);
    const BACKOFF_CEIL: Duration = Duration::from_millis(500);
    let mut backoff = BACKOFF_FLOOR;
    while !stopping(shutdown) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                backoff = BACKOFF_FLOOR;
                stats.connections.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if fault.is_some_and(|f| f.on_accept()) {
                    // Injected fd exhaustion: behave exactly as if
                    // accept had returned EMFILE and the emergency-fd
                    // path had fired.
                    shed_out_of_fds(stats, Some(stream));
                    continue;
                }
                if max_connections > 0
                    && stats.open_connections.load(Ordering::Relaxed) >= max_connections as u64
                {
                    // Admission control: shed at the door instead of
                    // adopting a connection the budget cannot hold.
                    stats.accept_shed.fetch_add(1, Ordering::Relaxed);
                    shed_at_door(stream, "connection limit reached; retry later");
                    continue;
                }
                // Round-robin: connection count is bounded by fds, not
                // by a queue — overload is shed per *request* at the
                // work queue, not per connection at the door.
                handles[next % handles.len()].send(ShardMsg::Conn(stream));
                next = next.wrapping_add(1);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                backoff = BACKOFF_FLOOR;
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) if fd_exhausted(&e) => {
                // Give back the reserved fd, drain one waiting peer
                // with a typed BUSY, then re-arm the reserve. If even
                // that fails the backoff alone bounds the spin.
                drop(emergency.take());
                let drained = listener.accept().ok().map(|(stream, _peer)| {
                    stats.connections.fetch_add(1, Ordering::Relaxed);
                    stream
                });
                shed_out_of_fds(stats, drained);
                emergency = std::fs::File::open("/dev/null").ok();
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(BACKOFF_CEIL);
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Dropping the listener makes new connections fail fast.
    drop(emergency);
}

/// Token under which every shard registers its own waker.
const WAKER_TOKEN: u64 = u64::MAX;

/// Immutable shard environment.
struct ShardCtx {
    /// This shard's index into the handle table.
    id: usize,
    /// Where requests the shard may not answer itself go.
    work: Arc<WorkQueue>,
    /// Fault-injection hook (tests only), consulted once per frame.
    fault: Option<Arc<FaultInjector>>,
    shutdown: Arc<AtomicBool>,
    force_stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    /// The rules every connection's [`Conn`] is held to.
    limits: Limits,
    /// Global byte budget (0 = unlimited); checked against
    /// `stats.mem_used`.
    mem_budget: usize,
}

/// A connection's socket beside its state machine.
struct Slot {
    stream: TcpStream,
    token: u64,
    conn: Conn,
}

/// The live connection behind `token` (generation, then slot index),
/// unless its slot was recycled.
fn slot_for<'a>(conns: &'a mut [Option<Slot>], gens: &[u32], token: u64) -> Option<&'a mut Slot> {
    let (gen, idx) = ((token >> 32) as u32, (token & 0xffff_ffff) as usize);
    conns.get_mut(idx)?.as_mut().filter(|_| gens[idx] == gen)
}

/// What one loop turn knows about the world, read once and passed down.
struct Turn {
    now: Instant,
    /// Shutdown was requested: no new work, close what has drained.
    stopping: bool,
    /// The force-stop linger ran out: close everything.
    force_expired: bool,
}

/// Routes the frames the core yields — at most `pipeline_depth` per
/// pass, so one connection cannot monopolise the shard: bounded point
/// requests are answered here (see [`crate::executor`]), straight into
/// the write queue; the rest go to the pool in one batch, shed with BUSY
/// past its cap. A request with an injected fault always takes the
/// pooled path, so delays never sleep on the event loop. A panic kills
/// this connection only, counts as a restart, and poisons the executor.
/// Returns whether a complete frame was held for the next loop turn.
fn dispatch(
    slot: &mut Slot,
    ctx: &ShardCtx,
    exec: &mut Executor<'_>,
    batch: &mut Vec<WorkItem>,
    now: Instant,
) -> bool {
    let (conn, stats, depth) = (&mut slot.conn, &ctx.stats, ctx.limits.pipeline_depth);
    let (mut parsed, mut pipelined, mut inline) = (0usize, 0u64, 0u64);
    let mut held = false;
    // Double-buffer the pipeline window: half a window of inline
    // answers leaves while the other half is computed, so a peer that
    // keeps the window full can refill it during the pass instead of
    // waiting in lock-step for all of it.
    let flush_every = (depth as u64 / 2).max(1);
    loop {
        let may_start = parsed < depth && exec.usable();
        let (seq, request) = match conn.next_frame(&ctx.limits, may_start, now) {
            Next::Request(seq, p, payload) => {
                pipelined += p as u64;
                (seq, Request::decode(payload))
            }
            Next::Refused => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Next::Held => {
                held = true;
                break;
            }
            Next::Idle => break,
        };
        parsed += 1;
        let action = ctx
            .fault
            .as_ref()
            .map_or(FaultAction::NONE, |f| f.on_request());
        let cache_missed = if action == FaultAction::NONE {
            let mut outcome = Ok(Verdict::Done);
            conn.respond_with(seq, now, |out| {
                outcome = catch_unwind(AssertUnwindSafe(|| exec.execute(&request, false, out)));
                matches!(outcome, Ok(Verdict::Done))
            });
            match outcome {
                Ok(Verdict::Handoff { cache_missed }) => cache_missed,
                outcome => {
                    if outcome.is_err() {
                        stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
                        exec.poison();
                        conn.abort(CloseReason::Aborted);
                        eprintln!(
                            "[shard] recovered from a panic in an inline request; sessions rebuilt"
                        );
                    }
                    inline += 1;
                    if inline % flush_every == 0 {
                        conn.flush(now, |buf| (&slot.stream).write(buf));
                    }
                    continue;
                }
            }
        } else {
            false
        };
        batch.push(WorkItem {
            shard: ctx.id,
            token: slot.token,
            seq,
            request,
            action,
            cache_missed,
        });
    }
    if parsed > 0 {
        stats.requests.fetch_add(parsed as u64, Ordering::Relaxed);
        stats
            .pipelined_frames
            .fetch_add(pipelined, Ordering::Relaxed);
        stats.inline.fetch_add(inline, Ordering::Relaxed);
    }
    if !batch.is_empty() {
        let offered = batch.len();
        ctx.work.push_batch(batch);
        stats
            .handoff
            .fetch_add((offered - batch.len()) as u64, Ordering::Relaxed);
        // What did not fit is shed per request: the BUSY frame takes
        // the request's response slot so pipelined siblings stay
        // correctly ordered.
        stats.shed.fetch_add(batch.len() as u64, Ordering::Relaxed);
        for item in batch.drain(..) {
            let busy = protocol::encode_busy("server overloaded; retry with exponential backoff");
            conn.respond(item.seq, now, busy);
        }
    }
    held
}

/// One event-loop shard: the socket shell around its connections'
/// [`Conn`] cores. It moves their bytes, routes their frames, and keeps
/// epoll interest and the stats in step with what they report.
struct Shard {
    poller: Poller,
    handles: Arc<Vec<ShardHandle>>,
    ctx: ShardCtx,
    conns: Vec<Option<Slot>>,
    gens: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    /// Ingress messages being processed (kept for its allocation).
    inbox: VecDeque<ShardMsg>,
    /// Requests bound for the pool, pushed once per connection pass
    /// (kept for its allocation).
    batch: Vec<WorkItem>,
    /// Some connection still holds a complete frame it may act on: the
    /// next loop turn must not wait for the poll tick.
    turn_again: bool,
    /// When the force-stop flag was first observed (bounds the hard
    /// shutdown window).
    force_seen: Option<Instant>,
}

/// How long a shard keeps flushing after force-stop before it closes
/// whatever is left (covers responses produced by budgets tripping).
const FORCE_STOP_LINGER: Duration = Duration::from_millis(400);

impl Shard {
    fn new(handles: Arc<Vec<ShardHandle>>, ctx: ShardCtx) -> io::Result<Shard> {
        let poller = Poller::new(256)?;
        poller.add(handles[ctx.id].waker.raw_fd(), WAKER_TOKEN, false)?;
        Ok(Shard {
            poller,
            handles,
            ctx,
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
            open: 0,
            inbox: VecDeque::new(),
            batch: Vec::new(),
            turn_again: false,
            force_seen: None,
        })
    }

    /// Serves until shutdown, re-pinning the shard's executor whenever
    /// a reload publishes a new epoch or an inline request panicked.
    fn run(&mut self, exec_ctx: &ExecCtx) {
        run_pinned(exec_ctx, Role::Shard, |exec| self.serve(exec));
    }

    /// The event loop, for as long as `exec` stays usable.
    fn serve(&mut self, exec: &mut Executor<'_>) -> ControlFlow<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if !exec.usable() {
                return ControlFlow::Continue(());
            }
            events.clear();
            let timeout_ms = if std::mem::take(&mut self.turn_again) {
                0
            } else {
                25
            };
            let _ = self.poller.wait(&mut events, timeout_ms);
            let now = Instant::now();
            if self.ctx.force_stop.load(Ordering::SeqCst) {
                self.force_seen.get_or_insert(now);
            }
            let turn = Turn {
                now,
                stopping: stopping(&self.ctx.shutdown),
                force_expired: self
                    .force_seen
                    .is_some_and(|t0| now.duration_since(t0) >= FORCE_STOP_LINGER),
            };

            // Ingress: adopted connections and finished requests.
            let mut inbox = std::mem::take(&mut self.inbox);
            self.handles[self.ctx.id].take_into(&mut inbox);
            for msg in inbox.drain(..) {
                match msg {
                    ShardMsg::Conn(stream) => self.register(stream, &turn),
                    ShardMsg::Done {
                        token,
                        seq,
                        completion,
                    } => {
                        // None: the connection died while this ran.
                        let Some(slot) = slot_for(&mut self.conns, &self.gens, token) else {
                            continue;
                        };
                        match completion {
                            Ok(payload) => slot.conn.respond(seq, now, payload),
                            Err(reason) => slot.conn.abort(reason),
                        }
                    }
                }
            }
            self.inbox = inbox;

            // Readiness: pull bytes in, note hangups; all the actual
            // frame work happens in the service pass below.
            for ev in &events {
                if ev.token == WAKER_TOKEN {
                    continue;
                }
                let Some(slot) = slot_for(&mut self.conns, &self.gens, ev.token) else {
                    continue; // stale event for a recycled slot
                };
                if ev.hangup {
                    slot.conn.abort(CloseReason::Broken);
                } else if ev.readable {
                    slot.conn
                        .fill(&self.ctx.limits, |buf| (&slot.stream).read(buf));
                }
            }

            // Service pass: parse, answer or dispatch, flush, settle,
            // reap.
            for idx in 0..self.conns.len() {
                self.service(idx, exec, &turn);
            }

            if turn.stopping && self.open == 0 {
                // Graceful exit: nothing left to serve. (Force-stop
                // funnels here too once the linger window closes every
                // remaining connection.)
                return ControlFlow::Break(());
            }
        }
    }

    fn register(&mut self, stream: TcpStream, turn: &Turn) {
        if turn.stopping || stream.set_nonblocking(true).is_err() {
            return; // refused at the edge: dropping the stream closes it
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let token = ((self.gens[idx] as u64) << 32) | idx as u64;
        if self.poller.add(stream.as_raw_fd(), token, false).is_err() {
            self.free.push(idx);
            return;
        }
        let stats = &self.ctx.stats;
        stats.open_connections.fetch_add(1, Ordering::Relaxed);
        self.open += 1;
        self.conns[idx] = Some(Slot {
            stream,
            token,
            conn: Conn::default(),
        });
    }

    /// One connection's service step: everything its core asks for
    /// this turn, and its close if the core decides so.
    fn service(&mut self, idx: usize, exec: &mut Executor<'_>, turn: &Turn) {
        let Some(slot) = self.conns[idx].as_mut() else {
            return;
        };
        let (ctx, stats) = (&self.ctx, &self.ctx.stats);
        // Once shutdown is requested no new work is started; buffered
        // bytes of unparsed frames are simply dropped at close.
        if !turn.stopping {
            self.turn_again |= dispatch(slot, ctx, exec, &mut self.batch, turn.now);
        }
        slot.conn.flush(turn.now, |buf| (&slot.stream).write(buf));
        let want = slot.conn.settle(&ctx.limits, |delta| {
            // Two's complement: adding a negative delta subtracts it.
            let delta = delta as u64;
            let used = stats.mem_used.fetch_add(delta, Ordering::Relaxed);
            ctx.mem_budget > 0 && used.wrapping_add(delta) > ctx.mem_budget as u64
        });
        let wpending = slot.conn.wpending() as u64;
        if wpending > stats.wbuf_peak.load(Ordering::Relaxed) {
            stats.wbuf_peak.fetch_max(wpending, Ordering::Relaxed);
        }
        if let Some(Interest { read, write }) = want {
            let fd = slot.stream.as_raw_fd();
            if self.poller.modify(fd, slot.token, read, write).is_err() {
                slot.conn.abort(CloseReason::Broken);
            }
        }
        let Some(reason) = slot
            .conn
            .reap(turn.now, &ctx.limits, turn.stopping, turn.force_expired)
        else {
            return;
        };
        let counter = match reason {
            CloseReason::StalledMidFrame | CloseReason::StoppedReading => &stats.client_timeouts,
            CloseReason::SlowReader => &stats.slow_closed,
            _ => return self.close(idx),
        };
        counter.fetch_add(1, Ordering::Relaxed);
        self.close(idx);
    }

    fn close(&mut self, idx: usize) {
        let stats = &self.ctx.stats;
        let slot = self.conns[idx].take().expect("serviced above");
        let _ = self.poller.delete(slot.stream.as_raw_fd());
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.open -= 1;
        stats.open_connections.fetch_sub(1, Ordering::Relaxed);
        // Refund whatever the core last charged; closing a hoarding
        // connection is what frees budget under pressure.
        stats
            .mem_used
            .fetch_sub(slot.conn.release() as u64, Ordering::Relaxed);
    }
}

fn worker_loop(
    work: &WorkQueue,
    handles: &[ShardHandle],
    ctx: &ExecCtx,
    restart_cap: usize,
    worker_id: usize,
) {
    // Panic timestamps within the restart window (the supervision cap).
    let mut panics: Vec<Instant> = Vec::new();
    // A request carried across a re-pin, answered first thing by the
    // fresh executor — never dropped.
    let mut carry: Option<WorkItem> = None;
    run_pinned(ctx, Role::Worker, |exec| loop {
        let item = match carry.take() {
            Some(item) => item,
            None => match work.pop(Duration::from_millis(50)) {
                Some(item) => item,
                None => {
                    if stopping(&ctx.shutdown) && work.is_empty() {
                        return ControlFlow::Break(()); // drained: queued requests were answered first
                    }
                    if !exec.usable() {
                        return ControlFlow::Continue(());
                    }
                    continue;
                }
            },
        };
        if !exec.usable() {
            carry = Some(item);
            return ControlFlow::Continue(());
        }
        if let Some(delay) = item.action.delay {
            std::thread::sleep(delay);
        }
        // The supervision shell: a panic inside the request path —
        // injected by the chaos suite or a real backend defect — kills
        // only this request's connection. The worker records it,
        // rebuilds its sessions (the panicking one may be mid-query
        // garbage), and keeps serving.
        let mut response = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if item.action.panic {
                // Stands in for a defect in a backend's query code.
                panic!("injected fault: panic while serving a request");
            }
            exec.execute(&item.request, item.cache_missed, &mut response)
        }));
        debug_assert!(!matches!(outcome, Ok(Verdict::Handoff { .. })));
        let completion = match outcome {
            // Injected mid-request connection loss: the query ran (and
            // possibly warmed the cache), but the peer never hears back.
            Ok(_) if item.action.drop_connection => Err(CloseReason::Aborted),
            Ok(_) => Ok(response),
            Err(_) => Err(CloseReason::Aborted),
        };
        handles[item.shard].send(ShardMsg::Done {
            token: item.token,
            seq: item.seq,
            completion,
        });
        if outcome.is_err() {
            ctx.stats.worker_restarts.fetch_add(1, Ordering::Relaxed);
            let now = Instant::now();
            panics.retain(|&at| now.duration_since(at) <= RESTART_WINDOW);
            panics.push(now);
            if panics.len() >= restart_cap {
                eprintln!(
                    "[worker {worker_id}] RETIRED: {} panics within {:?} (cap {})",
                    panics.len(),
                    RESTART_WINDOW,
                    restart_cap
                );
                return ControlFlow::Break(());
            }
            eprintln!(
                "[worker {worker_id}] recovered from a panic; sessions rebuilt \
                 ({}/{} within {:?})",
                panics.len(),
                restart_cap,
                RESTART_WINDOW
            );
            return ControlFlow::Continue(());
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn done(seq: u64) -> ShardMsg {
        ShardMsg::Done {
            token: 0,
            seq,
            completion: Err(CloseReason::Aborted),
        }
    }

    fn seqs(inbox: &mut VecDeque<ShardMsg>) -> Vec<u64> {
        inbox
            .drain(..)
            .map(|msg| match msg {
                ShardMsg::Done { seq, .. } => seq,
                ShardMsg::Conn(_) => panic!("no connections were sent"),
            })
            .collect()
    }

    fn item(seq: u64) -> WorkItem {
        WorkItem {
            shard: 0,
            token: 0,
            seq,
            request: Ok(Request::Ping),
            action: FaultAction::NONE,
            cache_missed: false,
        }
    }

    #[test]
    fn completions_sent_while_the_shard_is_busy_share_one_wake() {
        let handle = ShardHandle::new().unwrap();
        let mut inbox = VecDeque::new();
        assert_eq!(handle.take_into(&mut inbox), 0, "nothing sent, no wake");
        // The shard is off in a service pass: N completions pile up.
        for seq in 0..100 {
            handle.send(done(seq));
        }
        assert_eq!(
            handle.take_into(&mut inbox),
            1,
            "100 sends, one eventfd write"
        );
        assert_eq!(seqs(&mut inbox), (0..100).collect::<Vec<_>>());
        // The queue is empty again, so the next send must wake again.
        handle.send(done(100));
        assert_eq!(handle.take_into(&mut inbox), 1);
        assert_eq!(seqs(&mut inbox), [100]);
        // A send landing between the shard's drain and its take finds
        // the queue non-empty, writes no wake of its own, and is
        // collected by that very take.
        handle.send(done(101));
        assert_eq!(handle.waker.drain(), 1);
        handle.send(done(102));
        assert_eq!(handle.take_into(&mut inbox), 0);
        assert_eq!(seqs(&mut inbox), [101, 102]);
    }

    #[test]
    fn no_completion_is_stranded_while_the_shard_sleeps_between_takes() {
        // A real poller with a timeout far beyond the test's patience:
        // the consumer only ever makes progress when a wake arrives, so
        // a stranded message (queued, never signalled) hangs the loop
        // until the assert on elapsed time fails it.
        const TOTAL: u64 = 20_000;
        let handle = Arc::new(ShardHandle::new().unwrap());
        let mut poller = Poller::new(4).unwrap();
        poller
            .add(handle.waker.raw_fd(), WAKER_TOKEN, false)
            .unwrap();
        let producer = {
            let handle = Arc::clone(&handle);
            std::thread::spawn(move || {
                for seq in 0..TOTAL {
                    handle.send(done(seq));
                    if seq % 64 == 0 {
                        std::thread::yield_now();
                    }
                }
            })
        };
        let start = Instant::now();
        let (mut inbox, mut events) = (VecDeque::new(), Vec::new());
        let (mut received, mut wakes) = (Vec::new(), 0);
        while (received.len() as u64) < TOTAL {
            events.clear();
            poller.wait(&mut events, 10_000).unwrap();
            assert!(
                start.elapsed() < Duration::from_secs(8),
                "a completion was stranded: {} of {TOTAL} delivered",
                received.len()
            );
            wakes += handle.take_into(&mut inbox);
            received.extend(seqs(&mut inbox));
        }
        producer.join().unwrap();
        assert_eq!(
            received,
            (0..TOTAL).collect::<Vec<_>>(),
            "in order, exactly once"
        );
        assert!(wakes <= TOTAL, "never more than one wake per message");
    }

    #[test]
    fn the_work_queue_sheds_past_its_cap_and_signals_only_parked_workers() {
        let queue = Arc::new(WorkQueue::new(3));
        // Nobody is parked: a push signals no one.
        let mut batch: Vec<WorkItem> = (0..5).map(item).collect();
        assert_eq!(queue.push_batch(&mut batch), 0);
        let shed: Vec<u64> = batch.drain(..).map(|i| i.seq).collect();
        assert_eq!(shed, [3, 4], "the overflow stays with the caller, in order");
        for seq in 0..3 {
            assert_eq!(queue.pop(Duration::ZERO).map(|i| i.seq), Some(seq));
        }
        assert!(queue.is_empty());

        // One worker parks; one push of two items signals exactly it.
        let worker = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop(Duration::from_secs(10)).map(|i| i.seq))
        };
        while lock_unpoisoned(&queue.state).parked == 0 {
            std::thread::yield_now();
        }
        let mut batch: Vec<WorkItem> = (10..12).map(item).collect();
        assert_eq!(queue.push_batch(&mut batch), 1);
        assert!(batch.is_empty());
        assert_eq!(worker.join().unwrap(), Some(10));
        assert_eq!(lock_unpoisoned(&queue.state).parked, 0);
        assert_eq!(queue.pop(Duration::ZERO).map(|i| i.seq), Some(11));
    }
}
