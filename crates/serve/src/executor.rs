//! The request executor: one pinned epoch, one set of query sessions,
//! and the per-request logic — driven by two callers.
//!
//! * A **worker** ([`Role::Worker`]) owns a session for every backend
//!   of the pinned epoch plus the index-free Dijkstra end of the
//!   quarantine failover chain, and executes whatever it pops from the
//!   work queue.
//! * A **shard** ([`Role::Shard`]) owns sessions only for backends
//!   whose distance query is a pure lookup
//!   ([`Backend::point_lookup`]) and executes *bounded-cost* requests
//!   right where it parsed them: `PING`, any `DISTANCE` the cache
//!   answers, and `DISTANCE` misses on a lookup backend. For everything
//!   else [`Executor::execute`] returns [`Verdict::Handoff`] before
//!   doing any work, and the shard sends the decoded request to the
//!   pool. The rule is a property of the request and of the backend
//!   serving it — never of load, timing or configuration.
//!
//! The epoch pin ("re-pin before every request once the registry's
//! epoch moved"), session construction, quarantine resolution, cache
//! accounting and stats recording live here once; [`run_pinned`] is the
//! only place an executor is built.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Baseline;
use spq_graph::backend::{Backend, PoiRef, QueryBudget, Session};
use spq_graph::types::{Dist, NodeId};

use crate::cache::DistanceCache;
use crate::epoch::{EpochRegistry, EpochState};
use crate::protocol::{self, Request};
use crate::stats::{wire_slot, Op, ServerStats, WIRE_NAMES};
use crate::BackendKind;

/// The worker-local end of the quarantine failover chain.
static BASELINE: Baseline = Baseline;

/// What every executor of one server shares.
pub(crate) struct ExecCtx {
    pub shutdown: Arc<AtomicBool>,
    pub force_stop: Arc<AtomicBool>,
    pub stats: Arc<ServerStats>,
    pub cache: Arc<DistanceCache>,
    pub registry: Arc<EpochRegistry>,
    pub reload_timeout: Duration,
    pub has_reload_source: bool,
    /// Whether quarantined wire ids fail over down the degradation
    /// chain (from the audit config; irrelevant without an auditor).
    pub failover: bool,
}

/// Who drives an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// An event-loop shard: bounded-cost requests only.
    Shard,
    /// A pool worker: everything.
    Worker,
}

/// A frame as the shard decoded it; the error is the message for the
/// ERROR response.
pub(crate) type Decoded = Result<Request, String>;

/// Outcome of [`Executor::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The response payload was appended to `out`.
    Done,
    /// Not bounded-cost (shard executors only): nothing was appended;
    /// the request must go to the pool.
    Handoff {
        /// The distance cache was already consulted — and the miss
        /// counted — so the worker must not look again.
        cache_missed: bool,
    },
}

/// An early exit out of the request path carries its verdict.
type Step<T = ()> = ControlFlow<Verdict, T>;

/// Reusable result buffers.
#[derive(Default)]
struct Scratch {
    batch: Vec<Option<Dist>>,
    entries: Vec<(NodeId, Dist)>,
}

/// One pinned epoch plus the sessions that answer from it.
pub(crate) struct Executor<'s> {
    ctx: &'s ExecCtx,
    state: &'s EpochState,
    role: Role,
    /// By engine position, then (workers only) the baseline session.
    /// `None` where this role never runs a query.
    sessions: Vec<Option<Box<dyn Session + 's>>>,
    /// The budget every query runs under: the server's force-stop flag,
    /// installed once, plus the current request's deadline.
    budget: QueryBudget,
    scratch: Scratch,
    /// A request panicked: the sessions may be mid-query garbage.
    poisoned: bool,
}

/// Runs `body` with an executor pinned to the current epoch, building a
/// fresh one — new pin, new sessions — every time `body` returns
/// `Continue`. Callers do so when [`Executor::usable`] turns false.
pub(crate) fn run_pinned<R>(
    ctx: &ExecCtx,
    role: Role,
    mut body: impl FnMut(&mut Executor<'_>) -> ControlFlow<R>,
) -> R {
    loop {
        // Sessions borrow this state's engine, so every query until
        // the next pin is answered by one consistent index set.
        let state = ctx.registry.current();
        let mut exec = Executor::new(ctx, &state, role);
        if let ControlFlow::Break(result) = body(&mut exec) {
            return result;
        }
    }
}

impl<'s> Executor<'s> {
    fn new(ctx: &'s ExecCtx, state: &'s EpochState, role: Role) -> Executor<'s> {
        let engine = &state.engine;
        let mut sessions: Vec<Option<Box<dyn Session + 's>>> = engine
            .backends()
            .iter()
            .map(|b| {
                (role == Role::Worker || b.backend.point_lookup())
                    .then(|| b.backend.session(engine.net()))
            })
            .collect();
        // Exists even when the engine serves no dijkstra slot.
        sessions.push((role == Role::Worker).then(|| BASELINE.session(engine.net())));
        Executor {
            ctx,
            state,
            role,
            sessions,
            budget: QueryBudget::unlimited().with_kill_flag(Arc::clone(&ctx.force_stop)),
            scratch: Scratch::default(),
            poisoned: false,
        }
    }

    /// Whether the next request may run here. False once a reload has
    /// published a newer epoch — a request arriving after a `RELOAD`
    /// acknowledgement must be answered by the new epoch — or after a
    /// panic. Checked by both callers before every request.
    pub(crate) fn usable(&self) -> bool {
        !self.poisoned && self.ctx.registry.epoch() == self.state.epoch
    }

    /// Marks the sessions as unusable after a caught panic.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Executes one request, appending the response payload to `out`.
    /// `cache_missed` is set on the pooled leg of a request the shard
    /// already looked up.
    pub(crate) fn execute(
        &mut self,
        request: &Decoded,
        cache_missed: bool,
        out: &mut Vec<u8>,
    ) -> Verdict {
        match self.run(request, cache_missed, out) {
            ControlFlow::Continue(()) => Verdict::Done,
            ControlFlow::Break(verdict) => verdict,
        }
    }

    /// Position of the baseline session.
    fn fallback(&self) -> usize {
        self.sessions.len() - 1
    }

    /// Points the shared budget at this request's deadline, installs
    /// it in the session at `pos`, and hands that session out together
    /// with the result buffers. Only reached with a position this role
    /// holds a session for.
    fn arm(&mut self, pos: usize, deadline_ms: u32) -> (&mut (dyn Session + 's), &mut Scratch) {
        self.budget.rearm(
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms as u64)),
        );
        let session = self.sessions[pos]
            .as_deref_mut()
            .expect("a worker holds a session for every position");
        session.set_budget(&self.budget);
        (session, &mut self.scratch)
    }

    /// Resolves which session position actually answers `backend`:
    /// normally the engine position behind the wire id (or its degraded
    /// alias), but a quarantined position fails over down the
    /// degradation chain — CH, then Dijkstra, then the worker-local
    /// baseline — or, with failover disabled, gets the typed
    /// `QUARANTINED` response. A shard resolves only healthy, served
    /// positions; the rest is the pool's.
    fn resolve_serving(&self, backend: u8, out: &mut Vec<u8>) -> Step<usize> {
        let (state, stats) = (self.state, &self.ctx.stats);
        let engine = &state.engine;
        let pos = engine.position_of_wire(backend);
        if let Some(pos) = pos.filter(|&pos| !state.is_quarantined(pos)) {
            return ControlFlow::Continue(pos);
        }
        if self.role == Role::Shard {
            return ControlFlow::Break(Verdict::Handoff {
                cache_missed: false,
            });
        }
        let Some(pos) = pos else {
            stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
            return refuse(
                out,
                protocol::encode_error(&format!("backend {backend} not served")),
            );
        };
        if !self.ctx.failover {
            return refuse(
                out,
                protocol::encode_quarantined(&format!(
                    "backend {backend} is quarantined by the oracle auditor and failover is disabled"
                )),
            );
        }
        let healthy = |kind: BackendKind| {
            engine
                .position_of_wire(kind.wire_id())
                .filter(|&p| p != pos && !state.is_quarantined(p))
        };
        let next = healthy(BackendKind::Ch)
            .or_else(|| healthy(BackendKind::Dijkstra))
            .unwrap_or(self.fallback());
        stats.quarantine_failovers.fetch_add(1, Ordering::Relaxed);
        ControlFlow::Continue(next)
    }

    fn check_range(&self, vs: impl IntoIterator<Item = NodeId>, out: &mut Vec<u8>) -> Step {
        let n = self.state.engine.net().num_nodes() as u32;
        if vs.into_iter().all(|v| v < n) {
            return ControlFlow::Continue(());
        }
        self.ctx
            .stats
            .protocol_errors
            .fetch_add(1, Ordering::Relaxed);
        refuse(
            out,
            protocol::encode_error(&format!("vertex out of range (network has {n} vertices)")),
        )
    }

    fn run(&mut self, request: &Decoded, cache_missed: bool, out: &mut Vec<u8>) -> Step {
        let ctx = self.ctx;
        let state = self.state;
        let stats = &ctx.stats;
        let request = match request {
            Ok(request) => request,
            Err(msg) => {
                stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                // Undecodable frames land in the shared op-indexed
                // tables (final wire slot, op "other") — the same
                // accounting path as every real query.
                stats.record(wire_slot(u8::MAX), Op::Other, 0, 0);
                return refuse(out, protocol::encode_error(msg));
            }
        };
        if self.role == Role::Shard && !matches!(request, Request::Ping | Request::Distance { .. })
        {
            return ControlFlow::Break(Verdict::Handoff {
                cache_missed: false,
            });
        }
        match *request {
            Request::Ping => protocol::put_text_response(out, "pong"),
            Request::Stats => put(
                out,
                protocol::encode_text_response(&render_status(state, stats, &ctx.cache)),
            ),
            Request::Shutdown => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                put(out, protocol::encode_empty_response());
            }
            Request::Reload => {
                let response = if !ctx.has_reload_source {
                    protocol::encode_reload_failed(
                        "no reload source configured (start with --reload-file or a reload factory)",
                    )
                } else {
                    // Blocks this worker until the attempt completes;
                    // the registry coalesces concurrent requests into
                    // one rebuild, and shutdown cancels the wait.
                    match ctx
                        .registry
                        .reload_and_wait(ctx.reload_timeout, &ctx.shutdown)
                    {
                        Ok(epoch) => protocol::encode_text_response(&format!("epoch={epoch}")),
                        Err(reason) => protocol::encode_reload_failed(&reason),
                    }
                };
                put(out, response);
            }
            Request::Distance {
                backend,
                s,
                t,
                deadline_ms,
            } => {
                let pos = self.resolve_serving(backend, out)?;
                self.check_range([s, t], out)?;
                let t0 = Instant::now();
                let cached = if cache_missed {
                    None
                } else {
                    ctx.cache.get(state.epoch, backend, s, t)
                };
                let d = match cached {
                    Some(d) => d,
                    None => {
                        if self.sessions[pos].is_none() {
                            // A shard in front of a search backend.
                            return ControlFlow::Break(Verdict::Handoff { cache_missed: true });
                        }
                        let (session, _) = self.arm(pos, deadline_ms);
                        let d = session.distance(s, t);
                        if session.interrupted() {
                            // An interrupted None is an abort, not an
                            // answer: never cache it, never report it
                            // as "unreachable".
                            return interrupted(ctx, out);
                        }
                        // Re-checked at insert time: if the auditor
                        // quarantined this position while the query
                        // ran, its answer must not outlive the purge.
                        if !state.is_quarantined(pos) {
                            ctx.cache.insert(state.epoch, backend, s, t, d);
                        }
                        d
                    }
                };
                stats.record(
                    wire_slot(backend),
                    Op::Distance,
                    t0.elapsed().as_nanos() as u64,
                    1,
                );
                protocol::put_distance_response(out, d);
            }
            Request::Path {
                backend,
                s,
                t,
                deadline_ms,
            } => {
                let pos = self.resolve_serving(backend, out)?;
                self.check_range([s, t], out)?;
                let t0 = Instant::now();
                let (session, _) = self.arm(pos, deadline_ms);
                let p = session.shortest_path(s, t);
                if session.interrupted() {
                    return interrupted(ctx, out);
                }
                stats.record(
                    wire_slot(backend),
                    Op::Path,
                    t0.elapsed().as_nanos() as u64,
                    1,
                );
                put(out, protocol::encode_path_response(p));
            }
            Request::Distances {
                backend,
                ref sources,
                ref targets,
                deadline_ms,
            } => {
                let pos = self.resolve_serving(backend, out)?;
                self.check_range(sources.iter().chain(targets).copied(), out)?;
                let t0 = Instant::now();
                let (session, scratch) = self.arm(pos, deadline_ms);
                session.distances(sources, targets, &mut scratch.batch);
                if session.interrupted() {
                    return interrupted(ctx, out);
                }
                let pairs = (sources.len() * targets.len()) as u64;
                stats.record(
                    wire_slot(backend),
                    Op::Batch,
                    t0.elapsed().as_nanos() as u64,
                    pairs,
                );
                put(
                    out,
                    protocol::encode_distances_response(&self.scratch.batch),
                );
            }
            Request::OneToMany {
                backend,
                s,
                ref targets,
                deadline_ms,
            } => {
                let pos = self.resolve_serving(backend, out)?;
                self.check_range([s].into_iter().chain(targets.iter().copied()), out)?;
                let t0 = Instant::now();
                let (session, scratch) = self.arm(pos, deadline_ms);
                session.one_to_many(s, targets, &mut scratch.batch);
                if session.interrupted() {
                    return interrupted(ctx, out);
                }
                stats.record(
                    wire_slot(backend),
                    Op::OneToMany,
                    t0.elapsed().as_nanos() as u64,
                    targets.len() as u64,
                );
                put(
                    out,
                    protocol::encode_distances_response(&self.scratch.batch),
                );
            }
            Request::Knn {
                backend,
                s,
                k,
                ref poi,
                deadline_ms,
            } => {
                let pos = self.resolve_serving(backend, out)?;
                self.check_range([s], out)?;
                // The epoch's registry resolves the name so every
                // session — including the index-free quarantine
                // fallback, which brute-forces over the set — answers
                // the same queries.
                let Some(entry) = state.engine.poi_set(poi) else {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return refuse(
                        out,
                        protocol::encode_error(&format!("unknown POI set '{poi}'")),
                    );
                };
                let poi_ref = PoiRef {
                    name: entry.set.name(),
                    nodes: entry.set.nodes(),
                };
                if (k as usize).min(entry.set.len()) > protocol::MAX_RESULT_ENTRIES {
                    stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return refuse(
                        out,
                        protocol::encode_error(&format!(
                            "kNN result of {k} entries exceeds the response limit"
                        )),
                    );
                }
                let t0 = Instant::now();
                let (session, scratch) = self.arm(pos, deadline_ms);
                session.knn(s, k as usize, poi_ref, &mut scratch.entries);
                if session.interrupted() {
                    return interrupted(ctx, out);
                }
                stats.record(
                    wire_slot(backend),
                    Op::Knn,
                    t0.elapsed().as_nanos() as u64,
                    self.scratch.entries.len() as u64,
                );
                put(
                    out,
                    protocol::encode_nodes_dists_response(&self.scratch.entries),
                );
            }
            Request::Range {
                backend,
                s,
                limit,
                deadline_ms,
            } => {
                let pos = self.resolve_serving(backend, out)?;
                self.check_range([s], out)?;
                let t0 = Instant::now();
                let (session, scratch) = self.arm(pos, deadline_ms);
                let supported = session.range(s, limit, &mut scratch.entries);
                if session.interrupted() {
                    return interrupted(ctx, out);
                }
                if !supported {
                    return refuse(
                        out,
                        protocol::encode_error(&format!(
                            "backend {backend} does not serve range queries"
                        )),
                    );
                }
                if self.scratch.entries.len() > protocol::MAX_RESULT_ENTRIES {
                    return refuse(
                        out,
                        protocol::encode_error(&format!(
                            "range result of {} vertices exceeds the response limit; lower the limit",
                            self.scratch.entries.len()
                        )),
                    );
                }
                stats.record(
                    wire_slot(backend),
                    Op::Range,
                    t0.elapsed().as_nanos() as u64,
                    self.scratch.entries.len() as u64,
                );
                put(
                    out,
                    protocol::encode_nodes_dists_response(&self.scratch.entries),
                );
            }
        }
        ControlFlow::Continue(())
    }
}

/// Appends an encoded payload to `out`. A worker's `out` starts empty,
/// so its payload is moved, not copied; a shard appending behind a
/// length prefix copies (small frames only ever take that path).
fn put(out: &mut Vec<u8>, payload: Vec<u8>) {
    if out.is_empty() {
        *out = payload;
    } else {
        out.extend_from_slice(&payload);
    }
}

/// Answers with a final payload and leaves the request path.
fn refuse<T>(out: &mut Vec<u8>, payload: Vec<u8>) -> Step<T> {
    put(out, payload);
    ControlFlow::Break(Verdict::Done)
}

/// The response for a budget-tripped query: force-stop wins (the
/// connection is about to die anyway), otherwise the deadline frame.
fn interrupted(ctx: &ExecCtx, out: &mut Vec<u8>) -> Step {
    if ctx.force_stop.load(Ordering::SeqCst) {
        ctx.stats.force_closed.fetch_add(1, Ordering::Relaxed);
        refuse(out, protocol::encode_error("server shutting down"))
    } else {
        ctx.stats.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
        refuse(
            out,
            protocol::encode_deadline_exceeded("deadline exceeded before the query finished"),
        )
    }
}

/// The STATS body: epoch, startup degradations, live quarantines, then
/// the counter tables.
pub(crate) fn render_status(
    state: &EpochState,
    stats: &ServerStats,
    cache: &DistanceCache,
) -> String {
    let mut text = format!("epoch: {}\n", state.epoch);
    for d in state.engine.degradations() {
        text.push_str(&format!(
            "degraded: {} -> {} ({})\n",
            d.requested.name(),
            d.served_by.name(),
            d.reason
        ));
    }
    for q in state.quarantine_lines() {
        text.push_str(&format!("quarantined: {q}\n"));
    }
    text.push_str(&stats.render(&WIRE_NAMES, &cache.stats()));
    text
}
