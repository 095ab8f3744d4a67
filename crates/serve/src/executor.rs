//! The request executor: one pinned epoch, one set of query sessions,
//! and the per-request logic — driven by two callers.
//!
//! * A **shard** ([`Role::Shard`]) executes *point* requests right
//!   where it parsed them: `PING`, any `DISTANCE` the cache answers,
//!   and `DISTANCE` misses and `PATH` on a backend whose point queries
//!   are bounded by its hierarchy's search space, never by n
//!   ([`Backend::bounded_point_queries`]: CH and hub labels) — under
//!   the same per-request budget a worker would install. For everything
//!   else — any other op, a quarantined or unserved slot, a miss or a
//!   `PATH` on a backend that searches the network —
//!   [`Executor::execute`] returns [`Verdict::Handoff`] before doing
//!   any work, and the shard sends the decoded request to the pool.
//!   The rule is a property of the request and of the backend serving
//!   it — never of load, timing or configuration.
//! * A **worker** ([`Role::Worker`]) executes whatever it pops from the
//!   work queue, on any backend of the pinned epoch and, at the end of
//!   the quarantine failover chain, on the index-free Dijkstra
//!   baseline.
//!
//! Either role builds a backend's session — its O(n) workspace — the
//! first time a request needs it, so a thread only ever pays for the
//! slots it actually answers on.
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

/// How long a `RELOAD` frame may wait for its attempt's outcome.
const RELOAD_TIMEOUT: Duration = Duration::from_secs(120);

/// What every executor of one server shares.
pub(crate) struct ExecCtx {
    pub shutdown: Arc<AtomicBool>,
    pub force_stop: Arc<AtomicBool>,
    pub stats: Arc<ServerStats>,
    pub cache: Arc<DistanceCache>,
    pub registry: Arc<EpochRegistry>,
    pub has_reload_source: bool,
    /// Whether quarantined wire ids fail over down the degradation
    /// chain (from the audit config; irrelevant without an auditor).
    pub failover: bool,
}

/// Who drives an executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// An event-loop shard: bounded point requests only.
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
    /// Not a bounded point request (shard executors only): nothing was
    /// appended; the request must go to the pool.
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
    /// By engine position, then the baseline session; each is built
    /// by the first request that runs on it.
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
        // One slot past the engine's: the baseline exists even when the
        // engine serves no dijkstra slot.
        let slots = state.engine.backends().len() + 1;
        Executor {
            ctx,
            state,
            role,
            sessions: (0..slots).map(|_| None).collect(),
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

    /// Whether this role runs point queries on the session at `pos`: a
    /// worker anywhere, a shard only where they never search the
    /// network.
    fn runs_point_queries(&self, pos: usize) -> bool {
        self.role == Role::Worker
            || self.state.engine.backends()[pos]
                .backend
                .bounded_point_queries()
    }

    /// Points the shared budget at this request's deadline, installs
    /// it in the session at `pos` — built now if this is its first
    /// request — and hands that session out together with the result
    /// buffers.
    fn arm(&mut self, pos: usize, deadline_ms: u32) -> (&mut (dyn Session + 's), &mut Scratch) {
        self.budget.rearm(
            (deadline_ms > 0).then(|| Instant::now() + Duration::from_millis(deadline_ms as u64)),
        );
        let engine = &self.state.engine;
        let session = self.sessions[pos].get_or_insert_with(|| match engine.backends().get(pos) {
            Some(b) => b.backend.session(engine.net()),
            None => BASELINE.session(engine.net()),
        });
        session.set_budget(&self.budget);
        (&mut **session, &mut self.scratch)
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
            return handoff(false);
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
        if self.role == Role::Shard
            && !matches!(
                request,
                Request::Ping | Request::Distance { .. } | Request::Path { .. }
            )
        {
            return handoff(false);
        }
        match *request {
            Request::Ping => protocol::put_text_response(out, "pong"),
            Request::Stats => {
                protocol::put_text_response(out, &render_status(state, stats, &ctx.cache))
            }
            Request::Shutdown => {
                ctx.shutdown.store(true, Ordering::SeqCst);
                out.extend_from_slice(&protocol::encode_empty_response());
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
                    match ctx.registry.reload_and_wait(RELOAD_TIMEOUT, &ctx.shutdown) {
                        Ok(epoch) => protocol::encode_text_response(&format!("epoch={epoch}")),
                        Err(reason) => protocol::encode_reload_failed(&reason),
                    }
                };
                out.extend_from_slice(&response);
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
                        if !self.runs_point_queries(pos) {
                            // A shard in front of a search backend.
                            return handoff(true);
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
                if !self.runs_point_queries(pos) {
                    return handoff(false);
                }
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
                protocol::put_path_response(out, p.as_ref().map(|(d, path)| (*d, &path[..])));
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
                protocol::put_distances_response(out, &self.scratch.batch);
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
                protocol::put_distances_response(out, &self.scratch.batch);
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
                protocol::put_nodes_dists_response(out, &self.scratch.entries);
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
                protocol::put_nodes_dists_response(out, &self.scratch.entries);
            }
        }
        ControlFlow::Continue(())
    }
}

/// Leaves the request path for the pool, nothing appended.
fn handoff<T>(cache_missed: bool) -> Step<T> {
    ControlFlow::Break(Verdict::Handoff { cache_missed })
}

/// Answers with a final payload and leaves the request path.
fn refuse<T>(out: &mut Vec<u8>, payload: Vec<u8>) -> Step<T> {
    out.extend_from_slice(&payload);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::WIRE_SLOTS;
    use crate::Engine;
    use spq_graph::RoadNetwork;
    use spq_synth::SynthParams;
    use std::sync::atomic::AtomicUsize;

    /// A real backend that counts the sessions built from it.
    struct Counting {
        inner: Box<dyn Backend>,
        built: Arc<AtomicUsize>,
    }

    impl Backend for Counting {
        fn backend_name(&self) -> &'static str {
            self.inner.backend_name()
        }
        fn session<'a>(&'a self, net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
            self.built.fetch_add(1, Ordering::SeqCst);
            self.inner.session(net)
        }
        fn bounded_point_queries(&self) -> bool {
            self.inner.bounded_point_queries()
        }
    }

    /// Every technique over one small network, each behind a session
    /// counter (by engine position).
    fn counted_engine() -> (Arc<Engine>, Vec<Arc<AtomicUsize>>) {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(
            spq_synth::test_vertices(150),
            0x7ab1e,
        ));
        let mut engine = Engine::build(net, &BackendKind::ALL);
        let counters = engine
            .backends
            .iter_mut()
            .map(|b| {
                let built = Arc::new(AtomicUsize::new(0));
                let inner = std::mem::replace(&mut b.backend, Box::new(Baseline));
                b.backend = Box::new(Counting {
                    inner,
                    built: Arc::clone(&built),
                });
                built
            })
            .collect();
        (Arc::new(engine), counters)
    }

    fn ctx(engine: Arc<Engine>) -> ExecCtx {
        ExecCtx {
            shutdown: Arc::new(AtomicBool::new(false)),
            force_stop: Arc::new(AtomicBool::new(false)),
            stats: Arc::new(ServerStats::new(WIRE_SLOTS)),
            cache: Arc::new(DistanceCache::new(1 << 10, 4)),
            registry: Arc::new(EpochRegistry::new(engine)),
            has_reload_source: false,
            failover: true,
        }
    }

    /// One request of every variant against `kind`, over the pair
    /// `(s, t)`.
    fn one_of_each(kind: BackendKind, s: NodeId, t: NodeId) -> Vec<Request> {
        let (backend, deadline_ms) = (kind.wire_id(), 0);
        vec![
            Request::Ping,
            Request::Stats,
            Request::Reload,
            Request::Shutdown,
            Request::Distance {
                backend,
                s,
                t,
                deadline_ms,
            },
            Request::Path {
                backend,
                s,
                t,
                deadline_ms,
            },
            Request::Distances {
                backend,
                sources: vec![s, t],
                targets: vec![t, s],
                deadline_ms,
            },
            Request::OneToMany {
                backend,
                s,
                targets: vec![t, s],
                deadline_ms,
            },
            Request::Knn {
                backend,
                s,
                k: 1,
                poi: "none".into(),
                deadline_ms,
            },
            Request::Range {
                backend,
                s,
                limit: 10,
                deadline_ms,
            },
        ]
    }

    fn built(counters: &[Arc<AtomicUsize>]) -> Vec<usize> {
        counters.iter().map(|c| c.load(Ordering::SeqCst)).collect()
    }

    const HANDOFF: Verdict = Verdict::Handoff {
        cache_missed: false,
    };
    const HANDOFF_MISSED: Verdict = Verdict::Handoff { cache_missed: true };

    #[test]
    fn a_shard_runs_exactly_the_bounded_point_requests_and_builds_sessions_lazily() {
        let (engine, counters) = counted_engine();
        let ctx = ctx(Arc::clone(&engine));
        let mut out = Vec::new();
        for (pos, kind) in BackendKind::ALL.into_iter().enumerate() {
            assert_eq!(engine.position_of_wire(kind.wire_id()), Some(pos));
            // The rule, restated: CH and HL point queries are bounded by
            // the hierarchy; everything else searches the network.
            let bounded = matches!(kind, BackendKind::Ch | BackendKind::Hl);
            run_pinned(&ctx, Role::Shard, |exec| {
                assert_eq!(built(&counters).iter().sum::<usize>(), 0, "{kind:?}");
                let pair = (3 + pos as NodeId, 40);
                for request in one_of_each(kind, pair.0, pair.1) {
                    let expected = match request {
                        Request::Ping => Verdict::Done,
                        Request::Distance { .. } if bounded => Verdict::Done,
                        Request::Distance { .. } => HANDOFF_MISSED,
                        Request::Path { .. } if bounded => Verdict::Done,
                        _ => HANDOFF,
                    };
                    out.clear();
                    let verdict = exec.execute(&Ok(request.clone()), false, &mut out);
                    assert_eq!(verdict, expected, "{kind:?} {request:?}");
                    assert_eq!(
                        out.is_empty(),
                        verdict != Verdict::Done,
                        "a hand-off appends nothing: {kind:?} {request:?}"
                    );
                }
                // A frame that did not decode is answered on the spot.
                out.clear();
                assert_eq!(
                    exec.execute(&Err("bad frame".into()), false, &mut out),
                    Verdict::Done
                );
                // Only the slot that was queried has a session, built
                // once however many requests ran on it.
                let mut expected = vec![0; counters.len()];
                expected[pos] = bounded as usize;
                assert_eq!(built(&counters), expected, "{kind:?}");
                ControlFlow::Break(())
            });
            counters[pos].store(0, Ordering::SeqCst);
        }
        assert!(!ctx.shutdown.load(Ordering::SeqCst), "SHUTDOWN never ran");

        // An unserved wire id, and a quarantined bounded slot: the
        // pool's, before any work.
        let ch_pos = BackendKind::ALL
            .iter()
            .position(|&k| k == BackendKind::Ch)
            .expect("ch is served");
        let state = ctx.registry.current();
        assert!(state.quarantine(ch_pos, "pulled by the test".into()));
        run_pinned(&ctx, Role::Shard, |exec| {
            for request in one_of_each(BackendKind::Ch, 5, 50).into_iter().skip(4) {
                out.clear();
                assert_eq!(exec.execute(&Ok(request), false, &mut out), HANDOFF);
            }
            let unserved = Request::Distance {
                backend: 200,
                s: 1,
                t: 2,
                deadline_ms: 0,
            };
            assert_eq!(exec.execute(&Ok(unserved), false, &mut out), HANDOFF);
            ControlFlow::Break(())
        });
        assert_eq!(built(&counters).iter().sum::<usize>(), 0);
        let cache = ctx.cache.stats();
        assert_eq!(
            (cache.hits, cache.misses),
            (0, BackendKind::ALL.len() as u64),
            "one lookup per DISTANCE on a healthy slot, none on the others"
        );
    }

    #[test]
    fn a_worker_runs_everything_and_builds_only_the_sessions_it_uses() {
        let (engine, counters) = counted_engine();
        let ctx = ctx(Arc::clone(&engine));
        let mut out = Vec::new();
        for (pos, kind) in BackendKind::ALL.into_iter().enumerate() {
            run_pinned(&ctx, Role::Worker, |exec| {
                assert_eq!(built(&counters).iter().sum::<usize>(), 0, "{kind:?}");
                for request in one_of_each(kind, 3 + pos as NodeId, 40) {
                    out.clear();
                    let verdict = exec.execute(&Ok(request.clone()), false, &mut out);
                    assert_eq!(verdict, Verdict::Done, "{kind:?} {request:?}");
                    assert!(!out.is_empty(), "{kind:?} {request:?}");
                }
                let mut expected = vec![0; counters.len()];
                expected[pos] = 1;
                assert_eq!(built(&counters), expected, "{kind:?}");
                ControlFlow::Break(())
            });
            counters[pos].store(0, Ordering::SeqCst);
        }
        assert!(ctx.shutdown.load(Ordering::SeqCst), "SHUTDOWN ran");

        // What a worker computed and cached, a shard answers whatever
        // the backend — without a session.
        run_pinned(&ctx, Role::Shard, |exec| {
            for (pos, kind) in BackendKind::ALL.into_iter().enumerate() {
                let request = Request::Distance {
                    backend: kind.wire_id(),
                    s: 3 + pos as NodeId,
                    t: 40,
                    deadline_ms: 0,
                };
                out.clear();
                assert_eq!(exec.execute(&Ok(request), false, &mut out), Verdict::Done);
            }
            ControlFlow::Break(())
        });
        assert_eq!(built(&counters).iter().sum::<usize>(), 0);
    }
}
