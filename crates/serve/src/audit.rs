//! Continuous oracle auditing.
//!
//! The startup self-check proves an index correct *once*; this module
//! keeps proving it while the server runs. A background auditor thread
//! replays a seeded trickle of distance queries against the Dijkstra
//! oracle every [`AuditConfig::interval`], [`AUDIT_QUERIES`] pairs per
//! backend per round. A single mismatch is logged and counted;
//! [`AUDIT_THRESHOLD`] mismatches within [`AUDIT_WINDOW`] quarantine
//! the offending backend — its cached answers are purged and its wire
//! ids fail over down the degradation chain (CH, then Dijkstra) until
//! the next reload publishes a fresh, re-checked epoch.
//!
//! Every seed in play is logged, so an audit-triggered quarantine is a
//! reproducible test case, not an anecdote.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::backend::QueryBudget;
use spq_graph::sample::PairSampler;

use crate::cache::DistanceCache;
use crate::epoch::EpochRegistry;
use crate::stats::ServerStats;
use crate::{BackendKind, SELFCHECK_SEED};

/// Query pairs replayed per backend per audit round.
pub const AUDIT_QUERIES: usize = 4;

/// Mismatches within [`AUDIT_WINDOW`] that quarantine a backend.
pub const AUDIT_THRESHOLD: usize = 3;

/// The sliding window [`AUDIT_THRESHOLD`] counts over.
pub const AUDIT_WINDOW: Duration = Duration::from_secs(60);

/// Auditor knobs.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Pause between audit rounds.
    pub interval: Duration,
    /// Whether quarantined wire ids fail over down the degradation
    /// chain (false: they answer with the typed `QUARANTINED` status).
    pub failover: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            interval: Duration::from_secs(1),
            failover: true,
        }
    }
}

/// The sampler seed for one audit round: derived from
/// [`SELFCHECK_SEED`], not sequential, so consecutive rounds cover
/// unrelated pair streams (each is logged on a mismatch for replay).
fn round_seed(round: u64) -> u64 {
    SELFCHECK_SEED ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// The auditor thread body. Runs until `shutdown`; `force_stop` is
/// threaded into every audit query's budget so shutdown never waits on
/// a slow audited query.
pub(crate) fn auditor_loop(
    registry: &EpochRegistry,
    cache: &DistanceCache,
    stats: &ServerStats,
    cfg: &AuditConfig,
    shutdown: &AtomicBool,
    force_stop: &Arc<AtomicBool>,
) {
    let mut oracle: Option<Dijkstra> = None;
    let mut oracle_nodes = 0usize;
    // Mismatch timestamps per (epoch, engine position); entries from
    // superseded epochs are dropped each round.
    let mut windows: HashMap<(u64, usize), Vec<Instant>> = HashMap::new();
    let mut round: u64 = 0;
    let mut budget = QueryBudget::unlimited().with_kill_flag(Arc::clone(force_stop));
    loop {
        // Sleep in slices so shutdown is honoured promptly.
        let wake = Instant::now() + cfg.interval;
        while Instant::now() < wake {
            if shutdown.load(Ordering::SeqCst) || crate::server::signalled() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        round += 1;
        let state = registry.current();
        let engine = &state.engine;
        let n = engine.net().num_nodes();
        if n == 0 {
            continue;
        }
        if oracle_nodes != n {
            oracle = Some(Dijkstra::new(n));
            oracle_nodes = n;
        }
        let oracle = oracle.as_mut().expect("created above");
        windows.retain(|(epoch, _), _| *epoch == state.epoch);
        let seed = round_seed(round);
        let pairs = PairSampler::pairs(n, seed, AUDIT_QUERIES);
        for (pos, eb) in engine.backends().iter().enumerate() {
            // The oracle cannot disagree with itself, and a quarantined
            // backend is already out of service.
            if eb.kind == BackendKind::Dijkstra || state.is_quarantined(pos) {
                continue;
            }
            let mut session = eb.backend.session(engine.net());
            for &(s, t) in &pairs {
                if shutdown.load(Ordering::SeqCst) || crate::server::signalled() {
                    return;
                }
                budget.rearm(Some(Instant::now() + Duration::from_secs(2)));
                session.set_budget(&budget);
                let got = session.distance(s, t);
                if session.interrupted() {
                    // An aborted audit query proves nothing either way.
                    continue;
                }
                oracle.run_to_target(engine.net(), s, t);
                let expected = oracle.distance(t);
                stats.audit_checked.fetch_add(1, Ordering::Relaxed);
                if got == expected {
                    continue;
                }
                stats.audit_mismatches.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "[audit] {} MISMATCH: distance({s}, {t}) = {got:?}, oracle {expected:?} \
                     (epoch {}, round {round}, seed {seed:#x})",
                    eb.backend.backend_name(),
                    state.epoch,
                );
                let hits = windows.entry((state.epoch, pos)).or_default();
                let now = Instant::now();
                hits.retain(|&at| now.duration_since(at) <= AUDIT_WINDOW);
                hits.push(now);
                if hits.len() >= AUDIT_THRESHOLD {
                    let reason = format!(
                        "audit found {} mismatch(es) within {:?} (round {round}, seed {seed:#x})",
                        hits.len(),
                        AUDIT_WINDOW
                    );
                    if state.quarantine(pos, reason) {
                        let mut purged = cache.purge_backend(state.epoch, eb.kind.wire_id());
                        for &alias in &eb.aliases {
                            purged += cache.purge_backend(state.epoch, alias);
                        }
                        eprintln!(
                            "[audit] QUARANTINED {} (epoch {}): {} cached answers purged, \
                             wire id {} fails over",
                            eb.backend.backend_name(),
                            state.epoch,
                            purged,
                            eb.kind.wire_id(),
                        );
                    }
                    break; // this backend is out; audit the next one
                }
            }
        }
        stats.audit_rounds.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_seeds_differ_but_replay() {
        assert_eq!(round_seed(3), round_seed(3), "replayable");
        assert_ne!(round_seed(1), round_seed(2));
        let a = PairSampler::pairs(100, round_seed(1), 8);
        let b = PairSampler::pairs(100, round_seed(1), 8);
        assert_eq!(a, b);
    }
}
