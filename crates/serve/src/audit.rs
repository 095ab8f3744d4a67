//! Continuous oracle auditing.
//!
//! The startup self-check proves an index correct *once*; this module
//! keeps proving it while the server runs. A background auditor thread
//! replays a seeded trickle of distance queries against the Dijkstra
//! oracle every [`AuditConfig::interval`]. A single mismatch is logged
//! and counted; [`AuditConfig::threshold`] mismatches within
//! [`AuditConfig::window`] quarantine the offending backend — its
//! cached answers are purged and its wire ids fail over down the
//! degradation chain (CH, then Dijkstra) until the next reload
//! publishes a fresh, re-checked epoch.
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
use crate::BackendKind;

/// Auditor knobs.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Pause between audit rounds.
    pub interval: Duration,
    /// Query pairs replayed per backend per round.
    pub queries: usize,
    /// Base seed for the audit sampler (each round derives its own
    /// stream, logged on every mismatch for replay).
    pub seed: u64,
    /// Mismatches within [`AuditConfig::window`] that quarantine a
    /// backend.
    pub threshold: usize,
    /// The sliding window the threshold counts over.
    pub window: Duration,
    /// Whether quarantined wire ids fail over down the degradation
    /// chain (false: they answer with the typed `QUARANTINED` status).
    pub failover: bool,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            interval: Duration::from_secs(1),
            queries: 4,
            seed: 0xA0D17,
            threshold: 3,
            window: Duration::from_secs(60),
            failover: true,
        }
    }
}

impl AuditConfig {
    /// The sampler seed for one audit round: derived, not sequential,
    /// so consecutive rounds cover unrelated pair streams.
    pub fn round_seed(&self, round: u64) -> u64 {
        self.seed ^ round.wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }
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
        let seed = cfg.round_seed(round);
        let pairs = PairSampler::pairs(n, seed, cfg.queries);
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
                hits.retain(|&at| now.duration_since(at) <= cfg.window);
                hits.push(now);
                if hits.len() >= cfg.threshold {
                    let reason = format!(
                        "audit found {} mismatch(es) within {:?} (round {round}, seed {seed:#x})",
                        hits.len(),
                        cfg.window
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
        let cfg = AuditConfig::default();
        assert_eq!(cfg.round_seed(3), cfg.round_seed(3), "replayable");
        assert_ne!(cfg.round_seed(1), cfg.round_seed(2));
        let a = PairSampler::pairs(100, cfg.round_seed(1), 8);
        let b = PairSampler::pairs(100, cfg.round_seed(1), 8);
        assert_eq!(a, b);
    }
}
