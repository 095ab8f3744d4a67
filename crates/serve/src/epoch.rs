//! Epoch-based hot index swap.
//!
//! The server never mutates a serving [`Engine`]. Instead every loaded
//! engine lives inside an immutable [`EpochState`] behind an `Arc`, and
//! an [`EpochRegistry`] holds the *current* one. A reload — triggered by
//! the `RELOAD` protocol frame, by `SIGHUP`, or by a change to a watched
//! reload file — builds the replacement engine off-thread, runs the
//! differential self-check against the Dijkstra oracle *before*
//! publication, and only then swaps the `Arc`. Workers pin the epoch
//! they read a request under, so in-flight queries always finish on the
//! engine they started on; the next request a worker reads from any
//! connection is answered by the freshly published epoch. A failed
//! reload publishes nothing: the old epoch keeps serving and the typed
//! failure reason is surfaced in `STATS` as `RELOAD_FAILED`.
//!
//! Quarantine state (set by the [`crate::audit`] auditor) lives on the
//! `EpochState`, not the registry: a freshly published epoch starts
//! with a clean bill of health, because its engine just passed the
//! pre-publication self-check.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::sync::lock_unpoisoned;
use crate::{BackendKind, BackendSpec, Engine};

/// One immutable generation of serving state: an engine plus the
/// health flags the auditor may raise against its backends.
pub struct EpochState {
    /// Monotonic epoch number (the seed engine is epoch 0).
    pub epoch: u64,
    /// The engine answering queries in this epoch.
    pub engine: Arc<Engine>,
    /// Per-backend quarantine flags, indexed by engine position.
    quarantined: Vec<AtomicBool>,
    /// Why each quarantined position was pulled (parallel to
    /// `quarantined`; `None` while healthy).
    reasons: Mutex<Vec<Option<String>>>,
}

impl EpochState {
    /// Wraps `engine` as epoch `epoch` with every backend healthy.
    pub fn new(epoch: u64, engine: Arc<Engine>) -> EpochState {
        let n = engine.backends().len();
        EpochState {
            epoch,
            engine,
            quarantined: (0..n).map(|_| AtomicBool::new(false)).collect(),
            reasons: Mutex::new(vec![None; n]),
        }
    }

    /// Whether the backend at engine position `pos` is quarantined.
    pub fn is_quarantined(&self, pos: usize) -> bool {
        self.quarantined
            .get(pos)
            .map(|q| q.load(Ordering::Acquire))
            .unwrap_or(false)
    }

    /// Quarantines position `pos`. Returns true if this call flipped
    /// the flag (false when it was already quarantined).
    pub fn quarantine(&self, pos: usize, reason: String) -> bool {
        let Some(flag) = self.quarantined.get(pos) else {
            return false;
        };
        let flipped = !flag.swap(true, Ordering::AcqRel);
        if flipped {
            lock_unpoisoned(&self.reasons)[pos] = Some(reason);
        }
        flipped
    }

    /// Human-readable `name: reason` lines for every quarantined
    /// backend, in engine order (for STATS).
    pub fn quarantine_lines(&self) -> Vec<String> {
        let reasons = lock_unpoisoned(&self.reasons);
        self.engine
            .backends()
            .iter()
            .enumerate()
            .filter(|(pos, _)| self.is_quarantined(*pos))
            .map(|(pos, eb)| {
                let why = reasons[pos].as_deref().unwrap_or("unspecified");
                format!("{}: {why}", eb.backend.backend_name())
            })
            .collect()
    }
}

impl fmt::Debug for EpochState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochState")
            .field("epoch", &self.epoch)
            .field("backends", &self.engine.backends().len())
            .field(
                "quarantined",
                &self
                    .quarantined
                    .iter()
                    .map(|q| q.load(Ordering::Relaxed))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

/// A caller-supplied engine source for reloads: invoked off-thread by
/// the reloader, must return a fully built (not yet self-checked)
/// engine. Tests use it to hand the server replacement engines without
/// touching the filesystem.
pub type EngineFactory = dyn Fn() -> Result<Arc<Engine>, String> + Send + Sync;

/// Cloneable, debuggable wrapper so an [`EngineFactory`] can live in
/// the otherwise-`Debug` `ServerConfig`.
#[derive(Clone)]
pub struct ReloadFactory(pub Arc<EngineFactory>);

impl ReloadFactory {
    /// Wraps a closure as a reload source.
    pub fn new<F>(f: F) -> ReloadFactory
    where
        F: Fn() -> Result<Arc<Engine>, String> + Send + Sync + 'static,
    {
        ReloadFactory(Arc::new(f))
    }
}

impl fmt::Debug for ReloadFactory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("ReloadFactory(..)")
    }
}

/// Bookkeeping for [`EpochRegistry::reload_and_wait`]: how many reload
/// attempts have completed and how the latest one ended.
struct Ledger {
    /// Completed reload attempts (successful or not).
    completed: u64,
    /// Outcome of the most recent attempt: `Ok(epoch)` or the reason.
    last: Option<Result<u64, String>>,
}

/// The shared registry: the current [`EpochState`] plus the reload
/// request/completion plumbing between workers and the reloader
/// thread.
pub struct EpochRegistry {
    current: Mutex<Arc<EpochState>>,
    /// Mirror of `current.epoch` readable without the lock — workers
    /// poll this between requests to notice a published swap.
    epoch: AtomicU64,
    /// Set by a RELOAD frame or SIGHUP; consumed by the reloader.
    reload_requested: AtomicBool,
    ledger: Mutex<Ledger>,
    cv: Condvar,
}

impl EpochRegistry {
    /// Starts the registry at epoch 0 on `engine`.
    pub fn new(engine: Arc<Engine>) -> EpochRegistry {
        EpochRegistry {
            current: Mutex::new(Arc::new(EpochState::new(0, engine))),
            epoch: AtomicU64::new(0),
            reload_requested: AtomicBool::new(false),
            ledger: Mutex::new(Ledger {
                completed: 0,
                last: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// The current serving state.
    pub fn current(&self) -> Arc<EpochState> {
        Arc::clone(&lock_unpoisoned(&self.current))
    }

    /// The current epoch number (lock-free; workers poll this).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Flags that a reload should happen (RELOAD frame / SIGHUP path).
    pub fn request_reload(&self) {
        self.reload_requested.store(true, Ordering::SeqCst);
    }

    /// Consumes a pending reload request, if any (reloader side).
    pub fn take_request(&self) -> bool {
        self.reload_requested.swap(false, Ordering::SeqCst)
    }

    /// Publishes `engine` as the next epoch and returns its number.
    /// Only the reloader calls this, after the engine passed its
    /// pre-publication self-check.
    pub fn publish(&self, engine: Arc<Engine>) -> u64 {
        let mut current = lock_unpoisoned(&self.current);
        let next = current.epoch + 1;
        *current = Arc::new(EpochState::new(next, engine));
        // Ordering matters for the no-stale-answer guarantee: the
        // epoch mirror only advances after `current` already holds the
        // new state, so any worker that observes the new number and
        // re-reads `current` gets the new engine (never the old one
        // under a new number).
        self.epoch.store(next, Ordering::SeqCst);
        next
    }

    /// Records the outcome of one reload attempt and wakes every
    /// [`EpochRegistry::reload_and_wait`] caller.
    pub fn complete(&self, outcome: Result<u64, String>) {
        let mut ledger = lock_unpoisoned(&self.ledger);
        ledger.completed += 1;
        ledger.last = Some(outcome);
        self.cv.notify_all();
    }

    /// Requests a reload and blocks until an attempt that started at
    /// or after this call completes (attempts coalesce: two concurrent
    /// RELOAD frames may be satisfied by one rebuild). Returns the new
    /// epoch, or the failure reason, or `Err` on timeout / shutdown
    /// (`cancelled` is polled so a shutting-down server unblocks its
    /// workers).
    pub fn reload_and_wait(
        &self,
        timeout: Duration,
        cancelled: &AtomicBool,
    ) -> Result<u64, String> {
        let target = lock_unpoisoned(&self.ledger).completed + 1;
        self.request_reload();
        let deadline = Instant::now() + timeout;
        let mut ledger = lock_unpoisoned(&self.ledger);
        loop {
            if ledger.completed >= target {
                return ledger
                    .last
                    .clone()
                    .unwrap_or(Err("reload completed without an outcome".into()));
            }
            if cancelled.load(Ordering::SeqCst) {
                return Err("server is shutting down".into());
            }
            if Instant::now() >= deadline {
                return Err(format!("reload timed out after {timeout:.1?}"));
            }
            let (guard, _) = self
                .cv
                .wait_timeout(ledger, Duration::from_millis(50))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            ledger = guard;
        }
    }
}

impl fmt::Debug for EpochRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochRegistry")
            .field("epoch", &self.epoch())
            .field(
                "reload_requested",
                &self.reload_requested.load(Ordering::Relaxed),
            )
            .finish()
    }
}

/// The parsed contents of a watched reload file: which network to load
/// and which serving slots to build over it. Lines (order-free,
/// `#`-comments and blanks skipped):
///
/// ```text
/// net=data/usa          # base path: reads usa.gr + usa.co (optional)
/// backends=ch,alt       # serving set (optional; default: keep current kinds)
/// index=ch=idx/usa.ch   # load a persisted CH or HL for one slot (repeatable)
/// poi=fuel=idx/fuel.poi # register a persisted POI set (repeatable)
/// ```
///
/// Without `net=` the replacement engine reuses the currently served
/// network (an index-only swap). Index loads in a reload are strict —
/// no degradation chain: an operator hot-swapping a broken index wants
/// the reload to fail loudly and leave the old epoch serving, not to
/// silently come up degraded.
///
/// Without `poi=` lines the currently registered POI sets carry over:
/// the new epoch re-indexes the same sets against its own hierarchy, so
/// a CH swap never silently drops kNN serving. `poi=` lines replace the
/// whole registered set, and each loaded container's embedded name must
/// match the name in its line.
#[derive(Debug, Clone, Default)]
pub struct ReloadSpec {
    /// DIMACS base path (`<base>.gr` + `<base>.co`), if the network
    /// itself changes.
    pub net: Option<PathBuf>,
    /// Serving set override (empty: keep the current engine's kinds).
    pub backends: Vec<BackendKind>,
    /// Persisted indexes to load for specific slots.
    pub indexes: Vec<BackendSpec>,
    /// POI sets to register, as `(name, container path)` (empty: keep
    /// the currently registered sets).
    pub pois: Vec<(String, PathBuf)>,
}

impl ReloadSpec {
    /// Parses the reload-file format above.
    pub fn parse(text: &str) -> Result<ReloadSpec, String> {
        let mut spec = ReloadSpec::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("reload file line {}: expected key=value", lineno + 1))?;
            match key.trim() {
                "net" => spec.net = Some(PathBuf::from(value.trim())),
                "backends" => {
                    spec.backends = BackendKind::parse_list(value.trim())
                        .map_err(|e| format!("reload file line {}: {e}", lineno + 1))?;
                }
                "index" => {
                    let parsed = BackendSpec::parse(value.trim())
                        .map_err(|e| format!("reload file line {}: {e}", lineno + 1))?;
                    spec.indexes.push(parsed);
                }
                "poi" => {
                    let (name, path) = value.trim().split_once('=').ok_or_else(|| {
                        format!("reload file line {}: poi wants name=path", lineno + 1)
                    })?;
                    if name.trim().is_empty() || path.trim().is_empty() {
                        return Err(format!(
                            "reload file line {}: poi wants name=path",
                            lineno + 1
                        ));
                    }
                    spec.pois
                        .push((name.trim().to_string(), PathBuf::from(path.trim())));
                }
                other => {
                    return Err(format!(
                        "reload file line {}: unknown key '{other}'",
                        lineno + 1
                    ))
                }
            }
        }
        Ok(spec)
    }

    /// Builds the replacement engine this spec describes, reusing
    /// `current`'s network and backend kinds for anything the spec
    /// leaves unspecified.
    pub fn build(&self, current: &Engine) -> Result<Arc<Engine>, String> {
        let net = match &self.net {
            Some(base) => {
                let shown = base.display();
                let open = |path: PathBuf| {
                    std::fs::File::open(&path)
                        .map(std::io::BufReader::new)
                        .map_err(|e| format!("cannot open {}: {e}", path.display()))
                };
                let gr = open(base.with_extension("gr"))?;
                let co = open(base.with_extension("co"))?;
                spq_graph::dimacs::read(gr, co).map_err(|e| format!("cannot parse {shown}: {e}"))?
            }
            None => current.net().clone(),
        };
        let kinds: Vec<BackendKind> = if self.backends.is_empty() {
            current.backends().iter().map(|b| b.kind).collect()
        } else {
            self.backends.clone()
        };
        let mut specs: Vec<BackendSpec> = kinds.into_iter().map(BackendSpec::built).collect();
        for idx in &self.indexes {
            match specs.iter_mut().find(|s| s.kind == idx.kind) {
                Some(slot) => slot.index = idx.index.clone(),
                None => specs.push(idx.clone()),
            }
        }
        let engine = Engine::build_with_indexes(net, &specs, false)?;
        // POI sets persist across swaps: `poi=` lines replace the set,
        // otherwise the current registrations carry over and are
        // re-indexed against the new epoch's hierarchy.
        let sets: Vec<spq_many::PoiSet> = if self.pois.is_empty() {
            current.poi_sets().iter().map(|e| e.set.clone()).collect()
        } else {
            // Same recovery discipline as index loads: sweep the POI
            // containers' directories for crash debris first, so a torn
            // container fails this (strict) reload with the scan reason
            // instead of a bare parse error.
            match spq_graph::atomic_io::recover_dirs_of(self.pois.iter().map(|(_, p)| p.as_path()))
            {
                Ok(report) => crate::log_recovery(&report),
                Err(e) => eprintln!("[recovery] scan failed: {e}"),
            }
            let mut sets = Vec::with_capacity(self.pois.len());
            for (name, path) in &self.pois {
                let shown = path.display();
                let f =
                    std::fs::File::open(path).map_err(|e| format!("cannot open {shown}: {e}"))?;
                let set = spq_many::PoiSet::read_binary(&mut std::io::BufReader::new(f))
                    .map_err(|e| format!("cannot load POI set {shown}: {e}"))?;
                if set.name() != name {
                    return Err(format!(
                        "POI container {shown} is named '{}', the reload file says '{name}'",
                        set.name()
                    ));
                }
                sets.push(set);
            }
            sets
        };
        engine.register_pois(sets)?;
        Ok(Arc::new(engine))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_synth::SynthParams;

    fn tiny_engine(seed: u64) -> Arc<Engine> {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, seed));
        Arc::new(Engine::build(
            net,
            &[BackendKind::Dijkstra, BackendKind::Ch],
        ))
    }

    #[test]
    fn publish_advances_the_epoch_and_resets_quarantine() {
        let registry = EpochRegistry::new(tiny_engine(1));
        assert_eq!(registry.epoch(), 0);
        let state = registry.current();
        assert!(state.quarantine(1, "audit said so".into()));
        assert!(state.is_quarantined(1));
        assert!(!state.quarantine(1, "again".into()), "already quarantined");
        assert_eq!(state.quarantine_lines(), vec!["CH: audit said so"]);

        let next = registry.publish(tiny_engine(2));
        assert_eq!(next, 1);
        assert_eq!(registry.epoch(), 1);
        let fresh = registry.current();
        assert_eq!(fresh.epoch, 1);
        assert!(!fresh.is_quarantined(1), "new epoch starts healthy");
        assert!(fresh.quarantine_lines().is_empty());
    }

    #[test]
    fn reload_and_wait_sees_the_attempt_outcome() {
        let registry = Arc::new(EpochRegistry::new(tiny_engine(3)));
        let cancelled = AtomicBool::new(false);

        // A mock reloader: waits for the request, publishes, completes.
        let r = Arc::clone(&registry);
        let reloader = std::thread::spawn(move || {
            while !r.take_request() {
                std::thread::sleep(Duration::from_millis(1));
            }
            let epoch = r.publish(tiny_engine(4));
            r.complete(Ok(epoch));
        });
        let got = registry.reload_and_wait(Duration::from_secs(5), &cancelled);
        reloader.join().unwrap();
        assert_eq!(got, Ok(1));
        assert_eq!(registry.epoch(), 1);

        // Failure path: the old epoch stays published.
        let r = Arc::clone(&registry);
        let reloader = std::thread::spawn(move || {
            while !r.take_request() {
                std::thread::sleep(Duration::from_millis(1));
            }
            r.complete(Err("self-check found 8 defect(s)".into()));
        });
        let got = registry.reload_and_wait(Duration::from_secs(5), &cancelled);
        reloader.join().unwrap();
        assert_eq!(got, Err("self-check found 8 defect(s)".into()));
        assert_eq!(registry.epoch(), 1, "failed reload publishes nothing");
    }

    #[test]
    fn reload_and_wait_times_out_and_honours_cancellation() {
        let registry = EpochRegistry::new(tiny_engine(5));
        let cancelled = AtomicBool::new(false);
        let err = registry
            .reload_and_wait(Duration::from_millis(60), &cancelled)
            .unwrap_err();
        assert!(err.contains("timed out"), "{err}");

        cancelled.store(true, Ordering::SeqCst);
        let err = registry
            .reload_and_wait(Duration::from_secs(30), &cancelled)
            .unwrap_err();
        assert!(err.contains("shutting down"), "{err}");
    }

    #[test]
    fn reload_spec_parses_and_rejects() {
        let spec = ReloadSpec::parse(
            "# swap in the rebuilt CH\n\
             backends=ch,alt\n\
             index=ch=idx/usa.ch   # fresh build\n\
             \n\
             net=data/usa\n",
        )
        .unwrap();
        assert_eq!(spec.net.as_deref(), Some(std::path::Path::new("data/usa")));
        assert_eq!(spec.backends, vec![BackendKind::Ch, BackendKind::Alt]);
        assert_eq!(spec.indexes.len(), 1);
        assert_eq!(spec.indexes[0].kind, BackendKind::Ch);

        assert!(ReloadSpec::parse("net data/usa").is_err());
        assert!(ReloadSpec::parse("warp=9").is_err());
        assert!(ReloadSpec::parse("backends=bogus").is_err());
        assert!(ReloadSpec::parse("backends=all").is_err());
        assert!(ReloadSpec::parse("index=ch").is_err());
        // A kind with no on-disk format fails the parse, by name.
        let err = ReloadSpec::parse("index=alt=/x").unwrap_err();
        assert!(err.contains("alt has no on-disk index format"), "{err}");
        assert!(err.contains("only ch and hl"), "{err}");
    }

    /// A reload spec's `backends=` line names any kind, the ones left
    /// out of the default set included; its `index=` lines take only the
    /// kinds with a container, and refuse the rest with the same words
    /// as `--index`.
    #[test]
    fn reload_spec_names_every_kind_but_indexes_only_ch_and_hl() {
        let spec = ReloadSpec::parse("backends=silc,pcpd,arcflags\nindex=hl=idx/usa.hl\n").unwrap();
        assert_eq!(
            spec.backends,
            vec![BackendKind::Silc, BackendKind::Pcpd, BackendKind::ArcFlags]
        );
        assert_eq!(spec.indexes.len(), 1);
        assert_eq!(spec.indexes[0].kind, BackendKind::Hl);
        for kind in BackendKind::ALL {
            let parsed = ReloadSpec::parse(&format!("index={}=/x", kind.name()));
            match kind {
                BackendKind::Ch | BackendKind::Hl => assert!(parsed.is_ok(), "{parsed:?}"),
                _ => assert_eq!(
                    parsed.unwrap_err(),
                    format!("reload file line 1: {}", kind.check_loadable().unwrap_err())
                ),
            }
        }
    }

    #[test]
    fn reload_spec_build_reuses_the_current_engine_defaults() {
        let current = tiny_engine(6);
        // Empty spec: same net, same kinds, freshly built.
        let rebuilt = ReloadSpec::default().build(&current).unwrap();
        assert_eq!(rebuilt.net().num_nodes(), current.net().num_nodes());
        assert_eq!(rebuilt.backends().len(), current.backends().len());
        for (a, b) in rebuilt.backends().iter().zip(current.backends()) {
            assert_eq!(a.kind, b.kind);
        }
        // Strict index load: a missing file fails the reload outright.
        let spec = ReloadSpec::parse("index=ch=/nonexistent/usa.ch").unwrap();
        let err = spec.build(&current).err().expect("strict load fails");
        assert!(err.contains("cannot load ch index"), "{err}");
    }
}
