//! `spq-serve` — the concurrent query-serving subsystem.
//!
//! The paper (§4) measures its five techniques with single-threaded
//! latency loops; this crate turns the same indexes into a service that
//! answers many clients at once, the first step toward the ROADMAP's
//! "heavy traffic" north star:
//!
//! * [`BackendKind`] — the one technique registry: every index in the
//!   workspace is built through [`BackendKind::build`] and checked
//!   against the Dijkstra oracle by [`verify_session`]: the server,
//!   `spq query`/`verify`/`bench` and the figure harness all build
//!   through it, and serving and certifying both check through it.
//! * [`Engine`] — any set of those indexes (by default Dijkstra, CH,
//!   TNR, ALT and HL) built over one road network, each behind the unified
//!   [`spq_graph::backend::Backend`] trait, with that oracle check
//!   gating startup.
//! * [`server`] — a TCP service speaking the [`protocol`] wire format:
//!   a fixed worker pool where every worker owns one reusable query
//!   workspace per backend (hot paths stay allocation-free), request
//!   batching that routes dense distance batches to CH's bucket-based
//!   many-to-many, and graceful shutdown on SIGTERM or a protocol
//!   command.
//! * [`cache`] — a sharded LRU distance cache keyed by
//!   `(backend, s, t)` with hit/miss accounting.
//! * [`stats`] — atomic counters and log2 latency histograms per
//!   backend and per op, served by the `STATS` command and dumped at
//!   shutdown.
//! * [`loadgen`] — replays the paper's Q1–Q10 query sets at
//!   configurable concurrency, reporting QPS and p50/p99 per backend
//!   and verifying sampled answers against the Dijkstra oracle after
//!   each timed run (`spq loadgen`).
//! * [`epoch`] — epoch-based hot index swap: a RELOAD frame (or a
//!   watched reload file, or SIGHUP) builds and self-checks a fresh
//!   [`Engine`] off-thread and atomically publishes it; in-flight
//!   requests finish on their pinned epoch and the distance cache is
//!   epoch-keyed so a swap can never serve a stale answer.
//! * [`audit`] — a background auditor replays a seeded trickle of
//!   queries against the Dijkstra oracle while the server runs;
//!   repeated mismatches quarantine the offending backend and fail its
//!   wire id over to a healthy one.
//!
//! Everything is `std`-only: `std::net` sockets, `std::thread` workers,
//! no external dependencies.

pub mod audit;
pub mod byteproxy;
pub mod cache;
pub mod client;
mod conn;
pub mod epoch;
pub mod eventloop;
mod executor;
pub mod fault;
pub mod loadgen;
pub mod protocol;
pub mod server;
pub mod stats;
pub mod sync;
pub mod torture;

use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_alt::{Alt, AltParams};
use spq_arcflags::{ArcFlags, ArcFlagsParams};
use spq_ch::ContractionHierarchy;
use spq_dijkstra::{Baseline, Dijkstra};
use spq_graph::atomic_io;
use spq_graph::backend::{Backend, Session};
use spq_graph::binio::IndexLoadError;
use spq_graph::sample::PairSampler;
use spq_graph::size::IndexSize;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_hl::Hl;
use spq_many::{ManyBackend, PoiEntry, PoiIndex, PoiSet, PoiTable};
use spq_pcpd::Pcpd;
use spq_silc::Silc;
use spq_tnr::{Tnr, TnrParams};

pub use audit::AuditConfig;
pub use byteproxy::{ByteFaultPlan, ByteProxy};
pub use cache::{CacheStats, DistanceCache};
pub use client::{ClientError, RetryPolicy, RetryingClient, ServeClient};
pub use epoch::{EpochRegistry, EpochState, ReloadFactory, ReloadSpec};
pub use fault::{FaultAction, FaultInjector, FaultPlan};
pub use loadgen::{LoadgenOptions, LoadgenReport, ThroughputRow};
pub use server::{Server, ServerConfig};
pub use stats::ServerStats;

/// The servable index techniques and their wire ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Bidirectional Dijkstra — index-free baseline (wire id 0).
    Dijkstra,
    /// Contraction Hierarchies (wire id 1).
    Ch,
    /// Transit Node Routing (wire id 2).
    Tnr,
    /// SILC (wire id 3).
    Silc,
    /// PCPD (wire id 4).
    Pcpd,
    /// ALT / landmark A* (wire id 5).
    Alt,
    /// Arc flags (wire id 6).
    ArcFlags,
    /// Hub labeling — CH-based 2-hop labels (wire id 7).
    Hl,
}

impl BackendKind {
    /// Every servable backend.
    pub const ALL: [BackendKind; 8] = [
        BackendKind::Dijkstra,
        BackendKind::Ch,
        BackendKind::Tnr,
        BackendKind::Silc,
        BackendKind::Pcpd,
        BackendKind::Alt,
        BackendKind::ArcFlags,
        BackendKind::Hl,
    ];

    /// The default serving set: the paper's Dijkstra, CH and TNR, plus
    /// ALT and hub labeling. SILC and PCPD are left out because their
    /// builds are quadratic (all-pairs shortest paths), arc flags
    /// because it runs one full Dijkstra per region-boundary vertex;
    /// `--backends` serves them by name.
    pub const DEFAULT: [BackendKind; 5] = [
        BackendKind::Dijkstra,
        BackendKind::Ch,
        BackendKind::Tnr,
        BackendKind::Alt,
        BackendKind::Hl,
    ];

    /// The five techniques of the paper's §3, in its presentation order.
    pub const PAPER: [BackendKind; 5] = [
        BackendKind::Dijkstra,
        BackendKind::Ch,
        BackendKind::Tnr,
        BackendKind::Silc,
        BackendKind::Pcpd,
    ];

    /// Builds this technique's index over `net` in memory, timed and
    /// sized. Every in-memory build in the workspace comes through here,
    /// so each technique's parameters (TNR's defaults, ALT's landmark
    /// count, the arc-flag grid) exist once.
    pub fn build(self, net: &RoadNetwork) -> EngineBackend {
        let start = Instant::now();
        let (backend, index_bytes) = self.build_index(net);
        EngineBackend {
            kind: self,
            backend,
            build_time: start.elapsed(),
            index_bytes,
            aliases: Vec::new(),
        }
    }

    /// [`BackendKind::build`] without the timing. A CH built here owns its
    /// hierarchy; the engine's CH slot builds one it shares with POI
    /// registration instead.
    fn build_index(self, net: &RoadNetwork) -> (Box<dyn Backend>, usize) {
        match self {
            BackendKind::Dijkstra => (Box::new(Baseline), 0),
            BackendKind::Ch => ch_slot(
                Arc::new(ContractionHierarchy::build(net)),
                PoiTable::empty(),
            ),
            BackendKind::Tnr => sized(Tnr::build(net, &TnrParams::default())),
            BackendKind::Silc => sized(Silc::build(net)),
            BackendKind::Pcpd => sized(Pcpd::build(net)),
            BackendKind::Alt => sized(Alt::build(
                net,
                &AltParams {
                    num_landmarks: 16.min(net.num_nodes()),
                    ..AltParams::default()
                },
            )),
            BackendKind::ArcFlags => sized(ArcFlags::build(net, &ArcFlagsParams::default())),
            BackendKind::Hl => sized(Hl::build(net)),
        }
    }

    /// Stable protocol id.
    pub fn wire_id(self) -> u8 {
        match self {
            BackendKind::Dijkstra => 0,
            BackendKind::Ch => 1,
            BackendKind::Tnr => 2,
            BackendKind::Silc => 3,
            BackendKind::Pcpd => 4,
            BackendKind::Alt => 5,
            BackendKind::ArcFlags => 6,
            BackendKind::Hl => 7,
        }
    }

    /// Inverse of [`BackendKind::wire_id`].
    pub fn from_wire(id: u8) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.wire_id() == id)
    }

    /// CLI name (lowercase).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Dijkstra => "dijkstra",
            BackendKind::Ch => "ch",
            BackendKind::Tnr => "tnr",
            BackendKind::Silc => "silc",
            BackendKind::Pcpd => "pcpd",
            BackendKind::Alt => "alt",
            BackendKind::ArcFlags => "arcflags",
            BackendKind::Hl => "hl",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(s))
    }

    /// Parses a comma-separated backend list ("ch,tnr,alt"). There is
    /// no alias for a set: the default set is what an omitted list
    /// means.
    ///
    /// ```
    /// use spq_serve::BackendKind;
    ///
    /// let kinds = BackendKind::parse_list("ch, silc,ch").unwrap();
    /// assert_eq!(kinds, [BackendKind::Ch, BackendKind::Silc]);
    /// assert!(BackendKind::parse_list("all").is_err());
    /// ```
    pub fn parse_list(csv: &str) -> Result<Vec<BackendKind>, String> {
        let mut out = Vec::new();
        for part in csv.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let kind =
                BackendKind::parse(part).ok_or_else(|| format!("unknown backend '{part}'"))?;
            if !out.contains(&kind) {
                out.push(kind);
            }
        }
        if out.is_empty() {
            return Err("empty backend list".into());
        }
        Ok(out)
    }

    /// Whether preprocessing needs all-pairs shortest paths (confines
    /// the technique to small networks, §4.3).
    pub fn needs_all_pairs(self) -> bool {
        matches!(self, BackendKind::Silc | BackendKind::Pcpd)
    }

    /// Whether this technique's index can be loaded from a file: only
    /// CH (`SPQC`) and HL (`SPQH`) have an on-disk format. The one
    /// check behind `--index`, a reload spec's `index=` line and
    /// [`Engine::load_backend`], so a kind that can never load is
    /// refused by name before any network is read or index built.
    ///
    /// ```
    /// use spq_serve::BackendKind;
    ///
    /// assert!(BackendKind::Hl.check_loadable().is_ok());
    /// let err = BackendKind::Tnr.check_loadable().unwrap_err();
    /// assert_eq!(err, "tnr has no on-disk index format; only ch and hl load from a file");
    /// ```
    pub fn check_loadable(self) -> Result<(), String> {
        match self {
            BackendKind::Ch | BackendKind::Hl => Ok(()),
            kind => Err(format!(
                "{} has no on-disk index format; only ch and hl load from a file",
                kind.name()
            )),
        }
    }
}

/// Boxes an index with its [`IndexSize`], read while the concrete type
/// is still at hand.
fn sized<B: Backend + IndexSize + 'static>(index: B) -> (Box<dyn Backend>, usize) {
    let bytes = index.index_size_bytes();
    (Box::new(index), bytes)
}

/// Reads one index from `path` with its container's `read`, refusing
/// one that covers a different number of vertices than `net`.
fn read_index<T>(
    path: &Path,
    net: &RoadNetwork,
    read: impl FnOnce(&mut BufReader<File>) -> Result<T, IndexLoadError>,
    num_nodes: impl FnOnce(&T) -> usize,
) -> Result<T, String> {
    let shown = path.display();
    let f = File::open(path).map_err(|e| format!("{shown}: {e}"))?;
    let index = read(&mut BufReader::new(f)).map_err(|e| format!("{shown}: {e}"))?;
    let nodes = num_nodes(&index);
    if nodes != net.num_nodes() {
        return Err(format!(
            "{shown}: index covers {nodes} vertices but the network has {}",
            net.num_nodes()
        ));
    }
    Ok(index)
}

/// A hierarchy behind the one CH session type, answering kNN from
/// `pois`.
fn ch_slot(ch: Arc<ContractionHierarchy>, pois: Arc<PoiTable>) -> (Box<dyn Backend>, usize) {
    let bytes = ch.index_size_bytes();
    (Box::new(ManyBackend::new(ch, pois)), bytes)
}

/// One built backend inside an [`Engine`].
pub struct EngineBackend {
    /// Which technique this is.
    pub kind: BackendKind,
    /// The index behind the unified trait.
    pub backend: Box<dyn Backend>,
    /// Wall-clock preprocessing (or load) time.
    pub build_time: Duration,
    /// The index's in-memory footprint as its own type reports it
    /// ([`IndexSize`], the paper's Figure 6(a)); 0 for the index-free
    /// baseline and for backends added with [`Engine::with_backend`].
    pub index_bytes: usize,
    /// Extra wire ids this backend answers for (degraded techniques
    /// whose own index failed validation).
    pub aliases: Vec<u8>,
}

/// One serving slot requested from [`Engine::build_with_indexes`]:
/// either build the index in memory or load a persisted one.
#[derive(Debug, Clone)]
pub struct BackendSpec {
    /// Which technique to serve.
    pub kind: BackendKind,
    /// Persisted index to load instead of building (`None`: build).
    pub index: Option<PathBuf>,
}

impl BackendSpec {
    /// A slot built in memory.
    pub fn built(kind: BackendKind) -> BackendSpec {
        BackendSpec { kind, index: None }
    }

    /// A slot loaded from a persisted index file.
    pub fn from_file(kind: BackendKind, path: impl Into<PathBuf>) -> BackendSpec {
        BackendSpec {
            kind,
            index: Some(path.into()),
        }
    }

    /// Parses the CLI form `kind=path` (e.g. `hl=idx/usa.hl`), refusing
    /// a kind with no on-disk format ([`BackendKind::check_loadable`]).
    pub fn parse(s: &str) -> Result<BackendSpec, String> {
        let (name, path) = s
            .split_once('=')
            .ok_or_else(|| format!("--index wants kind=path, got '{s}'"))?;
        let kind = BackendKind::parse(name.trim())
            .ok_or_else(|| format!("unknown backend '{}' in --index", name.trim()))?;
        kind.check_loadable()?;
        if path.trim().is_empty() {
            return Err(format!("--index {name}= has an empty path"));
        }
        Ok(BackendSpec::from_file(kind, path.trim()))
    }
}

/// Logs a recovery scan's outcome in the greppable `[recovery]` form
/// the RUNBOOK documents. Called by the engine builder and by the
/// reload path before POI loads.
pub fn log_recovery(report: &atomic_io::RecoveryReport) {
    for q in &report.quarantined {
        eprintln!(
            "[recovery] quarantined {} -> {}: {}",
            q.original.display(),
            q.quarantined_to.display(),
            q.reason
        );
    }
    if report.scanned > 0 {
        eprintln!(
            "[recovery] scanned {} file(s): {} verified container(s), {} quarantined",
            report.scanned,
            report.verified,
            report.quarantined.len()
        );
    }
}

/// A recorded startup downgrade: `requested` failed index validation
/// and its wire id is being answered by `served_by` instead.
#[derive(Debug, Clone)]
pub struct Degradation {
    /// The technique whose index failed to load.
    pub requested: BackendKind,
    /// The technique now answering its wire id.
    pub served_by: BackendKind,
    /// The (typed, rendered) load error that caused the downgrade.
    pub reason: String,
}

/// The set of indexes a server instance answers from: one road network
/// plus any mix of built backends.
pub struct Engine {
    net: RoadNetwork,
    backends: Vec<EngineBackend>,
    degradations: Vec<Degradation>,
    /// The hierarchy behind the CH serving slot, kept so POI sets can
    /// be indexed against exactly the structure that serves queries.
    ch: Option<Arc<ContractionHierarchy>>,
    /// Registered POI sets and their bucket-CH indexes (installed once
    /// per engine via [`Engine::register_pois`]; empty until then).
    pois: Arc<PoiTable>,
}

impl Engine {
    /// Builds the requested indexes over `net` (announcing each build on
    /// stderr, since the all-pairs techniques can take a while).
    pub fn build(net: RoadNetwork, kinds: &[BackendKind]) -> Engine {
        let specs: Vec<BackendSpec> = kinds.iter().map(|&k| BackendSpec::built(k)).collect();
        Engine::build_with_indexes(net, &specs, true).expect("in-memory builds cannot fail")
    }

    /// Loads a persisted index, with its [`IndexSize`]. The error is a
    /// kind with no on-disk format ([`BackendKind::check_loadable`],
    /// decided before the file is opened), the rendered
    /// [`spq_graph::binio::IndexLoadError`] (magic / version / checksum /
    /// truncation all produce distinct, typed failures at the persist
    /// layer), or a node-count mismatch against `net`.
    pub fn load_backend(
        kind: BackendKind,
        path: &Path,
        net: &RoadNetwork,
    ) -> Result<(Box<dyn Backend>, usize), String> {
        kind.check_loadable()?;
        if kind == BackendKind::Ch {
            // One CH session type: the slot `build_with_indexes` serves,
            // here without POI sets.
            return Ok(ch_slot(Self::load_ch(path, net)?, PoiTable::empty()));
        }
        let hl = read_index(path, net, Hl::read_binary, Hl::num_nodes)?;
        Ok(sized(hl))
    }

    /// Loads a persisted CH, keeping the hierarchy shareable with the
    /// POI machinery.
    fn load_ch(path: &Path, net: &RoadNetwork) -> Result<Arc<ContractionHierarchy>, String> {
        read_index(
            path,
            net,
            ContractionHierarchy::read_binary,
            ContractionHierarchy::num_nodes,
        )
        .map(Arc::new)
    }

    /// Builds or loads the requested serving slots, degrading failed
    /// index loads down the chain (HL → CH → Dijkstra) when
    /// `degrade` is true. With `degrade` false the first load failure is
    /// fatal — the operator asked for exactly these indexes.
    ///
    /// A degraded wire id keeps answering (correctly, via the fallback
    /// backend); the downgrade is logged, recorded in
    /// [`Engine::degradations`], and surfaced in the server's STATS
    /// text. In-memory builds cannot fail, so a spec without an index
    /// path never degrades.
    pub fn build_with_indexes(
        net: RoadNetwork,
        specs: &[BackendSpec],
        degrade: bool,
    ) -> Result<Engine, String> {
        let mut engine = Engine {
            net,
            backends: Vec::new(),
            degradations: Vec::new(),
            ch: None,
            pois: PoiTable::empty(),
        };
        // Recovery scan: before touching any persisted index, sweep the
        // directories they live in for crash debris (orphaned `*.tmp`
        // files, torn or bit-rotted containers) and quarantine it. A
        // quarantined index then fails its load below with the precise
        // scan reason attached, feeding the degradation chain — or, in
        // strict (reload) mode, failing the build with a typed message.
        let index_paths: Vec<&Path> = specs.iter().filter_map(|s| s.index.as_deref()).collect();
        let recovery = if index_paths.is_empty() {
            atomic_io::RecoveryReport::default()
        } else {
            match atomic_io::recover_dirs_of(index_paths.iter().copied()) {
                Ok(r) => r,
                Err(e) => {
                    // A scan failure (permissions, disk) must not take
                    // down startup on its own; the loads below will hit
                    // the same wall and report it.
                    eprintln!("[recovery] scan failed: {e}");
                    atomic_io::RecoveryReport::default()
                }
            }
        };
        log_recovery(&recovery);
        let annotate = |reason: String, path: &Path| -> String {
            match recovery.reason_for(path) {
                Some(q) => format!(
                    "{reason} (quarantined by recovery scan: {}; moved to {})",
                    q.reason,
                    q.quarantined_to.display()
                ),
                None => reason,
            }
        };
        let mut failed: Vec<(BackendKind, String)> = Vec::new();
        for spec in specs {
            let start = Instant::now();
            let slot = match (spec.kind, &spec.index) {
                // The CH slot shares its hierarchy with POI registration,
                // so it is built here rather than by `BackendKind::build`.
                (BackendKind::Ch, index) => match index {
                    None => Ok(Arc::new(ContractionHierarchy::build(&engine.net))),
                    Some(path) => Self::load_ch(path, &engine.net),
                }
                .map(|ch| {
                    engine.ch = Some(Arc::clone(&ch));
                    ch_slot(ch, Arc::clone(&engine.pois))
                }),
                (kind, None) => Ok(kind.build_index(&engine.net)),
                (kind, Some(path)) => Self::load_backend(kind, path, &engine.net),
            };
            let (backend, index_bytes) = match slot {
                Ok(slot) => slot,
                Err(reason) => {
                    let reason = match &spec.index {
                        Some(path) => annotate(reason, path),
                        None => reason,
                    };
                    if !degrade {
                        return Err(format!("cannot load {} index: {reason}", spec.kind.name()));
                    }
                    failed.push((spec.kind, reason));
                    continue;
                }
            };
            let build_time = start.elapsed();
            match &spec.index {
                // The container's size beside its load time: the memory
                // column of the per-(network, backend) index row.
                Some(path) => eprintln!(
                    "[engine] loaded {} in {build_time:.2?} ({} bytes)",
                    spec.kind.name(),
                    std::fs::metadata(path).map_or(0, |m| m.len())
                ),
                None => eprintln!("[engine] built {} in {build_time:.2?}", spec.kind.name()),
            }
            engine.backends.push(EngineBackend {
                kind: spec.kind,
                backend,
                build_time,
                index_bytes,
                aliases: Vec::new(),
            });
        }
        for (kind, reason) in failed {
            // The chain: a failed index is answered by CH when CH is
            // being served (and itself loaded cleanly), else by the
            // index-free Dijkstra baseline — appended on demand so the
            // wire id never goes dark.
            let fallback = if kind != BackendKind::Ch {
                engine.position_of_wire(BackendKind::Ch.wire_id())
            } else {
                None
            };
            let (pos, served_by) = match fallback {
                Some(pos) => (pos, BackendKind::Ch),
                None => {
                    let pos = match engine.position_of_wire(BackendKind::Dijkstra.wire_id()) {
                        Some(pos) => pos,
                        None => {
                            engine
                                .backends
                                .push(BackendKind::Dijkstra.build(&engine.net));
                            engine.backends.len() - 1
                        }
                    };
                    (pos, BackendKind::Dijkstra)
                }
            };
            engine.backends[pos].aliases.push(kind.wire_id());
            eprintln!(
                "[engine] DEGRADED {} -> {}: {reason}",
                kind.name(),
                served_by.name()
            );
            engine.degradations.push(Degradation {
                requested: kind,
                served_by,
                reason,
            });
        }
        Ok(engine)
    }

    /// Startup downgrades recorded by [`Engine::build_with_indexes`].
    pub fn degradations(&self) -> &[Degradation] {
        &self.degradations
    }

    /// Registers POI sets for kNN serving: validates each against the
    /// network, builds its bucket-CH index against this engine's own
    /// hierarchy, and installs the table. Callable at most once per
    /// engine (the table is immutable once serving; a reload publishes
    /// a new engine with freshly indexed sets).
    pub fn register_pois(&self, sets: Vec<PoiSet>) -> Result<(), String> {
        if sets.is_empty() {
            return Ok(());
        }
        let ch = self
            .ch
            .as_ref()
            .ok_or("POI registration needs a CH slot in the serving set")?;
        let mut entries: Vec<PoiEntry> = Vec::with_capacity(sets.len());
        for set in sets {
            set.validate_for(self.net.num_nodes())
                .map_err(|e| format!("POI set '{}': {e}", set.name()))?;
            if entries.iter().any(|e| e.set.name() == set.name()) {
                return Err(format!("POI set '{}' registered twice", set.name()));
            }
            let index =
                PoiIndex::build(ch, &set).map_err(|e| format!("POI set '{}': {e}", set.name()))?;
            entries.push(PoiEntry { set, index });
        }
        self.pois.install(entries)
    }

    /// The registered POI sets (empty until [`Engine::register_pois`]).
    pub fn poi_sets(&self) -> &[PoiEntry] {
        self.pois.entries()
    }

    /// Looks up one registered POI set by name.
    pub fn poi_set(&self, name: &str) -> Option<&PoiEntry> {
        self.pois.get(name)
    }

    /// Adds a pre-built (possibly custom) backend; used by tests to
    /// inject deliberately wrong implementations against the self-check.
    pub fn with_backend(mut self, kind: BackendKind, backend: Box<dyn Backend>) -> Engine {
        self.backends.push(EngineBackend {
            kind,
            backend,
            build_time: Duration::ZERO,
            index_bytes: 0,
            aliases: Vec::new(),
        });
        self
    }

    /// The network every backend answers over.
    pub fn net(&self) -> &RoadNetwork {
        &self.net
    }

    /// The built backends, in serving order.
    pub fn backends(&self) -> &[EngineBackend] {
        &self.backends
    }

    /// Engine position of the backend answering the given wire id —
    /// its own, or one it inherited through a startup degradation.
    pub fn position_of_wire(&self, wire_id: u8) -> Option<usize> {
        self.backends
            .iter()
            .position(|b| b.kind.wire_id() == wire_id)
            .or_else(|| {
                self.backends
                    .iter()
                    .position(|b| b.aliases.contains(&wire_id))
            })
    }

    /// Display names in serving order (for stats rendering).
    pub fn backend_names(&self) -> Vec<&str> {
        self.backends
            .iter()
            .map(|b| b.backend.backend_name())
            .collect()
    }

    /// The startup self-check: [`verify_session`] over every backend, the
    /// defects rendered one per line.
    ///
    /// Serving wrong answers fast is worse than not serving — the paper
    /// itself hinges on this point (a faulty TNR implementation
    /// invalidated previously published results, §1) — so callers treat
    /// any `Err` as fatal and exit non-zero before accepting traffic.
    pub fn self_check(&self, samples: usize, seed: u64) -> Result<(), String> {
        let mut defects = Vec::new();
        for eb in &self.backends {
            let mut session = eb.backend.session(&self.net);
            let report = verify_session(&self.net, session.as_mut(), samples, seed);
            let name = eb.backend.backend_name();
            defects.extend(report.defects.iter().map(|d| format!("{name}: {d}")));
        }
        if defects.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "self-check found {} defect(s):\n  {}",
                defects.len(),
                defects.join("\n  ")
            ))
        }
    }
}

/// Oracle pairs per backend in the serving self-check: the startup gate
/// of `spq serve` and `spq loadgen`, and the check every reload passes
/// before it is published.
pub const SELFCHECK_QUERIES: usize = 32;

/// Seed of the serving self-check's pair sampler, and the base seed the
/// auditor derives its per-round streams from.
pub const SELFCHECK_SEED: u64 = 7;

/// Defects one [`verify_session`] run collects before it stops: one
/// already disqualifies an index, the rest only help diagnose it.
const MAX_DEFECTS: usize = 8;

/// One disagreement between a session and the Dijkstra oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Defect {
    /// Query source.
    pub s: NodeId,
    /// Query target.
    pub t: NodeId,
    /// The oracle's distance.
    pub expected: Option<Dist>,
    /// What the session got wrong.
    pub kind: DefectKind,
}

/// What a [`Defect`] got wrong; each check of [`verify_session`] has
/// its own variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefectKind {
    /// The distance query answered this instead.
    Distance(Option<Dist>),
    /// No path for a pair the oracle connects.
    MissingPath,
    /// The path query claimed this length.
    PathLength(Dist),
    /// The path runs between these vertices instead (`None`: it is
    /// empty).
    PathEndpoints(Option<(NodeId, NodeId)>),
    /// Walked over the network, the path has this length (`None`: some
    /// step is not an edge).
    PathEdges(Option<Dist>),
}

impl fmt::Display for Defect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Defect {
            s,
            t,
            expected,
            kind,
        } = self;
        match kind {
            DefectKind::Distance(got) => write!(f, "distance({s}, {t}) = {got:?}")?,
            DefectKind::MissingPath => write!(f, "path({s}, {t}) missing")?,
            DefectKind::PathLength(claimed) => write!(f, "path({s}, {t}) claims length {claimed}")?,
            DefectKind::PathEndpoints(Some((first, last))) => {
                write!(f, "path({s}, {t}) runs from {first} to {last}")?
            }
            DefectKind::PathEndpoints(None) => write!(f, "path({s}, {t}) is empty")?,
            DefectKind::PathEdges(walked) => {
                write!(f, "path({s}, {t}) walks to {walked:?} over the network")?
            }
        }
        write!(f, ", oracle says {expected:?}")
    }
}

/// What one [`verify_session`] run found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Pairs checked.
    pub checked: usize,
    /// Defects found, at most eight (empty: the session agrees
    /// with the oracle on every checked pair).
    pub defects: Vec<Defect>,
}

impl VerifyReport {
    /// Whether no defect was found.
    pub fn is_clean(&self) -> bool {
        self.defects.is_empty()
    }
}

/// The oracle check every index passes before it is served
/// ([`Engine::self_check`]) or certified (`spq verify`, `verify_all`):
/// on the first `samples` pairs of [`PairSampler`]`(seed)`,
/// the session's distance, its path's claimed length, the path's
/// endpoints and the path's edges must all agree with Dijkstra. Stops
/// after eight defects.
pub fn verify_session(
    net: &RoadNetwork,
    session: &mut dyn Session,
    samples: usize,
    seed: u64,
) -> VerifyReport {
    let mut oracle = Dijkstra::new(net.num_nodes());
    let mut report = VerifyReport {
        checked: 0,
        defects: Vec::new(),
    };
    for (s, t) in PairSampler::new(net.num_nodes(), seed).take(samples) {
        if report.defects.len() >= MAX_DEFECTS {
            break;
        }
        report.checked += 1;
        oracle.run_to_target(net, s, t);
        let expected = oracle.distance(t);
        if let Some(kind) = check_pair(net, session, s, t, expected) {
            report.defects.push(Defect {
                s,
                t,
                expected,
                kind,
            });
        }
    }
    report
}

/// One pair of [`verify_session`]; a wrong distance is reported without
/// asking for the path.
fn check_pair(
    net: &RoadNetwork,
    session: &mut dyn Session,
    s: NodeId,
    t: NodeId,
    expected: Option<Dist>,
) -> Option<DefectKind> {
    let got = session.distance(s, t);
    if got != expected {
        return Some(DefectKind::Distance(got));
    }
    let Some((claimed, path)) = session.shortest_path(s, t) else {
        return expected.map(|_| DefectKind::MissingPath);
    };
    let ends = path.first().copied().zip(path.last().copied());
    if Some(claimed) != expected {
        Some(DefectKind::PathLength(claimed))
    } else if ends != Some((s, t)) {
        Some(DefectKind::PathEndpoints(ends))
    } else {
        let walked = net.path_length(&path);
        (walked != expected).then_some(DefectKind::PathEdges(walked))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_ch::ChQuery;
    use spq_dijkstra::BiDijkstra;
    use spq_graph::binio;
    use spq_graph::toy::figure1;
    use spq_synth::SynthParams;
    use std::io::Write;

    #[test]
    fn wire_ids_roundtrip_and_parse() {
        for kind in BackendKind::ALL {
            assert_eq!(BackendKind::from_wire(kind.wire_id()), Some(kind));
            assert_eq!(BackendKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(BackendKind::from_wire(200), None);
        assert_eq!(
            BackendKind::parse_list("ch, tnr,ch").unwrap(),
            vec![BackendKind::Ch, BackendKind::Tnr]
        );
        // No set alias: "all" is an unknown name like any other.
        let err = BackendKind::parse_list("all").unwrap_err();
        assert!(err.contains("unknown backend 'all'"), "{err}");
        assert!(BackendKind::parse_list("ch,all").is_err());
        assert!(BackendKind::parse_list("bogus").is_err());
        assert!(BackendKind::parse_list("").is_err());
    }

    #[test]
    fn clean_engine_passes_self_check() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(
            spq_synth::test_vertices(300),
            11,
        ));
        let engine = Engine::build(net, &BackendKind::DEFAULT);
        engine.self_check(20, 7).expect("clean engine");
        assert_eq!(engine.backends().len(), BackendKind::DEFAULT.len());
        for eb in engine.backends() {
            assert!(engine.position_of_wire(eb.kind.wire_id()).is_some());
        }
    }

    /// A backend that claims every distance is 1 — the self-check must
    /// reject it, which is what guarantees a corrupt index can never
    /// reach serving.
    struct Lying;
    struct LyingSession;

    impl Backend for Lying {
        fn backend_name(&self) -> &'static str {
            "Lying"
        }
        fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
            Box::new(LyingSession)
        }
    }

    impl Session for LyingSession {
        fn distance(&mut self, _s: NodeId, _t: NodeId) -> Option<Dist> {
            Some(1)
        }
        fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
            Some((1, vec![s, t]))
        }
    }

    #[test]
    fn backend_specs_parse_the_cli_form() {
        let spec = BackendSpec::parse("hl=idx/usa.hl").unwrap();
        assert_eq!(spec.kind, BackendKind::Hl);
        assert_eq!(
            spec.index.as_deref(),
            Some(std::path::Path::new("idx/usa.hl"))
        );
        assert_eq!(BackendSpec::parse("ch=a.ch").unwrap().kind, BackendKind::Ch);
        assert!(BackendSpec::parse("hl").is_err());
        assert!(BackendSpec::parse("bogus=x").is_err());
        assert!(BackendSpec::parse("ch=").is_err());
    }

    /// Only CH and HL have a container; every other kind is refused when
    /// its `kind=path` is parsed, by name and listing the two that load,
    /// and `load_backend` gives the same refusal before it opens the
    /// (here nonexistent) file.
    #[test]
    fn kinds_without_a_container_are_refused_before_any_load() {
        let net = figure1();
        let unloadable: Vec<BackendKind> = BackendKind::ALL
            .into_iter()
            .filter(|k| !matches!(k, BackendKind::Ch | BackendKind::Hl))
            .collect();
        assert_eq!(unloadable.len(), 6);
        for kind in unloadable {
            let err = BackendSpec::parse(&format!("{}=/x", kind.name())).unwrap_err();
            assert!(err.starts_with(kind.name()), "{err}");
            assert!(err.contains("only ch and hl"), "{err}");
            let path = Path::new("/nonexistent/index.bin");
            match Engine::load_backend(kind, path, &net) {
                Err(load_err) => assert_eq!(load_err, err),
                Ok(_) => panic!("{} loaded from {}", kind.name(), path.display()),
            }
        }
    }

    #[test]
    fn failed_index_loads_degrade_down_the_chain() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 13));
        // HL's file is missing → served by CH; CH is clean (built).
        let specs = [
            BackendSpec::built(BackendKind::Ch),
            BackendSpec::from_file(BackendKind::Hl, "/nonexistent/usa.hl"),
        ];
        let engine = Engine::build_with_indexes(net.clone(), &specs, true).unwrap();
        let pos = engine
            .position_of_wire(BackendKind::Hl.wire_id())
            .expect("degraded wire id keeps answering");
        assert_eq!(engine.backends()[pos].kind, BackendKind::Ch);
        assert_eq!(engine.degradations().len(), 1);
        assert_eq!(engine.degradations()[0].requested, BackendKind::Hl);
        assert_eq!(engine.degradations()[0].served_by, BackendKind::Ch);

        // CH itself failing, with no Dijkstra requested, appends the
        // index-free baseline as the end of the chain.
        let specs = [BackendSpec::from_file(
            BackendKind::Ch,
            "/nonexistent/usa.ch",
        )];
        let engine = Engine::build_with_indexes(net.clone(), &specs, true).unwrap();
        let pos = engine
            .position_of_wire(BackendKind::Ch.wire_id())
            .expect("CH wire id degrades to dijkstra");
        assert_eq!(engine.backends()[pos].kind, BackendKind::Dijkstra);

        // --no-degrade semantics: the load failure is fatal.
        let err = Engine::build_with_indexes(
            net,
            &[BackendSpec::from_file(
                BackendKind::Ch,
                "/nonexistent/usa.ch",
            )],
            false,
        )
        .err()
        .expect("strict mode fails the build");
        assert!(err.contains("cannot load ch index"), "{err}");
    }

    /// A pre-diet `SPQH` file (version 1, valid checksum) is not debris
    /// — the recovery scan leaves it — but the one reader refuses it by
    /// its number, and the chain hands the wire id to CH with that
    /// reason on record.
    #[test]
    fn version_1_hl_container_degrades_to_ch_as_legacy() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 13));
        let dir = std::env::temp_dir().join(format!("spq_serve_hl_v1_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old.hl");
        let mut v1 = Vec::new();
        binio::write_container(&mut v1, b"SPQH", 1, |w| {
            w.write_all(b"rank first hub dist SPQC")
        })
        .unwrap();
        std::fs::write(&path, &v1).unwrap();

        let specs = [
            BackendSpec::built(BackendKind::Ch),
            BackendSpec::from_file(BackendKind::Hl, &path),
        ];
        let engine = Engine::build_with_indexes(net.clone(), &specs, true).unwrap();
        let [degraded] = engine.degradations() else {
            panic!("one degradation, got {:?}", engine.degradations());
        };
        assert_eq!(degraded.requested, BackendKind::Hl);
        assert_eq!(degraded.served_by, BackendKind::Ch);
        let expect = IndexLoadError::LegacyVersion {
            found: 1,
            supported: 2,
        };
        assert!(
            degraded.reason.ends_with(&expect.to_string()),
            "{}",
            degraded.reason
        );
        assert!(path.exists(), "a legacy file is left for the operator");

        let err = Engine::build_with_indexes(net, &specs, false)
            .err()
            .expect("strict mode fails the build");
        assert!(err.contains("cannot load hl index"), "{err}");
        assert!(err.contains("legacy format version 1"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Index files from before `SPQC` version 4 — a version-3 CH
    /// container, and an `SPQH` that embeds one — carry valid checksums,
    /// so the recovery scan leaves them where they are; the one reader
    /// refuses both by version number, and the chain HL → CH → Dijkstra
    /// keeps every wire id answering with that reason on record.
    #[test]
    fn pre_v4_ch_containers_degrade_down_the_chain_as_legacy() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 13));
        let dir = std::env::temp_dir().join(format!("spq_serve_ch_v3_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        let ch_path = dir.join("old.ch");
        let mut v3 = Vec::new();
        binio::write_container(&mut v3, b"SPQC", 3, |w| {
            w.write_all(b"base arrays + flat halves")
        })
        .unwrap();
        std::fs::write(&ch_path, &v3).unwrap();

        // A current SPQH whose embedded hierarchy (the tail of the body)
        // is relabelled version 3, both checksums recomputed.
        let hl = Hl::build(&net);
        let mut file = Vec::new();
        hl.write_binary(&mut file).unwrap();
        let inner = file.len() - hl.hierarchy().serialized_len();
        file[inner + 4..inner + 8].copy_from_slice(&3u32.to_le_bytes());
        let sum = binio::xxhash64(&file[inner + binio::CONTAINER_HEADER_LEN..], 3);
        file[inner + 16..inner + 24].copy_from_slice(&sum.to_le_bytes());
        let sum = binio::xxhash64(&file[binio::CONTAINER_HEADER_LEN..], 2);
        file[16..24].copy_from_slice(&sum.to_le_bytes());
        let hl_path = dir.join("old.hl");
        std::fs::write(&hl_path, &file).unwrap();

        let specs = [
            BackendSpec::from_file(BackendKind::Ch, &ch_path),
            BackendSpec::from_file(BackendKind::Hl, &hl_path),
        ];
        let engine = Engine::build_with_indexes(net.clone(), &specs, true).unwrap();
        let legacy = IndexLoadError::LegacyVersion {
            found: 3,
            supported: 4,
        }
        .to_string();
        let [ch_down, hl_down] = engine.degradations() else {
            panic!("two degradations, got {:?}", engine.degradations());
        };
        assert_eq!(
            (ch_down.requested, ch_down.served_by),
            (BackendKind::Ch, BackendKind::Dijkstra)
        );
        assert_eq!(
            (hl_down.requested, hl_down.served_by),
            (BackendKind::Hl, BackendKind::Ch)
        );
        for down in [ch_down, hl_down] {
            assert!(down.reason.ends_with(&legacy), "{}", down.reason);
        }
        for kind in [BackendKind::Ch, BackendKind::Hl] {
            let pos = engine.position_of_wire(kind.wire_id()).unwrap();
            assert_eq!(engine.backends()[pos].kind, BackendKind::Dijkstra);
        }
        assert!(
            ch_path.exists() && hl_path.exists(),
            "legacy files are left for the operator, not quarantined"
        );

        let err = Engine::build_with_indexes(net, &specs[1..], false)
            .err()
            .expect("strict mode fails the build");
        assert!(err.contains("cannot load hl index"), "{err}");
        assert!(err.contains("legacy format version 3"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A loaded CH index is served by the same session type as the CH
    /// slot `build_with_indexes` builds, records the same index bytes,
    /// answers like the oracle, and is refused against a network it does
    /// not cover.
    #[test]
    fn loaded_ch_index_is_served_by_the_one_ch_session_type() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(200, 17));
        let dir = std::env::temp_dir().join(format!("spq_serve_ch_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.ch");
        let ch = ContractionHierarchy::build(&net);
        let mut file = Vec::new();
        ch.write_binary(&mut file).unwrap();
        std::fs::write(&path, &file).unwrap();

        let (loaded, bytes) =
            Engine::load_backend(BackendKind::Ch, &path, &net).expect("clean load");
        let built = Engine::build(net.clone(), &[BackendKind::Ch]);
        assert_eq!(
            [loaded.backend_name()],
            built.backend_names()[..],
            "one CH session type, loaded or built"
        );
        assert_eq!(bytes, ch.index_size_bytes());
        assert_eq!(built.backends()[0].index_bytes, bytes);
        let mut session = loaded.session(&net);
        let mut oracle = Dijkstra::new(net.num_nodes());
        for (s, t) in PairSampler::new(net.num_nodes(), 5).take(40) {
            oracle.run_to_target(&net, s, t);
            assert_eq!(session.distance(s, t), oracle.distance(t), "({s}, {t})");
            match session.shortest_path(s, t) {
                Some((d, path)) => {
                    assert_eq!(Some(d), oracle.distance(t), "path ({s}, {t})");
                    assert_eq!(net.path_length(&path), Some(d), "path ({s}, {t})");
                }
                None => assert_eq!(oracle.distance(t), None, "path ({s}, {t})"),
            }
        }

        let other = spq_synth::generate(&SynthParams::with_target_vertices(64, 17));
        let err = Engine::load_backend(BackendKind::Ch, &path, &other)
            .err()
            .expect("a node-count mismatch is refused");
        assert!(err.contains("vertices"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// HL loads through the same reader as CH: the loaded index answers
    /// like the oracle, records the built index's bytes, and is refused
    /// against a network it does not cover.
    #[test]
    fn loaded_hl_index_answers_and_sizes_like_the_built_one() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(200, 19));
        let dir = std::env::temp_dir().join(format!("spq_serve_hl_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.hl");
        let hl = Hl::build(&net);
        let mut file = Vec::new();
        hl.write_binary(&mut file).unwrap();
        std::fs::write(&path, &file).unwrap();

        let (loaded, bytes) =
            Engine::load_backend(BackendKind::Hl, &path, &net).expect("clean load");
        assert_eq!(bytes, hl.index_size_bytes());
        assert_eq!(BackendKind::Hl.build(&net).index_bytes, bytes);
        let mut session = loaded.session(&net);
        let report = verify_session(&net, session.as_mut(), 40, 3);
        assert!(report.is_clean(), "{report:?}");

        let other = spq_synth::generate(&SynthParams::with_target_vertices(64, 19));
        let err = Engine::load_backend(BackendKind::Hl, &path, &other)
            .err()
            .expect("a node-count mismatch is refused");
        assert!(err.contains("vertices but the network has"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The two loadable kinds do not read each other's files: a CH
    /// container named as HL (and the reverse) is refused by its magic,
    /// with the path in the message, and the degradation chain still
    /// keeps the wire id answering.
    #[test]
    fn a_container_of_the_other_loadable_kind_is_refused_by_its_magic() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 23));
        let dir = std::env::temp_dir().join(format!("spq_serve_swapped_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let ch_path = dir.join("net.ch");
        let hl_path = dir.join("net.hl");
        let mut file = Vec::new();
        ContractionHierarchy::build(&net)
            .write_binary(&mut file)
            .unwrap();
        std::fs::write(&ch_path, &file).unwrap();
        file.clear();
        Hl::build(&net).write_binary(&mut file).unwrap();
        std::fs::write(&hl_path, &file).unwrap();

        for (kind, path, expected) in [
            (BackendKind::Hl, &ch_path, "SPQH"),
            (BackendKind::Ch, &hl_path, "SPQC"),
        ] {
            let err = Engine::load_backend(kind, path, &net)
                .err()
                .expect("a container of another kind is refused");
            assert!(err.starts_with(&path.display().to_string()), "{err}");
            assert!(
                err.contains(&format!("not a {expected} index file")),
                "{err}"
            );
        }

        let specs = [BackendSpec::from_file(BackendKind::Hl, &ch_path)];
        let engine = Engine::build_with_indexes(net, &specs, true).unwrap();
        let [degraded] = engine.degradations() else {
            panic!("one degradation, got {:?}", engine.degradations());
        };
        assert_eq!(degraded.requested, BackendKind::Hl);
        assert!(degraded.reason.contains("bad magic"), "{}", degraded.reason);
        assert!(engine.position_of_wire(BackendKind::Hl.wire_id()).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The default set holds no build that needs all-pairs shortest
    /// paths; every kind left out of it is still in `ALL` and served by
    /// name through a backend list.
    #[test]
    fn default_set_leaves_out_the_quadratic_builds_but_serves_them_by_name() {
        assert_eq!(
            BackendKind::DEFAULT.map(BackendKind::name),
            ["dijkstra", "ch", "tnr", "alt", "hl"]
        );
        assert!(BackendKind::DEFAULT.iter().all(|k| !k.needs_all_pairs()));
        let left_out: Vec<BackendKind> = BackendKind::ALL
            .into_iter()
            .filter(|k| !BackendKind::DEFAULT.contains(k))
            .collect();
        assert_eq!(
            left_out,
            [BackendKind::Silc, BackendKind::Pcpd, BackendKind::ArcFlags]
        );
        assert!(BackendKind::PAPER.contains(&BackendKind::Silc));
        assert!(BackendKind::PAPER.contains(&BackendKind::Pcpd));
        assert_eq!(
            BackendKind::parse_list("silc,pcpd,arcflags").unwrap(),
            left_out
        );
    }

    #[test]
    fn self_check_rejects_a_lying_backend() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 12));
        let engine = Engine::build(net, &[BackendKind::Dijkstra])
            .with_backend(BackendKind::Ch, Box::new(Lying));
        let err = engine.self_check(40, 3).unwrap_err();
        assert!(err.contains("Lying"), "{err}");
    }

    /// `spq verify`'s path (one session through [`verify_session`]) and
    /// the serving gate report the same defects for the same backend.
    #[test]
    fn a_lying_backend_yields_the_same_defects_through_both_checks() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 12));
        let report = verify_session(&net, Lying.session(&net).as_mut(), 40, 3);
        assert_eq!(report.defects.len(), MAX_DEFECTS, "{report:?}");
        assert!(report.checked >= MAX_DEFECTS && report.checked < 40);
        let err = Engine::build(net, &[])
            .with_backend(BackendKind::Ch, Box::new(Lying))
            .self_check(40, 3)
            .unwrap_err();
        let rendered: Vec<String> = report
            .defects
            .iter()
            .map(|d| format!("Lying: {d}"))
            .collect();
        assert_eq!(
            err.lines().skip(1).map(str::trim).collect::<Vec<_>>(),
            rendered
        );
    }

    #[test]
    fn self_check_rejects_a_backend_answering_paths_backwards() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 12));
        let (s, t) = PairSampler::new(net.num_nodes(), 3)
            .take(40)
            .find(|&(s, t)| s != t)
            .expect("a pair of distinct vertices");
        let reversed = PathLiar(ContractionHierarchy::build(&net), Lie::Reversed);
        let engine = Engine::build(net, &[]).with_backend(BackendKind::Ch, Box::new(reversed));
        let err = engine.self_check(40, 3).unwrap_err();
        assert!(
            err.contains(&format!("PathLiar: path({s}, {t}) runs from {t} to {s}")),
            "{err}"
        );
    }

    /// Honest distances over CH, and one kind of wrong path. `Reversed`
    /// hands every path back from `t` to `s`: on an undirected network
    /// the reversed sequence has the right length and valid edges, so
    /// only the endpoint check catches it.
    #[derive(Clone, Copy)]
    enum Lie {
        NoPath,
        Length,
        Empty,
        Reversed,
        Teleport,
    }
    struct PathLiar(ContractionHierarchy, Lie);
    struct PathLiarSession<'a>(ChQuery<'a>, Lie);

    impl Backend for PathLiar {
        fn backend_name(&self) -> &'static str {
            "PathLiar"
        }
        fn session<'a>(&'a self, _net: &'a RoadNetwork) -> Box<dyn Session + 'a> {
            Box::new(PathLiarSession(ChQuery::new(&self.0), self.1))
        }
    }

    impl Session for PathLiarSession<'_> {
        fn distance(&mut self, s: NodeId, t: NodeId) -> Option<Dist> {
            self.0.distance(s, t)
        }
        fn shortest_path(&mut self, s: NodeId, t: NodeId) -> Option<(Dist, Vec<NodeId>)> {
            let (d, mut path) = self.0.shortest_path(s, t)?;
            match self.1 {
                Lie::NoPath => return None,
                Lie::Length => return Some((d + 1, path)),
                Lie::Empty => path.clear(),
                Lie::Reversed => path.reverse(),
                Lie::Teleport => path = vec![s, t],
            }
            Some((d, path))
        }
    }

    /// Each way a path can be wrong while its distance is right is
    /// reported as its own defect.
    #[test]
    fn every_path_lie_gets_its_own_defect() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 12));
        for lie in [
            Lie::NoPath,
            Lie::Length,
            Lie::Empty,
            Lie::Reversed,
            Lie::Teleport,
        ] {
            let backend = PathLiar(ContractionHierarchy::build(&net), lie);
            let report = verify_session(&net, backend.session(&net).as_mut(), 40, 3);
            assert!(!report.defects.is_empty());
            for Defect { s, t, kind, .. } in &report.defects {
                let typed = match lie {
                    Lie::NoPath => *kind == DefectKind::MissingPath,
                    Lie::Length => matches!(kind, DefectKind::PathLength(_)),
                    Lie::Empty => *kind == DefectKind::PathEndpoints(None),
                    Lie::Reversed => *kind == DefectKind::PathEndpoints(Some((*t, *s))),
                    Lie::Teleport => *kind == DefectKind::PathEdges(None),
                };
                assert!(typed, "{kind:?}");
            }
        }
    }

    #[test]
    fn paper_kinds_carry_the_figure_labels() {
        let net = figure1();
        let labels: Vec<&str> = BackendKind::PAPER
            .iter()
            .map(|kind| kind.build(&net).backend.backend_name())
            .collect();
        assert_eq!(labels, ["Dijkstra", "CH", "TNR", "SILC", "PCPD"]);
        let all_pairs: Vec<BackendKind> = BackendKind::PAPER
            .into_iter()
            .filter(|kind| kind.needs_all_pairs())
            .collect();
        assert_eq!(all_pairs, [BackendKind::Silc, BackendKind::Pcpd]);
    }

    #[test]
    fn every_kind_agrees_with_the_oracle_on_figure1() {
        let g = figure1();
        let mut reference = Dijkstra::new(g.num_nodes());
        let built: Vec<EngineBackend> = BackendKind::ALL.iter().map(|k| k.build(&g)).collect();
        for s in 0..8u32 {
            reference.run(&g, s);
            for t in 0..8u32 {
                let expect = reference.distance(t);
                for eb in &built {
                    let mut q = eb.backend.session(&g);
                    let name = eb.backend.backend_name();
                    assert_eq!(q.distance(s, t), expect, "{name} distance ({s},{t})");
                    let (d, path) = q.shortest_path(s, t).unwrap();
                    assert_eq!(Some(d), expect, "{name} path ({s},{t})");
                    assert_eq!(g.path_length(&path), expect, "{name} path ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn clean_backends_verify_clean() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(
            spq_synth::test_vertices(400),
            77,
        ));
        for kind in BackendKind::ALL {
            let built = kind.build(&net);
            let report = verify_session(&net, built.backend.session(&net).as_mut(), 40, 1);
            assert!(report.is_clean(), "{}: {:?}", kind.name(), report.defects);
            assert_eq!(report.checked, 40);
        }
    }

    /// One pair's distance and path.
    type Answer = (Option<Dist>, Option<(Dist, Vec<NodeId>)>);

    /// Every pair's distance and path, asked of one workspace.
    fn answers(
        pairs: &[(NodeId, NodeId)],
        mut ask: impl FnMut(NodeId, NodeId) -> Answer,
    ) -> Vec<Answer> {
        pairs.iter().map(|&(s, t)| ask(s, t)).collect()
    }

    /// The registry builds each technique exactly as its own crate does:
    /// same answers as the concrete type's workspace, and the recorded
    /// index bytes (the figures' space column) are that type's
    /// [`IndexSize`].
    #[test]
    fn registry_builds_answer_and_size_like_each_concrete_type() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(300, 19));
        let pairs = PairSampler::pairs(net.num_nodes(), 5, 30);
        for kind in BackendKind::ALL {
            let (bytes, own) = match kind {
                BackendKind::Dijkstra => {
                    let mut q = BiDijkstra::new(net.num_nodes());
                    let own = answers(&pairs, |s, t| {
                        (q.distance(&net, s, t), q.shortest_path(&net, s, t))
                    });
                    (0, own)
                }
                BackendKind::Ch => {
                    let ch = ContractionHierarchy::build(&net);
                    let mut q = ChQuery::new(&ch);
                    let own = answers(&pairs, |s, t| (q.distance(s, t), q.shortest_path(s, t)));
                    (ch.index_size_bytes(), own)
                }
                BackendKind::Tnr => {
                    let tnr = Tnr::build(&net, &TnrParams::default());
                    let mut q = tnr.query().with_network(&net);
                    let own = answers(&pairs, |s, t| (q.distance(s, t), q.shortest_path(s, t)));
                    (tnr.index_size_bytes(), own)
                }
                BackendKind::Silc => {
                    let silc = Silc::build(&net);
                    let mut q = silc.query(&net);
                    let own = answers(&pairs, |s, t| (q.distance(s, t), q.shortest_path(s, t)));
                    (silc.index_size_bytes(), own)
                }
                BackendKind::Pcpd => {
                    let pcpd = Pcpd::build(&net);
                    let mut q = pcpd.query(&net);
                    let own = answers(&pairs, |s, t| (q.distance(s, t), q.shortest_path(s, t)));
                    (pcpd.index_size_bytes(), own)
                }
                BackendKind::Alt => {
                    let params = AltParams {
                        num_landmarks: 16,
                        ..AltParams::default()
                    };
                    let alt = Alt::build(&net, &params);
                    let mut q = alt.query(&net);
                    let own = answers(&pairs, |s, t| (q.distance(s, t), q.shortest_path(s, t)));
                    (alt.index_size_bytes(), own)
                }
                BackendKind::ArcFlags => {
                    let flags = ArcFlags::build(&net, &ArcFlagsParams::default());
                    let mut q = flags.query(&net);
                    let own = answers(&pairs, |s, t| (q.distance(s, t), q.shortest_path(s, t)));
                    (flags.index_size_bytes(), own)
                }
                BackendKind::Hl => {
                    let hl = Hl::build(&net);
                    let mut paths = ChQuery::new(hl.hierarchy());
                    let own = answers(&pairs, |s, t| {
                        (hl.labels().distance(s, t), paths.shortest_path(s, t))
                    });
                    (hl.index_size_bytes(), own)
                }
            };
            let built = kind.build(&net);
            assert_eq!(built.kind, kind);
            assert_eq!(built.index_bytes, bytes, "{} index bytes", kind.name());
            let mut session = built.backend.session(&net);
            let registry = answers(&pairs, |s, t| {
                (session.distance(s, t), session.shortest_path(s, t))
            });
            assert_eq!(registry, own, "{} answers", kind.name());
        }
    }

    /// Appendix B's hazard: TNR with the flawed access-node computation
    /// really does corrupt table answers on a network with long bridge
    /// edges — the defect the oracle check exists to catch.
    #[test]
    fn flawed_tnr_is_caught() {
        use spq_graph::GraphBuilder;
        use spq_tnr::AccessNodeStrategy;
        // A network with long bridge edges (the Appendix B hazard), so
        // the flawed access-node computation actually corrupts answers.
        let base = spq_synth::generate(&SynthParams::with_target_vertices(2_000, 78));
        let mut b = GraphBuilder::with_capacity(base.num_nodes(), base.num_edges() + 64);
        for v in 0..base.num_nodes() as NodeId {
            b.add_node(base.coord(v));
        }
        for v in 0..base.num_nodes() as NodeId {
            for (u, w) in base.neighbors(v) {
                if v < u {
                    b.add_edge(v, u, w);
                }
            }
        }
        let rect = base.bounding_rect();
        let span = rect.width().max(rect.height());
        let mut state = 0x600d_c0deu64;
        let mut added = 0;
        while added < 40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(23);
            let s = ((state >> 33) % base.num_nodes() as u64) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(23);
            let t = ((state >> 33) % base.num_nodes() as u64) as NodeId;
            let d = base.coord(s).linf(&base.coord(t)) as u64;
            if s != t && d > span * 3 / 64 && d < span * 6 / 64 {
                b.add_edge(s, t, (d / 8).max(1) as u32);
                added += 1;
            }
        }
        let net = b.build().unwrap();
        let flawed = Tnr::build(
            &net,
            &TnrParams {
                access: AccessNodeStrategy::FlawedBast,
                ..TnrParams::default()
            },
        );
        // The flawed index *with its CH fallback masked off* would be
        // wrong; through the public API the fallback can rescue local
        // queries, so probe the raw tables for at least one corruption.
        let mut q = flawed.query().with_network(&net);
        let mut reference = Dijkstra::new(net.num_nodes());
        let mut corrupted = false;
        let n = net.num_nodes() as u64;
        let mut state = 99u64;
        for _ in 0..4_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(3);
            let s = ((state >> 33) % n) as NodeId;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(3);
            let t = ((state >> 33) % n) as NodeId;
            if !flawed.distance_applicable(s, t) {
                continue;
            }
            reference.run_to_target(&net, s, t);
            if q.table_distance(s, t) != reference.distance(t).unwrap() {
                corrupted = true;
                break;
            }
        }
        assert!(
            corrupted,
            "expected the flawed access nodes to corrupt an answer"
        );
    }
}
