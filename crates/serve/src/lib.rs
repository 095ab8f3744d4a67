//! `spq-serve` — the concurrent query-serving subsystem.
//!
//! The paper (§4) measures its five techniques with single-threaded
//! latency loops; this crate turns the same indexes into a service that
//! answers many clients at once, the first step toward the ROADMAP's
//! "heavy traffic" north star:
//!
//! * [`Engine`] — the five paper indexes (plus ALT and optionally arc
//!   flags) built over one road network, each behind the unified
//!   [`spq_graph::backend::Backend`] trait, with a differential
//!   self-check against the Dijkstra baseline gating startup.
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
use spq_graph::backend::Backend;
use spq_graph::sample::PairSampler;
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

    /// The default serving set: the paper's five techniques plus ALT
    /// and hub labeling.
    pub const DEFAULT: [BackendKind; 7] = [
        BackendKind::Dijkstra,
        BackendKind::Ch,
        BackendKind::Tnr,
        BackendKind::Silc,
        BackendKind::Pcpd,
        BackendKind::Alt,
        BackendKind::Hl,
    ];

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

    /// Parses a comma-separated backend list ("ch,tnr,alt"); "all"
    /// yields the default set.
    pub fn parse_list(csv: &str) -> Result<Vec<BackendKind>, String> {
        if csv.eq_ignore_ascii_case("all") {
            return Ok(BackendKind::DEFAULT.to_vec());
        }
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
}

/// One built backend inside an [`Engine`].
pub struct EngineBackend {
    /// Which technique this is.
    pub kind: BackendKind,
    /// The index behind the unified trait.
    pub backend: Box<dyn Backend>,
    /// Wall-clock preprocessing time.
    pub build_time: Duration,
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

    /// Parses the CLI form `kind=path` (e.g. `tnr=idx/usa.tnr`).
    pub fn parse(s: &str) -> Result<BackendSpec, String> {
        let (name, path) = s
            .split_once('=')
            .ok_or_else(|| format!("--index wants kind=path, got '{s}'"))?;
        let kind = BackendKind::parse(name.trim())
            .ok_or_else(|| format!("unknown backend '{}' in --index", name.trim()))?;
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

    /// Builds one backend in memory. CH is handled by the caller (its
    /// hierarchy is shared with the POI machinery).
    fn build_one(net: &RoadNetwork, kind: BackendKind) -> Box<dyn Backend> {
        match kind {
            BackendKind::Dijkstra => Box::new(Baseline),
            BackendKind::Ch => unreachable!("CH slots are built by build_with_indexes"),
            BackendKind::Tnr => Box::new(Tnr::build(net, &TnrParams::default())),
            BackendKind::Silc => Box::new(Silc::build(net)),
            BackendKind::Pcpd => Box::new(Pcpd::build(net)),
            BackendKind::Alt => Box::new(Alt::build(
                net,
                &AltParams {
                    num_landmarks: 16.min(net.num_nodes()),
                    ..AltParams::default()
                },
            )),
            BackendKind::ArcFlags => Box::new(ArcFlags::build(net, &ArcFlagsParams::default())),
            BackendKind::Hl => Box::new(Hl::build(net)),
        }
    }

    /// Loads a persisted index. The error is the rendered
    /// [`spq_graph::binio::IndexLoadError`] (magic / version / checksum /
    /// truncation all produce distinct, typed failures at the persist
    /// layer) or a node-count mismatch against `net`.
    pub fn load_backend(
        kind: BackendKind,
        path: &Path,
        net: &RoadNetwork,
    ) -> Result<Box<dyn Backend>, String> {
        let shown = path.display();
        let check_nodes = |index_nodes: usize| -> Result<(), String> {
            if index_nodes == net.num_nodes() {
                Ok(())
            } else {
                Err(format!(
                    "{shown}: index covers {index_nodes} vertices but the network has {}",
                    net.num_nodes()
                ))
            }
        };
        let open = || -> Result<BufReader<File>, String> {
            let f = File::open(path).map_err(|e| format!("{shown}: {e}"))?;
            Ok(BufReader::new(f))
        };
        match kind {
            BackendKind::Dijkstra => Err("dijkstra is index-free; nothing to load".into()),
            BackendKind::Pcpd => Err("PCPD has no on-disk index format".into()),
            // One CH session type: the slot `build_with_indexes` serves,
            // here without POI sets.
            BackendKind::Ch => Ok(Box::new(ManyBackend::new(
                Self::load_ch(path, net)?,
                PoiTable::empty(),
            ))),
            BackendKind::Alt => {
                let alt = Alt::read_binary(&mut open()?).map_err(|e| format!("{shown}: {e}"))?;
                check_nodes(alt.num_nodes())?;
                Ok(Box::new(alt))
            }
            BackendKind::Silc => {
                let silc = Silc::read_binary(&mut open()?).map_err(|e| format!("{shown}: {e}"))?;
                check_nodes(silc.num_nodes())?;
                Ok(Box::new(silc))
            }
            BackendKind::Tnr => {
                let tnr =
                    Tnr::read_binary(net, &mut open()?).map_err(|e| format!("{shown}: {e}"))?;
                Ok(Box::new(tnr))
            }
            BackendKind::ArcFlags => {
                let af = ArcFlags::read_binary(net, &mut open()?)
                    .map_err(|e| format!("{shown}: {e}"))?;
                Ok(Box::new(af))
            }
            BackendKind::Hl => {
                let hl = Hl::read_binary(&mut open()?).map_err(|e| format!("{shown}: {e}"))?;
                check_nodes(hl.num_nodes())?;
                Ok(Box::new(hl))
            }
        }
    }

    /// Loads a persisted CH, keeping the hierarchy shareable with the
    /// POI machinery.
    fn load_ch(path: &Path, net: &RoadNetwork) -> Result<Arc<ContractionHierarchy>, String> {
        let shown = path.display();
        let f = File::open(path).map_err(|e| format!("{shown}: {e}"))?;
        let mut r = BufReader::new(f);
        let ch = ContractionHierarchy::read_binary(&mut r).map_err(|e| format!("{shown}: {e}"))?;
        if ch.num_nodes() != net.num_nodes() {
            return Err(format!(
                "{shown}: index covers {} vertices but the network has {}",
                ch.num_nodes(),
                net.num_nodes()
            ));
        }
        Ok(Arc::new(ch))
    }

    /// Builds or loads the requested serving slots, degrading failed
    /// index loads down the chain (anything → CH → Dijkstra) when
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
            // The CH slot is served by ManyBackend (point queries plus
            // the one-to-many / kNN / range capabilities), which shares
            // its hierarchy with POI registration — so it is built here
            // rather than in `build_one`.
            let backend: Box<dyn Backend> = if spec.kind == BackendKind::Ch {
                let loaded = match &spec.index {
                    None => Ok(Arc::new(ContractionHierarchy::build(&engine.net))),
                    Some(path) => Self::load_ch(path, &engine.net),
                };
                match loaded {
                    Ok(ch) => {
                        engine.ch = Some(Arc::clone(&ch));
                        Box::new(ManyBackend::new(ch, Arc::clone(&engine.pois)))
                    }
                    Err(reason) => {
                        let reason = match &spec.index {
                            Some(path) => annotate(reason, path),
                            None => reason,
                        };
                        if !degrade {
                            return Err(format!("cannot load ch index: {reason}"));
                        }
                        failed.push((spec.kind, reason));
                        continue;
                    }
                }
            } else {
                match &spec.index {
                    None => Self::build_one(&engine.net, spec.kind),
                    Some(path) => match Self::load_backend(spec.kind, path, &engine.net) {
                        Ok(b) => b,
                        Err(reason) => {
                            let reason = annotate(reason, path);
                            if !degrade {
                                return Err(format!(
                                    "cannot load {} index: {reason}",
                                    spec.kind.name()
                                ));
                            }
                            failed.push((spec.kind, reason));
                            continue;
                        }
                    },
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
                            engine.backends.push(EngineBackend {
                                kind: BackendKind::Dijkstra,
                                backend: Box::new(Baseline),
                                build_time: Duration::ZERO,
                                aliases: Vec::new(),
                            });
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

    /// The startup self-check: every backend must agree with the
    /// Dijkstra oracle on `samples` random distance and path queries.
    ///
    /// Serving wrong answers fast is worse than not serving — the paper
    /// itself hinges on this point (a faulty TNR implementation
    /// invalidated previously published results, §1) — so callers treat
    /// any `Err` as fatal and exit non-zero before accepting traffic.
    pub fn self_check(&self, samples: usize, seed: u64) -> Result<(), String> {
        let mut reference = Dijkstra::new(self.net.num_nodes());
        let mut defects = Vec::new();
        for eb in &self.backends {
            let mut session = eb.backend.session(&self.net);
            let sampler = PairSampler::new(self.net.num_nodes(), seed);
            for (s, t) in sampler.take(samples) {
                reference.run_to_target(&self.net, s, t);
                let expected = reference.distance(t);
                let got = session.distance(s, t);
                if got != expected {
                    defects.push(format!(
                        "{}: distance({s}, {t}) = {got:?}, oracle says {expected:?}",
                        eb.backend.backend_name()
                    ));
                } else if let Some((d, path)) = session.shortest_path(s, t) {
                    if Some(d) != expected || self.net.path_length(&path) != expected {
                        defects.push(format!(
                            "{}: path({s}, {t}) invalid (claimed {d}, oracle {expected:?})",
                            eb.backend.backend_name()
                        ));
                    }
                } else if expected.is_some() {
                    defects.push(format!(
                        "{}: no path returned for connected pair ({s}, {t})",
                        eb.backend.backend_name()
                    ));
                }
                if defects.len() >= 8 {
                    break;
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use spq_graph::backend::Session;
    use spq_graph::binio::{self, IndexLoadError};
    use spq_graph::types::{Dist, NodeId};
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
        assert_eq!(
            BackendKind::parse_list("all").unwrap(),
            BackendKind::DEFAULT.to_vec()
        );
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
        let spec = BackendSpec::parse("tnr=idx/usa.tnr").unwrap();
        assert_eq!(spec.kind, BackendKind::Tnr);
        assert_eq!(
            spec.index.as_deref(),
            Some(std::path::Path::new("idx/usa.tnr"))
        );
        assert!(BackendSpec::parse("tnr").is_err());
        assert!(BackendSpec::parse("bogus=x").is_err());
        assert!(BackendSpec::parse("ch=").is_err());
    }

    #[test]
    fn failed_index_loads_degrade_down_the_chain() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 13));
        // TNR's file is missing → served by CH; CH is clean (built).
        let specs = [
            BackendSpec::built(BackendKind::Ch),
            BackendSpec::from_file(BackendKind::Tnr, "/nonexistent/usa.tnr"),
        ];
        let engine = Engine::build_with_indexes(net.clone(), &specs, true).unwrap();
        let pos = engine
            .position_of_wire(BackendKind::Tnr.wire_id())
            .expect("degraded wire id keeps answering");
        assert_eq!(engine.backends()[pos].kind, BackendKind::Ch);
        assert_eq!(engine.degradations().len(), 1);
        assert_eq!(engine.degradations()[0].requested, BackendKind::Tnr);
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
    /// slot `build_with_indexes` builds, answers like the oracle, and is
    /// refused against a network it does not cover.
    #[test]
    fn loaded_ch_index_is_served_by_the_one_ch_session_type() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(200, 17));
        let dir = std::env::temp_dir().join(format!("spq_serve_ch_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("net.ch");
        let mut file = Vec::new();
        ContractionHierarchy::build(&net)
            .write_binary(&mut file)
            .unwrap();
        std::fs::write(&path, &file).unwrap();

        let loaded = Engine::load_backend(BackendKind::Ch, &path, &net).expect("clean load");
        let built = Engine::build(net.clone(), &[BackendKind::Ch]);
        assert_eq!(
            [loaded.backend_name()],
            built.backend_names()[..],
            "one CH session type, loaded or built"
        );
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

    #[test]
    fn self_check_rejects_a_lying_backend() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 12));
        let engine = Engine::build(net, &[BackendKind::Dijkstra])
            .with_backend(BackendKind::Ch, Box::new(Lying));
        let err = engine.self_check(40, 3).unwrap_err();
        assert!(err.contains("Lying"), "{err}");
    }
}
