//! The load generator: replays the paper's Q1–Q10 query sets as point
//! `DISTANCE` queries against a running server at each requested
//! concurrency level, reports throughput, and checks the answers.
//!
//! Each client thread owns one retrying connection and one latency
//! histogram; threads start at staggered offsets into the
//! (shuffled-by-generation) pair pool so concurrent clients do not
//! lock-step over identical keys. After every timed run the generator
//! re-samples a slice of the workload through a fresh connection and
//! checks the answers against a locally computed Dijkstra oracle. The
//! check comes after the load, not before it, so a server that goes
//! wrong under load is caught — a throughput number from a server that
//! answers incorrectly is worthless (the paper makes the same point
//! about a faulty TNR implementation, §1).
//!
//! Transient push-back (BUSY shedding, dropped connections) is absorbed
//! by each client's [`RetryPolicy`] and surfaced as a `retries` column.
//! A sweep that dies mid-run — server crash, retries exhausted — still
//! yields every completed row plus the partial totals of the run that
//! failed, with the error recorded on the [`LoadgenReport`]; callers
//! must treat that error as a non-zero exit, not silently publish the
//! partial CSV as a clean result.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use spq_dijkstra::Dijkstra;
use spq_graph::types::{Dist, NodeId};
use spq_graph::RoadNetwork;
use spq_queries::{linf_query_sets, QueryGenParams};

use crate::client::{RetryPolicy, RetryingClient, ServeClient};
use crate::stats::{bucket_of, percentile_ns, BUCKETS};
use crate::BackendKind;

/// Load-generator knobs.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Backends to drive (each gets its own runs).
    pub backends: Vec<BackendKind>,
    /// Concurrency levels to sweep (client threads, one connection
    /// each, per run).
    pub concurrency: Vec<usize>,
    /// Wall-clock duration of each timed run (steady state, after the
    /// warm-up window).
    pub duration: Duration,
    /// Warm-up window preceding each timed run: clients connect and
    /// issue requests, but nothing is counted. Connection setup, cold
    /// caches, and the server's first-touch page faults land here
    /// instead of deflating the reported QPS.
    pub warmup: Duration,
    /// Query pairs per Q-set fed into the pool.
    pub per_set: usize,
    /// Workload seed.
    pub seed: u64,
    /// Answers checked against the Dijkstra oracle after each timed
    /// run.
    pub verify_samples: usize,
    /// Retry behaviour for BUSY shedding and dropped connections (each
    /// client thread derives its own jitter seed from this policy's).
    pub retry: RetryPolicy,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            backends: BackendKind::DEFAULT.to_vec(),
            concurrency: vec![1, 4],
            duration: Duration::from_secs(3),
            warmup: Duration::from_millis(250),
            per_set: 200,
            seed: 0x9e37_79b9,
            verify_samples: 32,
            retry: RetryPolicy::default(),
        }
    }
}

/// One CSV line of a sweep: one (backend, concurrency) timed run and the
/// oracle check that followed it.
#[derive(Debug, Clone)]
pub struct ThroughputRow {
    /// Backend display name.
    pub backend: String,
    /// Client threads (and connections) in this run.
    pub concurrency: usize,
    /// Measured steady-state wall-clock seconds (the warm-up window is
    /// excluded).
    pub seconds: f64,
    /// Requests completed within the timed window.
    pub requests: u64,
    /// Steady-state requests per second.
    pub qps: f64,
    /// Median client-observed latency (µs).
    pub p50_us: f64,
    /// 99th-percentile client-observed latency (µs).
    pub p99_us: f64,
    /// Answers checked against the oracle after the run.
    pub verified: usize,
    /// Checked answers that disagreed (any non-zero is a failure).
    pub mismatches: usize,
    /// Client-side retries spent (BUSY shedding + reconnects).
    pub retries: u64,
    /// Retries of requests the server may already have executed (the
    /// connection died mid-response). These are the at-least-once
    /// deliveries; a non-idempotent caller must treat this column as a
    /// duplicate-execution upper bound.
    pub retried_after_partial: u64,
}

impl ThroughputRow {
    /// CSV header matching [`ThroughputRow::to_csv`].
    pub const CSV_HEADER: &'static str = "backend,concurrency,seconds,requests,qps,p50_us,\
         p99_us,verified,mismatches,retries,retried_after_partial";

    /// One CSV line.
    pub fn to_csv(&self) -> String {
        format!(
            "{},{},{:.2},{},{:.1},{:.2},{:.2},{},{},{},{}",
            self.backend,
            self.concurrency,
            self.seconds,
            self.requests,
            self.qps,
            self.p50_us,
            self.p99_us,
            self.verified,
            self.mismatches,
            self.retries,
            self.retried_after_partial
        )
    }
}

/// The sweep's outcome: every row that completed (including the partial
/// totals of a run that died mid-flight) plus the first fatal error, if
/// any.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Completed (and, on failure, partial) throughput rows.
    pub rows: Vec<ThroughputRow>,
    /// The error that stopped the sweep early, if it did not finish.
    pub error: Option<String>,
}

impl LoadgenReport {
    /// Total oracle mismatches across all rows.
    pub fn mismatches(&self) -> usize {
        self.rows.iter().map(|r| r.mismatches).sum()
    }
}

/// Builds the query-pair pool: the union of the paper's Q1–Q10 L∞
/// query sets, falling back to uniform random pairs when the network is
/// too small to populate the stratified sets.
pub fn workload_pairs(net: &RoadNetwork, per_set: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let params = QueryGenParams {
        per_set,
        grid: 1024,
        seed,
    };
    let mut pairs: Vec<(NodeId, NodeId)> = linf_query_sets(net, &params)
        .into_iter()
        .flat_map(|set| set.pairs)
        .collect();
    if pairs.len() < 64 {
        let n = net.num_nodes() as u64;
        let mut state = seed | 1;
        while pairs.len() < 256 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = ((state >> 33) % n) as NodeId;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let t = ((state >> 33) % n) as NodeId;
            pairs.push((s, t));
        }
    }
    pairs
}

/// What client threads completed in one timed run. Carries whatever
/// completed before `error` struck, so a dying run still reports its
/// partials.
struct ClientRun {
    requests: u64,
    retries: u64,
    partials: u64,
    hist: [u64; BUCKETS],
    error: Option<String>,
}

impl ClientRun {
    fn empty() -> ClientRun {
        ClientRun {
            requests: 0,
            retries: 0,
            partials: 0,
            hist: [0; BUCKETS],
            error: None,
        }
    }

    /// Folds another thread's totals in, keeping the first error.
    fn absorb(&mut self, other: ClientRun) {
        self.requests += other.requests;
        self.retries += other.retries;
        self.partials += other.partials;
        for (a, b) in self.hist.iter_mut().zip(other.hist.iter()) {
            *a += b;
        }
        if self.error.is_none() {
            self.error = other.error;
        }
    }
}

/// Drives one backend at one concurrency level. Always returns the
/// aggregated totals; a thread failure is recorded on the run, not
/// thrown away with the completed work.
fn run_one(
    addr: SocketAddr,
    backend: BackendKind,
    concurrency: usize,
    pairs: &[(NodeId, NodeId)],
    opts: &LoadgenOptions,
) -> (f64, ClientRun) {
    // Steady-state measurement: the timed window opens only after the
    // warm-up window, so connection setup and cold-start effects never
    // count toward QPS.
    let warm_end = Instant::now() + opts.warmup;
    let deadline = warm_end + opts.duration;
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        // Spawned eagerly into the Vec: a lazy iterator would serialise
        // the workers behind each other's joins.
        let mut handles = Vec::with_capacity(concurrency);
        for worker in 0..concurrency {
            handles.push(scope.spawn(move || -> ClientRun {
                let mut policy = opts.retry.clone();
                // Distinct jitter streams keep retrying connections from
                // thundering back in lock-step.
                policy.seed = policy.seed.wrapping_add(worker as u64);
                let mut client = RetryingClient::new(addr, policy);
                let mut run = ClientRun::empty();
                let mut i = worker * pairs.len() / concurrency.max(1);
                // Warm-up: drive the same loop, count nothing.
                while Instant::now() < warm_end {
                    let (s, t) = pairs[i % pairs.len()];
                    i += 1;
                    if let Err(e) = client.distance(backend, s, t) {
                        run.error = Some(format!("{}: {e}", backend.name()));
                        return run;
                    }
                }
                while Instant::now() < deadline {
                    let (s, t) = pairs[i % pairs.len()];
                    i += 1;
                    let retries_before = client.retries;
                    let partials_before = client.retried_after_partial;
                    let t0 = Instant::now();
                    if let Err(e) = client.distance(backend, s, t) {
                        run.error = Some(format!("{}: {e}", backend.name()));
                        break;
                    }
                    run.hist[bucket_of(t0.elapsed().as_nanos() as u64)] += 1;
                    run.requests += 1;
                    run.retries += client.retries - retries_before;
                    run.partials += client.retried_after_partial - partials_before;
                }
                run
            }));
        }
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    let mut run = ClientRun::empty();
                    run.error = Some("client thread panicked".into());
                    run
                })
            })
            .collect()
    });
    let seconds = warm_end.elapsed().as_secs_f64();
    let mut total = ClientRun::empty();
    for run in runs {
        total.absorb(run);
    }
    (seconds, total)
}

/// Checks `samples` workload answers against a locally computed
/// Dijkstra oracle. Returns `(checked, mismatches)`.
fn verify_backend(
    addr: SocketAddr,
    backend: BackendKind,
    net: &RoadNetwork,
    pairs: &[(NodeId, NodeId)],
    samples: usize,
) -> Result<(usize, usize), String> {
    let mut client = ServeClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut oracle = Dijkstra::new(net.num_nodes());
    let (mut checked, mut mismatches) = (0, 0);
    let step = (pairs.len() / samples.max(1)).max(1);
    for &(s, t) in pairs.iter().step_by(step).take(samples) {
        let got: Option<Dist> = client
            .distance(backend, s, t)
            .map_err(|e| format!("{}: {e}", backend.name()))?;
        oracle.run_to_target(net, s, t);
        let expected = oracle.distance(t);
        if got != expected {
            mismatches += 1;
            eprintln!(
                "[loadgen] {} MISMATCH: distance({s}, {t}) = {got:?}, oracle {expected:?}",
                backend.name()
            );
        }
        checked += 1;
    }
    Ok((checked, mismatches))
}

/// Runs the full sweep (every backend × every concurrency level)
/// against an already-running server, checking answers after each timed
/// run. Never panics on server failure: the report carries the partial
/// rows and the error instead.
pub fn run(addr: SocketAddr, net: &RoadNetwork, opts: &LoadgenOptions) -> LoadgenReport {
    let pairs = workload_pairs(net, opts.per_set, opts.seed);
    let mut report = LoadgenReport {
        rows: Vec::new(),
        error: None,
    };
    'sweep: for &backend in &opts.backends {
        for &concurrency in &opts.concurrency {
            let (seconds, total) = run_one(addr, backend, concurrency, &pairs, opts);
            // The oracle check follows the load it vouches for; a run
            // that died has nothing left to check.
            let checked = match total.error {
                Some(_) => Ok((0, 0)),
                None => verify_backend(addr, backend, net, &pairs, opts.verify_samples),
            };
            let (verified, mismatches) = *checked.as_ref().unwrap_or(&(0, 0));
            let error = total.error.or(checked.err());
            let row = ThroughputRow {
                backend: backend.name().to_string(),
                concurrency,
                seconds,
                requests: total.requests,
                qps: total.requests as f64 / seconds.max(1e-9),
                p50_us: percentile_ns(&total.hist, 0.50) / 1_000.0,
                p99_us: percentile_ns(&total.hist, 0.99) / 1_000.0,
                verified,
                mismatches,
                retries: total.retries,
                retried_after_partial: total.partials,
            };
            eprintln!(
                "[loadgen] {:<9} c={:<2} {:>9.0} qps  p50 {:>8.2} µs  p99 {:>8.2} µs  ({} reqs in {:.1}s, {} retries, {}/{} verified wrong)",
                row.backend, row.concurrency, row.qps, row.p50_us, row.p99_us,
                row.requests, row.seconds, row.retries, row.mismatches, row.verified
            );
            report.rows.push(row);
            if error.is_some() {
                report.error = error;
                break 'sweep;
            }
        }
    }
    report
}

/// Builds the engine, self-checks it, starts an in-process server, runs
/// the sweep, shuts the server down, and returns the report plus the
/// server's final stats dump. The self-check failing is fatal by
/// design: an `Err` here must translate into a non-zero process exit,
/// and so must a report whose `error` is set.
pub fn run_in_process(
    net: RoadNetwork,
    opts: &LoadgenOptions,
) -> Result<(LoadgenReport, String), String> {
    use crate::server::{Server, ServerConfig};
    use crate::Engine;

    let engine = Arc::new(Engine::build(net, &opts.backends));
    engine
        .self_check(32, opts.seed)
        .map_err(|e| format!("refusing to serve: {e}"))?;
    let max_concurrency = opts.concurrency.iter().copied().max().unwrap_or(1);
    // Workers are the CPU pool behind the event loop, not connection
    // holders: size them to the smaller of the active streams and the
    // machine (+1 so a wedged query never starves the pool). Sizing
    // them to `max_concurrency` like the old thread-per-connection
    // server did just builds an idle worker herd whose condvar wakeups
    // starve the shard threads at high stream counts.
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let cfg = ServerConfig {
        workers: max_concurrency.min(cores) + 1,
        selfcheck_seed: opts.seed,
        ..ServerConfig::default()
    };
    let server = Server::start(Arc::clone(&engine), &cfg).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    eprintln!("[loadgen] serving on {addr}");

    let report = run(addr, engine.net(), opts);

    // Shut down regardless of the sweep's outcome so threads never leak.
    if let Ok(mut client) = ServeClient::connect(addr) {
        let _ = client.shutdown_server();
    }
    let stats = server.join();
    Ok((report, stats))
}

/// Writes the CSV (creating parent directories).
pub fn write_csv(rows: &[ThroughputRow], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::from(ThroughputRow::CSV_HEADER);
    out.push('\n');
    for row in rows {
        out.push_str(&row.to_csv());
        out.push('\n');
    }
    spq_graph::atomic_io::write_atomic(path, |w| {
        use std::io::Write;
        w.write_all(out.as_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spq_synth::SynthParams;

    #[test]
    fn workload_pool_is_nonempty_even_on_tiny_networks() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(64, 5));
        let pairs = workload_pairs(&net, 10, 1);
        assert!(pairs.len() >= 64);
        let n = net.num_nodes() as NodeId;
        assert!(pairs.iter().all(|&(s, t)| s < n && t < n));
    }

    #[test]
    fn workload_pool_is_reproducible_from_its_seed() {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(400, 3));
        assert_eq!(workload_pairs(&net, 8, 21), workload_pairs(&net, 8, 21));
        let tiny = spq_synth::generate(&SynthParams::with_target_vertices(64, 5));
        assert_eq!(workload_pairs(&tiny, 10, 1), workload_pairs(&tiny, 10, 1));
        assert_ne!(workload_pairs(&tiny, 10, 1), workload_pairs(&tiny, 10, 2));
    }

    fn row(backend: &str, mismatches: usize) -> ThroughputRow {
        ThroughputRow {
            backend: backend.into(),
            concurrency: 4,
            seconds: 2.0,
            requests: 1000,
            qps: 500.0,
            p50_us: 10.0,
            p99_us: 90.5,
            verified: 32,
            mismatches,
            retries: 7,
            retried_after_partial: 2,
        }
    }

    #[test]
    fn client_runs_fold_totals_and_keep_the_first_error() {
        let mut total = ClientRun::empty();
        let mut a = ClientRun::empty();
        a.requests = 10;
        a.retries = 1;
        a.hist[3] = 10;
        let mut b = ClientRun::empty();
        b.requests = 5;
        b.partials = 2;
        b.hist[3] = 4;
        b.hist[7] = 1;
        b.error = Some("first".into());
        let mut c = ClientRun::empty();
        c.requests = 1;
        c.error = Some("second".into());
        for run in [a, b, c] {
            total.absorb(run);
        }
        assert_eq!((total.requests, total.retries, total.partials), (16, 1, 2));
        assert_eq!((total.hist[3], total.hist[7]), (14, 1));
        assert_eq!(total.error.as_deref(), Some("first"));
    }

    #[test]
    fn written_csv_is_the_header_then_one_line_per_row() {
        let dir = std::env::temp_dir().join(format!("spq_loadgen_csv_{}", std::process::id()));
        let path = dir.join("nested").join("sweep.csv");
        let rows = [row("ch", 0), row("hl", 3)];
        write_csv(&rows, &path).expect("parent directories are created");
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines,
            [
                ThroughputRow::CSV_HEADER.to_string(),
                rows[0].to_csv(),
                rows[1].to_csv()
            ]
        );
        let report = LoadgenReport {
            rows: rows.to_vec(),
            error: None,
        };
        assert_eq!(report.mismatches(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_rows_are_well_formed() {
        let line = row("ch", 0).to_csv();
        assert_eq!(
            line.split(',').count(),
            ThroughputRow::CSV_HEADER.split(',').count()
        );
        assert!(line.starts_with("ch,4,2.00,1000,"));
        assert!(line.ends_with(",32,0,7,2"));
    }
}
