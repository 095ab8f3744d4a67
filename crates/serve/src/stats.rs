//! Server observability: atomic counters and log2-bucketed latency
//! histograms per backend and per operation.
//!
//! Recording is lock-free (one relaxed `fetch_add` per sample into the
//! matching power-of-two nanosecond bucket), so the hot path cost is
//! constant regardless of how many samples have accumulated. Quantiles
//! are estimated from the bucket counts with the geometric midpoint of
//! the containing bucket — at most a ~√2 relative error, plenty for a
//! throughput report spanning nanoseconds to seconds.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::cache::CacheStats;
use crate::sync::lock_unpoisoned;

/// Number of histogram buckets: bucket 0 is `[0, 1)` ns, bucket
/// `1 ≤ i < OVERFLOW_BUCKET` is `[2^(i-1), 2^i)` ns, and the final
/// [`OVERFLOW_BUCKET`] holds everything at or above
/// 2^([`OVERFLOW_BUCKET`] − 1) ns (≈ 9 minutes) — counted explicitly
/// instead of aliased into the top log2 bucket, so multi-second
/// outliers (e.g. during an index reload) stay visible.
pub const BUCKETS: usize = 41;

/// Index of the explicit overflow bucket.
pub const OVERFLOW_BUCKET: usize = BUCKETS - 1;

/// Stats slots are indexed by protocol wire id, not engine position:
/// a hot reload may change how many backends the engine holds, but the
/// wire ids clients query by are stable, so counters survive swaps.
/// The final slot absorbs any wire id past the known range.
pub const WIRE_SLOTS: usize = 9;

/// Display names for the wire-id slots, in slot order.
pub const WIRE_NAMES: [&str; WIRE_SLOTS] = [
    "dijkstra", "ch", "tnr", "silc", "pcpd", "alt", "arcflags", "hl", "other",
];

/// Maps a protocol wire id to its stats slot.
pub fn wire_slot(wire_id: u8) -> usize {
    (wire_id as usize).min(WIRE_SLOTS - 1)
}

/// The operations the server distinguishes in its per-backend stats.
/// Every served frame is recorded under exactly one `(slot, op)` pair —
/// frames that fail to decode land in [`Op::Other`] under the final
/// wire slot, so unknown-op accounting shares the same tables and code
/// path as real queries instead of a separate counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Point-to-point distance queries.
    Distance = 0,
    /// Point-to-point shortest-path queries.
    Path = 1,
    /// Batched (many-to-many) distance queries.
    Batch = 2,
    /// One-to-many distance queries.
    OneToMany = 3,
    /// k-nearest-neighbour queries over a registered POI set.
    Knn = 4,
    /// Network range queries.
    Range = 5,
    /// Frames that decoded to no known operation (unknown opcode,
    /// malformed payload).
    Other = 6,
}

/// Number of [`Op`] variants.
pub const NUM_OPS: usize = 7;

impl Op {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Op::Distance => "distance",
            Op::Path => "path",
            Op::Batch => "batch",
            Op::OneToMany => "o2m",
            Op::Knn => "knn",
            Op::Range => "range",
            Op::Other => "other",
        }
    }

    /// All operations, in display order.
    pub const ALL: [Op; NUM_OPS] = [
        Op::Distance,
        Op::Path,
        Op::Batch,
        Op::OneToMany,
        Op::Knn,
        Op::Range,
        Op::Other,
    ];
}

/// Open file descriptors of this process, counted from `/proc/self/fd`
/// at call time (0 when the proc filesystem is unavailable). A gauge,
/// not a counter: it is read once per STATS render, never on the hot
/// path.
pub fn open_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .map(|entries| entries.count() as u64)
        .unwrap_or(0)
}

/// Maps a nanosecond latency to its bucket.
pub fn bucket_of(nanos: u64) -> usize {
    ((64 - nanos.leading_zeros()) as usize).min(OVERFLOW_BUCKET)
}

/// Representative latency of a bucket in nanoseconds (geometric
/// midpoint of its range; the overflow bucket reports its lower bound,
/// since its range is unbounded above).
pub fn bucket_value_ns(bucket: usize) -> f64 {
    if bucket == 0 {
        0.5
    } else if bucket >= OVERFLOW_BUCKET {
        2f64.powi(OVERFLOW_BUCKET as i32 - 1)
    } else {
        // Bucket covers [2^(b-1), 2^b): midpoint 2^(b-1) · √2.
        2f64.powi(bucket as i32 - 1) * std::f64::consts::SQRT_2
    }
}

/// Estimates the `q`-quantile (`q` in `[0, 1]`) of a bucket-count
/// vector, in nanoseconds. Returns 0 with no samples.
pub fn percentile_ns(buckets: &[u64], q: f64) -> f64 {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let rank = ((total as f64) * q).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (b, &count) in buckets.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return bucket_value_ns(b);
        }
    }
    bucket_value_ns(buckets.len() - 1)
}

/// A lock-free log2 latency histogram.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_of(nanos)].fetch_add(1, Ordering::Relaxed);
    }

    /// Copies the bucket counts out.
    pub fn snapshot(&self) -> [u64; BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// Samples that landed in the explicit overflow bucket.
    pub fn overflow(&self) -> u64 {
        self.buckets[OVERFLOW_BUCKET].load(Ordering::Relaxed)
    }
}

/// Counters and latency histogram for one (backend, op) pair.
#[derive(Default)]
pub struct OpStats {
    /// Requests served (a batch counts once).
    pub count: AtomicU64,
    /// Individual (s, t) answers produced (≥ `count`; differs for
    /// batches).
    pub items: AtomicU64,
    /// Per-request service latency.
    pub hist: Histogram,
}

/// All server counters. One instance per server, shared by reference
/// with every worker.
pub struct ServerStats {
    /// `per_backend[i][op]` for the engine's i-th backend.
    per_backend: Vec<[OpStats; NUM_OPS]>,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Frames handled (any opcode, including failed ones).
    pub requests: AtomicU64,
    /// Requests rejected at the protocol layer.
    pub protocol_errors: AtomicU64,
    /// Event-loop shards serving connections (set once at startup).
    pub shards: AtomicU64,
    /// Currently open connections (gauge: incremented at registration,
    /// decremented at close).
    pub open_connections: AtomicU64,
    /// Frames parsed while the same connection still had an earlier
    /// request unanswered — in flight, or its response not yet written
    /// to the socket. The wire-protocol pipelining counter.
    pub pipelined_frames: AtomicU64,
    /// Requests answered on the shard that parsed them (PING, cache
    /// hits, distance lookups) — no worker involved.
    pub inline: AtomicU64,
    /// Requests handed to the worker pool (shed requests are counted
    /// under `shed`, not here).
    pub handoff: AtomicU64,
    /// Requests answered with BUSY past the work-queue high-water mark.
    pub shed: AtomicU64,
    /// Connections dropped for stalling mid-frame or timing out a write.
    pub client_timeouts: AtomicU64,
    /// Requests answered with DEADLINE_EXCEEDED.
    pub deadlines_exceeded: AtomicU64,
    /// In-flight queries aborted by the post-grace force-stop.
    pub force_closed: AtomicU64,
    /// Connections force-closed for hitting the per-connection write
    /// buffer cap while making no write progress — the typed accounting
    /// for slow (or never-) readers. Disjoint from `client_timeouts`
    /// (stalls below the cap) and `force_closed` (shutdown aborts).
    pub slow_closed: AtomicU64,
    /// Accepts refused because the process was out of file descriptors
    /// (real or injected EMFILE/ENFILE); each peer got a typed BUSY.
    pub accept_emfile: AtomicU64,
    /// Accepts refused by the `--max-connections` admission gate; each
    /// peer got a typed BUSY.
    pub accept_shed: AtomicU64,
    /// The configured global memory budget in bytes (0 = unlimited).
    pub mem_budget: AtomicU64,
    /// Live bytes accounted against the budget: per-connection
    /// read/write buffers, pipelined ready frames, and the LRU cache's
    /// static reservation.
    pub mem_used: AtomicU64,
    /// High-water mark of any one connection's pending write-buffer
    /// bytes (gauge via `fetch_max`; proves the wbuf cap held).
    pub wbuf_peak: AtomicU64,
    /// Index reloads that validated and published a new epoch.
    pub reloads_ok: AtomicU64,
    /// Index reloads rejected before publication (the old epoch kept
    /// serving).
    pub reloads_failed: AtomicU64,
    /// Worker panics recovered by the supervision loop (the worker
    /// rebuilt its sessions and kept serving).
    pub worker_restarts: AtomicU64,
    /// Completed audit rounds (one pass over every auditable backend).
    pub audit_rounds: AtomicU64,
    /// Individual audit queries compared against the oracle.
    pub audit_checked: AtomicU64,
    /// Audit queries that disagreed with the oracle.
    pub audit_mismatches: AtomicU64,
    /// Requests answered by the degradation chain because their backend
    /// was quarantined.
    pub quarantine_failovers: AtomicU64,
    /// The typed reason of the most recent failed reload (cleared by
    /// the next successful one).
    last_reload_error: Mutex<Option<String>>,
    /// Server start time (for the uptime line).
    started: Instant,
}

impl ServerStats {
    /// Creates zeroed counters for `num_backends` backends.
    pub fn new(num_backends: usize) -> Self {
        ServerStats {
            per_backend: (0..num_backends).map(|_| Default::default()).collect(),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            shards: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            pipelined_frames: AtomicU64::new(0),
            inline: AtomicU64::new(0),
            handoff: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            client_timeouts: AtomicU64::new(0),
            deadlines_exceeded: AtomicU64::new(0),
            force_closed: AtomicU64::new(0),
            slow_closed: AtomicU64::new(0),
            accept_emfile: AtomicU64::new(0),
            accept_shed: AtomicU64::new(0),
            mem_budget: AtomicU64::new(0),
            mem_used: AtomicU64::new(0),
            wbuf_peak: AtomicU64::new(0),
            reloads_ok: AtomicU64::new(0),
            reloads_failed: AtomicU64::new(0),
            worker_restarts: AtomicU64::new(0),
            audit_rounds: AtomicU64::new(0),
            audit_checked: AtomicU64::new(0),
            audit_mismatches: AtomicU64::new(0),
            quarantine_failovers: AtomicU64::new(0),
            last_reload_error: Mutex::new(None),
            started: Instant::now(),
        }
    }

    /// Records the typed reason of a failed reload.
    pub fn set_reload_error(&self, reason: String) {
        *lock_unpoisoned(&self.last_reload_error) = Some(reason);
    }

    /// Clears the failed-reload reason (a later reload succeeded).
    pub fn clear_reload_error(&self) {
        *lock_unpoisoned(&self.last_reload_error) = None;
    }

    /// The most recent failed-reload reason, if any.
    pub fn reload_error(&self) -> Option<String> {
        lock_unpoisoned(&self.last_reload_error).clone()
    }

    /// Records one served request: `items` individual answers produced
    /// in `nanos` of service time.
    pub fn record(&self, backend: usize, op: Op, nanos: u64, items: u64) {
        let s = &self.per_backend[backend][op as usize];
        s.count.fetch_add(1, Ordering::Relaxed);
        s.items.fetch_add(items, Ordering::Relaxed);
        s.hist.record(nanos);
    }

    /// Raw access for rendering.
    pub fn op_stats(&self, backend: usize, op: Op) -> &OpStats {
        &self.per_backend[backend][op as usize]
    }

    /// Renders the observability snapshot served by the STATS command
    /// and dumped at shutdown. `backend_names` must match the engine's
    /// backend order.
    pub fn render(&self, backend_names: &[&str], cache: &CacheStats) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let uptime_s = self.started.elapsed().as_secs_f64();
        let _ = writeln!(
            out,
            "uptime_s={uptime_s:.1} connections={} requests={} protocol_errors={}",
            self.connections.load(Ordering::Relaxed),
            self.requests.load(Ordering::Relaxed),
            self.protocol_errors.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "serve: shards={} open_connections={} pipelined_frames={} inline={} handoff={}",
            self.shards.load(Ordering::Relaxed),
            self.open_connections.load(Ordering::Relaxed),
            self.pipelined_frames.load(Ordering::Relaxed),
            self.inline.load(Ordering::Relaxed),
            self.handoff.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "faults: shed={} client_timeouts={} deadlines_exceeded={} force_closed={} slow_closed={}",
            self.shed.load(Ordering::Relaxed),
            self.client_timeouts.load(Ordering::Relaxed),
            self.deadlines_exceeded.load(Ordering::Relaxed),
            self.force_closed.load(Ordering::Relaxed),
            self.slow_closed.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "resources: mem_budget={} mem_used={} wbuf_peak={} open_fds={} \
             accept_emfile={} accept_shed={} disk_degraded={}",
            self.mem_budget.load(Ordering::Relaxed),
            self.mem_used.load(Ordering::Relaxed),
            self.wbuf_peak.load(Ordering::Relaxed),
            open_fds(),
            self.accept_emfile.load(Ordering::Relaxed),
            self.accept_shed.load(Ordering::Relaxed),
            u64::from(spq_graph::atomic_io::disk_degraded()),
        );
        let _ = writeln!(
            out,
            "health: reloads_ok={} reloads_failed={} worker_restarts={}",
            self.reloads_ok.load(Ordering::Relaxed),
            self.reloads_failed.load(Ordering::Relaxed),
            self.worker_restarts.load(Ordering::Relaxed),
        );
        let _ = writeln!(
            out,
            "audit: audit_rounds={} audit_checked={} audit_mismatches={} quarantine_failovers={}",
            self.audit_rounds.load(Ordering::Relaxed),
            self.audit_checked.load(Ordering::Relaxed),
            self.audit_mismatches.load(Ordering::Relaxed),
            self.quarantine_failovers.load(Ordering::Relaxed),
        );
        if let Some(reason) = self.reload_error() {
            let _ = writeln!(out, "reload_error: RELOAD_FAILED {reason}");
        }
        let _ = writeln!(
            out,
            "cache: hits={} misses={} hit_rate={:.1}% insertions={} evictions={} purged={} len={} capacity={}",
            cache.hits,
            cache.misses,
            cache.hit_rate() * 100.0,
            cache.insertions,
            cache.evictions,
            cache.purged,
            cache.len,
            cache.capacity,
        );
        let _ = writeln!(
            out,
            "{:<10} {:<9} {:>10} {:>12} {:>10} {:>10} {:>9}",
            "backend", "op", "count", "items", "p50_us", "p99_us", "overflow"
        );
        for (i, name) in backend_names.iter().enumerate() {
            for op in Op::ALL {
                let s = self.op_stats(i, op);
                let count = s.count.load(Ordering::Relaxed);
                if count == 0 {
                    continue;
                }
                let snap = s.hist.snapshot();
                let _ = writeln!(
                    out,
                    "{:<10} {:<9} {:>10} {:>12} {:>10.2} {:>10.2} {:>9}",
                    name,
                    op.name(),
                    count,
                    s.items.load(Ordering::Relaxed),
                    percentile_ns(&snap, 0.50) / 1_000.0,
                    percentile_ns(&snap, 0.99) / 1_000.0,
                    s.hist.overflow(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_latency_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), OVERFLOW_BUCKET);
        for nanos in [5u64, 1_000, 1_000_000, 10_000_000_000] {
            let b = bucket_of(nanos);
            assert!(b < OVERFLOW_BUCKET, "ordinary latencies never overflow");
            // The representative value is within ~√2 of the sample.
            let rep = bucket_value_ns(b);
            assert!(rep / nanos as f64 <= std::f64::consts::SQRT_2 + 1e-9);
            assert!(nanos as f64 / rep <= std::f64::consts::SQRT_2 + 1e-9);
        }
    }

    #[test]
    fn overflow_bucket_counts_extreme_outliers_explicitly() {
        let threshold = 1u64 << (OVERFLOW_BUCKET - 1);
        assert_eq!(bucket_of(threshold - 1), OVERFLOW_BUCKET - 1);
        assert_eq!(bucket_of(threshold), OVERFLOW_BUCKET);
        let hist = Histogram::default();
        hist.record(1_000);
        assert_eq!(hist.overflow(), 0);
        hist.record(threshold);
        hist.record(u64::MAX);
        assert_eq!(hist.overflow(), 2, "outliers counted, not aliased");
        // The overflow representative is its lower bound, so the
        // percentile estimate never understates an overflowing tail.
        assert!(bucket_value_ns(OVERFLOW_BUCKET) >= threshold as f64);
        let snap = hist.snapshot();
        assert_eq!(percentile_ns(&snap, 1.0), bucket_value_ns(OVERFLOW_BUCKET));
    }

    #[test]
    fn percentiles_track_the_distribution() {
        let hist = Histogram::default();
        for _ in 0..99 {
            hist.record(1_000); // ~1 µs
        }
        hist.record(1_000_000); // one 1 ms outlier
        let snap = hist.snapshot();
        let p50 = percentile_ns(&snap, 0.50);
        let p99 = percentile_ns(&snap, 0.99);
        let p100 = percentile_ns(&snap, 1.0);
        assert!((500.0..2_000.0).contains(&p50), "p50 = {p50}");
        assert!(p99 <= p100);
        assert!(p100 > 500_000.0, "p100 sees the outlier: {p100}");
        assert_eq!(percentile_ns(&[0; BUCKETS], 0.5), 0.0);
    }

    #[test]
    fn render_reports_active_ops_only() {
        let stats = ServerStats::new(2);
        stats.record(0, Op::Distance, 1_500, 1);
        stats.record(0, Op::Distance, 1_500, 1);
        stats.record(1, Op::Batch, 80_000, 25);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 1,
            evictions: 0,
            purged: 0,
            len: 1,
            capacity: 64,
        };
        stats.shed.fetch_add(2, Ordering::Relaxed);
        stats.deadlines_exceeded.fetch_add(1, Ordering::Relaxed);
        stats.worker_restarts.fetch_add(3, Ordering::Relaxed);
        stats.audit_mismatches.fetch_add(4, Ordering::Relaxed);
        stats.shards.store(3, Ordering::Relaxed);
        stats.open_connections.fetch_add(5, Ordering::Relaxed);
        stats.pipelined_frames.fetch_add(7, Ordering::Relaxed);
        stats.slow_closed.fetch_add(6, Ordering::Relaxed);
        stats.accept_emfile.fetch_add(8, Ordering::Relaxed);
        stats.accept_shed.fetch_add(9, Ordering::Relaxed);
        stats.mem_budget.store(1 << 20, Ordering::Relaxed);
        stats.mem_used.store(4096, Ordering::Relaxed);
        stats.wbuf_peak.fetch_max(2048, Ordering::Relaxed);
        let text = stats.render(&["CH", "TNR"], &cache);
        assert!(text.contains("shards=3"), "{text}");
        assert!(text.contains("open_connections=5"), "{text}");
        assert!(text.contains("pipelined_frames=7"), "{text}");
        assert!(text.contains("shed=2"), "{text}");
        assert!(text.contains("deadlines_exceeded=1"), "{text}");
        assert!(text.contains("client_timeouts=0"), "{text}");
        assert!(text.contains("slow_closed=6"), "{text}");
        assert!(text.contains("mem_budget=1048576"), "{text}");
        assert!(text.contains("mem_used=4096"), "{text}");
        assert!(text.contains("wbuf_peak=2048"), "{text}");
        assert!(text.contains("accept_emfile=8"), "{text}");
        assert!(text.contains("accept_shed=9"), "{text}");
        assert!(text.contains("disk_degraded="), "{text}");
        assert!(text.contains("open_fds="), "{text}");
        assert!(text.contains("hits=3"));
        assert!(text.contains("hit_rate=75.0%"));
        assert!(text.contains("reloads_ok=0"), "{text}");
        assert!(text.contains("worker_restarts=3"), "{text}");
        assert!(text.contains("audit_mismatches=4"), "{text}");
        assert!(text.contains("overflow"), "{text}");
        assert!(
            !text.contains("reload_error"),
            "no failed reload, no reason line:\n{text}"
        );
        assert!(text.contains("CH"));
        assert!(text.contains("batch"));
        assert!(!text.contains("path"), "unused ops are omitted:\n{text}");

        stats.set_reload_error("self-check rejected the new index".into());
        let text = stats.render(&["CH", "TNR"], &cache);
        assert!(text.contains("reload_error: RELOAD_FAILED"), "{text}");
        stats.clear_reload_error();
        assert_eq!(stats.reload_error(), None);
    }

    #[test]
    fn serve_line_appends_the_routing_counters_after_the_existing_keys() {
        let stats = ServerStats::new(1);
        stats.shards.store(2, Ordering::Relaxed);
        stats.pipelined_frames.fetch_add(5, Ordering::Relaxed);
        stats.inline.fetch_add(11, Ordering::Relaxed);
        stats.handoff.fetch_add(13, Ordering::Relaxed);
        let cache = CacheStats {
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            purged: 0,
            len: 0,
            capacity: 0,
        };
        let text = stats.render(&["CH"], &cache);
        let serve = text
            .lines()
            .find(|l| l.starts_with("serve:"))
            .expect("serve: line");
        // Parsers key on names and on order: new keys go last.
        assert_eq!(
            serve,
            "serve: shards=2 open_connections=0 pipelined_frames=5 inline=11 handoff=13"
        );
    }
}
