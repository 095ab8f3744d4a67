//! In-memory spans, written out when the traced run ends.
//!
//! A span is `(id, parent, request, name, start, end)`. The benchmark
//! records them from its own code, around its calls into each layer;
//! nothing inside the program is instrumented. Each traced request is a
//! two-level tree:
//!
//! * the root is what the client saw — send to reply fully read (or,
//!   in-process, call to return);
//! * its children are the layer calls that request needs (decode, cache,
//!   kernel, encode). For a served request those calls happen inside the
//!   server where the benchmark cannot see them, so they are **replayed**
//!   in-process after the window on the same op and laid end to end from
//!   the root's start (`"replayed":true`).
//!
//! A span's self time is its duration minus what its children cover, so
//! the root's self time is the part of a request no layer call accounts
//! for: event loop, hand-off, queueing behind the requests in flight
//! ahead of it, syscalls and the loopback. Self times of one request sum
//! to the root's duration.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One in `TRACE_EVERY` requests of a traced phase is recorded.
pub const TRACE_EVERY: u64 = 61;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the trace, from 1.
    pub id: u32,
    /// Id of the span that caused this one (0: a root).
    pub parent: u32,
    /// Sequence number of the request both belong to.
    pub request: u64,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the trace began.
    pub start_ns: u64,
    /// Nanoseconds since the trace began.
    pub end_ns: u64,
    /// Timed in an in-process replay, not where the request ran.
    pub replayed: bool,
}

/// The span list of one traced run.
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    /// Per span: where its next child starts.
    cursor: Vec<u64>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            cursor: Vec::with_capacity(1 << 16),
        }
    }

    /// Records a root span observed between `start` and `end`; returns
    /// its id.
    pub fn root(&mut self, request: u64, name: &'static str, start: Instant, end: Instant) -> u32 {
        let id = self.spans.len() as u32 + 1;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: 0,
            request,
            name,
            start_ns,
            end_ns: end.duration_since(self.origin).as_nanos() as u64,
            replayed: false,
        });
        self.cursor.push(start_ns);
        id
    }

    /// Appends a child of `parent` lasting `nanos`, laid after the
    /// parent's existing children and clipped to the parent's end (a
    /// replay can run slower than the original did).
    pub fn child(&mut self, parent: u32, name: &'static str, nanos: u64, replayed: bool) {
        let p = &self.spans[parent as usize - 1];
        let (request, parent_end) = (p.request, p.end_ns);
        let start_ns = self.cursor[parent as usize - 1];
        let end_ns = (start_ns + nanos).min(parent_end);
        self.cursor[parent as usize - 1] = end_ns;
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            request,
            name,
            start_ns,
            end_ns,
            replayed,
        });
        self.cursor.push(start_ns);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The root spans.
    pub fn roots(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(|s| s.parent == 0)
    }

    /// Self time of every span: its duration minus its children's.
    pub fn self_times(&self) -> BTreeMap<u32, u64> {
        let mut own: BTreeMap<u32, u64> = self
            .spans
            .iter()
            .map(|s| (s.id, s.end_ns - s.start_ns))
            .collect();
        for s in &self.spans {
            if s.parent != 0 {
                let covered = s.end_ns - s.start_ns;
                let parent = own.get_mut(&s.parent).expect("parent precedes child");
                *parent = parent.saturating_sub(covered);
            }
        }
        own
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut w = BufWriter::new(fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"replayed\":{}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.replayed
            )?;
        }
        w.flush()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_times_of_a_request_sum_to_its_duration() {
        let mut trace = Trace::new();
        let t0 = Instant::now();
        let a = trace.root(7, "wire.request", t0, t0 + Duration::from_nanos(1_000));
        trace.child(a, "protocol.decode", 100, true);
        trace.child(a, "ch.distance", 300, true);
        let b = trace.root(8, "wire.request", t0, t0 + Duration::from_nanos(500));
        // A replay slower than the original is clipped to the parent.
        trace.child(b, "ch.distance", 400, true);
        trace.child(b, "protocol.encode", 400, true);

        let own = trace.self_times();
        for root in trace.roots() {
            let total: u64 = trace
                .spans()
                .iter()
                .filter(|s| s.request == root.request)
                .map(|s| own[&s.id])
                .sum();
            assert_eq!(total, root.end_ns - root.start_ns);
        }
        assert_eq!(own[&a], 600);
        assert_eq!(own[&b], 0);
        // Children lie inside their parent, end to end.
        let s = trace.spans();
        assert_eq!(
            (s[1].start_ns, s[1].end_ns),
            (s[0].start_ns, s[0].start_ns + 100)
        );
        assert_eq!(s[2].start_ns, s[1].end_ns);
        assert_eq!(s[5].end_ns, s[3].end_ns);
    }
}
