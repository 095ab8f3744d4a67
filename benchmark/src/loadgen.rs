//! The benchmark's own load generator: one thread, one connection.
//!
//! Closed loop with a sliding window: `depth` requests are kept in
//! flight and each reply that arrives is replaced by the next request of
//! the list (callers that each wait for their reply). Replies are parsed
//! out of one growing read buffer and their replacements leave in one
//! `write`, so the generator costs a fraction of a core and the server's
//! CPU is what a run saturates.
//!
//! A request's latency runs from just before the `write` that carries it
//! to just after the `read` that completed its reply.

use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use spq_serve::protocol::STATUS_OK;

use crate::ops::Frames;
use crate::trace::Trace;

/// When a closed-loop phase stops issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant.
    At(Instant),
    /// After this many requests have been sent.
    AfterSent(u64),
}

/// What one closed-loop phase records, beyond latencies.
#[derive(Default)]
pub struct Tally {
    /// Requests sent.
    pub sent: u64,
    /// Replies read.
    pub completed: u64,
    /// Replies whose status was not OK (refusals and errors).
    pub refused: u64,
    /// Payload bytes of all replies.
    pub resp_bytes: u64,
    /// Kept answers: `(slot in the frame list, reply payload)`.
    pub samples: Vec<(u32, Vec<u8>)>,
    /// Traced requests: `(root span id, slot)`.
    pub traced: Vec<(u32, u32)>,
}

/// How a closed-loop phase records what it sees.
pub struct Recorder<'a> {
    /// Keep latencies at all (not during warm-up).
    pub keep: bool,
    /// Latency in nanoseconds of every recorded reply; the caller takes
    /// the vector at each window's end.
    pub lat_ns: Vec<u32>,
    /// The same latencies per op class (traced phases).
    pub by_class: Option<Vec<Vec<u32>>>,
    /// Keep every n-th reply for verification (0: none).
    pub sample_every: u64,
    /// Record a root span for every n-th request (with `trace`).
    pub trace_every: u64,
    /// The span list of a traced phase.
    pub trace: Option<&'a mut Trace>,
    /// Counts and kept replies.
    pub tally: Tally,
}

impl<'a> Recorder<'a> {
    /// Records nothing but counts (warm-up, pre-warm).
    pub fn discard() -> Recorder<'a> {
        Recorder {
            keep: false,
            lat_ns: Vec::new(),
            by_class: None,
            sample_every: 0,
            trace_every: 0,
            trace: None,
            tally: Tally::default(),
        }
    }

    /// Records latencies only (probes).
    pub fn latencies() -> Recorder<'a> {
        Recorder {
            keep: true,
            ..Recorder::discard()
        }
    }

    /// Notes one completed op of `class`.
    #[inline]
    pub fn latency(&mut self, ns: u32, class: u8) {
        if self.keep {
            self.lat_ns.push(ns);
            if let Some(by_class) = &mut self.by_class {
                by_class[class as usize].push(ns);
            }
        }
    }
}

struct InFlight {
    slot: u32,
    seq: u64,
    sent: Instant,
}

/// One client connection and its buffers.
pub struct Conn {
    stream: TcpStream,
    /// Unparsed reply bytes are `rbuf[head..tail]`.
    rbuf: Vec<u8>,
    head: usize,
    tail: usize,
    wbuf: Vec<u8>,
    inflight: VecDeque<InFlight>,
    /// Next slot of the frame list to send (taken modulo the list's
    /// length, so a shorter list may follow a longer one).
    cursor: usize,
    /// Requests sent over the connection's lifetime.
    seq: u64,
}

impl Conn {
    /// Connects; returns the connection and how long `connect` took.
    pub fn open(addr: SocketAddr) -> io::Result<(Conn, Duration)> {
        let t = Instant::now();
        let stream = TcpStream::connect(addr)?;
        let took = t.elapsed();
        stream.set_nodelay(true)?;
        // A server that stops answering must fail the run, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(20)))?;
        stream.set_write_timeout(Some(Duration::from_secs(20)))?;
        Ok((
            Conn {
                stream,
                rbuf: vec![0; 1 << 16],
                head: 0,
                tail: 0,
                wbuf: Vec::with_capacity(1 << 16),
                inflight: VecDeque::with_capacity(64),
                cursor: 0,
                seq: 0,
            },
            took,
        ))
    }

    /// Reads more reply bytes (blocking) into the buffer.
    fn fill(&mut self) -> io::Result<()> {
        if self.head == self.tail {
            self.head = 0;
            self.tail = 0;
        } else if self.tail == self.rbuf.len() {
            if self.head > 0 {
                self.rbuf.copy_within(self.head..self.tail, 0);
                self.tail -= self.head;
                self.head = 0;
            } else {
                let grown = self.rbuf.len() * 2;
                self.rbuf.resize(grown, 0);
            }
        }
        loop {
            match self.stream.read(&mut self.rbuf[self.tail..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        ErrorKind::UnexpectedEof,
                        "server closed the connection",
                    ))
                }
                Ok(n) => {
                    self.tail += n;
                    return Ok(());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The next complete reply payload in the buffer, if any.
    fn next_reply(&mut self) -> Option<(usize, usize)> {
        let have = self.tail - self.head;
        if have < 4 {
            return None;
        }
        let len = u32::from_le_bytes(
            self.rbuf[self.head..self.head + 4]
                .try_into()
                .expect("four bytes"),
        ) as usize;
        if have < 4 + len {
            return None;
        }
        let at = self.head + 4;
        self.head = at + len;
        Some((at, len))
    }

    fn queue(&mut self, frames: &Frames, sent: Instant) {
        let slot = self.cursor % frames.len();
        self.cursor = slot + 1;
        self.wbuf.extend_from_slice(frames.frame(slot));
        self.inflight.push_back(InFlight {
            slot: slot as u32,
            seq: self.seq,
            sent,
        });
        self.seq += 1;
    }

    /// Runs a closed-loop phase over `frames` with `depth` requests in
    /// flight until `stop`, then waits for the replies still owed. Only
    /// replies that arrive before the stop are recorded.
    pub fn closed_loop(
        &mut self,
        frames: &Frames,
        depth: usize,
        stop: Stop,
        rec: &mut Recorder<'_>,
    ) -> io::Result<()> {
        assert!(self.inflight.is_empty() && !frames.is_empty() && depth > 0);
        let sent_before = self.seq;
        let may_send = |conn: &Conn, now: Instant| match stop {
            Stop::At(end) => now < end,
            Stop::AfterSent(n) => conn.seq - sent_before < n,
        };
        let mut now = Instant::now();
        loop {
            // Refill the window and send the batch in one write.
            while self.inflight.len() < depth && may_send(self, now) {
                self.queue(frames, now);
            }
            if !self.wbuf.is_empty() {
                self.stream.write_all(&self.wbuf)?;
                self.wbuf.clear();
            }
            if self.inflight.is_empty() {
                break;
            }
            self.fill()?;
            now = Instant::now();
            let recording = may_send(self, now) || matches!(stop, Stop::AfterSent(_));
            while let Some((at, len)) = self.next_reply() {
                let req = self
                    .inflight
                    .pop_front()
                    .expect("a reply arrived with nothing in flight");
                if !recording {
                    continue;
                }
                let payload = &self.rbuf[at..at + len];
                rec.tally.completed += 1;
                rec.tally.resp_bytes += len as u64;
                if payload.first() != Some(&STATUS_OK) {
                    rec.tally.refused += 1;
                }
                let ns = (now - req.sent).as_nanos().min(u32::MAX as u128) as u32;
                rec.latency(ns, frames.class(req.slot as usize));
                if rec.sample_every > 0 && req.seq % rec.sample_every == 0 {
                    rec.tally.samples.push((req.slot, payload.to_vec()));
                }
                if let Some(trace) = rec.trace.as_deref_mut() {
                    if req.seq % rec.trace_every == 0 {
                        let root = trace.root(req.seq, "wire.request", req.sent, now);
                        rec.tally.traced.push((root, req.slot));
                    }
                }
            }
            now = Instant::now();
        }
        rec.tally.sent += self.seq - sent_before;
        Ok(())
    }

    /// Open-loop probe: request `i` is due at `start + i / rate`, sent
    /// as soon after as the generator gets to it, and timed **from its
    /// due time**, so a stall charges every request it delays. At most
    /// `depth` requests are outstanding on the wire; the rest of a
    /// backlog waits in the generator (and is counted).
    pub fn open_loop(
        &mut self,
        frames: &Frames,
        rate: f64,
        depth: usize,
        seconds: f64,
    ) -> io::Result<OpenLoop> {
        assert!(self.inflight.is_empty());
        self.stream.set_nonblocking(true)?;
        let result = self.open_loop_inner(frames, rate, depth, seconds);
        self.stream.set_nonblocking(false)?;
        result
    }

    fn open_loop_inner(
        &mut self,
        frames: &Frames,
        rate: f64,
        depth: usize,
        seconds: f64,
    ) -> io::Result<OpenLoop> {
        let start = Instant::now();
        let total = (rate * seconds) as u64;
        let due = |i: u64| start + Duration::from_secs_f64(i as f64 / rate);
        let give_up = start + Duration::from_secs_f64(seconds + 20.0);
        let mut out = OpenLoop::default();
        let mut issued = 0u64;
        let mut completed = 0u64;
        let mut unsent = 0usize; // bytes of wbuf already written
        while completed < total {
            let now = Instant::now();
            if now > give_up {
                return Err(io::Error::new(
                    ErrorKind::TimedOut,
                    "open-loop probe never drained",
                ));
            }
            while issued < total && self.inflight.len() < depth && due(issued) <= now {
                out.late_us.push((now - due(issued)).as_micros() as u32);
                self.queue(frames, due(issued));
                issued += 1;
            }
            // Requests that are due but could not be issued yet.
            let due_by_now = (((now - start).as_secs_f64() * rate) as u64 + 1).min(total);
            out.backlog_max = out.backlog_max.max(due_by_now - completed);
            if unsent < self.wbuf.len() {
                match self.stream.write(&self.wbuf[unsent..]) {
                    Ok(n) => unsent += n,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                    Err(e) => return Err(e),
                }
                if unsent == self.wbuf.len() {
                    self.wbuf.clear();
                    unsent = 0;
                }
            }
            match self.fill() {
                Ok(()) => {
                    let done = Instant::now();
                    while let Some((at, len)) = self.next_reply() {
                        let req = self.inflight.pop_front().expect("reply without request");
                        completed += 1;
                        if self.rbuf[at..at + len].first() != Some(&STATUS_OK) {
                            out.refused += 1;
                        }
                        out.lat_us.push((done - req.sent).as_micros() as u32);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::hint::spin_loop(),
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }
}

/// What the open-loop probe saw.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Replies with a non-OK status.
    pub refused: u64,
    /// Latency from each request's due time, µs.
    pub lat_us: Vec<u32>,
    /// How late after its due time each request was issued, µs.
    pub late_us: Vec<u32>,
    /// Most requests due but not yet answered at any moment.
    pub backlog_max: u64,
}
