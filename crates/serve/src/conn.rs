//! One connection's state machine, with no socket in it. [`Conn`] owns
//! framing and the oversized-frame refusal, pipeline-depth and
//! write-backlog gating, in-order sequencing of inline and pooled
//! answers, the write-progress and mid-frame stall clocks, the bytes it
//! holds against the memory budget, its epoll interest and the one
//! close decision. It owns no file descriptor, never reads the clock
//! and touches no atomics: bytes and instants go in, frames,
//! write-ready bytes, a memory delta, the wanted [`Interest`] and at
//! most one [`CloseReason`] come out. The shard in [`crate::server`] is
//! its socket shell; the property suite below drives it without one.

use std::collections::BTreeMap;
use std::io;
use std::time::{Duration, Instant};

use crate::protocol;

/// Per-connection unparsed-bytes cap: one max frame plus slack. A peer
/// flooding bytes is paused at it, and never read past it.
pub(crate) const RBUF_CAP: usize = protocol::MAX_FRAME + 4 + 64 * 1024;

/// Bytes one read call may ask for.
const READ_CHUNK: usize = 16 * 1024;

/// The shard-wide rules every connection is held to; the last three
/// are the [`crate::server::ServerConfig`] values of the same names.
#[derive(Debug, Clone)]
pub(crate) struct Limits {
    /// Largest frame payload; a longer length prefix loses the framing.
    pub max_frame: usize,
    /// Most unparsed bytes one connection may hold.
    pub rbuf_cap: usize,
    pub pipeline_depth: usize,
    pub wbuf_cap: usize,
    pub peer_timeout: Duration,
}

/// Epoll interest: EPOLLIN and EPOLLOUT.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Default for Interest {
    /// What a connection is registered with: reads only.
    fn default() -> Self {
        let (read, write) = (true, false);
        Interest { read, write }
    }
}

/// Why a connection closed; a connection yields at most one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CloseReason {
    /// The socket failed or hung up.
    Broken,
    /// A request died (a panic, an injected drop), and its siblings too.
    Aborted,
    /// An oversized frame lost the framing; its error was flushed.
    Refused,
    /// Shutdown; everything owed was flushed.
    Shutdown,
    /// The peer sent EOF; everything owed was flushed.
    PeerDone,
    /// A started frame stopped arriving (`client_timeouts`).
    StalledMidFrame,
    /// The peer stopped accepting responses (`client_timeouts`).
    StoppedReading,
    /// As `StoppedReading`, at the write-backlog cap (`slow_closed`).
    SlowReader,
    /// The force-stop linger ran out.
    ForceStop,
}

/// What [`Conn::next_frame`] found at the head of the unparsed bytes.
pub(crate) enum Next<'a> {
    /// Nothing to parse: no complete frame, or gated, or closing.
    Idle,
    /// A complete frame waits, but the caller said it may not start one.
    Held,
    /// An oversized length prefix: its error is sequenced; close follows.
    Refused,
    /// A request, consumed: its sequence number (answer it under that),
    /// whether it was pipelined (sent before the peer had every earlier
    /// response), and its payload.
    Request(u64, bool, &'a [u8]),
}

/// How the unparsed bytes start.
#[derive(PartialEq, Eq)]
enum Head {
    Partial,
    Complete(usize),
    Oversized,
}

/// One connection, owned by exactly one shard.
#[derive(Default)]
pub(crate) struct Conn {
    /// Received-but-unparsed bytes past the consumed prefix `rstart`:
    /// never sized by a length prefix, only by what arrived.
    rbuf: Vec<u8>,
    rstart: usize,
    /// Bytes queued to write; `wstart` is the flushed prefix.
    wbuf: Vec<u8>,
    wstart: usize,
    /// Sequence number of the next parsed frame.
    next_seq: u64,
    /// Sequence number of the next response to queue: responses leave
    /// strictly in request order, so `next_seq - next_flush` are owed.
    next_flush: u64,
    /// Answered responses waiting for a predecessor.
    ready: BTreeMap<u64, Vec<u8>>,
    /// The mid-frame stall clock (see [`Conn::reap`]).
    partial_since: Option<Instant>,
    /// Last write progress (set whenever bytes are queued).
    last_write_progress: Option<Instant>,
    /// The interest last handed to the shell to register.
    interest: Interest,
    /// Buffered bytes last reported to the memory gauge.
    accounted: usize,
    /// Flush what is queued, then close (framing is lost).
    close_after_flush: bool,
    /// The peer sent EOF.
    eof: bool,
    /// Close now, for this reason.
    failed: Option<CloseReason>,
    /// [`Conn::reap`] has named its reason.
    closed: bool,
}

impl Conn {
    fn rpending(&self) -> usize {
        self.rbuf.len() - self.rstart
    }

    /// Response bytes queued but not yet written.
    pub(crate) fn wpending(&self) -> usize {
        self.wbuf.len() - self.wstart
    }

    /// Requests parsed whose responses are not yet queued.
    fn owed(&self) -> usize {
        (self.next_seq - self.next_flush) as usize
    }

    /// Pipeline full or write backlog at its cap: no new work.
    fn gated(&self, lim: &Limits) -> bool {
        self.owed() >= lim.pipeline_depth || self.wpending() >= lim.wbuf_cap
    }

    /// The one parse of the length prefix.
    fn head(&self, lim: &Limits) -> Head {
        let Some(prefix) = self.rbuf.get(self.rstart..self.rstart + 4) else {
            return Head::Partial;
        };
        let len = u32::from_le_bytes(prefix.try_into().expect("4 bytes")) as usize;
        if len > lim.max_frame {
            Head::Oversized
        } else if self.rpending() >= 4 + len {
            Head::Complete(len)
        } else {
            Head::Partial
        }
    }

    /// Closes at the next [`Conn::reap`]; the first reason given wins.
    pub(crate) fn abort(&mut self, reason: CloseReason) {
        self.failed.get_or_insert(reason);
    }

    /// Reads what the peer sent through `read`: at most the room left
    /// under [`Limits::rbuf_cap`], and at most eight chunks per
    /// readiness event so one firehose cannot starve its shard. Notes
    /// EOF and hard errors. New bytes restart the mid-frame clock.
    pub(crate) fn fill(
        &mut self,
        lim: &Limits,
        mut read: impl FnMut(&mut [u8]) -> io::Result<usize>,
    ) {
        let mut chunk = [0u8; READ_CHUNK];
        for _ in 0..8 {
            let room = lim.rbuf_cap.saturating_sub(self.rpending()).min(READ_CHUNK);
            if room == 0 || self.failed.is_some() {
                break;
            }
            match read(&mut chunk[..room]) {
                Ok(0) => {
                    self.eof = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&chunk[..n]);
                    self.partial_since = None;
                    if n < room {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.abort(CloseReason::Broken),
            }
        }
    }

    /// Takes the next frame off the unparsed bytes, if one may be
    /// parsed; `may_start` is the caller's own gate (a per-pass bound,
    /// an executor that must re-pin first).
    pub(crate) fn next_frame(&mut self, lim: &Limits, may_start: bool, now: Instant) -> Next<'_> {
        if self.failed.is_some() || self.close_after_flush || self.gated(lim) {
            return Next::Idle;
        }
        match self.head(lim) {
            Head::Partial => Next::Idle,
            Head::Oversized => {
                let seq = self.next_seq;
                self.next_seq += 1;
                let error = protocol::encode_error("frame exceeds the size limit");
                self.respond(seq, now, error);
                self.close_after_flush = true;
                Next::Refused
            }
            Head::Complete(_) if !may_start => Next::Held,
            Head::Complete(len) => {
                let pipelined = self.owed() > 0 || self.wpending() > 0;
                let seq = self.next_seq;
                self.next_seq += 1;
                let at = self.rstart + 4;
                self.rstart = at + len;
                Next::Request(seq, pipelined, &self.rbuf[at..at + len])
            }
        }
    }

    /// The one sequencing path: `encode` appends the response payload
    /// to request `seq` — straight behind a frame header in the write
    /// queue when `seq` is next in line (no copy), into a parked buffer
    /// otherwise — and returns false to withdraw it (whatever it
    /// appended is dropped). Returns what `encode` returned.
    pub(crate) fn respond_with(
        &mut self,
        seq: u64,
        now: Instant,
        encode: impl FnOnce(&mut Vec<u8>) -> bool,
    ) -> bool {
        if seq != self.next_flush {
            let mut parked = Vec::new();
            let kept = encode(&mut parked);
            if kept {
                self.ready.insert(seq, parked);
            }
            return kept;
        }
        if self.wpending() == 0 {
            // Drained to pending restarts the write-stall clock.
            self.last_write_progress = Some(now);
        }
        let mut header = self.wbuf.len();
        self.wbuf.extend_from_slice(&[0; 4]);
        if !encode(&mut self.wbuf) {
            self.wbuf.truncate(header);
            return false;
        }
        loop {
            let len = (self.wbuf.len() - header - 4) as u32;
            self.wbuf[header..header + 4].copy_from_slice(&len.to_le_bytes());
            self.next_flush += 1;
            // Responses parked behind this one are now in line.
            let Some(payload) = self.ready.remove(&self.next_flush) else {
                return true;
            };
            header = self.wbuf.len();
            self.wbuf.extend_from_slice(&[0; 4]);
            self.wbuf.extend_from_slice(&payload);
        }
    }

    /// [`Conn::respond_with`] for a finished payload (parked as is).
    pub(crate) fn respond(&mut self, seq: u64, now: Instant, payload: Vec<u8>) {
        self.respond_with(seq, now, |out| {
            if out.is_empty() {
                *out = payload;
            } else {
                out.extend_from_slice(&payload);
            }
            true
        });
    }

    /// Writes queued responses through `write` until it would block.
    pub(crate) fn flush(
        &mut self,
        now: Instant,
        mut write: impl FnMut(&[u8]) -> io::Result<usize>,
    ) {
        while self.failed.is_none() && self.wstart < self.wbuf.len() {
            match write(&self.wbuf[self.wstart..]) {
                Ok(0) => self.abort(CloseReason::Broken),
                Ok(n) => {
                    self.wstart += n;
                    self.last_write_progress = Some(now);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => self.abort(CloseReason::Broken),
            }
        }
        compact(&mut self.wbuf, &mut self.wstart);
    }

    /// Ends a service pass: reports the change in buffered bytes
    /// (unparsed + unwritten + parked) to `charge`, which answers
    /// whether the global budget is exceeded, and returns the interest
    /// to register if it changed: EPOLLOUT while output is pending,
    /// EPOLLIN unless closing, gated, at the unparsed-bytes cap or over
    /// budget — so TCP pushes back on the peer. Hangups still arrive.
    pub(crate) fn settle(
        &mut self,
        lim: &Limits,
        charge: impl FnOnce(isize) -> bool,
    ) -> Option<Interest> {
        compact(&mut self.rbuf, &mut self.rstart);
        let live =
            self.rpending() + self.wpending() + self.ready.values().map(Vec::len).sum::<usize>();
        let over_budget = charge(live as isize - self.accounted as isize);
        self.accounted = live;
        let want = Interest {
            read: !self.close_after_flush
                && self.rpending() < lim.rbuf_cap
                && !self.gated(lim)
                && !over_budget,
            write: self.wpending() > 0,
        };
        if self.failed.is_some() || want == self.interest {
            return None;
        }
        self.interest = want;
        Some(want)
    }

    /// Runs the stall clocks and makes the one close decision (call
    /// after [`Conn::settle`]). The mid-frame clock runs while a
    /// trailing partial frame waits on a peer that can send it: new
    /// bytes restart it, a complete frame held by backpressure is no
    /// stall, and it is held while the server paused reading with
    /// anything owed — a peer busy reading its responses is not
    /// stalling. With nothing owed it runs even while reads are paused,
    /// so a partial frame that alone exceeds the memory budget is reaped
    /// instead of pausing every connection for good.
    pub(crate) fn reap(
        &mut self,
        now: Instant,
        lim: &Limits,
        stopping: bool,
        force_expired: bool,
    ) -> Option<CloseReason> {
        let head = self.head(lim);
        let drained = self.owed() == 0 && self.wpending() == 0;
        let partial = self.rpending() > 0 && head == Head::Partial && !self.close_after_flush;
        if partial && (self.interest.read || drained) {
            self.partial_since.get_or_insert(now);
        } else {
            self.partial_since = None;
        }
        if self.closed {
            return None;
        }
        let timed_out = |since: Instant| now.duration_since(since) >= lim.peer_timeout;
        let reason = if let Some(reason) = self.failed {
            reason
        } else if drained && self.close_after_flush {
            CloseReason::Refused
        } else if drained && stopping {
            CloseReason::Shutdown
        } else if drained && self.eof && head == Head::Partial {
            CloseReason::PeerDone
        } else if self.owed() == 0 && self.partial_since.is_some_and(timed_out) {
            // Only once nothing is owed: a slow-loris with responses
            // still in flight is reaped after they flush.
            CloseReason::StalledMidFrame
        } else if self.wpending() > 0 && self.last_write_progress.is_some_and(timed_out) {
            if self.wpending() >= lim.wbuf_cap {
                CloseReason::SlowReader
            } else {
                CloseReason::StoppedReading
            }
        } else if force_expired {
            CloseReason::ForceStop
        } else {
            return None;
        };
        self.closed = true;
        Some(reason)
    }

    /// The bytes still charged to the memory gauge, for the shell to
    /// refund as the connection goes.
    pub(crate) fn release(self) -> usize {
        self.accounted
    }
}

/// Drops a buffer's consumed prefix once it dominates, and returns
/// capacity a past burst grew once it is no longer needed.
fn compact(buf: &mut Vec<u8>, start: &mut usize) {
    if *start == buf.len() {
        buf.clear();
        *start = 0;
        if buf.capacity() > 256 * 1024 {
            buf.shrink_to(64 * 1024);
        }
    } else if *start > 64 * 1024 {
        buf.drain(..*start);
        *start = 0;
    }
}

#[cfg(test)]
mod tests {
    //! Properties of the core, driven by a simulated shard: several
    //! connections sharing one memory budget, fed random byte splits,
    //! routed inline or pooled at random, completed in random order,
    //! read back in random pieces, under random clock steps and budget
    //! flips. Property names (a)–(g) and `rbuf` tag each assertion.

    use super::*;
    use proptest::prelude::*;
    use proptest::TestRng;

    const TIMEOUT: Duration = Duration::from_millis(100);

    fn limits(rng: &mut TestRng) -> Limits {
        let max_frame = 8 + rng.below(56) as usize;
        Limits {
            max_frame,
            rbuf_cap: max_frame + 4 + rng.below(64) as usize,
            pipeline_depth: 1 + rng.below(4) as usize,
            wbuf_cap: 8 + rng.below(120) as usize,
            peer_timeout: TIMEOUT,
        }
    }

    fn chance(rng: &mut TestRng, one_in: u128) -> bool {
        rng.below(one_in) == 0
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_le_bytes().to_vec();
        out.extend_from_slice(payload);
        out
    }

    /// The frames a byte stream starts with: payloads, then `None` for
    /// a length prefix past `max_frame` (after which nothing parses).
    fn reference_frames(bytes: &[u8], max_frame: usize) -> Vec<Option<Vec<u8>>> {
        let (mut out, mut at) = (Vec::new(), 0);
        while let Some(prefix) = bytes.get(at..at + 4) {
            let len = u32::from_le_bytes(prefix.try_into().unwrap()) as usize;
            if len > max_frame {
                out.push(None);
                break;
            }
            let Some(payload) = bytes.get(at + 4..at + 4 + len) else {
                break;
            };
            out.push(Some(payload.to_vec()));
            at += 4 + len;
        }
        out
    }

    fn response(request: &[u8]) -> Vec<u8> {
        [b"R", request].concat()
    }

    fn refusal() -> Vec<u8> {
        protocol::encode_error("frame exceeds the size limit")
    }

    /// A peer's stream: `n` requests (`[index, conn, filler…]`), then,
    /// maybe, an oversized length prefix and junk. Returns the stream
    /// and the responses the peer must get, in order.
    fn peer_stream(rng: &mut TestRng, lim: &Limits, id: u8, n: usize) -> (Vec<u8>, Vec<Vec<u8>>) {
        let (mut stream, mut expect) = (Vec::new(), Vec::new());
        for i in 0..n {
            let mut payload = vec![i as u8, id];
            let extra = rng.below((lim.max_frame - 1) as u128) as usize;
            payload.extend((0..extra).map(|_| rng.next_u64() as u8));
            stream.extend_from_slice(&frame(&payload));
            expect.push(response(&payload));
        }
        if chance(rng, 4) {
            let claim = if chance(rng, 2) {
                lim.max_frame as u64 + 1 + rng.below(16) as u64
            } else {
                lim.max_frame as u64
                    + 1
                    + rng.below(u32::MAX as u128 - lim.max_frame as u128) as u64
            };
            stream.extend_from_slice(&(claim as u32).to_le_bytes());
            stream.extend((0..rng.below(32)).map(|_| rng.next_u64() as u8));
            expect.push(refusal());
        }
        (stream, expect)
    }

    /// `should_close` as the shard had it before the core existed:
    /// whether the connection closes now, and the counter that bumps.
    fn reference_close(
        c: &Conn,
        now: Instant,
        lim: &Limits,
        stopping: bool,
    ) -> Option<&'static str> {
        if c.failed.is_some() {
            return Some("");
        }
        let drained = c.owed() == 0 && c.wpending() == 0;
        let full_frame = c.head(lim) != Head::Partial;
        if drained && (c.close_after_flush || stopping || c.eof && !full_frame) {
            return Some("");
        }
        if c.owed() == 0 {
            if let Some(t0) = c.partial_since {
                if now.duration_since(t0) >= lim.peer_timeout {
                    return Some("client_timeouts");
                }
            }
        }
        let progress = |c: &Conn| c.last_write_progress.expect("set when bytes were queued");
        if c.wpending() > 0 && now.duration_since(progress(c)) >= lim.peer_timeout {
            return Some(if c.wpending() >= lim.wbuf_cap {
                "slow_closed"
            } else {
                "client_timeouts"
            });
        }
        None
    }

    fn counter(reason: CloseReason) -> &'static str {
        match reason {
            CloseReason::StalledMidFrame | CloseReason::StoppedReading => "client_timeouts",
            CloseReason::SlowReader => "slow_closed",
            _ => "",
        }
    }

    fn live(c: &Conn) -> usize {
        c.rbuf.len() - c.rstart + c.wbuf.len() - c.wstart
            + c.ready.values().map(Vec::len).sum::<usize>()
    }

    struct Peer {
        stream: Vec<u8>,
        expect: Vec<Vec<u8>>,
        /// Bytes sent so far; the server has read `read` of them.
        sent: usize,
        read: usize,
        eof: bool,
        inbox: Vec<u8>,
    }

    struct Open {
        conn: Conn,
        peer: Peer,
        /// Requests the core handed out (refusals included).
        parsed: usize,
        /// The sum of the memory deltas this connection reported.
        charged: isize,
    }

    struct Sim {
        lim: Limits,
        now: Instant,
        rng: TestRng,
        conns: Vec<Option<Open>>,
        /// Pooled requests: connection, sequence number, response.
        pool: Vec<(usize, u64, Vec<u8>)>,
        gauge: isize,
        budget: isize,
        reasons: Vec<Option<CloseReason>>,
    }

    impl Sim {
        fn new(seed: u64) -> Sim {
            let mut rng = TestRng::new(seed);
            let lim = limits(&mut rng);
            let now = Instant::now();
            let n_conns = 2 + rng.below(2) as usize;
            let conns = (0..n_conns)
                .map(|id| {
                    let n = rng.below(24) as usize;
                    let (stream, expect) = peer_stream(&mut rng, &lim, id as u8, n);
                    let peer = Peer {
                        stream,
                        expect,
                        sent: 0,
                        read: 0,
                        eof: false,
                        inbox: Vec::new(),
                    };
                    Some(Open {
                        conn: Conn::default(),
                        peer,
                        parsed: 0,
                        charged: 0,
                    })
                })
                .collect();
            let budget = rng.below(4 * lim.rbuf_cap as u128) as isize;
            Sim {
                lim,
                now,
                rng,
                conns,
                pool: Vec::new(),
                gauge: 0,
                budget,
                reasons: vec![None; n_conns],
            }
        }

        /// The shell's readiness step: read only what epoll would report.
        fn readable(&mut self, i: usize) {
            let Sim {
                lim, rng, conns, ..
            } = self;
            let Some(open) = conns[i].as_mut() else {
                return;
            };
            if !open.conn.interest.read {
                return;
            }
            let peer = &mut open.peer;
            open.conn.fill(lim, |buf| {
                let avail = peer.sent - peer.read;
                if avail == 0 {
                    return if peer.eof {
                        Ok(0)
                    } else {
                        Err(io::ErrorKind::WouldBlock.into())
                    };
                }
                let n = 1 + rng.below(avail.min(buf.len()) as u128) as usize;
                buf[..n].copy_from_slice(&peer.stream[peer.read..peer.read + n]);
                peer.read += n;
                Ok(n)
            });
            assert!(
                open.conn.rpending() <= lim.rbuf_cap,
                "(rbuf) read past the cap"
            );
        }

        /// The shell's service step; `drain`: the peer reads everything
        /// and the budget is not exceeded.
        fn service(&mut self, i: usize, stopping: bool, drain: bool) {
            let Sim {
                lim,
                now,
                rng,
                conns,
                pool,
                gauge,
                budget,
                reasons,
            } = self;
            let now = *now;
            let Some(open) = conns[i].as_mut() else {
                return;
            };
            let (conn, peer, charged) = (&mut open.conn, &mut open.peer, &mut open.charged);
            let mut parsed = 0;
            loop {
                // Once shutdown is requested the shell starts no new work.
                if stopping {
                    break;
                }
                let gated = conn.gated(lim);
                let next = conn.next_frame(lim, parsed < lim.pipeline_depth, now);
                if !matches!(next, Next::Idle) {
                    assert!(!gated, "(c) a gated connection was parsed");
                }
                let (seq, request) = match next {
                    Next::Request(seq, _, payload) => (seq, payload.to_vec()),
                    Next::Refused => {
                        open.parsed += 1;
                        break;
                    }
                    Next::Held | Next::Idle => break,
                };
                parsed += 1;
                open.parsed += 1;
                let inline = rng.below(3);
                if inline == 0 {
                    let answered = conn.respond_with(seq, now, |out| {
                        out.extend_from_slice(&response(&request));
                        true
                    });
                    assert!(answered);
                } else {
                    if inline == 1 {
                        // A handoff: what the encoder wrote is withdrawn.
                        let kept = conn.respond_with(seq, now, |out| {
                            out.extend_from_slice(b"withdrawn");
                            false
                        });
                        assert!(!kept);
                    }
                    pool.push((i, seq, response(&request)));
                }
            }
            let mut room = if drain {
                usize::MAX
            } else {
                rng.below(3) as usize * rng.below(2 * lim.wbuf_cap as u128) as usize
            };
            conn.flush(now, |buf| {
                if room == 0 {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                let n = buf
                    .len()
                    .min(room)
                    .min(1 + rng.below(buf.len() as u128) as usize);
                peer.inbox.extend_from_slice(&buf[..n]);
                room -= n;
                Ok(n)
            });
            let got: Vec<Vec<u8>> = reference_frames(&peer.inbox, usize::MAX)
                .into_iter()
                .flatten()
                .collect();
            assert!(
                got.len() <= peer.expect.len() && got[..] == peer.expect[..got.len()],
                "(a) responses out of order or repeated"
            );
            let flip = !drain && chance(rng, 6);
            conn.settle(lim, |delta| {
                *gauge += delta;
                *charged += delta;
                !drain && (*gauge > *budget || flip)
            });
            assert_eq!(
                *charged,
                live(conn) as isize,
                "(b) the deltas drifted from live bytes"
            );
            // A failed connection closes in this pass, interest unchanged.
            if conn.failed.is_none() && (conn.gated(lim) || conn.rpending() >= lim.rbuf_cap) {
                assert!(!conn.interest.read, "(c) a gated connection is still read");
            }

            let reason = conn.reap(now, lim, stopping, false);
            let partial =
                conn.rpending() > 0 && conn.head(lim) == Head::Partial && !conn.close_after_flush;
            let owed = conn.owed() > 0 || conn.wpending() > 0;
            if partial && owed && !conn.interest.read {
                assert!(
                    conn.partial_since.is_none(),
                    "(d) the clock ran while the server paused"
                );
            }
            if partial && !owed {
                assert!(
                    conn.partial_since.is_some(),
                    "(d) the clock held with nothing owed"
                );
            }
            assert_eq!(
                reason.map(counter),
                reference_close(conn, now, lim, stopping),
                "(g) classified unlike should_close"
            );
            let Some(reason) = reason else { return };
            assert_eq!(
                conn.reap(now, lim, stopping, true),
                None,
                "(g) a second reason"
            );
            assert!(reasons[i].replace(reason).is_none(), "(g) closed twice");
            let open = conns[i].take().unwrap();
            if matches!(
                reason,
                CloseReason::PeerDone | CloseReason::Refused | CloseReason::Shutdown
            ) {
                let got = reference_frames(&open.peer.inbox, usize::MAX).len();
                assert_eq!(got, open.parsed, "(a) a parsed request left unanswered");
            }
            if reason == CloseReason::PeerDone {
                assert_eq!(
                    open.parsed,
                    open.peer.expect.len(),
                    "(a) requests left unparsed"
                );
            }
            let refund = open.conn.release() as isize;
            assert_eq!(
                refund, open.charged,
                "(b) the refund is not what was charged"
            );
            *gauge -= refund;
        }

        fn complete(&mut self) {
            if self.pool.is_empty() {
                return;
            }
            let pick = self.rng.below(self.pool.len() as u128) as usize;
            let (i, seq, response) = self.pool.swap_remove(pick);
            let Some(open) = self.conns[i].as_mut() else {
                return;
            };
            if chance(&mut self.rng, 64) {
                open.conn.abort(CloseReason::Aborted);
            } else {
                open.conn.respond(seq, self.now, response);
            }
        }

        fn step(&mut self) {
            let n = self.conns.len();
            let i = self.rng.below(n as u128) as usize;
            match self.rng.below(10) {
                0..=2 => {
                    if let Some(open) = self.conns[i].as_mut() {
                        let more = 1 + self.rng.below(2 * self.lim.max_frame as u128) as usize;
                        open.peer.sent = (open.peer.sent + more).min(open.peer.stream.len());
                    }
                }
                3 | 4 => self.readable(i),
                5 | 6 => self.service(i, false, false),
                7 => self.complete(),
                8 => self.now += Duration::from_millis(self.rng.below(150) as u64),
                _ => {
                    if chance(&mut self.rng, 40) {
                        if let Some(open) = self.conns[i].as_mut() {
                            open.conn.abort(CloseReason::Broken);
                        }
                    }
                }
            }
        }

        /// Peers send everything and read everything until every
        /// connection has closed.
        fn drain(&mut self, stopping: bool) {
            for open in self.conns.iter_mut().flatten() {
                open.peer.sent = open.peer.stream.len();
                open.peer.eof = true;
            }
            for _ in 0..10_000 {
                while !self.pool.is_empty() {
                    self.complete();
                }
                for i in 0..self.conns.len() {
                    self.readable(i);
                    self.service(i, stopping, true);
                }
                // Every connection was settled after its last change.
                let sum: usize = self.conns.iter().flatten().map(|o| live(&o.conn)).sum();
                assert_eq!(
                    self.gauge, sum as isize,
                    "(b) the gauge drifted from live bytes"
                );
                if self.conns.iter().all(Option::is_none) {
                    assert_eq!(self.gauge, 0, "(b) the gauge did not return to zero");
                    return;
                }
            }
            panic!("connections still open after the drain");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// (a), (b), (c), (d), (g) and the read cap, over a random run
        /// of a simulated shard and then its drain.
        #[test]
        fn a_simulated_shard_keeps_every_connection_invariant(seed in any::<u64>(), steps in 0usize..400) {
            let mut sim = Sim::new(seed);
            for _ in 0..steps {
                sim.step();
            }
            let stopping = chance(&mut sim.rng, 4);
            sim.drain(stopping);
        }

        /// (e): one error frame in sequence, close after flush, and no
        /// allocation sized by the claim.
        #[test]
        fn an_oversized_prefix_is_refused_once_then_closed(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let lim = limits(&mut rng);
            let n = rng.below(8) as usize;
            let (mut stream, mut expect) = peer_stream(&mut rng, &lim, 0, n);
            if expect.last() != Some(&refusal()) {
                stream.extend_from_slice(&(lim.max_frame as u32 + 1).to_le_bytes());
                expect.push(refusal());
            }
            let mut conn = Conn::default();
            let (mut read, mut inbox, mut refusals) = (0, Vec::new(), 0);
            let now = Instant::now();
            let mut passes = 0;
            let reason = loop {
                passes += 1;
                prop_assert!(passes < 4 * stream.len() + 8, "(e) never closed");
                if conn.interest.read {
                    conn.fill(&lim, |buf| {
                        if read == stream.len() {
                            return Err(io::ErrorKind::WouldBlock.into());
                        }
                        let n = 1 + rng.below(buf.len().min(stream.len() - read) as u128) as usize;
                        buf[..n].copy_from_slice(&stream[read..read + n]);
                        read += n;
                        Ok(n)
                    });
                }
                prop_assert!(conn.rbuf.capacity() <= 2 * (64 * 1024 + lim.rbuf_cap), "(e) allocated to the claim");
                loop {
                    match conn.next_frame(&lim, true, now) {
                        Next::Request(seq, _, payload) => {
                            let answer = response(payload);
                            conn.respond(seq, now, answer);
                        }
                        Next::Refused => refusals += 1,
                        Next::Held | Next::Idle => break,
                    }
                }
                conn.flush(now, |buf| {
                    inbox.extend_from_slice(buf);
                    Ok(buf.len())
                });
                conn.settle(&lim, |_| false);
                if let Some(reason) = conn.reap(now, &lim, false, false) {
                    break reason;
                }
            };
            prop_assert_eq!(refusals, 1, "(e) refused more than once");
            prop_assert_eq!(reason, CloseReason::Refused, "(e) not closed after the flush");
            let got: Vec<Vec<u8>> = reference_frames(&inbox, usize::MAX).into_iter().flatten().collect();
            prop_assert_eq!(got, expect, "(e) the error is not the last, in-sequence frame");
        }

        /// (f): however the same bytes arrive, the same frames come out.
        #[test]
        fn every_split_of_a_stream_yields_the_same_frames(seed in any::<u64>()) {
            let mut rng = TestRng::new(seed);
            let mut lim = limits(&mut rng);
            lim.pipeline_depth = usize::MAX;
            let n = rng.below(24) as usize;
            let (mut stream, _) = peer_stream(&mut rng, &lim, 0, n);
            stream.extend((0..rng.below(8)).map(|_| rng.next_u64() as u8));
            let split = |rng: &mut TestRng| {
                let mut conn = Conn::default();
                let (mut read, mut frames) = (0, Vec::new());
                for _ in 0..4 * stream.len() + 8 {
                    conn.fill(&lim, |buf| {
                        if read == stream.len() {
                            return Err(io::ErrorKind::WouldBlock.into());
                        }
                        let n = 1 + rng.below(buf.len().min(stream.len() - read) as u128) as usize;
                        buf[..n].copy_from_slice(&stream[read..read + n]);
                        read += n;
                        Ok(n)
                    });
                    loop {
                        let now = Instant::now();
                        match conn.next_frame(&lim, true, now) {
                            Next::Request(seq, _, payload) => {
                                frames.push(Some(payload.to_vec()));
                                conn.respond(seq, now, Vec::new());
                            }
                            Next::Refused => frames.push(None),
                            Next::Held | Next::Idle => break,
                        }
                    }
                    conn.flush(Instant::now(), |buf| Ok(buf.len()));
                    conn.settle(&lim, |_| false);
                }
                frames
            };
            let first = split(&mut rng);
            let second = split(&mut rng);
            prop_assert_eq!(&first, &second, "(f) two splits, two frame sequences");
            prop_assert_eq!(first, reference_frames(&stream, lim.max_frame), "(f) frames unlike the stream's");
        }

        /// (d), both halves, and the refund: a half frame on a
        /// connection the server paused while it owed responses is
        /// never reaped, however long the peer drains them; one that
        /// owes nothing is reaped after the peer timeout even with
        /// reads paused by the budget, and its refund resumes reads on
        /// the connection sharing that budget.
        #[test]
        fn the_mid_frame_clock_runs_only_when_nothing_is_owed(seed in any::<u64>(), owed in 0usize..4) {
            let mut rng = TestRng::new(seed);
            let mut lim = limits(&mut rng);
            lim.pipeline_depth = 8;
            let start = Instant::now();
            let mut now = start;
            let (mut half, mut good) = (Conn::default(), Conn::default());
            let mut stream = Vec::new();
            for i in 0..owed {
                stream.extend_from_slice(&frame(&[i as u8]));
            }
            let tail = frame(&vec![7; lim.max_frame]);
            stream.extend_from_slice(&tail[..1 + rng.below(tail.len() as u128 - 1) as usize]);
            let (mut at, mut seqs) = (0, Vec::new());
            while at < stream.len() {
                half.fill(&lim, |buf| {
                    let n = buf.len().min(stream.len() - at);
                    buf[..n].copy_from_slice(&stream[at..at + n]);
                    at += n;
                    Ok(n)
                });
                while let Next::Request(seq, ..) = half.next_frame(&lim, true, now) {
                    seqs.push(seq);
                }
            }
            prop_assert_eq!(seqs.len(), owed);
            // Everyone's reads are paused: the half frame alone is over
            // the budget.
            let budget = 0isize;
            let mut gauge = 0isize;
            let mut answered = 0;
            let reason = loop {
                for conn in [&mut half, &mut good] {
                    conn.settle(&lim, |delta| {
                        gauge += delta;
                        gauge > budget
                    });
                }
                prop_assert!(!half.interest.read && !good.interest.read);
                if let Some(reason) = half.reap(now, &lim, false, false) {
                    break reason;
                }
                prop_assert_eq!(good.reap(now, &lim, false, false), None);
                prop_assert!(now - start < 100 * TIMEOUT, "the half frame is never reaped");
                // The peer drains its responses slowly but steadily: one
                // answered every few timeouts, each read at once.
                now += TIMEOUT / 2 + Duration::from_millis(rng.below(TIMEOUT.as_millis() * 3) as u64);
                if answered < seqs.len() && chance(&mut rng, 3) {
                    half.respond(seqs[answered], now, vec![0; 1 + rng.below(64) as usize]);
                    answered += 1;
                    half.flush(now, |buf| Ok(buf.len()));
                }
            };
            prop_assert_eq!(answered, owed, "(d) reaped while it still owed responses");
            prop_assert_eq!(reason, CloseReason::StalledMidFrame);
            gauge -= half.release() as isize;
            prop_assert_eq!(gauge, 0, "(b) the refund left bytes charged");
            let want = good.settle(&lim, |delta| {
                gauge += delta;
                gauge > budget
            });
            prop_assert!(want.is_some_and(|w| w.read), "(c) the refund did not resume reads");
        }
    }
}
