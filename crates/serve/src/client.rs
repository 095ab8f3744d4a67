//! A blocking wire client for the [`protocol`](crate::protocol).
//!
//! One client owns one connection; it is deliberately not thread-safe
//! (the protocol is strictly request/response per connection) — spawn
//! one client per load-generator thread instead.
//!
//! Server push-back is surfaced as typed errors: [`ClientError::Busy`]
//! (shed at the accept queue), [`ClientError::DeadlineExceeded`] (the
//! request's own deadline tripped), [`ClientError::IndexInvalid`]. Busy
//! and transport errors are transient by construction, which is what
//! [`RetryingClient`] automates: capped exponential backoff with full
//! jitter from a seeded PRNG, reconnecting on connection loss, with an
//! exact count of the retries it spent.

use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};
use spq_graph::types::{Dist, NodeId};

use crate::protocol::{
    read_frame, write_frame, Cursor, Request, STATUS_BUSY, STATUS_DEADLINE_EXCEEDED,
    STATUS_INDEX_INVALID, STATUS_OK, STATUS_QUARANTINED, STATUS_RELOAD_FAILED, UNREACHABLE,
};
use crate::BackendKind;

/// Client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure.
    Io(io::Error),
    /// The server answered with a generic error status (request-level).
    Remote(String),
    /// The server shed this connection at the overload high-water mark.
    Busy(String),
    /// The request's deadline tripped before the query finished.
    DeadlineExceeded(String),
    /// The server reported an invalid/unusable index for this backend.
    IndexInvalid(String),
    /// A requested hot reload was rejected; the old epoch kept serving.
    ReloadFailed(String),
    /// The backend was quarantined by the oracle auditor and failover
    /// is disabled (or exhausted).
    Quarantined(String),
    /// The response payload did not parse.
    Protocol(String),
}

impl ClientError {
    /// Whether retrying (with backoff) can plausibly succeed: overload
    /// shedding and transport loss are transient, everything else is a
    /// real answer.
    pub fn is_retryable(&self) -> bool {
        matches!(self, ClientError::Io(_) | ClientError::Busy(_))
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport error: {e}"),
            ClientError::Remote(msg) => write!(f, "server error: {msg}"),
            ClientError::Busy(msg) => write!(f, "server busy: {msg}"),
            ClientError::DeadlineExceeded(msg) => write!(f, "deadline exceeded: {msg}"),
            ClientError::IndexInvalid(msg) => write!(f, "index invalid: {msg}"),
            ClientError::ReloadFailed(msg) => write!(f, "reload failed: {msg}"),
            ClientError::Quarantined(msg) => write!(f, "backend quarantined: {msg}"),
            ClientError::Protocol(msg) => write!(f, "malformed response: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client.
pub struct ServeClient {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Deadline attached to subsequent DISTANCE/PATH/DISTANCES requests
    /// (0: none).
    deadline_ms: u32,
    /// True from the moment request bytes start flowing until the full
    /// response is read. A transport error with this set means the
    /// server may have executed the request (the response was lost, not
    /// necessarily the request) — [`RetryingClient`] budgets such
    /// retries separately.
    in_flight: bool,
}

impl ServeClient {
    /// Connects to a server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            stream,
            buf: Vec::new(),
            deadline_ms: 0,
            in_flight: false,
        })
    }

    /// Whether a request was sent (possibly partially) without its
    /// response having been fully read — i.e. whether a transport error
    /// now would leave the request in a possibly-executed state.
    pub fn in_flight(&self) -> bool {
        self.in_flight
    }

    /// Sets the per-request deadline (milliseconds) attached to every
    /// subsequent query; 0 removes it.
    pub fn set_deadline_ms(&mut self, deadline_ms: u32) {
        self.deadline_ms = deadline_ms;
    }

    /// Bounds every socket read and write. A client talking to a server
    /// (or a fault proxy) that stalls mid-frame gets `Io(WouldBlock |
    /// TimedOut)` instead of hanging forever — the torture harness's
    /// hang detector relies on this.
    pub fn set_io_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// Sends a raw frame payload and returns the raw response payload
    /// (status byte included). Exists for protocol-robustness tests.
    pub fn roundtrip_raw(&mut self, payload: &[u8]) -> Result<Vec<u8>, ClientError> {
        self.in_flight = true;
        write_frame(&mut self.stream, payload)?;
        if !read_frame(&mut self.stream, &mut self.buf)? {
            return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        self.in_flight = false;
        Ok(self.buf.clone())
    }

    /// Pipelines raw frame payloads: writes every request before
    /// reading any response, then reads exactly one response per
    /// request. The server guarantees responses arrive in request
    /// order, which is exactly what this returns (and what the
    /// pipelining chaos tests verify).
    pub fn pipeline_raw(&mut self, payloads: &[Vec<u8>]) -> Result<Vec<Vec<u8>>, ClientError> {
        self.in_flight = true;
        for payload in payloads {
            write_frame(&mut self.stream, payload)?;
        }
        let mut responses = Vec::with_capacity(payloads.len());
        for _ in 0..payloads.len() {
            if !read_frame(&mut self.stream, &mut self.buf)? {
                return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
            }
            responses.push(self.buf.clone());
        }
        self.in_flight = false;
        Ok(responses)
    }

    /// Sends a request and returns the OK body (status byte stripped),
    /// or the typed remote error.
    fn roundtrip(&mut self, request: &Request) -> Result<&[u8], ClientError> {
        self.in_flight = true;
        write_frame(&mut self.stream, &request.encode())?;
        if !read_frame(&mut self.stream, &mut self.buf)? {
            return Err(ClientError::Io(io::ErrorKind::UnexpectedEof.into()));
        }
        // A fully read response — even an error status — proves the
        // server finished with this request; nothing is in flight.
        self.in_flight = false;
        match self.buf.split_first() {
            Some((&STATUS_OK, body)) => Ok(body),
            Some((&status, body)) => {
                let msg = String::from_utf8_lossy(body).into_owned();
                Err(match status {
                    STATUS_BUSY => ClientError::Busy(msg),
                    STATUS_DEADLINE_EXCEEDED => ClientError::DeadlineExceeded(msg),
                    STATUS_INDEX_INVALID => ClientError::IndexInvalid(msg),
                    STATUS_RELOAD_FAILED => ClientError::ReloadFailed(msg),
                    STATUS_QUARANTINED => ClientError::Quarantined(msg),
                    _ => ClientError::Remote(msg),
                })
            }
            None => Err(ClientError::Protocol("empty response".into())),
        }
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Ping).map(|_| ())
    }

    /// Distance query.
    pub fn distance(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        t: NodeId,
    ) -> Result<Option<Dist>, ClientError> {
        let deadline_ms = self.deadline_ms;
        let body = self.roundtrip(&Request::Distance {
            backend: backend.wire_id(),
            s,
            t,
            deadline_ms,
        })?;
        let mut c = Cursor::new(body);
        let d = c.u64().map_err(ClientError::Protocol)?;
        Ok(if d == UNREACHABLE { None } else { Some(d) })
    }

    /// Shortest-path query.
    pub fn shortest_path(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        t: NodeId,
    ) -> Result<Option<(Dist, Vec<NodeId>)>, ClientError> {
        let deadline_ms = self.deadline_ms;
        let body = self.roundtrip(&Request::Path {
            backend: backend.wire_id(),
            s,
            t,
            deadline_ms,
        })?;
        let mut c = Cursor::new(body);
        let d = c.u64().map_err(ClientError::Protocol)?;
        let len = c.u32().map_err(ClientError::Protocol)? as usize;
        if d == UNREACHABLE {
            return Ok(None);
        }
        let mut path = Vec::with_capacity(len);
        for _ in 0..len {
            path.push(c.u32().map_err(ClientError::Protocol)?);
        }
        Ok(Some((d, path)))
    }

    /// Batched sources × targets distances (row-major).
    pub fn distances(
        &mut self,
        backend: BackendKind,
        sources: &[NodeId],
        targets: &[NodeId],
    ) -> Result<Vec<Option<Dist>>, ClientError> {
        let expect = sources.len() * targets.len();
        let deadline_ms = self.deadline_ms;
        let body = self.roundtrip(&Request::Distances {
            backend: backend.wire_id(),
            sources: sources.to_vec(),
            targets: targets.to_vec(),
            deadline_ms,
        })?;
        let mut c = Cursor::new(body);
        let mut out = Vec::with_capacity(expect);
        for _ in 0..expect {
            let d = c.u64().map_err(ClientError::Protocol)?;
            out.push(if d == UNREACHABLE { None } else { Some(d) });
        }
        Ok(out)
    }

    /// One-to-many distances from `s`, in target order.
    pub fn one_to_many(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        targets: &[NodeId],
    ) -> Result<Vec<Option<Dist>>, ClientError> {
        let deadline_ms = self.deadline_ms;
        let body = self.roundtrip(&Request::OneToMany {
            backend: backend.wire_id(),
            s,
            targets: targets.to_vec(),
            deadline_ms,
        })?;
        let mut c = Cursor::new(body);
        let mut out = Vec::with_capacity(targets.len());
        for _ in 0..targets.len() {
            let d = c.u64().map_err(ClientError::Protocol)?;
            out.push(if d == UNREACHABLE { None } else { Some(d) });
        }
        Ok(out)
    }

    /// The `k` nearest members of the registered POI set `poi`, sorted
    /// by `(distance, vertex)`.
    pub fn knn(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        k: u32,
        poi: &str,
    ) -> Result<Vec<(NodeId, Dist)>, ClientError> {
        let deadline_ms = self.deadline_ms;
        let body = self.roundtrip(&Request::Knn {
            backend: backend.wire_id(),
            s,
            k,
            poi: poi.to_string(),
            deadline_ms,
        })?;
        Self::parse_nodes_dists(body)
    }

    /// Every vertex within `limit` of `s`, ascending by vertex id.
    pub fn range(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        limit: Dist,
    ) -> Result<Vec<(NodeId, Dist)>, ClientError> {
        let deadline_ms = self.deadline_ms;
        let body = self.roundtrip(&Request::Range {
            backend: backend.wire_id(),
            s,
            limit,
            deadline_ms,
        })?;
        Self::parse_nodes_dists(body)
    }

    fn parse_nodes_dists(body: &[u8]) -> Result<Vec<(NodeId, Dist)>, ClientError> {
        let mut c = Cursor::new(body);
        let count = c.u32().map_err(ClientError::Protocol)? as usize;
        if c.remaining() < count.saturating_mul(12) {
            return Err(ClientError::Protocol(format!(
                "body claims {count} entries but only {} bytes follow",
                c.remaining()
            )));
        }
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            let v = c.u32().map_err(ClientError::Protocol)?;
            let d = c.u64().map_err(ClientError::Protocol)?;
            out.push((v, d));
        }
        Ok(out)
    }

    /// Fetches the server's observability snapshot.
    pub fn stats(&mut self) -> Result<String, ClientError> {
        let body = self.roundtrip(&Request::Stats)?;
        Ok(String::from_utf8_lossy(body).into_owned())
    }

    /// Requests a hot index reload and waits for the attempt's outcome.
    /// `Ok(epoch)` means the new epoch passed its self-check and is
    /// serving; [`ClientError::ReloadFailed`] means the old epoch kept
    /// serving and carries the typed reason.
    pub fn reload(&mut self) -> Result<u64, ClientError> {
        let body = self.roundtrip(&Request::Reload)?;
        let text = String::from_utf8_lossy(body);
        text.strip_prefix("epoch=")
            .and_then(|n| n.trim().parse::<u64>().ok())
            .ok_or_else(|| ClientError::Protocol(format!("unexpected RELOAD body '{text}'")))
    }

    /// Requests a graceful server shutdown.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.roundtrip(&Request::Shutdown).map(|_| ())
    }
}

/// Capped exponential backoff with full jitter.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 disables retrying).
    pub max_retries: u32,
    /// Backoff before retry `k` is drawn uniformly from
    /// `[0, min(cap, base · 2^k)]`.
    pub base: Duration,
    /// Upper bound on any single backoff.
    pub cap: Duration,
    /// Seed for the jitter PRNG (a fixed seed makes retry timing
    /// deterministic in tests).
    pub seed: u64,
    /// Of the `max_retries` budget, how many may be spent on a request
    /// that was already (possibly partially) delivered when the
    /// transport failed — a mid-frame stall or reset after the frame
    /// went out. Such a request may have *executed*; re-sending it is a
    /// deliberate at-least-once decision, so it gets its own explicit
    /// budget (0 turns it off) and its own lifetime counter
    /// ([`RetryingClient::retried_after_partial`]).
    pub partial_retries: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(200),
            seed: 0xB0FF,
            partial_retries: 1,
        }
    }
}

impl RetryPolicy {
    /// The jittered backoff before retry `attempt` (0-based).
    pub fn backoff(&self, attempt: u32, rng: &mut StdRng) -> Duration {
        let exp = self
            .base
            .saturating_mul(1u32 << attempt.min(20))
            .min(self.cap);
        let nanos = exp.as_nanos() as u64;
        if nanos == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(rng.random_range(0..=nanos))
    }
}

/// A self-healing client: retries `Busy` responses and transport errors
/// per its [`RetryPolicy`], reconnecting as needed, and counts every
/// retry it spends. Non-retryable errors (wrong answers would be worse)
/// pass straight through.
pub struct RetryingClient {
    addr: SocketAddr,
    policy: RetryPolicy,
    rng: StdRng,
    client: Option<ServeClient>,
    /// Retries performed over this client's lifetime.
    pub retries: u64,
    /// Of those, retries of requests that were already in flight when
    /// the transport failed — requests the server may have executed.
    /// Surfaced in the loadgen CSV so an operator can see how often the
    /// at-least-once path was taken.
    pub retried_after_partial: u64,
}

impl RetryingClient {
    /// Creates a lazy-connecting retrying client.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> RetryingClient {
        let rng = StdRng::seed_from_u64(policy.seed);
        RetryingClient {
            addr,
            policy,
            rng,
            client: None,
            retries: 0,
            retried_after_partial: 0,
        }
    }

    /// Runs `op` with retry/reconnect; the workhorse behind the typed
    /// query methods. Public so test harnesses can drive the retry loop
    /// with synthetic outcomes and assert its exact classification.
    pub fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut ServeClient) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempt = 0u32;
        let mut partial_spent = 0u32;
        loop {
            // Connect (or reconnect) first, so the client's in-flight
            // state is still inspectable after a failed op.
            if self.client.is_none() {
                match ServeClient::connect(self.addr) {
                    Ok(c) => self.client = Some(c),
                    Err(e) => {
                        // A failed connect never delivered anything —
                        // plain transport loss, retry on the main budget.
                        if attempt >= self.policy.max_retries {
                            return Err(ClientError::Io(e));
                        }
                        self.retries += 1;
                        std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
                        attempt += 1;
                        continue;
                    }
                }
            }
            let c = self.client.as_mut().expect("connected above");
            let result = op(c);
            // Read the flag before tearing the connection down: a
            // transport error with a request in flight means the server
            // may have executed it and only the response was lost.
            let was_in_flight = c.in_flight();
            match result {
                Ok(v) => return Ok(v),
                Err(e) if e.is_retryable() && attempt < self.policy.max_retries => {
                    let partial = was_in_flight && matches!(e, ClientError::Io(_));
                    if partial {
                        // Re-sending a possibly-executed request is an
                        // explicit at-least-once decision with its own
                        // budget; exhausting it surfaces the error.
                        if partial_spent >= self.policy.partial_retries {
                            return Err(e);
                        }
                        partial_spent += 1;
                        self.retried_after_partial += 1;
                    }
                    // Busy answers arrive on a connection the server has
                    // already closed; transport errors leave it in an
                    // unknown state. Reconnect either way.
                    self.client = None;
                    self.retries += 1;
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.rng));
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Distance query with retry.
    pub fn distance(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        t: NodeId,
    ) -> Result<Option<Dist>, ClientError> {
        self.with_retries(|c| c.distance(backend, s, t))
    }

    /// Shortest-path query with retry.
    pub fn shortest_path(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        t: NodeId,
    ) -> Result<Option<(Dist, Vec<NodeId>)>, ClientError> {
        self.with_retries(|c| c.shortest_path(backend, s, t))
    }

    /// One-to-many query with retry.
    pub fn one_to_many(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        targets: &[NodeId],
    ) -> Result<Vec<Option<Dist>>, ClientError> {
        self.with_retries(|c| c.one_to_many(backend, s, targets))
    }

    /// kNN query with retry.
    pub fn knn(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        k: u32,
        poi: &str,
    ) -> Result<Vec<(NodeId, Dist)>, ClientError> {
        self.with_retries(|c| c.knn(backend, s, k, poi))
    }

    /// Range query with retry.
    pub fn range(
        &mut self,
        backend: BackendKind,
        s: NodeId,
        limit: Dist,
    ) -> Result<Vec<(NodeId, Dist)>, ClientError> {
        self.with_retries(|c| c.range(backend, s, limit))
    }

    /// Liveness probe with retry.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.with_retries(|c| c.ping())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retryability_is_typed() {
        assert!(ClientError::Io(io::ErrorKind::ConnectionReset.into()).is_retryable());
        assert!(ClientError::Busy("shed".into()).is_retryable());
        assert!(!ClientError::Remote("bad vertex".into()).is_retryable());
        assert!(!ClientError::DeadlineExceeded("late".into()).is_retryable());
        assert!(!ClientError::IndexInvalid("checksum".into()).is_retryable());
        assert!(!ClientError::ReloadFailed("self-check".into()).is_retryable());
        assert!(!ClientError::Quarantined("audit".into()).is_retryable());
        assert!(!ClientError::Protocol("truncated".into()).is_retryable());
    }

    #[test]
    fn backoff_is_jittered_capped_and_deterministic() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(80),
            seed: 1,
            partial_retries: 8,
        };
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(1);
        for attempt in 0..8 {
            let x = policy.backoff(attempt, &mut a);
            let y = policy.backoff(attempt, &mut b);
            assert_eq!(x, y, "same seed, same jitter");
            let exp = (policy.base * 2u32.pow(attempt)).min(policy.cap);
            assert!(x <= exp, "attempt {attempt}: {x:?} > {exp:?}");
        }
        // Far attempts are capped, never overflow.
        let far = policy.backoff(31, &mut a);
        assert!(far <= policy.cap);
    }
}
