//! The length-prefixed binary wire protocol.
//!
//! Every message — request or response — is one *frame*:
//!
//! ```text
//! u32 LE payload length | payload (≤ 16 MiB)
//! ```
//!
//! Request payloads start with an opcode byte; query opcodes (every
//! opcode below with operands) follow it with a backend byte, the rest
//! have no further operands:
//!
//! | opcode | name      | operands                                     |
//! |--------|-----------|----------------------------------------------|
//! | 0      | PING        | —                                           |
//! | 1      | DISTANCE    | `s: u32, t: u32`                            |
//! | 2      | PATH        | `s: u32, t: u32`                            |
//! | 3      | DISTANCES   | `ns: u32, nt: u32, ns × u32, nt × u32`      |
//! | 4      | STATS       | —                                           |
//! | 5      | SHUTDOWN    | —                                           |
//! | 6      | RELOAD      | —                                           |
//! | 7      | ONE_TO_MANY | `s: u32, m: u32, m × u32`                   |
//! | 8      | KNN         | `s: u32, k: u32, nlen: u8, nlen name bytes` |
//! | 9      | RANGE       | `s: u32, limit: u64`                        |
//!
//! Every backend-bearing query opcode may carry an optional trailing
//! `deadline_ms: u32` (encoded only when nonzero, so the deadline-free
//! encodings are byte-identical to the pre-deadline protocol): the
//! server abandons the query once that many milliseconds have elapsed
//! and answers `DEADLINE_EXCEEDED`. A KNN request names a POI set
//! registered with the serving epoch (`nlen` bytes of UTF-8).
//!
//! Response payloads start with a status byte. `0` = OK; every other
//! status is followed by a UTF-8 message:
//!
//! | status | name              | meaning                                  |
//! |--------|-------------------|------------------------------------------|
//! | 0      | OK                | opcode-specific body follows             |
//! | 1      | ERROR             | malformed or unanswerable request        |
//! | 2      | BUSY              | overloaded — shed; retry with backoff    |
//! | 3      | DEADLINE_EXCEEDED | the request's deadline expired mid-query |
//! | 4      | INDEX_INVALID     | backend's index failed validation        |
//! | 5      | RELOAD_FAILED     | reload rejected; old epoch keeps serving |
//! | 6      | QUARANTINED       | backend quarantined by the auditor       |
//!
//! A RELOAD request triggers an off-thread load + validation of the
//! operator-staged replacement index set; the response arrives only
//! after the outcome is known. Its OK body is the UTF-8 text
//! `epoch=<N>` naming the newly published epoch — every request read
//! from the wire after that response was sent is answered by the new
//! epoch.
//!
//! OK bodies: distances are `u64` LE with [`UNREACHABLE`] (`u64::MAX`)
//! as the "no path" sentinel — real distances never collide with it
//! because the workspace caps them below [`spq_graph::types::INFINITY`]
//! (`u64::MAX / 2`). A PATH body is `dist: u64, len: u32, len × u32`
//! (`len = 0` and `dist = UNREACHABLE` when unreachable); a DISTANCES
//! body is the row-major `ns × nt` table of `u64`s; an ONE_TO_MANY body
//! is the `m × u64` distance row in target order; KNN and RANGE share
//! one body shape, `count: u32, count × (vertex: u32, dist: u64)` —
//! kNN sorted by `(dist, vertex)`, range ascending by vertex; STATS
//! and PING bodies are UTF-8 text.

use std::io::{self, Read, Write};

use spq_graph::types::{Dist, NodeId};

/// Hard cap on one frame's payload, guarding the server against
/// malicious or corrupt length prefixes.
pub const MAX_FRAME: usize = 16 << 20;

/// Hard cap on `ns × nt` of one DISTANCES request, and on the target
/// count of one ONE_TO_MANY request.
pub const MAX_BATCH_PAIRS: usize = 1 << 20;

/// Hard cap on the entries one KNN/RANGE response carries. 2^20 entries
/// at 12 bytes each stay comfortably inside [`MAX_FRAME`]; a range
/// query whose result would exceed this is answered with ERROR rather
/// than a silently truncated vertex list.
pub const MAX_RESULT_ENTRIES: usize = 1 << 20;

/// Wire sentinel for "unreachable" (distinct from every real distance).
pub const UNREACHABLE: u64 = u64::MAX;

/// Response status byte: success.
pub const STATUS_OK: u8 = 0;
/// Response status byte: request-level failure (body = UTF-8 message).
pub const STATUS_ERROR: u8 = 1;
/// Response status byte: the server is overloaded and shed this
/// request before queueing it (body = UTF-8 message). Retryable.
pub const STATUS_BUSY: u8 = 2;
/// Response status byte: the request's deadline expired before the
/// query finished (body = UTF-8 message). Not retryable as-is.
pub const STATUS_DEADLINE_EXCEEDED: u8 = 3;
/// Response status byte: the requested backend's index failed
/// integrity validation and no substitute is serving its wire id
/// (body = UTF-8 message).
pub const STATUS_INDEX_INVALID: u8 = 4;
/// Response status byte: a requested index reload was rejected before
/// publication — the previous epoch keeps serving (body = UTF-8
/// message with the typed reason).
pub const STATUS_RELOAD_FAILED: u8 = 5;
/// Response status byte: the requested backend has been quarantined by
/// the continuous oracle audit and automatic failover is disabled
/// (body = UTF-8 message).
pub const STATUS_QUARANTINED: u8 = 6;

/// Opcode bytes.
pub mod op {
    /// Liveness probe.
    pub const PING: u8 = 0;
    /// Point-to-point distance query.
    pub const DISTANCE: u8 = 1;
    /// Point-to-point shortest-path query.
    pub const PATH: u8 = 2;
    /// Batched (many-to-many) distance query.
    pub const DISTANCES: u8 = 3;
    /// Observability snapshot.
    pub const STATS: u8 = 4;
    /// Graceful server shutdown.
    pub const SHUTDOWN: u8 = 5;
    /// Hot index reload: load, validate, and atomically publish the
    /// staged replacement index set as a new epoch.
    pub const RELOAD: u8 = 6;
    /// One-to-many distance query (one source, a flat target list).
    pub const ONE_TO_MANY: u8 = 7;
    /// k-nearest-neighbour query over a registered POI set.
    pub const KNN: u8 = 8;
    /// Network range query (every vertex within a distance limit).
    pub const RANGE: u8 = 9;
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered with an OK text body.
    Ping,
    /// Distance query against one backend.
    Distance {
        /// Backend wire id.
        backend: u8,
        /// Source vertex.
        s: NodeId,
        /// Target vertex.
        t: NodeId,
        /// Per-request deadline in milliseconds; 0 = none.
        deadline_ms: u32,
    },
    /// Shortest-path query against one backend.
    Path {
        /// Backend wire id.
        backend: u8,
        /// Source vertex.
        s: NodeId,
        /// Target vertex.
        t: NodeId,
        /// Per-request deadline in milliseconds; 0 = none.
        deadline_ms: u32,
    },
    /// Batched sources × targets distance table.
    Distances {
        /// Backend wire id.
        backend: u8,
        /// Batch sources.
        sources: Vec<NodeId>,
        /// Batch targets.
        targets: Vec<NodeId>,
        /// Per-request deadline in milliseconds; 0 = none.
        deadline_ms: u32,
    },
    /// One source against a flat target list.
    OneToMany {
        /// Backend wire id.
        backend: u8,
        /// Source vertex.
        s: NodeId,
        /// Targets, answered in order.
        targets: Vec<NodeId>,
        /// Per-request deadline in milliseconds; 0 = none.
        deadline_ms: u32,
    },
    /// k nearest members of a registered POI set.
    Knn {
        /// Backend wire id.
        backend: u8,
        /// Source vertex.
        s: NodeId,
        /// Number of neighbours requested.
        k: u32,
        /// Name of the POI set registered with the serving epoch.
        poi: String,
        /// Per-request deadline in milliseconds; 0 = none.
        deadline_ms: u32,
    },
    /// Every vertex within `limit` of the source.
    Range {
        /// Backend wire id.
        backend: u8,
        /// Source vertex.
        s: NodeId,
        /// Distance limit (inclusive).
        limit: Dist,
        /// Per-request deadline in milliseconds; 0 = none.
        deadline_ms: u32,
    },
    /// Observability snapshot.
    Stats,
    /// Graceful shutdown request.
    Shutdown,
    /// Hot index reload request.
    Reload,
}

impl Request {
    /// Serialises the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(op::PING),
            Request::Distance {
                backend,
                s,
                t,
                deadline_ms,
            }
            | Request::Path {
                backend,
                s,
                t,
                deadline_ms,
            } => {
                let opcode = if matches!(self, Request::Distance { .. }) {
                    op::DISTANCE
                } else {
                    op::PATH
                };
                out.extend_from_slice(&[opcode, *backend]);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&t.to_le_bytes());
                // Trailing deadline only when set: the deadline-free
                // encoding stays byte-identical to the old protocol.
                if *deadline_ms != 0 {
                    out.extend_from_slice(&deadline_ms.to_le_bytes());
                }
            }
            Request::Distances {
                backend,
                sources,
                targets,
                deadline_ms,
            } => {
                out.extend_from_slice(&[op::DISTANCES, *backend]);
                out.extend_from_slice(&(sources.len() as u32).to_le_bytes());
                out.extend_from_slice(&(targets.len() as u32).to_le_bytes());
                for v in sources.iter().chain(targets.iter()) {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                if *deadline_ms != 0 {
                    out.extend_from_slice(&deadline_ms.to_le_bytes());
                }
            }
            Request::OneToMany {
                backend,
                s,
                targets,
                deadline_ms,
            } => {
                out.extend_from_slice(&[op::ONE_TO_MANY, *backend]);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&(targets.len() as u32).to_le_bytes());
                for v in targets {
                    out.extend_from_slice(&v.to_le_bytes());
                }
                if *deadline_ms != 0 {
                    out.extend_from_slice(&deadline_ms.to_le_bytes());
                }
            }
            Request::Knn {
                backend,
                s,
                k,
                poi,
                deadline_ms,
            } => {
                debug_assert!(poi.len() <= u8::MAX as usize);
                out.extend_from_slice(&[op::KNN, *backend]);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&k.to_le_bytes());
                out.push(poi.len() as u8);
                out.extend_from_slice(poi.as_bytes());
                if *deadline_ms != 0 {
                    out.extend_from_slice(&deadline_ms.to_le_bytes());
                }
            }
            Request::Range {
                backend,
                s,
                limit,
                deadline_ms,
            } => {
                out.extend_from_slice(&[op::RANGE, *backend]);
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&limit.to_le_bytes());
                if *deadline_ms != 0 {
                    out.extend_from_slice(&deadline_ms.to_le_bytes());
                }
            }
            Request::Stats => out.push(op::STATS),
            Request::Shutdown => out.push(op::SHUTDOWN),
            Request::Reload => out.push(op::RELOAD),
        }
        out
    }

    /// Parses a frame payload. Errors describe the defect for the
    /// error-response body.
    pub fn decode(payload: &[u8]) -> Result<Request, String> {
        let mut c = Cursor::new(payload);
        let opcode = c.u8()?;
        let req = match opcode {
            op::PING => Request::Ping,
            op::DISTANCE | op::PATH => {
                let backend = c.u8()?;
                let s = c.u32()?;
                let t = c.u32()?;
                let deadline_ms = if c.at_end() { 0 } else { c.u32()? };
                if opcode == op::DISTANCE {
                    Request::Distance {
                        backend,
                        s,
                        t,
                        deadline_ms,
                    }
                } else {
                    Request::Path {
                        backend,
                        s,
                        t,
                        deadline_ms,
                    }
                }
            }
            op::DISTANCES => {
                let backend = c.u8()?;
                let ns = c.u32()? as usize;
                let nt = c.u32()? as usize;
                if ns == 0 || nt == 0 {
                    return Err("empty batch".into());
                }
                if ns.saturating_mul(nt) > MAX_BATCH_PAIRS {
                    return Err(format!("batch of {ns}x{nt} pairs exceeds the limit"));
                }
                // Never size an allocation from the claimed counts
                // alone: a 20-byte frame could otherwise claim 2^20
                // vertices and make the server allocate 4 MiB per
                // request. The payload must already hold the bytes.
                if c.remaining() < (ns + nt) * 4 {
                    return Err(format!(
                        "batch header claims {ns}+{nt} vertices but only {} payload bytes follow",
                        c.remaining()
                    ));
                }
                let mut sources = Vec::with_capacity(ns);
                for _ in 0..ns {
                    sources.push(c.u32()?);
                }
                let mut targets = Vec::with_capacity(nt);
                for _ in 0..nt {
                    targets.push(c.u32()?);
                }
                let deadline_ms = if c.at_end() { 0 } else { c.u32()? };
                Request::Distances {
                    backend,
                    sources,
                    targets,
                    deadline_ms,
                }
            }
            op::ONE_TO_MANY => {
                let backend = c.u8()?;
                let s = c.u32()?;
                let m = c.u32()? as usize;
                if m == 0 {
                    return Err("empty target list".into());
                }
                if m > MAX_BATCH_PAIRS {
                    return Err(format!("one-to-many of {m} targets exceeds the limit"));
                }
                // Same discipline as DISTANCES: the payload must hold
                // the claimed bytes before anything is allocated.
                if c.remaining() < m * 4 {
                    return Err(format!(
                        "one-to-many header claims {m} targets but only {} payload bytes follow",
                        c.remaining()
                    ));
                }
                let mut targets = Vec::with_capacity(m);
                for _ in 0..m {
                    targets.push(c.u32()?);
                }
                let deadline_ms = if c.at_end() { 0 } else { c.u32()? };
                Request::OneToMany {
                    backend,
                    s,
                    targets,
                    deadline_ms,
                }
            }
            op::KNN => {
                let backend = c.u8()?;
                let s = c.u32()?;
                let k = c.u32()?;
                // Same discipline as the batch ops: an absurd k is a
                // typed error at decode time, before any session runs
                // or any result buffer is sized from it.
                if k as usize > MAX_RESULT_ENTRIES {
                    return Err(format!("kNN k of {k} exceeds the response limit"));
                }
                let nlen = c.u8()? as usize;
                let poi = std::str::from_utf8(c.take(nlen)?)
                    .map_err(|_| "POI name is not UTF-8".to_string())?
                    .to_string();
                let deadline_ms = if c.at_end() { 0 } else { c.u32()? };
                Request::Knn {
                    backend,
                    s,
                    k,
                    poi,
                    deadline_ms,
                }
            }
            op::RANGE => {
                let backend = c.u8()?;
                let s = c.u32()?;
                let limit = c.u64()?;
                // u64::MAX is the UNREACHABLE sentinel: as a radius it
                // would ask for every reachable vertex, so it is
                // rejected before the traversal starts rather than
                // after MAX_RESULT_ENTRIES have been collected.
                if limit == u64::MAX {
                    return Err(
                        "range radius u64::MAX is unbounded; pass a finite radius".to_string()
                    );
                }
                let deadline_ms = if c.at_end() { 0 } else { c.u32()? };
                Request::Range {
                    backend,
                    s,
                    limit,
                    deadline_ms,
                }
            }
            op::STATS => Request::Stats,
            op::SHUTDOWN => Request::Shutdown,
            op::RELOAD => Request::Reload,
            other => return Err(format!("unknown opcode {other}")),
        };
        if !c.at_end() {
            return Err("trailing bytes after request".into());
        }
        Ok(req)
    }
}

/// Writes one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    assert!(payload.len() <= MAX_FRAME, "oversized outgoing frame");
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame into `buf`. Returns `false` on clean EOF (no bytes
/// of a next frame read yet).
pub fn read_frame(r: &mut impl Read, buf: &mut Vec<u8>) -> io::Result<bool> {
    read_frame_limited(r, buf, MAX_FRAME)
}

/// [`read_frame`] with a caller-chosen payload cap. The length prefix
/// is validated against `max_frame` *before* any allocation, so a
/// frame claiming 4 GiB costs four header bytes, not 4 GiB of memory.
pub fn read_frame_limited(
    r: &mut impl Read,
    buf: &mut Vec<u8>,
    max_frame: usize,
) -> io::Result<bool> {
    let mut header = [0u8; 4];
    match r.read(&mut header) {
        Ok(0) => return Ok(false),
        Ok(n) => r.read_exact(&mut header[n..])?,
        Err(e) => return Err(e),
    }
    let len = u32::from_le_bytes(header) as usize;
    if len > max_frame {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {max_frame}-byte limit"),
        ));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    Ok(true)
}

/// OK response carrying a UTF-8 body (PING, STATS).
pub fn encode_text_response(text: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + text.len());
    put_text_response(&mut out, text);
    out
}

/// Appends [`encode_text_response`]'s payload to `out` (the event loop
/// encodes straight into a connection's write buffer).
pub fn put_text_response(out: &mut Vec<u8>, text: &str) {
    out.push(STATUS_OK);
    out.extend_from_slice(text.as_bytes());
}

/// OK response with no body (SHUTDOWN).
pub fn encode_empty_response() -> Vec<u8> {
    vec![STATUS_OK]
}

/// Error response.
pub fn encode_error(msg: &str) -> Vec<u8> {
    encode_status(STATUS_ERROR, msg)
}

/// Response with an explicit status byte and a UTF-8 message body
/// (used for every non-OK status).
pub fn encode_status(status: u8, msg: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + msg.len());
    out.push(status);
    out.extend_from_slice(msg.as_bytes());
    out
}

/// BUSY response: the server shed this request under overload.
pub fn encode_busy(msg: &str) -> Vec<u8> {
    encode_status(STATUS_BUSY, msg)
}

/// DEADLINE_EXCEEDED response: the query was abandoned at its deadline.
pub fn encode_deadline_exceeded(msg: &str) -> Vec<u8> {
    encode_status(STATUS_DEADLINE_EXCEEDED, msg)
}

/// INDEX_INVALID response: the backend's index failed validation.
pub fn encode_index_invalid(msg: &str) -> Vec<u8> {
    encode_status(STATUS_INDEX_INVALID, msg)
}

/// RELOAD_FAILED response: the staged index was rejected and the old
/// epoch keeps serving.
pub fn encode_reload_failed(msg: &str) -> Vec<u8> {
    encode_status(STATUS_RELOAD_FAILED, msg)
}

/// QUARANTINED response: the backend was quarantined by the auditor
/// and failover is disabled.
pub fn encode_quarantined(msg: &str) -> Vec<u8> {
    encode_status(STATUS_QUARANTINED, msg)
}

/// Encodes one distance (DISTANCE response body).
pub fn encode_distance_response(d: Option<Dist>) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    put_distance_response(&mut out, d);
    out
}

/// Appends [`encode_distance_response`]'s payload to `out`.
pub fn put_distance_response(out: &mut Vec<u8>, d: Option<Dist>) {
    out.push(STATUS_OK);
    out.extend_from_slice(&d.unwrap_or(UNREACHABLE).to_le_bytes());
}

/// Encodes a shortest path (PATH response body).
pub fn encode_path_response(p: Option<(Dist, Vec<NodeId>)>) -> Vec<u8> {
    let mut out = Vec::new();
    put_path_response(&mut out, p.as_ref().map(|(d, path)| (*d, &path[..])));
    out
}

/// Appends [`encode_path_response`]'s payload to `out`: the distance,
/// the vertex count, then the vertices from `s` to `t`.
pub fn put_path_response(out: &mut Vec<u8>, p: Option<(Dist, &[NodeId])>) {
    let (d, path) = p.unwrap_or((UNREACHABLE, &[]));
    out.reserve(13 + 4 * path.len());
    out.push(STATUS_OK);
    out.extend_from_slice(&d.to_le_bytes());
    out.extend_from_slice(&(path.len() as u32).to_le_bytes());
    for v in path {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Encodes a row-major distance table (DISTANCES response body).
pub fn encode_distances_response(table: &[Option<Dist>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_distances_response(&mut out, table);
    out
}

/// Appends [`encode_distances_response`]'s payload to `out`.
pub fn put_distances_response(out: &mut Vec<u8>, table: &[Option<Dist>]) {
    out.reserve(1 + 8 * table.len());
    out.push(STATUS_OK);
    for d in table {
        out.extend_from_slice(&d.unwrap_or(UNREACHABLE).to_le_bytes());
    }
}

/// Encodes a `(vertex, distance)` list (KNN and RANGE response body):
/// `count: u32` followed by `count × (u32, u64)` pairs, in the order
/// given.
pub fn encode_nodes_dists_response(entries: &[(NodeId, Dist)]) -> Vec<u8> {
    let mut out = Vec::new();
    put_nodes_dists_response(&mut out, entries);
    out
}

/// Appends [`encode_nodes_dists_response`]'s payload to `out`.
pub fn put_nodes_dists_response(out: &mut Vec<u8>, entries: &[(NodeId, Dist)]) {
    out.reserve(5 + 12 * entries.len());
    out.push(STATUS_OK);
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for &(v, d) in entries {
        out.extend_from_slice(&v.to_le_bytes());
        out.extend_from_slice(&d.to_le_bytes());
    }
}

/// A bounds-checked little-endian reader over a payload.
pub struct Cursor<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Wraps a payload.
    pub fn new(data: &'a [u8]) -> Self {
        Cursor { data, pos: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn at_end(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.pos + n > self.data.len() {
            return Err("truncated message".into());
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads the remaining bytes.
    pub fn rest(&mut self) -> &'a [u8] {
        let s = &self.data[self.pos..];
        self.pos = self.data.len();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let cases = [
            Request::Ping,
            Request::Distance {
                backend: 1,
                s: 7,
                t: 9,
                deadline_ms: 0,
            },
            Request::Distance {
                backend: 1,
                s: 7,
                t: 9,
                deadline_ms: 250,
            },
            Request::Path {
                backend: 3,
                s: 0,
                t: u32::MAX - 1,
                deadline_ms: 0,
            },
            Request::Path {
                backend: 3,
                s: 0,
                t: 1,
                deadline_ms: u32::MAX,
            },
            Request::Distances {
                backend: 0,
                sources: vec![1, 2, 3],
                targets: vec![4, 5],
                deadline_ms: 0,
            },
            Request::Distances {
                backend: 0,
                sources: vec![1, 2, 3],
                targets: vec![4, 5],
                deadline_ms: 1000,
            },
            Request::OneToMany {
                backend: 2,
                s: 11,
                targets: vec![0, 5, 5, u32::MAX],
                deadline_ms: 0,
            },
            Request::OneToMany {
                backend: 2,
                s: 11,
                targets: vec![9],
                deadline_ms: 40,
            },
            Request::Knn {
                backend: 1,
                s: 3,
                k: 8,
                poi: "fuel".into(),
                deadline_ms: 0,
            },
            Request::Knn {
                backend: 1,
                s: 3,
                k: 0,
                poi: String::new(),
                deadline_ms: 17,
            },
            Request::Range {
                backend: 0,
                s: 42,
                limit: u64::MAX / 3,
                deadline_ms: 0,
            },
            Request::Range {
                backend: 0,
                s: 42,
                limit: 0,
                deadline_ms: 9,
            },
            Request::Stats,
            Request::Shutdown,
            Request::Reload,
        ];
        for req in cases {
            let bytes = req.encode();
            assert_eq!(Request::decode(&bytes).as_ref(), Ok(&req), "{req:?}");
        }
        // Backend-less requests are exactly one opcode byte on the wire,
        // as the protocol table documents — foreign clients rely on it.
        assert_eq!(Request::Ping.encode(), vec![op::PING]);
        assert_eq!(Request::Stats.encode(), vec![op::STATS]);
        assert_eq!(Request::Shutdown.encode(), vec![op::SHUTDOWN]);
        assert_eq!(Request::Reload.encode(), vec![op::RELOAD]);
        assert_eq!(Request::decode(&[op::PING]), Ok(Request::Ping));
        assert_eq!(Request::decode(&[op::RELOAD]), Ok(Request::Reload));
    }

    #[test]
    fn deadline_free_encoding_matches_the_old_protocol() {
        // Pre-deadline clients encode DISTANCE as exactly 10 bytes;
        // they must keep decoding, and deadline-free requests must keep
        // producing the identical bytes.
        let req = Request::Distance {
            backend: 1,
            s: 7,
            t: 9,
            deadline_ms: 0,
        };
        let mut old = vec![op::DISTANCE, 1];
        old.extend_from_slice(&7u32.to_le_bytes());
        old.extend_from_slice(&9u32.to_le_bytes());
        assert_eq!(req.encode(), old);
        assert_eq!(Request::decode(&old), Ok(req));
    }

    #[test]
    fn batch_header_cannot_force_oversized_allocations() {
        // 20-byte frame claiming 2^20 sources: must be rejected by the
        // payload-size check before any Vec::with_capacity(2^20).
        let mut huge = vec![op::DISTANCES, 0];
        huge.extend_from_slice(&(1u32 << 20).to_le_bytes());
        huge.extend_from_slice(&1u32.to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes()); // a lone "vertex"
        let err = Request::decode(&huge).unwrap_err();
        assert!(err.contains("payload bytes"), "got: {err}");
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[99, 0]).is_err(), "unknown opcode");
        assert!(Request::decode(&[op::DISTANCE, 0, 1, 2]).is_err(), "short");
        let mut trailing = Request::Ping.encode();
        trailing.push(0);
        assert!(Request::decode(&trailing).is_err(), "trailing bytes");
        // Oversized batch header.
        let mut huge = vec![op::DISTANCES, 0];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&huge).is_err());
    }

    #[test]
    fn one_to_many_header_cannot_force_oversized_allocations() {
        // A 14-byte frame claiming 2^20 targets must be rejected by the
        // payload-size check before any allocation happens.
        let mut huge = vec![op::ONE_TO_MANY, 0];
        huge.extend_from_slice(&0u32.to_le_bytes());
        huge.extend_from_slice(&(1u32 << 20).to_le_bytes());
        huge.extend_from_slice(&0u32.to_le_bytes()); // a lone "target"
        let err = Request::decode(&huge).unwrap_err();
        assert!(err.contains("payload bytes"), "got: {err}");
        // Over the hard cap entirely.
        let mut over = vec![op::ONE_TO_MANY, 0];
        over.extend_from_slice(&0u32.to_le_bytes());
        over.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(Request::decode(&over).is_err());
        // Empty target list.
        let mut empty = vec![op::ONE_TO_MANY, 0];
        empty.extend_from_slice(&0u32.to_le_bytes());
        empty.extend_from_slice(&0u32.to_le_bytes());
        assert_eq!(Request::decode(&empty).unwrap_err(), "empty target list");
    }

    #[test]
    fn knn_name_is_validated() {
        // Name length claiming more bytes than the payload holds.
        let mut short = vec![op::KNN, 0];
        short.extend_from_slice(&1u32.to_le_bytes());
        short.extend_from_slice(&1u32.to_le_bytes());
        short.push(40); // claims 40 name bytes, none follow
        assert_eq!(Request::decode(&short).unwrap_err(), "truncated message");
        // Non-UTF-8 name bytes.
        let mut bad = vec![op::KNN, 0];
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.extend_from_slice(&1u32.to_le_bytes());
        bad.push(2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        assert!(Request::decode(&bad).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn absurd_knn_k_is_rejected_at_decode_time() {
        // k = u32::MAX claims ~4 billion result entries; the decoder
        // must refuse before any session or result buffer sees it.
        let mut req = vec![op::KNN, 0];
        req.extend_from_slice(&1u32.to_le_bytes());
        req.extend_from_slice(&u32::MAX.to_le_bytes());
        req.push(0);
        assert!(Request::decode(&req)
            .unwrap_err()
            .contains("exceeds the response limit"));
        // The largest admissible k still decodes.
        let mut ok = vec![op::KNN, 0];
        ok.extend_from_slice(&1u32.to_le_bytes());
        ok.extend_from_slice(&(MAX_RESULT_ENTRIES as u32).to_le_bytes());
        ok.push(0);
        assert!(Request::decode(&ok).is_ok());
    }

    #[test]
    fn unbounded_range_radius_is_rejected_at_decode_time() {
        // u64::MAX is the UNREACHABLE sentinel; as a radius it means
        // "everything reachable" and must be refused before traversal.
        let mut req = vec![op::RANGE, 0];
        req.extend_from_slice(&1u32.to_le_bytes());
        req.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(Request::decode(&req).unwrap_err().contains("unbounded"));
        // Any finite radius — even MAX-1 — is the backend's problem,
        // bounded downstream by MAX_RESULT_ENTRIES.
        let mut ok = vec![op::RANGE, 0];
        ok.extend_from_slice(&1u32.to_le_bytes());
        ok.extend_from_slice(&(u64::MAX - 1).to_le_bytes());
        assert!(Request::decode(&ok).is_ok());
    }

    #[test]
    fn nodes_dists_response_layout_is_stable() {
        let body = encode_nodes_dists_response(&[(3, 10), (7, 25)]);
        let mut expect = vec![STATUS_OK];
        expect.extend_from_slice(&2u32.to_le_bytes());
        expect.extend_from_slice(&3u32.to_le_bytes());
        expect.extend_from_slice(&10u64.to_le_bytes());
        expect.extend_from_slice(&7u32.to_le_bytes());
        expect.extend_from_slice(&25u64.to_le_bytes());
        assert_eq!(body, expect);
        assert_eq!(encode_nodes_dists_response(&[]), {
            let mut e = vec![STATUS_OK];
            e.extend_from_slice(&0u32.to_le_bytes());
            e
        });
    }

    /// `put_*` appends, behind whatever `out` already holds, exactly the
    /// bytes `encode_*` returns — and those bytes are the wire layout,
    /// packed here by hand.
    #[test]
    fn put_appends_the_bytes_encode_returns_for_every_response_kind() {
        /// `STATUS_OK`, then each value in as many little-endian bytes.
        fn ok(fields: &[(u64, usize)]) -> Vec<u8> {
            let mut bytes = vec![STATUS_OK];
            for &(value, width) in fields {
                bytes.extend_from_slice(&value.to_le_bytes()[..width]);
            }
            bytes
        }
        fn check(kind: &str, encoded: Vec<u8>, put: impl Fn(&mut Vec<u8>), layout: Vec<u8>) {
            assert_eq!(encoded, layout, "{kind}: encode");
            let mut out = b"\x09\0\0\0".to_vec();
            put(&mut out);
            assert_eq!(&out[..4], b"\x09\0\0\0", "{kind}: put must append");
            assert_eq!(out[4..], layout[..], "{kind}: put");
        }
        check(
            "text",
            encode_text_response("pong"),
            |out| put_text_response(out, "pong"),
            b"\0pong".to_vec(),
        );
        for d in [Some(42), None] {
            check(
                "distance",
                encode_distance_response(d),
                |out| put_distance_response(out, d),
                ok(&[(d.unwrap_or(UNREACHABLE), 8)]),
            );
        }
        let path: Vec<NodeId> = vec![5, 1, 9];
        check(
            "path",
            encode_path_response(Some((17, path.clone()))),
            |out| put_path_response(out, Some((17, &path))),
            ok(&[(17, 8), (3, 4), (5, 4), (1, 4), (9, 4)]),
        );
        check(
            "no path",
            encode_path_response(None),
            |out| put_path_response(out, None),
            ok(&[(UNREACHABLE, 8), (0, 4)]),
        );
        let table = [Some(3), None, Some(0)];
        check(
            "distances",
            encode_distances_response(&table),
            |out| put_distances_response(out, &table),
            ok(&[(3, 8), (UNREACHABLE, 8), (0, 8)]),
        );
        let entries = [(3, 10), (7, 25)];
        check(
            "nodes_dists",
            encode_nodes_dists_response(&entries),
            |out| put_nodes_dists_response(out, &entries),
            ok(&[(2, 4), (3, 4), (10, 8), (7, 4), (25, 8)]),
        );
    }

    #[test]
    fn frames_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"hello");
        assert!(read_frame(&mut r, &mut buf).unwrap());
        assert_eq!(buf, b"");
        assert!(!read_frame(&mut r, &mut buf).unwrap(), "clean EOF");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).is_err());
    }

    #[test]
    fn four_gib_claiming_frame_is_rejected_before_allocation() {
        // A length prefix of u32::MAX claims a ~4 GiB payload. The
        // reader must refuse from the four header bytes alone — the
        // buffer it was handed must not grow at all.
        let wire = u32::MAX.to_le_bytes();
        let mut r = &wire[..];
        let mut buf = Vec::new();
        assert!(read_frame(&mut r, &mut buf).is_err());
        assert_eq!(buf.capacity(), 0, "rejection must precede allocation");
        // The same guard holds for a caller-tightened limit.
        let mut r = &wire[..];
        assert!(read_frame_limited(&mut r, &mut buf, 1024).is_err());
        assert_eq!(buf.capacity(), 0);
    }

    #[test]
    fn tightened_frame_limit_is_enforced() {
        let mut wire = Vec::new();
        write_frame(&mut wire, &[0u8; 100]).unwrap();
        let mut buf = Vec::new();
        let mut r = &wire[..];
        assert!(read_frame_limited(&mut r, &mut buf, 99).is_err());
        let mut r = &wire[..];
        assert!(read_frame_limited(&mut r, &mut buf, 100).unwrap());
        assert_eq!(buf.len(), 100);
    }

    #[test]
    fn status_encoders_prefix_the_right_byte() {
        assert_eq!(encode_busy("b")[0], STATUS_BUSY);
        assert_eq!(encode_deadline_exceeded("d")[0], STATUS_DEADLINE_EXCEEDED);
        assert_eq!(encode_index_invalid("i")[0], STATUS_INDEX_INVALID);
        assert_eq!(encode_reload_failed("r")[0], STATUS_RELOAD_FAILED);
        assert_eq!(encode_quarantined("q")[0], STATUS_QUARANTINED);
        assert_eq!(encode_error("e")[0], STATUS_ERROR);
        assert_eq!(&encode_busy("busy")[1..], b"busy");
    }
}
