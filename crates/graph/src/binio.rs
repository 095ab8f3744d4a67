//! A minimal framed little-endian binary format for persisting indexes.
//!
//! Preprocessing the paper's largest datasets takes minutes to hours; a
//! production deployment computes an index once and ships it. This
//! module provides the primitives (magic/version header, length-prefixed
//! integer slices) that [`crate::persist`] and `spq-ch` build their
//! on-disk formats from.

use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

// ---------------------------------------------------------------------------
// XXH64 — hand-rolled (the workspace vendors no hashing crate). This is
// the reference 64-bit xxHash algorithm; it exists so index files carry
// a fast integrity checksum, not for cryptographic purposes.

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline]
fn xx_round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn xx_merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ xx_round(0, val))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

#[inline]
fn read_le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().unwrap())
}

/// Bytes per XXH64 stripe: four 8-byte lanes.
const STRIPE: usize = 32;

#[inline]
fn xx_stripe(acc: &mut [u64; 4], stripe: &[u8]) {
    acc[0] = xx_round(acc[0], read_le_u64(&stripe[0..]));
    acc[1] = xx_round(acc[1], read_le_u64(&stripe[8..]));
    acc[2] = xx_round(acc[2], read_le_u64(&stripe[16..]));
    acc[3] = xx_round(acc[3], read_le_u64(&stripe[24..]));
}

/// Streaming XXH64: feed the input in any pieces with
/// [`Xxh64::update`], read the digest with [`Xxh64::finish`]. The
/// digest depends only on the concatenated bytes, never on where the
/// pieces were cut. As an `io::Write` it is the sink a container body
/// is serialised into to learn its length and checksum without being
/// held.
#[derive(Debug, Clone)]
pub struct Xxh64 {
    seed: u64,
    acc: [u64; 4],
    /// The bytes after the last whole stripe (`..tail_len` is live).
    tail: [u8; STRIPE],
    tail_len: usize,
    total: u64,
}

impl Xxh64 {
    /// A hasher over the empty input.
    pub fn new(seed: u64) -> Self {
        Xxh64 {
            seed,
            acc: [
                seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2),
                seed.wrapping_add(PRIME64_2),
                seed,
                seed.wrapping_sub(PRIME64_1),
            ],
            tail: [0; STRIPE],
            tail_len: 0,
            total: 0,
        }
    }

    /// Bytes fed so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Appends `data` to the hashed input.
    pub fn update(&mut self, mut data: &[u8]) {
        self.total += data.len() as u64;
        if self.tail_len > 0 {
            let take = (STRIPE - self.tail_len).min(data.len());
            self.tail[self.tail_len..self.tail_len + take].copy_from_slice(&data[..take]);
            self.tail_len += take;
            data = &data[take..];
            if self.tail_len < STRIPE {
                return;
            }
            xx_stripe(&mut self.acc, &self.tail);
            self.tail_len = 0;
        }
        let mut stripes = data.chunks_exact(STRIPE);
        for stripe in &mut stripes {
            xx_stripe(&mut self.acc, stripe);
        }
        let rest = stripes.remainder();
        self.tail[..rest.len()].copy_from_slice(rest);
        self.tail_len = rest.len();
    }

    /// The XXH64 digest of everything fed so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= STRIPE as u64 {
            let [v1, v2, v3, v4] = self.acc;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in [v1, v2, v3, v4] {
                h = xx_merge_round(h, v);
            }
            h
        } else {
            self.seed.wrapping_add(PRIME64_5)
        };
        h = h.wrapping_add(self.total);
        let mut rest = &self.tail[..self.tail_len];
        while rest.len() >= 8 {
            h ^= xx_round(0, read_le_u64(rest));
            h = h
                .rotate_left(27)
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
            rest = &rest[8..];
        }
        if rest.len() >= 4 {
            let w = u32::from_le_bytes(rest[..4].try_into().unwrap()) as u64;
            h ^= w.wrapping_mul(PRIME64_1);
            h = h
                .rotate_left(23)
                .wrapping_mul(PRIME64_2)
                .wrapping_add(PRIME64_3);
            rest = &rest[4..];
        }
        for &b in rest {
            h ^= (b as u64).wrapping_mul(PRIME64_5);
            h = h.rotate_left(11).wrapping_mul(PRIME64_1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^= h >> 32;
        h
    }
}

impl Write for Xxh64 {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// One-shot XXH64 of `data` with the given seed.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let mut h = Xxh64::new(seed);
    h.update(data);
    h.finish()
}

// ---------------------------------------------------------------------------
// Typed load errors + the checksummed container.

/// Why loading a persisted index failed. Callers that fall back to
/// rebuilding (the serving engine's degradation chain) match on this to
/// distinguish "wrong file" from "damaged file" from "old file".
#[derive(Debug)]
pub enum IndexLoadError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The file does not start with this format's magic bytes.
    BadMagic { expected: [u8; 4], got: [u8; 4] },
    /// The file is in a layout older than the one this build reads (an
    /// `SPQC` version 1–3, an `SPQH` version 1). Such files are refused
    /// rather than risk misreading them; rebuild the index to migrate.
    LegacyVersion { found: u32, supported: u32 },
    /// The file claims a format version newer than this build supports.
    UnsupportedVersion { found: u32, supported: u32 },
    /// The file ends before the declared body length.
    Truncated { expected: u64, got: u64 },
    /// The body bytes do not hash to the stored checksum.
    ChecksumMismatch { expected: u64, got: u64 },
    /// The checksum matched but the decoded structure is inconsistent
    /// (impossible with an honest writer; indicates a forged or buggy
    /// producer).
    Corrupt(String),
}

impl fmt::Display for IndexLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexLoadError::Io(e) => write!(f, "i/o error: {e}"),
            IndexLoadError::BadMagic { expected, got } => write!(
                f,
                "bad magic: expected {:?}, got {:?} — not a {} index file",
                expected,
                got,
                String::from_utf8_lossy(expected)
            ),
            IndexLoadError::LegacyVersion { found, supported } => write!(
                f,
                "legacy format version {found} (this build reads version {supported}): \
                 older layouts are refused rather than misread — \
                 rebuild the index to migrate"
            ),
            IndexLoadError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported format version {found} (this build reads version {supported})"
            ),
            IndexLoadError::Truncated { expected, got } => {
                write!(
                    f,
                    "truncated: body declares {expected} bytes, only {got} present"
                )
            }
            IndexLoadError::ChecksumMismatch { expected, got } => write!(
                f,
                "checksum mismatch: stored {expected:#018x}, computed {got:#018x} — \
                 the file is corrupted"
            ),
            IndexLoadError::Corrupt(msg) => write!(f, "corrupt index: {msg}"),
        }
    }
}

impl Error for IndexLoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            IndexLoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for IndexLoadError {
    fn from(e: io::Error) -> Self {
        IndexLoadError::Io(e)
    }
}

/// Hard cap on a container body: no index in this workspace comes close
/// to 128 GiB, so a larger declared length is a corrupt header, not a
/// big file.
const MAX_BODY_LEN: u64 = 1 << 37;

/// Bytes in front of a checksummed container's body: magic, version,
/// body length, checksum.
pub const CONTAINER_HEADER_LEN: usize = 4 + 4 + 8 + 8;

/// Bytes moved per step when a container's unread remainder is hashed.
const DRAIN_BYTES: usize = 64 << 10;

/// Where a container's body closure writes: the checksum pass and the
/// real pass of [`write_container`] look the same to it.
pub struct BodySink<'a> {
    out: &'a mut dyn Write,
    written: u64,
}

impl Write for BodySink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.out.write(buf)?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// Writes a checksummed container:
/// `magic(4) · version(4, LE) · body_len(8, LE) · xxh64(body)(8, LE) · body`.
///
/// The body is never held: `body` runs **twice**, first into a hasher
/// that also counts its length, then — behind the now complete header —
/// into `w`. It must therefore write the same bytes each time (every
/// caller serialises `&self`); a second pass of another length is
/// reported as an error, and its checksum would fail at the next load.
pub fn write_container(
    w: &mut impl Write,
    magic: &[u8; 4],
    version: u32,
    mut body: impl FnMut(&mut BodySink<'_>) -> io::Result<()>,
) -> io::Result<()> {
    let mut hasher = Xxh64::new(version as u64);
    body(&mut BodySink {
        out: &mut hasher,
        written: 0,
    })?;
    write_header(w, magic, version)?;
    write_u64(w, hasher.total())?;
    write_u64(w, hasher.finish())?;
    let mut sink = BodySink { out: w, written: 0 };
    body(&mut sink)?;
    if sink.written != hasher.total() {
        return Err(io::Error::other(format!(
            "container body was {} bytes when hashed and {} when written",
            hasher.total(),
            sink.written
        )));
    }
    Ok(())
}

/// The first version of each format that is a checksummed container.
/// `SPQC` version 1 was a plain header with no length or checksum
/// fields; every other `SPQ*` magic has been checksummed throughout.
fn checksummed_since(magic: &[u8; 4]) -> u32 {
    if magic == b"SPQC" {
        2
    } else {
        0
    }
}

/// The reading side of [`write_container`], and the only parser of its
/// header. Opening checks magic, version and the length cap; the body
/// is then handed out through [`Read`] — bounded to the declared length
/// and hashed as it passes — so sections go straight into their final
/// vectors; [`ContainerReader::finish`] hashes whatever was left unread
/// and gives the verdict. Nothing read from the body may be
/// *interpreted* before that verdict: [`read_container`] packages the
/// order.
pub struct ContainerReader<R> {
    inner: R,
    hasher: Xxh64,
    body_len: u64,
    stored: u64,
}

impl<R: Read> ContainerReader<R> {
    /// Opens a container of one format at its one current version.
    /// Rejects wrong magic, older (legacy) and newer versions each as
    /// its own [`IndexLoadError`] variant, before any later field is
    /// read — a version bump retires the previous layout.
    pub fn open(r: R, magic: &[u8; 4], version: u32) -> Result<Self, IndexLoadError> {
        Self::open_expecting(r, Some((magic, version)))
    }

    /// Opens a checksummed container of whatever format and version its
    /// header names (the recovery scan validates files it cannot
    /// otherwise read); only a pre-checksum version is refused, as
    /// [`IndexLoadError::LegacyVersion`].
    pub fn open_any(r: R) -> Result<Self, IndexLoadError> {
        Self::open_expecting(r, None)
    }

    fn open_expecting(mut r: R, expected: Option<(&[u8; 4], u32)>) -> Result<Self, IndexLoadError> {
        let mut magic = [0u8; 4];
        r.read_exact(&mut magic)?;
        if let Some((want, _)) = expected {
            if &magic != want {
                return Err(IndexLoadError::BadMagic {
                    expected: *want,
                    got: magic,
                });
            }
        }
        let mut v = [0u8; 4];
        r.read_exact(&mut v)?;
        let found = u32::from_le_bytes(v);
        let (oldest, newest) = match expected {
            Some((_, version)) => (version, version),
            None => (checksummed_since(&magic), u32::MAX),
        };
        if found < oldest {
            return Err(IndexLoadError::LegacyVersion {
                found,
                supported: oldest,
            });
        }
        if found > newest {
            return Err(IndexLoadError::UnsupportedVersion {
                found,
                supported: newest,
            });
        }
        let body_len = read_u64(&mut r)?;
        if body_len > MAX_BODY_LEN {
            return Err(IndexLoadError::Corrupt(format!(
                "implausible body length {body_len}"
            )));
        }
        let stored = read_u64(&mut r)?;
        Ok(ContainerReader {
            inner: r,
            hasher: Xxh64::new(found as u64),
            body_len,
            stored,
        })
    }

    /// Body bytes not yet read.
    pub fn remaining(&self) -> u64 {
        self.body_len - self.hasher.total()
    }

    /// Reads an array written by [`write_array`], like [`read_array`],
    /// but first holds the declared length against what is left of the
    /// body: a prefix that cannot be honest fails as the short read it
    /// would end in, before anything is reserved or read.
    pub fn read_array<T, const N: usize>(
        &mut self,
        from_le: impl Fn([u8; N]) -> T,
    ) -> io::Result<Vec<T>> {
        let len = read_u64(self)?;
        if len > self.remaining() / N as u64 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "section declares {len} elements of {N} bytes, {} bytes are left",
                    self.remaining()
                ),
            ));
        }
        read_elements(self, len as usize, from_le)
    }

    /// Reads a length-prefixed `u32` section.
    pub fn read_u32s(&mut self) -> io::Result<Vec<u32>> {
        self.read_array(u32::from_le_bytes)
    }

    /// Reads a length-prefixed byte section.
    pub fn read_u8s(&mut self) -> io::Result<Vec<u8>> {
        self.read_array(|[b]: [u8; 1]| b)
    }

    /// Hashes what is left of the body, 64 KiB at a time, then checks
    /// the length and the checksum: `Truncated` if the input ended
    /// before the declared length, `ChecksumMismatch` if the bytes are
    /// not the ones that were written.
    pub fn finish(mut self) -> Result<(), IndexLoadError> {
        let mut buf = vec![0u8; self.remaining().min(DRAIN_BYTES as u64) as usize];
        while self.remaining() > 0 {
            match self.read(&mut buf) {
                Ok(0) => {
                    return Err(IndexLoadError::Truncated {
                        expected: self.body_len,
                        got: self.hasher.total(),
                    })
                }
                Ok(_) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(IndexLoadError::Io(e)),
            }
        }
        let computed = self.hasher.finish();
        if computed != self.stored {
            return Err(IndexLoadError::ChecksumMismatch {
                expected: self.stored,
                got: computed,
            });
        }
        Ok(())
    }
}

impl<R: Read> Read for ContainerReader<R> {
    /// Reads body bytes only: the declared length is end-of-file.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let cap = self.remaining().min(buf.len() as u64) as usize;
        if cap == 0 {
            return Ok(0);
        }
        let n = self.inner.read(&mut buf[..cap])?;
        self.hasher.update(&buf[..n]);
        Ok(n)
    }
}

/// Reads and fully validates a checksummed container: `sections` pulls
/// the raw sections out of the body, and whatever it returns is handed
/// back only once the whole body has been hashed and found intact. A
/// parse error inside `sections` (a lying length prefix, bytes after
/// the last section) therefore never masks damage — the precedence is
/// i/o or `Truncated`, then `ChecksumMismatch`, then the parse error —
/// and structural validation, which belongs *after* this call, never
/// sees unverified bytes.
pub fn read_container<R: Read, T>(
    r: R,
    magic: &[u8; 4],
    version: u32,
    sections: impl FnOnce(&mut ContainerReader<R>) -> Result<T, IndexLoadError>,
) -> Result<T, IndexLoadError> {
    let mut body = ContainerReader::open(r, magic, version)?;
    let parsed = sections(&mut body);
    body.finish()?;
    parsed
}

/// Writes the 8-byte header: 4 magic bytes + u32 version.
pub fn write_header(w: &mut impl Write, magic: &[u8; 4], version: u32) -> io::Result<()> {
    w.write_all(magic)?;
    w.write_all(&version.to_le_bytes())
}

/// Reads and validates the header, returning the version.
pub fn read_header(r: &mut impl Read, magic: &[u8; 4]) -> io::Result<u32> {
    let mut got = [0u8; 4];
    r.read_exact(&mut got)?;
    if &got != magic {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("bad magic: expected {magic:?}, got {got:?}"),
        ));
    }
    let mut v = [0u8; 4];
    r.read_exact(&mut v)?;
    Ok(u32::from_le_bytes(v))
}

/// Writes one u64 value.
pub fn write_u64(w: &mut impl Write, x: u64) -> io::Result<()> {
    w.write_all(&x.to_le_bytes())
}

/// Reads one u64 value.
pub fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}

/// Elements converted per bulk step. Bounds the staging buffer, and —
/// on the read side — how far an allocation may run ahead of the bytes
/// actually delivered.
const CHUNK_ELEMS: usize = 1 << 14;

/// Largest element count a length prefix may declare.
const MAX_ELEMS: u64 = 1 << 34;

/// Writes a length-prefixed array of fixed-size records: the element
/// count as a `u64`, then each element's `N` little-endian bytes as
/// produced by `to_le`. Elements are converted a chunk at a time into a
/// staging buffer, so the writer sees a few large `write_all`s.
pub fn write_array<T: Copy, const N: usize>(
    w: &mut impl Write,
    xs: &[T],
    to_le: impl Fn(T) -> [u8; N],
) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    let mut staging = vec![0u8; xs.len().min(CHUNK_ELEMS) * N];
    for chunk in xs.chunks(CHUNK_ELEMS) {
        let bytes = &mut staging[..chunk.len() * N];
        for (dst, &x) in bytes.chunks_exact_mut(N).zip(chunk) {
            dst.copy_from_slice(&to_le(x));
        }
        w.write_all(bytes)?;
    }
    Ok(())
}

/// Reads an array written by [`write_array`]. The length prefix is not
/// trusted with an allocation: the vector grows by at most what has
/// already been read (one chunk to begin with) and never past the
/// declared length, so a lying prefix ends in `UnexpectedEof` after a
/// bounded allocation, and an honest one in a vector of exact capacity.
pub fn read_array<T, const N: usize>(
    r: &mut impl Read,
    from_le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let len = read_u64(r)?;
    if len > MAX_ELEMS {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("implausible slice length {len}"),
        ));
    }
    read_elements(r, len as usize, from_le)
}

/// The chunk-growing element loop behind [`read_array`] and
/// [`ContainerReader::read_array`].
fn read_elements<T, const N: usize>(
    r: &mut impl Read,
    len: usize,
    from_le: impl Fn([u8; N]) -> T,
) -> io::Result<Vec<T>> {
    let mut out: Vec<T> = Vec::new();
    let mut staging = vec![0u8; len.min(CHUNK_ELEMS) * N];
    while out.len() < len {
        if out.len() == out.capacity() {
            out.reserve_exact((len - out.len()).min(out.len().max(CHUNK_ELEMS)));
        }
        let take = (len - out.len()).min(CHUNK_ELEMS);
        let bytes = &mut staging[..take * N];
        r.read_exact(bytes)?;
        out.extend(bytes.chunks_exact(N).map(|c| {
            let mut le = [0u8; N];
            le.copy_from_slice(c);
            from_le(le)
        }));
    }
    Ok(out)
}

/// Writes a length-prefixed `u32` slice.
pub fn write_u32s(w: &mut impl Write, xs: &[u32]) -> io::Result<()> {
    write_array(w, xs, u32::to_le_bytes)
}

/// Reads a length-prefixed `u32` vector, rejecting absurd lengths.
pub fn read_u32s(r: &mut impl Read) -> io::Result<Vec<u32>> {
    read_array(r, u32::from_le_bytes)
}

/// Writes a length-prefixed byte slice.
pub fn write_u8s(w: &mut impl Write, xs: &[u8]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    w.write_all(xs)
}

/// Writes a length-prefixed `i32` slice.
pub fn write_i32s(w: &mut impl Write, xs: &[i32]) -> io::Result<()> {
    write_array(w, xs, i32::to_le_bytes)
}

/// Reads a length-prefixed `i32` vector.
pub fn read_i32s(r: &mut impl Read) -> io::Result<Vec<i32>> {
    read_array(r, i32::from_le_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xxhash64_matches_reference_vectors() {
        // Published XXH64 digests (xxHash reference implementation).
        assert_eq!(xxhash64(b"", 0), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxhash64(b"a", 0), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(xxhash64(b"abc", 0), 0x44BC_2CF5_AD77_0999);
        // 39 bytes: exercises the 32-byte stripe loop + tail.
        assert_eq!(
            xxhash64(b"Nobody inspects the spammish repetition", 0),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn xxhash64_is_seed_and_content_sensitive() {
        let data: Vec<u8> = (0u32..1000).flat_map(|x| x.to_le_bytes()).collect();
        let h = xxhash64(&data, 0);
        assert_ne!(h, xxhash64(&data, 1), "seed must matter");
        let mut flipped = data.clone();
        flipped[1234] ^= 0x40;
        assert_ne!(h, xxhash64(&flipped, 0), "single bit flip must matter");
        assert_eq!(h, xxhash64(&data, 0), "hash must be deterministic");
    }

    fn container_around(magic: &[u8; 4], version: u32, body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_container(&mut buf, magic, version, |w| w.write_all(body)).unwrap();
        buf
    }

    fn body_of(mut file: &[u8], magic: &[u8; 4], version: u32) -> Result<Vec<u8>, IndexLoadError> {
        read_container(&mut file, magic, version, |body| {
            let mut out = Vec::new();
            body.read_to_end(&mut out)?;
            Ok(out)
        })
    }

    #[test]
    fn checksummed_container_roundtrip() {
        let body: Vec<u8> = (0u8..=255).cycle().take(5000).collect();
        let buf = container_around(b"SPQX", 2, &body);
        assert_eq!(buf.len(), CONTAINER_HEADER_LEN + body.len());
        assert_eq!(&buf[..4], b"SPQX");
        assert_eq!(buf[8..16], (body.len() as u64).to_le_bytes());
        assert_eq!(buf[16..24], xxhash64(&body, 2).to_le_bytes());
        assert_eq!(&buf[24..], &body[..]);
        assert_eq!(body_of(&buf, b"SPQX", 2).unwrap(), body);
    }

    /// A body closure that is not a function of its data is caught at
    /// the write, not at the next load.
    #[test]
    fn a_body_that_changes_between_the_passes_is_an_error() {
        let mut pass = 0;
        let err = write_container(&mut Vec::new(), b"SPQX", 2, |w| {
            pass += 1;
            w.write_all(&vec![7u8; pass])
        })
        .unwrap_err();
        assert!(err.to_string().contains("when hashed"), "{err}");
    }

    /// The verdict on the bytes comes before any complaint about what
    /// they say, and a parse that stops early still hashes the rest.
    #[test]
    fn damage_outranks_a_parse_error_and_a_parse_error_survives_a_clean_body() {
        let mut body = Vec::new();
        write_u64(&mut body, 1 << 30).unwrap(); // a lying length prefix
        body.extend_from_slice(&[5u8; 100]);
        let buf = container_around(b"SPQX", 2, &body);
        let sections = |file: &[u8]| {
            let mut file = file;
            read_container(&mut file, b"SPQX", 2, |body| Ok(body.read_u32s()?))
        };
        match sections(&buf) {
            Err(IndexLoadError::Io(e)) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
            other => panic!("expected the short read, got {other:?}"),
        }
        let mut flipped = buf.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert!(matches!(
            sections(&flipped),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            sections(&buf[..buf.len() - 1]),
            Err(IndexLoadError::Truncated {
                expected: 108,
                got: 107
            })
        ));
    }

    /// Reads through a container stop at the declared length even when
    /// the input goes on, and `open_any` takes the header's word for
    /// magic and version — except for the pre-checksum `SPQC` layout.
    #[test]
    fn the_body_ends_where_the_header_says_and_any_format_can_be_validated() {
        let mut buf = container_around(b"SPQX", 7, b"exactly this");
        buf.extend_from_slice(b" and not this");
        assert_eq!(body_of(&buf, b"SPQX", 7).unwrap(), b"exactly this");
        ContainerReader::open_any(&buf[..])
            .unwrap()
            .finish()
            .unwrap();
        buf[30] ^= 0x20;
        assert!(matches!(
            ContainerReader::open_any(&buf[..]).unwrap().finish(),
            Err(IndexLoadError::ChecksumMismatch { .. })
        ));
        let mut v1 = Vec::new();
        write_header(&mut v1, b"SPQC", 1).unwrap();
        assert!(matches!(
            ContainerReader::open_any(&v1[..]),
            Err(IndexLoadError::LegacyVersion {
                found: 1,
                supported: 2
            })
        ));
    }

    #[test]
    fn checksummed_container_rejects_every_tamper_mode() {
        let body = b"forty-two bytes of thoroughly honest body data".to_vec();
        let buf = container_around(b"SPQX", 2, &body);

        // Wrong magic.
        assert!(matches!(
            body_of(&buf, b"OTHR", 2),
            Err(IndexLoadError::BadMagic { .. })
        ));

        // Legacy version (files written before the container existed).
        let mut legacy = Vec::new();
        write_header(&mut legacy, b"SPQX", 1).unwrap();
        legacy.extend_from_slice(&body);
        assert!(matches!(
            body_of(&legacy, b"SPQX", 2),
            Err(IndexLoadError::LegacyVersion { found: 1, .. })
        ));

        // Future version.
        let mut future = buf.clone();
        future[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            body_of(&future, b"SPQX", 2),
            Err(IndexLoadError::UnsupportedVersion { found: 3, .. })
        ));

        // Truncation anywhere in the body.
        let mut short = buf.clone();
        short.truncate(buf.len() - 7);
        assert!(matches!(
            body_of(&short, b"SPQX", 2),
            Err(IndexLoadError::Truncated { .. })
        ));

        // Any single bit flip in the body.
        for byte in [24usize, buf.len() - 1] {
            let mut flipped = buf.clone();
            flipped[byte] ^= 0x01;
            assert!(matches!(
                body_of(&flipped, b"SPQX", 2),
                Err(IndexLoadError::ChecksumMismatch { .. })
            ));
        }

        // Implausible declared body length.
        let mut huge = buf.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            body_of(&huge, b"SPQX", 2),
            Err(IndexLoadError::Corrupt(_))
        ));

        // And the untampered original still reads fine.
        assert_eq!(body_of(&buf, b"SPQX", 2).unwrap(), body);
    }

    #[test]
    fn header_roundtrip_and_mismatch() {
        let mut buf = Vec::new();
        write_header(&mut buf, b"SPQG", 3).unwrap();
        assert_eq!(read_header(&mut &buf[..], b"SPQG").unwrap(), 3);
        assert!(read_header(&mut &buf[..], b"XXXX").is_err());
    }

    #[test]
    fn slice_roundtrips() {
        let mut buf = Vec::new();
        write_u32s(&mut buf, &[1, 2, u32::MAX]).unwrap();
        write_i32s(&mut buf, &[-5, 0, i32::MAX]).unwrap();
        write_u64(&mut buf, 42).unwrap();
        write_u8s(&mut buf, &[0, 9, 255]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_u32s(&mut r).unwrap(), vec![1, 2, u32::MAX]);
        assert_eq!(read_i32s(&mut r).unwrap(), vec![-5, 0, i32::MAX]);
        assert_eq!(read_u64(&mut r).unwrap(), 42);
        let bytes = read_array(&mut r, |[b]: [u8; 1]| b).unwrap();
        assert_eq!(bytes, vec![0, 9, 255]);
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut buf = Vec::new();
        write_u32s(&mut buf, &[1, 2, 3]).unwrap();
        buf.truncate(buf.len() - 2);
        assert!(read_u32s(&mut &buf[..]).is_err());
    }

    /// A prefix that claims 2^33 elements in front of 16 bytes of data
    /// used to reach `Vec::with_capacity` and abort the process; it now
    /// fails like any other short read, whatever the element width.
    #[test]
    fn lying_length_prefix_is_an_eof_not_an_allocation() {
        let mut buf = Vec::new();
        write_u64(&mut buf, 1 << 33).unwrap();
        buf.extend_from_slice(&[7u8; 16]);
        let eof = io::ErrorKind::UnexpectedEof;
        assert_eq!(read_u32s(&mut &buf[..]).unwrap_err().kind(), eof);
        let wide = read_array(&mut &buf[..], u64::from_le_bytes);
        assert_eq!(wide.unwrap_err().kind(), eof);
        assert_eq!(read_i32s(&mut &buf[..]).unwrap_err().kind(), eof);
        let bytes = read_array(&mut &buf[..], |[b]: [u8; 1]| b);
        assert_eq!(bytes.unwrap_err().kind(), eof);
    }

    /// Arrays longer than one conversion chunk keep their order, their
    /// exact capacity and the byte layout of the element-wise encoding.
    #[test]
    fn multi_chunk_arrays_roundtrip_with_the_elementwise_layout() {
        let xs: Vec<u32> = (0..(3 * CHUNK_ELEMS as u32 + 5))
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut buf = Vec::new();
        write_u32s(&mut buf, &xs).unwrap();
        let mut expect = (xs.len() as u64).to_le_bytes().to_vec();
        expect.extend(xs.iter().flat_map(|x| x.to_le_bytes()));
        assert_eq!(buf, expect);
        let back = read_u32s(&mut &buf[..]).unwrap();
        assert_eq!(back, xs);
        assert_eq!(back.capacity(), xs.len());
    }

    #[test]
    fn implausible_length_rejected() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX).unwrap();
        assert!(read_u32s(&mut &buf[..]).is_err());
    }
}
