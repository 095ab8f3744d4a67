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

/// One-shot XXH64 of `data` with the given seed.
pub fn xxhash64(data: &[u8], seed: u64) -> u64 {
    let len = data.len() as u64;
    let mut rest = data;
    let mut h: u64;
    if rest.len() >= 32 {
        let mut v1 = seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2);
        let mut v2 = seed.wrapping_add(PRIME64_2);
        let mut v3 = seed;
        let mut v4 = seed.wrapping_sub(PRIME64_1);
        while rest.len() >= 32 {
            v1 = xx_round(v1, read_le_u64(&rest[0..]));
            v2 = xx_round(v2, read_le_u64(&rest[8..]));
            v3 = xx_round(v3, read_le_u64(&rest[16..]));
            v4 = xx_round(v4, read_le_u64(&rest[24..]));
            rest = &rest[32..];
        }
        h = v1
            .rotate_left(1)
            .wrapping_add(v2.rotate_left(7))
            .wrapping_add(v3.rotate_left(12))
            .wrapping_add(v4.rotate_left(18));
        h = xx_merge_round(h, v1);
        h = xx_merge_round(h, v2);
        h = xx_merge_round(h, v3);
        h = xx_merge_round(h, v4);
    } else {
        h = seed.wrapping_add(PRIME64_5);
    }
    h = h.wrapping_add(len);
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

/// Writes a checksummed container:
/// `magic(4) · version(4, LE) · body_len(8, LE) · xxh64(body)(8, LE) · body`.
///
/// The body is serialised up front by the caller so the checksum covers
/// every byte that will be parsed at load time.
pub fn write_checksummed(
    w: &mut impl Write,
    magic: &[u8; 4],
    version: u32,
    body: &[u8],
) -> io::Result<()> {
    write_header(w, magic, version)?;
    write_u64(w, body.len() as u64)?;
    write_u64(w, xxhash64(body, version as u64))?;
    w.write_all(body)
}

/// Reads and fully validates a checksummed container, returning the
/// verified body. Rejects wrong magic, older (legacy) versions, future
/// versions, truncation, and checksum mismatches — each as its own
/// [`IndexLoadError`] variant so callers can log a precise reason
/// before degrading. Every format has one current layout and one
/// reader: a version bump retires the previous layout.
pub fn read_checksummed(
    r: &mut impl Read,
    magic: &[u8; 4],
    version: u32,
) -> Result<Vec<u8>, IndexLoadError> {
    let mut got_magic = [0u8; 4];
    r.read_exact(&mut got_magic)?;
    if &got_magic != magic {
        return Err(IndexLoadError::BadMagic {
            expected: *magic,
            got: got_magic,
        });
    }
    let mut v = [0u8; 4];
    r.read_exact(&mut v)?;
    let found = u32::from_le_bytes(v);
    if found < version {
        return Err(IndexLoadError::LegacyVersion {
            found,
            supported: version,
        });
    }
    if found > version {
        return Err(IndexLoadError::UnsupportedVersion {
            found,
            supported: version,
        });
    }
    let body_len = read_u64(r)?;
    if body_len > MAX_BODY_LEN {
        return Err(IndexLoadError::Corrupt(format!(
            "implausible body length {body_len}"
        )));
    }
    let stored = read_u64(r)?;
    let mut body = vec![0u8; body_len as usize];
    let mut filled = 0usize;
    while filled < body.len() {
        match r.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(IndexLoadError::Truncated {
                    expected: body_len,
                    got: filled as u64,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(IndexLoadError::Io(e)),
        }
    }
    let computed = xxhash64(&body, version as u64);
    if computed != stored {
        return Err(IndexLoadError::ChecksumMismatch {
            expected: stored,
            got: computed,
        });
    }
    Ok(body)
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
    let len = len as usize;
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

/// Writes a length-prefixed `u64` slice.
pub fn write_u64s(w: &mut impl Write, xs: &[u64]) -> io::Result<()> {
    write_array(w, xs, u64::to_le_bytes)
}

/// Reads a length-prefixed `u64` vector, rejecting absurd lengths.
pub fn read_u64s(r: &mut impl Read) -> io::Result<Vec<u64>> {
    read_array(r, u64::from_le_bytes)
}

/// Writes a length-prefixed byte slice.
pub fn write_u8s(w: &mut impl Write, xs: &[u8]) -> io::Result<()> {
    write_u64(w, xs.len() as u64)?;
    w.write_all(xs)
}

/// Reads a length-prefixed byte vector, rejecting absurd lengths.
pub fn read_u8s(r: &mut impl Read) -> io::Result<Vec<u8>> {
    read_array(r, |[b]: [u8; 1]| b)
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

    #[test]
    fn checksummed_container_roundtrip() {
        let body: Vec<u8> = (0u8..=255).cycle().take(5000).collect();
        let mut buf = Vec::new();
        write_checksummed(&mut buf, b"SPQX", 2, &body).unwrap();
        let back = read_checksummed(&mut &buf[..], b"SPQX", 2).unwrap();
        assert_eq!(back, body);
    }

    #[test]
    fn checksummed_container_rejects_every_tamper_mode() {
        let body = b"forty-two bytes of thoroughly honest body data".to_vec();
        let mut buf = Vec::new();
        write_checksummed(&mut buf, b"SPQX", 2, &body).unwrap();

        // Wrong magic.
        assert!(matches!(
            read_checksummed(&mut &buf[..], b"OTHR", 2),
            Err(IndexLoadError::BadMagic { .. })
        ));

        // Legacy version (files written before the container existed).
        let mut legacy = Vec::new();
        write_header(&mut legacy, b"SPQX", 1).unwrap();
        legacy.extend_from_slice(&body);
        assert!(matches!(
            read_checksummed(&mut &legacy[..], b"SPQX", 2),
            Err(IndexLoadError::LegacyVersion { found: 1, .. })
        ));

        // Future version.
        let mut future = buf.clone();
        future[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            read_checksummed(&mut &future[..], b"SPQX", 2),
            Err(IndexLoadError::UnsupportedVersion { found: 3, .. })
        ));

        // Truncation anywhere in the body.
        let mut short = buf.clone();
        short.truncate(buf.len() - 7);
        assert!(matches!(
            read_checksummed(&mut &short[..], b"SPQX", 2),
            Err(IndexLoadError::Truncated { .. })
        ));

        // Any single bit flip in the body.
        for byte in [24usize, buf.len() - 1] {
            let mut flipped = buf.clone();
            flipped[byte] ^= 0x01;
            assert!(matches!(
                read_checksummed(&mut &flipped[..], b"SPQX", 2),
                Err(IndexLoadError::ChecksumMismatch { .. })
            ));
        }

        // Implausible declared body length.
        let mut huge = buf.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            read_checksummed(&mut &huge[..], b"SPQX", 2),
            Err(IndexLoadError::Corrupt(_))
        ));

        // And the untampered original still reads fine.
        assert_eq!(read_checksummed(&mut &buf[..], b"SPQX", 2).unwrap(), body);
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
        write_u64s(&mut buf, &[7, u64::MAX]).unwrap();
        write_u8s(&mut buf, &[0, 9, 255]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_u32s(&mut r).unwrap(), vec![1, 2, u32::MAX]);
        assert_eq!(read_i32s(&mut r).unwrap(), vec![-5, 0, i32::MAX]);
        assert_eq!(read_u64(&mut r).unwrap(), 42);
        assert_eq!(read_u64s(&mut r).unwrap(), vec![7, u64::MAX]);
        assert_eq!(read_u8s(&mut r).unwrap(), vec![0, 9, 255]);
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
        assert_eq!(read_u64s(&mut &buf[..]).unwrap_err().kind(), eof);
        assert_eq!(read_i32s(&mut &buf[..]).unwrap_err().kind(), eof);
        assert_eq!(read_u8s(&mut &buf[..]).unwrap_err().kind(), eof);
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
