//! The streaming XXH64 is a function of the bytes, not of the pieces.
//!
//! Containers are hashed while they are written and while they are
//! read, in whatever pieces the serialiser and the reader's chunks
//! happen to produce. Whatever the cuts — inside a stripe, on a stripe
//! boundary, empty pieces, one byte at a time — the digest must be the
//! one-shot digest, and on the published inputs the published digest.

use proptest::prelude::*;
use spq_graph::binio::{xxhash64, Xxh64};
use std::io::Write;

/// Published XXH64 digests (xxHash reference implementation, seed 0).
const REFERENCE: &[(&[u8], u64)] = &[
    (b"", 0xEF46_DB37_51D8_E999),
    (b"a", 0xD24E_C4F1_A98C_6E5B),
    (b"abc", 0x44BC_2CF5_AD77_0999),
    (
        b"Nobody inspects the spammish repetition",
        0xFBCE_A83C_8A37_8BF1,
    ),
];

/// Feeds `data` cut at `cuts` (any order, duplicates and out-of-range
/// values allowed: they become empty or clamped pieces).
fn digest_in_pieces(data: &[u8], seed: u64, cuts: &[usize]) -> u64 {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
    cuts.sort_unstable();
    let mut h = Xxh64::new(seed);
    let mut at = 0;
    for cut in cuts {
        h.update(&data[at..cut]);
        at = cut;
    }
    // The tail goes through the `Write` face, as a container body does.
    h.write_all(&data[at..]).unwrap();
    assert_eq!(h.total(), data.len() as u64);
    h.finish()
}

#[test]
fn every_split_of_the_reference_inputs_gives_the_published_digest() {
    for &(input, digest) in REFERENCE {
        assert_eq!(xxhash64(input, 0), digest);
        for a in 0..=input.len() {
            for b in a..=input.len() {
                assert_eq!(digest_in_pieces(input, 0, &[a, b]), digest, "{a}/{b}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn any_split_of_any_bytes_equals_the_one_shot(
        bytes in proptest::collection::vec(0u32..256, 0..400),
        cuts in proptest::collection::vec(0usize..420, 0..12),
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let whole = xxhash64(&data, seed);
        prop_assert_eq!(digest_in_pieces(&data, seed, &cuts), whole);
        // One byte at a time: every buffered length is passed through.
        let single: Vec<usize> = (0..data.len()).collect();
        prop_assert_eq!(digest_in_pieces(&data, seed, &single), whole);
        // A digest read midway does not disturb the stream.
        let mut h = Xxh64::new(seed);
        let half = data.len() / 2;
        h.update(&data[..half]);
        prop_assert_eq!(h.finish(), xxhash64(&data[..half], seed));
        h.update(&data[half..]);
        prop_assert_eq!(h.finish(), whole);
    }
}
