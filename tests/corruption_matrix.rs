//! Corruption matrix for the checksummed containers: `SPQC`, `SPQH`
//! and `SPQP`.
//!
//! The containers are read as a stream — sections go straight into
//! their final vectors while the checksum is computed, and the verdict
//! comes once the body has been hashed — where they used to be read
//! whole, verified, and parsed from memory. This test pins the outcome
//! of every way of damaging a file to the [`IndexLoadError`] variant the
//! whole-body reader returned: the tables below were recorded by this
//! same test on the commit before streaming (85c6158). The order of
//! precedence they spell out is i/o or `Truncated`, then
//! `ChecksumMismatch`, then whatever the bytes themselves say. The
//! `SPQP` table was recorded when the POI container joined the matrix,
//! and spells out the same precedence.

use spq_ch::ContractionHierarchy;
use spq_graph::binio::{xxhash64, IndexLoadError};
use spq_graph::toy::figure1;
use spq_hl::Hl;
use spq_many::PoiSet;

const HEADER: usize = 24;

/// One way of damaging a container file.
type Edit<'a> = &'a dyn Fn(&mut Vec<u8>);

fn outcome<T>(loaded: Result<T, IndexLoadError>) -> &'static str {
    match loaded {
        Ok(_) => "Ok",
        Err(IndexLoadError::Io(_)) => "Io",
        Err(IndexLoadError::BadMagic { .. }) => "BadMagic",
        Err(IndexLoadError::LegacyVersion { .. }) => "LegacyVersion",
        Err(IndexLoadError::UnsupportedVersion { .. }) => "UnsupportedVersion",
        Err(IndexLoadError::Truncated { .. }) => "Truncated",
        Err(IndexLoadError::ChecksumMismatch { .. }) => "ChecksumMismatch",
        Err(IndexLoadError::Corrupt(_)) => "Corrupt",
    }
}

/// Recomputes the checksum of the container that starts at `at` (its
/// version is the seed), so that damage reaches the parser.
fn reseal(file: &mut [u8], at: usize) {
    let version = u32::from_le_bytes(file[at + 4..at + 8].try_into().unwrap());
    let len = u64::from_le_bytes(file[at + 8..at + 16].try_into().unwrap()) as usize;
    let sum = xxhash64(&file[at + HEADER..at + HEADER + len], version as u64);
    file[at + 16..at + 24].copy_from_slice(&sum.to_le_bytes());
}

fn set_u64(file: &mut [u8], at: usize, value: u64) {
    file[at..at + 8].copy_from_slice(&value.to_le_bytes());
}

fn get_u64(file: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(file[at..at + 8].try_into().unwrap())
}

/// One damaged copy of `file` per case, by name. `prefixes` are the
/// offsets of the section length prefixes, `data` one offset inside each
/// section's elements, `cuts` the section boundaries; `inner` is where an
/// embedded container starts (its own header is then damaged too).
fn damaged(
    file: &[u8],
    prefixes: &[usize],
    data: &[usize],
    cuts: &[usize],
    inner: Option<usize>,
) -> Vec<(String, Vec<u8>)> {
    let mut cases: Vec<(String, Vec<u8>)> = Vec::new();
    let mut case = |name: String, edit: Edit| {
        let mut copy = file.to_vec();
        edit(&mut copy);
        cases.push((name, copy));
    };
    let last = file.len() - 1;

    // Header fields.
    case("flip magic".into(), &|f| f[1] ^= 0x20);
    case("version + 1".into(), &|f| f[4] += 1);
    case("version - 1".into(), &|f| f[4] -= 1);
    case("body_len + 1".into(), &|f| {
        let v = get_u64(f, 8);
        set_u64(f, 8, v + 1)
    });
    case("body_len - 1".into(), &|f| {
        let v = get_u64(f, 8);
        set_u64(f, 8, v - 1)
    });
    case("body_len - 1, resealed".into(), &|f| {
        let v = get_u64(f, 8);
        set_u64(f, 8, v - 1);
        reseal(f, 0)
    });
    case("body_len top bit".into(), &|f| f[15] ^= 0x80);
    case("flip stored checksum".into(), &|f| f[16] ^= 0x01);

    // Damage under the checksum: it must speak before the parser.
    for (i, &at) in prefixes.iter().enumerate() {
        case(format!("flip prefix {i}"), &|f| f[at] ^= 0x01);
        case(format!("prefix {i} top bit"), &|f| f[at + 7] ^= 0x80);
    }
    for (i, &at) in data.iter().enumerate() {
        case(format!("flip data {i}"), &|f| f[at] ^= 0x10);
    }
    case("flip last byte".into(), &|f| f[last] ^= 0x80);

    // Truncation and growth.
    for cut in [0, 3, 4, 7, 8, 15, 16, 23, 24] {
        case(format!("cut in header at {cut}"), &|f| f.truncate(cut));
    }
    for (i, &cut) in cuts.iter().enumerate() {
        case(format!("cut at boundary {i}"), &|f| f.truncate(cut));
        case(format!("cut after boundary {i}"), &|f| f.truncate(cut + 1));
    }
    case("cut last byte".into(), &|f| f.truncate(last));
    case("trailing bytes".into(), &|f| f.extend_from_slice(b"tail"));
    case("trailing bytes in the body".into(), &|f| {
        f.extend_from_slice(b"tail");
        let v = get_u64(f, 8);
        set_u64(f, 8, v + 4);
        reseal(f, 0)
    });

    // Lying length prefixes behind a valid checksum.
    for (i, &at) in prefixes.iter().enumerate() {
        for (what, delta) in [("+ 1", 1i64), ("- 1", -1)] {
            case(format!("prefix {i} {what}, resealed"), &|f| {
                let v = get_u64(f, at) as i64 + delta;
                set_u64(f, at, v as u64);
                reseal(f, 0)
            });
        }
        case(format!("prefix {i} = 2^33, resealed"), &|f| {
            set_u64(f, at, 1 << 33);
            reseal(f, 0)
        });
        case(format!("prefix {i} = 2^40, resealed"), &|f| {
            set_u64(f, at, 1 << 40);
            reseal(f, 0)
        });
    }

    // The embedded container, damaged with only the outer checksum
    // recomputed (the inner one notices) and with both recomputed (the
    // inner parser notices).
    if let Some(at) = inner {
        let edits: [(&str, Edit); 7] = [
            ("magic", &|f| f[at + 1] ^= 0x20),
            ("version + 1", &|f| f[at + 4] += 1),
            ("version - 1", &|f| f[at + 4] -= 1),
            ("body_len + 1", &|f| {
                let v = get_u64(f, at + 8);
                set_u64(f, at + 8, v + 1)
            }),
            ("body_len - 1", &|f| {
                let v = get_u64(f, at + 8);
                set_u64(f, at + 8, v - 1)
            }),
            ("checksum", &|f| f[at + 16] ^= 0x01),
            ("data", &|f| f[at + HEADER + 9] ^= 0x04),
        ];
        for (what, edit) in edits {
            case(format!("embedded {what}"), &|f| edit(f));
            case(format!("embedded {what}, outer resealed"), &|f| {
                edit(f);
                reseal(f, 0)
            });
        }
        case("embedded data, both resealed".into(), &|f| {
            f[at + HEADER + 9] ^= 0x04;
            reseal(f, at);
            reseal(f, 0)
        });
        case("embedded body_len - 1, both resealed".into(), &|f| {
            let v = get_u64(f, at + 8);
            set_u64(f, at + 8, v - 1);
            reseal(f, at);
            reseal(f, 0)
        });
    }
    cases
}

fn check(got: Vec<(String, &'static str)>, want: &[(&str, &str)]) {
    let listing: String = got
        .iter()
        .map(|(case, outcome)| format!("    (\"{case}\", \"{outcome}\"),\n"))
        .collect();
    assert_eq!(got.len(), want.len(), "the matrix is now:\n{listing}");
    for ((case, outcome), &(want_case, want_outcome)) in got.iter().zip(want) {
        assert_eq!(case, want_case, "the matrix is now:\n{listing}");
        assert_eq!(
            *outcome, want_outcome,
            "{case}: the whole-body reader returned {want_outcome}"
        );
    }
}

#[test]
fn spqc_damage_is_refused_as_before() {
    let net = figure1();
    let ch = ContractionHierarchy::build(&net);
    let mut file = Vec::new();
    ch.write_binary(&mut file).unwrap();
    // shortcuts · rank (n) · up_first (n + 1) · up
    let n = net.num_nodes();
    let p0 = HEADER + 8;
    let p1 = p0 + 8 + 4 * n;
    let p2 = p1 + 8 + 4 * (n + 1);
    assert_eq!(file.len(), p2 + 8 + 12 * ch.num_upward_edges());
    let got = damaged(
        &file,
        &[p0, p1, p2],
        &[HEADER, p0 + 8, p1 + 12, p2 + 8 + 5],
        &[p0, p1, p2],
        None,
    )
    .into_iter()
    .map(|(case, bytes)| {
        (
            case,
            outcome(ContractionHierarchy::read_binary(&mut &bytes[..])),
        )
    })
    .collect();
    check(got, SPQC);
}

#[test]
fn spqh_damage_is_refused_as_before() {
    let net = figure1();
    let hl = Hl::build(&net);
    let mut file = Vec::new();
    hl.write_binary(&mut file).unwrap();
    // first (n + 1) · entries · embedded SPQC
    let p0 = HEADER;
    let p1 = p0 + 8 + 4 * (net.num_nodes() + 1);
    let p2 = p1 + 8 + 8 * hl.labels().num_entries();
    let inner = p2 + 8;
    assert_eq!(&file[inner..inner + 4], b"SPQC");
    let got = damaged(
        &file,
        &[p0, p1, p2],
        &[p0 + 8 + 4, p1 + 8 + 4, inner + HEADER + 8 + 8],
        &[p1, p2, inner, inner + HEADER],
        Some(inner),
    )
    .into_iter()
    .map(|(case, bytes)| (case, outcome(Hl::read_binary(&mut &bytes[..]))))
    .collect();
    check(got, SPQH);
}

#[test]
fn spqp_damage_is_refused_in_the_same_order() {
    let net = figure1();
    let set = PoiSet::sample(&net, "chargers", 5, 3).unwrap();
    let mut file = Vec::new();
    set.write_binary(&mut file).unwrap();
    // name · network size · vertices
    let p0 = HEADER;
    let size = p0 + 8 + set.name().len();
    let p1 = size + 8;
    assert_eq!(file.len(), p1 + 8 + 4 * set.len());
    let got = damaged(
        &file,
        &[p0, p1],
        &[p0 + 8, size, p1 + 8 + 4],
        &[size, p1],
        None,
    )
    .into_iter()
    .map(|(case, bytes)| (case, outcome(PoiSet::read_binary(&mut &bytes[..]))))
    .collect();
    check(got, SPQP);
}

const SPQP: &[(&str, &str)] = &[
    ("flip magic", "BadMagic"),
    ("version + 1", "UnsupportedVersion"),
    ("version - 1", "LegacyVersion"),
    ("body_len + 1", "Truncated"),
    ("body_len - 1", "ChecksumMismatch"),
    ("body_len - 1, resealed", "Io"),
    ("body_len top bit", "Corrupt"),
    ("flip stored checksum", "ChecksumMismatch"),
    ("flip prefix 0", "ChecksumMismatch"),
    ("prefix 0 top bit", "ChecksumMismatch"),
    ("flip prefix 1", "ChecksumMismatch"),
    ("prefix 1 top bit", "ChecksumMismatch"),
    ("flip data 0", "ChecksumMismatch"),
    ("flip data 1", "ChecksumMismatch"),
    ("flip data 2", "ChecksumMismatch"),
    ("flip last byte", "ChecksumMismatch"),
    ("cut in header at 0", "Io"),
    ("cut in header at 3", "Io"),
    ("cut in header at 4", "Io"),
    ("cut in header at 7", "Io"),
    ("cut in header at 8", "Io"),
    ("cut in header at 15", "Io"),
    ("cut in header at 16", "Io"),
    ("cut in header at 23", "Io"),
    ("cut in header at 24", "Truncated"),
    ("cut at boundary 0", "Truncated"),
    ("cut after boundary 0", "Truncated"),
    ("cut at boundary 1", "Truncated"),
    ("cut after boundary 1", "Truncated"),
    ("cut last byte", "Truncated"),
    ("trailing bytes", "Ok"),
    ("trailing bytes in the body", "Corrupt"),
    ("prefix 0 + 1, resealed", "Corrupt"),
    ("prefix 0 - 1, resealed", "Io"),
    ("prefix 0 = 2^33, resealed", "Io"),
    ("prefix 0 = 2^40, resealed", "Io"),
    ("prefix 1 + 1, resealed", "Io"),
    ("prefix 1 - 1, resealed", "Corrupt"),
    ("prefix 1 = 2^33, resealed", "Io"),
    ("prefix 1 = 2^40, resealed", "Io"),
];

const SPQC: &[(&str, &str)] = &[
    ("flip magic", "BadMagic"),
    ("version + 1", "UnsupportedVersion"),
    ("version - 1", "LegacyVersion"),
    ("body_len + 1", "Truncated"),
    ("body_len - 1", "ChecksumMismatch"),
    ("body_len - 1, resealed", "Io"),
    ("body_len top bit", "Corrupt"),
    ("flip stored checksum", "ChecksumMismatch"),
    ("flip prefix 0", "ChecksumMismatch"),
    ("prefix 0 top bit", "ChecksumMismatch"),
    ("flip prefix 1", "ChecksumMismatch"),
    ("prefix 1 top bit", "ChecksumMismatch"),
    ("flip prefix 2", "ChecksumMismatch"),
    ("prefix 2 top bit", "ChecksumMismatch"),
    ("flip data 0", "ChecksumMismatch"),
    ("flip data 1", "ChecksumMismatch"),
    ("flip data 2", "ChecksumMismatch"),
    ("flip data 3", "ChecksumMismatch"),
    ("flip last byte", "ChecksumMismatch"),
    ("cut in header at 0", "Io"),
    ("cut in header at 3", "Io"),
    ("cut in header at 4", "Io"),
    ("cut in header at 7", "Io"),
    ("cut in header at 8", "Io"),
    ("cut in header at 15", "Io"),
    ("cut in header at 16", "Io"),
    ("cut in header at 23", "Io"),
    ("cut in header at 24", "Truncated"),
    ("cut at boundary 0", "Truncated"),
    ("cut after boundary 0", "Truncated"),
    ("cut at boundary 1", "Truncated"),
    ("cut after boundary 1", "Truncated"),
    ("cut at boundary 2", "Truncated"),
    ("cut after boundary 2", "Truncated"),
    ("cut last byte", "Truncated"),
    ("trailing bytes", "Ok"),
    ("trailing bytes in the body", "Corrupt"),
    ("prefix 0 + 1, resealed", "Io"),
    ("prefix 0 - 1, resealed", "Io"),
    ("prefix 0 = 2^33, resealed", "Io"),
    ("prefix 0 = 2^40, resealed", "Io"),
    ("prefix 1 + 1, resealed", "Io"),
    ("prefix 1 - 1, resealed", "Io"),
    ("prefix 1 = 2^33, resealed", "Io"),
    ("prefix 1 = 2^40, resealed", "Io"),
    ("prefix 2 + 1, resealed", "Io"),
    ("prefix 2 - 1, resealed", "Corrupt"),
    ("prefix 2 = 2^33, resealed", "Io"),
    ("prefix 2 = 2^40, resealed", "Io"),
];

const SPQH: &[(&str, &str)] = &[
    ("flip magic", "BadMagic"),
    ("version + 1", "UnsupportedVersion"),
    ("version - 1", "LegacyVersion"),
    ("body_len + 1", "Truncated"),
    ("body_len - 1", "ChecksumMismatch"),
    ("body_len - 1, resealed", "Corrupt"),
    ("body_len top bit", "Corrupt"),
    ("flip stored checksum", "ChecksumMismatch"),
    ("flip prefix 0", "ChecksumMismatch"),
    ("prefix 0 top bit", "ChecksumMismatch"),
    ("flip prefix 1", "ChecksumMismatch"),
    ("prefix 1 top bit", "ChecksumMismatch"),
    ("flip prefix 2", "ChecksumMismatch"),
    ("prefix 2 top bit", "ChecksumMismatch"),
    ("flip data 0", "ChecksumMismatch"),
    ("flip data 1", "ChecksumMismatch"),
    ("flip data 2", "ChecksumMismatch"),
    ("flip last byte", "ChecksumMismatch"),
    ("cut in header at 0", "Io"),
    ("cut in header at 3", "Io"),
    ("cut in header at 4", "Io"),
    ("cut in header at 7", "Io"),
    ("cut in header at 8", "Io"),
    ("cut in header at 15", "Io"),
    ("cut in header at 16", "Io"),
    ("cut in header at 23", "Io"),
    ("cut in header at 24", "Truncated"),
    ("cut at boundary 0", "Truncated"),
    ("cut after boundary 0", "Truncated"),
    ("cut at boundary 1", "Truncated"),
    ("cut after boundary 1", "Truncated"),
    ("cut at boundary 2", "Truncated"),
    ("cut after boundary 2", "Truncated"),
    ("cut at boundary 3", "Truncated"),
    ("cut after boundary 3", "Truncated"),
    ("cut last byte", "Truncated"),
    ("trailing bytes", "Ok"),
    ("trailing bytes in the body", "Corrupt"),
    ("prefix 0 + 1, resealed", "Io"),
    ("prefix 0 - 1, resealed", "Io"),
    ("prefix 0 = 2^33, resealed", "Io"),
    ("prefix 0 = 2^40, resealed", "Io"),
    ("prefix 1 + 1, resealed", "Corrupt"),
    ("prefix 1 - 1, resealed", "Corrupt"),
    ("prefix 1 = 2^33, resealed", "Io"),
    ("prefix 1 = 2^40, resealed", "Io"),
    ("prefix 2 + 1, resealed", "Corrupt"),
    ("prefix 2 - 1, resealed", "Corrupt"),
    ("prefix 2 = 2^33, resealed", "Corrupt"),
    ("prefix 2 = 2^40, resealed", "Corrupt"),
    ("embedded magic", "ChecksumMismatch"),
    ("embedded magic, outer resealed", "Corrupt"),
    ("embedded version + 1", "ChecksumMismatch"),
    ("embedded version + 1, outer resealed", "Corrupt"),
    ("embedded version - 1", "ChecksumMismatch"),
    ("embedded version - 1, outer resealed", "LegacyVersion"),
    ("embedded body_len + 1", "ChecksumMismatch"),
    ("embedded body_len + 1, outer resealed", "Corrupt"),
    ("embedded body_len - 1", "ChecksumMismatch"),
    ("embedded body_len - 1, outer resealed", "Corrupt"),
    ("embedded checksum", "ChecksumMismatch"),
    ("embedded checksum, outer resealed", "Corrupt"),
    ("embedded data", "ChecksumMismatch"),
    ("embedded data, outer resealed", "Corrupt"),
    ("embedded data, both resealed", "Corrupt"),
    ("embedded body_len - 1, both resealed", "Corrupt"),
];
