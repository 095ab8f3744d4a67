//! Allocation accounting for HL persistence: "never holds a body".
//!
//! An `SPQH` container is written as a stream (the body runs through
//! the hasher, then through the sink, a conversion chunk at a time) and
//! read as one (sections go straight into their final vectors while the
//! checksum is computed). The memory either direction needs beyond the
//! index itself is therefore a constant — a staging chunk and a sink
//! buffer — whatever the size of the index. A byte-counting shim around
//! the system allocator holds both directions to that, on two networks
//! whose containers differ fourfold and both dwarf the allowance: a
//! writer or reader that held the serialised body would exceed it by the
//! size of the container.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use spq_graph::atomic_io::write_atomic;
use spq_hl::Hl;
use spq_synth::SynthParams;

struct CountingAlloc;

/// Bytes currently allocated, and the most that ever were.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result, the most bytes that were live
/// during it beyond those live when it started, and how many of them
/// it left behind.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let peak = PEAK.load(Ordering::Relaxed);
    let after = LIVE.load(Ordering::Relaxed);
    (out, peak - before, after.saturating_sub(before))
}

const WRITE_ALLOWANCE: usize = 256 << 10;
const READ_ALLOWANCE: usize = 512 << 10;

/// One test function: the counters are process-wide, so nothing else
/// may allocate while a measurement runs.
#[test]
fn hl_persistence_never_holds_a_body() {
    let dir = std::env::temp_dir().join(format!("spq_hl_alloc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index.hl");

    let mut container_lens = Vec::new();
    for target in [8_000, 32_000] {
        let net = spq_synth::generate(&SynthParams::with_target_vertices(target, 6));
        let hl = Hl::build(&net);
        let len = hl.serialized_len();
        assert!(
            len > 2 * READ_ALLOWANCE,
            "a {len}-byte container is too small to tell a held body from a staging chunk"
        );
        container_lens.push(len);

        let (res, peak, _) = measured(|| hl.write_binary(&mut std::io::sink()));
        res.unwrap();
        assert!(
            peak < WRITE_ALLOWANCE,
            "writing a {len}-byte container into a sink held {peak} bytes"
        );

        let (res, peak, _) = measured(|| write_atomic(&path, |w| hl.write_binary(w)));
        res.unwrap();
        assert!(
            peak < WRITE_ALLOWANCE,
            "writing a {len}-byte container through write_atomic held {peak} bytes"
        );
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len as u64);

        let file = std::fs::File::open(&path).unwrap();
        let mut reader = std::io::BufReader::new(file);
        let (loaded, peak, kept) = measured(|| Hl::read_binary(&mut reader));
        let loaded = loaded.unwrap();
        assert!(
            peak < kept + READ_ALLOWANCE,
            "reading a {len}-byte container held {peak} bytes for a {kept}-byte index"
        );
        assert_eq!(loaded.labels(), hl.labels());
    }
    assert!(container_lens[1] > 3 * container_lens[0]);
    std::fs::remove_dir_all(&dir).unwrap();
}
