//! Allocation accounting for the restricted sweep and the serving
//! session's range and whole-set rows, after
//! `crates/ch/tests/alloc_counting.rs`.
//!
//! A one-to-many request whose target set is in the memo, a repeated
//! range and a row against a whole registered POI set are the steady
//! state of a serving session: all must run without touching the
//! allocator, whoever the source is and however the target list is
//! written down. One test, so that no other test's allocations land in
//! the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spq_ch::ContractionHierarchy;
use spq_graph::backend::Backend;
use spq_graph::toy::grid_graph;
use spq_many::{ManyBackend, OneToMany, PoiEntry, PoiIndex, PoiSet, PoiTable};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn warm_session_requests_do_not_allocate() {
    let g = grid_graph(20, 20);
    let ch = Arc::new(ContractionHierarchy::build(&g));
    let set = PoiSet::sample(&g, "depots", 60, 3).unwrap();
    let pois = PoiTable::empty();
    pois.install(vec![PoiEntry {
        index: PoiIndex::build(&ch, &set).unwrap(),
        set: set.clone(),
    }])
    .unwrap();
    let backend = ManyBackend::new(ch, pois);
    let ch = backend.hierarchy();
    let mut session = backend.session(&g);
    let n = g.num_nodes() as u32;

    let before_new = allocations();
    let mut o2m = OneToMany::new(ch);
    assert!(
        allocations() - before_new < 8,
        "OneToMany::new allocated {} times — workspace sizing is not lazy",
        allocations() - before_new
    );

    // Warm-up: the n-sized arrays, one selection, the output vectors
    // and the widest ball the steady state will see.
    let depots: Vec<u32> = (0..40u32).map(|i| (i * 53 + 7) % n).collect();
    let mut rotated = depots.clone();
    rotated.rotate_left(13);
    rotated.push(depots[0]);
    let (mut row, mut ball) = (Vec::new(), Vec::new());
    assert!(o2m.table(&[0], &rotated, &mut row));
    assert!(session.range(n / 2 + 10, 12, &mut ball));
    let sorted = set.nodes().to_vec();
    let mut shuffled = sorted.clone();
    shuffled.reverse();
    shuffled.rotate_left(7);
    let (mut set_row, mut set_column) = (Vec::new(), Vec::new());
    session.one_to_many(0, &sorted, &mut set_row);
    session.distances(&shuffled, &[0, 1], &mut set_column);

    let before = allocations();
    let mut acc = 0u64;
    for i in 0..50u32 {
        let s = (i * 37) % n;
        let list = if i % 2 == 0 { &depots } else { &rotated };
        assert!(o2m.table(&[s], list, &mut row));
        acc += row.iter().flatten().sum::<u64>();
        assert!(session.range(s, u64::from(i % 12), &mut ball));
        acc += ball.len() as u64;
        session.one_to_many(
            s,
            if i % 2 == 0 { &sorted } else { &shuffled },
            &mut set_row,
        );
        session.distances(&shuffled, &[s, (s + 1) % n], &mut set_column);
        acc += set_row.iter().chain(&set_column).flatten().sum::<u64>();
        assert!(!session.interrupted());
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm one-to-many / range / whole-set queries allocated (checksum {acc})"
    );
    assert_eq!(o2m.selections_built(), 1);
}
