//! Allocation accounting for the restricted sweep and the serving
//! session's range, after `crates/ch/tests/alloc_counting.rs`.
//!
//! A one-to-many request whose target set is in the memo and a repeated
//! range are the steady state of a serving session: both must run
//! without touching the allocator, whoever the source is and however
//! the target list is written down.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use spq_ch::ContractionHierarchy;
use spq_graph::backend::Backend;
use spq_graph::toy::grid_graph;
use spq_many::{ManyBackend, OneToMany, PoiTable};

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
fn memo_hits_and_repeated_ranges_do_not_allocate() {
    let g = grid_graph(20, 20);
    let backend = ManyBackend::new(Arc::new(ContractionHierarchy::build(&g)), PoiTable::empty());
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

    let before = allocations();
    let mut acc = 0u64;
    for i in 0..50u32 {
        let s = (i * 37) % n;
        let list = if i % 2 == 0 { &depots } else { &rotated };
        assert!(o2m.table(&[s], list, &mut row));
        acc += row.iter().flatten().sum::<u64>();
        assert!(session.range(s, u64::from(i % 12), &mut ball));
        acc += ball.len() as u64;
    }
    assert_eq!(
        allocations() - before,
        0,
        "warm one-to-many / range queries allocated (checksum {acc})"
    );
    assert_eq!(o2m.selections_built(), 1);
}
