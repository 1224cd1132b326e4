//! The heap one run holds: a run of the served feed's 257-query plan (524
//! nodes) is what a server session multiplies, so its construction is
//! measured with a counting allocator (this binary's only test, so nothing
//! else allocates meanwhile).

use spex::core::sink::ResultSink;
use spex::core::CountingSink;
use spex::query::Rpeq;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting the bytes and blocks live.
struct Counting;

static BYTES: AtomicIsize = AtomicIsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        BYTES.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        BLOCKS.fetch_sub(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The feed's standing queries (as `tests/wake_sets.rs`): `p<i>` selects
/// field `i` of every product, `g<i>` only of products with a `meta.lang`,
/// `end` the trailer.
fn feed_queries() -> Vec<(String, Rpeq)> {
    let mut queries = Vec::new();
    for i in 0..128 {
        queries.push((format!("p{i}"), format!("catalog.product.fld{i:03}")));
        queries.push((
            format!("g{i}"),
            format!("catalog.product[meta.lang].fld{i:03}"),
        ));
    }
    queries.push(("end".to_string(), "catalog.end".to_string()));
    queries
        .into_iter()
        .map(|(name, q)| (name, q.parse().expect("feed query parses")))
        .collect()
}

#[test]
fn one_run_of_the_feed_plan_holds_little() {
    let set = spex_combine::combine(&feed_queries())
        .expect("feed queries combine")
        .set;
    assert_eq!(set.degree(), 524);
    // The plan is compiled on first use and shared by every run: build it
    // outside the measurement.
    assert_eq!(set.plan().switch_count(), 3);
    let mut sinks: Vec<CountingSink> = (0..set.ids().len()).map(|_| CountingSink::new()).collect();
    let (bytes, blocks) = (
        BYTES.load(Ordering::Relaxed),
        BLOCKS.load(Ordering::Relaxed),
    );
    let run = set.run(sinks.iter_mut().map(|s| s as &mut dyn ResultSink).collect());
    let held = BYTES.load(Ordering::Relaxed) - bytes;
    let allocations = BLOCKS.load(Ordering::Relaxed) - blocks;
    drop(run);
    eprintln!("one run holds {held} bytes in {allocations} allocations");
    assert!(held <= 400_000, "one run holds {held} bytes");
    assert!(
        allocations <= 500,
        "one run holds {allocations} allocations"
    );
}
