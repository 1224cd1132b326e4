//! The heap one run holds: a run of the served feed's 257-query plan (524
//! nodes) is what a server session multiplies, so its construction is
//! measured with a counting allocator (this binary's only test, so nothing
//! else allocates meanwhile). So are the plan it shares and what `spex
//! --stream` allocates per document of the feed.

use spex::core::sink::ResultSink;
use spex::core::CountingSink;
use spex::query::Rpeq;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};

/// The system allocator, counting the bytes and blocks live, and every
/// allocation made (a reallocation counts as one of its new size).
struct Counting;

static BYTES: AtomicIsize = AtomicIsize::new(0);
static BLOCKS: AtomicIsize = AtomicIsize::new(0);
static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size() as isize, Ordering::Relaxed);
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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
        ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
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

/// `count` documents of the feed: eight consecutive fields each, and a
/// `meta.lang` on every other one.
fn feed_documents(count: usize) -> String {
    let mut xml = String::new();
    for doc in 0..count {
        xml.push_str("<catalog><product>");
        for j in 0..8 {
            let field = (doc * 37 + j) % 128;
            xml.push_str(&format!("<fld{field:03}>abc</fld{field:03}>"));
        }
        xml.push_str(if doc % 2 == 0 {
            "<meta><lang>en</lang></meta>"
        } else {
            "<meta><code>en</code></meta>"
        });
        xml.push_str("</product><end/></catalog>");
    }
    xml
}

/// Bytes and allocations `spex --stream`, with the feed's queries and no
/// `--checkpoint`, makes over `input`.
fn stream_allocations(queries: &[String], input: &str) -> (usize, usize) {
    let options = spex_cli::Options {
        queries: queries.to_vec(),
        stream: true,
        ..spex_cli::Options::default()
    };
    let (bytes, allocations) = (
        ALLOCATED.load(Ordering::Relaxed),
        ALLOCATIONS.load(Ordering::Relaxed),
    );
    let code = spex_cli::run(
        &options,
        &mut input.as_bytes(),
        &mut std::io::sink(),
        &mut std::io::sink(),
    );
    assert_eq!(code, 0);
    (
        ALLOCATED.load(Ordering::Relaxed) - bytes,
        ALLOCATIONS.load(Ordering::Relaxed) - allocations,
    )
}

#[test]
fn one_run_of_the_feed_plan_holds_little() {
    let set = spex_combine::combine(&feed_queries())
        .expect("feed queries combine")
        .set;
    assert_eq!(set.degree(), 524);
    // The plan is compiled on first use and shared by every run: build it
    // outside the run's measurement. It shares the spec's nodes, so it holds
    // no second copy of the 256 `fldNNN` labels.
    let (bytes, blocks) = (
        BYTES.load(Ordering::Relaxed),
        BLOCKS.load(Ordering::Relaxed),
    );
    assert_eq!(set.plan().switch_count(), 3);
    let plan_blocks = BLOCKS.load(Ordering::Relaxed) - blocks;
    eprintln!(
        "the plan holds {} bytes in {plan_blocks} allocations",
        BYTES.load(Ordering::Relaxed) - bytes
    );
    assert!(
        plan_blocks <= 32,
        "the plan holds {plan_blocks} allocations"
    );
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

    // A `--stream` run resets at every document and, without
    // `--checkpoint`, builds no snapshot there: two hundred more documents
    // cost next to nothing more.
    let queries: Vec<String> = feed_queries()
        .iter()
        .map(|(name, q)| format!("{name}={q}"))
        .collect();
    let (short, long) = (feed_documents(100), feed_documents(300));
    let (short_bytes, short_allocations) = stream_allocations(&queries, &short);
    let (long_bytes, long_allocations) = stream_allocations(&queries, &long);
    let bytes = long_bytes.saturating_sub(short_bytes) / 200;
    let allocations = long_allocations.saturating_sub(short_allocations) / 200;
    eprintln!("--stream allocates {bytes} bytes in {allocations} allocations per document");
    assert!(
        bytes <= 1_024,
        "--stream allocates {bytes} bytes per document"
    );
    assert!(
        allocations <= 4,
        "--stream makes {allocations} allocations per document"
    );
}
