//! Selective dissemination of information (SDI) over an infinite stream —
//! the motivating application of the paper's introduction ("continuous
//! services which select informations from a continuous stream of data,
//! e.g. stock exchange … data").
//!
//! An unbounded stream of stock-quote documents flows through several
//! subscriber queries at once. Each subscriber gets its fragments
//! progressively; memory stays bounded because the stream depth is bounded
//! (the paper's infinite-stream experiment).
//!
//! ```sh
//! cargo run --release --example sdi_filter
//! ```

use spex::core::{CompiledNetwork, Evaluator, FragmentCollector};
use spex::workloads::QuoteStream;
use std::time::Instant;

const DOCUMENTS: u64 = 20_000;

fn main() {
    // Subscriber profiles: rpeq queries with qualifiers. Note the third one
    // — a "future condition": the alert element arrives *after* the symbol
    // it qualifies, so SPEX must buffer exactly until the quote closes.
    let profiles: Vec<(&str, &str)> = vec![
        ("all-symbols", "quotes.quote.symbol"),
        ("alerted-quotes", "quotes.quote[alert]"),
        ("alerted-symbols", "quotes.quote[alert].symbol"),
    ];

    let networks: Vec<(&str, CompiledNetwork)> = profiles
        .iter()
        .map(|(id, q)| (*id, CompiledNetwork::compile(&q.parse().unwrap())))
        .collect();

    let mut sinks: Vec<FragmentCollector> = (0..networks.len())
        .map(|_| FragmentCollector::new())
        .collect();
    let mut evals: Vec<Evaluator<_>> = networks
        .iter()
        .zip(sinks.iter_mut())
        .map(|((_, net), sink)| Evaluator::new(net, sink))
        .collect();

    let quotes_per_doc = 8;
    let start = Instant::now();
    let mut stream = QuoteStream::new(42, quotes_per_doc);
    let mut events = 0u64;
    while stream.documents_emitted() < DOCUMENTS {
        let ev = stream.next().expect("infinite stream");
        events += 1;
        for e in &mut evals {
            e.push(ev.clone());
        }
    }
    // Close out the current document cleanly for reporting.
    let stats: Vec<_> = evals.into_iter().map(|e| e.finish()).collect();
    let elapsed = start.elapsed();

    println!(
        "processed {DOCUMENTS} documents ({events} events) through {} subscriber networks in {:.2?}",
        networks.len(),
        elapsed
    );
    println!(
        "throughput: {:.0} events/s per network",
        events as f64 / elapsed.as_secs_f64()
    );
    println!();
    for ((id, _), (sink, st)) in networks.iter().zip(sinks.iter().zip(&stats)) {
        println!(
            "{id:16} results={:<8} peak buffered events={:<4} max cond stack={} max depth stack={}",
            sink.fragments().len(),
            st.peak_buffered_events,
            st.max_cond_stack,
            st.max_depth_stack
        );
    }
    println!();
    println!("sample matches for `alerted-symbols`:");
    for frag in sinks[2].fragments().iter().take(3) {
        println!("  {frag}");
    }
    // The stability claim: stacks and buffers bounded by the (bounded)
    // stream depth, no matter how many documents have passed.
    for st in &stats {
        assert!(st.max_depth_stack <= 8);
        assert!(st.max_cond_stack <= 8);
    }
    println!("\nbounded-memory invariants held over the whole stream.");
}
