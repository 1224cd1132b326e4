//! Multi-query processing with shared sub-networks — the paper's conclusion
//! names this the "corner stone of efficient XSLT and XQuery
//! implementations": many subscriber queries with common prefixes evaluated
//! by a single SPEX network.
//!
//! ```sh
//! cargo run --release --example multi_query
//! ```

use spex::core::CompiledNetwork;
use spex::query::Rpeq;
use spex::workloads::QuoteStream;
use spex::xml::XmlEvent;
use std::time::Instant;

fn main() {
    // 60 subscriber profiles over the quote stream, all sharing the
    // `quotes.quote` prefix — and several sharing a qualifier prefix too.
    let mut queries: Vec<(String, Rpeq)> = Vec::new();
    for i in 0..20 {
        queries.push((
            format!("symbol-{i}"),
            "quotes.quote.symbol".parse().unwrap(),
        ));
        queries.push((
            format!("alerted-{i}"),
            "quotes.quote[alert].symbol".parse().unwrap(),
        ));
        queries.push((
            format!("price-{i}"),
            "quotes.quote[alert].price".parse().unwrap(),
        ));
    }

    // The combiner orders a set's queries by name; registering them in that
    // order lets counts be compared position by position.
    queries.sort_by(|a, b| a.0.cmp(&b.0));
    let combined = spex_combine::combine(&queries).unwrap();
    let (set, report) = (combined.set, combined.report);
    assert!(set.ids().iter().eq(queries.iter().map(|(name, _)| name)));
    println!(
        "{} queries → shared network of {} transducers (separate networks: {})",
        queries.len(),
        set.degree(),
        report.unshared_degree
    );
    println!(
        "sharing factor: {:.1}×",
        report.unshared_degree as f64 / set.degree() as f64
    );

    let events: Vec<XmlEvent> = QuoteStream::new(9, 10).take(400_000).collect();

    // Shared network: one pass.
    let start = Instant::now();
    let (counts, stats) = set.count_events(events.iter().cloned());
    let shared_time = start.elapsed();

    // Individual networks: one pass each (same events).
    let networks: Vec<CompiledNetwork> = queries
        .iter()
        .map(|(_, q)| CompiledNetwork::compile(q))
        .collect();
    let start = Instant::now();
    let individual_counts: Vec<usize> = networks
        .iter()
        .map(|net| net.count_events(events.iter().cloned()).0[0])
        .collect();
    let individual_time = start.elapsed();

    assert_eq!(
        counts, individual_counts,
        "shared and separate evaluation agree"
    );
    println!();
    println!("events processed : {}", events.len());
    println!("shared network   : {shared_time:.2?}");
    println!("separate networks: {individual_time:.2?}");
    println!(
        "speed-up         : {:.1}×",
        individual_time.as_secs_f64() / shared_time.as_secs_f64()
    );
    println!();
    let count_of = |name: &str| counts[set.ids().iter().position(|id| id == name).unwrap()];
    println!(
        "example counts   : symbol={} alerted={} price={}",
        count_of("symbol-0"),
        count_of("alerted-0"),
        count_of("price-0")
    );
    println!(
        "max stacks       : d={} c={}",
        stats.max_depth_stack, stats.max_cond_stack
    );
}
