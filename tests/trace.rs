//! End-to-end observability tests (DESIGN.md §13): the trace record
//! schema as emitted by a full evaluation, and the determination-latency
//! ("earliness") measure checked against a DOM-oracle construction where
//! the qualifier decides a known number of stream events after the
//! candidate opens; and the trace's volume, which does not grow with the
//! stream.

use spex_baseline::DomEvaluator;
use spex_core::{CompiledNetwork, CountingSink, Evaluator};
use spex_query::Rpeq;
use spex_trace::{MemorySink, TraceRecord, Tracer};
use spex_xml::Document;
use std::sync::Arc;

/// Evaluate `query` over `xml` with a capturing tracer attached; return
/// the result count and every emitted trace record.
fn eval_traced(query: &str, xml: &str) -> (usize, Vec<TraceRecord>) {
    let q: Rpeq = query.parse().expect("query parses");
    let network = CompiledNetwork::compile(&q);
    let sink = Arc::new(MemorySink::new());
    let tracer = Tracer::to_sink(sink.clone());
    let mut counting = CountingSink::new();
    let mut eval = Evaluator::new(&network, &mut counting);
    eval.set_tracer(tracer);
    let mut reader = spex_xml::Reader::new(xml.as_bytes());
    eval.push_from(&mut reader).expect("well-formed");
    eval.finish_full();
    (counting.results, sink.records())
}

/// The oracle: the same query evaluated set-at-a-time over the
/// materialized tree.
fn dom_count(query: &str, xml: &str) -> usize {
    let q: Rpeq = query.parse().expect("query parses");
    let events = spex_xml::reader::parse_events(xml).expect("well-formed");
    let doc = Document::from_events(events).expect("tree");
    DomEvaluator::new(&doc).evaluate(&q).len()
}

/// Fold every non-empty `engine.determination_latency` histogram into
/// (total count, min, max) across the network's OU nodes.
fn latency_profile(records: &[TraceRecord]) -> (u64, u64, u64) {
    let mut total = 0u64;
    let mut min = u64::MAX;
    let mut max = 0u64;
    for r in records {
        if let TraceRecord::Hist { name, summary, .. } = r {
            if name == "engine.determination_latency" && summary.count > 0 {
                total += summary.count;
                min = min.min(summary.min);
                max = max.max(summary.max);
            }
        }
    }
    (total, min, max)
}

#[test]
fn qualifier_decided_n_events_late_reports_latency_of_at_least_n() {
    // The candidate `a` enters the Output buffer at `<a>`; the qualifier
    // [b] cannot decide before `<b/>`, which arrives after k `<pad/>`
    // elements = 2k stream events. The reported latency must not
    // understate that distance.
    let k = 16usize;
    let pads = "<pad/>".repeat(k);
    let xml = format!("<r><a>{pads}<b/></a></r>");
    let query = "r.a[b]";
    let (results, records) = eval_traced(query, &xml);
    assert_eq!(results, dom_count(query, &xml), "spex vs DOM oracle");
    assert_eq!(results, 1);
    let (count, min, _max) = latency_profile(&records);
    assert!(count >= 1, "no determination latency recorded");
    assert!(
        min >= 2 * k as u64,
        "latency {min} understates the {}-event wait",
        2 * k
    );
}

#[test]
fn rejected_candidate_counts_its_forced_determination_at_end() {
    // No `b` ever arrives: the candidate is forced false when its
    // subtree closes. The latency histogram must count that at its
    // actual distance — a lazy evaluator cannot report earliness it
    // does not have.
    let k = 16usize;
    let pads = "<pad/>".repeat(k);
    let xml = format!("<r><a>{pads}</a></r>");
    let query = "r.a[b]";
    let (results, records) = eval_traced(query, &xml);
    assert_eq!(results, dom_count(query, &xml), "spex vs DOM oracle");
    assert_eq!(results, 0);
    let (count, min, _max) = latency_profile(&records);
    assert!(count >= 1, "aborted candidate left no latency record");
    assert!(
        min >= 2 * k as u64,
        "forced determination latency {min} too small"
    );
}

#[test]
fn early_and_late_qualifiers_separate_in_the_histogram() {
    // Two matches: one `a` whose qualifier decides immediately (first
    // child is `<b/>`), one whose qualifier decides after 2k pad
    // events. Progressiveness is visible as the spread between the
    // histogram's min and max.
    let k = 16usize;
    let pads = "<pad/>".repeat(k);
    let xml = format!("<r><a><b/>{pads}</a><a>{pads}<b/></a></r>");
    let query = "r.a[b]";
    let (results, records) = eval_traced(query, &xml);
    assert_eq!(results, dom_count(query, &xml), "spex vs DOM oracle");
    assert_eq!(results, 2);
    let (count, min, max) = latency_profile(&records);
    assert!(count >= 2);
    assert!(min <= 3, "early qualifier decided late: min {min}");
    assert!(
        max >= 2 * k as u64,
        "late qualifier reported early: max {max}"
    );
}

/// Evaluate `query` over `xml` through a pump, the way the CLI runs under
/// `--trace-jsonl`, with or without a tracer. Returns the fragments and the
/// records traced (each one JSONL line).
fn eval_pumped(query: &str, xml: &str, traced: bool) -> (Vec<String>, usize) {
    let network = CompiledNetwork::compile(&query.parse().expect("query parses"));
    let mut run = network.run(spex_core::FragmentCollector::new());
    let sink = Arc::new(MemorySink::new());
    if traced {
        run.set_tracer(Tracer::to_sink(sink.clone()));
    }
    let mut pump = spex_core::Pump::new(run, spex_core::RecoveryOptions::default());
    pump.run_from(&mut xml.as_bytes()).expect("well-formed");
    let fragments = pump.finish().sinks.remove(0).into_fragments();
    (fragments, sink.len())
}

#[test]
fn trace_volume_is_independent_of_stream_size() {
    // The engine and reader counters are emitted once, when the run ends,
    // not per event: a 100x longer stream traces as many records as the 1x
    // one, and tracing changes no result.
    let query = "r.a[b].c";
    let item = "<a><b/><c>1</c></a><a><c>2</c></a>";
    let mut records = Vec::new();
    for copies in [1usize, 100] {
        let xml = format!("<r>{}</r>", item.repeat(copies));
        let (traced, n) = eval_pumped(query, &xml, true);
        let (plain, _) = eval_pumped(query, &xml, false);
        assert_eq!(traced, plain, "tracing changed the results at {copies}x");
        assert_eq!(traced.len(), copies);
        records.push(n);
    }
    assert!(records[0] > 0, "no trace records written");
    assert_eq!(records[0], records[1], "trace records at 1x vs 100x");
}

#[test]
fn emitted_records_follow_the_section_13_schema() {
    let (_, records) = eval_traced("r.a[b]", "<r><a><b/></a></r>");
    assert!(!records.is_empty());
    for r in &records {
        let line = r.to_json();
        assert!(
            line.starts_with("{\"t\":\"") && line.ends_with('}'),
            "malformed record line: {line}"
        );
    }
    let names: Vec<&str> = records.iter().map(|r| r.name()).collect();
    for expected in [
        "engine.ticks",
        "engine.messages",
        "engine.results",
        "engine.max_stream_depth",
        "engine.node.messages",
        "engine.determination_latency",
    ] {
        assert!(names.contains(&expected), "missing record {expected}");
    }
    // Per-node records carry the node id and transducer kind.
    let node = records
        .iter()
        .find(|r| r.name() == "engine.node.messages")
        .expect("per-node record");
    let keys: Vec<&str> = node.attrs().iter().map(|(k, _)| k.as_str()).collect();
    assert!(
        keys.contains(&"node") && keys.contains(&"kind"),
        "attrs: {keys:?}"
    );
}
