//! Engine-level behaviour of the following/preceding axis extensions:
//! progressiveness, buffering profiles, and interaction with qualifiers and
//! multi-query sharing.

mod common;

use spex::core::{CompiledNetwork, Evaluator, FragmentCollector};
use spex::query::Rpeq;

/// Following matches stream immediately: by the time a following-match
/// opens, its condition (context closed earlier) is already true.
#[test]
fn following_results_stream_immediately() {
    let xml = "<r><a/><b>1</b><b>2</b></r>";
    let q: Rpeq = "r.a.~b".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(xml).unwrap();
    let stats = eval.finish();
    assert_eq!(
        sink.fragments(),
        ["<b>1</b>".to_string(), "<b>2</b>".to_string()]
    );
    for (start, delivered) in &sink.timing {
        assert_eq!(start, delivered, "following matches are past conditions");
    }
    assert_eq!(stats.peak_buffered_events, 0);
}

/// Preceding matches are the ultimate future condition: every candidate
/// buffers until its context arrives (or the document ends).
#[test]
fn preceding_results_buffer_until_context() {
    let xml = "<r><b>1</b><b>2</b><a/></r>";
    let q: Rpeq = "r.a.^b".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(xml).unwrap();
    let stats = eval.finish();
    assert_eq!(
        sink.fragments(),
        ["<b>1</b>".to_string(), "<b>2</b>".to_string()]
    );
    for (start, delivered) in &sink.timing {
        assert!(
            delivered > start,
            "preceding matches must wait for the context"
        );
    }
    assert!(stats.peak_buffered_events > 0);
    // Unmatched speculative candidates are dropped, not leaked.
    assert_eq!(stats.results, 2);
}

/// No context at all: every speculative preceding candidate resolves false
/// within the document (not only at `finish`).
#[test]
fn preceding_without_context_drops_all_candidates() {
    let xml = "<r><b/><b/></r>";
    let q: Rpeq = "r.a.^b".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(xml).unwrap();
    let stats = eval.finish();
    assert!(sink.fragments().is_empty());
    assert_eq!(stats.dropped, 2);
}

/// A qualifier on the context conditions the preceding matches through the
/// conditional-determination chain: `r.a[x].^b` keeps b's only when the a
/// actually has an x child.
#[test]
fn preceding_with_qualified_context() {
    let with = "<r><b/><a><x/></a></r>";
    let without = "<r><b/><a/></r>";
    assert_eq!(
        spex::core::evaluate_str("r.a[x].^b", with).unwrap(),
        vec!["<b></b>"]
    );
    assert!(spex::core::evaluate_str("r.a[x].^b", without)
        .unwrap()
        .is_empty());
}

/// Qualifiers can sit on following/preceding matches themselves.
#[test]
fn qualifiers_on_axis_matches() {
    let xml = "<r><a/><b><k/></b><b/></r>";
    assert_eq!(
        spex::core::evaluate_str("r.a.~b[k]", xml).unwrap(),
        vec!["<b><k></k></b>"]
    );
    let xml2 = "<r><b><k/></b><b/><a/></r>";
    assert_eq!(
        spex::core::evaluate_str("r.a.^b[k]", xml2).unwrap(),
        vec!["<b><k></k></b>"]
    );
}

/// Axis steps participate in multi-query prefix sharing.
#[test]
fn axes_in_shared_query_sets() {
    let queries: Vec<(String, Rpeq)> = vec![
        ("f".into(), "r.a.~b".parse().unwrap()),
        ("p".into(), "r.a.^b".parse().unwrap()),
        ("plain".into(), "r.a".parse().unwrap()),
    ];
    let set = spex_combine::combine(&queries).unwrap().set;
    // The `r.a` prefix is shared.
    let desc = set.spec().describe();
    assert_eq!(desc.iter().filter(|d| *d == "CH(a)").count(), 1);
    let xml = "<r><b>x</b><a/><b>y</b></r>";
    let events = spex::xml::reader::parse_events(xml).unwrap();
    let (counts, _) = set.count_events(events);
    assert_eq!(set.ids(), ["f", "p", "plain"]);
    assert_eq!(counts, vec![1, 1, 1]); // ~b → y; ^b → x; a itself
}

/// Consecutive documents reset axis state: matches never leak across `</$>`.
#[test]
fn axis_state_resets_between_documents() {
    let q: Rpeq = "r.a.~b".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str("<r><a/><b>in-doc-1</b></r>").unwrap();
    // Document 2 has a b but no a before it: must not match via doc 1's a.
    eval.push_str("<r><b>in-doc-2</b></r>").unwrap();
    eval.finish();
    assert_eq!(sink.fragments(), ["<b>in-doc-1</b>".to_string()]);

    let q: Rpeq = "r.a.^b".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str("<r><b>doc-1</b></r>").unwrap();
    // Document 2's a must not resurrect document 1's b.
    eval.push_str("<r><a/></r>").unwrap();
    eval.finish();
    assert!(sink.fragments().is_empty());
}

/// Chained axes compose: "b's after a's that come after an x".
#[test]
fn chained_axes() {
    let xml = "<r><x/><a/><b>1</b></r>";
    assert_eq!(
        spex::core::evaluate_str("r.x.~a.~b", xml).unwrap(),
        vec!["<b>1</b>"]
    );
    // Without the x in front, nothing.
    let xml2 = "<r><a/><b>1</b></r>";
    assert!(spex::core::evaluate_str("r.x.~a.~b", xml2)
        .unwrap()
        .is_empty());
    // Differentially against the oracle.
    for d in [xml, xml2, "<r><a/><x/><a/><b/><b/></r>"] {
        let events = spex::xml::reader::parse_events(d).unwrap();
        let q: Rpeq = "r.x.~a.~b".parse().unwrap();
        assert_eq!(
            common::spex_spans(&q, &events),
            common::dom_spans(&q, &events)
        );
    }
}

/// The unsupported preceding-in-qualifier shape is rejected by every
/// compilation entry point, not just `evaluate_str`.
#[test]
fn preceding_in_qualifier_rejected_everywhere() {
    let bad: Rpeq = "_*.a[^b]".parse().unwrap();
    assert!(spex::core::CompiledNetwork::try_compile(&bad).is_err());
    assert!(spex_combine::combine(&[("q".into(), bad)]).is_err());
    // Conjunctive queries: a side branch containing ^ becomes a qualifier.
    let cq = spex::core::cq::ConjunctiveQuery::parse("q(X1) :- Root(a) X1, X1(^b) X2").unwrap();
    assert!(cq.compile().is_err());
    // But preceding on the main (head) path is fine.
    let ok = spex::core::cq::ConjunctiveQuery::parse("q(X2) :- Root(a) X1, X1(^b) X2").unwrap();
    assert!(ok.compile().is_ok());
}
