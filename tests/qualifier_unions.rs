//! Qualifier unions with an alternative that can take zero steps and carries
//! its own qualifier (`_*[%[a]|b]`). A union merges the activations its two
//! alternatives produce for one document message into one formula, so the
//! variable determinant sees several instances of its qualifier at once;
//! one instance must not be satisfied by another's. Every case is checked
//! against the DOM evaluator (by node identity and by fragment) and against
//! the reference executor (fragments and statistics).

mod common;

use spex::baseline::DomEvaluator;
use spex::core::{CompiledNetwork, EngineStats, FragmentCollector};
use spex::query::Rpeq;
use spex::xml::reader::parse_events;
use spex::xml::Document;

/// The fragments and statistics of `query` over `xml`, run by the VM
/// (`reference == false`) or by the reference executor.
fn run(query: &Rpeq, xml: &str, reference: bool) -> (Vec<String>, EngineStats) {
    let net = CompiledNetwork::compile(query);
    let mut sink = FragmentCollector::new();
    let stats = if reference {
        let mut run = spex::core::network::Run::new(net.spec(), vec![&mut sink]);
        for ev in parse_events(xml).expect("well-formed") {
            run.push(ev);
        }
        run.finish()
    } else {
        let mut run = net.run(vec![&mut sink]);
        for ev in parse_events(xml).expect("well-formed") {
            run.push(ev);
        }
        run.finish()
    };
    (sink.into_fragments(), stats)
}

fn check(query: &str, xml: &str) {
    let q: Rpeq = query.parse().expect("query parses");
    let events = parse_events(xml).expect("well-formed");
    assert_eq!(
        common::spex_spans(&q, &events),
        common::dom_spans(&q, &events),
        "`{query}` over {xml}: selected nodes"
    );
    let vm = run(&q, xml, false);
    assert_eq!(
        vm,
        run(&q, xml, true),
        "`{query}` over {xml}: VM vs reference"
    );
    let doc = Document::from_events(events).expect("a tree");
    assert_eq!(
        vm.0,
        DomEvaluator::new(&doc).evaluate_fragments(&q),
        "`{query}` over {xml}: fragments"
    );
}

#[test]
fn an_instance_is_not_satisfied_by_another() {
    // The root is selected (its child is `b`); `<b/>` has neither a `b`
    // nor an `a` child.
    check("_*[%[a]|b]", "<b/>");
    check("_*[b|%[a]]", "<b/>");
    check("_*[%[a]|b]", "<b><a/></b>");
    check("_*[b|%[a]]", "<r><b/><a/></r>");
}

#[test]
fn controls() {
    for query in ["_*[%[a]]", "_*[%|b]", "_*[b[a]|b]"] {
        for xml in ["<b/>", "<b><a/></b>", "<r><b><a/></b><a/></r>"] {
            check(query, xml);
        }
    }
}

#[test]
fn the_differential_rig_cases() {
    for (query, xml) in [
        // seed 3
        ("_*.c*._[b*[b]|_+]", "<b><c></c></b>"),
        // seed 4
        (
            "_*.b[a*[_]|b]",
            "<b><d><c><c></c></c>a &amp; b<a><d><d><c></c><d></d></d><c><d></d>x<d></d></c></d>some text</a></d><d><d><b>x<b><d></d></b></b><b><d>some text<b></b></d><b><b></b></b><d>some text</d></b></d></d></b>",
        ),
        // seed 5
        ("_*._*[_*].b*[c*[b]|c]", "<d><b><c></c></b>x</d>"),
        // seed 6
        (
            "_*.d[b|_]._*[_*[a]|a+]",
            "<a><a>42<d><a><b></b></a></d>some text</a></a>",
        ),
        // seed 7
        (
            "_*.d*[d*[d]|a].c*",
            "<c><c><b><c><b></b><b></b></c></b><b><d>a &amp; b<d></d><a></a></d><c></c></b></c><a><c><c><a></a><b></b><a></a></c>some text</c></a>some text</c>",
        ),
        (
            "_*.b?._[_*[c]|c+]",
            "<b><b><b></b></b><c><a></a><b></b></c></b>",
        ),
        // seed 18
        ("c*.b.(_*[d*[d]|b]|_*[d])", "<c><b><b><c></c></b></b></c>"),
        // seed 21
        (
            "_*.(a*[d*[b]|a]|a*[c])",
            "<d><a></a><b></b><b><c><b></b>a &amp; bx</c><d><c></c></d><a><b></b><c></c></a></b></d>",
        ),
    ] {
        check(query, xml);
    }
}
