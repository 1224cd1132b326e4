//! Streaming behaviour: progressiveness (past vs future conditions),
//! bounded memory on unbounded streams (experiment E11), and multi-document
//! evaluation.

mod common;

use spex::core::{CompiledNetwork, CountingSink, Evaluator, FragmentCollector};
use spex::query::Rpeq;
use spex::workloads::QuoteStream;

/// Class-4 "past conditions": the qualifier is satisfied before the
/// candidates arrive, so results are delivered the moment they open.
#[test]
fn past_conditions_deliver_immediately() {
    let xml = "<db><rec><flag/><v>1</v><v>2</v></rec></db>";
    let q: Rpeq = "_*.rec[flag].v".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(xml).unwrap();
    let stats = eval.finish();
    assert_eq!(sink.fragments().len(), 2);
    for (start, delivered) in &sink.timing {
        assert_eq!(start, delivered, "past-condition results must stream");
    }
    assert_eq!(stats.peak_buffered_events, 0, "nothing should be buffered");
}

/// Class-2 "future conditions": candidates precede the qualifier match and
/// must be buffered exactly until the condition is determined.
#[test]
fn future_conditions_buffer_until_determined() {
    let xml = "<db><rec><v>1</v><v>2</v><flag/></rec></db>";
    let q: Rpeq = "_*.rec[flag].v".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(xml).unwrap();
    let stats = eval.finish();
    assert_eq!(sink.fragments().len(), 2);
    for (start, delivered) in &sink.timing {
        assert!(delivered > start, "future-condition results must wait");
    }
    assert!(stats.peak_buffered_events > 0);
}

/// An unsatisfied future condition releases the buffer at scope close —
/// never at end of stream.
#[test]
fn unsatisfied_candidates_release_buffers_at_scope_close() {
    // Two large unqualified records, only the flagged one is kept.
    let mut xml = String::from("<db><rec>");
    for i in 0..100 {
        xml.push_str(&format!("<v>{i}</v>"));
    }
    xml.push_str("</rec><rec><flag/><v>x</v></rec></db>");
    let q: Rpeq = "_*.rec[flag]".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = CountingSink::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(&xml).unwrap();
    let stats = eval.finish();
    assert_eq!(stats.results, 1);
    assert_eq!(stats.dropped, 1);
}

/// The stability experiment of §I: an effectively infinite bounded-depth
/// stream keeps every stack and the candidate store bounded.
#[test]
fn bounded_memory_on_unbounded_streams() {
    let q: Rpeq = "quotes.quote[alert].symbol".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = CountingSink::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    let mut checkpoints = Vec::new();
    let mut stream = QuoteStream::new(7, 20);
    for i in 0..200_000u64 {
        eval.push(stream.next().expect("infinite"));
        if i % 50_000 == 0 {
            let s = eval.stats();
            checkpoints.push((s.max_cond_stack, s.max_depth_stack));
        }
    }
    let stats = eval.stats().clone();
    // Memory proxies bounded by the (constant) stream depth, not the stream
    // length.
    assert!(
        stats.max_cond_stack <= 8,
        "cond stack grew: {}",
        stats.max_cond_stack
    );
    assert!(
        stats.max_depth_stack <= 8,
        "depth stack grew: {}",
        stats.max_depth_stack
    );
    assert!(
        stats.peak_buffered_events <= 1000,
        "buffered events grew: {}",
        stats.peak_buffered_events
    );
    // And they stabilized early: the last checkpoint equals the first
    // post-warmup checkpoint.
    assert_eq!(checkpoints[1], checkpoints[checkpoints.len() - 1]);
    assert!(sink.results > 0);
}

/// Results from one document are complete before the next document begins
/// (SDI over consecutive documents).
#[test]
fn multi_document_results_are_per_document() {
    use spex::core::{ResultMeta, ResultSink};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// A sink with a shared handle so delivery can be observed while the
    /// evaluator still borrows the sink.
    #[derive(Default)]
    struct SharedCount(Rc<RefCell<usize>>);
    impl ResultSink for SharedCount {
        fn begin(&mut self, _m: ResultMeta, _now: u64) {}
        fn event(&mut self, _e: &spex::xml::RawEvent<'_>, _now: u64) {}
        fn end(&mut self, _now: u64) {
            *self.0.borrow_mut() += 1;
        }
    }

    let q: Rpeq = "r.x".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let count = Rc::new(RefCell::new(0));
    let mut sink = SharedCount(count.clone());
    let mut eval = Evaluator::new(&net, &mut sink);
    for i in 0..5 {
        eval.push_str(&format!("<r><x>{i}</x></r>")).unwrap();
        // After each complete document, its result must already be out.
        assert_eq!(*count.borrow(), i + 1);
    }
    eval.finish();
    assert_eq!(*count.borrow(), 5);
}

/// The evaluator handles text, comments and processing instructions inside
/// result fragments.
#[test]
fn mixed_content_fragments() {
    let xml = "<r><k>a<!--note-->b<?pi data?><m>c</m>d</k></r>";
    let frags = spex::core::evaluate_str("r.k", xml).unwrap();
    assert_eq!(frags, vec!["<k>a<!--note-->b<?pi data?><m>c</m>d</k>"]);
}

/// Deep documents: stacks track depth exactly and unwind completely.
#[test]
fn deep_document_stacks() {
    let depth = 200;
    let mut xml = String::new();
    for i in 0..depth {
        xml.push_str(&format!("<n{i}>"));
    }
    xml.push_str("<leaf/>");
    for i in (0..depth).rev() {
        xml.push_str(&format!("</n{i}>"));
    }
    let q: Rpeq = "_*.leaf".parse().unwrap();
    let net = CompiledNetwork::compile(&q);
    let mut sink = CountingSink::new();
    let mut eval = Evaluator::new(&net, &mut sink);
    eval.push_str(&xml).unwrap();
    let stats = eval.finish();
    assert_eq!(sink.results, 1);
    assert_eq!(stats.max_stream_depth, depth + 2); // $, n0..n199, leaf
    assert!(stats.max_depth_stack <= depth + 2);
}

/// The output transducer's accounting, pinned through `--stats-json` on a
/// small deep document: `_*._` keeps every element open behind the
/// outermost one (Lemma V.2 (5)'s nested results), and `_*.a[b]._` mixes
/// accepted and rejected nested candidates. Nested candidates each count
/// the events they share.
#[test]
fn nested_candidate_accounting_is_pinned() {
    let xml = "<a><b/><a><c>t</c><a><b/><d/></a></a><e><a><c/></a></e></a>";
    for (query, results, dropped, peak) in [("_*._", 10, 0, 38), ("_*.a[b]._", 5, 3, 13)] {
        let options = spex_cli::Options {
            query: Some(query.to_string()),
            count: true,
            stats_json: true,
            ..spex_cli::Options::default()
        };
        let (mut stdout, mut stderr) = (Vec::new(), Vec::new());
        let code = spex_cli::run(&options, &mut xml.as_bytes(), &mut stdout, &mut stderr);
        assert_eq!(code, 0, "{query}");
        assert_eq!(String::from_utf8(stdout).unwrap(), format!("{results}\n"));
        let stderr = String::from_utf8(stderr).unwrap();
        let json = stderr
            .lines()
            .find(|l| l.starts_with('{'))
            .expect("stats line");
        for (key, value) in [
            ("results", results),
            ("dropped", dropped),
            ("peak_buffered_events", peak),
        ] {
            assert!(
                json.contains(&format!("\"{key}\":{value},")),
                "{query}: expected {key} = {value} in {json}"
            );
        }
    }
}
