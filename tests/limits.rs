//! Resource-limit enforcement: every cap of `ResourceLimits` must trip as
//! `EvalError::ResourceExhausted` on a stream crafted to exceed it, the
//! evaluator must stay queryable after the abort, and results whose
//! membership was determined before the breach must already have reached
//! the sink (companion to the failure-injection suite in robustness.rs).

use spex::core::{
    CompiledNetwork, CountingSink, EvalError, Evaluator, FragmentCollector, LimitKind,
    ResourceLimits,
};
use spex::query::Rpeq;

fn net(q: &str) -> CompiledNetwork {
    let q: Rpeq = q.parse().unwrap();
    CompiledNetwork::compile(&q)
}

/// Run `query` over `xml` with `limits`; expect a breach of `kind` and
/// return the evaluator's final statistics plus the collected fragments.
fn expect_breach(
    query: &str,
    xml: &str,
    limits: ResourceLimits,
    kind: LimitKind,
) -> (spex::core::EngineStats, Vec<String>) {
    let network = net(query);
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::with_limits(&network, &mut sink, limits);
    let err = eval.push_str(xml).expect_err("limit must trip");
    match err {
        EvalError::ResourceExhausted {
            kind: k,
            limit,
            observed,
        } => {
            assert_eq!(k, kind, "wrong limit kind");
            assert!(observed > limit, "{observed} must exceed {limit}");
        }
        other => panic!("expected ResourceExhausted, got {other:?}"),
    }
    // Queryable after the breach: the latched error is re-reported, the
    // statistics are readable, finishing is safe.
    assert_eq!(eval.exhausted().map(|b| b.kind), Some(kind));
    assert!(eval.stats().ticks == 0 || eval.stats().messages > 0);
    let stats = eval.finish();
    assert_eq!(
        stats.results + stats.dropped,
        stats.candidates_created,
        "every candidate must be accounted for after an abort"
    );
    (stats, sink.into_fragments())
}

#[test]
fn stream_depth_cap_trips() {
    let xml = "<a><b><c><d><e/></d></c></b></a>";
    let (stats, _) = expect_breach(
        "_*.e",
        xml,
        ResourceLimits::default().with_max_stream_depth(4),
        LimitKind::StreamDepth,
    );
    // Post-tick check: the breach is observed on the first event past the
    // cap, never later (one-tick overshoot at most).
    assert_eq!(stats.max_stream_depth, 5);
}

#[test]
fn buffered_events_cap_trips() {
    // `_*.a[b].c` with `b` after `c`: the whole `<c>…</c>` fragment stays
    // buffered while the qualifier is undetermined.
    let xml = "<r><a><c><u/><u/><u/><u/><u/><u/></c><b/></a></r>";
    let (stats, _) = expect_breach(
        "_*.a[b].c",
        xml,
        ResourceLimits::default().with_max_buffered_events(5),
        LimitKind::BufferedEvents,
    );
    assert!(stats.peak_buffered_events > 5);
}

#[test]
fn live_candidates_cap_trips() {
    // `_*._` makes every element a candidate, and all of them stay live
    // until the outermost fragment completes.
    let xml = "<a><a><a><a><a><a><a/></a></a></a></a></a></a>";
    let (stats, _) = expect_breach(
        "_*._",
        xml,
        ResourceLimits::default().with_max_live_candidates(4),
        LimitKind::LiveCandidates,
    );
    assert!(stats.peak_live_candidates > 4);
}

#[test]
fn formula_size_cap_trips() {
    // Qualified wildcard closures grow the condition formulas with depth
    // (the o(φ) analysis of §V — see `harness formula_growth`).
    let mut xml = String::new();
    for _ in 0..16 {
        xml.push_str("<a>");
    }
    xml.push_str("<leaf/>");
    for _ in 0..16 {
        xml.push_str("</a>");
    }
    let (stats, _) = expect_breach(
        "_*._[leaf]._*._",
        &xml,
        ResourceLimits::default().with_max_formula_size(3),
        LimitKind::FormulaSize,
    );
    assert!(stats.max_formula_size > 3);
}

#[test]
fn total_messages_cap_trips() {
    let xml = "<r><x/><x/><x/><x/><x/><x/><x/><x/></r>";
    let (stats, _) = expect_breach(
        "r.x",
        xml,
        ResourceLimits::default().with_max_total_messages(30),
        LimitKind::TotalMessages,
    );
    assert!(stats.messages > 30);
}

#[test]
fn results_determined_before_the_abort_were_already_emitted() {
    // Two <x> results are decided (and streamed) before the depth bomb at
    // the end of the document trips the cap.
    let xml = "<r><x>1</x><x>2</x><boom><boom><boom><boom/></boom></boom></boom></r>";
    let network = net("r.x");
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::with_limits(
        &network,
        &mut sink,
        ResourceLimits::default().with_max_stream_depth(4),
    );
    let err = eval.push_str(xml).expect_err("depth cap must trip");
    assert!(matches!(
        err,
        EvalError::ResourceExhausted {
            kind: LimitKind::StreamDepth,
            ..
        }
    ));
    let stats = eval.finish();
    assert_eq!(stats.results, 2);
    assert_eq!(
        sink.fragments(),
        ["<x>1</x>".to_string(), "<x>2</x>".to_string()]
    );
    // Delivered progressively, before finish(): each fragment's first
    // delivery happened at its own start tick, well before the breach.
    for (start, delivered) in &sink.timing {
        assert_eq!(start, delivered, "results must stream before the abort");
    }
}

#[test]
fn undetermined_buffers_are_released_on_abort() {
    // The candidate `<c>…` is still undetermined (its `b` never arrives
    // before the breach): the abort must drop it, not leak it.
    let xml = "<r><a><c><u/><u/></c><deep><deep><deep><deep/></deep></deep></deep></a></r>";
    let network = net("_*.a[b].c");
    let mut sink = FragmentCollector::new();
    let mut eval = Evaluator::with_limits(
        &network,
        &mut sink,
        ResourceLimits::default().with_max_stream_depth(5),
    );
    assert!(eval.push_str(xml).is_err());
    let stats = eval.finish();
    assert!(sink.fragments().is_empty());
    assert_eq!(stats.dropped, stats.candidates_created);
    assert_eq!(stats.results, 0);
}

#[test]
fn push_discards_after_breach_but_try_push_reports_it() {
    let network = net("_*.x");
    let mut sink = CountingSink::new();
    let mut eval = Evaluator::with_limits(
        &network,
        &mut sink,
        ResourceLimits::default().with_max_total_messages(10),
    );
    let events = spex::xml::reader::parse_events("<r><x/><x/><x/><x/></r>").unwrap();
    for ev in events {
        eval.push(ev); // infallible path: breach silently discards
    }
    let messages = eval.stats().messages;
    // The latched breach is visible on demand.
    assert_eq!(
        eval.exhausted().map(|b| b.kind),
        Some(LimitKind::TotalMessages)
    );
    assert!(
        eval.try_push(spex::xml::XmlEvent::text("late")).is_err(),
        "try_push must report the latched breach"
    );
    // Discarded means discarded: no further messages were processed.
    assert_eq!(eval.stats().messages, messages);
}

#[test]
fn limits_above_the_peaks_change_nothing() {
    // A guarded run whose caps sit above the measured peaks is
    // byte-identical to the unlimited run.
    let xml = "<a><a><c>x</c></a><b/><c>y</c></a>";
    let query = "_*.a[b].c";
    let network = net(query);

    let mut free_sink = FragmentCollector::new();
    let mut free = Evaluator::new(&network, &mut free_sink);
    free.push_str(xml).unwrap();
    let free_stats = free.finish();

    let generous = ResourceLimits::default()
        .with_max_stream_depth(free_stats.max_stream_depth)
        .with_max_buffered_events(free_stats.peak_buffered_events)
        .with_max_live_candidates(free_stats.peak_live_candidates)
        .with_max_formula_size(free_stats.max_formula_size)
        .with_max_total_messages(free_stats.messages);
    let mut capped_sink = FragmentCollector::new();
    let mut capped = Evaluator::with_limits(&network, &mut capped_sink, generous);
    capped
        .push_str(xml)
        .expect("caps at the peaks must not trip");
    let capped_stats = capped.finish();

    assert_eq!(capped_stats, free_stats);
    assert_eq!(capped_sink.fragments(), free_sink.fragments());
    assert_eq!(capped_sink.timing, free_sink.timing);
}

#[test]
fn multi_query_runs_accept_limits() {
    use spex::core::ResultSink;

    let set = spex_combine::combine(&[
        ("x".to_string(), "r.x".parse().unwrap()),
        ("y".to_string(), "r.y".parse().unwrap()),
    ])
    .unwrap()
    .set;
    assert_eq!(set.ids(), ["x", "y"]);
    let mut cx = CountingSink::new();
    let mut cy = CountingSink::new();
    {
        let sinks: Vec<&mut dyn ResultSink> = vec![&mut cx, &mut cy];
        let mut run =
            set.run_with_limits(sinks, ResourceLimits::default().with_max_stream_depth(2));
        let mut tripped = false;
        for ev in spex::xml::reader::parse_events("<r><x/><y><deep/></y></r>").unwrap() {
            if run.try_push(ev).is_err() {
                tripped = true;
                break;
            }
        }
        assert!(tripped, "depth 4 must exceed the cap of 2");
        assert_eq!(
            run.exhausted().map(|b| b.kind),
            Some(LimitKind::StreamDepth)
        );
        run.finish();
    }
    // The <x/> result was determined before the breach and reached its sink.
    assert_eq!(cx.results, 1);
}

#[test]
fn zero_caps_trip_on_the_first_event() {
    let network = net("a");
    let mut sink = CountingSink::new();
    let mut eval = Evaluator::with_limits(
        &network,
        &mut sink,
        ResourceLimits::default().with_max_total_messages(0),
    );
    assert!(eval.try_push(spex::xml::XmlEvent::StartDocument).is_err());
    let stats = eval.finish();
    assert_eq!(stats.results, 0);
}
