//! Label switches: the child steps one producer feeds, with pairwise
//! distinct names, run under the VM's schedule as one switch that routes an
//! activation only to the member whose label opened. Every case is compared
//! with the reference executor, which steps each member as itself
//! (fragments, `EngineStats`, `TransducerStats`, determination latency), and
//! with the DOM evaluator.

use spex::baseline::DomEvaluator;
use spex::core::sink::ResultSink;
use spex::core::{
    CompiledNetwork, EngineStats, FragmentCollector, ResourceLimits, TransducerStats,
};
use spex::query::Rpeq;
use spex::xml::reader::parse_events;
use spex::xml::{Document, XmlEvent};
use spex_trace::HistogramSummary;
use std::collections::BTreeSet;

/// What one executor delivered, measured and where a limit stopped it.
#[derive(Debug, PartialEq)]
struct Outcome {
    fragments: Vec<Vec<String>>,
    stats: EngineStats,
    transducers: Vec<TransducerStats>,
    latency: Vec<(usize, HistogramSummary)>,
    /// The index of the event a resource limit refused, if one did.
    tripped_at: Option<usize>,
}

/// Push `events` through `$run` (the VM's `PlanRun` or the reference `Run`)
/// under `$limits`, delivering to `$sinks`, one per query.
macro_rules! drive {
    ($run:expr, $sinks:ident, $events:expr, $limits:expr) => {{
        let mut run = $run;
        run.set_limits($limits);
        let tripped_at = $events
            .iter()
            .position(|ev| run.try_push(ev.clone()).is_err());
        let latency = run
            .determination_latency()
            .iter()
            .map(|(id, h)| (*id, h.summary()))
            .collect();
        let (stats, transducers) = run.finish_full();
        Outcome {
            fragments: $sinks
                .into_iter()
                .map(FragmentCollector::into_fragments)
                .collect(),
            stats,
            transducers,
            latency,
            tripped_at,
        }
    }};
}

/// `queries` run over `xml` by the VM and by the reference executor, which
/// must agree on everything; each query's fragments must also be the DOM
/// evaluator's. One query is compiled alone, several combined into one
/// network (which shares equal steps). The network must form `switches`
/// label switches. Returns the VM's outcome, fragments in query order.
fn check(queries: &[&str], xml: &str, switches: usize, limits: ResourceLimits) -> Outcome {
    let named: Vec<(String, Rpeq)> = queries
        .iter()
        .enumerate()
        .map(|(i, q)| (format!("q{i}"), q.parse().expect("query parses")))
        .collect();
    let set = match &named[..] {
        [(_, q)] => CompiledNetwork::compile(q),
        _ => spex_combine::combine(&named).expect("queries combine").set,
    };
    assert_eq!(set.plan().switch_count(), switches, "{queries:?}");
    let events = parse_events(xml).expect("well-formed");
    let sinks = || {
        (0..named.len())
            .map(|_| FragmentCollector::new())
            .collect::<Vec<_>>()
    };
    let mut vm_sinks = sinks();
    let vm = drive!(
        set.run(vm_sinks.iter_mut().collect()),
        vm_sinks,
        events,
        limits
    );
    let mut reference_sinks = sinks();
    let reference = drive!(
        spex::core::network::Run::with_slots(
            set.spec(),
            reference_sinks.iter_mut().collect(),
            set.slot_of()
        ),
        reference_sinks,
        events,
        limits
    );
    assert_eq!(vm, reference, "{queries:?} over {xml}");
    // The sinks are in the set's id order.
    let mut vm = vm;
    vm.fragments = named
        .iter()
        .map(|(name, _)| {
            // One query compiled alone has one sink, whatever its id.
            let at = set.ids().iter().position(|id| id == name).unwrap_or(0);
            vm.fragments[at].clone()
        })
        .collect();
    if vm.tripped_at.is_none() {
        let doc = Document::from_events(events).expect("a tree");
        for ((_, q), fragments) in named.iter().zip(&vm.fragments) {
            let dom = DomEvaluator::new(&doc).evaluate_fragments(q);
            assert_eq!(*fragments, dom, "`{q}` over {xml}");
        }
    }
    vm
}

/// The transitions each node fires over `xml`, traced by the reference
/// executor (which steps every member of a switch as itself).
fn transitions(query: &str, xml: &str) -> Vec<BTreeSet<u8>> {
    let net = CompiledNetwork::compile(&query.parse().unwrap());
    let mut run = spex::core::network::Run::new(net.spec(), vec![FragmentCollector::new()]);
    run.set_tracing(true);
    let mut fired = vec![BTreeSet::new(); net.degree()];
    for ev in parse_events(xml).unwrap() {
        run.push(ev);
        for (node, trace) in fired.iter_mut().zip(run.take_traces()) {
            node.extend(
                trace
                    .split(',')
                    .filter(|t| !t.is_empty())
                    .map(|t| t.parse::<u8>().unwrap()),
            );
        }
    }
    fired
}

/// The ids of the `CH(label)` nodes of `query`'s network.
fn child_nodes(query: &str, label: &str) -> Vec<usize> {
    let net = CompiledNetwork::compile(&query.parse().unwrap());
    let kind = format!("CH({label})");
    (0..net.degree())
        .filter(|&i| net.spec().describe()[i] == kind)
        .collect()
}

#[test]
fn nested_same_label_activators() {
    // The inner `<a>` opens at the outer one's match level while the
    // switch is matching: (6), then (12) for `<a>` itself; `(a|c)` makes the
    // nested activator a member's label too, (11).
    let xml = "<a><a><b/></a><c/></a>";
    for (query, switched, nested) in [("_*.a.(b|c)", "b", 12), ("_*.a.(a|c)", "a", 11)] {
        let fired = transitions(query, xml);
        let member = child_nodes(query, switched)
            .into_iter()
            .find(|&i| fired[i].contains(&6))
            .unwrap_or_else(|| panic!("`{query}`: no member fired (6)"));
        assert!(
            fired[member].contains(&nested),
            "`{query}`: {:?}",
            fired[member]
        );
        check(&[query], xml, 1, ResourceLimits::default());
        check(
            &[query],
            "<a><a><a><c/></a><b/></a><c>t</c><a/></a>",
            1,
            ResourceLimits::default(),
        );
    }
}

#[test]
fn determinations_reach_every_member() {
    // The qualifier decides before, between and after the members' labels
    // open, for and against.
    for xml in [
        "<x><y/><b>1</b><c>2</c></x>",
        "<x><b>1</b><y/><c>2</c></x>",
        "<x><b>1</b><c>2</c></x>",
        "<r><x><c/><y/></x><x><b/></x></r>",
    ] {
        check(&["x[y].(b|c)"], xml, 1, ResourceLimits::default());
        check(&["_*.x[y].(b|c)"], xml, 1, ResourceLimits::default());
    }
    // The feed's shape: the fields of `product`, with and without a
    // `meta.lang`, as two switches (and `product|end` under `catalog`).
    let mut queries = Vec::new();
    for i in 0..6 {
        queries.push(format!("catalog.product.fld{i}"));
        queries.push(format!("catalog.product[meta.lang].fld{i}"));
    }
    queries.push("catalog.end".to_string());
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
    for meta in [
        "<meta><lang>en</lang></meta>",
        "<meta><code>en</code></meta>",
        "",
    ] {
        let xml = format!(
            "<catalog><product><fld1>a</fld1>{meta}<fld4>b</fld4></product>\
             <product><fld9/><fld0>c</fld0></product><end/></catalog>"
        );
        let vm = check(&queries, &xml, 3, ResourceLimits::default());
        assert_eq!(vm.fragments[2], ["<fld1>a</fld1>"]);
        let with_lang = usize::from(meta.contains("lang"));
        assert_eq!(vm.fragments[3].len(), with_lang, "{xml}");
    }
}

#[test]
fn wildcards_and_repeated_labels_stay_unswitched() {
    let xml = "<a><b>1</b><c>2</c><b>3</b><d/></a>";
    for query in ["a.(b|_)", "a.(b|b)", "a.(_|_)", "a.((b|b)|d)"] {
        check(&[query], xml, 0, ResourceLimits::default());
    }
    check(&["a.((b|c)|_)"], xml, 1, ResourceLimits::default());
    // A wildcard sibling stays out; the named rest still forms a switch.
    check(&["a._", "a.b", "a.c"], xml, 1, ResourceLimits::default());
    check(&["a._", "a.b"], xml, 0, ResourceLimits::default());
}

#[test]
fn message_limit_trips_at_the_same_event() {
    // A switch consumes each message once but counts it for every member,
    // within the tick: the cap trips on the same event as stepping each
    // member would, at every cap below the whole run's count.
    let queries = ["r.x.(a|b|c)", "r.x[y].(a|b|c)", "r.(x|z)"];
    let xml = "<r><x><a/><b>t</b><y/><c/></x><z/><x><c/><a/></x></r>";
    let whole = check(&queries, xml, 3, ResourceLimits::default())
        .stats
        .messages;
    let mut tripped = 0;
    for cap in (1..whole).step_by(7) {
        let limits = ResourceLimits::default().with_max_total_messages(cap);
        if check(&queries, xml, 3, limits).tripped_at.is_some() {
            tripped += 1;
        }
    }
    assert!(tripped > 10, "the cap tripped only {tripped} time(s)");
}

#[test]
fn a_run_without_switches_steps_as_before() {
    // The benchmark's one-shot and served-stream plans form no switch.
    for query in ["_*.Noun.wordForm", "_*.y[_*.c].z"] {
        let net = CompiledNetwork::compile(&query.parse().unwrap());
        assert_eq!(net.plan().switch_count(), 0, "{query}");
    }
    let events: Vec<XmlEvent> = parse_events("<y><c/><z/></y>").unwrap();
    let net = CompiledNetwork::compile(&"_*.y[_*.c].z".parse().unwrap());
    let mut sink = FragmentCollector::new();
    let mut run = net.run(vec![&mut sink as &mut dyn ResultSink]);
    events.into_iter().for_each(|ev| run.push(ev));
    assert!(run
        .ops_stepped_by_kind()
        .iter()
        .all(|(kind, _)| kind != "SW"));
}
