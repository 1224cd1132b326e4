//! Property-based differential testing with shrinking: for arbitrary
//! documents and arbitrary rpeq queries, the streamed SPEX engine and the
//! DOM set-semantics oracle select exactly the same nodes. On failure,
//! proptest shrinks to a minimal counterexample — this is the suite that
//! found the nested-qualifier and union-ordering bugs during development.

mod common;

use common::{dom_spans, spex_spans};
use proptest::prelude::*;
use spex::query::{Label, Rpeq};
use spex::xml::{Attribute, XmlEvent};

fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string())
    ]
}

fn qlabel() -> impl Strategy<Value = Label> {
    prop_oneof![
        3 => label().prop_map(Label::Name),
        1 => Just(Label::Wildcard),
    ]
}

/// Balanced subtree events.
fn subtree(depth: u32) -> impl Strategy<Value = Vec<XmlEvent>> {
    let leaf = label().prop_map(|l| vec![XmlEvent::open(l.clone()), XmlEvent::close(l)]);
    leaf.prop_recursive(depth, 48, 3, |inner| {
        (label(), proptest::collection::vec(inner, 0..3)).prop_map(|(l, kids)| {
            let mut v = vec![XmlEvent::open(l.clone())];
            for k in kids {
                v.extend(k);
            }
            v.push(XmlEvent::close(l));
            v
        })
    })
}

fn document() -> impl Strategy<Value = Vec<XmlEvent>> {
    (label(), proptest::collection::vec(subtree(4), 0..3)).prop_map(|(root, kids)| {
        let mut v = vec![XmlEvent::StartDocument, XmlEvent::open(root.clone())];
        for k in kids {
            v.extend(k);
        }
        v.push(XmlEvent::close(root));
        v.push(XmlEvent::EndDocument);
        v
    })
}

/// Text that stresses the lazy-escaping path: every XML-special character,
/// so the writer must re-escape on serialization and the reader must decode
/// entity references on the way back in.
fn spicy_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            Just('x'),
            Just('y'),
            Just(' '),
            Just('&'),
            Just('<'),
            Just('>'),
            Just('"'),
            Just('\''),
        ],
        0..10,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

/// Subtrees with escape-heavy text nodes and attributes — the inputs where
/// the borrowed `RawEvent` representation and owned `XmlEvent`s could
/// plausibly diverge.
fn rich_subtree(depth: u32) -> impl Strategy<Value = Vec<XmlEvent>> {
    let leaf = (label(), spicy_text()).prop_map(|(l, t)| {
        let mut v = vec![XmlEvent::open(l.clone())];
        if !t.is_empty() {
            v.push(XmlEvent::text(t));
        }
        v.push(XmlEvent::close(l));
        v
    });
    leaf.prop_recursive(depth, 32, 3, |inner| {
        (
            label(),
            spicy_text(),
            proptest::collection::vec(inner, 0..3),
        )
            .prop_map(|(l, attr, kids)| {
                let mut v = vec![XmlEvent::StartElement {
                    name: l.clone(),
                    attributes: vec![Attribute::new("k", attr)],
                }];
                for k in kids {
                    v.extend(k);
                }
                v.push(XmlEvent::close(l));
                v
            })
    })
}

fn rich_document() -> impl Strategy<Value = Vec<XmlEvent>> {
    (label(), proptest::collection::vec(rich_subtree(3), 0..3)).prop_map(|(root, kids)| {
        let mut v = vec![XmlEvent::StartDocument, XmlEvent::open(root.clone())];
        for k in kids {
            v.extend(k);
        }
        v.push(XmlEvent::close(root));
        v.push(XmlEvent::EndDocument);
        v
    })
}

fn query() -> impl Strategy<Value = Rpeq> {
    let leaf = prop_oneof![
        4 => qlabel().prop_map(Rpeq::Step),
        2 => qlabel().prop_map(Rpeq::Plus),
        2 => qlabel().prop_map(Rpeq::Star),
        1 => Just(Rpeq::Empty),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Rpeq::Concat(Box::new(a), Box::new(b))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Rpeq::Union(Box::new(a), Box::new(b))),
            2 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Rpeq::Qualified(Box::new(a), Box::new(b))),
            1 => inner.prop_map(|a| Rpeq::Optional(Box::new(a))),
        ]
    })
}

/// Queries with guaranteed structural depth where the random recursion of
/// [`query`] only occasionally lands: a closure step followed by an
/// alternation, filtered by a qualifier whose body is *itself* qualified —
/// `l*.(a|b)[c[…]].tail`-shaped. These are the shapes that exercise the
/// nested Split/Join sub-networks and the Union merge wiring (and, under
/// the VM, their lowered instruction sequences) on every single case.
fn nested_query() -> impl Strategy<Value = Rpeq> {
    let closure =
        (any::<bool>(), qlabel())
            .prop_map(|(plus, l)| if plus { Rpeq::Plus(l) } else { Rpeq::Star(l) });
    (closure, (qlabel(), qlabel()), qlabel(), query()).prop_map(|(cl, (a, b), inner, body)| {
        let nested = Rpeq::Step(inner).with_qualifier(body);
        cl.then(Rpeq::Step(a).or(Rpeq::Step(b)).with_qualifier(nested))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn spex_equals_dom_oracle(events in document(), q in query()) {
        let spex = spex_spans(&q, &events);
        let dom = dom_spans(&q, &events);
        prop_assert_eq!(
            spex, dom,
            "query `{}` over {}",
            q,
            spex::workloads::events_to_xml(&events)
        );
    }

    #[test]
    fn shared_multi_query_equals_individual(events in document(), q1 in query(), q2 in query()) {
        let set = spex_combine::combine(&[
            ("q1".to_string(), q1.clone()),
            ("q2".to_string(), q2.clone()),
        ])
        .expect("generated queries compile")
        .set;
        let (counts, _) = set.count_events(events.iter().cloned());
        prop_assert_eq!(set.ids(), ["q1", "q2"]);
        prop_assert_eq!(counts[0], spex_spans(&q1, &events).len(), "q1 `{}`", q1);
        prop_assert_eq!(counts[1], spex_spans(&q2, &events).len(), "q2 `{}`", q2);
    }

    #[test]
    fn engine_statistics_invariants(events in document(), q in query()) {
        let net = spex::core::CompiledNetwork::compile(&q);
        let mut sink = spex::core::CountingSink::new();
        let mut eval = spex::core::Evaluator::new(&net, &mut sink);
        for ev in &events {
            eval.push(ev.clone());
        }
        let stats = eval.finish();
        // §V invariants, on every run.
        prop_assert!(stats.max_depth_stack <= stats.max_stream_depth);
        prop_assert!(stats.max_cond_stack <= stats.max_stream_depth + 1);
        prop_assert_eq!(stats.results + stats.dropped, stats.candidates_created);
        prop_assert_eq!(stats.ticks as usize, events.len());
        prop_assert!(stats.results + stats.dropped <= stats.candidates_created);
    }

    #[test]
    fn per_transducer_stats_refine_the_global_ones(events in document(), q in query()) {
        let net = spex::core::CompiledNetwork::compile(&q);
        let mut sink = spex::core::CountingSink::new();
        let mut eval = spex::core::Evaluator::new(&net, &mut sink);
        for ev in &events {
            eval.push(ev.clone());
        }
        let (stats, transducers) = eval.finish_full();
        // The per-node breakdown partitions the global message count, and
        // every node individually satisfies the §V per-transducer bounds.
        let sum: u64 = transducers.iter().map(|t| t.messages).sum();
        prop_assert_eq!(sum, stats.messages, "query `{}`", q);
        for t in &transducers {
            prop_assert!(t.max_depth_stack <= stats.max_stream_depth,
                "node {} ({}) of `{}`", t.node, t.kind, q);
            prop_assert!(t.max_formula_size <= stats.max_formula_size);
        }
    }

    #[test]
    fn zero_copy_pipeline_matches_owned_pipeline(events in rich_document(), q in query()) {
        // The same serialized bytes through both frontends: the owned path
        // (`parse_events` allocating an XmlEvent per message, pushed by
        // value) and the zero-copy path (`Reader::next_into` feeding arena
        // handles via `push_from`). Fragments must be byte-identical and
        // the engine statistics — including the arena high-water marks —
        // must agree exactly.
        let xml = spex::workloads::events_to_xml(&events);
        let net = spex::core::CompiledNetwork::compile(&q);
        let (owned_frags, owned_stats, owned_timing) = {
            let mut sink = spex::core::FragmentCollector::new();
            let mut eval = spex::core::Evaluator::new(&net, &mut sink);
            for ev in spex::xml::reader::parse_events(&xml).expect("round-trip") {
                eval.push(ev);
            }
            let stats = eval.finish();
            let timing = sink.timing.clone();
            (sink.into_fragments(), stats, timing)
        };
        let (zc_frags, zc_stats, zc_timing) = {
            let mut reader = spex::xml::Reader::from_str(&xml);
            let mut sink = spex::core::FragmentCollector::new();
            let mut eval = spex::core::Evaluator::new(&net, &mut sink);
            eval.push_from(&mut reader).expect("no limits configured");
            let stats = eval.finish();
            let timing = sink.timing.clone();
            (sink.into_fragments(), stats, timing)
        };
        prop_assert_eq!(&zc_frags, &owned_frags, "query `{}` over {}", q, xml);
        prop_assert_eq!(&zc_stats, &owned_stats, "query `{}` over {}", q, xml);
        prop_assert_eq!(&zc_timing, &owned_timing);
    }

    #[test]
    fn limits_above_the_peaks_are_invisible(events in document(), q in query()) {
        // Measure an unlimited run, then re-run with every cap set exactly
        // at the measured peak: same results, same statistics, same timing.
        let net = spex::core::CompiledNetwork::compile(&q);
        let (free_stats, free_frags, free_timing) = {
            let mut sink = spex::core::FragmentCollector::new();
            let mut eval = spex::core::Evaluator::new(&net, &mut sink);
            for ev in &events {
                eval.push(ev.clone());
            }
            let stats = eval.finish();
            let timing = sink.timing.clone();
            (stats, sink.into_fragments(), timing)
        };
        let limits = spex::core::ResourceLimits::default()
            .with_max_stream_depth(free_stats.max_stream_depth)
            .with_max_buffered_events(free_stats.peak_buffered_events)
            .with_max_live_candidates(free_stats.peak_live_candidates)
            .with_max_formula_size(free_stats.max_formula_size)
            .with_max_total_messages(free_stats.messages);
        let mut sink = spex::core::FragmentCollector::new();
        let mut eval = spex::core::Evaluator::with_limits(&net, &mut sink, limits);
        for ev in &events {
            prop_assert!(eval.try_push(ev.clone()).is_ok(),
                "caps at the measured peaks must never trip (query `{}`)", q);
        }
        let capped_stats = eval.finish();
        prop_assert_eq!(&capped_stats, &free_stats, "query `{}`", q);
        prop_assert_eq!(&sink.timing, &free_timing);
        prop_assert_eq!(sink.into_fragments(), free_frags);
    }

    #[test]
    fn vm_matches_the_interpreter_network(events in document(), q in query()) {
        // The VM's scheduling identity under shrinking: the compiled-plan
        // VM and the reference executor (`network::Run`) deliver byte-identical
        // fragments at the same ticks, with equal engine *and*
        // per-transducer statistics. The seeded `harness vm-diff` rig
        // covers volume; this property covers minimization — a divergence
        // here shrinks to the smallest (document, query) pair exhibiting
        // it.
        let net = spex::core::CompiledNetwork::compile(&q);
        // `PlanRun` and the reference `Run`: same methods, no shared trait.
        macro_rules! outcome {
            ($run:expr, $sink:ident) => {{
                let mut run = $run;
                for ev in &events {
                    run.push(ev.clone());
                }
                let (stats, transducers) = run.finish_full();
                let timing = $sink.timing.clone();
                ($sink.into_fragments(), stats, transducers, timing)
            }};
        }
        let mut sink = spex::core::FragmentCollector::new();
        let vm = outcome!(net.run(vec![&mut sink]), sink);
        let mut sink = spex::core::FragmentCollector::new();
        let net_run = outcome!(spex::core::network::Run::new(net.spec(), vec![&mut sink]), sink);
        prop_assert_eq!(&vm.0, &net_run.0, "fragments diverge for `{}`", &q);
        prop_assert_eq!(&vm.1, &net_run.1, "engine stats diverge for `{}`", &q);
        prop_assert_eq!(&vm.2, &net_run.2, "transducer stats diverge for `{}`", &q);
        prop_assert_eq!(&vm.3, &net_run.3, "delivery timing diverges for `{}`", &q);
    }

    #[test]
    fn nested_qualifier_queries_match_the_dom_oracle(events in document(), q in nested_query()) {
        // Same oracle identity as `spex_equals_dom_oracle`, but every case
        // carries nested qualifiers and alternation under a closure step.
        let spex = spex_spans(&q, &events);
        let dom = dom_spans(&q, &events);
        prop_assert_eq!(
            spex, dom,
            "query `{}` over {}",
            q,
            spex::workloads::events_to_xml(&events)
        );
    }

    #[test]
    fn shared_query_set_agrees_across_engines(
        events in document(),
        q1 in query(),
        q2 in nested_query(),
        q3 in query()
    ) {
        // A three-query combined set on the VM (`count_events`): per-query
        // result counts and the engine statistics must match the reference
        // executor's run of the same shared network (with the combiner's
        // slot table: equal queries share one sink), and each count must
        // match the query evaluated alone.
        use spex::core::sink::ResultSink;
        let set = spex_combine::combine(&[
            ("q1".to_string(), q1.clone()),
            ("q2".to_string(), q2.clone()),
            ("q3".to_string(), q3.clone()),
        ])
        .expect("generated queries compile")
        .set;
        prop_assert_eq!(set.ids(), ["q1", "q2", "q3"]);
        let (vm_counts, vm_stats) = set.count_events(events.iter().cloned());
        let mut counters = [
            spex::core::CountingSink::new(),
            spex::core::CountingSink::new(),
            spex::core::CountingSink::new(),
        ];
        let net_stats = {
            let sinks: Vec<&mut dyn ResultSink> = counters
                .iter_mut()
                .map(|c| c as &mut dyn ResultSink)
                .collect();
            let mut run = spex::core::network::Run::with_slots(set.spec(), sinks, set.slot_of());
            for ev in &events {
                run.push(ev.clone());
            }
            run.finish()
        };
        let net_counts: Vec<usize> = counters.iter().map(|c| c.results).collect();
        prop_assert_eq!(&vm_counts, &net_counts, "q1 `{}`, q2 `{}`, q3 `{}`", &q1, &q2, &q3);
        prop_assert_eq!(&vm_stats, &net_stats, "q1 `{}`, q2 `{}`, q3 `{}`", &q1, &q2, &q3);
        prop_assert_eq!(vm_counts[0], spex_spans(&q1, &events).len(), "q1 `{}`", &q1);
        prop_assert_eq!(vm_counts[1], spex_spans(&q2, &events).len(), "q2 `{}`", &q2);
        prop_assert_eq!(vm_counts[2], spex_spans(&q3, &events).len(), "q3 `{}`", &q3);
    }
}
