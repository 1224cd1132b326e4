//! Integration properties of the multi-tenant query combiner
//! (`spex-combine`): a combined N-query set must be *observationally
//! indistinguishable* from N independently-compiled evaluations — the same
//! fragments, byte for byte, per query, on the VM and on the reference
//! executor — no matter how aggressively the combiner shares prefixes, hash-conses
//! qualifiers, or aliases canonically-equal queries onto one sink. On
//! failure, proptest shrinks to the smallest (document, query set) pair
//! exhibiting the divergence.

use proptest::prelude::*;
use spex::core::sink::ResultSink;
use spex::core::{CompiledNetwork, FragmentCollector};
use spex::query::{Label, Rpeq};
use spex::xml::XmlEvent;
use std::collections::HashMap;

fn step(l: &str) -> Rpeq {
    Rpeq::Step(Label::Name(l.to_string()))
}

fn chain(labels: &[&str]) -> Rpeq {
    let mut it = labels.iter();
    let first = step(it.next().expect("non-empty chain"));
    it.fold(first, |acc, l| acc.then(step(l)))
}

fn label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("c".to_string()),
        Just("e".to_string()),
    ]
}

/// Deliberately-overlapping prefixes: every tenant query starts with one of
/// three shapes, so a generated set of a few dozen queries is guaranteed to
/// collide on the step trie (and often to collide *entirely*, exercising
/// the whole-query sink aliasing path).
fn shared_prefix() -> impl Strategy<Value = Rpeq> {
    prop_oneof![
        Just(chain(&["a", "b"])),
        Just(step("a")),
        Just(step("b").then(Rpeq::Star(Label::Name("c".to_string())))),
    ]
}

/// A small pool of qualifiers shared across tenants, including a
/// non-trivial union — the shapes the combiner hash-conses into one
/// condition sub-network when they land on the same trie node.
fn shared_qualifier() -> impl Strategy<Value = Rpeq> {
    prop_oneof![
        Just(step("b")),
        Just(chain(&["c", "b"])),
        Just(Rpeq::Plus(Label::Name("b".to_string())).or(step("c"))),
    ]
}

/// Per-tenant suffix: up to two further steps, occasionally a closure or a
/// wildcard, so queries diverge *after* the shared prefix.
fn suffix() -> impl Strategy<Value = Rpeq> {
    proptest::collection::vec(
        prop_oneof![
            3 => label().prop_map(|l| Rpeq::Step(Label::Name(l))),
            1 => label().prop_map(|l| Rpeq::Star(Label::Name(l))),
            1 => Just(Rpeq::Step(Label::Wildcard)),
        ],
        0..3,
    )
    .prop_map(|steps| steps.into_iter().fold(Rpeq::Empty, |acc, s| acc.then(s)))
}

/// One tenant's standing query: shared prefix, private suffix, and — half
/// the time — a qualifier drawn from the shared pool.
fn tenant_query() -> impl Strategy<Value = Rpeq> {
    (
        shared_prefix(),
        suffix(),
        prop_oneof![
            1 => Just(None),
            1 => shared_qualifier().prop_map(Some),
        ],
    )
        .prop_map(|(prefix, suffix, qualifier)| {
            let chain = prefix.then(suffix);
            match qualifier {
                Some(q) => chain.with_qualifier(q),
                None => chain,
            }
        })
}

/// Balanced subtree events over the same alphabet the queries use.
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

/// Which executor a run goes through: the VM everything in production
/// runs on, or the reference executor (`network::Run`).
#[derive(Debug, Clone, Copy)]
enum Executor {
    Vm,
    Reference,
}

/// `query` evaluated alone on its own network: the per-query oracle.
fn independent_fragments(query: &Rpeq, events: &[XmlEvent], executor: Executor) -> Vec<String> {
    let net = CompiledNetwork::compile(query);
    let mut sink = FragmentCollector::new();
    match executor {
        Executor::Vm => {
            let mut run = net.run(&mut sink);
            events.iter().for_each(|ev| run.push(ev.clone()));
            run.finish();
        }
        Executor::Reference => {
            let mut run = spex::core::network::Run::new(net.spec(), vec![&mut sink]);
            events.iter().for_each(|ev| run.push(ev.clone()));
            run.finish();
        }
    }
    sink.into_fragments()
}

/// The whole combined set in one pass, fragments keyed by query name.
fn combined_fragments(
    set: &spex::core::multi::SharedQuerySet,
    events: &[XmlEvent],
    executor: Executor,
) -> HashMap<String, Vec<String>> {
    let mut collectors: Vec<FragmentCollector> = (0..set.ids().len())
        .map(|_| FragmentCollector::new())
        .collect();
    {
        let sinks: Vec<&mut dyn ResultSink> = collectors
            .iter_mut()
            .map(|c| c as &mut dyn ResultSink)
            .collect();
        match executor {
            Executor::Vm => {
                let mut run = set.run(sinks);
                events.iter().for_each(|ev| run.push(ev.clone()));
                run.finish();
            }
            Executor::Reference => {
                let mut run =
                    spex::core::network::Run::with_slots(set.spec(), sinks, set.slot_of());
                events.iter().for_each(|ev| run.push(ev.clone()));
                run.finish();
            }
        }
    }
    set.ids()
        .iter()
        .cloned()
        .zip(
            collectors
                .into_iter()
                .map(FragmentCollector::into_fragments),
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn combined_set_is_byte_identical_to_independent_evaluation(
        events in document(),
        queries in proptest::collection::vec(tenant_query(), 1..33)
    ) {
        let named: Vec<(String, Rpeq)> = queries
            .iter()
            .enumerate()
            .map(|(i, q)| (format!("q{i}"), q.clone()))
            .collect();
        let combined = spex_combine::combine(&named).expect("generated queries compile");
        for engine in [Executor::Vm, Executor::Reference] {
            let shared = combined_fragments(&combined.set, &events, engine);
            prop_assert_eq!(shared.len(), named.len());
            for (name, query) in &named {
                let alone = independent_fragments(query, &events, engine);
                let via_set = shared.get(name).expect("every registered name has a sink");
                prop_assert_eq!(
                    via_set, &alone,
                    "{engine:?}: query {} `{}` diverges in a {}-query set over {}",
                    name, query, named.len(),
                    spex::workloads::events_to_xml(&events)
                );
            }
        }
    }
}

#[test]
fn combined_degree_strictly_decreases_on_overlap() {
    // A known-overlap tenant set: three queries on the `a.b` prefix (one
    // qualified), a canonical duplicate pair spelled two ways, and a union
    // respelling. Sharing must make the physical network *strictly*
    // smaller than the sum of the per-query networks — this is the whole
    // point of the combiner, so it is pinned here as an invariant, not
    // just reported.
    let named: Vec<(String, Rpeq)> = [
        ("q0", "a.b.c"),
        ("q1", "a.b.e"),
        ("q2", "a.b[c].e"),
        ("q3", "a.(b|c)"),
        ("q4", "a.(c|b)"), // canonically equal to q3: aliases its sink
        ("q5", "b*.b.e"),
    ]
    .iter()
    .map(|(n, q)| (n.to_string(), q.parse().expect("test query parses")))
    .collect();
    let combined = spex_combine::combine(&named).expect("test queries compile");
    assert_eq!(combined.report.queries, 6);
    assert_eq!(
        combined.report.distinct, 5,
        "q3/q4 must collapse to one canonical query"
    );
    assert!(
        combined.set.degree() < combined.set.unshared_degree(),
        "sharing must strictly shrink the network: degree {} vs unshared {}",
        combined.set.degree(),
        combined.set.unshared_degree()
    );
    assert_eq!(combined.report.degree, combined.set.degree());
    assert_eq!(
        combined.report.unshared_degree,
        combined.set.unshared_degree()
    );
}
