//! Transition-table coverage: every numbered transition of the paper's
//! figures must fire at least once across a suite of scenario runs — a
//! guard against silently dead rows in the implementations of Figs. 2, 3,
//! 6, 7 and 10.

use spex_core::{CompiledNetwork, CountingSink};
use std::collections::{BTreeSet, HashMap};

/// Run `query` over `xml` with tracing and accumulate the fired transition
/// numbers per node description into `seen`.
fn collect(query: &str, xml: &str, seen: &mut HashMap<String, BTreeSet<u8>>) {
    let net = CompiledNetwork::compile(&query.parse().unwrap());
    let desc = net.spec().describe();
    let mut sink = CountingSink::new();
    let mut eval = spex_core::network::Run::new(net.spec(), vec![&mut sink]);
    eval.set_tracing(true);
    for ev in spex_xml::reader::parse_events(xml).unwrap() {
        eval.push(ev);
        for (node, trace) in desc.iter().zip(eval.take_traces()) {
            let kind = node.split('(').next().unwrap_or(node).to_string();
            let entry = seen.entry(kind).or_default();
            for t in trace.split(',').filter(|s| !s.is_empty()) {
                entry.insert(t.parse().expect("trace numbers"));
            }
        }
    }
    eval.finish();
}

fn scenario_suite() -> HashMap<String, BTreeSet<u8>> {
    let mut seen = HashMap::new();
    let cases: &[(&str, &str)] = &[
        // The paper's own examples.
        ("a.c", "<a><a><c/></a><b/><c/></a>"),
        ("a+.c+", "<a><a><c/></a><b/><c/></a>"),
        ("_*.a[b].c", "<a><a><c/></a><b/><c/></a>"),
        // Child transducer: nested activations on matching labels (11).
        ("_*.a.a", "<a><a><a/></a></a>"),
        ("_*.a.b", "<a><a><b/></a><b/></a>"),
        // Closure: nested scopes on matching (12) and non-matching (13)
        // openers, excursions (8/4), outer scope end (11).
        ("_*.a+.b", "<x><a><a><b/></a><x><y/></x><b/></a></x>"),
        ("a+.a+", "<a><a><a/></a></a>"),
        // Qualifiers: satisfied and unsatisfied instances, nested instances,
        // past and future conditions.
        ("_*.a[b]", "<a><b/><a><c/></a></a>"),
        ("_*.a[b].c", "<r><a><c/><b/></a><a><b/><c/></a></r>"),
        ("_*._[x]._*._[y]._", "<a><x/><b><y/><c><d/></c></b></a>"),
        // Unions and optionals exercise SP/JO/UN.
        ("(a|b).c", "<a><c/></a>"),
        ("a?.b", "<a><b/></a>"),
        ("a*.b", "<a><a><b/></a><b/></a>"),
        ("(a|a).b", "<a><b/></a>"),
        // Following / preceding.
        ("r.a.~b.c", "<r><a/><b><c/></b></r>"),
        ("r.a.^b", "<r><b/><a/><b/></r>"),
        // Text content flows through everything.
        ("r.k", "<r>pre<k>in</k>post</r>"),
    ];
    for (q, d) in cases {
        collect(q, d, &mut seen);
    }
    seen
}

#[test]
fn child_transducer_full_table() {
    let seen = scenario_suite();
    let ch = &seen["CH"];
    // Fig. 2 has 13 transitions.
    let expected: BTreeSet<u8> = (1..=13).collect();
    let missing: Vec<u8> = expected.difference(ch).copied().collect();
    assert!(
        missing.is_empty(),
        "CH transitions never fired: {missing:?}"
    );
}

#[test]
fn closure_transducer_full_table() {
    let seen = scenario_suite();
    let cl = &seen["CL"];
    // Fig. 3 has 14 transitions (the determination update is 14 here).
    let expected: BTreeSet<u8> = (1..=14).collect();
    let missing: Vec<u8> = expected.difference(cl).copied().collect();
    assert!(
        missing.is_empty(),
        "CL transitions never fired: {missing:?}"
    );
}

#[test]
fn variable_creator_full_table() {
    let seen = scenario_suite();
    let vc = &seen["VC"];
    // Fig. 6 has 6 transitions; 6 (determination pass-through) requires a
    // determination to cross a VC, which the nested-qualifier case provides.
    let expected: BTreeSet<u8> = (1..=6).collect();
    let missing: Vec<u8> = expected.difference(vc).copied().collect();
    assert!(
        missing.is_empty(),
        "VC transitions never fired: {missing:?}"
    );
}

#[test]
fn connector_tables() {
    let seen = scenario_suite();
    // VD: activations determined (1) and pass-through (2).
    let vd = &seen["VD"];
    assert!(vd.contains(&1), "VD(1) never fired");
    // UN: store (1), merge (2), emit (3), determination pass (4).
    let un = &seen["UN"];
    for t in [1u8, 2, 3, 4] {
        assert!(un.contains(&t), "UN({t}) never fired: {un:?}");
    }
    // IN fires its activation, SP forwards, VF passes matches.
    assert!(seen["IN"].contains(&1));
    assert!(seen["SP"].contains(&1));
    assert!(seen["VF"].contains(&1));
}

#[test]
fn axis_extension_tables() {
    let seen = scenario_suite();
    let fo = &seen["FO"];
    for t in [1u8, 2, 3, 4] {
        assert!(fo.contains(&t), "FO({t}) never fired: {fo:?}");
    }
    let pr = &seen["PR"];
    for t in [1u8, 2, 3, 4] {
        assert!(pr.contains(&t), "PR({t}) never fired: {pr:?}");
    }
}
