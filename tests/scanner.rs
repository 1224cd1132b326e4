//! Scanner-equivalence suite (DESIGN.md §18): the SWAR fast path of the
//! streaming reader must be *observationally invisible* — for any input
//! whatsoever, `ScannerKind::Fast` and `ScannerKind::Classic` must deliver
//! byte-identical events, identical faults (kind, position, action, detail,
//! damage interval), identical final positions and identical errors, under
//! every recovery policy, in single- and multi-document mode.
//!
//! The same holds for *chunking*: the push [`Parser`] fed the bytes at any
//! split — every single split point, one byte at a time, or random chunk
//! sizes — must be indistinguishable from one whole-input parse (the
//! any-chunking suite at the end of this file).
//!
//! Three layers:
//!
//! * a hand-curated fuzz corpus of pathological shapes (CDATA, comments,
//!   processing instructions, entity soup, quotes hiding `>`, UTF-8 names
//!   and text, malformed markup),
//! * every PR-2 fault mutator over representative documents at many seeds,
//! * property-based random documents (attribute-rich, entity-heavy,
//!   non-ASCII) serialized and re-read under both scanners, clean and
//!   mutated.

use proptest::prelude::*;
use spex::xml::{
    EventStore, Fault, Parser, Poll, Position, Reader, RecoveryPolicy, ScannerKind, XmlEvent,
};
use spex_bench::fault::{mutate, Mutator};

/// Drain a document through `Reader::next_into` (the only API the fast path
/// affects) and capture everything observable: the materialized events, the
/// fault list, the final position, and any terminal error.
fn drain(
    xml: &str,
    scanner: ScannerKind,
    policy: RecoveryPolicy,
    multi: bool,
) -> (Vec<XmlEvent>, Vec<Fault>, Position, Option<String>) {
    let mut reader = Reader::from_str(xml)
        .with_recovery(policy)
        .with_scanner(scanner);
    if multi {
        reader = reader.multi_document();
    }
    let mut store = EventStore::new();
    let mut events = Vec::new();
    let mut error = None;
    loop {
        match reader.next_into(&mut store) {
            Ok(Some(id)) => events.push(store.get(id).to_owned_event()),
            Ok(None) => break,
            Err(e) => {
                error = Some(e.to_string());
                break;
            }
        }
    }
    (events, reader.take_faults(), reader.position(), error)
}

/// The equivalence oracle: both scanners, three policies, both document
/// modes — twelve drains that must agree pairwise.
fn assert_scanners_agree(xml: &str) {
    for policy in [
        RecoveryPolicy::Strict,
        RecoveryPolicy::Repair,
        RecoveryPolicy::SkipSubtree,
    ] {
        for multi in [false, true] {
            let fast = drain(xml, ScannerKind::Fast, policy, multi);
            let classic = drain(xml, ScannerKind::Classic, policy, multi);
            assert_eq!(fast, classic, "{policy:?} multi={multi} on {xml:?}");
        }
    }
}

/// Hand-curated pathological corpus: every construct that forces the fast
/// path to fall back, plus shapes designed to trap a scanner that consumed
/// bytes before validating (the one bug class the design forbids).
const FUZZ_CORPUS: &[&str] = &[
    // Clean baseline shapes.
    "<a/>",
    "<a><b c=\"1\">text</b></a>",
    "<r><x/><x/><x/></r>",
    // Entities everywhere: text, attribute values, truncated, unknown.
    "<a>x&amp;y</a>",
    "<a k=\"v&lt;w\">t</a>",
    "<a>&amp;&lt;&gt;&quot;&apos;</a>",
    "<a>&unknown;</a>",
    "<a>&amp</a>",
    "<a>&#60;&#x3C;</a>",
    "<a>&;</a>",
    // CDATA, comments, processing instructions, doctype-ish noise.
    "<a><![CDATA[<not-a-tag> & not-an-entity]]></a>",
    "<a><!-- <b> & --></a>",
    "<a><?pi some data?></a>",
    "<?xml version=\"1.0\"?><a>x</a>",
    "<a><![CDATA[]]></a>",
    "<a><!-- -- --></a>",
    // Quote games: `>` and `/>` hiding inside attribute values.
    "<a k=\"1>2\">x</a>",
    "<a k='/>'>x</a>",
    "<a k=\"a'b\" l='c\"d'/>",
    "<a k=\">\" l=\">\">t</a>",
    // UTF-8 names, values and text (fast path is ASCII-only by design).
    "<a>gr\u{fc}\u{df}e</a>",
    "<\u{e9}l\u{e9}ment>x</\u{e9}l\u{e9}ment>",
    "<a k=\"\u{8cea}\">\u{8cea}\u{554f}</a>",
    "<a>mixed ascii \u{2603} snowman</a>",
    // Malformed: the classic fault machinery must fire identically.
    "<a><b></a>",
    "</stray>",
    "<a",
    "<a href=no-quotes>x</a>",
    "<a><b>x</b>",
    "<a>x</a><b>y</b>",
    "<>empty</>",
    "<a>< b/></a>",
    "<a/ >",
    "<a k=\"unterminated>x</a>",
    "<a>text</a>trailing",
    "< a></ a>",
    "<a//>",
    "<a k==\"v\"/>",
    // Whitespace and boundary shapes.
    "  <a>  </a>  ",
    "<a\t\nk=\"v\"\n>x</a\n>",
    "<a>x<b/>y<c/>z</a>",
    "",
    "   ",
];

#[test]
fn fuzz_corpus_is_scanner_equivalent() {
    for xml in FUZZ_CORPUS {
        assert_scanners_agree(xml);
    }
}

/// Every PR-2 fault mutator × many seeds over documents with attributes,
/// entities, self-closing tags and nesting: the mutated (usually broken)
/// streams must be read identically by both scanners.
#[test]
fn fault_mutators_are_scanner_equivalent() {
    let seeds: Vec<u64> = (0..24).map(|i| 0x5caf + i * 101).collect();
    let docs = [
        "<r><a k=\"v\"><b>text &amp; more</b></a><c/><d>tail</d></r>",
        "<doc><item id=\"1\">x</item><item id=\"2\">y&lt;z</item></doc>",
        "<a><b><c><d>deep</d></c></b></a>",
    ];
    for doc in docs {
        for mutator in Mutator::ALL {
            for &seed in &seeds {
                let mutation = mutate(doc, mutator, seed);
                if mutation.changed {
                    assert_scanners_agree(&mutation.xml);
                }
            }
        }
    }
}

// ----- property-based layer -----

fn name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_:-]{0,5}"
}

/// Text mixing plain ASCII runs (the fast path), XML-special characters
/// (entity escapes on the wire) and non-ASCII (UTF-8 fallback).
fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        prop_oneof![
            4 => Just('x'),
            2 => Just(' '),
            1 => Just('&'),
            1 => Just('<'),
            1 => Just('>'),
            1 => Just('"'),
            1 => Just('\''),
            1 => Just('\u{e9}'),
            1 => Just('\u{8cea}'),
        ],
        0..12,
    )
    .prop_map(|cs| cs.into_iter().collect())
}

fn attrs() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((name(), text()), 0..3).prop_map(|raw| {
        let mut seen = std::collections::HashSet::new();
        raw.into_iter()
            .filter(|(n, _)| seen.insert(n.clone()))
            .collect()
    })
}

/// Balanced random subtree as an event list, mixing elements with
/// attributes, text runs and self-closing leaves.
fn subtree(depth: u32) -> impl Strategy<Value = Vec<XmlEvent>> {
    let leaf = prop_oneof![
        text().prop_map(|t| if t.is_empty() {
            vec![]
        } else {
            vec![XmlEvent::text(t)]
        }),
        (name(), attrs()).prop_map(|(n, attrs)| {
            vec![
                XmlEvent::StartElement {
                    name: n.clone(),
                    attributes: attrs
                        .into_iter()
                        .map(|(k, v)| spex::xml::Attribute::new(k, v))
                        .collect(),
                },
                XmlEvent::close(n),
            ]
        }),
    ];
    leaf.prop_recursive(depth, 40, 4, |inner| {
        (name(), proptest::collection::vec(inner, 0..4)).prop_map(|(n, kids)| {
            let mut v = vec![XmlEvent::open(n.clone())];
            for k in kids {
                v.extend(k);
            }
            v.push(XmlEvent::close(n));
            v
        })
    })
}

fn document_xml() -> impl Strategy<Value = String> {
    (name(), proptest::collection::vec(subtree(3), 0..4)).prop_map(|(root, kids)| {
        let mut events = vec![XmlEvent::StartDocument, XmlEvent::open(root.clone())];
        for k in kids {
            events.extend(k);
        }
        events.push(XmlEvent::close(root));
        events.push(XmlEvent::EndDocument);
        spex::xml::writer::events_to_string(&events)
    })
}

proptest! {
    /// Clean random documents: both scanners agree on every observable.
    #[test]
    fn random_documents_are_scanner_equivalent(xml in document_xml()) {
        assert_scanners_agree(&xml);
    }

    /// Mutated random documents: inject every fault mutator at a random
    /// seed; the (usually malformed) result must still be read identically.
    #[test]
    fn mutated_documents_are_scanner_equivalent(
        xml in document_xml(),
        seed in 0u64..1_000_000
    ) {
        for mutator in Mutator::ALL {
            let mutation = mutate(&xml, mutator, seed);
            if mutation.changed {
                assert_scanners_agree(&mutation.xml);
            }
        }
    }
}

// ----- any-chunking equivalence against the parser itself -----

const POLICIES: [RecoveryPolicy; 3] = [
    RecoveryPolicy::Strict,
    RecoveryPolicy::Repair,
    RecoveryPolicy::SkipSubtree,
];

/// Everything observable about one push parse: the events, the fault log
/// (kinds, positions, damage intervals), the final position, the resume
/// point after every `EndDocument`, and the terminal error.
type Observed = (
    Vec<XmlEvent>,
    Vec<Fault>,
    Position,
    Vec<(u64, Position, bool)>,
    Option<String>,
);

/// Feed `xml` to a push parser in `chunks` (sizes applied cyclically),
/// polling until `NeedMore` after every feed, then close the input and
/// drain.
fn drain_chunked(
    xml: &[u8],
    chunks: &[usize],
    scanner: ScannerKind,
    policy: RecoveryPolicy,
    multi: bool,
) -> Observed {
    let mut parser = Parser::new().with_recovery(policy).with_scanner(scanner);
    if multi {
        parser = parser.multi_document();
    }
    let mut store = EventStore::new();
    let (mut events, mut resumes, mut error) = (Vec::new(), Vec::new(), None);
    let (mut offset, mut turn, mut closed) = (0, 0, false);
    'stream: loop {
        if offset < xml.len() {
            let n = chunks[turn % chunks.len()].clamp(1, xml.len() - offset);
            turn += 1;
            parser.feed(&xml[offset..offset + n]);
            offset += n;
        } else {
            parser.end_input();
            closed = true;
        }
        loop {
            match parser.poll_into(&mut store) {
                Ok(Poll::Event(id)) => {
                    let event = store.get(id).to_owned_event();
                    if event == XmlEvent::EndDocument {
                        resumes.push(parser.resume_point());
                    }
                    events.push(event);
                }
                Ok(Poll::NeedMore) => {
                    assert!(!closed, "NeedMore after end_input");
                    // The construct in flight was left untouched: polling
                    // again without feeding reports the same and moves
                    // nothing a caller can observe.
                    let observe = |p: &Parser| {
                        let faults = p.faults().len();
                        (faults, p.events_emitted(), p.depth(), p.resume_point())
                    };
                    let before = observe(&parser);
                    assert_eq!(parser.poll_into(&mut store), Ok(Poll::NeedMore));
                    assert_eq!(observe(&parser), before, "NeedMore moved parser state");
                    break;
                }
                Ok(Poll::End) => break 'stream,
                Err(e) => {
                    error = Some(e.to_string());
                    break 'stream;
                }
            }
        }
    }
    (
        events,
        parser.take_faults(),
        parser.position(),
        resumes,
        error,
    )
}

/// The chunkings every input is put through: every single split point, and
/// one byte per feed.
fn assert_chunking_invisible(xml: &str, extra: &[Vec<usize>]) {
    let bytes = xml.as_bytes();
    for policy in POLICIES {
        for multi in [false, true] {
            for scanner in [ScannerKind::Fast, ScannerKind::Classic] {
                let whole = drain_chunked(bytes, &[bytes.len().max(1)], scanner, policy, multi);
                // The pull adapter is the same parser behind 8 KiB reads.
                let pulled = drain(xml, scanner, policy, multi);
                assert_eq!(
                    (&whole.0, &whole.1, &whole.2, &whole.4),
                    (&pulled.0, &pulled.1, &pulled.2, &pulled.3),
                    "push vs pull: {policy:?} multi={multi} {scanner:?} on {xml:?}"
                );
                let splits = (1..bytes.len()).map(|at| vec![at, bytes.len()]);
                for chunks in splits.chain([vec![1]]).chain(extra.iter().cloned()) {
                    let chunked = drain_chunked(bytes, &chunks, scanner, policy, multi);
                    assert_eq!(
                        chunked, whole,
                        "{policy:?} multi={multi} {scanner:?} chunks={chunks:?} on {xml:?}"
                    );
                }
            }
        }
    }
}

#[test]
fn fuzz_corpus_is_chunking_invariant() {
    for xml in FUZZ_CORPUS {
        assert_chunking_invisible(xml, &[]);
    }
    // Shapes whose end is decided by a lookahead the corpus lacks: document
    // boundaries behind epilog comments/PIs, DOCTYPE subsets, terminator
    // look-alikes, and faults followed by long discards.
    for xml in [
        "<a/> <!--t--> <?p q?>\n<b>x</b><c/>",
        "<!DOCTYPE a [<!ELEMENT a (b)> <!-- ] > -->]><a><b/></a><!DOCTYPE b><b/>",
        "<a><!-- - -- ---><![CDATA[]]]]]><?p ??>?></a>",
        "<a><bad><%%%><x q=\"</bad>\"/><!-- </bad> --><![CDATA[</bad>]]><y></y></bad><c/></a>",
        "<a><b>x</c>junk &bogus; <d e='&nope;'/></a>trailing<f/>",
    ] {
        assert_chunking_invisible(xml, &[]);
    }
}

#[test]
fn fault_mutators_are_chunking_invariant() {
    let seeds: Vec<u64> = (0..6).map(|i| 0x5caf + i * 101).collect();
    let doc = "<r><a k=\"v\"><b>text &amp; more</b></a><c/><d>tail</d></r>";
    for mutator in Mutator::ALL {
        for &seed in &seeds {
            let mutation = mutate(doc, mutator, seed);
            if mutation.changed {
                assert_chunking_invisible(&mutation.xml, &[]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random documents, clean and mutated, under proptest-chosen
    /// chunkings on top of the fixed ones.
    #[test]
    fn random_documents_are_chunking_invariant(
        xml in document_xml(),
        seed in 0u64..1_000_000,
        chunks in proptest::collection::vec(1usize..24, 1..6)
    ) {
        assert_chunking_invisible(&xml, std::slice::from_ref(&chunks));
        let mutator = Mutator::ALL[seed as usize % Mutator::ALL.len()];
        let mutation = mutate(&xml, mutator, seed);
        if mutation.changed {
            assert_chunking_invisible(&mutation.xml, std::slice::from_ref(&chunks));
        }
    }
}
