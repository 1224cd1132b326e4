use super::framing::BUF_SIZE;
use super::*;
use crate::event::Attribute;
use crate::recover::FaultAction;

fn ok(xml: &str) -> Vec<XmlEvent> {
    parse_events(xml).unwrap_or_else(|e| panic!("parse {xml:?}: {e}"))
}

fn err(xml: &str) -> XmlError {
    match parse_events(xml) {
        Ok(evs) => panic!("expected error for {xml:?}, got {evs:?}"),
        Err(e) => e,
    }
}

#[test]
fn figure_1_stream() {
    // The exact document of Fig. 1 of the paper.
    let xml = r#"<?xml version="1.0"?><a><a><c/></a><b/><c/></a>"#;
    let evs = ok(xml);
    let rendered: Vec<String> = evs.iter().map(|e| e.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "<$>", "<a>", "<a>", "<c>", "</c>", "</a>", "<b>", "</b>", "<c>", "</c>", "</a>",
            "</$>"
        ]
    );
}

#[test]
fn next_into_matches_next_event() {
    let xml = r#"<a x="1 &amp; 2"><b>t &lt; u</b><!--c--><?pi d?><c/></a>"#;
    let owned = ok(xml);
    let mut store = EventStore::new();
    let mut reader = Reader::from_str(xml);
    let mut ids = Vec::new();
    while let Some(id) = reader.next_into(&mut store).unwrap() {
        ids.push(id);
    }
    let via_store: Vec<XmlEvent> = ids
        .iter()
        .map(|id| store.get(*id).to_owned_event())
        .collect();
    assert_eq!(via_store, owned);
}

#[test]
fn attributes_and_both_quote_styles() {
    let evs = ok(r#"<a x="1" y='two &amp; three'/>"#);
    match &evs[1] {
        XmlEvent::StartElement { name, attributes } => {
            assert_eq!(name, "a");
            assert_eq!(attributes.len(), 2);
            assert_eq!(attributes[0], Attribute::new("x", "1"));
            assert_eq!(attributes[1], Attribute::new("y", "two & three"));
        }
        other => panic!("expected start element, got {other:?}"),
    }
}

#[test]
fn text_with_entities() {
    let evs = ok("<a>1 &lt; 2 &amp;&amp; 3 &gt; 2</a>");
    assert_eq!(evs[2], XmlEvent::text("1 < 2 && 3 > 2"));
}

#[test]
fn cdata_is_text() {
    let evs = ok("<a><![CDATA[<not> & markup]]></a>");
    assert_eq!(evs[2], XmlEvent::text("<not> & markup"));
}

#[test]
fn cdata_with_brackets() {
    let evs = ok("<a><![CDATA[x]]y]]]></a>");
    assert_eq!(evs[2], XmlEvent::text("x]]y]"));
}

#[test]
fn comments_and_pis() {
    let evs = ok("<!-- head --><a><?pi some data?><!--in--></a><!--tail-->");
    assert_eq!(evs[1], XmlEvent::Comment(" head ".into()));
    assert_eq!(
        evs[3],
        XmlEvent::ProcessingInstruction {
            target: "pi".into(),
            data: "some data".into()
        }
    );
    assert_eq!(evs[4], XmlEvent::Comment("in".into()));
    assert_eq!(evs[6], XmlEvent::Comment("tail".into()));
}

#[test]
fn doctype_is_skipped() {
    let evs = ok(r#"<!DOCTYPE a [<!ELEMENT a EMPTY>]><a/>"#);
    assert_eq!(evs[1], XmlEvent::open("a"));
}

#[test]
fn self_closing_root() {
    let evs = ok("<a/>");
    assert_eq!(
        evs,
        vec![
            XmlEvent::StartDocument,
            XmlEvent::open("a"),
            XmlEvent::close("a"),
            XmlEvent::EndDocument
        ]
    );
}

#[test]
fn utf8_text_roundtrips() {
    let evs = ok("<a>grüße 東京 🚀</a>");
    assert_eq!(evs[2], XmlEvent::text("grüße 東京 🚀"));
}

#[test]
fn utf8_element_names() {
    let evs = ok("<grüße>x</grüße>");
    assert_eq!(evs[1].element_name(), Some("grüße"));
}

#[test]
fn mismatched_tags_detected() {
    assert!(matches!(
        err("<a><b></a></b>"),
        XmlError::MismatchedTag { .. }
    ));
}

#[test]
fn unexpected_eof_detected() {
    assert!(matches!(err("<a><b>"), XmlError::UnexpectedEof { .. }));
    assert!(matches!(
        err("<a attr="),
        XmlError::UnexpectedEof { .. } | XmlError::Syntax { .. }
    ));
}

#[test]
fn trailing_content_detected() {
    assert!(matches!(err("<a/><b/>"), XmlError::TrailingContent { .. }));
    assert!(matches!(err("<a/>text"), XmlError::TrailingContent { .. }));
}

#[test]
fn empty_document_detected() {
    assert!(matches!(err(""), XmlError::EmptyDocument));
    assert!(matches!(
        err("   <!-- only comment -->  "),
        XmlError::EmptyDocument
    ));
}

#[test]
fn bad_entity_detected() {
    assert!(matches!(err("<a>&nope;</a>"), XmlError::BadEntity { .. }));
    // The first bad reference and its `&`, not the whole text run or
    // attribute value.
    for (xml, bad, offset) in [
        ("<a>hello world &nope; tail</a>", "&nope;", 15),
        ("<a k='x &amp; &bad; y'/>", "&bad;", 14),
    ] {
        let XmlError::BadEntity { entity, position } = err(xml) else {
            panic!("expected BadEntity for {xml:?}");
        };
        assert_eq!((entity.as_str(), position.offset), (bad, offset));
    }
}

#[test]
fn depth_is_tracked() {
    // Note: a self-closing `<c/>` never enters the open-element stack, so
    // an explicit pair is used here.
    let mut r = Reader::from_str("<a><b><c></c></b></a>");
    let mut max = 0;
    while let Some(ev) = r.next_event().unwrap() {
        let _ = ev;
        max = max.max(r.depth());
    }
    assert_eq!(max, 3);
}

#[test]
fn whitespace_text_is_reported() {
    let evs = ok("<a> <b/> </a>");
    assert_eq!(evs[2], XmlEvent::text(" "));
    assert_eq!(evs[5], XmlEvent::text(" "));
}

#[test]
fn iterator_stops_after_error() {
    let mut it = Reader::from_str("<a><b></a>");
    let mut saw_err = false;
    let mut after_err = 0;
    for item in &mut it {
        if saw_err {
            after_err += 1;
        }
        if item.is_err() {
            saw_err = true;
        }
    }
    assert!(saw_err);
    assert_eq!(after_err, 0);
}

#[test]
fn error_positions_are_useful() {
    match err("<a>\n  <b></c></b></a>") {
        XmlError::MismatchedTag { position, .. } => {
            assert_eq!(position.line, 2);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn multi_document_mode_splits_documents() {
    let input = "<a><x/></a>\n<b/>  <c>t</c>";
    let events: Vec<XmlEvent> = Reader::from_bytes(input.as_bytes().to_vec())
        .multi_document()
        .collect::<Result<_>>()
        .unwrap();
    let rendered: Vec<String> = events.iter().map(|e| e.to_string()).collect();
    assert_eq!(
        rendered,
        vec![
            "<$>", "<a>", "<x>", "</x>", "</a>", "</$>", "<$>", "<b>", "</b>", "</$>", "<$>",
            "<c>", "t", "</c>", "</$>"
        ]
    );
}

#[test]
fn multi_document_mode_with_prologs() {
    let input = "<?xml version=\"1.0\"?><a/><?xml version=\"1.0\"?><b/>";
    let events: Vec<XmlEvent> = Reader::from_bytes(input.as_bytes().to_vec())
        .multi_document()
        .collect::<Result<_>>()
        .unwrap();
    let docs = events
        .iter()
        .filter(|e| matches!(e, XmlEvent::StartDocument))
        .count();
    assert_eq!(docs, 2);
}

#[test]
fn single_document_mode_still_rejects_trailing() {
    assert!(matches!(err("<a/><b/>"), XmlError::TrailingContent { .. }));
}

#[test]
fn multi_document_mode_reports_errors_in_later_documents() {
    let input = "<a/><b><c></b>";
    let mut saw_err = false;
    for item in Reader::from_bytes(input.as_bytes().to_vec()).multi_document() {
        if item.is_err() {
            saw_err = true;
        }
    }
    assert!(saw_err);
}

fn repaired(xml: &str, policy: RecoveryPolicy) -> (Vec<String>, Vec<Fault>) {
    let (events, faults) = parse_events_recovering(xml, policy)
        .unwrap_or_else(|e| panic!("recovering parse of {xml:?}: {e}"));
    (events.iter().map(|e| e.to_string()).collect(), faults)
}

#[test]
fn eof_inside_name_errors_cleanly() {
    // Regression: the name/text scan loops used to unwrap() the byte
    // after peeking; EOF mid-name must surface as a clean error.
    for xml in ["<ab", "<ab cd", "<a><b></b", "<a>text"] {
        assert!(
            matches!(err(xml), XmlError::UnexpectedEof { .. }),
            "on {xml:?}"
        );
    }
}

#[test]
fn eof_positions_point_at_end_of_input() {
    for xml in ["<ab", "<a><b>", "<a attr"] {
        match err(xml) {
            XmlError::UnexpectedEof { position, .. } => {
                assert_eq!(position.offset, xml.len() as u64, "on {xml:?}")
            }
            other => panic!("expected EOF error for {xml:?}, got {other:?}"),
        }
    }
}

#[test]
fn strict_policy_is_the_default_and_unchanged() {
    let r = Reader::from_str("<a/>");
    assert_eq!(r.recovery_policy(), RecoveryPolicy::Strict);
    let (rendered, faults) = repaired("<a><b>x</b></a>", RecoveryPolicy::Strict);
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "x", "</b>", "</a>", "</$>"]
    );
    assert!(faults.is_empty());
}

#[test]
fn repair_auto_closes_mismatched_tags() {
    // `</b>` is missing: the close of `a` auto-closes `b`.
    let (rendered, faults) = repaired("<a><b>x</a>", RecoveryPolicy::Repair);
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "x", "</b>", "</a>", "</$>"]
    );
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::MismatchedClose);
    assert_eq!(faults[0].action, FaultAction::AutoClosed);
    // Damage covers <b>'s open (tick 2) through the synthesized closes.
    assert_eq!(faults[0].event_from, 2);
    assert_eq!(faults[0].event_to, 5);
}

#[test]
fn repair_drops_stray_closes() {
    let (rendered, faults) = repaired("<a><b/></c></a>", RecoveryPolicy::Repair);
    assert_eq!(rendered, vec!["<$>", "<a>", "<b>", "</b>", "</a>", "</$>"]);
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::StrayClose);
    assert_eq!(faults[0].action, FaultAction::Dropped);
}

#[test]
fn repair_replaces_bad_entities() {
    let (rendered, faults) = repaired("<a>x &nope; y</a>", RecoveryPolicy::Repair);
    assert_eq!(rendered, vec!["<$>", "<a>", "x \u{FFFD} y", "</a>", "</$>"]);
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::BadEntity);
    assert_eq!(faults[0].action, FaultAction::Replaced);
}

#[test]
fn repair_replaces_bad_entities_in_attributes() {
    let (events, faults) =
        parse_events_recovering("<a x='&bad;'/>", RecoveryPolicy::Repair).unwrap();
    match &events[1] {
        XmlEvent::StartElement { attributes, .. } => {
            assert_eq!(attributes[0].value, "\u{FFFD}");
        }
        other => panic!("expected start element, got {other:?}"),
    }
    assert_eq!(faults[0].kind, FaultKind::BadEntity);
}

#[test]
fn repair_synthesizes_closes_on_truncation() {
    let (rendered, faults) = repaired("<a><b><c>partial", RecoveryPolicy::Repair);
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "<c>", "partial", "</c>", "</b>", "</a>", "</$>"]
    );
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::Truncated);
    assert_eq!(faults[0].action, FaultAction::SynthesizedCloses);
    assert_eq!(faults[0].event_to, u64::MAX);
}

#[test]
fn repair_treats_io_failure_as_truncation() {
    struct FailAfter(Vec<u8>, usize);
    impl Read for FailAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.1 >= self.0.len() {
                return Err(std::io::Error::other("connection reset"));
            }
            let n = buf.len().min(self.0.len() - self.1).min(3);
            buf[..n].copy_from_slice(&self.0[self.1..self.1 + n]);
            self.1 += n;
            Ok(n)
        }
    }
    let mut r =
        Reader::new(FailAfter(b"<a><b>hi".to_vec(), 0)).with_recovery(RecoveryPolicy::Repair);
    let mut rendered = Vec::new();
    while let Some(ev) = r.next_event().unwrap() {
        rendered.push(ev.to_string());
    }
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "hi", "</b>", "</a>", "</$>"]
    );
    assert!(r.truncated());
}

#[test]
fn repair_drops_trailing_content() {
    let (rendered, faults) = repaired("<a/>junk<b/>", RecoveryPolicy::Repair);
    assert_eq!(rendered, vec!["<$>", "<a>", "</a>", "</$>"]);
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::TrailingContent);
}

#[test]
fn repair_resyncs_over_garbage_markup() {
    let (rendered, faults) = repaired("<a><b/><%%%><c/></a>", RecoveryPolicy::Repair);
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "</b>", "<c>", "</c>", "</a>", "</$>"]
    );
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::Garbage);
    assert_eq!(faults[0].action, FaultAction::Dropped);
}

#[test]
fn skip_subtree_discards_smallest_enclosing_element() {
    // Garbage inside <bad>: the whole <bad> subtree is skipped, the
    // sibling <c> survives.
    let (rendered, faults) = repaired(
        "<a><bad><x/><%%%><y/></bad><c/></a>",
        RecoveryPolicy::SkipSubtree,
    );
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<bad>", "<x>", "</x>", "</bad>", "<c>", "</c>", "</a>", "</$>"]
    );
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].kind, FaultKind::Garbage);
    assert_eq!(faults[0].action, FaultAction::SkippedSubtree);
}

#[test]
fn skip_subtree_skim_honours_quotes_comments_and_cdata() {
    let xml = "<a><bad><%%%><x q=\"</bad>\"/><!-- </bad> --><![CDATA[</bad>]]></bad><c/></a>";
    let (rendered, _) = repaired(xml, RecoveryPolicy::SkipSubtree);
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<bad>", "</bad>", "<c>", "</c>", "</a>", "</$>"]
    );
}

#[test]
fn skip_subtree_at_root_ends_document() {
    let (rendered, faults) = repaired("<a><%%%><x/></a>", RecoveryPolicy::SkipSubtree);
    assert_eq!(rendered, vec!["<$>", "<a>", "</a>", "</$>"]);
    assert_eq!(faults[0].action, FaultAction::SkippedSubtree);
}

#[test]
fn recovery_always_yields_balanced_streams() {
    // Depth across the emitted stream never goes negative and ends at 0.
    for xml in [
        "<a><b>x</a>",
        "<a><b/></c></a>",
        "<a><b><c>partial",
        "<a/>junk",
        "<a><%%%></a>",
        "<a><b></b>",
        "",
        "<",
        "<a",
        "<!DOCT",
    ] {
        for policy in [RecoveryPolicy::Repair, RecoveryPolicy::SkipSubtree] {
            let (events, _) =
                parse_events_recovering(xml, policy).unwrap_or_else(|e| panic!("on {xml:?}: {e}"));
            let mut depth = 0i64;
            for ev in &events {
                if ev.opens() {
                    depth += 1;
                }
                if ev.closes() {
                    depth -= 1;
                    assert!(depth >= 0, "negative depth on {xml:?}: {events:?}");
                }
            }
            assert_eq!(depth, 0, "unbalanced stream on {xml:?}: {events:?}");
        }
    }
}

#[test]
fn multi_document_recovery_preserves_later_documents() {
    let input = "<a><b>x</a>junk<c/>";
    let mut r = Reader::from_bytes(input.as_bytes().to_vec())
        .multi_document()
        .with_recovery(RecoveryPolicy::Repair);
    let mut rendered = Vec::new();
    while let Some(ev) = r.next_event().unwrap() {
        rendered.push(ev.to_string());
    }
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "x", "</b>", "</a>", "</$>", "<$>", "<c>", "</c>", "</$>"]
    );
}

#[test]
fn fault_positions_point_at_the_corruption_site() {
    let xml = "<a><b>x</b></c></a>";
    let (_, faults) = repaired(xml, RecoveryPolicy::Repair);
    assert_eq!(faults.len(), 1);
    // The stray `</c>` starts at byte 11; the recorded position is the
    // name start (after `</`).
    assert_eq!(faults[0].position.offset, 13);
}

#[test]
fn comment_with_embedded_dashes() {
    let evs = ok("<a><!--a-b--c--></a>");
    assert_eq!(evs[2], XmlEvent::Comment("a-b--c".into()));
}

#[test]
fn pi_data() {
    for (xml, data) in [
        ("<a><?p a?b??></a>", "a?b?"),
        // Trimmed after decoding: `à` ends in the byte 0xA0, and U+00A0 is
        // whitespace.
        ("<a><?p voilà?></a>", "voilà"),
        ("<a><?p café \u{A0}?></a>", "café"),
    ] {
        for scanner in [ScannerKind::Fast, ScannerKind::Classic] {
            let evs: Vec<XmlEvent> = Reader::new(xml.as_bytes())
                .with_scanner(scanner)
                .collect::<Result<_>>()
                .unwrap_or_else(|e| panic!("parse {xml:?}: {e}"));
            let pi = XmlEvent::ProcessingInstruction {
                target: "p".into(),
                data: data.into(),
            };
            assert_eq!(evs[2], pi, "{xml:?} under {scanner:?}");
        }
    }
}

// ----- structural fast path vs classic scanner (DESIGN.md §18) -----

/// Drain one document through `next_into` under `scanner`, returning
/// the stored events (re-owned for comparison), the fault log, the
/// final position, and the terminal error (if any).
fn drain_into(
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

/// Both scanners must produce byte-identical events, faults (kind,
/// position, action, detail, damage interval), final positions and
/// errors — on any input, under every policy, single- and multi-doc.
fn assert_scanners_agree(xml: &str) {
    for policy in [
        RecoveryPolicy::Strict,
        RecoveryPolicy::Repair,
        RecoveryPolicy::SkipSubtree,
    ] {
        for multi in [false, true] {
            let fast = drain_into(xml, ScannerKind::Fast, policy, multi);
            let classic = drain_into(xml, ScannerKind::Classic, policy, multi);
            assert_eq!(fast, classic, "{policy:?} multi={multi} on {xml:?}");
        }
    }
}

#[test]
fn scanners_agree_on_clean_documents() {
    for xml in [
        r#"<?xml version="1.0"?><a><a><c/></a><b/><c/></a>"#,
        "<a><b attr='1' b=\"2\">text run</b><c/></a>",
        "<a  x = '1'   y=\"2\" ><b/></a>",
        "<root>plain text<child>nested</child>tail text</root>",
        "<a>\n  line\n  breaks\n</a>",
        "<a:ns x:y='1'><b-c.d/></a:ns>",
    ] {
        assert_scanners_agree(xml);
    }
}

#[test]
fn scanners_agree_on_fallback_shapes() {
    // Every shape the fast path must hand back to the classic scanner.
    for xml in [
        "<a>x &amp; y</a>",                   // entity in text
        "<a k='v &lt; w'>t</a>",              // entity in attribute
        "<a><![CDATA[<raw> & bytes]]></a>",   // CDATA
        "<a><!-- comment --><?pi data?></a>", // comment + PI
        "<a>grüße 東京</a>",                  // UTF-8 text
        "<grüße küss='ö'>x</grüße>",          // UTF-8 names/values
        "<a x='v>w'>quoted gt</a>",           // `>` inside a quote
        "<a>text<b>more</b></a><!--tail-->",  // epilog constructs
    ] {
        assert_scanners_agree(xml);
    }
}

#[test]
fn scanners_agree_on_malformed_input() {
    for xml in [
        "<a><b>x</b>",                // truncated (open elements at EOF)
        "<a><b>x</c></a>",            // mismatched close
        "<a><b>x</b></b></a>",        // stray close
        "<a><b x=unquoted>t</b></a>", // unquoted attribute value
        "<a><b <c>>t</a>",            // `<` inside a tag
        "<a>&bogus;</a>",             // undecodable entity
        "<a></a>trailing garbage",    // trailing content
        "<a><b/ ></a>",               // `/` not before `>`
        "<a></ a></a>",               // space before close name
        "<>empty</>",                 // empty names
    ] {
        assert_scanners_agree(xml);
    }
}

#[test]
fn scanners_agree_on_multi_document_streams() {
    assert_scanners_agree("<a><b/>x</a><c>y</c> <d/>");
}

#[test]
fn fast_path_preserves_positions_and_ticks() {
    // The stray `</c>` offset assertion of
    // `fault_positions_point_at_the_corruption_site`, through the fast
    // path: positions must be byte-identical even though the healthy
    // prefix was consumed in bulk.
    let xml = "<a><b>x</b></c></a>";
    let (_, faults, _, _) = drain_into(xml, ScannerKind::Fast, RecoveryPolicy::Repair, false);
    assert_eq!(faults.len(), 1);
    assert_eq!(faults[0].position.offset, 13);
}

#[test]
fn fast_path_is_event_identical_across_buffer_refills() {
    // A document larger than BUF_SIZE forces constructs to straddle
    // refills; the fast path must fall back there without losing bytes.
    let mut xml = String::from("<root>");
    let filler = "x".repeat(97);
    for i in 0..200 {
        xml.push_str(&format!("<item id='{i}'>{filler}</item>"));
    }
    xml.push_str("</root>");
    assert!(xml.len() > BUF_SIZE);
    assert_scanners_agree(&xml);
}

// ----- the push parser fed directly -----

/// Feed `xml` to a parser in `chunk`-byte pieces, polling to `NeedMore`
/// after each, then close the input and drain. Returns the event count.
fn feed_in_chunks(parser: &mut Parser, xml: &[u8], chunk: usize) -> usize {
    let mut store = EventStore::new();
    let mut events = 0;
    let mut drain = |parser: &mut Parser| loop {
        match parser.poll_into(&mut store).unwrap() {
            Poll::Event(_) => {
                events += 1;
                store.reset();
            }
            Poll::NeedMore => {
                // An attempt rolled back leaves the store as it found it.
                assert!(store.is_empty(), "NeedMore left events in the store");
                return false;
            }
            Poll::End => return true,
        }
    };
    for piece in xml.chunks(chunk) {
        parser.feed(piece);
        assert!(!drain(parser), "stream ended before its input did");
    }
    parser.end_input();
    assert!(drain(parser), "NeedMore after end_input");
    events
}

#[test]
fn failed_input_surfaces_after_the_buffered_events() {
    let fail = || std::io::Error::other("connection reset");
    // Strict: the complete constructs parse, then the I/O error.
    let mut parser = Parser::new();
    let mut store = EventStore::new();
    parser.feed(b"<a><b/>par");
    parser.fail_input(fail());
    for _ in 0..4 {
        assert!(matches!(parser.poll_into(&mut store), Ok(Poll::Event(_))));
    }
    let err = parser.poll_into(&mut store).unwrap_err();
    assert!(matches!(err, XmlError::Io(ref m) if m.contains("connection reset")));

    // Repair: the partial text is salvaged and the failure becomes a
    // `truncated` fault at the end of what was received.
    let mut parser = Parser::new().with_recovery(RecoveryPolicy::Repair);
    parser.feed(b"<a><b/>par");
    parser.fail_input(fail());
    let mut rendered = Vec::new();
    while let Poll::Event(id) = parser.poll_into(&mut store).unwrap() {
        rendered.push(store.get(id).to_owned_event().to_string());
    }
    assert_eq!(
        rendered,
        vec!["<$>", "<a>", "<b>", "</b>", "par", "</a>", "</$>"]
    );
    assert!(parser.truncated());
    assert_eq!(parser.faults()[0].position.offset, 10);
}

#[test]
fn rolled_back_attempts_leave_the_store_empty() {
    // UTF-8 and entity text take the classic path, which writes its event
    // before it can tell the input ran out: split anywhere, it is rolled
    // back and the store holds nothing at `NeedMore` (`feed_in_chunks`).
    let xml = "<r>grüße &amp; 東京<a k='v &lt; w'>x &lt; y</a>é<!--c--><?p d?></r>";
    for (chunk, scanner) in
        (2..xml.len()).flat_map(|n| [(n, ScannerKind::Fast), (n, ScannerKind::Classic)])
    {
        let mut parser = Parser::new().with_scanner(scanner);
        assert_eq!(
            feed_in_chunks(&mut parser, xml.as_bytes(), chunk),
            ok(xml).len()
        );
    }
}

/// Satellite: constructs far larger than any chunk, fed one byte per
/// `feed`, cost linear work (each byte examined at most three times: the
/// finder, then the fast path and/or the classic parser) and O(log n)
/// buffer allocations — and a subtree discarded under `skip-subtree` is
/// never buffered at all.
#[test]
fn giant_constructs_cost_linear_work_at_byte_granularity() {
    const N: usize = 1 << 20;
    let fill = "x".repeat(N);
    let subtree = "<x q=\"1>2\">text</x><!-- </bad> --><y/>".repeat(N / 38);
    let cases = [
        ("text", format!("<r>{fill}</r>"), RecoveryPolicy::Strict),
        (
            "attribute value",
            format!("<r><e a=\"{fill}\"/></r>"),
            RecoveryPolicy::Strict,
        ),
        (
            "comment",
            format!("<r><!--{fill}--></r>"),
            RecoveryPolicy::Strict,
        ),
        (
            "CDATA",
            format!("<r><![CDATA[{fill}]]></r>"),
            RecoveryPolicy::Strict,
        ),
        ("PI", format!("<r><?p {fill}?></r>"), RecoveryPolicy::Strict),
        (
            "DOCTYPE",
            format!("<!DOCTYPE r [{fill}]><r/>"),
            RecoveryPolicy::Strict,
        ),
        (
            "skipped subtree",
            format!("<r><bad><%%%>{subtree}</bad><c/></r>"),
            RecoveryPolicy::SkipSubtree,
        ),
    ];
    for (what, xml, policy) in cases {
        let mut parser = Parser::new().with_recovery(policy);
        let events = feed_in_chunks(&mut parser, xml.as_bytes(), 1);
        assert!(events >= 4, "{what}: {events} events");
        let (examined, grows) = (parser.bytes.examined, parser.bytes.grows);
        assert!(
            examined <= 3 * xml.len() as u64,
            "{what}: {examined} byte examinations for {} bytes",
            xml.len()
        );
        // Doubling from BUF_SIZE up to the construct's size.
        let doublings = (xml.len() / BUF_SIZE).ilog2() as u64 + 2;
        let bound = if policy == RecoveryPolicy::Strict {
            doublings
        } else {
            1
        };
        assert!(grows <= bound, "{what}: {grows} buffer allocations");
    }
}
