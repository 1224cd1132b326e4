//! The activation-driven schedule, counted: over the served feed's query
//! set (128 `p`/`g` query pairs plus `end`, one combined network of 524
//! nodes), the VM steps only the operators an event can change — sibling
//! child steps as one label switch — while the paper's per-message
//! accounting stays exactly what stepping every operator gives, across a
//! session reset at every document.

use spex::core::sink::ResultSink;
use spex::core::CountingSink;
use spex::query::Rpeq;

/// Fields in the catalog, and per document (as the benchmark's feed).
const FIELDS: usize = 128;
const FIELDS_PER_DOC: usize = 8;

/// splitmix64, as the benchmark's generator seeds it.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// The feed's standing queries: `p<i>` selects field `i` of every product,
/// `g<i>` only of products with a `meta.lang`, `end` the trailer.
fn feed_queries() -> Vec<(String, Rpeq)> {
    let mut queries = Vec::new();
    for i in 0..FIELDS {
        queries.push((format!("p{i}"), format!("catalog.product.fld{i:03}")));
        queries.push((
            format!("g{i}"),
            format!("catalog.product[meta.lang].fld{i:03}"),
        ));
    }
    queries.push(("end".to_string(), "catalog.end".to_string()));
    queries
        .into_iter()
        .map(|(name, q)| (name, q.parse().expect("feed query parses")))
        .collect()
}

/// One catalog document of the feed: eight consecutive fields from a random
/// window, and a `meta.lang` on every other document.
fn feed_document(doc: usize, text: &mut Rng) -> String {
    let window = text.below(FIELDS as u64) as usize;
    let mut xml = String::from("<catalog><product>");
    for j in 0..FIELDS_PER_DOC {
        let field = (window + j) % FIELDS;
        xml.push_str(&format!("<fld{field:03}>"));
        for _ in 0..3 {
            xml.push((b'a' + text.below(26) as u8) as char);
        }
        xml.push_str(&format!("</fld{field:03}>"));
    }
    xml.push_str(if doc.is_multiple_of(2) {
        "<meta><lang>en</lang></meta>"
    } else {
        "<meta><code>en</code></meta>"
    });
    xml.push_str("</product><end/></catalog>");
    xml
}

#[test]
fn feed_steps_only_what_an_event_can_change() {
    let set = spex_combine::combine(&feed_queries())
        .expect("feed queries combine")
        .set;
    assert_eq!(set.degree(), 524);
    // `product|end` under `catalog`, and the fields of `product` and of
    // `product[meta.lang]`.
    assert_eq!(set.plan().switch_count(), 3);
    let mut sinks: Vec<CountingSink> = (0..set.ids().len()).map(|_| CountingSink::new()).collect();
    let mut run = set.run(sinks.iter_mut().map(|s| s as &mut dyn ResultSink).collect());
    let mut text = Rng(1);
    // Per document shape (with and without `meta.lang`): the messages and
    // steps one document costs. A reset that left anything behind would
    // make a later document of the same shape cost differently.
    let mut cost: [Option<(u64, u64)>; 2] = [None, None];
    for doc in 0..200 {
        let before = (run.stats().messages, run.ops_stepped());
        for ev in spex::xml::reader::parse_events(&feed_document(doc, &mut text)).unwrap() {
            run.push(ev);
        }
        run.reset_session();
        let spent = (
            run.stats().messages - before.0,
            run.ops_stepped() - before.1,
        );
        let shape = &mut cost[doc % 2];
        assert_eq!(*shape.get_or_insert(spent), spent, "document {doc}");
    }
    let ticks = run.tick();
    let stepped = run.ops_stepped();
    let by_kind = run.ops_stepped_by_kind();
    let per_node: u64 = run.transducer_stats().iter().map(|t| t.messages).sum();
    let stats = run.finish();
    assert_eq!(ticks, 7400);
    // Stepping every operator on every event would be 524 steps per tick;
    // waking every `CH(fld…)` on each `<product>` and `</product>`, and each
    // output on every determination, was 26.1.
    assert!(
        stepped <= 8 * ticks,
        "{stepped} operator steps over {ticks} ticks"
    );
    // The 256 `CH(fld…)` run as two label switches, woken by the children of
    // `<product>` and its close; an output without a candidate only counts
    // the determinations that reach it.
    let steps = |kinds: &[&str]| -> u64 {
        by_kind
            .iter()
            .filter(|(k, _)| kinds.contains(&k.as_str()))
            .map(|(_, n)| n)
            .sum()
    };
    let (child, output) = (steps(&["CH", "SW"]), steps(&["OU"]));
    assert!(
        2 * child <= 3 * ticks,
        "{child} CH and switch steps over {ticks} ticks: {by_kind:?}"
    );
    assert!(
        output <= 6 * ticks,
        "{output} OU steps over {ticks} ticks: {by_kind:?}"
    );
    assert_eq!(
        steps(&["IN", "CH", "CL", "VC", "VF", "VD", "SP", "JO", "UN", "OU", "SW"]),
        stepped
    );
    // The paper's per-message accounting, as the executor that stepped
    // every operator counted it.
    assert_eq!(stats.messages, 4_019_300);
    assert_eq!(per_node, stats.messages);
    assert_eq!(stats.results, 2600);
}
