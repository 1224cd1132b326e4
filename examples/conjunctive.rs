//! Conjunctive queries with regular path expressions (§VII of the paper):
//! multi-sink SPEX networks, one output transducer per head variable.
//!
//! ```sh
//! cargo run --example conjunctive
//! ```

use spex::core::cq::ConjunctiveQuery;

fn main() {
    let xml = "<a><a><c/></a><b/><c/></a>"; // Fig. 1 of the paper

    // The paper's §VII example: q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3.
    // X2 does not lead to a head variable, so its atom becomes a qualifier —
    // the query is equivalent to the rpeq `_*.a[b].c`.
    let cq = ConjunctiveQuery::parse("q(X3) :- Root(_*.a) X1, X1(b) X2, X1(c) X3").unwrap();
    println!("conjunctive query : {cq}");
    let results = cq.evaluate_str(xml).unwrap();
    println!("X3 = {:?}", results["X3"]);
    assert_eq!(
        results["X3"],
        spex::core::evaluate_str("_*.a[b].c", xml).unwrap()
    );
    println!("  (matches the rpeq `_*.a[b].c`, as claimed in §VII)\n");

    // Several head variables: one network pass fills several sinks.
    let cq2 = ConjunctiveQuery::parse("q(X1, X2) :- Root(_*.a) X1, X1(c) X2").unwrap();
    println!("conjunctive query : {cq2}");
    let network = cq2.compile().unwrap();
    println!(
        "network           : {} transducers, sinks for {:?}",
        network.degree(),
        network.ids()
    );
    let results2 = cq2.evaluate_str(xml).unwrap();
    for (var, frags) in &results2 {
        println!("{var} = {frags:?}");
    }
    assert_eq!(results2["X1"].len(), 2);
    assert_eq!(results2["X2"].len(), 2);

    // A deeper pipeline over a small catalog document.
    let catalog = "<catalog>\
        <book><title>Streams</title><author><name>Ada</name></author></book>\
        <book><title>Trees</title></book>\
        </catalog>";
    let cq3 = ConjunctiveQuery::parse(
        "q(Title) :- Root(catalog) C, C(book) B, B(author) A, B(title) Title",
    )
    .unwrap();
    println!("\nconjunctive query : {cq3}");
    let results3 = cq3.evaluate_str(catalog).unwrap();
    println!("Title = {:?}", results3["Title"]);
    // Only the book with an author qualifies (the author atom is a qualifier
    // branch — it does not lead to the head variable).
    assert_eq!(
        results3["Title"],
        vec!["<title>Streams</title>".to_string()]
    );
    println!("\nconjunctive queries behave as specified.");
}
